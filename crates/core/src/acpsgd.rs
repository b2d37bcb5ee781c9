//! The ACP-SGD distributed aggregator: **one** fused all-reduce per step
//! (Algorithms 1–2 wired to a real communicator).

use acp_collectives::{CollectiveOp, CollectiveResult, ReduceOp};
use acp_compression::acp::{AcpSgd, FactorSide};
use acp_tensor::MatrixShape;

use crate::error::CoreError;
use crate::pipeline::{sole_result, Bucket, BucketCodec, PerBucket, Pipelined, Round, WarmStart};

/// The configuration of [`AcpSgdAggregator`]: the same knobs as
/// Power-SGD's.
pub type AcpSgdConfig = crate::powersgd::LowRankConfig;

/// Per-tensor compression state.
#[derive(Debug)]
#[allow(clippy::large_enum_variant)] // few instances, one per tensor
enum LrState {
    Matrix(AcpSgd),
    Vector,
}

/// Per-bucket codec state: one [`LrState`] per tensor in the bucket and the
/// bucket's fused factor payload.
#[derive(Debug)]
struct AcpBucketState {
    states: Vec<LrState>,
    /// Element offset of each tensor's segment in this step's payload
    /// (`states.len() + 1` entries): one factor per matrix, the raw
    /// gradient per vector. Rebuilt every step, since a matrix's `P` and
    /// `Q` factors differ in size.
    payload_offsets: Vec<usize>,
    /// The fused payload. `absorb` writes each segment, `encode` moves it
    /// into the all-reduce, `decode` takes it back reduced and `emit`
    /// reads it; the allocation lives from step to step.
    payload: Vec<f32>,
}

impl AcpBucketState {
    fn new(cfg: AcpSgdConfig, bucket: &Bucket) -> Self {
        let states: Vec<LrState> = bucket
            .dims
            .iter()
            .enumerate()
            .map(|(slot, d)| match MatrixShape::from_tensor_shape(d) {
                MatrixShape::Matrix { rows, cols } => {
                    let ccfg = cfg.codec_config(bucket.tensors.start + slot);
                    LrState::Matrix(AcpSgd::new(rows, cols, ccfg))
                }
                MatrixShape::Vector { .. } => LrState::Vector,
            })
            .collect();
        AcpBucketState {
            states,
            payload_offsets: Vec::new(),
            payload: Vec::new(),
        }
    }

    fn segment(&self, slot: usize) -> std::ops::Range<usize> {
        self.payload_offsets[slot]..self.payload_offsets[slot + 1]
    }
}

/// The ACP-SGD bucket codec: one fused mean all-reduce per bucket carrying
/// this step's low-rank factors (matrices) and raw gradients (vectors).
/// Each matrix is compressed straight from the caller's gradient into its
/// segment of the payload and reconstructed straight into it; the codec
/// holds factors, never gradients.
#[derive(Debug)]
pub struct AcpCodec {
    cfg: AcpSgdConfig,
    buckets: PerBucket<AcpBucketState>,
}

impl AcpCodec {
    fn total_error_norm(&self) -> f32 {
        self.buckets
            .iter()
            .flat_map(|b| &b.states)
            .map(|s| match s {
                LrState::Matrix(state) => state.error_norm(),
                LrState::Vector => 0.0,
            })
            .sum()
    }

    fn next_side(&self) -> Option<FactorSide> {
        self.buckets
            .iter()
            .flat_map(|b| &b.states)
            .find_map(|s| match s {
                LrState::Matrix(state) => Some(state.next_side()),
                LrState::Vector => None,
            })
    }
}

impl BucketCodec for AcpCodec {
    const NAME: &'static str = "acpsgd";

    /// Lays out the step's payload: which factor each matrix transmits is
    /// known before any tensor arrives, so every segment has its place
    /// whatever order they arrive in.
    fn open(&mut self, bucket: &Bucket) {
        let cfg = self.cfg;
        let st = self
            .buckets
            .get_or_insert_with(bucket, || AcpBucketState::new(cfg, bucket));
        st.payload_offsets.clear();
        let mut end = 0usize;
        st.payload_offsets.push(end);
        for (slot, lr) in st.states.iter().enumerate() {
            end += match lr {
                LrState::Matrix(state) => state.transmitted_elements(),
                LrState::Vector => bucket.span(slot).len(),
            };
            st.payload_offsets.push(end);
        }
        st.payload.resize(end, 0.0);
    }

    fn absorb(&mut self, bucket: &Bucket, slot: usize, grad: &[f32]) -> Result<(), CoreError> {
        let st = self.buckets.get_mut(bucket)?;
        let segment = st.segment(slot);
        match &mut st.states[slot] {
            LrState::Matrix(state) => state.try_compress_slice(grad, &mut st.payload[segment])?,
            LrState::Vector => st.payload[segment].copy_from_slice(grad),
        }
        Ok(())
    }

    fn encode(&mut self, bucket: &mut Bucket) -> Result<Vec<CollectiveOp>, CoreError> {
        let st = self.buckets.get_mut(bucket)?;
        bucket.payload_bytes += 4 * st.payload.len() as u64;
        Ok(vec![CollectiveOp::AllReduce {
            buf: std::mem::take(&mut st.payload),
            op: ReduceOp::Mean,
        }])
    }

    fn decode(
        &mut self,
        bucket: &mut Bucket,
        results: Vec<CollectiveResult>,
    ) -> Result<Round, CoreError> {
        let reduced = sole_result(results)?.into_f32()?;
        let st = self.buckets.get_mut(bucket)?;
        if Some(&reduced.len()) != st.payload_offsets.last() {
            return Err(CoreError::CodecProtocol(
                "reduced payload does not match the encoded bucket",
            ));
        }
        st.payload = reduced;
        Ok(Round::Done)
    }

    fn emit(&mut self, bucket: &Bucket, slot: usize, out: &mut [f32]) -> Result<(), CoreError> {
        let st = self.buckets.get_mut(bucket)?;
        let segment = st.segment(slot);
        match &mut st.states[slot] {
            LrState::Matrix(state) => state.try_finish_slice(&st.payload[segment], out)?,
            LrState::Vector => out.copy_from_slice(&st.payload[segment]),
        }
        Ok(())
    }

    /// The factor state machines cannot resume a step stopped between a
    /// compress and its finish: the bucket's factors start over.
    fn abandon(&mut self, bucket: &Bucket) {
        if let Ok(st) = self.buckets.get_mut(bucket) {
            *st = AcpBucketState::new(self.cfg, bucket);
        }
    }

    fn clear(&mut self) {
        self.buckets.clear();
    }

    fn residual_norm(&self) -> Option<f64> {
        self.cfg
            .error_feedback
            .then(|| self.total_error_norm() as f64)
    }
}

/// ACP-SGD aggregator over real collectives.
///
/// Per step each matrix gradient is compressed into *one* low-rank factor
/// (`P` on odd steps, `Q` on even steps); the factors and the uncompressed
/// vector gradients are fused into a single mean all-reduce per bucket,
/// after which every rank decompresses the identical `P Qᵀ` approximation.
/// Exactly one non-blocking collective per bucket per step — the property
/// that lets the paper apply WFBP and tensor fusion, both available here
/// through the shared [`FusedPipeline`](crate::FusedPipeline). The first
/// `warm_start_steps` steps average exactly ([`WarmStart`]).
///
/// # Examples
///
/// See the crate-level example.
pub type AcpSgdAggregator = Pipelined<WarmStart<AcpCodec>>;

impl AcpSgdAggregator {
    /// Creates the aggregator; per-tensor state initializes lazily on the
    /// first [`aggregate`](crate::DistributedOptimizer::aggregate) call.
    pub fn new(cfg: AcpSgdConfig) -> Self {
        let codec = AcpCodec {
            cfg,
            buckets: PerBucket::default(),
        };
        Pipelined::from_codec(
            WarmStart::new(codec, cfg.warm_start_steps),
            cfg.buffer_bytes,
        )
    }

    /// Number of completed aggregation steps.
    pub fn steps(&self) -> u64 {
        self.codec.steps()
    }

    /// Whether the next step still uses the uncompressed warm start.
    pub fn in_warm_start(&self) -> bool {
        self.codec.in_warm_start()
    }

    /// Which factor the next step will transmit (`None` before the first
    /// step or for models with no matrix parameters).
    pub fn next_side(&self) -> Option<FactorSide> {
        self.codec.inner.next_side()
    }

    /// Sum of per-matrix error-feedback residual norms (diagnostics).
    pub fn total_error_norm(&self) -> f32 {
        self.codec.inner.total_error_norm()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::{DistributedOptimizer, GradViewMut};
    use acp_collectives::{Communicator, ThreadGroup};
    use acp_tensor::vecops::relative_error;
    use acp_tensor::{Matrix, SeedableStdNormal};

    #[test]
    fn alternates_sides_across_steps() {
        use acp_collectives::LocalCommunicator;
        let mut opt = AcpSgdAggregator::new(AcpSgdConfig::default());
        let mut comm = LocalCommunicator::new();
        let dims = [4usize, 3];
        let mut g = vec![1.0f32; 12];
        let mut views = [GradViewMut {
            dims: &dims,
            grad: &mut g,
        }];
        opt.aggregate(&mut views, &mut comm).unwrap();
        assert_eq!(opt.next_side(), Some(FactorSide::Q));
        let mut views = [GradViewMut {
            dims: &dims,
            grad: &mut g,
        }];
        opt.aggregate(&mut views, &mut comm).unwrap();
        assert_eq!(opt.next_side(), Some(FactorSide::P));
    }

    #[test]
    fn identical_inputs_converge_to_input() {
        let a = Matrix::random_std_normal(8, 2, 1);
        let b = Matrix::random_std_normal(6, 2, 2);
        let truth = a.matmul_nt(&b);
        let results = ThreadGroup::run(3, |mut comm| {
            let cfg = AcpSgdConfig {
                rank: 2,
                error_feedback: false,
                ..Default::default()
            };
            let mut opt = AcpSgdAggregator::new(cfg);
            let dims = [8usize, 6];
            let mut out = Vec::new();
            for _ in 0..10 {
                let mut g = truth.as_slice().to_vec();
                let mut views = [GradViewMut {
                    dims: &dims,
                    grad: &mut g,
                }];
                opt.aggregate(&mut views, &mut comm).unwrap();
                out = g;
            }
            out
        });
        for g in results {
            let err = relative_error(truth.as_slice(), &g);
            assert!(err < 1e-2, "relative error {err}");
        }
    }

    #[test]
    fn all_ranks_receive_identical_gradients() {
        let results = ThreadGroup::run(4, |mut comm| {
            let mut opt = AcpSgdAggregator::new(AcpSgdConfig::default());
            let r = comm.rank_id().as_usize() as f32 + 1.0;
            let mut w: Vec<f32> = (0..30).map(|i| (i as f32).sin() * r).collect();
            let mut bias = vec![r; 5];
            let dw = [5usize, 6];
            let db = [5usize];
            let mut views = [
                GradViewMut {
                    dims: &dw,
                    grad: &mut w,
                },
                GradViewMut {
                    dims: &db,
                    grad: &mut bias,
                },
            ];
            opt.aggregate(&mut views, &mut comm).unwrap();
            (w, bias)
        });
        for (w, bias) in &results[1..] {
            for (x, y) in w.iter().zip(&results[0].0) {
                assert!((x - y).abs() < 1e-5);
            }
            assert_eq!(bias, &results[0].1);
        }
        // Vector averaged exactly: mean of ranks+1 = 2.5.
        assert_eq!(results[0].1, vec![2.5; 5]);
    }

    #[test]
    fn error_feedback_conserves_gradient_mass() {
        use acp_collectives::LocalCommunicator;
        let mut opt = AcpSgdAggregator::new(AcpSgdConfig {
            rank: 1,
            ..Default::default()
        });
        let mut comm = LocalCommunicator::new();
        let dims = [4usize, 4];
        let grad: Vec<f32> = (0..16).map(|i| (i as f32 * 0.7).cos()).collect();
        let mut g = grad.clone();
        let mut views = [GradViewMut {
            dims: &dims,
            grad: &mut g,
        }];
        opt.aggregate(&mut views, &mut comm).unwrap();
        let diff: f32 = grad
            .iter()
            .zip(&g)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f32>()
            .sqrt();
        assert!((diff - opt.total_error_norm()).abs() < 1e-4);
    }

    #[test]
    fn matches_powersgd_quality_on_static_gradient() {
        // Convergence-quality parity on a fixed gradient: ACP after 2k
        // steps ≈ Power-SGD after k steps.
        use crate::powersgd::{PowerSgdAggregator, PowerSgdConfig};
        use acp_collectives::LocalCommunicator;
        let truth = Matrix::random_std_normal(12, 10, 7);
        let dims = [12usize, 10];
        let mut comm = LocalCommunicator::new();
        let mut power = PowerSgdAggregator::new(PowerSgdConfig {
            rank: 3,
            error_feedback: false,
            ..Default::default()
        });
        let mut p_out = Vec::new();
        for _ in 0..4 {
            let mut g = truth.as_slice().to_vec();
            let mut views = [GradViewMut {
                dims: &dims,
                grad: &mut g,
            }];
            power.aggregate(&mut views, &mut comm).unwrap();
            p_out = g;
        }
        let mut acp = AcpSgdAggregator::new(AcpSgdConfig {
            rank: 3,
            error_feedback: false,
            ..Default::default()
        });
        let mut a_out = Vec::new();
        for _ in 0..8 {
            let mut g = truth.as_slice().to_vec();
            let mut views = [GradViewMut {
                dims: &dims,
                grad: &mut g,
            }];
            acp.aggregate(&mut views, &mut comm).unwrap();
            a_out = g;
        }
        let p_err = relative_error(truth.as_slice(), &p_out);
        let a_err = relative_error(truth.as_slice(), &a_out);
        assert!(a_err < p_err * 1.5 + 0.05, "ACP {a_err} vs Power {p_err}");
    }

    #[test]
    fn warm_start_uses_exact_averaging() {
        let results = ThreadGroup::run(2, |mut comm| {
            let cfg = AcpSgdConfig {
                rank: 1,
                warm_start_steps: 2,
                ..Default::default()
            };
            let mut opt = AcpSgdAggregator::new(cfg);
            let dims = [3usize, 3];
            let mut outputs = Vec::new();
            for step in 0..3 {
                assert_eq!(opt.in_warm_start(), step < 2);
                let mut g = vec![comm.rank_id().as_usize() as f32 + step as f32; 9];
                let mut views = [GradViewMut {
                    dims: &dims,
                    grad: &mut g,
                }];
                opt.aggregate(&mut views, &mut comm).unwrap();
                outputs.push(g);
            }
            outputs
        });
        for out in results {
            // First two steps: exact mean of {step, step+1} = step + 0.5.
            assert_eq!(out[0], vec![0.5; 9]);
            assert_eq!(out[1], vec![1.5; 9]);
            // Third step: compressed (rank 1 of a constant matrix happens
            // to be exact up to float error, so just check consistency).
            assert!(out[2].iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn vector_only_model_works() {
        // A model with no matrices degenerates to plain averaging.
        let results = ThreadGroup::run(2, |mut comm| {
            let mut opt = AcpSgdAggregator::new(AcpSgdConfig::default());
            let mut b = vec![comm.rank_id().as_usize() as f32; 4];
            let db = [4usize];
            let mut views = [GradViewMut {
                dims: &db,
                grad: &mut b,
            }];
            opt.aggregate(&mut views, &mut comm).unwrap();
            assert_eq!(opt.next_side(), None);
            b
        });
        for b in results {
            assert_eq!(b, vec![0.5; 4]);
        }
    }

    #[test]
    fn overlapped_pushes_match_blocking_bitwise() {
        // WFBP-style pushes (reverse order, like backward) must produce
        // bit-identical results to blocking aggregation across steps, even
        // with tiny buckets and compression state in play.
        let run = |overlapped: bool| {
            ThreadGroup::run(3, move |mut comm| {
                let cfg = AcpSgdConfig::default().with_rank(2).with_buffer_bytes(64);
                let mut opt = AcpSgdAggregator::new(cfg);
                let dims = [vec![4usize, 4], vec![6usize], vec![3usize, 5]];
                let mut out = Vec::new();
                for step in 0..4 {
                    let r = comm.rank_id().as_usize() as f32 + 1.0;
                    let s = step as f32 + 1.0;
                    let mut grads: Vec<Vec<f32>> = dims
                        .iter()
                        .enumerate()
                        .map(|(t, d)| {
                            let n: usize = d.iter().product();
                            (0..n)
                                .map(|i| ((i + t) as f32 * 0.37 * r + s).sin())
                                .collect()
                        })
                        .collect();
                    if overlapped {
                        for i in (0..dims.len()).rev() {
                            let g = grads[i].clone();
                            opt.push_ready(i, &dims[i], &g, &mut comm).unwrap();
                        }
                        let mut views: Vec<GradViewMut<'_>> = dims
                            .iter()
                            .zip(grads.iter_mut())
                            .map(|(d, g)| GradViewMut { dims: d, grad: g })
                            .collect();
                        opt.finish_overlap(&mut views, &mut comm).unwrap();
                    } else {
                        let mut views: Vec<GradViewMut<'_>> = dims
                            .iter()
                            .zip(grads.iter_mut())
                            .map(|(d, g)| GradViewMut { dims: d, grad: g })
                            .collect();
                        opt.aggregate(&mut views, &mut comm).unwrap();
                    }
                    out = grads.concat();
                }
                out
            })
        };
        let blocking = run(false);
        let overlapped = run(true);
        for (b, o) in blocking.iter().zip(&overlapped) {
            for (x, y) in b.iter().zip(o) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }
}
