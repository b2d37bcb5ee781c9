//! Power-SGD distributed aggregation: two fused all-reduces per step
//! (Algorithm 1 wired to a real communicator).

use acp_collectives::{CollectiveOp, CollectiveResult, ReduceOp};
use acp_compression::powersgd::{LowRankConfig as CodecConfig, PowerSgd};
use acp_tensor::MatrixShape;

use crate::error::CoreError;
use crate::pipeline::{
    sole_result, Bucket, BucketCodec, PerBucket, Pipelined, Round, WarmStart, DEFAULT_BUFFER_BYTES,
};

/// Configuration of the two low-rank aggregators, [`PowerSgdAggregator`]
/// and [`crate::AcpSgdAggregator`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LowRankConfig {
    /// Factorization rank (paper: 4 for CNNs, 32 for transformers).
    pub rank: usize,
    /// Maintain per-matrix error-feedback residuals (Algorithm 2) —
    /// required for convergence parity with S-SGD (Fig. 7).
    pub error_feedback: bool,
    /// Reuse the previous aggregated factor as the power-iteration query —
    /// the second Fig. 7 ingredient.
    pub reuse: bool,
    /// Base seed for the rank-shared random factor initialization; see
    /// [`LowRankConfig::codec_config`].
    pub seed: u64,
    /// Number of initial steps aggregated *uncompressed* (exact averaging)
    /// before low-rank compression kicks in — the `start_powerSGD_iter`
    /// warm start of PyTorch's PowerSGD hook, which avoids compressing the
    /// large, fast-changing early-training gradients.
    pub warm_start_steps: u64,
    /// Tensor-fusion buffer capacity in bytes (0 disables fusion).
    pub buffer_bytes: usize,
}

/// The configuration of [`PowerSgdAggregator`].
pub type PowerSgdConfig = LowRankConfig;

impl Default for LowRankConfig {
    fn default() -> Self {
        LowRankConfig {
            rank: 4,
            error_feedback: true,
            reuse: true,
            seed: 42,
            warm_start_steps: 0,
            buffer_bytes: DEFAULT_BUFFER_BYTES,
        }
    }
}

impl LowRankConfig {
    /// Sets the factorization rank.
    #[must_use]
    pub fn with_rank(mut self, rank: usize) -> Self {
        self.rank = rank;
        self
    }

    /// Enables or disables error feedback.
    #[must_use]
    pub fn with_error_feedback(mut self, error_feedback: bool) -> Self {
        self.error_feedback = error_feedback;
        self
    }

    /// Enables or disables query reuse.
    #[must_use]
    pub fn with_reuse(mut self, reuse: bool) -> Self {
        self.reuse = reuse;
        self
    }

    /// Sets the base seed for factor initialization.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the number of uncompressed warm-start steps.
    #[must_use]
    pub fn with_warm_start_steps(mut self, steps: u64) -> Self {
        self.warm_start_steps = steps;
        self
    }

    /// Sets the tensor-fusion buffer capacity in bytes.
    #[must_use]
    pub fn with_buffer_bytes(mut self, buffer_bytes: usize) -> Self {
        self.buffer_bytes = buffer_bytes;
        self
    }

    /// The codec configuration of the matrix at *global* tensor index
    /// `tensor`: this rank, error feedback and reuse, seeded with
    /// `seed ^ tensor·0x9E3779B9`. Seeding by the index in the full tensor
    /// list, not the slot within a bucket, gives every matrix its own
    /// random stream that is identical across ranks and independent of the
    /// bucket layout.
    pub fn codec_config(&self, tensor: usize) -> CodecConfig {
        CodecConfig {
            rank: self.rank,
            error_feedback: self.error_feedback,
            reuse: self.reuse,
            seed: self.seed ^ (tensor as u64).wrapping_mul(0x9E3779B9),
        }
    }
}

/// Per-tensor compression state.
#[derive(Debug)]
#[allow(clippy::large_enum_variant)] // few instances, one per tensor
enum LrState {
    /// Matrix-shaped tensor compressed with Power-SGD.
    Matrix(PowerSgd),
    /// Vector tensor transmitted uncompressed.
    Vector,
}

/// Per-bucket codec state: per-tensor compression state and the bucket's
/// two fused factor payloads.
#[derive(Debug)]
struct PowerBucketState {
    states: Vec<LrState>,
    /// Element offset of each tensor's segment in the round-one payload
    /// (`states.len() + 1` entries): the `P` factor per matrix, the raw
    /// gradient per vector.
    p_offsets: Vec<usize>,
    /// Likewise for the round-two payload: the `Q` factor per matrix,
    /// nothing per vector.
    q_offsets: Vec<usize>,
    /// Round-one payload: written by `absorb`, all-reduced, kept reduced
    /// for the vectors' `emit`. The allocation lives from step to step.
    p_payload: Vec<f32>,
    /// Round-two payload: written by round one's `decode`, all-reduced,
    /// kept reduced for the matrices' `emit`.
    q_payload: Vec<f32>,
    in_q_round: bool,
}

impl PowerBucketState {
    fn new(cfg: PowerSgdConfig, bucket: &Bucket) -> Self {
        let (mut p_offsets, mut q_offsets) = (vec![0usize], vec![0usize]);
        let (mut p_end, mut q_end) = (0usize, 0usize);
        let states: Vec<LrState> = bucket
            .dims
            .iter()
            .enumerate()
            .map(|(slot, d)| {
                let lr = match MatrixShape::from_tensor_shape(d) {
                    MatrixShape::Matrix { rows, cols } => {
                        let ccfg = cfg.codec_config(bucket.tensors.start + slot);
                        let state = PowerSgd::new(rows, cols, ccfg);
                        p_end += rows * state.rank();
                        q_end += cols * state.rank();
                        LrState::Matrix(state)
                    }
                    MatrixShape::Vector { .. } => {
                        p_end += bucket.span(slot).len();
                        LrState::Vector
                    }
                };
                p_offsets.push(p_end);
                q_offsets.push(q_end);
                lr
            })
            .collect();
        PowerBucketState {
            states,
            p_offsets,
            q_offsets,
            p_payload: Vec::new(),
            q_payload: Vec::new(),
            in_q_round: false,
        }
    }

    fn p_segment(&self, slot: usize) -> std::ops::Range<usize> {
        self.p_offsets[slot]..self.p_offsets[slot + 1]
    }

    fn q_segment(&self, slot: usize) -> std::ops::Range<usize> {
        self.q_offsets[slot]..self.q_offsets[slot + 1]
    }
}

/// The Power-SGD bucket codec: round one all-reduces the fused `P` factors
/// plus raw vectors, round two (dispatched from `decode` via
/// [`Round::Next`]) all-reduces the fused `Q` factors. Each matrix is
/// projected straight from the caller's gradient and reconstructed
/// straight into it; the codec holds factors, never gradients.
#[derive(Debug)]
pub struct PowerCodec {
    cfg: PowerSgdConfig,
    buckets: PerBucket<PowerBucketState>,
}

impl PowerCodec {
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
}

impl BucketCodec for PowerCodec {
    const NAME: &'static str = "powersgd";

    fn open(&mut self, bucket: &Bucket) {
        let cfg = self.cfg;
        let st = self
            .buckets
            .get_or_insert_with(bucket, || PowerBucketState::new(cfg, bucket));
        st.in_q_round = false;
        st.p_payload.resize(st.p_offsets[st.states.len()], 0.0);
    }

    fn absorb(&mut self, bucket: &Bucket, slot: usize, grad: &[f32]) -> Result<(), CoreError> {
        let st = self.buckets.get_mut(bucket)?;
        let segment = st.p_segment(slot);
        match &mut st.states[slot] {
            LrState::Matrix(state) => {
                state.try_compute_p_slice(grad, &mut st.p_payload[segment])?
            }
            LrState::Vector => st.p_payload[segment].copy_from_slice(grad),
        }
        Ok(())
    }

    fn encode(&mut self, bucket: &mut Bucket) -> Result<Vec<CollectiveOp>, CoreError> {
        let st = self.buckets.get_mut(bucket)?;
        bucket.payload_bytes += 4 * st.p_payload.len() as u64;
        Ok(vec![CollectiveOp::AllReduce {
            buf: std::mem::take(&mut st.p_payload),
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
        const MISMATCH: CoreError =
            CoreError::CodecProtocol("reduced payload does not match the encoded bucket");
        let slots = st.states.len();
        if st.in_q_round {
            // Round 2 result: aggregated Qs, kept for `emit`.
            if reduced.len() != st.q_offsets[slots] {
                return Err(MISMATCH);
            }
            st.q_payload = reduced;
            return Ok(Round::Done);
        }
        // Round 1 result: aggregated Ps + exact vector means. Compute the
        // local Q factors and (if any matrices) go one more round.
        if reduced.len() != st.p_offsets[slots] {
            return Err(MISMATCH);
        }
        st.p_payload = reduced;
        st.q_payload.resize(st.q_offsets[slots], 0.0);
        for slot in 0..slots {
            let (p_segment, q_segment) = (st.p_segment(slot), st.q_segment(slot));
            if let LrState::Matrix(state) = &mut st.states[slot] {
                state
                    .try_compute_q_slice(&st.p_payload[p_segment], &mut st.q_payload[q_segment])?;
            }
        }
        if st.q_payload.is_empty() {
            return Ok(Round::Done);
        }
        bucket.payload_bytes += 4 * st.q_payload.len() as u64;
        st.in_q_round = true;
        Ok(Round::Next(vec![CollectiveOp::AllReduce {
            buf: std::mem::take(&mut st.q_payload),
            op: ReduceOp::Mean,
        }]))
    }

    fn emit(&mut self, bucket: &Bucket, slot: usize, out: &mut [f32]) -> Result<(), CoreError> {
        let st = self.buckets.get_mut(bucket)?;
        let (p_segment, q_segment) = (st.p_segment(slot), st.q_segment(slot));
        match &mut st.states[slot] {
            LrState::Matrix(state) => state.try_finish_slice(&st.q_payload[q_segment], out)?,
            LrState::Vector => out.copy_from_slice(&st.p_payload[p_segment]),
        }
        Ok(())
    }

    /// The factor state machines cannot resume a step stopped between a
    /// `compute_p` and its `finish`: the bucket's factors start over.
    fn abandon(&mut self, bucket: &Bucket) {
        if let Ok(st) = self.buckets.get_mut(bucket) {
            *st = PowerBucketState::new(self.cfg, bucket);
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

/// Power-SGD aggregator over real collectives.
///
/// Per step and bucket: compute every matrix's `P` factor, all-reduce the
/// fused `P` factors together with the uncompressed vector gradients,
/// orthogonalize and compute the `Q` factors, all-reduce the fused `Q`s,
/// decompress. Two collectives per bucket, the second blocked on the first
/// — the structural cost ACP-SGD removes. Runs on the shared
/// [`FusedPipeline`](crate::FusedPipeline), so buckets still overlap with
/// each other (and with backward compute under WFBP) even though each
/// bucket's rounds serialize. The first `warm_start_steps` steps average
/// exactly ([`WarmStart`]).
pub type PowerSgdAggregator = Pipelined<WarmStart<PowerCodec>>;

impl PowerSgdAggregator {
    /// Creates the aggregator; per-tensor state initializes lazily on the
    /// first [`aggregate`](crate::DistributedOptimizer::aggregate) call.
    pub fn new(cfg: PowerSgdConfig) -> Self {
        let codec = PowerCodec {
            cfg,
            buckets: PerBucket::default(),
        };
        Pipelined::from_codec(
            WarmStart::new(codec, cfg.warm_start_steps),
            cfg.buffer_bytes,
        )
    }

    /// Whether the next step still uses the uncompressed warm start.
    pub fn in_warm_start(&self) -> bool {
        self.codec.in_warm_start()
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
    use acp_tensor::Matrix;

    #[test]
    fn identical_inputs_converge_to_input() {
        // All workers hold the same rank-2 gradient; repeated aggregation
        // must converge to it (power iteration on a fixed matrix).
        use acp_tensor::SeedableStdNormal;
        let a = Matrix::random_std_normal(8, 2, 1);
        let b = Matrix::random_std_normal(6, 2, 2);
        let truth = a.matmul_nt(&b); // 8x6 rank 2
        let results = ThreadGroup::run(3, |mut comm| {
            let cfg = PowerSgdConfig {
                rank: 2,
                error_feedback: false,
                ..Default::default()
            };
            let mut opt = PowerSgdAggregator::new(cfg);
            let dims = [8usize, 6];
            let mut out = Vec::new();
            for _ in 0..6 {
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
    fn vectors_are_plainly_averaged() {
        let results = ThreadGroup::run(2, |mut comm| {
            let mut opt = PowerSgdAggregator::new(PowerSgdConfig::default());
            let r = comm.rank_id().as_usize() as f32;
            let mut w = vec![r; 12]; // 4x3 matrix
            let mut b = vec![10.0 * (r + 1.0); 3]; // bias vector
            let dw = [4usize, 3];
            let db = [3usize];
            let mut views = [
                GradViewMut {
                    dims: &dw,
                    grad: &mut w,
                },
                GradViewMut {
                    dims: &db,
                    grad: &mut b,
                },
            ];
            opt.aggregate(&mut views, &mut comm).unwrap();
            b
        });
        for b in results {
            assert_eq!(b, vec![15.0; 3]); // exact mean, no compression
        }
    }

    #[test]
    fn all_ranks_receive_identical_gradients() {
        let results = ThreadGroup::run(4, |mut comm| {
            let mut opt = PowerSgdAggregator::new(PowerSgdConfig::default());
            let r = comm.rank_id().as_usize() as f32 + 1.0;
            let mut g: Vec<f32> = (0..30).map(|i| (i as f32).sin() * r).collect();
            let dims = [5usize, 6];
            let mut views = [GradViewMut {
                dims: &dims,
                grad: &mut g,
            }];
            opt.aggregate(&mut views, &mut comm).unwrap();
            g
        });
        for g in &results[1..] {
            for (x, y) in g.iter().zip(&results[0]) {
                assert!((x - y).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn error_feedback_conserves_gradient_mass() {
        // Single worker: transmitted + residual accounts for the gradient.
        use acp_collectives::LocalCommunicator;
        let mut opt = PowerSgdAggregator::new(PowerSgdConfig {
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
        // ||grad - transmitted|| == residual norm (EF identity, step 1).
        let diff: f32 = grad
            .iter()
            .zip(&g)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f32>()
            .sqrt();
        assert!((diff - opt.total_error_norm()).abs() < 1e-4);
    }

    #[test]
    fn a_step_discarded_mid_bucket_restarts_the_factors() {
        // One bucket of two matrices and a vector. The discarded step
        // leaves matrix 0 between its `compute_p` and its `finish`; only
        // rebuilding the bucket's factors lets the next steps run.
        let results = ThreadGroup::run(3, |mut comm| {
            let mut opt = PowerSgdAggregator::new(PowerSgdConfig::default().with_rank(2));
            let dims = [vec![4usize, 4], vec![6usize], vec![3usize, 5]];
            let r = comm.rank_id().as_usize() as f32 + 1.0;
            let grads = |step: usize| -> Vec<Vec<f32>> {
                dims.iter()
                    .enumerate()
                    .map(|(t, d)| {
                        let n: usize = d.iter().product();
                        (0..n)
                            .map(|i| ((i + t + step) as f32 * 0.37 * r).sin())
                            .collect()
                    })
                    .collect()
            };
            let aggregate = |opt: &mut PowerSgdAggregator,
                             comm: &mut dyn Communicator,
                             mut g: Vec<Vec<f32>>| {
                let mut views: Vec<GradViewMut<'_>> = dims
                    .iter()
                    .zip(g.iter_mut())
                    .map(|(d, grad)| GradViewMut { dims: d, grad })
                    .collect();
                opt.aggregate(&mut views, comm).unwrap();
                g.concat().iter().map(|v| v.to_bits()).collect::<Vec<u32>>()
            };
            let mut out = vec![aggregate(&mut opt, &mut comm, grads(0))];
            let g = grads(1);
            opt.push_ready(0, &dims[0], &g[0], &mut comm).unwrap();
            assert_eq!(
                opt.push_ready(0, &dims[0], &g[0], &mut comm),
                Err(CoreError::TensorPushedTwice { index: 0 })
            );
            for step in 2..5 {
                out.push(aggregate(&mut opt, &mut comm, grads(step)));
            }
            out
        });
        for got in &results[1..] {
            assert_eq!(got, &results[0]);
        }
    }

    #[test]
    fn overlapped_pushes_match_blocking_bitwise() {
        // The two-round (P then Q) dependency must survive WFBP pushes and
        // multi-bucket plans bit-exactly.
        let run = |overlapped: bool| {
            ThreadGroup::run(3, move |mut comm| {
                let cfg = PowerSgdConfig::default().with_rank(2).with_buffer_bytes(64);
                let mut opt = PowerSgdAggregator::new(cfg);
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
                    let mut views: Vec<GradViewMut<'_>>;
                    if overlapped {
                        for i in (0..dims.len()).rev() {
                            let g = grads[i].clone();
                            opt.push_ready(i, &dims[i], &g, &mut comm).unwrap();
                        }
                        views = dims
                            .iter()
                            .zip(grads.iter_mut())
                            .map(|(d, g)| GradViewMut { dims: d, grad: g })
                            .collect();
                        opt.finish_overlap(&mut views, &mut comm).unwrap();
                    } else {
                        views = dims
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
