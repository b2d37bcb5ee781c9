//! Deep Gradient Compression (Lin et al., ICLR 2018 — the paper's
//! reference \[19\]): Top-k sparsification with the three techniques that
//! made aggressive sparsification train reliably:
//!
//! * **momentum correction** — accumulate local momentum *before*
//!   sparsification (`u ← m·u + g`) so the transmitted values carry the
//!   momentum the optimizer would have applied;
//! * **local gradient accumulation** — accumulate `v ← v + u` and select
//!   from `v`, so unsent coordinates keep growing until they win (error
//!   feedback in accumulated form);
//! * **momentum factor masking** — clear `u` and `v` at the transmitted
//!   coordinates to avoid double-counting and staleness.
//!
//! (Gradient clipping from the original recipe is exposed as an optional
//! L2 clip on the incoming gradient; with tensor fusion the clip applies
//! per fusion bucket, which coincides with the global clip whenever the
//! model fits one bucket — the default 25 MB buffer in practice.)

use acp_collectives::{CollectiveOp, CollectiveResult};
use acp_compression::{Compressor, TopK};

use crate::error::CoreError;
use crate::pipeline::{Bucket, BucketCodec, PerBucket, Pipelined, Round, DEFAULT_BUFFER_BYTES};
use crate::sparse::{gathered_pairs, k_for, sparse_parts, SlotPairs};

/// Configuration for [`DgcAggregator`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DgcConfig {
    /// Selection density (DGC's headline setting: 0.001).
    pub density: f64,
    /// Local momentum coefficient for momentum correction.
    pub momentum: f32,
    /// Optional L2 clip applied to each incoming local gradient (None
    /// disables clipping).
    pub clip_norm: Option<f32>,
    /// Tensor-fusion buffer capacity in bytes (0 disables fusion).
    pub buffer_bytes: usize,
}

impl Default for DgcConfig {
    fn default() -> Self {
        DgcConfig {
            density: 0.001,
            momentum: 0.9,
            clip_norm: None,
            buffer_bytes: DEFAULT_BUFFER_BYTES,
        }
    }
}

impl DgcConfig {
    /// Sets the selection density.
    #[must_use]
    pub fn with_density(mut self, density: f64) -> Self {
        self.density = density;
        self
    }

    /// Sets the momentum-correction coefficient.
    #[must_use]
    pub fn with_momentum(mut self, momentum: f32) -> Self {
        self.momentum = momentum;
        self
    }

    /// Sets (or clears) the L2 gradient clip.
    #[must_use]
    pub fn with_clip_norm(mut self, clip_norm: Option<f32>) -> Self {
        self.clip_norm = clip_norm;
        self
    }

    /// Sets the tensor-fusion buffer capacity in bytes.
    #[must_use]
    pub fn with_buffer_bytes(mut self, buffer_bytes: usize) -> Self {
        self.buffer_bytes = buffer_bytes;
        self
    }
}

/// Per-bucket DGC state: momentum-corrected velocity `u` and accumulated
/// unsent gradient `v`.
#[derive(Debug)]
struct DgcBucketState {
    velocity: Vec<f32>,
    accum: Vec<f32>,
    /// The bucket's incoming gradient, copied in tensor by tensor: the clip
    /// needs the whole bucket's norm before any element can be
    /// accumulated. Owned and reused from step to step.
    buf: Vec<f32>,
    /// The gathered selections, from `decode` to `emit`.
    pairs: SlotPairs,
    /// The selector, built once per bucket: its `k` is fixed by the
    /// bucket's length.
    topk: TopK,
}

/// The DGC bucket codec: clip → momentum correction → accumulate → top-k of
/// the accumulator → mask, one sparse all-gather pair per bucket,
/// scatter-averaged tensor by tensor into the caller's gradient.
#[derive(Debug)]
pub struct DgcCodec {
    cfg: DgcConfig,
    buckets: PerBucket<DgcBucketState>,
}

impl DgcCodec {
    fn accumulated_norm(&self) -> f32 {
        self.buckets
            .iter()
            .flat_map(|b| &b.accum)
            .map(|v| v * v)
            .sum::<f32>()
            .sqrt()
    }

    #[cfg(test)]
    fn accumulated_sum(&self) -> f32 {
        self.buckets.iter().flat_map(|b| &b.accum).sum()
    }
}

impl BucketCodec for DgcCodec {
    const NAME: &'static str = "dgc";

    fn open(&mut self, bucket: &Bucket) {
        let n = bucket.elems;
        let density = self.cfg.density;
        self.buckets.get_or_insert_with(bucket, || DgcBucketState {
            velocity: vec![0.0; n],
            accum: vec![0.0; n],
            buf: vec![0.0; n],
            pairs: SlotPairs::default(),
            topk: TopK::new(k_for(density, n)),
        });
    }

    fn absorb(&mut self, bucket: &Bucket, slot: usize, grad: &[f32]) -> Result<(), CoreError> {
        self.buckets.get_mut(bucket)?.buf[bucket.span(slot)].copy_from_slice(grad);
        Ok(())
    }

    fn encode(&mut self, bucket: &mut Bucket) -> Result<Vec<CollectiveOp>, CoreError> {
        let cfg = self.cfg;
        let st = self.buckets.get_mut(bucket)?;
        // Optional gradient clipping (DGC clips before accumulation).
        if let Some(clip) = cfg.clip_norm {
            let norm = st.buf.iter().map(|v| v * v).sum::<f32>().sqrt();
            if norm > clip {
                let scale = clip / norm;
                for v in &mut st.buf {
                    *v *= scale;
                }
            }
        }
        // Momentum correction + local accumulation.
        for ((u, v), g) in st.velocity.iter_mut().zip(&mut st.accum).zip(&st.buf) {
            *u = cfg.momentum * *u + g;
            *v += *u;
        }
        // Select top-k of the accumulated tensor.
        let payload = st.topk.compress(&st.accum);
        bucket.payload_bytes += payload.wire_bytes() as u64;
        let (indices, values) = sparse_parts(payload)?;
        // Momentum factor masking: clear u and v at transmitted coords.
        for &i in &indices {
            st.velocity[i as usize] = 0.0;
            st.accum[i as usize] = 0.0;
        }
        // Aggregate the sparse selections (all-gather + scatter average,
        // as in the reference implementation).
        Ok(vec![
            CollectiveOp::AllGatherU32 { send: indices },
            CollectiveOp::AllGatherF32 { send: values },
        ])
    }

    fn decode(
        &mut self,
        bucket: &mut Bucket,
        results: Vec<CollectiveResult>,
    ) -> Result<Round, CoreError> {
        let (indices, values) = gathered_pairs(results)?;
        self.buckets
            .get_mut(bucket)?
            .pairs
            .regroup(bucket, &indices, &values)?;
        Ok(Round::Done)
    }

    fn emit(&mut self, bucket: &Bucket, slot: usize, out: &mut [f32]) -> Result<(), CoreError> {
        let inv = 1.0 / bucket.world_size as f32;
        self.buckets
            .get_mut(bucket)?
            .pairs
            .scatter(slot, inv, out, |o, v| *o += v);
        Ok(())
    }

    fn clear(&mut self) {
        self.buckets.clear();
    }

    /// DGC's error feedback lives in the accumulated tensor.
    fn residual_norm(&self) -> Option<f64> {
        Some(self.accumulated_norm() as f64)
    }
}

/// Deep-Gradient-Compression aggregator.
///
/// The decoded result on every rank is the averaged sparse momentum-
/// corrected gradient; pair it with a *plain* SGD update (no additional
/// momentum — the momentum lives inside the aggregator).
pub type DgcAggregator = Pipelined<DgcCodec>;

impl DgcAggregator {
    /// Creates the aggregator.
    ///
    /// # Panics
    ///
    /// Panics if the density is not in `(0, 1]` or momentum is negative.
    pub fn new(cfg: DgcConfig) -> Self {
        assert!(
            cfg.density > 0.0 && cfg.density <= 1.0,
            "density must be in (0, 1]"
        );
        assert!(cfg.momentum >= 0.0, "momentum must be non-negative");
        let codec = DgcCodec {
            cfg,
            buckets: PerBucket::default(),
        };
        Pipelined::from_codec(codec, cfg.buffer_bytes)
    }

    /// L2 norm of the accumulated unsent gradient (diagnostics).
    pub fn accumulated_norm(&self) -> f32 {
        self.codec.accumulated_norm()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::{DistributedOptimizer, GradViewMut};
    use acp_collectives::{Communicator, LocalCommunicator, ThreadGroup};

    fn step(opt: &mut DgcAggregator, comm: &mut LocalCommunicator, grad: &[f32]) -> Vec<f32> {
        let mut g = grad.to_vec();
        let dims = [grad.len()];
        let mut views = [GradViewMut {
            dims: &dims,
            grad: &mut g,
        }];
        opt.aggregate(&mut views, comm).unwrap();
        g
    }

    #[test]
    fn momentum_correction_amplifies_persistent_gradients() {
        // A constant gradient accumulates momentum: the transmitted value
        // after t steps exceeds the raw gradient.
        let mut opt = DgcAggregator::new(DgcConfig {
            density: 0.5,
            momentum: 0.9,
            ..Default::default()
        });
        let mut comm = LocalCommunicator::new();
        let g1 = step(&mut opt, &mut comm, &[1.0, 0.0]);
        // Step 1: u = 1, v = 1 -> sends 1.
        assert_eq!(g1[0], 1.0);
        let g2 = step(&mut opt, &mut comm, &[1.0, 0.0]);
        // Step 2: u = 0.9*0 + 1 = 1 (masked), v = 1 -> sends 1… wait —
        // masking cleared u, so u = 1 and v = 1 again.
        assert_eq!(g2[0], 1.0);
    }

    #[test]
    fn unsent_coordinates_accumulate_until_transmitted() {
        let mut opt = DgcAggregator::new(DgcConfig {
            density: 0.3, // k = ceil(0.9) = 1 of 3
            momentum: 0.0,
            ..Default::default()
        });
        let mut comm = LocalCommunicator::new();
        let grad = [1.0f32, 0.45, 0.0];
        let g1 = step(&mut opt, &mut comm, &grad);
        assert_eq!(g1, vec![1.0, 0.0, 0.0]);
        assert!(opt.accumulated_norm() > 0.0);
        // Coordinate 0 wins (and is masked) each step while coordinate 1
        // accumulates 0.45/step; at step 3 its 1.35 finally wins.
        let g2 = step(&mut opt, &mut comm, &grad);
        assert_eq!(g2, vec![1.0, 0.0, 0.0]);
        let g3 = step(&mut opt, &mut comm, &grad);
        assert!(
            g3[1] > 1.0,
            "accumulated coordinate should transmit: {g3:?}"
        );
        assert_eq!(g3[0], 0.0, "coordinate 0 loses the round it is overtaken");
    }

    #[test]
    fn masking_prevents_double_counting() {
        // Over many steps on a constant gradient, the *cumulative* decoded
        // mass should track t * g, not explode.
        let mut opt = DgcAggregator::new(DgcConfig {
            density: 0.5,
            momentum: 0.0,
            ..Default::default()
        });
        let mut comm = LocalCommunicator::new();
        let mut total = 0.0f32;
        for _ in 0..10 {
            let g = step(&mut opt, &mut comm, &[1.0, 1.0]);
            total += g[0] + g[1];
        }
        // True mass over 10 steps is 20; decoded total plus what remains
        // accumulated must equal it.
        let remaining = opt.codec.accumulated_sum();
        assert!(
            (total + remaining - 20.0).abs() < 1e-4,
            "decoded {total} + pending {remaining} != 20"
        );
    }

    #[test]
    fn clipping_bounds_the_transmitted_norm() {
        let mut opt = DgcAggregator::new(DgcConfig {
            density: 1.0,
            momentum: 0.0,
            clip_norm: Some(1.0),
            ..Default::default()
        });
        let mut comm = LocalCommunicator::new();
        let g = step(&mut opt, &mut comm, &[30.0, 40.0]);
        let norm = (g[0] * g[0] + g[1] * g[1]).sqrt();
        assert!((norm - 1.0).abs() < 1e-5, "clipped norm {norm}");
    }

    #[test]
    fn ranks_agree_distributed() {
        let results = ThreadGroup::run(3, |mut comm| {
            let mut opt = DgcAggregator::new(DgcConfig::default());
            let dims = [6usize];
            let mut g: Vec<f32> = (0..6)
                .map(|i| (i + comm.rank_id().as_usize()) as f32 * 0.5)
                .collect();
            let mut views = [GradViewMut {
                dims: &dims,
                grad: &mut g,
            }];
            opt.aggregate(&mut views, &mut comm).unwrap();
            g
        });
        for r in &results[1..] {
            assert_eq!(r, &results[0]);
        }
    }

    #[test]
    #[should_panic(expected = "density")]
    fn bad_density_panics() {
        DgcAggregator::new(DgcConfig {
            density: 0.0,
            ..Default::default()
        });
    }
}
