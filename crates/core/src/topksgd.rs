//! Top-k SGD over all-gather with scatter-average (§III), with optional
//! error feedback.

use acp_collectives::{CollectiveOp, CollectiveResult};
use acp_compression::{Compressor, ErrorFeedback, TopK};

use crate::error::CoreError;
use crate::pipeline::{Bucket, BucketCodec, PerBucket, Pipelined, Round, DEFAULT_BUFFER_BYTES};
use crate::sparse::{gathered_pairs, k_for, sparse_parts, SlotPairs};

/// Configuration of [`TopkSgdAggregator`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TopkSgdConfig {
    /// Fraction of gradient elements kept per step (paper: 0.001).
    pub density: f64,
    /// Maintain an error-feedback residual (Stich et al.).
    pub error_feedback: bool,
    /// Tensor-fusion buffer capacity in bytes (0 disables fusion).
    pub buffer_bytes: usize,
}

impl Default for TopkSgdConfig {
    fn default() -> Self {
        TopkSgdConfig {
            density: 0.001,
            error_feedback: true,
            buffer_bytes: DEFAULT_BUFFER_BYTES,
        }
    }
}

impl TopkSgdConfig {
    /// Sets the selection density.
    #[must_use]
    pub fn with_density(mut self, density: f64) -> Self {
        self.density = density;
        self
    }

    /// Enables or disables error feedback.
    #[must_use]
    pub fn with_error_feedback(mut self, error_feedback: bool) -> Self {
        self.error_feedback = error_feedback;
        self
    }

    /// Sets the tensor-fusion buffer capacity in bytes.
    #[must_use]
    pub fn with_buffer_bytes(mut self, buffer_bytes: usize) -> Self {
        self.buffer_bytes = buffer_bytes;
        self
    }
}

/// Per-bucket Top-k state.
#[derive(Debug, Default)]
struct TopkBucket {
    /// Error-feedback compressor (`None` on the raw path).
    ef: Option<ErrorFeedback<TopK>>,
    /// The bucket's gradient as selected from — `g + e` with error
    /// feedback, where the correction is the copy in — owned and reused
    /// from step to step. With error feedback, `encode` hands it to
    /// [`ErrorFeedback::compress_swapped`], which turns it into the
    /// residual and swaps it for the old residual's storage; every slot is
    /// overwritten by the next step's `absorb` before it is read again.
    buf: Vec<f32>,
    /// The gathered selections, from `decode` to `emit`.
    pairs: SlotPairs,
}

/// The Top-k bucket codec: the `k = density × n` largest-magnitude elements
/// of each bucket travel as coordinate/value pairs over all-gather and the
/// union is scatter-averaged, tensor by tensor, into the caller's gradient.
#[derive(Debug)]
pub struct TopkCodec {
    density: f64,
    error_feedback: bool,
    buckets: PerBucket<TopkBucket>,
}

impl TopkCodec {
    fn residual_sum(&self) -> f32 {
        self.buckets
            .iter()
            .filter_map(|b| b.ef.as_ref())
            .map(ErrorFeedback::residual_norm)
            .sum()
    }
}

impl BucketCodec for TopkCodec {
    const NAME: &'static str = "topk";

    fn absorb(&mut self, bucket: &Bucket, slot: usize, grad: &[f32]) -> Result<(), CoreError> {
        let st = self.buckets.get_or_insert_with(bucket, TopkBucket::default);
        if st.buf.len() != bucket.elems {
            st.buf.resize(bucket.elems, 0.0);
        }
        let span = bucket.span(slot);
        let density = self.density;
        if self.error_feedback {
            st.ef
                .get_or_insert_with(|| ErrorFeedback::new(TopK::new(k_for(density, bucket.elems))))
                .correct_from(grad, span.start, &mut st.buf);
        } else {
            st.buf[span].copy_from_slice(grad);
        }
        Ok(())
    }

    fn encode(&mut self, bucket: &mut Bucket) -> Result<Vec<CollectiveOp>, CoreError> {
        let k = k_for(self.density, bucket.elems);
        let st = self.buckets.get_mut(bucket)?;
        let payload = match &mut st.ef {
            Some(ef) => ef.compress_swapped(&mut st.buf),
            None => TopK::new(k).compress(&st.buf),
        };
        bucket.payload_bytes += payload.wire_bytes() as u64;
        let (indices, values) = sparse_parts(payload)?;
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

    fn residual_norm(&self) -> Option<f64> {
        self.error_feedback.then(|| self.residual_sum() as f64)
    }
}

/// Top-k sparsified aggregator.
///
/// Gradients are fused per bucket, the `k` largest-magnitude elements (k =
/// density × n, exact selection so every rank contributes the same payload
/// length) are all-gathered with their coordinates, and the union is
/// scatter-averaged — the paper's Top-k SGD with multiple-sampling replaced
/// by exact selection for bit-stable distributed state.
pub type TopkSgdAggregator = Pipelined<TopkCodec>;

impl TopkSgdAggregator {
    /// Creates a Top-k aggregator keeping `density` of the gradient
    /// elements (paper: 0.001), without error feedback.
    ///
    /// # Panics
    ///
    /// Panics if `density` is not in `(0, 1]`.
    pub fn new(density: f64) -> Self {
        TopkSgdAggregator::from_config(
            TopkSgdConfig::default()
                .with_density(density)
                .with_error_feedback(false),
        )
    }

    /// Top-k with an error-feedback residual (the configuration that makes
    /// sparsification converge — Stich et al.).
    ///
    /// # Panics
    ///
    /// Panics if `density` is not in `(0, 1]`.
    #[must_use]
    pub fn with_error_feedback(density: f64) -> Self {
        TopkSgdAggregator::from_config(TopkSgdConfig::default().with_density(density))
    }

    /// Creates the aggregator from a [`TopkSgdConfig`].
    ///
    /// # Panics
    ///
    /// Panics if the configured density is not in `(0, 1]`.
    pub fn from_config(cfg: TopkSgdConfig) -> Self {
        assert!(
            cfg.density > 0.0 && cfg.density <= 1.0,
            "density must be in (0, 1]"
        );
        let codec = TopkCodec {
            density: cfg.density,
            error_feedback: cfg.error_feedback,
            buckets: PerBucket::default(),
        };
        Pipelined::from_codec(codec, cfg.buffer_bytes)
    }

    /// The configured selection density.
    pub fn density(&self) -> f64 {
        self.codec.density
    }

    /// Sum of per-bucket error-feedback residual norms (zero without error
    /// feedback).
    pub fn residual_norm(&self) -> f32 {
        self.codec.residual_sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::{DistributedOptimizer, GradViewMut};
    use acp_collectives::{Communicator, ThreadGroup};

    #[test]
    fn disjoint_selections_average() {
        // Two workers with peaks at different coordinates: both survive,
        // each averaged over world size.
        let results = ThreadGroup::run(2, |mut comm| {
            let mut opt = TopkSgdAggregator::new(0.25); // k = 1 of 4
            let mut g = if comm.rank_id().as_usize() == 0 {
                vec![8.0, 0.1, 0.0, 0.0]
            } else {
                vec![0.0, 0.1, 6.0, 0.0]
            };
            let dims = [4usize];
            let mut views = [GradViewMut {
                dims: &dims,
                grad: &mut g,
            }];
            opt.aggregate(&mut views, &mut comm).unwrap();
            g
        });
        for g in results {
            assert_eq!(g, vec![4.0, 0.0, 3.0, 0.0]);
        }
    }

    #[test]
    fn overlapping_selections_sum_then_average() {
        let results = ThreadGroup::run(2, |mut comm| {
            let mut opt = TopkSgdAggregator::new(0.5); // k = 1 of 2
            let mut g = vec![2.0 + comm.rank_id().as_usize() as f32 * 2.0, 0.0];
            let dims = [2usize];
            let mut views = [GradViewMut {
                dims: &dims,
                grad: &mut g,
            }];
            opt.aggregate(&mut views, &mut comm).unwrap();
            g
        });
        for g in results {
            assert_eq!(g, vec![3.0, 0.0]); // (2 + 4) / 2
        }
    }

    #[test]
    fn error_feedback_keeps_dropped_mass() {
        use acp_collectives::LocalCommunicator;
        let mut opt = TopkSgdAggregator::with_error_feedback(0.25);
        let mut comm = LocalCommunicator::new();
        let dims = [4usize];
        let mut g = vec![10.0, 1.0, 1.0, 1.0];
        let mut views = [GradViewMut {
            dims: &dims,
            grad: &mut g,
        }];
        opt.aggregate(&mut views, &mut comm).unwrap();
        // Three dropped 1.0s live in the residual.
        let residual = opt.residual_norm();
        assert!(
            (residual - 3.0f32.sqrt()).abs() < 1e-5,
            "residual {residual}"
        );
    }

    #[test]
    #[should_panic(expected = "density")]
    fn bad_density_panics() {
        TopkSgdAggregator::new(0.0);
    }

    #[test]
    fn per_bucket_selection_matches_layout() {
        // With per-tensor buckets, k applies per bucket: each tensor keeps
        // its own top element.
        let results = ThreadGroup::run(2, |mut comm| {
            let cfg = TopkSgdConfig::default()
                .with_density(0.25)
                .with_error_feedback(false)
                .with_buffer_bytes(1);
            let mut opt = TopkSgdAggregator::from_config(cfg);
            let r = comm.rank_id().as_usize() as f32;
            let mut a = vec![4.0 + r, 0.1, 0.0, 0.0];
            let mut b = vec![0.0, -6.0 - r, 0.2, 0.0];
            let da = [4usize];
            let db = [4usize];
            let mut views = [
                GradViewMut {
                    dims: &da,
                    grad: &mut a,
                },
                GradViewMut {
                    dims: &db,
                    grad: &mut b,
                },
            ];
            opt.aggregate(&mut views, &mut comm).unwrap();
            (a, b)
        });
        for (a, b) in results {
            assert_eq!(a, vec![4.5, 0.0, 0.0, 0.0]);
            assert_eq!(b, vec![0.0, -6.5, 0.0, 0.0]);
        }
    }
}
