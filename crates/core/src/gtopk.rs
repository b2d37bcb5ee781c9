//! gTop-k SGD (Shi et al., ICDCS 2019 — the paper's reference \[33\]):
//! global top-k sparsification over the `O(k log p)` sparse all-reduce
//! collective instead of Top-k's `O(k p)` all-gather.
//!
//! The paper's related-work section points at gTop-k as the
//! sparse-communication fix for Top-k's all-gather scaling; this aggregator
//! implements it over the [`CollectiveOp::GlobalTopk`] collective so the
//! scaling difference is measurable (see the `ext_scaling` experiment).

use acp_collectives::{CollectiveOp, CollectiveResult};
use acp_compression::{ErrorFeedback, TopK};

use crate::error::CoreError;
use crate::pipeline::{
    sole_result, Bucket, BucketCodec, PerBucket, Pipelined, Round, DEFAULT_BUFFER_BYTES,
};
use crate::sparse::{k_for, sparse_parts, SlotPairs};
use crate::topksgd::Selection;

/// Per-bucket gTop-k state.
#[derive(Debug)]
struct GTopkBucket {
    ef: ErrorFeedback<TopK>,
    /// The corrected gradient `g + e` the selection runs on — the
    /// correction is the copy in — owned and reused from step to step.
    /// `encode` hands it to [`ErrorFeedback::compress_swapped_with`],
    /// which turns it into the residual and swaps it for the old
    /// residual's storage; every slot is overwritten by the next step's
    /// `absorb` before it is read again.
    buf: Vec<f32>,
    /// The local selection's candidates and carried bound, as Top-k's.
    select: Selection,
    /// The global selection, from `decode` to `emit`.
    pairs: SlotPairs,
}

/// The gTop-k bucket codec: local top-k selection with error feedback, then
/// one sparse global-top-k collective per bucket, scattered tensor by
/// tensor into the caller's gradient.
#[derive(Debug)]
pub struct GTopkCodec {
    density: f64,
    buckets: PerBucket<GTopkBucket>,
}

impl GTopkCodec {
    fn residual_sum(&self) -> f32 {
        self.buckets.iter().map(|b| b.ef.residual_norm()).sum()
    }
}

impl BucketCodec for GTopkCodec {
    const NAME: &'static str = "gtopk";

    fn open(&mut self, bucket: &Bucket) {
        let k = k_for(self.density, bucket.elems);
        let st = self.buckets.get_or_insert_with(bucket, || GTopkBucket {
            ef: ErrorFeedback::new(TopK::new(k)),
            buf: Vec::new(),
            select: Selection::default(),
            pairs: SlotPairs::default(),
        });
        st.buf.resize(bucket.elems, 0.0);
        st.select.open(k);
    }

    fn absorb(&mut self, bucket: &Bucket, slot: usize, grad: &[f32]) -> Result<(), CoreError> {
        let st = self.buckets.get_mut(bucket)?;
        let residual = st.ef.residual_for(bucket.elems);
        st.select
            .absorb(bucket, slot, grad, Some(residual), &mut st.buf);
        Ok(())
    }

    fn encode(&mut self, bucket: &mut Bucket) -> Result<Vec<CollectiveOp>, CoreError> {
        let k = k_for(self.density, bucket.elems);
        let st = self.buckets.get_mut(bucket)?;
        let select = &mut st.select;
        let payload = st
            .ef
            .compress_swapped_with(&mut st.buf, |_, g| select.select(g, k));
        bucket.payload_bytes += payload.wire_bytes() as u64;
        let (indices, values) = sparse_parts(payload)?;
        Ok(vec![CollectiveOp::GlobalTopk { indices, values, k }])
    }

    fn decode(
        &mut self,
        bucket: &mut Bucket,
        results: Vec<CollectiveResult>,
    ) -> Result<Round, CoreError> {
        let (global_idx, global_val) = sole_result(results)?.into_sparse()?;
        self.buckets
            .get_mut(bucket)?
            .pairs
            .regroup(bucket, &global_idx, &global_val)?;
        Ok(Round::Done)
    }

    fn emit(&mut self, bucket: &Bucket, slot: usize, out: &mut [f32]) -> Result<(), CoreError> {
        let inv = 1.0 / bucket.world_size as f32;
        self.buckets
            .get_mut(bucket)?
            .pairs
            .scatter(slot, inv, out, |o, v| *o = v);
        Ok(())
    }

    fn clear(&mut self) {
        self.buckets.clear();
    }

    fn residual_norm(&self) -> Option<f64> {
        Some(self.residual_sum() as f64)
    }
}

#[cfg(test)]
impl GTopkCodec {
    /// Each bucket's selection state, in plan order.
    pub(crate) fn selections(&self) -> impl Iterator<Item = &Selection> {
        self.buckets.iter().map(|b| &b.select)
    }
}

/// Global-top-k sparsified aggregator.
///
/// Each worker selects its local top-k (with error feedback), then the
/// group reduces the sparse vectors with per-round top-k truncation; every
/// rank receives the identical (approximate) global top-k of the summed
/// gradient, averaged over the world size.
pub type GTopkSgdAggregator = Pipelined<GTopkCodec>;

impl GTopkSgdAggregator {
    /// Creates a gTop-k aggregator keeping `density` of the gradient
    /// elements, with error feedback and the default fusion buffer.
    ///
    /// # Panics
    ///
    /// Panics if `density` is not in `(0, 1]`.
    pub fn new(density: f64) -> Self {
        GTopkSgdAggregator::with_buffer_bytes(density, DEFAULT_BUFFER_BYTES)
    }

    /// Like [`GTopkSgdAggregator::new`] with an explicit fusion buffer
    /// capacity in bytes (0 disables fusion).
    ///
    /// # Panics
    ///
    /// Panics if `density` is not in `(0, 1]`.
    #[must_use]
    pub fn with_buffer_bytes(density: f64, buffer_bytes: usize) -> Self {
        assert!(density > 0.0 && density <= 1.0, "density must be in (0, 1]");
        let codec = GTopkCodec {
            density,
            buckets: PerBucket::default(),
        };
        Pipelined::from_codec(codec, buffer_bytes)
    }

    /// The configured selection density.
    pub fn density(&self) -> f64 {
        self.codec.density
    }

    /// Sum of per-bucket error-feedback residual norms.
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
    fn all_ranks_agree_and_average() {
        let results = ThreadGroup::run(4, |mut comm| {
            let mut opt = GTopkSgdAggregator::new(0.25); // k = 2 of 8
            let r = comm.rank_id().as_usize() as f32;
            // Everyone's largest coordinate is 0; second-largest differs.
            let mut g = vec![0.0f32; 8];
            g[0] = 4.0;
            g[1 + comm.rank_id().as_usize()] = 1.0 + r * 0.1;
            let dims = [8usize];
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
        // Coordinate 0 has global sum 16, averaged to 4.
        assert_eq!(results[0][0], 4.0);
        // At most k = 2 nonzero coordinates.
        let nonzero = results[0].iter().filter(|&&v| v != 0.0).count();
        assert!(nonzero <= 2, "kept {nonzero} coordinates");
    }

    #[test]
    fn single_worker_reduces_to_local_topk() {
        use acp_collectives::LocalCommunicator;
        let mut opt = GTopkSgdAggregator::new(0.5);
        let mut comm = LocalCommunicator::new();
        let dims = [4usize];
        let mut g = vec![1.0, -9.0, 2.0, 8.0];
        let mut views = [GradViewMut {
            dims: &dims,
            grad: &mut g,
        }];
        opt.aggregate(&mut views, &mut comm).unwrap();
        assert_eq!(g, vec![0.0, -9.0, 0.0, 8.0]);
    }

    #[test]
    fn error_feedback_carries_unsent_mass() {
        use acp_collectives::LocalCommunicator;
        let mut opt = GTopkSgdAggregator::new(0.25);
        let mut comm = LocalCommunicator::new();
        let dims = [4usize];
        let mut g = vec![5.0, 1.0, 1.0, 1.0];
        let mut views = [GradViewMut {
            dims: &dims,
            grad: &mut g,
        }];
        opt.aggregate(&mut views, &mut comm).unwrap();
        assert!(opt.residual_norm() > 1.0);
    }

    #[test]
    fn repeated_aggregation_is_stable_and_consistent() {
        // Trainer integration is exercised in tests/end_to_end_training.rs;
        // here: repeated aggregation stays finite and rank-consistent.
        let results = ThreadGroup::run(4, |mut comm| {
            let mut opt = GTopkSgdAggregator::new(0.1);
            let dims = [5usize, 4];
            let mut last = Vec::new();
            for step in 0..5 {
                let mut g: Vec<f32> = (0..20)
                    .map(|i| ((i + step + comm.rank_id().as_usize()) as f32 * 0.3).sin())
                    .collect();
                let mut views = [GradViewMut {
                    dims: &dims,
                    grad: &mut g,
                }];
                opt.aggregate(&mut views, &mut comm).unwrap();
                last = g;
            }
            last
        });
        for r in &results[1..] {
            assert_eq!(r, &results[0]);
        }
        assert!(results[0].iter().all(|v| v.is_finite()));
    }

    #[test]
    #[should_panic(expected = "density")]
    fn bad_density_panics() {
        GTopkSgdAggregator::new(2.0);
    }
}
