//! The [`DistributedOptimizer`] trait.

use acp_collectives::Communicator;
use acp_telemetry::RecorderHandle;

use crate::error::CoreError;

/// A mutable view of one parameter's local gradient.
///
/// `dims` carries the original tensor shape so low-rank aggregators can
/// apply the matrix-reshape convention (vectors pass uncompressed).
#[derive(Debug)]
pub struct GradViewMut<'a> {
    /// Tensor dimensions (e.g. `[256, 128, 3, 3]`).
    pub dims: &'a [usize],
    /// Flat row-major gradient data; replaced in place by the aggregated
    /// gradient.
    pub grad: &'a mut [f32],
}

/// Replaces each worker's local gradients with globally aggregated ones.
///
/// Implementations are stateful (compression queries, error-feedback
/// residuals, step counters) and must be called with the *same tensor list*
/// (count, order, shapes) on every step and every rank — the SPMD
/// discipline of data-parallel training.
pub trait DistributedOptimizer: Send {
    /// Short algorithm name for logs and experiment output.
    fn name(&self) -> &'static str;

    /// Aggregates `grads` across all ranks of `comm`, in place.
    ///
    /// On return every rank holds identical aggregated gradients. The
    /// semantics are algorithm-specific: an *average* for S-SGD / Top-k /
    /// the low-rank methods, a majority-vote *sign* for Sign-SGD.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Collective`] on communication failure and
    /// [`CoreError::ShapeChanged`] if the tensor list differs from earlier
    /// steps.
    fn aggregate(
        &mut self,
        grads: &mut [GradViewMut<'_>],
        comm: &mut dyn Communicator,
    ) -> Result<(), CoreError>;

    /// Attaches a telemetry recorder: every step then reports compression
    /// time, payload/dense bytes, compression ratio and error-feedback
    /// residual norms (see `acp_telemetry::keys`).
    fn set_recorder(&mut self, recorder: RecorderHandle);

    /// Offers one tensor's *ready* gradient to an overlapped step (wait-free
    /// backpropagation): the fusion bucket's collective is dispatched as
    /// soon as its last gradient arrives. `index` is the tensor's position
    /// in the full forward-order gradient list that [`finish_overlap`] will
    /// later receive; gradients may be pushed in any order (backward
    /// produces them deepest-layer-first).
    ///
    /// Pushing is an optimization, never an obligation: tensors not pushed
    /// are picked up from the gradient views at `finish_overlap` time.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ShapeChanged`] if `dims` disagrees with the
    /// shape recorded for `index` on the first step.
    ///
    /// [`finish_overlap`]: DistributedOptimizer::finish_overlap
    fn push_ready(
        &mut self,
        index: usize,
        dims: &[usize],
        grad: &[f32],
        comm: &mut dyn Communicator,
    ) -> Result<(), CoreError>;

    /// Completes an overlapped step begun with [`push_ready`] calls,
    /// replacing `grads` with the aggregated gradients (same contract as
    /// [`aggregate`], and bit-identical to it).
    ///
    /// # Errors
    ///
    /// Same as [`aggregate`].
    ///
    /// [`aggregate`]: DistributedOptimizer::aggregate
    /// [`push_ready`]: DistributedOptimizer::push_ready
    fn finish_overlap(
        &mut self,
        grads: &mut [GradViewMut<'_>],
        comm: &mut dyn Communicator,
    ) -> Result<(), CoreError>;

    /// Reconfigures the fusion buffer capacity in bytes (`0` disables
    /// fusion), discarding any bucket plan and per-bucket compression
    /// state so the next step rebuilds them — how the closed-loop
    /// autotuner applies its tuned size before epoch 1. Must be called
    /// between steps, never mid-overlap.
    fn set_buffer_bytes(&mut self, buffer_bytes: usize);

    /// Notifies the optimizer that group membership changed and the
    /// communicator was re-formed (see `Communicator::reform`): any
    /// in-flight collectives were abandoned by the survivors and bucket
    /// plans sized for the old world are stale, so both are discarded
    /// together with the bucket-keyed compression state, and the next step
    /// re-plans against the new group.
    fn on_membership_change(&mut self);
}

impl DistributedOptimizer for Box<dyn DistributedOptimizer> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn aggregate(
        &mut self,
        grads: &mut [GradViewMut<'_>],
        comm: &mut dyn Communicator,
    ) -> Result<(), CoreError> {
        (**self).aggregate(grads, comm)
    }

    fn set_recorder(&mut self, recorder: RecorderHandle) {
        (**self).set_recorder(recorder)
    }

    fn push_ready(
        &mut self,
        index: usize,
        dims: &[usize],
        grad: &[f32],
        comm: &mut dyn Communicator,
    ) -> Result<(), CoreError> {
        (**self).push_ready(index, dims, grad, comm)
    }

    fn finish_overlap(
        &mut self,
        grads: &mut [GradViewMut<'_>],
        comm: &mut dyn Communicator,
    ) -> Result<(), CoreError> {
        (**self).finish_overlap(grads, comm)
    }

    fn set_buffer_bytes(&mut self, buffer_bytes: usize) {
        (**self).set_buffer_bytes(buffer_bytes)
    }

    fn on_membership_change(&mut self) {
        (**self).on_membership_change()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::check_shapes;

    #[test]
    fn check_shapes_records_then_validates() {
        let mut recorded = Vec::new();
        let mut a = vec![0.0f32; 6];
        let dims = [2usize, 3];
        let views = [GradViewMut {
            dims: &dims,
            grad: &mut a,
        }];
        check_shapes(&mut recorded, &views).unwrap();
        assert_eq!(recorded, vec![vec![2, 3]]);
        // Same shape passes again.
        let mut b = vec![0.0f32; 6];
        let views = [GradViewMut {
            dims: &dims,
            grad: &mut b,
        }];
        check_shapes(&mut recorded, &views).unwrap();
        // Different shape fails.
        let bad_dims = [3usize, 2];
        let mut c = vec![0.0f32; 6];
        let views = [GradViewMut {
            dims: &bad_dims,
            grad: &mut c,
        }];
        assert!(matches!(
            check_shapes(&mut recorded, &views),
            Err(CoreError::ShapeChanged { index: 0, .. })
        ));
    }

    #[test]
    fn check_shapes_rejects_count_change() {
        let mut recorded = vec![vec![2usize]];
        let views: [GradViewMut<'_>; 0] = [];
        assert!(matches!(
            check_shapes(&mut recorded, &views),
            Err(CoreError::TensorCountChanged {
                expected: 1,
                actual: 0,
            })
        ));
    }

    #[test]
    fn check_shapes_count_error_reports_both_counts() {
        // Growth as well as shrinkage must be caught, with the counts (not
        // a bogus per-tensor shape) in the error.
        let mut recorded = vec![vec![2usize]];
        let mut a = vec![0.0f32; 2];
        let mut b = vec![0.0f32; 2];
        let dims = [2usize];
        let views = [
            GradViewMut {
                dims: &dims,
                grad: &mut a,
            },
            GradViewMut {
                dims: &dims,
                grad: &mut b,
            },
        ];
        match check_shapes(&mut recorded, &views) {
            Err(CoreError::TensorCountChanged { expected, actual }) => {
                assert_eq!((expected, actual), (1, 2));
            }
            other => panic!("expected TensorCountChanged, got {other:?}"),
        }
    }
}
