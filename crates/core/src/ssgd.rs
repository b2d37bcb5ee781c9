//! The well-optimized S-SGD baseline: uncompressed gradient averaging with
//! tensor fusion over ring all-reduce (PyTorch-DDP semantics).

use acp_collectives::{CollectiveOp, CollectiveResult, ReduceOp};

use crate::error::CoreError;
use crate::pipeline::{sole_result, Bucket, BucketCodec, PerBucket, Pipelined, Round};

pub use crate::pipeline::DEFAULT_BUFFER_BYTES;

/// Codec: one fused mean all-reduce per bucket, no compression.
///
/// Each bucket's dense buffer is the `AllReduce` op buffer itself: tensors
/// are copied into it as they arrive, `encode` hands it to the collective,
/// `decode` takes it back reduced, and `emit` copies each tensor out. It
/// comes back every step, so it is allocated once per plan.
#[derive(Debug, Default)]
pub struct MeanCodec {
    bufs: PerBucket<Vec<f32>>,
}

impl MeanCodec {
    /// Whether any bucket's buffer is held.
    #[cfg(test)]
    pub(crate) fn holds_buffers(&self) -> bool {
        self.bufs.iter().next().is_some()
    }
}

impl BucketCodec for MeanCodec {
    const NAME: &'static str = "ssgd";

    fn open(&mut self, bucket: &Bucket) {
        // Every slot is overwritten before `encode`, so a buffer of the
        // right length needs no clearing; it is short only on a plan's
        // first step or after a step discarded in flight.
        let buf = self.bufs.get_or_insert_with(bucket, Vec::new);
        buf.resize(bucket.elems, 0.0);
    }

    fn absorb(&mut self, bucket: &Bucket, slot: usize, grad: &[f32]) -> Result<(), CoreError> {
        self.bufs.get_mut(bucket)?[bucket.span(slot)].copy_from_slice(grad);
        Ok(())
    }

    fn encode(&mut self, bucket: &mut Bucket) -> Result<Vec<CollectiveOp>, CoreError> {
        bucket.payload_bytes += 4 * bucket.elems as u64;
        Ok(vec![CollectiveOp::AllReduce {
            buf: std::mem::take(self.bufs.get_mut(bucket)?),
            op: ReduceOp::Mean,
        }])
    }

    fn decode(
        &mut self,
        bucket: &mut Bucket,
        results: Vec<CollectiveResult>,
    ) -> Result<Round, CoreError> {
        let reduced = sole_result(results)?.into_f32()?;
        if reduced.len() != bucket.elems {
            return Err(CoreError::CodecProtocol(
                "reduced buffer does not match the encoded bucket",
            ));
        }
        *self.bufs.get_mut(bucket)? = reduced;
        Ok(Round::Done)
    }

    fn emit(&mut self, bucket: &Bucket, slot: usize, out: &mut [f32]) -> Result<(), CoreError> {
        out.copy_from_slice(&self.bufs.get_mut(bucket)?[bucket.span(slot)]);
        Ok(())
    }

    fn clear(&mut self) {
        self.bufs.clear();
    }
}

/// Uncompressed gradient-averaging aggregator.
///
/// # Examples
///
/// ```
/// use acp_collectives::{Communicator, ThreadGroup};
/// use acp_core::{DistributedOptimizer, GradViewMut, SSgdAggregator};
///
/// let results = ThreadGroup::run(2, |mut comm| {
///     let mut opt = SSgdAggregator::new();
///     let mut g = vec![comm.rank_id().as_usize() as f32 * 2.0; 3];
///     let dims = [3usize];
///     let mut views = [GradViewMut { dims: &dims, grad: &mut g }];
///     opt.aggregate(&mut views, &mut comm).unwrap();
///     g
/// });
/// assert_eq!(results[0], vec![1.0, 1.0, 1.0]); // mean of 0 and 2
/// ```
pub type SSgdAggregator = Pipelined<MeanCodec>;

impl SSgdAggregator {
    /// Creates the aggregator with the default 25 MB fusion buffer.
    pub fn new() -> Self {
        Self::with_buffer_bytes(DEFAULT_BUFFER_BYTES)
    }

    /// Creates the aggregator with an explicit fusion buffer capacity
    /// (0 disables fusion).
    #[must_use]
    pub fn with_buffer_bytes(buffer_bytes: usize) -> Self {
        Pipelined::from_codec(MeanCodec::default(), buffer_bytes)
    }
}

impl Default for SSgdAggregator {
    fn default() -> Self {
        SSgdAggregator::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::{DistributedOptimizer, GradViewMut};
    use acp_collectives::{Communicator, ThreadGroup};

    #[test]
    fn averages_across_workers() {
        let p = 4;
        let results = ThreadGroup::run(p, |mut comm| {
            let mut opt = SSgdAggregator::new();
            let r = comm.rank_id().as_usize() as f32;
            let mut a = vec![r, 2.0 * r];
            let mut b = vec![10.0 * r; 3];
            let da = [2usize];
            let db = [3usize];
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
        // mean rank = 1.5
        for (a, b) in results {
            assert_eq!(a, vec![1.5, 3.0]);
            assert_eq!(b, vec![15.0; 3]);
        }
    }

    #[test]
    fn tiny_buffer_still_correct() {
        // Forces one bucket per tensor.
        let results = ThreadGroup::run(2, |mut comm| {
            let mut opt = SSgdAggregator::with_buffer_bytes(1);
            let r = comm.rank_id().as_usize() as f32;
            let mut a = vec![r; 5];
            let mut b = vec![r + 1.0; 7];
            let da = [5usize];
            let db = [7usize];
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
            assert_eq!(a, vec![0.5; 5]);
            assert_eq!(b, vec![1.5; 7]);
        }
    }

    #[test]
    fn shape_change_is_rejected() {
        use acp_collectives::LocalCommunicator;
        let mut opt = SSgdAggregator::new();
        let mut comm = LocalCommunicator::new();
        let dims = [2usize];
        let mut g = vec![0.0f32; 2];
        let mut views = [GradViewMut {
            dims: &dims,
            grad: &mut g,
        }];
        opt.aggregate(&mut views, &mut comm).unwrap();
        let bad = [3usize];
        let mut g2 = vec![0.0f32; 3];
        let mut views = [GradViewMut {
            dims: &bad,
            grad: &mut g2,
        }];
        assert!(opt.aggregate(&mut views, &mut comm).is_err());
    }

    #[test]
    fn overlapped_pushes_match_blocking_bitwise() {
        let run = |overlapped: bool| {
            ThreadGroup::run(3, move |mut comm| {
                let mut opt = SSgdAggregator::with_buffer_bytes(16);
                let r = comm.rank_id().as_usize() as f32;
                let dims = [vec![3usize], vec![2usize], vec![4usize]];
                let mut out = Vec::new();
                for step in 0..3 {
                    let s = step as f32;
                    let mut grads = [
                        vec![r * 0.5 + s; 3],
                        vec![r - s; 2],
                        vec![(r + 1.0) * (s + 1.0); 4],
                    ];
                    if overlapped {
                        for i in (0..3).rev() {
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
