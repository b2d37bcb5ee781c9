//! Sign-SGD with majority vote over all-gather (§III), with optional error
//! feedback.
//!
//! Gradients are fused per bucket before compression, as the paper's
//! evaluation configures (§III-A), so one bit-packed payload and one scale
//! travel per bucket per step.

use acp_collectives::{CollectiveOp, CollectiveResult};
use acp_compression::{kernels, Compressor, ErrorFeedback, Payload, SignSgd};

use crate::error::CoreError;
use crate::pipeline::{Bucket, BucketCodec, PerBucket, Pipelined, Round, DEFAULT_BUFFER_BYTES};

/// Configuration of [`SignSgdAggregator`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SignSgdConfig {
    /// Maintain an error-feedback residual (EF-SGD of Karimireddy et al.).
    pub error_feedback: bool,
    /// Tensor-fusion buffer capacity in bytes (0 disables fusion).
    pub buffer_bytes: usize,
}

impl Default for SignSgdConfig {
    fn default() -> Self {
        SignSgdConfig {
            error_feedback: false,
            buffer_bytes: DEFAULT_BUFFER_BYTES,
        }
    }
}

impl SignSgdConfig {
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

/// Per-bucket Sign-SGD state.
#[derive(Debug, Default)]
struct SignBucket {
    /// Error-feedback compressor (`None` on the raw path).
    ef: Option<ErrorFeedback<SignSgd>>,
    /// The bucket's gradient as compressed — `g + e` with error feedback,
    /// where the correction is the copy in. The scale is the mean
    /// magnitude of the whole bucket, summed strictly in element order,
    /// so it cannot be had tensor by tensor as they arrive; the bucket is
    /// held here instead, owned and reused from step to step. With error
    /// feedback, `encode` hands it to [`ErrorFeedback::compress_swapped`],
    /// which turns it into the residual and swaps it for the old
    /// residual's storage; every slot is overwritten by the next step's
    /// `absorb` before it is read again.
    buf: Vec<f32>,
    /// The majority vote, bit-packed, from `decode` to `emit`.
    voted: Vec<u32>,
    /// The mean of the ranks' scales, from `decode` to `emit`.
    scale: f32,
}

/// The Sign-SGD bucket codec: one bit-packed sign payload plus one scale
/// per bucket, all-gathered and majority-voted; each tensor's bit range of
/// the vote is expanded straight into the caller's gradient.
#[derive(Debug)]
pub struct SignCodec {
    error_feedback: bool,
    buckets: PerBucket<SignBucket>,
}

impl SignCodec {
    fn residual_sum(&self) -> f32 {
        self.buckets
            .iter()
            .filter_map(|b| b.ef.as_ref())
            .map(ErrorFeedback::residual_norm)
            .sum()
    }
}

impl BucketCodec for SignCodec {
    const NAME: &'static str = "signsgd";

    fn absorb(&mut self, bucket: &Bucket, slot: usize, grad: &[f32]) -> Result<(), CoreError> {
        let st = self.buckets.get_or_insert_with(bucket, SignBucket::default);
        if st.buf.len() != bucket.elems {
            st.buf.resize(bucket.elems, 0.0);
        }
        let span = bucket.span(slot);
        if self.error_feedback {
            st.ef
                .get_or_insert_with(|| ErrorFeedback::new(SignSgd::scaled()))
                .correct_from(grad, span.start, &mut st.buf);
        } else {
            // Bypass the residual: compress the raw gradient.
            st.buf[span].copy_from_slice(grad);
        }
        Ok(())
    }

    fn encode(&mut self, bucket: &mut Bucket) -> Result<Vec<CollectiveOp>, CoreError> {
        let st = self.buckets.get_mut(bucket)?;
        let payload = match &mut st.ef {
            Some(ef) => ef.compress_swapped(&mut st.buf),
            None => SignSgd::scaled().compress(&st.buf),
        };
        bucket.payload_bytes += payload.wire_bytes() as u64;
        let (words, scale) = match payload {
            Payload::Signs { words, scale, .. } => (words, scale),
            _ => {
                return Err(CoreError::CodecProtocol(
                    "sign compressor must produce a sign payload",
                ))
            }
        };
        Ok(vec![
            CollectiveOp::AllGatherU32 { send: words },
            CollectiveOp::AllGatherF32 { send: vec![scale] },
        ])
    }

    fn decode(
        &mut self,
        bucket: &mut Bucket,
        results: Vec<CollectiveResult>,
    ) -> Result<Round, CoreError> {
        const TWO: CoreError =
            CoreError::CodecProtocol("expected two collective results per round");
        let mut results = results.into_iter();
        let gathered_words = results.next().ok_or(TWO)?.into_u32()?;
        let gathered_scales = results.next().ok_or(TWO)?.into_f32()?;
        // Both came off the wire: check them against the bucket before the
        // vote kernel, which asserts.
        let words_per_rank = bucket.elems.div_ceil(32);
        if gathered_words.len() != words_per_rank * bucket.world_size
            || gathered_scales.len() != bucket.world_size
        {
            return Err(CoreError::CodecProtocol(
                "gathered sign words or scales do not match the world size",
            ));
        }
        let st = self.buckets.get_mut(bucket)?;
        st.voted.resize(words_per_rank, 0);
        kernels::vote_words_into(&gathered_words, bucket.world_size, &mut st.voted);
        st.scale = kernels::mean_scale(&gathered_scales);
        Ok(Round::Done)
    }

    fn emit(&mut self, bucket: &Bucket, slot: usize, out: &mut [f32]) -> Result<(), CoreError> {
        let st = self.buckets.get_mut(bucket)?;
        kernels::expand_votes_into(&st.voted, bucket.span(slot).start, st.scale, out);
        Ok(())
    }

    fn clear(&mut self) {
        self.buckets.clear();
    }

    fn residual_norm(&self) -> Option<f64> {
        self.error_feedback.then(|| self.residual_sum() as f64)
    }
}

/// Sign-SGD majority-vote aggregator.
///
/// The aggregated "gradient" every rank receives is
/// `sign(majority) · mean(scale)` per element — a biased estimate, which is
/// why [`SignSgdAggregator::with_error_feedback`] matters for convergence.
pub type SignSgdAggregator = Pipelined<SignCodec>;

impl SignSgdAggregator {
    /// Plain scaled Sign-SGD without error feedback.
    pub fn new() -> Self {
        SignSgdAggregator::from_config(SignSgdConfig::default())
    }

    /// Sign-SGD with an error-feedback residual (EF-SGD of Karimireddy et
    /// al.).
    #[must_use]
    pub fn with_error_feedback() -> Self {
        SignSgdAggregator::from_config(SignSgdConfig::default().with_error_feedback(true))
    }

    /// Creates the aggregator from a [`SignSgdConfig`].
    pub fn from_config(cfg: SignSgdConfig) -> Self {
        let codec = SignCodec {
            error_feedback: cfg.error_feedback,
            buckets: PerBucket::default(),
        };
        Pipelined::from_codec(codec, cfg.buffer_bytes)
    }

    /// Sum of per-bucket error-feedback residual norms (zero without error
    /// feedback).
    pub fn residual_norm(&self) -> f32 {
        self.codec.residual_sum()
    }
}

impl Default for SignSgdAggregator {
    fn default() -> Self {
        SignSgdAggregator::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::{DistributedOptimizer, GradViewMut};
    use acp_collectives::{Communicator, ThreadGroup};

    #[test]
    fn majority_sign_wins() {
        // Three workers: two positive, one negative per element.
        let results = ThreadGroup::run(3, |mut comm| {
            let mut opt = SignSgdAggregator::new();
            let sign = if comm.rank_id().as_usize() == 0 {
                -1.0
            } else {
                1.0
            };
            let mut g = vec![2.0 * sign; 4];
            let dims = [4usize];
            let mut views = [GradViewMut {
                dims: &dims,
                grad: &mut g,
            }];
            opt.aggregate(&mut views, &mut comm).unwrap();
            g
        });
        for g in results {
            // Majority positive; scale = mean(|g|) = 2.
            assert_eq!(g, vec![2.0; 4]);
        }
    }

    #[test]
    fn all_ranks_agree() {
        let results = ThreadGroup::run(4, |mut comm| {
            let mut opt = SignSgdAggregator::with_error_feedback();
            let r = comm.rank_id().as_usize() as f32;
            let mut g: Vec<f32> = (0..37).map(|i| (i as f32 - 18.0) * (r + 1.0)).collect();
            let dims = [37usize];
            let mut views = [GradViewMut {
                dims: &dims,
                grad: &mut g,
            }];
            opt.aggregate(&mut views, &mut comm).unwrap();
            g
        });
        for g in &results[1..] {
            assert_eq!(g, &results[0]);
        }
        // Signs follow the (shared) sign pattern of the inputs.
        assert!(results[0][0] < 0.0);
        assert!(results[0][36] > 0.0);
    }

    #[test]
    fn error_feedback_accumulates_residual() {
        use acp_collectives::LocalCommunicator;
        let mut opt = SignSgdAggregator::with_error_feedback();
        let mut comm = LocalCommunicator::new();
        let dims = [3usize];
        for _ in 0..3 {
            let mut g = vec![0.5, -2.0, 0.1];
            let mut views = [GradViewMut {
                dims: &dims,
                grad: &mut g,
            }];
            opt.aggregate(&mut views, &mut comm).unwrap();
        }
        assert!(opt.residual_norm() > 0.0);
    }

    #[test]
    fn multiple_tensors_preserve_layout() {
        let results = ThreadGroup::run(2, |mut comm| {
            let mut opt = SignSgdAggregator::new();
            let mut a = vec![1.0f32, -1.0];
            let mut b = vec![-3.0f32];
            let da = [2usize];
            let db = [1usize];
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
            assert!(a[0] > 0.0 && a[1] < 0.0);
            assert!(b[0] < 0.0);
        }
    }

    #[test]
    fn emit_expands_bit_ranges_that_start_inside_a_word() {
        // One bucket whose tensors start at elements 0, 5, 45, 48 and 118:
        // only the first sits on a 32-bit word boundary. Every tensor must
        // come back as its slice of the whole bucket's reference vote.
        let lens = [5usize, 40, 3, 70, 11];
        let total: usize = lens.iter().sum();
        let world = 3;
        let flat = |rank: usize| -> Vec<f32> {
            (0..total)
                .map(|e| ((e * 7 + rank * 5) as f32 * 0.61).sin() * (rank + 1) as f32)
                .collect()
        };
        let (mut gathered, mut scales) = (Vec::new(), Vec::new());
        for rank in 0..world {
            let g = flat(rank);
            gathered.extend(SignSgd::pack(&g));
            scales.push(g.iter().map(|v| v.abs()).sum::<f32>() / total as f32);
        }
        let mut expected = vec![0.0f32; total];
        kernels::reference::majority_vote_into(&gathered, &scales, total, world, &mut expected);

        let results = ThreadGroup::run(world, move |mut comm| {
            let mut opt = SignSgdAggregator::new();
            let g = flat(comm.rank_id().as_usize());
            let dims: Vec<[usize; 1]> = lens.iter().map(|&l| [l]).collect();
            let mut tensors: Vec<Vec<f32>> = Vec::new();
            let mut at = 0;
            for len in lens {
                tensors.push(g[at..at + len].to_vec());
                at += len;
            }
            let mut views: Vec<GradViewMut<'_>> = dims
                .iter()
                .zip(tensors.iter_mut())
                .map(|(d, grad)| GradViewMut { dims: d, grad })
                .collect();
            opt.aggregate(&mut views, &mut comm).unwrap();
            tensors.concat()
        });
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for got in results {
            assert_eq!(bits(&got), bits(&expected));
        }
    }

    #[test]
    fn tiny_buckets_still_agree() {
        // Per-tensor buckets: each tensor votes with its own scale, ranks
        // still agree bit-for-bit.
        let results = ThreadGroup::run(3, |mut comm| {
            let cfg = SignSgdConfig::default()
                .with_error_feedback(true)
                .with_buffer_bytes(1);
            let mut opt = SignSgdAggregator::from_config(cfg);
            let r = comm.rank_id().as_usize() as f32;
            let mut a: Vec<f32> = (0..9).map(|i| (i as f32 - 4.0) * (r + 1.0)).collect();
            let mut b = vec![-1.0f32 - r; 5];
            let da = [9usize];
            let db = [5usize];
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
        for (a, b) in &results[1..] {
            assert_eq!(a, &results[0].0);
            assert_eq!(b, &results[0].1);
        }
        assert!(results[0].1.iter().all(|v| *v < 0.0));
    }
}
