//! Sign-SGD with majority vote over all-gather (§III), with optional error
//! feedback.
//!
//! Gradients are fused per bucket before compression, as the paper's
//! evaluation configures (§III-A), so one bit-packed payload and one scale
//! travel per bucket per step.
//!
//! The scale is the bucket's mean magnitude, one `f32` sum strictly in
//! element order. Without error feedback the codec packs and sums each
//! tensor the moment every tensor before it in the bucket has been
//! ([`kernels::pack_signs_summing`]), straight from the caller's slice; a
//! tensor that arrives earlier is copied aside until then, and the
//! pipeline's arrival flags ([`Bucket::arrived`]) say which. Backward
//! pushes a bucket's tensors last to first, so the first tensor, which
//! completes the prefix, is never copied, and the blocking path copies
//! nothing. With error feedback the whole corrected bucket is kept, as
//! the residual swap needs it.

use acp_collectives::{CollectiveOp, CollectiveResult};
use acp_compression::{kernels, ErrorFeedback, Payload, SignSgd};

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
    /// With error feedback, the bucket's corrected gradient `g + e`, where
    /// the correction is the copy in; `encode` hands it to
    /// [`ErrorFeedback::compress_swapped`], which turns it into the
    /// residual and swaps it for the old residual's storage. On the raw
    /// path, the tensors that arrived before the [`Prefix`] reached them,
    /// each at its own span, until the prefix packs them. Either way it is
    /// bucket-sized, owned and reused from step to step, and every slot it
    /// is read at was written by the same step's `absorb`.
    buf: Vec<f32>,
    /// The raw path's encode, run as the bucket's element-order prefix
    /// completes.
    prefix: Prefix,
    /// The majority vote, bit-packed, from `decode` to `emit`.
    voted: Vec<u32>,
    /// The mean of the ranks' scales, from `decode` to `emit`.
    scale: f32,
}

/// The raw path's running encode of one step of a bucket: slots
/// `0..slots` are packed into `words` and their magnitudes summed into
/// `sum`. The scale is the mean magnitude of the whole bucket, one `f32`
/// chain strictly in element order, so a slot can join the chain only
/// once every slot before it has; one that arrives earlier waits in
/// [`SignBucket::buf`]. Every slot past the prefix that has arrived is
/// waiting there.
#[derive(Debug, Default)]
struct Prefix {
    /// Slots packed and summed so far.
    slots: usize,
    /// `Σ|g|` over those slots, in element order.
    sum: f32,
    /// This step's packed signs, handed to the all-gather by `encode`.
    words: Vec<u32>,
}

impl Prefix {
    /// Starts `bucket`'s step with nothing packed.
    fn open(&mut self, bucket: &Bucket) {
        self.slots = 0;
        self.sum = 0.0;
        self.words = vec![0; bucket.elems.div_ceil(32)];
    }

    /// Packs and sums `grad`, the tensor at the prefix's end, then every
    /// held tensor that now follows on.
    fn extend(&mut self, bucket: &Bucket, grad: &[f32], buf: &[f32]) {
        let mut span = bucket.span(self.slots);
        let mut src = grad;
        loop {
            self.sum = kernels::pack_signs_summing(src, span.start, &mut self.words, self.sum);
            self.slots += 1;
            if !bucket.arrived(self.slots) {
                return;
            }
            span = bucket.span(self.slots);
            src = &buf[span.clone()];
        }
    }

    /// The step's sign payload, once the prefix covers the bucket.
    fn take_payload(&mut self, bucket: &Bucket) -> Result<Payload, CoreError> {
        if self.slots != bucket.dims.len() {
            return Err(CoreError::CodecProtocol(
                "the packed sign prefix does not cover the bucket",
            ));
        }
        let scale = if bucket.elems == 0 {
            1.0
        } else {
            self.sum / bucket.elems as f32
        };
        Ok(Payload::Signs {
            words: std::mem::take(&mut self.words),
            len: bucket.elems,
            scale,
        })
    }
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

    fn open(&mut self, bucket: &Bucket) {
        let error_feedback = self.error_feedback;
        let st = self.buckets.get_or_insert_with(bucket, || SignBucket {
            ef: error_feedback.then(|| ErrorFeedback::new(SignSgd::scaled())),
            ..SignBucket::default()
        });
        st.buf.resize(bucket.elems, 0.0);
        if !error_feedback {
            st.prefix.open(bucket);
        }
    }

    fn absorb(&mut self, bucket: &Bucket, slot: usize, grad: &[f32]) -> Result<(), CoreError> {
        let st = self.buckets.get_mut(bucket)?;
        let span = bucket.span(slot);
        if let Some(ef) = &mut st.ef {
            ef.correct_from(grad, span.start, &mut st.buf);
        } else if slot == st.prefix.slots {
            st.prefix.extend(bucket, grad, &st.buf);
        } else {
            st.buf[span].copy_from_slice(grad);
        }
        Ok(())
    }

    fn encode(&mut self, bucket: &mut Bucket) -> Result<Vec<CollectiveOp>, CoreError> {
        let st = self.buckets.get_mut(bucket)?;
        let payload = match &mut st.ef {
            Some(ef) => ef.compress_swapped(&mut st.buf),
            None => st.prefix.take_payload(bucket)?,
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
    use acp_compression::Compressor;

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

    const WORLD: usize = 3;

    /// One bucket's tensors, starting at elements 0, 5, 45, 45, 48 and
    /// 118: only the first on a word boundary, and one tensor empty.
    const MID_WORD: [usize; 6] = [5, 40, 0, 3, 70, 11];

    /// A shuffled arrival order, rotated by rank.
    const SHUFFLED: [usize; 6] = [3, 0, 5, 2, 4, 1];

    /// How a step hands its tensors to the aggregator.
    #[derive(Clone, Copy, Debug)]
    enum Arrival {
        Blocking,
        Forward,
        Backward,
        Shuffled,
    }

    impl Arrival {
        fn order(self, rank: usize) -> Vec<usize> {
            let n = MID_WORD.len();
            match self {
                Arrival::Blocking => Vec::new(),
                Arrival::Forward => (0..n).collect(),
                Arrival::Backward => (0..n).rev().collect(),
                Arrival::Shuffled => (0..n).map(|i| SHUFFLED[(i + rank) % n]).collect(),
            }
        }
    }

    /// This rank's tensors for `step`. The 70-element tensor dwarfs the
    /// others, whose magnitudes then fall below half an ulp of the scale's
    /// running sum: summed in any order but the elements', the scale moves
    /// by several ulps.
    fn mid_word_grads(rank: usize, step: usize) -> Vec<Vec<f32>> {
        let mut at = 0;
        MID_WORD
            .iter()
            .map(|&len| {
                let magnitude = if len == 70 { 2.0e5 } else { 0.1 };
                let g = (at..at + len)
                    .map(|e| {
                        let x = ((e * 7 + rank * 5 + step * 11) as f32 * 0.61).sin();
                        x * (rank + step + 1) as f32 * magnitude
                    })
                    .collect();
                at += len;
                g
            })
            .collect()
    }

    fn sign_aggregator(error_feedback: bool) -> SignSgdAggregator {
        SignSgdAggregator::from_config(SignSgdConfig::default().with_error_feedback(error_feedback))
    }

    /// One step of `opt` on `grads`: `aggregate` alone for
    /// [`Arrival::Blocking`], else every tensor pushed in the arrival's
    /// order and then `finish_overlap`.
    fn mid_word_step(
        opt: &mut SignSgdAggregator,
        comm: &mut dyn Communicator,
        grads: &mut [Vec<f32>],
        order: &[usize],
    ) {
        let dims: Vec<[usize; 1]> = MID_WORD.iter().map(|&l| [l]).collect();
        for &i in order {
            opt.push_ready(i, &dims[i], &grads[i], comm).unwrap();
        }
        let mut views: Vec<GradViewMut<'_>> = dims
            .iter()
            .zip(grads.iter_mut())
            .map(|(d, grad)| GradViewMut { dims: d, grad })
            .collect();
        opt.finish_overlap(&mut views, comm).unwrap();
    }

    /// The outputs of `steps` steps by the scalar reference: each rank's
    /// whole-bucket scaled signs (through its own error feedback, with
    /// it), majority-voted.
    fn reference_steps(error_feedback: bool, steps: usize) -> Vec<Vec<u32>> {
        let total: usize = MID_WORD.iter().sum();
        let mut ef: Vec<_> = (0..WORLD)
            .map(|_| ErrorFeedback::new(SignSgd::scaled()))
            .collect();
        (0..steps)
            .map(|step| {
                let (mut gathered, mut scales) = (Vec::new(), Vec::new());
                for (rank, ef) in ef.iter_mut().enumerate() {
                    let flat = mid_word_grads(rank, step).concat();
                    if error_feedback {
                        let Payload::Signs { words, scale, .. } = ef.compress(&flat) else {
                            panic!("a sign payload");
                        };
                        gathered.extend(words);
                        scales.push(scale);
                    } else {
                        gathered.extend(kernels::reference::pack_signs(&flat));
                        scales.push(flat.iter().map(|v| v.abs()).sum::<f32>() / total as f32);
                    }
                }
                let mut out = vec![0.0f32; total];
                kernels::reference::majority_vote_into(&gathered, &scales, total, WORLD, &mut out);
                out.iter().map(|v| v.to_bits()).collect()
            })
            .collect()
    }

    #[test]
    fn every_arrival_order_gives_the_reference_bits() {
        // The raw path packs and sums a slot the moment the element-order
        // prefix reaches it and holds the others, and `emit` expands bit
        // ranges that start inside a word: however the tensors arrive,
        // each must come back as its slice of the whole bucket's
        // reference vote.
        const STEPS: usize = 3;
        for error_feedback in [false, true] {
            let expected = reference_steps(error_feedback, STEPS);
            for arrival in [
                Arrival::Blocking,
                Arrival::Forward,
                Arrival::Backward,
                Arrival::Shuffled,
            ] {
                let results = ThreadGroup::run(WORLD, move |mut comm| {
                    let rank = comm.rank_id().as_usize();
                    let mut opt = sign_aggregator(error_feedback);
                    (0..STEPS)
                        .map(|step| {
                            // Step 0 builds the plan, which ignores pushes.
                            let order = if step == 0 {
                                Vec::new()
                            } else {
                                arrival.order(rank)
                            };
                            let mut grads = mid_word_grads(rank, step);
                            mid_word_step(&mut opt, &mut comm, &mut grads, &order);
                            grads.concat().iter().map(|v| v.to_bits()).collect()
                        })
                        .collect::<Vec<Vec<u32>>>()
                });
                for (rank, got) in results.iter().enumerate() {
                    assert_eq!(
                        got, &expected,
                        "error feedback {error_feedback}, {arrival:?}, rank {rank}"
                    );
                }
            }
        }
    }

    #[test]
    fn a_step_discarded_before_dispatch_leaves_the_next_as_a_twins() {
        for error_feedback in [false, true] {
            ThreadGroup::run(WORLD, move |mut comm| {
                let rank = comm.rank_id().as_usize();
                let (mut dropped, mut twin) = (
                    sign_aggregator(error_feedback),
                    sign_aggregator(error_feedback),
                );
                for opt in [&mut dropped, &mut twin] {
                    mid_word_step(opt, &mut comm, &mut mid_word_grads(rank, 0), &[]);
                }
                // Slot 4 is held, slot 0 starts the prefix; the bucket
                // stays open, so nothing is dispatched.
                let junk: Vec<Vec<f32>> = mid_word_grads(rank, 99)
                    .into_iter()
                    .map(|g| g.iter().map(|v| v * -1.0e3).collect())
                    .collect();
                let mut push = |index: usize| {
                    dropped.push_ready(index, &[MID_WORD[index]], &junk[index], &mut comm)
                };
                push(4).unwrap();
                push(0).unwrap();
                assert_eq!(push(4), Err(CoreError::TensorPushedTwice { index: 4 }));
                for step in 1..4 {
                    let order = Arrival::Backward.order(rank);
                    let mut a = mid_word_grads(rank, step);
                    let mut b = a.clone();
                    mid_word_step(&mut dropped, &mut comm, &mut a, &order);
                    mid_word_step(&mut twin, &mut comm, &mut b, &order);
                    let bits = |g: &[Vec<f32>]| {
                        g.iter().flatten().map(|v| v.to_bits()).collect::<Vec<_>>()
                    };
                    assert_eq!(
                        bits(&a),
                        bits(&b),
                        "error feedback {error_feedback}, step {step}"
                    );
                }
            });
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
