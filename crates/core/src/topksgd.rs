//! Top-k SGD over all-gather with scatter-average (§III), with optional
//! error feedback.
//!
//! The selection is exact, and after a bucket's first step it sweeps
//! nothing: `open` empties the bucket's candidate list, `absorb` writes
//! the bucket (`g + e`, or a copy without error feedback) and lists every
//! element whose magnitude reaches a bound carried over from the bucket's
//! last step, and `encode` selects among those few candidates. gTop-k
//! selects the same way.

use acp_collectives::{CollectiveOp, CollectiveResult};
use acp_compression::kernels::{self, Candidates};
use acp_compression::{ErrorFeedback, Payload, TopK};

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

/// One bucket's Top-k selection, which gTop-k shares: the candidates of
/// the open step, emptied by the codec's `open` and collected by `absorb`
/// as it writes the bucket, and the bound the next step collects at,
/// which only `encode` moves, so a step discarded before dispatch leaves
/// the next one as it would have been.
///
/// The selection is always the reference's. A bucket's first step after
/// a plan or [`BucketCodec::clear`] has no bound, and a step whose
/// candidates number fewer than `k` (the gradient shrank below the bound)
/// cannot vouch for the k-th key; both run [`kernels::select_topk`]'s
/// sampled sweep. A tie at the k-th key runs it too, which ends in the
/// reference's introselect.
#[derive(Debug, Default)]
pub(crate) struct Selection {
    /// The bound the next step collects at (`None`: collect nothing).
    carried: Option<u32>,
    /// The open step's candidates.
    cand: Candidates,
}

impl Selection {
    /// Starts a step's selection of `k` with an empty list, collecting at
    /// the carried bound.
    pub(crate) fn open(&mut self, k: usize) {
        self.cand.open(self.carried.unwrap_or(u32::MAX), k);
    }

    /// Writes tensor `slot` of `bucket` into its span of `buf` — `grad +
    /// residual`, or a copy without a residual (the whole bucket's) — and
    /// collects its candidates.
    pub(crate) fn absorb(
        &mut self,
        bucket: &Bucket,
        slot: usize,
        grad: &[f32],
        residual: Option<&[f32]>,
        buf: &mut [f32],
    ) {
        let span = bucket.span(slot);
        let residual = residual.map(|e| &e[span.clone()]);
        let start = span.start;
        kernels::correct_collecting(grad, residual, &mut buf[span], start, &mut self.cand);
    }

    /// The top-`k` payload of `corrected`, the bucket this step's
    /// `absorb`s wrote; carries the next step's bound over.
    pub(crate) fn select(&mut self, corrected: &[f32], k: usize) -> Payload {
        let cand = self.cand.list();
        let indices =
            kernels::select_among(cand, k).unwrap_or_else(|| kernels::select_topk(corrected, k));
        self.carried = Some(kernels::next_bound(cand, k, corrected));
        TopK::selected(corrected, indices)
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
    /// [`ErrorFeedback::compress_swapped_with`], which turns it into the
    /// residual and swaps it for the old residual's storage; every slot is
    /// overwritten by the next step's `absorb` before it is read again.
    buf: Vec<f32>,
    /// The selection's candidates and carried bound.
    select: Selection,
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

    fn open(&mut self, bucket: &Bucket) {
        let k = k_for(self.density, bucket.elems);
        let error_feedback = self.error_feedback;
        let st = self.buckets.get_or_insert_with(bucket, || TopkBucket {
            ef: error_feedback.then(|| ErrorFeedback::new(TopK::new(k))),
            ..TopkBucket::default()
        });
        st.buf.resize(bucket.elems, 0.0);
        st.select.open(k);
    }

    fn absorb(&mut self, bucket: &Bucket, slot: usize, grad: &[f32]) -> Result<(), CoreError> {
        let st = self.buckets.get_mut(bucket)?;
        let residual = st.ef.as_mut().map(|ef| ef.residual_for(bucket.elems));
        st.select.absorb(bucket, slot, grad, residual, &mut st.buf);
        Ok(())
    }

    fn encode(&mut self, bucket: &mut Bucket) -> Result<Vec<CollectiveOp>, CoreError> {
        let k = k_for(self.density, bucket.elems);
        let st = self.buckets.get_mut(bucket)?;
        let select = &mut st.select;
        let payload = match &mut st.ef {
            Some(ef) => ef.compress_swapped_with(&mut st.buf, |_, g| select.select(g, k)),
            None => select.select(&st.buf, k),
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

    const WORLD: usize = 3;

    /// One bucket's tensors (6119 elements, one tensor empty), so at
    /// `DENSITY` each rank keeps `k = 13` and its candidate list holds up
    /// to `8k + 2144 = 2248` before the bound rises.
    const TENSORS: [usize; 6] = [5, 2400, 0, 3, 3500, 211];

    const DENSITY: f64 = 0.002;

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
            let n = TENSORS.len();
            match self {
                Arrival::Blocking => Vec::new(),
                Arrival::Forward => (0..n).collect(),
                Arrival::Backward => (0..n).rev().collect(),
                Arrival::Shuffled => (0..n).map(|i| SHUFFLED[(i + rank) % n]).collect(),
            }
        }
    }

    /// The three codecs that select through [`Selection`].
    #[derive(Clone, Copy, Debug)]
    enum Kind {
        ErrorFeedback,
        Raw,
        Global,
    }

    enum Agg {
        Topk(TopkSgdAggregator),
        Global(crate::GTopkSgdAggregator),
    }

    impl Agg {
        fn new(kind: Kind) -> Agg {
            match kind {
                Kind::ErrorFeedback => Agg::Topk(TopkSgdAggregator::with_error_feedback(DENSITY)),
                Kind::Raw => Agg::Topk(TopkSgdAggregator::new(DENSITY)),
                Kind::Global => Agg::Global(crate::GTopkSgdAggregator::new(DENSITY)),
            }
        }

        fn opt(&mut self) -> &mut dyn DistributedOptimizer {
            match self {
                Agg::Topk(opt) => opt,
                Agg::Global(opt) => opt,
            }
        }

        fn residual_norm(&self) -> f32 {
            match self {
                Agg::Topk(opt) => opt.residual_norm(),
                Agg::Global(opt) => opt.residual_norm(),
            }
        }

        /// The plan's one bucket's selection state.
        fn selection(&self) -> &Selection {
            match self {
                Agg::Topk(opt) => opt.codec.buckets.iter().map(|b| &b.select).next(),
                Agg::Global(opt) => opt.codec.selections().next(),
            }
            .expect("a planned bucket")
        }
    }

    /// Which way a step selected.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    enum Path {
        /// No carried bound: the sampled sweep.
        First,
        /// Candidates at the carried bound, which held.
        Held,
        /// Candidates at a bound the list raised.
        Raised,
        /// Fewer than `k` candidates: the sampled sweep.
        Swept,
        /// A tie at the k-th key: the sweep, then the introselect.
        Tie,
    }

    /// The path a completed step took, given the bound it was carried
    /// into with; the candidates outlive `encode`.
    fn path_taken(select: &Selection, carried: Option<u32>, k: usize) -> Path {
        let list = select.cand.list();
        match carried {
            None => Path::First,
            Some(_) if list.len() < k => Path::Swept,
            Some(_) if kernels::select_among(list, k).is_none() => Path::Tie,
            Some(bound) if select.cand.bound() != bound => Path::Raised,
            Some(_) => Path::Held,
        }
    }

    /// What step `step` should leave in the corrected bucket of `rank`:
    /// ordinary values, then ×8 (the list overflows and raises its bound),
    /// ×1/8 (the carried bound is above the k-th key), and last `k + 3`
    /// spikes of ±2³⁰, which residuals below 64 cannot move, so the k-th
    /// key is tied.
    fn target(rank: usize, step: usize) -> Vec<f32> {
        let n: usize = TENSORS.iter().sum();
        let scale = [1.0, 1.0, 8.0, 0.125, 1.0][step];
        (0..n)
            .map(|e| {
                if step == 4 && e % 383 == 7 {
                    let spike = 2f32.powi(30);
                    if e % 2 == 0 {
                        spike
                    } else {
                        -spike
                    }
                } else {
                    let x = ((e * 7 + rank * 5 + step * 11) as f32 * 0.61).sin();
                    x * (1.0 + rank as f32 * 0.5) * scale
                }
            })
            .collect()
    }

    /// A rank's scalar model of the codec: its own residual, selection by
    /// [`kernels::reference::select_topk`], and the collective run
    /// directly on the communicator.
    struct Oracle {
        kind: Kind,
        residual: Vec<f32>,
    }

    impl Oracle {
        fn feeds_back(&self) -> bool {
            !matches!(self.kind, Kind::Raw)
        }

        /// The gradient that leaves `target` in the corrected bucket: with
        /// error feedback, `target − e`, since a grown residual would
        /// otherwise outweigh the step's own scale.
        fn gradient(&self, target: &[f32]) -> Vec<f32> {
            if !self.feeds_back() || self.residual.is_empty() {
                return target.to_vec();
            }
            target
                .iter()
                .zip(&self.residual)
                .map(|(t, e)| t - e)
                .collect()
        }

        /// One step on the whole bucket: the aggregated output.
        fn step(&mut self, grad: &[f32], comm: &mut dyn Communicator) -> Vec<u32> {
            let n = grad.len();
            let k = k_for(DENSITY, n);
            let corrected: Vec<f32> = if self.feeds_back() {
                self.residual.resize(n, 0.0);
                grad.iter()
                    .zip(&self.residual)
                    .map(|(g, e)| g + e)
                    .collect()
            } else {
                grad.to_vec()
            };
            let indices = kernels::reference::select_topk(&corrected, k);
            let values: Vec<f32> = indices.iter().map(|&i| corrected[i as usize]).collect();
            if self.feeds_back() {
                self.residual.clone_from(&corrected);
                for (&i, v) in indices.iter().zip(&values) {
                    self.residual[i as usize] -= v;
                }
            }
            let inv = 1.0 / WORLD as f32;
            let mut out = vec![0.0f32; n];
            if let Kind::Global = self.kind {
                let (gi, gv) = comm.global_topk(&indices, &values, k).unwrap();
                for (&i, v) in gi.iter().zip(gv) {
                    out[i as usize] = v * inv;
                }
            } else {
                let gi = comm.all_gather_u32(&indices).unwrap();
                let gv = comm.all_gather_f32(&values).unwrap();
                for (&i, v) in gi.iter().zip(gv) {
                    out[i as usize] += v * inv;
                }
            }
            out.iter().map(|v| v.to_bits()).collect()
        }

        /// The codec's `residual_norm`: a sum over its one bucket's norm.
        fn residual_norm(&self) -> f32 {
            let norm = self.residual.iter().map(|v| v * v).sum::<f32>().sqrt();
            self.feeds_back().then_some(norm).into_iter().sum()
        }
    }

    /// Splits a bucket-long vector into the tensors.
    fn split(flat: &[f32]) -> Vec<Vec<f32>> {
        let mut at = 0;
        TENSORS
            .iter()
            .map(|&len| {
                at += len;
                flat[at - len..at].to_vec()
            })
            .collect()
    }

    /// One step of `opt` on `grads`: `aggregate` alone for an empty
    /// `order`, else every tensor pushed in that order and then
    /// `finish_overlap`.
    fn run_step(
        opt: &mut dyn DistributedOptimizer,
        comm: &mut dyn Communicator,
        grads: &mut [Vec<f32>],
        order: &[usize],
    ) {
        let dims: Vec<[usize; 1]> = TENSORS.iter().map(|&l| [l]).collect();
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

    #[test]
    fn every_selection_path_gives_the_reference_bits() {
        // Five steps that take the first-step sweep, a bound that holds, a
        // raise, a bound above the k-th key and a tie at it, in every
        // arrival order: each step's output and residual norm must be the
        // scalar oracle's, bit for bit.
        let k = k_for(DENSITY, TENSORS.iter().sum());
        for kind in [Kind::ErrorFeedback, Kind::Raw, Kind::Global] {
            for arrival in [
                Arrival::Blocking,
                Arrival::Forward,
                Arrival::Backward,
                Arrival::Shuffled,
            ] {
                let paths = ThreadGroup::run(WORLD, move |mut comm| {
                    let rank = comm.rank_id().as_usize();
                    let mut agg = Agg::new(kind);
                    let mut oracle = Oracle {
                        kind,
                        residual: Vec::new(),
                    };
                    let mut paths = Vec::new();
                    for step in 0..5 {
                        let grad = oracle.gradient(&target(rank, step));
                        // Step 0 builds the plan, which ignores pushes.
                        let order = if step == 0 {
                            Vec::new()
                        } else {
                            arrival.order(rank)
                        };
                        let carried = (step > 0).then(|| agg.selection().carried).flatten();
                        let mut grads = split(&grad);
                        run_step(agg.opt(), &mut comm, &mut grads, &order);
                        paths.push(path_taken(agg.selection(), carried, k));
                        let got: Vec<u32> = grads.concat().iter().map(|v| v.to_bits()).collect();
                        let want = oracle.step(&grad, &mut comm);
                        let what = format!("{kind:?}, {arrival:?}, rank {rank}, step {step}");
                        assert_eq!(got, want, "{what}");
                        assert_eq!(
                            agg.residual_norm().to_bits(),
                            oracle.residual_norm().to_bits(),
                            "{what}"
                        );
                    }
                    paths
                });
                let want = [
                    Path::First,
                    Path::Held,
                    Path::Raised,
                    Path::Swept,
                    Path::Tie,
                ];
                for (rank, got) in paths.iter().enumerate() {
                    assert_eq!(got, &want, "{kind:?}, {arrival:?}, rank {rank}");
                }
            }
        }
    }

    #[test]
    fn a_step_discarded_before_dispatch_leaves_the_next_as_a_twins() {
        // The discarded step absorbs junk a thousand times larger than the
        // bucket: had its list raised the carried bound, the twins' next
        // steps would select at different bounds.
        for kind in [Kind::ErrorFeedback, Kind::Raw, Kind::Global] {
            ThreadGroup::run(WORLD, move |mut comm| {
                let rank = comm.rank_id().as_usize();
                let (mut dropped, mut twin) = (Agg::new(kind), Agg::new(kind));
                for agg in [&mut dropped, &mut twin] {
                    run_step(agg.opt(), &mut comm, &mut split(&target(rank, 0)), &[]);
                }
                let junk = split(
                    &target(rank, 1)
                        .iter()
                        .map(|v| v * 1.0e3)
                        .collect::<Vec<_>>(),
                );
                let mut push = |index: usize| {
                    dropped
                        .opt()
                        .push_ready(index, &[TENSORS[index]], &junk[index], &mut comm)
                };
                push(4).unwrap();
                push(1).unwrap();
                assert_eq!(push(4), Err(CoreError::TensorPushedTwice { index: 4 }));
                for step in 1..5 {
                    let order = Arrival::Backward.order(rank);
                    let mut a = split(&target(rank, step));
                    let mut b = a.clone();
                    run_step(dropped.opt(), &mut comm, &mut a, &order);
                    run_step(twin.opt(), &mut comm, &mut b, &order);
                    let bits = |g: &[Vec<f32>]| {
                        g.iter().flatten().map(|v| v.to_bits()).collect::<Vec<_>>()
                    };
                    let what = format!("{kind:?}, rank {rank}, step {step}");
                    assert_eq!(bits(&a), bits(&b), "{what}");
                    assert_eq!(
                        dropped.residual_norm().to_bits(),
                        twin.residual_norm().to_bits(),
                        "{what}"
                    );
                    assert_eq!(
                        dropped.selection().carried,
                        twin.selection().carried,
                        "{what}"
                    );
                }
            });
        }
    }
}
