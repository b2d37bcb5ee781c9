//! The fused-bucket aggregation pipeline every aggregator runs on.
//!
//! One aggregation step is always the same skeleton: partition the
//! forward-order tensor list into fusion buckets ([`bucket_ranges`]), and
//! per bucket *absorb → encode → dispatch → wait → decode → emit*. What
//! differs between algorithms is only the compression applied to a bucket
//! and the collectives it needs — captured by the [`BucketCodec`] trait,
//! including multi-round exchanges ([`Round::Next`], e.g. Power-SGD's
//! dependent `Q` all-reduce).
//!
//! The pipeline owns no gradient-sized memory. A codec's first pass reads
//! each tensor from the caller's slice ([`BucketCodec::absorb`]) and its
//! last pass writes each tensor into the caller's slice
//! ([`BucketCodec::emit`]); what travels between the two — a dense copy,
//! sign words, sparse pairs or low-rank factors — is the codec's to hold.
//!
//! The pipeline has two entry points with identical results:
//!
//! * [`FusedPipeline::finish`] alone — the *blocking* path: every bucket is
//!   absorbed and dispatched in plan order, then drained in plan order. The
//!   dispatch/drain split means bucket `b+1` communicates while bucket `b`
//!   is being awaited (tensor-fusion pipelining).
//! * [`FusedPipeline::push`] per ready gradient + `finish` — the *WFBP*
//!   path: a bucket's collective is dispatched the moment its last tensor
//!   arrives, overlapping communication with the rest of backward.
//!
//! Both paths feed each bucket the same tensors to the same per-(bucket,
//! slot) codec state, payload offsets are fixed by slot, and the comm
//! worker executes submissions in FIFO order, so the overlapped schedule is
//! **bit-identical** to the blocking one by construction, whatever order
//! the tensors arrive in.
//!
//! Every aggregator is one [`Pipelined`] shell — this pipeline, a codec and
//! the per-step telemetry — so the seven algorithms differ only in their
//! codec; [`WarmStart`] puts exact averaging in front of any codec for the
//! first steps.

use std::ops::Range;

use acp_collectives::{wait_all, CollectiveOp, CollectiveResult, Communicator, PendingOp};
use acp_telemetry::{keys, Recorder, RecorderCell, RecorderHandle, SpanGuard};

use crate::error::CoreError;
use crate::fusion::bucket_ranges;
use crate::optimizer::{DistributedOptimizer, GradViewMut};
use crate::ssgd::MeanCodec;

/// Default DDP fusion buffer: 25 MB.
pub const DEFAULT_BUFFER_BYTES: usize = 25 * 1024 * 1024;

/// One fusion bucket: a contiguous run of forward-order tensors whose
/// gradients travel together in fused collective payloads. The bucket is
/// a layout, not storage: the gradients stay in the caller's tensors.
#[derive(Debug)]
pub struct Bucket {
    /// Bucket position in the plan. Stable across steps — codecs key their
    /// per-bucket compression state (residuals, factor queries) by it so
    /// dispatch order cannot change results.
    pub index: usize,
    /// Range of tensor indices fused into the bucket.
    pub tensors: Range<usize>,
    /// Dims of each tensor in the bucket, in order.
    pub dims: Vec<Vec<usize>>,
    /// Element offset of each tensor inside the bucket's flattened
    /// gradient (`dims.len() + 1` entries; last is the total).
    pub offsets: Vec<usize>,
    /// Total elements in the bucket.
    pub elems: usize,
    /// World size of the communicator driving the current step.
    pub world_size: usize,
    /// Wire bytes the codec reports for the current step; add the
    /// compressed payload size here in `encode` (and in later rounds).
    pub payload_bytes: u64,
    /// Which tensors the open step has absorbed, by slot.
    arrived: Vec<bool>,
}

impl Bucket {
    /// Bucket `index` of a plan, fusing the `tensors` of `grads`.
    pub(crate) fn new(index: usize, tensors: Range<usize>, grads: &[GradViewMut<'_>]) -> Bucket {
        let grads = &grads[tensors.clone()];
        let mut offsets = vec![0];
        for g in grads {
            offsets.push(offsets[offsets.len() - 1] + g.grad.len());
        }
        Bucket {
            index,
            tensors,
            dims: grads.iter().map(|g| g.dims.to_vec()).collect(),
            elems: offsets[grads.len()],
            offsets,
            world_size: 1,
            payload_bytes: 0,
            arrived: vec![false; grads.len()],
        }
    }

    /// Element range of tensor `slot` inside the bucket's flattened
    /// gradient.
    pub fn span(&self, slot: usize) -> Range<usize> {
        self.offsets[slot]..self.offsets[slot + 1]
    }

    /// Whether the open step has absorbed tensor `slot` before the call
    /// in progress (false past the bucket's last slot).
    pub fn arrived(&self, slot: usize) -> bool {
        self.arrived.get(slot) == Some(&true)
    }
}

/// Codec state keyed by [`Bucket::index`], built by the codec's
/// [`BucketCodec::open`].
#[derive(Debug)]
pub(crate) struct PerBucket<T>(Vec<Option<T>>);

impl<T> Default for PerBucket<T> {
    fn default() -> Self {
        PerBucket(Vec::new())
    }
}

impl<T> PerBucket<T> {
    /// The bucket's state, built by `new` if the bucket has none yet.
    pub(crate) fn get_or_insert_with(
        &mut self,
        bucket: &Bucket,
        new: impl FnOnce() -> T,
    ) -> &mut T {
        if self.0.len() <= bucket.index {
            self.0.resize_with(bucket.index + 1, || None);
        }
        self.0[bucket.index].get_or_insert_with(new)
    }

    /// The state of an opened bucket.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::CodecProtocol`] for a bucket that was never
    /// opened — a call out of order must not panic the rank.
    pub(crate) fn get_mut(&mut self, bucket: &Bucket) -> Result<&mut T, CoreError> {
        self.0
            .get_mut(bucket.index)
            .and_then(Option::as_mut)
            .ok_or(CoreError::CodecProtocol("bucket was never opened"))
    }

    /// Every bucket's state, in plan order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &T> {
        self.0.iter().flatten()
    }

    /// Drops every bucket's state (the plan it was keyed by is gone).
    pub(crate) fn clear(&mut self) {
        self.0.clear();
    }
}

/// What a codec wants next after consuming one round of results.
#[derive(Debug)]
pub enum Round {
    /// Dispatch another round of collectives for this bucket (e.g.
    /// Power-SGD's `Q` all-reduce, which depends on the reduced `P`).
    Next(Vec<CollectiveOp>),
    /// The bucket is complete; the codec is ready to
    /// [`emit`](BucketCodec::emit) every tensor of it.
    Done,
}

/// The per-bucket compression half of an aggregation algorithm.
///
/// The pipeline owns each bucket's step and drives it through
/// `open → absorb* → encode → decode+ → emit* | abandon`:
/// [`open`](BucketCodec::open) when the step's first tensor of the bucket
/// arrives, [`absorb`](BucketCodec::absorb) once per tensor (in any
/// order), [`encode`](BucketCodec::encode) once, then
/// [`decode`](BucketCodec::decode) per round of results (in request order)
/// until it returns [`Round::Done`], then [`emit`](BucketCodec::emit) once
/// per tensor. When the pipeline discards a step, every bucket it opened
/// and did not finish emitting gets [`abandon`](BucketCodec::abandon)
/// instead, whether or not it was encoded. State must be keyed by
/// ([`Bucket::index`], slot) — never by call order — so the blocking and
/// overlapped schedules stay bit-identical.
pub trait BucketCodec: Send {
    /// Short algorithm name the aggregator running this codec reports.
    const NAME: &'static str;

    /// Starts the bucket's step, before its first `absorb`: builds the
    /// bucket's state on its first step and sizes what the step writes,
    /// so that `absorb` is only the pass over the data.
    fn open(&mut self, bucket: &Bucket);

    /// Takes tensor `slot` of the bucket from the caller's gradient: the
    /// codec's first pass over the data (a copy, an error-feedback
    /// correction, a low-rank projection) reads `grad` directly. Tensors
    /// of an open step arrive at most once each, in any order.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Compress`] if the compressor state machine
    /// rejects the tensor (phase, shape or matrix-dimension violation).
    fn absorb(&mut self, bucket: &Bucket, slot: usize, grad: &[f32]) -> Result<(), CoreError>;

    /// Called when every tensor of the bucket has been absorbed: finishes
    /// the compression and returns the first round of collectives to
    /// dispatch for it.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::CodecProtocol`] if the compressor produced a
    /// payload of the wrong kind.
    fn encode(&mut self, bucket: &mut Bucket) -> Result<Vec<CollectiveOp>, CoreError>;

    /// Consumes one round of results; returns the next round or finishes
    /// the bucket. Everything a peer supplied is validated here, once per
    /// bucket, so that `emit` cannot fail on it.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Collective`] if a result has the wrong payload
    /// type for the requested operation and [`CoreError::CodecProtocol`]
    /// if its contents do not fit the bucket.
    fn decode(
        &mut self,
        bucket: &mut Bucket,
        results: Vec<CollectiveResult>,
    ) -> Result<Round, CoreError>;

    /// Writes the aggregated tensor `slot` of a [`Round::Done`] bucket over
    /// `out`, the caller's gradient: the codec's last pass (a copy, a sign
    /// expansion, a scatter, a low-rank reconstruction) writes it directly.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Compress`] if the compressor state machine
    /// rejects the reconstruction.
    fn emit(&mut self, bucket: &Bucket, slot: usize, out: &mut [f32]) -> Result<(), CoreError>;

    /// Ends an opened step of the bucket that the pipeline discarded
    /// before every tensor was emitted. The default does nothing, which
    /// suits a codec whose `open` resets everything a step writes.
    fn abandon(&mut self, _bucket: &Bucket) {}

    /// Drops every bucket-keyed state: the plan it was keyed by is being
    /// rebuilt (a new fusion buffer size or a membership change).
    fn clear(&mut self);

    /// The error-feedback residual norm to record after a completed step,
    /// if the codec keeps a residual. Consulted only when a recorder is
    /// enabled.
    fn residual_norm(&self) -> Option<f64> {
        None
    }

    /// Called once after every completed step.
    fn step_completed(&mut self) {}
}

/// Byte/time accounting for one pipeline step, reported by [`Pipelined`].
#[derive(Debug, Clone, Copy, Default)]
pub struct StepStats {
    /// Dense gradient bytes the step aggregated.
    pub dense_bytes: u64,
    /// Compressed wire bytes the codec reported across all buckets.
    pub payload_bytes: u64,
    /// Time spent inside the codec (`open`, `absorb`, `encode`, `decode`
    /// and `emit` calls), microseconds.
    pub compress_us: u64,
    /// Recorder timestamp at which the step opened.
    pub step_start_us: u64,
}

/// One bucket of the plan and its place in the open step.
#[derive(Debug)]
struct Lane {
    bucket: Bucket,
    /// Opened this step and not yet emitted: abandoned if the step closes.
    open: bool,
    /// Tensors absorbed this step.
    absorbed: usize,
    /// The bucket's collectives, from dispatch to drain.
    inflight: Option<Vec<PendingOp>>,
}

/// The shared absorb → dispatch → wait → emit engine, and the one owner of
/// each bucket's step (see [`BucketCodec`] for the lifecycle it drives).
///
/// Owns the bucket plan (built lazily from the first step's tensor list
/// and a `buffer_bytes` capacity) and the in-flight [`PendingOp`] handles,
/// and nothing the size of a gradient. See the [module docs](self) for
/// the two entry points.
#[derive(Debug, Default)]
pub struct FusedPipeline {
    buffer_bytes: usize,
    shapes: Vec<Vec<usize>>,
    lanes: Vec<Lane>,
    tensor_to_bucket: Vec<usize>,
    step_open: bool,
    compress_us: u64,
    step_start_us: u64,
}

impl FusedPipeline {
    /// Creates a pipeline with an explicit fusion buffer capacity in bytes
    /// (`0` disables fusion: one bucket per tensor).
    pub fn new(buffer_bytes: usize) -> Self {
        FusedPipeline {
            buffer_bytes,
            ..FusedPipeline::default()
        }
    }

    /// The configured fusion buffer capacity in bytes.
    pub fn buffer_bytes(&self) -> usize {
        self.buffer_bytes
    }

    /// Number of buckets in the plan (0 before the first step).
    pub fn num_buckets(&self) -> usize {
        self.lanes.len()
    }

    /// Reconfigures the fusion buffer capacity, discarding the bucket plan
    /// so the next step rebuilds it — the closed-loop autotuner applies
    /// its tuned size through this between profiling and epoch 1. A no-op
    /// when the capacity is unchanged. The recorded tensor shapes are
    /// kept, so shape/count-change detection still works across the
    /// re-plan.
    ///
    /// # Panics
    ///
    /// Panics if called mid-step (after a `push`, before its `finish`),
    /// when collectives may be in flight against the old plan.
    pub fn set_buffer_bytes(&mut self, buffer_bytes: usize) {
        if buffer_bytes == self.buffer_bytes {
            return;
        }
        assert!(
            !self.step_open,
            "cannot re-plan fusion buckets while a step is open"
        );
        self.buffer_bytes = buffer_bytes;
        self.replan();
    }

    /// Aborts any open step and discards the bucket plan so the next step
    /// rebuilds it from scratch — the membership hook. After a rank dies
    /// and the group `reform()`s, in-flight handles belong to a collective
    /// the survivors abandoned and the bucket plan may have been sized for
    /// the old world; both are dropped here (the codec's bucket state goes
    /// with the plan, so nothing is abandoned). Recorded tensor shapes are
    /// kept so shape/count-change detection survives the re-plan.
    pub fn replan(&mut self) {
        self.step_open = false;
        self.lanes.clear();
        self.tensor_to_bucket.clear();
    }

    fn ensure_plan(&mut self, grads: &[GradViewMut<'_>]) {
        if !self.lanes.is_empty() || grads.is_empty() {
            return;
        }
        let sizes: Vec<usize> = grads.iter().map(|g| 4 * g.grad.len()).collect();
        self.tensor_to_bucket = vec![0; grads.len()];
        for (bi, range) in bucket_ranges(&sizes, self.buffer_bytes)
            .into_iter()
            .enumerate()
        {
            self.tensor_to_bucket[range.clone()].fill(bi);
            self.lanes.push(Lane {
                bucket: Bucket::new(bi, range, grads),
                open: false,
                absorbed: 0,
                inflight: None,
            });
        }
    }

    fn open_step(&mut self, rec: &dyn Recorder) {
        self.step_open = true;
        self.step_start_us = rec.now_us();
        self.compress_us = 0;
    }

    /// Closes the open step, completed or discarded: whatever is still in
    /// flight is dropped, which waits for it, every bucket opened and not
    /// emitted is abandoned, and every bucket is left idle for the next.
    fn close_step<C: BucketCodec + ?Sized>(&mut self, codec: &mut C) {
        self.step_open = false;
        for lane in &mut self.lanes {
            lane.inflight = None;
            if lane.open {
                codec.abandon(&lane.bucket);
            }
            lane.open = false;
            lane.absorbed = 0;
            lane.bucket.arrived.fill(false);
        }
    }

    /// Hands tensor `slot` of bucket `b` to the codec: the bucket's first
    /// tensor of the step opens it, its last dispatches it.
    fn absorb<C: BucketCodec + ?Sized>(
        &mut self,
        codec: &mut C,
        b: usize,
        slot: usize,
        grad: &[f32],
        comm: &mut dyn Communicator,
        rec: &dyn Recorder,
    ) -> Result<(), CoreError> {
        let lane = &mut self.lanes[b];
        let absorb_start = rec.now_us();
        if lane.absorbed == 0 {
            lane.bucket.world_size = comm.world_size();
            lane.bucket.payload_bytes = 0;
            codec.open(&lane.bucket);
            lane.open = true;
        }
        codec.absorb(&lane.bucket, slot, grad)?;
        self.compress_us += rec.now_us().saturating_sub(absorb_start);
        lane.bucket.arrived[slot] = true;
        lane.absorbed += 1;
        if lane.absorbed == lane.bucket.dims.len() {
            self.dispatch_bucket(codec, b, comm, rec)?;
        }
        Ok(())
    }

    fn dispatch_bucket<C: BucketCodec + ?Sized>(
        &mut self,
        codec: &mut C,
        b: usize,
        comm: &mut dyn Communicator,
        rec: &dyn Recorder,
    ) -> Result<(), CoreError> {
        let track = comm.rank_id().as_usize() as u64;
        let _g = SpanGuard::start(rec, keys::SPAN_BUCKET_DISPATCH, keys::CAT_PIPELINE, track);
        let lane = &mut self.lanes[b];
        let encode_start = rec.now_us();
        let ops = codec.encode(&mut lane.bucket)?;
        self.compress_us += rec.now_us().saturating_sub(encode_start);
        // allow_verify(reason = "pending ops stored in a lane are drained by finish, or dropped by close_step, which waits for every handle before the bucket is reused")
        lane.inflight = Some(ops.into_iter().map(|op| comm.dispatch(op)).collect());
        rec.add(keys::PIPELINE_BUCKETS, 1);
        Ok(())
    }

    /// Offers one tensor's ready gradient (WFBP). The codec absorbs it
    /// straight from `grad`; when the bucket's last tensor arrives, the
    /// bucket is encoded and its collectives dispatched immediately. A
    /// bucket's step is `open → absorb* → encode → decode+ → emit* |
    /// abandon`, opened by its first tensor and emitted by `finish`.
    ///
    /// Before the plan exists (the first-ever step), pushes are accepted
    /// and ignored — [`finish`](FusedPipeline::finish) runs that step
    /// blocking and builds the plan, exactly like PyTorch DDP's first
    /// iteration.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ShapeChanged`] /
    /// [`CoreError::TensorCountChanged`] if `index`/`dims` disagree with
    /// the recorded tensor list, [`CoreError::TensorPushedTwice`] if the
    /// open step already holds the tensor (whether or not its bucket has
    /// been dispatched), and the codec's errors. On any error the open
    /// step is discarded — in-flight collectives are waited for and
    /// dropped, and every bucket it opened is abandoned — and the pipeline
    /// is reusable afterwards.
    ///
    /// The codecs come out of a discarded step as they went in only if no
    /// bucket of it was dispatched: `encode` is where an error-feedback
    /// residual (Top-k, gTop-k, Sign-SGD) or DGC's accumulator moves, so a
    /// bucket encoded before the error has already moved its state, and
    /// the next step starts from there.
    pub fn push<C: BucketCodec + ?Sized>(
        &mut self,
        codec: &mut C,
        index: usize,
        dims: &[usize],
        grad: &[f32],
        comm: &mut dyn Communicator,
        rec: &dyn Recorder,
    ) -> Result<(), CoreError> {
        if self.lanes.is_empty() {
            return Ok(());
        }
        let result = self.push_inner(codec, index, dims, grad, comm, rec);
        if result.is_err() {
            self.close_step(codec);
        }
        result
    }

    fn push_inner<C: BucketCodec + ?Sized>(
        &mut self,
        codec: &mut C,
        index: usize,
        dims: &[usize],
        grad: &[f32],
        comm: &mut dyn Communicator,
        rec: &dyn Recorder,
    ) -> Result<(), CoreError> {
        if index >= self.shapes.len() {
            return Err(CoreError::TensorCountChanged {
                expected: self.shapes.len(),
                actual: index + 1,
            });
        }
        if self.shapes[index] != dims {
            return Err(CoreError::ShapeChanged {
                index,
                expected: self.shapes[index].clone(),
                actual: dims.to_vec(),
            });
        }
        if !self.step_open {
            self.open_step(rec);
        }
        let b = self.tensor_to_bucket[index];
        let slot = index - self.lanes[b].bucket.tensors.start;
        if self.lanes[b].bucket.arrived[slot] {
            return Err(CoreError::TensorPushedTwice { index });
        }
        self.absorb(codec, b, slot, grad, comm, rec)
    }

    /// Completes a step: absorbs and dispatches every bucket not already
    /// dispatched by [`push`](FusedPipeline::push) (in plan order), then
    /// drains all buckets in plan order — waiting, running codec rounds,
    /// and letting the codec emit the aggregated gradients into `grads`.
    ///
    /// Calling `finish` without any prior pushes *is* the blocking
    /// aggregation path.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Collective`] on communication failure and the
    /// shape errors of `check_shapes`; the step is discarded as on a
    /// `push` error (a bucket that emitted every tensor before the error
    /// is not abandoned), so the pipeline is reusable afterwards.
    pub fn finish<C: BucketCodec + ?Sized>(
        &mut self,
        codec: &mut C,
        grads: &mut [GradViewMut<'_>],
        comm: &mut dyn Communicator,
        rec: &dyn Recorder,
    ) -> Result<StepStats, CoreError> {
        let result = self.finish_inner(codec, grads, comm, rec);
        self.close_step(codec);
        result
    }

    fn finish_inner<C: BucketCodec + ?Sized>(
        &mut self,
        codec: &mut C,
        grads: &mut [GradViewMut<'_>],
        comm: &mut dyn Communicator,
        rec: &dyn Recorder,
    ) -> Result<StepStats, CoreError> {
        check_shapes(&mut self.shapes, grads)?;
        self.ensure_plan(grads);
        if !self.step_open {
            self.open_step(rec);
        }
        // Absorb and dispatch whatever backward did not push, in plan order.
        for b in 0..self.lanes.len() {
            for (slot, t) in self.lanes[b].bucket.tensors.clone().enumerate() {
                if !self.lanes[b].bucket.arrived[slot] {
                    self.absorb(codec, b, slot, grads[t].grad, comm, rec)?;
                }
            }
        }
        // Drain in plan order, running any dependent rounds.
        let track = comm.rank_id().as_usize() as u64;
        for lane in &mut self.lanes {
            // allow_verify(reason = "the flush loop above dispatches every bucket before any drain")
            let mut pending = lane.inflight.take().expect("every bucket dispatched");
            let wait_start = rec.now_us();
            {
                let _g = SpanGuard::start(rec, keys::SPAN_BUCKET_WAIT, keys::CAT_PIPELINE, track);
                loop {
                    let results = wait_all(pending)?;
                    let decode_start = rec.now_us();
                    let round = codec.decode(&mut lane.bucket, results)?;
                    self.compress_us += rec.now_us().saturating_sub(decode_start);
                    match round {
                        Round::Next(ops) => {
                            pending = ops.into_iter().map(|op| comm.dispatch(op)).collect();
                        }
                        Round::Done => break,
                    }
                }
            }
            if rec.enabled() {
                rec.observe(
                    keys::PIPELINE_EXPOSED_WAIT_US,
                    rec.now_us().saturating_sub(wait_start) as f64,
                );
            }
            let emit_start = rec.now_us();
            for (slot, t) in lane.bucket.tensors.clone().enumerate() {
                codec.emit(&lane.bucket, slot, grads[t].grad)?;
            }
            self.compress_us += rec.now_us().saturating_sub(emit_start);
            lane.open = false;
        }
        Ok(StepStats {
            dense_bytes: self.lanes.iter().map(|l| 4 * l.bucket.elems as u64).sum(),
            payload_bytes: self.lanes.iter().map(|l| l.bucket.payload_bytes).sum(),
            compress_us: self.compress_us,
            step_start_us: self.step_start_us,
        })
    }
}

/// An aggregator: a [`FusedPipeline`] driving codec `C`, plus the
/// per-step telemetry. Every algorithm the crate provides is one of these
/// ([`SSgdAggregator`](crate::SSgdAggregator) is `Pipelined<MeanCodec>`,
/// and so on), so they differ only in their codec.
#[derive(Debug)]
pub struct Pipelined<C: BucketCodec> {
    pub(crate) pipeline: FusedPipeline,
    pub(crate) codec: C,
    recorder: RecorderCell,
}

impl<C: BucketCodec> Pipelined<C> {
    /// Runs `codec` over a fusion buffer of `buffer_bytes` (0 disables
    /// fusion).
    pub(crate) fn from_codec(codec: C, buffer_bytes: usize) -> Self {
        Pipelined {
            pipeline: FusedPipeline::new(buffer_bytes),
            codec,
            recorder: RecorderCell::default(),
        }
    }
}

impl<C: BucketCodec> DistributedOptimizer for Pipelined<C> {
    fn name(&self) -> &'static str {
        C::NAME
    }

    fn aggregate(
        &mut self,
        grads: &mut [GradViewMut<'_>],
        comm: &mut dyn Communicator,
    ) -> Result<(), CoreError> {
        let rec = &*self.recorder;
        let enabled = rec.enabled();
        let stats = self.pipeline.finish(&mut self.codec, grads, comm, rec)?;
        if enabled {
            record_step_metrics(rec, &stats, self.codec.residual_norm());
        }
        self.codec.step_completed();
        Ok(())
    }

    fn set_recorder(&mut self, recorder: RecorderHandle) {
        self.recorder.set(recorder);
    }

    fn push_ready(
        &mut self,
        index: usize,
        dims: &[usize],
        grad: &[f32],
        comm: &mut dyn Communicator,
    ) -> Result<(), CoreError> {
        self.pipeline
            .push(&mut self.codec, index, dims, grad, comm, &*self.recorder)
    }

    fn finish_overlap(
        &mut self,
        grads: &mut [GradViewMut<'_>],
        comm: &mut dyn Communicator,
    ) -> Result<(), CoreError> {
        self.aggregate(grads, comm)
    }

    fn set_buffer_bytes(&mut self, buffer_bytes: usize) {
        self.pipeline.set_buffer_bytes(buffer_bytes);
        self.codec.clear();
    }

    fn on_membership_change(&mut self) {
        self.pipeline.replan();
        self.codec.clear();
    }
}

/// Exact averaging for the first `warm_start_steps` completed steps, codec
/// `C` after them — the `start_powerSGD_iter` warm start of PyTorch's
/// PowerSGD hook, which avoids compressing the large, fast-changing
/// early-training gradients. `C` is not touched while warm, so the warm
/// start never perturbs its schedule, and the dense buffers are dropped as
/// soon as it ends. One codec sees each bucket's whole step: warm-ness
/// changes only between completed steps.
#[derive(Debug)]
pub struct WarmStart<C> {
    pub(crate) inner: C,
    dense: MeanCodec,
    steps: u64,
    warm_start_steps: u64,
}

impl<C> WarmStart<C> {
    pub(crate) fn new(inner: C, warm_start_steps: u64) -> Self {
        WarmStart {
            inner,
            dense: MeanCodec::default(),
            steps: 0,
            warm_start_steps,
        }
    }

    /// Number of completed aggregation steps.
    pub(crate) fn steps(&self) -> u64 {
        self.steps
    }

    /// Whether the next step still uses the uncompressed warm start.
    pub(crate) fn in_warm_start(&self) -> bool {
        self.steps < self.warm_start_steps
    }
}

/// One [`BucketCodec`] method of [`WarmStart`], run by the dense codec
/// while the warm start lasts and by the inner one after it.
macro_rules! warm_or_inner {
    (fn $name:ident(&mut self $(, $arg:ident: $ty:ty)*) $(-> $ret:ty)?) => {
        fn $name(&mut self $(, $arg: $ty)*) $(-> $ret)? {
            if self.in_warm_start() {
                self.dense.$name($($arg),*)
            } else {
                self.inner.$name($($arg),*)
            }
        }
    };
}

impl<C: BucketCodec> BucketCodec for WarmStart<C> {
    const NAME: &'static str = C::NAME;

    warm_or_inner!(fn open(&mut self, bucket: &Bucket));
    warm_or_inner!(fn absorb(&mut self, bucket: &Bucket, slot: usize, grad: &[f32])
        -> Result<(), CoreError>);
    warm_or_inner!(fn encode(&mut self, bucket: &mut Bucket)
        -> Result<Vec<CollectiveOp>, CoreError>);
    warm_or_inner!(fn decode(&mut self, bucket: &mut Bucket, results: Vec<CollectiveResult>)
        -> Result<Round, CoreError>);
    warm_or_inner!(fn emit(&mut self, bucket: &Bucket, slot: usize, out: &mut [f32])
        -> Result<(), CoreError>);
    warm_or_inner!(fn abandon(&mut self, bucket: &Bucket));

    fn clear(&mut self) {
        self.dense.clear();
        self.inner.clear();
    }

    fn residual_norm(&self) -> Option<f64> {
        if self.in_warm_start() {
            None
        } else {
            self.inner.residual_norm()
        }
    }

    fn step_completed(&mut self) {
        self.steps += 1;
        if !self.in_warm_start() {
            self.dense.clear();
        }
        self.inner.step_completed();
    }
}

/// Records one aggregation step's standard telemetry: dense/payload bytes,
/// compression ratio, compression time, optional error-feedback residual
/// norm, and total step latency.
fn record_step_metrics(rec: &dyn Recorder, stats: &StepStats, residual_norm: Option<f64>) {
    rec.add(keys::COMPRESS_DENSE_BYTES, stats.dense_bytes);
    rec.add(keys::COMPRESS_PAYLOAD_BYTES, stats.payload_bytes);
    rec.observe(
        keys::COMPRESS_RATIO,
        stats.dense_bytes as f64 / stats.payload_bytes.max(1) as f64,
    );
    rec.observe(keys::COMPRESS_TIME_US, stats.compress_us as f64);
    if let Some(norm) = residual_norm {
        rec.observe(keys::EF_RESIDUAL_NORM, norm);
    }
    rec.observe(
        keys::STEP_AGGREGATE_US,
        rec.now_us().saturating_sub(stats.step_start_us) as f64,
    );
}

/// The one result of a round that dispatched a single collective: the
/// prologue of every such codec's [`BucketCodec::decode`].
pub(crate) fn sole_result(results: Vec<CollectiveResult>) -> Result<CollectiveResult, CoreError> {
    results.into_iter().next().ok_or(CoreError::CodecProtocol(
        "expected one collective result per round",
    ))
}

/// Validates that the tensor list matches the shapes recorded on the first
/// step; records them on the first call.
pub(crate) fn check_shapes(
    recorded: &mut Vec<Vec<usize>>,
    grads: &[GradViewMut<'_>],
) -> Result<(), CoreError> {
    if recorded.is_empty() {
        *recorded = grads.iter().map(|g| g.dims.to_vec()).collect();
        return Ok(());
    }
    if recorded.len() != grads.len() {
        return Err(CoreError::TensorCountChanged {
            expected: recorded.len(),
            actual: grads.len(),
        });
    }
    for (i, (rec, g)) in recorded.iter().zip(grads).enumerate() {
        if rec != g.dims {
            return Err(CoreError::ShapeChanged {
                index: i,
                expected: rec.clone(),
                actual: g.dims.to_vec(),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ssgd::MeanCodec;
    use acp_collectives::{ReduceOp, ThreadGroup};
    use acp_telemetry::{noop, InMemoryRecorder};
    use std::sync::Arc;

    /// Two dependent mean all-reduce rounds (reduce, reduce again) over
    /// the S-SGD codec's buffers, to exercise `Round::Next`.
    #[derive(Default)]
    struct TwoRoundCodec {
        inner: MeanCodec,
        round2: Vec<bool>,
    }

    impl BucketCodec for TwoRoundCodec {
        const NAME: &'static str = "two-round";

        fn open(&mut self, bucket: &Bucket) {
            self.inner.open(bucket);
        }

        fn absorb(&mut self, bucket: &Bucket, slot: usize, grad: &[f32]) -> Result<(), CoreError> {
            self.inner.absorb(bucket, slot, grad)
        }

        fn encode(&mut self, bucket: &mut Bucket) -> Result<Vec<CollectiveOp>, CoreError> {
            if self.round2.len() <= bucket.index {
                self.round2.resize(bucket.index + 1, false);
            }
            self.round2[bucket.index] = false;
            self.inner.encode(bucket)
        }

        fn decode(
            &mut self,
            bucket: &mut Bucket,
            results: Vec<CollectiveResult>,
        ) -> Result<Round, CoreError> {
            if self.round2[bucket.index] {
                return self.inner.decode(bucket, results);
            }
            self.round2[bucket.index] = true;
            let buf = results
                .into_iter()
                .next()
                .expect("one op per round")
                .into_f32()
                .map_err(CoreError::from)?;
            Ok(Round::Next(vec![CollectiveOp::AllReduce {
                buf,
                op: ReduceOp::Mean,
            }]))
        }

        fn emit(&mut self, bucket: &Bucket, slot: usize, out: &mut [f32]) -> Result<(), CoreError> {
            self.inner.emit(bucket, slot, out)
        }

        fn clear(&mut self) {
            self.inner.clear();
            self.round2.clear();
        }
    }

    /// The S-SGD codec, recording which buckets it opens and abandons,
    /// with an optional injected `decode` error.
    #[derive(Default)]
    struct RecordingCodec {
        inner: MeanCodec,
        opened: Vec<usize>,
        abandoned: Vec<usize>,
        fail_decode: Option<usize>,
    }

    impl RecordingCodec {
        /// The buckets opened and abandoned since the last call.
        fn take(&mut self) -> (Vec<usize>, Vec<usize>) {
            (
                std::mem::take(&mut self.opened),
                std::mem::take(&mut self.abandoned),
            )
        }
    }

    impl BucketCodec for RecordingCodec {
        const NAME: &'static str = "recording";

        fn open(&mut self, bucket: &Bucket) {
            self.opened.push(bucket.index);
            self.inner.open(bucket);
        }

        fn absorb(&mut self, bucket: &Bucket, slot: usize, grad: &[f32]) -> Result<(), CoreError> {
            self.inner.absorb(bucket, slot, grad)
        }

        fn encode(&mut self, bucket: &mut Bucket) -> Result<Vec<CollectiveOp>, CoreError> {
            self.inner.encode(bucket)
        }

        fn decode(
            &mut self,
            bucket: &mut Bucket,
            results: Vec<CollectiveResult>,
        ) -> Result<Round, CoreError> {
            if self.fail_decode == Some(bucket.index) {
                return Err(CoreError::CodecProtocol("injected decode error"));
            }
            self.inner.decode(bucket, results)
        }

        fn emit(&mut self, bucket: &Bucket, slot: usize, out: &mut [f32]) -> Result<(), CoreError> {
            self.inner.emit(bucket, slot, out)
        }

        fn abandon(&mut self, bucket: &Bucket) {
            self.abandoned.push(bucket.index);
        }

        fn clear(&mut self) {
            self.inner.clear();
        }
    }

    fn views<'a>(dims: &'a [Vec<usize>], grads: &'a mut [Vec<f32>]) -> Vec<GradViewMut<'a>> {
        dims.iter()
            .zip(grads.iter_mut())
            .map(|(d, g)| GradViewMut { dims: d, grad: g })
            .collect()
    }

    #[test]
    fn blocking_step_averages_every_bucket() {
        let results = ThreadGroup::run(3, |mut comm| {
            // 8 bytes per tensor, 8-byte capacity: one bucket per tensor.
            let mut pipeline = FusedPipeline::new(8);
            let mut codec = MeanCodec::default();
            let r = comm.rank_id().as_usize() as f32;
            let dims = vec![vec![2usize], vec![2usize], vec![2usize]];
            let mut grads = vec![vec![r; 2], vec![10.0 * r; 2], vec![r + 1.0; 2]];
            let mut v = views(&dims, &mut grads);
            pipeline
                .finish(&mut codec, &mut v, &mut comm, &*noop())
                .unwrap();
            assert_eq!(pipeline.num_buckets(), 3);
            grads
        });
        for g in results {
            assert_eq!(g[0], vec![1.0; 2]); // mean of 0,1,2
            assert_eq!(g[1], vec![10.0; 2]);
            assert_eq!(g[2], vec![2.0; 2]);
        }
    }

    #[test]
    fn pushed_step_is_bit_identical_to_blocking() {
        // Same gradients through the WFBP path (reverse-order pushes) and
        // the blocking path must agree bitwise.
        let run = |overlapped: bool| {
            ThreadGroup::run(4, move |mut comm| {
                let mut pipeline = FusedPipeline::new(12); // 2 buckets of 3+2 bytes? see sizes
                let mut codec = MeanCodec::default();
                let r = comm.rank_id().as_usize() as f32;
                let dims = vec![vec![3usize], vec![2usize], vec![4usize]];
                let mut out = Vec::new();
                for step in 0..3 {
                    let s = step as f32;
                    let mut grads = vec![
                        vec![r * 0.25 + s; 3],
                        vec![r - s * 0.5; 2],
                        vec![(r + 1.0) * (s + 1.0); 4],
                    ];
                    if overlapped && step > 0 {
                        // Backward order: deepest tensor first.
                        for i in (0..3).rev() {
                            pipeline
                                .push(
                                    &mut codec,
                                    i,
                                    &dims[i],
                                    &grads[i].clone(),
                                    &mut comm,
                                    &*noop(),
                                )
                                .unwrap();
                        }
                    }
                    let mut v = views(&dims, &mut grads);
                    pipeline
                        .finish(&mut codec, &mut v, &mut comm, &*noop())
                        .unwrap();
                    out = grads.concat();
                }
                out
            })
        };
        let blocking = run(false);
        let overlapped = run(true);
        for (b, o) in blocking.iter().zip(&overlapped) {
            assert_eq!(b.len(), o.len());
            for (x, y) in b.iter().zip(o) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn multi_round_codec_runs_dependent_collectives() {
        let results = ThreadGroup::run(2, |mut comm| {
            let mut pipeline = FusedPipeline::new(0); // one bucket per tensor
            let mut codec = TwoRoundCodec::default();
            let r = comm.rank_id().as_usize() as f32;
            let dims = vec![vec![2usize], vec![1usize]];
            let mut grads = vec![vec![4.0 * r; 2], vec![8.0 * r]];
            let mut v = views(&dims, &mut grads);
            pipeline
                .finish(&mut codec, &mut v, &mut comm, &*noop())
                .unwrap();
            grads
        });
        for g in results {
            // Two mean rounds: mean(0,4)=2 then mean(2,2)=2.
            assert_eq!(g[0], vec![2.0; 2]);
            assert_eq!(g[1], vec![4.0]);
        }
    }

    #[test]
    fn shape_change_is_rejected_on_push_and_finish() {
        use acp_collectives::LocalCommunicator;
        let mut pipeline = FusedPipeline::new(DEFAULT_BUFFER_BYTES);
        let mut codec = MeanCodec::default();
        let mut comm = LocalCommunicator::new();
        let dims = vec![vec![2usize]];
        let mut grads = vec![vec![1.0f32; 2]];
        let mut v = views(&dims, &mut grads);
        pipeline
            .finish(&mut codec, &mut v, &mut comm, &*noop())
            .unwrap();
        // Wrong dims on push.
        let err = pipeline
            .push(&mut codec, 0, &[3], &[0.0; 3], &mut comm, &*noop())
            .unwrap_err();
        assert!(matches!(err, CoreError::ShapeChanged { index: 0, .. }));
        // Wrong index on push.
        let err = pipeline
            .push(&mut codec, 1, &[2], &[0.0; 2], &mut comm, &*noop())
            .unwrap_err();
        assert!(matches!(err, CoreError::TensorCountChanged { .. }));
        // Wrong tensor count on finish.
        let mut extra = vec![vec![1.0f32; 2], vec![2.0f32; 2]];
        let dims2 = vec![vec![2usize], vec![2usize]];
        let mut v = views(&dims2, &mut extra);
        assert!(matches!(
            pipeline.finish(&mut codec, &mut v, &mut comm, &*noop()),
            Err(CoreError::TensorCountChanged {
                expected: 1,
                actual: 2,
            })
        ));
        // The pipeline stays usable after the error.
        let mut grads = vec![vec![3.0f32; 2]];
        let mut v = views(&dims, &mut grads);
        pipeline
            .finish(&mut codec, &mut v, &mut comm, &*noop())
            .unwrap();
        assert_eq!(grads[0], vec![3.0; 2]);
    }

    #[test]
    fn records_bucket_spans_and_counters() {
        let rec = Arc::new(InMemoryRecorder::new());
        let rec2 = Arc::clone(&rec);
        ThreadGroup::run(2, move |mut comm| {
            let mut pipeline = FusedPipeline::new(8);
            let mut codec = MeanCodec::default();
            let dims = vec![vec![2usize], vec![2usize]];
            let mut grads = vec![vec![1.0f32; 2], vec![2.0f32; 2]];
            let mut v = views(&dims, &mut grads);
            let handle: acp_telemetry::RecorderHandle = rec2.clone();
            pipeline
                .finish(&mut codec, &mut v, &mut comm, &*handle)
                .unwrap();
        });
        // 2 ranks x 2 buckets.
        assert_eq!(rec.counter(keys::PIPELINE_BUCKETS), 4);
        assert_eq!(rec.values(keys::PIPELINE_EXPOSED_WAIT_US).len(), 4);
        let spans = rec.spans();
        let dispatch = spans
            .iter()
            .filter(|s| s.name == keys::SPAN_BUCKET_DISPATCH)
            .count();
        let wait = spans
            .iter()
            .filter(|s| s.name == keys::SPAN_BUCKET_WAIT)
            .count();
        assert_eq!(dispatch, 4);
        assert_eq!(wait, 4);
        assert!(spans.iter().filter(|s| s.cat == keys::CAT_PIPELINE).count() >= 8);
    }

    #[test]
    fn error_mid_overlap_drains_inflight_collectives_on_all_ranks() {
        // Regression (ISSUE 4): before `PendingOp` had a `Drop` impl, an
        // early-error return from the overlapped path abandoned the
        // in-flight collective, letting the erroring rank race ahead of
        // its own comm worker (and wedge peers blocked inside the ring).
        // Every rank errors out mid-overlap here; the test terminating
        // with all three errors observed *is* the assertion.
        let errs = ThreadGroup::run(3, |mut comm| {
            let mut pipeline = FusedPipeline::new(0); // one bucket per tensor
            let mut codec = MeanCodec::default();
            let r = comm.rank_id().as_usize() as f32;
            let dims = vec![vec![2usize], vec![2usize]];
            // Step 1: blocking, builds the plan.
            let mut grads = vec![vec![r; 2], vec![r; 2]];
            let mut v = views(&dims, &mut grads);
            pipeline
                .finish(&mut codec, &mut v, &mut comm, &*noop())
                .unwrap();
            // Step 2, WFBP order: the deepest tensor's bucket dispatches
            // its collective the moment it is pushed...
            pipeline
                .push(&mut codec, 1, &dims[1], &[r; 2], &mut comm, &*noop())
                .unwrap();
            // ...then a shape change errors out of the step with that
            // collective still in flight. Dropping the pipeline (and its
            // PendingOp) must drain it before this rank moves on.
            let err = pipeline
                .push(&mut codec, 0, &[3], &[0.0; 3], &mut comm, &*noop())
                .unwrap_err();
            matches!(err, CoreError::ShapeChanged { index: 0, .. })
        });
        assert_eq!(errs, vec![true, true, true]);
    }

    #[test]
    fn set_buffer_bytes_rebuilds_the_plan() {
        let results = ThreadGroup::run(2, |mut comm| {
            let mut pipeline = FusedPipeline::new(0); // one bucket per tensor
            let mut codec = MeanCodec::default();
            let r = comm.rank_id().as_usize() as f32;
            let dims = vec![vec![2usize], vec![2usize], vec![2usize]];
            let mut grads = vec![vec![r; 2], vec![r; 2], vec![r; 2]];
            let mut v = views(&dims, &mut grads);
            pipeline
                .finish(&mut codec, &mut v, &mut comm, &*noop())
                .unwrap();
            assert_eq!(pipeline.num_buckets(), 3);
            // Retune: everything fits one bucket now; results must still
            // be the mean, and the old plan must be fully discarded.
            pipeline.set_buffer_bytes(DEFAULT_BUFFER_BYTES);
            assert_eq!(pipeline.num_buckets(), 0);
            let mut grads = vec![vec![r; 2], vec![10.0 * r; 2], vec![r + 2.0; 2]];
            let mut v = views(&dims, &mut grads);
            pipeline
                .finish(&mut codec, &mut v, &mut comm, &*noop())
                .unwrap();
            assert_eq!(pipeline.num_buckets(), 1);
            // Setting the same capacity again keeps the plan.
            pipeline.set_buffer_bytes(DEFAULT_BUFFER_BYTES);
            assert_eq!(pipeline.num_buckets(), 1);
            grads
        });
        for g in results {
            assert_eq!(g[0], vec![0.5; 2]); // mean of 0,1
            assert_eq!(g[1], vec![5.0; 2]);
            assert_eq!(g[2], vec![2.5; 2]);
        }
    }

    #[test]
    fn replan_aborts_an_open_step_and_rebuilds() {
        use acp_collectives::LocalCommunicator;
        let mut pipeline = FusedPipeline::new(0); // one bucket per tensor
        let mut codec = MeanCodec::default();
        let dims = vec![vec![2usize], vec![2usize]];
        // Step 1 builds the plan.
        let mut grads = vec![vec![1.0f32; 2], vec![2.0f32; 2]];
        let mut v = views(&dims, &mut grads);
        let mut comm = LocalCommunicator::new();
        pipeline
            .finish(&mut codec, &mut v, &mut comm, &*noop())
            .unwrap();
        assert_eq!(pipeline.num_buckets(), 2);
        // Step 2 starts (a push opens the step and dispatches its bucket),
        // then membership changes mid-step: replan must abort the open
        // step and drop the plan...
        pipeline
            .push(&mut codec, 1, &dims[1], &[3.0; 2], &mut comm, &*noop())
            .unwrap();
        pipeline.replan();
        assert_eq!(pipeline.num_buckets(), 0);
        // ...while the next full step re-plans and aggregates cleanly, and
        // the recorded shapes still police shape changes.
        let mut grads = vec![vec![4.0f32; 2], vec![5.0f32; 2]];
        let mut v = views(&dims, &mut grads);
        pipeline
            .finish(&mut codec, &mut v, &mut comm, &*noop())
            .unwrap();
        assert_eq!(pipeline.num_buckets(), 2);
        assert_eq!(grads[0], vec![4.0; 2]);
        let err = pipeline
            .push(&mut codec, 0, &[3], &[0.0; 3], &mut comm, &*noop())
            .unwrap_err();
        assert!(matches!(err, CoreError::ShapeChanged { index: 0, .. }));
    }

    #[test]
    fn first_step_pushes_are_deferred_until_plan_exists() {
        use acp_collectives::LocalCommunicator;
        let mut pipeline = FusedPipeline::new(DEFAULT_BUFFER_BYTES);
        let mut codec = MeanCodec::default();
        let mut comm = LocalCommunicator::new();
        // Push before any plan: accepted, ignored.
        pipeline
            .push(&mut codec, 0, &[2], &[5.0, 6.0], &mut comm, &*noop())
            .unwrap();
        assert_eq!(pipeline.num_buckets(), 0);
        let dims = vec![vec![2usize]];
        let mut grads = vec![vec![5.0f32, 6.0]];
        let mut v = views(&dims, &mut grads);
        pipeline
            .finish(&mut codec, &mut v, &mut comm, &*noop())
            .unwrap();
        assert_eq!(pipeline.num_buckets(), 1);
        assert_eq!(grads[0], vec![5.0, 6.0]);
    }

    /// Six two-element tensors in a 16-byte buffer: buckets 0, 1 and 2
    /// of two tensors each.
    const LANE_DIMS: [[usize; 1]; 6] = [[2]; 6];

    /// Pushes `order` through `pipeline`, stopping at the first error.
    fn push_all(
        pipeline: &mut FusedPipeline,
        codec: &mut RecordingCodec,
        comm: &mut dyn Communicator,
        order: &[usize],
    ) -> Result<(), CoreError> {
        for &i in order {
            pipeline.push(codec, i, &LANE_DIMS[i], &[i as f32; 2], comm, &*noop())?;
        }
        Ok(())
    }

    /// Finishes the open step (or runs a blocking one) on fresh gradients.
    fn finish_all(
        pipeline: &mut FusedPipeline,
        codec: &mut RecordingCodec,
        comm: &mut dyn Communicator,
    ) -> Result<Vec<Vec<f32>>, CoreError> {
        let dims: Vec<Vec<usize>> = LANE_DIMS.iter().map(|d| d.to_vec()).collect();
        let mut grads: Vec<Vec<f32>> = (0..6).map(|i| vec![i as f32; 2]).collect();
        pipeline.finish(codec, &mut views(&dims, &mut grads), comm, &*noop())?;
        Ok(grads)
    }

    #[test]
    fn open_runs_once_per_bucket_per_step_on_every_path() {
        use acp_collectives::LocalCommunicator;
        let mut comm = LocalCommunicator::new();
        let mut pipeline = FusedPipeline::new(16);
        let mut codec = RecordingCodec::default();
        // Blocking (which builds the plan), reverse pushes, a subset of
        // pushes, and blocking again: the opens come in arrival order.
        let steps: [(&[usize], [usize; 3]); 4] = [
            (&[], [0, 1, 2]),
            (&[5, 4, 3, 2, 1, 0], [2, 1, 0]),
            (&[5, 1, 2], [2, 0, 1]),
            (&[], [0, 1, 2]),
        ];
        for (order, opened) in steps {
            push_all(&mut pipeline, &mut codec, &mut comm, order).unwrap();
            let grads = finish_all(&mut pipeline, &mut codec, &mut comm).unwrap();
            assert_eq!(grads[5], vec![5.0; 2], "{order:?}");
            assert_eq!(codec.take(), (opened.to_vec(), vec![]), "{order:?}");
        }
    }

    #[test]
    fn abandon_runs_for_the_opened_buckets_of_a_discarded_step() {
        use acp_collectives::LocalCommunicator;
        let mut comm = LocalCommunicator::new();
        let mut pipeline = FusedPipeline::new(16);
        let mut codec = RecordingCodec::default();
        finish_all(&mut pipeline, &mut codec, &mut comm).unwrap();
        codec.take();
        // Buckets 2 and 0 open, none dispatched; bucket 1 never opens.
        let err = push_all(&mut pipeline, &mut codec, &mut comm, &[5, 0, 5]);
        assert_eq!(err, Err(CoreError::TensorPushedTwice { index: 5 }));
        assert_eq!(codec.take(), (vec![2, 0], vec![0, 2]));
        // Bucket 2 dispatched, bucket 0 open: both are abandoned.
        let err = push_all(&mut pipeline, &mut codec, &mut comm, &[5, 4, 1, 4]);
        assert_eq!(err, Err(CoreError::TensorPushedTwice { index: 4 }));
        assert_eq!(codec.take(), (vec![2, 0], vec![0, 2]));
        // The next step opens every bucket and abandons none.
        let grads = finish_all(&mut pipeline, &mut codec, &mut comm).unwrap();
        assert_eq!(grads[4], vec![4.0; 2]);
        assert_eq!(codec.take(), (vec![0, 1, 2], vec![]));
    }

    #[test]
    fn a_bucket_that_emitted_before_a_later_error_is_not_abandoned() {
        use acp_collectives::LocalCommunicator;
        let mut comm = LocalCommunicator::new();
        let mut pipeline = FusedPipeline::new(16);
        let mut codec = RecordingCodec::default();
        finish_all(&mut pipeline, &mut codec, &mut comm).unwrap();
        codec.take();
        // Bucket 0 emits both tensors; bucket 1's decode fails, bucket 2
        // is in flight behind it.
        codec.fail_decode = Some(1);
        let err = finish_all(&mut pipeline, &mut codec, &mut comm);
        assert!(matches!(err, Err(CoreError::CodecProtocol(_))));
        assert_eq!(codec.take(), (vec![0, 1, 2], vec![1, 2]));
        codec.fail_decode = None;
        let grads = finish_all(&mut pipeline, &mut codec, &mut comm).unwrap();
        assert_eq!(grads[3], vec![3.0; 2]);
        assert_eq!(codec.take(), (vec![0, 1, 2], vec![]));
    }

    fn aggregate_bits(
        opt: &mut dyn DistributedOptimizer,
        comm: &mut dyn Communicator,
        dims: &[Vec<usize>],
        mut grads: Vec<Vec<f32>>,
    ) -> Vec<u32> {
        opt.aggregate(&mut views(dims, &mut grads), comm).unwrap();
        grads.concat().iter().map(|v| v.to_bits()).collect()
    }

    /// Three steps of a two-step warm start: the warm steps are S-SGD's
    /// mean bit for bit, the first compressed step is a cold twin's first
    /// step bit for bit (the warm start touched no compression state), and
    /// once the warm start is over the adapter holds no dense buffer.
    fn check_warm_start<C: BucketCodec>(
        comm: &mut dyn Communicator,
        mut warm: Pipelined<WarmStart<C>>,
        mut cold: Pipelined<WarmStart<C>>,
    ) {
        let mut dense = crate::SSgdAggregator::new();
        let r = comm.rank_id().as_usize() as f32;
        let dims = vec![vec![4usize, 3], vec![5usize]];
        for step in 0..3 {
            let grads: Vec<Vec<f32>> = dims
                .iter()
                .enumerate()
                .map(|(t, d)| {
                    let n: usize = d.iter().product();
                    (0..n)
                        .map(|i| ((i + 7 * t + 3 * step) as f32 * 0.41 + r).sin())
                        .collect()
                })
                .collect();
            let reference: &mut dyn DistributedOptimizer =
                if step < 2 { &mut dense } else { &mut cold };
            let want = aggregate_bits(reference, comm, &dims, grads.clone());
            let got = aggregate_bits(&mut warm, comm, &dims, grads);
            assert_eq!(got, want, "{} step {step}", C::NAME);
            assert_eq!(
                warm.codec.dense.holds_buffers(),
                step == 0,
                "{} after step {step}",
                C::NAME
            );
        }
    }

    #[test]
    fn warm_start_is_exact_then_cold_and_drops_its_dense_buffers() {
        use crate::{AcpSgdAggregator, AcpSgdConfig, PowerSgdAggregator, PowerSgdConfig};
        ThreadGroup::run(2, |mut comm| {
            let acp = AcpSgdConfig::default().with_rank(2);
            check_warm_start(
                &mut comm,
                AcpSgdAggregator::new(acp.with_warm_start_steps(2)),
                AcpSgdAggregator::new(acp),
            );
            let power = PowerSgdConfig::default().with_rank(2);
            check_warm_start(
                &mut comm,
                PowerSgdAggregator::new(power.with_warm_start_steps(2)),
                PowerSgdAggregator::new(power),
            );
        });
    }
}
