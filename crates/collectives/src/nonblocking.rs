//! Non-blocking collectives: operation descriptors, pending-operation
//! handles, and the per-rank comm worker thread.
//!
//! Every backend — in-process threads, TCP, the `acp-serve` client — is a
//! [`WorkerTransport`] inside the one [`WorkerCommunicator`] shell. A
//! backend supplies [`WorkerTransport::execute`], which runs one
//! collective over a [`BorrowedOp`] (the ring transports share
//! [`execute_ring`]); the shell adds what is common to all of them around
//! it: the `prepare` hook, per-collective latency, size and span
//! telemetry, the lazy comm worker, FIFO routing, byte and schedule
//! bookkeeping, and the group's [`GroupView`], which a reform replaces
//! with the one the transport returns.
//!
//! The blocking [`Communicator`] methods and the non-blocking
//! `dispatch`/`wait` path run the *same* `execute`, so the two paths are
//! bit-exact with each other by construction, on every backend. Blocking
//! calls run inline on the caller's slices until the first dispatch,
//! which moves the transport into [`CommWorker::spawn`] — except in a
//! group of one, whose dispatches run inline as well; from then on a
//! blocking call is `dispatch` + [`PendingOp::wait`] of an owned copy of
//! its op, the one copy the path makes. The worker owns the transport,
//! drains submitted operations strictly in FIFO order (so the SPMD
//! contract — every rank issues the same collectives in the same order — is
//! preserved no matter how many operations are in flight), and replies
//! through the per-operation channel a [`PendingOp`] wraps.
//!
//! Error propagation is structured end to end: a collective's error is
//! sent through the reply channel and surfaces at [`PendingOp::wait`]; a
//! worker that dies drops the reply sender, which `wait` maps to
//! [`CommError::WorkerPanicked`]. Transport deadlines bound every receive,
//! so `wait` never hangs on a dead peer.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use acp_telemetry::{keys, RecorderHandle, Span};
use crossbeam::channel::{unbounded, Receiver, Sender};

use crate::communicator::{CommError, Communicator, ReduceOp};
use crate::ring::{self, Transport};
use crate::schedule::{
    membership_param, OpKind, ScheduleCell, ScheduleSnapshot, ScheduleTracer, VerifyMode,
};
use crate::topology::{GroupView, Membership, Topology};

/// One collective operation, with its input payload moved in.
///
/// Inputs are owned (`Vec`, not slices) so an operation can be shipped to
/// the comm worker thread while the caller keeps computing.
#[derive(Debug, Clone, PartialEq)]
pub enum CollectiveOp {
    /// Element-wise reduction of `buf` across ranks; resolves to
    /// [`CollectiveResult::F32`] with the reduced buffer.
    AllReduce {
        /// This rank's contribution; consumed by the operation.
        buf: Vec<f32>,
        /// Reduction operator.
        op: ReduceOp,
    },
    /// Latency-optimal recursive-doubling all-reduce (butterfly); resolves
    /// to [`CollectiveResult::F32`]. Requires a transport whose topology
    /// supports arbitrary pairwise exchange.
    AllReduceRd {
        /// This rank's contribution; consumed by the operation.
        buf: Vec<f32>,
        /// Reduction operator.
        op: ReduceOp,
    },
    /// Rank-order concatenation of every rank's `send`; resolves to
    /// [`CollectiveResult::F32`] of `world_size * send.len()` elements.
    AllGatherF32 {
        /// This rank's contribution.
        send: Vec<f32>,
    },
    /// [`CollectiveOp::AllGatherF32`] for `u32` payloads; resolves to
    /// [`CollectiveResult::U32`].
    AllGatherU32 {
        /// This rank's contribution.
        send: Vec<u32>,
    },
    /// Copies `buf` on `root` to every rank; resolves to
    /// [`CollectiveResult::F32`] with the root's buffer.
    Broadcast {
        /// Payload on the root; sized-but-arbitrary elsewhere.
        buf: Vec<f32>,
        /// Originating rank.
        root: usize,
    },
    /// Sparse all-reduce with top-k truncation; resolves to
    /// [`CollectiveResult::Sparse`].
    GlobalTopk {
        /// This rank's sparse coordinate indices.
        indices: Vec<u32>,
        /// This rank's values, parallel to `indices`.
        values: Vec<f32>,
        /// Number of coordinates to keep globally.
        k: usize,
    },
    /// Pairwise exchange with `peer` (both sides must submit it); resolves
    /// to [`CollectiveResult::F32`] with the peer's buffer.
    SendRecvF32 {
        /// The partner rank.
        peer: usize,
        /// This rank's outgoing buffer.
        send: Vec<f32>,
    },
    /// Synchronization point; resolves to [`CollectiveResult::Unit`].
    Barrier,
}

impl CollectiveOp {
    /// Borrows this op's payload for one [`WorkerTransport::execute`].
    fn as_borrowed(&mut self) -> BorrowedOp<'_> {
        match self {
            CollectiveOp::AllReduce { buf, op } => BorrowedOp::AllReduce { buf, op: *op },
            CollectiveOp::AllReduceRd { buf, op } => BorrowedOp::AllReduceRd { buf, op: *op },
            CollectiveOp::AllGatherF32 { send } => BorrowedOp::AllGatherF32 { send },
            CollectiveOp::AllGatherU32 { send } => BorrowedOp::AllGatherU32 { send },
            CollectiveOp::Broadcast { buf, root } => BorrowedOp::Broadcast { buf, root: *root },
            CollectiveOp::GlobalTopk { indices, values, k } => BorrowedOp::GlobalTopk {
                indices,
                values,
                k: *k,
            },
            CollectiveOp::SendRecvF32 { peer, send } => {
                BorrowedOp::SendRecvF32 { peer: *peer, send }
            }
            CollectiveOp::Barrier => BorrowedOp::Barrier,
        }
    }

    /// What this op resolves to once `out` came back from executing it:
    /// an in-place op hands back its own buffer, which now holds the
    /// result.
    fn resolve(self, out: CollectiveResult) -> CollectiveResult {
        match self {
            CollectiveOp::AllReduce { buf, .. }
            | CollectiveOp::AllReduceRd { buf, .. }
            | CollectiveOp::Broadcast { buf, .. } => CollectiveResult::F32(buf),
            _ => out,
        }
    }
}

/// One collective over the caller's storage: what
/// [`WorkerTransport::execute`] runs. The variants mirror
/// [`CollectiveOp`]'s; the in-place ones (all-reduce, broadcast) leave
/// their result in `buf`.
#[derive(Debug)]
pub enum BorrowedOp<'a> {
    /// As [`CollectiveOp::AllReduce`].
    AllReduce {
        /// This rank's contribution, overwritten by the reduction.
        buf: &'a mut [f32],
        /// Reduction operator.
        op: ReduceOp,
    },
    /// As [`CollectiveOp::AllReduceRd`].
    AllReduceRd {
        /// This rank's contribution, overwritten by the reduction.
        buf: &'a mut [f32],
        /// Reduction operator.
        op: ReduceOp,
    },
    /// As [`CollectiveOp::AllGatherF32`].
    AllGatherF32 {
        /// This rank's contribution.
        send: &'a [f32],
    },
    /// As [`CollectiveOp::AllGatherU32`].
    AllGatherU32 {
        /// This rank's contribution.
        send: &'a [u32],
    },
    /// As [`CollectiveOp::Broadcast`].
    Broadcast {
        /// Payload on the root, overwritten by it elsewhere.
        buf: &'a mut [f32],
        /// Originating rank.
        root: usize,
    },
    /// As [`CollectiveOp::GlobalTopk`].
    GlobalTopk {
        /// This rank's sparse coordinate indices.
        indices: &'a [u32],
        /// This rank's values, parallel to `indices`.
        values: &'a [f32],
        /// Number of coordinates to keep globally.
        k: usize,
    },
    /// As [`CollectiveOp::SendRecvF32`].
    SendRecvF32 {
        /// The partner rank.
        peer: usize,
        /// This rank's outgoing buffer.
        send: &'a [f32],
    },
    /// Synchronization point.
    Barrier,
}

/// The series one collective records: span name, latency key, size key
/// and the payload bytes this rank contributes.
type Series = (&'static str, &'static str, &'static str, u64);

/// Copies a payload the comm worker will own; see [`BorrowedOp::owned`].
fn own<T: Copy>(payload: &[T]) -> Vec<T> {
    // allow_verify(reason = "a running comm worker owns its op buffers across threads; before it spawns, blocking calls borrow")
    payload.to_vec()
}

impl BorrowedOp<'_> {
    /// The `(kind, words, param)` fingerprint the schedule tracer records
    /// for this operation (see [`crate::schedule`]).
    ///
    /// `words` is the element count every rank must agree on; it is 0 for
    /// [`BorrowedOp::GlobalTopk`], whose sparse payload sizes are
    /// legitimately rank-dependent (the shared contract there is `k`, the
    /// `param`). `param` encodes the shape-relevant argument: the
    /// [`ReduceOp`] for reductions, the root for broadcast, `k` for
    /// top-k. [`BorrowedOp::SendRecvF32`]'s `peer` is *excluded* — the
    /// two sides of a pairwise exchange name each other, so their peers
    /// legitimately differ.
    pub fn fingerprint(&self) -> (OpKind, u64, u64) {
        match self {
            BorrowedOp::AllReduce { buf, op } => (OpKind::AllReduce, buf.len() as u64, op.code()),
            BorrowedOp::AllReduceRd { buf, op } => {
                (OpKind::AllReduceRd, buf.len() as u64, op.code())
            }
            BorrowedOp::AllGatherF32 { send } => (OpKind::AllGatherF32, send.len() as u64, 0),
            BorrowedOp::AllGatherU32 { send } => (OpKind::AllGatherU32, send.len() as u64, 0),
            BorrowedOp::Broadcast { buf, root } => {
                (OpKind::Broadcast, buf.len() as u64, *root as u64)
            }
            BorrowedOp::GlobalTopk { k, .. } => (OpKind::GlobalTopk, 0, *k as u64),
            BorrowedOp::SendRecvF32 { send, .. } => (OpKind::SendRecv, send.len() as u64, 0),
            BorrowedOp::Barrier => (OpKind::Barrier, 0, 0),
        }
    }

    /// What [`record_collective`] records for this op, or `None` for the
    /// untimed barrier and pairwise exchange — they move no accountable
    /// payload.
    fn series(&self) -> Option<Series> {
        let (reduce, gather) = (
            (keys::COMM_ALL_REDUCE_US, keys::COMM_ALL_REDUCE_BYTES),
            (keys::COMM_ALL_GATHER_US, keys::COMM_ALL_GATHER_BYTES),
        );
        let (name, (key, bytes_key), bytes) = match self {
            BorrowedOp::AllReduce { buf, .. } => ("all_reduce", reduce, 4 * buf.len()),
            BorrowedOp::AllReduceRd { buf, .. } => ("all_reduce_rd", reduce, 4 * buf.len()),
            BorrowedOp::AllGatherF32 { send } => ("all_gather_f32", gather, 4 * send.len()),
            BorrowedOp::AllGatherU32 { send } => ("all_gather_u32", gather, 4 * send.len()),
            BorrowedOp::Broadcast { buf, .. } => (
                "broadcast",
                (keys::COMM_BROADCAST_US, keys::COMM_BROADCAST_BYTES),
                4 * buf.len(),
            ),
            // (index, value) pairs this rank contributes.
            BorrowedOp::GlobalTopk { indices, .. } => (
                "global_topk",
                (keys::COMM_GLOBAL_TOPK_US, keys::COMM_GLOBAL_TOPK_BYTES),
                8 * indices.len(),
            ),
            BorrowedOp::SendRecvF32 { .. } | BorrowedOp::Barrier => return None,
        };
        Some((name, key, bytes_key, bytes as u64))
    }

    /// The owned op a running comm worker takes across threads: the one
    /// place a blocking call's payload is copied, and only once the
    /// worker has spawned.
    fn owned(&self) -> CollectiveOp {
        match self {
            BorrowedOp::AllReduce { buf, op } => CollectiveOp::AllReduce {
                buf: own(buf),
                op: *op,
            },
            BorrowedOp::AllReduceRd { buf, op } => CollectiveOp::AllReduceRd {
                buf: own(buf),
                op: *op,
            },
            BorrowedOp::AllGatherF32 { send } => CollectiveOp::AllGatherF32 { send: own(send) },
            BorrowedOp::AllGatherU32 { send } => CollectiveOp::AllGatherU32 { send: own(send) },
            BorrowedOp::Broadcast { buf, root } => CollectiveOp::Broadcast {
                buf: own(buf),
                root: *root,
            },
            BorrowedOp::GlobalTopk { indices, values, k } => CollectiveOp::GlobalTopk {
                indices: own(indices),
                values: own(values),
                k: *k,
            },
            BorrowedOp::SendRecvF32 { peer, send } => CollectiveOp::SendRecvF32 {
                peer: *peer,
                send: own(send),
            },
            BorrowedOp::Barrier => CollectiveOp::Barrier,
        }
    }

    /// Lands the result of this op's [`BorrowedOp::owned`] copy: an
    /// in-place op copies the returned buffer back into the caller's.
    fn land(self, out: CollectiveResult) -> Result<CollectiveResult, CommError> {
        match self {
            BorrowedOp::AllReduce { buf, .. }
            | BorrowedOp::AllReduceRd { buf, .. }
            | BorrowedOp::Broadcast { buf, .. } => {
                buf.copy_from_slice(&out.into_f32()?);
                Ok(CollectiveResult::Unit)
            }
            _ => Ok(out),
        }
    }
}

/// The typed result a completed [`CollectiveOp`] resolves to.
#[derive(Debug, Clone, PartialEq)]
pub enum CollectiveResult {
    /// Dense `f32` payload (all-reduce, all-gather, broadcast, exchange).
    F32(Vec<f32>),
    /// Dense `u32` payload (all-gather of indices or bit-packed signs).
    U32(Vec<u32>),
    /// Sparse (indices, values) pair from the gTop-k collective.
    Sparse(Vec<u32>, Vec<f32>),
    /// No payload (barrier).
    Unit,
}

impl CollectiveResult {
    /// Unwraps an `F32` result.
    ///
    /// # Errors
    ///
    /// Returns [`CommError::ProtocolMismatch`] if the result holds a
    /// different payload type.
    pub fn into_f32(self) -> Result<Vec<f32>, CommError> {
        match self {
            CollectiveResult::F32(v) => Ok(v),
            _ => Err(CommError::ProtocolMismatch),
        }
    }

    /// Unwraps a `U32` result.
    ///
    /// # Errors
    ///
    /// Returns [`CommError::ProtocolMismatch`] if the result holds a
    /// different payload type.
    pub fn into_u32(self) -> Result<Vec<u32>, CommError> {
        match self {
            CollectiveResult::U32(v) => Ok(v),
            _ => Err(CommError::ProtocolMismatch),
        }
    }

    /// Unwraps a `Sparse` result.
    ///
    /// # Errors
    ///
    /// Returns [`CommError::ProtocolMismatch`] if the result holds a
    /// different payload type.
    pub fn into_sparse(self) -> Result<(Vec<u32>, Vec<f32>), CommError> {
        match self {
            CollectiveResult::Sparse(i, v) => Ok((i, v)),
            _ => Err(CommError::ProtocolMismatch),
        }
    }
}

enum PendingState {
    /// Resolved at dispatch time (synchronous default path).
    Ready(Result<CollectiveResult, CommError>),
    /// In flight on a comm worker; resolved by the reply channel.
    InFlight(Receiver<Result<CollectiveResult, CommError>>),
    /// Consumed by [`PendingOp::wait`] or drained by `Drop`.
    Taken,
}

/// Handle to a dispatched collective; redeem it with [`PendingOp::wait`].
///
/// Dropping a handle without waiting abandons the *result*, not the
/// operation: the comm worker still executes it (the SPMD order across
/// ranks is unaffected), and its reply is discarded. The drop *blocks*
/// until the operation completes on the worker — an error path that bails
/// out of an overlapped step therefore stays synchronous with its own comm
/// worker instead of racing ahead (tearing down the communicator, or
/// submitting the next step's collectives) while peers are still inside
/// the abandoned collective.
#[must_use = "a dispatched collective completes at `wait`; dropping the handle discards its result"]
pub struct PendingOp {
    state: PendingState,
}

impl std::fmt::Debug for PendingOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = match &self.state {
            PendingState::Ready(_) => "ready",
            PendingState::InFlight(_) => "in-flight",
            PendingState::Taken => "taken",
        };
        f.debug_struct("PendingOp").field("state", &state).finish()
    }
}

impl PendingOp {
    /// Wraps an already-computed result — the synchronous default path of
    /// [`Communicator::dispatch`], used by backends without a comm worker.
    pub fn ready(result: Result<CollectiveResult, CommError>) -> Self {
        PendingOp {
            state: PendingState::Ready(result),
        }
    }

    pub(crate) fn in_flight(rx: Receiver<Result<CollectiveResult, CommError>>) -> Self {
        PendingOp {
            state: PendingState::InFlight(rx),
        }
    }

    /// Blocks until the operation completes and returns its result.
    ///
    /// Never hangs: transport deadlines bound every receive inside the
    /// collective, so a dead or straggling peer surfaces as a structured
    /// error ([`CommError::Timeout`], [`CommError::PeerDisconnected`],
    /// [`CommError::WorkerPanicked`]) within the transport's timeout.
    ///
    /// # Errors
    ///
    /// Propagates the collective's error; a comm worker that died before
    /// replying surfaces as [`CommError::WorkerPanicked`].
    pub fn wait(mut self) -> Result<CollectiveResult, CommError> {
        match std::mem::replace(&mut self.state, PendingState::Taken) {
            PendingState::Ready(result) => result,
            // A dropped reply sender means the worker thread is gone.
            PendingState::InFlight(rx) => rx.recv().unwrap_or(Err(CommError::WorkerPanicked)),
            // allow_verify(reason = "wait takes self by value and replaces the state with Taken exactly once; only Drop sees Taken afterwards, so this arm cannot execute")
            PendingState::Taken => unreachable!("wait consumes the handle"),
        }
    }
}

impl Drop for PendingOp {
    fn drop(&mut self) {
        if let PendingState::InFlight(rx) = std::mem::replace(&mut self.state, PendingState::Taken)
        {
            // Drain the reply so the drop is synchronous with the worker
            // (see the type docs). The worker's own receives are bounded by
            // transport deadlines, so this wait terminates even with dead
            // peers; the generous cap only guards against a wedged worker
            // thread, where abandoning the reply is the lesser evil.
            let _ = rx.recv_timeout(std::time::Duration::from_secs(60));
        }
    }
}

/// Waits for every handle in submission order and collects the results.
///
/// # Errors
///
/// Returns the first error encountered; remaining handles are dropped,
/// which blocks until their operations complete on the worker (results
/// discarded) — the error return leaves no collectives still in flight.
pub fn wait_all(
    ops: impl IntoIterator<Item = PendingOp>,
) -> Result<Vec<CollectiveResult>, CommError> {
    ops.into_iter().map(PendingOp::wait).collect()
}

/// One rank's collective executor, movable into a [`CommWorker`]: the
/// part of a backend that differs between backends.
///
/// [`WorkerTransport::execute`] runs one collective; the other hooks are
/// what the [`WorkerCommunicator`] shell needs around it — telemetry
/// wiring, a pre-collective fault hook, the group's [`GroupView`], reform
/// and departure. The ring transports (threads, TCP) execute through
/// [`execute_ring`], which pairs arbitrary ranks for the butterfly
/// collectives, two-level topologies and reform; `acp-serve`'s client
/// submits each collective to its aggregation server.
pub trait WorkerTransport: Send {
    /// Runs one collective over the caller's storage. In-place operations
    /// (all-reduce, broadcast) leave their result in `buf` and resolve to
    /// [`CollectiveResult::Unit`]; the others resolve as their
    /// [`CollectiveOp`] counterparts do. The executor fingerprints into
    /// its schedule what it actually runs ([`BorrowedOp::fingerprint`]).
    ///
    /// # Errors
    ///
    /// The backend's structured [`CommError`].
    fn execute(&mut self, op: BorrowedOp<'_>) -> Result<CollectiveResult, CommError>;

    /// This endpoint's group state: physical and virtual rank, membership,
    /// and the arrangement collectives are scheduled over — all-reduce
    /// runs the two-level ring-of-rings of [`crate::hierarchy`] when its
    /// topology is [`Topology::TwoLevel`].
    fn view(&self) -> &GroupView;

    /// The telemetry recorder collective latencies and spans go to.
    fn recorder(&self) -> &RecorderHandle;

    /// Replaces the telemetry recorder (delivered to a running worker via
    /// [`CommWorker::set_recorder`]).
    fn set_recorder(&mut self, recorder: RecorderHandle);

    /// Called at the top of every collective (fault-injection hook; the
    /// TCP backend applies its straggler delay here).
    fn prepare(&mut self) {}

    /// Rebuilds the group from the surviving ranks after a peer departure
    /// and returns the new view: moves to [`GroupView::reformed`] (or, for
    /// a service client, [`GroupView::adopt`]s the announced survivors),
    /// folds the new membership into the schedule digest and cross-checks
    /// digest agreement among survivors. Collective — every survivor must
    /// call it at the same schedule position.
    ///
    /// # Errors
    ///
    /// The default implementation reports that the backend is not elastic.
    fn reform(&mut self) -> Result<GroupView, CommError> {
        Err(CommError::Io(
            "this transport does not support membership reform".to_string(),
        ))
    }

    /// The transport's collective-schedule tracer, if it records one (see
    /// [`crate::schedule`]). [`execute_ring`] advances it once per
    /// collective; transports with a tracer should also tag/verify wire
    /// messages when its mode is
    /// [`VerifyMode::CrossCheck`].
    fn tracer(&mut self) -> Option<&mut ScheduleTracer> {
        None
    }

    /// How the owning [`WorkerCommunicator`] announces this rank's death
    /// once a comm worker owns the transport. An owner that panics unwinds
    /// its own thread, not the worker's, so the transport is dropped
    /// later and without `std::thread::panicking()`; the shell fires this
    /// notice from its own drop instead. The default `None` suits
    /// transports whose closed links are notice enough.
    fn departure_notice(&self) -> Option<DepartureNotice> {
        None
    }
}

/// Marks this rank departed at the given membership epoch; see
/// [`WorkerTransport::departure_notice`].
pub type DepartureNotice = Box<dyn FnOnce(u64) + Send>;

/// The handshake that ends every elastic [`WorkerTransport::reform`] once
/// the transport has adopted its post-reform view: records the
/// reform as a schedule op (replayable by `acp-verify check-trace`), then
/// all-gathers the digest halves, so survivors that disagree on who
/// survived fail here rather than on some later collective. In cross-check
/// mode the handshake messages carry the reform op's tag, so a divergent
/// reform also surfaces as a [`CommError::ScheduleMismatch`] naming it.
///
/// # Errors
///
/// Propagates the gather's error; a survivor with another digest is
/// [`CommError::Io`] naming its virtual rank.
pub fn confirm_reform<T: Transport + WorkerTransport + ?Sized>(
    t: &mut T,
) -> Result<GroupView, CommError> {
    let view = t.view().clone();
    let Some(tracer) = t.tracer() else {
        return Ok(view);
    };
    tracer.begin_op(
        OpKind::Reform,
        view.world_size() as u64,
        membership_param(view.epoch(), view.members()),
    );
    let digest = tracer.digest();
    let halves = [(digest >> 32) as u32, digest as u32];
    let gathered = ring::all_gather_u32(t, &halves)?;
    match gathered.chunks(2).position(|pair| pair != halves) {
        Some(virt) => Err(CommError::Io(format!(
            "post-reform schedule digest mismatch at epoch {}: virtual rank {virt} \
             disagrees on the surviving membership",
            view.epoch()
        ))),
        None => Ok(view),
    }
}

/// Emits the per-collective telemetry every backend records: one
/// [`keys::COMM_CALLS`] tick, a latency observation under `key`, a payload
/// size under `bytes_key` (index-parallel with the latency series — the
/// pairing the α–β calibration fit relies on), and a span named `name` on
/// `track`'s timeline.
fn record_collective(
    rec: &RecorderHandle,
    track: usize,
    (name, key, bytes_key, bytes): Series,
    start_us: u64,
) {
    if !rec.enabled() {
        return;
    }
    let end_us = rec.now_us();
    rec.add(keys::COMM_CALLS, 1);
    rec.observe(key, end_us.saturating_sub(start_us) as f64);
    rec.observe(bytes_key, bytes as f64);
    rec.span(Span {
        name,
        cat: keys::CAT_COMM,
        track: track as u64,
        start_us,
        end_us,
    });
}

/// Runs one collective with the work every backend shares around
/// [`WorkerTransport::execute`]: the `prepare` hook, then the latency and
/// size series and the span [`record_collective`] puts on `track`'s
/// timeline.
///
/// This is *the* execution path of [`WorkerCommunicator`]: its blocking
/// calls take it inline on the caller's storage until the comm worker
/// spawns, and the worker takes it for every op after that.
fn run_collective<T: WorkerTransport + ?Sized>(
    t: &mut T,
    track: usize,
    op: BorrowedOp<'_>,
) -> Result<CollectiveResult, CommError> {
    t.prepare();
    let rec = t.recorder().clone();
    let start_us = rec.now_us();
    let series = op.series();
    let result = t.execute(op);
    if let Some(series) = series {
        record_collective(&rec, track, series, start_us);
    }
    result
}

/// The ring transports' [`WorkerTransport::execute`]: folds the op into
/// the transport's schedule, then runs its generic [`ring`] algorithm —
/// all-reduce as the two-level ring-of-rings of [`crate::hierarchy`] when
/// the transport's [`GroupView::topology`] is two-level.
///
/// # Errors
///
/// Propagates the ring algorithm's structured [`CommError`].
pub fn execute_ring<T: Transport + WorkerTransport + ?Sized>(
    t: &mut T,
    op: BorrowedOp<'_>,
) -> Result<CollectiveResult, CommError> {
    let (kind, words, param) = op.fingerprint();
    if let Some(tracer) = t.tracer() {
        tracer.begin_op(kind, words, param);
    }
    let unit = |()| CollectiveResult::Unit;
    match op {
        BorrowedOp::AllReduce { buf, op } => {
            let topo = t.view().topology();
            if topo.is_flat() {
                ring::all_reduce(t, buf, op).map(unit)
            } else {
                crate::hierarchy::all_reduce_two_level(t, topo, buf, op).map(unit)
            }
        }
        BorrowedOp::AllReduceRd { buf, op } => {
            ring::all_reduce_recursive_doubling(t, buf, op).map(unit)
        }
        BorrowedOp::AllGatherF32 { send } => {
            ring::all_gather_f32(t, send).map(CollectiveResult::F32)
        }
        BorrowedOp::AllGatherU32 { send } => {
            ring::all_gather_u32(t, send).map(CollectiveResult::U32)
        }
        BorrowedOp::Broadcast { buf, root } => ring::broadcast(t, buf, root).map(unit),
        BorrowedOp::GlobalTopk { indices, values, k } => {
            ring::global_topk_butterfly(t, indices, values, k)
                .map(|(i, v)| CollectiveResult::Sparse(i, v))
        }
        BorrowedOp::SendRecvF32 { peer, send } => {
            ring::send_recv_f32(t, peer, send).map(CollectiveResult::F32)
        }
        BorrowedOp::Barrier => ring::barrier(t).map(unit),
    }
}

/// Runs one collective through a communicator's *blocking* trait methods —
/// the synchronous fallback behind [`Communicator::dispatch`]'s default
/// implementation, for backends without a comm worker.
///
/// # Errors
///
/// Propagates the blocking collective's error. [`CollectiveOp::AllReduceRd`]
/// and [`CollectiveOp::SendRecvF32`] need transport-level pairwise exchange
/// and surface [`CommError::ProtocolMismatch`] here.
pub fn execute_via_blocking<C: Communicator + ?Sized>(
    comm: &mut C,
    op: CollectiveOp,
) -> Result<CollectiveResult, CommError> {
    match op {
        CollectiveOp::AllReduce { mut buf, op } => {
            comm.all_reduce(&mut buf, op)?;
            Ok(CollectiveResult::F32(buf))
        }
        CollectiveOp::AllGatherF32 { send } => {
            comm.all_gather_f32(&send).map(CollectiveResult::F32)
        }
        CollectiveOp::AllGatherU32 { send } => {
            comm.all_gather_u32(&send).map(CollectiveResult::U32)
        }
        CollectiveOp::Broadcast { mut buf, root } => {
            comm.broadcast(&mut buf, root)?;
            Ok(CollectiveResult::F32(buf))
        }
        CollectiveOp::GlobalTopk { indices, values, k } => comm
            .global_topk(&indices, &values, k)
            .map(|(i, v)| CollectiveResult::Sparse(i, v)),
        CollectiveOp::Barrier => {
            comm.barrier()?;
            Ok(CollectiveResult::Unit)
        }
        CollectiveOp::AllReduceRd { .. } | CollectiveOp::SendRecvF32 { .. } => {
            Err(CommError::ProtocolMismatch)
        }
    }
}

enum WorkerMsg {
    Op {
        op: CollectiveOp,
        reply: Sender<Result<CollectiveResult, CommError>>,
    },
    SetRecorder(RecorderHandle),
    Reform {
        reply: Sender<Result<GroupView, CommError>>,
    },
}

/// Handle to a per-rank comm worker thread that owns a transport and
/// drains submitted collectives in FIFO order.
///
/// Dropping the handle closes the submission channel; the worker finishes
/// in-flight operations, then exits and drops the transport (releasing its
/// links/channels, which is what peers observe as a clean departure).
pub struct CommWorker {
    tx: Sender<WorkerMsg>,
}

impl std::fmt::Debug for CommWorker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CommWorker").finish_non_exhaustive()
    }
}

impl CommWorker {
    /// Moves `transport` into a new worker thread and returns the
    /// submission handle.
    pub fn spawn<T: WorkerTransport + 'static>(mut transport: T) -> CommWorker {
        let (tx, rx) = unbounded::<WorkerMsg>();
        let physical = transport.view().physical();
        // Spans go on the virtual rank's timeline, as the caller's do.
        let mut track = transport.view().rank();
        std::thread::Builder::new()
            .name(format!("acp-comm-{physical}"))
            .spawn(move || {
                while let Ok(msg) = rx.recv() {
                    match msg {
                        WorkerMsg::Op { mut op, reply } => {
                            let result = run_collective(&mut transport, track, op.as_borrowed())
                                .map(|out| op.resolve(out));
                            // The submitter may have dropped its handle;
                            // the operation still ran, keeping SPMD order.
                            let _ = reply.send(result);
                        }
                        WorkerMsg::SetRecorder(recorder) => transport.set_recorder(recorder),
                        WorkerMsg::Reform { reply } => {
                            let result = transport.reform();
                            if let Ok(view) = &result {
                                track = view.rank();
                            }
                            let _ = reply.send(result);
                        }
                    }
                }
            })
            // allow_verify(reason = "thread spawn fails only on OS resource exhaustion at startup; no collective is in flight yet")
            .expect("spawn comm worker thread");
        CommWorker { tx }
    }

    /// Enqueues one collective and returns its handle.
    pub fn submit(&self, op: CollectiveOp) -> PendingOp {
        let (reply, rx) = unbounded();
        match self.tx.send(WorkerMsg::Op { op, reply }) {
            Ok(()) => PendingOp::in_flight(rx),
            // The worker is gone; resolve immediately instead of hanging.
            Err(_) => PendingOp::ready(Err(CommError::WorkerPanicked)),
        }
    }

    /// Forwards a recorder swap to the worker (applied after the
    /// operations already in its queue, like any other submission).
    pub fn set_recorder(&self, recorder: RecorderHandle) {
        let _ = self.tx.send(WorkerMsg::SetRecorder(recorder));
    }

    /// Asks the worker to reform the group from the surviving ranks (see
    /// [`WorkerTransport::reform`]). FIFO with submitted collectives, so
    /// every operation enqueued before the reform still runs (or fails)
    /// against the old membership.
    ///
    /// # Errors
    ///
    /// Propagates the transport's reform error; a dead worker surfaces as
    /// [`CommError::WorkerPanicked`].
    pub fn reform(&self) -> Result<GroupView, CommError> {
        let (reply, rx) = unbounded();
        if self.tx.send(WorkerMsg::Reform { reply }).is_err() {
            return Err(CommError::WorkerPanicked);
        }
        // Reform re-establishes links with bounded dials/accepts; the cap
        // only guards a wedged worker.
        rx.recv_timeout(std::time::Duration::from_secs(120))
            .unwrap_or(Err(CommError::WorkerPanicked))
    }
}

/// One rank's [`Communicator`] over any [`WorkerTransport`] — the shell
/// the thread, TCP and served backends share, so backends differ only in
/// how their transport executes a collective.
///
/// Collectives run inline on the transport, over the caller's own
/// storage, until the first [`Communicator::dispatch`], which moves the
/// transport into a [`CommWorker`]; from then on *every* call, blocking
/// ones included, goes through the worker in FIFO order — a blocking call
/// as an owned copy of its payload — so it can never overtake dispatched
/// operations. A group of one has nothing to overlap: while no worker
/// runs, its dispatches run inline too and return resolved handles. The
/// byte counter and the schedule trace live in cells shared with the
/// transport, so both stay readable after it moved.
pub struct WorkerCommunicator<T: WorkerTransport> {
    /// This rank's group state, as the transport last reported it.
    view: GroupView,
    /// The transport; `Some` until the comm worker takes it.
    inner: Option<T>,
    /// Per-rank comm worker, spawned lazily by the first dispatch.
    worker: Option<CommWorker>,
    bytes_sent: Arc<AtomicU64>,
    schedule: Arc<ScheduleCell>,
    verify: VerifyMode,
    /// Taken from the transport when the worker spawns; fired if the
    /// owner unwinds while the worker holds the transport.
    departure: Option<DepartureNotice>,
}

impl<T: WorkerTransport> fmt::Debug for WorkerCommunicator<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WorkerCommunicator")
            .field("rank", &self.view.rank())
            .field("world_size", &self.view.world_size())
            .field("topology", &self.view.topology())
            .field("epoch", &self.view.epoch())
            .field("bytes_sent", &self.bytes_sent.load(Ordering::SeqCst))
            .finish_non_exhaustive()
    }
}

impl<T: WorkerTransport> Drop for WorkerCommunicator<T> {
    fn drop(&mut self) {
        // An owner dropped during unwind died mid-run; with the transport
        // on the worker thread, announce it here so peers blocked in a
        // receive fail fast instead of waiting out their peer timeout.
        if std::thread::panicking() {
            if let Some(notice) = self.departure.take() {
                notice(self.view.epoch());
            }
        }
    }
}

impl<T: WorkerTransport + 'static> WorkerCommunicator<T> {
    /// Wraps a freshly connected transport. `bytes_sent` and `schedule`
    /// must be the cells the transport itself updates; `verify` is the
    /// mode its tracer runs in.
    pub fn with_transport(
        transport: T,
        bytes_sent: Arc<AtomicU64>,
        schedule: Arc<ScheduleCell>,
        verify: VerifyMode,
    ) -> Self {
        WorkerCommunicator {
            view: transport.view().clone(),
            inner: Some(transport),
            worker: None,
            bytes_sent,
            schedule,
            verify,
            departure: None,
        }
    }

    /// Runs one collective to completion: inline on the caller's storage
    /// before a worker exists; once one runs, as an owned copy queued
    /// behind everything already dispatched, its result landed back.
    fn run_op(&mut self, op: BorrowedOp<'_>) -> Result<CollectiveResult, CommError> {
        match (&self.worker, self.inner.as_mut()) {
            (Some(worker), _) => {
                let out = worker.submit(op.owned()).wait()?;
                op.land(out)
            }
            (None, Some(transport)) => run_collective(transport, self.view.rank(), op),
            // Unreachable: the transport only leaves when a worker spawns.
            (None, None) => Err(CommError::WorkerPanicked),
        }
    }

    /// Spawns the comm worker on first use, moving the transport into it.
    fn ensure_worker(&mut self) -> &CommWorker {
        if self.worker.is_none() {
            let transport = self
                .inner
                .take()
                // allow_verify(reason = "struct invariant: inner is Some until the worker takes it, and this branch only runs when worker is None")
                .expect("transport is present until the worker takes it");
            self.departure = transport.departure_notice();
            self.worker = Some(CommWorker::spawn(transport));
        }
        // allow_verify(reason = "assigned Some on the line above when absent")
        self.worker.as_ref().expect("worker just spawned")
    }

    /// Simultaneously sends `send` to `peer` and receives their buffer of
    /// the same length — the pairwise exchange of butterfly algorithms.
    ///
    /// Both sides must call this with each other's rank.
    ///
    /// # Errors
    ///
    /// Returns an error on disconnect, mismatched lengths, or a `peer`
    /// outside the group.
    pub fn send_recv_f32(&mut self, peer: usize, send: &[f32]) -> Result<Vec<f32>, CommError> {
        self.run_op(BorrowedOp::SendRecvF32 { peer, send })?
            .into_f32()
    }

    /// Latency-optimal all-reduce by recursive doubling: `⌈log₂ p⌉` rounds
    /// of full-buffer pairwise exchanges (`T = log₂(p)(α + Nβ)`), versus
    /// the ring's `2(p−1)` messages of `N/p`. Preferable for small tensors
    /// — the start-up-cost regime tensor fusion addresses.
    ///
    /// Non-power-of-two groups fold the extra ranks onto partners before
    /// and after the butterfly.
    ///
    /// # Errors
    ///
    /// Returns an error on disconnect or inconsistent buffer lengths.
    pub fn all_reduce_recursive_doubling(
        &mut self,
        buf: &mut [f32],
        op: ReduceOp,
    ) -> Result<(), CommError> {
        self.run_op(BorrowedOp::AllReduceRd { buf, op }).map(|_| ())
    }
}

impl<T: WorkerTransport + 'static> Communicator for WorkerCommunicator<T> {
    fn rank(&self) -> usize {
        self.view.rank()
    }

    fn world_size(&self) -> usize {
        self.view.world_size()
    }

    fn topology(&self) -> Topology {
        self.view.topology()
    }

    fn membership(&self) -> Membership {
        self.view.membership().clone()
    }

    /// Routes through the comm worker when one is running, so the reform
    /// stays FIFO with dispatched collectives, and adopts the view the
    /// transport reformed to.
    fn reform(&mut self) -> Result<Membership, CommError> {
        self.view = match (&self.worker, self.inner.as_mut()) {
            (Some(worker), _) => worker.reform(),
            (None, Some(transport)) => transport.reform(),
            (None, None) => Err(CommError::WorkerPanicked),
        }?;
        Ok(self.view.membership().clone())
    }

    fn all_reduce(&mut self, buf: &mut [f32], op: ReduceOp) -> Result<(), CommError> {
        self.run_op(BorrowedOp::AllReduce { buf, op }).map(|_| ())
    }

    fn all_gather_f32(&mut self, send: &[f32]) -> Result<Vec<f32>, CommError> {
        self.run_op(BorrowedOp::AllGatherF32 { send })?.into_f32()
    }

    fn all_gather_u32(&mut self, send: &[u32]) -> Result<Vec<u32>, CommError> {
        self.run_op(BorrowedOp::AllGatherU32 { send })?.into_u32()
    }

    fn broadcast(&mut self, buf: &mut [f32], root: usize) -> Result<(), CommError> {
        self.run_op(BorrowedOp::Broadcast { buf, root }).map(|_| ())
    }

    fn barrier(&mut self) -> Result<(), CommError> {
        // Untimed: barriers move no payload, and timing them would skew the
        // communication series with pure synchronization waits.
        self.run_op(BorrowedOp::Barrier).map(|_| ())
    }

    fn bytes_sent(&self) -> u64 {
        self.bytes_sent.load(Ordering::SeqCst)
    }

    fn set_recorder(&mut self, recorder: RecorderHandle) {
        match (&self.worker, self.inner.as_mut()) {
            (Some(worker), _) => worker.set_recorder(recorder),
            (None, Some(transport)) => transport.set_recorder(recorder),
            (None, None) => {}
        }
    }

    fn global_topk(
        &mut self,
        indices: &[u32],
        values: &[f32],
        k: usize,
    ) -> Result<(Vec<u32>, Vec<f32>), CommError> {
        self.run_op(BorrowedOp::GlobalTopk { indices, values, k })?
            .into_sparse()
    }

    fn dispatch(&mut self, mut op: CollectiveOp) -> PendingOp {
        if self.worker.is_none() && self.view.world_size() == 1 {
            // Nothing to overlap in a group of one: run it here.
            let result = self.run_op(op.as_borrowed()).map(|out| op.resolve(out));
            return PendingOp::ready(result);
        }
        self.ensure_worker().submit(op)
    }

    fn schedule(&self) -> Option<ScheduleSnapshot> {
        Some(
            self.schedule
                .snapshot(self.verify == VerifyMode::CrossCheck),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ThreadGroup;

    #[test]
    fn a_group_of_one_dispatches_inline() {
        let mut group = ThreadGroup::run(1, |mut comm| {
            let reduced = comm.all_reduce_start(vec![2.0, 3.0], ReduceOp::Mean);
            let barrier = comm.dispatch(CollectiveOp::Barrier);
            assert!(
                comm.worker.is_none(),
                "a group of one spawned a comm worker"
            );
            assert!(comm.inner.is_some());
            (reduced.wait(), barrier.wait())
        });
        let (reduced, barrier) = group.remove(0);
        assert_eq!(reduced.unwrap(), CollectiveResult::F32(vec![2.0, 3.0]));
        assert_eq!(barrier.unwrap(), CollectiveResult::Unit);
    }
}
