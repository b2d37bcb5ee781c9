//! Non-blocking collectives: operation descriptors, pending-operation
//! handles, and the per-rank comm worker thread.
//!
//! The blocking [`Communicator`] methods and the
//! non-blocking `dispatch`/`wait` path execute the *same* generic
//! [`ring`] algorithms — a blocking call is literally
//! `dispatch` + [`PendingOp::wait`] once a worker is running — so the two
//! paths are bit-exact with each other by construction, on every backend.
//!
//! A backend opts into the worker by implementing [`WorkerTransport`] and
//! wrapping its transport in a [`WorkerCommunicator`], the one
//! [`Communicator`] every worker-backed backend shares: collectives run
//! inline on the transport until the first dispatch, which moves the
//! transport into [`CommWorker::spawn`]. The worker owns the transport,
//! drains submitted operations strictly in FIFO order (so the SPMD
//! contract — every rank issues the same collectives in the same order — is
//! preserved no matter how many operations are in flight), and replies
//! through the per-operation channel a [`PendingOp`] wraps.
//!
//! Error propagation is structured end to end: a ring algorithm error is
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
use crate::topology::{Membership, Topology};

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
    /// The `(kind, words, param)` fingerprint the schedule tracer records
    /// for this operation (see [`crate::schedule`]).
    ///
    /// `words` is the element count every rank must agree on; it is 0 for
    /// [`CollectiveOp::GlobalTopk`], whose sparse payload sizes are
    /// legitimately rank-dependent (the shared contract there is `k`, the
    /// `param`). `param` encodes the shape-relevant argument: the
    /// [`ReduceOp`] for reductions, the root for broadcast, `k` for
    /// top-k. [`CollectiveOp::SendRecvF32`]'s `peer` is *excluded* — the
    /// two sides of a pairwise exchange name each other, so their peers
    /// legitimately differ.
    pub fn fingerprint(&self) -> (OpKind, u64, u64) {
        match self {
            CollectiveOp::AllReduce { buf, op } => (OpKind::AllReduce, buf.len() as u64, op.code()),
            CollectiveOp::AllReduceRd { buf, op } => {
                (OpKind::AllReduceRd, buf.len() as u64, op.code())
            }
            CollectiveOp::AllGatherF32 { send } => (OpKind::AllGatherF32, send.len() as u64, 0),
            CollectiveOp::AllGatherU32 { send } => (OpKind::AllGatherU32, send.len() as u64, 0),
            CollectiveOp::Broadcast { buf, root } => {
                (OpKind::Broadcast, buf.len() as u64, *root as u64)
            }
            CollectiveOp::GlobalTopk { k, .. } => (OpKind::GlobalTopk, 0, *k as u64),
            CollectiveOp::SendRecvF32 { send, .. } => (OpKind::SendRecv, send.len() as u64, 0),
            CollectiveOp::Barrier => (OpKind::Barrier, 0, 0),
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

/// A point-to-point transport that can be moved into a [`CommWorker`].
///
/// Extends [`Transport`] with the per-backend hooks the worker needs to
/// execute collectives exactly as the backend's blocking path would:
/// telemetry wiring, pre-collective fault hooks, and the group's
/// topology and membership. Every peer must be reachable: the butterfly
/// collectives, two-level topologies and reform pair arbitrary ranks.
pub trait WorkerTransport: Transport + Send {
    /// The telemetry recorder collective latencies and spans go to.
    fn recorder(&self) -> &RecorderHandle;

    /// Replaces the telemetry recorder (delivered to a running worker via
    /// [`CommWorker::set_recorder`]).
    fn set_recorder(&mut self, recorder: RecorderHandle);

    /// Called at the top of every collective (fault-injection hook; the
    /// TCP backend applies its straggler delay here).
    fn prepare(&mut self) {}

    /// The rank arrangement collectives are scheduled over. All-reduce
    /// runs the two-level ring-of-rings of [`crate::hierarchy`] when this
    /// is [`Topology::TwoLevel`]; the default is the flat ring.
    fn topology(&self) -> Topology {
        Topology::flat(self.world_size())
    }

    /// The current membership (epoch + surviving physical ranks). The
    /// default reports the static launch membership.
    fn membership(&self) -> Membership {
        Membership::initial(self.world_size())
    }

    /// Rebuilds the group from the surviving ranks after a peer departure:
    /// re-detects who is alive, re-derives ring/virtual ranks, bumps the
    /// membership epoch, folds the new membership into the schedule digest
    /// and cross-checks digest agreement among survivors. Collective —
    /// every survivor must call it at the same schedule position.
    ///
    /// # Errors
    ///
    /// The default implementation reports that the backend is not elastic.
    fn reform(&mut self) -> Result<Membership, CommError> {
        Err(CommError::Io(
            "this transport does not support membership reform".to_string(),
        ))
    }

    /// The transport's collective-schedule tracer, if it records one (see
    /// [`crate::schedule`]). [`execute_collective`] advances it once per
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
/// the transport has adopted its post-reform membership: records the
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
pub fn confirm_reform<T: WorkerTransport + ?Sized>(t: &mut T) -> Result<Membership, CommError> {
    let membership = t.membership();
    let Some(tracer) = t.tracer() else {
        return Ok(membership);
    };
    tracer.begin_op(
        OpKind::Reform,
        membership.world_size() as u64,
        membership_param(membership.epoch(), membership.ranks()),
    );
    let digest = tracer.digest();
    let halves = [(digest >> 32) as u32, digest as u32];
    let gathered = ring::all_gather_u32(t, &halves)?;
    match gathered.chunks(2).position(|pair| pair != halves) {
        Some(virt) => Err(CommError::Io(format!(
            "post-reform schedule digest mismatch at epoch {}: virtual rank {virt} \
             disagrees on the surviving membership",
            membership.epoch()
        ))),
        None => Ok(membership),
    }
}

/// Emits the per-collective telemetry every backend records: one
/// [`keys::COMM_CALLS`] tick, a latency observation under `key`, a payload
/// size under `bytes_key` (index-parallel with the latency series — the
/// pairing the α–β calibration fit relies on), and a span on `track`'s
/// timeline.
fn record_collective(
    rec: &RecorderHandle,
    track: u64,
    name: &'static str,
    key: &'static str,
    bytes_key: &'static str,
    bytes: u64,
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
        track,
        start_us,
        end_us,
    });
}

/// Runs one collective on a transport, with the same telemetry the
/// blocking [`Communicator`] methods emit (barrier and pairwise exchange
/// stay untimed — they move no accountable payload).
///
/// This is *the* execution path for worker-backed communicators, used by
/// both their blocking methods and their dispatched operations.
///
/// # Errors
///
/// Propagates the ring algorithm's structured [`CommError`].
pub fn execute_collective<T: WorkerTransport + ?Sized>(
    t: &mut T,
    op: CollectiveOp,
) -> Result<CollectiveResult, CommError> {
    t.prepare();
    let (kind, words, param) = op.fingerprint();
    if let Some(tracer) = t.tracer() {
        tracer.begin_op(kind, words, param);
    }
    let rec = t.recorder().clone();
    let track = t.rank() as u64;
    let start_us = rec.now_us();
    let (name, key, bytes_key, bytes, result) = match op {
        CollectiveOp::AllReduce { mut buf, op } => (
            "all_reduce",
            keys::COMM_ALL_REDUCE_US,
            keys::COMM_ALL_REDUCE_BYTES,
            4 * buf.len() as u64,
            {
                // Topology-aware dispatch: two-level arrangements run the
                // ring-of-rings schedule, flat ones the classic ring.
                let topo = t.topology();
                if topo.is_flat() {
                    ring::all_reduce(t, &mut buf, op)
                } else {
                    crate::hierarchy::all_reduce_two_level(t, topo, &mut buf, op)
                }
            }
            .map(|()| CollectiveResult::F32(buf)),
        ),
        CollectiveOp::AllReduceRd { mut buf, op } => (
            "all_reduce_rd",
            keys::COMM_ALL_REDUCE_US,
            keys::COMM_ALL_REDUCE_BYTES,
            4 * buf.len() as u64,
            ring::all_reduce_recursive_doubling(t, &mut buf, op)
                .map(|()| CollectiveResult::F32(buf)),
        ),
        CollectiveOp::AllGatherF32 { send } => (
            "all_gather_f32",
            keys::COMM_ALL_GATHER_US,
            keys::COMM_ALL_GATHER_BYTES,
            4 * send.len() as u64,
            ring::all_gather_f32(t, &send).map(CollectiveResult::F32),
        ),
        CollectiveOp::AllGatherU32 { send } => (
            "all_gather_u32",
            keys::COMM_ALL_GATHER_US,
            keys::COMM_ALL_GATHER_BYTES,
            4 * send.len() as u64,
            ring::all_gather_u32(t, &send).map(CollectiveResult::U32),
        ),
        CollectiveOp::Broadcast { mut buf, root } => (
            "broadcast",
            keys::COMM_BROADCAST_US,
            keys::COMM_BROADCAST_BYTES,
            4 * buf.len() as u64,
            ring::broadcast(t, &mut buf, root).map(|()| CollectiveResult::F32(buf)),
        ),
        CollectiveOp::GlobalTopk { indices, values, k } => (
            "global_topk",
            keys::COMM_GLOBAL_TOPK_US,
            keys::COMM_GLOBAL_TOPK_BYTES,
            // (index, value) pairs this rank contributes.
            8 * indices.len() as u64,
            ring::global_topk_butterfly(t, &indices, &values, k)
                .map(|(i, v)| CollectiveResult::Sparse(i, v)),
        ),
        CollectiveOp::SendRecvF32 { peer, send } => {
            return ring::send_recv_f32(t, peer, &send).map(CollectiveResult::F32);
        }
        CollectiveOp::Barrier => {
            return ring::barrier(t).map(|()| CollectiveResult::Unit);
        }
    };
    record_collective(&rec, track, name, key, bytes_key, bytes, start_us);
    result
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
        reply: Sender<Result<Membership, CommError>>,
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
        std::thread::Builder::new()
            .name(format!("acp-comm-{}", transport.rank()))
            .spawn(move || {
                while let Ok(msg) = rx.recv() {
                    match msg {
                        WorkerMsg::Op { op, reply } => {
                            let result = execute_collective(&mut transport, op);
                            // The submitter may have dropped its handle;
                            // the operation still ran, keeping SPMD order.
                            let _ = reply.send(result);
                        }
                        WorkerMsg::SetRecorder(recorder) => transport.set_recorder(recorder),
                        WorkerMsg::Reform { reply } => {
                            let _ = reply.send(transport.reform());
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
    pub fn reform(&self) -> Result<Membership, CommError> {
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
/// every worker-backed backend shares, so backends differ only in how
/// their transport moves bytes.
///
/// Collectives run inline on the transport until the first
/// [`Communicator::dispatch`], which moves the transport into a
/// [`CommWorker`]; from then on *every* call, blocking ones included, goes
/// through the worker in FIFO order, so a blocking call can never overtake
/// dispatched operations. The byte counter and the schedule trace live in
/// cells shared with the transport, so both stay readable after it moved.
pub struct WorkerCommunicator<T: WorkerTransport> {
    /// Virtual (ring) rank — equals `physical` until a reform.
    rank: usize,
    /// Physical rank this endpoint was launched with (stable across
    /// reforms).
    physical: usize,
    membership: Membership,
    /// The arrangement collectives are scheduled over; collapses to a
    /// flat ring over the survivors after a reform.
    topology: Topology,
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
            .field("rank", &self.rank)
            .field("world_size", &self.membership.world_size())
            .field("topology", &self.topology)
            .field("epoch", &self.membership.epoch())
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
                notice(self.membership.epoch());
            }
        }
    }
}

impl<T: WorkerTransport + 'static> WorkerCommunicator<T> {
    /// Wraps a freshly connected transport (virtual rank = physical rank).
    /// `bytes_sent` and `schedule` must be the cells the transport itself
    /// updates; `verify` is the mode its tracer runs in.
    pub fn new(
        transport: T,
        bytes_sent: Arc<AtomicU64>,
        schedule: Arc<ScheduleCell>,
        verify: VerifyMode,
    ) -> Self {
        WorkerCommunicator {
            rank: transport.rank(),
            physical: transport.rank(),
            membership: transport.membership(),
            topology: transport.topology(),
            inner: Some(transport),
            worker: None,
            bytes_sent,
            schedule,
            verify,
            departure: None,
        }
    }

    /// Runs one collective to completion: inline on the transport before
    /// a worker exists, or as submit-and-wait once one is running.
    fn run_op(&mut self, op: CollectiveOp) -> Result<CollectiveResult, CommError> {
        match (&self.worker, self.inner.as_mut()) {
            (Some(worker), _) => worker.submit(op).wait(),
            (None, Some(transport)) => execute_collective(transport, op),
            // Unreachable: the transport only leaves when a worker spawns.
            (None, None) => Err(CommError::WorkerPanicked),
        }
    }

    /// Runs an in-place `f32` collective on a copy of `buf` and writes the
    /// result back.
    fn run_in_place(
        &mut self,
        buf: &mut [f32],
        op: impl FnOnce(Vec<f32>) -> CollectiveOp,
    ) -> Result<(), CommError> {
        // allow_verify(reason = "the comm worker owns op buffers across threads; per-hop sends are zero-copy")
        let out = self.run_op(op(buf.to_vec()))?.into_f32()?;
        buf.copy_from_slice(&out);
        Ok(())
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
        self.run_op(CollectiveOp::SendRecvF32 {
            peer,
            // allow_verify(reason = "the comm worker owns op buffers across threads; per-hop sends are zero-copy")
            send: send.to_vec(),
        })?
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
        self.run_in_place(buf, |buf| CollectiveOp::AllReduceRd { buf, op })
    }
}

impl<T: WorkerTransport + 'static> Communicator for WorkerCommunicator<T> {
    fn rank(&self) -> usize {
        self.rank
    }

    fn world_size(&self) -> usize {
        self.membership.world_size()
    }

    fn topology(&self) -> Topology {
        self.topology
    }

    fn membership(&self) -> Membership {
        self.membership.clone()
    }

    /// Routes through the comm worker when one is running, so the reform
    /// stays FIFO with dispatched collectives.
    fn reform(&mut self) -> Result<Membership, CommError> {
        let membership = match (&self.worker, self.inner.as_mut()) {
            (Some(worker), _) => worker.reform(),
            (None, Some(transport)) => transport.reform(),
            (None, None) => Err(CommError::WorkerPanicked),
        }?;
        self.rank = membership
            .virtual_rank_of(self.physical)
            .ok_or_else(|| CommError::Io("this rank is not among the survivors".to_string()))?
            .as_usize();
        if membership.epoch() != self.membership.epoch() {
            // The transport fell back to one flat ring over the survivors.
            self.topology = Topology::flat(membership.world_size());
        }
        self.membership = membership.clone();
        Ok(membership)
    }

    fn all_reduce(&mut self, buf: &mut [f32], op: ReduceOp) -> Result<(), CommError> {
        self.run_in_place(buf, |buf| CollectiveOp::AllReduce { buf, op })
    }

    fn all_gather_f32(&mut self, send: &[f32]) -> Result<Vec<f32>, CommError> {
        self.run_op(CollectiveOp::AllGatherF32 {
            // allow_verify(reason = "the comm worker owns op buffers across threads; per-hop sends are zero-copy")
            send: send.to_vec(),
        })?
        .into_f32()
    }

    fn all_gather_u32(&mut self, send: &[u32]) -> Result<Vec<u32>, CommError> {
        self.run_op(CollectiveOp::AllGatherU32 {
            // allow_verify(reason = "the comm worker owns op buffers across threads; per-hop sends are zero-copy")
            send: send.to_vec(),
        })?
        .into_u32()
    }

    fn broadcast(&mut self, buf: &mut [f32], root: usize) -> Result<(), CommError> {
        self.run_in_place(buf, |buf| CollectiveOp::Broadcast { buf, root })
    }

    fn barrier(&mut self) -> Result<(), CommError> {
        // Untimed: barriers move no payload, and timing them would skew the
        // communication series with pure synchronization waits.
        self.run_op(CollectiveOp::Barrier).map(|_| ())
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
        self.run_op(CollectiveOp::GlobalTopk {
            // allow_verify(reason = "the comm worker owns op buffers across threads; per-hop sends are zero-copy")
            indices: indices.to_vec(),
            // allow_verify(reason = "the comm worker owns op buffers across threads; per-hop sends are zero-copy")
            values: values.to_vec(),
            k,
        })?
        .into_sparse()
    }

    fn dispatch(&mut self, op: CollectiveOp) -> PendingOp {
        self.ensure_worker().submit(op)
    }

    fn schedule(&self) -> Option<ScheduleSnapshot> {
        Some(
            self.schedule
                .snapshot(self.verify == VerifyMode::CrossCheck),
        )
    }
}
