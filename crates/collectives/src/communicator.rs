//! Real in-process collectives over a ring of channels.
//!
//! Each worker is a thread holding a [`ThreadCommunicator`] — the shared
//! [`WorkerCommunicator`] shell over this module's mailbox
//! [`ThreadTransport`] — that can reach every peer, so the ring algorithms
//! see a successor and a predecessor exactly as NCCL's do. All-reduce is
//! implemented as chunked reduce-scatter followed by ring all-gather, so
//! the per-rank transmitted volume is the bandwidth-optimal `2 (p−1)/p · N`
//! of Table II, which the tests verify byte-for-byte through
//! [`Communicator::bytes_sent`].
//!
//! The collective *algorithms* live in [`crate::ring`], generic over the
//! [`Transport`] point-to-point interface; this module provides the
//! in-process channel backend. `acp-net` provides the TCP backend over the
//! same algorithms.

use std::collections::{BTreeSet, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use acp_telemetry::{keys, noop, RecorderHandle};
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};

use crate::nonblocking::{
    confirm_reform, execute_ring, execute_via_blocking, BorrowedOp, CollectiveOp, CollectiveResult,
    DepartureNotice, PendingOp, WorkerCommunicator, WorkerTransport,
};
use crate::ring::{Transport, WireMsg};
use crate::schedule::{
    OpKind, ScheduleCell, ScheduleSnapshot, ScheduleTag, ScheduleTracer, VerifyMode,
};
use crate::topology::{GroupView, Membership, RankId, Topology};

/// Reduction operator applied element-wise by [`Communicator::all_reduce`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReduceOp {
    /// Element-wise sum (gradient aggregation).
    #[default]
    Sum,
    /// Element-wise sum divided by the world size (gradient averaging).
    Mean,
    /// Element-wise maximum.
    Max,
}

impl ReduceOp {
    /// The operator's wire and schedule code: `Sum = 0`, `Mean = 1`,
    /// `Max = 2`. The codes feed the schedule digest, so they never change.
    pub fn code(self) -> u64 {
        match self {
            ReduceOp::Sum => 0,
            ReduceOp::Mean => 1,
            ReduceOp::Max => 2,
        }
    }

    /// The operator with wire code `code`, or `None` for an unknown code.
    pub fn from_code(code: u64) -> Option<ReduceOp> {
        match code {
            0 => Some(ReduceOp::Sum),
            1 => Some(ReduceOp::Mean),
            2 => Some(ReduceOp::Max),
            _ => None,
        }
    }
}

/// Error raised by collective operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommError {
    /// A peer sent a payload whose length differs from ours — the ranks
    /// called the collective with inconsistent buffer sizes.
    LengthMismatch {
        /// Length this rank expected.
        expected: usize,
        /// Length actually received.
        actual: usize,
    },
    /// A peer disconnected (its thread panicked or dropped the communicator
    /// mid-collective).
    PeerDisconnected,
    /// A peer sent a payload of an unexpected type for the running
    /// collective (ranks invoked different collectives concurrently).
    ProtocolMismatch,
    /// The requested root rank does not exist in this group.
    InvalidRoot {
        /// Root requested by the caller.
        root: usize,
        /// Size of the group.
        world_size: usize,
    },
    /// A point-to-point operation addressed a rank outside the group.
    InvalidRank {
        /// The out-of-range rank.
        rank: usize,
        /// Size of the group.
        world_size: usize,
    },
    /// A worker thread of a [`ThreadGroup`] panicked before producing a
    /// result.
    WorkerPanicked,
    /// A member of the group departed mid-collective (its process exited
    /// or its worker thread died). The collective's result is lost; every
    /// survivor should call [`Communicator::reform`] to rebuild the group
    /// from the remaining ranks and continue.
    MembershipChanged {
        /// The membership epoch the failed collective was running at.
        epoch: u64,
        /// The physical ranks observed dead, sorted ascending.
        departed: Vec<usize>,
    },
    /// A collective exceeded its deadline without the peer being observed
    /// dead — a hung or straggling rank, surfaced instead of blocking.
    Timeout {
        /// The operation that timed out (e.g. `"recv"`, `"connect"`).
        op: &'static str,
        /// How long the operation waited before giving up, milliseconds.
        waited_ms: u64,
    },
    /// A transport-level I/O failure (TCP backend: reset, refused,
    /// unreachable, malformed frame).
    Io(String),
    /// An aggregation service applied backpressure: an in-flight byte
    /// budget (per job or global) is exhausted. Structured and retryable —
    /// the submission was *not* accepted, nothing is corrupted, and the
    /// caller may resubmit once the current step drains.
    Busy {
        /// Bytes in flight against the exhausted budget when the
        /// submission was refused.
        in_flight_bytes: u64,
        /// The exhausted budget, bytes.
        budget_bytes: u64,
    },
    /// An aggregation service refused the request outright (unknown job,
    /// unsupported collective, poisoned session). Not retryable.
    Rejected {
        /// Service-provided reason.
        reason: String,
    },
    /// The ranks' collective schedules diverged: a peer was executing a
    /// different collective (or the same collective with different
    /// history) when this rank received one of its messages. Raised by
    /// [`VerifyMode::CrossCheck`] at the first divergent operation — instead of a hang, a misleading
    /// `ProtocolMismatch`, or a silently wrong reduction.
    ScheduleMismatch {
        /// Schedule position where the divergence was detected (the
        /// earlier of the two ranks' sequence numbers).
        seq: u64,
        /// The collective this rank was executing (`None` if it was not
        /// inside a collective at all).
        local: Option<crate::schedule::SchedulePoint>,
        /// The collective the peer's message was tagged with.
        peer: crate::schedule::SchedulePoint,
    },
}

impl fmt::Display for CommError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommError::LengthMismatch { expected, actual } => {
                write!(
                    f,
                    "peer payload length {actual} does not match local length {expected}"
                )
            }
            CommError::PeerDisconnected => write!(f, "a peer disconnected mid-collective"),
            CommError::ProtocolMismatch => {
                write!(f, "peer payload type does not match the running collective")
            }
            CommError::InvalidRoot { root, world_size } => {
                write!(
                    f,
                    "root rank {root} out of range for world size {world_size}"
                )
            }
            CommError::InvalidRank { rank, world_size } => {
                write!(f, "rank {rank} out of range for world size {world_size}")
            }
            CommError::WorkerPanicked => write!(f, "a worker thread panicked"),
            CommError::MembershipChanged { epoch, departed } => {
                write!(
                    f,
                    "membership changed at epoch {epoch}: ranks {departed:?} departed (reform() to continue)"
                )
            }
            CommError::Timeout { op, waited_ms } => {
                write!(f, "{op} timed out after {waited_ms} ms")
            }
            CommError::Io(msg) => write!(f, "transport I/O error: {msg}"),
            CommError::Busy {
                in_flight_bytes,
                budget_bytes,
            } => {
                write!(
                    f,
                    "aggregation service busy: {in_flight_bytes} bytes in flight against a \
                     {budget_bytes}-byte budget (retry after the current step drains)"
                )
            }
            CommError::Rejected { reason } => {
                write!(f, "aggregation service rejected the request: {reason}")
            }
            CommError::ScheduleMismatch { seq, local, peer } => {
                write!(f, "collective schedules diverged at op {seq}: ")?;
                match local {
                    Some(local) => write!(f, "this rank ran {local}")?,
                    None => write!(f, "this rank ran no collective")?,
                }
                write!(f, " while a peer ran {peer}")
            }
        }
    }
}

impl std::error::Error for CommError {}

/// Collective communication interface shared by the trainer and optimizers.
///
/// Mirrors the subset of NCCL the paper's algorithms need: sum/mean/max
/// all-reduce for additive payloads (S-SGD, Power-SGD, ACP-SGD), `f32`/`u32`
/// all-gather for non-additive compressed payloads (Top-k values/indices,
/// Sign-SGD bit-packed words), broadcast and barrier.
pub trait Communicator: Send {
    /// This worker's rank in `[0, world_size)`.
    fn rank(&self) -> usize;

    /// Number of workers in the group.
    fn world_size(&self) -> usize;

    /// This worker's rank as a typed [`RankId`] — the preferred accessor.
    /// After a reform this is the *virtual* (ring) rank among the
    /// survivors; [`Communicator::membership`] maps it back to the
    /// physical rank.
    fn rank_id(&self) -> RankId {
        RankId(self.rank())
    }

    /// The rank arrangement collectives are scheduled over (see
    /// [`Topology`]). The default is one flat ring; topology-aware
    /// backends report their two-level arrangement and run the
    /// ring-of-rings schedule for all-reduce.
    fn topology(&self) -> Topology {
        Topology::flat(self.world_size())
    }

    /// The current elastic membership: the reform epoch plus the physical
    /// ranks still present. The default reports the static launch
    /// membership (epoch 0, every rank).
    fn membership(&self) -> Membership {
        Membership::initial(self.world_size())
    }

    /// Rebuilds the group from the surviving ranks after a peer departure
    /// (surfaced as [`CommError::MembershipChanged`]): re-derives
    /// ring/virtual ranks, bumps the membership epoch, records the reform
    /// in the collective schedule and cross-checks digest agreement among
    /// survivors. Collective — every survivor must call it at the same
    /// schedule position.
    ///
    /// # Errors
    ///
    /// Backends without elastic membership report [`CommError::Io`];
    /// elastic backends propagate handshake or transport failures.
    fn reform(&mut self) -> Result<Membership, CommError> {
        Err(CommError::Io(
            "this communicator does not support membership reform".to_string(),
        ))
    }

    /// Reduces `buf` element-wise across all ranks; every rank ends with the
    /// reduced result in `buf`.
    ///
    /// # Errors
    ///
    /// Returns an error if ranks disagree on buffer length or a peer
    /// disconnects.
    fn all_reduce(&mut self, buf: &mut [f32], op: ReduceOp) -> Result<(), CommError>;

    /// Gathers each rank's `send` buffer; returns the concatenation in rank
    /// order (`world_size * send.len()` elements).
    ///
    /// # Errors
    ///
    /// Returns an error if ranks disagree on buffer length or a peer
    /// disconnects.
    fn all_gather_f32(&mut self, send: &[f32]) -> Result<Vec<f32>, CommError>;

    /// [`Communicator::all_gather_f32`] for `u32` payloads (bit-packed signs,
    /// sparse indices).
    ///
    /// # Errors
    ///
    /// Returns an error if ranks disagree on buffer length or a peer
    /// disconnects.
    fn all_gather_u32(&mut self, send: &[u32]) -> Result<Vec<u32>, CommError>;

    /// Copies `buf` on `root` into `buf` on every other rank.
    ///
    /// # Errors
    ///
    /// Returns an error for an out-of-range root, mismatched lengths, or a
    /// disconnected peer.
    fn broadcast(&mut self, buf: &mut [f32], root: usize) -> Result<(), CommError>;

    /// Blocks until every rank has entered the barrier.
    ///
    /// # Errors
    ///
    /// Returns an error if a peer disconnects.
    fn barrier(&mut self) -> Result<(), CommError>;

    /// Total payload bytes this rank has transmitted so far (excluding
    /// barrier tokens) — used to verify the Table II volume formulas.
    fn bytes_sent(&self) -> u64;

    /// Attaches a telemetry recorder. An instrumented communicator reports
    /// wire bytes ([`keys::COMM_BYTES_SENT`] / [`keys::COMM_BYTES_RECV`]) and
    /// per-collective latencies to it; the default implementation ignores
    /// the handle, so transports without instrumentation keep compiling.
    fn set_recorder(&mut self, recorder: RecorderHandle) {
        let _ = recorder;
    }

    /// Sparse all-reduce with top-k truncation (the SparCML / gTop-k
    /// collective): sums the ranks' sparse `(indices, values)` vectors and
    /// returns (approximately) the `k` largest-magnitude coordinates of the
    /// sum, identical on every rank.
    ///
    /// [`WorkerCommunicator`] runs it as its transport's `execute`: on
    /// the ring transports the `O(k log p)` recursive doubling merge of
    /// gTop-k (Shi et al., ICDCS 2019), whose per-round truncation makes it
    /// approximate (coordinates that are individually small everywhere can
    /// be dropped even if their sum is large); on the served backend two
    /// gathers and an exact truncation.
    ///
    /// # Errors
    ///
    /// Returns an error on disconnect or inconsistent calls.
    fn global_topk(
        &mut self,
        indices: &[u32],
        values: &[f32],
        k: usize,
    ) -> Result<(Vec<u32>, Vec<f32>), CommError>;

    /// Dispatches a collective for asynchronous completion; redeem the
    /// returned handle with [`PendingOp::wait`].
    ///
    /// The default implementation executes synchronously through the
    /// blocking methods and returns an already-resolved handle, so every
    /// communicator supports the non-blocking API. [`WorkerCommunicator`]
    /// (the thread, TCP and served backends) overrides it to run the
    /// collective on a per-rank comm worker thread, overlapping it with
    /// the caller's compute (a group of one runs it inline). Operations
    /// complete in submission order on every backend, so interleaving
    /// dispatched and blocking calls preserves the SPMD contract.
    fn dispatch(&mut self, op: CollectiveOp) -> PendingOp {
        PendingOp::ready(execute_via_blocking(self, op))
    }

    /// Non-blocking all-reduce: consumes this rank's contribution and
    /// returns a handle whose [`PendingOp::wait`] yields the reduced
    /// buffer ([`CollectiveResult::F32`]).
    fn all_reduce_start(&mut self, buf: Vec<f32>, op: ReduceOp) -> PendingOp {
        self.dispatch(CollectiveOp::AllReduce { buf, op })
    }

    /// A point-in-time copy of this rank's collective-schedule trace (see
    /// [`crate::schedule`]), or `None` for backends without a tracer. The
    /// snapshot stays readable after errors and after the comm worker has
    /// taken the transport — it is the input to cross-rank divergence
    /// checks and `acp-verify check-trace` export.
    fn schedule(&self) -> Option<ScheduleSnapshot> {
        None
    }
}

/// How long a rank waits on a peer before concluding it died.
const RECV_TIMEOUT: std::time::Duration = std::time::Duration::from_secs(30);

/// Poll interval of the receive loop; bounds how long a rank can block
/// after a peer panics before it observes the group's panic flag.
const PANIC_POLL: std::time::Duration = std::time::Duration::from_millis(20);

/// A [`ThreadCommunicator`] in a group of one.
///
/// Collectives are identities; useful as a default so single-worker training
/// shares the distributed code path — it runs on the same shell and mailbox
/// transport as every other thread group.
///
/// # Examples
///
/// ```
/// use acp_collectives::{Communicator, LocalCommunicator, ReduceOp};
///
/// let mut comm = LocalCommunicator::new();
/// let mut buf = vec![1.0, 2.0];
/// comm.all_reduce(&mut buf, ReduceOp::Sum)?;
/// assert_eq!(buf, vec![1.0, 2.0]);
/// # Ok::<(), acp_collectives::CommError>(())
/// ```
pub type LocalCommunicator = ThreadCommunicator;

/// A worker-thread endpoint of a communicator group.
///
/// Created in bulk by [`ThreadGroup::new`] (one per rank) and moved into the
/// worker threads. Transport is a mailbox: every rank can send to every
/// other rank, which supports ring algorithms (bandwidth-optimal
/// all-reduce), recursive doubling (latency-optimal), and sparse
/// collectives. All collectives are SPMD: every rank of the group must
/// call the same sequence of operations.
pub type ThreadCommunicator = WorkerCommunicator<ThreadTransport>;

impl ThreadCommunicator {
    /// The one member of a group of one (see [`LocalCommunicator`]).
    pub fn new() -> Self {
        let mut group = ThreadGroup::new(1);
        // allow_verify(reason = "a group of one has exactly one member")
        group.pop().expect("a group of one has one member")
    }
}

impl Default for ThreadCommunicator {
    fn default() -> Self {
        ThreadCommunicator::new()
    }
}

/// Departure and abort state shared by every member of a [`ThreadGroup`].
struct GroupState {
    /// Fast path for [`GroupState::departed`]: set once any rank departs,
    /// so healthy receive loops skip the lock entirely.
    any_departed: AtomicBool,
    /// Physical ranks that have departed (worker thread panicked or
    /// communicator dropped mid-unwind).
    departed: Mutex<BTreeSet<usize>>,
    /// Epoch fence: collectives running at an epoch *below* this value
    /// must abort. A rank departing at epoch `e` (or a schedule mismatch
    /// detected at epoch `e`) raises it to `e + 1`; a successful reform
    /// advances the survivors' epoch up to the fence, so post-reform
    /// collectives run unimpeded.
    abort_epoch: AtomicU64,
}

impl GroupState {
    fn new() -> Arc<GroupState> {
        Arc::new(GroupState {
            any_departed: AtomicBool::new(false),
            departed: Mutex::new(BTreeSet::new()),
            abort_epoch: AtomicU64::new(0),
        })
    }

    /// Records `physical` as departed at `epoch` and raises the fence.
    fn mark_departed(&self, physical: usize, epoch: u64) {
        self.departed
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(physical);
        self.any_departed.store(true, Ordering::SeqCst);
        self.abort_epoch.fetch_max(epoch + 1, Ordering::SeqCst);
    }

    /// Raises the fence without a departure — a schedule mismatch leaves
    /// the group inconsistent but nobody dead, and peers then observe
    /// [`CommError::WorkerPanicked`] rather than `MembershipChanged`.
    fn abort(&self, epoch: u64) {
        self.abort_epoch.fetch_max(epoch + 1, Ordering::SeqCst);
    }

    /// The departed ranks among `members`, sorted ascending.
    fn departed_among(&self, members: &[usize]) -> Vec<usize> {
        if !self.any_departed.load(Ordering::SeqCst) {
            return Vec::new();
        }
        self.departed
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .copied()
            .filter(|r| members.contains(r))
            .collect()
    }

    /// The error a collective running at `epoch` over `members` must
    /// abort with, if any: a departed member beats the fence (it names
    /// who to reform around), the fence alone means an aborted-but-intact
    /// group.
    fn abort_error(&self, epoch: u64, members: &[usize]) -> Option<CommError> {
        let departed = self.departed_among(members);
        if !departed.is_empty() {
            return Some(CommError::MembershipChanged { epoch, departed });
        }
        if self.abort_epoch.load(Ordering::SeqCst) > epoch {
            return Some(CommError::WorkerPanicked);
        }
        None
    }
}

/// The mailbox transport of one [`ThreadGroup`] rank. Lives inside its
/// [`ThreadCommunicator`] until a comm worker is spawned, then moves into
/// the worker thread (collectives keep running the same [`crate::ring`]
/// algorithms on it either way).
///
/// Every dense exchange is single-copy: the send leg lends its borrowed
/// slice to the peer, which reads it in place — folding it into its own
/// chunk or copying it once into its destination — and only a loan the
/// peer has not picked up by the end of the exchange is copied. A dense
/// payload therefore travels from `exchange_*` to `exchange_*` only:
/// [`Transport::recv_from`] takes owned messages (tokens, sparse sets),
/// and either side meeting the other's kind reports
/// [`CommError::ProtocolMismatch`].
pub struct ThreadTransport {
    /// Group state. The physical rank is the inbox index peers use; every
    /// outgoing message is stamped with the epoch so pre-reform stragglers
    /// can be told apart from post-reform traffic.
    view: GroupView,
    /// Sender to each rank's inbox (index = destination *physical* rank).
    peers: Vec<Sender<(usize, u64, Mail)>>,
    /// This rank's inbox: `(physical source, epoch, mail)`.
    inbox: Receiver<(usize, u64, Mail)>,
    /// Out-of-order mail buffered per *physical* source rank, with the
    /// epoch it was sent at.
    pending: Vec<VecDeque<(u64, Mail)>>,
    /// The group's shared departure/abort state.
    group: Arc<GroupState>,
    bytes_sent: Arc<AtomicU64>,
    recorder: RecorderHandle,
    /// Collective-schedule recorder (see [`crate::schedule`]); in
    /// cross-check mode it also tags outgoing messages and verifies
    /// incoming ones at delivery.
    tracer: ScheduleTracer,
}

impl Drop for ThreadTransport {
    fn drop(&mut self) {
        // Same recording from the comm worker's side: if the worker thread
        // unwinds mid-collective, its transport drop tells the group.
        if std::thread::panicking() {
            self.group
                .mark_departed(self.view.physical(), self.view.epoch());
        }
    }
}

impl Transport for ThreadTransport {
    fn rank(&self) -> usize {
        self.view.rank()
    }

    fn world_size(&self) -> usize {
        self.view.world_size()
    }

    fn send_to(&mut self, dest: usize, msg: WireMsg) -> Result<(), CommError> {
        // Cross-check mode: the message travels wrapped with this rank's
        // schedule position (tag bytes are framing, not payload).
        self.post(dest, msg.payload_bytes(), |tag| {
            Mail::Msg(match tag {
                Some(tag) => WireMsg::Tagged(tag, Box::new(msg)),
                None => msg,
            })
        })
    }

    fn recv_from(&mut self, src: usize) -> Result<WireMsg, CommError> {
        match self.recv_mail(src)? {
            Mail::Msg(msg) => Ok(msg),
            // A lent payload is dense: only `exchange_*` receives it.
            Mail::Loan(..) => Err(CommError::ProtocolMismatch),
        }
    }

    fn exchange_f32s(
        &mut self,
        send: Option<(usize, &[f32])>,
        recv: Option<(usize, &mut [f32])>,
    ) -> Result<(), CommError> {
        self.exchange_into(send, recv)
    }

    fn exchange_u32s(
        &mut self,
        send: Option<(usize, &[u32])>,
        recv: Option<(usize, &mut [u32])>,
    ) -> Result<(), CommError> {
        self.exchange_into(send, recv)
    }

    fn exchange_fold_f32s(
        &mut self,
        send: Option<(usize, &[f32])>,
        src: usize,
        len: usize,
        fold: &mut dyn FnMut(&[f32]),
    ) -> Result<(), CommError> {
        self.exchange(send, Some((src, len, fold)))
    }
}

/// The receive leg of a dense exchange: source rank, expected length,
/// and what to do with the payload once it has that length.
type DenseRecv<'a, T> = Option<(usize, usize, &'a mut dyn FnMut(&[T]))>;

impl ThreadTransport {
    /// Accounts `bytes` of payload and posts the mail `wrap` builds
    /// around this rank's schedule tag ([`VerifyMode::CrossCheck`] only)
    /// to `dest`'s inbox. Never waits for the peer: inboxes are
    /// unbounded.
    fn post(
        &mut self,
        dest: usize,
        bytes: u64,
        wrap: impl FnOnce(Option<ScheduleTag>) -> Mail,
    ) -> Result<(), CommError> {
        let Some(&phys) = self.view.members().get(dest) else {
            return Err(CommError::InvalidRank {
                rank: dest,
                world_size: self.view.world_size(),
            });
        };
        self.bytes_sent.fetch_add(bytes, Ordering::SeqCst);
        if self.recorder.enabled() {
            self.recorder.add(keys::COMM_BYTES_SENT, bytes);
        }
        self.peers[phys]
            .send((
                self.view.physical(),
                self.view.epoch(),
                wrap(self.tracer.tag()),
            ))
            // A dropped inbox is a dead rank; name it if its departure is
            // already recorded.
            .map_err(|_| self.departure_error())
    }

    /// One dense exchange: lends `send` to its destination for as long as
    /// the receive leg runs, and settles the loan on the way out (see
    /// [`Loan`]) — so the send never waits for the peer to pick it up,
    /// and a payload sent is delivered even when the receive leg fails.
    fn exchange<T: Lendable>(
        &mut self,
        send: Option<(usize, &[T])>,
        recv: DenseRecv<'_, T>,
    ) -> Result<(), CommError> {
        let Some((dest, payload)) = send else {
            return self.recv_dense(recv);
        };
        Loan::lend(payload, |loan| {
            self.post(dest, 4 * payload.len() as u64, |tag| {
                Mail::Loan(tag, T::lending(loan))
            })?;
            self.recv_dense(recv)
        })
    }

    /// [`ThreadTransport::exchange`] whose receive leg copies the payload
    /// into `out`.
    fn exchange_into<T: Lendable>(
        &mut self,
        send: Option<(usize, &[T])>,
        recv: Option<(usize, &mut [T])>,
    ) -> Result<(), CommError> {
        match recv {
            Some((src, out)) => self.exchange(
                send,
                Some((src, out.len(), &mut |v| out.copy_from_slice(v))),
            ),
            None => self.exchange(send, None),
        }
    }

    /// Receives a lent payload of exactly `len` elements from `src` and
    /// hands it to `read`: in place while the peer's loan is still lent,
    /// else the settled copy.
    fn recv_dense<T: Lendable>(&mut self, recv: DenseRecv<'_, T>) -> Result<(), CommError> {
        let Some((src, len, read)) = recv else {
            return Ok(());
        };
        let Mail::Loan(_, lending) = self.recv_mail(src)? else {
            return Err(CommError::ProtocolMismatch);
        };
        let loan = T::loan(lending).ok_or(CommError::ProtocolMismatch)?;
        loan.take(|payload| {
            if payload.len() != len {
                return Err(CommError::LengthMismatch {
                    expected: len,
                    actual: payload.len(),
                });
            }
            read(payload);
            Ok(())
        })
        .unwrap_or(Err(CommError::ProtocolMismatch))
    }

    /// Receives the next mail from virtual rank `src`, schedule-checked.
    fn recv_mail(&mut self, src: usize) -> Result<Mail, CommError> {
        let Some(&phys) = self.view.members().get(src) else {
            return Err(CommError::InvalidRank {
                rank: src,
                world_size: self.view.world_size(),
            });
        };
        let current = self.view.epoch();
        // Discard buffered stragglers from before the last reform, then
        // deliver a current-epoch mail if one is queued. A *future*
        // epoch mail stays buffered: it belongs to a membership this
        // rank has not reformed into yet (the abort check below is what
        // gets us there).
        while self.pending[phys]
            .front()
            .is_some_and(|&(epoch, _)| epoch < current)
        {
            self.pending[phys].pop_front();
        }
        if self.pending[phys]
            .front()
            .is_some_and(|&(epoch, _)| epoch == current)
        {
            if let Some((_, mail)) = self.pending[phys].pop_front() {
                return self.deliver(mail);
            }
        }
        let deadline = std::time::Instant::now() + RECV_TIMEOUT;
        loop {
            if let Some(err) = self.group.abort_error(current, self.view.members()) {
                return Err(err);
            }
            match self.inbox.recv_timeout(PANIC_POLL) {
                Ok((from, epoch, mail)) => {
                    if epoch < current {
                        // A straggler from before the last reform; its
                        // collective already failed everywhere.
                        continue;
                    }
                    // Count at inbox receipt so buffered out-of-order
                    // mail is still counted exactly once.
                    if self.recorder.enabled() {
                        self.recorder
                            .add(keys::COMM_BYTES_RECV, mail.payload_bytes());
                    }
                    if from == phys && epoch == current {
                        return self.deliver(mail);
                    }
                    self.pending[from].push_back((epoch, mail));
                }
                Err(RecvTimeoutError::Timeout) => {
                    if std::time::Instant::now() >= deadline {
                        return Err(CommError::PeerDisconnected);
                    }
                }
                Err(RecvTimeoutError::Disconnected) => return Err(CommError::PeerDisconnected),
            }
        }
    }

    /// Delivery-time schedule check (see [`crate::schedule::deliver_checked`]),
    /// for owned messages and loans alike. A mismatch also raises the
    /// group's abort fence so peers blocked mid-collective unblock within
    /// [`PANIC_POLL`] instead of waiting out the peer timeout.
    fn deliver(&self, mail: Mail) -> Result<Mail, CommError> {
        let out = match mail {
            Mail::Msg(msg) => crate::schedule::deliver_checked(&self.tracer, msg).map(Mail::Msg),
            Mail::Loan(Some(tag), lending) => {
                self.tracer.check(&tag).map(|()| Mail::Loan(None, lending))
            }
            untagged => Ok(untagged),
        };
        if matches!(out, Err(CommError::ScheduleMismatch { .. })) {
            self.group.abort(self.view.epoch());
        }
        out
    }

    /// The structured error for a failed point-to-point operation: a
    /// recorded departure beats the generic disconnect.
    fn departure_error(&self) -> CommError {
        self.group
            .abort_error(self.view.epoch(), self.view.members())
            .unwrap_or(CommError::PeerDisconnected)
    }
}

/// One item of a [`ThreadTransport`] inbox.
enum Mail {
    /// An owned message (tokens, sparse sets, [`Transport::send_to`]).
    Msg(WireMsg),
    /// A dense payload an exchange lent, with the sender's schedule tag
    /// ([`VerifyMode::CrossCheck`] only; checked and cleared at delivery).
    Loan(Option<ScheduleTag>, Lending),
}

impl Mail {
    /// Payload bytes, counted as [`WireMsg::payload_bytes`] counts them.
    fn payload_bytes(&self) -> u64 {
        match self {
            Mail::Msg(msg) => msg.payload_bytes(),
            Mail::Loan(_, Lending::F32(loan)) => 4 * loan.len() as u64,
            Mail::Loan(_, Lending::U32(loan)) => 4 * loan.len() as u64,
        }
    }
}

/// A lent payload of either dense element type.
enum Lending {
    F32(Arc<Loan<f32>>),
    U32(Arc<Loan<u32>>),
}

/// The element types a dense exchange lends, each with its own
/// [`Lending`] variant.
trait Lendable: Copy + Sync + 'static {
    fn lending(loan: Arc<Loan<Self>>) -> Lending;

    /// The loan `lending` holds if it lends this element type.
    fn loan(lending: Lending) -> Option<Arc<Loan<Self>>>;
}

impl Lendable for f32 {
    fn lending(loan: Arc<Loan<f32>>) -> Lending {
        Lending::F32(loan)
    }

    fn loan(lending: Lending) -> Option<Arc<Loan<f32>>> {
        match lending {
            Lending::F32(loan) => Some(loan),
            Lending::U32(_) => None,
        }
    }
}

impl Lendable for u32 {
    fn lending(loan: Arc<Loan<u32>>) -> Lending {
        Lending::U32(loan)
    }

    fn loan(lending: Lending) -> Option<Arc<Loan<u32>>> {
        match lending {
            Lending::U32(loan) => Some(loan),
            Lending::F32(_) => None,
        }
    }
}

/// The loan of a send slice: the one place this crate dereferences a raw
/// pointer. Private to this module so that nothing but [`Loan::lend`]
/// can create a lent state.
mod loan {
    use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

    /// A dense payload an exchange lends to its peer instead of copying
    /// it: a lazily made eager message.
    ///
    /// The sender posts a loan of its borrowed send slice and goes on to
    /// its receive leg without waiting. The peer reads the slice in place
    /// — folding it into its own chunk or copying it once into its
    /// destination — and marks the loan taken. When the sender's exchange
    /// ends first, its [`Settle`] guard copies the slice into the loan,
    /// and the peer later reads that copy. Either way the sender never
    /// waits for the peer to be scheduled (only, at most, for a read
    /// already in progress), and exactly one of the two happens.
    pub(super) struct Loan<T> {
        len: usize,
        state: Mutex<LoanState<T>>,
    }

    enum LoanState<T> {
        /// The lender's slice; its exchange is still running.
        Lent(LentPtr<T>),
        /// Settled: the lender's exchange ended before the peer read it.
        Copied(Vec<T>),
        /// Read by the peer.
        Taken,
    }

    /// The start of a lent slice.
    struct LentPtr<T>(*const T);

    // SAFETY: a `LentPtr` crosses to the peer's thread only inside a
    // `Loan`, which dereferences it solely as a shared `&[T]` (see
    // `LoanState::payload`) and never drops or mutates a `T` through it —
    // sound to share across threads when `T: Sync`.
    unsafe impl<T: Sync> Send for LentPtr<T> {}

    impl<T> LoanState<T> {
        /// The payload, borrowed from the locked state: the lender's
        /// slice while lent, the copy once settled.
        fn payload(&self, len: usize) -> Option<&[T]> {
            match self {
                LoanState::Lent(ptr) => {
                    // SAFETY: `Lent` is created only by `Loan::lend`, from
                    // its `payload: &[T]` of `len` elements, and left only
                    // under the loan's lock — by a read (`Taken`) or by
                    // the `Settle` guard `lend` drops before it returns or
                    // unwinds (`Copied`), i.e. while that borrow is still
                    // live. The state is reachable only through the lock
                    // guard and the slice returned here borrows it, so
                    // every dereference happens under the lock, in state
                    // `Lent`, within the lender's borrow: the memory is
                    // valid, initialised, `len` elements long, and not
                    // mutated (the lender holds it by shared reference).
                    Some(unsafe { std::slice::from_raw_parts(ptr.0, len) })
                }
                LoanState::Copied(copy) => Some(copy),
                LoanState::Taken => None,
            }
        }
    }

    impl<T: Copy> Loan<T> {
        /// Lends `payload` for the duration of `scope`, which gets the
        /// loan to post. On every way out of `scope` — success, error,
        /// unwind — the loan is settled, so none outlives the borrow.
        pub(super) fn lend<R>(payload: &[T], scope: impl FnOnce(Arc<Loan<T>>) -> R) -> R {
            let guard = Settle(Arc::new(Loan {
                len: payload.len(),
                state: Mutex::new(LoanState::Lent(LentPtr(payload.as_ptr()))),
            }));
            scope(Arc::clone(&guard.0))
        }

        /// Elements lent.
        pub(super) fn len(&self) -> usize {
            self.len
        }

        /// Hands the payload to `read` — in place while still lent, else
        /// the settled copy — and marks the loan taken; `None` if it
        /// already was.
        pub(super) fn take<R>(&self, read: impl FnOnce(&[T]) -> R) -> Option<R> {
            let mut state = self.lock();
            let out = state.payload(self.len).map(read);
            *state = LoanState::Taken;
            out
        }

        /// Every update of the state is one assignment, so a guard whose
        /// holder panicked (a reader's `read`) still guards a valid state.
        fn lock(&self) -> MutexGuard<'_, LoanState<T>> {
            self.state.lock().unwrap_or_else(PoisonError::into_inner)
        }

        /// Where the loan stands, for tests that force each path.
        #[cfg(test)]
        pub(super) fn phase(&self) -> &'static str {
            match *self.lock() {
                LoanState::Lent(_) => "lent",
                LoanState::Copied(_) => "copied",
                LoanState::Taken => "taken",
            }
        }
    }

    /// The lender's guard of a [`Loan`], dropped by [`Loan::lend`]: the
    /// one place a loan is settled.
    struct Settle<T: Copy>(Arc<Loan<T>>);

    impl<T: Copy> Drop for Settle<T> {
        fn drop(&mut self) {
            let loan = &self.0;
            let mut state = loan.lock();
            if let LoanState::Lent(_) = *state {
                if let Some(lent) = state.payload(loan.len) {
                    // allow_verify(reason = "late-peer settle: the exchange ends before the peer read its loan")
                    let copy = lent.to_vec();
                    *state = LoanState::Copied(copy);
                }
            }
        }
    }
}

use loan::Loan;

impl WorkerTransport for ThreadTransport {
    fn execute(&mut self, op: BorrowedOp<'_>) -> Result<CollectiveResult, CommError> {
        execute_ring(self, op)
    }

    fn view(&self) -> &GroupView {
        &self.view
    }

    fn recorder(&self) -> &RecorderHandle {
        &self.recorder
    }

    fn set_recorder(&mut self, recorder: RecorderHandle) {
        self.recorder = recorder;
    }

    fn reform(&mut self) -> Result<GroupView, CommError> {
        let departed = self.group.departed_among(self.view.members());
        if departed.is_empty() {
            // Nobody left; reform is idempotent.
            return Ok(self.view.clone());
        }
        self.view = self.view.reformed(&departed)?;
        // Drop buffered traffic from the failed epoch.
        let current = self.view.epoch();
        for queue in &mut self.pending {
            while queue.front().is_some_and(|&(epoch, _)| epoch < current) {
                queue.pop_front();
            }
        }
        // Record the reform and cross-check its digest among survivors.
        confirm_reform(self)
    }

    fn tracer(&mut self) -> Option<&mut ScheduleTracer> {
        Some(&mut self.tracer)
    }

    fn departure_notice(&self) -> Option<DepartureNotice> {
        let (group, physical) = (Arc::clone(&self.group), self.view.physical());
        Some(Box::new(move |epoch| group.mark_departed(physical, epoch)))
    }
}

/// Factory for ring communicator groups backed by worker threads.
#[derive(Debug)]
pub struct ThreadGroup {
    _private: (),
}

impl ThreadGroup {
    /// Creates `world_size` connected [`ThreadCommunicator`]s, one per rank,
    /// in rank order. Move each into its worker thread.
    ///
    /// # Panics
    ///
    /// Panics if `world_size == 0`.
    #[allow(clippy::new_ret_no_self)] // constructs the whole group, not a ThreadGroup value
    pub fn new(world_size: usize) -> Vec<ThreadCommunicator> {
        ThreadGroup::new_with(world_size, VerifyMode::default())
    }

    /// [`ThreadGroup::new`] with an explicit schedule-verification mode
    /// (see [`crate::schedule`]). [`VerifyMode::CrossCheck`] makes a
    /// divergent collective schedule fail fast with
    /// [`CommError::ScheduleMismatch`] at the first divergent operation.
    ///
    /// # Panics
    ///
    /// Panics if `world_size == 0`.
    pub fn new_with(world_size: usize, verify: VerifyMode) -> Vec<ThreadCommunicator> {
        ThreadGroup::new_with_topology(Topology::flat(world_size), verify)
    }

    /// [`ThreadGroup::new_with`] over an explicit [`Topology`]. A
    /// two-level arrangement makes all-reduce run the hierarchical
    /// ring-of-rings schedule (see [`crate::hierarchy`]) and is recorded
    /// as schedule op 0, so a flat and a hierarchical schedule over the
    /// same collectives can never digest-collide. (Flat groups record
    /// nothing — the flat ring is the implicit default, keeping existing
    /// flat traces stable.)
    ///
    /// # Panics
    ///
    /// Panics if `topology.world_size() == 0`.
    pub fn new_with_topology(topology: Topology, verify: VerifyMode) -> Vec<ThreadCommunicator> {
        ThreadGroup::transports(topology, verify)
            .into_iter()
            .map(|(transport, schedule)| {
                let bytes_sent = Arc::clone(&transport.bytes_sent);
                WorkerCommunicator::with_transport(transport, bytes_sent, schedule, verify)
            })
            .collect()
    }

    /// One connected transport per rank, in rank order, each with the
    /// schedule cell its tracer records into.
    fn transports(
        topology: Topology,
        verify: VerifyMode,
    ) -> Vec<(ThreadTransport, Arc<ScheduleCell>)> {
        let world_size = topology.world_size();
        assert!(world_size > 0, "world_size must be positive");
        let mut inboxes = Vec::with_capacity(world_size);
        let mut senders = Vec::with_capacity(world_size);
        for _ in 0..world_size {
            let (tx, rx) = unbounded();
            senders.push(tx);
            inboxes.push(rx);
        }
        let group = GroupState::new();
        inboxes
            .into_iter()
            .enumerate()
            .map(|(rank, inbox)| {
                let schedule = Arc::new(ScheduleCell::default());
                let mut tracer = ScheduleTracer::new(verify, Arc::clone(&schedule));
                if !topology.is_flat() {
                    tracer.begin_op(OpKind::Topology, world_size as u64, topology.fingerprint());
                }
                let transport = ThreadTransport {
                    view: GroupView::initial(rank, topology),
                    peers: senders.clone(),
                    inbox,
                    pending: (0..world_size).map(|_| VecDeque::new()).collect(),
                    group: Arc::clone(&group),
                    bytes_sent: Arc::new(AtomicU64::new(0)),
                    recorder: noop(),
                    tracer,
                };
                (transport, schedule)
            })
            .collect()
    }

    /// Spawns `world_size` scoped worker threads, hands each its
    /// communicator, and returns their results in rank order.
    ///
    /// # Panics
    ///
    /// Panics if any worker panics, or if `world_size == 0`. Use
    /// [`ThreadGroup::try_run`] to observe worker failures as errors.
    pub fn run<T, F>(world_size: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(ThreadCommunicator) -> T + Sync,
    {
        // allow_verify(reason = "test harness entry point; worker panics are the caller's test failures, and try_run is the non-panicking form")
        ThreadGroup::try_run(world_size, f).expect("worker thread panicked")
    }

    /// [`ThreadGroup::try_run`] with an explicit schedule-verification
    /// mode (see [`ThreadGroup::new_with`]).
    ///
    /// # Errors
    ///
    /// Returns [`CommError::WorkerPanicked`] if any worker thread panicked,
    /// and [`CommError::InvalidRank`] if `world_size == 0`.
    pub fn try_run_with<T, F>(
        world_size: usize,
        verify: VerifyMode,
        f: F,
    ) -> Result<Vec<T>, CommError>
    where
        T: Send,
        F: Fn(ThreadCommunicator) -> T + Sync,
    {
        ThreadGroup::try_run_with_topology(Topology::flat(world_size), verify, f)
    }

    /// [`ThreadGroup::try_run_with`] over an explicit [`Topology`] (see
    /// [`ThreadGroup::new_with_topology`]).
    ///
    /// # Errors
    ///
    /// Returns [`CommError::WorkerPanicked`] if any worker thread panicked,
    /// and [`CommError::InvalidRank`] if the topology is empty.
    pub fn try_run_with_topology<T, F>(
        topology: Topology,
        verify: VerifyMode,
        f: F,
    ) -> Result<Vec<T>, CommError>
    where
        T: Send,
        F: Fn(ThreadCommunicator) -> T + Sync,
    {
        if topology.world_size() == 0 {
            return Err(CommError::InvalidRank {
                rank: 0,
                world_size: 0,
            });
        }
        let comms = ThreadGroup::new_with_topology(topology, verify);
        std::thread::scope(|scope| {
            let handles: Vec<_> = comms
                .into_iter()
                .map(|comm| scope.spawn(|| f(comm)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().map_err(|_| CommError::WorkerPanicked))
                .collect()
        })
    }

    /// [`ThreadGroup::run`] without the panic: a panicking worker surfaces
    /// as [`CommError::WorkerPanicked`] instead of propagating.
    ///
    /// The remaining workers still run to completion: a rank that dies
    /// mid-collective shows up on its peers' collective paths as
    /// [`CommError::WorkerPanicked`] (observed via the group's panic flag
    /// within a bounded poll interval) or [`CommError::PeerDisconnected`]
    /// (a send to the dead rank's dropped inbox) — never a hang.
    ///
    /// # Errors
    ///
    /// Returns [`CommError::WorkerPanicked`] if any worker thread panicked,
    /// and [`CommError::InvalidRank`] if `world_size == 0`.
    pub fn try_run<T, F>(world_size: usize, f: F) -> Result<Vec<T>, CommError>
    where
        T: Send,
        F: Fn(ThreadCommunicator) -> T + Sync,
    {
        ThreadGroup::try_run_with(world_size, VerifyMode::default(), f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn reduce_op_codes_round_trip() {
        for (op, code) in [(ReduceOp::Sum, 0), (ReduceOp::Mean, 1), (ReduceOp::Max, 2)] {
            assert_eq!(op.code(), code);
            assert_eq!(ReduceOp::from_code(code), Some(op));
        }
        assert_eq!(ReduceOp::from_code(3), None);
    }

    /// Naive reference reduction for validating the ring implementation.
    fn reference_reduce(inputs: &[Vec<f32>], op: ReduceOp) -> Vec<f32> {
        let mut out = inputs[0].clone();
        for input in &inputs[1..] {
            for (o, x) in out.iter_mut().zip(input) {
                match op {
                    ReduceOp::Sum | ReduceOp::Mean => *o += x,
                    ReduceOp::Max => *o = o.max(*x),
                }
            }
        }
        if op == ReduceOp::Mean {
            let inv = 1.0 / inputs.len() as f32;
            for o in &mut out {
                *o *= inv;
            }
        }
        out
    }

    fn random_inputs(p: usize, len: usize, seed: u64) -> Vec<Vec<f32>> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..p)
            .map(|_| (0..len).map(|_| rng.gen_range(-10.0..10.0)).collect())
            .collect()
    }

    #[test]
    fn all_reduce_sum_matches_reference() {
        for p in [1usize, 2, 3, 4, 5, 8] {
            for len in [1usize, 2, 7, 64, 257] {
                let inputs = random_inputs(p, len, (p * 1000 + len) as u64);
                let expected = reference_reduce(&inputs, ReduceOp::Sum);
                let results = ThreadGroup::run(p, |mut comm| {
                    let mut buf = inputs[comm.rank_id().as_usize()].clone();
                    comm.all_reduce(&mut buf, ReduceOp::Sum).unwrap();
                    buf
                });
                for buf in results {
                    for (a, b) in buf.iter().zip(&expected) {
                        assert!((a - b).abs() < 1e-3, "p={p} len={len}: {a} vs {b}");
                    }
                }
            }
        }
    }

    #[test]
    fn all_reduce_mean_and_max() {
        let p = 4;
        let inputs = random_inputs(p, 33, 99);
        for op in [ReduceOp::Mean, ReduceOp::Max] {
            let expected = reference_reduce(&inputs, op);
            let results = ThreadGroup::run(p, |mut comm| {
                let mut buf = inputs[comm.rank_id().as_usize()].clone();
                comm.all_reduce(&mut buf, op).unwrap();
                buf
            });
            for buf in results {
                for (a, b) in buf.iter().zip(&expected) {
                    assert!((a - b).abs() < 1e-4, "{op:?}: {a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn all_reduce_len_smaller_than_world() {
        // Chunking must handle empty chunks when len < p.
        let p = 8;
        let inputs = random_inputs(p, 3, 7);
        let expected = reference_reduce(&inputs, ReduceOp::Sum);
        let results = ThreadGroup::run(p, |mut comm| {
            let mut buf = inputs[comm.rank_id().as_usize()].clone();
            comm.all_reduce(&mut buf, ReduceOp::Sum).unwrap();
            buf
        });
        for buf in results {
            for (a, b) in buf.iter().zip(&expected) {
                assert!((a - b).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn all_gather_f32_rank_order() {
        let p = 5;
        let results = ThreadGroup::run(p, |mut comm| {
            let send = vec![comm.rank_id().as_usize() as f32; 3];
            comm.all_gather_f32(&send).unwrap()
        });
        for out in results {
            assert_eq!(out.len(), p * 3);
            for r in 0..p {
                assert!(out[r * 3..(r + 1) * 3].iter().all(|&v| v == r as f32));
            }
        }
    }

    #[test]
    fn all_gather_u32_rank_order() {
        let p = 3;
        let results = ThreadGroup::run(p, |mut comm| {
            let send = vec![
                comm.rank_id().as_usize() as u32 * 10,
                comm.rank_id().as_usize() as u32 * 10 + 1,
            ];
            comm.all_gather_u32(&send).unwrap()
        });
        for out in results {
            assert_eq!(out, vec![0, 1, 10, 11, 20, 21]);
        }
    }

    #[test]
    fn broadcast_from_each_root() {
        let p = 4;
        for root in 0..p {
            let results = ThreadGroup::run(p, |mut comm| {
                let mut buf = if comm.rank_id().as_usize() == root {
                    vec![42.0, 43.0]
                } else {
                    vec![0.0, 0.0]
                };
                comm.broadcast(&mut buf, root).unwrap();
                buf
            });
            for buf in results {
                assert_eq!(buf, vec![42.0, 43.0], "root={root}");
            }
        }
    }

    #[test]
    fn broadcast_invalid_root_errors() {
        let results = ThreadGroup::run(2, |mut comm| {
            let mut buf = vec![0.0];
            comm.broadcast(&mut buf, 5)
        });
        for r in results {
            assert_eq!(
                r,
                Err(CommError::InvalidRoot {
                    root: 5,
                    world_size: 2
                })
            );
        }
    }

    #[test]
    fn barrier_orders_phases() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let entered = AtomicUsize::new(0);
        let p = 6;
        ThreadGroup::run(p, |mut comm| {
            entered.fetch_add(1, Ordering::SeqCst);
            comm.barrier().unwrap();
            // After the barrier every rank must observe all entries.
            assert_eq!(entered.load(Ordering::SeqCst), p);
        });
    }

    #[test]
    fn ring_all_reduce_volume_is_bandwidth_optimal() {
        // Table II: per-rank transmitted volume of ring all-reduce is
        // 2 (p-1)/p * N elements.
        let p = 4;
        let n = 1024usize;
        let results = ThreadGroup::run(p, |mut comm| {
            let mut buf = vec![1.0f32; n];
            comm.all_reduce(&mut buf, ReduceOp::Sum).unwrap();
            comm.bytes_sent()
        });
        let expected = (2 * (p - 1) * n / p * 4) as u64;
        for bytes in results {
            assert_eq!(bytes, expected);
        }
    }

    #[test]
    fn all_gather_volume_is_linear_in_world_size() {
        // Table II: all-gather transmits (p-1) * k elements per rank.
        let p = 4;
        let k = 100usize;
        let results = ThreadGroup::run(p, |mut comm| {
            let send = vec![0.5f32; k];
            comm.all_gather_f32(&send).unwrap();
            comm.bytes_sent()
        });
        let expected = ((p - 1) * k * 4) as u64;
        for bytes in results {
            assert_eq!(bytes, expected);
        }
    }

    #[test]
    fn length_mismatch_detected() {
        let results = ThreadGroup::run(2, |mut comm| {
            let mut buf = vec![
                0.0f32;
                if comm.rank_id().as_usize() == 0 {
                    10
                } else {
                    12
                }
            ];
            comm.all_reduce(&mut buf, ReduceOp::Sum)
        });
        assert!(results
            .iter()
            .any(|r| matches!(r, Err(CommError::LengthMismatch { .. }))));
    }

    #[test]
    fn local_communicator_is_identity() {
        let mut comm = LocalCommunicator::new();
        assert_eq!(comm.world_size(), 1);
        let mut buf = vec![3.0, 4.0];
        comm.all_reduce(&mut buf, ReduceOp::Mean).unwrap();
        assert_eq!(buf, vec![3.0, 4.0]);
        assert_eq!(comm.all_gather_f32(&buf).unwrap(), buf);
        assert_eq!(comm.all_gather_u32(&[1, 2]).unwrap(), vec![1, 2]);
        comm.barrier().unwrap();
        assert_eq!(comm.bytes_sent(), 0);
    }

    #[test]
    fn send_recv_exchanges_pairwise() {
        let results = ThreadGroup::run(4, |mut comm| {
            let peer = comm.rank_id().as_usize() ^ 1;
            let send = vec![comm.rank_id().as_usize() as f32; 3];
            comm.send_recv_f32(peer, &send).unwrap()
        });
        assert_eq!(results[0], vec![1.0; 3]);
        assert_eq!(results[1], vec![0.0; 3]);
        assert_eq!(results[2], vec![3.0; 3]);
        assert_eq!(results[3], vec![2.0; 3]);
    }

    #[test]
    fn recursive_doubling_matches_ring_all_reduce() {
        for p in [1usize, 2, 3, 4, 5, 7, 8] {
            for len in [1usize, 17, 64] {
                let inputs = random_inputs(p, len, (p * 31 + len) as u64);
                let expected = reference_reduce(&inputs, ReduceOp::Sum);
                let results = ThreadGroup::run(p, |mut comm| {
                    let mut buf = inputs[comm.rank_id().as_usize()].clone();
                    comm.all_reduce_recursive_doubling(&mut buf, ReduceOp::Sum)
                        .unwrap();
                    buf
                });
                for buf in results {
                    for (a, b) in buf.iter().zip(&expected) {
                        assert!((a - b).abs() < 1e-3, "p={p} len={len}: {a} vs {b}");
                    }
                }
            }
        }
    }

    #[test]
    fn recursive_doubling_mean() {
        let p = 6;
        let results = ThreadGroup::run(p, |mut comm| {
            let mut buf = vec![comm.rank_id().as_usize() as f32; 4];
            comm.all_reduce_recursive_doubling(&mut buf, ReduceOp::Mean)
                .unwrap();
            buf
        });
        for buf in results {
            assert!(buf.iter().all(|&v| (v - 2.5).abs() < 1e-5));
        }
    }

    #[test]
    fn global_topk_sums_overlapping_coordinates() {
        // Ranks contribute overlapping sparse vectors; the exact global
        // top-2 of the sum is coordinate 5 (sum 9) and coordinate 1 (6).
        let contributions = [
            (vec![1u32, 5], vec![2.0f32, 4.0]),
            (vec![1u32, 7], vec![2.0f32, 1.0]),
            (vec![1u32, 5], vec![2.0f32, 5.0]),
        ];
        let results = ThreadGroup::run(3, |mut comm| {
            let (idx, val) = &contributions[comm.rank_id().as_usize()];
            comm.global_topk(idx, val, 2).unwrap()
        });
        for (idx, val) in results {
            assert_eq!(idx, vec![1, 5]);
            assert_eq!(val, vec![6.0, 9.0]);
        }
    }

    #[test]
    fn global_topk_all_ranks_agree_on_random_input() {
        use rand::Rng;
        use rand::SeedableRng;
        for p in [2usize, 3, 4, 5, 8] {
            let contributions: Vec<(Vec<u32>, Vec<f32>)> = (0..p)
                .map(|r| {
                    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(r as u64 + 99);
                    let mut idx: Vec<u32> = (0..8).map(|_| rng.gen_range(0..40u32)).collect();
                    idx.sort_unstable();
                    idx.dedup();
                    let val = idx.iter().map(|_| rng.gen_range(-3.0f32..3.0)).collect();
                    (idx, val)
                })
                .collect();
            let results = ThreadGroup::run(p, |mut comm| {
                let (idx, val) = &contributions[comm.rank_id().as_usize()];
                comm.global_topk(idx, val, 4).unwrap()
            });
            for r in &results[1..] {
                assert_eq!(r, &results[0], "p={p}: ranks disagree");
            }
            assert!(results[0].0.len() <= 4);
        }
    }

    #[test]
    fn local_communicator_global_topk_truncates() {
        let mut comm = LocalCommunicator::new();
        let (idx, val) = comm.global_topk(&[3, 9, 1], &[1.0, -5.0, 0.5], 2).unwrap();
        assert_eq!(idx, vec![3, 9]);
        assert_eq!(val, vec![1.0, -5.0]);
    }

    #[test]
    fn sequential_collectives_do_not_interfere() {
        // Run several different collectives back to back on the same group.
        let p = 3;
        ThreadGroup::run(p, |mut comm| {
            let mut a = vec![comm.rank_id().as_usize() as f32; 8];
            comm.all_reduce(&mut a, ReduceOp::Sum).unwrap();
            assert!(a.iter().all(|&v| v == 3.0));
            let g = comm
                .all_gather_u32(&[comm.rank_id().as_usize() as u32])
                .unwrap();
            assert_eq!(g, vec![0, 1, 2]);
            comm.barrier().unwrap();
            let mut b = vec![
                if comm.rank_id().as_usize() == 1 {
                    7.0
                } else {
                    0.0
                };
                4
            ];
            comm.broadcast(&mut b, 1).unwrap();
            assert!(b.iter().all(|&v| v == 7.0));
        });
    }

    #[test]
    fn worker_panic_mid_collective_surfaces_within_bounded_wait() {
        // Regression test for the hang-hardening: rank 1 dies mid
        // all-reduce; the survivors must fail fast with a structured error
        // (WorkerPanicked via the group's panic flag, or PeerDisconnected
        // for sends addressed at the dead inbox) — far sooner than the
        // 30-second peer timeout, let alone "forever".
        let start = std::time::Instant::now();
        let result = ThreadGroup::try_run(3, |mut comm| {
            if comm.rank_id().as_usize() == 1 {
                // Die after peers have committed to the collective.
                std::thread::sleep(std::time::Duration::from_millis(30));
                panic!("injected worker death");
            }
            let mut buf = vec![comm.rank_id().as_usize() as f32; 64];
            comm.all_reduce(&mut buf, ReduceOp::Sum)
        });
        assert_eq!(result, Err(CommError::WorkerPanicked));
        assert!(
            start.elapsed() < std::time::Duration::from_secs(10),
            "survivors blocked {:?} — panic flag not observed",
            start.elapsed()
        );
    }

    #[test]
    fn surviving_ranks_observe_membership_changed_error() {
        // Same scenario, but capture the survivors' error values: every
        // survivor must see MembershipChanged naming the departed rank —
        // the structured signal that reform() would succeed — rather than
        // an opaque panic/disconnect error or a hang.
        let errors = std::sync::Mutex::new(Vec::new());
        let _ = ThreadGroup::try_run(3, |mut comm| {
            if comm.rank_id().as_usize() == 1 {
                std::thread::sleep(std::time::Duration::from_millis(30));
                panic!("injected worker death");
            }
            let mut buf = vec![comm.rank_id().as_usize() as f32; 64];
            let r = comm.all_reduce(&mut buf, ReduceOp::Sum);
            errors.lock().unwrap().push((comm.rank_id().as_usize(), r));
        });
        let errors = errors.into_inner().unwrap();
        assert_eq!(errors.len(), 2, "both survivors must finish");
        for (rank, r) in &errors {
            match r {
                Err(CommError::MembershipChanged { epoch, departed }) => {
                    assert_eq!(*epoch, 0, "death happened in the initial epoch");
                    assert_eq!(departed, &vec![1], "rank {rank} misnamed the departed");
                }
                other => panic!("rank {rank} got {other:?}, expected MembershipChanged"),
            }
        }
    }

    #[test]
    fn dispatched_all_reduce_is_bit_exact_with_blocking() {
        let p = 4;
        let inputs = random_inputs(p, 97, 123);
        let blocking = ThreadGroup::run(p, |mut comm| {
            let mut buf = inputs[comm.rank_id().as_usize()].clone();
            comm.all_reduce(&mut buf, ReduceOp::Mean).unwrap();
            buf
        });
        let dispatched = ThreadGroup::run(p, |mut comm| {
            let pending =
                comm.all_reduce_start(inputs[comm.rank_id().as_usize()].clone(), ReduceOp::Mean);
            pending.wait().unwrap().into_f32().unwrap()
        });
        for (a, b) in blocking.iter().zip(&dispatched) {
            assert_eq!(
                a.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                b.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            );
        }
    }

    #[test]
    fn multiple_in_flight_ops_complete_in_fifo_order() {
        let p = 3;
        let results = ThreadGroup::run(p, |mut comm| {
            let r = comm.rank_id().as_usize();
            let ops = vec![
                comm.dispatch(CollectiveOp::AllReduce {
                    buf: vec![r as f32; 5],
                    op: ReduceOp::Sum,
                }),
                comm.dispatch(CollectiveOp::AllGatherU32 {
                    send: vec![r as u32],
                }),
                comm.dispatch(CollectiveOp::AllReduce {
                    buf: vec![1.0; 2],
                    op: ReduceOp::Sum,
                }),
            ];
            crate::nonblocking::wait_all(ops).unwrap()
        });
        for out in results {
            assert_eq!(out[0], CollectiveResult::F32(vec![3.0; 5]));
            assert_eq!(out[1], CollectiveResult::U32(vec![0, 1, 2]));
            assert_eq!(out[2], CollectiveResult::F32(vec![3.0; 2]));
        }
    }

    #[test]
    fn blocking_calls_after_dispatch_route_through_the_worker() {
        // Once a worker exists, a blocking collective must queue behind
        // the dispatched ones rather than race them on the transport.
        let p = 4;
        let results = ThreadGroup::run(p, |mut comm| {
            let pending =
                comm.all_reduce_start(vec![comm.rank_id().as_usize() as f32; 8], ReduceOp::Max);
            let mut buf = vec![1.0f32; 4];
            comm.all_reduce(&mut buf, ReduceOp::Sum).unwrap();
            let first = pending.wait().unwrap().into_f32().unwrap();
            (first, buf)
        });
        for (first, second) in results {
            assert_eq!(first, vec![3.0; 8]);
            assert_eq!(second, vec![4.0; 4]);
        }
    }

    #[test]
    fn wait_surfaces_structured_error_when_peer_dies() {
        // A peer that panics with ops in flight must surface as a
        // structured error at `wait`, never a hang.
        let start = std::time::Instant::now();
        let result = ThreadGroup::try_run(3, |mut comm| {
            if comm.rank_id().as_usize() == 1 {
                std::thread::sleep(std::time::Duration::from_millis(30));
                panic!("injected worker death");
            }
            let pending =
                comm.all_reduce_start(vec![comm.rank_id().as_usize() as f32; 64], ReduceOp::Sum);
            pending.wait().map(|_| ())
        });
        assert_eq!(result, Err(CommError::WorkerPanicked));
        assert!(
            start.elapsed() < std::time::Duration::from_secs(10),
            "waiters blocked {:?} — panic flag not observed",
            start.elapsed()
        );
    }

    #[test]
    fn local_communicator_dispatch_resolves_immediately() {
        let mut comm = LocalCommunicator::new();
        let pending = comm.all_reduce_start(vec![2.0, 3.0], ReduceOp::Mean);
        assert_eq!(pending.wait().unwrap().into_f32().unwrap(), vec![2.0, 3.0]);
        let pending = comm.dispatch(CollectiveOp::Barrier);
        assert_eq!(pending.wait().unwrap(), CollectiveResult::Unit);
    }

    #[test]
    fn cross_check_mode_is_transparent_when_schedules_align() {
        let p = 3;
        let results = ThreadGroup::try_run_with(p, VerifyMode::CrossCheck, |mut comm| {
            let mut buf = vec![comm.rank_id().as_usize() as f32; 16];
            comm.all_reduce(&mut buf, ReduceOp::Sum)?;
            let gathered = comm.all_gather_u32(&[comm.rank_id().as_usize() as u32])?;
            assert_eq!(gathered, vec![0, 1, 2]);
            comm.barrier()?;
            let snap = comm.schedule().expect("thread backend records schedules");
            Ok::<_, CommError>((buf, snap))
        })
        .unwrap();
        let (buf0, snap0) = results[0].clone().unwrap();
        assert!(buf0.iter().all(|&v| v == 3.0));
        assert_eq!(snap0.seq, 3);
        assert_eq!(snap0.entries.len(), 3, "cross-check keeps the full log");
        for r in &results[1..] {
            let (_, snap) = r.clone().unwrap();
            assert_eq!(snap.digest, snap0.digest, "aligned ranks share a digest");
            assert_eq!(snap.entries, snap0.entries);
        }
    }

    #[test]
    fn verify_mode_does_not_change_wire_volume_accounting() {
        // Tag bytes are framing: the Table II reconciliation must hold in
        // cross-check mode bit-for-bit.
        let p = 4;
        let n = 1024usize;
        let results = ThreadGroup::try_run_with(p, VerifyMode::CrossCheck, |mut comm| {
            let mut buf = vec![1.0f32; n];
            comm.all_reduce(&mut buf, ReduceOp::Sum)
                .map(|()| comm.bytes_sent())
        })
        .unwrap();
        let expected = (2 * (p - 1) * n / p * 4) as u64;
        for bytes in results {
            assert_eq!(bytes.unwrap(), expected);
        }
    }

    #[test]
    fn skipped_collective_surfaces_as_schedule_mismatch_fast() {
        // The desync scenario of the schedule verifier: rank 1 skips a
        // bucket's all-reduce and goes straight to the barrier. Without
        // verification this is a silent hang-until-timeout (or a corrupt
        // reduction); with cross-check the first divergent collective is
        // named, and every rank unblocks within the group's poll interval
        // rather than the 30-second peer timeout.
        let start = std::time::Instant::now();
        let results = ThreadGroup::try_run_with(3, VerifyMode::CrossCheck, |mut comm| {
            if comm.rank_id().as_usize() != 1 {
                let mut buf = vec![comm.rank_id().as_usize() as f32; 64];
                comm.all_reduce(&mut buf, ReduceOp::Sum)?;
            }
            comm.barrier()
        })
        .unwrap();
        assert!(
            start.elapsed() < std::time::Duration::from_secs(10),
            "divergence took {:?} to surface",
            start.elapsed()
        );
        let mismatch = results
            .iter()
            .find_map(|r| match r {
                Err(CommError::ScheduleMismatch { seq, local, peer }) => {
                    Some((*seq, *local, *peer))
                }
                _ => None,
            })
            .unwrap_or_else(|| panic!("no rank observed the divergence: {results:?}"));
        let (seq, local, peer) = mismatch;
        // The very first collective diverges: barrier on rank 1 vs
        // all-reduce on its peers.
        assert_eq!(seq, 0);
        let kinds: Vec<_> = [local.map(|p| p.kind), Some(peer.kind)]
            .into_iter()
            .flatten()
            .collect();
        assert!(
            kinds.contains(&crate::schedule::OpKind::Barrier)
                && kinds.contains(&crate::schedule::OpKind::AllReduce),
            "mismatch does not name the divergent pair: {mismatch:?}"
        );
        // No rank may hang or return a wrong result silently.
        for r in &results {
            assert!(r.is_err(), "a rank completed despite the divergence: {r:?}");
        }
    }

    #[test]
    fn digest_mode_records_schedule_without_tagging() {
        let results = ThreadGroup::run(2, |mut comm| {
            let mut buf = vec![0.0f32; 8];
            comm.all_reduce(&mut buf, ReduceOp::Mean).unwrap();
            comm.schedule().expect("schedule snapshot")
        });
        assert_eq!(results[0].seq, 1);
        assert_eq!(results[0].digest, results[1].digest);
        assert_eq!(results[0].entries.len(), 1);
    }

    /// Integer-valued inputs: every partial sum is exactly representable,
    /// so flat and hierarchical reduction orders must agree bit-for-bit.
    fn integer_inputs(p: usize, len: usize, seed: u64) -> Vec<Vec<f32>> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..p)
            .map(|_| (0..len).map(|_| rng.gen_range(-8i32..=8) as f32).collect())
            .collect()
    }

    #[test]
    fn two_level_all_reduce_is_bit_exact_with_flat_ring() {
        for (groups, group_size) in [(2usize, 2usize), (2, 4), (4, 2), (3, 3)] {
            let p = groups * group_size;
            for len in [1usize, 5, 64, 257] {
                let inputs = integer_inputs(p, len, (p * 1000 + len) as u64);
                let flat = ThreadGroup::run(p, |mut comm| {
                    let mut buf = inputs[comm.rank_id().as_usize()].clone();
                    comm.all_reduce(&mut buf, ReduceOp::Sum).unwrap();
                    buf
                });
                let topo = Topology::two_level(groups, group_size).unwrap();
                let hier = ThreadGroup::try_run_with_topology(topo, VerifyMode::default(), {
                    let inputs = &inputs;
                    move |mut comm| {
                        let mut buf = inputs[comm.rank_id().as_usize()].clone();
                        comm.all_reduce(&mut buf, ReduceOp::Sum).unwrap();
                        buf
                    }
                })
                .unwrap();
                for (a, b) in flat.iter().zip(&hier) {
                    assert_eq!(
                        a.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                        b.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                        "{groups}x{group_size} len={len}: hierarchical differs from flat"
                    );
                }
            }
        }
    }

    #[test]
    fn two_level_mean_is_bit_exact_with_flat_ring() {
        let (groups, group_size) = (2usize, 3usize);
        let p = groups * group_size;
        let inputs = integer_inputs(p, 48, 7);
        let flat = ThreadGroup::run(p, |mut comm| {
            let mut buf = inputs[comm.rank_id().as_usize()].clone();
            comm.all_reduce(&mut buf, ReduceOp::Mean).unwrap();
            buf
        });
        let topo = Topology::two_level(groups, group_size).unwrap();
        let hier = ThreadGroup::try_run_with_topology(topo, VerifyMode::default(), {
            let inputs = &inputs;
            move |mut comm| {
                let mut buf = inputs[comm.rank_id().as_usize()].clone();
                comm.all_reduce(&mut buf, ReduceOp::Mean).unwrap();
                buf
            }
        })
        .unwrap();
        for (a, b) in flat.iter().zip(&hier) {
            assert_eq!(
                a.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                b.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            );
        }
    }

    #[test]
    fn two_level_volume_matches_flat_ring_when_chunks_divide() {
        // Table II extension: when s | N and G | N/s, the two-level
        // per-rank volume 2(s-1)N/s + 2(G-1)N/(sG) collapses to the flat
        // ring's 2(p-1)N/p — hierarchy costs nothing in bandwidth.
        let (groups, group_size) = (2usize, 2usize);
        let p = groups * group_size;
        let n = 1024usize;
        let flat_bytes = (2 * (p - 1) * n / p * 4) as u64;
        let topo = Topology::two_level(groups, group_size).unwrap();
        let results =
            ThreadGroup::try_run_with_topology(topo, VerifyMode::default(), |mut comm| {
                let mut buf = vec![1.0f32; n];
                comm.all_reduce(&mut buf, ReduceOp::Sum).unwrap();
                comm.bytes_sent()
            })
            .unwrap();
        for bytes in results {
            assert_eq!(bytes, flat_bytes);
        }
    }

    #[test]
    fn two_level_topology_is_recorded_as_schedule_op() {
        // A two-level group records its topology as schedule op 0, so a
        // flat and a hierarchical run of the same collectives can never
        // digest-collide; flat groups record nothing, keeping old traces
        // stable.
        let flat = ThreadGroup::run(4, |mut comm| {
            let mut buf = vec![comm.rank_id().as_usize() as f32; 8];
            comm.all_reduce(&mut buf, ReduceOp::Sum).unwrap();
            comm.schedule().expect("thread backend records schedules")
        });
        let topo = Topology::two_level(2, 2).unwrap();
        let hier = ThreadGroup::try_run_with_topology(topo, VerifyMode::default(), |mut comm| {
            assert_eq!(comm.topology(), Topology::two_level(2, 2).unwrap());
            assert_eq!(comm.membership(), Membership::initial(4));
            let mut buf = vec![comm.rank_id().as_usize() as f32; 8];
            comm.all_reduce(&mut buf, ReduceOp::Sum).unwrap();
            comm.schedule().expect("thread backend records schedules")
        })
        .unwrap();
        assert_eq!(flat[0].seq, 1);
        assert_eq!(hier[0].seq, 2, "topology op + all-reduce");
        assert_ne!(flat[0].digest, hier[0].digest);
        for snap in &hier[1..] {
            assert_eq!(snap.digest, hier[0].digest);
        }
    }

    #[test]
    fn kill_then_reform_converges_bit_exact_with_fresh_group() {
        // The elastic-membership loop: rank 1 of 3 dies mid all-reduce;
        // the survivors observe MembershipChanged, reform to a 2-rank
        // ring, re-run the collective and must agree bit-for-bit with a
        // fresh 2-rank group over the same inputs.
        let inputs = integer_inputs(3, 96, 42);
        let survivors_fresh = ThreadGroup::run(2, {
            let inputs = &inputs;
            move |mut comm| {
                // Fresh group of the survivors {0, 2}.
                let phys = [0usize, 2][comm.rank_id().as_usize()];
                let mut buf = inputs[phys].clone();
                comm.all_reduce(&mut buf, ReduceOp::Sum).unwrap();
                buf
            }
        });
        let outputs = std::sync::Mutex::new(Vec::new());
        let result = ThreadGroup::try_run(3, |mut comm| {
            let phys = comm.rank_id().as_usize();
            if phys == 1 {
                std::thread::sleep(std::time::Duration::from_millis(30));
                panic!("injected worker death");
            }
            let mut buf = inputs[phys].clone();
            match comm.all_reduce(&mut buf, ReduceOp::Sum) {
                Err(CommError::MembershipChanged { departed, .. }) => {
                    assert_eq!(departed, vec![1]);
                }
                other => panic!("rank {phys} expected MembershipChanged, got {other:?}"),
            }
            let membership = comm.reform().expect("reform after departure");
            assert_eq!(membership.epoch(), 1);
            assert_eq!(membership.ranks(), &[0, 2]);
            assert_eq!(comm.membership().world_size(), 2);
            let mut buf = inputs[phys].clone();
            comm.all_reduce(&mut buf, ReduceOp::Sum).unwrap();
            let digest = comm.schedule().expect("schedule snapshot").digest;
            outputs.lock().unwrap().push((phys, buf, digest));
        });
        // The overall run still reports the panic (rank 1's thread died).
        assert_eq!(result, Err(CommError::WorkerPanicked));
        let mut outputs = outputs.into_inner().unwrap();
        outputs.sort_by_key(|(phys, _, _)| *phys);
        assert_eq!(outputs.len(), 2, "both survivors must converge");
        assert_eq!(
            outputs[0].2, outputs[1].2,
            "survivors disagree on the post-reform schedule digest"
        );
        for ((_, buf, _), fresh) in outputs.iter().zip(&survivors_fresh) {
            assert_eq!(
                buf.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                fresh.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "reformed group differs from a fresh group of the survivors"
            );
        }
    }

    #[test]
    fn two_level_kill_then_reform_via_worker_dispatch() {
        // 8 ranks in a 2x4 hierarchy, driven through the non-blocking
        // worker path. Rank 5 dies before joining the collective; the
        // seven survivors observe MembershipChanged at wait(), reform
        // (which routes through the worker), and complete a flat 7-rank
        // all-reduce over the survivors' contributions.
        let inputs = integer_inputs(8, 40, 11);
        let expected: Vec<f32> = (0..40)
            .map(|i| {
                (0..8)
                    .filter(|&r| r != 5)
                    .map(|r| inputs[r][i])
                    .sum::<f32>()
            })
            .collect();
        let outputs = std::sync::Mutex::new(Vec::new());
        let topo = Topology::two_level(2, 4).unwrap();
        let result = ThreadGroup::try_run_with_topology(topo, VerifyMode::default(), |mut comm| {
            let phys = comm.rank_id().as_usize();
            if phys == 5 {
                std::thread::sleep(std::time::Duration::from_millis(30));
                panic!("injected worker death");
            }
            let pending = comm.all_reduce_start(inputs[phys].clone(), ReduceOp::Sum);
            match pending.wait() {
                Err(CommError::MembershipChanged { departed, .. }) => {
                    assert_eq!(departed, vec![5]);
                }
                other => panic!("rank {phys} expected MembershipChanged, got {other:?}"),
            }
            let membership = comm.reform().expect("reform after departure");
            assert_eq!(membership.epoch(), 1);
            assert_eq!(membership.world_size(), 7);
            assert!(
                comm.topology().is_flat(),
                "reform falls back to a flat ring"
            );
            let out = comm
                .all_reduce_start(inputs[phys].clone(), ReduceOp::Sum)
                .wait()
                .unwrap()
                .into_f32()
                .unwrap();
            outputs.lock().unwrap().push((phys, out));
            Ok::<_, CommError>(())
        });
        assert_eq!(result, Err(CommError::WorkerPanicked));
        let outputs = outputs.into_inner().unwrap();
        assert_eq!(outputs.len(), 7, "all seven survivors must converge");
        for (phys, out) in &outputs {
            assert_eq!(
                out.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                expected.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "rank {phys} post-reform sum is wrong"
            );
        }
    }

    #[test]
    fn reform_without_departures_is_idempotent() {
        let results = ThreadGroup::run(3, |mut comm| {
            let before = comm.schedule().map(|s| s.digest);
            let membership = comm.reform().expect("reform with everyone alive");
            assert_eq!(membership.epoch(), 0, "no departure, no epoch bump");
            assert_eq!(membership.ranks(), &[0, 1, 2]);
            let after = comm.schedule().map(|s| s.digest);
            assert_eq!(before, after, "idempotent reform must not touch the digest");
            let mut buf = vec![1.0f32; 8];
            comm.all_reduce(&mut buf, ReduceOp::Sum).unwrap();
            buf
        });
        for buf in results {
            assert!(buf.iter().all(|&v| v == 3.0));
        }
    }

    #[test]
    fn telemetry_attached_after_worker_spawn_still_records() {
        use acp_telemetry::InMemoryRecorder;
        let recs: Vec<_> = (0..2).map(|_| Arc::new(InMemoryRecorder::new())).collect();
        ThreadGroup::run(2, |mut comm| {
            // Spawn the worker first, then attach the recorder.
            comm.all_reduce_start(vec![1.0; 16], ReduceOp::Sum)
                .wait()
                .unwrap();
            comm.set_recorder(recs[comm.rank_id().as_usize()].clone());
            comm.all_reduce_start(vec![1.0; 16], ReduceOp::Sum)
                .wait()
                .unwrap();
        });
        for rec in &recs {
            assert_eq!(rec.counter(keys::COMM_CALLS), 1);
            assert!(rec.counter(keys::COMM_BYTES_SENT) > 0);
            assert_eq!(rec.spans().len(), 1);
        }
    }

    /// The two raw transports of a world-2 group, for driving the loan
    /// protocol one leg at a time.
    fn transport_pair(verify: VerifyMode) -> (ThreadTransport, ThreadTransport) {
        let mut pair = ThreadGroup::transports(Topology::flat(2), verify)
            .into_iter()
            .map(|(transport, _)| transport);
        (pair.next().unwrap(), pair.next().unwrap())
    }

    fn next_f32_loan(t: &mut ThreadTransport, src: usize) -> Arc<Loan<f32>> {
        match t.recv_mail(src).unwrap() {
            Mail::Loan(_, Lending::F32(loan)) => loan,
            _ => panic!("expected an f32 loan"),
        }
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn loan_is_read_in_place_while_the_lender_waits() {
        let (mut lender, mut reader) = transport_pair(VerifyMode::default());
        let payload: Vec<f32> = (0..64).map(|i| i as f32 * 0.5 - 3.0).collect();
        let loan = std::thread::scope(|scope| {
            scope.spawn(|| {
                // Lends `payload`, then sits in its own receive until the
                // reader has read the loan and replied.
                let mut reply = [0.0f32; 3];
                lender
                    .exchange_f32s(Some((1, &payload)), Some((1, &mut reply)))
                    .unwrap();
                assert_eq!(reply, [7.0; 3]);
            });
            let loan = next_f32_loan(&mut reader, 0);
            assert_eq!(loan.phase(), "lent");
            let read = loan.take(bits).unwrap();
            assert_eq!(read, bits(&payload));
            reader.exchange_f32s(Some((0, &[7.0; 3])), None).unwrap();
            loan
        });
        // The lender's exchange has ended; its settle found nothing to copy.
        assert_eq!(loan.phase(), "taken");
    }

    #[test]
    fn loan_settled_before_the_read_delivers_identical_bits() {
        let (mut lender, mut reader) = transport_pair(VerifyMode::default());
        let mut payload = vec![
            f32::from_bits(0x7fc0_1234),
            -0.0,
            f32::from_bits(1),
            f32::NEG_INFINITY,
            1.5,
        ];
        let sent = bits(&payload);
        // A send-only exchange ends before the peer receives: the loan is
        // settled by copy, and the lender's storage is its own again.
        lender.exchange_f32s(Some((1, &payload)), None).unwrap();
        payload.fill(9.0);
        assert_eq!(lender.bytes_sent.load(Ordering::SeqCst), 4 * 5);
        let loan = next_f32_loan(&mut reader, 0);
        assert_eq!(loan.phase(), "copied");
        assert_eq!(loan.take(bits), Some(sent.clone()));
        // The same through the public receive legs, for both element types.
        let (words, mut out, mut out_words) = ([3u32, u32::MAX, 0], [0.0f32; 5], [0u32; 3]);
        lender
            .exchange_f32s(Some((1, &f32_from(&sent))), None)
            .unwrap();
        lender.exchange_u32s(Some((1, &words)), None).unwrap();
        reader.exchange_f32s(None, Some((0, &mut out))).unwrap();
        reader
            .exchange_u32s(None, Some((0, &mut out_words)))
            .unwrap();
        assert_eq!(bits(&out), sent);
        assert_eq!(out_words, words);
    }

    fn f32_from(bits: &[u32]) -> Vec<f32> {
        bits.iter().map(|&b| f32::from_bits(b)).collect()
    }

    #[test]
    fn a_lender_whose_receive_fails_still_delivers() {
        let (mut a, mut b) = transport_pair(VerifyMode::default());
        let payload = [2.5f32; 5];
        // Rank 1 sends 3 elements where rank 0 expects 4.
        b.exchange_f32s(Some((0, &[1.0; 3])), None).unwrap();
        let err = a
            .exchange_f32s(Some((1, &payload)), Some((1, &mut [0.0; 4])))
            .unwrap_err();
        assert_eq!(
            err,
            CommError::LengthMismatch {
                expected: 4,
                actual: 3
            }
        );
        // A receive leg that unwinds settles the loan too.
        b.exchange_f32s(Some((0, &[1.0; 2])), None).unwrap();
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            a.exchange_fold_f32s(Some((1, &[4.0; 2])), 1, 2, &mut |_| {
                panic!("injected fold failure")
            })
        }));
        assert!(unwound.is_err());
        let (mut first, mut second) = ([0.0f32; 5], [0.0f32; 2]);
        b.exchange_f32s(None, Some((0, &mut first))).unwrap();
        b.exchange_f32s(None, Some((0, &mut second))).unwrap();
        assert_eq!(first, payload);
        assert_eq!(second, [4.0; 2]);
    }

    #[test]
    fn loans_and_owned_messages_do_not_mix() {
        let (mut a, mut b) = transport_pair(VerifyMode::default());
        a.exchange_f32s(Some((1, &[1.0; 4])), None).unwrap();
        assert_eq!(b.recv_from(0), Err(CommError::ProtocolMismatch));
        a.send_to(1, WireMsg::F32(vec![3.0; 2])).unwrap();
        assert_eq!(
            b.exchange_f32s(None, Some((0, &mut [0.0; 2]))),
            Err(CommError::ProtocolMismatch)
        );
        a.exchange_u32s(Some((1, &[1; 2])), None).unwrap();
        assert_eq!(
            b.exchange_f32s(None, Some((0, &mut [0.0; 2]))),
            Err(CommError::ProtocolMismatch)
        );
    }

    #[test]
    fn a_mistagged_loan_is_a_schedule_mismatch_and_raises_the_fence() {
        let (mut a, mut b) = transport_pair(VerifyMode::CrossCheck);
        a.tracer.begin_op(OpKind::AllReduce, 8, 0);
        b.tracer.begin_op(OpKind::AllGatherF32, 8, 0);
        a.exchange_f32s(Some((1, &[1.0; 8])), None).unwrap();
        let err = b.exchange_f32s(None, Some((0, &mut [0.0; 8]))).unwrap_err();
        match err {
            CommError::ScheduleMismatch { local, peer, .. } => {
                assert_eq!(local.map(|p| p.kind), Some(OpKind::AllGatherF32));
                assert_eq!(peer.kind, OpKind::AllReduce);
            }
            other => panic!("expected ScheduleMismatch, got {other:?}"),
        }
        // The fence is up: the lender's next receive aborts at once.
        assert_eq!(
            a.exchange_f32s(None, Some((1, &mut [0.0; 1]))),
            Err(CommError::WorkerPanicked)
        );
    }
}
