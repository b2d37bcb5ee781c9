//! The TCP transport: links, retry, deadlines, reconnect, reform.
//!
//! A [`TcpCommunicator`] is one rank's endpoint of a multi-process group.
//! Every rank owns a listener and keeps one duplex link per peer (the
//! lower rank of each pair dials, the higher accepts), so every peer is
//! one hop away. Which peer a collective talks to is the schedule's
//! choice alone: the flat ring or the ring-of-rings of
//! [`TcpConfig::topology`], the butterflies, the post-reform ring.
//!
//! Dense collective steps cross a link as a lock-step exchange of bounded
//! segments, each an ordinary frame, received straight into the caller's
//! buffer: a rank never has more than one segment written ahead of a
//! receive it has yet to post, so no payload size can stall a ring step
//! (DESIGN.md §12).
//!
//! Fault semantics:
//!
//! * connection establishment retries with bounded exponential backoff
//!   ([`RetryPolicy`]) and surfaces [`CommError::Timeout`] when exhausted;
//! * every receive is bounded by [`TcpConfig::op_deadline`] — a dead or
//!   straggling peer produces [`CommError::Timeout`], never a hang;
//! * a link that breaks mid-collective is re-established once per
//!   operation (connector side re-connects, acceptor side re-accepts and
//!   re-validates the hello handshake); a second failure surfaces as
//!   [`CommError::PeerDisconnected`] / [`CommError::Io`];
//! * a failure in the *middle* of a frame (a deadline hit mid-payload, a
//!   corrupt header, a length mismatch) shuts that link down on the spot:
//!   the byte stream is no longer on a frame boundary, and the next
//!   operation must fail structured rather than parse payload bytes as a
//!   frame tag;
//! * injected drops ([`FaultInjector::drop_every`]) deliberately
//!   half-close a connector-role link at a frame boundary and dial a fresh
//!   one; the peer re-accepts once it reads the end of the old stream, and
//!   this rank reads the old stream to its end before the new one, so no
//!   frame either side sent is lost and the retry machinery is exercised
//!   by tests rather than trusted;
//! * a peer whose *listener* has also vanished is declared departed: the
//!   observer broadcasts an abort control frame to every live link and
//!   surfaces [`CommError::MembershipChanged`], and the abort cascades
//!   rank to rank so no survivor waits out the full op deadline.
//!
//! After a [`CommError::MembershipChanged`] the group is recoverable:
//! every survivor calls `reform()`, which drains stale
//! frames behind a per-link reform barrier (TCP FIFO makes this sound),
//! re-derives ranks over the sorted survivors, falls back to a flat
//! topology, and cross-checks the post-reform schedule digest. After any
//! *other* error a communicator's collective state is undefined (a peer
//! may have partially progressed); callers should tear the group down.

use std::collections::BTreeSet;
use std::io::{self, IoSlice, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use acp_collectives::nonblocking::{
    confirm_reform, execute_ring, BorrowedOp, CollectiveResult, WorkerCommunicator,
};
use acp_collectives::ring::{Transport, WireMsg};
use acp_collectives::schedule::{self, OpKind, ScheduleCell, ScheduleTracer};
use acp_collectives::topology::{GroupView, Topology as GroupTopology, TopologyError};
use acp_collectives::{CommError, VerifyMode, WorkerTransport};
use acp_telemetry::{keys, noop, RecorderHandle};

use crate::fault::FaultInjector;
use crate::frame::{
    read_frame, read_frame_into, write_frame, write_msg, DenseMut, Frame, MsgRef, ReadInto,
};

/// Bounded exponential backoff for connection establishment (and
/// re-establishment after a drop).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum connect attempts before giving up.
    pub max_attempts: u32,
    /// Backoff before the second attempt; doubles each retry.
    pub initial_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
    /// Per-attempt TCP connect timeout.
    pub attempt_timeout: Duration,
    /// Per-peer wall-clock budget for one dial: retrying continues until
    /// *both* `max_attempts` is exhausted *and* this much time has passed
    /// since the first attempt on that peer. A refused connection returns
    /// in microseconds, so a purely count-based policy can burn every
    /// attempt long before a slow peer's listener binds — under many
    /// concurrent groups (or a loaded aggregation service) that turned
    /// startup skew into spurious `Io` errors. `Duration::ZERO` restores
    /// the attempts-only behaviour.
    pub dial_budget: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 20,
            initial_backoff: Duration::from_millis(5),
            max_backoff: Duration::from_millis(500),
            attempt_timeout: Duration::from_secs(2),
            dial_budget: Duration::from_secs(10),
        }
    }
}

/// Rank value carried by probe hellos: a liveness probe dials a peer's
/// listener just to see whether it is still bound, then hangs up. Accept
/// loops discard these.
const PROBE_RANK: u32 = u32::MAX;

/// Configuration of one rank's [`TcpCommunicator`].
#[derive(Debug, Clone)]
pub struct TcpConfig {
    /// This rank in `[0, world_size)`.
    pub rank: usize,
    /// Number of ranks in the group.
    pub world_size: usize,
    /// Listener address of every rank, indexed by rank.
    pub peers: Vec<SocketAddr>,
    /// Logical group arrangement: a flat ring or a two-level
    /// ring-of-rings (see [`acp_collectives::Topology`]); must agree with
    /// `world_size`.
    pub topology: GroupTopology,
    /// Connection-establishment retry policy.
    pub retry: RetryPolicy,
    /// Deadline applied to every blocking receive (and to link
    /// re-establishment); `Duration::ZERO` disables the deadline.
    pub op_deadline: Duration,
    /// Fault plan (inert by default).
    pub fault: FaultInjector,
    /// Collective-schedule verification mode (see
    /// [`acp_collectives::schedule`]). [`TcpConfig::local`] reads it from
    /// the `ACP_VERIFY_SCHEDULE` environment variable, so multi-process
    /// launches inherit the launcher's setting; all ranks of a group must
    /// agree on it.
    pub verify: VerifyMode,
}

impl TcpConfig {
    /// A loopback group: rank `i` listens on `127.0.0.1:(base_port + i)`.
    ///
    /// # Panics
    ///
    /// Panics if `world_size == 0`, `rank >= world_size`, or the port
    /// range overflows `u16`.
    pub fn local(rank: usize, world_size: usize, base_port: u16) -> Self {
        assert!(world_size > 0, "world_size must be positive");
        assert!(rank < world_size, "rank {rank} >= world size {world_size}");
        let peers = (0..world_size)
            .map(|i| {
                let port = base_port
                    .checked_add(i as u16)
                    // allow_verify(reason = "documented panic of a config constructor; no group exists yet")
                    .expect("port range overflows u16");
                SocketAddr::from(([127, 0, 0, 1], port))
            })
            .collect();
        TcpConfig {
            rank,
            world_size,
            peers,
            topology: GroupTopology::flat(world_size),
            retry: RetryPolicy::default(),
            op_deadline: Duration::from_secs(30),
            fault: FaultInjector::none(),
            verify: VerifyMode::from_env(),
        }
    }

    /// Arranges the group as `groups` rings of `world_size / groups`
    /// ranks each (the hierarchical ring-of-rings schedule).
    ///
    /// # Errors
    ///
    /// Returns the structured [`TopologyError`] when the group spec is
    /// inconsistent (zero groups, or `groups` does not divide
    /// `world_size`) — never panics, so launchers can surface the bad
    /// spec to the operator.
    pub fn with_groups(mut self, groups: usize) -> Result<Self, TopologyError> {
        self.topology = GroupTopology::grouped(self.world_size, groups)?;
        Ok(self)
    }

    /// Sets the per-receive deadline (`Duration::ZERO` disables it).
    #[must_use]
    pub fn with_op_deadline(mut self, deadline: Duration) -> Self {
        self.op_deadline = deadline;
        self
    }

    /// Sets the connection retry policy.
    #[must_use]
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Sets the fault plan.
    #[must_use]
    pub fn with_fault(mut self, fault: FaultInjector) -> Self {
        self.fault = fault;
        self
    }

    /// Sets the schedule-verification mode.
    #[must_use]
    pub fn with_verify(mut self, verify: VerifyMode) -> Self {
        self.verify = verify;
        self
    }
}

/// Which side of a link this rank is; determines who re-establishes a
/// broken connection (connector dials again, acceptor re-accepts).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LinkRole {
    /// This rank dialed the peer's listener.
    Connector,
    /// This rank accepted the peer's dial on its own listener.
    Acceptor,
}

/// One established duplex connection to a peer rank.
#[derive(Debug)]
struct Link {
    peer: usize,
    role: LinkRole,
    stream: TcpStream,
    /// The stream an injected drop half-closed: the peer may have written
    /// frames on it before it saw the end of our side, so it is read to
    /// its end before `stream`.
    draining: Option<TcpStream>,
}

impl Link {
    /// Reads one frame from the peer, moving on from a drained stream to
    /// the live one once the peer has closed it.
    fn read<T>(&mut self, mut f: impl FnMut(&mut FrameIo<'_>) -> io::Result<T>) -> io::Result<T> {
        if let Some(old) = &mut self.draining {
            match frame_io(old, &mut f) {
                Err(e) if is_disconnect(&e) => self.draining = None,
                read => return read,
            }
        }
        frame_io(&mut self.stream, f)
    }

    /// Whether an injected drop may fire: the previous drop's stream is
    /// gone, or the peer has closed it with nothing left unread. Keeps one
    /// half-closed stream per link at most.
    fn settled(&mut self) -> bool {
        let Some(old) = &self.draining else {
            return true;
        };
        let closed = old.set_nonblocking(true).is_ok() && matches!(old.peek(&mut [0u8]), Ok(0));
        let _ = old.set_nonblocking(false);
        if closed {
            self.draining = None;
        }
        closed
    }
}

/// One rank's links, indexed by physical rank: `None` at its own slot and
/// at peers departed by a reform (world 1 has no links at all).
type Links = Vec<Option<Link>>;

fn timeout_ms(started: Instant) -> u64 {
    started.elapsed().as_millis().max(1) as u64
}

/// Maps an I/O failure to a structured [`CommError`].
fn map_io(op: &'static str, started: Instant, e: &io::Error) -> CommError {
    match e.kind() {
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => CommError::Timeout {
            op,
            waited_ms: timeout_ms(started),
        },
        io::ErrorKind::UnexpectedEof
        | io::ErrorKind::ConnectionReset
        | io::ErrorKind::ConnectionAborted
        | io::ErrorKind::BrokenPipe => CommError::PeerDisconnected,
        _ => CommError::Io(format!("{op}: {e}")),
    }
}

/// Whether an I/O error means "the link is gone" (worth one reconnect
/// attempt) as opposed to a timeout or a protocol problem.
fn is_disconnect(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::UnexpectedEof
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::BrokenPipe
            | io::ErrorKind::NotConnected
    )
}

fn configure_stream(stream: &TcpStream, op_deadline: Duration) -> io::Result<()> {
    stream.set_nodelay(true)?;
    let t = if op_deadline.is_zero() {
        None
    } else {
        Some(op_deadline)
    };
    stream.set_read_timeout(t)?;
    stream.set_write_timeout(t)?;
    Ok(())
}

/// A link's stream for the duration of one frame, remembering whether any
/// byte of that frame has moved yet.
struct FrameIo<'a> {
    stream: &'a mut TcpStream,
    moved: bool,
}

impl Read for FrameIo<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.stream.read(buf)?;
        self.moved |= n > 0;
        Ok(n)
    }
}

impl Write for FrameIo<'_> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.stream.write(buf)?;
        self.moved |= n > 0;
        Ok(n)
    }

    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
        let n = self.stream.write_vectored(bufs)?;
        self.moved |= n > 0;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.stream.flush()
    }
}

/// Reads or writes one frame on an established link. A failure after the
/// frame's first byte (a deadline hit mid-payload, a corrupt header)
/// leaves the byte stream mid-frame, where the next read would parse
/// payload bytes as a frame tag — so the link is shut down instead and
/// every later operation on it fails structured (`PeerDisconnected`, or
/// `Timeout` out of the re-establishment attempt). A failure *before* the
/// first byte leaves the stream on a frame boundary and the link intact.
fn frame_io<T>(
    stream: &mut TcpStream,
    f: impl FnOnce(&mut FrameIo<'_>) -> io::Result<T>,
) -> io::Result<T> {
    let mut io = FrameIo {
        stream,
        moved: false,
    };
    let out = f(&mut io);
    if out.is_err() && io.moved {
        let _ = io.stream.shutdown(Shutdown::Both);
    }
    out
}

/// Checks whether a peer's listener at `addr` is still bound. A
/// connection refusal means the process (and its listener) is gone —
/// `true` is conservative: a live-but-busy peer stays "alive" and flows
/// into the ordinary timeout path instead.
fn listener_alive(addr: &SocketAddr) -> bool {
    match TcpStream::connect_timeout(addr, Duration::from_millis(250)) {
        Ok(mut stream) => {
            // Announce as a probe so accept loops can discard this
            // connection, then hang up.
            let _ = write_frame(&mut stream, &Frame::Hello(PROBE_RANK));
            let _ = stream.shutdown(Shutdown::Both);
            true
        }
        Err(e) => !matches!(e.kind(), io::ErrorKind::ConnectionRefused),
    }
}

/// Dials `addr` with bounded exponential backoff. The retry budget is
/// **per peer**: each call gets the full `max_attempts` *and* the full
/// `dial_budget` wall-clock window, so a peer that comes up late is not
/// penalised for attempts spent (instantly, on connection-refused) against
/// an earlier peer in the same establishment pass.
fn connect_with_retry(
    addr: &SocketAddr,
    retry: &RetryPolicy,
    op_deadline: Duration,
) -> Result<TcpStream, CommError> {
    let started = Instant::now();
    let min_attempts = retry.max_attempts.max(1);
    let mut backoff = retry.initial_backoff;
    let mut last_err: Option<io::Error> = None;
    let mut attempt: u32 = 0;
    while attempt < min_attempts || started.elapsed() < retry.dial_budget {
        if attempt > 0 {
            std::thread::sleep(backoff);
            backoff = (backoff * 2).min(retry.max_backoff);
        }
        attempt = attempt.saturating_add(1);
        match TcpStream::connect_timeout(addr, retry.attempt_timeout) {
            Ok(stream) => {
                configure_stream(&stream, op_deadline)
                    .map_err(|e| map_io("configure", started, &e))?;
                return Ok(stream);
            }
            Err(e) => last_err = Some(e),
        }
    }
    match last_err {
        Some(e)
            if matches!(
                e.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            ) =>
        {
            Err(CommError::Timeout {
                op: "connect",
                waited_ms: timeout_ms(started),
            })
        }
        Some(e) => Err(CommError::Io(format!(
            "connect to {addr} failed after {attempt} attempts over {}ms: {e}",
            started.elapsed().as_millis()
        ))),
        None => unreachable!("at least one connect attempt is made"),
    }
}

/// Accepts one connection, polling until `deadline`.
fn accept_with_deadline(listener: &TcpListener, deadline: Instant) -> io::Result<TcpStream> {
    listener.set_nonblocking(true)?;
    let result = loop {
        match listener.accept() {
            Ok((stream, _)) => break Ok(stream),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                if Instant::now() >= deadline {
                    break Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "no incoming connection before the deadline",
                    ));
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(e) => break Err(e),
        }
    };
    listener.set_nonblocking(false)?;
    let stream = result?;
    stream.set_nonblocking(false)?;
    Ok(stream)
}

/// Reads the hello handshake off a fresh stream and returns the peer rank.
fn expect_hello(stream: &mut TcpStream) -> Result<usize, CommError> {
    let started = Instant::now();
    match read_frame(stream) {
        Ok(Frame::Hello(rank)) => Ok(rank as usize),
        Ok(other) => Err(CommError::Io(format!(
            "expected hello handshake, got {other:?}"
        ))),
        Err(e) => Err(map_io("hello", started, &e)),
    }
}

fn send_hello(stream: &mut TcpStream, rank: usize) -> Result<(), CommError> {
    let started = Instant::now();
    write_frame(stream, &Frame::Hello(rank as u32)).map_err(|e| map_io("hello", started, &e))
}

/// A multi-process TCP endpoint implementing
/// [`Communicator`](acp_collectives::Communicator): the shared
/// [`WorkerCommunicator`] shell over a [`TcpTransport`]. Build one with
/// [`TcpConfig::connect`] or [`TcpConfig::connect_on`].
///
/// Runs the *same* generic ring algorithms as
/// [`acp_collectives::ThreadCommunicator`] (see [`acp_collectives::ring`]),
/// so results are bit-exact across backends. Telemetry flows through the
/// same recorder keys, so wire bytes reconcile against the Table II cost
/// model regardless of transport.
pub type TcpCommunicator = WorkerCommunicator<TcpTransport>;

/// The socket transport of one rank: its listener, its links and their
/// fault and recovery state. Lives inside the [`TcpCommunicator`] until a
/// comm worker is spawned, then moves into the worker thread; collectives
/// run the same ring algorithms on it either way.
pub struct TcpTransport {
    /// Group state. The physical rank is the stable index into `peers`,
    /// never remapped.
    view: GroupView,
    peers: Vec<SocketAddr>,
    /// Physical ranks observed dead (listener gone, or named by a peer's
    /// abort broadcast).
    departed: BTreeSet<usize>,
    retry: RetryPolicy,
    op_deadline: Duration,
    fault: FaultInjector,
    listener: TcpListener,
    links: Links,
    /// Frames sent so far — drives the deterministic drop injector.
    frames_sent: u64,
    /// Collectives started so far — drives the exit-after crash injector.
    ops_started: u64,
    bytes_sent: Arc<AtomicU64>,
    recorder: RecorderHandle,
    /// Collective-schedule recorder (see [`acp_collectives::schedule`]);
    /// in cross-check mode it also tags outgoing frames and verifies
    /// incoming ones at delivery.
    tracer: ScheduleTracer,
}

impl TcpConfig {
    /// Binds this rank's listener and wires up the group.
    ///
    /// Blocks until every link is established (all ranks must be started
    /// within the retry budget) and returns structured errors — never
    /// hangs past the configured deadlines.
    ///
    /// # Errors
    ///
    /// Returns [`CommError::Io`] if the listener cannot bind and
    /// [`CommError::Timeout`] if peers do not appear in time.
    pub fn connect(self) -> Result<TcpCommunicator, CommError> {
        let addr = self.peers[self.rank];
        let started = Instant::now();
        let mut backoff = self.retry.initial_backoff;
        let mut listener = None;
        // Rebinding a recently used port can hit TIME_WAIT; retry like a
        // connection.
        for attempt in 0..self.retry.max_attempts.max(1) {
            if attempt > 0 {
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(self.retry.max_backoff);
            }
            match TcpListener::bind(addr) {
                Ok(l) => {
                    listener = Some(l);
                    break;
                }
                Err(e) if e.kind() == io::ErrorKind::AddrInUse => continue,
                Err(e) => return Err(map_io("bind", started, &e)),
            }
        }
        let listener =
            listener.ok_or_else(|| CommError::Io(format!("bind {addr}: address still in use")))?;
        self.connect_on(listener)
    }

    /// Wires up the group over an already bound listener (used by tests
    /// that pre-bind on ephemeral ports to avoid collisions).
    ///
    /// # Errors
    ///
    /// As for [`TcpConfig::connect`].
    pub fn connect_on(self, listener: TcpListener) -> Result<TcpCommunicator, CommError> {
        let TcpConfig {
            rank,
            world_size,
            peers,
            topology,
            retry,
            op_deadline,
            fault,
            verify,
        } = self;
        if world_size == 0 || rank >= world_size || peers.len() != world_size {
            return Err(CommError::InvalidRank { rank, world_size });
        }
        if topology.world_size() != world_size {
            return Err(CommError::Io(format!(
                "topology {topology} does not cover world size {world_size}"
            )));
        }
        let bytes_sent = Arc::new(AtomicU64::new(0));
        let schedule = Arc::new(ScheduleCell::default());
        let mut tracer = ScheduleTracer::new(verify, Arc::clone(&schedule));
        // Same convention as the thread backend: a two-level group records
        // its arrangement as schedule op 0 (flat groups record nothing),
        // so flat and hierarchical runs can never digest-collide.
        if !topology.is_flat() {
            tracer.begin_op(OpKind::Topology, world_size as u64, topology.fingerprint());
        }
        let mut transport = TcpTransport {
            view: GroupView::initial(rank, topology),
            peers,
            departed: BTreeSet::new(),
            retry,
            op_deadline,
            fault,
            listener,
            links: Vec::new(),
            frames_sent: 0,
            ops_started: 0,
            bytes_sent: Arc::clone(&bytes_sent),
            recorder: noop(),
            tracer,
        };
        transport.links = transport.establish()?;
        Ok(WorkerCommunicator::with_transport(
            transport, bytes_sent, schedule, verify,
        ))
    }
}

impl TcpTransport {
    /// The deadline used for link establishment: generous enough for the
    /// whole retry schedule, but never unbounded.
    fn establish_deadline(&self) -> Instant {
        let budget = if self.op_deadline.is_zero() {
            Duration::from_secs(30)
        } else {
            self.op_deadline
        };
        Instant::now() + budget
    }

    fn dial(&self, peer: usize) -> Result<Link, CommError> {
        let mut stream = connect_with_retry(&self.peers[peer], &self.retry, self.op_deadline)?;
        send_hello(&mut stream, self.view.physical())?;
        Ok(Link {
            peer,
            role: LinkRole::Connector,
            stream,
            draining: None,
        })
    }

    /// Accepts the next dial on this rank's listener by `deadline` and
    /// checks its hello against `expected`, when given.
    fn accept_from(&self, expected: Option<usize>, deadline: Instant) -> Result<Link, CommError> {
        let started = Instant::now();
        // Liveness probes dial the listener just to check it is bound,
        // announce themselves with the probe sentinel and hang up; skip
        // them and keep accepting.
        loop {
            let mut stream = accept_with_deadline(&self.listener, deadline)
                .map_err(|e| map_io("accept", started, &e))?;
            configure_stream(&stream, self.op_deadline)
                .map_err(|e| map_io("accept", started, &e))?;
            let peer = expect_hello(&mut stream)?;
            if peer == PROBE_RANK as usize {
                continue;
            }
            if let Some(expected) = expected.filter(|&e| e != peer) {
                return Err(CommError::Io(format!(
                    "hello from rank {peer}, expected rank {expected}"
                )));
            }
            return Ok(Link {
                peer,
                role: LinkRole::Acceptor,
                stream,
                draining: None,
            });
        }
    }

    /// Links this rank to every peer. The lower rank of each pair dials, so
    /// every ring send `r → r+1` but the wraparound leaves on a
    /// connector-role link. A dial completes against the peer's listener
    /// backlog, so dialing every higher rank before accepting every lower
    /// one cannot deadlock.
    fn establish(&self) -> Result<Links, CommError> {
        let (p, r) = (self.peers.len(), self.view.physical());
        let mut links: Links = (0..p).map(|_| None).collect();
        for (q, slot) in links.iter_mut().enumerate().skip(r + 1) {
            *slot = Some(self.dial(q)?);
        }
        for _ in 0..r {
            let link = self.accept_from(None, self.establish_deadline())?;
            let peer = link.peer;
            if peer >= r || links[peer].is_some() {
                return Err(CommError::Io(format!(
                    "unexpected hello from rank {peer} during link establishment"
                )));
            }
            links[peer] = Some(link);
        }
        Ok(links)
    }

    /// Replaces a connector-role link's stream with a fresh dial, then shuts
    /// the old one down: fully (`Shutdown::Both`) when it broke. An
    /// injected drop only half-closes it (`Shutdown::Write`) and keeps it
    /// for reading, because the peer may already have sent frames on it;
    /// and since the fresh dial comes first, the peer finds it queued on
    /// its listener as soon as it reads the old stream's end.
    fn reconnect(
        peers: &[SocketAddr],
        retry: &RetryPolicy,
        op_deadline: Duration,
        rank: usize,
        link: &mut Link,
        how: Shutdown,
    ) -> Result<(), CommError> {
        debug_assert_eq!(link.role, LinkRole::Connector);
        let mut stream = connect_with_retry(&peers[link.peer], retry, op_deadline)?;
        send_hello(&mut stream, rank)?;
        let old = std::mem::replace(&mut link.stream, stream);
        let _ = old.shutdown(how);
        if how == Shutdown::Write {
            link.draining = Some(old);
        }
        Ok(())
    }

    /// Checks whether `phys`'s listener is still bound.
    fn probe_alive(&self, phys: usize) -> bool {
        listener_alive(&self.peers[phys])
    }

    /// The departed ranks among the current members, in rank order.
    fn departed_members(&self) -> Vec<usize> {
        self.view
            .members()
            .iter()
            .copied()
            .filter(|m| self.departed.contains(m))
            .collect()
    }

    /// The structured membership error for the current view.
    fn membership_error(&self) -> CommError {
        CommError::MembershipChanged {
            epoch: self.view.epoch(),
            departed: self.departed_members(),
        }
    }

    /// Records `phys` as departed and broadcasts the abort on every live
    /// link (best effort) so peers blocked on healthy links cascade out
    /// of the doomed collective instead of waiting out their deadlines.
    fn note_departed(&mut self, phys: usize) -> CommError {
        if self.departed.insert(phys) {
            let frame = Frame::Abort {
                epoch: self.view.epoch(),
                departed: phys as u32,
            };
            for link in self.links.iter_mut().flatten() {
                if link.peer != phys {
                    let _ = write_frame(&mut link.stream, &frame);
                }
            }
        }
        self.membership_error()
    }

    /// Converts a link failure to `phys` into either a membership change
    /// (listener gone → departed) or the original error (alive → let the
    /// ordinary recovery/timeout semantics stand).
    fn classify_link_failure(&mut self, phys: usize, err: CommError) -> CommError {
        if self.probe_alive(phys) {
            err
        } else {
            self.note_departed(phys)
        }
    }
}

impl WorkerTransport for TcpTransport {
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

    /// Applies the straggler and crash faults at the top of every
    /// collective.
    fn prepare(&mut self) {
        self.ops_started += 1;
        if let Some(n) = self.fault.exit_after {
            if self.ops_started >= n {
                // Injected crash: die at the start of this collective,
                // after the peers have committed to it. Multi-process
                // launches only (documented on `FaultInjector`).
                std::process::exit(0);
            }
        }
        if let Some(delay) = self.fault.straggler_delay {
            std::thread::sleep(delay);
        }
    }

    fn tracer(&mut self) -> Option<&mut ScheduleTracer> {
        Some(&mut self.tracer)
    }

    fn reform(&mut self) -> Result<GroupView, CommError> {
        let departed = self.departed_members();
        if departed.is_empty() {
            // Idempotent: nothing changed, nothing to renegotiate.
            return Ok(self.view.clone());
        }
        self.view = self.view.reformed(&departed)?;
        // Close the links to the departed; their slots stay empty.
        for &dead in &departed {
            if let Some(link) = self.links[dead].take() {
                let _ = link.stream.shutdown(Shutdown::Both);
            }
        }
        // Reform barrier: announce our epoch on every surviving link,
        // then drain each link up to the peer's matching announcement.
        // TCP links are FIFO, so everything read before the marker is a
        // stale pre-reform frame and safely discarded; everything after
        // it belongs to the new epoch.
        let (epoch, me) = (self.view.epoch(), self.view.physical());
        let survivors: Vec<usize> = self
            .view
            .members()
            .iter()
            .copied()
            .filter(|&m| m != me)
            .collect();
        let started = Instant::now();
        for &peer in &survivors {
            let link = self.links[peer]
                .as_mut()
                .ok_or(CommError::PeerDisconnected)?;
            frame_io(&mut link.stream, |io| {
                write_frame(io, &Frame::Reform { epoch })
            })
            .map_err(|e| map_io("reform", started, &e))?;
        }
        for &peer in &survivors {
            loop {
                let link = self.links[peer]
                    .as_mut()
                    .ok_or(CommError::PeerDisconnected)?;
                let started = Instant::now();
                match link.read(|io| read_frame(io)) {
                    // Stale pre-reform traffic: payloads of the aborted
                    // collective, probe hellos, last epoch's aborts.
                    Ok(Frame::Msg(_)) | Ok(Frame::Hello(_)) => continue,
                    Ok(Frame::Abort { epoch: e, .. }) if e < epoch => continue,
                    Ok(Frame::Abort { departed, .. }) => {
                        // A further death observed by a peer during the
                        // reform; surface it so the caller can reform
                        // again from the new view.
                        return Err(self.note_departed(departed as usize));
                    }
                    Ok(Frame::Reform { epoch: e }) if e == epoch => break,
                    Ok(Frame::Reform { epoch: e }) => {
                        return Err(CommError::Io(format!(
                            "rank {peer} reformed to epoch {e}, expected {epoch} \
                             (survivor views diverged)"
                        )));
                    }
                    Err(e) if is_disconnect(&e) && !self.probe_alive(peer) => {
                        return Err(self.note_departed(peer));
                    }
                    Err(e) => return Err(map_io("reform", started, &e)),
                }
            }
        }
        // Record the reform and cross-check its digest among survivors.
        confirm_reform(self)
    }
}

/// Elements per segment of a dense exchange: 64 KiB of payload.
///
/// Deadlock freedom needs one segment plus its header to fit in the
/// kernel's buffering for one link while nobody reads it: about 4.2 MB on
/// a cold loopback socket, but only the initial send buffer plus receive
/// window (on the order of 150 KB with Linux defaults) on a cold LAN one.
/// Throughput wants segments large enough to amortize the per-frame
/// syscalls and TCP processing. In the recorded sweep (DESIGN.md §12) a
/// 9.4 MB all-reduce costs 9.5 ms with 32 KiB segments and 6.6 ms with
/// 60 KiB, then sits on a 4.8–5.6 ms plateau from 64 KiB to 1 MiB: 64 KiB
/// is the smallest segment on the plateau, so it is the one with the
/// widest margin under the buffering bound.
const SEGMENT_ELEMS: usize = 16 * 1024;

/// The 4-byte element types a dense frame carries.
trait Dense: Copy {
    fn view(payload: &[Self]) -> MsgRef<'_>;
    fn sink(dest: &mut [Self]) -> DenseMut<'_>;
}

impl Dense for f32 {
    fn view(payload: &[f32]) -> MsgRef<'_> {
        MsgRef::F32(payload)
    }

    fn sink(dest: &mut [f32]) -> DenseMut<'_> {
        DenseMut::F32(dest)
    }
}

impl Dense for u32 {
    fn view(payload: &[u32]) -> MsgRef<'_> {
        MsgRef::U32(payload)
    }

    fn sink(dest: &mut [u32]) -> DenseMut<'_> {
        DenseMut::U32(dest)
    }
}

/// Resolves the link used to reach physical rank `peer`, as a free
/// function over the link table so callers can keep disjoint borrows of
/// the other fields.
fn resolve_link(links: &mut Links, rank: usize, peer: usize) -> Result<&mut Link, CommError> {
    if peer >= links.len() || peer == rank {
        return Err(CommError::InvalidRank {
            rank: peer,
            world_size: links.len(),
        });
    }
    links[peer].as_mut().ok_or(CommError::PeerDisconnected)
}

impl TcpTransport {
    /// The zero-copy send path shared by [`Transport::send_to`] and the
    /// borrowed-payload sends: the payload bytes go to the socket vectored,
    /// straight from the caller's storage (bucket buffers, gathered words)
    /// with no intermediate frame buffer or owned copy.
    fn send_view(&mut self, dest: usize, view: MsgRef<'_>) -> Result<(), CommError> {
        if !self.departed_members().is_empty() {
            return Err(self.membership_error());
        }
        let Some(&phys) = self.view.members().get(dest) else {
            return Err(CommError::InvalidRank {
                rank: dest,
                world_size: self.view.world_size(),
            });
        };
        if let Some(delay) = self.fault.send_delay {
            std::thread::sleep(delay);
        }
        self.frames_sent += 1;
        let inject_drop = self
            .fault
            .drop_every
            .is_some_and(|n| self.frames_sent.is_multiple_of(n));
        let bytes = view.payload_bytes();
        // Cross-check mode: stamp the frame with this rank's schedule
        // position (tag bytes are framing, not payload — `bytes` above).
        let tag = self.tracer.tag();
        let started = Instant::now();
        // Destructure for disjoint field borrows: the link lives in
        // `links`, while reconnection needs `peers`/`retry`.
        let TcpTransport {
            view: group,
            peers,
            retry,
            op_deadline,
            links,
            ..
        } = self;
        let (rank, op_deadline) = (group.physical(), *op_deadline);
        // No such peer, or one a reform already removed: not a link
        // failure, so it must not be reclassified as a membership change
        // below.
        let link = resolve_link(links, rank, phys)?;
        let result = (|| -> Result<(), CommError> {
            if inject_drop && link.role == LinkRole::Connector && link.settled() {
                // Drop at a frame boundary and ride the normal reconnect
                // path; the peer reads to the end of the old stream and
                // re-accepts.
                Self::reconnect(peers, retry, op_deadline, rank, link, Shutdown::Write)?;
            }
            match frame_io(&mut link.stream, |io| write_msg(io, tag.as_ref(), view)) {
                Ok(()) => Ok(()),
                // A vanished listener means the peer is dead: redialing it
                // would spend the whole dial budget before the failure
                // below declares it departed.
                Err(e)
                    if is_disconnect(&e)
                        && link.role == LinkRole::Connector
                        && listener_alive(&peers[link.peer]) =>
                {
                    // One reconnect-and-resend attempt; frames are written
                    // atomically, so the failed frame was not partially
                    // consumed by the peer.
                    Self::reconnect(peers, retry, op_deadline, rank, link, Shutdown::Both)?;
                    frame_io(&mut link.stream, |io| write_msg(io, tag.as_ref(), view))
                        .map_err(|e| map_io("send", started, &e))
                }
                Err(e) => Err(map_io("send", started, &e)),
            }
        })();
        if let Err(err) = result {
            // A failed send to a vanished peer is a membership change,
            // not an I/O fault; anything else keeps its original error.
            return Err(self.classify_link_failure(phys, err));
        }
        self.bytes_sent.fetch_add(bytes, Ordering::SeqCst);
        if self.recorder.enabled() {
            self.recorder.add(keys::COMM_BYTES_SENT, bytes);
        }
        Ok(())
    }

    /// One lock-step exchange: the outgoing slice is cut into
    /// `SEGMENT_ELEMS`-element frames, the incoming one is read as such
    /// frames, and the two alternate — write segment `i`, read segment
    /// `i` — so this rank never has more than one segment written ahead
    /// of a receive it has yet to post, whatever the payload size. Each
    /// segment is an ordinary `F32`/`U32` frame, so schedule tags, fault
    /// injection and reconnect-and-resend all stay per-frame. An empty
    /// slice still travels as one empty frame.
    fn exchange<E: Dense>(
        &mut self,
        send: Option<(usize, &[E])>,
        mut recv: Option<(usize, &mut [E])>,
    ) -> Result<(), CommError> {
        let segments = |len: usize| len.div_ceil(SEGMENT_ELEMS).max(1);
        let segment =
            |i: usize, len: usize| (i * SEGMENT_ELEMS).min(len)..((i + 1) * SEGMENT_ELEMS).min(len);
        let n_send = send.map_or(0, |(_, s)| segments(s.len()));
        let n_recv = recv.as_ref().map_or(0, |(_, r)| segments(r.len()));
        for i in 0..n_send.max(n_recv) {
            if let Some((dest, payload)) = send.filter(|_| i < n_send) {
                self.send_view(dest, E::view(&payload[segment(i, payload.len())]))?;
            }
            if let Some((src, out)) = recv.as_mut().filter(|_| i < n_recv) {
                let range = segment(i, out.len());
                self.recv_frame(*src, Some(E::sink(&mut out[range])))?;
            }
        }
        Ok(())
    }

    /// Receives the next frame from `src`, riding out stray hellos, stale
    /// aborts and one link re-establishment. With a `dest`, the frame must
    /// be the dense payload it expects and lands directly in it
    /// (`Ok(None)`); without one, the payload is returned owned.
    fn recv_frame(
        &mut self,
        src: usize,
        mut dest: Option<DenseMut<'_>>,
    ) -> Result<Option<WireMsg>, CommError> {
        if !self.departed_members().is_empty() {
            return Err(self.membership_error());
        }
        let Some(&phys) = self.view.members().get(src) else {
            return Err(CommError::InvalidRank {
                rank: src,
                world_size: self.view.world_size(),
            });
        };
        let started = Instant::now();
        // One recovery attempt per receive: a broken link is
        // re-established according to our role, then the read is retried.
        let mut recovered = false;
        loop {
            let link = resolve_link(&mut self.links, self.view.physical(), phys)?;
            let read = link.read(|io| match dest.as_mut() {
                Some(dest) => read_frame_into(io, dest.reborrow()),
                None => read_frame(io).map(ReadInto::Other),
            });
            if matches!(read, Ok(ReadInto::LengthMismatch { .. })) {
                // The unread payload leaves the stream it came on mid-frame.
                let stream = link.draining.as_ref().unwrap_or(&link.stream);
                let _ = stream.shutdown(Shutdown::Both);
            }
            // Schedule tags are checked at delivery time (see
            // `acp_collectives::schedule::deliver_checked`), and before
            // any shape complaint: a peer running a different collective
            // is the more useful diagnosis. A mismatch tears this rank
            // down, and its closed sockets surface to peers within their
            // op deadline.
            let frame = match read {
                Ok(ReadInto::Filled { tag }) => {
                    if self.recorder.enabled() {
                        let elems = dest.as_ref().map_or(0, DenseMut::len);
                        self.recorder.add(keys::COMM_BYTES_RECV, 4 * elems as u64);
                    }
                    if let Some(tag) = tag {
                        self.tracer.check(&tag)?;
                    }
                    return Ok(None);
                }
                Ok(ReadInto::LengthMismatch { tag, actual }) => {
                    if let Some(tag) = tag {
                        self.tracer.check(&tag)?;
                    }
                    return Err(CommError::LengthMismatch {
                        expected: dest.as_ref().map_or(0, DenseMut::len),
                        actual,
                    });
                }
                Ok(ReadInto::Other(frame)) => Ok(frame),
                Err(e) => Err(e),
            };
            match frame {
                Ok(Frame::Msg(msg)) => {
                    if self.recorder.enabled() {
                        self.recorder
                            .add(keys::COMM_BYTES_RECV, msg.payload_bytes());
                    }
                    let msg = schedule::deliver_checked(&self.tracer, msg)?;
                    // A payload of another kind than `dest` expects.
                    return match dest {
                        Some(_) => Err(CommError::ProtocolMismatch),
                        None => Ok(Some(msg)),
                    };
                }
                // A stray hello can only follow a reconnect (or probe)
                // that raced our read; consume it and keep reading.
                Ok(Frame::Hello(_)) => continue,
                Ok(Frame::Abort { epoch, departed }) => {
                    if epoch < self.view.epoch() {
                        // Stale abort from before our reform; ignore.
                        continue;
                    }
                    // A peer observed a death we have not seen yet;
                    // propagate the cascade and surface the change.
                    return Err(self.note_departed(departed as usize));
                }
                Ok(Frame::Reform { epoch }) => {
                    // Pre-reform frames are drained inside reform()'s
                    // barrier; meeting one mid-collective means this rank
                    // missed the abort that must precede it (FIFO).
                    return Err(CommError::Io(format!(
                        "peer rank {phys} reformed to epoch {epoch} mid-collective"
                    )));
                }
                Err(e) if is_disconnect(&e) && !recovered => {
                    recovered = true;
                    let link = resolve_link(&mut self.links, self.view.physical(), phys)?;
                    let role = link.role;
                    if role == LinkRole::Acceptor {
                        let _ = link.stream.shutdown(Shutdown::Both);
                        // A dropping peer redials before it half-closes, so
                        // its fresh stream is already queued here — even
                        // if the peer has finished and exited since.
                        if let Ok(fresh) = self.accept_from(Some(phys), Instant::now()) {
                            self.links[phys] = Some(fresh);
                            continue;
                        }
                    }
                    // A vanished listener means the peer is dead, not
                    // reconnecting — skip recovery and fail structured.
                    if !self.probe_alive(phys) {
                        return Err(self.note_departed(phys));
                    }
                    let recovery = match role {
                        LinkRole::Acceptor => self
                            .accept_from(Some(phys), self.establish_deadline())
                            .map(|fresh| self.links[phys] = Some(fresh)),
                        LinkRole::Connector => {
                            let TcpTransport {
                                view,
                                peers,
                                retry,
                                op_deadline,
                                links,
                                ..
                            } = self;
                            let rank = view.physical();
                            let link = resolve_link(links, rank, phys)?;
                            Self::reconnect(peers, retry, *op_deadline, rank, link, Shutdown::Both)
                        }
                    };
                    if let Err(err) = recovery {
                        // The peer died between the probe and the
                        // recovery (exit races the probe's connect):
                        // re-classify rather than leak a raw I/O error.
                        return Err(self.classify_link_failure(phys, err));
                    }
                }
                Err(e) => {
                    let err = map_io("recv", started, &e);
                    // A live peer keeps its timeout/disconnect semantics;
                    // a vanished one is a membership change even when the
                    // first recovery attempt spuriously succeeded.
                    return Err(self.classify_link_failure(phys, err));
                }
            }
        }
    }
}

impl Transport for TcpTransport {
    // `Transport::rank` is the schedule-facing *virtual* rank; the
    // physical rank is the socket-facing slot.
    fn rank(&self) -> usize {
        self.view.rank()
    }

    fn world_size(&self) -> usize {
        self.view.world_size()
    }

    fn send_to(&mut self, dest: usize, msg: WireMsg) -> Result<(), CommError> {
        match &msg {
            WireMsg::F32(v) => self.send_view(dest, MsgRef::F32(v)),
            WireMsg::U32(v) => self.send_view(dest, MsgRef::U32(v)),
            WireMsg::Sparse(i, v) => self.send_view(dest, MsgRef::Sparse(i, v)),
            WireMsg::Token => self.send_view(dest, MsgRef::Token),
            // The transport stamps the schedule tag itself (from the
            // tracer, inside `send_view`); a pre-tagged message is a
            // caller bug, not a sendable payload.
            WireMsg::Tagged(..) => Err(CommError::ProtocolMismatch),
        }
    }

    fn send_sparse(
        &mut self,
        dest: usize,
        indices: &[u32],
        values: &[f32],
    ) -> Result<(), CommError> {
        self.send_view(dest, MsgRef::Sparse(indices, values))
    }

    fn recv_from(&mut self, src: usize) -> Result<WireMsg, CommError> {
        // An owned receive always yields a message.
        self.recv_frame(src, None)?
            .ok_or(CommError::ProtocolMismatch)
    }

    fn exchange_f32s(
        &mut self,
        send: Option<(usize, &[f32])>,
        recv: Option<(usize, &mut [f32])>,
    ) -> Result<(), CommError> {
        self.exchange(send, recv)
    }

    fn exchange_u32s(
        &mut self,
        send: Option<(usize, &[u32])>,
        recv: Option<(usize, &mut [u32])>,
    ) -> Result<(), CommError> {
        self.exchange(send, recv)
    }
}

/// Test/bench harness mirroring `ThreadGroup::run`: binds `world_size`
/// listeners on ephemeral loopback ports, wires the group in worker
/// threads (real sockets, one process), and returns the per-rank results.
///
/// # Panics
///
/// Panics if a listener cannot bind, a worker panics, or establishment
/// fails.
pub fn run_local<T, F>(world_size: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(TcpCommunicator) -> T + Sync,
{
    run_local_with(world_size, |_rank, cfg| cfg, f)
}

/// [`run_local`] with a per-rank configuration hook (fault plans,
/// deadlines, topology).
///
/// # Panics
///
/// As for [`run_local`]. The hook must not change `rank`, `world_size`
/// or `peers`.
pub fn run_local_with<T, F, G>(world_size: usize, tweak: G, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(TcpCommunicator) -> T + Sync,
    G: Fn(usize, TcpConfig) -> TcpConfig + Sync,
{
    assert!(world_size > 0, "world_size must be positive");
    let listeners: Vec<TcpListener> = (0..world_size)
        // allow_verify(reason = "test harness: a bind failure is the caller's test failure")
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind ephemeral loopback port"))
        .collect();
    let peers: Vec<SocketAddr> = listeners
        .iter()
        // allow_verify(reason = "test harness: bound listeners always report an addr")
        .map(|l| l.local_addr().expect("listener has a local addr"))
        .collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = listeners
            .into_iter()
            .enumerate()
            .map(|(rank, listener)| {
                let peers = peers.clone();
                let tweak = &tweak;
                let f = &f;
                scope.spawn(move || {
                    let cfg = TcpConfig {
                        rank,
                        world_size,
                        peers,
                        topology: GroupTopology::flat(world_size),
                        retry: RetryPolicy::default(),
                        op_deadline: Duration::from_secs(20),
                        fault: FaultInjector::none(),
                        verify: VerifyMode::from_env(),
                    };
                    let comm =
                        // allow_verify(reason = "test harness entry point; establishment failures are the caller's test failures")
                        tweak(rank, cfg).connect_on(listener).expect("establish group");
                    f(comm)
                })
            })
            .collect();
        handles
            .into_iter()
            // allow_verify(reason = "test harness: propagate worker panics to the calling test")
            .map(|h| h.join().expect("tcp worker panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use acp_collectives::{Communicator, ReduceOp, ThreadGroup};
    use proptest::prelude::*;

    fn input(rank: usize, len: usize) -> Vec<f32> {
        (0..len)
            .map(|i| (((i * 31 + rank * 17) % 1009) as f32 * 0.37).sin())
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10))]

        /// Ring-step chunks of k·segment − 1, k·segment and k·segment + 1
        /// elements (and the uneven chunk splits `extra` adds) cross real
        /// sockets bit-exactly, with every segment's schedule tag checked.
        #[test]
        fn segment_boundaries_are_invisible(
            world in 2usize..4,
            k in 1usize..3,
            delta in 0usize..3,
            extra in 0usize..3,
        ) {
            let chunk = k * SEGMENT_ELEMS + delta - 1;
            let len = world * chunk + extra;
            let run = |comm: &mut dyn Communicator| {
                let rank = comm.rank();
                let mut reduced = input(rank, len);
                comm.all_reduce(&mut reduced, ReduceOp::Sum).unwrap();
                let gathered = comm.all_gather_f32(&input(rank, chunk)).unwrap();
                let words: Vec<u32> = (0..chunk).map(|i| (i * 7 + rank) as u32).collect();
                (reduced, gathered, comm.all_gather_u32(&words).unwrap())
            };
            let thread = ThreadGroup::run(world, |mut comm| run(&mut comm));
            let tcp = run_local_with(
                world,
                |_rank, cfg| cfg.with_verify(VerifyMode::CrossCheck),
                |mut comm| run(&mut comm),
            );
            for (t, s) in thread.iter().zip(&tcp) {
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                prop_assert_eq!(bits(&t.0), bits(&s.0));
                prop_assert_eq!(bits(&t.1), bits(&s.1));
                prop_assert_eq!(&t.2, &s.2);
            }
        }
    }
}
