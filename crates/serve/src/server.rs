//! The sharded aggregation server.
//!
//! One accept thread, one handler thread per connection, and a fixed pool
//! of shard workers. A connection thread never aggregates: it parses a
//! `Submit`'s *header*, validates it against the job's session state
//! (epoch, membership, schedule position, byte budgets) before the first
//! payload byte, reads the payload straight into a buffer the job keeps
//! for that member, deposits it, and blocks on a per-step reply channel.
//! The *last* depositor of a step enqueues the complete contribution set
//! to the job's shard worker, which reduces with the serial reference
//! folds of `acp-collectives` (bit-exact with the peer-to-peer ring by the
//! `reference_equivalence` proptests) into the job's one output buffer,
//! and every waiting connection writes that same buffer to its client.
//! No lock is held across a socket read or write, and nothing on this
//! path copies or allocates a payload once the job's buffers are warm.
//!
//! Isolation properties, each covered by a test:
//!
//! * **Sessions**: every frame names `(job, epoch, schedule position)`;
//!   a desynchronized client gets [`Reject::ScheduleMismatch`] naming the
//!   expected op, and the job is poisoned rather than fed a wrong
//!   reduction.
//! * **Admission**: per-job and global in-flight byte budgets, charged
//!   for the whole step (`members × payload`) by the header that opens
//!   it; exceeding either yields a structured [`Reject::Busy`] *before*
//!   any payload-sized memory is reserved — never a hang, later members
//!   of an admitted step are never refused, and the budgets are refunded
//!   when a step drains or aborts.
//! * **Failure**: a client dying mid-step surfaces
//!   [`Reject::MembershipChanged`] to the waiters of *that job only*;
//!   other jobs never observe it. Survivors reform exactly like the
//!   peer-to-peer transports, folding the same
//!   [`membership_param`](acp_collectives::schedule::membership_param)
//!   into the schedule digest.

use std::collections::{BTreeSet, HashMap};
use std::io::{self, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use acp_collectives::schedule::{OpKind, SchedulePoint};
use acp_collectives::{all_gather_reference_into, all_reduce_reference_into, ReduceOp};
use acp_net::frame::{read_payload_body_into, DenseMut, MsgRef, PayloadHead};
use acp_telemetry::{keys, noop, RecorderHandle};
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};

use crate::wire::{
    read_request_head, write_done, write_response, Reject, Request, RequestHead, Response,
    SubmitHead, MAX_MEMBERS,
};

/// How often blocked reads re-check the shutdown flag.
const POLL: Duration = Duration::from_millis(100);

/// Element type of a collective's payloads — and with it the frame kind
/// every member must send and the reply carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Elem {
    F32,
    U32,
    /// No payload: a barrier token.
    Token,
}

impl Elem {
    fn of(kind: OpKind) -> Elem {
        match kind {
            OpKind::AllGatherU32 => Elem::U32,
            OpKind::Barrier => Elem::Token,
            _ => Elem::F32,
        }
    }
}

/// Reusable storage for one dense payload. It only grows: a payload of
/// `n` elements occupies the first `n`, and every producer (socket read,
/// fold) overwrites all `n`, so a previous step's tail is never observed.
#[derive(Default)]
struct Slot {
    f32s: Vec<f32>,
    u32s: Vec<u32>,
}

impl Slot {
    /// The first `n` elements as a receive destination, grown to fit —
    /// exactly, and without carrying stale contents over.
    fn dest(&mut self, elem: Elem, n: usize) -> Option<DenseMut<'_>> {
        match elem {
            Elem::F32 => {
                if self.f32s.len() < n {
                    self.f32s = vec![0.0; n];
                }
                self.f32s.get_mut(..n).map(DenseMut::F32)
            }
            Elem::U32 => {
                if self.u32s.len() < n {
                    self.u32s = vec![0; n];
                }
                self.u32s.get_mut(..n).map(DenseMut::U32)
            }
            Elem::Token => None,
        }
    }

    /// The first `n` elements as a payload to send.
    fn view(&self, elem: Elem, n: usize) -> Option<MsgRef<'_>> {
        match elem {
            Elem::F32 => self.f32s.get(..n).map(MsgRef::F32),
            Elem::U32 => self.u32s.get(..n).map(MsgRef::U32),
            Elem::Token => Some(MsgRef::Token),
        }
    }
}

/// A job's payload buffers while no step holds them: one receive buffer
/// per member and the one aggregate every member's reply is written from.
/// They live and die with the job, and hold at most what its budget
/// admitted (`members × payload`, plus the aggregate).
#[derive(Default)]
struct Pool {
    /// Indexed by virtual rank.
    inputs: Vec<Slot>,
    output: Slot,
}

/// One step's result, shared — not cloned — by every member's connection
/// thread; the last one to finish writing returns `buf` to the job's pool.
struct Aggregate {
    seq: u64,
    digest: u64,
    elem: Elem,
    len: usize,
    buf: Slot,
}

/// What a connection waiting on its step is told.
enum Reply {
    Done(Arc<Aggregate>),
    Reject(Reject),
}

/// Aggregation-server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address; port 0 binds an ephemeral port (read the actual
    /// one from [`Server::addr`]).
    pub addr: SocketAddr,
    /// Number of shard workers; jobs are assigned round-robin by job id.
    pub shards: usize,
    /// Per-job in-flight payload byte budget (admission control).
    pub per_job_budget: u64,
    /// Global in-flight payload byte budget across all jobs.
    pub global_budget: u64,
    /// How long a connection waits for its step to complete before
    /// giving up with a structured timeout reject (bounds stragglers).
    pub step_deadline: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            shards: 2,
            per_job_budget: 8 * 1024 * 1024,
            global_budget: 64 * 1024 * 1024,
            step_deadline: Duration::from_secs(10),
        }
    }
}

/// Point-in-time server counters (monotonic since start).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServerStats {
    /// Aggregation steps completed.
    pub steps: u64,
    /// Submissions refused with `Busy` by admission control.
    pub busy_rejects: u64,
    /// Cross-client schedule divergences detected.
    pub schedule_mismatches: u64,
    /// Payload bytes currently in flight against the global budget.
    pub in_flight_bytes: u64,
}

/// One complete step awaiting aggregation on a shard worker.
struct ShardTask {
    job: Arc<JobState>,
    step: StepState,
}

/// An in-progress aggregation step of one job.
struct StepState {
    /// Distinguishes this step from any the job opens after it aborts.
    id: u64,
    point: SchedulePoint,
    digest: u64,
    started: Instant,
    /// Payload bytes charged against the budgets for this step: all of
    /// it, by the member that opened it.
    charged: u64,
    /// Contribution per member, indexed by virtual rank; present once
    /// that member's payload has fully arrived.
    contributions: Vec<Option<Slot>>,
    /// Reply channel per member, indexed by virtual rank; present from
    /// admission, so an abort reaches a member still sending its payload.
    repliers: Vec<Option<Sender<Reply>>>,
}

impl StepState {
    fn complete(&self) -> bool {
        self.contributions.iter().all(Option::is_some)
    }
}

/// A pending membership reform of one job.
#[derive(Default)]
struct ReformState {
    requested: BTreeSet<u32>,
    repliers: Vec<Sender<Response>>,
}

/// Mutable session state of one job.
struct JobInner {
    clients_total: u32,
    epoch: u64,
    /// Current members, ascending; virtual rank = index.
    members: Vec<u32>,
    connected: BTreeSet<u32>,
    departed: BTreeSet<u32>,
    /// Set when the job's clients diverged on the collective schedule;
    /// every later request is refused with this detail.
    poisoned: Option<String>,
    step: Option<StepState>,
    steps_opened: u64,
    pool: Pool,
    reform: Option<ReformState>,
}

struct JobState {
    shard: usize,
    in_flight: AtomicU64,
    inner: Mutex<JobInner>,
}

/// Locks a mutex, recovering the inner state if a holder panicked (the
/// session data is still consistent: every mutation is single-assignment
/// or guarded by the same lock).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

struct Shared {
    cfg: ServeConfig,
    recorder: RecorderHandle,
    shutdown: AtomicBool,
    global_in_flight: AtomicU64,
    jobs: Mutex<HashMap<u64, Arc<JobState>>>,
    shards: Vec<ShardSlot>,
    steps_done: AtomicU64,
    busy_rejects: AtomicU64,
    mismatches: AtomicU64,
}

struct ShardSlot {
    queue: Sender<ShardTask>,
    depth: AtomicU64,
}

/// A running aggregation server. Dropping it shuts the service down and
/// joins the accept and shard threads.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("addr", &self.addr)
            .field("shards", &self.shared.cfg.shards)
            .finish_non_exhaustive()
    }
}

impl Server {
    /// Binds the listener and starts the accept thread and shard workers.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn spawn(cfg: ServeConfig) -> io::Result<Server> {
        Server::spawn_with_recorder(cfg, noop())
    }

    /// [`Server::spawn`] with a telemetry recorder attached; the shards
    /// record per-step latency, bytes and queue depth under the
    /// `serve.*` keys.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn spawn_with_recorder(cfg: ServeConfig, recorder: RecorderHandle) -> io::Result<Server> {
        let listener = TcpListener::bind(cfg.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shards = cfg.shards.max(1);
        let mut slots = Vec::with_capacity(shards);
        let mut receivers: Vec<Receiver<ShardTask>> = Vec::with_capacity(shards);
        for _ in 0..shards {
            let (tx, rx) = unbounded();
            slots.push(ShardSlot {
                queue: tx,
                depth: AtomicU64::new(0),
            });
            receivers.push(rx);
        }
        let shared = Arc::new(Shared {
            cfg,
            recorder,
            shutdown: AtomicBool::new(false),
            global_in_flight: AtomicU64::new(0),
            jobs: Mutex::new(HashMap::new()),
            shards: slots,
            steps_done: AtomicU64::new(0),
            busy_rejects: AtomicU64::new(0),
            mismatches: AtomicU64::new(0),
        });
        let workers = receivers
            .into_iter()
            .enumerate()
            .map(|(index, rx)| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || shard_loop(&shared, index, &rx))
            })
            .collect();
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(&shared, &listener))
        };
        Ok(Server {
            addr,
            shared,
            accept: Some(accept),
            workers,
        })
    }

    /// The bound listen address (with the real port when 0 was asked).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current server counters.
    pub fn stats(&self) -> ServerStats {
        ServerStats {
            steps: self.shared.steps_done.load(Ordering::SeqCst),
            busy_rejects: self.shared.busy_rejects.load(Ordering::SeqCst),
            schedule_mismatches: self.shared.mismatches.load(Ordering::SeqCst),
            in_flight_bytes: self.shared.global_in_flight.load(Ordering::SeqCst),
        }
    }

    /// Signals shutdown and joins the accept thread and shard workers.
    /// Connection handlers observe the flag at their next poll tick and
    /// exit on their own.
    pub fn shutdown(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(shared: &Arc<Shared>, listener: &TcpListener) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let shared = Arc::clone(shared);
                std::thread::spawn(move || connection_loop(&shared, stream));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

/// Reads one request off a connection whose socket read timeout is
/// [`POLL`]. Without a `deadline`, the first byte is awaited for as long as
/// the server runs (each tick re-checks the shutdown flag); from then on
/// the rest of the request — header, payload, or the discard of a refused
/// payload — has `step_deadline` in total, however the sender paces it. A
/// stalled sender is not a dead client: only the deadline, not a poll
/// tick, ends a request mid-way.
struct RequestReader<'a> {
    shared: &'a Shared,
    stream: &'a TcpStream,
    /// Set when the request's first bytes arrive, unless given up front.
    deadline: Option<Instant>,
}

impl<'a> RequestReader<'a> {
    fn new(shared: &'a Shared, stream: &'a TcpStream, deadline: Option<Instant>) -> Self {
        RequestReader {
            shared,
            stream,
            deadline,
        }
    }
}

impl Read for RequestReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        loop {
            match (&mut &*self.stream).read(buf) {
                Ok(n) => {
                    if self.deadline.is_none() {
                        self.deadline = Some(Instant::now() + self.shared.cfg.step_deadline);
                    }
                    return Ok(n);
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    let expired = self.deadline.is_some_and(|d| Instant::now() >= d);
                    if expired || self.shared.shutdown.load(Ordering::SeqCst) {
                        return Err(e);
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }
}

fn protocol(detail: &str) -> Response {
    Response::Reject(Reject::Protocol {
        detail: detail.to_string(),
    })
}

fn connection_loop(shared: &Arc<Shared>, stream: TcpStream) {
    // A peer that never completes its Hello must not hold this thread
    // until shutdown: the handshake's deadline runs from accept.
    let hello_deadline = Instant::now() + shared.cfg.step_deadline;
    if stream.set_nodelay(true).is_err()
        || stream.set_read_timeout(Some(POLL)).is_err()
        || stream
            .set_write_timeout(Some(shared.cfg.step_deadline))
            .is_err()
    {
        return;
    }
    // Handshake: the first request must be a Hello naming the session.
    let mut hello = RequestReader::new(shared, &stream, Some(hello_deadline));
    let (job, client) = match read_request_head(&mut hello) {
        Ok(RequestHead::Other(Request::Hello {
            job,
            client,
            clients,
        })) => {
            let resp = handshake(shared, job, client, clients);
            let accepted = matches!(resp, Response::Welcome { .. });
            let delivered = write_response(&mut &stream, &resp).is_ok();
            if !accepted {
                return;
            }
            if !delivered {
                // The handshake registered the client; un-register it.
                mark_departed(shared, job, client);
                return;
            }
            (job, client)
        }
        Ok(_) => {
            let _ = write_response(
                &mut &stream,
                &protocol("the first request must be a Hello handshake"),
            );
            return;
        }
        Err(_) => return,
    };
    loop {
        let mut reader = RequestReader::new(shared, &stream, None);
        let served = match read_request_head(&mut reader) {
            Ok(RequestHead::Submit(head, payload)) => {
                serve_submit(shared, &mut reader, job, client, &head, payload)
            }
            Ok(RequestHead::Other(Request::Reform {
                job: req_job,
                client: req_client,
                epoch,
            })) => {
                let resp = if req_job == job && req_client == client {
                    handle_reform(shared, job, client, epoch)
                } else {
                    protocol("reform names a different session than the handshake")
                };
                write_response(&mut &stream, &resp)
            }
            Ok(RequestHead::Other(Request::Hello { .. })) => {
                let _ = write_response(
                    &mut &stream,
                    &protocol("duplicate Hello on an established session"),
                );
                break;
            }
            // `read_request_head` never yields an owned `Submit`.
            Ok(RequestHead::Other(Request::Bye { .. } | Request::Submit(_))) => break,
            Err(e) => Err(e),
        };
        if served.is_err() {
            if shared.shutdown.load(Ordering::SeqCst) {
                return; // shutdown: drop without marking departure
            }
            break;
        }
    }
    mark_departed(shared, job, client);
}

fn handshake(shared: &Shared, job_id: u64, client: u32, clients: u32) -> Response {
    // The job table sizes a member list by `clients`, and clients cannot
    // decode a list above `MAX_MEMBERS`: refuse before touching the table.
    if clients == 0 || clients > MAX_MEMBERS || client >= clients {
        return Response::Reject(Reject::Rejected {
            detail: format!(
                "client {client} out of range for a {clients}-client job \
                 (a job holds 1 to {MAX_MEMBERS} clients)"
            ),
        });
    }
    let job = {
        let mut jobs = lock(&shared.jobs);
        Arc::clone(jobs.entry(job_id).or_insert_with(|| {
            Arc::new(JobState {
                shard: (job_id % shared.cfg.shards.max(1) as u64) as usize,
                in_flight: AtomicU64::new(0),
                inner: Mutex::new(JobInner {
                    clients_total: clients,
                    epoch: 0,
                    members: (0..clients).collect(),
                    connected: BTreeSet::new(),
                    departed: BTreeSet::new(),
                    poisoned: None,
                    step: None,
                    steps_opened: 0,
                    pool: Pool::default(),
                    reform: None,
                }),
            })
        }))
    };
    let mut inner = lock(&job.inner);
    if inner.clients_total != clients {
        return Response::Reject(Reject::Rejected {
            detail: format!(
                "job {job_id} was registered with {} clients, not {clients}",
                inner.clients_total
            ),
        });
    }
    if let Some(detail) = &inner.poisoned {
        return Response::Reject(Reject::Rejected {
            detail: detail.clone(),
        });
    }
    if inner.connected.contains(&client) {
        return Response::Reject(Reject::Rejected {
            detail: format!("client {client} of job {job_id} is already connected"),
        });
    }
    let Some(virt) = inner.members.iter().position(|&m| m == client) else {
        return Response::Reject(Reject::MembershipChanged {
            epoch: inner.epoch,
            departed: inner.departed.iter().copied().collect(),
        });
    };
    inner.connected.insert(client);
    Response::Welcome {
        job: job_id,
        epoch: inner.epoch,
        clients: inner.clients_total,
        rank: virt as u32,
    }
}

fn job_of(shared: &Shared, job_id: u64) -> Option<Arc<JobState>> {
    lock(&shared.jobs).get(&job_id).cloned()
}

/// The reduce operator an all-reduce's schedule `param` names; an unknown
/// code is refused with a structured reject.
fn reduce_op(param: u64) -> Result<ReduceOp, Reject> {
    ReduceOp::from_code(param).ok_or_else(|| Reject::Rejected {
        detail: format!("unknown reduce operator code {param}"),
    })
}

/// Validates the collective a new step opens with. Anything the reference
/// folds cannot aggregate is refused up front, so the shard workers never
/// see an unsupported kind.
fn validate_open(point: &SchedulePoint, world: usize) -> Result<(), Reject> {
    match point.kind {
        OpKind::AllReduce => {
            reduce_op(point.param)?;
        }
        OpKind::AllGatherF32 | OpKind::AllGatherU32 | OpKind::Barrier => {}
        OpKind::Broadcast => {
            if point.param as usize >= world {
                return Err(Reject::Rejected {
                    detail: format!(
                        "broadcast root {} out of range for a {world}-member job",
                        point.param
                    ),
                });
            }
        }
        other => {
            return Err(Reject::Rejected {
                detail: format!("collective kind {other} is not served (use the p2p transports)"),
            });
        }
    }
    Ok(())
}

/// Checks the frame kind and element count the payload header announces
/// against the op fingerprint every member must agree on.
fn validate_payload(point: &SchedulePoint, payload: PayloadHead) -> Result<(), Reject> {
    let announced = match (Elem::of(point.kind), payload) {
        (Elem::F32, PayloadHead::F32(n)) | (Elem::U32, PayloadHead::U32(n)) => Some(n as u64),
        (Elem::Token, PayloadHead::Token) => Some(0),
        _ => None,
    };
    match announced {
        Some(len) if len == point.words => Ok(()),
        Some(len) => Err(Reject::Protocol {
            detail: format!(
                "payload carries {len} elements but the op fingerprint says {}",
                point.words
            ),
        }),
        None => Err(Reject::Protocol {
            detail: format!("payload type does not match collective kind {}", point.kind),
        }),
    }
}

/// Charges `bytes` against the job's and the global in-flight budget, or
/// refuses with a retryable `Busy` that leaves both untouched.
fn charge(shared: &Shared, job: &JobState, bytes: u64) -> Result<(), Reject> {
    let busy = |in_flight, budget| {
        shared.busy_rejects.fetch_add(1, Ordering::SeqCst);
        shared.recorder.add(keys::SERVE_REJECT_BUSY, 1);
        Reject::Busy { in_flight, budget }
    };
    let job_now = job.in_flight.fetch_add(bytes, Ordering::SeqCst) + bytes;
    if job_now > shared.cfg.per_job_budget {
        job.in_flight.fetch_sub(bytes, Ordering::SeqCst);
        return Err(busy(job_now - bytes, shared.cfg.per_job_budget));
    }
    let global_now = shared.global_in_flight.fetch_add(bytes, Ordering::SeqCst) + bytes;
    if global_now > shared.cfg.global_budget {
        shared.global_in_flight.fetch_sub(bytes, Ordering::SeqCst);
        job.in_flight.fetch_sub(bytes, Ordering::SeqCst);
        return Err(busy(global_now - bytes, shared.cfg.global_budget));
    }
    Ok(())
}

fn refund(shared: &Shared, job: &JobState, bytes: u64) {
    job.in_flight.fetch_sub(bytes, Ordering::SeqCst);
    shared.global_in_flight.fetch_sub(bytes, Ordering::SeqCst);
}

/// Aborts the in-flight step (if any) under `inner`, replying `reject` to
/// every admitted member — including one still sending its payload —
/// refunding the step's charged bytes and returning the contributions
/// that already arrived to the pool.
fn abort_step(shared: &Shared, job: &JobState, inner: &mut JobInner, reject: &Reject) {
    if let Some(step) = inner.step.take() {
        for tx in step.repliers.iter().flatten() {
            let _ = tx.send(Reply::Reject(reject.clone()));
        }
        refund(shared, job, step.charged);
        inner.pool.restore(step.contributions);
    }
}

impl Pool {
    /// Puts a step's contributions back, each under its virtual rank.
    fn restore(&mut self, contributions: Vec<Option<Slot>>) {
        for (home, slot) in self.inputs.iter_mut().zip(contributions) {
            if let Some(slot) = slot {
                *home = slot;
            }
        }
    }
}

/// A contribution admitted from its header alone: where its payload goes
/// and where its reply will come from.
struct Admitted {
    job: Arc<JobState>,
    /// [`StepState::id`] of the step this contribution belongs to.
    step: u64,
    virt: usize,
    /// The member's receive buffer, out of the job's pool.
    slot: Slot,
    rx: Receiver<Reply>,
}

/// Decides a `Submit` before its first payload byte: session, epoch,
/// membership, the collective and its payload frame against the op
/// fingerprint, the fingerprint against the open step, and — for the
/// member that opens a step — both byte budgets, charged for the whole
/// step so the members that follow are never refused. A refusal reserves
/// nothing.
fn admit(
    shared: &Shared,
    job_id: u64,
    client: u32,
    head: &SubmitHead,
    payload: PayloadHead,
) -> Result<Admitted, Reject> {
    if head.job != job_id || head.client != client {
        return Err(Reject::Protocol {
            detail: "submit names a different session than the handshake".to_string(),
        });
    }
    let Some(job) = job_of(shared, job_id) else {
        return Err(Reject::Rejected {
            detail: format!("job {job_id} is not registered"),
        });
    };
    let mut inner = lock(&job.inner);
    if let Some(detail) = &inner.poisoned {
        return Err(Reject::Rejected {
            detail: detail.clone(),
        });
    }
    if head.epoch != inner.epoch || !inner.departed.is_empty() {
        return Err(Reject::MembershipChanged {
            epoch: inner.epoch,
            departed: inner.departed.iter().copied().collect(),
        });
    }
    let Some(virt) = inner.members.iter().position(|&m| m == client) else {
        return Err(Reject::Rejected {
            detail: format!("client {client} is not a member of job {job_id} anymore"),
        });
    };
    let world = inner.members.len();
    validate_open(&head.point, world)?;
    validate_payload(&head.point, payload)?;
    match &inner.step {
        None => {
            // The first submitter of a step fixes the fingerprint and
            // digest everyone else must match, and pays for all of them.
            let charged = payload.body_bytes().saturating_mul(world as u64);
            charge(shared, &job, charged)?;
            inner.steps_opened += 1;
            inner.step = Some(StepState {
                id: inner.steps_opened,
                point: head.point,
                digest: head.digest,
                started: Instant::now(),
                charged,
                contributions: (0..world).map(|_| None).collect(),
                repliers: vec![None; world],
            });
        }
        Some(open) if open.point != head.point || open.digest != head.digest => {
            let (point, got) = (open.point, head.point);
            let seq = point.seq.min(got.seq);
            shared.mismatches.fetch_add(1, Ordering::SeqCst);
            shared.recorder.add(keys::SERVE_SCHEDULE_MISMATCHES, 1);
            let detail = format!(
                "job {job_id} poisoned: client {client} diverged from the collective \
                 schedule at op {seq} (expected {point}, got {got})"
            );
            abort_step(
                shared,
                &job,
                &mut inner,
                &Reject::Rejected {
                    detail: detail.clone(),
                },
            );
            inner.poisoned = Some(detail);
            return Err(Reject::ScheduleMismatch {
                seq,
                expected: Some(point),
                got,
            });
        }
        Some(_) => {}
    }
    let inner = &mut *inner;
    let vanished = || Reject::Protocol {
        detail: "step state vanished mid-submit".to_string(),
    };
    let step = inner.step.as_mut().ok_or_else(vanished)?;
    let replier = step.repliers.get_mut(virt).ok_or_else(vanished)?;
    if replier.is_some() {
        return Err(Reject::Protocol {
            detail: format!(
                "duplicate contribution from client {client} at op {}",
                step.point.seq
            ),
        });
    }
    let (tx, rx) = unbounded();
    *replier = Some(tx);
    if inner.pool.inputs.len() < world {
        inner.pool.inputs.resize_with(world, Slot::default);
    }
    let slot = inner
        .pool
        .inputs
        .get_mut(virt)
        .map(std::mem::take)
        .unwrap_or_default();
    let step = step.id;
    Ok(Admitted {
        job: Arc::clone(&job),
        step,
        virt,
        slot,
        rx,
    })
}

/// Deposits an admitted member's fully received contribution; the last
/// one in hands the step to the job's shard worker. If the step was
/// aborted while the payload was arriving, the buffer just goes home —
/// the abort already put its reject on the member's reply channel.
fn deposit(shared: &Shared, job: &Arc<JobState>, step_id: u64, virt: usize, slot: Slot) {
    let mut inner = lock(&job.inner);
    let inner = &mut *inner;
    let open = inner
        .step
        .as_mut()
        .filter(|s| s.id == step_id)
        .and_then(|s| s.contributions.get_mut(virt));
    let Some(home) = open else {
        if let Some(home) = inner.pool.inputs.get_mut(virt) {
            *home = slot;
        }
        return;
    };
    *home = Some(slot);
    if !inner.step.as_ref().is_some_and(StepState::complete) {
        return;
    }
    let Some(step) = inner.step.take() else {
        return;
    };
    let shard = &shared.shards[job.shard];
    let depth = shard.depth.fetch_add(1, Ordering::SeqCst) + 1;
    shared
        .recorder
        .observe(keys::SERVE_QUEUE_DEPTH, depth as f64);
    let task = ShardTask {
        job: Arc::clone(job),
        step,
    };
    // A send fails only when the shard worker is gone, during shutdown;
    // dropping the task drops the repliers, which the waiters report.
    let _ = shard.queue.send(task);
}

/// Lets go of a shared aggregate; whoever lets go last takes its buffer
/// home. Every holder does so before the job's next fold can start — a
/// connection before it reads its client's next request, the shard worker
/// before it takes its next task — so the buffer is back in the pool by
/// the time the shard worker reaches for it.
fn recycle(job: &JobState, aggregate: Arc<Aggregate>) {
    if let Some(aggregate) = Arc::into_inner(aggregate) {
        lock(&job.inner).pool.output = aggregate.buf;
    }
}

/// Serves one `Submit` whose header has been parsed and whose payload is
/// still on the stream: admit or refuse it, receive the payload into the
/// member's pooled buffer, wait for the step, and write the shared
/// aggregate. An `Err` means the connection is no longer usable.
fn serve_submit(
    shared: &Shared,
    reader: &mut RequestReader<'_>,
    job_id: u64,
    client: u32,
    head: &SubmitHead,
    payload: PayloadHead,
) -> io::Result<()> {
    let stream = reader.stream;
    let Admitted {
        job,
        step,
        virt,
        mut slot,
        rx,
    } = match admit(shared, job_id, client, head, payload) {
        Ok(admitted) => admitted,
        Err(reject) => {
            // Answer first — the sender may be waiting on the verdict, not
            // on us — then drain exactly the announced payload through a
            // fixed scratch so the connection stays on a request boundary
            // (`Busy` is retryable).
            write_response(&mut &*stream, &Response::Reject(reject))?;
            let announced = payload.body_bytes();
            if io::copy(&mut reader.take(announced), &mut io::sink())? != announced {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            return Ok(());
        }
    };
    // No lock is held here. If the read fails the connection closes and
    // `mark_departed` aborts the step this member was admitted to.
    // `validate_payload` held the announced count to `words`.
    if let Some(dest) = slot.dest(Elem::of(head.point.kind), head.point.words as usize) {
        read_payload_body_into(reader, dest)?;
    }
    deposit(shared, &job, step, virt, slot);
    let reject = match rx.recv_timeout(shared.cfg.step_deadline) {
        Ok(Reply::Done(aggregate)) => {
            let view = aggregate
                .buf
                .view(aggregate.elem, aggregate.len)
                .ok_or(io::ErrorKind::InvalidData)?;
            write_done(&mut &*stream, aggregate.seq, aggregate.digest, view)?;
            recycle(&job, aggregate);
            return Ok(());
        }
        Ok(Reply::Reject(reject)) => reject,
        Err(RecvTimeoutError::Timeout) => Reject::Protocol {
            detail: format!(
                "step did not complete within {:?} (straggling or missing member)",
                shared.cfg.step_deadline
            ),
        },
        Err(RecvTimeoutError::Disconnected) => Reject::Rejected {
            detail: "server is shutting down".to_string(),
        },
    };
    write_response(&mut &*stream, &Response::Reject(reject))
}

fn handle_reform(shared: &Shared, job_id: u64, client: u32, epoch: u64) -> Response {
    let Some(job) = job_of(shared, job_id) else {
        return Response::Reject(Reject::Rejected {
            detail: format!("job {job_id} is not registered"),
        });
    };
    let rx = {
        let mut inner = lock(&job.inner);
        if let Some(detail) = &inner.poisoned {
            return Response::Reject(Reject::Rejected {
                detail: detail.clone(),
            });
        }
        if epoch != inner.epoch {
            return Response::Reject(Reject::Protocol {
                detail: format!("reform at epoch {epoch}, job is at epoch {}", inner.epoch),
            });
        }
        if !inner.members.contains(&client) || inner.departed.contains(&client) {
            return Response::Reject(Reject::Rejected {
                detail: format!("client {client} is not a surviving member of job {job_id}"),
            });
        }
        // A straggling step can never finish once a member is gone;
        // reforming aborts it like the peer-to-peer transports do.
        let reject = Reject::MembershipChanged {
            epoch: inner.epoch,
            departed: inner.departed.iter().copied().collect(),
        };
        abort_step(shared, &job, &mut inner, &reject);
        let (tx, rx) = unbounded();
        let reform = inner.reform.get_or_insert_with(ReformState::default);
        reform.requested.insert(client);
        reform.repliers.push(tx);
        maybe_finish_reform(&mut inner);
        rx
    };
    match rx.recv_timeout(shared.cfg.step_deadline) {
        Ok(resp) => resp,
        Err(RecvTimeoutError::Timeout) => Response::Reject(Reject::Protocol {
            detail: format!(
                "reform did not converge within {:?} (a survivor never requested it)",
                shared.cfg.step_deadline
            ),
        }),
        Err(RecvTimeoutError::Disconnected) => Response::Reject(Reject::Rejected {
            detail: "server is shutting down".to_string(),
        }),
    }
}

/// Completes a pending reform once every surviving member has requested
/// it: bumps the epoch, installs the survivors as the new membership and
/// answers every requester. Call with `inner` locked.
fn maybe_finish_reform(inner: &mut JobInner) {
    let Some(reform) = inner.reform.as_ref() else {
        return;
    };
    let survivors: Vec<u32> = inner
        .members
        .iter()
        .copied()
        .filter(|m| !inner.departed.contains(m))
        .collect();
    if survivors.is_empty() || !survivors.iter().all(|s| reform.requested.contains(s)) {
        return;
    }
    let Some(reform) = inner.reform.take() else {
        return;
    };
    inner.epoch += 1;
    inner.members = survivors;
    inner.departed.clear();
    let resp = Response::Reformed {
        epoch: inner.epoch,
        members: inner.members.clone(),
    };
    for tx in reform.repliers {
        let _ = tx.send(resp.clone());
    }
}

/// Handles a client leaving (gracefully or by death): aborts the job's
/// in-flight step with a `MembershipChanged` reject to *that job's*
/// waiters, lets a pending reform converge without the deceased, and
/// garbage-collects the job once its last client is gone.
fn mark_departed(shared: &Shared, job_id: u64, client: u32) {
    // Lock order is always jobs → inner (handshake does the same).
    let mut jobs = lock(&shared.jobs);
    let Some(job) = jobs.get(&job_id).cloned() else {
        return;
    };
    let empty = {
        let mut inner = lock(&job.inner);
        inner.connected.remove(&client);
        if inner.members.contains(&client) {
            inner.departed.insert(client);
            let reject = Reject::MembershipChanged {
                epoch: inner.epoch,
                departed: inner.departed.iter().copied().collect(),
            };
            abort_step(shared, &job, &mut inner, &reject);
            // The departure may be exactly what a pending reform was
            // waiting out.
            maybe_finish_reform(&mut inner);
        }
        inner.connected.is_empty()
    };
    if empty {
        jobs.remove(&job_id);
    }
}

/// Aggregates one complete step's contributions into the front of `out`
/// with the serial reference folds — bit-exact with the transports' ring
/// algorithms — and returns how many elements the aggregate has.
fn aggregate(step: &StepState, out: &mut Slot) -> Result<usize, Reject> {
    let missing = || Reject::Protocol {
        detail: "incomplete contribution set reached the shard".to_string(),
    };
    let failed = |e: acp_collectives::CommError| Reject::Protocol {
        detail: format!("aggregation failed: {e}"),
    };
    let StepState {
        point,
        contributions,
        ..
    } = step;
    let words = point.words as usize;
    let len = match point.kind {
        OpKind::AllGatherF32 | OpKind::AllGatherU32 => words * contributions.len(),
        _ => words,
    };
    let inputs = || contributions.iter().map(|c| c.as_ref().ok_or_else(missing));
    match out.dest(Elem::of(point.kind), len) {
        None => {}
        Some(DenseMut::U32(out)) => {
            let views = inputs().map(|s| s?.u32s.get(..words).ok_or_else(missing));
            let views: Vec<&[u32]> = views.collect::<Result<_, _>>()?;
            all_gather_reference_into(&views, out).map_err(failed)?;
        }
        Some(DenseMut::F32(out)) => {
            let views = inputs().map(|s| s?.f32s.get(..words).ok_or_else(missing));
            let views: Vec<&[f32]> = views.collect::<Result<_, _>>()?;
            match point.kind {
                OpKind::AllReduce => {
                    all_reduce_reference_into(&views, reduce_op(point.param)?, out)
                        .map_err(failed)?;
                }
                OpKind::AllGatherF32 => {
                    all_gather_reference_into(&views, out).map_err(failed)?;
                }
                // Broadcast: admission allows no other kind this far.
                _ => {
                    let root = views.get(point.param as usize).ok_or_else(missing)?;
                    out.copy_from_slice(root);
                }
            }
        }
    }
    Ok(len)
}

fn shard_loop(shared: &Arc<Shared>, index: usize, rx: &Receiver<ShardTask>) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        let task = match rx.recv_timeout(POLL) {
            Ok(task) => task,
            Err(RecvTimeoutError::Timeout) => continue,
            Err(RecvTimeoutError::Disconnected) => return,
        };
        shared.shards[index].depth.fetch_sub(1, Ordering::SeqCst);
        let ShardTask { job, step } = task;
        let mut output = {
            let mut inner = lock(&job.inner);
            std::mem::take(&mut inner.pool.output)
        };
        let folded = aggregate(&step, &mut output);
        let StepState {
            point,
            digest,
            started,
            charged,
            contributions,
            repliers,
            ..
        } = step;
        // The members' buffers go home before anyone is answered: a
        // client that has its result may submit the next step at once.
        let reply = {
            let mut inner = lock(&job.inner);
            inner.pool.restore(contributions);
            match folded {
                Ok(len) => Ok(Arc::new(Aggregate {
                    seq: point.seq,
                    digest,
                    elem: Elem::of(point.kind),
                    len,
                    buf: output,
                })),
                Err(reject) => {
                    inner.pool.output = output;
                    Err(reject)
                }
            }
        };
        // Settle the accounting *before* unblocking the waiters, so a
        // client that observed its result also observes drained budgets
        // and bumped counters.
        refund(shared, &job, charged);
        shared.steps_done.fetch_add(1, Ordering::SeqCst);
        let elapsed_us = started.elapsed().as_micros() as f64;
        shared.recorder.observe(keys::SERVE_STEP_US, elapsed_us);
        shared.recorder.add(keys::SERVE_STEP_BYTES, charged);
        shared.recorder.add(keys::SERVE_STEPS, 1);
        for tx in repliers.iter().flatten() {
            let _ = tx.send(match &reply {
                Ok(aggregate) => Reply::Done(Arc::clone(aggregate)),
                Err(reject) => Reply::Reject(reject.clone()),
            });
        }
        if let Ok(aggregate) = reply {
            recycle(&job, aggregate);
        }
    }
}
