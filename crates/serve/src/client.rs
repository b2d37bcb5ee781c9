//! [`ServedCommunicator`]: the [`Communicator`] backend that aggregates
//! through an [`crate::Server`] instead of peer-to-peer rings.
//!
//! The client is a [`WorkerTransport`] under the same
//! [`WorkerCommunicator`] shell as the rings (comm worker, telemetry,
//! byte and schedule cells). Each collective becomes one `Submit`
//! round-trip: the session fingerprints the op with the same
//! [`ScheduleTracer`] the transports use, names its session (job id,
//! membership epoch) and schedule position, ships the payload in the
//! `acp-net` frame encoding, and blocks for the aggregated result.
//! Structured rejects map onto the existing [`CommError`] surface:
//! backpressure becomes the retryable [`CommError::Busy`], a dead sibling
//! becomes [`CommError::MembershipChanged`] (answered, as with the
//! peer-to-peer transports, by calling [`Communicator::reform`]), and a
//! schedule divergence becomes [`CommError::ScheduleMismatch`].

use std::io;
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use acp_collectives::nonblocking::{BorrowedOp, CollectiveOp, CollectiveResult, PendingOp};
use acp_collectives::ring::sum_truncate_topk;
use acp_collectives::schedule::{
    membership_param, OpKind, ScheduleCell, ScheduleTracer, VerifyMode,
};
use acp_collectives::{
    CommError, Communicator, GroupView, Membership, ReduceOp, ScheduleSnapshot, Topology,
    WorkerCommunicator, WorkerTransport,
};
use acp_net::frame::{read_frame_into, read_payload_head, DenseMut, MsgRef, PayloadHead, ReadInto};
use acp_telemetry::{keys, noop, RecorderHandle};

use crate::wire::{
    read_response, read_response_head, write_request, write_submit, Reject, Request, Response,
    ResponseHead, SubmitHead,
};

/// Client-side knobs of the served communicator.
#[derive(Debug, Clone)]
pub struct ServedConfig {
    /// How many times a `Busy` backpressure reject is retried before it
    /// surfaces as [`CommError::Busy`]. A busy submission was never
    /// admitted, so resending is always safe.
    pub busy_retries: u32,
    /// Initial busy-retry backoff (doubled per retry).
    pub busy_backoff: Duration,
    /// Backoff ceiling.
    pub busy_backoff_max: Duration,
    /// How long one submission waits for its aggregated result.
    pub op_deadline: Duration,
}

impl Default for ServedConfig {
    fn default() -> Self {
        ServedConfig {
            busy_retries: 64,
            busy_backoff: Duration::from_millis(2),
            busy_backoff_max: Duration::from_millis(100),
            op_deadline: Duration::from_secs(30),
        }
    }
}

/// A [`Communicator`] whose collectives are aggregated by an
/// [`crate::Server`] shard instead of a peer-to-peer ring — the client
/// side of the aggregation service: the [`WorkerCommunicator`] shell over
/// one served session, whose physical rank is its client id.
///
/// Supports the all-reduce subset of the trait: all-reduce, the two
/// all-gathers, broadcast and barrier, plus `global_topk` as two gathers
/// and an exact truncation. The results are bit-exact with
/// [`acp_collectives`]'s in-process and TCP rings, proven by the
/// `served_equivalence` test in `acp-training`.
#[derive(Debug)]
pub struct ServedCommunicator(WorkerCommunicator<ServedSession>);

/// One client's session with the service: the [`WorkerTransport`] inside
/// a [`ServedCommunicator`].
struct ServedSession {
    stream: TcpStream,
    job: u64,
    client: u32,
    /// Group state; its physical rank is the client id, its members the
    /// client ids ascending.
    view: GroupView,
    tracer: ScheduleTracer,
    bytes_sent: Arc<AtomicU64>,
    recorder: RecorderHandle,
    cfg: ServedConfig,
}

fn io_err(context: &str, e: &io::Error) -> CommError {
    CommError::Io(format!("{context}: {e}"))
}

impl ServedCommunicator {
    /// Connects to the service at `addr` and joins `job` as `client` of
    /// `clients`, with default [`ServedConfig`].
    ///
    /// # Errors
    ///
    /// Propagates connect failures as [`CommError::Io`] and structured
    /// handshake rejections (duplicate client, poisoned job) as their
    /// [`CommError`] mappings.
    pub fn connect(
        addr: SocketAddr,
        job: u64,
        client: u32,
        clients: u32,
    ) -> Result<ServedCommunicator, CommError> {
        ServedCommunicator::connect_with(addr, job, client, clients, ServedConfig::default())
    }

    /// [`ServedCommunicator::connect`] with explicit client knobs.
    ///
    /// # Errors
    ///
    /// As [`ServedCommunicator::connect`].
    pub fn connect_with(
        addr: SocketAddr,
        job: u64,
        client: u32,
        clients: u32,
        cfg: ServedConfig,
    ) -> Result<ServedCommunicator, CommError> {
        let stream = TcpStream::connect(addr).map_err(|e| io_err("connect to service", &e))?;
        stream
            .set_nodelay(true)
            .and_then(|()| stream.set_read_timeout(Some(cfg.op_deadline)))
            .and_then(|()| stream.set_write_timeout(Some(cfg.op_deadline)))
            .map_err(|e| io_err("configure service stream", &e))?;
        write_request(
            &mut &stream,
            &Request::Hello {
                job,
                client,
                clients,
            },
        )
        .map_err(|e| io_err("send handshake", &e))?;
        let (epoch, total) = match read_response(&mut &stream) {
            Ok(Response::Welcome {
                job: echoed,
                epoch,
                clients,
                ..
            }) => {
                if echoed != job {
                    return Err(CommError::ProtocolMismatch);
                }
                (epoch, clients)
            }
            Ok(Response::Reject(reject)) => return Err(map_reject(reject)),
            Ok(_) => return Err(CommError::ProtocolMismatch),
            Err(e) => return Err(io_err("read handshake reply", &e)),
        };
        // The welcome names the job's epoch and size; this client must be
        // one of its members.
        let world = total as usize;
        let view = GroupView::initial(client as usize, Topology::flat(world))
            .adopt(epoch, (0..world).collect())?;
        let verify = VerifyMode::from_env();
        let cell = Arc::new(ScheduleCell::default());
        let bytes_sent = Arc::new(AtomicU64::new(0));
        let session = ServedSession {
            stream,
            job,
            client,
            view,
            tracer: ScheduleTracer::new(verify, Arc::clone(&cell)),
            bytes_sent: Arc::clone(&bytes_sent),
            recorder: noop(),
            cfg,
        };
        Ok(ServedCommunicator(WorkerCommunicator::with_transport(
            session, bytes_sent, cell, verify,
        )))
    }
}

/// What `op` submits: its buffer or contribution, or a barrier token.
fn payload<'b>(op: &'b BorrowedOp<'_>) -> MsgRef<'b> {
    match op {
        BorrowedOp::AllReduce { buf, .. } | BorrowedOp::Broadcast { buf, .. } => MsgRef::F32(buf),
        BorrowedOp::AllGatherF32 { send } => MsgRef::F32(send),
        BorrowedOp::AllGatherU32 { send } => MsgRef::U32(send),
        _ => MsgRef::Token,
    }
}

impl ServedSession {
    /// Runs one collective through the service: fingerprints it in the
    /// schedule, submits its payload straight from the caller's storage,
    /// and lands the aggregate in `out` — or, for an in-place op, back in
    /// its own buffer. Structured `Busy` backpressure is retried with
    /// exponential backoff (a busy submission was never admitted, so the
    /// resend cannot double-count, and it borrows the same storage again).
    fn submit(
        &mut self,
        mut op: BorrowedOp<'_>,
        out: Option<DenseMut<'_>>,
    ) -> Result<(), CommError> {
        let (kind, words, param) = op.fingerprint();
        let point = self.tracer.begin_op(kind, words, param);
        let head = SubmitHead {
            job: self.job,
            client: self.client,
            epoch: self.view.epoch(),
            point,
            digest: self.tracer.digest(),
        };
        let bytes = payload(&op).payload_bytes();
        let mut backoff = self.cfg.busy_backoff;
        let mut busy_attempts = 0u32;
        loop {
            write_submit(&mut &self.stream, &head, payload(&op))
                .map_err(|e| self.broken("submit collective", &e))?;
            match read_response_head(&mut &self.stream) {
                Ok(ResponseHead::Done { seq, digest }) => {
                    let landed = if seq == point.seq && digest == head.digest {
                        let dest = match &mut op {
                            BorrowedOp::AllReduce { buf, .. }
                            | BorrowedOp::Broadcast { buf, .. } => Some(DenseMut::F32(buf)),
                            _ => out,
                        };
                        self.receive(dest)
                    } else {
                        Err(CommError::ProtocolMismatch)
                    };
                    if landed.is_err() {
                        // Anything but exactly the expected frame leaves
                        // the stream mid-frame or out of step: shut it
                        // down, as `frame_io` does on the ring, so the
                        // next op fails structured instead of parsing
                        // payload bytes as a tag.
                        let _ = self.stream.shutdown(Shutdown::Both);
                    }
                    landed?;
                    self.bytes_sent.fetch_add(bytes, Ordering::SeqCst);
                    self.recorder.add(keys::COMM_BYTES_SENT, bytes);
                    return Ok(());
                }
                Ok(ResponseHead::Other(Response::Reject(Reject::Busy { in_flight, budget }))) => {
                    busy_attempts += 1;
                    if busy_attempts > self.cfg.busy_retries {
                        return Err(CommError::Busy {
                            in_flight_bytes: in_flight,
                            budget_bytes: budget,
                        });
                    }
                    std::thread::sleep(backoff);
                    backoff = (backoff * 2).min(self.cfg.busy_backoff_max);
                }
                Ok(ResponseHead::Other(Response::Reject(reject))) => {
                    return Err(map_reject(reject))
                }
                Ok(ResponseHead::Other(_)) => return Err(CommError::ProtocolMismatch),
                Err(e) => return Err(self.broken("read collective result", &e)),
            }
        }
    }

    /// Receives a `Done`'s payload frame straight into `dest`, or its
    /// barrier token when there is none. On any error the stream is no
    /// longer on a message boundary.
    fn receive(&mut self, dest: Option<DenseMut<'_>>) -> Result<(), CommError> {
        let read_failed = |e: io::Error| io_err("read collective result", &e);
        let Some(dest) = dest else {
            return match read_payload_head(&mut &self.stream).map_err(read_failed)? {
                PayloadHead::Token => Ok(()),
                _ => Err(CommError::ProtocolMismatch),
            };
        };
        let expected = dest.len();
        match read_frame_into(&mut &self.stream, dest).map_err(read_failed)? {
            ReadInto::Filled { tag: None } => Ok(()),
            ReadInto::LengthMismatch { actual, .. } => {
                Err(CommError::LengthMismatch { expected, actual })
            }
            _ => Err(CommError::ProtocolMismatch),
        }
    }

    /// Maps an I/O failure inside a request/response exchange and shuts
    /// the stream down: how far the frame got is unknown, so the byte
    /// stream can no longer be trusted to sit on a message boundary.
    fn broken(&self, context: &str, e: &io::Error) -> CommError {
        let _ = self.stream.shutdown(Shutdown::Both);
        io_err(context, e)
    }
}

/// Maps a wire-level [`Reject`] onto the [`CommError`] surface shared
/// with the peer-to-peer transports.
fn map_reject(reject: Reject) -> CommError {
    match reject {
        Reject::Busy { in_flight, budget } => CommError::Busy {
            in_flight_bytes: in_flight,
            budget_bytes: budget,
        },
        Reject::Rejected { detail } => CommError::Rejected { reason: detail },
        Reject::ScheduleMismatch { seq, expected, got } => CommError::ScheduleMismatch {
            seq,
            local: Some(got),
            peer: expected.unwrap_or(got),
        },
        Reject::MembershipChanged { epoch, departed } => CommError::MembershipChanged {
            epoch,
            departed: departed.into_iter().map(|d| d as usize).collect(),
        },
        Reject::Protocol { detail } => CommError::Io(format!("service protocol error: {detail}")),
    }
}

impl WorkerTransport for ServedSession {
    /// One `Submit` per op. gTop-k is an exact gather-and-truncate: two
    /// gathers on the wire, each fingerprinted as what it is. Recursive
    /// doubling and pairwise exchange need peers, which a client of the
    /// service does not have.
    fn execute(&mut self, op: BorrowedOp<'_>) -> Result<CollectiveResult, CommError> {
        let world = self.view.world_size();
        match op {
            BorrowedOp::AllReduce { .. } | BorrowedOp::Barrier => {
                self.submit(op, None).map(|()| CollectiveResult::Unit)
            }
            BorrowedOp::Broadcast { root, .. } if root >= world => Err(CommError::InvalidRoot {
                root,
                world_size: world,
            }),
            BorrowedOp::Broadcast { .. } => self.submit(op, None).map(|()| CollectiveResult::Unit),
            BorrowedOp::AllGatherF32 { send } => {
                let mut out = vec![0.0f32; send.len() * world];
                self.submit(op, Some(DenseMut::F32(&mut out)))?;
                Ok(CollectiveResult::F32(out))
            }
            BorrowedOp::AllGatherU32 { send } => {
                let mut out = vec![0u32; send.len() * world];
                self.submit(op, Some(DenseMut::U32(&mut out)))?;
                Ok(CollectiveResult::U32(out))
            }
            BorrowedOp::GlobalTopk { indices, values, k } => {
                let indices = self
                    .execute(BorrowedOp::AllGatherU32 { send: indices })?
                    .into_u32()?;
                let values = self
                    .execute(BorrowedOp::AllGatherF32 { send: values })?
                    .into_f32()?;
                let (i, v) = sum_truncate_topk(&indices, &values, k);
                Ok(CollectiveResult::Sparse(i, v))
            }
            BorrowedOp::AllReduceRd { .. } | BorrowedOp::SendRecvF32 { .. } => {
                Err(CommError::ProtocolMismatch)
            }
        }
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
        write_request(
            &mut &self.stream,
            &Request::Reform {
                job: self.job,
                client: self.client,
                epoch: self.view.epoch(),
            },
        )
        .map_err(|e| io_err("send reform", &e))?;
        match read_response(&mut &self.stream) {
            Ok(Response::Reformed { epoch, members }) => {
                // `adopt` checks the reply before any of it is taken.
                let survivors = members.into_iter().map(|m| m as usize).collect();
                self.view = self.view.adopt(epoch, survivors)?;
                // Fold the reform into the schedule exactly like the
                // peer-to-peer transports, so a served and a p2p run of
                // the same elastic program keep identical digests.
                self.tracer.begin_op(
                    OpKind::Reform,
                    self.view.world_size() as u64,
                    membership_param(epoch, self.view.members()),
                );
                Ok(self.view.clone())
            }
            Ok(Response::Reject(reject)) => Err(map_reject(reject)),
            Ok(_) => Err(CommError::ProtocolMismatch),
            Err(e) => Err(io_err("read reform reply", &e)),
        }
    }

    fn tracer(&mut self) -> Option<&mut ScheduleTracer> {
        Some(&mut self.tracer)
    }
}

impl Drop for ServedSession {
    fn drop(&mut self) {
        // Graceful departure; the service treats a vanished client
        // identically, just via the connection teardown path.
        let _ = write_request(
            &mut &self.stream,
            &Request::Bye {
                job: self.job,
                client: self.client,
            },
        );
    }
}

/// One [`Communicator`] method of [`ServedCommunicator`], forwarded to
/// the shell inside it.
macro_rules! forward {
    (fn $name:ident(&self $(, $arg:ident: $ty:ty)*) -> $ret:ty) => {
        fn $name(&self $(, $arg: $ty)*) -> $ret {
            self.0.$name($($arg),*)
        }
    };
    (fn $name:ident(&mut self $(, $arg:ident: $ty:ty)*) -> $ret:ty) => {
        fn $name(&mut self $(, $arg: $ty)*) -> $ret {
            self.0.$name($($arg),*)
        }
    };
}

impl Communicator for ServedCommunicator {
    forward!(fn rank(&self) -> usize);
    forward!(fn world_size(&self) -> usize);
    forward!(fn topology(&self) -> Topology);
    forward!(fn membership(&self) -> Membership);
    forward!(fn reform(&mut self) -> Result<Membership, CommError>);
    forward!(fn all_reduce(&mut self, buf: &mut [f32], op: ReduceOp) -> Result<(), CommError>);
    forward!(fn all_gather_f32(&mut self, send: &[f32]) -> Result<Vec<f32>, CommError>);
    forward!(fn all_gather_u32(&mut self, send: &[u32]) -> Result<Vec<u32>, CommError>);
    forward!(fn broadcast(&mut self, buf: &mut [f32], root: usize) -> Result<(), CommError>);
    forward!(fn barrier(&mut self) -> Result<(), CommError>);
    forward!(fn bytes_sent(&self) -> u64);
    forward!(fn set_recorder(&mut self, recorder: RecorderHandle) -> ());
    forward!(fn global_topk(&mut self, indices: &[u32], values: &[f32], k: usize)
        -> Result<(Vec<u32>, Vec<f32>), CommError>);
    forward!(fn dispatch(&mut self, op: CollectiveOp) -> PendingOp);
    forward!(fn schedule(&self) -> Option<ScheduleSnapshot>);
}
