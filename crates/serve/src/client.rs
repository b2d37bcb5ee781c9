//! [`ServedCommunicator`]: the [`Communicator`] backend that aggregates
//! through an [`crate::Server`] instead of peer-to-peer rings.
//!
//! Each collective becomes one `Submit` round-trip: the client fingerprints
//! the op with the same [`ScheduleTracer`] the transports use, names its
//! session (job id, membership epoch) and schedule position, ships the
//! payload in the `acp-net` frame encoding, and blocks for the aggregated
//! result. Structured rejects map onto the existing [`CommError`] surface:
//! backpressure becomes the retryable [`CommError::Busy`], a dead sibling
//! becomes [`CommError::MembershipChanged`] (answered, as with the
//! peer-to-peer transports, by calling [`Communicator::reform`]), and a
//! schedule divergence becomes [`CommError::ScheduleMismatch`].

use std::io;
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use acp_collectives::schedule::{
    membership_param, OpKind, ScheduleCell, SchedulePoint, ScheduleTracer, VerifyMode,
};
use acp_collectives::{CommError, Communicator, Membership, ReduceOp, ScheduleSnapshot};
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
/// side of the aggregation service.
///
/// Supports the all-reduce subset of the trait: all-reduce, the two
/// all-gathers, broadcast and barrier (plus the default derived
/// `global_topk`). The results are bit-exact with [`acp_collectives`]'s
/// in-process and TCP rings, proven by the `served_equivalence` test in
/// `acp-training`.
pub struct ServedCommunicator {
    stream: TcpStream,
    job: u64,
    client: u32,
    epoch: u64,
    /// Current members ascending; virtual rank = index.
    members: Vec<u32>,
    virtual_rank: usize,
    next_seq: u64,
    tracer: ScheduleTracer,
    cell: Arc<ScheduleCell>,
    bytes_sent: u64,
    recorder: RecorderHandle,
    cfg: ServedConfig,
    /// The most recent structured reject, kept for diagnostics.
    last_reject: Option<Reject>,
}

impl std::fmt::Debug for ServedCommunicator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServedCommunicator")
            .field("job", &self.job)
            .field("client", &self.client)
            .field("epoch", &self.epoch)
            .field("members", &self.members)
            .finish_non_exhaustive()
    }
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
        let (epoch, total, rank) = match read_response(&mut &stream) {
            Ok(Response::Welcome {
                job: echoed,
                epoch,
                clients,
                rank,
            }) => {
                if echoed != job {
                    return Err(CommError::ProtocolMismatch);
                }
                (epoch, clients, rank)
            }
            Ok(Response::Reject(reject)) => return Err(map_reject(reject)),
            Ok(_) => return Err(CommError::ProtocolMismatch),
            Err(e) => return Err(io_err("read handshake reply", &e)),
        };
        let cell = Arc::new(ScheduleCell::default());
        Ok(ServedCommunicator {
            stream,
            job,
            client,
            epoch,
            members: (0..total).collect(),
            virtual_rank: rank as usize,
            next_seq: 0,
            tracer: ScheduleTracer::new(VerifyMode::from_env(), Arc::clone(&cell)),
            cell,
            bytes_sent: 0,
            recorder: noop(),
            cfg,
            last_reject: None,
        })
    }

    /// The job (session) id this client aggregates under.
    pub fn job(&self) -> u64 {
        self.job
    }

    /// The most recent structured rejection the service answered with,
    /// for diagnostics (e.g. inspecting `Busy` pressure after a retry
    /// succeeded).
    pub fn last_reject(&self) -> Option<&Reject> {
        self.last_reject.as_ref()
    }

    /// Runs one collective through the service: fingerprints it in the
    /// schedule, submits `io`'s send side straight from the caller's
    /// storage, and lands the aggregate in `io`'s receive side. Structured
    /// `Busy` backpressure is retried with exponential backoff (a busy
    /// submission was never admitted, so the resend cannot double-count,
    /// and it borrows the same storage again).
    fn submit(
        &mut self,
        kind: OpKind,
        words: u64,
        param: u64,
        mut io: OpIo<'_>,
    ) -> Result<(), CommError> {
        self.tracer.begin_op(kind, words, param);
        let point = SchedulePoint {
            seq: self.next_seq,
            kind,
            words,
            param,
        };
        self.next_seq += 1;
        let head = SubmitHead {
            job: self.job,
            client: self.client,
            epoch: self.epoch,
            point,
            digest: self.tracer.digest(),
        };
        let mut backoff = self.cfg.busy_backoff;
        let mut busy_attempts = 0u32;
        loop {
            write_submit(&mut &self.stream, &head, io.send())
                .map_err(|e| self.broken("submit collective", &e))?;
            match read_response_head(&mut &self.stream) {
                Ok(ResponseHead::Done { seq, digest }) => {
                    let landed = if seq == point.seq && digest == head.digest {
                        self.receive(&mut io)
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
                    let bytes = io.send().payload_bytes();
                    self.bytes_sent += bytes;
                    self.recorder.add(keys::COMM_BYTES_SENT, bytes);
                    return Ok(());
                }
                Ok(ResponseHead::Other(Response::Reject(Reject::Busy { in_flight, budget }))) => {
                    self.last_reject = Some(Reject::Busy { in_flight, budget });
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
                    self.last_reject = Some(reject.clone());
                    return Err(map_reject(reject));
                }
                Ok(ResponseHead::Other(_)) => return Err(CommError::ProtocolMismatch),
                Err(e) => return Err(self.broken("read collective result", &e)),
            }
        }
    }

    /// Receives a `Done`'s payload frame straight into `io`'s destination.
    /// On any error the stream is no longer on a message boundary.
    fn receive(&mut self, io: &mut OpIo<'_>) -> Result<(), CommError> {
        let read_failed = |e: io::Error| io_err("read collective result", &e);
        let Some(dest) = io.dest() else {
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

/// The caller-side storage of one collective: what is sent, and where the
/// aggregate lands.
enum OpIo<'a> {
    /// Send the buffer, receive the result over it (all-reduce,
    /// broadcast).
    InPlace(&'a mut [f32]),
    /// Send a contribution, receive every rank's into the gathered output.
    GatherF32(&'a [f32], &'a mut [f32]),
    /// As [`OpIo::GatherF32`], for `u32`s.
    GatherU32(&'a [u32], &'a mut [u32]),
    /// A barrier token each way.
    Token,
}

impl OpIo<'_> {
    fn send(&self) -> MsgRef<'_> {
        match self {
            OpIo::InPlace(buf) => MsgRef::F32(buf),
            OpIo::GatherF32(send, _) => MsgRef::F32(send),
            OpIo::GatherU32(send, _) => MsgRef::U32(send),
            OpIo::Token => MsgRef::Token,
        }
    }

    fn dest(&mut self) -> Option<DenseMut<'_>> {
        match self {
            OpIo::InPlace(buf) => Some(DenseMut::F32(buf)),
            OpIo::GatherF32(_, out) => Some(DenseMut::F32(out)),
            OpIo::GatherU32(_, out) => Some(DenseMut::U32(out)),
            OpIo::Token => None,
        }
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

impl Communicator for ServedCommunicator {
    fn rank(&self) -> usize {
        self.virtual_rank
    }

    fn world_size(&self) -> usize {
        self.members.len()
    }

    fn membership(&self) -> Membership {
        Membership::from_parts(
            self.epoch,
            self.members.iter().map(|&m| m as usize).collect(),
        )
    }

    fn reform(&mut self) -> Result<Membership, CommError> {
        write_request(
            &mut &self.stream,
            &Request::Reform {
                job: self.job,
                client: self.client,
                epoch: self.epoch,
            },
        )
        .map_err(|e| io_err("send reform", &e))?;
        match read_response(&mut &self.stream) {
            Ok(Response::Reformed { epoch, members }) => {
                self.epoch = epoch;
                self.members = members;
                self.virtual_rank = self
                    .members
                    .iter()
                    .position(|&m| m == self.client)
                    .ok_or(CommError::ProtocolMismatch)?;
                let survivors: Vec<usize> = self.members.iter().map(|&m| m as usize).collect();
                // Fold the reform into the schedule exactly like the
                // peer-to-peer transports, so a served and a p2p run of
                // the same elastic program keep identical digests.
                self.tracer.begin_op(
                    OpKind::Reform,
                    survivors.len() as u64,
                    membership_param(self.epoch, &survivors),
                );
                self.next_seq += 1;
                Ok(Membership::from_parts(self.epoch, survivors))
            }
            Ok(Response::Reject(reject)) => {
                self.last_reject = Some(reject.clone());
                Err(map_reject(reject))
            }
            Ok(_) => Err(CommError::ProtocolMismatch),
            Err(e) => Err(io_err("read reform reply", &e)),
        }
    }

    fn all_reduce(&mut self, buf: &mut [f32], op: ReduceOp) -> Result<(), CommError> {
        self.submit(
            OpKind::AllReduce,
            buf.len() as u64,
            op.code(),
            OpIo::InPlace(buf),
        )
    }

    fn all_gather_f32(&mut self, send: &[f32]) -> Result<Vec<f32>, CommError> {
        let mut out = vec![0.0f32; send.len() * self.members.len()];
        self.submit(
            OpKind::AllGatherF32,
            send.len() as u64,
            0,
            OpIo::GatherF32(send, &mut out),
        )?;
        Ok(out)
    }

    fn all_gather_u32(&mut self, send: &[u32]) -> Result<Vec<u32>, CommError> {
        let mut out = vec![0u32; send.len() * self.members.len()];
        self.submit(
            OpKind::AllGatherU32,
            send.len() as u64,
            0,
            OpIo::GatherU32(send, &mut out),
        )?;
        Ok(out)
    }

    fn broadcast(&mut self, buf: &mut [f32], root: usize) -> Result<(), CommError> {
        if root >= self.members.len() {
            return Err(CommError::InvalidRoot {
                root,
                world_size: self.members.len(),
            });
        }
        self.submit(
            OpKind::Broadcast,
            buf.len() as u64,
            root as u64,
            OpIo::InPlace(buf),
        )
    }

    fn barrier(&mut self) -> Result<(), CommError> {
        self.submit(OpKind::Barrier, 0, 0, OpIo::Token)
    }

    fn bytes_sent(&self) -> u64 {
        self.bytes_sent
    }

    fn set_recorder(&mut self, recorder: RecorderHandle) {
        self.recorder = recorder;
    }

    fn schedule(&self) -> Option<ScheduleSnapshot> {
        Some(
            self.cell
                .snapshot(self.tracer.mode() == VerifyMode::CrossCheck),
        )
    }
}

impl Drop for ServedCommunicator {
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
