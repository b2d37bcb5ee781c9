//! Wire protocol of the aggregation service, layered on the `acp-net`
//! framing.
//!
//! Every request and response is `[tag: u8][fields…]`. This module owns
//! only those session headers; collective payloads are `acp-net` frames
//! written and read by [`acp_net::frame`] itself — vectored from the
//! caller's storage on the way out ([`write_submit`], [`write_done`]),
//! and on the way in either owned ([`read_request`], [`read_response`])
//! or left on the stream behind a parsed head ([`read_request_head`],
//! [`read_response_head`]) for the receiver to land in storage it chose.
//! So the byte encoding of a gradient submitted to the service is
//! identical to the bytes the peer-to-peer transport would put on the
//! wire:
//!
//! ```text
//! requests
//!   Hello   = 0x20  [job u64] [client u32] [clients u32]
//!   Submit  = 0x21  [job u64] [client u32] [epoch u64]
//!                   [seq u64] [kind u8] [words u64] [param u64]
//!                   [digest u64] [payload frame]
//!   Reform  = 0x22  [job u64] [client u32] [epoch u64]
//!   Bye     = 0x23  [job u64] [client u32]
//! responses
//!   Welcome  = 0x30  [job u64] [epoch u64] [clients u32] [rank u32]
//!   Done     = 0x31  [seq u64] [digest u64] [payload frame]
//!   Reformed = 0x32  [epoch u64] [n u32] [n × u32 members]
//!   Reject   = 0x33  [code u8] [code-specific fields]
//! ```
//!
//! Every `Submit` names the session (`job`), the membership `epoch`, and
//! the client's full schedule position — sequence number, op fingerprint
//! and rolling digest from the same [`acp_collectives::schedule`]
//! machinery the peer-to-peer transports use. A desynchronized client is
//! therefore detected at its *first* divergent submission and told, in a
//! structured [`Reject::ScheduleMismatch`], which op the job expected —
//! never a hang, never a silently wrong reduction.

use std::io::{self, Read, Write};

use acp_collectives::schedule::{OpKind, SchedulePoint};
use acp_collectives::WireMsg;
use acp_net::frame::{
    read_frame, read_payload_head, view_of, write_msg, Frame, MsgRef, PayloadHead,
};

const TAG_HELLO: u8 = 0x20;
const TAG_SUBMIT: u8 = 0x21;
const TAG_REFORM: u8 = 0x22;
const TAG_BYE: u8 = 0x23;

const TAG_WELCOME: u8 = 0x30;
const TAG_DONE: u8 = 0x31;
const TAG_REFORMED: u8 = 0x32;
const TAG_REJECT: u8 = 0x33;

const REJECT_BUSY: u8 = 1;
const REJECT_REJECTED: u8 = 2;
const REJECT_SCHEDULE: u8 = 3;
const REJECT_MEMBERSHIP: u8 = 4;
const REJECT_PROTOCOL: u8 = 5;

/// Cap on decoded detail strings (a corrupt length must not allocate GBs).
const MAX_DETAIL: u32 = 1 << 16;
/// Cap on decoded member lists, and so on the clients a job may register.
pub(crate) const MAX_MEMBERS: u32 = 1 << 20;

/// Bytes of a `Submit` between its tag byte and its payload frame.
const SUBMIT_HEAD_BYTES: usize = 53;
/// Bytes of a `Done` between its tag byte and its payload frame.
const DONE_HEAD_BYTES: usize = 16;

/// The session header of a [`Submit`]: everything it says before its
/// payload frame — the client's identity and its position in the job's
/// collective schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubmitHead {
    /// Job (session) this contribution belongs to.
    pub job: u64,
    /// Submitting client id within the job.
    pub client: u32,
    /// Membership epoch the client believes the job is at.
    pub epoch: u64,
    /// The client's schedule position: sequence number plus the
    /// `(kind, words, param)` fingerprint of this collective.
    pub point: SchedulePoint,
    /// The client's rolling schedule digest *after* folding this op.
    pub digest: u64,
}

/// One gradient contribution: the client's identity, its position in the
/// job's collective schedule, and the payload exactly as the peer-to-peer
/// transport would frame it.
#[derive(Debug, Clone, PartialEq)]
pub struct Submit {
    /// Job (session) this contribution belongs to.
    pub job: u64,
    /// Submitting client id within the job.
    pub client: u32,
    /// Membership epoch the client believes the job is at.
    pub epoch: u64,
    /// The client's schedule position: sequence number plus the
    /// `(kind, words, param)` fingerprint of this collective.
    pub point: SchedulePoint,
    /// The client's rolling schedule digest *after* folding this op.
    pub digest: u64,
    /// The collective payload.
    pub payload: WireMsg,
}

impl Submit {
    /// The session header: everything but the payload.
    pub fn head(&self) -> SubmitHead {
        SubmitHead {
            job: self.job,
            client: self.client,
            epoch: self.epoch,
            point: self.point,
            digest: self.digest,
        }
    }
}

/// A client-to-server request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Session handshake: join `job` as `client` of `clients`.
    Hello {
        /// Job (session) id.
        job: u64,
        /// This client's id in `[0, clients)`.
        client: u32,
        /// Total clients the job expects per step.
        clients: u32,
    },
    /// One collective contribution.
    Submit(Submit),
    /// Membership-reform request: rebuild the job from the connected
    /// survivors (collective — every survivor must send it).
    Reform {
        /// Job id.
        job: u64,
        /// Requesting client.
        client: u32,
        /// The epoch being reformed *from*.
        epoch: u64,
    },
    /// Graceful departure.
    Bye {
        /// Job id.
        job: u64,
        /// Departing client.
        client: u32,
    },
}

/// A request parsed as far as possible without touching a payload byte
/// (see [`read_request_head`]).
#[derive(Debug, Clone, PartialEq)]
pub enum RequestHead {
    /// A `Submit` and what its payload frame announces. The payload
    /// bytes are still on the stream: read them into storage sized from
    /// the head, or discard exactly [`PayloadHead::body_bytes`].
    Submit(SubmitHead, PayloadHead),
    /// Any other request, complete.
    Other(Request),
}

/// A structured refusal — the service never answers a bad or unlucky
/// request with silence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reject {
    /// Admission control: an in-flight byte budget is exhausted. The
    /// submission was not accepted; retry after the current step drains.
    Busy {
        /// Bytes in flight against the exhausted budget.
        in_flight: u64,
        /// The exhausted budget, bytes.
        budget: u64,
    },
    /// The request is refused outright (bad handshake, unsupported
    /// collective, poisoned session). Not retryable.
    Rejected {
        /// Why.
        detail: String,
    },
    /// The submission disagrees with the job's collective schedule.
    ScheduleMismatch {
        /// Sequence number where the divergence was detected.
        seq: u64,
        /// What the job's schedule expected at that position, if a step
        /// was already open.
        expected: Option<SchedulePoint>,
        /// What the offending client submitted.
        got: SchedulePoint,
    },
    /// A member of the job departed; the in-flight step (if any) is lost.
    /// Survivors should send [`Request::Reform`].
    MembershipChanged {
        /// Epoch the departure was observed at.
        epoch: u64,
        /// Clients observed departed, ascending.
        departed: Vec<u32>,
    },
    /// The client broke the request protocol (malformed sequence,
    /// duplicate contribution, wrong payload type).
    Protocol {
        /// Why.
        detail: String,
    },
}

/// A server-to-client response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Handshake accepted.
    Welcome {
        /// Echoed job id.
        job: u64,
        /// Current membership epoch.
        epoch: u64,
        /// Total clients the job aggregates per step.
        clients: u32,
        /// The client's virtual rank in the job.
        rank: u32,
    },
    /// The step completed; `payload` is the aggregated result.
    Done {
        /// Echoed schedule sequence number.
        seq: u64,
        /// Echoed schedule digest.
        digest: u64,
        /// Aggregated collective result.
        payload: WireMsg,
    },
    /// Reform completed: the job continues at `epoch` with `members`.
    Reformed {
        /// New membership epoch.
        epoch: u64,
        /// Surviving clients, ascending; virtual rank = index.
        members: Vec<u32>,
    },
    /// Structured refusal.
    Reject(Reject),
}

/// A response parsed up to its payload frame (see
/// [`read_response_head`]).
#[derive(Debug, Clone, PartialEq)]
pub enum ResponseHead {
    /// A `Done`; its payload frame is still on the stream, for
    /// [`acp_net::frame::read_frame_into`] to land in the caller's buffer.
    Done {
        /// Echoed schedule sequence number.
        seq: u64,
        /// Echoed schedule digest.
        digest: u64,
    },
    /// Any other response, complete.
    Other(Response),
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    let bytes = s.as_bytes();
    let len = bytes.len().min(MAX_DETAIL as usize);
    put_u32(buf, len as u32);
    buf.extend_from_slice(&bytes[..len]);
}

fn put_point(buf: &mut Vec<u8>, p: &SchedulePoint) {
    put_u64(buf, p.seq);
    buf.push(p.kind.code());
    put_u64(buf, p.words);
    put_u64(buf, p.param);
}

fn read_u32<R: Read>(r: &mut R) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn read_u64<R: Read>(r: &mut R) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

fn read_u8<R: Read>(r: &mut R) -> io::Result<u8> {
    let mut b = [0u8; 1];
    r.read_exact(&mut b)?;
    Ok(b[0])
}

fn bad(detail: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, detail)
}

fn read_str<R: Read>(r: &mut R) -> io::Result<String> {
    let len = read_u32(r)?;
    if len > MAX_DETAIL {
        return Err(bad(format!("detail string of {len} bytes exceeds the cap")));
    }
    let mut bytes = vec![0u8; len as usize];
    r.read_exact(&mut bytes)?;
    String::from_utf8(bytes).map_err(|_| bad("detail string is not UTF-8".to_string()))
}

fn read_point<R: Read>(r: &mut R) -> io::Result<SchedulePoint> {
    let seq = read_u64(r)?;
    let code = read_u8(r)?;
    let kind = OpKind::from_code(code)
        .ok_or_else(|| bad(format!("unknown schedule op kind {code:#04x}")))?;
    let words = read_u64(r)?;
    let param = read_u64(r)?;
    Ok(SchedulePoint {
        seq,
        kind,
        words,
        param,
    })
}

/// Borrows an owned payload for the vectored writer. Service payloads
/// are untagged — schedule checking is explicit in the session header.
fn untagged(payload: &WireMsg) -> io::Result<MsgRef<'_>> {
    view_of(payload).ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            "service payloads are untagged; schedule checking is explicit",
        )
    })
}

/// Reads one payload frame, owned, through [`acp_net::frame::read_frame`].
fn read_owned_payload<R: Read>(r: &mut R) -> io::Result<WireMsg> {
    match read_frame(r)? {
        Frame::Msg(WireMsg::Tagged(..)) => Err(bad(
            "service payloads are untagged; schedule checking is explicit".to_string(),
        )),
        Frame::Msg(msg) => Ok(msg),
        other => Err(bad(format!(
            "expected a collective payload frame, got {other:?}"
        ))),
    }
}

/// Writes one `Submit` whose payload is borrowed from the caller: the
/// session header goes out in one small write and the payload frame is
/// written vectored, straight from `payload`'s storage
/// ([`acp_net::frame::write_msg`]). Byte-identical to [`write_request`]
/// of the equivalent owned [`Submit`].
///
/// # Errors
///
/// Propagates the underlying I/O error.
pub fn write_submit<W: Write>(w: &mut W, head: &SubmitHead, payload: MsgRef<'_>) -> io::Result<()> {
    let mut buf = Vec::with_capacity(1 + SUBMIT_HEAD_BYTES);
    buf.push(TAG_SUBMIT);
    put_u64(&mut buf, head.job);
    put_u32(&mut buf, head.client);
    put_u64(&mut buf, head.epoch);
    put_point(&mut buf, &head.point);
    put_u64(&mut buf, head.digest);
    w.write_all(&buf)?;
    write_msg(w, None, payload)
}

/// Writes one `Done` whose payload is borrowed from the caller — the
/// server's reply path: every waiting connection writes the *same*
/// aggregate buffer. Byte-identical to [`write_response`] of the
/// equivalent owned [`Response::Done`].
///
/// # Errors
///
/// Propagates the underlying I/O error.
pub fn write_done<W: Write>(
    w: &mut W,
    seq: u64,
    digest: u64,
    payload: MsgRef<'_>,
) -> io::Result<()> {
    let mut buf = Vec::with_capacity(1 + DONE_HEAD_BYTES);
    buf.push(TAG_DONE);
    put_u64(&mut buf, seq);
    put_u64(&mut buf, digest);
    w.write_all(&buf)?;
    write_msg(w, None, payload)
}

/// Writes one request; a `Submit`'s payload is written straight from its
/// own storage (see [`write_submit`]).
///
/// # Errors
///
/// Propagates the underlying I/O error; a schedule-tagged payload is
/// `InvalidInput`.
pub fn write_request<W: Write>(w: &mut W, req: &Request) -> io::Result<()> {
    let mut buf = Vec::with_capacity(32);
    match req {
        Request::Hello {
            job,
            client,
            clients,
        } => {
            buf.push(TAG_HELLO);
            put_u64(&mut buf, *job);
            put_u32(&mut buf, *client);
            put_u32(&mut buf, *clients);
        }
        Request::Submit(s) => {
            return write_submit(w, &s.head(), untagged(&s.payload)?);
        }
        Request::Reform { job, client, epoch } => {
            buf.push(TAG_REFORM);
            put_u64(&mut buf, *job);
            put_u32(&mut buf, *client);
            put_u64(&mut buf, *epoch);
        }
        Request::Bye { job, client } => {
            buf.push(TAG_BYE);
            put_u64(&mut buf, *job);
            put_u32(&mut buf, *client);
        }
    }
    w.write_all(&buf)
}

/// Writes one response; a `Done`'s payload is written straight from its
/// own storage (see [`write_done`]).
///
/// # Errors
///
/// Propagates the underlying I/O error; a schedule-tagged payload is
/// `InvalidInput`.
pub fn write_response<W: Write>(w: &mut W, resp: &Response) -> io::Result<()> {
    let mut buf = Vec::with_capacity(32);
    match resp {
        Response::Welcome {
            job,
            epoch,
            clients,
            rank,
        } => {
            buf.push(TAG_WELCOME);
            put_u64(&mut buf, *job);
            put_u64(&mut buf, *epoch);
            put_u32(&mut buf, *clients);
            put_u32(&mut buf, *rank);
        }
        Response::Done {
            seq,
            digest,
            payload,
        } => return write_done(w, *seq, *digest, untagged(payload)?),
        Response::Reformed { epoch, members } => {
            buf.push(TAG_REFORMED);
            put_u64(&mut buf, *epoch);
            put_u32(&mut buf, members.len() as u32);
            for m in members {
                put_u32(&mut buf, *m);
            }
        }
        Response::Reject(reject) => {
            buf.push(TAG_REJECT);
            match reject {
                Reject::Busy { in_flight, budget } => {
                    buf.push(REJECT_BUSY);
                    put_u64(&mut buf, *in_flight);
                    put_u64(&mut buf, *budget);
                }
                Reject::Rejected { detail } => {
                    buf.push(REJECT_REJECTED);
                    put_str(&mut buf, detail);
                }
                Reject::ScheduleMismatch { seq, expected, got } => {
                    buf.push(REJECT_SCHEDULE);
                    put_u64(&mut buf, *seq);
                    match expected {
                        Some(p) => {
                            buf.push(1);
                            put_point(&mut buf, p);
                        }
                        None => buf.push(0),
                    }
                    put_point(&mut buf, got);
                }
                Reject::MembershipChanged { epoch, departed } => {
                    buf.push(REJECT_MEMBERSHIP);
                    put_u64(&mut buf, *epoch);
                    put_u32(&mut buf, departed.len() as u32);
                    for d in departed {
                        put_u32(&mut buf, *d);
                    }
                }
                Reject::Protocol { detail } => {
                    buf.push(REJECT_PROTOCOL);
                    put_str(&mut buf, detail);
                }
            }
        }
    }
    w.write_all(&buf)
}

/// Reads the fixed-size session header that follows a `Submit` tag byte,
/// with one `read_exact`.
fn read_submit_head<R: Read>(r: &mut R) -> io::Result<SubmitHead> {
    let mut fixed = [0u8; SUBMIT_HEAD_BYTES];
    r.read_exact(&mut fixed)?;
    let f = &mut &fixed[..];
    Ok(SubmitHead {
        job: read_u64(f)?,
        client: read_u32(f)?,
        epoch: read_u64(f)?,
        point: read_point(f)?,
        digest: read_u64(f)?,
    })
}

/// Reads the rest of a payload-free request whose tag byte was `tag`.
fn read_control_request<R: Read>(r: &mut R, tag: u8) -> io::Result<Request> {
    match tag {
        TAG_HELLO => Ok(Request::Hello {
            job: read_u64(r)?,
            client: read_u32(r)?,
            clients: read_u32(r)?,
        }),
        TAG_REFORM => Ok(Request::Reform {
            job: read_u64(r)?,
            client: read_u32(r)?,
            epoch: read_u64(r)?,
        }),
        TAG_BYE => Ok(Request::Bye {
            job: read_u64(r)?,
            client: read_u32(r)?,
        }),
        other => Err(bad(format!("unknown request tag {other:#04x}"))),
    }
}

/// Reads one request (blocking, subject to the stream's read timeout),
/// with an owned payload.
///
/// # Errors
///
/// Propagates I/O errors; unknown tags and oversized lengths surface as
/// `InvalidData`.
pub fn read_request<R: Read>(r: &mut R) -> io::Result<Request> {
    match read_u8(r)? {
        TAG_SUBMIT => {
            let head = read_submit_head(r)?;
            Ok(Request::Submit(Submit {
                job: head.job,
                client: head.client,
                epoch: head.epoch,
                point: head.point,
                digest: head.digest,
                payload: read_owned_payload(r)?,
            }))
        }
        tag => read_control_request(r, tag),
    }
}

/// Reads one request up to — not including — the first payload byte of a
/// `Submit`, allocating nothing whatever the header announces: the
/// server's admission control decides on the head alone, then reads the
/// payload into storage it chose or discards it.
///
/// # Errors
///
/// As [`read_request`].
pub fn read_request_head<R: Read>(r: &mut R) -> io::Result<RequestHead> {
    match read_u8(r)? {
        TAG_SUBMIT => Ok(RequestHead::Submit(
            read_submit_head(r)?,
            read_payload_head(r)?,
        )),
        tag => read_control_request(r, tag).map(RequestHead::Other),
    }
}

/// Reads one response up to the payload frame of a `Done`, which stays on
/// the stream for the caller to receive into its own buffer.
///
/// # Errors
///
/// Propagates I/O errors; unknown tags and oversized lengths surface as
/// `InvalidData`.
pub fn read_response_head<R: Read>(r: &mut R) -> io::Result<ResponseHead> {
    let resp = match read_u8(r)? {
        TAG_WELCOME => Response::Welcome {
            job: read_u64(r)?,
            epoch: read_u64(r)?,
            clients: read_u32(r)?,
            rank: read_u32(r)?,
        },
        TAG_DONE => {
            let mut fixed = [0u8; DONE_HEAD_BYTES];
            r.read_exact(&mut fixed)?;
            let f = &mut &fixed[..];
            return Ok(ResponseHead::Done {
                seq: read_u64(f)?,
                digest: read_u64(f)?,
            });
        }
        TAG_REFORMED => {
            let epoch = read_u64(r)?;
            let n = read_u32(r)?;
            if n > MAX_MEMBERS {
                return Err(bad(format!("member list of {n} exceeds the cap")));
            }
            let mut members = Vec::with_capacity(n as usize);
            for _ in 0..n {
                members.push(read_u32(r)?);
            }
            Response::Reformed { epoch, members }
        }
        TAG_REJECT => {
            let reject = match read_u8(r)? {
                REJECT_BUSY => Reject::Busy {
                    in_flight: read_u64(r)?,
                    budget: read_u64(r)?,
                },
                REJECT_REJECTED => Reject::Rejected {
                    detail: read_str(r)?,
                },
                REJECT_SCHEDULE => {
                    let seq = read_u64(r)?;
                    let expected = match read_u8(r)? {
                        0 => None,
                        1 => Some(read_point(r)?),
                        other => {
                            return Err(bad(format!("bad option discriminant {other:#04x}")));
                        }
                    };
                    let got = read_point(r)?;
                    Reject::ScheduleMismatch { seq, expected, got }
                }
                REJECT_MEMBERSHIP => {
                    let epoch = read_u64(r)?;
                    let n = read_u32(r)?;
                    if n > MAX_MEMBERS {
                        return Err(bad(format!("departed list of {n} exceeds the cap")));
                    }
                    let mut departed = Vec::with_capacity(n as usize);
                    for _ in 0..n {
                        departed.push(read_u32(r)?);
                    }
                    Reject::MembershipChanged { epoch, departed }
                }
                REJECT_PROTOCOL => Reject::Protocol {
                    detail: read_str(r)?,
                },
                other => return Err(bad(format!("unknown reject code {other:#04x}"))),
            };
            Response::Reject(reject)
        }
        other => return Err(bad(format!("unknown response tag {other:#04x}"))),
    };
    Ok(ResponseHead::Other(resp))
}

/// Reads one response (blocking, subject to the stream's read timeout),
/// with an owned payload.
///
/// # Errors
///
/// As [`read_response_head`].
pub fn read_response<R: Read>(r: &mut R) -> io::Result<Response> {
    match read_response_head(r)? {
        ResponseHead::Done { seq, digest } => Ok(Response::Done {
            seq,
            digest,
            payload: read_owned_payload(r)?,
        }),
        ResponseHead::Other(resp) => Ok(resp),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_request(req: Request) {
        let mut bytes = Vec::new();
        write_request(&mut bytes, &req).unwrap();
        let mut r = &bytes[..];
        assert_eq!(read_request(&mut r).unwrap(), req);
        assert!(r.is_empty(), "trailing bytes after decode");
    }

    fn roundtrip_response(resp: Response) {
        let mut bytes = Vec::new();
        write_response(&mut bytes, &resp).unwrap();
        let mut r = &bytes[..];
        assert_eq!(read_response(&mut r).unwrap(), resp);
        assert!(r.is_empty(), "trailing bytes after decode");
    }

    #[test]
    fn requests_roundtrip() {
        roundtrip_request(Request::Hello {
            job: 7,
            client: 2,
            clients: 4,
        });
        roundtrip_request(Request::Submit(Submit {
            job: 7,
            client: 2,
            epoch: 1,
            point: SchedulePoint {
                seq: 42,
                kind: OpKind::AllReduce,
                words: 128,
                param: 1,
            },
            digest: 0xdead_beef,
            payload: WireMsg::F32(vec![1.0, -2.5, 0.0]),
        }));
        roundtrip_request(Request::Reform {
            job: 7,
            client: 2,
            epoch: 3,
        });
        roundtrip_request(Request::Bye { job: 7, client: 2 });
    }

    #[test]
    fn responses_roundtrip() {
        roundtrip_response(Response::Welcome {
            job: 7,
            epoch: 0,
            clients: 4,
            rank: 2,
        });
        roundtrip_response(Response::Done {
            seq: 42,
            digest: 9,
            payload: WireMsg::U32(vec![1, 2, 3]),
        });
        roundtrip_response(Response::Reformed {
            epoch: 2,
            members: vec![0, 1, 3],
        });
        for reject in [
            Reject::Busy {
                in_flight: 4096,
                budget: 1024,
            },
            Reject::Rejected {
                detail: "unsupported".to_string(),
            },
            Reject::ScheduleMismatch {
                seq: 5,
                expected: Some(SchedulePoint {
                    seq: 5,
                    kind: OpKind::Barrier,
                    words: 0,
                    param: 0,
                }),
                got: SchedulePoint {
                    seq: 5,
                    kind: OpKind::AllReduce,
                    words: 10,
                    param: 0,
                },
            },
            Reject::ScheduleMismatch {
                seq: 0,
                expected: None,
                got: SchedulePoint {
                    seq: 0,
                    kind: OpKind::Broadcast,
                    words: 3,
                    param: 1,
                },
            },
            Reject::MembershipChanged {
                epoch: 1,
                departed: vec![2],
            },
            Reject::Protocol {
                detail: "duplicate contribution".to_string(),
            },
        ] {
            roundtrip_response(Response::Reject(reject));
        }
    }

    #[test]
    fn payloads_reuse_the_net_framing_bit_for_bit() {
        // The embedded payload bytes must be exactly what acp-net's
        // peer-to-peer transport would write for the same message.
        let msg = WireMsg::Sparse(vec![1, 5, 9], vec![0.5, -0.25, 8.0]);
        let submit = Request::Submit(Submit {
            job: 1,
            client: 0,
            epoch: 0,
            point: SchedulePoint {
                seq: 0,
                kind: OpKind::AllGatherF32,
                words: 3,
                param: 0,
            },
            digest: 0,
            payload: msg.clone(),
        });
        let mut bytes = Vec::new();
        write_request(&mut bytes, &submit).unwrap();
        let framed = acp_net::frame::encode(&Frame::Msg(msg));
        assert!(
            bytes.ends_with(&framed),
            "submit encoding must embed the acp-net frame verbatim"
        );
    }

    #[test]
    fn corrupt_tags_are_invalid_data_not_panics() {
        let mut r: &[u8] = &[0xFFu8];
        assert_eq!(
            read_request(&mut r).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
        let mut r: &[u8] = &[0xFFu8];
        assert_eq!(
            read_response(&mut r).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
        // Truncated submit: valid tag, missing fields.
        let mut r: &[u8] = &[TAG_SUBMIT, 1, 2];
        assert!(read_request(&mut r).is_err());
    }

    #[test]
    fn oversized_detail_is_rejected() {
        let mut buf = vec![TAG_REJECT, REJECT_REJECTED];
        buf.extend_from_slice(&(MAX_DETAIL + 1).to_le_bytes());
        let mut r = &buf[..];
        assert_eq!(
            read_response(&mut r).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
    }
}
