//! The session codec's bytes are pinned, and its receive-into path is the
//! owned path bit for bit.
//!
//! `serve::wire` used to stage every message through
//! `encode_request`/`encode_response` (payload cloned, framed into a
//! `Vec`, appended to the header `Vec`). Those encoders live on here as
//! the oracle: the vectored writers must put exactly the same bytes on
//! the wire for every variant, and the head-then-body readers must land
//! exactly what the owned readers return — under a reader that dribbles
//! 1–7 bytes per call.

use std::io::{self, Read};

use acp_collectives::schedule::{OpKind, SchedulePoint};
use acp_collectives::WireMsg;
use acp_net::frame::{
    encode, read_frame_into, read_payload_body_into, DenseMut, Frame, PayloadHead, ReadInto,
};
use acp_serve::wire::{
    read_request, read_request_head, read_response, read_response_head, write_request,
    write_response, Reject, Request, RequestHead, Response, ResponseHead, Submit,
};

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

fn put_point(buf: &mut Vec<u8>, p: &SchedulePoint) {
    put_u64(buf, p.seq);
    buf.push(p.kind.code());
    put_u64(buf, p.words);
    put_u64(buf, p.param);
}

fn put_payload(buf: &mut Vec<u8>, payload: &WireMsg) {
    buf.extend_from_slice(&encode(&Frame::Msg(payload.clone())));
}

/// The staged request encoder the service shipped before the vectored
/// writers, kept verbatim as the byte oracle.
fn encode_request(req: &Request) -> Vec<u8> {
    let mut buf = Vec::new();
    match req {
        Request::Hello {
            job,
            client,
            clients,
        } => {
            buf.push(0x20);
            put_u64(&mut buf, *job);
            put_u32(&mut buf, *client);
            put_u32(&mut buf, *clients);
        }
        Request::Submit(s) => {
            buf.push(0x21);
            put_u64(&mut buf, s.job);
            put_u32(&mut buf, s.client);
            put_u64(&mut buf, s.epoch);
            put_point(&mut buf, &s.point);
            put_u64(&mut buf, s.digest);
            put_payload(&mut buf, &s.payload);
        }
        Request::Reform { job, client, epoch } => {
            buf.push(0x22);
            put_u64(&mut buf, *job);
            put_u32(&mut buf, *client);
            put_u64(&mut buf, *epoch);
        }
        Request::Bye { job, client } => {
            buf.push(0x23);
            put_u64(&mut buf, *job);
            put_u32(&mut buf, *client);
        }
    }
    buf
}

/// The staged response encoder, as [`encode_request`].
fn encode_response(resp: &Response) -> Vec<u8> {
    let mut buf = Vec::new();
    match resp {
        Response::Welcome {
            job,
            epoch,
            clients,
            rank,
        } => {
            buf.push(0x30);
            put_u64(&mut buf, *job);
            put_u64(&mut buf, *epoch);
            put_u32(&mut buf, *clients);
            put_u32(&mut buf, *rank);
        }
        Response::Done {
            seq,
            digest,
            payload,
        } => {
            buf.push(0x31);
            put_u64(&mut buf, *seq);
            put_u64(&mut buf, *digest);
            put_payload(&mut buf, payload);
        }
        Response::Reformed { epoch, members } => {
            buf.push(0x32);
            put_u64(&mut buf, *epoch);
            put_u32(&mut buf, members.len() as u32);
            for m in members {
                put_u32(&mut buf, *m);
            }
        }
        Response::Reject(reject) => {
            buf.push(0x33);
            match reject {
                Reject::Busy { in_flight, budget } => {
                    buf.push(1);
                    put_u64(&mut buf, *in_flight);
                    put_u64(&mut buf, *budget);
                }
                Reject::Rejected { detail } => {
                    buf.push(2);
                    put_str(&mut buf, detail);
                }
                Reject::ScheduleMismatch { seq, expected, got } => {
                    buf.push(3);
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
                    buf.push(4);
                    put_u64(&mut buf, *epoch);
                    put_u32(&mut buf, departed.len() as u32);
                    for d in departed {
                        put_u32(&mut buf, *d);
                    }
                }
                Reject::Protocol { detail } => {
                    buf.push(5);
                    put_str(&mut buf, detail);
                }
            }
        }
    }
    buf
}

/// Payloads with awkward bit patterns and lengths: empty, NaN with a
/// payload, −0.0, odd lengths, sparse, token.
fn payloads() -> Vec<WireMsg> {
    let nan_payload = f32::from_bits(0x7fc1_2345);
    vec![
        WireMsg::F32(Vec::new()),
        WireMsg::F32(vec![-0.0]),
        WireMsg::F32(vec![f32::NAN, nan_payload, -0.0, 0.0, f32::INFINITY]),
        WireMsg::F32((0..1023).map(|i| (i as f32 * 0.37).sin()).collect()),
        WireMsg::U32(Vec::new()),
        WireMsg::U32(vec![0, 7, u32::MAX]),
        WireMsg::U32((0..517u32).map(|i| i.wrapping_mul(0x0101_0101)).collect()),
        WireMsg::Sparse(vec![1, 5, 9], vec![0.5, f32::NAN, -0.0]),
        WireMsg::Sparse(Vec::new(), Vec::new()),
        WireMsg::Token,
    ]
}

fn point(kind: OpKind, words: u64) -> SchedulePoint {
    SchedulePoint {
        seq: 0x0102_0304_0506_0708,
        kind,
        words,
        param: 2,
    }
}

fn submit(payload: WireMsg) -> Submit {
    Submit {
        job: u64::MAX - 1,
        client: 3,
        epoch: 9,
        point: point(OpKind::AllReduce, 1023),
        digest: 0xdead_beef_cafe_f00d,
        payload,
    }
}

fn requests() -> Vec<Request> {
    let mut all = vec![
        Request::Hello {
            job: 7,
            client: 2,
            clients: 4,
        },
        Request::Reform {
            job: 7,
            client: 2,
            epoch: 3,
        },
        Request::Bye { job: 7, client: 2 },
    ];
    all.extend(payloads().into_iter().map(|p| Request::Submit(submit(p))));
    all
}

fn responses() -> Vec<Response> {
    let mut all = vec![
        Response::Welcome {
            job: 7,
            epoch: 1,
            clients: 4,
            rank: 2,
        },
        Response::Reformed {
            epoch: 2,
            members: vec![0, 1, 3],
        },
        Response::Reformed {
            epoch: 3,
            members: Vec::new(),
        },
    ];
    all.extend(payloads().into_iter().map(|payload| Response::Done {
        seq: 42,
        digest: 9,
        payload,
    }));
    all.extend(
        [
            Reject::Busy {
                in_flight: 4096,
                budget: 1024,
            },
            Reject::Rejected {
                detail: "unsupported".to_string(),
            },
            Reject::ScheduleMismatch {
                seq: 5,
                expected: Some(point(OpKind::Barrier, 0)),
                got: point(OpKind::AllGatherU32, 10),
            },
            Reject::ScheduleMismatch {
                seq: 0,
                expected: None,
                got: point(OpKind::Broadcast, 3),
            },
            Reject::MembershipChanged {
                epoch: 1,
                departed: vec![2, 5],
            },
            Reject::Protocol {
                detail: String::new(),
            },
        ]
        .map(Response::Reject),
    );
    all
}

#[test]
fn written_bytes_equal_the_staged_encoders_for_every_variant() {
    for req in requests() {
        let mut out = Vec::new();
        write_request(&mut out, &req).unwrap();
        assert_eq!(out, encode_request(&req), "request {req:?}");
    }
    for resp in responses() {
        let mut out = Vec::new();
        write_response(&mut out, &resp).unwrap();
        assert_eq!(out, encode_response(&resp), "response {resp:?}");
    }
}

#[test]
fn schedule_tagged_payloads_are_refused_by_the_writers() {
    // The readers never accepted them; the writers now say so up front
    // instead of emitting bytes no peer can parse.
    let tagged = WireMsg::Tagged(
        acp_collectives::ScheduleTag {
            point: point(OpKind::AllReduce, 1),
            pre_digest: 1,
        },
        Box::new(WireMsg::F32(vec![1.0])),
    );
    let err = write_request(&mut Vec::new(), &Request::Submit(submit(tagged.clone()))).unwrap_err();
    assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    let done = Response::Done {
        seq: 0,
        digest: 0,
        payload: tagged,
    };
    let err = write_response(&mut Vec::new(), &done).unwrap_err();
    assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
}

/// A reader that yields 1–7 bytes per call, cycling — the worst-case
/// short read.
struct DribbleReader<'a> {
    bytes: &'a [u8],
    calls: usize,
}

impl<'a> DribbleReader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        DribbleReader { bytes, calls: 0 }
    }
}

impl Read for DribbleReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.calls += 1;
        let n = (self.calls % 7 + 1).min(buf.len()).min(self.bytes.len());
        let (now, later) = self.bytes.split_at(n);
        buf[..n].copy_from_slice(now);
        self.bytes = later;
        Ok(n)
    }
}

fn bits_of(msg: &WireMsg) -> Vec<u32> {
    match msg {
        WireMsg::F32(v) => v.iter().map(|x| x.to_bits()).collect(),
        WireMsg::U32(v) => v.clone(),
        other => panic!("not a dense payload: {other:?}"),
    }
}

/// Lands the dense payload `head` announces in a destination pre-filled
/// with a sentinel, through `fill`, and returns its bits.
fn land(head: PayloadHead, fill: impl FnOnce(DenseMut<'_>)) -> Vec<u32> {
    match head {
        PayloadHead::F32(n) => {
            let mut dest = vec![1.0f32; n];
            fill(DenseMut::F32(&mut dest));
            bits_of(&WireMsg::F32(dest))
        }
        PayloadHead::U32(n) => {
            let mut dest = vec![1u32; n];
            fill(DenseMut::U32(&mut dest));
            dest
        }
        other => panic!("not a dense head: {other:?}"),
    }
}

fn dense_head(msg: &WireMsg) -> Option<PayloadHead> {
    match msg {
        WireMsg::F32(v) => Some(PayloadHead::F32(v.len())),
        WireMsg::U32(v) => Some(PayloadHead::U32(v.len())),
        _ => None,
    }
}

#[test]
fn done_received_into_a_buffer_equals_the_owned_read_under_dribbled_reads() {
    for payload in payloads() {
        let Some(head) = dense_head(&payload) else {
            continue;
        };
        let bytes = encode_response(&Response::Done {
            seq: 42,
            digest: 9,
            payload: payload.clone(),
        });
        let owned = match read_response(&mut DribbleReader::new(&bytes)).unwrap() {
            Response::Done { payload, .. } => payload,
            other => panic!("wrong response: {other:?}"),
        };
        let mut r = DribbleReader::new(&bytes);
        assert_eq!(
            read_response_head(&mut r).unwrap(),
            ResponseHead::Done { seq: 42, digest: 9 }
        );
        let landed = land(head, |dest| {
            let out = read_frame_into(&mut r, dest).unwrap();
            assert_eq!(out, ReadInto::Filled { tag: None });
        });
        assert!(r.bytes.is_empty(), "trailing bytes after the payload");
        assert_eq!(landed, bits_of(&owned), "payload {payload:?}");
        assert_eq!(landed, bits_of(&payload));
    }
}

#[test]
fn submit_head_then_body_equals_the_owned_read_under_dribbled_reads() {
    for payload in payloads() {
        let request = Request::Submit(submit(payload.clone()));
        let bytes = encode_request(&request);
        let owned = read_request(&mut DribbleReader::new(&bytes)).unwrap();
        // Compared re-encoded: the samples carry NaNs.
        assert_eq!(encode_request(&owned), bytes);
        let mut r = DribbleReader::new(&bytes);
        let (head, announced) = match read_request_head(&mut r).unwrap() {
            RequestHead::Submit(head, announced) => (head, announced),
            other => panic!("wrong head: {other:?}"),
        };
        assert_eq!(head, submit(WireMsg::Token).head());
        assert_eq!(announced.body_bytes(), payload.payload_bytes());
        // The head consumed everything up to, and nothing of, the body.
        assert_eq!(r.bytes.len() as u64, announced.body_bytes());
        let Some(expected) = dense_head(&payload) else {
            continue;
        };
        assert_eq!(announced, expected);
        let landed = land(announced, |dest| {
            read_payload_body_into(&mut r, dest).unwrap();
        });
        assert!(r.bytes.is_empty());
        assert_eq!(landed, bits_of(&payload), "payload {payload:?}");
    }
}

#[test]
fn heads_of_payload_free_messages_are_the_messages() {
    for req in requests() {
        if matches!(req, Request::Submit(_)) {
            continue;
        }
        let bytes = encode_request(&req);
        let head = read_request_head(&mut DribbleReader::new(&bytes)).unwrap();
        assert_eq!(head, RequestHead::Other(req));
    }
    for resp in responses() {
        if matches!(resp, Response::Done { .. }) {
            continue;
        }
        let bytes = encode_response(&resp);
        let head = read_response_head(&mut DribbleReader::new(&bytes)).unwrap();
        assert_eq!(head, ResponseHead::Other(resp));
    }
}

#[test]
fn a_huge_announced_payload_is_parsed_without_touching_it() {
    // 2³⁰ elements behind a 59-byte head: the parse must return the
    // announcement, not try to hold it.
    let mut bytes = encode_request(&Request::Submit(submit(WireMsg::Token)));
    bytes.pop(); // the token's tag byte
    bytes.push(0x01);
    bytes.extend_from_slice(&(1u32 << 30).to_le_bytes());
    match read_request_head(&mut &bytes[..]).unwrap() {
        RequestHead::Submit(_, announced) => {
            assert_eq!(announced, PayloadHead::F32(1 << 30));
            assert_eq!(announced.body_bytes(), 4 << 30);
        }
        other => panic!("wrong head: {other:?}"),
    }
    // One more element is a corrupt frame, as everywhere in the framing.
    let n = bytes.len();
    bytes[n - 4..].copy_from_slice(&((1u32 << 30) + 1).to_le_bytes());
    let err = read_request_head(&mut &bytes[..]).unwrap_err();
    assert_eq!(err.kind(), io::ErrorKind::InvalidData);
}
