//! Header-first admission: a `Submit` is decided before its first payload
//! byte, a step is admitted as a unit, and a sender that stalls mid-request
//! is waited for instead of being declared dead.

mod common;

use std::io::Write;
use std::time::Duration;

use acp_collectives::schedule::{OpKind, SchedulePoint};
use acp_collectives::{CommError, Communicator, ReduceOp, WireMsg};
use acp_serve::wire::{read_response, write_request, Reject, Request, Response, Submit};
use acp_serve::{ServeConfig, ServedCommunicator, ServedConfig, Server};

fn all_reduce_submit(job: u64, seq: u64, payload: Vec<f32>) -> Vec<u8> {
    let mut bytes = Vec::new();
    let submit = Submit {
        job,
        client: 0,
        epoch: 0,
        point: SchedulePoint {
            seq,
            kind: OpKind::AllReduce,
            words: payload.len() as u64,
            param: 0,
        },
        digest: seq,
        payload: WireMsg::F32(payload),
    };
    write_request(&mut bytes, &Request::Submit(submit)).unwrap();
    bytes
}

#[test]
fn a_sender_stalled_mid_request_is_waited_for() {
    // The connection thread polls at 100 ms so it can observe shutdown;
    // that tick must only ever end the wait for a request's *first* byte.
    // A 250 ms gap — a descheduled client, a large bucket on a slow link —
    // used to drop the connection and abort the whole job.
    let server = Server::spawn(ServeConfig::default()).unwrap();
    let mut stream = common::raw_join(server.addr(), 41, 0, 1);
    let payload: Vec<f32> = (0..300).map(|i| i as f32 - 7.5).collect();
    // Tag + 53-byte session header + 5-byte frame header, then the body.
    // Stall inside the session header, between header and body, and
    // inside the body.
    for (seq, cuts) in [(0, vec![10]), (1, vec![59]), (2, vec![59 + 401])] {
        let bytes = all_reduce_submit(41, seq, payload.clone());
        let mut sent = 0;
        for cut in cuts {
            stream.write_all(&bytes[sent..cut]).unwrap();
            sent = cut;
            std::thread::sleep(Duration::from_millis(250));
        }
        stream.write_all(&bytes[sent..]).unwrap();
        match read_response(&mut stream).unwrap() {
            Response::Done {
                seq: echoed,
                payload: WireMsg::F32(got),
                ..
            } => {
                assert_eq!(echoed, seq);
                assert_eq!(got, payload, "a one-member all-reduce is the identity");
            }
            other => panic!("stalled request {seq} was not served: {other:?}"),
        }
    }
    assert_eq!(server.stats().steps, 3);
}

/// Runs one two-client all-reduce of `words` elements against a server
/// with `per_job_budget`, and returns both clients' outcomes.
fn two_client_step(
    per_job_budget: u64,
    words: usize,
) -> (Vec<Result<Vec<f32>, CommError>>, Server) {
    let server = Server::spawn(ServeConfig {
        per_job_budget,
        // A refused member must not be able to hold the other for long
        // should this regress.
        step_deadline: Duration::from_secs(2),
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.addr();
    let handles: Vec<_> = (0..2u32)
        .map(|c| {
            std::thread::spawn(move || {
                let cfg = ServedConfig {
                    busy_retries: 3,
                    busy_backoff: Duration::from_millis(1),
                    ..ServedConfig::default()
                };
                let mut comm = ServedCommunicator::connect_with(addr, 1, c, 2, cfg).unwrap();
                // Both are connected before either submits, so neither
                // can observe the other's departure instead of a verdict.
                comm.barrier().unwrap();
                let mut buf = vec![f32::from(c as u8) + 1.0; words];
                let outcome = comm.all_reduce(&mut buf, ReduceOp::Sum).map(|()| buf);
                // …and neither leaves before both have their verdict: the
                // connections are dropped together, after the joins.
                (outcome, comm)
            })
        })
        .collect();
    let (outcomes, _comms): (Vec<_>, Vec<_>) =
        handles.into_iter().map(|h| h.join().unwrap()).unzip();
    (outcomes, server)
}

#[test]
fn a_step_is_admitted_or_refused_as_a_unit() {
    const WORDS: usize = 1024;
    const PAYLOAD: u64 = 4 * WORDS as u64;
    // Room for one and a half members: the step cannot be held, so the
    // member that would open it is refused — and so is the other, for the
    // same reason. Charging per arrival used to admit the first and then
    // starve the second, whose `Busy` only the second's own arrival could
    // have relieved.
    let (outcomes, server) = two_client_step(PAYLOAD * 3 / 2, WORDS);
    for outcome in &outcomes {
        assert!(
            matches!(
                outcome,
                Err(CommError::Busy {
                    in_flight_bytes: 0,
                    budget_bytes,
                }) if *budget_bytes == PAYLOAD * 3 / 2
            ),
            "both members are told the step does not fit: {outcome:?}"
        );
    }
    let stats = server.stats();
    assert_eq!(
        stats.schedule_mismatches, 0,
        "backpressure is not divergence"
    );
    assert_eq!(stats.in_flight_bytes, 0, "a refusal reserves nothing");
    assert_eq!(stats.busy_rejects, 8, "every attempt of both members");

    // Room for exactly the step: it completes, first try.
    let (outcomes, server) = two_client_step(PAYLOAD * 2, WORDS);
    for outcome in outcomes {
        assert_eq!(outcome.unwrap(), vec![3.0; WORDS]);
    }
    let stats = server.stats();
    assert_eq!(stats.busy_rejects, 0);
    assert_eq!(stats.in_flight_bytes, 0, "the step's charge drained");
}

#[test]
fn a_refused_submit_leaves_the_connection_on_a_request_boundary() {
    // The refused payload is drained, not parsed as the next request: a
    // raw client pipelines a too-large submit and a small one.
    let server = Server::spawn(ServeConfig {
        per_job_budget: 4 * 100,
        ..ServeConfig::default()
    })
    .unwrap();
    let mut stream = common::raw_join(server.addr(), 43, 0, 1);
    let mut bytes = all_reduce_submit(43, 0, vec![1.5; 50_000]);
    bytes.extend(all_reduce_submit(43, 0, vec![2.5; 100]));
    stream.write_all(&bytes).unwrap();
    match read_response(&mut stream).unwrap() {
        Response::Reject(Reject::Busy { in_flight, budget }) => {
            assert_eq!((in_flight, budget), (0, 400));
        }
        other => panic!("expected Busy, got {other:?}"),
    }
    match read_response(&mut stream).unwrap() {
        Response::Done {
            payload: WireMsg::F32(got),
            ..
        } => assert_eq!(got, vec![2.5; 100]),
        other => panic!("the follow-up request was not served: {other:?}"),
    }
    assert_eq!(server.stats().in_flight_bytes, 0);
}
