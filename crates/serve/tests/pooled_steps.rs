//! The server's pooled payload buffers never leak one step into the next:
//! steps of different lengths through the same job stay bit-exact with
//! the reference folds, and an aborted step returns every buffer it held.

mod common;

use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use acp_collectives::schedule::{
    membership_param, OpKind, ScheduleCell, SchedulePoint, ScheduleTracer, VerifyMode,
};
use acp_collectives::{
    all_gather_f32_reference, all_gather_u32_reference, all_reduce_reference, CommError,
    Communicator, ReduceOp, WireMsg,
};
use acp_serve::wire::{read_response, write_request, Reject, Request, Response, Submit};
use acp_serve::{ServeConfig, ServedCommunicator, Server};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Ten consecutive steps: growing, shrinking, odd, empty and single.
const LENGTHS: [usize; 10] = [97, 5, 1023, 0, 33, 4099, 1, 257, 64, 7];
const OPS: [ReduceOp; 3] = [ReduceOp::Sum, ReduceOp::Mean, ReduceOp::Max];

fn f32_input(client: usize, step: usize, len: usize) -> Vec<f32> {
    let mut rng = ChaCha8Rng::seed_from_u64((client as u64) << 32 | step as u64);
    (0..len).map(|_| rng.gen_range(-2.0..2.0)).collect()
}

fn u32_input(client: usize, step: usize, len: usize) -> Vec<u32> {
    let mut rng = ChaCha8Rng::seed_from_u64(0xABCD ^ (client as u64) << 32 | step as u64);
    (0..len).map(|_| rng.gen()).collect()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn ten_steps_of_different_lengths_match_the_reference_folds_bitwise() {
    let server = Server::spawn(ServeConfig::default()).unwrap();
    let addr = server.addr();
    for world in [2usize, 3, 4] {
        let handles: Vec<_> = (0..world)
            .map(|c| {
                std::thread::spawn(move || {
                    let mut comm =
                        ServedCommunicator::connect(addr, world as u64, c as u32, world as u32)
                            .unwrap();
                    let mut results = Vec::new();
                    for (step, len) in LENGTHS.into_iter().enumerate() {
                        let mut reduced = f32_input(c, step, len);
                        comm.all_reduce(&mut reduced, OPS[step % 3]).unwrap();
                        let gathered_f = comm.all_gather_f32(&f32_input(c, step, len)).unwrap();
                        let gathered_u = comm.all_gather_u32(&u32_input(c, step, len)).unwrap();
                        results.push((reduced, gathered_f, gathered_u));
                    }
                    results
                })
            })
            .collect();
        let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for (step, len) in LENGTHS.into_iter().enumerate() {
            let f: Vec<Vec<f32>> = (0..world).map(|c| f32_input(c, step, len)).collect();
            let u: Vec<Vec<u32>> = (0..world).map(|c| u32_input(c, step, len)).collect();
            let f_views: Vec<&[f32]> = f.iter().map(Vec::as_slice).collect();
            let u_views: Vec<&[u32]> = u.iter().map(Vec::as_slice).collect();
            let reduced = all_reduce_reference(&f_views, OPS[step % 3]).unwrap();
            let gathered_f = all_gather_f32_reference(&f_views).unwrap();
            let gathered_u = all_gather_u32_reference(&u_views).unwrap();
            for (c, of_client) in results.iter().enumerate() {
                let (got_r, got_f, got_u) = &of_client[step];
                let at = format!("world {world} client {c} step {step} len {len}");
                assert_eq!(bits(got_r), bits(&reduced), "all-reduce, {at}");
                assert_eq!(bits(got_f), bits(&gathered_f), "all-gather f32, {at}");
                assert_eq!(got_u, &gathered_u, "all-gather u32, {at}");
            }
        }
    }
    assert_eq!(server.stats().steps, 3 * 3 * LENGTHS.len() as u64);
    assert_eq!(server.stats().in_flight_bytes, 0);
}

/// A member driven over the raw protocol, so the test controls how much
/// of a payload is on the wire when something else happens. It keeps the
/// same schedule digest a [`ServedCommunicator`] would.
struct RawMember {
    stream: TcpStream,
    job: u64,
    client: u32,
    epoch: u64,
    seq: u64,
    tracer: ScheduleTracer,
}

impl RawMember {
    fn join(addr: std::net::SocketAddr, job: u64, client: u32, clients: u32) -> RawMember {
        let stream = common::raw_join(addr, job, client, clients);
        RawMember {
            stream,
            job,
            client,
            epoch: 0,
            seq: 0,
            tracer: ScheduleTracer::new(VerifyMode::from_env(), Arc::new(ScheduleCell::default())),
        }
    }

    /// The bytes of this member's next all-reduce (sum) submission.
    fn next_all_reduce(&mut self, payload: Vec<f32>) -> Vec<u8> {
        self.tracer
            .begin_op(OpKind::AllReduce, payload.len() as u64, 0);
        let submit = Submit {
            job: self.job,
            client: self.client,
            epoch: self.epoch,
            point: SchedulePoint {
                seq: self.seq,
                kind: OpKind::AllReduce,
                words: payload.len() as u64,
                param: 0,
            },
            digest: self.tracer.digest(),
            payload: WireMsg::F32(payload),
        };
        self.seq += 1;
        let mut bytes = Vec::new();
        write_request(&mut bytes, &Request::Submit(submit)).unwrap();
        bytes
    }

    fn reform(&mut self) -> Vec<u32> {
        let reform = Request::Reform {
            job: self.job,
            client: self.client,
            epoch: self.epoch,
        };
        write_request(&mut &self.stream, &reform).unwrap();
        match read_response(&mut &self.stream).unwrap() {
            Response::Reformed { epoch, members } => {
                self.epoch = epoch;
                let survivors: Vec<usize> = members.iter().map(|&m| m as usize).collect();
                self.tracer.begin_op(
                    OpKind::Reform,
                    survivors.len() as u64,
                    membership_param(epoch, &survivors),
                );
                self.seq += 1;
                members
            }
            other => panic!("reform refused: {other:?}"),
        }
    }
}

fn wait_until(what: &str, mut holds: impl FnMut() -> bool) {
    let start = Instant::now();
    while !holds() {
        assert!(start.elapsed() < Duration::from_secs(5), "never: {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn a_departure_while_a_member_is_mid_payload_returns_every_buffer() {
    const LONG: usize = 50_000;
    const SHORT: usize = 1_001;
    let server = Server::spawn(ServeConfig::default()).unwrap();
    let addr = server.addr();
    let mut raw = RawMember::join(addr, 61, 0, 3);
    let doomed = ServedCommunicator::connect(addr, 61, 2, 3).unwrap();

    // Member 0 opens the step and stops halfway through its payload.
    let long: Vec<f32> = (0..LONG).map(|i| 1.0 + i as f32).collect();
    let bytes = raw.next_all_reduce(long);
    let (first_half, second_half) = bytes.split_at(bytes.len() / 2);
    raw.stream.write_all(first_half).unwrap();
    wait_until("the opening header charges the whole step", || {
        server.stats().in_flight_bytes == 3 * 4 * LONG as u64
    });

    // Member 1 contributes in full and blocks on the step.
    let typed = std::thread::spawn(move || {
        let mut comm = ServedCommunicator::connect(addr, 61, 1, 3).unwrap();
        let mut buf = vec![-1.0f32; LONG];
        let err = comm.all_reduce(&mut buf, ReduceOp::Sum).unwrap_err();
        assert!(
            matches!(err, CommError::MembershipChanged { epoch: 0, ref departed } if departed == &[2]),
            "got {err}"
        );
        assert_eq!(comm.reform().unwrap().ranks(), &[0, 1]);
        // The next epoch's step is shorter than what the buffers last
        // held, on both members.
        let mut buf = vec![0.5f32; SHORT];
        comm.all_reduce(&mut buf, ReduceOp::Sum).unwrap();
        buf
    });

    // Member 2 dies while member 0 is still mid-payload.
    drop(doomed);
    wait_until("the abort refunds the whole step", || {
        server.stats().in_flight_bytes == 0
    });

    // Member 0 finishes sending into a step that no longer exists and is
    // told why — its connection survives, on a request boundary.
    raw.stream.write_all(second_half).unwrap();
    match read_response(&mut &raw.stream).unwrap() {
        Response::Reject(Reject::MembershipChanged { epoch: 0, departed }) => {
            assert_eq!(departed, vec![2]);
        }
        other => panic!("expected MembershipChanged, got {other:?}"),
    }
    assert_eq!(raw.reform(), vec![0, 1]);
    let short: Vec<f32> = (0..SHORT).map(|i| i as f32 * 0.25).collect();
    let bytes = raw.next_all_reduce(short.clone());
    raw.stream.write_all(&bytes).unwrap();
    let expected = all_reduce_reference(&[&short, &vec![0.5f32; SHORT]], ReduceOp::Sum).unwrap();
    match read_response(&mut &raw.stream).unwrap() {
        Response::Done {
            payload: WireMsg::F32(got),
            ..
        } => assert_eq!(bits(&got), bits(&expected)),
        other => panic!("the post-reform step failed: {other:?}"),
    }
    assert_eq!(bits(&typed.join().unwrap()), bits(&expected));
    let stats = server.stats();
    assert_eq!(stats.schedule_mismatches, 0);
    assert_eq!(stats.in_flight_bytes, 0);
}
