//! Fault-injection tests: every injected failure must end in either a
//! successful retry (correct results, no data loss) or a *structured*
//! `CommError` within a bounded wait — never a hang and never silent
//! corruption. Each test carries its own wall-clock bound well below the
//! harness timeout.

use std::io::Write;
use std::net::TcpListener;
use std::sync::mpsc;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use acp_collectives::{CommError, Communicator, ReduceOp, VerifyMode, WireMsg};
use acp_net::frame::{encode, read_frame, Frame};
use acp_net::{run_local, run_local_with, FaultInjector, RetryPolicy, TcpConfig};

/// A base port whose successor is free too, for `TcpConfig::local` groups
/// of two. Tests in this binary run on parallel threads, and the kernel
/// likes to hand out neighbouring ephemeral ports, so bases already given
/// to another test (or adjacent to one) are skipped.
fn free_port_pair() -> u16 {
    static TAKEN: Mutex<Vec<u16>> = Mutex::new(Vec::new());
    loop {
        let probe = TcpListener::bind("127.0.0.1:0").unwrap();
        let base = probe.local_addr().unwrap().port();
        if base == u16::MAX || TcpListener::bind(("127.0.0.1", base + 1)).is_err() {
            continue;
        }
        let mut taken = TAKEN.lock().unwrap();
        if taken.iter().all(|t| t.abs_diff(base) > 1) {
            taken.push(base);
            return base;
        }
    }
}

fn expected_sum(world: usize, len: usize) -> Vec<f32> {
    // Each rank contributes `rank + 1` everywhere.
    let total: f32 = (1..=world).map(|r| r as f32).sum();
    vec![total; len]
}

/// Injected link drops on one rank are absorbed by reconnect + resend:
/// several consecutive all-reduces still produce exact results.
#[test]
fn injected_drops_are_recovered_by_reconnect() {
    let world = 4;
    let len = 257; // odd length => uneven ring chunks
    let started = Instant::now();
    let results = run_local_with(
        world,
        |rank, cfg| {
            if rank == 1 {
                // Half-close + redial its link to rank 2 before every 5th
                // frame, once the previous drop has drained.
                cfg.with_fault(FaultInjector::none().with_drop_every(5))
            } else {
                cfg
            }
        },
        |mut comm| {
            let mut out = Vec::new();
            for _ in 0..4 {
                let mut buf = vec![comm.rank_id().as_usize() as f32 + 1.0; len];
                comm.all_reduce(&mut buf, ReduceOp::Sum).unwrap();
                out.push(buf);
            }
            out
        },
    );
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "drops must not stall"
    );
    let expected = expected_sum(world, len);
    for per_rank in results {
        for buf in per_rank {
            assert_eq!(buf, expected);
        }
    }
}

/// Drops on *every* rank at once still converge. The lower rank of each
/// pair dials, so ranks 0–2 send to their ring successor on a
/// connector-role link and three of the four ring links churn; rank 3's
/// wraparound link to rank 0 is acceptor-role on its side and never drops.
/// The barrier's tokens ride the same links right behind a drop.
#[test]
fn drops_on_every_rank_still_converge() {
    let world = 4;
    let results = run_local_with(
        world,
        |_rank, cfg| cfg.with_fault(FaultInjector::none().with_drop_every(7)),
        |mut comm| {
            let mut buf = vec![comm.rank_id().as_usize() as f32 + 1.0; 64];
            comm.all_reduce(&mut buf, ReduceOp::Sum).unwrap();
            comm.barrier().unwrap();
            buf
        },
    );
    let expected = expected_sum(world, 64);
    for buf in results {
        assert_eq!(buf, expected);
    }
}

/// A per-frame send delay slows the collective but changes nothing else.
#[test]
fn send_delay_shifts_latency_only() {
    let world = 2;
    let results = run_local_with(
        world,
        |_rank, cfg| {
            cfg.with_fault(FaultInjector::none().with_send_delay(Duration::from_millis(2)))
        },
        |mut comm| {
            let mut buf = vec![comm.rank_id().as_usize() as f32 + 1.0; 33];
            comm.all_reduce(&mut buf, ReduceOp::Sum).unwrap();
            buf
        },
    );
    for buf in results {
        assert_eq!(buf, expected_sum(world, 33));
    }
}

/// A straggler rank delays everyone (synchronous collectives can go no
/// faster than the slowest rank) but results stay exact.
#[test]
fn straggler_slows_the_group_without_corrupting_it() {
    let world = 3;
    let delay = Duration::from_millis(50);
    let started = Instant::now();
    let results = run_local_with(
        world,
        |rank, cfg| {
            if rank == 2 {
                cfg.with_fault(FaultInjector::none().with_straggler_delay(delay))
            } else {
                cfg
            }
        },
        |mut comm| {
            let mut buf = vec![comm.rank_id().as_usize() as f32 + 1.0; 16];
            comm.all_reduce(&mut buf, ReduceOp::Sum).unwrap();
            buf
        },
    );
    assert!(
        started.elapsed() >= delay,
        "the straggler gates the collective"
    );
    for buf in results {
        assert_eq!(buf, expected_sum(world, 16));
    }
}

/// A rank that never shows up for the collective surfaces as a structured
/// timeout on its peer within the configured deadline — not a hang.
#[test]
fn absent_peer_times_out_with_structured_error() {
    let deadline = Duration::from_millis(200);
    let started = Instant::now();
    let results = run_local_with(
        2,
        move |_rank, cfg| cfg.with_op_deadline(deadline),
        |mut comm| {
            if comm.rank_id().as_usize() == 1 {
                // Holds its links open but never participates.
                std::thread::sleep(Duration::from_millis(600));
                return Ok(());
            }
            let mut buf = vec![1.0f32; 8];
            comm.all_reduce(&mut buf, ReduceOp::Sum)
        },
    );
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "timeout must be bounded by the deadline, not the harness"
    );
    match &results[0] {
        Err(CommError::Timeout { op, waited_ms }) => {
            assert_eq!(*op, "recv");
            assert!(*waited_ms as u128 >= deadline.as_millis());
        }
        other => panic!("expected Timeout, got {other:?}"),
    }
    assert_eq!(results[1], Ok(()));
}

/// A peer that exits outright (sockets closed, listener gone) surfaces
/// as a structured error within the deadline — preferably
/// `MembershipChanged` (the departure probe sees the refused listener,
/// enabling `reform()`), with disconnect/timeout accepted for the rare
/// race where the freed port is rebound before the probe.
#[test]
fn dead_peer_is_a_structured_error_not_a_hang() {
    let started = Instant::now();
    let results = run_local_with(
        2,
        |_rank, cfg| cfg.with_op_deadline(Duration::from_millis(300)),
        |mut comm| {
            if comm.rank_id().as_usize() == 1 {
                return Ok(()); // Drops the communicator: EOF on rank 0's links.
            }
            std::thread::sleep(Duration::from_millis(50)); // let the peer die first
            let mut buf = vec![1.0f32; 8];
            comm.all_reduce(&mut buf, ReduceOp::Sum)
        },
    );
    assert!(started.elapsed() < Duration::from_secs(10));
    match &results[0] {
        Err(CommError::MembershipChanged { departed, .. }) => assert_eq!(departed, &[1]),
        Err(CommError::Timeout { .. } | CommError::PeerDisconnected | CommError::Io(_)) => {}
        other => panic!("expected a structured comm error, got {other:?}"),
    }
}

/// Ranks that start hundreds of milliseconds apart still form the group:
/// connection establishment retries with backoff until the late listener
/// appears.
#[test]
fn connect_retries_absorb_startup_skew() {
    let base = free_port_pair();
    let cfg = move |rank: usize| {
        TcpConfig::local(rank, 2, base).with_retry(RetryPolicy {
            max_attempts: 40,
            initial_backoff: Duration::from_millis(5),
            max_backoff: Duration::from_millis(100),
            attempt_timeout: Duration::from_secs(2),
            dial_budget: Duration::from_secs(5),
        })
    };
    let handle = std::thread::spawn(move || {
        // Rank 1 shows up late: its listener does not exist yet when
        // rank 0 first dials.
        std::thread::sleep(Duration::from_millis(250));
        let mut comm = cfg(1).connect().expect("late rank joins");
        let mut buf = vec![2.0f32; 4];
        comm.all_reduce(&mut buf, ReduceOp::Sum).unwrap();
        buf
    });
    let mut comm = cfg(0).connect().expect("early rank retries until join");
    let mut buf = vec![1.0f32; 4];
    comm.all_reduce(&mut buf, ReduceOp::Sum).unwrap();
    assert_eq!(buf, vec![3.0; 4]);
    assert_eq!(handle.join().unwrap(), vec![3.0; 4]);
}

/// Regression (per-peer dial budget): with only two attempts — which a
/// connection-refused error burns in microseconds — a listener that binds
/// ~600ms late is still reached, because `dial_budget` keeps the dial
/// alive on wall-clock time. Before the budget existed, retries were
/// count-based only and this scenario exhausted them near-instantly;
/// under many concurrent groups the accumulated startup skew made late
/// ranks fail spuriously.
#[test]
fn dial_budget_outlives_exhausted_attempt_count() {
    let base = free_port_pair();
    let cfg = move |rank: usize| {
        TcpConfig::local(rank, 2, base).with_retry(RetryPolicy {
            max_attempts: 2, // exhausted within ~5ms against a refused port
            initial_backoff: Duration::from_millis(2),
            max_backoff: Duration::from_millis(20),
            attempt_timeout: Duration::from_millis(500),
            dial_budget: Duration::from_secs(5),
        })
    };
    let handle = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(600));
        let mut comm = cfg(1).connect().expect("very late rank joins");
        let mut buf = vec![2.0f32; 4];
        comm.all_reduce(&mut buf, ReduceOp::Sum).unwrap();
        buf
    });
    let mut comm = cfg(0).connect().expect("budget outlasts the attempt count");
    let mut buf = vec![1.0f32; 4];
    comm.all_reduce(&mut buf, ReduceOp::Sum).unwrap();
    assert_eq!(buf, vec![3.0; 4]);
    assert_eq!(handle.join().unwrap(), vec![3.0; 4]);
}

/// Every peer is one link away: on a default group, ranks 0 and 2 (not
/// ring neighbours) exchange buffers point to point.
#[test]
fn non_neighbours_exchange_point_to_point() {
    let results = run_local(4, |mut comm| match comm.rank_id().as_usize() {
        0 => comm.send_recv_f32(2, &[0.5, 1.5]).map(Some),
        2 => comm.send_recv_f32(0, &[2.5, 3.5]).map(Some),
        _ => Ok(None),
    });
    assert_eq!(results[0], Ok(Some(vec![2.5, 3.5])));
    assert_eq!(results[2], Ok(Some(vec![0.5, 1.5])));
}

/// Exhausted connect retries end in a structured error, not an endless
/// loop: dialing a group whose peers never appear fails within the retry
/// budget.
#[test]
fn exhausted_retries_surface_structured_error() {
    let base = free_port_pair();
    let cfg = TcpConfig::local(0, 2, base).with_retry(RetryPolicy {
        max_attempts: 3,
        initial_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(4),
        attempt_timeout: Duration::from_millis(200),
        dial_budget: Duration::ZERO, // attempts-only so exhaustion is fast
    });
    let started = Instant::now();
    let err = cfg.connect().expect_err("no peer ever appears");
    assert!(started.elapsed() < Duration::from_secs(5));
    match err {
        CommError::Io(_) | CommError::Timeout { .. } => {}
        other => panic!("expected Io or Timeout, got {other:?}"),
    }
}

/// The fault injector leaves results and telemetry intact: with faults on,
/// every rank reduces the same values and counts the same bytes as with
/// faults off (a drop moves the following frames to a fresh stream but
/// sends each exactly once). At world 2 both ring directions share one
/// duplex link, and rank 0 drops it in the middle of each all-reduce,
/// while rank 1's half of the exchange may already be on the old stream.
#[test]
fn drop_faults_do_not_skew_byte_accounting() {
    let body = |mut comm: acp_net::TcpCommunicator| {
        let mut buf = vec![comm.rank_id().as_usize() as f32 + 1.0; 100];
        comm.all_reduce(&mut buf, ReduceOp::Sum).unwrap();
        comm.all_reduce(&mut buf, ReduceOp::Sum).unwrap();
        (buf, comm.bytes_sent())
    };
    let clean = run_local_with(2, |_rank, cfg| cfg, body);
    let faulty = run_local_with(
        2,
        |_rank, cfg| cfg.with_fault(FaultInjector::none().with_drop_every(2)),
        body,
    );
    assert_eq!(clean, faulty);
}

/// Regression (mid-frame timeout): a peer that stalls in the middle of a
/// payload makes the receive hit its deadline with the stream mid-frame.
/// The link must be closed there and then, so that the *next* collective
/// fails structured — before the fix it parsed the rest of the stalled
/// payload as a frame tag, which is an `Io("unknown frame tag …")` at best
/// and, with payload bytes that happen to look like a frame (as here), a
/// silently wrong reduction.
#[test]
fn mid_frame_timeout_closes_the_link_instead_of_desynchronizing_it() {
    let deadline = Duration::from_millis(200);
    let listener0 = TcpListener::bind("127.0.0.1:0").unwrap();
    let listener1 = TcpListener::bind("127.0.0.1:0").unwrap();
    let mut cfg = TcpConfig::local(0, 2, 1024)
        .with_op_deadline(deadline)
        .with_verify(VerifyMode::Digest);
    cfg.peers = vec![
        listener0.local_addr().unwrap(),
        listener1.local_addr().unwrap(),
    ];
    let (first_done_tx, first_done) = mpsc::channel();
    let (resume, resume_rx) = mpsc::channel::<()>();
    let rank0 = std::thread::spawn(move || {
        let mut comm = cfg.connect_on(listener0).expect("rank 0 joins");
        let mut buf = vec![1.0f32; 8];
        let first = comm.all_reduce(&mut buf, ReduceOp::Sum);
        first_done_tx.send(()).unwrap();
        resume_rx.recv().unwrap();
        let mut buf = vec![1.0f32; 8];
        let second = comm.all_reduce(&mut buf, ReduceOp::Sum).map(|()| buf);
        (first, second)
    });

    // Rank 1 is this thread, speaking the wire protocol by hand: accept
    // the duplex link rank 0 dials, and stall on the same stream.
    let (mut from_rank0, _) = listener1.accept().unwrap();
    assert_eq!(read_frame(&mut from_rank0).unwrap(), Frame::Hello(0));
    let mut to_rank0 = from_rank0.try_clone().unwrap();

    // The chunk rank 0 expects is 4 elements. Its second half is itself a
    // well-formed `F32` header for 4 elements plus 3 payload bytes.
    let mut stalled = encode(&Frame::Msg(WireMsg::F32(vec![0.0; 4])));
    let second_half = stalled.len() - 8;
    stalled[second_half..].copy_from_slice(&[0x01, 4, 0, 0, 0, 0, 0, 0]);
    to_rank0.write_all(&stalled[..second_half]).unwrap();
    first_done.recv().unwrap(); // rank 0 waited out its deadline mid-payload

    // Finish the stalled payload, complete the frame it mimics, and follow
    // with one more well-formed chunk: enough for a desynchronized reader
    // to "complete" a whole second all-reduce out of garbage. Write errors
    // are expected once rank 0 has closed the link.
    let _ = to_rank0.write_all(&stalled[second_half..]);
    let _ = to_rank0.write_all(&[0u8; 13]);
    let _ = to_rank0.write_all(&encode(&Frame::Msg(WireMsg::F32(vec![0.0; 4]))));
    resume.send(()).unwrap();

    let started = Instant::now();
    let (first, second) = rank0.join().unwrap();
    assert!(started.elapsed() < Duration::from_secs(10));
    match first {
        Err(CommError::Timeout { op, .. }) => assert_eq!(op, "recv"),
        other => panic!("expected a recv Timeout, got {other:?}"),
    }
    match second {
        Err(
            CommError::Timeout { .. }
            | CommError::PeerDisconnected
            | CommError::MembershipChanged { .. },
        ) => {}
        other => panic!("expected a structured link error, got {other:?}"),
    }
    drop((from_rank0, to_rank0, listener1));
}
