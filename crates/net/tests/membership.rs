//! Topology and elastic-membership tests for the TCP backend.
//!
//! Two-level (ring-of-rings) all-reduce must be bit-exact with the flat
//! ring on integer-valued gradients and with the thread backend on
//! arbitrary floats; a rank that dies mid-collective must surface as
//! `CommError::MembershipChanged` on every survivor, and `reform()` must
//! rebuild a working flat group whose results match a fresh group of the
//! same survivors — never a hang, bounded by the op deadline.

use std::time::{Duration, Instant};

use acp_collectives::{CommError, Communicator, ReduceOp, ThreadGroup, Topology, VerifyMode};
use acp_net::{run_local, run_local_with, RetryPolicy};

/// Integer-valued pseudo-gradient: f32 addition over small integers is
/// exact in any association, so flat and hierarchical reduction orders
/// must agree to the bit.
fn integer_input(rank: usize, len: usize) -> Vec<f32> {
    (0..len)
        .map(|i| (((i as i64 * 7 + rank as i64 * 13) % 17) - 8) as f32)
        .collect()
}

/// Arbitrary-float pseudo-gradient (same shape as the equivalence suite).
fn float_input(rank: usize, len: usize, seed: u64) -> Vec<f32> {
    (0..len)
        .map(|i| (((i as u64 * 31 + rank as u64 * 17 + seed * 101) % 1009) as f32 * 0.37).sin())
        .collect()
}

fn exact_sum(ranks: &[usize], len: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; len];
    for &r in ranks {
        for (o, x) in out.iter_mut().zip(integer_input(r, len)) {
            *o += x;
        }
    }
    out
}

fn assert_bits_eq(a: &[f32], b: &[f32], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: element {i} differs ({x} vs {y})"
        );
    }
}

/// A retry policy that gives up fast: membership tests dial dead
/// listeners on purpose, and the default backoff budget would dominate
/// the test's wall clock.
fn fast_retry() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 2,
        initial_backoff: Duration::from_millis(2),
        max_backoff: Duration::from_millis(10),
        attempt_timeout: Duration::from_millis(250),
        dial_budget: Duration::ZERO, // attempts-only: dead peers must fail fast
    }
}

/// Two-level all-reduce over TCP is bit-exact with the flat TCP ring on
/// integer-valued inputs, across group shapes including uneven chunking.
#[test]
fn two_level_all_reduce_over_tcp_is_bit_exact_with_flat() {
    for (world, groups, len) in [(4, 2, 33), (8, 2, 257), (8, 4, 64)] {
        let flat = run_local(world, |mut comm| {
            let mut buf = integer_input(comm.rank_id().as_usize(), len);
            comm.all_reduce(&mut buf, ReduceOp::Sum).unwrap();
            buf
        });
        let hier = run_local_with(
            world,
            |_rank, cfg| cfg.with_groups(groups).unwrap(),
            |mut comm| {
                assert_eq!(comm.topology().groups(), groups);
                let mut buf = integer_input(comm.rank_id().as_usize(), len);
                comm.all_reduce(&mut buf, ReduceOp::Sum).unwrap();
                buf
            },
        );
        let expected = exact_sum(&(0..world).collect::<Vec<_>>(), len);
        for rank in 0..world {
            assert_bits_eq(&hier[rank], &flat[rank], "two-level tcp vs flat tcp");
            assert_bits_eq(&hier[rank], &expected, "two-level tcp vs exact sum");
        }
    }
}

/// Two-level all-reduce over TCP is bit-exact with the two-level thread
/// backend on *arbitrary* floats: both run the identical hierarchical
/// schedule from `acp_collectives::hierarchy`, so equality holds by
/// construction.
#[test]
fn two_level_tcp_matches_two_level_thread_on_floats() {
    let (world, groups, len, seed) = (8, 2, 129, 42);
    let thread = ThreadGroup::try_run_with_topology(
        Topology::grouped(world, groups).unwrap(),
        VerifyMode::Digest,
        |mut comm| {
            let mut buf = float_input(comm.rank_id().as_usize(), len, seed);
            comm.all_reduce(&mut buf, ReduceOp::Sum).unwrap();
            buf
        },
    )
    .unwrap();
    let tcp = run_local_with(
        world,
        |_rank, cfg| cfg.with_groups(groups).unwrap(),
        |mut comm| {
            let mut buf = float_input(comm.rank_id().as_usize(), len, seed);
            comm.all_reduce(&mut buf, ReduceOp::Sum).unwrap();
            buf
        },
    );
    for rank in 0..world {
        assert_bits_eq(&tcp[rank], &thread[rank], "two-level tcp vs thread");
    }
}

/// 3-rank group, rank 1 dies before the collective: both survivors
/// observe `MembershipChanged { epoch: 0, departed: [1] }`, `reform()`
/// converges on epoch 1 over ranks `[0, 2]`, and the post-reform
/// all-reduce is bit-exact with a fresh group of the same survivors.
#[test]
fn killed_rank_surfaces_membership_changed_and_reform_converges() {
    let len = 9;
    let started = Instant::now();
    let results = run_local_with(
        3,
        |_rank, cfg| {
            cfg.with_op_deadline(Duration::from_secs(2))
                .with_retry(fast_retry())
        },
        |mut comm| {
            let me = comm.rank_id().as_usize();
            if me == 1 {
                return None; // Dies: dropping the communicator closes its listener.
            }
            std::thread::sleep(Duration::from_millis(100)); // let the victim die first
            let mut buf = integer_input(me, len);
            match comm.all_reduce(&mut buf, ReduceOp::Sum) {
                Err(CommError::MembershipChanged { epoch: 0, departed }) => {
                    assert_eq!(departed, vec![1]);
                }
                other => panic!("expected MembershipChanged, got {other:?}"),
            }
            let membership = comm.reform().expect("survivors reform");
            assert_eq!(membership.epoch(), 1);
            assert_eq!(membership.ranks(), &[0, 2]);
            assert!(comm.topology().is_flat());
            let mut buf = integer_input(me, len);
            comm.all_reduce(&mut buf, ReduceOp::Sum)
                .expect("post-reform collective");
            Some(buf)
        },
    );
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "membership change and reform must be bounded, not a hang"
    );
    // The reformed group must compute exactly what a fresh group of the
    // survivors computes (integer inputs keyed by original physical rank).
    let fresh = exact_sum(&[0, 2], len);
    assert_eq!(results[1], None);
    for rank in [0, 2] {
        assert_bits_eq(
            results[rank].as_ref().unwrap(),
            &fresh,
            "reformed group vs fresh survivors",
        );
    }
}

/// A send that breaks on a link this rank dialed must not redial a peer
/// whose listener is gone. With the default retry policy (a 10 s dial
/// budget), rank 0 writes a ring step of several segments to dead rank 1:
/// the first segment lands in the dead socket's buffer, the second fails,
/// and rank 0 must surface `MembershipChanged` at once rather than dial
/// the vanished listener until the budget runs out.
#[test]
fn broken_send_to_a_dead_peer_is_not_redialed() {
    let len = 3 * 4 * 16 * 1024; // four 64 KiB segments per ring step
    let started = Instant::now();
    let results = run_local_with(
        3,
        |_rank, cfg| cfg.with_op_deadline(Duration::from_secs(20)),
        |mut comm| {
            let me = comm.rank_id().as_usize();
            if me == 1 {
                return None; // Dies: dropping the communicator closes its listener.
            }
            std::thread::sleep(Duration::from_millis(100)); // let the victim die first
            let mut buf = integer_input(me, len);
            Some(comm.all_reduce(&mut buf, ReduceOp::Sum))
        },
    );
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "a dead peer must not be redialed for the whole dial budget ({:?})",
        started.elapsed()
    );
    for rank in [0, 2] {
        match &results[rank] {
            Some(Err(CommError::MembershipChanged { epoch: 0, departed })) => {
                assert_eq!(departed, &[1], "rank {rank}");
            }
            other => panic!("rank {rank}: expected MembershipChanged, got {other:?}"),
        }
    }
}

/// 8-rank two-level (2×4) group, rank 5 dies mid-run: all seven
/// survivors observe the membership change, reform to a flat 7-rank
/// ring at epoch 1, and converge bit-exact with the exact sum over the
/// survivors.
#[test]
fn two_level_kill_and_reform_on_eight_ranks() {
    let (world, groups, len) = (8, 2, 65);
    let started = Instant::now();
    let results = run_local_with(
        world,
        |_rank, cfg| {
            cfg.with_groups(groups)
                .unwrap()
                .with_op_deadline(Duration::from_secs(2))
                .with_retry(fast_retry())
        },
        |mut comm| {
            let me = comm.rank_id().as_usize();
            if me == 5 {
                return None;
            }
            std::thread::sleep(Duration::from_millis(100));
            let mut buf = integer_input(me, len);
            match comm.all_reduce(&mut buf, ReduceOp::Sum) {
                Err(CommError::MembershipChanged { epoch: 0, departed }) => {
                    assert_eq!(departed, vec![5]);
                }
                other => panic!("expected MembershipChanged, got {other:?}"),
            }
            let membership = comm.reform().expect("survivors reform");
            assert_eq!(membership.epoch(), 1);
            assert_eq!(membership.ranks(), &[0, 1, 2, 3, 4, 6, 7]);
            assert_eq!(comm.membership().world_size(), 7);
            assert!(comm.topology().is_flat());
            let mut buf = integer_input(me, len);
            comm.all_reduce(&mut buf, ReduceOp::Sum)
                .expect("post-reform collective");
            Some(buf)
        },
    );
    assert!(started.elapsed() < Duration::from_secs(60));
    let fresh = exact_sum(&[0, 1, 2, 3, 4, 6, 7], len);
    for (rank, result) in results.iter().enumerate() {
        if rank == 5 {
            assert_eq!(*result, None);
        } else {
            assert_bits_eq(
                result.as_ref().unwrap(),
                &fresh,
                "reformed two-level group vs fresh survivors",
            );
        }
    }
}

/// Reform with nobody departed is the identity: same epoch, same ranks,
/// and the group keeps working.
#[test]
fn reform_without_departures_is_idempotent_over_tcp() {
    let results = run_local(3, |mut comm| {
        let membership = comm.reform().expect("no-op reform");
        assert_eq!(membership.epoch(), 0);
        assert_eq!(membership.world_size(), 3);
        let mut buf = vec![1.0f32; 8];
        comm.all_reduce(&mut buf, ReduceOp::Sum).unwrap();
        buf
    });
    for buf in results {
        assert_eq!(buf, vec![3.0; 8]);
    }
}
