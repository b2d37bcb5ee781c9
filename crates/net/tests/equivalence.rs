//! Cross-backend equivalence: the TCP communicator must be **bit-exact**
//! with the in-process thread communicator on every collective, across
//! world sizes 2–8 and odd buffer lengths.
//!
//! Both backends run the same generic algorithms from
//! `acp_collectives::ring`, so equality should hold by construction; these
//! tests pin that guarantee against regressions in the wire format (a
//! lossy f32 round-trip would show up immediately) and in the chunking
//! logic. Sums are additionally checked against a naive sequential
//! reference within floating-point tolerance.

use acp_collectives::{wait_all, CollectiveOp, Communicator, ReduceOp, ThreadGroup};
use acp_net::{run_local, run_local_with};
use proptest::prelude::*;

/// Deterministic, rank-dependent pseudo-gradient (no RNG state to thread
/// through the two backends).
fn input(rank: usize, len: usize, seed: u64) -> Vec<f32> {
    (0..len)
        .map(|i| (((i as u64 * 31 + rank as u64 * 17 + seed * 101) % 1009) as f32 * 0.37).sin())
        .collect()
}

fn op_from(tag: u8) -> ReduceOp {
    match tag % 3 {
        0 => ReduceOp::Sum,
        1 => ReduceOp::Mean,
        _ => ReduceOp::Max,
    }
}

/// Naive sequential reduction, rank order 0..p.
fn reference_reduce(world: usize, len: usize, seed: u64, op: ReduceOp) -> Vec<f32> {
    let mut out = input(0, len, seed);
    for rank in 1..world {
        for (o, x) in out.iter_mut().zip(input(rank, len, seed)) {
            match op {
                ReduceOp::Sum | ReduceOp::Mean => *o += x,
                ReduceOp::Max => *o = o.max(x),
            }
        }
    }
    if op == ReduceOp::Mean {
        let inv = 1.0 / world as f32;
        for o in out.iter_mut() {
            *o *= inv;
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// All-reduce over TCP is bit-exact with the thread backend for every
    /// op, and within float tolerance of the sequential reference.
    #[test]
    fn all_reduce_matches_thread_backend(
        world in 2usize..9,
        len in 1usize..130,
        seed in 0u64..1000,
        op_tag in 0u8..3,
    ) {
        let op = op_from(op_tag);
        let thread = ThreadGroup::run(world, |mut comm| {
            let mut buf = input(comm.rank_id().as_usize(), len, seed);
            comm.all_reduce(&mut buf, op).unwrap();
            buf
        });
        let tcp = run_local(world, |mut comm| {
            let mut buf = input(comm.rank_id().as_usize(), len, seed);
            comm.all_reduce(&mut buf, op).unwrap();
            buf
        });
        let reference = reference_reduce(world, len, seed, op);
        for rank in 0..world {
            assert_bits_eq(&tcp[rank], &thread[rank], "all_reduce tcp vs thread");
            for (x, r) in tcp[rank].iter().zip(&reference) {
                prop_assert!((x - r).abs() <= 1e-4 * r.abs().max(1.0),
                    "all_reduce vs reference: {x} vs {r}");
            }
        }
    }

    /// Ring all-gather (f32 and u32) over TCP is bit-exact with threads.
    #[test]
    fn all_gather_matches_thread_backend(
        world in 2usize..9,
        len in 1usize..65,
        seed in 0u64..1000,
    ) {
        let thread = ThreadGroup::run(world, |mut comm| {
            let send = input(comm.rank_id().as_usize(), len, seed);
            let idx: Vec<u32> = (0..len as u32).map(|i| i * 7 + comm.rank_id().as_usize() as u32).collect();
            (comm.all_gather_f32(&send).unwrap(), comm.all_gather_u32(&idx).unwrap())
        });
        let tcp = run_local(world, |mut comm| {
            let send = input(comm.rank_id().as_usize(), len, seed);
            let idx: Vec<u32> = (0..len as u32).map(|i| i * 7 + comm.rank_id().as_usize() as u32).collect();
            (comm.all_gather_f32(&send).unwrap(), comm.all_gather_u32(&idx).unwrap())
        });
        for rank in 0..world {
            assert_bits_eq(&tcp[rank].0, &thread[rank].0, "all_gather_f32 tcp vs thread");
            prop_assert_eq!(&tcp[rank].1, &thread[rank].1);
        }
    }

    /// Broadcast from every root delivers the root's exact bits everywhere.
    #[test]
    fn broadcast_matches_thread_backend(
        world in 2usize..9,
        len in 1usize..130,
        seed in 0u64..1000,
    ) {
        for root in 0..world {
            let thread = ThreadGroup::run(world, |mut comm| {
                let mut buf = input(comm.rank_id().as_usize(), len, seed);
                comm.broadcast(&mut buf, root).unwrap();
                buf
            });
            let tcp = run_local(world, |mut comm| {
                let mut buf = input(comm.rank_id().as_usize(), len, seed);
                comm.broadcast(&mut buf, root).unwrap();
                buf
            });
            let expected = input(root, len, seed);
            for rank in 0..world {
                assert_bits_eq(&tcp[rank], &thread[rank], "broadcast tcp vs thread");
                assert_bits_eq(&tcp[rank], &expected, "broadcast vs root input");
            }
        }
    }

    /// gTop-k over a default TCP group runs the identical butterfly as
    /// the thread backend — same indices, same value bits.
    #[test]
    fn global_topk_full_mesh_matches_thread_backend(
        world in 2usize..9,
        n in 1usize..33,
        k in 1usize..17,
        seed in 0u64..1000,
    ) {
        let sparse = |rank: usize| {
            let idx: Vec<u32> = (0..n as u32).map(|i| i * 5 + rank as u32 % 5).collect();
            let val = input(rank, n, seed);
            (idx, val)
        };
        let thread = ThreadGroup::run(world, |mut comm| {
            let (idx, val) = sparse(comm.rank_id().as_usize());
            comm.global_topk(&idx, &val, k).unwrap()
        });
        let tcp = run_local(world, |mut comm| {
            let (idx, val) = sparse(comm.rank_id().as_usize());
            comm.global_topk(&idx, &val, k).unwrap()
        });
        for rank in 0..world {
            prop_assert_eq!(&tcp[rank].0, &thread[rank].0);
            assert_bits_eq(&tcp[rank].1, &thread[rank].1, "global_topk tcp vs thread");
        }
    }

    /// The non-blocking path (`all_reduce_start` + `wait`, with several
    /// operations in flight) is bit-exact across backends *and* with the
    /// blocking call — the comm worker runs the same ring algorithms in
    /// the same submission order.
    #[test]
    fn all_reduce_start_matches_thread_backend_and_blocking(
        world in 2usize..9,
        len in 1usize..130,
        seed in 0u64..1000,
        op_tag in 0u8..3,
    ) {
        let op = op_from(op_tag);
        let nonblocking_run = |mut comm: Box<dyn Communicator>| {
            // Two operations in flight at once, redeemed in FIFO order.
            let first = comm.all_reduce_start(input(comm.rank_id().as_usize(), len, seed), op);
            let second = comm.dispatch(CollectiveOp::AllReduce {
                buf: input(comm.rank_id().as_usize(), len, seed.wrapping_add(1)),
                op,
            });
            let results = wait_all([first, second]).unwrap();
            results
                .into_iter()
                .map(|r| r.into_f32().unwrap())
                .collect::<Vec<_>>()
        };
        let blocking = ThreadGroup::run(world, |mut comm| {
            let mut a = input(comm.rank_id().as_usize(), len, seed);
            comm.all_reduce(&mut a, op).unwrap();
            let mut b = input(comm.rank_id().as_usize(), len, seed.wrapping_add(1));
            comm.all_reduce(&mut b, op).unwrap();
            vec![a, b]
        });
        let thread = ThreadGroup::run(world, |comm| nonblocking_run(Box::new(comm)));
        let tcp = run_local(world, |comm| nonblocking_run(Box::new(comm)));
        for rank in 0..world {
            for round in 0..2 {
                assert_bits_eq(
                    &tcp[rank][round],
                    &thread[rank][round],
                    "all_reduce_start tcp vs thread",
                );
                assert_bits_eq(
                    &thread[rank][round],
                    &blocking[rank][round],
                    "all_reduce_start vs blocking",
                );
            }
        }
    }
}

/// Barrier completes on every world size (including the two-rank group,
/// where both ring directions share one link).
#[test]
fn barrier_completes_everywhere() {
    for world in 1..6 {
        let done = run_local(world, |mut comm| {
            for _ in 0..3 {
                comm.barrier().unwrap();
            }
            true
        });
        assert_eq!(done, vec![true; world]);
    }
}

/// A world of one needs no sockets and every collective is the identity.
#[test]
fn single_rank_group_is_identity() {
    let results = run_local(1, |mut comm| {
        let mut buf = vec![1.25f32, -3.5];
        comm.all_reduce(&mut buf, ReduceOp::Sum).unwrap();
        let gathered = comm.all_gather_f32(&[2.0, 4.0]).unwrap();
        comm.barrier().unwrap();
        (buf, gathered)
    });
    assert_eq!(results[0].0, vec![1.25, -3.5]);
    assert_eq!(results[0].1, vec![2.0, 4.0]);
}

/// Large messages on a *cold* group — the first collective on freshly
/// established connections, before any socket-buffer autotuning: a
/// 32 MiB all-reduce and an 8 MiB-per-rank all-gather complete well
/// inside a 10 s op deadline and match the thread backend to the bit.
/// A ring step that finished its whole send before posting the matching
/// receive stalled here once a chunk outgrew the kernel's socket buffers.
#[test]
fn cold_large_messages_complete_and_match_thread_backend() {
    use std::time::Duration;

    const ALL_REDUCE_ELEMS: usize = 8 << 20; // 32 MiB
    const ALL_GATHER_ELEMS: usize = 2 << 20; // 8 MiB per rank
    for world in [2usize, 3] {
        let reduced = ThreadGroup::run(world, |mut comm| {
            let mut buf = input(comm.rank_id().as_usize(), ALL_REDUCE_ELEMS, 7);
            comm.all_reduce(&mut buf, ReduceOp::Sum).unwrap();
            buf
        });
        let gathered = ThreadGroup::run(world, |mut comm| {
            let send = input(comm.rank_id().as_usize(), ALL_GATHER_ELEMS, 7);
            comm.all_gather_f32(&send).unwrap()
        });
        let cold =
            |_rank: usize, cfg: acp_net::TcpConfig| cfg.with_op_deadline(Duration::from_secs(10));
        let tcp = run_local_with(world, cold, |mut comm| {
            let mut buf = input(comm.rank_id().as_usize(), ALL_REDUCE_ELEMS, 7);
            comm.all_reduce(&mut buf, ReduceOp::Sum).unwrap();
            buf
        });
        for rank in 0..world {
            assert_bits_eq(&tcp[rank], &reduced[rank], "cold 32 MiB all_reduce");
        }
        let tcp = run_local_with(world, cold, |mut comm| {
            let send = input(comm.rank_id().as_usize(), ALL_GATHER_ELEMS, 7);
            comm.all_gather_f32(&send).unwrap()
        });
        for rank in 0..world {
            assert_bits_eq(&tcp[rank], &gathered[rank], "cold 8 MiB all_gather_f32");
        }
    }
}
