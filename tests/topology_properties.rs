//! Cross-crate topology properties: the two-level ring-of-rings must be
//! bit-exact with the flat ring, and elastic reform must re-derive an
//! identical schedule digest on every survivor.
//!
//! Both properties are load-bearing for the topology-aware API: the first
//! says grouping is purely a performance decision (never a numerics one),
//! the second says a reformed group agrees on *what it will do next*
//! before it does it — the digest is the collision-resistant summary of
//! the post-reform schedule that `reform()` cross-checks among survivors.

use std::collections::BTreeMap;
use std::sync::Mutex;

use proptest::prelude::*;

use acp_collectives::{CommError, Communicator, ReduceOp, ThreadGroup, Topology, VerifyMode};

/// Integer-valued f32s in [-8, 8]: integer addition well inside the
/// mantissa is exact, so every reduction association yields the same bits
/// and bit-equality across schedules is a meaningful assertion.
fn integer_input(rank: usize, len: usize, seed: u64) -> Vec<f32> {
    (0..len)
        .map(|i| {
            let x = (i as u64)
                .wrapping_mul(7)
                .wrapping_add((rank as u64).wrapping_mul(13))
                .wrapping_add(seed.wrapping_mul(31));
            ((x % 17) as i64 - 8) as f32
        })
        .collect()
}

/// Every proper two-level layout with 4 <= world <= 16: `groups` divides
/// the world and both dimensions hold at least two ranks.
fn two_level_layouts() -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for world in 4..=16usize {
        for groups in 2..world {
            if world.is_multiple_of(groups) && world / groups >= 2 {
                out.push((world, groups));
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Acceptance criterion: two-level all-reduce is bit-exact with the
    /// flat ring for worlds 4-16, including odd payload lengths that
    /// force uneven chunking at both ring levels.
    #[test]
    fn two_level_all_reduce_is_bit_exact_with_flat(
        layout_idx in 0usize..64,
        len in prop_oneof![1usize..64, Just(33usize), Just(257usize)],
        seed in 0u64..1000,
    ) {
        let layouts = two_level_layouts();
        let (world, groups) = layouts[layout_idx % layouts.len()];
        let flat = ThreadGroup::run(world, |mut comm| {
            let mut buf = integer_input(comm.rank_id().as_usize(), len, seed);
            comm.all_reduce(&mut buf, ReduceOp::Sum).unwrap();
            buf
        });
        let topo = Topology::grouped(world, groups).unwrap();
        let hier =
            ThreadGroup::try_run_with_topology(topo, VerifyMode::default(), |mut comm| {
                let mut buf = integer_input(comm.rank_id().as_usize(), len, seed);
                comm.all_reduce(&mut buf, ReduceOp::Sum).unwrap();
                buf
            })
            .unwrap();
        for (rank, (f, h)) in flat.iter().zip(&hier).enumerate() {
            let fb: Vec<u32> = f.iter().map(|v| v.to_bits()).collect();
            let hb: Vec<u32> = h.iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(
                &fb, &hb,
                "rank {} differs between flat and {}x{} two-level",
                rank, groups, world / groups
            );
        }
    }

    /// Reform never changes the schedule digest across the surviving
    /// ranks: whatever the world, the grouping, or which rank dies, every
    /// survivor re-derives the same digest after `reform()` plus one
    /// post-reform collective.
    #[test]
    fn reform_rederives_one_digest_on_every_survivor(
        layout_idx in 0usize..64,
        victim_seed in 0usize..64,
        len in 3usize..48,
        seed in 0u64..1000,
    ) {
        let layouts = two_level_layouts();
        let (world, groups) = layouts[layout_idx % layouts.len()];
        let victim = victim_seed % world;
        let topo = Topology::grouped(world, groups).unwrap();
        let digests: Mutex<BTreeMap<usize, u64>> = Mutex::new(BTreeMap::new());
        // The first survivor whose collective did not see the departure,
        // and what it saw instead: its panic only shows in the assertions
        // below as a missing digest.
        let unexpected: Mutex<Option<(usize, String)>> = Mutex::new(None);
        let result =
            ThreadGroup::try_run_with_topology(topo, VerifyMode::default(), |mut comm| {
                let phys = comm.rank_id().as_usize();
                if phys == victim {
                    std::thread::sleep(std::time::Duration::from_millis(20));
                    panic!("injected worker death");
                }
                let mut buf = integer_input(phys, len, seed);
                match comm.all_reduce(&mut buf, ReduceOp::Sum) {
                    Err(CommError::MembershipChanged { departed, .. }) => {
                        assert_eq!(departed, vec![victim]);
                    }
                    other => {
                        unexpected
                            .lock()
                            .unwrap()
                            .get_or_insert_with(|| (phys, format!("{other:?}")));
                        panic!("rank {phys} expected MembershipChanged, got {other:?}");
                    }
                }
                let membership = comm.reform().expect("reform after departure");
                assert_eq!(membership.epoch(), 1);
                assert_eq!(membership.world_size(), world - 1);
                let mut buf = integer_input(phys, len, seed);
                comm.all_reduce(&mut buf, ReduceOp::Sum).unwrap();
                let digest = comm.schedule().expect("schedule snapshot").digest;
                digests.lock().unwrap().insert(phys, digest);
            });
        let unexpected = unexpected.into_inner().unwrap();
        let seen = format!("first (rank, result) not MembershipChanged: {unexpected:?}");
        prop_assert_eq!(result, Err(CommError::WorkerPanicked), "{}", seen);
        let digests = digests.into_inner().unwrap();
        prop_assert_eq!(digests.len(), world - 1, "every survivor must finish; {}", seen);
        let mut iter = digests.values();
        let first = *iter.next().unwrap();
        for &d in iter {
            prop_assert_eq!(d, first, "survivors disagree on the post-reform digest; {}", seen);
        }
    }
}
