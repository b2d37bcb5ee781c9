//! Hierarchical (ring-of-rings) collectives over a two-level [`Topology`].
//!
//! The NCCL-style two-level all-reduce for `G` groups of `s` ranks:
//!
//! 1. **Intra-group reduce-scatter** — a ring reduce-scatter inside each
//!    group over `s` chunks; after `s−1` steps the rank at position `j`
//!    owns its group's partial reduction of chunk `(j+1) mod s`.
//! 2. **Cross-group all-reduce** — the `G` ranks sharing a position form
//!    an outer ring and all-reduce their owned chunk (ring reduce-scatter
//!    plus ring all-gather over `G` sub-chunks).
//! 3. **Intra-group all-gather** — a ring all-gather inside each group
//!    redistributes the `s` fully reduced chunks.
//!
//! Per-rank volume stays the bandwidth-optimal `2(p−1)/p·N` shape, but the
//! latency splits into `2(s−1)` intra-group terms and `2(G−1)` cross-group
//! terms — the trade the Table II cost model prices via
//! [`TwoLevelCost`](crate::cost::TwoLevelCost), and the reason hierarchy
//! wins when cross-group links have WAN-class α.
//!
//! Like everything in [`crate::ring`], the algorithm is generic over
//! [`Transport`], so the thread and TCP backends are bit-exact with *each
//! other* by construction. Against the flat ring the reduction *tree*
//! differs, so general floats agree only to round-off; for exactly
//! representable sums (integer-valued f32 within 2²⁴) the results are
//! bitwise identical under any association, which is what the
//! flat-vs-hierarchical proptests pin.

use crate::communicator::{CommError, ReduceOp};
use crate::ring::{chunk_range, reduce_into, reduce_last_into, split_send_recv, Transport};
use crate::topology::{RankId, Topology};

/// The four ring neighbours of a rank in a two-level arrangement.
struct Neighbours {
    /// Next rank on the intra-group ring.
    intra_next: usize,
    /// Previous rank on the intra-group ring.
    intra_prev: usize,
    /// Next same-position rank on the cross-group ring.
    cross_next: usize,
    /// Previous same-position rank on the cross-group ring.
    cross_prev: usize,
}

fn neighbours(topo: &Topology, rank: usize) -> Neighbours {
    let s = topo.group_size();
    let g_count = topo.groups();
    let g = topo.group_of(RankId(rank)).as_usize();
    let j = topo.position_in_group(RankId(rank));
    Neighbours {
        intra_next: g * s + (j + 1) % s,
        intra_prev: g * s + (j + s - 1) % s,
        cross_next: ((g + 1) % g_count) * s + j,
        cross_prev: ((g + g_count - 1) % g_count) * s + j,
    }
}

/// Two-level ring-of-rings all-reduce; falls back to the flat ring when
/// `topo` is flat or degenerate. `Mean` divides once by the total world at
/// the end, like the flat ring.
///
/// Requires a transport where the four ring neighbours are reachable,
/// which every worker-backed transport is: the thread backend's mailboxes
/// and the TCP backend's one link per peer.
///
/// # Errors
///
/// Returns an error on disconnect, timeout, or inconsistent buffer
/// lengths; a topology that does not match `t.world_size()` is a
/// [`CommError::ProtocolMismatch`].
pub fn all_reduce_two_level<T: Transport + ?Sized>(
    t: &mut T,
    topo: Topology,
    buf: &mut [f32],
    op: ReduceOp,
) -> Result<(), CommError> {
    let p = t.world_size();
    if topo.world_size() != p {
        return Err(CommError::ProtocolMismatch);
    }
    let s = topo.group_size();
    let g_count = topo.groups();
    if topo.is_flat() || s == 1 || g_count == 1 {
        return crate::ring::all_reduce(t, buf, op);
    }
    let r = t.rank();
    let j = topo.position_in_group(RankId(r));
    let g = topo.group_of(RankId(r)).as_usize();
    let n = neighbours(&topo, r);
    let len = buf.len();
    // Reductions run as Sum/Max; Mean divides once by the full world, in
    // the step that completes a chunk's reduction, so the result matches
    // the flat ring's convention.
    let phase_op = match op {
        ReduceOp::Mean => ReduceOp::Sum,
        other => other,
    };

    // Phase 1: intra-group ring reduce-scatter over s chunks. After s-1
    // steps position j owns the group-partial chunk (j+1) mod s. Each
    // incoming partial, here and in phase 2, is folded straight into the
    // chunk it reduces.
    for step in 0..s - 1 {
        let send_idx = (j + s - step) % s;
        let recv_idx = (j + s - step - 1) % s;
        let (send, dst) = split_send_recv(
            buf,
            chunk_range(len, send_idx, s),
            chunk_range(len, recv_idx, s),
        );
        t.exchange_fold_f32s(
            Some((n.intra_next, send)),
            n.intra_prev,
            dst.len(),
            &mut |incoming| reduce_into(dst, incoming, phase_op),
        )?;
    }
    let owned = (j + 1) % s;
    let owned_range = chunk_range(len, owned, s);

    // Phase 2: cross-group ring all-reduce of the owned chunk among the
    // G same-position ranks; this rank's outer-ring position is g.
    let sub = &mut buf[owned_range];
    let m = sub.len();
    for step in 0..g_count - 1 {
        let send_idx = (g + g_count - step) % g_count;
        let recv_idx = (g + g_count - step - 1) % g_count;
        let (send, dst) = split_send_recv(
            sub,
            chunk_range(m, send_idx, g_count),
            chunk_range(m, recv_idx, g_count),
        );
        let last = step == g_count - 2;
        t.exchange_fold_f32s(
            Some((n.cross_next, send)),
            n.cross_prev,
            dst.len(),
            &mut |incoming| {
                if last {
                    reduce_last_into(dst, incoming, op, p);
                } else {
                    reduce_into(dst, incoming, phase_op);
                }
            },
        )?;
    }
    for step in 0..g_count - 1 {
        let send_idx = (g + 1 + g_count - step) % g_count;
        let recv_idx = (g + g_count - step) % g_count;
        let (send, recv) = split_send_recv(
            sub,
            chunk_range(m, send_idx, g_count),
            chunk_range(m, recv_idx, g_count),
        );
        t.exchange_f32s(Some((n.cross_next, send)), Some((n.cross_prev, recv)))?;
    }

    // Phase 3: intra-group ring all-gather of the s reduced chunks,
    // starting from the chunk each position owns.
    for step in 0..s - 1 {
        let send_idx = (j + 1 + s - step) % s;
        let recv_idx = (j + s - step) % s;
        let (send, recv) = split_send_recv(
            buf,
            chunk_range(len, send_idx, s),
            chunk_range(len, recv_idx, s),
        );
        t.exchange_f32s(Some((n.intra_next, send)), Some((n.intra_prev, recv)))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use crate::cost::{ClusterCost, NetworkTier, TwoLevelCost};
    use crate::topology::Topology;

    #[test]
    fn hierarchy_beats_flat_at_large_worlds_on_wan() {
        // The `figures ext-hierarchy` sweep: one 25 MB bucket over the
        // balanced layouts (largest group count ≤ √p) for worlds 8–1024,
        // 10 GbE inside groups and WAN between them. The two-level
        // schedule must beat the flat ring at every world ≥ 128, and the
        // advantage must grow with the world: latency terms scale as
        // 2(p−1) flat vs 2(G−1)+2(s−1) hierarchical.
        const N: usize = 25 * 1024 * 1024;
        let layouts = [
            (8usize, 2usize),
            (16, 4),
            (32, 4),
            (64, 8),
            (128, 8),
            (256, 16),
            (512, 16),
            (1024, 32),
        ];
        let mut speedups = Vec::new();
        for (world, groups) in layouts {
            let topo = Topology::grouped(world, groups).unwrap();
            let two_level = TwoLevelCost::from_tiers(topo, NetworkTier::TenGbE, NetworkTier::Wan)
                .all_reduce_time(N);
            let flat = ClusterCost::new(world, NetworkTier::Wan).all_reduce_time(N);
            if world >= 128 {
                assert!(
                    two_level < flat,
                    "world {world}: two-level {two_level:.4}s not better than flat {flat:.4}s"
                );
            }
            speedups.push(flat / two_level);
        }
        for w in speedups.windows(2) {
            assert!(w[1] > w[0], "speedup must grow with world: {speedups:?}");
        }
    }
}
