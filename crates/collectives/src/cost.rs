//! Analytical α–β cost models for collective communication.
//!
//! These price the communication tasks in the discrete-event simulator and
//! encode Table II of the paper as code. The standard α–β model for a ring
//! collective over `p` workers is
//!
//! ```text
//! T_allreduce(n)  = launch + 2(p−1)·α + 2(p−1)/p · n · β
//! T_allgather(k)  = launch + (p−1)·α +  (p−1)    · k · β
//! ```
//!
//! where `α` is the per-hop message latency, `β` seconds per byte, and
//! `launch` a fixed per-operation cost (kernel launch + protocol setup).
//!
//! # Calibration
//!
//! The presets in [`NetworkTier`] are fitted to the microbenchmarks quoted
//! in the paper for its 8-node × 4-GPU 10 GbE testbed (§II-A3 and §IV-B):
//!
//! * all-reducing the unfused gradients of ResNet-50 (≈161 tensors,
//!   97.5 MB) takes 243 ms, fused into 25 MB buffers 169 ms;
//! * all-reducing ACP-SGD's compressed tensors separately takes 55.9 ms,
//!   fused 2.3 ms;
//! * two 32 KB all-reduces ≈ 2.0 ms vs one 64 KB ≈ 1.2 ms.
//!
//! With `p = 32`, `α = 8 µs`, `launch = 50 µs`, `β = 1/10 Gb/s` the model
//! reproduces the first two (246 ms / 160 ms and ≈60 ms / 2.4 ms) and is
//! within 2× of the third (which is itself inconsistent with the first two
//! under any linear model — small all-reduces partially overlap in NCCL).

use serde::{Deserialize, Serialize};

/// Per-message latency, per-byte cost and per-operation launch overhead of a
/// network tier, in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AlphaBetaCost {
    /// Per-hop message latency α (seconds).
    pub alpha: f64,
    /// Transfer cost β (seconds per byte).
    pub beta: f64,
    /// Fixed per-collective launch overhead (seconds).
    pub launch: f64,
}

impl AlphaBetaCost {
    /// Creates a cost model from bandwidth in Gb/s and latencies in seconds.
    pub fn from_bandwidth_gbps(gbps: f64, alpha: f64, launch: f64) -> Self {
        AlphaBetaCost {
            alpha,
            beta: 8.0 / (gbps * 1e9),
            launch,
        }
    }
}

impl From<acp_telemetry::FittedAlphaBeta> for AlphaBetaCost {
    /// A calibration fit from live telemetry drops in for a tier preset —
    /// the fit targets exactly the model [`ClusterCost`] evaluates, so the
    /// conversion is a plain re-labeling.
    fn from(fit: acp_telemetry::FittedAlphaBeta) -> Self {
        AlphaBetaCost {
            alpha: fit.alpha,
            beta: fit.beta,
            launch: fit.launch,
        }
    }
}

/// The three interconnects evaluated in the paper (Fig. 13), plus the
/// loopback-TCP tier of `acp-net`'s local multi-process backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NetworkTier {
    /// Inexpensive commodity 1 Gb/s Ethernet.
    OneGbE,
    /// Ubiquitous data-center 10 Gb/s Ethernet (the paper's main testbed).
    TenGbE,
    /// High-bandwidth 100 Gb/s InfiniBand.
    HundredGbIb,
    /// Kernel loopback TCP between processes on one host — what the
    /// `acp-net` backend's `launch_local` runs over. No physical NIC:
    /// bandwidth is memcpy-limited (tens of Gb/s) and the per-message
    /// latency is the syscall + TCP-stack cost, so it behaves like a very
    /// fast, very low-launch-cost Ethernet.
    Loopback,
    /// Cross-site WAN links between data centers: respectable bandwidth
    /// but millisecond-class per-message latency. This is the tier where
    /// the flat ring's `2(p−1)·α` term collapses at large worlds and the
    /// two-level schedule (cross-group traffic only on the WAN ring) wins
    /// — the regime [`TwoLevelCost`] prices.
    Wan,
}

impl NetworkTier {
    /// The calibrated α–β parameters of this tier.
    pub fn cost(self) -> AlphaBetaCost {
        match self {
            // Ethernet latencies dominated by kernel/TCP stack; InfiniBand
            // uses RDMA with much lower per-message cost.
            NetworkTier::OneGbE => AlphaBetaCost::from_bandwidth_gbps(1.0, 10e-6, 50e-6),
            NetworkTier::TenGbE => AlphaBetaCost::from_bandwidth_gbps(10.0, 8e-6, 50e-6),
            // The paper's testbed has no GPUDirect RDMA (RTX 2080 Ti over
            // PCIe 3.0): NCCL's effective all-reduce algorithm bandwidth on
            // the 100 Gb/s fabric is host-memory/PCIe limited to ≈30 Gb/s,
            // which is what lets ACP-SGD still beat S-SGD by ~40% on
            // BERT-Base over InfiniBand (Fig. 13).
            NetworkTier::HundredGbIb => AlphaBetaCost::from_bandwidth_gbps(30.0, 1.5e-6, 20e-6),
            // Loopback moves bytes through the kernel, not a NIC: ~40 Gb/s
            // effective for framed streams, ~5 µs per message (two
            // syscalls + scheduler wakeup), negligible launch cost since
            // there is no device handshake.
            NetworkTier::Loopback => AlphaBetaCost::from_bandwidth_gbps(40.0, 5e-6, 5e-6),
            // Inter-region fiber: ~5 Gb/s effective per flow, ~1.5 ms
            // one-way latency (hundreds of km + routing), launch dominated
            // by connection management.
            NetworkTier::Wan => AlphaBetaCost::from_bandwidth_gbps(5.0, 1.5e-3, 100e-6),
        }
    }

    /// Human-readable label used in experiment output.
    pub fn label(self) -> &'static str {
        match self {
            NetworkTier::OneGbE => "1GbE",
            NetworkTier::TenGbE => "10GbE",
            NetworkTier::HundredGbIb => "100GbIB",
            NetworkTier::Loopback => "loopback",
            NetworkTier::Wan => "WAN",
        }
    }
}

impl std::fmt::Display for NetworkTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Communication cost calculator for a cluster of `p` workers on a network
/// tier.
///
/// # Examples
///
/// ```
/// use acp_collectives::{ClusterCost, NetworkTier};
///
/// let cluster = ClusterCost::new(32, NetworkTier::TenGbE);
/// // Fused 25 MB all-reduce: bandwidth-dominated.
/// let t = cluster.all_reduce_time(25 * 1024 * 1024);
/// assert!(t > 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClusterCost {
    workers: usize,
    cost: AlphaBetaCost,
}

impl ClusterCost {
    /// Creates the cost model for `workers` ranks on `tier`.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`.
    pub fn new(workers: usize, tier: NetworkTier) -> Self {
        assert!(workers > 0, "cluster must have at least one worker");
        ClusterCost {
            workers,
            cost: tier.cost(),
        }
    }

    /// Creates a cost model with explicit α–β parameters.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`.
    #[must_use]
    pub fn with_cost(workers: usize, cost: AlphaBetaCost) -> Self {
        assert!(workers > 0, "cluster must have at least one worker");
        ClusterCost { workers, cost }
    }

    /// Number of workers `p`.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The underlying α–β parameters.
    pub fn alpha_beta(&self) -> AlphaBetaCost {
        self.cost
    }

    /// Wall-clock seconds for a ring all-reduce of `bytes` payload.
    ///
    /// `launch + 2(p−1)·α + 2(p−1)/p · bytes · β`; zero-sized payloads still
    /// pay the launch cost. A single worker pays nothing.
    pub fn all_reduce_time(&self, bytes: usize) -> f64 {
        let p = self.workers as f64;
        if self.workers == 1 {
            return 0.0;
        }
        self.cost.launch
            + 2.0 * (p - 1.0) * self.cost.alpha
            + 2.0 * (p - 1.0) / p * bytes as f64 * self.cost.beta
    }

    /// Wall-clock seconds for a ring all-gather where every rank contributes
    /// `bytes_per_rank`.
    ///
    /// `launch + (p−1)·α + (p−1) · bytes_per_rank · β`.
    pub fn all_gather_time(&self, bytes_per_rank: usize) -> f64 {
        let p = self.workers as f64;
        if self.workers == 1 {
            return 0.0;
        }
        self.cost.launch + (p - 1.0) * (self.cost.alpha + bytes_per_rank as f64 * self.cost.beta)
    }

    /// Per-rank transmitted bytes of a ring all-reduce (Table II row
    /// "Communicate" for S-SGD / Power-SGD): `2(p−1)/p · bytes`.
    pub fn all_reduce_volume(&self, bytes: usize) -> f64 {
        let p = self.workers as f64;
        2.0 * (p - 1.0) / p * bytes as f64
    }

    /// Per-rank transmitted bytes of an all-gather (Table II row for
    /// Sign-SGD / Top-k SGD): `(p−1) · bytes_per_rank`.
    pub fn all_gather_volume(&self, bytes_per_rank: usize) -> f64 {
        (self.workers as f64 - 1.0) * bytes_per_rank as f64
    }

    /// Wall-clock seconds for a recursive-doubling all-reduce of `bytes`:
    /// `launch + ⌈log₂ p⌉ (α + bytes·β)` — latency-optimal, preferable to
    /// the ring for small payloads (the regime tensor fusion addresses).
    pub fn recursive_doubling_time(&self, bytes: usize) -> f64 {
        if self.workers == 1 {
            return 0.0;
        }
        let rounds = (self.workers as f64).log2().ceil();
        self.cost.launch + rounds * (self.cost.alpha + bytes as f64 * self.cost.beta)
    }

    /// Wall-clock seconds for the gTop-k sparse all-reduce collective:
    /// `⌈log₂ p⌉` rounds, each exchanging `k` (index, value) pairs —
    /// `launch + log₂(p)(α + 8k·β)`. Contrast with Top-k's all-gather,
    /// whose received volume grows linearly in `p`.
    pub fn gtopk_time(&self, k: usize) -> f64 {
        if self.workers == 1 {
            return 0.0;
        }
        let rounds = (self.workers as f64).log2().ceil();
        self.cost.launch + rounds * (self.cost.alpha + (8 * k) as f64 * self.cost.beta)
    }

    /// Time for the naive flat (non-ring) reduce+broadcast used when a
    /// method cannot pipeline — retained for the start-up cost comparisons.
    pub fn flat_all_reduce_time(&self, bytes: usize) -> f64 {
        let p = self.workers as f64;
        if self.workers == 1 {
            return 0.0;
        }
        // Reduce to root then broadcast: 2 (p-1) sequential messages of the
        // full payload.
        self.cost.launch + 2.0 * (p - 1.0) * (self.cost.alpha + bytes as f64 * self.cost.beta)
    }
}

/// Cost model for the two-level ring-of-rings all-reduce of
/// [`crate::hierarchy`]: `G` groups of `s` ranks, intra-group traffic on
/// one tier (e.g. intra-site 10 GbE) and cross-group traffic on another
/// (e.g. WAN).
///
/// ```text
/// T = launch + 2(s−1)·(α_i + n/s·β_i)                 intra RS + AG
///            + 2(G−1)·α_c + 2(G−1)/G · n/s · β_c      cross all-reduce
/// ```
///
/// The flat ring over the same `p = G·s` ranks pays `2(p−1)` latency terms
/// on the *slow* tier; the hierarchy pays only `2(G−1)` there, which is
/// why it wins at world ≥ 128 on WAN-class cross links (the
/// `figures ext-hierarchy` experiment).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TwoLevelCost {
    groups: usize,
    group_size: usize,
    intra: AlphaBetaCost,
    cross: AlphaBetaCost,
}

impl TwoLevelCost {
    /// Creates the hierarchical model for `topo` with per-tier parameters.
    ///
    /// # Panics
    ///
    /// Panics if `topo` covers zero ranks.
    pub fn new(topo: crate::Topology, intra: AlphaBetaCost, cross: AlphaBetaCost) -> Self {
        assert!(
            topo.world_size() > 0,
            "cluster must have at least one worker"
        );
        TwoLevelCost {
            groups: topo.groups(),
            group_size: topo.group_size(),
            intra,
            cross,
        }
    }

    /// Convenience constructor from [`NetworkTier`] presets.
    ///
    /// # Panics
    ///
    /// Panics if `topo` covers zero ranks.
    pub fn from_tiers(topo: crate::Topology, intra: NetworkTier, cross: NetworkTier) -> Self {
        TwoLevelCost::new(topo, intra.cost(), cross.cost())
    }

    /// Total number of ranks `G·s`.
    pub fn workers(&self) -> usize {
        self.groups * self.group_size
    }

    /// Wall-clock seconds for the two-level all-reduce of `bytes` payload.
    ///
    /// Degenerate shapes collapse to the flat ring on the matching tier: a
    /// single group is an intra-tier ring, groups of one an all-cross ring.
    pub fn all_reduce_time(&self, bytes: usize) -> f64 {
        let (g, s) = (self.groups as f64, self.group_size as f64);
        if self.workers() == 1 {
            return 0.0;
        }
        if self.groups == 1 {
            return ClusterCost::with_cost(self.group_size, self.intra).all_reduce_time(bytes);
        }
        if self.group_size == 1 {
            return ClusterCost::with_cost(self.groups, self.cross).all_reduce_time(bytes);
        }
        // Each intra step moves one of the s chunks: n/s bytes.
        let chunk = bytes as f64 / s;
        let intra = 2.0 * (s - 1.0) * (self.intra.alpha + chunk * self.intra.beta);
        let cross =
            2.0 * (g - 1.0) * self.cross.alpha + 2.0 * (g - 1.0) / g * chunk * self.cross.beta;
        self.intra.launch.max(self.cross.launch) + intra + cross
    }

    /// Per-rank transmitted bytes: `2(s−1)/s·n` intra plus `2(G−1)/G·n/s`
    /// cross — the hierarchy moves strictly less on the slow tier than the
    /// flat ring's `2(p−1)/p·n`.
    pub fn cross_volume(&self, bytes: usize) -> f64 {
        let g = self.groups as f64;
        if self.groups == 1 {
            return 0.0;
        }
        2.0 * (g - 1.0) / g * bytes as f64 / self.group_size as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MB: usize = 1024 * 1024;

    fn cluster32() -> ClusterCost {
        ClusterCost::new(32, NetworkTier::TenGbE)
    }

    #[test]
    fn single_worker_costs_nothing() {
        let c = ClusterCost::new(1, NetworkTier::TenGbE);
        assert_eq!(c.all_reduce_time(MB), 0.0);
        assert_eq!(c.all_gather_time(MB), 0.0);
    }

    #[test]
    fn all_reduce_time_is_monotone_in_bytes() {
        let c = cluster32();
        assert!(c.all_reduce_time(2 * MB) > c.all_reduce_time(MB));
        assert!(c.all_reduce_time(MB) > c.all_reduce_time(0));
        assert!(
            c.all_reduce_time(0) > 0.0,
            "zero payload still pays startup"
        );
    }

    #[test]
    fn fusion_saves_startup_cost() {
        // The premise of tensor fusion: one 64 KB op is cheaper than two
        // 32 KB ops.
        let c = cluster32();
        let two_small = 2.0 * c.all_reduce_time(32 * 1024);
        let one_big = c.all_reduce_time(64 * 1024);
        assert!(one_big < two_small);
        // And in the right ballpark of the paper's quote (2.0 ms / 1.2 ms):
        // within 3x.
        assert!(
            two_small > 0.6e-3 && two_small < 6e-3,
            "two small: {two_small}"
        );
        assert!(one_big > 0.3e-3 && one_big < 3.6e-3, "one big: {one_big}");
    }

    #[test]
    fn calibration_matches_resnet50_fusion_quote() {
        // Paper §IV-B: unfused all-reduce of ResNet-50 gradients 243 ms,
        // fused 169 ms (97.5 MB, ~161 tensors, 4 fused buffers).
        let c = cluster32();
        let total_bytes = (97.5 * MB as f64) as usize;
        let unfused: f64 = (0..161).map(|_| c.all_reduce_time(total_bytes / 161)).sum();
        let fused: f64 = (0..4).map(|_| c.all_reduce_time(total_bytes / 4)).sum();
        assert!((unfused - 0.243).abs() < 0.06, "unfused = {unfused}");
        assert!((fused - 0.169).abs() < 0.04, "fused = {fused}");
        assert!(unfused > fused);
    }

    #[test]
    fn all_gather_scales_linearly_with_workers() {
        let k = MB;
        let t8 = ClusterCost::new(8, NetworkTier::TenGbE).all_gather_time(k);
        let t32 = ClusterCost::new(32, NetworkTier::TenGbE).all_gather_time(k);
        // (p-1) scaling: 31/7 ≈ 4.4x.
        assert!((t32 / t8 - 31.0 / 7.0).abs() < 0.2, "ratio = {}", t32 / t8);
    }

    #[test]
    fn all_reduce_nearly_constant_in_workers() {
        // Ring all-reduce volume 2(p-1)/p N approaches 2N: doubling workers
        // barely moves the bandwidth term.
        let n = 100 * MB;
        let t8 = ClusterCost::new(8, NetworkTier::TenGbE).all_reduce_time(n);
        let t64 = ClusterCost::new(64, NetworkTier::TenGbE).all_reduce_time(n);
        assert!(t64 / t8 < 1.25, "ratio = {}", t64 / t8);
    }

    #[test]
    fn volumes_match_table2() {
        let c = ClusterCost::new(4, NetworkTier::TenGbE);
        assert_eq!(c.all_reduce_volume(400), 2.0 * 3.0 / 4.0 * 400.0);
        assert_eq!(c.all_gather_volume(100), 300.0);
    }

    #[test]
    fn tiers_order_by_bandwidth() {
        let n = 10 * MB;
        let t1 = ClusterCost::new(32, NetworkTier::OneGbE).all_reduce_time(n);
        let t10 = ClusterCost::new(32, NetworkTier::TenGbE).all_reduce_time(n);
        let t100 = ClusterCost::new(32, NetworkTier::HundredGbIb).all_reduce_time(n);
        assert!(t1 > t10 && t10 > t100);
    }

    #[test]
    fn recursive_doubling_beats_ring_for_small_payloads() {
        // Latency-optimal vs bandwidth-optimal crossover.
        let c = cluster32();
        let small = 4 * 1024;
        assert!(c.recursive_doubling_time(small) < c.all_reduce_time(small));
        let large = 64 * MB;
        assert!(c.recursive_doubling_time(large) > c.all_reduce_time(large));
    }

    #[test]
    fn gtopk_scales_logarithmically() {
        let k = 100_000;
        let t8 = ClusterCost::new(8, NetworkTier::TenGbE).gtopk_time(k);
        let t64 = ClusterCost::new(64, NetworkTier::TenGbE).gtopk_time(k);
        // log2: 3 rounds -> 6 rounds, so at most ~2.2x.
        assert!(t64 / t8 < 2.3, "gtopk scaling {}", t64 / t8);
        // All-gather for the same k grows ~(p-1): 9x.
        let g8 = ClusterCost::new(8, NetworkTier::TenGbE).all_gather_time(8 * k);
        let g64 = ClusterCost::new(64, NetworkTier::TenGbE).all_gather_time(8 * k);
        assert!(g64 / g8 > 4.0);
    }

    #[test]
    fn flat_all_reduce_slower_than_ring_for_large_payloads() {
        let c = cluster32();
        assert!(c.flat_all_reduce_time(10 * MB) > c.all_reduce_time(10 * MB));
    }

    #[test]
    fn labels() {
        assert_eq!(NetworkTier::OneGbE.label(), "1GbE");
        assert_eq!(format!("{}", NetworkTier::HundredGbIb), "100GbIB");
        assert_eq!(NetworkTier::Loopback.label(), "loopback");
    }

    #[test]
    fn loopback_beats_ethernet_tiers() {
        // Loopback's per-message cost (two syscalls) undercuts the
        // kernel-TCP-over-NIC Ethernet tiers at every size, while RDMA on
        // the InfiniBand tier still wins on per-message latency.
        for bytes in [4 * 1024, 10 * MB] {
            let lo = ClusterCost::new(4, NetworkTier::Loopback).all_reduce_time(bytes);
            for tier in [NetworkTier::OneGbE, NetworkTier::TenGbE] {
                assert!(
                    lo < ClusterCost::new(4, tier).all_reduce_time(bytes),
                    "loopback slower than {tier} at {bytes} bytes"
                );
            }
        }
        let small = 4 * 1024;
        let ib = ClusterCost::new(4, NetworkTier::HundredGbIb).all_reduce_time(small);
        let lo = ClusterCost::new(4, NetworkTier::Loopback).all_reduce_time(small);
        assert!(
            ib < lo,
            "RDMA per-message cost should beat loopback syscalls"
        );
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_panics() {
        ClusterCost::new(0, NetworkTier::TenGbE);
    }

    #[test]
    fn two_level_beats_flat_ring_on_wan_at_scale() {
        // The `figures ext-hierarchy` claim in miniature: with WAN-class α
        // on the cross links, a flat ring pays 2(p−1) WAN latencies while
        // the hierarchy pays 2(G−1) — at world ≥ 128 that must dominate.
        let n = 100 * MB;
        for world in [128usize, 512, 1024] {
            let groups = world / 8;
            let topo = crate::Topology::grouped(world, groups).unwrap();
            let hier = TwoLevelCost::from_tiers(topo, NetworkTier::TenGbE, NetworkTier::Wan);
            let flat = ClusterCost::new(world, NetworkTier::Wan);
            assert!(
                hier.all_reduce_time(n) < flat.all_reduce_time(n),
                "world {world}: hier {} vs flat {}",
                hier.all_reduce_time(n),
                flat.all_reduce_time(n)
            );
        }
    }

    #[test]
    fn two_level_degenerates_to_flat_ring() {
        let n = 10 * MB;
        let flat = ClusterCost::new(8, NetworkTier::TenGbE).all_reduce_time(n);
        let one_group = TwoLevelCost::from_tiers(
            crate::Topology::flat(8),
            NetworkTier::TenGbE,
            NetworkTier::Wan,
        );
        assert!((one_group.all_reduce_time(n) - flat).abs() < 1e-12);
        let singleton_groups = TwoLevelCost::from_tiers(
            crate::Topology::grouped(8, 8).unwrap(),
            NetworkTier::TenGbE,
            NetworkTier::TenGbE,
        );
        assert!((singleton_groups.all_reduce_time(n) - flat).abs() < 1e-12);
    }

    #[test]
    fn cross_volume_shrinks_with_group_size() {
        let n = 100 * MB;
        let topo = crate::Topology::grouped(64, 8).unwrap();
        let hier = TwoLevelCost::from_tiers(topo, NetworkTier::TenGbE, NetworkTier::Wan);
        let flat_volume = ClusterCost::new(64, NetworkTier::Wan).all_reduce_volume(n);
        assert!(hier.cross_volume(n) < flat_volume / 4.0);
    }

    #[test]
    fn wan_tier_is_latency_bound() {
        let wan = NetworkTier::Wan.cost();
        let ten = NetworkTier::TenGbE.cost();
        assert!(wan.alpha > 100.0 * ten.alpha);
        assert_eq!(NetworkTier::Wan.label(), "WAN");
    }

    #[test]
    fn calibration_fit_round_trips_through_cluster_cost() {
        // Samples generated from a ClusterCost, fitted by the telemetry
        // calibration, must reproduce that ClusterCost's predictions — the
        // fit and the simulator price collectives with the same formulas.
        use acp_telemetry::{fit_alpha_beta, CollectiveKind, CollectiveSample};
        let truth = ClusterCost::new(4, NetworkTier::TenGbE);
        let mut samples = Vec::new();
        for bytes in [16 * 1024usize, 256 * 1024, 4 * MB] {
            samples.push(CollectiveSample {
                kind: CollectiveKind::AllReduce,
                bytes: bytes as u64,
                seconds: truth.all_reduce_time(bytes),
            });
            samples.push(CollectiveSample {
                kind: CollectiveKind::AllGather,
                bytes: bytes as u64,
                seconds: truth.all_gather_time(bytes),
            });
        }
        let fit = fit_alpha_beta(4, &samples).unwrap();
        let fitted = ClusterCost::with_cost(4, AlphaBetaCost::from(fit));
        for bytes in [8 * 1024usize, MB, 64 * MB] {
            let (got, want) = (fitted.all_reduce_time(bytes), truth.all_reduce_time(bytes));
            assert!((got - want).abs() / want < 1e-6, "AR {got} vs {want}");
            let (got, want) = (fitted.all_gather_time(bytes), truth.all_gather_time(bytes));
            assert!((got - want).abs() / want < 1e-6, "AG {got} vs {want}");
        }
    }
}
