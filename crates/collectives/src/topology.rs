//! Topology and membership: which ranks exist and how they are arranged.
//!
//! The paper's testbed is a flat 8–32-GPU ring, and until this module the
//! whole stack hard-wired that assumption: ranks were bare `usize`s and the
//! only schedule was one ring over `0..world`. Pricing worlds of 128–1024
//! ranks (ROADMAP north star) needs the NCCL-style two-level schedule —
//! reduce-scatter inside a group, cross-group all-reduce of the owned
//! chunks, all-gather back out — which trades `2(p−1)` latency terms on the
//! slow links for `2(G−1)` cross-group plus `2(s−1)` intra-group ones.
//!
//! This module owns the vocabulary for that:
//!
//! * [`RankId`] / [`GroupId`] — newtypes so rank arithmetic cannot be
//!   silently mixed with element counts (a `cargo xtask lint` rule bans raw
//!   `usize` rank arithmetic outside this crate);
//! * [`Topology`] — flat ring vs. [`Topology::TwoLevel`], built by
//!   [`Topology::flat`], [`Topology::two_level`] or [`Topology::grouped`]
//!   with a validated `groups × group_size` factorization;
//! * [`Membership`] — the *elastic* part: an epoch plus the sorted physical
//!   ranks still present. When a rank dies mid-collective the communicator
//!   surfaces [`CommError::MembershipChanged`] and `reform()` rebuilds the
//!   ring from the survivors, bumping the epoch and folding the new
//!   membership into the schedule digest so re-formed schedules provably
//!   agree (see `DESIGN.md` §"Topology & membership");
//! * [`GroupView`] — one rank's group state (physical and virtual rank,
//!   membership, topology) and the one reform transition between views,
//!   shared by every backend and the communicator shell.

use std::fmt;

use crate::communicator::CommError;

/// A rank's identity within a group, distinct from buffer lengths and
/// other `usize`s by construction.
///
/// After a [`Membership`] reform this is the *virtual* rank — the position
/// in the surviving ring — which may differ from the physical rank the
/// process was launched with.
// The derived `PartialOrd` delegates to `usize` — a total order, so the
// float-comparator ban does not apply.
#[allow(clippy::disallowed_methods)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RankId(pub usize);

impl RankId {
    /// The underlying index, for interop with APIs that still take `usize`.
    pub fn as_usize(self) -> usize {
        self.0
    }
}

impl fmt::Display for RankId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rank{}", self.0)
    }
}

impl From<usize> for RankId {
    fn from(r: usize) -> Self {
        RankId(r)
    }
}

/// A group's identity within a [`Topology::TwoLevel`] arrangement.
// Total order on `usize`, as for `RankId`.
#[allow(clippy::disallowed_methods)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GroupId(pub usize);

impl GroupId {
    /// The underlying index.
    pub fn as_usize(self) -> usize {
        self.0
    }
}

impl fmt::Display for GroupId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "group{}", self.0)
    }
}

impl From<usize> for GroupId {
    fn from(g: usize) -> Self {
        GroupId(g)
    }
}

/// How the ranks of a group are arranged for collective scheduling.
///
/// Construct with [`Topology::flat`], [`Topology::two_level`] or
/// [`Topology::grouped`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Topology {
    /// One ring over all ranks — the paper's testbed layout.
    Flat {
        /// Number of ranks.
        world: usize,
    },
    /// `groups` rings of `group_size` ranks each, reduced hierarchically:
    /// intra-group reduce-scatter, cross-group all-reduce of the owned
    /// chunk, intra-group all-gather. Rank `r` belongs to group
    /// `r / group_size` at position `r % group_size`.
    TwoLevel {
        /// Number of groups (the outer ring).
        groups: usize,
        /// Ranks per group (the inner rings).
        group_size: usize,
    },
}

impl Topology {
    /// A flat ring over `world` ranks.
    pub fn flat(world: usize) -> Topology {
        Topology::Flat { world }
    }

    /// A validated two-level arrangement of `groups × group_size` ranks.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::EmptyGroup`] when either factor is zero.
    pub fn two_level(groups: usize, group_size: usize) -> Result<Topology, TopologyError> {
        if groups == 0 || group_size == 0 {
            return Err(TopologyError::EmptyGroup { groups, group_size });
        }
        Ok(if groups == 1 {
            // One group of everything *is* a flat ring; normalizing here
            // keeps fingerprints and dispatch canonical.
            Topology::Flat { world: group_size }
        } else {
            Topology::TwoLevel { groups, group_size }
        })
    }

    /// Splits `world` ranks into `groups` equal groups.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::IndivisibleWorld`] when `world` is not a
    /// multiple of `groups`, or [`TopologyError::EmptyGroup`] on zeroes.
    pub fn grouped(world: usize, groups: usize) -> Result<Topology, TopologyError> {
        if groups == 0 || world == 0 {
            return Err(TopologyError::EmptyGroup {
                groups,
                group_size: world,
            });
        }
        if !world.is_multiple_of(groups) {
            return Err(TopologyError::IndivisibleWorld { world, groups });
        }
        Topology::two_level(groups, world / groups)
    }

    /// Total number of ranks.
    pub fn world_size(&self) -> usize {
        match *self {
            Topology::Flat { world } => world,
            Topology::TwoLevel { groups, group_size } => groups * group_size,
        }
    }

    /// Number of groups (1 for a flat ring).
    pub fn groups(&self) -> usize {
        match *self {
            Topology::Flat { .. } => 1,
            Topology::TwoLevel { groups, .. } => groups,
        }
    }

    /// Ranks per group (the whole world for a flat ring).
    pub fn group_size(&self) -> usize {
        match *self {
            Topology::Flat { world } => world,
            Topology::TwoLevel { group_size, .. } => group_size,
        }
    }

    /// Whether this is a single flat ring.
    pub fn is_flat(&self) -> bool {
        matches!(self, Topology::Flat { .. })
    }

    /// The group containing `rank`.
    pub fn group_of(&self, rank: RankId) -> GroupId {
        GroupId(rank.0 / self.group_size())
    }

    /// `rank`'s position within its group's inner ring.
    pub fn position_in_group(&self, rank: RankId) -> usize {
        rank.0 % self.group_size()
    }

    /// The rank at `position` within `group`.
    pub fn rank_at(&self, group: GroupId, position: usize) -> RankId {
        RankId(group.0 * self.group_size() + position)
    }

    /// A stable fingerprint of the arrangement, folded into schedule
    /// digests so a flat and a two-level schedule over the same world can
    /// never be confused by the verifier.
    pub fn fingerprint(&self) -> u64 {
        match *self {
            Topology::Flat { world } => 0x01u64 ^ (world as u64) << 8,
            Topology::TwoLevel { groups, group_size } => {
                0x02u64 ^ (groups as u64) << 8 ^ (group_size as u64) << 32
            }
        }
    }
}

impl fmt::Display for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Topology::Flat { world } => write!(f, "flat ring of {world}"),
            Topology::TwoLevel { groups, group_size } => {
                write!(f, "{groups} groups \u{d7} {group_size} ranks")
            }
        }
    }
}

/// Why a [`Topology`] could not be constructed. Structured (not a panic)
/// so launchers can report inconsistent group specs to the operator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// A zero group count or group size.
    EmptyGroup {
        /// Requested group count.
        groups: usize,
        /// Requested group size.
        group_size: usize,
    },
    /// `world` ranks cannot be split into `groups` equal groups.
    IndivisibleWorld {
        /// Total ranks.
        world: usize,
        /// Requested group count.
        groups: usize,
    },
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::EmptyGroup { groups, group_size } => write!(
                f,
                "topology must have at least one group and one rank per group \
                 (got {groups} groups \u{d7} {group_size})"
            ),
            TopologyError::IndivisibleWorld { world, groups } => write!(
                f,
                "world size {world} is not divisible into {groups} equal groups"
            ),
        }
    }
}

impl std::error::Error for TopologyError {}

/// The set of physical ranks currently participating, plus the reform
/// epoch. Epoch 0 is the launch membership `0..world`; every successful
/// `reform()` removes the departed ranks and bumps the epoch.
///
/// Virtual rank (ring position) is the index into [`ranks`](Membership::ranks);
/// physical rank is the identity a process was launched with. They
/// coincide until the first reform.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Membership {
    epoch: u64,
    ranks: Vec<usize>,
}

impl Membership {
    /// The launch membership: epoch 0, ranks `0..world`.
    pub fn initial(world: usize) -> Membership {
        Membership {
            epoch: 0,
            ranks: (0..world).collect(),
        }
    }

    /// Reform epoch: how many times the group has re-formed.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The physical ranks still present, sorted ascending.
    pub fn ranks(&self) -> &[usize] {
        &self.ranks
    }

    /// Number of surviving ranks.
    pub fn world_size(&self) -> usize {
        self.ranks.len()
    }

    /// Whether `physical` is still a member.
    pub fn contains(&self, physical: usize) -> bool {
        self.ranks.binary_search(&physical).is_ok()
    }

    /// The virtual (ring) rank of a physical rank, if still present.
    pub fn virtual_rank_of(&self, physical: usize) -> Option<RankId> {
        self.ranks.binary_search(&physical).ok().map(RankId)
    }

    /// The physical rank at virtual position `virt`, if in range.
    pub fn physical_rank_of(&self, virt: RankId) -> Option<usize> {
        self.ranks.get(virt.0).copied()
    }

    /// The membership after `departed` leave: survivors only, epoch + 1.
    pub fn without(&self, departed: &[usize]) -> Membership {
        Membership {
            epoch: self.epoch + 1,
            ranks: self
                .ranks
                .iter()
                .copied()
                .filter(|r| !departed.contains(r))
                .collect(),
        }
    }
}

impl fmt::Display for Membership {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "epoch {} with {} ranks {:?}",
            self.epoch,
            self.ranks.len(),
            self.ranks
        )
    }
}

/// One rank's view of its group: its physical rank, its virtual (ring)
/// rank, the membership and the arrangement collectives are scheduled
/// over.
///
/// Every backend's transport and the communicator shell hold one. A
/// reform replaces it whole — [`GroupView::reformed`] after peers depart,
/// [`GroupView::adopt`] when an aggregation service announces the
/// survivors — and those two are the only places the virtual rank and
/// the topology are re-derived.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupView {
    /// The identity this rank was launched with, stable across reforms.
    physical: usize,
    /// Position of `physical` in the membership, cached so the ring hot
    /// path never searches for it.
    rank: usize,
    membership: Membership,
    topology: Topology,
}

impl GroupView {
    /// The launch view of `physical` in `topology`: epoch 0, every rank a
    /// member, virtual rank equal to physical rank.
    pub fn initial(physical: usize, topology: Topology) -> GroupView {
        GroupView {
            physical,
            rank: physical,
            membership: Membership::initial(topology.world_size()),
            topology,
        }
    }

    /// The physical rank: the identity the membership lists.
    pub fn physical(&self) -> usize {
        self.physical
    }

    /// The virtual (ring) rank: this rank's position among the members.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of members.
    pub fn world_size(&self) -> usize {
        self.membership.world_size()
    }

    /// Reform epoch.
    pub fn epoch(&self) -> u64 {
        self.membership.epoch()
    }

    /// The members' physical ranks, ascending: the virtual → physical map.
    pub fn members(&self) -> &[usize] {
        self.membership.ranks()
    }

    /// The membership: epoch plus members.
    pub fn membership(&self) -> &Membership {
        &self.membership
    }

    /// The arrangement collectives are scheduled over.
    pub fn topology(&self) -> Topology {
        self.topology
    }

    /// The view after `departed` leave: the survivors of
    /// [`Membership::without`] at the next epoch, this rank's position
    /// among them, and one flat ring over them (the old arrangement no
    /// longer matches the survivors).
    ///
    /// # Errors
    ///
    /// Returns [`CommError::Io`] when this rank is itself among `departed`
    /// or is not among the survivors.
    pub fn reformed(&self, departed: &[usize]) -> Result<GroupView, CommError> {
        if departed.contains(&self.physical) {
            return Err(CommError::Io(format!(
                "rank {} was declared departed and cannot reform",
                self.physical
            )));
        }
        self.over(self.membership.without(departed)).ok_or_else(|| {
            CommError::Io(format!("rank {} is not among the survivors", self.physical))
        })
    }

    /// The view of a membership an aggregation service announced, checked
    /// before any of it is adopted: virtual rank is the index in
    /// `members`, so the list must be strictly ascending, and it must hold
    /// this rank.
    ///
    /// # Errors
    ///
    /// Returns [`CommError::ProtocolMismatch`] for a list that is out of
    /// order, repeats a rank or lacks this one.
    pub fn adopt(&self, epoch: u64, members: Vec<usize>) -> Result<GroupView, CommError> {
        if !members.windows(2).all(|pair| pair[0] < pair[1]) {
            return Err(CommError::ProtocolMismatch);
        }
        self.over(Membership {
            epoch,
            ranks: members,
        })
        .ok_or(CommError::ProtocolMismatch)
    }

    /// This rank's view of `membership` as one flat ring, or `None` when
    /// it is not a member.
    fn over(&self, membership: Membership) -> Option<GroupView> {
        let rank = membership.virtual_rank_of(self.physical)?.as_usize();
        Some(GroupView {
            physical: self.physical,
            rank,
            topology: Topology::flat(membership.world_size()),
            membership,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_topology_has_one_group() {
        let t = Topology::flat(8);
        assert_eq!(t.world_size(), 8);
        assert_eq!(t.groups(), 1);
        assert_eq!(t.group_size(), 8);
        assert!(t.is_flat());
        assert_eq!(t.group_of(RankId(5)), GroupId(0));
    }

    #[test]
    fn two_level_index_math_round_trips() {
        let t = Topology::two_level(2, 4).unwrap();
        assert_eq!(t.world_size(), 8);
        for r in 0..8 {
            let rank = RankId(r);
            let g = t.group_of(rank);
            let j = t.position_in_group(rank);
            assert_eq!(t.rank_at(g, j), rank);
        }
        assert_eq!(t.group_of(RankId(5)), GroupId(1));
        assert_eq!(t.position_in_group(RankId(5)), 1);
    }

    #[test]
    fn one_group_normalizes_to_flat() {
        assert!(Topology::two_level(1, 4).unwrap().is_flat());
        assert!(Topology::grouped(4, 1).unwrap().is_flat());
    }

    #[test]
    fn grouped_rejects_indivisible_world() {
        assert_eq!(
            Topology::grouped(7, 2),
            Err(TopologyError::IndivisibleWorld {
                world: 7,
                groups: 2
            })
        );
        assert!(Topology::grouped(0, 2).is_err());
        assert!(Topology::two_level(2, 0).is_err());
    }

    #[test]
    fn fingerprints_distinguish_arrangements() {
        let flat = Topology::flat(8).fingerprint();
        let two = Topology::two_level(2, 4).unwrap().fingerprint();
        let four = Topology::two_level(4, 2).unwrap().fingerprint();
        assert_ne!(flat, two);
        assert_ne!(two, four);
        assert_ne!(flat, Topology::flat(9).fingerprint());
    }

    #[test]
    fn membership_reform_removes_departed_and_bumps_epoch() {
        let m = Membership::initial(4);
        assert_eq!(m.epoch(), 0);
        assert_eq!(m.ranks(), &[0, 1, 2, 3]);
        let m2 = m.without(&[2]);
        assert_eq!(m2.epoch(), 1);
        assert_eq!(m2.ranks(), &[0, 1, 3]);
        assert!(!m2.contains(2));
        assert_eq!(m2.virtual_rank_of(3), Some(RankId(2)));
        assert_eq!(m2.physical_rank_of(RankId(2)), Some(3));
        assert_eq!(m2.virtual_rank_of(2), None);
    }

    #[test]
    fn display_formats_are_stable() {
        assert_eq!(RankId(3).to_string(), "rank3");
        assert_eq!(GroupId(1).to_string(), "group1");
        assert!(Topology::two_level(2, 4)
            .unwrap()
            .to_string()
            .contains("2 groups"));
    }

    #[test]
    fn reformed_view_collapses_a_two_level_group() {
        let view = GroupView::initial(5, Topology::two_level(2, 4).unwrap());
        assert_eq!((view.rank(), view.world_size(), view.epoch()), (5, 8, 0));
        let next = view.reformed(&[1, 6]).unwrap();
        assert_eq!(next.members(), &[0, 2, 3, 4, 5, 7]);
        assert_eq!((next.physical(), next.rank(), next.epoch()), (5, 4, 1));
        assert_eq!(next.topology(), Topology::flat(6));
        assert_eq!(next.membership(), &view.membership().without(&[1, 6]));
    }

    #[test]
    fn reformed_view_refuses_a_departed_rank() {
        let view = GroupView::initial(2, Topology::flat(4));
        assert!(matches!(view.reformed(&[2]), Err(CommError::Io(_))));
        assert!(matches!(view.reformed(&[0, 2]), Err(CommError::Io(_))));
        // A view that no longer lists its own rank has no slot to reform to.
        let orphan = GroupView::initial(4, Topology::flat(4));
        assert!(matches!(orphan.reformed(&[0]), Err(CommError::Io(_))));
    }

    #[test]
    fn adopt_checks_the_announced_members() {
        let view = GroupView::initial(1, Topology::flat(3));
        let next = view.adopt(4, vec![1, 2]).unwrap();
        assert_eq!((next.rank(), next.world_size(), next.epoch()), (0, 2, 4));
        assert_eq!(next.topology(), Topology::flat(2));
        for bad in [vec![2, 1], vec![1, 1, 2], vec![0, 2], vec![]] {
            assert_eq!(
                view.adopt(1, bad.clone()),
                Err(CommError::ProtocolMismatch),
                "{bad:?}"
            );
        }
    }

    use proptest::prelude::*;

    /// The physical ranks set in `mask`, ascending.
    fn ranks_of(mask: u32) -> Vec<usize> {
        (0..32).filter(|r| mask & (1 << r) != 0).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// From any membership, a reform around any departure set bumps
        /// the epoch by one, keeps the survivors in order, puts this rank
        /// at its position among them and flattens the topology — or
        /// fails when this rank is among the departed.
        #[test]
        fn reformed_view_follows_the_survivors(
            launch in 1usize..17,
            pick in 0usize..16,
            kept in 0u32..0xffff,
            gone in 0u32..0xffff,
            reforms in 0usize..3,
        ) {
            let physical = pick % launch;
            let mut view = GroupView::initial(physical, Topology::flat(launch));
            for _ in 0..reforms {
                let departed: Vec<usize> = ranks_of(!kept & 0xffff)
                    .into_iter()
                    .filter(|&r| r != physical)
                    .collect();
                view = view.reformed(&departed).unwrap();
            }
            let departed = ranks_of(gone);
            match view.reformed(&departed) {
                Err(err) => {
                    prop_assert!(departed.contains(&physical), "{err}");
                }
                Ok(next) => {
                    prop_assert!(!departed.contains(&physical));
                    prop_assert_eq!(next.epoch(), view.epoch() + 1);
                    let survivors: Vec<usize> = view
                        .members()
                        .iter()
                        .copied()
                        .filter(|r| !departed.contains(r))
                        .collect();
                    prop_assert_eq!(next.members(), &survivors[..]);
                    prop_assert_eq!(next.members()[next.rank()], physical);
                    prop_assert_eq!(next.physical(), physical);
                    prop_assert_eq!(next.topology(), Topology::flat(survivors.len()));
                }
            }
        }

        /// `adopt` takes exactly the strictly ascending lists that hold
        /// this rank.
        #[test]
        fn adopt_takes_only_sorted_lists_with_this_rank(
            pick in 0usize..8,
            members in proptest::collection::vec(0usize..8, 0..8),
            epoch in 0u64..5,
        ) {
            let view = GroupView::initial(pick, Topology::flat(8));
            let valid = members.windows(2).all(|p| p[0] < p[1]) && members.contains(&pick);
            match view.adopt(epoch, members.clone()) {
                Ok(next) => {
                    prop_assert!(valid, "{:?} adopted", members);
                    prop_assert_eq!(next.members(), &members[..]);
                    prop_assert_eq!(next.members()[next.rank()], pick);
                    prop_assert_eq!(next.epoch(), epoch);
                    prop_assert!(next.topology().is_flat());
                }
                Err(err) => {
                    prop_assert!(!valid, "{:?} refused", members);
                    prop_assert_eq!(err, CommError::ProtocolMismatch);
                }
            }
        }
    }
}
