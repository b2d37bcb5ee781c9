//! Collective-schedule tracing and cross-rank verification.
//!
//! Mismatched collective schedules are the classic silent failure of
//! SPMD communication stacks: when one rank fuses its buckets differently,
//! skips a collective, or lets ACP-SGD's P/Q alternation desynchronize, an
//! MPI/NCCL program either deadlocks or — worse — reduces unrelated
//! payloads that happen to have the same shape. This module pins the
//! schedule down mechanically:
//!
//! * **Always on**: every collective executed by a worker-backed
//!   communicator advances a per-rank [`ScheduleTracer`] — a sequence
//!   number, a rolling FNV-1a digest of `(op kind, element count,
//!   parameter)` fingerprints, and a bounded window of recent
//!   [`ScheduleEntry`]s. Cost: one hash step and one ring-buffer push per
//!   *collective* (not per message), invisible next to the collective
//!   itself. Snapshots are exposed through
//!   [`Communicator::schedule`](crate::Communicator::schedule).
//! * **[`VerifyMode::CrossCheck`]**: every wire message additionally
//!   carries a [`ScheduleTag`] naming the sender's current position in its
//!   schedule. The receiver compares the tag against its own position at
//!   delivery time and raises
//!   [`CommError::ScheduleMismatch`](crate::CommError::ScheduleMismatch)
//!   naming the **first divergent collective** — within the op's own
//!   deadline, long before a peer timeout, and instead of a misleading
//!   `ProtocolMismatch` or a silent wrong result. Tag bytes are excluded
//!   from the Table II volume accounting (like barrier tokens), so byte
//!   reconciliation tests hold in both modes.
//!
//! The offline half lives in `acp-verify`: recorded [`ScheduleEntry`] logs
//! can be exported and replayed by `acp-verify check-trace`, which
//! statically pinpoints divergences across ranks without re-running the
//! job.

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// How many recent [`ScheduleEntry`]s the always-on window retains.
pub const SCHEDULE_WINDOW: usize = 64;

/// Environment variable selecting the [`VerifyMode`] for communicators
/// that consult the environment (the TCP backend's `TcpConfig::local`,
/// multi-process launches). `1`/`cross`/`full` enable
/// [`VerifyMode::CrossCheck`]; unset/`0`/`digest` keep the default.
pub const ENV_VERIFY_SCHEDULE: &str = "ACP_VERIFY_SCHEDULE";

/// How much schedule verification a communicator performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VerifyMode {
    /// Record the rolling digest and window only (always-on baseline; no
    /// wire-format change, no cross-rank checking).
    #[default]
    Digest,
    /// Additionally tag every wire message with the sender's schedule
    /// position and verify tags at delivery, raising `ScheduleMismatch`
    /// at the first divergent collective. Also retains the *full*
    /// schedule log for export to `acp-verify check-trace`.
    CrossCheck,
}

impl VerifyMode {
    /// Reads [`ENV_VERIFY_SCHEDULE`]. Unset, `0`, `off` and `digest` map
    /// to [`VerifyMode::Digest`]; `1`, `cross`, `crosscheck` and `full`
    /// map to [`VerifyMode::CrossCheck`]; anything else falls back to
    /// `Digest` (verification is a diagnostic — a typo must not change
    /// collective semantics mid-fleet).
    pub fn from_env() -> VerifyMode {
        match std::env::var(ENV_VERIFY_SCHEDULE) {
            Ok(v) => match v.to_ascii_lowercase().as_str() {
                "1" | "cross" | "crosscheck" | "full" => VerifyMode::CrossCheck,
                _ => VerifyMode::Digest,
            },
            Err(_) => VerifyMode::Digest,
        }
    }
}

/// The kind of a collective operation, as fingerprinted by the tracer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Ring all-reduce.
    AllReduce,
    /// Recursive-doubling all-reduce.
    AllReduceRd,
    /// `f32` all-gather.
    AllGatherF32,
    /// `u32` all-gather.
    AllGatherU32,
    /// Broadcast (parameter = root).
    Broadcast,
    /// Sparse gTop-k all-reduce (parameter = k; element counts are
    /// legitimately rank-dependent and excluded from the fingerprint).
    GlobalTopk,
    /// Pairwise exchange.
    SendRecv,
    /// Barrier.
    Barrier,
    /// Topology declaration (parameter = [`Topology::fingerprint`]): a
    /// two-level group records its arrangement as schedule op 0, so a flat
    /// and a hierarchical schedule over the same collectives can never
    /// digest-collide. Flat groups record nothing (the flat ring is the
    /// implicit default), keeping existing flat traces stable.
    ///
    /// [`Topology::fingerprint`]: crate::Topology::fingerprint
    Topology,
    /// Membership reform (words = survivor count, parameter =
    /// [`membership_param`]): recorded by `reform()` so the re-derived
    /// schedule digest provably agrees across survivors — and stays
    /// replayable by `acp-verify check-trace`, which recomputes the chain
    /// from op fingerprints.
    Reform,
}

impl OpKind {
    /// Stable wire encoding of the kind.
    pub fn code(self) -> u8 {
        match self {
            OpKind::AllReduce => 1,
            OpKind::AllReduceRd => 2,
            OpKind::AllGatherF32 => 3,
            OpKind::AllGatherU32 => 4,
            OpKind::Broadcast => 5,
            OpKind::GlobalTopk => 6,
            OpKind::SendRecv => 7,
            OpKind::Barrier => 8,
            OpKind::Topology => 9,
            OpKind::Reform => 10,
        }
    }

    /// Decodes [`OpKind::code`]; `None` for unknown codes (a corrupt or
    /// future-version tag).
    pub fn from_code(code: u8) -> Option<OpKind> {
        Some(match code {
            1 => OpKind::AllReduce,
            2 => OpKind::AllReduceRd,
            3 => OpKind::AllGatherF32,
            4 => OpKind::AllGatherU32,
            5 => OpKind::Broadcast,
            6 => OpKind::GlobalTopk,
            7 => OpKind::SendRecv,
            8 => OpKind::Barrier,
            9 => OpKind::Topology,
            10 => OpKind::Reform,
            _ => return None,
        })
    }
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            OpKind::AllReduce => "all_reduce",
            OpKind::AllReduceRd => "all_reduce_rd",
            OpKind::AllGatherF32 => "all_gather_f32",
            OpKind::AllGatherU32 => "all_gather_u32",
            OpKind::Broadcast => "broadcast",
            OpKind::GlobalTopk => "global_topk",
            OpKind::SendRecv => "send_recv",
            OpKind::Barrier => "barrier",
            OpKind::Topology => "topology",
            OpKind::Reform => "reform",
        };
        f.write_str(name)
    }
}

/// One rank's position in its collective schedule: the fingerprint of a
/// single collective plus where it sits in the sequence.
///
/// `words` is the payload element count every rank must agree on (buffer
/// length for all-reduce/broadcast, per-rank contribution for all-gather,
/// 0 where counts are legitimately rank-dependent); `param` carries the
/// op's shape-relevant argument (reduce operator, broadcast root, top-k).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedulePoint {
    /// 0-based index of the collective in this rank's schedule.
    pub seq: u64,
    /// Collective kind.
    pub kind: OpKind,
    /// Fingerprinted element count.
    pub words: u64,
    /// Fingerprinted operation parameter.
    pub param: u64,
}

impl fmt::Display for SchedulePoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "#{} {}(words={}, param={})",
            self.seq, self.kind, self.words, self.param
        )
    }
}

/// One recorded collective, as kept in the tracer's window/log and
/// replayed by `acp-verify check-trace`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduleEntry {
    /// Where the collective sits in the schedule and what it was.
    pub point: SchedulePoint,
    /// Rolling digest *after* folding this collective in.
    pub digest: u64,
}

/// The tag a [`VerifyMode::CrossCheck`] sender attaches to every wire
/// message: its current schedule position plus the digest of everything
/// *before* the current collective.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduleTag {
    /// The sender's current collective.
    pub point: SchedulePoint,
    /// The sender's rolling digest before this collective.
    pub pre_digest: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Folds one collective fingerprint into a rolling digest.
pub fn digest_step(prev: u64, kind: OpKind, words: u64, param: u64) -> u64 {
    let mut h = fnv1a(FNV_OFFSET, &prev.to_le_bytes());
    h = fnv1a(h, &[kind.code()]);
    h = fnv1a(h, &words.to_le_bytes());
    fnv1a(h, &param.to_le_bytes())
}

/// A point-in-time copy of one rank's schedule state, read through
/// [`Communicator::schedule`](crate::Communicator::schedule).
#[derive(Debug, Clone, PartialEq, Eq)]
#[must_use]
pub struct ScheduleSnapshot {
    /// Number of collectives recorded so far.
    pub seq: u64,
    /// Rolling digest over all recorded collectives.
    pub digest: u64,
    /// Recent entries: the last [`SCHEDULE_WINDOW`] in [`VerifyMode::Digest`],
    /// the complete log in [`VerifyMode::CrossCheck`].
    pub entries: Vec<ScheduleEntry>,
}

/// Shared schedule state: written by the transport (possibly from the comm
/// worker thread), readable from the owning communicator handle.
#[derive(Debug, Default)]
pub struct ScheduleCell {
    seq: AtomicU64,
    digest: AtomicU64,
    window: Mutex<VecDeque<ScheduleEntry>>,
    /// Complete log, populated only in [`VerifyMode::CrossCheck`].
    log: Mutex<Vec<ScheduleEntry>>,
}

/// Domain separator of [`membership_param`] fingerprints.
const FOLD_MEMBERSHIP: u8 = 0xA2;

/// Fingerprint parameter of an [`OpKind::Reform`] schedule op: folds the
/// new epoch and the sorted surviving physical ranks. Two survivors fold
/// the same parameter exactly when they agree on *who* survived and how
/// many times the group has re-formed — so the post-reform digests agree
/// iff the memberships do.
pub fn membership_param(epoch: u64, survivors: &[usize]) -> u64 {
    let mut h = fnv1a(FNV_OFFSET, &[FOLD_MEMBERSHIP]);
    h = fnv1a(h, &epoch.to_le_bytes());
    for &r in survivors {
        h = fnv1a(h, &(r as u64).to_le_bytes());
    }
    h
}

impl ScheduleCell {
    /// The current rolling digest.
    pub fn digest(&self) -> u64 {
        self.digest.load(Ordering::SeqCst)
    }

    /// A point-in-time copy of the recorded schedule. `full` selects the
    /// complete log (cross-check mode) over the bounded window.
    pub fn snapshot(&self, full: bool) -> ScheduleSnapshot {
        let entries = if full {
            // A poisoned lock only means a worker panicked mid-record; the
            // entries already pushed are still sound for diagnosis.
            self.log.lock().unwrap_or_else(|e| e.into_inner()).clone()
        } else {
            self.window
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .iter()
                .copied()
                .collect()
        };
        ScheduleSnapshot {
            seq: self.seq.load(Ordering::SeqCst),
            digest: self.digest.load(Ordering::SeqCst),
            entries,
        }
    }
}

/// Per-rank schedule recorder owned by a transport.
///
/// [`begin_op`](ScheduleTracer::begin_op) is called once per collective by
/// the shared execution path; [`tag`](ScheduleTracer::tag) and
/// [`check`](ScheduleTracer::check) implement the cross-check protocol on
/// the transport's send/receive paths.
#[derive(Debug)]
pub struct ScheduleTracer {
    mode: VerifyMode,
    cell: Arc<ScheduleCell>,
    /// Digest before the current collective (what outgoing tags carry).
    pre_digest: u64,
    /// The collective currently executing, if any.
    current: Option<SchedulePoint>,
}

impl ScheduleTracer {
    /// Creates a tracer recording into `cell`.
    pub fn new(mode: VerifyMode, cell: Arc<ScheduleCell>) -> Self {
        ScheduleTracer {
            mode,
            cell,
            pre_digest: 0,
            current: None,
        }
    }

    /// A tracer with private state, for tests and standalone transports.
    pub fn detached(mode: VerifyMode) -> Self {
        ScheduleTracer::new(mode, Arc::new(ScheduleCell::default()))
    }

    /// The configured verification mode.
    pub fn mode(&self) -> VerifyMode {
        self.mode
    }

    /// The rolling digest after the most recently recorded op.
    pub fn digest(&self) -> u64 {
        self.cell.digest()
    }

    /// Records the start of one collective: assigns it the next sequence
    /// number, folds its fingerprint into the rolling digest, and appends
    /// it to the window (and, in cross-check mode, the full log). Returns
    /// the op's schedule position.
    pub fn begin_op(&mut self, kind: OpKind, words: u64, param: u64) -> SchedulePoint {
        let seq = self.cell.seq.fetch_add(1, Ordering::SeqCst);
        self.pre_digest = self.cell.digest.load(Ordering::SeqCst);
        let digest = digest_step(self.pre_digest, kind, words, param);
        self.cell.digest.store(digest, Ordering::SeqCst);
        let point = SchedulePoint {
            seq,
            kind,
            words,
            param,
        };
        self.current = Some(point);
        let entry = ScheduleEntry { point, digest };
        {
            let mut window = self.cell.window.lock().unwrap_or_else(|e| e.into_inner());
            if window.len() == SCHEDULE_WINDOW {
                window.pop_front();
            }
            window.push_back(entry);
        }
        if self.mode == VerifyMode::CrossCheck {
            self.cell
                .log
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(entry);
        }
        point
    }

    /// The tag outgoing messages should carry, or `None` when tagging is
    /// off (digest-only mode, or no collective running — e.g. a transport
    /// driven point-to-point by diagnostics).
    pub fn tag(&self) -> Option<ScheduleTag> {
        if self.mode != VerifyMode::CrossCheck {
            return None;
        }
        self.current.map(|point| ScheduleTag {
            point,
            pre_digest: self.pre_digest,
        })
    }

    /// Verifies a received tag against this rank's current collective.
    ///
    /// Delivery-time checking is what makes this sound with pipelined comm
    /// workers: per-peer message order is FIFO, and a rank consumes
    /// exactly the messages of its current collective, so an aligned
    /// schedule always delivers matching tags — any mismatch is a real
    /// divergence, reported as the first divergent collective.
    ///
    /// # Errors
    ///
    /// Returns [`crate::CommError::ScheduleMismatch`] when the tag
    /// disagrees with the local schedule position.
    pub fn check(&self, tag: &ScheduleTag) -> Result<(), crate::CommError> {
        if self.mode != VerifyMode::CrossCheck {
            return Ok(());
        }
        let Some(local) = self.current else {
            // No collective running locally: a tagged message can only
            // mean the peer is mid-collective while we are not.
            return Err(crate::CommError::ScheduleMismatch {
                seq: tag.point.seq,
                local: None,
                peer: tag.point,
            });
        };
        let aligned = local == tag.point && self.pre_digest == tag.pre_digest;
        if aligned {
            return Ok(());
        }
        Err(crate::CommError::ScheduleMismatch {
            seq: local.seq.min(tag.point.seq),
            local: Some(local),
            peer: tag.point,
        })
    }
}

/// Strips (and in cross-check mode verifies) a schedule tag at delivery
/// time — the moment a message is handed to the collective algorithm, which
/// is when the receiver's own schedule position is the one the sender's
/// must match. Checking earlier (at inbox receipt) would false-positive: a
/// FIFO comm worker legitimately buffers a peer's *next* collective's
/// messages while still finishing the current one; per-(sender, receiver)
/// FIFO ordering is what makes the delivery-time check sound.
///
/// Untagged messages pass through unchecked, so a cross-check rank
/// degrades gracefully against digest-only peers (all ranks of a group
/// should still run the same [`VerifyMode`]).
///
/// # Errors
///
/// Propagates [`crate::CommError::ScheduleMismatch`] from
/// [`ScheduleTracer::check`].
pub fn deliver_checked(
    tracer: &ScheduleTracer,
    msg: crate::WireMsg,
) -> Result<crate::WireMsg, crate::CommError> {
    match msg {
        crate::WireMsg::Tagged(tag, inner) => {
            tracer.check(&tag)?;
            Ok(*inner)
        }
        other => Ok(other),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_order_sensitive() {
        let a = digest_step(
            digest_step(0, OpKind::AllReduce, 8, 0),
            OpKind::Barrier,
            0,
            0,
        );
        let b = digest_step(
            digest_step(0, OpKind::Barrier, 0, 0),
            OpKind::AllReduce,
            8,
            0,
        );
        assert_ne!(a, b);
    }

    #[test]
    fn digest_distinguishes_words_and_param() {
        let base = digest_step(0, OpKind::AllReduce, 8, 0);
        assert_ne!(base, digest_step(0, OpKind::AllReduce, 9, 0));
        assert_ne!(base, digest_step(0, OpKind::AllReduce, 8, 1));
        assert_ne!(base, digest_step(0, OpKind::AllGatherF32, 8, 0));
    }

    #[test]
    fn tracer_records_window_and_sequence() {
        let mut t = ScheduleTracer::detached(VerifyMode::Digest);
        for i in 0..(SCHEDULE_WINDOW + 5) {
            t.begin_op(OpKind::AllReduce, i as u64, 0);
        }
        let snap = t.cell.snapshot(false);
        assert_eq!(snap.seq, (SCHEDULE_WINDOW + 5) as u64);
        assert_eq!(snap.entries.len(), SCHEDULE_WINDOW);
        assert_eq!(snap.entries[0].point.seq, 5);
        // Digest-only mode does not grow the full log.
        assert!(t.cell.snapshot(true).entries.is_empty());
    }

    #[test]
    fn cross_check_mode_keeps_the_full_log() {
        let mut t = ScheduleTracer::detached(VerifyMode::CrossCheck);
        for _ in 0..3 {
            t.begin_op(OpKind::Barrier, 0, 0);
        }
        assert_eq!(t.cell.snapshot(true).entries.len(), 3);
    }

    #[test]
    fn matching_tags_pass_and_divergent_tags_fail() {
        let mut a = ScheduleTracer::detached(VerifyMode::CrossCheck);
        let mut b = ScheduleTracer::detached(VerifyMode::CrossCheck);
        a.begin_op(OpKind::AllReduce, 16, 0);
        b.begin_op(OpKind::AllReduce, 16, 0);
        let tag = a.tag().expect("cross-check mode tags");
        b.check(&tag).expect("aligned schedules");
        // b runs an extra collective; a's next tag now trails b's seq.
        b.begin_op(OpKind::Barrier, 0, 0);
        a.begin_op(OpKind::Barrier, 0, 0);
        a.begin_op(OpKind::Barrier, 0, 0);
        let err = b.check(&a.tag().expect("tag")).unwrap_err();
        match err {
            crate::CommError::ScheduleMismatch { seq, .. } => assert_eq!(seq, 1),
            other => panic!("wrong error: {other:?}"),
        }
    }

    #[test]
    fn digest_mode_never_tags() {
        let mut t = ScheduleTracer::detached(VerifyMode::Digest);
        t.begin_op(OpKind::AllReduce, 4, 0);
        assert!(t.tag().is_none());
    }
}
