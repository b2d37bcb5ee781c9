//! The `.sched` trace format and the offline `check-trace` replay.
//!
//! A trace is one rank's recorded collective schedule plus the dispatch
//! and wait counts from its telemetry, in a line-oriented text format
//! built for diffing and hand-inspection:
//!
//! ```text
//! acp-sched v1
//! rank 0
//! world 3
//! dispatched 3
//! waited 3
//! op 0 all_reduce words=1024 param=0 digest=f00dfeedcafe0001
//! op 1 all_reduce words=512 param=0 digest=f00dfeedcafe0002
//! op 2 barrier words=0 param=0 digest=f00dfeedcafe0003
//! end seq=3 digest=f00dfeedcafe0003
//! ```
//!
//! Parsing *replays* the log: the rolling digest is recomputed from the
//! op fingerprints with [`digest_step`] and compared against every
//! recorded `digest=` field and the `end` line, so a corrupt or edited
//! trace fails to parse instead of silently passing the cross-check.
//! (Window-truncated traces — logs recorded in always-on digest mode —
//! skip the replay for the ops that fell out of the window.)

use std::fmt;

use acp_collectives::schedule::digest_step;
use acp_collectives::{OpKind, ScheduleEntry, SchedulePoint, ScheduleSnapshot};

use crate::schedule_check::{check_schedules, Divergence};

/// Magic first line of a `.sched` trace.
pub const TRACE_HEADER: &str = "acp-sched v1";

/// One rank's recorded schedule, as written to / read from a `.sched`
/// trace file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceFile {
    /// Rank the trace was recorded on.
    pub rank: usize,
    /// World size of the run.
    pub world: usize,
    /// Collectives dispatched (bucket dispatch spans recorded).
    pub dispatched: u64,
    /// Dispatches waited on (bucket wait spans recorded). A shortfall
    /// means a `PendingOp` was started but never waited.
    pub waited: u64,
    /// The recorded schedule.
    pub snapshot: ScheduleSnapshot,
}

/// Why a trace failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// The first line was not [`TRACE_HEADER`].
    BadHeader(String),
    /// A line could not be parsed; carries the 1-based line number.
    BadLine(usize, String),
    /// A required field (`rank`, `world`, `end`) was missing.
    MissingField(&'static str),
    /// The recomputed rolling digest disagreed with a recorded one; the
    /// trace is corrupt or was edited.
    DigestMismatch {
        /// Schedule position of the inconsistent record, or `u64::MAX`
        /// for the `end` line.
        seq: u64,
        /// Digest recomputed from the fingerprints.
        computed: u64,
        /// Digest recorded in the file.
        recorded: u64,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::BadHeader(got) => {
                write!(
                    f,
                    "not an acp-sched trace (first line {got:?}, expected {TRACE_HEADER:?})"
                )
            }
            TraceError::BadLine(no, line) => write!(f, "line {no}: cannot parse {line:?}"),
            TraceError::MissingField(name) => write!(f, "missing `{name}` line"),
            TraceError::DigestMismatch {
                seq,
                computed,
                recorded,
            } => {
                if *seq == u64::MAX {
                    write!(
                        f,
                        "end digest {recorded:016x} does not match the replayed log ({computed:016x}); the trace is corrupt"
                    )
                } else {
                    write!(
                        f,
                        "op {seq}: recorded digest {recorded:016x} does not match the replayed fingerprints ({computed:016x}); the trace is corrupt"
                    )
                }
            }
        }
    }
}

impl std::error::Error for TraceError {}

/// The kind `Display` spells as `name`.
fn kind_from_name(name: &str) -> Option<OpKind> {
    (0..=u8::MAX)
        .filter_map(OpKind::from_code)
        .find(|kind| kind.to_string() == name)
}

/// Serialises a trace to the `.sched` text format.
pub fn write_trace(trace: &TraceFile) -> String {
    let mut out = String::new();
    out.push_str(TRACE_HEADER);
    out.push('\n');
    out.push_str(&format!("rank {}\n", trace.rank));
    out.push_str(&format!("world {}\n", trace.world));
    out.push_str(&format!("dispatched {}\n", trace.dispatched));
    out.push_str(&format!("waited {}\n", trace.waited));
    for e in &trace.snapshot.entries {
        out.push_str(&format!(
            "op {} {} words={} param={} digest={:016x}\n",
            e.point.seq, e.point.kind, e.point.words, e.point.param, e.digest
        ));
    }
    out.push_str(&format!(
        "end seq={} digest={:016x}\n",
        trace.snapshot.seq, trace.snapshot.digest
    ));
    out
}

fn field<'a>(token: &'a str, key: &str, no: usize, line: &str) -> Result<&'a str, TraceError> {
    token
        .strip_prefix(key)
        .and_then(|t| t.strip_prefix('='))
        .ok_or_else(|| TraceError::BadLine(no, line.to_string()))
}

/// Parses a `.sched` trace, replaying the digest chain (see the module
/// docs).
///
/// # Errors
///
/// [`TraceError`] on malformed input or when the recorded digests do not
/// match the replayed fingerprints.
pub fn parse_trace(text: &str) -> Result<TraceFile, TraceError> {
    let mut lines = text.lines().enumerate();
    let (_, header) = lines
        .next()
        .ok_or_else(|| TraceError::BadHeader(String::new()))?;
    if header.trim() != TRACE_HEADER {
        return Err(TraceError::BadHeader(header.to_string()));
    }
    let mut rank = None;
    let mut world = None;
    let mut dispatched = 0u64;
    let mut waited = 0u64;
    let mut entries: Vec<ScheduleEntry> = Vec::new();
    let mut end: Option<(u64, u64)> = None;
    for (idx, raw) in lines {
        let no = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let bad = || TraceError::BadLine(no, line.to_string());
        let mut tokens = line.split_whitespace();
        match tokens.next() {
            Some("rank") => {
                rank = Some(tokens.next().and_then(|t| t.parse().ok()).ok_or_else(bad)?);
            }
            Some("world") => {
                world = Some(tokens.next().and_then(|t| t.parse().ok()).ok_or_else(bad)?);
            }
            Some("dispatched") => {
                dispatched = tokens.next().and_then(|t| t.parse().ok()).ok_or_else(bad)?;
            }
            Some("waited") => {
                waited = tokens.next().and_then(|t| t.parse().ok()).ok_or_else(bad)?;
            }
            Some("op") => {
                let seq: u64 = tokens.next().and_then(|t| t.parse().ok()).ok_or_else(bad)?;
                let kind = tokens.next().and_then(kind_from_name).ok_or_else(bad)?;
                let words: u64 = field(tokens.next().ok_or_else(bad)?, "words", no, line)?
                    .parse()
                    .map_err(|_| bad())?;
                let param: u64 = field(tokens.next().ok_or_else(bad)?, "param", no, line)?
                    .parse()
                    .map_err(|_| bad())?;
                let digest = u64::from_str_radix(
                    field(tokens.next().ok_or_else(bad)?, "digest", no, line)?,
                    16,
                )
                .map_err(|_| bad())?;
                entries.push(ScheduleEntry {
                    point: SchedulePoint {
                        seq,
                        kind,
                        words,
                        param,
                    },
                    digest,
                });
            }
            Some("end") => {
                let seq: u64 = field(tokens.next().ok_or_else(bad)?, "seq", no, line)?
                    .parse()
                    .map_err(|_| bad())?;
                let digest = u64::from_str_radix(
                    field(tokens.next().ok_or_else(bad)?, "digest", no, line)?,
                    16,
                )
                .map_err(|_| bad())?;
                end = Some((seq, digest));
            }
            _ => return Err(bad()),
        }
    }
    let rank = rank.ok_or(TraceError::MissingField("rank"))?;
    let world = world.ok_or(TraceError::MissingField("world"))?;
    let (seq, digest) = end.ok_or(TraceError::MissingField("end"))?;

    // Replay: a full log (starting at op 0) must reproduce every recorded
    // digest and the end digest. A window-truncated log can only be
    // chain-checked between consecutive retained entries.
    let full = entries.first().is_some_and(|e| e.point.seq == 0);
    if full {
        let mut rolling = 0u64;
        for e in &entries {
            rolling = digest_step(rolling, e.point.kind, e.point.words, e.point.param);
            if rolling != e.digest {
                return Err(TraceError::DigestMismatch {
                    seq: e.point.seq,
                    computed: rolling,
                    recorded: e.digest,
                });
            }
        }
        if entries.len() as u64 == seq && rolling != digest {
            return Err(TraceError::DigestMismatch {
                seq: u64::MAX,
                computed: rolling,
                recorded: digest,
            });
        }
    } else {
        for pair in entries.windows(2) {
            let (prev, next) = (&pair[0], &pair[1]);
            if next.point.seq != prev.point.seq + 1 {
                continue;
            }
            let computed = digest_step(
                prev.digest,
                next.point.kind,
                next.point.words,
                next.point.param,
            );
            if computed != next.digest {
                return Err(TraceError::DigestMismatch {
                    seq: next.point.seq,
                    computed,
                    recorded: next.digest,
                });
            }
        }
    }

    Ok(TraceFile {
        rank,
        world,
        dispatched,
        waited,
        snapshot: ScheduleSnapshot {
            seq,
            digest,
            entries,
        },
    })
}

/// A problem found by replaying a set of per-rank traces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceFinding {
    /// Traces disagree on the world size, or a rank appears twice /
    /// out of range.
    InconsistentGroup(String),
    /// A rank dispatched more collectives than it waited on: a
    /// `PendingOp` was started but never waited.
    MissingWaits {
        /// The offending rank.
        rank: usize,
        /// Collectives dispatched.
        dispatched: u64,
        /// Dispatches waited on.
        waited: u64,
    },
    /// The schedules diverge; see [`Divergence`].
    Diverged(Divergence),
}

impl fmt::Display for TraceFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceFinding::InconsistentGroup(msg) => write!(f, "inconsistent trace set: {msg}"),
            TraceFinding::MissingWaits {
                rank,
                dispatched,
                waited,
            } => write!(
                f,
                "rank {rank} dispatched {dispatched} collective(s) but waited on only {waited}: \
                 a PendingOp was started and never waited"
            ),
            TraceFinding::Diverged(d) => d.fmt(f),
        }
    }
}

/// Replays a set of per-rank traces and reports every problem found:
/// group inconsistencies, missing waits, and the first cross-rank
/// schedule divergence.
pub fn check_traces(traces: &[TraceFile]) -> Vec<TraceFinding> {
    let mut findings = Vec::new();
    if traces.is_empty() {
        return findings;
    }
    let world = traces[0].world;
    let mut seen = vec![false; world];
    for t in traces {
        if t.world != world {
            findings.push(TraceFinding::InconsistentGroup(format!(
                "rank {} was recorded with world {} but rank {} with world {}",
                traces[0].rank, world, t.rank, t.world
            )));
            return findings;
        }
        if t.rank >= world || std::mem::replace(&mut seen[t.rank], true) {
            findings.push(TraceFinding::InconsistentGroup(format!(
                "rank {} out of range or duplicated (world {})",
                t.rank, world
            )));
            return findings;
        }
    }
    for t in traces {
        if t.waited < t.dispatched {
            findings.push(TraceFinding::MissingWaits {
                rank: t.rank,
                dispatched: t.dispatched,
                waited: t.waited,
            });
        }
    }
    let mut schedules: Vec<(usize, ScheduleSnapshot)> = traces
        .iter()
        .map(|t| (t.rank, t.snapshot.clone()))
        .collect();
    schedules.sort_by_key(|(rank, _)| *rank);
    if let Err(d) = check_schedules(&schedules) {
        findings.push(TraceFinding::Diverged(d));
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule_check::DivergenceKind;

    fn trace(rank: usize, ops: &[(OpKind, u64, u64)]) -> TraceFile {
        let mut digest = 0u64;
        let mut entries = Vec::new();
        for (i, (kind, words, param)) in ops.iter().enumerate() {
            digest = digest_step(digest, *kind, *words, *param);
            entries.push(ScheduleEntry {
                point: SchedulePoint {
                    seq: i as u64,
                    kind: *kind,
                    words: *words,
                    param: *param,
                },
                digest,
            });
        }
        TraceFile {
            rank,
            world: 3,
            dispatched: ops.len() as u64,
            waited: ops.len() as u64,
            snapshot: ScheduleSnapshot {
                seq: ops.len() as u64,
                digest,
                entries,
            },
        }
    }

    const OPS: &[(OpKind, u64, u64)] = &[
        (OpKind::AllReduce, 1024, 0),
        (OpKind::GlobalTopk, 0, 32),
        (OpKind::Barrier, 0, 0),
    ];

    #[test]
    fn traces_roundtrip() {
        let t = trace(1, OPS);
        let text = write_trace(&t);
        let parsed = parse_trace(&text).unwrap();
        assert_eq!(parsed, t);
    }

    #[test]
    fn corrupt_digest_is_rejected() {
        let t = trace(0, OPS);
        let text = write_trace(&t);
        // Flip a digest hex digit on the op 1 line.
        let tampered: String = text
            .lines()
            .map(|l| {
                if l.starts_with("op 1") {
                    match l.strip_suffix('0') {
                        Some(head) => format!("{head}1"),
                        None => format!("{}0", &l[..l.len() - 1]),
                    }
                } else {
                    l.to_string()
                }
            })
            .collect::<Vec<_>>()
            .join("\n");
        let err = parse_trace(&tampered).unwrap_err();
        assert!(
            matches!(err, TraceError::DigestMismatch { seq: 1, .. }),
            "{err}"
        );
        assert!(err.to_string().contains("corrupt"), "{err}");
    }

    #[test]
    fn tampered_op_line_is_rejected_by_replay() {
        let t = trace(0, OPS);
        let text = write_trace(&t).replace("words=1024", "words=1025");
        let err = parse_trace(&text).unwrap_err();
        assert!(matches!(err, TraceError::DigestMismatch { .. }), "{err}");
    }

    #[test]
    fn missing_header_is_rejected() {
        assert!(matches!(
            parse_trace("rank 0\n"),
            Err(TraceError::BadHeader(_))
        ));
    }

    #[test]
    fn aligned_traces_have_no_findings() {
        let traces = vec![trace(0, OPS), trace(1, OPS), trace(2, OPS)];
        assert!(check_traces(&traces).is_empty());
    }

    #[test]
    fn skipped_bucket_is_reported_as_divergence() {
        let mut short = OPS.to_vec();
        short.remove(1);
        let traces = vec![trace(0, OPS), trace(1, &short), trace(2, OPS)];
        let findings = check_traces(&traces);
        assert_eq!(findings.len(), 1, "{findings:?}");
        match &findings[0] {
            TraceFinding::Diverged(d) => {
                assert_eq!(d.seq, 1);
                assert_eq!(d.ranks, (0, 1));
            }
            other => panic!("wrong finding: {other}"),
        }
    }

    #[test]
    fn unwaited_dispatch_is_reported() {
        let mut t1 = trace(1, OPS);
        t1.waited = 2;
        let traces = vec![trace(0, OPS), t1, trace(2, OPS)];
        let findings = check_traces(&traces);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(
            matches!(
                findings[0],
                TraceFinding::MissingWaits {
                    rank: 1,
                    dispatched: 3,
                    waited: 2
                }
            ),
            "{findings:?}"
        );
        assert!(findings[0].to_string().contains("never waited"));
    }

    #[test]
    fn fusion_divergence_is_classified() {
        let a = trace(0, &[(OpKind::AllReduce, 1024, 0)]);
        let b = trace(1, &[(OpKind::AllReduce, 512, 0)]);
        let findings = check_traces(&[a, b]);
        match &findings[..] {
            [TraceFinding::Diverged(d)] => assert_eq!(d.kind, DivergenceKind::FusionPlan),
            other => panic!("wrong findings: {other:?}"),
        }
    }

    #[test]
    fn world_disagreement_is_reported() {
        let mut b = trace(1, OPS);
        b.world = 4;
        let findings = check_traces(&[trace(0, OPS), b]);
        assert!(
            matches!(&findings[..], [TraceFinding::InconsistentGroup(_)]),
            "{findings:?}"
        );
    }
}
