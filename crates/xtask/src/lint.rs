//! The repo-invariant lint pass behind `cargo xtask lint`.
//!
//! Six families of invariants, all enforced on the lexed *code* view
//! of each file (comments and string literals never trigger findings —
//! see [`crate::lexer`]):
//!
//! 1. **No panicking calls on communication paths.** `.unwrap(`,
//!    `.expect(`, `panic!` and `todo!` are banned in
//!    `crates/collectives/src`, `crates/compression/src`,
//!    `crates/core/src`, `crates/net/src` and `crates/serve/src`. A
//!    panicking rank looks like a peer failure to the rest of the
//!    group, so these paths must return `CommError` (or a
//!    structured `CompressError`) instead. Deliberate exceptions carry
//!    an `allow_verify(reason = "...")` marker comment on the same or
//!    the preceding line.
//! 2. **No wall-clock reads in the simulator.** `Instant::now` and
//!    `SystemTime` are banned in `crates/simulator/src`: simulated time
//!    must come from the event clock or results stop being reproducible.
//! 3. **Telemetry key pairing.** Every `COMM_*_US` key declared in
//!    `crates/telemetry/src/keys.rs` must have a `COMM_*_BYTES` sibling;
//!    the cost-model calibration joins the two series by index.
//! 4. **No raw rank arithmetic outside `acp-collectives`.** `rank + 1`,
//!    `rank - 1`, `rank % p` and friends are ring-schedule decisions;
//!    they belong to the topology/hierarchy layer of
//!    `crates/collectives`, where the schedule digest records them. Any
//!    other crate doing neighbour math by hand will silently disagree
//!    with the two-level schedule.
//! 5. **No fresh copies on the frame send path.** `.to_vec(` is banned
//!    in the frame writer, the TCP and in-process transports, the
//!    ring/hierarchy collectives and the aggregation service (session
//!    codec, client, server); `.clone(` is banned in the frame writer and
//!    the session codec. The wire path sends payloads vectored straight
//!    from bucket storage, the in-process path lends them, and a copy
//!    that creeps back in silently erases the win. The deliberate copies
//!    (the in-process transport's late-peer settle, the one conversion
//!    that hands a blocking call's payload to an already running comm
//!    worker, the sparse-send fallback) carry `allow_verify` markers.
//! 6. **No fresh `Vec` per received dense frame.** The receive side
//!    mirrors rule 5: dense payloads are read straight into the caller's
//!    storage. In the frame reader a byte staging buffer (`vec![0u8`) or
//!    a per-element decode (`.chunks_exact(`, `.collect(`) means the
//!    two-allocation owned decode is back; in the ring/hierarchy
//!    collectives an owned `.recv_from(` means a dense chunk arrives as
//!    a fresh `Vec` instead of through `exchange_*`. The receives that
//!    have no caller-side destination (barrier tokens, sparse sets)
//!    carry `allow_verify` markers.
//!
//! `#[cfg(test)]` blocks are excluded: tests may unwrap freely.

use std::fmt;
use std::path::{Path, PathBuf};

use crate::lexer::classify;

/// Marker comment that exempts the same or the next code line.
pub const ALLOW_MARKER: &str = "allow_verify(reason";

/// Scopes (directories) where panicking calls are banned.
pub const PANIC_FREE_DIRS: &[&str] = &[
    "crates/collectives/src",
    "crates/compression/src",
    "crates/core/src",
    "crates/net/src",
    "crates/serve/src",
];

/// Scopes where wall-clock reads are banned.
pub const CLOCK_FREE_DIRS: &[&str] = &["crates/simulator/src"];

/// Scopes where raw rank arithmetic is banned (every crate's `src` except
/// `crates/collectives`, which owns the ring schedules).
pub const RANK_MATH_DIRS: &[&str] = &[
    "crates/bench/src",
    "crates/compression/src",
    "crates/core/src",
    "crates/models/src",
    "crates/net/src",
    "crates/serve/src",
    "crates/simulator/src",
    "crates/telemetry/src",
    "crates/tensor/src",
    "crates/training/src",
    "crates/verify/src",
];

const PANIC_PATTERNS: &[&str] = &[".unwrap(", ".expect(", "panic!", "todo!"];
const CLOCK_PATTERNS: &[&str] = &["Instant::now", "SystemTime"];

/// Files on the zero-copy send path where fresh `.to_vec(` calls are
/// banned: payloads must travel as borrowed slices down to the vectored
/// writer or the in-process loan. The in-process late-peer settle and
/// the one conversion that copies a blocking call's payload across
/// threads once a comm worker runs carry `allow_verify` markers.
pub const WIRE_NO_TO_VEC_FILES: &[&str] = &[
    "crates/collectives/src/communicator.rs",
    "crates/collectives/src/hierarchy.rs",
    "crates/collectives/src/nonblocking.rs",
    "crates/collectives/src/ring.rs",
    "crates/net/src/frame.rs",
    "crates/net/src/tcp.rs",
    "crates/serve/src/client.rs",
    "crates/serve/src/server.rs",
    "crates/serve/src/wire.rs",
];

/// Files where `.clone(` is banned outright: the frame writer and the
/// service's session codec assemble headers in place and borrow payload
/// storage, so a clone there means a copy crept back onto the wire path.
pub const WIRE_NO_CLONE_FILES: &[&str] = &["crates/net/src/frame.rs", "crates/serve/src/wire.rs"];

/// The frame reader: a staging byte buffer or a per-element decode here
/// is the two-allocation owned receive creeping back.
pub const WIRE_READ_INTO_FILES: &[&str] = &["crates/net/src/frame.rs"];

/// Patterns of the staged, element-wise decode banned in
/// [`WIRE_READ_INTO_FILES`].
const STAGED_DECODE_PATTERNS: &[&str] = &["vec![0u8", ".chunks_exact(", ".collect("];

/// The collective algorithms: dense chunks are received into caller
/// storage through `Transport::exchange_*`, never as an owned message.
pub const WIRE_NO_OWNED_RECV_FILES: &[&str] = &[
    "crates/collectives/src/hierarchy.rs",
    "crates/collectives/src/ring.rs",
];

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Repo-relative path.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// What went wrong and what to do instead.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: {}", self.file, self.line, self.message)
    }
}

impl Finding {
    /// GitHub Actions annotation format.
    pub fn github(&self) -> String {
        format!(
            "::error file={},line={}::{}",
            self.file, self.line, self.message
        )
    }
}

/// Byte ranges of `#[cfg(test)]` blocks in the code view.
fn test_block_ranges(code: &str) -> Vec<(usize, usize)> {
    let mut ranges = Vec::new();
    let bytes = code.as_bytes();
    let mut from = 0;
    while let Some(pos) = code[from..].find("cfg(test)").map(|p| p + from) {
        from = pos + "cfg(test)".len();
        // The excluded block is the first `{ ... }` after the attribute;
        // a `;` first means the attribute gated an item with no body.
        let mut i = from;
        let start = loop {
            match bytes.get(i) {
                None | Some(b';') => break None,
                Some(b'{') => break Some(i),
                Some(_) => i += 1,
            }
        };
        let Some(start) = start else { continue };
        let mut depth = 0usize;
        let mut end = bytes.len();
        for (j, b) in bytes.iter().enumerate().skip(start) {
            match b {
                b'{' => depth += 1,
                b'}' => {
                    depth -= 1;
                    if depth == 0 {
                        end = j + 1;
                        break;
                    }
                }
                _ => {}
            }
        }
        ranges.push((start, end));
        from = from.max(start + 1);
    }
    ranges
}

fn line_starts(text: &str) -> Vec<usize> {
    let mut starts = vec![0];
    for (i, b) in text.bytes().enumerate() {
        if b == b'\n' {
            starts.push(i + 1);
        }
    }
    starts
}

/// Scans one file's source for banned patterns, honouring `cfg(test)`
/// exclusion and `allow_verify` markers.
pub fn scan_source(rel_path: &str, src: &str, patterns: &[&str], why: &str) -> Vec<Finding> {
    let classified = classify(src);
    let excluded = test_block_ranges(&classified.code);
    let comment_lines: Vec<&str> = classified.comments.lines().collect();
    let starts = line_starts(&classified.code);
    let mut findings = Vec::new();
    for (lineno, line) in classified.code.lines().enumerate() {
        let line_offset = starts[lineno];
        for pat in patterns {
            let mut from = 0;
            while let Some(col) = line[from..].find(pat).map(|c| c + from) {
                from = col + pat.len();
                let offset = line_offset + col;
                if excluded.iter().any(|(s, e)| offset >= *s && offset < *e) {
                    continue;
                }
                let allowed = comment_lines
                    .get(lineno)
                    .is_some_and(|l| l.contains(ALLOW_MARKER))
                    || (lineno > 0
                        && comment_lines
                            .get(lineno - 1)
                            .is_some_and(|l| l.contains(ALLOW_MARKER)));
                if allowed {
                    continue;
                }
                findings.push(Finding {
                    file: rel_path.to_string(),
                    line: lineno + 1,
                    message: format!(
                        "`{pat}` is banned here: {why} (annotate a deliberate exception with \
                         `// allow_verify(reason = \"...\")`)",
                        pat = pat.trim_end_matches('(')
                    ),
                });
            }
        }
    }
    findings
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Scans one file for arithmetic on a bare `rank` identifier (`rank + 1`,
/// `rank - 1`, `rank % p`, …), honouring `cfg(test)` exclusion and
/// `allow_verify` markers. Matches only the exact identifier `rank` — the
/// universal name for a schedule position — followed by `+`, `-` or `%`;
/// `*` is deliberately not matched (matrix-rank doubling in the autotuner
/// is `rank *= 2` and has nothing to do with schedule positions), and
/// `->` return arrows are not operators.
pub fn scan_rank_math(rel_path: &str, src: &str) -> Vec<Finding> {
    let classified = classify(src);
    let excluded = test_block_ranges(&classified.code);
    let comment_lines: Vec<&str> = classified.comments.lines().collect();
    let starts = line_starts(&classified.code);
    let mut findings = Vec::new();
    for (lineno, line) in classified.code.lines().enumerate() {
        let bytes = line.as_bytes();
        let mut from = 0;
        while let Some(col) = line[from..].find("rank").map(|c| c + from) {
            from = col + "rank".len();
            // Word boundaries: `virtual_rank`/`rank_id` are not `rank`.
            if col > 0 && is_ident_byte(bytes[col - 1]) {
                continue;
            }
            if bytes.get(from).copied().is_some_and(is_ident_byte) {
                continue;
            }
            let mut i = from;
            while bytes.get(i) == Some(&b' ') {
                i += 1;
            }
            let arithmetic = match bytes.get(i) {
                Some(b'+') | Some(b'%') => true,
                Some(b'-') => bytes.get(i + 1) != Some(&b'>'),
                _ => false,
            };
            if !arithmetic {
                continue;
            }
            let offset = starts[lineno] + col;
            if excluded.iter().any(|(s, e)| offset >= *s && offset < *e) {
                continue;
            }
            let allowed = comment_lines
                .get(lineno)
                .is_some_and(|l| l.contains(ALLOW_MARKER))
                || (lineno > 0
                    && comment_lines
                        .get(lineno - 1)
                        .is_some_and(|l| l.contains(ALLOW_MARKER)));
            if allowed {
                continue;
            }
            findings.push(Finding {
                file: rel_path.to_string(),
                line: lineno + 1,
                message: "raw rank arithmetic is banned outside `crates/collectives`: \
                          neighbour/offset math is a ring-schedule decision owned by the \
                          topology layer (annotate a deliberate exception with \
                          `// allow_verify(reason = \"...\")`)"
                    .to_string(),
            });
        }
    }
    findings
}

/// Checks that every `COMM_*_US` key in `keys.rs` has a `COMM_*_BYTES`
/// sibling.
pub fn scan_key_pairing(rel_path: &str, src: &str) -> Vec<Finding> {
    let classified = classify(src);
    let mut names: Vec<(String, usize)> = Vec::new();
    for (lineno, line) in classified.code.lines().enumerate() {
        if let Some(rest) = line.trim_start().strip_prefix("pub const ") {
            if let Some(name) = rest.split(':').next() {
                names.push((name.trim().to_string(), lineno + 1));
            }
        }
    }
    let mut findings = Vec::new();
    for (name, lineno) in &names {
        if let Some(stem) = name
            .strip_prefix("COMM_")
            .and_then(|n| n.strip_suffix("_US"))
        {
            let sibling = format!("COMM_{stem}_BYTES");
            if !names.iter().any(|(n, _)| n == &sibling) {
                findings.push(Finding {
                    file: rel_path.to_string(),
                    line: *lineno,
                    message: format!(
                        "timing key `{name}` has no `{sibling}` sibling: every COMM_*_US series \
                         must be recorded index-parallel with a byte series"
                    ),
                });
            }
        }
    }
    findings
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            rust_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn rel(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Runs every lint over the workspace rooted at `root`.
///
/// # Errors
///
/// I/O errors reading the tree (missing scopes are reported as findings,
/// not errors, so a refactor that moves a linted directory fails loudly).
pub fn run(root: &Path) -> std::io::Result<Vec<Finding>> {
    let mut findings = Vec::new();
    let mut scan_scope = |dirs: &[&str], files: &[&str], patterns: &[&str], why: &str| {
        let mut paths: Vec<PathBuf> = Vec::new();
        for dir in dirs {
            let abs = root.join(dir);
            if abs.is_dir() {
                if let Err(e) = rust_files(&abs, &mut paths) {
                    findings.push(Finding {
                        file: (*dir).to_string(),
                        line: 1,
                        message: format!("cannot walk linted scope: {e}"),
                    });
                }
            } else {
                findings.push(Finding {
                    file: (*dir).to_string(),
                    line: 1,
                    message: "linted scope does not exist; update crates/xtask/src/lint.rs"
                        .to_string(),
                });
            }
        }
        for file in files {
            let abs = root.join(file);
            if abs.is_file() {
                paths.push(abs);
            } else {
                findings.push(Finding {
                    file: (*file).to_string(),
                    line: 1,
                    message: "linted file does not exist; update crates/xtask/src/lint.rs"
                        .to_string(),
                });
            }
        }
        for path in paths {
            match std::fs::read_to_string(&path) {
                Ok(src) => findings.extend(scan_source(&rel(root, &path), &src, patterns, why)),
                Err(e) => findings.push(Finding {
                    file: rel(root, &path),
                    line: 1,
                    message: format!("cannot read: {e}"),
                }),
            }
        }
    };
    scan_scope(
        PANIC_FREE_DIRS,
        &[],
        PANIC_PATTERNS,
        "communication paths must surface failures as CommError, not panics \
         (a panicking rank looks like a peer failure to the group)",
    );
    scan_scope(
        CLOCK_FREE_DIRS,
        &[],
        CLOCK_PATTERNS,
        "the simulator must take time from its event clock, not the wall clock, \
         or results stop being reproducible",
    );
    scan_scope(
        &[],
        WIRE_NO_TO_VEC_FILES,
        &[".to_vec("],
        "the frame send path is zero-copy: payloads travel as borrowed slices \
         into the vectored writer, never through a fresh allocation",
    );
    scan_scope(
        &[],
        WIRE_READ_INTO_FILES,
        STAGED_DECODE_PATTERNS,
        "the frame reader fills the destination's own bytes with one read_exact \
         (one allocation on the owned path, none on the read-into path); a staging \
         buffer or per-element decode doubles the receive cost",
    );
    scan_scope(
        &[],
        WIRE_NO_OWNED_RECV_FILES,
        &[".recv_from("],
        "dense chunks are received straight into caller storage through \
         Transport::exchange_*; an owned receive is a fresh Vec per frame",
    );
    scan_scope(
        &[],
        WIRE_NO_CLONE_FILES,
        &[".clone("],
        "the frame writer borrows payload storage; a clone here reintroduces \
         the per-frame copy the vectored path exists to remove",
    );
    for dir in RANK_MATH_DIRS {
        let abs = root.join(dir);
        if !abs.is_dir() {
            findings.push(Finding {
                file: (*dir).to_string(),
                line: 1,
                message: "linted scope does not exist; update crates/xtask/src/lint.rs".to_string(),
            });
            continue;
        }
        let mut paths = Vec::new();
        if let Err(e) = rust_files(&abs, &mut paths) {
            findings.push(Finding {
                file: (*dir).to_string(),
                line: 1,
                message: format!("cannot walk linted scope: {e}"),
            });
        }
        for path in paths {
            match std::fs::read_to_string(&path) {
                Ok(src) => findings.extend(scan_rank_math(&rel(root, &path), &src)),
                Err(e) => findings.push(Finding {
                    file: rel(root, &path),
                    line: 1,
                    message: format!("cannot read: {e}"),
                }),
            }
        }
    }
    let keys = root.join("crates/telemetry/src/keys.rs");
    match std::fs::read_to_string(&keys) {
        Ok(src) => findings.extend(scan_key_pairing(&rel(root, &keys), &src)),
        Err(e) => findings.push(Finding {
            file: "crates/telemetry/src/keys.rs".to_string(),
            line: 1,
            message: format!("cannot read telemetry keys: {e}"),
        }),
    }
    findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(findings)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bare_unwrap_is_flagged() {
        let src = "fn f() { some().unwrap(); }\n";
        let f = scan_source("x.rs", src, &[".unwrap("], "why");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 1);
        assert!(f[0].message.contains("`.unwrap`"), "{}", f[0].message);
    }

    #[test]
    fn unwrap_in_comment_or_string_is_ignored() {
        let src = "// calls .unwrap() somewhere\nfn f() { let m = \".unwrap(\"; }\n";
        assert!(scan_source("x.rs", src, &[".unwrap("], "why").is_empty());
    }

    #[test]
    fn allow_marker_on_preceding_line_suppresses() {
        let src = "fn f() {\n    // allow_verify(reason = \"startup only\")\n    some().expect(\"x\");\n}\n";
        assert!(scan_source("x.rs", src, &[".expect("], "why").is_empty());
    }

    #[test]
    fn allow_marker_on_same_line_suppresses() {
        let src = "fn f() { some().unwrap(); } // allow_verify(reason = \"test helper\")\n";
        assert!(scan_source("x.rs", src, &[".unwrap("], "why").is_empty());
    }

    #[test]
    fn marker_does_not_leak_to_later_lines() {
        let src = "// allow_verify(reason = \"one line only\")\na().unwrap();\nb().unwrap();\n";
        let f = scan_source("x.rs", src, &[".unwrap("], "why");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn cfg_test_blocks_are_excluded() {
        let src = "fn f() {}\n#[cfg(test)]\nmod tests {\n    fn g() { x().unwrap(); }\n}\n";
        assert!(scan_source("x.rs", src, &[".unwrap("], "why").is_empty());
    }

    #[test]
    fn code_after_a_test_block_is_still_linted() {
        let src = "#[cfg(test)]\nmod tests {\n    fn g() { x().unwrap(); }\n}\nfn h() { y().unwrap(); }\n";
        let f = scan_source("x.rs", src, &[".unwrap("], "why");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 5);
    }

    #[test]
    fn staged_decode_and_owned_dense_receive_are_flagged() {
        let staged = "fn read_f32s(r: &mut R, n: usize) -> Vec<f32> {\n    \
                      let mut bytes = vec![0u8; n * 4];\n    \
                      bytes.chunks_exact(4).map(dec).collect()\n}\n";
        let f = scan_source("frame.rs", staged, STAGED_DECODE_PATTERNS, "why");
        assert_eq!(f.len(), 3);
        let filled = "fn read_f32s(r: &mut R, n: usize) -> Vec<f32> {\n    \
                      let mut vals = vec![0.0f32; n];\n    fill_f32s(r, &mut vals)\n}\n";
        assert!(scan_source("frame.rs", filled, STAGED_DECODE_PATTERNS, "why").is_empty());
        let owned = "fn step(t: &mut T) { let incoming = t.recv_from(prev)?; }\n";
        assert_eq!(
            scan_source("ring.rs", owned, &[".recv_from("], "why").len(),
            1
        );
        let decl = "fn recv_from(&mut self, src: usize) -> Result<WireMsg, CommError>;\n";
        assert!(scan_source("ring.rs", decl, &[".recv_from("], "why").is_empty());
    }

    #[test]
    fn the_served_data_path_is_scanned_for_copies() {
        // The three staging sites the service shipped with, the worker
        // shell's op-buffer copy-in and the in-process transport's old
        // copy-on-send — each a payload-sized copy per collective — must
        // stay findings, in files that stay on the lists.
        for (file, line, list, pattern) in [
            (
                "crates/serve/src/client.rs",
                "let payload = WireMsg::F32(buf.to_vec());\n",
                WIRE_NO_TO_VEC_FILES,
                ".to_vec(",
            ),
            (
                "crates/serve/src/server.rs",
                "let views = contributions.iter().map(|c| c.to_vec());\n",
                WIRE_NO_TO_VEC_FILES,
                ".to_vec(",
            ),
            (
                "crates/serve/src/wire.rs",
                "buf.extend_from_slice(&encode(&Frame::Msg(payload.clone())));\n",
                WIRE_NO_CLONE_FILES,
                ".clone(",
            ),
            (
                "crates/collectives/src/nonblocking.rs",
                "let out = self.run_op(op(buf.to_vec()))?.into_f32()?;\n",
                WIRE_NO_TO_VEC_FILES,
                ".to_vec(",
            ),
            (
                "crates/collectives/src/communicator.rs",
                "self.send_to(dest, WireMsg::F32(payload.to_vec()))\n",
                WIRE_NO_TO_VEC_FILES,
                ".to_vec(",
            ),
        ] {
            assert!(list.contains(&file), "{file} fell off its wire-copy list");
            assert_eq!(scan_source(file, line, &[pattern], "why").len(), 1);
        }
        assert!(WIRE_NO_TO_VEC_FILES.contains(&"crates/serve/src/wire.rs"));
    }

    #[test]
    fn rank_neighbour_math_is_flagged() {
        let src = "fn f(rank: usize, p: usize) { let next = (rank + 1) % p; }\n";
        let f = scan_rank_math("x.rs", src);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("topology layer"), "{}", f[0].message);
        let src = "fn f(rank: usize, p: usize) { let prev = (rank + p - 1) % p; }\n";
        assert_eq!(scan_rank_math("x.rs", src).len(), 1);
        let src = "fn f(rank: usize, p: usize) { let r = rank % p; }\n";
        assert_eq!(scan_rank_math("x.rs", src).len(), 1);
    }

    #[test]
    fn rank_math_respects_word_boundaries_and_arrows() {
        // `words_per_rank + i` is not arithmetic on a rank identifier.
        let src = "fn f(words_per_rank: usize, i: usize) { let w = words_per_rank + i; }\n";
        assert!(scan_rank_math("x.rs", src).is_empty());
        // Return arrows are not subtraction; plain reads are fine.
        let src = "fn rank(&self) -> usize { self.rank }\n";
        assert!(scan_rank_math("x.rs", src).is_empty());
        // Matrix-rank doubling in the autotuner is not schedule math.
        let src = "fn g(mut rank: usize) { rank *= 2; }\n";
        assert!(scan_rank_math("x.rs", src).is_empty());
    }

    #[test]
    fn rank_math_honours_allow_marker_and_test_blocks() {
        let src = "// allow_verify(reason = \"physical wiring\")\nlet n = (rank + 1) % p;\n";
        assert!(scan_rank_math("x.rs", src).is_empty());
        let src = "#[cfg(test)]\nmod tests {\n    fn g(rank: usize) { let _ = rank + 1; }\n}\n";
        assert!(scan_rank_math("x.rs", src).is_empty());
    }

    #[test]
    fn the_codecs_are_scanned_for_panics() {
        // Every codec runs on each rank's communication path.
        let file = "crates/core/src/signsgd.rs";
        assert!(
            PANIC_FREE_DIRS
                .iter()
                .any(|dir| file.starts_with(&format!("{dir}/"))),
            "{file} fell out of the panic-free scope"
        );
        let src = "fn decode(r: Vec<CollectiveResult>) { r.into_iter().next().unwrap(); }\n";
        assert_eq!(scan_source(file, src, PANIC_PATTERNS, "why").len(), 1);
    }

    #[test]
    fn paired_keys_pass_unpaired_fail() {
        let good = "pub const COMM_X_US: &str = \"a\";\npub const COMM_X_BYTES: &str = \"b\";\n";
        assert!(scan_key_pairing("keys.rs", good).is_empty());
        let bad = "pub const COMM_Y_US: &str = \"a\";\n";
        let f = scan_key_pairing("keys.rs", bad);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("COMM_Y_BYTES"), "{}", f[0].message);
    }

    #[test]
    fn github_format_is_annotation_shaped() {
        let f = Finding {
            file: "crates/net/src/tcp.rs".to_string(),
            line: 42,
            message: "nope".to_string(),
        };
        assert_eq!(
            f.github(),
            "::error file=crates/net/src/tcp.rs,line=42::nope"
        );
    }

    #[test]
    fn the_real_tree_is_clean() {
        // The lint must pass on the workspace it ships in — this is the
        // tree-level regression test. CARGO_MANIFEST_DIR is
        // crates/xtask, two levels below the root.
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .expect("workspace root");
        let findings = run(root).expect("lint runs");
        assert!(
            findings.is_empty(),
            "repo-invariant lint found violations:\n{}",
            findings
                .iter()
                .map(|f| f.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}
