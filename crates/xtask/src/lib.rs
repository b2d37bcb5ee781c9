//! Workspace automation library behind the `cargo xtask` binary.
//!
//! Two passes share the [`lexer`]:
//!
//! - [`lint`] — token-level repo invariants (`cargo xtask lint`): banned
//!   patterns on comm paths, wall-clock reads in the simulator, telemetry
//!   key pairing, rank arithmetic, wire-path copies.
//! - [`analyze`] — interprocedural semantic analysis
//!   (`cargo xtask analyze`): a conservative whole-workspace call graph
//!   feeding panic-reachability, lock-order, blocking-under-lock and
//!   must-wait linearity checks that the token lexer cannot express.
//!
//! Exposed as a library so the analyzer's fixture tests
//! (`tests/analyze_fixtures.rs`) can run each pass in-process against a
//! seeded miniature workspace.

pub mod analyze;
pub mod lexer;
pub mod lint;
