//! Experiment harness: regenerates every table and figure of the paper's
//! evaluation.
//!
//! Each `fig*` / `table*` function runs the corresponding experiment
//! end-to-end (simulated cluster for the timing results, real in-process
//! data-parallel training for the convergence results) and returns
//! structured data plus a formatted text rendering. The `figures` binary
//! exposes them from the command line:
//!
//! ```text
//! cargo run -p acp-bench --bin figures -- table3
//! cargo run -p acp-bench --bin figures -- all
//! cargo run -p acp-bench --bin figures -- fig6 --epochs 300
//! ```
//!
//! The per-experiment index mapping each function to the paper's table or
//! figure lives in `DESIGN.md`; `EXPERIMENTS.md` records paper-reported vs
//! measured values.

#![warn(missing_docs)]

pub mod convergence;
pub mod kernels;
pub mod statics;
pub mod table;
pub mod timing;

pub use table::TextTable;
