//! Gradient compression algorithms for distributed deep learning.
//!
//! Implements every compression method the paper evaluates or proposes:
//!
//! | Method | Module | Category | Aggregation |
//! |---|---|---|---|
//! | Sign-SGD (majority vote) | [`sign`] | quantization (32×) | all-gather |
//! | Top-k SGD | [`topk`] | sparsification (up to 1000×) | all-gather |
//! | Power-SGD | [`powersgd`] | low-rank | 2 × all-reduce (blocking) |
//! | **ACP-SGD** | [`acp`] | low-rank | 1 × all-reduce (non-blocking) |
//!
//! The one-shot element-wise methods implement the [`Compressor`] trait and
//! produce self-describing [`Payload`]s with byte-accurate wire accounting
//! (the numbers behind Tables I–II). The low-rank methods are *stepwise*
//! state machines ([`powersgd::PowerSgd`], [`acp::AcpSgd`]), configured by
//! one [`powersgd::LowRankConfig`], whose explicit
//! `compress → (collective) → finish` phases let a distributed optimizer
//! interleave real communication exactly where the paper's Algorithms 1–2
//! place it.
//!
//! # Examples
//!
//! One step of ACP-SGD on a single worker (the all-reduce is an identity):
//!
//! ```
//! use acp_compression::acp::{AcpSgd, AcpSgdConfig};
//! use acp_tensor::{Matrix, SeedableStdNormal};
//!
//! let grad = Matrix::random_std_normal(16, 8, 1);
//! let mut acp = AcpSgd::new(16, 8, AcpSgdConfig { rank: 4, ..Default::default() });
//! let factor = acp.compress(&grad);         // P on odd steps, Q on even
//! let approx = acp.finish(factor.clone());  // world size 1: reduce = identity
//! assert_eq!(approx.rows(), 16);
//! assert_eq!(approx.cols(), 8);
//! ```

#![warn(missing_docs)]

pub mod acp;
pub mod compressor;
pub mod error;
pub mod error_feedback;
pub mod kernels;
pub mod payload;
pub mod powersgd;
pub mod sign;
pub mod topk;

pub use compressor::Compressor;
pub use error::CompressError;
pub use error_feedback::ErrorFeedback;
pub use payload::Payload;
pub use sign::SignSgd;
pub use topk::TopK;
