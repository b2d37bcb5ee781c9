//! ACP-SGD and baseline distributed gradient aggregation — the paper's
//! primary contribution as a reusable library.
//!
//! A [`DistributedOptimizer`] takes one worker's local per-parameter
//! gradients and replaces them, in place, with the *globally aggregated*
//! gradients, moving compressed payloads over a real
//! [`acp_collectives::Communicator`]. Every aggregation algorithm the paper
//! evaluates is provided:
//!
//! | Type | Algorithm | Collective |
//! |---|---|---|
//! | [`SSgdAggregator`] | uncompressed averaging with tensor fusion | all-reduce |
//! | [`SignSgdAggregator`] | Sign-SGD + majority vote (± error feedback) | all-gather |
//! | [`TopkSgdAggregator`] | Top-k + scatter-average (± error feedback) | all-gather |
//! | [`GTopkSgdAggregator`] | global top-k with error feedback | sparse all-reduce |
//! | [`DgcAggregator`] | Deep Gradient Compression (momentum correction, accumulation) | all-gather |
//! | [`PowerSgdAggregator`] | Power-SGD, two fused all-reduces per step | all-reduce |
//! | [`AcpSgdAggregator`] | **ACP-SGD**, one fused all-reduce per step | all-reduce |
//!
//! Each one is a [`Pipelined`] shell — one [`FusedPipeline`] (tensor
//! fusion and wait-free backpropagation) plus the per-step telemetry —
//! around the algorithm's [`BucketCodec`], so the seven differ only in
//! their codec. Power-SGD and ACP-SGD put a [`WarmStart`] (exact averaging
//! for the first steps) in front of theirs. The low-rank codecs reshape
//! each parameter per the Power-SGD convention
//! ([`acp_tensor::MatrixShape`]), keep per-parameter compression state
//! (queries, error-feedback residuals), and fuse a bucket's transmitted
//! factors into one payload, as §IV-B describes.
//!
//! # Examples
//!
//! Four in-process workers aggregating with ACP-SGD:
//!
//! ```
//! use acp_collectives::{Communicator, ThreadGroup};
//! use acp_core::{AcpSgdAggregator, AcpSgdConfig, DistributedOptimizer, GradViewMut};
//!
//! let results = ThreadGroup::run(4, |mut comm| {
//!     let mut opt = AcpSgdAggregator::new(AcpSgdConfig::default());
//!     // Each worker holds a different local gradient for a 4x3 weight.
//!     let mut grad = vec![comm.rank_id().as_usize() as f32; 12];
//!     let dims = [4usize, 3];
//!     let mut views = [GradViewMut { dims: &dims, grad: &mut grad }];
//!     opt.aggregate(&mut views, &mut comm).unwrap();
//!     grad
//! });
//! // All workers end with identical aggregated gradients.
//! assert_eq!(results[0], results[3]);
//! ```

#![warn(missing_docs)]

pub mod acpsgd;
pub mod dgc;
pub mod error;
pub mod factory;
pub mod fusion;
pub mod gtopk;
pub mod optimizer;
pub mod pipeline;
pub mod powersgd;
pub mod signsgd;
mod sparse;
pub mod ssgd;
pub mod topksgd;

// One consistent re-export surface: every aggregator with its config, the
// factory entry point, and the supporting trait/error/fusion machinery.
pub use acpsgd::{AcpSgdAggregator, AcpSgdConfig};
pub use dgc::{DgcAggregator, DgcConfig};
pub use error::CoreError;
pub use factory::{build_optimizer, Aggregator};
pub use fusion::bucket_ranges;
pub use gtopk::GTopkSgdAggregator;
pub use optimizer::{DistributedOptimizer, GradViewMut};
pub use pipeline::{Bucket, BucketCodec, FusedPipeline, Pipelined, Round, StepStats, WarmStart};
pub use powersgd::{LowRankConfig, PowerSgdAggregator, PowerSgdConfig};
pub use signsgd::{SignSgdAggregator, SignSgdConfig};
pub use ssgd::{SSgdAggregator, DEFAULT_BUFFER_BYTES};
pub use topksgd::{TopkSgdAggregator, TopkSgdConfig};
