//! One entry point over every aggregation algorithm the paper evaluates:
//! an [`Aggregator`] specification plus [`build_optimizer`].
//!
//! Examples, tests and benchmarks construct optimizers through this factory
//! so that switching algorithms is a data change, not a code change.

use crate::acpsgd::{AcpSgdAggregator, AcpSgdConfig};
use crate::dgc::{DgcAggregator, DgcConfig};
use crate::gtopk::GTopkSgdAggregator;
use crate::optimizer::DistributedOptimizer;
use crate::powersgd::{PowerSgdAggregator, PowerSgdConfig};
use crate::signsgd::{SignSgdAggregator, SignSgdConfig};
use crate::ssgd::SSgdAggregator;
use crate::topksgd::{TopkSgdAggregator, TopkSgdConfig};

/// Specification of one aggregation algorithm and its configuration.
///
/// Every variant corresponds to one [`DistributedOptimizer`]
/// implementation; [`build_optimizer`] turns the specification into a
/// ready-to-use boxed optimizer.
///
/// # Examples
///
/// ```
/// use acp_core::{build_optimizer, AcpSgdConfig, Aggregator, DistributedOptimizer};
///
/// let opt = build_optimizer(&Aggregator::AcpSgd(AcpSgdConfig::default().with_rank(8)));
/// assert_eq!(opt.name(), "acpsgd");
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Aggregator {
    /// Uncompressed S-SGD with the default 25 MB fusion buffer.
    Ssgd,
    /// Sign-SGD with majority vote.
    SignSgd(SignSgdConfig),
    /// Top-k sparsification over all-gather.
    Topk(TopkSgdConfig),
    /// gTop-k sparsification over the sparse all-reduce; the field is the
    /// selection density in `(0, 1]`.
    GTopk {
        /// Fraction of gradient elements kept per step.
        density: f64,
    },
    /// Deep Gradient Compression.
    Dgc(DgcConfig),
    /// Power-SGD, two fused all-reduces per step.
    PowerSgd(PowerSgdConfig),
    /// ACP-SGD, one fused all-reduce per step.
    AcpSgd(AcpSgdConfig),
}

impl Default for Aggregator {
    fn default() -> Self {
        Aggregator::AcpSgd(AcpSgdConfig::default())
    }
}

impl Aggregator {
    /// The short algorithm name the built optimizer will report.
    pub fn name(&self) -> &'static str {
        match self {
            Aggregator::Ssgd => "ssgd",
            Aggregator::SignSgd(_) => "signsgd",
            Aggregator::Topk(_) => "topk",
            Aggregator::GTopk { .. } => "gtopk",
            Aggregator::Dgc(_) => "dgc",
            Aggregator::PowerSgd(_) => "powersgd",
            Aggregator::AcpSgd(_) => "acpsgd",
        }
    }
}

/// Builds the [`DistributedOptimizer`] described by `spec`.
///
/// # Panics
///
/// Panics if a density in the specification is not in `(0, 1]` or a DGC
/// momentum is negative — the same validation the concrete constructors
/// perform.
pub fn build_optimizer(spec: &Aggregator) -> Box<dyn DistributedOptimizer> {
    match *spec {
        Aggregator::Ssgd => Box::new(SSgdAggregator::new()),
        Aggregator::SignSgd(cfg) => Box::new(SignSgdAggregator::from_config(cfg)),
        Aggregator::Topk(cfg) => Box::new(TopkSgdAggregator::from_config(cfg)),
        Aggregator::GTopk { density } => Box::new(GTopkSgdAggregator::new(density)),
        Aggregator::Dgc(cfg) => Box::new(DgcAggregator::new(cfg)),
        Aggregator::PowerSgd(cfg) => Box::new(PowerSgdAggregator::new(cfg)),
        Aggregator::AcpSgd(cfg) => Box::new(AcpSgdAggregator::new(cfg)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::GradViewMut;
    use acp_collectives::{Communicator, ThreadGroup};

    #[test]
    fn every_variant_builds_and_reports_its_name() {
        let specs = [
            Aggregator::Ssgd,
            Aggregator::SignSgd(SignSgdConfig::default()),
            Aggregator::Topk(TopkSgdConfig::default()),
            Aggregator::GTopk { density: 0.01 },
            Aggregator::Dgc(DgcConfig::default()),
            Aggregator::PowerSgd(PowerSgdConfig::default()),
            Aggregator::AcpSgd(AcpSgdConfig::default()),
        ];
        for spec in specs {
            let opt = build_optimizer(&spec);
            assert_eq!(opt.name(), spec.name());
        }
    }

    #[test]
    fn built_optimizer_aggregates_like_the_concrete_type() {
        let results = ThreadGroup::run(2, |mut comm| {
            let mut opt = build_optimizer(&Aggregator::Ssgd);
            let mut g = vec![comm.rank_id().as_usize() as f32 * 2.0; 3];
            let dims = [3usize];
            let mut views = [GradViewMut {
                dims: &dims,
                grad: &mut g,
            }];
            opt.aggregate(&mut views, &mut comm).unwrap();
            g
        });
        assert_eq!(results[0], vec![1.0; 3]);
        assert_eq!(results[1], vec![1.0; 3]);
    }

    #[test]
    fn default_spec_is_acp_sgd() {
        assert_eq!(Aggregator::default().name(), "acpsgd");
    }
}
