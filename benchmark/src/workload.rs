//! The four workloads and the aggregators they run.

use acp_core::{AcpSgdConfig, Aggregator, DgcConfig, PowerSgdConfig, SignSgdConfig, TopkSgdConfig};
use acp_models::Model;
use acp_training::{mlp, Sequential};

/// World size of every group: two rank threads in one process, each
/// issuing its next iteration only when the previous one returned.
pub const WORLD: usize = 2;

/// How the two ranks exchange data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// `acp_collectives::ThreadGroup`: in-process mailboxes.
    Thread,
    /// `acp_net::run_local`: loopback sockets, ring wiring.
    Tcp,
    /// Both ranks as clients of one in-process `acp_serve::Server`.
    Served,
}

impl Transport {
    /// The crate that moves the bytes — the layer name of its spans.
    pub fn layer(self) -> &'static str {
        match self {
            Transport::Thread => "collectives",
            Transport::Tcp => "net",
            Transport::Served => "serve",
        }
    }
}

/// What one iteration of the workload is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Aggregating seeded ResNet-18 gradients; no forward/backward.
    Aggregate,
    /// A full data-parallel training step of the rings MLP.
    Train,
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Transport the ranks communicate over.
    pub transport: Transport,
    /// What an iteration is.
    pub kind: Kind,
}

/// Every workload, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "resnet18_thread",
        transport: Transport::Thread,
        kind: Kind::Aggregate,
    },
    Workload {
        name: "resnet18_tcp",
        transport: Transport::Tcp,
        kind: Kind::Aggregate,
    },
    Workload {
        name: "resnet18_served",
        transport: Transport::Served,
        kind: Kind::Aggregate,
    },
    Workload {
        name: "mlp_train_thread",
        transport: Transport::Thread,
        kind: Kind::Train,
    },
];

/// The aggregators with an end-to-end `iter_ms.*` metric (Fig. 3's set).
pub const E2E_AGGS: [&str; 5] = ["ssgd", "signsgd", "topk", "powersgd", "acpsgd"];

/// Every aggregator the stack offers; the traced pass covers all of them.
pub const ALL_AGGS: [&str; 7] = [
    "ssgd", "signsgd", "topk", "gtopk", "dgc", "powersgd", "acpsgd",
];

/// The aggregators that converge on the rings task (Fig. 6's set).
pub const TRAINED_AGGS: [&str; 3] = ["ssgd", "powersgd", "acpsgd"];

/// Fusion buffer for the ResNet-18 catalog. The 25 MB default deadlocks
/// the TCP ring at world 2 (see README, "Limits found while sizing").
pub const RESNET_BUFFER_BYTES: usize = 4 << 20;

/// Fusion buffer for the MLP: several buckets per step, so wait-free
/// backpropagation really overlaps.
pub const MLP_BUFFER_BYTES: usize = 64 << 10;

/// Layer widths of the rings MLP.
pub const MLP_DIMS: [usize; 5] = [32, 256, 256, 128, 4];

/// The default-configured specification of the aggregator called `name`.
///
/// # Panics
///
/// Panics on a name outside [`ALL_AGGS`].
pub fn aggregator(name: &str) -> Aggregator {
    match name {
        "ssgd" => Aggregator::Ssgd,
        "signsgd" => Aggregator::SignSgd(SignSgdConfig::default()),
        "topk" => Aggregator::Topk(TopkSgdConfig::default()),
        // gTop-k has no config type; it gets Top-k's default density.
        "gtopk" => Aggregator::GTopk {
            density: TopkSgdConfig::default().density,
        },
        "dgc" => Aggregator::Dgc(DgcConfig::default()),
        "powersgd" => Aggregator::PowerSgd(PowerSgdConfig::default()),
        "acpsgd" => Aggregator::AcpSgd(AcpSgdConfig::default()),
        other => panic!("unknown aggregator {other}"),
    }
}

/// The rings MLP with its fixed initialisation seed.
pub fn build_mlp() -> Sequential {
    mlp(&MLP_DIMS, 99)
}

impl Workload {
    /// Gradient tensor shapes of the workload's model, in forward order.
    pub fn shapes(&self) -> Vec<Vec<usize>> {
        match self.kind {
            Kind::Aggregate => Model::ResNet18Cifar
                .spec()
                .layers
                .iter()
                .map(|l| l.dims.clone())
                .collect(),
            Kind::Train => build_mlp()
                .params()
                .iter()
                .map(|p| p.dims.to_vec())
                .collect(),
        }
    }

    /// Fusion buffer capacity the workload's aggregators use.
    pub fn buffer_bytes(&self) -> usize {
        match self.kind {
            Kind::Aggregate => RESNET_BUFFER_BYTES,
            Kind::Train => MLP_BUFFER_BYTES,
        }
    }
}
