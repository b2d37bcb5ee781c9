//! Runs one closure per rank over the chosen transport.

use std::panic::{catch_unwind, AssertUnwindSafe};

use acp_collectives::{Communicator, ThreadGroup};
use acp_serve::{ServeConfig, ServedCommunicator, Server, ServerStats};

use crate::workload::{Transport, WORLD};

/// Per-job in-flight budget of the benchmark's server. The 8 MiB default
/// can never admit a two-client ResNet-18 step (see README, "Limits found
/// while sizing").
const PER_JOB_BUDGET: u64 = 256 << 20;

/// Global in-flight budget of the benchmark's server.
const GLOBAL_BUDGET: u64 = 1 << 30;

/// What every rank returned, plus the server's counters on
/// [`Transport::Served`].
#[derive(Debug)]
pub struct GroupRun<T> {
    /// Per-rank results in rank order.
    pub ranks: Vec<T>,
    /// Counters of the in-process server, read after both clients left.
    pub server: Option<ServerStats>,
}

/// Establishes a [`WORLD`]-rank group over `transport`, runs `f` on every
/// rank's own thread and tears the group down.
///
/// # Errors
///
/// Returns a description when the group cannot be established or a rank
/// thread panics.
pub fn run<T, F>(transport: Transport, f: F) -> Result<GroupRun<T>, String>
where
    T: Send,
    F: Fn(&mut dyn Communicator) -> T + Sync,
{
    match transport {
        Transport::Thread => ThreadGroup::try_run(WORLD, |mut comm| f(&mut comm))
            .map(|ranks| GroupRun {
                ranks,
                server: None,
            })
            .map_err(|e| format!("thread group: {e}")),
        Transport::Tcp => {
            // `run_local` reports establishment failures by panicking.
            catch_unwind(AssertUnwindSafe(|| {
                acp_net::run_local(WORLD, |mut comm| f(&mut comm))
            }))
            .map(|ranks| GroupRun {
                ranks,
                server: None,
            })
            .map_err(|_| "tcp group: establishment failed or a rank panicked".to_string())
        }
        Transport::Served => {
            let mut server = Server::spawn(ServeConfig {
                per_job_budget: PER_JOB_BUDGET,
                global_budget: GLOBAL_BUDGET,
                ..ServeConfig::default()
            })
            .map_err(|e| format!("spawn server: {e}"))?;
            let addr = server.addr();
            let ranks = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..WORLD as u32)
                    .map(|client| {
                        let f = &f;
                        scope.spawn(move || {
                            ServedCommunicator::connect(addr, 1, client, WORLD as u32)
                                .map(|mut comm| f(&mut comm))
                                .map_err(|e| format!("connect client {client}: {e}"))
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| {
                        h.join()
                            .map_err(|_| "served client panicked".to_string())
                            .and_then(|r| r)
                    })
                    .collect::<Result<Vec<T>, String>>()
            })?;
            let stats = server.stats();
            server.shutdown();
            Ok(GroupRun {
                ranks,
                server: Some(stats),
            })
        }
    }
}
