//! Launching a TCP group as real OS processes on one host.
//!
//! The rendezvous protocol is environment variables: [`launch_local`]
//! spawns `world_size` copies of a program with `ACP_NET_RANK`,
//! `ACP_NET_WORLD_SIZE` and `ACP_NET_BASE_PORT` set (plus
//! `ACP_NET_GROUPS` for two-level layouts, see [`launch_local_grouped`]);
//! each child calls [`TcpConfig::from_env`] (via [`worker_from_env`]) to
//! discover its place in the group and connects. Fault plans ride along
//! through the `ACP_NET_FAULT_*` variables (see [`crate::fault`]).

use std::io;
use std::path::Path;
use std::process::{Child, Command, ExitStatus, Stdio};

use crate::fault::FaultInjector;
use crate::tcp::TcpConfig;

/// Rank of this worker, `0..world_size`.
pub const ENV_RANK: &str = "ACP_NET_RANK";
/// Number of workers in the group.
pub const ENV_WORLD_SIZE: &str = "ACP_NET_WORLD_SIZE";
/// Rank 0's listener port; rank `i` listens on `base_port + i`.
pub const ENV_BASE_PORT: &str = "ACP_NET_BASE_PORT";
/// Number of groups in the two-level topology (unset or `1` = flat ring).
/// Must divide the world size; workers reject inconsistent specs with a
/// structured error, not a panic.
pub const ENV_GROUPS: &str = "ACP_NET_GROUPS";

pub(crate) fn parse_env<T: std::str::FromStr>(name: &str) -> Result<Option<T>, String> {
    match std::env::var(name) {
        Ok(v) => v
            .parse::<T>()
            .map(Some)
            .map_err(|_| format!("{name}={v} is not a valid value")),
        Err(std::env::VarError::NotPresent) => Ok(None),
        Err(e) => Err(format!("{name}: {e}")),
    }
}

impl TcpConfig {
    /// Builds this worker's configuration from the `ACP_NET_*` environment
    /// variables, or returns `Ok(None)` when none are set (the process was
    /// not launched as a TCP worker).
    ///
    /// The fault plan is read from the `ACP_NET_FAULT_*` variables and
    /// applied only to the rank they target.
    ///
    /// # Errors
    ///
    /// Returns a description of the problem when the variables are
    /// present but inconsistent (unparsable numbers, rank out of range,
    /// or only some of the required variables set).
    pub fn from_env() -> Result<Option<TcpConfig>, String> {
        let rank: Option<usize> = parse_env(ENV_RANK)?;
        let world: Option<usize> = parse_env(ENV_WORLD_SIZE)?;
        let base_port: Option<u16> = parse_env(ENV_BASE_PORT)?;
        let groups: Option<usize> = parse_env(ENV_GROUPS)?;
        let (rank, world) = match (rank, world) {
            (None, None) => return Ok(None),
            (Some(r), Some(w)) => (r, w),
            _ => {
                return Err(format!(
                    "{ENV_RANK} and {ENV_WORLD_SIZE} must be set together"
                ))
            }
        };
        if world == 0 || rank >= world {
            return Err(format!(
                "{ENV_RANK}={rank} out of range for {ENV_WORLD_SIZE}={world}"
            ));
        }
        let base_port = base_port
            .ok_or_else(|| format!("{ENV_BASE_PORT} must be set when {ENV_RANK} is set"))?;
        let mut cfg =
            TcpConfig::local(rank, world, base_port).with_fault(FaultInjector::from_env(rank)?);
        if let Some(groups) = groups {
            cfg = cfg
                .with_groups(groups)
                .map_err(|e| format!("{ENV_GROUPS}={groups}: {e}"))?;
        }
        Ok(Some(cfg))
    }
}

/// Shorthand for [`TcpConfig::from_env`], re-exported at the crate root:
/// returns the worker configuration when this process was spawned by
/// [`launch_local`], `None` when it is the launcher (or a plain run).
///
/// # Errors
///
/// As for [`TcpConfig::from_env`].
pub fn worker_from_env() -> Result<Option<TcpConfig>, String> {
    TcpConfig::from_env()
}

/// The spawned group of worker processes.
#[derive(Debug)]
pub struct LocalGroup {
    children: Vec<Child>,
}

impl LocalGroup {
    /// Waits for every worker and returns `(rank, status)` pairs in rank
    /// order.
    ///
    /// # Errors
    ///
    /// Propagates the first `wait` failure; remaining children are still
    /// waited on (best effort) so no zombies are left behind.
    pub fn wait(mut self) -> io::Result<Vec<(usize, ExitStatus)>> {
        let mut statuses = Vec::with_capacity(self.children.len());
        let mut first_err = None;
        for (rank, child) in self.children.iter_mut().enumerate() {
            match child.wait() {
                Ok(status) => statuses.push((rank, status)),
                Err(e) => first_err = first_err.or(Some(e)),
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(statuses),
        }
    }

    /// Kills every worker that is still running (used on launcher abort).
    pub fn kill(&mut self) {
        for child in &mut self.children {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Spawns `world_size` copies of `program` as local TCP workers.
///
/// Each child receives `args` plus the `ACP_NET_*` rendezvous variables;
/// rank `i` listens on `127.0.0.1:(base_port + i)`. Children inherit
/// stdout/stderr, so a program that prints only on rank 0 behaves like a
/// single-process run.
///
/// # Errors
///
/// If any spawn fails, the already spawned children are killed and the
/// spawn error is returned.
pub fn launch_local(
    program: &Path,
    args: &[String],
    world_size: usize,
    base_port: u16,
) -> io::Result<LocalGroup> {
    launch_local_grouped(program, args, world_size, base_port, 1)
}

/// [`launch_local`] with a two-level group layout: the workers arrange
/// themselves as `groups` rings of `world_size / groups` ranks each
/// (exported to the children via [`ENV_GROUPS`]).
/// `groups == 1` launches a flat ring, identical to [`launch_local`].
///
/// # Errors
///
/// Returns `io::ErrorKind::InvalidInput` (structured, not a panic) when
/// the group spec is inconsistent — `groups == 0` or `groups` not
/// dividing `world_size` — and spawn errors as for [`launch_local`].
pub fn launch_local_grouped(
    program: &Path,
    args: &[String],
    world_size: usize,
    base_port: u16,
    groups: usize,
) -> io::Result<LocalGroup> {
    // Validate the layout before spawning anything: a bad spec should
    // fail the launcher with one clear error, not leave world_size
    // children each discovering the problem on their own.
    acp_collectives::Topology::grouped(world_size, groups)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
    let mut group = LocalGroup {
        children: Vec::with_capacity(world_size),
    };
    for rank in 0..world_size {
        let spawned = Command::new(program)
            .args(args)
            .env(ENV_RANK, rank.to_string())
            .env(ENV_WORLD_SIZE, world_size.to_string())
            .env(ENV_BASE_PORT, base_port.to_string())
            .env(ENV_GROUPS, groups.to_string())
            .stdin(Stdio::null())
            .spawn();
        match spawned {
            Ok(child) => group.children.push(child),
            Err(e) => {
                group.kill();
                return Err(e);
            }
        }
    }
    Ok(group)
}

// Env-var tests mutate process-global state; sharing one lock across every
// test module that touches `ACP_NET_*` variables (this one and
// `crate::fault`) keeps them from interleaving under the parallel runner.
#[cfg(test)]
pub(crate) mod testenv {
    static ENV_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    pub(crate) fn with_env<R>(vars: &[(&str, Option<&str>)], f: impl FnOnce() -> R) -> R {
        let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let saved: Vec<(String, Option<String>)> = vars
            .iter()
            .map(|(k, _)| ((*k).to_string(), std::env::var(*k).ok()))
            .collect();
        for (k, v) in vars {
            match v {
                Some(v) => std::env::set_var(k, v),
                None => std::env::remove_var(k),
            }
        }
        let result = f();
        for (k, v) in saved {
            match v {
                Some(v) => std::env::set_var(&k, v),
                None => std::env::remove_var(&k),
            }
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::testenv::with_env;
    use super::*;

    #[test]
    fn absent_env_is_not_a_worker() {
        with_env(
            &[
                (ENV_RANK, None),
                (ENV_WORLD_SIZE, None),
                (ENV_BASE_PORT, None),
            ],
            || {
                assert!(TcpConfig::from_env().unwrap().is_none());
            },
        );
    }

    #[test]
    fn full_env_builds_a_local_config() {
        with_env(
            &[
                (ENV_RANK, Some("2")),
                (ENV_WORLD_SIZE, Some("4")),
                (ENV_BASE_PORT, Some("29500")),
                (ENV_GROUPS, None),
            ],
            || {
                let cfg = TcpConfig::from_env().unwrap().expect("worker env set");
                assert_eq!(cfg.rank, 2);
                assert_eq!(cfg.world_size, 4);
                assert_eq!(cfg.peers.len(), 4);
                assert_eq!(cfg.peers[0].port(), 29500);
                assert_eq!(cfg.peers[3].port(), 29503);
                assert!(!cfg.fault.is_active());
                assert!(cfg.topology.is_flat());
            },
        );
    }

    #[test]
    fn groups_env_builds_a_two_level_config() {
        with_env(
            &[
                (ENV_RANK, Some("1")),
                (ENV_WORLD_SIZE, Some("4")),
                (ENV_BASE_PORT, Some("29500")),
                (ENV_GROUPS, Some("2")),
            ],
            || {
                let cfg = TcpConfig::from_env().unwrap().expect("worker env set");
                assert_eq!(cfg.topology.groups(), 2);
                assert_eq!(cfg.topology.group_size(), 2);
            },
        );
    }

    #[test]
    fn inconsistent_groups_env_is_a_structured_error() {
        with_env(
            &[
                (ENV_RANK, Some("0")),
                (ENV_WORLD_SIZE, Some("4")),
                (ENV_BASE_PORT, Some("29500")),
                (ENV_GROUPS, Some("3")),
            ],
            || {
                let err = TcpConfig::from_env().unwrap_err();
                assert!(
                    err.contains("ACP_NET_GROUPS=3"),
                    "error should name the bad setting: {err}"
                );
            },
        );
    }

    #[test]
    fn partial_env_is_an_error() {
        with_env(
            &[
                (ENV_RANK, Some("0")),
                (ENV_WORLD_SIZE, None),
                (ENV_BASE_PORT, None),
            ],
            || {
                assert!(TcpConfig::from_env().is_err());
            },
        );
    }

    #[test]
    fn out_of_range_rank_is_an_error() {
        with_env(
            &[
                (ENV_RANK, Some("4")),
                (ENV_WORLD_SIZE, Some("4")),
                (ENV_BASE_PORT, Some("29500")),
            ],
            || {
                assert!(TcpConfig::from_env().is_err());
            },
        );
    }
}
