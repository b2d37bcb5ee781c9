//! Deterministic fault injection for the TCP backend.
//!
//! Four independent knobs, all off by default:
//!
//! * **delay** — sleep before every frame send: models a slow link and
//!   shifts latencies without changing results;
//! * **drop** — before every `n`-th frame, deliberately half-close the
//!   link and reconnect before sending: exercises the retry / re-accept
//!   path end to end (the receiver sees EOF mid-collective and must
//!   recover);
//! * **straggler** — sleep once at the *start* of every collective:
//!   models a slow rank, the failure mode that dominates synchronous SGD
//!   at scale;
//! * **exit** — terminate the whole process at the start of the `n`-th
//!   collective (0-based): models a rank crash, driving the elastic
//!   membership path (survivors observe
//!   [`CommError::MembershipChanged`](acp_collectives::CommError::MembershipChanged)
//!   and `reform()`). Multi-process launches only — in-process tests
//!   would take the test runner down with them.
//!
//! Configure in code via the builders, or via environment variables for
//! multi-process runs launched with [`crate::launch::launch_local`]:
//!
//! | variable | meaning |
//! |---|---|
//! | `ACP_NET_FAULT_RANK` | apply faults only on this rank (default: all) |
//! | `ACP_NET_FAULT_DELAY_US` | per-frame send delay, microseconds |
//! | `ACP_NET_FAULT_DROP_EVERY` | close + reconnect before every n-th frame |
//! | `ACP_NET_FAULT_STRAGGLER_US` | per-collective delay, microseconds |
//! | `ACP_NET_FAULT_EXIT_AFTER` | exit the process at the start of the n-th collective |
//!
//! Malformed values (e.g. `ACP_NET_FAULT_DROP_EVERY=5x`) are structured
//! configuration errors, not silently-disabled faults — see
//! [`FaultInjector::from_env`].

use std::time::Duration;

use crate::launch::parse_env;

/// Apply faults only on this rank (default: all ranks).
pub const ENV_FAULT_RANK: &str = "ACP_NET_FAULT_RANK";
/// Per-frame send delay, microseconds (0 = disabled).
pub const ENV_FAULT_DELAY_US: &str = "ACP_NET_FAULT_DELAY_US";
/// Close + reconnect before every n-th frame send (0 = disabled).
pub const ENV_FAULT_DROP_EVERY: &str = "ACP_NET_FAULT_DROP_EVERY";
/// Per-collective straggler delay, microseconds (0 = disabled).
pub const ENV_FAULT_STRAGGLER_US: &str = "ACP_NET_FAULT_STRAGGLER_US";
/// Exit the process at the start of the n-th collective, 1-based
/// (0 = disabled). Multi-process launches only.
pub const ENV_FAULT_EXIT_AFTER: &str = "ACP_NET_FAULT_EXIT_AFTER";

/// Fault plan applied by a [`crate::TcpCommunicator`]. See the module docs
/// for the semantics of each knob.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultInjector {
    /// Sleep this long before every frame send.
    pub send_delay: Option<Duration>,
    /// Close the link and reconnect before every `n`-th frame send. Only
    /// the link's connector drops it, and the connector is the lower rank
    /// of each pair: a send to a higher rank can drop, a send to a lower
    /// one (a ring's wraparound) never does. A drop waits until the
    /// previous drop of the same link has drained.
    pub drop_every: Option<u64>,
    /// Sleep this long at the start of every collective call.
    pub straggler_delay: Option<Duration>,
    /// Exit the process (status 0) at the start of the `n`-th collective,
    /// counting from 1 — i.e. `Some(3)` completes two collectives and
    /// dies entering the third, while its peers are already committed to
    /// it. Only honoured by multi-process launches.
    pub exit_after: Option<u64>,
}

impl FaultInjector {
    /// A plan with every fault disabled.
    pub fn none() -> Self {
        FaultInjector::default()
    }

    /// Enables the per-frame send delay.
    #[must_use]
    pub fn with_send_delay(mut self, delay: Duration) -> Self {
        self.send_delay = Some(delay);
        self
    }

    /// Enables drop-then-reconnect before every `n`-th frame.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn with_drop_every(mut self, n: u64) -> Self {
        assert!(n > 0, "drop_every must be at least 1");
        self.drop_every = Some(n);
        self
    }

    /// Enables the per-collective straggler delay.
    #[must_use]
    pub fn with_straggler_delay(mut self, delay: Duration) -> Self {
        self.straggler_delay = Some(delay);
        self
    }

    /// Enables the process-exit fault at the start of the `n`-th
    /// collective (1-based).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn with_exit_after(mut self, n: u64) -> Self {
        assert!(n > 0, "exit_after must be at least 1");
        self.exit_after = Some(n);
        self
    }

    /// Whether any fault is enabled.
    pub fn is_active(&self) -> bool {
        self.send_delay.is_some()
            || self.drop_every.is_some()
            || self.straggler_delay.is_some()
            || self.exit_after.is_some()
    }

    /// Reads the fault plan for `rank` from the `ACP_NET_FAULT_*`
    /// environment variables. Unset variables leave their knob disabled,
    /// and an explicit `0` disables a knob too; if `ACP_NET_FAULT_RANK`
    /// is set and differs from `rank`, the plan is empty.
    ///
    /// # Errors
    ///
    /// Returns `"NAME=value is not a valid value"` when a variable is set
    /// but unparsable (e.g. `ACP_NET_FAULT_DROP_EVERY=5x`). A fault plan
    /// you asked for but mistyped must fail the run loudly — silently
    /// disabling the fault would make the injection test pass vacuously.
    /// Every variable is validated even when the plan targets a different
    /// rank, so a typo surfaces on all ranks.
    pub fn from_env(rank: usize) -> Result<Self, String> {
        let target: Option<usize> = parse_env(ENV_FAULT_RANK)?;
        let delay: Option<u64> = parse_env(ENV_FAULT_DELAY_US)?;
        let drop: Option<u64> = parse_env(ENV_FAULT_DROP_EVERY)?;
        let straggler: Option<u64> = parse_env(ENV_FAULT_STRAGGLER_US)?;
        let exit_after: Option<u64> = parse_env(ENV_FAULT_EXIT_AFTER)?;
        if let Some(target) = target {
            if target != rank {
                return Ok(FaultInjector::none());
            }
        }
        Ok(FaultInjector {
            send_delay: delay.filter(|&v| v > 0).map(Duration::from_micros),
            drop_every: drop.filter(|&v| v > 0),
            straggler_delay: straggler.filter(|&v| v > 0).map(Duration::from_micros),
            exit_after: exit_after.filter(|&v| v > 0),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_inert() {
        assert!(!FaultInjector::none().is_active());
    }

    #[test]
    fn builders_compose() {
        let f = FaultInjector::none()
            .with_send_delay(Duration::from_millis(1))
            .with_drop_every(3)
            .with_straggler_delay(Duration::from_millis(5));
        assert!(f.is_active());
        assert_eq!(f.drop_every, Some(3));
        assert_eq!(f.send_delay, Some(Duration::from_millis(1)));
        assert_eq!(f.straggler_delay, Some(Duration::from_millis(5)));
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn drop_every_zero_panics() {
        let _ = FaultInjector::none().with_drop_every(0);
    }

    use crate::launch::testenv::with_env;

    const ALL_UNSET: [(&str, Option<&str>); 5] = [
        (ENV_FAULT_RANK, None),
        (ENV_FAULT_DELAY_US, None),
        (ENV_FAULT_DROP_EVERY, None),
        (ENV_FAULT_STRAGGLER_US, None),
        (ENV_FAULT_EXIT_AFTER, None),
    ];

    #[test]
    fn empty_env_is_inert() {
        with_env(&ALL_UNSET, || {
            assert_eq!(FaultInjector::from_env(0), Ok(FaultInjector::none()));
        });
    }

    #[test]
    fn valid_env_builds_the_plan() {
        let mut vars = ALL_UNSET;
        vars[1].1 = Some("250");
        vars[2].1 = Some("5");
        vars[3].1 = Some("1000");
        vars[4].1 = Some("2");
        with_env(&vars, || {
            let f = FaultInjector::from_env(3).unwrap();
            assert_eq!(f.send_delay, Some(Duration::from_micros(250)));
            assert_eq!(f.drop_every, Some(5));
            assert_eq!(f.straggler_delay, Some(Duration::from_micros(1000)));
            assert_eq!(f.exit_after, Some(2));
        });
    }

    #[test]
    fn malformed_value_is_a_loud_error_not_a_disabled_fault() {
        // Regression (ISSUE 4): `ACP_NET_FAULT_DROP_EVERY=5x` used to
        // silently disable the fault, making injection tests pass
        // vacuously. It must be a configuration error naming the variable.
        let mut vars = ALL_UNSET;
        vars[2].1 = Some("5x");
        with_env(&vars, || {
            let err = FaultInjector::from_env(0).unwrap_err();
            assert!(
                err.contains("ACP_NET_FAULT_DROP_EVERY=5x"),
                "error should name the bad setting: {err}"
            );
        });
    }

    #[test]
    fn malformed_values_fail_on_non_target_ranks_too() {
        let mut vars = ALL_UNSET;
        vars[0].1 = Some("1");
        vars[1].1 = Some("fast");
        with_env(&vars, || {
            assert!(FaultInjector::from_env(0).is_err());
            assert!(FaultInjector::from_env(1).is_err());
        });
    }

    #[test]
    fn zero_explicitly_disables_a_knob() {
        let mut vars = ALL_UNSET;
        vars[2].1 = Some("0");
        with_env(&vars, || {
            let f = FaultInjector::from_env(0).unwrap();
            assert_eq!(f.drop_every, None);
            assert!(!f.is_active());
        });
    }

    #[test]
    fn rank_targeting_leaves_other_ranks_inert() {
        let mut vars = ALL_UNSET;
        vars[0].1 = Some("2");
        vars[2].1 = Some("7");
        with_env(&vars, || {
            assert!(!FaultInjector::from_env(0).unwrap().is_active());
            assert_eq!(FaultInjector::from_env(2).unwrap().drop_every, Some(7));
        });
    }
}
