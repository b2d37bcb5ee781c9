//! Command line and environment checks.

use crate::workload::{Workload, WORKLOADS};

/// Usage text printed with every argument error.
pub const USAGE: &str = "usage: acp-benchmark --workload <name> --seed <u64> --seconds <n> \
                         --trace <0|1> [--smoke]";

/// Parsed command line.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    /// The workload to run.
    pub workload: Workload,
    /// Seed of the gradients or the dataset; model-init seeds stay fixed.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// `false`: end-to-end metrics, nothing attached. `true`: per-layer
    /// metrics from a run with recorder and spans attached.
    pub trace: bool,
    /// One round and two epochs, skipping the accuracy gate: for the
    /// output-format test, not for measuring.
    pub smoke: bool,
}

/// Parses the arguments after the program name.
///
/// # Errors
///
/// Returns a message naming the offending argument.
pub fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut smoke = false;
    while let Some(flag) = argv.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let found = WORKLOADS.iter().find(|w| w.name == value);
                workload = Some(*found.ok_or_else(|| {
                    let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {value}; one of {}", names.join(", "))
                })?);
            }
            "--seed" => {
                seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?);
            }
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("bad --seconds {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                });
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        smoke,
    })
}

/// The benchmark measures the defaults users get, so it refuses to run
/// with any of the stack's environment knobs set.
///
/// # Errors
///
/// Names the variables that are set.
pub fn refuse_env_knobs() -> Result<(), String> {
    let set: Vec<String> = std::env::vars_os()
        .filter_map(|(key, _)| key.into_string().ok())
        .filter(|key| {
            key == "ACP_KERNEL_THREADS"
                || key == "ACP_VERIFY_SCHEDULE"
                || key.starts_with("ACP_NET_FAULT_")
        })
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!("unset {} before benchmarking", set.join(", ")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_drivers_invocation() {
        let a = args(&[
            "--workload",
            "resnet18_tcp",
            "--seed",
            "7",
            "--seconds",
            "20",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload.name, "resnet18_tcp");
        assert_eq!(
            (a.seed, a.seconds, a.trace, a.smoke),
            (7, 20.0, true, false)
        );
    }

    #[test]
    fn rejects_unknown_and_missing_arguments() {
        assert!(args(&[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0"
        ])
        .is_err());
        assert!(args(&["--workload", "resnet18_tcp"]).is_err());
        assert!(args(&["--bogus", "1"]).is_err());
        assert!(args(&["--seed"]).is_err());
    }
}
