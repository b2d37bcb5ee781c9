//! Regenerates the paper's tables and figures from the command line.
//!
//! ```text
//! figures <experiment> [--epochs N]
//!
//! experiments:
//!   table1 table2 table3
//!   fig2 fig3 fig4 fig5 fig6 fig7 fig8 fig9 fig10 fig11a fig11b fig12 fig13
//!   headline   (abstract speedup numbers)
//!   ext-scaling ext-tune ext-hierarchy   (extensions beyond the paper)
//!   telemetry  (instrumented ACP-SGD run: per-step metrics + summary)
//!   kernels    (vectorized vs scalar compressor kernels, the dense
//!               A·Bᵀ forward product and ACP-SGD's low-rank sweeps;
//!               --min-speedup N exits nonzero if the largest-bucket
//!               encode or decode speedup, the dense_nt forward speedup
//!               or lowrank_speedup falls below N; --quick drops the
//!               largest bucket and shrinks the low-rank shape)
//!   all        (everything; convergence at the quick epoch count)
//! ```
//!
//! Convergence experiments default to 40 epochs for a minutes-scale run;
//! pass `--epochs 300` for the paper's full schedule.

use acp_bench::{convergence, statics, timing};

fn parse_epochs(args: &[String]) -> usize {
    args.windows(2)
        .find(|w| w[0] == "--epochs")
        .and_then(|w| w[1].parse().ok())
        .unwrap_or(40)
}

fn parse_min_speedup(args: &[String]) -> Option<f64> {
    args.windows(2)
        .find(|w| w[0] == "--min-speedup")
        .and_then(|w| w[1].parse().ok())
}

fn headline() -> String {
    let (avg_s, max_s, avg_p, max_p) = timing::headline_speedups();
    format!(
        "ACP-SGD speedups over S-SGD: avg {avg_s:.2}x, max {max_s:.2}x \
         (paper: 4.06x / 9.42x)\n\
         ACP-SGD speedups over Power-SGD: avg {avg_p:.2}x, max {max_p:.2}x \
         (paper: 1.34x / 2.11x)\n"
    )
}

/// A short instrumented 4-worker ACP-SGD run: per-step telemetry table for
/// rank 0 plus the aggregated counter/series summary.
fn telemetry() -> String {
    use acp_core::{build_optimizer, AcpSgdConfig, Aggregator};
    use acp_telemetry::{render_step_table, summary};
    use acp_training::dataset::Dataset;
    use acp_training::model::mlp;
    use acp_training::trainer::{train_distributed_instrumented, TrainConfig};

    let data = Dataset::gaussian_clusters(4, 8, 60, 0.3, 11);
    let cfg = TrainConfig {
        epochs: 2,
        batch_size: 16,
        ..TrainConfig::default()
    };
    let spec = Aggregator::AcpSgd(AcpSgdConfig::default().with_rank(4));
    let report = train_distributed_instrumented(
        4,
        &data,
        || mlp(&[8, 16, 4], 5),
        || build_optimizer(&spec),
        &cfg,
    );
    let rank0 = &report.ranks[0];
    let shown = rank0.steps.len().min(8);
    format!(
        "Instrumented ACP-SGD, 4 workers (rank 0, first {shown} steps)\n{}\n{}",
        render_step_table(&rank0.steps[..shown]),
        summary::render(&rank0.snapshot)
    )
}

/// Times the vectorized kernels against their scalar references; with
/// `min_speedup`, exits nonzero when the largest-bucket encode or decode
/// speedup, the dense forward speedup or the low-rank speedup falls below
/// the floor.
fn kernels_bench(quick: bool, min_speedup: Option<f64>) -> String {
    use acp_bench::kernels;
    let report = kernels::run(quick);
    let text = kernels::render(&report);
    if let Some(floor) = min_speedup {
        let gates = [
            report.encode_speedup,
            report.decode_speedup,
            report.forward_speedup,
            report.lowrank_speedup,
        ];
        if gates.iter().any(|&s| s < floor) {
            eprintln!(
                "kernel speedup gate failed: encode {:.2}x / decode {:.2}x / forward {:.2}x / \
                 lowrank {:.2}x, floor {floor}x",
                report.encode_speedup,
                report.decode_speedup,
                report.forward_speedup,
                report.lowrank_speedup
            );
            println!("{text}");
            std::process::exit(1);
        }
    }
    text
}

fn run(name: &str, epochs: usize, quick: bool, min_speedup: Option<f64>) -> Option<String> {
    let out = match name {
        "table1" => format!("Table I\n{}", statics::table1().render()),
        "table2" => format!("Table II\n{}", statics::table2().render()),
        "table3" => timing::table3().render_totals(),
        "fig2" => timing::fig2().render_totals(),
        "fig3" => timing::fig3().render_breakdowns(),
        "fig4" => format!("Fig. 4: schedule timelines\n{}", statics::fig4()),
        "fig5" => format!("Fig. 5: CDF of tensor sizes\n{}", statics::fig5().render()),
        "fig6" => format!(
            "Fig. 6: convergence, {epochs} epochs, 4 workers\n{}",
            convergence::render_curves(&convergence::fig6(epochs))
        ),
        "fig7" => format!(
            "Fig. 7: EF/reuse ablation, {epochs} epochs, 4 workers\n{}",
            convergence::render_curves(&convergence::fig7(epochs))
        ),
        "fig8" => timing::fig8().render_breakdowns(),
        "fig9" => timing::fig9().render_totals(),
        "fig10" => timing::fig10().render_totals(),
        "fig11a" => timing::fig11a().render_totals(),
        "fig11b" => timing::fig11b().render_totals(),
        "fig12" => timing::fig12().render_totals(),
        "fig13" => timing::fig13().render_totals(),
        "ext-scaling" => timing::ext_scaling().render_totals(),
        "ext-tune" => format!(
            "Extension: auto-tuned fusion buffers vs scaled default\n{}",
            timing::ext_tuned_buffers().render()
        ),
        "ext-hierarchy" => format!(
            "Extension: flat vs two-level all-reduce, 25 MB, 10GbE sites joined by WAN\n{}",
            timing::ext_hierarchy().render()
        ),
        "headline" => headline(),
        "telemetry" => telemetry(),
        "kernels" => kernels_bench(quick, min_speedup),
        _ => return None,
    };
    Some(out)
}

/// Every experiment, in the order `all` runs them.
const ALL: [&str; 22] = [
    "table1",
    "table2",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "table3",
    "fig8",
    "fig9",
    "fig10",
    "fig11a",
    "fig11b",
    "fig12",
    "fig13",
    "ext-scaling",
    "ext-tune",
    "ext-hierarchy",
    "telemetry",
    "kernels",
    "headline",
];

/// The experiments named on the command line — all of them when none (or
/// `all`) is named. Flags and the values of `--epochs` / `--min-speedup`
/// are not names.
fn selected(args: &[String]) -> Vec<&str> {
    let mut names = Vec::new();
    let mut args = args.iter().map(String::as_str);
    while let Some(arg) = args.next() {
        match arg {
            "--epochs" | "--min-speedup" => {
                args.next();
            }
            flag if flag.starts_with("--") => {}
            name => names.push(name),
        }
    }
    if names.is_empty() || names.contains(&"all") {
        ALL.to_vec()
    } else {
        names
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let epochs = parse_epochs(&args);
    let quick = args.iter().any(|a| a == "--quick");
    let min_speedup = parse_min_speedup(&args);
    for name in selected(&args) {
        match run(name, epochs, quick, min_speedup) {
            Some(out) => println!("{out}"),
            None => {
                eprintln!("unknown experiment '{name}'; valid: {} all", ALL.join(" "));
                std::process::exit(2);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn flag_values_are_not_experiment_names() {
        assert_eq!(selected(&names("--epochs 300")), ALL.to_vec());
        assert_eq!(selected(&names("fig6 --epochs 300")), ["fig6"]);
        assert_eq!(selected(&names("--min-speedup 2 kernels")), ["kernels"]);
    }
}
