//! Fusion-buffer tuning study: sweep the buffer size for ACP-SGD and
//! Power-SGD* on BERT-Large (the paper's Fig. 10) and compare the paper's
//! scaled 25 MB default against the automatically tuned optimum (§IV-B's
//! "could be tuned with Bayesian optimization" remark, made checkable).
//!
//! ```text
//! cargo run --release -p acp-bench --example buffer_tuning
//! ```

use acp_collectives::AlphaBetaCost;
use acp_models::Model;
use acp_simulator::tune::tune_buffer_size;
use acp_simulator::{simulate, ExperimentConfig, OptLevel, Strategy};

fn time_at(cfg: &ExperimentConfig, mb: usize) -> f64 {
    let mut c = *cfg;
    c.buffer_bytes = mb * 1024 * 1024;
    if mb == 0 {
        c.opt = OptLevel::Wfbp;
    }
    simulate(&c).expect("fits in memory").total * 1e3
}

fn main() {
    let sweep = [0usize, 1, 5, 25, 100, 500, 1500];
    println!("BERT-Large, 32 GPUs, 10GbE — iteration time (ms) vs buffer size\n");
    print!("{:<18}", "method");
    for mb in sweep {
        print!("{:>8}", format!("{mb}MB"));
    }
    println!("{:>10}{:>12}", "tuned", "tuned-size");
    for (name, strategy) in [
        ("ACP-SGD r32", Strategy::AcpSgd { rank: 32 }),
        ("ACP-SGD r256", Strategy::AcpSgd { rank: 256 }),
        ("Power-SGD* r32", Strategy::PowerSgdStar { rank: 32 }),
        ("Power-SGD* r256", Strategy::PowerSgdStar { rank: 256 }),
    ] {
        let cfg = ExperimentConfig::paper_testbed(Model::BertLarge, strategy);
        print!("{name:<18}");
        for mb in sweep {
            print!("{:>8.0}", time_at(&cfg, mb));
        }
        let tuned = tune_buffer_size(&cfg).expect("fits in memory");
        println!(
            "{:>10.0}{:>11.1}M",
            tuned.iteration_seconds * 1e3,
            tuned.buffer_bytes as f64 / (1024.0 * 1024.0)
        );
    }
    println!(
        "\nTakeaways: ACP-SGD is flat across three orders of magnitude of buffer\n\
         size (the compressed-buffer scaling of §IV-B at work) and the paper's\n\
         25 MB default sits within a few percent of the tuned optimum, while\n\
         Power-SGD* is far more sensitive — exactly Fig. 10's story."
    );

    // The closed-loop variant: instead of the datasheet network tier, feed
    // the tuner a calibrated α–β fit of the kind `acp_training::autotune`
    // recovers from live collective telemetry (these numbers are a typical
    // fit for a congested 10GbE fabric — 3x the datasheet latency). The
    // optimum shifts: pricier per-collective hops push the tuner toward
    // larger buckets. Run it live with
    // `distributed_training --backend tcp --auto-tune`.
    println!("\nSame sweep on a calibrated profile (fitted α–β, not the datasheet):\n");
    let calibrated = AlphaBetaCost {
        alpha: 15e-6,
        beta: 9.5e-10,
        launch: 30e-6,
    };
    for (name, strategy) in [
        ("ACP-SGD r32", Strategy::AcpSgd { rank: 32 }),
        ("Power-SGD* r32", Strategy::PowerSgdStar { rank: 32 }),
    ] {
        let mut cfg = ExperimentConfig::paper_testbed(Model::BertLarge, strategy);
        cfg.hardware = cfg.hardware.with_calibrated(calibrated);
        let tuned = tune_buffer_size(&cfg).expect("fits in memory");
        println!(
            "{name:<18} tuned {:>6.0} ms at {:>6.1}M (datasheet default 25MB: {:>6.0} ms)",
            tuned.iteration_seconds * 1e3,
            tuned.buffer_bytes as f64 / (1024.0 * 1024.0),
            time_at(&cfg, 25),
        );
    }
}
