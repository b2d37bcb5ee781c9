//! Data-parallel training comparing S-SGD, Power-SGD and ACP-SGD end to
//! end — a miniature of the paper's convergence experiment (Fig. 6) — with
//! per-step telemetry for the ACP-SGD run.
//!
//! Two backends share the same training loop and collectives:
//!
//! ```text
//! # four in-process thread workers (default)
//! cargo run --release -p acp-bench --example distributed_training
//! cargo run --release -p acp-bench --example distributed_training -- --trace trace.json
//!
//! # four real OS processes over loopback TCP sockets (acp-net)
//! cargo run --release -p acp-bench --example distributed_training -- --backend tcp
//! cargo run --release -p acp-bench --example distributed_training -- \
//!     --backend tcp --epochs 12 --min-accuracy 0.85
//! ```
//!
//! With `--backend tcp` this binary re-executes itself as `--workers`
//! child processes (rendezvous via the `ACP_NET_*` environment variables)
//! that wire up a TCP ring and train S-SGD then ACP-SGD; rank 0 prints the
//! comparison. `--min-accuracy X` makes the run exit non-zero if S-SGD
//! ends below `X` or ACP-SGD ends more than 0.1 below S-SGD — the CI
//! convergence gate. Fault injection rides along through the
//! `ACP_NET_FAULT_*` variables (see `acp-net`'s docs). `--no-overlap`
//! disables wait-free backpropagation (gradients then aggregate in one
//! blocking call after backward); accuracy is identical either way.
//! `--auto-tune` runs the closed-loop autotuner before epoch 1 of every
//! training run: each group profiles its own collectives, fits the α–β
//! cost model from the telemetry, and re-plans the fusion buffer at the
//! tuned size (see `acp_training::autotune`); accuracy is unaffected —
//! only the bucketing changes. `--groups G` arranges the TCP workers as
//! a two-level ring-of-rings (G rings of `workers / G` ranks each,
//! exported to children via `ACP_NET_GROUPS`); results are bit-exact
//! with the flat ring on integer-valued gradients and identical in
//! expectation otherwise. `--reform-demo` is the elastic-membership
//! gate: rank 1 is killed mid-collective by an injected exit fault, the
//! survivors observe `MembershipChanged`, `reform()` the group, and
//! train to completion — every process must exit 0, within the deadline.
//!
//! With `--trace PATH` communication/compression spans are written as
//! Chrome-trace JSON (load in `chrome://tracing` or Perfetto, one track
//! per worker rank; over TCP, rank 0 writes its own track only).

use std::time::Duration;

use acp_collectives::{CommError, Communicator, ReduceOp};
use acp_core::{build_optimizer, AcpSgdConfig, Aggregator, PowerSgdConfig};
use acp_net::{launch_local_grouped, worker_from_env, TcpConfig};
use acp_telemetry::{render_step_table, summary, ChromeTraceBuilder};
use acp_training::dataset::Dataset;
use acp_training::model::mlp;
use acp_training::trainer::{train_distributed, train_distributed_instrumented, TrainConfig};
use acp_training::{train_rank, LrSchedule, Sequential};

#[derive(Clone)]
struct Args {
    backend: String,
    workers: usize,
    epochs: usize,
    min_accuracy: f32,
    trace_path: Option<std::path::PathBuf>,
    overlap: bool,
    auto_tune: bool,
    groups: usize,
    reform_demo: bool,
}

fn parse_args() -> Args {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let value_of = |flag: &str| raw.windows(2).find(|w| w[0] == flag).map(|w| w[1].clone());
    let parse_or = |flag: &str, default: String| value_of(flag).unwrap_or(default);
    Args {
        backend: parse_or("--backend", "thread".into()),
        workers: parse_or("--workers", "4".into())
            .parse()
            .expect("--workers takes a positive integer"),
        epochs: parse_or("--epochs", "25".into())
            .parse()
            .expect("--epochs takes a positive integer"),
        min_accuracy: parse_or("--min-accuracy", "0".into())
            .parse()
            .expect("--min-accuracy takes a float"),
        trace_path: value_of("--trace").map(std::path::PathBuf::from),
        overlap: !raw.iter().any(|a| a == "--no-overlap"),
        auto_tune: raw.iter().any(|a| a == "--auto-tune"),
        groups: parse_or("--groups", "1".into())
            .parse()
            .expect("--groups takes a positive integer"),
        reform_demo: raw.iter().any(|a| a == "--reform-demo"),
    }
}

/// The shared experiment definition: every backend and every rank must
/// build the identical task or the collectives would disagree.
fn experiment(epochs: usize) -> (Dataset, TrainConfig, impl Fn() -> Sequential + Sync + Copy) {
    let data = Dataset::rings(3, 16, 300, 1234);
    let cfg = TrainConfig {
        epochs,
        batch_size: 32,
        schedule: LrSchedule::paper_cifar(0.1, epochs),
        momentum: 0.9,
        weight_decay: 0.0,
        seed: 42,
        ..TrainConfig::default()
    };
    (data, cfg, || mlp(&[16, 64, 32, 3], 99))
}

fn acp_spec() -> Aggregator {
    // One epoch of exact averaging before compression kicks in (§ warm
    // start in the paper); without it the alternating factors start from
    // a random projection and this small model can settle at chance.
    Aggregator::AcpSgd(
        AcpSgdConfig::default()
            .with_rank(4)
            .with_warm_start_steps(8),
    )
}

/// Checks the CI convergence gate; returns the process exit code.
fn accuracy_gate(ssgd_final: f32, acp_final: f32, min_accuracy: f32) -> i32 {
    if ssgd_final < min_accuracy {
        eprintln!("FAIL: S-SGD accuracy {ssgd_final:.3} below the {min_accuracy:.3} floor");
        return 1;
    }
    if acp_final < ssgd_final - 0.1 {
        eprintln!("FAIL: ACP-SGD accuracy {acp_final:.3} trails S-SGD {ssgd_final:.3} by > 0.1");
        return 1;
    }
    0
}

/// One worker process of a `--backend tcp` run: joins the TCP group twice
/// (fresh port range per training run, since each run consumes its
/// communicator) and trains S-SGD then ACP-SGD.
fn run_tcp_worker(cfg: TcpConfig, args: &Args) -> i32 {
    let (rank, world) = (cfg.rank, cfg.world_size);
    let groups = cfg.topology.groups();
    let base_port = cfg.peers[0].port();
    let (data, mut train_cfg, model) = experiment(args.epochs);
    train_cfg.overlap = args.overlap;
    train_cfg.auto_tune = args.auto_tune;

    let comm = cfg.connect().expect("worker joins S-SGD group");
    let (ssgd, _) = train_rank(
        comm,
        &data,
        &model,
        &|| build_optimizer(&Aggregator::Ssgd),
        &train_cfg,
        false,
    );

    // Second group on the next port range; connect retries absorb the
    // skew between ranks finishing run one.
    let fault = match acp_net::FaultInjector::from_env(rank) {
        Ok(fault) => fault,
        Err(e) => {
            eprintln!("invalid ACP_NET_FAULT_* environment: {e}");
            return 2;
        }
    };
    let cfg2 = TcpConfig::local(rank, world, base_port + world as u16)
        .with_fault(fault)
        .with_groups(groups)
        .expect("launcher already validated the group layout");
    let comm = cfg2.connect().expect("worker joins ACP-SGD group");
    let spec = acp_spec();
    let (acp, telemetry) = train_rank(
        comm,
        &data,
        &model,
        &|| build_optimizer(&spec),
        &train_cfg,
        true,
    );

    if rank != 0 {
        return 0;
    }
    let epochs = args.epochs;
    println!("trained {world} TCP worker processes on the rings task, {epochs} epochs\n");
    println!("epoch  S-SGD acc  ACP-SGD acc");
    for e in (0..epochs).step_by(4).chain([epochs - 1]) {
        println!(
            "{e:>5}  {:>9.3}  {:>11.3}",
            ssgd[e].test_accuracy, acp[e].test_accuracy
        );
    }
    let ssgd_final = ssgd.last().unwrap().test_accuracy;
    let acp_final = acp.last().unwrap().test_accuracy;
    println!("\nfinal accuracy: S-SGD {ssgd_final:.3}, ACP-SGD {acp_final:.3}");

    let rank0 = telemetry.expect("instrumented run records telemetry");
    println!("\nACP-SGD metrics summary (rank 0, whole run):");
    print!("{}", summary::render(&rank0.snapshot));
    if let Some(path) = &args.trace_path {
        let mut trace = ChromeTraceBuilder::new();
        trace.process_name(0, "acp-sgd training (tcp, rank 0)");
        trace.thread_name(0, 0, "rank 0");
        trace.add_spans(0, &rank0.snapshot.spans);
        if let Err(e) = trace.write_to(path) {
            eprintln!("failed to write trace to {}: {e}", path.display());
            return 1;
        }
        println!(
            "\nwrote Chrome trace ({} events) to {}",
            trace.len(),
            path.display()
        );
    }
    accuracy_gate(ssgd_final, acp_final, args.min_accuracy)
}

/// One worker process of a `--reform-demo` run: the victim rank's
/// `ACP_NET_FAULT_EXIT_AFTER` fault kills it mid-collective; every
/// survivor observes `MembershipChanged`, calls `reform()`, and then
/// trains S-SGD to completion on the shrunk group. Exit 0 everywhere is
/// the gate: no hang, no corruption, training continues.
fn run_reform_demo_worker(cfg: TcpConfig, args: &Args) -> i32 {
    let cfg = cfg.with_op_deadline(Duration::from_secs(5));
    let mut comm = cfg.connect().expect("worker joins reform-demo group");
    let me = comm.rank_id().as_usize();

    // Warm-up collectives; the victim's exit fault fires in here.
    let mut completed = 0usize;
    let mut reformed = false;
    while completed < 6 {
        let mut buf = vec![(me + 1) as f32; 32];
        match comm.all_reduce(&mut buf, ReduceOp::Sum) {
            Ok(()) => completed += 1,
            Err(CommError::MembershipChanged { epoch, departed }) => {
                eprintln!("rank {me}: epoch {epoch} lost ranks {departed:?}; reforming");
                // A further departure can surface *during* the reform (the
                // abort cascade races the barrier); reform again until the
                // survivor set is stable.
                let membership = loop {
                    match comm.reform() {
                        Ok(m) => break m,
                        Err(CommError::MembershipChanged { departed, .. }) => {
                            eprintln!("rank {me}: more departures during reform: {departed:?}");
                        }
                        Err(e) => {
                            eprintln!("rank {me}: reform failed: {e:?}");
                            return 1;
                        }
                    }
                };
                eprintln!(
                    "rank {me}: reformed to epoch {} with {} survivors",
                    membership.epoch(),
                    membership.world_size()
                );
                reformed = true;
            }
            Err(e) => {
                eprintln!("rank {me}: unexpected collective error: {e:?}");
                return 1;
            }
        }
    }
    if !reformed {
        eprintln!("rank {me}: the injected crash never surfaced as a membership change");
        return 1;
    }

    // Continued training on the reformed (smaller, flat) group.
    let vrank = comm.rank_id().as_usize();
    let world = comm.membership().world_size();
    let (data, train_cfg, model) = experiment(args.epochs.min(4));
    let (history, _) = train_rank(
        comm,
        &data,
        &model,
        &|| build_optimizer(&Aggregator::Ssgd),
        &train_cfg,
        false,
    );
    if vrank == 0 {
        println!(
            "reform demo: {world} survivors trained {} epochs after the crash, final accuracy {:.3}",
            history.len(),
            history.last().map(|h| h.test_accuracy).unwrap_or(0.0)
        );
    }
    0
}

/// The `--reform-demo` launcher: injects an exit fault on rank 1 via the
/// `ACP_NET_FAULT_*` environment (inherited by the children) and requires
/// every process — victim included — to exit cleanly.
fn run_reform_demo_launcher(args: &Args) -> i32 {
    std::env::set_var(acp_net::fault::ENV_FAULT_RANK, "1");
    std::env::set_var(acp_net::fault::ENV_FAULT_EXIT_AFTER, "3");
    let code = run_tcp_launcher(args);
    std::env::remove_var(acp_net::fault::ENV_FAULT_RANK);
    std::env::remove_var(acp_net::fault::ENV_FAULT_EXIT_AFTER);
    if code == 0 {
        println!("reform demo passed: crash surfaced, group reformed, training finished");
    }
    code
}

/// The `--backend tcp` launcher: re-executes this binary as one process
/// per rank and aggregates their exit statuses.
fn run_tcp_launcher(args: &Args) -> i32 {
    // Each worker uses two consecutive port ranges (one per training run).
    let ports_needed = (args.workers * 2) as u16;
    let base_port = pick_base_port(ports_needed);
    let exe = std::env::current_exe().expect("current executable path");
    let forwarded: Vec<String> = std::env::args().skip(1).collect();
    let group = launch_local_grouped(&exe, &forwarded, args.workers, base_port, args.groups)
        .expect("spawn TCP worker processes");
    let statuses = group.wait().expect("collect worker exit statuses");
    let mut code = 0;
    for (rank, status) in statuses {
        if !status.success() {
            eprintln!("worker rank {rank} failed: {status}");
            code = 1;
        }
    }
    code
}

/// Finds a base port with `count` consecutive free ports on loopback.
/// Best effort — establishment retries absorb the (unlikely) race of
/// another process grabbing one between the probe and the bind.
fn pick_base_port(count: u16) -> u16 {
    for _ in 0..16 {
        let probe = std::net::TcpListener::bind("127.0.0.1:0").expect("probe ephemeral port");
        let base = probe.local_addr().expect("probe addr").port();
        drop(probe);
        if base < 1024 || base > u16::MAX - count {
            continue;
        }
        let all_free =
            (0..count).all(|i| std::net::TcpListener::bind(("127.0.0.1", base + i)).is_ok());
        if all_free {
            return base;
        }
    }
    29_500
}

/// The original in-process comparison: four thread workers, three
/// aggregators, full telemetry.
fn run_thread_backend(args: &Args) -> i32 {
    let workers = args.workers;
    let epochs = args.epochs;
    let (data, mut cfg, model) = experiment(epochs);
    cfg.overlap = args.overlap;
    cfg.auto_tune = args.auto_tune;

    println!("training {workers} data-parallel workers on the rings task, {epochs} epochs\n");
    let ssgd = train_distributed(
        workers,
        &data,
        model,
        || build_optimizer(&Aggregator::Ssgd),
        &cfg,
    );
    let power_spec = Aggregator::PowerSgd(PowerSgdConfig::default().with_rank(4));
    let power = train_distributed(workers, &data, model, || build_optimizer(&power_spec), &cfg);
    let spec = acp_spec();
    let report =
        train_distributed_instrumented(workers, &data, model, || build_optimizer(&spec), &cfg);
    let acp = &report.history;

    println!("epoch  S-SGD acc  Power-SGD acc  ACP-SGD acc");
    for e in (0..epochs).step_by(4).chain([epochs - 1]) {
        println!(
            "{e:>5}  {:>9.3}  {:>13.3}  {:>11.3}",
            ssgd[e].test_accuracy, power[e].test_accuracy, acp[e].test_accuracy
        );
    }
    let ssgd_final = ssgd.last().unwrap().test_accuracy;
    let acp_final = acp.last().unwrap().test_accuracy;
    println!(
        "\nfinal accuracy: S-SGD {:.3}, Power-SGD {:.3}, ACP-SGD {:.3}",
        ssgd_final,
        power.last().unwrap().test_accuracy,
        acp_final,
    );
    println!("(the paper's Fig. 6 claim: all three converge to the same accuracy)");

    // Per-step telemetry of the ACP-SGD run, rank 0's first steps.
    let rank0 = &report.ranks[0];
    let shown = rank0.steps.len().min(8);
    println!("\nACP-SGD per-step telemetry (rank 0, first {shown} steps):");
    print!("{}", render_step_table(&rank0.steps[..shown]));
    println!("\nACP-SGD metrics summary (rank 0, whole run):");
    print!("{}", summary::render(&rank0.snapshot));

    if let Some(path) = &args.trace_path {
        // One process, one track per rank. Each rank's recorder has its own
        // epoch (thread start), so tracks are aligned only approximately.
        let mut trace = ChromeTraceBuilder::new();
        trace.process_name(0, "acp-sgd training");
        for rank in &report.ranks {
            trace.thread_name(0, rank.rank as u64, &format!("rank {}", rank.rank));
            trace.add_spans(0, &rank.snapshot.spans);
        }
        match trace.write_to(path) {
            Ok(()) => println!(
                "\nwrote Chrome trace ({} events) to {}",
                trace.len(),
                path.display()
            ),
            Err(e) => {
                eprintln!("failed to write trace to {}: {e}", path.display());
                return 1;
            }
        }
    }
    accuracy_gate(ssgd_final, acp_final, args.min_accuracy)
}

fn main() {
    let args = parse_args();
    // A process spawned by the TCP launcher carries the ACP_NET_* worker
    // environment; it runs one rank's loop and exits.
    match worker_from_env() {
        Ok(Some(cfg)) if args.reform_demo => std::process::exit(run_reform_demo_worker(cfg, &args)),
        Ok(Some(cfg)) => std::process::exit(run_tcp_worker(cfg, &args)),
        Ok(None) => {}
        Err(e) => {
            eprintln!("invalid ACP_NET_* worker environment: {e}");
            std::process::exit(2);
        }
    }
    let code = if args.reform_demo {
        run_reform_demo_launcher(&args)
    } else {
        match args.backend.as_str() {
            "thread" => run_thread_backend(&args),
            "tcp" => run_tcp_launcher(&args),
            other => {
                eprintln!("unknown --backend {other:?} (expected \"thread\" or \"tcp\")");
                2
            }
        }
    };
    std::process::exit(code);
}
