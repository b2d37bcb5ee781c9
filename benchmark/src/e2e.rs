//! The untraced pass: what a user of the system would see. No recorder is
//! attached anywhere and no benchmark-side span is taken.

use std::time::Instant;

use acp_collectives::Communicator;

use crate::aggregate::{agree_to_continue, RankState};
use crate::cli::Args;
use crate::group;
use crate::stats::{median, peak_rss_mb, tail, Metric, Outcome};
use crate::train::{self, train_call, TrainCall, FULL_EPOCHS, SHORT_EPOCHS, TARGET_ACCURACY};
use crate::workload::{Kind, Workload, E2E_AGGS, TRAINED_AGGS, WORLD};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

/// Rounds every aggregation run completes whatever `--seconds` says, so
/// the cross-backend digest is always taken at the same iteration.
const MIN_ROUNDS: usize = 3;

/// Runs the untraced pass of `workload`.
///
/// # Errors
///
/// Returns a description when the run cannot produce every metric.
pub fn run(workload: &Workload, args: &Args) -> Result<Outcome, String> {
    match workload.kind {
        Kind::Aggregate => run_aggregation(workload, args),
        Kind::Train => run_training(args),
    }
}

/// What one rank reports from an aggregation session.
struct RankReport {
    setup_done: Instant,
    /// Per aggregator: milliseconds per sample on this rank's clock.
    samples: Vec<Vec<f64>>,
    /// Per aggregator: digest of this rank's result after each sample.
    hashes: Vec<Vec<u64>>,
    attempted: u64,
    /// Digest of an S-SGD result that was compared element by element
    /// with the exact average, and whether it matched.
    ssgd_reference: Option<(u64, bool)>,
    error: Option<String>,
}

fn rank_session(
    comm: &mut dyn Communicator,
    shapes: &[Vec<usize>],
    workload: &Workload,
    args: &Args,
    measure: bool,
) -> RankReport {
    let state = RankState::setup(shapes, workload.buffer_bytes(), &E2E_AGGS, args.seed, comm);
    let mut report = RankReport {
        setup_done: Instant::now(),
        samples: vec![Vec::new(); E2E_AGGS.len()],
        hashes: vec![Vec::new(); E2E_AGGS.len()],
        attempted: 0,
        ssgd_reference: None,
        error: None,
    };
    match state {
        Err(e) => report.error = Some(format!("set-up: {e}")),
        Ok(mut state) if measure => {
            if let Err(e) = measure_rounds(&mut state, comm, args, &mut report) {
                report.error = Some(e.to_string());
            }
        }
        Ok(_) => {}
    }
    report
}

fn measure_rounds(
    state: &mut RankState<'_>,
    comm: &mut dyn Communicator,
    args: &Args,
    report: &mut RankReport,
) -> Result<(), acp_core::CoreError> {
    let (min_rounds, max_rounds) = if args.smoke {
        (1, 1)
    } else {
        (MIN_ROUNDS, usize::MAX)
    };
    let clock = Instant::now();
    let mut rounds = 0;
    loop {
        let in_time = clock.elapsed().as_secs_f64() < args.seconds && rounds < max_rounds;
        if !agree_to_continue(comm, rounds < min_rounds || in_time)? {
            break;
        }
        // One sample of every aggregator per round: a slow minute on a
        // shared machine is then spread over all of them.
        for k in 0..E2E_AGGS.len() {
            report.attempted += 1;
            // ACP-SGD alternates a P step and a Q step of different cost,
            // so a sample is the mean of two consecutive iterations.
            let first = state.iteration(k, comm, None)?;
            let second = state.iteration(k, comm, None)?;
            report.samples[k].push((first + second) / 2.0);
            report.hashes[k].push(state.digest());
        }
        rounds += 1;
    }
    let ssgd = E2E_AGGS.iter().position(|a| *a == "ssgd").unwrap_or(0);
    state.iteration(ssgd, comm, None)?;
    let exact = state.holds_exact_average(args.seed, comm.rank());
    report.ssgd_reference = Some((state.digest(), exact));
    Ok(())
}

fn run_aggregation(workload: &Workload, args: &Args) -> Result<Outcome, String> {
    let shapes = workload.shapes();
    let repeats = if args.smoke { 1 } else { SETUP_REPEATS };
    let mut setups = Vec::new();
    let mut measured = None;
    // The first session is the measured one, in a process that has done
    // nothing else, and peak RSS is read right after it. The later
    // sessions only set up again: memory the allocator keeps from one
    // session to the next would otherwise make the high-water mark depend
    // on how many sessions ran.
    for repeat in 0..repeats {
        let start = Instant::now();
        let run = group::run(workload.transport, |comm| {
            rank_session(comm, &shapes, workload, args, repeat == 0)
        })?;
        let done = run.ranks.iter().map(|r| r.setup_done).max();
        setups.push(done.map_or(0.0, |d| d.duration_since(start).as_secs_f64()));
        eprintln!("set-up {}: {:.3} s", repeat + 1, setups[repeat]);
        if repeat == 0 {
            measured = Some((run, rss_metric()?));
        }
    }
    let (run, rss) = measured.ok_or("no session ran")?;
    let reports = &run.ranks;

    let mut failed = 0u64;
    let mut correct = true;
    for report in reports {
        if let Some(e) = &report.error {
            eprintln!("error: {e}");
            failed += 1;
        }
        match report.ssgd_reference {
            Some((_, true)) => {}
            _ => {
                eprintln!("error: S-SGD did not reproduce the exact average");
                correct = false;
            }
        }
    }
    for (k, agg) in E2E_AGGS.iter().enumerate() {
        let reference = reports[0].ssgd_reference.map(|(digest, _)| digest);
        for (i, hash) in reports[0].hashes[k].iter().enumerate() {
            let ranks_agree = reports.iter().all(|r| r.hashes[k].get(i) == Some(hash));
            let matches_reference = *agg != "ssgd" || Some(*hash) == reference;
            if !(ranks_agree && matches_reference) {
                eprintln!("error: {agg} sample {i}: ranks or reference disagree");
                failed += 1;
            }
        }
    }
    if let Some(stats) = run.server {
        eprintln!(
            "server: {} steps, {} busy rejects, {} schedule mismatches",
            stats.steps, stats.busy_rejects, stats.schedule_mismatches
        );
        correct &= stats.busy_rejects == 0 && stats.schedule_mismatches == 0;
    }

    let mut metrics = vec![Metric::new("setup_s", median(&setups), "s", setups.len())];
    eprintln!(
        "{:<10} {:>4} {:>10} {:>16} {:>10} {:>10}",
        "aggregator", "n", "median ms", "tail", "min ms", "max ms"
    );
    for (k, agg) in E2E_AGGS.iter().enumerate() {
        let samples = &reports[0].samples[k];
        if samples.is_empty() {
            return Err(format!("{agg} completed no sample"));
        }
        metrics.push(sample_metric(agg, samples));
        // The digest the three transports must agree on is taken at a
        // fixed iteration, whatever number of rounds the time allowed.
        let at = reports[0].hashes[k].len().min(MIN_ROUNDS) - 1;
        eprintln!("digest {agg} {:016x}", reports[0].hashes[k][at]);
    }
    print_speedups(&metrics);
    metrics.push(rss);
    Ok(Outcome {
        metrics,
        attempted: reports[0].attempted,
        failed,
        correct: correct && failed == 0,
    })
}

/// The `iter_ms.<agg>` metric of `samples`, with its table row on stderr.
fn sample_metric(agg: &str, samples: &[f64]) -> Metric {
    let tail = tail(samples).map_or_else(
        || "-".to_string(),
        |(pct, value)| format!("p{pct:.0} {value:.3}"),
    );
    eprintln!(
        "{:<10} {:>4} {:>10.3} {:>16} {:>10.3} {:>10.3}",
        agg,
        samples.len(),
        median(samples),
        tail,
        samples.iter().copied().fold(f64::INFINITY, f64::min),
        samples.iter().copied().fold(f64::NEG_INFINITY, f64::max),
    );
    Metric::new(
        format!("iter_ms.{agg}"),
        median(samples),
        "ms",
        samples.len(),
    )
}

/// ACP-SGD's speedups are not end-to-end metrics — a faster baseline would
/// count as a regression — so they go to stderr only.
fn print_speedups(metrics: &[Metric]) {
    let of = |name: &str| metrics.iter().find(|m| m.name == name).map(|m| m.value);
    if let (Some(ssgd), Some(power), Some(acp)) = (
        of("iter_ms.ssgd"),
        of("iter_ms.powersgd"),
        of("iter_ms.acpsgd"),
    ) {
        eprintln!(
            "acpsgd speedup: {:.2}x over ssgd, {:.2}x over powersgd",
            ssgd / acp,
            power / acp
        );
    }
}

fn rss_metric() -> Result<Metric, String> {
    let mb = peak_rss_mb().ok_or("VmHWM is not available in /proc/self/status")?;
    Ok(Metric::new("peak_rss_mb", mb, "MB", 1))
}

/// One untimed one-epoch call per aggregator: starts the kernel pool and
/// touches every code path before the clock starts.
fn warm_up(seed: u64) -> Result<(), String> {
    let data = train::dataset(seed);
    for agg in E2E_AGGS {
        train_call(agg, &data, &train::config(seed, 1), WORLD, false)?;
    }
    Ok(())
}

/// Checks one finished call; returns whether it passed. A converging
/// aggregator must also hold the target accuracy to the end.
fn check_call(agg: &str, call: &TrainCall, must_converge: bool) -> bool {
    let ok = call.ranks_agree()
        && call.final_loss().is_finite()
        && (!must_converge || call.epochs_to_target().is_some());
    if !ok {
        eprintln!(
            "error: {agg}: ranks disagree, loss not finite or accuracy below {TARGET_ACCURACY}"
        );
    }
    ok
}

fn run_training(args: &Args) -> Result<Outcome, String> {
    let time_setup = |setups: &mut Vec<f64>| -> Result<(), String> {
        let start = Instant::now();
        warm_up(args.seed)?;
        setups.push(start.elapsed().as_secs_f64());
        eprintln!("set-up {}: {:.3} s", setups.len(), setups[setups.len() - 1]);
        Ok(())
    };
    let mut setups = Vec::new();
    time_setup(&mut setups)?;
    let data = train::dataset(args.seed);
    let full_epochs = if args.smoke { 2 } else { FULL_EPOCHS };
    let full = train::config(args.seed, full_epochs);
    let short = train::config(args.seed, SHORT_EPOCHS.min(full_epochs));

    let mut samples: Vec<Vec<f64>> = vec![Vec::new(); E2E_AGGS.len()];
    let mut times_to_target: Vec<Vec<f64>> = vec![Vec::new(); E2E_AGGS.len()];
    let mut final_losses: Vec<Vec<u32>> = vec![Vec::new(); E2E_AGGS.len()];
    let (mut attempted, mut failed) = (0u64, 0u64);
    let index = |agg: &str| E2E_AGGS.iter().position(|a| *a == agg).unwrap_or(0);
    let mut timed_call = |agg: &str| {
        attempted += 1;
        let trained = TRAINED_AGGS.contains(&agg);
        let cfg = if trained { &full } else { &short };
        match train_call(agg, &data, cfg, WORLD, false) {
            Ok(call) => {
                if !check_call(agg, &call, trained && !args.smoke) {
                    failed += 1;
                }
                samples[index(agg)].push(call.iter_ms());
                final_losses[index(agg)].push(call.final_loss().to_bits());
                times_to_target[index(agg)].extend(call.time_to_target_s());
            }
            Err(e) => {
                eprintln!("error: {e}");
                failed += 1;
            }
        }
    };

    let clock = Instant::now();
    let mut rounds = 0usize;
    loop {
        // A round is long (three full trainings), so another one starts
        // only if at least half of it fits in the time asked for.
        let elapsed = clock.elapsed().as_secs_f64();
        let fits = elapsed + 0.5 * elapsed / rounds.max(1) as f64 <= args.seconds;
        if rounds > 0 && (args.smoke || !fits) {
            break;
        }
        for trained in TRAINED_AGGS {
            timed_call(trained);
            // The two aggregators that do not converge here run a short
            // call after every full one, so they too are sampled across
            // the whole run.
            for other in E2E_AGGS.iter().filter(|a| !TRAINED_AGGS.contains(a)) {
                timed_call(other);
            }
        }
        rounds += 1;
    }

    // Peak RSS belongs to the measured rounds; the remaining set-ups come
    // after it is read (see `run_aggregation`).
    let rss = rss_metric()?;
    for _ in 1..if args.smoke { 1 } else { SETUP_REPEATS } {
        time_setup(&mut setups)?;
    }

    let mut correct = true;
    let mut metrics = vec![Metric::new("setup_s", median(&setups), "s", setups.len())];
    eprintln!(
        "{:<10} {:>4} {:>10} {:>16} {:>10} {:>10}",
        "aggregator", "n", "median ms", "tail", "min ms", "max ms"
    );
    for (k, agg) in E2E_AGGS.iter().enumerate() {
        if samples[k].is_empty() {
            return Err(format!("{agg} completed no training call"));
        }
        metrics.push(sample_metric(agg, &samples[k]));
        // The arithmetic is deterministic: every round must end on the
        // same loss, bit for bit.
        if final_losses[k].iter().any(|l| *l != final_losses[k][0]) {
            eprintln!("error: {agg}: final loss differs between rounds");
            correct = false;
        }
        eprintln!("final_loss {agg} {:.6}", f32::from_bits(final_losses[k][0]));
        if !times_to_target[k].is_empty() {
            eprintln!(
                "tta_s {agg} {:.3} (accuracy >= {TARGET_ACCURACY} to the end)",
                median(&times_to_target[k])
            );
        }
    }
    print_speedups(&metrics);
    metrics.push(rss);
    Ok(Outcome {
        metrics,
        attempted,
        failed,
        correct: correct && failed == 0,
    })
}
