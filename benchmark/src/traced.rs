//! The traced pass: a shorter run with an `InMemoryRecorder` attached
//! through the public `set_recorder`, a benchmark-side span around every
//! call into a layer, after the fixed-size probes of each layer. It yields
//! the per-layer metrics; end-to-end numbers never come from here.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use acp_collectives::{AlphaBetaCost, ClusterCost, Communicator, LocalCommunicator};
use acp_core::{CoreError, DistributedOptimizer};
use acp_serve::ServerStats;
use acp_telemetry::{keys, noop, ChromeTraceBuilder, InMemoryRecorder, SpanRecord};

use crate::aggregate::{agree_to_continue, RankState};
use crate::cli::Args;
use crate::group;
use crate::probes;
use crate::stats::{layers_json, median, Metric, Outcome};
use crate::trace::{add_to_chrome, cover_us, summarize, BenchSpan, CommCall, RankTracer};
use crate::workload::{Transport, Workload, ALL_AGGS, WORLD};

/// Share of `--seconds` the attributed aggregation loop may use; the
/// probes before it are fixed-size.
const ATTRIBUTION_SHARE: f64 = 0.4;

/// Upper bound on attributed rounds, which bounds the spans kept in
/// memory and the size of the Chrome trace.
const MAX_ROUNDS: usize = 12;

/// Directory the artefacts go to, inside the benchmark's own directory.
const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

/// What one aggregator accumulated on one rank.
#[derive(Default, Clone)]
struct AggTotals {
    /// Milliseconds per traced sample (mean of two iterations).
    traced_ms: Vec<f64>,
    iterations: u64,
    /// Bytes this rank put on the wire during traced iterations.
    bytes: u64,
    /// `COMPRESS_TIME_US` the aggregator recorded, microseconds.
    compress_us: f64,
}

/// What one rank brings back from the attributed loop.
struct RankTrace {
    rank: usize,
    aggs: Vec<AggTotals>,
    /// ACP-SGD samples taken with nothing attached, interleaved with the
    /// traced ones: the baseline of `telemetry.trace_overhead_pct`.
    untraced_acp_ms: Vec<f64>,
    /// Digest after every traced sample, for cross-rank agreement.
    hashes: Vec<u64>,
    /// Aggregator of each iteration identifier.
    labels: Vec<&'static str>,
    bench: Vec<BenchSpan>,
    calls: Vec<CommCall>,
    recorded: Vec<SpanRecord>,
    error: Option<String>,
}

fn set_recorders(
    comm: &mut dyn Communicator,
    opt: &mut dyn DistributedOptimizer,
    tracer: Option<&RankTracer>,
) {
    let handle = tracer.map_or_else(noop, RankTracer::recorder);
    comm.set_recorder(handle.clone());
    opt.set_recorder(handle);
}

fn attributed_rounds(
    state: &mut RankState<'_>,
    comm: &mut dyn Communicator,
    tracer: &RankTracer,
    layer: &'static str,
    args: &Args,
    out: &mut RankTrace,
) -> Result<(), CoreError> {
    let acp = ALL_AGGS.iter().position(|a| *a == "acpsgd").unwrap_or(0);
    let max_rounds = if args.smoke { 1 } else { MAX_ROUNDS };
    let budget = args.seconds * ATTRIBUTION_SHARE;
    let clock = Instant::now();
    let mut rounds = 0;
    loop {
        let go = rounds == 0 || (clock.elapsed().as_secs_f64() < budget && rounds < max_rounds);
        if !agree_to_continue(comm, go)? {
            return Ok(());
        }
        for (k, agg) in ALL_AGGS.iter().enumerate() {
            set_recorders(comm, state.optimizer(k), Some(tracer));
            let bytes_before = comm.bytes_sent();
            let compress_before = tracer.memory().value_sum(keys::COMPRESS_TIME_US);
            let mut ms = 0.0;
            for _ in 0..2 {
                tracer.set_iteration(out.labels.len() as u64);
                out.labels.push(*agg);
                ms += state.iteration(k, comm, Some((tracer, layer)))? / 2.0;
            }
            let totals = &mut out.aggs[k];
            totals.traced_ms.push(ms);
            totals.iterations += 2;
            totals.bytes += comm.bytes_sent() - bytes_before;
            totals.compress_us +=
                tracer.memory().value_sum(keys::COMPRESS_TIME_US) - compress_before;
            out.hashes.push(state.digest());
            set_recorders(comm, state.optimizer(k), None);
        }
        let first = state.iteration(acp, comm, None)?;
        let second = state.iteration(acp, comm, None)?;
        out.untraced_acp_ms.push((first + second) / 2.0);
        rounds += 1;
    }
}

fn rank_trace(
    comm: &mut dyn Communicator,
    shapes: &[Vec<usize>],
    workload: &Workload,
    recorders: &[Arc<InMemoryRecorder>],
    args: &Args,
) -> RankTrace {
    let rank = comm.rank();
    let tracer = RankTracer::new(recorders[rank].clone(), rank);
    let mut out = RankTrace {
        rank,
        aggs: vec![AggTotals::default(); ALL_AGGS.len()],
        untraced_acp_ms: Vec::new(),
        hashes: Vec::new(),
        labels: Vec::new(),
        bench: Vec::new(),
        calls: Vec::new(),
        recorded: Vec::new(),
        error: None,
    };
    let result = RankState::setup(shapes, workload.buffer_bytes(), &ALL_AGGS, args.seed, comm)
        .and_then(|mut state| {
            let layer = workload.transport.layer();
            attributed_rounds(&mut state, comm, &tracer, layer, args, &mut out)
        });
    out.error = result.err().map(|e| e.to_string());
    (out.bench, out.calls) = tracer.take();
    out.recorded = tracer.memory().spans();
    out
}

/// Per-iteration totals of aggregator `agg` on one rank, from its spans.
struct Attribution {
    push_us: u64,
    finish_us: u64,
    comm_busy_us: u64,
    calls: u64,
    spans: u64,
    /// α–β price of the recorded collectives as all-reduces, seconds;
    /// meaningful for the aggregators that issue nothing else.
    predicted_s: f64,
}

fn attribute(trace: &RankTrace, agg: &str, layer: &str, cost: &ClusterCost) -> Attribution {
    let mine = |iter: u64| trace.labels[iter as usize] == agg;
    let mut a = Attribution {
        push_us: 0,
        finish_us: 0,
        comm_busy_us: 0,
        calls: 0,
        spans: 0,
        predicted_s: 0.0,
    };
    let rank = trace.rank as u64;
    // Communication is busy while the transport runs a collective on its
    // worker (spans the program records) or inside a blocking call from
    // this thread (spans the traced communicator takes).
    let worker_busy: Vec<(u64, u64)> = trace
        .recorded
        .iter()
        .filter(|s| s.cat == keys::CAT_COMM && s.track == rank)
        .map(|s| (s.start_us, s.end_us))
        .collect();
    for window in trace
        .bench
        .iter()
        .filter(|s| s.name == "iteration" && mine(s.iter))
    {
        let mut busy = worker_busy.clone();
        let inside = trace.recorded.iter().filter(|s| {
            s.track == rank && s.start_us >= window.start_us && s.end_us <= window.end_us
        });
        a.spans += 1 + inside.count() as u64;
        for s in trace.bench.iter().filter(|s| s.iter == window.iter) {
            let duration = s.end_us - s.start_us;
            match s.name {
                "core.push_ready" => a.push_us += duration,
                "core.finish_overlap" => a.finish_us += duration,
                _ if s.layer == layer => busy.push((s.start_us, s.end_us)),
                _ => {}
            }
            a.spans += u64::from(s.name != "iteration");
        }
        let clipped = busy
            .into_iter()
            .map(|(start, end)| (start.max(window.start_us), end.min(window.end_us)))
            .filter(|(start, end)| start < end)
            .collect();
        a.comm_busy_us += cover_us(clipped);
    }
    for call in trace.calls.iter().filter(|c| mine(c.iter)) {
        a.calls += 1;
        a.predicted_s += cost.all_reduce_time(call.bytes as usize);
    }
    a
}

/// `core.local_agg_ms.<agg>`: `aggregate` over the workload's gradients
/// against `LocalCommunicator` — codec plus pack/unpack with no
/// communication, the single-worker baseline. What is left of an
/// iteration after it is the workload's communication share.
fn local_aggregation(
    workload: &Workload,
    args: &Args,
    out: &mut Vec<Metric>,
) -> Result<(), String> {
    let shapes = workload.shapes();
    let mut comm = LocalCommunicator::new();
    let reps = if args.smoke { 1 } else { 3 };
    let mut state = RankState::setup(
        &shapes,
        workload.buffer_bytes(),
        &ALL_AGGS,
        args.seed,
        &mut comm,
    )
    .map_err(|e| format!("local aggregation: {e}"))?;
    for (k, agg) in ALL_AGGS.iter().enumerate() {
        let mut ms = Vec::new();
        for _ in 0..reps {
            let first = state.blocking_iteration(k, &mut comm);
            let second = state.blocking_iteration(k, &mut comm);
            match (first, second) {
                (Ok(a), Ok(b)) => ms.push((a + b) / 2.0),
                (Err(e), _) | (_, Err(e)) => return Err(format!("local {agg}: {e}")),
            }
        }
        out.push(Metric::new(
            format!("core.local_agg_ms.{agg}"),
            median(&ms),
            "ms",
            ms.len(),
        ));
    }
    Ok(())
}

fn per_iteration(total: f64, iterations: u64) -> f64 {
    total / iterations.max(1) as f64
}

/// Runs the traced pass of `workload` and writes its artefacts.
///
/// # Errors
///
/// Returns a description when the pass cannot produce every metric.
pub fn run(workload: &Workload, args: &Args) -> Result<Outcome, String> {
    let mut metrics = Vec::new();
    let mut correct = true;

    // Fixed-size probes of each layer first: the fitted α–β of the
    // workload's transport prices its recorded collectives below.
    probes::tensor(&mut metrics)?;
    probes::compression(&mut metrics);
    let mut workload_fit = None;
    let mut served = ServerStats::default();
    let mut add_server = |stats: Option<ServerStats>| {
        if let Some(s) = stats {
            served.steps += s.steps;
            served.busy_rejects += s.busy_rejects;
            served.schedule_mismatches += s.schedule_mismatches;
        }
    };
    for transport in [Transport::Thread, Transport::Tcp, Transport::Served] {
        let (fit, stats) = probes::transport(transport, args.smoke, &mut metrics)?;
        if transport == workload.transport {
            workload_fit = Some(fit);
        }
        add_server(stats);
    }
    probes::codecs(&mut metrics)?;
    let mut training_spans = Vec::new();
    correct &= probes::training(args, &mut metrics, &mut training_spans)?;
    probes::telemetry(&mut metrics);
    probes::simulator(&mut metrics)?;
    local_aggregation(workload, args, &mut metrics)?;

    // The attributed loop on the workload's own catalog and transport.
    let shapes = workload.shapes();
    let recorders: Vec<Arc<InMemoryRecorder>> = (0..WORLD)
        .map(|_| Arc::new(InMemoryRecorder::new()))
        .collect();
    let run = group::run(workload.transport, |comm| {
        rank_trace(comm, &shapes, workload, &recorders, args)
    })?;
    add_server(run.server);
    let traces = run.ranks;
    let mut failed = 0u64;
    for trace in &traces {
        if let Some(e) = &trace.error {
            eprintln!("error: {e}");
            failed += 1;
        }
    }
    let rank0 = &traces[0];
    for (i, hash) in rank0.hashes.iter().enumerate() {
        if traces.iter().any(|t| t.hashes.get(i) != Some(hash)) {
            eprintln!("error: traced sample {i}: ranks disagree");
            failed += 1;
        }
    }
    let fit = workload_fit.ok_or("no fit for the workload's transport")?;
    let cost = ClusterCost::with_cost(WORLD, AlphaBetaCost::from(fit));
    let layer = workload.transport.layer();
    let mut traced_median = Vec::new();
    for (k, agg) in ALL_AGGS.iter().enumerate() {
        let totals = &rank0.aggs[k];
        if totals.traced_ms.is_empty() {
            return Err(format!("{agg} completed no traced sample"));
        }
        let n = totals.iterations;
        let a = attribute(rank0, agg, layer, &cost);
        let samples = totals.traced_ms.len();
        let mut push = |name: &str, value: f64, unit: &'static str| {
            metrics.push(Metric::new(format!("{name}.{agg}"), value, unit, samples));
        };
        push(
            "core.compress_ms",
            per_iteration(totals.compress_us / 1e3, n),
            "ms",
        );
        push(
            "core.push_ms",
            per_iteration(a.push_us as f64 / 1e3, n),
            "ms",
        );
        push(
            "core.finish_ms",
            per_iteration(a.finish_us as f64 / 1e3, n),
            "ms",
        );
        push(
            "collectives.comm_busy_ms",
            per_iteration(a.comm_busy_us as f64 / 1e3, n),
            "ms",
        );
        push(
            "collectives.bytes_per_iter",
            per_iteration(totals.bytes as f64, n),
            "B",
        );
        push(
            "collectives.calls_per_iter",
            per_iteration(a.calls as f64, n),
            "count",
        );
        if matches!(*agg, "ssgd" | "acpsgd") {
            push(
                "simulator.pred_comm_ms",
                per_iteration(a.predicted_s * 1e3, n),
                "ms",
            );
        }
        if matches!(*agg, "dgc" | "gtopk") {
            push("derived.iter_ms", median(&totals.traced_ms), "ms");
        }
        if *agg == "acpsgd" {
            metrics.push(Metric::new(
                "telemetry.spans_per_iter",
                per_iteration(a.spans as f64, n),
                "count",
                samples,
            ));
        }
        traced_median.push(median(&totals.traced_ms));
    }
    let traced_of = |agg: &str| {
        ALL_AGGS
            .iter()
            .position(|a| *a == agg)
            .map_or(f64::NAN, |k| traced_median[k])
    };
    let untraced = median(&rank0.untraced_acp_ms);
    metrics.push(Metric::new(
        "telemetry.trace_overhead_pct",
        100.0 * (traced_of("acpsgd") / untraced - 1.0),
        "%",
        rank0.untraced_acp_ms.len(),
    ));
    for baseline in ["ssgd", "powersgd"] {
        metrics.push(Metric::new(
            format!("derived.speedup_acpsgd_vs_{baseline}"),
            traced_of(baseline) / traced_of("acpsgd"),
            "x",
            rank0.untraced_acp_ms.len(),
        ));
    }
    for (name, total) in [
        ("steps", served.steps),
        ("busy_rejects", served.busy_rejects),
        ("schedule_mismatches", served.schedule_mismatches),
    ] {
        let name = format!("serve.{name}");
        metrics.push(Metric::new(name, total as f64, "count", 1));
    }
    correct &= served.busy_rejects == 0 && served.schedule_mismatches == 0;

    // Artefacts: a Chrome trace of both sides' spans and the layer table.
    let mut chrome = ChromeTraceBuilder::new();
    for trace in &traces {
        add_to_chrome(&mut chrome, &trace.labels, &trace.bench, &trace.recorded);
    }
    for (i, t) in training_spans.iter().enumerate() {
        let pid = 3 + i as u64;
        chrome.process_name(pid, &format!("training probe, {} (first 100 ms)", t.agg));
        chrome.add_spans(pid, &t.spans);
    }
    let summary = summarize(&rank0.bench);
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("create {OUT_DIR}: {e}"))?;
    let trace_path = Path::new(OUT_DIR).join(format!("trace-{}.json", workload.name));
    chrome
        .write_to(&trace_path)
        .map_err(|e| format!("write {}: {e}", trace_path.display()))?;
    let layers_path = Path::new(OUT_DIR).join(format!("layers-{}.json", workload.name));
    std::fs::write(&layers_path, layers_json(workload.name, &metrics, &summary))
        .map_err(|e| format!("write {}: {e}", layers_path.display()))?;
    eprintln!(
        "wrote {} ({} events) and {}",
        trace_path.display(),
        chrome.len(),
        layers_path.display()
    );
    eprintln!(
        "acpsgd traced {:.3} ms, untraced {:.3} ms",
        traced_of("acpsgd"),
        untraced
    );
    for m in &metrics {
        eprintln!(
            "{:<44} {:>14.4} {:<6} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }

    let attempted = rank0.hashes.len() as u64 + rank0.untraced_acp_ms.len() as u64;
    Ok(Outcome {
        metrics,
        attempted: attempted.max(1),
        failed,
        correct: correct && failed == 0,
    })
}
