//! Load generator for the aggregation service: spins up one `acp-serve`
//! server on loopback and drives N concurrent jobs × M clients of
//! alternating dense and sparse submissions against it, then reports
//! throughput and tail latency and verifies the isolation invariants
//! (zero cross-job schedule mismatches, every step aggregated).
//!
//! ```text
//! cargo run --release -p acp-bench --example load_generator -- \
//!     --jobs 8 --clients 4 --steps 20 --elems 4096 \
//!     --assert-clean --max-p99-ms 2000
//! ```
//!
//! With `--assert-clean` the process exits non-zero if any schedule
//! mismatch was observed; with `--max-p99-ms` it additionally enforces a
//! p99 step-latency bound. CI runs both. A concurrency sweep is this
//! example run at several `--jobs` (e.g. 2, 4 and 8).

use std::net::SocketAddr;
use std::time::Instant;

use acp_collectives::{Communicator, ReduceOp};
use acp_serve::{ServeConfig, ServedCommunicator, Server};

fn arg(args: &[String], name: &str) -> Option<String> {
    args.windows(2).find(|w| w[0] == name).map(|w| w[1].clone())
}

fn parse<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> T {
    arg(args, name)
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Runs `jobs` concurrent jobs of `clients` clients each against the
/// service at `addr`, every client submitting `steps` collectives, and
/// returns each submission's round-trip latency in milliseconds.
///
/// `compressed` selects the submission shape: dense all-reduce of
/// `elems` floats, or the top-k pattern (`elems / 64` coordinate
/// all-gathers of indices then values). Panics on connection or
/// collective failure — the load generator measures a healthy service.
fn drive_jobs(
    addr: SocketAddr,
    job_base: u64,
    jobs: usize,
    clients: u32,
    steps: usize,
    elems: usize,
    compressed: bool,
) -> Vec<f64> {
    let handles: Vec<_> = (0..jobs)
        .flat_map(|j| {
            (0..clients).map(move |c| {
                std::thread::spawn(move || {
                    let job = job_base + j as u64;
                    let mut comm = ServedCommunicator::connect(addr, job, c, clients)
                        .expect("load generator connects");
                    let k = (elems / 64).max(1);
                    let mut latencies = Vec::with_capacity(steps);
                    for step in 0..steps {
                        let started = Instant::now();
                        if compressed {
                            let indices: Vec<u32> = (0..k as u32).map(|i| i * 64 + c).collect();
                            let values: Vec<f32> =
                                (0..k).map(|i| (i + step) as f32 * 1e-3).collect();
                            comm.all_gather_u32(&indices).expect("index gather");
                            comm.all_gather_f32(&values).expect("value gather");
                        } else {
                            let mut buf = vec![(step as f32) * 1e-3; elems];
                            comm.all_reduce(&mut buf, ReduceOp::Sum)
                                .expect("all-reduce");
                        }
                        latencies.push(started.elapsed().as_secs_f64() * 1e3);
                    }
                    latencies
                })
            })
        })
        .collect();
    handles
        .into_iter()
        .flat_map(|h| h.join().expect("load-generator client panicked"))
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let jobs: usize = parse(&args, "--jobs", 8);
    let clients: u32 = parse(&args, "--clients", 4);
    let steps: usize = parse(&args, "--steps", 20);
    let elems: usize = parse(&args, "--elems", 4096);
    let assert_clean = args.iter().any(|a| a == "--assert-clean");
    let max_p99_ms: f64 = parse(&args, "--max-p99-ms", f64::INFINITY);

    let server = Server::spawn(ServeConfig {
        shards: 4,
        ..ServeConfig::default()
    })
    .expect("bind loopback server");
    println!(
        "driving {jobs} jobs x {clients} clients x {steps} steps ({elems} elems) \
         against {}",
        server.addr()
    );

    let started = Instant::now();
    let mut latencies = Vec::new();
    // Dense and sparse fleets run back to back on the same server, under
    // disjoint job-id ranges.
    for (base, compressed) in [(0u64, false), (1000, true)] {
        latencies.extend(drive_jobs(
            server.addr(),
            base,
            jobs,
            clients,
            steps,
            elems,
            compressed,
        ));
    }
    let wall_s = started.elapsed().as_secs_f64();
    latencies.sort_by(|a, b| a.total_cmp(b));
    let stats = server.stats();
    // Dense jobs submit 1 collective per step, sparse jobs 2 (indices +
    // values), each aggregated exactly once.
    let expected_steps = (jobs * steps) as u64 * 3;
    let p50 = percentile(&latencies, 0.50);
    let p99 = percentile(&latencies, 0.99);
    println!(
        "wall {wall_s:.2}s  steps {}/{}  jobs/s {:.2}  p50 {p50:.3}ms  p99 {p99:.3}ms  \
         busy-rejects {}  schedule-mismatches {}",
        stats.steps,
        expected_steps,
        2.0 * jobs as f64 / wall_s,
        stats.busy_rejects,
        stats.schedule_mismatches
    );

    let mut failed = false;
    if stats.steps != expected_steps {
        eprintln!(
            "FAIL: {} aggregation steps completed, expected {expected_steps}",
            stats.steps
        );
        failed = true;
    }
    if assert_clean && stats.schedule_mismatches != 0 {
        eprintln!(
            "FAIL: {} cross-job schedule mismatches (must be 0)",
            stats.schedule_mismatches
        );
        failed = true;
    }
    if p99 > max_p99_ms {
        eprintln!("FAIL: p99 {p99:.3}ms exceeds the {max_p99_ms:.0}ms bound");
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    println!("clean: no mismatches, all steps aggregated");
}
