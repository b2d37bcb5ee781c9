//! Benchmark of the ACP-SGD stack: iteration time of the paper's
//! aggregators over thread, TCP and served transports, training time of a
//! small MLP, and per-layer attribution. See `README.md` beside this
//! crate's manifest.
//!
//! Stdout carries exactly one line, the result object; everything else —
//! progress, tables, digests, errors, panics — goes to stderr.

mod aggregate;
mod cli;
mod e2e;
mod group;
mod probes;
mod stats;
mod trace;
mod traced;
mod train;
mod workload;

use std::process::ExitCode;

fn main() -> ExitCode {
    let args = match cli::parse(std::env::args().skip(1)).and_then(|args| {
        cli::refuse_env_knobs()?;
        Ok(args)
    }) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{}", cli::USAGE);
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "{} seed {} seconds {} trace {} ({} hardware threads)",
        args.workload.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let outcome = if args.trace {
        traced::run(&args.workload, &args)
    } else {
        e2e::run(&args.workload, &args)
    };
    match outcome {
        Ok(outcome) => {
            println!("{}", outcome.result_line());
            if outcome.correct {
                ExitCode::SUCCESS
            } else {
                eprintln!("error: a correctness check failed");
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
