//! The per-step telemetry every aggregator reports, pinned from outside.
//!
//! Each of the seven aggregators, plus ACP-SGD and Power-SGD with a
//! two-step warm start, runs four steps on a two-rank group against an
//! [`InMemoryRecorder`] per rank. Pinned: the exact dense and payload byte
//! counters, one compression ratio and one aggregate latency per step, and
//! the error-feedback residual norms — how many there are, and that each
//! one is bit for bit the norm the aggregator's own diagnostic reports
//! after that step.

use std::sync::Arc;

use acp_collectives::{Communicator, ThreadGroup};
use acp_core::{
    build_optimizer, AcpSgdAggregator, AcpSgdConfig, Aggregator, DgcAggregator, DgcConfig,
    DistributedOptimizer, GTopkSgdAggregator, GradViewMut, PowerSgdAggregator, PowerSgdConfig,
    SSgdAggregator, SignSgdAggregator, SignSgdConfig, TopkSgdAggregator, TopkSgdConfig,
};
use acp_telemetry::{keys, InMemoryRecorder};

const STEPS: usize = 4;
const BUFFER_BYTES: usize = 400;
const SHAPES: [&[usize]; 5] = [&[6, 5], &[7], &[16, 12], &[3, 4], &[9]];

/// An aggregator together with the diagnostic its recorded residual norm
/// must equal (`None` where it records none).
trait Diagnosed: DistributedOptimizer {
    fn diagnostic(&self) -> Option<f32>;
}

impl Diagnosed for SSgdAggregator {
    fn diagnostic(&self) -> Option<f32> {
        None
    }
}

impl Diagnosed for SignSgdAggregator {
    fn diagnostic(&self) -> Option<f32> {
        Some(self.residual_norm())
    }
}

impl Diagnosed for TopkSgdAggregator {
    fn diagnostic(&self) -> Option<f32> {
        Some(self.residual_norm())
    }
}

impl Diagnosed for GTopkSgdAggregator {
    fn diagnostic(&self) -> Option<f32> {
        Some(self.residual_norm())
    }
}

impl Diagnosed for DgcAggregator {
    fn diagnostic(&self) -> Option<f32> {
        Some(self.accumulated_norm())
    }
}

impl Diagnosed for PowerSgdAggregator {
    fn diagnostic(&self) -> Option<f32> {
        Some(self.total_error_norm())
    }
}

impl Diagnosed for AcpSgdAggregator {
    fn diagnostic(&self) -> Option<f32> {
        Some(self.total_error_norm())
    }
}

/// One pinned run: the factory spec, a concrete twin built from the same
/// configuration, the payload bytes one rank reports over the run, and
/// how many residual norms it records.
struct Case {
    spec: Aggregator,
    twin: fn() -> Box<dyn Diagnosed>,
    payload_bytes: u64,
    norms: usize,
}

fn cases() -> Vec<Case> {
    let sign = SignSgdConfig::default();
    let topk = TopkSgdConfig::default().with_density(0.25);
    let dgc = DgcConfig::default().with_density(0.25);
    let power = PowerSgdConfig::default().with_rank(2);
    let acp = AcpSgdConfig::default().with_rank(2);
    vec![
        Case {
            spec: Aggregator::Ssgd,
            twin: || Box::new(SSgdAggregator::new()),
            payload_bytes: 4000,
            norms: 0,
        },
        Case {
            spec: Aggregator::SignSgd(sign),
            twin: || Box::new(SignSgdAggregator::from_config(SignSgdConfig::default())),
            payload_bytes: 240,
            norms: 0,
        },
        Case {
            spec: Aggregator::Topk(topk),
            twin: || {
                Box::new(TopkSgdAggregator::from_config(
                    TopkSgdConfig::default().with_density(0.25),
                ))
            },
            payload_bytes: 2096,
            norms: STEPS,
        },
        Case {
            spec: Aggregator::GTopk { density: 0.25 },
            twin: || Box::new(GTopkSgdAggregator::new(0.25)),
            payload_bytes: 2096,
            norms: STEPS,
        },
        Case {
            spec: Aggregator::Dgc(dgc),
            twin: || Box::new(DgcAggregator::new(DgcConfig::default().with_density(0.25))),
            payload_bytes: 2096,
            norms: STEPS,
        },
        Case {
            spec: Aggregator::PowerSgd(power),
            twin: || {
                Box::new(PowerSgdAggregator::new(
                    PowerSgdConfig::default().with_rank(2),
                ))
            },
            payload_bytes: 1728,
            norms: STEPS,
        },
        Case {
            spec: Aggregator::AcpSgd(acp),
            twin: || Box::new(AcpSgdAggregator::new(AcpSgdConfig::default().with_rank(2))),
            payload_bytes: 992,
            norms: STEPS,
        },
        Case {
            spec: Aggregator::PowerSgd(power.with_warm_start_steps(2)),
            twin: || {
                Box::new(PowerSgdAggregator::new(
                    PowerSgdConfig::default()
                        .with_rank(2)
                        .with_warm_start_steps(2),
                ))
            },
            payload_bytes: 2864,
            norms: STEPS - 2,
        },
        Case {
            spec: Aggregator::AcpSgd(acp.with_warm_start_steps(2)),
            twin: || {
                Box::new(AcpSgdAggregator::new(
                    AcpSgdConfig::default()
                        .with_rank(2)
                        .with_warm_start_steps(2),
                ))
            },
            payload_bytes: 2496,
            norms: STEPS - 2,
        },
    ]
}

fn gradient(rank: usize, step: usize, tensor: usize, len: usize) -> Vec<f32> {
    (0..len)
        .map(|e| (((tensor * 29 + e * 11 + step * 17) as f32) * 0.23 - rank as f32 * 0.7).cos())
        .collect()
}

/// One step of `opt`: blocking on even steps, pushed deepest-first and
/// finished on odd ones. Returns the aggregated tensors' bits.
fn run_step(
    opt: &mut dyn DistributedOptimizer,
    comm: &mut dyn Communicator,
    step: usize,
) -> Vec<u32> {
    let rank = comm.rank_id().as_usize();
    let mut grads: Vec<Vec<f32>> = SHAPES
        .iter()
        .enumerate()
        .map(|(t, dims)| gradient(rank, step, t, dims.iter().product()))
        .collect();
    let pushed = step % 2 == 1;
    if pushed {
        for index in (0..SHAPES.len()).rev() {
            opt.push_ready(index, SHAPES[index], &grads[index], comm)
                .expect("push_ready");
        }
    }
    let mut views: Vec<GradViewMut<'_>> = SHAPES
        .iter()
        .zip(grads.iter_mut())
        .map(|(dims, grad)| GradViewMut { dims, grad })
        .collect();
    if pushed {
        opt.finish_overlap(&mut views, comm)
            .expect("finish_overlap");
    } else {
        opt.aggregate(&mut views, comm).expect("aggregate");
    }
    grads.iter().flatten().map(|v| v.to_bits()).collect()
}

/// What one rank's recorder held after a case, and the twin's diagnostic
/// after each step.
struct Observed {
    dense_bytes: u64,
    payload_bytes: u64,
    ratios: usize,
    compress_times: usize,
    latencies: usize,
    norm_bits: Vec<u64>,
    diagnostic_bits: Vec<Option<u64>>,
}

fn observe() -> Vec<Vec<Observed>> {
    ThreadGroup::run(2, |mut comm| {
        cases()
            .iter()
            .map(|case| {
                let recorder = Arc::new(InMemoryRecorder::new());
                let mut opt = build_optimizer(&case.spec);
                opt.set_buffer_bytes(BUFFER_BYTES);
                opt.set_recorder(recorder.clone());
                let mut twin = (case.twin)();
                twin.set_buffer_bytes(BUFFER_BYTES);
                let mut diagnostic_bits = Vec::new();
                for step in 0..STEPS {
                    let got = run_step(opt.as_mut(), &mut comm, step);
                    let want = run_step(twin.as_mut(), &mut comm, step);
                    assert_eq!(
                        got,
                        want,
                        "{} step {step}: factory ≠ twin",
                        case.spec.name()
                    );
                    diagnostic_bits.push(twin.diagnostic().map(|n| f64::from(n).to_bits()));
                }
                Observed {
                    dense_bytes: recorder.counter(keys::COMPRESS_DENSE_BYTES),
                    payload_bytes: recorder.counter(keys::COMPRESS_PAYLOAD_BYTES),
                    ratios: recorder.values(keys::COMPRESS_RATIO).len(),
                    compress_times: recorder.values(keys::COMPRESS_TIME_US).len(),
                    latencies: recorder.values(keys::STEP_AGGREGATE_US).len(),
                    norm_bits: recorder
                        .values(keys::EF_RESIDUAL_NORM)
                        .iter()
                        .map(|v| v.to_bits())
                        .collect(),
                    diagnostic_bits,
                }
            })
            .collect()
    })
}

#[test]
fn every_aggregator_reports_the_pinned_step_telemetry() {
    let elems: usize = SHAPES.iter().map(|d| d.iter().product::<usize>()).sum();
    let dense_bytes = (4 * elems * STEPS) as u64;
    let per_rank = observe();
    for (rank, observed) in per_rank.iter().enumerate() {
        for (case, seen) in cases().iter().zip(observed) {
            let name = case.spec.name();
            assert_eq!(seen.dense_bytes, dense_bytes, "{name} rank {rank}");
            assert_eq!(seen.payload_bytes, case.payload_bytes, "{name} rank {rank}");
            assert_eq!(seen.ratios, STEPS, "{name} rank {rank}");
            assert_eq!(seen.compress_times, STEPS, "{name} rank {rank}");
            assert_eq!(seen.latencies, STEPS, "{name} rank {rank}");
            assert_eq!(seen.norm_bits.len(), case.norms, "{name} rank {rank}");
            // The recorded norms are the last `norms` steps' diagnostics.
            let expected: Vec<u64> = seen.diagnostic_bits[STEPS - case.norms..]
                .iter()
                .map(|d| d.expect("a recorded norm has a diagnostic"))
                .collect();
            assert_eq!(seen.norm_bits, expected, "{name} rank {rank}");
        }
    }
}
