//! Fixed-size calls into each layer's public functions, timed from
//! outside. They are the same on every workload, so a per-layer number can
//! be read next to whichever end-to-end metric it should move.

use std::io::Cursor;
use std::sync::Arc;
use std::time::Instant;

use acp_collectives::schedule::{OpKind, SchedulePoint};
use acp_collectives::{Communicator, ReduceOp, WireMsg};
use acp_compression::acp::{AcpSgd, AcpSgdConfig};
use acp_compression::kernels;
use acp_compression::powersgd::{PowerSgd, PowerSgdConfig};
use acp_models::Model;
use acp_net::frame::{self, MsgRef};
use acp_serve::wire::{self, Request, Submit};
use acp_simulator::{simulate, ExperimentConfig, Strategy};
use acp_telemetry::{
    busy_us, fit_alpha_beta, keys, overlap_us, CollectiveKind, CollectiveSample, FittedAlphaBeta,
    InMemoryRecorder, Recorder, Span, SpanRecord,
};
use acp_tensor::rng::{fill_std_normal, seeded_rng};
use acp_tensor::{orthogonalize, Matrix, SeedableStdNormal};
use acp_training::loss::softmax_cross_entropy;
use acp_training::tensor4::Tensor;
use acp_training::SgdMomentum;

use crate::cli::Args;
use crate::group;
use crate::stats::{median, Metric};
use crate::train::{self, train_call, FULL_EPOCHS};
use crate::workload::{build_mlp, Transport, TRAINED_AGGS, WORLD};

/// The largest low-rank projection of ResNet-18: the 512×512×3×3 `layer4`
/// convolutions reshape to 512×4608, factored at rank 4.
const ROWS: usize = 512;
const COLS: usize = 4608;
const RANK: usize = 4;

/// 4 MiB of `f32`: one full fusion bucket of the ResNet-18 workloads.
const LARGE_ELEMS: usize = 1 << 20;

/// 1 KiB of `f32`: a latency-bound message, as in the MLP workload.
const SMALL_ELEMS: usize = 256;

/// Runs `f` once untimed and `reps` times timed; returns milliseconds.
fn time_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> Vec<f64> {
    std::hint::black_box(f());
    (0..reps)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(f());
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect()
}

fn push_median(out: &mut Vec<Metric>, name: &str, unit: &'static str, scale: f64, ms: &[f64]) {
    out.push(Metric::new(name, median(ms) * scale, unit, ms.len()));
}

fn normals(len: usize, seed: u64) -> Vec<f32> {
    let mut v = vec![0.0f32; len];
    fill_std_normal(&mut v, &mut seeded_rng(seed));
    v
}

/// `tensor`: the two matrix products and the orthogonalization of one
/// low-rank round.
pub fn tensor(out: &mut Vec<Metric>) -> Result<(), String> {
    let grad = Matrix::random_std_normal(ROWS, COLS, 1);
    let q = Matrix::random_std_normal(COLS, RANK, 2);
    let p = Matrix::random_std_normal(ROWS, RANK, 3);
    let mut failed = false;
    let matmul = time_ms(10, || failed |= grad.try_matmul(&q).is_err());
    let matmul_tn = time_ms(10, || failed |= grad.try_matmul_tn(&p).is_err());
    if failed {
        return Err("matrix product rejected the probe shapes".to_string());
    }
    push_median(out, "tensor.matmul_ms", "ms", 1.0, &matmul);
    push_median(out, "tensor.matmul_tn_ms", "ms", 1.0, &matmul_tn);
    let tall = Matrix::random_std_normal(COLS, RANK, 4);
    // The clone is a 72 KiB memcpy next to a pass over the same data.
    let ortho = time_ms(10, || {
        let mut m = tall.clone();
        orthogonalize(&mut m);
        m
    });
    push_median(out, "tensor.orthogonalize_ms", "ms", 1.0, &ortho);
    Ok(())
}

/// `compression`: the kernels behind Sign-SGD and Top-k on 1 Mi elements
/// at world size 2, and one Power-SGD and one ACP-SGD round on 512×4608.
pub fn compression(out: &mut Vec<Metric>) {
    let grad = normals(LARGE_ELEMS, 5);
    let pack = time_ms(10, || kernels::pack_signs(&grad));
    push_median(out, "compression.sign_pack_ms", "ms", 1.0, &pack);

    let mut gathered = kernels::pack_signs(&grad);
    gathered.extend(kernels::pack_signs(&normals(LARGE_ELEMS, 6)));
    let mut voted = vec![0.0f32; LARGE_ELEMS];
    let vote = time_ms(10, || {
        kernels::majority_vote_into(&gathered, &[1.0, 1.0], LARGE_ELEMS, WORLD, &mut voted);
    });
    push_median(out, "compression.majority_vote_ms", "ms", 1.0, &vote);

    let k = (LARGE_ELEMS as f64 * 0.001) as usize;
    let select = time_ms(10, || kernels::select_topk(&grad, k));
    push_median(out, "compression.topk_select_ms", "ms", 1.0, &select);

    // Without a reduction between the phases the "reduced" factor is this
    // rank's own, which costs the same arithmetic.
    let matrix = Matrix::random_std_normal(ROWS, COLS, 7);
    let mut power = PowerSgd::new(ROWS, COLS, PowerSgdConfig::default());
    let round = time_ms(6, || {
        let p = power.compute_p(&matrix);
        let q = power.compute_q(p);
        power.finish(q)
    });
    push_median(out, "compression.powersgd_round_ms", "ms", 1.0, &round);

    // A P step and a Q step cost differently; a sample is their mean.
    let mut acp = AcpSgd::new(ROWS, COLS, AcpSgdConfig::default());
    let pair = time_ms(6, || {
        for _ in 0..2 {
            let factor = acp.compress(&matrix);
            std::hint::black_box(acp.finish(factor));
        }
    });
    push_median(out, "compression.acp_round_ms", "ms", 0.5, &pair);
}

/// Times `op` on rank 0's clock after a barrier; every rank runs it.
fn timed_collective(
    comm: &mut dyn Communicator,
    op: &mut dyn FnMut(&mut dyn Communicator) -> Result<(), acp_collectives::CommError>,
) -> Result<f64, acp_collectives::CommError> {
    comm.barrier()?;
    let start = Instant::now();
    op(comm)?;
    Ok(start.elapsed().as_secs_f64())
}

/// What one rank measured in [`transport`].
#[derive(Default)]
struct TransportTimes {
    connect_s: f64,
    all_reduce_large: Vec<f64>,
    all_gather_large: Vec<f64>,
    all_reduce_small: Vec<f64>,
    start_wait_small: Vec<f64>,
    graded: Vec<CollectiveSample>,
}

fn probe_transport(
    comm: &mut dyn Communicator,
    smoke: bool,
) -> Result<TransportTimes, acp_collectives::CommError> {
    let (large_reps, small_reps, graded_reps) = if smoke { (2, 10, 1) } else { (10, 200, 6) };
    let mut times = TransportTimes::default();
    let large = vec![1.0f32; LARGE_ELEMS];
    let small = vec![1.0f32; SMALL_ELEMS];
    let mut buf = large.clone();
    // Repetition 0 of each shape is untimed: lazy worker start, buffers.
    for rep in 0..=large_reps {
        let s = timed_collective(comm, &mut |c| c.all_reduce(&mut buf, ReduceOp::Mean))?;
        let g = timed_collective(comm, &mut |c| c.all_gather_f32(&large).map(drop))?;
        if rep > 0 {
            times.all_reduce_large.push(s);
            times.all_gather_large.push(g);
        }
    }
    let mut buf = small.clone();
    for rep in 0..=small_reps {
        let s = timed_collective(comm, &mut |c| c.all_reduce(&mut buf, ReduceOp::Mean))?;
        let w = timed_collective(comm, &mut |c| {
            c.all_reduce_start(small.clone(), ReduceOp::Mean)
                .wait()
                .map(drop)
        })?;
        if rep > 0 {
            times.all_reduce_small.push(s);
            times.start_wait_small.push(w);
        }
    }
    // Graded sizes over three decades keep the α and β columns of the
    // least-squares fit well conditioned (as the autotuner does). Only
    // all-reduces: with one kind of collective the fit attributes the whole
    // fixed cost to α, which is what prices S-SGD's and ACP-SGD's traffic.
    for _ in 0..graded_reps {
        for bytes in [4u64 << 10, 32 << 10, 256 << 10, 1 << 20] {
            let mut buf = vec![1.0f32; (bytes / 4) as usize];
            let seconds = timed_collective(comm, &mut |c| c.all_reduce(&mut buf, ReduceOp::Sum))?;
            times.graded.push(CollectiveSample {
                kind: CollectiveKind::AllReduce,
                bytes,
                seconds,
            });
        }
    }
    Ok(times)
}

/// One transport (`collectives`, `net` or `serve`): group establishment,
/// bandwidth-bound and latency-bound collectives, the worker handoff, and
/// an α–β fit over graded sizes. Returns the fit and, for `serve`, the
/// server's counters.
pub fn transport(
    transport: Transport,
    smoke: bool,
    out: &mut Vec<Metric>,
) -> Result<(FittedAlphaBeta, Option<acp_serve::ServerStats>), String> {
    let layer = transport.layer();
    let start = Instant::now();
    let run = group::run(transport, |comm| {
        let connect_s = start.elapsed().as_secs_f64();
        probe_transport(comm, smoke).map(|mut times| {
            times.connect_s = connect_s;
            times
        })
    })?;
    let times = run
        .ranks
        .into_iter()
        .next()
        .ok_or("no rank")?
        .map_err(|e| format!("{layer} probe: {e}"))?;
    let ms = |seconds: &[f64]| seconds.iter().map(|s| s * 1e3).collect::<Vec<_>>();
    out.push(Metric::new(
        format!("{layer}.connect_ms"),
        times.connect_s * 1e3,
        "ms",
        1,
    ));
    push_median(
        out,
        &format!("{layer}.all_reduce_4MiB_ms"),
        "ms",
        1.0,
        &ms(&times.all_reduce_large),
    );
    push_median(
        out,
        &format!("{layer}.all_gather_4MiB_ms"),
        "ms",
        1.0,
        &ms(&times.all_gather_large),
    );
    push_median(
        out,
        &format!("{layer}.all_reduce_1KiB_us"),
        "us",
        1e3,
        &ms(&times.all_reduce_small),
    );
    push_median(
        out,
        &format!("{layer}.start_wait_1KiB_us"),
        "us",
        1e3,
        &ms(&times.start_wait_small),
    );
    let fit = fit_alpha_beta(WORLD, &times.graded).map_err(|e| format!("{layer} fit: {e}"))?;
    out.push(Metric::new(
        format!("{layer}.alpha_us"),
        fit.alpha * 1e6,
        "us",
        fit.samples,
    ));
    out.push(Metric::new(
        format!("{layer}.beta_ns_per_byte"),
        fit.beta * 1e9,
        "ns/B",
        fit.samples,
    ));
    Ok((fit, run.server))
}

/// The two wire codecs on a 4 MiB payload, with no socket: `net`'s frame
/// (zero-copy vectored write, copying read) and `serve`'s request.
pub fn codecs(out: &mut Vec<Metric>) -> Result<(), String> {
    let payload = normals(LARGE_ELEMS, 8);
    let mut failed = false;
    // Into memory, not `io::sink`: the send path is zero-copy, so a sink
    // would time the 9-byte header alone.
    let mut encoded = Vec::with_capacity(4 * LARGE_ELEMS + 64);
    let write = time_ms(10, || {
        encoded.clear();
        failed |= frame::write_msg(&mut encoded, None, MsgRef::F32(&payload)).is_err();
    });
    let read = time_ms(10, || {
        failed |= frame::read_frame(&mut Cursor::new(&encoded)).is_err();
    });
    push_median(out, "net.frame_write_4MiB_ms", "ms", 1.0, &write);
    push_median(out, "net.frame_read_4MiB_ms", "ms", 1.0, &read);

    let request = Request::Submit(Submit {
        job: 1,
        client: 0,
        epoch: 0,
        point: SchedulePoint {
            seq: 0,
            kind: OpKind::AllReduce,
            words: LARGE_ELEMS as u64,
            param: 1,
        },
        digest: 0,
        payload: WireMsg::F32(payload),
    });
    let mut encoded = Vec::with_capacity(4 * LARGE_ELEMS + 128);
    let write = time_ms(10, || {
        encoded.clear();
        failed |= wire::write_request(&mut encoded, &request).is_err();
    });
    let read = time_ms(10, || {
        failed |= wire::read_request(&mut Cursor::new(&encoded)).is_err();
    });
    push_median(out, "serve.wire_write_4MiB_ms", "ms", 1.0, &write);
    push_median(out, "serve.wire_read_4MiB_ms", "ms", 1.0, &read);
    if failed {
        return Err("a wire codec rejected its own encoding".to_string());
    }
    Ok(())
}

/// Recorded spans of one instrumented training call, for the Chrome trace.
pub struct TrainingSpans {
    /// Aggregator the call trained with.
    pub agg: &'static str,
    /// Spans of both ranks, on the clock of each rank's own recorder.
    pub spans: Vec<SpanRecord>,
}

/// `training`: forward, backward and optimizer step on one batch; a
/// single-worker run as the baseline; and one instrumented full training
/// per converging aggregator for epochs-to-target, final loss, time to
/// accuracy and the share of communication hidden behind backward.
/// Returns whether every training passed its checks.
pub fn training(
    args: &Args,
    out: &mut Vec<Metric>,
    recorded: &mut Vec<TrainingSpans>,
) -> Result<bool, String> {
    let data = train::dataset(args.seed);
    let batch = 32;
    let mut x = Vec::new();
    let mut y = Vec::new();
    for i in 0..batch {
        let (features, label) = data.train_sample(i);
        x.extend_from_slice(features);
        y.push(label);
    }
    let x = Tensor::from_vec(&[batch, data.feature_len()], x);
    let mut model = build_mlp();
    let mut sgd = SgdMomentum::new(0.05, 0.9, 1e-4);
    let (mut forward, mut backward, mut step) = (Vec::new(), Vec::new(), Vec::new());
    for rep in 0..=50 {
        let start = Instant::now();
        let logits = model.forward(&x);
        let after_forward = Instant::now();
        let (_, dlogits) = softmax_cross_entropy(&logits, &y);
        let before_backward = Instant::now();
        model.backward(&dlogits);
        let after_backward = Instant::now();
        sgd.step(&mut model.params());
        let end = Instant::now();
        if rep > 0 {
            forward.push((after_forward - start).as_secs_f64() * 1e3);
            backward.push((after_backward - before_backward).as_secs_f64() * 1e3);
            step.push((end - after_backward).as_secs_f64() * 1e3);
        }
    }
    push_median(out, "training.forward_ms", "ms", 1.0, &forward);
    push_median(out, "training.backward_ms", "ms", 1.0, &backward);
    push_median(out, "training.optim_step_ms", "ms", 1.0, &step);

    let single = train_call("ssgd", &data, &train::config(args.seed, 2), 1, false)?;
    out.push(Metric::new(
        "training.single_worker_iter_ms",
        single.iter_ms(),
        "ms",
        single.iterations,
    ));

    let epochs = if args.smoke { 2 } else { FULL_EPOCHS };
    let mut all_passed = true;
    for agg in TRAINED_AGGS {
        let call = train_call(agg, &data, &train::config(args.seed, epochs), WORLD, true)?;
        let reached = call.epochs_to_target();
        let passed = call.ranks_agree() && call.final_loss().is_finite() && reached.is_some();
        if !passed && !args.smoke {
            eprintln!("error: training probe {agg}: ranks disagree or target accuracy not held");
            all_passed = false;
        }
        let spans: Vec<SpanRecord> = call
            .telemetry
            .iter()
            .flatten()
            .flat_map(|t| t.snapshot.spans.iter().cloned())
            .collect();
        let busy = busy_us(&spans, keys::CAT_COMM);
        let hidden = overlap_us(&spans, keys::CAT_COMM, keys::SPAN_BACKWARD);
        out.push(Metric::new(
            format!("training.epochs_to_target.{agg}"),
            reached.unwrap_or(epochs) as f64,
            "count",
            1,
        ));
        out.push(Metric::new(
            format!("training.final_loss.{agg}"),
            f64::from(call.final_loss()),
            "loss",
            1,
        ));
        out.push(Metric::new(
            format!("training.tta_s.{agg}"),
            call.time_to_target_s().unwrap_or(call.seconds),
            "s",
            1,
        ));
        out.push(Metric::new(
            format!("training.hidden_comm_share.{agg}"),
            hidden as f64 / busy.max(1) as f64,
            "ratio",
            call.iterations,
        ));
        // The first steps are enough to read a schedule from; a whole
        // training is tens of thousands of spans.
        recorded.push(TrainingSpans {
            agg,
            spans: spans.into_iter().filter(|s| s.end_us < 100_000).collect(),
        });
    }
    Ok(all_passed)
}

/// `telemetry.record_ns`: one `observe` plus one `span` on the in-memory
/// recorder, the cost every instrumented collective pays.
pub fn telemetry(out: &mut Vec<Metric>) {
    let rec = Arc::new(InMemoryRecorder::new());
    let reps = 100_000usize;
    let start = Instant::now();
    for i in 0..reps {
        rec.observe(keys::COMM_ALL_REDUCE_US, i as f64);
        rec.span(Span {
            name: "all_reduce",
            cat: keys::CAT_COMM,
            track: 0,
            start_us: i as u64,
            end_us: i as u64 + 1,
        });
    }
    let ns = start.elapsed().as_secs_f64() * 1e9 / reps as f64;
    std::hint::black_box(rec.counter(keys::COMM_CALLS));
    out.push(Metric::new("telemetry.record_ns", ns, "ns", reps));
}

/// `simulator.simulate_ms`: one simulated ACP-SGD iteration of ResNet-50
/// on the paper's 32-GPU testbed.
pub fn simulator(out: &mut Vec<Metric>) -> Result<(), String> {
    let cfg = ExperimentConfig::paper_testbed(Model::ResNet50, Strategy::AcpSgd { rank: RANK });
    let mut failed = false;
    let ms = time_ms(20, || failed |= simulate(&cfg).is_err());
    if failed {
        return Err("the paper-testbed simulation failed".to_string());
    }
    push_median(out, "simulator.simulate_ms", "ms", 1.0, &ms);
    Ok(())
}
