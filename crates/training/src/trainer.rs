//! Data-parallel training across in-process workers with real collectives —
//! the engine behind the convergence experiments (Figs. 6–7).

use std::sync::Arc;

use acp_collectives::{Communicator, ThreadGroup};
use acp_core::{DistributedOptimizer, GradViewMut};
use acp_telemetry::{keys, InMemoryRecorder, MetricsSnapshot, Recorder, Span, StepReport};
use acp_tensor::rng::seeded_rng;
use rand::seq::SliceRandom;

use crate::dataset::Dataset;
use crate::loss::{accuracy, softmax_cross_entropy};
use crate::model::Sequential;
use crate::optim::{LrSchedule, SgdMomentum};
use crate::tensor4::Tensor;

/// Training-run configuration.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Number of passes over each worker's shard.
    pub epochs: usize,
    /// Per-worker mini-batch size.
    pub batch_size: usize,
    /// Learning-rate schedule.
    pub schedule: LrSchedule,
    /// Momentum coefficient (paper: 0.9).
    pub momentum: f32,
    /// Weight decay.
    pub weight_decay: f32,
    /// Seed for shuffling (model init seeds live in the model builder).
    pub seed: u64,
    /// Overlap gradient communication with backward compute (wait-free
    /// backpropagation). The aggregated result is bit-identical either
    /// way; disable to measure the unoverlapped baseline.
    pub overlap: bool,
    /// Run the closed-loop autotuner before epoch 1: profile the live
    /// cluster's collectives, fit α–β from the telemetry, tune the fusion
    /// buffer size on the calibrated simulator and apply it to the
    /// aggregator (see [`crate::autotune`]). Groups that cannot calibrate
    /// (e.g. a single rank) keep the aggregator's configured buffer.
    pub auto_tune: bool,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 10,
            batch_size: 32,
            schedule: LrSchedule::new(0.1, 0, Vec::new()),
            momentum: 0.9,
            weight_decay: 0.0,
            seed: 42,
            overlap: true,
            auto_tune: false,
        }
    }
}

/// Per-epoch metrics (rank 0's view; all ranks agree).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochStats {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Mean training loss over the epoch's batches.
    pub train_loss: f32,
    /// Accuracy on the full test split.
    pub test_accuracy: f32,
    /// Learning rate used this epoch.
    pub lr: f32,
}

/// Telemetry gathered for one worker rank during an instrumented run.
#[derive(Clone, Debug)]
pub struct RankTelemetry {
    /// Worker rank the data belongs to.
    pub rank: usize,
    /// One report per optimizer step, in step order.
    pub steps: Vec<StepReport>,
    /// Final state of the rank's recorder (counters, series, spans) —
    /// feed the spans to `acp_telemetry::ChromeTraceBuilder` for a trace.
    pub snapshot: MetricsSnapshot,
}

/// Result of [`train_distributed_instrumented`]: the usual per-epoch
/// history plus per-rank step telemetry.
#[derive(Clone, Debug)]
pub struct TrainReport {
    /// Rank 0's per-epoch metrics (all ranks agree).
    pub history: Vec<EpochStats>,
    /// Per-rank telemetry, indexed by rank.
    pub ranks: Vec<RankTelemetry>,
}

/// Tracks recorder counters/series between steps so each [`StepReport`]
/// carries per-step deltas rather than running totals.
struct StepDeltas {
    wire_bytes: u64,
    payload_bytes: u64,
    dense_bytes: u64,
    compress_us: f64,
    comm_us: f64,
    residuals_seen: usize,
}

impl StepDeltas {
    fn new() -> Self {
        StepDeltas {
            wire_bytes: 0,
            payload_bytes: 0,
            dense_bytes: 0,
            compress_us: 0.0,
            comm_us: 0.0,
            residuals_seen: 0,
        }
    }

    fn comm_us_total(rec: &InMemoryRecorder) -> f64 {
        rec.value_sum(keys::COMM_ALL_REDUCE_US)
            + rec.value_sum(keys::COMM_ALL_GATHER_US)
            + rec.value_sum(keys::COMM_BROADCAST_US)
            + rec.value_sum(keys::COMM_GLOBAL_TOPK_US)
    }

    /// Reads the recorder and emits the delta since the previous call.
    fn take(&mut self, rec: &InMemoryRecorder, epoch: usize, step: usize) -> StepReport {
        let wire = rec.counter(keys::COMM_BYTES_SENT);
        let payload = rec.counter(keys::COMPRESS_PAYLOAD_BYTES);
        let dense = rec.counter(keys::COMPRESS_DENSE_BYTES);
        let compress = rec.value_sum(keys::COMPRESS_TIME_US);
        let comm = Self::comm_us_total(rec);
        let residuals = rec.values(keys::EF_RESIDUAL_NORM);
        let residual_norm = if residuals.len() > self.residuals_seen {
            residuals.last().copied()
        } else {
            None
        };
        let report = StepReport {
            epoch,
            step,
            wire_bytes: wire - self.wire_bytes,
            payload_bytes: payload - self.payload_bytes,
            dense_bytes: dense - self.dense_bytes,
            compress_us: compress - self.compress_us,
            comm_us: comm - self.comm_us,
            residual_norm,
            loss: None,
        };
        self.wire_bytes = wire;
        self.payload_bytes = payload;
        self.dense_bytes = dense;
        self.compress_us = compress;
        self.comm_us = comm;
        self.residuals_seen = residuals.len();
        report
    }
}

/// Builds the `[batch, …sample_dims]` input tensor and label vector for a
/// set of sample indices.
pub(crate) fn make_batch(data: &Dataset, indices: &[usize], train: bool) -> (Tensor, Vec<usize>) {
    let feature_len = data.feature_len();
    let mut x = Vec::with_capacity(indices.len() * feature_len);
    let mut y = Vec::with_capacity(indices.len());
    for &i in indices {
        let (f, label) = if train {
            data.train_sample(i)
        } else {
            data.test_sample(i)
        };
        x.extend_from_slice(f);
        y.push(label);
    }
    let mut dims = vec![indices.len()];
    dims.extend_from_slice(data.sample_dims());
    (Tensor::from_vec(&dims, x), y)
}

/// Evaluates test accuracy over the full test split.
fn evaluate(model: &mut Sequential, data: &Dataset, batch_size: usize) -> f32 {
    let n = data.test_len();
    if n == 0 {
        return 0.0;
    }
    let mut correct_weighted = 0.0f32;
    let mut start = 0usize;
    while start < n {
        let end = (start + batch_size).min(n);
        let indices: Vec<usize> = (start..end).collect();
        let (x, y) = make_batch(data, &indices, false);
        let logits = model.forward(&x);
        correct_weighted += accuracy(&logits, &y) * indices.len() as f32;
        start = end;
    }
    correct_weighted / n as f32
}

/// Trains `world` data-parallel workers, each aggregating gradients through
/// its own instance of the supplied [`DistributedOptimizer`], and returns
/// rank 0's per-epoch history.
///
/// Every worker builds the model from `model_builder` (which must be
/// deterministic so initial weights agree), trains on a disjoint shard of
/// `data`, and evaluates on the shared test split.
///
/// # Panics
///
/// Panics if a worker thread fails (collective error or panic) — the
/// trainer is for controlled experiments, not fault tolerance.
pub fn train_distributed<MB, AB, A>(
    world: usize,
    data: &Dataset,
    model_builder: MB,
    aggregator_builder: AB,
    cfg: &TrainConfig,
) -> Vec<EpochStats>
where
    MB: Fn() -> Sequential + Sync,
    AB: Fn() -> A + Sync,
    A: DistributedOptimizer,
{
    let results = ThreadGroup::run(world, |comm| {
        train_rank(comm, data, &model_builder, &aggregator_builder, cfg, false).0
    });
    results.into_iter().next().expect("at least one worker")
}

/// Like [`train_distributed`], but attaches an
/// [`InMemoryRecorder`] to every rank's communicator *and* aggregator and
/// returns per-step [`StepReport`]s plus the raw per-rank
/// [`MetricsSnapshot`]s alongside the epoch history.
///
/// # Panics
///
/// Panics if a worker thread fails (collective error or panic).
pub fn train_distributed_instrumented<MB, AB, A>(
    world: usize,
    data: &Dataset,
    model_builder: MB,
    aggregator_builder: AB,
    cfg: &TrainConfig,
) -> TrainReport
where
    MB: Fn() -> Sequential + Sync,
    AB: Fn() -> A + Sync,
    A: DistributedOptimizer,
{
    let results = ThreadGroup::run(world, |comm| {
        train_rank(comm, data, &model_builder, &aggregator_builder, cfg, true)
    });
    let mut history = Vec::new();
    let mut ranks = Vec::with_capacity(results.len());
    for (rank, (h, telemetry)) in results.into_iter().enumerate() {
        if rank == 0 {
            history = h;
        }
        ranks.push(telemetry.expect("instrumented run records every rank"));
    }
    TrainReport { history, ranks }
}

/// One rank's training loop over any [`Communicator`] backend;
/// `instrument` controls whether a recorder is attached and step reports
/// are assembled.
///
/// [`train_distributed`] runs this on in-process thread workers; a
/// multi-process launcher (e.g. `acp-net`'s TCP backend) calls it directly
/// from each worker process with its own communicator. Every rank must use
/// the same deterministic `model_builder`, dataset and config, or the
/// collectives will disagree.
pub fn train_rank<C, MB, AB, A>(
    comm: C,
    data: &Dataset,
    model_builder: &MB,
    aggregator_builder: &AB,
    cfg: &TrainConfig,
    instrument: bool,
) -> (Vec<EpochStats>, Option<RankTelemetry>)
where
    C: Communicator,
    MB: Fn() -> Sequential + Sync,
    AB: Fn() -> A + Sync,
    A: DistributedOptimizer,
{
    let (_, history, telemetry) = train_rank_with_model(
        comm,
        data,
        model_builder,
        aggregator_builder,
        cfg,
        instrument,
    );
    (history, telemetry)
}

/// [`train_rank`], additionally returning the trained model — the hook
/// for bit-exactness checks across communicator backends (`acp-serve`'s
/// `served_equivalence` test compares the returned weights byte-for-byte
/// between a [`ThreadGroup`] run and a run aggregated through the
/// service).
pub fn train_rank_with_model<C, MB, AB, A>(
    mut comm: C,
    data: &Dataset,
    model_builder: &MB,
    aggregator_builder: &AB,
    cfg: &TrainConfig,
    instrument: bool,
) -> (Sequential, Vec<EpochStats>, Option<RankTelemetry>)
where
    C: Communicator,
    MB: Fn() -> Sequential + Sync,
    AB: Fn() -> A + Sync,
    A: DistributedOptimizer,
{
    let mut model = model_builder();
    let mut aggregator = aggregator_builder();
    let recorder = if instrument {
        let rec = Arc::new(InMemoryRecorder::new());
        comm.set_recorder(rec.clone());
        aggregator.set_recorder(rec.clone());
        Some(rec)
    } else {
        None
    };
    let rank = comm.rank();
    if cfg.auto_tune {
        // The autotuner's profiling run attaches its own recorder; restore
        // the training one (or none) afterwards so training telemetry is
        // not polluted by profiling collectives.
        let tuned =
            crate::autotune::auto_tune_rank(&mut comm, &mut aggregator, &mut model, data, cfg);
        if let Some(rec) = &recorder {
            comm.set_recorder(rec.clone());
        }
        if let Err(e) = tuned {
            if rank == 0 {
                eprintln!("auto-tune skipped, keeping the configured buffer: {e}");
            }
        }
    }
    // Global forward-order index of each layer's first parameter tensor —
    // the index space `push_ready` expects.
    let layer_offsets: Vec<usize> = {
        let mut acc = 0usize;
        model
            .params_per_layer()
            .into_iter()
            .map(|count| {
                let start = acc;
                acc += count;
                start
            })
            .collect()
    };
    let mut deltas = StepDeltas::new();
    let mut steps: Vec<StepReport> = Vec::new();
    let mut sgd = SgdMomentum::new(cfg.schedule.lr_at(0), cfg.momentum, cfg.weight_decay);
    let shard = data.shard_indices(rank, comm.world_size());
    let mut history = Vec::with_capacity(cfg.epochs);
    for epoch in 0..cfg.epochs {
        let lr = cfg.schedule.lr_at(epoch);
        sgd.set_lr(lr);
        // Per-rank, per-epoch shuffle of the local shard.
        let mut order = shard.clone();
        let mut rng = seeded_rng(cfg.seed ^ (epoch as u64) << 20 ^ rank as u64);
        order.shuffle(&mut rng);
        let mut loss_sum = 0.0f64;
        let mut batches = 0usize;
        for chunk in order.chunks(cfg.batch_size) {
            let (x, y) = make_batch(data, chunk, true);
            let logits = model.forward(&x);
            let (loss, dlogits) = softmax_cross_entropy(&logits, &y);
            let backward_start = recorder.as_ref().map(|rec| rec.now_us());
            if cfg.overlap {
                // Wait-free backpropagation: hand each layer's gradients to
                // the aggregation pipeline the moment its backward finishes,
                // so full buckets communicate while earlier layers compute.
                model.backward_with(&dlogits, |layer, params| {
                    let base = layer_offsets[layer];
                    for (slot, p) in params.iter_mut().enumerate() {
                        aggregator
                            .push_ready(base + slot, p.dims, p.grad, &mut comm)
                            .expect("gradient dispatch failed");
                    }
                });
            } else {
                model.backward(&dlogits);
            }
            if let (Some(rec), Some(start_us)) = (&recorder, backward_start) {
                rec.span(Span {
                    name: keys::SPAN_BACKWARD,
                    cat: keys::CAT_COMPUTE,
                    track: rank as u64,
                    start_us,
                    end_us: rec.now_us(),
                });
            }
            let mut params = model.params();
            let mut views: Vec<GradViewMut<'_>> = params
                .iter_mut()
                .map(|p| GradViewMut {
                    dims: p.dims,
                    grad: &mut *p.grad,
                })
                .collect();
            if cfg.overlap {
                aggregator
                    .finish_overlap(&mut views, &mut comm)
                    .expect("gradient aggregation failed");
            } else {
                aggregator
                    .aggregate(&mut views, &mut comm)
                    .expect("gradient aggregation failed");
            }
            sgd.step(&mut params);
            if let Some(rec) = &recorder {
                let mut report = deltas.take(rec, epoch, batches);
                report.loss = Some(loss as f64);
                steps.push(report);
            }
            loss_sum += loss as f64;
            batches += 1;
        }
        let test_accuracy = evaluate(&mut model, data, cfg.batch_size.max(1));
        history.push(EpochStats {
            epoch,
            train_loss: (loss_sum / batches.max(1) as f64) as f32,
            test_accuracy,
            lr,
        });
    }
    let telemetry = recorder.map(|rec| RankTelemetry {
        rank,
        steps,
        snapshot: rec.snapshot(),
    });
    (model, history, telemetry)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::mlp;
    use acp_core::{AcpSgdAggregator, AcpSgdConfig, SSgdAggregator};

    fn quick_cfg(epochs: usize) -> TrainConfig {
        TrainConfig {
            epochs,
            batch_size: 16,
            schedule: LrSchedule::new(0.1, 0, Vec::new()),
            ..TrainConfig::default()
        }
    }

    #[test]
    fn ssgd_learns_gaussian_clusters() {
        let data = Dataset::gaussian_clusters(4, 8, 60, 0.3, 11);
        let history = train_distributed(
            2,
            &data,
            || mlp(&[8, 16, 4], 5),
            SSgdAggregator::new,
            &quick_cfg(8),
        );
        let last = history.last().unwrap();
        assert!(last.test_accuracy > 0.9, "accuracy {}", last.test_accuracy);
        assert!(last.train_loss < history[0].train_loss);
    }

    #[test]
    fn acp_matches_ssgd_on_easy_task() {
        let data = Dataset::gaussian_clusters(4, 8, 60, 0.3, 13);
        let cfg = quick_cfg(8);
        let ssgd = train_distributed(2, &data, || mlp(&[8, 16, 4], 5), SSgdAggregator::new, &cfg);
        let acp = train_distributed(
            2,
            &data,
            || mlp(&[8, 16, 4], 5),
            || {
                AcpSgdAggregator::new(AcpSgdConfig {
                    rank: 4,
                    ..Default::default()
                })
            },
            &cfg,
        );
        let s = ssgd.last().unwrap().test_accuracy;
        let a = acp.last().unwrap().test_accuracy;
        assert!(a > s - 0.07, "ACP accuracy {a} far below S-SGD {s}");
    }

    #[test]
    fn training_is_deterministic() {
        let data = Dataset::gaussian_clusters(3, 6, 30, 0.2, 17);
        let cfg = quick_cfg(3);
        let run = || train_distributed(2, &data, || mlp(&[6, 12, 3], 9), SSgdAggregator::new, &cfg);
        let a = run();
        let b = run();
        assert_eq!(a, b);
    }

    #[test]
    fn history_length_matches_epochs() {
        let data = Dataset::gaussian_clusters(2, 4, 20, 0.2, 19);
        let history = train_distributed(
            1,
            &data,
            || mlp(&[4, 2], 1),
            SSgdAggregator::new,
            &quick_cfg(4),
        );
        assert_eq!(history.len(), 4);
        assert_eq!(history[3].epoch, 3);
    }

    #[test]
    fn instrumented_run_reports_per_step_telemetry() {
        let data = Dataset::gaussian_clusters(2, 4, 20, 0.2, 29);
        let cfg = quick_cfg(2);
        let report =
            train_distributed_instrumented(2, &data, || mlp(&[4, 2], 1), SSgdAggregator::new, &cfg);
        assert_eq!(report.ranks.len(), 2);
        for rank in &report.ranks {
            assert!(!rank.steps.is_empty());
            for s in &rank.steps {
                assert!(s.wire_bytes > 0, "ring all-reduce sends bytes");
                // S-SGD is uncompressed: payload == dense, ratio 1.
                assert_eq!(s.payload_bytes, s.dense_bytes);
                assert!(s.loss.is_some());
            }
            assert!(rank.snapshot.counters.contains_key("comm.bytes_sent"));
        }
        // Telemetry must not perturb training: history matches a plain run.
        let plain = train_distributed(2, &data, || mlp(&[4, 2], 1), SSgdAggregator::new, &cfg);
        assert_eq!(report.history, plain);
    }

    #[test]
    fn overlapped_training_matches_blocking_bitwise() {
        // WFBP is a scheduling change, not a numerical one: with small
        // fusion buckets (so pushes interleave with compute) the per-epoch
        // history must match the blocking path bit for bit.
        let data = Dataset::gaussian_clusters(3, 6, 30, 0.2, 17);
        let overlapped = quick_cfg(3);
        let blocking = TrainConfig {
            overlap: false,
            ..overlapped.clone()
        };
        let model = || mlp(&[6, 12, 3], 9);
        let agg = || {
            AcpSgdAggregator::new(AcpSgdConfig {
                rank: 2,
                warm_start_steps: 2,
                buffer_bytes: 256, // several buckets per step
                ..Default::default()
            })
        };
        let a = train_distributed(2, &data, model, agg, &overlapped);
        let b = train_distributed(2, &data, model, agg, &blocking);
        assert_eq!(a, b);
        let s = train_distributed(2, &data, model, SSgdAggregator::new, &overlapped);
        let t = train_distributed(2, &data, model, SSgdAggregator::new, &blocking);
        assert_eq!(s, t);
    }

    #[test]
    fn backward_spans_are_recorded_when_instrumented() {
        use acp_telemetry::keys;
        let data = Dataset::gaussian_clusters(2, 4, 20, 0.2, 29);
        let cfg = quick_cfg(2);
        let report =
            train_distributed_instrumented(2, &data, || mlp(&[4, 2], 1), SSgdAggregator::new, &cfg);
        for rank in &report.ranks {
            let backward = rank
                .snapshot
                .spans
                .iter()
                .filter(|s| s.name == keys::SPAN_BACKWARD && s.cat == keys::CAT_COMPUTE)
                .count();
            assert_eq!(backward, rank.steps.len(), "one backward span per step");
        }
    }

    #[test]
    fn lr_schedule_is_applied() {
        let data = Dataset::gaussian_clusters(2, 4, 20, 0.2, 23);
        let cfg = TrainConfig {
            epochs: 4,
            batch_size: 8,
            schedule: LrSchedule::new(0.2, 2, vec![(3, 0.1)]),
            ..TrainConfig::default()
        };
        let history = train_distributed(1, &data, || mlp(&[4, 2], 1), SSgdAggregator::new, &cfg);
        assert!((history[0].lr - 0.1).abs() < 1e-6); // warmup 1/2
        assert!((history[1].lr - 0.2).abs() < 1e-6);
        assert!((history[3].lr - 0.02).abs() < 1e-6); // decayed
    }
}
