//! Byte-conservation tests: telemetry-recorded wire bytes must reconcile
//! exactly with the analytic α–β cost model (`acp_collectives::cost`,
//! Table II of the paper), and per-step recorded payload bytes must equal
//! the compressor's own `Payload::wire_bytes()`. The closed-loop autotuner
//! that fits the cost model back from this telemetry is checked here too,
//! on a live TCP group.

use std::sync::Arc;

use acp_collectives::{
    ClusterCost, Communicator, LocalCommunicator, NetworkTier, ReduceOp, ThreadGroup,
};
use acp_compression::{Compressor, SignSgd, TopK};
use acp_core::{
    build_optimizer, AcpSgdConfig, Aggregator, GradViewMut, SSgdAggregator, SignSgdConfig,
    TopkSgdConfig,
};
use acp_telemetry::{keys, InMemoryRecorder};
use acp_training::auto_tune_rank;
use acp_training::dataset::Dataset;
use acp_training::model::mlp;
use acp_training::trainer::TrainConfig;

/// Ring all-reduce: every rank's recorded bytes equal `2(p−1)/p · N` for
/// several world sizes (N chosen divisible by every p so chunks are even).
#[test]
fn recorded_ring_all_reduce_bytes_match_cost_model() {
    let n = 840usize; // divisible by 2, 3, 4, 6, 8
    for p in [2usize, 3, 4, 6, 8] {
        let cost = ClusterCost::new(p, NetworkTier::TenGbE);
        let expected = cost.all_reduce_volume(4 * n);
        let results = ThreadGroup::run(p, |mut comm| {
            let rec = Arc::new(InMemoryRecorder::new());
            comm.set_recorder(rec.clone());
            let mut buf = vec![comm.rank_id().as_usize() as f32; n];
            comm.all_reduce(&mut buf, ReduceOp::Sum).unwrap();
            (rec.counter(keys::COMM_BYTES_SENT), comm.bytes_sent())
        });
        for (recorded, counted) in results {
            assert_eq!(recorded as f64, expected, "world size {p}");
            assert_eq!(recorded, counted, "recorder and bytes_sent disagree");
        }
    }
}

/// The same Table II identity must hold over real sockets: ring all-reduce
/// on the TCP backend records exactly `2(p−1)/p · N` payload bytes per
/// rank (the loopback tier models the transport, but the volume term is
/// transport-independent), and the recorder agrees with the
/// communicator's own counter.
#[test]
fn recorded_tcp_all_reduce_bytes_match_cost_model() {
    let n = 840usize; // divisible by 2, 3, 4, 6, 8
    for p in [2usize, 3, 4, 8] {
        let cost = ClusterCost::new(p, NetworkTier::Loopback);
        let expected = cost.all_reduce_volume(4 * n);
        let results = acp_net::run_local(p, |mut comm| {
            let rec = Arc::new(InMemoryRecorder::new());
            comm.set_recorder(rec.clone());
            let mut buf = vec![comm.rank_id().as_usize() as f32; n];
            comm.all_reduce(&mut buf, ReduceOp::Sum).unwrap();
            (rec.counter(keys::COMM_BYTES_SENT), comm.bytes_sent())
        });
        for (recorded, counted) in results {
            assert_eq!(recorded as f64, expected, "world size {p}");
            assert_eq!(recorded, counted, "recorder and bytes_sent disagree");
        }
    }
}

/// Segmenting a large chunk into many frames changes neither side of the
/// ledger: for a 9.4 MB all-reduce (ResNet-18's `layer4` convolutions,
/// ~50 segments per ring step) every rank still records the Table II
/// volume as sent, and what the group received is what the group sent.
#[test]
fn segmented_tcp_all_reduce_conserves_bytes() {
    let n = 512 * 512 * 3 * 3; // 2,359,296 elements, divisible by 3
    let p = 3usize;
    let expected = ClusterCost::new(p, NetworkTier::Loopback).all_reduce_volume(4 * n);
    let results = acp_net::run_local(p, |mut comm| {
        let rec = Arc::new(InMemoryRecorder::new());
        comm.set_recorder(rec.clone());
        let mut buf = vec![comm.rank_id().as_usize() as f32; n];
        comm.all_reduce(&mut buf, ReduceOp::Sum).unwrap();
        (
            rec.counter(keys::COMM_BYTES_SENT),
            rec.counter(keys::COMM_BYTES_RECV),
        )
    });
    for &(sent, _) in &results {
        assert_eq!(sent as f64, expected);
    }
    let sent: u64 = results.iter().map(|r| r.0).sum();
    let received: u64 = results.iter().map(|r| r.1).sum();
    assert_eq!(received, sent);
}

/// All-gather: every rank's recorded bytes equal `(p−1) · N`.
#[test]
fn recorded_all_gather_bytes_match_cost_model() {
    let k = 64usize;
    for p in [2usize, 3, 4, 5] {
        let cost = ClusterCost::new(p, NetworkTier::TenGbE);
        let expected = cost.all_gather_volume(4 * k);
        let results = ThreadGroup::run(p, |mut comm| {
            let rec = Arc::new(InMemoryRecorder::new());
            comm.set_recorder(rec.clone());
            comm.all_gather_f32(&vec![0.5f32; k]).unwrap();
            rec.counter(keys::COMM_BYTES_SENT)
        });
        for recorded in results {
            assert_eq!(recorded as f64, expected, "world size {p}");
        }
    }
}

/// Aggregator-recorded payload bytes equal the compressor's own
/// `Payload::wire_bytes()` for the sparse Top-k representation.
#[test]
fn topk_recorded_payload_matches_wire_bytes() {
    let n = 128usize;
    let grad: Vec<f32> = (0..n).map(|i| (i as f32 * 0.37).sin()).collect();
    let density = 0.1;
    let rec = Arc::new(InMemoryRecorder::new());
    let mut opt = build_optimizer(&Aggregator::Topk(
        TopkSgdConfig::default().with_density(density),
    ));
    opt.set_recorder(rec.clone());
    let mut g = grad.clone();
    let dims = [n];
    let mut views = [GradViewMut {
        dims: &dims,
        grad: &mut g,
    }];
    opt.aggregate(&mut views, &mut LocalCommunicator::new())
        .unwrap();
    // Independently compress the same gradient and compare wire sizes.
    let k = ((density * n as f64).ceil() as usize).clamp(1, n);
    let expected = TopK::new(k).compress(&grad).wire_bytes() as u64;
    assert_eq!(rec.counter(keys::COMPRESS_PAYLOAD_BYTES), expected);
    assert_eq!(rec.counter(keys::COMPRESS_DENSE_BYTES), 4 * n as u64);
}

/// Same reconciliation for the bit-packed Sign-SGD representation.
#[test]
fn signsgd_recorded_payload_matches_wire_bytes() {
    let n = 100usize;
    let grad: Vec<f32> = (0..n).map(|i| (i as f32 - 50.0) * 0.1).collect();
    let rec = Arc::new(InMemoryRecorder::new());
    let mut opt = build_optimizer(&Aggregator::SignSgd(SignSgdConfig::default()));
    opt.set_recorder(rec.clone());
    let mut g = grad.clone();
    let dims = [n];
    let mut views = [GradViewMut {
        dims: &dims,
        grad: &mut g,
    }];
    opt.aggregate(&mut views, &mut LocalCommunicator::new())
        .unwrap();
    let expected = SignSgd::scaled().compress(&grad).wire_bytes() as u64;
    assert_eq!(rec.counter(keys::COMPRESS_PAYLOAD_BYTES), expected);
}

/// End-to-end reconciliation for ACP-SGD over 4 workers: the aggregator
/// performs exactly one fused ring all-reduce of its recorded payload, so
/// each rank's wire bytes must equal `2(p−1)/p ·` payload bytes — the
/// single-collective structure the paper's cost analysis rests on.
#[test]
fn acp_sgd_wire_bytes_reconcile_with_payload() {
    let p = 4usize;
    let steps = 3u64;
    let cost = ClusterCost::new(p, NetworkTier::TenGbE);
    let results = ThreadGroup::run(p, |mut comm| {
        let rec = Arc::new(InMemoryRecorder::new());
        comm.set_recorder(rec.clone());
        let spec = Aggregator::AcpSgd(AcpSgdConfig::default().with_rank(4));
        let mut opt = build_optimizer(&spec);
        opt.set_recorder(rec.clone());
        // One 16x16 matrix: a rank-4 factor is 64 floats, divisible by p.
        let dims = [16usize, 16];
        for step in 0..steps {
            let mut g: Vec<f32> = (0..256)
                .map(|i| ((i as u64 + step) as f32 * 0.11).cos())
                .collect();
            let mut views = [GradViewMut {
                dims: &dims,
                grad: &mut g,
            }];
            opt.aggregate(&mut views, &mut comm).unwrap();
        }
        (
            rec.counter(keys::COMM_BYTES_SENT),
            rec.counter(keys::COMPRESS_PAYLOAD_BYTES),
            rec.counter(keys::COMM_CALLS),
        )
    });
    for (wire, payload, calls) in results {
        assert_eq!(
            calls, steps,
            "ACP-SGD must issue exactly one collective per step"
        );
        // Payload is the same every step; the cost model maps each step's
        // payload to its ring volume, so totals reconcile too.
        assert_eq!(wire as f64, cost.all_reduce_volume(payload as usize));
        assert_eq!(
            payload,
            steps * 4 * 64,
            "rank-4 factor of a 16x16 matrix, f32"
        );
    }
}

/// `auto_tune_rank` over real sockets: a 4-rank TCP group profiles its
/// own collectives, fits α–β and agrees on one S-SGD fusion buffer that
/// never exceeds the gradient and never predicts worse than the 25 MB
/// default.
#[test]
fn auto_tune_rank_calibrates_over_tcp() {
    let dims = [32, 64, 4];
    let data = Dataset::gaussian_clusters(4, 32, 60, 0.3, 41);
    let cfg = TrainConfig {
        epochs: 1,
        batch_size: 16,
        ..TrainConfig::default()
    };
    let reports = acp_net::run_local(4, |mut comm| {
        let mut model = mlp(&dims, 11);
        let mut agg = SSgdAggregator::new();
        auto_tune_rank(&mut comm, &mut agg, &mut model, &data, &cfg)
            .expect("a multi-rank TCP group calibrates")
    });
    let r = reports[0];
    assert_eq!(r.world, 4);
    let grad_bytes = 4 * mlp(&dims, 11)
        .params()
        .iter()
        .map(|p| p.grad.len())
        .sum::<usize>();
    assert!(r.buffer_bytes <= grad_bytes);
    assert!(r.predicted_tuned_seconds <= r.predicted_default_seconds * 1.001);
    assert_eq!(r.tuned_rank, None, "ssgd sweeps no rank");
}
