//! Property-based integration tests spanning crates: collectives vs naive
//! reductions, aggregation invariants under random worlds, compression
//! payload accounting, and simulator monotonicity.

use proptest::prelude::*;

use acp_collectives::{Communicator, NetworkTier, ReduceOp, ThreadGroup};
use acp_compression::{Compressor, Payload, SignSgd, TopK};
use acp_core::{AcpSgdAggregator, AcpSgdConfig, DistributedOptimizer, GradViewMut, SSgdAggregator};
use acp_models::Model;
use acp_simulator::{simulate, ExperimentConfig, HardwareProfile, Strategy};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Ring all-reduce equals a naive sum for any world size and data.
    #[test]
    fn all_reduce_matches_naive_sum(
        world in 1usize..6,
        len in 1usize..200,
        seed in 0u64..1000,
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let inputs: Vec<Vec<f32>> = (0..world)
            .map(|_| (0..len).map(|_| rng.gen_range(-5.0f32..5.0)).collect())
            .collect();
        let mut expected = vec![0.0f32; len];
        for input in &inputs {
            for (e, v) in expected.iter_mut().zip(input) {
                *e += v;
            }
        }
        let results = ThreadGroup::run(world, |mut comm| {
            let mut buf = inputs[comm.rank_id().as_usize()].clone();
            comm.all_reduce(&mut buf, ReduceOp::Sum).unwrap();
            buf
        });
        for r in results {
            for (a, b) in r.iter().zip(&expected) {
                prop_assert!((a - b).abs() < 1e-3 * (1.0 + b.abs()));
            }
        }
    }

    /// S-SGD aggregation is exact averaging for any fusion buffer size.
    #[test]
    fn ssgd_aggregation_is_exact_average(
        world in 1usize..5,
        len in 1usize..64,
        buffer in 0usize..256,
        seed in 0u64..1000,
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let inputs: Vec<Vec<f32>> = (0..world)
            .map(|_| (0..len).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
            .collect();
        let mean: Vec<f32> = (0..len)
            .map(|i| inputs.iter().map(|x| x[i]).sum::<f32>() / world as f32)
            .collect();
        let results = ThreadGroup::run(world, |mut comm| {
            let mut opt = SSgdAggregator::with_buffer_bytes(buffer);
            let mut g = inputs[comm.rank_id().as_usize()].clone();
            let dims = [len];
            let mut views = [GradViewMut { dims: &dims, grad: &mut g }];
            opt.aggregate(&mut views, &mut comm).unwrap();
            g
        });
        for r in results {
            for (a, b) in r.iter().zip(&mean) {
                prop_assert!((a - b).abs() < 1e-4);
            }
        }
    }

    /// ACP-SGD aggregation leaves every rank with identical gradients
    /// whatever the tensor shapes.
    #[test]
    fn acp_aggregation_is_rank_consistent(
        world in 2usize..5,
        rows in 2usize..8,
        cols in 2usize..8,
        rank in 1usize..4,
        seed in 0u64..1000,
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let inputs: Vec<Vec<f32>> = (0..world)
            .map(|_| (0..rows * cols).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
            .collect();
        let results = ThreadGroup::run(world, |mut comm| {
            let mut opt = AcpSgdAggregator::new(AcpSgdConfig { rank, ..Default::default() });
            let mut g = inputs[comm.rank_id().as_usize()].clone();
            let dims = [rows, cols];
            let mut views = [GradViewMut { dims: &dims, grad: &mut g }];
            opt.aggregate(&mut views, &mut comm).unwrap();
            g
        });
        for r in &results[1..] {
            for (a, b) in r.iter().zip(&results[0]) {
                prop_assert!((a - b).abs() < 1e-4, "ranks disagree: {a} vs {b}");
            }
        }
    }

    /// Payload wire accounting: every compressor's payload is
    /// self-consistent and never larger than ~dense size + headers.
    #[test]
    fn payload_accounting_is_consistent(len in 1usize..512, seed in 0u64..100) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let grad: Vec<f32> = (0..len).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let k = (len / 10).max(1);
        let mut compressors: Vec<Box<dyn Compressor>> = vec![
            Box::new(SignSgd::plain()),
            Box::new(TopK::new(k)),
        ];
        for c in &mut compressors {
            let p = c.compress(&grad);
            prop_assert_eq!(p.dense_len(), len);
            prop_assert!(p.wire_bytes() <= 4 * len + 16, "{} payload too big", c.name());
            let mut out = vec![0.0f32; len];
            c.decompress(&p, &mut out);
            prop_assert!(out.iter().all(|v| v.is_finite()));
        }
    }

    /// Sparse payloads only ever contain coordinates of the dense range.
    #[test]
    fn sparse_indices_in_range(len in 1usize..300, seed in 0u64..100) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let grad: Vec<f32> = (0..len).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let mut c = TopK::new((len / 7).max(1));
        if let Payload::Sparse { indices, values, len: n } = c.compress(&grad) {
            prop_assert_eq!(n, len);
            prop_assert_eq!(indices.len(), values.len());
            for &i in &indices {
                prop_assert!((i as usize) < len);
            }
        } else {
            prop_assert!(false, "TopK must produce sparse payloads");
        }
    }

    /// Simulator sanity: more bandwidth never makes an iteration slower,
    /// more workers never make ring methods faster.
    #[test]
    fn simulator_monotone_in_bandwidth(model_idx in 0usize..4) {
        let model = Model::evaluation_models()[model_idx];
        let strategy = Strategy::AcpSgd { rank: model.paper_rank() };
        let mut prev = f64::INFINITY;
        for tier in [NetworkTier::OneGbE, NetworkTier::TenGbE, NetworkTier::HundredGbIb] {
            let mut cfg = ExperimentConfig::paper_testbed(model, strategy);
            cfg.hardware = HardwareProfile::with_cluster(32, tier);
            let t = simulate(&cfg).unwrap().total;
            prop_assert!(t <= prev * 1.0001, "{tier}: {t} > {prev}");
            prev = t;
        }
    }

    /// Simulator sanity: batch size scales compute monotonically.
    #[test]
    fn simulator_monotone_in_batch(batch in 1usize..64) {
        let cfg = |b: usize| {
            let mut c = ExperimentConfig::paper_testbed(
                Model::ResNet50,
                Strategy::SSgd,
            );
            c.batch_size = b;
            c
        };
        let t1 = simulate(&cfg(batch)).unwrap();
        let t2 = simulate(&cfg(batch + 8)).unwrap();
        prop_assert!(t2.ffbp > t1.ffbp);
        prop_assert!(t2.total >= t1.total * 0.99);
    }
}

/// Deterministic (non-proptest) cross-crate check: Sign-SGD majority vote
/// through the aggregator equals the compression-level reference.
#[test]
fn sign_aggregator_matches_majority_reference() {
    use acp_core::SignSgdAggregator;
    let grads = [
        vec![1.0f32, -2.0, 3.0],
        vec![2.0f32, -1.0, -3.0],
        vec![-1.0f32, -2.0, 3.0],
    ];
    let results = ThreadGroup::run(3, |mut comm| {
        let mut opt = SignSgdAggregator::new();
        let mut g = grads[comm.rank_id().as_usize()].clone();
        let dims = [3usize];
        let mut views = [GradViewMut {
            dims: &dims,
            grad: &mut g,
        }];
        opt.aggregate(&mut views, &mut comm).unwrap();
        g
    });
    // Majority signs: +, -, +; scale = mean of per-rank mean |g| = 2.0.
    for r in results {
        assert_eq!(r, vec![2.0, -2.0, 2.0]);
    }
}
