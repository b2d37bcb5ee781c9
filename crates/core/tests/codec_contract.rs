//! The codec contract as seen from outside: every aggregator reads the
//! caller's tensors as they are pushed, in whatever order, and writes the
//! aggregate back into them — bit for bit what the blocking path does.
//!
//! Also pinned here: a tensor pushed twice is one structured error,
//! whether or not its bucket has already been dispatched; a peer's corrupt
//! sparse or sign payload is a structured error, not a panic; and a
//! re-plan between steps leaves an aggregator indistinguishable from a
//! fresh one.

use std::sync::Arc;

use acp_collectives::{CommError, Communicator, LocalCommunicator, ReduceOp, ThreadGroup};
use acp_core::{
    build_optimizer, AcpSgdConfig, Aggregator, CoreError, DgcConfig, DistributedOptimizer,
    GradViewMut, PowerSgdConfig, SignSgdConfig, TopkSgdConfig,
};
use acp_telemetry::{keys, InMemoryRecorder};
use proptest::prelude::*;

/// All seven aggregators, configured so that tiny tensors still exercise
/// compression: rank 2 factors, a quarter of the elements selected, error
/// feedback on, DGC clipping on.
fn aggregators() -> [Aggregator; 7] {
    [
        Aggregator::Ssgd,
        Aggregator::SignSgd(SignSgdConfig::default().with_error_feedback(true)),
        Aggregator::Topk(TopkSgdConfig::default().with_density(0.25)),
        Aggregator::GTopk { density: 0.25 },
        Aggregator::Dgc(
            DgcConfig::default()
                .with_density(0.25)
                .with_clip_norm(Some(1.5)),
        ),
        Aggregator::PowerSgd(PowerSgdConfig::default().with_rank(2)),
        Aggregator::AcpSgd(AcpSgdConfig::default().with_rank(2)),
    ]
}

/// Which tensors an overlapped step pushes before `finish_overlap`, and in
/// what order. Identical on every rank, as SPMD requires.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Schedule {
    /// `aggregate` alone.
    Blocking,
    /// Every tensor, deepest first — what backward produces.
    Reverse,
    /// Every tensor in a seeded random order.
    Permutation(u64),
    /// A seeded random subset in a seeded random order; the rest is left
    /// for `finish_overlap` to pick up.
    Subset(u64),
}

impl Schedule {
    fn pushes(self, tensors: usize) -> Vec<usize> {
        let shuffled = |mut seed: u64| {
            let mut order: Vec<usize> = (0..tensors).collect();
            for i in (1..tensors).rev() {
                seed = seed
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                order.swap(i, (seed >> 33) as usize % (i + 1));
            }
            order
        };
        match self {
            Schedule::Blocking => Vec::new(),
            Schedule::Reverse => (0..tensors).rev().collect(),
            Schedule::Permutation(seed) => shuffled(seed),
            Schedule::Subset(seed) => {
                let mut order = shuffled(seed);
                order.truncate(seed as usize % (tensors + 1));
                order
            }
        }
    }
}

fn gradient(rank: usize, step: usize, tensor: usize, len: usize) -> Vec<f32> {
    (0..len)
        .map(|e| (((tensor * 31 + e * 7 + step * 13) as f32) * 0.37 + rank as f32 * 1.3).sin())
        .collect()
}

/// What one rank observed over a run: every step's aggregated tensors as
/// bit patterns, and the payload bytes the codec reported in total.
type Observed = (Vec<Vec<Vec<u32>>>, u64);

/// Runs `steps` steps of one optimizer under `schedule`.
fn run_steps(
    opt: &mut dyn DistributedOptimizer,
    comm: &mut dyn Communicator,
    shapes: &[Vec<usize>],
    schedule: Schedule,
    steps: std::ops::Range<usize>,
) -> Vec<Vec<Vec<u32>>> {
    let rank = comm.rank_id().as_usize();
    let mut out = Vec::new();
    for step in steps {
        let mut grads: Vec<Vec<f32>> = shapes
            .iter()
            .enumerate()
            .map(|(t, dims)| gradient(rank, step, t, dims.iter().product()))
            .collect();
        for index in schedule.pushes(shapes.len()) {
            opt.push_ready(index, &shapes[index], &grads[index], comm)
                .expect("push_ready");
        }
        let mut views: Vec<GradViewMut<'_>> = shapes
            .iter()
            .zip(grads.iter_mut())
            .map(|(dims, grad)| GradViewMut { dims, grad })
            .collect();
        if schedule == Schedule::Blocking {
            opt.aggregate(&mut views, comm).expect("aggregate");
        } else {
            opt.finish_overlap(&mut views, comm)
                .expect("finish_overlap");
        }
        out.push(
            grads
                .iter()
                .map(|g| g.iter().map(|v| v.to_bits()).collect())
                .collect(),
        );
    }
    out
}

/// Every rank's [`Observed`] for each (aggregator, schedule) pair, in that
/// order, from one two-rank group.
fn observe_all(
    shapes: &[Vec<usize>],
    buffer_bytes: usize,
    schedules: &[Schedule],
    steps: usize,
) -> Vec<Vec<Observed>> {
    let shapes = shapes.to_vec();
    let schedules = schedules.to_vec();
    ThreadGroup::run(2, move |mut comm| {
        let mut observed = Vec::new();
        for spec in aggregators() {
            for &schedule in &schedules {
                let recorder = Arc::new(InMemoryRecorder::new());
                let mut opt = build_optimizer(&spec);
                opt.set_buffer_bytes(buffer_bytes);
                opt.set_recorder(recorder.clone());
                let outputs = run_steps(opt.as_mut(), &mut comm, &shapes, schedule, 0..steps);
                observed.push((outputs, recorder.counter(keys::COMPRESS_PAYLOAD_BYTES)));
            }
        }
        observed
    })
}

/// Matrices, vectors and one tensor larger than any buffer the strategy
/// below picks, at a seeded position.
fn to_shapes(dims: &[(usize, usize)], big_at: usize) -> Vec<Vec<usize>> {
    let mut shapes: Vec<Vec<usize>> = dims
        .iter()
        .map(|&(rows, cols)| {
            if cols < 2 {
                vec![rows]
            } else {
                vec![rows, cols]
            }
        })
        .collect();
    shapes.insert(big_at % (shapes.len() + 1), vec![16, 12]);
    shapes
}

proptest! {
    // Each case runs 7 aggregators x 4 schedules x 5 steps on a real
    // two-rank group; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Whatever is pushed, in whatever order, the outputs of every step
    /// and the reported payload bytes equal the blocking run's — across
    /// ACP-SGD's P/Q alternation, Power-SGD's second round and the
    /// error-feedback carry-over, on multi-bucket plans.
    #[test]
    fn any_arrival_order_is_bit_identical_to_blocking(
        dims in proptest::collection::vec((1usize..10, 0usize..8), 3..8),
        big_at in 0usize..8,
        buffer_bytes in 64usize..640,
        seed in 0u64..u64::MAX,
    ) {
        let shapes = to_shapes(&dims, big_at);
        let schedules = [
            Schedule::Blocking,
            Schedule::Reverse,
            Schedule::Permutation(seed),
            Schedule::Subset(seed.rotate_left(17)),
        ];
        let per_rank = observe_all(&shapes, buffer_bytes, &schedules, 5);
        for (rank, observed) in per_rank.iter().enumerate() {
            for (spec, runs) in aggregators().iter().zip(observed.chunks(schedules.len())) {
                for (schedule, run) in schedules.iter().zip(runs).skip(1) {
                    prop_assert_eq!(
                        run, &runs[0],
                        "{} under {:?} differs from blocking on rank {}",
                        spec.name(), schedule, rank
                    );
                }
            }
        }
        // And the ranks agree with each other.
        prop_assert_eq!(&per_rank[0], &per_rank[1]);
    }
}

/// Three tensors in two buckets: `{0, 1}` and `{2}`.
const TWO_BUCKETS: [&[usize]; 3] = [&[4, 3], &[5], &[6, 2]];
const TWO_BUCKETS_BYTES: usize = 4 * (12 + 5);

fn two_bucket_grads(step: usize) -> Vec<Vec<f32>> {
    TWO_BUCKETS
        .iter()
        .enumerate()
        .map(|(t, dims)| gradient(0, step, t, dims.iter().product()))
        .collect()
}

fn views<'a>(grads: &'a mut [Vec<f32>]) -> Vec<GradViewMut<'a>> {
    TWO_BUCKETS
        .iter()
        .zip(grads.iter_mut())
        .map(|(dims, grad)| GradViewMut { dims, grad })
        .collect()
}

#[test]
fn a_tensor_pushed_twice_is_one_error_before_and_after_dispatch() {
    // A stateless codec and a low-rank one, whose matrices are compressed
    // the moment they are pushed.
    for spec in [
        Aggregator::Ssgd,
        Aggregator::AcpSgd(AcpSgdConfig::default().with_rank(2)),
    ] {
        // `first` completes bucket {2}, which is dispatched at once, or
        // leaves bucket {0, 1} open; the second push of it must fail
        // either way. (It used to overwrite an open bucket's slot and be
        // dropped silently once the bucket was in flight.)
        for first in [2usize, 0] {
            let mut comm = LocalCommunicator::new();
            let mut opt = build_optimizer(&spec);
            opt.set_buffer_bytes(TWO_BUCKETS_BYTES);
            let mut grads = two_bucket_grads(0);
            opt.aggregate(&mut views(&mut grads), &mut comm)
                .expect("the plan-building step");

            let grads = two_bucket_grads(1);
            opt.push_ready(first, TWO_BUCKETS[first], &grads[first], &mut comm)
                .expect("first push");
            let again = opt.push_ready(first, TWO_BUCKETS[first], &grads[first], &mut comm);
            assert_eq!(
                again,
                Err(CoreError::TensorPushedTwice { index: first }),
                "{} tensor {first}",
                spec.name()
            );

            // The step was discarded whole; the aggregator takes the next
            // one as if nothing had been pushed.
            let mut grads = two_bucket_grads(2);
            let inputs = grads.clone();
            for index in (0..TWO_BUCKETS.len()).rev() {
                opt.push_ready(index, TWO_BUCKETS[index], &grads[index], &mut comm)
                    .expect("push after the discarded step");
            }
            opt.finish_overlap(&mut views(&mut grads), &mut comm)
                .expect("the step after the discarded one");
            if spec == Aggregator::Ssgd {
                assert_eq!(grads, inputs, "a world of one averages to itself");
            } else {
                assert!(grads.iter().flatten().all(|v| v.is_finite()));
            }
        }
    }
}

/// A world of two in which this rank is honest and the peer's half of
/// every gathered payload is whatever the test planted.
struct CorruptPeer {
    peer_u32: Vec<u32>,
    peer_f32: Vec<f32>,
}

impl Communicator for CorruptPeer {
    fn rank(&self) -> usize {
        0
    }

    fn world_size(&self) -> usize {
        2
    }

    fn all_reduce(&mut self, _buf: &mut [f32], _op: ReduceOp) -> Result<(), CommError> {
        Ok(())
    }

    fn all_gather_f32(&mut self, send: &[f32]) -> Result<Vec<f32>, CommError> {
        Ok([send, &self.peer_f32].concat())
    }

    fn all_gather_u32(&mut self, send: &[u32]) -> Result<Vec<u32>, CommError> {
        Ok([send, &self.peer_u32].concat())
    }

    fn broadcast(&mut self, _buf: &mut [f32], _root: usize) -> Result<(), CommError> {
        Ok(())
    }

    fn barrier(&mut self) -> Result<(), CommError> {
        Ok(())
    }

    fn bytes_sent(&self) -> u64 {
        0
    }

    fn global_topk(
        &mut self,
        indices: &[u32],
        values: &[f32],
        _k: usize,
    ) -> Result<(Vec<u32>, Vec<f32>), CommError> {
        Ok((
            [indices, &self.peer_u32].concat(),
            [values, &self.peer_f32].concat(),
        ))
    }
}

#[test]
fn a_peers_corrupt_payload_is_an_error_not_a_panic() {
    let elems: usize = TWO_BUCKETS
        .iter()
        .map(|d| d.iter().product::<usize>())
        .sum();
    let sparse = [
        Aggregator::Topk(TopkSgdConfig::default().with_density(0.25)),
        Aggregator::GTopk { density: 0.25 },
        Aggregator::Dgc(DgcConfig::default().with_density(0.25)),
    ];
    // (peer's u32 half, peer's f32 half, what is wrong with them)
    let sparse_cases: [(Vec<u32>, Vec<f32>, &str); 3] = [
        (
            vec![elems as u32],
            vec![1.0],
            "an index one past the bucket",
        ),
        (vec![u32::MAX], vec![1.0], "an index far outside the bucket"),
        (vec![0, 1], vec![1.0], "fewer values than indices"),
    ];
    let words = elems.div_ceil(32);
    let sign_cases: [(Vec<u32>, Vec<f32>, &str); 3] = [
        (vec![0; words - 1], vec![1.0], "too few sign words"),
        (vec![0; words], vec![], "no scale"),
        (vec![0; words], vec![1.0, 2.0], "two scales"),
    ];
    let cases = sparse
        .iter()
        .flat_map(|spec| sparse_cases.iter().map(move |case| (*spec, case)))
        .chain(
            sign_cases
                .iter()
                .map(|case| (Aggregator::SignSgd(SignSgdConfig::default()), case)),
        );
    for (spec, (peer_u32, peer_f32, what)) in cases {
        let mut comm = CorruptPeer {
            peer_u32: peer_u32.clone(),
            peer_f32: peer_f32.clone(),
        };
        // One bucket holding all three tensors.
        let mut opt = build_optimizer(&spec);
        let mut grads = two_bucket_grads(0);
        let result = opt.aggregate(&mut views(&mut grads), &mut comm);
        assert!(
            matches!(result, Err(CoreError::CodecProtocol(_))),
            "{} given {what}: {result:?}",
            spec.name()
        );
    }
}

#[test]
fn a_replan_between_steps_leaves_a_fresh_aggregator() {
    // `set_buffer_bytes` and `on_membership_change` drop the plan and every
    // bucket-keyed codec buffer with it: the steps after either equal a
    // fresh aggregator's first steps on the new plan, bit for bit.
    let shapes: Vec<Vec<usize>> = vec![vec![6, 5], vec![7], vec![16, 12], vec![3, 4], vec![9]];
    let per_rank = ThreadGroup::run(2, move |mut comm| {
        let mut observed = Vec::new();
        for spec in aggregators() {
            for resize in [true, false] {
                let (before, after) = if resize { (96, 400) } else { (400, 400) };
                let mut opt = build_optimizer(&spec);
                opt.set_buffer_bytes(before);
                run_steps(opt.as_mut(), &mut comm, &shapes, Schedule::Reverse, 0..3);
                if resize {
                    opt.set_buffer_bytes(after);
                } else {
                    opt.on_membership_change();
                }
                let replanned =
                    run_steps(opt.as_mut(), &mut comm, &shapes, Schedule::Reverse, 3..6);

                let mut fresh = build_optimizer(&spec);
                fresh.set_buffer_bytes(after);
                let expected =
                    run_steps(fresh.as_mut(), &mut comm, &shapes, Schedule::Reverse, 3..6);
                observed.push((spec.name(), resize, replanned == expected));
            }
        }
        observed
    });
    for observed in per_rank {
        for (name, resize, same) in observed {
            assert!(
                same,
                "{name} after a re-plan (resize {resize}) is not fresh"
            );
        }
    }
}
