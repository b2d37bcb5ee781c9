//! Golden bits of the error-feedback state, step by step.
//!
//! Two in-process ranks run five steps of each aggregator that keeps an
//! `ErrorFeedback` residual — Top-k and Sign-SGD with error feedback, and
//! gTop-k — over six tensors that a 4 KiB fusion buffer splits into three
//! buckets. The first step builds the plan through `aggregate`; the others
//! push every tensor, deepest first, and then `finish_overlap`. After every
//! step each rank folds its aggregated gradients and the bits of its
//! `residual_norm()` into an FNV-1a digest; both digests are pinned. The
//! aggregated gradients agree across ranks, the residuals do not, so the
//! two ranks pin different constants.
//!
//! Also pinned: a step discarded by `TensorPushedTwice` before any bucket
//! was dispatched leaves these codecs and DGC exactly as if nothing had
//! been pushed — the next full steps match, bit for bit, a twin that never
//! saw the discarded step.

use acp_collectives::{Communicator, ThreadGroup};
use acp_core::{
    CoreError, DgcAggregator, DgcConfig, DistributedOptimizer, GTopkSgdAggregator, GradViewMut,
    SignSgdAggregator, SignSgdConfig, TopkSgdAggregator, TopkSgdConfig,
};
use acp_tensor::rng::{fill_std_normal, seeded_rng};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Tensor shapes in forward order: 3072, 96, 4608, 64, 1600 and 40 bytes.
const SHAPES: [&[usize]; 6] = [&[32, 24], &[24], &[16, 8, 3, 3], &[16], &[10, 40], &[10]];

/// Fusion buffer: buckets `[0, 1]`, `[2]` and `[3, 4, 5]`.
const BUFFER_BYTES: usize = 4096;

/// A selection density that keeps several elements of every bucket.
const DENSITY: f64 = 0.05;

const WORLD: usize = 2;
const STEPS: u64 = 5;

fn topk() -> TopkSgdAggregator {
    TopkSgdAggregator::from_config(
        TopkSgdConfig::default()
            .with_density(DENSITY)
            .with_buffer_bytes(BUFFER_BYTES),
    )
}

fn gtopk() -> GTopkSgdAggregator {
    GTopkSgdAggregator::with_buffer_bytes(DENSITY, BUFFER_BYTES)
}

fn signsgd() -> SignSgdAggregator {
    SignSgdAggregator::from_config(
        SignSgdConfig::default()
            .with_error_feedback(true)
            .with_buffer_bytes(BUFFER_BYTES),
    )
}

fn dgc() -> DgcAggregator {
    DgcAggregator::new(
        DgcConfig::default()
            .with_density(DENSITY)
            .with_buffer_bytes(BUFFER_BYTES),
    )
}

/// FNV-1a over `bytes`, continuing from `h`.
fn fnv1a(mut h: u64, bytes: impl IntoIterator<Item = u8>) -> u64 {
    for byte in bytes {
        h ^= u64::from(byte);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// This rank's gradients for `step`; `scale` sets their magnitude.
fn gradients(rank: u64, step: u64, scale: f32) -> Vec<Vec<f32>> {
    SHAPES
        .iter()
        .enumerate()
        .map(|(i, dims)| {
            let mut g = vec![0.0f32; dims.iter().product()];
            let seed = (rank << 32) ^ (step << 16) ^ i as u64;
            fill_std_normal(&mut g, &mut seeded_rng(seed));
            g.iter_mut().for_each(|v| *v *= scale);
            g
        })
        .collect()
}

fn views(grads: &mut [Vec<f32>]) -> Vec<GradViewMut<'_>> {
    SHAPES
        .iter()
        .zip(grads.iter_mut())
        .map(|(dims, grad)| GradViewMut { dims, grad })
        .collect()
}

/// One complete step: `aggregate` for step 0 (which builds the plan),
/// every tensor pushed deepest first and then `finish_overlap` after.
fn full_step(
    opt: &mut impl DistributedOptimizer,
    comm: &mut dyn Communicator,
    rank: u64,
    step: u64,
) -> Vec<Vec<f32>> {
    let mut grads = gradients(rank, step, 1.0);
    if step == 0 {
        opt.aggregate(&mut views(&mut grads), comm).unwrap();
    } else {
        for index in (0..SHAPES.len()).rev() {
            opt.push_ready(index, SHAPES[index], &grads[index], comm)
                .unwrap();
        }
        opt.finish_overlap(&mut views(&mut grads), comm).unwrap();
    }
    grads
}

/// Runs `make` for `STEPS` steps on `WORLD` ranks; returns each rank's
/// digest of its outputs and residual norm bits after every step.
fn digests<O: DistributedOptimizer + 'static>(
    make: fn() -> O,
    residual: fn(&O) -> f32,
) -> Vec<u64> {
    ThreadGroup::run(WORLD, move |mut comm| {
        let rank = comm.rank_id().as_usize() as u64;
        let mut opt = make();
        let mut h = FNV_OFFSET;
        for step in 0..STEPS {
            let grads = full_step(&mut opt, &mut comm, rank, step);
            for g in &grads {
                h = fnv1a(h, g.iter().flat_map(|v| v.to_le_bytes()));
            }
            h = fnv1a(h, residual(&opt).to_bits().to_le_bytes());
        }
        h
    })
}

#[test]
fn topk_with_error_feedback_reproduces_its_golden_state() {
    let got = digests(topk, TopkSgdAggregator::residual_norm);
    assert_eq!(
        got,
        [0xf930_5ecd_a7a7_a1a0, 0xb122_dbee_1072_d584],
        "{got:#018x?}"
    );
}

#[test]
fn gtopk_reproduces_its_golden_state() {
    let got = digests(gtopk, GTopkSgdAggregator::residual_norm);
    assert_eq!(
        got,
        [0xb5d0_c01a_5d8b_548d, 0xf0a7_ab50_f7a8_6e11],
        "{got:#018x?}"
    );
}

#[test]
fn signsgd_with_error_feedback_reproduces_its_golden_state() {
    let got = digests(signsgd, SignSgdAggregator::residual_norm);
    assert_eq!(
        got,
        [0xfbee_b09b_f456_5d3d, 0x66a5_a0f4_c8d2_12af],
        "{got:#018x?}"
    );
}

/// Runs two twins of `make` side by side on `WORLD` ranks: one sees a step
/// discarded by `TensorPushedTwice` after step 0, the other does not.
/// Every later step's outputs and residual bits must agree.
fn discarded_step_leaves_no_trace<O: DistributedOptimizer + 'static>(
    make: fn() -> O,
    residual: fn(&O) -> f32,
) {
    ThreadGroup::run(WORLD, move |mut comm| {
        let rank = comm.rank_id().as_usize() as u64;
        let (mut dropped, mut twin) = (make(), make());
        full_step(&mut dropped, &mut comm, rank, 0);
        full_step(&mut twin, &mut comm, rank, 0);

        // Tensors of the open buckets `[0, 1]` and `[3, 4, 5]`, large
        // enough that any trace of them would move the selection; neither
        // bucket completes, so nothing is dispatched.
        let junk = gradients(rank, 99, 1.0e3);
        for index in [4, 1] {
            dropped
                .push_ready(index, SHAPES[index], &junk[index], &mut comm)
                .unwrap();
        }
        assert_eq!(
            dropped.push_ready(4, SHAPES[4], &junk[4], &mut comm),
            Err(CoreError::TensorPushedTwice { index: 4 })
        );

        for step in 1..STEPS {
            let a = full_step(&mut dropped, &mut comm, rank, step);
            let b = full_step(&mut twin, &mut comm, rank, step);
            let bits = |g: &[Vec<f32>]| g.iter().flatten().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&a), bits(&b), "rank {rank} step {step}: outputs");
            assert_eq!(
                residual(&dropped).to_bits(),
                residual(&twin).to_bits(),
                "rank {rank} step {step}: residual"
            );
        }
    });
}

#[test]
fn a_discarded_step_leaves_topk_as_it_was() {
    discarded_step_leaves_no_trace(topk, TopkSgdAggregator::residual_norm);
}

#[test]
fn a_discarded_step_leaves_gtopk_as_it_was() {
    discarded_step_leaves_no_trace(gtopk, GTopkSgdAggregator::residual_norm);
}

#[test]
fn a_discarded_step_leaves_signsgd_as_it_was() {
    discarded_step_leaves_no_trace(signsgd, SignSgdAggregator::residual_norm);
}

#[test]
fn a_discarded_step_leaves_dgc_as_it_was() {
    discarded_step_leaves_no_trace(dgc, DgcAggregator::accumulated_norm);
}
