//! Golden bits of every aggregator, end to end through `build_optimizer`.
//!
//! Two in-process ranks run four steps of each of the seven aggregators at
//! their default configurations (gTop-k at density 0.01; Power-SGD and
//! ACP-SGD with one warm-start step, so both the exact and the compressed
//! path run). The tensor list mixes matrices, a 4-D convolution weight and
//! vectors, and a 4 KiB fusion buffer splits it into three buckets, so the
//! per-tensor seeding of the low-rank codecs (by global tensor index, not
//! by slot within a bucket) shows in the bits.
//!
//! Each rank's aggregated gradients of all four steps are hashed with
//! FNV-1a; every rank must end on the same constant.

use acp_collectives::{Communicator, ThreadGroup};
use acp_core::{
    build_optimizer, AcpSgdConfig, Aggregator, DgcConfig, GradViewMut, PowerSgdConfig,
    SignSgdConfig, TopkSgdConfig,
};
use acp_tensor::rng::{fill_std_normal, seeded_rng};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Tensor shapes in forward order: 3072, 96, 4608, 64, 1600 and 40 bytes.
const SHAPES: [&[usize]; 6] = [&[32, 24], &[24], &[16, 8, 3, 3], &[16], &[10, 40], &[10]];

/// Fusion buffer: buckets `[0, 1]`, `[2]` and `[3, 4, 5]`.
const BUFFER_BYTES: usize = 4096;

const WORLD: usize = 2;
const STEPS: u64 = 4;

/// The aggregators with the digest each rank must reach.
fn cases() -> [(Aggregator, u64); 7] {
    [
        (Aggregator::Ssgd, 0x5772_19e3_e82c_9972),
        (
            Aggregator::SignSgd(SignSgdConfig::default()),
            0x9434_d681_d406_bcc9,
        ),
        (
            Aggregator::Topk(TopkSgdConfig::default()),
            0xf171_b4dd_f55c_cfdc,
        ),
        (Aggregator::GTopk { density: 0.01 }, 0xacb8_068c_7467_cde6),
        (Aggregator::Dgc(DgcConfig::default()), 0x4d17_16c9_0e10_c144),
        (
            Aggregator::PowerSgd(PowerSgdConfig {
                warm_start_steps: 1,
                ..PowerSgdConfig::default()
            }),
            0xbe16_e160_3240_e4da,
        ),
        (
            Aggregator::AcpSgd(AcpSgdConfig {
                warm_start_steps: 1,
                ..AcpSgdConfig::default()
            }),
            0xb17d_e446_23d2_3b82,
        ),
    ]
}

/// FNV-1a over the little-endian bytes of `values`, continuing from `h`.
fn fnv1a(mut h: u64, values: &[f32]) -> u64 {
    for byte in values.iter().flat_map(|v| v.to_le_bytes()) {
        h ^= u64::from(byte);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Runs `spec` on `WORLD` ranks and returns each rank's digest.
fn digests(spec: Aggregator) -> Vec<u64> {
    ThreadGroup::run(WORLD, move |mut comm| {
        let rank = comm.rank_id().as_usize() as u64;
        let mut opt = build_optimizer(&spec);
        opt.set_buffer_bytes(BUFFER_BYTES);
        let mut h = FNV_OFFSET;
        for step in 0..STEPS {
            let mut grads: Vec<Vec<f32>> = SHAPES
                .iter()
                .enumerate()
                .map(|(i, dims)| {
                    let mut g = vec![0.0f32; dims.iter().product()];
                    let seed = (rank << 32) ^ (step << 16) ^ i as u64;
                    fill_std_normal(&mut g, &mut seeded_rng(seed));
                    g
                })
                .collect();
            let mut views: Vec<GradViewMut<'_>> = SHAPES
                .iter()
                .zip(grads.iter_mut())
                .map(|(dims, grad)| GradViewMut { dims, grad })
                .collect();
            opt.aggregate(&mut views, &mut comm).unwrap();
            for g in &grads {
                h = fnv1a(h, g);
            }
        }
        h
    })
}

#[test]
fn every_aggregator_reproduces_its_golden_digest() {
    let mut failures = Vec::new();
    for (spec, golden) in cases() {
        let got = digests(spec);
        for (rank, &d) in got.iter().enumerate() {
            if d != golden {
                failures.push(format!("{} rank {rank}: {d:#018x}", spec.name()));
            }
        }
    }
    assert!(failures.is_empty(), "digests moved: {failures:#?}");
}
