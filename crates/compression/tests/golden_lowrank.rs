//! Golden bits of the low-rank compressors.
//!
//! Every product ACP-SGD and Power-SGD compute — `P = (M + E)·Q`,
//! `Q = (M + E)ᵀ·P`, the residual `E − P·Qᵀ` and the reconstruction
//! `P·Qᵀ` — runs through the thin-factor kernels of `acp_tensor::kernels`,
//! so a kernel that reorders a single add, fuses a multiply into it or
//! lets a skipped `0·inf` term back in moves these constants.
//!
//! Shapes: the benchmark's `512×4608` at rank 4, plus `37×129` r=3,
//! `9×1000` r=13 (clamped to 9) and `4×128` r=4, each with positive and
//! negative zeros salted into the gradient. ACP-SGD runs four steps
//! (P, Q, P, Q) and Power-SGD two rounds, at world size 1 (the all-reduce
//! is the identity), with and without error feedback.
//!
//! The constants are what the scalar loops of
//! `acp_tensor::kernels::reference` produce; every kernel must reproduce
//! them exactly.

use acp_compression::acp::{AcpSgd, AcpSgdConfig};
use acp_compression::powersgd::{PowerSgd, PowerSgdConfig};
use acp_tensor::rng::{fill_std_normal, seeded_rng};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// `(n, m, rank)` of every pinned shape.
const SHAPES: [(usize, usize, usize); 4] =
    [(512, 4608, 4), (37, 129, 3), (9, 1000, 13), (4, 128, 4)];

/// Per shape, `[ACP-SGD with EF, ACP-SGD without, Power-SGD with EF,
/// Power-SGD without]`.
const GOLDEN: [[u64; 4]; 4] = [
    [
        0x0ab4_d19c_7e9b_663e,
        0x2b4a_38c7_4dcc_cd87,
        0xaefb_3e70_8096_e5df,
        0x3b71_2b6d_57b6_8eb9,
    ],
    [
        0xc238_303e_1285_872d,
        0xae5c_a431_861b_365f,
        0x9530_5da5_6adf_fa0b,
        0x8d55_0f46_df50_5c00,
    ],
    [
        0xf5e0_cb16_6b9d_25bd,
        0x649e_932d_63a1_bcb4,
        0xe30f_2f8f_e4b4_2705,
        0x326c_1425_e35d_9f10,
    ],
    [
        0x16bb_1908_a105_988f,
        0x55de_95b2_d7ff_75de,
        0x81a8_2084_b1ff_59e6,
        0x19cd_05d0_f235_7f21,
    ],
];

/// FNV-1a over the little-endian bytes of `values`, continuing from `h`.
fn fnv1a(mut h: u64, values: &[f32]) -> u64 {
    for byte in values.iter().flat_map(|v| v.to_le_bytes()) {
        h ^= u64::from(byte);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// A seeded standard-normal `n×m` gradient with every 13th element set to
/// `+0.0` and every 17th (not also 13th) to `−0.0`.
fn gradient(n: usize, m: usize, seed: u64) -> Vec<f32> {
    let mut g = vec![0.0f32; n * m];
    fill_std_normal(&mut g, &mut seeded_rng(seed));
    for (i, x) in g.iter_mut().enumerate() {
        if i % 13 == 0 {
            *x = 0.0;
        } else if i % 17 == 0 {
            *x = -0.0;
        }
    }
    g
}

/// Digest of four ACP-SGD steps: each step's factor, reconstruction and
/// residual.
fn acp_digest(n: usize, m: usize, rank: usize, error_feedback: bool) -> u64 {
    let cfg = AcpSgdConfig {
        rank,
        error_feedback,
        ..Default::default()
    };
    let mut acp = AcpSgd::new(n, m, cfg);
    let mut h = FNV_OFFSET;
    let mut out = vec![0.0f32; n * m];
    for step in 0..4 {
        let grad = gradient(n, m, 100 + step);
        let mut factor = vec![f32::NAN; acp.transmitted_elements()];
        acp.try_compress_slice(&grad, &mut factor)
            .expect("compress");
        h = fnv1a(h, &factor);
        h = fnv1a(h, acp.residual().unwrap_or_default());
        acp.try_finish_slice(&factor, &mut out).expect("finish");
        h = fnv1a(h, &out);
    }
    h
}

/// Digest of two Power-SGD rounds: both factors, the reconstruction and
/// the residual of each.
fn powersgd_digest(n: usize, m: usize, rank: usize, error_feedback: bool) -> u64 {
    let cfg = PowerSgdConfig {
        rank,
        error_feedback,
        ..Default::default()
    };
    let mut ps = PowerSgd::new(n, m, cfg);
    let r = ps.rank();
    let mut h = FNV_OFFSET;
    let mut out = vec![0.0f32; n * m];
    for round in 0..2 {
        let grad = gradient(n, m, 200 + round);
        let mut p = vec![f32::NAN; n * r];
        ps.try_compute_p_slice(&grad, &mut p).expect("compute_p");
        h = fnv1a(h, &p);
        let mut q = vec![f32::NAN; m * r];
        ps.try_compute_q_slice(&p, &mut q).expect("compute_q");
        h = fnv1a(h, &q);
        h = fnv1a(h, ps.residual().unwrap_or_default());
        ps.try_finish_slice(&q, &mut out).expect("finish");
        h = fnv1a(h, &out);
    }
    h
}

#[test]
fn low_rank_compressors_reproduce_golden_bits() {
    let mut failures = Vec::new();
    for (&(n, m, rank), golden) in SHAPES.iter().zip(GOLDEN) {
        if cfg!(miri) && n * m * rank > 1 << 15 {
            // Hours under the interpreter; the two small shapes take the
            // same code paths there.
            continue;
        }
        let got = [
            acp_digest(n, m, rank, true),
            acp_digest(n, m, rank, false),
            powersgd_digest(n, m, rank, true),
            powersgd_digest(n, m, rank, false),
        ];
        if got != golden {
            failures.push(format!("{n}x{m} r={rank}: got {got:#018x?}"));
        }
    }
    assert!(
        failures.is_empty(),
        "digests moved:\n{}",
        failures.join("\n")
    );
}
