//! Property-based tests of the compression algorithms' invariants.

use proptest::prelude::*;

use acp_compression::acp::{AcpSgd, AcpSgdConfig, FactorSide};
use acp_compression::powersgd::{PowerSgd, PowerSgdConfig};
use acp_compression::{Compressor, ErrorFeedback, Payload, SignSgd, TopK};
use acp_tensor::Matrix;

fn gradient(len: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-50.0f32..50.0, len..=len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Sign-SGD decode magnitudes always equal the payload scale.
    #[test]
    fn sign_decode_magnitudes_equal_scale(len in 1usize..200, seed in 0u64..50) {
        let grad: Vec<f32> = (0..len).map(|i| ((i as u64 * seed + 1) as f32).sin()).collect();
        let mut c = SignSgd::scaled();
        let p = c.compress(&grad);
        let scale = match &p {
            Payload::Signs { scale, .. } => *scale,
            _ => unreachable!(),
        };
        let mut out = vec![0.0f32; len];
        c.decompress(&p, &mut out);
        for v in &out {
            prop_assert!((v.abs() - scale).abs() < 1e-6);
        }
    }

    /// Top-k keeps exactly min(k, len) elements, all present in the input.
    #[test]
    fn topk_selection_is_a_subset(grad in gradient(64), k in 1usize..80) {
        let mut c = TopK::new(k);
        if let Payload::Sparse { indices, values, .. } = c.compress(&grad) {
            prop_assert_eq!(indices.len(), k.min(64));
            for (&i, &v) in indices.iter().zip(&values) {
                prop_assert_eq!(grad[i as usize], v);
            }
            // Selected magnitudes dominate unselected ones.
            let min_selected = values.iter().map(|v| v.abs()).fold(f32::INFINITY, f32::min);
            for (i, g) in grad.iter().enumerate() {
                if !indices.contains(&(i as u32)) {
                    prop_assert!(g.abs() <= min_selected + 1e-6);
                }
            }
        } else {
            prop_assert!(false);
        }
    }

    /// Error feedback conserves mass exactly: over T steps, the sum of
    /// decoded payloads plus the final residual equals the sum of inputs.
    #[test]
    fn error_feedback_mass_conservation(
        grads in proptest::collection::vec(gradient(16), 1..5),
        k in 1usize..8,
    ) {
        let mut ef = ErrorFeedback::new(TopK::new(k));
        let mut sent = vec![0.0f64; 16];
        let mut truth = [0.0f64; 16];
        for g in &grads {
            let p = ef.compress(g);
            let mut dec = vec![0.0f32; 16];
            ef.decompress(&p, &mut dec);
            for i in 0..16 {
                sent[i] += dec[i] as f64;
                truth[i] += g[i] as f64;
            }
        }
        let residual2: f64 = truth
            .iter()
            .zip(&sent)
            .map(|(t, s)| (t - s) * (t - s))
            .sum();
        let expect = ef.residual_norm() as f64;
        prop_assert!(
            (residual2.sqrt() - expect).abs() < 1e-2 * (1.0 + expect),
            "{} vs {}",
            residual2.sqrt(),
            expect
        );
    }

    /// ACP-SGD: the factor side strictly alternates and the factor shapes
    /// match (n×r, m×r).
    #[test]
    fn acp_sides_alternate_with_correct_shapes(
        n in 2usize..10,
        m in 2usize..10,
        rank in 1usize..4,
        steps in 1usize..6,
    ) {
        let grad = Matrix::from_vec(
            n,
            m,
            (0..n * m).map(|i| (i as f32 * 0.3).sin()).collect(),
        ).unwrap();
        let mut acp = AcpSgd::new(n, m, AcpSgdConfig { rank, ..Default::default() });
        let r = rank.min(n).min(m);
        for s in 0..steps {
            let side = acp.next_side();
            prop_assert_eq!(side, if s % 2 == 0 { FactorSide::P } else { FactorSide::Q });
            let f = acp.compress(&grad);
            match side {
                FactorSide::P => prop_assert_eq!((f.rows(), f.cols()), (n, r)),
                FactorSide::Q => prop_assert_eq!((f.rows(), f.cols()), (m, r)),
            }
            let approx = acp.finish(f);
            prop_assert_eq!((approx.rows(), approx.cols()), (n, m));
            prop_assert!(approx.is_finite());
        }
    }

    /// Power-SGD with EF on a single worker: the EF identity
    /// `M + E_{t−1} = M̂_t + E_t` holds for arbitrary gradients and ranks.
    #[test]
    fn powersgd_ef_identity(n in 2usize..8, m in 2usize..8, rank in 1usize..4, seed in 0u64..30) {
        let grad = Matrix::from_vec(
            n,
            m,
            (0..n * m).map(|i| ((i as u64 + seed) as f32 * 0.7).cos()).collect(),
        ).unwrap();
        let mut ps = PowerSgd::new(n, m, PowerSgdConfig { rank, ..Default::default() });
        let mut prev_e = Matrix::zeros(n, m);
        for _ in 0..3 {
            let before = &grad + &prev_e;
            let p = ps.compute_p(&grad);
            let q = ps.compute_q(p);
            let approx = ps.finish(q);
            let e = &before - &approx;
            prop_assert!(
                (e.frobenius_norm() - ps.error_norm()).abs() < 1e-2 * (1.0 + e.frobenius_norm())
            );
            prev_e = e;
        }
    }

    /// Compression ratios are always >= 1 for the sub-dense encodings.
    #[test]
    fn ratios_at_least_one(grad in gradient(256)) {
        let mut sign = SignSgd::plain();
        prop_assert!(sign.compress(&grad).compression_ratio() >= 1.0);
        let mut topk = TopK::new(16);
        prop_assert!(topk.compress(&grad).compression_ratio() >= 1.0);
    }
}
