//! Property-based tests of the matrix substrate.

use proptest::prelude::*;

use acp_tensor::kernels::{
    matmul_nt_into, project_cols, project_cols_corrected, project_rows, project_rows_corrected,
    reconstruct, reference, subtract_reconstruction, THIN_MAX,
};
use acp_tensor::vecops;
use acp_tensor::{orthogonalize, orthogonalize_householder, Matrix, MatrixShape, WorkerPool};

/// Strategy: a matrix with bounded dimensions and values.
fn matrix(max_dim: usize) -> impl Strategy<Value = Matrix> {
    (1..=max_dim, 1..=max_dim).prop_flat_map(|(r, c)| {
        proptest::collection::vec(-100.0f32..100.0, r * c)
            .prop_map(move |data| Matrix::from_vec(r, c, data).expect("sized vec"))
    })
}

/// Strategy: `len` values, about one in fifty replaced by a signed zero,
/// an infinity or NaN — the values on which a reordered add or a fused
/// multiply-add shows in the bits.
fn salted(len: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec((-100.0f32..100.0, 0u8..=255), len).prop_map(|v| {
        v.into_iter()
            .map(|(x, salt)| match salt {
                0 => -0.0,
                1 => 0.0,
                2 => f32::INFINITY,
                3 => f32::NEG_INFINITY,
                4 => f32::NAN,
                _ => x,
            })
            .collect()
    })
}

/// Strategy: `(n, k, m, A, B)` for `A·Bᵀ` on the generic (non-thin) route:
/// row counts off the 4-row tile, `k` past `THIN_MAX`, `m` off the
/// 8-column panel.
fn nt_operands() -> impl Strategy<Value = (usize, usize, usize, Vec<f32>, Vec<f32>)> {
    (1usize..=13, THIN_MAX + 1..=80, 1usize..=20).prop_flat_map(|(n, k, m)| {
        (salted(n * k), salted(m * k)).prop_map(move |(a, b)| (n, k, m, a, b))
    })
}

/// The operands of one thin-factor call, `(n, m, r, G, E, Q, P)`.
type ThinOperands = (usize, usize, usize, Vec<f32>, Vec<f32>, Vec<f32>, Vec<f32>);

/// Strategy: gradient `G` and residual `E` (`n×m`) and factors `Q`
/// (`m×r`) and `P` (`n×r`), all salted. Rows and columns are mostly off
/// the 8-row tile and the 8-lane vector, and large shapes cross the
/// parallel threshold, so tasks split rows and columns unevenly; `r`
/// spans the single-panel widths and the split ones.
fn thin_operands() -> impl Strategy<Value = ThinOperands> {
    (1usize..=40, 1usize..=300, 1usize..=13).prop_flat_map(|(n, m, r)| {
        (salted(n * m), salted(n * m), salted(m * r), salted(n * r))
            .prop_map(move |(g, e, q, p)| (n, m, r, g, e, q, p))
    })
}

/// Bit patterns, with every NaN mapped to one: which operand's sign and
/// payload an add of two NaNs returns is left open by IEEE 754 and
/// unspecified in Rust, so only NaN-ness is part of the contract.
fn bits(v: &[f32]) -> Vec<u32> {
    v.iter()
        .map(|x| if x.is_nan() { f32::NAN } else { *x }.to_bits())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn matmul_nt_generic_route_matches_reference_bitwise(
        operands in nt_operands(),
        workers in 0usize..=3,
    ) {
        let (n, k, m, a, b) = operands;
        let pool = WorkerPool::new(workers);
        let mut out = vec![f32::NAN; n * m];
        matmul_nt_into(&pool, n, k, m, &a, &b, &mut out);
        prop_assert_eq!(
            bits(&out),
            bits(&reference::matmul_nt(n, k, m, &a, &b)),
            "n={} k={} m={} workers={}", n, k, m, workers
        );
    }

    #[test]
    fn thin_kernels_match_reference_bitwise(
        operands in thin_operands(),
        workers in 0usize..=3,
    ) {
        let (n, m, r, g, e0, q, p) = operands;
        let pool = WorkerPool::new(workers);
        let what = format!("n={n} m={m} r={r} workers={workers}");

        let mut p_out = vec![f32::NAN; n * r];
        project_rows(&pool, n, m, r, &g, &q, &mut p_out);
        prop_assert_eq!(
            bits(&p_out), bits(&reference::matmul(n, m, r, &g, &q)), "project_rows {}", what
        );

        let mut q_out = vec![f32::NAN; m * r];
        project_cols(&pool, n, m, r, &g, &p, &mut q_out);
        prop_assert_eq!(
            bits(&q_out), bits(&reference::matmul_tn(n, m, r, &g, &p)), "project_cols {}", what
        );

        let approx = reference::matmul_nt(n, r, m, &p, &q);
        let mut out = vec![f32::NAN; n * m];
        reconstruct(&pool, n, m, r, &p, &q, &mut out);
        prop_assert_eq!(bits(&out), bits(&approx), "reconstruct {}", what);

        let mut e = e0.clone();
        subtract_reconstruction(&pool, n, m, r, &p, &q, &mut e);
        let expected: Vec<f32> = e0.iter().zip(&approx).map(|(e, a)| e - a).collect();
        prop_assert_eq!(bits(&e), bits(&expected), "subtract_reconstruction {}", what);

        // E ← G + E, then P = E·Q and optionally E ← E − P·Qᵀ.
        let c: Vec<f32> = e0.iter().zip(&g).map(|(e, g)| e + g).collect();
        let p_ref = reference::matmul(n, m, r, &c, &q);
        let c_approx = reference::matmul_nt(n, r, m, &p_ref, &q);
        let residual: Vec<f32> = c.iter().zip(&c_approx).map(|(c, a)| c - a).collect();
        for with_residual in [false, true] {
            let mut e = e0.clone();
            let mut p_out = vec![f32::NAN; n * r];
            project_rows_corrected(&pool, n, m, r, &g, &mut e, &q, &mut p_out, with_residual);
            prop_assert_eq!(bits(&p_out), bits(&p_ref), "project_rows_corrected P {}", what);
            let expected = if with_residual { &residual } else { &c };
            prop_assert_eq!(bits(&e), bits(expected), "project_rows_corrected E {}", what);
        }

        let mut e = e0.clone();
        let mut q_out = vec![f32::NAN; m * r];
        project_cols_corrected(&pool, n, m, r, &g, &mut e, &p, &mut q_out);
        prop_assert_eq!(bits(&e), bits(&c), "project_cols_corrected E {}", what);
        prop_assert_eq!(
            bits(&q_out),
            bits(&reference::matmul_tn(n, m, r, &c, &p)),
            "project_cols_corrected Q {}", what
        );
    }

    #[test]
    fn transpose_is_involutive(m in matrix(12)) {
        prop_assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn transpose_swaps_dims(m in matrix(12)) {
        let t = m.transpose();
        prop_assert_eq!((t.rows(), t.cols()), (m.cols(), m.rows()));
        for r in 0..m.rows() {
            for c in 0..m.cols() {
                prop_assert_eq!(m.get(r, c), t.get(c, r));
            }
        }
    }

    #[test]
    fn matmul_identity_is_noop(m in matrix(10)) {
        let i = Matrix::identity(m.cols());
        let p = m.matmul(&i);
        prop_assert!(p.max_abs_diff(&m) < 1e-4);
    }

    #[test]
    fn matmul_tn_and_nt_agree_with_explicit_transpose(m in matrix(8), k in 1usize..6) {
        let other = Matrix::from_vec(
            m.rows(),
            k,
            (0..m.rows() * k).map(|i| (i as f32 * 0.37).sin()).collect(),
        ).unwrap();
        let fast = m.matmul_tn(&other);
        let slow = m.transpose().matmul(&other);
        prop_assert!(fast.max_abs_diff(&slow) < 1e-2);

        let other2 = Matrix::from_vec(
            k,
            m.cols(),
            (0..k * m.cols()).map(|i| (i as f32 * 0.11).cos()).collect(),
        ).unwrap();
        let fast2 = m.matmul_nt(&other2);
        let slow2 = m.matmul(&other2.transpose());
        prop_assert!(fast2.max_abs_diff(&slow2) < 1e-2);
    }

    #[test]
    fn matmul_distributes_over_addition(a in matrix(6)) {
        // (A + A) B = 2 A B.
        let b = Matrix::identity(a.cols());
        let lhs = (&a + &a).matmul(&b);
        let mut rhs = a.matmul(&b);
        rhs.scale(2.0);
        prop_assert!(lhs.max_abs_diff(&rhs) < 1e-3);
    }

    #[test]
    fn frobenius_norm_is_homogeneous(m in matrix(10), s in -4.0f32..4.0) {
        let mut scaled = m.clone();
        scaled.scale(s);
        let expect = m.frobenius_norm() * s.abs();
        prop_assert!((scaled.frobenius_norm() - expect).abs() < 1e-2 * (1.0 + expect));
    }

    #[test]
    fn gram_schmidt_output_is_orthonormal(m in matrix(10)) {
        // Only meaningful for tall-or-square matrices (thin factors).
        prop_assume!(m.rows() >= m.cols());
        let mut q = m.clone();
        orthogonalize(&mut q);
        prop_assert!(q.is_finite());
        for c1 in 0..q.cols() {
            for c2 in 0..q.cols() {
                let mut dot = 0.0f32;
                for r in 0..q.rows() {
                    dot += q.get(r, c1) * q.get(r, c2);
                }
                let expect = if c1 == c2 { 1.0 } else { 0.0 };
                prop_assert!((dot - expect).abs() < 1e-3, "dot({c1},{c2}) = {dot}");
            }
        }
    }

    #[test]
    fn householder_matches_gram_schmidt_projection(m in matrix(8)) {
        prop_assume!(m.rows() >= m.cols());
        prop_assume!(m.frobenius_norm() > 1e-3);
        let mut gs = m.clone();
        orthogonalize(&mut gs);
        let hh = orthogonalize_householder(&m);
        // Projections of a fixed probe must agree (same span).
        let probe = Matrix::from_vec(
            m.rows(),
            1,
            (0..m.rows()).map(|i| (i as f32 * 0.77).sin() + 0.1).collect(),
        ).unwrap();
        let p1 = gs.matmul(&gs.matmul_tn(&probe));
        let p2 = hh.matmul(&hh.matmul_tn(&probe));
        prop_assert!(p1.max_abs_diff(&p2) < 2e-2, "span mismatch");
    }

    #[test]
    fn shape_roundtrip_preserves_numel(dims in proptest::collection::vec(1usize..20, 1..5)) {
        let shape = MatrixShape::from_tensor_shape(&dims);
        prop_assert_eq!(shape.numel(), dims.iter().product::<usize>());
    }

    #[test]
    fn low_rank_never_exceeds_dense(dims in proptest::collection::vec(2usize..30, 2..4), rank in 1usize..8) {
        let shape = MatrixShape::from_tensor_shape(&dims);
        if let Some((p, q)) = shape.low_rank_numel(rank) {
            // Clamped rank guarantees the factors are at most the dense size
            // each; ratio is at least 1/2 in the degenerate case.
            prop_assert!(p <= shape.numel());
            prop_assert!(q <= shape.numel());
        }
    }

    #[test]
    fn vecops_axpy_matches_scalar_loop(
        x in proptest::collection::vec(-10.0f32..10.0, 1..64),
        a in -3.0f32..3.0,
    ) {
        let mut y = vec![1.0f32; x.len()];
        let mut expect = y.clone();
        vecops::axpy(a, &x, &mut y);
        for (e, xi) in expect.iter_mut().zip(&x) {
            *e += a * xi;
        }
        prop_assert_eq!(y, expect);
    }

    #[test]
    fn vecops_norms_relate(x in proptest::collection::vec(-10.0f32..10.0, 1..64)) {
        // ||x||_inf <= ||x||_2 <= ||x||_1 (up to float error).
        let inf = vecops::norm_inf(&x);
        let two = vecops::norm2(&x);
        let one = vecops::norm1(&x);
        prop_assert!(inf <= two * 1.0001 + 1e-6);
        prop_assert!(two <= one * 1.0001 + 1e-6);
    }
}
