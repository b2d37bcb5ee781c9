//! Column orthogonalization — the `Orthogonalize` step of Power-SGD and
//! ACP-SGD.
//!
//! Power-SGD only needs the orthonormal factor of a thin `n × r` matrix
//! (`r ≪ n`), i.e. the `Q` of a reduced QR decomposition. The paper's
//! implementation uses `torch.linalg.qr`; we provide two equivalents:
//!
//! * [`orthogonalize`] — modified Gram–Schmidt, the variant PowerSGD's
//!   reference implementation uses for small ranks. `O(n r²)` and cheap for
//!   the ranks used in the paper (4–256).
//! * [`orthogonalize_householder`] — Householder-reflection thin QR,
//!   numerically sturdier for ill-conditioned inputs; the oracle that the
//!   property tests compare [`orthogonalize`] against.

use crate::matrix::Matrix;

/// Orthogonalizes the columns of `m` in place with modified Gram–Schmidt.
///
/// Columns that become numerically zero (rank-deficient input) are replaced
/// by a deterministic unit vector orthogonal to nothing in particular — the
/// same graceful degradation the PowerSGD reference applies via an `eps`
/// floor, which keeps the power iteration well defined when a gradient
/// matrix has rank below `r`.
///
/// # Examples
///
/// ```
/// use acp_tensor::{orthogonalize, Matrix};
///
/// let mut m = Matrix::from_rows(&[&[3.0, 1.0], &[4.0, 1.0], &[0.0, 1.0]]);
/// orthogonalize(&mut m);
/// // Columns are now unit length and mutually orthogonal.
/// let col0: Vec<f32> = (0..3).map(|i| m.get(i, 0)).collect();
/// let norm: f32 = col0.iter().map(|v| v * v).sum::<f32>().sqrt();
/// assert!((norm - 1.0).abs() < 1e-5);
/// ```
pub fn orthogonalize(m: &mut Matrix) {
    let rows = m.rows();
    let cols = m.cols();
    const EPS: f32 = 1e-8;
    for c in 0..cols {
        let mut norm_before = 0.0f32;
        for r in 0..rows {
            let v = m.get(r, c);
            norm_before += v * v;
        }
        let norm_before = norm_before.sqrt();
        // Subtract projections onto the already-orthonormalized columns.
        // Two passes: classical Gram-Schmidt loses orthogonality to rounding
        // when a column is nearly in the span of its predecessors, and the
        // reprojection recovers it ("twice is enough", Giraud et al.).
        for _pass in 0..2 {
            for prev in 0..c {
                let mut dot = 0.0f32;
                for r in 0..rows {
                    dot += m.get(r, c) * m.get(r, prev);
                }
                for r in 0..rows {
                    let v = m.get(r, c) - dot * m.get(r, prev);
                    m.set(r, c, v);
                }
            }
        }
        let mut norm = 0.0f32;
        for r in 0..rows {
            let v = m.get(r, c);
            norm += v * v;
        }
        norm = norm.sqrt();
        // Relative threshold: after cancellation the residual of a linearly
        // dependent column is rounding noise proportional to its original
        // norm, which must not be normalized into a bogus direction.
        if norm > EPS + 1e-4 * norm_before {
            let inv = 1.0 / norm;
            for r in 0..rows {
                let v = m.get(r, c) * inv;
                m.set(r, c, v);
            }
        } else {
            // Rank-deficient column: fall back to a unit basis vector that is
            // not already (numerically) in the span of previous columns,
            // re-orthogonalized against them.
            for attempt in 0..rows.max(1) {
                let basis = (c + attempt) % rows.max(1);
                for r in 0..rows {
                    m.set(r, c, if r == basis { 1.0 } else { 0.0 });
                }
                for prev in 0..c {
                    let mut dot = 0.0f32;
                    for r in 0..rows {
                        dot += m.get(r, c) * m.get(r, prev);
                    }
                    for r in 0..rows {
                        let v = m.get(r, c) - dot * m.get(r, prev);
                        m.set(r, c, v);
                    }
                }
                let mut n2 = 0.0f32;
                for r in 0..rows {
                    n2 += m.get(r, c) * m.get(r, c);
                }
                let n2 = n2.sqrt();
                // A residual above 1/2 means the basis vector had a healthy
                // component outside the existing span.
                if n2 > 0.5 || attempt + 1 == rows.max(1) {
                    let n2 = n2.max(EPS);
                    for r in 0..rows {
                        let v = m.get(r, c) / n2;
                        m.set(r, c, v);
                    }
                    break;
                }
            }
        }
    }
}

/// Computes the thin `Q` factor of `m` via Householder reflections.
///
/// Returns an `n × r` matrix with orthonormal columns (for `n × r` input
/// with `n >= r`). Unlike [`orthogonalize`] this does not mutate in place;
/// it is the numerically robust oracle used in tests and available to users
/// who compress very ill-conditioned gradients.
///
/// # Panics
///
/// Panics if `m.rows() < m.cols()` (the factor would not be thin).
pub fn orthogonalize_householder(m: &Matrix) -> Matrix {
    let n = m.rows();
    let r = m.cols();
    assert!(n >= r, "householder QR requires rows >= cols ({n} < {r})");
    // Work on a copy of A that we reduce to R; record the reflectors.
    let mut a = m.clone();
    let mut vs: Vec<Vec<f32>> = Vec::with_capacity(r);
    for k in 0..r {
        // Build the Householder vector for column k below the diagonal.
        let mut norm = 0.0f32;
        for i in k..n {
            let v = a.get(i, k);
            norm += v * v;
        }
        let norm = norm.sqrt();
        let mut v = vec![0.0f32; n];
        if norm < 1e-12 {
            // Zero column: identity reflector.
            vs.push(v);
            continue;
        }
        let akk = a.get(k, k);
        let alpha = if akk >= 0.0 { -norm } else { norm };
        v[k] = akk - alpha;
        for (i, vi) in v.iter_mut().enumerate().take(n).skip(k + 1) {
            *vi = a.get(i, k);
        }
        let vnorm2: f32 = v.iter().map(|x| x * x).sum();
        if vnorm2 > 1e-24 {
            // Apply reflector to the remaining columns of A.
            for c in k..r {
                let mut dot = 0.0f32;
                for (i, vi) in v.iter().enumerate().take(n).skip(k) {
                    dot += vi * a.get(i, c);
                }
                let scale = 2.0 * dot / vnorm2;
                for (i, &vi) in v.iter().enumerate().take(n).skip(k) {
                    let val = a.get(i, c) - scale * vi;
                    a.set(i, c, val);
                }
            }
        }
        vs.push(v);
    }
    // Q = H_0 H_1 … H_{r-1} · [I_r; 0]  — build by applying reflectors in
    // reverse to the thin identity.
    let mut q = Matrix::zeros(n, r);
    for c in 0..r {
        q.set(c, c, 1.0);
    }
    for k in (0..r).rev() {
        let v = &vs[k];
        let vnorm2: f32 = v.iter().map(|x| x * x).sum();
        if vnorm2 <= 1e-24 {
            continue;
        }
        for c in 0..r {
            let mut dot = 0.0f32;
            for (i, vi) in v.iter().enumerate().take(n).skip(k) {
                dot += vi * q.get(i, c);
            }
            let scale = 2.0 * dot / vnorm2;
            for (i, &vi) in v.iter().enumerate().take(n).skip(k) {
                let val = q.get(i, c) - scale * vi;
                q.set(i, c, val);
            }
        }
    }
    q
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SeedableStdNormal;

    fn assert_orthonormal(m: &Matrix, tol: f32) {
        for c1 in 0..m.cols() {
            for c2 in 0..m.cols() {
                let mut dot = 0.0f32;
                for r in 0..m.rows() {
                    dot += m.get(r, c1) * m.get(r, c2);
                }
                let expect = if c1 == c2 { 1.0 } else { 0.0 };
                assert!(
                    (dot - expect).abs() < tol,
                    "columns {c1},{c2}: dot = {dot}, expected {expect}"
                );
            }
        }
    }

    #[test]
    fn gram_schmidt_produces_orthonormal_columns() {
        let mut m = Matrix::random_std_normal(20, 4, 42);
        orthogonalize(&mut m);
        assert_orthonormal(&m, 1e-4);
    }

    #[test]
    fn householder_produces_orthonormal_columns() {
        let m = Matrix::random_std_normal(20, 4, 43);
        let q = orthogonalize_householder(&m);
        assert_eq!((q.rows(), q.cols()), (20, 4));
        assert_orthonormal(&q, 1e-4);
    }

    #[test]
    fn both_methods_span_same_subspace() {
        // Project a random vector onto both spans; projections must agree.
        let m = Matrix::random_std_normal(16, 3, 44);
        let mut gs = m.clone();
        orthogonalize(&mut gs);
        let hh = orthogonalize_householder(&m);
        let x = Matrix::random_std_normal(16, 1, 45);
        let proj_gs = gs.matmul(&gs.matmul_tn(&x));
        let proj_hh = hh.matmul(&hh.matmul_tn(&x));
        assert!(proj_gs.max_abs_diff(&proj_hh) < 1e-3);
    }

    #[test]
    fn rank_deficient_input_still_orthonormal() {
        // Two identical columns: Gram-Schmidt must not emit NaNs.
        let mut m = Matrix::from_rows(&[&[1.0, 1.0], &[2.0, 2.0], &[3.0, 3.0]]);
        orthogonalize(&mut m);
        assert!(m.is_finite());
        assert_orthonormal(&m, 1e-4);
    }

    #[test]
    fn zero_matrix_does_not_produce_nan() {
        let mut m = Matrix::zeros(4, 2);
        orthogonalize(&mut m);
        assert!(m.is_finite());
    }

    #[test]
    #[should_panic(expected = "rows >= cols")]
    fn householder_rejects_wide_matrices() {
        orthogonalize_householder(&Matrix::zeros(2, 3));
    }
}
