//! ACP-SGD: alternate compressed Power-SGD — the paper's contribution
//! (Algorithms 1–2).
//!
//! Instead of computing and aggregating *both* low-rank factors every
//! iteration, ACP-SGD alternates: odd steps compress the gradient into `P`
//! (reusing the previous `Q`), even steps into `Q` (reusing the previous
//! aggregated `P`):
//!
//! ```text
//! odd t:  Q_t ← orthogonalize(Q_{t−1})        even t: P_t ← orthogonalize(P_{t−1})
//!         P_t ← (M + E) Q_t                           Q_t ← (M + E)ᵀ P_t
//!         E  ← (M + E) − P_t Q_tᵀ                     E  ← (M + E) − P_t Q_tᵀ
//!         P_t ← all-reduce(P_t)                       Q_t ← all-reduce(Q_t)
//!         M̂  ← P̂_t Q_tᵀ                               M̂  ← P_t Q̂_tᵀ
//! ```
//!
//! Two consecutive ACP-SGD steps perform one full power iteration, so the
//! approximation quality tracks Power-SGD (the gradient changes slowly
//! between steps — query reuse). The system consequences are the point:
//!
//! * **one** all-reduce per step instead of two — half the communication;
//! * **one** matmul + **one** orthogonalization — half the compression
//!   compute;
//! * the all-reduce depends on nothing downstream — *non-blocking*, so
//!   wait-free back-propagation and tensor fusion apply exactly as in
//!   S-SGD.

use acp_tensor::{kernels, orthogonalize, pool, Matrix, SeedableStdNormal};

use serde::{Deserialize, Serialize};

use crate::error::{check_len, CompressError};

/// Salt xor-ed into the seed for `P₀` so it is decorrelated from `Q₀`.
const P_SEED_SALT: u64 = 0xAC9_57D;

/// The configuration of [`AcpSgd`]: the same knobs as Power-SGD's.
pub type AcpSgdConfig = crate::powersgd::LowRankConfig;

/// Which factor a step transmits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FactorSide {
    /// The `n × r` left factor (odd steps).
    P,
    /// The `m × r` right factor (even steps).
    Q,
}

/// Per-gradient-matrix ACP-SGD compression state.
///
/// Protocol per step: [`AcpSgd::compress`] returns the factor to all-reduce
/// (with mean); [`AcpSgd::finish`] consumes the aggregated factor and
/// returns the decompressed gradient. Exactly one collective per step.
/// [`AcpSgd::try_compress_slice`] / [`AcpSgd::try_finish_slice`] are the
/// same two phases over caller-owned flat buffers; the `Matrix` methods
/// allocate their results and call them.
///
/// The residual `E` is updated in place by the compress phase, which
/// validates its arguments before touching it: when a compress call
/// returns an error `E` is unchanged, and once it returns `Ok` `E` is this
/// step's final residual (`(M + E) − P_t Q_tᵀ` with the local factor). A
/// step abandoned before its finish loses the factor in flight but nothing
/// `E` holds; the state then stays mid-step and must be rebuilt.
///
/// # Examples
///
/// ```
/// use acp_compression::acp::{AcpSgd, AcpSgdConfig, FactorSide};
/// use acp_tensor::{Matrix, SeedableStdNormal};
///
/// let grad = Matrix::random_std_normal(10, 6, 2);
/// let mut acp = AcpSgd::new(10, 6, AcpSgdConfig { rank: 2, ..Default::default() });
/// assert_eq!(acp.next_side(), FactorSide::P);
/// let p = acp.compress(&grad);
/// assert_eq!((p.rows(), p.cols()), (10, 2));
/// let approx = acp.finish(p); // world size 1: all-reduce = identity
/// assert_eq!(acp.next_side(), FactorSide::Q);
/// # let _ = approx;
/// ```
#[derive(Debug, Clone)]
pub struct AcpSgd {
    n: usize,
    m: usize,
    rank: usize,
    cfg: AcpSgdConfig,
    /// Left factor: the aggregated `P` of the last P-step, orthogonalized
    /// in place into the query of a Q-step. Consistent across ranks.
    p: Matrix,
    /// Right factor: the aggregated `Q` of the last Q-step, orthogonalized
    /// in place into the query of a P-step. Consistent across ranks.
    q: Matrix,
    /// Error-feedback residual when enabled.
    error: Option<Matrix>,
    /// Completed steps; step `t = step + 1` is odd ⇒ P side.
    step: u64,
    mid_step: bool,
}

impl AcpSgd {
    /// Creates the state for an `n × m` gradient matrix.
    ///
    /// `P₀` and `Q₀` are drawn from seeded standard-normal streams so all
    /// ranks agree without a broadcast; `E₀ = 0`.
    ///
    /// # Panics
    ///
    /// Panics if any of `n`, `m` or `cfg.rank` is zero.
    pub fn new(n: usize, m: usize, cfg: AcpSgdConfig) -> Self {
        assert!(n > 0 && m > 0, "gradient matrix must be non-empty");
        assert!(cfg.rank > 0, "rank must be positive");
        let rank = cfg.rank.min(n).min(m);
        let p = Matrix::random_std_normal(n, rank, cfg.seed ^ P_SEED_SALT);
        let q = Matrix::random_std_normal(m, rank, cfg.seed);
        let error = cfg.error_feedback.then(|| Matrix::zeros(n, m));
        AcpSgd {
            n,
            m,
            rank,
            cfg,
            p,
            q,
            error,
            step: 0,
            mid_step: false,
        }
    }

    /// Effective rank (requested rank clamped to the matrix dimensions).
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of completed compression steps.
    pub fn step(&self) -> u64 {
        self.step
    }

    /// Which factor the *next* [`AcpSgd::compress`] will produce.
    pub fn next_side(&self) -> FactorSide {
        if self.step.is_multiple_of(2) {
            FactorSide::P
        } else {
            FactorSide::Q
        }
    }

    /// Frobenius norm of the error-feedback residual (0 when EF disabled).
    pub fn error_norm(&self) -> f32 {
        self.error.as_ref().map_or(0.0, Matrix::frobenius_norm)
    }

    /// The error-feedback residual `E`, row-major (`None` when EF disabled).
    pub fn residual(&self) -> Option<&[f32]> {
        self.error.as_ref().map(Matrix::as_slice)
    }

    /// Shape of the factor the current step transmits.
    fn factor_shape(&self) -> (usize, usize) {
        match self.next_side() {
            FactorSide::P => (self.n, self.rank),
            FactorSide::Q => (self.m, self.rank),
        }
    }

    fn expect_idle(&self) -> Result<(), CompressError> {
        if self.mid_step {
            return Err(CompressError::Phase {
                what: "compress called before finishing the previous step",
            });
        }
        Ok(())
    }

    fn expect_mid_step(&self) -> Result<(), CompressError> {
        if !self.mid_step {
            return Err(CompressError::Phase {
                what: "finish called without compress",
            });
        }
        Ok(())
    }

    /// Compresses `grad` into this step's factor (`P` on odd steps, `Q` on
    /// even steps), updating the error residual. The returned factor must
    /// be all-reduced (mean) and passed to [`AcpSgd::finish`].
    ///
    /// # Panics
    ///
    /// Panics if the gradient shape differs from construction or
    /// [`AcpSgd::finish`] for the previous step was skipped.
    pub fn compress(&mut self, grad: &Matrix) -> Matrix {
        // allow_verify(reason: legacy infallible surface, panics with the try_ error text)
        self.try_compress(grad).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`AcpSgd::compress`]: returns a structured error instead of
    /// panicking on phase or shape violations.
    ///
    /// # Errors
    ///
    /// [`CompressError::Phase`] when the previous step was not finished,
    /// [`CompressError::Shape`] when the gradient shape differs from
    /// construction.
    #[must_use = "the result carries the computation; dropping it discards the round"]
    pub fn try_compress(&mut self, grad: &Matrix) -> Result<Matrix, CompressError> {
        self.expect_idle()?;
        if (grad.rows(), grad.cols()) != (self.n, self.m) {
            return Err(CompressError::Shape {
                what: "gradient shape changed",
                expected: (self.n, self.m),
                actual: (grad.rows(), grad.cols()),
            });
        }
        let (rows, cols) = self.factor_shape();
        let mut factor = Matrix::zeros(rows, cols);
        self.try_compress_slice(grad.as_slice(), factor.as_mut_slice())?;
        Ok(factor)
    }

    /// [`AcpSgd::try_compress`] over flat row-major buffers: reads the
    /// `n·m` gradient from `grad` and overwrites `factor` (`n·r` elements on
    /// a P step, `m·r` on a Q step — [`AcpSgd::transmitted_elements`]) with
    /// this step's local factor. Allocates nothing the size of the
    /// gradient: with error feedback the sweep that projects `M + E` also
    /// leaves it, and then the residual, in `E`.
    ///
    /// # Errors
    ///
    /// [`CompressError::Phase`] when the previous step was not finished,
    /// [`CompressError::Matrix`] when `grad` or `factor` has the wrong
    /// length. No state changes on error.
    pub fn try_compress_slice(
        &mut self,
        grad: &[f32],
        factor: &mut [f32],
    ) -> Result<(), CompressError> {
        self.expect_idle()?;
        check_len(self.n * self.m, grad.len())?;
        check_len(self.transmitted_elements(), factor.len())?;
        let (n, m, r) = (self.n, self.m, self.rank);
        let pool = pool::global_for(n * m * r);
        match self.next_side() {
            FactorSide::P => {
                // Q_t = orthogonalize(Q_{t-1}); P_t = (M+E) Q_t;
                // E ← (M + E) − P_t Q_tᵀ with the *local* factor, so
                // transmitted mean + local residuals account for the full
                // gradient mass.
                if !self.cfg.reuse {
                    self.q = Matrix::random_std_normal(
                        m,
                        r,
                        self.cfg.seed ^ (self.step + 1).wrapping_mul(0x9E37),
                    );
                }
                orthogonalize(&mut self.q);
                let q = self.q.as_slice();
                match &mut self.error {
                    Some(e) => kernels::project_rows_corrected(
                        pool,
                        n,
                        m,
                        r,
                        grad,
                        e.as_mut_slice(),
                        q,
                        factor,
                        true,
                    ),
                    None => kernels::project_rows(pool, n, m, r, grad, q, factor),
                }
            }
            FactorSide::Q => {
                // P_t = orthogonalize(P_{t-1}); Q_t = (M+E)ᵀ P_t; same
                // residual with the local Q_t.
                if !self.cfg.reuse {
                    self.p = Matrix::random_std_normal(
                        n,
                        r,
                        self.cfg.seed ^ (self.step + 1).wrapping_mul(0x5BD1),
                    );
                }
                orthogonalize(&mut self.p);
                let p = self.p.as_slice();
                match &mut self.error {
                    Some(e) => {
                        let e = e.as_mut_slice();
                        kernels::project_cols_corrected(pool, n, m, r, grad, e, p, factor);
                        kernels::subtract_reconstruction(pool, n, m, r, p, factor, e);
                    }
                    None => kernels::project_cols(pool, n, m, r, grad, p, factor),
                }
            }
        }
        self.mid_step = true;
        Ok(())
    }

    /// Consumes the aggregated factor and returns the decompressed gradient
    /// `M̂`. The aggregated factor is retained as the next step's query.
    ///
    /// # Panics
    ///
    /// Panics if called without a preceding [`AcpSgd::compress`] or with a
    /// wrongly shaped factor.
    pub fn finish(&mut self, factor_reduced: Matrix) -> Matrix {
        // allow_verify(reason: legacy infallible surface, panics with the try_ error text)
        self.try_finish(factor_reduced)
            // allow_verify(reason: same legacy surface as above)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`AcpSgd::finish`]: returns a structured error instead of
    /// panicking on phase or shape violations. On error the step stays
    /// open, so a wrongly shaped aggregate can be retried.
    ///
    /// # Errors
    ///
    /// [`CompressError::Phase`] when called without a preceding
    /// [`AcpSgd::try_compress`], [`CompressError::Shape`] when
    /// `factor_reduced` has the wrong shape.
    #[must_use = "the result carries the computation; dropping it discards the round"]
    pub fn try_finish(&mut self, factor_reduced: Matrix) -> Result<Matrix, CompressError> {
        self.expect_mid_step()?;
        let expected = self.factor_shape();
        if (factor_reduced.rows(), factor_reduced.cols()) != expected {
            return Err(CompressError::Shape {
                what: match self.next_side() {
                    FactorSide::P => "aggregated P has the wrong shape",
                    FactorSide::Q => "aggregated Q has the wrong shape",
                },
                expected,
                actual: (factor_reduced.rows(), factor_reduced.cols()),
            });
        }
        let mut out = Matrix::zeros(self.n, self.m);
        self.try_finish_slice(factor_reduced.as_slice(), out.as_mut_slice())?;
        Ok(out)
    }

    /// [`AcpSgd::try_finish`] over flat row-major buffers: reads the
    /// aggregated factor from `factor_reduced` (it becomes the next step's
    /// query) and overwrites `out` (`n·m` elements) with `M̂ = P Qᵀ`.
    ///
    /// # Errors
    ///
    /// [`CompressError::Phase`] when called without a preceding compress,
    /// [`CompressError::Matrix`] when `factor_reduced` or `out` has the
    /// wrong length. On error the step stays open.
    pub fn try_finish_slice(
        &mut self,
        factor_reduced: &[f32],
        out: &mut [f32],
    ) -> Result<(), CompressError> {
        self.expect_mid_step()?;
        check_len(self.transmitted_elements(), factor_reduced.len())?;
        check_len(self.n * self.m, out.len())?;
        match self.next_side() {
            FactorSide::P => self.p.as_mut_slice().copy_from_slice(factor_reduced),
            FactorSide::Q => self.q.as_mut_slice().copy_from_slice(factor_reduced),
        }
        let (n, m, r) = (self.n, self.m, self.rank);
        kernels::reconstruct(
            pool::global_for(n * m * r),
            n,
            m,
            r,
            self.p.as_slice(),
            self.q.as_slice(),
            out,
        );
        self.step += 1;
        self.mid_step = false;
        Ok(())
    }

    /// FLOPs of one compression step — Table II / §IV-A: one matmul
    /// (`2 n m r`) plus one orthogonalization (`O(((n+m)/2) r²)` amortized
    /// over sides) plus the error-feedback reconstruction — roughly half of
    /// [`crate::powersgd::PowerSgd::compress_flops`].
    pub fn compress_flops(&self) -> u64 {
        let (n, m, r) = (self.n as u64, self.m as u64, self.rank as u64);
        let matmul = 2 * n * m * r;
        // The orthogonalized side alternates: amortized (n+m)/2 rows.
        let ortho = (n + m) * r * r;
        let ef = if self.cfg.error_feedback {
            2 * n * m * r
        } else {
            0
        };
        matmul + ortho + ef
    }

    /// Elements transmitted per step: `n·r` on P-steps, `m·r` on Q-steps —
    /// amortized `(n + m) r / 2`, half of Power-SGD.
    pub fn transmitted_elements(&self) -> usize {
        match self.next_side() {
            FactorSide::P => self.n * self.rank,
            FactorSide::Q => self.m * self.rank,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acp_tensor::vecops::relative_error;

    fn single_worker_step(acp: &mut AcpSgd, grad: &Matrix) -> Matrix {
        let f = acp.compress(grad);
        acp.finish(f)
    }

    fn low_rank_matrix(n: usize, m: usize, rank: usize, seed: u64) -> Matrix {
        let a = Matrix::random_std_normal(n, rank, seed);
        let b = Matrix::random_std_normal(m, rank, seed + 1);
        a.matmul_nt(&b)
    }

    #[test]
    fn alternates_p_and_q() {
        let grad = Matrix::random_std_normal(10, 7, 1);
        let mut acp = AcpSgd::new(
            10,
            7,
            AcpSgdConfig {
                rank: 3,
                ..Default::default()
            },
        );
        assert_eq!(acp.next_side(), FactorSide::P);
        let f1 = acp.compress(&grad);
        assert_eq!((f1.rows(), f1.cols()), (10, 3));
        acp.finish(f1);
        assert_eq!(acp.next_side(), FactorSide::Q);
        let f2 = acp.compress(&grad);
        assert_eq!((f2.rows(), f2.cols()), (7, 3));
        acp.finish(f2);
        assert_eq!(acp.next_side(), FactorSide::P);
    }

    #[test]
    fn recovers_low_rank_matrix_after_iterations() {
        // Two ACP steps = one full power iteration; rank-2 truth at rank 2
        // must be recovered exactly once the iterated subspace locks on.
        // (EF off: error feedback trades per-step fidelity for cumulative
        // fidelity, which error_feedback_identity_holds verifies.)
        let truth = low_rank_matrix(20, 15, 2, 5);
        let cfg = AcpSgdConfig {
            rank: 2,
            error_feedback: false,
            ..Default::default()
        };
        let mut acp = AcpSgd::new(20, 15, cfg);
        let mut approx = Matrix::zeros(20, 15);
        for _ in 0..6 {
            approx = single_worker_step(&mut acp, &truth);
        }
        let err = relative_error(truth.as_slice(), approx.as_slice());
        assert!(err < 1e-3, "relative error {err}");
    }

    #[test]
    fn error_feedback_residual_shrinks_on_fixed_gradient() {
        // With EF the per-step approximation also improves over time (the
        // residual mass is re-injected and progressively transmitted).
        let truth = low_rank_matrix(20, 15, 2, 5);
        let mut acp = AcpSgd::new(
            20,
            15,
            AcpSgdConfig {
                rank: 2,
                ..Default::default()
            },
        );
        let mut early = 0.0;
        let mut late = 0.0;
        for step in 0..40 {
            let approx = single_worker_step(&mut acp, &truth);
            let err = relative_error(truth.as_slice(), approx.as_slice());
            if step == 4 {
                early = err;
            }
            if step == 39 {
                late = err;
            }
        }
        assert!(
            late < early,
            "late error {late} should beat early error {early}"
        );
    }

    #[test]
    fn error_feedback_identity_holds() {
        // M + E_{t-1} = M̂_t + E_t exactly on a single worker.
        let grad = Matrix::random_std_normal(12, 9, 8);
        let mut acp = AcpSgd::new(
            12,
            9,
            AcpSgdConfig {
                rank: 2,
                ..Default::default()
            },
        );
        let mut prev_err = Matrix::zeros(12, 9);
        for _ in 0..5 {
            let before = &grad + &prev_err;
            let approx = single_worker_step(&mut acp, &grad);
            let expected_e = &before - &approx;
            assert!(
                (expected_e.frobenius_norm() - acp.error_norm()).abs() < 1e-3,
                "EF identity violated"
            );
            prev_err = expected_e;
        }
    }

    #[test]
    fn tracks_power_sgd_on_fixed_matrix() {
        // On a static gradient, ACP-SGD's approximation quality after 2k
        // steps matches Power-SGD's after k steps (same number of power
        // iterations).
        use crate::powersgd::{PowerSgd, PowerSgdConfig};
        let truth = Matrix::random_std_normal(30, 20, 3);
        let k = 4;
        let mut ps = PowerSgd::new(
            30,
            20,
            PowerSgdConfig {
                rank: 4,
                ..Default::default()
            },
        );
        let mut ps_approx = Matrix::zeros(30, 20);
        for _ in 0..k {
            let p = ps.compute_p(&truth);
            let q = ps.compute_q(p);
            ps_approx = ps.finish(q);
        }
        let mut acp = AcpSgd::new(
            30,
            20,
            AcpSgdConfig {
                rank: 4,
                ..Default::default()
            },
        );
        let mut acp_approx = Matrix::zeros(30, 20);
        for _ in 0..2 * k {
            acp_approx = single_worker_step(&mut acp, &truth);
        }
        let ps_err = relative_error(truth.as_slice(), ps_approx.as_slice());
        let acp_err = relative_error(truth.as_slice(), acp_approx.as_slice());
        assert!(
            acp_err < ps_err * 1.5 + 0.05,
            "ACP error {acp_err} far worse than Power-SGD {ps_err}"
        );
    }

    #[test]
    fn transmitted_elements_halved_vs_powersgd() {
        use crate::powersgd::{PowerSgd, PowerSgdConfig};
        let acp = AcpSgd::new(
            100,
            60,
            AcpSgdConfig {
                rank: 4,
                ..Default::default()
            },
        );
        let ps = PowerSgd::new(
            100,
            60,
            PowerSgdConfig {
                rank: 4,
                ..Default::default()
            },
        );
        // P step: 400 vs Power-SGD's 640 per step; amortized over P+Q steps
        // ACP transmits (100+60)*4/2 = 320 = half of 640.
        assert_eq!(acp.transmitted_elements(), 400);
        assert_eq!(ps.transmitted_elements(), 640);
    }

    #[test]
    fn compress_flops_about_half_of_powersgd() {
        use crate::powersgd::{PowerSgd, PowerSgdConfig};
        let acp = AcpSgd::new(
            512,
            512,
            AcpSgdConfig {
                rank: 16,
                ..Default::default()
            },
        );
        let ps = PowerSgd::new(
            512,
            512,
            PowerSgdConfig {
                rank: 16,
                ..Default::default()
            },
        );
        let ratio = ps.compress_flops() as f64 / acp.compress_flops() as f64;
        assert!((1.3..=1.7).contains(&ratio), "flops ratio {ratio}");
    }

    #[test]
    fn initial_factors_agree_across_ranks() {
        let a = AcpSgd::new(10, 8, AcpSgdConfig::default());
        let b = AcpSgd::new(10, 8, AcpSgdConfig::default());
        assert_eq!(a.p, b.p);
        assert_eq!(a.q, b.q);
    }

    #[test]
    fn rank_clamps_to_dimensions() {
        let acp = AcpSgd::new(
            3,
            5,
            AcpSgdConfig {
                rank: 64,
                ..Default::default()
            },
        );
        assert_eq!(acp.rank(), 3);
    }

    #[test]
    #[should_panic(expected = "before finishing")]
    fn double_compress_panics() {
        let grad = Matrix::zeros(4, 4);
        let mut acp = AcpSgd::new(4, 4, AcpSgdConfig::default());
        acp.compress(&grad);
        acp.compress(&grad);
    }

    #[test]
    #[should_panic(expected = "without compress")]
    fn finish_without_compress_panics() {
        let mut acp = AcpSgd::new(4, 4, AcpSgdConfig::default());
        acp.finish(Matrix::zeros(4, 4));
    }

    #[test]
    fn try_surface_reports_structured_errors_and_recovers() {
        use crate::error::CompressError;
        let grad = Matrix::zeros(4, 4);
        let mut acp = AcpSgd::new(4, 4, AcpSgdConfig::default());
        assert_eq!(
            acp.try_finish(Matrix::zeros(4, 4)),
            Err(CompressError::Phase {
                what: "finish called without compress",
            })
        );
        let f = acp.try_compress(&grad).unwrap();
        assert_eq!(
            acp.try_compress(&grad),
            Err(CompressError::Phase {
                what: "compress called before finishing the previous step",
            })
        );
        // A wrongly shaped aggregate is rejected without losing the query.
        assert!(matches!(
            acp.try_finish(Matrix::zeros(2, 2)),
            Err(CompressError::Shape {
                what: "aggregated P has the wrong shape",
                ..
            })
        ));
        assert!(acp.try_finish(f).is_ok());
        assert_eq!(acp.next_side(), FactorSide::Q);
    }
}
