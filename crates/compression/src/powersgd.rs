//! Power-SGD low-rank gradient compression (Vogels et al., NeurIPS 2019) —
//! Algorithm 1 of the paper.
//!
//! One step of power iteration factorizes the gradient matrix `M ∈ ℝ^{n×m}`
//! as `M ≈ P Qᵀ` with rank-`r` factors. Each iteration needs **two**
//! all-reduces with a computation sandwiched between them:
//!
//! ```text
//! P ← (M + E) Q_{t−1}      (compute, local)
//! P ← all-reduce(P)         (communication)
//! P ← orthogonalize(P)      (compute — BLOCKED on the all-reduce)
//! Q ← (M + E)ᵀ P            (compute)
//! E ← (M + E) − P Qᵀ        (error feedback)
//! Q ← all-reduce(Q)         (communication)
//! M̂ ← P Qᵀ
//! ```
//!
//! The mid-iteration dependency is why Power-SGD's communication is
//! *blocking* (§III-C): aggregate-P must finish before compute-Q starts,
//! which is what ACP-SGD ([`crate::acp`]) removes.
//!
//! The state machine here exposes the three phases explicitly
//! ([`PowerSgd::compute_p`] → [`PowerSgd::compute_q`] →
//! [`PowerSgd::finish`]) so a distributed optimizer inserts real collectives
//! at the marked points.

use acp_tensor::{kernels, orthogonalize, pool, Matrix, SeedableStdNormal};

use serde::{Deserialize, Serialize};

use crate::error::{check_len, CompressError};

/// Configuration of one low-rank compressed matrix, shared by [`PowerSgd`]
/// and [`crate::acp::AcpSgd`] and varied in the Fig. 7 ablations.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LowRankConfig {
    /// Rank `r` of the factors (paper: 4 for ResNets, 32 for BERTs).
    pub rank: usize,
    /// Maintain the error-feedback residual `E` (Algorithm 2). Disabling
    /// reproduces the poor convergence of Fig. 7.
    pub error_feedback: bool,
    /// Reuse the previous step's factor as the power-iteration query
    /// (query reuse). Disabling draws a fresh random query each step.
    pub reuse: bool,
    /// Seed for the rank-shared random initialization of the factors
    /// (`Q₀`; ACP-SGD also draws `P₀` from it).
    pub seed: u64,
}

/// The configuration of [`PowerSgd`].
pub type PowerSgdConfig = LowRankConfig;

impl Default for LowRankConfig {
    fn default() -> Self {
        LowRankConfig {
            rank: 4,
            error_feedback: true,
            reuse: true,
            seed: 42,
        }
    }
}

/// Which phase the per-matrix state machine expects next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    AwaitP,
    AwaitQ { have_p: bool },
}

/// Per-gradient-matrix Power-SGD compression state.
///
/// [`PowerSgd::try_compute_p_slice`] / [`PowerSgd::try_compute_q_slice`] /
/// [`PowerSgd::try_finish_slice`] are the three phases over caller-owned
/// flat buffers; the `Matrix` methods allocate their results and call them.
///
/// With error feedback the residual `E` is updated in place, and each
/// phase validates its arguments before touching it. Between `compute_p`
/// and `compute_q` it holds the corrected gradient `M + E` — nothing of
/// the previous residual is lost if the step is abandoned there — and from
/// `compute_q` on it is this step's final residual `(M + E) − P̂ Qᵀ` with
/// the local `Q`. An abandoned step leaves the state mid-iteration; it must
/// be rebuilt. Without error feedback the state keeps one reused copy of
/// the gradient from `compute_p` for `compute_q` to project.
///
/// # Examples
///
/// Single-worker round trip (all-reduce is the identity at world size 1):
///
/// ```
/// use acp_compression::powersgd::{PowerSgd, PowerSgdConfig};
/// use acp_tensor::{Matrix, SeedableStdNormal};
///
/// let grad = Matrix::random_std_normal(8, 6, 3);
/// let mut ps = PowerSgd::new(8, 6, PowerSgdConfig { rank: 2, ..Default::default() });
/// let p = ps.compute_p(&grad);
/// let q = ps.compute_q(p);      // would all-reduce p here
/// let approx = ps.finish(q);    // would all-reduce q here
/// assert_eq!((approx.rows(), approx.cols()), (8, 6));
/// ```
#[derive(Debug, Clone)]
pub struct PowerSgd {
    n: usize,
    m: usize,
    rank: usize,
    cfg: PowerSgdConfig,
    /// Query matrix `Q_{t−1}` (m × r), identical on every rank.
    q: Matrix,
    /// Error-feedback residual `E` (n × m) when enabled.
    error: Option<Matrix>,
    /// Orthogonalized aggregated `P̂` (n × r), valid from `compute_q` to
    /// `finish`.
    p_hat: Matrix,
    /// The gradient carried from `compute_p` to `compute_q` when error
    /// feedback is off (with it on, `E` is that carry); empty otherwise.
    grad: Vec<f32>,
    step: u64,
    phase: Phase,
}

impl PowerSgd {
    /// Creates the state for an `n × m` gradient matrix.
    ///
    /// The effective rank is `min(cfg.rank, n, m)`. `Q₀` is drawn from a
    /// seeded standard normal stream, so all ranks constructing the state
    /// with the same arguments agree on it without a broadcast.
    ///
    /// # Panics
    ///
    /// Panics if any of `n`, `m` or `cfg.rank` is zero.
    pub fn new(n: usize, m: usize, cfg: PowerSgdConfig) -> Self {
        assert!(n > 0 && m > 0, "gradient matrix must be non-empty");
        assert!(cfg.rank > 0, "rank must be positive");
        let rank = cfg.rank.min(n).min(m);
        let q = Matrix::random_std_normal(m, rank, cfg.seed);
        let error = cfg.error_feedback.then(|| Matrix::zeros(n, m));
        PowerSgd {
            n,
            m,
            rank,
            cfg,
            q,
            error,
            p_hat: Matrix::zeros(n, rank),
            grad: Vec::new(),
            step: 0,
            phase: Phase::AwaitP,
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

    /// Frobenius norm of the error-feedback residual (0 when EF disabled).
    pub fn error_norm(&self) -> f32 {
        self.error.as_ref().map_or(0.0, Matrix::frobenius_norm)
    }

    /// The error-feedback residual `E`, row-major (`None` when EF disabled).
    pub fn residual(&self) -> Option<&[f32]> {
        self.error.as_ref().map(Matrix::as_slice)
    }

    fn expect_phase(&self, phase: Phase, what: &'static str) -> Result<(), CompressError> {
        if self.phase != phase {
            return Err(CompressError::Phase { what });
        }
        Ok(())
    }

    /// Phase 1: computes the local factor `P = (M + E) Q_{t−1}` to be
    /// all-reduced (with mean) across workers.
    ///
    /// # Panics
    ///
    /// Panics if the gradient shape differs from construction, or the state
    /// machine is mid-iteration (phases called out of order).
    pub fn compute_p(&mut self, grad: &Matrix) -> Matrix {
        // allow_verify(reason: legacy infallible surface, panics with the try_ error text)
        self.try_compute_p(grad).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`PowerSgd::compute_p`]: returns a structured error instead
    /// of panicking on phase or shape violations.
    ///
    /// # Errors
    ///
    /// [`CompressError::Phase`] when called out of order,
    /// [`CompressError::Shape`] when the gradient shape differs from
    /// construction.
    #[must_use = "the result carries the computation; dropping it discards the round"]
    pub fn try_compute_p(&mut self, grad: &Matrix) -> Result<Matrix, CompressError> {
        self.expect_phase(Phase::AwaitP, "compute_p called out of order")?;
        if (grad.rows(), grad.cols()) != (self.n, self.m) {
            return Err(CompressError::Shape {
                what: "gradient shape changed",
                expected: (self.n, self.m),
                actual: (grad.rows(), grad.cols()),
            });
        }
        let mut p = Matrix::zeros(self.n, self.rank);
        self.try_compute_p_slice(grad.as_slice(), p.as_mut_slice())?;
        Ok(p)
    }

    /// [`PowerSgd::try_compute_p`] over flat row-major buffers: reads the
    /// `n·m` gradient from `grad` and overwrites `p` (`n·r` elements) with
    /// the local factor. With error feedback the projecting sweep also
    /// leaves `M + E` in `E`; nothing the size of the gradient is
    /// allocated after the first step.
    ///
    /// # Errors
    ///
    /// [`CompressError::Phase`] when called out of order,
    /// [`CompressError::Matrix`] when `grad` or `p` has the wrong length.
    /// No state changes on error.
    pub fn try_compute_p_slice(
        &mut self,
        grad: &[f32],
        p: &mut [f32],
    ) -> Result<(), CompressError> {
        self.expect_phase(Phase::AwaitP, "compute_p called out of order")?;
        check_len(self.n * self.m, grad.len())?;
        check_len(self.n * self.rank, p.len())?;
        let (n, m, r) = (self.n, self.m, self.rank);
        if !self.cfg.reuse {
            // Fresh random query each step (ablation). Seed varies by step
            // but agrees across ranks.
            self.q = Matrix::random_std_normal(
                m,
                r,
                self.cfg.seed ^ (self.step + 1).wrapping_mul(0x9E37),
            );
        }
        let pool = pool::global_for(n * m * r);
        let q = self.q.as_slice();
        match &mut self.error {
            Some(e) => {
                kernels::project_rows_corrected(pool, n, m, r, grad, e.as_mut_slice(), q, p, false)
            }
            None => {
                self.grad.clear();
                self.grad.extend_from_slice(grad);
                kernels::project_rows(pool, n, m, r, grad, q, p);
            }
        }
        self.phase = Phase::AwaitQ { have_p: false };
        Ok(())
    }

    /// Phase 2: consumes the aggregated `P̂`, orthogonalizes it, computes
    /// `Q = (M + E)ᵀ P̂` and updates the error residual; returns `Q` to be
    /// all-reduced (with mean).
    ///
    /// # Panics
    ///
    /// Panics if called out of order or `p_reduced` has the wrong shape.
    pub fn compute_q(&mut self, p_reduced: Matrix) -> Matrix {
        // allow_verify(reason: legacy infallible surface, panics with the try_ error text)
        self.try_compute_q(p_reduced)
            // allow_verify(reason: same legacy surface as above)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`PowerSgd::compute_q`]: returns a structured error instead
    /// of panicking on phase or shape violations.
    ///
    /// # Errors
    ///
    /// [`CompressError::Phase`] when called out of order,
    /// [`CompressError::Shape`] when `p_reduced` has the wrong shape.
    #[must_use = "the result carries the computation; dropping it discards the round"]
    pub fn try_compute_q(&mut self, p_reduced: Matrix) -> Result<Matrix, CompressError> {
        self.expect_phase(
            Phase::AwaitQ { have_p: false },
            "compute_q called out of order",
        )?;
        if (p_reduced.rows(), p_reduced.cols()) != (self.n, self.rank) {
            return Err(CompressError::Shape {
                what: "aggregated P has the wrong shape",
                expected: (self.n, self.rank),
                actual: (p_reduced.rows(), p_reduced.cols()),
            });
        }
        let mut q = Matrix::zeros(self.m, self.rank);
        self.try_compute_q_slice(p_reduced.as_slice(), q.as_mut_slice())?;
        Ok(q)
    }

    /// [`PowerSgd::try_compute_q`] over flat row-major buffers: reads the
    /// aggregated `P` (`n·r` elements) from `p_reduced` and overwrites `q`
    /// (`m·r` elements) with the local factor.
    ///
    /// # Errors
    ///
    /// [`CompressError::Phase`] when called out of order,
    /// [`CompressError::Matrix`] when `p_reduced` or `q` has the wrong
    /// length. No state changes on error.
    pub fn try_compute_q_slice(
        &mut self,
        p_reduced: &[f32],
        q: &mut [f32],
    ) -> Result<(), CompressError> {
        self.expect_phase(
            Phase::AwaitQ { have_p: false },
            "compute_q called out of order",
        )?;
        check_len(self.n * self.rank, p_reduced.len())?;
        check_len(self.m * self.rank, q.len())?;
        let (n, m, r) = (self.n, self.m, self.rank);
        self.p_hat.as_mut_slice().copy_from_slice(p_reduced);
        orthogonalize(&mut self.p_hat);
        let pool = pool::global_for(n * m * r);
        let p_hat = self.p_hat.as_slice();
        match &mut self.error {
            Some(e) => {
                // E ← (M + E) − P̂ Q_localᵀ, with the local (pre-reduce) Q so
                // the average of transmitted + residual equals the true
                // average.
                let e = e.as_mut_slice();
                kernels::project_cols(pool, n, m, r, e, p_hat, q);
                kernels::subtract_reconstruction(pool, n, m, r, p_hat, q, e);
            }
            None => kernels::project_cols(pool, n, m, r, &self.grad, p_hat, q),
        }
        self.phase = Phase::AwaitQ { have_p: true };
        Ok(())
    }

    /// Phase 3: consumes the aggregated `Q̂` and returns the decompressed
    /// gradient `M̂ = P̂ Q̂ᵀ`. `Q̂` is retained as the next step's query.
    ///
    /// # Panics
    ///
    /// Panics if called out of order or `q_reduced` has the wrong shape.
    pub fn finish(&mut self, q_reduced: Matrix) -> Matrix {
        // allow_verify(reason: legacy infallible surface, panics with the try_ error text)
        self.try_finish(q_reduced).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`PowerSgd::finish`]: returns a structured error instead of
    /// panicking on phase or shape violations.
    ///
    /// # Errors
    ///
    /// [`CompressError::Phase`] when called out of order,
    /// [`CompressError::Shape`] when `q_reduced` has the wrong shape.
    #[must_use = "the result carries the computation; dropping it discards the round"]
    pub fn try_finish(&mut self, q_reduced: Matrix) -> Result<Matrix, CompressError> {
        self.expect_phase(Phase::AwaitQ { have_p: true }, "finish called out of order")?;
        if (q_reduced.rows(), q_reduced.cols()) != (self.m, self.rank) {
            return Err(CompressError::Shape {
                what: "aggregated Q has the wrong shape",
                expected: (self.m, self.rank),
                actual: (q_reduced.rows(), q_reduced.cols()),
            });
        }
        let mut out = Matrix::zeros(self.n, self.m);
        self.try_finish_slice(q_reduced.as_slice(), out.as_mut_slice())?;
        Ok(out)
    }

    /// [`PowerSgd::try_finish`] over flat row-major buffers: reads the
    /// aggregated `Q` (`m·r` elements, retained as the next query) from
    /// `q_reduced` and overwrites `out` (`n·m` elements) with `M̂ = P̂ Q̂ᵀ`.
    ///
    /// # Errors
    ///
    /// [`CompressError::Phase`] when called out of order,
    /// [`CompressError::Matrix`] when `q_reduced` or `out` has the wrong
    /// length. No state changes on error.
    pub fn try_finish_slice(
        &mut self,
        q_reduced: &[f32],
        out: &mut [f32],
    ) -> Result<(), CompressError> {
        self.expect_phase(Phase::AwaitQ { have_p: true }, "finish called out of order")?;
        check_len(self.m * self.rank, q_reduced.len())?;
        check_len(self.n * self.m, out.len())?;
        let (n, m, r) = (self.n, self.m, self.rank);
        self.q.as_mut_slice().copy_from_slice(q_reduced);
        kernels::reconstruct(
            pool::global_for(n * m * r),
            n,
            m,
            r,
            self.p_hat.as_slice(),
            self.q.as_slice(),
            out,
        );
        self.step += 1;
        self.phase = Phase::AwaitP;
        Ok(())
    }

    /// FLOPs of one compression step (Table II: `O(N r)` with `N = n m`):
    /// two `n×m·m×r` multiplications plus the `O((n+m) r²)`
    /// orthogonalization and the `n×r·r×m` error-feedback reconstruction.
    pub fn compress_flops(&self) -> u64 {
        let (n, m, r) = (self.n as u64, self.m as u64, self.rank as u64);
        let matmuls = 2 * 2 * n * m * r;
        let ortho = 2 * n * r * r;
        let ef = if self.cfg.error_feedback {
            2 * n * m * r
        } else {
            0
        };
        matmuls + ortho + ef
    }

    /// Elements transmitted per step (both factors): `(n + m) r`.
    pub fn transmitted_elements(&self) -> usize {
        (self.n + self.m) * self.rank
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acp_tensor::vecops::relative_error;

    fn single_worker_step(ps: &mut PowerSgd, grad: &Matrix) -> Matrix {
        let p = ps.compute_p(grad);
        let q = ps.compute_q(p);
        ps.finish(q)
    }

    fn low_rank_matrix(n: usize, m: usize, rank: usize, seed: u64) -> Matrix {
        let a = Matrix::random_std_normal(n, rank, seed);
        let b = Matrix::random_std_normal(m, rank, seed + 1);
        a.matmul_nt(&b)
    }

    #[test]
    fn recovers_low_rank_matrix_after_iterations() {
        // A fixed rank-2 matrix compressed at rank 2 must be recovered to
        // high accuracy once the power iteration converges.
        let truth = low_rank_matrix(20, 15, 2, 5);
        let mut ps = PowerSgd::new(
            20,
            15,
            PowerSgdConfig {
                rank: 2,
                ..Default::default()
            },
        );
        let mut approx = Matrix::zeros(20, 15);
        for _ in 0..6 {
            approx = single_worker_step(&mut ps, &truth);
        }
        let err = relative_error(truth.as_slice(), approx.as_slice());
        assert!(err < 1e-2, "relative error {err}");
    }

    #[test]
    fn error_feedback_identity_holds() {
        // Single worker: M + E_{t-1} = M̂_t + E_t exactly (per Algorithm 2).
        let grad = Matrix::random_std_normal(12, 9, 8);
        let mut ps = PowerSgd::new(
            12,
            9,
            PowerSgdConfig {
                rank: 2,
                ..Default::default()
            },
        );
        let mut prev_err = Matrix::zeros(12, 9);
        for _ in 0..4 {
            let before = &grad + &prev_err;
            let approx = single_worker_step(&mut ps, &grad);
            // Reconstruct E_t = (M + E_{t-1}) - M̂_t and compare with state.
            let expected_e = &before - &approx;
            assert!((expected_e.frobenius_norm() - ps.error_norm()).abs() < 1e-3);
            prev_err = expected_e;
        }
    }

    #[test]
    fn without_error_feedback_residual_stays_zero() {
        let grad = Matrix::random_std_normal(6, 5, 1);
        let cfg = PowerSgdConfig {
            rank: 1,
            error_feedback: false,
            ..Default::default()
        };
        let mut ps = PowerSgd::new(6, 5, cfg);
        single_worker_step(&mut ps, &grad);
        assert_eq!(ps.error_norm(), 0.0);
    }

    #[test]
    fn reuse_improves_fixed_matrix_approximation() {
        let truth = low_rank_matrix(24, 18, 3, 77);
        let steps = 5;
        let run = |reuse: bool| {
            let cfg = PowerSgdConfig {
                rank: 3,
                reuse,
                error_feedback: false,
                ..Default::default()
            };
            let mut ps = PowerSgd::new(24, 18, cfg);
            let mut last = Matrix::zeros(24, 18);
            for _ in 0..steps {
                last = single_worker_step(&mut ps, &truth);
            }
            relative_error(truth.as_slice(), last.as_slice())
        };
        let with_reuse = run(true);
        let without = run(false);
        assert!(
            with_reuse < without,
            "reuse {with_reuse} should beat fresh queries {without}"
        );
    }

    #[test]
    fn rank_clamps_to_dimensions() {
        let ps = PowerSgd::new(
            3,
            5,
            PowerSgdConfig {
                rank: 64,
                ..Default::default()
            },
        );
        assert_eq!(ps.rank(), 3);
    }

    #[test]
    fn initial_q_agrees_across_ranks() {
        let a = PowerSgd::new(10, 8, PowerSgdConfig::default());
        let b = PowerSgd::new(10, 8, PowerSgdConfig::default());
        assert_eq!(a.q, b.q);
    }

    #[test]
    fn transmitted_elements_formula() {
        let ps = PowerSgd::new(
            100,
            50,
            PowerSgdConfig {
                rank: 4,
                ..Default::default()
            },
        );
        assert_eq!(ps.transmitted_elements(), 600);
        assert!(ps.compress_flops() > 0);
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn phases_enforced() {
        let grad = Matrix::zeros(4, 4);
        let mut ps = PowerSgd::new(4, 4, PowerSgdConfig::default());
        ps.compute_p(&grad);
        ps.compute_p(&grad); // must panic: AwaitQ expected
    }

    #[test]
    #[should_panic(expected = "shape changed")]
    fn gradient_shape_is_checked() {
        let mut ps = PowerSgd::new(4, 4, PowerSgdConfig::default());
        ps.compute_p(&Matrix::zeros(4, 5));
    }

    #[test]
    fn try_surface_reports_structured_errors() {
        use crate::error::CompressError;
        let grad = Matrix::zeros(4, 4);
        let mut ps = PowerSgd::new(4, 4, PowerSgdConfig::default());
        assert_eq!(
            ps.try_compute_p(&Matrix::zeros(4, 5)),
            Err(CompressError::Shape {
                what: "gradient shape changed",
                expected: (4, 4),
                actual: (4, 5),
            })
        );
        // A failed call leaves the state usable.
        let p = ps.try_compute_p(&grad).unwrap();
        assert_eq!(
            ps.try_compute_p(&grad),
            Err(CompressError::Phase {
                what: "compute_p called out of order",
            })
        );
        let q = ps.try_compute_q(p).unwrap();
        assert_eq!(
            ps.try_finish(Matrix::zeros(3, 3)),
            Err(CompressError::Shape {
                what: "aggregated Q has the wrong shape",
                expected: (4, ps.rank()),
                actual: (3, 3),
            })
        );
        assert!(ps.try_finish(q).is_ok());
    }
}
