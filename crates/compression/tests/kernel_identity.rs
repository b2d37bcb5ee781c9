//! Property tests pinning the vectorized kernels byte-identical to the
//! retained scalar references, across odd lengths, world sizes 2–8, and
//! gradients salted with the awkward IEEE values (`±0.0`, infinities, NaN).
//!
//! These are the oracle that lets the pool-parallel kernels replace the
//! scalar loops without moving a single payload bit.

use acp_compression::kernels::{self, reference};
use proptest::prelude::*;

/// Gradient strategy: ordinary magnitudes with awkward values sprinkled in.
fn grads(len: usize) -> impl Strategy<Value = Vec<f32>> {
    let elem = (0u8..13, -50.0f32..50.0).prop_map(|(pick, x)| match pick {
        0 => 0.0f32,
        1 => -0.0f32,
        2 => f32::NAN,
        3 => f32::INFINITY,
        4 => f32::NEG_INFINITY,
        _ => x,
    });
    proptest::collection::vec(elem, len..=len)
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn sign_pack_is_bit_identical(grad in (1usize..300).prop_flat_map(grads)) {
        prop_assert_eq!(kernels::pack_signs(&grad), reference::pack_signs(&grad));
    }

    #[test]
    fn sign_unpack_is_bit_identical(grad in (1usize..300).prop_flat_map(grads), scale in -4.0f32..4.0) {
        let words = reference::pack_signs(&grad);
        let mut fast = vec![0.0f32; grad.len()];
        let mut slow = vec![0.0f32; grad.len()];
        kernels::unpack_signs_into(&words, scale, &mut fast);
        reference::unpack_signs_into(&words, scale, &mut slow);
        prop_assert_eq!(bits(&fast), bits(&slow));
    }

    #[test]
    fn majority_vote_is_bit_identical(
        len in 1usize..200,
        world in 2usize..=8,
        seed in 0u64..u64::MAX,
        scales in proptest::collection::vec(0.01f32..8.0, 8),
    ) {
        // Derive per-rank sign words from the seed (cheap splitmix).
        let wpr = len.div_ceil(32);
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) as u32
        };
        let mut gathered = vec![0u32; wpr * world];
        for (w, word) in gathered.iter_mut().enumerate() {
            *word = next();
            // Keep tail bits clean like a real pack would.
            if (w + 1) % wpr == 0 && len % 32 != 0 {
                *word &= (1u32 << (len % 32)) - 1;
            }
        }
        let scales = &scales[..world];
        let mut fast = vec![0.0f32; len];
        let mut slow = vec![0.0f32; len];
        kernels::majority_vote_into(&gathered, scales, len, world, &mut fast);
        reference::majority_vote_into(&gathered, scales, len, world, &mut slow);
        prop_assert_eq!(bits(&fast), bits(&slow));
    }

    #[test]
    fn topk_selection_is_identical(
        grad in (1usize..300).prop_flat_map(grads),
        k in 1usize..300,
    ) {
        prop_assert_eq!(
            kernels::select_topk(&grad, k),
            reference::select_topk(&grad, k)
        );
    }
}

/// Above the pool's parallel threshold the chunked kernels must still be
/// bit-identical to the scalar references (fixed partitioning, no parallel
/// folds). One deterministic large case keeps the test fast.
#[test]
fn large_inputs_cross_the_parallel_threshold_bit_identically() {
    let len = (1 << 16) + 37; // just past PAR_THRESHOLD, odd tail
    let mut state = 0x1234_5678u32;
    let grad: Vec<f32> = (0..len)
        .map(|_| {
            state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            match state % 13 {
                0 => f32::NAN,
                1 => -0.0,
                _ => (state as f32 / u32::MAX as f32 - 0.5) * 10.0,
            }
        })
        .collect();

    let fast_words = kernels::pack_signs(&grad);
    let slow_words = reference::pack_signs(&grad);
    assert_eq!(fast_words, slow_words);

    let mut fast = vec![0.0f32; len];
    let mut slow = vec![0.0f32; len];
    kernels::unpack_signs_into(&fast_words, 1.5, &mut fast);
    reference::unpack_signs_into(&slow_words, 1.5, &mut slow);
    assert_eq!(bits(&fast), bits(&slow));

    let world = 4;
    let gathered: Vec<u32> = (0..world).flat_map(|_| fast_words.clone()).collect();
    let scales = vec![0.5f32, 1.0, 2.0, 4.0];
    kernels::majority_vote_into(&gathered, &scales, len, world, &mut fast);
    reference::majority_vote_into(&gathered, &scales, len, world, &mut slow);
    assert_eq!(bits(&fast), bits(&slow));

    assert_eq!(
        kernels::select_topk(&grad, 1000),
        reference::select_topk(&grad, 1000)
    );
}

// ---------------------------------------------------------------------------
// Top-k selection through the sampled lower bound: one data family per path
// of `kernels::select_topk` (the bound answers; a tie at the boundary; a
// crowd at the bound), each against the scalar introselect. The unit tests
// beside the kernel pin which path each family takes. The candidate cap
// carries a fixed 2144 on top of `128·k`, so a band in a bucket of at most
// 6000 elements crowds the bound only for small `k`; past that it falls
// back on the tie. The ResNet-sized band below always crowds it.
// ---------------------------------------------------------------------------

/// Longest bucket the selection proptests draw: long enough for the sample
/// rank to drop below the sample length (from about 1210 elements).
const MAX_SELECT_LEN: usize = if cfg!(miri) { 1300 } else { 6000 };
const SELECT_CASES: u32 = if cfg!(miri) { 4 } else { 64 };
/// ResNet-18's largest layer, which is a bucket of its own.
const LARGE_SELECT_LEN: usize = if cfg!(miri) { 4096 } else { 2_359_296 };

/// A splitmix stream, so each family is a pure function of its seed.
fn splitmix(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed;
    move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// `n` distinct magnitudes (`1..=n` × 2⁻¹⁰, shuffled, mixed signs).
fn distinct_magnitudes(n: usize, seed: u64) -> Vec<f32> {
    let mut next = splitmix(seed);
    let mut perm: Vec<usize> = (1..=n).collect();
    for i in (1..n).rev() {
        perm.swap(i, next() as usize % (i + 1));
    }
    perm.into_iter()
        .map(|m| {
            let sign = if next().is_multiple_of(2) { 1.0 } else { -1.0 };
            sign * m as f32 / 1024.0
        })
        .collect()
}

/// A few distinct magnitudes salted with `±0.0`, NaN and `±∞`: whatever
/// `k` is, its key is shared by many elements.
fn few_values(n: usize, seed: u64) -> Vec<f32> {
    let mut next = splitmix(seed);
    (0..n)
        .map(|_| match next() % 40 {
            0 => 0.0,
            1 => -0.0,
            2 => f32::NAN,
            3 => f32::INFINITY,
            4 => f32::NEG_INFINITY,
            r => [0.5f32, -1.0, 2.0, -2.0][r as usize % 4],
        })
        .collect()
}

/// Distinct small magnitudes under a band of three adjacent floats that
/// holds the top half of the bucket.
fn top_band(n: usize, seed: u64) -> Vec<f32> {
    let band = [1.0f32, 1.0 + f32::EPSILON, -(1.0 + 2.0 * f32::EPSILON)];
    let mut next = splitmix(seed ^ 0xBA4D);
    distinct_magnitudes(n, seed)
        .into_iter()
        .map(|g| {
            let r = next();
            if r.is_multiple_of(2) {
                band[(r >> 1) as usize % 3]
            } else {
                g / n as f32
            }
        })
        .collect()
}

/// Bucket length, family seed and `k` in `1..=n`, with `n` and `n − 1`
/// drawn on purpose.
fn selection_case() -> impl Strategy<Value = (usize, u64, usize)> {
    (
        200usize..=MAX_SELECT_LEN,
        0u64..u64::MAX,
        0u8..4,
        0usize..usize::MAX,
    )
        .prop_map(|(n, seed, pick, k)| {
            let k = match pick {
                0 => n,
                1 => n - 1,
                _ => 1 + k % n,
            };
            (n, seed, k)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(SELECT_CASES))]

    #[test]
    fn bounded_selection_matches_the_introselect_on_distinct_magnitudes(
        case in selection_case(),
    ) {
        let (n, seed, k) = case;
        let grad = distinct_magnitudes(n, seed);
        prop_assert_eq!(kernels::select_topk(&grad, k), reference::select_topk(&grad, k));
    }

    #[test]
    fn bounded_selection_matches_the_introselect_on_tied_magnitudes(
        case in selection_case(),
    ) {
        let (n, seed, k) = case;
        let grad = few_values(n, seed);
        prop_assert_eq!(kernels::select_topk(&grad, k), reference::select_topk(&grad, k));
    }

    #[test]
    fn bounded_selection_matches_the_introselect_under_a_top_band(
        case in selection_case(),
    ) {
        let (n, seed, k) = case;
        let grad = top_band(n, seed);
        prop_assert_eq!(kernels::select_topk(&grad, k), reference::select_topk(&grad, k));
    }
}

/// ResNet-18's largest layer at density 0.001, as its own bucket, both as
/// drawn and with error-feedback-like structure: the previous selection's
/// coordinates zeroed and every other element grown. Distinct magnitudes
/// take the bounded path; under a top band each of the band's three floats
/// is held by about 390 k elements, past the candidate cap of about 304 k.
#[test]
fn bounded_selection_matches_the_introselect_on_a_resnet_sized_bucket() {
    let n = LARGE_SELECT_LEN;
    let k = n.div_ceil(1000);
    for (family, mut grad) in [
        ("distinct", distinct_magnitudes(n, 611)),
        ("band", top_band(n, 611)),
    ] {
        for step in 0..3 {
            let top = kernels::select_topk(&grad, k);
            assert_eq!(
                top,
                reference::select_topk(&grad, k),
                "{family} step {step}"
            );
            assert_eq!(top.len(), k);
            for g in &mut grad {
                *g *= 1.0 + 1.0 / 64.0;
            }
            for &i in &top {
                grad[i as usize] = 0.0;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Low-rank path: the thin-factor kernels of `acp_tensor::kernels` and the
// fused encodes of `AcpSgd` / `PowerSgd` against the naive scalar loops of
// `acp_tensor::kernels::reference`, composed the way the compressors
// composed them before the phases were fused.
// ---------------------------------------------------------------------------

use acp_compression::acp::{AcpSgd, AcpSgdConfig, FactorSide};
use acp_compression::powersgd::{PowerSgd, PowerSgdConfig};
use acp_tensor::kernels as thin;
use acp_tensor::kernels::reference as naive;
use acp_tensor::{orthogonalize, Matrix, SeedableStdNormal, WorkerPool};

/// Largest gradient side the low-rank proptests draw; Miri interprets
/// every multiply-add, so it gets toy shapes.
const MAX_SIDE: usize = if cfg!(miri) { 6 } else { 40 };
const LOW_RANK_CASES: u32 = if cfg!(miri) { 2 } else { 24 };
const TRAJECTORY_STEPS: usize = if cfg!(miri) { 4 } else { 20 };

/// Ranks with one register panel (1, 2, 4, 8), several (3, 5) and one far
/// above `min(n, m)`, which the compressors clamp.
const RANKS: [usize; 7] = [1, 2, 3, 4, 5, 8, 64];

/// Bit patterns with every NaN mapped to one: which operand's sign and
/// payload an add of two NaNs returns is open in IEEE 754 and unspecified in
/// Rust, so only NaN-ness is part of the contract.
fn canonical_bits(v: &[f32]) -> Vec<u32> {
    v.iter()
        .map(|x| if x.is_nan() { f32::NAN } else { *x }.to_bits())
        .collect()
}

/// A gradient: finite, with exact zeros of both signs (the zero-skip).
fn gradient(len: usize) -> impl Strategy<Value = Vec<f32>> {
    let elem = (0u8..8, -50.0f32..50.0).prop_map(|(pick, x)| match pick {
        0 => 0.0f32,
        1 => -0.0f32,
        _ => x,
    });
    proptest::collection::vec(elem, len..=len)
}

/// Shapes that exercise every block edge: row counts below, at and off the
/// row block, `m = 2`, and widths off the reconstruction's lane count.
fn shape() -> impl Strategy<Value = (usize, usize)> {
    (1usize..=MAX_SIDE, 2usize..=MAX_SIDE)
}

fn add(a: &[f32], b: &[f32]) -> Vec<f32> {
    a.iter().zip(b).map(|(a, b)| a + b).collect()
}

fn sub(a: &[f32], b: &[f32]) -> Vec<f32> {
    a.iter().zip(b).map(|(a, b)| a - b).collect()
}

/// `AcpSgd` as it was before the phases were fused: clone the query,
/// materialize `M + E`, three naive products and an element-wise subtract.
struct OracleAcp {
    n: usize,
    m: usize,
    r: usize,
    cfg: AcpSgdConfig,
    p: Matrix,
    q: Matrix,
    error: Option<Vec<f32>>,
    step: u64,
    query: Matrix,
}

impl OracleAcp {
    fn new(n: usize, m: usize, cfg: AcpSgdConfig) -> Self {
        let r = cfg.rank.min(n).min(m);
        OracleAcp {
            n,
            m,
            r,
            cfg,
            p: Matrix::random_std_normal(n, r, cfg.seed ^ 0xAC9_57D),
            q: Matrix::random_std_normal(m, r, cfg.seed),
            error: cfg.error_feedback.then(|| vec![0.0; n * m]),
            step: 0,
            query: Matrix::zeros(0, 0),
        }
    }

    fn p_step(&self) -> bool {
        self.step.is_multiple_of(2)
    }

    fn compress(&mut self, grad: &[f32]) -> Vec<f32> {
        let (n, m, r) = (self.n, self.m, self.r);
        let corrected = match &self.error {
            Some(e) => add(grad, e),
            None => grad.to_vec(),
        };
        let fresh = |rows, salt: u64| {
            Matrix::random_std_normal(rows, r, self.cfg.seed ^ (self.step + 1).wrapping_mul(salt))
        };
        let (factor, approx);
        if self.p_step() {
            self.query = if self.cfg.reuse {
                self.q.clone()
            } else {
                fresh(m, 0x9E37)
            };
            orthogonalize(&mut self.query);
            factor = naive::matmul(n, m, r, &corrected, self.query.as_slice());
            approx = naive::matmul_nt(n, r, m, &factor, self.query.as_slice());
        } else {
            self.query = if self.cfg.reuse {
                self.p.clone()
            } else {
                fresh(n, 0x5BD1)
            };
            orthogonalize(&mut self.query);
            factor = naive::matmul_tn(n, m, r, &corrected, self.query.as_slice());
            approx = naive::matmul_nt(n, r, m, self.query.as_slice(), &factor);
        }
        if self.error.is_some() {
            self.error = Some(sub(&corrected, &approx));
        }
        factor
    }

    fn finish(&mut self, reduced: &[f32]) -> Vec<f32> {
        let (n, m, r) = (self.n, self.m, self.r);
        let reduced = Matrix::from_vec(reduced.len() / r, r, reduced.to_vec()).unwrap();
        let query = std::mem::take(&mut self.query);
        if self.p_step() {
            (self.p, self.q) = (reduced, query);
        } else {
            (self.p, self.q) = (query, reduced);
        }
        self.step += 1;
        naive::matmul_nt(n, r, m, self.p.as_slice(), self.q.as_slice())
    }
}

/// `PowerSgd` as it was before the phases were fused.
struct OraclePower {
    n: usize,
    m: usize,
    r: usize,
    cfg: PowerSgdConfig,
    q: Matrix,
    error: Option<Vec<f32>>,
    corrected: Vec<f32>,
    p_hat: Matrix,
    step: u64,
}

impl OraclePower {
    fn new(n: usize, m: usize, cfg: PowerSgdConfig) -> Self {
        let r = cfg.rank.min(n).min(m);
        OraclePower {
            n,
            m,
            r,
            cfg,
            q: Matrix::random_std_normal(m, r, cfg.seed),
            error: cfg.error_feedback.then(|| vec![0.0; n * m]),
            corrected: Vec::new(),
            p_hat: Matrix::zeros(0, 0),
            step: 0,
        }
    }

    fn compute_p(&mut self, grad: &[f32]) -> Vec<f32> {
        if !self.cfg.reuse {
            let seed = self.cfg.seed ^ (self.step + 1).wrapping_mul(0x9E37);
            self.q = Matrix::random_std_normal(self.m, self.r, seed);
        }
        self.corrected = match &self.error {
            Some(e) => add(grad, e),
            None => grad.to_vec(),
        };
        naive::matmul(self.n, self.m, self.r, &self.corrected, self.q.as_slice())
    }

    fn compute_q(&mut self, p_reduced: &[f32]) -> Vec<f32> {
        let (n, m, r) = (self.n, self.m, self.r);
        self.p_hat = Matrix::from_vec(n, r, p_reduced.to_vec()).unwrap();
        orthogonalize(&mut self.p_hat);
        let q = naive::matmul_tn(n, m, r, &self.corrected, self.p_hat.as_slice());
        if self.error.is_some() {
            let approx = naive::matmul_nt(n, r, m, self.p_hat.as_slice(), &q);
            self.error = Some(sub(&self.corrected, &approx));
        }
        q
    }

    fn finish(&mut self, q_reduced: &[f32]) -> Vec<f32> {
        let (n, m, r) = (self.n, self.m, self.r);
        self.q = Matrix::from_vec(m, r, q_reduced.to_vec()).unwrap();
        self.step += 1;
        naive::matmul_nt(n, r, m, self.p_hat.as_slice(), q_reduced)
    }
}

/// Stands in for the mean all-reduce: the aggregate differs from the local
/// factor, as it does at world size > 1, and stays a pure function of it.
fn reduce(local: &[f32]) -> Vec<f32> {
    local.iter().map(|x| x * 0.75 + 0.125).collect()
}

/// A gradient that drifts from step to step, with zeros of both signs.
fn drifting_gradient(base: &[f32], step: usize) -> Vec<f32> {
    base.iter()
        .enumerate()
        .map(|(i, g)| match (i + step) % 11 {
            0 => 0.0,
            1 => -0.0,
            _ => g * (1.0 + 0.125 * step as f32) + (i % 7) as f32 * 0.25,
        })
        .collect()
}

/// Drives an `AcpSgd` through its slice entry points beside the oracle and
/// compares factor, residual and reconstruction after every phase.
fn check_acp_against_oracle(n: usize, m: usize, cfg: AcpSgdConfig, base: &[f32], steps: usize) {
    let mut acp = AcpSgd::new(n, m, cfg);
    let mut oracle = OracleAcp::new(n, m, cfg);
    for step in 0..steps {
        let what = format!("{n}x{m} {cfg:?} step {step}");
        let grad = drifting_gradient(base, step);
        assert_eq!(acp.next_side() == FactorSide::P, oracle.p_step());
        let mut factor = vec![f32::NAN; acp.transmitted_elements()];
        acp.try_compress_slice(&grad, &mut factor).unwrap();
        assert_eq!(
            canonical_bits(&factor),
            canonical_bits(&oracle.compress(&grad)),
            "factor {what}"
        );
        assert_eq!(
            acp.residual().map(canonical_bits),
            oracle.error.as_deref().map(canonical_bits),
            "residual {what}"
        );
        let reduced = reduce(&factor);
        let mut out = vec![f32::NAN; n * m];
        acp.try_finish_slice(&reduced, &mut out).unwrap();
        assert_eq!(
            canonical_bits(&out),
            canonical_bits(&oracle.finish(&reduced)),
            "reconstruction {what}"
        );
    }
}

/// The same for `PowerSgd`'s three phases.
fn check_power_against_oracle(n: usize, m: usize, cfg: PowerSgdConfig, base: &[f32], steps: usize) {
    let mut ps = PowerSgd::new(n, m, cfg);
    let mut oracle = OraclePower::new(n, m, cfg);
    let r = ps.rank();
    for step in 0..steps {
        let what = format!("{n}x{m} {cfg:?} step {step}");
        let grad = drifting_gradient(base, step);
        let mut p = vec![f32::NAN; n * r];
        ps.try_compute_p_slice(&grad, &mut p).unwrap();
        assert_eq!(
            canonical_bits(&p),
            canonical_bits(&oracle.compute_p(&grad)),
            "P {what}"
        );
        let p_reduced = reduce(&p);
        let mut q = vec![f32::NAN; m * r];
        ps.try_compute_q_slice(&p_reduced, &mut q).unwrap();
        assert_eq!(
            canonical_bits(&q),
            canonical_bits(&oracle.compute_q(&p_reduced)),
            "Q {what}"
        );
        assert_eq!(
            ps.residual().map(canonical_bits),
            oracle.error.as_deref().map(canonical_bits),
            "residual {what}"
        );
        let q_reduced = reduce(&q);
        let mut out = vec![f32::NAN; n * m];
        ps.try_finish_slice(&q_reduced, &mut out).unwrap();
        assert_eq!(
            canonical_bits(&out),
            canonical_bits(&oracle.finish(&q_reduced)),
            "reconstruction {what}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(LOW_RANK_CASES))]

    /// The three thin kernels and their error-feedback forms, with ±inf and
    /// NaN in the factor: a zero gradient element must skip its term, not
    /// turn `0·inf` into NaN.
    #[test]
    fn thin_kernels_are_bit_identical(
        dims in shape(),
        rank in 0usize..RANKS.len(),
        workers in 0usize..=3,
        g in gradient(MAX_SIDE * MAX_SIDE),
        e0 in gradient(MAX_SIDE * MAX_SIDE),
        q in grads(MAX_SIDE * 13),
        p in grads(MAX_SIDE * 13),
    ) {
        let (n, m) = dims;
        // The kernels do not clamp; past 8 a factor is several panels.
        let r = RANKS[rank].min(13);
        let pool = WorkerPool::new(workers);
        let (g, e0, q, p) = (&g[..n * m], &e0[..n * m], &q[..m * r], &p[..n * r]);

        let mut p_out = vec![f32::NAN; n * r];
        thin::project_rows(&pool, n, m, r, g, q, &mut p_out);
        prop_assert_eq!(canonical_bits(&p_out), canonical_bits(&naive::matmul(n, m, r, g, q)));

        let mut q_out = vec![f32::NAN; m * r];
        thin::project_cols(&pool, n, m, r, g, p, &mut q_out);
        prop_assert_eq!(canonical_bits(&q_out), canonical_bits(&naive::matmul_tn(n, m, r, g, p)));

        let approx = naive::matmul_nt(n, r, m, p, q);
        let mut out = vec![f32::NAN; n * m];
        thin::reconstruct(&pool, n, m, r, p, q, &mut out);
        prop_assert_eq!(canonical_bits(&out), canonical_bits(&approx));

        let mut e = e0.to_vec();
        thin::subtract_reconstruction(&pool, n, m, r, p, q, &mut e);
        prop_assert_eq!(canonical_bits(&e), canonical_bits(&sub(e0, &approx)));

        // Fused P step: E ← G + E, P = E·Q, E ← E − P·Qᵀ.
        let corrected = add(g, e0);
        let p_ref = naive::matmul(n, m, r, &corrected, q);
        let residual = sub(&corrected, &naive::matmul_nt(n, r, m, &p_ref, q));
        for with_residual in [false, true] {
            let mut e = e0.to_vec();
            thin::project_rows_corrected(&pool, n, m, r, g, &mut e, q, &mut p_out, with_residual);
            prop_assert_eq!(canonical_bits(&p_out), canonical_bits(&p_ref));
            let expected = if with_residual { &residual } else { &corrected };
            prop_assert_eq!(canonical_bits(&e), canonical_bits(expected));
        }

        // Fused Q step, first sweep: E ← G + E, Q = Eᵀ·P.
        let mut e = e0.to_vec();
        thin::project_cols_corrected(&pool, n, m, r, g, &mut e, p, &mut q_out);
        prop_assert_eq!(canonical_bits(&e), canonical_bits(&corrected));
        prop_assert_eq!(canonical_bits(&q_out), canonical_bits(&naive::matmul_tn(n, m, r, &corrected, p)));
    }

    /// Both fused encodes (and the decode) against the unfused oracle, over
    /// every rank class, EF on/off and reuse on/off.
    #[test]
    fn fused_encodes_are_bit_identical(
        dims in shape(),
        rank in 0usize..RANKS.len(),
        error_feedback in 0u8..2,
        reuse in 0u8..2,
        seed in 0u64..1000,
        base in gradient(MAX_SIDE * MAX_SIDE),
    ) {
        let (n, m) = dims;
        let (rank, error_feedback, reuse) = (RANKS[rank], error_feedback != 0, reuse != 0);
        let base = &base[..n * m];
        let acp = AcpSgdConfig { rank, error_feedback, reuse, seed };
        check_acp_against_oracle(n, m, acp, base, 4);
        let power = PowerSgdConfig { rank, error_feedback, reuse, seed };
        check_power_against_oracle(n, m, power, base, 2);
    }
}

/// Above the pool's parallel threshold (70·260·r ≥ 2¹⁶ from r = 4) the
/// kernels split rows, or columns, across the global pool; the split must
/// not move a bit.
#[test]
#[cfg_attr(miri, ignore = "72 800 multiply-adds per product, on pool threads")]
fn fused_encodes_cross_the_parallel_threshold_bit_identically() {
    let (n, m) = (70, 260);
    let base = Matrix::random_std_normal(n, m, 17).into_vec();
    for rank in [4, 5, 8] {
        for error_feedback in [true, false] {
            let acp = AcpSgdConfig {
                rank,
                error_feedback,
                ..Default::default()
            };
            check_acp_against_oracle(n, m, acp, &base, 4);
            let power = PowerSgdConfig {
                rank,
                error_feedback,
                ..Default::default()
            };
            check_power_against_oracle(n, m, power, &base, 2);
        }
    }
}

/// The `Matrix` entry points are wrappers over the slice entry points: two
/// states driven through one surface each stay bit-equal in every factor,
/// the residual and every reconstruction for 20 steps.
#[test]
fn matrix_and_slice_entry_points_trace_the_same_trajectory() {
    let (n, m) = (9, 14);
    let base = Matrix::random_std_normal(n, m, 23).into_vec();
    for error_feedback in [true, false] {
        let cfg = AcpSgdConfig {
            rank: 3,
            error_feedback,
            ..Default::default()
        };
        let (mut by_matrix, mut by_slice) = (AcpSgd::new(n, m, cfg), AcpSgd::new(n, m, cfg));
        let cfg = PowerSgdConfig {
            rank: 3,
            error_feedback,
            ..Default::default()
        };
        let (mut ps_matrix, mut ps_slice) = (PowerSgd::new(n, m, cfg), PowerSgd::new(n, m, cfg));
        let r = ps_slice.rank();
        for step in 0..TRAJECTORY_STEPS {
            let grad = drifting_gradient(&base, step);
            let grad_matrix = Matrix::from_vec(n, m, grad.clone()).unwrap();

            let factor = by_matrix.compress(&grad_matrix);
            let mut factor_slice = vec![f32::NAN; by_slice.transmitted_elements()];
            by_slice
                .try_compress_slice(&grad, &mut factor_slice)
                .unwrap();
            assert_eq!(
                bits(factor.as_slice()),
                bits(&factor_slice),
                "ACP factor, step {step}"
            );
            assert_eq!(
                by_matrix.residual().map(bits),
                by_slice.residual().map(bits)
            );
            let reduced = reduce(&factor_slice);
            let approx = by_matrix
                .finish(Matrix::from_vec(factor.rows(), factor.cols(), reduced.clone()).unwrap());
            let mut out = vec![f32::NAN; n * m];
            by_slice.try_finish_slice(&reduced, &mut out).unwrap();
            assert_eq!(
                bits(approx.as_slice()),
                bits(&out),
                "ACP reconstruction, step {step}"
            );

            let p = ps_matrix.compute_p(&grad_matrix);
            let mut p_slice = vec![f32::NAN; n * r];
            ps_slice.try_compute_p_slice(&grad, &mut p_slice).unwrap();
            assert_eq!(
                bits(p.as_slice()),
                bits(&p_slice),
                "Power-SGD P, step {step}"
            );
            let p_reduced = reduce(&p_slice);
            let q = ps_matrix.compute_q(Matrix::from_vec(n, r, p_reduced.clone()).unwrap());
            let mut q_slice = vec![f32::NAN; m * r];
            ps_slice
                .try_compute_q_slice(&p_reduced, &mut q_slice)
                .unwrap();
            assert_eq!(
                bits(q.as_slice()),
                bits(&q_slice),
                "Power-SGD Q, step {step}"
            );
            assert_eq!(
                ps_matrix.residual().map(bits),
                ps_slice.residual().map(bits)
            );
            let q_reduced = reduce(&q_slice);
            let approx = ps_matrix.finish(Matrix::from_vec(m, r, q_reduced.clone()).unwrap());
            let mut out = vec![f32::NAN; n * m];
            ps_slice.try_finish_slice(&q_reduced, &mut out).unwrap();
            assert_eq!(
                bits(approx.as_slice()),
                bits(&out),
                "Power-SGD reconstruction, step {step}"
            );
        }
    }
}

/// The slice entry points reject wrong lengths before touching any state.
#[test]
fn slice_entry_points_reject_wrong_lengths_and_stay_usable() {
    let grad = vec![1.0f32; 12];
    let mut acp = AcpSgd::new(
        4,
        3,
        AcpSgdConfig {
            rank: 2,
            ..Default::default()
        },
    );
    let mut factor = vec![0.0f32; acp.transmitted_elements()];
    assert!(acp.try_compress_slice(&grad[..11], &mut factor).is_err());
    assert!(acp.try_compress_slice(&grad, &mut factor[..3]).is_err());
    assert_eq!(acp.residual().map(bits), Some(bits(&[0.0; 12])));
    acp.try_compress_slice(&grad, &mut factor).unwrap();
    let mut out = vec![0.0f32; 12];
    assert!(acp.try_finish_slice(&factor[..3], &mut out).is_err());
    assert!(acp.try_finish_slice(&factor, &mut out[..5]).is_err());
    acp.try_finish_slice(&factor, &mut out).unwrap();
    assert_eq!(acp.step(), 1);

    let mut ps = PowerSgd::new(
        4,
        3,
        PowerSgdConfig {
            rank: 2,
            ..Default::default()
        },
    );
    let (mut p, mut q) = (vec![0.0f32; 8], vec![0.0f32; 6]);
    assert!(ps.try_compute_p_slice(&grad[..11], &mut p).is_err());
    assert!(ps.try_compute_p_slice(&grad, &mut p[..7]).is_err());
    assert!(ps.try_compute_q_slice(&p, &mut q).is_err(), "out of order");
    ps.try_compute_p_slice(&grad, &mut p).unwrap();
    assert!(ps.try_compute_q_slice(&p[..7], &mut q).is_err());
    ps.try_compute_q_slice(&p, &mut q).unwrap();
    assert!(ps.try_finish_slice(&q, &mut out[..5]).is_err());
    ps.try_finish_slice(&q, &mut out).unwrap();
    assert_eq!(ps.step(), 1);
}
