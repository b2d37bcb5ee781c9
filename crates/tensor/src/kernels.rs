//! Pool-parallel matrix-multiply kernels for training and the low-rank
//! compressors.
//!
//! Two families compute the same three products (`A·B`, `Aᵀ·B`, `A·Bᵀ`):
//!
//! * the generic kernels serve wide operands — the forward/backward
//!   products `acp-training` issues. [`matmul_into`] and
//!   [`matmul_tn_into`] stream across contiguous output rows, so their
//!   inner loop is already a vector of independent sums; [`matmul_nt_into`]
//!   (`x·Wᵀ`, a dense layer's forward) has a dot product per element
//!   instead, so it packs a panel of `Bᵀ` and sweeps it with a register
//!   tile of independent running sums;
//! * the thin-factor kernels ([`project_rows`], [`project_cols`],
//!   [`reconstruct`] and their error-feedback forms) serve the low-rank
//!   compressors, where one operand is an `n×m` gradient and the other a
//!   factor only `r` columns wide. They hold one output element per lane
//!   of an 8-lane vector: [`project_rows`] walks eight gradient rows as a
//!   tile and transposes each `8×8` block in registers, so a lane
//!   accumulates one row of `P`; [`project_cols`], [`reconstruct`] and the
//!   residual run eight contiguous columns per vector. The error-feedback
//!   updates are folded into the same sweeps, so a compression phase reads
//!   the gradient once. Their tile bodies are written once over eight
//!   lanes and instantiated twice — portably, and for AVX2, which a call
//!   runs whenever the CPU has it (fused multiply-add is never enabled).
//!
//! The `*_into` products hand a product to the thin kernels whenever the
//! factor is at most [`THIN_MAX`] wide; nothing else selects between the
//! families.
//!
//! Determinism contract: every output element is accumulated in exactly
//! the same floating-point order as the naive loops in [`mod@reference`] —
//! start from `0.0`, add the terms in ascending inner index, skip a term
//! whose gradient element is zero where the reference does. Blocking,
//! panels, register tiles, vector lanes and parallelism only decide *when*
//! and *on which thread* an element's chain runs, never the order of the
//! adds that produce it: a tile or a vector holds one accumulator per
//! output element and advances them all by one inner index per step, with
//! the multiply and the add kept separate (no fused multiply-add). Where a
//! vector cannot skip a lane, it adds `+0.0` there instead, which leaves a
//! sum that started at `+0.0` unchanged (such a sum is never `−0.0`). So
//! the AVX2 and the portable instantiation produce the same bits. The
//! `*_matches_*` tests below, the thin-kernel and `A·Bᵀ` proptests in
//! `tests/properties.rs` and the byte-identity proptests in
//! `acp-compression` pin this.

use crate::pool::{WorkerPool, PAR_THRESHOLD};

/// Widest factor the `*_into` products route to the thin kernels: the
/// widest accumulator panel of the row projection, whose sums stay in
/// registers across the sweep.
pub const THIN_MAX: usize = 8;

/// Rows an `A·Bᵀ` tile and a column-projection block walk together. One
/// row is a single add chain per output element, bound by add latency;
/// interleaved rows are independent chains. Four keep a column block's
/// row vectors and their zero masks in registers; the row-interleave
/// sweep in DESIGN.md §12 fixed it for the kernels these replaced.
const ROW_BLOCK: usize = 4;

/// `f32` lanes of one vector of the thin-factor kernels: an AVX2
/// register, or two SSE registers in the portable instantiation. Each
/// lane holds one output element.
const LANES: usize = 8;

/// Output columns one packed panel of [`matmul_nt_into`] covers: eight
/// lanes, so a [`ROW_BLOCK`]-row tile is four 8-lane accumulators (eight
/// SSE registers in the baseline build this product is compiled for).
const NT_COLS: usize = LANES;

thread_local! {
    /// Per-thread staging space of the kernels: the packed `Bᵀ` panel of
    /// [`matmul_nt_into`], a thin kernel's transposed factor or its
    /// transposed accumulators. Grown to the largest request the thread
    /// has seen and kept, so a warm call allocates nothing.
    static SCRATCH: std::cell::RefCell<Vec<f32>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// Runs `f` on `len` elements of this thread's scratch, contents
/// unspecified. Tasks borrow it; a task never runs another task, so the
/// borrow never nests.
fn with_scratch<R>(len: usize, f: impl FnOnce(&mut [f32]) -> R) -> R {
    SCRATCH.with_borrow_mut(|buf| {
        if buf.len() < len {
            buf.resize(len, 0.0);
        }
        f(&mut buf[..len])
    })
}

/// Task count for a kernel doing roughly `flops` multiply-adds.
fn tasks_for(pool: &WorkerPool, flops: usize) -> usize {
    if flops < PAR_THRESHOLD {
        1
    } else {
        pool.parallelism()
    }
}

/// `out ← A·B` with `A: n×k`, `B: k×m`, `out: n×m`, all row-major.
/// Overwrites `out`; its previous contents are never read.
///
/// Output rows are split into per-task blocks; within a row the k-loop is
/// ascending and zero entries of `A` are skipped, exactly like the serial
/// kernel (the skip matters for signed zeros: `-0.0 + 0.0 == +0.0`).
///
/// # Panics
///
/// Panics if a slice length does not match its dimensions.
pub fn matmul_into(
    pool: &WorkerPool,
    n: usize,
    k: usize,
    m: usize,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
) {
    if m <= THIN_MAX {
        return project_rows(pool, n, k, m, a, b, out);
    }
    assert_eq!(a.len(), n * k, "matmul lhs length mismatch");
    assert_eq!(b.len(), k * m, "matmul rhs length mismatch");
    assert_eq!(out.len(), n * m, "matmul out length mismatch");
    if n == 0 {
        return;
    }
    let tasks = tasks_for(pool, n * k * m);
    pool.for_each_unit_chunk_mut(out, m, tasks, |row0, piece| {
        for (ri, out_row) in piece.chunks_exact_mut(m).enumerate() {
            let i = row0 + ri;
            out_row.fill(0.0);
            for kk in 0..k {
                let av = a[i * k + kk];
                if av == 0.0 {
                    continue;
                }
                let b_row = &b[kk * m..kk * m + m];
                for (o, &bv) in out_row.iter_mut().zip(b_row) {
                    *o += av * bv;
                }
            }
        }
    });
}

/// `out ← Aᵀ·B` with `A: n×k`, `B: n×m`, `out: k×m`, without materializing
/// the transpose. Overwrites `out`; its previous contents are never read.
///
/// Parallelism splits the `k` output rows; each task walks the shared `n`
/// dimension in ascending order, so every output element sees the same
/// accumulation sequence as the serial loop.
///
/// # Panics
///
/// Panics if a slice length does not match its dimensions.
pub fn matmul_tn_into(
    pool: &WorkerPool,
    n: usize,
    k: usize,
    m: usize,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
) {
    if m <= THIN_MAX {
        return project_cols(pool, n, k, m, a, b, out);
    }
    assert_eq!(a.len(), n * k, "matmul_tn lhs length mismatch");
    assert_eq!(b.len(), n * m, "matmul_tn rhs length mismatch");
    assert_eq!(out.len(), k * m, "matmul_tn out length mismatch");
    if k == 0 {
        return;
    }
    let tasks = tasks_for(pool, n * k * m);
    pool.for_each_unit_chunk_mut(out, m, tasks, |k0, piece| {
        piece.fill(0.0);
        for row in 0..n {
            let a_row = &a[row * k..row * k + k];
            let b_row = &b[row * m..row * m + m];
            for (kr, out_row) in piece.chunks_exact_mut(m).enumerate() {
                let av = a_row[k0 + kr];
                if av == 0.0 {
                    continue;
                }
                for (o, &bv) in out_row.iter_mut().zip(b_row) {
                    *o += av * bv;
                }
            }
        }
    });
}

/// `out ← A·Bᵀ` with `A: n×k`, `B: m×k`, `out: n×m`, without materializing
/// the transpose. Overwrites `out`; its previous contents are never read.
///
/// Each output element is still one dot product `0.0 + a₀b₀ + a₁b₁ + …`
/// in ascending `k` — splitting its accumulator would change the bits —
/// but a task computes a 4×8 tile of them at once: it packs 8 rows of
/// `B` into a `k × 8` panel of `Bᵀ` once per column block, then sweeps the
/// panel with tiles of independent running sums, one per output element,
/// so one step of `k` is a few vector multiplies and adds instead of one
/// scalar add waiting on the last.
/// The multiply and the add stay separate operations (no fused
/// multiply-add), exactly as in the reference loop. Tasks own disjoint
/// output rows; the panel lives in a per-thread scratch buffer, so a call
/// allocates nothing once a thread has seen its largest `k`.
///
/// # Panics
///
/// Panics if a slice length does not match its dimensions.
pub fn matmul_nt_into(
    pool: &WorkerPool,
    n: usize,
    k: usize,
    m: usize,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
) {
    if k <= THIN_MAX {
        return reconstruct(pool, n, m, k, a, b, out);
    }
    assert_eq!(a.len(), n * k, "matmul_nt lhs length mismatch");
    assert_eq!(b.len(), m * k, "matmul_nt rhs length mismatch");
    assert_eq!(out.len(), n * m, "matmul_nt out length mismatch");
    if n == 0 || m == 0 {
        return;
    }
    let tasks = tasks_for(pool, n * k * m);
    pool.for_each_unit_chunk_mut(out, m, tasks, |i0, piece| {
        let rows = piece.len() / m;
        with_scratch(k * NT_COLS, |panel| {
            matmul_nt_rows(k, m, &a[i0 * k..][..rows * k], b, panel, piece);
        });
    });
}

/// Whole rows of `A·Bᵀ`: per block of [`NT_COLS`] output columns, pack the
/// block's rows of `B` into `panel`, then sweep it with [`ROW_BLOCK`]-row
/// tiles (single rows for the remainder).
#[inline(never)]
fn matmul_nt_rows(
    k: usize,
    m: usize,
    a_rows: &[f32],
    b: &[f32],
    panel: &mut [f32],
    out_rows: &mut [f32],
) {
    let rows = out_rows.len() / m;
    for j0 in (0..m).step_by(NT_COLS) {
        let w = NT_COLS.min(m - j0);
        pack_nt_panel(&b[j0 * k..][..w * k], k, panel);
        let mut i = 0;
        while i < rows {
            let nb = if rows - i >= ROW_BLOCK { ROW_BLOCK } else { 1 };
            let out = &mut out_rows[i * m + j0..];
            if nb == ROW_BLOCK {
                let a: [&[f32]; ROW_BLOCK] = std::array::from_fn(|ri| &a_rows[(i + ri) * k..][..k]);
                matmul_nt_tile(a, panel, m, w, out);
            } else {
                matmul_nt_tile([&a_rows[i * k..][..k]], panel, m, w, out);
            }
            i += nb;
        }
    }
}

/// `panel[kk][jj] = b_rows[jj][kk]` for the `b_rows.len() / k` rows given;
/// the columns past them are zeroed (their sums are computed and dropped).
fn pack_nt_panel(b_rows: &[f32], k: usize, panel: &mut [f32]) {
    let (panel, _) = panel.as_chunks_mut::<NT_COLS>();
    let w = b_rows.len() / k;
    for (kk, dst) in panel.iter_mut().enumerate() {
        for (jj, d) in dst.iter_mut().enumerate() {
            *d = if jj < w { b_rows[jj * k + kk] } else { 0.0 };
        }
    }
}

/// The first `w` columns of an `NR × NT_COLS` tile of `A·Bᵀ`, written at
/// the head of `NR` rows of `out` (row stride `m`): one running sum per
/// element, `k` ascending, held in registers across the whole sweep.
#[inline(always)]
fn matmul_nt_tile<const NR: usize>(
    a: [&[f32]; NR],
    panel: &[f32],
    m: usize,
    w: usize,
    out: &mut [f32],
) {
    let (panel, _) = panel.as_chunks::<NT_COLS>();
    let a: [&[f32]; NR] = a.map(|row| &row[..panel.len()]);
    let mut acc = [[0.0f32; NT_COLS]; NR];
    for (kk, p) in panel.iter().enumerate() {
        for ri in 0..NR {
            let av = a[ri][kk];
            for (s, &pv) in acc[ri].iter_mut().zip(p) {
                *s += av * pv;
            }
        }
    }
    for (ri, acc) in acc.iter().enumerate() {
        out[ri * m..][..w].copy_from_slice(&acc[..w]);
    }
}

/// Project rows: `P ← C·Q` with gradient `C: n×m`, thin factor `Q: m×r`,
/// `P: n×r`. Overwrites `p`. Same element order as [`matmul_into`]
/// (`k` ascending, zero entries of `C` skipped) for any `r`; tasks own
/// disjoint rows of `P`.
///
/// # Panics
///
/// Panics if a slice length does not match its dimensions.
pub fn project_rows(
    pool: &WorkerPool,
    n: usize,
    m: usize,
    r: usize,
    c: &[f32],
    q: &[f32],
    p: &mut [f32],
) {
    project_rows_impl(Isa::detect(), pool, n, m, r, c, None, q, p, false);
}

/// Project rows with error feedback, in place: `E ← G + E`, `P ← E·Q`
/// and, when `residual` is set, `E ← E − P·Qᵀ` — each on the tile of
/// rows the previous one just left in cache, so the whole update reads
/// `G` once and reads and writes `E` once. Overwrites `p`. Bit-identical
/// to running the element-wise add, [`project_rows`] and
/// [`subtract_reconstruction`] one after another.
///
/// # Panics
///
/// Panics if a slice length does not match its dimensions.
#[allow(clippy::too_many_arguments)]
pub fn project_rows_corrected(
    pool: &WorkerPool,
    n: usize,
    m: usize,
    r: usize,
    grad: &[f32],
    error: &mut [f32],
    q: &[f32],
    p: &mut [f32],
    residual: bool,
) {
    assert_eq!(error.len(), n * m, "project_rows error length mismatch");
    project_rows_impl(
        Isa::detect(),
        pool,
        n,
        m,
        r,
        grad,
        Some(error),
        q,
        p,
        residual,
    );
}

/// Project columns: `Q ← Cᵀ·P` with gradient `C: n×m`, thin factor
/// `P: n×r`, `Q: m×r`, without materializing the transpose. Overwrites
/// `q`. Same element order as [`matmul_tn_into`] (rows ascending, zero
/// entries of `C` skipped) for any `r`; tasks own disjoint rows of `Q`,
/// i.e. disjoint column ranges of `C`.
///
/// # Panics
///
/// Panics if a slice length does not match its dimensions.
pub fn project_cols(
    pool: &WorkerPool,
    n: usize,
    m: usize,
    r: usize,
    c: &[f32],
    p: &[f32],
    q: &mut [f32],
) {
    project_cols_impl(Isa::detect(), pool, n, m, r, c, None, p, q);
}

/// Project columns with error feedback, in place: `E ← G + E` and
/// `Q ← Eᵀ·P` in one sweep. Overwrites `q`. Bit-identical to the
/// element-wise add followed by [`project_cols`].
///
/// # Panics
///
/// Panics if a slice length does not match its dimensions.
#[allow(clippy::too_many_arguments)]
pub fn project_cols_corrected(
    pool: &WorkerPool,
    n: usize,
    m: usize,
    r: usize,
    grad: &[f32],
    error: &mut [f32],
    p: &[f32],
    q: &mut [f32],
) {
    assert_eq!(error.len(), n * m, "project_cols error length mismatch");
    project_cols_impl(Isa::detect(), pool, n, m, r, grad, Some(error), p, q);
}

/// Reconstruct: `out ← P·Qᵀ` with thin factors `P: n×r`, `Q: m×r`,
/// `out: n×m`. Overwrites `out`. Each task transposes `Q` into its
/// scratch so a vector holds eight contiguous output columns; each
/// element is still `0.0 + p₀q₀ + p₁q₁ + …` in ascending order, as in
/// [`matmul_nt_into`]. Tasks own disjoint rows of `out`.
///
/// # Panics
///
/// Panics if a slice length does not match its dimensions.
pub fn reconstruct(
    pool: &WorkerPool,
    n: usize,
    m: usize,
    r: usize,
    p: &[f32],
    q: &[f32],
    out: &mut [f32],
) {
    reconstruct_impl(Isa::detect(), pool, n, m, r, p, q, out, false);
}

/// The error-feedback residual, in place: `E ← E − P·Qᵀ`, without
/// materializing the product. Bit-identical to [`reconstruct`] into a
/// temporary followed by an element-wise subtraction.
///
/// # Panics
///
/// Panics if a slice length does not match its dimensions.
pub fn subtract_reconstruction(
    pool: &WorkerPool,
    n: usize,
    m: usize,
    r: usize,
    p: &[f32],
    q: &[f32],
    error: &mut [f32],
) {
    reconstruct_impl(Isa::detect(), pool, n, m, r, p, q, error, true);
}

/// The instantiation of the lane kernels a thin-factor call runs. The
/// public entry points take [`Isa::detect`]; the tests also drive each
/// instantiation directly.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Isa {
    /// Plain Rust over `[f32; 8]` arrays, for any CPU.
    Portable,
    /// `__m256` registers, on an x86-64 CPU that has AVX2.
    #[cfg(target_arch = "x86_64")]
    Avx2(avx2::Avx2),
}

impl Isa {
    /// AVX2 where this CPU has it, the portable instantiation elsewhere.
    pub(crate) fn detect() -> Isa {
        Isa::avx2().unwrap_or(Isa::Portable)
    }

    /// The AVX2 instantiation, if this CPU runs it.
    #[cfg(target_arch = "x86_64")]
    pub(crate) fn avx2() -> Option<Isa> {
        avx2::Avx2::detect().map(Isa::Avx2)
    }

    /// The AVX2 instantiation, if this CPU runs it.
    #[cfg(not(target_arch = "x86_64"))]
    pub(crate) fn avx2() -> Option<Isa> {
        None
    }
}

/// Eight `f32` lanes of one instruction set: the operations the lane
/// kernels below are written in. Every operation is lane-wise IEEE
/// arithmetic, so each instantiation computes each lane exactly as the
/// scalar loop computes that element.
trait Lanes: Copy {
    /// Eight `f32` lanes.
    type V: Copy;
    /// Eight lane flags.
    type M: Copy;
    /// `+0.0` in every lane.
    fn zero(self) -> Self::V;
    /// `x` in every lane.
    fn splat(self, x: f32) -> Self::V;
    fn load(self, src: &[f32; LANES]) -> Self::V;
    fn store(self, v: Self::V, dst: &mut [f32; LANES]);
    fn add(self, a: Self::V, b: Self::V) -> Self::V;
    fn sub(self, a: Self::V, b: Self::V) -> Self::V;
    fn mul(self, a: Self::V, b: Self::V) -> Self::V;
    /// Flags the lanes of `c` that are not `±0.0` (NaN is not zero).
    fn nonzero(self, c: Self::V) -> Self::M;
    /// `v` in the flagged lanes, `+0.0` in the others.
    fn keep(self, mask: Self::M, v: Self::V) -> Self::V;
    /// The 8×8 transpose: lane `i` of output `j` is lane `j` of row `i`.
    fn transpose(self, rows: [Self::V; LANES]) -> [Self::V; LANES];
}

/// The instantiation for any CPU: what the compiler makes of `[f32; 8]`
/// on the target it builds for (two SSE registers on baseline x86-64).
#[derive(Clone, Copy, Debug)]
struct Portable;

impl Lanes for Portable {
    type V = [f32; LANES];
    type M = [bool; LANES];

    #[inline(always)]
    fn zero(self) -> Self::V {
        [0.0; LANES]
    }

    #[inline(always)]
    fn splat(self, x: f32) -> Self::V {
        [x; LANES]
    }

    #[inline(always)]
    fn load(self, src: &[f32; LANES]) -> Self::V {
        *src
    }

    #[inline(always)]
    fn store(self, v: Self::V, dst: &mut [f32; LANES]) {
        *dst = v;
    }

    #[inline(always)]
    fn add(self, mut a: Self::V, b: Self::V) -> Self::V {
        for (x, y) in a.iter_mut().zip(b) {
            *x += y;
        }
        a
    }

    #[inline(always)]
    fn sub(self, mut a: Self::V, b: Self::V) -> Self::V {
        for (x, y) in a.iter_mut().zip(b) {
            *x -= y;
        }
        a
    }

    #[inline(always)]
    fn mul(self, mut a: Self::V, b: Self::V) -> Self::V {
        for (x, y) in a.iter_mut().zip(b) {
            *x *= y;
        }
        a
    }

    #[inline(always)]
    fn nonzero(self, c: Self::V) -> Self::M {
        let mut mask = [false; LANES];
        for (f, x) in mask.iter_mut().zip(c) {
            *f = x != 0.0;
        }
        mask
    }

    #[inline(always)]
    fn keep(self, mask: Self::M, mut v: Self::V) -> Self::V {
        for (x, f) in v.iter_mut().zip(mask) {
            if !f {
                *x = 0.0;
            }
        }
        v
    }

    #[inline(always)]
    fn transpose(self, rows: [Self::V; LANES]) -> [Self::V; LANES] {
        let mut columns = [[0.0; LANES]; LANES];
        for (i, row) in rows.iter().enumerate() {
            for (column, &x) in columns.iter_mut().zip(row) {
                column[i] = x;
            }
        }
        columns
    }
}

/// The AVX2 instantiation: the same lane kernels over `__m256`, compiled
/// inside `#[target_feature(enable = "avx2")]` functions so every lane
/// operation is one instruction. Fused multiply-add stays disabled: the
/// multiply and the add of a term are two roundings, as in the scalar
/// loops.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use std::arch::x86_64::{
        __m256, _mm256_add_ps, _mm256_and_ps, _mm256_cmp_ps, _mm256_loadu_ps, _mm256_mul_ps,
        _mm256_permute2f128_ps, _mm256_set1_ps, _mm256_setzero_ps, _mm256_shuffle_ps,
        _mm256_storeu_ps, _mm256_sub_ps, _mm256_unpackhi_ps, _mm256_unpacklo_ps, _CMP_NEQ_UQ,
    };

    use super::{Lanes, RowsPart, SharedColumns, LANES};

    /// Proof that the running CPU has AVX2: only [`Avx2::detect`] makes
    /// one, so every method taking it may execute AVX2 instructions.
    #[derive(Clone, Copy, Debug)]
    pub(crate) struct Avx2(());

    impl Avx2 {
        pub(super) fn detect() -> Option<Avx2> {
            std::arch::is_x86_feature_detected!("avx2").then_some(Avx2(()))
        }
    }

    impl Lanes for Avx2 {
        type V = __m256;
        type M = __m256;

        #[inline(always)]
        fn zero(self) -> __m256 {
            // SAFETY: an `Avx2` token exists only on a CPU with AVX2.
            unsafe { _mm256_setzero_ps() }
        }

        #[inline(always)]
        fn splat(self, x: f32) -> __m256 {
            // SAFETY: an `Avx2` token exists only on a CPU with AVX2.
            unsafe { _mm256_set1_ps(x) }
        }

        #[inline(always)]
        fn load(self, src: &[f32; LANES]) -> __m256 {
            // SAFETY: an `Avx2` token exists only on a CPU with AVX2; the
            // pointer is `src`, eight initialized floats borrowed from a
            // bounds-checked slice of the caller's operand, and the
            // unaligned load needs no alignment beyond `f32`'s.
            unsafe { _mm256_loadu_ps(src.as_ptr()) }
        }

        #[inline(always)]
        fn store(self, v: __m256, dst: &mut [f32; LANES]) {
            // SAFETY: an `Avx2` token exists only on a CPU with AVX2; the
            // pointer is `dst`, eight floats exclusively borrowed from a
            // bounds-checked slice of the caller's output.
            unsafe { _mm256_storeu_ps(dst.as_mut_ptr(), v) }
        }

        #[inline(always)]
        fn add(self, a: __m256, b: __m256) -> __m256 {
            // SAFETY: an `Avx2` token exists only on a CPU with AVX2.
            unsafe { _mm256_add_ps(a, b) }
        }

        #[inline(always)]
        fn sub(self, a: __m256, b: __m256) -> __m256 {
            // SAFETY: an `Avx2` token exists only on a CPU with AVX2.
            unsafe { _mm256_sub_ps(a, b) }
        }

        #[inline(always)]
        fn mul(self, a: __m256, b: __m256) -> __m256 {
            // SAFETY: an `Avx2` token exists only on a CPU with AVX2.
            unsafe { _mm256_mul_ps(a, b) }
        }

        #[inline(always)]
        fn nonzero(self, c: __m256) -> __m256 {
            // `NEQ_UQ`: not equal, or unordered — a NaN lane is flagged,
            // as `NaN == 0.0` is false in the scalar skip.
            // SAFETY: an `Avx2` token exists only on a CPU with AVX2.
            unsafe { _mm256_cmp_ps::<_CMP_NEQ_UQ>(c, _mm256_setzero_ps()) }
        }

        #[inline(always)]
        fn keep(self, mask: __m256, v: __m256) -> __m256 {
            // SAFETY: an `Avx2` token exists only on a CPU with AVX2.
            unsafe { _mm256_and_ps(mask, v) }
        }

        #[inline(always)]
        fn transpose(self, rows: [__m256; LANES]) -> [__m256; LANES] {
            let [r0, r1, r2, r3, r4, r5, r6, r7] = rows;
            // SAFETY: an `Avx2` token exists only on a CPU with AVX2.
            unsafe {
                // Interleave row pairs, then pair quads, then swap the
                // 128-bit halves: the usual three-stage 8×8 transpose.
                let t0 = _mm256_unpacklo_ps(r0, r1);
                let t1 = _mm256_unpackhi_ps(r0, r1);
                let t2 = _mm256_unpacklo_ps(r2, r3);
                let t3 = _mm256_unpackhi_ps(r2, r3);
                let t4 = _mm256_unpacklo_ps(r4, r5);
                let t5 = _mm256_unpackhi_ps(r4, r5);
                let t6 = _mm256_unpacklo_ps(r6, r7);
                let t7 = _mm256_unpackhi_ps(r6, r7);
                let s0 = _mm256_shuffle_ps::<0x44>(t0, t2);
                let s1 = _mm256_shuffle_ps::<0xEE>(t0, t2);
                let s2 = _mm256_shuffle_ps::<0x44>(t1, t3);
                let s3 = _mm256_shuffle_ps::<0xEE>(t1, t3);
                let s4 = _mm256_shuffle_ps::<0x44>(t4, t6);
                let s5 = _mm256_shuffle_ps::<0xEE>(t4, t6);
                let s6 = _mm256_shuffle_ps::<0x44>(t5, t7);
                let s7 = _mm256_shuffle_ps::<0xEE>(t5, t7);
                [
                    _mm256_permute2f128_ps::<0x20>(s0, s4),
                    _mm256_permute2f128_ps::<0x20>(s1, s5),
                    _mm256_permute2f128_ps::<0x20>(s2, s6),
                    _mm256_permute2f128_ps::<0x20>(s3, s7),
                    _mm256_permute2f128_ps::<0x31>(s0, s4),
                    _mm256_permute2f128_ps::<0x31>(s1, s5),
                    _mm256_permute2f128_ps::<0x31>(s2, s6),
                    _mm256_permute2f128_ps::<0x31>(s3, s7),
                ]
            }
        }
    }

    /// [`super::rows_task`] compiled for AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) fn rows_task(
        l: Avx2,
        part: RowsPart<'_>,
        m: usize,
        r: usize,
        q: &[f32],
        panel: Option<&[[f32; LANES]]>,
    ) {
        super::rows_task(l, part, m, r, q, panel);
    }

    /// [`super::cols_task`] compiled for AVX2.
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    pub(super) fn cols_task(
        l: Avx2,
        k0: usize,
        q: &mut [f32],
        r: usize,
        m: usize,
        grad: &[f32],
        error: Option<&SharedColumns<'_>>,
        p: &[f32],
        acc: &mut [[f32; LANES]],
    ) {
        super::cols_task(l, k0, q, r, m, grad, error, p, acc);
    }

    /// [`super::reconstruct_rows`] compiled for AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) fn reconstruct_rows(
        l: Avx2,
        r: usize,
        m: usize,
        p_rows: &[f32],
        panel: &[[f32; LANES]],
        out_rows: &mut [f32],
        subtract: bool,
    ) {
        super::reconstruct_rows(l, r, m, p_rows, panel, out_rows, subtract);
    }
}

/// The first `src.len()` (at most [`LANES`]) lanes loaded from `src`, the
/// rest `+0.0`.
#[inline(always)]
fn load_part<L: Lanes>(l: L, src: &[f32]) -> L::V {
    match <&[f32; LANES]>::try_from(src) {
        Ok(full) => l.load(full),
        Err(_) => {
            let mut buf = [0.0; LANES];
            buf[..src.len()].copy_from_slice(src);
            l.load(&buf)
        }
    }
}

/// The first `dst.len()` (at most [`LANES`]) lanes of `v`, stored to `dst`.
#[inline(always)]
fn store_part<L: Lanes>(l: L, v: L::V, dst: &mut [f32]) {
    match <&mut [f32; LANES]>::try_from(&mut *dst) {
        Ok(full) => l.store(v, full),
        Err(_) => {
            let mut buf = [0.0; LANES];
            l.store(v, &mut buf);
            let len = dst.len();
            dst.copy_from_slice(&buf[..len]);
        }
    }
}

/// `r` itself when `R` is 0, else the compile-time width `R`. The column
/// kernels are instantiated for the factor widths 1, 2, 4 and 8, so their
/// loops over `r` unroll and their indices fold, and once for any other
/// width.
#[inline(always)]
fn width<const R: usize>(r: usize) -> usize {
    if R == 0 {
        r
    } else {
        R
    }
}

/// Widths of the accumulator panels a factor of width `r` is cut into,
/// widest first, as `(first column, width)`. A factor of width 1, 2, 4 or
/// 8 is one panel; any other width re-walks the cached row tile once per
/// panel.
fn panels(r: usize) -> impl Iterator<Item = (usize, usize)> {
    let mut j0 = 0;
    std::iter::from_fn(move || {
        let w = match r - j0 {
            0 => return None,
            1 => 1,
            2..=3 => 2,
            4..=7 => 4,
            _ => 8,
        };
        j0 += w;
        Some((j0 - w, w))
    })
}

/// Scratch elements of a packed `Qᵀ` (or of transposed accumulators) for
/// `m` rows of a width-`r` factor: `r` vectors per block of eight rows.
fn packed_len(m: usize, r: usize) -> usize {
    m.div_ceil(LANES) * r * LANES
}

/// Packs the `m×r` factor `q` (`r > 0`) as `Qᵀ` cut into vectors: for
/// each block of eight rows `8v..8v + 8`, `r` adjacent vectors whose lane
/// `i` is `Q[8v + i][t]`, zero past row `m`.
fn pack_factor(q: &[f32], m: usize, r: usize, panel: &mut [[f32; LANES]]) {
    for (v, block) in panel.chunks_exact_mut(r).enumerate() {
        for (t, lanes) in block.iter_mut().enumerate() {
            for (i, x) in lanes.iter_mut().enumerate() {
                let k = v * LANES + i;
                *x = if k < m { q[k * r + t] } else { 0.0 };
            }
        }
    }
}

/// One task's share of a row projection: whole rows of `G`, `E` and `P`.
struct RowsPart<'a> {
    grad: &'a [f32],
    error: Option<&'a mut [f32]>,
    p: &'a mut [f32],
}

#[inline(never)]
#[allow(clippy::too_many_arguments)]
fn project_rows_impl(
    isa: Isa,
    pool: &WorkerPool,
    n: usize,
    m: usize,
    r: usize,
    grad: &[f32],
    error: Option<&mut [f32]>,
    q: &[f32],
    p: &mut [f32],
    residual: bool,
) {
    assert_eq!(grad.len(), n * m, "project_rows gradient length mismatch");
    assert_eq!(q.len(), m * r, "project_rows factor length mismatch");
    assert_eq!(p.len(), n * r, "project_rows out length mismatch");
    if p.is_empty() {
        return;
    }
    if m == 0 {
        return p.fill(0.0);
    }
    let residual = residual && error.is_some();
    let rows_per_task = n.div_ceil(tasks_for(pool, n * m * r));
    let mut error_blocks = error.map(|e| e.chunks_mut(rows_per_task * m));
    let parts = grad
        .chunks(rows_per_task * m)
        .zip(p.chunks_mut(rows_per_task * r))
        .map(|(grad, p)| RowsPart {
            grad,
            error: error_blocks.as_mut().and_then(Iterator::next),
            p,
        })
        .collect();
    let packed = if residual { packed_len(m, r) } else { 0 };
    pool.run_parts(parts, |part| {
        with_scratch(packed, |scratch| {
            let (panel, _) = scratch.as_chunks_mut::<LANES>();
            let panel = residual.then(|| {
                pack_factor(q, m, r, panel);
                &*panel
            });
            match isa {
                Isa::Portable => rows_task(Portable, part, m, r, q, panel),
                #[cfg(target_arch = "x86_64")]
                // SAFETY: the `Avx2` token proves this CPU has AVX2.
                Isa::Avx2(l) => unsafe { avx2::rows_task(l, part, m, r, q, panel) },
            }
        });
    });
}

/// Rows of `P` in tiles of eight gradient rows; under error feedback each
/// tile's sweep also leaves `E ← G + E`, and with `panel` (the packed
/// factor) the tile ends with `E ← E − P·Qᵀ`.
#[inline(always)]
fn rows_task<L: Lanes>(
    l: L,
    part: RowsPart<'_>,
    m: usize,
    r: usize,
    q: &[f32],
    panel: Option<&[[f32; LANES]]>,
) {
    let RowsPart { grad, mut error, p } = part;
    let rows = p.len() / r;
    for i in (0..rows).step_by(LANES) {
        let live = LANES.min(rows - i);
        let p_tile = &mut p[i * r..(i + live) * r];
        let g_tile = &grad[i * m..(i + live) * m];
        match error.as_deref_mut() {
            Some(error) => {
                let e_tile = &mut error[i * m..(i + live) * m];
                project_rows_tile(l, g_tile, Some(&mut *e_tile), m, q, r, p_tile);
                if let Some(panel) = panel {
                    reconstruct_rows(l, r, m, p_tile, panel, e_tile, true);
                }
            }
            None => project_rows_tile(l, g_tile, None, m, q, r, p_tile),
        }
    }
}

/// The `P` rows of one tile of at most eight gradient rows `g` (row
/// length `m`) — with `e`, of `E ← G + E`, computed and stored by the
/// first panel's sweep and re-read by the others.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn project_rows_tile<L: Lanes>(
    l: L,
    g: &[f32],
    mut e: Option<&mut [f32]>,
    m: usize,
    q: &[f32],
    r: usize,
    p: &mut [f32],
) {
    for (j0, w) in panels(r) {
        let (src, update) = match e.as_deref_mut() {
            Some(e) if j0 == 0 => (g, Some(e)),
            Some(e) => (&*e, None),
            None => (g, None),
        };
        match w {
            8 => project_rows_panel::<L, 8>(l, src, update, m, q, r, j0, p),
            4 => project_rows_panel::<L, 4>(l, src, update, m, q, r, j0, p),
            2 => project_rows_panel::<L, 2>(l, src, update, m, q, r, j0, p),
            _ => project_rows_panel::<L, 1>(l, src, update, m, q, r, j0, p),
        }
    }
}

/// Columns `j0..j0 + W` of `P` for a tile of gradient rows: `W`
/// accumulators, lane `i` holding row `i`'s sums (lanes past the tile's
/// rows repeat its last row and are dropped). Each block of eight `k` is
/// transposed in registers, so that `columns[kk]` holds element `k0 + kk`
/// of every row; a term `C[i][k]·Q[k][j]` is added where `C[i][k]` is
/// nonzero and `+0.0` where it is zero — the identity on a sum that
/// started at `+0.0`, so every lane matches the scalar loop that skips
/// the term. With `update`, the rows are `update + src`, stored back to
/// `update` as they are read.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn project_rows_panel<L: Lanes, const W: usize>(
    l: L,
    src: &[f32],
    mut update: Option<&mut [f32]>,
    m: usize,
    q: &[f32],
    r: usize,
    j0: usize,
    p: &mut [f32],
) {
    let live = p.len() / r;
    let mut acc = [l.zero(); W];
    let full = m - m % LANES;
    for k0 in (0..full).step_by(LANES) {
        project_rows_step(
            l,
            src,
            update.as_deref_mut(),
            m,
            live,
            k0,
            LANES,
            q,
            r,
            j0,
            &mut acc,
        );
    }
    if full < m {
        project_rows_step(l, src, update, m, live, full, m - full, q, r, j0, &mut acc);
    }
    for (j, &a) in acc.iter().enumerate() {
        let mut lanes = [0.0; LANES];
        l.store(a, &mut lanes);
        for (i, &x) in lanes[..live].iter().enumerate() {
            p[i * r + j0 + j] = x;
        }
    }
}

/// One step of [`project_rows_panel`]: the `kw ≤ 8` terms `k0..k0 + kw`
/// of every lane (`kw` is [`LANES`] on every step but a last partial one).
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn project_rows_step<L: Lanes, const W: usize>(
    l: L,
    src: &[f32],
    mut update: Option<&mut [f32]>,
    m: usize,
    live: usize,
    k0: usize,
    kw: usize,
    q: &[f32],
    r: usize,
    j0: usize,
    acc: &mut [L::V; W],
) {
    let mut block = [l.zero(); LANES];
    for (i, v) in block.iter_mut().enumerate() {
        let at = i.min(live - 1) * m + k0;
        *v = match update.as_deref_mut() {
            Some(e) if i < live => {
                let e = &mut e[at..at + kw];
                let sum = l.add(load_part(l, e), load_part(l, &src[at..at + kw]));
                store_part(l, sum, e);
                sum
            }
            Some(e) => load_part(l, &e[at..at + kw]),
            None => load_part(l, &src[at..at + kw]),
        };
    }
    let columns = l.transpose(block);
    let q_rows = &q[k0 * r..(k0 + kw) * r];
    for (&column, q_row) in columns[..kw].iter().zip(q_rows.chunks_exact(r)) {
        let nonzero = l.nonzero(column);
        for (a, &qv) in acc.iter_mut().zip(&q_row[j0..j0 + W]) {
            *a = l.add(*a, l.keep(nonzero, l.mul(column, l.splat(qv))));
        }
    }
}

/// The error matrix `E` (`n×m`, row-major) of a column projection, shared
/// by tasks that each read and write only their own column range of
/// every row.
struct SharedColumns<'a> {
    ptr: *mut f32,
    n: usize,
    m: usize,
    _error: std::marker::PhantomData<&'a mut [f32]>,
}

// SAFETY: the pointer stands for `&'a mut [f32]`, which is `Send` and
// `Sync`; tasks on other threads reach it only through `columns`, whose
// callers own disjoint column ranges.
unsafe impl Send for SharedColumns<'_> {}
// SAFETY: as for `Send`.
unsafe impl Sync for SharedColumns<'_> {}

impl<'a> SharedColumns<'a> {
    fn new(error: &'a mut [f32], n: usize, m: usize) -> Self {
        assert_eq!(error.len(), n * m, "shared error length mismatch");
        SharedColumns {
            ptr: error.as_mut_ptr(),
            n,
            m,
            _error: std::marker::PhantomData,
        }
    }

    /// Columns `k0..k0 + kw` of row `i`.
    ///
    /// # Safety
    ///
    /// No other reference to those elements may be live while the
    /// returned slice is: among the tasks of one call, only the owner of
    /// the column range asks for it, once per row.
    #[allow(clippy::mut_from_ref)]
    unsafe fn columns(&self, i: usize, k0: usize, kw: usize) -> &mut [f32] {
        assert!(i < self.n && k0 + kw <= self.m, "column run out of range");
        // SAFETY: `ptr` is the start of the `error` slice `new` borrowed
        // for `'a` and checked to hold `n·m` elements; the assert keeps
        // the run `i·m + k0 .. i·m + k0 + kw` inside it, and the caller
        // guarantees no other live reference overlaps it.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(i * self.m + k0), kw) }
    }
}

#[inline(never)]
#[allow(clippy::too_many_arguments)]
fn project_cols_impl(
    isa: Isa,
    pool: &WorkerPool,
    n: usize,
    m: usize,
    r: usize,
    grad: &[f32],
    error: Option<&mut [f32]>,
    p: &[f32],
    q: &mut [f32],
) {
    assert_eq!(grad.len(), n * m, "project_cols gradient length mismatch");
    assert_eq!(p.len(), n * r, "project_cols factor length mismatch");
    assert_eq!(q.len(), m * r, "project_cols out length mismatch");
    if q.is_empty() {
        return;
    }
    let error = error.map(|e| SharedColumns::new(e, n, m));
    let error = error.as_ref();
    let tasks = tasks_for(pool, n * m * r);
    // `Q` rows are `C` columns: each task owns a column range of `C`/`E`.
    pool.for_each_unit_chunk_mut(q, r, tasks, |k0, q| {
        with_scratch(packed_len(q.len() / r, r), |scratch| {
            let (acc, _) = scratch.as_chunks_mut::<LANES>();
            match isa {
                Isa::Portable => cols_task(Portable, k0, q, r, m, grad, error, p, acc),
                #[cfg(target_arch = "x86_64")]
                // SAFETY: the `Avx2` token proves this CPU has AVX2.
                Isa::Avx2(l) => unsafe { avx2::cols_task(l, k0, q, r, m, grad, error, p, acc) },
            }
        });
    });
}

/// Rows `k0..` of `Q` (`q`, rows of `r`) for gradient rows of length `m`.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn cols_task<L: Lanes>(
    l: L,
    k0: usize,
    q: &mut [f32],
    r: usize,
    m: usize,
    grad: &[f32],
    error: Option<&SharedColumns<'_>>,
    p: &[f32],
    acc: &mut [[f32; LANES]],
) {
    match r {
        1 => cols_task_at::<L, 1>(l, k0, q, r, m, grad, error, p, acc),
        2 => cols_task_at::<L, 2>(l, k0, q, r, m, grad, error, p, acc),
        4 => cols_task_at::<L, 4>(l, k0, q, r, m, grad, error, p, acc),
        8 => cols_task_at::<L, 8>(l, k0, q, r, m, grad, error, p, acc),
        _ => cols_task_at::<L, 0>(l, k0, q, r, m, grad, error, p, acc),
    }
}

/// [`cols_task`] at width [`width::<R>`]: sums into `acc` — transposed
/// accumulators, `r` vectors of eight contiguous columns per block of
/// eight rows of `Q` — over row blocks of `C` in ascending order, then
/// writes them to `q`. Under error feedback the task's columns of `E`
/// take `E ← G + E` on the way.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn cols_task_at<L: Lanes, const R: usize>(
    l: L,
    k0: usize,
    q: &mut [f32],
    r: usize,
    m: usize,
    grad: &[f32],
    error: Option<&SharedColumns<'_>>,
    p: &[f32],
    acc: &mut [[f32; LANES]],
) {
    let r = width::<R>(r);
    let kw = q.len() / r;
    let n = p.len() / r;
    acc.fill([0.0; LANES]);
    let mut i = 0;
    while i < n {
        if n - i >= ROW_BLOCK {
            cols_rows::<L, ROW_BLOCK, R>(l, i, k0, kw, r, m, grad, error, p, acc);
            i += ROW_BLOCK;
        } else {
            cols_rows::<L, 1, R>(l, i, k0, kw, r, m, grad, error, p, acc);
            i += 1;
        }
    }
    for (block, q_rows) in acc.chunks_exact(r).zip(q.chunks_mut(LANES * r)) {
        for (i, q_row) in q_rows.chunks_exact_mut(r).enumerate() {
            for (x, a) in q_row.iter_mut().zip(block) {
                *x = a[i];
            }
        }
    }
}

/// Adds the terms of gradient rows `i..i + NR`, columns `k0..k0 + kw` (of
/// `E ← G + E`, computed and stored on the way, under error feedback) to
/// the transposed accumulators, eight contiguous columns per vector. A
/// term whose gradient element is zero adds `+0.0`, as in
/// [`project_rows_panel`].
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn cols_rows<L: Lanes, const NR: usize, const R: usize>(
    l: L,
    i: usize,
    k0: usize,
    kw: usize,
    r: usize,
    m: usize,
    grad: &[f32],
    error: Option<&SharedColumns<'_>>,
    p: &[f32],
    acc: &mut [[f32; LANES]],
) {
    let r = width::<R>(r);
    let g = &grad[i * m + k0..(i + NR - 1) * m + k0 + kw];
    let mut e: Option<[&mut [f32]; NR]> = error.map(|e| {
        std::array::from_fn(|ri| {
            // SAFETY: this task owns columns `k0..k0 + kw` of every row
            // of `E` (tasks own disjoint rows of `Q`), and asks for each
            // of these `NR` distinct rows once.
            unsafe { e.columns(i + ri, k0, kw) }
        })
    });
    let p = &p[i * r..(i + NR) * r];
    let full = kw / LANES;
    let (main, tail) = acc.split_at_mut(full * r);
    for (v, block) in main.chunks_exact_mut(r).enumerate() {
        cols_step::<L, NR>(l, g, m, e.as_mut(), p, r, v * LANES, LANES, block);
    }
    if full * LANES < kw {
        let (j0, w) = (full * LANES, kw % LANES);
        cols_step::<L, NR>(l, g, m, e.as_mut(), p, r, j0, w, &mut tail[..r]);
    }
}

/// One step of [`cols_rows`]: columns `j0..j0 + w` (`w` is [`LANES`] on
/// every step but a last partial one) of `NR` rows of `g` (row stride
/// `m`) into their `r` accumulators.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn cols_step<L: Lanes, const NR: usize>(
    l: L,
    g: &[f32],
    m: usize,
    mut e: Option<&mut [&mut [f32]; NR]>,
    p: &[f32],
    r: usize,
    j0: usize,
    w: usize,
    block: &mut [[f32; LANES]],
) {
    let mut c = [l.zero(); NR];
    for (ri, c) in c.iter_mut().enumerate() {
        *c = load_part(l, &g[ri * m + j0..][..w]);
        if let Some(e) = e.as_deref_mut() {
            let e = &mut e[ri][j0..j0 + w];
            *c = l.add(load_part(l, e), *c);
            store_part(l, *c, e);
        }
    }
    let mut nonzero = [l.nonzero(l.zero()); NR];
    for (f, &c) in nonzero.iter_mut().zip(&c) {
        *f = l.nonzero(c);
    }
    for (t, a) in block.iter_mut().enumerate() {
        let mut s = l.load(a);
        for ri in 0..NR {
            s = l.add(s, l.keep(nonzero[ri], l.mul(c[ri], l.splat(p[ri * r + t]))));
        }
        l.store(s, a);
    }
}

#[inline(never)]
#[allow(clippy::too_many_arguments)]
fn reconstruct_impl(
    isa: Isa,
    pool: &WorkerPool,
    n: usize,
    m: usize,
    r: usize,
    p: &[f32],
    q: &[f32],
    out: &mut [f32],
    subtract: bool,
) {
    assert_eq!(p.len(), n * r, "reconstruct lhs length mismatch");
    assert_eq!(q.len(), m * r, "reconstruct rhs length mismatch");
    assert_eq!(out.len(), n * m, "reconstruct out length mismatch");
    if out.is_empty() {
        return;
    }
    if r == 0 {
        // Every sum is `+0.0`, and `x − (+0.0)` is `x` for every `x`.
        if !subtract {
            out.fill(0.0);
        }
        return;
    }
    let tasks = tasks_for(pool, n * m * r);
    pool.for_each_unit_chunk_mut(out, m, tasks, |i0, piece| {
        let p_rows = &p[i0 * r..][..piece.len() / m * r];
        with_scratch(packed_len(m, r), |scratch| {
            let (panel, _) = scratch.as_chunks_mut::<LANES>();
            pack_factor(q, m, r, panel);
            match isa {
                Isa::Portable => reconstruct_rows(Portable, r, m, p_rows, panel, piece, subtract),
                #[cfg(target_arch = "x86_64")]
                // SAFETY: the `Avx2` token proves this CPU has AVX2.
                Isa::Avx2(l) => unsafe {
                    avx2::reconstruct_rows(l, r, m, p_rows, panel, piece, subtract)
                },
            }
        });
    });
}

/// Whole rows of `P·Qᵀ` written to (or subtracted from) `out_rows` (row
/// length `m`), from the rows of `p_rows` and the packed factor `panel`.
#[inline(always)]
fn reconstruct_rows<L: Lanes>(
    l: L,
    r: usize,
    m: usize,
    p_rows: &[f32],
    panel: &[[f32; LANES]],
    out_rows: &mut [f32],
    subtract: bool,
) {
    match r {
        1 => reconstruct_rows_at::<L, 1>(l, r, m, p_rows, panel, out_rows, subtract),
        2 => reconstruct_rows_at::<L, 2>(l, r, m, p_rows, panel, out_rows, subtract),
        4 => reconstruct_rows_at::<L, 4>(l, r, m, p_rows, panel, out_rows, subtract),
        8 => reconstruct_rows_at::<L, 8>(l, r, m, p_rows, panel, out_rows, subtract),
        _ => reconstruct_rows_at::<L, 0>(l, r, m, p_rows, panel, out_rows, subtract),
    }
}

/// [`reconstruct_rows`] at width [`width::<R>`], in tiles of eight rows
/// so that each vector of `panel` serves eight of them.
#[inline(always)]
fn reconstruct_rows_at<L: Lanes, const R: usize>(
    l: L,
    r: usize,
    m: usize,
    p_rows: &[f32],
    panel: &[[f32; LANES]],
    out_rows: &mut [f32],
    subtract: bool,
) {
    let r = width::<R>(r);
    let rows = out_rows.len() / m;
    let mut i = 0;
    while i < rows {
        let nb = if rows - i >= LANES { LANES } else { 1 };
        let p = &p_rows[i * r..(i + nb) * r];
        let out = &mut out_rows[i * m..(i + nb) * m];
        if nb == LANES {
            reconstruct_tile::<L, LANES, R>(l, r, m, p, panel, out, subtract);
        } else {
            reconstruct_tile::<L, 1, R>(l, r, m, p, panel, out, subtract);
        }
        i += nb;
    }
}

/// `NR` rows of `P·Qᵀ`, eight contiguous columns per vector: each lane is
/// one output element `0.0 + p₀q₀ + p₁q₁ + …`, stored, or subtracted from
/// what `out` holds.
#[inline(always)]
fn reconstruct_tile<L: Lanes, const NR: usize, const R: usize>(
    l: L,
    r: usize,
    m: usize,
    p: &[f32],
    panel: &[[f32; LANES]],
    out: &mut [f32],
    subtract: bool,
) {
    let r = width::<R>(r);
    let p = &p[..NR * r];
    let out = &mut out[..NR * m];
    let full = m / LANES;
    let (main, tail) = panel.split_at(full * r);
    for (v, q) in main.chunks_exact(r).enumerate() {
        reconstruct_step::<L, NR>(l, p, r, q, out, m, v * LANES, LANES, subtract);
    }
    if full * LANES < m {
        reconstruct_step::<L, NR>(
            l,
            p,
            r,
            &tail[..r],
            out,
            m,
            full * LANES,
            m % LANES,
            subtract,
        );
    }
}

/// One step of [`reconstruct_tile`]: columns `j0..j0 + w` (`w` is
/// [`LANES`] on every step but a last partial one) of every row, from the
/// `r` packed vectors `q` of those columns.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn reconstruct_step<L: Lanes, const NR: usize>(
    l: L,
    p: &[f32],
    r: usize,
    q: &[[f32; LANES]],
    out: &mut [f32],
    m: usize,
    j0: usize,
    w: usize,
    subtract: bool,
) {
    let mut acc = [l.zero(); NR];
    for (t, q) in q.iter().enumerate() {
        let q = l.load(q);
        for (ri, a) in acc.iter_mut().enumerate() {
            *a = l.add(*a, l.mul(l.splat(p[ri * r + t]), q));
        }
    }
    for (ri, a) in acc.into_iter().enumerate() {
        let o = &mut out[ri * m + j0..][..w];
        let x = if subtract {
            l.sub(load_part(l, o), a)
        } else {
            a
        };
        store_part(l, x, o);
    }
}

/// The naive scalar loops every kernel in this module is pinned against,
/// bit for bit. Kept as the oracle of the identity tests here and in
/// `acp-compression`; nothing on a hot path calls them.
pub mod reference {
    /// `A·B` with `A: n×k`, `B: k×m`: `k` ascending, zero entries of `A`
    /// skipped.
    pub fn matmul(n: usize, k: usize, m: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
        let mut out = vec![0.0f32; n * m];
        for i in 0..n {
            for kk in 0..k {
                let av = a[i * k + kk];
                if av == 0.0 {
                    continue;
                }
                for j in 0..m {
                    out[i * m + j] += av * b[kk * m + j];
                }
            }
        }
        out
    }

    /// `Aᵀ·B` with `A: n×k`, `B: n×m`: rows ascending, zero entries of `A`
    /// skipped.
    pub fn matmul_tn(n: usize, k: usize, m: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
        let mut out = vec![0.0f32; k * m];
        for row in 0..n {
            for kk in 0..k {
                let av = a[row * k + kk];
                if av == 0.0 {
                    continue;
                }
                for j in 0..m {
                    out[kk * m + j] += av * b[row * m + j];
                }
            }
        }
        out
    }

    /// `A·Bᵀ` with `A: n×k`, `B: m×k`: one sequential dot product per
    /// element, starting from `0.0`, nothing skipped.
    pub fn matmul_nt(n: usize, k: usize, m: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
        let mut out = vec![0.0f32; n * m];
        for i in 0..n {
            for j in 0..m {
                let mut acc = 0.0f32;
                for kk in 0..k {
                    acc += a[i * k + kk] * b[j * k + kk];
                }
                out[i * m + j] = acc;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fill(len: usize, seed: u32) -> Vec<f32> {
        // Deterministic, sign-varied data with zeros and a signed zero
        // sprinkled in so the zero-skip path is exercised.
        let mut state = seed;
        (0..len)
            .map(|i| {
                state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                match state % 7 {
                    0 => 0.0,
                    1 => -0.0,
                    _ => ((state >> 8) as f32 / (1 << 16) as f32) - 128.0 + i as f32 * 1e-3,
                }
            })
            .collect()
    }

    fn serial_matmul(n: usize, k: usize, m: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
        let mut out = vec![0.0f32; n * m];
        for i in 0..n {
            for kk in 0..k {
                let av = a[i * k + kk];
                if av == 0.0 {
                    continue;
                }
                for j in 0..m {
                    out[i * m + j] += av * b[kk * m + j];
                }
            }
        }
        out
    }

    #[test]
    fn matmul_matches_serial_bitwise_above_par_threshold() {
        // 64·64·64 = 262144 flops > PAR_THRESHOLD → parallel path.
        let (n, k, m) = (64, 64, 64);
        let a = fill(n * k, 1);
        let b = fill(k * m, 2);
        let expected = serial_matmul(n, k, m, &a, &b);
        let pool = WorkerPool::new(4);
        let mut out = vec![0.0f32; n * m];
        matmul_into(&pool, n, k, m, &a, &b, &mut out);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&out), bits(&expected));
    }

    #[test]
    fn matmul_tn_matches_transpose_then_matmul_bitwise() {
        let (n, k, m) = (48, 32, 40);
        let a = fill(n * k, 3);
        let b = fill(n * m, 4);
        // Reference: serial loop in the original operand order.
        let mut expected = vec![0.0f32; k * m];
        for row in 0..n {
            for kk in 0..k {
                let av = a[row * k + kk];
                if av == 0.0 {
                    continue;
                }
                for j in 0..m {
                    expected[kk * m + j] += av * b[row * m + j];
                }
            }
        }
        let pool = WorkerPool::new(3);
        let mut out = vec![0.0f32; k * m];
        matmul_tn_into(&pool, n, k, m, &a, &b, &mut out);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&out), bits(&expected));
    }

    #[test]
    fn matmul_nt_matches_serial_dot_bitwise() {
        let (n, k, m) = (40, 64, 33);
        let a = fill(n * k, 5);
        let b = fill(m * k, 6);
        let mut expected = vec![0.0f32; n * m];
        for i in 0..n {
            for j in 0..m {
                let mut acc = 0.0f32;
                for kk in 0..k {
                    acc += a[i * k + kk] * b[j * k + kk];
                }
                expected[i * m + j] = acc;
            }
        }
        let pool = WorkerPool::new(2);
        let mut out = vec![0.0f32; n * m];
        matmul_nt_into(&pool, n, k, m, &a, &b, &mut out);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&out), bits(&expected));
    }

    #[test]
    fn empty_dims_are_no_ops() {
        let pool = WorkerPool::new(1);
        let mut out: Vec<f32> = Vec::new();
        matmul_into(&pool, 0, 4, 0, &[], &[], &mut out);
        matmul_tn_into(&pool, 4, 0, 0, &fill(0, 7), &[], &mut out);
        matmul_nt_into(&pool, 0, 3, 0, &[], &[], &mut out);
        assert!(out.is_empty());
    }

    /// Bit patterns, with every NaN mapped to one: which operand's sign
    /// and payload an add of two NaNs returns is left open by IEEE 754 and
    /// unspecified in Rust, so only NaN-ness is part of the contract.
    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter()
            .map(|x| if x.is_nan() { f32::NAN } else { *x }.to_bits())
            .collect()
    }

    /// A thin factor salted with the values the zero-skip exists for: a
    /// skipped `0·inf` or `0·NaN` term must stay skipped.
    fn factor(len: usize, seed: u32) -> Vec<f32> {
        let mut v = fill(len, seed);
        for (i, x) in v.iter_mut().enumerate() {
            match (i as u32).wrapping_mul(2_654_435_761).wrapping_add(seed) % 23 {
                0 => *x = f32::INFINITY,
                1 => *x = f32::NEG_INFINITY,
                2 => *x = f32::NAN,
                _ => {}
            }
        }
        v
    }

    /// `G + E`, then `P = C·Q`, then `E = C − P·Qᵀ`, out of the reference
    /// loops: what one fused row projection must equal.
    fn reference_p_step(
        n: usize,
        m: usize,
        r: usize,
        g: &[f32],
        e: &[f32],
        q: &[f32],
    ) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
        let c: Vec<f32> = g.iter().zip(e).map(|(g, e)| g + e).collect();
        let p = reference::matmul(n, m, r, &c, q);
        let approx = reference::matmul_nt(n, r, m, &p, q);
        let residual = c.iter().zip(&approx).map(|(c, a)| c - a).collect();
        (c, p, residual)
    }

    /// The instantiations a thin-kernel check drives: `None` is the
    /// public entry points (dispatched at run time), then the portable
    /// body and, where this CPU has it, the AVX2 body.
    fn paths() -> Vec<Option<Isa>> {
        let mut paths = vec![None, Some(Isa::Portable)];
        match Isa::avx2() {
            Some(avx2) => paths.push(Some(avx2)),
            None => println!("no AVX2 on this CPU: skipped the AVX2 instantiation"),
        }
        paths
    }

    /// Every thin kernel against the reference loops on one shape, pool
    /// and path (see [`paths`]).
    fn check_thin_kernels(pool: &WorkerPool, n: usize, m: usize, r: usize, path: Option<Isa>) {
        let what = format!(
            "n={n} m={m} r={r} workers={} path={path:?}",
            pool.parallelism() - 1
        );
        let rows = |c: &[f32], e: Option<&mut [f32]>, q: &[f32], p: &mut [f32], residual| match (
            path, e,
        ) {
            (None, None) => project_rows(pool, n, m, r, c, q, p),
            (None, Some(e)) => project_rows_corrected(pool, n, m, r, c, e, q, p, residual),
            (Some(isa), e) => project_rows_impl(isa, pool, n, m, r, c, e, q, p, residual),
        };
        let cols = |c: &[f32], e: Option<&mut [f32]>, p: &[f32], q: &mut [f32]| match (path, e) {
            (None, None) => project_cols(pool, n, m, r, c, p, q),
            (None, Some(e)) => project_cols_corrected(pool, n, m, r, c, e, p, q),
            (Some(isa), e) => project_cols_impl(isa, pool, n, m, r, c, e, p, q),
        };
        let recon = |p: &[f32], q: &[f32], out: &mut [f32], subtract| match (path, subtract) {
            (None, false) => reconstruct(pool, n, m, r, p, q, out),
            (None, true) => subtract_reconstruction(pool, n, m, r, p, q, out),
            (Some(isa), _) => reconstruct_impl(isa, pool, n, m, r, p, q, out, subtract),
        };
        let g = fill(n * m, 11);
        let e0 = fill(n * m, 12);
        let q = factor(m * r, 13);
        let p = factor(n * r, 14);

        let mut p_out = vec![f32::NAN; n * r];
        rows(&g, None, &q, &mut p_out, false);
        assert_eq!(
            bits(&p_out),
            bits(&reference::matmul(n, m, r, &g, &q)),
            "project_rows {what}"
        );

        let mut q_out = vec![f32::NAN; m * r];
        cols(&g, None, &p, &mut q_out);
        assert_eq!(
            bits(&q_out),
            bits(&reference::matmul_tn(n, m, r, &g, &p)),
            "project_cols {what}"
        );

        let approx = reference::matmul_nt(n, r, m, &p, &q);
        let mut out = vec![f32::NAN; n * m];
        recon(&p, &q, &mut out, false);
        assert_eq!(bits(&out), bits(&approx), "reconstruct {what}");

        let mut e = e0.clone();
        recon(&p, &q, &mut e, true);
        let expected: Vec<f32> = e0.iter().zip(&approx).map(|(e, a)| e - a).collect();
        assert_eq!(bits(&e), bits(&expected), "subtract_reconstruction {what}");

        let (c, p_ref, residual) = reference_p_step(n, m, r, &g, &e0, &q);
        for with_residual in [false, true] {
            let mut e = e0.clone();
            let mut p_out = vec![f32::NAN; n * r];
            rows(&g, Some(&mut e), &q, &mut p_out, with_residual);
            assert_eq!(
                bits(&p_out),
                bits(&p_ref),
                "project_rows_corrected P {what}"
            );
            let expected = if with_residual { &residual } else { &c };
            assert_eq!(bits(&e), bits(expected), "project_rows_corrected E {what}");
        }

        let mut e = e0.clone();
        let mut q_out = vec![f32::NAN; m * r];
        cols(&g, Some(&mut e), &p, &mut q_out);
        assert_eq!(bits(&e), bits(&c), "project_cols_corrected E {what}");
        assert_eq!(
            bits(&q_out),
            bits(&reference::matmul_tn(n, m, r, &c, &p)),
            "project_cols_corrected Q {what}"
        );
    }

    #[test]
    fn thin_kernels_match_reference_bitwise_on_awkward_shapes() {
        // Rows below, at, above and not divisible by the 8-row tile and
        // ROW_BLOCK; columns below, at and past one 8-lane vector; every
        // panel decomposition up to 8+4+1; every path.
        let pool = WorkerPool::new(0);
        for path in paths() {
            for n in [1, 3, 4, 7, 8, 9, 17] {
                for m in [1, 2, 8, 9, 16, 37] {
                    for r in [1, 2, 3, 4, 5, 8, 13] {
                        check_thin_kernels(&pool, n, m, r, path);
                    }
                }
            }
        }
    }

    #[test]
    fn thin_kernels_match_reference_bitwise_above_par_threshold() {
        // 70·260·r ≥ PAR_THRESHOLD from r = 4: row and column splits that
        // do not divide evenly, on pools of 0–3 workers.
        for workers in 0..=3 {
            let pool = WorkerPool::new(workers);
            for path in paths() {
                for r in [1, 3, 4, 5, 8] {
                    check_thin_kernels(&pool, 70, 260, r, path);
                }
            }
        }
    }

    #[test]
    fn every_into_kernel_overwrites_a_poisoned_output() {
        type Kernel = fn(&WorkerPool, usize, usize, usize, &[f32], &[f32], &mut [f32]);
        // (kernel, lhs len, rhs len, out len) as functions of (n, k, m).
        type Lens = fn(usize, usize, usize) -> (usize, usize, usize);
        let kernels: [(&str, Kernel, Lens); 6] = [
            ("matmul_into", matmul_into, |n, k, m| (n * k, k * m, n * m)),
            ("matmul_tn_into", matmul_tn_into, |n, k, m| {
                (n * k, n * m, k * m)
            }),
            ("matmul_nt_into", matmul_nt_into, |n, k, m| {
                (n * k, m * k, n * m)
            }),
            ("project_rows", project_rows, |n, m, r| {
                (n * m, m * r, n * r)
            }),
            ("project_cols", project_cols, |n, m, r| {
                (n * m, n * r, m * r)
            }),
            ("reconstruct", reconstruct, |n, m, r| (n * r, m * r, n * m)),
        ];
        let pool = WorkerPool::new(2);
        // Thin and wide routes of the generic products, below and above
        // the parallel threshold.
        for (d0, d1, d2) in [
            (9, 7, 4),
            (9, 4, 7),
            (9, 12, 11),
            (48, 40, 44),
            (70, 260, 4),
        ] {
            for (name, kernel, lens) in kernels {
                let (a_len, b_len, out_len) = lens(d0, d1, d2);
                let a = fill(a_len, 21);
                let b = fill(b_len, 22);
                let mut clean = vec![0.0f32; out_len];
                kernel(&pool, d0, d1, d2, &a, &b, &mut clean);
                let mut poisoned = vec![f32::NAN; out_len];
                kernel(&pool, d0, d1, d2, &a, &b, &mut poisoned);
                assert_eq!(bits(&poisoned), bits(&clean), "{name} {d0}x{d1}x{d2}");
            }
        }
    }

    #[test]
    fn generic_products_route_thin_factors_bit_identically() {
        // Widths on both sides of THIN_MAX give the reference's bits.
        let pool = WorkerPool::new(1);
        let (n, k) = (13, 29);
        for m in [THIN_MAX - 1, THIN_MAX, THIN_MAX + 1] {
            let a = fill(n * k, 31);
            let b = factor(k * m, 32);
            let mut out = vec![f32::NAN; n * m];
            matmul_into(&pool, n, k, m, &a, &b, &mut out);
            assert_eq!(bits(&out), bits(&reference::matmul(n, k, m, &a, &b)));

            let b = factor(n * m, 33);
            let mut out = vec![f32::NAN; k * m];
            matmul_tn_into(&pool, n, k, m, &a, &b, &mut out);
            assert_eq!(bits(&out), bits(&reference::matmul_tn(n, k, m, &a, &b)));

            // Here the thin dimension is the shared one.
            let a = factor(n * m, 34);
            let b = factor(k * m, 35);
            let mut out = vec![f32::NAN; n * k];
            matmul_nt_into(&pool, n, m, k, &a, &b, &mut out);
            assert_eq!(bits(&out), bits(&reference::matmul_nt(n, m, k, &a, &b)));
        }
    }

    #[test]
    fn matmul_nt_matches_reference_bitwise_across_uneven_task_splits() {
        // 37·100·29 ≥ PAR_THRESHOLD: row splits that leave each task a
        // remainder below the 4-row tile, and a partial last panel.
        let (n, k, m) = (37, 100, 29);
        let a = factor(n * k, 41);
        let b = factor(m * k, 42);
        let expected = bits(&reference::matmul_nt(n, k, m, &a, &b));
        for workers in 0..=3 {
            let pool = WorkerPool::new(workers);
            let mut out = vec![f32::NAN; n * m];
            matmul_nt_into(&pool, n, k, m, &a, &b, &mut out);
            assert_eq!(bits(&out), expected, "workers={workers}");
        }
    }

    #[test]
    fn thin_kernels_accept_empty_dims() {
        let pool = WorkerPool::new(1);
        let mut p = vec![f32::NAN; 3 * 2];
        project_rows(&pool, 3, 0, 2, &[], &[], &mut p);
        assert_eq!(bits(&p), bits(&[0.0; 6]));
        let mut q = vec![f32::NAN; 4 * 2];
        project_cols(&pool, 0, 4, 2, &[], &[], &mut q);
        assert_eq!(bits(&q), bits(&[0.0; 8]));
        let mut out = vec![f32::NAN; 3 * 4];
        reconstruct(&pool, 3, 4, 0, &[], &[], &mut out);
        assert_eq!(bits(&out), bits(&[0.0; 12]));
        let mut none: Vec<f32> = Vec::new();
        project_rows(&pool, 0, 5, 2, &[], &fill(10, 1), &mut none);
        project_cols(&pool, 5, 0, 2, &[], &fill(10, 1), &mut none);
        reconstruct(&pool, 0, 4, 2, &[], &fill(8, 1), &mut none);
        assert!(none.is_empty());
    }
}
