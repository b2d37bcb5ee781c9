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
//!   factor only `r` columns wide. They keep the `r` running sums of an
//!   output row in registers, walk several gradient rows together so the
//!   add chains overlap, and fold the error-feedback updates into the same
//!   sweep, so a compression phase reads the gradient once.
//!
//! The `*_into` products hand a product to the thin kernels whenever the
//! factor is at most [`THIN_MAX`] wide; nothing else selects between the
//! families.
//!
//! Determinism contract: every output element is accumulated in exactly
//! the same floating-point order as the naive loops in [`mod@reference`] —
//! start from `0.0`, add the terms in ascending inner index, skip a term
//! whose gradient element is zero where the reference does. Blocking,
//! panels, register tiles and parallelism only decide *when* and *on which
//! thread* an element's chain runs, never the order of the adds that
//! produce it: a tile holds one accumulator per output element and
//! advances them all by one inner index per step, with the multiply and
//! the add kept separate (no fused multiply-add). The `*_matches_*` tests
//! below, the `A·Bᵀ` proptest in `tests/properties.rs` and the
//! byte-identity proptests in `acp-compression` pin this.

use crate::pool::{WorkerPool, PAR_THRESHOLD};

/// Widest factor the `*_into` products route to the thin kernels: the
/// widest panel whose running sums stay in registers next to
/// four interleaved rows.
pub const THIN_MAX: usize = 8;

/// Rows a thin projection, and an `A·Bᵀ` tile, walk together. One row is
/// a single add chain per output column, bound by add latency; interleaved
/// rows are independent chains. Fixed by the sweep recorded in DESIGN.md
/// §12.
const ROW_BLOCK: usize = 4;

/// Output columns [`reconstruct`] accumulates together (four SSE vectors).
const LANES: usize = 16;

/// Output columns one packed panel of [`matmul_nt_into`] covers: two SSE
/// vectors, so a [`ROW_BLOCK`]-row tile is eight vector accumulators.
const NT_COLS: usize = 8;

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
        NT_PANEL.with_borrow_mut(|panel| {
            if panel.len() < k * NT_COLS {
                panel.resize(k * NT_COLS, 0.0);
            }
            matmul_nt_rows(
                k,
                m,
                &a[i0 * k..][..rows * k],
                b,
                &mut panel[..k * NT_COLS],
                piece,
            );
        });
    });
}

thread_local! {
    /// The `k × NT_COLS` panel of `Bᵀ` [`matmul_nt_into`] packs: one per
    /// thread that runs the kernel, grown to the largest `k` it has seen
    /// and kept.
    static NT_PANEL: std::cell::RefCell<Vec<f32>> = const { std::cell::RefCell::new(Vec::new()) };
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
    project_rows_impl(pool, n, m, r, c, None, q, p, false);
}

/// Project rows with error feedback, in place: `E ← G + E`, `P ← E·Q`
/// and, when `residual` is set, `E ← E − P·Qᵀ` — each on the block of
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
    project_rows_impl(pool, n, m, r, grad, Some(error), q, p, residual);
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
    project_cols_impl(pool, n, m, r, c, None, p, q);
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
    project_cols_impl(pool, n, m, r, grad, Some(error), p, q);
}

/// Reconstruct: `out ← P·Qᵀ` with thin factors `P: n×r`, `Q: m×r`,
/// `out: n×m`. Overwrites `out`. Works over a transposed `r×m` copy of `Q`
/// so the inner loop runs across contiguous output columns; each element
/// is still `0.0 + p₀q₀ + p₁q₁ + …` in ascending order, as in
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
    reconstruct_impl(pool, n, m, r, p, q, out, false);
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
    reconstruct_impl(pool, n, m, r, p, q, error, true);
}

/// Widths of the register panels a factor of width `r` is cut into,
/// widest first, as `(first column, width)`. A factor of width 1, 2, 4 or
/// 8 is one panel; any other width re-walks the cached row block once per
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

/// `r×m` transpose of an `m×r` factor.
fn transposed(q: &[f32], m: usize, r: usize) -> Vec<f32> {
    let mut qt = vec![0.0f32; r * m];
    for t in 0..r {
        for (dst, src) in qt[t * m..][..m].iter_mut().zip(q[t..].iter().step_by(r)) {
            *dst = *src;
        }
    }
    qt
}

/// `E ← G + E` on one run of elements.
fn accumulate(grad: &[f32], error: &mut [f32]) {
    for (e, &g) in error.iter_mut().zip(grad) {
        *e += g;
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
    let qt = residual.then(|| transposed(q, m, r));
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
    pool.run_parts(parts, |part| {
        project_rows_task(part, m, r, q, qt.as_deref())
    });
}

#[inline(never)]
fn project_rows_task(part: RowsPart<'_>, m: usize, r: usize, q: &[f32], qt: Option<&[f32]>) {
    let RowsPart { grad, mut error, p } = part;
    let rows = p.len() / r;
    let mut i = 0;
    while i < rows {
        let nb = if rows - i >= ROW_BLOCK { ROW_BLOCK } else { 1 };
        let p_rows = &mut p[i * r..(i + nb) * r];
        let g_rows = &grad[i * m..(i + nb) * m];
        match error.as_deref_mut() {
            Some(error) => {
                let e_rows = &mut error[i * m..(i + nb) * m];
                accumulate(g_rows, e_rows);
                project_rows_block(nb, e_rows, m, q, r, p_rows);
                if let Some(qt) = qt {
                    reconstruct_rows(r, p_rows, qt, m, e_rows, true);
                }
            }
            None => project_rows_block(nb, g_rows, m, q, r, p_rows),
        }
        i += nb;
    }
}

/// `P` rows of `nb` (a full [`ROW_BLOCK`], or 1) gradient rows.
fn project_rows_block(nb: usize, c_rows: &[f32], m: usize, q: &[f32], r: usize, p: &mut [f32]) {
    if nb == ROW_BLOCK {
        let c: [&[f32]; ROW_BLOCK] = std::array::from_fn(|ri| &c_rows[ri * m..][..m]);
        project_rows_panels(c, q, r, p);
    } else {
        project_rows_panels([&c_rows[..m]], q, r, p);
    }
}

/// Every panel of `P` for `NR` gradient rows.
fn project_rows_panels<const NR: usize>(c: [&[f32]; NR], q: &[f32], r: usize, p: &mut [f32]) {
    for (j0, w) in panels(r) {
        match w {
            8 => project_rows_panel::<8, NR>(c, q, r, j0, p),
            4 => project_rows_panel::<4, NR>(c, q, r, j0, p),
            2 => project_rows_panel::<2, NR>(c, q, r, j0, p),
            _ => project_rows_panel::<1, NR>(c, q, r, j0, p),
        }
    }
}

/// Columns `j0..j0 + W` of `P` for `NR` gradient rows: `W` running sums
/// per row, held in registers across the whole `k` loop.
#[inline(always)]
fn project_rows_panel<const W: usize, const NR: usize>(
    c: [&[f32]; NR],
    q: &[f32],
    r: usize,
    j0: usize,
    p: &mut [f32],
) {
    let m = c[0].len();
    let c: [&[f32]; NR] = c.map(|row| &row[..m]);
    let mut acc = [[0.0f32; W]; NR];
    for k in 0..m {
        let qk = &q[k * r + j0..][..W];
        for ri in 0..NR {
            let cv = c[ri][k];
            if cv == 0.0 {
                continue;
            }
            for (a, &qv) in acc[ri].iter_mut().zip(qk) {
                *a += cv * qv;
            }
        }
    }
    for ri in 0..NR {
        p[ri * r + j0..][..W].copy_from_slice(&acc[ri]);
    }
}

/// One task's share of a column projection: rows `k0..` of `Q` and, under
/// error feedback, the matching column range of every row of `E`.
struct ColsPart<'a> {
    k0: usize,
    error_rows: Vec<&'a mut [f32]>,
    q: &'a mut [f32],
}

#[inline(never)]
#[allow(clippy::too_many_arguments)]
fn project_cols_impl(
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
    let cols_per_task = m.div_ceil(tasks_for(pool, n * m * r));
    let mut parts: Vec<ColsPart<'_>> = q
        .chunks_mut(cols_per_task * r)
        .enumerate()
        .map(|(t, q)| ColsPart {
            k0: t * cols_per_task,
            error_rows: Vec::new(),
            q,
        })
        .collect();
    let corrected = error.is_some();
    if let Some(error) = error {
        for part in &mut parts {
            part.error_rows.reserve_exact(n);
        }
        for mut row in error.chunks_exact_mut(m) {
            for part in &mut parts {
                let (head, tail) = std::mem::take(&mut row).split_at_mut(part.q.len() / r);
                part.error_rows.push(head);
                row = tail;
            }
        }
    }
    pool.run_parts(parts, |part| {
        project_cols_task(part, n, m, r, grad, corrected, p)
    });
}

#[inline(never)]
fn project_cols_task(
    part: ColsPart<'_>,
    n: usize,
    m: usize,
    r: usize,
    grad: &[f32],
    corrected: bool,
    p: &[f32],
) {
    let ColsPart {
        k0,
        mut error_rows,
        q,
    } = part;
    let kw = q.len() / r;
    q.fill(0.0);
    let mut i = 0;
    while i < n {
        let nb = if n - i >= ROW_BLOCK { ROW_BLOCK } else { 1 };
        if corrected {
            for (ri, e_row) in error_rows[i..i + nb].iter_mut().enumerate() {
                accumulate(&grad[(i + ri) * m + k0..][..kw], e_row);
            }
        }
        let row = |ri: usize| -> &[f32] {
            if corrected {
                &*error_rows[i + ri]
            } else {
                &grad[(i + ri) * m + k0..][..kw]
            }
        };
        let p_rows = &p[i * r..(i + nb) * r];
        if nb == ROW_BLOCK {
            project_cols_panels::<ROW_BLOCK>(std::array::from_fn(row), p_rows, r, q);
        } else {
            project_cols_panels([row(0)], p_rows, r, q);
        }
        i += nb;
    }
}

/// Every panel of `Q` updated with `NR` gradient rows.
fn project_cols_panels<const NR: usize>(c: [&[f32]; NR], p_rows: &[f32], r: usize, q: &mut [f32]) {
    for (j0, w) in panels(r) {
        match w {
            8 => project_cols_panel::<8, NR>(c, p_rows, r, j0, q),
            4 => project_cols_panel::<4, NR>(c, p_rows, r, j0, q),
            2 => project_cols_panel::<2, NR>(c, p_rows, r, j0, q),
            _ => project_cols_panel::<1, NR>(c, p_rows, r, j0, q),
        }
    }
}

/// Columns `j0..j0 + W` of `Q` updated with `NR` gradient rows, rows
/// ascending: a fixed-width rank-`NR` update of each row of `Q`.
#[inline(always)]
fn project_cols_panel<const W: usize, const NR: usize>(
    c: [&[f32]; NR],
    p_rows: &[f32],
    r: usize,
    j0: usize,
    q: &mut [f32],
) {
    let kw = c[0].len();
    let c: [&[f32]; NR] = c.map(|row| &row[..kw]);
    let mut pv = [[0.0f32; W]; NR];
    for (ri, pv) in pv.iter_mut().enumerate() {
        pv.copy_from_slice(&p_rows[ri * r + j0..][..W]);
    }
    for k in 0..kw {
        let qk = &mut q[k * r + j0..][..W];
        let mut acc = [0.0f32; W];
        acc.copy_from_slice(qk);
        for ri in 0..NR {
            let cv = c[ri][k];
            if cv == 0.0 {
                continue;
            }
            for (a, &pv) in acc.iter_mut().zip(&pv[ri]) {
                *a += cv * pv;
            }
        }
        qk.copy_from_slice(&acc);
    }
}

#[inline(never)]
#[allow(clippy::too_many_arguments)]
fn reconstruct_impl(
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
    let qt = transposed(q, m, r);
    let tasks = tasks_for(pool, n * m * r);
    pool.for_each_unit_chunk_mut(out, m, tasks, |i0, piece| {
        let rows = piece.len() / m;
        reconstruct_rows(r, &p[i0 * r..][..rows * r], &qt, m, piece, subtract);
    });
}

/// Whole rows of `P·Qᵀ` written to (or subtracted from) `out_rows`.
#[inline(never)]
fn reconstruct_rows(
    r: usize,
    p_rows: &[f32],
    qt: &[f32],
    m: usize,
    out_rows: &mut [f32],
    subtract: bool,
) {
    match r {
        1 => reconstruct_rows_at::<1>(r, p_rows, qt, m, out_rows, subtract),
        2 => reconstruct_rows_at::<2>(r, p_rows, qt, m, out_rows, subtract),
        4 => reconstruct_rows_at::<4>(r, p_rows, qt, m, out_rows, subtract),
        8 => reconstruct_rows_at::<8>(r, p_rows, qt, m, out_rows, subtract),
        _ => reconstruct_rows_at::<0>(r, p_rows, qt, m, out_rows, subtract),
    }
}

/// [`reconstruct_rows`] for a compile-time width `R`, or the runtime `r`
/// when `R == 0`.
#[inline(always)]
fn reconstruct_rows_at<const R: usize>(
    r: usize,
    p_rows: &[f32],
    qt: &[f32],
    m: usize,
    out_rows: &mut [f32],
    subtract: bool,
) {
    let r = if R == 0 { r } else { R };
    for (ri, out_row) in out_rows.chunks_exact_mut(m).enumerate() {
        let p_row = &p_rows[ri * r..][..r];
        let mut j0 = 0;
        let mut chunks = out_row.chunks_exact_mut(LANES);
        for chunk in &mut chunks {
            let mut acc = [0.0f32; LANES];
            for (t, &pv) in p_row.iter().enumerate() {
                for (a, &qv) in acc.iter_mut().zip(&qt[t * m + j0..][..LANES]) {
                    *a += pv * qv;
                }
            }
            store(chunk, &acc, subtract);
            j0 += LANES;
        }
        let tail = chunks.into_remainder();
        let mut acc = [0.0f32; LANES];
        let acc = &mut acc[..tail.len()];
        for (t, &pv) in p_row.iter().enumerate() {
            for (a, &qv) in acc.iter_mut().zip(&qt[t * m + j0..][..tail.len()]) {
                *a += pv * qv;
            }
        }
        store(tail, acc, subtract);
    }
}

#[inline(always)]
fn store(out: &mut [f32], acc: &[f32], subtract: bool) {
    if subtract {
        for (o, &a) in out.iter_mut().zip(acc) {
            *o -= a;
        }
    } else {
        out.copy_from_slice(acc);
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

    /// Every thin kernel against the reference loops on one shape and pool.
    fn check_thin_kernels(pool: &WorkerPool, n: usize, m: usize, r: usize) {
        let what = format!("n={n} m={m} r={r} workers={}", pool.parallelism() - 1);
        let g = fill(n * m, 11);
        let e0 = fill(n * m, 12);
        let q = factor(m * r, 13);
        let p = factor(n * r, 14);

        let mut p_out = vec![f32::NAN; n * r];
        project_rows(pool, n, m, r, &g, &q, &mut p_out);
        assert_eq!(
            bits(&p_out),
            bits(&reference::matmul(n, m, r, &g, &q)),
            "project_rows {what}"
        );

        let mut q_out = vec![f32::NAN; m * r];
        project_cols(pool, n, m, r, &g, &p, &mut q_out);
        assert_eq!(
            bits(&q_out),
            bits(&reference::matmul_tn(n, m, r, &g, &p)),
            "project_cols {what}"
        );

        let approx = reference::matmul_nt(n, r, m, &p, &q);
        let mut out = vec![f32::NAN; n * m];
        reconstruct(pool, n, m, r, &p, &q, &mut out);
        assert_eq!(bits(&out), bits(&approx), "reconstruct {what}");

        let mut e = e0.clone();
        subtract_reconstruction(pool, n, m, r, &p, &q, &mut e);
        let expected: Vec<f32> = e0.iter().zip(&approx).map(|(e, a)| e - a).collect();
        assert_eq!(bits(&e), bits(&expected), "subtract_reconstruction {what}");

        let (c, p_ref, residual) = reference_p_step(n, m, r, &g, &e0, &q);
        for with_residual in [false, true] {
            let mut e = e0.clone();
            let mut p_out = vec![f32::NAN; n * r];
            project_rows_corrected(pool, n, m, r, &g, &mut e, &q, &mut p_out, with_residual);
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
        project_cols_corrected(pool, n, m, r, &g, &mut e, &p, &mut q_out);
        assert_eq!(bits(&e), bits(&c), "project_cols_corrected E {what}");
        assert_eq!(
            bits(&q_out),
            bits(&reference::matmul_tn(n, m, r, &c, &p)),
            "project_cols_corrected Q {what}"
        );
    }

    #[test]
    fn thin_kernels_match_reference_bitwise_on_awkward_shapes() {
        // Rows below, at, above and not divisible by ROW_BLOCK; columns
        // below, at and past LANES; every panel decomposition up to 8+4+1.
        let pool = WorkerPool::new(0);
        for n in [1, 3, 4, 7, 9] {
            for m in [1, 2, 16, 37] {
                for r in [1, 2, 3, 4, 5, 8, 13] {
                    check_thin_kernels(&pool, n, m, r);
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
            for r in [1, 3, 4, 5, 8] {
                check_thin_kernels(&pool, 70, 260, r);
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
