//! Vectorizable, pool-parallel inner loops for the compressor hot paths.
//!
//! Three rules shape everything in this module:
//!
//! 1. **Branchless inner loops.** Sign packing, sign expansion and
//!    majority voting are rewritten as straight-line mask/select arithmetic
//!    so the compiler can autovectorize them (`std::simd` is not available on
//!    stable; hand-tiled loops over fixed-width blocks get the same codegen).
//! 2. **Bitwise identity.** Every kernel produces exactly the bytes of the
//!    retained scalar implementation in [`mod@reference`] — including for
//!    `-0.0`, infinities and NaN inputs where the scalar code had defined
//!    behaviour. Reductions that feed floating-point results (the mean of
//!    the gathered sign scales) stay strictly sequential. The
//!    `kernel_identity` proptests pin this across odd lengths and world
//!    sizes 2–8.
//! 3. **Fixed partitioning.** Pool parallelism only ever splits *disjoint
//!    output ranges* with a fixed boundary rule; no parallel folds exist, so
//!    overlapped execution is bitwise-identical to blocking execution.
//!
//! Top-k ordering uses the monotone bit trick: for any non-negative float
//! (and `|g|` is one, apart from NaN), the IEEE-754 bit pattern ordered as
//! an unsigned integer equals the numeric order, and NaN payloads sort
//! deterministically *above* infinity. [`abs_key`] is therefore a total
//! order on magnitudes — the fix for the NaN-unsafe `partial_cmp`
//! comparators that could make ranks disagree on selected indices.

use acp_tensor::pool::{chunks_for, global_for};

/// Total-order sort key for `|g|`: strips the sign bit and compares the
/// remaining bits as an integer. Equal to `f32::total_cmp` on `g.abs()`,
/// with NaNs ordered deterministically above every finite value and `±0.0`
/// mapping to the same key.
#[inline]
pub fn abs_key(g: f32) -> u32 {
    g.to_bits() & 0x7fff_ffff
}

/// Indices of the `k` largest-magnitude elements, ascending.
///
/// Magnitudes are compared through [`abs_key`], so selection is a total
/// order and NaN elements rank above everything instead of poisoning the
/// comparator. The result is exactly the scalar reference's, tie
/// boundaries included.
///
/// This is the selection that knows nothing of the bucket beforehand. A
/// deterministic sample (every 67th element) gives a lower bound on the
/// k-th largest key, one sweep collects every element at or above it, and
/// [`select_among`] picks from those few candidates. The whole-bucket
/// introselect runs instead when the data make the bound useless — fewer
/// than `k` candidates, or more than `128·k + 2144` — or when the k-th
/// key is tied across the boundary. A caller that selects from the same
/// bucket step after step has no need of the sweep: it carries a bound
/// over ([`next_bound`]) and collects the candidates while it writes the
/// bucket ([`correct_collecting`]).
pub fn select_topk(grad: &[f32], k: usize) -> Vec<u32> {
    let k = k.min(grad.len());
    if k == 0 {
        return Vec::new();
    }
    SCRATCH
        .with_borrow_mut(|scratch| select_bounded(grad, k, scratch))
        .unwrap_or_else(|| select_by_partition(grad, k))
}

/// Stride of the sample that bounds the k-th largest key from below. A
/// prime, so the sample walks every column of a power-of-two-wide weight
/// matrix. Every 64th element of the MLP's 32-wide first layer is in one
/// input's column, and on some seeds that column's gradients are so small
/// that about 46 % of the bucket reaches the bound, past the cap.
const SAMPLE_STRIDE: usize = 67;

/// Ranks added past the sample's own estimate of the k-th key, so that a
/// sample sitting a little high still leaves `k` candidates.
const SAMPLE_SLACK: usize = 16;

/// Candidates per selected element that [`candidate_cap`] allows.
const MAX_CANDIDATES_PER_K: usize = 128;

/// Candidates per selected element that [`Candidates`] holds before it
/// raises its bound; half of them, the most a raise keeps, is still `4k`.
const COLLECTED_PER_K: usize = 8;

/// Elements per chunk of [`correct_collecting`]'s bound test.
const CHUNK: usize = 16;

/// Candidates past which the bounded path gives up: the bound sits in a
/// crowd of tied or packed magnitudes, and sweeping on would cost more
/// than the introselect it is meant to replace. The sample rank puts about
/// `3k + SAMPLE_SLACK × SAMPLE_STRIDE` elements above the bound, so the
/// cap is a multiple of `k` plus twice that fixed slack: an ordinary
/// gradient stays inside it for every `k`, 1 included.
fn candidate_cap(k: usize) -> usize {
    MAX_CANDIDATES_PER_K
        .saturating_mul(k)
        .saturating_add(2 * SAMPLE_SLACK * SAMPLE_STRIDE)
}

/// Per-thread buffers of the selections, kept at the size of the largest
/// sample and candidate set selected so far.
#[derive(Debug, Default)]
struct BoundScratch {
    /// The sampled keys, then the candidates' keys.
    keys: Vec<u32>,
    /// `(index, key)` of every element at or above the bound, in index
    /// order.
    cand: Vec<(u32, u32)>,
}

/// The lower bound: the `(3·⌈k·s/n⌉ + SAMPLE_SLACK)`-th largest of the
/// `s` sampled keys (the smallest of them when the sample is shorter).
fn lower_bound(grad: &[f32], k: usize, keys: &mut Vec<u32>) -> u32 {
    keys.clear();
    keys.extend(grad.iter().step_by(SAMPLE_STRIDE).map(|&g| abs_key(g)));
    let s = keys.len();
    let rank = (3 * (k * s).div_ceil(grad.len()) + SAMPLE_SLACK).min(s);
    *keys.select_nth_unstable(s - rank).1
}

/// The selection through a sampled lower bound, or `None` when the bound
/// cannot vouch for it. Requires `1 <= k <= grad.len()`.
fn select_bounded(grad: &[f32], k: usize, scratch: &mut BoundScratch) -> Option<Vec<u32>> {
    let t_low = lower_bound(grad, k, &mut scratch.keys);
    let cap = candidate_cap(k);
    let cand = &mut scratch.cand;
    cand.clear();
    for (i, &g) in grad.iter().enumerate() {
        let key = abs_key(g);
        if key >= t_low {
            if cand.len() == cap {
                return None;
            }
            cand.push((i as u32, key));
        }
    }
    among(cand, k, &mut scratch.keys)
}

/// The `k` largest keys among `cand`, `(index, abs_key)` pairs in any
/// order, as their indices, ascending. `None` when there are fewer than
/// `k` candidates, or when the k-th largest key `t` is tied across the
/// boundary: which of the tied elements the reference keeps only its own
/// partition of the whole bucket decides.
///
/// When `cand` holds every element of a bucket whose key reaches some
/// bound, an answer is the bucket's top-k, bit for bit the reference's:
/// there are at least `k` candidates, so `t` is the bucket's k-th key too,
/// and every element at `t` is a candidate, so exactly `k` elements reach
/// it and any exact selection returns them.
pub fn select_among(cand: &[(u32, u32)], k: usize) -> Option<Vec<u32>> {
    SCRATCH.with_borrow_mut(|scratch| among(cand, k, &mut scratch.keys))
}

/// [`select_among`] in `keys`' storage.
fn among(cand: &[(u32, u32)], k: usize, keys: &mut Vec<u32>) -> Option<Vec<u32>> {
    let m = cand.len();
    if m < k {
        return None;
    }
    if k == 0 {
        return Some(Vec::new());
    }
    keys.clear();
    keys.extend(cand.iter().map(|&(_, key)| key));
    let (below, &mut t, _) = keys.select_nth_unstable(m - k);
    if below.contains(&t) {
        return None;
    }
    let mut top: Vec<u32> = cand
        .iter()
        .filter(|&&(_, key)| key >= t)
        .map(|&(i, _)| i)
        .collect();
    top.sort_unstable();
    Some(top)
}

/// The bound a bucket's next selection collects its candidates at: the
/// `(3k + 16)`-th largest key among `cand` when there are that many, or
/// else [`select_topk`]'s sampled lower bound over `grad`, the bucket; a
/// bound above every key for an empty bucket. `cand` must hold every
/// element of `grad` whose key reaches some bound, as [`Candidates`] does,
/// so that the rank is the bucket's.
pub fn next_bound(cand: &[(u32, u32)], k: usize, grad: &[f32]) -> u32 {
    let rank = 3 * k + SAMPLE_SLACK;
    SCRATCH.with_borrow_mut(|scratch| {
        let keys = &mut scratch.keys;
        if cand.len() >= rank {
            keys.clear();
            keys.extend(cand.iter().map(|&(_, key)| key));
            *keys.select_nth_unstable(cand.len() - rank).1
        } else if grad.is_empty() {
            u32::MAX
        } else {
            lower_bound(grad, k, keys)
        }
    })
}

/// The selection candidates of one step of a bucket, gathered by
/// [`correct_collecting`] as the bucket is written: `(index, abs_key)` of
/// every element written so far whose key reaches [`Candidates::bound`],
/// in the order written.
///
/// The list holds at most `8k + 2144` candidates. When the next chunk
/// might not fit, the bound rises to the key that keeps half of them and
/// the rest are dropped, so the list still holds every element written at
/// or above the bound, and never fewer than `4k` of them — unless the key
/// is tied across so much of the list that it must go too, and the bound
/// rises above it.
#[derive(Debug)]
pub struct Candidates {
    bound: u32,
    cap: usize,
    /// The candidates are `slots[..len]`; the rest is room for one more
    /// chunk than the cap, so that a chunk writes every element and keeps
    /// the hits without a branch.
    slots: Vec<(u32, u32)>,
    len: usize,
}

impl Default for Candidates {
    /// An empty list whose bound is above every key, so it collects
    /// nothing.
    fn default() -> Self {
        Candidates {
            bound: u32::MAX,
            cap: 0,
            slots: Vec::new(),
            len: 0,
        }
    }
}

impl Candidates {
    /// Empties the list and starts collecting at `bound` for a selection
    /// of `k`. A bound above every key, such as `u32::MAX`, collects
    /// nothing.
    pub fn open(&mut self, bound: u32, k: usize) {
        self.bound = bound;
        self.cap = COLLECTED_PER_K
            .saturating_mul(k)
            .saturating_add(2 * SAMPLE_SLACK * SAMPLE_STRIDE);
        self.len = 0;
    }

    /// The bound every listed candidate reaches: the one opened at, or
    /// where the last raise left it.
    pub fn bound(&self) -> u32 {
        self.bound
    }

    /// The candidates, `(index, abs_key)`, in the order written.
    pub fn list(&self) -> &[(u32, u32)] {
        &self.slots[..self.len]
    }

    /// `bound − 1` in `i32`, the bound taken as at most 2³¹ (above every
    /// key either way). Keys are below 2³¹, so `below − key` cannot
    /// overflow, and it is negative exactly when the key reaches the
    /// bound: a chunk's test is one subtract and one OR per element.
    #[inline]
    fn below(&self) -> i32 {
        self.bound.min(1 << 31).wrapping_sub(1) as i32
    }

    /// Lists the elements of `chunk`, which starts at index `first` and
    /// has a hit, that reach the bound, raising it first if they might not
    /// fit; returns the bound's [`Candidates::below`] after. Every element
    /// is written past the list's end and the end advances over the hits
    /// only, so the hits cost no branch either.
    #[inline(never)]
    fn push_hits(&mut self, chunk: &[f32], first: usize) -> i32 {
        if self.len + CHUNK > self.cap {
            self.raise();
        }
        if self.slots.len() < self.cap + CHUNK {
            self.slots.resize(self.cap + CHUNK, (0, 0));
        }
        let below = self.below();
        let slots = &mut self.slots[self.len..self.len + CHUNK];
        let mut n = 0;
        for (i, &g) in chunk.iter().enumerate() {
            let key = abs_key(g);
            slots[n] = ((first + i) as u32, key);
            n += usize::from(below - (key as i32) < 0);
        }
        self.len += n;
        below
    }

    /// Raises the bound to the key `t` that keeps half the cap and drops
    /// the candidates below it, in order; to just above `t` when the tie
    /// at `t` would leave no room for another chunk.
    #[cold]
    #[inline(never)]
    fn raise(&mut self) {
        let keep = self.cap / 2;
        let list = &mut self.slots[..self.len];
        let t = SCRATCH.with_borrow_mut(|scratch| {
            let keys = &mut scratch.keys;
            keys.clear();
            keys.extend(list.iter().map(|&(_, key)| key));
            let n = keys.len();
            *keys.select_nth_unstable(n - keep).1
        });
        let kept = list.iter().filter(|&&(_, key)| key >= t).count();
        let bound = if kept + CHUNK > self.cap { t + 1 } else { t };
        let mut len = 0;
        for i in 0..list.len() {
            if list[i].1 >= bound {
                list[len] = list[i];
                len += 1;
            }
        }
        self.len = len;
        self.bound = bound;
    }
}

/// Whether any key of `chunk` reaches the bound whose
/// [`Candidates::below`] is `below`.
#[inline]
fn any_reaches(chunk: &[f32], below: i32) -> bool {
    chunk
        .iter()
        .fold(0, |any, &g| any | (below - abs_key(g) as i32))
        < 0
}

/// Writes `out = grad + residual`, or a plain copy of `grad` without a
/// residual, and lists in `cand` every written element whose key reaches
/// its bound; `out[0]` is element `first` of the bucket. The sum is
/// [`ErrorFeedback::correct_from`](crate::ErrorFeedback::correct_from)'s,
/// bit for bit. Each 16-element chunk is tested against the bound without
/// a branch, and only a chunk with a hit pushes.
///
/// # Panics
///
/// Panics if `out` or `residual` differs from `grad` in length.
pub fn correct_collecting(
    grad: &[f32],
    residual: Option<&[f32]>,
    out: &mut [f32],
    first: usize,
    cand: &mut Candidates,
) {
    assert_eq!(out.len(), grad.len(), "corrected length mismatch");
    let (out_chunks, out_tail) = out.as_chunks_mut::<CHUNK>();
    let (grad_chunks, grad_tail) = grad.as_chunks::<CHUNK>();
    let mut below = cand.below();
    match residual {
        Some(residual) => {
            assert_eq!(residual.len(), grad.len(), "residual length mismatch");
            let (res_chunks, res_tail) = residual.as_chunks::<CHUNK>();
            for (c, ((o, g), e)) in out_chunks
                .iter_mut()
                .zip(grad_chunks)
                .zip(res_chunks)
                .enumerate()
            {
                let mut sum = [0.0; CHUNK];
                for ((s, g), e) in sum.iter_mut().zip(g).zip(e) {
                    *s = g + e;
                }
                *o = sum;
                if any_reaches(&sum, below) {
                    below = cand.push_hits(o, first + c * CHUNK);
                }
            }
            for ((o, g), e) in out_tail.iter_mut().zip(grad_tail).zip(res_tail) {
                *o = g + e;
            }
        }
        None => {
            for (c, (o, g)) in out_chunks.iter_mut().zip(grad_chunks).enumerate() {
                *o = *g;
                if any_reaches(g, below) {
                    below = cand.push_hits(g, first + c * CHUNK);
                }
            }
            out_tail.copy_from_slice(grad_tail);
        }
    }
    if any_reaches(out_tail, below) {
        cand.push_hits(out_tail, first + grad.len() - out_tail.len());
    }
}

/// The introselect over an index permutation of the whole bucket — the
/// same comparator sequence as the scalar reference, so the same set even
/// at tie boundaries.
fn select_by_partition(grad: &[f32], k: usize) -> Vec<u32> {
    PERMUTATION.with_borrow_mut(|idx| {
        idx.clear();
        idx.extend(0..grad.len() as u32);
        idx.select_nth_unstable_by(k - 1, |&a, &b| {
            abs_key(grad[b as usize]).cmp(&abs_key(grad[a as usize]))
        });
        let mut top = idx[..k].to_vec();
        top.sort_unstable();
        top
    })
}

thread_local! {
    /// The index permutation [`select_by_partition`] partitions: one
    /// element per gradient element, so allocating it per call is a
    /// gradient-sized allocation per bucket per step whose cost — fresh
    /// pages faulted in on every use, or warm ones — depends on what else
    /// the thread has been freeing. Kept per thread, at the size of the
    /// largest bucket that fell back.
    static PERMUTATION: std::cell::RefCell<Vec<u32>> = const { std::cell::RefCell::new(Vec::new()) };

    /// The sample, candidates and keys the selections work in.
    static SCRATCH: std::cell::RefCell<BoundScratch> = const {
        std::cell::RefCell::new(BoundScratch { keys: Vec::new(), cand: Vec::new() })
    };
}

/// Bit-packs signs of one ≤32-element block (bit `j` = 1 when
/// `block[j] >= 0.0`, so `-0.0` packs as positive and NaN as negative,
/// matching the scalar reference).
#[inline]
fn pack_word(block: &[f32]) -> u32 {
    let mut bits = 0u32;
    if let Ok(arr) = <&[f32; 32]>::try_from(block) {
        // Fixed-width block: branchless compare-mask-shift, autovectorizes.
        for (j, &g) in arr.iter().enumerate() {
            bits |= u32::from(g >= 0.0) << j;
        }
    } else {
        for (j, &g) in block.iter().enumerate() {
            bits |= u32::from(g >= 0.0) << j;
        }
    }
    bits
}

/// Bit-packs the signs of `grad`, 32 per word; unused tail bits are zero.
///
/// # Panics
///
/// Panics if `words.len() != grad.len().div_ceil(32)`.
pub fn pack_signs_into(grad: &[f32], words: &mut [u32]) {
    let len = grad.len();
    assert_eq!(words.len(), len.div_ceil(32), "packed length mismatch");
    let pool = global_for(len);
    let chunks = chunks_for(pool, len);
    pool.for_each_unit_chunk_mut(words, 1, chunks, |w0, piece| {
        for (wi, w) in piece.iter_mut().enumerate() {
            let start = (w0 + wi) * 32;
            let end = (start + 32).min(len);
            *w = pack_word(&grad[start..end]);
        }
    });
}

/// Allocating convenience wrapper over [`pack_signs_into`].
pub fn pack_signs(grad: &[f32]) -> Vec<u32> {
    let mut words = vec![0u32; grad.len().div_ceil(32)];
    pack_signs_into(grad, &mut words);
    words
}

/// Bit-packs the signs of `src` into bits `first_bit..first_bit +
/// src.len()` of `words`, touching no other bit, and returns `acc`
/// extended by `|src[i]|`, strictly in element order. Chained over
/// consecutive runs from `acc = 0.0`, it leaves [`pack_signs`]' words and
/// the sequential `Σ|g|` (the scaled Sign-SGD magnitude) of their
/// concatenation, bit for bit.
///
/// One sequential pass, not pooled: the add chain bounds it, and the
/// block's compare-and-pack runs in the shadow of its latency.
///
/// # Panics
///
/// Panics if `words` holds fewer than `first_bit + src.len()` bits.
pub fn pack_signs_summing(src: &[f32], first_bit: usize, words: &mut [u32], acc: f32) -> f32 {
    assert!(
        words.len() * 32 >= first_bit + src.len(),
        "packed length mismatch"
    );
    let head = (first_bit.wrapping_neg() % 32).min(src.len());
    let (head_src, rest) = src.split_at(head);
    let mut acc = merge_signs_summing(head_src, first_bit, words, acc);
    let first_word = (first_bit + head) / 32;
    let mut blocks = rest.chunks_exact(32);
    for (w, block) in words[first_word..].iter_mut().zip(&mut blocks) {
        *w = pack_word(block);
        for &g in block {
            acc += g.abs();
        }
    }
    let tail = blocks.remainder();
    let tail_bit = first_bit + src.len() - tail.len();
    merge_signs_summing(tail, tail_bit, words, acc)
}

/// [`pack_signs_summing`] for a run of fewer than 32 signs that stays
/// inside the word holding `first_bit`: the run's bits are replaced, the
/// word's others kept.
fn merge_signs_summing(src: &[f32], first_bit: usize, words: &mut [u32], acc: f32) -> f32 {
    if src.is_empty() {
        return acc;
    }
    let shift = first_bit % 32;
    let mask = (((1u64 << src.len()) - 1) as u32) << shift;
    let w = &mut words[first_bit / 32];
    *w = (*w & !mask) | pack_word(src) << shift;
    src.iter().fold(acc, |acc, g| acc + g.abs())
}

/// Expands packed sign words into `out[i] = ±1.0 * scale`, word-driven
/// (one load and a branchless select per element instead of the scalar
/// div/mod/branch per element).
///
/// # Panics
///
/// Panics if `words` is shorter than `out.len().div_ceil(32)`.
pub fn unpack_signs_into(words: &[u32], scale: f32, out: &mut [f32]) {
    for_each_sign(words, scale, out, |o, v| *o = v);
}

/// Subtracts the expansion of packed sign words in place,
/// `out[i] −= ±1.0 * scale`: [`unpack_signs_into`] into a temporary
/// followed by a subtraction, bit for bit, without the temporary. This is
/// a sign payload's error-feedback residual, taken in the corrected
/// gradient's own storage.
///
/// # Panics
///
/// Panics if `words` is shorter than `out.len().div_ceil(32)`.
pub(crate) fn subtract_signs_into(words: &[u32], scale: f32, out: &mut [f32]) {
    for_each_sign(words, scale, out, |o, v| *o -= v);
}

/// Applies `f(&mut out[i], ±1.0 * scale)` with the sign of bit `i` of
/// `words`, word by word over the whole words and element by element over
/// the tail.
fn for_each_sign(
    words: &[u32],
    scale: f32,
    out: &mut [f32],
    f: impl Fn(&mut f32, f32) + Send + Sync,
) {
    let len = out.len();
    assert!(words.len() >= len.div_ceil(32), "packed length mismatch");
    let pool = global_for(len);
    let chunks = chunks_for(pool, len);
    let main = len - len % 32;
    pool.for_each_unit_chunk_mut(&mut out[..main], 32, chunks, |u0, piece| {
        for (ui, ochunk) in piece.chunks_exact_mut(32).enumerate() {
            let w = words[u0 + ui];
            for (j, o) in ochunk.iter_mut().enumerate() {
                // Same arithmetic as the scalar `sign_at(..) * scale`.
                let s = if w >> j & 1 == 1 { 1.0f32 } else { -1.0 };
                f(o, s * scale);
            }
        }
    });
    for (i, o) in out.iter_mut().enumerate().skip(main) {
        let s = if words[i / 32] >> (i % 32) & 1 == 1 {
            1.0f32
        } else {
            -1.0
        };
        f(o, s * scale);
    }
}

/// Highest rank count the bit-sliced vote kernel supports; larger worlds
/// count each bit position with [`count_word`].
const MAX_CSA_WORLD: usize = 255;

/// Bit-sliced majority vote over one packed word position.
///
/// Accumulates the per-bit-position popcount across ranks into eight
/// carry-save bit planes (32 independent 8-bit counters in bitwise
/// arithmetic), then compares every counter against `threshold` with a
/// bitwise borrow chain. Returns a word whose bit `j` is 1 iff at least
/// `threshold` ranks voted positive at position `j`.
#[inline]
fn vote_word(gathered: &[u32], wpr: usize, world_size: usize, wi: usize, threshold: u32) -> u32 {
    let mut planes = [0u32; 8];
    for w in 0..world_size {
        let mut carry = gathered[w * wpr + wi];
        for p in planes.iter_mut() {
            if carry == 0 {
                break;
            }
            let t = *p & carry;
            *p ^= carry;
            carry = t;
        }
    }
    // Borrow chain of (count - threshold) per bit position; a final borrow
    // means count < threshold.
    let mut borrow = 0u32;
    for (b, &p) in planes.iter().enumerate() {
        let t = if threshold >> b & 1 == 1 { !0u32 } else { 0 };
        borrow = (!p & t) | (!(p ^ t) & borrow);
    }
    !borrow
}

/// Mean of the ranks' magnitude scales — a strictly sequential sum, so it
/// is byte-identical to the scalar reference's.
pub fn mean_scale(scales: &[f32]) -> f32 {
    scales.iter().sum::<f32>() / scales.len() as f32
}

/// Bit-packed majority vote: bit `j` of `voted[wi]` becomes 1 iff at least
/// half of the `world_size` ranks (ties included) set bit `j` of their word
/// `wi`. `gathered` is the rank-order concatenation of every rank's
/// `voted.len()` words.
///
/// # Panics
///
/// Panics if `gathered.len() != voted.len() * world_size`.
pub fn vote_words_into(gathered: &[u32], world_size: usize, voted: &mut [u32]) {
    let wpr = voted.len();
    assert_eq!(gathered.len(), wpr * world_size, "gathered length mismatch");
    // `vote >= 0` ⟺ positives ≥ ceil(world/2) = world − world/2.
    let threshold = (world_size - world_size / 2) as u32;
    let pool = global_for(wpr * 32 * world_size.max(1));
    let chunks = chunks_for(pool, wpr * 32);
    pool.for_each_unit_chunk_mut(voted, 1, chunks, |w0, piece| {
        for (wi, v) in piece.iter_mut().enumerate() {
            *v = if world_size > MAX_CSA_WORLD {
                count_word(gathered, wpr, world_size, w0 + wi, threshold)
            } else {
                vote_word(gathered, wpr, world_size, w0 + wi, threshold)
            };
        }
    });
}

/// [`vote_word`] for worlds beyond the bit-sliced counters: one integer
/// count per bit position.
fn count_word(gathered: &[u32], wpr: usize, world_size: usize, wi: usize, threshold: u32) -> u32 {
    (0..32).fold(0u32, |bits, j| {
        let positives = (0..world_size)
            .filter(|w| gathered[w * wpr + wi] >> j & 1 == 1)
            .count();
        bits | u32::from(positives >= threshold as usize) << j
    })
}

/// Expands a run of voted bits into `out[i] = ±scale`, positive where bit
/// `first_bit + i` of `voted` is set. `first_bit` need not sit on a word
/// boundary: the elements up to the next boundary and the tail go one by
/// one, the words between them 32 elements at a time.
///
/// # Panics
///
/// Panics if `voted` holds fewer than `first_bit + out.len()` bits.
pub fn expand_votes_into(voted: &[u32], first_bit: usize, scale: f32, out: &mut [f32]) {
    let len = out.len();
    assert!(
        voted.len() * 32 >= first_bit + len,
        "packed length mismatch"
    );
    let pick = |bit: usize| {
        if voted[bit / 32] >> (bit % 32) & 1 == 1 {
            scale
        } else {
            -scale
        }
    };
    let head = (first_bit.wrapping_neg() % 32).min(len);
    let (head_out, rest) = out.split_at_mut(head);
    for (i, o) in head_out.iter_mut().enumerate() {
        *o = pick(first_bit + i);
    }
    let first_word = (first_bit + head) / 32;
    let main = rest.len() - rest.len() % 32;
    let pool = global_for(len);
    let chunks = chunks_for(pool, len);
    pool.for_each_unit_chunk_mut(&mut rest[..main], 32, chunks, |u0, piece| {
        for (ui, ochunk) in piece.chunks_exact_mut(32).enumerate() {
            let w = voted[first_word + u0 + ui];
            for (j, o) in ochunk.iter_mut().enumerate() {
                *o = if w >> j & 1 == 1 { scale } else { -scale };
            }
        }
    });
    for (i, o) in rest.iter_mut().enumerate().skip(main) {
        *o = pick(first_bit + head + i);
    }
}

/// Majority vote across `world_size` gathered sign payloads — the
/// bit-sliced counterpart of [`reference::majority_vote_into`], producing
/// identical bytes: element `i` becomes `mean(scales)` when at least half
/// the ranks (ties included) voted positive, `-mean(scales)` otherwise.
/// [`vote_words_into`] followed by [`expand_votes_into`] from bit 0.
///
/// # Panics
///
/// Panics if `gathered.len()` is not `world_size` times the packed length
/// for `len` elements, `scales.len() != world_size`, or `out.len() != len`.
pub fn majority_vote_into(
    gathered: &[u32],
    scales: &[f32],
    len: usize,
    world_size: usize,
    out: &mut [f32],
) {
    assert_eq!(scales.len(), world_size, "scales length mismatch");
    assert_eq!(out.len(), len, "output length mismatch");
    let mut voted = vec![0u32; len.div_ceil(32)];
    vote_words_into(gathered, world_size, &mut voted);
    expand_votes_into(&voted, 0, mean_scale(scales), out);
}

/// The retained scalar reference implementations.
///
/// These are the pre-vectorization loops, kept as the byte-identity oracle
/// for the kernels above and as the scalar baseline `figures kernels`
/// measures speedups against. Do not "optimize" them.
pub mod reference {
    /// Scalar sign packing: one branch per element.
    pub fn pack_signs(grad: &[f32]) -> Vec<u32> {
        let mut words = vec![0u32; grad.len().div_ceil(32)];
        for (i, &g) in grad.iter().enumerate() {
            if g >= 0.0 {
                words[i / 32] |= 1 << (i % 32);
            }
        }
        words
    }

    /// Scalar sign expansion: div/mod/branch per element.
    pub fn unpack_signs_into(words: &[u32], scale: f32, out: &mut [f32]) {
        for (i, o) in out.iter_mut().enumerate() {
            let s = if words[i / 32] >> (i % 32) & 1 == 1 {
                1.0f32
            } else {
                -1.0
            };
            *o = s * scale;
        }
    }

    /// Scalar majority vote: a rank-loop with a signed counter per element.
    ///
    /// # Panics
    ///
    /// Panics on the same length mismatches as the vectorized kernel.
    pub fn majority_vote_into(
        gathered: &[u32],
        scales: &[f32],
        len: usize,
        world_size: usize,
        out: &mut [f32],
    ) {
        let words_per_rank = len.div_ceil(32);
        assert_eq!(
            gathered.len(),
            words_per_rank * world_size,
            "gathered length mismatch"
        );
        assert_eq!(scales.len(), world_size, "scales length mismatch");
        assert_eq!(out.len(), len, "output length mismatch");
        let mean_scale = scales.iter().sum::<f32>() / world_size as f32;
        for (i, o) in out.iter_mut().enumerate() {
            let mut vote = 0i32;
            for w in 0..world_size {
                let word = gathered[w * words_per_rank + i / 32];
                vote += if word >> (i % 32) & 1 == 1 { 1 } else { -1 };
            }
            *o = if vote >= 0 { mean_scale } else { -mean_scale };
        }
    }

    /// Scalar top-k selection over the same total magnitude order as
    /// [`super::select_topk`] (`total_cmp` on `|g|`).
    pub fn select_topk(grad: &[f32], k: usize) -> Vec<u32> {
        let k = k.min(grad.len());
        if k == 0 {
            return Vec::new();
        }
        let mut idx: Vec<u32> = (0..grad.len() as u32).collect();
        idx.select_nth_unstable_by(k - 1, |&a, &b| {
            grad[b as usize].abs().total_cmp(&grad[a as usize].abs())
        });
        idx.truncate(k);
        idx.sort_unstable();
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic sign-varied data with the awkward values mixed in.
    fn awkward(len: usize, seed: u32) -> Vec<f32> {
        let mut state = seed;
        (0..len)
            .map(|_| {
                state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                match state % 11 {
                    0 => 0.0,
                    1 => -0.0,
                    2 => f32::NAN,
                    3 => f32::INFINITY,
                    4 => f32::NEG_INFINITY,
                    _ => (state as f32 / u32::MAX as f32 - 0.5) * 20.0,
                }
            })
            .collect()
    }

    #[test]
    fn pack_matches_reference_across_odd_lengths() {
        for len in [0, 1, 31, 32, 33, 45, 63, 64, 65, 100, 1023] {
            let grad = awkward(len, len as u32 + 1);
            assert_eq!(pack_signs(&grad), reference::pack_signs(&grad), "len {len}");
        }
    }

    #[test]
    fn pack_signs_summing_is_the_pack_and_the_sequential_sum() {
        // Every bit offset inside two words, over every length around the
        // word boundaries and one pooled-size length, into words whose
        // other bits are all 0 or all 1: the run's bits must be the
        // reference's and every other bit must keep its fill.
        for len in (0..=97).chain([(1 << 16) + 45]) {
            let mut src = awkward(len, 3 * len as u32 + 11);
            for (i, g) in src.iter_mut().enumerate().filter(|(i, _)| i % 13 == 6) {
                *g = if i % 2 == 0 {
                    1.0e-40
                } else {
                    -f32::MIN_POSITIVE / 4.0
                };
            }
            let want = reference::pack_signs(&src);
            let want_bit = |i: usize| want[i / 32] >> (i % 32) & 1;
            let sum = src.iter().map(|g| g.abs()).sum::<f32>();
            for first_bit in 0..64 {
                for fill in [0u32, !0] {
                    let mut words = vec![fill; (first_bit + len).div_ceil(32) + 1];
                    let got = pack_signs_summing(&src, first_bit, &mut words, 0.0);
                    // An empty `Iterator::sum` is −0.0; the kernel returns `acc`.
                    let expect_sum = if len == 0 { 0.0 } else { sum };
                    assert_eq!(got.to_bits(), expect_sum.to_bits(), "len {len}");
                    for b in 0..words.len() * 32 {
                        let bit = words[b / 32] >> (b % 32) & 1;
                        let expect = if (first_bit..first_bit + len).contains(&b) {
                            want_bit(b - first_bit)
                        } else {
                            fill & 1
                        };
                        assert_eq!(bit, expect, "len {len} first_bit {first_bit} bit {b}");
                    }
                }
            }
            // Chained over three runs, it is the one call over the whole.
            for cuts in [(0, 0), (1, 33), (len / 3, len / 2), (len, len)] {
                let (a, b) = (cuts.0.min(len), cuts.1.min(len));
                let mut words = vec![0u32; len.div_ceil(32)];
                let mut acc = pack_signs_summing(&src[..a], 0, &mut words, 0.0);
                acc = pack_signs_summing(&src[a..b], a, &mut words, acc);
                acc = pack_signs_summing(&src[b..], b, &mut words, acc);
                assert_eq!(words, want, "len {len} cuts {cuts:?}");
                if len > 0 {
                    assert_eq!(acc.to_bits(), sum.to_bits(), "len {len} cuts {cuts:?}");
                }
            }
        }
    }

    #[test]
    fn unpack_matches_reference_across_odd_lengths() {
        for len in [1usize, 31, 32, 33, 45, 97, 256, 300] {
            let grad = awkward(len, 7 * len as u32);
            let words = reference::pack_signs(&grad);
            let mut fast = vec![0.0f32; len];
            let mut slow = vec![0.0f32; len];
            unpack_signs_into(&words, 0.75, &mut fast);
            reference::unpack_signs_into(&words, 0.75, &mut slow);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&fast), bits(&slow), "len {len}");
        }
    }

    #[test]
    fn vote_matches_reference_worlds_2_to_8() {
        for world in 2usize..=8 {
            for len in [1usize, 31, 33, 64, 65, 100] {
                let wpr = len.div_ceil(32);
                let mut gathered = Vec::with_capacity(world * wpr);
                let mut scales = Vec::with_capacity(world);
                for w in 0..world {
                    let grad = awkward(len, (w * 31 + len) as u32 + 3);
                    gathered.extend(reference::pack_signs(&grad));
                    scales.push(0.25 + w as f32);
                }
                let mut fast = vec![0.0f32; len];
                let mut slow = vec![0.0f32; len];
                majority_vote_into(&gathered, &scales, len, world, &mut fast);
                reference::majority_vote_into(&gathered, &scales, len, world, &mut slow);
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&fast), bits(&slow), "world {world} len {len}");
            }
        }
    }

    #[test]
    fn expanding_a_bit_range_equals_slicing_the_full_expansion() {
        // Tensors sit at arbitrary element offsets of a bucket, so a
        // range's first bit is rarely a multiple of 32.
        let len = 200usize;
        let voted = reference::pack_signs(&awkward(len, 5));
        let mut full = vec![0.0f32; len];
        expand_votes_into(&voted, 0, 0.75, &mut full);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for first in [0usize, 1, 31, 32, 33, 63, 64, 95, 130] {
            for n in [0usize, 1, 2, 31, 32, 33, 64, 70] {
                if first + n > len {
                    continue;
                }
                let mut part = vec![f32::NAN; n];
                expand_votes_into(&voted, first, 0.75, &mut part);
                assert_eq!(
                    bits(&part),
                    bits(&full[first..first + n]),
                    "first {first} n {n}"
                );
            }
        }
    }

    #[test]
    fn wide_world_vote_counts_like_the_bit_sliced_one() {
        // Past 255 ranks the per-bit counter takes over; below it both
        // must agree with each other on the same words.
        let threshold = 3u32;
        let gathered = [0b1011u32, 0b0110, 0b1101, 0b0001, 0b1000];
        assert_eq!(
            count_word(&gathered, 1, 5, 0, threshold),
            vote_word(&gathered, 1, 5, 0, threshold)
        );
        let world = MAX_CSA_WORLD + 1;
        let gathered: Vec<u32> = (0..world).map(|w| u32::from(w % 2 == 0)).collect();
        let mut voted = [0u32; 1];
        vote_words_into(&gathered, world, &mut voted);
        assert_eq!(
            voted,
            [1],
            "128 of 256 positive is a tie, which resolves up"
        );
    }

    #[test]
    fn vote_word_counts_exactly() {
        // Exhaustive per-position check at a word boundary: every
        // positive-count from 0..=world against every threshold.
        for world in 1usize..=9 {
            for positives in 0..=world {
                let mut gathered = Vec::new();
                for w in 0..world {
                    gathered.push(if w < positives { 1u32 } else { 0 });
                }
                let threshold = (world - world / 2) as u32;
                let bit = vote_word(&gathered, 1, world, 0, threshold) & 1;
                let expected = u32::from(positives >= world - world / 2);
                assert_eq!(bit, expected, "world {world} positives {positives}");
            }
        }
    }

    #[test]
    fn select_topk_matches_reference_with_nans() {
        for len in [1usize, 10, 64, 333] {
            let grad = awkward(len, 23 + len as u32);
            for k in [1usize, 2, len / 2 + 1, len] {
                assert_eq!(
                    select_topk(&grad, k),
                    reference::select_topk(&grad, k),
                    "len {len} k {k}"
                );
            }
        }
    }

    /// `n` distinct magnitudes, `1..=n` scaled by 2⁻¹⁰ in a scrambled
    /// order with mixed signs.
    fn distinct(n: usize, seed: u32) -> Vec<f32> {
        let mut perm: Vec<usize> = (1..=n).collect();
        let mut state = seed;
        for i in (1..n).rev() {
            state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            perm.swap(i, state as usize % (i + 1));
        }
        perm.iter()
            .enumerate()
            .map(|(i, &m)| if i % 3 == 0 { -1.0 } else { 1.0 } * m as f32 / 1024.0)
            .collect()
    }

    /// What the data decide for the bounded path: how many elements reach
    /// the sampled bound, and how many reach the k-th largest key (more
    /// than `k` is a tie across the boundary).
    fn census(grad: &[f32], k: usize) -> (usize, usize) {
        let t_low = lower_bound(grad, k, &mut Vec::new());
        let mut keys: Vec<u32> = grad.iter().map(|&g| abs_key(g)).collect();
        keys.sort_unstable_by(|a, b| b.cmp(a));
        let t = keys[k - 1];
        let reaching = |bound: u32| keys.iter().filter(|&&key| key >= bound).count();
        (reaching(t_low), reaching(t))
    }

    /// Whether the bounded path answers on `grad`; an answer must be the
    /// reference's.
    fn answers(grad: &[f32], k: usize) -> bool {
        let got = select_bounded(grad, k, &mut BoundScratch::default());
        if let Some(got) = &got {
            assert_eq!(
                got,
                &reference::select_topk(grad, k),
                "n {} k {k}",
                grad.len()
            );
        }
        got.is_some()
    }

    #[test]
    fn bounded_path_answers_for_distinct_magnitudes() {
        // The MLP's buckets (8448, 644 and 256 elements at density 0.001,
        // so k = 9, 1 and 1) sit beside the large ones: small k must not
        // push an ordinary bound past the cap.
        let cases = [
            (256usize, 7u32, vec![1, 2]),
            (644, 8, vec![1, 2]),
            (8448, 9, vec![1, 9]),
            (4096, 1, vec![1, 24, 40, 409, 2048]),
            (6000, 2, vec![1, 26, 60, 600, 3000]),
            (1 << 16, 3, vec![1, 66, 655, 6553, 32768]),
            (100_003, 4, vec![1, 101, 1000, 10000, 50001]),
        ];
        for (n, seed, ks) in cases {
            let grad = distinct(n, seed);
            for k in ks {
                let (candidates, at_t) = census(&grad, k);
                assert!(
                    (k..=candidate_cap(k)).contains(&candidates),
                    "n {n} k {k}: {candidates} candidates"
                );
                assert_eq!(at_t, k, "n {n} k {k}");
                assert!(answers(&grad, k), "n {n} k {k}");
            }
        }
    }

    #[test]
    fn a_tie_at_the_boundary_falls_back() {
        // Five magnitudes, a fifth of the elements each, salted with the
        // awkward values: the k-th key is held by far more than the
        // boundary has room for.
        let n = 6000;
        let mut grad: Vec<f32> = (0..n).map(|i| (i % 5) as f32 - 2.0).collect();
        for (i, v) in [0.0, -0.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY]
            .into_iter()
            .enumerate()
        {
            grad[i * 997 + 5] = v;
        }
        for k in [600, 1000, 3000] {
            let (candidates, at_t) = census(&grad, k);
            assert!((k..=candidate_cap(k)).contains(&candidates), "k {k}");
            assert!(at_t > k, "k {k}: only {at_t} reach the k-th key");
            assert!(!answers(&grad, k), "k {k}");
            assert_eq!(select_topk(&grad, k), reference::select_topk(&grad, k));
        }
    }

    #[test]
    fn a_crowd_at_the_bound_falls_back_after_a_partial_sweep() {
        // Half the bucket packed into three adjacent floats: the bound
        // lands on the top one, shared by about 11 k elements.
        let n = 1 << 16;
        let band = [1.0f32, 1.0 + f32::EPSILON, 1.0 + 2.0 * f32::EPSILON];
        let grad: Vec<f32> = distinct(n, 5)
            .iter()
            .enumerate()
            .map(|(i, &g)| {
                if i % 2 == 0 {
                    band[i / 2 % 3]
                } else {
                    g / n as f32
                }
            })
            .collect();
        for k in [1, 9, 50] {
            let (candidates, _) = census(&grad, k);
            assert!(candidates > candidate_cap(k), "k {k}: {candidates}");
            assert!(!answers(&grad, k), "k {k}");
            assert_eq!(select_topk(&grad, k), reference::select_topk(&grad, k));
        }
    }

    #[test]
    fn the_bound_is_the_samples_rank_and_every_element_reaching_it_counts() {
        // Spikes exactly at the sampled positions, everything else below
        // every spike: the candidates are the spikes at or above the
        // sample's (3·⌈k·s/n⌉ + 16)-th largest, which is the 19th for
        // k ≤ 67 here — so 19 candidates serve k = 19 and fail k = 20.
        let s = 200;
        let grad: Vec<f32> = (0..s * SAMPLE_STRIDE)
            .map(|i| {
                if i % SAMPLE_STRIDE == 0 {
                    (1 + i / SAMPLE_STRIDE) as f32
                } else {
                    -1.0e-3 * (i % 7) as f32
                }
            })
            .collect();
        assert_eq!(
            lower_bound(&grad, 19, &mut Vec::new()),
            abs_key((s - 18) as f32)
        );
        assert!(answers(&grad, 19));
        assert_eq!(census(&grad, 20).0, 19);
        assert!(!answers(&grad, 20));
        assert_eq!(select_topk(&grad, 20), reference::select_topk(&grad, 20));
        // A sample shorter than the rank bounds at its own smallest key.
        let short = distinct(300, 6);
        let smallest = short
            .iter()
            .step_by(SAMPLE_STRIDE)
            .map(|&g| abs_key(g))
            .min();
        assert_eq!(Some(lower_bound(&short, 1, &mut Vec::new())), smallest);
    }

    /// Lengths of the collecting-correction tests: every length around
    /// a chunk boundary, and one long enough to raise the bound many
    /// times (fewer of both under Miri).
    fn collecting_lengths() -> impl Iterator<Item = usize> {
        let (short, long) = if cfg!(miri) {
            (40, 2200 + 45)
        } else {
            (97, (1 << 16) + 45)
        };
        (0..=short).chain([long])
    }

    /// `awkward` with subnormals of both signs mixed in.
    fn awkward_subnormal(len: usize, seed: u32) -> Vec<f32> {
        let mut v = awkward(len, seed);
        for (i, g) in v.iter_mut().enumerate().filter(|(i, _)| i % 13 == 6) {
            *g = if i % 2 == 0 {
                1.0e-40
            } else {
                -f32::MIN_POSITIVE / 4.0
            };
        }
        v
    }

    /// Every element of `out` (element `first` of the bucket at
    /// `out[0]`) whose key reaches `bound`, in index order.
    fn reaching(out: &[f32], first: usize, bound: u32) -> Vec<(u32, u32)> {
        (first..)
            .zip(out)
            .filter(|&(_, &g)| abs_key(g) >= bound)
            .map(|(i, &g)| (i as u32, abs_key(g)))
            .collect()
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn correct_collecting_writes_the_sum_and_lists_every_key_at_its_bound() {
        for len in collecting_lengths() {
            let grad = awkward_subnormal(len, 5 * len as u32 + 1);
            // A residual left by one error-feedback step, so that the sum
            // is checked against `correct_from` itself.
            let mut ef = crate::ErrorFeedback::new(crate::TopK::new(len / 3 + 1));
            crate::Compressor::compress(&mut ef, &awkward_subnormal(len, 7 * len as u32 + 3));
            let mut want = vec![f32::NAN; len];
            ef.correct_from(&grad, 0, &mut want);
            let residual = ef.residual_for(len).to_vec();
            let mut keys: Vec<u32> = want.iter().map(|&g| abs_key(g)).collect();
            keys.sort_unstable();
            let middle = keys.get(len / 2).copied().unwrap_or(0);
            for bound in [0, middle, 0x7f80_0001, u32::MAX] {
                for k in [1, len / 7 + 1] {
                    for first in [0, 5, 1_000_003] {
                        for (residual, want) in [(Some(&residual[..]), &want), (None, &grad)] {
                            let mut out = vec![f32::NAN; len];
                            let mut cand = Candidates::default();
                            cand.open(bound, k);
                            correct_collecting(&grad, residual, &mut out, first, &mut cand);
                            let what = format!(
                                "len {len} bound {bound:#x} k {k} first {first} ef {}",
                                residual.is_some()
                            );
                            assert_eq!(bits(&out), bits(want), "{what}");
                            assert!(cand.bound() >= bound, "{what}");
                            assert_eq!(cand.list(), reaching(&out, first, cand.bound()), "{what}");
                            if cand.bound() != bound {
                                assert_a_raise_kept_enough(&cand, &out, first, k, &what);
                            }
                        }
                    }
                }
            }
        }
    }

    /// A raise keeps half the cap, `4k` candidates or more, unless the
    /// key below the bound is tied across so much of the list that a raise
    /// had to drop it.
    fn assert_a_raise_kept_enough(
        cand: &Candidates,
        out: &[f32],
        first: usize,
        k: usize,
        what: &str,
    ) {
        let cap = 8 * k + 2144;
        let at_or_above_the_dropped_key = reaching(out, first, cand.bound() - 1).len();
        assert!(
            cand.list().len() >= 4 * k || at_or_above_the_dropped_key + CHUNK > cap,
            "{what}: {} candidates",
            cand.list().len()
        );
    }

    #[test]
    fn raises_keep_every_key_at_the_bound_across_pieces_in_any_order() {
        // Three pieces of one bucket, written out of order into one list
        // whose cap (`8k + 2144`) the long length overflows many times,
        // from a bound of zero; then a bucket that is all one magnitude,
        // where the raise must drop the whole tie.
        for len in collecting_lengths() {
            let data = [
                awkward_subnormal(len, 11 * len as u32 + 2),
                distinct(len, 3),
            ];
            for (d, grad) in data.iter().enumerate() {
                for k in [1, 3, len / 40 + 1] {
                    let what = format!("data {d} len {len} k {k}");
                    let mut out = vec![f32::NAN; len];
                    let mut cand = Candidates::default();
                    cand.open(0, k);
                    let (a, b) = (len / 3, len / 3 + len / 5);
                    for range in [b..len, 0..a, a..b] {
                        let piece = &grad[range.clone()];
                        let start = range.start;
                        correct_collecting(piece, None, &mut out[range], start, &mut cand);
                    }
                    assert_eq!(bits(&out), bits(grad), "{what}");
                    let mut got = cand.list().to_vec();
                    got.sort_unstable();
                    assert_eq!(got, reaching(&out, 0, cand.bound()), "{what}");
                    let cap = 8 * k + 2144;
                    assert!(cand.list().len() <= cap, "{what}");
                    if len > cap {
                        assert!(cand.bound() > 0, "{what}: no raise");
                        assert_a_raise_kept_enough(&cand, &out, 0, k, &what);
                        if d == 1 {
                            // Distinct magnitudes: no tie can go.
                            assert!(cand.list().len() >= 4 * k, "{what}");
                        }
                    }
                }
            }
            let flat = vec![-1.5f32; len];
            let mut out = vec![0.0; len];
            let mut cand = Candidates::default();
            cand.open(0, 1);
            correct_collecting(&flat, None, &mut out, 0, &mut cand);
            if len > 2152 {
                assert_eq!(cand.bound(), abs_key(1.5) + 1, "len {len}");
                assert!(cand.list().is_empty(), "len {len}");
            } else {
                assert_eq!(cand.list().len(), len, "len {len}");
            }
        }
    }

    #[test]
    fn select_among_is_the_reference_whenever_it_answers() {
        // Candidates at a bound of zero, a middle key and above every key,
        // in index and in reversed order, over data with NaN, infinities,
        // signed zeros and subnormals, distinct magnitudes, and ties.
        let len = if cfg!(miri) { 300 } else { 2000 };
        let ties: Vec<f32> = (0..len).map(|i| (i % 5) as f32 - 2.0).collect();
        let data = [awkward_subnormal(len, 9), distinct(len, 4), ties];
        let mut answered = 0;
        for (d, grad) in data.iter().enumerate() {
            let mut keys: Vec<u32> = grad.iter().map(|&g| abs_key(g)).collect();
            keys.sort_unstable();
            for bound in [0, keys[len / 2], keys[len - 40], u32::MAX] {
                let mut cand = reaching(grad, 0, bound);
                for reversed in [false, true] {
                    if reversed {
                        cand.reverse();
                    }
                    for k in [0, 1, 2, 13, 39, 40, 41, len / 2, len] {
                        let what = format!("data {d} bound {bound:#x} k {k} reversed {reversed}");
                        match select_among(&cand, k) {
                            Some(top) => {
                                answered += 1;
                                assert_eq!(top, reference::select_topk(grad, k), "{what}");
                            }
                            None => {
                                // Too few candidates, or the k-th key tied
                                // with the next.
                                let mut keys: Vec<u32> = cand.iter().map(|c| c.1).collect();
                                keys.sort_unstable_by(|a, b| b.cmp(a));
                                let tied = (1..=keys.len()).contains(&k)
                                    && keys.get(k) == Some(&keys[k - 1]);
                                assert!(k > keys.len() || tied, "{what}");
                            }
                        }
                    }
                }
            }
        }
        assert!(answered > 40, "only {answered} answers");
    }

    #[test]
    fn the_next_bound_is_the_candidates_rank_or_the_sample() {
        let grad = distinct(5000, 8);
        let mut keys: Vec<u32> = grad.iter().map(|&g| abs_key(g)).collect();
        keys.sort_unstable_by(|a, b| b.cmp(a));
        for k in [1, 5, 30] {
            let rank = 3 * k + SAMPLE_SLACK;
            let enough = reaching(&grad, 0, keys[rank + 9]);
            assert_eq!(next_bound(&enough, k, &grad), keys[rank - 1], "k {k}");
            let few = reaching(&grad, 0, keys[rank - 2]);
            let sampled = lower_bound(&grad, k, &mut Vec::new());
            assert_eq!(next_bound(&few, k, &grad), sampled, "k {k}");
            assert_eq!(next_bound(&[], k, &grad), sampled, "k {k}");
        }
        assert_eq!(next_bound(&[], 1, &[]), u32::MAX);
    }

    #[test]
    fn abs_key_orders_like_total_cmp_on_abs() {
        let vals = [
            0.0f32,
            -0.0,
            1.0e-40, // subnormal
            -1.0e-40,
            0.5,
            -0.5,
            1.0,
            f32::MAX,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
        ];
        for &a in &vals {
            for &b in &vals {
                assert_eq!(
                    abs_key(a).cmp(&abs_key(b)),
                    a.abs().total_cmp(&b.abs()),
                    "{a} vs {b}"
                );
            }
        }
    }
}
