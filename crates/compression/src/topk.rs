//! Top-k sparsification (Lin et al. 2018; Shi et al., MLSys 2021).
//!
//! Transmits only the `k` largest-magnitude gradient elements with their
//! coordinates — the up-to-1000× compression of Table I. Sparse selections
//! from different workers have different coordinates, so the payloads are
//! not additive and aggregation uses all-gather + scatter-add.
//!
//! Two selection kernels are provided, mirroring the paper's discussion
//! (§III, footnote 2): exact selection ([`kernels::select_topk`], the
//! default), and **multiple-sampling threshold estimation** — sample the
//! magnitude distribution, take the threshold that passes ≈`k` elements,
//! then sweep once. The paper notes exact Top-k is computationally
//! inefficient on GPUs and uses the sampling variant; the exact kernel here
//! borrows the same sampling, but only for a lower bound on the k-th
//! magnitude, and then verifies its result exact, so it costs about one
//! sweep and still returns exactly `k` elements. The ablation bench
//! `ablation_topk_selection` compares both.

use rand::Rng;
use rand_chacha::ChaCha8Rng;

use crate::compressor::Compressor;
use crate::kernels;
use crate::payload::Payload;

/// Which selection kernel [`TopK`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TopKSelection {
    /// Exact k-largest-by-magnitude selection.
    #[default]
    Exact,
    /// Sampled threshold estimation with one correction pass (the paper's
    /// "multiple sampling" Top-k). Returns *approximately* `k` elements,
    /// capped at `k`.
    Sampled,
}

/// Top-k sparsifying compressor.
///
/// # Examples
///
/// ```
/// use acp_compression::{Compressor, TopK};
///
/// let mut c = TopK::new(2);
/// let p = c.compress(&[0.1, -5.0, 0.2, 3.0]);
/// let mut out = vec![0.0; 4];
/// c.decompress(&p, &mut out);
/// assert_eq!(out, vec![0.0, -5.0, 0.0, 3.0]);
/// ```
#[derive(Debug, Clone)]
pub struct TopK {
    k: usize,
    selection: TopKSelection,
    rng: ChaCha8Rng,
}

impl TopK {
    /// Exact Top-k keeping `k` elements.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        Self::with_selection(k, TopKSelection::Exact, 0)
    }

    /// Top-k with an explicit selection kernel; `seed` feeds the sampling
    /// RNG (unused by [`TopKSelection::Exact`]).
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    #[must_use]
    pub fn with_selection(k: usize, selection: TopKSelection, seed: u64) -> Self {
        assert!(k > 0, "k must be positive");
        use rand::SeedableRng;
        TopK {
            k,
            selection,
            rng: ChaCha8Rng::seed_from_u64(seed),
        }
    }

    /// The configured number of elements to keep.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The configured selection kernel.
    pub fn selection(&self) -> TopKSelection {
        self.selection
    }

    /// Exact selection: indices of the `k` largest |g|.
    ///
    /// Magnitudes are compared through the total order of
    /// [`kernels::abs_key`] (equivalent to `total_cmp` on `|g|`), so NaN
    /// elements rank deterministically above everything instead of making
    /// the comparator intransitive — with the old `partial_cmp(..)
    /// .unwrap_or(Equal)` comparator, ranks seeing the same gradient in a
    /// different memory rotation could select *different* indices.
    fn select_exact(&self, grad: &[f32]) -> Vec<u32> {
        kernels::select_topk(grad, self.k)
    }

    /// Sampled-threshold selection: estimate the k-th magnitude from a
    /// random sample, take everything above it, cap at `k`.
    fn select_sampled(&mut self, grad: &[f32]) -> Vec<u32> {
        let n = grad.len();
        let k = self.k.min(n);
        if k == n {
            return (0..n as u32).collect();
        }
        // Sample max(1000, 1%) magnitude keys (see `kernels::abs_key`: the
        // integer key order equals `total_cmp` on |g|, so NaNs cannot
        // poison the quantile estimate).
        let sample_size = (n / 100).max(1000).min(n);
        let mut sample: Vec<u32> = if sample_size == n {
            grad.iter().map(|&g| kernels::abs_key(g)).collect()
        } else {
            (0..sample_size)
                .map(|_| kernels::abs_key(grad[self.rng.gen_range(0..n)]))
                .collect()
        };
        // The sample quantile matching a k/n tail.
        let tail = ((k as f64 / n as f64) * sample_size as f64).ceil() as usize;
        let tail = tail.clamp(1, sample_size);
        sample.select_nth_unstable_by(tail - 1, |a, b| b.cmp(a));
        let threshold = sample[tail - 1];
        // One sweep collecting everything >= threshold, capped at k.
        let mut idx: Vec<u32> = Vec::with_capacity(k + k / 4);
        for (i, &g) in grad.iter().enumerate() {
            if kernels::abs_key(g) >= threshold {
                idx.push(i as u32);
            }
        }
        if idx.len() > k {
            // Overshoot: keep the k largest among the candidates (cheap —
            // the candidate set is already ≈ k, so its keys are read on
            // the fly rather than for the whole gradient).
            let key = |i: u32| kernels::abs_key(grad[i as usize]);
            idx.select_nth_unstable_by(k - 1, |&a, &b| key(b).cmp(&key(a)));
            idx.truncate(k);
            idx.sort_unstable();
        }
        idx
    }

    /// Scatter-adds `world_size` gathered sparse payloads into a dense
    /// average.
    ///
    /// `indices`/`values` are the rank-order concatenations produced by
    /// all-gathering each worker's arrays (each contributing `per_rank`
    /// entries); the result is `(1/world_size) Σ_w sparse_w`, matching the
    /// gradient averaging of S-SGD.
    ///
    /// # Panics
    ///
    /// Panics if array lengths disagree or an index is out of bounds.
    pub fn scatter_average(indices: &[u32], values: &[f32], world_size: usize, out: &mut [f32]) {
        assert_eq!(indices.len(), values.len(), "index/value length mismatch");
        out.fill(0.0);
        let inv = 1.0 / world_size as f32;
        for (&i, &v) in indices.iter().zip(values) {
            out[i as usize] += v * inv;
        }
    }
}

impl Compressor for TopK {
    fn name(&self) -> &'static str {
        match self.selection {
            TopKSelection::Exact => "topk",
            TopKSelection::Sampled => "topk-sampled",
        }
    }

    fn compress(&mut self, grad: &[f32]) -> Payload {
        let indices = match self.selection {
            TopKSelection::Exact => self.select_exact(grad),
            TopKSelection::Sampled => self.select_sampled(grad),
        };
        let values = indices.iter().map(|&i| grad[i as usize]).collect();
        Payload::Sparse {
            indices,
            values,
            len: grad.len(),
        }
    }

    fn decompress(&self, payload: &Payload, out: &mut [f32]) {
        let (indices, values) = sparse_pairs(payload, out.len());
        out.fill(0.0);
        for (&i, &v) in indices.iter().zip(values) {
            out[i as usize] = v;
        }
    }

    /// One copy of `corrected`, then `corrected[i] − v` at the `k`
    /// selected indices: the default's zero-fill and whole-buffer subtract
    /// skipped, with the same bits, since `c − 0.0` is `c` for every
    /// non-NaN `c` (`−0.0` and `±∞` included).
    fn residual_into(&self, payload: &Payload, corrected: &[f32], residual: &mut [f32]) {
        let (indices, values) = sparse_pairs(payload, residual.len());
        residual.copy_from_slice(corrected);
        for (&i, &v) in indices.iter().zip(values) {
            residual[i as usize] = corrected[i as usize] - v;
        }
    }
}

/// The (index, value) arrays of a Top-k payload whose dense length must be
/// `len`.
fn sparse_pairs(payload: &Payload, len: usize) -> (&[u32], &[f32]) {
    match payload {
        Payload::Sparse {
            indices,
            values,
            len: dense,
        } => {
            assert_eq!(len, *dense, "output length mismatch");
            (indices, values)
        }
        // allow_verify(reason: contract panic on payload-kind mismatch, pinned by tests)
        _ => panic!("TopK expects Payload::Sparse"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_keeps_largest_magnitudes() {
        let mut c = TopK::new(3);
        let p = c.compress(&[1.0, -10.0, 2.0, 0.5, 9.0, -3.0]);
        match &p {
            Payload::Sparse {
                indices,
                values,
                len,
            } => {
                assert_eq!(*len, 6);
                assert_eq!(indices, &vec![1, 4, 5]);
                assert_eq!(values, &vec![-10.0, 9.0, -3.0]);
            }
            _ => panic!("wrong payload"),
        }
    }

    #[test]
    fn k_larger_than_input_keeps_all() {
        let mut c = TopK::new(10);
        let grad = [3.0, -1.0];
        let rt = c.round_trip(&grad);
        assert_eq!(rt, grad.to_vec());
    }

    #[test]
    fn sampled_selection_is_close_to_exact() {
        use acp_tensor::rng::seeded_rng;
        use rand::Rng;
        let mut rng = seeded_rng(11);
        let grad: Vec<f32> = (0..50_000).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let k = 500;
        let mut exact = TopK::new(k);
        let mut sampled = TopK::with_selection(k, TopKSelection::Sampled, 3);
        let pe = exact.compress(&grad);
        let ps = sampled.compress(&grad);
        let (ne, ns) = match (&pe, &ps) {
            (Payload::Sparse { values: ve, .. }, Payload::Sparse { values: vs, .. }) => {
                (ve.len(), vs.len())
            }
            _ => panic!("wrong payloads"),
        };
        assert_eq!(ne, k);
        // Sampled returns approximately k (within 40%) and never more than k.
        assert!(ns <= k);
        assert!(ns > k / 4, "sampled kept only {ns} of {k}");
        // Energy captured by sampled selection close to exact.
        let energy = |p: &Payload| match p {
            Payload::Sparse { values, .. } => values.iter().map(|v| v * v).sum::<f32>(),
            _ => 0.0,
        };
        assert!(energy(&ps) > 0.5 * energy(&pe));
    }

    #[test]
    fn scatter_average_merges_overlapping_coordinates() {
        // worker 0 selects {0: 4.0, 2: 2.0}; worker 1 selects {0: 2.0, 3: 6.0}.
        let indices = [0u32, 2, 0, 3];
        let values = [4.0f32, 2.0, 2.0, 6.0];
        let mut out = vec![0.0; 4];
        TopK::scatter_average(&indices, &values, 2, &mut out);
        assert_eq!(out, vec![3.0, 0.0, 1.0, 3.0]);
    }

    #[test]
    fn compression_ratio_scales_with_k() {
        let mut c = TopK::new(10);
        let grad = vec![1.0f32; 10_000];
        let p = c.compress(&grad);
        // 10k floats = 40000 bytes vs 10*(4+4)+4 = 84 bytes ≈ 476x.
        assert!(p.compression_ratio() > 400.0);
    }

    #[test]
    fn decompress_zeroes_unselected() {
        let mut c = TopK::new(1);
        let mut out = vec![7.0; 3];
        let p = c.compress(&[0.0, 5.0, 0.0]);
        c.decompress(&p, &mut out);
        assert_eq!(out, vec![0.0, 5.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_panics() {
        TopK::new(0);
    }

    /// Regression test for the NaN-unsafe comparator: with the old
    /// `partial_cmp(..).unwrap_or(Equal)` ordering, a NaN compared `Equal`
    /// to every element, so `select_nth_unstable_by` could include or
    /// exclude it depending on memory layout — ranks scanning the same
    /// logical gradient in different element orders selected *different*
    /// coordinate sets and diverged. The total-order key makes NaN rank
    /// above everything, deterministically, in every layout.
    #[test]
    fn nan_selection_is_layout_invariant() {
        // LCG-generated dataset empirically verified to make the old
        // comparator select different value sets across rotations
        // (n = 124, four NaNs, k = 11).
        let mut state: u32 = 1;
        let mut lcg = move || {
            state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            state
        };
        let n = 16 + (lcg() as usize % 240);
        let nan_count = 1 + lcg() as usize % 4;
        let k = 1 + lcg() as usize % (n / 2);
        let mut base: Vec<f32> = (0..n).map(|_| (lcg() % 1000) as f32 / 100.0).collect();
        for _ in 0..nan_count {
            let p = lcg() as usize % n;
            base[p] = f32::NAN;
        }
        // Selected multiset of value bits must be identical for every
        // rotation of the same data (a proxy for per-rank layout skew).
        let canonical: Option<Vec<u32>> = None;
        let mut canonical = canonical;
        for rot in 0..base.len() {
            let mut rotated = base.clone();
            rotated.rotate_left(rot);
            let mut c = TopK::new(k);
            let p = c.compress(&rotated);
            let mut picked: Vec<u32> = match &p {
                Payload::Sparse { values, .. } => values.iter().map(|v| v.to_bits()).collect(),
                _ => panic!("wrong payload"),
            };
            picked.sort_unstable();
            match &canonical {
                None => canonical = Some(picked),
                Some(want) => assert_eq!(&picked, want, "rotation {rot} diverged"),
            }
        }
        // And the NaN itself is always selected: it ranks above +inf.
        let sel = canonical.unwrap();
        assert!(
            sel.iter().any(|b| f32::from_bits(*b).is_nan()),
            "NaN must rank above every finite magnitude"
        );
    }

    #[test]
    fn sampled_overshoot_ranks_candidates_as_before() {
        // 52 elements share the top magnitude 0.5, more than k, so the
        // threshold overshoots and the candidates are ranked among
        // themselves; which tied ones survive is the partition's choice.
        // Pinned from the version that ranked through a gradient-sized
        // key array.
        let grad: Vec<f32> = (0..5000)
            .map(|i| ((i * 37) % 97) as f32 / 97.0 - 0.5)
            .collect();
        let mut every_97th: Vec<u32> = (0..52).map(|j| j * 97).collect();
        every_97th.retain(|&i| i != 2425 && i != 4947);
        let pinned = [
            (50, 9, every_97th),
            (7, 1, vec![194, 291, 388, 485, 582, 679, 2328]),
        ];
        for (k, seed, want) in pinned {
            let mut c = TopK::with_selection(k, TopKSelection::Sampled, seed);
            match c.compress(&grad) {
                Payload::Sparse { indices, .. } => assert_eq!(indices, want, "k {k}"),
                _ => panic!("wrong payload"),
            }
        }
    }

    #[test]
    fn sampled_selection_tolerates_nans() {
        // The sampled threshold path must also stay deterministic and
        // terminate with NaNs present (the old float comparator could
        // return garbage quantiles).
        let mut grad: Vec<f32> = (0..5000).map(|i| (i % 97) as f32 / 97.0).collect();
        grad[123] = f32::NAN;
        grad[4321] = f32::NAN;
        let mut a = TopK::with_selection(50, TopKSelection::Sampled, 9);
        let mut b = TopK::with_selection(50, TopKSelection::Sampled, 9);
        let pa = a.compress(&grad);
        let pb = b.compress(&grad);
        match (&pa, &pb) {
            (Payload::Sparse { indices: ia, .. }, Payload::Sparse { indices: ib, .. }) => {
                assert_eq!(ia, ib);
                assert!(!ia.is_empty());
            }
            _ => panic!("wrong payloads"),
        }
    }
}
