//! Top-k sparsification (Lin et al. 2018; Shi et al., MLSys 2021).
//!
//! Transmits only the `k` largest-magnitude gradient elements with their
//! coordinates — the up-to-1000× compression of Table I. Sparse selections
//! from different workers have different coordinates, so the payloads are
//! not additive and aggregation uses all-gather + scatter-add.
//!
//! Selection is exact ([`kernels::select_topk`]). The paper (§III,
//! footnote 2) notes exact Top-k is computationally inefficient on GPUs
//! and uses **multiple-sampling threshold estimation** instead — sample
//! the magnitude distribution, take the threshold that passes ≈`k`
//! elements, then sweep once. The exact kernel here borrows the same
//! sampling, but only for a lower bound on the k-th magnitude, and then
//! verifies its result exact, so it costs about one sweep and still
//! returns exactly `k` elements. A bucket selected from step after step
//! needs no sweep at all: the aggregators carry a bound over from the
//! bucket's last step ([`kernels::next_bound`]) and collect the elements
//! that reach it while they write the bucket
//! ([`kernels::correct_collecting`]); `encode` then selects among those
//! candidates ([`kernels::select_among`]) and hands the indices to
//! [`TopK::selected`].

use crate::compressor::Compressor;
use crate::kernels;
use crate::payload::Payload;

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
}

impl TopK {
    /// Exact Top-k keeping `k` elements.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "k must be positive");
        TopK { k }
    }

    /// The configured number of elements to keep.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The payload that keeps the elements of `grad` at `indices`: what
    /// [`Compressor::compress`] sends once it has selected them.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of bounds.
    pub fn selected(grad: &[f32], indices: Vec<u32>) -> Payload {
        let values = indices.iter().map(|&i| grad[i as usize]).collect();
        Payload::Sparse {
            indices,
            values,
            len: grad.len(),
        }
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
        "topk"
    }

    fn compress(&mut self, grad: &[f32]) -> Payload {
        TopK::selected(grad, kernels::select_topk(grad, self.k))
    }

    fn decompress(&self, payload: &Payload, out: &mut [f32]) {
        let (indices, values) = sparse_pairs(payload, out.len());
        out.fill(0.0);
        for (&i, &v) in indices.iter().zip(values) {
            out[i as usize] = v;
        }
    }

    /// `buf[i] − v` at the `k` selected indices and nothing elsewhere: the
    /// default's decompression and whole-buffer subtract skipped, with the
    /// same bits, since `c − 0.0` is `c` for every non-NaN `c` (`−0.0` and
    /// `±∞` included).
    fn residual_in_place(&self, payload: &Payload, buf: &mut [f32]) {
        let (indices, values) = sparse_pairs(payload, buf.len());
        for (&i, &v) in indices.iter().zip(values) {
            buf[i as usize] -= v;
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
}
