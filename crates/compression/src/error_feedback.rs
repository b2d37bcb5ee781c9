//! Error feedback (EF) for biased compressors (Seide et al. 2014;
//! Karimireddy et al., ICML 2019).
//!
//! Biased compressors (Sign, Top-k, low-rank) drop part of the gradient
//! every step; error feedback accumulates what was dropped and re-injects
//! it into the next step's gradient, which restores convergence (the
//! paper's Fig. 7 ablation). This module provides the residual bookkeeping
//! as a wrapper usable with any [`Compressor`]; the low-rank state machines
//! in [`crate::powersgd`] and [`crate::acp`] carry their own matrix-shaped
//! residuals following Algorithm 2.

use crate::compressor::Compressor;
use crate::payload::Payload;

/// Wraps a [`Compressor`] with an error-feedback residual.
///
/// On each call the residual is added to the incoming gradient before
/// compression, and updated to the part of the corrected gradient the
/// compressed payload fails to represent:
///
/// ```text
/// g'  = g + e
/// c   = compress(g')
/// e  ← g' − decompress(c)
/// ```
///
/// A caller that owns the corrected buffer hands it over
/// ([`ErrorFeedback::compress_swapped`]): the last line runs in that
/// buffer ([`Compressor::residual_in_place`]), which then becomes the
/// residual, and the caller gets the old residual's storage back for its
/// next [`ErrorFeedback::correct_from`] to overwrite. No gradient is
/// copied for the residual, and the wrapper and its caller still hold two
/// gradient-sized buffers between them.
///
/// # Examples
///
/// ```
/// use acp_compression::{Compressor, ErrorFeedback, TopK};
///
/// let mut ef = ErrorFeedback::new(TopK::new(1));
/// // First step drops the small element…
/// ef.compress(&[1.0, 0.4]);
/// // …which is fed back; after enough steps everything is transmitted.
/// let p = ef.compress(&[1.0, 0.4]);
/// # let _ = p;
/// assert!(ef.residual_norm() > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct ErrorFeedback<C> {
    inner: C,
    residual: Vec<f32>,
}

impl<C: Compressor> ErrorFeedback<C> {
    /// Wraps `inner` with a fresh (zero) residual.
    pub fn new(inner: C) -> Self {
        ErrorFeedback {
            inner,
            residual: Vec::new(),
        }
    }

    /// Borrows the wrapped compressor.
    pub fn inner(&self) -> &C {
        &self.inner
    }

    /// Consumes the wrapper, returning the wrapped compressor.
    pub fn into_inner(self) -> C {
        self.inner
    }

    /// L2 norm of the current residual (0 before the first compression).
    pub fn residual_norm(&self) -> f32 {
        self.residual.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Resets the residual to zero.
    pub fn reset(&mut self) {
        self.residual.fill(0.0);
    }

    /// First half of a step for a caller whose gradient arrives in pieces:
    /// writes `g + e` for the elements `offset..offset + grad.len()` into
    /// the same range of `corrected` (the whole corrected buffer, whose
    /// length sizes the residual). The addition is the copy; the residual
    /// is only read. Once every range is written, in any order,
    /// [`ErrorFeedback::compress_swapped`] finishes the step.
    ///
    /// # Panics
    ///
    /// Panics if the range does not fit in `corrected`.
    pub fn correct_from(&mut self, grad: &[f32], offset: usize, corrected: &mut [f32]) {
        let range = offset..offset + grad.len();
        let residual = &self.residual_for(corrected.len())[range.clone()];
        for ((c, g), e) in corrected[range].iter_mut().zip(grad).zip(residual) {
            *c = g + e;
        }
    }

    /// The residual `e` the next step adds, sized for a gradient of `len`
    /// elements: for a caller that writes `g + e` with its own kernel
    /// ([`kernels::correct_collecting`](crate::kernels::correct_collecting))
    /// instead of [`ErrorFeedback::correct_from`].
    pub fn residual_for(&mut self, len: usize) -> &[f32] {
        self.size_residual(len);
        &self.residual
    }

    /// Second half of a step for a caller that hands its corrected
    /// gradient `g + e` over: compresses it, turns it into the residual in
    /// place, and swaps it with the old residual. `corrected` comes back
    /// holding the old residual's storage, whose contents are stale; the
    /// next step's [`ErrorFeedback::correct_from`] overwrites all of it.
    /// Every step of this wrapper ends here.
    pub fn compress_swapped(&mut self, corrected: &mut Vec<f32>) -> Payload {
        self.compress_swapped_with(corrected, C::compress)
    }

    /// [`ErrorFeedback::compress_swapped`] with the compression done by
    /// `compress`, given the wrapped compressor and `g + e`: for a caller
    /// that selects by other means what the wrapped compressor would
    /// select. The residual is the wrapped compressor's, so the payload
    /// must be one it could have produced from `corrected`.
    pub fn compress_swapped_with(
        &mut self,
        corrected: &mut Vec<f32>,
        compress: impl FnOnce(&mut C, &[f32]) -> Payload,
    ) -> Payload {
        self.size_residual(corrected.len());
        let payload = compress(&mut self.inner, corrected);
        // e <- g' - decompress(c), in g''s own storage
        self.inner.residual_in_place(&payload, corrected);
        std::mem::swap(corrected, &mut self.residual);
        payload
    }

    /// A gradient of a new length starts from a zero residual.
    fn size_residual(&mut self, len: usize) {
        if self.residual.len() != len {
            self.residual = vec![0.0; len];
        }
    }
}

impl<C: Compressor> Compressor for ErrorFeedback<C> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn compress(&mut self, grad: &[f32]) -> Payload {
        let mut corrected = vec![0.0; grad.len()];
        self.correct_from(grad, 0, &mut corrected);
        self.compress_swapped(&mut corrected)
    }

    fn decompress(&self, payload: &Payload, out: &mut [f32]) {
        self.inner.decompress(payload, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sign::SignSgd;
    use crate::topk::TopK;

    /// Oracle: g' = g + e into a copy, e = g' - decompress(c) through a
    /// zeroed temporary — the copy and the temporary `compress_swapped` drops.
    fn oracle<C: Compressor>(inner: &mut C, residual: &mut [f32], grad: &[f32]) -> Payload {
        let corrected: Vec<f32> = grad.iter().zip(&*residual).map(|(g, e)| g + e).collect();
        let payload = inner.compress(&corrected);
        let mut approx = vec![0.0; grad.len()];
        inner.decompress(&payload, &mut approx);
        for ((e, c), a) in residual.iter_mut().zip(&corrected).zip(&approx) {
            *e = c - a;
        }
        payload
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn in_place_compress_matches_the_out_of_place_formulation_bitwise() {
        let mut ef = ErrorFeedback::new(TopK::new(3));
        let mut split = ErrorFeedback::new(TopK::new(3));
        let (mut inner, mut residual) = (TopK::new(3), vec![0.0f32; 17]);
        for step in 0..6 {
            let grad: Vec<f32> = (0..17)
                .map(|i| match (i + step) % 5 {
                    0 => -0.0,
                    _ => ((i * 7 + step * 3) as f32 * 0.37).sin() * 4.0,
                })
                .collect();
            let mut owned = vec![f32::NAN; grad.len()];
            ef.correct_from(&grad, 0, &mut owned);
            // The split form, corrected in three pieces out of order.
            let mut corrected = vec![f32::NAN; grad.len()];
            for range in [11..17, 0..4, 4..11] {
                split.correct_from(&grad[range.clone()], range.start, &mut corrected);
            }
            assert_eq!(bits(&corrected), bits(&owned), "g + e, step {step}");
            let fast = ef.compress_swapped(&mut owned);
            let pieces = split.compress_swapped(&mut corrected);
            let slow = oracle(&mut inner, &mut residual, &grad);
            assert_eq!(fast, slow, "payload, step {step}");
            assert_eq!(pieces, slow, "split payload, step {step}");
            assert_eq!(bits(&ef.residual), bits(&residual), "residual, step {step}");
            assert_eq!(
                bits(&split.residual),
                bits(&residual),
                "split residual, step {step}"
            );
        }
    }

    /// A compressor with only the required methods, so `residual_in_place`
    /// is the trait's default decompress-and-subtract.
    struct DefaultResidual<C>(C);

    /// The residual into a separate buffer: a copy of `corrected`, then
    /// [`Compressor::residual_in_place`], for every compressor.
    trait ResidualInto: Compressor {
        fn residual_into(&self, payload: &Payload, corrected: &[f32], residual: &mut [f32]) {
            residual.copy_from_slice(corrected);
            self.residual_in_place(payload, residual);
        }
    }

    impl<C: Compressor> ResidualInto for C {}

    impl<C: Compressor> Compressor for DefaultResidual<C> {
        fn name(&self) -> &'static str {
            self.0.name()
        }

        fn compress(&mut self, grad: &[f32]) -> Payload {
            self.0.compress(grad)
        }

        fn decompress(&self, payload: &Payload, out: &mut [f32]) {
            self.0.decompress(payload, out);
        }
    }

    /// Signed zeros, infinities and subnormals among ordinary values, each
    /// about one element in nine; no NaN, which is outside the
    /// bit-identity contract.
    fn awkward(len: usize, step: usize) -> Vec<f32> {
        (0..len)
            .map(|i| match (i + step) % 9 {
                0 => 0.0,
                1 => -0.0,
                2 => f32::from_bits(1 + i as u32),
                3 => -f32::from_bits(0x7f_0000 + i as u32),
                4 => f32::INFINITY,
                5 => f32::NEG_INFINITY,
                _ => ((i * 5 + step) as f32 * 0.61).cos() * 3.0,
            })
            .collect()
    }

    #[test]
    fn topk_residual_into_matches_the_default_bitwise() {
        for len in [1usize, 9, 40, 333] {
            for k in [1usize, 3, len / 2 + 1, len] {
                for step in 0..3 {
                    let corrected = awkward(len, step);
                    let mut topk = TopK::new(k);
                    let payload = topk.compress(&corrected);
                    let mut fast = vec![f32::NAN; len];
                    topk.residual_into(&payload, &corrected, &mut fast);
                    let mut slow = vec![f32::NAN; len];
                    DefaultResidual(TopK::new(k)).residual_into(&payload, &corrected, &mut slow);
                    assert_eq!(bits(&fast), bits(&slow), "len {len} k {k} step {step}");
                }
            }
        }
    }

    /// A payload's integer part and the bits of its floats, so that NaN
    /// values compare equal to themselves.
    fn payload_bits(p: &Payload) -> (Vec<u32>, Vec<u32>) {
        match p {
            Payload::Sparse {
                indices, values, ..
            } => (indices.clone(), bits(values)),
            Payload::Signs { words, scale, .. } => (words.clone(), vec![scale.to_bits()]),
            _ => panic!("TopK and SignSgd payloads are sparse or signs"),
        }
    }

    /// Asserts that `fast.residual_in_place` gives the default's bits for
    /// the payload it returns on each of a few awkward gradients.
    fn assert_in_place_matches_default<C: Compressor + Clone>(mut fast: C, len: usize, what: &str) {
        let slow = DefaultResidual(fast.clone());
        for step in 0..3 {
            let corrected = awkward(len, step);
            let payload = fast.compress(&corrected);
            let mut got = corrected.clone();
            fast.residual_in_place(&payload, &mut got);
            let mut want = corrected.clone();
            slow.residual_in_place(&payload, &mut want);
            assert_eq!(bits(&got), bits(&want), "{what} len {len} step {step}");
        }
    }

    #[test]
    fn residual_in_place_matches_the_default_bitwise() {
        // 1 << 16 and past it, the sign kernel's pooled path.
        for len in [1usize, 9, 31, 32, 33, 40, 333, 1 << 16, (1 << 16) + 45] {
            for k in [1usize, 3, len / 2 + 1, len] {
                assert_in_place_matches_default(TopK::new(k), len, &format!("topk k {k}"));
            }
            assert_in_place_matches_default(SignSgd::scaled(), len, "signsgd scaled");
            assert_in_place_matches_default(SignSgd::plain(), len, "signsgd plain");
        }
    }

    /// Runs `ef` against the oracle for six steps of awkward gradients,
    /// each corrected in three pieces, out of order, into one buffer that
    /// `compress_swapped` hands back with stale contents every step.
    fn assert_swapped_matches_oracle<C: Compressor + Clone>(inner: C, what: &str) {
        let mut ef = ErrorFeedback::new(inner.clone());
        let (mut oracle_inner, mut residual) = (inner, vec![0.0f32; 45]);
        let mut corrected = Vec::new();
        for step in 0..6 {
            let grad = awkward(45, step);
            corrected.resize(grad.len(), f32::NAN);
            for range in [30..45, 0..12, 12..30] {
                ef.correct_from(&grad[range.clone()], range.start, &mut corrected);
            }
            let fast = ef.compress_swapped(&mut corrected);
            assert_eq!(corrected.len(), grad.len(), "{what} step {step}");
            let slow = oracle(&mut oracle_inner, &mut residual, &grad);
            assert_eq!(
                payload_bits(&fast),
                payload_bits(&slow),
                "{what} payload, step {step}"
            );
            assert_eq!(
                bits(&ef.residual),
                bits(&residual),
                "{what} residual, step {step}"
            );
        }
    }

    #[test]
    fn swapped_compress_matches_the_oracle_bitwise() {
        assert_swapped_matches_oracle(TopK::new(7), "topk k 7");
        assert_swapped_matches_oracle(TopK::new(40), "topk k 40");
        assert_swapped_matches_oracle(SignSgd::scaled(), "signsgd scaled");
        assert_swapped_matches_oracle(SignSgd::plain(), "signsgd plain");
    }

    #[test]
    fn the_oracle_holds_through_zeros_infinities_and_subnormals() {
        // k = 7 of 45 keeps some of the ten infinities and drops the rest;
        // k = 40 also keeps zeros and subnormals. A kept infinity leaves a
        // NaN residual that later steps select, so payload values are
        // compared bit by bit.
        let parts = |p: &Payload| match p {
            Payload::Sparse {
                indices, values, ..
            } => (indices.clone(), bits(values)),
            _ => panic!("TopK payloads are sparse"),
        };
        for k in [7, 40] {
            let mut ef = ErrorFeedback::new(TopK::new(k));
            let (mut inner, mut residual) = (TopK::new(k), vec![0.0f32; 45]);
            for step in 0..6 {
                let grad = awkward(45, step);
                let mut corrected = vec![f32::NAN; grad.len()];
                ef.correct_from(&grad, 0, &mut corrected);
                let fast = ef.compress_swapped(&mut corrected);
                let slow = oracle(&mut inner, &mut residual, &grad);
                assert_eq!(parts(&fast), parts(&slow), "payload, k {k} step {step}");
                assert_eq!(
                    bits(&ef.residual),
                    bits(&residual),
                    "residual, k {k} step {step}"
                );
            }
        }
    }

    #[test]
    fn residual_captures_dropped_mass() {
        let mut ef = ErrorFeedback::new(TopK::new(1));
        ef.compress(&[3.0, 1.0]);
        // Top-1 keeps 3.0; residual = [0, 1.0].
        assert!((ef.residual_norm() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn feedback_eventually_transmits_small_elements() {
        // A constant gradient where one coordinate is always dominated:
        // without EF the small coordinate is never sent; with EF its
        // residual accumulates until it wins the Top-1 selection.
        let mut ef = ErrorFeedback::new(TopK::new(1));
        let grad = [1.0f32, 0.4];
        let mut transmitted_small = false;
        for _ in 0..10 {
            let p = ef.compress(&grad);
            if let Payload::Sparse { indices, .. } = &p {
                if indices.contains(&1) {
                    transmitted_small = true;
                }
            }
        }
        assert!(
            transmitted_small,
            "EF never let the small coordinate through"
        );
    }

    #[test]
    fn without_feedback_small_element_starves() {
        let mut c = TopK::new(1);
        let grad = [1.0f32, 0.4];
        for _ in 0..10 {
            let p = c.compress(&grad);
            if let Payload::Sparse { indices, .. } = &p {
                assert_eq!(indices, &vec![0u32]);
            }
        }
    }

    #[test]
    fn cumulative_transmission_tracks_true_sum() {
        // Over T steps, sum of decompressed payloads + final residual must
        // equal the sum of true gradients exactly (EF bookkeeping identity).
        let mut ef = ErrorFeedback::new(TopK::new(2));
        let grads = [
            vec![0.5f32, -1.0, 0.25, 2.0],
            vec![1.5f32, 0.3, -0.75, 0.1],
            vec![-0.2f32, 0.8, 0.6, -0.4],
        ];
        let mut sent_sum = vec![0.0f32; 4];
        let mut true_sum = [0.0f32; 4];
        for g in &grads {
            let p = ef.compress(g);
            let mut dec = vec![0.0; 4];
            ef.decompress(&p, &mut dec);
            for i in 0..4 {
                sent_sum[i] += dec[i];
                true_sum[i] += g[i];
            }
        }
        // true_sum = sent_sum + residual
        let residual: Vec<f32> = true_sum.iter().zip(&sent_sum).map(|(t, s)| t - s).collect();
        let res_norm: f32 = residual.iter().map(|v| v * v).sum::<f32>().sqrt();
        assert!((res_norm - ef.residual_norm()).abs() < 1e-5);
    }

    #[test]
    fn reset_clears_residual() {
        let mut ef = ErrorFeedback::new(SignSgd::scaled());
        ef.compress(&[1.0, -2.0, 3.0]);
        assert!(ef.residual_norm() > 0.0);
        ef.reset();
        assert_eq!(ef.residual_norm(), 0.0);
    }

    #[test]
    fn residual_resizes_with_gradient() {
        let mut ef = ErrorFeedback::new(TopK::new(1));
        ef.compress(&[1.0, 2.0]);
        ef.compress(&[1.0, 2.0, 3.0, 4.0]);
        // No panic: residual resized; norm reflects new shape.
        assert!(ef.residual_norm() >= 0.0);
    }
}
