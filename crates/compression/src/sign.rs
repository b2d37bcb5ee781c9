//! Sign-SGD with majority vote (Bernstein et al., ICML 2018).
//!
//! Each worker transmits only the signs of its gradient, bit-packed 32 to a
//! word — the 32× compression ratio of Table I. Signs are not additive
//! (+1 ⊕ +1 overflows the alphabet), so aggregation uses all-gather followed
//! by an element-wise **majority vote** across workers, exactly the scheme
//! the paper evaluates.

use crate::compressor::Compressor;
use crate::kernels;
use crate::payload::Payload;

/// Sign-SGD compressor.
///
/// With [`SignSgd::scaled`] the payload carries the mean absolute gradient
/// as a magnitude scale (the 1-bit-SGD-style variant that converges without
/// tuning the learning rate down); with plain signs the decode produces ±1.
///
/// # Examples
///
/// ```
/// use acp_compression::{Compressor, SignSgd};
///
/// let mut c = SignSgd::plain();
/// let rt = c.round_trip(&[0.3, -0.7, 0.0]);
/// assert_eq!(rt, vec![1.0, -1.0, 1.0]); // zero maps to +1
/// ```
#[derive(Debug, Clone, Default)]
pub struct SignSgd {
    scaled: bool,
}

impl SignSgd {
    /// Pure sign compressor — decoded elements are ±1.
    pub fn plain() -> Self {
        SignSgd { scaled: false }
    }

    /// Magnitude-scaled variant — decoded elements are ±mean(|g|).
    pub fn scaled() -> Self {
        SignSgd { scaled: true }
    }

    /// Whether this instance scales decoded signs by the mean magnitude.
    pub fn is_scaled(&self) -> bool {
        self.scaled
    }

    /// Bit-packs the signs of `grad` (1 = non-negative).
    pub fn pack(grad: &[f32]) -> Vec<u32> {
        kernels::pack_signs(grad)
    }

    /// Reads the sign bit for element `i` from packed `words`.
    pub fn sign_at(words: &[u32], i: usize) -> f32 {
        if words[i / 32] >> (i % 32) & 1 == 1 {
            1.0
        } else {
            -1.0
        }
    }

    /// Majority vote across `world_size` gathered payloads.
    ///
    /// `gathered` is the rank-order concatenation of every worker's packed
    /// words (as produced by an all-gather of [`Payload::Signs`] words);
    /// `scales` holds each worker's magnitude scale. The result for element
    /// `i` is `sign(Σ_w sign_w(i)) · mean(scales)`, the majority-vote rule
    /// of Bernstein et al. Ties (even world size) resolve to +1.
    ///
    /// # Panics
    ///
    /// Panics if `gathered.len()` is not `world_size` times the packed
    /// length for `len` elements, or `scales.len() != world_size`.
    pub fn majority_vote(
        gathered: &[u32],
        scales: &[f32],
        len: usize,
        world_size: usize,
        out: &mut [f32],
    ) {
        kernels::majority_vote_into(gathered, scales, len, world_size, out);
    }
}

impl Compressor for SignSgd {
    fn name(&self) -> &'static str {
        if self.scaled {
            "signsgd-scaled"
        } else {
            "signsgd"
        }
    }

    /// The scaled variant packs the signs and sums the magnitudes in one
    /// pass ([`kernels::pack_signs_summing`]).
    fn compress(&mut self, grad: &[f32]) -> Payload {
        let (words, scale) = if self.scaled && !grad.is_empty() {
            let mut words = vec![0u32; grad.len().div_ceil(32)];
            let sum = kernels::pack_signs_summing(grad, 0, &mut words, 0.0);
            (words, sum / grad.len() as f32)
        } else {
            (Self::pack(grad), 1.0)
        };
        Payload::Signs {
            words,
            len: grad.len(),
            scale,
        }
    }

    fn decompress(&self, payload: &Payload, out: &mut [f32]) {
        let (words, scale) = sign_parts(payload, out.len());
        kernels::unpack_signs_into(words, scale, out);
    }

    /// `buf[i] −= ±scale` straight from the packed words: the default's
    /// expanded temporary skipped, with the same arithmetic.
    fn residual_in_place(&self, payload: &Payload, buf: &mut [f32]) {
        let (words, scale) = sign_parts(payload, buf.len());
        kernels::subtract_signs_into(words, scale, buf);
    }
}

/// The packed words and scale of a sign payload whose dense length must be
/// `len`.
fn sign_parts(payload: &Payload, len: usize) -> (&[u32], f32) {
    match payload {
        Payload::Signs {
            words,
            len: dense,
            scale,
        } => {
            assert_eq!(len, *dense, "output length mismatch");
            (words, *scale)
        }
        // allow_verify(reason: contract panic on payload-kind mismatch, pinned by tests)
        _ => panic!("SignSgd expects Payload::Signs"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_unpack_round_trip() {
        // IEEE: -0.0 >= 0.0 is true, so both zeros map to +1.
        let grad = [0.5, -0.25, 3.0, -0.0, 0.0, -7.0, 1e-9];
        let words = SignSgd::pack(&grad);
        let expect = [1.0, -1.0, 1.0, 1.0, 1.0, -1.0, 1.0];
        for (i, &e) in expect.iter().enumerate() {
            assert_eq!(SignSgd::sign_at(&words, i), e, "element {i}");
        }
    }

    #[test]
    fn compression_ratio_is_32x() {
        let mut c = SignSgd::plain();
        let grad = vec![1.0f32; 4096];
        let p = c.compress(&grad);
        // 16384 bytes dense vs 512 + 8 header.
        assert!(p.compression_ratio() > 31.0);
    }

    #[test]
    fn scaled_variant_preserves_mean_magnitude() {
        let mut c = SignSgd::scaled();
        let grad = [2.0, -4.0, 6.0, -8.0];
        let rt = c.round_trip(&grad);
        assert_eq!(rt, vec![5.0, -5.0, 5.0, -5.0]);
    }

    #[test]
    fn majority_vote_three_workers() {
        let grads = [
            vec![1.0f32, -1.0, 1.0],
            vec![1.0f32, 1.0, -1.0],
            vec![-1.0f32, -1.0, -1.0],
        ];
        let words_per_rank = 1;
        let mut gathered = Vec::new();
        let mut scales = Vec::new();
        for g in &grads {
            gathered.extend(SignSgd::pack(g));
            scales.push(1.0);
        }
        assert_eq!(gathered.len(), 3 * words_per_rank);
        let mut out = vec![0.0; 3];
        SignSgd::majority_vote(&gathered, &scales, 3, 3, &mut out);
        assert_eq!(out, vec![1.0, -1.0, -1.0]);
    }

    #[test]
    fn majority_vote_tie_resolves_positive() {
        let gathered = [SignSgd::pack(&[1.0]), SignSgd::pack(&[-1.0])].concat();
        let mut out = vec![0.0; 1];
        SignSgd::majority_vote(&gathered, &[1.0, 1.0], 1, 2, &mut out);
        assert_eq!(out, vec![1.0]);
    }

    #[test]
    fn majority_vote_averages_scales() {
        let gathered = [SignSgd::pack(&[1.0]), SignSgd::pack(&[1.0])].concat();
        let mut out = vec![0.0; 1];
        SignSgd::majority_vote(&gathered, &[2.0, 4.0], 1, 2, &mut out);
        assert_eq!(out, vec![3.0]);
    }

    #[test]
    fn non_multiple_of_32_lengths() {
        let grad: Vec<f32> = (0..45)
            .map(|i| if i % 3 == 0 { -1.0 } else { 1.0 })
            .collect();
        let mut c = SignSgd::plain();
        let rt = c.round_trip(&grad);
        for (i, v) in rt.iter().enumerate() {
            assert_eq!(*v, if i % 3 == 0 { -1.0 } else { 1.0 });
        }
    }

    #[test]
    fn tail_word_bits_round_trip_at_every_offset() {
        // Every length around the 32-bit word boundaries: the tail word
        // must carry exactly `len % 32` live bits and round-trip them.
        for len in [1usize, 5, 31, 32, 33, 63, 64, 65, 95, 96, 97] {
            let grad: Vec<f32> = (0..len)
                .map(|i| if (i * 7 + len) % 5 < 2 { -1.0 } else { 1.0 })
                .collect();
            let words = SignSgd::pack(&grad);
            assert_eq!(words.len(), len.div_ceil(32), "len {len}");
            // Unused tail bits stay zero (wire determinism).
            if len % 32 != 0 {
                let tail = words[len / 32];
                assert_eq!(tail >> (len % 32), 0, "tail garbage at len {len}");
            }
            let mut c = SignSgd::plain();
            let rt = c.round_trip(&grad);
            assert_eq!(rt, grad, "len {len}");
        }
    }

    #[test]
    fn tail_word_majority_vote_matches_scalar_reference() {
        use crate::kernels;
        for len in [33usize, 45, 65, 97] {
            for world in 2usize..=5 {
                let mut gathered = Vec::new();
                for w in 0..world {
                    let grad: Vec<f32> = (0..len)
                        .map(|i| if (i + w) % 3 == 0 { -1.0 } else { 1.0 })
                        .collect();
                    gathered.extend(SignSgd::pack(&grad));
                }
                let scales = vec![1.0f32; world];
                let mut fast = vec![0.0f32; len];
                let mut slow = vec![0.0f32; len];
                SignSgd::majority_vote(&gathered, &scales, len, world, &mut fast);
                kernels::reference::majority_vote_into(&gathered, &scales, len, world, &mut slow);
                assert_eq!(fast, slow, "len {len} world {world}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "expects Payload::Signs")]
    fn wrong_payload_panics() {
        let c = SignSgd::plain();
        let mut out = vec![0.0; 1];
        c.decompress(&Payload::Dense(vec![1.0]), &mut out);
    }
}
