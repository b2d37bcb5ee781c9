//! Self-describing compressed gradient payloads with wire-byte accounting.

use serde::{Deserialize, Serialize};

/// A compressed gradient as it would travel on the network.
///
/// Every variant knows its exact wire size, so compression ratios (Table I)
/// and communication volumes (Table II) are computed from real payloads, not
/// nominal formulas.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Payload {
    /// Uncompressed `f32` gradient (S-SGD).
    Dense(Vec<f32>),
    /// Bit-packed signs (Sign-SGD): bit `i` of `words[i / 32]` is 1 when
    /// gradient element `i` is non-negative.
    Signs {
        /// Packed sign bits, 32 per word.
        words: Vec<u32>,
        /// Number of gradient elements represented.
        len: usize,
        /// Optional magnitude scale (mean |g|); `1.0` for pure Sign-SGD.
        scale: f32,
    },
    /// Sparse selection (Top-k): parallel index/value arrays.
    Sparse {
        /// Coordinates of the selected elements.
        indices: Vec<u32>,
        /// Values of the selected elements.
        values: Vec<f32>,
        /// Length of the dense gradient they came from.
        len: usize,
    },
    /// A low-rank factor (the `P` or `Q` of Power-SGD / ACP-SGD), stored
    /// row-major.
    LowRank {
        /// Factor elements, row-major.
        data: Vec<f32>,
        /// Factor rows (`n` for P, `m` for Q).
        rows: usize,
        /// Factor columns (the rank `r`).
        cols: usize,
    },
}

impl Payload {
    /// Exact bytes this payload occupies on the wire.
    ///
    /// Counts data plus the per-payload scalar headers (length/scale), but
    /// not transport framing.
    pub fn wire_bytes(&self) -> usize {
        match self {
            Payload::Dense(v) => 4 * v.len(),
            Payload::Signs { words, .. } => 4 * words.len() + 8,
            Payload::Sparse {
                indices, values, ..
            } => 4 * indices.len() + 4 * values.len() + 4,
            Payload::LowRank { data, .. } => 4 * data.len(),
        }
    }

    /// Number of dense gradient elements this payload stands for.
    pub fn dense_len(&self) -> usize {
        match self {
            Payload::Dense(v) => v.len(),
            Payload::Signs { len, .. } => *len,
            Payload::Sparse { len, .. } => *len,
            Payload::LowRank { rows, cols, .. } => rows * cols,
        }
    }

    /// Compression ratio relative to sending the dense `f32` gradient.
    pub fn compression_ratio(&self) -> f64 {
        let dense = 4 * self.dense_len();
        dense as f64 / self.wire_bytes().max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_wire_bytes() {
        assert_eq!(Payload::Dense(vec![0.0; 10]).wire_bytes(), 40);
    }

    #[test]
    fn signs_pack_32_to_1() {
        let p = Payload::Signs {
            words: vec![0; 32],
            len: 1024,
            scale: 1.0,
        };
        assert_eq!(p.dense_len(), 1024);
        // 1024 floats = 4096 bytes -> 128 bytes + 8 header.
        assert_eq!(p.wire_bytes(), 136);
        assert!(p.compression_ratio() > 30.0);
    }

    #[test]
    fn sparse_counts_both_arrays() {
        let p = Payload::Sparse {
            indices: vec![0; 5],
            values: vec![0.0; 5],
            len: 5000,
        };
        assert_eq!(p.wire_bytes(), 44);
        // 5000*4 / 44 ≈ 454x.
        assert!(p.compression_ratio() > 400.0);
    }

    #[test]
    fn low_rank_dense_len_is_product() {
        let p = Payload::LowRank {
            data: vec![0.0; 8],
            rows: 100,
            cols: 4,
        };
        assert_eq!(p.dense_len(), 400);
        assert_eq!(p.wire_bytes(), 32);
    }
}
