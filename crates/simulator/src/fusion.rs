//! Tensor-fusion buffer assembly (§IV-B "Tensor Fusion" and "Buffer Size").
//!
//! Gradients are packed, in the order back-propagation produces them, into
//! fixed-capacity buffers; a buffer is flushed to one collective when the
//! next tensor would overflow it. This is PyTorch-DDP's 25 MB bucketing.
//! For ACP-SGD the buffers hold *compressed* factors, so the paper scales
//! the buffer size by the compression rate — [`compressed_buffer_bytes`] —
//! which keeps the number of buffers (and hence the WFBP/TF trade-off)
//! stable across ranks.

use serde::{Deserialize, Serialize};

/// One fusion buffer: a set of consecutive (in backward order) tensors
/// communicated by a single collective.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Bucket {
    /// Indices into the backward-order tensor list.
    pub tensor_indices: Vec<usize>,
    /// Total payload bytes of the fused collective.
    pub payload_bytes: usize,
}

/// Packs per-tensor payloads (backward order) into buckets of capacity
/// `buffer_bytes`.
///
/// * `buffer_bytes == 0` disables fusion: every tensor gets its own bucket
///   (the paper's "WFBP without TF" configuration).
/// * A tensor larger than the capacity gets a dedicated bucket.
/// * `buffer_bytes >= total` yields a single bucket ("full TF": optimal
///   fusion, no overlap).
pub fn pack_buckets(payload_bytes: &[usize], buffer_bytes: usize) -> Vec<Bucket> {
    acp_core::fusion::bucket_ranges(payload_bytes, buffer_bytes)
        .into_iter()
        .map(|range| Bucket {
            payload_bytes: payload_bytes[range.clone()].iter().sum(),
            tensor_indices: range.collect(),
        })
        .collect()
}

/// Scales the default buffer size by the compression rate, the paper's rule
/// for sizing ACP-SGD's P/Q fusion buffers: a 25 MB dense buffer and a
/// 0.64% compression rate give a 0.16 MB compressed buffer, so P tensors
/// still batch into the same ≈4 buffers as the dense gradients would.
///
/// Returns at least 1 byte so fusion never degenerates to zero capacity.
pub fn compressed_buffer_bytes(
    default_buffer_bytes: usize,
    dense_total_bytes: usize,
    compressed_total_bytes: usize,
) -> usize {
    if dense_total_bytes == 0 {
        return default_buffer_bytes.max(1);
    }
    let rate = compressed_total_bytes as f64 / dense_total_bytes as f64;
    ((default_buffer_bytes as f64 * rate).round() as usize).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_capacity_disables_fusion() {
        let buckets = pack_buckets(&[10, 20, 30], 0);
        assert_eq!(buckets.len(), 3);
        assert_eq!(buckets[1].payload_bytes, 20);
        assert_eq!(buckets[1].tensor_indices, vec![1]);
    }

    #[test]
    fn huge_capacity_fuses_everything() {
        let buckets = pack_buckets(&[10, 20, 30], 1_000_000);
        assert_eq!(buckets.len(), 1);
        assert_eq!(buckets[0].payload_bytes, 60);
        assert_eq!(buckets[0].tensor_indices, vec![0, 1, 2]);
    }

    #[test]
    fn flushes_when_next_tensor_overflows() {
        let buckets = pack_buckets(&[10, 10, 10, 10], 25);
        // 10+10 fits; +10 would be 30 > 25 -> flush. Two buckets of two.
        assert_eq!(buckets.len(), 2);
        assert_eq!(buckets[0].tensor_indices, vec![0, 1]);
        assert_eq!(buckets[1].tensor_indices, vec![2, 3]);
    }

    #[test]
    fn oversize_tensor_gets_own_bucket() {
        let buckets = pack_buckets(&[100, 5, 5], 10);
        assert_eq!(buckets.len(), 2);
        assert_eq!(buckets[0].payload_bytes, 100);
        assert_eq!(buckets[1].tensor_indices, vec![1, 2]);
    }

    #[test]
    fn empty_input_empty_output() {
        assert!(pack_buckets(&[], 25).is_empty());
    }

    #[test]
    fn bucket_count_matches_paper_example() {
        // ResNet-50: 97.5 MB into 25 MB buffers -> 4 buckets (§IV-B).
        let tensor = 97_500_000 / 160;
        let payloads = vec![tensor; 160];
        let buckets = pack_buckets(&payloads, 25 * 1024 * 1024);
        assert_eq!(buckets.len(), 4);
    }

    #[test]
    fn compressed_buffer_scaling_matches_paper_example() {
        // §IV-B: 25 MB default, P compression rate 0.64% -> 0.16 MB.
        let dense = 97_500_000usize;
        let p_compressed = (dense as f64 * 0.0064) as usize;
        let b = compressed_buffer_bytes(25 * 1024 * 1024, dense, p_compressed);
        let mb = b as f64 / (1024.0 * 1024.0);
        assert!((0.14..0.18).contains(&mb), "compressed buffer {mb} MB");
    }

    #[test]
    fn compressed_buffer_never_zero() {
        assert_eq!(compressed_buffer_bytes(100, 1_000_000, 0), 1);
        assert_eq!(compressed_buffer_bytes(100, 0, 50), 100);
    }

    #[test]
    fn buckets_partition_all_tensors_in_order() {
        let payloads: Vec<usize> = (1..=50).map(|i| i * 7).collect();
        let buckets = pack_buckets(&payloads, 100);
        let flattened: Vec<usize> = buckets
            .iter()
            .flat_map(|b| b.tensor_indices.iter().copied())
            .collect();
        let expected: Vec<usize> = (0..50).collect();
        assert_eq!(flattened, expected);
        let total: usize = buckets.iter().map(|b| b.payload_bytes).sum();
        assert_eq!(total, payloads.iter().sum::<usize>());
    }
}
