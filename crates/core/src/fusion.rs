//! Tensor fusion: which forward-order tensors travel together in one fused
//! collective payload. The data movement itself belongs to the codecs
//! (see [`crate::pipeline`]).

use std::ops::Range;

/// Groups tensor indices (in order) into buckets whose total byte size does
/// not exceed `capacity_bytes`; `capacity_bytes == 0` yields one bucket per
/// tensor. Returned ranges index the original tensor list and partition it.
pub fn bucket_ranges(sizes_bytes: &[usize], capacity_bytes: usize) -> Vec<Range<usize>> {
    let mut out = Vec::new();
    if sizes_bytes.is_empty() {
        return out;
    }
    if capacity_bytes == 0 {
        return (0..sizes_bytes.len()).map(|i| i..i + 1).collect();
    }
    let mut start = 0usize;
    let mut acc = 0usize;
    for (i, &b) in sizes_bytes.iter().enumerate() {
        if i > start && acc + b > capacity_bytes {
            out.push(start..i);
            start = i;
            acc = 0;
        }
        acc += b;
    }
    out.push(start..sizes_bytes.len());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_ranges_partition() {
        let sizes = [10usize, 10, 10, 10, 10];
        let r = bucket_ranges(&sizes, 25);
        assert_eq!(r, vec![0..2, 2..4, 4..5]);
    }

    #[test]
    fn bucket_ranges_no_fusion() {
        let r = bucket_ranges(&[5, 5], 0);
        assert_eq!(r, vec![0..1, 1..2]);
    }

    #[test]
    fn bucket_ranges_oversize_tensor() {
        let r = bucket_ranges(&[100, 5, 5], 10);
        assert_eq!(r, vec![0..1, 1..3]);
    }

    #[test]
    fn bucket_ranges_empty() {
        assert!(bucket_ranges(&[], 10).is_empty());
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// The ranges partition `0..len` in order for every capacity.
            #[test]
            fn ranges_partition_in_order(
                sizes in proptest::collection::vec(1usize..100_000, 0..48),
                capacity in 0usize..300_000,
            ) {
                let ranges = bucket_ranges(&sizes, capacity);
                let mut next = 0usize;
                for r in &ranges {
                    prop_assert_eq!(r.start, next);
                    prop_assert!(r.end > r.start, "empty bucket {:?}", r);
                    next = r.end;
                }
                prop_assert_eq!(next, sizes.len());
            }

            /// With nonzero capacity every bucket fits, except a singleton
            /// holding one oversize tensor.
            #[test]
            fn capacity_respected_except_oversize_singletons(
                sizes in proptest::collection::vec(1usize..100_000, 1..48),
                capacity in 1usize..300_000,
            ) {
                for r in bucket_ranges(&sizes, capacity) {
                    let bytes: usize = sizes[r.start..r.end].iter().sum();
                    prop_assert!(
                        bytes <= capacity || r.len() == 1,
                        "bucket {:?} holds {} bytes over capacity {}",
                        r, bytes, capacity
                    );
                }
            }

            /// Capacity 0 disables fusion: one singleton bucket per tensor.
            #[test]
            fn zero_capacity_gives_singletons(
                sizes in proptest::collection::vec(1usize..100_000, 0..48),
            ) {
                let ranges = bucket_ranges(&sizes, 0);
                prop_assert_eq!(ranges.len(), sizes.len());
                for (i, r) in ranges.into_iter().enumerate() {
                    prop_assert_eq!(r, i..i + 1);
                }
            }
        }
    }
}
