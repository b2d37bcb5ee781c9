//! What the sparse codecs (Top-k, gTop-k, DGC) share once their
//! collectives return: the gathered (index, value) pairs, validated once
//! per bucket and grouped by tensor, so that each tensor can be scattered
//! straight into the caller's gradient.

use acp_collectives::CollectiveResult;
use acp_compression::Payload;

use crate::error::CoreError;
use crate::pipeline::Bucket;

/// The number of elements a selection of `density` keeps out of `n`: at
/// least one, so that a `TopK` can be built for any bucket. An empty
/// bucket asks for one element and selects nothing.
pub(crate) fn k_for(density: f64, n: usize) -> usize {
    ((density * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// The coordinate and value arrays of a top-k compressor's payload.
pub(crate) fn sparse_parts(payload: Payload) -> Result<(Vec<u32>, Vec<f32>), CoreError> {
    match payload {
        Payload::Sparse {
            indices, values, ..
        } => Ok((indices, values)),
        _ => Err(CoreError::CodecProtocol(
            "top-k compressor must produce a sparse payload",
        )),
    }
}

/// Splits the results of one round made of an index all-gather followed by
/// a value all-gather.
pub(crate) fn gathered_pairs(
    results: Vec<CollectiveResult>,
) -> Result<(Vec<u32>, Vec<f32>), CoreError> {
    const TWO: CoreError = CoreError::CodecProtocol("expected two collective results per round");
    let mut results = results.into_iter();
    let indices = results.next().ok_or(TWO)?.into_u32()?;
    let values = results.next().ok_or(TWO)?.into_f32()?;
    Ok((indices, values))
}

/// One bucket's gathered sparse pairs, grouped by tensor slot with the
/// gathered order kept inside each slot and indices made tensor-local.
/// The three vectors are reused from step to step.
#[derive(Debug, Default)]
pub(crate) struct SlotPairs {
    /// Slot `s` owns `starts[s]..starts[s + 1]` of `local` and `values`.
    starts: Vec<usize>,
    local: Vec<u32>,
    values: Vec<f32>,
}

impl SlotPairs {
    /// Validates peer-supplied pairs against the bucket and groups them by
    /// slot (a stable counting sort). The indices come off the wire: a
    /// count mismatch or an index outside the bucket is the peer's fault
    /// and must not panic this rank.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::CodecProtocol`] if `indices` and `values`
    /// differ in length or an index is not below `bucket.elems`.
    pub(crate) fn regroup(
        &mut self,
        bucket: &Bucket,
        indices: &[u32],
        values: &[f32],
    ) -> Result<(), CoreError> {
        if indices.len() != values.len() {
            return Err(CoreError::CodecProtocol(
                "gathered index and value counts differ",
            ));
        }
        let slots = bucket.dims.len();
        // Count into `starts[slot + 2]`; after the running sum
        // `starts[slot + 1]` is where slot's pairs begin, and placing them
        // advances it to where the next slot's begin — which is what
        // `starts[slot + 1]` must finally hold.
        self.starts.clear();
        self.starts.resize(slots + 2, 0);
        let mut slot = 0usize;
        for &i in indices {
            if i as usize >= bucket.elems {
                return Err(CoreError::CodecProtocol(
                    "gathered sparse index is outside the bucket",
                ));
            }
            slot = slot_of(&bucket.offsets, i as usize, slot);
            self.starts[slot + 2] += 1;
        }
        for s in 2..self.starts.len() {
            self.starts[s] += self.starts[s - 1];
        }
        self.local.resize(indices.len(), 0);
        self.values.resize(indices.len(), 0.0);
        for (&i, &v) in indices.iter().zip(values) {
            slot = slot_of(&bucket.offsets, i as usize, slot);
            let at = &mut self.starts[slot + 1];
            self.local[*at] = (i as usize - bucket.offsets[slot]) as u32;
            self.values[*at] = v;
            *at += 1;
        }
        Ok(())
    }

    /// Zero-fills `out` (tensor `slot` of the bucket) and applies
    /// `rule(&mut out[i], value * inv)` for each of the slot's pairs, in
    /// gathered order.
    pub(crate) fn scatter(
        &self,
        slot: usize,
        inv: f32,
        out: &mut [f32],
        rule: impl Fn(&mut f32, f32),
    ) {
        out.fill(0.0);
        let range = self.starts[slot]..self.starts[slot + 1];
        for (&i, &v) in self.local[range.clone()].iter().zip(&self.values[range]) {
            rule(&mut out[i as usize], v * inv);
        }
    }
}

/// The slot whose span holds element `i` (`i < offsets.last()`), trying
/// `hint` first: each rank's indices arrive ascending, so consecutive
/// pairs mostly share a slot.
fn slot_of(offsets: &[usize], i: usize, hint: usize) -> usize {
    if offsets[hint] <= i && i < offsets[hint + 1] {
        hint
    } else {
        offsets.partition_point(|&o| o <= i) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::GradViewMut;

    fn bucket(lens: &[usize]) -> Bucket {
        let dims: Vec<[usize; 1]> = lens.iter().map(|&l| [l]).collect();
        let mut grads: Vec<Vec<f32>> = lens.iter().map(|&l| vec![0.0; l]).collect();
        let views: Vec<GradViewMut<'_>> = dims
            .iter()
            .zip(&mut grads)
            .map(|(d, grad)| GradViewMut { dims: d, grad })
            .collect();
        Bucket::new(0, 0..lens.len(), &views)
    }

    #[test]
    fn k_is_at_least_one_and_at_most_the_bucket() {
        assert_eq!(k_for(0.001, 10), 1);
        assert_eq!(k_for(0.25, 10), 3);
        assert_eq!(k_for(1.0, 8), 8);
        // An empty bucket asks for one element, which `TopK` accepts and
        // cannot find.
        assert_eq!(k_for(0.25, 0), 1);
    }

    #[test]
    fn pairs_land_in_their_tensor_in_gathered_order() {
        // Two ranks' selections, unsorted across ranks, one index hit
        // twice, an empty tensor in the middle.
        let b = bucket(&[3, 0, 4, 2]);
        let indices = [8u32, 0, 4, 4, 2, 7];
        let values = [1.0f32, 2.0, 3.0, 5.0, 7.0, 11.0];
        let mut pairs = SlotPairs::default();
        pairs.regroup(&b, &indices, &values).unwrap();
        // The dense scatter-average the codecs used to run over a
        // bucket-sized temporary.
        let mut dense = vec![f32::NAN; b.elems];
        acp_compression::TopK::scatter_average(&indices, &values, 2, &mut dense);
        for slot in 0..4 {
            let mut out = vec![f32::NAN; b.span(slot).len()];
            pairs.scatter(slot, 0.5, &mut out, |o, v| *o += v);
            assert_eq!(out, dense[b.span(slot)], "slot {slot}");
        }
        // The assigning rule keeps the last pair of a repeated index.
        let mut out = vec![f32::NAN; 4];
        pairs.scatter(2, 1.0, &mut out, |o, v| *o = v);
        assert_eq!(out, vec![0.0, 5.0, 0.0, 0.0]);
    }

    #[test]
    fn peer_supplied_garbage_is_an_error_not_a_panic() {
        let b = bucket(&[3, 4]);
        let mut pairs = SlotPairs::default();
        assert!(matches!(
            pairs.regroup(&b, &[1, 7], &[1.0, 2.0]),
            Err(CoreError::CodecProtocol(_))
        ));
        assert!(matches!(
            pairs.regroup(&b, &[1, u32::MAX], &[1.0, 2.0]),
            Err(CoreError::CodecProtocol(_))
        ));
        assert!(matches!(
            pairs.regroup(&b, &[1, 2], &[1.0]),
            Err(CoreError::CodecProtocol(_))
        ));
        // A rejected payload leaves the grouping usable.
        pairs.regroup(&b, &[6], &[4.0]).unwrap();
        let mut out = vec![0.0f32; 4];
        pairs.scatter(1, 1.0, &mut out, |o, v| *o += v);
        assert_eq!(out, vec![0.0, 0.0, 0.0, 4.0]);
    }
}
