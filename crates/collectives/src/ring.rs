//! Backend-agnostic collective algorithms over a point-to-point transport.
//!
//! The ring and butterfly algorithms (chunked ring all-reduce, ring
//! all-gather, pipelined broadcast, token barrier, recursive doubling,
//! gTop-k merge) are written once here, generically over [`Transport`] —
//! the minimal point-to-point interface a backend must provide. Both
//! [`crate::ThreadTransport`] (in-process channels) and `acp-net`'s
//! `TcpTransport` (real sockets) implement [`Transport`] and run *these
//! same functions*, which is what makes the two backends bit-exact with
//! each other: the floating-point reduction order is identical by
//! construction, not by testing alone.

use crate::communicator::{CommError, ReduceOp};

/// A typed message exchanged between ranks by the collective algorithms.
///
/// Backends serialize this however they like (in-process channels move it
/// directly; the TCP backend length-prefix-frames it). `payload_bytes`
/// defines the wire-volume accounting used by the Table II reconciliation
/// tests: payload only, no framing overhead, and barrier tokens are free.
#[derive(Debug, Clone, PartialEq)]
pub enum WireMsg {
    /// Dense `f32` payload (all-reduce chunks, broadcast, all-gather).
    F32(Vec<f32>),
    /// Dense `u32` payload (bit-packed signs, sparse indices).
    U32(Vec<u32>),
    /// Sparse (indices, values) pair for the gTop-k collective.
    Sparse(Vec<u32>, Vec<f32>),
    /// Zero-byte synchronization token (barrier).
    Token,
    /// A message wrapped with the sender's schedule position
    /// ([`VerifyMode::CrossCheck`](crate::schedule::VerifyMode::CrossCheck)
    /// only). Transports add the tag on send and strip it at delivery after
    /// verifying it against the receiver's own schedule — the collective
    /// algorithms never see this variant.
    Tagged(crate::schedule::ScheduleTag, Box<WireMsg>),
}

impl WireMsg {
    /// Payload bytes this message contributes to the Table II volume
    /// accounting (4 bytes per element; tokens and schedule tags free, like
    /// all framing overhead).
    pub fn payload_bytes(&self) -> u64 {
        match self {
            WireMsg::F32(v) => 4 * v.len() as u64,
            WireMsg::U32(v) => 4 * v.len() as u64,
            WireMsg::Sparse(i, v) => 4 * (i.len() + v.len()) as u64,
            WireMsg::Token => 0,
            WireMsg::Tagged(_, inner) => inner.payload_bytes(),
        }
    }
}

/// Point-to-point message transport between the ranks of a group.
///
/// This is the narrow waist between collective *algorithms* (this module)
/// and collective *backends* (threads, TCP). Implementations must deliver
/// messages between any pair of ranks reliably and in order per
/// (sender, receiver) pair; they are free to fail with structured
/// [`CommError`]s (timeout, I/O, peer loss), which the algorithms
/// propagate unchanged.
pub trait Transport {
    /// This endpoint's rank in `[0, world_size)`.
    fn rank(&self) -> usize;

    /// Number of ranks in the group.
    fn world_size(&self) -> usize;

    /// Sends `msg` to `dest`.
    ///
    /// # Errors
    ///
    /// Returns an error if `dest` is out of range, unreachable on this
    /// topology, or the link fails.
    fn send_to(&mut self, dest: usize, msg: WireMsg) -> Result<(), CommError>;

    /// Receives the next message from `src` (blocking, subject to the
    /// backend's deadline).
    ///
    /// # Errors
    ///
    /// Returns an error on timeout, disconnect, or an out-of-range `src`.
    fn recv_from(&mut self, src: usize) -> Result<WireMsg, CommError>;

    /// Sends a borrowed sparse (indices, values) payload to `dest`.
    ///
    /// The default copies into an owned [`WireMsg`] and forwards to
    /// [`Transport::send_to`]; backends that serialize onto a wire write
    /// straight from the slices instead (the TCP backend's vectored send).
    ///
    /// # Errors
    ///
    /// As [`Transport::send_to`].
    fn send_sparse(
        &mut self,
        dest: usize,
        indices: &[u32],
        values: &[f32],
    ) -> Result<(), CommError> {
        // allow_verify(reason = "ownership fallback for channel backends; wire backends override")
        self.send_to(dest, WireMsg::Sparse(indices.to_vec(), values.to_vec()))
    }

    /// The exchange primitive every dense collective step is built on:
    /// sends the borrowed `send` slice to its destination rank **while**
    /// receiving exactly `recv.len()` elements from its source rank
    /// straight into the caller's `recv` storage. Either leg may be
    /// absent (a pure send or a pure receive-into).
    ///
    /// The send leg must never wait for the peer to receive: every rank
    /// of a ring sends before it receives. The in-process backend lends
    /// the slice and settles it by copy if the exchange ends before the
    /// peer read it; the socket backend interleaves the two legs so a
    /// chunk larger than the kernel's socket buffers cannot deadlock.
    ///
    /// # Errors
    ///
    /// As [`Transport::send_to`] / [`Transport::recv_from`];
    /// [`CommError::LengthMismatch`] when the peer's payload is not
    /// `recv.len()` elements, [`CommError::ProtocolMismatch`] when it is
    /// not an `f32` payload at all.
    fn exchange_f32s(
        &mut self,
        send: Option<(usize, &[f32])>,
        recv: Option<(usize, &mut [f32])>,
    ) -> Result<(), CommError>;

    /// [`Transport::exchange_f32s`] for `u32` payloads (bit-packed signs,
    /// sparse indices).
    ///
    /// # Errors
    ///
    /// As [`Transport::exchange_f32s`].
    fn exchange_u32s(
        &mut self,
        send: Option<(usize, &[u32])>,
        recv: Option<(usize, &mut [u32])>,
    ) -> Result<(), CommError>;

    /// [`Transport::exchange_f32s`] whose receive leg hands the `len`
    /// incoming elements to `fold` instead of storing them: a
    /// reduce-scatter step folds the peer's partial straight into its
    /// own chunk.
    ///
    /// The default receives into this thread's reduce-scatter scratch and
    /// folds from there — what a backend that reads bytes off a socket
    /// must do anyway. The in-process backend overrides it to fold
    /// straight from the peer's lent slice.
    ///
    /// # Errors
    ///
    /// As [`Transport::exchange_f32s`]; `fold` runs only on a payload of
    /// exactly `len` elements.
    fn exchange_fold_f32s(
        &mut self,
        send: Option<(usize, &[f32])>,
        src: usize,
        len: usize,
        fold: &mut dyn FnMut(&[f32]),
    ) -> Result<(), CommError> {
        with_scratch(len, |incoming| {
            self.exchange_f32s(send, Some((src, &mut *incoming)))?;
            fold(incoming);
            Ok(())
        })
    }
}

fn next_rank<T: Transport + ?Sized>(t: &T) -> usize {
    (t.rank() + 1) % t.world_size()
}

fn prev_rank<T: Transport + ?Sized>(t: &T) -> usize {
    (t.rank() + t.world_size() - 1) % t.world_size()
}

/// Borrows two disjoint ranges of `buf` at once: `send` shared, `recv`
/// mutable — a ring step forwards one chunk while the next one lands in
/// place. The ranges are distinct chunks of one partition, so one always
/// ends where or before the other starts.
pub(crate) fn split_send_recv<T>(
    buf: &mut [T],
    send: std::ops::Range<usize>,
    recv: std::ops::Range<usize>,
) -> (&[T], &mut [T]) {
    if send.end <= recv.start {
        let (lo, hi) = buf.split_at_mut(recv.start);
        (&lo[send], &mut hi[..recv.end - recv.start])
    } else {
        let (lo, hi) = buf.split_at_mut(send.start);
        (&hi[..send.end - send.start], &mut lo[recv])
    }
}

/// Chunk boundaries for splitting `len` elements into `world_size` nearly
/// equal contiguous ranges.
pub(crate) fn chunk_range(len: usize, chunk: usize, world_size: usize) -> std::ops::Range<usize> {
    let start = chunk * len / world_size;
    let end = (chunk + 1) * len / world_size;
    start..end
}

pub(crate) fn reduce_into(dst: &mut [f32], src: &[f32], op: ReduceOp) {
    match op {
        ReduceOp::Sum | ReduceOp::Mean => {
            for (d, s) in dst.iter_mut().zip(src) {
                *d += s;
            }
        }
        ReduceOp::Max => {
            for (d, s) in dst.iter_mut().zip(src) {
                *d = d.max(*s);
            }
        }
    }
}

thread_local! {
    /// Where the default [`Transport::exchange_fold_f32s`] lands the
    /// incoming partial before folding it in: one per thread that runs
    /// collectives (a rank's comm worker), grown to the largest chunk it
    /// has seen and kept. Allocated per operation it was a zeroed `N/p`
    /// buffer per all-reduce — a write stream nothing reads, whose pages
    /// were faulted in afresh or not depending on what else the process
    /// had lately freed.
    static SCRATCH: std::cell::RefCell<Vec<f32>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// Runs `f` with this thread's reduce-scatter scratch, `len` elements of
/// unspecified content: every step overwrites the prefix it then reads.
fn with_scratch<R>(len: usize, f: impl FnOnce(&mut [f32]) -> R) -> R {
    SCRATCH.with_borrow_mut(|scratch| {
        if scratch.len() < len {
            scratch.resize(len, 0.0);
        }
        f(&mut scratch[..len])
    })
}

/// [`reduce_into`] for the last step of a reduce-scatter over `world`
/// ranks, after which the chunk is fully reduced: a `Mean` divides it here,
/// in the pass that already has it in hand, and the all-gather distributes
/// the scaled values — instead of every rank rescaling the whole buffer
/// afterwards. Each element is still summed in the same order and then
/// multiplied once by the same `1/world` (two separately rounded
/// operations), so the bits do not change.
pub(crate) fn reduce_last_into(dst: &mut [f32], src: &[f32], op: ReduceOp, world: usize) {
    if op == ReduceOp::Mean {
        let inv = 1.0 / world as f32;
        for (d, s) in dst.iter_mut().zip(src) {
            *d = (*d + s) * inv;
        }
    } else {
        reduce_into(dst, src, op);
    }
}

/// Bandwidth-optimal ring all-reduce: chunked reduce-scatter followed by
/// ring all-gather; per-rank transmitted volume `2(p−1)/p · N` (Table II).
///
/// # Errors
///
/// Returns an error on disconnect, timeout, or inconsistent buffer lengths.
pub fn all_reduce<T: Transport + ?Sized>(
    t: &mut T,
    buf: &mut [f32],
    op: ReduceOp,
) -> Result<(), CommError> {
    let p = t.world_size();
    if p == 1 {
        return Ok(());
    }
    let r = t.rank();
    let (next, prev) = (next_rank(t), prev_rank(t));
    let len = buf.len();
    // Phase 1: ring reduce-scatter. After p-1 steps rank r owns the fully
    // reduced chunk (r+1) mod p. Each incoming partial is folded straight
    // into the chunk it reduces.
    for s in 0..p - 1 {
        let send_idx = (r + p - s) % p;
        let recv_idx = (r + p - s - 1) % p;
        let (send, dst) = split_send_recv(
            buf,
            chunk_range(len, send_idx, p),
            chunk_range(len, recv_idx, p),
        );
        let last = s == p - 2;
        t.exchange_fold_f32s(Some((next, send)), prev, dst.len(), &mut |incoming| {
            if last {
                reduce_last_into(dst, incoming, op, p);
            } else {
                reduce_into(dst, incoming, op);
            }
        })?;
    }
    // Phase 2: ring all-gather of the reduced (and, for a mean, already
    // scaled) chunks, each received straight into its final position.
    for s in 0..p - 1 {
        let send_idx = (r + 1 + p - s) % p;
        let recv_idx = (r + p - s) % p;
        let (send, recv) = split_send_recv(
            buf,
            chunk_range(len, send_idx, p),
            chunk_range(len, recv_idx, p),
        );
        t.exchange_f32s(Some((next, send)), Some((prev, recv)))?;
    }
    Ok(())
}

/// Ring all-gather of `f32` payloads; returns the concatenation in rank
/// order.
///
/// # Errors
///
/// Returns an error on disconnect, timeout, or inconsistent lengths.
pub fn all_gather_f32<T: Transport + ?Sized>(
    t: &mut T,
    send: &[f32],
) -> Result<Vec<f32>, CommError> {
    let p = t.world_size();
    let k = send.len();
    let r = t.rank();
    let (next, prev) = (next_rank(t), prev_rank(t));
    let mut out = vec![0.0f32; p * k];
    out[r * k..(r + 1) * k].copy_from_slice(send);
    for s in 0..p - 1 {
        let send_slot = (r + p - s) % p;
        let recv_slot = (r + p - s - 1) % p;
        let (send, recv) = split_send_recv(
            &mut out,
            send_slot * k..(send_slot + 1) * k,
            recv_slot * k..(recv_slot + 1) * k,
        );
        t.exchange_f32s(Some((next, send)), Some((prev, recv)))?;
    }
    Ok(out)
}

/// Ring all-gather of `u32` payloads; returns the concatenation in rank
/// order.
///
/// # Errors
///
/// Returns an error on disconnect, timeout, or inconsistent lengths.
pub fn all_gather_u32<T: Transport + ?Sized>(
    t: &mut T,
    send: &[u32],
) -> Result<Vec<u32>, CommError> {
    let p = t.world_size();
    let k = send.len();
    let r = t.rank();
    let (next, prev) = (next_rank(t), prev_rank(t));
    let mut out = vec![0u32; p * k];
    out[r * k..(r + 1) * k].copy_from_slice(send);
    for s in 0..p - 1 {
        let send_slot = (r + p - s) % p;
        let recv_slot = (r + p - s - 1) % p;
        let (send, recv) = split_send_recv(
            &mut out,
            send_slot * k..(send_slot + 1) * k,
            recv_slot * k..(recv_slot + 1) * k,
        );
        t.exchange_u32s(Some((next, send)), Some((prev, recv)))?;
    }
    Ok(out)
}

/// Pipelined ring broadcast: the root sends, each rank forwards unless its
/// successor is the root.
///
/// # Errors
///
/// Returns an error for an out-of-range root, mismatched lengths, or a
/// dead peer.
pub fn broadcast<T: Transport + ?Sized>(
    t: &mut T,
    buf: &mut [f32],
    root: usize,
) -> Result<(), CommError> {
    let p = t.world_size();
    if root >= p {
        return Err(CommError::InvalidRoot {
            root,
            world_size: p,
        });
    }
    if p == 1 {
        return Ok(());
    }
    let (next, prev) = (next_rank(t), prev_rank(t));
    if t.rank() != root {
        t.exchange_f32s(None, Some((prev, &mut *buf)))?;
    }
    if next != root {
        t.exchange_f32s(Some((next, buf)), None)?;
    }
    Ok(())
}

/// Ring barrier: two token trips around the ring — after the first every
/// rank has entered, the second releases them.
///
/// # Errors
///
/// Returns an error if a peer disconnects or times out.
pub fn barrier<T: Transport + ?Sized>(t: &mut T) -> Result<(), CommError> {
    let p = t.world_size();
    if p == 1 {
        return Ok(());
    }
    let (next, prev) = (next_rank(t), prev_rank(t));
    for _round in 0..2 {
        if t.rank() == 0 {
            t.send_to(next, WireMsg::Token)?;
            recv_token(t, prev)?;
        } else {
            recv_token(t, prev)?;
            t.send_to(next, WireMsg::Token)?;
        }
    }
    Ok(())
}

fn recv_token<T: Transport + ?Sized>(t: &mut T, src: usize) -> Result<(), CommError> {
    // allow_verify(reason = "zero-byte barrier token, not a dense payload")
    match t.recv_from(src)? {
        WireMsg::Token => Ok(()),
        _ => Err(CommError::ProtocolMismatch),
    }
}

/// Simultaneously sends `send` to `peer` and receives their buffer of the
/// same length — the pairwise exchange of butterfly algorithms.
///
/// Both sides must call this with each other's rank. Requires a transport
/// that reaches `peer` directly, as every worker-backed one does.
///
/// # Errors
///
/// Returns an error on disconnect or mismatched lengths.
pub fn send_recv_f32<T: Transport + ?Sized>(
    t: &mut T,
    peer: usize,
    send: &[f32],
) -> Result<Vec<f32>, CommError> {
    let mut out = vec![0.0f32; send.len()];
    t.exchange_f32s(Some((peer, send)), Some((peer, &mut out)))?;
    Ok(out)
}

/// Largest power of two `<= p`.
fn pow2_floor(p: usize) -> usize {
    let x = 1usize << (usize::BITS - 1 - p.leading_zeros());
    if x > p {
        x >> 1
    } else {
        x
    }
}

/// Latency-optimal all-reduce by recursive doubling: `⌈log₂ p⌉` rounds of
/// full-buffer pairwise exchanges (`T = log₂(p)(α + Nβ)`), versus the
/// ring's `2(p−1)` messages of `N/p`. Preferable for small tensors — the
/// start-up-cost regime tensor fusion addresses.
///
/// Non-power-of-two groups fold the extra ranks onto partners before and
/// after the butterfly. Requires a transport that reaches every peer.
///
/// # Errors
///
/// Returns an error on disconnect or inconsistent buffer lengths.
pub fn all_reduce_recursive_doubling<T: Transport + ?Sized>(
    t: &mut T,
    buf: &mut [f32],
    op: ReduceOp,
) -> Result<(), CommError> {
    let p = t.world_size();
    if p == 1 {
        return Ok(());
    }
    let pow2 = pow2_floor(p);
    let rem = p - pow2;
    let r = t.rank();
    // Pre-fold: ranks >= pow2 send to (rank - pow2); partners reduce.
    if r >= pow2 {
        t.exchange_f32s(Some((r - pow2, buf)), None)?;
    } else {
        // Every incoming full-buffer partial lands in this one scratch.
        let mut incoming = vec![0.0f32; buf.len()];
        if r < rem {
            t.exchange_f32s(None, Some((r + pow2, &mut incoming)))?;
            reduce_into(buf, &incoming, op);
        }
        // Butterfly over the pow2 group.
        let mut dist = 1usize;
        while dist < pow2 {
            let peer = r ^ dist;
            t.exchange_f32s(Some((peer, buf)), Some((peer, &mut incoming)))?;
            reduce_into(buf, &incoming, op);
            dist <<= 1;
        }
    }
    // Post-fold: send results back to the folded ranks.
    if r < rem {
        t.exchange_f32s(Some((r + pow2, buf)), None)?;
    } else if r >= pow2 {
        t.exchange_f32s(None, Some((r - pow2, buf)))?;
    }
    if op == ReduceOp::Mean {
        let inv = 1.0 / p as f32;
        for v in buf.iter_mut() {
            *v *= inv;
        }
    }
    Ok(())
}

/// Keeps the `k` largest-magnitude entries of a coordinate map, returned
/// in ascending coordinate order.
///
/// Selection uses `total_cmp` on the magnitudes: NaN sums (which can
/// arise from Inf−Inf cancellation during the merge) order *above*
/// infinity on every rank, instead of the formerly NaN-unsafe
/// `partial_cmp(..).unwrap_or(Equal)` comparator whose non-total order
/// could leave different ranks keeping different coordinate sets.
pub fn truncate_topk(map: std::collections::BTreeMap<u32, f32>, k: usize) -> (Vec<u32>, Vec<f32>) {
    let mut entries: Vec<(u32, f32)> = map.into_iter().collect();
    if entries.len() > k {
        entries.select_nth_unstable_by(k - 1, |a, b| b.1.abs().total_cmp(&a.1.abs()));
        entries.truncate(k);
        entries.sort_unstable_by_key(|e| e.0);
    }
    entries.into_iter().unzip()
}

/// Exact global top-k of gathered sparse contributions: sums the values
/// per coordinate, then keeps the `k` largest magnitudes (see
/// [`truncate_topk`]). `indices` and `values` are the rank-order
/// concatenations two all-gathers return.
pub fn sum_truncate_topk(indices: &[u32], values: &[f32], k: usize) -> (Vec<u32>, Vec<f32>) {
    let mut map = std::collections::BTreeMap::new();
    for (&i, &v) in indices.iter().zip(values) {
        *map.entry(i).or_insert(0.0f32) += v;
    }
    truncate_topk(map, k)
}

/// The `O(k log p)` gTop-k sparse all-reduce (Shi et al., ICDCS 2019):
/// butterfly exchange of sparse sets with per-round truncation to `k`.
/// Approximate — coordinates that are individually small everywhere can be
/// dropped even if their sum is large. Requires a transport that reaches
/// every peer.
///
/// # Errors
///
/// Returns an error on disconnect or inconsistent calls.
pub fn global_topk_butterfly<T: Transport + ?Sized>(
    t: &mut T,
    indices: &[u32],
    values: &[f32],
    k: usize,
) -> Result<(Vec<u32>, Vec<f32>), CommError> {
    if indices.len() != values.len() {
        return Err(CommError::LengthMismatch {
            expected: indices.len(),
            actual: values.len(),
        });
    }
    let p = t.world_size();
    let mut map: std::collections::BTreeMap<u32, f32> = std::collections::BTreeMap::new();
    for (&i, &v) in indices.iter().zip(values) {
        *map.entry(i).or_insert(0.0) += v;
    }
    if p == 1 {
        return Ok(truncate_topk(map, k));
    }
    let pow2 = pow2_floor(p);
    let rem = p - pow2;
    let r = t.rank();
    let merge = |map: &mut std::collections::BTreeMap<u32, f32>, idx: Vec<u32>, val: Vec<f32>| {
        for (i, v) in idx.into_iter().zip(val) {
            *map.entry(i).or_insert(0.0) += v;
        }
    };
    if r >= pow2 {
        let (idx, val): (Vec<u32>, Vec<f32>) = map.into_iter().unzip();
        t.send_to(r - pow2, WireMsg::Sparse(idx, val))?;
        // Wait for the final result.
        return recv_sparse(t, r - pow2);
    }
    if r < rem {
        let (idx, val) = recv_sparse(t, r + pow2)?;
        merge(&mut map, idx, val);
    }
    let mut dist = 1usize;
    while dist < pow2 {
        let peer = r ^ dist;
        let (send_idx, send_val): (Vec<u32>, Vec<f32>) = map.iter().map(|(&i, &v)| (i, v)).unzip();
        t.send_to(peer, WireMsg::Sparse(send_idx, send_val))?;
        let (idx, val) = recv_sparse(t, peer)?;
        merge(&mut map, idx, val);
        // Per-round truncation is what keeps gTop-k's traffic at
        // O(k log p) — and what makes it approximate.
        let (ti, tv) = truncate_topk(std::mem::take(&mut map), k);
        map = ti.into_iter().zip(tv).collect();
        dist <<= 1;
    }
    let (idx, val) = truncate_topk(map, k);
    if r < rem {
        t.send_sparse(r + pow2, &idx, &val)?;
    }
    Ok((idx, val))
}

fn recv_sparse<T: Transport + ?Sized>(
    t: &mut T,
    src: usize,
) -> Result<(Vec<u32>, Vec<f32>), CommError> {
    // allow_verify(reason = "sparse sets have no caller-side destination: their length is only known on arrival")
    match t.recv_from(src)? {
        WireMsg::Sparse(i, v) => Ok((i, v)),
        _ => Err(CommError::ProtocolMismatch),
    }
}

/// Serial reference reduction replicating the chunked ring all-reduce of
/// [`all_reduce`] **bit-exactly**, without a transport.
///
/// This is the aggregation core of `acp-serve`: a server that holds every
/// member's contribution in memory must still produce the same IEEE-754
/// result the peer-to-peer ring would, or a job migrated between the two
/// paths silently diverges. The ring reduces chunk `c` by accumulating
/// contributions in ascending rank order starting at rank `c` (wrapping
/// mod `p`), with the freshly received partial always on the *right* of
/// each `x + acc` addition — this function performs the identical fold,
/// chunk by chunk, including the final mean division and the `p == 1`
/// early return (which skips the mean division, exactly like
/// [`all_reduce`]).
///
/// `contribs` is one slice per rank, in rank order.
///
/// # Errors
///
/// Returns [`CommError::LengthMismatch`] if the contributions disagree on
/// length, [`CommError::ProtocolMismatch`] if `contribs` is empty.
pub fn all_reduce_reference(contribs: &[&[f32]], op: ReduceOp) -> Result<Vec<f32>, CommError> {
    let mut out = vec![0.0f32; contribs.first().map_or(0, |c| c.len())];
    all_reduce_reference_into(contribs, op, &mut out)?;
    Ok(out)
}

/// [`all_reduce_reference`] into caller storage: every element of `out`
/// is overwritten, so a reused buffer never leaks a previous result.
///
/// # Errors
///
/// As [`all_reduce_reference`]; also [`CommError::LengthMismatch`] if
/// `out` is not one contribution long.
pub fn all_reduce_reference_into(
    contribs: &[&[f32]],
    op: ReduceOp,
    out: &mut [f32],
) -> Result<(), CommError> {
    let p = contribs.len();
    let Some(first) = contribs.first() else {
        return Err(CommError::ProtocolMismatch);
    };
    let len = first.len();
    for c in contribs.iter().copied().chain([&*out]) {
        if c.len() != len {
            return Err(CommError::LengthMismatch {
                expected: len,
                actual: c.len(),
            });
        }
    }
    if p == 1 {
        out.copy_from_slice(first);
        return Ok(());
    }
    for c in 0..p {
        let range = chunk_range(len, c, p);
        out[range.clone()].copy_from_slice(&contribs[c][range.clone()]);
        for j in 1..p {
            let src = &contribs[(c + j) % p][range.clone()];
            // Mirror `reduce_into`'s operand order with the accumulated
            // partial in the *incoming* position: the ring receiver holds
            // its own fresh contribution and folds the arriving partial
            // into it (`local op incoming`), so the reference must compute
            // `x op acc`, not `acc op x` — f32 max is not NaN-symmetric.
            match op {
                ReduceOp::Sum | ReduceOp::Mean => {
                    #[allow(clippy::assign_op_pattern)]
                    for (o, x) in out[range.clone()].iter_mut().zip(src) {
                        *o = *x + *o;
                    }
                }
                ReduceOp::Max => {
                    for (o, x) in out[range.clone()].iter_mut().zip(src) {
                        *o = x.max(*o);
                    }
                }
            }
        }
    }
    if op == ReduceOp::Mean {
        let inv = 1.0 / p as f32;
        for v in out.iter_mut() {
            *v *= inv;
        }
    }
    Ok(())
}

/// Serial reference of both all-gathers into caller storage: rank-order
/// concatenation, every element of `out` overwritten. Bit-exact trivially
/// — the ring moves bytes without arithmetic.
///
/// # Errors
///
/// Returns [`CommError::LengthMismatch`] if the contributions disagree on
/// length or `out` does not hold exactly all of them,
/// [`CommError::ProtocolMismatch`] if `contribs` is empty.
pub fn all_gather_reference_into<T: Copy>(
    contribs: &[&[T]],
    out: &mut [T],
) -> Result<(), CommError> {
    let Some(first) = contribs.first() else {
        return Err(CommError::ProtocolMismatch);
    };
    let len = first.len();
    for c in contribs {
        if c.len() != len {
            return Err(CommError::LengthMismatch {
                expected: len,
                actual: c.len(),
            });
        }
    }
    if out.len() != len * contribs.len() {
        return Err(CommError::LengthMismatch {
            expected: len * contribs.len(),
            actual: out.len(),
        });
    }
    // `max(1)`: zero-length contributions leave nothing to copy.
    for (c, slot) in contribs.iter().zip(out.chunks_mut(len.max(1))) {
        slot.copy_from_slice(c);
    }
    Ok(())
}

/// Serial reference of [`all_gather_f32`]: rank-order concatenation.
///
/// # Errors
///
/// As [`all_gather_reference_into`].
pub fn all_gather_f32_reference(contribs: &[&[f32]]) -> Result<Vec<f32>, CommError> {
    let mut out = vec![0.0f32; contribs.first().map_or(0, |c| c.len()) * contribs.len()];
    all_gather_reference_into(contribs, &mut out)?;
    Ok(out)
}

/// Serial reference of [`all_gather_u32`]: rank-order concatenation.
///
/// # Errors
///
/// As [`all_gather_reference_into`].
pub fn all_gather_u32_reference(contribs: &[&[u32]]) -> Result<Vec<u32>, CommError> {
    let mut out = vec![0u32; contribs.first().map_or(0, |c| c.len()) * contribs.len()];
    all_gather_reference_into(contribs, &mut out)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn truncate_topk_orders_nan_above_infinity() {
        // Inf − Inf cancellation during a gTop-k merge can leave NaN sums;
        // the total order must rank them above everything so every rank
        // keeps the same coordinate set.
        let map: BTreeMap<u32, f32> = [
            (0, 1.0),
            (1, f32::NAN),
            (2, -f32::INFINITY),
            (3, 0.5),
            (4, -2.0),
        ]
        .into_iter()
        .collect();
        let (idx, val) = truncate_topk(map, 3);
        assert_eq!(idx, vec![1, 2, 4]);
        assert!(val[0].is_nan());
        assert_eq!(val[1], -f32::INFINITY);
        assert_eq!(val[2], -2.0);
    }

    #[test]
    fn truncate_topk_below_k_is_identity() {
        let map: BTreeMap<u32, f32> = [(5, 0.1), (9, -0.2)].into_iter().collect();
        let (idx, val) = truncate_topk(map, 4);
        assert_eq!(idx, vec![5, 9]);
        assert_eq!(val, vec![0.1, -0.2]);
    }
}
