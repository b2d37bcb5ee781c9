//! Length-prefixed wire framing for [`WireMsg`] over a byte stream.
//!
//! Every frame is `[tag: u8][lengths: u32 LE…][payload bytes]`:
//!
//! ```text
//! F32    = 0x01  [count u32] [count × f32 LE]
//! U32    = 0x02  [count u32] [count × u32 LE]
//! Sparse = 0x03  [n_idx u32] [n_val u32] [n_idx × u32 LE] [n_val × f32 LE]
//! Token  = 0x04  (no payload)
//! Hello  = 0x05  [rank u32]   — link handshake, never seen by collectives
//! Tagged = 0x06  [seq u64] [pre_digest u64] [kind u8] [words u64]
//!                [param u64] [inner frame] — schedule cross-check wrapper
//! Abort  = 0x07  [epoch u64] [departed u32] — membership-change broadcast
//! Reform = 0x08  [epoch u64]  — reform barrier marker (see `TcpCommunicator`)
//! ```
//!
//! On the send side the header (tag byte plus element counts) is
//! assembled into a small local buffer and the payload bytes are written
//! **vectored, straight from the caller's storage** — no intermediate
//! serialization buffer and no payload copy (see [`write_msg`]). The
//! writer loops until the whole frame is queued to the kernel, so a frame
//! is still either fully queued or the link errors — there is no
//! mid-frame interleaving on the send side. Element counts are capped at
//! [`MAX_ELEMS`] so a corrupt or truncated header cannot trigger a
//! multi-gigabyte allocation.
//!
//! The receive side mirrors it: [`read_frame_into`] checks the header's
//! element count against the caller's destination **before touching the
//! payload** and then `read_exact`s the payload bytes straight into that
//! storage — no allocation, no per-element decode. The owned
//! [`read_frame`] (sparse sets, tokens, control frames, `recv_from`)
//! makes one allocation per payload vector and fills it through the same
//! routine.

use std::io::{self, IoSlice, Read, Write};

use acp_collectives::schedule::{OpKind, SchedulePoint};
use acp_collectives::{ScheduleTag, WireMsg};

const TAG_F32: u8 = 0x01;
const TAG_U32: u8 = 0x02;
const TAG_SPARSE: u8 = 0x03;
const TAG_TOKEN: u8 = 0x04;
const TAG_HELLO: u8 = 0x05;
const TAG_TAGGED: u8 = 0x06;
const TAG_ABORT: u8 = 0x07;
const TAG_REFORM: u8 = 0x08;

/// Upper bound on per-frame element counts (1 Gi elements = 4 GiB payload);
/// anything larger is treated as a corrupt frame.
pub const MAX_ELEMS: u32 = 1 << 30;

/// A frame as read off the wire: either a collective message or the
/// link-establishment handshake.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// A collective payload.
    Msg(WireMsg),
    /// Link handshake carrying the sender's rank.
    Hello(u32),
    /// Membership-change broadcast: the sender observed `departed` dead in
    /// `epoch` and is aborting the in-flight collective. Receivers
    /// propagate the abort and surface
    /// [`CommError::MembershipChanged`](acp_collectives::CommError::MembershipChanged).
    Abort {
        /// Membership epoch in which the departure was observed.
        epoch: u64,
        /// Physical rank that departed.
        departed: u32,
    },
    /// Reform barrier marker: the sender has entered `reform()` for
    /// `epoch` and will send no further pre-reform frames on this link.
    /// Because TCP links are FIFO, everything read before this marker is
    /// stale and safely discarded.
    Reform {
        /// The post-reform membership epoch.
        epoch: u64,
    },
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_f32s(buf: &mut Vec<u8>, vals: &[f32]) {
    buf.reserve(vals.len() * 4);
    for v in vals {
        buf.extend_from_slice(&v.to_le_bytes());
    }
}

fn put_u32s(buf: &mut Vec<u8>, vals: &[u32]) {
    buf.reserve(vals.len() * 4);
    for v in vals {
        buf.extend_from_slice(&v.to_le_bytes());
    }
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn encode_msg(buf: &mut Vec<u8>, msg: &WireMsg) {
    match msg {
        WireMsg::F32(v) => {
            buf.push(TAG_F32);
            put_u32(buf, v.len() as u32);
            put_f32s(buf, v);
        }
        WireMsg::U32(v) => {
            buf.push(TAG_U32);
            put_u32(buf, v.len() as u32);
            put_u32s(buf, v);
        }
        WireMsg::Sparse(idx, val) => {
            buf.push(TAG_SPARSE);
            put_u32(buf, idx.len() as u32);
            put_u32(buf, val.len() as u32);
            put_u32s(buf, idx);
            put_f32s(buf, val);
        }
        WireMsg::Token => buf.push(TAG_TOKEN),
        WireMsg::Tagged(tag, inner) => {
            buf.push(TAG_TAGGED);
            put_u64(buf, tag.point.seq);
            put_u64(buf, tag.pre_digest);
            buf.push(tag.point.kind.code());
            put_u64(buf, tag.point.words);
            put_u64(buf, tag.point.param);
            encode_msg(buf, inner);
        }
    }
}

/// Serializes `frame` into a fresh buffer (header + payload).
pub fn encode(frame: &Frame) -> Vec<u8> {
    let mut buf = Vec::with_capacity(16);
    match frame {
        Frame::Msg(msg) => encode_msg(&mut buf, msg),
        Frame::Hello(rank) => {
            buf.push(TAG_HELLO);
            put_u32(&mut buf, *rank);
        }
        Frame::Abort { epoch, departed } => {
            buf.push(TAG_ABORT);
            put_u64(&mut buf, *epoch);
            put_u32(&mut buf, *departed);
        }
        Frame::Reform { epoch } => {
            buf.push(TAG_REFORM);
            put_u64(&mut buf, *epoch);
        }
    }
    buf
}

/// Borrowed view of a collective payload for the zero-copy send path: the
/// frame header goes into a small local buffer while the payload bytes are
/// written vectored, directly from the caller's slices.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MsgRef<'a> {
    /// Dense `f32` payload.
    F32(&'a [f32]),
    /// Dense `u32` payload.
    U32(&'a [u32]),
    /// Sparse (indices, values) pair.
    Sparse(&'a [u32], &'a [f32]),
    /// Zero-byte synchronization token.
    Token,
}

impl MsgRef<'_> {
    /// Payload bytes, mirroring [`WireMsg::payload_bytes`]: 4 bytes per
    /// element, tokens and framing free.
    pub fn payload_bytes(&self) -> u64 {
        match self {
            MsgRef::F32(v) => 4 * v.len() as u64,
            MsgRef::U32(v) => 4 * v.len() as u64,
            MsgRef::Sparse(i, v) => 4 * (i.len() + v.len()) as u64,
            MsgRef::Token => 0,
        }
    }
}

/// Borrows a payload message as a [`MsgRef`]; `None` for
/// [`WireMsg::Tagged`], whose schedule tag travels separately (see
/// [`write_msg`]).
pub fn view_of(msg: &WireMsg) -> Option<MsgRef<'_>> {
    match msg {
        WireMsg::F32(v) => Some(MsgRef::F32(v)),
        WireMsg::U32(v) => Some(MsgRef::U32(v)),
        WireMsg::Sparse(i, v) => Some(MsgRef::Sparse(i, v)),
        WireMsg::Token => Some(MsgRef::Token),
        WireMsg::Tagged(..) => None,
    }
}

/// Reinterprets an `f32` slice as its wire bytes. Only correct on
/// little-endian targets, where the in-memory representation already *is*
/// the LE wire format.
#[cfg(target_endian = "little")]
fn f32s_le_bytes(v: &[f32]) -> &[u8] {
    // SAFETY: f32 is 4 bytes with no padding, every byte pattern is a
    // valid u8, and the byte length cannot overflow because the slice
    // already occupies that much memory.
    unsafe { std::slice::from_raw_parts(v.as_ptr().cast::<u8>(), v.len() * 4) }
}

/// Reinterprets a `u32` slice as its wire bytes (little-endian targets
/// only; see [`f32s_le_bytes`]).
#[cfg(target_endian = "little")]
fn u32s_le_bytes(v: &[u32]) -> &[u8] {
    // SAFETY: as in `f32s_le_bytes` — no padding, valid bytes, no
    // overflow.
    unsafe { std::slice::from_raw_parts(v.as_ptr().cast::<u8>(), v.len() * 4) }
}

/// Reinterprets an `f32` slice as writable wire bytes (little-endian
/// targets only; see [`f32s_le_bytes`]).
#[cfg(target_endian = "little")]
fn f32s_le_bytes_mut(v: &mut [f32]) -> &mut [u8] {
    // SAFETY: as in `f32s_le_bytes`, plus: the borrow is exclusive, u8 has
    // alignment 1, and every 4-byte pattern written through the view is a
    // valid f32 (NaN payloads included).
    unsafe { std::slice::from_raw_parts_mut(v.as_mut_ptr().cast::<u8>(), v.len() * 4) }
}

/// Reinterprets a `u32` slice as writable wire bytes (little-endian
/// targets only; see [`f32s_le_bytes_mut`]).
#[cfg(target_endian = "little")]
fn u32s_le_bytes_mut(v: &mut [u32]) -> &mut [u8] {
    // SAFETY: as in `f32s_le_bytes_mut` — exclusive borrow, no padding,
    // every byte pattern is a valid u32.
    unsafe { std::slice::from_raw_parts_mut(v.as_mut_ptr().cast::<u8>(), v.len() * 4) }
}

/// Appends the frame header for `msg` — optional schedule-tag wrapper,
/// tag byte, element counts — leaving only payload bytes to follow.
fn push_header(header: &mut Vec<u8>, tag: Option<&ScheduleTag>, msg: MsgRef<'_>) {
    if let Some(tag) = tag {
        header.push(TAG_TAGGED);
        put_u64(header, tag.point.seq);
        put_u64(header, tag.pre_digest);
        header.push(tag.point.kind.code());
        put_u64(header, tag.point.words);
        put_u64(header, tag.point.param);
    }
    match msg {
        MsgRef::F32(v) => {
            header.push(TAG_F32);
            put_u32(header, v.len() as u32);
        }
        MsgRef::U32(v) => {
            header.push(TAG_U32);
            put_u32(header, v.len() as u32);
        }
        MsgRef::Sparse(idx, val) => {
            header.push(TAG_SPARSE);
            put_u32(header, idx.len() as u32);
            put_u32(header, val.len() as u32);
        }
        MsgRef::Token => header.push(TAG_TOKEN),
    }
}

/// Queues every byte of `bufs`, looping over short vectored writes;
/// `Ok(0)` with bytes still pending surfaces as `WriteZero`.
fn write_all_vectored<W: Write>(w: &mut W, mut bufs: &mut [IoSlice<'_>]) -> io::Result<()> {
    let mut remaining: usize = bufs.iter().map(|b| b.len()).sum();
    while remaining > 0 {
        match w.write_vectored(bufs) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "failed to write whole frame",
                ));
            }
            Ok(n) => {
                remaining = remaining.saturating_sub(n);
                IoSlice::advance_slices(&mut bufs, n);
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Writes one payload message to `w`, optionally wrapped in a schedule
/// tag, without copying the payload: the header is assembled locally and
/// the payload slices are handed to the kernel via vectored I/O. The
/// whole frame is queued before returning, preserving `write_frame`'s
/// no-mid-frame-interleaving property.
///
/// # Errors
///
/// Propagates the underlying I/O error (including timeouts as
/// `WouldBlock`/`TimedOut`).
pub fn write_msg<W: Write>(
    w: &mut W,
    tag: Option<&ScheduleTag>,
    msg: MsgRef<'_>,
) -> io::Result<()> {
    let mut header = Vec::with_capacity(48);
    push_header(&mut header, tag, msg);
    #[cfg(target_endian = "little")]
    {
        let (a, b): (&[u8], &[u8]) = match msg {
            MsgRef::F32(v) => (f32s_le_bytes(v), &[]),
            MsgRef::U32(v) => (u32s_le_bytes(v), &[]),
            MsgRef::Sparse(idx, val) => (u32s_le_bytes(idx), f32s_le_bytes(val)),
            MsgRef::Token => (&[], &[]),
        };
        if a.is_empty() && b.is_empty() {
            return w.write_all(&header);
        }
        let mut slices = [IoSlice::new(&header), IoSlice::new(a), IoSlice::new(b)];
        write_all_vectored(w, &mut slices)
    }
    #[cfg(not(target_endian = "little"))]
    {
        // Big-endian fallback: serialize element-wise (the byte-view
        // shortcut above would emit native-endian payloads).
        match msg {
            MsgRef::F32(v) => put_f32s(&mut header, v),
            MsgRef::U32(v) => put_u32s(&mut header, v),
            MsgRef::Sparse(idx, val) => {
                put_u32s(&mut header, idx);
                put_f32s(&mut header, val);
            }
            MsgRef::Token => {}
        }
        w.write_all(&header)
    }
}

/// Writes one frame to `w`. Payload frames take the zero-copy vectored
/// path of [`write_msg`]; header-only control frames are written in one
/// `write_all`.
///
/// # Errors
///
/// Propagates the underlying I/O error (including timeouts as
/// `WouldBlock`/`TimedOut`).
pub fn write_frame<W: Write>(w: &mut W, frame: &Frame) -> io::Result<()> {
    match frame {
        Frame::Msg(msg) => {
            let (tag, inner) = match msg {
                WireMsg::Tagged(tag, inner) => (Some(tag), &**inner),
                other => (None, other),
            };
            match view_of(inner) {
                Some(view) => write_msg(w, tag, view),
                // A nested tag is never produced on the send path
                // (transports wrap once); serialize it plainly rather
                // than lose bytes.
                None => w.write_all(&encode(frame)),
            }
        }
        other => w.write_all(&encode(other)),
    }
}

fn read_u32<R: Read>(r: &mut R) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn read_u64<R: Read>(r: &mut R) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

fn read_len<R: Read>(r: &mut R) -> io::Result<usize> {
    let n = read_u32(r)?;
    if n > MAX_ELEMS {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {n} exceeds the {MAX_ELEMS}-element cap"),
        ));
    }
    Ok(n as usize)
}

/// Fills `dest` with little-endian `f32`s read from `r`: one `read_exact`
/// into the destination's own bytes where the in-memory layout is the
/// wire layout, element-wise otherwise (mirroring [`write_msg`]).
fn fill_f32s<R: Read>(r: &mut R, dest: &mut [f32]) -> io::Result<()> {
    #[cfg(target_endian = "little")]
    {
        r.read_exact(f32s_le_bytes_mut(dest))
    }
    #[cfg(not(target_endian = "little"))]
    {
        let mut b = [0u8; 4];
        for d in dest {
            r.read_exact(&mut b)?;
            *d = f32::from_le_bytes(b);
        }
        Ok(())
    }
}

/// Fills `dest` with little-endian `u32`s read from `r` (see
/// [`fill_f32s`]).
fn fill_u32s<R: Read>(r: &mut R, dest: &mut [u32]) -> io::Result<()> {
    #[cfg(target_endian = "little")]
    {
        r.read_exact(u32s_le_bytes_mut(dest))
    }
    #[cfg(not(target_endian = "little"))]
    {
        let mut b = [0u8; 4];
        for d in dest {
            r.read_exact(&mut b)?;
            *d = u32::from_le_bytes(b);
        }
        Ok(())
    }
}

fn read_f32s<R: Read>(r: &mut R, n: usize) -> io::Result<Vec<f32>> {
    let mut vals = vec![0.0f32; n];
    fill_f32s(r, &mut vals)?;
    Ok(vals)
}

fn read_u32s<R: Read>(r: &mut R, n: usize) -> io::Result<Vec<u32>> {
    let mut vals = vec![0u32; n];
    fill_u32s(r, &mut vals)?;
    Ok(vals)
}

fn read_u8<R: Read>(r: &mut R) -> io::Result<u8> {
    let mut b = [0u8; 1];
    r.read_exact(&mut b)?;
    Ok(b[0])
}

/// Reads the schedule-tag fields that follow a `Tagged` tag byte.
fn read_schedule_tag<R: Read>(r: &mut R) -> io::Result<ScheduleTag> {
    let seq = read_u64(r)?;
    let pre_digest = read_u64(r)?;
    let kind = read_u8(r)?;
    let kind = OpKind::from_code(kind).ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unknown schedule op kind {kind:#04x}"),
        )
    })?;
    let words = read_u64(r)?;
    let param = read_u64(r)?;
    Ok(ScheduleTag {
        point: SchedulePoint {
            seq,
            kind,
            words,
            param,
        },
        pre_digest,
    })
}

/// Reads the rest of an untagged frame whose tag byte was `tag`.
fn read_untagged<R: Read>(r: &mut R, tag: u8) -> io::Result<Frame> {
    match tag {
        TAG_F32 => {
            let n = read_len(r)?;
            Ok(Frame::Msg(WireMsg::F32(read_f32s(r, n)?)))
        }
        TAG_U32 => {
            let n = read_len(r)?;
            Ok(Frame::Msg(WireMsg::U32(read_u32s(r, n)?)))
        }
        TAG_SPARSE => {
            let n_idx = read_len(r)?;
            let n_val = read_len(r)?;
            let idx = read_u32s(r, n_idx)?;
            let val = read_f32s(r, n_val)?;
            Ok(Frame::Msg(WireMsg::Sparse(idx, val)))
        }
        TAG_TOKEN => Ok(Frame::Msg(WireMsg::Token)),
        TAG_HELLO => Ok(Frame::Hello(read_u32(r)?)),
        TAG_ABORT => {
            let epoch = read_u64(r)?;
            let departed = read_u32(r)?;
            Ok(Frame::Abort { epoch, departed })
        }
        TAG_REFORM => Ok(Frame::Reform {
            epoch: read_u64(r)?,
        }),
        // Only reachable as the inner frame of a tag: the transport wraps
        // once per send.
        TAG_TAGGED => Err(non_payload_in_tag()),
        other => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unknown frame tag {other:#04x}"),
        )),
    }
}

fn non_payload_in_tag() -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        "schedule tag wraps a non-payload frame",
    )
}

/// Wraps `inner` in its schedule tag, if it had one. Tags wrap exactly one
/// payload message — never a handshake or control frame.
fn tagged(tag: Option<ScheduleTag>, inner: Frame) -> io::Result<Frame> {
    match (tag, inner) {
        (None, frame) => Ok(frame),
        (Some(tag), Frame::Msg(msg)) => Ok(Frame::Msg(WireMsg::Tagged(tag, Box::new(msg)))),
        (Some(_), _) => Err(non_payload_in_tag()),
    }
}

/// Reads the optional schedule-tag wrapper and the (inner) frame's tag
/// byte — everything up to the point where the owned and the
/// receive-into paths part ways.
fn read_prefix<R: Read>(r: &mut R) -> io::Result<(Option<ScheduleTag>, u8)> {
    match read_u8(r)? {
        TAG_TAGGED => {
            let tag = read_schedule_tag(r)?;
            Ok((Some(tag), read_u8(r)?))
        }
        other => Ok((None, other)),
    }
}

/// Reads one frame from `r` (blocking, subject to the stream's read
/// timeout).
///
/// # Errors
///
/// Propagates I/O errors; an unknown tag or an oversized length surfaces
/// as `InvalidData`.
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Frame> {
    let (tag, kind) = read_prefix(r)?;
    let inner = read_untagged(r, kind)?;
    tagged(tag, inner)
}

/// Caller-provided destination of [`read_frame_into`]: the dense payload
/// kinds whose length the receiver knows before the frame arrives.
#[derive(Debug)]
pub enum DenseMut<'a> {
    /// Expects an `F32` frame of exactly this many elements.
    F32(&'a mut [f32]),
    /// Expects a `U32` frame of exactly this many elements.
    U32(&'a mut [u32]),
}

impl DenseMut<'_> {
    /// Elements the destination holds.
    pub fn len(&self) -> usize {
        match self {
            DenseMut::F32(d) => d.len(),
            DenseMut::U32(d) => d.len(),
        }
    }

    /// Whether the destination holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A shorter-lived view of the same destination (for retry loops).
    pub fn reborrow(&mut self) -> DenseMut<'_> {
        match self {
            DenseMut::F32(d) => DenseMut::F32(d),
            DenseMut::U32(d) => DenseMut::U32(d),
        }
    }

    fn wire_tag(&self) -> u8 {
        match self {
            DenseMut::F32(_) => TAG_F32,
            DenseMut::U32(_) => TAG_U32,
        }
    }
}

/// Outcome of [`read_frame_into`].
#[derive(Debug, PartialEq)]
pub enum ReadInto {
    /// The expected payload landed in the destination; `tag` is the
    /// schedule tag it was wrapped in, if any.
    Filled {
        /// Schedule tag the frame carried (cross-check mode).
        tag: Option<ScheduleTag>,
    },
    /// The frame is of the expected kind but announces `actual` elements.
    /// **No payload byte has been consumed**, so the stream is left
    /// mid-frame: the caller must close the link.
    LengthMismatch {
        /// Schedule tag the frame carried (cross-check mode).
        tag: Option<ScheduleTag>,
        /// Element count in the frame header.
        actual: usize,
    },
    /// Some other frame — a control frame, or a payload of another kind —
    /// fully read and decoded like [`read_frame`] would.
    Other(Frame),
}

/// Reads one frame from `r`; if it is the dense payload `dest` expects,
/// the payload bytes are read **directly into `dest`** (no allocation, no
/// per-element decode). The header's element count is validated against
/// `dest.len()` before any payload byte is read.
///
/// # Errors
///
/// As [`read_frame`].
pub fn read_frame_into<R: Read>(r: &mut R, dest: DenseMut<'_>) -> io::Result<ReadInto> {
    let (tag, kind) = read_prefix(r)?;
    if kind != dest.wire_tag() {
        let inner = read_untagged(r, kind)?;
        return tagged(tag, inner).map(ReadInto::Other);
    }
    let actual = read_len(r)?;
    if actual != dest.len() {
        return Ok(ReadInto::LengthMismatch { tag, actual });
    }
    match dest {
        DenseMut::F32(d) => fill_f32s(r, d)?,
        DenseMut::U32(d) => fill_u32s(r, d)?,
    }
    Ok(ReadInto::Filled { tag })
}

/// What an untagged payload frame announces, read before its first
/// payload byte: a receiver that must *decide* whether to accept a payload
/// (admission control) parses this, and only then commits storage with
/// [`read_payload_body_into`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PayloadHead {
    /// An `F32` frame of this many elements.
    F32(usize),
    /// A `U32` frame of this many elements.
    U32(usize),
    /// A `Sparse` frame of this many indices and values.
    Sparse {
        /// Announced index count.
        indices: usize,
        /// Announced value count.
        values: usize,
    },
    /// A token: nothing follows.
    Token,
}

impl PayloadHead {
    /// Payload bytes that follow the header on the stream.
    pub fn body_bytes(&self) -> u64 {
        match *self {
            PayloadHead::F32(n) | PayloadHead::U32(n) => 4 * n as u64,
            PayloadHead::Sparse { indices, values } => 4 * (indices as u64 + values as u64),
            PayloadHead::Token => 0,
        }
    }
}

/// Reads the tag byte and element counts of one untagged payload frame
/// and nothing more — no payload byte is consumed and nothing is
/// allocated, whatever the counts say.
///
/// # Errors
///
/// Propagates I/O errors; a count above [`MAX_ELEMS`], a schedule tag or
/// a control frame surfaces as `InvalidData`.
pub fn read_payload_head<R: Read>(r: &mut R) -> io::Result<PayloadHead> {
    match read_u8(r)? {
        TAG_F32 => Ok(PayloadHead::F32(read_len(r)?)),
        TAG_U32 => Ok(PayloadHead::U32(read_len(r)?)),
        TAG_SPARSE => Ok(PayloadHead::Sparse {
            indices: read_len(r)?,
            values: read_len(r)?,
        }),
        TAG_TOKEN => Ok(PayloadHead::Token),
        other => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("expected an untagged payload frame, got tag {other:#04x}"),
        )),
    }
}

/// Reads the payload bytes that follow a dense [`PayloadHead`] straight
/// into `dest`, which the caller sized from the head's element count.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn read_payload_body_into<R: Read>(r: &mut R, dest: DenseMut<'_>) -> io::Result<()> {
    match dest {
        DenseMut::F32(d) => fill_f32s(r, d),
        DenseMut::U32(d) => fill_u32s(r, d),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(frame: Frame) {
        let bytes = encode(&frame);
        let mut cursor = io::Cursor::new(bytes);
        assert_eq!(read_frame(&mut cursor).unwrap(), frame);
    }

    #[test]
    fn frames_roundtrip() {
        roundtrip(Frame::Msg(WireMsg::F32(vec![1.5, -2.25, f32::MIN])));
        roundtrip(Frame::Msg(WireMsg::F32(Vec::new())));
        roundtrip(Frame::Msg(WireMsg::U32(vec![0, 7, u32::MAX])));
        roundtrip(Frame::Msg(WireMsg::Sparse(vec![3, 9], vec![0.5, -1.0])));
        roundtrip(Frame::Msg(WireMsg::Sparse(Vec::new(), Vec::new())));
        roundtrip(Frame::Msg(WireMsg::Token));
        roundtrip(Frame::Hello(42));
        roundtrip(Frame::Abort {
            epoch: 3,
            departed: 7,
        });
        roundtrip(Frame::Reform { epoch: u64::MAX });
    }

    fn sample_tag() -> ScheduleTag {
        ScheduleTag {
            point: SchedulePoint {
                seq: 7,
                kind: OpKind::AllReduce,
                words: 4096,
                param: 1,
            },
            pre_digest: 0xdead_beef_cafe_f00d,
        }
    }

    #[test]
    fn tagged_frames_roundtrip() {
        roundtrip(Frame::Msg(WireMsg::Tagged(
            sample_tag(),
            Box::new(WireMsg::F32(vec![1.0, -2.0])),
        )));
        roundtrip(Frame::Msg(WireMsg::Tagged(
            sample_tag(),
            Box::new(WireMsg::Token),
        )));
        roundtrip(Frame::Msg(WireMsg::Tagged(
            sample_tag(),
            Box::new(WireMsg::Sparse(vec![1, 9], vec![0.25, -0.5])),
        )));
    }

    #[test]
    fn nested_tag_is_rejected() {
        let frame = Frame::Msg(WireMsg::Tagged(
            sample_tag(),
            Box::new(WireMsg::Tagged(sample_tag(), Box::new(WireMsg::Token))),
        ));
        let bytes = encode(&frame);
        let mut cursor = io::Cursor::new(bytes);
        let err = read_frame(&mut cursor).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn tag_with_unknown_op_kind_is_rejected() {
        let mut bytes = encode(&Frame::Msg(WireMsg::Tagged(
            sample_tag(),
            Box::new(WireMsg::Token),
        )));
        // The kind byte sits after the tag byte and two u64 fields.
        bytes[17] = 0xEE;
        let mut cursor = io::Cursor::new(bytes);
        let err = read_frame(&mut cursor).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    /// A writer that accepts at most `chunk` bytes per call and only ever
    /// consumes from the first non-empty buffer — the worst-case short
    /// vectored write.
    struct DribbleWriter {
        out: Vec<u8>,
        chunk: usize,
    }

    impl Write for DribbleWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let n = buf.len().min(self.chunk);
            self.out.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn sample_frames() -> Vec<Frame> {
        vec![
            Frame::Msg(WireMsg::F32(vec![1.5, -2.25, f32::NAN, -0.0, f32::MIN])),
            Frame::Msg(WireMsg::F32(Vec::new())),
            Frame::Msg(WireMsg::U32(vec![0, 7, u32::MAX])),
            Frame::Msg(WireMsg::Sparse(vec![3, 9], vec![0.5, -1.0])),
            Frame::Msg(WireMsg::Sparse(Vec::new(), Vec::new())),
            Frame::Msg(WireMsg::Token),
            Frame::Hello(42),
            Frame::Abort {
                epoch: 3,
                departed: 7,
            },
            Frame::Reform { epoch: u64::MAX },
            Frame::Msg(WireMsg::Tagged(
                sample_tag(),
                Box::new(WireMsg::F32(vec![1.0, -2.0])),
            )),
            Frame::Msg(WireMsg::Tagged(
                sample_tag(),
                Box::new(WireMsg::Sparse(vec![1, 9], vec![0.25, -0.5])),
            )),
            Frame::Msg(WireMsg::Tagged(sample_tag(), Box::new(WireMsg::Token))),
            Frame::Msg(WireMsg::Tagged(
                sample_tag(),
                Box::new(WireMsg::Tagged(sample_tag(), Box::new(WireMsg::Token))),
            )),
        ]
    }

    #[test]
    fn vectored_write_matches_encode() {
        // The zero-copy vectored path must emit exactly the bytes of the
        // reference serializer, frame for frame.
        for frame in sample_frames() {
            let mut out = Vec::new();
            write_frame(&mut out, &frame).unwrap();
            assert_eq!(out, encode(&frame), "frame {frame:?}");
        }
    }

    #[test]
    fn vectored_write_survives_short_writes() {
        // A writer that dribbles 3 bytes at a time exercises the
        // partial-write loop across header/payload slice boundaries.
        for frame in sample_frames() {
            let mut w = DribbleWriter {
                out: Vec::new(),
                chunk: 3,
            };
            write_frame(&mut w, &frame).unwrap();
            assert_eq!(w.out, encode(&frame), "frame {frame:?}");
        }
    }

    #[test]
    fn write_msg_matches_tagged_encoding() {
        // `write_msg` with an explicit tag is byte-identical to encoding
        // the equivalent `Tagged` frame.
        let tag = sample_tag();
        let idx = vec![2u32, 5];
        let val = vec![0.75f32, f32::NAN];
        let mut out = Vec::new();
        write_msg(&mut out, Some(&tag), MsgRef::Sparse(&idx, &val)).unwrap();
        let expected = encode(&Frame::Msg(WireMsg::Tagged(
            tag,
            Box::new(WireMsg::Sparse(idx, val)),
        )));
        assert_eq!(out, expected);
    }

    #[test]
    fn write_zero_is_an_error() {
        struct FullWriter;
        impl Write for FullWriter {
            fn write(&mut self, _buf: &[u8]) -> io::Result<usize> {
                Ok(0)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let err = write_msg(&mut FullWriter, None, MsgRef::F32(&[1.0])).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
    }

    #[test]
    fn f32_payload_is_bit_exact() {
        // NaN payloads and signed zeros must survive the wire untouched.
        let vals = vec![f32::NAN, -0.0, 0.0, f32::INFINITY];
        let bytes = encode(&Frame::Msg(WireMsg::F32(vals.clone())));
        let mut cursor = io::Cursor::new(bytes);
        match read_frame(&mut cursor).unwrap() {
            Frame::Msg(WireMsg::F32(got)) => {
                assert_eq!(got.len(), vals.len());
                for (a, b) in got.iter().zip(&vals) {
                    assert_eq!(a.to_bits(), b.to_bits());
                }
            }
            other => panic!("wrong frame: {other:?}"),
        }
    }

    /// A reader that yields 1–7 bytes per call, cycling — the worst-case
    /// short read, mirror of [`DribbleWriter`].
    struct DribbleReader {
        bytes: Vec<u8>,
        pos: usize,
        calls: usize,
    }

    impl DribbleReader {
        fn new(bytes: Vec<u8>) -> Self {
            DribbleReader {
                bytes,
                pos: 0,
                calls: 0,
            }
        }
    }

    impl Read for DribbleReader {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.calls += 1;
            let n = (self.calls % 7 + 1)
                .min(buf.len())
                .min(self.bytes.len() - self.pos);
            buf[..n].copy_from_slice(&self.bytes[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    /// Dense payloads with awkward bit patterns and lengths.
    fn dense_samples() -> Vec<WireMsg> {
        let nan_payload = f32::from_bits(0x7fc1_2345);
        vec![
            WireMsg::F32(Vec::new()),
            WireMsg::F32(vec![-0.0]),
            WireMsg::F32(vec![f32::NAN, nan_payload, -0.0, 0.0, f32::INFINITY]),
            WireMsg::F32((0..1023).map(|i| (i as f32 * 0.37).sin()).collect()),
            WireMsg::U32(Vec::new()),
            WireMsg::U32(vec![0, 7, u32::MAX]),
            WireMsg::U32((0..517u32).map(|i| i.wrapping_mul(0x0101_0101)).collect()),
        ]
    }

    /// Reads `bytes` through [`read_frame_into`] with a destination shaped
    /// like `like`, and returns what landed there.
    fn read_into_like<R: Read>(r: &mut R, like: &WireMsg) -> (ReadInto, WireMsg) {
        match like {
            WireMsg::F32(v) => {
                let mut dest = vec![1.0f32; v.len()];
                let out = read_frame_into(r, DenseMut::F32(&mut dest)).unwrap();
                (out, WireMsg::F32(dest))
            }
            WireMsg::U32(v) => {
                let mut dest = vec![1u32; v.len()];
                let out = read_frame_into(r, DenseMut::U32(&mut dest)).unwrap();
                (out, WireMsg::U32(dest))
            }
            other => panic!("not a dense payload: {other:?}"),
        }
    }

    fn bits_of(msg: &WireMsg) -> Vec<u32> {
        match msg {
            WireMsg::F32(v) => v.iter().map(|x| x.to_bits()).collect(),
            WireMsg::U32(v) => v.clone(),
            other => panic!("not a dense payload: {other:?}"),
        }
    }

    #[test]
    fn read_into_matches_owned_read_bit_for_bit() {
        for msg in dense_samples() {
            for tag in [None, Some(sample_tag())] {
                let frame = match tag {
                    Some(tag) => Frame::Msg(WireMsg::Tagged(tag, Box::new(msg.clone()))),
                    None => Frame::Msg(msg.clone()),
                };
                let bytes = encode(&frame);
                let owned = match read_frame(&mut io::Cursor::new(&bytes)).unwrap() {
                    Frame::Msg(WireMsg::Tagged(_, inner)) => *inner,
                    Frame::Msg(plain) => plain,
                    other => panic!("wrong frame: {other:?}"),
                };
                let mut cursor = io::Cursor::new(&bytes);
                let (out, landed) = read_into_like(&mut cursor, &msg);
                assert_eq!(out, ReadInto::Filled { tag });
                assert_eq!(bits_of(&landed), bits_of(&owned), "payload {msg:?}");
                assert_eq!(bits_of(&landed), bits_of(&msg));
                assert_eq!(cursor.position() as usize, bytes.len());
            }
        }
    }

    #[test]
    fn reads_survive_short_reads() {
        // 1–7 bytes per `read` exercises `read_exact` across the tag,
        // count and payload boundaries on both receive paths.
        for frame in sample_frames() {
            // A nested tag is unreadable by design (see
            // `nested_tag_is_rejected`).
            if matches!(&frame, Frame::Msg(WireMsg::Tagged(_, inner)) if matches!(**inner, WireMsg::Tagged(..)))
            {
                continue;
            }
            // Compared re-encoded: the samples carry NaNs.
            let bytes = encode(&frame);
            let mut r = DribbleReader::new(bytes.clone());
            assert_eq!(encode(&read_frame(&mut r).unwrap()), bytes);
        }
        for msg in dense_samples() {
            let frame = Frame::Msg(WireMsg::Tagged(sample_tag(), Box::new(msg.clone())));
            let mut r = DribbleReader::new(encode(&frame));
            let (out, landed) = read_into_like(&mut r, &msg);
            assert_eq!(
                out,
                ReadInto::Filled {
                    tag: Some(sample_tag())
                }
            );
            assert_eq!(bits_of(&landed), bits_of(&msg));
        }
    }

    #[test]
    fn length_mismatch_consumes_no_payload() {
        let bytes = encode(&Frame::Msg(WireMsg::F32(vec![1.0, 2.0, 3.0])));
        let mut cursor = io::Cursor::new(&bytes);
        let mut dest = [9.0f32; 2];
        let out = read_frame_into(&mut cursor, DenseMut::F32(&mut dest)).unwrap();
        assert_eq!(
            out,
            ReadInto::LengthMismatch {
                tag: None,
                actual: 3
            }
        );
        // Tag byte and count only; the 12 payload bytes are untouched, and
        // so is the destination.
        assert_eq!(cursor.position(), 5);
        assert_eq!(dest, [9.0, 9.0]);
    }

    #[test]
    fn oversized_length_is_rejected_before_the_destination_is_touched() {
        let mut bytes = vec![TAG_U32];
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        let mut dest = [5u32; 4];
        let err =
            read_frame_into(&mut io::Cursor::new(bytes), DenseMut::U32(&mut dest)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(dest, [5; 4]);
    }

    #[test]
    fn read_into_hands_other_frames_back_owned() {
        // Control frames, and payloads of another kind than the
        // destination expects, decode exactly like `read_frame`.
        for frame in sample_frames() {
            if matches!(&frame, Frame::Msg(WireMsg::F32(_)))
                || matches!(&frame, Frame::Msg(WireMsg::Tagged(_, inner)) if matches!(**inner, WireMsg::F32(_) | WireMsg::Tagged(..)))
            {
                continue;
            }
            let bytes = encode(&frame);
            let mut dest = [0.0f32; 2];
            let out =
                read_frame_into(&mut io::Cursor::new(&bytes), DenseMut::F32(&mut dest)).unwrap();
            assert_eq!(out, ReadInto::Other(frame));
        }
    }

    #[test]
    fn payload_head_then_body_is_the_owned_read() {
        // Head first, then the body into storage sized from it: the same
        // bits as `read_frame`, and the head stops exactly at the body.
        for msg in dense_samples() {
            let bytes = encode(&Frame::Msg(msg.clone()));
            let mut r = DribbleReader::new(bytes.clone());
            let head = read_payload_head(&mut r).unwrap();
            assert_eq!(r.pos, 5, "tag byte and count only");
            assert_eq!(head.body_bytes(), msg.payload_bytes());
            let landed = match (head, &msg) {
                (PayloadHead::F32(n), WireMsg::F32(v)) if n == v.len() => {
                    let mut dest = vec![1.0f32; n];
                    read_payload_body_into(&mut r, DenseMut::F32(&mut dest)).unwrap();
                    WireMsg::F32(dest)
                }
                (PayloadHead::U32(n), WireMsg::U32(v)) if n == v.len() => {
                    let mut dest = vec![1u32; n];
                    read_payload_body_into(&mut r, DenseMut::U32(&mut dest)).unwrap();
                    WireMsg::U32(dest)
                }
                other => panic!("head disagrees with the frame: {other:?}"),
            };
            assert_eq!(r.pos, bytes.len());
            assert_eq!(bits_of(&landed), bits_of(&msg));
        }
    }

    #[test]
    fn payload_head_announces_without_allocating_or_consuming() {
        // Counts are reported, not acted on: a capped-out header parses
        // from nine bytes with nothing behind them.
        let mut bytes = vec![TAG_SPARSE];
        bytes.extend_from_slice(&MAX_ELEMS.to_le_bytes());
        bytes.extend_from_slice(&7u32.to_le_bytes());
        let head = read_payload_head(&mut io::Cursor::new(&bytes)).unwrap();
        assert_eq!(
            head,
            PayloadHead::Sparse {
                indices: MAX_ELEMS as usize,
                values: 7
            }
        );
        assert_eq!(head.body_bytes(), 4 * (u64::from(MAX_ELEMS) + 7));
        let token = read_payload_head(&mut io::Cursor::new([TAG_TOKEN])).unwrap();
        assert_eq!((token, token.body_bytes()), (PayloadHead::Token, 0));
        // Over the cap, schedule-tagged, control and unknown frames are
        // all refused.
        let mut over = vec![TAG_F32];
        over.extend_from_slice(&(MAX_ELEMS + 1).to_le_bytes());
        for bad in [over, vec![TAG_TAGGED], vec![TAG_HELLO], vec![0xEE]] {
            let err = read_payload_head(&mut io::Cursor::new(bad)).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        }
    }

    #[test]
    fn truncated_frame_is_an_error() {
        let mut bytes = encode(&Frame::Msg(WireMsg::F32(vec![1.0, 2.0])));
        bytes.truncate(bytes.len() - 3);
        let mut cursor = io::Cursor::new(bytes);
        assert!(read_frame(&mut cursor).is_err());
    }

    #[test]
    fn unknown_tag_is_an_error() {
        let mut cursor = io::Cursor::new(vec![0xEEu8]);
        let err = read_frame(&mut cursor).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn oversized_length_is_rejected_without_allocating() {
        let mut bytes = vec![TAG_F32];
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        let mut cursor = io::Cursor::new(bytes);
        let err = read_frame(&mut cursor).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
