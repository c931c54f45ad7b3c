//! The owned packet buffer used throughout NFP.
//!
//! A [`Packet`] is a fixed-capacity byte buffer with front headroom (so
//! headers can be added or removed without moving the payload far), the NFP
//! [`Metadata`] word, lazily parsed layer offsets, and field-level accessors
//! keyed by [`FieldId`] — the same field vocabulary the orchestrator's
//! dependency analysis uses.
//!
//! The assumed frame layout is `Ethernet → IPv4 → [AH]* → TCP|UDP → payload`,
//! which covers every NF in the paper's evaluation.

use crate::ah;
use crate::ether::{self, MacAddr};
use crate::field::FieldId;
use crate::ipv4::{self, Ipv4Addr};
use crate::meta::Metadata;
use crate::tcp;
use crate::udp;
use crate::{PacketError, Result};
use core::ops::Range;

/// Capacity of every packet buffer: an MTU-sized frame plus headroom and
/// room for added headers (AH etc.).
pub const CAPACITY: usize = 2048;

/// Bytes reserved in front of the frame for header prepending.
pub const HEADROOM: usize = 128;

/// Parsed layer offsets, relative to the start of the frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Layers {
    /// Offset of the IPv4 header (after Ethernet).
    pub l3: usize,
    /// Offset of the L4 (TCP/UDP) header.
    pub l4: usize,
    /// Offset of the application payload.
    pub payload: usize,
    /// L4 protocol number actually found (TCP/UDP), after skipping AH.
    pub l4_proto: u8,
    /// Offset of an Authentication Header between IP and L4, if present.
    pub ah: Option<usize>,
}

/// An owned packet: buffer + NFP metadata + parse state.
#[derive(Debug, Clone)]
pub struct Packet {
    buf: Box<[u8]>,
    start: usize,
    len: usize,
    meta: Metadata,
    layers: Option<Layers>,
    nil: bool,
    nil_priority: u32,
    nil_failure: bool,
    header_only: bool,
}

impl Default for Packet {
    fn default() -> Self {
        Self::new()
    }
}

impl Packet {
    /// Allocate an empty packet buffer.
    pub fn new() -> Self {
        Self {
            buf: vec![0u8; CAPACITY].into_boxed_slice(),
            start: HEADROOM,
            len: 0,
            meta: Metadata::default(),
            layers: None,
            nil: false,
            nil_priority: 0,
            nil_failure: false,
            header_only: false,
        }
    }

    /// Allocate a packet holding a copy of `frame`: [`Packet::refill`] on
    /// a fresh packet.
    pub fn from_bytes(frame: &[u8]) -> Result<Self> {
        let mut p = Self::new();
        p.refill(frame)?;
        Ok(p)
    }

    /// Overwrite this packet, in place, with a fresh copy of `frame`: every
    /// field back to the state of [`Packet::new`], then the frame written
    /// into the existing buffer behind full headroom. What an ingress does
    /// to a spent packet it was handed back ([`crate::io::Ingress::recycle`]),
    /// so nothing of the packet's previous life — metadata, parse state,
    /// nil or header-only flags, a moved frame start — carries over. On
    /// `Err` the packet is left empty.
    pub fn refill(&mut self, frame: &[u8]) -> Result<()> {
        self.reset();
        self.set_frame(frame)
    }

    /// Replace the frame contents (keeps metadata, clears parse state).
    pub fn set_frame(&mut self, frame: &[u8]) -> Result<()> {
        if frame.len() > CAPACITY - HEADROOM {
            return Err(PacketError::NoCapacity {
                requested: frame.len(),
                capacity: CAPACITY - HEADROOM,
            });
        }
        self.start = HEADROOM;
        self.len = frame.len();
        self.buf[HEADROOM..HEADROOM + frame.len()].copy_from_slice(frame);
        self.layers = None;
        self.nil = false;
        self.nil_failure = false;
        self.header_only = false;
        Ok(())
    }

    /// The frame bytes.
    #[inline]
    pub fn data(&self) -> &[u8] {
        &self.buf[self.start..self.start + self.len]
    }

    /// Mutable frame bytes (clears cached parse state on header-structure
    /// changes is the caller's responsibility via [`Packet::invalidate`]).
    #[inline]
    pub fn data_mut(&mut self) -> &mut [u8] {
        &mut self.buf[self.start..self.start + self.len]
    }

    /// Frame length in bytes. (No `is_empty`: nothing asks whether a
    /// frame is empty; the header parsers reject short ones.)
    #[inline]
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the frame is empty.
    #[inline]
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// NFP metadata word.
    #[inline]
    pub fn meta(&self) -> Metadata {
        self.meta
    }

    /// Set the NFP metadata word.
    #[inline]
    pub fn set_meta(&mut self, meta: Metadata) {
        self.meta = meta;
    }

    /// Mark this packet as a *nil packet*: the runtime sends one to the
    /// merger in place of a dropped packet so drops propagate (§5.2/§5.3).
    #[inline]
    #[cfg(test)]
    fn set_nil(&mut self, nil: bool) {
        self.nil = nil;
    }

    /// True if this is a nil (drop-intention) packet.
    #[inline]
    pub fn is_nil(&self) -> bool {
        self.nil
    }

    /// Conflict priority of the parallel member that emitted this nil
    /// packet — the merger resolves drop disagreements with it (§5.3 plus
    /// the `Priority` rule semantics of §3).
    #[inline]
    pub fn nil_priority(&self) -> u32 {
        self.nil_priority
    }

    /// True if this nil packet was emitted by the failed-NF path rather
    /// than by a drop verdict.
    #[inline]
    pub fn is_nil_failure(&self) -> bool {
        self.nil_failure
    }

    /// True if this copy carries only headers (OP#2 Header-Only Copying).
    #[inline]
    pub fn is_header_only(&self) -> bool {
        self.header_only
    }

    /// Forget cached layer offsets (call after structural edits).
    #[inline]
    pub fn invalidate(&mut self) {
        self.layers = None;
    }

    /// Parse Ethernet → IPv4 → (optional AH) → TCP/UDP and cache the offsets.
    #[inline]
    pub fn parse(&mut self) -> Result<Layers> {
        if let Some(l) = self.layers {
            return Ok(l);
        }
        let l = Self::parse_frame(self.data())?;
        self.layers = Some(l);
        Ok(l)
    }

    /// Parse without caching (for immutable contexts).
    #[inline]
    pub fn parsed(&self) -> Result<Layers> {
        match self.layers {
            Some(l) => Ok(l),
            None => Self::parse_frame(self.data()),
        }
    }

    fn parse_frame(data: &[u8]) -> Result<Layers> {
        let eth = ether::EtherView::new(data)?;
        if eth.ethertype() != ether::ETHERTYPE_IPV4 {
            return Err(PacketError::Malformed {
                what: "not an IPv4 frame",
            });
        }
        let l3 = ether::HEADER_LEN;
        let ip = ipv4::Ipv4View::new(&data[l3..])?;
        let mut next = ip.protocol();
        let mut off = l3 + ip.header_len();
        let mut ah_off = None;
        if next == ipv4::PROTO_AH {
            let ahv = ah::AhView::new(&data[off..])?;
            ah_off = Some(off);
            next = ahv.next_header();
            off += ah::HEADER_LEN;
        }
        let (l4, payload) = match next {
            ipv4::PROTO_TCP => {
                let t = tcp::TcpView::new(&data[off..])?;
                (off, off + t.header_len())
            }
            ipv4::PROTO_UDP => {
                udp::check_header(&data[off..])?;
                (off, off + udp::HEADER_LEN)
            }
            _ => {
                return Err(PacketError::Malformed {
                    what: "unsupported L4 protocol",
                })
            }
        };
        Ok(Layers {
            l3,
            l4,
            payload,
            l4_proto: next,
            ah: ah_off,
        })
    }

    /// Frame-relative offset of `field`'s first byte under `l` — the one
    /// table of where header fields live. Width is [`FieldId::width`].
    #[inline]
    fn field_offset(l: &Layers, field: FieldId) -> Result<usize> {
        Ok(match field {
            FieldId::Dmac => 0,
            FieldId::Smac => 6,
            FieldId::Sip => l.l3 + ipv4::offsets::SRC,
            FieldId::Dip => l.l3 + ipv4::offsets::DST,
            FieldId::Ttl => l.l3 + ipv4::offsets::TTL,
            FieldId::Tos => l.l3 + ipv4::offsets::TOS,
            FieldId::Sport => l.l4,
            FieldId::Dport => l.l4 + 2,
            FieldId::L4Checksum => match l.l4_proto {
                ipv4::PROTO_TCP => l.l4 + tcp::offsets::CHECKSUM,
                ipv4::PROTO_UDP => l.l4 + udp::offsets::CHECKSUM,
                _ => return Err(PacketError::FieldUnavailable(field)),
            },
            FieldId::Payload => l.payload,
        })
    }

    /// Byte range (relative to the frame start) occupied by `field`.
    #[inline]
    pub fn field_range(&self, field: FieldId) -> Result<Range<usize>> {
        let l = self.parsed()?;
        let start = Self::field_offset(&l, field)?;
        let end = match field.width() {
            Some(w) => start + w,
            None => self.len,
        };
        if end > self.len {
            return Err(self.short_of(end));
        }
        Ok(start..end)
    }

    /// The error for a field that would end at frame offset `needed`.
    #[cold]
    fn short_of(&self, needed: usize) -> PacketError {
        PacketError::Truncated {
            what: "field range",
            needed,
            available: self.len,
        }
    }

    /// The `N` bytes of the fixed-width header field `field`: one bounds
    /// check against the frame, one load — no range, no slice copy.
    #[inline]
    fn load<const N: usize>(&self, l: &Layers, field: FieldId) -> Result<[u8; N]> {
        debug_assert_eq!(field.width(), Some(N));
        let off = Self::field_offset(l, field)?;
        match self.data().get(off..off + N) {
            Some(bytes) => Ok(bytes.try_into().expect("a slice of N bytes")),
            None => Err(self.short_of(off + N)),
        }
    }

    /// Read a header field as raw bytes.
    #[inline]
    pub fn field_bytes(&self, field: FieldId) -> Result<&[u8]> {
        let r = self.field_range(field)?;
        Ok(&self.data()[r])
    }

    /// Read a field of at most 8 bytes as a big-endian integer — what
    /// folding [`Packet::field_bytes`] would give, as one fixed-width load
    /// for every header field. A payload longer than 8 bytes is
    /// [`PacketError::NoCapacity`].
    #[inline]
    pub fn field_scalar(&self, field: FieldId) -> Result<u64> {
        let l = self.parsed()?;
        Ok(match field {
            FieldId::Sip | FieldId::Dip => u32::from_be_bytes(self.load(&l, field)?).into(),
            FieldId::Sport | FieldId::Dport | FieldId::L4Checksum => {
                u16::from_be_bytes(self.load(&l, field)?).into()
            }
            FieldId::Ttl | FieldId::Tos => self.load::<1>(&l, field)?[0].into(),
            FieldId::Smac | FieldId::Dmac => {
                let mac: [u8; 6] = self.load(&l, field)?;
                let mut wide = [0u8; 8];
                wide[2..].copy_from_slice(&mac);
                u64::from_be_bytes(wide)
            }
            FieldId::Payload => {
                let bytes = self.field_bytes(field)?;
                if bytes.len() > 8 {
                    return Err(PacketError::NoCapacity {
                        requested: bytes.len(),
                        capacity: 8,
                    });
                }
                bytes.iter().fold(0, |v, &b| v << 8 | u64::from(b))
            }
        })
    }

    /// Overwrite a field with raw bytes (must match the field width; the
    /// payload may shrink or grow within the current frame length only).
    #[inline]
    pub fn set_field_bytes(&mut self, field: FieldId, value: &[u8]) -> Result<()> {
        let r = self.field_range(field)?;
        if r.len() != value.len() {
            return Err(PacketError::Malformed {
                what: "field value width mismatch",
            });
        }
        // Header fields are 1, 2, 4 or 6 bytes wide: each width gets its
        // own fixed-size store, wherever this ends up inlined or not; only
        // the payload pays a `memmove` call of run-time length.
        fn put<const N: usize>(dst: &mut [u8], value: &[u8]) {
            let dst: &mut [u8; N] = dst.try_into().expect("widths were compared");
            *dst = *<&[u8; N]>::try_from(value).expect("widths were compared");
        }
        let dst = &mut self.data_mut()[r];
        match value.len() {
            1 => put::<1>(dst, value),
            2 => put::<2>(dst, value),
            4 => put::<4>(dst, value),
            6 => put::<6>(dst, value),
            _ => dst.copy_from_slice(value),
        }
        Ok(())
    }

    // -- typed convenience accessors ------------------------------------

    /// Source IPv4 address.
    #[inline]
    pub fn sip(&self) -> Result<Ipv4Addr> {
        Ok(Ipv4Addr(self.load(&self.parsed()?, FieldId::Sip)?))
    }

    /// Destination IPv4 address.
    #[inline]
    pub fn dip(&self) -> Result<Ipv4Addr> {
        Ok(Ipv4Addr(self.load(&self.parsed()?, FieldId::Dip)?))
    }

    /// L4 source port.
    #[inline]
    pub fn sport(&self) -> Result<u16> {
        Ok(u16::from_be_bytes(
            self.load(&self.parsed()?, FieldId::Sport)?,
        ))
    }

    /// L4 destination port.
    #[inline]
    pub fn dport(&self) -> Result<u16> {
        Ok(u16::from_be_bytes(
            self.load(&self.parsed()?, FieldId::Dport)?,
        ))
    }

    /// Set the destination IPv4 address.
    #[inline]
    pub fn set_dip(&mut self, a: Ipv4Addr) -> Result<()> {
        self.set_field_bytes(FieldId::Dip, &a.0)
    }

    /// Set the L4 source port.
    #[inline]
    pub fn set_sport(&mut self, p: u16) -> Result<()> {
        self.set_field_bytes(FieldId::Sport, &p.to_be_bytes())
    }

    /// Set the L4 destination port.
    #[inline]
    pub fn set_dport(&mut self, p: u16) -> Result<()> {
        self.set_field_bytes(FieldId::Dport, &p.to_be_bytes())
    }

    /// IPv4 TTL.
    #[inline]
    pub fn ttl(&self) -> Result<u8> {
        Ok(self.load::<1>(&self.parsed()?, FieldId::Ttl)?[0])
    }

    /// Set the IPv4 TTL.
    #[inline]
    pub fn set_ttl(&mut self, ttl: u8) -> Result<()> {
        self.set_field_bytes(FieldId::Ttl, &[ttl])
    }

    /// Source MAC address.
    #[inline]
    pub fn smac(&self) -> Result<MacAddr> {
        Ok(MacAddr(self.load(&self.parsed()?, FieldId::Smac)?))
    }

    /// Destination MAC address.
    #[inline]
    pub fn dmac(&self) -> Result<MacAddr> {
        Ok(MacAddr(self.load(&self.parsed()?, FieldId::Dmac)?))
    }

    /// The 5-tuple (sip, dip, sport, dport, proto) used for flow hashing.
    #[inline]
    pub fn five_tuple(&self) -> Result<(Ipv4Addr, Ipv4Addr, u16, u16, u8)> {
        let l = self.parsed()?;
        Ok((
            Ipv4Addr(self.load(&l, FieldId::Sip)?),
            Ipv4Addr(self.load(&l, FieldId::Dip)?),
            u16::from_be_bytes(self.load(&l, FieldId::Sport)?),
            u16::from_be_bytes(self.load(&l, FieldId::Dport)?),
            l.l4_proto,
        ))
    }

    /// Application payload bytes.
    #[inline]
    pub fn payload(&self) -> Result<&[u8]> {
        let l = self.parsed()?;
        Ok(&self.data()[l.payload..])
    }

    /// Mutable application payload bytes.
    #[inline]
    pub fn payload_mut(&mut self) -> Result<&mut [u8]> {
        let l = self.parse()?;
        let range = l.payload..self.len;
        let start = self.start;
        Ok(&mut self.buf[start + range.start..start + range.end])
    }

    // -- structural edits -------------------------------------------------

    /// Insert `n` zero bytes at frame-relative offset `at`, using headroom
    /// when possible so the payload does not move. Parse state is
    /// invalidated; callers must fix length/protocol fields themselves.
    pub fn insert_bytes(&mut self, at: usize, n: usize) -> Result<()> {
        if at > self.len {
            return Err(PacketError::Malformed {
                what: "insert offset beyond frame",
            });
        }
        if self.start >= n {
            // Shift the prefix left into headroom.
            let new_start = self.start - n;
            self.buf.copy_within(self.start..self.start + at, new_start);
            self.start = new_start;
        } else {
            if self.start + self.len + n > CAPACITY {
                return Err(PacketError::NoCapacity {
                    requested: n,
                    capacity: CAPACITY - self.start - self.len,
                });
            }
            // Shift the suffix right.
            self.buf
                .copy_within(self.start + at..self.start + self.len, self.start + at + n);
        }
        self.len += n;
        for b in &mut self.buf[self.start + at..self.start + at + n] {
            *b = 0;
        }
        self.invalidate();
        Ok(())
    }

    /// Remove `range` (frame-relative) from the frame. Parse state is
    /// invalidated; callers fix length/protocol fields.
    pub fn remove_bytes(&mut self, range: Range<usize>) -> Result<()> {
        if range.start > range.end || range.end > self.len {
            return Err(PacketError::Malformed {
                what: "remove range beyond frame",
            });
        }
        let n = range.len();
        // Shift the prefix right (cheap when the removed header is near the
        // front, which is always the case for AH removal).
        self.buf
            .copy_within(self.start..self.start + range.start, self.start + n);
        self.start += n;
        self.len -= n;
        self.invalidate();
        Ok(())
    }

    /// Recompute the IPv4 header checksum and, when the payload is intact,
    /// the L4 checksum. Header-only copies get only the IPv4 fix-up.
    pub fn finalize_checksums(&mut self) -> Result<()> {
        let l = self.parse()?;
        let (sip, dip) = (self.sip()?, self.dip()?);
        let start = self.start;
        if !self.header_only && l.ah.is_none() {
            let seg = &mut self.buf[start + l.l4..start + self.len];
            match l.l4_proto {
                ipv4::PROTO_TCP => tcp::fill_checksum(seg, sip, dip),
                ipv4::PROTO_UDP => udp::fill_checksum(seg, sip, dip),
                _ => {}
            }
        }
        let ip_hdr = &mut self.buf[start + l.l3..start + l.l4];
        ipv4::refresh_checksum(ip_hdr);
        Ok(())
    }

    /// Patch the IPv4 total-length field to match the current frame length
    /// and refresh the header checksum (used after add/remove of headers).
    pub fn sync_ip_total_len(&mut self) -> Result<()> {
        let l = self.parse()?;
        let total = (self.len - l.l3) as u16;
        let start = self.start;
        let ip = &mut self.buf[start + l.l3..];
        ip[ipv4::offsets::TOTAL_LEN..ipv4::offsets::TOTAL_LEN + 2]
            .copy_from_slice(&total.to_be_bytes());
        let hl = (ip[0] & 0x0f) as usize * 4;
        ipv4::refresh_checksum(&mut ip[..hl]);
        Ok(())
    }

    /// Replace the application payload with `new_payload` (which may have
    /// a different length), fixing the IPv4 total length. Used by
    /// payload-rewriting NFs (compression) and by the merger's
    /// `modify(v1.payload, vX.payload)` when lengths differ.
    ///
    /// Checksums are deliberately *not* recomputed here: the graph output
    /// path finalizes them exactly once, so parallel and sequential
    /// composition stay bit-identical regardless of when the payload was
    /// rewritten relative to header additions.
    pub fn replace_payload(&mut self, new_payload: &[u8]) -> Result<()> {
        let l = self.parse()?;
        let old_len = self.len - l.payload;
        let new_len = new_payload.len();
        if new_len > old_len {
            self.insert_bytes(self.len, new_len - old_len)?;
        } else if new_len < old_len {
            self.remove_bytes(l.payload..l.payload + (old_len - new_len))?;
        }
        let start = self.start;
        self.buf[start + l.payload..start + l.payload + new_len].copy_from_slice(new_payload);
        self.invalidate();
        self.sync_ip_total_len()?;
        Ok(())
    }

    /// Overwrite this packet, in place, with a copy of `src` tagged
    /// `version` — the one copy routine behind the by-value
    /// [`Packet::header_only_copy`] / [`Packet::full_copy`] and the pool's
    /// copies into a free slot's own buffer. Every field is rewritten, so
    /// nothing of what the buffer held before survives into the copy.
    ///
    /// A `header_only` copy (paper OP#2) takes the bytes up to the payload,
    /// rewrites the IPv4 total length to "the length of the header itself"
    /// so parallel NFs receive a valid packet, and caches the parse; a full
    /// copy takes the whole frame and inherits `src`'s header-only flag.
    /// On `Err` this packet's contents are unspecified.
    pub(crate) fn copy_from(&mut self, src: &Packet, version: u8, header_only: bool) -> Result<()> {
        let len = if header_only {
            src.parsed()?.payload
        } else {
            src.len
        };
        self.set_frame(&src.data()[..len])?;
        self.meta = src.meta.with_version(version);
        self.nil_priority = 0;
        self.header_only = header_only || src.header_only;
        if header_only {
            self.parse()?;
            self.sync_ip_total_len()?;
        }
        Ok(())
    }

    /// Produce a **header-only copy** (paper OP#2) tagged with `version`;
    /// see `Packet::copy_from`.
    pub fn header_only_copy(&self, version: u8) -> Result<Packet> {
        let mut copy = Packet::new();
        copy.copy_from(self, version, true)?;
        Ok(copy)
    }

    /// Produce a full copy tagged with `version`; see `Packet::copy_from`.
    pub fn full_copy(&self, version: u8) -> Result<Packet> {
        let mut copy = Packet::new();
        copy.copy_from(self, version, false)?;
        Ok(copy)
    }

    /// Overwrite this packet, in place, with the *nil packet* a runtime
    /// sends to the merger when its NF drops (§5.2): `meta` of the data
    /// packet, no frame, tagged with the emitting member's conflict
    /// `priority`; `failure` marks a fail-closed NF's failure nil.
    pub fn set_nil_packet(&mut self, meta: Metadata, priority: u32, failure: bool) {
        self.reset();
        self.meta = meta;
        self.nil = true;
        self.nil_priority = priority;
        self.nil_failure = failure;
    }

    /// Back to the state of [`Packet::new`], keeping the buffer: an empty
    /// frame behind full headroom, default metadata, every flag clear. The
    /// old bytes stay in the buffer but no accessor reaches past `len`.
    pub(crate) fn reset(&mut self) {
        self.start = HEADROOM;
        self.len = 0;
        self.meta = Metadata::default();
        self.layers = None;
        self.nil = false;
        self.nil_priority = 0;
        self.nil_failure = false;
        self.header_only = false;
    }

    /// Raw pointer to the first frame byte. Used by the pool's field-scoped
    /// writers; see the aliasing contract in [`crate::pool`].
    #[inline]
    pub(crate) fn frame_ptr(&self) -> *const u8 {
        self.buf[self.start..].as_ptr()
    }

    /// Ask the CPU to start loading the frame's first 192 bytes (three
    /// cache lines: every header the classifier parses, and a short
    /// frame's payload) into L1, ahead of a parse on this core of a frame
    /// written on another. A hint only; a no-op off x86_64.
    #[inline]
    pub fn prefetch(&self) {
        #[cfg(target_arch = "x86_64")]
        {
            use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            let frame = self.buf.as_ptr().wrapping_add(self.start).cast::<i8>();
            // SAFETY: a prefetch never faults, whatever the address, and
            // writes nothing; these lines start inside the buffer anyway.
            unsafe {
                for line in 0..3 {
                    _mm_prefetch::<_MM_HINT_T0>(frame.wrapping_add(line * 64));
                }
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Build a valid Ethernet/IPv4/TCP frame with `payload_len` bytes
    /// (delegates to the shared [`crate::testutil`] builders).
    pub(crate) fn tcp_frame(payload_len: usize) -> Vec<u8> {
        crate::testutil::tcp_frame_bytes(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            1234,
            80,
            &crate::testutil::patterned_payload(payload_len),
        )
    }

    #[test]
    fn parse_and_field_access() {
        let mut p = Packet::from_bytes(&tcp_frame(10)).unwrap();
        let l = p.parse().unwrap();
        assert_eq!(l.l3, 14);
        assert_eq!(l.l4, 34);
        assert_eq!(l.payload, 54);
        assert_eq!(p.sip().unwrap(), Ipv4Addr::new(10, 0, 0, 1));
        assert_eq!(p.dport().unwrap(), 80);
        assert_eq!(p.payload().unwrap().len(), 10);
    }

    #[test]
    fn field_rewrite_roundtrips() {
        let mut p = Packet::from_bytes(&tcp_frame(4)).unwrap();
        p.set_dip(Ipv4Addr::new(1, 2, 3, 4)).unwrap();
        p.set_sport(9999).unwrap();
        p.finalize_checksums().unwrap();
        assert_eq!(p.dip().unwrap(), Ipv4Addr::new(1, 2, 3, 4));
        assert_eq!(p.sport().unwrap(), 9999);
        // Checksums verify after finalize.
        let l = p.parse().unwrap();
        let d = p.data();
        assert!(ipv4::Ipv4View::new(&d[l.l3..]).unwrap().verify_checksum());
        assert!(tcp::verify_checksum(
            &d[l.l4..],
            p.sip().unwrap(),
            p.dip().unwrap()
        ));
    }

    #[test]
    fn header_only_copy_is_valid_and_short() {
        let p = Packet::from_bytes(&tcp_frame(700)).unwrap();
        let c = p.header_only_copy(2).unwrap();
        assert!(c.is_header_only());
        assert_eq!(c.len(), 54);
        assert_eq!(c.meta().version(), 2);
        // The copy reparses cleanly with a consistent total length.
        let l = c.parsed().unwrap();
        let ip = ipv4::Ipv4View::new(&c.data()[l.l3..]).unwrap();
        assert_eq!(ip.total_len(), 40);
        assert!(ip.verify_checksum());
    }

    #[test]
    fn insert_uses_headroom_and_keeps_bytes() {
        let frame = tcp_frame(8);
        let mut p = Packet::from_bytes(&frame).unwrap();
        p.parse().unwrap();
        p.insert_bytes(34, 24).unwrap(); // room for an AH after IPv4
        assert_eq!(p.len(), frame.len() + 24);
        assert_eq!(&p.data()[..34], &frame[..34]);
        assert_eq!(&p.data()[34..58], &[0u8; 24]);
        assert_eq!(&p.data()[58..], &frame[34..]);
    }

    #[test]
    fn remove_undoes_insert() {
        let frame = tcp_frame(16);
        let mut p = Packet::from_bytes(&frame).unwrap();
        p.insert_bytes(34, 24).unwrap();
        p.remove_bytes(34..58).unwrap();
        assert_eq!(p.data(), &frame[..]);
    }

    #[test]
    fn replace_payload_grows_and_shrinks() {
        let frame = tcp_frame(20);
        let mut p = Packet::from_bytes(&frame).unwrap();
        p.replace_payload(b"tiny").unwrap();
        assert_eq!(p.payload().unwrap(), b"tiny");
        assert_eq!(p.len(), 54 + 4);
        let l = p.parse().unwrap();
        let ip = ipv4::Ipv4View::new(&p.data()[l.l3..]).unwrap();
        assert_eq!(ip.total_len() as usize, 40 + 4);
        assert!(ip.verify_checksum());
        let big = vec![7u8; 300];
        p.replace_payload(&big).unwrap();
        assert_eq!(p.payload().unwrap(), &big[..]);
        p.finalize_checksums().unwrap();
        assert!(tcp::verify_checksum(
            &p.data()[p.parsed().unwrap().l4..],
            p.sip().unwrap(),
            p.dip().unwrap()
        ));
        // Headers untouched throughout.
        assert_eq!(p.dport().unwrap(), 80);
    }

    #[test]
    fn insert_beyond_capacity_fails() {
        let mut p = Packet::from_bytes(&tcp_frame(1400)).unwrap();
        // Exhaust the headroom first, then overflow the tail.
        assert!(p.insert_bytes(0, HEADROOM).is_ok());
        assert!(p.insert_bytes(0, 600).is_err());
    }

    #[test]
    fn oversize_frame_rejected() {
        assert!(Packet::from_bytes(&vec![0u8; CAPACITY]).is_err());
    }

    #[test]
    fn non_ipv4_rejected() {
        let mut frame = tcp_frame(0);
        frame[12] = 0x08;
        frame[13] = 0x06; // ARP
        let mut p = Packet::from_bytes(&frame).unwrap();
        assert!(p.parse().is_err());
    }

    #[test]
    fn nil_flag() {
        let mut p = Packet::new();
        assert!(!p.is_nil());
        p.set_nil(true);
        assert!(p.is_nil());
    }

    #[test]
    fn five_tuple_extraction() {
        let p = Packet::from_bytes(&tcp_frame(0)).unwrap();
        let (s, d, sp, dp, proto) = p.five_tuple().unwrap();
        assert_eq!(s, Ipv4Addr::new(10, 0, 0, 1));
        assert_eq!(d, Ipv4Addr::new(10, 0, 0, 2));
        assert_eq!((sp, dp, proto), (1234, 80, ipv4::PROTO_TCP));
    }
}
