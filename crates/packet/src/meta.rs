//! NFP per-packet metadata, paper Figure 5.
//!
//! The classifier attaches a 64-bit metadata word to every packet copy:
//!
//! ```text
//! | MID (20 bits) | PID (40 bits) | version (4 bits) |
//! ```
//!
//! * **MID** identifies the service graph the packet follows ("twenty bits
//!   of MID could express 1M service graphs").
//! * **PID** identifies the packet within its flow so the merger can collect
//!   all copies of the same packet.
//! * **version** distinguishes copies of one packet (`v1` is the original).
//!
//! Besides the wire word, [`Metadata`] carries two host-side sidecars:
//!
//! * **epoch** — the id of the [`Program`](../../nfp_orchestrator) snapshot
//!   whose tables classified the packet. During a live reconfiguration two
//!   program epochs coexist, and every stage resolves its table lookups
//!   against the epoch stamped here, so a packet is classified, forwarded
//!   and merged under exactly one program version.
//! * **traced** — set by the classifier on every Nth admitted packet when
//!   trace sampling is enabled; stages append a timeline hop for packets
//!   (and their copies and nils, which inherit the flag) carrying it.
//! * **flow** — the admission-time [`FlowKey`] of the packet, stamped by
//!   the classifier alongside the epoch. Stateful NFs key their per-flow
//!   tables off this sidecar (never by re-parsing headers), so a NAT
//!   rewriting the source tuple upstream cannot shift a downstream NF's
//!   state onto the wrong shard.
//! * **ingress_ns** — the capture/arrival timestamp stamped by the packet
//!   I/O backend that produced the frame (pcap record time), in
//!   nanoseconds; 0 means "not stamped" (synthetic
//!   traffic). The classifier preserves it through admission and feeds
//!   inter-arrival gaps into the telemetry `ingress` histogram.
//!
//! No sidecar crosses the wire — the paper's 64-bit word stays exactly
//! as Figure 5 specifies — so [`Metadata::to_raw`]/[`Metadata::from_raw`]
//! cover only the packed word and a round trip resets epoch to 0, traced
//! to false and flow to `None`.

use crate::flow::FlowKey;

/// Number of bits in the match ID.
const MID_BITS: u32 = 20;
/// Number of bits in the packet ID.
const PID_BITS: u32 = 40;
/// Number of bits in the copy version.
pub const VERSION_BITS: u32 = 4;

/// Maximum representable match ID (1M-1 service graphs).
pub const MID_MAX: u32 = (1 << MID_BITS) - 1;
/// Maximum representable packet ID.
pub const PID_MAX: u64 = (1 << PID_BITS) - 1;
/// Maximum representable version.
pub const VERSION_MAX: u8 = (1 << VERSION_BITS) - 1;

/// The packed 64-bit NFP metadata word plus the host-side epoch, trace
/// and flow sidecars.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Metadata {
    word: u64,
    epoch: u64,
    traced: bool,
    flow: Option<FlowKey>,
    ingress_ns: u64,
}

impl Metadata {
    /// Pack a metadata word (epoch 0). Values are masked to their field
    /// widths in release builds and asserted in debug builds.
    #[inline]
    pub fn new(mid: u32, pid: u64, version: u8) -> Self {
        debug_assert!(mid <= MID_MAX, "MID overflows 20 bits");
        debug_assert!(pid <= PID_MAX, "PID overflows 40 bits");
        debug_assert!(version <= VERSION_MAX, "version overflows 4 bits");
        let mid = u64::from(mid & MID_MAX);
        let pid = pid & PID_MAX;
        let version = u64::from(version & VERSION_MAX);
        Self {
            word: (mid << (PID_BITS + VERSION_BITS)) | (pid << VERSION_BITS) | version,
            epoch: 0,
            traced: false,
            flow: None,
            ingress_ns: 0,
        }
    }

    /// The match ID: which service graph this packet follows.
    #[inline]
    pub fn mid(self) -> u32 {
        ((self.word >> (PID_BITS + VERSION_BITS)) & u64::from(MID_MAX)) as u32
    }

    /// The packet ID: immutable per-packet identity used by the merger and
    /// by the merger agent's load-balancing hash.
    #[inline]
    pub fn pid(self) -> u64 {
        (self.word >> VERSION_BITS) & PID_MAX
    }

    /// The copy version (v1 = original).
    #[inline]
    pub fn version(self) -> u8 {
        (self.word & u64::from(VERSION_MAX)) as u8
    }

    /// The program epoch whose tables classified this packet (host-side
    /// sidecar; 0 until the classifier stamps it).
    #[inline]
    pub fn epoch(self) -> u64 {
        self.epoch
    }

    /// Same metadata tagged with the given program epoch — used by the
    /// classifier when admitting a packet under the current program
    /// snapshot.
    #[inline]
    pub fn with_epoch(self, epoch: u64) -> Self {
        Self { epoch, ..self }
    }

    /// Whether this packet was selected for path tracing by the classifier
    /// (host-side sidecar; copies and nils inherit it with the rest of the
    /// metadata, so a sampled packet's whole fan-out is traced).
    #[inline]
    pub fn traced(self) -> bool {
        self.traced
    }

    /// Same metadata with the trace-sampling flag set to `traced` — used
    /// by the classifier on every Nth admission.
    #[inline]
    pub fn with_traced(self, traced: bool) -> Self {
        Self { traced, ..self }
    }

    /// The admission-time flow key (host-side sidecar; `None` until the
    /// classifier stamps it, and always `None` for frames without a
    /// parseable 5-tuple).
    #[inline]
    pub fn flow(self) -> Option<FlowKey> {
        self.flow
    }

    /// Same metadata carrying the admission-time flow key — stamped by
    /// the classifier so downstream stateful NFs key their per-flow
    /// state by the *original* tuple even after header rewrites.
    #[inline]
    pub fn with_flow(self, flow: Option<FlowKey>) -> Self {
        Self { flow, ..self }
    }

    /// The backend arrival timestamp in nanoseconds (host-side sidecar;
    /// 0 until a packet I/O backend stamps it — synthetic traffic never
    /// is).
    #[inline]
    pub fn ingress_ns(self) -> u64 {
        self.ingress_ns
    }

    /// Same metadata carrying the backend arrival timestamp — stamped by
    /// the pcap ingress backend so replayed traces keep their
    /// capture timing through the dataplane.
    #[inline]
    pub fn with_ingress_ns(self, ingress_ns: u64) -> Self {
        Self { ingress_ns, ..self }
    }

    /// Same metadata with a different version — used when the runtime
    /// executes a `copy(v1, v2)` action. The epoch and trace sidecars are
    /// preserved: copies of a packet always belong to the epoch that
    /// admitted the original, and a traced packet's copies stay traced.
    #[inline]
    pub fn with_version(self, version: u8) -> Self {
        Self {
            word: Self::new(self.mid(), self.pid(), version).word,
            ..self
        }
    }

    /// The raw 64-bit representation (what would sit in front of the packet
    /// buffer on the wire between NFP modules). The epoch sidecar is not
    /// part of the wire word.
    #[inline]
    pub fn to_raw(self) -> u64 {
        self.word
    }

    /// Rebuild from the raw representation (epoch resets to 0, traced to
    /// false and flow to `None`: the sidecars are host-side tags, never
    /// serialized).
    #[inline]
    pub fn from_raw(raw: u64) -> Self {
        Self {
            word: raw,
            epoch: 0,
            traced: false,
            flow: None,
            ingress_ns: 0,
        }
    }
}

/// Version tag of the original packet copy.
pub const VERSION_ORIGINAL: u8 = 1;

impl core::fmt::Display for Metadata {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "mid={} pid={} v{}",
            self.mid(),
            self.pid(),
            self.version()
        )?;
        if self.epoch != 0 {
            write!(f, " e{}", self.epoch)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_unpack_extremes() {
        for (mid, pid, ver) in [
            (0u32, 0u64, 0u8),
            (MID_MAX, PID_MAX, VERSION_MAX),
            (1, 1, 1),
            (0xabcde, 0x12_3456_789a, 0x9),
        ] {
            let m = Metadata::new(mid, pid, ver);
            assert_eq!(m.mid(), mid);
            assert_eq!(m.pid(), pid);
            assert_eq!(m.version(), ver);
            assert_eq!(Metadata::from_raw(m.to_raw()), m);
        }
    }

    #[test]
    fn with_version_preserves_identity() {
        let m = Metadata::new(77, 123_456_789, VERSION_ORIGINAL);
        let v2 = m.with_version(2);
        assert_eq!(v2.mid(), 77);
        assert_eq!(v2.pid(), 123_456_789);
        assert_eq!(v2.version(), 2);
    }

    #[test]
    fn fields_do_not_bleed() {
        // A PID of all ones must not disturb MID or version.
        let m = Metadata::new(0, PID_MAX, 0);
        assert_eq!(m.mid(), 0);
        assert_eq!(m.version(), 0);
        let m = Metadata::new(MID_MAX, 0, 0);
        assert_eq!(m.pid(), 0);
        assert_eq!(m.version(), 0);
    }

    #[test]
    fn epoch_rides_along_and_survives_reversioning() {
        let m = Metadata::new(3, 9, VERSION_ORIGINAL).with_epoch(5);
        assert_eq!(m.epoch(), 5);
        // Copies inherit the admitting epoch.
        let copy = m.with_version(2);
        assert_eq!(copy.epoch(), 5);
        assert_eq!(copy.version(), 2);
        // The wire word is epoch-free: a raw round trip resets it.
        assert_eq!(Metadata::from_raw(m.to_raw()).epoch(), 0);
        assert_eq!(m.to_raw(), Metadata::new(3, 9, VERSION_ORIGINAL).to_raw());
    }

    #[test]
    fn traced_rides_along_and_survives_reversioning() {
        let m = Metadata::new(4, 11, VERSION_ORIGINAL)
            .with_epoch(3)
            .with_traced(true);
        assert!(m.traced());
        // Copies keep both sidecars.
        let copy = m.with_version(2);
        assert!(copy.traced());
        assert_eq!(copy.epoch(), 3);
        // The wire word is sidecar-free.
        assert!(!Metadata::from_raw(m.to_raw()).traced());
        assert_eq!(m.to_raw(), Metadata::new(4, 11, VERSION_ORIGINAL).to_raw());
        // The flag can be cleared without touching identity.
        let off = m.with_traced(false);
        assert!(!off.traced());
        assert_eq!(off.pid(), 11);
    }

    #[test]
    fn flow_rides_along_and_survives_reversioning() {
        use crate::flow::FlowKey;
        use crate::ipv4::Ipv4Addr;
        let k = FlowKey::new(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            1234,
            80,
            6,
        );
        let m = Metadata::new(5, 17, VERSION_ORIGINAL)
            .with_epoch(2)
            .with_flow(Some(k));
        assert_eq!(m.flow(), Some(k));
        // Copies inherit the admission key with the rest of the sidecars.
        let copy = m.with_version(2);
        assert_eq!(copy.flow(), Some(k));
        assert_eq!(copy.epoch(), 2);
        // The wire word is sidecar-free.
        assert_eq!(Metadata::from_raw(m.to_raw()).flow(), None);
        assert_eq!(m.to_raw(), Metadata::new(5, 17, VERSION_ORIGINAL).to_raw());
    }

    #[test]
    fn ingress_ns_rides_along_and_survives_reversioning() {
        let m = Metadata::new(6, 23, VERSION_ORIGINAL)
            .with_epoch(4)
            .with_ingress_ns(1_234_567_890);
        assert_eq!(m.ingress_ns(), 1_234_567_890);
        // Copies inherit the arrival stamp with the other sidecars.
        let copy = m.with_version(2);
        assert_eq!(copy.ingress_ns(), 1_234_567_890);
        assert_eq!(copy.epoch(), 4);
        // The wire word stays sidecar-free: a raw round trip resets it.
        assert_eq!(Metadata::from_raw(m.to_raw()).ingress_ns(), 0);
        assert_eq!(m.to_raw(), Metadata::new(6, 23, VERSION_ORIGINAL).to_raw());
        // Unstamped metadata reads as 0 ("no backend timestamp").
        assert_eq!(Metadata::new(1, 2, 1).ingress_ns(), 0);
    }

    #[test]
    fn display_is_informative() {
        let m = Metadata::new(3, 42, 1);
        assert_eq!(m.to_string(), "mid=3 pid=42 v1");
        assert_eq!(m.with_epoch(2).to_string(), "mid=3 pid=42 v1 e2");
    }
}
