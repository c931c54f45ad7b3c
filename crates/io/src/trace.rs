//! The seeded golden-trace builder behind the committed `tests/data/`
//! corpus.
//!
//! A golden trace is a classic-pcap byte stream rebuilt bit-for-bit from
//! `(spec, seed)`: the differential suite first proves the committed
//! file equals the builder's output, then replays it through every
//! engine. Determinism comes from a self-contained SplitMix64 stream —
//! deliberately not the `rand` shim, so corpus bytes cannot drift if the
//! shim's algorithm ever changes.
//!
//! The mix is adversarial on purpose: normal flow traffic (the shared
//! [`nfp_packet::testutil::indexed_payload`] pattern), firewall-deny
//! tuples (172.16.x.0/24 : 7000+x, the synthetic-ACL deny space),
//! IDS-marker payloads, corrupted frames (foreign ethertype, foreign L4
//! protocol, sub-header truncation) and snaplen-cut records whose
//! `incl_len < orig_len` — the capture-level truncation the classifier
//! must reject as `AdmitError::Truncated`, never panic on.

use crate::pcap::{write_pcap_bytes, PcapFormat, PcapRecord};
use nfp_packet::ipv4::Ipv4Addr;
use nfp_packet::testutil::{indexed_payload, tcp_frame_bytes};

/// What a [`build_golden_records`] trace contains. Every knob is an
/// every-Nth stride (0 disables) so the mix is inspectable by eye.
#[derive(Debug, Clone)]
pub struct GoldenTraceSpec {
    /// Seed for the builder's SplitMix64 stream.
    pub seed: u64,
    /// Total records.
    pub packets: usize,
    /// Distinct well-formed flows to cycle through.
    pub flows: usize,
    /// Every Nth packet aims at the synthetic-ACL deny space.
    pub deny_every: usize,
    /// Every Nth packet embeds the IDS marker in its payload.
    pub malicious_every: usize,
    /// Every Nth frame is corrupted (ethertype/protocol damage or a cut
    /// below header size) before capture.
    pub malformed_every: usize,
    /// Every Nth record is snaplen-cut: captured bytes < wire length.
    pub truncated_every: usize,
    /// First record timestamp (ns); gaps are seeded 1–8 µs.
    pub base_ts_ns: u64,
}

impl GoldenTraceSpec {
    /// The committed `tests/data/golden_mixed.pcap` corpus: every
    /// adversarial ingredient at once.
    pub fn mixed(seed: u64) -> Self {
        Self {
            seed,
            packets: 256,
            flows: 24,
            deny_every: 7,
            malicious_every: 11,
            malformed_every: 13,
            truncated_every: 17,
            base_ts_ns: 1_000_000_000,
        }
    }

    /// The committed `tests/data/golden_clean.pcap` corpus: well-formed
    /// flow traffic only (byte-identity baseline).
    pub fn clean(seed: u64) -> Self {
        Self {
            seed,
            packets: 128,
            flows: 16,
            deny_every: 0,
            malicious_every: 0,
            malformed_every: 0,
            truncated_every: 0,
            base_ts_ns: 500_000_000,
        }
    }
}

/// The IDS marker the synthetic signature set alerts on (mirrors
/// `TrafficSpec::malicious_marker`).
const IDS_MARKER: &[u8] = b"EVIL0001SIG";

/// SplitMix64: tiny, stable, and independent of the `rand` shim.
#[derive(Debug, Clone)]
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

fn stride_hits(i: usize, every: usize) -> bool {
    every != 0 && (i + 1).is_multiple_of(every)
}

/// Build the deterministic record sequence for `spec`.
pub fn build_golden_records(spec: &GoldenTraceSpec) -> Vec<PcapRecord> {
    let mut rng = SplitMix64(spec.seed);
    let mut ts = spec.base_ts_ns;
    let mut out = Vec::with_capacity(spec.packets);
    for i in 0..spec.packets {
        ts += 1_000 + rng.below(7) * 1_000; // 1–8 µs inter-arrival gaps
        let flow = (i % spec.flows.max(1)) as u32;
        let (sip, dip, sport, dport) = if stride_hits(i, spec.deny_every) {
            // The synthetic-ACL deny space: 172.16.x.0/24 : 7000+x.
            let x = (rng.below(100)) as u16;
            (
                Ipv4Addr::new(10, 3, 0, (flow % 256) as u8),
                Ipv4Addr::new(172, 16, (x % 256) as u8, 1),
                20_000 + flow as u16,
                7_000 + x,
            )
        } else {
            (
                Ipv4Addr::from_u32((10 << 24) | (1 << 16) | flow),
                Ipv4Addr::from_u32((10 << 24) | (2 << 16) | ((flow * 7) % 65_536)),
                20_000 + (flow % 20_000) as u16,
                80 + (flow % 8) as u16 * 1000,
            )
        };
        let payload_len = 10 + rng.below(120) as usize;
        let mut payload = indexed_payload(payload_len, i as u64);
        if stride_hits(i, spec.malicious_every) && payload_len >= 8 + IDS_MARKER.len() {
            payload[8..8 + IDS_MARKER.len()].copy_from_slice(IDS_MARKER);
        }
        let mut frame = tcp_frame_bytes(sip, dip, sport, dport, &payload);
        if stride_hits(i, spec.malformed_every) {
            match rng.below(3) {
                // Sub-header cut: the frame itself (not just the
                // capture) ends before Ethernet+IPv4 do.
                0 => frame.truncate(rng.below(34) as usize),
                // Foreign ethertype (IPv6).
                1 => {
                    frame[12] = 0x86;
                    frame[13] = 0xDD;
                }
                // Foreign L4 protocol.
                _ => frame[23] = 0xFD,
            }
        }
        let orig_len = frame.len() as u32;
        if stride_hits(i, spec.truncated_every) && frame.len() > 20 {
            // Snaplen cut: captured bytes end before the wire frame did.
            let keep = 14 + rng.below((frame.len() - 14) as u64 - 6) as usize;
            frame.truncate(keep);
        }
        out.push(PcapRecord {
            ts_ns: ts,
            orig_len,
            data: frame,
        });
    }
    out
}

/// Build the full pcap byte stream for `spec` (nanosecond, host-endian
/// — the committed corpus format).
pub fn build_golden_pcap(spec: &GoldenTraceSpec) -> Vec<u8> {
    write_pcap_bytes(&build_golden_records(spec), PcapFormat::default())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_is_deterministic_and_seed_sensitive() {
        let a = build_golden_pcap(&GoldenTraceSpec::mixed(42));
        let b = build_golden_pcap(&GoldenTraceSpec::mixed(42));
        assert_eq!(a, b);
        let c = build_golden_pcap(&GoldenTraceSpec::mixed(43));
        assert_ne!(a, c);
    }

    #[test]
    fn mixed_trace_contains_every_ingredient() {
        let recs = build_golden_records(&GoldenTraceSpec::mixed(42));
        assert_eq!(recs.len(), 256);
        let truncated = recs.iter().filter(|r| r.truncated()).count();
        assert!(truncated > 0, "no snaplen-cut records");
        let marked = recs
            .iter()
            .filter(|r| r.data.windows(IDS_MARKER.len()).any(|w| w == IDS_MARKER))
            .count();
        assert!(marked > 0, "no IDS markers");
        let unparseable = recs
            .iter()
            .filter(|r| {
                nfp_packet::Packet::from_bytes(&r.data)
                    .map(|mut p| p.parse().is_err())
                    .unwrap_or(true)
            })
            .count();
        assert!(unparseable > 0, "no malformed frames");
        let parseable = recs.len() - unparseable;
        assert!(
            parseable > recs.len() / 2,
            "most of the trace should still be admissible ({parseable}/{})",
            recs.len()
        );
        // Timestamps strictly increase — inter-arrival gaps are real.
        assert!(recs.windows(2).all(|w| w[0].ts_ns < w[1].ts_ns));
    }

    #[test]
    fn clean_trace_is_fully_parseable_and_untruncated() {
        let recs = build_golden_records(&GoldenTraceSpec::clean(7));
        assert_eq!(recs.len(), 128);
        for r in &recs {
            assert!(!r.truncated());
            let mut p = nfp_packet::Packet::from_bytes(&r.data).unwrap();
            p.parse().unwrap();
        }
    }
}
