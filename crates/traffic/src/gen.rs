//! Flow-structured packet synthesis.

use crate::sizes::SizeDistribution;
use nfp_packet::ipv4::Ipv4Addr;
use nfp_packet::Packet;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Why a [`TrafficSpec`] was rejected at construction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum SpecError {
    /// A per-packet rate knob was outside `[0, 1]` (or NaN).
    RateOutOfRange {
        /// Which knob.
        field: &'static str,
        /// The offending value.
        value: f64,
    },
}

impl core::fmt::Display for SpecError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SpecError::RateOutOfRange { field, value } => {
                write!(f, "TrafficSpec.{field} = {value} is not a rate in [0, 1]")
            }
        }
    }
}

impl std::error::Error for SpecError {}

/// Check that `value` is a valid per-packet rate.
pub(crate) fn validate_rate(field: &'static str, value: f64) -> Result<(), SpecError> {
    if value.is_nan() || !(0.0..=1.0).contains(&value) {
        return Err(SpecError::RateOutOfRange { field, value });
    }
    Ok(())
}

/// Traffic generator configuration.
#[derive(Debug, Clone)]
pub struct TrafficSpec {
    /// Number of distinct flows (5-tuples) to cycle through.
    pub flows: usize,
    /// Frame size distribution.
    pub sizes: SizeDistribution,
    /// Fraction of packets whose payload embeds an IDS-triggering marker
    /// (used by drop-path tests; 0.0 disables).
    pub malicious_fraction: f64,
    /// Marker embedded in malicious payloads.
    pub malicious_marker: Vec<u8>,
    /// Fraction of emitted frames corrupted after construction —
    /// truncated below header size or damaged so they no longer parse
    /// (see `crate::hostile::corrupt_frame`). Lets any existing bench
    /// opt into hostile framing without a separate generator; 0.0
    /// disables and leaves the RNG stream of older seeds untouched.
    pub malformed_fraction: f64,
    /// RNG seed — generation is fully deterministic per seed.
    pub seed: u64,
}

impl Default for TrafficSpec {
    fn default() -> Self {
        Self {
            flows: 64,
            sizes: SizeDistribution::Fixed(64),
            malicious_fraction: 0.0,
            malicious_marker: b"EVIL0001SIG".to_vec(),
            malformed_fraction: 0.0,
            seed: 0x0F05_EED1,
        }
    }
}

impl TrafficSpec {
    /// Validate the spec's rate knobs ([`TrafficGenerator::new`] calls
    /// this and panics with the error; call it directly to handle the
    /// rejection).
    fn validate(&self) -> Result<(), SpecError> {
        validate_rate("malicious_fraction", self.malicious_fraction)?;
        validate_rate("malformed_fraction", self.malformed_fraction)
    }
}

/// Deterministic packet generator.
#[derive(Debug)]
pub struct TrafficGenerator {
    spec: TrafficSpec,
    rng: StdRng,
    next_flow: usize,
    emitted: u64,
}

impl TrafficGenerator {
    /// Create a generator.
    ///
    /// # Panics
    /// If `TrafficSpec::validate` rejects the spec (a rate knob
    /// outside `[0, 1]`).
    pub fn new(spec: TrafficSpec) -> Self {
        if let Err(e) = spec.validate() {
            panic!("invalid TrafficSpec: {e}");
        }
        let rng = StdRng::seed_from_u64(spec.seed);
        Self {
            spec,
            rng,
            next_flow: 0,
            emitted: 0,
        }
    }

    /// Total packets emitted so far.
    #[cfg(test)]
    fn emitted(&self) -> u64 {
        self.emitted
    }

    /// The 5-tuple of flow `i` (stable mapping, round-robin source ports).
    fn flow_tuple(&self, i: usize) -> (Ipv4Addr, Ipv4Addr, u16, u16) {
        let i = i as u32;
        let sip = Ipv4Addr::from_u32((10 << 24) | (1 << 16) | (i % 65_536));
        let dip = Ipv4Addr::from_u32((10 << 24) | (2 << 16) | ((i * 7) % 65_536));
        let sport = 20_000 + (i % 20_000) as u16;
        let dport = 80 + (i % 8) as u16 * 1000;
        (sip, dip, sport, dport)
    }

    /// Generate the next packet (TCP, valid checksums, payload filled with
    /// a deterministic pattern and tagged with the packet index in its
    /// first 8 bytes when it fits — the §6.4 "unique packet ID in the
    /// payload" correctness device).
    pub fn next_packet(&mut self) -> Packet {
        let flow = self.next_flow;
        self.next_flow = (self.next_flow + 1) % self.spec.flows.max(1);
        let (sip, dip, sport, dport) = self.flow_tuple(flow);
        let frame_len = self.spec.sizes.sample(&mut self.rng).max(54);
        let payload_len = frame_len - 54; // eth 14 + ip 20 + tcp 20
        let mut payload = nfp_packet::testutil::indexed_payload(payload_len, self.emitted);
        let malicious = self.spec.malicious_fraction > 0.0
            && self.rng.gen::<f64>() < self.spec.malicious_fraction;
        if malicious && payload_len >= 8 + self.spec.malicious_marker.len() {
            let m = self.spec.malicious_marker.clone();
            payload[8..8 + m.len()].copy_from_slice(&m);
        }
        self.emitted += 1;
        let mut pkt = build_tcp_frame(sip, dip, sport, dport, &payload);
        if self.spec.malformed_fraction > 0.0
            && self.rng.gen::<f64>() < self.spec.malformed_fraction
        {
            crate::hostile::corrupt_frame(&mut pkt, &mut self.rng);
        }
        pkt
    }

    /// Generate `n` packets.
    pub fn batch(&mut self, n: usize) -> Vec<Packet> {
        (0..n).map(|_| self.next_packet()).collect()
    }
}

/// Build a complete, checksum-valid Ethernet/IPv4/TCP frame (delegates to
/// the workspace-shared [`nfp_packet::testutil`] emitter).
pub fn build_tcp_frame(
    sip: Ipv4Addr,
    dip: Ipv4Addr,
    sport: u16,
    dport: u16,
    payload: &[u8],
) -> Packet {
    nfp_packet::testutil::tcp_packet(sip, dip, sport, dport, payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> TrafficSpec {
        TrafficSpec {
            flows: 8,
            sizes: SizeDistribution::Fixed(200),
            seed: 42,
            ..TrafficSpec::default()
        }
    }

    #[test]
    fn packets_are_valid_and_sized() {
        let mut g = TrafficGenerator::new(spec());
        for _ in 0..50 {
            let mut p = g.next_packet();
            let l = p.parse().unwrap();
            assert_eq!(p.len(), 200);
            assert_eq!(l.payload, 54);
        }
        assert_eq!(g.emitted(), 50);
    }

    #[test]
    fn deterministic_per_seed() {
        let a: Vec<Vec<u8>> = TrafficGenerator::new(spec())
            .batch(20)
            .iter()
            .map(|p| p.data().to_vec())
            .collect();
        let b: Vec<Vec<u8>> = TrafficGenerator::new(spec())
            .batch(20)
            .iter()
            .map(|p| p.data().to_vec())
            .collect();
        assert_eq!(a, b);
        // With a randomized size distribution, different seeds diverge.
        let randomized = |seed| TrafficSpec {
            sizes: SizeDistribution::datacenter(),
            seed,
            ..spec()
        };
        let sizes = |s: TrafficSpec| -> Vec<usize> {
            TrafficGenerator::new(s)
                .batch(50)
                .iter()
                .map(|p| p.len())
                .collect()
        };
        assert_eq!(sizes(randomized(7)), sizes(randomized(7)));
        assert_ne!(sizes(randomized(7)), sizes(randomized(8)));
    }

    #[test]
    fn flows_cycle_round_robin() {
        let mut g = TrafficGenerator::new(spec());
        let first: Vec<_> = (0..8)
            .map(|_| g.next_packet().five_tuple().unwrap())
            .collect();
        let second: Vec<_> = (0..8)
            .map(|_| g.next_packet().five_tuple().unwrap())
            .collect();
        assert_eq!(first, second);
        let distinct: std::collections::HashSet<_> = first.iter().collect();
        assert_eq!(distinct.len(), 8);
    }

    #[test]
    fn payload_carries_packet_index() {
        let mut g = TrafficGenerator::new(spec());
        for i in 0..10u64 {
            let p = g.next_packet();
            let payload = p.payload().unwrap();
            assert_eq!(u64::from_be_bytes(payload[..8].try_into().unwrap()), i);
        }
    }

    #[test]
    fn malicious_fraction_injects_markers() {
        let mut s = spec();
        s.malicious_fraction = 0.5;
        s.sizes = SizeDistribution::Fixed(200);
        let mut g = TrafficGenerator::new(s);
        let hits = (0..1000)
            .filter(|_| {
                let p = g.next_packet();
                let payload = p.payload().unwrap();
                payload
                    .windows(b"EVIL0001SIG".len())
                    .any(|w| w == b"EVIL0001SIG")
            })
            .count();
        assert!(hits > 400 && hits < 600, "hits = {hits}");
    }

    #[test]
    fn malformed_fraction_corrupts_roughly_that_share() {
        let mut s = spec();
        s.malformed_fraction = 0.3;
        let mut g = TrafficGenerator::new(s);
        let bad = (0..1000)
            .filter(|_| g.next_packet().parse().is_err())
            .count();
        assert!((200..400).contains(&bad), "bad = {bad}");
    }

    #[test]
    fn zero_malformed_fraction_preserves_rng_stream() {
        let mut tainted = spec();
        tainted.malformed_fraction = 0.0;
        let a: Vec<Vec<u8>> = TrafficGenerator::new(spec())
            .batch(20)
            .iter()
            .map(|p| p.data().to_vec())
            .collect();
        let b: Vec<Vec<u8>> = TrafficGenerator::new(tainted)
            .batch(20)
            .iter()
            .map(|p| p.data().to_vec())
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn invalid_rates_are_rejected() {
        let mut s = spec();
        s.malformed_fraction = 1.5;
        assert_eq!(
            s.validate(),
            Err(SpecError::RateOutOfRange {
                field: "malformed_fraction",
                value: 1.5
            })
        );
        s.malformed_fraction = 0.0;
        s.malicious_fraction = -0.1;
        assert!(s.validate().is_err());
        s.malicious_fraction = f64::NAN;
        assert!(s.validate().is_err());
    }

    #[test]
    #[should_panic(expected = "invalid TrafficSpec")]
    fn generator_panics_on_invalid_spec() {
        let mut s = spec();
        s.malformed_fraction = 2.0;
        let _ = TrafficGenerator::new(s);
    }

    #[test]
    fn min_size_packets_have_no_payload_room() {
        let mut s = spec();
        s.sizes = SizeDistribution::Fixed(64);
        let mut g = TrafficGenerator::new(s);
        let p = g.next_packet();
        assert_eq!(p.payload().unwrap().len(), 10); // 64 - 54
    }
}
