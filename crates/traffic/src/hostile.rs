//! Hostile traffic profiles for the adversarial soak harness.
//!
//! Three attack shapes the NFP dataplane must absorb without violating
//! its accounting invariants (ROADMAP item 5):
//!
//! * **SYN flood** — minimum-size frames, a fresh spoofed source tuple
//!   on every packet, so per-flow state (PID assignment, merger hash
//!   spreading, RSS sharding) sees maximal churn.
//! * **Elephant/mice mix** — a handful of near-MTU bulk flows swamped
//!   by a crowd of minimum-size mice, skewing both the size and the
//!   flow-popularity distributions at once.
//! * **Malformed framing** — `corrupt_frame` damages an otherwise
//!   valid frame so the classifier must reject it (truncation below
//!   header size, a non-IPv4 ethertype, or an unsupported L4 protocol).
//!
//! Everything is driven by one seeded [`rand::rngs::StdRng`], so a soak
//! failure replays exactly from its printed seed.

use crate::gen::{build_tcp_frame, validate_rate, SpecError};
use nfp_packet::ipv4::Ipv4Addr;
use nfp_packet::Packet;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How a [`HostileGenerator`] synthesizes packets.
#[derive(Debug, Clone, PartialEq)]
pub enum HostileProfile {
    /// SYN-flood: every frame is minimum-size and carries a spoofed,
    /// never-repeating source tuple aimed at one victim address.
    SynFlood {
        /// Victim destination address.
        victim: Ipv4Addr,
        /// Victim destination port.
        port: u16,
    },
    /// Elephant/mice mix: `elephants` long-lived near-MTU flows plus
    /// `mice` minimum-size flows; each emission is an elephant packet
    /// with probability `elephant_share`.
    ElephantMice {
        /// Number of bulk-transfer flows (near-MTU frames).
        elephants: usize,
        /// Number of short-lived flows (minimum-size frames).
        mice: usize,
        /// Probability an emission comes from an elephant flow.
        elephant_share: f64,
    },
}

/// Hostile generator configuration.
#[derive(Debug, Clone)]
pub struct HostileSpec {
    /// Attack shape.
    pub profile: HostileProfile,
    /// Fraction of emitted frames additionally corrupted with
    /// `corrupt_frame` (0.0 disables).
    pub malformed_rate: f64,
    /// RNG seed — generation is fully deterministic per seed.
    pub seed: u64,
}

impl HostileSpec {
    /// A SYN flood against a fixed victim with no malformed frames.
    pub fn syn_flood(seed: u64) -> Self {
        Self {
            profile: HostileProfile::SynFlood {
                victim: Ipv4Addr::from_u32((10 << 24) | (99 << 16) | (99 << 8) | 99),
                port: 80,
            },
            malformed_rate: 0.0,
            seed,
        }
    }

    /// The canonical elephant/mice skew: 4 elephants carrying 70 % of
    /// packets over 512 mice.
    pub fn elephant_mice(seed: u64) -> Self {
        Self {
            profile: HostileProfile::ElephantMice {
                elephants: 4,
                mice: 512,
                elephant_share: 0.7,
            },
            malformed_rate: 0.0,
            seed,
        }
    }

    /// Validate rate knobs (shares and rates must be in `[0, 1]`).
    fn validate(&self) -> Result<(), SpecError> {
        validate_rate("malformed_rate", self.malformed_rate)?;
        if let HostileProfile::ElephantMice { elephant_share, .. } = self.profile {
            validate_rate("elephant_share", elephant_share)?;
        }
        Ok(())
    }
}

/// Deterministic hostile packet generator.
#[derive(Debug)]
pub struct HostileGenerator {
    spec: HostileSpec,
    rng: StdRng,
    emitted: u64,
}

impl HostileGenerator {
    /// Create a generator.
    ///
    /// # Panics
    /// If `HostileSpec::validate` rejects the spec.
    pub fn new(spec: HostileSpec) -> Self {
        if let Err(e) = spec.validate() {
            panic!("invalid HostileSpec: {e}");
        }
        let rng = StdRng::seed_from_u64(spec.seed);
        Self {
            spec,
            rng,
            emitted: 0,
        }
    }

    /// Generate the next packet.
    fn next_packet(&mut self) -> Packet {
        let mut pkt = match self.spec.profile {
            HostileProfile::SynFlood { victim, port } => {
                // Spoofed source: a fresh tuple every packet, drawn from
                // the full non-reserved space so flow state never reuses.
                let sip = Ipv4Addr::from_u32((self.rng.gen::<u32>() | 0x0100_0000) & 0x7FFF_FFFF);
                let sport = 1024 + (self.rng.gen_range(0..64_000u64) as u16);
                // Minimum-size frame: 54 B of headers + 10 B zero pad.
                build_tcp_frame(sip, victim, sport, port, &[0u8; 10])
            }
            HostileProfile::ElephantMice {
                elephants,
                mice,
                elephant_share,
            } => {
                let is_elephant =
                    elephants > 0 && (mice == 0 || self.rng.gen::<f64>() < elephant_share);
                let (base, count, frame_len) = if is_elephant {
                    (1u32 << 16, elephants.max(1) as u64, 1400usize)
                } else {
                    (2u32 << 16, mice.max(1) as u64, 64usize)
                };
                let idx = self.rng.gen_range(0..count) as u32;
                let sip = Ipv4Addr::from_u32((172 << 24) | base | idx);
                let dip = Ipv4Addr::from_u32((10 << 24) | (2 << 16) | 1);
                let mut payload = vec![0u8; frame_len - 54];
                nfp_packet::testutil::tag_payload_index(&mut payload, self.emitted);
                build_tcp_frame(sip, dip, 30_000 + idx as u16, 443, &payload)
            }
        };
        if self.spec.malformed_rate > 0.0 && self.rng.gen::<f64>() < self.spec.malformed_rate {
            corrupt_frame(&mut pkt, &mut self.rng);
        }
        self.emitted += 1;
        pkt
    }

    /// Generate `n` packets.
    pub fn batch(&mut self, n: usize) -> Vec<Packet> {
        (0..n).map(|_| self.next_packet()).collect()
    }
}

/// Damage a well-formed frame so the classifier must reject it.
///
/// Picks one of three corruptions, uniformly:
/// 1. **Truncation** — the frame is cut to fewer than the 34 bytes an
///    Ethernet + IPv4 header needs, yielding `PacketError::Truncated`.
/// 2. **Foreign ethertype** — the ethertype becomes IPv6 (`0x86DD`),
///    yielding a "not an IPv4 frame" parse failure.
/// 3. **Unsupported L4 protocol** — the IPv4 protocol byte becomes an
///    experimental value (`0xFD`), failing the L4 dispatch.
///
/// The packet's cached parse state is invalidated; callers get a frame
/// that deterministically fails `Packet::parse`.
pub(crate) fn corrupt_frame<R: Rng + ?Sized>(pkt: &mut Packet, rng: &mut R) {
    match rng.gen_range(0..3u64) {
        0 => {
            let keep = rng.gen_range(0..34u64) as usize;
            let prefix = pkt.data()[..keep.min(pkt.len())].to_vec();
            pkt.set_frame(&prefix)
                .expect("shrinking a frame always fits");
        }
        1 => {
            let data = pkt.data_mut();
            if data.len() >= 14 {
                data[12] = 0x86;
                data[13] = 0xDD;
            }
        }
        _ => {
            let data = pkt.data_mut();
            if data.len() >= 24 {
                data[23] = 0xFD;
            }
        }
    }
    pkt.invalidate();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn syn_flood_is_min_size_and_flow_churning() {
        let mut g = HostileGenerator::new(HostileSpec::syn_flood(11));
        let mut tuples = std::collections::HashSet::new();
        for _ in 0..500 {
            let mut p = g.next_packet();
            assert_eq!(p.len(), 64);
            p.parse().unwrap();
            tuples.insert(p.five_tuple().unwrap());
        }
        // Spoofed sources: nearly every packet is a brand-new flow.
        assert!(tuples.len() > 490, "distinct tuples = {}", tuples.len());
    }

    #[test]
    fn elephant_mice_is_bimodal_and_skewed() {
        let mut g = HostileGenerator::new(HostileSpec::elephant_mice(12));
        let mut big = 0usize;
        let mut flows = std::collections::HashSet::new();
        for _ in 0..2000 {
            let mut p = g.next_packet();
            p.parse().unwrap();
            flows.insert(p.five_tuple().unwrap());
            match p.len() {
                1400 => big += 1,
                64 => {}
                other => panic!("unexpected frame size {other}"),
            }
        }
        // ~70 % of packets from just 4 elephant flows.
        assert!((1200..1600).contains(&big), "elephant packets = {big}");
        assert!(
            flows.len() > 100 && flows.len() <= 516,
            "flows = {}",
            flows.len()
        );
    }

    #[test]
    fn malformed_rate_yields_unparseable_frames() {
        let mut spec = HostileSpec::syn_flood(13);
        spec.malformed_rate = 0.5;
        let mut g = HostileGenerator::new(spec);
        let bad = (0..1000)
            .filter(|_| g.next_packet().parse().is_err())
            .count();
        assert!((400..600).contains(&bad), "bad = {bad}");
    }

    #[test]
    fn corrupt_frame_covers_truncation() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut truncated = 0usize;
        for _ in 0..200 {
            let mut g = HostileGenerator::new(HostileSpec::syn_flood(rng.next_u64()));
            let mut p = g.next_packet();
            corrupt_frame(&mut p, &mut rng);
            assert!(p.parse().is_err());
            if p.len() < 34 {
                truncated += 1;
            }
        }
        assert!(truncated > 0, "no truncation variant drawn in 200 tries");
    }

    #[test]
    fn deterministic_per_seed() {
        let frames = |seed: u64| -> Vec<Vec<u8>> {
            let mut spec = HostileSpec::elephant_mice(seed);
            spec.malformed_rate = 0.2;
            HostileGenerator::new(spec)
                .batch(50)
                .iter()
                .map(|p| p.data().to_vec())
                .collect()
        };
        assert_eq!(frames(9), frames(9));
        assert_ne!(frames(9), frames(10));
    }

    #[test]
    #[should_panic(expected = "invalid HostileSpec")]
    fn invalid_rate_panics() {
        let mut spec = HostileSpec::syn_flood(1);
        spec.malformed_rate = -0.5;
        let _ = HostileGenerator::new(spec);
    }
}
