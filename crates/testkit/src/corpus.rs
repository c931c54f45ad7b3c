//! Every input a differential suite feeds, each defined once: the
//! committed golden captures, the hostile set, seeded synthetic traffic
//! and arbitrary packets for property tests.

use nfp_io::backends::packet_from_record;
use nfp_io::pcap::read_pcap_bytes;
use nfp_packet::ipv4::Ipv4Addr;
use nfp_packet::Packet;
use nfp_traffic::gen::build_tcp_frame;
use nfp_traffic::hostile::{HostileGenerator, HostileSpec};
use nfp_traffic::{SizeDistribution, TrafficGenerator, TrafficSpec};
use proptest::prelude::*;

/// `tests/data/golden_mixed.pcap`: 256 records of clean flows, policy
/// drops and admission rejects (malformed and snaplen-cut records), built
/// by `nfp_io::trace::build_golden_pcap(&GoldenTraceSpec::mixed(42))`.
pub const GOLDEN_MIXED: &[u8] = include_bytes!("../../../tests/data/golden_mixed.pcap");

/// `tests/data/golden_clean.pcap`: 128 well-formed records, built by
/// `nfp_io::trace::build_golden_pcap(&GoldenTraceSpec::clean(7))`.
pub const GOLDEN_CLEAN: &[u8] = include_bytes!("../../../tests/data/golden_clean.pcap");

/// Every record of a capture that decodes into a packet, in capture order.
pub fn golden(capture: &[u8]) -> Vec<Packet> {
    read_pcap_bytes(capture)
        .expect("committed corpus parses")
        .iter()
        .filter_map(|rec| packet_from_record(rec).ok())
        .collect()
}

/// `n` packets of a SYN flood seeded `syn`, then `n` of an elephant/mice
/// mix seeded `mice`, each with a tenth of its frames corrupted.
pub fn hostile(syn: u64, mice: u64, n: usize) -> Vec<Packet> {
    [
        HostileSpec::syn_flood(syn),
        HostileSpec::elephant_mice(mice),
    ]
    .into_iter()
    .flat_map(|spec| {
        HostileGenerator::new(HostileSpec {
            malformed_rate: 0.1,
            ..spec
        })
        .batch(n)
    })
    .collect()
}

/// Seeded synthetic traffic: the generator's flows and sizes, a share of
/// IDS-signature payloads, a stride of frames readdressed into the
/// synthetic firewall ACL's deny space, and a cadence of unparseable
/// frames. The same parameters always build the same packets.
#[derive(Debug, Clone)]
pub struct Traffic {
    /// Distinct flows the generator cycles through.
    pub flows: usize,
    /// Frame sizes.
    pub sizes: SizeDistribution,
    /// Share of payloads carrying the IDS signature.
    pub malicious: f64,
    /// Every `deny_every`-th packet, from the first (0: none), goes to
    /// `172.16.x.deny_host`, port `7000 + x` with `x = i % 100`: the
    /// synthetic ACL's deny rule `x`.
    pub deny_every: usize,
    /// Host octet of the denied destination.
    pub deny_host: u8,
    /// A 60-byte all-zero frame follows every `malformed_every`-th packet
    /// (0: none); the classifier rejects it as unparseable.
    pub malformed_every: usize,
}

impl Traffic {
    /// Clean traffic over `flows` flows of `size`-byte frames.
    pub fn clean(flows: usize, size: usize) -> Self {
        Traffic {
            flows,
            sizes: SizeDistribution::Fixed(size),
            malicious: 0.0,
            deny_every: 0,
            deny_host: 1,
            malformed_every: 0,
        }
    }

    /// Deny-heavy: every `every`-th packet addressed to a deny rule.
    pub fn deny(self, every: usize, host: u8) -> Self {
        Traffic {
            deny_every: every,
            deny_host: host,
            ..self
        }
    }

    /// A `share` of IDS-signature payloads.
    pub fn malicious(self, share: f64) -> Self {
        Traffic {
            malicious: share,
            ..self
        }
    }

    /// An unparseable frame after every `every`-th packet.
    pub fn malformed(self, every: usize) -> Self {
        Traffic {
            malformed_every: every,
            ..self
        }
    }

    /// Frame sizes drawn from `sizes`.
    pub fn sizes(self, sizes: SizeDistribution) -> Self {
        Traffic { sizes, ..self }
    }

    /// The adversarial mix of the §6.4 replay: 24 flows on the data-centre
    /// size mix, 15% IDS signatures, every seventh packet denied.
    pub fn adversarial() -> Self {
        Traffic::clean(24, 0)
            .sizes(SizeDistribution::datacenter())
            .malicious(0.15)
            .deny(7, 9)
    }

    /// The merge-order regression mix: 24 flows of 200 B, 30% IDS
    /// signatures, every fifth packet denied.
    pub fn mixed() -> Self {
        Traffic::clean(24, 200).malicious(0.3).deny(5, 1)
    }

    /// `n` generated packets (plus the malformed frames between them).
    pub fn build(&self, n: usize) -> Vec<Packet> {
        let mut gen = TrafficGenerator::new(TrafficSpec {
            flows: self.flows,
            sizes: self.sizes.clone(),
            malicious_fraction: self.malicious,
            ..TrafficSpec::default()
        });
        let mut pkts = Vec::with_capacity(n);
        for (i, mut p) in gen.batch(n).into_iter().enumerate() {
            if self.deny_every > 0 && i % self.deny_every == 0 {
                let x = (i % 100) as u16;
                p.set_dip(Ipv4Addr::new(172, 16, x as u8, self.deny_host))
                    .unwrap();
                p.set_dport(7000 + x).unwrap();
                p.finalize_checksums().unwrap();
            }
            pkts.push(p);
            if self.malformed_every > 0 && i % self.malformed_every == self.malformed_every - 1 {
                pkts.push(Packet::from_bytes(&[0u8; 60]).unwrap());
            }
        }
        pkts
    }
}

/// An arbitrary TCP frame: any addresses and ports, a payload of fewer
/// than `max_payload` bytes.
pub fn arbitrary_packet(max_payload: usize) -> impl Strategy<Value = Packet> {
    (
        any::<u32>(),
        any::<u32>(),
        any::<u16>(),
        any::<u16>(),
        proptest::collection::vec(any::<u8>(), 0..max_payload),
    )
        .prop_map(|(sip, dip, sport, dport, payload)| {
            build_tcp_frame(
                Ipv4Addr::from_u32(sip),
                Ipv4Addr::from_u32(dip),
                sport,
                dport,
                &payload,
            )
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// FNV-1a over every frame, each prefixed with its length.
    fn digest(pkts: &[Packet]) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for p in pkts {
            for b in (p.len() as u32).to_le_bytes().iter().chain(p.data()) {
                h ^= u64::from(*b);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        }
        h
    }

    /// The builders reproduce, byte for byte, the generators the suites
    /// carried before they shared this corpus (digests taken from those
    /// generators), so every seeded suite still feeds the inputs its
    /// history was recorded on.
    #[test]
    fn builders_reproduce_the_suites_former_generators() {
        let deny = Traffic::clean(16, 200).deny(5, 1);
        let cases = [
            (
                "threaded_engine traffic",
                deny.build(400),
                0x750a_1eba_d146_1ef1,
            ),
            (
                "threaded_engine hostile",
                deny.clone().malicious(0.3).malformed(7).build(300),
                0x9b1f_6794_81de_f723,
            ),
            (
                "interleaved rejects",
                deny.malformed(3).build(3000),
                0x8622_e8e9_e431_edd1,
            ),
            (
                "adversarial",
                Traffic::adversarial().build(1000),
                0x4908_b09c_92f8_1adc,
            ),
            ("mixed", Traffic::mixed().build(160), 0xc17a_17a4_9e2f_facd),
            (
                "shard_equivalence",
                Traffic::clean(5, 160).malicious(0.25).deny(4, 1).build(40),
                0x1187_1989_82d7_c56d,
            ),
            (
                "stress",
                Traffic::clean(64, 128).deny(4, 1).build(500),
                0xac92_3a4e_5d99_61e6,
            ),
            ("hostile", hostile(3, 5, 200), 0xc4e4_bac2_98cf_8b14),
        ];
        for (what, pkts, want) in cases {
            assert_eq!(digest(&pkts), want, "{what}");
        }
    }
}
