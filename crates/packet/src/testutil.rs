//! Shared test-frame builders (feature `test-util`).
//!
//! Every crate in the workspace needs valid Ethernet/IPv4/TCP-or-UDP frames
//! for its tests; this module is the single hand-rolled emitter they all
//! delegate to, so a header-layout change is made in exactly one place.
//! It is compiled only for this crate's own tests or when a dependent
//! enables the `test-util` feature (test harnesses and the traffic
//! generator do; datapath crates never should).

use crate::ether::{self, MacAddr};
use crate::ipv4::{self, Ipv4Addr, Ipv4Emit};
use crate::tcp::{self, TcpEmit};
use crate::udp;
use crate::Packet;

/// Ethernet + IPv4 + TCP header bytes in the frames built here.
const TCP_HEADERS_LEN: usize = 14 + 20 + 20;
/// Ethernet + IPv4 + UDP header bytes in the frames built here.
const UDP_HEADERS_LEN: usize = 14 + 20 + 8;

/// A deterministic payload pattern of `len` bytes (the classic mod-251
/// ramp), for tests that only care about payload length.
#[cfg(test)]
pub(crate) fn patterned_payload(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i % 251) as u8).collect()
}

/// The per-packet payload every traffic source in the workspace emits: a
/// mod-251 ramp offset by the packet index, with the index written
/// big-endian into the first 8 bytes when it fits — the §6.4 "unique
/// packet ID in the payload" correctness device. The generator backend
/// and the golden-trace builder both delegate here, so the byte pattern
/// is defined in exactly one place.
pub fn indexed_payload(len: usize, index: u64) -> Vec<u8> {
    let mut payload = vec![0u8; len];
    for (i, b) in payload.iter_mut().enumerate() {
        *b = ((i as u64 * 31 + index) % 251) as u8;
    }
    tag_payload_index(&mut payload, index);
    payload
}

/// Stamp the packet index into the first 8 bytes of `payload` (no-op on
/// shorter payloads) — the shared tail of [`indexed_payload`], also used
/// by sources that fill the rest of the payload differently (zero-padded
/// elephant flows).
pub fn tag_payload_index(payload: &mut [u8], index: u64) {
    if payload.len() >= 8 {
        payload[..8].copy_from_slice(&index.to_be_bytes());
    }
}

/// Everything the public API can tell about a packet — frame bytes,
/// metadata, layer offsets and every flag — as one comparable value, for
/// tests asserting two packets cannot be told apart.
pub fn observable(p: &Packet) -> impl PartialEq + core::fmt::Debug + '_ {
    (
        p.data(),
        p.meta(),
        p.parsed().ok(),
        (p.is_nil(), p.nil_priority(), p.is_nil_failure()),
        p.is_header_only(),
    )
}

/// Build a checksum-valid Ethernet/IPv4/TCP frame as raw bytes.
pub fn tcp_frame_bytes(
    sip: Ipv4Addr,
    dip: Ipv4Addr,
    sport: u16,
    dport: u16,
    payload: &[u8],
) -> Vec<u8> {
    let ip_total = 20 + 20 + payload.len();
    let mut f = vec![0u8; 14 + ip_total];
    ether::emit(
        &mut f,
        MacAddr([0x02, 0, 0, 0, 0, 0x02]),
        MacAddr([0x02, 0, 0, 0, 0, 0x01]),
        ether::ETHERTYPE_IPV4,
    )
    .expect("frame fits");
    ipv4::emit(
        &mut f[14..],
        &Ipv4Emit {
            src: sip,
            dst: dip,
            protocol: ipv4::PROTO_TCP,
            total_len: ip_total as u16,
            ttl: 64,
            ident: 0,
        },
    )
    .expect("ip fits");
    tcp::emit(
        &mut f[34..],
        &TcpEmit {
            sport,
            dport,
            ..TcpEmit::default()
        },
    )
    .expect("tcp fits");
    f[TCP_HEADERS_LEN..].copy_from_slice(payload);
    tcp::fill_checksum(&mut f[34..], sip, dip);
    f
}

/// Build a checksum-valid Ethernet/IPv4/UDP frame as raw bytes.
pub fn udp_frame_bytes(
    sip: Ipv4Addr,
    dip: Ipv4Addr,
    sport: u16,
    dport: u16,
    payload: &[u8],
) -> Vec<u8> {
    let ip_total = 20 + 8 + payload.len();
    let mut f = vec![0u8; 14 + ip_total];
    ether::emit(
        &mut f,
        MacAddr([0x02, 0, 0, 0, 0, 0x02]),
        MacAddr([0x02, 0, 0, 0, 0, 0x01]),
        ether::ETHERTYPE_IPV4,
    )
    .expect("frame fits");
    ipv4::emit(
        &mut f[14..],
        &Ipv4Emit {
            src: sip,
            dst: dip,
            protocol: ipv4::PROTO_UDP,
            total_len: ip_total as u16,
            ttl: 64,
            ident: 0,
        },
    )
    .expect("ip fits");
    udp::emit(&mut f[34..], sport, dport, (8 + payload.len()) as u16).expect("udp fits");
    f[UDP_HEADERS_LEN..].copy_from_slice(payload);
    udp::fill_checksum(&mut f[34..], sip, dip);
    f
}

/// Shorthand IPv4 address.
pub fn ip(a: u8, b: u8, c: u8, d: u8) -> Ipv4Addr {
    Ipv4Addr::new(a, b, c, d)
}

/// Build a parsed TCP [`Packet`] (valid checksums, layers resolved).
pub fn tcp_packet(sip: Ipv4Addr, dip: Ipv4Addr, sport: u16, dport: u16, payload: &[u8]) -> Packet {
    let mut p =
        Packet::from_bytes(&tcp_frame_bytes(sip, dip, sport, dport, payload)).expect("frame fits");
    p.parse().expect("self-built frame parses");
    p
}

/// Build a parsed UDP [`Packet`].
pub fn udp_packet(sip: Ipv4Addr, dip: Ipv4Addr, sport: u16, dport: u16, payload: &[u8]) -> Packet {
    let mut p =
        Packet::from_bytes(&udp_frame_bytes(sip, dip, sport, dport, payload)).expect("frame fits");
    p.parse().expect("self-built frame parses");
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn built_frames_parse_with_expected_layout() {
        let p = tcp_packet(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            1234,
            80,
            &patterned_payload(32),
        );
        assert_eq!(p.payload().unwrap().len(), 32);
        assert_eq!(p.dport().unwrap(), 80);
        let u = udp_packet(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            53,
            53,
            b"hello",
        );
        assert_eq!(u.payload().unwrap(), b"hello");
    }

    #[test]
    fn indexed_payload_is_ramp_plus_index_tag() {
        let p = indexed_payload(32, 7);
        assert_eq!(u64::from_be_bytes(p[..8].try_into().unwrap()), 7);
        for (i, b) in p.iter().enumerate().skip(8) {
            assert_eq!(*b, ((i as u64 * 31 + 7) % 251) as u8);
        }
        // Payloads too short for the tag keep the pure ramp.
        let short = indexed_payload(5, 9);
        assert_eq!(short.len(), 5);
        for (i, b) in short.iter().enumerate() {
            assert_eq!(*b, ((i as u64 * 31 + 9) % 251) as u8);
        }
        assert!(indexed_payload(0, 3).is_empty());
    }
}
