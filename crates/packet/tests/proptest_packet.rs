//! Property tests for the packet substrate: parse/emit roundtrips,
//! checksum soundness, structural-edit inverses, field-mask algebra,
//! metadata packing and pool-slot recycling over arbitrary inputs.

use nfp_packet::checksum::{checksum, Checksum};
use nfp_packet::ether::MacAddr;
use nfp_packet::ipv4::{self, Ipv4Addr};
use nfp_packet::meta::{Metadata, MID_MAX, PID_MAX, VERSION_MAX};
use nfp_packet::testutil::observable;
use nfp_packet::{ah, tcp, udp};
use nfp_packet::{FieldId, FieldMask, Packet, PacketError, PacketPool, PacketRef};
use proptest::prelude::*;
use std::ops::Range;

/// A three-slot pool whose slots 0 and 1 are free again after holding
/// `prev` — slot 1 in the shape `how` picks: `prev` itself, a nil, a
/// failure nil, a header-only copy of `prev`, or `prev` taken back out.
/// The next two allocations pop slot 0, then slot 1.
fn recycled_pool(prev: &[u8], how: u8) -> PacketPool {
    let pool = PacketPool::new(3);
    let mut p = Packet::from_bytes(prev).unwrap();
    p.set_meta(Metadata::new(MID_MAX, PID_MAX, VERSION_MAX).with_traced(true));
    let first = pool.insert(p.clone()).unwrap();
    let dirty: PacketRef = match how {
        0 | 4 => pool.insert(p).unwrap(),
        1 => pool.insert_nil(p.meta(), u32::MAX, false).unwrap(),
        2 => pool.insert_nil(p.meta(), u32::MAX, true).unwrap(),
        _ => pool.header_only_copy(first, VERSION_MAX).unwrap(),
    };
    if how == 4 {
        pool.take(dirty);
    } else {
        pool.release(dirty);
    }
    pool.release(first);
    pool
}

/// The Internet checksum as `Checksum` computed it before it went eight
/// bytes a step: one big-endian byte pair at a time, the odd byte padded.
fn byte_pair_checksum(data: &[u8]) -> u16 {
    let mut sum = 0u32;
    for pair in data.chunks(2) {
        sum += u32::from(u16::from_be_bytes([pair[0], *pair.get(1).unwrap_or(&0)]));
    }
    while sum >> 16 != 0 {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    !(sum as u16)
}

/// Where `field` lives, derived from the parse alone — the table
/// `Packet::field_range` used to carry inline, kept here as the
/// reference the direct-load accessors are held to.
fn reference_range(p: &Packet, field: FieldId) -> Result<Range<usize>, PacketError> {
    let l = p.parsed()?;
    let r = match field {
        FieldId::Smac => 6..12,
        FieldId::Dmac => 0..6,
        FieldId::Sip => l.l3 + ipv4::offsets::SRC..l.l3 + ipv4::offsets::SRC + 4,
        FieldId::Dip => l.l3 + ipv4::offsets::DST..l.l3 + ipv4::offsets::DST + 4,
        FieldId::Ttl => l.l3 + ipv4::offsets::TTL..l.l3 + ipv4::offsets::TTL + 1,
        FieldId::Tos => l.l3 + ipv4::offsets::TOS..l.l3 + ipv4::offsets::TOS + 1,
        FieldId::Sport => l.l4..l.l4 + 2,
        FieldId::Dport => l.l4 + 2..l.l4 + 4,
        FieldId::L4Checksum => match l.l4_proto {
            ipv4::PROTO_TCP => l.l4 + tcp::offsets::CHECKSUM..l.l4 + tcp::offsets::CHECKSUM + 2,
            ipv4::PROTO_UDP => l.l4 + udp::offsets::CHECKSUM..l.l4 + udp::offsets::CHECKSUM + 2,
            _ => return Err(PacketError::FieldUnavailable(field)),
        },
        FieldId::Payload => l.payload..p.len(),
    };
    if r.end > p.len() {
        return Err(PacketError::Truncated {
            what: "field range",
            needed: r.end,
            available: p.len(),
        });
    }
    Ok(r)
}

fn reference_bytes(p: &Packet, field: FieldId) -> Result<Vec<u8>, PacketError> {
    Ok(p.data()[reference_range(p, field)?].to_vec())
}

fn be(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0, |v, &b| v << 8 | u64::from(b))
}

/// Every read accessor of `p` against the reference: same value or the
/// same error, field by field.
fn assert_reads_match_reference(p: &Packet) {
    for f in FieldId::ALL {
        let expect = reference_bytes(p, f);
        assert_eq!(p.field_range(f), reference_range(p, f), "{f} range");
        assert_eq!(p.field_bytes(f).map(<[u8]>::to_vec), expect, "{f} bytes");
        let scalar = match &expect {
            Ok(b) if b.len() > 8 => Err(PacketError::NoCapacity {
                requested: b.len(),
                capacity: 8,
            }),
            other => other.as_deref().map(be).map_err(|e| *e),
        };
        assert_eq!(p.field_scalar(f), scalar, "{f} scalar");
    }
    let addr = |f| reference_bytes(p, f).map(|b| Ipv4Addr(b.try_into().unwrap()));
    let port = |f| reference_bytes(p, f).map(|b| be(&b) as u16);
    let mac = |f| reference_bytes(p, f).map(|b| MacAddr(b.try_into().unwrap()));
    assert_eq!(p.sip(), addr(FieldId::Sip));
    assert_eq!(p.dip(), addr(FieldId::Dip));
    assert_eq!(p.sport(), port(FieldId::Sport));
    assert_eq!(p.dport(), port(FieldId::Dport));
    assert_eq!(p.ttl(), reference_bytes(p, FieldId::Ttl).map(|b| b[0]));
    assert_eq!(p.smac(), mac(FieldId::Smac));
    assert_eq!(p.dmac(), mac(FieldId::Dmac));
    let tuple = p.parsed().and_then(|l| {
        Ok((
            addr(FieldId::Sip)?,
            addr(FieldId::Dip)?,
            port(FieldId::Sport)?,
            port(FieldId::Dport)?,
            l.l4_proto,
        ))
    });
    assert_eq!(p.five_tuple(), tuple);
}

/// Every field of `p` overwritten with `fill`: the write lands on the
/// reference range and nowhere else, a value of the wrong width is
/// refused, and an unreachable field refuses with the reader's error.
fn assert_writes_match_reference(p: &mut Packet, fill: u8) {
    for f in FieldId::ALL {
        let before = p.data().to_vec();
        match reference_range(p, f) {
            Ok(r) => {
                let value = vec![fill ^ f as u8; r.len()];
                let mut wrong = value.clone();
                wrong.push(0);
                assert_eq!(
                    p.set_field_bytes(f, &wrong),
                    Err(PacketError::Malformed {
                        what: "field value width mismatch"
                    }),
                    "{f} width"
                );
                assert_eq!(p.data(), &before[..], "{f} refused write moved bytes");
                assert_eq!(p.set_field_bytes(f, &value), Ok(()), "{f} write");
                let mut expect = before;
                expect[r].copy_from_slice(&value);
                assert_eq!(p.data(), &expect[..], "{f} write landed elsewhere");
            }
            Err(e) => {
                assert_eq!(p.set_field_bytes(f, &[fill]), Err(e), "{f} write error");
                assert_eq!(p.data(), &before[..]);
            }
        }
    }
}

/// `assert_reads_match_reference` and the writes, with the parse uncached
/// and cached, then across the structural edits that drop the cache: an
/// Authentication Header inserted (and chained) in front of L4, removed
/// again, and a bare `invalidate`.
fn assert_field_paths_agree(mut p: Packet, fill: u8) {
    let check = |p: &mut Packet| {
        assert_reads_match_reference(p);
        let _ = p.parse();
        assert_reads_match_reference(p);
        assert_writes_match_reference(&mut p.clone(), fill);
    };
    check(&mut p);
    let Ok(l) = p.parsed() else { return };
    if l.ah.is_none() {
        p.insert_bytes(l.l4, ah::HEADER_LEN).unwrap();
        assert_reads_match_reference(&p);
        let at = l.l3 + ipv4::offsets::PROTOCOL;
        ah::emit(
            &mut p.data_mut()[l.l4..],
            l.l4_proto,
            7,
            1,
            &[fill; ah::ICV_LEN],
        )
        .unwrap();
        p.data_mut()[at] = ipv4::PROTO_AH;
        check(&mut p);
        assert_eq!(p.parsed().unwrap().ah, Some(l.l4));
        p.remove_bytes(l.l4..l.l4 + ah::HEADER_LEN).unwrap();
        p.data_mut()[at] = l.l4_proto;
        check(&mut p);
    }
    p.invalidate();
    check(&mut p);
}

fn frame_strategy() -> impl Strategy<Value = Vec<u8>> {
    (
        any::<u32>(),
        any::<u32>(),
        any::<u16>(),
        any::<u16>(),
        proptest::collection::vec(any::<u8>(), 0..1200),
    )
        .prop_map(|(sip, dip, sport, dport, payload)| {
            nfp_packet::testutil::tcp_frame_bytes(
                Ipv4Addr::from_u32(sip),
                Ipv4Addr::from_u32(dip),
                sport,
                dport,
                &payload,
            )
        })
}

proptest! {
    #[test]
    fn any_emitted_frame_parses_with_valid_checksums(frame in frame_strategy()) {
        let mut p = Packet::from_bytes(&frame).unwrap();
        let l = p.parse().unwrap();
        prop_assert_eq!(l.l3, 14);
        prop_assert_eq!(l.payload, 54);
        let d = p.data();
        prop_assert!(ipv4::Ipv4View::new(&d[14..]).unwrap().verify_checksum());
        prop_assert!(tcp::verify_checksum(&d[34..], p.sip().unwrap(), p.dip().unwrap()));
    }

    #[test]
    fn checksum_detects_single_bit_flips(frame in frame_strategy(), bit in 0usize..100) {
        let mut p = Packet::from_bytes(&frame).unwrap();
        p.parse().unwrap();
        let idx = 14 + (bit % 20); // somewhere in the IPv4 header
        let mut mutated = frame.clone();
        mutated[idx] ^= 1 << (bit % 8);
        if mutated[14] >> 4 == 4 && (mutated[14] & 0x0f) >= 5 {
            let view = ipv4::Ipv4View::new(&mutated[14..34]);
            if let Ok(v) = view {
                prop_assert!(!v.verify_checksum(), "flip at {idx} undetected");
            }
        }
    }

    #[test]
    fn field_write_then_read_roundtrips(frame in frame_strategy(), v in any::<u32>(), port in any::<u16>()) {
        let mut p = Packet::from_bytes(&frame).unwrap();
        p.parse().unwrap();
        p.set_dip(Ipv4Addr::from_u32(v)).unwrap();
        p.set_sport(port).unwrap();
        prop_assert_eq!(p.dip().unwrap(), Ipv4Addr::from_u32(v));
        prop_assert_eq!(p.sport().unwrap(), port);
        // Untouched fields survive.
        prop_assert_eq!(p.dport().unwrap(), u16::from_be_bytes([frame[36], frame[37]]));
    }

    #[test]
    fn insert_then_remove_is_identity(frame in frame_strategy(), at_frac in 0.0f64..1.0, n in 1usize..64) {
        let mut p = Packet::from_bytes(&frame).unwrap();
        let at = ((frame.len() as f64) * at_frac) as usize;
        p.insert_bytes(at, n).unwrap();
        prop_assert_eq!(p.len(), frame.len() + n);
        p.remove_bytes(at..at + n).unwrap();
        prop_assert_eq!(p.data(), &frame[..]);
    }

    #[test]
    fn header_only_copy_is_valid_and_bounded(frame in frame_strategy(), ver in 2u8..=15) {
        let p = Packet::from_bytes(&frame).unwrap();
        let c = p.header_only_copy(ver).unwrap();
        prop_assert!(c.len() <= 54);
        prop_assert!(c.is_header_only());
        prop_assert_eq!(c.meta().version(), ver);
        // The copy reparses and its IP length is internally consistent.
        let l = c.parsed().unwrap();
        let ip = ipv4::Ipv4View::new(&c.data()[l.l3..]).unwrap();
        prop_assert_eq!(ip.total_len() as usize, c.len() - 14);
        prop_assert!(ip.verify_checksum());
    }

    #[test]
    fn pooled_copy_into_a_recycled_slot_equals_the_by_value_copy(
        prev in frame_strategy(),
        frame in frame_strategy(),
        how in 0u8..5,
        header_only in 0u8..2,
        ver in 2u8..=15,
        pid in 0u64..=PID_MAX,
    ) {
        let header_only = header_only == 1;
        let mut src = Packet::from_bytes(&frame).unwrap();
        src.set_meta(Metadata::new(1, pid, 1).with_epoch(pid % 7));
        let expect = if header_only { src.header_only_copy(ver) } else { src.full_copy(ver) }.unwrap();
        let pool = recycled_pool(&prev, how);
        let r = pool.insert(src).unwrap();
        let c = if header_only { pool.header_only_copy(r, ver) } else { pool.full_copy(r, ver) }.unwrap();
        prop_assert_eq!((r.index(), c.index()), (0, 1));
        pool.with(c, |copy| assert_eq!(observable(copy), observable(&expect)));
        // Whatever the slot held, growing the copy exposes only zeros.
        pool.with_mut(c, |copy| {
            let end = copy.len();
            copy.insert_bytes(end, 48).unwrap();
            assert_eq!(&copy.data()[end..], &[0u8; 48]);
        });
        pool.release(c);
        pool.release(r);
        prop_assert_eq!(pool.in_use(), 0);
    }

    #[test]
    fn insert_then_take_returns_the_packet_unchanged(
        prev in frame_strategy(),
        frame in frame_strategy(),
        how in 0u8..5,
        pid in 0u64..=PID_MAX,
    ) {
        let pool = recycled_pool(&prev, how);
        let _busy = pool.insert(Packet::new()).unwrap();
        let mut p = Packet::from_bytes(&frame).unwrap();
        p.parse().unwrap();
        p.set_meta(Metadata::new(2, pid, 1).with_ingress_ns(pid));
        let r = pool.insert(p.clone()).unwrap();
        prop_assert_eq!(r.index(), 1);
        let out = pool.take(r);
        assert_eq!(observable(&out), observable(&p));
        // What the packet left behind in the slot cannot be told from a
        // fresh buffer: a nil written there carries none of it.
        let nil = pool.insert_nil(Metadata::new(2, pid, 1), 3, false).unwrap();
        prop_assert_eq!(nil.index(), 1);
        let mut expect = Packet::new();
        expect.set_nil_packet(Metadata::new(2, pid, 1), 3, false);
        pool.with(nil, |n| assert_eq!(observable(n), observable(&expect)));
    }

    #[test]
    fn refused_copy_changes_nothing(frame in frame_strategy(), cut in 14usize..54, ver in 2u8..=15) {
        // A frame cut inside its headers parses no further than Ethernet:
        // it can be pooled, but not header-only copied.
        let pool = PacketPool::new(2);
        let r = pool.insert(Packet::from_bytes(&frame[..cut]).unwrap()).unwrap();
        prop_assert!(pool.header_only_copy(r, ver).is_err());
        prop_assert_eq!(pool.in_use(), 1);
        let c = pool.full_copy(r, ver).unwrap();
        prop_assert_eq!(c.index(), 1);
        // Now exhausted: refused again, and still nothing moved.
        prop_assert_eq!(pool.full_copy(r, ver), Err(PacketError::PoolExhausted));
        prop_assert_eq!(pool.in_use(), 2);
        pool.release(c);
        prop_assert_eq!(pool.full_copy(r, ver).unwrap().index(), 1);
    }

    #[test]
    fn metadata_roundtrips(mid in 0u32..=MID_MAX, pid in 0u64..=PID_MAX, ver in 0u8..=VERSION_MAX) {
        let m = Metadata::new(mid, pid, ver);
        prop_assert_eq!(m.mid(), mid);
        prop_assert_eq!(m.pid(), pid);
        prop_assert_eq!(m.version(), ver);
        prop_assert_eq!(Metadata::from_raw(m.to_raw()), m);
    }

    #[test]
    fn field_mask_algebra(bits_a in 0u16..1024, bits_b in 0u16..1024) {
        let fields: Vec<FieldId> = FieldId::ALL.into_iter().collect();
        let mask_of = |bits: u16| {
            FieldMask::from_fields(
                fields.iter().enumerate().filter(|(i, _)| bits & (1 << i) != 0).map(|(_, f)| *f),
            )
        };
        let a = mask_of(bits_a);
        let b = mask_of(bits_b);
        // Union/intersection laws.
        prop_assert_eq!(a.union(b), b.union(a));
        prop_assert_eq!(a.intersection(b), b.intersection(a));
        prop_assert_eq!(a.union(a), a);
        prop_assert_eq!(a.intersection(FieldMask::ALL), a);
        prop_assert_eq!(a.is_disjoint(b), a.intersection(b).is_empty());
        // Length via iteration agrees with count.
        prop_assert_eq!(a.iter().count(), a.len());
    }

    #[test]
    fn checksum_equals_byte_pair_reference_at_every_split(data in proptest::collection::vec(any::<u8>(), 0..96)) {
        // Short inputs, every split: the 8-byte steps, the byte-pair tail
        // and the pending odd byte meet in every combination.
        let expect = byte_pair_checksum(&data);
        prop_assert_eq!(checksum(&data), expect);
        for a in 0..=data.len() {
            for b in a..=data.len() {
                let mut c = Checksum::new();
                c.add_bytes(&data[..a]);
                c.add_bytes(&data[a..b]);
                c.add_bytes(&data[b..]);
                prop_assert_eq!(c.finish(), expect, "split at {} and {}", a, b);
            }
        }
    }

    #[test]
    fn checksum_equals_byte_pair_reference_on_frame_sized_input(
        data in proptest::collection::vec(any::<u8>(), 1300..1515),
        ones in 0u8..3,
    ) {
        // All-ones words are where an accumulator that folds early or
        // too narrowly shows.
        let data: Vec<u8> = data.into_iter().map(|b| if ones == 0 { 0xff } else { b }).collect();
        prop_assert_eq!(checksum(&data), byte_pair_checksum(&data));
        prop_assert_eq!(checksum(&data[1..]), byte_pair_checksum(&data[1..]));
    }

    #[test]
    fn direct_field_accessors_equal_the_reference_paths(
        frame in frame_strategy(),
        udp in 0u8..2,
        cut in prop_oneof![0usize..64, 0usize..1300],
        fill in any::<u8>(),
    ) {
        let frame = if udp == 1 {
            let tuple = Packet::from_bytes(&frame).unwrap().five_tuple().unwrap();
            nfp_packet::testutil::udp_frame_bytes(tuple.0, tuple.1, tuple.2, tuple.3, &frame[54..])
        } else {
            frame
        };
        let whole = Packet::from_bytes(&frame).unwrap();
        // Header-only copies of the plain and of the AH-encapsulated frame
        // ride along: `assert_field_paths_agree` encapsulates what it gets.
        assert_field_paths_agree(whole.header_only_copy(2).unwrap(), fill);
        assert_field_paths_agree(whole, fill);
        // A snaplen cut anywhere from "no Ethernet header" to "payload
        // shortened": unparseable cuts must fail identically everywhere.
        let cut = cut.min(frame.len());
        assert_field_paths_agree(Packet::from_bytes(&frame[..cut]).unwrap(), fill);
    }

    #[test]
    fn incremental_checksum_equals_oneshot(data in proptest::collection::vec(any::<u8>(), 0..600), split in 0usize..600) {
        let split = split.min(data.len());
        let mut c = nfp_packet::checksum::Checksum::new();
        c.add_bytes(&data[..split]);
        c.add_bytes(&data[split..]);
        prop_assert_eq!(c.finish(), checksum(&data));
    }
}
