//! IPv4 header parsing and emission.

use crate::checksum::{checksum, Checksum};
use crate::{PacketError, Result};

/// Minimum (and, for NFP-generated traffic, typical) IPv4 header length.
const MIN_HEADER_LEN: usize = 20;

/// IP protocol number for TCP.
pub const PROTO_TCP: u8 = 6;
/// IP protocol number for UDP.
pub const PROTO_UDP: u8 = 17;
/// IP protocol number for the IPsec Authentication Header.
pub const PROTO_AH: u8 = 51;

/// An IPv4 address (we deliberately avoid `std::net::Ipv4Addr` so the field
/// model can treat addresses as raw big-endian bytes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Ipv4Addr(pub [u8; 4]);

impl Ipv4Addr {
    /// Construct from four dotted-quad octets.
    #[inline]
    pub const fn new(a: u8, b: u8, c: u8, d: u8) -> Self {
        Self([a, b, c, d])
    }

    /// The address as a host-order `u32`.
    #[inline]
    pub fn to_u32(self) -> u32 {
        u32::from_be_bytes(self.0)
    }

    /// Construct from a host-order `u32`.
    #[inline]
    pub fn from_u32(v: u32) -> Self {
        Self(v.to_be_bytes())
    }
}

impl core::fmt::Display for Ipv4Addr {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}.{}.{}.{}", self.0[0], self.0[1], self.0[2], self.0[3])
    }
}

impl core::str::FromStr for Ipv4Addr {
    type Err = PacketError;

    fn from_str(s: &str) -> Result<Self> {
        let mut b = [0u8; 4];
        let mut parts = s.split('.');
        for o in &mut b {
            let p = parts.next().ok_or(PacketError::Malformed {
                what: "IPv4 address needs 4 octets",
            })?;
            *o = p.parse().map_err(|_| PacketError::Malformed {
                what: "IPv4 octet out of range",
            })?;
        }
        if parts.next().is_some() {
            return Err(PacketError::Malformed {
                what: "IPv4 address has more than 4 octets",
            });
        }
        Ok(Ipv4Addr(b))
    }
}

/// Byte offsets of IPv4 fields relative to the start of the IPv4 header.
pub mod offsets {
    /// DSCP/ECN byte.
    pub const TOS: usize = 1;
    /// Total length (16 bits).
    pub(crate) const TOTAL_LEN: usize = 2;
    /// Time to live.
    pub const TTL: usize = 8;
    /// Protocol number.
    pub const PROTOCOL: usize = 9;
    /// Header checksum (16 bits).
    pub(crate) const CHECKSUM: usize = 10;
    /// Source address (32 bits).
    pub const SRC: usize = 12;
    /// Destination address (32 bits).
    pub const DST: usize = 16;
}

/// Immutable view over an IPv4 header.
#[derive(Debug, Clone, Copy)]
pub struct Ipv4View<'a> {
    bytes: &'a [u8],
}

impl<'a> Ipv4View<'a> {
    /// Parse an IPv4 header at the start of `bytes`, validating version, IHL
    /// and length consistency.
    #[inline]
    pub fn new(bytes: &'a [u8]) -> Result<Self> {
        if bytes.len() < MIN_HEADER_LEN {
            return Err(PacketError::Truncated {
                what: "IPv4 header",
                needed: MIN_HEADER_LEN,
                available: bytes.len(),
            });
        }
        let ver = bytes[0] >> 4;
        if ver != 4 {
            return Err(PacketError::Malformed {
                what: "IPv4 version is not 4",
            });
        }
        let ihl = (bytes[0] & 0x0f) as usize * 4;
        if ihl < MIN_HEADER_LEN {
            return Err(PacketError::Malformed {
                what: "IPv4 IHL below 5",
            });
        }
        if bytes.len() < ihl {
            return Err(PacketError::Truncated {
                what: "IPv4 options",
                needed: ihl,
                available: bytes.len(),
            });
        }
        Ok(Self { bytes })
    }

    /// Header length in bytes (IHL × 4).
    #[inline]
    pub(crate) fn header_len(&self) -> usize {
        (self.bytes[0] & 0x0f) as usize * 4
    }

    /// Total datagram length from the header.
    #[inline]
    pub fn total_len(&self) -> u16 {
        u16::from_be_bytes([
            self.bytes[offsets::TOTAL_LEN],
            self.bytes[offsets::TOTAL_LEN + 1],
        ])
    }

    /// Time to live.
    #[inline]
    #[cfg(test)]
    fn ttl(&self) -> u8 {
        self.bytes[offsets::TTL]
    }

    /// Encapsulated protocol number.
    #[inline]
    pub(crate) fn protocol(&self) -> u8 {
        self.bytes[offsets::PROTOCOL]
    }

    /// Source address.
    #[inline]
    #[cfg(test)]
    fn src(&self) -> Ipv4Addr {
        Ipv4Addr(
            self.bytes[offsets::SRC..offsets::SRC + 4]
                .try_into()
                .unwrap(),
        )
    }

    /// Destination address.
    #[inline]
    #[cfg(test)]
    fn dst(&self) -> Ipv4Addr {
        Ipv4Addr(
            self.bytes[offsets::DST..offsets::DST + 4]
                .try_into()
                .unwrap(),
        )
    }

    /// True if the checksum over the header (including the checksum field)
    /// verifies.
    pub fn verify_checksum(&self) -> bool {
        checksum(&self.bytes[..self.header_len()]) == 0
    }

    /// Bytes after the IPv4 header, bounded by `total_len` when consistent.
    #[inline]
    #[cfg(test)]
    fn payload(&self) -> &'a [u8] {
        let hl = self.header_len();
        let total = self.total_len() as usize;
        let end = total.clamp(hl, self.bytes.len());
        &self.bytes[hl..end]
    }
}

/// Parameters for emitting an IPv4 header (no options).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Ipv4Emit {
    /// Source address.
    pub(crate) src: Ipv4Addr,
    /// Destination address.
    pub(crate) dst: Ipv4Addr,
    /// Encapsulated protocol number.
    pub(crate) protocol: u8,
    /// Total datagram length (header + payload).
    pub(crate) total_len: u16,
    /// Time to live.
    pub(crate) ttl: u8,
    /// Identification field.
    pub(crate) ident: u16,
}

impl Default for Ipv4Emit {
    fn default() -> Self {
        Self {
            src: Ipv4Addr::new(0, 0, 0, 0),
            dst: Ipv4Addr::new(0, 0, 0, 0),
            protocol: PROTO_TCP,
            total_len: MIN_HEADER_LEN as u16,
            ttl: 64,
            ident: 0,
        }
    }
}

/// Write a 20-byte IPv4 header (checksum filled in) into `buf`.
pub(crate) fn emit(buf: &mut [u8], params: &Ipv4Emit) -> Result<()> {
    if buf.len() < MIN_HEADER_LEN {
        return Err(PacketError::NoCapacity {
            requested: MIN_HEADER_LEN,
            capacity: buf.len(),
        });
    }
    buf[0] = 0x45; // version 4, IHL 5
    buf[1] = 0;
    buf[2..4].copy_from_slice(&params.total_len.to_be_bytes());
    buf[4..6].copy_from_slice(&params.ident.to_be_bytes());
    buf[6..8].copy_from_slice(&0x4000u16.to_be_bytes()); // DF set, not fragmented
    buf[8] = params.ttl;
    buf[9] = params.protocol;
    buf[10..12].copy_from_slice(&[0, 0]);
    buf[12..16].copy_from_slice(&params.src.0);
    buf[16..20].copy_from_slice(&params.dst.0);
    let sum = checksum(&buf[..MIN_HEADER_LEN]);
    buf[10..12].copy_from_slice(&sum.to_be_bytes());
    Ok(())
}

/// Recompute and patch the header checksum in place (after field rewrites).
pub(crate) fn refresh_checksum(hdr: &mut [u8]) {
    debug_assert!(hdr.len() >= MIN_HEADER_LEN);
    let hl = ((hdr[0] & 0x0f) as usize * 4).min(hdr.len());
    let mut c = Checksum::new();
    c.add_bytes_without(&hdr[..hl], offsets::CHECKSUM);
    hdr[offsets::CHECKSUM..offsets::CHECKSUM + 2].copy_from_slice(&c.finish().to_be_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> [u8; 20] {
        let mut buf = [0u8; 20];
        emit(
            &mut buf,
            &Ipv4Emit {
                src: "10.0.0.1".parse().unwrap(),
                dst: "192.168.0.199".parse().unwrap(),
                protocol: PROTO_UDP,
                total_len: 0x73,
                ttl: 64,
                ident: 0,
            },
        )
        .unwrap();
        buf
    }

    #[test]
    fn emit_then_parse_roundtrips() {
        let buf = sample();
        let v = Ipv4View::new(&buf).unwrap();
        assert_eq!(v.src().to_string(), "10.0.0.1");
        assert_eq!(v.dst().to_string(), "192.168.0.199");
        assert_eq!(v.protocol(), PROTO_UDP);
        assert_eq!(v.total_len(), 0x73);
        assert_eq!(v.ttl(), 64);
        assert!(v.verify_checksum());
    }

    #[test]
    fn corrupting_any_byte_breaks_checksum() {
        let buf = sample();
        for i in 0..20 {
            let mut b = buf;
            b[i] ^= 0xff;
            if i == 0 {
                // Flipping version/IHL makes it unparseable instead.
                assert!(Ipv4View::new(&b).is_err());
            } else {
                let v = Ipv4View::new(&b).unwrap();
                assert!(!v.verify_checksum(), "byte {i}");
            }
        }
    }

    #[test]
    fn refresh_after_rewrite_verifies() {
        let mut buf = sample();
        buf[offsets::DST..offsets::DST + 4].copy_from_slice(&[1, 2, 3, 4]);
        refresh_checksum(&mut buf);
        assert!(Ipv4View::new(&buf).unwrap().verify_checksum());
    }

    #[test]
    fn rejects_wrong_version_and_short_ihl() {
        let mut buf = sample();
        buf[0] = 0x65;
        assert!(Ipv4View::new(&buf).is_err());
        buf[0] = 0x44;
        assert!(Ipv4View::new(&buf).is_err());
    }

    #[test]
    fn addr_parse_and_display() {
        let a: Ipv4Addr = "255.0.10.1".parse().unwrap();
        assert_eq!(a.to_string(), "255.0.10.1");
        assert!("1.2.3".parse::<Ipv4Addr>().is_err());
        assert!("1.2.3.4.5".parse::<Ipv4Addr>().is_err());
        assert!("1.2.3.256".parse::<Ipv4Addr>().is_err());
        assert_eq!(Ipv4Addr::from_u32(a.to_u32()), a);
    }

    #[test]
    fn payload_respects_total_len() {
        let mut buf = vec![0u8; 40];
        emit(
            &mut buf,
            &Ipv4Emit {
                total_len: 28,
                ..Ipv4Emit::default()
            },
        )
        .unwrap();
        let v = Ipv4View::new(&buf).unwrap();
        assert_eq!(v.payload().len(), 8);
    }
}
