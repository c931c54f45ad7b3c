//! Ethernet II framing.

use crate::{PacketError, Result};

/// Length of an Ethernet II header in bytes.
pub(crate) const HEADER_LEN: usize = 14;

/// EtherType for IPv4.
pub(crate) const ETHERTYPE_IPV4: u16 = 0x0800;

/// A 48-bit IEEE 802 MAC address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MacAddr(pub [u8; 6]);

impl MacAddr {
    /// The broadcast address `ff:ff:ff:ff:ff:ff`.
    #[cfg(test)]
    const BROADCAST: MacAddr = MacAddr([0xff; 6]);

    /// True if this is a group (multicast/broadcast) address.
    #[inline]
    #[cfg(test)]
    fn is_multicast(&self) -> bool {
        self.0[0] & 0x01 != 0
    }

    /// True if this is the broadcast address.
    #[inline]
    #[cfg(test)]
    fn is_broadcast(&self) -> bool {
        *self == Self::BROADCAST
    }
}

impl core::fmt::Display for MacAddr {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let b = self.0;
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            b[0], b[1], b[2], b[3], b[4], b[5]
        )
    }
}

impl core::str::FromStr for MacAddr {
    type Err = PacketError;

    fn from_str(s: &str) -> Result<Self> {
        let mut bytes = [0u8; 6];
        let mut parts = s.split(':');
        for b in &mut bytes {
            let part = parts.next().ok_or(PacketError::Malformed {
                what: "MAC address needs 6 octets",
            })?;
            *b = u8::from_str_radix(part, 16).map_err(|_| PacketError::Malformed {
                what: "MAC octet is not hex",
            })?;
        }
        if parts.next().is_some() {
            return Err(PacketError::Malformed {
                what: "MAC address has more than 6 octets",
            });
        }
        Ok(MacAddr(bytes))
    }
}

/// Immutable view over an Ethernet II header.
#[derive(Debug, Clone, Copy)]
pub(crate) struct EtherView<'a> {
    bytes: &'a [u8],
}

impl<'a> EtherView<'a> {
    /// Parse an Ethernet header at the start of `bytes`.
    #[inline]
    pub(crate) fn new(bytes: &'a [u8]) -> Result<Self> {
        if bytes.len() < HEADER_LEN {
            return Err(PacketError::Truncated {
                what: "Ethernet header",
                needed: HEADER_LEN,
                available: bytes.len(),
            });
        }
        Ok(Self { bytes })
    }

    /// Destination MAC address.
    #[inline]
    #[cfg(test)]
    fn dst(&self) -> MacAddr {
        MacAddr(self.bytes[0..6].try_into().unwrap())
    }

    /// Source MAC address.
    #[inline]
    #[cfg(test)]
    fn src(&self) -> MacAddr {
        MacAddr(self.bytes[6..12].try_into().unwrap())
    }

    /// EtherType of the encapsulated protocol.
    #[inline]
    pub(crate) fn ethertype(&self) -> u16 {
        u16::from_be_bytes([self.bytes[12], self.bytes[13]])
    }
}

/// Write an Ethernet II header into the first [`HEADER_LEN`] bytes of `buf`.
pub(crate) fn emit(buf: &mut [u8], dst: MacAddr, src: MacAddr, ethertype: u16) -> Result<()> {
    if buf.len() < HEADER_LEN {
        return Err(PacketError::NoCapacity {
            requested: HEADER_LEN,
            capacity: buf.len(),
        });
    }
    buf[0..6].copy_from_slice(&dst.0);
    buf[6..12].copy_from_slice(&src.0);
    buf[12..14].copy_from_slice(&ethertype.to_be_bytes());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let mut buf = [0u8; 14];
        let src: MacAddr = "02:00:00:00:00:01".parse().unwrap();
        let dst: MacAddr = "02:00:00:00:00:02".parse().unwrap();
        emit(&mut buf, dst, src, ETHERTYPE_IPV4).unwrap();
        let v = EtherView::new(&buf).unwrap();
        assert_eq!(v.src(), src);
        assert_eq!(v.dst(), dst);
        assert_eq!(v.ethertype(), ETHERTYPE_IPV4);
    }

    #[test]
    fn truncated_rejected() {
        assert!(matches!(
            EtherView::new(&[0u8; 13]),
            Err(PacketError::Truncated { .. })
        ));
    }

    #[test]
    fn mac_display_and_parse() {
        let m: MacAddr = "de:ad:be:ef:00:2a".parse().unwrap();
        assert_eq!(m.to_string(), "de:ad:be:ef:00:2a");
        assert!("de:ad:be".parse::<MacAddr>().is_err());
        assert!("de:ad:be:ef:00:2a:ff".parse::<MacAddr>().is_err());
        assert!("zz:ad:be:ef:00:2a".parse::<MacAddr>().is_err());
    }

    #[test]
    fn multicast_and_broadcast() {
        assert!(MacAddr::BROADCAST.is_broadcast());
        assert!(MacAddr::BROADCAST.is_multicast());
        assert!(MacAddr([0x01, 0, 0x5e, 0, 0, 1]).is_multicast());
        assert!(!MacAddr([0x02, 0, 0, 0, 0, 1]).is_multicast());
    }
}
