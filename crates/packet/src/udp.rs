//! UDP header parsing and emission.

use crate::checksum::pseudo_header;
use crate::ipv4::Ipv4Addr;
use crate::{PacketError, Result};

/// UDP header length.
pub(crate) const HEADER_LEN: usize = 8;

/// Byte offsets of UDP fields relative to the start of the UDP header.
pub mod offsets {
    /// Checksum (16 bits).
    pub const CHECKSUM: usize = 6;
}

/// Check that `bytes` starts with a whole UDP header.
#[inline]
pub(crate) fn check_header(bytes: &[u8]) -> Result<()> {
    if bytes.len() < HEADER_LEN {
        return Err(PacketError::Truncated {
            what: "UDP header",
            needed: HEADER_LEN,
            available: bytes.len(),
        });
    }
    Ok(())
}

/// Immutable view over a UDP header.
#[cfg(test)]
#[derive(Debug, Clone, Copy)]
struct UdpView<'a> {
    bytes: &'a [u8],
}

#[cfg(test)]
impl<'a> UdpView<'a> {
    /// Parse a UDP header at the start of `bytes`.
    fn new(bytes: &'a [u8]) -> Result<Self> {
        check_header(bytes)?;
        Ok(Self { bytes })
    }

    /// Source port.
    #[inline]
    fn sport(&self) -> u16 {
        u16::from_be_bytes([self.bytes[0], self.bytes[1]])
    }

    /// Destination port.
    #[inline]
    fn dport(&self) -> u16 {
        u16::from_be_bytes([self.bytes[2], self.bytes[3]])
    }

    /// Datagram length from the header.
    #[inline]
    fn len(&self) -> u16 {
        u16::from_be_bytes([self.bytes[4], self.bytes[5]])
    }

    /// Checksum field.
    #[inline]
    fn checksum(&self) -> u16 {
        u16::from_be_bytes([self.bytes[6], self.bytes[7]])
    }

    /// Payload after the UDP header, bounded by the length field.
    #[inline]
    fn payload(&self) -> &'a [u8] {
        let end = (self.len() as usize).clamp(HEADER_LEN, self.bytes.len());
        &self.bytes[HEADER_LEN..end]
    }
}

/// Write a UDP header into `buf`; checksum left zero (optional in IPv4) —
/// use [`fill_checksum`] to set it.
pub(crate) fn emit(buf: &mut [u8], sport: u16, dport: u16, datagram_len: u16) -> Result<()> {
    if buf.len() < HEADER_LEN {
        return Err(PacketError::NoCapacity {
            requested: HEADER_LEN,
            capacity: buf.len(),
        });
    }
    buf[0..2].copy_from_slice(&sport.to_be_bytes());
    buf[2..4].copy_from_slice(&dport.to_be_bytes());
    buf[4..6].copy_from_slice(&datagram_len.to_be_bytes());
    buf[6..8].copy_from_slice(&[0, 0]);
    Ok(())
}

/// Compute and patch the UDP checksum over datagram `dgram` (header+payload).
pub(crate) fn fill_checksum(dgram: &mut [u8], src: Ipv4Addr, dst: Ipv4Addr) {
    debug_assert!(dgram.len() >= HEADER_LEN);
    let mut c = pseudo_header(src.0, dst.0, crate::ipv4::PROTO_UDP, dgram.len() as u16);
    c.add_bytes_without(dgram, offsets::CHECKSUM);
    let mut sum = c.finish();
    if sum == 0 {
        sum = 0xffff; // RFC 768: transmitted zero means "no checksum"
    }
    dgram[offsets::CHECKSUM..offsets::CHECKSUM + 2].copy_from_slice(&sum.to_be_bytes());
}

/// Verify the UDP checksum (zero checksum is accepted as "not present").
#[cfg(test)]
fn verify_checksum(dgram: &[u8], src: Ipv4Addr, dst: Ipv4Addr) -> bool {
    let view = match UdpView::new(dgram) {
        Ok(v) => v,
        Err(_) => return false,
    };
    if view.checksum() == 0 {
        return true;
    }
    let mut c = pseudo_header(src.0, dst.0, crate::ipv4::PROTO_UDP, dgram.len() as u16);
    c.add_bytes(dgram);
    c.finish() == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_with_checksum() {
        let src = Ipv4Addr::new(10, 0, 0, 1);
        let dst = Ipv4Addr::new(10, 0, 0, 2);
        let mut dgram = vec![0u8; 12];
        emit(&mut dgram, 53, 33000, 12).unwrap();
        dgram[8..].copy_from_slice(&[9, 9, 9, 9]);
        fill_checksum(&mut dgram, src, dst);
        assert!(verify_checksum(&dgram, src, dst));
        let v = UdpView::new(&dgram).unwrap();
        assert_eq!(v.sport(), 53);
        assert_eq!(v.dport(), 33000);
        assert_eq!(v.len(), 12);
        assert_eq!(v.payload(), &[9, 9, 9, 9]);
    }

    #[test]
    fn zero_checksum_accepted() {
        let mut dgram = vec![0u8; 8];
        emit(&mut dgram, 1, 2, 8).unwrap();
        assert!(verify_checksum(
            &dgram,
            Ipv4Addr::new(1, 1, 1, 1),
            Ipv4Addr::new(2, 2, 2, 2)
        ));
    }

    #[test]
    fn corrupt_fails() {
        let src = Ipv4Addr::new(10, 0, 0, 1);
        let dst = Ipv4Addr::new(10, 0, 0, 2);
        let mut dgram = vec![0u8; 10];
        emit(&mut dgram, 5, 6, 10).unwrap();
        fill_checksum(&mut dgram, src, dst);
        dgram[9] ^= 0x40;
        assert!(!verify_checksum(&dgram, src, dst));
    }

    #[test]
    fn truncated_rejected() {
        assert!(UdpView::new(&[0u8; 7]).is_err());
    }
}
