//! IPsec Authentication Header (RFC 4302), used by the VPN NF.
//!
//! The NFP paper's VPN NF implements "the tunnel mode of IPsec
//! Authentication Header (AH) protocol" and its merger supports operations
//! like `add(v2.AH, after, v1.IP)`. We implement the AH wire format here so
//! header addition/removal in the merger manipulates a real protocol header.

use crate::{PacketError, Result};

/// Fixed AH length we emit: 12 bytes of fields + 12 bytes of ICV
/// (HMAC-96-style truncated integrity value), a common AH size.
pub const HEADER_LEN: usize = 24;

/// Length of the truncated integrity check value we carry.
pub const ICV_LEN: usize = 12;

/// Immutable view over an Authentication Header.
#[derive(Debug, Clone, Copy)]
pub struct AhView<'a> {
    bytes: &'a [u8],
}

impl<'a> AhView<'a> {
    /// Parse an AH at the start of `bytes`.
    #[inline]
    pub fn new(bytes: &'a [u8]) -> Result<Self> {
        if bytes.len() < HEADER_LEN {
            return Err(PacketError::Truncated {
                what: "Authentication Header",
                needed: HEADER_LEN,
                available: bytes.len(),
            });
        }
        // payload_len is in 32-bit words minus 2 (RFC 4302 §2.2).
        let words = bytes[1] as usize;
        if (words + 2) * 4 != HEADER_LEN {
            return Err(PacketError::Malformed {
                what: "AH payload length",
            });
        }
        Ok(Self { bytes })
    }

    /// Protocol number of the next header.
    #[inline]
    pub fn next_header(&self) -> u8 {
        self.bytes[0]
    }

    /// Security Parameters Index.
    #[inline]
    pub fn spi(&self) -> u32 {
        u32::from_be_bytes(self.bytes[4..8].try_into().unwrap())
    }

    /// Anti-replay sequence number.
    #[inline]
    pub fn seq(&self) -> u32 {
        u32::from_be_bytes(self.bytes[8..12].try_into().unwrap())
    }

    /// Integrity check value bytes.
    #[inline]
    pub fn icv(&self) -> &'a [u8] {
        &self.bytes[12..HEADER_LEN]
    }

    /// Bytes after the AH.
    #[inline]
    #[cfg(test)]
    fn payload(&self) -> &'a [u8] {
        &self.bytes[HEADER_LEN..]
    }
}

/// Write an AH into the first [`HEADER_LEN`] bytes of `buf`.
pub fn emit(
    buf: &mut [u8],
    next_header: u8,
    spi: u32,
    seq: u32,
    icv: &[u8; ICV_LEN],
) -> Result<()> {
    if buf.len() < HEADER_LEN {
        return Err(PacketError::NoCapacity {
            requested: HEADER_LEN,
            capacity: buf.len(),
        });
    }
    buf[0] = next_header;
    buf[1] = (HEADER_LEN / 4 - 2) as u8;
    buf[2..4].copy_from_slice(&[0, 0]); // reserved
    buf[4..8].copy_from_slice(&spi.to_be_bytes());
    buf[8..12].copy_from_slice(&seq.to_be_bytes());
    buf[12..HEADER_LEN].copy_from_slice(icv);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let mut buf = [0u8; 32];
        let icv = [0xabu8; ICV_LEN];
        emit(&mut buf, crate::ipv4::PROTO_TCP, 0x1001, 7, &icv).unwrap();
        let v = AhView::new(&buf).unwrap();
        assert_eq!(v.next_header(), crate::ipv4::PROTO_TCP);
        assert_eq!(v.spi(), 0x1001);
        assert_eq!(v.seq(), 7);
        assert_eq!(v.icv(), &icv);
        assert_eq!(v.payload().len(), 32 - HEADER_LEN);
    }

    #[test]
    fn bad_length_rejected() {
        let mut buf = [0u8; 24];
        emit(&mut buf, 6, 1, 1, &[0u8; ICV_LEN]).unwrap();
        buf[1] = 9;
        assert!(AhView::new(&buf).is_err());
        assert!(AhView::new(&buf[..20]).is_err());
    }
}
