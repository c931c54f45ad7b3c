//! TCP header parsing and emission.

use crate::checksum::pseudo_header;
use crate::ipv4::Ipv4Addr;
use crate::{PacketError, Result};

/// Minimum TCP header length (no options).
const MIN_HEADER_LEN: usize = 20;

/// Byte offsets of TCP fields relative to the start of the TCP header.
pub mod offsets {
    /// Data offset / reserved / flags.
    pub(crate) const DATA_OFF: usize = 12;
    /// Flags byte.
    #[cfg(test)]
    pub(crate) const FLAGS: usize = 13;
    /// Checksum (16 bits).
    pub const CHECKSUM: usize = 16;
}

/// TCP flag bits.
mod flags {
    /// PSH.
    #[cfg(test)]
    pub(crate) const PSH: u8 = 0x08;
    /// ACK.
    pub(crate) const ACK: u8 = 0x10;
}

/// Immutable view over a TCP header.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TcpView<'a> {
    bytes: &'a [u8],
}

impl<'a> TcpView<'a> {
    /// Parse a TCP header at the start of `bytes`.
    #[inline]
    pub(crate) fn new(bytes: &'a [u8]) -> Result<Self> {
        if bytes.len() < MIN_HEADER_LEN {
            return Err(PacketError::Truncated {
                what: "TCP header",
                needed: MIN_HEADER_LEN,
                available: bytes.len(),
            });
        }
        let doff = (bytes[offsets::DATA_OFF] >> 4) as usize * 4;
        if doff < MIN_HEADER_LEN {
            return Err(PacketError::Malformed {
                what: "TCP data offset below 5",
            });
        }
        if bytes.len() < doff {
            return Err(PacketError::Truncated {
                what: "TCP options",
                needed: doff,
                available: bytes.len(),
            });
        }
        Ok(Self { bytes })
    }

    /// Source port.
    #[inline]
    #[cfg(test)]
    fn sport(&self) -> u16 {
        u16::from_be_bytes([self.bytes[0], self.bytes[1]])
    }

    /// Destination port.
    #[inline]
    #[cfg(test)]
    fn dport(&self) -> u16 {
        u16::from_be_bytes([self.bytes[2], self.bytes[3]])
    }

    /// Sequence number.
    #[inline]
    #[cfg(test)]
    fn seq(&self) -> u32 {
        u32::from_be_bytes(self.bytes[4..8].try_into().unwrap())
    }

    /// Acknowledgment number.
    #[inline]
    #[cfg(test)]
    fn ack(&self) -> u32 {
        u32::from_be_bytes(self.bytes[8..12].try_into().unwrap())
    }

    /// Header length in bytes.
    #[inline]
    pub(crate) fn header_len(&self) -> usize {
        (self.bytes[offsets::DATA_OFF] >> 4) as usize * 4
    }

    /// Flags byte.
    #[inline]
    #[cfg(test)]
    fn flags(&self) -> u8 {
        self.bytes[offsets::FLAGS]
    }

    /// Window size.
    #[inline]
    #[cfg(test)]
    fn window(&self) -> u16 {
        u16::from_be_bytes([self.bytes[14], self.bytes[15]])
    }

    /// Payload after the TCP header.
    #[inline]
    #[cfg(test)]
    fn payload(&self) -> &'a [u8] {
        &self.bytes[self.header_len()..]
    }
}

/// Parameters for emitting a 20-byte TCP header.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TcpEmit {
    /// Source port.
    pub(crate) sport: u16,
    /// Destination port.
    pub(crate) dport: u16,
    /// Sequence number.
    pub(crate) seq: u32,
    /// Acknowledgment number.
    pub(crate) ack: u32,
    /// Flags byte.
    pub(crate) flags: u8,
    /// Window size.
    pub(crate) window: u16,
}

impl Default for TcpEmit {
    fn default() -> Self {
        Self {
            sport: 0,
            dport: 0,
            seq: 0,
            ack: 0,
            flags: flags::ACK,
            window: 0xffff,
        }
    }
}

/// Write a 20-byte TCP header into `buf`; the checksum is left zero — call
/// [`fill_checksum`] once the payload is in place.
pub(crate) fn emit(buf: &mut [u8], params: &TcpEmit) -> Result<()> {
    if buf.len() < MIN_HEADER_LEN {
        return Err(PacketError::NoCapacity {
            requested: MIN_HEADER_LEN,
            capacity: buf.len(),
        });
    }
    buf[0..2].copy_from_slice(&params.sport.to_be_bytes());
    buf[2..4].copy_from_slice(&params.dport.to_be_bytes());
    buf[4..8].copy_from_slice(&params.seq.to_be_bytes());
    buf[8..12].copy_from_slice(&params.ack.to_be_bytes());
    buf[12] = 5 << 4;
    buf[13] = params.flags;
    buf[14..16].copy_from_slice(&params.window.to_be_bytes());
    buf[16..20].copy_from_slice(&[0, 0, 0, 0]); // checksum + urgent ptr
    Ok(())
}

/// Compute and patch the TCP checksum (pseudo-header included) over the TCP
/// segment `seg` (header + payload).
pub(crate) fn fill_checksum(seg: &mut [u8], src: Ipv4Addr, dst: Ipv4Addr) {
    debug_assert!(seg.len() >= MIN_HEADER_LEN);
    let mut c = pseudo_header(src.0, dst.0, crate::ipv4::PROTO_TCP, seg.len() as u16);
    c.add_bytes_without(seg, offsets::CHECKSUM);
    let sum = c.finish();
    seg[offsets::CHECKSUM..offsets::CHECKSUM + 2].copy_from_slice(&sum.to_be_bytes());
}

/// Verify the TCP checksum of segment `seg`.
pub fn verify_checksum(seg: &[u8], src: Ipv4Addr, dst: Ipv4Addr) -> bool {
    let mut c = pseudo_header(src.0, dst.0, crate::ipv4::PROTO_TCP, seg.len() as u16);
    c.add_bytes(seg);
    c.finish() == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_with_checksum() {
        let src = Ipv4Addr::new(10, 0, 0, 1);
        let dst = Ipv4Addr::new(10, 0, 0, 2);
        let mut seg = vec![0u8; 28];
        emit(
            &mut seg,
            &TcpEmit {
                sport: 443,
                dport: 51234,
                seq: 0xdeadbeef,
                ack: 0x01020304,
                flags: flags::ACK | flags::PSH,
                window: 1024,
            },
        )
        .unwrap();
        seg[20..].copy_from_slice(&[1, 2, 3, 4, 5, 6, 7, 8]);
        fill_checksum(&mut seg, src, dst);
        assert!(verify_checksum(&seg, src, dst));
        let v = TcpView::new(&seg).unwrap();
        assert_eq!(v.sport(), 443);
        assert_eq!(v.dport(), 51234);
        assert_eq!(v.seq(), 0xdeadbeef);
        assert_eq!(v.ack(), 0x01020304);
        assert_eq!(v.flags(), flags::ACK | flags::PSH);
        assert_eq!(v.window(), 1024);
        assert_eq!(v.payload(), &[1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn corrupt_payload_fails_checksum() {
        let src = Ipv4Addr::new(1, 1, 1, 1);
        let dst = Ipv4Addr::new(2, 2, 2, 2);
        let mut seg = vec![0u8; 24];
        emit(&mut seg, &TcpEmit::default()).unwrap();
        fill_checksum(&mut seg, src, dst);
        seg[22] ^= 1;
        assert!(!verify_checksum(&seg, src, dst));
    }

    #[test]
    fn truncated_and_bad_offset_rejected() {
        assert!(TcpView::new(&[0u8; 19]).is_err());
        let mut seg = [0u8; 20];
        emit(&mut seg, &TcpEmit::default()).unwrap();
        seg[12] = 4 << 4;
        assert!(TcpView::new(&seg).is_err());
        seg[12] = 8 << 4; // options longer than buffer
        assert!(TcpView::new(&seg).is_err());
    }
}
