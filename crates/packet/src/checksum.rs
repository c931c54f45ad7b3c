//! The Internet checksum (RFC 1071) used by IPv4, TCP and UDP.

/// Incrementally computable Internet checksum state.
///
/// Fold bytes in with [`Checksum::add_bytes`]; obtain the ones-complement
/// result with [`Checksum::finish`].
///
/// ```
/// use nfp_packet::checksum::Checksum;
/// let mut c = Checksum::new();
/// c.add_bytes(&[0x45, 0x00, 0x00, 0x73]);
/// let _sum = c.finish();
/// ```
#[derive(Debug, Default, Clone, Copy)]
pub struct Checksum {
    /// Unfolded sum of big-endian 16-bit words: the byte-pair path and
    /// [`Checksum::add_u16`].
    be: u64,
    /// Unfolded sum of the *native-endian* 32-bit halves of every whole
    /// 8-byte step. Swapping the bytes of every 16-bit word swaps the
    /// bytes of their ones-complement sum (RFC 1071 §2(B)), so the wide
    /// path loads without a swap — a loop the compiler vectorises — and
    /// [`Checksum::finish`] swaps the folded sum once. 2^16 ≡ 1
    /// (mod 0xffff) lets 32-bit halves be added as they are; 64 bits of
    /// room outlast any input.
    ne: u64,
    /// Pending odd byte (checksum operates on 16-bit words).
    odd: Option<u8>,
}

/// Fold an unfolded sum to 16 bits with end-around carry. Zero only for
/// a zero sum: any other multiple of 0xffff folds to 0xffff.
#[inline]
fn fold(s: u64) -> u16 {
    let s = (s >> 32) + (s & 0xffff_ffff);
    let s = (s >> 16) + (s & 0xffff);
    let s = (s >> 16) + (s & 0xffff);
    ((s >> 16) + (s & 0xffff)) as u16
}

impl Checksum {
    /// Create a fresh checksum accumulator.
    #[inline]
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold a byte slice into the checksum.
    pub fn add_bytes(&mut self, data: &[u8]) {
        let mut data = data;
        if let Some(hi) = self.odd.take() {
            if let Some((&lo, rest)) = data.split_first() {
                self.be += u64::from(u16::from_be_bytes([hi, lo]));
                data = rest;
            } else {
                self.odd = Some(hi);
                return;
            }
        }
        // `data` now starts on a 16-bit word of the stream. Eight bytes a
        // step: four words enter as two 32-bit halves.
        let mut wide = data.chunks_exact(8);
        for w in &mut wide {
            let w = u64::from_ne_bytes(w.try_into().expect("8-byte chunk"));
            self.ne += (w >> 32) + (w & 0xffff_ffff);
        }
        let mut words = wide.remainder().chunks_exact(2);
        for w in &mut words {
            self.be += u64::from(u16::from_be_bytes([w[0], w[1]]));
        }
        if let [last] = words.remainder() {
            self.odd = Some(*last);
        }
    }

    /// Fold in `data` with the 16-bit word at even offset `field` read as
    /// zero — how a protocol's own checksum field counts while its value
    /// is being computed. Summing around the field instead of zeroing it
    /// first matters: a wide load that overlaps two byte stores still in
    /// flight cannot be forwarded from them and waits for both to retire,
    /// which on a 20-byte header cost more than the sum itself.
    ///
    /// Panics if `data` ends before the field does.
    #[inline]
    pub(crate) fn add_bytes_without(&mut self, data: &[u8], field: usize) {
        debug_assert!(field & 1 == 0, "checksum field at odd offset");
        self.add_bytes(&data[..field]);
        self.add_bytes(&data[field + 2..]);
    }

    /// Fold a big-endian 16-bit word into the checksum.
    #[inline]
    fn add_u16(&mut self, word: u16) {
        // Only valid at even offsets; NFP headers always are.
        debug_assert!(self.odd.is_none(), "add_u16 at odd offset");
        self.be += u64::from(word);
    }

    /// Finish the computation, returning the ones-complement checksum.
    #[inline]
    pub fn finish(self) -> u16 {
        let pad = self
            .odd
            .map_or(0, |hi| u64::from(u16::from_be_bytes([hi, 0])));
        let wide = u16::from_be(fold(self.ne));
        !fold(self.be + pad + u64::from(wide))
    }
}

/// One-shot Internet checksum over a byte slice.
#[inline]
pub fn checksum(data: &[u8]) -> u16 {
    let mut c = Checksum::new();
    c.add_bytes(data);
    c.finish()
}

/// Pseudo-header checksum contribution for TCP/UDP over IPv4.
#[inline]
pub(crate) fn pseudo_header(src: [u8; 4], dst: [u8; 4], protocol: u8, l4_len: u16) -> Checksum {
    let mut c = Checksum::new();
    c.add_bytes(&src);
    c.add_bytes(&dst);
    c.add_u16(u16::from(protocol));
    c.add_u16(l4_len);
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rfc1071_example() {
        // Example adapted from RFC 1071 §3: words 0x0001, 0xf203, 0xf4f5, 0xf6f7.
        let data = [0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        assert_eq!(checksum(&data), !0xddf2);
    }

    #[test]
    fn zero_buffer_checksums_to_ffff() {
        assert_eq!(checksum(&[0u8; 20]), 0xffff);
    }

    #[test]
    fn odd_length_pads_with_zero() {
        // 0xab00 word after padding.
        assert_eq!(checksum(&[0xab]), !0xab00);
    }

    #[test]
    fn split_feeding_equals_one_shot() {
        let data: Vec<u8> = (0u16..100).map(|i| (i * 7 % 251) as u8).collect();
        let whole = checksum(&data);
        for split in 0..data.len() {
            let mut c = Checksum::new();
            c.add_bytes(&data[..split]);
            c.add_bytes(&data[split..]);
            assert_eq!(c.finish(), whole, "split at {split}");
        }
    }

    #[test]
    fn summing_around_a_field_equals_summing_it_as_zero() {
        let data: Vec<u8> = (0u16..61).map(|i| (i * 13 % 251) as u8 | 1).collect();
        for len in [2, 20, 33, 61] {
            for field in (0..len - 1).step_by(2) {
                let mut zeroed = data[..len].to_vec();
                zeroed[field] = 0;
                zeroed[field + 1] = 0;
                let mut c = Checksum::new();
                c.add_bytes_without(&data[..len], field);
                assert_eq!(c.finish(), checksum(&zeroed), "len {len} field {field}");
            }
        }
    }

    #[test]
    fn verifying_a_packet_with_its_checksum_yields_zero() {
        // A checksummed region including its own correct checksum sums to 0.
        let mut data = vec![0x45, 0x00, 0x01, 0x02, 0x00, 0x00, 0x11, 0x22];
        let sum = checksum(&data);
        data[4] = (sum >> 8) as u8;
        data[5] = (sum & 0xff) as u8;
        assert_eq!(checksum(&data), 0);
    }

    #[test]
    fn real_ipv4_header_checksum() {
        // Classic example header from Wikipedia's IPv4 article.
        let hdr = [
            0x45, 0x00, 0x00, 0x73, 0x00, 0x00, 0x40, 0x00, 0x40, 0x11, 0x00, 0x00, 0xc0, 0xa8,
            0x00, 0x01, 0xc0, 0xa8, 0x00, 0xc7,
        ];
        assert_eq!(checksum(&hdr), 0xb861);
    }
}
