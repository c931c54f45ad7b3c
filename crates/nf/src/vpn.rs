//! The VPN NF: "implements the tunnel mode of IPsec Authentication Header
//! (AH) protocol. It encrypts a packet based on the AES algorithm and
//! wraps it with an AH header" (§6.1).
//!
//! Encrypt direction: AES-CTR over the L4 payload, then an AH inserted
//! between the IPv4 header and L4, carrying an AES-CBC-MAC integrity tag.
//! Decrypt direction reverses both. (The paper's AH carries authentication
//! only; combining it with payload encryption follows the paper's own
//! description of its NF.)

use crate::aes::Aes128;
use crate::nf::{NetworkFunction, PacketView, Verdict};
use nfp_orchestrator::{ActionProfile, HeaderKind};
use nfp_packet::{ah, ipv4, FieldId};

/// Direction of the VPN endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VpnMode {
    /// Encrypt payload and add the AH.
    Encapsulate,
    /// Verify/strip the AH and decrypt the payload.
    Decapsulate,
}

/// AH tunnel-mode VPN endpoint.
pub struct Vpn {
    name: String,
    aes: Aes128,
    mode: VpnMode,
    spi: u32,
    seq: u32,
    /// Packets processed successfully.
    processed: u64,
    /// Packets that could not be processed (shared view, malformed, ICV
    /// mismatch) — passed through unmodified but counted.
    errors: u64,
}

impl core::fmt::Debug for Vpn {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Vpn")
            .field("name", &self.name)
            .field("mode", &self.mode)
            .field("spi", &self.spi)
            .field("processed", &self.processed)
            .finish_non_exhaustive()
    }
}

impl Vpn {
    /// Create a VPN endpoint.
    pub fn new(name: impl Into<String>, key: [u8; 16], spi: u32, mode: VpnMode) -> Self {
        Self {
            name: name.into(),
            aes: Aes128::new(&key),
            mode,
            spi,
            seq: 0,
            processed: 0,
            errors: 0,
        }
    }

    fn encapsulate(&mut self, pkt: &mut nfp_packet::Packet) -> Result<(), nfp_packet::PacketError> {
        let layers = pkt.parse()?;
        self.seq = self.seq.wrapping_add(1);
        let nonce = (u64::from(self.spi) << 32) | u64::from(self.seq);
        // Encrypt the payload in place.
        let payload = pkt.payload_mut()?;
        self.aes.ctr_apply(nonce, payload);
        // Compute the ICV over the encrypted L4 segment.
        let l4_start = layers.l4;
        let icv = self.aes.mac96(&pkt.data()[l4_start..]);
        // Insert the AH between IPv4 and L4.
        let next_header = layers.l4_proto;
        pkt.insert_bytes(l4_start, ah::HEADER_LEN)?;
        {
            let data = pkt.data_mut();
            ah::emit(&mut data[l4_start..], next_header, self.spi, self.seq, &icv)?;
            // Chain IPv4 → AH.
            data[14 + ipv4::offsets::PROTOCOL] = ipv4::PROTO_AH;
        }
        pkt.invalidate();
        pkt.sync_ip_total_len()?;
        Ok(())
    }

    fn decapsulate(&mut self, pkt: &mut nfp_packet::Packet) -> Result<(), nfp_packet::PacketError> {
        let layers = pkt.parse()?;
        let ah_off = layers.ah.ok_or(nfp_packet::PacketError::Malformed {
            what: "no AH to decapsulate",
        })?;
        let (spi, seq, next, icv) = {
            let view = ah::AhView::new(&pkt.data()[ah_off..])?;
            let mut icv = [0u8; ah::ICV_LEN];
            icv.copy_from_slice(view.icv());
            (view.spi(), view.seq(), view.next_header(), icv)
        };
        // Verify integrity over the (still encrypted) L4 segment.
        let expected = self.aes.mac96(&pkt.data()[layers.l4..]);
        if expected != icv {
            return Err(nfp_packet::PacketError::Malformed {
                what: "AH integrity check failed",
            });
        }
        // Strip the AH and restore the protocol chain.
        pkt.remove_bytes(ah_off..ah_off + ah::HEADER_LEN)?;
        {
            let data = pkt.data_mut();
            data[14 + ipv4::offsets::PROTOCOL] = next;
        }
        pkt.invalidate();
        pkt.sync_ip_total_len()?;
        // Decrypt the payload.
        let nonce = (u64::from(spi) << 32) | u64::from(seq);
        let payload = pkt.payload_mut()?;
        self.aes.ctr_apply(nonce, payload);
        Ok(())
    }
}

impl NetworkFunction for Vpn {
    fn name(&self) -> &str {
        &self.name
    }

    fn profile(&self) -> ActionProfile {
        // Table 2's VPN row: R SIP, R DIP, R/W payload, Add/Rm.
        let mut p = ActionProfile::new(self.name.clone())
            .reads([FieldId::Sip, FieldId::Dip])
            .reads_writes([FieldId::Payload])
            .adds_removes();
        p.add_rm_header = Some(HeaderKind::AuthHeader);
        p
    }

    fn process(&mut self, pkt: &mut PacketView<'_>) -> Verdict {
        // Structural changes require exclusive ownership; the graph
        // compiler guarantees Add/Rm NFs never share a packet copy.
        let Some(packet) = pkt.exclusive_mut() else {
            debug_assert!(false, "VPN scheduled on a shared packet view");
            self.errors += 1;
            return Verdict::Pass;
        };
        let result = match self.mode {
            VpnMode::Encapsulate => self.encapsulate(packet),
            VpnMode::Decapsulate => self.decapsulate(packet),
        };
        match result {
            Ok(()) => {
                self.processed += 1;
                Verdict::Pass
            }
            Err(_) => {
                self.errors += 1;
                match self.mode {
                    // A tampered/unauthenticated packet must not pass the
                    // decapsulating endpoint.
                    VpnMode::Decapsulate => Verdict::Drop,
                    VpnMode::Encapsulate => Verdict::Pass,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nf::testutil::*;

    const KEY: [u8; 16] = [0x42; 16];

    #[test]
    fn encapsulate_then_decapsulate_roundtrips() {
        let mut enc = Vpn::new("vpn-e", KEY, 0x1001, VpnMode::Encapsulate);
        let mut dec = Vpn::new("vpn-d", KEY, 0x1001, VpnMode::Decapsulate);
        let payload = b"the quick brown fox jumps over the lazy dog";
        let mut p = tcp_packet(ip(10, 0, 0, 1), ip(10, 0, 0, 2), 1234, 80, payload);
        let original = p.data().to_vec();

        assert_eq!(
            enc.process(&mut PacketView::Exclusive(&mut p)),
            Verdict::Pass
        );
        // Packet grew by the AH, payload no longer plaintext, proto = AH.
        assert_eq!(p.len(), original.len() + ah::HEADER_LEN);
        let layers = p.parse().unwrap();
        assert!(layers.ah.is_some());
        assert_ne!(p.payload().unwrap(), payload);

        assert_eq!(
            dec.process(&mut PacketView::Exclusive(&mut p)),
            Verdict::Pass
        );
        assert_eq!(p.payload().unwrap(), payload);
        assert_eq!(p.parse().unwrap().ah, None);
        assert_eq!(p.len(), original.len());
        assert_eq!((enc.processed, dec.processed), (1, 1));
    }

    #[test]
    fn tampered_packet_fails_integrity_and_drops() {
        let mut enc = Vpn::new("vpn-e", KEY, 7, VpnMode::Encapsulate);
        let mut dec = Vpn::new("vpn-d", KEY, 7, VpnMode::Decapsulate);
        let mut p = tcp_packet(ip(1, 1, 1, 1), ip(2, 2, 2, 2), 1, 2, b"sensitive data");
        enc.process(&mut PacketView::Exclusive(&mut p));
        // Flip one encrypted payload byte.
        let len = p.len();
        p.data_mut()[len - 1] ^= 0xff;
        assert_eq!(
            dec.process(&mut PacketView::Exclusive(&mut p)),
            Verdict::Drop
        );
        assert_eq!(dec.errors, 1);
    }

    #[test]
    fn wrong_key_fails() {
        let mut enc = Vpn::new("vpn-e", KEY, 7, VpnMode::Encapsulate);
        let mut dec = Vpn::new("vpn-d", [0x43; 16], 7, VpnMode::Decapsulate);
        let mut p = tcp_packet(ip(1, 1, 1, 1), ip(2, 2, 2, 2), 1, 2, b"data");
        enc.process(&mut PacketView::Exclusive(&mut p));
        assert_eq!(
            dec.process(&mut PacketView::Exclusive(&mut p)),
            Verdict::Drop
        );
    }

    #[test]
    fn decapsulate_without_ah_drops() {
        let mut dec = Vpn::new("vpn-d", KEY, 7, VpnMode::Decapsulate);
        let mut p = tcp_packet(ip(1, 1, 1, 1), ip(2, 2, 2, 2), 1, 2, b"plain");
        assert_eq!(
            dec.process(&mut PacketView::Exclusive(&mut p)),
            Verdict::Drop
        );
    }

    #[test]
    fn sequence_numbers_advance() {
        let mut enc = Vpn::new("vpn-e", KEY, 9, VpnMode::Encapsulate);
        let mut seqs = Vec::new();
        for _ in 0..3 {
            let mut p = tcp_packet(ip(1, 1, 1, 1), ip(2, 2, 2, 2), 1, 2, b"x");
            enc.process(&mut PacketView::Exclusive(&mut p));
            let layers = p.parse().unwrap();
            let view = ah::AhView::new(&p.data()[layers.ah.unwrap()..]).unwrap();
            assert_eq!(view.spi(), 9);
            seqs.push(view.seq());
        }
        assert_eq!(seqs, vec![1, 2, 3]);
    }

    #[test]
    fn udp_payload_roundtrips_too() {
        let mut enc = Vpn::new("vpn-e", KEY, 3, VpnMode::Encapsulate);
        let mut dec = Vpn::new("vpn-d", KEY, 3, VpnMode::Decapsulate);
        let mut p = udp_packet(ip(1, 1, 1, 1), ip(2, 2, 2, 2), 53, 53, b"dns query");
        enc.process(&mut PacketView::Exclusive(&mut p));
        dec.process(&mut PacketView::Exclusive(&mut p));
        assert_eq!(p.payload().unwrap(), b"dns query");
    }
}
