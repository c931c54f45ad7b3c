//! The Figure 9 instrument: "we modify the Firewall NF so that it busily
//! loops for a given number of cycles after modifying the packet, allowing
//! us to vary the per-packet processing time as a representation of NF
//! complexity" (§6.2.2).

use crate::firewall::Firewall;
use crate::nf::{NetworkFunction, PacketView, Verdict};
use nfp_orchestrator::ActionProfile;
use nfp_packet::FieldId;
use std::hint::black_box;

/// A firewall that burns a configurable number of cycles per packet after
/// touching it, emulating NFs of varying complexity.
#[derive(Debug)]
pub struct CycleFirewall {
    inner: Firewall,
    cycles: u64,
}

impl CycleFirewall {
    /// Create with the paper's 100-rule synthetic ACL and `cycles` of
    /// busy work per packet.
    pub fn new(name: impl Into<String>, cycles: u64) -> Self {
        Self {
            inner: Firewall::with_synthetic_acl(name, 100),
            cycles,
        }
    }

    /// Burn approximately `cycles` CPU cycles (one cheap ALU op per
    /// iteration, kept opaque to the optimizer).
    fn burn(cycles: u64) {
        let mut acc = 0u64;
        for i in 0..cycles {
            acc = black_box(acc.wrapping_add(i ^ 0x9e37_79b9));
        }
        black_box(acc);
    }
}

impl NetworkFunction for CycleFirewall {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn profile(&self) -> ActionProfile {
        // "after modifying the packet": the Fig-9 variant writes the TOS
        // byte, making it a writer for copy-vs-no-copy experiments.
        ActionProfile::new(self.inner.name().to_string())
            .reads([FieldId::Sip, FieldId::Dip, FieldId::Sport, FieldId::Dport])
            .writes([FieldId::Tos])
            .drops()
    }

    fn process(&mut self, pkt: &mut PacketView<'_>) -> Verdict {
        let verdict = self.inner.process(pkt);
        if verdict == Verdict::Pass {
            let _ = pkt.write(FieldId::Tos, &[0x08]); // mark as inspected
        }
        Self::burn(self.cycles);
        verdict
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nf::testutil::*;
    use std::time::Instant;

    #[test]
    fn processes_like_a_firewall_and_marks_tos() {
        let mut nf = CycleFirewall::new("cfw", 10);
        let mut ok = tcp_packet(ip(1, 1, 1, 1), ip(2, 2, 2, 2), 1, 80, b"");
        assert_eq!(
            nf.process(&mut PacketView::Exclusive(&mut ok)),
            Verdict::Pass
        );
        assert_eq!(ok.field_bytes(FieldId::Tos).unwrap(), &[0x08]);
        let mut bad = tcp_packet(ip(1, 1, 1, 1), ip(172, 16, 9, 9), 1, 7009, b"");
        assert_eq!(
            nf.process(&mut PacketView::Exclusive(&mut bad)),
            Verdict::Drop
        );
    }

    #[test]
    fn more_cycles_takes_longer() {
        // Coarse monotonicity check with a large gap to avoid flakiness.
        let mut quick = CycleFirewall::new("q", 1);
        let mut slow = CycleFirewall::new("s", 2_000_000);
        let mut p = tcp_packet(ip(1, 1, 1, 1), ip(2, 2, 2, 2), 1, 2, b"");
        let t0 = Instant::now();
        quick.process(&mut PacketView::Exclusive(&mut p));
        let quick_t = t0.elapsed();
        let t1 = Instant::now();
        slow.process(&mut PacketView::Exclusive(&mut p));
        let slow_t = t1.elapsed();
        assert!(slow_t > quick_t, "{slow_t:?} <= {quick_t:?}");
    }
}
