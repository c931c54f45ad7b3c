//! The IDS NF: "a simple NF similar to the core signature matching
//! component of the Snort intrusion detection system with 100 signature
//! inspection rules" (§6.1).
//!
//! The paper's compiled east-west graph keeps the IDS sequential in front
//! of the Monitor∥LB group, which implies the evaluated IDS runs *inline*
//! (it may drop); we default to inline mode and offer a passive (detect-
//! only) mode matching Table 2's read-only NIDS row.

use crate::aho::AhoCorasick;
use crate::nf::{NetworkFunction, PacketView, Verdict};
use crate::state::{FlowSnapshot, FlowTable};
use nfp_orchestrator::ActionProfile;
use nfp_packet::flow::FlowKey;
use nfp_packet::FieldId;

/// Per-flow inspection context: the stand-in for Snort's per-connection
/// stream state — how far into a flow we have scanned and what we found.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct FlowContext {
    /// Packets of this flow scanned.
    scanned: u64,
    /// Alerts raised on this flow.
    alerts: u64,
}

impl FlowContext {
    fn to_bytes(self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16);
        out.extend_from_slice(&self.scanned.to_be_bytes());
        out.extend_from_slice(&self.alerts.to_be_bytes());
        out
    }

    fn from_bytes(b: &[u8]) -> Option<Self> {
        if b.len() != 16 {
            return None;
        }
        Some(Self {
            scanned: u64::from_be_bytes(b[..8].try_into().ok()?),
            alerts: u64::from_be_bytes(b[8..].try_into().ok()?),
        })
    }
}

/// Whether the IDS sits inline (IPS: drops on match) or passively alerts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IdsMode {
    /// Drop packets whose payload matches a signature.
    Inline,
    /// Only count alerts; never drop.
    Passive,
}

/// Signature-matching IDS over an Aho–Corasick automaton.
#[derive(Debug)]
pub struct Ids {
    name: String,
    automaton: AhoCorasick,
    mode: IdsMode,
    /// Alerts raised (matched packets).
    alerts: u64,
    /// Packets scanned.
    scanned: u64,
    /// Per-flow inspection context (migrates with the flows).
    contexts: FlowTable<FlowContext>,
    scratch: Vec<u8>,
}

impl Ids {
    /// Create an IDS from explicit signatures.
    fn new<I, P>(name: impl Into<String>, signatures: I, mode: IdsMode) -> Self
    where
        I: IntoIterator<Item = P>,
        P: AsRef<[u8]>,
    {
        Self {
            name: name.into(),
            automaton: AhoCorasick::new(signatures),
            mode,
            alerts: 0,
            scanned: 0,
            contexts: FlowTable::new(),
            scratch: vec![0u8; nfp_packet::packet::CAPACITY],
        }
    }

    /// The paper's shape: 100 synthetic signatures.
    pub fn with_synthetic_signatures(name: impl Into<String>, n: usize, mode: IdsMode) -> Self {
        let sigs: Vec<String> = (0..n).map(|i| format!("EVIL{i:04}SIG")).collect();
        Self::new(name, sigs, mode)
    }

    /// Number of compiled signatures.
    #[cfg(test)]
    fn signature_count(&self) -> usize {
        self.automaton.pattern_count()
    }

    /// Number of flows with live inspection context.
    #[cfg(test)]
    fn tracked_flows(&self) -> usize {
        self.contexts.len()
    }

    /// Inspection context for one flow, if tracked.
    #[cfg(test)]
    fn flow_context(&self, key: &FlowKey) -> Option<FlowContext> {
        self.contexts.get(key).copied()
    }
}

impl NetworkFunction for Ids {
    fn name(&self) -> &str {
        &self.name
    }

    fn profile(&self) -> ActionProfile {
        let p = ActionProfile::new(self.name.clone()).reads([
            FieldId::Sip,
            FieldId::Dip,
            FieldId::Sport,
            FieldId::Dport,
            FieldId::Payload,
        ]);
        let p = p.stateful();
        match self.mode {
            IdsMode::Inline => p.drops(),
            IdsMode::Passive => p,
        }
    }

    fn process(&mut self, pkt: &mut PacketView<'_>) -> Verdict {
        self.scanned += 1;
        let key = match pkt.meta().flow() {
            Some(k) => Some(k),
            None => pkt
                .five_tuple()
                .ok()
                .map(|(sip, dip, sport, dport, proto)| FlowKey::new(sip, dip, sport, dport, proto)),
        };
        let n = match pkt.read_bytes(FieldId::Payload, &mut self.scratch) {
            Ok(n) => n,
            Err(_) => return Verdict::Pass, // header-only copies carry no payload
        };
        let matched = self.automaton.any_match(&self.scratch[..n]);
        if let Some(key) = key {
            let ctx = self.contexts.entry(key);
            ctx.scanned += 1;
            if matched {
                ctx.alerts += 1;
            }
        }
        if matched {
            self.alerts += 1;
            if self.mode == IdsMode::Inline {
                return Verdict::Drop;
            }
        }
        Verdict::Pass
    }

    fn stateful(&self) -> bool {
        true
    }

    fn snapshot_state(&self) -> FlowSnapshot {
        self.contexts.snapshot_with(&self.name, |c| c.to_bytes())
    }

    fn restore_state(&mut self, snap: &FlowSnapshot) {
        self.contexts.restore_with(snap, FlowContext::from_bytes);
    }

    fn bind_partition(&mut self, index: usize, total: usize) {
        self.contexts.bind_partition(index, total);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nf::testutil::*;

    #[test]
    fn inline_drops_on_signature() {
        let mut ids = Ids::with_synthetic_signatures("ids", 100, IdsMode::Inline);
        assert_eq!(ids.signature_count(), 100);
        let mut bad = tcp_packet(ip(1, 1, 1, 1), ip(2, 2, 2, 2), 1, 2, b"xxEVIL0031SIGxx");
        assert_eq!(
            ids.process(&mut PacketView::Exclusive(&mut bad)),
            Verdict::Drop
        );
        let mut good = tcp_packet(ip(1, 1, 1, 1), ip(2, 2, 2, 2), 1, 2, b"hello world");
        assert_eq!(
            ids.process(&mut PacketView::Exclusive(&mut good)),
            Verdict::Pass
        );
        assert_eq!(ids.alerts, 1);
        assert_eq!(ids.scanned, 2);
    }

    #[test]
    fn passive_alerts_without_dropping() {
        let mut ids = Ids::with_synthetic_signatures("ids", 10, IdsMode::Passive);
        let mut bad = tcp_packet(ip(1, 1, 1, 1), ip(2, 2, 2, 2), 1, 2, b"EVIL0001SIG");
        assert_eq!(
            ids.process(&mut PacketView::Exclusive(&mut bad)),
            Verdict::Pass
        );
        assert_eq!(ids.alerts, 1);
    }

    #[test]
    fn profile_tracks_mode() {
        let inline = Ids::with_synthetic_signatures("a", 1, IdsMode::Inline);
        assert!(inline.profile().has_drop());
        let passive = Ids::with_synthetic_signatures("b", 1, IdsMode::Passive);
        assert!(!passive.profile().has_drop());
        assert!(passive.profile().read_mask().contains(FieldId::Payload));
    }

    #[test]
    fn flow_context_survives_migration() {
        let mut ids = Ids::with_synthetic_signatures("ids", 10, IdsMode::Passive);
        for _ in 0..3 {
            let mut p = tcp_packet(ip(1, 1, 1, 1), ip(2, 2, 2, 2), 7, 8, b"EVIL0001SIG");
            ids.process(&mut PacketView::Exclusive(&mut p));
        }
        let mut clean = tcp_packet(ip(1, 1, 1, 1), ip(2, 2, 2, 2), 9, 8, b"ok");
        ids.process(&mut PacketView::Exclusive(&mut clean));
        assert_eq!(ids.tracked_flows(), 2);

        let snap = ids.snapshot_state();
        let mut moved = Ids::with_synthetic_signatures("ids", 10, IdsMode::Passive);
        moved.restore_state(&snap);
        let key = FlowKey::new(ip(1, 1, 1, 1), ip(2, 2, 2, 2), 7, 8, 6);
        let ctx = moved.flow_context(&key).unwrap();
        assert_eq!(ctx.scanned, 3);
        assert_eq!(ctx.alerts, 3);
    }

    #[test]
    fn empty_payload_is_clean() {
        let mut ids = Ids::with_synthetic_signatures("ids", 5, IdsMode::Inline);
        let mut p = tcp_packet(ip(1, 1, 1, 1), ip(2, 2, 2, 2), 1, 2, b"");
        assert_eq!(
            ids.process(&mut PacketView::Exclusive(&mut p)),
            Verdict::Pass
        );
        assert_eq!(ids.alerts, 0);
    }
}
