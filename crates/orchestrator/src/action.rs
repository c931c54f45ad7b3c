//! The NF action model.
//!
//! "NFs may perform various actions on packets including Reading or Writing
//! headers or payloads, Adding or Removing header fields, and Dropping
//! packets" (paper §4.1). An NF's behaviour, for dependency-analysis
//! purposes, is its set of [`Action`]s — its *action profile*.

use nfp_packet::{FieldId, FieldMask};

/// Headers NFs can add/remove and the merger knows how to graft (paper
/// §5.3 uses the IPsec Authentication Header as its example; the set is
/// extensible).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HeaderKind {
    /// IPsec Authentication Header, inserted between IPv4 and L4.
    AuthHeader,
}

/// What the dataplane should do with traffic addressed to an NF that has
/// failed (panicked or stopped making progress).
///
/// Chain specifications distinguish NFs that may be skipped from NFs that
/// must not be (arXiv:1406.1058); NFP-rs encodes that distinction per NF
/// type. A security-critical NF (firewall, inline IDS, VPN) *fails
/// closed*: packets that would have traversed it are dropped, because
/// forwarding unvetted (or unencrypted) traffic is worse than losing it.
/// A best-effort NF (monitor, compressor) *fails open*: packets bypass it
/// unmodified and the chain keeps delivering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FailurePolicy {
    /// Bypass the failed NF: packets continue unmodified (best-effort
    /// NFs — losing the side effect beats losing the traffic).
    #[default]
    FailOpen,
    /// Drop packets addressed to the failed NF (security-critical NFs —
    /// losing the traffic beats forwarding it unvetted).
    FailClosed,
}

impl core::fmt::Display for FailurePolicy {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(match self {
            FailurePolicy::FailOpen => "fail-open",
            FailurePolicy::FailClosed => "fail-closed",
        })
    }
}

/// The four action categories of the paper's Tables 2 and 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum ActionKind {
    /// Read a packet field.
    Read,
    /// Write (modify) a packet field.
    Write,
    /// Add headers to or remove headers from the packet.
    AddRm,
    /// Drop the packet.
    Drop,
}

impl ActionKind {
    /// All four kinds, for table iteration.
    #[cfg(test)]
    pub(crate) const ALL: [ActionKind; 4] = [
        ActionKind::Read,
        ActionKind::Write,
        ActionKind::AddRm,
        ActionKind::Drop,
    ];
}

impl core::fmt::Display for ActionKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(match self {
            ActionKind::Read => "read",
            ActionKind::Write => "write",
            ActionKind::AddRm => "add/rm",
            ActionKind::Drop => "drop",
        })
    }
}

/// One concrete action an NF performs. `Read`/`Write` carry the field they
/// operate on — that is what makes the Dirty Memory Reusing refinement
/// ("if two NFs modify different fields…") possible.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Action {
    /// The action category.
    pub(crate) kind: ActionKind,
    /// The field a `Read`/`Write` touches; `None` for `AddRm` and `Drop`.
    pub field: Option<FieldId>,
}

impl Action {
    /// A read of `field`.
    pub fn read(field: FieldId) -> Self {
        Self {
            kind: ActionKind::Read,
            field: Some(field),
        }
    }

    /// A write of `field`.
    pub fn write(field: FieldId) -> Self {
        Self {
            kind: ActionKind::Write,
            field: Some(field),
        }
    }

    /// A header addition/removal.
    pub fn add_rm() -> Self {
        Self {
            kind: ActionKind::AddRm,
            field: None,
        }
    }

    /// A (possible) packet drop.
    pub fn drop() -> Self {
        Self {
            kind: ActionKind::Drop,
            field: None,
        }
    }
}

impl core::fmt::Display for Action {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self.field {
            Some(field) => write!(f, "{}({field})", self.kind),
            None => write!(f, "{}", self.kind),
        }
    }
}

/// An NF's action profile: the row it would occupy in the paper's Table 2.
///
/// Profiles are produced either by hand, by the built-in table
/// (`crate::table2`), or by the NF inspector in `nfp-nf` (§5.4), and are
/// the sole input Algorithm 1 needs about an NF.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ActionProfile {
    /// NF type name (matches policy NF names by convention).
    pub nf_type: String,
    /// The actions this NF may perform.
    pub actions: Vec<Action>,
    /// When the profile contains `AddRm`: which header the NF adds or
    /// removes, so the graph compiler can emit the matching merge
    /// operation (`add(v2.AH, after, v1.IP)`).
    pub add_rm_header: Option<HeaderKind>,
    /// Explicit failure policy, when the operator pinned one. `None`
    /// means "derive it": see `ActionProfile::failure_policy`.
    pub failure: Option<FailurePolicy>,
    /// True when the NF keeps per-flow state that must migrate with its
    /// flows across shard-count changes (NAT bindings, LB pins, monitor
    /// counters, IDS stream context). Stateless NFs can be rebuilt from
    /// their config alone; stateful ones need the dataplane to export,
    /// re-partition, and import their flow snapshots during a rescale.
    pub per_flow_state: bool,
}

impl ActionProfile {
    /// Create an empty profile for `nf_type`.
    pub fn new(nf_type: impl Into<String>) -> Self {
        Self {
            nf_type: nf_type.into(),
            actions: Vec::new(),
            add_rm_header: None,
            failure: None,
            per_flow_state: false,
        }
    }

    /// Builder: record reads of every field in `fields`.
    #[must_use]
    pub fn reads<I: IntoIterator<Item = FieldId>>(mut self, fields: I) -> Self {
        for f in fields {
            self.push(Action::read(f));
        }
        self
    }

    /// Builder: record writes of every field in `fields` (a `R/W` cell in
    /// Table 2 is a read plus a write).
    #[must_use]
    pub fn writes<I: IntoIterator<Item = FieldId>>(mut self, fields: I) -> Self {
        for f in fields {
            self.push(Action::write(f));
        }
        self
    }

    /// Builder: record reads *and* writes (`R/W` cells).
    #[must_use]
    pub fn reads_writes<I: IntoIterator<Item = FieldId>>(mut self, fields: I) -> Self {
        for f in fields {
            self.push(Action::read(f));
            self.push(Action::write(f));
        }
        self
    }

    /// Builder: record header addition/removal.
    #[must_use]
    pub fn adds_removes(mut self) -> Self {
        self.push(Action::add_rm());
        if self.add_rm_header.is_none() {
            self.add_rm_header = Some(HeaderKind::AuthHeader);
        }
        self
    }

    /// Builder: record that the NF may drop packets.
    #[must_use]
    pub fn drops(mut self) -> Self {
        self.push(Action::drop());
        self
    }

    /// Builder: mark the NF as keeping per-flow state (see
    /// [`ActionProfile::per_flow_state`]).
    #[must_use]
    pub fn stateful(mut self) -> Self {
        self.per_flow_state = true;
        self
    }

    /// Builder: pin the failure policy to fail-open (bypass on failure),
    /// overriding the drop-capability heuristic.
    #[must_use]
    pub fn fail_open(mut self) -> Self {
        self.failure = Some(FailurePolicy::FailOpen);
        self
    }

    /// Builder: pin the failure policy to fail-closed (drop on failure),
    /// overriding the drop-capability heuristic.
    #[must_use]
    pub fn fail_closed(mut self) -> Self {
        self.failure = Some(FailurePolicy::FailClosed);
        self
    }

    /// Add a single action, deduplicating.
    pub fn push(&mut self, action: Action) {
        if !self.actions.contains(&action) {
            self.actions.push(action);
        }
    }

    /// Mask of fields this NF reads.
    pub fn read_mask(&self) -> FieldMask {
        self.actions
            .iter()
            .filter(|a| a.kind == ActionKind::Read)
            .filter_map(|a| a.field)
            .collect()
    }

    /// Mask of fields this NF writes.
    pub fn write_mask(&self) -> FieldMask {
        self.actions
            .iter()
            .filter(|a| a.kind == ActionKind::Write)
            .filter_map(|a| a.field)
            .collect()
    }

    /// True if the NF adds/removes headers.
    pub fn has_add_rm(&self) -> bool {
        self.actions.iter().any(|a| a.kind == ActionKind::AddRm)
    }

    /// True if the NF may drop packets.
    pub fn has_drop(&self) -> bool {
        self.actions.iter().any(|a| a.kind == ActionKind::Drop)
    }

    /// True if the NF never modifies packets (no writes, no add/rm).
    pub fn is_read_only(&self) -> bool {
        self.write_mask().is_empty() && !self.has_add_rm()
    }

    /// The resolved failure policy: the pinned value when one was set,
    /// otherwise derived from the action profile — an NF that may *drop*
    /// packets is enforcing something, so it fails closed; everything
    /// else fails open.
    pub(crate) fn failure_policy(&self) -> FailurePolicy {
        self.failure.unwrap_or(if self.has_drop() {
            FailurePolicy::FailClosed
        } else {
            FailurePolicy::FailOpen
        })
    }
}

impl core::fmt::Display for ActionProfile {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}:", self.nf_type)?;
        for a in &self.actions {
            write!(f, " {a}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_deduplicates() {
        let p = ActionProfile::new("X")
            .reads([FieldId::Sip, FieldId::Sip])
            .reads_writes([FieldId::Sip]);
        assert_eq!(p.actions.len(), 2); // read(sip), write(sip)
    }

    #[test]
    fn masks_reflect_actions() {
        let p = ActionProfile::new("LB")
            .reads_writes([FieldId::Sip, FieldId::Dip])
            .reads([FieldId::Sport, FieldId::Dport]);
        assert_eq!(
            p.read_mask(),
            FieldMask::from_fields([FieldId::Sip, FieldId::Dip, FieldId::Sport, FieldId::Dport])
        );
        assert_eq!(
            p.write_mask(),
            FieldMask::from_fields([FieldId::Sip, FieldId::Dip])
        );
        assert!(!p.is_read_only());
    }

    #[test]
    fn read_only_detection() {
        let monitor = ActionProfile::new("Monitor").reads(FieldId::TABLE2);
        assert!(monitor.is_read_only());
        assert!(!monitor.has_drop());
        let fw = ActionProfile::new("FW").reads([FieldId::Sip]).drops();
        assert!(fw.is_read_only()); // drops but never modifies
        assert!(fw.has_drop());
        let vpn = ActionProfile::new("VPN").adds_removes();
        assert!(!vpn.is_read_only());
        assert!(vpn.has_add_rm());
    }

    #[test]
    fn display_is_compact() {
        let p = ActionProfile::new("FW").reads([FieldId::Sip]).drops();
        assert_eq!(p.to_string(), "FW: read(sip) drop");
    }

    #[test]
    fn statefulness_is_off_by_default_and_opt_in() {
        let fw = ActionProfile::new("FW").reads([FieldId::Sip]).drops();
        assert!(!fw.per_flow_state);
        let nat = ActionProfile::new("NAT")
            .reads_writes([FieldId::Sip, FieldId::Sport])
            .stateful();
        assert!(nat.per_flow_state);
    }

    #[test]
    fn failure_policy_derived_from_drop_capability() {
        let fw = ActionProfile::new("FW").reads([FieldId::Sip]).drops();
        assert_eq!(fw.failure_policy(), FailurePolicy::FailClosed);
        let monitor = ActionProfile::new("Monitor").reads(FieldId::TABLE2);
        assert_eq!(monitor.failure_policy(), FailurePolicy::FailOpen);
    }

    #[test]
    fn pinned_failure_policy_overrides_heuristic() {
        // A VPN never drops, but fail-open would forward plaintext.
        let vpn = ActionProfile::new("VPN").adds_removes().fail_closed();
        assert_eq!(vpn.failure_policy(), FailurePolicy::FailClosed);
        // An operator may declare a permissive firewall bypassable.
        let fw = ActionProfile::new("FW").drops().fail_open();
        assert_eq!(fw.failure_policy(), FailurePolicy::FailOpen);
    }
}
