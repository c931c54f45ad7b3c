//! The NF Parallelism Identification algorithm — paper Algorithm 1.
//!
//! Input: an ordered NF pair (`Order(NF1, before, NF2)` or the low→high
//! direction of a `Priority` rule). Output: whether the pair is
//! parallelizable and, if so, the list of *conflicting actions* whose
//! existence "indicates the necessity of packet copying".

use crate::action::{Action, ActionKind, ActionProfile};
use crate::deps::{DependencyTable, Parallelism};

/// Options controlling the identification.
#[derive(Debug, Clone, Copy)]
pub struct IdentifyOptions {
    /// OP#1 **Dirty Memory Reusing**: when two NFs read/write *different*
    /// fields they may share one packet copy. "If a network operator cares
    /// little about resource consumption… this feature could be switched
    /// off" (§4.2) — with it off, every read-write/write-write pair counts
    /// as conflicting and forces a copy.
    pub dirty_memory_reusing: bool,
}

impl Default for IdentifyOptions {
    fn default() -> Self {
        Self {
            dirty_memory_reusing: true,
        }
    }
}

/// Which rule type asked for the analysis.
///
/// An explicit `Priority` rule is the operator saying "parallelize these
/// two and resolve conflicts in my favourite's favour" — so gray verdicts
/// caused purely by *drop* actions are overridden (the priority itself is
/// the conflict resolution, paper §3's `Priority(IPS > Firewall)`). Gray
/// verdicts with no defined resolution (write→read, add/rm) are never
/// overridden.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub(crate) enum PairContext {
    /// Derived from an `Order` rule (or an unrelated pair the compiler
    /// probes): strict result-correctness analysis.
    #[default]
    Order,
    /// Derived from an explicit `Priority` rule: drop conflicts are
    /// operator-sanctioned.
    Priority,
}

/// Result of Algorithm 1 for one ordered NF pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PairAnalysis {
    /// `p` in the paper: can the two NFs run in parallel at all?
    pub parallelizable: bool,
    /// `ca` in the paper: the action pairs that conflict; non-empty means a
    /// packet copy (and merge operations) are required.
    pub conflicting_actions: Vec<(Action, Action)>,
    /// True when the pair has a drop conflict that a `Priority` rule
    /// resolved (merge-time resolution, no copy needed).
    pub(crate) drop_conflict: bool,
}

impl PairAnalysis {
    /// True when parallel execution requires a packet copy.
    pub(crate) fn needs_copy(&self) -> bool {
        self.parallelizable && !self.conflicting_actions.is_empty()
    }

    /// Paper-style verdict classification (the three Table 3 colours).
    pub fn verdict(&self) -> Parallelism {
        if !self.parallelizable {
            Parallelism::NotParallelizable
        } else if self.conflicting_actions.is_empty() {
            Parallelism::ParallelizableNoCopy
        } else {
            Parallelism::ParallelizableWithCopy
        }
    }
}

/// Run Algorithm 1 on `Order(nf1, before, nf2)`.
///
/// Line-by-line correspondence with the paper's listing:
/// * lines 1–2 — the action lists are the profiles' `actions`;
/// * line 5 — exhaustive iteration over the cartesian product;
/// * lines 6–9 — read-write / write-write pairs are field-refined: same
///   field ⇒ conflicting action (copy), different fields ⇒ no constraint
///   (Dirty Memory Reusing);
/// * lines 10–17 — everything else consults the dependency table; a gray
///   cell aborts with `parallelizable = false`, an orange cell records the
///   conflicting pair.
pub fn identify(
    nf1: &ActionProfile,
    nf2: &ActionProfile,
    dt: &DependencyTable,
    opts: IdentifyOptions,
) -> PairAnalysis {
    identify_in(nf1, nf2, dt, opts, PairContext::Order)
}

/// [`identify`] with an explicit rule context (see [`PairContext`]).
pub(crate) fn identify_in(
    nf1: &ActionProfile,
    nf2: &ActionProfile,
    dt: &DependencyTable,
    opts: IdentifyOptions,
    ctx: PairContext,
) -> PairAnalysis {
    let mut ca = Vec::new();
    let mut drop_conflict = false;
    for &a1 in &nf1.actions {
        for &a2 in &nf2.actions {
            let rw_case = matches!(
                (a1.kind, a2.kind),
                (ActionKind::Read, ActionKind::Write) | (ActionKind::Write, ActionKind::Write)
            );
            if rw_case {
                let same_field = match (a1.field, a2.field) {
                    (Some(f1), Some(f2)) => f1 == f2,
                    // Field-less read/write never occurs in practice, but
                    // treat it conservatively as overlapping.
                    _ => true,
                };
                if same_field || !opts.dirty_memory_reusing {
                    ca.push((a1, a2));
                }
                continue;
            }
            match dt.lookup(a1.kind, a2.kind) {
                Parallelism::NotParallelizable => {
                    // A Priority rule overrides drop-caused grays: the
                    // operator supplied the conflict resolution.
                    let drop_caused = a1.kind == ActionKind::Drop;
                    if ctx == PairContext::Priority && drop_caused {
                        drop_conflict = true;
                        continue;
                    }
                    return PairAnalysis {
                        parallelizable: false,
                        conflicting_actions: Vec::new(),
                        drop_conflict: false,
                    };
                }
                Parallelism::ParallelizableNoCopy => {}
                Parallelism::ParallelizableWithCopy => ca.push((a1, a2)),
            }
        }
    }
    PairAnalysis {
        parallelizable: true,
        conflicting_actions: ca,
        drop_conflict,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table2::Registry;
    use nfp_packet::FieldId;

    fn run(nf1: &str, nf2: &str) -> PairAnalysis {
        let r = Registry::paper_table2();
        identify(
            r.get(nf1).unwrap(),
            r.get(nf2).unwrap(),
            &DependencyTable::paper_table3(),
            IdentifyOptions::default(),
        )
    }

    #[test]
    fn monitor_then_firewall_parallel_no_copy() {
        // The Figure 1 optimization: Monitor ∥ Firewall with zero overhead.
        let a = run("Monitor", "Firewall");
        assert_eq!(a.verdict(), Parallelism::ParallelizableNoCopy);
    }

    #[test]
    fn monitor_then_lb_needs_copy() {
        // The east-west chain: Monitor reads SIP/DIP that the LB rewrites —
        // parallelizable with a (header-only) copy, the paper's 8.8%.
        let a = run("Monitor", "LoadBalancer");
        assert_eq!(a.verdict(), Parallelism::ParallelizableWithCopy);
        assert!(a.needs_copy());
        // The conflicts are exactly the read-write collisions on sip/dip.
        for (a1, a2) in &a.conflicting_actions {
            assert_eq!(a1.kind, ActionKind::Read);
            assert_eq!(a2.kind, ActionKind::Write);
            assert!(matches!(a1.field, Some(FieldId::Sip) | Some(FieldId::Dip)));
            assert_eq!(a1.field, a2.field);
        }
        assert_eq!(a.conflicting_actions.len(), 2);
    }

    #[test]
    fn lb_then_monitor_not_parallelizable() {
        // Reverse direction: the Monitor must observe the LB's rewrite.
        let a = run("LoadBalancer", "Monitor");
        assert!(!a.parallelizable);
    }

    #[test]
    fn nat_then_lb_not_parallelizable() {
        // "If the operator inputs an Order(NAT, before, LB), the
        // orchestrator is challenged" — NAT writes DIP that LB reads.
        let a = run("NAT", "LoadBalancer");
        assert!(!a.parallelizable);
    }

    #[test]
    fn vpn_then_anything_sequential() {
        // Add/Rm in NF1 forces sequencing (header structure changes).
        for nf2 in ["Firewall", "Monitor", "NIDS", "LoadBalancer"] {
            assert!(!run("VPN", nf2).parallelizable, "VPN -> {nf2}");
        }
    }

    #[test]
    fn reader_then_vpn_needs_copy() {
        // (Read, Add/Rm) is orange: the VPN restructures its own copy.
        // (A drop-capable reader like the Firewall is blocked by the Drop
        // row instead.)
        let a = run("Monitor", "VPN");
        assert_eq!(a.verdict(), Parallelism::ParallelizableWithCopy);
    }

    #[test]
    fn two_readers_no_copy() {
        let a = run("NIDS", "Caching");
        assert_eq!(a.verdict(), Parallelism::ParallelizableNoCopy);
    }

    #[test]
    fn firewall_ips_drop_conflict_needs_priority_rule() {
        // Two drop-capable NFs: under an Order rule the drop dependency is
        // gray; under an explicit Priority rule it parallelizes copylessly
        // with the conflict resolved by priority at merge time (paper §3).
        let r = Registry::paper_table2();
        let ips = crate::action::ActionProfile::new("IPS")
            .reads([
                FieldId::Sip,
                FieldId::Dip,
                FieldId::Sport,
                FieldId::Dport,
                FieldId::Payload,
            ])
            .drops();
        let dt = DependencyTable::paper_table3();
        let ordered = identify(
            r.get("Firewall").unwrap(),
            &ips,
            &dt,
            IdentifyOptions::default(),
        );
        assert!(!ordered.parallelizable);
        let forced = identify_in(
            r.get("Firewall").unwrap(),
            &ips,
            &dt,
            IdentifyOptions::default(),
            PairContext::Priority,
        );
        assert_eq!(forced.verdict(), Parallelism::ParallelizableNoCopy);
        assert!(forced.drop_conflict);
    }

    #[test]
    fn priority_does_not_override_write_read_gray() {
        // Priority can resolve drop disagreements, not data dependencies.
        let r = Registry::paper_table2();
        let dt = DependencyTable::paper_table3();
        let a = identify_in(
            r.get("LoadBalancer").unwrap(),
            r.get("Monitor").unwrap(),
            &dt,
            IdentifyOptions::default(),
            PairContext::Priority,
        );
        assert!(!a.parallelizable);
    }

    #[test]
    fn firewall_then_lb_blocked_by_drop_row() {
        // The north-south chain's Order(FW, before, LB) stays sequential —
        // exactly why the paper reports 0% overhead for that chain.
        let a = run("Firewall", "LoadBalancer");
        assert!(!a.parallelizable);
    }

    #[test]
    fn dirty_memory_reusing_off_forces_copies() {
        // Writers of *different* fields share a copy only under OP#1.
        let w1 = ActionProfile::new("W1").writes([FieldId::Sip]);
        let w2 = ActionProfile::new("W2").writes([FieldId::Dport]);
        let dt = DependencyTable::paper_table3();
        let on = identify(&w1, &w2, &dt, IdentifyOptions::default());
        assert_eq!(on.verdict(), Parallelism::ParallelizableNoCopy);
        let off = identify(
            &w1,
            &w2,
            &dt,
            IdentifyOptions {
                dirty_memory_reusing: false,
            },
        );
        assert_eq!(off.verdict(), Parallelism::ParallelizableWithCopy);
    }

    #[test]
    fn empty_profile_parallelizes_with_everything() {
        // The traffic shaper has no packet actions at all.
        for nf2 in ["Firewall", "VPN", "NAT"] {
            let a = run("TrafficShaper", nf2);
            assert_eq!(a.verdict(), Parallelism::ParallelizableNoCopy, "{nf2}");
            let b = run(nf2, "TrafficShaper");
            assert_eq!(b.verdict(), Parallelism::ParallelizableNoCopy, "{nf2} fwd");
        }
    }
}
