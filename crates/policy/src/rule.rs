//! Rule types of the NFP policy scheme.

use std::sync::Arc;

/// The name of a network function instance as it appears in policies
/// (e.g. `"Firewall"`, `"Monitor"`).
///
/// Names are case-sensitive and compared exactly; they are interned behind
/// an `Arc<str>` so policies and compiled graphs can clone them freely.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NfName(Arc<str>);

impl NfName {
    /// Create a name from any string-like value.
    pub fn new(name: impl AsRef<str>) -> Self {
        Self(Arc::from(name.as_ref()))
    }

    /// The name as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl From<&str> for NfName {
    fn from(s: &str) -> Self {
        Self::new(s)
    }
}

impl From<String> for NfName {
    fn from(s: String) -> Self {
        Self::new(s)
    }
}

impl core::fmt::Display for NfName {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(&self.0)
    }
}

/// Where a [`Rule::Position`] pins its NF.
///
/// "We can only assign an NF as the first or last one in the service graph"
/// (paper §3) — intermediate positions cannot be known before the optimized
/// graph structure exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PositionAnchor {
    /// The NF processes every packet before the rest of the graph.
    First,
    /// The NF processes every packet after the rest of the graph.
    Last,
}

impl core::fmt::Display for PositionAnchor {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(match self {
            PositionAnchor::First => "first",
            PositionAnchor::Last => "last",
        })
    }
}

/// One rule of an NFP policy (paper §3).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Rule {
    /// `Order(before, before, after)` — sequential composition intent; the
    /// orchestrator may convert it to a `Priority` when the pair proves
    /// parallelizable ("the NF with the back order is assigned a higher
    /// priority").
    Order {
        /// NF whose processing comes first.
        before: NfName,
        /// NF whose processing comes second.
        after: NfName,
    },
    /// `Priority(high > low)` — parallel execution intent; on conflicting
    /// actions the system adopts `high`'s result.
    Priority {
        /// NF whose result wins conflicts.
        high: NfName,
        /// NF whose conflicting actions are overridden.
        low: NfName,
    },
    /// `Position(nf, first|last)` — pin to the head or tail of the graph.
    Position {
        /// The pinned NF.
        nf: NfName,
        /// Head or tail.
        anchor: PositionAnchor,
    },
}

impl Rule {
    /// Convenience constructor for `Order(before, before, after)`.
    pub fn order(before: impl Into<NfName>, after: impl Into<NfName>) -> Self {
        Rule::Order {
            before: before.into(),
            after: after.into(),
        }
    }

    /// Convenience constructor for `Priority(high > low)`.
    pub fn priority(high: impl Into<NfName>, low: impl Into<NfName>) -> Self {
        Rule::Priority {
            high: high.into(),
            low: low.into(),
        }
    }

    /// Convenience constructor for `Position(nf, anchor)`.
    pub fn position(nf: impl Into<NfName>, anchor: PositionAnchor) -> Self {
        Rule::Position {
            nf: nf.into(),
            anchor,
        }
    }

    /// The NF names this rule mentions.
    pub(crate) fn nfs(&self) -> Vec<&NfName> {
        match self {
            Rule::Order { before, after } => vec![before, after],
            Rule::Priority { high, low } => vec![high, low],
            Rule::Position { nf, .. } => vec![nf],
        }
    }
}

impl core::fmt::Display for Rule {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Rule::Order { before, after } => write!(f, "Order({before}, before, {after})"),
            Rule::Priority { high, low } => write!(f, "Priority({high} > {low})"),
            Rule::Position { nf, anchor } => write!(f, "Position({nf}, {anchor})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_matches_paper_syntax() {
        assert_eq!(
            Rule::order("VPN", "Monitor").to_string(),
            "Order(VPN, before, Monitor)"
        );
        assert_eq!(
            Rule::priority("IPS", "Firewall").to_string(),
            "Priority(IPS > Firewall)"
        );
        assert_eq!(
            Rule::position("VPN", PositionAnchor::First).to_string(),
            "Position(VPN, first)"
        );
    }

    #[test]
    fn nfs_enumerates_mentions() {
        let r = Rule::order("A", "B");
        let names: Vec<_> = r.nfs().into_iter().map(|n| n.as_str().to_owned()).collect();
        assert_eq!(names, vec!["A", "B"]);
        assert_eq!(Rule::position("C", PositionAnchor::Last).nfs().len(), 1);
    }

    #[test]
    fn names_compare_by_content() {
        assert_eq!(NfName::new("FW"), NfName::from("FW"));
        assert_ne!(NfName::new("FW"), NfName::new("fw"));
    }
}
