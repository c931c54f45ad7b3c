//! Policies: ordered collections of rules plus construction helpers.

use crate::rule::{NfName, PositionAnchor, Rule};

/// An NFP policy: the rules an operator composed to describe one service
/// graph's chaining intent (paper §3, Table 1).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Policy {
    rules: Vec<Rule>,
}

impl Policy {
    /// An empty policy.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build a policy from rules.
    pub fn from_rules(rules: impl IntoIterator<Item = Rule>) -> Self {
        Self {
            rules: rules.into_iter().collect(),
        }
    }

    /// Convert a **traditional sequential chain** into an equivalent policy
    /// of `Order` rules — `Assign(VPN,1) … Assign(LB,4)` becomes
    /// `Order(VPN,before,Monitor), …` (paper Table 1, rows 1–2). This is how
    /// NFP stays compatible with operators who never write NFP policies.
    pub fn from_chain<I, N>(chain: I) -> Self
    where
        I: IntoIterator<Item = N>,
        N: Into<NfName>,
    {
        let nfs: Vec<NfName> = chain.into_iter().map(Into::into).collect();
        let rules = nfs
            .windows(2)
            .map(|w| Rule::Order {
                before: w[0].clone(),
                after: w[1].clone(),
            })
            .collect();
        let mut p = Self { rules };
        // A single-NF "chain" still needs the NF mentioned somewhere.
        if nfs.len() == 1 {
            p.rules.push(Rule::Position {
                nf: nfs[0].clone(),
                anchor: PositionAnchor::First,
            });
        }
        p
    }

    /// Append a rule (builder style).
    #[must_use]
    fn with(mut self, rule: Rule) -> Self {
        self.rules.push(rule);
        self
    }

    /// Append an `Order` rule (builder style).
    #[must_use]
    pub fn order(self, before: impl Into<NfName>, after: impl Into<NfName>) -> Self {
        self.with(Rule::order(before, after))
    }

    /// Append a `Priority` rule (builder style).
    #[must_use]
    pub fn priority(self, high: impl Into<NfName>, low: impl Into<NfName>) -> Self {
        self.with(Rule::priority(high, low))
    }

    /// Append a `Position` rule (builder style).
    #[must_use]
    pub fn position(self, nf: impl Into<NfName>, anchor: PositionAnchor) -> Self {
        self.with(Rule::position(nf, anchor))
    }

    /// The rules, in the order the operator wrote them.
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// Number of rules.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.rules.len()
    }

    /// True when the policy has no rules.
    #[cfg(test)]
    fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Every distinct NF the policy mentions, in first-mention order. The
    /// orchestrator also accepts *free NFs* (deployed but unmentioned);
    /// those are supplied separately at compile time.
    pub fn mentioned_nfs(&self) -> Vec<NfName> {
        let mut seen = Vec::new();
        for rule in &self.rules {
            for nf in rule.nfs() {
                if !seen.contains(nf) {
                    seen.push(nf.clone());
                }
            }
        }
        seen
    }
}

/// `Display` writes one rule per line in the paper's syntax, so a printed
/// policy is itself parseable by [`crate::parse_policy`].
impl core::fmt::Display for Policy {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        for (i, rule) in self.rules.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{rule}")?;
        }
        Ok(())
    }
}

impl FromIterator<Rule> for Policy {
    fn from_iter<T: IntoIterator<Item = Rule>>(iter: T) -> Self {
        Self::from_rules(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_chain_generates_windowed_orders() {
        // Paper Table 1 row 2: the north-south chain as Order rules.
        let p = Policy::from_chain(["VPN", "Monitor", "FW", "LB"]);
        assert_eq!(p.len(), 3);
        assert_eq!(p.rules()[0], Rule::order("VPN", "Monitor"));
        assert_eq!(p.rules()[1], Rule::order("Monitor", "FW"));
        assert_eq!(p.rules()[2], Rule::order("FW", "LB"));
    }

    #[test]
    fn single_nf_chain_yields_position() {
        let p = Policy::from_chain(["FW"]);
        assert_eq!(p.len(), 1);
        assert!(matches!(p.rules()[0], Rule::Position { .. }));
    }

    #[test]
    fn builder_composes() {
        // Paper Table 1 row 3: the NFP policy for the Figure 1(b) graph.
        let p = Policy::new()
            .position("VPN", PositionAnchor::First)
            .order("FW", "LB")
            .order("Monitor", "LB");
        assert_eq!(p.len(), 3);
        assert_eq!(
            p.mentioned_nfs()
                .iter()
                .map(|n| n.as_str())
                .collect::<Vec<_>>(),
            vec!["VPN", "FW", "LB", "Monitor"]
        );
    }

    #[test]
    fn display_roundtrips_through_parser() {
        let p = Policy::new()
            .position("VPN", PositionAnchor::First)
            .order("FW", "LB")
            .priority("IPS", "FW");
        let reparsed = crate::parse_policy(&p.to_string()).unwrap();
        assert_eq!(p, reparsed);
    }

    #[test]
    fn empty_policy() {
        let p = Policy::new();
        assert!(p.is_empty());
        assert!(p.mentioned_nfs().is_empty());
        assert_eq!(p.to_string(), "");
    }
}
