//! The built-in NF action table — paper Table 2 — and the profile registry.
//!
//! "NFP orchestrator maintains an NF action table (AT, i.e. Table 2)…
//! To accommodate a new NF into NFP, network operators could generate an
//! action profile of the NF manually or with the analysis tool provided by
//! NFP, and register it into Table 2." (§4.3/§5.4)

use crate::action::ActionProfile;
use nfp_packet::FieldId;
use std::collections::HashMap;

/// A Table 2 row: an NF action profile plus its share of enterprise
/// deployments (where the paper reports one).
#[derive(Debug, Clone)]
pub(crate) struct TableEntry {
    /// The action profile.
    profile: ActionProfile,
    /// Deployment share in enterprise networks, as a fraction (0.26 for
    /// "26%"); `None` for rows the paper lists without a percentage.
    pub(crate) deployment_share: Option<f64>,
}

/// The NF action table (AT): profiles keyed by NF type name.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    entries: HashMap<String, TableEntry>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The paper's Table 2, transcribed row by row.
    ///
    /// Columns are SIP/DIP/SPORT/DPORT/Payload (R, W or R/W), Add/Rm and
    /// Drop. Two rows print ambiguously in the paper (Gateway's and
    /// Caching's `R` cells are not column-aligned in the text); we adopt
    /// the most semantically sensible reading and note it per row.
    pub fn paper_table2() -> Self {
        let mut r = Self::new();
        // Firewall (iptables, 26%): reads the 4-tuple, may drop.
        r.register_with_share(
            ActionProfile::new("Firewall")
                .reads([FieldId::Sip, FieldId::Dip, FieldId::Sport, FieldId::Dport])
                .drops(),
            Some(0.26),
        );
        // NIDS (NIDS cluster, 20%): reads the 4-tuple and the payload.
        // Stateful: per-flow stream/inspection context.
        r.register_with_share(
            ActionProfile::new("NIDS")
                .reads([
                    FieldId::Sip,
                    FieldId::Dip,
                    FieldId::Sport,
                    FieldId::Dport,
                    FieldId::Payload,
                ])
                .stateful(),
            Some(0.20),
        );
        // Gateway (Cisco MGX, 19%): two `R` cells — read SIP and DIP.
        r.register_with_share(
            ActionProfile::new("Gateway").reads([FieldId::Sip, FieldId::Dip]),
            Some(0.19),
        );
        // Load Balance (F5/A10, 10%): R/W on SIP and DIP, reads ports.
        // Stateful: flow → backend pins.
        r.register_with_share(
            ActionProfile::new("LoadBalancer")
                .reads_writes([FieldId::Sip, FieldId::Dip])
                .reads([FieldId::Sport, FieldId::Dport])
                .stateful(),
            Some(0.10),
        );
        // Caching (Nginx, 10%): three `R` cells — read DIP, DPORT and the
        // payload (the request URL).
        r.register_with_share(
            ActionProfile::new("Caching").reads([FieldId::Dip, FieldId::Dport, FieldId::Payload]),
            Some(0.10),
        );
        // VPN (OpenVPN, 7%): reads SIP/DIP, R/W payload (encryption),
        // adds/removes headers (AH encapsulation). Never drops, but must
        // fail closed anyway: bypassing a failed VPN would forward
        // plaintext onto the encrypted path.
        r.register_with_share(
            ActionProfile::new("VPN")
                .reads([FieldId::Sip, FieldId::Dip])
                .reads_writes([FieldId::Payload])
                .adds_removes()
                .fail_closed(),
            Some(0.07),
        );
        // NAT (iptables): R/W on the full 4-tuple. Stateful: flow →
        // external-port bindings.
        r.register(
            ActionProfile::new("NAT")
                .reads_writes([FieldId::Sip, FieldId::Dip, FieldId::Sport, FieldId::Dport])
                .stateful(),
        );
        // Proxy (Squid): R/W on SIP and DIP.
        r.register(ActionProfile::new("Proxy").reads_writes([FieldId::Sip, FieldId::Dip]));
        // Compression (Cisco IOS): R/W on the payload.
        r.register(ActionProfile::new("Compression").reads_writes([FieldId::Payload]));
        // Traffic Shaper (Linux tc): delays packets, touches nothing.
        r.register(ActionProfile::new("TrafficShaper"));
        // Monitor (NetFlow): reads the 4-tuple. Stateful: per-flow
        // counters.
        r.register(
            ActionProfile::new("Monitor")
                .reads([FieldId::Sip, FieldId::Dip, FieldId::Sport, FieldId::Dport])
                .stateful(),
        );
        r
    }

    /// The registry every runnable NF compiles against: Table 2 plus the
    /// three NF types the §6.1 evaluation adds. Each row names one arm of
    /// `nfp_nf::catalogue::make`, which builds the instance that runs.
    pub fn evaluated() -> Self {
        let mut r = Self::paper_table2();
        // The L3 forwarder decrements the TTL and drops on expiry.
        r.register(
            ActionProfile::new("Forwarder")
                .reads([FieldId::Dip, FieldId::Ttl])
                .writes([FieldId::Dmac, FieldId::Smac, FieldId::Ttl])
                .drops(),
        );
        let mut lb = r.entries["LoadBalancer"].profile.clone();
        lb.nf_type = "LB".into();
        r.register(lb);
        // The evaluated IDS is inline (Snort-like): unlike Table 2's
        // read-only NIDS it can drop, so it fails closed by default, and
        // that drop is what keeps it sequential in the paper's east-west
        // graph.
        let mut ids = r.entries["NIDS"].profile.clone().drops();
        ids.nf_type = "IDS".into();
        r.register(ids);
        r
    }

    /// Register (or replace) a profile without deployment share.
    pub fn register(&mut self, profile: ActionProfile) {
        self.register_with_share(profile, None);
    }

    /// Register (or replace) a profile with a deployment share.
    fn register_with_share(&mut self, profile: ActionProfile, share: Option<f64>) {
        self.entries.insert(
            profile.nf_type.clone(),
            TableEntry {
                profile,
                deployment_share: share,
            },
        );
    }

    /// Look up a profile by NF type name.
    pub fn get(&self, nf_type: &str) -> Option<&ActionProfile> {
        self.entries.get(nf_type).map(|e| &e.profile)
    }

    /// Look up the full table entry.
    pub(crate) fn entry(&self, nf_type: &str) -> Option<&TableEntry> {
        self.entries.get(nf_type)
    }

    /// All registered NF type names, sorted for determinism.
    pub fn nf_types(&self) -> Vec<&str> {
        let mut v: Vec<&str> = self.entries.keys().map(String::as_str).collect();
        v.sort_unstable();
        v
    }

    /// Number of registered profiles.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_has_all_eleven_rows() {
        let r = Registry::paper_table2();
        assert_eq!(r.len(), 11);
        for nf in [
            "Firewall",
            "NIDS",
            "Gateway",
            "LoadBalancer",
            "Caching",
            "VPN",
            "NAT",
            "Proxy",
            "Compression",
            "TrafficShaper",
            "Monitor",
        ] {
            assert!(r.get(nf).is_some(), "{nf} missing");
        }
    }

    #[test]
    fn deployment_shares_match_paper() {
        let r = Registry::paper_table2();
        let share = |nf: &str| r.entry(nf).unwrap().deployment_share;
        assert_eq!(share("Firewall"), Some(0.26));
        assert_eq!(share("NIDS"), Some(0.20));
        assert_eq!(share("Gateway"), Some(0.19));
        assert_eq!(share("LoadBalancer"), Some(0.10));
        assert_eq!(share("Caching"), Some(0.10));
        assert_eq!(share("VPN"), Some(0.07));
        assert_eq!(share("NAT"), None);
        assert_eq!(share("Monitor"), None);
    }

    #[test]
    fn profile_semantics_sanity() {
        let r = Registry::paper_table2();
        assert!(r.get("Firewall").unwrap().has_drop());
        assert!(r.get("Firewall").unwrap().is_read_only());
        assert!(r.get("Monitor").unwrap().is_read_only());
        assert!(r.get("VPN").unwrap().has_add_rm());
        assert!(!r.get("NAT").unwrap().is_read_only());
        assert!(r.get("TrafficShaper").unwrap().actions.is_empty());
        // "only few NFs (7%) modify packet payloads" — VPN and Compression.
        let payload_writers: Vec<_> = r
            .nf_types()
            .into_iter()
            .filter(|nf| r.get(nf).unwrap().write_mask().contains(FieldId::Payload))
            .collect();
        assert_eq!(payload_writers, vec!["Compression", "VPN"]);
    }

    #[test]
    fn failure_policies_split_enforcing_from_best_effort() {
        use crate::action::FailurePolicy::*;
        let r = Registry::paper_table2();
        let policy = |nf: &str| r.get(nf).unwrap().failure_policy();
        // Enforcing NFs fail closed: the firewall by drop capability, the
        // VPN by explicit pin (plaintext must not bypass it).
        assert_eq!(policy("Firewall"), FailClosed);
        assert_eq!(policy("VPN"), FailClosed);
        // Best-effort NFs fail open: traffic outlives their side effects.
        for nf in ["Monitor", "Compression", "LoadBalancer", "NAT", "NIDS"] {
            assert_eq!(policy(nf), FailOpen, "{nf}");
        }
        // An operator hardening the passive NIDS into an inline IDS (the
        // pattern the examples use) flips it closed via the heuristic.
        let ids = r.get("NIDS").unwrap().clone().drops();
        assert_eq!(ids.failure_policy(), FailClosed);
    }

    #[test]
    fn statefulness_matches_nf_semantics() {
        let r = Registry::paper_table2();
        let stateful = |nf: &str| r.get(nf).unwrap().per_flow_state;
        for nf in ["NAT", "LoadBalancer", "Monitor", "NIDS"] {
            assert!(stateful(nf), "{nf} keeps per-flow state");
        }
        for nf in ["Firewall", "Gateway", "VPN", "Compression", "TrafficShaper"] {
            assert!(!stateful(nf), "{nf} is stateless");
        }
    }

    #[test]
    fn register_replaces() {
        let mut r = Registry::new();
        r.register(ActionProfile::new("X").reads([FieldId::Sip]));
        r.register(ActionProfile::new("X").drops());
        assert!(r.get("X").unwrap().has_drop());
        assert!(r.get("X").unwrap().read_mask().is_empty());
        assert_eq!(r.len(), 1);
    }
}
