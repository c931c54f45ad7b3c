//! The NF catalogue: every NF type the repo runs, built from one table.
//!
//! There is one row per row of `Registry::evaluated()` — paper Table 2
//! plus the §6.1 evaluation's Forwarder, LB and inline IDS — so the
//! instance that runs and the profile it is compiled against are each
//! named in exactly one place (§5.4 registration). The evaluated rows
//! carry the parameters `perf` measures; NIDS is Table 2's passive,
//! never-dropping NIDS.

use crate::extra::{Caching, Compression, CompressionMode, Gateway, Proxy, TrafficShaper};
use crate::firewall::Firewall;
use crate::forwarder::L3Forwarder;
use crate::ids::{Ids, IdsMode};
use crate::lb::LoadBalancer;
use crate::monitor::Monitor;
use crate::nat::Nat;
use crate::vpn::{Vpn, VpnMode};
use crate::NetworkFunction;
use nfp_packet::ipv4::Ipv4Addr;

/// Builds one instance, named after its argument.
type Build = fn(&str) -> Box<dyn NetworkFunction>;

/// NF type → constructor, one row per registered NF type.
const CATALOGUE: [(&str, Build); 14] = [
    ("Forwarder", |n| {
        Box::new(L3Forwarder::with_uniform_table(n, 1000))
    }),
    ("LB", |n| {
        Box::new(LoadBalancer::with_uniform_backends(n, 8))
    }),
    ("LoadBalancer", |n| {
        Box::new(LoadBalancer::with_uniform_backends(n, 8))
    }),
    ("Firewall", |n| {
        Box::new(Firewall::with_synthetic_acl(n, 100))
    }),
    ("IDS", |n| {
        Box::new(Ids::with_synthetic_signatures(n, 100, IdsMode::Inline))
    }),
    ("NIDS", |n| {
        Box::new(Ids::with_synthetic_signatures(n, 100, IdsMode::Passive))
    }),
    ("VPN", |n| {
        Box::new(Vpn::new(n, [0x42; 16], 0x1001, VpnMode::Encapsulate))
    }),
    ("Monitor", |n| Box::new(Monitor::new(n))),
    ("Gateway", |n| Box::new(Gateway::new(n))),
    ("Caching", |n| Box::new(Caching::new(n, 128))),
    ("NAT", |n| {
        Box::new(Nat::new(n, Ipv4Addr::new(203, 0, 113, 1)))
    }),
    ("Proxy", |n| {
        Box::new(Proxy::new(
            n,
            Ipv4Addr::new(10, 0, 0, 99),
            Ipv4Addr::new(10, 50, 0, 1),
        ))
    }),
    ("Compression", |n| {
        Box::new(Compression::new(n, CompressionMode::Compress))
    }),
    ("TrafficShaper", |n| {
        Box::new(TrafficShaper::new(n, 1e9, 1e6, false))
    }),
];

/// An instance of the NF type `name` names, called `name`. The type is
/// the text before any `#` instance suffix (`Firewall#1` is a Firewall);
/// `None` when no row has that type.
pub fn make(name: &str) -> Option<Box<dyn NetworkFunction>> {
    let nf_type = name.split('#').next().unwrap_or(name);
    let (_, build) = CATALOGUE.iter().find(|(t, _)| *t == nf_type)?;
    Some(build(name))
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfp_orchestrator::Registry;

    #[test]
    fn catalogue_covers_exactly_the_evaluated_registry() {
        let mut types: Vec<&str> = CATALOGUE.iter().map(|(t, _)| *t).collect();
        types.sort_unstable();
        assert_eq!(types, Registry::evaluated().nf_types());
    }

    /// What an NF declares of itself must fit the row it is compiled
    /// against, or the compiler parallelises it on a promise it breaks.
    #[test]
    fn every_made_nf_profile_fits_its_registered_row() {
        let registry = Registry::evaluated();
        for nf_type in registry.nf_types() {
            let nf = make(&format!("{nf_type}#1")).expect("every row has a constructor");
            assert_eq!(nf.name(), format!("{nf_type}#1"));
            let own = nf.profile();
            let row = registry.get(nf_type).unwrap();
            let within = |a: nfp_packet::FieldMask, b: nfp_packet::FieldMask| {
                a.iter().all(|f| b.contains(f))
            };
            assert!(within(own.read_mask(), row.read_mask()), "{nf_type} reads");
            assert!(
                within(own.write_mask(), row.write_mask()),
                "{nf_type} writes"
            );
            assert!(!own.has_add_rm() || row.has_add_rm(), "{nf_type} add/rm");
            assert!(!own.has_drop() || row.has_drop(), "{nf_type} drops");
        }
        assert!(make("Burner").is_none());
    }
}
