//! Action profiles checked against what the NFs actually do (§5.4).
//!
//! OP#1 dirty-memory reuse and OP#2 header-only copies trust each NF's
//! registered Table-2 profile. An NF that touches a field its profile
//! omits silently breaks parallel ≡ sequential, so every NF of the full
//! Table-2 inventory is run through the dynamic inspector
//! ([`nfp_nf::inspector::inspect`]) over the committed golden pcap corpus
//! and over hostile traffic, and its observed read / write / add-rm /
//! drop set must be a subset of the profile it is registered under.
//! Over-declaration only costs parallelism, so it is printed, not failed.

use nfp_nf::catalogue;
use nfp_nf::inspector::inspect;
use nfp_nf::monitor::Monitor;
use nfp_nf::NetworkFunction;
use nfp_orchestrator::{ActionProfile, Registry};
use nfp_packet::{FieldMask, Packet};
use nfp_testkit::corpus::{golden, hostile, GOLDEN_CLEAN, GOLDEN_MIXED};

/// Every row of the evaluated registry — Table 2 plus the §6.1
/// Forwarder, LB and inline IDS — built by the catalogue and named after
/// the profile it is registered under.
fn zoo() -> Vec<Box<dyn NetworkFunction>> {
    let registry = Registry::evaluated();
    let types = registry.nf_types().into_iter();
    types.map(|t| catalogue::make(t).unwrap()).collect()
}

/// The golden pcap corpus, every frame that decodes into a packet.
fn golden_corpus() -> Vec<Packet> {
    let mut corpus = golden(GOLDEN_CLEAN);
    corpus.extend(golden(GOLDEN_MIXED));
    corpus
}

/// The hostile set, every eighth frame about to expire.
fn hostile_expiring() -> Vec<Packet> {
    let mut pkts = hostile(7, 11, 256);
    for pkt in pkts.iter_mut().step_by(8) {
        if pkt.set_ttl(1).is_ok() {
            let _ = pkt.finalize_checksums();
        }
    }
    pkts
}

/// The fields in `a` that `b` lacks, each named after `action`.
fn minus(action: &str, a: FieldMask, b: FieldMask) -> Vec<String> {
    a.iter()
        .filter(|&f| !b.contains(f))
        .map(|f| format!("{action} {f}"))
        .collect()
}

/// What `seen` does that `declared` does not admit (each entry names the
/// action), and what `declared` admits that `seen` never did.
fn compare(seen: &ActionProfile, declared: &ActionProfile) -> (Vec<String>, Vec<String>) {
    let diff = |a: &ActionProfile, b: &ActionProfile| {
        let mut out = minus("read", a.read_mask(), b.read_mask());
        out.extend(minus("write", a.write_mask(), b.write_mask()));
        if a.has_add_rm() && !b.has_add_rm() {
            out.push("add/rm".into());
        }
        if a.has_drop() && !b.has_drop() {
            out.push("drop".into());
        }
        out
    };
    (diff(seen, declared), diff(declared, seen))
}

/// The under-declarations of every zoo NF over `samples`, one line each.
fn under_declared(samples: &[Packet], corpus: &str) -> Vec<String> {
    let registry = Registry::evaluated();
    let mut failures = Vec::new();
    for mut nf in zoo() {
        let name = nf.name().to_string();
        let declared = registry
            .get(&name)
            .unwrap_or_else(|| panic!("{name} has no registered profile"));
        let seen = inspect(nf.as_mut(), samples.to_vec());
        let (under, over) = compare(&seen, declared);
        if !over.is_empty() {
            println!(
                "{corpus}: {name} declares but never showed: {}",
                over.join(", ")
            );
        }
        if !under.is_empty() {
            failures.push(format!(
                "{corpus}: {name} did undeclared: {}",
                under.join(", ")
            ));
        }
    }
    failures
}

#[test]
fn golden_corpus_stays_inside_registered_profiles() {
    let corpus = golden_corpus();
    assert!(
        corpus.len() > 100,
        "corpus decoded to {} packets",
        corpus.len()
    );
    let failures = under_declared(&corpus, "golden");
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn hostile_traffic_stays_inside_registered_profiles() {
    let failures = under_declared(&hostile_expiring(), "hostile");
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn an_under_declared_profile_is_caught() {
    // Monitor keys its counters on the 4-tuple; a profile that forgets
    // `dip` must not pass.
    let registry = Registry::evaluated();
    let declared = registry.get("Monitor").unwrap();
    let mut forgetful = ActionProfile::new("Monitor");
    forgetful.actions = declared
        .actions
        .iter()
        .filter(|a| a.field != Some(nfp_packet::FieldId::Dip))
        .cloned()
        .collect();
    let seen = inspect(&mut Monitor::new("Monitor"), golden_corpus());
    let (under, _) = compare(&seen, &forgetful);
    assert_eq!(under, vec!["read dip".to_string()]);
}
