//! The `nfp` binary end to end: `replay` of the committed golden trace
//! on every engine. Each NF the CLI compiles runs as its registered
//! profile says, so an NF delivers, drops and rejects the same packets
//! alone as it does ahead of a Monitor it runs beside or before.

use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};

const PCAP: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/data/golden_mixed.pcap"
);

const ENGINES: [&str; 3] = ["sync", "threaded", "sharded"];

/// `nfp replay` of `policy` on the golden mixed trace: its pulled,
/// delivered, dropped and rejected counts.
fn replay(policy: &str, engine: &str) -> [u64; 4] {
    static FILES: AtomicUsize = AtomicUsize::new(0);
    let n = FILES.fetch_add(1, Ordering::Relaxed);
    let path = std::env::temp_dir().join(format!("nfp-cli-{}-{n}.nfp", std::process::id()));
    std::fs::write(&path, policy).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_nfp"))
        .args(["replay", path.to_str().unwrap()])
        .arg(format!("--pcap={PCAP}"))
        .arg(format!("--engine={engine}"))
        .output()
        .unwrap();
    let _ = std::fs::remove_file(&path);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{policy:?} on {engine}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let words: Vec<&str> = stdout.split_whitespace().collect();
    ["pulled", "delivered", "dropped", "rejected"].map(|key| {
        let at = words.iter().position(|w| *w == key).unwrap();
        words[at + 1].parse().unwrap()
    })
}

#[test]
fn an_nf_replays_the_same_alone_and_beside_a_monitor() {
    for nf in ["NIDS", "IDS"] {
        for engine in ENGINES {
            let alone = replay(&format!("Position({nf}, first)"), engine);
            let paired = replay(&format!("Order({nf}, before, Monitor)"), engine);
            assert_eq!(alone, paired, "{nf} on {engine}");
        }
    }
}

#[test]
fn every_evaluated_nf_type_replays() {
    let policy = "Order(Forwarder, before, NAT)\nOrder(NAT, before, TrafficShaper)";
    for engine in ENGINES {
        let [pulled, delivered, dropped, rejected] = replay(policy, engine);
        assert!(delivered > 0, "{engine}");
        assert_eq!(delivered + dropped + rejected, pulled, "{engine}");
    }
}
