//! The `figures` table against its captured outputs in `results/`.

use nfp_bench::figures::{lookup, FIGURES};
use std::collections::BTreeSet;
use std::path::PathBuf;

fn results_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

/// The entries that need no calibration and measure nothing reproduce
/// their committed output byte for byte.
#[test]
fn deterministic_entries_match_their_captured_output() {
    for name in ["census", "overhead", "openbox"] {
        let entry = lookup(name).unwrap();
        assert!(!entry.is_calibrated(), "{name} needs no calibration");
        let path = results_dir().join(format!("{name}.txt"));
        let captured =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert_eq!(
            entry.render(None),
            captured,
            "{name} differs from {}; regenerate it with `figures {name}`",
            path.display()
        );
    }
}

/// Every entry has a captured output, and every captured table has an
/// entry.
#[test]
fn entries_and_captured_outputs_match_one_to_one() {
    let entries: BTreeSet<String> = FIGURES.iter().map(|(n, _)| n.to_string()).collect();
    assert_eq!(entries.len(), FIGURES.len(), "duplicate entry name");
    let captured: BTreeSet<String> = std::fs::read_dir(results_dir())
        .unwrap()
        .filter_map(|e| {
            let name = e.unwrap().file_name().into_string().unwrap();
            name.strip_suffix(".txt").map(str::to_string)
        })
        .collect();
    assert_eq!(entries, captured, "entries vs results/*.txt");
}
