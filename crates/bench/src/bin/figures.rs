//! The paper's evaluation tables and figures ([`nfp_bench::figures`]).
//!
//! `figures` lists the entry names, one per line; `figures <name>…`
//! prints the named entries. The host calibration is measured once, only
//! if a named entry models over it, and printed before the first such
//! entry. Regenerate the captured outputs with
//! `for f in $(figures); do figures $f > results/$f.txt; done`.
//!
//! Usage: `cargo run --release -p nfp-bench --bin figures -- [name…]`

use nfp_bench::figures::{lookup, FIGURES};
use nfp_bench::Calibration;

fn main() {
    let names: Vec<String> = std::env::args().skip(1).collect();
    if names.is_empty() {
        for (name, _) in FIGURES {
            println!("{name}");
        }
        return;
    }
    let entries: Vec<_> = names
        .iter()
        .map(|name| {
            lookup(name).unwrap_or_else(|| {
                eprintln!("unknown figure `{name}`; run `figures` to list them");
                std::process::exit(2)
            })
        })
        .collect();
    let mut cal = None;
    for (i, entry) in entries.into_iter().enumerate() {
        if i > 0 {
            println!();
        }
        if entry.is_calibrated() && cal.is_none() {
            let measured = Calibration::measure();
            println!("{measured}\n");
            cal = Some(measured);
        }
        print!("{}", entry.render(cal.as_ref()));
    }
}
