//! # nfp-bench
//!
//! The benchmark harness regenerating **every table and figure** of the
//! NFP paper's evaluation (§6). The `figures` binary prints any row of
//! the [`figures`] table next to the paper's reported values; see
//! EXPERIMENTS.md for the index and methodology.
//!
//! Methodology (see DESIGN.md): real per-packet costs are **measured**
//! here ([`Calibration`]) and loaded into `nfp-sim`'s virtual-time model,
//! which evaluates the three systems' execution disciplines; the threaded
//! engines run for semantics, not wall-clock latency. **API:** [`figures`],
//! [`setups`], [`soak`], [`Calibration`] and [`stage_latency_json`].

#![warn(missing_docs)]

mod calibrate;
pub mod figures;
pub mod setups;
pub mod soak;
mod table;

pub use calibrate::Calibration;

/// Render a [`nfp_dataplane::TelemetrySnapshot`]'s per-stage latency
/// quantiles as a compact JSON object — `{"classifier": {"count": …,
/// "timed": …, "p50_ns": …, "p99_ns": …}, …}` — for embedding in `BENCH_*.json`.
/// Stages that recorded nothing are skipped.
pub fn stage_latency_json(snap: &nfp_dataplane::TelemetrySnapshot) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("{");
    let mut first = true;
    for st in &snap.stages {
        if st.hist.count == 0 {
            continue;
        }
        if !first {
            out.push_str(", ");
        }
        first = false;
        let _ = write!(
            out,
            "\"{}\": {{\"count\": {}, \"timed\": {}, \"p50_ns\": {}, \"p99_ns\": {}}}",
            st.label,
            st.hist.count,
            st.hist.timed,
            st.hist.p50_ns(),
            st.hist.p99_ns()
        );
    }
    out.push('}');
    out
}

/// 10GbE line rate in packets/second for a given frame size (8B preamble +
/// 12B inter-frame gap per frame on the wire).
fn line_rate_pps(frame_bytes: usize) -> f64 {
    10e9 / ((frame_bytes as f64 + 20.0) * 8.0)
}

#[cfg(test)]
mod tests {
    #[test]
    fn line_rate_64b_is_14_88_mpps() {
        let r = super::line_rate_pps(64) / 1e6;
        assert!((r - 14.88).abs() < 0.01, "{r}");
    }
}
