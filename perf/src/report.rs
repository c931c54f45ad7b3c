//! What a run prints and writes: every metric as `name value unit`, the
//! host facts, the layer-share table, and the machine-readable result.

use crate::drive::Tally;
use crate::endtoend::{EndToEnd, Plan, Summary};
use crate::host::HostFacts;
use crate::json::{num, quote};
use crate::layers::{Layers, UNATTRIBUTED_FLAG};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::workloads::Workload;
use std::fmt::Write as _;

/// One workload's results.
pub struct RunReport<'a> {
    pub workload: &'a Workload,
    pub host: &'a HostFacts,
    pub plan: &'a Plan,
    pub packets: usize,
    pub traffic_hash: u64,
    pub mean_frame: f64,
    pub end_to_end: Option<&'a EndToEnd>,
    pub layers: Option<&'a Layers>,
    pub tally: &'a Tally,
}

impl EndToEnd {
    /// The summary behind an end-to-end metric name.
    pub fn summary(&self, name: &str) -> Summary {
        match name {
            "setup_s" => self.setup_s,
            "rtc_pps" => self.rtc_pps,
            "sync_pps" => self.sync_pps,
            "threaded_pps" => self.threaded_pps,
            "threaded_p50_us" => self.threaded_p50_us,
            "peak_rss_mb" => Summary::exact(self.peak_rss_mb),
            other => panic!("`{other}` is not an end-to-end metric"),
        }
    }
}

impl RunReport<'_> {
    pub fn correct(&self) -> bool {
        self.tally.failed == 0
    }

    /// `(name, value, unit)` of every metric this run measured: the
    /// end-to-end list, then the per-layer list.
    pub fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        let mut out = Vec::new();
        if let Some(e) = &self.end_to_end {
            out.extend(
                END_TO_END
                    .iter()
                    .map(|m| (m.name, e.summary(m.name).value, m.unit)),
            );
        }
        if let Some(l) = &self.layers {
            out.extend(PER_LAYER.iter().map(|m| (m.name, l.get(m.name), m.unit)));
        }
        out
    }

    /// The human-readable report.
    pub fn text(&self) -> String {
        let mut s = String::new();
        let w = self.workload;
        let h = self.host;
        let _ = writeln!(s, "== {} ==", w.name);
        let _ = writeln!(s, "why: {}", w.why);
        let _ = writeln!(s, "graph: {}", w.shape);
        let _ = writeln!(
            s,
            "traffic: {} packets/trial, mean frame {:.1} B, hash {:016x}, seed {}; in-process (no link, no loopback); closed loop, one client",
            self.packets, self.mean_frame, self.traffic_hash, self.plan.seed
        );
        let _ = writeln!(
            s,
            "host: host_cores {} stage_threads {} pinned {} oversubscribed {} | {} | commit {}",
            h.host_cores,
            h.stage_threads,
            h.pinned,
            h.oversubscribed(1 + h.stage_threads),
            h.rustc,
            h.git_commit
        );
        if let Some(e) = &self.end_to_end {
            let _ = writeln!(
                s,
                "-- end to end (telemetry off, tracing off; undisturbed-side quartile of trials at nominal host speed; host ran at {:.3} x nominal) --",
                e.host_speed
            );
            for m in &END_TO_END {
                let v = e.summary(m.name);
                let _ = writeln!(
                    s,
                    "{} {} {}   [raw {} | q1 {} median {} q3 {} trials {} | {} is better, bound {:.0}%]",
                    m.name,
                    fmt(v.value),
                    m.unit,
                    fmt(v.raw),
                    fmt(v.q1),
                    fmt(v.median),
                    fmt(v.q3),
                    v.trials,
                    m.better.as_str(),
                    m.bound * 100.0
                );
            }
            let _ = writeln!(
                s,
                "latency samples per trial: {} (window-4 p99 this pass: {} us, reported per layer)",
                e.latency_samples,
                fmt(e.threaded_p99_us.value)
            );
        }
        if let Some(l) = &self.layers {
            let _ = writeln!(s, "-- per layer (traced pass) --");
            for m in &PER_LAYER {
                let _ = writeln!(
                    s,
                    "{} {} {}   [{}]",
                    m.name,
                    fmt(l.get(m.name)),
                    m.unit,
                    m.layer
                );
            }
            let _ = writeln!(
                s,
                "-- where a threaded packet's time goes (share of engine.ns_per_pkt = {} ns) --",
                fmt(l.get("engine.ns_per_pkt"))
            );
            for (label, metric) in [
                ("ring+sched", "share.ring_sched"),
                ("classifier+pool", "share.classifier_pool"),
                ("copy+merge", "share.copy_merge"),
                ("nf", "share.nf"),
                ("io", "share.io"),
                ("unattributed", "share.unattributed"),
            ] {
                let _ = writeln!(s, "  {label:<16} {:>6.1}%", l.get(metric) * 100.0);
            }
            let frac = l.get("sync.unattributed_frac");
            let _ = writeln!(
                s,
                "  sync.unattributed_frac {:.3} {}",
                frac,
                if frac.abs() > UNATTRIBUTED_FLAG {
                    "** FLAGGED: > 0.15, the layers do not add up **"
                } else {
                    "(within 0.15: the layers add up)"
                }
            );
            for f in &l.flags {
                let _ = writeln!(s, "flag: {f}");
            }
        }
        let _ = writeln!(
            s,
            "fail_share {} ratio   [failed {} of {} packets offered]",
            fmt(self.tally.failed as f64 / self.tally.attempted.max(1) as f64),
            self.tally.failed,
            self.tally.attempted
        );
        for n in &self.tally.notes {
            let _ = writeln!(s, "FAILED: {n}");
        }
        s
    }

    /// The one-line result the benchmark contract asks for, printed last.
    pub fn result_line(&self) -> String {
        result_line(
            self.correct(),
            self.tally.attempted,
            self.tally.failed,
            &self.metrics(),
        )
    }

    /// Everything, as one JSON document (`--out`).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        let w = self.workload;
        let h = self.host;
        let _ = writeln!(s, "  \"workload\": {},", quote(w.name));
        let _ = writeln!(s, "  \"why\": {},", quote(w.why));
        let _ = writeln!(s, "  \"graph\": {},", quote(w.shape));
        let _ = writeln!(s, "  \"seed\": {},", self.plan.seed);
        let _ = writeln!(s, "  \"seconds\": {},", num(self.plan.seconds));
        let _ = writeln!(
            s,
            "  \"traffic\": {{\"packets_per_trial\": {}, \"gate_packets\": {}, \"mean_frame\": {}, \"hash\": \"{:016x}\", \"in_process\": true, \"loop\": \"closed, one client\"}},",
            self.packets,
            self.plan.gate_packets,
            num(self.mean_frame),
            self.traffic_hash
        );
        let _ = writeln!(
            s,
            "  \"host\": {{\"host_cores\": {}, \"stage_threads\": {}, \"pinned\": {}, \"oversubscribed\": {}, \"rustc\": {}, \"git_commit\": {}}},",
            h.host_cores,
            h.stage_threads,
            h.pinned,
            h.oversubscribed(1 + h.stage_threads),
            quote(&h.rustc),
            quote(&h.git_commit)
        );
        s.push_str("  \"end_to_end\": {");
        if let Some(e) = &self.end_to_end {
            for (i, m) in END_TO_END.iter().enumerate() {
                let v = e.summary(m.name);
                let _ = write!(
                    s,
                    "{}\n    {}: {{\"value\": {}, \"raw\": {}, \"unit\": {}, \"q1\": {}, \"median\": {}, \"q3\": {}, \"trials\": {}, \"better\": {}, \"bound\": {}}}",
                    if i == 0 { "" } else { "," },
                    quote(m.name),
                    num(v.value),
                    num(v.raw),
                    quote(m.unit),
                    num(v.q1),
                    num(v.median),
                    num(v.q3),
                    v.trials,
                    quote(m.better.as_str()),
                    num(m.bound)
                );
            }
            let _ = write!(
                s,
                ",\n    \"latency_samples_per_trial\": {},\n    \"host_speed\": {}\n  ",
                e.latency_samples,
                num(e.host_speed)
            );
        }
        s.push_str("},\n  \"per_layer\": {");
        if let Some(l) = &self.layers {
            for (i, m) in PER_LAYER.iter().enumerate() {
                let _ = write!(
                    s,
                    "{}\n    {}: {{\"value\": {}, \"unit\": {}, \"layer\": {}, \"moves\": {}}}",
                    if i == 0 { "" } else { "," },
                    quote(m.name),
                    num(l.get(m.name)),
                    quote(m.unit),
                    quote(m.layer),
                    quote(m.moves)
                );
            }
            s.push_str("\n  ");
        }
        s.push_str("},\n  \"flags\": [");
        if let Some(l) = &self.layers {
            s.push_str(
                &l.flags
                    .iter()
                    .map(|f| quote(f))
                    .collect::<Vec<_>>()
                    .join(", "),
            );
        }
        s.push_str("],\n");
        let _ = writeln!(s, "  \"correct\": {},", self.correct());
        let _ = writeln!(s, "  \"attempted\": {},", self.tally.attempted);
        let _ = writeln!(s, "  \"failed\": {},", self.tally.failed);
        let _ = writeln!(
            s,
            "  \"failures\": [{}]",
            self.tally
                .notes
                .iter()
                .map(|f| quote(f))
                .collect::<Vec<_>>()
                .join(", ")
        );
        s.push_str("}\n");
        s
    }
}

/// `{"correct":…, "attempted":…, "failed":…, "metrics": {name: {value, unit}}}`.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    let body = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(name),
                num(*value),
                quote(unit)
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{body}}}}}",
        attempted.max(1)
    )
}

/// A few significant digits for people; the result line keeps every digit.
pub fn fmt(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 1000.0 {
        format!("{v:.0}")
    } else if v.abs() >= 1.0 {
        format!("{v:.3}")
    } else if v.abs() >= 0.001 {
        format!("{v:.6}")
    } else {
        format!("{v:.3e}")
    }
}
