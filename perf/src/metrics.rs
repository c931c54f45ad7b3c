//! The benchmark's metric names — one list, used by the runner, by
//! `BENCHMARK.json` (a test keeps the two equal) and by the README.

/// Which direction is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }

    /// By what share `second` is worse than `first` (negative = better).
    pub fn worsening(self, first: f64, second: f64) -> f64 {
        match self {
            Better::Higher => (first - second) / first,
            Better::Lower => (second - first) / first,
        }
    }
}

/// An end-to-end metric: something a user of the system sees, with the
/// share of the parent's median by which it may worsen before a change
/// counts as a regression.
#[derive(Debug, Clone, Copy)]
pub struct EndToEndDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// The end-to-end metrics, the same on every workload.
///
/// Two metrics the issue listed are deliberately not here. `fail_share`
/// (failed ÷ offered packets, must be 0): the benchmark contract admits no
/// metric that reads 0, so it is the `failed` and `attempted` members of
/// every result line, and any non-zero value fails the run outright.
/// `threaded_p99_us`: its run-to-run spread on a shared 2-vCPU host is
/// 6–17% whatever order statistic of the trials is taken, wider than any
/// bound worth gating on, so — as the issue provides — it is reported in
/// the per-layer list under the same name.
pub const END_TO_END: [EndToEndDef; 6] = [
    EndToEndDef {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEndDef {
        name: "rtc_pps",
        unit: "pkt/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEndDef {
        name: "sync_pps",
        unit: "pkt/s",
        better: Better::Higher,
        bound: 0.20,
    },
    EndToEndDef {
        name: "threaded_pps",
        unit: "pkt/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEndDef {
        name: "threaded_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.20,
    },
    EndToEndDef {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.10,
    },
];

/// A per-layer metric: measured from outside a layer by timing its
/// public calls, with the end-to-end metric (and workload) it should move
/// written down before any optimisation is attempted.
#[derive(Debug, Clone, Copy)]
pub struct LayerDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The repo module the number belongs to.
    pub layer: &'static str,
    /// Which end-to-end metric it should move, on which workload.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    layer: &'static str,
    moves: &'static str,
) -> LayerDef {
    LayerDef {
        name,
        unit,
        better,
        layer,
        moves,
    }
}

use Better::{Higher, Lower};

const SETUP: &str = "setup_s (ew_64b, ns_dc, replay_mixed; seal on all)";
const PKT64: &str = "sync_pps, threaded_pps on the 64 B workloads; nothing on ns_dc";
const COPY: &str = "sync_pps, threaded_pps on ew_64b; nothing elsewhere";
const RING: &str = "threaded_pps, threaded_p50_us: seq3_64b most, ew_64b next, ~0 on ns_dc";
const CLASSIFY: &str = "sync_pps, threaded_pps on the 64 B workloads and replay_mixed";
const NF: &str = "rtc_pps everywhere; all pps metrics on ns_dc";
const MERGE: &str = "sync_pps, threaded_pps, threaded_p50_us on ew_64b; 0 on seq3_64b";
const SYNC: &str = "sync_pps (closure check: attributed must explain it)";
const ENGINE: &str = "threaded_pps (the threaded-vs-sync gap ROADMAP item 2 tracks)";
const TELEMETRY: &str = "none with telemetry off; ROADMAP budget <= 0.10 when on";
const DIAG: &str = "diagnostic only (flagged when oversubscribed)";
const IO: &str = "every pps metric and peak_rss_mb on replay_mixed only";
const SIM: &str = "none: model-vs-machine ratio as a tracked number";
const HARNESS: &str = "harness cost, not product: explains peak_rss_mb's floor";
const SHARE: &str = "where engine.ns_per_pkt goes; shares sum to 1";

/// The per-layer metrics. Every one is emitted on every workload; a layer
/// that does no work on a workload reads 0 there.
pub const PER_LAYER: [LayerDef; 67] = [
    layer("policy.parse_us", "us", Lower, "policy", SETUP),
    layer(
        "orchestrator.compile_us",
        "us",
        Lower,
        "orchestrator",
        SETUP,
    ),
    layer("orchestrator.seal_us", "us", Lower, "orchestrator", SETUP),
    layer(
        "packet.pool_insert_release_ns",
        "ns",
        Lower,
        "packet",
        PKT64,
    ),
    layer("packet.copy_header_ns", "ns", Lower, "packet", COPY),
    layer("packet.copy_full_ns", "ns", Lower, "packet", COPY),
    layer("packet.finalize_checksums_ns", "ns", Lower, "packet", PKT64),
    layer("harness.gen_s", "s", Lower, "traffic", HARNESS),
    layer("harness.rss_mb", "MB", Lower, "traffic", HARNESS),
    layer("ring.hop_ns", "ns", Lower, "dataplane::ring", RING),
    layer("ring.burst_hop_ns", "ns", Lower, "dataplane::ring", RING),
    layer(
        "classifier.admit_ns",
        "ns",
        Lower,
        "dataplane::classifier",
        CLASSIFY,
    ),
    layer(
        "classifier.reject_ns",
        "ns",
        Lower,
        "dataplane::classifier",
        "sync_pps, threaded_pps on replay_mixed only",
    ),
    layer("nf.forwarder_ns", "ns", Lower, "nf", NF),
    layer("nf.firewall_ns", "ns", Lower, "nf", NF),
    layer("nf.monitor_ns", "ns", Lower, "nf", NF),
    layer("nf.lb_ns", "ns", Lower, "nf", NF),
    layer("nf.vpn_ns", "ns", Lower, "nf", NF),
    layer("nf.ids_ns", "ns", Lower, "nf", NF),
    layer("nf.chain_ns", "ns", Lower, "nf", NF),
    layer("merger.merge_ns", "ns", Lower, "dataplane::merger", MERGE),
    layer(
        "merger.copies_per_pkt",
        "count",
        Lower,
        "dataplane::merger",
        MERGE,
    ),
    layer(
        "merger.merges_per_pkt",
        "count",
        Lower,
        "dataplane::merger",
        MERGE,
    ),
    layer("rtc.ns_per_pkt", "ns", Lower, "baseline::rtc", NF),
    layer("rtc.p50_ns", "ns", Lower, "baseline::rtc", NF),
    layer("rtc.p99_ns", "ns", Lower, "baseline::rtc", NF),
    layer(
        "sync.ns_per_pkt",
        "ns",
        Lower,
        "dataplane::sync_engine",
        SYNC,
    ),
    layer("sync.p50_ns", "ns", Lower, "dataplane::sync_engine", SYNC),
    layer("sync.p99_ns", "ns", Lower, "dataplane::sync_engine", SYNC),
    layer(
        "sync.framework_ns",
        "ns",
        Lower,
        "dataplane::sync_engine",
        SYNC,
    ),
    layer(
        "sync.attributed_ns",
        "ns",
        Higher,
        "dataplane::sync_engine",
        SYNC,
    ),
    layer(
        "sync.unattributed_frac",
        "ratio",
        Lower,
        "dataplane::sync_engine",
        SYNC,
    ),
    layer(
        "threaded_p99_us",
        "us",
        Lower,
        "dataplane::engine",
        "itself: the window-4 tail a user sees; too noisy on shared hosts to carry a bound",
    ),
    layer(
        "engine.ns_per_pkt",
        "ns",
        Lower,
        "dataplane::engine",
        ENGINE,
    ),
    layer(
        "engine.sched_overhead_ns",
        "ns",
        Lower,
        "dataplane::engine",
        ENGINE,
    ),
    layer(
        "engine.default_cfg_pps",
        "pkt/s",
        Higher,
        "dataplane::engine",
        DIAG,
    ),
    layer(
        "engine.backpressure_events",
        "count",
        Lower,
        "dataplane::engine",
        ENGINE,
    ),
    layer(
        "engine.ring_high_water",
        "count",
        Lower,
        "dataplane::engine",
        ENGINE,
    ),
    layer(
        "engine.drop_share",
        "ratio",
        Lower,
        "dataplane::engine",
        "none: outcome share, a workload property",
    ),
    layer(
        "telemetry.sync_overhead_frac",
        "ratio",
        Lower,
        "dataplane::telemetry",
        TELEMETRY,
    ),
    layer(
        "telemetry.threaded_overhead_frac",
        "ratio",
        Lower,
        "dataplane::telemetry",
        TELEMETRY,
    ),
    layer(
        "stage.classifier_p50_ns",
        "ns",
        Lower,
        "dataplane::telemetry",
        CLASSIFY,
    ),
    layer(
        "stage.classifier_p99_ns",
        "ns",
        Lower,
        "dataplane::telemetry",
        CLASSIFY,
    ),
    layer("stage.nf_p50_ns", "ns", Lower, "dataplane::telemetry", NF),
    layer("stage.nf_p99_ns", "ns", Lower, "dataplane::telemetry", NF),
    layer(
        "stage.agent_p50_ns",
        "ns",
        Lower,
        "dataplane::telemetry",
        MERGE,
    ),
    layer(
        "stage.agent_p99_ns",
        "ns",
        Lower,
        "dataplane::telemetry",
        MERGE,
    ),
    layer(
        "stage.merger_p50_ns",
        "ns",
        Lower,
        "dataplane::telemetry",
        MERGE,
    ),
    layer(
        "stage.merger_p99_ns",
        "ns",
        Lower,
        "dataplane::telemetry",
        MERGE,
    ),
    layer(
        "stage.collector_p50_ns",
        "ns",
        Lower,
        "dataplane::telemetry",
        PKT64,
    ),
    layer(
        "stage.collector_p99_ns",
        "ns",
        Lower,
        "dataplane::telemetry",
        PKT64,
    ),
    layer(
        "trace.overhead_frac",
        "ratio",
        Lower,
        "perf (harness)",
        "none: cost of the harness's per-packet timing",
    ),
    layer(
        "trace.spans",
        "count",
        Higher,
        "perf (harness)",
        "none: spans recorded by the traced pass",
    ),
    layer("shard.x2_pps", "pkt/s", Higher, "dataplane::shard", DIAG),
    layer(
        "shard.x2_speedup",
        "ratio",
        Higher,
        "dataplane::shard",
        DIAG,
    ),
    layer("onvm.pps", "pkt/s", Higher, "baseline::onvm", DIAG),
    layer("onvm.p50_us", "us", Lower, "baseline::onvm", DIAG),
    layer("io.pcap_read_ns", "ns", Lower, "io", IO),
    layer("io.pcap_write_ns", "ns", Lower, "io", IO),
    layer("sim.pred_pps", "pkt/s", Higher, "sim", SIM),
    layer("sim.pred_over_measured", "ratio", Lower, "sim", SIM),
    layer(
        "share.ring_sched",
        "ratio",
        Lower,
        "dataplane::engine",
        SHARE,
    ),
    layer(
        "share.classifier_pool",
        "ratio",
        Lower,
        "dataplane::classifier",
        SHARE,
    ),
    layer(
        "share.copy_merge",
        "ratio",
        Lower,
        "dataplane::merger",
        SHARE,
    ),
    layer("share.nf", "ratio", Higher, "nf", SHARE),
    layer("share.io", "ratio", Lower, "io", SHARE),
    layer(
        "share.unattributed",
        "ratio",
        Lower,
        "dataplane::sync_engine",
        SHARE,
    ),
];

/// Is `name` made only of the characters a metric name may contain?
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_valid_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for name in END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
        {
            assert!(valid_name(name), "bad metric name `{name}`");
            assert!(seen.insert(name), "duplicate metric name `{name}`");
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s"));
    }
}
