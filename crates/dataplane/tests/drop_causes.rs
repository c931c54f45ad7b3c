//! Drop-cause taxonomy: each [`DropCause`] variant must bump exactly its
//! own counter — and leave the telemetry histograms of stages the packet
//! never (successfully) crossed untouched.
//!
//! One test per variant for the three causes whose accounting is easy to
//! get wrong because the drop happens *outside* an NF verdict:
//!
//! * `AdmitRejected` — the classifier refuses the frame before it gets a
//!   PID, so no stage histogram may record it and no trace may exist.
//! * `NfError` — a runtime action fails mid-graph (here: the copy for a
//!   downstream parallel segment hits an exhausted pool); the stages the
//!   packet did cross record it, the collector never sees it.
//! * `MergeError` — the accumulating table completes but resolution
//!   fails (no v1 original among the arrivals); the merger accounts the
//!   error, forwards nothing, and releases every reference.

use nfp_dataplane::actions::Msg;
use nfp_dataplane::classifier::AdmitError;
use nfp_dataplane::cores::merge::MergerCore;
use nfp_dataplane::stats::StageStats;
use nfp_dataplane::swap::{ProgramHandle, TablesResolver};
use nfp_dataplane::sync_engine::{ProcessOutcome, SyncEngine};
use nfp_dataplane::telemetry::TelemetryConfig;
use nfp_nf::lb::LoadBalancer;
use nfp_nf::monitor::Monitor;
use nfp_nf::vpn::{Vpn, VpnMode};
use nfp_nf::NetworkFunction;
use nfp_orchestrator::{compile, CompileOptions, Program, Registry};
use nfp_packet::ipv4::Ipv4Addr;
use nfp_packet::{Metadata, Packet, PacketPool};
use nfp_policy::Policy;
use std::sync::Arc;

fn full_sampling() -> TelemetryConfig {
    TelemetryConfig {
        histograms: true,
        trace_every: 1,
        trace_capacity: 1024,
    }
}

fn compile_program(chain: &[&str]) -> Program {
    compile(
        &Policy::from_chain(chain.iter().copied()),
        &Registry::paper_table2(),
        &[],
        &CompileOptions::default(),
    )
    .unwrap()
    .program(1)
    .unwrap()
}

fn valid_frame(dport: u16) -> Packet {
    nfp_traffic::gen::build_tcp_frame(
        Ipv4Addr::new(10, 0, 0, 1),
        Ipv4Addr::new(10, 9, 9, 9),
        4321,
        dport,
        b"drop-cause probe",
    )
}

/// An unparseable frame bumps `drop_admit_malformed` and nothing else:
/// the packet never got a PID, so the classifier histogram must not count
/// it and no trace record may exist for it. Policy rejections
/// (`drop_admit_rejected`) stay at zero — hostile framing has its own
/// bucket.
#[test]
fn admit_malformed_bumps_only_its_counter() {
    let program = compile_program(&["Monitor", "Firewall"]);
    let nfs: Vec<Box<dyn NetworkFunction>> = vec![
        Box::new(Monitor::new("Monitor")),
        Box::new(nfp_nf::firewall::Firewall::with_synthetic_acl(
            "Firewall", 100,
        )),
    ];
    let mut engine = SyncEngine::new(program, nfs, 64);
    engine.set_telemetry(full_sampling());

    // Three garbage frames: parse fine as raw bytes, refuse to classify.
    for _ in 0..3 {
        let garbage = Packet::from_bytes(&[0u8; 60]).unwrap();
        let err = engine.process(garbage).unwrap_err();
        assert!(matches!(err, AdmitError::Unparseable), "{err:?}");
    }
    // One valid frame so the histograms have a nonzero baseline to
    // distinguish "untouched by rejects" from "not recording at all".
    assert!(matches!(
        engine.process(valid_frame(443)).unwrap(),
        ProcessOutcome::Delivered(_)
    ));

    let stats = engine.stats();
    assert_eq!(stats.drop_admit_malformed, 3);
    assert_eq!(stats.drop_admit_rejected, 0, "not a policy rejection");
    assert_eq!(stats.drop_nf_error, 0);
    assert_eq!(stats.drop_merge_error, 0);
    assert_eq!(stats.rejects(), 3);

    let snap = engine.telemetry();
    assert_eq!(
        snap.stage("classifier").unwrap().hist.count,
        1,
        "only the admitted packet may be timed"
    );
    assert_eq!(snap.traces().len(), 1, "rejected frames leave no trace");
    assert_eq!(engine.pool_in_use(), 0);
}

/// A truncated frame — ethertype says IPv4 but the header bytes end early
/// — surfaces as `AdmitError::Truncated`, shares the `AdmitMalformed`
/// drop cause, and leaves histograms/traces exactly as untouched as any
/// other rejection.
#[test]
fn truncated_frame_distinct_error_same_malformed_counter() {
    let program = compile_program(&["Monitor", "Firewall"]);
    let nfs: Vec<Box<dyn NetworkFunction>> = vec![
        Box::new(Monitor::new("Monitor")),
        Box::new(nfp_nf::firewall::Firewall::with_synthetic_acl(
            "Firewall", 100,
        )),
    ];
    let mut engine = SyncEngine::new(program, nfs, 64);
    engine.set_telemetry(full_sampling());

    let whole = valid_frame(443);
    for cut in [8usize, 20, 33] {
        let truncated = Packet::from_bytes(&whole.data()[..cut]).unwrap();
        let err = engine.process(truncated).unwrap_err();
        assert!(matches!(err, AdmitError::Truncated), "cut={cut}: {err:?}");
    }
    // An ethertype-corrupted (but full-length) frame is Unparseable, not
    // Truncated — the two hostile shapes stay distinguishable.
    let mut foreign = valid_frame(443);
    foreign.data_mut()[12] = 0x86;
    foreign.data_mut()[13] = 0xDD;
    foreign.invalidate();
    assert!(matches!(
        engine.process(foreign).unwrap_err(),
        AdmitError::Unparseable
    ));
    assert!(matches!(
        engine.process(valid_frame(443)).unwrap(),
        ProcessOutcome::Delivered(_)
    ));

    let stats = engine.stats();
    assert_eq!(stats.drop_admit_malformed, 4);
    assert_eq!(stats.drop_admit_rejected, 0);

    let snap = engine.telemetry();
    assert_eq!(snap.stage("classifier").unwrap().hist.count, 1);
    assert_eq!(snap.traces().len(), 1);
    assert_eq!(engine.pool_in_use(), 0);
}

/// A runtime action error mid-graph bumps `drop_nf_error` only. The
/// `VPN -> [Monitor | LoadBalancer(v2)]` tables put the v2 copy in the
/// VPN's action list; with a single-slot pool the admission succeeds, the
/// VPN runs, and the copy fails with pool exhaustion — so the classifier
/// and nf0 histograms record the packet but the collector's must not.
#[test]
fn nf_error_bumps_only_its_counter() {
    let program = compile_program(&["VPN", "Monitor", "LoadBalancer"]);
    let nfs: Vec<Box<dyn NetworkFunction>> = vec![
        Box::new(Vpn::new("VPN", [1; 16], 5, VpnMode::Encapsulate)),
        Box::new(Monitor::new("Monitor")),
        Box::new(LoadBalancer::with_uniform_backends("LoadBalancer", 4)),
    ];
    let mut engine = SyncEngine::new(program, nfs, 1);
    engine.set_telemetry(full_sampling());

    let outcome = engine.process(valid_frame(443)).unwrap();
    assert!(matches!(outcome, ProcessOutcome::Dropped));

    let stats = engine.stats();
    assert_eq!(stats.drop_nf_error, 1, "copy failure is an NF action error");
    assert_eq!(stats.drop_admit_rejected, 0);
    assert_eq!(stats.drop_merge_error, 0);
    assert_eq!(stats.drop_nf_verdict, 0);
    assert_eq!(
        engine.runtime(0).errors,
        1,
        "the VPN runtime owned the error"
    );

    let snap = engine.telemetry();
    assert_eq!(snap.stage("classifier").unwrap().hist.count, 1);
    assert_eq!(snap.stage("nf0").unwrap().hist.count, 1, "the VPN did run");
    assert_eq!(
        snap.stage("collector").unwrap().hist.count,
        0,
        "a dropped packet must never reach the collector histogram"
    );
    assert_eq!(engine.pool_in_use(), 0, "the failed copy leaked nothing");
}

/// A completed merge whose resolution finds no v1 original bumps
/// `drop_merge_error` only: the merger notes the merge, forwards nothing,
/// flags the outcome as errored, and releases every arrival's reference.
#[test]
fn merge_error_bumps_only_its_counter() {
    let program = compile_program(&["Monitor", "Firewall"]);
    let tables = program.tables().clone();
    let spec = tables.merge_specs[0].clone();
    let mid = tables.mid;
    let segment = spec.segment as u32;

    let handle = Arc::new(ProgramHandle::new(program));
    let mut resolver = TablesResolver::new(Arc::clone(&handle));
    let pool = PacketPool::new(8);
    let stats = StageStats::new();
    let mut core = MergerCore::new();

    // `total_count` sibling copies, versions starting at 2 — the v1
    // original never arrives, so resolution must fail.
    let mut outcome = None;
    for i in 0..spec.total_count {
        let mut pkt = valid_frame(443);
        pkt.set_meta(Metadata::new(mid, 0, (i + 2) as u8));
        let r = pool.insert(pkt).unwrap();
        let mut offered = None;
        let msg = Msg::to_segment(r, segment);
        core.offer(&[msg], &pool, &mut resolver, &stats, 0, |o| {
            offered = Some(o)
        });
        if i + 1 < spec.total_count {
            assert!(offered.is_none(), "entry resolved before all siblings");
        } else {
            outcome = offered;
        }
    }
    let outcome = outcome.expect("final arrival completes the merge");
    assert!(outcome.error, "resolution failure must flag the outcome");
    assert!(outcome.forward.is_none(), "nothing may be forwarded");

    let s = stats.snapshot();
    assert_eq!(s.drop_merge_error, 1);
    assert_eq!(s.drop_merge_resolved, 0, "this was an error, not a verdict");
    assert_eq!(s.drop_nf_error, 0);
    assert_eq!(s.drop_admit_rejected, 0);
    assert_eq!(s.merges, 1, "the accumulating-table entry did complete");
    assert_eq!(s.packets_out, 0, "the merger stage emitted nothing");
    assert_eq!(pool.in_use(), 0, "every arrival reference released");
    assert_eq!(core.pending_len(), 0);
}
