//! The distributed NF runtime — paper §5.2.
//!
//! "To make this process transparent to NF developers and incur no NF
//! modifications, we design an NF runtime for each NF to perform traffic
//! steering. After packet processing, the NF could delegate the packet to
//! the NF runtime, which copies the packet reference to the next NFs' ring
//! buffer." The runtime also converts drop verdicts into nil packets
//! toward the merger and selects the access mode (exclusive vs
//! field-scoped shared) the compiled graph granted this NF.

use crate::actions::{self, Deliver, Msg, VersionMap};
use crate::stats::{DropCause, StageStats};
use nfp_nf::{NetworkFunction, PacketView, Verdict};
use nfp_orchestrator::tables::{AccessMode, DropBehavior, FtAction, NfConfig, Target};
use nfp_orchestrator::FailurePolicy;
use nfp_packet::pool::PacketPool;
use nfp_packet::Metadata;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// How an NF failed. Once a runtime records a failure it stops invoking
/// the NF; subsequent traffic takes the configured
/// [`FailurePolicy`] path instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailureKind {
    /// The NF panicked mid-packet; the payload's message, when it had one.
    Panicked(String),
    /// The engine's watchdog declared the NF stalled: no progress while
    /// input was pending.
    Stalled,
}

impl std::fmt::Display for FailureKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FailureKind::Panicked(msg) => write!(f, "panicked: {msg}"),
            FailureKind::Stalled => write!(f, "stalled"),
        }
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// One NF plus its installed forwarding-table slice.
///
/// The config passed at construction is the *install-time* slice (it
/// names the failure policy the run's report records); the engine
/// resolves each packet's epoch to its tables and drives
/// `NfRuntime::handle_with` with that epoch's config, so a runtime can
/// serve two epochs' policies during a swap without being reconstructed.
pub struct NfRuntime<N: NetworkFunction> {
    nf: N,
    config: Arc<NfConfig>,
    failure: Option<FailureKind>,
    /// Packets processed (diagnostics).
    pub processed: u64,
    /// Packets this NF dropped.
    pub dropped: u64,
    /// Action/table failures (packets discarded defensively).
    pub errors: u64,
    /// Packets forwarded unprocessed after a failure (fail-open).
    pub(crate) bypassed: u64,
    /// Packets dropped by failure policy after a failure (fail-closed).
    pub(crate) policy_drops: u64,
}

impl<N: NetworkFunction> NfRuntime<N> {
    /// Wrap an NF with its runtime config (installed by the chaining
    /// manager).
    pub(crate) fn new(nf: N, config: NfConfig) -> Self {
        Self {
            nf,
            config: Arc::new(config),
            failure: None,
            processed: 0,
            dropped: 0,
            errors: 0,
            bypassed: 0,
            policy_drops: 0,
        }
    }

    /// Access the wrapped NF (stats inspection after a run).
    pub fn nf(&self) -> &N {
        &self.nf
    }

    /// The recorded failure, if this NF has failed.
    pub(crate) fn failure(&self) -> Option<&FailureKind> {
        self.failure.as_ref()
    }

    /// The failure policy this runtime applies once its NF has failed.
    pub(crate) fn failure_policy(&self) -> FailurePolicy {
        self.config.on_failure
    }

    /// Mark the NF failed without it panicking — the watchdog path. The
    /// first recorded failure wins; later calls are no-ops so a panic is
    /// never overwritten by a subsequent stall verdict (or vice versa).
    pub(crate) fn force_fail(&mut self, kind: FailureKind) {
        if self.failure.is_none() {
            self.failure = Some(kind);
        }
    }

    /// Unwrap the NF (engine teardown).
    pub(crate) fn into_nf(self) -> N {
        self.nf
    }

    /// The member version this runtime's forwarding actions operate on.
    fn own_version(cfg: &NfConfig) -> u8 {
        // Every per-NF action list references exactly one source version.
        match cfg.actions.first() {
            Some(FtAction::Distribute { version, .. }) | Some(FtAction::Output { version }) => {
                *version
            }
            Some(FtAction::Copy { from, .. }) => *from,
            None => nfp_packet::meta::VERSION_ORIGINAL,
        }
    }

    /// Handle one packet reference under `cfg` — the forwarding-table
    /// slice of the epoch the packet was classified under. Returns whether
    /// the packet was dropped here (verdict, action error or fail-closed
    /// policy): under [`DropBehavior::Discard`] that drop finishes it.
    pub(crate) fn handle_with(
        &mut self,
        cfg: &NfConfig,
        msg: Msg,
        pool: &PacketPool,
        sink: &mut impl Deliver,
        stats: &StageStats,
    ) -> bool {
        let r = msg.r;
        stats.note_in(1);
        if self.failure.is_some() {
            // The NF is dead: don't invoke it, route the packet per its
            // failure policy.
            return self.apply_failure_policy(cfg, r, pool, sink, stats);
        }
        // Isolate the NF invocation: a panic must not take the engine
        // down or leak the in-flight reference. `AssertUnwindSafe` is
        // justified because nothing the closure touches holds invariants
        // across the call — the pool is lock-free (no poisoning; `with_mut`
        // mutates no pool state around the callback) and the NF itself is
        // quarantined on the first panic, so its possibly-torn internal
        // state is never observed again.
        let access = cfg.access;
        let nf = &mut self.nf;
        let caught = catch_unwind(AssertUnwindSafe(|| match access {
            AccessMode::Exclusive => pool.with_mut(r, |p| {
                let mut view = PacketView::Exclusive(p);
                nf.process(&mut view)
            }),
            AccessMode::SharedField => {
                let mut view = PacketView::Shared { pool, r };
                nf.process(&mut view)
            }
        }));
        let verdict = match caught {
            Ok(v) => v,
            Err(payload) => {
                self.failure = Some(FailureKind::Panicked(panic_message(payload)));
                return self.apply_failure_policy(cfg, r, pool, sink, stats);
            }
        };
        self.processed += 1;
        match verdict {
            Verdict::Pass => {
                let mut versions = VersionMap::single(Self::own_version(cfg), r);
                if actions::execute(&cfg.actions, pool, &mut versions, sink, stats).is_err() {
                    // Defensive: drop the packet rather than wedging the
                    // graph; in parallel positions the merger still needs
                    // an arrival, so fall through to the nil path.
                    self.errors += 1;
                    self.emit_drop(cfg, r, pool, sink, stats, DropCause::NfError);
                    return true;
                }
                false
            }
            Verdict::Drop => {
                self.dropped += 1;
                self.emit_drop(cfg, r, pool, sink, stats, DropCause::NfVerdict);
                true
            }
        }
    }

    /// Route a packet addressed to a failed NF. Fail-open forwards it
    /// unprocessed along the normal actions (parallel merges still close:
    /// the bypassed copy contributes unchanged bytes, so merge ops fold a
    /// no-op). Fail-closed drops it — in parallel positions via a
    /// *failure nil*, which the merger honors unconditionally. Returns
    /// whether the packet was dropped.
    fn apply_failure_policy(
        &mut self,
        cfg: &NfConfig,
        r: nfp_packet::pool::PacketRef,
        pool: &PacketPool,
        sink: &mut impl Deliver,
        stats: &StageStats,
    ) -> bool {
        match cfg.on_failure {
            FailurePolicy::FailOpen => {
                self.bypassed += 1;
                let mut versions = VersionMap::single(Self::own_version(cfg), r);
                if actions::execute(&cfg.actions, pool, &mut versions, sink, stats).is_err() {
                    self.errors += 1;
                    self.emit_drop(cfg, r, pool, sink, stats, DropCause::NfError);
                    return true;
                }
                false
            }
            FailurePolicy::FailClosed => {
                self.policy_drops += 1;
                self.emit_drop(cfg, r, pool, sink, stats, DropCause::NfFailed);
                true
            }
        }
    }

    /// Implement the drop intention: discard in sequential positions, nil
    /// packet to the merger in parallel positions (§5.2 `ignore`). With
    /// cause [`DropCause::NfFailed`] — the fail-closed policy path — the
    /// nil is flagged as a failure nil, so the merger drops
    /// unconditionally instead of applying drop-conflict priorities.
    fn emit_drop(
        &mut self,
        cfg: &NfConfig,
        r: nfp_packet::pool::PacketRef,
        pool: &PacketPool,
        sink: &mut impl Deliver,
        stats: &StageStats,
        cause: DropCause,
    ) {
        let failure_nil = matches!(cause, DropCause::NfFailed);
        let meta: Metadata = pool.with(r, |p| p.meta());
        pool.release(r);
        match cfg.on_drop {
            DropBehavior::Discard => {
                // The packet ends here: a stage-local drop with a cause.
                stats.note_drop(cause);
            }
            DropBehavior::NilToMerger { segment, priority } => {
                // Nil packets are written into a free slot of the same
                // pool; under transient exhaustion we wait for the mergers
                // to drain — a nil *must* arrive or the merger's count
                // never closes.
                let mut stalled = false;
                let nil_ref = loop {
                    match pool.insert_nil(meta, priority, failure_nil) {
                        Ok(nr) => break nr,
                        Err(_) => {
                            if !stalled {
                                stats.note_backpressure();
                                stalled = true;
                            }
                            // Our own buffered sends may be what is holding
                            // the pool slots; push them downstream.
                            sink.flush_hint();
                            std::thread::yield_now();
                        }
                    }
                };
                stats.note_nil();
                stats.note_out(1);
                sink.deliver(
                    Target::Merger(segment),
                    Msg::to_segment(nil_ref, segment as u32),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfp_nf::firewall::Firewall;
    use nfp_nf::monitor::Monitor;
    use nfp_packet::ipv4::Ipv4Addr;
    use nfp_packet::meta::VERSION_ORIGINAL;
    use nfp_packet::Packet;

    #[derive(Default)]
    struct Capture(Vec<(Target, Msg)>);
    impl Deliver for Capture {
        fn deliver(&mut self, target: Target, msg: Msg) {
            self.0.push((target, msg));
        }
    }

    fn pooled(pool: &PacketPool, dport: u16) -> nfp_packet::pool::PacketRef {
        let mut p: Packet = nfp_traffic::gen::build_tcp_frame(
            Ipv4Addr::new(1, 1, 1, 1),
            Ipv4Addr::new(172, 16, 3, 3),
            999,
            dport,
            b"",
        );
        p.set_meta(Metadata::new(2, 7, VERSION_ORIGINAL));
        pool.insert(p).unwrap()
    }

    fn seq_config(next: Target) -> NfConfig {
        NfConfig {
            actions: vec![FtAction::Distribute {
                version: 1,
                targets: vec![next],
            }],
            access: AccessMode::Exclusive,
            on_drop: DropBehavior::Discard,
            on_failure: FailurePolicy::FailOpen,
            stateful: false,
        }
    }

    #[test]
    fn pass_forwards_along_table() {
        let pool = PacketPool::new(4);
        let mut rt = NfRuntime::new(Monitor::new("mon"), seq_config(Target::Nf(3)));
        // Every test drives the runtime under its install-time config.
        let cfg = Arc::clone(&rt.config);
        let mut sink = Capture::default();
        let r = pooled(&pool, 80);
        rt.handle_with(&cfg, Msg::plain(r), &pool, &mut sink, &StageStats::new());
        assert_eq!(rt.processed, 1);
        assert_eq!(sink.0, vec![(Target::Nf(3), Msg::plain(r))]);
        assert_eq!(rt.nf().total_packets, 1);
    }

    #[test]
    fn sequential_drop_discards() {
        let pool = PacketPool::new(4);
        let mut rt = NfRuntime::new(
            Firewall::with_synthetic_acl("fw", 100),
            seq_config(Target::Nf(1)),
        );
        let cfg = Arc::clone(&rt.config);
        let mut sink = Capture::default();
        let r = pooled(&pool, 7003); // matches a deny rule
        rt.handle_with(&cfg, Msg::plain(r), &pool, &mut sink, &StageStats::new());
        assert_eq!(rt.dropped, 1);
        assert!(sink.0.is_empty());
        assert_eq!(pool.in_use(), 0);
    }

    #[test]
    fn parallel_drop_emits_nil_with_priority() {
        let pool = PacketPool::new(4);
        let config = NfConfig {
            actions: vec![FtAction::Distribute {
                version: 1,
                targets: vec![Target::Merger(2)],
            }],
            access: AccessMode::SharedField,
            on_drop: DropBehavior::NilToMerger {
                segment: 2,
                priority: 9,
            },
            on_failure: FailurePolicy::FailClosed,
            stateful: false,
        };
        let mut rt = NfRuntime::new(Firewall::with_synthetic_acl("fw", 100), config);
        let cfg = Arc::clone(&rt.config);
        let mut sink = Capture::default();
        let r = pooled(&pool, 7003);
        rt.handle_with(&cfg, Msg::plain(r), &pool, &mut sink, &StageStats::new());
        assert_eq!(rt.dropped, 1);
        assert_eq!(sink.0.len(), 1);
        let (target, msg) = sink.0[0];
        assert_eq!(target, Target::Merger(2));
        pool.with(msg.r, |p| {
            assert!(p.is_nil());
            assert_eq!(p.nil_priority(), 9);
            assert_eq!(p.meta().pid(), 7, "nil keeps the packet identity");
        });
        pool.release(msg.r);
        assert_eq!(pool.in_use(), 0, "data share released");
    }

    #[test]
    fn panic_is_caught_and_fail_open_bypasses() {
        use nfp_nf::chaos::PanicAfter;
        let pool = PacketPool::new(4);
        let mut rt = NfRuntime::new(
            PanicAfter::new(Monitor::new("mon"), 1),
            seq_config(Target::Nf(3)),
        );
        let cfg = Arc::clone(&rt.config);
        let mut sink = Capture::default();
        let stats = StageStats::new();
        let fresh = || Msg::plain(pooled(&pool, 80));
        rt.handle_with(&cfg, fresh(), &pool, &mut sink, &stats);
        assert!(rt.failure().is_none());
        // Second packet panics; fail-open forwards it unprocessed.
        rt.handle_with(&cfg, fresh(), &pool, &mut sink, &stats);
        assert!(matches!(rt.failure(), Some(FailureKind::Panicked(_))));
        assert_eq!(rt.bypassed, 1);
        // Third packet bypasses without invoking the NF at all.
        rt.handle_with(&cfg, fresh(), &pool, &mut sink, &stats);
        assert_eq!(rt.bypassed, 2);
        assert_eq!(sink.0.len(), 3, "all three delivered downstream");
        assert_eq!(rt.nf().inner().total_packets, 1, "NF saw only the first");
    }

    #[test]
    fn fail_closed_discards_and_counts() {
        use nfp_nf::chaos::PanicAfter;
        let pool = PacketPool::new(4);
        let config = NfConfig {
            on_failure: FailurePolicy::FailClosed,
            ..seq_config(Target::Nf(3))
        };
        let mut rt = NfRuntime::new(PanicAfter::new(Monitor::new("mon"), 0), config);
        let cfg = Arc::clone(&rt.config);
        let mut sink = Capture::default();
        let stats = StageStats::new();
        let fresh = || Msg::plain(pooled(&pool, 80));
        for _ in 0..3 {
            rt.handle_with(&cfg, fresh(), &pool, &mut sink, &stats);
        }
        assert!(rt.failure().is_some());
        assert_eq!(rt.policy_drops, 3);
        assert!(sink.0.is_empty());
        assert_eq!(pool.in_use(), 0, "every reference released");
        assert_eq!(stats.snapshot().drop_nf_failed, 3);
    }

    #[test]
    fn fail_closed_parallel_member_emits_failure_nil() {
        use nfp_nf::chaos::PanicAfter;
        let pool = PacketPool::new(4);
        let config = NfConfig {
            actions: vec![FtAction::Distribute {
                version: 1,
                targets: vec![Target::Merger(1)],
            }],
            access: AccessMode::Exclusive,
            on_drop: DropBehavior::NilToMerger {
                segment: 1,
                priority: 4,
            },
            on_failure: FailurePolicy::FailClosed,
            stateful: false,
        };
        let mut rt = NfRuntime::new(PanicAfter::new(Monitor::new("mon"), 0), config);
        let cfg = Arc::clone(&rt.config);
        let mut sink = Capture::default();
        let r = pooled(&pool, 80);
        rt.handle_with(&cfg, Msg::plain(r), &pool, &mut sink, &StageStats::new());
        let (target, msg) = sink.0[0];
        assert_eq!(target, Target::Merger(1));
        pool.with(msg.r, |p| {
            assert!(p.is_nil());
            assert!(p.is_nil_failure(), "failure nil, not a verdict nil");
            assert_eq!(p.nil_priority(), 4);
        });
        pool.release(msg.r);
        assert_eq!(pool.in_use(), 0);
    }

    #[test]
    fn force_fail_keeps_first_failure() {
        let pool = PacketPool::new(4);
        let mut rt = NfRuntime::new(Monitor::new("mon"), seq_config(Target::Nf(1)));
        let cfg = Arc::clone(&rt.config);
        rt.force_fail(FailureKind::Stalled);
        rt.force_fail(FailureKind::Panicked("later".into()));
        assert_eq!(rt.failure(), Some(&FailureKind::Stalled));
        // Traffic bypasses (fail-open default) without touching the NF.
        let mut sink = Capture::default();
        rt.handle_with(
            &cfg,
            Msg::plain(pooled(&pool, 80)),
            &pool,
            &mut sink,
            &StageStats::new(),
        );
        assert_eq!(rt.bypassed, 1);
        assert_eq!(rt.nf().total_packets, 0);
    }

    #[test]
    fn shared_access_mode_reaches_nf() {
        let pool = PacketPool::new(4);
        let config = NfConfig {
            actions: vec![FtAction::Distribute {
                version: 1,
                targets: vec![Target::Merger(0)],
            }],
            access: AccessMode::SharedField,
            on_drop: DropBehavior::NilToMerger {
                segment: 0,
                priority: 0,
            },
            on_failure: FailurePolicy::FailOpen,
            stateful: false,
        };
        let mut rt = NfRuntime::new(Monitor::new("mon"), config);
        let cfg = Arc::clone(&rt.config);
        let mut sink = Capture::default();
        let r = pooled(&pool, 80);
        pool.retain(r); // simulate a second concurrent sharer
        rt.handle_with(&cfg, Msg::plain(r), &pool, &mut sink, &StageStats::new());
        assert_eq!(rt.nf().total_packets, 1);
        assert_eq!(sink.0.len(), 1);
        pool.release(r);
        pool.release(r);
    }
}
