//! Continuous invariant auditing for adversarial soak runs.
//!
//! The soak harness (ROADMAP item 5) needs to check the engine's safety
//! properties *while* hostile traffic and chaos events are in flight,
//! not just from the final [`crate::engine::EngineReport`]. Three pieces:
//!
//! * [`EngineProbe`] — a registration point an engine run publishes its
//!   live gauges through ([`EngineConfig::probe`]). Each run (each shard
//!   of a [`crate::shard::ShardedEngine`]) registers its own
//!   [`ProbeGauges`] slot; [`EngineProbe::sample`] aggregates every slot
//!   into one consistent-enough [`ProbeSample`], so one auditor covers a
//!   whole fleet.
//! * [`spawn_auditor`] — a sampling thread that polls the probe on an
//!   interval and records violations of the *live* invariants: finished
//!   counts never exceed injected, never regress, pool occupancy stays
//!   within the closed-loop window budget plus the straggler debt of
//!   deadline-expired merges, and packet-level progress keeps advancing
//!   while work is pending (no wedged engine).
//! * [`InvariantReport`] — the end-of-run verdict over the five soak
//!   invariants (pool census, exact accounting, no stale epochs, no
//!   wedge, migration census), combining the final counters with
//!   everything the live auditor saw.
//!
//! The accounting identity audited here is the paper-§5 discipline the
//! whole engine is built around: every injected packet is settled exactly
//! once as delivered, dropped, or rejected, and rejected packets (which
//! never pin a program epoch) are exactly the gap between the epoch
//! tallies and the delivered+dropped total.
//!
//! [`EngineConfig::probe`]: crate::engine::EngineConfig::probe

use crate::engine::EngineReport;
use nfp_packet::io::RunRecord;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The occupancy half of [`ProbeGauges::pool`]; the debt sits above it.
const POOL_LOW: u64 = u32::MAX as u64;

/// Live counters one engine run publishes while it executes. A sample
/// may mix fields of different publications, but never so that settled
/// packets outnumber injected ones: [`ProbeGauges::publish`] stores
/// `injected` before the settled counters (release), and
/// [`EngineProbe::sample`] loads the settled counters before `injected`
/// (acquire), so the `injected` it reads is at least as new as they are.
/// The other way round — `injected` newer than the settled counters, so
/// that more looks in flight than the window allows — is something a
/// sampler can rule out itself: the engine publishes what was finished
/// before it injects against it, `injected` is stored and loaded
/// release / acquire too, and so two samples in a row whose settled
/// counters agree bracket an `injected` no newer than those counters
/// allowed (`tests/threaded_engine.rs` checks the window that way).
/// Pool occupancy and the straggler debt that excuses part of it share
/// one cell, so a sample never pairs one publication's occupancy with
/// another's debt. The gauges (`pool`, `epoch`) are relaxed.
#[derive(Debug, Default)]
pub struct ProbeGauges {
    /// Packets handed to the engine so far.
    pub(crate) injected: AtomicU64,
    /// Packets settled as delivered so far.
    pub(crate) delivered: AtomicU64,
    /// Packets settled as dropped (every cause, classifier rejects
    /// included) so far.
    pub(crate) dropped: AtomicU64,
    /// Current pool occupancy (low 32 bits) and straggler debt (high 32
    /// bits): gauges, not counters. The debt is how many copies
    /// deadline-expired merges are still owed — each may hold a pool slot
    /// for a packet the window already counts as finished.
    pool: AtomicU64,
    /// Upper bound the closed-loop window may legally occupy:
    /// `max_in_flight × slots_per_packet` (0 = unknown, check disabled).
    pub pool_budget: AtomicU64,
    /// The program epoch currently admitting.
    epoch: AtomicU64,
    /// True while the run is executing.
    pub active: AtomicBool,
}

impl ProbeGauges {
    /// Store one consistent publication of the flow counters.
    pub fn publish(
        &self,
        injected: u64,
        delivered: u64,
        dropped: u64,
        pool_in_use: u64,
        stragglers: u64,
        epoch: u64,
    ) {
        self.injected.store(injected, Ordering::Release);
        self.delivered.store(delivered, Ordering::Release);
        self.dropped.store(dropped, Ordering::Release);
        self.pool.store(
            pool_in_use.min(POOL_LOW) | stragglers.min(POOL_LOW) << 32,
            Ordering::Relaxed,
        );
        self.epoch.store(epoch, Ordering::Relaxed);
    }
}

/// One aggregated reading across every registered [`ProbeGauges`] slot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProbeSample {
    /// Sum of injected counts.
    pub injected: u64,
    /// Sum of delivered counts.
    pub delivered: u64,
    /// Sum of dropped counts (classifier rejects included).
    pub dropped: u64,
    /// Sum of current pool occupancies.
    pool_in_use: u64,
    /// Sum of straggler debts: slots the window budget does not cover.
    stragglers: u64,
    /// Sum of per-run window budgets.
    pool_budget: u64,
    /// Highest epoch any run is admitting under.
    epoch: u64,
    /// True if any run is still executing.
    pub active: bool,
    /// True once at least one run has registered (distinguishes "not
    /// started yet" from "finished").
    pub(crate) started: bool,
}

impl ProbeSample {
    /// Packets settled so far (delivered + dropped).
    fn finished(&self) -> u64 {
        self.delivered + self.dropped
    }

    /// The live pool invariant: occupancy stays within the closed-loop
    /// window budget plus the straggler debt. A deadline-expired merge is
    /// accounted finished while its straggler copy still holds a slot, so
    /// the window legally admits one packet more per straggler. (An
    /// unknown budget, 0, disables the check.)
    fn pool_within_budget(&self) -> bool {
        self.pool_budget == 0 || self.pool_in_use <= self.pool_budget + self.stragglers
    }
}

/// Registration point connecting engine runs to a live auditor.
///
/// Slot registration rather than a single shared gauge set: a sharded
/// engine's replicas each publish independently (no cross-shard write
/// contention), and [`EngineProbe::sample`] folds the slots on the read
/// side. Create one probe per measured run; slots accumulate across
/// repeated runs of the same engine otherwise.
#[derive(Debug, Default)]
pub struct EngineProbe {
    pub(crate) slots: Mutex<Vec<Arc<ProbeGauges>>>,
    started: AtomicBool,
}

impl EngineProbe {
    /// Fresh probe with no registered runs.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Register a new gauge slot (called by each engine run at start).
    pub fn register(&self) -> Arc<ProbeGauges> {
        let gauges = Arc::new(ProbeGauges::default());
        self.slots.lock().unwrap().push(Arc::clone(&gauges));
        self.started.store(true, Ordering::Release);
        gauges
    }

    /// Aggregate every registered slot into one sample.
    pub fn sample(&self) -> ProbeSample {
        let slots = self.slots.lock().unwrap();
        let mut s = ProbeSample {
            started: self.started.load(Ordering::Acquire),
            ..ProbeSample::default()
        };
        for g in slots.iter() {
            s.dropped += g.dropped.load(Ordering::Acquire);
            s.delivered += g.delivered.load(Ordering::Acquire);
            s.injected += g.injected.load(Ordering::Acquire);
            let pool = g.pool.load(Ordering::Relaxed);
            s.pool_in_use += pool & POOL_LOW;
            s.stragglers += pool >> 32;
            s.pool_budget += g.pool_budget.load(Ordering::Relaxed);
            s.epoch = s.epoch.max(g.epoch.load(Ordering::Relaxed));
            s.active |= g.active.load(Ordering::Relaxed);
        }
        s
    }
}

/// Live-auditor tuning.
#[derive(Debug, Clone, Copy)]
pub struct AuditConfig {
    /// Sampling period.
    pub interval: Duration,
    /// How long packet-level progress (injected + finished) may sit
    /// still, with work pending and the run active, before the auditor
    /// declares the engine wedged. Must comfortably exceed the engine's
    /// `stall_timeout` plus the longest scripted chaos stall, or healthy
    /// watchdog recoveries read as wedges.
    pub wedge_timeout: Duration,
}

impl Default for AuditConfig {
    fn default() -> Self {
        Self {
            interval: Duration::from_millis(1),
            wedge_timeout: Duration::from_secs(5),
        }
    }
}

/// What the live auditor observed over one run.
#[derive(Debug, Clone, Default)]
pub struct LiveAudit {
    /// Samples taken.
    pub samples: u64,
    /// Highest pool occupancy observed.
    pub peak_pool_in_use: u64,
    /// Invariant violations, tagged by invariant (`accounting:`, `pool:`,
    /// `wedge:` prefixes). Capped at [`LiveAudit::MAX_VIOLATIONS`].
    violations: Vec<String>,
}

impl LiveAudit {
    /// Cap on recorded violation messages (a wedged run would otherwise
    /// accumulate one per sample).
    const MAX_VIOLATIONS: usize = 16;

    fn note(&mut self, msg: String) {
        if self.violations.len() < Self::MAX_VIOLATIONS {
            self.violations.push(msg);
        }
    }

    /// True if any recorded violation is tagged with `prefix`.
    fn has(&self, prefix: &str) -> bool {
        self.violations.iter().any(|v| v.starts_with(prefix))
    }
}

/// Handle to a running live auditor; [`AuditorHandle::finish`] stops the
/// sampling thread and returns what it saw.
#[derive(Debug)]
pub struct AuditorHandle {
    stop: Arc<AtomicBool>,
    thread: JoinHandle<LiveAudit>,
}

impl AuditorHandle {
    /// Stop sampling and collect the audit.
    pub fn finish(self) -> LiveAudit {
        self.stop.store(true, Ordering::Release);
        self.thread.join().expect("auditor thread")
    }
}

/// Start a sampling thread auditing `probe` until
/// [`AuditorHandle::finish`] is called.
pub fn spawn_auditor(probe: Arc<EngineProbe>, cfg: AuditConfig) -> AuditorHandle {
    let stop = Arc::new(AtomicBool::new(false));
    let stop_flag = Arc::clone(&stop);
    let thread = std::thread::spawn(move || {
        let mut audit = LiveAudit::default();
        let mut last_finished = 0u64;
        let mut progress_mark: (u64, Instant) = (0, Instant::now());
        loop {
            let s = probe.sample();
            if s.started {
                audit.samples += 1;
                let finished = s.finished();
                if finished > s.injected {
                    audit.note(format!(
                        "accounting: finished {} exceeds injected {}",
                        finished, s.injected
                    ));
                }
                if finished < last_finished {
                    audit.note(format!(
                        "accounting: finished regressed {last_finished} -> {finished}"
                    ));
                }
                last_finished = last_finished.max(finished);
                audit.peak_pool_in_use = audit.peak_pool_in_use.max(s.pool_in_use);
                if !s.pool_within_budget() {
                    audit.note(format!(
                        "pool: occupancy {} exceeds window budget {} + {} straggler(s)",
                        s.pool_in_use, s.pool_budget, s.stragglers
                    ));
                }
                let progress = s.injected + finished;
                let now = Instant::now();
                if progress != progress_mark.0 {
                    progress_mark = (progress, now);
                } else if s.active
                    && s.injected > finished
                    && now.duration_since(progress_mark.1) >= cfg.wedge_timeout
                {
                    audit.note(format!(
                        "wedge: no packet progress for {:?} with {} in flight",
                        cfg.wedge_timeout,
                        s.injected - finished
                    ));
                    // Restart the clock so a true wedge records one
                    // violation per timeout, not one per sample.
                    progress_mark = (progress, now);
                }
            }
            if stop_flag.load(Ordering::Acquire) {
                return audit;
            }
            std::thread::sleep(cfg.interval);
        }
    });
    AuditorHandle { stop, thread }
}

/// The final flow counters an invariant evaluation needs, the flow counts
/// from a [`RunRecord`]: an [`EngineReport`]'s, or a
/// [`crate::sync_engine::SyncEngine`]'s own for a sync harness loop.
#[derive(Debug, Clone, Copy, Default)]
pub struct SoakCounts {
    /// Packets handed to the engine.
    pub injected: u64,
    /// Packets delivered out the far end.
    pub delivered: u64,
    /// Packets dropped, *including* classifier rejections.
    pub dropped: u64,
    /// Classifier rejections (a subset of `dropped`): packets that never
    /// entered a graph and therefore never pinned an epoch.
    pub rejected: u64,
    /// Pool slots still occupied after quiesce.
    pub pool_in_use: u64,
    /// Sum of completed-packet tallies over every program epoch.
    pub epoch_completed: u64,
    /// Fleet rescales performed over the run (0 when the shard count
    /// never changed).
    pub rescales: u64,
    /// Flow-state entries exported across every rescale.
    pub flows_exported: u64,
    /// Flow-state entries imported across every rescale.
    pub flows_imported: u64,
}

impl SoakCounts {
    /// Extract the counters from a finished threaded/sharded run. The
    /// migration counters in a [`crate::shard::ShardedEngine`] report
    /// are cumulative over the fleet's lifetime, so for a chunked run
    /// take them from the *final* report only.
    pub fn from_report(report: &EngineReport) -> Self {
        Self {
            pool_in_use: report.pool_in_use as u64,
            epoch_completed: report.epochs.iter().map(|t| t.completed).sum(),
            rescales: report.migration.rescales,
            flows_exported: report.migration.flows_exported,
            flows_imported: report.migration.flows_imported,
            ..Self::from_record(&report.record())
        }
    }

    /// The flow counters of `record`, `dropped` including its rejects.
    pub fn from_record(record: &RunRecord) -> Self {
        Self {
            injected: record.pulled,
            delivered: record.delivered,
            dropped: record.dropped + record.rejected,
            rejected: record.rejected,
            ..Self::default()
        }
    }
}

/// Verdict over the five soak invariants.
#[derive(Debug, Clone, Default)]
pub struct InvariantReport {
    /// No leaked pool slots after quiesce, and occupancy never exceeded
    /// the closed-loop window budget live.
    pub pool_census: bool,
    /// `delivered + dropped == injected` exactly (`dropped` includes the
    /// `rejected` classifier share), finished counts stayed monotone and
    /// never overshot live.
    pub accounting_exact: bool,
    /// Every epoch-pinned packet was settled against its epoch:
    /// `Σ epoch.completed == delivered + dropped − rejected` (rejected
    /// packets never pin an epoch).
    pub no_stale_epochs: bool,
    /// Packet-level progress never sat still past the wedge timeout.
    pub no_wedge: bool,
    /// The migrated-state census balanced: across every fleet rescale,
    /// flow-state entries imported equals entries exported — flows in ==
    /// flows out, no per-flow state lost or invented in migration.
    /// Trivially true for runs that never rescale.
    pub migration_census: bool,
    /// Human-readable detail for every failed invariant, live violations
    /// included.
    pub violations: Vec<String>,
}

impl InvariantReport {
    /// True when all five invariants hold.
    pub fn all_hold(&self) -> bool {
        self.pool_census
            && self.accounting_exact
            && self.no_stale_epochs
            && self.no_wedge
            && self.migration_census
    }

    /// Evaluate the invariants from final counters plus the live audit.
    pub fn evaluate(counts: &SoakCounts, live: &LiveAudit) -> Self {
        let mut violations: Vec<String> = Vec::new();

        let pool_census = counts.pool_in_use == 0 && !live.has("pool:");
        if counts.pool_in_use != 0 {
            violations.push(format!(
                "pool: {} slot(s) still in use after quiesce",
                counts.pool_in_use
            ));
        }

        let accounting_exact =
            counts.delivered + counts.dropped == counts.injected && !live.has("accounting:");
        if counts.delivered + counts.dropped != counts.injected {
            violations.push(format!(
                "accounting: delivered {} + dropped {} != injected {}",
                counts.delivered, counts.dropped, counts.injected
            ));
        }

        let settled_pins = (counts.delivered + counts.dropped).saturating_sub(counts.rejected);
        let no_stale_epochs = counts.epoch_completed == settled_pins;
        if !no_stale_epochs {
            violations.push(format!(
                "epochs: Σ completed {} != settled pins {} (delivered {} + dropped {} - rejected {})",
                counts.epoch_completed,
                settled_pins,
                counts.delivered,
                counts.dropped,
                counts.rejected
            ));
        }

        let no_wedge = !live.has("wedge:");

        let migration_census = counts.flows_exported == counts.flows_imported;
        if !migration_census {
            violations.push(format!(
                "migration: {} flow-state entries exported but {} imported over {} rescale(s)",
                counts.flows_exported, counts.flows_imported, counts.rescales
            ));
        }

        violations.extend(live.violations.iter().cloned());

        Self {
            pool_census,
            accounting_exact,
            no_stale_epochs,
            no_wedge,
            migration_census,
            violations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_aggregates_across_slots() {
        let probe = EngineProbe::new();
        assert!(!probe.sample().started);
        let a = probe.register();
        let b = probe.register();
        a.publish(10, 4, 2, 3, 1, 1);
        a.pool_budget.store(64, Ordering::Relaxed);
        a.active.store(true, Ordering::Relaxed);
        b.publish(5, 1, 1, 2, 0, 2);
        b.pool_budget.store(64, Ordering::Relaxed);
        let s = probe.sample();
        assert!(s.started && s.active);
        assert_eq!(s.injected, 15);
        assert_eq!(s.finished(), 8);
        assert_eq!(s.pool_in_use, 5);
        assert_eq!(s.stragglers, 1);
        assert_eq!(s.pool_budget, 128);
        assert_eq!(s.epoch, 2);
    }

    #[test]
    fn auditor_flags_overshoot_and_pool_breach() {
        let probe = EngineProbe::new();
        let g = probe.register();
        g.pool_budget.store(4, Ordering::Relaxed);
        g.active.store(true, Ordering::Relaxed);
        let handle = spawn_auditor(
            Arc::clone(&probe),
            AuditConfig {
                interval: Duration::from_micros(100),
                ..AuditConfig::default()
            },
        );
        // delivered + dropped > injected, pool over budget.
        g.publish(2, 3, 1, 9, 0, 0);
        std::thread::sleep(Duration::from_millis(20));
        let audit = handle.finish();
        assert!(audit.samples > 0);
        assert!(audit.has("accounting:"), "{:?}", audit.violations);
        assert!(audit.has("pool:"), "{:?}", audit.violations);
        assert_eq!(audit.peak_pool_in_use, 9);
    }

    #[test]
    fn pool_budget_allows_exactly_the_straggler_debt() {
        let probe = EngineProbe::new();
        let g = probe.register();
        g.pool_budget.store(64, Ordering::Relaxed);
        let occupancy = |in_use, stragglers| {
            g.publish(100, 30, 5, in_use, stragglers, 0);
            probe.sample()
        };
        assert!(occupancy(64, 0).pool_within_budget());
        assert!(!occupancy(65, 0).pool_within_budget());
        // Two expired merges still owed a copy each: two slots of slack.
        assert!(occupancy(66, 2).pool_within_budget());
        assert!(!occupancy(67, 2).pool_within_budget());
        // Unknown budget: check disabled.
        g.pool_budget.store(0, Ordering::Relaxed);
        assert!(occupancy(500, 0).pool_within_budget());
    }

    #[test]
    fn auditor_flags_wedge_but_not_idle() {
        let probe = EngineProbe::new();
        let g = probe.register();
        g.active.store(true, Ordering::Relaxed);
        let cfg = AuditConfig {
            interval: Duration::from_micros(200),
            wedge_timeout: Duration::from_millis(10),
        };
        // Work pending (injected > finished), no progress: wedge.
        g.publish(10, 2, 2, 1, 0, 0);
        let handle = spawn_auditor(Arc::clone(&probe), cfg);
        std::thread::sleep(Duration::from_millis(40));
        let audit = handle.finish();
        assert!(audit.has("wedge:"), "{:?}", audit.violations);

        // All work settled: stillness is idleness, not a wedge.
        let probe2 = EngineProbe::new();
        let g2 = probe2.register();
        g2.active.store(true, Ordering::Relaxed);
        g2.publish(4, 3, 1, 0, 0, 0);
        let handle2 = spawn_auditor(Arc::clone(&probe2), cfg);
        std::thread::sleep(Duration::from_millis(40));
        let audit2 = handle2.finish();
        assert!(audit2.violations.is_empty(), "{:?}", audit2.violations);
    }

    #[test]
    fn invariant_report_evaluates_all_five() {
        let clean = SoakCounts {
            injected: 100,
            delivered: 80,
            dropped: 20,
            rejected: 5,
            pool_in_use: 0,
            epoch_completed: 95,
            rescales: 2,
            flows_exported: 24,
            flows_imported: 24,
        };
        let report = InvariantReport::evaluate(&clean, &LiveAudit::default());
        assert!(report.all_hold(), "{:?}", report.violations);

        let leaky = SoakCounts {
            pool_in_use: 2,
            ..clean
        };
        let report = InvariantReport::evaluate(&leaky, &LiveAudit::default());
        assert!(!report.pool_census && !report.all_hold());

        let lossy = SoakCounts {
            dropped: 19,
            epoch_completed: 94,
            ..clean
        };
        let report = InvariantReport::evaluate(&lossy, &LiveAudit::default());
        assert!(!report.accounting_exact);

        let stale = SoakCounts {
            epoch_completed: 96,
            ..clean
        };
        let report = InvariantReport::evaluate(&stale, &LiveAudit::default());
        assert!(!report.no_stale_epochs);

        let lost_state = SoakCounts {
            flows_imported: 23,
            ..clean
        };
        let report = InvariantReport::evaluate(&lost_state, &LiveAudit::default());
        assert!(!report.migration_census && !report.all_hold());
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.starts_with("migration:")),
            "{:?}",
            report.violations
        );

        let mut wedged_live = LiveAudit::default();
        wedged_live.note("wedge: no packet progress".into());
        let report = InvariantReport::evaluate(&clean, &wedged_live);
        assert!(!report.no_wedge && report.violations.len() == 1);
    }
}
