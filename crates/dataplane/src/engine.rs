//! The multi-threaded NFP engine.
//!
//! Mirrors the paper's deployment (Figure 3): a classifier stage pulls
//! packets from the input ring, each NF runs its own stage (the paper's
//! one-container-per-core), merger-bound traffic flows through a
//! **merger agent** that load-balances by PID hash onto N merger
//! instances, and merged/finished packets reach a collector.
//!
//! The engine executes a sealed [`Program`] through the stage dispatcher
//! of `crate::dispatch` — the same code the deterministic
//! [`crate::sync_engine`] runs inline, so the two engines cannot drift
//! semantically. This module owns only what a *threaded* run adds
//! (DESIGN.md §11 is the full account):
//!
//! * **Core-budgeted grouping.** The stages are partitioned, in pipeline
//!   order, into at most [`EngineConfig::core_budget`] groups, one
//!   dispatcher per OS thread; an SPSC ring exists only on a wiring-plan
//!   edge the grouping cuts, plus the injection ring. No send ever blocks:
//!   a full ring leaves its messages stashed for the next pass.
//! * **The injector ⇄ group boundary, per burst.** The calling thread
//!   reads the finished count once, pushes up to `min(room, 32)` packets,
//!   then notifies once and drains the delivery ring once. Dispatchers
//!   publish what they finished once per stage burst, so the injector may
//!   see it late — never early: the window stays a hard bound.
//! * **Adaptive idling, by the clock** ([`EngineConfig::idle_policy`]):
//!   spin → yield → park on the time since a thread's last progress, so a
//!   steady closed loop pays no futex wake and an idle engine burns no core.
//! * **Deliveries leave as they complete** over a ring back to the calling
//!   thread — into the report or straight to the [`Egress`] — so a run
//!   holds a window of packets, not its length.
//! * **One injector for a fleet.** An engine may hold several replicas of
//!   the program (a [`crate::shard::ShardedEngine`] has one per shard),
//!   each with its own NFs, pool, counters and stage groups, all on the one
//!   [`ProgramHandle`]. The calling thread routes each packet by
//!   `shard_of` to its replica's injection ring under that replica's own
//!   window, holding it — and everything behind it — while that replica
//!   has no room, and drains every replica's delivery ring.

use crate::audit::ProbeGauges;
use crate::classifier::AdmitError;
use crate::dispatch::{Clock, Dispatcher, Layout, Rings, Runtime, Shared, BURST};
use crate::exec::{CachePadded, Idler, WakeHub};
use crate::ring::{self, Consumer, Producer};
use crate::runtime::{FailureKind, NfRuntime};
use crate::shard::shard_of;
use crate::stats::EngineStats;
use crate::swap::{EpochReport, EpochTally, ProgramHandle, ReconfigError};
use crate::telemetry::{Telemetry, TelemetryConfig, TelemetrySnapshot};
use nfp_nf::{FlowSnapshot, NetworkFunction};
use nfp_orchestrator::{FailurePolicy, Program, Stage};
use nfp_packet::io::{Egress, Ingress, IoError, RunRecord};
use nfp_packet::Packet;
use nfp_traffic::{LatencyRecorder, LatencySummary};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Packet pool slots.
    pub pool_size: usize,
    /// Per-ring capacity.
    pub ring_capacity: usize,
    /// Merger instances behind the agent (paper §6.3.3: two suffice for
    /// full speed up to parallelism degree 5).
    pub mergers: usize,
    /// Closed-loop window: maximum packets in flight. Small values give
    /// clean latency numbers; large values measure throughput.
    pub max_in_flight: usize,
    /// Keep delivered packets in the report (correctness tests).
    pub keep_packets: bool,
    /// How long an accumulating-table entry may wait for missing sibling
    /// copies before the merger resolves it from the copies that arrived
    /// (the merge deadline; see DESIGN.md "Failure model"). Generous by
    /// default: a healthy run never comes close.
    pub merge_deadline: Duration,
    /// How long the engine may make zero global progress before the
    /// watchdog declares a busy, heartbeat-silent NF stalled and fails it.
    pub stall_timeout: Duration,
    /// Packet-path telemetry: per-stage latency histograms and trace
    /// sampling (see [`crate::telemetry`]). Histograms are on by default;
    /// tracing is off until `telemetry.trace_every > 0`.
    pub telemetry: TelemetryConfig,
    /// Maximum OS threads this engine may spawn for its stage tasks.
    /// Stages are coalesced onto `min(core_budget, stages)` threads in
    /// pipeline order (`crate::exec::plan_pipeline_groups`); budgets
    /// ≥ 2 keep the NF section and the merge section on separate
    /// threads so merge deadlines stay enforceable while an NF blocks.
    /// Defaults to the host's available parallelism, floored at 2 for
    /// exactly that reason; must be non-zero.
    pub core_budget: usize,
    /// CPUs to pin the stage threads to, round-robin by group index.
    /// Empty (the default) disables pinning. Every listed CPU must be
    /// below [`host_parallelism`](crate::exec::host_parallelism).
    pub pin_cpus: Vec<usize>,
    /// What a thread of the run (stage group or injector) does when a
    /// pass makes no progress — see [`IdlePolicy`](crate::exec::IdlePolicy).
    /// The default backs off spin → yield → park on the time since the
    /// thread's last progress.
    pub idle_policy: crate::exec::IdlePolicy,
    /// Live audit probe: when set, every run registers a gauge slot on
    /// it and publishes injected/delivered/dropped/pool/epoch counters
    /// from the injector loop, so a [`crate::audit`] auditor thread can
    /// check invariants *during* the run. `None` (the default) costs
    /// nothing on the packet path.
    pub probe: Option<Arc<crate::audit::EngineProbe>>,
    /// Pull size for [`Engine::run_io`] ingress bursts (NIC RX-ring
    /// style); ignored by the batch entry points.
    pub io_burst: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            pool_size: 512,
            ring_capacity: 256,
            mergers: 2,
            max_in_flight: 64,
            keep_packets: false,
            merge_deadline: Duration::from_secs(1),
            stall_timeout: Duration::from_secs(2),
            telemetry: TelemetryConfig::default(),
            core_budget: crate::exec::host_parallelism().max(2),
            pin_cpus: Vec::new(),
            idle_policy: crate::exec::IdlePolicy::default(),
            probe: None,
            io_burst: 32,
        }
    }
}

/// Why an [`Engine`] (or [`crate::shard::ShardedEngine`]) refused to
/// build. Caught at construction so a misconfiguration surfaces as a typed
/// error instead of a wedged or panicking run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineError {
    /// The NF instance list does not match the program's NF positions.
    NfCountMismatch {
        /// NF positions the program drives.
        expected: usize,
        /// NF instances supplied.
        got: usize,
    },
    /// `mergers` was zero — the agent would have nowhere to route.
    NoMergers,
    /// The packet pool cannot cover the closed-loop window: every
    /// in-flight packet can occupy up to `slots_per_packet` pool slots
    /// (original + copies + transient nils), so a pool smaller than
    /// `max_in_flight × slots_per_packet` can wedge the run on pool
    /// exhaustion.
    PoolTooSmall {
        /// Configured pool slots.
        pool_size: usize,
        /// Minimum slots the window requires.
        required: usize,
        /// The configured in-flight window.
        max_in_flight: usize,
        /// Worst-case slots per admitted packet (from the program).
        slots_per_packet: usize,
    },
    /// `core_budget` was zero — the engine would have no thread to run
    /// its stages on.
    ZeroCoreBudget,
    /// A `pin_cpus` entry names a CPU the host does not have.
    PinCpuOutOfRange {
        /// The offending CPU index.
        cpu: usize,
        /// CPUs actually available on this host.
        host: usize,
    },
    /// The idle policy's `park_timeout` was zero: a parked thread could
    /// miss non-notifying progress (pool releases) forever.
    ZeroParkTimeout,
}

impl core::fmt::Display for EngineError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            EngineError::NfCountMismatch { expected, got } => {
                write!(
                    f,
                    "program drives {expected} NF positions, got {got} instances"
                )
            }
            EngineError::NoMergers => write!(f, "at least one merger instance is required"),
            EngineError::PoolTooSmall {
                pool_size,
                required,
                max_in_flight,
                slots_per_packet,
            } => write!(
                f,
                "pool of {pool_size} slots cannot cover max_in_flight {max_in_flight} × \
                 {slots_per_packet} slots/packet = {required}"
            ),
            EngineError::ZeroCoreBudget => {
                write!(f, "core_budget must be at least 1")
            }
            EngineError::PinCpuOutOfRange { cpu, host } => {
                write!(f, "pin_cpus names cpu {cpu} but the host has {host}")
            }
            EngineError::ZeroParkTimeout => {
                write!(f, "idle_policy park_timeout must be non-zero")
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// One NF that failed during a run — the [`EngineReport`] `failures`
/// section, and [`crate::sync_engine::SyncEngine::failures`]. The engine
/// survives the failure; this records what degraded and how the failure
/// policy handled the NF's subsequent traffic.
#[derive(Debug, Clone)]
pub struct NfFailure {
    /// Graph node (`NodeId`) of the failed NF.
    pub node: usize,
    /// The NF's name.
    pub nf: String,
    /// How it failed (panic or watchdog-detected stall).
    pub kind: FailureKind,
    /// The failure policy that governed its traffic afterwards.
    pub policy: FailurePolicy,
    /// Packets forwarded unprocessed past the failed NF (fail-open).
    pub bypassed: u64,
    /// Packets discarded by policy at the failed NF (fail-closed).
    pub policy_drops: u64,
}

impl NfFailure {
    /// The failure of the NF at `node`, if it has failed.
    pub(crate) fn of<N: NetworkFunction>(node: usize, rt: &NfRuntime<N>) -> Option<Self> {
        Some(NfFailure {
            node,
            nf: rt.nf().name().to_string(),
            kind: rt.failure()?.clone(),
            policy: rt.failure_policy(),
            bypassed: rt.bypassed,
            policy_drops: rt.policy_drops,
        })
    }
}

/// Result of one engine run.
#[derive(Debug, Default)]
pub struct EngineReport {
    /// Packets injected.
    pub injected: u64,
    /// Packets delivered to the output.
    pub delivered: u64,
    /// Packets dropped (NF verdicts, merge resolutions, admit rejects).
    pub dropped: u64,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// Per-packet latency summary (inject → collect). `None` when no
    /// packet was delivered (there are no samples to summarize).
    pub latency: Option<LatencySummary>,
    /// Delivered packets, in completion order (when `keep_packets`).
    pub packets: Vec<Packet>,
    /// Per-stage counters for this run.
    pub stats: EngineStats,
    /// NFs that failed during the run (empty on a healthy run).
    pub failures: Vec<NfFailure>,
    /// Each NF's `(processed, dropped)` over the run, in `NodeId` order
    /// (summed over the replicas the report covers).
    pub(crate) per_nf: Vec<(u64, u64)>,
    /// Pool slots still held when the run finished — 0 unless references
    /// leaked (the failure paths exist precisely to keep this at 0).
    pub pool_in_use: usize,
    /// The program epoch that was current when the run ended.
    pub epoch: u64,
    /// Per-epoch completion tallies over the engine's **lifetime** —
    /// accumulated across runs and live swaps, sorted by epoch (see
    /// [`ProgramHandle::tallies`]). Every delivered or dropped packet is
    /// attributed to exactly one epoch.
    pub epochs: Vec<EpochTally>,
    /// Packet-path telemetry for this run: per-stage latency histograms
    /// (p50/p90/p99/max via [`TelemetrySnapshot::stage`]) and sampled
    /// trace timelines. Empty histograms when telemetry is disabled.
    pub telemetry: TelemetrySnapshot,
    /// Flow-state migration census over the reporting engine's lifetime.
    /// Always zero for a lone [`Engine`] (nothing to migrate); a
    /// [`crate::shard::ShardedEngine`] fills in its rescale history.
    pub(crate) migration: MigrationStats,
    /// Times a thread of this run (injector or stage group) went to
    /// sleep on the engine's `WakeHub` (`WakeHub::parks`).
    pub parks: u64,
    /// Times a thread that had just made progress found a sleeper and
    /// paid for a futex broadcast (`WakeHub::wakes`). In a steady
    /// closed loop both stay near zero per packet.
    pub wakes: u64,
}

/// Cumulative flow-state migration counters for an elastic fleet.
///
/// The census invariant the soak auditor checks: every rescale must
/// leave `flows_exported == flows_imported` — re-partitioning by
/// [`nfp_packet::flow::FlowKey::shard`] moves every flow somewhere and
/// invents none.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MigrationStats {
    /// Shard-count changes performed.
    pub rescales: u64,
    /// Flow-state entries exported from retiring shards, summed over all
    /// rescales and stateful NF positions.
    pub flows_exported: u64,
    /// Flow-state entries imported into replacement shards after
    /// re-partitioning. Equals `flows_exported` unless state was lost.
    pub flows_imported: u64,
}

impl MigrationStats {
    /// True when every exported flow was re-imported somewhere.
    pub fn balanced(&self) -> bool {
        self.flows_exported == self.flows_imported
    }
}

impl EngineReport {
    /// Throughput in packets/second, counting every packet the engine
    /// *finished* — delivered **and** dropped — because a dropped packet
    /// consumed the same pipeline work as a delivered one. Divide
    /// `delivered` by `elapsed` instead for goodput. Returns `0.0` when
    /// the run had no measurable duration.
    pub fn pps(&self) -> f64 {
        if self.elapsed.as_secs_f64() <= 0.0 {
            return 0.0;
        }
        (self.delivered + self.dropped) as f64 / self.elapsed.as_secs_f64()
    }

    /// What the run did, as every executor records it.
    pub fn record(&self) -> RunRecord {
        let (all, per_nf) = (self.stats.folded(), self.per_nf.iter().copied());
        all.record(self.injected, self.delivered, self.dropped, per_nf)
    }
}

/// The classifier's feed, run by the group that holds the classifier:
/// admits straight off the injection ring, at most a burst per pass, with
/// no buffer in between. A pool-exhausted admission holds its packet for
/// the next pass and leaves the rest on the ring (FIFO and dense-PID
/// order preserved) instead of blocking the thread.
struct Intake {
    rx: Consumer<Packet>,
    /// Where the buffers of drops and rejects go back to the injector
    /// (`run_io`). Nothing waits on it: without it, or when it is full,
    /// they are freed here.
    spent: Option<Producer<Packet>>,
    /// The packet a pool-exhausted admission handed back.
    held: Option<Packet>,
    /// Packets taken off the ring and finished with (admitted or
    /// rejected) — the injection ordinal of the next one.
    seen: u64,
    /// Injection ordinals of rejected packets, ascending. A reject takes
    /// an injection slot but no PID; the latency pairing skips these.
    rejected_at: Vec<u64>,
}

impl Intake {
    fn pull(&mut self, dispatcher: &mut Dispatcher, cx: &Shared) -> bool {
        let queued = self.rx.len();
        cx.stats_of(Stage::Classifier).note_occupancy(queued);
        let burst = (queued + usize::from(self.held.is_some())).min(BURST);
        if burst == 0 {
            return false;
        }
        let before = self.seen;
        // The injector wrote these frames on its own core: start pulling
        // their headers into this one's cache before the first parse.
        self.rx.peek(burst, Packet::prefetch);
        // One epoch pin per packet the burst may admit, reserved at once.
        dispatcher.classifier.begin_burst(burst);
        for _ in 0..burst {
            let Some(pkt) = self.held.take().or_else(|| self.rx.pop()) else {
                break;
            };
            match dispatcher.admit(cx, pkt) {
                Ok(()) => {}
                Err((AdmitError::PoolExhausted, back)) => {
                    self.held = Some(*back.expect("pool backpressure hands the packet back"));
                    break;
                }
                Err(_) => self.rejected_at.push(self.seen),
            }
            self.seen += 1;
        }
        // Unused pins go back; the rejects of this burst finished here.
        dispatcher.classifier.end_burst();
        dispatcher.publish(cx);
        for pkt in dispatcher.spent.drain(..) {
            if let Some(tx) = &self.spent {
                let _ = tx.push(pkt);
            }
        }
        self.seen > before
    }

    fn is_empty(&self) -> bool {
        self.rx.is_empty() && self.held.is_none()
    }
}

/// One delivery's latency stamp: pid and collection time.
type Stamp = (u64, Instant);

/// What a stage group's thread hands back when it exits.
struct GroupExit {
    runtimes: Vec<Runtime>,
    stamps: Vec<Stamp>,
    rejected_at: Vec<u64>,
}

/// The injecting thread's end of one replica: its injection ring and
/// window, the ring its deliveries come back on (when the caller wants
/// them), and the injection time of every packet it was handed.
struct Lane<'a> {
    cx: &'a Shared,
    tx: Producer<Packet>,
    rx: Option<Consumer<Packet>>,
    /// The ring the replica's spent buffers come back on (`run_io`).
    spent: Option<Consumer<Packet>>,
    /// Deliveries taken off `rx` so far.
    received: u64,
    inject_times: Vec<Instant>,
    /// The finished count the current burst's room was read from, and
    /// what is left of that room.
    finished: u64,
    room: u64,
    gauges: Option<Arc<ProbeGauges>>,
}

impl Lane<'_> {
    fn injected(&self) -> u64 {
        self.inject_times.len() as u64
    }

    /// Read the finished count once and size the window's room from it,
    /// at most a burst. The count only grows, so the window is a hard
    /// bound; it may lag the packets by a stage burst, which only makes
    /// the room smaller.
    fn open(&mut self, window: u64) {
        self.finished = self.cx.finished();
        let in_flight = self.injected().saturating_sub(self.finished);
        self.room = window.saturating_sub(in_flight).min(BURST as u64);
    }

    /// Publish the replica's live gauges (no-op without a probe).
    fn publish(&self, handle: &ProgramHandle) {
        let Some(g) = &self.gauges else { return };
        let cx = self.cx;
        // Straggler debt = copies expired merges were owed minus the ones
        // that arrived since; both only grow. `arrived` is read before the
        // occupancy (a straggler's slot is released before it is counted
        // as arrived, release / acquire), and `owed` was counted before the
        // expiry let this thread inject the window's extra packet — so the
        // difference never understates the slots stragglers held when the
        // occupancy was read.
        let mergers = || (0..cx.layout.mergers).map(|m| cx.stats_of(Stage::Merger(m)));
        let arrived: u64 = mergers()
            .map(|s| s.late_arrivals.load(Ordering::Acquire))
            .sum();
        let in_use = cx.pool.in_use() as u64;
        let owed: u64 = mergers()
            .map(|s| s.stragglers_owed.load(Ordering::Relaxed))
            .sum();
        g.publish(
            self.injected(),
            cx.delivered.load(Ordering::Relaxed),
            cx.dropped.load(Ordering::Relaxed),
            in_use,
            owed.saturating_sub(arrived),
            handle.epoch(),
        );
    }
}

/// Where a run's spent buffers go: the ingress's `recycle`.
type Recycle<'s> = &'s mut dyn FnMut(&mut Vec<Packet>);

/// The calling thread's side of a run: a lane per replica, the sink
/// their deliveries go to, and where their spent buffers go.
struct Injector<'a, 's> {
    lanes: Vec<Lane<'a>>,
    burst: Vec<Packet>,
    sink: &'s mut dyn FnMut(usize, &mut Vec<Packet>),
    recycle: Option<Recycle<'s>>,
}

impl Injector<'_, '_> {
    /// Take a burst off every delivery ring to the sink, and one off every
    /// spent ring to `recycle`; true if there was a delivery.
    fn drain(&mut self) -> bool {
        let mut any = false;
        for (r, lane) in self.lanes.iter_mut().enumerate() {
            if let (Some(rx), Some(recycle)) = (&lane.spent, &mut self.recycle) {
                if rx.pop_burst(&mut self.burst, BURST) > 0 {
                    recycle(&mut self.burst);
                    self.burst.clear();
                }
            }
            if let Some(rx) = &lane.rx {
                if rx.pop_burst(&mut self.burst, BURST) > 0 {
                    lane.received += self.burst.len() as u64;
                    (self.sink)(r, &mut self.burst);
                    self.burst.clear();
                    any = true;
                }
            }
        }
        any
    }
}

/// What every group thread of one run shares, besides the dispatchers'
/// [`Shared`] state.
struct GroupCtl<'a> {
    config: &'a EngineConfig,
    hub: WakeHub,
    /// Two-phase shutdown. `stop` ends injection (the intake is done once
    /// its ring drains). `quiesce` releases the groups — it is raised only
    /// after the pool is empty, because a deadline-expired merge accounts
    /// its packet while a straggler copy from the stalled NF may still be
    /// in flight toward the merger's tombstone; stages must keep draining
    /// until that last reference is released or it would leak.
    stop: AtomicBool,
    quiesce: AtomicBool,
    /// Watchdog: one heartbeat per group of every replica, bumped once
    /// per scheduling pass (the per-NF busy flags and stall verdicts are
    /// in each replica's `Shared::watch`). Padded: every group writes its
    /// own on every pass.
    heartbeats: Vec<CachePadded<AtomicU64>>,
}

/// A stage group's thread: drive `dispatcher` over its replica's `cx`
/// (and the classifier's `intake`, for the group that holds it) until the
/// run quiesces, idling per the engine's policy on no-progress passes.
/// `g` numbers the group across the replicas. The collector's group gets
/// `deliver`, the ring delivered packets go back on, when the caller wants
/// them; a full ring leaves them in a local backlog for the next pass,
/// like every other ring of the engine.
fn drive_group(
    ctl: &GroupCtl<'_>,
    cx: &Shared,
    g: usize,
    mut dispatcher: Dispatcher,
    mut intake: Option<Intake>,
    deliver: Option<Producer<Packet>>,
) -> GroupExit {
    let config = ctl.config;
    if !config.pin_cpus.is_empty() {
        crate::exec::pin_current_thread(config.pin_cpus[g % config.pin_cpus.len()]);
    }
    let mut idler = Idler::new(&ctl.hub, config.idle_policy);
    let mut stamps: Vec<Stamp> = Vec::new();
    let mut backlog: VecDeque<Packet> = VecDeque::new();
    loop {
        // The heartbeat tells the watchdog this thread is scheduling, not
        // stuck inside an NF; a stall verdict is honored before touching
        // more traffic.
        ctl.heartbeats[g].fetch_add(1, Ordering::Relaxed);
        dispatcher.fail_stalled(cx);
        let mut progress = intake
            .as_mut()
            .is_some_and(|intake| intake.pull(&mut dispatcher, cx));
        progress |= dispatcher.pass(cx);
        progress |= dispatcher.expire(cx);
        if !dispatcher.outputs.is_empty() {
            let t_out = Instant::now();
            stamps.extend(
                dispatcher
                    .outputs
                    .iter()
                    .map(|pkt| (pkt.meta().pid(), t_out)),
            );
            match &deliver {
                Some(_) => backlog.extend(dispatcher.outputs.drain(..)),
                None => dispatcher.outputs.clear(),
            }
        }
        if let Some(tx) = &deliver {
            while let Some(pkt) = backlog.pop_front() {
                match tx.push(pkt) {
                    Ok(()) => progress = true,
                    Err(back) => {
                        backlog.push_front(back);
                        break;
                    }
                }
            }
        }
        let fed = match &intake {
            Some(intake) => ctl.stop.load(Ordering::Acquire) && intake.is_empty(),
            None => true,
        };
        if fed && ctl.quiesce.load(Ordering::Acquire) && dispatcher.idle() && backlog.is_empty() {
            break;
        }
        if progress {
            idler.reset();
            // Work we produced may feed a group parked on another thread
            // (or the injector, waiting on the in-flight window).
            ctl.hub.notify();
        } else {
            idler.idle(|| {
                !dispatcher.idle()
                    || !backlog.is_empty()
                    || intake.as_ref().is_some_and(|i| !i.is_empty())
            });
        }
    }
    // Peers may be parked waiting on state we just flushed.
    ctl.hub.notify();
    GroupExit {
        runtimes: dispatcher.runtimes,
        stamps,
        rejected_at: intake.map(|i| i.rejected_at).unwrap_or_default(),
    }
}

/// A cloneable, thread-safe handle for reconfiguring a running [`Engine`]
/// from outside its run loop: it shares the engine's [`ProgramHandle`]
/// and knows the fixed executor limits (pool, in-flight window) a
/// candidate program must fit.
#[derive(Debug, Clone)]
pub struct EngineController {
    handle: Arc<ProgramHandle>,
    pool_size: usize,
    max_in_flight: usize,
    drain_timeout: Duration,
}

impl EngineController {
    /// The engine's current program epoch.
    pub(crate) fn epoch(&self) -> u64 {
        self.handle.epoch()
    }

    /// Hot-swap `program` in as the new current epoch and wait for the
    /// superseded epoch to drain (bounded by the engine's stall timeout).
    ///
    /// The swap is validated first — footprint against the engine's fixed
    /// pool, then the orchestrator's compatibility diff — and any
    /// rejection leaves the running engine untouched. On success the
    /// returned [`EpochReport`] records the diff, the install-to-retire
    /// latency and the old epoch's final accounting.
    pub fn reconfigure(&self, program: Program) -> Result<EpochReport, ReconfigError> {
        self.handle.swap(
            program,
            self.pool_size,
            self.max_in_flight,
            self.drain_timeout,
        )
    }
}

/// The threaded engine: one executor for a sealed [`Program`]. Build once,
/// run many times — and [`reconfigure`](Engine::reconfigure) between or
/// during runs.
///
/// An engine runs one or more *replicas* of the program (a
/// [`ShardedEngine`](crate::shard::ShardedEngine) is one engine with a
/// replica per shard): each has its own NF instances and, per run, its own
/// pool, counters, telemetry and stage groups, all on one [`ProgramHandle`].
pub struct Engine {
    handle: Arc<ProgramHandle>,
    /// Each replica's NF instances, in `NodeId` order.
    replicas: Vec<Vec<Box<dyn NetworkFunction>>>,
    /// Every replica's configuration (pool, window, core budget).
    config: EngineConfig,
}

impl Engine {
    /// Create an engine executing `program` with NF instances ordered by
    /// `NodeId`. Validates the configuration against the program's pool
    /// footprint — a pool that cannot cover the in-flight window is
    /// rejected here rather than wedging a run later.
    pub fn new(
        program: Program,
        nfs: Vec<Box<dyn NetworkFunction>>,
        config: EngineConfig,
    ) -> Result<Engine, EngineError> {
        Self::fleet(program, vec![nfs], config)
    }

    /// [`Engine::new`] with one replica per NF set of `replicas`.
    pub(crate) fn fleet(
        program: Program,
        replicas: Vec<Vec<Box<dyn NetworkFunction>>>,
        config: EngineConfig,
    ) -> Result<Engine, EngineError> {
        if let Some(nfs) = replicas.iter().find(|nfs| nfs.len() != program.nf_count()) {
            return Err(EngineError::NfCountMismatch {
                expected: program.nf_count(),
                got: nfs.len(),
            });
        }
        if config.mergers == 0 {
            return Err(EngineError::NoMergers);
        }
        if config.core_budget == 0 {
            return Err(EngineError::ZeroCoreBudget);
        }
        let host = crate::exec::host_parallelism();
        if let Some(&cpu) = config.pin_cpus.iter().find(|&&cpu| cpu >= host) {
            return Err(EngineError::PinCpuOutOfRange { cpu, host });
        }
        if let crate::exec::IdlePolicy::Backoff { park_timeout, .. } = config.idle_policy {
            if park_timeout.is_zero() {
                return Err(EngineError::ZeroParkTimeout);
            }
        }
        let slots = program.slots_per_packet();
        let required = config.max_in_flight.max(1) * slots;
        if config.pool_size < required {
            return Err(EngineError::PoolTooSmall {
                pool_size: config.pool_size,
                required,
                max_in_flight: config.max_in_flight,
                slots_per_packet: slots,
            });
        }
        Ok(Self {
            handle: Arc::new(ProgramHandle::new(program)),
            replicas,
            config,
        })
    }

    /// The engine's swappable program slot (shared with every stage).
    pub fn handle(&self) -> &Arc<ProgramHandle> {
        &self.handle
    }

    /// The current program epoch.
    pub fn epoch(&self) -> u64 {
        self.handle.epoch()
    }

    /// Number of replicas.
    pub(crate) fn replicas(&self) -> usize {
        self.replicas.len()
    }

    /// A detached controller for reconfiguring this engine — including
    /// from another thread while [`Engine::run`] is live.
    pub fn controller(&self) -> EngineController {
        EngineController {
            handle: Arc::clone(&self.handle),
            pool_size: self.config.pool_size,
            max_in_flight: self.config.max_in_flight,
            drain_timeout: self.config.stall_timeout,
        }
    }

    /// Hot-swap to `program`; see [`EngineController::reconfigure`].
    pub fn reconfigure(&mut self, program: Program) -> Result<EpochReport, ReconfigError> {
        self.controller().reconfigure(program)
    }

    /// Run the engine over `packets` (closed loop) and report.
    pub fn run(&mut self, packets: Vec<Packet>) -> EngineReport {
        let mut kept = Vec::new();
        let mut reports = self.run_batch(packets, false, &mut |_, burst| kept.append(burst));
        EngineReport {
            packets: kept,
            ..reports.remove(0)
        }
    }

    /// [`Engine::run`] with a report per replica, in replica order.
    pub(crate) fn run_per_replica(&mut self, packets: Vec<Packet>) -> Vec<EngineReport> {
        let mut kept: Vec<Vec<Packet>> = self.replicas.iter().map(|_| Vec::new()).collect();
        let reports = self.run_batch(packets, true, &mut |r, burst| kept[r].append(burst));
        let reports = reports.into_iter().zip(kept);
        reports
            .map(|(report, packets)| EngineReport { packets, ..report })
            .collect()
    }

    fn run_batch(
        &mut self,
        packets: Vec<Packet>,
        split: bool,
        sink: &mut dyn FnMut(usize, &mut Vec<Packet>),
    ) -> Vec<EngineReport> {
        let expected = packets.len();
        let mut packets = packets.into_iter();
        let keep = self.config.keep_packets;
        self.run_feed(&mut || packets.next(), expected, keep, split, sink, None)
    }

    /// Run the engine against a pluggable [`Ingress`]/[`Egress`] backend
    /// pair: bursts of [`EngineConfig::io_burst`] packets are pulled and
    /// injected on the caller thread until the ingress reports end of
    /// stream, and every delivered packet is emitted to `egress` on the
    /// same thread as it completes (in collector completion order), so the
    /// run holds a window of packets per replica, not the stream; the
    /// egress is flushed at the end. An ingress or egress error stops
    /// injection or emission; everything already injected still drains
    /// before the first error is returned. The delivered packets stay in
    /// the report when [`EngineConfig::keep_packets`] is on; otherwise each
    /// emitted burst goes back to the ingress ([`Ingress::recycle`]), on
    /// the thread that pulls from it, so its packets can be refilled in
    /// place. The buffers of drops and rejects go back too: each
    /// replica's classifier group sends them to this thread on a ring of
    /// their own, and frees them itself only when that ring is full.
    pub fn run_io(
        &mut self,
        ingress: &mut dyn Ingress,
        egress: &mut dyn Egress,
    ) -> Result<(EngineReport, RunRecord), IoError> {
        let keep = self.config.keep_packets;
        let burst = self.config.io_burst.max(1);
        // Pulls and hand-backs both run on this (the injector) thread, one
        // at a time.
        let ingress = RefCell::new(ingress);
        // The pulled burst is buffered here so backpressure
        // (`max_in_flight`, ring-full retries) applies per packet,
        // exactly as in the batch path.
        let mut buffered = VecDeque::new();
        let mut error = None;
        let mut next = || loop {
            if let Some(pkt) = buffered.pop_front() {
                return Some(pkt);
            }
            match ingress.borrow_mut().next_burst(burst) {
                Ok(Some(pkts)) => buffered.extend(pkts),
                Ok(None) => return None,
                Err(e) => {
                    error = Some(e);
                    return None;
                }
            }
        };
        let mut kept = Vec::new();
        let mut emit_error = None;
        let mut emit = |_, out: &mut Vec<Packet>| {
            if emit_error.is_none() {
                emit_error = egress.emit_burst(out).err();
            }
            if keep {
                kept.append(out);
            } else {
                ingress.borrow_mut().recycle(out);
            }
        };
        let mut recycle = |spent: &mut Vec<Packet>| ingress.borrow_mut().recycle(spent);
        let recycle: Option<Recycle> = Some(&mut recycle);
        let mut reports = self.run_feed(&mut next, burst * 32, true, false, &mut emit, recycle);
        let report = EngineReport {
            packets: kept,
            ..reports.remove(0)
        };
        if let Some(e) = error.or(emit_error) {
            return Err(e);
        }
        egress.flush()?;
        let record = report.record();
        Ok((report, record))
    }

    /// The run loop every entry point shares: inject what `next` yields
    /// until it runs dry (`expected` sizes the bookkeeping), drain, and
    /// report — once for the engine, or per replica with `split`. Each
    /// packet goes onto its replica's injection ring ([`shard_of`], with
    /// more than one replica) under that replica's window. With `deliver`,
    /// `sink` is handed every delivered packet on the calling thread, in
    /// bursts tagged with their replica, in collector completion order,
    /// while the run is going (it takes what it wants out of the burst; the
    /// rest is dropped). With `recycle`, the buffers of drops and rejects
    /// come back to the calling thread too, and go to `recycle`.
    fn run_feed<'s>(
        &mut self,
        next: &mut dyn FnMut() -> Option<Packet>,
        expected: usize,
        deliver: bool,
        split: bool,
        sink: &'s mut dyn FnMut(usize, &mut Vec<Packet>),
        recycle: Option<Recycle<'s>>,
    ) -> Vec<EngineReport> {
        let config = &self.config;
        let n = self.replicas.len();
        let layout = Layout {
            nfs: self.replicas[0].len(),
            mergers: config.mergers,
        };
        // Snapshot the current program for executor construction (ring
        // mesh, runtime configs). A mid-run hot swap only ever installs a
        // topology-identical successor, so the mesh built here stays valid
        // across epochs; per-packet table lookups go through epoch-keyed
        // [`crate::swap::TablesResolver`]s instead of this snapshot.
        let handle = &self.handle;
        let program = handle.current().program().clone();

        // Threading model: one dispatcher per group of stages, the same
        // plan for every replica. Front section: classifier + NFs. Back
        // section: agent + mergers + collector. Budgets ≥ 2 never mix the
        // sections, so a blocking NF cannot starve merge-deadline
        // enforcement.
        let groups = crate::exec::plan_pipeline_groups(
            1 + layout.nfs,
            2 + layout.mergers,
            config.core_budget.max(1),
        );
        let per = groups.len();
        let group_of = |stage: Stage| {
            let slot = layout.slot(stage);
            groups
                .iter()
                .position(|g| g.contains(&slot))
                .expect("the group plan covers every stage")
        };
        let nf_group: Vec<usize> = (0..layout.nfs).map(|i| group_of(Stage::Nf(i))).collect();
        let stall_timeout = config.stall_timeout;
        let max_in_flight = config.max_in_flight.max(1) as u64;
        let cxs: Vec<Shared> = (0..n)
            .map(|_| {
                Shared::new(
                    layout,
                    config.pool_size,
                    Arc::clone(handle),
                    Telemetry::new(config.telemetry.clone(), layout.nfs, layout.mergers),
                    Clock::Wall(Instant::now()),
                    config.merge_deadline.as_millis() as u64,
                )
            })
            .collect();

        let started = Instant::now();
        let ctl = GroupCtl {
            config,
            hub: WakeHub::new(),
            stop: AtomicBool::new(false),
            quiesce: AtomicBool::new(false),
            heartbeats: (0..n * per).map(|_| CachePadded::default()).collect(),
        };
        let (hub, heartbeats) = (&ctl.hub, &ctl.heartbeats);
        let mut inj = Injector {
            lanes: Vec::with_capacity(n),
            burst: Vec::with_capacity(BURST),
            sink,
            recycle,
        };

        let exits: Vec<GroupExit> = std::thread::scope(|scope| {
            let mut group_handles = Vec::with_capacity(n * per);
            for (r, (cx, nfs)) in cxs.iter().zip(&mut self.replicas).enumerate() {
                // Instantiate the program's wiring plan: one SPSC ring per
                // (producer stage, consumer stage) edge the grouping cuts,
                // and a typed outcome ring per merger instance separated
                // from the agent. Edges inside a group need no ring.
                let mut rings: Vec<Rings> = groups.iter().map(|_| Rings::default()).collect();
                for from in layout.stages() {
                    for to in program.wiring().targets_of(from, layout.mergers) {
                        let (gf, gt) = (group_of(from), group_of(to));
                        if gf != gt {
                            let (tx, rx) = ring::channel(config.ring_capacity);
                            rings[gf].outputs.push((from, to, tx));
                            rings[gt].inputs.push((to, rx));
                        }
                    }
                }
                let agent_group = group_of(Stage::Agent);
                for m in 0..layout.mergers {
                    let gm = group_of(Stage::Merger(m));
                    if gm != agent_group {
                        let (tx, rx) = ring::channel(config.ring_capacity);
                        rings[gm].outcome_outputs.push((m, tx));
                        rings[agent_group].outcome_inputs.push(rx);
                    }
                }
                // The injection ring into the classifier's group (always
                // the first) and, when the caller recycles, the spent ring
                // back out of it; the delivery ring out of the collector's
                // group (always the last) when the caller wants the packets.
                let (tx, rx) = ring::channel::<Packet>(config.ring_capacity);
                let (spent_tx, spent_rx) = (inj.recycle.is_some())
                    .then(|| ring::channel::<Packet>(config.ring_capacity))
                    .unzip();
                let mut intake = Some(Intake {
                    rx,
                    spent: spent_tx,
                    held: None,
                    seen: 0,
                    rejected_at: Vec::new(),
                });
                let (mut deliver_tx, deliver_rx) = deliver
                    .then(|| ring::channel::<Packet>(config.ring_capacity))
                    .unzip();
                // Take the NFs out for the duration of the run; each
                // group's dispatcher takes the runtimes of its own NFs.
                let mut runtimes = std::mem::take(nfs)
                    .into_iter()
                    .zip(program.tables().nf_configs.iter().cloned())
                    .map(|(nf, cfg)| NfRuntime::new(nf, cfg));
                // One thread per group of every replica, each driving its
                // dispatcher; replica `r`'s group `k` is group `r × per + k`.
                for (k, (group, rings)) in groups.iter().zip(rings).enumerate() {
                    let dispatcher = Dispatcher::new(cx, group.clone(), &mut runtimes, rings);
                    let (ctl, intake) = (&ctl, intake.take());
                    let deliver = deliver_tx.take_if(|_| k == per - 1);
                    group_handles.push(scope.spawn(move || {
                        drive_group(ctl, cx, r * per + k, dispatcher, intake, deliver)
                    }));
                }
                // Live-audit gauges: one slot per replica, budget = its
                // window's worst-case pool footprint.
                let gauges = config.probe.as_ref().map(|p| p.register());
                if let Some(g) = &gauges {
                    let budget = max_in_flight * program.slots_per_packet() as u64;
                    g.pool_budget.store(budget, Ordering::Relaxed);
                    g.active.store(true, Ordering::Release);
                }
                inj.lanes.push(Lane {
                    cx,
                    tx,
                    rx: deliver_rx,
                    spent: spent_rx,
                    received: 0,
                    inject_times: Vec::with_capacity(expected.div_ceil(n)),
                    finished: 0,
                    room: 0,
                    gauges,
                });
            }

            // Cooperative stall watchdog, polled from this thread's wait
            // loops: when the whole engine makes no progress for
            // `stall_timeout` while some NF sits busy on a thread whose
            // heartbeat is static, that NF is holding the pipeline hostage
            // — hand down a failed verdict so its dispatcher force-fails
            // the runtime the next time the NF yields control back (an NF
            // that never returns at all is unrecoverable; see DESIGN.md).
            let mut wd_total: (u64, Instant) = (0, Instant::now());
            let mut wd_hb: Vec<(u64, Instant)> =
                heartbeats.iter().map(|_| (0, Instant::now())).collect();
            let mut check_stall = || {
                let now = Instant::now();
                let total: u64 = cxs.iter().map(Shared::finished).sum();
                if total != wd_total.0 {
                    wd_total = (total, now);
                }
                for (hb, slot) in heartbeats.iter().zip(wd_hb.iter_mut()) {
                    let hb = hb.load(Ordering::Relaxed);
                    if hb != slot.0 {
                        *slot = (hb, now);
                    }
                }
                if now.duration_since(wd_total.1) < stall_timeout {
                    return;
                }
                for (r, cx) in cxs.iter().enumerate() {
                    for (watch, &g) in cx.watch.iter().zip(&nf_group) {
                        if watch.busy.load(Ordering::Acquire)
                            && now.duration_since(wd_hb[r * per + g].1) >= stall_timeout
                        {
                            watch.failed.store(true, Ordering::Release);
                        }
                    }
                }
            };

            // Closed-loop injection on this thread, idling adaptively
            // like the groups (the bounded park keeps the watchdog
            // running; any group's progress notifies the hub and wakes us).
            // Every wait publishes the gauges and takes deliveries off
            // their rings first, and only idles when there were none.
            let mut idler = Idler::new(hub, config.idle_policy);
            let mut idle_step =
                |inj: &mut Injector, idler: &mut Idler, ready: &dyn Fn(&[Lane]) -> bool| {
                    check_stall();
                    inj.lanes.iter().for_each(|lane| lane.publish(handle));
                    if inj.drain() {
                        idler.reset();
                    } else {
                        let delivering =
                            |lane: &Lane| lane.rx.as_ref().is_some_and(|rx| !rx.is_empty());
                        idler.idle(|| ready(&inj.lanes) || inj.lanes.iter().any(delivering));
                    }
                };
            // A burst at a time: one read of each replica's finished count
            // says how much room its window has; packets go onto their
            // replica's ring, at most a burst in all, and only then is the
            // hub notified and the delivery rings drained. A packet its
            // replica has no room or no ring space for is `held` — with the
            // time it was first offered to a ring, if it was — and nothing
            // behind it goes in before it does, so no flow is reordered.
            let mut held: Option<(Packet, usize, Option<Instant>)> = None;
            let mut fed = false;
            while !fed {
                for lane in &mut inj.lanes {
                    lane.open(max_in_flight);
                }
                let blocked = match &held {
                    Some((_, r, _)) => inj.lanes[*r].room == 0,
                    None => inj.lanes.iter().all(|lane| lane.room == 0),
                };
                if blocked {
                    idle_step(&mut inj, &mut idler, &|lanes| {
                        lanes.iter().any(|lane| lane.cx.finished() > lane.finished)
                    });
                    continue;
                }
                // After the reads the room came from and before the burst:
                // what the gauges say was finished is then never older
                // than what let the packets they count as injected in.
                inj.lanes.iter().for_each(|lane| lane.publish(handle));
                let mut pushed = 0;
                while pushed < BURST {
                    let (pkt, r, offered) = match held.take().or_else(|| {
                        let pkt = next()?;
                        let r = if n > 1 { shard_of(&pkt, n) } else { 0 };
                        Some((pkt, r, None))
                    }) {
                        Some(packet) => packet,
                        None => {
                            fed = true;
                            break;
                        }
                    };
                    let lane = &mut inj.lanes[r];
                    if lane.room == 0 {
                        held = Some((pkt, r, offered));
                        break;
                    }
                    let t_in = offered.unwrap_or_else(Instant::now);
                    if let Err(back) = lane.tx.push(pkt) {
                        held = Some((back, r, Some(t_in)));
                        break;
                    }
                    lane.inject_times.push(t_in);
                    lane.room -= 1;
                    pushed += 1;
                }
                if pushed > 0 {
                    idler.reset();
                    // The classifiers' groups may be parked: wake them.
                    hub.notify();
                    inj.drain();
                } else if let Some(&(_, r, _)) = held.as_ref() {
                    let queued = inj.lanes[r].tx.len();
                    idle_step(&mut inj, &mut idler, &|lanes| {
                        let lane = &lanes[r];
                        lane.tx.len() < queued || lane.cx.finished() > lane.finished
                    });
                }
            }
            // Wait for completion — every packet accounted, every delivery
            // taken off its ring — then stop injection. The delivered count
            // is read after the finished count: read before it, it could
            // predate the last deliveries that the finished count includes.
            let done = |lanes: &[Lane]| {
                lanes.iter().all(|lane| {
                    lane.cx.finished() >= lane.injected()
                        && (lane.rx.is_none()
                            || lane.received >= lane.cx.delivered.load(Ordering::Acquire))
                })
            };
            while !done(&inj.lanes) {
                idle_step(&mut inj, &mut idler, &done);
            }
            ctl.stop.store(true, Ordering::Release);
            hub.notify();
            // Every packet is accounted, but straggler copies of
            // deadline-expired merges may still be in flight toward their
            // tombstones. Hold the groups until every pool is empty — only
            // then is it safe to let them exit without leaking.
            let drained = |lanes: &[Lane]| lanes.iter().all(|lane| lane.cx.pool.in_use() == 0);
            while !drained(&inj.lanes) {
                idle_step(&mut inj, &mut idler, &drained);
            }
            ctl.quiesce.store(true, Ordering::Release);
            hub.notify();

            group_handles
                .into_iter()
                .map(|h| h.join().expect("engine stage group"))
                .collect()
        });
        let elapsed = started.elapsed();
        for lane in &inj.lanes {
            lane.publish(handle);
            if let Some(g) = &lane.gauges {
                g.active.store(false, Ordering::Release);
            }
        }

        // One report per replica with `split`, else one for the engine:
        // counters add up over the replicas a report covers, stage
        // counters and histograms fold stage by stage, and each replica's
        // trace hops carry its index (PIDs are dense per replica).
        let injected = inj.lanes.iter().map(|lane| lane.inject_times.len()).sum();
        let mut reports: Vec<_> = (0..if split { n } else { 1 })
            .map(|_| {
                (
                    EngineReport::default(),
                    LatencyRecorder::with_capacity(injected),
                )
            })
            .collect();
        let mut exits = exits.into_iter();
        let lanes = inj.lanes.into_iter().zip(&mut self.replicas).enumerate();
        for (r, (lane, nfs)) in lanes {
            let (report, latency) = &mut reports[if split { r } else { 0 }];
            let exits: Vec<GroupExit> = exits.by_ref().take(per).collect();
            let cx = lane.cx;
            report.injected += lane.injected();
            report.delivered += cx.delivered.load(Ordering::Acquire);
            report.dropped += cx.dropped.load(Ordering::Acquire);
            report.stats.merge(&cx.engine_stats());
            report.pool_in_use += cx.pool.in_use();
            let mut telemetry = cx.telemetry.snapshot();
            telemetry.tag_shard(r as u32);
            report.telemetry.merge(&telemetry);
            // Pair each delivery with its own injection. PIDs are dense
            // over *admitted* packets, while a rejected packet took an
            // injection slot and no PID: drop the rejected ordinals
            // (ascending) from the injection times and what is left is
            // indexed by PID.
            let mut rejected = exits[0].rejected_at.iter().copied().peekable();
            let admitted_at: Vec<Instant> = lane
                .inject_times
                .into_iter()
                .zip(0u64..)
                .filter(|&(_, ordinal)| rejected.next_if_eq(&ordinal).is_none())
                .map(|(t_in, _)| t_in)
                .collect();
            // Groups are contiguous in pipeline order, so their runtimes
            // concatenate back into `NodeId` order.
            for exit in exits {
                for (pid, t_out) in exit.stamps {
                    if let Some(t_in) = admitted_at.get(pid as usize) {
                        latency.record(t_out.duration_since(*t_in));
                    }
                }
                // Recover the NFs for subsequent runs, harvesting failure
                // records and per-NF counts on the way out.
                for rt in exit.runtimes {
                    let node = nfs.len();
                    report.failures.extend(NfFailure::of(node, &rt));
                    match report.per_nf.get_mut(node) {
                        Some(c) => *c = (c.0 + rt.processed, c.1 + rt.dropped),
                        None => report.per_nf.push((rt.processed, rt.dropped)),
                    }
                    nfs.push(rt.into_nf());
                }
            }
        }
        // The epoch history is read last: a swap fired as the run winds
        // down has the whole pairing pass above to land and show in it
        // (`tests/threaded_engine.rs` expects a tally per completed swap).
        let reports = reports.into_iter();
        reports
            .map(|(report, latency)| EngineReport {
                elapsed,
                latency: latency.summary(),
                epoch: handle.epoch(),
                epochs: handle.tallies(),
                parks: ctl.hub.parks(),
                wakes: ctl.hub.wakes(),
                ..report
            })
            .collect()
    }

    /// Export each NF's per-flow state, one [`FlowSnapshot`] per NF
    /// position (in `NodeId` order, matching the program's node
    /// numbering), every replica's entries merged and sorted by flow key.
    /// Stateless positions export empty snapshots. Call between runs — the
    /// closed loop guarantees no packet is in flight then, so the snapshot
    /// is a consistent cut.
    pub fn export_flow_state(&self) -> Vec<FlowSnapshot> {
        let mut merged: Vec<FlowSnapshot> = self.replicas[0]
            .iter()
            .map(|nf| nf.snapshot_state())
            .collect();
        for nfs in &self.replicas[1..] {
            for (snap, nf) in merged.iter_mut().zip(nfs) {
                snap.merge(nf.snapshot_state());
            }
        }
        for snap in &mut merged {
            snap.entries.sort_by_key(|(k, _)| *k);
        }
        merged
    }

    /// Restore per-position snapshots exported by [`Engine::export_flow_state`]:
    /// replica `i` of `n` takes the flows of its RSS partition
    /// ([`FlowSnapshot::retain_shard`]). Positions beyond the snapshot
    /// vector, and empty snapshots, are left untouched. Returns the
    /// number of flow entries restored.
    pub(crate) fn import_flow_state(&mut self, snaps: &[FlowSnapshot]) -> u64 {
        let n = self.replicas.len();
        let mut imported = 0;
        for (i, nfs) in self.replicas.iter_mut().enumerate() {
            for (nf, snap) in nfs.iter_mut().zip(snaps) {
                let mut part = snap.clone();
                part.retain_shard(i, n);
                if !part.is_empty() {
                    nf.restore_state(&part);
                    imported += part.len() as u64;
                }
            }
        }
        imported
    }

    /// Tell every NF which shard partition this engine serves, arming
    /// the debug-build RSS-ownership assertions on their flow tables.
    #[cfg(all(test, debug_assertions))]
    pub(crate) fn bind_partition(&mut self, index: usize, total: usize) {
        for nf in self.replicas.iter_mut().flatten() {
            nf.bind_partition(index, total);
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use nfp_nf::catalogue;
    use nfp_orchestrator::{compile, CompileOptions, Registry};
    use nfp_packet::ipv4::Ipv4Addr;
    use nfp_policy::Policy;
    use nfp_traffic::{SizeDistribution, TrafficGenerator, TrafficSpec};

    /// `chain` compiled and sealed, with fresh NF instances by `NodeId`.
    pub(crate) fn program_and_nfs(chain: &[&str]) -> (Program, Vec<Box<dyn NetworkFunction>>) {
        let reg = Registry::paper_table2();
        let policy = Policy::from_chain(chain.iter().copied());
        let compiled = compile(&policy, &reg, &[], &CompileOptions::default()).unwrap();
        let nfs = compiled.graph.nodes.iter();
        let nfs = nfs.map(|n| catalogue::make(n.name.as_str()).unwrap());
        (compiled.program(1).unwrap(), nfs.collect())
    }

    fn build(chain: &[&str], config: EngineConfig) -> Engine {
        let (program, nfs) = program_and_nfs(chain);
        Engine::new(program, nfs, config).unwrap()
    }

    /// `n` 128-byte packets over `flows` flows.
    pub(crate) fn flows(n: usize, flows: usize) -> Vec<Packet> {
        TrafficGenerator::new(TrafficSpec {
            flows,
            sizes: SizeDistribution::Fixed(128),
            ..TrafficSpec::default()
        })
        .batch(n)
    }

    fn traffic(n: usize) -> Vec<Packet> {
        flows(n, 16)
    }

    /// `n` packets of `size` bytes over `flows` flows, the first `denied`
    /// of them rewritten to hit the synthetic ACL's deny rule `x`
    /// (dip 172.16.x.0/24, dport 7000 + x).
    fn with_denied(n: usize, flows: usize, size: usize, denied: usize, x: u8) -> Vec<Packet> {
        let sizes = SizeDistribution::Fixed(size);
        let spec = TrafficSpec {
            flows,
            sizes,
            ..TrafficSpec::default()
        };
        let mut pkts = TrafficGenerator::new(spec).batch(n);
        for p in pkts.iter_mut().take(denied) {
            p.set_dip(Ipv4Addr::new(172, 16, x, x)).unwrap();
            p.set_dport(7000 + u16::from(x)).unwrap();
            p.finalize_checksums().unwrap();
        }
        pkts
    }

    #[test]
    fn parallel_graph_delivers_everything() {
        let mut e = build(
            &["Monitor", "Firewall"],
            EngineConfig {
                keep_packets: true,
                max_in_flight: 8,
                ..EngineConfig::default()
            },
        );
        let report = e.run(traffic(200));
        assert_eq!(report.injected, 200);
        assert_eq!(report.delivered, 200);
        assert_eq!(report.dropped, 0);
        assert_eq!(report.packets.len(), 200);
        assert!(report.latency.unwrap().count == 200);
    }

    #[test]
    fn copy_merge_graph_rewrites_like_sync_engine() {
        let mut e = build(
            &["Monitor", "LoadBalancer"],
            EngineConfig {
                keep_packets: true,
                max_in_flight: 4,
                ..EngineConfig::default()
            },
        );
        let report = e.run(traffic(100));
        assert_eq!(report.delivered, 100);
        for p in &report.packets {
            assert_eq!(p.dip().unwrap().0[0], 192, "LB rewrite merged in");
            assert_eq!(p.sip().unwrap(), Ipv4Addr::new(10, 255, 0, 1));
        }
    }

    /// Stream `pkts` through `run_io` from a counting ingress to an
    /// egress that notes how many packets had been pulled at its first
    /// emission; checks the I/O accounting and returns that count with the
    /// report.
    pub(crate) fn first_emission(
        pkts: Vec<Packet>,
        run_io: impl FnOnce(
            &mut dyn Ingress,
            &mut dyn Egress,
        ) -> Result<(EngineReport, RunRecord), IoError>,
    ) -> (u64, EngineReport) {
        use std::cell::Cell;
        use std::rc::Rc;

        struct Counted(nfp_packet::io::VecIngress, Rc<Cell<u64>>);
        impl Ingress for Counted {
            fn next_burst(&mut self, max: usize) -> Result<Option<Vec<Packet>>, IoError> {
                let burst = self.0.next_burst(max)?;
                self.1
                    .set(self.1.get() + burst.as_ref().map_or(0, |b| b.len() as u64));
                Ok(burst)
            }
        }
        struct FirstEmit(Rc<Cell<u64>>, Option<u64>, u64);
        impl Egress for FirstEmit {
            fn emit_burst(&mut self, pkts: &[Packet]) -> Result<(), IoError> {
                self.1.get_or_insert(self.0.get());
                self.2 += pkts.len() as u64;
                Ok(())
            }
        }

        let total = pkts.len() as u64;
        let pulled = Rc::new(Cell::new(0));
        let mut ingress = Counted(nfp_packet::io::VecIngress::new(pkts), Rc::clone(&pulled));
        let mut egress = FirstEmit(pulled, None, 0);
        let (report, io) = run_io(&mut ingress, &mut egress).unwrap();
        assert_eq!((io.pulled, io.delivered, egress.2), (total, total, total));
        (egress.1.expect("something was emitted"), report)
    }

    /// `run_io` emits deliveries while it is still pulling: the egress
    /// sees its first packet long before the ingress runs dry, and no
    /// packet stays behind in the report the caller did not ask to keep.
    #[test]
    fn run_io_emits_while_the_ingress_is_still_feeding() {
        let mut e = build(
            &["Monitor", "Firewall"],
            EngineConfig {
                max_in_flight: 8,
                io_burst: 32,
                ..EngineConfig::default()
            },
        );
        let (at_first, report) = first_emission(traffic(4096), |i, o| e.run_io(i, o));
        // Window 8 plus one pulled burst of 32 bound what can be in hand.
        assert!(
            at_first <= 8 + 2 * 32,
            "first emission after {at_first} pulls"
        );
        assert!(report.packets.is_empty());
    }

    #[test]
    fn drops_counted_in_sequential_chain() {
        // NAT before LB is sequential; use a firewall chain with traffic
        // that hits deny rules instead: dport 7000..7100 denied.
        let mut e = build(&["Monitor", "Firewall"], EngineConfig::default());
        let report = e.run(with_denied(50, 4, 80, 20, 4));
        let r = report.record();
        assert_eq!((r.delivered, r.dropped, r.rejected), (30, 20, 0));
    }

    #[test]
    fn zero_delivered_run_has_no_latency_summary() {
        let mut e = build(&["Monitor", "Firewall"], EngineConfig::default());
        let report = e.run(with_denied(10, 2, 80, 10, 4));
        assert_eq!((report.delivered, report.dropped), (0, 10));
        assert!(report.latency.is_none(), "no samples, no summary");
        // pps counts finished (dropped) packets and stays finite.
        assert!(report.pps().is_finite());
    }

    #[test]
    fn stage_counters_balance_exactly() {
        let mut e = build(
            &["Monitor", "Firewall"],
            EngineConfig {
                mergers: 3,
                max_in_flight: 16,
                ..EngineConfig::default()
            },
        );
        let report = e.run(with_denied(120, 8, 96, 30, 7));
        let s = &report.stats;
        // The report-level closed loop balances.
        assert_eq!(report.injected, report.delivered + report.dropped);
        // Every drop is attributed to a stage and a cause — no silent loss.
        assert_eq!(report.record().causes.iter().sum::<u64>(), report.dropped);
        // The classifier admitted every injected packet exactly once.
        assert_eq!(s.classifier.packets_in, report.injected);
        // The collector delivered what the report says.
        assert_eq!(s.collector.packets_out, report.delivered);
        // Per packet: 2 parallel members → 2 agent-routed copies/nils, all
        // of which reach the merger instances, and one merge each.
        assert_eq!(s.agent.packets_in % report.injected, 0);
        let merger_in: u64 = s.mergers.iter().map(|m| m.packets_in).sum();
        assert_eq!(merger_in, s.agent.packets_in);
        let merges: u64 = s.mergers.iter().map(|m| m.merges).sum();
        assert_eq!(merges, report.injected);
        // Nils emitted by NF runtimes == nils received by mergers.
        let nf_nils: u64 = s.nfs.iter().map(|n| n.nil_packets).sum();
        let merger_nils: u64 = s.mergers.iter().map(|m| m.nil_packets).sum();
        assert_eq!(nf_nils, merger_nils);
    }

    #[test]
    fn misconfigurations_rejected_up_front() {
        let program = program_and_nfs(&["Monitor", "Firewall"]).0;
        // slots_per_packet = 2 for this graph: pool 16 cannot cover 16
        // in-flight packets.
        let err = Engine::new(program.clone(), Vec::new(), EngineConfig::default())
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(
            err,
            EngineError::NfCountMismatch {
                expected: 2,
                got: 0
            }
        ));
        let nfs = || program_and_nfs(&["Monitor", "Firewall"]).1;
        let err = Engine::new(
            program.clone(),
            nfs(),
            EngineConfig {
                mergers: 0,
                ..EngineConfig::default()
            },
        )
        .map(|_| ())
        .unwrap_err();
        assert_eq!(err, EngineError::NoMergers);
        let err = Engine::new(
            program.clone(),
            nfs(),
            EngineConfig {
                pool_size: 16,
                max_in_flight: 16,
                ..EngineConfig::default()
            },
        )
        .map(|_| ())
        .unwrap_err();
        assert_eq!(
            err,
            EngineError::PoolTooSmall {
                pool_size: 16,
                required: 32,
                max_in_flight: 16,
                slots_per_packet: 2
            }
        );
        assert!(err.to_string().contains("16"));
    }

    #[test]
    fn threading_misconfigurations_rejected_up_front() {
        let program = program_and_nfs(&["Monitor", "Firewall"]).0;
        let nfs = || program_and_nfs(&["Monitor", "Firewall"]).1;
        // A zero core budget leaves no thread to run stages on.
        let err = Engine::new(
            program.clone(),
            nfs(),
            EngineConfig {
                core_budget: 0,
                ..EngineConfig::default()
            },
        )
        .map(|_| ())
        .unwrap_err();
        assert_eq!(err, EngineError::ZeroCoreBudget);
        assert!(err.to_string().contains("core_budget"));
        // Pinning to a CPU the host does not have is rejected with both
        // sides of the comparison in the error.
        let host = crate::exec::host_parallelism();
        let err = Engine::new(
            program.clone(),
            nfs(),
            EngineConfig {
                pin_cpus: vec![0, host + 7],
                ..EngineConfig::default()
            },
        )
        .map(|_| ())
        .unwrap_err();
        assert_eq!(
            err,
            EngineError::PinCpuOutOfRange {
                cpu: host + 7,
                host
            }
        );
        // A zero park timeout could sleep through non-notifying progress.
        let err = Engine::new(
            program.clone(),
            nfs(),
            EngineConfig {
                idle_policy: crate::exec::IdlePolicy::Backoff {
                    spin: Duration::from_micros(4),
                    yields: Duration::from_micros(4),
                    park_timeout: Duration::ZERO,
                },
                ..EngineConfig::default()
            },
        )
        .map(|_| ())
        .unwrap_err();
        assert_eq!(err, EngineError::ZeroParkTimeout);
        // The pure-spin policy has no park and needs no timeout.
        assert!(Engine::new(
            program,
            nfs(),
            EngineConfig {
                idle_policy: crate::exec::IdlePolicy::Spin,
                ..EngineConfig::default()
            },
        )
        .is_ok());
    }
}
