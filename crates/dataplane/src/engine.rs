//! The multi-threaded NFP engine.
//!
//! Mirrors the paper's deployment (Figure 3): a classifier stage pulls
//! packets from the input ring, each NF runs its own stage (the paper's
//! one-container-per-core), merger-bound traffic flows through a
//! **merger agent** that load-balances by PID hash onto N merger
//! instances, and merged/finished packets reach a collector.
//!
//! The engine executes a sealed [`Program`] through the stage dispatcher
//! of [`crate::dispatch`] — the same code the deterministic
//! [`crate::sync_engine`] runs inline, so the two engines cannot drift
//! semantically. This module owns only what a *threaded* run adds:
//!
//! **Core-budgeted grouping.** The stages are partitioned, in pipeline
//! order, into at most [`EngineConfig::core_budget`] groups
//! ([`crate::exec::plan_pipeline_groups`]); each group is one dispatcher
//! on one OS thread, optionally pinned ([`EngineConfig::pin_cpus`]). An
//! SPSC ring ([`crate::ring`]) is built only for a wiring-plan edge the
//! grouping *cuts*, plus the injection ring: `core_budget = 1` is the
//! sync engine's loop behind one ring, `core_budget ≥ stages` is the
//! paper's fully distributed mesh. Messages between stages of one group
//! never touch a ring.
//!
//! **Never blocking.** A dispatcher drains a burst from each input ring,
//! runs it to completion through its own stages and pushes what leaves
//! the group in bursts; a full ring leaves the messages stashed for the
//! next pass instead of blocking, which keeps every grouping
//! deadlock-free.
//!
//! **A thread boundary the stage thread does not pay for.** The calling
//! thread injects in bursts: one read of the finished count gives the
//! window's room, up to `min(room, 32)` packets go onto the injection
//! ring, then one wake-up notification and one drain of the delivery
//! ring. The classifier's group admits straight off that ring. Every
//! dispatcher adds what it finished to the shared delivered / dropped
//! totals once per stage burst, so the injector may see them up to a
//! burst late — never early: the window stays a hard bound.
//!
//! **Adaptive idling, by the clock.** A thread that makes no progress
//! backs off spin → yield → park ([`EngineConfig::idle_policy`]) on the
//! time since its last progress, the same bound for the injector and the
//! groups however long their passes are. The bound exceeds the time the
//! other side of a ring needs to serve a burst, so in a steady closed
//! loop nobody parks and the thread that makes progress pays no futex
//! wake for it ([`EngineReport::wakes`]); an idle engine still parks and
//! burns no core, and a late burst wakes it through the engine's
//! [`crate::exec::WakeHub`] at once. Merge-order sequencing (§4.3 result
//! correctness) lives in [`crate::cores::AgentCore`], unchanged.
//!
//! **Deliveries leave as they complete.** When the caller wants the
//! delivered packets ([`EngineConfig::keep_packets`], [`Engine::run_io`])
//! the collector's group hands each one back over an SPSC ring and the
//! injecting thread takes them off between injections — into the report,
//! or straight to the [`Egress`]. The engine never holds more than a
//! window of packets, so a run's memory does not grow with its length.

use crate::classifier::AdmitError;
use crate::dispatch::{Clock, Dispatcher, Layout, Rings, Runtime, Shared, BURST};
use crate::exec::{CachePadded, Idler, WakeHub};
use crate::ring::{self, Consumer, Producer};
use crate::runtime::{FailureKind, NfRuntime};
use crate::stats::EngineStats;
use crate::swap::{EpochReport, EpochTally, ProgramHandle, ReconfigError};
use crate::telemetry::{Telemetry, TelemetryConfig, TelemetrySnapshot};
use nfp_nf::{FlowSnapshot, NetworkFunction};
use nfp_orchestrator::{FailurePolicy, Program, Stage};
use nfp_packet::io::{Egress, Ingress, IoError, IoRunStats};
use nfp_packet::Packet;
use nfp_traffic::{LatencyRecorder, LatencySummary};
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
    /// pipeline order ([`crate::exec::plan_pipeline_groups`]); budgets
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
/// section. The engine survives the failure; this records what degraded
/// and how the failure policy handled the NF's subsequent traffic.
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

/// Result of one engine run.
#[derive(Debug)]
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
    pub migration: MigrationStats,
    /// Times a thread of this run (injector or stage group) went to
    /// sleep on the engine's [`WakeHub`] ([`WakeHub::parks`]).
    pub parks: u64,
    /// Times a thread that had just made progress found a sleeper and
    /// paid for a futex broadcast ([`WakeHub::wakes`]). In a steady
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
}

/// The classifier's feed, run by the group that holds the classifier:
/// admits straight off the injection ring, at most a burst per pass, with
/// no buffer in between. A pool-exhausted admission holds its packet for
/// the next pass and leaves the rest on the ring (FIFO and dense-PID
/// order preserved) instead of blocking the thread.
struct Intake {
    rx: Consumer<Packet>,
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

/// The injecting thread's end of the delivery ring: takes delivered
/// packets off it in bursts and hands each burst to the run's sink.
struct Outlet<'a> {
    rx: Consumer<Packet>,
    burst: Vec<Packet>,
    /// Packets taken off the ring so far; the run is over when this
    /// catches up with the collector's delivered count.
    received: u64,
    sink: &'a mut dyn FnMut(&mut Vec<Packet>),
}

impl Outlet<'_> {
    /// Take what is on the ring; true if there was anything.
    fn drain(&mut self) -> bool {
        if self.rx.pop_burst(&mut self.burst, BURST) == 0 {
            return false;
        }
        self.received += self.burst.len() as u64;
        (self.sink)(&mut self.burst);
        self.burst.clear();
        true
    }
}

/// What every group thread of one run shares, besides the dispatchers'
/// [`Shared`] state.
struct GroupCtl<'a> {
    cx: &'a Shared,
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
    /// Watchdog: one heartbeat per group, bumped once per scheduling
    /// pass (the per-NF busy flags and stall verdicts are in `cx.watch`).
    /// Padded: every group writes its own on every pass.
    heartbeats: Vec<CachePadded<AtomicU64>>,
}

/// A stage group's thread: drive `dispatcher` (and the classifier's
/// `intake`, for the group that holds it) until the run quiesces, idling
/// per the engine's policy on no-progress passes. The collector's group
/// gets `deliver`, the ring delivered packets go back on, when the caller
/// wants them; a full ring leaves them in a local backlog for the next
/// pass, like every other ring of the engine.
fn drive_group(
    ctl: &GroupCtl<'_>,
    g: usize,
    mut dispatcher: Dispatcher,
    mut intake: Option<Intake>,
    deliver: Option<Producer<Packet>>,
) -> GroupExit {
    let (cx, config) = (ctl.cx, ctl.config);
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
    pub fn epoch(&self) -> u64 {
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

/// The I/O accounting of a finished run, from its report.
fn io_stats(report: &EngineReport) -> IoRunStats {
    let rejected = report.stats.classifier.rejects();
    IoRunStats {
        pulled: report.injected,
        delivered: report.delivered,
        dropped: report.dropped.saturating_sub(rejected),
        rejected,
    }
}

/// Emit a finished run's delivered packets to `egress` and derive the I/O
/// accounting from its report; the packets stay in the report only when
/// the caller asked to `keep` them.
pub(crate) fn emit_report(
    mut report: EngineReport,
    egress: &mut dyn Egress,
    keep: bool,
) -> Result<(EngineReport, IoRunStats), IoError> {
    egress.emit_burst(&report.packets)?;
    egress.flush()?;
    let io = io_stats(&report);
    if !keep {
        report.packets.clear();
    }
    Ok((report, io))
}

/// The threaded engine: one executor for a sealed [`Program`]. Build once,
/// run many times — and [`reconfigure`](Engine::reconfigure) between or
/// during runs.
pub struct Engine {
    handle: Arc<ProgramHandle>,
    nfs: Vec<Box<dyn NetworkFunction>>,
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
        if nfs.len() != program.nf_count() {
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
            nfs,
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
        self.run_with_recorder(packets).0
    }

    /// Like [`Engine::run`], also returning the raw latency recorder so a
    /// sharded front-end can merge per-shard samples into one summary.
    pub(crate) fn run_with_recorder(
        &mut self,
        packets: Vec<Packet>,
    ) -> (EngineReport, LatencyRecorder) {
        let expected = packets.len();
        let mut packets = packets.into_iter();
        let mut kept = Vec::new();
        let (mut report, latency) = self.run_feed(&mut || packets.next(), expected, &mut |burst| {
            kept.append(burst)
        });
        report.packets = kept;
        (report, latency)
    }

    /// Run the engine against a pluggable [`Ingress`]/[`Egress`] backend
    /// pair: bursts of [`EngineConfig::io_burst`] packets are pulled and
    /// injected on the caller thread until the ingress reports end of
    /// stream, and every delivered packet is emitted to `egress` on the
    /// same thread as it completes (in collector completion order), so the
    /// run holds a window of packets, not the stream; the egress is flushed
    /// at the end. An ingress or egress error stops injection or emission;
    /// everything already injected still drains before the first error is
    /// returned.
    ///
    /// `keep_packets` is forced on for the duration of the call so
    /// delivered frames come back to the caller thread; the caller's
    /// setting is restored afterwards, and only if it was on do the
    /// packets also stay in the report.
    pub fn run_io(
        &mut self,
        ingress: &mut dyn Ingress,
        egress: &mut dyn Egress,
    ) -> Result<(EngineReport, IoRunStats), IoError> {
        let keep = self.set_keep_packets(true);
        let burst = self.config.io_burst.max(1);
        // The pulled burst is buffered here so backpressure
        // (`max_in_flight`, ring-full retries) applies per packet,
        // exactly as in the batch path.
        let mut buffered = VecDeque::new();
        let mut error = None;
        let mut next = || loop {
            if let Some(pkt) = buffered.pop_front() {
                return Some(pkt);
            }
            match ingress.next_burst(burst) {
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
        let mut emit = |out: &mut Vec<Packet>| {
            if emit_error.is_none() {
                emit_error = egress.emit_burst(out).err();
            }
            if keep {
                kept.append(out);
            }
        };
        let (mut report, _) = self.run_feed(&mut next, burst * 32, &mut emit);
        self.set_keep_packets(keep);
        report.packets = kept;
        if let Some(e) = error.or(emit_error) {
            return Err(e);
        }
        egress.flush()?;
        let io = io_stats(&report);
        Ok((report, io))
    }

    /// Crate-internal toggle for the I/O entry points: force delivered
    /// packets to materialize for the run, then restore. Returns the
    /// previous setting.
    pub(crate) fn set_keep_packets(&mut self, keep: bool) -> bool {
        std::mem::replace(&mut self.config.keep_packets, keep)
    }

    /// The engine core shared by the batch and streaming entry points:
    /// inject what `next` yields until it runs dry (`expected` sizes the
    /// bookkeeping), drain, and report with the raw latency recorder.
    /// With `keep_packets` on, `sink` is handed every delivered packet on
    /// the calling thread, in bursts, in collector completion order, while
    /// the run is going (it takes what it wants out of the burst; the rest
    /// is dropped); the report's own `packets` stays empty.
    fn run_feed(
        &mut self,
        next: &mut dyn FnMut() -> Option<Packet>,
        expected: usize,
        sink: &mut dyn FnMut(&mut Vec<Packet>),
    ) -> (EngineReport, LatencyRecorder) {
        let config = &self.config;
        let layout = Layout {
            nfs: self.nfs.len(),
            mergers: config.mergers,
        };
        // Snapshot the current program for executor construction (ring
        // mesh, runtime configs). A mid-run hot swap only ever installs a
        // topology-identical successor, so the mesh built here stays valid
        // across epochs; per-packet table lookups go through epoch-keyed
        // [`crate::swap::TablesResolver`]s instead of this snapshot.
        let handle = Arc::clone(&self.handle);
        let program = handle.current().program().clone();
        let cx = Shared::new(
            layout,
            config.pool_size,
            Arc::clone(&handle),
            Telemetry::new(config.telemetry.clone(), layout.nfs, layout.mergers),
            Clock::Wall(Instant::now()),
            config.merge_deadline.as_millis() as u64,
        );

        // Threading model: one dispatcher per group of stages. Front
        // section: classifier + NFs. Back section: agent + mergers +
        // collector. Budgets ≥ 2 never mix the sections, so a blocking NF
        // cannot starve merge-deadline enforcement.
        let groups = crate::exec::plan_pipeline_groups(
            1 + layout.nfs,
            2 + layout.mergers,
            config.core_budget.max(1),
        );
        let group_of = |stage: Stage| {
            let slot = layout.slot(stage);
            groups
                .iter()
                .position(|g| g.contains(&slot))
                .expect("the group plan covers every stage")
        };

        // Instantiate the program's wiring plan: one SPSC ring per
        // (producer stage, consumer stage) edge the grouping cuts, and a
        // typed outcome ring per merger instance separated from the
        // agent. Edges inside a group need no ring.
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
        // Injection ring into the classifier's group (always the first).
        let (inject_tx, inject_rx) = ring::channel::<Packet>(config.ring_capacity);
        let mut intake = Some(Intake {
            rx: inject_rx,
            held: None,
            seen: 0,
            rejected_at: Vec::new(),
        });
        // Delivery ring out of the collector's group (always the last),
        // when the caller wants the packets.
        let (mut deliver_tx, mut outlet) = (None, None);
        if config.keep_packets {
            let (tx, rx) = ring::channel::<Packet>(config.ring_capacity);
            deliver_tx = Some(tx);
            outlet = Some(Outlet {
                rx,
                burst: Vec::with_capacity(BURST),
                received: 0,
                sink,
            });
        }
        let collector_group = group_of(Stage::Collector);

        // Take the NFs out for the duration of the run; each group's
        // dispatcher takes the runtimes of its own NFs.
        let mut runtimes = std::mem::take(&mut self.nfs)
            .into_iter()
            .zip(program.tables().nf_configs.iter().cloned())
            .map(|(nf, cfg)| NfRuntime::new(nf, cfg));
        let dispatchers: Vec<Dispatcher> = groups
            .iter()
            .zip(rings)
            .map(|(group, rings)| Dispatcher::new(&cx, group.clone(), &mut runtimes, rings))
            .collect();

        let nf_group: Vec<usize> = (0..layout.nfs).map(|i| group_of(Stage::Nf(i))).collect();
        let stall_timeout = config.stall_timeout;
        let max_in_flight = config.max_in_flight.max(1) as u64;

        // Live-audit gauges: one slot per run, budget = the closed-loop
        // window's worst-case pool footprint.
        let gauges = config.probe.as_ref().map(|p| p.register());
        if let Some(g) = &gauges {
            g.pool_budget.store(
                max_in_flight * program.slots_per_packet() as u64,
                Ordering::Relaxed,
            );
            g.active.store(true, Ordering::Release);
        }
        // Publish the run's live gauges (no-op without a probe); the
        // injector loop is the one place that sees every counter.
        let publish = |cx: &Shared, injected_now: u64| {
            if let Some(g) = &gauges {
                // Straggler debt = copies expired merges were owed minus
                // the ones that arrived since; both only grow. `arrived`
                // is read before the occupancy (a straggler's slot is
                // released before it is counted as arrived, release /
                // acquire), and `owed` was counted before the expiry let
                // this thread inject the window's extra packet — so the
                // difference never understates the slots stragglers held
                // when the occupancy was read.
                let mergers = || (0..layout.mergers).map(|m| cx.stats_of(Stage::Merger(m)));
                let arrived: u64 = mergers()
                    .map(|s| s.late_arrivals.load(Ordering::Acquire))
                    .sum();
                let in_use = cx.pool.in_use() as u64;
                let owed: u64 = mergers()
                    .map(|s| s.stragglers_owed.load(Ordering::Relaxed))
                    .sum();
                g.publish(
                    injected_now,
                    cx.delivered.load(Ordering::Relaxed),
                    cx.dropped.load(Ordering::Relaxed),
                    in_use,
                    owed.saturating_sub(arrived),
                    handle.epoch(),
                );
            }
        };

        let mut inject_times: Vec<Instant> = Vec::with_capacity(expected);
        let started = Instant::now();
        let cx = &cx;
        let ctl = GroupCtl {
            cx,
            config,
            hub: WakeHub::new(),
            stop: AtomicBool::new(false),
            quiesce: AtomicBool::new(false),
            heartbeats: groups.iter().map(|_| CachePadded::default()).collect(),
        };
        let (hub, heartbeats) = (&ctl.hub, &ctl.heartbeats);

        let exits: Vec<GroupExit> = std::thread::scope(|scope| {
            // One thread per group, each driving its dispatcher.
            let group_handles: Vec<_> = dispatchers
                .into_iter()
                .enumerate()
                .map(|(g, dispatcher)| {
                    let (ctl, intake) = (&ctl, intake.take());
                    let deliver = deliver_tx.take_if(|_| g == collector_group);
                    scope.spawn(move || drive_group(ctl, g, dispatcher, intake, deliver))
                })
                .collect();

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
                let total = cx.finished();
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
                for (watch, &g) in cx.watch.iter().zip(&nf_group) {
                    if watch.busy.load(Ordering::Acquire)
                        && now.duration_since(wd_hb[g].1) >= stall_timeout
                    {
                        watch.failed.store(true, Ordering::Release);
                    }
                }
            };

            // Closed-loop injection on this thread, idling adaptively
            // like the groups (the bounded park keeps the watchdog
            // running; any group's progress notifies the hub and wakes us).
            // Every wait takes deliveries off their ring first, and only
            // idles when there were none.
            let mut idler = Idler::new(hub, config.idle_policy);
            let mut idle_step = |idler: &mut Idler<'_>,
                                 outlet: &mut Option<Outlet<'_>>,
                                 injected: u64,
                                 ready: &dyn Fn() -> bool| {
                check_stall();
                publish(cx, injected);
                if outlet.as_mut().is_some_and(Outlet::drain) {
                    idler.reset();
                } else {
                    idler.idle(|| ready() || outlet.as_ref().is_some_and(|o| !o.rx.is_empty()));
                }
            };
            // A burst at a time: one read of the finished count says how
            // much room the window has, at most that many packets (and at
            // most a burst) go onto the ring, and only then is the hub
            // notified and the delivery ring drained. The finished count
            // only grows, so the window is a hard bound; it may lag the
            // packets by a stage burst, which only makes the room smaller.
            // `held` is a packet the ring had no room for, with the time
            // it was first offered.
            let mut held: Option<(Packet, Instant)> = None;
            let mut fed = false;
            while !fed {
                let injected = inject_times.len() as u64;
                let finished = cx.finished();
                let room = max_in_flight
                    .saturating_sub(injected.saturating_sub(finished))
                    .min(BURST as u64);
                if room == 0 {
                    idle_step(&mut idler, &mut outlet, injected, &|| {
                        cx.finished() > finished
                    });
                    continue;
                }
                // After the read the room came from and before the burst:
                // what the gauges say was finished is then never older
                // than what let the packets they count as injected in.
                publish(cx, injected);
                let mut pushed = 0;
                while pushed < room {
                    let offered = held
                        .take()
                        .or_else(|| next().map(|pkt| (pkt, Instant::now())));
                    let Some((pkt, t_in)) = offered else {
                        fed = true;
                        break;
                    };
                    if let Err(back) = inject_tx.push(pkt) {
                        held = Some((back, t_in));
                        break;
                    }
                    inject_times.push(t_in);
                    pushed += 1;
                }
                if pushed > 0 {
                    idler.reset();
                    // The classifier's group may be parked: wake it.
                    hub.notify();
                    if let Some(outlet) = &mut outlet {
                        outlet.drain();
                    }
                } else if held.is_some() {
                    let queued = inject_tx.len();
                    idle_step(&mut idler, &mut outlet, injected, &|| {
                        inject_tx.len() < queued
                    });
                }
            }
            let injected = inject_times.len() as u64;
            // Wait for completion — every packet accounted, every delivery
            // taken off its ring — then stop injection.
            let all_out = |outlet: &Option<Outlet<'_>>| {
                outlet
                    .as_ref()
                    .is_none_or(|o| o.received >= cx.delivered.load(Ordering::Acquire))
            };
            while cx.finished() < injected || !all_out(&outlet) {
                idle_step(&mut idler, &mut outlet, injected, &|| {
                    cx.finished() >= injected
                });
            }
            ctl.stop.store(true, Ordering::Release);
            hub.notify();
            // Every packet is accounted, but straggler copies of
            // deadline-expired merges may still be in flight toward their
            // tombstones. Hold the groups until the pool is empty — only
            // then is it safe to let them exit without leaking.
            while cx.pool.in_use() > 0 {
                idle_step(&mut idler, &mut outlet, injected, &|| cx.pool.in_use() == 0);
            }
            ctl.quiesce.store(true, Ordering::Release);
            hub.notify();
            drop(inject_tx);

            group_handles
                .into_iter()
                .map(|h| h.join().expect("engine stage group"))
                .collect()
        });
        let elapsed = started.elapsed();
        let injected = inject_times.len() as u64;
        publish(cx, injected);
        if let Some(g) = &gauges {
            g.active.store(false, Ordering::Release);
        }

        // Pair each delivery with its own injection. PIDs are dense over
        // *admitted* packets, while a rejected packet took an injection
        // slot and no PID: drop the rejected ordinals (ascending) from the
        // injection times and what is left is indexed by PID.
        let mut rejected = exits[0].rejected_at.iter().copied().peekable();
        inject_times = inject_times
            .into_iter()
            .zip(0u64..)
            .filter(|&(_, ordinal)| rejected.next_if_eq(&ordinal).is_none())
            .map(|(t_in, _)| t_in)
            .collect();
        let mut latency = LatencyRecorder::with_capacity(inject_times.len());
        let mut failures: Vec<NfFailure> = Vec::new();
        // Groups are contiguous in pipeline order, so their runtimes
        // concatenate back into `NodeId` order.
        for exit in exits {
            for (pid, t_out) in exit.stamps {
                if let Some(t_in) = inject_times.get(pid as usize) {
                    latency.record(t_out.duration_since(*t_in));
                }
            }
            // Recover the NFs for subsequent runs, harvesting failure
            // records on the way out.
            for rt in exit.runtimes {
                if let Some(kind) = rt.failure().cloned() {
                    failures.push(NfFailure {
                        node: self.nfs.len(),
                        nf: rt.nf().name().to_string(),
                        kind,
                        policy: rt.failure_policy(),
                        bypassed: rt.bypassed,
                        policy_drops: rt.policy_drops,
                    });
                }
                self.nfs.push(rt.into_nf());
            }
        }

        let report = EngineReport {
            injected,
            delivered: cx.delivered.load(Ordering::Acquire),
            dropped: cx.dropped.load(Ordering::Acquire),
            elapsed,
            latency: latency.summary(),
            packets: Vec::new(),
            stats: cx.engine_stats(),
            failures,
            pool_in_use: cx.pool.in_use(),
            epoch: handle.epoch(),
            epochs: handle.tallies(),
            telemetry: cx.telemetry.snapshot(),
            migration: MigrationStats::default(),
            parks: ctl.hub.parks(),
            wakes: ctl.hub.wakes(),
        };
        (report, latency)
    }

    /// Export each NF's per-flow state, one [`FlowSnapshot`] per NF
    /// position (in `NodeId` order, matching the program's node
    /// numbering). Stateless positions export empty snapshots. Call
    /// between runs — the closed loop guarantees no packet is in flight
    /// then, so the snapshot is a consistent cut.
    pub fn export_flow_state(&self) -> Vec<FlowSnapshot> {
        self.nfs.iter().map(|nf| nf.snapshot_state()).collect()
    }

    /// Restore per-position snapshots exported by [`Engine::export_flow_state`]
    /// (after the caller partition-filtered them to this engine's shard).
    /// Positions beyond the snapshot vector, and empty snapshots, are
    /// left untouched.
    pub fn import_flow_state(&mut self, snaps: &[FlowSnapshot]) {
        for (nf, snap) in self.nfs.iter_mut().zip(snaps) {
            if !snap.is_empty() {
                nf.restore_state(snap);
            }
        }
    }

    /// Tell every NF which shard partition this engine serves, arming
    /// the debug-build RSS-ownership assertions on their flow tables.
    pub fn bind_partition(&mut self, index: usize, total: usize) {
        for nf in &mut self.nfs {
            nf.bind_partition(index, total);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfp_nf::firewall::Firewall;
    use nfp_nf::lb::LoadBalancer;
    use nfp_nf::monitor::Monitor;
    use nfp_orchestrator::{compile, CompileOptions, Registry};
    use nfp_packet::ipv4::Ipv4Addr;
    use nfp_policy::Policy;
    use nfp_traffic::{SizeDistribution, TrafficGenerator, TrafficSpec};

    fn build(chain: &[&str], config: EngineConfig) -> Engine {
        let reg = Registry::paper_table2();
        let compiled = compile(
            &Policy::from_chain(chain.iter().copied()),
            &reg,
            &[],
            &CompileOptions::default(),
        )
        .unwrap();
        let program = compiled.program(1).unwrap();
        let nfs: Vec<Box<dyn NetworkFunction>> = compiled
            .graph
            .nodes
            .iter()
            .map(|n| -> Box<dyn NetworkFunction> {
                match n.name.as_str() {
                    "Monitor" => Box::new(Monitor::new("Monitor")),
                    "Firewall" => Box::new(Firewall::with_synthetic_acl("Firewall", 100)),
                    "LoadBalancer" => Box::new(LoadBalancer::with_uniform_backends("LB", 4)),
                    other => panic!("{other}"),
                }
            })
            .collect();
        Engine::new(program, nfs, config).unwrap()
    }

    fn traffic(n: usize) -> Vec<Packet> {
        TrafficGenerator::new(TrafficSpec {
            flows: 16,
            sizes: SizeDistribution::Fixed(128),
            ..TrafficSpec::default()
        })
        .batch(n)
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

    /// `run_io` emits deliveries while it is still pulling: the egress
    /// sees its first packet long before the ingress runs dry, and no
    /// packet stays behind in the report the caller did not ask to keep.
    #[test]
    fn run_io_emits_while_the_ingress_is_still_feeding() {
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
        /// Records how many packets had been pulled at its first emission.
        struct FirstEmit(Rc<Cell<u64>>, Option<u64>, u64);
        impl Egress for FirstEmit {
            fn emit_burst(&mut self, pkts: &[Packet]) -> Result<(), IoError> {
                self.1.get_or_insert(self.0.get());
                self.2 += pkts.len() as u64;
                Ok(())
            }
        }

        const TOTAL: u64 = 4096;
        let mut e = build(
            &["Monitor", "Firewall"],
            EngineConfig {
                max_in_flight: 8,
                io_burst: 32,
                ..EngineConfig::default()
            },
        );
        let pulled = Rc::new(Cell::new(0));
        let mut ingress = Counted(
            nfp_packet::io::VecIngress::new(traffic(TOTAL as usize)),
            Rc::clone(&pulled),
        );
        let mut egress = FirstEmit(pulled, None, 0);
        let (report, io) = e.run_io(&mut ingress, &mut egress).unwrap();
        assert_eq!((io.pulled, io.delivered, egress.2), (TOTAL, TOTAL, TOTAL));
        // Window 8 plus one pulled burst of 32 bound what can be in hand.
        let at_first = egress.1.expect("something was emitted");
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
        let mut gen = TrafficGenerator::new(TrafficSpec {
            flows: 4,
            sizes: SizeDistribution::Fixed(80),
            ..TrafficSpec::default()
        });
        let mut pkts = gen.batch(50);
        // Rewrite some to hit the synthetic ACL (dip 172.16.x.0/24, dport 7000+x).
        for p in pkts.iter_mut().take(20) {
            p.set_dip(Ipv4Addr::new(172, 16, 4, 4)).unwrap();
            p.set_dport(7004).unwrap();
            p.finalize_checksums().unwrap();
        }
        let report = e.run(pkts);
        assert_eq!(report.delivered, 30);
        assert_eq!(report.dropped, 20);
    }

    #[test]
    fn zero_delivered_run_has_no_latency_summary() {
        let mut e = build(&["Monitor", "Firewall"], EngineConfig::default());
        let mut gen = TrafficGenerator::new(TrafficSpec {
            flows: 2,
            sizes: SizeDistribution::Fixed(80),
            ..TrafficSpec::default()
        });
        let mut pkts = gen.batch(10);
        for p in pkts.iter_mut() {
            p.set_dip(Ipv4Addr::new(172, 16, 4, 4)).unwrap();
            p.set_dport(7004).unwrap();
            p.finalize_checksums().unwrap();
        }
        let report = e.run(pkts);
        assert_eq!(report.delivered, 0);
        assert_eq!(report.dropped, 10);
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
        let mut gen = TrafficGenerator::new(TrafficSpec {
            flows: 8,
            sizes: SizeDistribution::Fixed(96),
            ..TrafficSpec::default()
        });
        let mut pkts = gen.batch(120);
        for p in pkts.iter_mut().take(30) {
            p.set_dip(Ipv4Addr::new(172, 16, 7, 7)).unwrap();
            p.set_dport(7007).unwrap();
            p.finalize_checksums().unwrap();
        }
        let report = e.run(pkts);
        let s = &report.stats;
        // The report-level closed loop balances.
        assert_eq!(report.injected, report.delivered + report.dropped);
        // Every drop is attributed to a stage and a cause — no silent loss.
        assert_eq!(s.total_drops(), report.dropped);
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
        let reg = Registry::paper_table2();
        let compiled = compile(
            &Policy::from_chain(["Monitor", "Firewall"]),
            &reg,
            &[],
            &CompileOptions::default(),
        )
        .unwrap();
        let program = compiled.program(1).unwrap();
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
        let nfs = || -> Vec<Box<dyn NetworkFunction>> {
            vec![
                Box::new(Monitor::new("Monitor")),
                Box::new(Firewall::with_synthetic_acl("Firewall", 100)),
            ]
        };
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
        let reg = Registry::paper_table2();
        let compiled = compile(
            &Policy::from_chain(["Monitor", "Firewall"]),
            &reg,
            &[],
            &CompileOptions::default(),
        )
        .unwrap();
        let program = compiled.program(1).unwrap();
        let nfs = || -> Vec<Box<dyn NetworkFunction>> {
            vec![
                Box::new(Monitor::new("Monitor")),
                Box::new(Firewall::with_synthetic_acl("Firewall", 100)),
            ]
        };
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
