//! The stage dispatcher — the one interpreter of a sealed
//! [`nfp_orchestrator::Program`].
//!
//! A `Dispatcher` owns a contiguous *set* of the program's stages (in
//! pipeline order: classifier, NFs by `NodeId`, agent, merger instances,
//! collector, switch) and runs one *kernel* per stage kind over the cores
//! ([`Classifier`], [`NfRuntime`], [`crate::cores`]): a kernel takes the
//! stage's whole queued burst, with one `Sink` and one watchdog bracket
//! per burst. Epoch resolution, telemetry, drop accounting and epoch
//! settlement are written here once, for every executor:
//!
//! * [`crate::sync_engine::SyncEngine`] is one dispatcher holding every
//!   stage, driven by the caller — no rings, a virtual tick clock and a
//!   zero-tick merge deadline;
//! * [`crate::engine::Engine`] is one dispatcher per group of
//!   [`crate::exec`]'s group plan, each on its own thread.
//!
//! A message whose target stage is in the set is queued locally (a plain
//! per-stage queue, drained by that stage's next burst pass); a message
//! for a stage outside it is pushed onto that edge's SPSC ring — a ring
//! exists only where the group plan *cuts* an edge of the wiring plan.
//! Sends never block: cut-edge messages are pushed as one burst per ring
//! when the sending stage's pass ends, and a full ring leaves them in a
//! per-edge stash (bounded by the closed-loop in-flight window) that the
//! next pass retries — which is what keeps any grouping deadlock-free.

use crate::actions::{Deliver, Msg};
use crate::classifier::{AdmitError, Classifier, Refusal};
use crate::cores::{collector, AgentCore, MergerCore, Outcome};
use crate::exec::CachePadded;
use crate::ring::{Consumer, Producer};
use crate::runtime::{FailureKind, NfRuntime};
use crate::stats::{EngineStats, StageStats};
use crate::swap::{ProgramHandle, TablesResolver};
use crate::telemetry::Telemetry;
use nfp_nf::NetworkFunction;
use nfp_orchestrator::tables::{DropBehavior, Target};
use nfp_orchestrator::Stage;
use nfp_packet::pool::PacketPool;
use nfp_packet::Packet;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Burst size for ring drains and emissions (the DPDK sweet spot).
pub(crate) const BURST: usize = 32;

/// Full-ring retries before a stall is recorded as a backpressure event.
const RETRY_LIMIT: u32 = 64;

/// An NF runtime as the engines hold it.
pub(crate) type Runtime = NfRuntime<Box<dyn NetworkFunction>>;

/// Pipeline-order numbering of a program's stages: classifier, NFs by
/// `NodeId`, agent, merger instances, collector, and the switch of a
/// switched program. A stage's *slot* indexes the per-stage stats, and
/// group plans are ranges of slots.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Layout {
    pub(crate) nfs: usize,
    pub(crate) mergers: usize,
    /// Every hop goes through [`Stage::Switch`].
    pub(crate) switch: bool,
}

impl Layout {
    /// Number of stages.
    pub(crate) fn len(&self) -> usize {
        3 + self.nfs + self.mergers + usize::from(self.switch)
    }

    /// Every stage, in slot order.
    pub(crate) fn stages(&self) -> impl Iterator<Item = Stage> {
        let (nfs, mergers) = (self.nfs, self.mergers);
        std::iter::once(Stage::Classifier)
            .chain((0..nfs).map(Stage::Nf))
            .chain(std::iter::once(Stage::Agent))
            .chain((0..mergers).map(Stage::Merger))
            .chain(std::iter::once(Stage::Collector))
            .chain(self.switch.then_some(Stage::Switch))
    }

    /// The slot of `stage`.
    pub(crate) fn slot(&self, stage: Stage) -> usize {
        match stage {
            Stage::Classifier => 0,
            Stage::Nf(i) => 1 + i,
            Stage::Agent => 1 + self.nfs,
            Stage::Merger(m) => 2 + self.nfs + m,
            Stage::Collector => 2 + self.nfs + self.mergers,
            Stage::Switch => 3 + self.nfs + self.mergers,
        }
    }

    /// The ids `i` of a run of `count` same-kind stages starting at
    /// `first` (`Nf(0)` or `Merger(0)`) whose slots fall in `owned`.
    fn ids_in(&self, owned: &Range<usize>, first: Stage, count: usize) -> Range<usize> {
        let base = self.slot(first);
        let lo = owned.start.max(base);
        let hi = owned.end.min(base + count).max(lo);
        lo - base..hi - base
    }
}

/// The merge-deadline clock: virtual ticks (one per
/// [`crate::sync_engine::SyncEngine`] admission window) or milliseconds
/// since the run started.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Clock {
    Tick(u64),
    Wall(Instant),
}

/// Watchdog flags for one NF: `busy` brackets the time spent inside the
/// NF, so the watchdog only ever blames an NF that is actually holding a
/// packet; `failed` is the stall verdict the watchdog hands down.
#[derive(Debug, Default)]
pub(crate) struct NfWatch {
    pub(crate) busy: AtomicBool,
    pub(crate) failed: AtomicBool,
}

/// What every dispatcher of one engine shares: the pool, the swappable
/// program, telemetry, per-stage counters (by [`Layout::slot`]) and the
/// closed-loop completion counters.
pub(crate) struct Shared {
    pub(crate) layout: Layout,
    pub(crate) pool: PacketPool,
    pub(crate) handle: Arc<ProgramHandle>,
    pub(crate) telemetry: Telemetry,
    pub(crate) stats: Vec<StageStats>,
    /// Packets finished so far, by outcome. A dispatcher adds to them
    /// once per stage burst ([`Dispatcher::publish`]), so a reader may
    /// see them up to one burst behind the packets — never ahead. Each
    /// has a line of its own: the injector polls both while the stage
    /// threads work the pool, handle and stats fields beside them.
    pub(crate) delivered: CachePadded<AtomicU64>,
    pub(crate) dropped: CachePadded<AtomicU64>,
    pub(crate) clock: Clock,
    /// How long (in [`Clock`] units) an accumulating-table entry may wait
    /// for sibling copies before it is resolved from what arrived.
    merge_deadline: u64,
    /// Padded: two stores per NF call, from a different thread per NF
    /// once the budget separates them.
    pub(crate) watch: Vec<CachePadded<NfWatch>>,
}

impl Shared {
    pub(crate) fn new(
        layout: Layout,
        pool_size: usize,
        handle: Arc<ProgramHandle>,
        telemetry: Telemetry,
        clock: Clock,
        merge_deadline: u64,
    ) -> Self {
        Shared {
            layout,
            pool: PacketPool::new(pool_size),
            handle,
            telemetry,
            stats: (0..layout.len()).map(|_| StageStats::new()).collect(),
            delivered: CachePadded::default(),
            dropped: CachePadded::default(),
            clock,
            merge_deadline,
            watch: (0..layout.nfs).map(|_| CachePadded::default()).collect(),
        }
    }

    /// The counters of `stage`.
    pub(crate) fn stats_of(&self, stage: Stage) -> &StageStats {
        &self.stats[self.layout.slot(stage)]
    }

    /// Packets finished so far (delivered + dropped).
    pub(crate) fn finished(&self) -> u64 {
        self.delivered.load(Ordering::Acquire) + self.dropped.load(Ordering::Acquire)
    }

    /// Per-stage counter snapshot in report shape.
    pub(crate) fn engine_stats(&self) -> EngineStats {
        let snap = |s: Stage| self.stats_of(s).snapshot();
        EngineStats {
            classifier: snap(Stage::Classifier),
            nfs: (0..self.layout.nfs).map(|i| snap(Stage::Nf(i))).collect(),
            agent: snap(Stage::Agent),
            mergers: (0..self.layout.mergers)
                .map(|m| snap(Stage::Merger(m)))
                .collect(),
            collector: snap(Stage::Collector),
            switch: self.layout.switch.then(|| snap(Stage::Switch)),
        }
    }
}

/// The sending half of one cut edge: the ring producer plus an overflow
/// stash drained from `off` (so a partial burst push does not shift the
/// remainder).
struct Stash<T> {
    tx: Producer<T>,
    buf: Vec<T>,
    off: usize,
    attempts: u32,
}

impl<T: Copy + Send> Stash<T> {
    fn new(tx: Producer<T>) -> Self {
        Stash {
            tx,
            buf: Vec::new(),
            off: 0,
            attempts: 0,
        }
    }

    /// Buffer `item`, pushing a burst once one has accumulated.
    fn push(&mut self, item: T, stats: &StageStats) {
        self.buf.push(item);
        if self.buf.len() - self.off >= BURST {
            self.flush(stats);
        }
    }

    /// One non-blocking burst push; returns true on any progress. A ring
    /// that stays full for [`RETRY_LIMIT`] consecutive attempts is
    /// recorded as one backpressure event on the producing stage.
    fn flush(&mut self, stats: &StageStats) -> bool {
        if self.is_empty() {
            return false;
        }
        let n = self.tx.push_burst(&self.buf[self.off..]);
        self.off += n;
        if self.is_empty() {
            self.buf.clear();
            self.off = 0;
        }
        if n == 0 {
            self.attempts += 1;
            if self.attempts == RETRY_LIMIT {
                stats.note_backpressure();
            }
            false
        } else {
            self.attempts = 0;
            true
        }
    }

    fn is_empty(&self) -> bool {
        self.off >= self.buf.len()
    }
}

/// One stage's plumbing inside a dispatcher: a plain queue for messages
/// from stages of the same set, and a ring per cut edge of the wiring plan
/// that ends or starts here.
struct Port {
    stage: Stage,
    /// Messages from stages of the same set.
    queue: Vec<Msg>,
    /// Rings from stages outside the set.
    rings: Vec<Consumer<Msg>>,
    /// Stashed rings to stages outside the set, by target stage.
    out: Vec<(Stage, Stash<Msg>)>,
}

/// The ports of a dispatcher's stages, in slot order from `first`.
struct Ports {
    layout: Layout,
    first: usize,
    ports: Vec<Port>,
}

impl Ports {
    /// The index of `stage`'s port, if the set holds it.
    fn index(&self, stage: Stage) -> Option<usize> {
        let k = self.layout.slot(stage).checked_sub(self.first)?;
        (k < self.ports.len()).then_some(k)
    }

    /// The port of `stage`, if the set holds it.
    fn of(&mut self, stage: Stage) -> Option<&mut Port> {
        self.index(stage).map(|k| &mut self.ports[k])
    }

    /// Queue `msg` locally when `to` is in the set, else push it onto the
    /// `from → to` edge's ring. Always inlined: it is the hop every
    /// message pays, and LLVM's size heuristics drop it out of
    /// `actions::execute` whenever the kernels around it grow.
    #[inline(always)]
    fn send(&mut self, cx: &Shared, from: Stage, to: Stage, msg: Msg) {
        match self.index(to) {
            Some(k) => self.ports[k].queue.push(msg),
            None => self.send_out(cx, from, to, msg),
        }
    }

    /// [`Ports::send`] across a cut edge. Never inlined: inlined into
    /// every send site it grows the kernels of a one-group set, which
    /// never take it, by hundreds of bytes.
    #[inline(never)]
    fn send_out(&mut self, cx: &Shared, from: Stage, to: Stage, msg: Msg) {
        // Linear scan: a stage has at most a handful of targets.
        let (_, stash) = self
            .of(from)
            .and_then(|port| port.out.iter_mut().find(|(t, _)| *t == to))
            .expect(
                "a sealed program's wiring plan is derived from the tables that emit \
                 its messages, so every cut edge a message takes has a ring",
            );
        stash.push(msg, cx.stats_of(from));
    }

    /// Retry the stashed sends of the stage at port `k`; returns true on
    /// any progress.
    fn pump(&mut self, cx: &Shared, k: usize) -> bool {
        let port = &mut self.ports[k];
        if port.out.is_empty() {
            return false;
        }
        let stats = cx.stats_of(port.stage);
        let out = port.out.iter_mut();
        out.fold(false, |progress, (_, stash)| stash.flush(stats) | progress)
    }
}

/// One stage's sending view of the [`Ports`] for the duration of a burst.
struct Sink<'a> {
    ports: &'a mut Ports,
    cx: &'a Shared,
    from: Stage,
}

impl Deliver for Sink<'_> {
    fn deliver(&mut self, target: Target, mut msg: Msg) {
        // `Target::Merger` routes through the agent: a merger-bound copy
        // needs its sequence assignment and instance pick first. A
        // switched program sends every hop to the switch instead.
        let mut to = Stage::of(target);
        if self.ports.layout.switch {
            (to, msg) = (Stage::Switch, msg.via_switch(to));
        }
        self.ports.send(self.cx, self.from, to, msg);
    }

    fn flush_hint(&mut self) {
        if let Some(k) = self.ports.index(self.from) {
            self.ports.pump(self.cx, k);
        }
    }
}

/// The ring ends of one dispatcher: message rings in and out, plus the
/// typed merger → agent outcome rings where the plan separates them.
#[derive(Default)]
pub(crate) struct Rings {
    /// `(consuming stage, ring)` for every cut edge entering the set.
    pub(crate) inputs: Vec<(Stage, Consumer<Msg>)>,
    /// `(from, to, ring)` for every cut edge leaving the set.
    pub(crate) outputs: Vec<(Stage, Stage, Producer<Msg>)>,
    /// Outcome rings into the agent, when this set holds it.
    pub(crate) outcome_inputs: Vec<Consumer<Outcome>>,
    /// `(merger instance, ring)` for each merger of this set whose agent
    /// lives elsewhere.
    pub(crate) outcome_outputs: Vec<(usize, Producer<Outcome>)>,
}

/// Executes a set of stages of a sealed program — see the module docs.
pub(crate) struct Dispatcher {
    ports: Ports,
    /// The driver brackets each admission burst on it.
    pub(crate) classifier: Classifier,
    /// Runtimes of the NFs in the set, `NodeId` order from `nf_base`; the
    /// driver takes them back when the run ends.
    pub(crate) runtimes: Vec<Runtime>,
    nf_base: usize,
    agent: Option<AgentCore>,
    /// Merger instances in the set, from `merger_base`.
    mergers: Vec<MergerCore>,
    merger_base: usize,
    resolver: TablesResolver,
    /// The queue a stage's kernel hands its port while it works the burst
    /// it took (so steady state allocates no queue).
    spare: Vec<Msg>,
    outcome_inputs: Vec<Consumer<Outcome>>,
    outcome_outputs: Vec<(usize, Stash<Outcome>)>,
    /// Outcomes in hand: the merges a merger stage's burst completed, or
    /// a burst popped from an outcome ring (always empty between stages).
    outcomes: Vec<Outcome>,
    /// Epochs of the merge-resolved drops one outcome release surfaced
    /// (always empty between releases).
    drops: Vec<u64>,
    /// The [`Clock`] reading of this pass, taken at most once between NF
    /// invocations (the only steps of unbounded duration).
    now: Option<u64>,
    /// Packets delivered / dropped since the last [`Dispatcher::publish`],
    /// which every stage burst ends with.
    delivered: u64,
    dropped: u64,
    /// Packets the collector finished, oldest first; the driver drains it.
    pub(crate) outputs: Vec<Packet>,
    /// Buffers of drops and rejects the classifier's admissions took out
    /// of the pool; the engine hands them to the ingress or frees them.
    pub(crate) spent: Vec<Packet>,
}

impl Dispatcher {
    /// A dispatcher for the stages in slot range `owned`. It takes the
    /// runtimes of that range's NFs from the front of `runtimes` (which
    /// the caller walks in `NodeId` order, group by group).
    pub(crate) fn new(
        cx: &Shared,
        owned: Range<usize>,
        runtimes: &mut impl Iterator<Item = Runtime>,
        rings: Rings,
    ) -> Self {
        let layout = cx.layout;
        let nf_ids = layout.ids_in(&owned, Stage::Nf(0), layout.nfs);
        let merger_ids = layout.ids_in(&owned, Stage::Merger(0), layout.mergers);
        let runtimes: Vec<Runtime> = runtimes.take(nf_ids.len()).collect();
        assert_eq!(
            runtimes.len(),
            nf_ids.len(),
            "one runtime per NF of the set"
        );
        let holds_agent = owned.contains(&layout.slot(Stage::Agent));
        let mut ports = Ports {
            layout,
            first: owned.start,
            ports: layout
                .stages()
                .skip(owned.start)
                .take(owned.len())
                .map(|stage| Port {
                    stage,
                    queue: Vec::new(),
                    rings: Vec::new(),
                    out: Vec::new(),
                })
                .collect(),
        };
        for (to, rx) in rings.inputs {
            ports.of(to).expect("ring into the set").rings.push(rx);
        }
        for (from, to, tx) in rings.outputs {
            let port = ports.of(from).expect("ring out of the set");
            port.out.push((to, Stash::new(tx)));
        }
        Dispatcher {
            ports,
            classifier: Classifier::live(Arc::clone(&cx.handle)),
            runtimes,
            nf_base: nf_ids.start,
            agent: holds_agent.then(|| AgentCore::new(layout.mergers)),
            mergers: merger_ids.clone().map(|_| MergerCore::new()).collect(),
            merger_base: merger_ids.start,
            resolver: TablesResolver::new(Arc::clone(&cx.handle)),
            spare: Vec::new(),
            outcome_inputs: rings.outcome_inputs,
            outcome_outputs: rings
                .outcome_outputs
                .into_iter()
                .map(|(m, tx)| (m, Stash::new(tx)))
                .collect(),
            outcomes: Vec::new(),
            drops: Vec::new(),
            now: None,
            delivered: 0,
            dropped: 0,
            outputs: Vec::new(),
            spent: Vec::new(),
        }
    }

    /// The classifier kernel, one packet of the admission burst the driver
    /// opened on [`Dispatcher::classifier`]: admit it under the burst's
    /// epoch and queue its entry actions. A terminal rejection (malformed,
    /// no match) finishes the packet here, so it is counted for the closed
    /// loop (the caller [`publish`](Dispatcher::publish)es when it closes
    /// the burst); pool backpressure is not terminal — the packet comes
    /// back for the caller to retry.
    #[inline]
    pub(crate) fn admit(&mut self, cx: &Shared, pkt: Packet) -> Result<(), Refusal> {
        let mut sink = Sink {
            ports: &mut self.ports,
            cx,
            from: Stage::Classifier,
        };
        let admitted = self.classifier.admit_observed(
            pkt,
            &cx.pool,
            &mut sink,
            cx.stats_of(Stage::Classifier),
            &mut self.spent,
            Some(&cx.telemetry),
        );
        let admitted = admitted.map(|_| ());
        if matches!(&admitted, Err((why, _)) if *why != AdmitError::PoolExhausted) {
            self.dropped += 1;
        }
        admitted
    }

    /// The NF kernel: a burst through NF `i` with one `Sink` and one
    /// watchdog `busy` bracket. The NF's config is resolved by each
    /// packet's stamped epoch, so a mid-swap packet is processed under
    /// the policy that classified it.
    fn nf_kernel(&mut self, cx: &Shared, i: usize, msgs: &[Msg]) {
        let stage = Stage::Nf(i);
        let stats = cx.stats_of(stage);
        let rt = &mut self.runtimes[i - self.nf_base];
        let mut sink = Sink {
            ports: &mut self.ports,
            cx,
            from: stage,
        };
        cx.watch[i].busy.store(true, Ordering::Release);
        for &msg in msgs {
            cx.telemetry.trace_ref(stage, &cx.pool, msg.r);
            let epoch = cx.pool.with(msg.r, |p| p.meta().epoch());
            let cfg = &self.resolver.tables(epoch, stats).nf_configs[i];
            let dropped = rt.handle_with(cfg, msg, &cx.pool, &mut sink, stats);
            if dropped && matches!(cfg.on_drop, DropBehavior::Discard) {
                // A silent discard finishes the packet right here.
                self.resolver.settle(epoch, 1);
                self.dropped += 1;
            }
        }
        cx.watch[i].busy.store(false, Ordering::Release);
        self.now = None;
    }

    /// Run `stage`'s kernel over `msgs`.
    fn kernel(&mut self, cx: &Shared, stage: Stage, msgs: &[Msg]) {
        if cx.telemetry.tracing() && matches!(stage, Stage::Agent | Stage::Merger(_)) {
            for &msg in msgs {
                cx.telemetry.trace_ref(stage, &cx.pool, msg.r);
            }
        }
        let stats = cx.stats_of(stage);
        match stage {
            Stage::Nf(i) => self.nf_kernel(cx, i, msgs),
            Stage::Agent => {
                let agent = self.agent.as_mut().expect("set holds the agent");
                let ports = &mut self.ports;
                agent.route(msgs, &cx.pool, &mut self.resolver, stats, |pick, msg| {
                    ports.send(cx, Stage::Agent, Stage::Merger(pick), msg)
                });
            }
            Stage::Merger(m) => {
                let now = self.now(cx);
                let merger = &mut self.mergers[m - self.merger_base];
                // Completed merges wait until the burst's timed span ends.
                let outcomes = &mut self.outcomes;
                merger.offer(msgs, &cx.pool, &mut self.resolver, stats, now, |o| {
                    outcomes.push(o)
                });
            }
            Stage::Collector => {
                for &msg in msgs {
                    let pkt = collector::collect(msg, &cx.pool, stats);
                    cx.telemetry.hop_if_traced(stage, pkt.meta(), pkt.is_nil());
                    // Delivery settles the packet against the epoch that
                    // classified it.
                    self.resolver.settle(pkt.meta().epoch(), 1);
                    self.outputs.push(pkt);
                }
                self.delivered += msgs.len() as u64;
            }
            Stage::Switch => {
                for &msg in msgs {
                    let (to, msg) = msg.switched();
                    self.ports.send(cx, stage, to, msg);
                }
                stats.note_in(msgs.len() as u64);
                stats.note_out(msgs.len() as u64);
            }
            Stage::Classifier => unreachable!("the classifier takes packets, not messages"),
        }
    }

    /// Hand merger `m`'s outcome to the agent: inline when the agent is in
    /// this set, over the outcome ring when it is not.
    fn outcome(&mut self, cx: &Shared, m: usize, outcome: Outcome) {
        if self.agent.is_some() {
            return self.release(cx, outcome);
        }
        let (_, stash) = self
            .outcome_outputs
            .iter_mut()
            .find(|(inst, _)| *inst == m)
            .expect("outcome ring for a merger whose agent is elsewhere");
        stash.push(outcome, cx.stats_of(Stage::Merger(m)));
    }

    /// Release merge outcomes in sequence order. Each merge-resolved drop
    /// settles against the epoch that classified the packet.
    fn release(&mut self, cx: &Shared, outcome: Outcome) {
        let agent = self.agent.as_mut().expect("set holds the agent");
        let mut sink = Sink {
            ports: &mut self.ports,
            cx,
            from: Stage::Agent,
        };
        agent.release(
            outcome,
            &cx.pool,
            &mut self.resolver,
            &mut sink,
            cx.stats_of(Stage::Agent),
            &mut self.drops,
        );
        self.dropped += self.drops.len() as u64;
        for epoch in self.drops.drain(..) {
            self.resolver.settle(epoch, 1);
        }
    }

    /// Add what the burst just ended finished to the shared totals: pay
    /// the epoch settlements the burst owes, then one read-modify-write
    /// per burst and outcome on the lines the injector polls, not one per
    /// packet. Release, after the settlements: whoever reads a total sees
    /// the pool releases and epoch settlements of every packet it counts.
    pub(crate) fn publish(&mut self, cx: &Shared) {
        self.resolver.flush();
        if self.delivered > 0 {
            let n = std::mem::take(&mut self.delivered);
            cx.delivered.fetch_add(n, Ordering::Release);
        }
        if self.dropped > 0 {
            let n = std::mem::take(&mut self.dropped);
            cx.dropped.fetch_add(n, Ordering::Release);
        }
    }

    fn now(&mut self, cx: &Shared) -> u64 {
        *self.now.get_or_insert_with(|| match cx.clock {
            Clock::Tick(t) => t,
            Clock::Wall(started) => started.elapsed().as_millis() as u64,
        })
    }

    /// One burst pass of the stage at port `k`: run its kernel over
    /// everything queued locally plus a burst from each of its rings, then
    /// push what it sent across a cut edge as one burst per ring.
    fn run_stage(&mut self, cx: &Shared, k: usize) -> bool {
        let port = &mut self.ports.ports[k];
        let stage = port.stage;
        if port.queue.is_empty() && port.rings.is_empty() && port.out.is_empty() {
            // Nothing queued and no ring to poll or retry (outcome rings
            // only ever accompany a cut edge out of the agent).
            return false;
        }
        for rx in &port.rings {
            cx.stats_of(stage).note_occupancy(rx.len());
            rx.pop_burst(&mut port.queue, BURST);
        }
        // The kernel works the burst it takes while the port queues, in
        // the spare, what the burst sends to this very stage.
        let burst = std::mem::replace(&mut port.queue, std::mem::take(&mut self.spare));
        if !burst.is_empty() {
            let n = burst.len() as u64;
            // The histogram count advances by exactly one per message; the
            // clock is read for the bursts that are due for it only.
            let t0 = cx.telemetry.begin(stage, n);
            self.kernel(cx, stage, &burst);
            cx.telemetry.end(stage, t0, n);
        }
        let mut progress = !burst.is_empty();
        self.spare = burst;
        self.spare.clear();
        if let Stage::Merger(m) = stage {
            let mut outcomes = std::mem::take(&mut self.outcomes);
            for outcome in outcomes.drain(..) {
                self.outcome(cx, m, outcome);
            }
            self.outcomes = outcomes;
        } else if stage == Stage::Agent && !self.outcome_inputs.is_empty() {
            let mut outcomes = std::mem::take(&mut self.outcomes);
            for k in 0..self.outcome_inputs.len() {
                progress |= self.outcome_inputs[k].pop_burst(&mut outcomes, BURST) > 0;
                for outcome in outcomes.drain(..) {
                    self.release(cx, outcome);
                }
            }
            self.outcomes = outcomes;
        }
        self.publish(cx);
        progress | self.ports.pump(cx, k)
    }

    /// Resolve every accumulating-table entry past its deadline — its
    /// siblings stopped coming (a failed NF never sends its copy). The
    /// driver calls this between passes, traffic or not, so a wedged
    /// merge cannot outlive its deadline just because traffic stopped.
    pub(crate) fn expire(&mut self, cx: &Shared) -> bool {
        if self.merge_pending() == 0 {
            return false;
        }
        let Some(cutoff) = self.now(cx).checked_sub(cx.merge_deadline) else {
            return false;
        };
        let mut progress = false;
        for k in 0..self.mergers.len() {
            let m = self.merger_base + k;
            let stats = cx.stats_of(Stage::Merger(m));
            for outcome in self.mergers[k].expire(cutoff, &cx.pool, &mut self.resolver, stats) {
                progress = true;
                self.outcome(cx, m, outcome);
            }
        }
        self.publish(cx);
        progress
    }

    /// One scheduling pass: a burst pass of every stage in pipeline
    /// order, so a burst flows through the whole set without waiting on
    /// anything. Returns true if anything happened.
    pub(crate) fn pass(&mut self, cx: &Shared) -> bool {
        self.now = None;
        let mut progress = false;
        for k in 0..self.ports.ports.len() {
            progress |= self.run_stage(cx, k);
        }
        for (m, stash) in &mut self.outcome_outputs {
            progress |= stash.flush(cx.stats_of(Stage::Merger(*m)));
        }
        progress
    }

    /// Nothing queued on any input and nothing stashed on any output
    /// (the quiesce condition, and the pre-park re-check).
    pub(crate) fn idle(&self) -> bool {
        self.ports.ports.iter().all(|p| {
            p.queue.is_empty()
                && p.rings.iter().all(|rx| rx.is_empty())
                && p.out.iter().all(|(_, stash)| stash.is_empty())
        }) && self.outcome_inputs.iter().all(|rx| rx.is_empty())
            && self.outcome_outputs.iter().all(|(_, s)| s.is_empty())
    }

    /// Honor the watchdog's stall verdicts: a failed NF's runtime stops
    /// invoking it and applies its failure policy instead.
    pub(crate) fn fail_stalled(&mut self, cx: &Shared) {
        for (k, rt) in self.runtimes.iter_mut().enumerate() {
            if cx.watch[self.nf_base + k].failed.load(Ordering::Acquire) {
                rt.force_fail(FailureKind::Stalled);
            }
        }
    }

    /// Accumulating-table entries still waiting for sibling copies.
    pub(crate) fn merge_pending(&self) -> usize {
        self.mergers.iter().map(MergerCore::pending_len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::NfRuntime;
    use nfp_nf::chaos::PanicAfter;
    use nfp_nf::firewall::Firewall;
    use nfp_nf::monitor::Monitor;
    use nfp_orchestrator::{compile, CompileOptions, FailurePolicy, Program, Registry};
    use nfp_packet::ipv4::Ipv4Addr;
    use nfp_packet::meta::{Metadata, VERSION_ORIGINAL};
    use nfp_packet::pool::PacketRef;
    use nfp_policy::Policy;

    /// Monitor ∥ Firewall, with the Firewall failing closed (Table 2) or,
    /// as the canonical hot-swappable policy edit, open.
    fn program(firewall: FailurePolicy, epoch: u64) -> Program {
        let mut registry = Registry::paper_table2();
        let mut fw = registry.get("Firewall").unwrap().clone();
        fw.failure = Some(firewall);
        registry.register(fw);
        let policy = Policy::from_chain(["Monitor", "Firewall"]);
        let compiled = compile(&policy, &registry, &[], &CompileOptions::default()).unwrap();
        compiled.program(1).unwrap().with_epoch(epoch)
    }

    /// One dispatcher holding every stage of `handle`'s program, as the
    /// sync engine builds it, over `nfs` (Monitor, Firewall by `NodeId`).
    fn dispatcher(
        handle: &Arc<ProgramHandle>,
        nfs: Vec<Box<dyn NetworkFunction>>,
    ) -> (Shared, Dispatcher) {
        let layout = Layout {
            nfs: nfs.len(),
            mergers: 1,
            switch: false,
        };
        let program = handle.current().program().clone();
        let configs = program.tables().nf_configs.iter().cloned();
        let mut runtimes = nfs
            .into_iter()
            .zip(configs)
            .map(|(nf, c)| NfRuntime::new(nf, c));
        let cx = Shared::new(
            layout,
            64,
            Arc::clone(handle),
            Telemetry::off(),
            Clock::Tick(0),
            0,
        );
        let d = Dispatcher::new(&cx, 0..layout.len(), &mut runtimes, Rings::default());
        (cx, d)
    }

    /// A parsed packet of `pid`, stamped as the classifier would under
    /// `epoch`, pooled.
    fn stamped(cx: &Shared, pid: u64, epoch: u64) -> Msg {
        let mut p = nfp_traffic::gen::build_tcp_frame(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 9, 9, 9),
            1234,
            80,
            b"x",
        );
        p.parse().unwrap();
        p.set_meta(Metadata::new(1, pid, VERSION_ORIGINAL).with_epoch(epoch));
        Msg::plain(cx.pool.insert(p).unwrap())
    }

    /// Queue `msgs` on `stage` and run that stage's kernel over them as
    /// one burst; returns what it queued for the agent.
    fn burst(cx: &Shared, d: &mut Dispatcher, stage: Stage, msgs: &[Msg]) -> Vec<Msg> {
        let k = d.ports.index(stage).unwrap();
        d.ports.ports[k].queue.extend_from_slice(msgs);
        d.run_stage(cx, k);
        let agent = d.ports.index(Stage::Agent).unwrap();
        std::mem::take(&mut d.ports.ports[agent].queue)
    }

    /// A burst that straddles a live swap — packets of the draining epoch
    /// and of its successor interleaved — runs each packet under the
    /// tables that classified it, and counts a stale-epoch observation for
    /// every packet of the old epoch resolved after the new one was seen,
    /// exactly as one lookup per packet did. The failed Firewall makes the
    /// epochs observable: epoch 0 fails it closed (a failure nil to the
    /// merger), epoch 1 open (the packet goes on untouched).
    #[test]
    fn mixed_epoch_burst_runs_each_packet_under_its_own_tables() {
        let handle = Arc::new(ProgramHandle::new(program(FailurePolicy::FailClosed, 0)));
        let nfs: Vec<Box<dyn NetworkFunction>> = vec![
            Box::new(Monitor::new("Monitor")),
            Box::new(Firewall::with_synthetic_acl("Firewall", 100)),
        ];
        let fw = handle
            .current()
            .program()
            .nf_names()
            .iter()
            .position(|n| n == "Firewall");
        let fw = fw.unwrap();
        let (cx, mut d) = dispatcher(&handle, nfs);
        handle.install(program(FailurePolicy::FailOpen, 1)).unwrap();
        d.runtimes[fw].force_fail(FailureKind::Stalled);

        let epochs = [0, 1, 0, 1, 1, 0];
        let msgs: Vec<Msg> = (0..)
            .zip(epochs)
            .map(|(pid, e)| stamped(&cx, pid, e))
            .collect();
        let out = burst(&cx, &mut d, Stage::Nf(fw), &msgs);
        let nils: Vec<bool> = out
            .iter()
            .map(|m| cx.pool.with(m.r, |p| p.is_nil()))
            .collect();
        assert_eq!(
            nils,
            epochs.map(|e| e == 0),
            "epoch 0 fails closed, epoch 1 open"
        );
        assert_eq!(
            (d.runtimes[fw].policy_drops, d.runtimes[fw].bypassed),
            (3, 3)
        );
        // One lookup per packet would have found epoch 0 stale at the
        // third and sixth packets (epoch 1 seen by then), not the first.
        let stats = cx.stats_of(Stage::Nf(fw)).snapshot();
        assert_eq!((stats.stale_epochs, stats.epoch_conflicts), (2, 0));

        // A burst that opens on the new epoch finds every old packet stale.
        let msgs: Vec<Msg> = (10..)
            .zip([1, 0, 0])
            .map(|(pid, e)| stamped(&cx, pid, e))
            .collect();
        burst(&cx, &mut d, Stage::Nf(fw), &msgs);
        assert_eq!(cx.stats_of(Stage::Nf(fw)).snapshot().stale_epochs, 4);
    }

    /// An NF that panics on the k-th packet of a burst fails from that
    /// packet on: the packets before it ran through the NF, the panicking
    /// one and every later one take the failure policy (here fail-open:
    /// forwarded untouched), and the burst's order is kept.
    #[test]
    fn nf_panicking_mid_burst_fails_from_that_packet_on() {
        let handle = Arc::new(ProgramHandle::new(program(FailurePolicy::FailClosed, 0)));
        let mon = handle
            .current()
            .program()
            .nf_names()
            .iter()
            .position(|n| n == "Monitor");
        let mon = mon.unwrap();
        let mut nfs: Vec<Box<dyn NetworkFunction>> = vec![
            Box::new(Monitor::new("Monitor")),
            Box::new(Firewall::with_synthetic_acl("Firewall", 100)),
        ];
        nfs[mon] = Box::new(PanicAfter::new(Monitor::new("Monitor"), 3));
        let (cx, mut d) = dispatcher(&handle, nfs);
        let msgs: Vec<Msg> = (0..8).map(|pid| stamped(&cx, pid, 0)).collect();
        let out = burst(&cx, &mut d, Stage::Nf(mon), &msgs);
        let rt = &d.runtimes[mon];
        assert!(matches!(rt.failure(), Some(FailureKind::Panicked(_))));
        assert_eq!((rt.processed, rt.bypassed, rt.policy_drops), (3, 5, 0));
        let refs: Vec<PacketRef> = out.iter().map(|m| m.r).collect();
        assert_eq!(refs, msgs.iter().map(|m| m.r).collect::<Vec<_>>());
        assert!(!cx.watch[mon].busy.load(Ordering::Acquire));
    }
}
