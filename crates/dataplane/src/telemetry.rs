//! Packet-path telemetry: per-stage latency histograms and sampled packet
//! traces (the instrumentation behind NFP §7's per-hop numbers).
//!
//! Two independent signals, both cheap enough for the fast path:
//!
//! * **Latency histograms** — every stage (classifier, each NF runtime,
//!   the merger agent, each merger instance, the collector) counts each
//!   unit of work and clocks a sample of its bursts into a fixed-size
//!   log₂-bucketed [`LatencyHistogram`]: 40 relaxed single-writer cells,
//!   mergeable across shards (*What a histogram holds* below). Quantiles
//!   (p50/p90/p99) are read from the bucket upper bounds, so they are
//!   conservative to within one power of two.
//! * **Sampled traces** — when [`TelemetryConfig::trace_every`] is `N > 0`
//!   the classifier stamps every Nth admitted packet `traced` in its
//!   [`Metadata`] sidecar; copies and nils inherit the flag, and every
//!   stage that touches a traced reference appends a [`TraceHop`] to a
//!   bounded buffer. The result is a complete
//!   classify→copy→NF→merge→deliver timeline per sampled packet,
//!   including nil-packet propagation.
//!
//! With histograms off and `trace_every == 0` every instrumentation call
//! is a branch on a bool (no clock read, no lock): the disabled
//! configuration costs nearly nothing (see `telemetry_overhead` in
//! `crates/bench` and the `zero_sampling_overhead` test).
//!
//! # What a histogram holds
//!
//! A stage brackets each burst of messages with [`Telemetry::begin`] /
//! [`Telemetry::end`]. `end` always advances `count` by the burst's
//! length, so **`count` is exact per message**. The clock is read only
//! for a burst that is *due*: the one carrying the stage's first message,
//! and every burst during which `count` crosses a multiple of
//! [`CLOCK_PERIOD`]. A burst of `CLOCK_PERIOD` messages or more is
//! therefore always clocked (the threaded engine under load: one clock
//! pair per burst, as before), and the short bursts of a
//! [`SyncEngine`](crate::sync_engine::SyncEngine) admission window (one
//! message each per `process` call) are clocked once per period instead
//! of every time.
//!
//! A clocked burst's mean stands for its own `n` messages *and* for the
//! unclocked messages the stage counted since its previous clocked burst:
//! all of them land in the mean's bucket and `sum_ns` grows by the
//! measured span plus the mean once per such unclocked message, so
//! `Σ buckets == count` after every clocked burst.
//! Messages counted after the last clocked burst are the *tail*; a
//! snapshot credits the tail to the last observed mean (the live cells
//! are not touched, so the next clocked burst still credits those
//! messages once), which keeps `Σ buckets == count` in every snapshot.
//! [`HistogramSnapshot::timed`] says how many of the `count` messages sat
//! in a clocked burst. Quantiles are those of the clocked sample,
//! weighted by the messages each sample stands for: with `timed ≪ count`
//! p99 is the 99th percentile over roughly `timed` systematic samples —
//! it needs `timed` in the hundreds before a single slow burst stops
//! deciding it — and a stall that falls entirely between two samples is
//! invisible to the histogram (the sampled traces see it).
//!
//! **Single writer.** Every cell of a stage's histogram is written by one
//! thread only — the dispatcher that owns the stage calls `begin`/`end`
//! for it (`Dispatcher::run_stage`, and the classifier
//! stage's `Classifier::admit_observed`, which that same dispatcher
//! drives; the `ingress` gap histogram is fed from the same admission) —
//! so cells advance with a relaxed load and store, not a locked
//! read-modify-write, under the rule [`crate::stats`] states for
//! `StageStats`. Snapshots may be taken from any thread: they see values
//! at most one burst behind, exact once the owning thread is joined. A
//! second writer would lose counts; give it its own histogram.
//!
//! [`Telemetry`] is the live recorder the engines share across stage
//! threads; [`TelemetrySnapshot`] is the plain-value export carried on
//! [`EngineReport`](crate::engine::EngineReport), serializable to JSON
//! ([`TelemetrySnapshot::to_json`]) and Prometheus text exposition
//! ([`TelemetrySnapshot::to_prometheus`]).

use crate::stats::bump;
use nfp_orchestrator::Stage;
use nfp_packet::meta::Metadata;
use nfp_packet::pool::{PacketPool, PacketRef};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Number of log₂ buckets per histogram. Bucket 0 holds 0 ns; bucket `i`
/// (for `0 < i < 39`) holds `[2^(i-1), 2^i)` ns; bucket 39 holds
/// everything from `2^38` ns (~4.6 minutes) up.
const HISTOGRAM_BUCKETS: usize = 40;

/// The bucket index a nanosecond value lands in.
#[inline]
fn bucket_of(ns: u64) -> usize {
    ((u64::BITS - ns.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
}

/// Inclusive upper bound (ns) of bucket `i` — what quantile reads report.
/// The last bucket is open-ended; callers clamp it to the observed max.
#[inline]
fn bucket_upper(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= HISTOGRAM_BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// One stage burst is clocked each time a stage's message count crosses a
/// multiple of this; the bursts in between are only counted (module docs,
/// "What a histogram holds").
///
/// A constant, not a [`TelemetryConfig`] field: the value trades sample
/// density against clock reads, and nothing a caller knows changes that
/// trade. Prime, so a power-of-two round-robin flow set cannot line up
/// with it and have one flow's packets be the only ones ever timed.
/// Measured with `telemetry_overhead 50000` (Monitor|Firewall through
/// `SyncEngine::process`: nine one-message stage bursts per packet, a
/// clock pair ~64 ns on the build host; median of 8 runs, each the best
/// of 9 interleaved rounds, runs spreading ±4 points): histograms-on over
/// telemetry-off costs +44% per packet with this set to 1 (every burst
/// clocked), +5% at 17 and +4% at 31 — past ~16 the per-burst count and
/// due test are what is left, so the denser sample was kept.
pub const CLOCK_PERIOD: u64 = 17;

/// A log₂ latency histogram: relaxed bucket counters plus
/// count/sum/max, written by the one thread that owns its stage (module
/// docs, "Single writer") and snapshot-able from any thread without
/// stopping the engine.
///
/// Cache-line aligned: per-stage histograms sit side by side in vectors
/// (one per NF, one per merger) and are written from different threads;
/// the alignment keeps one stage's counters off its neighbour's line.
#[derive(Debug)]
#[repr(align(64))]
pub struct LatencyHistogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum_ns: AtomicU64,
    max_ns: AtomicU64,
    /// `count` as of the last clocked burst: `Σ buckets`. What `count`
    /// has advanced past it is the tail the next clocked burst credits.
    credited: AtomicU64,
    /// The last clocked burst's mean — where a snapshot puts the tail.
    last_ns: AtomicU64,
    /// Messages that sat in a clocked burst.
    timed: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// A fresh, zeroed histogram.
    pub fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
            credited: AtomicU64::new(0),
            last_ns: AtomicU64::new(0),
            timed: AtomicU64::new(0),
        }
    }

    /// Record one latency observation (a clocked one-message burst).
    #[inline]
    pub fn record_ns(&self, ns: u64) {
        self.record_burst(ns, 1);
    }

    /// Whether a burst of `n` messages is to be clocked: it carries the
    /// first message, or `count` crosses a multiple of [`CLOCK_PERIOD`]
    /// during it.
    #[inline]
    fn due(&self, n: u64) -> bool {
        let seen = self.count.load(Ordering::Relaxed);
        n > 0 && (seen == 0 || seen % CLOCK_PERIOD + n >= CLOCK_PERIOD)
    }

    /// Count a burst of `n` messages that was not clocked.
    #[inline]
    fn count_only(&self, n: u64) {
        bump(&self.count, n);
    }

    /// Record a clocked burst: `n` messages that together took
    /// `total_ns`. The burst's mean is the representative sample for
    /// them and for the tail of messages counted since the previous
    /// clocked burst.
    fn record_burst(&self, total_ns: u64, n: u64) {
        if n == 0 {
            return;
        }
        let mean = total_ns / n;
        let count = self.count.load(Ordering::Relaxed) + n;
        let tail = count - n - self.credited.load(Ordering::Relaxed);
        bump(&self.buckets[bucket_of(mean)], n + tail);
        self.count.store(count, Ordering::Relaxed);
        self.credited.store(count, Ordering::Relaxed);
        bump(&self.sum_ns, total_ns + mean * tail);
        if mean > self.max_ns.load(Ordering::Relaxed) {
            self.max_ns.store(mean, Ordering::Relaxed);
        }
        self.last_ns.store(mean, Ordering::Relaxed);
        bump(&self.timed, n);
    }

    /// The clocked half of [`Telemetry::end`]. Out of line: the callers'
    /// hot loops keep only the count-and-branch of an unclocked burst.
    #[cold]
    #[inline(never)]
    fn record_since(&self, t0: Instant, n: u64) {
        self.record_burst(t0.elapsed().as_nanos() as u64, n);
    }

    /// Plain-value snapshot. The tail (messages counted since the last
    /// clocked burst) is credited to that burst's mean in the copy only.
    fn snapshot(&self) -> HistogramSnapshot {
        // `credited` before `count`: a snapshot racing the owning thread
        // may see a stale pair, never a negative tail.
        let credited = self.credited.load(Ordering::Relaxed);
        let count = self.count.load(Ordering::Relaxed);
        let last_ns = self.last_ns.load(Ordering::Relaxed);
        let tail = count.saturating_sub(credited);
        let mut buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        buckets[bucket_of(last_ns)] += tail;
        HistogramSnapshot {
            buckets,
            count,
            sum_ns: self.sum_ns.load(Ordering::Relaxed) + last_ns * tail,
            max_ns: self.max_ns.load(Ordering::Relaxed),
            timed: self.timed.load(Ordering::Relaxed),
        }
    }
}

/// Plain-value histogram (what snapshots and reports carry).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts (`HISTOGRAM_BUCKETS` entries).
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of all observed nanoseconds.
    pub sum_ns: u64,
    /// Largest single observation.
    pub max_ns: u64,
    /// How many of the `count` observations sat in a clocked burst — the
    /// real clock samples behind the buckets (`timed <= count`; the rest
    /// were credited a neighbouring burst's mean).
    pub timed: u64,
}

impl HistogramSnapshot {
    /// Fold another histogram of the same stage into this one (buckets,
    /// count/sum and timed add; max keeps the maximum). Used for per-shard
    /// roll-up.
    pub fn absorb(&mut self, other: &HistogramSnapshot) {
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum_ns += other.sum_ns;
        self.max_ns = self.max_ns.max(other.max_ns);
        self.timed += other.timed;
    }

    /// The nearest-rank `q`-quantile in nanoseconds, reported as the upper
    /// bound of the bucket holding that rank (conservative to within one
    /// power of two; clamped to the observed max). 0 when empty.
    fn quantile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cumulative = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            cumulative += b;
            if cumulative >= rank {
                return bucket_upper(i).min(self.max_ns);
            }
        }
        self.max_ns
    }

    /// Median latency (ns), bucket-resolution.
    pub fn p50_ns(&self) -> u64 {
        self.quantile_ns(0.50)
    }

    /// 90th-percentile latency (ns), bucket-resolution.
    fn p90_ns(&self) -> u64 {
        self.quantile_ns(0.90)
    }

    /// 99th-percentile latency (ns), bucket-resolution.
    pub fn p99_ns(&self) -> u64 {
        self.quantile_ns(0.99)
    }

    /// Mean latency (ns). 0 when empty.
    #[cfg(test)]
    fn mean_ns(&self) -> u64 {
        self.sum_ns.checked_div(self.count).unwrap_or(0)
    }
}

/// What the telemetry layer records. The default records histograms but
/// no traces; [`TelemetryConfig::disabled`] records nothing and reduces
/// every instrumentation call to a branch.
#[derive(Debug, Clone)]
pub struct TelemetryConfig {
    /// Record per-stage latency histograms.
    pub histograms: bool,
    /// Stamp every Nth classified packet `traced` (0 disables tracing).
    pub trace_every: u64,
    /// Trace-hop buffer capacity; hops beyond it are counted as
    /// [`TelemetrySnapshot::trace_drops`] instead of growing unboundedly.
    pub trace_capacity: usize,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        Self {
            histograms: true,
            trace_every: 0,
            trace_capacity: 4096,
        }
    }
}

impl TelemetryConfig {
    /// Record nothing (the near-zero-overhead configuration).
    pub fn disabled() -> Self {
        Self {
            histograms: false,
            trace_every: 0,
            trace_capacity: 0,
        }
    }

    /// Histograms on plus trace sampling of every `n`th packet.
    #[cfg(test)]
    fn sampled(n: u64) -> Self {
        Self {
            trace_every: n,
            ..Self::default()
        }
    }
}

/// One hop of a traced packet's timeline: which stage touched which copy
/// of which packet, under which program epoch, when.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceHop {
    /// RSS shard that recorded the hop (0 outside [`crate::ShardedEngine`];
    /// PIDs are dense per shard, so traces group by `(shard, mid, pid)`).
    shard: u32,
    /// Match ID of the packet's service graph.
    mid: u32,
    /// Packet ID within the graph.
    pid: u64,
    /// Copy version the stage handled (v1 = original).
    pub version: u8,
    /// Whether the reference was a nil (drop-intention) packet.
    pub nil: bool,
    /// The pipeline stage that recorded the hop.
    pub stage: Stage,
    /// Program epoch stamped on the packet at this hop.
    pub epoch: u64,
    /// Nanoseconds since the engine's telemetry started.
    t_ns: u64,
}

/// Human-readable stage label, matching
/// [`EngineStats::stages`](crate::stats::EngineStats::stages) labels.
pub fn stage_label(stage: Stage) -> String {
    match stage {
        Stage::Classifier => "classifier".to_string(),
        Stage::Nf(i) => format!("nf{i}"),
        Stage::Agent => "agent".to_string(),
        Stage::Merger(i) => format!("merger{i}"),
        Stage::Collector => "collector".to_string(),
        Stage::Switch => "switch".to_string(),
    }
}

/// The clock read of a due burst, kept out of line with the rest of the
/// clocked path ([`LatencyHistogram::record_since`]).
#[cold]
#[inline(never)]
fn read_clock() -> Instant {
    Instant::now()
}

/// The live telemetry recorder one engine's stage threads share (each
/// stage's histogram is written by the stage's own thread only).
#[derive(Debug)]
pub struct Telemetry {
    config: TelemetryConfig,
    start: Instant,
    classifier: LatencyHistogram,
    nfs: Vec<LatencyHistogram>,
    agent: LatencyHistogram,
    mergers: Vec<LatencyHistogram>,
    collector: LatencyHistogram,
    /// Inter-arrival gaps between backend-stamped ingress timestamps
    /// (pcap capture times); empty for
    /// synthetic traffic, which carries no stamp.
    ingress: LatencyHistogram,
    /// The previous packet's ingress stamp (0 = none yet).
    ingress_prev: AtomicU64,
    hops: Mutex<Vec<TraceHop>>,
    trace_drops: AtomicU64,
}

impl Telemetry {
    /// A recorder for an engine with `nfs` NF runtimes and `mergers`
    /// merger instances.
    pub fn new(config: TelemetryConfig, nfs: usize, mergers: usize) -> Self {
        Self {
            config,
            start: Instant::now(),
            classifier: LatencyHistogram::new(),
            nfs: (0..nfs).map(|_| LatencyHistogram::new()).collect(),
            agent: LatencyHistogram::new(),
            mergers: (0..mergers).map(|_| LatencyHistogram::new()).collect(),
            collector: LatencyHistogram::new(),
            ingress: LatencyHistogram::new(),
            ingress_prev: AtomicU64::new(0),
            hops: Mutex::new(Vec::new()),
            trace_drops: AtomicU64::new(0),
        }
    }

    /// A recorder that records nothing (for paths that need a `Telemetry`
    /// but were configured without one).
    pub fn off() -> Self {
        Self::new(TelemetryConfig::disabled(), 0, 0)
    }

    /// Whether trace sampling is enabled.
    #[inline]
    pub fn tracing(&self) -> bool {
        self.config.trace_every > 0
    }

    /// The classifier's sampling period (0 = tracing off).
    pub(crate) fn trace_every(&self) -> u64 {
        self.config.trace_every
    }

    fn hist(&self, stage: Stage) -> Option<&LatencyHistogram> {
        match stage {
            Stage::Classifier => Some(&self.classifier),
            Stage::Nf(i) => self.nfs.get(i),
            Stage::Agent => Some(&self.agent),
            Stage::Merger(i) => self.mergers.get(i),
            Stage::Collector => Some(&self.collector),
            Stage::Switch => None, // it only steers
        }
    }

    /// Open a burst of `n` messages at `stage`. Returns a clock reading
    /// only when histograms are on **and** the burst is due for one
    /// (module docs, "What a histogram holds"); hand whatever comes back
    /// to [`Telemetry::end`] once the burst is done. A burst that is
    /// abandoned (no `end`) leaves the histogram untouched, so the next
    /// one is due in its place.
    #[inline]
    pub fn begin(&self, stage: Stage, n: u64) -> Option<Instant> {
        if self.config.histograms && self.hist(stage)?.due(n) {
            Some(read_clock())
        } else {
            None
        }
    }

    /// Close the burst [`Telemetry::begin`] opened: `stage`'s count
    /// advances by exactly `n`, and a clocked burst (`t0` is `Some`)
    /// credits its mean to those `n` messages plus the unclocked ones
    /// before it. A no-op with histograms off.
    #[inline]
    pub fn end(&self, stage: Stage, t0: Option<Instant>, n: u64) {
        if !self.config.histograms {
            return;
        }
        let Some(h) = self.hist(stage) else { return };
        match t0 {
            Some(t0) => h.record_since(t0, n),
            None => h.count_only(n),
        }
    }

    /// Record a backend arrival timestamp: the gap to the previously
    /// admitted packet's stamp lands in the `ingress` histogram, so a
    /// replayed trace's inter-arrival shape is visible next to the
    /// stage-latency histograms. A zero stamp (synthetic traffic) and
    /// the first stamped packet are no-ops; out-of-order stamps record
    /// a zero gap rather than wrapping.
    #[inline]
    pub(crate) fn note_ingress(&self, ingress_ns: u64) {
        if ingress_ns == 0 || !self.config.histograms {
            return;
        }
        // Single writer (the admitting dispatcher): load + store, no swap.
        let prev = self.ingress_prev.load(Ordering::Relaxed);
        self.ingress_prev.store(ingress_ns, Ordering::Relaxed);
        if prev != 0 {
            self.ingress.record_ns(ingress_ns.saturating_sub(prev));
        }
    }

    /// Append a hop for a traced packet (no-op unless `meta.traced()`).
    /// The buffer is bounded by [`TelemetryConfig::trace_capacity`]; hops
    /// past it are counted, not stored.
    #[inline]
    pub(crate) fn hop_if_traced(&self, stage: Stage, meta: Metadata, nil: bool) {
        if !self.tracing() || !meta.traced() {
            return;
        }
        let hop = TraceHop {
            shard: 0,
            mid: meta.mid(),
            pid: meta.pid(),
            version: meta.version(),
            nil,
            stage,
            epoch: meta.epoch(),
            t_ns: self.start.elapsed().as_nanos() as u64,
        };
        let mut hops = self.hops.lock().expect("trace buffer poisoned");
        if hops.len() < self.config.trace_capacity {
            hops.push(hop);
        } else {
            self.trace_drops.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Append a hop for a pooled reference if its packet is traced —
    /// the per-stage instrumentation point for `Msg`-carrying stages.
    #[inline]
    pub fn trace_ref(&self, stage: Stage, pool: &PacketPool, r: PacketRef) {
        if !self.tracing() {
            return;
        }
        let (meta, nil) = pool.with(r, |p| (p.meta(), p.is_nil()));
        self.hop_if_traced(stage, meta, nil);
    }

    /// Remove the most recent classifier hop recorded for `pid` — the
    /// classifier's rollback when entry actions hit pool backpressure
    /// after the hop was recorded (the admission will be retried and
    /// re-recorded).
    pub(crate) fn retract_classifier_hop(&self, pid: u64) {
        if !self.tracing() {
            return;
        }
        let mut hops = self.hops.lock().expect("trace buffer poisoned");
        if let Some(pos) = hops
            .iter()
            .rposition(|h| h.stage == Stage::Classifier && h.pid == pid)
        {
            hops.remove(pos);
        }
    }

    /// Plain-value export of everything recorded so far.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let mut stages = Vec::with_capacity(4 + self.nfs.len() + self.mergers.len());
        stages.push(StageTelemetry {
            label: "ingress".to_string(),
            hist: self.ingress.snapshot(),
        });
        stages.push(StageTelemetry {
            label: stage_label(Stage::Classifier),
            hist: self.classifier.snapshot(),
        });
        for (i, h) in self.nfs.iter().enumerate() {
            stages.push(StageTelemetry {
                label: stage_label(Stage::Nf(i)),
                hist: h.snapshot(),
            });
        }
        stages.push(StageTelemetry {
            label: stage_label(Stage::Agent),
            hist: self.agent.snapshot(),
        });
        for (i, h) in self.mergers.iter().enumerate() {
            stages.push(StageTelemetry {
                label: stage_label(Stage::Merger(i)),
                hist: h.snapshot(),
            });
        }
        stages.push(StageTelemetry {
            label: stage_label(Stage::Collector),
            hist: self.collector.snapshot(),
        });
        TelemetrySnapshot {
            stages,
            hops: self.hops.lock().expect("trace buffer poisoned").clone(),
            trace_drops: self.trace_drops.load(Ordering::Relaxed),
        }
    }
}

/// One stage's latency histogram, labelled like
/// [`EngineStats::stages`](crate::stats::EngineStats::stages).
#[derive(Debug, Clone, Default)]
pub struct StageTelemetry {
    /// Stage label (`classifier`, `nf0`…, `agent`, `merger0`…, `collector`).
    pub label: String,
    /// The stage's latency histogram.
    pub hist: HistogramSnapshot,
}

/// One traced packet's complete timeline, grouped from the hop buffer.
#[derive(Debug, Clone)]
pub struct PacketTrace {
    /// Packet ID.
    pub pid: u64,
    /// The hops, in recording order (a causal order per packet).
    pub hops: Vec<TraceHop>,
}

/// Plain-value telemetry export: per-stage histograms plus the trace-hop
/// buffer. Carried on [`EngineReport`](crate::engine::EngineReport);
/// mergeable across shards; serializable to JSON and Prometheus text.
#[derive(Debug, Clone, Default)]
pub struct TelemetrySnapshot {
    /// Per-stage histograms, classifier → NFs → agent → mergers → collector.
    pub stages: Vec<StageTelemetry>,
    /// Recorded trace hops, in recording order.
    pub hops: Vec<TraceHop>,
    /// Hops lost to the bounded trace buffer.
    pub trace_drops: u64,
}

impl TelemetrySnapshot {
    /// An empty snapshot (engines configured without telemetry).
    pub fn empty() -> Self {
        Self::default()
    }

    /// The histogram for a stage label, if present.
    pub fn stage(&self, label: &str) -> Option<&StageTelemetry> {
        self.stages.iter().find(|s| s.label == label)
    }

    /// Total histogram observations across all stages.
    pub fn total_count(&self) -> u64 {
        self.stages.iter().map(|s| s.hist.count).sum()
    }

    /// Tag every hop with an RSS shard index (the sharded engine calls
    /// this per replica before merging, so dense per-shard PIDs do not
    /// collide in the fleet-wide snapshot).
    pub(crate) fn tag_shard(&mut self, shard: u32) {
        for h in &mut self.hops {
            h.shard = shard;
        }
    }

    /// Fold another snapshot into this one: same-label histograms absorb,
    /// new labels append, hops concatenate, drop counts add.
    pub fn merge(&mut self, other: &TelemetrySnapshot) {
        for theirs in &other.stages {
            match self.stages.iter_mut().find(|s| s.label == theirs.label) {
                Some(mine) => mine.hist.absorb(&theirs.hist),
                None => self.stages.push(theirs.clone()),
            }
        }
        self.hops.extend(other.hops.iter().copied());
        self.trace_drops += other.trace_drops;
    }

    /// Group the hop buffer into per-packet timelines, keyed by
    /// `(shard, mid, pid)`, preserving recording order within each packet.
    pub fn traces(&self) -> Vec<PacketTrace> {
        let mut order: Vec<PacketTrace> = Vec::new();
        let mut index = std::collections::HashMap::new();
        for h in &self.hops {
            let key = (h.shard, h.mid, h.pid);
            let at = *index.entry(key).or_insert_with(|| {
                order.push(PacketTrace {
                    pid: h.pid,
                    hops: Vec::new(),
                });
                order.len() - 1
            });
            order[at].hops.push(*h);
        }
        order
    }

    /// Serialize to JSON (hand-rolled; buckets are sparse `[index, count]`
    /// pairs so disabled stages stay tiny).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n  \"stages\": [\n");
        for (i, s) in self.stages.iter().enumerate() {
            let sparse: Vec<String> = s
                .hist
                .buckets
                .iter()
                .enumerate()
                .filter(|(_, c)| **c > 0)
                .map(|(b, c)| format!("[{b},{c}]"))
                .collect();
            let _ = write!(
                out,
                "    {{\"stage\":\"{}\",\"count\":{},\"timed\":{},\"sum_ns\":{},\"max_ns\":{},\"p50_ns\":{},\"p90_ns\":{},\"p99_ns\":{},\"buckets\":[{}]}}{}",
                s.label,
                s.hist.count,
                s.hist.timed,
                s.hist.sum_ns,
                s.hist.max_ns,
                s.hist.p50_ns(),
                s.hist.p90_ns(),
                s.hist.p99_ns(),
                sparse.join(","),
                if i + 1 < self.stages.len() { ",\n" } else { "\n" }
            );
        }
        out.push_str("  ],\n  \"hops\": [\n");
        for (i, h) in self.hops.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"shard\":{},\"mid\":{},\"pid\":{},\"version\":{},\"nil\":{},\"stage\":\"{}\",\"epoch\":{},\"t_ns\":{}}}{}",
                h.shard,
                h.mid,
                h.pid,
                h.version,
                h.nil,
                stage_label(h.stage),
                h.epoch,
                h.t_ns,
                if i + 1 < self.hops.len() { ",\n" } else { "\n" }
            );
        }
        let _ = write!(out, "  ],\n  \"trace_drops\": {}\n}}\n", self.trace_drops);
        out
    }

    /// Serialize to Prometheus text exposition (cumulative `le` buckets
    /// per stage plus `_sum`/`_count`, the per-stage clocked-message
    /// counter `_timed_total` and max gauge, and trace counters).
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        out.push_str("# TYPE nfp_stage_latency_ns histogram\n");
        for s in &self.stages {
            let mut cumulative = 0u64;
            for (i, b) in s.hist.buckets.iter().enumerate() {
                cumulative += b;
                if *b == 0 && i + 1 != s.hist.buckets.len() {
                    continue; // sparse: only emit buckets that changed the count
                }
                let le = if i + 1 == s.hist.buckets.len() {
                    "+Inf".to_string()
                } else {
                    bucket_upper(i).to_string()
                };
                let _ = writeln!(
                    out,
                    "nfp_stage_latency_ns_bucket{{stage=\"{}\",le=\"{}\"}} {}",
                    s.label, le, cumulative
                );
            }
            let _ = writeln!(
                out,
                "nfp_stage_latency_ns_sum{{stage=\"{}\"}} {}",
                s.label, s.hist.sum_ns
            );
            let _ = writeln!(
                out,
                "nfp_stage_latency_ns_count{{stage=\"{}\"}} {}",
                s.label, s.hist.count
            );
        }
        out.push_str("# TYPE nfp_stage_latency_ns_timed_total counter\n");
        for s in &self.stages {
            let _ = writeln!(
                out,
                "nfp_stage_latency_ns_timed_total{{stage=\"{}\"}} {}",
                s.label, s.hist.timed
            );
        }
        out.push_str("# TYPE nfp_stage_latency_max_ns gauge\n");
        for s in &self.stages {
            let _ = writeln!(
                out,
                "nfp_stage_latency_max_ns{{stage=\"{}\"}} {}",
                s.label, s.hist.max_ns
            );
        }
        out.push_str("# TYPE nfp_trace_hops_total counter\n");
        let _ = writeln!(out, "nfp_trace_hops_total {}", self.hops.len());
        out.push_str("# TYPE nfp_trace_drops_total counter\n");
        let _ = writeln!(out, "nfp_trace_drops_total {}", self.trace_drops);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_log2() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), HISTOGRAM_BUCKETS - 1);
        // Bucket upper bounds bracket their members.
        for ns in [0u64, 1, 7, 100, 65_536, 1 << 38] {
            assert!(ns <= bucket_upper(bucket_of(ns)));
        }
    }

    #[test]
    fn histogram_records_and_quantiles() {
        let h = LatencyHistogram::new();
        for ns in [10u64, 20, 30, 1000, 100_000] {
            h.record_ns(ns);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum_ns, 101_060);
        assert_eq!(s.max_ns, 100_000);
        assert_eq!(s.mean_ns(), 20_212);
        // p50 sits in 30's bucket [16,31]; p99 in the max's bucket, clamped.
        assert_eq!(s.p50_ns(), 31);
        assert_eq!(s.p99_ns(), 100_000);
        assert!(s.p50_ns() <= s.p90_ns() && s.p90_ns() <= s.p99_ns());
        // Empty histogram quantiles are 0.
        assert_eq!(HistogramSnapshot::default().p99_ns(), 0);
    }

    #[test]
    fn clocked_burst_preserves_counts_and_totals() {
        let h = LatencyHistogram::new();
        h.record_burst(3200, 32); // a 32-packet burst, mean 100 ns
        h.record_burst(0, 0); // empty burst is a no-op
        let s = h.snapshot();
        assert_eq!(s.count, 32, "one count per packet of the burst");
        assert_eq!(s.timed, 32);
        assert_eq!(s.sum_ns, 3200);
        assert_eq!(s.max_ns, 100);
        assert_eq!(s.buckets.iter().sum::<u64>(), 32);
        // All 32 land in the mean's bucket.
        assert_eq!(s.buckets[bucket_of(100)], 32);
    }

    #[test]
    fn first_message_and_every_period_crossing_are_due() {
        let h = LatencyHistogram::new();
        assert!(!h.due(0), "an empty burst is never clocked");
        assert!(h.due(1), "the first message is clocked");
        h.record_burst(100, 1);
        // One-message bursts: due exactly when count reaches a multiple
        // of the period.
        for seen in 1..3 * CLOCK_PERIOD {
            assert_eq!(
                h.due(1),
                (seen + 1).is_multiple_of(CLOCK_PERIOD),
                "after {seen}"
            );
            // A burst of a whole period crosses a multiple wherever it
            // starts; one message short of that does not, right after one.
            assert!(h.due(CLOCK_PERIOD) && h.due(4 * CLOCK_PERIOD));
            if seen.is_multiple_of(CLOCK_PERIOD) {
                assert!(!h.due(CLOCK_PERIOD - 1));
            }
            h.count_only(1);
        }
    }

    #[test]
    fn clocked_burst_credits_the_unclocked_tail_before_it() {
        let h = LatencyHistogram::new();
        h.record_burst(40, 1); // first message, 40 ns
        let k = 9;
        for _ in 0..k {
            h.count_only(1);
        }
        // Mid-period snapshot: the tail rides the last observed mean, in
        // the copy only.
        let mid = h.snapshot();
        assert_eq!((mid.count, mid.timed), (1 + k, 1));
        assert_eq!(mid.buckets[bucket_of(40)], 1 + k);
        assert_eq!(mid.sum_ns, 40 * (1 + k));
        // The next clocked burst (n = 4, mean 1000 ns) takes the tail:
        // n + k in one bucket, mean x (n + k) in the sum.
        let n = 4;
        h.record_burst(4000, n);
        let s = h.snapshot();
        assert_eq!((s.count, s.timed), (1 + k + n, 1 + n));
        assert_eq!(
            s.buckets[bucket_of(40)],
            1,
            "the tail was not credited twice"
        );
        assert_eq!(s.buckets[bucket_of(1000)], n + k);
        assert_eq!(s.sum_ns, 40 + 1000 * (n + k));
        assert_eq!(s.max_ns, 1000);
        assert_eq!(s.buckets.iter().sum::<u64>(), s.count);
    }

    #[test]
    fn histograms_absorb() {
        let a = LatencyHistogram::new();
        a.record_ns(5);
        a.record_ns(500);
        let b = LatencyHistogram::new();
        b.record_ns(50_000);
        let mut s = a.snapshot();
        s.absorb(&b.snapshot());
        assert_eq!((s.count, s.timed), (3, 3));
        assert_eq!(s.sum_ns, 50_505);
        assert_eq!(s.max_ns, 50_000);
        assert_eq!(s.buckets.iter().sum::<u64>(), 3);
    }

    #[test]
    fn disabled_clock_skips_recording() {
        let t = Telemetry::off();
        assert!(t.begin(Stage::Classifier, 1).is_none());
        assert!(!t.tracing());
        let t0 = t.begin(Stage::Classifier, 1);
        t.end(Stage::Classifier, t0, 1);
        let pool = PacketPool::new(1);
        let r = pool
            .insert(nfp_packet::Packet::from_bytes(&[0u8; 60]).unwrap())
            .unwrap();
        t.trace_ref(Stage::Classifier, &pool, r);
        assert_eq!(t.snapshot().total_count(), 0);
        assert!(t.snapshot().hops.is_empty());
    }

    #[test]
    fn hops_record_bounded_and_group() {
        let t = Telemetry::new(
            TelemetryConfig {
                histograms: false,
                trace_every: 1,
                trace_capacity: 3,
            },
            1,
            1,
        );
        let m = Metadata::new(7, 3, 1).with_epoch(2).with_traced(true);
        t.hop_if_traced(Stage::Classifier, m, false);
        t.hop_if_traced(Stage::Nf(0), m.with_version(2), false);
        t.hop_if_traced(Stage::Merger(0), m, true);
        t.hop_if_traced(Stage::Collector, m, false); // over capacity
        t.hop_if_traced(Stage::Collector, m.with_traced(false), false); // untraced
        let snap = t.snapshot();
        assert_eq!(snap.hops.len(), 3);
        assert_eq!(snap.trace_drops, 1);
        let traces = snap.traces();
        assert_eq!(traces.len(), 1);
        assert_eq!(traces[0].pid, 3);
        assert_eq!(traces[0].hops[0].stage, Stage::Classifier);
        assert_eq!(traces[0].hops[1].version, 2);
        assert!(traces[0].hops[2].nil);
        assert_eq!(traces[0].hops[2].epoch, 2);
    }

    #[test]
    fn classifier_hop_retracts() {
        let t = Telemetry::new(TelemetryConfig::sampled(1), 0, 0);
        let m = Metadata::new(1, 9, 1).with_traced(true);
        t.hop_if_traced(Stage::Classifier, m, false);
        t.hop_if_traced(
            Stage::Classifier,
            Metadata::new(1, 10, 1).with_traced(true),
            false,
        );
        t.retract_classifier_hop(9);
        let snap = t.snapshot();
        assert_eq!(snap.hops.len(), 1);
        assert_eq!(snap.hops[0].pid, 10);
        // Retracting an unrecorded pid is harmless.
        t.retract_classifier_hop(99);
    }

    #[test]
    fn snapshot_merges_and_tags_shards() {
        let a = Telemetry::new(TelemetryConfig::sampled(1), 1, 1);
        a.end(Stage::Nf(0), a.begin(Stage::Nf(0), 1), 1);
        a.hop_if_traced(
            Stage::Classifier,
            Metadata::new(1, 0, 1).with_traced(true),
            false,
        );
        let b = Telemetry::new(TelemetryConfig::sampled(1), 1, 1);
        b.end(Stage::Nf(0), b.begin(Stage::Nf(0), 1), 1);
        b.hop_if_traced(
            Stage::Classifier,
            Metadata::new(1, 0, 1).with_traced(true),
            false,
        );
        let mut sa = a.snapshot();
        let mut sb = b.snapshot();
        sa.tag_shard(0);
        sb.tag_shard(1);
        sa.merge(&sb);
        assert_eq!(sa.stage("nf0").unwrap().hist.count, 2);
        // Same dense pid on two shards stays two distinct traces.
        assert_eq!(sa.traces().len(), 2);
    }

    #[test]
    fn serializers_emit_both_formats() {
        let t = Telemetry::new(TelemetryConfig::sampled(1), 1, 1);
        t.end(Stage::Classifier, t.begin(Stage::Classifier, 1), 1);
        t.hop_if_traced(
            Stage::Classifier,
            Metadata::new(5, 1, 1).with_traced(true),
            false,
        );
        let snap = t.snapshot();
        let json = snap.to_json();
        assert!(json.contains("\"stage\":\"classifier\""));
        assert!(json.contains("\"p99_ns\""));
        assert!(json.contains("\"hops\""));
        let prom = snap.to_prometheus();
        assert!(prom.contains("nfp_stage_latency_ns_bucket{stage=\"classifier\",le=\"+Inf\"} 1"));
        assert!(prom.contains("nfp_stage_latency_ns_count{stage=\"nf0\"} 0"));
        assert!(prom.contains("nfp_stage_latency_ns_timed_total{stage=\"classifier\"} 1"));
        assert!(json.contains("\"count\":1,\"timed\":1,"));
        assert!(prom.contains("nfp_trace_hops_total 1"));
    }
}
