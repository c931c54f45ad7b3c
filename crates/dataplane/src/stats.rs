//! Per-stage engine observability.
//!
//! Every pipeline stage (classifier, each NF runtime, the merger agent,
//! each merger instance, the collector) owns a [`StageStats`]: a set of
//! relaxed atomic counters cheap enough to bump on the fast path (see
//! *Single-writer counters* below). The
//! engine aggregates them into an [`EngineStats`] snapshot on the
//! [`crate::engine::EngineReport`], so a correctness failure can be
//! localized by inspecting where the counters stop balancing
//! (see README.md, "Debugging correctness failures with stage counters").
//!
//! Accounting discipline: for every stage, packets in = packets out +
//! packets dropped at that stage, where each drop carries an explicit
//! `DropCause`. Ring backpressure is *never* a drop — full rings are
//! waited out (the mesh is deadlock-free) and surface as `backpressure`
//! stall events instead.
//!
//! # Single-writer counters
//!
//! A stage belongs to exactly one dispatcher, and a dispatcher to exactly
//! one thread, so the per-message counters of a [`StageStats`] —
//! `note_in`, `note_out`,
//! `note_copy`, `note_nil`,
//! `note_merge` and
//! `note_drop` — have **one writer each**: the
//! thread that owns the stage. They are bumped with a relaxed load and a
//! relaxed store, not a locked read-modify-write; readers on other threads
//! (reports, the auditor) see a value that is at most one bump behind, and
//! exact once the owning thread has been joined. Whoever calls these from a
//! second thread loses counts — a new caller off the owning thread must use
//! its own `StageStats`. Cells that *do* have a second writer keep their
//! atomic read-modify-write: `ring_high_water` (`atomic_max`), the
//! engine-wide delivered/dropped totals, epoch pin counts, pool reference
//! counts and the pool free list.

use std::sync::atomic::{AtomicU64, Ordering};

/// Atomically raise `slot` to at least `value` with a compare-and-swap
/// max loop. A plain `store` would let two concurrent drainers race —
/// the smaller observation could land last and erase the true peak; the
/// CAS loop only ever moves the value up. Used for every "keep the
/// maximum" cell with more than one writer (ring high-water marks).
#[inline]
fn atomic_max(slot: &AtomicU64, value: u64) {
    let mut current = slot.load(Ordering::Relaxed);
    while current < value {
        match slot.compare_exchange_weak(current, value, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(seen) => current = seen,
        }
    }
}

/// Advance a counter that only the calling thread ever writes: a relaxed
/// load and store instead of a locked `fetch_add` (module docs,
/// "Single-writer counters").
#[inline]
pub(crate) fn bump(counter: &AtomicU64, n: u64) {
    counter.store(counter.load(Ordering::Relaxed) + n, Ordering::Relaxed);
}

pub(crate) use nfp_packet::io::DropCause;
use nfp_packet::io::RunRecord;

/// Atomic counters for one pipeline stage, written by the one thread that
/// owns the stage (module docs, "Single-writer counters").
///
/// Aligned to a cache line: stage stats live in arrays (one entry per NF
/// or merger) and are hammered from different threads, so adjacent
/// entries must never share a line.
#[derive(Debug, Default)]
#[repr(align(64))]
pub struct StageStats {
    /// Messages (packet references) entering the stage.
    packets_in: AtomicU64,
    /// Messages the stage emitted downstream.
    packets_out: AtomicU64,
    /// Packet copies materialized by this stage (paper OP#2).
    copies: AtomicU64,
    /// Nil (drop-intention) packets emitted or received here.
    nil_packets: AtomicU64,
    /// Completed merge resolutions.
    merges: AtomicU64,
    /// Full-ring stall events while emitting (bounded-retry exhausted once).
    backpressure: AtomicU64,
    /// Highest receive-ring occupancy observed when draining.
    ring_high_water: AtomicU64,
    /// Copies that arrived for an already-expired merge entry (released
    /// against the expiry tombstone; the packet was accounted at expiry).
    pub(crate) late_arrivals: AtomicU64,
    /// Copies deadline-expired merge entries were still waiting for when
    /// they were resolved. Minus `late_arrivals`, it is the stragglers
    /// that may still hold a pool slot for a packet already accounted.
    pub(crate) stragglers_owed: AtomicU64,
    /// Packets this stage resolved under a draining (non-newest) epoch —
    /// the expected transient during a live swap, not an error.
    stale_epochs: AtomicU64,
    /// Epoch lookups that matched no live epoch and fell back to the
    /// current tables (the drain protocol makes this unreachable).
    epoch_conflicts: AtomicU64,
    /// Drops by cause, indexed by [`DropCause`].
    causes: [AtomicU64; 8],
}

impl StageStats {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Count `n` messages entering the stage.
    pub(crate) fn note_in(&self, n: u64) {
        bump(&self.packets_in, n);
    }

    /// Count `n` messages emitted downstream.
    pub(crate) fn note_out(&self, n: u64) {
        bump(&self.packets_out, n);
    }

    /// Count one packet copy (OP#2).
    pub(crate) fn note_copy(&self) {
        bump(&self.copies, 1);
    }

    /// Count one nil packet.
    pub(crate) fn note_nil(&self) {
        bump(&self.nil_packets, 1);
    }

    /// Count one completed merge resolution.
    pub(crate) fn note_merge(&self) {
        bump(&self.merges, 1);
    }

    /// Count one full-ring stall event.
    pub(crate) fn note_backpressure(&self) {
        self.backpressure.fetch_add(1, Ordering::Relaxed);
    }

    /// Record an observed receive-ring occupancy (keeps the maximum via a
    /// compare-and-swap loop, so concurrent drainers can never regress
    /// the high-water mark).
    pub(crate) fn note_occupancy(&self, n: usize) {
        atomic_max(&self.ring_high_water, n as u64);
    }

    /// Count one arrival for an already-expired merge entry. Release:
    /// the arrival's pool slot was released first, and the engine's probe
    /// publication reads this (acquire) before the pool occupancy.
    pub(crate) fn note_late_arrival(&self) {
        self.late_arrivals.fetch_add(1, Ordering::Release);
    }

    /// Count `n` copies an expired merge entry was still waiting for.
    pub(crate) fn note_stragglers_owed(&self, n: u64) {
        bump(&self.stragglers_owed, n);
    }

    /// Count one packet resolved under a draining (non-newest) epoch.
    pub(crate) fn note_stale_epoch(&self) {
        self.stale_epochs.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one epoch lookup that matched no live epoch.
    pub(crate) fn note_epoch_conflict(&self) {
        self.epoch_conflicts.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one drop with its cause.
    pub(crate) fn note_drop(&self, cause: DropCause) {
        bump(&self.causes[cause as usize], 1);
    }

    /// Plain-value snapshot of the counters.
    pub fn snapshot(&self) -> StageSnapshot {
        StageSnapshot {
            packets_in: self.packets_in.load(Ordering::Relaxed),
            packets_out: self.packets_out.load(Ordering::Relaxed),
            copies: self.copies.load(Ordering::Relaxed),
            nil_packets: self.nil_packets.load(Ordering::Relaxed),
            merges: self.merges.load(Ordering::Relaxed),
            backpressure: self.backpressure.load(Ordering::Relaxed),
            ring_high_water: self.ring_high_water.load(Ordering::Relaxed),
            late_arrivals: self.late_arrivals.load(Ordering::Relaxed),
            stragglers_owed: self.stragglers_owed.load(Ordering::Relaxed),
            stale_epochs: self.stale_epochs.load(Ordering::Relaxed),
            epoch_conflicts: self.epoch_conflicts.load(Ordering::Relaxed),
            causes: std::array::from_fn(|i| self.causes[i].load(Ordering::Relaxed)),
        }
    }
}

/// Plain-value counters for one stage (what reports carry).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageSnapshot {
    /// Messages entering the stage.
    pub packets_in: u64,
    /// Messages emitted downstream.
    pub packets_out: u64,
    /// Packet copies materialized (OP#2).
    pub copies: u64,
    /// Nil packets seen.
    pub nil_packets: u64,
    /// Completed merge resolutions.
    pub merges: u64,
    /// Full-ring stall events.
    pub backpressure: u64,
    /// Highest receive-ring occupancy observed.
    pub ring_high_water: u64,
    /// Arrivals released against an expired merge entry's tombstone.
    pub late_arrivals: u64,
    /// Copies expired merge entries were still waiting for.
    pub stragglers_owed: u64,
    /// Packets resolved under a draining (non-newest) epoch.
    pub(crate) stale_epochs: u64,
    /// Epoch lookups that matched no live epoch (fell back to current).
    pub epoch_conflicts: u64,
    /// Drops by cause, indexed by [`DropCause`].
    pub causes: [u64; 8],
}

impl StageSnapshot {
    /// Total packets this stage dropped, over all causes.
    fn drops(&self) -> u64 {
        self.causes.iter().sum()
    }

    /// Total classifier rejections, over both admission causes (policy
    /// and malformed framing) — the `rejected` term of the soak
    /// accounting invariant `delivered + dropped + rejected == injected`.
    pub fn rejects(&self) -> u64 {
        self.causes[DropCause::AdmitRejected as usize]
            + self.causes[DropCause::AdmitMalformed as usize]
    }

    /// The record of a run whose stages fold into `self`: `pulled` packets
    /// in, `delivered` out, `lost` the rest, per-NF counts in `NodeId` order.
    pub(crate) fn record(
        &self,
        pulled: u64,
        delivered: u64,
        lost: u64,
        per_nf: impl IntoIterator<Item = (u64, u64)>,
    ) -> RunRecord {
        let mut r = RunRecord::default();
        (r.pulled, r.delivered, r.rejected) = (pulled, delivered, self.rejects());
        (r.dropped, r.causes) = (lost.saturating_sub(r.rejected), self.causes);
        (r.copies, r.merges) = (self.copies, self.merges);
        for (processed, dropped) in per_nf {
            r.push_nf(processed, dropped);
        }
        r
    }

    /// Fold another snapshot of the *same logical stage* into this one.
    /// Counters sum; `ring_high_water` keeps the maximum (it is a peak
    /// observation, not a flow count). Used to aggregate per-shard stats
    /// into one fleet-wide view.
    pub fn absorb(&mut self, other: &StageSnapshot) {
        self.packets_in += other.packets_in;
        self.packets_out += other.packets_out;
        self.copies += other.copies;
        self.nil_packets += other.nil_packets;
        self.merges += other.merges;
        self.backpressure += other.backpressure;
        self.ring_high_water = self.ring_high_water.max(other.ring_high_water);
        self.late_arrivals += other.late_arrivals;
        self.stragglers_owed += other.stragglers_owed;
        self.stale_epochs += other.stale_epochs;
        self.epoch_conflicts += other.epoch_conflicts;
        for (mine, theirs) in self.causes.iter_mut().zip(other.causes) {
            *mine += theirs;
        }
    }
}

/// Snapshot of every stage of one engine run.
#[derive(Debug, Clone, Default)]
pub struct EngineStats {
    /// The classifier stage.
    pub classifier: StageSnapshot,
    /// One entry per NF runtime, in `NodeId` order.
    pub nfs: Vec<StageSnapshot>,
    /// The merger agent (router + sequencer).
    pub agent: StageSnapshot,
    /// One entry per merger instance.
    pub mergers: Vec<StageSnapshot>,
    /// The collector stage.
    pub collector: StageSnapshot,
}

impl EngineStats {
    /// Every stage's counters folded into one snapshot.
    pub(crate) fn folded(&self) -> StageSnapshot {
        let mut all = StageSnapshot::default();
        for (_, stage) in self.stages() {
            all.absorb(stage);
        }
        all
    }

    /// Fold another engine's stats into this one, stage by stage. Shards
    /// run identical pipelines, so stage `i` of one shard corresponds to
    /// stage `i` of every other; vectors extend when `other` has more
    /// entries (it never does between equal shards, but the merge stays
    /// total rather than panicking).
    pub(crate) fn merge(&mut self, other: &EngineStats) {
        self.classifier.absorb(&other.classifier);
        self.agent.absorb(&other.agent);
        self.collector.absorb(&other.collector);
        for (i, s) in other.nfs.iter().enumerate() {
            match self.nfs.get_mut(i) {
                Some(mine) => mine.absorb(s),
                None => self.nfs.push(*s),
            }
        }
        for (i, s) in other.mergers.iter().enumerate() {
            match self.mergers.get_mut(i) {
                Some(mine) => mine.absorb(s),
                None => self.mergers.push(*s),
            }
        }
    }

    /// Iterate `(label, snapshot)` over every stage.
    pub fn stages(&self) -> impl Iterator<Item = (String, &StageSnapshot)> {
        std::iter::once(("classifier".to_string(), &self.classifier))
            .chain(
                self.nfs
                    .iter()
                    .enumerate()
                    .map(|(i, s)| (format!("nf{i}"), s)),
            )
            .chain(std::iter::once(("agent".to_string(), &self.agent)))
            .chain(
                self.mergers
                    .iter()
                    .enumerate()
                    .map(|(i, s)| (format!("merger{i}"), s)),
            )
            .chain(std::iter::once(("collector".to_string(), &self.collector)))
    }
}

impl std::fmt::Display for EngineStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{:<12} {:>9} {:>9} {:>7} {:>6} {:>7} {:>6} {:>9} {:>6}",
            "stage", "in", "out", "copies", "nils", "merges", "drops", "backpres", "hiwat"
        )?;
        for (label, s) in self.stages() {
            writeln!(
                f,
                "{:<12} {:>9} {:>9} {:>7} {:>6} {:>7} {:>6} {:>9} {:>6}",
                label,
                s.packets_in,
                s.packets_out,
                s.copies,
                s.nil_packets,
                s.merges,
                s.drops(),
                s.backpressure,
                s.ring_high_water
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let s = StageStats::new();
        s.note_in(5);
        s.note_out(3);
        s.note_copy();
        s.note_nil();
        s.note_merge();
        s.note_backpressure();
        s.note_occupancy(7);
        s.note_occupancy(3); // max keeps 7
        s.note_drop(DropCause::NfVerdict);
        s.note_drop(DropCause::MergeResolved);
        s.note_drop(DropCause::NfFailed);
        s.note_drop(DropCause::MergeExpired);
        s.note_late_arrival();
        let snap = s.snapshot();
        assert_eq!(snap.packets_in, 5);
        assert_eq!(snap.packets_out, 3);
        assert_eq!(snap.copies, 1);
        assert_eq!(snap.nil_packets, 1);
        assert_eq!(snap.merges, 1);
        assert_eq!(snap.backpressure, 1);
        assert_eq!(snap.ring_high_water, 7);
        assert_eq!(snap.drops(), 4); // failure causes count as drops
        assert_eq!(snap.late_arrivals, 1); // observations, not drops
    }

    #[test]
    fn snapshots_absorb_and_engine_stats_merge() {
        let a = StageStats::new();
        a.note_in(4);
        a.note_occupancy(9);
        a.note_drop(DropCause::NfVerdict);
        let b = StageStats::new();
        b.note_in(6);
        b.note_occupancy(2);
        b.note_drop(DropCause::MergeError);
        let mut snap = a.snapshot();
        snap.absorb(&b.snapshot());
        assert_eq!(snap.packets_in, 10);
        assert_eq!(snap.ring_high_water, 9); // max, not sum
        assert_eq!(snap.drops(), 2);

        let mut left = EngineStats {
            nfs: vec![a.snapshot()],
            ..EngineStats::default()
        };
        let right = EngineStats {
            nfs: vec![b.snapshot(), a.snapshot()],
            mergers: vec![b.snapshot()],
            ..EngineStats::default()
        };
        left.merge(&right);
        assert_eq!(left.nfs.len(), 2); // extended by the longer side
        assert_eq!(left.nfs[0].packets_in, 10);
        assert_eq!(left.mergers.len(), 1);
        assert_eq!(left.folded().drops(), 4);
    }

    #[test]
    fn ring_high_water_survives_two_thread_hammer() {
        // Regression: the high-water mark must be a monotone max under
        // concurrent drainers. Two threads interleave ascending and
        // descending occupancy observations; a racy plain store could
        // leave a smaller value in place, the CAS max loop cannot.
        let s = StageStats::new();
        const TOP: usize = 10_000;
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for n in 0..=TOP {
                    s.note_occupancy(n);
                }
            });
            scope.spawn(|| {
                for n in (0..TOP).rev() {
                    s.note_occupancy(n);
                }
            });
        });
        assert_eq!(s.snapshot().ring_high_water, TOP as u64);

        // The helper alone, hammered on one cell from two threads.
        let cell = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for offset in [0u64, 1] {
                let cell = &cell;
                scope.spawn(move || {
                    for v in (offset..2 * TOP as u64).step_by(2) {
                        atomic_max(cell, v);
                    }
                    for v in (0..TOP as u64).rev() {
                        atomic_max(cell, v);
                    }
                });
            }
        });
        assert_eq!(cell.load(Ordering::Relaxed), 2 * TOP as u64 - 1);
    }

    #[test]
    fn engine_stats_totals_and_display() {
        let s = StageStats::new();
        s.note_drop(DropCause::AdmitRejected);
        let e = EngineStats {
            classifier: s.snapshot(),
            nfs: vec![StageSnapshot::default(); 2],
            ..Default::default()
        };
        assert_eq!(e.folded().drops(), 1);
        let text = e.to_string();
        assert!(text.contains("classifier"));
        assert!(text.contains("nf1"));
        assert!(text.contains("collector"));
    }
}
