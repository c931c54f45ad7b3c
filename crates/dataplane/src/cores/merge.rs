//! The **merger core** — accumulating table plus merge execution (paper
//! §5.3).
//!
//! One [`MergerCore`] backs one merger instance (threaded engine) or the
//! whole merge stage (sync engine). It owns an accumulating table keyed by
//! (MID, segment, PID); when the last expected copy or nil of a packet
//! arrives, it resolves drop conflicts by member priority and folds the
//! copies' modifications into v1, releasing every reference it consumed.
//!
//! The AT carries a per-entry deadline (stamped from the caller's clock —
//! virtual ticks in the sync engine, elapsed milliseconds in the threaded
//! engine). `MergerCore::expire` resolves overdue entries from the
//! copies that arrived (`merger::resolve_partial`) and leaves a
//! *tombstone* per evicted entry, so stragglers that show up later are
//! released on sight instead of reopening an entry that could never
//! complete — that is what guarantees `pool_in_use` returns to 0 even
//! when an NF dies mid-segment.

use crate::actions::Msg;
use crate::cores::agent::Outcome;
use crate::idmap::IdMap;
use crate::merger::{self, Accumulator, MergeOutcome};
use crate::stats::{DropCause, StageStats};
use crate::swap::TablesResolver;
use nfp_packet::pool::PacketPool;

/// The merger core: accumulate arrivals, merge when complete, expire when
/// overdue.
#[derive(Default)]
pub struct MergerCore {
    at: Accumulator,
    /// Expired entries still owed arrivals: (mid, segment, pid) → how many
    /// stragglers to swallow before the tombstone itself is dropped.
    tombstones: IdMap<(u32, u32, u64), usize>,
}

impl MergerCore {
    /// A fresh merger with an empty accumulating table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Offer a burst of arrivals (copies or nils), stamped with the
    /// caller's clock, and hand each merge `Outcome` they complete to
    /// `done`, in arrival order. An arrival completes its packet when it
    /// is the last of the expected count; a straggler for an
    /// already-expired entry is released against its tombstone instead
    /// (the packet was fully accounted at expiry).
    pub fn offer(
        &mut self,
        msgs: &[Msg],
        pool: &PacketPool,
        resolver: &mut TablesResolver,
        stats: &StageStats,
        now: u64,
        mut done: impl FnMut(Outcome),
    ) {
        for &msg in msgs {
            stats.note_in(1);
            let (mid, pid, epoch) = pool.with(msg.r, |p| {
                (p.meta().mid(), p.meta().pid(), p.meta().epoch())
            });
            let segment = msg.segment();
            let spec = resolver
                .tables(epoch, stats)
                .merge_spec_for(segment as usize)
                .expect("merger msg implies spec");
            let key = (mid, segment, pid);
            if let Some(remaining) = self.tombstones.get_mut(&key) {
                pool.release(msg.r);
                stats.note_late_arrival();
                *remaining -= 1;
                if *remaining == 0 {
                    self.tombstones.remove(&key);
                }
                continue;
            }
            let arrival = merger::arrival_from(pool, msg.r);
            if arrival.nil {
                stats.note_nil();
            }
            let offered = self
                .at
                .offer(key, arrival, spec.total_count, now, msg.seq(), epoch);
            let Some(arrivals) = offered else {
                continue;
            };
            stats.note_merge();
            let resolved = merger::resolve_and_merge(spec, &arrivals, pool);
            self.at.recycle(arrivals);
            let (forward, error) = match resolved {
                Ok(MergeOutcome::Forward(v1)) => (Some(v1), false),
                Ok(MergeOutcome::Dropped) => {
                    stats.note_drop(DropCause::MergeResolved);
                    (None, false)
                }
                Err(_) => {
                    stats.note_drop(DropCause::MergeError);
                    (None, true)
                }
            };
            if forward.is_some() {
                stats.note_out(1);
            }
            done(Outcome {
                mid,
                segment,
                seq: msg.seq(),
                epoch,
                forward,
                error,
            });
        }
    }

    /// Resolve every AT entry whose first arrival is at or before
    /// `cutoff` — its deadline has passed — from the copies that did
    /// arrive. Each evicted entry yields exactly one [`Outcome`]
    /// (forwarded partial merge or an accounted drop) carrying the
    /// agent-assigned seq, so the in-order release cursor never stalls on
    /// a packet whose copies stopped coming.
    pub(crate) fn expire(
        &mut self,
        cutoff: u64,
        pool: &PacketPool,
        resolver: &mut TablesResolver,
        stats: &StageStats,
    ) -> Vec<Outcome> {
        if self.at.pending_len() == 0 {
            return Vec::new();
        }
        let mut outcomes = Vec::new();
        for entry in self.at.take_expired(cutoff) {
            let spec = resolver
                .tables(entry.epoch, stats)
                .merge_spec_for(entry.segment as usize)
                .expect("AT entry implies spec");
            let owed = spec.total_count.saturating_sub(entry.arrivals.len());
            if owed > 0 {
                self.tombstones
                    .insert((entry.mid, entry.segment, entry.pid), owed);
                // Before the outcome below finishes the packet: whoever
                // sees the window open also sees the debt that excuses
                // the stragglers' slots (`audit`, pool invariant).
                stats.note_stragglers_owed(owed as u64);
            }
            let forward = match merger::resolve_partial(spec, &entry.arrivals, pool) {
                MergeOutcome::Forward(v1) => {
                    stats.note_merge();
                    stats.note_out(1);
                    Some(v1)
                }
                MergeOutcome::Dropped => {
                    stats.note_drop(DropCause::MergeExpired);
                    None
                }
            };
            self.at.recycle(entry.arrivals);
            outcomes.push(Outcome {
                mid: entry.mid,
                segment: entry.segment,
                seq: entry.seq,
                epoch: entry.epoch,
                forward,
                error: false,
            });
        }
        outcomes
    }

    /// Packets waiting in the accumulating table (leak detection).
    pub fn pending_len(&self) -> usize {
        self.at.pending_len()
    }
}
