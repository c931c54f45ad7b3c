//! Epoch-based live reconfiguration: versioned [`Program`] hot swap.
//!
//! A running engine serves exactly one *current* program epoch and at most
//! one *draining* predecessor. The lifecycle of a packet against this
//! module is:
//!
//! 1. **Admit** — the classifier pins the packet to the current epoch
//!    (reserved once per intake burst, `ProgramHandle::reserve`) and
//!    stamps its [`nfp_packet::meta::Metadata`] with the epoch id.
//! 2. **Resolve** — every downstream stage (NF runtime, agent, merger)
//!    looks its tables up *by the packet's stamped epoch* through a
//!    [`TablesResolver`], never through a shared "latest" pointer. A
//!    packet classified under epoch N is forwarded and merged under
//!    epoch N even if epoch N+1 installs mid-flight.
//! 3. **Settle** — when the engine delivers or drops the packet it settles
//!    the stamped epoch (`TablesResolver::settle`, paid once per stage
//!    burst), lowering the epoch's in-flight count.
//!
//! Only step 1 takes the handle's lock. The resolver caches the
//! `Arc<EpochState>` of each epoch it has seen, hands the tables out as a
//! borrow and settles on the cached state directly, so between admission
//! and settle a packet takes no lock and clones no `Arc`. That is sound
//! because a pinned packet keeps its epoch live: an epoch is retired only
//! once `attempts == settled`, and the packet being resolved or settled
//! has not been paid for yet — so the state the resolver cached under
//! that epoch id *is* the state [`ProgramHandle`] still holds (epoch ids
//! strictly increase, so an id never names two states).
//!
//! Batching only *delays* `settled`: a pin reserved but not yet used or
//! returned, or a settlement not yet paid, keeps its epoch undrained, so
//! a drain wait grows by at most one intake and one stage burst.
//!
//! `ProgramHandle::install` swaps a compatible successor in under a
//! write lock: new admissions pin the new epoch immediately, the old
//! epoch keeps draining, and once its in-flight count reaches zero it is
//! retired into an [`EpochTally`]. Incompatible successors are rejected
//! with the orchestrator's structured [`UpdateRejection`] and the running
//! program is left untouched. At most two epochs are ever live, so a
//! second swap while the previous predecessor still drains fails with
//! [`ReconfigError::SwapInProgress`] rather than queueing unboundedly.

use crate::stats::StageStats;
use nfp_orchestrator::tables::GraphTables;
use nfp_orchestrator::{Program, ProgramUpdate, UpdateRejection};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

/// One live program epoch and its in-flight accounting.
///
/// `attempts` counts pins reserved for admissions to this epoch;
/// `settled` counts pins released (delivered, dropped, or aborted);
/// `aborted` counts the subset returned unused. The epoch is drained
/// when every attempt has settled.
#[derive(Debug)]
pub struct EpochState {
    program: Program,
    attempts: AtomicU64,
    settled: AtomicU64,
    aborted: AtomicU64,
}

impl EpochState {
    fn new(program: Program) -> Self {
        Self {
            program,
            attempts: AtomicU64::new(0),
            settled: AtomicU64::new(0),
            aborted: AtomicU64::new(0),
        }
    }

    /// The epoch id (the program's version).
    pub(crate) fn epoch(&self) -> u64 {
        self.program.epoch()
    }

    /// The program this epoch executes.
    pub(crate) fn program(&self) -> &Program {
        &self.program
    }

    /// The epoch's sealed tables.
    pub(crate) fn tables(&self) -> &Arc<GraphTables> {
        self.program.tables()
    }

    /// `n` packets pinned to this epoch were delivered or dropped.
    #[inline]
    fn settle(&self, n: u64) {
        self.settled.fetch_add(n, Ordering::AcqRel);
    }

    /// Packets currently pinned to this epoch (admitted, not yet settled).
    fn in_flight(&self) -> u64 {
        self.attempts
            .load(Ordering::Acquire)
            .saturating_sub(self.settled.load(Ordering::Acquire))
    }

    /// True when every pinned packet has settled.
    fn drained(&self) -> bool {
        self.attempts.load(Ordering::Acquire) == self.settled.load(Ordering::Acquire)
    }

    /// Packets fully processed (delivered or dropped) under this epoch.
    fn completed(&self) -> u64 {
        let settled = self.settled.load(Ordering::Acquire);
        settled.saturating_sub(self.aborted.load(Ordering::Acquire))
    }
}

/// Final per-epoch accounting, kept after the epoch retires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochTally {
    /// The epoch id.
    pub epoch: u64,
    /// Packets delivered or dropped under it.
    pub completed: u64,
}

/// The two live slots plus the retired history.
#[derive(Debug)]
struct Slots {
    current: Arc<EpochState>,
    prev: Option<Arc<EpochState>>,
    retired: Vec<EpochTally>,
}

/// A successful [`ProgramHandle::install`]: the diff that justified the
/// swap and the old epoch to watch drain.
#[derive(Debug)]
pub(crate) struct InstalledSwap {
    /// What changed between the epochs.
    update: ProgramUpdate,
    /// The superseded epoch; poll [`EpochState::drained`] then call
    /// [`ProgramHandle::retire`].
    old: Arc<EpochState>,
}

/// Why a live reconfiguration could not proceed. The running engine is
/// untouched in every case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReconfigError {
    /// The orchestrator-side compatibility check failed — the candidate
    /// needs a cold restart (new rings/threads), not a hot swap.
    Rejected(UpdateRejection),
    /// The engine's pool cannot cover the candidate's worst-case footprint
    /// over the configured in-flight window.
    PoolTooSmall {
        /// Slots the pool actually has.
        pool_size: usize,
        /// Slots required: `max_in_flight × slots_per_packet`.
        required: usize,
        /// The engine's admission window.
        max_in_flight: usize,
        /// The candidate's worst-case slots per packet.
        slots_per_packet: usize,
    },
    /// A previous swap's old epoch is still draining; only two epochs may
    /// be live at once.
    SwapInProgress {
        /// The epoch still holding in-flight packets.
        draining: u64,
    },
    /// The superseded epoch failed to drain within the deadline — packets
    /// pinned to it are stuck (e.g. a wedged NF). The new epoch *is*
    /// installed and serving; only retirement is outstanding.
    DrainTimeout {
        /// The epoch that failed to drain.
        epoch: u64,
        /// Its in-flight count at the deadline.
        in_flight: u64,
    },
}

impl core::fmt::Display for ReconfigError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ReconfigError::Rejected(r) => write!(f, "update rejected: {r}"),
            ReconfigError::PoolTooSmall {
                pool_size,
                required,
                max_in_flight,
                slots_per_packet,
            } => write!(
                f,
                "pool of {pool_size} slots cannot cover {required} \
                 ({max_in_flight} in flight x {slots_per_packet} slots)"
            ),
            ReconfigError::SwapInProgress { draining } => {
                write!(f, "epoch {draining} is still draining")
            }
            ReconfigError::DrainTimeout { epoch, in_flight } => {
                write!(f, "epoch {epoch} failed to drain ({in_flight} in flight)")
            }
        }
    }
}

impl std::error::Error for ReconfigError {}

/// The outcome of a successful live reconfiguration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpochReport {
    /// Epoch swapped out.
    pub from_epoch: u64,
    /// Epoch swapped in.
    pub to_epoch: u64,
    /// What changed between the two programs.
    update: ProgramUpdate,
    /// Install-to-retire wall time (how long both epochs coexisted).
    pub swap_latency: Duration,
    /// Old-epoch packets that were in flight at install and drained out.
    pub drained: u64,
    /// Total packets completed under the old epoch over its lifetime.
    completed: u64,
}

/// The shared, swappable program slot every engine stage hangs off.
///
/// Reads (a `reserve`, and a [`TablesResolver`]'s
/// first sight of an epoch) take the read lock; only
/// `install` and `retire`
/// take the write lock. A reservation raises the pin count *under* the
/// read lock, so an install (which holds the write lock) can never miss a
/// pin: every reserved pin counts in the old epoch's `attempts` or the new.
#[derive(Debug)]
pub struct ProgramHandle {
    slots: RwLock<Slots>,
}

impl ProgramHandle {
    /// Wrap `program` as the sole live epoch.
    pub fn new(program: Program) -> Self {
        Self {
            slots: RwLock::new(Slots {
                current: Arc::new(EpochState::new(program)),
                prev: None,
                retired: Vec::new(),
            }),
        }
    }

    /// The current epoch's state.
    pub fn current(&self) -> Arc<EpochState> {
        Arc::clone(&self.slots.read().unwrap().current)
    }

    /// The current epoch id.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.slots.read().unwrap().current.epoch()
    }

    /// Pin `n` admissions (an intake burst) to the current epoch at once
    /// and return it. Every pin must be released exactly once: by a
    /// [`finish`](ProgramHandle::finish) or [`TablesResolver::settle`]
    /// (delivered or dropped), or by an [`abort`](ProgramHandle::abort)
    /// (unused).
    pub(crate) fn reserve(&self, n: u64) -> Arc<EpochState> {
        let slots = self.slots.read().unwrap();
        slots.current.attempts.fetch_add(n, Ordering::AcqRel);
        Arc::clone(&slots.current)
    }

    /// Return `n` pins of `state` unused. `aborted` moves first, so a
    /// reader that sees them settled never counts them completed.
    pub(crate) fn abort(&self, state: &EpochState, n: u64) {
        if n > 0 {
            state.aborted.fetch_add(n, Ordering::AcqRel);
            state.settle(n);
        }
    }

    /// Settle one packet under `epoch`: it was delivered or dropped. Takes
    /// the read lock to find the epoch; stages settle through
    /// `TablesResolver::settle`, which does not.
    pub fn finish(&self, epoch: u64) {
        match self.state_for(epoch) {
            Some(state) => state.settle(1),
            None => debug_assert!(false, "finish({epoch}) matches no live epoch"),
        }
    }

    /// The state of `epoch`, if that epoch is still live.
    fn state_for(&self, epoch: u64) -> Option<Arc<EpochState>> {
        let slots = self.slots.read().unwrap();
        if slots.current.epoch() == epoch {
            return Some(Arc::clone(&slots.current));
        }
        slots.prev.as_ref().filter(|p| p.epoch() == epoch).cloned()
    }

    /// Atomically swap `program` in as the new current epoch.
    ///
    /// Fails without touching the running program when a previous swap is
    /// still draining or the compatibility diff rejects the candidate. On
    /// success new admissions pin the new epoch immediately; the returned
    /// [`InstalledSwap::old`] keeps draining until
    /// [`retire`](ProgramHandle::retire).
    pub(crate) fn install(&self, program: Program) -> Result<InstalledSwap, ReconfigError> {
        let mut slots = self.slots.write().unwrap();
        if let Some(prev) = &slots.prev {
            if !prev.drained() {
                return Err(ReconfigError::SwapInProgress {
                    draining: prev.epoch(),
                });
            }
            let tally = EpochTally {
                epoch: prev.epoch(),
                completed: prev.completed(),
            };
            slots.retired.push(tally);
            slots.prev = None;
        }
        let update = ProgramUpdate::diff(slots.current.program(), &program)
            .map_err(ReconfigError::Rejected)?;
        let old = Arc::clone(&slots.current);
        slots.current = Arc::new(EpochState::new(program));
        slots.prev = Some(Arc::clone(&old));
        Ok(InstalledSwap { update, old })
    }

    /// The whole hot swap, as every engine performs it: check the
    /// candidate's worst-case footprint (`max_in_flight ×
    /// slots_per_packet`) against the engine's fixed pool, run the
    /// compatibility diff and [`install`](ProgramHandle::install), wait up
    /// to `drain_timeout` for the superseded epoch to drain, and
    /// [`retire`](ProgramHandle::retire) it. Any rejection leaves the
    /// running program untouched; the returned [`EpochReport`] records the
    /// diff, the install-to-retire latency and the old epoch's final
    /// accounting.
    pub(crate) fn swap(
        &self,
        program: Program,
        pool_size: usize,
        max_in_flight: usize,
        drain_timeout: Duration,
    ) -> Result<EpochReport, ReconfigError> {
        let slots_per_packet = program.slots_per_packet();
        let required = max_in_flight.max(1) * slots_per_packet;
        if pool_size < required {
            return Err(ReconfigError::PoolTooSmall {
                pool_size,
                required,
                max_in_flight,
                slots_per_packet,
            });
        }
        let started = Instant::now();
        let swap = self.install(program)?;
        let drained = swap.old.in_flight();
        let mut spins = 0u32;
        while !swap.old.drained() {
            if started.elapsed() >= drain_timeout {
                return Err(ReconfigError::DrainTimeout {
                    epoch: swap.old.epoch(),
                    in_flight: swap.old.in_flight(),
                });
            }
            // Back off: drains take packet-scale time, not cycle-scale,
            // and the caller's thread must not steal the engine's core.
            spins += 1;
            if spins < 16 {
                std::thread::yield_now();
            } else {
                std::thread::sleep(Duration::from_micros(50));
            }
        }
        self.retire();
        Ok(EpochReport {
            from_epoch: swap.old.epoch(),
            to_epoch: self.epoch(),
            update: swap.update,
            swap_latency: started.elapsed(),
            drained,
            completed: swap.old.completed(),
        })
    }

    /// Retire the drained predecessor epoch into the tally history.
    /// Returns its tally, or `None` when there is no drained predecessor.
    fn retire(&self) -> Option<EpochTally> {
        let mut slots = self.slots.write().unwrap();
        let drained = slots.prev.as_ref().is_some_and(|p| p.drained());
        if !drained {
            return None;
        }
        let prev = slots.prev.take().unwrap();
        let tally = EpochTally {
            epoch: prev.epoch(),
            completed: prev.completed(),
        };
        slots.retired.push(tally);
        Some(tally)
    }

    /// Per-epoch completion tallies over the handle's lifetime — retired
    /// epochs plus the still-live ones, sorted by epoch.
    pub fn tallies(&self) -> Vec<EpochTally> {
        let slots = self.slots.read().unwrap();
        let mut out = slots.retired.clone();
        if let Some(p) = &slots.prev {
            out.push(EpochTally {
                epoch: p.epoch(),
                completed: p.completed(),
            });
        }
        out.push(EpochTally {
            epoch: slots.current.epoch(),
            completed: slots.current.completed(),
        });
        out.sort_by_key(|t| t.epoch);
        out
    }
}

/// Most packets resolve under a handful of epochs, so the resolver keeps
/// this many epoch states before evicting the oldest.
const RESOLVER_CACHE: usize = 4;

/// A per-dispatcher cache of live [`EpochState`]s over a shared
/// [`ProgramHandle`].
///
/// Stages resolve forwarding and merge tables by each packet's *stamped*
/// epoch, not by whatever is current — that is what keeps a mid-swap
/// packet on the tables that classified it — and settle finished packets
/// against that same epoch. Both go through the cached state: the common
/// case (the epoch the last lookup found) is one compare and a borrow; a
/// settlement is an add to the epoch's owed count, paid by
/// `flush`, on eviction or on drop. No lock, no
/// `Arc` clone (module docs: why a pinned packet's cached state cannot be
/// stale).
#[derive(Debug)]
pub struct TablesResolver {
    handle: Arc<ProgramHandle>,
    /// Each cached epoch's state and the settlements owed to it.
    cache: Vec<(Arc<EpochState>, u64)>,
    /// Index of the epoch the last lookup found.
    last: usize,
    newest: u64,
    /// What a lookup of a no-longer-live epoch borrows from.
    fallback: Option<Arc<EpochState>>,
}

impl TablesResolver {
    /// A resolver over `handle` with an empty cache.
    pub fn new(handle: Arc<ProgramHandle>) -> Self {
        Self {
            handle,
            cache: Vec::with_capacity(RESOLVER_CACHE),
            last: 0,
            newest: 0,
            fallback: None,
        }
    }

    /// Index of `epoch`'s state in the cache: the last lookup's, or
    /// [`find`](TablesResolver::find)'s.
    #[inline]
    fn cached(&mut self, epoch: u64) -> Option<usize> {
        match self.cache.get(self.last) {
            Some((state, _)) if state.epoch() == epoch => Some(self.last),
            _ => self.find(epoch),
        }
    }

    /// Scan the cache for `epoch`, fetching its state from the handle (one
    /// read lock) the first time the epoch is seen, if it is live.
    #[cold]
    fn find(&mut self, epoch: u64) -> Option<usize> {
        if let Some(i) = self.cache.iter().position(|c| c.0.epoch() == epoch) {
            self.last = i;
            return Some(i);
        }
        let state = self.handle.state_for(epoch)?;
        self.newest = self.newest.max(epoch);
        if self.cache.len() >= RESOLVER_CACHE {
            // Evict the oldest epoch — the least likely to recur — paying
            // what it is owed first.
            let oldest = (0..self.cache.len()).min_by_key(|&i| self.cache[i].0.epoch());
            if let Some(i) = oldest {
                let (gone, owed) = self.cache.swap_remove(i);
                gone.settle(owed);
            }
        }
        self.cache.push((state, 0));
        self.last = self.cache.len() - 1;
        Some(self.last)
    }

    /// The tables for `epoch`. A packet stamped with a no-longer-live
    /// epoch (possible only if an epoch retired while its packets were
    /// still in flight, which the drain protocol prevents) falls back to
    /// the current tables and counts an epoch conflict on `stats`;
    /// resolving under a non-newest (draining) epoch counts a stale-epoch
    /// observation.
    #[inline]
    pub(crate) fn tables(&mut self, epoch: u64, stats: &StageStats) -> &GraphTables {
        if epoch < self.newest {
            stats.note_stale_epoch();
        }
        match self.cached(epoch) {
            Some(i) => self.cache[i].0.tables(),
            None => self.conflict(stats),
        }
    }

    /// The current tables, for a packet whose epoch is no longer live.
    #[cold]
    fn conflict(&mut self, stats: &StageStats) -> &GraphTables {
        stats.note_epoch_conflict();
        self.fallback.insert(self.handle.current()).tables()
    }

    /// Settle `n` packets under `epoch` (delivered or dropped), each
    /// pairing with its admission's pin; owed until the next
    /// [`flush`](TablesResolver::flush).
    #[inline]
    pub(crate) fn settle(&mut self, epoch: u64, n: u64) {
        match self.cached(epoch) {
            Some(i) => self.cache[i].1 += n,
            None => debug_assert!(false, "settle({epoch}) matches no live epoch"),
        }
    }

    /// Pay every owed settlement, one read-modify-write per epoch owed
    /// any (the dispatcher's `publish`, once per stage burst).
    #[inline]
    pub(crate) fn flush(&mut self) {
        for (state, owed) in &mut self.cache {
            if *owed > 0 {
                state.settle(std::mem::take(owed));
            }
        }
    }
}

impl Drop for TablesResolver {
    fn drop(&mut self) {
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfp_orchestrator::{compile, CompileOptions, Registry};
    use nfp_policy::Policy;

    fn program(chain: &[&str], mid: u32, epoch: u64) -> Program {
        let g = compile(
            &Policy::from_chain(chain.iter().copied()),
            &Registry::paper_table2(),
            &[],
            &CompileOptions::default(),
        )
        .unwrap()
        .graph;
        Program::compile(&g, mid).unwrap().with_epoch(epoch)
    }

    #[test]
    fn reserve_finish_drains() {
        let h = ProgramHandle::new(program(&["Monitor", "Firewall"], 1, 0));
        assert_eq!(h.epoch(), 0);
        let e = h.reserve(1);
        assert_eq!(e.in_flight(), 1);
        assert!(!e.drained());
        h.finish(0);
        assert!(e.drained());
        assert_eq!(e.completed(), 1);
        // Aborts settle without completing.
        let e = h.reserve(3);
        h.finish(0);
        h.abort(&e, 2);
        assert!(e.drained());
        assert_eq!(e.completed(), 2);
    }

    #[test]
    fn install_swaps_and_retires() {
        let h = ProgramHandle::new(program(&["Monitor", "Firewall"], 1, 0));
        let pinned = h.reserve(1);
        let swap = h.install(program(&["Monitor", "Firewall"], 1, 1)).unwrap();
        assert_eq!(h.epoch(), 1);
        assert_eq!(swap.old.epoch(), 0);
        assert_eq!(swap.old.in_flight(), 1);
        // Old epoch still resolves while draining.
        assert!(h.state_for(0).is_some());
        assert!(h.retire().is_none()); // not drained yet
        h.finish(pinned.epoch());
        assert_eq!(
            h.retire(),
            Some(EpochTally {
                epoch: 0,
                completed: 1
            })
        );
        assert!(h.state_for(0).is_none());
        let tallies = h.tallies();
        assert_eq!(tallies.len(), 2);
        assert_eq!(
            tallies[0],
            EpochTally {
                epoch: 0,
                completed: 1
            }
        );
        assert_eq!(tallies[1].epoch, 1);
    }

    #[test]
    fn second_swap_waits_for_drain() {
        let h = ProgramHandle::new(program(&["Monitor", "Firewall"], 1, 0));
        let _pinned = h.reserve(1);
        h.install(program(&["Monitor", "Firewall"], 1, 1)).unwrap();
        assert_eq!(
            h.install(program(&["Monitor", "Firewall"], 1, 2))
                .unwrap_err(),
            ReconfigError::SwapInProgress { draining: 0 }
        );
        h.finish(0);
        // Drained predecessor is auto-retired by the next install.
        h.install(program(&["Monitor", "Firewall"], 1, 2)).unwrap();
        assert_eq!(h.epoch(), 2);
        assert_eq!(h.tallies()[0].epoch, 0);
    }

    #[test]
    fn incompatible_install_leaves_handle_untouched() {
        let h = ProgramHandle::new(program(&["Monitor", "Firewall"], 1, 0));
        let before = h.current();
        let err = h
            .install(program(&["Monitor", "Firewall"], 2, 1))
            .unwrap_err();
        assert!(matches!(
            err,
            ReconfigError::Rejected(UpdateRejection::MidChanged { .. })
        ));
        assert!(Arc::ptr_eq(&before, &h.current()));
        assert_eq!(h.tallies().len(), 1);
    }

    #[test]
    fn resolver_caches_and_falls_back() {
        let h = Arc::new(ProgramHandle::new(program(&["Monitor", "Firewall"], 1, 0)));
        let mut r = TablesResolver::new(Arc::clone(&h));
        let stats = StageStats::new();
        let current_tables = |h: &ProgramHandle| Arc::as_ptr(h.current().tables());
        let t0 = std::ptr::from_ref(r.tables(0, &stats));
        assert_eq!(t0, current_tables(&h));
        h.install(program(&["Monitor", "Firewall"], 1, 3)).unwrap();
        let t3 = std::ptr::from_ref(r.tables(3, &stats));
        assert_ne!(t0, t3);
        // Resolving the draining epoch counts a stale observation.
        assert_eq!(stats.snapshot().stale_epochs, 0);
        assert_eq!(std::ptr::from_ref(r.tables(0, &stats)), t0);
        assert_eq!(stats.snapshot().stale_epochs, 1);
        // An epoch nobody has counts a conflict and falls back to current.
        assert_eq!(std::ptr::from_ref(r.tables(9, &stats)), t3);
        assert_eq!(stats.snapshot().epoch_conflicts, 1);
    }

    #[test]
    fn resolver_settles_on_the_epoch_that_pinned() {
        let h = Arc::new(ProgramHandle::new(program(&["Monitor", "Firewall"], 1, 0)));
        let mut r = TablesResolver::new(Arc::clone(&h));
        let old = h.reserve(1);
        let swap = h.install(program(&["Monitor", "Firewall"], 1, 1)).unwrap();
        let new = h.reserve(1);
        // A packet pinned to the draining epoch settles there, one pinned
        // to the new epoch settles there — same counters `finish` moves,
        // once the resolver pays what it owes.
        r.settle(old.epoch(), 1);
        assert!(!swap.old.drained(), "owed, not yet paid");
        r.flush();
        assert!(swap.old.drained());
        assert_eq!(swap.old.completed(), 1);
        assert_eq!(new.in_flight(), 1);
        r.settle(new.epoch(), 1);
        r.flush();
        assert!(new.drained());
        assert_eq!(
            h.tallies(),
            vec![
                EpochTally {
                    epoch: 0,
                    completed: 1
                },
                EpochTally {
                    epoch: 1,
                    completed: 1
                }
            ]
        );
        // The drained predecessor retires; a later packet of the current
        // epoch still settles through the cache.
        assert!(h.retire().is_some());
        let again = h.reserve(1);
        r.settle(again.epoch(), 1);
        r.flush();
        assert_eq!(h.current().completed(), 2);
    }

    /// `attempts` and `settled` of `e`, read the way a drain check reads
    /// them.
    fn counts(e: &EpochState) -> (u64, u64) {
        (
            e.attempts.load(Ordering::Acquire),
            e.settled.load(Ordering::Acquire),
        )
    }

    /// Pins reserved for a burst and not yet used or returned hold their
    /// epoch undrained across an install: a second swap is refused until
    /// the burst gives them back, and `settled ≤ attempts` at every step.
    #[test]
    fn outstanding_reservation_holds_the_old_epoch() {
        let h = Arc::new(ProgramHandle::new(program(&["Monitor", "Firewall"], 1, 0)));
        let mut r = TablesResolver::new(Arc::clone(&h));
        let burst = h.reserve(8);
        let check = |e: &EpochState| {
            let (attempts, settled) = counts(e);
            assert!(
                settled <= attempts,
                "settled {settled} > attempts {attempts}"
            );
        };
        check(&burst);
        let swap = h.install(program(&["Monitor", "Firewall"], 1, 1)).unwrap();
        // Three of the burst's pins admitted packets that finished; the
        // settlements are owed, so the epoch is not drained yet.
        r.settle(0, 3);
        check(&burst);
        assert_eq!(swap.old.in_flight(), 8);
        assert_eq!(
            h.install(program(&["Monitor", "Firewall"], 1, 2))
                .unwrap_err(),
            ReconfigError::SwapInProgress { draining: 0 }
        );
        r.flush();
        check(&burst);
        assert_eq!(swap.old.in_flight(), 5);
        assert!(h.retire().is_none(), "five pins still out");
        // The burst ends: its five unused pins come back.
        h.abort(&burst, 5);
        check(&burst);
        assert!(swap.old.drained());
        assert_eq!(
            h.retire(),
            Some(EpochTally {
                epoch: 0,
                completed: 3
            })
        );
        h.install(program(&["Monitor", "Firewall"], 1, 2)).unwrap();
        assert_eq!(h.epoch(), 2);
    }

    /// A settlement owed to an epoch the resolver evicts is paid on the
    /// way out, not lost: the epoch drains without a flush. (Under the
    /// swap protocol an owed epoch is never the oldest of a full cache —
    /// it holds its successors back — so the cache is filled by hand with
    /// states of newer epochs.)
    #[test]
    fn owed_settlements_survive_cache_eviction() {
        let h = Arc::new(ProgramHandle::new(program(&["Monitor", "Firewall"], 1, 0)));
        let mut r = TablesResolver::new(Arc::clone(&h));
        let stats = StageStats::new();
        let first = h.reserve(2);
        r.settle(0, 2);
        for epoch in 5..5 + RESOLVER_CACHE as u64 - 1 {
            let state = Arc::new(EpochState::new(program(&["Monitor", "Firewall"], 1, epoch)));
            r.cache.push((state, 0));
        }
        h.install(program(&["Monitor", "Firewall"], 1, 1)).unwrap();
        assert_eq!(first.in_flight(), 2, "owed, not yet paid");
        // Resolving epoch 1 fills the cache past its size: epoch 0, the
        // oldest, is evicted and paid.
        r.tables(1, &stats);
        assert!(r.cache.iter().all(|c| c.0.epoch() != 0));
        assert!(first.drained());
        assert_eq!(first.completed(), 2);
        assert!(h.retire().is_some());
    }
}
