//! Threading model for the dataplane: core budgets, stage grouping,
//! adaptive idling and cache-line padding.
//!
//! One thread per stage (classifier, each NF, agent, each merger,
//! collector) busy-polling its rings oversubscribes any real host long
//! before four shards — the observed 4-shard throughput *inversion* —
//! and the idle spinning burns exactly the cores the busy shards need.
//! This module owns what the engine uses instead:
//!
//! * `plan_pipeline_groups` / `plan_switched_groups` — partition the
//!   stages into at most `core_budget` contiguous groups, one OS thread
//!   (and one `crate::dispatch` dispatcher) per group;
//! * `IdleBounds` / `Idler` / `WakeHub` — the one spin → yield → park
//!   rule every engine thread idles by (20 / 80 / 200 µs), timed by the
//!   clock since a thread's last progress, with an eventcount so ring
//!   producers can wake parked consumers without a lost-wakeup window;
//! * `CachePadded` — 64-byte alignment wrapper used by the
//!   false-sharing audit (ring indices, stage stats, histograms);
//! * [`host_parallelism`] / [`pin_current_thread`] — placement helpers.

use std::ops::{Deref, DerefMut, Range};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Pads and aligns a value to a 64-byte cache line so two adjacent
/// values never share a line (the false-sharing audit's workhorse).
#[derive(Debug, Default)]
#[repr(align(64))]
pub(crate) struct CachePadded<T> {
    value: T,
}

impl<T> CachePadded<T> {
    /// Wrap `value` in its own cache line.
    pub(crate) const fn new(value: T) -> Self {
        CachePadded { value }
    }
}

impl<T> Deref for CachePadded<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T> DerefMut for CachePadded<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.value
    }
}

/// The one idle rule of every engine thread (stage group or injector), in
/// wall-clock time since the thread's last progress: poll with
/// `spin_loop` hints for `spin`, then with a `yield_now` between polls for
/// `yields`, then park on the engine's `WakeHub` for at most `park` per
/// pass. A clock, not a pass count: an idle injector pass is two loads, an
/// idle group pass polls every stage (DESIGN.md §11).
#[derive(Debug, Clone, Copy)]
pub(crate) struct IdleBounds {
    pub(crate) spin: Duration,
    pub(crate) yields: Duration,
    /// Bounds any wakeup race and keeps watchdog checks running.
    pub(crate) park: Duration,
}

impl IdleBounds {
    /// The bounds every engine runs with.
    pub(crate) const DEFAULT: IdleBounds = IdleBounds {
        spin: Duration::from_micros(20),
        yields: Duration::from_micros(80),
        park: Duration::from_micros(200),
    };
}

// A zero park could sleep through progress that does not notify the hub,
// such as pool releases, and never look again.
const _: () = assert!(!IdleBounds::DEFAULT.park.is_zero());

/// Eventcount used to park idle engine threads and wake them when a
/// producer makes progress. Its slow paths count themselves
/// ([`WakeHub::parks`], [`WakeHub::wakes`]) so a run can report what its
/// thread boundaries cost.
///
/// Wakeup protocol (all `SeqCst`, see DESIGN.md §11):
///
/// * a waiter loads `generation`, re-checks its work predicate,
///   registers in `sleepers`, and only sleeps if the generation is
///   still unchanged under the mutex;
/// * a notifier publishes its work (ring `Release` store), bumps
///   `generation`, and broadcasts only if `sleepers > 0`.
///
/// Either the waiter sees the bumped generation and skips the sleep,
/// or the notifier sees the registered sleeper and broadcasts under
/// the same mutex the waiter sleeps on. The bounded park
/// (`IdleBounds::park`) additionally covers paths that do not notify
/// (e.g. pool releases).
#[derive(Debug, Default)]
pub(crate) struct WakeHub {
    generation: AtomicU64,
    sleepers: AtomicU32,
    lock: Mutex<()>,
    cv: Condvar,
    /// Times a thread went to sleep on the condvar (slow path only).
    parks: AtomicU64,
    /// Times a notifier found sleepers and broadcast (slow path only):
    /// each is a futex wake paid by the thread that made progress.
    wakes: AtomicU64,
}

impl WakeHub {
    /// New hub with no sleepers.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Record that new work may exist and wake any parked threads.
    pub(crate) fn notify(&self) {
        self.generation.fetch_add(1, Ordering::SeqCst);
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            self.wakes.fetch_add(1, Ordering::Relaxed);
            // Serialize with parkers between their generation check and
            // their wait, so the broadcast cannot land in the gap.
            drop(self.lock.lock().unwrap());
            self.cv.notify_all();
        }
    }

    /// Park the calling thread for at most `timeout`, unless `ready`
    /// reports work or a notification raced in. Returns immediately
    /// (after a `yield_now`) when `ready()` is already true.
    fn park(&self, timeout: Duration, ready: impl Fn() -> bool) {
        let gen = self.generation.load(Ordering::SeqCst);
        if ready() {
            std::thread::yield_now();
            return;
        }
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        {
            let guard = self.lock.lock().unwrap();
            if self.generation.load(Ordering::SeqCst) == gen && !ready() {
                self.parks.fetch_add(1, Ordering::Relaxed);
                let _ = self.cv.wait_timeout(guard, timeout);
            }
        }
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
    }

    /// Times a thread actually slept in [`WakeHub::park`] so far.
    pub(crate) fn parks(&self) -> u64 {
        self.parks.load(Ordering::Relaxed)
    }

    /// Times [`WakeHub::notify`] found a sleeper and broadcast so far.
    pub(crate) fn wakes(&self) -> u64 {
        self.wakes.load(Ordering::Relaxed)
    }
}

/// Per-thread idle state machine driving the [`IdleBounds`] against a
/// shared [`WakeHub`].
#[derive(Debug)]
pub(crate) struct Idler<'a> {
    hub: &'a WakeHub,
    bounds: IdleBounds,
    /// When the current no-progress streak was first noticed; `None`
    /// right after progress, so a productive pass never reads the clock.
    since: Option<Instant>,
}

impl<'a> Idler<'a> {
    /// New idler in the "just made progress" state.
    pub(crate) fn new(hub: &'a WakeHub, bounds: IdleBounds) -> Self {
        Idler {
            hub,
            bounds,
            since: None,
        }
    }

    /// Call after a pass that made progress: restart the backoff.
    pub(crate) fn reset(&mut self) {
        self.since = None;
    }

    /// Call after a pass that made no progress. Spins, yields or parks
    /// according to how long the no-progress streak has lasted. `ready`
    /// is the caller's "work is visible" predicate, re-checked race-free
    /// before any park.
    pub(crate) fn idle(&mut self, ready: impl Fn() -> bool) {
        let IdleBounds { spin, yields, park } = self.bounds;
        let now = Instant::now();
        let waited = now.duration_since(*self.since.get_or_insert(now));
        if waited < spin {
            std::hint::spin_loop();
        } else if waited < spin + yields {
            std::thread::yield_now();
        } else {
            self.hub.park(park, ready);
        }
    }
}

/// Number of hardware threads available to this process (cached).
pub fn host_parallelism() -> usize {
    static CACHED: OnceLock<usize> = OnceLock::new();
    *CACHED.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Partition `n_tasks` pipeline stages (in pipeline order) into at most
/// `budget` contiguous groups of near-equal size. Each group becomes one
/// OS thread; contiguity keeps producer→consumer stage pairs on the
/// same thread when coalescing, so a burst flows through them in one
/// pass without a context switch.
fn plan_groups(n_tasks: usize, budget: usize) -> Vec<Range<usize>> {
    let groups = budget.max(1).min(n_tasks);
    let mut out = Vec::with_capacity(groups);
    let base = n_tasks / groups.max(1);
    let extra = n_tasks % groups.max(1);
    let mut start = 0;
    for g in 0..groups {
        let len = base + usize::from(g < extra);
        out.push(start..start + len);
        start += len;
    }
    out
}

/// Partition a stage pipeline of `front` pre-merge tasks (classifier +
/// NFs) and `back` merge-side tasks (agent, mergers, collector) into at
/// most `budget` contiguous groups, spending at least one thread on each
/// *section* whenever `budget >= 2`.
///
/// The section boundary is a failure-containment boundary: NFs run
/// arbitrary user code that can block its whole group, and the merge
/// deadline (see DESIGN.md "Failure model") is only enforceable while
/// the agent/merger/collector side keeps getting CPU. With the sections
/// split, an NF that stalls mid-`handle` delays only admission and its
/// peers; expiry, tombstones and delivery keep running. `budget == 1`
/// coalesces everything onto one thread and trades that guarantee for
/// the engine watchdog as the only backstop.
pub(crate) fn plan_pipeline_groups(front: usize, back: usize, budget: usize) -> Vec<Range<usize>> {
    let total = front + back;
    let budget = budget.max(1).min(total);
    if budget == 1 || front == 0 || back == 0 {
        return plan_groups(total, budget);
    }
    // Split the budget proportionally to section size, ≥ 1 thread each.
    let front_budget = ((budget * front + total / 2) / total).clamp(1, budget - 1);
    let back_budget = budget - front_budget;
    let mut out = plan_groups(front, front_budget);
    out.extend(
        plan_groups(back, back_budget)
            .into_iter()
            .map(|r| r.start + front..r.end + front),
    );
    out
}

/// [`plan_pipeline_groups`] for a switched program, whose switch is one
/// more task after the back section: it gets a thread of its own at every
/// budget ≥ 2. Such a program merges nothing, so its back section only
/// collects and gets one thread from budget 3 on; the front takes the rest.
pub(crate) fn plan_switched_groups(front: usize, back: usize, budget: usize) -> Vec<Range<usize>> {
    let total = front + back;
    let mut out = match budget {
        0 | 1 => return plan_groups(total + 1, 1),
        2 => plan_groups(total, 1),
        _ => plan_groups(front, budget - 2),
    };
    out.extend((budget > 2).then_some(front..total));
    out.push(total..total + 1);
    out
}

/// Best-effort pin of the calling thread to `cpu`. Returns `true` on
/// success. No-op (returns `false`) on non-Linux targets.
pub fn pin_current_thread(cpu: usize) -> bool {
    #[cfg(target_os = "linux")]
    {
        // std already links libc; declare the one call we need instead
        // of adding a libc dependency.
        #[repr(C)]
        struct CpuSet {
            bits: [u64; 16],
        }
        extern "C" {
            fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
        }
        if cpu >= 16 * 64 {
            return false;
        }
        let mut set = CpuSet { bits: [0; 16] };
        set.bits[cpu / 64] |= 1u64 << (cpu % 64);
        // pid 0 = calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) == 0 }
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = cpu;
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;
    use std::time::Instant;

    #[test]
    fn plan_groups_partitions_contiguously() {
        assert_eq!(plan_groups(5, 2), vec![0..3, 3..5]);
        assert_eq!(plan_groups(4, 8), vec![0..1, 1..2, 2..3, 3..4]);
        assert_eq!(plan_groups(6, 1), vec![0..6]);
        assert_eq!(plan_groups(7, 3), vec![0..3, 3..5, 5..7]);
        let total: usize = plan_groups(23, 5).iter().map(|r| r.len()).sum();
        assert_eq!(total, 23);
    }

    #[test]
    fn pipeline_groups_keep_sections_apart_when_budget_allows() {
        // 3 front (classifier + 2 NFs), 4 back (agent + 2 mergers +
        // collector), budget 2: exactly one thread per section.
        assert_eq!(plan_pipeline_groups(3, 4, 2), vec![0..3, 3..7]);
        // Budget 3 gives the larger back section the extra thread.
        assert_eq!(plan_pipeline_groups(3, 4, 3), vec![0..3, 3..5, 5..7]);
        // Budget 1 coalesces everything.
        assert_eq!(plan_pipeline_groups(3, 4, 1), vec![0..7]);
        // Oversized budget degenerates to one task per thread.
        assert_eq!(plan_pipeline_groups(2, 2, 99).len(), 4);
        // Every task is covered exactly once, in order.
        for (front, back, budget) in [(1, 3, 2), (5, 4, 3), (2, 3, 5), (6, 3, 4)] {
            let groups = plan_pipeline_groups(front, back, budget);
            let mut next = 0;
            for r in &groups {
                assert_eq!(r.start, next);
                assert!(r.end > r.start);
                next = r.end;
            }
            assert_eq!(next, front + back);
            assert!(groups.len() <= budget);
            // No group straddles the section boundary when budget ≥ 2.
            assert!(groups.iter().all(|r| r.end <= front || r.start >= front));
        }
    }

    /// A switched plan holds the switch alone at every budget ≥ 2; at
    /// ONVM's budget (n + 2 for n NFs) no two NFs share a group either.
    #[test]
    fn switched_plan_isolates_the_switch_and_each_nf() {
        for nfs in 1..=6 {
            // Classifier + NFs in front; agent, one merger and collector.
            let (front, total) = (1 + nfs, 5 + nfs);
            for budget in 1..=nfs + 4 {
                let groups = plan_switched_groups(front, 3, budget);
                let alone = groups.last() == Some(&(total - 1..total));
                assert_eq!(alone, budget > 1, "budget {budget}: {groups:?}");
                assert_eq!(groups.iter().map(|r| r.len()).sum::<usize>(), total);
                assert!(groups.len() <= budget);
            }
            let onvm = plan_switched_groups(front, 3, nfs + 2);
            let nf_slots = |r: &Range<usize>| r.clone().filter(|s| (1..=nfs).contains(s)).count();
            assert!(
                onvm.len() == nfs + 2 && onvm.iter().all(|r| nf_slots(r) <= 1),
                "{onvm:?}"
            );
        }
    }

    #[test]
    fn cache_padded_is_a_cache_line() {
        assert_eq!(std::mem::align_of::<CachePadded<u64>>(), 64);
        assert!(std::mem::size_of::<CachePadded<u64>>() >= 64);
        let p = CachePadded::new(41u64);
        assert_eq!(*p + 1, 42);
        // The padded elements of the engine's shared vectors and
        // counters: each fills whole lines, so neighbours in a `Vec`
        // (group heartbeats, per-NF watchdog flags) or in a struct (the
        // delivered / dropped totals) never share one.
        fn fills_its_lines<T>() {
            assert_eq!(std::mem::align_of::<CachePadded<T>>(), 64);
            assert_eq!(std::mem::size_of::<CachePadded<T>>(), 64);
        }
        fills_its_lines::<AtomicU64>();
        fills_its_lines::<crate::dispatch::NfWatch>();
    }

    #[test]
    fn park_returns_quickly_when_ready() {
        let hub = WakeHub::new();
        let t0 = Instant::now();
        hub.park(Duration::from_secs(5), || true);
        assert!(t0.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn park_honors_timeout_without_notification() {
        let hub = WakeHub::new();
        let t0 = Instant::now();
        hub.park(Duration::from_millis(20), || false);
        let dt = t0.elapsed();
        assert!(dt >= Duration::from_millis(10), "parked only {dt:?}");
        assert!(dt < Duration::from_secs(5));
    }

    /// The lost-wakeup test at hub level: a consumer parks with a long
    /// timeout, a late producer publishes work and notifies, and the
    /// consumer must observe it promptly.
    #[test]
    fn late_notification_wakes_parked_thread() {
        let hub = Arc::new(WakeHub::new());
        let flag = Arc::new(AtomicBool::new(false));
        let (h2, f2) = (Arc::clone(&hub), Arc::clone(&flag));
        let waiter = std::thread::spawn(move || {
            let t0 = Instant::now();
            while !f2.load(Ordering::Acquire) {
                h2.park(Duration::from_secs(2), || f2.load(Ordering::Acquire));
                assert!(t0.elapsed() < Duration::from_secs(30), "no wakeup");
            }
            t0.elapsed()
        });
        std::thread::sleep(Duration::from_millis(50));
        flag.store(true, Ordering::Release);
        hub.notify();
        let waited = waiter.join().unwrap();
        // Far below the 2 s park timeout: the notification, not the
        // timeout, must be what woke the thread.
        assert!(
            waited < Duration::from_millis(1500),
            "woke after {waited:?}"
        );
    }

    /// The lost-wakeup test under the waiting rule the engine runs with:
    /// two threads hand a turn back and forth, each parking almost at
    /// once (near-zero wait bounds) for up to 2 s. Every hand-off is a
    /// publish-then-notify against a check-then-park; one lost wakeup
    /// costs a whole park timeout, so the run only finishes in under 2 s
    /// if none was lost.
    #[test]
    fn ping_pong_handoffs_lose_no_wakeup() {
        const HANDOFFS: u64 = 2_000;
        let bounds = IdleBounds {
            spin: Duration::from_nanos(1),
            yields: Duration::from_nanos(1),
            park: Duration::from_secs(2),
        };
        let hub = WakeHub::new();
        let turn = AtomicU64::new(0);
        // Player `me` moves whenever `turn % 2 == me`.
        let play = |me: u64| {
            let mut idler = Idler::new(&hub, bounds);
            loop {
                let t = turn.load(Ordering::Acquire);
                if t >= HANDOFFS {
                    break;
                }
                if t % 2 == me {
                    turn.store(t + 1, Ordering::Release);
                    hub.notify();
                    idler.reset();
                } else {
                    idler.idle(|| turn.load(Ordering::Acquire) != t);
                }
            }
        };
        let t0 = Instant::now();
        std::thread::scope(|s| {
            s.spawn(|| play(0));
            play(1);
        });
        let took = t0.elapsed();
        assert!(hub.parks() > 0, "no thread ever slept: nothing was tested");
        assert!(
            took < Duration::from_secs(2),
            "{HANDOFFS} hand-offs took {took:?} ({} parks, {} wakes): a wakeup was lost",
            hub.parks(),
            hub.wakes()
        );
    }

    #[test]
    fn idler_escalates_spin_yield_park() {
        let hub = WakeHub::new();
        let mut idler = Idler::new(
            &hub,
            IdleBounds {
                spin: Duration::from_millis(200),
                yields: Duration::from_millis(200),
                park: Duration::from_millis(5),
            },
        );
        // First four no-progress passes must not park (fast).
        let t0 = Instant::now();
        for _ in 0..4 {
            idler.idle(|| false);
        }
        assert!(t0.elapsed() < Duration::from_millis(100));
        assert_eq!(hub.parks(), 0);
        // Past both bounds the next pass parks; bounded by the timeout.
        idler.since = Some(t0 - Duration::from_millis(400));
        let t1 = Instant::now();
        idler.idle(|| false);
        assert!(t1.elapsed() < Duration::from_secs(1));
        assert_eq!(hub.parks(), 1);
        idler.reset();
        assert!(idler.since.is_none());
    }

    #[test]
    fn host_parallelism_is_positive_and_stable() {
        let a = host_parallelism();
        assert!(a >= 1);
        assert_eq!(a, host_parallelism());
    }

    #[test]
    fn pinning_to_cpu_zero_is_best_effort() {
        // CPU 0 always exists; on Linux this should succeed, elsewhere
        // it must return false without crashing.
        let _ = pin_current_thread(0);
        assert!(!pin_current_thread(usize::MAX));
    }
}
