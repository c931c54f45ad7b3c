//! Timed chaos scripts driven against a running engine.
//!
//! A [`ChaosScript`] is a deterministic, seed-derived list of
//! disruptions for one soak run: NF panics ([`nfp_nf::chaos::PanicAfter`]),
//! NF stalls ([`nfp_nf::chaos::StallOnce`]), mid-storm live swaps, and
//! fleet rescales ([`ChaosAction::Rescale`]) that migrate per-flow NF
//! state between shard layouts.
//! The NF faults are armed up front by wrapping the engine's NF instances
//! ([`ChaosScript::wrap_nfs`]); the swap timeline is executed while the
//! engine runs by [`drive_swaps`], which watches the run's
//! [`EngineProbe`] and fires each
//! [`EngineController::reconfigure`] once the scripted share of traffic
//! has been injected. Keying swap points on injected-packet counts (not
//! wall-clock) keeps scripts meaningful across engines whose throughput
//! differs by orders of magnitude — the sync engine replays the same
//! script inline between `process()` calls.

use crate::audit::EngineProbe;
use crate::engine::EngineController;
use crate::swap::ReconfigError;
use nfp_nf::chaos::{PanicAfter, StallOnce};
use nfp_nf::NetworkFunction;
use nfp_orchestrator::Program;
use rand::rngs::StdRng;
use rand::Rng;
use std::time::Duration;

/// One scripted disruption.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChaosAction {
    /// Wrap NF `node` so it panics after `healthy_for` packets.
    PanicNf {
        /// Graph node index of the victim NF.
        node: usize,
        /// Packets the NF processes before the injected panic.
        healthy_for: u64,
    },
    /// Wrap NF `node` so its `stall_on`-th packet sleeps `stall`.
    StallNf {
        /// Graph node index of the victim NF.
        node: usize,
        /// 1-based packet index that stalls.
        stall_on: u64,
        /// Stall duration.
        stall: Duration,
    },
    /// Hot-swap to the next program variant once `after_injected`
    /// packets have entered the engine.
    Swap {
        /// Injected-packet threshold that triggers the swap.
        after_injected: u64,
    },
    /// Rescale the sharded fleet to `shards` replicas once
    /// `after_injected` packets have entered, migrating every stateful
    /// NF's per-flow state. Unlike swaps (fired live from a controller
    /// thread), rescaling needs the fleet quiesced, so the soak driver
    /// chunks the packet stream at each threshold and rescales in the
    /// inter-chunk gap — the drain window.
    Rescale {
        /// Injected-packet threshold after which the fleet rescales.
        after_injected: u64,
        /// Target shard count.
        shards: usize,
    },
}

/// A named, reproducible schedule of chaos actions for one run.
#[derive(Debug, Clone, Default)]
pub struct ChaosScript {
    /// Script name (soak-matrix axis label).
    pub name: String,
    /// The disruptions, in no particular order; swap points are sorted
    /// by [`ChaosScript::swap_points`].
    pub actions: Vec<ChaosAction>,
}

impl ChaosScript {
    /// No disruptions — the control cell of the soak matrix.
    pub fn quiet() -> Self {
        Self {
            name: "quiet".into(),
            actions: Vec::new(),
        }
    }

    /// One randomly chosen NF panics partway through the run.
    pub fn panic_storm(nf_count: usize, total_packets: u64, rng: &mut StdRng) -> Self {
        let node = rng.gen_range(0..nf_count.max(1) as u64) as usize;
        // Panic somewhere in the 25–50 % window of the run.
        let healthy_for = total_packets / 4 + rng.gen_range(0..(total_packets / 4).max(1));
        Self {
            name: "panic".into(),
            actions: vec![ChaosAction::PanicNf { node, healthy_for }],
        }
    }

    /// One NF stalls long enough to expire merge deadlines.
    pub fn stall_deadline(
        nf_count: usize,
        total_packets: u64,
        stall: Duration,
        rng: &mut StdRng,
    ) -> Self {
        let node = rng.gen_range(0..nf_count.max(1) as u64) as usize;
        let stall_on = 1 + total_packets / 5 + rng.gen_range(0..(total_packets / 5).max(1));
        Self {
            name: "stall_deadline".into(),
            actions: vec![ChaosAction::StallNf {
                node,
                stall_on,
                stall,
            }],
        }
    }

    /// `swaps` live reconfigurations spread across the 20–80 % window.
    pub fn swap_storm(total_packets: u64, swaps: usize) -> Self {
        let lo = total_packets / 5;
        let span = (total_packets * 3 / 5).max(1);
        let actions = (0..swaps.max(1) as u64)
            .map(|i| ChaosAction::Swap {
                after_injected: lo + span * i / swaps.max(1) as u64,
            })
            .collect();
        Self {
            name: "swap_storm".into(),
            actions,
        }
    }

    /// A storm of fleet rescales spread across the 20–80 % window, each
    /// to a random shard target in `1..=max_shards` that differs from
    /// the previous target — every point forces a full flow-state
    /// export → re-partition → import migration. Rescale is a
    /// fleet-level operation, so on non-sharded engines this script
    /// degenerates to the quiet control.
    pub fn scale_storm(total_packets: u64, max_shards: usize, rng: &mut StdRng) -> Self {
        let max = max_shards.max(2) as u64;
        let lo = total_packets / 5;
        let span = (total_packets * 3 / 5).max(1);
        let scales = rng.gen_range(3..6u64);
        let mut prev = 0u64;
        let actions = (0..scales)
            .map(|i| {
                let mut shards = rng.gen_range(1..max + 1);
                if shards == prev {
                    shards = shards % max + 1;
                }
                prev = shards;
                ChaosAction::Rescale {
                    after_injected: lo + span * i / scales,
                    shards: shards as usize,
                }
            })
            .collect();
        Self {
            name: "scale_storm".into(),
            actions,
        }
    }

    /// Everything overlapped: one NF panics, a *different* NF stalls, and
    /// swaps keep landing throughout — the conjunction failure mode the
    /// soak harness exists for.
    pub fn combined(
        nf_count: usize,
        total_packets: u64,
        stall: Duration,
        rng: &mut StdRng,
    ) -> Self {
        let n = nf_count.max(1) as u64;
        let panic_node = rng.gen_range(0..n) as usize;
        let stall_node = if nf_count > 1 {
            (panic_node + 1 + rng.gen_range(0..n - 1) as usize) % nf_count
        } else {
            panic_node
        };
        let mut actions = vec![
            ChaosAction::PanicNf {
                node: panic_node,
                healthy_for: total_packets * 2 / 5 + rng.gen_range(0..(total_packets / 5).max(1)),
            },
            ChaosAction::StallNf {
                node: stall_node,
                stall_on: 1 + total_packets / 6 + rng.gen_range(0..(total_packets / 6).max(1)),
                stall,
            },
        ];
        for i in 0..3u64 {
            actions.push(ChaosAction::Swap {
                after_injected: total_packets / 5 + total_packets * i / 5,
            });
        }
        Self {
            name: "combined".into(),
            actions,
        }
    }

    /// Arm the NF-fault actions by wrapping the victim instances; swap
    /// actions are untouched (they execute via [`drive_swaps`]).
    pub fn wrap_nfs(
        &self,
        mut nfs: Vec<Box<dyn NetworkFunction>>,
    ) -> Vec<Box<dyn NetworkFunction>> {
        for action in &self.actions {
            match *action {
                ChaosAction::PanicNf { node, healthy_for } => {
                    if node < nfs.len() {
                        let inner = std::mem::replace(&mut nfs[node], placeholder());
                        nfs[node] = Box::new(PanicAfter::new(inner, healthy_for));
                    }
                }
                ChaosAction::StallNf {
                    node,
                    stall_on,
                    stall,
                } => {
                    if node < nfs.len() {
                        let inner = std::mem::replace(&mut nfs[node], placeholder());
                        nfs[node] = Box::new(StallOnce::new(inner, stall_on, stall));
                    }
                }
                ChaosAction::Swap { .. } | ChaosAction::Rescale { .. } => {}
            }
        }
        nfs
    }

    /// The script's swap thresholds, ascending.
    pub fn swap_points(&self) -> Vec<u64> {
        let mut points: Vec<u64> = self
            .actions
            .iter()
            .filter_map(|a| match a {
                ChaosAction::Swap { after_injected } => Some(*after_injected),
                _ => None,
            })
            .collect();
        points.sort_unstable();
        points
    }

    /// The script's rescale timeline as `(after_injected, shards)`
    /// pairs, ascending by threshold. Executed between traffic chunks
    /// by the soak driver (see [`ChaosAction::Rescale`]).
    pub fn scale_points(&self) -> Vec<(u64, usize)> {
        let mut points: Vec<(u64, usize)> = self
            .actions
            .iter()
            .filter_map(|a| match a {
                ChaosAction::Rescale {
                    after_injected,
                    shards,
                } => Some((*after_injected, *shards)),
                _ => None,
            })
            .collect();
        points.sort_unstable_by_key(|&(at, _)| at);
        points
    }

    /// The longest scripted stall (what the auditor's wedge timeout must
    /// tolerate on top of the engine's own stall timeout).
    pub fn max_stall(&self) -> Duration {
        self.actions
            .iter()
            .filter_map(|a| match a {
                ChaosAction::StallNf { stall, .. } => Some(*stall),
                _ => None,
            })
            .max()
            .unwrap_or(Duration::ZERO)
    }
}

fn placeholder() -> Box<dyn NetworkFunction> {
    Box::new(nfp_nf::monitor::Monitor::new("chaos-placeholder"))
}

/// What [`drive_swaps`] did over one run.
#[derive(Debug, Clone, Default)]
pub struct SwapLog {
    /// Swap points the driver attempted (reached before the run ended).
    pub attempted: u64,
    /// Swaps that installed and retired cleanly.
    pub completed: u64,
    /// Attempts the swap protocol refused (busy drain, stale epoch…) —
    /// expected churn under chaos, not an invariant violation.
    pub rejected: u64,
    /// Display text of each rejection, for the soak report.
    pub failures: Vec<String>,
}

/// Execute a script's swap timeline against a live engine.
///
/// Call from a controller thread while the engine runs. For each point
/// in `points` (ascending injected-packet thresholds), waits until the
/// probe reports that many packets injected — or the run ends — then
/// fires `controller.reconfigure(make_program(next_epoch))`. A sharded
/// fleet is one engine (its replicas share one program handle, so one
/// swap reaches them all).
pub fn drive_swaps(
    controller: &EngineController,
    probe: &EngineProbe,
    points: &[u64],
    mut make_program: impl FnMut(u64) -> Program,
) -> SwapLog {
    let mut log = SwapLog::default();
    for &point in points {
        loop {
            let s = probe.sample();
            if s.injected >= point {
                break;
            }
            if s.started && !s.active {
                // Run already over; remaining points are unreachable.
                return log;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        log.attempted += 1;
        let next = controller.epoch() + 1;
        match controller.reconfigure(make_program(next)) {
            Ok(_) => log.completed += 1,
            Err(e) => {
                log.rejected += 1;
                if log.failures.len() < 16 {
                    log.failures.push(swap_failure_text(&e));
                }
            }
        }
    }
    log
}

fn swap_failure_text(e: &ReconfigError) -> String {
    format!("swap rejected: {e}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfp_nf::monitor::Monitor;
    use rand::SeedableRng;

    fn two_nfs() -> Vec<Box<dyn NetworkFunction>> {
        vec![
            Box::new(Monitor::new("a")) as Box<dyn NetworkFunction>,
            Box::new(Monitor::new("b")),
        ]
    }

    #[test]
    fn scripts_are_deterministic_per_seed() {
        let mk = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            ChaosScript::combined(4, 10_000, Duration::from_millis(50), &mut rng)
        };
        assert_eq!(mk(3).actions, mk(3).actions);
        assert_ne!(mk(3).actions, mk(4).actions);
    }

    #[test]
    fn combined_panics_and_stalls_different_nodes() {
        for seed in 0..32 {
            let mut rng = StdRng::seed_from_u64(seed);
            let script = ChaosScript::combined(3, 1_000, Duration::from_millis(1), &mut rng);
            let mut panic_node = None;
            let mut stall_node = None;
            for a in &script.actions {
                match a {
                    ChaosAction::PanicNf { node, .. } => panic_node = Some(*node),
                    ChaosAction::StallNf { node, .. } => stall_node = Some(*node),
                    _ => {}
                }
            }
            assert_ne!(panic_node.unwrap(), stall_node.unwrap(), "seed {seed}");
            assert_eq!(script.swap_points().len(), 3);
        }
    }

    #[test]
    fn swap_storm_points_ascend_within_run() {
        let script = ChaosScript::swap_storm(10_000, 7);
        let points = script.swap_points();
        assert_eq!(points.len(), 7);
        assert!(points.windows(2).all(|w| w[0] <= w[1]));
        assert!(*points.first().unwrap() >= 2_000);
        assert!(*points.last().unwrap() < 10_000);
        assert_eq!(script.max_stall(), Duration::ZERO);
    }

    #[test]
    fn scale_storm_targets_walk_within_bounds() {
        for seed in 0..32 {
            let mut rng = StdRng::seed_from_u64(seed);
            let script = ChaosScript::scale_storm(10_000, 4, &mut rng);
            let points = script.scale_points();
            assert!((3..=5).contains(&points.len()), "seed {seed}");
            assert!(points.windows(2).all(|w| w[0].0 <= w[1].0));
            assert!(points.first().unwrap().0 >= 2_000, "seed {seed}");
            assert!(points.last().unwrap().0 < 10_000, "seed {seed}");
            for w in points.windows(2) {
                assert_ne!(w[0].1, w[1].1, "consecutive targets equal, seed {seed}");
            }
            assert!(points.iter().all(|&(_, s)| (1..=4).contains(&s)));
            // Rescales arm no NF faults and fire no swaps.
            assert!(script.swap_points().is_empty());
            assert_eq!(script.wrap_nfs(two_nfs()).len(), 2);
            assert_eq!(script.max_stall(), Duration::ZERO);
        }
    }

    #[test]
    fn wrap_nfs_wraps_only_victims() {
        let mut rng = StdRng::seed_from_u64(1);
        let script = ChaosScript::panic_storm(2, 100, &mut rng);
        let victim = match script.actions[0] {
            ChaosAction::PanicNf { node, .. } => node,
            _ => unreachable!(),
        };
        let wrapped = script.wrap_nfs(two_nfs());
        // Names delegate through the wrappers, so both survive.
        assert_eq!(wrapped.len(), 2);
        let names: Vec<&str> = wrapped.iter().map(|nf| nf.name()).collect();
        assert!(names.contains(&"a") && names.contains(&"b"), "{names:?}");
        let _ = victim;

        // Quiet script wraps nothing.
        assert!(ChaosScript::quiet().actions.is_empty());
        assert_eq!(ChaosScript::quiet().wrap_nfs(two_nfs()).len(), 2);
    }
}
