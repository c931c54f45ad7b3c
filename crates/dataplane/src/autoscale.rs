//! Telemetry-driven elastic autoscaling for the sharded fleet.
//!
//! The paper's deployment model (§6.4) fixes the shard count up front;
//! an operator running NFP as a service instead wants the fleet to track
//! offered load. This module closes that loop from signals the engine
//! already exports: the packet-path latency histograms (worst per-stage
//! p99, [`crate::telemetry`]) and the per-stage ring high-water marks
//! ([`crate::stats::StageSnapshot::ring_high_water`]) — the direct
//! backpressure reading: a ring pinned near capacity means a stage
//! cannot keep up with its upstream.
//!
//! The policy is deliberately boring — threshold + hysteresis, one step
//! per decision, cooldown after every rescale — because the interesting
//! part is what a scale step *costs*: [`crate::shard::ShardedEngine::rescale`]
//! must migrate every stateful NF's flow state, and the autoscale bench
//! audits that census on every step. The policy is pure (no clocks, no
//! I/O): callers feed it one [`LoadSignals`] reading per completed run
//! interval and apply the returned [`ScaleDecision`] themselves.

use crate::engine::EngineReport;
use std::time::Duration;

/// One load reading distilled from a run interval.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LoadSignals {
    /// Worst per-stage p99 latency (ns) across the packet-path
    /// histograms; falls back to the end-to-end p99 when per-stage
    /// telemetry is disabled.
    pub p99_ns: u64,
    /// Peak ring occupancy as a fraction of ring capacity (0.0–1.0):
    /// the maximum [`ring_high_water`](crate::stats::StageSnapshot::ring_high_water)
    /// across all stages, divided by the configured ring capacity.
    pub ring_occupancy: f64,
    /// Finished-packet throughput of the interval (pps).
    pub pps: f64,
}

impl LoadSignals {
    /// Distill the autoscaling signals from a run report.
    /// `ring_capacity` is the per-ring capacity the reporting engine ran
    /// with ([`crate::engine::EngineConfig::ring_capacity`]).
    pub fn from_report(report: &EngineReport, ring_capacity: usize) -> Self {
        let stage_p99 = report
            .telemetry
            .stages
            .iter()
            .map(|s| s.hist.p99_ns())
            .max()
            .unwrap_or(0);
        let p99_ns = if stage_p99 > 0 {
            stage_p99
        } else {
            report
                .latency
                .map_or(0, |l| l.p99.as_nanos().min(u128::from(u64::MAX)) as u64)
        };
        let high_water = report
            .stats
            .stages()
            .map(|(_, s)| s.ring_high_water)
            .max()
            .unwrap_or(0);
        let ring_occupancy = if ring_capacity == 0 {
            0.0
        } else {
            high_water as f64 / ring_capacity as f64
        };
        Self {
            p99_ns,
            ring_occupancy,
            pps: report.pps(),
        }
    }
}

/// Autoscaling thresholds and limits.
///
/// Hysteresis by construction: the grow thresholds must sit strictly
/// above the shrink thresholds (validated at [`Autoscaler::new`]), so a
/// reading can be *hot* (grow), *calm* (shrink candidate) or neither
/// (hold) — oscillating around a single threshold is impossible.
#[derive(Debug, Clone)]
pub struct AutoscalePolicy {
    /// Fleet floor (≥ 1).
    pub min_shards: usize,
    /// Fleet ceiling (≥ `min_shards`).
    pub max_shards: usize,
    /// Grow when peak ring occupancy reaches this fraction — the primary
    /// backpressure signal.
    pub grow_occupancy: f64,
    /// …or when the worst-stage p99 reaches this. Defaults high so
    /// occupancy drives unless an operator opts into latency SLOs.
    pub grow_p99: Duration,
    /// A reading is calm only when occupancy is at or below this…
    pub shrink_occupancy: f64,
    /// …and the worst-stage p99 at or below this.
    pub shrink_p99: Duration,
    /// Consecutive calm readings required before shrinking one step —
    /// one quiet interval is noise, a streak is idleness.
    pub calm_intervals: u32,
    /// Readings to hold (ignore) after any rescale, letting the resized
    /// fleet's signals settle before the next decision.
    pub cooldown: u32,
}

impl Default for AutoscalePolicy {
    fn default() -> Self {
        Self {
            min_shards: 1,
            max_shards: 4,
            grow_occupancy: 0.75,
            grow_p99: Duration::from_millis(50),
            shrink_occupancy: 0.25,
            shrink_p99: Duration::from_millis(5),
            calm_intervals: 3,
            cooldown: 2,
        }
    }
}

/// What the autoscaler wants done to the fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleDecision {
    /// Leave the shard count alone.
    Hold,
    /// Grow one step.
    Grow {
        /// Current shard count.
        from: usize,
        /// Target shard count (`from + 1`, capped at the policy max).
        to: usize,
    },
    /// Shrink one step.
    Shrink {
        /// Current shard count.
        from: usize,
        /// Target shard count (`from - 1`, floored at the policy min).
        to: usize,
    },
}

/// The policy engine: feed it one [`LoadSignals`] reading per interval,
/// apply the [`ScaleDecision`] it returns.
#[derive(Debug, Clone)]
pub struct Autoscaler {
    policy: AutoscalePolicy,
    cooldown_left: u32,
    calm_streak: u32,
}

impl Autoscaler {
    /// Build an autoscaler, validating the policy: sane shard bounds and
    /// grow thresholds strictly above shrink thresholds (the hysteresis
    /// band).
    ///
    /// # Panics
    /// On a malformed policy — autoscaling with inverted thresholds
    /// would thrash the fleet, so it is refused up front.
    pub fn new(policy: AutoscalePolicy) -> Self {
        assert!(policy.min_shards >= 1, "min_shards must be at least 1");
        assert!(
            policy.max_shards >= policy.min_shards,
            "max_shards below min_shards"
        );
        assert!(
            policy.grow_occupancy > policy.shrink_occupancy,
            "occupancy thresholds must leave a hysteresis band"
        );
        assert!(
            policy.grow_p99 > policy.shrink_p99,
            "p99 thresholds must leave a hysteresis band"
        );
        assert!(policy.calm_intervals >= 1, "calm_intervals must be ≥ 1");
        Self {
            policy,
            cooldown_left: 0,
            calm_streak: 0,
        }
    }

    /// Observe one interval's signals and decide. `current_shards` is
    /// the fleet size the signals were measured at.
    pub fn observe(&mut self, current_shards: usize, signals: LoadSignals) -> ScaleDecision {
        if self.cooldown_left > 0 {
            self.cooldown_left -= 1;
            return ScaleDecision::Hold;
        }
        let p99 = Duration::from_nanos(signals.p99_ns);
        let hot =
            signals.ring_occupancy >= self.policy.grow_occupancy || p99 >= self.policy.grow_p99;
        let calm =
            signals.ring_occupancy <= self.policy.shrink_occupancy && p99 <= self.policy.shrink_p99;
        if hot {
            self.calm_streak = 0;
            if current_shards < self.policy.max_shards {
                self.cooldown_left = self.policy.cooldown;
                return ScaleDecision::Grow {
                    from: current_shards,
                    to: current_shards + 1,
                };
            }
            return ScaleDecision::Hold;
        }
        if calm {
            self.calm_streak += 1;
            if self.calm_streak >= self.policy.calm_intervals
                && current_shards > self.policy.min_shards
            {
                self.calm_streak = 0;
                self.cooldown_left = self.policy.cooldown;
                return ScaleDecision::Shrink {
                    from: current_shards,
                    to: current_shards - 1,
                };
            }
        } else {
            // Neither hot nor calm: inside the hysteresis band. A calm
            // streak must be *consecutive*, so it resets here.
            self.calm_streak = 0;
        }
        ScaleDecision::Hold
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> AutoscalePolicy {
        AutoscalePolicy {
            min_shards: 1,
            max_shards: 4,
            grow_occupancy: 0.75,
            grow_p99: Duration::from_millis(50),
            shrink_occupancy: 0.25,
            shrink_p99: Duration::from_millis(5),
            calm_intervals: 2,
            cooldown: 1,
        }
    }

    fn hot() -> LoadSignals {
        LoadSignals {
            p99_ns: 1_000,
            ring_occupancy: 0.9,
            pps: 1e6,
        }
    }

    fn calm() -> LoadSignals {
        LoadSignals {
            p99_ns: 1_000,
            ring_occupancy: 0.05,
            pps: 1e3,
        }
    }

    fn middling() -> LoadSignals {
        LoadSignals {
            p99_ns: 1_000,
            ring_occupancy: 0.5,
            pps: 1e5,
        }
    }

    #[test]
    fn grows_under_pressure_one_step_with_cooldown() {
        let mut a = Autoscaler::new(policy());
        assert_eq!(a.observe(1, hot()), ScaleDecision::Grow { from: 1, to: 2 });
        // Cooldown: the next reading is ignored even though it is hot.
        assert_eq!(a.observe(2, hot()), ScaleDecision::Hold);
        assert_eq!(a.observe(2, hot()), ScaleDecision::Grow { from: 2, to: 3 });
    }

    #[test]
    fn clamps_at_max_shards() {
        let mut a = Autoscaler::new(policy());
        assert_eq!(a.observe(4, hot()), ScaleDecision::Hold);
    }

    #[test]
    fn shrinks_only_after_a_calm_streak() {
        let mut a = Autoscaler::new(policy());
        assert_eq!(a.observe(3, calm()), ScaleDecision::Hold);
        assert_eq!(
            a.observe(3, calm()),
            ScaleDecision::Shrink { from: 3, to: 2 }
        );
        // Cooldown, then the streak starts over.
        assert_eq!(a.observe(2, calm()), ScaleDecision::Hold);
        assert_eq!(a.observe(2, calm()), ScaleDecision::Hold);
        assert_eq!(
            a.observe(2, calm()),
            ScaleDecision::Shrink { from: 2, to: 1 }
        );
    }

    #[test]
    fn clamps_at_min_shards() {
        let mut a = Autoscaler::new(policy());
        for _ in 0..8 {
            assert_eq!(a.observe(1, calm()), ScaleDecision::Hold);
        }
    }

    #[test]
    fn hysteresis_band_holds_and_breaks_calm_streaks() {
        let mut a = Autoscaler::new(policy());
        assert_eq!(a.observe(3, middling()), ScaleDecision::Hold);
        // calm, middling, calm: never two *consecutive* calm readings.
        assert_eq!(a.observe(3, calm()), ScaleDecision::Hold);
        assert_eq!(a.observe(3, middling()), ScaleDecision::Hold);
        assert_eq!(a.observe(3, calm()), ScaleDecision::Hold);
    }

    #[test]
    fn hot_latency_alone_triggers_growth() {
        let mut a = Autoscaler::new(policy());
        let slow = LoadSignals {
            p99_ns: Duration::from_millis(60).as_nanos() as u64,
            ring_occupancy: 0.1,
            pps: 1e4,
        };
        assert_eq!(a.observe(1, slow), ScaleDecision::Grow { from: 1, to: 2 });
    }

    #[test]
    #[should_panic(expected = "hysteresis")]
    fn inverted_thresholds_are_refused() {
        Autoscaler::new(AutoscalePolicy {
            grow_occupancy: 0.2,
            shrink_occupancy: 0.3,
            ..policy()
        });
    }

    #[test]
    fn signals_distill_from_report() {
        use crate::engine::MigrationStats;
        use crate::stats::{EngineStats, StageSnapshot};
        use crate::telemetry::TelemetrySnapshot;
        let mut stats = EngineStats::default();
        stats.nfs.push(StageSnapshot {
            ring_high_water: 48,
            ..StageSnapshot::default()
        });
        let report = EngineReport {
            injected: 100,
            delivered: 100,
            dropped: 0,
            elapsed: Duration::from_millis(10),
            latency: None,
            packets: Vec::new(),
            stats,
            failures: Vec::new(),
            pool_in_use: 0,
            epoch: 0,
            epochs: Vec::new(),
            telemetry: TelemetrySnapshot::empty(),
            migration: MigrationStats::default(),
            parks: 0,
            wakes: 0,
        };
        let s = LoadSignals::from_report(&report, 64);
        assert!((s.ring_occupancy - 0.75).abs() < 1e-9);
        assert_eq!(s.p99_ns, 0);
        assert!(s.pps > 0.0);
    }
}
