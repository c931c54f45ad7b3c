//! Latency measurement.

use std::time::Duration;

/// Records per-packet latencies and summarizes them.
#[derive(Debug, Default, Clone)]
pub struct LatencyRecorder {
    samples: Vec<Duration>,
}

/// Summary statistics over recorded latencies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    /// Sample count.
    pub count: usize,
    /// Arithmetic mean.
    mean: Duration,
    /// Minimum.
    min: Duration,
    /// Median (p50).
    pub p50: Duration,
    /// 90th percentile.
    p90: Duration,
    /// 99th percentile.
    pub p99: Duration,
    /// Maximum.
    max: Duration,
}

impl LatencyRecorder {
    /// Create an empty recorder.
    #[cfg(test)]
    fn new() -> Self {
        Self::default()
    }

    /// Create with pre-allocated capacity (avoid growth on the hot path).
    pub fn with_capacity(n: usize) -> Self {
        Self {
            samples: Vec::with_capacity(n),
        }
    }

    /// Record one latency sample.
    pub fn record(&mut self, d: Duration) {
        self.samples.push(d);
    }

    /// Summarize. Returns `None` when no samples were recorded — a run
    /// that delivered zero packets has no latency distribution, and
    /// callers must not see zeroed garbage in its place.
    pub fn summary(&self) -> Option<LatencySummary> {
        if self.samples.is_empty() {
            return None;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_unstable();
        let count = sorted.len();
        // Nearest-rank percentiles: the p-th percentile is the smallest
        // sample with at least p·N samples ≤ it. `max(1).min(count)` keeps
        // the rank in bounds without `clamp`'s min>max panic, so the
        // closure is total even if the empty guard above ever changes.
        let pct = |p: f64| -> Duration {
            let rank = (p * count as f64).ceil() as usize;
            sorted[rank.max(1).min(count) - 1]
        };
        let total: Duration = sorted.iter().sum();
        Some(LatencySummary {
            count,
            mean: total / count as u32,
            min: sorted[0],
            p50: pct(0.50),
            p90: pct(0.90),
            p99: pct(0.99),
            max: sorted[count - 1],
        })
    }
}

impl LatencySummary {
    /// Mean latency in microseconds (the paper's reporting unit).
    #[cfg(test)]
    fn mean_us(&self) -> f64 {
        self.mean.as_secs_f64() * 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_percentiles() {
        let mut r = LatencyRecorder::new();
        for i in 1..=100u64 {
            r.record(Duration::from_micros(i));
        }
        let s = r.summary().unwrap();
        assert_eq!(s.count, 100);
        assert_eq!(s.min, Duration::from_micros(1));
        assert_eq!(s.max, Duration::from_micros(100));
        assert_eq!(s.p50, Duration::from_micros(50));
        assert_eq!(s.p90, Duration::from_micros(90));
        assert_eq!(s.p99, Duration::from_micros(99));
        assert!((s.mean_us() - 50.5).abs() < 0.01);
    }

    #[test]
    fn empty_summary_is_none() {
        assert!(LatencyRecorder::new().summary().is_none());
    }

    #[test]
    fn single_sample_summary() {
        let mut r = LatencyRecorder::new();
        r.record(Duration::from_micros(7));
        let s = r.summary().unwrap();
        assert_eq!(s.p50, s.max);
        assert_eq!(s.min, s.max);
    }
}
