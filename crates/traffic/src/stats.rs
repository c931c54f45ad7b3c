//! Latency and throughput measurement.

use std::time::{Duration, Instant};

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
    pub mean: Duration,
    /// Minimum.
    pub min: Duration,
    /// Median (p50).
    pub p50: Duration,
    /// 90th percentile.
    pub p90: Duration,
    /// 99th percentile.
    pub p99: Duration,
    /// Maximum.
    pub max: Duration,
}

impl LatencyRecorder {
    /// Create an empty recorder.
    pub fn new() -> Self {
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

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when no samples are recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
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
    pub fn mean_us(&self) -> f64 {
        self.mean.as_secs_f64() * 1e6
    }
}

/// Measures sustained packet throughput.
#[derive(Debug, Clone)]
pub struct ThroughputMeter {
    start: Instant,
    packets: u64,
    bytes: u64,
}

impl Default for ThroughputMeter {
    fn default() -> Self {
        Self::new()
    }
}

impl ThroughputMeter {
    /// Start the clock.
    pub fn new() -> Self {
        Self {
            start: Instant::now(),
            packets: 0,
            bytes: 0,
        }
    }

    /// Count one packet of `bytes` bytes.
    pub fn count(&mut self, bytes: usize) {
        self.packets += 1;
        self.bytes += bytes as u64;
    }

    /// Count `n` packets totalling `bytes` bytes.
    pub fn count_batch(&mut self, n: u64, bytes: u64) {
        self.packets += n;
        self.bytes += bytes;
    }

    /// Packets counted.
    pub fn packets(&self) -> u64 {
        self.packets
    }

    /// Elapsed time since creation.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Throughput in packets/second over the elapsed window.
    pub fn pps(&self) -> f64 {
        let secs = self.elapsed().as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.packets as f64 / secs
    }

    /// Throughput in Mpps (the paper's unit).
    pub fn mpps(&self) -> f64 {
        self.pps() / 1e6
    }

    /// Goodput in Gbit/s (frame bytes on the wire, no preamble/IFG).
    pub fn gbps(&self) -> f64 {
        let secs = self.elapsed().as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.bytes as f64 * 8.0 / secs / 1e9
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

    #[test]
    fn throughput_counts() {
        let mut t = ThroughputMeter::new();
        t.count(64);
        t.count_batch(9, 9 * 64);
        assert_eq!(t.packets(), 10);
        std::thread::sleep(Duration::from_millis(5));
        assert!(t.pps() > 0.0);
        assert!(t.gbps() > 0.0);
        assert!(t.mpps() < 1.0);
    }
}
