//! Facts about the machine and build that every output carries, and the
//! thread budget derived from them.

use nfp_dataplane::engine::EngineConfig;
use nfp_dataplane::exec::{host_parallelism, pin_current_thread};
use nfp_dataplane::telemetry::TelemetryConfig;
use std::process::Command;

/// Host and build facts, printed with every result.
#[derive(Debug, Clone)]
pub struct HostFacts {
    /// Hardware threads available to the process.
    pub host_cores: usize,
    /// Stage threads the threaded engine may spawn (`core_budget`): the
    /// injector is the caller's thread, so injector + stages ≤ cores.
    pub stage_threads: usize,
    /// Whether injector and stage threads are pinned to distinct CPUs.
    pub pinned: bool,
    pub rustc: String,
    pub git_commit: String,
}

fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_string())
}

impl HostFacts {
    /// Probe the host. With two or more cores the calling thread (the
    /// injector of every threaded run) is pinned to CPU 0 and the stage
    /// threads to CPUs 1.. — a scratch probe showed pinning narrows the
    /// run-to-run disagreement of `threaded_pps` from ~8% to <3%.
    pub fn probe() -> Self {
        let host_cores = host_parallelism();
        let stage_threads = host_cores.saturating_sub(1).max(1);
        let pinned = host_cores >= 2 && pin_current_thread(0);
        Self {
            host_cores,
            stage_threads,
            pinned,
            rustc: first_line_of("rustc", &["--version"]),
            git_commit: first_line_of("git", &["rev-parse", "HEAD"]),
        }
    }

    /// The engine configuration of the end-to-end runs: telemetry off,
    /// threads within the core budget, closed-loop `window`.
    pub fn engine_config(&self, window: usize) -> EngineConfig {
        EngineConfig {
            max_in_flight: window,
            io_burst: 64,
            telemetry: TelemetryConfig::disabled(),
            core_budget: self.stage_threads,
            pin_cpus: if self.pinned {
                (1..=self.stage_threads).collect()
            } else {
                Vec::new()
            },
            ..EngineConfig::default()
        }
    }

    /// True when a measurement running `threads` busy threads (injector
    /// included) has more threads than cores: its number is a diagnostic,
    /// not a claim.
    pub fn oversubscribed(&self, threads: usize) -> bool {
        threads > self.host_cores
    }
}

fn status_field_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Peak resident set of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    status_field_mb("VmHWM:")
}

/// Current resident set of this process (`VmRSS`), in MB.
pub fn rss_mb() -> f64 {
    status_field_mb("VmRSS:")
}
