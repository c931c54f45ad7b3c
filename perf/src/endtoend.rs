//! The end-to-end pass: what a user of the system sees, measured with
//! telemetry and tracing off.
//!
//! Load sizing: closed loop, one client. The injector is the calling
//! thread with a fixed in-flight window (the engine's own design —
//! backpressure, never overload loss — so pps *is* the zero-loss rate),
//! and injector + stage threads never exceed the host's cores. A trial
//! is one pass over a fixed packet count; each metric is a **quartile of
//! trials** (see [`Kind`]), never best-of-N, with the host's momentary
//! speed divided out of every trial (see [`crate::yardstick`]).

use crate::drive::{rtc_pass, sync_pass, threaded_pass, Counts, Tally};
use crate::host::{peak_rss_mb, HostFacts};
use crate::spans::Recorder;
use crate::stats::quartiles;
use crate::workloads::{eval_registry, make_nfs, Input, Workload};
use crate::yardstick::Yardstick;
use nfp_baseline::RunToCompletion;
use nfp_dataplane::engine::Engine;
use nfp_dataplane::sync_engine::SyncEngine;
use nfp_orchestrator::graph::ServiceGraph;
use nfp_orchestrator::{Program, Registry};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Window of the throughput runs.
pub const THROUGHPUT_WINDOW: usize = 64;
/// Window of the latency runs: at window 64 latency is just 64/pps.
pub const LATENCY_WINDOW: usize = 4;
/// Repetitions of the whole set-up path in every round of the pass.
pub const SETUP_REPS_PER_ROUND: usize = 10;
/// Pool slots of the sync engine (as every other bench in the repo).
pub const SYNC_POOL: usize = 512;

/// How much to measure.
#[derive(Debug, Clone)]
pub struct Plan {
    pub seed: u64,
    /// Measuring time of one pass.
    pub seconds: f64,
    /// Packets per trial (fixed: a trial is the same work every run).
    pub trial_packets: usize,
    /// Packets the correctness gate replays.
    pub gate_packets: usize,
    /// Trials every metric gets at least, whatever the time budget.
    pub min_trials: usize,
    /// Corrupt the gate's reference on purpose (`--inject-fault`).
    pub inject_fault: bool,
}

impl Plan {
    pub fn new(seed: u64, seconds: f64) -> Self {
        Self {
            seed,
            seconds,
            trial_packets: crate::workloads::TRIAL_PACKETS,
            gate_packets: crate::workloads::GATE_PACKETS,
            min_trials: 9,
            inject_fault: false,
        }
    }

    /// A share of the pass's measuring time (the traced pass gives each
    /// of its phases one).
    pub fn share(&self, fraction: f64) -> Duration {
        Duration::from_secs_f64(self.seconds * fraction)
    }
}

/// A metric's trials, at nominal host speed.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    /// The reported value: the quartile of trials on the *undisturbed*
    /// side — upper for a rate, lower for a duration (see [`Kind`]).
    pub value: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub trials: usize,
    /// The same quartile of the same trials as the clock read them,
    /// before the host's speed was divided out.
    pub raw: f64,
}

/// How a value scales with host speed, and which of its quartiles is
/// reported.
///
/// Interference on a shared host is one-sided — a neighbour only ever
/// takes throughput away and adds delay — so the quartile on the
/// undisturbed side is the steady one. Over ten 20 s runs of one binary
/// the run-to-run spread (interquartile distance ÷ median) of
/// `threaded_pps` on seq3_64b was 10.1% for the median of trials, 3.7% for
/// their upper quartile; of `threaded_p50_us` 15.9% against 3.4%. It is
/// still an order statistic of ≥ 16 trials, not a best-of-N: a quarter of
/// the trials must reach it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Work per second: a faster host raises it.
    Rate,
    /// A duration: a faster host lowers it.
    Duration,
}

impl Kind {
    /// `raw`, measured while the host ran at `speed` × nominal, as it
    /// would read at nominal speed.
    pub fn at_nominal(self, raw: f64, speed: f64) -> f64 {
        match self {
            Kind::Rate => raw / speed,
            Kind::Duration => raw * speed,
        }
    }

    /// Of a metric's lower and upper quartile, the undisturbed one.
    fn undisturbed(self, q1: f64, q3: f64) -> f64 {
        match self {
            Kind::Rate => q3,
            Kind::Duration => q1,
        }
    }
}

impl Summary {
    /// Summarise `(raw value, host speed)` trials.
    pub fn of(kind: Kind, trials: &[(f64, f64)]) -> Self {
        let nominal: Vec<f64> = trials.iter().map(|&(v, s)| kind.at_nominal(v, s)).collect();
        let raw: Vec<f64> = trials.iter().map(|t| t.0).collect();
        let (q1, median, q3) = quartiles(&nominal);
        Self {
            value: kind.undisturbed(q1, q3),
            q1,
            median,
            q3,
            trials: trials.len(),
            raw: {
                let (q1, _, q3) = quartiles(&raw);
                kind.undisturbed(q1, q3)
            },
        }
    }

    /// A value that does not depend on host speed (memory).
    pub fn exact(value: f64) -> Self {
        Self {
            value,
            q1: value,
            median: value,
            q3: value,
            trials: 1,
            raw: value,
        }
    }
}

/// Run `trial` once as a discarded warm-up, then until `budget` has
/// passed and at least `min_trials` values are in hand.
pub fn timed_trials<T>(
    budget: Duration,
    min_trials: usize,
    mut trial: impl FnMut() -> T,
) -> Vec<T> {
    let start = Instant::now();
    drop(trial());
    let mut out = Vec::new();
    while out.len() < min_trials.max(1) || start.elapsed() < budget {
        out.push(trial());
    }
    out
}

/// A workload made ready: compiled program, generated traffic, and the
/// sequential reference's outcome counts for one trial.
pub struct Prepared {
    pub workload: &'static Workload,
    pub registry: Registry,
    pub graph: ServiceGraph,
    pub program: Program,
    pub names: Vec<String>,
    pub input: Input,
    /// What one trial's packets come to under `RunToCompletion`; every
    /// engine's trial must come to the same.
    pub reference: Counts,
    /// Seconds the harness spent generating the input.
    pub gen_s: f64,
}

impl Prepared {
    pub fn new(workload: &'static Workload, plan: &Plan, rec: &mut Recorder) -> Self {
        let registry = eval_registry();
        let (graph, program, names) = workload.program(&registry);
        let t = Instant::now();
        let input = rec.span("traffic.generate", || {
            workload.traffic(plan.seed, plan.trial_packets)
        });
        let gen_s = t.elapsed().as_secs_f64();
        let reference = rtc_pass(&mut RunToCompletion::new(make_nfs(&names)), &input).counts;
        Self {
            workload,
            registry,
            graph,
            program,
            names,
            input,
            reference,
            gen_s,
        }
    }

    pub fn sync_engine(&self) -> SyncEngine {
        SyncEngine::new(self.program.clone(), make_nfs(&self.names), SYNC_POOL)
    }

    pub fn engine(&self, host: &HostFacts, window: usize) -> Engine {
        Engine::new(
            self.program.clone(),
            make_nfs(&self.names),
            host.engine_config(window),
        )
        .expect("engine configuration is valid")
    }
}

/// The whole set-up path once: policy text → parse → compile → seal → NF
/// construction → `Engine::new`. Work moved into constructors shows here.
pub fn setup_once(workload: &Workload, registry: &Registry, host: &HostFacts) -> f64 {
    let t = Instant::now();
    let (_graph, program, names) = workload.program(registry);
    let engine = Engine::new(
        program,
        make_nfs(&names),
        host.engine_config(THROUGHPUT_WINDOW),
    )
    .expect("engine configuration is valid");
    let secs = t.elapsed().as_secs_f64();
    black_box(engine);
    secs
}

/// The end-to-end metrics of one workload, plus the window-4 latency
/// percentiles that the per-layer list carries (they did not hold a bound
/// on shared hosts).
#[derive(Debug, Clone)]
pub struct EndToEnd {
    pub setup_s: Summary,
    pub rtc_pps: Summary,
    pub sync_pps: Summary,
    pub threaded_pps: Summary,
    pub threaded_p50_us: Summary,
    pub threaded_p99_us: Summary,
    /// Latency samples in each latency trial.
    pub latency_samples: u64,
    pub peak_rss_mb: f64,
    /// Median host speed over the pass, relative to nominal.
    pub host_speed: f64,
}

/// One window-4 latency trial on `engine`: `(p50_us, p99_us, samples)`.
pub fn latency_trial(engine: &mut Engine, prep: &Prepared, tally: &mut Tally) -> (f64, f64, u64) {
    let (pass, report) = threaded_pass(engine, &prep.input);
    tally.absorb("threaded.latency", &pass, Some(&prep.reference));
    match report.latency {
        Some(l) => (
            l.p50.as_secs_f64() * 1e6,
            l.p99.as_secs_f64() * 1e6,
            l.count as u64,
        ),
        None => {
            tally.fail(1, "threaded.latency: no packet was delivered".into());
            (f64::NAN, f64::NAN, 0)
        }
    }
}

/// Measure every end-to-end metric of `prep`'s workload.
///
/// The executors take turns, one trial each per round, for the whole
/// pass — not one block of time each. Interference on a shared host
/// comes in episodes of seconds: a block design lets one episode swallow
/// a whole metric, a round-robin design spreads it over a minority of
/// every metric's trials, which the quartile then ignores.
pub fn measure(prep: &Prepared, host: &HostFacts, plan: &Plan, tally: &mut Tally) -> EndToEnd {
    let reference = Some(&prep.reference);
    let mut yard = Yardstick::new();
    let mut rtc = RunToCompletion::new(make_nfs(&prep.names));
    let mut sync = prep.sync_engine();
    let mut engine = prep.engine(host, THROUGHPUT_WINDOW);
    let mut latency_engine = prep.engine(host, LATENCY_WINDOW);

    let (mut setup, mut rtc_pps, mut sync_pps, mut threaded_pps) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut p50, mut p99) = (Vec::new(), Vec::new());
    let mut latency_samples = 0;

    // Every trial is paired with the host speed around it: the yardstick
    // is sampled between trials, and a trial's speed is the mean of the
    // samples on either side of it.
    let mut before = yard.speed();
    let mut paced = |value: f64, yard: &mut Yardstick| {
        let after = yard.speed();
        let speed = (before + after) / 2.0;
        before = after;
        (value, speed)
    };

    let start = Instant::now();
    let mut round = 0;
    loop {
        // Round 0 is the warm-up: it runs everything and keeps nothing.
        let keep = round > 0;

        // Set-up is microseconds: ten repetitions between clock samples,
        // every round, so that it too is sampled across the whole pass.
        let reps: Vec<f64> = (0..SETUP_REPS_PER_ROUND)
            .map(|_| setup_once(prep.workload, &prep.registry, host))
            .collect();
        let (_, speed) = paced(0.0, &mut yard);
        if keep {
            setup.extend(reps.into_iter().map(|r| (r, speed)));
        }

        let pass = rtc_pass(&mut rtc, &prep.input);
        tally.absorb("rtc", &pass, reference);
        let trial = paced(pass.pps(), &mut yard);
        if keep {
            rtc_pps.push(trial);
        }

        let pass = sync_pass(&mut sync, &prep.input);
        tally.absorb("sync", &pass, reference);
        let trial = paced(pass.pps(), &mut yard);
        if keep {
            sync_pps.push(trial);
        }

        let (pass, _report) = threaded_pass(&mut engine, &prep.input);
        tally.absorb("threaded", &pass, reference);
        let trial = paced(pass.pps(), &mut yard);
        if keep {
            threaded_pps.push(trial);
        }

        let (t50, t99, samples) = latency_trial(&mut latency_engine, prep, tally);
        let (_, speed) = paced(0.0, &mut yard);
        if keep {
            p50.push((t50, speed));
            p99.push((t99, speed));
            latency_samples = samples;
        }

        round += 1;
        if round > plan.min_trials.max(1) && start.elapsed().as_secs_f64() >= plan.seconds {
            break;
        }
    }

    let speeds: Vec<f64> = rtc_pps.iter().chain(&threaded_pps).map(|t| t.1).collect();
    EndToEnd {
        setup_s: Summary::of(Kind::Duration, &setup),
        rtc_pps: Summary::of(Kind::Rate, &rtc_pps),
        sync_pps: Summary::of(Kind::Rate, &sync_pps),
        threaded_pps: Summary::of(Kind::Rate, &threaded_pps),
        threaded_p50_us: Summary::of(Kind::Duration, &p50),
        threaded_p99_us: Summary::of(Kind::Duration, &p99),
        latency_samples,
        peak_rss_mb: peak_rss_mb(),
        host_speed: crate::stats::median(&speeds),
    }
}
