//! `nfp-perf` — the repo's benchmark runner.
//!
//! ```text
//! nfp-perf --workload <name> [--seed <u64>] [--seconds <n>] [--trace <0|1>] [--out <file>]
//! nfp-perf [--seed <u64>] [--seconds <n>] [--out <file>]      # all four workloads
//! nfp-perf --selfcheck [--seed <u64>] [--seconds <n>]          # the suite twice, compared
//! ```
//!
//! `--trace 0` measures the end-to-end metrics only, `--trace 1` the
//! per-layer metrics only; without `--trace` a workload runs both passes.
//! Without `--workload` one child process runs per workload, so that
//! `peak_rss_mb` is per workload. The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed`, `metrics`. The exit code
//! is non-zero on any correctness failure.

use nfp_perf::endtoend::Plan;
use nfp_perf::host::HostFacts;
use nfp_perf::json::{self, Value};
use nfp_perf::metrics::END_TO_END;
use nfp_perf::report::{fmt, result_line};
use nfp_perf::run::{run_workload, Passes};
use nfp_perf::workloads::{by_name, Workload, WORKLOADS};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

struct Args {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    out: Option<PathBuf>,
    selfcheck: bool,
    inject_fault: bool,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: nfp-perf [--workload <{}>] [--seed <u64>] [--seconds <1..60>] [--trace <0|1>] \
         [--out <file>] [--selfcheck] [--inject-fault]",
        names.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: None,
        out: None,
        selfcheck: false,
        inject_fault: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or_else(|| format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                args.workload =
                    Some(by_name(&name).ok_or_else(|| format!("unknown workload `{name}`"))?);
            }
            "--seed" => {
                args.seed = value("a u64")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value("a number of seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                args.trace = Some(match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                });
            }
            "--out" => args.out = Some(PathBuf::from(value("a file path")?)),
            "--selfcheck" => args.selfcheck = true,
            "--inject-fault" => args.inject_fault = true,
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown argument `{other}`\n{}", usage())),
        }
    }
    Ok(args)
}

/// Where trace files go: `perf/out` from the repo root, `out` from `perf/`.
fn out_dir() -> PathBuf {
    if Path::new("perf/Cargo.toml").is_file() {
        PathBuf::from("perf/out")
    } else {
        PathBuf::from("out")
    }
}

fn write_file(path: &Path, contents: &str) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, contents).map_err(|e| format!("{}: {e}", path.display()))
}

/// One workload in this process.
fn run_single(workload: &'static Workload, args: &Args) -> Result<bool, String> {
    let host = HostFacts::probe();
    let mut plan = Plan::new(args.seed, args.seconds);
    plan.inject_fault = args.inject_fault;
    let passes = match args.trace {
        None => Passes::Both,
        Some(false) => Passes::EndToEnd,
        Some(true) => Passes::Layers,
    };
    let outcome = run_workload(workload, &host, &plan, passes);
    let report = outcome.report(&host, &plan);
    print!("{}", report.text());
    if let Some(trace) = &outcome.trace_json {
        let path = out_dir().join(format!("trace-{}.json", workload.name));
        write_file(&path, trace)?;
        println!("spans written to {}", path.display());
    }
    if let Some(path) = &args.out {
        write_file(path, &report.to_json())?;
        println!("results written to {}", path.display());
    }
    println!("{}", report.result_line());
    Ok(report.correct())
}

/// What the suite keeps of one child run.
struct ChildResult {
    workload: &'static str,
    correct: bool,
    attempted: u64,
    failed: u64,
    /// `(metric, value, unit)` in the child's order.
    metrics: Vec<(String, f64, String)>,
}

fn parse_result(workload: &'static str, line: &str) -> Result<ChildResult, String> {
    let v = json::parse(line).map_err(|e| format!("{workload}: result line: {e}"))?;
    let field = |k: &str| {
        v.get(k)
            .ok_or_else(|| format!("{workload}: result lacks `{k}`"))
    };
    let metrics = field("metrics")?
        .as_obj()
        .ok_or("metrics is not an object")?
        .iter()
        .map(|(name, m)| {
            (
                name.clone(),
                m.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN),
                m.get("unit")
                    .and_then(Value::as_str)
                    .unwrap_or("")
                    .to_string(),
            )
        })
        .collect();
    Ok(ChildResult {
        workload,
        correct: field("correct")?.as_bool().unwrap_or(false),
        attempted: field("attempted")?.as_f64().unwrap_or(0.0) as u64,
        failed: field("failed")?.as_f64().unwrap_or(0.0) as u64,
        metrics,
    })
}

/// All four workloads, one child process each. `echo` prints the
/// children's reports as they finish.
fn run_suite(args: &Args, trace: Option<bool>, echo: bool) -> Result<Vec<ChildResult>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut results = Vec::new();
    for w in &WORKLOADS {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .stdout(Stdio::piped());
        if let Some(t) = trace {
            cmd.args(["--trace", if t { "1" } else { "0" }]);
        }
        if args.inject_fault {
            cmd.arg("--inject-fault");
        }
        if args.out.is_some() {
            cmd.arg("--out")
                .arg(out_dir().join(format!("result-{}.json", w.name)));
        }
        // `output` waits for the child to end before returning.
        let output = cmd.output().map_err(|e| format!("spawn {}: {e}", w.name))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let lines: Vec<&str> = stdout.lines().collect();
        let (last, report) = lines.split_last().unwrap_or((&"", &[]));
        if echo {
            report.iter().for_each(|l| println!("{l}"));
        }
        let result = parse_result(w.name, last)?;
        if !output.status.success() && result.correct {
            return Err(format!("{}: child exited with {}", w.name, output.status));
        }
        results.push(result);
    }
    Ok(results)
}

fn suite_result_line(results: &[ChildResult]) -> String {
    let names: Vec<String> = results
        .iter()
        .flat_map(|r| {
            r.metrics
                .iter()
                .map(move |m| format!("{}.{}", r.workload, m.0))
        })
        .collect();
    let metrics: Vec<(&str, f64, &str)> = results
        .iter()
        .flat_map(|r| r.metrics.iter())
        .zip(&names)
        .map(|(m, name)| (name.as_str(), m.1, m.2.as_str()))
        .collect();
    result_line(
        results.iter().all(|r| r.correct),
        results.iter().map(|r| r.attempted).sum(),
        results.iter().map(|r| r.failed).sum(),
        &metrics,
    )
}

/// The suite twice, back to back: do two run sets of the same code agree
/// within the benchmark's own bounds?
fn selfcheck(args: &Args) -> Result<bool, String> {
    println!(
        "selfcheck: two end-to-end run sets of the same code, seed {}, {} s each",
        args.seed, args.seconds
    );
    let first = run_suite(args, Some(false), false)?;
    let second = run_suite(args, Some(false), false)?;
    let mut ok = first.iter().chain(&second).all(|r| r.correct);
    println!("| workload | metric | first | second | worse by | bound | |");
    println!("|---|---|---|---|---|---|---|");
    for (a, b) in first.iter().zip(&second) {
        for def in &END_TO_END {
            let value = |r: &ChildResult| {
                r.metrics
                    .iter()
                    .find(|m| m.0 == def.name)
                    .map_or(f64::NAN, |m| m.1)
            };
            let (x, y) = (value(a), value(b));
            let worse = def.better.worsening(x, y);
            // Two runs of one commit: either may be the "parent".
            let disagreement = worse.max(def.better.worsening(y, x));
            let within = disagreement <= def.bound;
            ok &= within;
            println!(
                "| {} | {} | {} | {} | {:+.1}% | {:.0}% | {} |",
                a.workload,
                def.name,
                fmt(x),
                fmt(y),
                worse * 100.0,
                def.bound * 100.0,
                if within { "ok" } else { "EXCEEDS BOUND" }
            );
        }
    }
    println!(
        "selfcheck: {}",
        if ok {
            "every metric within its bound"
        } else {
            "FAILED"
        }
    );
    Ok(ok)
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("nfp-perf refuses to measure a build with debug assertions: use --release");
        return ExitCode::from(2);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.selfcheck {
        selfcheck(&args)
    } else if let Some(w) = args.workload {
        run_single(w, &args)
    } else {
        run_suite(&args, args.trace, true).and_then(|results| {
            let line = suite_result_line(&results);
            if let Some(path) = &args.out {
                write_file(path, &format!("{line}\n"))?;
                println!("suite results written to {}", path.display());
            }
            println!("{line}");
            Ok(results.iter().all(|r| r.correct))
        })
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("nfp-perf: correctness failure (see FAILED lines)");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("nfp-perf: {e}");
            ExitCode::from(2)
        }
    }
}
