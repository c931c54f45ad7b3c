//! The benchmark's own promises: seeded traffic, the metric names in
//! `BENCHMARK.json`, parseable output, the workloads' graph shapes, and a
//! gate that bites.

use nfp_perf::drive::Tally;
use nfp_perf::endtoend::Plan;
use nfp_perf::host::HostFacts;
use nfp_perf::json::{self, Value};
use nfp_perf::layers::copies_per_packet;
use nfp_perf::metrics::{valid_name, END_TO_END, PER_LAYER};
use nfp_perf::run::{run_workload, Passes};
use nfp_perf::spans::Recorder;
use nfp_perf::workloads::{by_name, eval_registry, WORKLOADS};
use std::collections::BTreeSet;

/// A plan small enough for an unoptimised test build.
fn tiny_plan() -> Plan {
    Plan {
        seed: 7,
        seconds: 0.2,
        trial_packets: 384,
        gate_packets: 256,
        min_trials: 2,
        inject_fault: false,
    }
}

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    assert!(text.len() <= 64 * 1024, "BENCHMARK.json over 64 KiB");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn names_of(list: &Value) -> Vec<String> {
    list.as_arr()
        .expect("a list")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

#[test]
fn same_seed_same_traffic_other_seed_other_traffic() {
    for w in &WORKLOADS {
        let a = w.traffic(42, 512);
        assert_eq!(a.len(), 512, "{}", w.name);
        assert_eq!(a.hash(), w.traffic(42, 512).hash(), "{}: same seed", w.name);
        assert_ne!(
            a.hash(),
            w.traffic(43, 512).hash(),
            "{}: other seed",
            w.name
        );
    }
}

#[test]
fn benchmark_json_names_what_the_runner_emits() {
    let doc = benchmark_json();
    let keys: BTreeSet<&str> = doc.as_obj().unwrap().keys().map(String::as_str).collect();
    assert_eq!(
        keys,
        BTreeSet::from([
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ])
    );

    assert_eq!(
        names_of(doc.get("workloads").unwrap()),
        WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>()
    );
    for w in doc.get("workloads").unwrap().as_arr().unwrap() {
        let why = w.get("why").and_then(Value::as_str).unwrap();
        assert!(
            why.len() <= 200 && !why.contains('\n'),
            "why is one short line"
        );
        assert_eq!(w.as_obj().unwrap().len(), 2);
    }

    let e2e = doc.get("end_to_end").unwrap();
    assert_eq!(
        names_of(e2e),
        END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>()
    );
    for (m, def) in e2e.as_arr().unwrap().iter().zip(&END_TO_END) {
        assert_eq!(
            m.get("unit").and_then(Value::as_str),
            Some(def.unit),
            "{}",
            def.name
        );
        assert_eq!(
            m.get("better").and_then(Value::as_str),
            Some(def.better.as_str())
        );
        assert_eq!(
            m.get("bound").and_then(Value::as_f64),
            Some(def.bound),
            "{}",
            def.name
        );
        assert_eq!(m.as_obj().unwrap().len(), 4);
    }

    let layers = doc.get("per_layer").unwrap();
    assert_eq!(
        names_of(layers),
        PER_LAYER.iter().map(|m| m.name).collect::<Vec<_>>()
    );
    for (m, def) in layers.as_arr().unwrap().iter().zip(&PER_LAYER) {
        assert_eq!(
            m.get("unit").and_then(Value::as_str),
            Some(def.unit),
            "{}",
            def.name
        );
        assert_eq!(
            m.get("better").and_then(Value::as_str),
            Some(def.better.as_str())
        );
        assert_eq!(m.as_obj().unwrap().len(), 3);
    }

    for name in names_of(e2e).iter().chain(&names_of(layers)) {
        assert!(valid_name(name), "`{name}` must match [A-Za-z0-9_.-]+");
    }
    let paths = names_of_strings(doc.get("paths").unwrap());
    assert_eq!(paths, ["perf"]);
    let seconds = doc.get("run_seconds").and_then(Value::as_f64).unwrap();
    assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);
}

fn names_of_strings(list: &Value) -> Vec<String> {
    list.as_arr()
        .unwrap()
        .iter()
        .map(|s| s.as_str().unwrap().to_string())
        .collect()
}

#[test]
fn every_named_metric_is_emitted_and_the_output_parses() {
    let host = HostFacts::probe();
    let plan = tiny_plan();
    for w in &WORKLOADS {
        let outcome = run_workload(w, &host, &plan, Passes::Both);
        let report = outcome.report(&host, &plan);
        assert!(report.correct(), "{}: {:?}", w.name, outcome.tally.notes);

        let line = json::parse(&report.result_line()).expect("result line is JSON");
        let keys: BTreeSet<&str> = line.as_obj().unwrap().keys().map(String::as_str).collect();
        assert_eq!(
            keys,
            BTreeSet::from(["correct", "attempted", "failed", "metrics"])
        );
        assert_eq!(line.get("correct").and_then(Value::as_bool), Some(true));
        assert!(line.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0);
        let metrics = line.get("metrics").unwrap().as_obj().unwrap();
        for (name, unit) in END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        {
            let m = metrics
                .get(name)
                .unwrap_or_else(|| panic!("{}: `{name}` not emitted", w.name));
            assert_eq!(m.get("unit").and_then(Value::as_str), Some(unit));
            let value = m.get("value").and_then(Value::as_f64);
            assert!(
                value.is_some_and(f64::is_finite),
                "{}: `{name}` = {value:?}",
                w.name
            );
        }
        assert_eq!(metrics.len(), END_TO_END.len() + PER_LAYER.len());
        for m in &END_TO_END {
            let value = metrics[m.name]
                .get("value")
                .and_then(Value::as_f64)
                .unwrap();
            assert!(
                value > 0.0,
                "{}: end-to-end `{}` must never read 0",
                w.name,
                m.name
            );
        }

        let text = report.text();
        for name in metrics.keys() {
            assert!(
                text.contains(&format!("\n{name} ")),
                "`{name}` printed with its unit"
            );
        }
        json::parse(&report.to_json()).expect("--out document is JSON");
        let trace = json::parse(outcome.trace_json.as_deref().unwrap()).expect("trace is JSON");
        assert!(!trace.get("spans").unwrap().as_arr().unwrap().is_empty());
    }
}

#[test]
fn one_pass_emits_exactly_its_own_metrics() {
    let host = HostFacts::probe();
    let plan = tiny_plan();
    let w = by_name("ew_64b").unwrap();
    for (passes, expect) in [
        (
            Passes::EndToEnd,
            END_TO_END.iter().map(|m| m.name).collect::<BTreeSet<_>>(),
        ),
        (
            Passes::Layers,
            PER_LAYER.iter().map(|m| m.name).collect::<BTreeSet<_>>(),
        ),
    ] {
        let outcome = run_workload(w, &host, &plan, passes);
        let names: BTreeSet<&str> = outcome
            .report(&host, &plan)
            .metrics()
            .iter()
            .map(|m| m.0)
            .collect();
        assert_eq!(names, expect);
    }
}

#[test]
fn workload_graphs_have_the_stated_shape() {
    let registry = eval_registry();
    for w in &WORKLOADS {
        let (graph, program, names) = w.program(&registry);
        assert_eq!(graph.describe(), w.shape, "{}", w.name);
        assert_eq!(names.len(), w.chain.len());
        let (header, full) = copies_per_packet(program.tables());
        let merges = program.tables().merge_specs.len();
        match w.name {
            "seq3_64b" => assert_eq!((header + full, merges), (0, 0), "no copy, no merge"),
            "ew_64b" => assert_eq!(
                (header, full, merges),
                (1, 0, 1),
                "one header copy, one merge"
            ),
            "ns_dc" | "replay_mixed" => assert_eq!((header + full, merges), (0, 1)),
            other => panic!("unexpected workload {other}"),
        }
    }
}

#[test]
fn the_gate_reports_a_forced_divergence_as_failed_packets() {
    let host = HostFacts::probe();
    let w = by_name("ew_64b").unwrap();
    let (_graph, program, names) = w.program(&eval_registry());
    let input = w.traffic(3, 256);
    for (inject, expect_failed) in [(false, false), (true, true)] {
        let mut tally = Tally::default();
        nfp_perf::gate::run(
            &program,
            &names,
            &input,
            &host,
            inject,
            &mut tally,
            &mut Recorder::new(false),
        );
        assert_eq!(
            tally.attempted,
            3 * 256,
            "three engines replay the gate packets"
        );
        assert_eq!(tally.failed > 0, expect_failed, "{:?}", tally.notes);
    }
}
