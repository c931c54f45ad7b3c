//! `nfp` — command-line front end for the NFP orchestrator.
//!
//! ```text
//! nfp census [--uniform]          the §4.3 parallelizability statistics
//! nfp check   <policy-file>       parse + conflict-check a policy
//! nfp compile <policy-file>       compile a policy into a service graph
//!             [--sequential]     …without parallelization (baseline)
//!             [--no-dirty-reuse] …with OP#1 disabled
//!             [--tables]         …and print the generated runtime tables
//! nfp telemetry <policy-file>     run synthetic traffic through the graph
//!             [--packets=N]      …N packets (default 1000)
//!             [--trace-every=N]  …trace-sample every Nth packet (default 100)
//!             [--prometheus]     …emit Prometheus text instead of JSON
//! nfp replay  <policy-file>       replay a classic-pcap trace through the graph
//!             --pcap=<in.pcap>   …the trace to replay (required)
//!             [--pcap-out=<f>]   …write delivered packets to a pcap file
//!             [--engine=E]       …sync (default) | threaded | sharded
//!             [--shards=N]       …fleet width for --engine=sharded (default 2)
//! ```
//!
//! Policies use the paper's §3 syntax (see `examples/policy_playground.rs`).
//! NF names resolve against the evaluated registry (`Registry::evaluated`:
//! Table 2 plus the §6.1 Forwarder, LB and inline IDS), and every type
//! there runs, built by `nf::catalogue`. `census` alone counts Table 2 as
//! the paper prints it.

use nfp_core::nf::catalogue;
use nfp_core::orchestrator::census::{census, Weighting};
use nfp_core::prelude::*;
use nfp_core::sim::overhead;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter().map(String::as_str);
    match it.next() {
        Some("census") => cmd_census(args.iter().any(|a| a == "--uniform")),
        Some("check") => match it.next() {
            Some(path) => cmd_check(path),
            None => usage("check needs a policy file"),
        },
        Some("compile") => {
            let files: Vec<&str> = args[1..]
                .iter()
                .filter(|a| !a.starts_with("--"))
                .map(String::as_str)
                .collect();
            match files.first() {
                Some(path) => cmd_compile(
                    path,
                    args.iter().any(|a| a == "--sequential"),
                    args.iter().any(|a| a == "--no-dirty-reuse"),
                    args.iter().any(|a| a == "--tables"),
                ),
                None => usage("compile needs a policy file"),
            }
        }
        Some("telemetry") => {
            let files: Vec<&str> = args[1..]
                .iter()
                .filter(|a| !a.starts_with("--"))
                .map(String::as_str)
                .collect();
            let flag = |name: &str, default: u64| {
                args.iter()
                    .find_map(|a| a.strip_prefix(name).and_then(|v| v.parse().ok()))
                    .unwrap_or(default)
            };
            match files.first() {
                Some(path) => cmd_telemetry(
                    path,
                    flag("--packets=", 1000),
                    flag("--trace-every=", 100),
                    args.iter().any(|a| a == "--prometheus"),
                ),
                None => usage("telemetry needs a policy file"),
            }
        }
        Some("replay") => {
            let files: Vec<&str> = args[1..]
                .iter()
                .filter(|a| !a.starts_with("--"))
                .map(String::as_str)
                .collect();
            let value = |name: &str| {
                args.iter()
                    .find_map(|a| a.strip_prefix(name))
                    .map(str::to_string)
            };
            let (Some(path), Some(pcap)) = (files.first(), value("--pcap=")) else {
                return usage("replay needs a policy file and --pcap=<in.pcap>");
            };
            let shards = value("--shards=")
                .and_then(|v| v.parse().ok())
                .unwrap_or(2usize)
                .max(1);
            cmd_replay(
                path,
                &pcap,
                value("--pcap-out=").as_deref(),
                value("--engine=").as_deref().unwrap_or("sync"),
                shards,
            )
        }
        Some("--help") | Some("-h") | None => usage(""),
        Some(other) => usage(&format!("unknown command `{other}`")),
    }
}

fn usage(err: &str) -> ExitCode {
    if !err.is_empty() {
        eprintln!("error: {err}\n");
    }
    eprintln!(
        "usage:\n  nfp census [--uniform]\n  nfp check <policy-file>\n  \
         nfp compile <policy-file> [--sequential] [--no-dirty-reuse] [--tables]\n  \
         nfp telemetry <policy-file> [--packets=N] [--trace-every=N] [--prometheus]\n  \
         nfp replay <policy-file> --pcap=<in.pcap> [--pcap-out=<f>] [--engine=sync|threaded|sharded] [--shards=N]"
    );
    if err.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}

fn cmd_census(uniform: bool) -> ExitCode {
    let weighting = if uniform {
        Weighting::Uniform
    } else {
        Weighting::DeploymentShare
    };
    let r = census(&Registry::paper_table2(), weighting, Default::default());
    println!(
        "{weighting:?} census over Table 2: parallelizable {:.1}%, no-copy {:.1}%, with-copy {:.1}%",
        r.parallelizable * 100.0,
        r.no_copy * 100.0,
        r.with_copy * 100.0
    );
    if !uniform {
        println!("paper §4.3 reports: 53.8% / 41.5% / 12.3%");
    }
    ExitCode::SUCCESS
}

fn read_policy(path: &str) -> Result<Policy, ExitCode> {
    let text = std::fs::read_to_string(path).map_err(|e| {
        eprintln!("error: cannot read {path}: {e}");
        ExitCode::from(1)
    })?;
    parse_policy(&text).map_err(|e| {
        eprintln!("error: {e}");
        ExitCode::from(1)
    })
}

fn cmd_check(path: &str) -> ExitCode {
    let policy = match read_policy(path) {
        Ok(p) => p,
        Err(code) => return code,
    };
    let conflicts = nfp_core::policy::check_conflicts(&policy);
    if conflicts.is_empty() {
        println!("ok: {} rules, no conflicts", policy.rules().len());
        ExitCode::SUCCESS
    } else {
        for c in &conflicts {
            eprintln!("conflict: {c}");
        }
        ExitCode::from(1)
    }
}

fn cmd_telemetry(path: &str, packets: u64, trace_every: u64, prometheus: bool) -> ExitCode {
    let policy = match read_policy(path) {
        Ok(p) => p,
        Err(code) => return code,
    };
    let compiled = match compile(&policy, &Registry::evaluated(), &[], &Default::default()) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("compile error: {e}");
            return ExitCode::from(1);
        }
    };
    let program = match compiled.program(1) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("program seal error: {e}");
            return ExitCode::from(1);
        }
    };
    // Every type the evaluated registry compiles has a catalogue row.
    let nfs = compiled.graph.nodes.iter();
    let nfs = nfs.map(|n| catalogue::make(n.name.as_str()).expect("a registered NF type"));
    let mut engine = SyncEngine::new(program, nfs.collect(), 256);
    engine.set_telemetry(TelemetryConfig {
        histograms: true,
        trace_every,
        trace_capacity: 4096,
    });
    for i in 0..packets {
        let pkt = nfp_core::traffic::gen::build_tcp_frame(
            nfp_core::packet::ipv4::Ipv4Addr::new(10, 0, (i >> 8) as u8, i as u8),
            nfp_core::packet::ipv4::Ipv4Addr::new(10, 99, 0, 1),
            (1024 + (i % 1000)) as u16,
            443,
            b"telemetry probe",
        );
        let _ = engine.process(pkt);
    }
    let snap = engine.telemetry();
    if prometheus {
        print!("{}", snap.to_prometheus());
    } else {
        print!("{}", snap.to_json());
    }
    ExitCode::SUCCESS
}

fn cmd_replay(
    path: &str,
    pcap_in: &str,
    pcap_out: Option<&str>,
    engine: &str,
    shards: usize,
) -> ExitCode {
    use nfp_core::dataplane::EngineConfig;
    use nfp_core::io::{Egress, NullEgress, PcapEgress, PcapFormat, PcapIngress};

    let policy = match read_policy(path) {
        Ok(p) => p,
        Err(code) => return code,
    };
    let compiled = match compile(&policy, &Registry::evaluated(), &[], &Default::default()) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("compile error: {e}");
            return ExitCode::from(1);
        }
    };
    let program = match compiled.program(1) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("program seal error: {e}");
            return ExitCode::from(1);
        }
    };
    let names: Vec<String> = compiled
        .graph
        .nodes
        .iter()
        .map(|n| n.name.as_str().to_string())
        .collect();
    // Every type the evaluated registry compiles has a catalogue row.
    let make_nfs = move || -> Vec<Box<dyn NetworkFunction>> {
        let make = |n: &String| catalogue::make(n).expect("a registered NF type");
        names.iter().map(make).collect()
    };

    let mut ingress = match PcapIngress::open(pcap_in) {
        Ok(i) => i,
        Err(e) => {
            eprintln!("error: cannot open {pcap_in}: {e}");
            return ExitCode::from(1);
        }
    };
    let mut egress: Box<dyn Egress> = match pcap_out {
        Some(out) => match PcapEgress::create(out, PcapFormat::default()) {
            Ok(e) => Box::new(e),
            Err(e) => {
                eprintln!("error: cannot create {out}: {e}");
                return ExitCode::from(1);
            }
        },
        None => Box::new(NullEgress::new()),
    };

    let start = std::time::Instant::now();
    let io = match engine {
        "sync" => {
            SyncEngine::new(program, make_nfs(), 256).run_io(&mut ingress, egress.as_mut(), 64)
        }
        "threaded" => match Engine::new(program, make_nfs(), EngineConfig::default()) {
            Ok(mut engine) => engine
                .run_io(&mut ingress, egress.as_mut())
                .map(|(_, io)| io),
            Err(e) => {
                eprintln!("engine error: {e}");
                return ExitCode::from(1);
            }
        },
        "sharded" => {
            match ShardedEngine::new(&program, make_nfs, &EngineConfig::default(), shards) {
                Ok(mut fleet) => fleet
                    .run_io(&mut ingress, egress.as_mut())
                    .map(|(_, io)| io),
                Err(e) => {
                    eprintln!("engine error: {e}");
                    return ExitCode::from(1);
                }
            }
        }
        other => return usage(&format!("unknown engine `{other}`")),
    };
    let elapsed = start.elapsed();

    match io {
        Ok(io) => {
            println!(
                "replayed {pcap_in} through {} [{engine}]: pulled {} delivered {} \
                 dropped {} rejected {} in {:.3}s ({:.0} pps)",
                compiled.graph.describe(),
                io.pulled,
                io.delivered,
                io.dropped,
                io.rejected,
                elapsed.as_secs_f64(),
                io.pulled as f64 / elapsed.as_secs_f64().max(1e-9)
            );
            if let Some(out) = pcap_out {
                println!("wrote {} delivered packet(s) to {out}", io.delivered);
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("replay error: {e}");
            ExitCode::from(1)
        }
    }
}

fn cmd_compile(path: &str, sequential: bool, no_dirty_reuse: bool, show_tables: bool) -> ExitCode {
    let policy = match read_policy(path) {
        Ok(p) => p,
        Err(code) => return code,
    };
    let opts = CompileOptions {
        force_sequential: sequential,
        identify: nfp_core::orchestrator::IdentifyOptions {
            dirty_memory_reusing: !no_dirty_reuse,
        },
    };
    let compiled = match compile(&policy, &Registry::evaluated(), &[], &opts) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("compile error: {e}");
            return ExitCode::from(1);
        }
    };
    let g = &compiled.graph;
    println!("graph:            {}", g.describe());
    println!("equivalent length: {}", g.equivalent_chain_length());
    println!("NFs:               {}", g.nf_count());
    println!("max degree:        {}", g.max_degree());
    println!("copies/packet:     {}", g.copies_per_packet());
    println!(
        "overhead (DC mix): {:.1}%",
        g.copies_per_packet() as f64 * overhead::datacenter_overhead(2) * 100.0
    );
    for w in &compiled.warnings {
        println!("warning: {w:?}");
    }
    if show_tables {
        let program = match compiled.program(1) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("program seal error: {e}");
                return ExitCode::from(1);
            }
        };
        let t = program.tables();
        println!("\nslots/packet:      {}", program.slots_per_packet());
        println!("classifier actions: {:?}", t.entry_actions);
        for (i, cfg) in t.nf_configs.iter().enumerate() {
            println!("{}: {:?}", g.nodes[i].name, cfg.actions);
        }
        for spec in &t.merge_specs {
            println!(
                "merger@{}: expect {}, ops {:?}",
                spec.segment, spec.total_count, spec.ops
            );
        }
    }
    ExitCode::SUCCESS
}
