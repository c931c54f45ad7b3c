//! Pcap replay bench: a seeded golden trace through the classic-pcap
//! codec and every engine's `run_io` path, dumping machine-readable
//! results to `results/BENCH_pcap_replay.json`.
//!
//! Two layers are measured separately:
//!
//! * **codec** — raw `PcapWriter`/`PcapReader` throughput over the trace
//!   bytes, no engine attached (the I/O floor);
//! * **replay** — pcap-in → engine → pcap-out for the sync engine, the
//!   threaded engine and a 2-shard fleet, with delivered/dropped/rejected
//!   accounting from [`IoRunStats`] (the mixed trace carries malformed
//!   and snaplen-cut records on purpose).
//!
//! Usage: `cargo run --release -p nfp-bench --bin pcap_replay [--smoke] [packets] [trials]`

use nfp_bench::setups::{compile_chain, nf_factory};
use nfp_dataplane::engine::{Engine, EngineConfig};
use nfp_dataplane::shard::ShardedEngine;
use nfp_dataplane::sync_engine::SyncEngine;
use nfp_io::pcap::{read_pcap_bytes, write_pcap_bytes, PcapFormat};
use nfp_io::trace::{build_golden_records, GoldenTraceSpec};
use nfp_io::{IoRunStats, PcapEgress, PcapIngress};
use std::fmt::Write as _;
use std::time::Instant;

struct Row {
    engine: &'static str,
    io: IoRunStats,
    elapsed_s: f64,
    pps: f64,
    out_records: u64,
}

fn main() {
    let mut smoke = false;
    let mut pos: Vec<usize> = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--smoke" => smoke = true,
            other => pos.push(other.parse().unwrap_or_else(|_| {
                panic!("unexpected argument `{other}`");
            })),
        }
    }
    let n = pos
        .first()
        .copied()
        .unwrap_or(if smoke { 2_000 } else { 40_000 });
    let trials = pos
        .get(1)
        .copied()
        .unwrap_or(if smoke { 1 } else { 3 })
        .max(1);

    let spec = GoldenTraceSpec {
        packets: n,
        ..GoldenTraceSpec::mixed(42)
    };
    let records = build_golden_records(&spec);
    let trace = write_pcap_bytes(&records, PcapFormat::default());
    println!(
        "== golden-trace pcap replay: {} records, {} bytes, {} trials ==",
        records.len(),
        trace.len(),
        trials
    );

    // Codec floor: encode/decode the record set with no engine attached.
    let (mut write_mbps, mut read_mbps) = (0f64, 0f64);
    for _ in 0..trials {
        let t = Instant::now();
        let bytes = write_pcap_bytes(&records, PcapFormat::default());
        let w = bytes.len() as f64 / 1e6 / t.elapsed().as_secs_f64();
        let t = Instant::now();
        let back = read_pcap_bytes(&bytes).expect("codec round-trip");
        let r = bytes.len() as f64 / 1e6 / t.elapsed().as_secs_f64();
        assert_eq!(back.len(), records.len());
        write_mbps = write_mbps.max(w);
        read_mbps = read_mbps.max(r);
    }
    println!("codec: write {write_mbps:.1} MB/s, read {read_mbps:.1} MB/s");

    let compiled = compile_chain(&["Monitor", "Firewall"]);
    let program = compiled.program(1).expect("program seals");
    let nfs = nf_factory(&compiled.graph);
    let config = EngineConfig {
        max_in_flight: 64,
        io_burst: 64,
        ..EngineConfig::default()
    };

    let mut rows: Vec<Row> = Vec::new();
    for engine_label in ["sync", "threaded", "sharded_x2"] {
        let mut best: Option<Row> = None;
        for _ in 0..trials {
            let mut ingress = PcapIngress::from_bytes(trace.clone()).expect("golden trace parses");
            let mut egress = PcapEgress::in_memory(PcapFormat::default());
            let t = Instant::now();
            let io = match engine_label {
                "sync" => {
                    let mut engine = SyncEngine::new(program.clone(), nfs(), 512);
                    engine
                        .run_io(&mut ingress, &mut egress, 64)
                        .expect("sync replay")
                }
                "threaded" => {
                    let mut engine =
                        Engine::new(program.clone(), nfs(), config.clone()).expect("engine");
                    engine.run_io(&mut ingress, &mut egress).expect("replay").1
                }
                _ => {
                    let mut engine = ShardedEngine::new(
                        &program,
                        nfs.clone(),
                        &EngineConfig {
                            pool_size: 1024,
                            ..config.clone()
                        },
                        2,
                    )
                    .expect("fleet");
                    engine.run_io(&mut ingress, &mut egress).expect("replay").1
                }
            };
            let elapsed_s = t.elapsed().as_secs_f64();
            let row = Row {
                engine: engine_label,
                io,
                elapsed_s,
                pps: io.pulled as f64 / elapsed_s,
                out_records: egress.records(),
            };
            assert_eq!(
                io.pulled,
                io.delivered + io.dropped + io.rejected,
                "accounting must balance on {engine_label}"
            );
            assert_eq!(io.delivered, row.out_records, "every delivery is recorded");
            if best.as_ref().is_none_or(|b| row.pps > b.pps) {
                best = Some(row);
            }
        }
        let row = best.expect("at least one trial");
        println!(
            "{}: pulled {} delivered {} dropped {} rejected {} in {:.3}s ({:.2} Mpps)",
            row.engine,
            row.io.pulled,
            row.io.delivered,
            row.io.dropped,
            row.io.rejected,
            row.elapsed_s,
            row.pps / 1e6
        );
        rows.push(row);
    }

    // Cross-engine agreement on the headline counters — the differential
    // suite proves byte-identity; the bench asserts the cheap invariant.
    for r in &rows[1..] {
        assert_eq!(r.io.delivered, rows[0].io.delivered, "delivered diverges");
        assert_eq!(r.io.rejected, rows[0].io.rejected, "rejected diverges");
    }

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"bench\": \"pcap_replay\",");
    let _ = writeln!(json, "  \"chain\": \"Monitor->Firewall\",");
    let _ = writeln!(json, "  \"smoke\": {smoke},");
    let _ = writeln!(json, "  \"packets\": {n},");
    let _ = writeln!(json, "  \"trials\": {trials},");
    let _ = writeln!(json, "  \"trace_bytes\": {},", trace.len());
    let _ = writeln!(
        json,
        "  \"codec\": {{\"write_mb_s\": {write_mbps:.1}, \"read_mb_s\": {read_mbps:.1}}},"
    );
    let _ = writeln!(json, "  \"rows\": [");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"engine\": \"{}\", \"pulled\": {}, \"delivered\": {}, \
             \"dropped\": {}, \"rejected\": {}, \"out_records\": {}, \
             \"elapsed_s\": {:.6}, \"pps\": {:.1}}}{comma}",
            r.engine,
            r.io.pulled,
            r.io.delivered,
            r.io.dropped,
            r.io.rejected,
            r.out_records,
            r.elapsed_s,
            r.pps
        );
    }
    let _ = writeln!(json, "  ]");
    json.push_str("}\n");

    std::fs::create_dir_all("results").expect("results dir");
    std::fs::write("results/BENCH_pcap_replay.json", &json).expect("write results");
    println!("\nwrote results/BENCH_pcap_replay.json");
}
