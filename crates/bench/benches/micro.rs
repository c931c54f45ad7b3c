//! Criterion micro-benchmarks for the NFP substrates: the primitives whose
//! measured costs feed the virtual-time model (rings, pool copies, merge,
//! classification) and the from-scratch algorithm kernels (checksum, LPM,
//! Aho–Corasick, AES, Algorithm 1, graph compilation).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use nfp_bench::setups::{compile_chain, fixed_traffic};
use nfp_dataplane::ring;
use nfp_dataplane::telemetry::{LatencyHistogram, Telemetry, TelemetryConfig};
use nfp_nf::aes::Aes128;
use nfp_nf::aho::AhoCorasick;
use nfp_nf::forwarder::L3Forwarder;
use nfp_nf::lpm::LpmTable;
use nfp_nf::FlowTable;
use nfp_orchestrator::{identify, DependencyTable, IdentifyOptions, Registry};
use nfp_packet::checksum::checksum;
use nfp_packet::flow::FlowKey;
use nfp_packet::ipv4::Ipv4Addr;
use nfp_packet::pool::PacketPool;

fn bench_ring(c: &mut Criterion) {
    let (tx, rx) = ring::channel::<u64>(1024);
    c.bench_function("ring_push_pop", |b| {
        b.iter(|| {
            tx.push(black_box(7)).unwrap();
            black_box(rx.pop());
        })
    });
    // Burst transfer of 32 items: one Release publish per side per burst,
    // amortizing the atomics the scalar path pays per item.
    let (btx, brx) = ring::channel::<u64>(1024);
    let burst: [u64; 32] = std::array::from_fn(|i| i as u64);
    let mut out = Vec::with_capacity(32);
    c.bench_function("ring_burst32_push_pop", |b| {
        b.iter(|| {
            assert_eq!(btx.push_burst(black_box(&burst)), 32);
            out.clear();
            assert_eq!(brx.pop_burst(black_box(&mut out), 32), 32);
        })
    });
}

fn bench_pool(c: &mut Criterion) {
    let pool = PacketPool::new(8);
    let pkt = fixed_traffic(1, 724).pop().unwrap();
    let r = pool.insert(pkt).unwrap();
    c.bench_function("pool_header_only_copy_724B", |b| {
        b.iter(|| {
            let cp = pool.header_only_copy(black_box(r), 2).unwrap();
            pool.release(cp);
        })
    });
    c.bench_function("pool_full_copy_724B", |b| {
        b.iter(|| {
            let cp = pool.full_copy(black_box(r), 2).unwrap();
            pool.release(cp);
        })
    });
    c.bench_function("pool_retain_release", |b| {
        b.iter(|| {
            pool.retain(black_box(r));
            pool.release(r);
        })
    });
}

fn bench_checksum(c: &mut Criterion) {
    let data = vec![0xa5u8; 1460];
    c.bench_function("internet_checksum_1460B", |b| {
        b.iter(|| checksum(black_box(&data)))
    });
}

fn bench_lpm(c: &mut Criterion) {
    let mut t = LpmTable::new();
    for i in 0..1000u32 {
        t.insert(Ipv4Addr::from_u32((10 << 24) | (i << 8)), 24, i);
    }
    c.bench_function("lpm_lookup_1000_routes", |b| {
        let mut x = 0u32;
        b.iter(|| {
            x = x.wrapping_add(97);
            black_box(t.lookup(Ipv4Addr::from_u32((10 << 24) | ((x % 1000) << 8) | 5)))
        })
    });
    // The paper's forwarder table (the 1000 /24s plus a default route)
    // under the two access patterns the benchmark workloads produce: 32
    // hot destinations (`seq3_64b`: the walked nodes stay in L1) and 4096
    // destinations spread over every route and the default (cold: every
    // lookup walks different entries of the table's 18 KiB).
    t.insert(Ipv4Addr::new(0, 0, 0, 0), 0, u32::MAX);
    for (name, dsts) in [("hot32", 32u32), ("cold4096", 4096)] {
        let dsts: Vec<Ipv4Addr> = (0..dsts)
            .map(|i| Ipv4Addr::from_u32((10 << 24) | (i.wrapping_mul(2_654_435_761) >> 12)))
            .collect();
        c.bench_function(&format!("lpm_lookup_paper_table_{name}"), |b| {
            let mut i = 0usize;
            b.iter(|| {
                i = (i + 1) % dsts.len();
                black_box(t.lookup(black_box(dsts[i])))
            })
        });
    }
    c.bench_function("lpm_build_paper_table", |b| {
        b.iter(|| black_box(L3Forwarder::with_uniform_table("fwd", 1000)))
    });
}

/// What Monitor / LB / IDS pay per packet: one `FlowTable::entry` on a
/// live flow. 32 flows (the 64 B workloads) sit in L1; 4096 flows that
/// differ only in `sport` (`ns_dc`) do not.
fn bench_flow_table(c: &mut Criterion) {
    for flows in [32u16, 4096] {
        let keys: Vec<FlowKey> = (0..flows)
            .map(|sport| {
                FlowKey::new(
                    Ipv4Addr::new(10, 0, 0, 1),
                    Ipv4Addr::new(10, 9, 9, 9),
                    sport,
                    80,
                    6,
                )
            })
            .collect();
        let mut table: FlowTable<u64> = FlowTable::new();
        for k in &keys {
            table.insert(*k, 0);
        }
        c.bench_function(&format!("flow_table_entry_{flows}_flows"), |b| {
            let mut i = 0usize;
            b.iter(|| {
                i = (i + 1) % keys.len();
                *table.entry(black_box(keys[i])) += 1;
            })
        });
    }
}

fn bench_aho(c: &mut Criterion) {
    let sigs: Vec<String> = (0..100).map(|i| format!("EVIL{i:04}SIG")).collect();
    let ac = AhoCorasick::new(&sigs);
    let clean = vec![b'x'; 700];
    c.bench_function("aho_scan_700B_clean", |b| {
        b.iter(|| black_box(ac.any_match(black_box(&clean))))
    });
}

fn bench_aes(c: &mut Criterion) {
    let aes = Aes128::new(&[7u8; 16]);
    let mut data = vec![0u8; 700];
    c.bench_function("aes_ctr_700B", |b| {
        b.iter(|| aes.ctr_apply(black_box(1), &mut data))
    });
    // CBC-MAC is serial by construction: the half of the VPN that block
    // interleaving cannot hide.
    c.bench_function("aes_mac_700B", |b| b.iter(|| aes.mac96(black_box(&data))));
}

fn bench_alg1(c: &mut Criterion) {
    let reg = Registry::paper_table2();
    let monitor = reg.get("Monitor").unwrap().clone();
    let lb = reg.get("LoadBalancer").unwrap().clone();
    let dt = DependencyTable::paper_table3();
    c.bench_function("algorithm1_monitor_lb", |b| {
        b.iter(|| {
            black_box(identify(
                black_box(&monitor),
                black_box(&lb),
                &dt,
                IdentifyOptions::default(),
            ))
        })
    });
}

fn bench_telemetry(c: &mut Criterion) {
    use nfp_orchestrator::Stage;
    // The zero-sampling hot path: telemetry constructed but fully off.
    // `begin` must not touch the monotonic clock and `end` must no-op —
    // this is what every engine stage pays when telemetry is disabled.
    let off = Telemetry::off();
    c.bench_function("telemetry_disabled_begin_end", |b| {
        b.iter(|| {
            let t0 = black_box(&off).begin(Stage::Classifier, 1);
            off.end(black_box(Stage::Classifier), t0, 1);
        })
    });
    // The enabled path over one-message bursts: a count per burst, and a
    // real Instant::now pair plus the histogram cells once per
    // `CLOCK_PERIOD` bursts.
    let on = Telemetry::new(TelemetryConfig::default(), 2, 1);
    c.bench_function("telemetry_histogram_begin_end", |b| {
        b.iter(|| {
            let t0 = black_box(&on).begin(Stage::Classifier, 1);
            on.end(black_box(Stage::Classifier), t0, 1);
        })
    });
    let hist = LatencyHistogram::new();
    c.bench_function("latency_histogram_record_ns", |b| {
        let mut ns = 0u64;
        b.iter(|| {
            ns = ns.wrapping_add(977);
            hist.record_ns(black_box(ns & 0xffff));
        })
    });
}

fn bench_stage_pass(c: &mut Criterion) {
    use nfp_dataplane::actions::Msg;
    use nfp_dataplane::cores::collector;
    use nfp_dataplane::stats::StageStats;
    use nfp_orchestrator::Stage;

    // The collector's per-message step over a 32-packet burst. Packets
    // cycle pool → collect → back into the pool each iteration.
    let pool = PacketPool::new(64);
    let stats = StageStats::new();
    let mut pkts = fixed_traffic(32, 200);
    let mut msgs: Vec<Msg> = Vec::with_capacity(32);
    let mut out = Vec::with_capacity(32);
    c.bench_function("collector_pass_32_per_packet", |b| {
        b.iter(|| {
            msgs.extend(pkts.drain(..).map(|p| Msg::plain(pool.insert(p).unwrap())));
            for msg in msgs.drain(..) {
                out.push(collector::collect(black_box(msg), &pool, &stats));
            }
            pkts.append(&mut out);
        })
    });

    // Telemetry per stage pass: 32 one-message bursts (clocked once per
    // period) vs one 32-message burst (always clocked).
    let tele = Telemetry::new(TelemetryConfig::default(), 2, 1);
    c.bench_function("telemetry_pass_32_one_message_bursts", |b| {
        b.iter(|| {
            for _ in 0..32 {
                let t0 = tele.begin(black_box(Stage::Nf(0)), 1);
                tele.end(black_box(Stage::Nf(0)), t0, 1);
            }
        })
    });
    c.bench_function("telemetry_pass_32_one_burst", |b| {
        b.iter(|| {
            let t0 = tele.begin(black_box(Stage::Nf(0)), 32);
            tele.end(black_box(Stage::Nf(0)), t0, 32);
        })
    });
}

fn bench_compile(c: &mut Criterion) {
    c.bench_function("compile_north_south_chain", |b| {
        b.iter(|| black_box(compile_chain(&["VPN", "Monitor", "Firewall", "LB"])))
    });
}

criterion_group! {
    name = micro;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_millis(800)).warm_up_time(std::time::Duration::from_millis(200));
    targets = bench_ring, bench_pool, bench_checksum, bench_lpm, bench_flow_table, bench_aho, bench_aes, bench_telemetry, bench_stage_pass, bench_alg1, bench_compile
}
criterion_main!(micro);
