//! The paper's evaluation (§4.3, §6, §7) as one table: each [`FIGURES`]
//! row renders one table or figure next to the paper's reported values,
//! and the `figures` binary prints the rows it is named.
//!
//! The latency and rate rows are *modelled*: `nfp-sim`'s virtual-time
//! model evaluates the three systems' execution disciplines over the
//! per-packet primitive costs [`Calibration`] measures on this host.
//! Those entries are [`Entry::Calibrated`]; the rest need no calibration.
//! `results/<name>.txt` holds each entry's captured output.

use crate::calibrate::{copy_ns, nf_service_ns, time_per_iter, Calibration};
use crate::line_rate_pps;
use crate::setups::{
    compile_chain, figure14_structures, fixed_traffic, forced_parallel, forced_sequential,
    merge_spec, EVAL_NFS,
};
use crate::table::{mpps, pct, us, TablePrinter};
use nfp_dataplane::merger::{agent_pick, arrival_from, resolve_and_merge, MergeOutcome};
use nfp_orchestrator::census::{census as pair_census, Weighting};
use nfp_orchestrator::deps::Parallelism;
use nfp_orchestrator::graph::{CopyKind, Segment};
use nfp_orchestrator::modular::{figure15_firewall, figure15_ips, merge};
use nfp_orchestrator::{compile, CompileOptions, IdentifyOptions, Registry};
use nfp_packet::pool::PacketPool;
use nfp_packet::Metadata;
use nfp_policy::Policy;
use nfp_sim::overhead::{datacenter_overhead, resource_overhead, HEADER_COPY_BYTES};
use nfp_sim::queueing::{pipeline_latency, saturation_pps, Stage};
use nfp_sim::{model, overhead};
use nfp_traffic::SizeDistribution;
use std::fmt::{Display, Write as _};

/// An entry's text, built line by line.
#[derive(Debug, Default)]
pub struct Text(String);

impl Text {
    fn line(&mut self, line: impl Display) {
        writeln!(self.0, "{line}").expect("formatting into a String cannot fail");
    }
}

/// How an entry renders its text.
#[derive(Debug, Clone, Copy)]
pub enum Entry {
    /// Needs nothing measured up front.
    Plain(fn(&mut Text)),
    /// Models its rows over the host calibration.
    Calibrated(fn(&mut Text, &Calibration)),
}

impl Entry {
    /// Whether rendering needs the host calibration.
    pub fn is_calibrated(self) -> bool {
        matches!(self, Entry::Calibrated(_))
    }

    /// Render the entry's text. `cal` must be `Some` for a calibrated
    /// entry; a plain one ignores it.
    pub fn render(self, cal: Option<&Calibration>) -> String {
        let mut text = Text::default();
        match self {
            Entry::Plain(f) => f(&mut text),
            Entry::Calibrated(f) => f(
                &mut text,
                cal.expect("calibrated entry without calibration"),
            ),
        }
        text.0
    }
}

/// Every table and figure of the evaluation, by the name `figures` takes.
pub const FIGURES: [(&str, Entry); 13] = [
    ("census", Entry::Plain(census)),
    ("fig7", Entry::Calibrated(fig7)),
    ("fig8", Entry::Calibrated(fig8)),
    ("fig9", Entry::Calibrated(fig9)),
    ("fig11", Entry::Calibrated(fig11)),
    ("fig12", Entry::Calibrated(fig12)),
    ("fig13", Entry::Calibrated(fig13)),
    ("table4", Entry::Calibrated(table4)),
    ("overhead", Entry::Plain(overhead)),
    ("merger_lb", Entry::Calibrated(merger_lb)),
    ("load_latency", Entry::Calibrated(load_latency)),
    ("ablations", Entry::Plain(ablations)),
    ("openbox", Entry::Plain(openbox)),
];

/// The entry called `name`, if there is one.
pub fn lookup(name: &str) -> Option<Entry> {
    FIGURES.iter().find(|(n, _)| *n == name).map(|&(_, e)| e)
}

/// §4.3 — the NF-pair parallelizability census.
///
/// Paper: "53.8% NF pairs can work in parallel. In particular, 41.5% pairs
/// can be parallelized without causing extra resource overhead."
fn census(o: &mut Text) {
    let registry = Registry::paper_table2();
    o.line("== §4.3 census: parallelizability of Table 2 NF pairs ==\n");
    let mut t = TablePrinter::new([
        "weighting",
        "parallelizable",
        "no-copy",
        "with-copy",
        "paper",
    ]);
    for (w, label) in [
        (Weighting::DeploymentShare, "deployment-share"),
        (Weighting::Uniform, "uniform"),
    ] {
        let r = pair_census(&registry, w, IdentifyOptions::default());
        t.row([
            label.to_string(),
            pct(r.parallelizable),
            pct(r.no_copy),
            pct(r.with_copy),
            if w == Weighting::DeploymentShare {
                "53.8% / 41.5% / 12.3%".to_string()
            } else {
                "(not reported)".to_string()
            },
        ]);
    }
    o.line(t.render());

    // OP#1 ablation: what Dirty Memory Reusing buys. (Uniform weighting —
    // the six deployment-weighted NFs happen to contain no different-field
    // read-write pair, so the effect only shows across all eleven rows.)
    let on = pair_census(&registry, Weighting::Uniform, IdentifyOptions::default());
    let off = pair_census(
        &registry,
        Weighting::Uniform,
        IdentifyOptions {
            dirty_memory_reusing: false,
        },
    );
    o.line(format!(
        "\nOP#1 ablation (uniform): Dirty Memory Reusing on: no-copy {} / copy {} \
         -> off: no-copy {} / copy {}",
        pct(on.no_copy),
        pct(on.with_copy),
        pct(off.no_copy),
        pct(off.with_copy)
    ));

    // Per-pair detail for the deployment-weighted census.
    let detail = pair_census(
        &registry,
        Weighting::DeploymentShare,
        IdentifyOptions::default(),
    );
    o.line("\nper-pair verdicts (NF1 ordered before NF2):");
    let mut d = TablePrinter::new(["NF1", "NF2", "verdict", "weight"]);
    for row in &detail.pairs {
        d.row([
            row.nf1.clone(),
            row.nf2.clone(),
            match row.verdict {
                Parallelism::ParallelizableNoCopy => "parallel (no copy)".to_string(),
                Parallelism::ParallelizableWithCopy => "parallel (copy)".to_string(),
                Parallelism::NotParallelizable => "sequential".to_string(),
            },
            format!("{:.3}", row.weight),
        ]);
    }
    o.line(d.render());
}

/// Figure 7 — performance of sequential service chains: NFP must support
/// them "without introducing extra performance overhead compared with …
/// OpenNetVM".
///
/// Paper shape: (a) latency grows linearly with chain length; NFP tracks
/// OpenNetVM with only "a tiny latency overhead" per NF removed — actually
/// NFP is *cheaper* per hop (no centralized switch transit). (b) NFP
/// sustains line rate for all packet sizes while OpenNetVM's rate drops as
/// the chain (and thus the switch's per-packet work) grows.
fn fig7(o: &mut Text, cal: &Calibration) {
    o.line("== Figure 7(a): sequential L3-forwarder chains, 64B packets ==\n");

    let fwd_ns = nf_service_ns("Forwarder", 64);
    let mut t = TablePrinter::new(["chain len", "OpenNetVM us", "NFP us", "paper shape"]);
    for len in 1..=5usize {
        let services = vec![fwd_ns; len];
        let m = cal.model_with_services(services.clone());
        let onvm = model::onvm_latency(&services, &m).total_us();
        let nfp = model::nfp_sequential_latency(&services, &m).total_us();
        t.row([
            len.to_string(),
            us(onvm),
            us(nfp),
            "both linear; NFP <= ONVM".to_string(),
        ]);
    }
    o.line(t.render());

    o.line("\n== Figure 7(b): processing rate vs packet size ==\n");
    let mut t = TablePrinter::new([
        "pkt size",
        "line rate Mpps",
        "NFP (1-5 NFs) Mpps",
        "ONVM 1NF",
        "ONVM 3NF",
        "ONVM 5NF",
    ]);
    for size in [64usize, 128, 256, 512, 1024, 1500] {
        let fwd = nf_service_ns("Forwarder", size);
        let line = line_rate_pps(size);
        // NFP: distributed forwarding; bottleneck is one forwarder stage,
        // independent of chain length (the paper's single flat curve).
        let g = forced_sequential("Forwarder", 5);
        let m = cal.model_with_services(vec![fwd; 5]);
        let nfp = model::nfp_throughput(&g, &m, size.saturating_sub(54), 2).min(line);
        let onvm_at = |n: usize| {
            let services = vec![fwd; n];
            let mdl = cal.model_with_services(services.clone());
            model::onvm_throughput(&services, &mdl).min(line)
        };
        t.row([
            size.to_string(),
            mpps(line),
            mpps(nfp),
            mpps(onvm_at(1)),
            mpps(onvm_at(3)),
            mpps(onvm_at(5)),
        ]);
    }
    o.line(t.render());
    o.line(
        "\npaper shape: NFP achieves line rate at every size regardless of chain\n\
         length; OpenNetVM degrades with chain length (centralized switch serializes\n\
         every hop), most visibly at small packet sizes.",
    );
}

/// Figure 8 — optimization effect per NF type (the six §6.1 NFs,
/// parallelism degree 2, 64B packets), under the Figure 10 setups:
/// sequential, NFP-parallel without copying, NFP-parallel with copying.
///
/// Paper shape: "the latency benefit brought by NF parallelism increases
/// with the rise of NF complexity" — the forwarder gains least, the
/// VPN/IDS most; copying adds only a small constant.
fn fig8(o: &mut Text, cal: &Calibration) {
    o.line("== Figure 8: two instances of each NF, sequential vs parallel (64B) ==\n");

    let mut t = TablePrinter::new([
        "NF",
        "svc us/pkt",
        "ONVM-seq us",
        "NFP-seq us",
        "NFP-par us",
        "NFP-par+copy us",
        "latency cut",
    ]);
    let mut r = TablePrinter::new(["NF", "seq Mpps", "par Mpps", "par+copy Mpps"]);
    for nf in EVAL_NFS {
        // The VPN/IDS operate on payloads; measure at a size that has one.
        let frame = if matches!(nf, "VPN" | "IDS") { 256 } else { 64 };
        let svc = nf_service_ns(nf, frame);
        let services = vec![svc, svc];
        let m = cal.model_with_services(services.clone());
        let onvm_seq = model::onvm_latency(&services, &m).total_us();
        let nfp_seq = model::nfp_sequential_latency(&services, &m).total_us();
        let g_par = forced_parallel(nf, 2, false);
        let g_copy = forced_parallel(nf, 2, true);
        let payload = frame.saturating_sub(54);
        let par = model::nfp_latency(&g_par, &m, payload);
        let copy = model::nfp_latency(&g_copy, &m, payload);
        let cut = (nfp_seq - par.total_us()) / nfp_seq;
        t.row([
            nf.to_string(),
            format!("{:.2}", svc / 1000.0),
            us(onvm_seq),
            us(nfp_seq),
            us(par.total_us()),
            us(copy.total_us()),
            pct(cut),
        ]);
        r.row([
            nf.to_string(),
            mpps(1e9 / (svc + m.hop_ns).max(1.0)), // pipeline bottleneck: one NF stage
            mpps(model::nfp_throughput(&g_par, &m, payload, 2)),
            mpps(model::nfp_throughput(&g_copy, &m, payload, 2)),
        ]);
    }
    o.line(t.render());
    o.line("\nprocessing rate:");
    o.line(r.render());
    o.line(
        "\npaper shape: parallel latency approaches half the sequential latency as NF\n\
         complexity grows (L3 forwarder benefits least, VPN/IDS most); the copy setup\n\
         adds a small constant over the no-copy setup; throughput is NF-bound, so the\n\
         three configurations sustain similar rates.",
    );
}

/// Figure 9 — optimization effect as a function of NF complexity: a
/// firewall that busy-loops for 1–3000 cycles per packet after modifying
/// it (§6.2.2).
///
/// Paper shape: "the forwarding latency optimization effect rises with the
/// increase of NF complexity. For the most complex NF (3000 cycles), NFP
/// brings around 45% latency reduction. … the performance overhead brought
/// by packet copying is minimal."
fn fig9(o: &mut Text, cal: &Calibration) {
    o.line("== Figure 9: Firewall with N busy cycles per packet, degree 2, 64B ==\n");

    let mut t = TablePrinter::new([
        "cycles",
        "svc us",
        "ONVM-seq us",
        "NFP-seq us",
        "NFP-par us",
        "NFP-par+copy us",
        "cut (no copy)",
        "rate par Mpps",
    ]);
    for cycles in [
        1u64, 300, 600, 900, 1200, 1500, 1800, 2100, 2400, 2700, 3000,
    ] {
        let nf = format!("CycleFW:{cycles}");
        let svc = nf_service_ns(&nf, 64);
        let services = vec![svc, svc];
        let m = cal.model_with_services(services.clone());
        let onvm = model::onvm_latency(&services, &m).total_us();
        let nfp_seq = model::nfp_sequential_latency(&services, &m).total_us();
        let g_par = forced_parallel(&nf, 2, false);
        let g_copy = forced_parallel(&nf, 2, true);
        let par = model::nfp_latency(&g_par, &m, 10).total_us();
        let copy = model::nfp_latency(&g_copy, &m, 10).total_us();
        let cut = (nfp_seq - par) / nfp_seq;
        t.row([
            cycles.to_string(),
            format!("{:.2}", svc / 1000.0),
            us(onvm),
            us(nfp_seq),
            us(par),
            us(copy),
            pct(cut),
            mpps(model::nfp_throughput(&g_par, &m, 10, 2)),
        ]);
    }
    o.line(t.render());
    o.line(
        "\npaper shape: the latency cut grows with per-packet cycles toward ~50%\n\
         (paper reports ~45% at 3000 cycles); copy adds a near-constant penalty\n\
         that shrinks in relative terms as the NF gets heavier.",
    );
}

/// Figure 11 — effect of parallelism degree: 2–5 instances of the
/// 300-cycle firewall, sequential vs parallel, with and without copying
/// (64B packets).
///
/// Paper shape: "with the increase of parallelism degree, the latency
/// reduction rises from 33% to 52% for no-copy setups, and up to 32% for
/// copy setups … the latency reduction cannot reach the theoretical value
/// of 80% for 5-degree parallelism — we attribute this to the merging
/// process." Throughput is barely affected. §6.3.2: copying and merging
/// cost ~15 µs on the paper's testbed while still netting ≥20%.
fn fig11(o: &mut Text, cal: &Calibration) {
    o.line("== Figure 11: parallelism degree sweep, CycleFW:300, 64B ==\n");

    let nf = "CycleFW:300";
    let svc = nf_service_ns(nf, 64);
    let mut t = TablePrinter::new([
        "degree",
        "NFP-seq us",
        "NFP-par us",
        "cut",
        "NFP-par+copy us",
        "cut (copy)",
        "theoretical cut",
        "rate par Mpps",
    ]);
    for degree in 2..=5usize {
        let services = vec![svc; degree];
        let m = cal.model_with_services(services.clone());
        let seq = model::nfp_sequential_latency(&services, &m).total_us();
        let g_par = forced_parallel(nf, degree, false);
        let g_copy = forced_parallel(nf, degree, true);
        let par = model::nfp_latency(&g_par, &m, 10).total_us();
        let copy = model::nfp_latency(&g_copy, &m, 10).total_us();
        t.row([
            degree.to_string(),
            us(seq),
            us(par),
            pct((seq - par) / seq),
            us(copy),
            pct((seq - copy) / seq),
            pct(1.0 - 1.0 / degree as f64),
            mpps(model::nfp_throughput(&g_par, &m, 10, 2)),
        ]);
    }
    o.line(t.render());
    o.line(
        "\npaper: cuts 33%→52% (no copy) and ≤32% (copy) for degrees 2→5; the gap to\n\
         the theoretical cut is merging work, which grows with the number of copies\n\
         the merger must collect.",
    );
}

/// Figure 12 — effect of graph structure: the six 4-NF structures of
/// Figure 14 (300-cycle firewalls, 64B packets).
///
/// Paper shape: "a better latency optimization effect for graphs with
/// shorter equivalent chain length" — the fully parallel structure (2)
/// wins; the 1→2→1 structure (equivalent length 3) sees little reduction.
fn fig12(o: &mut Text, cal: &Calibration) {
    o.line("== Figure 12: 4-NF graph structures (Figure 14), CycleFW:300, 64B ==\n");

    let nf = "CycleFW:300";
    let svc = nf_service_ns(nf, 64);
    let m4 = cal.model_with_services(vec![svc; 4]);
    let seq_baseline = model::nfp_sequential_latency(&[svc; 4], &m4).total_us();

    let mut t = TablePrinter::new([
        "structure",
        "equiv len",
        "NFP us",
        "cut vs sequential",
        "rate Mpps",
    ]);
    for (label, graph) in &figure14_structures(nf) {
        let lat = model::nfp_latency(graph, &m4, 10).total_us();
        t.row([
            label.to_string(),
            graph.equivalent_chain_length().to_string(),
            us(lat),
            pct((seq_baseline - lat) / seq_baseline),
            mpps(model::nfp_throughput(graph, &m4, 10, 2)),
        ]);
    }
    o.line(t.render());
    o.line(
        "\npaper: latency ranks by equivalent chain length — structure (2) (length 1)\n\
         enjoys the biggest benefit, 1->2->1 (length 3) the smallest; throughput is\n\
         similar across structures (one NF stage is the bottleneck either way).",
    );
}

/// Figure 13 — real-world service chains with data-center traffic.
///
/// Paper: the **north-south** chain (VPN → Monitor → Firewall → LB)
/// compiles to `VPN -> [Monitor | Firewall] -> LB`: 12.9% latency cut,
/// 0% resource overhead. The **east-west** chain (IDS → Monitor → LB)
/// compiles to `IDS -> [Monitor | LB(copy)]`: 35.9% cut, 8.8% overhead.
fn fig13(o: &mut Text, cal: &Calibration) {
    let mean_frame = SizeDistribution::datacenter().mean().round() as usize;
    o.line(format!(
        "== Figure 13: real-world chains, data-center traffic (mean {mean_frame}B) ==\n"
    ));

    let chains: [(&str, &[&str], f64, f64); 2] = [
        (
            "north-south",
            &["VPN", "Monitor", "Firewall", "LB"],
            0.129,
            0.0,
        ),
        ("east-west", &["IDS", "Monitor", "LB"], 0.359, 0.088),
    ];

    // `pad` emulates the per-NF cost of the paper's substrate (container,
    // vSwitch, full DPDK path) that this bare-metal host does not pay; the
    // second table adds the paper's scale (~50 µs/NF, inferred from its
    // 220–241 µs 3–4-NF chains).
    for (label, pad_ns) in [
        ("bare-host NF costs", 0.0),
        ("containerized-NF emulation (+50us/NF)", 50_000.0),
    ] {
        o.line(format!("--- {label} ---"));
        let mut t = TablePrinter::new([
            "chain",
            "compiled graph",
            "ONVM us",
            "NFP us",
            "cut",
            "paper cut",
            "overhead",
            "paper ovh",
        ]);
        for (name, chain, paper_cut, paper_ovh) in chains {
            let compiled = compile_chain(chain);
            let graph = &compiled.graph;
            let services: Vec<f64> = graph
                .nodes
                .iter()
                .map(|n| nf_service_ns(n.name.as_str(), mean_frame) + pad_ns)
                .collect();
            let m = cal.model_with_services(services.clone());
            // Sequential order = policy chain order.
            let chain_services: Vec<f64> = chain
                .iter()
                .map(|nf| nf_service_ns(nf, mean_frame) + pad_ns)
                .collect();
            let onvm = model::onvm_latency(&chain_services, &m).total_us();
            let nfp = model::nfp_latency(graph, &m, mean_frame - 54).total_us();
            let cut = (onvm - nfp) / onvm;
            // Resource overhead: copies per packet × header bytes / mean size.
            let copies = graph.copies_per_packet();
            let ovh = copies as f64 * overhead::HEADER_COPY_BYTES / mean_frame as f64;
            t.row([
                name.to_string(),
                graph.describe(),
                us(onvm),
                us(nfp),
                pct(cut),
                pct(paper_cut),
                pct(ovh),
                pct(paper_ovh),
            ]);
        }
        o.line(t.render());
        o.line("");
    }
    o.line(
        "\npaper: the north-south chain parallelizes Monitor∥Firewall with zero\n\
         copies; the east-west chain parallelizes Monitor∥LB with one header-only\n\
         copy (8.8% of the mean packet). Our compiled graph structures match the\n\
         paper's exactly; latency cuts depend on this host's relative NF costs.",
    );
}

/// Table 4 — OpenNetVM vs NFP vs BESS for firewall chains of length 1–3
/// ("when the chain length is n, we use n + 2 CPU cores to support each
/// system"), 64B packets.
///
/// Paper shape: BESS (run-to-completion) has the lowest latency and the
/// highest rate (and scales with cores); NFP, running all NFs in parallel,
/// beats OpenNetVM on both metrics.
fn table4(o: &mut Text, cal: &Calibration) {
    o.line("== Table 4: ONVM vs NFP (all-parallel) vs BESS, firewall chains ==\n");

    let fw_ns = nf_service_ns("Firewall", 64);
    let mut t = TablePrinter::new([
        "chain len",
        "cores",
        "ONVM us",
        "NFP us",
        "BESS us",
        "ONVM Mpps",
        "NFP Mpps",
        "BESS Mpps",
    ]);
    for n in 1..=3usize {
        let cores = n + 2;
        let services = vec![fw_ns; n];
        let m = cal.model_with_services(services.clone());
        let onvm_lat = model::onvm_latency(&services, &m).total_us();
        let bess_lat = model::rtc_latency(&services, &m).total_us();
        let (nfp_lat, nfp_rate) = if n == 1 {
            (
                model::nfp_sequential_latency(&services, &m).total_us(),
                1e9 / (fw_ns + m.hop_ns),
            )
        } else {
            // "We enable NFP to run all NFs in parallel for the highest
            // performance" — the drop conflicts are operator-sanctioned
            // via Priority rules, compiled here as a forced group.
            let g = forced_parallel("Firewall", n, false);
            (
                model::nfp_latency(&g, &m, 10).total_us(),
                model::nfp_throughput(&g, &m, 10, 1),
            )
        };
        // BESS duplicates the whole chain per core and RSS-splits traffic.
        let bess_rate = model::rtc_throughput(&services, &m, cores);
        let onvm_rate = model::onvm_throughput(&services, &m);
        t.row([
            n.to_string(),
            cores.to_string(),
            us(onvm_lat),
            us(nfp_lat),
            us(bess_lat),
            mpps(onvm_rate),
            mpps(nfp_rate),
            mpps(bess_rate),
        ]);
    }
    o.line(t.render());
    o.line(
        "\npaper (their testbed): latency ONVM 25/33/47, NFP 23/27/31, BESS ~11.3-11.4 us;\n\
         rate ONVM ~9.4, NFP ~10.9, BESS 14.7 Mpps (NIC-limited). Expected ordering:\n\
         BESS < NFP < ONVM in latency; BESS > NFP > ONVM in rate. RTC wins by paying\n\
         no inter-NF hops at all, but scales out only by duplicating whole chains.",
    );
}

/// §6.3.1 — resource overhead of packet copying.
///
/// Paper: `ro = 64 × (d − 1) / s`; with the data-center packet-size
/// distribution (mean ≈ 724B), `ro = 0.088 × (d − 1)` — "only 8.8% for
/// the parallelism degree of 2, while achieving 30% latency reduction".
fn overhead(o: &mut Text) {
    o.line("== §6.3.1: resource overhead ro = 64·(d−1)/s ==\n");
    let mut t = TablePrinter::new(["pkt size", "d=2", "d=3", "d=4", "d=5"]);
    for size in [64usize, 128, 256, 512, 724, 1024, 1500] {
        t.row([
            size.to_string(),
            pct(resource_overhead(size, 2)),
            pct(resource_overhead(size, 3)),
            pct(resource_overhead(size, 4)),
            pct(resource_overhead(size, 5)),
        ]);
    }
    o.line(t.render());

    let dist = SizeDistribution::datacenter();
    o.line(format!(
        "\ndata-center mix (mean {:.0}B): ro = {:.3} × (d−1)",
        dist.mean(),
        datacenter_overhead(2)
    ));
    let mut t = TablePrinter::new(["degree", "overhead", "paper"]);
    for d in 2..=5usize {
        t.row([
            d.to_string(),
            pct(datacenter_overhead(d)),
            pct(0.088 * (d as f64 - 1.0)),
        ]);
    }
    o.line(t.render());
    o.line("\npaper coefficient: 0.088 (64 / 724).");
}

/// §6.3.3 — merger load balancing.
///
/// Paper: "one merger instance can handle 10.7 Mpps processing rate with
/// no packet loss … for packets of any size, two merger instances are
/// sufficient to support full speed packet processing with the parallelism
/// degree of up to 5."
///
/// Here we measure a merger instance's real peak merge rate on this host
/// (degree 2, no ops — the paper's firewall setup), verify the agent's
/// PID-hash spreads load evenly, and compute how many instances each
/// parallelism degree needs to keep up with the NF stages.
fn merger_lb(o: &mut Text, cal: &Calibration) {
    o.line("== §6.3.3: merger instance capacity and load balancing ==\n");

    // Peak single-instance merge rate per degree.
    let mut t = TablePrinter::new([
        "degree",
        "merge ns/pkt",
        "1 instance Mpps",
        "instances for FW-speed",
    ]);
    let fw_ns = nf_service_ns("Firewall", 64);
    for degree in 2..=5usize {
        let spec = merge_spec(degree, 0);
        let pool = PacketPool::new(16);
        let mut tmpl = fixed_traffic(1, 64).pop().unwrap();
        tmpl.set_meta(Metadata::new(1, 1, 1));
        let per_merge_ns = time_per_iter(20_000, || {
            let v1 = pool.insert(tmpl.clone()).unwrap();
            for _ in 1..degree {
                pool.retain(v1);
            }
            let arrivals: Vec<_> = (0..degree).map(|_| arrival_from(&pool, v1)).collect();
            match resolve_and_merge(&spec, &arrivals, &pool).unwrap() {
                MergeOutcome::Forward(r) => pool.release(r),
                MergeOutcome::Dropped => {}
            }
        });
        let rate = 1e9 / per_merge_ns;
        // An NF stage emits one packet per (service + hop); the merger must
        // absorb `degree` arrivals per packet.
        let nf_rate = 1e9 / (fw_ns + cal.hop_ns);
        let needed = (nf_rate / rate).ceil().max(1.0) as usize;
        t.row([
            degree.to_string(),
            format!("{per_merge_ns:.0}"),
            mpps(rate),
            needed.to_string(),
        ]);
    }
    o.line(t.render());
    o.line("\npaper: one instance handles 10.7 Mpps; two instances suffice up to degree 5.");

    // Agent load-balance quality.
    o.line("\nmerger agent PID-hash distribution over 100k packets, 2 instances:");
    let mut counts = [0u64; 2];
    for pid in 0..100_000u64 {
        counts[agent_pick(pid, 2)] += 1;
    }
    let skew = (counts[0] as f64 - counts[1] as f64).abs() / 100_000.0;
    o.line(format!(
        "  instance 0: {}  instance 1: {}  (skew {:.2}%)",
        counts[0],
        counts[1],
        skew * 100.0
    ));
    o.line("  all copies of one PID always hash to the same instance by construction.");
}

/// Latency vs offered load — the §5 centralized-switch hot-spot argument,
/// quantified: as load rises, OpenNetVM's switch (which serves every hop
/// of every packet) saturates first and its queueing delay explodes, while
/// NFP's distributed runtimes keep every stage lightly loaded.
fn load_latency(o: &mut Text, cal: &Calibration) {
    o.line("== latency vs offered load: 3-firewall chain, NFP vs ONVM ==\n");

    let fw_s = nf_service_ns("Firewall", 64) / 1e9;
    let hop_s = cal.hop_ns / 1e9;
    let switch_s = cal.switch_ns / 1e9;
    let n = 3usize;

    let nf_stage = Stage {
        service_s: fw_s + hop_s,
        visits: 1.0,
    };
    let switch_stage = Stage {
        service_s: switch_s,
        visits: (n + 1) as f64,
    };
    let nfp: Vec<Stage> = vec![nf_stage; n];
    let onvm: Vec<Stage> = {
        let mut v = vec![nf_stage; n];
        v.push(switch_stage);
        v
    };

    o.line(format!(
        "saturation: NFP {:.2} Mpps, ONVM {:.2} Mpps (switch-bound)\n",
        saturation_pps(&nfp) / 1e6,
        saturation_pps(&onvm) / 1e6
    ));

    let onvm_sat = saturation_pps(&onvm);
    let mut t = TablePrinter::new(["offered Mpps", "NFP us", "ONVM us"]);
    for frac in [0.1, 0.3, 0.5, 0.7, 0.8, 0.9, 0.95, 0.99, 1.05] {
        let rate = onvm_sat * frac;
        let fmt = |l: Option<f64>| match l {
            Some(v) => format!("{:.1}", v * 1e6),
            None => "saturated".to_string(),
        };
        t.row([
            format!("{:.2}", rate / 1e6),
            fmt(pipeline_latency(&nfp, rate)),
            fmt(pipeline_latency(&onvm, rate)),
        ]);
    }
    o.line(t.render());
    o.line(
        "\nshape: ONVM's latency diverges as load approaches its switch-bound\n\
         saturation while NFP stays near its zero-load latency — the paper's\n\
         'packet queuing in this centralized switch would compromise the\n\
         performance' argument (§5), and the Ananta 200µs–1ms citation (§1).",
    );
}

/// Ablations of the paper's two resource optimizations (§4.2):
///
/// * **OP#1 Dirty Memory Reusing** — off: every read-write / write-write
///   pair forces a copy even when the fields differ. Measured as the share
///   of parallelizable NF pairs that keep zero-copy, and the copies per
///   packet on the real-world chains.
/// * **OP#2 Header-Only Copying** — off: copies carry the whole packet.
///   Measured as copy cost and resource overhead at data-center sizes.
fn ablations(o: &mut Text) {
    o.line("== Ablation 1: OP#1 Dirty Memory Reusing ==\n");
    let reg = Registry::evaluated();
    let mut t = TablePrinter::new(["census (uniform)", "no-copy share", "copy share"]);
    for (label, op1) in [("OP#1 on", true), ("OP#1 off", false)] {
        let r = pair_census(
            &reg,
            Weighting::Uniform,
            IdentifyOptions {
                dirty_memory_reusing: op1,
            },
        );
        t.row([label.to_string(), pct(r.no_copy), pct(r.with_copy)]);
    }
    o.line(t.render());

    o.line("\ncopies per packet on compiled chains:");
    let mut t = TablePrinter::new(["chain", "OP#1 on", "OP#1 off"]);
    for chain in [
        &["VPN", "Monitor", "Firewall", "LB"][..],
        &["IDS", "Monitor", "LB"][..],
        &["Monitor", "Forwarder"][..], // disjoint-field writer beside a reader
    ] {
        let copies = |op1: bool| {
            compile(
                &Policy::from_chain(chain.iter().copied()),
                &reg,
                &[],
                &CompileOptions {
                    identify: IdentifyOptions {
                        dirty_memory_reusing: op1,
                    },
                    ..CompileOptions::default()
                },
            )
            .unwrap()
            .graph
            .copies_per_packet()
        };
        t.row([
            format!("{chain:?}"),
            copies(true).to_string(),
            copies(false).to_string(),
        ]);
    }
    o.line(t.render());

    o.line("\n== Ablation 2: OP#2 Header-Only Copying ==\n");
    // Measured copy cost, header-only vs full, across packet sizes.
    let mut t = TablePrinter::new([
        "frame bytes",
        "header-only ns",
        "full copy ns",
        "mem overhead OP#2",
        "mem overhead full",
    ]);
    for frame in [64usize, 256, 724, 1400] {
        let (header_ns, full_ns) = copy_ns(frame);
        t.row([
            frame.to_string(),
            format!("{header_ns:.0}"),
            format!("{full_ns:.0}"),
            pct(HEADER_COPY_BYTES / frame as f64),
            pct(1.0),
        ]);
    }
    o.line(t.render());

    // What the east-west chain would cost with full copies.
    let compiled = compile_chain(&["IDS", "Monitor", "LB"]);
    let mean = SizeDistribution::datacenter().mean();
    let copies = compiled.graph.copies_per_packet() as f64;
    o.line(format!(
        "\neast-west chain, data-center mix: OP#2 overhead {} vs full-copy overhead {}",
        pct(copies * HEADER_COPY_BYTES / mean),
        pct(copies)
    ));
    // Sanity: the compiled copy is header-only because the LB touches no
    // payload.
    let kinds: Vec<CopyKind> = compiled
        .graph
        .segments
        .iter()
        .flat_map(|s| match s {
            Segment::Parallel(g) => g.members.iter().map(|m| m.copy).collect::<Vec<_>>(),
            _ => vec![],
        })
        .filter(|k| *k != CopyKind::None)
        .collect();
    o.line(format!("compiled copy kinds: {kinds:?}"));
    o.line(
        "\npaper: OP#1 turns 12.3pp of would-be-copy pairs into zero-copy sharing;\n\
         OP#2 fixes copy overhead at 64B regardless of packet size (8.8% of the\n\
         724B data-center mean instead of 100%).",
    );
}

/// Figure 15 / §7 — combining parallelism and modularity: the
/// OpenBox+NFP block-level graph merge of a modular firewall and IPS.
fn openbox(o: &mut Text) {
    o.line("== Figure 15: OpenBox + NFP block-level parallelism ==\n");
    let fw = figure15_firewall();
    let ips = figure15_ips();
    let merged = merge(&fw, &ips, IdentifyOptions::default());

    o.line(format!(
        "firewall blocks: {:?}",
        fw.blocks.iter().map(|b| &b.name).collect::<Vec<_>>()
    ));
    o.line(format!(
        "IPS blocks:      {:?}",
        ips.blocks.iter().map(|b| &b.name).collect::<Vec<_>>()
    ));
    o.line("");

    let mut t = TablePrinter::new(["stage", "blocks", "shared"]);
    for (i, stage) in merged.stages.iter().enumerate() {
        t.row([
            (i + 1).to_string(),
            stage.blocks.join(" | "),
            if stage.shared { "yes" } else { "" }.to_string(),
        ]);
    }
    o.line(t.render());

    o.line(format!("\npipeline depth: {} sequential -> {} shared (OpenBox) -> {} shared+parallel (OpenBox+NFP)",
        merged.sequential_depth, merged.shared_depth, merged.parallel_depth));
    o.line(
        "paper: the merged graph shares ReadPackets/HeaderClassifier and runs the\n\
         firewall's Alert beside the IPS's DPI, shortening the block pipeline further.",
    );
}
