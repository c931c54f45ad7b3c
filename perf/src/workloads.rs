//! The four workloads: which chain, which traffic, and why.
//!
//! Names are fixed — later issues cite them. Each stresses a different
//! layer, so that an optimisation has one workload that exercises its
//! mechanism and at least one that bypasses it.

use nfp_io::pcap::{read_pcap_bytes, write_pcap_bytes, PcapFormat};
use nfp_io::trace::{build_golden_records, GoldenTraceSpec};
use nfp_nf::firewall::Firewall;
use nfp_nf::forwarder::L3Forwarder;
use nfp_nf::ids::{Ids, IdsMode};
use nfp_nf::lb::LoadBalancer;
use nfp_nf::monitor::Monitor;
use nfp_nf::vpn::{Vpn, VpnMode};
use nfp_nf::NetworkFunction;
use nfp_orchestrator::graph::{GraphNode, Segment, ServiceGraph};
use nfp_orchestrator::{compile, ActionProfile, CompileOptions, Program, Registry};
use nfp_packet::{FieldId, Packet};
use nfp_policy::{parse_policy, NfName};
use nfp_traffic::{SizeDistribution, TrafficGenerator, TrafficSpec};

/// Packets per timed trial. Fixed, so a trial is the same work on every
/// run and commit; 16 Ki packets × the 2 KiB packet buffer keeps the
/// harness's own template + working copy at 64 MiB.
pub const TRIAL_PACKETS: usize = 16_384;

/// Packets of each workload the correctness gate replays.
pub const GATE_PACKETS: usize = 5_000;

/// What the engines are fed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TrafficKind {
    /// Generator frames of one fixed size over `flows` flows.
    Fixed { frame: usize, flows: usize },
    /// The Benson data-centre size mix over `flows` flows.
    Datacenter { flows: usize },
    /// The seeded golden trace (malformed and snaplen-cut records mixed
    /// in) as pcap bytes, entering through `run_io`.
    ReplayMixed,
}

/// One benchmark workload.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    /// One line: why this workload exists.
    pub why: &'static str,
    /// The sequential chain (the order `RunToCompletion` runs it in).
    pub chain: &'static [&'static str],
    /// Policy text the chain is compiled from; `None` = hand-built
    /// sequential graph, no compiler involved.
    pub policy: Option<&'static str>,
    /// `ServiceGraph::describe()` of the graph the engines execute.
    pub shape: &'static str,
    pub traffic: TrafficKind,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "seq3_64b",
        why: "3 forwarders in sequence at 64 B (Fig 7): no copy or merge, so ring hops, classifier, pool and scheduling dominate",
        chain: &["Forwarder#0", "Forwarder#1", "Forwarder#2"],
        policy: None,
        shape: "Forwarder#0 -> Forwarder#1 -> Forwarder#2",
        traffic: TrafficKind::Fixed { frame: 64, flows: 32 },
    },
    Workload {
        name: "ew_64b",
        why: "east-west IDS->Monitor->LB at 64 B (Fig 13): one header copy and one merge per packet, light NFs, so copy/merge/agent cost shows",
        chain: &["IDS", "Monitor", "LB"],
        policy: Some("# east-west chain\nOrder(IDS, before, Monitor)\nOrder(Monitor, before, LB)\n"),
        shape: "IDS -> [Monitor | LB(v2)]",
        traffic: TrafficKind::Fixed { frame: 64, flows: 32 },
    },
    Workload {
        name: "ns_dc",
        why: "north-south VPN->Monitor->Firewall->LB on the data-centre size mix, 4096 flows (Fig 13): AES per byte dominates, framework work must not show",
        chain: &["VPN", "Monitor", "Firewall", "LB"],
        policy: Some("# north-south chain\nOrder(VPN, before, Monitor)\nOrder(Monitor, before, Firewall)\nOrder(Firewall, before, LB)\n"),
        shape: "VPN -> [Monitor | Firewall] -> LB",
        traffic: TrafficKind::Datacenter { flows: 4096 },
    },
    Workload {
        name: "replay_mixed",
        why: "golden mixed pcap through run_io on Monitor->Firewall: streaming entry, classifier reject path, drop taxonomy, codec and run_io buffering",
        chain: &["Monitor", "Firewall"],
        policy: Some("# replay chain\nOrder(Monitor, before, Firewall)\n"),
        shape: "[Monitor | Firewall]",
        traffic: TrafficKind::ReplayMixed,
    },
];

/// Look a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Instantiate an evaluated NF by instance name (`Forwarder#1` is a
/// `Forwarder`). The paper's six §6.1 NF types with the parameters every
/// other bench in this repo uses; copied here so the benchmark does not
/// move when `nfp-bench` is edited.
pub fn make_nf(name: &str) -> Box<dyn NetworkFunction> {
    match name.split('#').next().unwrap_or(name) {
        "Forwarder" => Box::new(L3Forwarder::with_uniform_table(name, 1000)),
        "LB" => Box::new(LoadBalancer::with_uniform_backends(name, 8)),
        "Firewall" => Box::new(Firewall::with_synthetic_acl(name, 100)),
        "Monitor" => Box::new(Monitor::new(name)),
        "VPN" => Box::new(Vpn::new(name, [0x42; 16], 0x1001, VpnMode::Encapsulate)),
        "IDS" => Box::new(Ids::with_synthetic_signatures(name, 100, IdsMode::Inline)),
        other => panic!("unknown NF type `{other}`"),
    }
}

/// One NF instance per name, in order.
pub fn make_nfs(names: &[String]) -> Vec<Box<dyn NetworkFunction>> {
    names.iter().map(|n| make_nf(n)).collect()
}

fn forwarder_profile() -> ActionProfile {
    let mut fwd = ActionProfile::new("Forwarder")
        .reads([FieldId::Dip])
        .writes([FieldId::Dmac, FieldId::Smac, FieldId::Ttl]);
    fwd.nf_type = "Forwarder".into();
    fwd
}

/// The registry the policies compile against: paper Table 2 plus the §6
/// instance-name aliases (the evaluated IDS is inline, i.e. drop-capable —
/// that is what keeps it sequential in the east-west graph).
pub fn eval_registry() -> Registry {
    let mut r = Registry::paper_table2();
    r.register(forwarder_profile());
    let mut lb = r.get("LoadBalancer").expect("Table 2 row").clone();
    lb.nf_type = "LB".into();
    r.register(lb);
    let mut ids = r.get("NIDS").expect("Table 2 row").clone().drops();
    ids.nf_type = "IDS".into();
    r.register(ids);
    r
}

impl Workload {
    /// The service graph the engines execute: the hand-built sequential
    /// chain, or `policy` text parsed and compiled against `registry`.
    pub fn graph(&self, registry: &Registry) -> ServiceGraph {
        match self.policy {
            None => ServiceGraph {
                nodes: self
                    .chain
                    .iter()
                    .map(|name| GraphNode {
                        name: NfName::new(*name),
                        profile: forwarder_profile(),
                    })
                    .collect(),
                segments: (0..self.chain.len()).map(Segment::Sequential).collect(),
            },
            Some(text) => {
                let policy = parse_policy(text).expect("workload policy parses");
                compile(&policy, registry, &[], &CompileOptions::default())
                    .expect("workload policy compiles")
                    .graph
            }
        }
    }

    /// Graph → sealed program, plus the NF instance names by `NodeId`.
    pub fn program(&self, registry: &Registry) -> (ServiceGraph, Program, Vec<String>) {
        let graph = self.graph(registry);
        let program = Program::compile(&graph, 1).expect("workload program seals");
        let names: Vec<String> = program.nf_names().to_vec();
        assert!(
            names
                .iter()
                .map(String::as_str)
                .eq(self.chain.iter().copied()),
            "NodeId order must equal chain order so one NF list serves RTC and the engines"
        );
        (graph, program, names)
    }

    /// Generate `n` packets (or records) of this workload's traffic from
    /// `seed`. The same seed gives the same bytes.
    pub fn traffic(&self, seed: u64, n: usize) -> Input {
        match self.traffic {
            TrafficKind::Fixed { frame, flows } => Input::Packets(shuffled(
                generate(SizeDistribution::Fixed(frame), flows, seed, n),
                seed,
            )),
            TrafficKind::Datacenter { flows } => Input::Packets(shuffled(
                generate(SizeDistribution::datacenter(), flows, seed, n),
                seed,
            )),
            TrafficKind::ReplayMixed => {
                let spec = GoldenTraceSpec {
                    packets: n,
                    ..GoldenTraceSpec::mixed(seed)
                };
                Input::Pcap(write_pcap_bytes(
                    &build_golden_records(&spec),
                    PcapFormat::default(),
                ))
            }
        }
    }
}

fn generate(sizes: SizeDistribution, flows: usize, seed: u64, n: usize) -> Vec<Packet> {
    TrafficGenerator::new(TrafficSpec {
        flows,
        sizes,
        seed,
        ..TrafficSpec::default()
    })
    .batch(n)
}

/// SplitMix64 — the harness's own stream, so the generator's fixed-size
/// round-robin output (which ignores its seed) still varies with `--seed`.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Seeded Fisher–Yates: flows arrive interleaved in a seed-dependent
/// order instead of strict round-robin.
fn shuffled(mut pkts: Vec<Packet>, seed: u64) -> Vec<Packet> {
    let mut rng = SplitMix64(seed ^ 0x5EED_0F7E_57AB);
    for i in (1..pkts.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        pkts.swap(i, j);
    }
    pkts
}

/// Generated traffic: in-memory packets, or pcap bytes for the replay
/// workload. Traffic never crosses a link or the loopback interface.
pub enum Input {
    Packets(Vec<Packet>),
    Pcap(Vec<u8>),
}

impl Input {
    /// Packets (or pcap records) in the input.
    pub fn len(&self) -> usize {
        match self {
            Input::Packets(p) => p.len(),
            Input::Pcap(bytes) => read_pcap_bytes(bytes).expect("own pcap parses").len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// FNV-1a over every frame byte (or the pcap stream).
    pub fn hash(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        match self {
            Input::Packets(pkts) => pkts.iter().for_each(|p| eat(p.data())),
            Input::Pcap(bytes) => eat(bytes),
        }
        h
    }

    /// The frames as packets — for the replay workload, the records as
    /// the pcap ingress would hand them to an engine.
    pub fn packets(&self) -> Vec<Packet> {
        match self {
            Input::Packets(p) => p.clone(),
            Input::Pcap(bytes) => read_pcap_bytes(bytes)
                .expect("own pcap parses")
                .iter()
                .map(|r| nfp_io::backends::packet_from_record(r).expect("record fits a packet"))
                .collect(),
        }
    }

    /// Mean frame length in bytes.
    pub fn mean_frame(&self) -> f64 {
        let lens: Vec<usize> = match self {
            Input::Packets(pkts) => pkts.iter().map(Packet::len).collect(),
            Input::Pcap(bytes) => read_pcap_bytes(bytes)
                .expect("own pcap parses")
                .iter()
                .map(|r| r.data.len())
                .collect(),
        };
        lens.iter().sum::<usize>() as f64 / lens.len().max(1) as f64
    }
}
