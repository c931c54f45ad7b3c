//! Shared experiment setup: NF instantiation, compiled and hand-forced
//! service graphs, traffic.

use nfp_nf::cycles::{CycleBurner, CycleFirewall};
use nfp_nf::firewall::Firewall;
use nfp_nf::forwarder::L3Forwarder;
use nfp_nf::ids::{Ids, IdsMode};
use nfp_nf::lb::LoadBalancer;
use nfp_nf::monitor::Monitor;
use nfp_nf::vpn::{Vpn, VpnMode};
use nfp_nf::NetworkFunction;
use nfp_orchestrator::graph::{
    CopyKind, GraphNode, Member, MergeOp, ParallelGroup, Segment, ServiceGraph,
};
use nfp_orchestrator::tables::{FtAction, MemberSpec, MergeSpec};
use nfp_orchestrator::{compile, ActionProfile, CompileOptions, FailurePolicy, Registry};
use nfp_packet::{FieldId, Packet};
use nfp_policy::{NfName, Policy};

/// The six evaluated NF types of §6.1 (display order of Figure 8).
pub const EVAL_NFS: [&str; 6] = ["Forwarder", "LB", "Firewall", "Monitor", "VPN", "IDS"];

/// Instantiate an evaluated NF by type name. `CycleFW:<n>` and
/// `Burner:<n>` give the Figure 9/11 complexity-knob NFs.
pub fn make_nf(name: &str) -> Box<dyn NetworkFunction> {
    if let Some(cycles) = name.strip_prefix("CycleFW:") {
        return Box::new(CycleFirewall::new(
            name.to_string(),
            cycles.parse().unwrap(),
        ));
    }
    if let Some(cycles) = name.strip_prefix("Burner:") {
        return Box::new(CycleBurner::new(name.to_string(), cycles.parse().unwrap()));
    }
    match name {
        "Forwarder" => Box::new(L3Forwarder::with_uniform_table(name, 1000)),
        "LB" | "LoadBalancer" => Box::new(LoadBalancer::with_uniform_backends(name, 8)),
        "Firewall" => Box::new(Firewall::with_synthetic_acl(name, 100)),
        "Monitor" => Box::new(Monitor::new(name)),
        "VPN" => Box::new(Vpn::new(name, [0x42; 16], 0x1001, VpnMode::Encapsulate)),
        "IDS" => Box::new(Ids::with_synthetic_signatures(name, 100, IdsMode::Inline)),
        "NIDS" => Box::new(Ids::with_synthetic_signatures(name, 100, IdsMode::Passive)),
        other => panic!("unknown NF type `{other}`"),
    }
}

/// The registry the experiments compile against: paper Table 2 plus the
/// instance-name aliases used in §6 (the evaluated IDS is inline, i.e.
/// drop-capable — that is what keeps it sequential in the east-west graph).
pub fn eval_registry() -> Registry {
    let mut r = Registry::paper_table2();
    // The forwarder decrements the TTL and drops on expiry.
    let mut fwd = ActionProfile::new("Forwarder")
        .reads([FieldId::Dip, FieldId::Ttl])
        .writes([FieldId::Dmac, FieldId::Smac, FieldId::Ttl])
        .drops();
    fwd.nf_type = "Forwarder".into();
    r.register(fwd);
    let mut lb = r.get("LoadBalancer").unwrap().clone();
    lb.nf_type = "LB".into();
    r.register(lb);
    let mut ids = r.get("NIDS").unwrap().clone().drops();
    ids.nf_type = "IDS".into();
    r.register(ids);
    r
}

/// A factory for `graph`'s NFs, one per node, instantiated by node name:
/// call it once per engine, or hand it to a fleet to call per replica.
pub fn nf_factory(
    graph: &ServiceGraph,
) -> impl Fn() -> Vec<Box<dyn NetworkFunction>> + Clone + Send + 'static {
    let names: Vec<String> = graph.nodes.iter().map(|n| n.name.to_string()).collect();
    move || names.iter().map(|n| make_nf(n)).collect()
}

/// Compile a chain policy with the evaluation registry.
pub fn compile_chain(chain: &[&str]) -> nfp_orchestrator::Compiled {
    compile(
        &Policy::from_chain(chain.iter().copied()),
        &eval_registry(),
        &[],
        &CompileOptions::default(),
    )
    .expect("evaluation chain compiles")
}

fn node(name: &str, profile: ActionProfile) -> GraphNode {
    GraphNode {
        name: NfName::new(name),
        profile,
    }
}

/// Hand-forced parallel graph of `degree` instances of one NF type — the
/// Figure 10 experimental setups: the paper *forces* same-NF parallelism
/// (with or without copying) to isolate the mechanism cost, independent of
/// what the compiler would decide.
pub fn forced_parallel(nf_type: &str, degree: usize, with_copy: bool) -> ServiceGraph {
    assert!(degree >= 2);
    let profile = ActionProfile::new(nf_type);
    let nodes: Vec<GraphNode> = (0..degree)
        .map(|i| node(&format!("{nf_type}#{i}"), profile.clone()))
        .collect();
    let members = (0..degree)
        .map(|i| {
            let mut m = Member::solo(i);
            m.priority = i as u32;
            if with_copy && i > 0 {
                m.version = (i + 1) as u8;
                m.copy = CopyKind::HeaderOnly;
                // Representative merge work: fold one header field per copy.
                m.merge_ops = vec![MergeOp::Modify {
                    field: FieldId::Tos,
                    from_version: m.version,
                }];
            }
            m
        })
        .collect();
    ServiceGraph {
        nodes,
        segments: vec![Segment::Parallel(ParallelGroup { members })],
    }
}

/// The merge spec a merger instance resolves for a `degree`-way parallel
/// segment: no drop-capable member, member `i` at priority `i`. Without
/// `ops` every member shares the original (the paper's no-copy firewall
/// setup); otherwise member 1 works on copy v2, and each of the `ops`
/// merge operations folds its Tos back into v1.
pub fn merge_spec(degree: usize, ops: usize) -> MergeSpec {
    MergeSpec {
        segment: 0,
        total_count: degree,
        ops: (0..ops)
            .map(|_| MergeOp::Modify {
                field: FieldId::Tos,
                from_version: 2,
            })
            .collect(),
        members: (0..degree)
            .map(|i| MemberSpec {
                version: if ops > 0 && i == 1 { 2 } else { 1 },
                priority: i as u32,
                drop_capable: false,
                on_failure: FailurePolicy::FailOpen,
                stateful: false,
            })
            .collect(),
        next: vec![FtAction::Output { version: 1 }],
    }
}

/// Hand-forced sequential chain of `len` instances of one NF type.
pub fn forced_sequential(nf_type: &str, len: usize) -> ServiceGraph {
    let profile = ActionProfile::new(nf_type);
    let nodes: Vec<GraphNode> = (0..len)
        .map(|i| node(&format!("{nf_type}#{i}"), profile.clone()))
        .collect();
    let segments = (0..len).map(Segment::Sequential).collect();
    ServiceGraph { nodes, segments }
}

/// The six 4-NF graph structures of Figure 14. Returns `(label,
/// ServiceGraph)` per structure; all nodes are instances of `nf_type`.
pub fn figure14_structures(nf_type: &str) -> Vec<(&'static str, ServiceGraph)> {
    let profile = ActionProfile::new(nf_type);
    let nodes = |n: usize| -> Vec<GraphNode> {
        (0..n)
            .map(|i| node(&format!("{nf_type}#{i}"), profile.clone()))
            .collect()
    };
    let par = |ids: &[usize]| -> Segment {
        Segment::Parallel(ParallelGroup {
            members: ids
                .iter()
                .enumerate()
                .map(|(rank, &i)| {
                    let mut m = Member::solo(i);
                    m.priority = rank as u32;
                    m
                })
                .collect(),
        })
    };
    vec![
        (
            "(1) sequential",
            ServiceGraph {
                nodes: nodes(4),
                segments: (0..4).map(Segment::Sequential).collect(),
            },
        ),
        (
            "(2) 1|1|1|1",
            ServiceGraph {
                nodes: nodes(4),
                segments: vec![par(&[0, 1, 2, 3])],
            },
        ),
        (
            "(3) 1->3",
            ServiceGraph {
                nodes: nodes(4),
                segments: vec![Segment::Sequential(0), par(&[1, 2, 3])],
            },
        ),
        (
            "(4) 1->2->1",
            ServiceGraph {
                nodes: nodes(4),
                segments: vec![Segment::Sequential(0), par(&[1, 2]), Segment::Sequential(3)],
            },
        ),
        (
            "(5) 3->1",
            ServiceGraph {
                nodes: nodes(4),
                segments: vec![par(&[0, 1, 2]), Segment::Sequential(3)],
            },
        ),
        (
            "(6) 2->2",
            ServiceGraph {
                nodes: nodes(4),
                segments: vec![par(&[0, 1]), par(&[2, 3])],
            },
        ),
    ]
}

/// Test traffic with `frame` byte packets.
pub fn fixed_traffic(n: usize, frame: usize) -> Vec<Packet> {
    nfp_traffic::TrafficGenerator::new(nfp_traffic::TrafficSpec {
        flows: 32,
        sizes: nfp_traffic::SizeDistribution::Fixed(frame),
        ..nfp_traffic::TrafficSpec::default()
    })
    .batch(n)
}

/// Data-center-mix traffic (Benson et al. sizes), as used in §6.4.
pub fn datacenter_traffic(n: usize) -> Vec<Packet> {
    nfp_traffic::TrafficGenerator::new(nfp_traffic::TrafficSpec {
        flows: 64,
        sizes: nfp_traffic::SizeDistribution::datacenter(),
        ..nfp_traffic::TrafficSpec::default()
    })
    .batch(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forced_graphs_validate() {
        for d in 2..=5 {
            forced_parallel("Firewall", d, false).validate().unwrap();
            forced_parallel("Firewall", d, true).validate().unwrap();
        }
        forced_sequential("Forwarder", 5).validate().unwrap();
    }

    #[test]
    fn figure14_lengths() {
        let lengths: Vec<usize> = figure14_structures("X")
            .iter()
            .map(|(_, g)| {
                g.validate().unwrap();
                g.equivalent_chain_length()
            })
            .collect();
        assert_eq!(lengths, vec![4, 1, 2, 3, 2, 2]);
    }

    #[test]
    fn every_eval_nf_instantiates() {
        for nf in EVAL_NFS {
            let b = make_nf(nf);
            assert_eq!(b.name(), nf);
        }
        assert!(make_nf("CycleFW:300").name().contains("300"));
    }

    #[test]
    fn eval_chains_compile() {
        assert_eq!(
            compile_chain(&["VPN", "Monitor", "Firewall", "LB"])
                .graph
                .equivalent_chain_length(),
            3
        );
        assert_eq!(
            compile_chain(&["IDS", "Monitor", "LB"])
                .graph
                .equivalent_chain_length(),
            2
        );
    }
}
