//! Shared experiment setup: NF instantiation, compiled and hand-forced
//! service graphs, traffic.

use nfp_nf::{catalogue, NetworkFunction};
use nfp_orchestrator::graph::{
    CopyKind, GraphNode, Member, MergeOp, ParallelGroup, Segment, ServiceGraph,
};
use nfp_orchestrator::tables::{FtAction, MemberSpec, MergeSpec};
use nfp_orchestrator::{compile, ActionProfile, CompileOptions, FailurePolicy, Registry};
use nfp_packet::{FieldId, Packet};
use nfp_policy::{NfName, Policy};

/// The six evaluated NF types of §6.1 (display order of Figure 8).
pub(crate) const EVAL_NFS: [&str; 6] = ["Forwarder", "LB", "Firewall", "Monitor", "VPN", "IDS"];

/// A factory for `graph`'s NFs, one per node, built by the catalogue
/// from the node name: call it once per engine, or hand it to a fleet to
/// call per replica.
pub fn nf_factory(
    graph: &ServiceGraph,
) -> impl Fn() -> Vec<Box<dyn NetworkFunction>> + Clone + Send + 'static {
    let names: Vec<String> = graph.nodes.iter().map(|n| n.name.to_string()).collect();
    move || {
        let make = |n: &String| catalogue::make(n).unwrap_or_else(|| panic!("no NF type `{n}`"));
        names.iter().map(make).collect()
    }
}

/// Compile a chain policy with the evaluated registry.
pub fn compile_chain(chain: &[&str]) -> nfp_orchestrator::Compiled {
    compile(
        &Policy::from_chain(chain.iter().copied()),
        &Registry::evaluated(),
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
pub(crate) fn forced_parallel(nf_type: &str, degree: usize, with_copy: bool) -> ServiceGraph {
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
pub(crate) fn merge_spec(degree: usize, ops: usize) -> MergeSpec {
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
pub(crate) fn figure14_structures(nf_type: &str) -> Vec<(&'static str, ServiceGraph)> {
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
