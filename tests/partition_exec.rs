//! §7 cross-server partitioning, executed: partition a compiled graph at
//! segment boundaries, run each partition on its own engine ("server"),
//! hand exactly one packet copy across each boundary, and verify the
//! chained result equals the unpartitioned graph's output.

use nfp_core::nf::catalogue;
use nfp_core::prelude::*;
use nfp_dataplane::sync_engine::{ProcessOutcome, SyncEngine};
use nfp_orchestrator::graph::{GraphNode, Member, ParallelGroup, Segment, ServiceGraph};
use nfp_orchestrator::partition::{inter_server_copies, partition};
use nfp_orchestrator::Program;
use std::collections::HashMap;

/// Extract the sub-graph covering `segments`, remapping node ids densely.
fn subgraph(graph: &ServiceGraph, range: core::ops::Range<usize>) -> ServiceGraph {
    let mut remap: HashMap<usize, usize> = HashMap::new();
    let mut nodes: Vec<GraphNode> = Vec::new();
    let mut segments = Vec::new();
    for seg in &graph.segments[range] {
        match seg {
            Segment::Sequential(n) => {
                let id = *remap.entry(*n).or_insert_with(|| {
                    nodes.push(graph.nodes[*n].clone());
                    nodes.len() - 1
                });
                segments.push(Segment::Sequential(id));
            }
            Segment::Parallel(grp) => {
                let members = grp
                    .members
                    .iter()
                    .map(|m| Member {
                        path: m
                            .path
                            .iter()
                            .map(|n| {
                                *remap.entry(*n).or_insert_with(|| {
                                    nodes.push(graph.nodes[*n].clone());
                                    nodes.len() - 1
                                })
                            })
                            .collect(),
                        ..m.clone()
                    })
                    .collect();
                segments.push(Segment::Parallel(ParallelGroup { members }));
            }
        }
    }
    let g = ServiceGraph { nodes, segments };
    g.validate().expect("subgraph validates");
    g
}

#[test]
fn partitioned_graph_equals_whole_graph() {
    let compiled = compile(
        &Policy::from_chain(["VPN", "Monitor", "Firewall", "LoadBalancer"]),
        &Registry::paper_table2(),
        &[],
        &CompileOptions::default(),
    )
    .unwrap();
    let graph = &compiled.graph;
    assert_eq!(
        graph.describe(),
        "VPN -> [Monitor | Firewall] -> LoadBalancer"
    );

    // Two NFs per server → at least two servers, one copy per boundary.
    let plans = partition(graph, 2).unwrap();
    assert!(plans.len() >= 2);
    assert_eq!(inter_server_copies(&plans), plans.len() - 1);

    // One engine per server.
    let mut servers: Vec<SyncEngine> = plans
        .iter()
        .map(|plan| {
            let sub = subgraph(graph, plan.segments.clone());
            let program = Program::compile(&sub, 1).unwrap();
            let nfs: Vec<_> = sub
                .nodes
                .iter()
                .map(|n| catalogue::make(n.name.as_str()).unwrap())
                .collect();
            SyncEngine::new(program, nfs, 64)
        })
        .collect();

    // The oracle: one engine over the whole graph.
    let program = compiled.program(1).unwrap();
    let nfs: Vec<_> = graph
        .nodes
        .iter()
        .map(|n| catalogue::make(n.name.as_str()).unwrap())
        .collect();
    let mut whole = SyncEngine::new(program, nfs, 64);

    let traffic = TrafficGenerator::new(TrafficSpec {
        flows: 8,
        sizes: SizeDistribution::Fixed(300),
        ..TrafficSpec::default()
    })
    .batch(200);

    for pkt in traffic {
        let expected = whole.process(pkt.clone()).unwrap();
        // Chain through the servers: exactly one packet crosses each
        // boundary (the merged v1).
        let mut current = Some(pkt);
        for server in servers.iter_mut() {
            current = match server.process(current.take().unwrap()).unwrap() {
                ProcessOutcome::Delivered(p) => Some(*p),
                ProcessOutcome::Dropped => None,
            };
            if current.is_none() {
                break;
            }
        }
        match (expected, current) {
            (ProcessOutcome::Delivered(a), Some(b)) => {
                assert_eq!(a.data(), b.data(), "partitioned output diverges");
            }
            (ProcessOutcome::Dropped, None) => {}
            (a, b) => panic!(
                "divergent drop decisions: whole={} chained={}",
                matches!(a, ProcessOutcome::Delivered(_)),
                b.is_some()
            ),
        }
    }
}

#[test]
fn single_server_partition_is_identity() {
    let compiled = compile(
        &Policy::from_chain(["Monitor", "Firewall"]),
        &Registry::paper_table2(),
        &[],
        &CompileOptions::default(),
    )
    .unwrap();
    let plans = partition(&compiled.graph, 8).unwrap();
    assert_eq!(plans.len(), 1);
    let sub = subgraph(&compiled.graph, plans[0].segments.clone());
    assert_eq!(sub.describe(), compiled.graph.describe());
}
