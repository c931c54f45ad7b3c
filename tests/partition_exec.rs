//! §7 cross-server partitioning, executed: partition a compiled graph at
//! segment boundaries, run each partition on its own engine ("server"),
//! hand exactly one packet copy across each boundary, and verify the
//! chained result equals the unpartitioned graph's at the kit's byte
//! order level: the same frames in order, the same drops, and the
//! servers' NF state together the whole graph's.

use nfp_core::prelude::*;
use nfp_orchestrator::graph::{GraphNode, Member, ParallelGroup, Segment, ServiceGraph};
use nfp_orchestrator::partition::{inter_server_copies, partition};
use nfp_testkit::{run, Chain, Entry, Executor, Level, Nfs, Outcome, Traffic};
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
    let order = ["VPN", "Monitor", "Firewall", "LoadBalancer"];
    let whole = Chain::with_registry(&order, &Registry::paper_table2());
    let graph = &whole.graph;
    assert_eq!(
        graph.describe(),
        "VPN -> [Monitor | Firewall] -> LoadBalancer"
    );

    // Two NFs per server → at least two servers, one copy per boundary.
    let plans = partition(graph, 2).unwrap();
    assert!(plans.len() >= 2);
    assert_eq!(inter_server_copies(&plans), plans.len() - 1);

    // The oracle: one engine over the whole graph.
    let pkts = Traffic::clean(8, 300).build(200);
    let sync = Executor::sync(Entry::Process);
    let expected = run(&sync, &whole, &Nfs::catalogue(), &pkts);

    // Chain through one engine per server: exactly one packet crosses
    // each boundary (the merged v1), and a packet one server drops never
    // reaches the next.
    let mut chained = Outcome {
        delivered: Vec::new(),
        dropped: 0,
        state: Some(Vec::new()),
        ..Outcome::default()
    };
    let mut current = pkts.clone();
    for plan in &plans {
        let server = Chain::from_graph(subgraph(graph, plan.segments.clone()));
        let out = run(&sync, &server, &Nfs::catalogue(), &current);
        current = out.delivered.iter().map(|d| d.packet()).collect();
        chained.delivered = out.delivered;
        chained.rejected += out.rejected;
        chained.state.as_mut().unwrap().extend(out.state.unwrap());
    }
    chained.dropped = (pkts.len() - chained.delivered.len()) as u64 - chained.rejected;
    chained
        .state
        .as_mut()
        .unwrap()
        .sort_by(|a, b| a.nf.cmp(&b.nf));
    chained.assert_matches(&expected, Level::ByteOrder, "partitioned against whole");
}

#[test]
fn single_server_partition_is_identity() {
    let chain = Chain::with_registry(&["Monitor", "Firewall"], &Registry::paper_table2());
    let plans = partition(&chain.graph, 8).unwrap();
    assert_eq!(plans.len(), 1);
    let sub = subgraph(&chain.graph, plans[0].segments.clone());
    assert_eq!(sub.describe(), chain.graph.describe());
}
