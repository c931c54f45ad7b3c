//! Cross-server graph partitioning — the paper's §7 scalability sketch.
//!
//! "NFP could partition the service graph onto multiple servers obeying:
//! each server sends only one copy of a packet to the next server."
//!
//! Because our compiled graphs merge every parallel group back to a single
//! v1 packet at the group's merger, *segment boundaries* are exactly the
//! points where one logical packet exists — so any cut along segment
//! boundaries satisfies the one-copy-per-hop rule. The partitioner packs
//! consecutive segments onto servers under a per-server NF budget (one NF
//! per core, plus the classifier and merger cores the paper accounts for).

use crate::graph::{Segment, ServiceGraph};

/// Placement of a contiguous run of segments on one server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerPlan {
    /// Segment index range (half-open) hosted by this server.
    pub segments: core::ops::Range<usize>,
    /// NF instances hosted (cores for NFs).
    nf_count: usize,
    /// Extra cores: 1 classifier (first server only) + 1 merger when any
    /// hosted segment is parallel.
    support_cores: usize,
}

/// Partitioning failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PartitionError {
    /// One segment alone exceeds the per-server NF budget; it cannot be
    /// split without violating the one-copy rule.
    SegmentTooLarge {
        /// Offending segment index.
        segment: usize,
        /// NFs it contains.
        nfs: usize,
    },
    /// The NF budget is zero.
    ZeroBudget,
}

impl core::fmt::Display for PartitionError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            PartitionError::SegmentTooLarge { segment, nfs } => write!(
                f,
                "segment {segment} hosts {nfs} NFs, exceeding the per-server budget"
            ),
            PartitionError::ZeroBudget => write!(f, "per-server NF budget must be positive"),
        }
    }
}

impl std::error::Error for PartitionError {}

/// Pack segments onto servers, first-fit, never splitting a segment.
pub fn partition(
    graph: &ServiceGraph,
    nfs_per_server: usize,
) -> Result<Vec<ServerPlan>, PartitionError> {
    if nfs_per_server == 0 {
        return Err(PartitionError::ZeroBudget);
    }
    let sizes: Vec<usize> = graph.segments.iter().map(|s| s.nodes().len()).collect();
    for (i, &n) in sizes.iter().enumerate() {
        if n > nfs_per_server {
            return Err(PartitionError::SegmentTooLarge { segment: i, nfs: n });
        }
    }
    let mut plans = Vec::new();
    let mut start = 0usize;
    let mut count = 0usize;
    for (i, &n) in sizes.iter().enumerate() {
        if count + n > nfs_per_server {
            plans.push(make_plan(graph, start..i, plans.is_empty()));
            start = i;
            count = 0;
        }
        count += n;
    }
    if start < graph.segments.len() || plans.is_empty() {
        plans.push(make_plan(
            graph,
            start..graph.segments.len(),
            plans.is_empty(),
        ));
    }
    Ok(plans)
}

fn make_plan(graph: &ServiceGraph, range: core::ops::Range<usize>, first: bool) -> ServerPlan {
    let nf_count = graph.segments[range.clone()]
        .iter()
        .map(|s| s.nodes().len())
        .sum();
    let has_parallel = graph.segments[range.clone()]
        .iter()
        .any(|s| matches!(s, Segment::Parallel(_)));
    ServerPlan {
        segments: range,
        nf_count,
        support_cores: usize::from(first) + usize::from(has_parallel),
    }
}

/// Inter-server packet transfers per packet: exactly one per boundary —
/// the property the paper's rule demands.
pub fn inter_server_copies(plans: &[ServerPlan]) -> usize {
    plans.len().saturating_sub(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{compile, CompileOptions};
    use crate::table2::Registry;
    use nfp_policy::Policy;

    fn graph() -> ServiceGraph {
        // VPN -> [Monitor | Firewall] -> LoadBalancer
        let policy = Policy::from_chain(["VPN", "Monitor", "Firewall", "LoadBalancer"]);
        compile(
            &policy,
            &Registry::paper_table2(),
            &[],
            &CompileOptions::default(),
        )
        .unwrap()
        .graph
    }

    #[test]
    fn single_server_when_budget_fits() {
        let plans = partition(&graph(), 8).unwrap();
        assert_eq!(plans.len(), 1);
        assert_eq!(plans[0].nf_count, 4);
        assert_eq!(inter_server_copies(&plans), 0);
        assert_eq!(plans[0].support_cores, 2); // classifier + merger
    }

    #[test]
    fn splits_at_segment_boundaries_only() {
        let plans = partition(&graph(), 2).unwrap();
        assert!(plans.len() >= 2);
        // Contiguous, non-overlapping coverage.
        let mut next = 0;
        for p in &plans {
            assert_eq!(p.segments.start, next);
            next = p.segments.end;
            assert!(p.nf_count <= 2);
        }
        assert_eq!(next, graph().segments.len());
        assert_eq!(inter_server_copies(&plans), plans.len() - 1);
    }

    #[test]
    fn oversized_parallel_segment_is_an_error() {
        let err = partition(&graph(), 1).unwrap_err();
        assert!(matches!(err, PartitionError::SegmentTooLarge { .. }));
    }

    #[test]
    fn zero_budget_rejected() {
        assert_eq!(
            partition(&graph(), 0).unwrap_err(),
            PartitionError::ZeroBudget
        );
    }
}
