//! The compiled service graph.
//!
//! A compiled graph is a sequence of **segments** executed in order; each
//! segment is either a single NF or a *parallel group* whose members run
//! concurrently and whose outputs the merger folds back together. This is
//! exactly the shape of every graph in the paper (Figures 1(b), 2, 13, 14):
//! heads/tails pinned by `Position` rules, trees (a sequential root feeding
//! parallel leaves) and plain parallelism all flatten to segment sequences.
//!
//! The *equivalent chain length* — the paper's measure of how much latency
//! a graph saves — is simply the number of segments.

use crate::action::ActionProfile;
use nfp_packet::meta::VERSION_ORIGINAL;
use nfp_packet::{FieldId, FieldMask};
use nfp_policy::NfName;

/// Index of a node in [`ServiceGraph::nodes`].
pub(crate) type NodeId = usize;

/// A deployed NF instance in the graph.
#[derive(Debug, Clone)]
pub struct GraphNode {
    /// Instance name (as written in policies).
    pub name: NfName,
    /// The action profile the orchestrator used for this NF.
    pub profile: ActionProfile,
}

pub use crate::action::HeaderKind;

/// One merging operation (paper §5.3): how to fold a copy's modifications
/// into the original version `v1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeOp {
    /// `modify(v1.A, vX.A)` — overwrite field `A` of v1 with vX's value.
    Modify {
        /// The field to overwrite.
        field: FieldId,
        /// The copy version supplying the new value.
        from_version: u8,
    },
    /// `add(vX.B, after, v1.IP)` — graft a header added by vX into v1.
    AddHeader {
        /// Which header to graft.
        header: HeaderKind,
        /// The copy version carrying the header.
        from_version: u8,
    },
    /// `remove(v1.C)` — drop a header from v1.
    RemoveHeader {
        /// Which header to remove.
        header: HeaderKind,
    },
}

/// How a parallel-group member's packet copy is materialized.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CopyKind {
    /// No copy: the member shares the original v1 packet.
    #[default]
    None,
    /// OP#2 **Header-Only Copying**: only the headers (≈64 B for TCP) are
    /// copied; valid when the member touches no payload bytes.
    HeaderOnly,
    /// Full copy, required when the member reads or writes the payload.
    Full,
}

/// One branch of a parallel group.
///
/// A member is usually a single NF; when the final-graph merge places whole
/// independent micrographs side by side, a member is a *chain* of NFs
/// traversed sequentially within the branch.
#[derive(Debug, Clone)]
pub struct Member {
    /// The NFs on this branch, in traversal order.
    pub path: Vec<NodeId>,
    /// Packet copy version this branch processes (1 = shares the original).
    pub version: u8,
    /// How this branch's copy is materialized ([`CopyKind::None`] iff the
    /// version is 1).
    pub copy: CopyKind,
    /// Operations folding this branch's version into v1 at the merger
    /// (empty for v1 sharers; theirs land in place).
    pub merge_ops: Vec<MergeOp>,
    /// Conflict-resolution priority; higher wins (paper `Priority` rules;
    /// Order-derived parallelism gives "the NF with the back order" the
    /// higher priority).
    pub priority: u32,
    /// True if some NF on this branch may drop packets.
    pub drop_capable: bool,
    /// Union of fields written on this branch (used by the runtime to
    /// scope Dirty-Memory-Reusing writes).
    pub writes: FieldMask,
}

impl Member {
    /// Single-NF branch sharing the original copy.
    pub fn solo(node: NodeId) -> Self {
        Self {
            path: vec![node],
            version: VERSION_ORIGINAL,
            copy: CopyKind::None,
            merge_ops: Vec::new(),
            priority: 0,
            drop_capable: false,
            writes: FieldMask::EMPTY,
        }
    }
}

/// A parallel segment: fan out → process concurrently → merge.
#[derive(Debug, Clone, Default)]
pub struct ParallelGroup {
    /// The branches, in ascending priority order.
    pub members: Vec<Member>,
}

impl ParallelGroup {
    /// Parallelism degree (number of branches).
    pub fn degree(&self) -> usize {
        self.members.len()
    }

    /// Number of packet copies created at fan-out (distinct versions > 1).
    pub(crate) fn copies(&self) -> usize {
        let mut versions: Vec<u8> = self
            .members
            .iter()
            .map(|m| m.version)
            .filter(|&v| v != VERSION_ORIGINAL)
            .collect();
        versions.sort_unstable();
        versions.dedup();
        versions.len()
    }

    /// Total packet arrivals the merger expects for this group — the
    /// Classification Table's *total count*. Every member forwards its
    /// copy to the merger independently.
    pub fn expected_arrivals(&self) -> usize {
        self.members.len()
    }

    /// Merge operations across all members, ordered by member priority
    /// ascending so higher-priority modifications land last and win.
    pub fn merge_ops(&self) -> Vec<MergeOp> {
        let mut idx: Vec<usize> = (0..self.members.len()).collect();
        idx.sort_by_key(|&i| self.members[i].priority);
        idx.into_iter()
            .flat_map(|i| self.members[i].merge_ops.iter().copied())
            .collect()
    }
}

/// One step of the compiled graph.
#[derive(Debug, Clone)]
pub enum Segment {
    /// A single NF processed in place.
    Sequential(NodeId),
    /// A parallel group with fan-out, concurrent processing and merge.
    Parallel(ParallelGroup),
}

impl Segment {
    /// All node ids in this segment.
    pub(crate) fn nodes(&self) -> Vec<NodeId> {
        match self {
            Segment::Sequential(n) => vec![*n],
            Segment::Parallel(g) => g.members.iter().flat_map(|m| m.path.clone()).collect(),
        }
    }
}

/// A compiled service graph.
#[derive(Debug, Clone, Default)]
pub struct ServiceGraph {
    /// All NF instances.
    pub nodes: Vec<GraphNode>,
    /// Execution segments, in order.
    pub segments: Vec<Segment>,
}

impl ServiceGraph {
    /// The paper's *equivalent chain length*: sequential hops a packet
    /// experiences (e.g. Figure 1(b) has length 3 instead of 4).
    pub fn equivalent_chain_length(&self) -> usize {
        self.segments.len()
    }

    /// Total number of NF instances.
    pub fn nf_count(&self) -> usize {
        self.nodes.len()
    }

    /// Largest parallel degree in the graph.
    pub fn max_degree(&self) -> usize {
        self.segments
            .iter()
            .map(|s| match s {
                Segment::Sequential(_) => 1,
                Segment::Parallel(g) => g.degree(),
            })
            .max()
            .unwrap_or(0)
    }

    /// Packet copies created per packet traversal (paper §6.3.1 resource
    /// overhead driver).
    pub fn copies_per_packet(&self) -> usize {
        self.segments
            .iter()
            .map(|s| match s {
                Segment::Sequential(_) => 0,
                Segment::Parallel(g) => g.copies(),
            })
            .sum()
    }

    /// Find a node id by instance name.
    pub fn node_by_name(&self, name: &str) -> Option<NodeId> {
        self.nodes.iter().position(|n| n.name.as_str() == name)
    }

    /// Structural validation: every node appears in exactly one segment
    /// position, versions within a group are consistent, v1 exists in every
    /// group, and member priorities are unique per group.
    pub fn validate(&self) -> Result<(), String> {
        let mut seen = vec![false; self.nodes.len()];
        let mut mark = |id: NodeId| -> Result<(), String> {
            if id >= seen.len() {
                return Err(format!("node id {id} out of range"));
            }
            if seen[id] {
                return Err(format!("node {id} appears twice"));
            }
            seen[id] = true;
            Ok(())
        };
        for seg in &self.segments {
            match seg {
                Segment::Sequential(n) => mark(*n)?,
                Segment::Parallel(g) => {
                    if g.members.len() < 2 {
                        return Err("parallel group with fewer than 2 members".into());
                    }
                    if !g.members.iter().any(|m| m.version == VERSION_ORIGINAL) {
                        return Err("parallel group without a v1 member".into());
                    }
                    let mut prios: Vec<u32> = g.members.iter().map(|m| m.priority).collect();
                    prios.sort_unstable();
                    prios.dedup();
                    if prios.len() != g.members.len() {
                        return Err("duplicate member priorities in parallel group".into());
                    }
                    for m in &g.members {
                        if m.path.is_empty() {
                            return Err("empty member path".into());
                        }
                        if (m.version == VERSION_ORIGINAL) != (m.copy == CopyKind::None) {
                            return Err("copy kind inconsistent with version".into());
                        }
                        if m.version != VERSION_ORIGINAL
                            && m.merge_ops.is_empty()
                            && !m.writes.is_empty()
                        {
                            return Err("copied member writes fields but has no merge ops".into());
                        }
                        for &n in &m.path {
                            mark(n)?;
                        }
                    }
                }
            }
        }
        if let Some(missing) = seen.iter().position(|s| !s) {
            return Err(format!("node {missing} not placed in any segment"));
        }
        Ok(())
    }

    /// Human-readable one-line structure, e.g. `VPN -> [Monitor | FW] -> LB`.
    pub fn describe(&self) -> String {
        let mut out = String::new();
        for (i, seg) in self.segments.iter().enumerate() {
            if i > 0 {
                out.push_str(" -> ");
            }
            match seg {
                Segment::Sequential(n) => out.push_str(self.nodes[*n].name.as_str()),
                Segment::Parallel(g) => {
                    out.push('[');
                    for (j, m) in g.members.iter().enumerate() {
                        if j > 0 {
                            out.push_str(" | ");
                        }
                        for (k, n) in m.path.iter().enumerate() {
                            if k > 0 {
                                out.push('>');
                            }
                            out.push_str(self.nodes[*n].name.as_str());
                        }
                        if m.version != VERSION_ORIGINAL {
                            out.push_str(&format!("(v{})", m.version));
                        }
                    }
                    out.push(']');
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(name: &str) -> GraphNode {
        GraphNode {
            name: NfName::new(name),
            profile: ActionProfile::new(name),
        }
    }

    fn two_member_group(a: NodeId, b: NodeId) -> ParallelGroup {
        ParallelGroup {
            members: vec![
                Member {
                    priority: 0,
                    ..Member::solo(a)
                },
                Member {
                    priority: 1,
                    version: 2,
                    copy: CopyKind::HeaderOnly,
                    merge_ops: vec![MergeOp::Modify {
                        field: FieldId::Dip,
                        from_version: 2,
                    }],
                    writes: FieldMask::single(FieldId::Dip),
                    ..Member::solo(b)
                },
            ],
        }
    }

    #[test]
    fn figure1b_shape() {
        // VPN -> [Monitor | FW] -> LB
        let g = ServiceGraph {
            nodes: vec![node("VPN"), node("Monitor"), node("FW"), node("LB")],
            segments: vec![
                Segment::Sequential(0),
                Segment::Parallel(ParallelGroup {
                    members: vec![
                        Member::solo(1),
                        Member {
                            priority: 1,
                            drop_capable: true,
                            ..Member::solo(2)
                        },
                    ],
                }),
                Segment::Sequential(3),
            ],
        };
        g.validate().unwrap();
        assert_eq!(g.equivalent_chain_length(), 3);
        assert_eq!(g.copies_per_packet(), 0);
        assert_eq!(g.max_degree(), 2);
        assert_eq!(g.describe(), "VPN -> [Monitor | FW] -> LB");
    }

    #[test]
    fn copies_counted_per_group() {
        let g = ServiceGraph {
            nodes: vec![node("A"), node("B")],
            segments: vec![Segment::Parallel(two_member_group(0, 1))],
        };
        g.validate().unwrap();
        assert_eq!(g.copies_per_packet(), 1);
        assert_eq!(g.describe(), "[A | B(v2)]");
    }

    #[test]
    fn merge_ops_ordered_by_priority() {
        let mut grp = two_member_group(0, 1);
        grp.members[0].merge_ops = vec![MergeOp::RemoveHeader {
            header: HeaderKind::AuthHeader,
        }];
        grp.members[0].priority = 5; // now highest
        let ops = grp.merge_ops();
        // Priority 1 member's op first, priority 5 member's op last.
        assert!(matches!(ops[0], MergeOp::Modify { .. }));
        assert!(matches!(ops[1], MergeOp::RemoveHeader { .. }));
    }

    #[test]
    fn validate_rejects_duplicates_and_gaps() {
        let g = ServiceGraph {
            nodes: vec![node("A"), node("B")],
            segments: vec![Segment::Sequential(0), Segment::Sequential(0)],
        };
        assert!(g.validate().is_err());
        let g = ServiceGraph {
            nodes: vec![node("A"), node("B")],
            segments: vec![Segment::Sequential(0)],
        };
        assert!(g.validate().is_err());
    }

    #[test]
    fn validate_rejects_copy_without_merge_ops() {
        let mut grp = two_member_group(0, 1);
        grp.members[1].merge_ops.clear();
        let g = ServiceGraph {
            nodes: vec![node("A"), node("B")],
            segments: vec![Segment::Parallel(grp)],
        };
        assert!(g.validate().is_err());
    }

    #[test]
    fn validate_requires_v1() {
        let mut grp = two_member_group(0, 1);
        grp.members[0].version = 3;
        let g = ServiceGraph {
            nodes: vec![node("A"), node("B")],
            segments: vec![Segment::Parallel(grp)],
        };
        assert!(g.validate().is_err());
    }
}
