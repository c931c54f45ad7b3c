//! Runtime table generation — the tail of §4.4.3 and the table formats of
//! §5 (Figure 4).
//!
//! "Based on the final graph structure, NF dependencies, and NF priorities,
//! we create a **classification table** that records how to direct a packet
//! to its corresponding service chain, a **forwarding table** that records
//! how to steer different packet copies, and a **merging table** that
//! stores how to merge packet copies."
//!
//! The infrastructure (nfp-dataplane) installs:
//! * the classification entry into the classifier,
//! * the per-NF forwarding-table slices into each NF runtime (via the
//!   chaining manager: "the chaining Manager splits the global table and
//!   installs the forwarding rules to each NF runtime"),
//! * the merge specs into the mergers.
//!
//! One generalization over the paper: the paper's evaluated graphs merge
//! once, at the end; our graphs may contain several parallel segments, so
//! merge specs are indexed by segment and a merger forwards its result to
//! the next segment's entry actions.

use crate::action::FailurePolicy;
use crate::graph::{CopyKind, MergeOp, NodeId, Segment, ServiceGraph};
use nfp_packet::meta::VERSION_ORIGINAL;

/// Where a forwarded packet reference goes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Target {
    /// The receive ring of an NF.
    Nf(NodeId),
    /// The merger serving the given parallel segment.
    Merger(usize),
    /// Out of the service graph (the last hop's `output` action).
    Output,
}

/// One forwarding-table action (paper §5.2 defines `ignore`, `distribute`,
/// `copy` and `output`; `ignore`/nil handling is a runtime behaviour rather
/// than a table row, so the static tables carry the other three).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FtAction {
    /// `copy(version1, version2)`: copy the packet tagged `from` into a new
    /// packet tagged `to` ("we only copy packet headers and set the packet
    /// length field" — `kind` says whether OP#2 applies).
    Copy {
        /// Source version.
        from: u8,
        /// Version tag for the new copy.
        to: u8,
        /// Header-only (OP#2) or full copy.
        kind: CopyKind,
    },
    /// `distribute(version, targets)`: send the reference of `version` to
    /// one or more targets without copying.
    Distribute {
        /// Which copy to send.
        version: u8,
        /// Destinations (fan-out to several parallel NFs retains the
        /// reference count accordingly).
        targets: Vec<Target>,
    },
    /// `output(version)`: the packet has traversed the whole graph.
    Output {
        /// Which copy leaves the graph.
        version: u8,
    },
}

/// What one parallel group's drop conflict resolution needs to know about
/// each member (paper §3's `Priority` semantics at merge time).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemberSpec {
    /// Version the member's packets carry.
    pub version: u8,
    /// Conflict priority (higher wins).
    pub priority: u32,
    /// True if the member may signal a drop (nil packet).
    pub drop_capable: bool,
    /// What a deadline-expired merge assumes about this member when its
    /// copy never arrived: `FailClosed` if *any* NF on the member's
    /// branch fails closed (the branch's verdict cannot be defaulted to
    /// "pass"), `FailOpen` otherwise.
    pub on_failure: FailurePolicy,
    /// True if any NF on the member's branch keeps per-flow state — such
    /// a branch participates in state export/import during a shard-count
    /// change.
    pub stateful: bool,
}

/// Bits of segment index a merger-bound dataplane message carries (the
/// rest of its 64-bit tag is the merge-order sequence number), so the
/// highest segment a sealed program may merge is `2^SEGMENT_BITS − 1`.
pub const SEGMENT_BITS: u32 = 16;

/// Merge specification for one parallel segment — the Classification
/// Table's "Total Count" and "MOs" columns plus drop resolution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergeSpec {
    /// Which parallel segment this spec serves.
    pub segment: usize,
    /// Packet arrivals to collect before merging (CT "total count").
    pub total_count: usize,
    /// Merge operations, already ordered so higher-priority modifications
    /// land last.
    pub ops: Vec<MergeOp>,
    /// Per-member conflict metadata.
    pub members: Vec<MemberSpec>,
    /// What to do with the merged v1 packet.
    pub next: Vec<FtAction>,
}

/// How an NF's runtime hands the packet to the NF.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AccessMode {
    /// The NF is the packet's sole owner (sequential segments, copied
    /// parallel members): full structural access.
    #[default]
    Exclusive,
    /// The packet is concurrently visible to other parallel NFs (shared
    /// v1 under Dirty Memory Reusing): field-scoped access only.
    SharedField,
}

/// What an NF's runtime does when the NF votes to drop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DropBehavior {
    /// Sequential position: the packet simply leaves the graph.
    #[default]
    Discard,
    /// Parallel member: "the NF runtime sends a nil packet to deliver the
    /// dropping intention to the merger" (§5.2).
    NilToMerger {
        /// The parallel segment whose merger must be told.
        segment: usize,
        /// This member's conflict priority, carried on the nil packet so
        /// the merger can resolve drop disagreements.
        priority: u32,
    },
}

/// Per-NF runtime configuration — the slice of the global tables the
/// chaining manager installs into one NF runtime.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct NfConfig {
    /// Forwarding actions after the NF processes a packet.
    pub actions: Vec<FtAction>,
    /// How the runtime exposes the packet to the NF.
    pub access: AccessMode,
    /// Drop handling at this graph position.
    pub on_drop: DropBehavior,
    /// What the runtime does with traffic once this NF has failed
    /// (panicked or been declared stalled by the watchdog).
    pub on_failure: FailurePolicy,
    /// True when the NF keeps per-flow state (from
    /// [`crate::action::ActionProfile::per_flow_state`]): the engine
    /// exports/imports this NF's flow snapshots across rescales.
    pub stateful: bool,
}

/// The complete table set for one service graph (one Classification Table
/// entry plus the global forwarding table, pre-split per NF).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphTables {
    /// Match ID identifying this graph in packet metadata.
    pub mid: u32,
    /// Actions the classifier runs on an arriving packet (CT "action").
    pub entry_actions: Vec<FtAction>,
    /// Per-NF runtime configuration (indexed by `NodeId`).
    pub nf_configs: Vec<NfConfig>,
    /// Merge specs, one per parallel segment, keyed by segment index.
    pub merge_specs: Vec<MergeSpec>,
}

impl GraphTables {
    /// The merge spec serving segment `segment`, if that segment is
    /// parallel.
    #[inline]
    pub fn merge_spec_for(&self, segment: usize) -> Option<&MergeSpec> {
        self.merge_specs.iter().find(|m| m.segment == segment)
    }
}

/// Generate the table set for `graph` under match ID `mid`.
pub fn generate(graph: &ServiceGraph, mid: u32) -> GraphTables {
    let mut nf_configs: Vec<NfConfig> = vec![NfConfig::default(); graph.nodes.len()];
    let mut merge_specs = Vec::new();

    // Entry actions for segment `i` (what the previous hop — classifier,
    // sequential NF, or merger — executes to start that segment).
    let entry = |i: usize| -> Vec<FtAction> {
        if i >= graph.segments.len() {
            return vec![FtAction::Output {
                version: VERSION_ORIGINAL,
            }];
        }
        match &graph.segments[i] {
            Segment::Sequential(n) => vec![FtAction::Distribute {
                version: VERSION_ORIGINAL,
                targets: vec![Target::Nf(*n)],
            }],
            Segment::Parallel(grp) => {
                let mut actions = Vec::new();
                // Copies first, then distribution, exactly like Figure 4's
                // FT row `Copy(v1,v2); Distribute(v1,[4,6]); Distribute(v2,5)`.
                for m in &grp.members {
                    if m.version != VERSION_ORIGINAL {
                        actions.push(FtAction::Copy {
                            from: VERSION_ORIGINAL,
                            to: m.version,
                            kind: m.copy,
                        });
                    }
                }
                let v1_targets: Vec<Target> = grp
                    .members
                    .iter()
                    .filter(|m| m.version == VERSION_ORIGINAL)
                    .map(|m| Target::Nf(m.path[0]))
                    .collect();
                if !v1_targets.is_empty() {
                    actions.push(FtAction::Distribute {
                        version: VERSION_ORIGINAL,
                        targets: v1_targets,
                    });
                }
                for m in &grp.members {
                    if m.version != VERSION_ORIGINAL {
                        actions.push(FtAction::Distribute {
                            version: m.version,
                            targets: vec![Target::Nf(m.path[0])],
                        });
                    }
                }
                actions
            }
        }
    };

    for (i, seg) in graph.segments.iter().enumerate() {
        match seg {
            Segment::Sequential(n) => {
                nf_configs[*n] = NfConfig {
                    actions: entry(i + 1),
                    access: AccessMode::Exclusive,
                    on_drop: DropBehavior::Discard,
                    on_failure: graph.nodes[*n].profile.failure_policy(),
                    stateful: graph.nodes[*n].profile.per_flow_state,
                };
            }
            Segment::Parallel(grp) => {
                let v1_sharers = grp
                    .members
                    .iter()
                    .filter(|m| m.version == VERSION_ORIGINAL)
                    .count();
                for m in &grp.members {
                    // A copied member owns its copy exclusively; v1 members
                    // share when more than one of them holds the original.
                    let access = if m.version != VERSION_ORIGINAL || v1_sharers <= 1 {
                        AccessMode::Exclusive
                    } else {
                        AccessMode::SharedField
                    };
                    let on_drop = DropBehavior::NilToMerger {
                        segment: i,
                        priority: m.priority,
                    };
                    // Intra-branch hops.
                    for w in m.path.windows(2) {
                        nf_configs[w[0]] = NfConfig {
                            actions: vec![FtAction::Distribute {
                                version: m.version,
                                targets: vec![Target::Nf(w[1])],
                            }],
                            access,
                            on_drop,
                            on_failure: graph.nodes[w[0]].profile.failure_policy(),
                            stateful: graph.nodes[w[0]].profile.per_flow_state,
                        };
                    }
                    // Branch tail → merger for this segment.
                    let tail = *m.path.last().expect("validated non-empty path");
                    nf_configs[tail] = NfConfig {
                        actions: vec![FtAction::Distribute {
                            version: m.version,
                            targets: vec![Target::Merger(i)],
                        }],
                        access,
                        on_drop,
                        on_failure: graph.nodes[tail].profile.failure_policy(),
                        stateful: graph.nodes[tail].profile.per_flow_state,
                    };
                }
                merge_specs.push(MergeSpec {
                    segment: i,
                    total_count: grp.expected_arrivals(),
                    ops: grp.merge_ops(),
                    members: grp
                        .members
                        .iter()
                        .map(|m| MemberSpec {
                            version: m.version,
                            priority: m.priority,
                            drop_capable: m.drop_capable,
                            // The whole branch fails closed if any NF on
                            // it does: a missing arrival means *some* NF
                            // on the path did not finish its job.
                            on_failure: if m.path.iter().any(|&n| {
                                graph.nodes[n].profile.failure_policy() == FailurePolicy::FailClosed
                            }) {
                                FailurePolicy::FailClosed
                            } else {
                                FailurePolicy::FailOpen
                            },
                            stateful: m
                                .path
                                .iter()
                                .any(|&n| graph.nodes[n].profile.per_flow_state),
                        })
                        .collect(),
                    next: entry(i + 1),
                });
            }
        }
    }

    GraphTables {
        mid,
        entry_actions: entry(0),
        nf_configs,
        merge_specs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{compile, CompileOptions};
    use crate::table2::Registry;
    use nfp_policy::Policy;

    fn tables_for(chain: &[&str]) -> (GraphTables, ServiceGraph) {
        let mut reg = Registry::evaluated();
        let mut fw = reg.get("Firewall").unwrap().clone();
        fw.nf_type = "FW".to_string();
        reg.register(fw);
        let policy = Policy::from_chain(chain.iter().copied());
        let c = compile(&policy, &reg, &[], &CompileOptions::default()).unwrap();
        let t = generate(&c.graph, 7);
        (t, c.graph)
    }

    #[test]
    fn sequential_chain_tables_are_a_linked_list() {
        let (t, g) = tables_for(&["NAT", "LB"]); // unparallelizable
        assert!(t.merge_specs.is_empty());
        let nat = g.node_by_name("NAT").unwrap();
        let lb = g.node_by_name("LB").unwrap();
        assert_eq!(
            t.entry_actions,
            vec![FtAction::Distribute {
                version: 1,
                targets: vec![Target::Nf(nat)]
            }]
        );
        assert_eq!(
            t.nf_configs[nat].actions,
            vec![FtAction::Distribute {
                version: 1,
                targets: vec![Target::Nf(lb)]
            }]
        );
        assert_eq!(
            t.nf_configs[lb].actions,
            vec![FtAction::Output { version: 1 }]
        );
    }

    #[test]
    fn east_west_tables_copy_and_merge() {
        // IDS -> [Monitor | LB(v2)]: classifier sends to IDS; IDS fans out
        // with a header-only copy; both branches end at merger(1); merger
        // outputs.
        let (t, g) = tables_for(&["IDS", "Monitor", "LB"]);
        let ids = g.node_by_name("IDS").unwrap();
        let monitor = g.node_by_name("Monitor").unwrap();
        let lb = g.node_by_name("LB").unwrap();
        // IDS's runtime performs the fan-out for segment 1.
        let fanout = &t.nf_configs[ids].actions;
        assert!(matches!(
            fanout[0],
            FtAction::Copy {
                from: 1,
                to: 2,
                kind: CopyKind::HeaderOnly
            }
        ));
        assert!(fanout.contains(&FtAction::Distribute {
            version: 1,
            targets: vec![Target::Nf(monitor)]
        }));
        assert!(fanout.contains(&FtAction::Distribute {
            version: 2,
            targets: vec![Target::Nf(lb)]
        }));
        // Both branch tails feed the merger of segment 1.
        assert_eq!(
            t.nf_configs[monitor].actions,
            vec![FtAction::Distribute {
                version: 1,
                targets: vec![Target::Merger(1)]
            }]
        );
        assert_eq!(
            t.nf_configs[lb].actions,
            vec![FtAction::Distribute {
                version: 2,
                targets: vec![Target::Merger(1)]
            }]
        );
        // The merge spec expects both arrivals and then outputs.
        let spec = t.merge_spec_for(1).unwrap();
        assert_eq!(spec.total_count, 2);
        assert!(!spec.ops.is_empty());
        assert_eq!(spec.next, vec![FtAction::Output { version: 1 }]);
    }

    #[test]
    fn north_south_merger_forwards_to_lb() {
        // VPN -> [Monitor | FW] -> LB: the segment-1 merger forwards v1 to
        // the LB, which outputs.
        let (t, g) = tables_for(&["VPN", "Monitor", "FW", "LB"]);
        let lb = g.node_by_name("LB").unwrap();
        let spec = t.merge_spec_for(1).unwrap();
        assert_eq!(spec.total_count, 2);
        assert!(spec.ops.is_empty(), "no copies → no merge ops");
        assert_eq!(
            spec.next,
            vec![FtAction::Distribute {
                version: 1,
                targets: vec![Target::Nf(lb)]
            }]
        );
        assert_eq!(
            t.nf_configs[lb].actions,
            vec![FtAction::Output { version: 1 }]
        );
        // Drop metadata: FW is drop-capable with higher priority.
        let fw_spec = spec
            .members
            .iter()
            .find(|m| m.drop_capable)
            .expect("FW member");
        assert!(fw_spec.priority > 0);
    }

    #[test]
    fn failure_policies_flow_into_tables() {
        // VPN -> [Monitor | FW] -> LB: the VPN and FW fail closed, the
        // rest fail open; the FW's member spec fails closed too.
        let (t, g) = tables_for(&["VPN", "Monitor", "FW", "LB"]);
        let vpn = g.node_by_name("VPN").unwrap();
        let monitor = g.node_by_name("Monitor").unwrap();
        let fw = g.node_by_name("FW").unwrap();
        let lb = g.node_by_name("LB").unwrap();
        assert_eq!(t.nf_configs[vpn].on_failure, FailurePolicy::FailClosed);
        assert_eq!(t.nf_configs[fw].on_failure, FailurePolicy::FailClosed);
        assert_eq!(t.nf_configs[monitor].on_failure, FailurePolicy::FailOpen);
        assert_eq!(t.nf_configs[lb].on_failure, FailurePolicy::FailOpen);
        let spec = t.merge_spec_for(1).unwrap();
        let by_drop = |d: bool| spec.members.iter().find(|m| m.drop_capable == d).unwrap();
        assert_eq!(by_drop(true).on_failure, FailurePolicy::FailClosed);
        assert_eq!(by_drop(false).on_failure, FailurePolicy::FailOpen);
    }

    #[test]
    fn statefulness_flows_into_tables() {
        // VPN -> [Monitor | FW] -> LB: Monitor and LB keep per-flow
        // state; VPN and FW do not. The Monitor branch's member spec is
        // stateful, the FW branch's is not.
        let (t, g) = tables_for(&["VPN", "Monitor", "FW", "LB"]);
        let vpn = g.node_by_name("VPN").unwrap();
        let monitor = g.node_by_name("Monitor").unwrap();
        let fw = g.node_by_name("FW").unwrap();
        let lb = g.node_by_name("LB").unwrap();
        assert!(!t.nf_configs[vpn].stateful);
        assert!(t.nf_configs[monitor].stateful);
        assert!(!t.nf_configs[fw].stateful);
        assert!(t.nf_configs[lb].stateful);
        let spec = t.merge_spec_for(1).unwrap();
        let by_drop = |d: bool| spec.members.iter().find(|m| m.drop_capable == d).unwrap();
        assert!(!by_drop(true).stateful, "FW branch is stateless");
        assert!(by_drop(false).stateful, "Monitor branch carries state");
    }

    #[test]
    fn v1_sharers_distribute_in_one_action() {
        // Monitor | Firewall share v1 → a single Distribute with 2 targets,
        // so the runtime retains the reference count once per extra target.
        let (t, _g) = tables_for(&["Monitor", "Firewall"]);
        let dist = t
            .entry_actions
            .iter()
            .find_map(|a| match a {
                FtAction::Distribute {
                    version: 1,
                    targets,
                } => Some(targets.len()),
                _ => None,
            })
            .unwrap();
        assert_eq!(dist, 2);
        assert!(t
            .entry_actions
            .iter()
            .all(|a| !matches!(a, FtAction::Copy { .. })));
    }
}
