//! The service-graph compiler — paper §4.4 (Figure 2 workflow).
//!
//! Compilation is organized as explicit passes, one module each:
//!
//! 1. `profiles` — **profile collection**: intern every mentioned NF's
//!    action profile and memoize Algorithm 1 pair analyses (the OP#1
//!    Dirty-Memory-Reusing and OP#2 header-only-copy decisions fall out of
//!    these analyses).
//! 2. `transform` — **policy transform**: `Position` rules pin NFs;
//!    `Order`/`Priority` rules run Algorithm 1 and become directed pair
//!    relations (sequential edge, or parallel pair with conflicting
//!    actions). A parallelizable `Order` rule *is converted into a
//!    Priority*: "the NF with the back order is assigned a higher
//!    priority".
//! 3. `micrographs` — **micrograph construction**: connected components
//!    of the relation graph, arranged into *waves* (the generalization of
//!    the paper's Single-NF / Tree / Plain-Parallelism micrograph
//!    structures — a Tree is a one-node wave followed by a parallel wave).
//! 4. `emit` — **emission & merge**: waves become segments with copy
//!    versions, merge ops and priorities assigned (OP#1: members whose
//!    conflicting-action set against the current v1 sharers is empty share
//!    the original packet; OP#2: copies are header-only unless the member
//!    touches the payload); mutually independent micrographs are placed in
//!    parallel, residual dependencies warned and resolved sequentially in
//!    policy-mention order ("network operators will be informed to further
//!    regulate execution priority").
//!
//! The pipeline ends in a [`ServiceGraph`]; [`Compiled::program`] seals it
//! into a validated, replicable [`Program`] for the dataplane.

mod emit;
mod micrographs;
mod profiles;
mod transform;

use crate::alg1::{IdentifyOptions, PairAnalysis, PairContext};
use crate::deps::DependencyTable;
use crate::graph::{GraphNode, NodeId, Segment, ServiceGraph};
use crate::program::{Program, ProgramError};
use crate::table2::Registry;
use micrographs::Micrograph;
use nfp_packet::meta::VERSION_MAX;
use nfp_policy::{check_conflicts, Conflict, NfName, Policy, PositionAnchor};
use std::collections::HashMap;

/// Compiler options.
#[derive(Debug, Clone, Copy, Default)]
pub struct CompileOptions {
    /// Options forwarded to Algorithm 1 (OP#1 toggle).
    pub identify: IdentifyOptions,
    /// When true, skip all parallelization and emit a purely sequential
    /// chain (the paper's baseline mode; also used by benches).
    pub force_sequential: bool,
}

/// Fatal compilation failures.
#[derive(Debug, Clone, PartialEq)]
pub enum CompileError {
    /// An NF appears in the policy (or free list) but has no registered
    /// action profile.
    UnknownNf(NfName),
    /// The policy is self-contradictory (see `nfp-policy`'s conflict
    /// detector).
    PolicyConflicts(Vec<Conflict>),
    /// A parallel wave would need more copy versions than the 4-bit
    /// metadata version field can express.
    TooManyVersions {
        /// Versions demanded.
        needed: usize,
    },
    /// The policy mentions no NFs at all.
    EmptyPolicy,
    /// Sequential constraints (Order rules plus priority fallbacks) form a
    /// cycle the conflict checker could not see (e.g. one introduced by an
    /// unparallelizable Priority pair).
    DependencyCycle,
}

impl core::fmt::Display for CompileError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CompileError::UnknownNf(nf) => write!(f, "no action profile registered for `{nf}`"),
            CompileError::PolicyConflicts(cs) => {
                write!(f, "policy conflicts:")?;
                for c in cs {
                    write!(f, " [{c}]")?;
                }
                Ok(())
            }
            CompileError::TooManyVersions { needed } => write!(
                f,
                "parallel group needs {needed} copy versions; metadata allows {VERSION_MAX}"
            ),
            CompileError::EmptyPolicy => write!(f, "policy mentions no NFs"),
            CompileError::DependencyCycle => {
                write!(f, "sequential constraints form a dependency cycle")
            }
        }
    }
}

impl std::error::Error for CompileError {}

/// Non-fatal compiler diagnostics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileWarning {
    /// A `Priority` pair turned out not to be parallelizable; the pair was
    /// chained sequentially (low-priority NF first, so the high-priority
    /// NF's result still wins by coming last).
    PriorityPairSequential {
        /// High-priority NF.
        high: NfName,
        /// Low-priority NF.
        low: NfName,
    },
    /// Two micrographs depend on each other; they were placed sequentially
    /// in policy-mention order, and the operator should regulate their
    /// execution priority explicitly.
    MicrographDependency {
        /// An NF identifying the first micrograph.
        a: NfName,
        /// An NF identifying the second micrograph.
        b: NfName,
    },
    /// An `Order` rule involving a `Position`-pinned NF was redundant (or
    /// unsatisfiable) and was ignored.
    OrderWithPinnedNf {
        /// The pinned NF.
        pinned: NfName,
        /// The other NF in the rule.
        other: NfName,
        /// True when the rule was consistent with the pin (redundant),
        /// false when it contradicted the pin (unsatisfiable).
        consistent: bool,
    },
    /// Several NFs were pinned to the same anchor; they were chained in
    /// policy-mention order.
    AmbiguousAnchorResolved {
        /// The contested anchor.
        anchor: PositionAnchor,
    },
}

/// Successful compilation result.
#[derive(Debug, Clone)]
pub struct Compiled {
    /// The optimized service graph.
    pub graph: ServiceGraph,
    /// Diagnostics for the operator.
    pub warnings: Vec<CompileWarning>,
}

impl Compiled {
    /// Seal the compiled graph into a validated, replicable [`Program`]
    /// under match ID `mid` — the artifact engines execute.
    pub fn program(&self, mid: u32) -> Result<Program, ProgramError> {
        Program::compile(&self.graph, mid)
    }
}

/// Directed relation between two NFs, derived from one rule.
#[derive(Debug, Clone)]
enum Relation {
    /// `lo` must complete before `hi` starts.
    Seq,
    /// May run in parallel; `hi` has the higher conflict priority; `ca` is
    /// Algorithm 1's conflicting-action list for the `lo → hi` direction.
    Par { analysis: PairAnalysis },
}

/// Compile `policy` (plus `free_nfs`, deployed NFs the policy does not
/// mention) against the action-profile `registry`.
pub fn compile(
    policy: &Policy,
    registry: &Registry,
    free_nfs: &[NfName],
    opts: &CompileOptions,
) -> Result<Compiled, CompileError> {
    Compiler::new(policy, registry, free_nfs, opts)?.run()
}

struct Compiler<'a> {
    registry: &'a Registry,
    opts: &'a CompileOptions,
    dt: DependencyTable,
    /// NF instances in mention order; index = NodeId.
    nodes: Vec<GraphNode>,
    ids: HashMap<NfName, NodeId>,
    /// Directed relations keyed by (lo, hi) node ids.
    relations: HashMap<(NodeId, NodeId), Relation>,
    pinned_first: Vec<NodeId>,
    pinned_last: Vec<NodeId>,
    warnings: Vec<CompileWarning>,
    /// Cache of Algorithm 1 runs keyed by directed node pair and context.
    analysis_cache: HashMap<(NodeId, NodeId, PairContext), PairAnalysis>,
}

impl<'a> Compiler<'a> {
    fn new(
        policy: &Policy,
        registry: &'a Registry,
        free_nfs: &[NfName],
        opts: &'a CompileOptions,
    ) -> Result<Self, CompileError> {
        // Fatal conflicts abort; ambiguous anchors degrade to warnings.
        let conflicts = check_conflicts(policy);
        let mut warnings = Vec::new();
        let fatal: Vec<Conflict> = conflicts
            .into_iter()
            .filter(|c| match c {
                Conflict::AmbiguousAnchor { anchor, .. } => {
                    warnings.push(CompileWarning::AmbiguousAnchorResolved { anchor: *anchor });
                    false
                }
                _ => true,
            })
            .collect();
        if !fatal.is_empty() {
            return Err(CompileError::PolicyConflicts(fatal));
        }

        let mut compiler = Self {
            registry,
            opts,
            dt: DependencyTable::paper_table3(),
            nodes: Vec::new(),
            ids: HashMap::new(),
            relations: HashMap::new(),
            pinned_first: Vec::new(),
            pinned_last: Vec::new(),
            warnings,
            analysis_cache: HashMap::new(),
        };
        for nf in policy.mentioned_nfs() {
            compiler.intern(&nf)?;
        }
        for nf in free_nfs {
            compiler.intern(nf)?;
        }
        if compiler.nodes.is_empty() {
            return Err(CompileError::EmptyPolicy);
        }
        compiler.transform(policy)?;
        Ok(compiler)
    }

    fn run(mut self) -> Result<Compiled, CompileError> {
        // Step 2: micrographs = connected components over all relations,
        // excluding pinned NFs.
        let pinned: Vec<bool> = (0..self.nodes.len())
            .map(|i| self.pinned_first.contains(&i) || self.pinned_last.contains(&i))
            .collect();
        let components = self.components(&pinned);
        let mut micrographs: Vec<Micrograph> = Vec::new();
        for comp in components {
            micrographs.push(self.build_micrograph(comp)?);
        }
        // Step 3: merge micrographs into the final segment list.
        let mut segments: Vec<Segment> = Vec::new();
        for &id in &self.pinned_first.clone() {
            segments.push(Segment::Sequential(id));
        }
        segments.extend(self.merge_micrographs(micrographs)?);
        for &id in &self.pinned_last.clone() {
            segments.push(Segment::Sequential(id));
        }
        let graph = ServiceGraph {
            nodes: self.nodes,
            segments,
        };
        debug_assert_eq!(graph.validate(), Ok(()));
        Ok(Compiled {
            graph,
            warnings: self.warnings,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::ActionProfile;
    use crate::alg1::identify;
    use crate::deps::Parallelism;
    use crate::graph::{CopyKind, MergeOp};
    use nfp_packet::meta::VERSION_ORIGINAL;
    use nfp_packet::FieldId;

    /// The evaluated registry plus `FW`, the name the paper's example
    /// policies give the firewall.
    fn registry() -> Registry {
        let mut r = Registry::evaluated();
        let mut fw = r.get("Firewall").unwrap().clone();
        fw.nf_type = "FW".to_string();
        r.register(fw);
        r
    }

    fn compile_ok(policy: &Policy) -> Compiled {
        compile(policy, &registry(), &[], &CompileOptions::default()).unwrap()
    }

    #[test]
    fn north_south_chain_matches_figure_13() {
        // Order(VPN,Monitor), Order(Monitor,FW), Order(FW,LB) →
        // VPN -> [Monitor | FW] -> LB, zero copies (paper Fig 13 top).
        let policy = Policy::from_chain(["VPN", "Monitor", "FW", "LB"]);
        let c = compile_ok(&policy);
        let g = &c.graph;
        g.validate().unwrap();
        assert_eq!(g.equivalent_chain_length(), 3);
        assert_eq!(g.copies_per_packet(), 0);
        assert_eq!(g.describe(), "VPN -> [Monitor | FW] -> LB");
    }

    #[test]
    fn east_west_chain_matches_figure_13() {
        // Order(IDS,Monitor), Order(Monitor,LB) →
        // IDS -> [Monitor | LB(copy)] (paper Fig 13 bottom, 8.8% overhead).
        let policy = Policy::from_chain(["IDS", "Monitor", "LB"]);
        let c = compile_ok(&policy);
        let g = &c.graph;
        g.validate().unwrap();
        assert_eq!(g.equivalent_chain_length(), 2);
        assert_eq!(g.copies_per_packet(), 1);
        // The LB gets the copy (it is the writer) and it is header-only.
        let Segment::Parallel(grp) = &g.segments[1] else {
            panic!("expected parallel segment, got {}", g.describe());
        };
        let lb = grp
            .members
            .iter()
            .find(|m| g.nodes[m.path[0]].name.as_str() == "LB")
            .unwrap();
        assert_eq!(lb.copy, CopyKind::HeaderOnly);
        assert!(lb.merge_ops.iter().any(|op| matches!(
            op,
            MergeOp::Modify {
                field: FieldId::Sip,
                ..
            }
        )));
        let monitor = grp
            .members
            .iter()
            .find(|m| g.nodes[m.path[0]].name.as_str() == "Monitor")
            .unwrap();
        assert_eq!(monitor.version, VERSION_ORIGINAL);
        // LB is "back order" → higher priority than Monitor.
        assert!(lb.priority > monitor.priority);
    }

    #[test]
    fn figure1b_policy_with_position() {
        let policy = Policy::new()
            .position("VPN", PositionAnchor::First)
            .order("FW", "LB")
            .order("Monitor", "LB");
        let c = compile_ok(&policy);
        let g = &c.graph;
        g.validate().unwrap();
        assert_eq!(g.segments.len(), 3);
        assert!(
            matches!(g.segments[0], Segment::Sequential(id) if g.nodes[id].name.as_str() == "VPN")
        );
    }

    #[test]
    fn sequential_fallback_when_unparallelizable() {
        // NAT before LB cannot parallelize (write→read dependency).
        let policy = Policy::from_chain(["NAT", "LB"]);
        let c = compile_ok(&policy);
        assert_eq!(c.graph.equivalent_chain_length(), 2);
        assert!(c
            .graph
            .segments
            .iter()
            .all(|s| matches!(s, Segment::Sequential(_))));
    }

    #[test]
    fn force_sequential_option() {
        let policy = Policy::from_chain(["Monitor", "Firewall"]);
        let c = compile(
            &policy,
            &registry(),
            &[],
            &CompileOptions {
                force_sequential: true,
                ..CompileOptions::default()
            },
        )
        .unwrap();
        assert_eq!(c.graph.equivalent_chain_length(), 2);
    }

    #[test]
    fn priority_rule_parallelizes_drop_conflict() {
        let mut reg = registry();
        reg.register(
            ActionProfile::new("IPS")
                .reads([
                    FieldId::Sip,
                    FieldId::Dip,
                    FieldId::Sport,
                    FieldId::Dport,
                    FieldId::Payload,
                ])
                .drops(),
        );
        let policy = Policy::new().priority("IPS", "Firewall");
        let c = compile(&policy, &reg, &[], &CompileOptions::default()).unwrap();
        let g = &c.graph;
        assert_eq!(g.equivalent_chain_length(), 1);
        let Segment::Parallel(grp) = &g.segments[0] else {
            panic!("expected parallel group")
        };
        assert_eq!(grp.copies(), 0);
        let ips = grp
            .members
            .iter()
            .find(|m| g.nodes[m.path[0]].name.as_str() == "IPS")
            .unwrap();
        let fw = grp
            .members
            .iter()
            .find(|m| g.nodes[m.path[0]].name.as_str() == "Firewall")
            .unwrap();
        assert!(ips.priority > fw.priority, "IPS must win conflicts");
        assert!(ips.drop_capable && fw.drop_capable);
    }

    #[test]
    fn unparallelizable_priority_becomes_sequential_with_warning() {
        let policy = Policy::new().priority("Monitor", "LB"); // LB writes what Monitor reads
        let c = compile_ok(&policy);
        assert!(c
            .warnings
            .iter()
            .any(|w| matches!(w, CompileWarning::PriorityPairSequential { .. })));
        assert_eq!(c.graph.equivalent_chain_length(), 2);
        // Low-priority NF (LB) runs first so Monitor's result comes last.
        assert!(matches!(
            c.graph.segments[0],
            Segment::Sequential(id) if c.graph.nodes[id].name.as_str() == "LB"
        ));
    }

    #[test]
    fn free_nfs_join_the_graph() {
        let policy = Policy::from_chain(["Monitor", "Firewall"]);
        let c = compile(
            &policy,
            &registry(),
            &[NfName::new("Caching")],
            &CompileOptions::default(),
        )
        .unwrap();
        let g = &c.graph;
        g.validate().unwrap();
        assert_eq!(g.nf_count(), 3);
        // Caching is its own single-NF micrograph; the Monitor|Firewall
        // micrograph already contains a parallel segment, so the merge step
        // places the two micrographs sequentially (chain-only micrographs
        // qualify for parallel composition).
        assert_eq!(g.equivalent_chain_length(), 2, "{}", g.describe());
    }

    #[test]
    fn unknown_nf_is_an_error() {
        let policy = Policy::from_chain(["Firewall", "Quux"]);
        let err = compile(&policy, &registry(), &[], &CompileOptions::default()).unwrap_err();
        assert!(matches!(err, CompileError::UnknownNf(nf) if nf.as_str() == "Quux"));
    }

    #[test]
    fn conflicting_policy_is_an_error() {
        let policy = Policy::new().order("A", "B").order("B", "A");
        let mut reg = registry();
        reg.register(ActionProfile::new("A"));
        reg.register(ActionProfile::new("B"));
        let err = compile(&policy, &reg, &[], &CompileOptions::default()).unwrap_err();
        assert!(matches!(err, CompileError::PolicyConflicts(_)));
    }

    #[test]
    fn empty_policy_is_an_error() {
        let err =
            compile(&Policy::new(), &registry(), &[], &CompileOptions::default()).unwrap_err();
        assert_eq!(err, CompileError::EmptyPolicy);
    }

    #[test]
    fn plain_parallelism_micrograph() {
        // Three read-only NFs with pairwise priority rules — paper Fig 2's
        // NF5/NF6/NF7 plain-parallelism micrograph shape.
        let policy = Policy::new()
            .priority("Firewall", "Monitor")
            .priority("Monitor", "Gateway");
        let c = compile_ok(&policy);
        assert_eq!(c.graph.equivalent_chain_length(), 1);
        assert_eq!(c.graph.max_degree(), 3);
        assert_eq!(c.graph.copies_per_packet(), 0);
    }

    #[test]
    fn tree_micrograph_from_shared_root() {
        // Order(VPN,Monitor) + Order(VPN,Firewall): VPN is the root (add/rm
        // forces sequencing), leaves parallelize.
        let policy = Policy::new()
            .order("VPN", "Monitor")
            .order("VPN", "Firewall");
        let c = compile_ok(&policy);
        assert_eq!(c.graph.describe(), "VPN -> [Monitor | Firewall]");
    }

    #[test]
    fn pinned_edge_rules_are_consumed_with_warning() {
        let policy = Policy::new()
            .position("VPN", PositionAnchor::First)
            .order("VPN", "Monitor")
            .order("Monitor", "Firewall");
        let c = compile_ok(&policy);
        assert!(c.warnings.iter().any(|w| matches!(
            w,
            CompileWarning::OrderWithPinnedNf {
                consistent: true,
                ..
            }
        )));
        assert_eq!(c.graph.describe(), "VPN -> [Monitor | Firewall]");
    }

    #[test]
    fn order_to_priority_conversion_direction() {
        // Monitor before Firewall, parallelizable: Firewall (back order)
        // gets the higher priority.
        let policy = Policy::from_chain(["Monitor", "Firewall"]);
        let c = compile_ok(&policy);
        let Segment::Parallel(grp) = &c.graph.segments[0] else {
            panic!("expected parallel group")
        };
        let prio = |name: &str| {
            grp.members
                .iter()
                .find(|m| c.graph.nodes[m.path[0]].name.as_str() == name)
                .unwrap()
                .priority
        };
        assert!(prio("Firewall") > prio("Monitor"));
        // Verdict recorded matches Algorithm 1.
        let reg = registry();
        let a = identify(
            reg.get("Monitor").unwrap(),
            reg.get("Firewall").unwrap(),
            &DependencyTable::paper_table3(),
            IdentifyOptions::default(),
        );
        assert_eq!(a.verdict(), Parallelism::ParallelizableNoCopy);
    }

    #[test]
    fn micrograph_parallel_composition_of_chains() {
        // Two independent unparallelizable chains: (NAT -> LB) and a free
        // Gateway. NAT->LB writes header fields that Gateway reads, so the
        // chain micrograph and Gateway are *dependent* → sequential, with a
        // warning. Use two read-only chains instead for the parallel case.
        let policy = Policy::new()
            .order("Monitor", "Caching") // read-only pair, but force chain via distinct micrographs
            .order("Gateway", "NIDS");
        let c = compile_ok(&policy);
        // All four are read-only: both micrographs are parallel groups of
        // 2 themselves... they are separate components merged in parallel.
        let g = &c.graph;
        g.validate().unwrap();
        assert_eq!(g.nf_count(), 4);
        assert_eq!(g.copies_per_packet(), 0);
    }

    #[test]
    fn compiled_graphs_seal_into_programs() {
        for chain in [
            vec!["VPN", "Monitor", "FW", "LB"],
            vec!["IDS", "Monitor", "LB"],
            vec!["NAT", "LB"],
        ] {
            let c = compile_ok(&Policy::from_chain(chain.iter().copied()));
            let p = c.program(1).unwrap();
            assert_eq!(p.nf_count(), c.graph.nf_count());
        }
    }
}
