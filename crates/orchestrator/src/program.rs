//! The sealed **Program** artifact — the orchestrator→dataplane handoff.
//!
//! Compilation used to end at a loosely-validated [`GraphTables`]; every
//! engine then re-derived its own wiring from the raw tables and trusted
//! them blindly. A [`Program`] seals the result of compilation into one
//! validated, replicable artifact:
//!
//! * the classification/forwarding/merging **tables** (unchanged),
//! * a **wiring plan** describing which pipeline stage feeds which (the
//!   ring mesh both engines instantiate),
//! * per-position **field masks** (which fields each NF may write at its
//!   graph position — the scope Dirty Memory Reusing granted it),
//! * a worst-case **pool footprint** (`slots_per_packet`) so an engine can
//!   reject configurations whose packet pool cannot cover the in-flight
//!   window before wedging the closed loop.
//!
//! Sealing runs invariant checks over the tables: every forwarding target
//! is in range, every copy chain is closable (versions are produced before
//! they are referenced and every copy a merge expects exists), and every
//! merge spec's total count matches its member list. A `Program` that
//! seals successfully can be executed — or replicated per flow shard —
//! without any engine-side re-validation.

use crate::graph::{MergeOp, Segment, ServiceGraph};
use crate::tables::{self, DropBehavior, FtAction, GraphTables, Target};
use nfp_packet::meta::VERSION_ORIGINAL;
use nfp_packet::FieldMask;
use std::sync::Arc;

/// A pipeline stage of the NFP dataplane — the vertices of the wiring
/// plan. Both the threaded engine (one thread per stage) and the sync
/// engine (one dispatch arm per stage) execute the same stages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// The packet classifier (CT lookup + entry actions).
    Classifier,
    /// One NF runtime, by `NodeId`.
    Nf(usize),
    /// The merger agent (PID-hash router + merge-order sequencer).
    Agent,
    /// One merger instance behind the agent.
    Merger(usize),
    /// The output collector.
    Collector,
    /// The centralized switch of a program sealed [`Program::via_switch`]:
    /// every NF and collector hop passes through it.
    Switch,
}

impl Stage {
    /// The stage that consumes messages sent to `target`. Merger-bound
    /// messages route through the agent (which assigns the merge-order
    /// sequence and picks an instance), so `Target::Merger` maps to
    /// [`Stage::Agent`].
    pub fn of(target: Target) -> Stage {
        match target {
            Target::Nf(i) => Stage::Nf(i),
            Target::Merger(_) => Stage::Agent,
            Target::Output => Stage::Collector,
        }
    }
}

/// The static wiring plan: which stages each stage delivers messages to.
/// Derived once from the tables at seal time; engines instantiate one SPSC
/// ring per (producer stage, consumer stage) edge.
#[derive(Debug, Clone)]
pub struct WiringPlan {
    classifier: Vec<Stage>,
    nfs: Vec<Vec<Stage>>,
    /// Stages the agent reaches when releasing merge outcomes (each merge
    /// spec's `next` actions; may include the agent itself for chained
    /// parallel segments). Merger instances are prepended at query time
    /// because their count is an engine-config choice.
    agent_next: Vec<Stage>,
    /// Stages the switch forwards to; empty unless the program is switched.
    switch: Vec<Stage>,
}

fn add(stage: Stage, out: &mut Vec<Stage>) {
    if !out.contains(&stage) {
        out.push(stage);
    }
}

impl WiringPlan {
    fn from_tables(t: &GraphTables) -> Self {
        fn action_targets(actions: &[FtAction], out: &mut Vec<Stage>) {
            for a in actions {
                match a {
                    FtAction::Distribute { targets, .. } => {
                        for t in targets {
                            add(Stage::of(*t), out);
                        }
                    }
                    FtAction::Output { .. } => add(Stage::Collector, out),
                    FtAction::Copy { .. } => {}
                }
            }
        }
        let mut classifier = Vec::new();
        action_targets(&t.entry_actions, &mut classifier);
        let nfs = t
            .nf_configs
            .iter()
            .map(|cfg| {
                let mut out = Vec::new();
                action_targets(&cfg.actions, &mut out);
                if matches!(cfg.on_drop, DropBehavior::NilToMerger { .. }) {
                    // Nil packets travel the same edge as data copies.
                    add(Stage::Agent, &mut out);
                }
                out
            })
            .collect();
        let mut agent_next = Vec::new();
        for spec in &t.merge_specs {
            action_targets(&spec.next, &mut agent_next);
        }
        Self {
            classifier,
            nfs,
            agent_next,
            switch: Vec::new(),
        }
    }

    /// True when every hop goes through [`Stage::Switch`].
    pub fn switched(&self) -> bool {
        !self.switch.is_empty()
    }

    /// True when `self` and `other` describe the same ring mesh: the same
    /// stage set with the same edges, compared as sets (edge order within a
    /// stage's target list is an artifact of table iteration, not
    /// topology). Engines instantiate rings from the topology once at
    /// startup, so only a topology-identical program can be hot-swapped
    /// into a running engine.
    fn same_topology(&self, other: &WiringPlan) -> bool {
        fn same_edge_set(a: &[Stage], b: &[Stage]) -> bool {
            // Target lists are deduplicated at construction, so set
            // equality is length + containment.
            a.len() == b.len() && a.iter().all(|s| b.contains(s))
        }
        same_edge_set(&self.classifier, &other.classifier)
            && self.nfs.len() == other.nfs.len()
            && self
                .nfs
                .iter()
                .zip(&other.nfs)
                .all(|(a, b)| same_edge_set(a, b))
            && same_edge_set(&self.agent_next, &other.agent_next)
            && same_edge_set(&self.switch, &other.switch)
    }

    /// The stages `from` delivers packet messages to, given `mergers`
    /// instances behind the agent. (Merger→agent *outcome* rings are typed
    /// separately and are not part of this mesh.)
    pub fn targets_of(&self, from: Stage, mergers: usize) -> Vec<Stage> {
        match from {
            Stage::Classifier => self.classifier.clone(),
            Stage::Nf(i) => self.nfs.get(i).cloned().unwrap_or_default(),
            Stage::Agent => {
                let mut out: Vec<Stage> = (0..mergers).map(Stage::Merger).collect();
                for t in &self.agent_next {
                    if !out.contains(t) {
                        out.push(*t);
                    }
                }
                out
            }
            Stage::Switch => self.switch.clone(),
            // Merger instances return outcomes on typed rings; the
            // collector is a sink.
            Stage::Merger(_) | Stage::Collector => Vec::new(),
        }
    }
}

/// Invariant violations found while sealing a [`Program`]. Each names the
/// table inconsistency an engine would otherwise hit at runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProgramError {
    /// A forwarding action targets an NF id outside the graph.
    NfTargetOutOfRange {
        /// The out-of-range node id.
        node: usize,
        /// Number of NFs the tables configure.
        nf_count: usize,
    },
    /// A forwarding action targets a merger for a segment with no spec.
    MissingMergeSpec {
        /// The segment without a merge spec.
        segment: usize,
    },
    /// An entry/next action list references a version before any copy
    /// produced it.
    UnproducedVersion {
        /// The unproduced version.
        version: u8,
    },
    /// An action list copies into a version that already exists.
    DuplicateCopyVersion {
        /// The doubly-produced version.
        version: u8,
    },
    /// A merge spec's total count disagrees with its member list — the
    /// accumulating table would either merge early or wait forever.
    MergeTotalMismatch {
        /// The inconsistent segment.
        segment: usize,
        /// The spec's total count.
        total_count: usize,
        /// Members actually listed.
        members: usize,
    },
    /// A merge spec has no member carrying the original version v1.
    MissingOriginalMember {
        /// The offending segment.
        segment: usize,
    },
    /// Two members of one merge spec carry the same version.
    DuplicateMemberVersion {
        /// The offending segment.
        segment: usize,
        /// The duplicated version.
        version: u8,
    },
    /// A merge spec expects a copy version no forwarding action produces —
    /// the merge count could never close.
    UnclosableCopy {
        /// The offending segment.
        segment: usize,
        /// The never-produced version.
        version: u8,
    },
    /// A merge op names the original `v1` as its *source* version. Merge
    /// ops fold a copy's changes into v1; an op reading v1 would have the
    /// merger read the very slot it holds exclusively to write.
    MergeFromOriginal {
        /// The offending segment.
        segment: usize,
    },
    /// The tables configure a different NF count than the graph has nodes.
    NfConfigCountMismatch {
        /// Graph nodes.
        expected: usize,
        /// Table NF configs.
        got: usize,
    },
    /// A merge spec's segment index does not fit the
    /// [`tables::SEGMENT_BITS`] a merger-bound message carries.
    SegmentOutOfRange {
        /// The offending segment.
        segment: usize,
    },
    /// [`Program::via_switch`] met a parallel segment: a switch forwards
    /// each packet to one next NF, so it has no copies to merge.
    SwitchedParallelSegment {
        /// The parallel segment.
        segment: usize,
    },
}

impl core::fmt::Display for ProgramError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ProgramError::NfTargetOutOfRange { node, nf_count } => {
                write!(
                    f,
                    "forwarding target Nf({node}) out of range ({nf_count} NFs)"
                )
            }
            ProgramError::MissingMergeSpec { segment } => {
                write!(f, "no merge spec for merger-targeted segment {segment}")
            }
            ProgramError::UnproducedVersion { version } => {
                write!(
                    f,
                    "version {version} referenced before any copy produced it"
                )
            }
            ProgramError::DuplicateCopyVersion { version } => {
                write!(f, "version {version} produced twice in one action list")
            }
            ProgramError::MergeTotalMismatch {
                segment,
                total_count,
                members,
            } => write!(
                f,
                "segment {segment}: total_count {total_count} != {members} members"
            ),
            ProgramError::MissingOriginalMember { segment } => {
                write!(f, "segment {segment}: no member carries v1")
            }
            ProgramError::DuplicateMemberVersion { segment, version } => {
                write!(f, "segment {segment}: duplicate member version {version}")
            }
            ProgramError::UnclosableCopy { segment, version } => write!(
                f,
                "segment {segment}: member version {version} is never produced by a copy"
            ),
            ProgramError::MergeFromOriginal { segment } => {
                write!(f, "segment {segment}: a merge op reads from v1 itself")
            }
            ProgramError::NfConfigCountMismatch { expected, got } => {
                write!(
                    f,
                    "graph has {expected} nodes but tables configure {got} NFs"
                )
            }
            ProgramError::SegmentOutOfRange { segment } => write!(
                f,
                "segment {segment} does not fit {} bits of message tag",
                tables::SEGMENT_BITS
            ),
            ProgramError::SwitchedParallelSegment { segment } => {
                write!(f, "segment {segment} is parallel: a switch cannot steer it")
            }
        }
    }
}

impl std::error::Error for ProgramError {}

/// A sealed, validated, replicable execution artifact: everything an
/// engine (or N sharded engine replicas) needs to run one service graph.
#[derive(Debug, Clone)]
pub struct Program {
    tables: Arc<GraphTables>,
    wiring: WiringPlan,
    /// Per-`NodeId` write masks (the fields each NF's position permits it
    /// to modify).
    writes: Vec<FieldMask>,
    /// Worst-case pool slots one in-flight packet can occupy (original +
    /// fan-out copies + transient nil packets from drop-capable members).
    slots_per_packet: usize,
    /// Monotonically increasing program version. Freshly sealed programs
    /// start at epoch 0; the orchestrator stamps successors via
    /// [`Program::with_epoch`] and engines track which epoch classified
    /// each in-flight packet during a live swap.
    epoch: u64,
    /// NF type names by `NodeId` — the identity the compatibility check
    /// compares (a hot swap must keep the same NF at every position).
    nf_names: Arc<[String]>,
}

impl Program {
    /// Compile `graph` to tables under match ID `mid` and seal the result.
    pub fn compile(graph: &ServiceGraph, mid: u32) -> Result<Program, ProgramError> {
        Self::seal(tables::generate(graph, mid), graph)
    }

    /// Seal pre-generated `tables` against their source `graph`, running
    /// every invariant check.
    fn seal(tables: GraphTables, graph: &ServiceGraph) -> Result<Program, ProgramError> {
        if tables.nf_configs.len() != graph.nodes.len() {
            return Err(ProgramError::NfConfigCountMismatch {
                expected: graph.nodes.len(),
                got: tables.nf_configs.len(),
            });
        }
        validate_tables(&tables)?;
        let wiring = WiringPlan::from_tables(&tables);
        let writes = graph.nodes.iter().map(|n| n.profile.write_mask()).collect();
        let slots_per_packet = slots_per_packet(graph);
        let nf_names = graph
            .nodes
            .iter()
            .map(|n| n.name.as_str().to_owned())
            .collect();
        Ok(Program {
            tables: Arc::new(tables),
            wiring,
            writes,
            slots_per_packet,
            epoch: 0,
            nf_names,
        })
    }

    /// This program's version id. Fresh seals are epoch 0. (Read per
    /// message by the dataplane's epoch resolver, hence `#[inline]`.)
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The same program stamped with a new epoch id — how the orchestrator
    /// versions a recompiled program before offering it to a running
    /// engine. Epochs must increase monotonically per engine; the diff
    /// check rejects anything else.
    pub fn with_epoch(mut self, epoch: u64) -> Self {
        self.epoch = epoch;
        self
    }

    /// NF type names by graph position (the identity a hot swap preserves).
    pub fn nf_names(&self) -> &[String] {
        &self.nf_names
    }

    /// The sealed tables (shared with classifiers and engine stages).
    #[inline]
    pub fn tables(&self) -> &Arc<GraphTables> {
        &self.tables
    }

    /// The match ID this program serves.
    fn mid(&self) -> u32 {
        self.tables.mid
    }

    /// Number of NF positions the program drives.
    pub fn nf_count(&self) -> usize {
        self.tables.nf_configs.len()
    }

    /// The stage wiring plan.
    pub fn wiring(&self) -> &WiringPlan {
        &self.wiring
    }

    /// Fields NF `node` may write at its graph position.
    #[cfg(test)]
    fn writes_of(&self, node: usize) -> FieldMask {
        self.writes.get(node).copied().unwrap_or(FieldMask::EMPTY)
    }

    /// Graph positions occupied by stateful NFs (per-flow state that must
    /// be exported/imported across shard-count changes). Empty for an
    /// all-stateless program — a rescale can then skip the state-migration
    /// pass entirely.
    #[cfg(test)]
    fn stateful_nodes(&self) -> Vec<usize> {
        self.tables
            .nf_configs
            .iter()
            .enumerate()
            .filter(|(_, cfg)| cfg.stateful)
            .map(|(i, _)| i)
            .collect()
    }

    /// Worst-case pool slots one admitted packet can occupy at once. An
    /// engine's pool must cover `max_in_flight × slots_per_packet` or the
    /// closed loop can wedge on pool exhaustion.
    pub fn slots_per_packet(&self) -> usize {
        self.slots_per_packet
    }

    /// The same program with every classifier → NF, NF → NF and NF →
    /// collector edge routed through one [`Stage::Switch`], OpenNetVM's
    /// centralized steering: a chain of n NFs then costs n + 1 switch
    /// transits per delivered packet. Refuses a program with a parallel
    /// segment, which ONVM has no way to run.
    pub fn via_switch(mut self) -> Result<Program, ProgramError> {
        if let Some(spec) = self.tables.merge_specs.first() {
            return Err(ProgramError::SwitchedParallelSegment {
                segment: spec.segment,
            });
        }
        let w = &mut self.wiring;
        let hops = std::iter::once(&mut w.classifier).chain(&mut w.nfs);
        for targets in hops.filter(|t| !t.is_empty()) {
            for to in std::mem::replace(targets, vec![Stage::Switch]) {
                add(to, &mut w.switch);
            }
        }
        Ok(self)
    }
}

/// Why a candidate program cannot hot-swap over a running one. Every
/// variant means the caller must cold-restart the engine (tear down rings
/// and threads, rebuild from the new program) instead of reconfiguring it
/// live.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UpdateRejection {
    /// The candidate's epoch does not advance the running epoch — either a
    /// replay of the current program or an out-of-order update.
    StaleEpoch {
        /// Epoch of the running program.
        current: u64,
        /// Epoch the candidate carries.
        offered: u64,
    },
    /// The candidate serves a different match ID; in-flight packets are
    /// stamped with the running MID and could never resolve against it.
    MidChanged {
        /// Running program's MID.
        current: u32,
        /// Candidate's MID.
        offered: u32,
    },
    /// The candidate has a different number of NF positions — the engine's
    /// NF threads and rings cannot be re-counted live.
    NfCountChanged {
        /// Running NF count.
        current: usize,
        /// Candidate NF count.
        offered: usize,
    },
    /// A graph position is occupied by a different NF type — the engine
    /// would need to construct new NF state mid-stream.
    NfReplaced {
        /// The position that changed.
        node: usize,
        /// NF type running there.
        current: String,
        /// NF type the candidate wants there.
        offered: String,
    },
    /// The candidate's ring topology differs from the mesh the engine
    /// instantiated at startup.
    TopologyChanged,
    /// The candidate needs more pool slots per in-flight packet than the
    /// running program was provisioned for; admitting under it could wedge
    /// the pool.
    FootprintGrew {
        /// Slots per packet the running engine provisioned.
        current: usize,
        /// Slots per packet the candidate requires.
        offered: usize,
    },
}

impl core::fmt::Display for UpdateRejection {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            UpdateRejection::StaleEpoch { current, offered } => {
                write!(f, "stale epoch {offered} (running epoch {current})")
            }
            UpdateRejection::MidChanged { current, offered } => {
                write!(f, "MID changed {current} -> {offered}")
            }
            UpdateRejection::NfCountChanged { current, offered } => {
                write!(f, "NF count changed {current} -> {offered}")
            }
            UpdateRejection::NfReplaced {
                node,
                current,
                offered,
            } => write!(f, "NF at position {node} replaced: {current} -> {offered}"),
            UpdateRejection::TopologyChanged => write!(f, "ring topology changed"),
            UpdateRejection::FootprintGrew { current, offered } => write!(
                f,
                "pool footprint grew: {current} -> {offered} slots per packet"
            ),
        }
    }
}

impl std::error::Error for UpdateRejection {}

/// The orchestrator-side diff between a running program and a candidate:
/// proof that the candidate is hot-swappable plus a summary of what
/// actually changed (for operators and for engines deciding whether the
/// swap is a no-op).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProgramUpdate {
    /// Epoch of the running program.
    from_epoch: u64,
    /// Epoch of the candidate.
    to_epoch: u64,
    /// The classifier's entry actions changed.
    entry_actions_changed: bool,
    /// Graph positions whose runtime config (forwarding actions, access
    /// mode, drop/failure policy) changed.
    nfs_changed: Vec<usize>,
    /// Any merge spec (membership, priorities, merge ops, next hops)
    /// changed.
    merge_specs_changed: bool,
    /// Any per-position write mask changed.
    writes_changed: bool,
}

impl ProgramUpdate {
    /// Check whether `new` can replace `old` in a running engine. Returns
    /// the diff when the swap is safe (same MID, same NF set, same ring
    /// topology, no pool-footprint growth, strictly advancing epoch);
    /// otherwise the structured reason a cold restart is required.
    pub fn diff(old: &Program, new: &Program) -> Result<ProgramUpdate, UpdateRejection> {
        if new.epoch() <= old.epoch() {
            return Err(UpdateRejection::StaleEpoch {
                current: old.epoch(),
                offered: new.epoch(),
            });
        }
        if new.mid() != old.mid() {
            return Err(UpdateRejection::MidChanged {
                current: old.mid(),
                offered: new.mid(),
            });
        }
        if new.nf_count() != old.nf_count() {
            return Err(UpdateRejection::NfCountChanged {
                current: old.nf_count(),
                offered: new.nf_count(),
            });
        }
        for (node, (a, b)) in old.nf_names().iter().zip(new.nf_names()).enumerate() {
            if a != b {
                return Err(UpdateRejection::NfReplaced {
                    node,
                    current: a.clone(),
                    offered: b.clone(),
                });
            }
        }
        if !old.wiring().same_topology(new.wiring()) {
            return Err(UpdateRejection::TopologyChanged);
        }
        if new.slots_per_packet() > old.slots_per_packet() {
            return Err(UpdateRejection::FootprintGrew {
                current: old.slots_per_packet(),
                offered: new.slots_per_packet(),
            });
        }
        let ot = old.tables();
        let nt = new.tables();
        Ok(ProgramUpdate {
            from_epoch: old.epoch(),
            to_epoch: new.epoch(),
            entry_actions_changed: ot.entry_actions != nt.entry_actions,
            nfs_changed: ot
                .nf_configs
                .iter()
                .zip(&nt.nf_configs)
                .enumerate()
                .filter(|(_, (a, b))| a != b)
                .map(|(i, _)| i)
                .collect(),
            merge_specs_changed: ot.merge_specs != nt.merge_specs,
            writes_changed: old.writes != new.writes,
        })
    }

    /// True when the candidate is byte-identical policy-wise — swapping to
    /// it only advances the epoch.
    #[cfg(test)]
    fn is_noop(&self) -> bool {
        !self.entry_actions_changed
            && self.nfs_changed.is_empty()
            && !self.merge_specs_changed
            && !self.writes_changed
    }
}

/// Worst case per packet: the original, plus (per parallel segment, of
/// which one is active at a time) its fan-out copies plus one transient
/// nil slot per drop-capable member.
fn slots_per_packet(graph: &ServiceGraph) -> usize {
    let worst_segment = graph
        .segments
        .iter()
        .map(|seg| match seg {
            Segment::Sequential(_) => 0,
            Segment::Parallel(grp) => {
                grp.copies() + grp.members.iter().filter(|m| m.drop_capable).count()
            }
        })
        .max()
        .unwrap_or(0);
    1 + worst_segment
}

fn validate_tables(t: &GraphTables) -> Result<(), ProgramError> {
    if let Some(spec) = t
        .merge_specs
        .iter()
        .find(|spec| spec.segment >> tables::SEGMENT_BITS != 0)
    {
        return Err(ProgramError::SegmentOutOfRange {
            segment: spec.segment,
        });
    }
    let nf_count = t.nf_configs.len();
    let check_targets = |actions: &[FtAction]| -> Result<(), ProgramError> {
        for a in actions {
            if let FtAction::Distribute { targets, .. } = a {
                for target in targets {
                    match target {
                        Target::Nf(i) if *i >= nf_count => {
                            return Err(ProgramError::NfTargetOutOfRange { node: *i, nf_count });
                        }
                        Target::Merger(s) if t.merge_spec_for(*s).is_none() => {
                            return Err(ProgramError::MissingMergeSpec { segment: *s });
                        }
                        _ => {}
                    }
                }
            }
        }
        Ok(())
    };
    // Entry actions and merge `next` actions start from a lone v1 and must
    // produce every version before referencing it.
    let check_versions = |actions: &[FtAction]| -> Result<(), ProgramError> {
        let mut produced = vec![VERSION_ORIGINAL];
        for a in actions {
            match a {
                FtAction::Copy { from, to, .. } => {
                    if !produced.contains(from) {
                        return Err(ProgramError::UnproducedVersion { version: *from });
                    }
                    if produced.contains(to) {
                        return Err(ProgramError::DuplicateCopyVersion { version: *to });
                    }
                    produced.push(*to);
                }
                FtAction::Distribute { version, .. } | FtAction::Output { version } => {
                    if !produced.contains(version) {
                        return Err(ProgramError::UnproducedVersion { version: *version });
                    }
                }
            }
        }
        Ok(())
    };
    check_targets(&t.entry_actions)?;
    check_versions(&t.entry_actions)?;
    for cfg in &t.nf_configs {
        // Per-NF slices operate on whatever version the member carries, so
        // only target ranges are checkable here.
        check_targets(&cfg.actions)?;
        if let DropBehavior::NilToMerger { segment, .. } = cfg.on_drop {
            if t.merge_spec_for(segment).is_none() {
                return Err(ProgramError::MissingMergeSpec { segment });
            }
        }
    }
    // Every copy version any action list produces, for closability checks.
    let mut all_copies: Vec<u8> = Vec::new();
    let mut collect_copies = |actions: &[FtAction]| {
        for a in actions {
            if let FtAction::Copy { to, .. } = a {
                if !all_copies.contains(to) {
                    all_copies.push(*to);
                }
            }
        }
    };
    collect_copies(&t.entry_actions);
    for cfg in &t.nf_configs {
        collect_copies(&cfg.actions);
    }
    for spec in &t.merge_specs {
        collect_copies(&spec.next);
    }
    for spec in &t.merge_specs {
        check_targets(&spec.next)?;
        check_versions(&spec.next)?;
        if spec.total_count != spec.members.len() || spec.members.is_empty() {
            return Err(ProgramError::MergeTotalMismatch {
                segment: spec.segment,
                total_count: spec.total_count,
                members: spec.members.len(),
            });
        }
        if !spec.members.iter().any(|m| m.version == VERSION_ORIGINAL) {
            return Err(ProgramError::MissingOriginalMember {
                segment: spec.segment,
            });
        }
        // Several members may *share* v1 (OP#1 Dirty Memory Reusing), but a
        // copy version identifies exactly one member.
        let mut versions: Vec<u8> = spec
            .members
            .iter()
            .map(|m| m.version)
            .filter(|&v| v != VERSION_ORIGINAL)
            .collect();
        versions.sort_unstable();
        for w in versions.windows(2) {
            if w[0] == w[1] {
                return Err(ProgramError::DuplicateMemberVersion {
                    segment: spec.segment,
                    version: w[0],
                });
            }
        }
        let reads_original = |op: &MergeOp| {
            matches!(
                op,
                MergeOp::Modify { from_version, .. } | MergeOp::AddHeader { from_version, .. }
                    if *from_version == VERSION_ORIGINAL
            )
        };
        if spec.ops.iter().any(reads_original) {
            return Err(ProgramError::MergeFromOriginal {
                segment: spec.segment,
            });
        }
        for m in &spec.members {
            if m.version != VERSION_ORIGINAL && !all_copies.contains(&m.version) {
                return Err(ProgramError::UnclosableCopy {
                    segment: spec.segment,
                    version: m.version,
                });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{compile, CompileOptions};
    use crate::table2::Registry;
    use nfp_policy::Policy;

    fn graph(chain: &[&str]) -> ServiceGraph {
        compile(
            &Policy::from_chain(chain.iter().copied()),
            &Registry::paper_table2(),
            &[],
            &CompileOptions::default(),
        )
        .unwrap()
        .graph
    }

    #[test]
    fn firewall_chain_seals() {
        let g = graph(&["Monitor", "Firewall"]);
        let p = Program::compile(&g, 3).unwrap();
        assert_eq!(p.mid(), 3);
        assert_eq!(p.nf_count(), 2);
        // v1 shared pair, firewall drop-capable: 1 + (0 copies + 1 nil).
        assert_eq!(p.slots_per_packet(), 2);
        assert!(!p.writes_of(0).contains(nfp_packet::FieldId::Payload));
    }

    #[test]
    fn wiring_mirrors_tables() {
        let g = graph(&["VPN", "Monitor", "Firewall", "LoadBalancer"]);
        let p = Program::compile(&g, 1).unwrap();
        let w = p.wiring();
        let vpn = g.node_by_name("VPN").unwrap();
        let lb = g.node_by_name("LoadBalancer").unwrap();
        // Classifier feeds the VPN; VPN fans out to the parallel pair.
        assert_eq!(w.targets_of(Stage::Classifier, 2), vec![Stage::Nf(vpn)]);
        let vpn_targets = w.targets_of(Stage::Nf(vpn), 2);
        assert_eq!(vpn_targets.len(), 2);
        // Agent reaches its mergers plus the merge spec's next hop (LB).
        let agent = w.targets_of(Stage::Agent, 2);
        assert!(agent.contains(&Stage::Merger(0)) && agent.contains(&Stage::Merger(1)));
        assert!(agent.contains(&Stage::Nf(lb)));
        // LB outputs.
        assert_eq!(w.targets_of(Stage::Nf(lb), 2), vec![Stage::Collector]);
        // Sinks have no outgoing message rings.
        assert!(w.targets_of(Stage::Merger(0), 2).is_empty());
        assert!(w.targets_of(Stage::Collector, 2).is_empty());
    }

    #[test]
    fn stateful_nodes_reflect_profiles() {
        let g = graph(&["VPN", "Monitor", "Firewall", "LoadBalancer"]);
        let p = Program::compile(&g, 1).unwrap();
        let monitor = g.node_by_name("Monitor").unwrap();
        let lb = g.node_by_name("LoadBalancer").unwrap();
        let mut expected = vec![monitor, lb];
        expected.sort_unstable();
        assert_eq!(p.stateful_nodes(), expected);
    }

    #[test]
    fn out_of_range_target_rejected() {
        let g = graph(&["Monitor", "Firewall"]);
        let mut t = tables::generate(&g, 1);
        if let Some(FtAction::Distribute { targets, .. }) = t.entry_actions.first_mut() {
            targets[0] = Target::Nf(99);
        }
        assert_eq!(
            Program::seal(t, &g).unwrap_err(),
            ProgramError::NfTargetOutOfRange {
                node: 99,
                nf_count: 2
            }
        );
    }

    #[test]
    fn merge_total_mismatch_rejected() {
        let g = graph(&["Monitor", "Firewall"]);
        let mut t = tables::generate(&g, 1);
        t.merge_specs[0].total_count += 1;
        assert!(matches!(
            Program::seal(t, &g).unwrap_err(),
            ProgramError::MergeTotalMismatch { .. }
        ));
    }

    #[test]
    fn unclosable_copy_rejected() {
        // Monitor ∥ LB: the LB's member rides a copy (v2). Removing the
        // copy action leaves the merge spec waiting for a version nobody
        // produces.
        let g = graph(&["Monitor", "LoadBalancer"]);
        let mut t = tables::generate(&g, 1);
        t.entry_actions
            .retain(|a| !matches!(a, FtAction::Copy { .. }));
        t.entry_actions.retain(
            |a| !matches!(a, FtAction::Distribute { version, .. } if *version != VERSION_ORIGINAL),
        );
        assert!(matches!(
            Program::seal(t, &g).unwrap_err(),
            ProgramError::UnclosableCopy { .. }
        ));
    }

    #[test]
    fn merge_op_reading_the_original_rejected() {
        // Monitor ∥ LB folds the LB's rewrites from its copy (v2) into v1.
        // Re-pointing one op at v1 would make the merger read the slot it
        // is writing.
        let g = graph(&["Monitor", "LoadBalancer"]);
        let mut t = tables::generate(&g, 1);
        let segment = t.merge_specs[0].segment;
        match t.merge_specs[0].ops.first_mut() {
            Some(MergeOp::Modify { from_version, .. }) => *from_version = VERSION_ORIGINAL,
            other => panic!("expected a Modify op, got {other:?}"),
        }
        assert_eq!(
            Program::seal(t, &g).unwrap_err(),
            ProgramError::MergeFromOriginal { segment }
        );
    }

    #[test]
    fn missing_merge_spec_rejected() {
        let g = graph(&["Monitor", "Firewall"]);
        let mut t = tables::generate(&g, 1);
        t.merge_specs.clear();
        assert!(matches!(
            Program::seal(t, &g).unwrap_err(),
            ProgramError::MissingMergeSpec { .. }
        ));
    }

    /// A merger-bound message carries its segment in 16 bits of tag, so
    /// sealing refuses a segment index that would not fit — the highest
    /// that does still seals.
    #[test]
    fn segment_beyond_the_message_tag_rejected() {
        let g = graph(&["Monitor", "Firewall"]);
        let retarget = |segment: usize| {
            let mut t = tables::generate(&g, 1);
            let old = t.merge_specs[0].segment;
            t.merge_specs[0].segment = segment;
            let actions = t
                .entry_actions
                .iter_mut()
                .chain(t.nf_configs.iter_mut().flat_map(|c| c.actions.iter_mut()));
            for action in actions {
                if let FtAction::Distribute { targets, .. } = action {
                    for target in targets.iter_mut().filter(|t| **t == Target::Merger(old)) {
                        *target = Target::Merger(segment);
                    }
                }
            }
            for cfg in &mut t.nf_configs {
                if let DropBehavior::NilToMerger { segment: s, .. } = &mut cfg.on_drop {
                    *s = segment;
                }
            }
            Program::seal(t, &g)
        };
        let max = (1 << tables::SEGMENT_BITS) - 1;
        assert!(retarget(max).is_ok());
        assert_eq!(
            retarget(max + 1).unwrap_err(),
            ProgramError::SegmentOutOfRange { segment: max + 1 }
        );
    }

    #[test]
    fn nf_config_count_mismatch_rejected() {
        let g = graph(&["Monitor", "Firewall"]);
        let mut t = tables::generate(&g, 1);
        t.nf_configs.pop();
        assert!(matches!(
            Program::seal(t, &g).unwrap_err(),
            ProgramError::NfConfigCountMismatch {
                expected: 2,
                got: 1
            }
        ));
    }

    #[test]
    fn sequential_chain_needs_one_slot() {
        let g = graph(&["NAT", "LoadBalancer"]); // unparallelizable
        let p = Program::compile(&g, 1).unwrap();
        assert_eq!(p.slots_per_packet(), 1);
        assert!(p.tables().merge_specs.is_empty());
    }

    /// A switched program steers every hop through the switch, which
    /// reaches each NF and the collector; a parallel segment is refused.
    #[test]
    fn via_switch_reroutes_every_hop_and_refuses_parallel_segments() {
        let parallel = Program::compile(&graph(&["Monitor", "Firewall"]), 1).unwrap();
        let segment = parallel.tables().merge_specs[0].segment;
        let refused = parallel.via_switch().unwrap_err();
        assert_eq!(refused, ProgramError::SwitchedParallelSegment { segment });
        let plain = Program::compile(&graph(&["NAT", "LoadBalancer"]), 1).unwrap();
        let switched = plain.via_switch().unwrap();
        let w = switched.wiring();
        for from in [Stage::Classifier, Stage::Nf(0), Stage::Nf(1)] {
            assert_eq!(w.targets_of(from, 1), vec![Stage::Switch]);
        }
        let reached = w.targets_of(Stage::Switch, 1);
        let want = [Stage::Nf(0), Stage::Nf(1), Stage::Collector];
        assert!(w.switched() && reached.len() == 3, "{reached:?}");
        assert!(want.iter().all(|s| reached.contains(s)), "{reached:?}");
    }

    #[test]
    fn copy_segment_counts_copy_slots() {
        let g = graph(&["Monitor", "LoadBalancer"]); // one header-only copy
        let p = Program::compile(&g, 1).unwrap();
        assert_eq!(p.slots_per_packet(), 2);
    }

    /// Same chain compiled against a registry whose Firewall profile pins
    /// the opposite failure policy — the canonical "policy edit" that must
    /// hot-swap.
    fn policy_edit(chain: &[&str], mid: u32) -> Program {
        let mut reg = Registry::paper_table2();
        let mut fw = reg.get("Firewall").unwrap().clone();
        fw.failure = Some(crate::action::FailurePolicy::FailOpen);
        reg.register(fw);
        let g = compile(
            &Policy::from_chain(chain.iter().copied()),
            &reg,
            &[],
            &CompileOptions::default(),
        )
        .unwrap()
        .graph;
        Program::compile(&g, mid).unwrap()
    }

    #[test]
    fn policy_edit_is_hot_swappable() {
        let old = Program::compile(&graph(&["Monitor", "Firewall"]), 1).unwrap();
        let new = policy_edit(&["Monitor", "Firewall"], 1).with_epoch(1);
        let upd = ProgramUpdate::diff(&old, &new).unwrap();
        assert_eq!(upd.from_epoch, 0);
        assert_eq!(upd.to_epoch, 1);
        assert!(!upd.is_noop());
        let fw = graph(&["Monitor", "Firewall"])
            .node_by_name("Firewall")
            .unwrap();
        assert_eq!(upd.nfs_changed, vec![fw]);
        assert!(!upd.entry_actions_changed);
    }

    #[test]
    fn identical_recompile_is_noop_update() {
        let old = Program::compile(&graph(&["Monitor", "Firewall"]), 1).unwrap();
        let new = Program::compile(&graph(&["Monitor", "Firewall"]), 1)
            .unwrap()
            .with_epoch(7);
        let upd = ProgramUpdate::diff(&old, &new).unwrap();
        assert!(upd.is_noop());
        assert_eq!(upd.to_epoch, 7);
    }

    #[test]
    fn stale_epoch_rejected() {
        let old = Program::compile(&graph(&["Monitor", "Firewall"]), 1)
            .unwrap()
            .with_epoch(3);
        let new = Program::compile(&graph(&["Monitor", "Firewall"]), 1)
            .unwrap()
            .with_epoch(3);
        assert_eq!(
            ProgramUpdate::diff(&old, &new).unwrap_err(),
            UpdateRejection::StaleEpoch {
                current: 3,
                offered: 3
            }
        );
    }

    #[test]
    fn nf_set_changes_need_cold_restart() {
        let old = Program::compile(&graph(&["Monitor", "Firewall"]), 1).unwrap();
        // Different NF at position: replaced type.
        let swapped = Program::compile(&graph(&["Monitor", "NAT"]), 1)
            .unwrap()
            .with_epoch(1);
        assert!(matches!(
            ProgramUpdate::diff(&old, &swapped).unwrap_err(),
            UpdateRejection::NfReplaced { node: _, .. }
        ));
        // Different NF count.
        let grown = Program::compile(&graph(&["Monitor", "Firewall", "NAT"]), 1)
            .unwrap()
            .with_epoch(1);
        assert_eq!(
            ProgramUpdate::diff(&old, &grown).unwrap_err(),
            UpdateRejection::NfCountChanged {
                current: 2,
                offered: 3
            }
        );
        // Different MID.
        let other_mid = Program::compile(&graph(&["Monitor", "Firewall"]), 2)
            .unwrap()
            .with_epoch(1);
        assert!(matches!(
            ProgramUpdate::diff(&old, &other_mid).unwrap_err(),
            UpdateRejection::MidChanged {
                current: 1,
                offered: 2
            }
        ));
    }

    #[test]
    fn topology_change_needs_cold_restart() {
        // Monitor ∥ Firewall runs parallel (agent + merger edges); forcing
        // a strict order compiles to a sequential chain — same NF set,
        // different ring mesh.
        let old = Program::compile(&graph(&["Monitor", "Firewall"]), 1).unwrap();
        let sequential = compile(
            &Policy::from_chain(["Monitor", "Firewall"]),
            &Registry::paper_table2(),
            &[],
            &CompileOptions {
                force_sequential: true,
                ..CompileOptions::default()
            },
        )
        .unwrap()
        .graph;
        let new = Program::compile(&sequential, 1).unwrap().with_epoch(1);
        assert_eq!(
            ProgramUpdate::diff(&old, &new).unwrap_err(),
            UpdateRejection::TopologyChanged
        );
    }
}
