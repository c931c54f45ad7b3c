//! The merger **agent/sequencer core** — router plus result-correctness
//! sequencer (paper §4.3, §5.3).
//!
//! With several merger instances, merges finish in racy order. If each
//! instance forwarded its merged packets downstream directly, packets
//! would cross the merge boundary in a different order than the
//! sequential reference — and any stateful downstream NF (a VPN's
//! per-packet sequence counter, say) would then produce byte-different
//! output, violating the paper's result-correctness principle.
//!
//! The agent therefore acts as router *and* sequencer. [`AgentCore::route`]
//! assigns a dense per-(MID, segment) sequence number (48 bits, wrapping
//! with [`crate::actions::Msg::seq`]) at the **first** copy of each PID —
//! first-copy order across FIFO member rings is provably ascending-PID
//! order — stamps every copy of that PID with the same sequence, and
//! picks a merger instance by PID hash. Merger instances merge in
//! parallel but hand their [`Outcome`]s back; [`AgentCore::release`]
//! releases them strictly in sequence order, executing the merge spec's
//! `next` actions. Every seq gets exactly one
//! outcome (dropped packets included — dropping members emit nils, so
//! every merge completes), so the release cursor never stalls.
//!
//! The one-outcome-per-seq invariant survives NF failure because the two
//! failure paths preserve it: a merge whose copies stop arriving is
//! resolved at its deadline ([`crate::cores::MergerCore::expire`]) with
//! an outcome carrying the seq the entry's first copy was stamped with
//! (seqs are assigned at the *first* copy, so every AT entry has one),
//! and stragglers arriving after expiry are swallowed by the entry's
//! tombstone without producing a second outcome.

use crate::actions::{self, Deliver, Msg, VersionMap, SEQ_MASK};
use crate::idmap::IdMap;
use crate::merger;
use crate::stats::StageStats;
use crate::swap::TablesResolver;
use nfp_packet::meta::VERSION_ORIGINAL;
use nfp_packet::pool::{PacketPool, PacketRef};
use std::collections::hash_map::Entry;

/// A merge outcome returned from a merger instance to the agent.
#[derive(Debug, Clone, Copy)]
pub struct Outcome {
    /// Match ID of the merged packet.
    pub(crate) mid: u32,
    /// Parallel segment the merge belongs to.
    pub(crate) segment: u32,
    /// The agent-assigned merge-order sequence number.
    pub(crate) seq: u64,
    /// The program epoch the packet was classified under — release
    /// resolves the merge spec's `next` actions against this epoch, and
    /// merge-resolved drops are settled against it.
    pub(crate) epoch: u64,
    /// Merged v1 to forward; `None` when the merge resolved to a drop or
    /// failed (the merger already released all references).
    pub forward: Option<PacketRef>,
    /// True when the merge errored rather than resolving to a drop.
    pub error: bool,
}

/// Per-(MID, segment) sequence assignment.
#[derive(Default)]
struct AssignState {
    next_seq: u64,
    /// PID → (assigned seq, copies routed so far). Entries are removed
    /// once all `total_count` copies have passed through, so the map holds
    /// at most the in-flight window.
    by_pid: IdMap<u64, (u64, usize)>,
}

/// Per-(MID, segment) in-order release of merge outcomes. Each pending
/// outcome keeps the epoch its packet was classified under, so a release
/// that straddles a live swap still executes every packet's `next`
/// actions against the tables that classified it.
#[derive(Default)]
struct ReleaseState {
    next_seq: u64,
    /// Outcomes that arrived ahead of `next_seq`: seq → (forward, epoch).
    ready: IdMap<u64, (Option<PacketRef>, u64)>,
}

/// The agent/sequencer core. One per execution domain (engine or shard);
/// its state is what must stay shard-local for sharded replication to
/// preserve result correctness.
pub(crate) struct AgentCore {
    instances: usize,
    assign: IdMap<(u32, u32), AssignState>,
    release: IdMap<(u32, u32), ReleaseState>,
}

impl AgentCore {
    /// An agent routing onto `instances` merger instances.
    pub(crate) fn new(instances: usize) -> Self {
        assert!(instances >= 1, "at least one merger instance");
        Self {
            instances,
            assign: IdMap::default(),
            release: IdMap::default(),
        }
    }

    /// Route a burst of merger-bound copies/nils: stamp each one's
    /// merge-order sequence and hand it to `send` with the index of the
    /// merger instance it goes to.
    pub(crate) fn route(
        &mut self,
        msgs: &[Msg],
        pool: &PacketPool,
        resolver: &mut TablesResolver,
        stats: &StageStats,
        mut send: impl FnMut(usize, Msg),
    ) {
        for &msg in msgs {
            stats.note_in(1);
            let (mid, pid, epoch) = pool.with(msg.r, |p| {
                (p.meta().mid(), p.meta().pid(), p.meta().epoch())
            });
            let segment = msg.segment();
            let total = resolver
                .tables(epoch, stats)
                .merge_spec_for(segment as usize)
                .expect("merger msg implies spec")
                .total_count;
            let st = self.assign.entry((mid, segment)).or_default();
            // One probe per copy: the first copy of a PID takes the next
            // seq, the last one takes its entry out.
            let seq = match st.by_pid.entry(pid) {
                Entry::Occupied(mut e) => {
                    e.get_mut().1 += 1;
                    let (seq, routed) = *e.get();
                    if routed >= total {
                        e.remove();
                    }
                    seq
                }
                Entry::Vacant(e) => {
                    let seq = st.next_seq;
                    st.next_seq = (seq + 1) & SEQ_MASK;
                    if total > 1 {
                        e.insert((seq, 1));
                    }
                    seq
                }
            };
            let mut msg = msg;
            msg.set_seq(seq);
            stats.note_out(1);
            send(merger::agent_pick(pid, self.instances), msg);
        }
    }

    /// Accept one merge outcome and release every outcome that is now in
    /// sequence order, executing the merge spec's `next` actions into
    /// `sink`. The epoch of every merge-resolved drop surfaced is pushed
    /// onto `drops` (the closed loop must account each against the epoch
    /// that admitted it).
    pub(crate) fn release(
        &mut self,
        o: Outcome,
        pool: &PacketPool,
        resolver: &mut TablesResolver,
        sink: &mut impl Deliver,
        stats: &StageStats,
        drops: &mut Vec<u64>,
    ) {
        let rs = self.release.entry((o.mid, o.segment)).or_default();
        if o.seq != rs.next_seq {
            // Ahead of its turn: park it until the cursor gets there.
            rs.ready.insert(o.seq, (o.forward, o.epoch));
            return;
        }
        // The outcome the cursor is waiting for goes straight out, and
        // takes with it whatever was parked right behind it.
        let mut due = (o.forward, o.epoch);
        loop {
            rs.next_seq = (rs.next_seq + 1) & SEQ_MASK;
            match due {
                (Some(v1), epoch) => {
                    let spec = resolver
                        .tables(epoch, stats)
                        .merge_spec_for(o.segment as usize)
                        .expect("outcome implies spec");
                    let mut versions = VersionMap::single(VERSION_ORIGINAL, v1);
                    actions::execute(&spec.next, pool, &mut versions, sink, stats)
                        .expect("merger next actions");
                }
                (None, epoch) => drops.push(epoch),
            }
            if rs.ready.is_empty() {
                break;
            }
            match rs.ready.remove(&rs.next_seq) {
                Some(parked) => due = parked,
                None => break,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::swap::ProgramHandle;
    use nfp_orchestrator::tables::Target;
    use nfp_orchestrator::{compile, CompileOptions, Program, Registry};
    use nfp_packet::meta::Metadata;
    use nfp_policy::Policy;
    use std::sync::Arc;

    #[derive(Default)]
    struct Capture(Vec<Msg>);
    impl Deliver for Capture {
        fn deliver(&mut self, _target: Target, msg: Msg) {
            self.0.push(msg);
        }
    }

    /// Sequence numbers wrap at the 48 bits a `Msg` carries, and the
    /// release cursor wraps with them: outcomes handed back out of order
    /// on both sides of the wrap point still leave in sequence order.
    #[test]
    fn release_order_holds_across_the_sequence_wrap() {
        let graph = compile(
            &Policy::from_chain(["Monitor", "Firewall"]),
            &Registry::paper_table2(),
            &[],
            &CompileOptions::default(),
        )
        .unwrap()
        .graph;
        let program = Program::compile(&graph, 1).unwrap();
        let spec = program.tables().merge_specs[0].clone();
        let segment = spec.segment as u32;
        let mut resolver = TablesResolver::new(Arc::new(ProgramHandle::new(program)));
        let pool = PacketPool::new(16);
        let stats = StageStats::new();
        let mut agent = AgentCore::new(2);
        let start = SEQ_MASK - 1;
        agent.assign.entry((1, segment)).or_default().next_seq = start;
        agent.release.entry((1, segment)).or_default().next_seq = start;

        // Four packets, every copy of each routed: their seqs straddle
        // the wrap point.
        let refs: Vec<PacketRef> = (0..4u64)
            .map(|pid| {
                let mut p = nfp_traffic::gen::build_tcp_frame(
                    nfp_packet::ipv4::Ipv4Addr::new(1, 1, 1, 1),
                    nfp_packet::ipv4::Ipv4Addr::new(2, 2, 2, 2),
                    10,
                    80,
                    b"",
                );
                p.set_meta(Metadata::new(1, pid, VERSION_ORIGINAL));
                pool.insert(p).unwrap()
            })
            .collect();
        let copies: Vec<Msg> = refs
            .iter()
            .flat_map(|&r| (0..spec.total_count).map(move |_| Msg::to_segment(r, segment)))
            .collect();
        let mut routed = Vec::new();
        agent.route(&copies, &pool, &mut resolver, &stats, |_, msg| {
            routed.push(msg)
        });
        let seqs: Vec<u64> = routed
            .iter()
            .step_by(spec.total_count)
            .map(|m| m.seq())
            .collect();
        assert_eq!(seqs, vec![SEQ_MASK - 1, SEQ_MASK, 0, 1]);
        assert!(routed.iter().all(|m| m.segment() == segment));

        // Outcomes come back in the worst order: the two after the wrap
        // first, then the two before it.
        let mut sink = Capture::default();
        let mut drops = Vec::new();
        for i in [3, 2, 1, 0] {
            let outcome = Outcome {
                mid: 1,
                segment,
                seq: seqs[i],
                epoch: 0,
                forward: Some(refs[i]),
                error: false,
            };
            agent.release(outcome, &pool, &mut resolver, &mut sink, &stats, &mut drops);
            let released = if i == 0 { 4 } else { 0 };
            assert_eq!(sink.0.len(), released, "released before seq {}", seqs[0]);
        }
        let order: Vec<PacketRef> = sink.0.iter().map(|m| m.r).collect();
        assert_eq!(order, refs, "released in sequence order across the wrap");
        assert!(drops.is_empty());
    }
}
