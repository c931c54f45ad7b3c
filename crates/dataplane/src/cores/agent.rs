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
//! assigns a dense per-(MID, segment) sequence number at the **first**
//! copy of each PID — first-copy order across FIFO member rings is
//! provably ascending-PID order — stamps every copy of that PID with the
//! same sequence, and picks a merger instance by PID hash. Merger
//! instances merge in parallel but hand their [`Outcome`]s back;
//! [`AgentCore::release`] releases them strictly in sequence order,
//! executing the merge spec's `next` actions. Every seq gets exactly one
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

use crate::actions::{self, Deliver, Msg, VersionMap};
use crate::idmap::IdMap;
use crate::merger;
use crate::stats::StageStats;
use crate::swap::TablesResolver;
use nfp_packet::meta::VERSION_ORIGINAL;
use nfp_packet::pool::{PacketPool, PacketRef};

/// A merge outcome returned from a merger instance to the agent.
#[derive(Debug, Clone, Copy)]
pub struct Outcome {
    /// Match ID of the merged packet.
    pub mid: u32,
    /// Parallel segment the merge belongs to.
    pub segment: u32,
    /// The agent-assigned merge-order sequence number.
    pub seq: u64,
    /// The program epoch the packet was classified under — release
    /// resolves the merge spec's `next` actions against this epoch, and
    /// merge-resolved drops are settled against it.
    pub epoch: u64,
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
pub struct AgentCore {
    instances: usize,
    assign: IdMap<(u32, u32), AssignState>,
    release: IdMap<(u32, u32), ReleaseState>,
}

impl AgentCore {
    /// An agent routing onto `instances` merger instances.
    pub fn new(instances: usize) -> Self {
        assert!(instances >= 1, "at least one merger instance");
        Self {
            instances,
            assign: IdMap::default(),
            release: IdMap::default(),
        }
    }

    /// Route one merger-bound copy/nil: stamp its merge-order sequence
    /// into `msg.seq` and return the merger instance index to send it to.
    pub fn route(
        &mut self,
        msg: &mut Msg,
        pool: &PacketPool,
        resolver: &mut TablesResolver,
        stats: &StageStats,
    ) -> usize {
        stats.note_in(1);
        let (mid, pid, epoch) = pool.with(msg.r, |p| {
            (p.meta().mid(), p.meta().pid(), p.meta().epoch())
        });
        let total = resolver
            .tables(epoch, stats)
            .merge_spec_for(msg.segment as usize)
            .expect("merger msg implies spec")
            .total_count;
        let st = self.assign.entry((mid, msg.segment)).or_default();
        let entry = st.by_pid.entry(pid).or_insert_with(|| {
            let s = st.next_seq;
            st.next_seq += 1;
            (s, 0)
        });
        entry.1 += 1;
        msg.seq = entry.0;
        if entry.1 >= total {
            st.by_pid.remove(&pid);
        }
        stats.note_out(1);
        merger::agent_pick(pid, self.instances)
    }

    /// Accept one merge outcome and release every outcome that is now in
    /// sequence order, executing the merge spec's `next` actions into
    /// `sink`. The epoch of every merge-resolved drop surfaced is pushed
    /// onto `drops` (the closed loop must account each against the epoch
    /// that admitted it).
    pub fn release(
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
            rs.next_seq += 1;
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
            match rs.ready.remove(&rs.next_seq) {
                Some(parked) => due = parked,
                None => break,
            }
        }
    }
}
