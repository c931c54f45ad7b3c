//! Load-balanced packet merging — paper §5.3.
//!
//! A merger instance keeps a dynamic **Accumulating Table** (AT): per
//! packet (keyed by the immutable PID), the copies received so far. When
//! the count reaches the Classification Table's *total count*, the merger
//! resolves drop conflicts by member priority, folds every copy's
//! modifications into the original `v1` via the merging operations
//! (`modify` / `add` / `remove`), releases the copies, and forwards the
//! merged packet to the spec's `next` actions.
//!
//! The **merger agent** balances packets across merger instances by
//! hashing the immutable PID, so all copies of one packet land on the same
//! instance while different packets of a flow may spread.

use crate::idmap::IdMap;
use nfp_orchestrator::graph::{HeaderKind, MergeOp};
use nfp_orchestrator::tables::MergeSpec;
use nfp_orchestrator::FailurePolicy;
use nfp_packet::meta::VERSION_ORIGINAL;
use nfp_packet::pool::{PacketPool, PacketRef};
use nfp_packet::{ah, ipv4};
use std::collections::hash_map::Entry;

/// One packet copy (or nil marker) received by a merger.
#[derive(Debug, Clone, Copy)]
pub struct Arrival {
    /// Pool reference.
    r: PacketRef,
    /// Copy version from the packet metadata.
    version: u8,
    /// True for nil (drop-intention) packets.
    pub(crate) nil: bool,
    /// Member priority carried on nil packets.
    nil_priority: u32,
    /// True for *failure* nils — emitted by the fail-closed path of a
    /// failed NF, honored unconditionally (no priority resolution).
    failure: bool,
}

/// One AT entry: the arrivals so far plus what deadline expiry needs — when
/// the entry opened and the merge-order sequence number the agent assigned
/// (the seq travels with the *first* copy, so every entry has one).
#[derive(Debug)]
struct PendingEntry {
    arrivals: Vec<Arrival>,
    first_seen: u64,
    seq: u64,
    epoch: u64,
}

/// An AT entry evicted by deadline expiry, with everything the caller
/// needs to resolve the partial merge and emit its outcome.
#[derive(Debug)]
pub(crate) struct ExpiredEntry {
    /// Match ID of the graph the packet belongs to.
    pub(crate) mid: u32,
    /// The parallel segment awaiting the merge.
    pub(crate) segment: u32,
    /// The packet's immutable PID.
    pub(crate) pid: u64,
    /// Merge-order sequence number assigned by the agent — the outcome
    /// for an expired entry must carry it, or the agent's in-order
    /// release cursor stalls forever.
    pub(crate) seq: u64,
    /// The program epoch the packet was classified under (stamped at
    /// first arrival) — partial-merge resolution must use that epoch's
    /// merge spec, and the engine settles the packet against it.
    pub(crate) epoch: u64,
    /// The copies that did arrive before the deadline.
    pub(crate) arrivals: Vec<Arrival>,
}

/// The Accumulating Table: (mid, segment, pid) → arrivals so far.
///
/// Entry storage is recycled: a completed or expired entry's arrival list
/// comes back through [`Accumulator::recycle`] and backs a later entry, so
/// a warm table opens and closes entries without allocating.
#[derive(Debug, Default)]
pub(crate) struct Accumulator {
    pending: IdMap<(u32, u32, u64), PendingEntry>,
    /// Emptied arrival lists awaiting reuse.
    spare: Vec<Vec<Arrival>>,
}

impl Accumulator {
    /// Create an empty AT.
    #[cfg(test)]
    fn new() -> Self {
        Self::default()
    }

    /// Record an arrival; returns the full arrival set once `expected`
    /// copies are present (hand it back with [`Accumulator::recycle`] when
    /// done). `now` stamps the entry on first arrival (the
    /// deadline clock: virtual ticks in the sync engine, elapsed
    /// milliseconds in the threaded engine); `seq` is the agent-assigned
    /// merge-order number carried by the message; `epoch` is the program
    /// epoch the packet was classified under (stamped on first arrival —
    /// all copies of one PID were classified together).
    pub(crate) fn offer(
        &mut self,
        key: (u32, u32, u64),
        arrival: Arrival,
        expected: usize,
        now: u64,
        seq: u64,
        epoch: u64,
    ) -> Option<Vec<Arrival>> {
        // One probe per arrival: the first opens the entry, the last takes
        // it out.
        match self.pending.entry(key) {
            Entry::Occupied(mut e) => {
                e.get_mut().arrivals.push(arrival);
                (e.get().arrivals.len() >= expected).then(|| e.remove().arrivals)
            }
            Entry::Vacant(e) => {
                let mut arrivals = self.spare.pop().unwrap_or_default();
                arrivals.push(arrival);
                if expected <= 1 {
                    return Some(arrivals);
                }
                e.insert(PendingEntry {
                    arrivals,
                    first_seen: now,
                    seq,
                    epoch,
                });
                None
            }
        }
    }

    /// Take back the arrival list of a finished entry for reuse.
    pub(crate) fn recycle(&mut self, mut arrivals: Vec<Arrival>) {
        arrivals.clear();
        self.spare.push(arrivals);
    }

    /// Packets currently awaiting more copies.
    pub(crate) fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Evict every entry first seen at or before `cutoff` (its deadline
    /// has passed), sorted by seq for deterministic resolution order.
    pub(crate) fn take_expired(&mut self, cutoff: u64) -> Vec<ExpiredEntry> {
        let keys: Vec<(u32, u32, u64)> = self
            .pending
            .iter()
            .filter(|(_, e)| e.first_seen <= cutoff)
            .map(|(k, _)| *k)
            .collect();
        let mut out: Vec<ExpiredEntry> = keys
            .into_iter()
            .map(|key| {
                let e = self.pending.remove(&key).expect("key just listed");
                ExpiredEntry {
                    mid: key.0,
                    segment: key.1,
                    pid: key.2,
                    seq: e.seq,
                    epoch: e.epoch,
                    arrivals: e.arrivals,
                }
            })
            .collect();
        out.sort_by_key(|e| e.seq);
        out
    }

    /// Drain every incomplete entry, returning all held references so the
    /// caller can release them.
    #[cfg(test)]
    fn drain(&mut self) -> Vec<Arrival> {
        self.pending.drain().flat_map(|(_, e)| e.arrivals).collect()
    }
}

/// Outcome of merging one packet's arrivals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeOutcome {
    /// The merged v1 packet continues along the graph.
    Forward(PacketRef),
    /// The packet was dropped (drop-intention won the conflict).
    Dropped,
}

/// Errors during merging (graph/table bugs or malformed copies; the packet
/// is dropped and all references released).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeError {
    /// No non-nil v1 arrival was present.
    MissingOriginal,
    /// A merge op referenced a version that never arrived.
    MissingVersion(u8),
    /// A merge op failed to apply (field mismatch, malformed header).
    OpFailed,
}

/// Build an [`Arrival`] from a pooled packet reference.
pub fn arrival_from(pool: &PacketPool, r: PacketRef) -> Arrival {
    pool.with(r, |p| Arrival {
        r,
        version: p.meta().version(),
        nil: p.is_nil(),
        nil_priority: p.nil_priority(),
        failure: p.is_nil_failure(),
    })
}

/// Resolve drop conflicts and merge `arrivals` according to `spec`.
///
/// Takes ownership of every arrival's reference share; on return the pool
/// holds exactly one share of the forwarded packet (or none, when
/// dropped/errored).
pub fn resolve_and_merge(
    spec: &MergeSpec,
    arrivals: &[Arrival],
    pool: &PacketPool,
) -> Result<MergeOutcome, MergeError> {
    merge(spec, arrivals, pool, false, false)
}

/// Resolve a deadline-expired AT entry using only the copies that arrived.
///
/// Missing writers contribute nothing; a missing member's verdict defaults
/// per its [`FailurePolicy`]: fail-closed members veto the packet (their
/// branch's processing cannot be vouched for), fail-open members are
/// treated as having passed. The result is always a total resolution —
/// every arrived reference is consumed and the packet is either forwarded
/// (partially merged) or dropped; there is no error path, because expiry
/// *is* the error path.
///
/// Structural safety: the original can only be forwarded when every member
/// sharing v1 delivered its share. A missing v1 sharer still holds (and
/// may still be writing through) its share, so forwarding would race with
/// it and trip the collector's sole-ownership check; those packets drop,
/// and the late share's release — routed to the expiry tombstone — is what
/// finally frees the slot.
pub(crate) fn resolve_partial(
    spec: &MergeSpec,
    arrivals: &[Arrival],
    pool: &PacketPool,
) -> MergeOutcome {
    // Work out which members are missing. Nils match members by carried
    // priority; data arrivals match by version. When several members share
    // a version (v1 sharers) the match is ambiguous — prefer matching the
    // fail-open member, so the unmatched (presumed failed) one is the
    // fail-closed member and the packet errs toward dropping.
    let mut matched = vec![false; spec.members.len()];
    for a in arrivals {
        if !a.nil {
            continue;
        }
        if let Some(i) = spec
            .members
            .iter()
            .enumerate()
            .position(|(i, m)| !matched[i] && m.priority == a.nil_priority)
        {
            matched[i] = true;
        }
    }
    for a in arrivals {
        if a.nil {
            continue;
        }
        let mut pick: Option<usize> = None;
        for (i, m) in spec.members.iter().enumerate() {
            if matched[i] || m.version != a.version {
                continue;
            }
            let better = match pick {
                None => true,
                Some(p) => {
                    spec.members[p].on_failure == FailurePolicy::FailClosed
                        && m.on_failure == FailurePolicy::FailOpen
                }
            };
            if better {
                pick = Some(i);
            }
        }
        if let Some(i) = pick {
            matched[i] = true;
        }
    }
    let missing: Vec<_> = spec
        .members
        .iter()
        .enumerate()
        .filter(|(i, _)| !matched[*i])
        .map(|(_, m)| m)
        .collect();

    // Drop rules beyond the ones every merge applies (a failure nil, the
    // decider's drop verdict — a missing fail-open decider defaults to
    // pass): a missing fail-closed member (its verdict cannot default to
    // pass), and a missing v1 sharer, which still holds a share of the
    // original, so it must not be forwarded (see the doc comment).
    let veto = missing
        .iter()
        .any(|m| m.on_failure == FailurePolicy::FailClosed || m.version == VERSION_ORIGINAL);
    // Forward a partial merge, skipping the ops of missing writers. With
    // no original there is nothing to forward, and a malformed partial
    // copy fails its op: the safest total resolution of either is a drop.
    merge(spec, arrivals, pool, veto, true).unwrap_or(MergeOutcome::Dropped)
}

/// The resolution both merges share. Drops (releasing every arrival) on
/// `veto`, on a failure nil, or on the decider's drop verdict; otherwise
/// folds the copies into the one original in spec order. An op whose
/// source copy never arrived is skipped when `skip_missing` (an expired
/// writer) and fails the merge otherwise.
fn merge(
    spec: &MergeSpec,
    arrivals: &[Arrival],
    pool: &PacketPool,
    veto: bool,
    skip_missing: bool,
) -> Result<MergeOutcome, MergeError> {
    // A failure nil short-circuits everything: a fail-closed NF crashed,
    // and no peer verdict — whatever its priority — can vouch for the
    // processing that never happened.
    let failure_nil = || arrivals.iter().any(|a| a.nil && a.failure);
    // Drop resolution: "the system should adopt the processing result of
    // [the highest-priority drop-capable NF] during conflicts" (§3).
    let decider_nil = || {
        spec.members
            .iter()
            .filter(|m| m.drop_capable)
            .max_by_key(|m| m.priority)
            .is_some_and(|d| {
                arrivals
                    .iter()
                    .any(|a| a.nil && a.nil_priority == d.priority)
            })
    };
    if veto || failure_nil() || decider_nil() {
        // "We then remove the related AT entry and release the memory of
        // all received packet copies."
        release_all(pool, arrivals);
        return Ok(MergeOutcome::Dropped);
    }

    // Locate the original. Several v1-sharing members may have forwarded
    // the same reference; keep one share, release the duplicates.
    let mut v1: Option<PacketRef> = None;
    for a in arrivals {
        if a.nil {
            pool.release(a.r);
            continue;
        }
        if a.version == VERSION_ORIGINAL {
            match v1 {
                None => v1 = Some(a.r),
                Some(existing) => {
                    debug_assert_eq!(existing, a.r, "distinct v1 packets for one pid");
                    pool.release(a.r);
                }
            }
        }
    }
    let Some(v1) = v1 else {
        release_copies(pool, arrivals);
        return Err(MergeError::MissingOriginal);
    };

    // Apply merge operations in spec order (already priority-sorted).
    let mut result = Ok(());
    for op in &spec.ops {
        let src = match op {
            MergeOp::Modify { from_version, .. } | MergeOp::AddHeader { from_version, .. } => {
                match arrivals
                    .iter()
                    .find(|a| !a.nil && a.version == *from_version)
                {
                    Some(a) => Some(a.r),
                    None if skip_missing => continue,
                    None => {
                        result = Err(MergeError::MissingVersion(*from_version));
                        break;
                    }
                }
            }
            MergeOp::RemoveHeader { .. } => None,
        };
        if apply_op(op, v1, src, pool).is_err() {
            result = Err(MergeError::OpFailed);
            break;
        }
    }

    // Release all copies (non-v1 arrivals) now that merging is done.
    release_copies(pool, arrivals);
    match result {
        Ok(()) => Ok(MergeOutcome::Forward(v1)),
        Err(e) => {
            pool.release(v1);
            Err(e)
        }
    }
}

fn release_all(pool: &PacketPool, arrivals: &[Arrival]) {
    // Every arrival carried exactly one reference share (v1 sharers each
    // forwarded their own share of the same slot).
    for a in arrivals {
        pool.release(a.r);
    }
}

fn release_copies(pool: &PacketPool, arrivals: &[Arrival]) {
    for a in arrivals {
        if !a.nil && a.version != VERSION_ORIGINAL {
            pool.release(a.r);
        }
    }
}

/// Apply one merge operation to the original packet `v1`, reading the
/// source copy's bytes straight out of its slot.
///
/// `src` must not be `v1` itself: the op would then read the slot it holds
/// exclusively, which the pool's aliasing contract forbids. Sealing rejects
/// such ops (`ProgramError::MergeFromOriginal`); if one gets here anyway it
/// fails like any other malformed op instead of forming the second
/// reference.
fn apply_op(
    op: &MergeOp,
    v1: PacketRef,
    src: Option<PacketRef>,
    pool: &PacketPool,
) -> Result<(), ()> {
    if src == Some(v1) {
        return Err(());
    }
    pool.with_mut(v1, |dst| match op {
        MergeOp::Modify {
            field,
            from_version: _,
        } => {
            let src = src.ok_or(())?;
            pool.with(src, |s| {
                let value = s.field_bytes(*field).map_err(|_| ())?;
                // Payload rewrites may change the length (e.g. a
                // compression NF); headers are fixed-width.
                if *field == nfp_packet::FieldId::Payload {
                    dst.replace_payload(value).map_err(|_| ())
                } else {
                    dst.set_field_bytes(*field, value).map_err(|_| ())
                }
            })
        }
        MergeOp::AddHeader {
            header: HeaderKind::AuthHeader,
            from_version: _,
        } => {
            let src = src.ok_or(())?;
            let l = dst.parse().map_err(|_| ())?;
            if l.ah.is_some() {
                return Err(()); // already has one; tables bug
            }
            let insert_at = l.l4;
            let old_proto = l.l4_proto;
            // Graft the copy's AH (bytes between IPv4 and L4) into v1.
            pool.with(src, |s| {
                let off = s.parsed().map_err(|_| ())?.ah.ok_or(())?;
                dst.insert_bytes(insert_at, ah::HEADER_LEN)
                    .map_err(|_| ())?;
                dst.data_mut()[insert_at..insert_at + ah::HEADER_LEN]
                    .copy_from_slice(&s.data()[off..off + ah::HEADER_LEN]);
                Ok(())
            })?;
            // Ensure the AH's next-header matches and chain IPv4 → AH.
            let data = dst.data_mut();
            data[insert_at] = old_proto;
            data[14 + ipv4::offsets::PROTOCOL] = ipv4::PROTO_AH;
            dst.invalidate();
            dst.sync_ip_total_len().map_err(|_| ())
        }
        MergeOp::RemoveHeader {
            header: HeaderKind::AuthHeader,
        } => {
            let l = dst.parse().map_err(|_| ())?;
            let off = l.ah.ok_or(())?;
            let next = ah::AhView::new(&dst.data()[off..])
                .map_err(|_| ())?
                .next_header();
            dst.remove_bytes(off..off + ah::HEADER_LEN)
                .map_err(|_| ())?;
            let data = dst.data_mut();
            data[14 + ipv4::offsets::PROTOCOL] = next;
            dst.invalidate();
            dst.sync_ip_total_len().map_err(|_| ())
        }
    })
}

/// The merger agent's load-balancing hash: FNV-1a over the immutable PID.
pub fn agent_pick(pid: u64, instances: usize) -> usize {
    debug_assert!(instances > 0);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in pid.to_be_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    (h % instances as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfp_orchestrator::tables::{FtAction, MemberSpec};
    use nfp_packet::ipv4::Ipv4Addr;
    use nfp_packet::{FieldId, Metadata, Packet};

    fn packet(dport: u16) -> Packet {
        nfp_traffic::gen::build_tcp_frame(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            1000,
            dport,
            b"payload bytes here",
        )
    }

    fn spec(total: usize, ops: Vec<MergeOp>, members: Vec<MemberSpec>) -> MergeSpec {
        MergeSpec {
            segment: 1,
            total_count: total,
            ops,
            members,
            next: vec![FtAction::Output { version: 1 }],
        }
    }

    #[test]
    fn accumulator_completes_at_expected_count() {
        let pool = PacketPool::new(4);
        let mut at = Accumulator::new();
        let r1 = pool.insert(packet(80)).unwrap();
        let r2 = pool.insert(packet(80)).unwrap();
        assert!(at
            .offer((1, 1, 42), arrival_from(&pool, r1), 2, 0, 0, 0)
            .is_none());
        assert_eq!(at.pending_len(), 1);
        let done = at
            .offer((1, 1, 42), arrival_from(&pool, r2), 2, 0, 0, 0)
            .unwrap();
        assert_eq!(done.len(), 2);
        assert_eq!(at.pending_len(), 0);
        // A recycled arrival list backs the next entry.
        let storage = done.as_ptr();
        at.recycle(done);
        assert!(at
            .offer((1, 1, 43), arrival_from(&pool, r1), 2, 0, 1, 0)
            .is_none());
        let again = at
            .offer((1, 1, 43), arrival_from(&pool, r2), 2, 0, 1, 0)
            .unwrap();
        assert_eq!((again.len(), again.as_ptr()), (2, storage));
    }

    #[test]
    fn merge_modify_takes_copy_field() {
        // v1 untouched; v2 (header-only copy) had its DIP rewritten by an
        // LB; merging must fold the DIP into v1.
        let pool = PacketPool::new(4);
        let mut original = packet(80);
        original.set_meta(Metadata::new(1, 7, 1));
        let v1 = pool.insert(original).unwrap();
        let v2 = pool.header_only_copy(v1, 2).unwrap();
        pool.with_mut(v2, |p| p.set_dip(Ipv4Addr::new(192, 168, 1, 3)).unwrap());
        // NOTE: v1 refcount is 1 here (single v1 member in this test).
        let spec = spec(
            2,
            vec![MergeOp::Modify {
                field: FieldId::Dip,
                from_version: 2,
            }],
            vec![
                MemberSpec {
                    version: 1,
                    priority: 0,
                    drop_capable: false,
                    on_failure: FailurePolicy::FailOpen,
                    stateful: false,
                },
                MemberSpec {
                    version: 2,
                    priority: 1,
                    drop_capable: false,
                    on_failure: FailurePolicy::FailOpen,
                    stateful: false,
                },
            ],
        );
        let arrivals = [arrival_from(&pool, v1), arrival_from(&pool, v2)];
        let out = resolve_and_merge(&spec, &arrivals, &pool).unwrap();
        let MergeOutcome::Forward(merged) = out else {
            panic!("expected forward");
        };
        pool.with(merged, |p| {
            assert_eq!(p.dip().unwrap(), Ipv4Addr::new(192, 168, 1, 3));
            // Payload untouched (the copy had none).
            assert_eq!(p.payload().unwrap(), b"payload bytes here");
        });
        pool.release(merged);
        assert_eq!(pool.in_use(), 0, "copy must be released");
    }

    #[test]
    fn drop_intention_from_decider_discards_everything() {
        let pool = PacketPool::new(4);
        let mut original = packet(80);
        original.set_meta(Metadata::new(1, 9, 1));
        // The dropping member's runtime already released its v1 share when
        // it emitted the nil, so only one share arrives here.
        let v1 = pool.insert(original).unwrap();
        let nil = pool.insert_nil(Metadata::new(1, 9, 1), 1, false).unwrap();
        let spec = spec(
            2,
            vec![],
            vec![
                MemberSpec {
                    version: 1,
                    priority: 0,
                    drop_capable: false,
                    on_failure: FailurePolicy::FailOpen,
                    stateful: false,
                },
                MemberSpec {
                    version: 1,
                    priority: 1,
                    drop_capable: true,
                    on_failure: FailurePolicy::FailOpen,
                    stateful: false,
                },
            ],
        );
        let arrivals = [arrival_from(&pool, v1), arrival_from(&pool, nil)];
        assert_eq!(
            resolve_and_merge(&spec, &arrivals, &pool).unwrap(),
            MergeOutcome::Dropped
        );
        assert_eq!(pool.in_use(), 0);
    }

    #[test]
    fn lower_priority_drop_overridden_by_decider_pass() {
        // Priority(IPS > Firewall): the firewall (priority 0) drops, the
        // IPS (priority 1, the decider) passes → the packet passes.
        let pool = PacketPool::new(4);
        let mut original = packet(80);
        original.set_meta(Metadata::new(1, 11, 1));
        let v1 = pool.insert(original).unwrap();
        // v1 share for the surviving member only; FW sent a nil instead.
        let nil = pool.insert_nil(Metadata::new(1, 11, 1), 0, false).unwrap();
        let spec = spec(
            2,
            vec![],
            vec![
                MemberSpec {
                    version: 1,
                    priority: 0,
                    drop_capable: true, // firewall
                    on_failure: FailurePolicy::FailOpen,
                    stateful: false,
                },
                MemberSpec {
                    version: 1,
                    priority: 1,
                    drop_capable: true, // IPS — the decider
                    on_failure: FailurePolicy::FailOpen,
                    stateful: false,
                },
            ],
        );
        let arrivals = [arrival_from(&pool, nil), arrival_from(&pool, v1)];
        let out = resolve_and_merge(&spec, &arrivals, &pool).unwrap();
        let MergeOutcome::Forward(merged) = out else {
            panic!("expected forward: the IPS verdict wins");
        };
        pool.release(merged);
        assert_eq!(pool.in_use(), 0);
    }

    #[test]
    fn add_header_grafts_ah_from_copy() {
        let pool = PacketPool::new(4);
        let mut original = packet(443);
        original.set_meta(Metadata::new(1, 13, 1));
        let payload_before = original.payload().unwrap().to_vec();
        let v1 = pool.insert(original).unwrap();
        // Build the "VPN's copy": full copy with an AH (and encrypted
        // payload folded in via a Modify op as the compiler would emit).
        let v2 = pool.full_copy(v1, 2).unwrap();
        pool.with_mut(v2, |p| {
            let mut vpn =
                nfp_nf::vpn::Vpn::new("vpn", [5u8; 16], 77, nfp_nf::vpn::VpnMode::Encapsulate);
            use nfp_nf::{NetworkFunction, PacketView};
            assert_eq!(
                vpn.process(&mut PacketView::Exclusive(p)),
                nfp_nf::Verdict::Pass
            );
        });
        let spec = spec(
            2,
            vec![
                MergeOp::Modify {
                    field: FieldId::Payload,
                    from_version: 2,
                },
                MergeOp::AddHeader {
                    header: HeaderKind::AuthHeader,
                    from_version: 2,
                },
            ],
            vec![
                MemberSpec {
                    version: 1,
                    priority: 0,
                    drop_capable: false,
                    on_failure: FailurePolicy::FailOpen,
                    stateful: false,
                },
                MemberSpec {
                    version: 2,
                    priority: 1,
                    drop_capable: false,
                    on_failure: FailurePolicy::FailOpen,
                    stateful: false,
                },
            ],
        );
        let arrivals = [arrival_from(&pool, v1), arrival_from(&pool, v2)];
        let MergeOutcome::Forward(merged) = resolve_and_merge(&spec, &arrivals, &pool).unwrap()
        else {
            panic!("expected forward");
        };
        pool.with_mut(merged, |p| {
            let l = p.parse().unwrap();
            assert!(l.ah.is_some(), "AH grafted into v1");
            assert_ne!(
                p.payload().unwrap(),
                &payload_before[..],
                "payload encrypted"
            );
            let view = ah::AhView::new(&p.data()[l.ah.unwrap()..]).unwrap();
            assert_eq!(view.spi(), 77);
        });
        pool.release(merged);
        assert_eq!(pool.in_use(), 0);
    }

    #[test]
    fn missing_original_is_an_error() {
        let pool = PacketPool::new(4);
        let mut p = packet(1);
        p.set_meta(Metadata::new(1, 1, 2)); // only a v2 copy
        let v2 = pool.insert(p).unwrap();
        let spec = spec(
            1,
            vec![],
            vec![MemberSpec {
                version: 2,
                priority: 0,
                drop_capable: false,
                on_failure: FailurePolicy::FailOpen,
                stateful: false,
            }],
        );
        let arrivals = [arrival_from(&pool, v2)];
        assert_eq!(
            resolve_and_merge(&spec, &arrivals, &pool).unwrap_err(),
            MergeError::MissingOriginal
        );
        assert_eq!(pool.in_use(), 0);
    }

    #[test]
    fn op_sourced_from_the_original_fails_instead_of_aliasing() {
        // Sealing rejects `from_version == v1`; a hand-built spec that
        // carries one anyway must fail the op, not read v1 while holding
        // it exclusively. Both resolvers consume every reference.
        let pool = PacketPool::new(4);
        let spec = spec(
            1,
            vec![MergeOp::Modify {
                field: FieldId::Dip,
                from_version: VERSION_ORIGINAL,
            }],
            vec![member(1, 0, false, false)],
        );
        let original = |pid| {
            let mut p = packet(80);
            p.set_meta(Metadata::new(1, pid, 1));
            pool.insert(p).unwrap()
        };
        let arrivals = [arrival_from(&pool, original(1))];
        assert_eq!(
            resolve_and_merge(&spec, &arrivals, &pool).unwrap_err(),
            MergeError::OpFailed
        );
        assert_eq!(pool.in_use(), 0);
        let arrivals = [arrival_from(&pool, original(2))];
        assert_eq!(
            resolve_partial(&spec, &arrivals, &pool),
            MergeOutcome::Dropped
        );
        assert_eq!(pool.in_use(), 0);
    }

    #[test]
    fn copy_arriving_before_original_still_merges() {
        // Arrival order is not guaranteed: the copy's branch may finish
        // first. The merger must be order-insensitive.
        let pool = PacketPool::new(4);
        let mut original = packet(80);
        original.set_meta(Metadata::new(1, 21, 1));
        let v1 = pool.insert(original).unwrap();
        let v2 = pool.header_only_copy(v1, 2).unwrap();
        pool.with_mut(v2, |p| p.set_dport(9999).unwrap());
        let spec = spec(
            2,
            vec![MergeOp::Modify {
                field: FieldId::Dport,
                from_version: 2,
            }],
            vec![
                MemberSpec {
                    version: 1,
                    priority: 0,
                    drop_capable: false,
                    on_failure: FailurePolicy::FailOpen,
                    stateful: false,
                },
                MemberSpec {
                    version: 2,
                    priority: 1,
                    drop_capable: false,
                    on_failure: FailurePolicy::FailOpen,
                    stateful: false,
                },
            ],
        );
        // Copy first, original second.
        let arrivals = [arrival_from(&pool, v2), arrival_from(&pool, v1)];
        let MergeOutcome::Forward(m) = resolve_and_merge(&spec, &arrivals, &pool).unwrap() else {
            panic!("expected forward");
        };
        pool.with(m, |p| assert_eq!(p.dport().unwrap(), 9999));
        pool.release(m);
        assert_eq!(pool.in_use(), 0);
    }

    #[test]
    fn accumulator_interleaves_many_packets() {
        // Copies of different PIDs interleave arbitrarily; each completes
        // independently.
        let pool = PacketPool::new(64);
        let mut at = Accumulator::new();
        let mut refs = Vec::new();
        for pid in 0..10u64 {
            let mut p = packet(80);
            p.set_meta(Metadata::new(1, pid, 1));
            let r = pool.insert(p).unwrap();
            pool.retain(r);
            refs.push(r);
        }
        // First arrivals for all PIDs, then second arrivals in reverse.
        for (pid, &r) in refs.iter().enumerate() {
            assert!(at
                .offer(
                    (1, 1, pid as u64),
                    arrival_from(&pool, r),
                    2,
                    0,
                    pid as u64,
                    0
                )
                .is_none());
        }
        assert_eq!(at.pending_len(), 10);
        for (pid, &r) in refs.iter().enumerate().rev() {
            let done = at
                .offer(
                    (1, 1, pid as u64),
                    arrival_from(&pool, r),
                    2,
                    0,
                    pid as u64,
                    0,
                )
                .unwrap();
            assert_eq!(done.len(), 2);
            pool.release(r);
            pool.release(r);
        }
        assert_eq!(at.pending_len(), 0);
        assert_eq!(pool.in_use(), 0);
    }

    #[test]
    fn drain_returns_incomplete_entries() {
        let pool = PacketPool::new(4);
        let mut at = Accumulator::new();
        let mut p = packet(1);
        p.set_meta(Metadata::new(1, 5, 1));
        let r = pool.insert(p).unwrap();
        at.offer((1, 0, 5), arrival_from(&pool, r), 3, 0, 0, 0);
        let drained = at.drain();
        assert_eq!(drained.len(), 1);
        pool.release(drained[0].r);
        assert_eq!(pool.in_use(), 0);
        assert_eq!(at.pending_len(), 0);
    }

    fn member(version: u8, priority: u32, drop_capable: bool, closed: bool) -> MemberSpec {
        MemberSpec {
            version,
            priority,
            drop_capable,
            on_failure: if closed {
                FailurePolicy::FailClosed
            } else {
                FailurePolicy::FailOpen
            },
            stateful: false,
        }
    }

    #[test]
    fn failure_nil_drops_despite_higher_priority_pass() {
        // The decider (priority 1) passed, but the lower-priority member's
        // *failure* nil is not a verdict — the packet must drop.
        let pool = PacketPool::new(4);
        let mut original = packet(80);
        original.set_meta(Metadata::new(1, 11, 1));
        let v1 = pool.insert(original).unwrap();
        let niland = pool.insert_nil(Metadata::new(1, 11, 1), 0, true).unwrap();
        let spec = spec(
            2,
            vec![],
            vec![member(1, 0, true, true), member(1, 1, true, false)],
        );
        let arrivals = [arrival_from(&pool, niland), arrival_from(&pool, v1)];
        assert_eq!(
            resolve_and_merge(&spec, &arrivals, &pool).unwrap(),
            MergeOutcome::Dropped
        );
        assert_eq!(pool.in_use(), 0);
    }

    #[test]
    fn take_expired_evicts_only_old_entries() {
        let pool = PacketPool::new(8);
        let mut at = Accumulator::new();
        let insert = |pid: u64| {
            let mut p = packet(80);
            p.set_meta(Metadata::new(1, pid, 1));
            pool.insert(p).unwrap()
        };
        let r1 = insert(1);
        let r2 = insert(2);
        assert!(at
            .offer((1, 1, 1), arrival_from(&pool, r1), 2, 10, 100, 0)
            .is_none());
        assert!(at
            .offer((1, 1, 2), arrival_from(&pool, r2), 2, 20, 101, 0)
            .is_none());
        let expired = at.take_expired(10);
        assert_eq!(expired.len(), 1);
        assert_eq!(expired[0].pid, 1);
        assert_eq!(expired[0].seq, 100);
        assert_eq!(at.pending_len(), 1, "the younger entry survives");
        pool.release(expired[0].arrivals[0].r);
        for a in at.drain() {
            pool.release(a.r);
        }
        assert_eq!(pool.in_use(), 0);
    }

    #[test]
    fn partial_merge_missing_fail_open_writer_forwards() {
        // v1 arrived, the fail-open copy writer (v2) never delivered: the
        // packet forwards with the v2 merge op skipped — the bypass.
        let pool = PacketPool::new(4);
        let mut original = packet(80);
        original.set_meta(Metadata::new(1, 7, 1));
        let dport_before = 80u16;
        let v1 = pool.insert(original).unwrap();
        let spec = spec(
            2,
            vec![MergeOp::Modify {
                field: FieldId::Dport,
                from_version: 2,
            }],
            vec![member(1, 0, false, false), member(2, 1, false, false)],
        );
        let arrivals = [arrival_from(&pool, v1)];
        let MergeOutcome::Forward(m) = resolve_partial(&spec, &arrivals, &pool) else {
            panic!("expected forward");
        };
        pool.with(m, |p| assert_eq!(p.dport().unwrap(), dport_before));
        pool.release(m);
        assert_eq!(pool.in_use(), 0);
    }

    #[test]
    fn partial_merge_missing_fail_closed_member_drops() {
        let pool = PacketPool::new(4);
        let mut original = packet(80);
        original.set_meta(Metadata::new(1, 7, 1));
        let v1 = pool.insert(original).unwrap();
        let spec = spec(
            2,
            vec![],
            vec![member(1, 0, false, false), member(2, 1, true, true)],
        );
        let arrivals = [arrival_from(&pool, v1)];
        assert_eq!(
            resolve_partial(&spec, &arrivals, &pool),
            MergeOutcome::Dropped
        );
        assert_eq!(pool.in_use(), 0);
    }

    #[test]
    fn partial_merge_missing_v1_sharer_drops() {
        // Both members share v1; only one share arrived. The missing
        // sharer still holds (and may still write through) its share, so
        // the original must not be forwarded even though both members
        // fail open.
        let pool = PacketPool::new(4);
        let mut original = packet(80);
        original.set_meta(Metadata::new(1, 7, 1));
        let v1 = pool.insert(original).unwrap();
        pool.retain(v1); // the stalled member's share, still out there
        let spec = spec(
            2,
            vec![],
            vec![member(1, 0, false, false), member(1, 1, false, false)],
        );
        let arrivals = [arrival_from(&pool, v1)];
        assert_eq!(
            resolve_partial(&spec, &arrivals, &pool),
            MergeOutcome::Dropped
        );
        assert_eq!(pool.in_use(), 1, "only the stalled member's share left");
        pool.release(v1);
        assert_eq!(pool.in_use(), 0);
    }

    #[test]
    fn partial_merge_missing_decider_defaults_per_policy() {
        // Decider missing + fail-open → defaults to pass → forward.
        let pool = PacketPool::new(4);
        let mut original = packet(80);
        original.set_meta(Metadata::new(1, 7, 1));
        let v1 = pool.insert(original).unwrap();
        let spec2 = spec(
            2,
            vec![],
            vec![member(1, 0, false, false), member(2, 1, true, false)],
        );
        let arrivals = [arrival_from(&pool, v1)];
        let MergeOutcome::Forward(m) = resolve_partial(&spec2, &arrivals, &pool) else {
            panic!("fail-open decider defaults to pass");
        };
        pool.release(m);
        // An *arrived* decider drop verdict still wins in a partial merge.
        let mut original = packet(80);
        original.set_meta(Metadata::new(1, 8, 1));
        let v1 = pool.insert(original).unwrap();
        let nil = pool.insert_nil(Metadata::new(1, 8, 1), 1, false).unwrap();
        let spec3 = spec(
            3,
            vec![],
            vec![
                member(1, 0, false, false),
                member(2, 1, true, false),
                member(3, 2, false, false),
            ],
        );
        let arrivals = [arrival_from(&pool, v1), arrival_from(&pool, nil)];
        assert_eq!(
            resolve_partial(&spec3, &arrivals, &pool),
            MergeOutcome::Dropped
        );
        assert_eq!(pool.in_use(), 0);
    }

    #[test]
    fn agent_hash_is_stable_and_spreads() {
        let picks: Vec<usize> = (0..1000).map(|pid| agent_pick(pid, 4)).collect();
        let again: Vec<usize> = (0..1000).map(|pid| agent_pick(pid, 4)).collect();
        assert_eq!(picks, again);
        for inst in 0..4 {
            let share = picks.iter().filter(|&&p| p == inst).count();
            assert!(share > 150, "instance {inst} got {share}/1000");
        }
    }
}
