//! The forwarding-action interpreter.
//!
//! Classifier entry actions, per-NF forwarding-table slices and merger
//! `next` actions all use the same small action language
//! ([`FtAction`]: `copy` / `distribute` / `output`, §5.2). This module
//! interprets an action list against a packet (identified by its version
//! map) and a [`Deliver`] sink, so the threaded engine, the deterministic
//! sync engine and the tests all share one semantics.

use crate::stats::StageStats;
use nfp_orchestrator::graph::CopyKind;
use nfp_orchestrator::tables::{FtAction, Target, SEGMENT_BITS};
use nfp_orchestrator::Stage;
use nfp_packet::meta::{VERSION_BITS, VERSION_MAX};
use nfp_packet::pool::{PacketPool, PacketRef};
use nfp_packet::PacketError;

/// Where interpreted actions send packet references.
pub trait Deliver {
    /// Deliver a reference to a target (NF ring, merger, or graph exit).
    fn deliver(&mut self, target: Target, msg: Msg);

    /// Hint that the caller is about to wait (e.g. on pool backpressure):
    /// buffering sinks should push pending messages downstream now, since
    /// the wait can only end once downstream frees resources. No-op for
    /// unbuffered sinks.
    fn flush_hint(&mut self) {}
}

/// Bits of merge-order sequence number a [`Msg`] carries.
const SEQ_BITS: u32 = 64 - SEGMENT_BITS;

/// The largest sequence number, and the mask the agent's sequence
/// arithmetic wraps with.
pub(crate) const SEQ_MASK: u64 = (1 << SEQ_BITS) - 1;

/// The unit rings carry: a packet reference plus one tag word holding the
/// parallel segment and merge-order sequence number of a merger-bound
/// message, or the final stage of a switch-bound one. Two scalars, so a
/// message travels in registers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Msg {
    /// Pooled packet reference.
    pub r: PacketRef,
    /// `segment << SEQ_BITS | seq`, or (bound for the switch) `i + 1` for
    /// `Stage::Nf(i)` and 0 for the collector.
    tag: u64,
}

impl Msg {
    /// A message not bound for a merger.
    #[inline]
    pub fn plain(r: PacketRef) -> Self {
        Self { r, tag: 0 }
    }

    /// A merger-bound message (sequence not yet assigned). Sealing
    /// guarantees the segment fits its [`SEGMENT_BITS`].
    #[inline]
    pub fn to_segment(r: PacketRef, segment: u32) -> Self {
        debug_assert!(segment >> SEGMENT_BITS == 0, "segment {segment} overflows");
        let tag = u64::from(segment) << SEQ_BITS;
        Self { r, tag }
    }

    /// Parallel segment index of a merger-bound message.
    #[inline]
    pub(crate) fn segment(self) -> u32 {
        (self.tag >> SEQ_BITS) as u32
    }

    /// Merge-order sequence number. The merger agent assigns a dense
    /// per-(MID, segment) sequence at the first copy of each PID, so
    /// merged packets can be released downstream in arrival order even
    /// when several merger instances finish out of order. Zero everywhere
    /// the agent has not stamped it.
    #[inline]
    pub(crate) fn seq(self) -> u64 {
        self.tag & SEQ_MASK
    }

    /// Stamp the merge-order sequence number, wrapped to [`SEQ_BITS`].
    #[inline]
    pub(crate) fn set_seq(&mut self, seq: u64) {
        self.tag = (self.tag & !SEQ_MASK) | (seq & SEQ_MASK);
    }

    /// This packet, bound for the switch, which forwards it to `to`: an
    /// NF or the collector (a switched program has no merger).
    #[inline]
    pub(crate) fn via_switch(self, to: Stage) -> Self {
        let tag = if let Stage::Nf(i) = to {
            i as u64 + 1
        } else {
            0
        };
        Self { r: self.r, tag }
    }

    /// Where the switch forwards a [`Msg::via_switch`] message, and the
    /// plain message it forwards.
    #[inline]
    pub(crate) fn switched(self) -> (Stage, Self) {
        let nf = self.tag.checked_sub(1).map(|i| Stage::Nf(i as usize));
        (nf.unwrap_or(Stage::Collector), Self::plain(self.r))
    }
}

/// Failures while interpreting actions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ActionError {
    /// A referenced version was not in the version map (table bug).
    UnknownVersion(u8),
    /// The packet pool is exhausted; the caller decides whether to retry
    /// or drop.
    PoolExhausted,
    /// Copying failed because the source packet would not parse.
    CopyFailed,
}

/// The version→reference map of one action list: an inline table indexed
/// by version (versions are [`VERSION_BITS`] wide), so building one per
/// classifier entry, NF step and merge release costs no allocation.
#[derive(Debug, Default, Clone)]
pub(crate) struct VersionMap {
    refs: [Option<PacketRef>; 1 << VERSION_BITS],
}

impl VersionMap {
    /// Map with a single version.
    pub(crate) fn single(version: u8, r: PacketRef) -> Self {
        let mut map = Self::default();
        map.insert(version, r);
        map
    }

    /// Look up a version.
    fn get(&self, version: u8) -> Option<PacketRef> {
        self.refs.get(usize::from(version)).copied().flatten()
    }

    /// Insert or replace a version (truncated to the metadata's version
    /// field, as [`nfp_packet::Metadata`] stamps it).
    fn insert(&mut self, version: u8, r: PacketRef) {
        debug_assert!(version <= VERSION_MAX, "version overflows 4 bits");
        self.refs[usize::from(version & VERSION_MAX)] = Some(r);
    }

    /// All mapped references (rollback on failed action lists).
    pub(crate) fn refs(&self) -> impl Iterator<Item = PacketRef> + '_ {
        self.refs.iter().flatten().copied()
    }
}

/// Interpret `actions` over the packet versions in `versions`.
///
/// Reference-count discipline: the caller owns one share of every mapped
/// reference; `distribute` transfers that share to the first target and
/// retains once per additional target; `copy` allocates a new slot. After
/// execution the caller owns nothing it didn't re-insert.
pub(crate) fn execute(
    actions: &[FtAction],
    pool: &PacketPool,
    versions: &mut VersionMap,
    sink: &mut impl Deliver,
    stats: &StageStats,
) -> Result<(), ActionError> {
    for action in actions {
        match action {
            FtAction::Copy { from, to, kind } => {
                let src = versions
                    .get(*from)
                    .ok_or(ActionError::UnknownVersion(*from))?;
                let copied = match kind {
                    CopyKind::HeaderOnly => pool.header_only_copy(src, *to),
                    CopyKind::Full | CopyKind::None => pool.full_copy(src, *to),
                };
                match copied {
                    Ok(new_ref) => {
                        stats.note_copy();
                        versions.insert(*to, new_ref);
                    }
                    Err(PacketError::PoolExhausted) => return Err(ActionError::PoolExhausted),
                    Err(_) => return Err(ActionError::CopyFailed),
                }
            }
            FtAction::Distribute { version, targets } => {
                let r = versions
                    .get(*version)
                    .ok_or(ActionError::UnknownVersion(*version))?;
                // One share per extra target.
                for _ in 1..targets.len() {
                    pool.retain(r);
                }
                for target in targets {
                    let segment = match target {
                        Target::Merger(s) => *s as u32,
                        _ => 0,
                    };
                    stats.note_out(1);
                    sink.deliver(*target, Msg::to_segment(r, segment));
                }
            }
            FtAction::Output { version } => {
                let r = versions
                    .get(*version)
                    .ok_or(ActionError::UnknownVersion(*version))?;
                stats.note_out(1);
                sink.deliver(Target::Output, Msg::plain(r));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct Capture {
        delivered: Vec<(Target, Msg)>,
    }

    impl Deliver for Capture {
        fn deliver(&mut self, target: Target, msg: Msg) {
            self.delivered.push((target, msg));
        }
    }

    fn pool_with_packet() -> (PacketPool, PacketRef) {
        let pool = PacketPool::new(8);
        let frame = nfp_traffic::gen::build_tcp_frame(
            nfp_packet::ipv4::Ipv4Addr::new(1, 1, 1, 1),
            nfp_packet::ipv4::Ipv4Addr::new(2, 2, 2, 2),
            10,
            80,
            b"payload",
        );
        let r = pool.insert(frame).unwrap();
        (pool, r)
    }

    #[test]
    fn distribute_retains_per_extra_target() {
        let (pool, r) = pool_with_packet();
        let mut sink = Capture::default();
        let mut vm = VersionMap::single(1, r);
        execute(
            &[FtAction::Distribute {
                version: 1,
                targets: vec![Target::Nf(0), Target::Nf(1), Target::Nf(2)],
            }],
            &pool,
            &mut vm,
            &mut sink,
            &StageStats::new(),
        )
        .unwrap();
        assert_eq!(pool.refcount(r), 3);
        assert_eq!(sink.delivered.len(), 3);
    }

    #[test]
    fn copy_then_distribute_builds_fanout() {
        let (pool, r) = pool_with_packet();
        let mut sink = Capture::default();
        let mut vm = VersionMap::single(1, r);
        execute(
            &[
                FtAction::Copy {
                    from: 1,
                    to: 2,
                    kind: CopyKind::HeaderOnly,
                },
                FtAction::Distribute {
                    version: 1,
                    targets: vec![Target::Nf(0)],
                },
                FtAction::Distribute {
                    version: 2,
                    targets: vec![Target::Nf(1)],
                },
            ],
            &pool,
            &mut vm,
            &mut sink,
            &StageStats::new(),
        )
        .unwrap();
        assert_eq!(pool.in_use(), 2);
        let copy_ref = vm.get(2).unwrap();
        pool.with(copy_ref, |p| {
            assert!(p.is_header_only());
            assert_eq!(p.meta().version(), 2);
        });
        assert_eq!(sink.delivered[0].0, Target::Nf(0));
        assert_eq!(sink.delivered[1].0, Target::Nf(1));
        assert_eq!(sink.delivered[1].1.r, copy_ref);
    }

    #[test]
    fn merger_target_carries_segment() {
        let (pool, r) = pool_with_packet();
        let mut sink = Capture::default();
        let mut vm = VersionMap::single(1, r);
        execute(
            &[FtAction::Distribute {
                version: 1,
                targets: vec![Target::Merger(3)],
            }],
            &pool,
            &mut vm,
            &mut sink,
            &StageStats::new(),
        )
        .unwrap();
        assert_eq!(sink.delivered[0].1.segment(), 3);
    }

    #[test]
    fn unknown_version_is_an_error() {
        let (pool, r) = pool_with_packet();
        let mut sink = Capture::default();
        let mut vm = VersionMap::single(1, r);
        let err = execute(
            &[FtAction::Output { version: 9 }],
            &pool,
            &mut vm,
            &mut sink,
            &StageStats::new(),
        )
        .unwrap_err();
        assert_eq!(err, ActionError::UnknownVersion(9));
    }

    #[test]
    fn copy_on_exhausted_pool_reports() {
        let pool = PacketPool::new(1);
        let p = nfp_traffic::gen::build_tcp_frame(
            nfp_packet::ipv4::Ipv4Addr::new(1, 1, 1, 1),
            nfp_packet::ipv4::Ipv4Addr::new(2, 2, 2, 2),
            1,
            2,
            b"",
        );
        let r = pool.insert(p).unwrap();
        let mut sink = Capture::default();
        let mut vm = VersionMap::single(1, r);
        let err = execute(
            &[FtAction::Copy {
                from: 1,
                to: 2,
                kind: CopyKind::Full,
            }],
            &pool,
            &mut vm,
            &mut sink,
            &StageStats::new(),
        )
        .unwrap_err();
        assert_eq!(err, ActionError::PoolExhausted);
    }

    /// The tag holds every segment sealing admits and every sequence
    /// number up to its wrap point, without either bleeding into the
    /// other; a stamp past the wrap point wraps.
    #[test]
    fn msg_tag_round_trips_segment_and_seq() {
        let r = pool_with_packet().1;
        let max_segment = (1u32 << SEGMENT_BITS) - 1;
        for segment in [0, 1, 3, max_segment] {
            for seq in [0, 1, SEQ_MASK - 1, SEQ_MASK] {
                let mut msg = Msg::to_segment(r, segment);
                assert_eq!((msg.segment(), msg.seq()), (segment, 0));
                msg.set_seq(seq);
                assert_eq!((msg.r, msg.segment(), msg.seq()), (r, segment, seq));
            }
            let mut msg = Msg::to_segment(r, segment);
            msg.set_seq(SEQ_MASK + 1);
            assert_eq!((msg.segment(), msg.seq()), (segment, 0), "wraps at 2^48");
            msg.set_seq(SEQ_MASK + 6);
            assert_eq!((msg.segment(), msg.seq()), (segment, 5));
        }
        assert_eq!(SEQ_BITS, 48);
        assert_eq!(Msg::plain(r), Msg::to_segment(r, 0));
        for to in [Stage::Collector, Stage::Nf(0), Stage::Nf(41)] {
            assert_eq!(Msg::plain(r).via_switch(to).switched(), (to, Msg::plain(r)));
        }
        // Two scalars: a message travels in a register pair.
        assert_eq!(std::mem::size_of::<Msg>(), 16);
    }
}
