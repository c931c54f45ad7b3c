//! The packet classifier — paper §5.1.
//!
//! "The classifier module takes an incoming packet from the NIC and finds
//! out the corresponding service graph information for the packet … tags
//! those packets that follow the same service graph with the same Match ID
//! (MID) … we design a Packet ID (PID) identifier of 40 bits … and assign
//! a version to each packet copy."

use crate::actions::{self, Deliver, VersionMap};
use crate::stats::{DropCause, StageStats};
use crate::swap::{EpochState, ProgramHandle};
use crate::telemetry::Telemetry;
use nfp_orchestrator::tables::GraphTables;
use nfp_orchestrator::Stage;
use nfp_packet::meta::{Metadata, PID_MAX, VERSION_ORIGINAL};
use nfp_packet::pool::PacketPool;
use nfp_packet::Packet;
use std::sync::Arc;

/// Why a packet could not be admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmitError {
    /// The packet pool is exhausted (backpressure point).
    PoolExhausted,
    /// The frame ends before its headers do — cut short below the
    /// Ethernet/IPv4/L4 header budget (hostile truncation).
    Truncated,
    /// The packet does not parse as Ethernet/IPv4/TCP|UDP.
    Unparseable,
    /// Entry actions failed (table inconsistency).
    ActionFailed,
}

/// A refused admission: why, and — for pool backpressure only — the packet
/// itself, for the caller to retry.
pub(crate) type Refusal = (AdmitError, Option<Box<Packet>>);

/// The classifier: metadata tagging and entry-action launch for the one
/// service graph of a swappable [`ProgramHandle`].
///
/// Every packet that parses matches the graph. Each admission burst pins
/// the handle's current epoch, and its packets classify against that
/// epoch's tables and carry it, so every downstream stage resolves the
/// same tables.
#[derive(Debug)]
pub struct Classifier {
    handle: Arc<ProgramHandle>,
    /// Inside a burst: the epoch the burst pinned and how many of its
    /// reserved pins are still unused.
    pins: Option<(Arc<EpochState>, u64)>,
    next_pid: u64,
}

impl Classifier {
    /// Single-graph classifier over a swappable program handle: every
    /// packet matches, classifies under the epoch its admission burst
    /// pinned, and is stamped with it. The engine settles each admitted
    /// packet's pin on delivery/drop; failed admissions' pins go back when
    /// the burst ends, so a retried packet re-pins the epoch then current.
    pub fn live(handle: Arc<ProgramHandle>) -> Self {
        Self {
            handle,
            pins: None,
            next_pid: 0,
        }
    }

    /// Open an admission burst of at most `n` packets: one
    /// `ProgramHandle::reserve` for all of them.
    pub fn begin_burst(&mut self, n: usize) {
        debug_assert!(self.pins.is_none(), "admission bursts do not nest");
        self.pins = Some((self.handle.reserve(n as u64), n as u64));
    }

    /// Close the admission burst: the pins no admission used go back to
    /// their epoch (`ProgramHandle::abort`).
    pub fn end_burst(&mut self) {
        if let Some((state, unused)) = self.pins.take() {
            self.handle.abort(&state, unused);
        }
    }

    /// Admit one packet — a burst of one: tag MID/PID/v1 metadata and the
    /// pinned epoch, move it into the pool and run the graph's entry
    /// actions against `sink`. Returns the tables it classified under.
    pub fn admit(
        &mut self,
        pkt: Packet,
        pool: &PacketPool,
        sink: &mut impl Deliver,
        stats: &StageStats,
    ) -> Result<Arc<GraphTables>, AdmitError> {
        self.begin_burst(1);
        let res = self.admit_observed(pkt, pool, sink, stats, &mut Discard, None);
        let res = res.map(Arc::clone).map_err(|(e, _)| e);
        self.end_burst();
        res
    }

    /// One admission of the burst in progress ([`Classifier::admit`]
    /// without the burst bracket), with telemetry: times the admission
    /// into the classifier histogram, stamps every
    /// [`trace_every`](crate::telemetry::TelemetryConfig::trace_every)-th
    /// packet `traced` (by PID, so pool-backpressure retries sample the
    /// same packets) and records its first trace hop. The matched tables
    /// are only ever *borrowed* here: [`Classifier::admit`] clones them,
    /// the engines do not look. Buffers that leave the pool here go on
    /// `spent`, for the ingress to refill: the one the insert displaced
    /// ([`PacketPool::insert_displacing`]) and a malformed packet's own.
    ///
    /// The packet moves once: into its pool slot, first thing, where it is
    /// parsed, classified and tagged in place. A refusal for
    /// [`AdmitError::PoolExhausted`] — the one cause worth retrying —
    /// hands the packet back, so the caller can re-offer it once
    /// downstream drains without having kept a copy (boxed: the allocation
    /// is paid on the backpressure path only, and the error stays two
    /// words on the admission path). FIFO admission order (and therefore
    /// dense PID numbering) is preserved across retries because the PID
    /// only advances on success.
    #[inline]
    pub fn admit_observed(
        &mut self,
        pkt: Packet,
        pool: &PacketPool,
        sink: &mut impl Deliver,
        stats: &StageStats,
        spent: &mut impl Extend<Packet>,
        tele: Option<&Telemetry>,
    ) -> Result<&Arc<GraphTables>, Refusal> {
        let t0 = tele.and_then(|t| t.begin(Stage::Classifier, 1));
        let r = match pool.insert_displacing(pkt) {
            Ok((r, displaced)) => {
                spent.extend(displaced);
                r
            }
            Err(back) => return Err(refuse(back, stats)),
        };
        if let Err(e) = pool.with_mut(r, Packet::parse) {
            // The telemetry histograms stay untouched by rejects (only
            // admitted packets are timed).
            spent.extend([pool.take(r)]);
            return Err(reject(stats, malformed(e)));
        }
        // Classify under the burst's pinned epoch and use one of its pins
        // — only on success: a failed admission leaves its pin to go back
        // when the burst ends, and a retry re-pins.
        let Some((state, pins_left)) = &mut self.pins else {
            panic!("admission outside a burst");
        };
        assert!(*pins_left > 0, "more admissions than the burst reserved");
        let (tables, epoch) = (state.tables(), state.epoch());
        // The PID only advances on success, so retried packets (pool
        // backpressure) keep a dense injection-order numbering — and,
        // since sampling keys off it, their sampling decision too.
        let pid = self.next_pid;
        let traced = tele.is_some_and(|t| {
            let n = t.trace_every();
            n > 0 && pid.is_multiple_of(n)
        });
        // The admission-time flow key rides the metadata sidecar so every
        // stateful NF downstream — even past a header-rewriting NAT —
        // keys its per-flow state by the same tuple RSS sharded on.
        // The backend arrival stamp (pcap capture time) survives the
        // fresh admission metadata so trace timing stays visible
        // downstream; 0 for synthetic traffic.
        let meta = pool.with_mut(r, |p| {
            let meta = Metadata::new(tables.mid, pid, VERSION_ORIGINAL)
                .with_epoch(epoch)
                .with_traced(traced)
                .with_flow(nfp_packet::flow::FlowKey::of(p))
                .with_ingress_ns(p.meta().ingress_ns());
            p.set_meta(meta);
            meta
        });
        // The first hop is recorded before entry actions run: a sink may
        // flush mid-execute, and the NF hop must never precede this one.
        if let Some(t) = tele {
            t.hop_if_traced(Stage::Classifier, meta, false);
        }
        let mut versions = VersionMap::single(VERSION_ORIGINAL, r);
        match actions::execute(&tables.entry_actions, pool, &mut versions, sink, stats) {
            Ok(()) => {
                stats.note_in(1);
                *pins_left -= 1;
                self.next_pid = (pid + 1) & PID_MAX;
                if let Some(t) = tele {
                    // Feed the inter-arrival gap once per *successful*
                    // admission, so pool-backpressure retries never
                    // double-count a stamp.
                    t.note_ingress(meta.ingress_ns());
                    t.end(Stage::Classifier, t0, 1);
                }
                Ok(tables)
            }
            Err(actions::ActionError::PoolExhausted) => {
                // Entry copies ran out of slots. Generated entry actions
                // always order copies before distributes, so nothing has
                // been delivered yet: roll back every copy we still own,
                // take the original back out and let the caller retry
                // once downstream drains.
                for owned in versions.refs().filter(|&owned| owned != r) {
                    pool.release(owned);
                }
                let back = pool.take(r);
                if traced {
                    if let Some(t) = tele {
                        // The retry will re-record the classifier hop.
                        t.retract_classifier_hop(pid);
                    }
                }
                stats.note_backpressure();
                Err((AdmitError::PoolExhausted, Some(Box::new(back))))
            }
            Err(_) => {
                // Release what we still own; copies already delivered are
                // the sink's problem only on success paths, but entry
                // actions fail before any delivery of the failed version.
                pool.release(r);
                Err(reject(stats, AdmitError::ActionFailed))
            }
        }
    }
}

/// [`Classifier::admit`]'s `spent`: frees the buffers on the spot.
struct Discard;

impl Extend<Packet> for Discard {
    fn extend<I: IntoIterator<Item = Packet>>(&mut self, spent: I) {
        spent.into_iter().for_each(drop);
    }
}

/// The pool has no free slot. A packet that would be rejected needs
/// none, so it is rejected now; anything else is backpressure, handed
/// back for a retry (not counted as "in" yet — only the stall is).
#[cold]
fn refuse(mut back: Packet, stats: &StageStats) -> Refusal {
    if let Err(e) = back.parse() {
        return reject(stats, malformed(e));
    }
    stats.note_backpressure();
    (AdmitError::PoolExhausted, Some(Box::new(back)))
}

/// Count a terminal rejection. Hostile framing has its own drop cause,
/// so soak runs can tell malformed-input pressure from policy rejects.
fn reject(stats: &StageStats, why: AdmitError) -> Refusal {
    stats.note_in(1);
    stats.note_drop(match why {
        AdmitError::Truncated | AdmitError::Unparseable => DropCause::AdmitMalformed,
        _ => DropCause::AdmitRejected,
    });
    (why, None)
}

/// Why a frame failed to parse, as an admission error.
fn malformed(e: nfp_packet::PacketError) -> AdmitError {
    match e {
        nfp_packet::PacketError::Truncated { .. } => AdmitError::Truncated,
        _ => AdmitError::Unparseable,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actions::Msg;
    use nfp_orchestrator::tables::{FtAction, Target};
    use nfp_orchestrator::{compile, CompileOptions, Program, Registry};
    use nfp_packet::ipv4::Ipv4Addr;
    use nfp_policy::Policy;

    #[derive(Default)]
    struct Capture(Vec<(Target, Msg)>);
    impl Deliver for Capture {
        fn deliver(&mut self, target: Target, msg: Msg) {
            self.0.push((target, msg));
        }
    }

    fn live(program: Program) -> Classifier {
        Classifier::live(Arc::new(ProgramHandle::new(program)))
    }

    /// A classifier over the sealed Monitor → Firewall graph, MID 5.
    fn classifier() -> Classifier {
        let c = compile(
            &Policy::from_chain(["Monitor", "Firewall"]),
            &Registry::paper_table2(),
            &[],
            &CompileOptions::default(),
        )
        .unwrap();
        live(c.program(5).unwrap())
    }

    fn pkt(dport: u16) -> Packet {
        nfp_traffic::gen::build_tcp_frame(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 9, 9, 9),
            1234,
            dport,
            b"x",
        )
    }

    #[test]
    fn admit_tags_metadata_and_launches_entry() {
        let pool = PacketPool::new(8);
        let mut cl = classifier();
        let mut sink = Capture::default();
        let stats = StageStats::new();
        cl.admit(pkt(80), &pool, &mut sink, &stats).unwrap();
        cl.admit(pkt(81), &pool, &mut sink, &stats).unwrap();
        // Parallel pair shares v1: one distribute of the same ref to both.
        assert_eq!(sink.0.len(), 4);
        let m0 = sink.0[0].1;
        pool.with(m0.r, |p| {
            assert_eq!(p.meta().mid(), 5);
            assert_eq!(p.meta().pid(), 0);
            assert_eq!(p.meta().version(), 1);
        });
        let m2 = sink.0[2].1;
        pool.with(m2.r, |p| assert_eq!(p.meta().pid(), 1));
        assert_eq!(stats.snapshot().packets_in, 2);
    }

    #[test]
    fn pool_exhaustion_is_backpressure() {
        let pool = PacketPool::new(1);
        let mut cl = classifier();
        let mut sink = Capture::default();
        cl.admit(pkt(80), &pool, &mut sink, &StageStats::new())
            .unwrap();
        assert_eq!(
            cl.admit(pkt(80), &pool, &mut sink, &StageStats::new())
                .unwrap_err(),
            AdmitError::PoolExhausted
        );
    }

    #[test]
    fn pids_wrap_at_40_bits() {
        let pool = PacketPool::new(4);
        let mut cl = classifier();
        cl.next_pid = PID_MAX;
        let mut sink = Capture::default();
        cl.admit(pkt(80), &pool, &mut sink, &StageStats::new())
            .unwrap();
        assert_eq!(cl.next_pid, 0);
    }

    #[test]
    fn garbage_rejected() {
        let pool = PacketPool::new(4);
        let mut cl = classifier();
        let mut sink = Capture::default();
        let garbage = Packet::from_bytes(&[0u8; 60]).unwrap();
        assert_eq!(
            cl.admit(garbage, &pool, &mut sink, &StageStats::new())
                .unwrap_err(),
            AdmitError::Unparseable
        );
    }

    /// A reject never needs a pool slot: with the pool full, a malformed
    /// packet is still rejected outright, not held back as backpressure.
    #[test]
    fn rejects_never_touch_a_full_pool() {
        let pool = PacketPool::new(1);
        let mut cl = classifier();
        let mut sink = Capture::default();
        let stats = StageStats::new();
        cl.admit(pkt(80), &pool, &mut sink, &stats).unwrap();
        let garbage = Packet::from_bytes(&[0u8; 60]).unwrap();
        let err = cl.admit(garbage, &pool, &mut sink, &stats).unwrap_err();
        assert_eq!(err, AdmitError::Unparseable);
        assert_eq!(stats.snapshot().backpressure, 0);
        assert_eq!(pool.in_use(), 1);
    }

    #[test]
    fn truncated_frame_rejected_with_distinct_error() {
        let pool = PacketPool::new(4);
        let mut cl = classifier();
        let mut sink = Capture::default();
        // A valid frame cut short mid-IPv4-header: the ethertype still
        // says IPv4, but the header bytes are missing.
        let whole = pkt(80);
        let truncated = Packet::from_bytes(&whole.data()[..20]).unwrap();
        let stats = StageStats::new();
        assert_eq!(
            cl.admit(truncated, &pool, &mut sink, &stats).unwrap_err(),
            AdmitError::Truncated
        );
        let snap = stats.snapshot();
        assert_eq!(snap.rejects(), 1);
        assert_eq!(snap.drop_admit_malformed, 1);
        assert_eq!(snap.drop_admit_rejected, 0);
        assert_eq!(pool.in_use(), 0);
    }

    #[test]
    fn entry_with_copy_for_east_west_head() {
        // Monitor∥LB needs a header-only copy from the very first hop when
        // the group opens the graph.
        let pool = PacketPool::new(8);
        let c = compile(
            &Policy::from_chain(["Monitor", "LoadBalancer"]),
            &Registry::evaluated(),
            &[],
            &CompileOptions::default(),
        )
        .unwrap();
        let program = c.program(1).unwrap();
        assert!(program
            .tables()
            .entry_actions
            .iter()
            .any(|a| matches!(a, FtAction::Copy { .. })));
        let mut cl = live(program);
        let mut sink = Capture::default();
        cl.admit(pkt(80), &pool, &mut sink, &StageStats::new())
            .unwrap();
        assert_eq!(pool.in_use(), 2, "original + header-only copy");
    }
}
