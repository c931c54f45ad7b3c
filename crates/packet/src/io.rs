//! Pluggable packet I/O: the ingress/egress contract every traffic
//! backend implements.
//!
//! The engines never know where their packets come from or go to — they
//! pull bursts from an [`Ingress`] and push delivered frames into an
//! [`Egress`]. Two backend families implement the pair:
//!
//! * in-memory vectors ([`VecIngress`], [`CollectEgress`],
//!   [`NullEgress`], below),
//! * a classic-pcap file reader/writer for reproducible trace replay (in
//!   `nfp-io`).
//!
//! The contract is deliberately burst-shaped: `next_burst(max)` returns
//! up to `max` packets, mirroring NIC RX-ring semantics, and `None`
//! signals end of stream (a file or a vector ran out).
//! A backend with nothing available *right now* but more to come returns
//! an empty burst — only `None` terminates a run. Engines hand each burst
//! they have emitted back through [`Ingress::recycle`], so a backend can
//! refill those packets' buffers instead of allocating new ones.
//!
//! Backends stamp [`Metadata::with_ingress_ns`](crate::meta::Metadata)
//! on every packet they hand out; the classifier carries the stamp
//! through admission and feeds inter-arrival gaps into the telemetry
//! `ingress` histogram, so replayed traces surface their timing shape.

use crate::Packet;

/// Errors a packet I/O backend can produce.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IoError {
    /// The byte stream is not a valid capture/frame encoding.
    Format {
        /// What failed to decode.
        what: &'static str,
        /// Offset or detail (0 when not applicable).
        detail: u64,
    },
    /// The operating system refused an I/O operation.
    Os {
        /// The operation that failed.
        op: &'static str,
        /// `errno`-style code or 0.
        code: i32,
    },
    /// A frame exceeds what a [`Packet`] buffer can hold.
    FrameTooLarge {
        /// The oversized frame's length.
        len: usize,
    },
}

impl core::fmt::Display for IoError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            IoError::Format { what, detail } => write!(f, "malformed {what} (at {detail})"),
            IoError::Os { op, code } => write!(f, "{op} failed (errno {code})"),
            IoError::FrameTooLarge { len } => write!(f, "frame of {len} bytes exceeds capacity"),
        }
    }
}

impl std::error::Error for IoError {}

/// A source of packets: the engine-facing side of a traffic backend.
pub trait Ingress {
    /// Pull up to `max` packets. `Ok(None)` means the stream is over;
    /// `Ok(Some(vec![]))` means nothing is available right now but the
    /// stream has not ended (live sources).
    fn next_burst(&mut self, max: usize) -> Result<Option<Vec<Packet>>, IoError>;

    /// Take back packets the engine is done with — a burst it has just
    /// emitted — and leave `spent` empty. A backend that fills packets in
    /// place keeps them and refills their buffers on a later
    /// [`Ingress::next_burst`] ([`Packet::refill`]) instead of allocating
    /// new ones; by default they are dropped.
    fn recycle(&mut self, spent: &mut Vec<Packet>) {
        spent.clear();
    }

    /// Human-readable backend name for reports and logs.
    fn label(&self) -> &'static str {
        "ingress"
    }
}

/// A sink for delivered packets: where the engine's output goes.
pub trait Egress {
    /// Emit a burst of delivered packets.
    fn emit_burst(&mut self, pkts: &[Packet]) -> Result<(), IoError>;

    /// Flush buffered output (file backends); default no-op.
    fn flush(&mut self) -> Result<(), IoError> {
        Ok(())
    }

    /// Human-readable backend name for reports and logs.
    fn label(&self) -> &'static str {
        "egress"
    }
}

/// Why a packet that entered a run did not come out: the index of its
/// count in [`RunRecord::causes`]. Every drop and reject has exactly one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropCause {
    /// The classifier refused a well-formed frame: its entry actions failed.
    AdmitRejected,
    /// The classifier refused a truncated or unparseable frame.
    AdmitMalformed,
    /// An NF's drop verdict in a sequential position.
    NfVerdict,
    /// A forwarding action failed in the NF runtime (defensive discard).
    NfError,
    /// A failed (panicked or stalled) fail-closed NF's traffic.
    NfFailed,
    /// A merge resolved to the drop intention (the decider's nil won).
    MergeResolved,
    /// A merge failed (a missing version or a malformed copy).
    MergeError,
    /// A merge deadline expired and the partial merge resolved to a drop.
    MergeExpired,
}

/// What one run of an executor did, from whichever entry point it ran:
/// every packet it took in, where each went, and what its NFs did.
///
/// It is `Copy`, so the per-NF counters live inline: a program with more
/// than [`RunRecord::MAX_NFS`] NFs records none ([`RunRecord::per_nf`]).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RunRecord {
    /// Packets the run took in (pulled from an ingress, or offered).
    pub pulled: u64,
    /// Packets delivered.
    pub delivered: u64,
    /// Packets an NF or a merge dropped.
    pub dropped: u64,
    /// Packets the classifier terminally rejected at admission.
    pub rejected: u64,
    /// Drops and rejects by cause, indexed by [`DropCause`]: they sum to
    /// `dropped + rejected`.
    pub causes: [u64; 8],
    /// Packet copies materialised (paper OP#2).
    pub copies: u64,
    /// Completed merges.
    pub merges: u64,
    /// NFs counted in `per_nf`.
    nfs: usize,
    /// Each NF's `(processed, dropped)`, in `NodeId` order.
    per_nf: [(u64, u64); RunRecord::MAX_NFS],
}

/// What every `run_io` returned before it returned a [`RunRecord`].
pub type IoRunStats = RunRecord;

impl RunRecord {
    /// The most NFs whose counters a record holds.
    pub const MAX_NFS: usize = 16;

    /// Each NF's `(processed, dropped)` in `NodeId` order, or `None` when
    /// the executor keeps no per-NF counters (run-to-completion) or the
    /// program has more than [`RunRecord::MAX_NFS`] NFs.
    pub fn per_nf(&self) -> Option<&[(u64, u64)]> {
        self.per_nf.get(..self.nfs).filter(|nfs| !nfs.is_empty())
    }

    /// Count the next NF's `(processed, dropped)`.
    pub fn push_nf(&mut self, processed: u64, dropped: u64) {
        if let Some(slot) = self.per_nf.get_mut(self.nfs) {
            *slot = (processed, dropped);
        }
        self.nfs += 1;
    }

    /// Add `other`'s counts to these: a fleet's replicas, the chunks of a
    /// soak run, the feeds of a test.
    pub fn absorb(&mut self, other: &RunRecord) {
        self.combine(other, |a, b| a + b);
    }

    /// What the run did since `earlier`, a record of the same executor.
    pub fn since(mut self, earlier: &RunRecord) -> RunRecord {
        self.combine(earlier, |a, b| a - b);
        self
    }

    fn combine(&mut self, other: &RunRecord, op: impl Fn(u64, u64) -> u64) {
        self.pulled = op(self.pulled, other.pulled);
        self.delivered = op(self.delivered, other.delivered);
        self.dropped = op(self.dropped, other.dropped);
        self.rejected = op(self.rejected, other.rejected);
        self.copies = op(self.copies, other.copies);
        self.merges = op(self.merges, other.merges);
        for (a, b) in self.causes.iter_mut().zip(other.causes) {
            *a = op(*a, b);
        }
        for (a, b) in self.per_nf.iter_mut().zip(other.per_nf) {
            *a = (op(a.0, b.0), op(a.1, b.1));
        }
        self.nfs = self.nfs.max(other.nfs);
    }
}

/// An ingress over an in-memory packet vector (tests, sharding fronts).
#[derive(Debug)]
pub struct VecIngress {
    pkts: std::collections::VecDeque<Packet>,
}

impl VecIngress {
    /// Wrap `pkts`; they are handed out in order.
    pub fn new(pkts: Vec<Packet>) -> Self {
        Self { pkts: pkts.into() }
    }

    /// Packets not yet pulled.
    #[cfg(test)]
    fn remaining(&self) -> usize {
        self.pkts.len()
    }
}

impl Ingress for VecIngress {
    fn next_burst(&mut self, max: usize) -> Result<Option<Vec<Packet>>, IoError> {
        if self.pkts.is_empty() {
            return Ok(None);
        }
        let n = max.max(1).min(self.pkts.len());
        Ok(Some(self.pkts.drain(..n).collect()))
    }

    fn label(&self) -> &'static str {
        "vec"
    }
}

/// An egress that keeps every delivered packet (tests, differential
/// harnesses).
#[derive(Debug, Default)]
pub struct CollectEgress {
    /// Delivered packets, in emission order.
    pub pkts: Vec<Packet>,
}

impl CollectEgress {
    /// An empty collector.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Egress for CollectEgress {
    fn emit_burst(&mut self, pkts: &[Packet]) -> Result<(), IoError> {
        self.pkts.extend(pkts.iter().cloned());
        Ok(())
    }

    fn label(&self) -> &'static str {
        "collect"
    }
}

/// An egress that counts and discards (benchmarks).
#[derive(Debug, Default)]
pub struct NullEgress {
    /// Packets discarded.
    emitted: u64,
    /// Bytes discarded.
    bytes: u64,
}

impl NullEgress {
    /// A fresh counter.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Egress for NullEgress {
    fn emit_burst(&mut self, pkts: &[Packet]) -> Result<(), IoError> {
        self.emitted += pkts.len() as u64;
        self.bytes += pkts.iter().map(|p| p.len() as u64).sum::<u64>();
        Ok(())
    }

    fn label(&self) -> &'static str {
        "null"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{ip, tcp_packet};

    fn pkts(n: usize) -> Vec<Packet> {
        (0..n)
            .map(|i| {
                tcp_packet(
                    ip(10, 0, 0, 1),
                    ip(10, 0, 0, 2),
                    1000 + i as u16,
                    80,
                    &[i as u8; 16],
                )
            })
            .collect()
    }

    #[test]
    fn vec_ingress_bursts_in_order_then_ends() {
        let mut ing = VecIngress::new(pkts(5));
        assert_eq!(ing.remaining(), 5);
        let b1 = ing.next_burst(2).unwrap().unwrap();
        assert_eq!(b1.len(), 2);
        assert_eq!(b1[0].sport().unwrap(), 1000);
        let b2 = ing.next_burst(16).unwrap().unwrap();
        assert_eq!(b2.len(), 3);
        assert!(ing.next_burst(4).unwrap().is_none());
        assert!(ing.next_burst(4).unwrap().is_none());
    }

    #[test]
    fn collect_and_null_egress_account_bursts() {
        let batch = pkts(3);
        let mut c = CollectEgress::new();
        c.emit_burst(&batch).unwrap();
        c.flush().unwrap();
        assert_eq!(c.pkts.len(), 3);
        assert_eq!(c.pkts[1].data(), batch[1].data());
        let mut n = NullEgress::new();
        n.emit_burst(&batch).unwrap();
        assert_eq!(n.emitted, 3);
        assert_eq!(n.bytes, batch.iter().map(|p| p.len() as u64).sum::<u64>());
    }

    #[test]
    fn records_add_and_subtract_field_by_field() {
        let mut a = RunRecord::default();
        assert_eq!(a.per_nf(), None, "no per-NF counters");
        (a.pulled, a.delivered, a.dropped, a.copies) = (4, 3, 1, 2);
        a.causes[DropCause::NfVerdict as usize] = 1;
        a.push_nf(4, 1);
        let mut sum = a;
        sum.absorb(&a);
        assert_eq!((sum.pulled, sum.copies, sum.causes[2]), (8, 4, 2));
        assert_eq!((sum.per_nf(), sum.since(&a)), (Some(&[(8, 2)][..]), a));
        for _ in 0..RunRecord::MAX_NFS {
            a.push_nf(1, 0);
        }
        assert_eq!(a.per_nf(), None, "more NFs than a record holds");
    }

    #[test]
    fn io_error_displays() {
        assert!(IoError::Format {
            what: "pcap header",
            detail: 4
        }
        .to_string()
        .contains("pcap header"));
    }
}
