//! The NF abstraction: [`NetworkFunction`] and [`PacketView`].
//!
//! "NFP provides NFs with interfaces to access and modify packets" (§5.4).
//! The view is the NF-facing half of that interface; the runtime half
//! (ring buffers, delivery) lives in `nfp-dataplane`.

use nfp_orchestrator::ActionProfile;
use nfp_packet::meta::Metadata;
use nfp_packet::pool::{PacketPool, PacketRef};
use nfp_packet::{FieldId, Packet, PacketError};

/// What an NF decided about a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Forward the packet along the graph.
    Pass,
    /// Drop the packet; the runtime turns this into a nil packet toward the
    /// merger on parallel branches (§5.2 `ignore`).
    Drop,
}

/// NF-facing packet access.
///
/// Two modes mirror the two ways the compiled graph grants access:
///
/// * **Exclusive** — the NF is the only owner (sequential segment, or a
///   parallel member with its own packet copy). Full structural access.
/// * **Shared** — the packet is concurrently visible to other parallel NFs
///   under Dirty Memory Reusing; access is field-scoped and goes through
///   the pool's raw-pointer field API. The compiled graph guarantees the
///   fields this NF touches are disjoint from every concurrent writer.
pub enum PacketView<'a> {
    /// Sole-owner access to the packet.
    Exclusive(&'a mut Packet),
    /// Field-scoped access to a pool slot shared with parallel NFs.
    Shared {
        /// The pool holding the packet.
        pool: &'a PacketPool,
        /// The slot reference.
        r: PacketRef,
    },
    /// Exclusive access that records every API call — the substrate of the
    /// §5.4 action inspector (see [`crate::inspector`]). Never used on the
    /// datapath.
    Inspect {
        /// The packet under inspection.
        pkt: &'a mut Packet,
        /// Usage log the accessors append to.
        log: &'a core::cell::RefCell<crate::inspector::UsageLog>,
    },
}

impl<'a> PacketView<'a> {
    /// Read a header field as raw bytes into `buf`; returns the length.
    #[inline]
    pub(crate) fn read_bytes(&self, field: FieldId, buf: &mut [u8]) -> Result<usize, PacketError> {
        fn read_from(p: &Packet, field: FieldId, buf: &mut [u8]) -> Result<usize, PacketError> {
            let bytes = p.field_bytes(field)?;
            if buf.len() < bytes.len() {
                return Err(PacketError::NoCapacity {
                    requested: bytes.len(),
                    capacity: buf.len(),
                });
            }
            buf[..bytes.len()].copy_from_slice(bytes);
            Ok(bytes.len())
        }
        match self {
            PacketView::Exclusive(p) => read_from(p, field, buf),
            PacketView::Shared { pool, r } => pool.read_field(*r, field, buf),
            PacketView::Inspect { pkt, log } => {
                log.borrow_mut().reads.insert(field);
                read_from(pkt, field, buf)
            }
        }
    }

    /// Read a scalar header field (≤ 8 bytes) as a big-endian integer.
    /// The sole owner of a packet gets one fixed-width load
    /// ([`Packet::field_scalar`]); the other arms copy the field out first.
    #[inline]
    pub(crate) fn read_scalar(&self, field: FieldId) -> Result<u64, PacketError> {
        if let PacketView::Exclusive(p) = self {
            return p.field_scalar(field);
        }
        let mut buf = [0u8; 8];
        let n = self.read_bytes(field, &mut buf)?;
        Ok(buf[..n].iter().fold(0, |v, &b| (v << 8) | u64::from(b)))
    }

    /// Overwrite a header field.
    #[inline]
    pub(crate) fn write(&mut self, field: FieldId, value: &[u8]) -> Result<(), PacketError> {
        match self {
            PacketView::Exclusive(p) => p.set_field_bytes(field, value),
            PacketView::Shared { pool, r } => pool.write_field(*r, field, value),
            PacketView::Inspect { pkt, log } => {
                log.borrow_mut().writes.insert(field);
                pkt.set_field_bytes(field, value)
            }
        }
    }

    /// Mutable access to the whole packet — only when the NF owns it.
    /// Structural operations (header add/remove, payload rewrites) require
    /// this; the graph compiler guarantees Add/Rm NFs own their copy.
    #[inline]
    pub(crate) fn exclusive_mut(&mut self) -> Option<&mut Packet> {
        match self {
            PacketView::Exclusive(p) => Some(p),
            PacketView::Shared { .. } => None,
            PacketView::Inspect { pkt, log } => {
                log.borrow_mut().exclusive_taken = true;
                Some(pkt)
            }
        }
    }

    /// The packet's 5-tuple (sip, dip, sport, dport, proto). Recorded as
    /// reads of the four tuple fields under inspection.
    #[inline]
    pub(crate) fn five_tuple(
        &self,
    ) -> Result<
        (
            nfp_packet::ipv4::Ipv4Addr,
            nfp_packet::ipv4::Ipv4Addr,
            u16,
            u16,
            u8,
        ),
        PacketError,
    > {
        match self {
            PacketView::Exclusive(p) => p.five_tuple(),
            PacketView::Shared { pool, r } => pool.with(*r, |p| p.five_tuple()),
            PacketView::Inspect { pkt, log } => {
                let mut l = log.borrow_mut();
                for f in [FieldId::Sip, FieldId::Dip, FieldId::Sport, FieldId::Dport] {
                    l.reads.insert(f);
                }
                drop(l);
                pkt.five_tuple()
            }
        }
    }

    /// Frame length in bytes (not recorded as a field access).
    #[inline]
    pub(crate) fn len(&self) -> usize {
        match self {
            PacketView::Exclusive(p) => p.len(),
            PacketView::Shared { pool, r } => pool.with(*r, |p| p.len()),
            PacketView::Inspect { pkt, .. } => pkt.len(),
        }
    }

    /// NFP metadata attached to the packet (not recorded).
    #[inline]
    pub(crate) fn meta(&self) -> Metadata {
        match self {
            PacketView::Exclusive(p) => p.meta(),
            PacketView::Shared { pool, r } => pool.with(*r, |p| p.meta()),
            PacketView::Inspect { pkt, .. } => pkt.meta(),
        }
    }
}

/// A network function.
///
/// Implementations are single-threaded (`Send`, not `Sync`): the NFP model
/// dedicates one executor (container/core in the paper, thread here) to
/// each NF instance, so interior state needs no synchronization.
///
/// Stateful NFs — those keeping per-flow state in a
/// [`FlowTable`](crate::state::FlowTable) — additionally implement the
/// state hooks ([`NetworkFunction::stateful`],
/// [`NetworkFunction::snapshot_state`],
/// [`NetworkFunction::restore_state`],
/// [`NetworkFunction::bind_partition`]) so the dataplane can move their
/// state with the flows when the shard count changes. The default
/// implementations describe a stateless NF; the hooks are object-safe,
/// so `Box<dyn NetworkFunction>` forwards them.
pub trait NetworkFunction: Send {
    /// Instance name (matches policy NF names).
    fn name(&self) -> &str;

    /// The NF's action profile, for registration with the orchestrator
    /// (paper Table 2 row / §5.4 registration).
    fn profile(&self) -> ActionProfile;

    /// Process one packet.
    fn process(&mut self, pkt: &mut PacketView<'_>) -> Verdict;

    /// True when this NF keeps per-flow state that must migrate with its
    /// flows across shard-count changes.
    fn stateful(&self) -> bool {
        false
    }

    /// Export this NF's per-flow state. Stateless NFs export nothing.
    fn snapshot_state(&self) -> crate::state::FlowSnapshot {
        crate::state::FlowSnapshot::empty(self.name())
    }

    /// Import per-flow state previously exported by an instance of the
    /// same NF (the caller partition-filters entries to this instance's
    /// shard first). Stateless NFs ignore it.
    fn restore_state(&mut self, snap: &crate::state::FlowSnapshot) {
        let _ = snap;
    }

    /// Tell the NF which shard partition it serves (`index` of `total`),
    /// arming the debug-build ownership assertion on its flow tables.
    /// Stateless NFs ignore it.
    fn bind_partition(&mut self, index: usize, total: usize) {
        let _ = (index, total);
    }
}

/// Blanket helper: every boxed NF is also an NF. Forwards **every**
/// method — including the state hooks, which would otherwise silently
/// fall back to the stateless defaults and strand state behind the box.
impl NetworkFunction for Box<dyn NetworkFunction> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn profile(&self) -> ActionProfile {
        (**self).profile()
    }

    fn process(&mut self, pkt: &mut PacketView<'_>) -> Verdict {
        (**self).process(pkt)
    }

    fn stateful(&self) -> bool {
        (**self).stateful()
    }

    fn snapshot_state(&self) -> crate::state::FlowSnapshot {
        (**self).snapshot_state()
    }

    fn restore_state(&mut self, snap: &crate::state::FlowSnapshot) {
        (**self).restore_state(snap)
    }

    fn bind_partition(&mut self, index: usize, total: usize) {
        (**self).bind_partition(index, total)
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    //! Test-frame builders, delegating to the workspace-shared
    //! [`nfp_packet::testutil`] emitters.
    pub(crate) use nfp_packet::testutil::{ip, tcp_packet, udp_packet};
}

#[cfg(test)]
mod tests {
    use super::*;
    use testutil::*;

    #[test]
    fn exclusive_view_reads_and_writes() {
        let mut p = tcp_packet(ip(10, 0, 0, 1), ip(10, 0, 0, 2), 1111, 80, b"hi");
        let mut v = PacketView::Exclusive(&mut p);
        assert_eq!(v.read_scalar(FieldId::Dport).unwrap(), 80);
        v.write(FieldId::Dport, &443u16.to_be_bytes()).unwrap();
        assert_eq!(v.read_scalar(FieldId::Dport).unwrap(), 443);
        assert!(v.exclusive_mut().is_some());
        assert_eq!(v.len(), 14 + 20 + 20 + 2);
    }

    #[test]
    fn shared_view_reads_and_writes_fields() {
        let pool = PacketPool::new(2);
        let p = tcp_packet(ip(10, 0, 0, 1), ip(10, 0, 0, 2), 5, 6, b"");
        let r = pool.insert(p).unwrap();
        let mut v = PacketView::Shared { pool: &pool, r };
        assert_eq!(v.read_scalar(FieldId::Sport).unwrap(), 5);
        v.write(FieldId::Sport, &9u16.to_be_bytes()).unwrap();
        assert_eq!(v.read_scalar(FieldId::Sport).unwrap(), 9);
        assert!(v.exclusive_mut().is_none());
        let (s, d, sp, dp, _) = v.five_tuple().unwrap();
        assert_eq!((s, d, sp, dp), (ip(10, 0, 0, 1), ip(10, 0, 0, 2), 9, 6));
        pool.release(r);
    }

    #[test]
    fn read_scalar_rejects_wide_fields() {
        let mut p = tcp_packet(ip(1, 1, 1, 1), ip(2, 2, 2, 2), 1, 2, b"0123456789");
        let v = PacketView::Exclusive(&mut p);
        assert!(v.read_scalar(FieldId::Payload).is_err());
        let mut buf = [0u8; 64];
        assert_eq!(v.read_bytes(FieldId::Payload, &mut buf).unwrap(), 10);
        assert_eq!(&buf[..10], b"0123456789");
    }
}
