//! The shared packet pool.
//!
//! The NFP infrastructure keeps all packets "in a shared memory region
//! allocated in huge pages accessible to all NFs" and passes *references*
//! between NFs instead of copying (paper §5, NetVM-style zero-copy
//! delivery). [`PacketPool`] reproduces that substrate in user space:
//!
//! * a fixed number of packet slots, each created with its own packet buffer
//!   ("we prepare memory blocks to store input or copied packets during the
//!   system initialization", so the datapath never allocates — see *Who owns
//!   a buffer* below);
//! * cheap [`PacketRef`] handles that rings carry between NF threads;
//! * per-slot reference counts so one packet can be *distributed* to several
//!   parallel NFs without copying, and freed exactly when the merger is done
//!   with every copy;
//! * header-only copy (paper OP#2) as a pool operation.
//!
//! # Aliasing contract (the one `unsafe` region in this workspace)
//!
//! Slots hold packets in `UnsafeCell` so several NF threads can access one
//! packet concurrently, which is exactly NFP's Dirty Memory Reusing (OP#1):
//! the orchestrator has *proven at graph-compile time* that concurrent NFs
//! touch disjoint field sets. The pool exposes three access levels:
//!
//! 1. [`PacketPool::with_mut`] — exclusive: asserts the reference count is
//!    1, hands out `&mut Packet`. Used on sequential graph segments and by
//!    the merger.
//! 2. [`PacketPool::with`] — shared read of the whole packet: sound only
//!    while no concurrent writer exists for this slot (the compiled graph
//!    guarantees it for read-only parallel stages).
//! 3. [`PacketPool::read_field`] / [`PacketPool::write_field`] — field-
//!    scoped raw-pointer access for parallel stages under Dirty Memory
//!    Reusing. Writes to *disjoint byte ranges* from different threads are
//!    not data races; the orchestrator's dependency tables (paper Table 3 +
//!    Algorithm 1) are what makes the ranges disjoint.
//!
//! The free list is a lock-free Treiber stack with an ABA tag, so alloc and
//! release never take a lock on the datapath.
//!
//! # Who owns a buffer
//!
//! "Pre-allocated" means: [`PacketPool::new`] allocates one buffer per slot,
//! and after that the pool allocates nothing — buffers only change hands.
//!
//! * **copy / nil** ([`PacketPool::header_only_copy`],
//!   [`PacketPool::full_copy`], [`PacketPool::insert_nil`]) write *into the
//!   free slot's own buffer* (`Packet::copy_from`,
//!   [`Packet::set_nil_packet`]); no buffer moves.
//! * **insert** moves the caller's packet — buffer included — into the slot.
//!   The slot's own buffer is displaced into the slot's *spare*. If a spare
//!   is already there (a drop left the slot holding an inserted packet),
//!   the displaced buffer leaves the pool: [`PacketPool::insert`] frees it,
//!   [`PacketPool::insert_displacing`] hands it back for the ingress to
//!   refill. So a slot holds at most two buffers, the pool 2 × `capacity`.
//! * **take** moves the packet back out to the caller and leaves the spare
//!   behind as the slot's buffer: what `insert` displaced is what the next
//!   `take` of that slot leaves. (A slot filled in place has no spare; taking
//!   it clones the packet out — the one allocating case, and off the
//!   engines' path, which only ever take originals that entered by `insert`.)
//! * **release** frees no memory: the slot goes back on the free list with
//!   whatever buffers it holds.
//!
//! **No stale bytes.** A recycled buffer still holds its previous frame, but
//! nothing can read it: every operation that claims a free slot rewrites
//! every packet field, `Packet::data` ends at `len`, and the only ways to
//! extend `len` — `set_frame` and `insert_bytes` — write every byte they
//! expose. `take` additionally resets the slot it leaves to the state of
//! `Packet::new`.

use crate::field::FieldId;
use crate::meta::Metadata;
use crate::packet::Packet;
use crate::{PacketError, Result};
use core::cell::UnsafeCell;
use core::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// Sentinel "null" index terminating the free list.
const NIL: u32 = u32::MAX;

/// A handle to a pooled packet slot. `Copy`, 4 bytes — this is what ring
/// buffers between NFs actually carry ("an NF simply writes packet
/// references into the receive ring buffer of the other NF").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PacketRef(u32);

impl PacketRef {
    /// The slot index (stable for the lifetime of the allocation).
    pub fn index(self) -> u32 {
        self.0
    }
}

// Cache-line aligned: neighbouring slots are retained/released from
// different stage threads, and an unaligned header would let slot i's
// refcount false-share with slot i±1's.
#[repr(align(64))]
struct Slot {
    /// 0 = free; otherwise the number of logical owners.
    refcount: AtomicU32,
    /// Free-list link (valid only while free).
    next: AtomicU32,
    pkt: UnsafeCell<Packet>,
    /// The slot's own buffer while an inserted packet occupies `pkt` (see
    /// "Who owns a buffer" in the module docs).
    spare: UnsafeCell<Option<Packet>>,
}

// SAFETY: concurrent access to `pkt` is governed by the contract documented
// in the module docs: exclusive access is runtime-checked via `refcount`,
// and shared field-level access is restricted to disjoint byte ranges by
// the orchestrator's compiled graph. `spare` is touched only with exclusive
// access to the slot: by `insert` on a slot it just popped off the free
// list, and by `take` under its sole-owner assertion.
unsafe impl Sync for Slot {}
unsafe impl Send for Slot {}

/// A pre-allocated, reference-counted pool of packet slots shared by every
/// NF in one NFP server.
pub struct PacketPool {
    slots: Box<[Slot]>,
    /// Treiber stack head: (index, aba-tag) packed into 64 bits.
    free_head: AtomicU64,
    /// Slots currently allocated (the live count, not a peak).
    in_use: AtomicU32,
}

fn pack(index: u32, tag: u32) -> u64 {
    (u64::from(tag) << 32) | u64::from(index)
}

fn unpack(v: u64) -> (u32, u32) {
    (v as u32, (v >> 32) as u32)
}

impl PacketPool {
    /// Create a pool with `capacity` packet slots, each with its own buffer.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0 && capacity < NIL as usize, "bad pool capacity");
        let slots: Box<[Slot]> = (0..capacity)
            .map(|i| Slot {
                refcount: AtomicU32::new(0),
                next: AtomicU32::new(if i + 1 < capacity { i as u32 + 1 } else { NIL }),
                pkt: UnsafeCell::new(Packet::new()),
                spare: UnsafeCell::new(None),
            })
            .collect();
        Self {
            slots,
            free_head: AtomicU64::new(pack(0, 0)),
            in_use: AtomicU32::new(0),
        }
    }

    /// Total number of slots.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Number of currently allocated slots.
    pub fn in_use(&self) -> usize {
        self.in_use.load(Ordering::Relaxed) as usize
    }

    fn pop_free(&self) -> Option<u32> {
        let mut head = self.free_head.load(Ordering::Acquire);
        loop {
            let (idx, tag) = unpack(head);
            if idx == NIL {
                return None;
            }
            let next = self.slots[idx as usize].next.load(Ordering::Relaxed);
            match self.free_head.compare_exchange_weak(
                head,
                pack(next, tag.wrapping_add(1)),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Some(idx),
                Err(h) => head = h,
            }
        }
    }

    fn push_free(&self, idx: u32) {
        let mut head = self.free_head.load(Ordering::Acquire);
        loop {
            let (old_idx, tag) = unpack(head);
            self.slots[idx as usize]
                .next
                .store(old_idx, Ordering::Relaxed);
            match self.free_head.compare_exchange_weak(
                head,
                pack(idx, tag.wrapping_add(1)),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return,
                Err(h) => head = h,
            }
        }
    }

    /// Publish a slot popped off the free list, now filled, with one owner.
    fn publish(&self, idx: u32) -> PacketRef {
        self.slots[idx as usize]
            .refcount
            .store(1, Ordering::Release);
        self.in_use.fetch_add(1, Ordering::Relaxed);
        PacketRef(idx)
    }

    /// Pop a free slot, let `fill` write its packet in place — into the
    /// slot's own buffer — and publish it. A refused fill puts the slot
    /// straight back: `in_use` and the free list's order are as they were.
    fn fill_free_slot(&self, fill: impl FnOnce(&mut Packet) -> Result<()>) -> Result<PacketRef> {
        let idx = self.pop_free().ok_or(PacketError::PoolExhausted)?;
        let slot = &self.slots[idx as usize];
        debug_assert_eq!(slot.refcount.load(Ordering::Relaxed), 0);
        // SAFETY: the slot was on the free list, so no other thread holds a
        // reference to it; we have exclusive access until it is published.
        match fill(unsafe { &mut *slot.pkt.get() }) {
            Ok(()) => Ok(self.publish(idx)),
            Err(e) => {
                self.push_free(idx);
                Err(e)
            }
        }
    }

    /// Move `pkt` into a fresh slot. On pool exhaustion the packet is handed
    /// back so the caller can apply backpressure instead of dropping.
    // Returning the whole Packet in Err is the point of the API — the
    // caller keeps ownership to retry later; boxing it would add an
    // allocation on the backpressure path.
    #[allow(clippy::result_large_err)]
    pub fn insert(&self, pkt: Packet) -> core::result::Result<PacketRef, Packet> {
        self.insert_displacing(pkt).map(|(r, _)| r)
    }

    /// [`PacketPool::insert`], handing back the buffer the insert displaced
    /// when the slot already held a spare — a buffer the slot kept from a
    /// packet that never left it (see "Who owns a buffer").
    #[allow(clippy::result_large_err)]
    pub fn insert_displacing(
        &self,
        pkt: Packet,
    ) -> core::result::Result<(PacketRef, Option<Packet>), Packet> {
        let Some(idx) = self.pop_free() else {
            return Err(pkt);
        };
        let slot = &self.slots[idx as usize];
        debug_assert_eq!(slot.refcount.load(Ordering::Relaxed), 0);
        // SAFETY: the slot was on the free list, so no other thread holds a
        // reference to it; we have exclusive access until it is published.
        let (own, spare) = unsafe { (&mut *slot.pkt.get(), &mut *slot.spare.get()) };
        let displaced = core::mem::replace(own, pkt);
        if spare.is_none() {
            *spare = Some(displaced);
            return Ok((self.publish(idx), None));
        }
        Ok((self.publish(idx), Some(displaced)))
    }

    /// Allocate the nil packet a runtime sends to the merger in place of a
    /// packet its NF dropped ([`Packet::set_nil_packet`]), written into a
    /// free slot's own buffer. Fails with [`PacketError::PoolExhausted`]
    /// when no slot is free.
    pub fn insert_nil(&self, meta: Metadata, priority: u32, failure: bool) -> Result<PacketRef> {
        self.fill_free_slot(|nil| {
            nil.set_nil_packet(meta, priority, failure);
            Ok(())
        })
    }

    /// Add one logical owner (used by `distribute` to several parallel NFs
    /// without copying).
    pub fn retain(&self, r: PacketRef) {
        let prev = self.slots[r.0 as usize]
            .refcount
            .fetch_add(1, Ordering::AcqRel);
        debug_assert!(prev > 0, "retain of a free slot");
    }

    /// Drop one logical owner; the slot returns to the free list when the
    /// count reaches zero.
    pub fn release(&self, r: PacketRef) {
        let slot = &self.slots[r.0 as usize];
        let prev = slot.refcount.fetch_sub(1, Ordering::AcqRel);
        assert!(prev > 0, "release of a free slot");
        if prev == 1 {
            self.in_use.fetch_sub(1, Ordering::Relaxed);
            self.push_free(r.0);
        }
    }

    /// Current reference count (diagnostics/tests).
    pub fn refcount(&self, r: PacketRef) -> u32 {
        self.slots[r.0 as usize].refcount.load(Ordering::Acquire)
    }

    /// Exclusive access. Panics if the slot is shared — calling this on a
    /// shared slot is a graph-compiler bug, not a recoverable condition.
    pub fn with_mut<R>(&self, r: PacketRef, f: impl FnOnce(&mut Packet) -> R) -> R {
        let slot = &self.slots[r.0 as usize];
        let rc = slot.refcount.load(Ordering::Acquire);
        assert_eq!(rc, 1, "with_mut on a slot with refcount {rc}");
        // SAFETY: refcount is 1 and the caller is that single owner, so no
        // other thread can access this slot concurrently.
        f(unsafe { &mut *slot.pkt.get() })
    }

    /// Shared read access. Sound while the compiled graph guarantees no
    /// concurrent writer for this slot (read-only parallel stages, merger
    /// input collection).
    pub fn with<R>(&self, r: PacketRef, f: impl FnOnce(&Packet) -> R) -> R {
        let slot = &self.slots[r.0 as usize];
        debug_assert!(
            slot.refcount.load(Ordering::Acquire) > 0,
            "with on free slot"
        );
        // SAFETY: per the module contract, no `&mut Packet` exists while
        // shared readers run; field-level writers touch only byte ranges the
        // orchestrator proved disjoint from anything read here.
        f(unsafe { &*slot.pkt.get() })
    }

    /// Read a field's bytes into `buf` under the Dirty-Memory-Reusing
    /// contract; returns the number of bytes written.
    pub fn read_field(&self, r: PacketRef, field: FieldId, buf: &mut [u8]) -> Result<usize> {
        let slot = &self.slots[r.0 as usize];
        // SAFETY: see `with`; additionally we only read this field's bytes,
        // which the compiled graph guarantees no concurrent NF writes.
        let pkt = unsafe { &*slot.pkt.get() };
        let range = pkt.field_range(field)?;
        let n = range.len();
        if buf.len() < n {
            return Err(PacketError::NoCapacity {
                requested: n,
                capacity: buf.len(),
            });
        }
        buf[..n].copy_from_slice(&pkt.data()[range]);
        Ok(n)
    }

    /// Overwrite a field's bytes under the Dirty-Memory-Reusing contract.
    /// Concurrent writers to *other* fields of the same packet are allowed;
    /// the orchestrator never schedules two concurrent writers of the same
    /// field without a copy (paper Table 3, read-write/write-write rows).
    pub fn write_field(&self, r: PacketRef, field: FieldId, value: &[u8]) -> Result<()> {
        let slot = &self.slots[r.0 as usize];
        // SAFETY: we form a shared reference only to *parse* (pure read of
        // header structure, which no NF mutates during a parallel stage) and
        // then write through a raw pointer without creating `&mut Packet`.
        let pkt = unsafe { &*slot.pkt.get() };
        let range = pkt.field_range(field)?;
        if range.len() != value.len() {
            return Err(PacketError::Malformed {
                what: "field value width mismatch",
            });
        }
        let base = pkt.frame_ptr() as *mut u8;
        // SAFETY: `range` is in-bounds of the frame (checked by
        // `field_range`), and disjointness from concurrent accesses is
        // guaranteed by the compiled service graph.
        unsafe {
            core::ptr::copy_nonoverlapping(value.as_ptr(), base.add(range.start), value.len());
        }
        Ok(())
    }

    /// Move the packet out of its slot (requires exclusive ownership) and
    /// free the slot, which is left in the state of [`Packet::new`].
    pub fn take(&self, r: PacketRef) -> Packet {
        let slot = &self.slots[r.0 as usize];
        let rc = slot.refcount.load(Ordering::Acquire);
        assert_eq!(rc, 1, "take on a slot with refcount {rc}");
        // SAFETY: sole owner, as asserted.
        let (own, spare) = unsafe { (&mut *slot.pkt.get(), &mut *slot.spare.get()) };
        let pkt = match spare.take() {
            // The packet entered by `insert`: hand it back with the buffer
            // it came in, and leave the buffer it displaced.
            Some(mut left) => {
                left.reset();
                core::mem::replace(own, left)
            }
            // Filled in place: the only buffer here is the slot's own.
            None => {
                let pkt = own.clone();
                own.reset();
                pkt
            }
        };
        slot.refcount.store(0, Ordering::Release);
        self.in_use.fetch_sub(1, Ordering::Relaxed);
        self.push_free(r.0);
        pkt
    }

    /// Allocate a **header-only copy** (paper OP#2) of `r`, tagged with
    /// `version`, written into a free slot's own buffer. Fails with
    /// [`PacketError::PoolExhausted`] when no free slot is available — the
    /// caller decides between backpressure and dropping.
    pub fn header_only_copy(&self, r: PacketRef, version: u8) -> Result<PacketRef> {
        self.fill_free_slot(|copy| self.with(r, |p| copy.copy_from(p, version, true)))
    }

    /// Allocate a full copy of `r`, tagged with `version`, written into a
    /// free slot's own buffer. Fails with [`PacketError::PoolExhausted`]
    /// when no free slot is available.
    pub fn full_copy(&self, r: PacketRef, version: u8) -> Result<PacketRef> {
        self.fill_free_slot(|copy| self.with(r, |p| copy.copy_from(p, version, false)))
    }
}

impl core::fmt::Debug for PacketPool {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("PacketPool")
            .field("capacity", &self.capacity())
            .field("in_use", &self.in_use())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::observable;
    use std::sync::Arc;

    #[test]
    fn alloc_release_cycles_all_slots() {
        let pool = PacketPool::new(4);
        let refs: Vec<_> = (0..4)
            .map(|_| pool.insert(Packet::new()).unwrap())
            .collect();
        assert_eq!(pool.in_use(), 4);
        assert!(pool.insert(Packet::new()).is_err());
        for r in refs {
            pool.release(r);
        }
        assert_eq!(pool.in_use(), 0);
        // All four slots usable again.
        for _ in 0..4 {
            pool.insert(Packet::new()).unwrap();
        }
    }

    #[test]
    fn retain_keeps_slot_alive() {
        let pool = PacketPool::new(2);
        let r = pool.insert(Packet::new()).unwrap();
        pool.retain(r);
        assert_eq!(pool.refcount(r), 2);
        pool.release(r);
        assert_eq!(pool.in_use(), 1);
        pool.release(r);
        assert_eq!(pool.in_use(), 0);
    }

    #[test]
    #[should_panic(expected = "with_mut on a slot")]
    fn with_mut_on_shared_slot_panics() {
        let pool = PacketPool::new(2);
        let r = pool.insert(Packet::new()).unwrap();
        pool.retain(r);
        pool.with_mut(r, |_| ());
    }

    #[test]
    fn take_moves_packet_out() {
        let pool = PacketPool::new(1);
        let mut p = Packet::new();
        p.set_meta(crate::Metadata::new(7, 9, 1));
        let r = pool.insert(p).unwrap();
        let out = pool.take(r);
        assert_eq!(out.meta().pid(), 9);
        assert_eq!(pool.in_use(), 0);
        pool.insert(Packet::new()).unwrap();
    }

    fn tcp_packet() -> Packet {
        let frame = crate::packet::tests::tcp_frame(32);
        let mut p = Packet::from_bytes(&frame).unwrap();
        p.parse().unwrap();
        p
    }

    #[test]
    fn field_read_write_through_pool() {
        let pool = PacketPool::new(2);
        let r = pool.insert(tcp_packet()).unwrap();
        pool.write_field(r, FieldId::Dport, &443u16.to_be_bytes())
            .unwrap();
        let mut buf = [0u8; 2];
        assert_eq!(pool.read_field(r, FieldId::Dport, &mut buf).unwrap(), 2);
        assert_eq!(u16::from_be_bytes(buf), 443);
        pool.release(r);
    }

    #[test]
    fn header_only_copy_through_pool() {
        let pool = PacketPool::new(2);
        let r = pool.insert(tcp_packet()).unwrap();
        let c = pool.header_only_copy(r, 2).unwrap();
        pool.with(c, |p| {
            assert!(p.is_header_only());
            assert_eq!(p.meta().version(), 2);
        });
        pool.release(r);
        pool.release(c);
    }

    #[test]
    fn copy_on_exhausted_pool_reports_exhaustion() {
        let pool = PacketPool::new(1);
        let r = pool.insert(tcp_packet()).unwrap();
        assert_eq!(pool.full_copy(r, 2), Err(PacketError::PoolExhausted));
        pool.release(r);
    }

    /// The packet in slot `index`, free or not (test-only peek).
    fn slot_packet(pool: &PacketPool, index: u32) -> &Packet {
        // SAFETY: single-threaded test; nothing else touches the slot.
        unsafe { &*pool.slots[index as usize].pkt.get() }
    }

    /// Two-slot pools, both slots free again, with slot 1 left dirty in each
    /// of the ways a slot gets recycled. The next two allocations pop slot
    /// 0, then slot 1.
    fn pools_with_dirty_slot() -> Vec<(&'static str, PacketPool)> {
        let long = || {
            let mut p = Packet::from_bytes(&crate::packet::tests::tcp_frame(1400)).unwrap();
            p.set_meta(crate::Metadata::new(9, 99, 3));
            p
        };
        let mut out = Vec::new();
        for label in [
            "longer frame",
            "nil",
            "failure nil",
            "header-only copy",
            "taken",
        ] {
            let pool = PacketPool::new(2);
            let busy = pool.insert(long()).unwrap();
            let dirty = match label {
                "longer frame" | "taken" => pool.insert(long()).unwrap(),
                "nil" => pool
                    .insert_nil(crate::Metadata::new(9, 99, 3), 7, false)
                    .unwrap(),
                "failure nil" => pool
                    .insert_nil(crate::Metadata::new(9, 99, 3), 7, true)
                    .unwrap(),
                _ => pool.header_only_copy(busy, 5).unwrap(),
            };
            assert_eq!(dirty.index(), 1);
            if label == "taken" {
                pool.take(dirty);
            } else {
                pool.release(dirty);
            }
            pool.release(busy);
            out.push((label, pool));
        }
        out
    }

    #[test]
    fn in_place_copies_equal_by_value_copies_whatever_the_slot_held() {
        let mut src = tcp_packet();
        src.set_meta(crate::Metadata::new(3, 41, 1).with_epoch(6));
        for header_only in [true, false] {
            let expect = if header_only {
                src.header_only_copy(2).unwrap()
            } else {
                src.full_copy(2).unwrap()
            };
            for (label, pool) in pools_with_dirty_slot() {
                let r = pool.insert(src.clone()).unwrap();
                let c = if header_only {
                    pool.header_only_copy(r, 2).unwrap()
                } else {
                    pool.full_copy(r, 2).unwrap()
                };
                assert_eq!(c.index(), 1, "{label}: the dirty slot is reused");
                pool.with(c, |copy| {
                    assert_eq!(
                        observable(copy),
                        observable(&expect),
                        "header_only={header_only} into a slot that held: {label}"
                    );
                });
                // Growing the copy exposes zeros, never the old frame.
                pool.with_mut(c, |copy| {
                    let end = copy.len();
                    copy.insert_bytes(end, 64).unwrap();
                    assert_eq!(&copy.data()[end..], &[0u8; 64], "{label}");
                    copy.insert_bytes(0, 32).unwrap();
                    assert_eq!(&copy.data()[..32], &[0u8; 32], "{label}");
                });
                pool.release(r);
                pool.release(c);
                assert_eq!(pool.in_use(), 0);
            }
        }
    }

    #[test]
    fn in_place_nil_carries_nothing_over() {
        let meta = crate::Metadata::new(3, 41, 1).with_epoch(2);
        for (label, pool) in pools_with_dirty_slot() {
            let _busy = pool.insert(tcp_packet()).unwrap();
            let nil = pool.insert_nil(meta, 4, label == "nil").unwrap();
            assert_eq!(nil.index(), 1);
            pool.with(nil, |p| {
                assert!(p.is_empty(), "{label}");
                assert_eq!(p.meta(), meta);
                assert!(p.is_nil());
                assert_eq!(p.nil_priority(), 4);
                assert_eq!(p.is_nil_failure(), label == "nil");
                assert!(!p.is_header_only(), "{label}");
                assert!(p.parsed().is_err(), "{label}: no cached layers survive");
            });
        }
    }

    #[test]
    fn insert_take_roundtrip_is_identity_and_leaves_a_pristine_slot() {
        for (label, pool) in pools_with_dirty_slot() {
            let _busy = pool.insert(Packet::new()).unwrap();
            let mut p = tcp_packet();
            p.set_meta(crate::Metadata::new(7, 9, 1).with_traced(true));
            let r = pool.insert(p.clone()).unwrap();
            assert_eq!(r.index(), 1);
            let out = pool.take(r);
            assert_eq!(observable(&out), observable(&p), "{label}");
            let fresh = Packet::new();
            assert_eq!(
                observable(slot_packet(&pool, 1)),
                observable(&fresh),
                "{label}: the slot left behind"
            );
        }
    }

    /// Buffers the pool holds: each slot's own, plus its spare if any.
    fn buffers(pool: &PacketPool) -> usize {
        // SAFETY: single-threaded test; nothing else touches the slots.
        let spares = pool
            .slots
            .iter()
            .filter(|s| unsafe { &*s.spare.get() }.is_some());
        pool.capacity() + spares.count()
    }

    #[test]
    fn insert_hands_back_only_a_buffer_displaced_beside_a_spare() {
        let pool = PacketPool::new(2);
        let frame = |pid| {
            let mut p = tcp_packet();
            p.set_meta(crate::Metadata::new(1, pid, 1));
            p
        };
        // Fresh slot: its own buffer becomes the spare, nothing comes back.
        let dropped = frame(7);
        let dropped_buf = dropped.frame_ptr();
        let (r, back) = pool.insert_displacing(dropped).unwrap();
        assert!(back.is_none());
        assert_eq!(buffers(&pool), 3);
        // Released with the inserted packet in it (a drop): the next insert
        // displaces exactly that buffer, beside the spare.
        pool.release(r);
        let (r, back) = pool.insert_displacing(frame(8)).unwrap();
        assert_eq!(r.index(), 0, "the same slot");
        let back = back.expect("a spare was there: the displaced buffer comes back");
        assert_eq!(back.frame_ptr(), dropped_buf, "the displaced buffer");
        assert_eq!(back.meta().pid(), 7);
        assert_eq!((pool.in_use(), pool.refcount(r)), (1, 1));
        assert_eq!(buffers(&pool), 3, "the slot still holds two buffers");
        // Taken out (a delivery): the spare is the slot's buffer again, and
        // the next insert moves it to the spare — nothing comes back.
        pool.take(r);
        let (r, back) = pool.insert_displacing(frame(9)).unwrap();
        assert!(back.is_none());
        // Filled in place and released: no spare, nothing comes back.
        let nil = pool
            .insert_nil(crate::Metadata::default(), 0, false)
            .unwrap();
        assert_eq!(nil.index(), 1);
        pool.release(nil);
        let (a, back_a) = pool.insert_displacing(frame(10)).unwrap();
        assert_eq!(a.index(), 1);
        assert!(back_a.is_none(), "slot 1 had no spare");
        pool.release(r);
        let (b, back_b) = pool.insert_displacing(frame(11)).unwrap();
        assert_eq!(b.index(), 0);
        assert_eq!(back_b.map(|p| p.meta().pid()), Some(9), "slot 0 had one");
        assert_eq!(pool.in_use(), 2);
        assert_eq!(buffers(&pool), 2 * pool.capacity());
        // `insert` frees what `insert_displacing` would hand back.
        pool.release(a);
        pool.release(b);
        pool.insert(frame(12)).unwrap();
        assert_eq!(buffers(&pool), 4);
    }

    #[test]
    fn take_of_a_slot_filled_in_place_clones_it_out() {
        let pool = PacketPool::new(2);
        let r = pool.insert(tcp_packet()).unwrap();
        let c = pool.full_copy(r, 2).unwrap();
        let expect = pool.with(r, |p| p.full_copy(2).unwrap());
        let out = pool.take(c);
        assert_eq!(observable(&out), observable(&expect));
        let fresh = Packet::new();
        assert_eq!(
            observable(slot_packet(&pool, c.index())),
            observable(&fresh)
        );
        // The slot kept its buffer: it can be copied into again.
        let again = pool.header_only_copy(r, 3).unwrap();
        assert_eq!(again.index(), c.index());
        pool.with(again, |p| assert!(p.is_header_only()));
    }

    #[test]
    fn refused_copies_leave_the_pool_as_it_was() {
        // An unparseable source cannot be header-only copied.
        let pool = PacketPool::new(3);
        let garbage = pool
            .insert(Packet::from_bytes(&[0u8; 60]).unwrap())
            .unwrap();
        assert_eq!(garbage.index(), 0);
        assert!(pool.header_only_copy(garbage, 2).is_err());
        assert_eq!(pool.in_use(), 1);
        // The free list still hands out slot 1, then slot 2.
        let a = pool.insert(tcp_packet()).unwrap();
        let b = pool.full_copy(a, 2).unwrap();
        assert_eq!((a.index(), b.index()), (1, 2));
        // Exhausted: every kind of allocation is refused, nothing moves.
        assert_eq!(pool.full_copy(a, 3), Err(PacketError::PoolExhausted));
        assert_eq!(pool.header_only_copy(a, 3), Err(PacketError::PoolExhausted));
        assert_eq!(
            pool.insert_nil(crate::Metadata::default(), 0, false),
            Err(PacketError::PoolExhausted)
        );
        assert!(pool.insert(Packet::new()).is_err());
        assert_eq!(pool.in_use(), 3);
        pool.release(b);
        assert_eq!(pool.full_copy(a, 3).unwrap().index(), 2);
    }

    #[test]
    fn concurrent_alloc_release_stress() {
        let pool = Arc::new(PacketPool::new(64));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let pool = Arc::clone(&pool);
            handles.push(std::thread::spawn(move || {
                for _ in 0..2000 {
                    if let Ok(r) = pool.insert(Packet::new()) {
                        pool.retain(r);
                        pool.release(r);
                        pool.release(r);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(pool.in_use(), 0);
    }

    #[test]
    fn concurrent_disjoint_field_writes() {
        // Two threads write different fields of the same packet — the
        // Dirty Memory Reusing scenario. Both writes must land.
        let pool = Arc::new(PacketPool::new(2));
        let r = pool.insert(tcp_packet()).unwrap();
        pool.retain(r);
        let p1 = Arc::clone(&pool);
        let p2 = Arc::clone(&pool);
        let t1 = std::thread::spawn(move || {
            for i in 0..1000u16 {
                p1.write_field(r, FieldId::Sport, &i.to_be_bytes()).unwrap();
            }
            p1.release(r);
        });
        let t2 = std::thread::spawn(move || {
            for i in 0..1000u16 {
                p2.write_field(r, FieldId::Dport, &(!i).to_be_bytes())
                    .unwrap();
            }
            p2.release(r);
        });
        t1.join().unwrap();
        t2.join().unwrap();
        assert_eq!(pool.in_use(), 0);
    }
}
