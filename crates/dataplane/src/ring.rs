//! Lock-free single-producer/single-consumer ring buffers.
//!
//! "Each NF owns a receive ring buffer and a transmit ring buffer, which
//! are stored in a shared memory region … an NF simply writes packet
//! references into the receive ring buffer of the other NF to realize
//! packet delivery" (§5). Every producer→consumer edge in the engine gets
//! its own ring, so each ring has exactly one producer and one consumer —
//! the classic DPDK-style point-to-point queue, which needs no CAS loops,
//! only acquire/release loads and stores.

use crate::exec::CachePadded;
use core::cell::{Cell, UnsafeCell};
use core::mem::MaybeUninit;
use core::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

struct Shared<T> {
    buf: Box<[UnsafeCell<MaybeUninit<T>>]>,
    mask: usize,
    /// Next slot the producer writes (only the producer mutates).
    /// Cache-padded so producer-side tail stores never false-share with
    /// consumer-side head stores.
    tail: CachePadded<AtomicUsize>,
    /// Next slot the consumer reads (only the consumer mutates).
    head: CachePadded<AtomicUsize>,
}

// SAFETY: only the single Producer writes slots between head and tail, and
// only the single Consumer reads them; the acquire/release pair on
// tail/head publishes slot contents correctly. T must be Send to cross the
// thread boundary.
unsafe impl<T: Send> Send for Shared<T> {}
unsafe impl<T: Send> Sync for Shared<T> {}

/// The producing half of an SPSC ring.
pub struct Producer<T> {
    shared: Arc<Shared<T>>,
    /// Local view of the consumer's head, refreshed only when the ring
    /// looks full — most pushes touch zero consumer-owned cache lines.
    head_cache: Cell<usize>,
}

/// The consuming half of an SPSC ring.
pub struct Consumer<T> {
    shared: Arc<Shared<T>>,
    /// Local view of the producer's tail, refreshed only when the cached
    /// view cannot satisfy the pop.
    tail_cache: Cell<usize>,
}

/// Create an SPSC ring with capacity rounded up to a power of two
/// (minimum 2). The ring stores up to `capacity` items.
pub fn channel<T: Send>(capacity: usize) -> (Producer<T>, Consumer<T>) {
    let cap = capacity.max(2).next_power_of_two();
    let buf: Box<[UnsafeCell<MaybeUninit<T>>]> = (0..cap)
        .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
        .collect();
    let shared = Arc::new(Shared {
        buf,
        mask: cap - 1,
        tail: CachePadded::new(AtomicUsize::new(0)),
        head: CachePadded::new(AtomicUsize::new(0)),
    });
    (
        Producer {
            shared: Arc::clone(&shared),
            head_cache: Cell::new(0),
        },
        Consumer {
            shared,
            tail_cache: Cell::new(0),
        },
    )
}

impl<T: Send> Producer<T> {
    /// Push an item; on a full ring the item is handed back so the caller
    /// can apply backpressure (spin, yield, or drop explicitly).
    pub fn push(&self, item: T) -> Result<(), T> {
        let s = &*self.shared;
        let tail = s.tail.load(Ordering::Relaxed);
        let mut head = self.head_cache.get();
        if tail.wrapping_sub(head) > s.mask {
            head = s.head.load(Ordering::Acquire);
            self.head_cache.set(head);
            if tail.wrapping_sub(head) > s.mask {
                return Err(item);
            }
        }
        // SAFETY: this slot is strictly between head and tail+1, so the
        // consumer will not touch it until we publish via the tail store.
        unsafe {
            (*s.buf[tail & s.mask].get()).write(item);
        }
        s.tail.store(tail.wrapping_add(1), Ordering::Release);
        Ok(())
    }

    /// Push as many items from `items` as fit, in order, publishing the
    /// whole burst with a **single** release store of the tail — one cache
    /// line ping per burst instead of one per packet (the DPDK
    /// `rte_ring_enqueue_burst` idiom). Returns the number pushed; the
    /// caller retries the remainder under backpressure.
    pub fn push_burst(&self, items: &[T]) -> usize
    where
        T: Copy,
    {
        let s = &*self.shared;
        let tail = s.tail.load(Ordering::Relaxed);
        let mut head = self.head_cache.get();
        let mut free = s.mask + 1 - tail.wrapping_sub(head);
        if free < items.len() {
            head = s.head.load(Ordering::Acquire);
            self.head_cache.set(head);
            free = s.mask + 1 - tail.wrapping_sub(head);
        }
        let n = items.len().min(free);
        if n == 0 {
            return 0;
        }
        for (i, item) in items[..n].iter().enumerate() {
            // SAFETY: slots [tail, tail+n) are free (checked above) and
            // invisible to the consumer until the tail store below.
            unsafe {
                (*s.buf[tail.wrapping_add(i) & s.mask].get()).write(*item);
            }
        }
        s.tail.store(tail.wrapping_add(n), Ordering::Release);
        n
    }

    /// Number of items currently queued. (A producer asks whether the
    /// ring has room, not whether it is empty: no `is_empty`.)
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        let s = &*self.shared;
        s.tail
            .load(Ordering::Relaxed)
            .wrapping_sub(s.head.load(Ordering::Acquire))
    }
}

impl<T: Send> Consumer<T> {
    /// Pop an item, if any.
    pub fn pop(&self) -> Option<T> {
        let s = &*self.shared;
        let head = s.head.load(Ordering::Relaxed);
        let mut tail = self.tail_cache.get();
        if head == tail {
            tail = s.tail.load(Ordering::Acquire);
            self.tail_cache.set(tail);
            if head == tail {
                return None;
            }
        }
        // SAFETY: head < tail, so the producer published this slot and will
        // not reuse it until we advance head.
        let item = unsafe { (*s.buf[head & s.mask].get()).assume_init_read() };
        s.head.store(head.wrapping_add(1), Ordering::Release);
        Some(item)
    }

    /// Pop up to `max` items into `out`, consuming the whole burst with a
    /// **single** release store of the head. Returns the number popped.
    pub fn pop_burst(&self, out: &mut Vec<T>, max: usize) -> usize {
        let s = &*self.shared;
        let head = s.head.load(Ordering::Relaxed);
        let mut tail = self.tail_cache.get();
        if tail.wrapping_sub(head) < max {
            tail = s.tail.load(Ordering::Acquire);
            self.tail_cache.set(tail);
        }
        let n = tail.wrapping_sub(head).min(max);
        if n == 0 {
            return 0;
        }
        out.reserve(n);
        for i in 0..n {
            // SAFETY: slots [head, head+n) were published by the producer
            // (head+n <= tail) and stay ours until the head store below.
            let item = unsafe { (*s.buf[head.wrapping_add(i) & s.mask].get()).assume_init_read() };
            out.push(item);
        }
        s.head.store(head.wrapping_add(n), Ordering::Release);
        n
    }

    /// Show `f` up to `max` queued items, oldest first — the ones the next
    /// pops return — without consuming any.
    pub(crate) fn peek(&self, max: usize, mut f: impl FnMut(&T)) {
        let s = &*self.shared;
        let head = s.head.load(Ordering::Relaxed);
        let queued = s.tail.load(Ordering::Acquire).wrapping_sub(head);
        for i in 0..queued.min(max) {
            // SAFETY: slots [head, tail) were published by the producer,
            // which will not reuse them until we advance head; we only
            // borrow them.
            f(unsafe { (*s.buf[head.wrapping_add(i) & s.mask].get()).assume_init_ref() });
        }
    }

    /// Number of items currently queued.
    pub fn len(&self) -> usize {
        let s = &*self.shared;
        s.tail
            .load(Ordering::Acquire)
            .wrapping_sub(s.head.load(Ordering::Relaxed))
    }

    /// True when the ring holds no items.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Drop for Shared<T> {
    fn drop(&mut self) {
        // Drain initialized-but-unconsumed items so T's Drop runs.
        let head = *self.head.get_mut();
        let tail = *self.tail.get_mut();
        let mut i = head;
        while i != tail {
            // SAFETY: slots in [head, tail) hold initialized values and
            // nobody else can access them anymore (we own &mut self).
            unsafe {
                (*self.buf[i & self.mask].get()).assume_init_drop();
            }
            i = i.wrapping_add(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order() {
        let (tx, rx) = channel::<u32>(8);
        for i in 0..5 {
            tx.push(i).unwrap();
        }
        for i in 0..5 {
            assert_eq!(rx.pop(), Some(i));
        }
        assert_eq!(rx.pop(), None);
    }

    #[test]
    fn capacity_rounds_to_power_of_two_and_fills() {
        let (tx, rx) = channel::<u8>(5); // rounds to 8
        for i in 0..8 {
            tx.push(i).unwrap();
        }
        assert_eq!(tx.push(99), Err(99));
        assert_eq!(tx.len(), 8);
        assert_eq!(rx.pop(), Some(0));
        tx.push(8).unwrap(); // slot freed
        assert_eq!(rx.len(), 8);
    }

    #[test]
    fn wraparound_many_times() {
        let (tx, rx) = channel::<usize>(4);
        for round in 0..1000 {
            tx.push(round).unwrap();
            assert_eq!(rx.pop(), Some(round));
        }
        assert!(rx.is_empty());
    }

    #[test]
    fn cross_thread_stream() {
        let (tx, rx) = channel::<u64>(64);
        const N: u64 = 200_000;
        let producer = std::thread::spawn(move || {
            for i in 0..N {
                let mut item = i;
                loop {
                    match tx.push(item) {
                        Ok(()) => break,
                        Err(back) => {
                            item = back;
                            std::hint::spin_loop();
                        }
                    }
                }
            }
        });
        let mut expected = 0u64;
        while expected < N {
            if let Some(v) = rx.pop() {
                assert_eq!(v, expected);
                expected += 1;
            } else {
                std::hint::spin_loop();
            }
        }
        producer.join().unwrap();
    }

    #[test]
    fn burst_roundtrip_and_partial_on_near_full() {
        let (tx, rx) = channel::<u32>(8);
        assert_eq!(tx.push_burst(&[0, 1, 2, 3, 4]), 5);
        // Only 3 slots left: the burst is cut short, nothing is lost.
        assert_eq!(tx.push_burst(&[5, 6, 7, 8, 9]), 3);
        assert_eq!(tx.push_burst(&[99]), 0, "full ring accepts nothing");
        let mut out = Vec::new();
        assert_eq!(rx.pop_burst(&mut out, 64), 8);
        assert_eq!(out, vec![0, 1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(rx.pop_burst(&mut out, 64), 0);
    }

    #[test]
    fn burst_wraparound_many_times() {
        let (tx, rx) = channel::<usize>(8);
        let mut next_in = 0usize;
        let mut next_out = 0usize;
        let mut buf = Vec::new();
        for round in 0..500 {
            let batch: Vec<usize> = (0..(round % 7 + 1)).map(|i| next_in + i).collect();
            let pushed = tx.push_burst(&batch);
            next_in += pushed;
            buf.clear();
            rx.pop_burst(&mut buf, round % 5 + 1);
            for &v in &buf {
                assert_eq!(v, next_out, "fifo across wrap");
                next_out += 1;
            }
        }
        // Drain the remainder.
        buf.clear();
        while rx.pop_burst(&mut buf, 64) > 0 {}
        for &v in &buf {
            assert_eq!(v, next_out);
            next_out += 1;
        }
        assert_eq!(next_out, next_in, "no loss");
    }

    #[test]
    fn burst_pop_interoperates_with_scalar_push() {
        let (tx, rx) = channel::<u8>(4);
        tx.push(1).unwrap();
        tx.push(2).unwrap();
        let mut out = Vec::new();
        assert_eq!(rx.pop_burst(&mut out, 1), 1);
        assert_eq!(out, vec![1]);
        assert_eq!(rx.pop(), Some(2));
    }

    #[test]
    fn cross_thread_burst_stream_no_loss_dup_or_reorder() {
        let (tx, rx) = channel::<u64>(64);
        const N: u64 = 200_000;
        let producer = std::thread::spawn(move || {
            let mut next = 0u64;
            while next < N {
                let hi = (next + 17).min(N);
                let batch: Vec<u64> = (next..hi).collect();
                let mut off = 0;
                while off < batch.len() {
                    let pushed = tx.push_burst(&batch[off..]);
                    off += pushed;
                    if pushed == 0 {
                        std::hint::spin_loop();
                    }
                }
                next = hi;
            }
        });
        let mut expected = 0u64;
        let mut out = Vec::new();
        while expected < N {
            out.clear();
            if rx.pop_burst(&mut out, 32) == 0 {
                std::hint::spin_loop();
                continue;
            }
            for &v in &out {
                assert_eq!(v, expected, "strict order, no dup/loss");
                expected += 1;
            }
        }
        assert_eq!(rx.pop(), None);
        producer.join().unwrap();
    }

    #[test]
    fn peek_sees_the_oldest_items_and_consumes_nothing() {
        let (tx, rx) = channel::<u32>(8);
        let peeked = |max| {
            let mut seen = Vec::new();
            rx.peek(max, |&v| seen.push(v));
            seen
        };
        assert_eq!(peeked(4), Vec::<u32>::new(), "nothing queued");
        // Wrap the ring so the queued run straddles the end of the buffer.
        for i in 0..6 {
            tx.push(i).unwrap();
        }
        for i in 0..6 {
            assert_eq!(rx.pop(), Some(i));
        }
        for i in 10..15 {
            tx.push(i).unwrap();
        }
        assert_eq!(peeked(3), vec![10, 11, 12], "at most max, oldest first");
        assert_eq!(
            peeked(64),
            vec![10, 11, 12, 13, 14],
            "nothing past the tail"
        );
        assert_eq!(rx.len(), 5, "nothing consumed");
        assert_eq!(rx.pop(), Some(10), "the next pop is the first item seen");
        tx.push(15).unwrap();
        assert_eq!(peeked(64), vec![11, 12, 13, 14, 15], "a later push shows");
    }

    #[test]
    fn drops_unconsumed_items() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        #[derive(Debug)]
        struct Counted;
        impl Drop for Counted {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        let (tx, rx) = channel::<Counted>(4);
        tx.push(Counted).unwrap();
        tx.push(Counted).unwrap();
        drop(rx.pop()); // one consumed
        drop(tx);
        drop(rx);
        assert_eq!(DROPS.load(Ordering::SeqCst), 2);
    }
}
