//! Fault-injection NFs for exercising the failure model.
//!
//! None of these appear in the paper — they exist so tests (and the
//! `fault_injection` example) can crash or stall an NF *on purpose* and
//! assert that the engine isolates the failure: panic caught, packets
//! released per [`nfp_orchestrator::FailurePolicy`], merge deadlines
//! expiring cleanly, `pool_in_use` back to 0.

use crate::nf::{NetworkFunction, PacketView, Verdict};
use nfp_orchestrator::ActionProfile;
use std::time::Duration;

/// An NF that processes `healthy_for` packets normally (delegating to an
/// inner NF) and then panics on every subsequent invocation.
///
/// The runtime's `catch_unwind` turns the first panic into a recorded
/// failure; after that the runtime stops invoking the NF, so in practice
/// the panic fires exactly once per runtime.
pub struct PanicAfter<N> {
    inner: N,
    healthy_for: u64,
    seen: u64,
}

impl<N: NetworkFunction> PanicAfter<N> {
    /// Wrap `inner`, panicking once `healthy_for` packets have passed.
    pub fn new(inner: N, healthy_for: u64) -> Self {
        Self {
            inner,
            healthy_for,
            seen: 0,
        }
    }

    /// The wrapped NF.
    pub fn inner(&self) -> &N {
        &self.inner
    }
}

impl<N: NetworkFunction> NetworkFunction for PanicAfter<N> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn profile(&self) -> ActionProfile {
        self.inner.profile()
    }

    fn process(&mut self, pkt: &mut PacketView<'_>) -> Verdict {
        self.seen += 1;
        if self.seen > self.healthy_for {
            panic!(
                "{}: injected fault after {} packets",
                self.name(),
                self.healthy_for
            );
        }
        self.inner.process(pkt)
    }

    // State hooks forward so wrapping a stateful NF does not strand its
    // flow state behind the fault injector.
    fn stateful(&self) -> bool {
        self.inner.stateful()
    }

    fn snapshot_state(&self) -> crate::state::FlowSnapshot {
        self.inner.snapshot_state()
    }

    fn restore_state(&mut self, snap: &crate::state::FlowSnapshot) {
        self.inner.restore_state(snap)
    }

    fn bind_partition(&mut self, index: usize, total: usize) {
        self.inner.bind_partition(index, total)
    }
}

/// An NF that stalls (sleeps) exactly once, on its `stall_on`-th packet,
/// then behaves normally again.
///
/// The sleep is finite by design: the threaded engine's watchdog is
/// cooperative — it flags the stage as failed while it sleeps, but the
/// thread itself must eventually return (safe Rust cannot kill it). A
/// bounded stall models the recoverable half of real-world hangs; the
/// unrecoverable half needs process-level isolation (see DESIGN.md,
/// "Failure model").
pub struct StallOnce<N> {
    inner: N,
    stall_on: u64,
    stall_for: Duration,
    seen: u64,
    stalled: bool,
}

impl<N: NetworkFunction> StallOnce<N> {
    /// Wrap `inner`; the `stall_on`-th packet (1-based) sleeps `stall_for`
    /// before processing.
    pub fn new(inner: N, stall_on: u64, stall_for: Duration) -> Self {
        Self {
            inner,
            stall_on,
            stall_for,
            seen: 0,
            stalled: false,
        }
    }

    /// True once the injected stall has happened.
    #[cfg(test)]
    fn has_stalled(&self) -> bool {
        self.stalled
    }
}

impl<N: NetworkFunction> NetworkFunction for StallOnce<N> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn profile(&self) -> ActionProfile {
        self.inner.profile()
    }

    fn process(&mut self, pkt: &mut PacketView<'_>) -> Verdict {
        self.seen += 1;
        if self.seen == self.stall_on && !self.stalled {
            self.stalled = true;
            std::thread::sleep(self.stall_for);
        }
        self.inner.process(pkt)
    }

    fn stateful(&self) -> bool {
        self.inner.stateful()
    }

    fn snapshot_state(&self) -> crate::state::FlowSnapshot {
        self.inner.snapshot_state()
    }

    fn restore_state(&mut self, snap: &crate::state::FlowSnapshot) {
        self.inner.restore_state(snap)
    }

    fn bind_partition(&mut self, index: usize, total: usize) {
        self.inner.bind_partition(index, total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::Monitor;
    use crate::nf::testutil::tcp_packet;
    use nfp_packet::ipv4::Ipv4Addr;

    fn pkt() -> nfp_packet::Packet {
        tcp_packet(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            1000,
            80,
            b"x",
        )
    }

    #[test]
    fn panic_after_is_healthy_then_panics() {
        let mut nf = PanicAfter::new(Monitor::new("mon"), 2);
        for _ in 0..2 {
            let mut p = pkt();
            assert_eq!(
                nf.process(&mut PacketView::Exclusive(&mut p)),
                Verdict::Pass
            );
        }
        let mut p = pkt();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            nf.process(&mut PacketView::Exclusive(&mut p))
        }));
        assert!(caught.is_err());
    }

    #[test]
    fn stall_once_stalls_exactly_once() {
        let mut nf = StallOnce::new(Monitor::new("mon"), 1, Duration::from_millis(5));
        let started = std::time::Instant::now();
        let mut p = pkt();
        nf.process(&mut PacketView::Exclusive(&mut p));
        assert!(started.elapsed() >= Duration::from_millis(5));
        assert!(nf.has_stalled());
        let quick = std::time::Instant::now();
        let mut p = pkt();
        nf.process(&mut PacketView::Exclusive(&mut p));
        assert!(quick.elapsed() < Duration::from_millis(5));
    }
}
