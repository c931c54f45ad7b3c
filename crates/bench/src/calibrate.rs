//! Host cost calibration.
//!
//! Measures the real per-packet cost of every primitive the virtual-time
//! model needs, on this machine: NF service times, ring hops, header/full
//! copies, merge operations and classification.

use nfp_dataplane::ring;
use nfp_nf::cycles::CycleFirewall;
use nfp_nf::{catalogue, NetworkFunction, PacketView};
use nfp_packet::pool::PacketPool;
use nfp_packet::{Metadata, Packet};
use nfp_sim::CostModel;
use std::time::Instant;

/// Measured primitive costs (ns/packet).
#[derive(Debug, Clone)]
pub struct Calibration {
    /// One SPSC ring push+pop.
    pub(crate) hop_ns: f64,
    /// Centralized-switch transit surcharge (modelled as one extra ring
    /// round-trip plus a routing lookup; measured as 2× hop).
    pub(crate) switch_ns: f64,
    /// Classifier admit cost.
    classify_ns: f64,
    /// Header-only copy.
    copy_header_ns: f64,
    /// Full-copy per-byte slope.
    copy_per_byte_ns: f64,
    /// Merge fixed cost.
    merge_base_ns: f64,
    /// Merge per-arrival cost.
    merge_per_arrival_ns: f64,
    /// Merge per-op cost.
    merge_per_op_ns: f64,
}

/// Measure elapsed ns per iteration of `f` over `iters` iterations.
pub(crate) fn time_per_iter(iters: usize, mut f: impl FnMut()) -> f64 {
    // One warmup pass keeps first-touch costs out of the measurement.
    f();
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// Measure one NF's per-packet service time over representative traffic.
/// `CycleFW:<n>` is the Figure 9/11 complexity knob: a firewall that
/// burns `n` cycles a packet.
pub(crate) fn nf_service_ns(nf_type: &str, frame: usize) -> f64 {
    let mut nf: Box<dyn NetworkFunction> = match nf_type.strip_prefix("CycleFW:") {
        Some(cycles) => Box::new(CycleFirewall::new(nf_type, cycles.parse().unwrap())),
        None => catalogue::make(nf_type).expect("a catalogue NF type"),
    };
    let pkts = crate::setups::fixed_traffic(64, frame.max(64));
    let mut idx = 0usize;
    // VPN keeps growing packets; re-clone from pristine templates.
    time_per_iter(2_000, || {
        let mut p = pkts[idx % pkts.len()].clone();
        idx += 1;
        let mut view = PacketView::Exclusive(&mut p);
        let _ = nf.process(&mut view);
    }) - clone_overhead_ns(&pkts)
}

/// Measure one header-only copy and one full copy of a `frame`-byte
/// packet: `(header_ns, full_ns)`.
pub(crate) fn copy_ns(frame: usize) -> (f64, f64) {
    let pool = PacketPool::new(8);
    let r = pool
        .insert(crate::setups::fixed_traffic(1, frame).pop().unwrap())
        .unwrap();
    let header_ns = time_per_iter(20_000, || {
        let c = pool.header_only_copy(r, 2).unwrap();
        pool.release(c);
    });
    let full_ns = time_per_iter(20_000, || {
        let c = pool.full_copy(r, 2).unwrap();
        pool.release(c);
    });
    pool.release(r);
    (header_ns, full_ns)
}

fn clone_overhead_ns(pkts: &[Packet]) -> f64 {
    let mut idx = 0usize;
    time_per_iter(2_000, || {
        let p = pkts[idx % pkts.len()].clone();
        idx += 1;
        std::hint::black_box(&p);
    })
}

impl Calibration {
    /// Run the full calibration suite (≈ a second of wall time).
    pub fn measure() -> Self {
        // Ring hop: push+pop of a Msg-sized value.
        let (tx, rx) = ring::channel::<u64>(1024);
        let hop_ns = time_per_iter(200_000, || {
            tx.push(7).unwrap();
            std::hint::black_box(rx.pop());
        });

        // Copies.
        let (copy_header_ns, full_big) = copy_ns(1400);
        let (_, full_small) = copy_ns(64);
        let copy_per_byte_ns = ((full_big - full_small) / (1400.0 - 64.0)).max(0.0);

        // Merge: 2 arrivals, no ops vs one op.
        let merge = |ops: usize| -> f64 {
            let spec = crate::setups::merge_spec(2, ops);
            let mpool = PacketPool::new(8);
            let mut tmpl = crate::setups::fixed_traffic(1, 128).pop().unwrap();
            tmpl.set_meta(Metadata::new(1, 1, 1));
            time_per_iter(20_000, || {
                let v1 = mpool.insert(tmpl.clone()).unwrap();
                let v2 = mpool.full_copy(v1, 2).unwrap();
                let arrivals = [
                    nfp_dataplane::merger::arrival_from(&mpool, v1),
                    nfp_dataplane::merger::arrival_from(&mpool, v2),
                ];
                match nfp_dataplane::merger::resolve_and_merge(&spec, &arrivals, &mpool).unwrap() {
                    nfp_dataplane::merger::MergeOutcome::Forward(r) => mpool.release(r),
                    nfp_dataplane::merger::MergeOutcome::Dropped => {}
                }
            })
        };
        let merge2 = merge(0);
        let merge2_1op = merge(1);
        let merge_per_op_ns = (merge2_1op - merge2).max(10.0);
        // Split the 2-arrival cost into base + per-arrival halves.
        let merge_base_ns = (merge2 / 2.0).max(10.0);
        let merge_per_arrival_ns = (merge2 / 4.0).max(10.0);

        // Classifier: admit into a null sink over a sealed one-Forwarder
        // program, 32 admissions per burst as the engines' intake does.
        let classify_ns = {
            use nfp_dataplane::actions::{Deliver, Msg};
            use nfp_orchestrator::tables::Target;
            struct Null<'a>(&'a PacketPool);
            impl Deliver for Null<'_> {
                fn deliver(&mut self, _t: Target, msg: Msg) {
                    self.0.release(msg.r);
                }
            }
            const BURST: usize = 32;
            let program = crate::setups::compile_chain(&["Forwarder"])
                .program(1)
                .expect("a one-Forwarder chain seals");
            let handle = std::sync::Arc::new(nfp_dataplane::ProgramHandle::new(program));
            let cpool = PacketPool::new(8);
            let mut cl = nfp_dataplane::Classifier::live(handle);
            let tmpl = crate::setups::fixed_traffic(1, 128).pop().unwrap();
            let cstats = nfp_dataplane::StageStats::new();
            let mut spent = Vec::new();
            time_per_iter(20_000 / BURST, || {
                let mut sink = Null(&cpool);
                cl.begin_burst(BURST);
                for _ in 0..BURST {
                    let admitted = cl.admit_observed(
                        tmpl.clone(),
                        &cpool,
                        &mut sink,
                        &cstats,
                        &mut spent,
                        None,
                    );
                    assert!(admitted.is_ok());
                }
                cl.end_burst();
                spent.clear();
            }) / BURST as f64
        };

        Self {
            hop_ns,
            switch_ns: 2.0 * hop_ns + classify_ns, // relay + forwarding lookup
            classify_ns,
            copy_header_ns,
            copy_per_byte_ns,
            merge_base_ns,
            merge_per_arrival_ns,
            merge_per_op_ns,
        }
    }

    /// Build a [`CostModel`] from explicit per-node service times.
    pub(crate) fn model_with_services(&self, nf_service_ns: Vec<f64>) -> CostModel {
        CostModel {
            classify_ns: self.classify_ns,
            hop_ns: self.hop_ns,
            switch_ns: self.switch_ns,
            copy_header_ns: self.copy_header_ns,
            copy_per_byte_ns: self.copy_per_byte_ns,
            merge_base_ns: self.merge_base_ns,
            merge_per_arrival_ns: self.merge_per_arrival_ns,
            merge_per_op_ns: self.merge_per_op_ns,
            nf_service_ns,
        }
    }
}

impl core::fmt::Display for Calibration {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        writeln!(f, "host calibration (ns/packet):")?;
        writeln!(f, "  ring hop        {:8.1}", self.hop_ns)?;
        writeln!(f, "  switch transit  {:8.1}", self.switch_ns)?;
        writeln!(f, "  classify        {:8.1}", self.classify_ns)?;
        writeln!(f, "  header copy     {:8.1}", self.copy_header_ns)?;
        writeln!(f, "  copy per byte   {:8.3}", self.copy_per_byte_ns)?;
        writeln!(f, "  merge base      {:8.1}", self.merge_base_ns)?;
        writeln!(f, "  merge/arrival   {:8.1}", self.merge_per_arrival_ns)?;
        write!(f, "  merge/op        {:8.1}", self.merge_per_op_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_yields_positive_costs() {
        let c = Calibration::measure();
        assert!(c.hop_ns > 0.0 && c.hop_ns < 100_000.0, "{c}");
        assert!(c.copy_header_ns > 0.0);
        assert!(c.merge_base_ns > 0.0);
        assert!(c.classify_ns > 0.0);
    }

    #[test]
    fn nf_services_ordered_by_complexity() {
        // The paper's Figure 8 premise: Forwarder is the lightest NF, the
        // VPN/IDS the heaviest (payload work).
        let fwd = nf_service_ns("Forwarder", 128);
        let vpn = nf_service_ns("VPN", 1400);
        assert!(fwd > 0.0);
        assert!(vpn > fwd, "vpn {vpn} <= fwd {fwd}");
    }
}
