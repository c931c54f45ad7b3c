//! An OpenNetVM-style pipelining data plane with a centralized switch.
//!
//! "In previous work, packet steering among NFs relies on a centralized
//! virtual switch, which according to our evaluation incurs a performance
//! overhead due to packet queuing" (§5). This baseline reproduces that
//! architecture: each NF runs on its own thread, but **every** inter-NF
//! hop is relayed through one switch thread — so a chain of `n` NFs costs
//! `n + 1` switch transits per packet, and the switch serializes all
//! traffic (the hot spot NFP's distributed runtime removes).

use nfp_dataplane::ring;
use nfp_nf::{NetworkFunction, PacketView, Verdict};
use nfp_packet::meta::Metadata;
use nfp_packet::Packet;
use nfp_traffic::{LatencyRecorder, LatencySummary};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Messages between the switch and NFs: the packet plus the index of the
/// NF that just finished with it (`stage == 0` ⇒ fresh from the wire).
struct OnvmMsg {
    pkt: Box<Packet>,
    stage: usize,
}

/// Report from one pipeline run.
#[derive(Debug)]
pub struct OnvmReport {
    /// Packets injected.
    pub injected: u64,
    /// Packets that traversed the chain.
    pub delivered: u64,
    /// Packets dropped by some NF.
    pub dropped: u64,
    /// Wall-clock run duration.
    pub elapsed: Duration,
    /// Inject→collect latency summary.
    pub latency: Option<LatencySummary>,
    /// Delivered packets (when requested).
    pub packets: Vec<Packet>,
}

/// The OpenNetVM-style pipeline.
pub struct OnvmPipeline {
    nfs: Vec<Box<dyn NetworkFunction>>,
    ring_capacity: usize,
    keep_packets: bool,
}

impl OnvmPipeline {
    /// Build from NF instances in chain order.
    pub fn new(nfs: Vec<Box<dyn NetworkFunction>>) -> Self {
        Self {
            nfs,
            ring_capacity: 256,
            keep_packets: false,
        }
    }

    /// Keep delivered packets in the report.
    pub fn keep_packets(mut self, keep: bool) -> Self {
        self.keep_packets = keep;
        self
    }

    /// Run the pipeline over `packets` and report. Also usable as a
    /// *semantic* oracle: the output equals [`crate::RunToCompletion`] over the
    /// same NFs (sequential chains have one semantics regardless of the
    /// execution substrate).
    pub fn run(&mut self, packets: Vec<Packet>) -> OnvmReport {
        let n = self.nfs.len();
        assert!(n > 0, "empty chain");
        let keep = self.keep_packets;
        let injected_total = packets.len() as u64;
        let stop = AtomicBool::new(false);
        let delivered = AtomicU64::new(0);
        let dropped = AtomicU64::new(0);

        // Rings: injector→switch, switch→NF_i, NF_i→switch, switch→collector.
        let (inj_tx, inj_rx) = ring::channel::<OnvmMsg>(self.ring_capacity);
        let mut to_nf_tx = Vec::new();
        let mut to_nf_rx = Vec::new();
        let mut from_nf_tx = Vec::new();
        let mut from_nf_rx = Vec::new();
        for _ in 0..n {
            let (tx, rx) = ring::channel::<OnvmMsg>(self.ring_capacity);
            to_nf_tx.push(tx);
            to_nf_rx.push(Some(rx));
            let (tx2, rx2) = ring::channel::<OnvmMsg>(self.ring_capacity);
            from_nf_tx.push(Some(tx2));
            from_nf_rx.push(rx2);
        }
        let (out_tx, out_rx) = ring::channel::<OnvmMsg>(self.ring_capacity);

        let nfs = std::mem::take(&mut self.nfs);
        let mut report_latency = LatencyRecorder::with_capacity(packets.len());
        let mut report_packets = Vec::new();
        let started = Instant::now();

        std::thread::scope(|scope| {
            let stop_ref = &stop;
            let dropped_ref = &dropped;
            let delivered_ref = &delivered;

            // The centralized switch: serializes ALL hops. Moves its ring
            // endpoints in: a ring half is single-owner (`!Sync`) since
            // the consumer/producer index caches landed.
            scope.spawn(move || {
                let push = |msg: OnvmMsg, tx: &ring::Producer<OnvmMsg>| {
                    ring::push_blocking(tx, msg);
                };
                loop {
                    let mut progress = false;
                    if let Some(msg) = inj_rx.pop() {
                        progress = true;
                        push(msg, &to_nf_tx[0]);
                    }
                    for (i, rx) in from_nf_rx.iter().enumerate().take(n) {
                        if let Some(mut msg) = rx.pop() {
                            progress = true;
                            msg.stage = i + 1;
                            if msg.stage == n {
                                push(msg, &out_tx);
                            } else {
                                let next = msg.stage;
                                push(msg, &to_nf_tx[next]);
                            }
                        }
                    }
                    if !progress {
                        if stop_ref.load(Ordering::Acquire)
                            && inj_rx.is_empty()
                            && from_nf_rx.iter().all(|r| r.is_empty())
                        {
                            break;
                        }
                        std::thread::yield_now();
                    }
                }
            });

            // NF threads.
            let mut nf_handles = Vec::new();
            for (i, mut nf) in nfs.into_iter().enumerate() {
                let rx = to_nf_rx[i].take().expect("rx taken once");
                let tx = from_nf_tx[i].take().expect("tx taken once");
                nf_handles.push(scope.spawn(move || {
                    loop {
                        match rx.pop() {
                            Some(mut msg) => {
                                let verdict = {
                                    let mut view = PacketView::Exclusive(&mut msg.pkt);
                                    nf.process(&mut view)
                                };
                                match verdict {
                                    Verdict::Pass => ring::push_blocking(&tx, msg),
                                    Verdict::Drop => {
                                        dropped_ref.fetch_add(1, Ordering::Release);
                                    }
                                }
                            }
                            None => {
                                if stop_ref.load(Ordering::Acquire) && rx.is_empty() {
                                    break;
                                }
                                std::thread::yield_now();
                            }
                        }
                    }
                    nf
                }));
            }

            // Collector.
            let collector = scope.spawn(move || {
                let mut outputs = Vec::new();
                loop {
                    match out_rx.pop() {
                        Some(msg) => {
                            let mut pkt = *msg.pkt;
                            pkt.finalize_checksums().ok();
                            outputs.push((pkt.meta().pid(), Instant::now(), keep.then_some(pkt)));
                            delivered_ref.fetch_add(1, Ordering::Release);
                        }
                        None => {
                            if stop_ref.load(Ordering::Acquire) && out_rx.is_empty() {
                                break;
                            }
                            std::thread::yield_now();
                        }
                    }
                }
                outputs
            });

            // Closed-loop injection.
            let mut inject_times = Vec::with_capacity(packets.len());
            for (i, mut pkt) in packets.into_iter().enumerate() {
                while (inject_times.len() as u64).saturating_sub(
                    delivered.load(Ordering::Acquire) + dropped.load(Ordering::Acquire),
                ) >= 64
                {
                    std::thread::yield_now();
                }
                pkt.set_meta(Metadata::new(0, i as u64, 1));
                inject_times.push(Instant::now());
                let msg = OnvmMsg {
                    pkt: Box::new(pkt),
                    stage: 0,
                };
                ring::push_blocking(&inj_tx, msg);
            }
            while delivered.load(Ordering::Acquire) + dropped.load(Ordering::Acquire)
                < injected_total
            {
                std::thread::yield_now();
            }
            stop.store(true, Ordering::Release);

            let outputs = collector.join().expect("collector");
            for (pid, t_out, pkt) in outputs {
                if let Some(t_in) = inject_times.get(pid as usize) {
                    report_latency.record(t_out.duration_since(*t_in));
                }
                if let Some(p) = pkt {
                    report_packets.push(p);
                }
            }
            for h in nf_handles {
                self.nfs.push(h.join().expect("nf thread"));
            }
        });

        OnvmReport {
            injected: injected_total,
            delivered: delivered.load(Ordering::Acquire),
            dropped: dropped.load(Ordering::Acquire),
            elapsed: started.elapsed(),
            latency: report_latency.summary(),
            packets: report_packets,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RunToCompletion;
    use nfp_nf::firewall::Firewall;
    use nfp_nf::lb::LoadBalancer;
    use nfp_nf::monitor::Monitor;
    use nfp_packet::ipv4::Ipv4Addr;
    use nfp_traffic::{SizeDistribution, TrafficGenerator, TrafficSpec};

    fn nfs() -> Vec<Box<dyn NetworkFunction>> {
        vec![
            Box::new(Monitor::new("mon")),
            Box::new(Firewall::with_synthetic_acl("fw", 100)),
            Box::new(LoadBalancer::with_uniform_backends("lb", 4)),
        ]
    }

    fn traffic(n: usize) -> Vec<Packet> {
        TrafficGenerator::new(TrafficSpec {
            flows: 8,
            sizes: SizeDistribution::Fixed(96),
            ..TrafficSpec::default()
        })
        .batch(n)
    }

    #[test]
    fn pipeline_matches_rtc_semantics() {
        let pkts = traffic(100);
        let mut rtc = RunToCompletion::new(nfs());
        let expected: Vec<Vec<u8>> = rtc
            .process_batch(pkts.clone())
            .iter()
            .map(|p| p.data().to_vec())
            .collect();
        let mut pipe = OnvmPipeline::new(nfs()).keep_packets(true);
        let report = pipe.run(pkts);
        assert_eq!(report.delivered as usize, expected.len());
        let mut got: Vec<Vec<u8>> = report.packets.iter().map(|p| p.data().to_vec()).collect();
        // Completion order may interleave; compare as ordered-by-pid.
        got.sort();
        let mut want = expected;
        want.sort();
        assert_eq!(got, want);
    }

    #[test]
    fn drops_counted() {
        let mut pkts = traffic(40);
        for p in pkts.iter_mut().take(15) {
            p.set_dip(Ipv4Addr::new(172, 16, 9, 1)).unwrap();
            p.set_dport(7009).unwrap();
            p.finalize_checksums().unwrap();
        }
        let mut pipe = OnvmPipeline::new(nfs());
        let report = pipe.run(pkts);
        assert_eq!(report.dropped, 15);
        assert_eq!(report.delivered, 25);
        assert!(report.latency.unwrap().count == 25);
    }

    #[test]
    fn reusable_after_run() {
        let mut pipe = OnvmPipeline::new(nfs());
        let r1 = pipe.run(traffic(20));
        let r2 = pipe.run(traffic(20));
        assert_eq!(r1.delivered + r2.delivered, 40);
    }
}
