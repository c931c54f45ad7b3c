//! The virtual-time cost model.

use nfp_orchestrator::graph::{CopyKind, Segment, ServiceGraph};

/// Per-operation costs, in nanoseconds, filled from host calibration
/// (the bench harness measures each).
#[derive(Debug, Clone)]
pub struct CostModel {
    /// Classifier work per packet (CT lookup + metadata tagging).
    pub classify_ns: f64,
    /// One direct ring hop between adjacent components (NFP's distributed
    /// runtime; also NIC→classifier and last-hop→wire).
    pub hop_ns: f64,
    /// Extra cost of relaying one hop through the centralized virtual
    /// switch (queuing + switch processing), *on top of* two ring hops.
    pub switch_ns: f64,
    /// Fixed cost of allocating + copying a header-only copy (OP#2).
    pub copy_header_ns: f64,
    /// Per-byte cost of copying payload (full copies only).
    pub copy_per_byte_ns: f64,
    /// Fixed merge cost per merged packet (AT bookkeeping).
    pub merge_base_ns: f64,
    /// Merge cost per collected arrival.
    pub merge_per_arrival_ns: f64,
    /// Merge cost per merge operation applied.
    pub merge_per_op_ns: f64,
    /// Per-NF service time, indexed by the graph's `NodeId`.
    pub nf_service_ns: Vec<f64>,
}

impl CostModel {
    fn copy_cost(&self, kind: CopyKind, payload_bytes: usize) -> f64 {
        match kind {
            CopyKind::None => 0.0,
            CopyKind::HeaderOnly => self.copy_header_ns,
            CopyKind::Full => self.copy_header_ns + self.copy_per_byte_ns * payload_bytes as f64,
        }
    }
}

/// Latency decomposition for one packet traversal (ns).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LatencyBreakdown {
    /// Classifier + hops.
    steering_ns: f64,
    /// NF service time on the packet's critical path.
    service_ns: f64,
    /// Packet copying.
    copy_ns: f64,
    /// Merging.
    merge_ns: f64,
}

impl LatencyBreakdown {
    /// Total latency in nanoseconds.
    fn total_ns(&self) -> f64 {
        self.steering_ns + self.service_ns + self.copy_ns + self.merge_ns
    }

    /// Total latency in microseconds (paper unit).
    pub fn total_us(&self) -> f64 {
        self.total_ns() / 1e3
    }
}

/// NFP latency for one packet through `graph` with payload size
/// `payload_bytes` (affects full-copy cost only).
pub fn nfp_latency(
    graph: &ServiceGraph,
    model: &CostModel,
    payload_bytes: usize,
) -> LatencyBreakdown {
    let mut b = LatencyBreakdown {
        steering_ns: model.classify_ns + model.hop_ns, // classify + first hop
        ..Default::default()
    };
    for seg in &graph.segments {
        match seg {
            Segment::Sequential(n) => {
                b.service_ns += model.nf_service_ns[*n];
                b.steering_ns += model.hop_ns;
            }
            Segment::Parallel(grp) => {
                // Copies are made by the previous hop before fan-out.
                for m in &grp.members {
                    b.copy_ns += model.copy_cost(m.copy, payload_bytes);
                }
                // Critical path: slowest branch (fan-out hop + services).
                let slowest = grp
                    .members
                    .iter()
                    .map(|m| {
                        m.path
                            .iter()
                            .map(|&n| model.nf_service_ns[n] + model.hop_ns)
                            .sum::<f64>()
                    })
                    .fold(0.0f64, f64::max);
                b.service_ns += slowest;
                // Merge: wait for all arrivals, apply ops, forward.
                b.merge_ns += model.merge_base_ns
                    + model.merge_per_arrival_ns * grp.expected_arrivals() as f64
                    + model.merge_per_op_ns * grp.merge_ops().len() as f64;
                b.steering_ns += model.hop_ns; // merger → next
            }
        }
    }
    b
}

/// Latency of the same NFs as a **sequential chain on the NFP substrate**
/// (no copies, no merger — the paper's "NFP-sequential" bars).
pub fn nfp_sequential_latency(service_ns: &[f64], model: &CostModel) -> LatencyBreakdown {
    LatencyBreakdown {
        steering_ns: model.classify_ns + model.hop_ns * (service_ns.len() as f64 + 1.0),
        service_ns: service_ns.iter().sum(),
        ..Default::default()
    }
}

/// Latency of the chain on the OpenNetVM-style baseline: every hop relays
/// through the centralized switch (two ring transits + switch work).
pub fn onvm_latency(service_ns: &[f64], model: &CostModel) -> LatencyBreakdown {
    let hops = service_ns.len() as f64 + 1.0;
    LatencyBreakdown {
        steering_ns: model.classify_ns + hops * (2.0 * model.hop_ns + model.switch_ns),
        service_ns: service_ns.iter().sum(),
        ..Default::default()
    }
}

/// Latency under BESS-style run-to-completion: no inter-NF hops at all.
pub fn rtc_latency(service_ns: &[f64], model: &CostModel) -> LatencyBreakdown {
    LatencyBreakdown {
        steering_ns: model.classify_ns + 2.0 * model.hop_ns, // in + out
        service_ns: service_ns.iter().sum(),
        ..Default::default()
    }
}

/// NFP throughput (packets/second): the pipeline bottleneck stage.
///
/// Stages: the classifier (plus any entry copies), each NF (service + one
/// ring push), and the merger layer (merge work divided across
/// `merger_instances`, §6.3.3's load balancing).
pub fn nfp_throughput(
    graph: &ServiceGraph,
    model: &CostModel,
    payload_bytes: usize,
    merger_instances: usize,
) -> f64 {
    let mut worst_ns = model.classify_ns + model.hop_ns;
    let mut classifier_extra = 0.0;
    for seg in &graph.segments {
        match seg {
            Segment::Sequential(n) => {
                worst_ns = worst_ns.max(model.nf_service_ns[*n] + model.hop_ns);
            }
            Segment::Parallel(grp) => {
                for m in &grp.members {
                    // Copy work lands on whoever fans out; attribute it to
                    // the classifier/previous stage.
                    classifier_extra += model.copy_cost(m.copy, payload_bytes);
                    for &n in &m.path {
                        worst_ns = worst_ns.max(model.nf_service_ns[n] + model.hop_ns);
                    }
                }
                let merge_ns = model.merge_base_ns
                    + model.merge_per_arrival_ns * grp.expected_arrivals() as f64
                    + model.merge_per_op_ns * grp.merge_ops().len() as f64;
                worst_ns = worst_ns.max(merge_ns / merger_instances.max(1) as f64);
            }
        }
    }
    worst_ns = worst_ns.max(model.classify_ns + model.hop_ns + classifier_extra);
    1e9 / worst_ns
}

/// OpenNetVM throughput: the centralized switch relays `n+1` hops per
/// packet and is usually the bottleneck.
pub fn onvm_throughput(service_ns: &[f64], model: &CostModel) -> f64 {
    let switch_work = (service_ns.len() as f64 + 1.0) * (model.switch_ns + 2.0 * model.hop_ns);
    let nf_worst = service_ns.iter().copied().fold(0.0f64, f64::max) + 2.0 * model.hop_ns;
    let worst = switch_work.max(nf_worst).max(model.classify_ns);
    1e9 / worst
}

/// Run-to-completion throughput with `cores` replicas of the whole chain
/// (paper: "BESS could theoretically achieve 27.2 × (n+2) Mpps" by
/// duplicating the chain per core).
pub fn rtc_throughput(service_ns: &[f64], model: &CostModel, cores: usize) -> f64 {
    let per_packet = model.classify_ns + service_ns.iter().sum::<f64>();
    cores as f64 * 1e9 / per_packet
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfp_orchestrator::{compile, CompileOptions, Registry};
    use nfp_policy::Policy;

    fn graph(chain: &[&str]) -> ServiceGraph {
        compile(
            &Policy::from_chain(chain.iter().copied()),
            &Registry::paper_table2(),
            &[],
            &CompileOptions::default(),
        )
        .unwrap()
        .graph
    }

    /// Costs shaped like the paper's DPDK/container testbed: ~1 µs hops,
    /// ~2 µs switch transit, sub-µs copy/merge.
    fn uniform_model(n: usize, service: f64) -> CostModel {
        CostModel {
            classify_ns: 500.0,
            hop_ns: 1_000.0,
            switch_ns: 2_000.0,
            copy_header_ns: 150.0,
            copy_per_byte_ns: 0.06,
            merge_base_ns: 400.0,
            merge_per_arrival_ns: 150.0,
            merge_per_op_ns: 100.0,
            nf_service_ns: vec![service; n],
        }
    }

    #[test]
    fn parallel_graph_beats_sequential_chain() {
        let g = graph(&["Monitor", "Firewall"]);
        let m = uniform_model(2, 10_000.0);
        let par = nfp_latency(&g, &m, 10).total_ns();
        let seq = nfp_sequential_latency(&[10_000.0, 10_000.0], &m).total_ns();
        assert!(par < seq, "parallel {par} >= sequential {seq}");
        // Degree-2 no-copy parallelism saves roughly one NF's service time.
        assert!(seq - par > 8_000.0);
    }

    #[test]
    fn onvm_pays_switch_tax_nfp_sequential_does_not() {
        let m = uniform_model(3, 5_000.0);
        let services = [5_000.0, 5_000.0, 5_000.0];
        let onvm = onvm_latency(&services, &m).total_ns();
        let nfp = nfp_sequential_latency(&services, &m).total_ns();
        let rtc = rtc_latency(&services, &m).total_ns();
        assert!(rtc < nfp && nfp < onvm, "rtc {rtc}, nfp {nfp}, onvm {onvm}");
    }

    #[test]
    fn latency_benefit_grows_with_nf_complexity() {
        // Paper Fig. 9: the relative win grows as NFs get heavier.
        let g = graph(&["Monitor", "Firewall"]);
        let relative_gain = |service: f64| {
            let m = uniform_model(2, service);
            let par = nfp_latency(&g, &m, 10).total_ns();
            let seq = nfp_sequential_latency(&[service, service], &m).total_ns();
            (seq - par) / seq
        };
        assert!(relative_gain(30_000.0) > relative_gain(1_000.0));
        // Asymptotically approaches 50% for degree 2.
        assert!(relative_gain(1_000_000.0) > 0.45);
    }

    #[test]
    fn copies_cost_latency_but_merge_dominates() {
        let g_nocopy = graph(&["Monitor", "Firewall"]);
        let g_copy = graph(&["Monitor", "LoadBalancer"]);
        let m = uniform_model(2, 10_000.0);
        let no_copy = nfp_latency(&g_nocopy, &m, 700);
        let with_copy = nfp_latency(&g_copy, &m, 700);
        assert_eq!(no_copy.copy_ns, 0.0);
        assert!(with_copy.copy_ns > 0.0);
        assert!(with_copy.merge_ns >= no_copy.merge_ns);
        // Header-only copy: payload size must not matter.
        let big = nfp_latency(&g_copy, &m, 1400);
        assert_eq!(with_copy.copy_ns, big.copy_ns);
    }

    #[test]
    fn throughput_orderings_match_table4() {
        // Table 4: RTC (with n+2 cores) > NFP > ONVM in processing rate.
        let services = [3_000.0, 3_000.0, 3_000.0];
        let m = uniform_model(3, 3_000.0);
        let g = graph(&["Monitor", "Firewall", "Gateway"]);
        let n = services.len();
        let rtc = rtc_throughput(&services, &m, n + 2);
        let nfp = nfp_throughput(&g, &m, 10, 2);
        let onvm = onvm_throughput(&services, &m);
        assert!(rtc > nfp, "rtc {rtc} <= nfp {nfp}");
        assert!(nfp > onvm, "nfp {nfp} <= onvm {onvm}");
    }

    #[test]
    fn breakdown_sums() {
        let g = graph(&["Monitor", "LoadBalancer"]);
        let m = uniform_model(2, 1_000.0);
        let b = nfp_latency(&g, &m, 100);
        let total = b.steering_ns + b.service_ns + b.copy_ns + b.merge_ns;
        assert!((b.total_ns() - total).abs() < 1e-9);
        assert!((b.total_us() - total / 1e3).abs() < 1e-9);
    }
}
