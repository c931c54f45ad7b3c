//! The §6.3.1 resource-overhead analysis.
//!
//! "According to the header-only copying optimization, only packet headers
//! are copied. Therefore, for a TCP packet of any size on the Ethernet,
//! packet copying only occupies 64B extra memory. We construct the
//! equation of resource overhead (ro), packet size (s) and parallelism
//! degree (d): **ro = 64 × (d − 1) / s**. We refer to the packet size
//! distribution in data centers and calculate that the resource overhead
//! of NFP is **ro = 0.088 × (d − 1)**."

use nfp_traffic::SizeDistribution;

/// Bytes a header-only copy occupies (Ethernet + IPv4 + TCP headers —
/// exactly a minimum frame).
pub const HEADER_COPY_BYTES: f64 = 64.0;

/// The paper's equation: relative extra memory for parallelism degree `d`
/// at packet size `s` bytes.
pub fn resource_overhead(packet_size: usize, degree: usize) -> f64 {
    assert!(degree >= 1, "degree starts at 1 (sequential)");
    assert!(packet_size > 0);
    HEADER_COPY_BYTES * (degree as f64 - 1.0) / packet_size as f64
}

/// The data-center instantiation: the equation evaluated at the mean
/// packet size of `dist` (the paper plugs in Benson et al.'s ≈724 B mean,
/// giving the 0.088 coefficient).
fn overhead_for_distribution(dist: &SizeDistribution, degree: usize) -> f64 {
    resource_overhead(dist.mean().round() as usize, degree)
}

/// The paper's headline coefficient: overhead per extra copy under the
/// data-center packet mix.
pub fn datacenter_overhead(degree: usize) -> f64 {
    overhead_for_distribution(&SizeDistribution::datacenter(), degree)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equation_matches_paper_examples() {
        // 64B packets, degree 2: one full extra header per packet.
        assert!((resource_overhead(64, 2) - 1.0).abs() < 1e-9);
        // 1500B packets, degree 2: ~4.3%.
        assert!((resource_overhead(1500, 2) - 64.0 / 1500.0).abs() < 1e-9);
        // Degree 1 (sequential) costs nothing.
        assert_eq!(resource_overhead(724, 1), 0.0);
    }

    #[test]
    fn datacenter_coefficient_is_0_088() {
        // ro = 0.088 × (d − 1): check d = 2 → 8.8% (paper Fig. 13's
        // east-west overhead) and linear growth in d.
        let d2 = datacenter_overhead(2);
        assert!((d2 - 0.088).abs() < 0.002, "d2 = {d2}");
        let d5 = datacenter_overhead(5);
        assert!((d5 - 4.0 * d2).abs() < 1e-9);
    }

    #[test]
    fn monotone_in_degree_and_antitone_in_size() {
        assert!(resource_overhead(724, 3) > resource_overhead(724, 2));
        assert!(resource_overhead(1500, 2) < resource_overhead(64, 2));
    }
}
