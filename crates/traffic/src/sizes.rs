//! Packet-size distributions.
//!
//! The paper evaluates with fixed sizes (64 B–1500 B sweeps) and, for the
//! real-world experiments, "according to the packet size distribution in
//! data centers from [Benson et al. 2010]", whose average packet size is
//! "around 724 bytes" (§4.2/§6.4).

use rand::Rng;

/// A distribution over Ethernet frame sizes (bytes, including L2 header).
#[derive(Debug, Clone, PartialEq)]
pub enum SizeDistribution {
    /// Every frame has the same size.
    Fixed(usize),
    /// A discrete empirical mix: `(frame_size, weight)` pairs.
    Empirical(Vec<(usize, f64)>),
}

impl SizeDistribution {
    /// Smallest legal frame we generate (header-only TCP packet).
    const MIN_FRAME: usize = 64;
    /// Largest legal frame (Ethernet MTU + L2).
    const MAX_FRAME: usize = 1514;

    /// The data-center mix derived from Benson et al.: bimodal, most
    /// packets either minimum-size (ACKs, handshakes) or near-MTU (bulk
    /// transfer), calibrated so the mean is ≈ 724 B — the figure the
    /// paper's resource-overhead equation plugs in.
    pub fn datacenter() -> Self {
        SizeDistribution::Empirical(vec![(64, 0.40), (200, 0.05), (576, 0.10), (1400, 0.45)])
    }

    /// Mean frame size in bytes.
    pub fn mean(&self) -> f64 {
        match self {
            SizeDistribution::Fixed(s) => *s as f64,
            SizeDistribution::Empirical(points) => {
                let total: f64 = points.iter().map(|(_, w)| w).sum();
                points.iter().map(|(s, w)| *s as f64 * w).sum::<f64>() / total
            }
        }
    }

    /// Draw one frame size.
    pub(crate) fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let size = match self {
            SizeDistribution::Fixed(s) => *s,
            SizeDistribution::Empirical(points) => {
                let total: f64 = points.iter().map(|(_, w)| w).sum();
                let mut x = rng.gen::<f64>() * total;
                let mut chosen = points.last().map(|(s, _)| *s).unwrap_or(Self::MIN_FRAME);
                for (s, w) in points {
                    if x < *w {
                        chosen = *s;
                        break;
                    }
                    x -= w;
                }
                chosen
            }
        };
        size.clamp(Self::MIN_FRAME, Self::MAX_FRAME)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn datacenter_mean_is_near_724() {
        let mean = SizeDistribution::datacenter().mean();
        assert!((mean - 724.0).abs() < 5.0, "mean = {mean}");
    }

    #[test]
    fn fixed_always_returns_size() {
        let mut rng = StdRng::seed_from_u64(1);
        let d = SizeDistribution::Fixed(128);
        for _ in 0..100 {
            assert_eq!(d.sample(&mut rng), 128);
        }
        assert_eq!(d.mean(), 128.0);
    }

    #[test]
    fn sizes_clamped_to_legal_frames() {
        let mut rng = StdRng::seed_from_u64(2);
        assert_eq!(SizeDistribution::Fixed(10).sample(&mut rng), 64);
        assert_eq!(SizeDistribution::Fixed(9000).sample(&mut rng), 1514);
    }

    #[test]
    fn empirical_sampling_matches_weights() {
        let mut rng = StdRng::seed_from_u64(3);
        let d = SizeDistribution::Empirical(vec![(64, 0.5), (1400, 0.5)]);
        let mut small = 0usize;
        const N: usize = 20_000;
        for _ in 0..N {
            if d.sample(&mut rng) == 64 {
                small += 1;
            }
        }
        let frac = small as f64 / N as f64;
        assert!((frac - 0.5).abs() < 0.02, "frac = {frac}");
    }

    #[test]
    fn empirical_mean_sampled_close_to_analytic() {
        let mut rng = StdRng::seed_from_u64(4);
        let d = SizeDistribution::datacenter();
        let n = 50_000;
        let sum: usize = (0..n).map(|_| d.sample(&mut rng)).sum();
        let sampled = sum as f64 / n as f64;
        assert!((sampled - d.mean()).abs() < 10.0, "sampled = {sampled}");
    }
}
