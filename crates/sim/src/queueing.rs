//! Latency under load: M/M/1-style queueing on top of the cost model.
//!
//! The paper's motivation cites software NFs whose latency explodes with
//! load ("Ananta Software Muxes … add from 200µs to 1ms latency at
//! 100 Kpps"). This module extends the virtual-time model with the classic
//! sojourn-time formula so the bench harness can show *latency vs offered
//! load* for NFP vs the centralized-switch baseline: the switch saturates
//! first (it serves every hop of every packet), which is exactly the
//! hot-spot argument of §5.

/// Mean sojourn time (wait + service) of an M/M/1 queue, in the same time
/// unit as `service_time`. Returns `None` at or beyond saturation.
fn mm1_sojourn(service_time: f64, arrival_rate: f64) -> Option<f64> {
    assert!(service_time > 0.0 && arrival_rate >= 0.0);
    let utilization = arrival_rate * service_time;
    if utilization >= 1.0 {
        return None;
    }
    Some(service_time / (1.0 - utilization))
}

/// A pipeline stage for load analysis.
#[derive(Debug, Clone, Copy)]
pub struct Stage {
    /// Per-packet service time at this stage (seconds).
    pub service_s: f64,
    /// How many packets of each admitted packet this stage serves (the
    /// centralized switch serves `n+1`; a merger serves `degree`).
    pub visits: f64,
}

/// End-to-end mean latency (seconds) of a packet through `stages` at
/// `offered_pps`, treating each stage as an independent M/M/1 queue
/// (Jackson-style approximation). `None` once any stage saturates.
pub fn pipeline_latency(stages: &[Stage], offered_pps: f64) -> Option<f64> {
    let mut total = 0.0;
    for s in stages {
        let per_stage = mm1_sojourn(s.service_s, offered_pps * s.visits)?;
        // The packet itself visits the stage `visits` times on its path
        // only for the switch-like stages; one visit's sojourn per pass.
        total += per_stage * s.visits;
    }
    Some(total)
}

/// Saturation throughput (pps): the lowest stage capacity.
pub fn saturation_pps(stages: &[Stage]) -> f64 {
    stages
        .iter()
        .map(|s| 1.0 / (s.service_s * s.visits))
        .fold(f64::INFINITY, f64::min)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mm1_grows_toward_saturation() {
        let s = 1e-6; // 1 µs service
        let low = mm1_sojourn(s, 100_000.0).unwrap(); // 10% load
        let high = mm1_sojourn(s, 900_000.0).unwrap(); // 90% load
        assert!(high > low * 5.0);
        assert!(mm1_sojourn(s, 1_000_000.0).is_none()); // saturated
        assert!((mm1_sojourn(s, 0.0).unwrap() - s).abs() < 1e-12);
    }

    #[test]
    fn switch_stage_saturates_before_nfs() {
        // 3-NF chain: NFs at 1 µs each; the centralized switch at 0.5 µs
        // per transit but 4 transits per packet → capacity 500 kpps vs the
        // NFs' 1 Mpps.
        let nf = Stage {
            service_s: 1e-6,
            visits: 1.0,
        };
        let switch = Stage {
            service_s: 0.5e-6,
            visits: 4.0,
        };
        let onvm = [nf, nf, nf, switch];
        let nfp = [nf, nf, nf]; // distributed runtime: no shared stage
        assert!(saturation_pps(&onvm) < saturation_pps(&nfp));
        // At 400 kpps the ONVM chain is far above its zero-load latency;
        // the NFP chain barely notices.
        let onvm_lat = pipeline_latency(&onvm, 400_000.0).unwrap();
        let nfp_lat = pipeline_latency(&nfp, 400_000.0).unwrap();
        assert!(onvm_lat > 2.0 * nfp_lat, "{onvm_lat} vs {nfp_lat}");
        // And beyond the switch's capacity, ONVM saturates while NFP still
        // has headroom.
        assert!(pipeline_latency(&onvm, 600_000.0).is_none());
        assert!(pipeline_latency(&nfp, 600_000.0).is_some());
    }

    #[test]
    fn ananta_style_motivation() {
        // A 5 µs software mux at 100 Kpps should sit in the hundreds of µs
        // once queueing variance is accounted — the paper's motivating
        // order of magnitude (200 µs–1 ms).
        let mux = Stage {
            service_s: 8e-6,
            visits: 1.0,
        };
        let lat = pipeline_latency(&[mux], 100_000.0).unwrap();
        assert!(lat > 8e-6, "queueing must add delay: {lat}");
        // At 95% utilization latency blows past 100 µs.
        let hot = pipeline_latency(&[mux], 118_000.0).unwrap();
        assert!(hot > 100e-6, "{hot}");
    }
}
