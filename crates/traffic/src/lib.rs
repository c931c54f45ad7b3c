//! # nfp-traffic
//!
//! Traffic generation and measurement for the NFP evaluation — the
//! stand-in for the paper's "DPDK based packet generator that runs on a
//! separate server" (§6): packet-size distributions (including the
//! data-center mix from Benson et al. that the paper's resource-overhead
//! analysis uses), flow-structured packet synthesis, and a latency
//! recorder.
//!
//! **API:** the modules [`gen`] and [`hostile`], and the root re-exports
//! [`TrafficGenerator`], [`TrafficSpec`], [`HostileGenerator`],
//! [`HostileSpec`], [`SizeDistribution`], [`LatencyRecorder`] and
//! [`LatencySummary`]. `sizes` and `stats` are private.

#![warn(missing_docs)]

pub mod gen;
pub mod hostile;
mod sizes;
mod stats;

pub use gen::{TrafficGenerator, TrafficSpec};
pub use hostile::{HostileGenerator, HostileSpec};
pub use sizes::SizeDistribution;
pub use stats::{LatencyRecorder, LatencySummary};
