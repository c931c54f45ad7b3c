//! The repo's benchmark: real engines, four paper workloads, end-to-end
//! metrics with fixed regression bounds, and per-layer attribution that
//! has to add up. See `perf/README.md`.

pub mod drive;
pub mod endtoend;
pub mod gate;
pub mod host;
pub mod json;
pub mod layers;
pub mod metrics;
pub mod report;
pub mod run;
pub mod spans;
pub mod stats;
pub mod workloads;
pub mod yardstick;
