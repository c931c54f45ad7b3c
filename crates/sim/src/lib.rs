//! # nfp-sim
//!
//! Analytical latency / throughput / resource-overhead models for NFP
//! service graphs and the baseline systems.
//!
//! The paper measures wall-clock effects of *physical* parallelism — one
//! CPU core per NF. On hosts without that many cores (this reproduction
//! targets a single-core machine; see DESIGN.md), the same effects are
//! computed in **virtual time**: the bench harness measures real
//! per-packet costs (NF service time, copy cost, merge cost, ring-hop
//! cost) on the host, loads them into a [`CostModel`], and the functions
//! in [`model`] evaluate chain/graph latency and throughput under the
//! execution disciplines of the three systems:
//!
//! * **NFP** — segments in series; a parallel segment costs the *maximum*
//!   of its branches plus copy and merge work (paper §2's ILP analogy);
//! * **OpenNetVM-style pipelining** — NFs in series with every hop relayed
//!   through a centralized switch;
//! * **BESS-style run-to-completion** — the chain consolidated on one
//!   core, scaled out per core for throughput (paper Table 4).
//!
//! [`overhead`] implements the §6.3.1 resource-overhead equation
//! `ro = 64·(d−1)/s` and its data-center instantiation `ro ≈ 0.088·(d−1)`.
//! **API:** these two modules, [`queueing`], and their root re-exports.

#![warn(missing_docs)]

pub mod model;
pub mod overhead;
pub mod queueing;

pub use model::CostModel;
pub use overhead::resource_overhead;
