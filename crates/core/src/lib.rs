//! # nfp-core
//!
//! The facade crate of **NFP-rs**, a Rust reproduction of *"NFP: Enabling Network
//! Function Parallelism in NFV"* (SIGCOMM 2017). **API:** the [`prelude`] and its crate re-exports.
//!
//! NFP accelerates NFV service chains by identifying network functions
//! that can safely run **in parallel** and executing them that way, with a
//! three-layer architecture this workspace implements in full:
//!
//! 1. **Policies** ([`policy`]) — operators express chaining intent with
//!    `Order`, `Priority` and `Position` rules.
//! 2. **Orchestrator** ([`orchestrator`]) — NF action profiles (paper
//!    Table 2), the action dependency table (Table 3), the parallelism
//!    identification algorithm (Algorithm 1, with Dirty-Memory-Reusing and
//!    Header-Only-Copying optimizations), and the service-graph compiler.
//! 3. **Infrastructure** ([`dataplane`]) — classifier, per-NF distributed
//!    runtimes over lock-free rings, and load-balanced packet merging.
//!
//! # Quickstart
//!
//! ```
//! use nfp_core::prelude::*;
//!
//! // 1. Describe the chain (a classic north-south service chain).
//! let policy = Policy::from_chain(["VPN", "Monitor", "Firewall", "LoadBalancer"]);
//!
//! // 2. Compile it against the built-in NF action table.
//! let registry = Registry::paper_table2();
//! let compiled = compile(&policy, &registry, &[], &CompileOptions::default()).unwrap();
//! assert_eq!(compiled.graph.describe(), "VPN -> [Monitor | Firewall] -> LoadBalancer");
//! assert_eq!(compiled.graph.equivalent_chain_length(), 3); // was 4 sequential
//!
//! // 3. Seal the compilation into a validated Program and execute packets
//! //    deterministically.
//! let program = compiled.program(1).unwrap();
//! let nfs: Vec<Box<dyn NetworkFunction>> = vec![
//!     Box::new(nfp_core::nf::vpn::Vpn::new("VPN", [7; 16], 1, nfp_core::nf::vpn::VpnMode::Encapsulate)),
//!     Box::new(nfp_core::nf::monitor::Monitor::new("Monitor")),
//!     Box::new(nfp_core::nf::firewall::Firewall::with_synthetic_acl("Firewall", 100)),
//!     Box::new(nfp_core::nf::lb::LoadBalancer::with_uniform_backends("LB", 4)),
//! ];
//! let mut engine = SyncEngine::new(program, nfs, 64);
//! let pkt = nfp_core::traffic::gen::build_tcp_frame(
//!     "10.0.0.1".parse().unwrap(), "10.1.2.3".parse().unwrap(), 1234, 443, b"hello");
//! let out = engine.process(pkt).unwrap().delivered().unwrap();
//! assert!(out.parsed().unwrap().ah.is_some()); // VPN encapsulated it
//! ```

#![warn(missing_docs)]

pub use nfp_dataplane as dataplane;
pub use nfp_io as io;
pub use nfp_nf as nf;
pub use nfp_orchestrator as orchestrator;
pub use nfp_packet as packet;
pub use nfp_policy as policy;
pub use nfp_sim as sim;
pub use nfp_traffic as traffic;

/// The most commonly used items, re-exported flat.
pub mod prelude {
    pub use nfp_baseline::{OnvmPipeline, RunToCompletion};
    pub use nfp_dataplane::{
        Engine, EngineConfig, EngineError, EngineReport, FailureKind, NfFailure, PacketTrace,
        ShardedEngine, SyncEngine, TelemetryConfig, TelemetrySnapshot, TraceHop,
    };
    pub use nfp_nf::{NetworkFunction, PacketView, Verdict};
    pub use nfp_orchestrator::{
        compile, identify, ActionProfile, CompileOptions, Compiled, FailurePolicy, Program,
        Registry, ServiceGraph,
    };
    pub use nfp_packet::{FieldId, FieldMask, Metadata, Packet, PacketPool, PacketRef};
    pub use nfp_policy::{parse_policy, Policy, PositionAnchor, Rule};
    pub use nfp_sim::CostModel;
    pub use nfp_traffic::{SizeDistribution, TrafficGenerator, TrafficSpec};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_is_sufficient_for_the_headline_flow() {
        let policy = Policy::from_chain(["Monitor", "Firewall"]);
        let compiled = compile(
            &policy,
            &Registry::paper_table2(),
            &[],
            &CompileOptions::default(),
        )
        .unwrap();
        assert_eq!(compiled.graph.equivalent_chain_length(), 1);
    }
}
