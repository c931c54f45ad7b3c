//! What runs: a compiled chain and the NFs it is instantiated with.

use nfp_nf::{catalogue, NetworkFunction};
use nfp_orchestrator::{compile, CompileOptions, Program, Registry, ServiceGraph};
use nfp_packet::FieldId;
use nfp_policy::Policy;
use proptest::prelude::*;
use std::sync::Arc;

/// Every Table 2 NF with a deterministic implementation: all rows but the
/// NAT (whose port allocation the per-shard suites cover) and the
/// wall-clock-driven shaper.
pub const REPLAYABLE: [&str; 9] = [
    "Monitor",
    "Firewall",
    "LoadBalancer",
    "IDS",
    "VPN",
    "Proxy",
    "Compression",
    "Gateway",
    "Caching",
];

/// Chains of `min..=max` distinct NFs drawn from `nfs`, in any order.
pub fn chains(
    nfs: &'static [&'static str],
    min: usize,
    max: usize,
) -> impl Strategy<Value = Vec<&'static str>> {
    proptest::sample::subsequence(nfs.to_vec(), min..=max).prop_shuffle()
}

/// `registry` with `nf`'s failure policy pinned fail-open.
pub fn fail_open(mut registry: Registry, nf: &str) -> Registry {
    let profile = registry.get(nf).unwrap().clone().fail_open();
    registry.register(profile);
    registry
}

/// A sealed program with the names it was built from.
#[derive(Debug, Clone)]
pub struct Chain {
    /// The policy's NFs in chain order: what run-to-completion and ONVM
    /// execute.
    pub order: Vec<String>,
    /// The service graph; its nodes are the engines' NFs in `NodeId` order.
    pub graph: ServiceGraph,
    /// The graph sealed at one merger instance.
    pub program: Program,
}

impl Chain {
    /// `chain` compiled against the evaluation registry.
    pub fn new(chain: &[&str]) -> Self {
        Self::with_registry(chain, &Registry::evaluated())
    }

    /// `chain` compiled against `registry`.
    pub fn with_registry(chain: &[&str], registry: &Registry) -> Self {
        let compiled = compile(
            &Policy::from_chain(chain.iter().copied()),
            registry,
            &[],
            &CompileOptions::default(),
        )
        .unwrap();
        Chain {
            order: chain.iter().map(|n| n.to_string()).collect(),
            program: compiled.program(1).unwrap(),
            graph: compiled.graph,
        }
    }

    /// A hand-built (or partitioned) graph; its chain order is its node
    /// order.
    pub fn from_graph(graph: ServiceGraph) -> Self {
        Chain {
            order: graph.nodes.iter().map(|n| n.name.to_string()).collect(),
            program: Program::compile(&graph, 1).unwrap(),
            graph,
        }
    }

    /// The stateful NFs (as `nfs` names them in their state) that sit
    /// behind, in chain order, an NF that writes an address or a port.
    /// The engines' classifier stamps each packet's admission flow and a
    /// stateful NF keys its state by it; run-to-completion stamps nothing,
    /// so there such an NF keys its state by the rewritten tuple, and its
    /// state differs from the engines' by construction.
    pub fn rekeyed(&self, nfs: &Nfs) -> Vec<String> {
        let tuple = [FieldId::Sip, FieldId::Dip, FieldId::Sport, FieldId::Dport];
        let mut rewritten = false;
        let mut names = Vec::new();
        for nf in nfs.build(&self.order) {
            let p = nf.profile();
            if rewritten && p.per_flow_state {
                names.push(nf.snapshot_state().nf);
            }
            rewritten |= tuple.into_iter().any(|f| p.write_mask().contains(f));
        }
        names
    }

    /// The engines' NF names, in `NodeId` order.
    pub fn nodes(&self) -> Vec<String> {
        self.graph
            .nodes
            .iter()
            .map(|n| n.name.to_string())
            .collect()
    }
}

/// How an NF is built from its name: the catalogue, or a suite's own
/// constructor (a chaos wrapper, a keyed VPN). Cheap to clone; a fleet
/// calls it once per replica.
#[derive(Clone)]
pub struct Nfs(Arc<Make>);

/// Builds one NF from its name.
type Make = dyn Fn(&str) -> Box<dyn NetworkFunction> + Send + Sync;

impl Nfs {
    /// Every NF from [`catalogue::make`].
    pub fn catalogue() -> Self {
        Nfs::new(|name| catalogue::make(name).unwrap())
    }

    /// NFs from `make`.
    pub fn new(make: impl Fn(&str) -> Box<dyn NetworkFunction> + Send + Sync + 'static) -> Self {
        Nfs(Arc::new(make))
    }

    /// The catalogue, with every NF named `name` passed through `wrap`.
    pub fn wrapping(
        name: &'static str,
        wrap: impl Fn(Box<dyn NetworkFunction>) -> Box<dyn NetworkFunction> + Send + Sync + 'static,
    ) -> Self {
        Nfs::new(move |n| {
            let nf = catalogue::make(n).unwrap();
            if n == name {
                wrap(nf)
            } else {
                nf
            }
        })
    }

    /// One fresh NF per name.
    pub fn build(&self, names: &[String]) -> Vec<Box<dyn NetworkFunction>> {
        names.iter().map(|n| (self.0)(n)).collect()
    }
}
