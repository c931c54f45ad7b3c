//! Per-stage cores — the single home of each pipeline stage's semantics.
//!
//! Each stage's behaviour lives in exactly one place, and the one stage
//! dispatcher (`crate::dispatch`) that both the deterministic
//! [`crate::sync_engine`] and the threaded [`crate::engine`] run steps
//! these cores off the same sealed [`nfp_orchestrator::Program`]:
//!
//! * **Classifier core** — [`crate::classifier::Classifier`] (CT lookup,
//!   metadata stamping, entry actions).
//! * **NF core** — [`crate::runtime::NfRuntime`] (access-mode dispatch,
//!   forwarding-table slice execution, drop→nil conversion).
//! * **Agent/sequencer core** — `agent::AgentCore` (PID-hash instance
//!   pick, dense merge-order sequence assignment, in-order outcome
//!   release — the §4.3 result-correctness mechanism).
//! * **Merger core** — [`merge::MergerCore`] (accumulating table, nil
//!   accounting, priority-based conflict resolution and the merge
//!   itself).
//! * **Collector core** — [`collector::collect`] (pool take + checksum
//!   finalization).
//!
//! The cores are deliberately synchronous and allocation-light: the
//! dispatcher owns the loop (queues, rings, bursts, stop conditions) and
//! hands the agent and merger cores a stage's whole queued burst.

mod agent;
pub mod collector;
pub mod merge;

pub(crate) use agent::{AgentCore, Outcome};
pub(crate) use merge::MergerCore;
