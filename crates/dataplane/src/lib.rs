//! # nfp-dataplane
//!
//! The NFP **infrastructure** (paper §5): everything below the orchestrator
//! that actually moves and merges packets.
//!
//! * [`ring`] — from-scratch lock-free SPSC ring buffers; the stand-in for
//!   the paper's per-NF receive/transmit rings in huge-page shared memory.
//! * [`classifier`] — admits arriving packets to the sealed program's
//!   one service graph, assigns MID/PID/version metadata (paper Fig. 5)
//!   and launches the graph's entry actions.
//! * [`actions`] — the forwarding-action interpreter shared by classifier,
//!   NF runtimes and mergers (`copy` / `distribute` / `output`).
//! * [`runtime`] — the distributed per-NF runtime: polls receive rings,
//!   drives the NF, applies its forwarding-table slice, and converts drops
//!   into nil packets toward the merger (§5.2).
//! * [`merger`] — the Accumulating Table and merge-operation executor
//!   (§5.3), including priority-based drop-conflict resolution, plus the
//!   merger agent's PID-hash load balancing.
//! * [`stats`] — per-stage observability counters ([`stats::StageStats`]):
//!   packets in/out, copies, nils, merges, drops by cause, backpressure
//!   stalls and ring high-water marks, aggregated per engine run (and
//!   across shards).
//! * [`cores`] — the per-stage cores (agent/sequencer, merger,
//!   collector): each stage's semantics lives here exactly once.
//! * `dispatch` — the stage dispatcher, the one interpreter of a sealed
//!   [`nfp_orchestrator::Program`]: it owns a set of stages, runs one
//!   kernel per stage kind over each queued burst, and puts a ring only
//!   on an edge that leaves the set.
//! * [`sync_engine`] — one dispatcher holding every stage, driven by the
//!   caller: deterministic, the reference for correctness tests (paper
//!   §6.4's replay experiment) and property tests.
//! * [`engine`] — the multi-threaded engine: one dispatcher per group of
//!   stages, each group on its own thread, SPSC rings on the edges the
//!   grouping cuts (DESIGN.md §11).
//! * [`exec`] — the threading model: core budgets and stage grouping
//!   (`exec::plan_pipeline_groups`), the spin→yield→park idle strategy
//!   ([`exec::IdlePolicy`], `exec::WakeHub`), optional core pinning,
//!   and the `exec::CachePadded` false-sharing guard.
//! * [`swap`] — epoch-based live reconfiguration: the swappable
//!   [`swap::ProgramHandle`] every stage hangs off, per-burst epoch
//!   pinning, drain/retire accounting, and the per-stage
//!   [`swap::TablesResolver`] that keeps mid-swap packets on the tables
//!   that classified them.
//! * [`shard`] — RSS-style flow sharding: one engine with a replica per
//!   shard, its injector the 5-tuple hash front-end, for multi-core
//!   scale-out, per-flow FIFO preserved — and elastic:
//!   [`shard::ShardedEngine::rescale`] changes the shard count between
//!   runs, migrating every stateful NF's per-flow state with its flows.
//! * [`autoscale`] — the policy loop over that elasticity: distills
//!   grow/hold/shrink decisions from the p99 stage histograms and ring
//!   high-water backpressure gauges, with hysteresis and cooldown.
//! * [`telemetry`] — packet-path telemetry: lock-free per-stage log₂
//!   latency histograms (p50/p90/p99/max per stage on every report) and
//!   sampled per-packet trace timelines, exportable as JSON or
//!   Prometheus text via [`telemetry::TelemetrySnapshot`].
//! * [`audit`] — continuous invariant auditing for adversarial soak runs:
//!   live engine gauges ([`audit::EngineProbe`]), a sampling auditor
//!   thread, and the five-invariant end-of-run verdict
//!   ([`audit::InvariantReport`]) — migrated-state census included.
//! * [`chaos_schedule`] — seed-derived chaos scripts (NF panics, stalls,
//!   mid-storm swap timelines, fleet rescale storms) and the driver that
//!   executes them against a running engine.
//!
//! **API:** every module above except `dispatch` (and the private
//! `idmap`), and the root re-exports: the three engines ([`SyncEngine`],
//! [`Engine`], [`ShardedEngine`]) with their configuration, report and
//! error types, [`Classifier`], [`ProgramHandle`], [`StageStats`] and the
//! telemetry export types.

#![warn(missing_docs)]

pub mod actions;
pub mod audit;
pub mod autoscale;
pub mod chaos_schedule;
pub mod classifier;
pub mod cores;
mod dispatch;
pub mod engine;
pub mod exec;
mod idmap;
pub mod merger;
pub mod ring;
pub mod runtime;
pub mod shard;
pub mod stats;
pub mod swap;
pub mod sync_engine;
pub mod telemetry;

pub use classifier::Classifier;
pub use engine::{Engine, EngineConfig, EngineController, EngineError, EngineReport, NfFailure};
pub use runtime::FailureKind;
pub use shard::ShardedEngine;
pub use stats::StageStats;
pub use swap::ProgramHandle;
pub use sync_engine::SyncEngine;
pub use telemetry::{PacketTrace, TelemetryConfig, TelemetrySnapshot, TraceHop};
