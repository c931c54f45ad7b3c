//! One equivalence kit for every differential suite.
//!
//! The paper's result-correctness principle (§6.4) says a parallel
//! program's output equals its policy's sequential composition; Khalid &
//! Akella (arXiv:1612.01497) add that the NFs' state must be equal too.
//! Every suite that holds one executor to another does it through this
//! crate:
//!
//! * [`corpus`] — the inputs: the committed golden pcaps, the hostile set,
//!   and one seeded, parameterised synthetic generator ([`Traffic`]);
//! * [`Chain`] and [`Nfs`] — a compiled program and how its NFs are built;
//! * [`Executor`] and [`run`] — one enum over every way the repo executes a
//!   program, and the one entry point that runs a trace through it
//!   ([`Runner`] when a suite needs more than one feed, a reconfigure in
//!   between, or the engine behind the outcome);
//! * [`Outcome`] — everything a run produced that another run must match,
//!   its counts read from the executor's own [`RunRecord`](nfp_io::RunRecord),
//!   and [`Outcome::diff`], which names the first field that differs.
//!
//! # Equivalence levels
//!
//! A [`Level`] says how much of the delivery sequence two runs must share.
//! At every level both runs must also agree on the drop count and the
//! admission reject count (0 for run-to-completion) and, where both
//! executors expose them, on the drop taxonomy, the copy and merge
//! counts, the per-NF counters, every NF's per-flow state and the NF
//! failures. Every engine (sync, threaded at any `core_budget`, sharded,
//! and ONVM, which is a switched program on the threaded engine) exposes
//! all of them, so per-NF counters are compared on each;
//! run-to-completion exposes no taxonomy, copies, merges or per-NF
//! counters.
//!
//! * **Byte order** ([`Level::ByteOrder`]): the same delivered frames in
//!   the same order. It holds between the sync engine's entry points
//!   (`process`, `process_batch`, `run_io` at any burst), between the sync
//!   engine's `process` loop and run-to-completion, for the threaded
//!   engine at `core_budget` 1 (one stage group: the sync engine's loop
//!   behind a ring) or at window 1, for ONVM (every hop of a switched
//!   chain is a FIFO ring) against run-to-completion, and between each
//!   replica of a fleet and a sync engine fed that replica's RSS
//!   partition.
//! * **Per-flow order** ([`Level::PerFlow`]): the same multiset, and every
//!   admission flow's frames in the same order. Cross-flow interleaving is
//!   the one freedom threaded stage groups and sharded fleets take: every
//!   packet of a flow is classified, sequenced and merged in admission
//!   order. It holds between the threaded engine (any `core_budget`, any
//!   number of mergers) or a fleet and the sync engine or
//!   run-to-completion.
//!
//! Run-to-completion has no classifier and runs its packets unstamped, as
//! `perf` does. It files each delivery under its packet's ingress
//! 5-tuple, the flow the classifier would stamp; a stateful NF behind an
//! address or port rewrite keys its state by the rewritten tuple there, so
//! a suite leaves [`Chain::rekeyed`]'s NFs out of a state comparison
//! against it ([`Outcome::without_state_of`]).
//!
//! A threaded executor runs on the caller's configuration: packet traces
//! need `keep_packets` on, captures need it off, so a replay through
//! `run_io` recycles its buffers into the ingress as production does.
//!
//! A delivered frame is compared with its ingress timestamp, so a capture
//! replayed through `run_io` is compared record for record.

pub mod corpus;
mod exec;
mod outcome;
mod program;

pub use corpus::Traffic;
pub use exec::{run, Entry, Executor, Runner, Trace};
pub use outcome::{Delivery, Level, Mismatch, Outcome};
pub use program::{chains, fail_open, Chain, Nfs, REPLAYABLE};
