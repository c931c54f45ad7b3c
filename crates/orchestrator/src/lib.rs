//! # nfp-orchestrator
//!
//! The NFP **orchestrator** (paper §4): it "takes the NFP policies as input,
//! identifies NF dependencies, and automatically compiles policies into high
//! performance service graphs possibly with parallel NFs", with the twin
//! optimization goals of *maximum parallelism* and *minimal resource
//! overhead*.
//!
//! Pipeline (paper Figure 2):
//!
//! ```text
//! Policy ──transform──▶ Intermediate Representations ──compile──▶
//!        Micrographs (Single NF | Tree | Plain Parallelism) ──merge──▶
//!        Final service graph + Classification/Forwarding/Merging tables
//! ```
//!
//! Module map:
//!
//! * `action` — the NF action model: `Read`/`Write` over packet fields,
//!   `AddRm` (header addition/removal) and `Drop`, plus [`action::ActionProfile`].
//! * `table2` — the built-in NF action table (paper Table 2) with
//!   deployment percentages, and the profile [`table2::Registry`] new NFs
//!   are registered into (§5.4).
//! * [`deps`] — the action dependency table (paper Table 3).
//! * `alg1` — the NF Parallelism Identification algorithm (paper
//!   Algorithm 1), including OP#1 *Dirty Memory Reusing*.
//! * [`census`](mod@census) — reproduces the paper's §4.3 statistic ("53.8% NF pairs
//!   can work in parallel; 41.5% without extra resource overhead").
//! * [`graph`] — the compiled service-graph representation.
//! * [`compile`](mod@compile) — the §4.4 compiler, as explicit passes
//!   (profile collection → transform → micrographs → emission).
//! * [`tables`] — generation of the classification, forwarding and merging
//!   tables the infrastructure installs (§4.4.3/§5).
//! * `program` — the sealed `program::Program` artifact handed to the
//!   dataplane: validated tables + stage wiring plan + per-position field
//!   masks + worst-case pool footprint.
//! * [`modular`] — OpenBox-style block-level parallelism merge (paper §7,
//!   Figure 15).
//! * [`partition`] — cross-server graph partitioning sketch (paper §7).
//!
//! **API:** the public modules [`census`](mod@census), [`compile`](mod@compile),
//! [`deps`], [`graph`], [`modular`], [`partition`] and [`tables`], and the
//! root re-exports (the action model, [`identify`], the compiler's entry
//! points, [`Program`] with its update types, and [`Registry`]). `action`,
//! `alg1`, `program` and `table2` are private; their public items are
//! reached through the re-exports.

#![warn(missing_docs)]

mod action;
mod alg1;
pub mod census;
pub mod compile;
pub mod deps;
pub mod graph;
pub mod modular;
pub mod partition;
mod program;
mod table2;
pub mod tables;

pub use action::{Action, ActionProfile, FailurePolicy, HeaderKind};
pub use alg1::{identify, IdentifyOptions};
pub use compile::{compile, CompileError, CompileOptions, CompileWarning, Compiled};
pub use deps::{DependencyTable, Parallelism};
pub use graph::ServiceGraph;
pub use program::{Program, ProgramUpdate, Stage, UpdateRejection};
pub use table2::Registry;
