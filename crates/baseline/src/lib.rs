//! # nfp-baseline
//!
//! The comparison systems of the NFP evaluation:
//!
//! * [`RunToCompletion`] — a BESS/NetBricks-style **run-to-completion** executor: the
//!   whole chain consolidated into one call per packet on one core (paper
//!   §7, Table 4). Because it executes NFs strictly in order, it doubles
//!   as the *sequential reference semantics* for the §6.4 result-
//!   correctness replay.
//! * [`OnvmPipeline`] — an OpenNetVM-style **pipelining** data plane: one thread
//!   per NF, with every inter-NF hop relayed by a centralized virtual
//!   switch — the design whose queuing hot spot NFP's distributed runtime
//!   removes (§5/§6.2.1). It is not a runtime of its own: the NFs' chain
//!   is sealed as a sequential program, routed through a switch stage
//!   (`Program::via_switch`) and run by NFP's threaded `Engine`, so the
//!   switch hop is the only difference left.
//!
//! **API:** these two re-exports. The `rtc` and `onvm` modules are
//! private.

#![warn(missing_docs)]

mod onvm;
mod rtc;

pub use onvm::OnvmPipeline;
pub use rtc::RunToCompletion;
