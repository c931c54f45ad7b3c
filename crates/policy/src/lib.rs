//! # nfp-policy
//!
//! The NFP **policy specification scheme** (paper §3).
//!
//! Network operators describe sequential *or* parallel NF chaining intents
//! by composing three rule types into a policy:
//!
//! * [`Rule::Order`] — `Order(NF1, before, NF2)`: NF1's processing must be
//!   reflected before NF2's. The orchestrator may still *parallelize* the
//!   two NFs when its dependency analysis proves the result equals
//!   sequential composition.
//! * [`Rule::Priority`] — `Priority(NF1 > NF2)`: run the two NFs in
//!   parallel; when their actions conflict, NF1's result wins.
//! * [`Rule::Position`] — `Position(NF, first|last)`: pin an NF to the head
//!   or tail of the service graph.
//!
//! A traditional sequential chain specification converts losslessly into a
//! policy of `Order` rules ([`Policy::from_chain`]), preserving backwards
//! compatibility — the orchestrator then mines it for parallelism.
//!
//! The paper defers policy conflict detection to future work; this crate
//! implements it ([`check_conflicts`]) as a documented extension.
//! **API:** the root re-exports; all four modules are private.

#![warn(missing_docs)]

mod conflict;
mod parser;
mod policy;
mod rule;

pub use conflict::{check_conflicts, Conflict};
pub use parser::parse_policy;
pub use policy::Policy;
pub use rule::{NfName, PositionAnchor, Rule};
