//! # nfp-packet
//!
//! Packet substrate for the NFP (Network Function Parallelism) framework.
//!
//! This crate provides everything the NFP data plane and orchestrator need to
//! talk about packets:
//!
//! * Protocol header views and builders for Ethernet II, IPv4, TCP, UDP and
//!   the IPsec Authentication Header ([`ether`], [`ipv4`], [`tcp`], [`udp`],
//!   [`ah`]), all written from scratch with no external protocol crates.
//! * The Internet checksum ([`checksum`]).
//! * A byte-owning [`packet::Packet`] with headroom for header
//!   addition/removal and lazily parsed layer offsets.
//! * The NFP packet metadata word ([`meta::Metadata`]): a 20-bit match ID
//!   (MID), 40-bit packet ID (PID) and 4-bit copy version, exactly as the
//!   paper's Figure 5 specifies.
//! * The packet *field* model (`field`): the header fields NF action
//!   profiles are expressed over (source/destination IP, ports, payload, …)
//!   and dense [`field::FieldMask`] sets used by the orchestrator's
//!   dependency analysis and the Dirty Memory Reusing optimization.
//! * The pluggable packet I/O contract ([`io`]): the burst-shaped
//!   [`io::Ingress`]/[`io::Egress`] trait pair every traffic backend
//!   (in-memory vector, pcap file) implements, so engines never know
//!   where packets come from or go to.
//! * A pre-allocated shared [`pool::PacketPool`] standing in for the paper's
//!   huge-page shared memory region: slots are reference-counted, packets are
//!   passed between NFs as cheap [`pool::PacketRef`]s, and header-only
//!   copies (paper optimization OP#2) are a first-class pool operation.
//!
//! The pool is the only module containing `unsafe` beyond
//! [`Packet::prefetch`]'s cache hint; its aliasing contract is documented
//! there and exercised by the property tests in `tests/`.
//!
//! **API:** the public modules above (`field` is private), the root
//! re-exports [`FieldId`], [`FieldMask`], [`FlowKey`], [`Metadata`],
//! [`Packet`], [`PacketPool`] and [`PacketRef`], and [`PacketError`].
//! `testutil` exists only with the `test-util` feature.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod ah;
pub mod checksum;
pub mod ether;
mod field;
pub mod flow;
pub mod io;
pub mod ipv4;
pub mod meta;
pub mod packet;
pub mod pool;
pub mod tcp;
#[cfg(any(test, feature = "test-util"))]
pub mod testutil;
pub mod udp;

pub use field::{FieldId, FieldMask};
pub use flow::FlowKey;
pub use meta::Metadata;
pub use packet::Packet;
pub use pool::{PacketPool, PacketRef};

/// Errors produced while parsing or manipulating packets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketError {
    /// The buffer is too short to contain the requested header.
    Truncated {
        /// Header or field that could not be read.
        what: &'static str,
        /// Bytes that were needed.
        needed: usize,
        /// Bytes that were available.
        available: usize,
    },
    /// A header field holds a value we cannot process (e.g. IPv4 IHL < 5).
    Malformed {
        /// Description of the malformation.
        what: &'static str,
    },
    /// The operation would overflow the packet buffer capacity.
    NoCapacity {
        /// Bytes requested.
        requested: usize,
        /// Capacity remaining.
        capacity: usize,
    },
    /// The requested field does not exist in this packet (e.g. TCP ports on
    /// an ICMP packet).
    FieldUnavailable(field::FieldId),
    /// The shared packet pool has no free slot for the requested
    /// allocation; the caller decides whether to retry (backpressure) or
    /// drop.
    PoolExhausted,
}

impl core::fmt::Display for PacketError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            PacketError::Truncated {
                what,
                needed,
                available,
            } => write!(f, "truncated {what}: need {needed} bytes, have {available}"),
            PacketError::Malformed { what } => write!(f, "malformed packet: {what}"),
            PacketError::NoCapacity {
                requested,
                capacity,
            } => write!(
                f,
                "insufficient buffer capacity: requested {requested}, capacity {capacity}"
            ),
            PacketError::FieldUnavailable(id) => write!(f, "field {id:?} unavailable"),
            PacketError::PoolExhausted => write!(f, "packet pool exhausted"),
        }
    }
}

impl std::error::Error for PacketError {}

/// Result alias used throughout this crate.
type Result<T> = core::result::Result<T, PacketError>;
