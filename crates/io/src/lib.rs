//! # nfp-io
//!
//! Packet I/O backends for the NFP dataplane, implementing the
//! [`nfp_packet::io`] `Ingress`/`Egress` contract over the from-scratch
//! classic-pcap codec in [`pcap`]:
//!
//! * [`backends::PcapIngress`] / [`backends::PcapEgress`] — reproducible
//!   real-trace replay with capture timestamps stamped into packet
//!   metadata, and delivered frames recorded back out as a capture;
//! * the seeded golden-trace builder in [`trace`] behind the committed
//!   differential corpus.
//!
//! In-memory sources and sinks (`VecIngress`, `CollectEgress`,
//! `NullEgress`) live beside the trait pair in `nfp-packet` and are
//! re-exported here. A NIC backend would be one more `Ingress`/`Egress`
//! pair.
//!
//! No C capture library, no external crates: the pcap format is written
//! by hand against `std`. **API:** these three modules and the root re-exports.

#![warn(missing_docs)]

pub mod backends;
pub mod pcap;
pub mod trace;

pub use backends::{PcapEgress, PcapIngress};
pub use nfp_packet::io::{
    CollectEgress, Egress, Ingress, IoError, IoRunStats, NullEgress, VecIngress,
};
pub use pcap::{PcapFormat, PcapReader, PcapRecord};
