//! The **collector core** — the graph's output edge.
//!
//! Takes the finished packet out of the pool (releasing its last
//! reference) and finalizes checksums, exactly once per delivered packet,
//! for every executor.

use crate::actions::Msg;
use crate::stats::StageStats;
use nfp_packet::pool::PacketPool;
use nfp_packet::Packet;

/// Collect one output message: take the packet from the pool and finalize
/// its checksums. Checksum finalization can only fail on a frame too
/// mangled to parse, which the classifier already screened out; failure is
/// ignored so a malformed survivor still reaches the report.
pub fn collect(msg: Msg, pool: &PacketPool, stats: &StageStats) -> Packet {
    stats.note_in(1);
    let mut pkt = pool.take(msg.r);
    pkt.finalize_checksums().ok();
    stats.note_out(1);
    pkt
}
