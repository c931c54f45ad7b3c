//! Engine-facing [`Ingress`]/[`Egress`] adapters over the classic-pcap
//! file codec.
//!
//! Pcap ingress stamps every packet's metadata with the record's capture
//! timestamp (`Metadata::with_ingress_ns`), which the classifier
//! carries through admission and feeds into the telemetry `ingress`
//! inter-arrival histogram — a replayed trace keeps its timing shape.
//! Pcap egress writes delivered frames back out, reusing the ingress
//! stamp as the record timestamp when present (falling back to a
//! monotonic record counter so the output is still a valid capture).
//! The egress writes from borrowed bytes, and the ingress refills the
//! packets an engine hands back, so a packet that comes round again costs
//! no allocation.

use crate::pcap::{PcapFormat, PcapReader, PcapRecord, PcapWriter};
use nfp_packet::io::{Egress, Ingress, IoError};
use nfp_packet::Packet;
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Build the in-memory packet a pcap record replays as: bytes as
/// captured (snaplen cuts included — the classifier, not the reader,
/// judges them) with the capture timestamp stamped into the metadata.
/// The same refill a [`PcapIngress`] gives a handed-back packet, applied
/// to a fresh one.
pub fn packet_from_record(rec: &PcapRecord) -> Result<Packet, IoError> {
    let mut pkt = Packet::new();
    refill_from_record(&mut pkt, rec)?;
    Ok(pkt)
}

/// Overwrite `pkt`, in place, with the packet `rec` replays as
/// ([`Packet::refill`]): nothing of what it held before survives.
fn refill_from_record(pkt: &mut Packet, rec: &PcapRecord) -> Result<(), IoError> {
    pkt.refill(&rec.data).map_err(|_| IoError::FrameTooLarge {
        len: rec.data.len(),
    })?;
    pkt.set_meta(pkt.meta().with_ingress_ns(rec.ts_ns));
    Ok(())
}

/// How many handed-back packets a [`PcapIngress`] keeps for refilling:
/// a few bursts' worth, so what it holds stays bounded however much an
/// engine hands back.
const STASH: usize = 256;

/// Classic-pcap file/stream replay ingress.
///
/// Records are read into one reused buffer, and packets the engine hands
/// back ([`Ingress::recycle`]) are refilled in place, up to 256 of
/// them. Every engine's `run_io` hands back each delivered packet and
/// the buffer of each drop and reject, so a steady replay allocates no
/// packet; only a pull with nothing handed back (the start of a replay)
/// costs a fresh one.
#[derive(Debug)]
pub struct PcapIngress<R: Read> {
    reader: PcapReader<R>,
    record: PcapRecord,
    stash: Vec<Packet>,
    done: bool,
    records: u64,
}

impl PcapIngress<BufReader<File>> {
    /// Open a pcap file for replay.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, IoError> {
        let f = File::open(path).map_err(|e| IoError::Os {
            op: "open pcap",
            code: e.raw_os_error().unwrap_or(0),
        })?;
        Self::from_reader(BufReader::new(f))
    }
}

impl PcapIngress<std::io::Cursor<Vec<u8>>> {
    /// Replay an in-memory capture.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Self, IoError> {
        Self::from_reader(std::io::Cursor::new(bytes))
    }
}

impl<R: Read> PcapIngress<R> {
    /// Wrap any readable pcap stream.
    fn from_reader(r: R) -> Result<Self, IoError> {
        Ok(Self {
            reader: PcapReader::new(r)?,
            record: PcapRecord::full(0, Vec::new()),
            stash: Vec::with_capacity(STASH),
            done: false,
            records: 0,
        })
    }

    /// Records replayed so far.
    #[cfg(test)]
    fn records(&self) -> u64 {
        self.records
    }
}

impl<R: Read> Ingress for PcapIngress<R> {
    fn next_burst(&mut self, max: usize) -> Result<Option<Vec<Packet>>, IoError> {
        if self.done {
            return Ok(None);
        }
        let mut out = Vec::with_capacity(max.max(1));
        while out.len() < max.max(1) {
            if !self.reader.read_into(&mut self.record)? {
                self.done = true;
                break;
            }
            let mut pkt = self.stash.pop().unwrap_or_default();
            refill_from_record(&mut pkt, &self.record)?;
            out.push(pkt);
            self.records += 1;
        }
        if out.is_empty() {
            Ok(None)
        } else {
            Ok(Some(out))
        }
    }

    fn recycle(&mut self, spent: &mut Vec<Packet>) {
        let room = STASH - self.stash.len();
        self.stash.extend(spent.drain(..).take(room));
    }

    fn label(&self) -> &'static str {
        "pcap"
    }
}

/// Classic-pcap record egress: delivered frames become capture records.
#[derive(Debug)]
pub struct PcapEgress<W: Write> {
    writer: PcapWriter<W>,
    /// Fallback clock for packets without an ingress stamp: record
    /// index in microsecond steps, so output files stay monotonic.
    fallback_ns: u64,
}

impl PcapEgress<BufWriter<File>> {
    /// Create/truncate a pcap file for delivered output.
    pub fn create(path: impl AsRef<Path>, fmt: PcapFormat) -> Result<Self, IoError> {
        let f = File::create(path).map_err(|e| IoError::Os {
            op: "create pcap",
            code: e.raw_os_error().unwrap_or(0),
        })?;
        Ok(Self::from_writer(BufWriter::new(f), fmt))
    }
}

impl PcapEgress<Vec<u8>> {
    /// Capture output in memory (tests).
    pub fn in_memory(fmt: PcapFormat) -> Self {
        Self::from_writer(Vec::new(), fmt)
    }
}

impl<W: Write> PcapEgress<W> {
    /// Wrap any writable stream.
    pub fn from_writer(w: W, fmt: PcapFormat) -> Self {
        Self {
            writer: PcapWriter::new(w, fmt),
            fallback_ns: 0,
        }
    }

    /// Records written so far.
    pub fn records(&self) -> u64 {
        self.writer.records()
    }

    /// Flush and hand back the underlying writer.
    pub fn into_inner(self) -> Result<W, IoError> {
        self.writer.into_inner()
    }
}

impl<W: Write> Egress for PcapEgress<W> {
    fn emit_burst(&mut self, pkts: &[Packet]) -> Result<(), IoError> {
        for p in pkts {
            let ts = p.meta().ingress_ns();
            let ts = if ts != 0 {
                ts
            } else {
                self.fallback_ns += 1_000;
                self.fallback_ns
            };
            self.writer.write_frame(ts, p.len() as u32, p.data())?;
        }
        Ok(())
    }

    fn flush(&mut self) -> Result<(), IoError> {
        self.writer.flush()
    }

    fn label(&self) -> &'static str {
        "pcap"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pcap::write_pcap_bytes;
    use nfp_packet::testutil::{indexed_payload, ip, observable, tcp_frame_bytes};
    use nfp_packet::{ah, ipv4, FlowKey, Metadata};

    fn frames(n: usize) -> Vec<PcapRecord> {
        (0..n)
            .map(|i| {
                PcapRecord::full(
                    1_000 + i as u64 * 500,
                    tcp_frame_bytes(
                        ip(10, 0, 0, 1),
                        ip(10, 0, 0, 2),
                        2000 + i as u16,
                        80,
                        &indexed_payload(32, i as u64),
                    ),
                )
            })
            .collect()
    }

    #[test]
    fn pcap_ingress_replays_bytes_and_stamps_timestamps() {
        let recs = frames(5);
        let bytes = write_pcap_bytes(&recs, PcapFormat::default());
        let mut ing = PcapIngress::from_bytes(bytes).unwrap();
        let burst = ing.next_burst(3).unwrap().unwrap();
        assert_eq!(burst.len(), 3);
        assert_eq!(burst[0].data(), &recs[0].data[..]);
        assert_eq!(burst[0].meta().ingress_ns(), 1_000);
        assert_eq!(burst[2].meta().ingress_ns(), 2_000);
        let rest = ing.next_burst(16).unwrap().unwrap();
        assert_eq!(rest.len(), 2);
        assert!(ing.next_burst(1).unwrap().is_none());
        assert_eq!(ing.records(), 5);
    }

    #[test]
    fn pcap_egress_round_trips_delivered_frames() {
        let recs = frames(4);
        let bytes = write_pcap_bytes(&recs, PcapFormat::default());
        let mut ing = PcapIngress::from_bytes(bytes).unwrap();
        let pkts = ing.next_burst(16).unwrap().unwrap();
        let mut eg = PcapEgress::in_memory(PcapFormat::default());
        eg.emit_burst(&pkts).unwrap();
        eg.flush().unwrap();
        let out = eg.into_inner().unwrap();
        let got = crate::pcap::read_pcap_bytes(&out).unwrap();
        assert_eq!(got, recs, "ingress stamp is reused as the record ts");
    }

    #[test]
    fn unstamped_packets_get_a_monotonic_fallback_clock() {
        let mut eg = PcapEgress::in_memory(PcapFormat::default());
        let pkts: Vec<Packet> = frames(3)
            .iter()
            .map(|r| Packet::from_bytes(&r.data).unwrap())
            .collect();
        eg.emit_burst(&pkts).unwrap();
        let got = crate::pcap::read_pcap_bytes(&eg.into_inner().unwrap()).unwrap();
        let ts: Vec<u64> = got.iter().map(|r| r.ts_ns).collect();
        assert_eq!(ts, vec![1_000, 2_000, 3_000]);
    }

    /// Records that shrink (1514 B, then 60 B), one cut by the snaplen and
    /// one that does not parse.
    fn shrinking_records() -> Vec<PcapRecord> {
        let frame = |len: usize| {
            let payload = indexed_payload(len - 54, len as u64);
            tcp_frame_bytes(ip(10, 0, 0, 3), ip(10, 0, 0, 4), 4000, 443, &payload)
        };
        vec![
            PcapRecord::full(7_000, frame(1514)),
            PcapRecord::full(8_000, frame(60)),
            PcapRecord {
                ts_ns: 9_000,
                orig_len: 1514,
                data: frame(1514)[..100].to_vec(),
            },
            PcapRecord::full(10_000, vec![0xFF; 40]),
        ]
    }

    /// Spent packets in each state an engine can hand one back in.
    fn dirty_packets() -> Vec<(&'static str, Packet)> {
        let frame = tcp_frame_bytes(ip(10, 9, 9, 1), ip(10, 9, 9, 2), 5, 6, &[7; 1400]);
        let mut long = Packet::from_bytes(&frame).unwrap();
        long.parse().unwrap();
        long.set_meta(
            Metadata::new(9, 99, 3)
                .with_epoch(6)
                .with_traced(true)
                .with_flow(FlowKey::of(&long))
                .with_ingress_ns(123),
        );
        let header_only = long.header_only_copy(2).unwrap();
        let mut nil = long.clone();
        nil.set_nil_packet(long.meta(), 7, true);
        let mut tunnelled = long.clone();
        let l4 = tunnelled.parse().unwrap().l4;
        tunnelled.insert_bytes(l4, ah::HEADER_LEN).unwrap();
        let data = tunnelled.data_mut();
        ah::emit(
            &mut data[l4..],
            ipv4::PROTO_TCP,
            0x1001,
            1,
            &[0xAB; ah::ICV_LEN],
        )
        .unwrap();
        data[14 + ipv4::offsets::PROTOCOL] = ipv4::PROTO_AH;
        tunnelled.invalidate();
        tunnelled.sync_ip_total_len().unwrap();
        assert_eq!(tunnelled.parse().unwrap().ah, Some(l4));
        vec![
            ("parsed, traced and epoch-stamped", long),
            ("header-only", header_only),
            ("nil", nil),
            ("AH-encapsulated", tunnelled),
        ]
    }

    #[test]
    fn a_recycled_packet_carries_nothing_over() {
        let recs = shrinking_records();
        let bytes = write_pcap_bytes(&recs, PcapFormat::default());
        for (label, dirty) in dirty_packets() {
            let mut ing = PcapIngress::from_bytes(bytes.clone()).unwrap();
            for rec in &recs {
                ing.recycle(&mut vec![dirty.clone()]);
                assert_eq!(ing.stash.len(), 1);
                let mut burst = ing.next_burst(1).unwrap().unwrap();
                assert!(
                    ing.stash.is_empty(),
                    "{label}: the handed-back packet is refilled"
                );
                let expect = packet_from_record(rec).unwrap();
                let got = &mut burst[0];
                assert_eq!(
                    observable(got),
                    observable(&expect),
                    "{label} refilled with a {}-byte record",
                    rec.data.len()
                );
                // Growing the refill exposes zeros, never the old frame.
                let end = got.len();
                got.insert_bytes(end, 64).unwrap();
                assert_eq!(&got.data()[end..], &[0u8; 64], "{label}");
            }
        }
        // The comparison above sees a refill that keeps what the packet
        // held: `set_frame` alone carries the metadata over.
        let (_, mut stale) = dirty_packets().remove(0);
        let rec = &recs[1];
        stale.set_frame(&rec.data).unwrap();
        stale.set_meta(stale.meta().with_ingress_ns(rec.ts_ns));
        let expect = packet_from_record(rec).unwrap();
        assert_ne!(observable(&stale), observable(&expect));
    }

    #[test]
    fn the_stash_keeps_a_few_bursts_at_most() {
        let mut ing =
            PcapIngress::from_bytes(write_pcap_bytes(&[], PcapFormat::default())).unwrap();
        let mut spent = vec![Packet::new(); STASH + 10];
        ing.recycle(&mut spent);
        assert!(spent.is_empty());
        assert_eq!(ing.stash.len(), STASH);
    }

    #[test]
    fn oversized_record_is_a_frame_too_large_error() {
        let rec = PcapRecord::full(1, vec![0u8; 1921]);
        assert!(matches!(
            packet_from_record(&rec).unwrap_err(),
            IoError::FrameTooLarge { len: 1921 }
        ));
    }
}
