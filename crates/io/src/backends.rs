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

use crate::pcap::{PcapFormat, PcapReader, PcapRecord, PcapWriter};
use nfp_packet::io::{Egress, Ingress, IoError};
use nfp_packet::Packet;
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Build the in-memory packet a pcap record replays as: bytes as
/// captured (snaplen cuts included — the classifier, not the reader,
/// judges them) with the capture timestamp stamped into the metadata.
pub fn packet_from_record(rec: &PcapRecord) -> Result<Packet, IoError> {
    let mut pkt = Packet::from_bytes(&rec.data).map_err(|_| IoError::FrameTooLarge {
        len: rec.data.len(),
    })?;
    pkt.set_meta(pkt.meta().with_ingress_ns(rec.ts_ns));
    Ok(pkt)
}

/// Classic-pcap file/stream replay ingress.
#[derive(Debug)]
pub struct PcapIngress<R: Read> {
    reader: PcapReader<R>,
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
    pub fn from_reader(r: R) -> Result<Self, IoError> {
        Ok(Self {
            reader: PcapReader::new(r)?,
            done: false,
            records: 0,
        })
    }

    /// Records replayed so far.
    pub fn records(&self) -> u64 {
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
            match self.reader.next_record()? {
                Some(rec) => {
                    out.push(packet_from_record(&rec)?);
                    self.records += 1;
                }
                None => {
                    self.done = true;
                    break;
                }
            }
        }
        if out.is_empty() {
            Ok(None)
        } else {
            Ok(Some(out))
        }
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
            self.writer
                .write_record(&PcapRecord::full(ts, p.data().to_vec()))?;
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
    use nfp_packet::testutil::{indexed_payload, ip, tcp_frame_bytes};

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

    #[test]
    fn oversized_record_is_a_frame_too_large_error() {
        let rec = PcapRecord::full(1, vec![0u8; 1921]);
        assert!(matches!(
            packet_from_record(&rec).unwrap_err(),
            IoError::FrameTooLarge { len: 1921 }
        ));
    }
}
