//! A from-scratch classic-pcap (libpcap tcpdump format) codec.
//!
//! The 24-byte global header carries one of four magics — microsecond or
//! nanosecond timestamp resolution, each in either byte order — followed
//! by 16-byte per-record headers:
//!
//! ```text
//! magic | ver 2.4 | thiszone | sigfigs | snaplen | linktype
//! ts_sec | ts_subsec | incl_len | orig_len | <incl_len frame bytes>
//! ```
//!
//! The reader accepts all four magic variants and normalizes timestamps
//! to nanoseconds; the writer can emit any of them, which is how the
//! round-trip property test exercises both endianness paths. A record
//! whose `incl_len` is smaller than its `orig_len` was cut by the
//! capture snaplen — the codec preserves the pair so replay surfaces the
//! truncation as [`PcapRecord::truncated`] instead of silently healing
//! or corrupting the frame. No C library is involved anywhere.

use nfp_packet::io::IoError;
use std::io::{Read, Write};

/// Classic pcap magic, microsecond timestamps, writer-native order.
const MAGIC_US: u32 = 0xA1B2_C3D4;
/// Classic pcap magic, nanosecond timestamps (the tcpdump `.pcapns`
/// variant), writer-native order.
const MAGIC_NS: u32 = 0xA1B2_3C4D;
/// Linktype 1: Ethernet (LINKTYPE_ETHERNET / DLT_EN10MB).
const LINKTYPE_ETHERNET: u32 = 1;
/// Default snaplen: a full [`nfp_packet::packet::CAPACITY`]-sized frame
/// minus headroom, i.e. the largest frame a [`nfp_packet::Packet`] holds.
const DEFAULT_SNAPLEN: u32 = (nfp_packet::packet::CAPACITY - nfp_packet::packet::HEADROOM) as u32;

const GLOBAL_HEADER_LEN: usize = 24;
const RECORD_HEADER_LEN: usize = 16;

/// One captured frame: normalized timestamp, original wire length and
/// the (possibly snaplen-cut) captured bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PcapRecord {
    /// Capture timestamp in nanoseconds since the epoch of the trace.
    pub ts_ns: u64,
    /// The frame's length on the wire.
    pub orig_len: u32,
    /// The captured bytes (`incl_len` of them).
    pub data: Vec<u8>,
}

impl PcapRecord {
    /// A record capturing `data` in full at `ts_ns`.
    pub fn full(ts_ns: u64, data: Vec<u8>) -> Self {
        let orig_len = data.len() as u32;
        Self {
            ts_ns,
            orig_len,
            data,
        }
    }

    /// Whether the capture snaplen cut this frame short of its wire
    /// length — replaying it yields a frame whose headers promise more
    /// bytes than exist, which the classifier rejects as truncated.
    pub fn truncated(&self) -> bool {
        (self.data.len() as u32) < self.orig_len
    }
}

/// How a `PcapWriter` encodes its stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PcapFormat {
    /// Nanosecond (`true`) or microsecond timestamp resolution.
    pub nanos: bool,
    /// Emit all fields byte-swapped relative to the writing host, as a
    /// capture written on a foreign-endian machine would be.
    pub swapped: bool,
    /// Capture snaplen: longer frames are cut to this many bytes with
    /// `orig_len` preserved.
    pub snaplen: u32,
}

impl Default for PcapFormat {
    fn default() -> Self {
        Self {
            nanos: true,
            swapped: false,
            snaplen: DEFAULT_SNAPLEN,
        }
    }
}

fn os_err(op: &'static str, e: &std::io::Error) -> IoError {
    IoError::Os {
        op,
        code: e.raw_os_error().unwrap_or(0),
    }
}

/// Streaming classic-pcap encoder over any [`Write`].
#[derive(Debug)]
pub(crate) struct PcapWriter<W: Write> {
    w: W,
    fmt: PcapFormat,
    wrote_header: bool,
    records: u64,
}

impl<W: Write> PcapWriter<W> {
    /// A writer with the given on-disk format; the global header is
    /// emitted lazily before the first record (or by [`Self::flush`]).
    pub(crate) fn new(w: W, fmt: PcapFormat) -> Self {
        Self {
            w,
            fmt,
            wrote_header: false,
            records: 0,
        }
    }

    fn u32(&self, v: u32) -> [u8; 4] {
        if self.fmt.swapped {
            v.swap_bytes().to_ne_bytes()
        } else {
            v.to_ne_bytes()
        }
    }

    fn header(&mut self) -> Result<(), IoError> {
        if self.wrote_header {
            return Ok(());
        }
        let magic = if self.fmt.nanos { MAGIC_NS } else { MAGIC_US };
        let mut h = Vec::with_capacity(GLOBAL_HEADER_LEN);
        h.extend_from_slice(&self.u32(magic));
        h.extend_from_slice(&self.u16(2)); // version major
        h.extend_from_slice(&self.u16(4)); // version minor
        h.extend_from_slice(&self.u32(0)); // thiszone
        h.extend_from_slice(&self.u32(0)); // sigfigs
        h.extend_from_slice(&self.u32(self.fmt.snaplen));
        h.extend_from_slice(&self.u32(LINKTYPE_ETHERNET));
        self.w.write_all(&h).map_err(|e| os_err("pcap write", &e))?;
        self.wrote_header = true;
        Ok(())
    }

    fn u16(&self, v: u16) -> [u8; 2] {
        if self.fmt.swapped {
            v.swap_bytes().to_ne_bytes()
        } else {
            v.to_ne_bytes()
        }
    }

    /// Append one record; frames longer than the snaplen are cut with
    /// `orig_len` preserved (the capture-truncation path). A wrapper over
    /// the borrowed-bytes writer `PcapEgress` uses.
    fn write_record(&mut self, rec: &PcapRecord) -> Result<(), IoError> {
        self.write_frame(rec.ts_ns, rec.orig_len, &rec.data)
    }

    /// Append one record of borrowed bytes captured at `ts_ns` from a
    /// frame of `orig_len` bytes on the wire, cut to the snaplen. Writes
    /// straight from `data`: the record header is assembled on the stack.
    pub(crate) fn write_frame(
        &mut self,
        ts_ns: u64,
        orig_len: u32,
        data: &[u8],
    ) -> Result<(), IoError> {
        self.header()?;
        let (sec, sub) = if self.fmt.nanos {
            (ts_ns / 1_000_000_000, ts_ns % 1_000_000_000)
        } else {
            (ts_ns / 1_000_000_000, (ts_ns % 1_000_000_000) / 1_000)
        };
        let keep = data.len().min(self.fmt.snaplen as usize);
        let mut h = [0u8; RECORD_HEADER_LEN];
        h[0..4].copy_from_slice(&self.u32(sec as u32));
        h[4..8].copy_from_slice(&self.u32(sub as u32));
        h[8..12].copy_from_slice(&self.u32(keep as u32));
        h[12..16].copy_from_slice(&self.u32(orig_len));
        self.w
            .write_all(&h)
            .and_then(|()| self.w.write_all(&data[..keep]))
            .map_err(|e| os_err("pcap write", &e))?;
        self.records += 1;
        Ok(())
    }

    /// Records written so far.
    pub(crate) fn records(&self) -> u64 {
        self.records
    }

    /// Flush the underlying stream (emitting the global header if no
    /// record ever did, so an empty capture is still a valid file).
    pub(crate) fn flush(&mut self) -> Result<(), IoError> {
        self.header()?;
        self.w.flush().map_err(|e| os_err("pcap flush", &e))
    }

    /// Flush and hand back the underlying writer.
    pub(crate) fn into_inner(mut self) -> Result<W, IoError> {
        self.flush()?;
        Ok(self.w)
    }
}

/// Streaming classic-pcap decoder over any [`Read`]; detects resolution
/// and endianness from the magic.
#[derive(Debug)]
pub struct PcapReader<R: Read> {
    r: R,
    nanos: bool,
    swapped: bool,
    snaplen: u32,
    offset: u64,
}

impl<R: Read> PcapReader<R> {
    /// Parse the global header and return a record iterator-in-spirit.
    pub fn new(mut r: R) -> Result<Self, IoError> {
        let mut h = [0u8; GLOBAL_HEADER_LEN];
        read_exact(&mut r, &mut h, "pcap global header", 0)?;
        let raw_magic = u32::from_ne_bytes(h[0..4].try_into().unwrap());
        let (nanos, swapped) = match raw_magic {
            MAGIC_US => (false, false),
            MAGIC_NS => (true, false),
            m if m == MAGIC_US.swap_bytes() => (false, true),
            m if m == MAGIC_NS.swap_bytes() => (true, true),
            m => {
                return Err(IoError::Format {
                    what: "pcap magic",
                    detail: u64::from(m),
                })
            }
        };
        let u32_at = |i: usize| {
            let v = u32::from_ne_bytes(h[i..i + 4].try_into().unwrap());
            if swapped {
                v.swap_bytes()
            } else {
                v
            }
        };
        let linktype = u32_at(20);
        if linktype != LINKTYPE_ETHERNET {
            return Err(IoError::Format {
                what: "pcap linktype (want Ethernet)",
                detail: u64::from(linktype),
            });
        }
        Ok(Self {
            r,
            nanos,
            swapped,
            snaplen: u32_at(16),
            offset: GLOBAL_HEADER_LEN as u64,
        })
    }

    /// Whether the stream declares nanosecond resolution.
    #[cfg(test)]
    fn nanos(&self) -> bool {
        self.nanos
    }

    /// Whether the stream is foreign-endian relative to this host.
    #[cfg(test)]
    fn swapped(&self) -> bool {
        self.swapped
    }

    /// The next record, or `None` at a clean end of stream. A stream
    /// that ends mid-header or mid-frame is a format error, not EOF. A
    /// wrapper over the in-place reader `PcapIngress` uses, on a fresh
    /// record.
    pub fn next_record(&mut self) -> Result<Option<PcapRecord>, IoError> {
        let mut rec = PcapRecord::full(0, Vec::new());
        Ok(self.read_into(&mut rec)?.then_some(rec))
    }

    /// Read the next record into `rec`, reusing its data buffer: `false`
    /// at a clean end of stream, with `rec` untouched. A stream that ends
    /// mid-header or mid-frame is a format error, not EOF.
    pub(crate) fn read_into(&mut self, rec: &mut PcapRecord) -> Result<bool, IoError> {
        let mut h = [0u8; RECORD_HEADER_LEN];
        match self.r.read(&mut h) {
            Ok(0) => return Ok(false),
            Ok(n) => {
                read_exact(&mut self.r, &mut h[n..], "pcap record header", self.offset)?;
            }
            Err(e) => return Err(os_err("pcap read", &e)),
        }
        let u32_at = |i: usize| {
            let v = u32::from_ne_bytes(h[i..i + 4].try_into().unwrap());
            if self.swapped {
                v.swap_bytes()
            } else {
                v
            }
        };
        let (sec, sub, incl_len, orig_len) = (u32_at(0), u32_at(4), u32_at(8), u32_at(12));
        // An incl_len past the declared snaplen (or our absolute frame
        // bound) is stream corruption — reading it would misalign every
        // later record.
        let bound = self.snaplen.max(DEFAULT_SNAPLEN);
        if incl_len > bound {
            return Err(IoError::Format {
                what: "pcap record incl_len",
                detail: u64::from(incl_len),
            });
        }
        // Straight into the buffer's spare capacity: no zero-fill first.
        rec.data.clear();
        rec.data.reserve(incl_len as usize);
        let read = (&mut self.r)
            .take(u64::from(incl_len))
            .read_to_end(&mut rec.data)
            .map_err(|e| os_err("pcap read", &e))?;
        if read < incl_len as usize {
            return Err(IoError::Format {
                what: "pcap record data",
                detail: self.offset,
            });
        }
        self.offset += (RECORD_HEADER_LEN + incl_len as usize) as u64;
        let sub = u64::from(sub);
        rec.ts_ns = u64::from(sec) * 1_000_000_000 + if self.nanos { sub } else { sub * 1_000 };
        rec.orig_len = orig_len;
        Ok(true)
    }

    /// Drain the remaining records.
    pub fn collect_records(&mut self) -> Result<Vec<PcapRecord>, IoError> {
        let mut out = Vec::new();
        while let Some(rec) = self.next_record()? {
            out.push(rec);
        }
        Ok(out)
    }
}

fn read_exact<R: Read>(
    r: &mut R,
    buf: &mut [u8],
    what: &'static str,
    offset: u64,
) -> Result<(), IoError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(IoError::Format {
                    what,
                    detail: offset,
                })
            }
            Ok(n) => filled += n,
            Err(e) => return Err(os_err("pcap read", &e)),
        }
    }
    Ok(())
}

/// Encode `records` into one in-memory pcap byte stream.
pub fn write_pcap_bytes(records: &[PcapRecord], fmt: PcapFormat) -> Vec<u8> {
    let mut w = PcapWriter::new(Vec::new(), fmt);
    for rec in records {
        w.write_record(rec).expect("Vec<u8> writes are infallible");
    }
    w.into_inner().expect("Vec<u8> flush is infallible")
}

/// Decode every record of an in-memory pcap byte stream.
pub fn read_pcap_bytes(bytes: &[u8]) -> Result<Vec<PcapRecord>, IoError> {
    PcapReader::new(bytes)?.collect_records()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<PcapRecord> {
        vec![
            PcapRecord::full(1_000_000_123, vec![0xAA; 60]),
            PcapRecord::full(1_000_500_456, Vec::new()),
            PcapRecord {
                ts_ns: 2_000_000_789,
                orig_len: 1500,
                data: vec![0x55; 96],
            },
        ]
    }

    #[test]
    fn round_trips_all_four_magics() {
        for nanos in [false, true] {
            for swapped in [false, true] {
                let fmt = PcapFormat {
                    nanos,
                    swapped,
                    ..PcapFormat::default()
                };
                let bytes = write_pcap_bytes(&sample(), fmt);
                let mut r = PcapReader::new(&bytes[..]).unwrap();
                assert_eq!(r.nanos(), nanos);
                assert_eq!(r.swapped(), swapped);
                let got = r.collect_records().unwrap();
                let mut want = sample();
                if !nanos {
                    // Microsecond files quantize the sub-second part.
                    for rec in &mut want {
                        rec.ts_ns = (rec.ts_ns / 1_000) * 1_000;
                    }
                }
                assert_eq!(got, want, "nanos={nanos} swapped={swapped}");
            }
        }
    }

    #[test]
    fn snaplen_cuts_frames_and_flags_truncation() {
        let fmt = PcapFormat {
            snaplen: 40,
            ..PcapFormat::default()
        };
        let bytes = write_pcap_bytes(&[PcapRecord::full(5, vec![7u8; 100])], fmt);
        let got = read_pcap_bytes(&bytes).unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].data.len(), 40);
        assert_eq!(got[0].orig_len, 100);
        assert!(got[0].truncated());
        // A full record under the snaplen is not truncated.
        let ok = read_pcap_bytes(&write_pcap_bytes(
            &[PcapRecord::full(5, vec![7u8; 30])],
            fmt,
        ))
        .unwrap();
        assert!(!ok[0].truncated());
    }

    #[test]
    fn empty_capture_is_a_valid_file() {
        let bytes = write_pcap_bytes(&[], PcapFormat::default());
        assert_eq!(bytes.len(), 24);
        assert!(read_pcap_bytes(&bytes).unwrap().is_empty());
    }

    #[test]
    fn bad_magic_and_foreign_linktype_are_rejected() {
        let mut bytes = write_pcap_bytes(&[], PcapFormat::default());
        bytes[0..4].copy_from_slice(&0xDEAD_BEEFu32.to_ne_bytes());
        assert!(matches!(
            PcapReader::new(&bytes[..]).unwrap_err(),
            IoError::Format {
                what: "pcap magic",
                ..
            }
        ));
        let mut bytes = write_pcap_bytes(&[], PcapFormat::default());
        bytes[20..24].copy_from_slice(&101u32.to_ne_bytes()); // raw IP
        assert!(matches!(
            PcapReader::new(&bytes[..]).unwrap_err(),
            IoError::Format {
                what: "pcap linktype (want Ethernet)",
                ..
            }
        ));
    }

    #[test]
    fn stream_cut_mid_record_is_a_format_error_not_a_panic() {
        let bytes = write_pcap_bytes(&sample(), PcapFormat::default());
        // Cut inside the first record's data.
        let cut = &bytes[..24 + 16 + 10];
        let mut r = PcapReader::new(cut).unwrap();
        assert!(matches!(
            r.next_record().unwrap_err(),
            IoError::Format {
                what: "pcap record data",
                ..
            }
        ));
        // Cut inside a record header.
        let cut = &bytes[..24 + 7];
        let mut r = PcapReader::new(cut).unwrap();
        assert!(matches!(
            r.next_record().unwrap_err(),
            IoError::Format {
                what: "pcap record header",
                ..
            }
        ));
        // Cut inside the global header.
        assert!(PcapReader::new(&bytes[..10]).is_err());
    }

    #[test]
    fn insane_incl_len_is_rejected_without_allocation() {
        let mut bytes = write_pcap_bytes(&[PcapRecord::full(1, vec![0; 8])], PcapFormat::default());
        bytes[24 + 8..24 + 12].copy_from_slice(&u32::MAX.to_ne_bytes());
        let mut r = PcapReader::new(&bytes[..]).unwrap();
        assert!(matches!(
            r.next_record().unwrap_err(),
            IoError::Format {
                what: "pcap record incl_len",
                ..
            }
        ));
    }
}
