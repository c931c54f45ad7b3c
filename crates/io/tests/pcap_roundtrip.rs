//! Property tests for the hand-written classic-pcap codec and the
//! capture-truncation admission path.
//!
//! * Arbitrary record sets — zero-length frames, snaplen-cut captures,
//!   arbitrary bytes, every header format (µs/ns × native/swapped) —
//!   survive write→read with byte-for-byte record fidelity, and the
//!   `incl_len < orig_len` truncation flag is preserved exactly.
//! * Snaplen-cut captures of real TCP frames replayed through a live
//!   classifier ([`SyncEngine::process`]) are rejected as
//!   [`AdmitError::Truncated`] whenever the cut lands inside the
//!   Ethernet/IPv4/TCP header budget — and *never* panic wherever it
//!   lands.

use nfp_dataplane::classifier::AdmitError;
use nfp_dataplane::sync_engine::{ProcessOutcome, SyncEngine};
use nfp_io::backends::PcapIngress;
use nfp_io::pcap::{read_pcap_bytes, write_pcap_bytes, PcapFormat, PcapRecord};
use nfp_io::{DropCause, Ingress};
use nfp_nf::monitor::Monitor;
use nfp_nf::NetworkFunction;
use nfp_orchestrator::{compile, CompileOptions, Registry};
use nfp_packet::ipv4::Ipv4Addr;
use nfp_packet::testutil::{indexed_payload, tcp_frame_bytes};
use nfp_policy::Policy;
use proptest::collection::vec;
use proptest::prelude::*;

/// Ethernet (14) + minimal IPv4 (20) + minimal TCP (20): any capture cut
/// strictly below this budget must admit as `Truncated`.
const HEADER_BUDGET: usize = 54;

fn sync_engine() -> SyncEngine {
    let compiled = compile(
        &Policy::from_chain(["Monitor"]),
        &Registry::paper_table2(),
        &[],
        &CompileOptions::default(),
    )
    .unwrap();
    let nfs: Vec<Box<dyn NetworkFunction>> = vec![Box::new(Monitor::new("Monitor"))];
    SyncEngine::new(compiled.program(1).unwrap(), nfs, 16)
}

fn full_frame(payload_len: usize, index: u64) -> Vec<u8> {
    tcp_frame_bytes(
        Ipv4Addr::new(10, 0, 0, 1),
        Ipv4Addr::new(10, 9, 0, 2),
        4321,
        443,
        &indexed_payload(payload_len, index),
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 192 })]

    /// Write→read is lossless for every record the writer can produce.
    #[test]
    fn arbitrary_records_round_trip_byte_for_byte(
        datas in vec(vec(any::<u8>(), 0..300usize), 0..10usize),
        extras in vec(0u32..64, 10),
        // Bounded so whole seconds fit the header's u32 (pcap's own
        // 2106 limit), exercising multi-second timestamps regardless.
        stamps in vec(0u64..4_000_000_000_000_000_000, 10),
        nanos in any::<bool>(),
        swapped in any::<bool>(),
        snaplen in 40u32..2048,
    ) {
        let fmt = PcapFormat { nanos, swapped, snaplen };
        let records: Vec<PcapRecord> = datas
            .iter()
            .zip(&extras)
            .zip(&stamps)
            .map(|((data, extra), ts)| PcapRecord {
                ts_ns: *ts,
                // `orig_len ≥ incl_len`: `extra > 0` models a capture
                // that was already snaplen-cut upstream.
                orig_len: data.len() as u32 + extra,
                data: data.clone(),
            })
            .collect();
        let bytes = write_pcap_bytes(&records, fmt);
        let got = read_pcap_bytes(&bytes).unwrap();

        // What the writer commits to disk: frames cut to the snaplen
        // (orig_len untouched), timestamps at the format's resolution.
        let expected: Vec<PcapRecord> = records
            .iter()
            .map(|r| PcapRecord {
                ts_ns: if nanos { r.ts_ns } else { r.ts_ns - r.ts_ns % 1_000 },
                orig_len: r.orig_len,
                data: r.data[..r.data.len().min(snaplen as usize)].to_vec(),
            })
            .collect();
        prop_assert_eq!(&got, &expected);
        for (g, r) in got.iter().zip(&records) {
            prop_assert_eq!(
                g.truncated(),
                r.orig_len as usize > g.data.len(),
                "truncation flag must mirror incl_len < orig_len"
            );
        }

        // A second pass through the codec is exactly stable.
        prop_assert_eq!(write_pcap_bytes(&got, fmt), bytes);
    }

    /// Header-budget cuts are `AdmitError::Truncated`; every other cut
    /// admits or rejects cleanly. Nothing panics, everything accounts.
    #[test]
    fn snaplen_cut_records_admit_as_truncated_never_panic(
        payload_len in 0usize..160,
        cut_frac in 0.0f64..1.0,
        index in any::<u64>(),
    ) {
        let frame = full_frame(payload_len, index);
        let cut = ((frame.len() as f64 * cut_frac) as usize).min(frame.len() - 1);
        let rec = PcapRecord {
            ts_ns: 1_000,
            orig_len: frame.len() as u32,
            data: frame[..cut].to_vec(),
        };
        prop_assert!(rec.truncated());

        // Through the codec and the replay ingress: the cut bytes come
        // back verbatim and the record stays flagged.
        let bytes = write_pcap_bytes(&[rec], PcapFormat::default());
        let mut ingress = PcapIngress::from_bytes(bytes).unwrap();
        let burst = ingress.next_burst(4).unwrap().unwrap();
        prop_assert_eq!(burst.len(), 1);
        prop_assert_eq!(burst[0].data(), &frame[..cut]);

        // Through a live classifier: below the header budget the cut is
        // a deterministic `Truncated` reject; anywhere else it must
        // resolve without panicking and account as exactly one packet.
        let mut engine = sync_engine();
        let outcome = engine.process(burst[0].clone());
        match outcome {
            Err(AdmitError::Truncated) => {}
            Err(other) => prop_assert!(
                cut >= HEADER_BUDGET,
                "header-budget cut at {cut} must be Truncated, got {other:?}"
            ),
            Ok(ProcessOutcome::Delivered(out)) => {
                prop_assert!(cut >= HEADER_BUDGET);
                prop_assert_eq!(out.data().len(), cut);
                // The dataplane re-finalizes the L4 checksum over what it
                // actually carried (bytes 50..52 of this minimal frame);
                // every other byte must come through verbatim.
                prop_assert_eq!(&out.data()[..50], &frame[..50]);
                prop_assert_eq!(&out.data()[52..], &frame[52..cut]);
            }
            Ok(ProcessOutcome::Dropped) => prop_assert!(cut >= HEADER_BUDGET),
        }
        if cut < HEADER_BUDGET {
            let malformed = engine.record().causes[DropCause::AdmitMalformed as usize];
            prop_assert_eq!(malformed, 1);
        }
        prop_assert_eq!(engine.pool_in_use(), 0, "no leaked references");
    }

    /// Mid-record file cuts (a capture whose tail was lost) surface as a
    /// clean `Format` error from the reader — records before the cut are
    /// still recovered, and nothing panics.
    #[test]
    fn mid_record_file_cuts_error_cleanly(
        n in 1usize..6,
        chop in 1usize..40,
    ) {
        let records: Vec<PcapRecord> = (0..n)
            .map(|i| PcapRecord::full(i as u64 * 1_000, full_frame(24, i as u64)))
            .collect();
        let full = write_pcap_bytes(&records, PcapFormat::default());
        let cut = full.len() - chop.min(full.len() - 25);
        let mut rd = nfp_io::PcapReader::new(std::io::Cursor::new(full[..cut].to_vec())).unwrap();
        let mut recovered = 0usize;
        let err = loop {
            match rd.next_record() {
                Ok(Some(rec)) => {
                    prop_assert_eq!(&rec, &records[recovered]);
                    recovered += 1;
                }
                Ok(None) => break None,
                Err(e) => break Some(e),
            }
        };
        prop_assert!(recovered < n, "a chopped file cannot yield every record");
        prop_assert!(err.is_some(), "a mid-record cut is an error, not EOF");
    }
}
