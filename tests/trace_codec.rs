//! Adversarial tests of the trace file format, through the `m5` facade.
//!
//! A trace file is a checkpoint frame with a single `"trace"` section, so
//! every corruption a file can suffer — truncation anywhere, any single
//! flipped bit, a record count that lies — must decode to an error and
//! never to a silently different trace.

use m5::sim::checkpoint::{Checkpoint, RestoreError, StateWriter};
use m5::sim::prelude::*;
use m5::sim::system::NoMigration;
use m5::sim::trace::{decode, encode, TraceCapture, TraceRecord};
use m5::workloads::registry::Benchmark;

/// Offset and length of the section name in an encoded trace: after the
/// 16 B frame header (magic, version, section count) and the 4 B name
/// length.
const NAME: std::ops::Range<usize> = 20..25;

/// The first `limit` cache-filtered DRAM accesses of a short mcf run.
fn capture(limit: usize) -> Vec<TraceRecord> {
    let spec = Benchmark::Mcf.spec();
    let mut sys = System::new(
        SystemConfig::scaled_default()
            .with_cxl_frames(spec.footprint_pages + 1024)
            .with_ddr_frames(16),
    );
    let region = sys
        .alloc_region(spec.footprint_pages, Placement::AllOnCxl)
        .unwrap();
    let handle = sys.attach_device(TraceCapture::with_limit(limit));
    let mut wl = spec.build(region.base, 400_000, 3);
    let _ = m5::sim::system::run(&mut sys, &mut wl, &mut NoMigration, u64::MAX);
    let records = sys
        .device::<TraceCapture>(handle)
        .expect("capture attached")
        .records()
        .to_vec();
    assert_eq!(records.len(), limit, "the run must fill the capture");
    records
}

#[test]
fn captured_trace_round_trips() {
    let records = capture(40_000);
    assert!(records.iter().any(|r| r.is_write), "no writebacks captured");
    assert!(records.iter().any(|r| !r.is_write), "no fills captured");
    assert_eq!(decode(&encode(&records)).unwrap(), records);
    assert_eq!(decode(&encode(&[])).unwrap(), Vec::new());
}

#[test]
fn every_truncation_is_rejected() {
    let buf = encode(&capture(4));
    for len in 0..buf.len() {
        assert!(
            decode(&buf[..len]).is_err(),
            "truncation to {len} B decoded"
        );
    }
}

#[test]
fn every_bit_flip_is_rejected() {
    let buf = encode(&capture(4));
    assert_eq!(&buf[NAME], b"trace");
    for byte in 0..buf.len() {
        for bit in 0..8 {
            let mut bad = buf.clone();
            bad[byte] ^= 1 << bit;
            let err = decode(&bad).expect_err("bit flip decoded");
            // A flip in the name leaves a well-formed frame under another
            // name, unless it sets an ASCII byte's high bit, which is not
            // UTF-8 and fails framing.
            if NAME.contains(&byte) && bit < 7 {
                assert!(
                    matches!(err, RestoreError::MissingSection { section: "trace" }),
                    "flip of byte {byte} bit {bit}: {err}"
                );
            }
        }
    }
}

#[test]
fn lying_record_counts_are_rejected() {
    let frame = |count: u64| {
        let mut w = StateWriter::new();
        w.put_u64(count);
        for i in 0..2u64 {
            w.put_u64(0x1000 + i);
            w.put_u64(100 * i);
        }
        let mut ckpt = Checkpoint::new();
        ckpt.add_section("trace", w.finish());
        ckpt.encode()
    };
    assert_eq!(decode(&frame(2)).unwrap().len(), 2);
    // Too many records: the checksum holds, so only the payload decode
    // can catch it, and it must do so without reserving `u64::MAX` slots.
    for count in [3, u64::MAX] {
        assert!(matches!(
            decode(&frame(count)),
            Err(RestoreError::Corrupt {
                section: "trace",
                ..
            })
        ));
    }
    // Too few: the leftover record is trailing bytes, not slack.
    assert!(matches!(
        decode(&frame(1)),
        Err(RestoreError::Corrupt {
            section: "trace",
            ..
        })
    ));
}
