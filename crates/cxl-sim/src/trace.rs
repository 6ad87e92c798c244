//! Cache-filtered DRAM access traces.
//!
//! The paper's Figure 7 design-space exploration feeds *cache-filtered,
//! time-stamped DRAM address traces* (collected with Pin + Ramulator) into a
//! standalone tracker simulator. [`TraceCapture`] is the equivalent here: a
//! [`CxlDevice`] that records every CXL DRAM access it snoops, and an
//! encode/decode path for storing traces.
//!
//! A trace file is a checkpoint frame ([`crate::checkpoint`]) with a single
//! `"trace"` section, so it carries the same magic, version, FNV-1a
//! checksum and end marker as a checkpoint image, and a corrupt or
//! truncated file fails with the same typed [`RestoreError`].

use crate::addr::CacheLineAddr;
use crate::checkpoint::{section_err, Checkpoint, RestoreError, StateReader, StateWriter};
use crate::controller::CxlDevice;
use crate::time::Nanos;
use std::any::Any;

/// Name of the single checkpoint section a trace file holds.
const SECTION: &str = "trace";

/// One recorded DRAM access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceRecord {
    /// The cache-line address (`PA[47:6]`).
    pub line: CacheLineAddr,
    /// Whether this was a writeback (true) or a miss-fill read (false).
    pub is_write: bool,
    /// Simulated timestamp.
    pub ts: Nanos,
}

/// A snoop device that appends every observed access to a trace.
#[derive(Clone, Debug, Default)]
pub struct TraceCapture {
    records: Vec<TraceRecord>,
    limit: Option<usize>,
}

impl TraceCapture {
    /// An unbounded capture.
    pub fn new() -> TraceCapture {
        TraceCapture::default()
    }

    /// A capture that stops recording after `limit` accesses (the trace
    /// stays valid; later accesses are dropped). Storage is reserved up
    /// front so the capped capture never reallocates mid-run.
    pub fn with_limit(limit: usize) -> TraceCapture {
        TraceCapture {
            records: Vec::with_capacity(limit.min(1 << 24)),
            limit: Some(limit),
        }
    }

    /// The recorded accesses, in arrival order.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Consumes the capture, returning the trace.
    pub fn into_records(self) -> Vec<TraceRecord> {
        self.records
    }

    /// Number of records captured.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether nothing has been captured.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

impl CxlDevice for TraceCapture {
    fn name(&self) -> &str {
        "trace-capture"
    }

    fn on_access(&mut self, line: CacheLineAddr, is_write: bool, now: Nanos) {
        if let Some(limit) = self.limit {
            if self.records.len() >= limit {
                return;
            }
        }
        self.records.push(TraceRecord {
            line,
            is_write,
            ts: now,
        });
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Encodes a trace as a checkpoint frame ([`Checkpoint`]) holding one
/// `"trace"` section: a `u64` record count, then per record the line
/// address with the write bit folded into bit 63, and the timestamp.
pub fn encode(records: &[TraceRecord]) -> Vec<u8> {
    let mut w = StateWriter::new();
    w.put_usize(records.len());
    for r in records {
        debug_assert!(r.line.0 < 1 << 63, "line address overflows encoding");
        w.put_u64(r.line.0 | (r.is_write as u64) << 63);
        w.put_u64(r.ts.0);
    }
    let mut ckpt = Checkpoint::new();
    ckpt.add_section(SECTION, w.finish());
    ckpt.encode()
}

/// Decodes a buffer produced by [`encode`].
///
/// # Errors
///
/// Any framing or checksum defect returns the [`Checkpoint::decode`]
/// error; a frame without a `"trace"` section returns
/// [`RestoreError::MissingSection`]; a payload whose record count does not
/// match its length returns [`RestoreError::Corrupt`].
pub fn decode(bytes: &[u8]) -> Result<Vec<TraceRecord>, RestoreError> {
    let ckpt = Checkpoint::decode(bytes)?;
    let mut r = StateReader::new(ckpt.require(SECTION)?);
    let corrupt = section_err(SECTION);
    let n = r.get_usize().map_err(&corrupt)?;
    let mut out = Vec::with_capacity(n.min(r.remaining() / 16));
    for _ in 0..n {
        let word = r.get_u64().map_err(&corrupt)?;
        let ts = r.get_u64().map_err(&corrupt)?;
        out.push(TraceRecord {
            line: CacheLineAddr(word & !(1 << 63)),
            is_write: word >> 63 == 1,
            ts: Nanos(ts),
        });
    }
    r.expect_end().map_err(corrupt)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<TraceRecord> {
        vec![
            TraceRecord {
                line: CacheLineAddr(0xdead),
                is_write: false,
                ts: Nanos(100),
            },
            TraceRecord {
                line: CacheLineAddr(0xbeef),
                is_write: true,
                ts: Nanos(370),
            },
        ]
    }

    #[test]
    fn capture_records_in_order() {
        let mut cap = TraceCapture::new();
        for r in sample() {
            cap.on_access(r.line, r.is_write, r.ts);
        }
        assert_eq!(cap.records(), sample().as_slice());
        assert_eq!(cap.len(), 2);
    }

    #[test]
    fn capture_limit_is_enforced() {
        let mut cap = TraceCapture::with_limit(1);
        for r in sample() {
            cap.on_access(r.line, r.is_write, r.ts);
        }
        assert_eq!(cap.len(), 1);
        assert!(!cap.is_empty());
    }

    #[test]
    fn encode_decode_roundtrip() {
        let recs = sample();
        let buf = encode(&recs);
        // 16 B frame header + 25 B section header ("trace") + 8 B count +
        // 16 B per record + 8 B end marker.
        assert_eq!(buf.len(), 16 + 25 + 8 + 32 + 8);
        let back = decode(&buf).unwrap();
        assert_eq!(back, recs);
    }
}
