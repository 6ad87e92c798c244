//! Cache-filtered DRAM access traces.
//!
//! The paper's Figure 7 design-space exploration feeds *cache-filtered,
//! time-stamped DRAM address traces* (collected with Pin + Ramulator) into a
//! standalone tracker simulator. [`TraceCapture`] is the equivalent here: a
//! [`CxlDevice`] that records every CXL DRAM access it snoops, and a compact
//! binary encode/decode path for storing traces.

use crate::addr::CacheLineAddr;
use crate::controller::CxlDevice;
use crate::time::Nanos;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::any::Any;

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

/// Encodes a trace into a compact binary buffer (16 bytes per record:
/// 8-byte line address with the write bit folded into bit 63, 8-byte
/// timestamp).
pub fn encode(records: &[TraceRecord]) -> Bytes {
    let mut buf = BytesMut::with_capacity(records.len() * 16);
    for r in records {
        let mut word = r.line.0;
        debug_assert!(word < 1 << 63, "line address overflows encoding");
        if r.is_write {
            word |= 1 << 63;
        }
        buf.put_u64_le(word);
        buf.put_u64_le(r.ts.0);
    }
    buf.freeze()
}

/// Error produced when decoding a malformed trace buffer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DecodeTraceError {
    /// Length of the malformed buffer.
    pub len: usize,
}

impl std::fmt::Display for DecodeTraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "trace buffer length {} is not a multiple of 16",
            self.len
        )
    }
}

impl std::error::Error for DecodeTraceError {}

/// Decodes a buffer produced by [`encode`].
///
/// # Errors
///
/// Returns [`DecodeTraceError`] if the buffer length is not a multiple of
/// the record size.
pub fn decode(mut buf: Bytes) -> Result<Vec<TraceRecord>, DecodeTraceError> {
    if !buf.len().is_multiple_of(16) {
        return Err(DecodeTraceError { len: buf.len() });
    }
    let mut out = Vec::with_capacity(buf.len() / 16);
    while buf.has_remaining() {
        let word = buf.get_u64_le();
        let ts = buf.get_u64_le();
        out.push(TraceRecord {
            line: CacheLineAddr(word & !(1 << 63)),
            is_write: word >> 63 == 1,
            ts: Nanos(ts),
        });
    }
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
        assert_eq!(buf.len(), 32);
        let back = decode(buf).unwrap();
        assert_eq!(back, recs);
    }

    #[test]
    fn decode_rejects_truncated_buffers() {
        let buf = Bytes::from_static(&[0u8; 15]);
        let err = decode(buf).unwrap_err();
        assert_eq!(err.len, 15);
        assert!(err.to_string().contains("multiple of 16"));
    }
}
