//! Crash-consistent checkpoint/restore for the simulated stack.
//!
//! A [`Checkpoint`] is an ordered list of named, checksummed sections, each
//! holding the hand-serialized state of one component ([`StateWriter`] /
//! [`StateReader`] are the codec). The on-disk manifest is versioned and
//! framed so every corruption mode is *detected*, never silently accepted:
//!
//! ```text
//! MAGIC(8) VERSION(u32) NSECTIONS(u32)
//!   [ name-len(u32) name payload-len(u64) fnv64(u64) payload ]*
//! END-MARKER(u64)
//! ```
//!
//! * a wrong magic or version fails with [`RestoreError::BadMagic`] /
//!   [`RestoreError::VersionSkew`],
//! * a bit-flip inside a payload fails that section's FNV-1a checksum,
//! * a truncation mid-payload fails with [`RestoreError::Truncated`], and a
//!   truncation at an exact section boundary is caught by the end marker.
//!
//! Commits are two-phase: the full image is written to `<path>.tmp`, the
//! previous checkpoint (if any) is renamed to `<path>.prev`, and only then
//! is the tmp file renamed into place. A crash at any point leaves either
//! the old or the new image loadable; [`Checkpoint::load`] transparently
//! falls back to `<path>.prev` when the primary is missing or torn.
//! [`Checkpoint::commit_torn`] simulates exactly such crashes (including
//! rename/data reordering, where torn bytes land under the final name) so
//! the fallback path is testable deterministically.

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Manifest magic: identifies a cxl-sim checkpoint file.
pub const MAGIC: [u8; 8] = *b"M5CKPT01";

/// Current manifest version. Bump on any incompatible layout change.
pub const VERSION: u32 = 10;

/// Terminator written after the last section; catches truncation at an
/// exact section boundary (which no per-section checksum would see).
const END_MARKER: u64 = 0x4d35_454e_444d_4152; // "M5ENDMAR"

/// 64-bit FNV-1a over `bytes` — the per-section integrity checksum.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// A decoding failure inside one section's payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// The payload ended before the value being read.
    Truncated {
        /// Bytes the read needed.
        need: usize,
        /// Bytes that were left.
        have: usize,
    },
    /// A tag or flag byte held a value outside its domain.
    BadValue {
        /// What was being decoded.
        what: &'static str,
        /// The offending raw value.
        value: u64,
    },
    /// The payload had bytes left after the last expected field.
    Trailing {
        /// How many bytes were left over.
        bytes: usize,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated { need, have } => {
                write!(f, "payload truncated: needed {need} bytes, had {have}")
            }
            CodecError::BadValue { what, value } => {
                write!(f, "bad {what} value {value}")
            }
            CodecError::Trailing { bytes } => {
                write!(f, "{bytes} trailing bytes after last field")
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// A failure while writing or committing a checkpoint.
#[derive(Debug)]
pub enum CheckpointError {
    /// A filesystem operation failed.
    Io {
        /// What the operation was doing.
        context: String,
        /// The underlying error.
        source: io::Error,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io { context, source } => {
                write!(f, "checkpoint io failure while {context}: {source}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

/// A failure while loading or applying a checkpoint.
#[derive(Debug)]
pub enum RestoreError {
    /// Reading the file failed.
    Io(io::Error),
    /// The file does not start with the checkpoint magic.
    BadMagic,
    /// The file was written by an incompatible manifest version.
    VersionSkew {
        /// Version found in the file.
        found: u32,
        /// Version this build understands.
        expected: u32,
    },
    /// The file ended before the structure it was framing.
    Truncated {
        /// Which frame field was being read.
        context: &'static str,
    },
    /// A section's payload does not match its recorded checksum.
    ChecksumMismatch {
        /// Name of the corrupt section.
        section: String,
    },
    /// The end marker after the last section is missing or wrong.
    MissingEndMarker,
    /// A section the restore path requires is absent.
    MissingSection {
        /// Name of the missing section.
        section: &'static str,
    },
    /// The checkpoint was taken under a different system configuration.
    ConfigMismatch,
    /// A section's payload failed to decode field-by-field.
    Corrupt {
        /// Name of the corrupt section.
        section: &'static str,
        /// The codec-level cause.
        source: CodecError,
    },
    /// Neither the primary checkpoint nor its `.prev` fallback loaded.
    NoValidCheckpoint {
        /// Why the primary failed.
        primary: String,
        /// Why the fallback failed.
        fallback: String,
    },
}

impl fmt::Display for RestoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RestoreError::Io(e) => write!(f, "checkpoint read failed: {e}"),
            RestoreError::BadMagic => f.write_str("not a cxl-sim checkpoint (bad magic)"),
            RestoreError::VersionSkew { found, expected } => {
                write!(f, "checkpoint version {found} incompatible with {expected}")
            }
            RestoreError::Truncated { context } => {
                write!(f, "checkpoint truncated while reading {context}")
            }
            RestoreError::ChecksumMismatch { section } => {
                write!(f, "section '{section}' failed its checksum")
            }
            RestoreError::MissingEndMarker => f.write_str("end marker missing or corrupt"),
            RestoreError::MissingSection { section } => {
                write!(f, "required section '{section}' missing")
            }
            RestoreError::ConfigMismatch => {
                f.write_str("checkpoint was taken under a different system configuration")
            }
            RestoreError::Corrupt { section, source } => {
                write!(f, "section '{section}' corrupt: {source}")
            }
            RestoreError::NoValidCheckpoint { primary, fallback } => {
                write!(
                    f,
                    "no valid checkpoint: primary: {primary}; fallback: {fallback}"
                )
            }
        }
    }
}

impl std::error::Error for RestoreError {}

impl From<CodecError> for RestoreError {
    fn from(e: CodecError) -> RestoreError {
        RestoreError::Corrupt {
            section: "<unknown>",
            source: e,
        }
    }
}

/// Tags a [`CodecError`] with the section being decoded — use as
/// `reader_work().map_err(section_err("llc"))`.
pub fn section_err(section: &'static str) -> impl Fn(CodecError) -> RestoreError {
    move |source| RestoreError::Corrupt { section, source }
}

/// Little-endian binary encoder for component state.
#[derive(Clone, Debug, Default)]
pub struct StateWriter {
    buf: Vec<u8>,
}

impl StateWriter {
    /// An empty writer.
    pub fn new() -> StateWriter {
        StateWriter::default()
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a bool as a 0/1 byte.
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Appends a little-endian u32.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian u64.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian u128.
    pub fn put_u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an f64 bit pattern (exact, no rounding).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a usize widened to u64.
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Appends a length-prefixed u64 slice.
    pub fn put_u64_slice(&mut self, s: &[u64]) {
        self.put_u64(s.len() as u64);
        for &v in s {
            self.put_u64(v);
        }
    }

    /// Appends a length-prefixed u32 slice.
    pub fn put_u32_slice(&mut self, s: &[u32]) {
        self.put_u64(s.len() as u64);
        for &v in s {
            self.put_u32(v);
        }
    }

    /// The encoded bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Little-endian binary decoder, the mirror of [`StateWriter`].
#[derive(Clone, Debug)]
pub struct StateReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> StateReader<'a> {
    /// A reader over `buf`.
    pub fn new(buf: &'a [u8]) -> StateReader<'a> {
        StateReader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let have = self.buf.len() - self.pos;
        if have < n {
            return Err(CodecError::Truncated { need: n, have });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a 0/1 byte as a bool.
    pub fn get_bool(&mut self) -> Result<bool, CodecError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(CodecError::BadValue {
                what: "bool",
                value: v as u64,
            }),
        }
    }

    /// Reads a little-endian u32.
    pub fn get_u32(&mut self) -> Result<u32, CodecError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian u64.
    pub fn get_u64(&mut self) -> Result<u64, CodecError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads a little-endian u128.
    pub fn get_u128(&mut self) -> Result<u128, CodecError> {
        let b = self.take(16)?;
        let mut a = [0u8; 16];
        a.copy_from_slice(b);
        Ok(u128::from_le_bytes(a))
    }

    /// Reads an f64 bit pattern.
    pub fn get_f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads a u64 narrowed to usize.
    pub fn get_usize(&mut self) -> Result<usize, CodecError> {
        Ok(self.get_u64()? as usize)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String, CodecError> {
        let n = self.get_u32()? as usize;
        let b = self.take(n)?;
        String::from_utf8(b.to_vec()).map_err(|_| CodecError::BadValue {
            what: "utf-8 string",
            value: n as u64,
        })
    }

    /// Reads a length-prefixed u64 vector.
    pub fn get_u64_vec(&mut self) -> Result<Vec<u64>, CodecError> {
        let n = self.get_u64()? as usize;
        let mut v = Vec::with_capacity(n.min(self.buf.len() - self.pos));
        for _ in 0..n {
            v.push(self.get_u64()?);
        }
        Ok(v)
    }

    /// Reads a length-prefixed u32 vector.
    pub fn get_u32_vec(&mut self) -> Result<Vec<u32>, CodecError> {
        let n = self.get_u64()? as usize;
        let mut v = Vec::with_capacity(n.min(self.buf.len() - self.pos));
        for _ in 0..n {
            v.push(self.get_u32()?);
        }
        Ok(v)
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fails unless every byte was consumed.
    pub fn expect_end(&self) -> Result<(), CodecError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(CodecError::Trailing {
                bytes: self.buf.len() - self.pos,
            })
        }
    }
}

/// The result of [`Checkpoint::load`]: the image that loaded, and whether
/// the primary was torn and the `.prev` fallback served instead.
#[derive(Debug)]
pub struct LoadedCheckpoint {
    /// The decoded checkpoint.
    pub checkpoint: Checkpoint,
    /// `true` if the primary failed validation and `.prev` was used.
    pub fell_back: bool,
    /// Why the primary failed, when `fell_back` is set.
    pub primary_error: Option<RestoreError>,
}

/// A versioned, checksummed set of named state sections.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Checkpoint {
    sections: Vec<(String, Vec<u8>)>,
}

impl Checkpoint {
    /// An empty checkpoint.
    pub fn new() -> Checkpoint {
        Checkpoint::default()
    }

    /// Appends a named section. Section order is stable and indexable
    /// (torn-write injection addresses sections by position).
    pub fn add_section(&mut self, name: &str, payload: Vec<u8>) {
        debug_assert!(
            self.section(name).is_none(),
            "duplicate checkpoint section '{name}'"
        );
        self.sections.push((name.to_string(), payload));
    }

    /// The payload of section `name`, if present.
    pub fn section(&self, name: &str) -> Option<&[u8]> {
        self.sections
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, p)| p.as_slice())
    }

    /// The payload of section `name`, or a typed missing-section error.
    pub fn require(&self, name: &'static str) -> Result<&[u8], RestoreError> {
        self.section(name)
            .ok_or(RestoreError::MissingSection { section: name })
    }

    /// Section names in manifest order.
    pub fn section_names(&self) -> Vec<&str> {
        self.sections.iter().map(|(n, _)| n.as_str()).collect()
    }

    /// Number of sections.
    pub fn section_count(&self) -> usize {
        self.sections.len()
    }

    /// Serializes the full manifest.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&(self.sections.len() as u32).to_le_bytes());
        for (name, payload) in &self.sections {
            Self::encode_section(&mut out, name, payload, payload.len());
        }
        out.extend_from_slice(&END_MARKER.to_le_bytes());
        out
    }

    fn encode_section(out: &mut Vec<u8>, name: &str, payload: &[u8], keep: usize) {
        out.extend_from_slice(&(name.len() as u32).to_le_bytes());
        out.extend_from_slice(name.as_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&fnv64(payload).to_le_bytes());
        out.extend_from_slice(&payload[..keep]);
    }

    /// Serializes a manifest torn mid-way through section `at` (full frame
    /// header, half the payload, nothing after) — the image a crash leaves
    /// when data blocks never finished hitting disk.
    fn encode_truncated(&self, at: usize) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&(self.sections.len() as u32).to_le_bytes());
        for (i, (name, payload)) in self.sections.iter().enumerate() {
            if i < at {
                Self::encode_section(&mut out, name, payload, payload.len());
            } else {
                Self::encode_section(&mut out, name, payload, payload.len() / 2);
                break;
            }
        }
        out
    }

    /// Parses and validates a manifest.
    ///
    /// # Errors
    ///
    /// Any framing, version, checksum, or truncation defect returns the
    /// corresponding [`RestoreError`]; a torn file is never accepted.
    pub fn decode(bytes: &[u8]) -> Result<Checkpoint, RestoreError> {
        let mut r = StateReader::new(bytes);
        let magic = r
            .take(8)
            .map_err(|_| RestoreError::Truncated { context: "magic" })?;
        if magic != MAGIC {
            return Err(RestoreError::BadMagic);
        }
        let version = r
            .get_u32()
            .map_err(|_| RestoreError::Truncated { context: "version" })?;
        if version != VERSION {
            return Err(RestoreError::VersionSkew {
                found: version,
                expected: VERSION,
            });
        }
        let n = r.get_u32().map_err(|_| RestoreError::Truncated {
            context: "section count",
        })? as usize;
        let mut sections = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            let name = r.get_str().map_err(|_| RestoreError::Truncated {
                context: "section name",
            })?;
            let len = r.get_u64().map_err(|_| RestoreError::Truncated {
                context: "section length",
            })? as usize;
            let sum = r.get_u64().map_err(|_| RestoreError::Truncated {
                context: "section checksum",
            })?;
            let payload = r.take(len).map_err(|_| RestoreError::Truncated {
                context: "section payload",
            })?;
            if fnv64(payload) != sum {
                return Err(RestoreError::ChecksumMismatch { section: name });
            }
            sections.push((name, payload.to_vec()));
        }
        let end = r.get_u64().map_err(|_| RestoreError::MissingEndMarker)?;
        if end != END_MARKER {
            return Err(RestoreError::MissingEndMarker);
        }
        r.expect_end().map_err(|_| RestoreError::MissingEndMarker)?;
        Ok(Checkpoint { sections })
    }

    /// Commits this checkpoint to `path` with the two-phase protocol:
    /// write `<path>.tmp`, demote any existing `<path>` to `<path>.prev`,
    /// rename the tmp file into place.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] if any filesystem step fails; the previous
    /// checkpoint is untouched unless the final rename was reached.
    pub fn commit(&self, path: &Path) -> Result<(), CheckpointError> {
        self.commit_inner(path, None)
    }

    /// Commits with an injected torn write: a crash mid-way through writing
    /// section `at_section` (which still lands under the final name — the
    /// rename-before-data reordering real filesystems exhibit without
    /// fsync), or, when `at_section >= section_count()`, a crash between
    /// the two renames (old image already demoted, new never promoted).
    ///
    /// # Errors
    ///
    /// Same as [`Checkpoint::commit`].
    pub fn commit_torn(&self, path: &Path, at_section: u64) -> Result<(), CheckpointError> {
        self.commit_inner(path, Some(at_section))
    }

    fn commit_inner(&self, path: &Path, torn: Option<u64>) -> Result<(), CheckpointError> {
        let tmp = sibling(path, "tmp");
        let prev = sibling(path, "prev");
        let io_err = |context: &str| {
            let context = context.to_string();
            move |source: io::Error| CheckpointError::Io { context, source }
        };
        let (bytes, promote) = match torn {
            None => (self.encode(), true),
            Some(k) if (k as usize) < self.sections.len() => {
                (self.encode_truncated(k as usize), true)
            }
            // Crash between the renames: the tmp image is complete but
            // never promoted, and the old image was already demoted.
            Some(_) => (self.encode(), false),
        };
        fs::write(&tmp, &bytes).map_err(io_err("writing tmp image"))?;
        if path.exists() {
            fs::rename(path, &prev).map_err(io_err("demoting previous image"))?;
        }
        if promote {
            fs::rename(&tmp, path).map_err(io_err("promoting new image"))?;
        }
        Ok(())
    }

    /// Loads the checkpoint at `path`, falling back to `<path>.prev` when
    /// the primary is missing, torn, or corrupt.
    ///
    /// # Errors
    ///
    /// [`RestoreError::NoValidCheckpoint`] when neither image validates.
    pub fn load(path: &Path) -> Result<LoadedCheckpoint, RestoreError> {
        match Self::load_one(path) {
            Ok(checkpoint) => Ok(LoadedCheckpoint {
                checkpoint,
                fell_back: false,
                primary_error: None,
            }),
            Err(primary) => match Self::load_one(&sibling(path, "prev")) {
                Ok(checkpoint) => Ok(LoadedCheckpoint {
                    checkpoint,
                    fell_back: true,
                    primary_error: Some(primary),
                }),
                Err(fallback) => Err(RestoreError::NoValidCheckpoint {
                    primary: primary.to_string(),
                    fallback: fallback.to_string(),
                }),
            },
        }
    }

    fn load_one(path: &Path) -> Result<Checkpoint, RestoreError> {
        let bytes = fs::read(path).map_err(RestoreError::Io)?;
        Self::decode(&bytes)
    }
}

/// `<path>.<suffix>` beside `path` (appended, not replacing an extension).
fn sibling(path: &Path, suffix: &str) -> PathBuf {
    let mut s = path.as_os_str().to_os_string();
    s.push(".");
    s.push(suffix);
    PathBuf::from(s)
}

/// Serializes an exact telemetry log2 histogram (all buckets, not just
/// aggregates — restore must be lossless).
fn save_log2_histogram(h: &m5_telemetry::Log2Histogram, w: &mut StateWriter) {
    w.put_u64_slice(h.buckets());
    w.put_u128(h.sum());
    w.put_u64(h.max());
}

/// Restores a telemetry log2 histogram saved by [`save_log2_histogram`].
///
/// # Errors
///
/// Fails on truncation or a bucket vector of the wrong geometry.
fn restore_log2_histogram(
    r: &mut StateReader<'_>,
) -> Result<m5_telemetry::Log2Histogram, CodecError> {
    let buckets = r.get_u64_vec()?;
    let sum = r.get_u128()?;
    let max = r.get_u64()?;
    m5_telemetry::Log2Histogram::from_parts(&buckets, sum, max).ok_or(CodecError::BadValue {
        what: "log2-histogram bucket count",
        value: buckets.len() as u64,
    })
}

/// Serializes a full telemetry metric export ([`m5_telemetry::TelemetryState`]).
pub fn save_telemetry_state(s: &m5_telemetry::TelemetryState, w: &mut StateWriter) {
    w.put_u64(s.counters.len() as u64);
    for (name, label, v) in &s.counters {
        w.put_str(name);
        w.put_str(label);
        w.put_u64(*v);
    }
    w.put_u64(s.gauges.len() as u64);
    for (name, label, v) in &s.gauges {
        w.put_str(name);
        w.put_str(label);
        w.put_f64(*v);
    }
    w.put_u64(s.histograms.len() as u64);
    for (name, label, h) in &s.histograms {
        w.put_str(name);
        w.put_str(label);
        save_log2_histogram(h, w);
    }
    w.put_u64(s.next_span);
    w.put_u64(s.open_spans.len() as u64);
    for (id, start_ns, name, label) in &s.open_spans {
        w.put_u64(*id);
        w.put_u64(*start_ns);
        w.put_str(name);
        w.put_str(label);
    }
}

/// Restores a telemetry metric export saved by [`save_telemetry_state`].
///
/// # Errors
///
/// Propagates codec errors from a truncated or corrupt payload.
pub fn restore_telemetry_state(
    r: &mut StateReader<'_>,
) -> Result<m5_telemetry::TelemetryState, CodecError> {
    let mut s = m5_telemetry::TelemetryState::default();
    let nc = r.get_u64()?;
    for _ in 0..nc {
        let name = r.get_str()?;
        let label = r.get_str()?;
        s.counters.push((name, label, r.get_u64()?));
    }
    let ng = r.get_u64()?;
    for _ in 0..ng {
        let name = r.get_str()?;
        let label = r.get_str()?;
        s.gauges.push((name, label, r.get_f64()?));
    }
    let nh = r.get_u64()?;
    for _ in 0..nh {
        let name = r.get_str()?;
        let label = r.get_str()?;
        s.histograms.push((name, label, restore_log2_histogram(r)?));
    }
    s.next_span = r.get_u64()?;
    let no = r.get_u64()?;
    for _ in 0..no {
        let id = r.get_u64()?;
        let start_ns = r.get_u64()?;
        let name = r.get_str()?;
        s.open_spans.push((id, start_ns, name, r.get_str()?));
    }
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        let mut c = Checkpoint::new();
        c.add_section("alpha", vec![1, 2, 3, 4, 5, 6, 7, 8]);
        c.add_section("beta", b"hello world".to_vec());
        c.add_section("gamma", Vec::new());
        c
    }

    #[test]
    fn codec_roundtrip_covers_every_type() {
        let mut w = StateWriter::new();
        w.put_u8(7);
        w.put_bool(true);
        w.put_u32(0xdead_beef);
        w.put_u64(u64::MAX - 3);
        w.put_u128(u128::MAX / 3);
        w.put_f64(-0.125);
        w.put_usize(4096);
        w.put_str("checkpoint");
        w.put_u64_slice(&[9, 8, 7]);
        w.put_u32_slice(&[1, 2]);
        let bytes = w.finish();
        let mut r = StateReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert!(r.get_bool().unwrap());
        assert_eq!(r.get_u32().unwrap(), 0xdead_beef);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.get_u128().unwrap(), u128::MAX / 3);
        assert_eq!(r.get_f64().unwrap(), -0.125);
        assert_eq!(r.get_usize().unwrap(), 4096);
        assert_eq!(r.get_str().unwrap(), "checkpoint");
        assert_eq!(r.get_u64_vec().unwrap(), vec![9, 8, 7]);
        assert_eq!(r.get_u32_vec().unwrap(), vec![1, 2]);
        r.expect_end().unwrap();
    }

    #[test]
    fn codec_rejects_bad_bool_and_truncation_and_trailing() {
        let mut r = StateReader::new(&[2]);
        assert!(matches!(
            r.get_bool(),
            Err(CodecError::BadValue { what: "bool", .. })
        ));
        let mut r = StateReader::new(&[1, 2]);
        assert!(matches!(r.get_u64(), Err(CodecError::Truncated { .. })));
        let r = StateReader::new(&[0]);
        assert!(matches!(
            r.expect_end(),
            Err(CodecError::Trailing { bytes: 1 })
        ));
    }

    #[test]
    fn manifest_roundtrip_preserves_sections_in_order() {
        let c = sample();
        let d = Checkpoint::decode(&c.encode()).unwrap();
        assert_eq!(c, d);
        assert_eq!(d.section_names(), vec!["alpha", "beta", "gamma"]);
        assert_eq!(d.section("beta").unwrap(), b"hello world");
        assert!(d.section("delta").is_none());
        assert!(matches!(
            d.require("delta"),
            Err(RestoreError::MissingSection { section: "delta" })
        ));
    }

    #[test]
    fn decode_rejects_bad_magic_and_version_skew() {
        let mut bytes = sample().encode();
        bytes[0] ^= 0xff;
        assert!(matches!(
            Checkpoint::decode(&bytes),
            Err(RestoreError::BadMagic)
        ));
        let mut bytes = sample().encode();
        bytes[8] = 99; // version field
        assert!(matches!(
            Checkpoint::decode(&bytes),
            Err(RestoreError::VersionSkew {
                found: 99,
                expected: VERSION
            })
        ));
    }

    #[test]
    fn decode_rejects_every_single_bit_flip_in_payloads() {
        let clean = sample().encode();
        // Flip each payload byte of the first section and confirm the
        // checksum catches it. Payload of "alpha" starts after
        // 8 magic + 4 version + 4 count + 4 namelen + 5 name + 8 len + 8 sum.
        let start = 8 + 4 + 4 + 4 + 5 + 8 + 8;
        for i in start..start + 8 {
            let mut bytes = clean.clone();
            bytes[i] ^= 1;
            assert!(
                matches!(
                    Checkpoint::decode(&bytes),
                    Err(RestoreError::ChecksumMismatch { ref section }) if section == "alpha"
                ),
                "bit flip at byte {i} was not caught"
            );
        }
    }

    #[test]
    fn decode_rejects_truncation_at_every_length() {
        let clean = sample().encode();
        for n in 0..clean.len() {
            assert!(
                Checkpoint::decode(&clean[..n]).is_err(),
                "truncation to {n} bytes was accepted"
            );
        }
        assert!(Checkpoint::decode(&clean).is_ok());
    }

    #[test]
    fn commit_then_load_roundtrips_and_keeps_prev() {
        let dir = std::env::temp_dir().join("cxl-sim-ckpt-commit-test");
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.ckpt");
        let first = sample();
        first.commit(&path).unwrap();
        let loaded = Checkpoint::load(&path).unwrap();
        assert!(!loaded.fell_back);
        assert_eq!(loaded.checkpoint, first);

        let mut second = Checkpoint::new();
        second.add_section("alpha", vec![9]);
        second.commit(&path).unwrap();
        let loaded = Checkpoint::load(&path).unwrap();
        assert!(!loaded.fell_back);
        assert_eq!(loaded.checkpoint, second);
        // The first image survives as .prev.
        let prev = Checkpoint::load(&sibling(&path, "prev")).unwrap();
        assert_eq!(prev.checkpoint, first);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_commit_at_every_section_falls_back_to_prev() {
        let dir = std::env::temp_dir().join("cxl-sim-ckpt-torn-test");
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.ckpt");
        let good = sample();
        let mut newer = sample();
        newer.add_section("delta", vec![42; 16]);
        // Torn at each section index, plus one past the end (crash between
        // the renames). Every case must fall back to the good image.
        for at in 0..=newer.section_count() as u64 {
            let _ = fs::remove_file(&path);
            let _ = fs::remove_file(sibling(&path, "prev"));
            let _ = fs::remove_file(sibling(&path, "tmp"));
            good.commit(&path).unwrap();
            newer.commit_torn(&path, at).unwrap();
            let loaded = Checkpoint::load(&path)
                .unwrap_or_else(|e| panic!("torn at {at}: no valid image: {e}"));
            assert!(loaded.fell_back, "torn at {at} should fall back");
            assert_eq!(loaded.checkpoint, good, "torn at {at} must yield prev");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_commit_with_no_prev_reports_no_valid_checkpoint() {
        let dir = std::env::temp_dir().join("cxl-sim-ckpt-noprev-test");
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.ckpt");
        sample().commit_torn(&path, 0).unwrap();
        assert!(matches!(
            Checkpoint::load(&path),
            Err(RestoreError::NoValidCheckpoint { .. })
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fnv64_is_stable_and_input_sensitive() {
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv64(b"a"), fnv64(b"b"));
        assert_ne!(fnv64(b"ab"), fnv64(b"ba"));
    }

    #[test]
    fn errors_display_useful_messages() {
        let e = RestoreError::ChecksumMismatch {
            section: "llc".into(),
        };
        assert!(e.to_string().contains("llc"));
        let e = RestoreError::VersionSkew {
            found: 2,
            expected: 1,
        };
        assert!(e.to_string().contains('2'));
        let e = CheckpointError::Io {
            context: "writing tmp image".into(),
            source: io::Error::other("disk on fire"),
        };
        assert!(e.to_string().contains("disk on fire"));
        let e = section_err("ras")(CodecError::Truncated { need: 8, have: 0 });
        assert!(e.to_string().contains("ras"));
    }
}
