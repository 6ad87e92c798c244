//! Telemetry sinks: where events and snapshots go.
//!
//! Two implementations cover the repo's needs:
//!
//! * [`MemorySink`] — buffers everything behind an `Arc<Mutex<…>>` handle;
//!   the harness of choice for tests and the golden-trace differ.
//! * [`JsonlSink`] — streams one JSON object per line to any
//!   `Write + Send`; the machine-readable trace for CI artifacts. JSON is
//!   emitted by hand (two dozen lines below) so the vendored-dependency
//!   budget stays untouched.

use crate::metrics::{HistogramSnapshot, MetricsSnapshot};
use std::io::{self, Write};
use std::sync::{Arc, Mutex};

/// What happened at one traced instant.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A span opened.
    SpanStart,
    /// A span closed; `duration_ns` is `end - start` in simulated ns.
    SpanEnd {
        /// Span length in simulated nanoseconds.
        duration_ns: u64,
    },
    /// A point event with no duration.
    Instant,
}

/// One traced event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Event {
    /// Simulated timestamp in nanoseconds.
    pub ts_ns: u64,
    /// Event (or span) name, dot-separated by convention.
    pub name: &'static str,
    /// Free-form detail: a tier, a fault class, a degradation message.
    pub label: String,
    /// Start / end / instant.
    pub kind: EventKind,
}

/// A consumer of telemetry output.
///
/// All methods default to no-ops so a sink may care only about events (the
/// JSONL stream) or only about snapshots (the summary table).
pub trait Sink: Send {
    /// Observes one event as it happens.
    fn on_event(&mut self, _event: &Event) {}

    /// Observes a metrics snapshot (taken on [`crate::Telemetry::flush`]).
    fn on_snapshot(&mut self, _snapshot: &MetricsSnapshot) {}

    /// Flushes any buffered output.
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Shared buffer behind a [`MemorySink`].
#[derive(Debug, Default)]
pub struct MemoryBuffer {
    /// Every event observed, in order.
    pub events: Vec<Event>,
    /// The most recent snapshot observed, if any.
    pub last_snapshot: Option<MetricsSnapshot>,
}

/// An in-memory sink for tests: records events and the latest snapshot
/// into a buffer shared with the handle returned by [`MemorySink::new`].
#[derive(Debug)]
pub struct MemorySink {
    buf: Arc<Mutex<MemoryBuffer>>,
}

impl MemorySink {
    /// Builds a sink and the read handle to its buffer.
    pub fn new() -> (MemorySink, Arc<Mutex<MemoryBuffer>>) {
        let buf = Arc::new(Mutex::new(MemoryBuffer::default()));
        (
            MemorySink {
                buf: Arc::clone(&buf),
            },
            buf,
        )
    }
}

impl Sink for MemorySink {
    fn on_event(&mut self, event: &Event) {
        self.buf
            .lock()
            .expect("memory sink poisoned")
            .events
            .push(event.clone());
    }

    fn on_snapshot(&mut self, snapshot: &MetricsSnapshot) {
        self.buf.lock().expect("memory sink poisoned").last_snapshot = Some(snapshot.clone());
    }
}

/// Escapes `s` for inclusion in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Streams events (and snapshots) as JSON Lines to a writer.
pub struct JsonlSink<W: Write + Send> {
    w: W,
    error: Option<io::Error>,
}

impl<W: Write + Send> JsonlSink<W> {
    /// A sink writing to `w`.
    pub fn new(w: W) -> JsonlSink<W> {
        JsonlSink { w, error: None }
    }

    /// The first I/O error hit while streaming, if any (streaming is
    /// infallible at the call site; errors surface here and on `flush`).
    pub fn error(&self) -> Option<&io::Error> {
        self.error.as_ref()
    }

    fn write_line(&mut self, line: String) {
        if self.error.is_some() {
            return;
        }
        if let Err(e) = writeln!(self.w, "{line}") {
            self.error = Some(e);
        }
    }
}

/// Renders one event as a single-line JSON object.
pub fn event_to_json(e: &Event) -> String {
    let (ty, extra) = match e.kind {
        EventKind::SpanStart => ("span_start", String::new()),
        EventKind::SpanEnd { duration_ns } => {
            ("span_end", format!(",\"duration_ns\":{duration_ns}"))
        }
        EventKind::Instant => ("event", String::new()),
    };
    format!(
        "{{\"type\":\"{ty}\",\"ts_ns\":{},\"name\":\"{}\",\"label\":\"{}\"{extra}}}",
        e.ts_ns,
        json_escape(e.name),
        json_escape(&e.label),
    )
}

/// Renders a snapshot as a single-line JSON object.
pub fn snapshot_to_json(s: &MetricsSnapshot) -> String {
    let mut out = String::from("{\"type\":\"snapshot\",\"counters\":{");
    let counters: Vec<String> = s
        .counters
        .iter()
        .map(|(k, v)| format!("\"{}\":{v}", json_escape(&k.to_string())))
        .collect();
    out.push_str(&counters.join(","));
    out.push_str("},\"gauges\":{");
    let gauges: Vec<String> = s
        .gauges
        .iter()
        .map(|(k, v)| format!("\"{}\":{v}", json_escape(&k.to_string())))
        .collect();
    out.push_str(&gauges.join(","));
    out.push_str("},\"histograms\":{");
    let hists: Vec<String> = s
        .histograms
        .iter()
        .map(|(k, h): &(_, HistogramSnapshot)| {
            format!(
                "\"{}\":{{\"count\":{},\"sum\":{},\"max\":{},\"p50\":{},\"p99\":{}}}",
                json_escape(&k.to_string()),
                h.count,
                h.sum,
                h.max,
                h.p50,
                h.p99
            )
        })
        .collect();
    out.push_str(&hists.join(","));
    out.push_str("}}");
    out
}

impl<W: Write + Send> Sink for JsonlSink<W> {
    fn on_event(&mut self, event: &Event) {
        self.write_line(event_to_json(event));
    }

    fn on_snapshot(&mut self, snapshot: &MetricsSnapshot) {
        self.write_line(snapshot_to_json(snapshot));
    }

    fn flush(&mut self) -> io::Result<()> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        self.w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricKey;

    #[test]
    fn memory_sink_shares_its_buffer() {
        let (mut sink, handle) = MemorySink::new();
        sink.on_event(&Event {
            ts_ns: 5,
            name: "x",
            label: "l".into(),
            kind: EventKind::Instant,
        });
        sink.on_snapshot(&MetricsSnapshot::default());
        let buf = handle.lock().unwrap();
        assert_eq!(buf.events.len(), 1);
        assert_eq!(buf.events[0].ts_ns, 5);
        assert!(buf.last_snapshot.is_some());
    }

    #[test]
    fn jsonl_lines_are_valid_shape() {
        let e = Event {
            ts_ns: 42,
            name: "m5.epoch",
            label: "migrate \"x\"\n".into(),
            kind: EventKind::SpanEnd { duration_ns: 7 },
        };
        let line = event_to_json(&e);
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert!(line.contains("\"duration_ns\":7"), "{line}");
        assert!(line.contains("migrate \\\"x\\\"\\n"), "{line}");
        assert!(!line.contains('\n'), "single line");
    }

    #[test]
    fn jsonl_sink_streams_to_writer() {
        let mut out = Vec::new();
        {
            let mut sink = JsonlSink::new(&mut out);
            sink.on_event(&Event {
                ts_ns: 1,
                name: "a",
                label: String::new(),
                kind: EventKind::Instant,
            });
            sink.on_snapshot(&MetricsSnapshot {
                counters: vec![(MetricKey::new("c", "x"), 3)],
                ..Default::default()
            });
            sink.flush().unwrap();
        }
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"type\":\"event\""));
        assert!(lines[1].contains("\"c{x}\":3"), "{}", lines[1]);
    }

    #[test]
    fn escape_covers_control_chars() {
        assert_eq!(json_escape("a\"b\\c\u{1}"), "a\\\"b\\\\c\\u0001");
    }
}
