//! `m5-telemetry` — a zero-cost-when-disabled event/metric bus for the M5
//! stack.
//!
//! The design splits into three small pieces:
//!
//! * **Metrics** ([`metrics`]): monotone counters, last-write-wins gauges,
//!   and fixed-geometry log2 histograms, all addressed by static
//!   [`MetricKey`]s so the hot recording path never allocates.
//! * **Spans and events** ([`sink::Event`]): span-style tracing for
//!   migration epochs, fault windows, and tracker report batches, plus
//!   instant events for one-off occurrences (fallback engaged, page
//!   poisoned).
//! * **Sinks** ([`sink`]): pluggable consumers — in-memory for tests,
//!   JSONL stream for CI artifacts, human-readable summary for people.
//!
//! # Zero cost when disabled
//!
//! [`Telemetry::disabled`] holds no allocation at all
//! (`inner: Option<Box<…>>` is `None`); every recording method starts with
//! a branch on that `Option` and returns immediately. Instrumented code
//! embeds a `Telemetry` value and calls it unconditionally — no `cfg`
//! flags, no feature gates, and a measured overhead under 2% on the
//! `m5-bench` protocols (see DESIGN.md §Telemetry).
//!
//! # Example
//!
//! ```
//! use m5_telemetry::{MemorySink, Telemetry};
//!
//! let mut t = Telemetry::enabled();
//! let (sink, buf) = MemorySink::new();
//! t.add_sink(Box::new(sink));
//!
//! t.counter_add("sim.llc", "hit", 3);
//! t.histogram_record("sim.access.latency", "", 210);
//! let span = t.span_start(100, "m5.epoch", "1");
//! t.span_end(900, span);
//! t.flush();
//!
//! let snap = t.snapshot();
//! assert_eq!(snap.counter("sim.llc", "hit"), Some(3));
//! assert_eq!(buf.lock().unwrap().events.len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod metrics;
pub mod sink;

pub use metrics::{
    log2_bucket, log2_bucket_lower_bound, HistogramSnapshot, Log2Histogram, MetricKey,
    MetricsSnapshot, LOG2_BUCKETS,
};
pub use sink::{Event, EventKind, JsonlSink, MemoryBuffer, MemorySink, Sink, SummarySink};

use metrics::Registry;

/// Handle to an open span, returned by [`Telemetry::span_start`] and
/// consumed by [`Telemetry::span_end`].
///
/// A handle from a disabled `Telemetry` is inert; ending it is a no-op.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanId(u64);

impl SpanId {
    /// The handle's numeric id, for checkpointing.
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Rebuilds a handle saved with [`SpanId::raw`].
    pub fn from_raw(id: u64) -> SpanId {
        SpanId(id)
    }
}

struct OpenSpan {
    id: u64,
    start_ns: u64,
    name: &'static str,
    label: String,
}

#[derive(Default)]
struct Inner {
    counters: Registry<u64>,
    gauges: Registry<f64>,
    histograms: Registry<Log2Histogram>,
    sinks: Vec<Box<dyn Sink>>,
    open_spans: Vec<OpenSpan>,
    next_span: u64,
}

/// The full metric state of an enabled bus as owned plain data, produced
/// by [`Telemetry::export_state`] and consumed by [`Telemetry::from_state`].
/// Entries are sorted by key, so two buses with identical metric state
/// export identical (comparable) values.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TelemetryState {
    /// `(name, label, value)` per counter.
    pub counters: Vec<(String, String, u64)>,
    /// `(name, label, value)` per gauge.
    pub gauges: Vec<(String, String, f64)>,
    /// `(name, label, exact buckets)` per histogram.
    pub histograms: Vec<(String, String, Log2Histogram)>,
    /// The span-id allocator position, so span ids stay unique across a
    /// restore.
    pub next_span: u64,
    /// `(id, start_ns, name, label)` per span still open, in open order,
    /// so a span open across a checkpoint closes after restore exactly as
    /// it would have without one.
    pub open_spans: Vec<(u64, u64, String, String)>,
}

/// The telemetry bus. Embed one per instrumented component (the simulator
/// owns one; the M5 manager records through the simulator's).
///
/// Disabled is the default and costs one `Option` discriminant check per
/// call. Enable with [`Telemetry::enabled`], then attach sinks.
#[derive(Default)]
pub struct Telemetry {
    inner: Option<Box<Inner>>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut d = f.debug_struct("Telemetry");
        d.field("enabled", &self.is_enabled());
        if let Some(inner) = &self.inner {
            d.field("sinks", &inner.sinks.len());
            d.field("open_spans", &inner.open_spans.len());
        }
        d.finish()
    }
}

impl Telemetry {
    /// A disabled bus: every method is a near-free no-op.
    pub fn disabled() -> Telemetry {
        Telemetry { inner: None }
    }

    /// An enabled bus with no sinks attached (metrics still accumulate and
    /// can be read back via [`Telemetry::snapshot`]).
    pub fn enabled() -> Telemetry {
        Telemetry {
            inner: Some(Box::default()),
        }
    }

    /// Whether recording is active.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Attaches a sink. No-op when disabled.
    pub fn add_sink(&mut self, sink: Box<dyn Sink>) {
        if let Some(inner) = &mut self.inner {
            inner.sinks.push(sink);
        }
    }

    /// Adds `delta` to the counter `name{label}`.
    #[inline]
    pub fn counter_add(&mut self, name: &'static str, label: &'static str, delta: u64) {
        if let Some(inner) = &mut self.inner {
            *inner.counters.entry(MetricKey::new(name, label)) += delta;
        }
    }

    /// Sets the gauge `name{label}` to `value`.
    #[inline]
    pub fn gauge_set(&mut self, name: &'static str, label: &'static str, value: f64) {
        if let Some(inner) = &mut self.inner {
            *inner.gauges.entry(MetricKey::new(name, label)) = value;
        }
    }

    /// Records `value` into the histogram `name{label}`.
    #[inline]
    pub fn histogram_record(&mut self, name: &'static str, label: &'static str, value: u64) {
        if let Some(inner) = &mut self.inner {
            inner
                .histograms
                .entry(MetricKey::new(name, label))
                .record(value);
        }
    }

    /// Merges a locally accumulated histogram into `name{label}` in one
    /// registry probe — the flush half of a batched hot path. Merging is
    /// exact (see [`Log2Histogram::merge`]); empty histograms are skipped
    /// so an idle flush never materializes the metric.
    pub fn histogram_merge(&mut self, name: &'static str, label: &'static str, h: &Log2Histogram) {
        if h.count() == 0 {
            return;
        }
        if let Some(inner) = &mut self.inner {
            inner.histograms.entry(MetricKey::new(name, label)).merge(h);
        }
    }

    /// Opens a span at simulated time `ts_ns`. The label carries dynamic
    /// detail (an epoch number, a fault class).
    pub fn span_start(
        &mut self,
        ts_ns: u64,
        name: &'static str,
        label: impl Into<String>,
    ) -> SpanId {
        let Some(inner) = &mut self.inner else {
            return SpanId(0);
        };
        inner.next_span += 1;
        let id = inner.next_span;
        let label = label.into();
        let event = Event {
            ts_ns,
            name,
            label: label.clone(),
            kind: EventKind::SpanStart,
        };
        for s in &mut inner.sinks {
            s.on_event(&event);
        }
        inner.open_spans.push(OpenSpan {
            id,
            start_ns: ts_ns,
            name,
            label,
        });
        SpanId(id)
    }

    /// Closes a span at simulated time `ts_ns`, emitting a `SpanEnd` event
    /// with the elapsed duration. Unknown or inert handles are ignored.
    pub fn span_end(&mut self, ts_ns: u64, span: SpanId) {
        let Some(inner) = &mut self.inner else {
            return;
        };
        let Some(pos) = inner.open_spans.iter().position(|s| s.id == span.0) else {
            return;
        };
        let open = inner.open_spans.swap_remove(pos);
        let event = Event {
            ts_ns,
            name: open.name,
            label: open.label,
            kind: EventKind::SpanEnd {
                duration_ns: ts_ns.saturating_sub(open.start_ns),
            },
        };
        for s in &mut inner.sinks {
            s.on_event(&event);
        }
    }

    /// Emits an instant event.
    pub fn event(&mut self, ts_ns: u64, name: &'static str, label: impl Into<String>) {
        let Some(inner) = &mut self.inner else {
            return;
        };
        let event = Event {
            ts_ns,
            name,
            label: label.into(),
            kind: EventKind::Instant,
        };
        for s in &mut inner.sinks {
            s.on_event(&event);
        }
    }

    /// A sorted, deterministic snapshot of every metric. Empty when
    /// disabled.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let Some(inner) = &self.inner else {
            return MetricsSnapshot::default();
        };
        MetricsSnapshot {
            counters: inner
                .counters
                .sorted()
                .into_iter()
                .map(|(k, v)| (k, *v))
                .collect(),
            gauges: inner
                .gauges
                .sorted()
                .into_iter()
                .map(|(k, v)| (k, *v))
                .collect(),
            histograms: inner
                .histograms
                .sorted()
                .into_iter()
                .map(|(k, h)| (k, HistogramSnapshot::of(h)))
                .collect(),
        }
    }

    /// The raw histogram under `name{label}`, for tests that need bucket
    /// counts rather than aggregates.
    pub fn histogram(&self, name: &'static str, label: &'static str) -> Option<&Log2Histogram> {
        self.inner
            .as_ref()
            .and_then(|i| i.histograms.get(&MetricKey::new(name, label)))
    }

    /// Exports the full metric state — exact histogram buckets, not just
    /// aggregates — as owned plain data for checkpointing. `None` when
    /// disabled. Sinks are not exported: they are live I/O the restoring
    /// process re-attaches itself.
    pub fn export_state(&self) -> Option<TelemetryState> {
        let inner = self.inner.as_ref()?;
        Some(TelemetryState {
            counters: inner
                .counters
                .sorted()
                .into_iter()
                .map(|(k, v)| (k.name.to_string(), k.label.to_string(), *v))
                .collect(),
            gauges: inner
                .gauges
                .sorted()
                .into_iter()
                .map(|(k, v)| (k.name.to_string(), k.label.to_string(), *v))
                .collect(),
            histograms: inner
                .histograms
                .sorted()
                .into_iter()
                .map(|(k, h)| (k.name.to_string(), k.label.to_string(), h.clone()))
                .collect(),
            next_span: inner.next_span,
            open_spans: inner
                .open_spans
                .iter()
                .map(|s| (s.id, s.start_ns, s.name.to_string(), s.label.clone()))
                .collect(),
        })
    }

    /// Rebuilds an enabled bus (no sinks attached) from exported state.
    /// Metric keys are interned by leaking the owned strings: the registry
    /// addresses metrics by `&'static str`, and a restore happens a bounded
    /// number of times per process, so the leak is a few hundred bytes —
    /// never per-access.
    pub fn from_state(state: &TelemetryState) -> Telemetry {
        fn intern(s: &str) -> &'static str {
            Box::leak(s.to_string().into_boxed_str())
        }
        let mut t = Telemetry::enabled();
        let inner = t.inner.as_mut().expect("freshly enabled bus has state");
        for (name, label, v) in &state.counters {
            *inner
                .counters
                .entry(MetricKey::new(intern(name), intern(label))) = *v;
        }
        for (name, label, v) in &state.gauges {
            *inner
                .gauges
                .entry(MetricKey::new(intern(name), intern(label))) = *v;
        }
        for (name, label, h) in &state.histograms {
            *inner
                .histograms
                .entry(MetricKey::new(intern(name), intern(label))) = h.clone();
        }
        inner.next_span = state.next_span;
        inner.open_spans = state
            .open_spans
            .iter()
            .map(|(id, start_ns, name, label)| OpenSpan {
                id: *id,
                start_ns: *start_ns,
                name: intern(name),
                label: label.clone(),
            })
            .collect();
        t
    }

    /// Pushes the current snapshot to every sink, then flushes them.
    /// I/O errors are swallowed (telemetry must never fail a run); the
    /// JSONL sink exposes its first error via [`JsonlSink::error`].
    pub fn flush(&mut self) {
        let snap = self.snapshot();
        if let Some(inner) = &mut self.inner {
            for s in &mut inner.sinks {
                s.on_snapshot(&snap);
                let _ = s.flush();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_is_inert_and_allocation_free() {
        let mut t = Telemetry::disabled();
        assert!(!t.is_enabled());
        t.counter_add("c", "", 1);
        t.gauge_set("g", "", 1.0);
        t.histogram_record("h", "", 1);
        let span = t.span_start(0, "s", "");
        t.span_end(10, span);
        t.event(5, "e", "");
        t.flush();
        assert_eq!(t.snapshot(), MetricsSnapshot::default());
        assert_eq!(
            std::mem::size_of::<Telemetry>(),
            std::mem::size_of::<usize>()
        );
    }

    #[test]
    fn counters_gauges_histograms_accumulate() {
        let mut t = Telemetry::enabled();
        t.counter_add("sim.llc", "hit", 2);
        t.counter_add("sim.llc", "hit", 3);
        t.counter_add("sim.llc", "miss", 1);
        t.gauge_set("bw", "ddr", 1.0);
        t.gauge_set("bw", "ddr", 2.5);
        t.histogram_record("lat", "", 100);
        t.histogram_record("lat", "", 300);

        let snap = t.snapshot();
        assert_eq!(snap.counter("sim.llc", "hit"), Some(5));
        assert_eq!(snap.counter("sim.llc", "miss"), Some(1));
        assert_eq!(snap.counter_total("sim.llc"), 6);
        assert_eq!(snap.gauge("bw", "ddr"), Some(2.5));
        let h = snap.histogram("lat", "").unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 400);
        assert_eq!(h.max, 300);
    }

    #[test]
    fn snapshots_are_sorted_and_deterministic() {
        let mut a = Telemetry::enabled();
        let mut b = Telemetry::enabled();
        // Insert in different orders; snapshots must still be identical.
        a.counter_add("z", "", 1);
        a.counter_add("a", "x", 2);
        b.counter_add("a", "x", 2);
        b.counter_add("z", "", 1);
        assert_eq!(a.snapshot(), b.snapshot());
        assert_eq!(a.snapshot().counters[0].0, MetricKey::new("a", "x"));
    }

    #[test]
    fn spans_emit_paired_events_with_duration() {
        let mut t = Telemetry::enabled();
        let (sink, buf) = MemorySink::new();
        t.add_sink(Box::new(sink));

        let outer = t.span_start(100, "m5.epoch", "1");
        let inner = t.span_start(150, "sim.fault.window", "cxl-latency-spike");
        t.span_end(400, inner);
        t.span_end(1100, outer);
        t.span_end(1100, outer); // double-end is ignored

        let events = buf.lock().unwrap().events.clone();
        assert_eq!(events.len(), 4);
        assert_eq!(events[0].kind, EventKind::SpanStart);
        assert_eq!(events[2].kind, EventKind::SpanEnd { duration_ns: 250 });
        assert_eq!(events[2].name, "sim.fault.window");
        assert_eq!(events[3].kind, EventKind::SpanEnd { duration_ns: 1000 });
    }

    #[test]
    fn flush_pushes_snapshot_to_sinks() {
        let mut t = Telemetry::enabled();
        let (sink, buf) = MemorySink::new();
        t.add_sink(Box::new(sink));
        t.counter_add("c", "", 9);
        t.flush();
        let snap = buf.lock().unwrap().last_snapshot.clone().unwrap();
        assert_eq!(snap.counter("c", ""), Some(9));
    }

    #[test]
    fn telemetry_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Telemetry>();
    }

    #[test]
    fn export_import_roundtrip_preserves_snapshots_and_span_ids() {
        let mut t = Telemetry::enabled();
        t.counter_add("sim.llc", "hit", 7);
        t.gauge_set("bw", "cxl", 2.25);
        t.histogram_record("lat", "", 100);
        t.histogram_record("lat", "", 900);
        let s1 = t.span_start(0, "s", "a");
        t.span_end(5, s1);
        let _open = t.span_start(10, "s", "b");

        let state = t.export_state().unwrap();
        let restored = Telemetry::from_state(&state);
        assert_eq!(restored.snapshot(), t.snapshot());
        // Exact buckets survive, not just aggregates.
        assert_eq!(restored.histogram("lat", ""), t.histogram("lat", ""));
        // Span ids continue past the checkpointed allocator position.
        let mut restored = restored;
        let s3 = restored.span_start(20, "s", "c");
        assert_eq!(s3, SpanId(3));
        // Disabled buses export nothing.
        assert!(Telemetry::disabled().export_state().is_none());
    }

    #[test]
    fn histogram_from_parts_validates_geometry() {
        let mut h = Log2Histogram::new();
        for v in [3u64, 900, 0] {
            h.record(v);
        }
        let rebuilt = Log2Histogram::from_parts(h.buckets(), h.sum(), h.max()).unwrap();
        assert_eq!(rebuilt, h);
        assert!(Log2Histogram::from_parts(&[0; 3], 0, 0).is_none());
    }

    #[test]
    fn histogram_merge_matches_direct_recording() {
        let mut direct = Telemetry::enabled();
        let mut batched = Telemetry::enabled();
        let mut scratch = Log2Histogram::new();
        for v in [0u64, 1, 7, 63, 64, 900, 4096, u64::MAX] {
            direct.histogram_record("lat", "cxl", v);
            scratch.record(v);
        }
        batched.histogram_merge("lat", "cxl", &scratch);
        assert_eq!(direct.snapshot(), batched.snapshot());
        // A second merge keeps accumulating.
        batched.histogram_merge("lat", "cxl", &scratch);
        assert_eq!(
            batched.snapshot().histogram("lat", "cxl").unwrap().count,
            16
        );
        // Merging an empty histogram neither fails nor creates the metric.
        let mut idle = Telemetry::enabled();
        idle.histogram_merge("lat", "cxl", &Log2Histogram::new());
        assert!(idle.snapshot().histograms.is_empty());
        scratch.clear();
        assert_eq!(scratch.count(), 0);
        assert_eq!(scratch.max(), 0);
    }
}
