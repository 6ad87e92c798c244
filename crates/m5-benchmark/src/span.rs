//! Host-time spans recorded from outside the simulator.
//!
//! The benchmark reads the clock only around calls into public functions:
//! `AccessStream::fill_chunk`, `ChunkedRun::drive` and `finish`, the
//! checkpoint calls, and — through the `Timed` wrapper — the daemon's
//! `on_tick` and `on_fault`. Spans stay in memory and are written out as
//! JSONL when the benchmark ends.

use cxl_sim::prelude::*;
use std::fmt::Write as _;
use std::time::Instant;

/// The layer a span times.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// `AccessStream::fill_chunk`: trace generation into a chunk.
    Gen,
    /// `ChunkedRun::drive`: the access engine plus the daemon calls it makes.
    Drive,
    /// `MigrationDaemon::on_tick` (child of a drive span).
    Tick,
    /// `MigrationDaemon::on_fault` (child of a drive span).
    Fault,
    /// `ChunkedRun::finish`: telemetry flush and report assembly.
    Report,
    /// One checkpoint round trip (parent of the four spans below).
    Ckpt,
    /// `m5_bench::checkpoint::capture`.
    Capture,
    /// `Checkpoint::encode`.
    Encode,
    /// `Checkpoint::decode`.
    Decode,
    /// `m5_bench::checkpoint::resume`, including dropping the old machine.
    Restore,
}

impl Layer {
    /// The span name written to JSONL.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Gen => "gen",
            Layer::Drive => "drive",
            Layer::Tick => "tick",
            Layer::Fault => "fault",
            Layer::Report => "report",
            Layer::Ckpt => "ckpt",
            Layer::Capture => "capture",
            Layer::Encode => "encode",
            Layer::Decode => "decode",
            Layer::Restore => "restore",
        }
    }
}

/// One timed call.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// What was timed.
    pub layer: Layer,
    /// Start, in ns since the rep's span origin.
    pub start_ns: u64,
    /// End, in ns since the rep's span origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Work the call did: accesses generated (gen), pages moved (tick,
    /// fault) or image bytes (encode); 0 otherwise.
    pub work: u64,
}

impl Span {
    /// Duration in ns.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The spans of one rep.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Option<usize>,
}

impl Default for Spans {
    fn default() -> Spans {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: None,
        }
    }
}

impl Spans {
    /// Nanoseconds since this recorder was created.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a parent span starting now; spans recorded until
    /// [`Spans::close`] become its children.
    pub fn open(&mut self, layer: Layer) -> usize {
        let now = self.now();
        self.spans.push(Span {
            layer,
            start_ns: now,
            end_ns: now,
            parent: None,
            work: 0,
        });
        self.open = Some(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Ends the parent span `id` now.
    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now();
        self.open = None;
    }

    /// Records a span that started at `start_ns` and ends now.
    pub fn record(&mut self, layer: Layer, start_ns: u64, work: u64) {
        let end_ns = self.now();
        self.spans.push(Span {
            layer,
            start_ns,
            end_ns,
            parent: self.open,
            work,
        });
    }

    /// Every span: a parent where it was opened, a child where it ended.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Appends one JSONL line per span, tagged with the rep index.
    pub fn write_jsonl(&self, rep: usize, out: &mut String) {
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"rep\":{rep},\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"work\":{}}}",
                s.layer.name(),
                s.start_ns,
                s.end_ns,
                s.work
            );
        }
    }
}

/// A transparent daemon wrapper. It always times `on_start`; with `spans`
/// set it also records every `on_tick` and `on_fault` with the pages the
/// call moved. It forwards everything else unchanged.
pub(crate) struct Timed<D> {
    /// The wrapped daemon.
    pub(crate) inner: D,
    /// The span recorder of a traced rep.
    pub(crate) spans: Option<Spans>,
    /// Seconds the last `on_start` took.
    pub(crate) on_start_s: f64,
}

impl<D> Timed<D> {
    /// Wraps `inner`, recording spans when `traced`.
    pub(crate) fn new(inner: D, traced: bool) -> Timed<D> {
        Timed {
            inner,
            spans: traced.then(Spans::default),
            on_start_s: 0.0,
        }
    }
}

fn moved(sys: &System) -> u64 {
    sys.migration_stats().total_moved()
}

impl<D: MigrationDaemon> MigrationDaemon for Timed<D> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_start(&mut self, sys: &mut System) {
        let t = Instant::now();
        self.inner.on_start(sys);
        self.on_start_s = t.elapsed().as_secs_f64();
    }

    #[inline]
    fn next_wake(&self) -> Option<Nanos> {
        self.inner.next_wake()
    }

    fn on_tick(&mut self, sys: &mut System) {
        let Some(spans) = &mut self.spans else {
            return self.inner.on_tick(sys);
        };
        let before = moved(sys);
        let t = spans.now();
        self.inner.on_tick(sys);
        spans.record(Layer::Tick, t, moved(sys) - before);
    }

    fn on_fault(&mut self, vpn: Vpn, sys: &mut System) {
        let Some(spans) = &mut self.spans else {
            return self.inner.on_fault(vpn, sys);
        };
        let before = moved(sys);
        let t = spans.now();
        self.inner.on_fault(vpn, sys);
        spans.record(Layer::Fault, t, moved(sys) - before);
    }
}
