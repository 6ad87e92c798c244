//! Pins the checkpoint layout to its version number.
//!
//! A freshly built `SystemConfig::small()` machine that has run no
//! accesses, a started default M5 manager on it and the run driver that
//! started it encode to sections whose byte lengths depend only on the
//! layout. A change to what a
//! section stores moves one of these lengths; such a change must bump
//! `checkpoint::VERSION`, so that an image of the old layout is refused
//! instead of misread, and re-pin the lengths here.

use m5::core::manager::{M5Config, M5Manager};
use m5::sim::checkpoint::{StateWriter, VERSION};
use m5::sim::prelude::*;
use m5::sim::system::ChunkedRun;

const PINNED_VERSION: u32 = 10;

const SECTION_BYTES: [(&str, usize); 15] = [
    ("config", 748),
    ("clock", 8),
    ("memory", 4144),
    ("paging", 8),
    ("tlb", 544),
    ("llc", 8224),
    ("perfmon", 72),
    ("kernel", 128),
    ("mglru", 40),
    ("journal", 49),
    ("faults", 32),
    ("ras", 118),
    ("contention", 160),
    ("telemetry", 1),
    ("system", 93),
];

const M5_SECTION_BYTES: usize = 131_566;

const RUN_SECTION_BYTES: usize = 424;

const FIX: &str = "the checkpoint layout changed: bump checkpoint::VERSION \
                   and re-pin PINNED_VERSION and the section lengths in this file";

#[test]
fn section_lengths_are_pinned_to_the_checkpoint_version() {
    let mut sys = System::new(SystemConfig::small());
    let cp = sys.checkpoint();
    let lengths: Vec<(&str, usize)> = cp
        .section_names()
        .into_iter()
        .map(|n| (n, cp.section(n).unwrap().len()))
        .collect();

    let mut m5 = M5Manager::new(M5Config::default());
    let run = ChunkedRun::begin(&mut sys, &mut m5);
    let mut w = StateWriter::new();
    m5.save(&sys, &mut w);
    let m5_bytes = w.finish().len();
    let mut w = StateWriter::new();
    run.save(&mut w);
    let run_bytes = w.finish().len();

    assert_eq!(VERSION, PINNED_VERSION, "{FIX}");
    assert_eq!(lengths, SECTION_BYTES, "{FIX}");
    assert_eq!(m5_bytes, M5_SECTION_BYTES, "{FIX}");
    assert_eq!(run_bytes, RUN_SECTION_BYTES, "{FIX}");
}
