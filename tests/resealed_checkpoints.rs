//! Re-sealed checkpoint images, through the `m5` facade.
//!
//! A section whose payload was edited and whose checksum was then
//! recomputed passes the image-level checks and reaches its section
//! parser. The parser must reject any state the machine cannot reach with
//! a typed error, never restore it silently.

use m5::sim::checkpoint::{Checkpoint, CodecError, RestoreError};
use m5::sim::prelude::*;

/// `cp` with section `name`'s payload replaced by `payload` and every
/// checksum recomputed.
fn reseal(cp: &Checkpoint, name: &str, payload: &[u8]) -> Checkpoint {
    let mut out = Checkpoint::new();
    for n in cp.section_names() {
        let p = if n == name {
            payload
        } else {
            cp.section(n).unwrap()
        };
        out.add_section(n, p.to_vec());
    }
    Checkpoint::decode(&out.encode()).expect("a re-sealed image passes the image checks")
}

/// Restores `cp` with section `name` replaced by each payload, which must
/// fail with a typed error attributed to that section.
fn assert_rejected(
    config: &SystemConfig,
    plan: &FaultPlan,
    cp: &Checkpoint,
    name: &'static str,
    cases: Vec<(&str, Vec<u8>)>,
) {
    for (what, payload) in cases {
        match System::restore(config.clone(), plan, &reseal(cp, name, &payload)) {
            Err(RestoreError::Corrupt {
                section,
                source: CodecError::BadValue { .. },
            }) if section == name => {}
            other => panic!("{what}: expected a typed {name}-section error, got {other:?}"),
        }
    }
}

/// A `SystemConfig::small()` machine after 400 accesses over an 8-page
/// region placed by `place`, and its checkpoint, which restores.
fn small_image(place: Placement) -> (SystemConfig, Checkpoint) {
    let config = SystemConfig::small();
    let mut sys = System::new(config.clone());
    let region = sys.alloc_region(8, place).unwrap();
    for i in 0..400u64 {
        sys.access(region.base.offset((i * 4160) % (8 * 4096)), i % 3 == 0);
    }
    let cp = sys.checkpoint();
    System::restore(config.clone(), &FaultPlan::none(), &cp).expect("the untouched image restores");
    (config, cp)
}

fn u64_at(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())
}

#[test]
fn a_resealed_fault_log_poll_cannot_build_is_rejected() {
    let spike = |at_us| {
        (
            Nanos::from_micros(at_us),
            FaultKind::LatencySpike {
                extra: Nanos(100),
                duration: Nanos::from_micros(1),
            },
        )
    };
    // The last spike is due long after the run ends, so it stays unarmed.
    let plan = [spike(2), spike(4), spike(6), spike(10_000_000)]
        .into_iter()
        .fold(FaultPlan::none(), |p, (at, kind)| p.with(at, kind));
    let config = SystemConfig::small();
    let mut sys = System::with_fault_plan(config.clone(), &plan);
    let region = sys.alloc_region(64, Placement::AllOnCxl).unwrap();
    for i in 0..4_000u64 {
        sys.access(region.base.offset((i * 4160) % (64 * 4096)), i % 3 == 0);
    }
    let cp = sys.checkpoint();
    System::restore(config.clone(), &plan, &cp).expect("the untouched image restores");

    // The section starts with the fault log: its length (the arming
    // cursor), then one arming time per armed fault.
    let faults = cp.section("faults").unwrap();
    let armed = u64_at(faults, 0) as usize;
    assert_eq!(armed, 3, "every spike due during the run armed");
    let time = |i: usize| 8 + 8 * i;

    let mut decreasing = faults.to_vec();
    decreasing[time(0)..time(1)].copy_from_slice(&faults[time(1)..time(2)]);
    decreasing[time(1)..time(2)].copy_from_slice(&faults[time(0)..time(1)]);
    let mut early = faults.to_vec();
    early[time(0)..time(1)].copy_from_slice(&1u64.to_le_bytes());
    let mut late = faults.to_vec();
    late[time(armed - 1)..time(armed)]
        .copy_from_slice(&Nanos::from_micros(10_000_000).0.to_le_bytes());

    let cases = vec![
        ("arming times decrease", decreasing),
        ("armed before it was due", early),
        ("armed when the unarmed spike was due", late),
    ];
    assert_rejected(&config, &plan, &cp, "faults", cases);
}

#[test]
fn a_resealed_fault_section_with_consumables_never_armed_is_rejected() {
    // Two copy failures, a controller reset at a journal step no run of
    // plain accesses reaches, and a torn checkpoint arm at once and stay
    // pending; the second reset never arms.
    let plan = FaultPlan::none()
        .with(
            Nanos::from_micros(2),
            FaultKind::MigrationCopyFail { attempts: 2 },
        )
        .with(
            Nanos::from_micros(2),
            FaultKind::ControllerReset { at_step: 1 << 40 },
        )
        .with(
            Nanos::from_micros(2),
            FaultKind::TornCheckpoint { at_section: 1 },
        )
        .with(
            Nanos::from_micros(10_000_000),
            FaultKind::ControllerReset { at_step: 7 },
        );
    let config = SystemConfig::small();
    let mut sys = System::with_fault_plan(config.clone(), &plan);
    let region = sys.alloc_region(64, Placement::AllOnCxl).unwrap();
    for i in 0..4_000u64 {
        sys.access(region.base.offset((i * 4160) % (64 * 4096)), i % 3 == 0);
    }
    let cp = sys.checkpoint();
    System::restore(config.clone(), &plan, &cp).expect("the untouched image restores");

    // After the log come the pending poisoned reads and copy failures
    // (4 B each), the pending reset steps (a length, then 8 B per step)
    // and the count of torn checkpoints taken.
    let faults = cp.section("faults").unwrap();
    let armed = u64_at(faults, 0) as usize;
    assert_eq!(armed, 3, "the first three faults armed");
    let copy = 8 + 8 * armed + 4;
    let resets = copy + 4;
    assert_eq!(
        u32::from_le_bytes(faults[copy..resets].try_into().unwrap()),
        2
    );
    assert_eq!(u64_at(faults, resets), 1, "one reset pending");
    let torn = resets + 16;
    assert_eq!(faults.len(), torn + 8);
    assert_eq!(u64_at(faults, torn), 0, "no checkpoint torn yet");

    let mut copy_failures = faults.to_vec();
    copy_failures[copy..resets].copy_from_slice(&3u32.to_le_bytes());
    let mut unarmed_reset = faults.to_vec();
    unarmed_reset[resets + 8..torn].copy_from_slice(&7u64.to_le_bytes());
    let mut repeated_reset = faults[..torn].to_vec();
    repeated_reset[resets..resets + 8].copy_from_slice(&2u64.to_le_bytes());
    repeated_reset.extend_from_slice(&faults[resets + 8..]);
    let mut torn_taken = faults.to_vec();
    torn_taken[torn..].copy_from_slice(&2u64.to_le_bytes());

    let cases = vec![
        ("more copy failures than armed", copy_failures),
        ("a reset step of an unarmed entry", unarmed_reset),
        ("one armed reset pending twice", repeated_reset),
        ("more torn checkpoints taken than armed", torn_taken),
    ];
    assert_rejected(&config, &plan, &cp, "faults", cases);
}

#[test]
fn a_resealed_page_table_with_a_frame_outside_its_node_or_mapped_twice_is_rejected() {
    use m5::sim::memory::CXL_BASE_PFN;
    let (config, cp) = small_image(Placement::AllOnCxl);

    // The section is the entry count, then one (frame, flags) pair of 9 B
    // per VPN; the region's first two pages are VPNs 0 and 1.
    let paging = cp.section("paging").unwrap();
    let pfn_at = |vpn: usize| 8 + 9 * vpn;
    assert!(u64_at(paging, pfn_at(0)) >= CXL_BASE_PFN);
    let with_frame = |vpn: usize, pfn: u64| {
        let mut p = paging.to_vec();
        p[pfn_at(vpn)..pfn_at(vpn) + 8].copy_from_slice(&pfn.to_le_bytes());
        p
    };
    // Frames just past each node's end: a parent that grows its reverse
    // map to the frame number stays small.
    let cases = vec![
        (
            "a DDR frame past the node",
            with_frame(0, config.ddr.capacity_frames),
        ),
        (
            "a CXL frame past the node",
            with_frame(0, CXL_BASE_PFN + config.cxl.capacity_frames),
        ),
        (
            "a frame mapped twice",
            with_frame(1, u64_at(paging, pfn_at(0))),
        ),
    ];
    assert_rejected(&config, &FaultPlan::none(), &cp, "paging", cases);
}

#[test]
fn a_resealed_memory_section_with_a_frame_out_of_node_or_listed_twice_is_rejected() {
    use m5::sim::checkpoint::{StateReader, StateWriter};
    let (config, cp) = small_image(Placement::AllOnDdr);

    // The section is each node's free, quarantined and offlined frame
    // indices, DDR first.
    let memory = cp.section("memory").unwrap();
    let mut r = StateReader::new(memory);
    let lists: Vec<Vec<u64>> = (0..6).map(|_| r.get_u64_vec().unwrap()).collect();
    r.expect_end().unwrap();
    let encode = |edit: &dyn Fn(&mut Vec<Vec<u64>>)| {
        let mut lists = lists.clone();
        edit(&mut lists);
        let mut w = StateWriter::new();
        for l in &lists {
            w.put_u64_slice(l);
        }
        w.finish()
    };
    assert_eq!(encode(&|_| {}), memory);
    let (free, offlined) = (0, 2);
    let first_free = lists[free][0];
    let capacity = config.ddr.capacity_frames;

    let cases = vec![
        (
            "a DDR free entry listed twice",
            encode(&|l| l[free].push(first_free)),
        ),
        (
            "a DDR frame index past capacity",
            encode(&|l| l[free][0] = capacity),
        ),
        (
            "a DDR frame both free and offlined",
            encode(&|l| l[offlined].push(first_free)),
        ),
    ];
    assert_rejected(&config, &FaultPlan::none(), &cp, "memory", cases);
}

#[test]
fn a_resealed_journal_with_a_terminal_or_repeated_open_txn_is_rejected() {
    use m5::sim::checkpoint::StateWriter;
    use m5::sim::memory::CXL_BASE_PFN;
    let (config, cp) = small_image(Placement::AllOnCxl);

    // The section is the open transactions (their count, then each one's
    // id, page, source frame, destination node, shadow frame and state),
    // then the step count, the terminal tallies and the fence.
    let journal = cp.section("journal").unwrap();
    assert_eq!(u64_at(journal, 0), 0, "no transaction is open");
    // Each `(id, state)` opens a promotion of page `id` into DDR frame
    // `id`; state 2 is `Remapped`, 3–5 are the terminal states.
    let with_open = |open: &[(u64, u8)]| {
        let mut w = StateWriter::new();
        w.put_u64(open.len() as u64);
        for &(id, state) in open {
            w.put_u64(id);
            w.put_u64(id);
            w.put_u64(CXL_BASE_PFN + id);
            w.put_u8(0);
            w.put_bool(true);
            w.put_u64(id);
            w.put_u8(state);
        }
        let mut payload = w.finish();
        payload.extend_from_slice(&journal[8..]);
        payload
    };
    System::restore(
        config.clone(),
        &FaultPlan::none(),
        &reseal(&cp, "journal", &with_open(&[(0, 2), (1, 2)])),
    )
    .expect("two open transactions in flight restore");

    let cases = vec![
        ("an open committed txn", with_open(&[(0, 3)])),
        ("an open aborted txn", with_open(&[(0, 4)])),
        ("an open rolled-back txn", with_open(&[(0, 2), (1, 5)])),
        ("one id open twice", with_open(&[(0, 2), (0, 2)])),
    ];
    assert_rejected(&config, &FaultPlan::none(), &cp, "journal", cases);
}

#[test]
fn a_resealed_ras_section_with_unsorted_or_repeated_frames_is_rejected() {
    use m5::sim::checkpoint::StateWriter;
    let (config, cp) = small_image(Placement::AllOnCxl);

    // The section is the DDR node, the CXL node, then the fault count. A
    // fault-free node is 55 B: health (1), the correctable-error entries
    // (count, then frame and count of each), the total, the bucket level
    // and time, and the link factor (8 + 8 + 8 + 4), the pending-offline
    // frames (length, then each), the patrol cursor, and no evacuation
    // and no report (1 + 1).
    const NODE: usize = 55;
    let ras = cp.section("ras").unwrap();
    assert_eq!(ras.len(), 2 * NODE + 8);
    let cxl = &ras[NODE..2 * NODE];
    let with_cxl = |ce: &[(u64, u32)], pending: &[u64]| {
        let mut w = StateWriter::new();
        w.put_u64(ce.len() as u64);
        for &(frame, count) in ce {
            w.put_u64(frame);
            w.put_u32(count);
        }
        let ce = w.finish();
        let mut w = StateWriter::new();
        w.put_u64_slice(pending);
        let pending = w.finish();
        [
            &ras[..NODE + 1],
            &ce,
            &cxl[9..37],
            &pending,
            &cxl[45..],
            &ras[2 * NODE..],
        ]
        .concat()
    };
    assert_eq!(with_cxl(&[], &[]), ras);
    System::restore(
        config.clone(),
        &FaultPlan::none(),
        &reseal(&cp, "ras", &with_cxl(&[(5, 1), (7, 2)], &[7])),
    )
    .expect("sorted frames and one queued frame restore");

    let cases = vec![
        ("frames out of order", with_cxl(&[(7, 2), (5, 1)], &[7])),
        ("one frame listed twice", with_cxl(&[(7, 1), (7, 2)], &[7])),
        (
            "one frame queued twice",
            with_cxl(&[(5, 1), (7, 2)], &[7, 7]),
        ),
    ];
    assert_rejected(&config, &FaultPlan::none(), &cp, "ras", cases);
}

#[test]
fn a_resealed_nominator_accumulation_with_a_repeated_pfn_or_empty_mask_is_rejected() {
    use m5::core::manager::M5Manager;
    use m5::core::policy::simple_hwt_policy;
    use m5::sim::checkpoint::{StateReader, StateWriter};
    use m5::workloads::access::AccessRecorder;

    // Sparse hot words in 32 of 512 CXL pages: the HWT-driven Nominator
    // accumulates them across epochs.
    let config = SystemConfig::small()
        .with_cxl_frames(1024)
        .with_ddr_frames(256);
    let mut sys = System::new(config.clone());
    let region = sys.alloc_region(512, Placement::AllOnCxl).unwrap();
    let mut rec = AccessRecorder::new();
    let mut x = 7u64;
    for i in 0..200_000u64 {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let r = x >> 33;
        let page = if i % 4 == 0 { r % 512 } else { (r % 32) * 16 };
        rec.push(page * 4096 + (r % 4) * 64, i % 5 == 0, false);
    }
    let mut wl = rec.into_workload("hwt", region.base);
    let mut m5 = M5Manager::new(simple_hwt_policy());
    m5::sim::system::run(&mut sys, &mut wl, &mut m5, u64::MAX);
    let cp = sys.checkpoint();
    let mut w = StateWriter::new();
    m5.save(&sys, &mut w);
    let section = w.finish();

    let restore = |payload: &[u8]| {
        let mut sys = System::restore(config.clone(), &FaultPlan::none(), &cp).unwrap();
        let mut r = StateReader::new(payload);
        M5Manager::restore(simple_hwt_policy(), &mut sys, &mut r).and_then(|_| r.expect_end())
    };
    restore(&section).expect("the untouched section restores");

    // The section opens with the config string (a u32 length, then its
    // bytes) and one strike byte per tracker slot; then the nominator's
    // `_HPA` list and its accumulation list, each a u64 length followed
    // by (pfn, count, mask) u64 triples.
    let hpa = 4 + u32::from_le_bytes(section[..4].try_into().unwrap()) as usize + 2;
    let acc = hpa + 8 + 24 * u64_at(&section, hpa) as usize;
    let n = u64_at(&section, acc) as usize;
    assert!(n >= 2, "the accumulation holds {n} pages");
    let entry = |i: usize| acc + 8 + 24 * i;
    assert!(u64_at(&section, entry(0)) < u64_at(&section, entry(1)));

    let mut repeated = section.clone();
    repeated.copy_within(entry(0)..entry(0) + 8, entry(1));
    let mut decreasing = section.clone();
    decreasing[entry(0)..entry(0) + 8].copy_from_slice(&section[entry(1)..entry(1) + 8]);
    decreasing[entry(1)..entry(1) + 8].copy_from_slice(&section[entry(0)..entry(0) + 8]);
    let mut empty_mask = section.clone();
    empty_mask[entry(n - 1) + 16..entry(n)].fill(0);

    for (what, payload) in [
        ("a pfn listed twice", repeated),
        ("pfns out of order", decreasing),
        ("an empty mask", empty_mask),
    ] {
        match restore(&payload) {
            Err(CodecError::BadValue { .. }) => {}
            other => panic!("{what}: expected a typed error, got {other:?}"),
        }
    }
}
