//! Golden-trace differential tests: three seeded workloads run through the
//! standard machine + M5 manager with telemetry enabled; the canonical
//! metrics snapshot must match the checked-in golden within per-metric
//! tolerances.
//!
//! * Regenerate: `UPDATE_GOLDENS=1 cargo test -p m5-bench --test golden`
//! * CI artifacts: set `M5_GOLDEN_ARTIFACTS=<dir>` to dump each run's
//!   JSONL event trace and rendered metrics there.

use m5_bench::golden::{diff, render, run_golden, GoldenSpec, GOLDENS};
use std::path::PathBuf;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("goldens")
        .join(format!("golden_{name}.txt"))
}

fn artifact_dir() -> Option<PathBuf> {
    let dir = PathBuf::from(std::env::var_os("M5_GOLDEN_ARTIFACTS")?);
    std::fs::create_dir_all(&dir).ok()?;
    Some(dir)
}

fn check(g: &GoldenSpec) {
    let dir = artifact_dir();
    let jsonl = dir
        .as_ref()
        .map(|d| d.join(format!("golden_{}.trace.jsonl", g.name)));
    let (snap, report) = run_golden(g, jsonl.as_deref());
    assert!(report.accesses > 0, "golden '{}' ran no accesses", g.name);
    let actual = render(g.name, &snap);
    if let Some(d) = &dir {
        let _ = std::fs::write(d.join(format!("golden_{}.metrics.txt", g.name)), &actual);
    }
    let path = golden_path(g.name);
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {}: {e}\nregenerate with UPDATE_GOLDENS=1 \
             cargo test -p m5-bench --test golden",
            path.display()
        )
    });
    let mismatches = diff(&expected, &actual);
    assert!(
        mismatches.is_empty(),
        "golden '{}' drifted ({} metrics):\n{}",
        g.name,
        mismatches.len(),
        mismatches.join("\n")
    );
}

#[test]
fn golden_graph() {
    check(&GOLDENS[0]);
}

#[test]
fn golden_kv() {
    check(&GOLDENS[1]);
}

#[test]
fn golden_spec() {
    check(&GOLDENS[2]);
}

/// Two consecutive runs of the same golden spec must render byte-identical
/// snapshots — the determinism the whole harness rests on.
#[test]
fn golden_runs_are_deterministic() {
    let g = &GOLDENS[0];
    let (a, ra) = run_golden(g, None);
    let (b, rb) = run_golden(g, None);
    assert_eq!(ra, rb, "run reports diverged across identical runs");
    assert_eq!(
        render(g.name, &a),
        render(g.name, &b),
        "rendered snapshots diverged across identical runs"
    );
}
