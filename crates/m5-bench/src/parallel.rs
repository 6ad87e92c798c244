//! Deterministic parallel execution of the bench-suite's embarrassingly
//! parallel work: crash-sweep points, soak campaigns, and figure-bench
//! config grids.
//!
//! Every sweep point, campaign, and grid cell owns its *entire* world —
//! a fresh [`cxl_sim::system::System`], workload, and manager built from
//! an index-addressable spec — so points share no mutable state and can
//! run on any thread. The only ordering that matters is the order results
//! are *merged* in, and [`par_indexed`] writes each result into its
//! input-index slot regardless of OS scheduling. Together those two
//! properties make the parallel drivers **byte-identical** to their
//! sequential counterparts: same specs in, same artifact text out
//! (`tests/crash_sweep.rs` and `tests/soak.rs` assert exactly this).

use crate::crash_sweep::{baseline, run_with_reset, SweepRun, SweepSpec};
use std::collections::VecDeque;
use std::sync::Mutex;

/// Runs `f` over `items` on `available_parallelism()` scoped threads,
/// returning results in input order — the generic fan-out every driver
/// below is built on. Workers pull `(index, item)` jobs from one shared
/// queue and deposit each result in its index slot. With one core (or
/// one item) this is exactly a sequential loop. A panic in any worker
/// propagates when the scope joins.
pub fn par_indexed<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    let threads = std::thread::available_parallelism()
        .map_or(1, |t| t.get())
        .min(n);
    if threads <= 1 {
        return items.into_iter().map(f).collect();
    }
    let queue = Mutex::new(items.into_iter().enumerate().collect::<VecDeque<_>>());
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                let job = queue.lock().expect("queue poisoned").pop_front();
                let Some((i, item)) = job else { break };
                *slots[i].lock().expect("slot poisoned") = Some(f(item));
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("slot poisoned")
                .expect("every job ran")
        })
        .collect()
}

/// The outcome of one workload's full crash sweep.
#[derive(Clone, Debug)]
pub struct SweepOutcome {
    /// The fault-free baseline run (defines the sweep range).
    pub baseline: SweepRun,
    /// One run per reset point, ordered by `at_step` (`1..=baseline.steps`).
    pub points: Vec<SweepRun>,
}

/// Runs one workload's crash sweep with every reset point fanned across
/// the thread pool. Each point builds its own `System` from the spec, so
/// results depend only on `(spec, at_step)`; the merge is in step order.
pub fn crash_sweep_parallel(s: &SweepSpec) -> SweepOutcome {
    let base = baseline(s);
    let points = par_indexed((1..=base.steps).collect(), |at_step| {
        run_with_reset(s, at_step)
    });
    SweepOutcome {
        baseline: base,
        points,
    }
}

/// Runs one workload's crash sweep strictly sequentially — the reference
/// the determinism tests compare [`crash_sweep_parallel`] against.
pub fn crash_sweep_sequential(s: &SweepSpec) -> SweepOutcome {
    let base = baseline(s);
    let points = (1..=base.steps).map(|k| run_with_reset(s, k)).collect();
    SweepOutcome {
        baseline: base,
        points,
    }
}

impl SweepOutcome {
    /// The canonical line-oriented artifact for this sweep: one line per
    /// point with every observable field, suitable for byte comparison
    /// between the parallel and sequential drivers.
    pub fn artifact(&self, name: &str) -> String {
        let mut out = format!(
            "# crash sweep '{}': baseline steps={} committed={} accesses={}\n",
            name, self.baseline.steps, self.baseline.committed, self.baseline.accesses
        );
        for r in &self.points {
            out.push_str(&format!(
                "step {} fired={} accesses={} steps={} committed={} recovery={} violations={}\n",
                r.at_step.unwrap_or(0),
                r.fired,
                r.accesses,
                r.steps,
                r.committed,
                r.final_recovery
                    .as_ref()
                    .map(|rec| format!("{rec:?}"))
                    .unwrap_or_else(|| "none".into()),
                r.violations.join("; "),
            ));
        }
        out
    }

    /// Indices (`at_step` values) of points that violate the sweep
    /// contract: the reset must fire, the access budget must complete,
    /// and no invariant may be violated at exit.
    pub fn failing_steps(&self, want_accesses: u64) -> Vec<u64> {
        self.points
            .iter()
            .filter(|r| !r.fired || r.accesses != want_accesses || !r.violations.is_empty())
            .map(|r| r.at_step.unwrap_or(0))
            .collect()
    }
}

/// One cell of a figure-bench configuration grid: a named configuration
/// evaluated to a scalar (the shape `fig07`-style DSE sweeps produce).
#[derive(Clone, Debug, PartialEq)]
pub struct GridCell {
    /// Row label (e.g. benchmark name).
    pub row: String,
    /// Column label (e.g. tracker size).
    pub col: String,
    /// The measured value.
    pub value: f64,
}

/// Evaluates a full `rows × cols` configuration grid in parallel,
/// returning cells in row-major order. `eval` must be a pure function of
/// its `(row, col)` cell — every figure-bench config grid satisfies this
/// because each cell builds its own tracker/system from the labels.
pub fn grid_parallel<F>(rows: &[String], cols: &[String], eval: F) -> Vec<GridCell>
where
    F: Fn(&str, &str) -> f64 + Sync,
{
    let cells: Vec<(String, String)> = rows
        .iter()
        .flat_map(|r| cols.iter().map(move |c| (r.clone(), c.clone())))
        .collect();
    par_indexed(cells, |(row, col)| {
        let value = eval(&row, &col);
        GridCell { row, col, value }
    })
}

/// Sequential reference for [`grid_parallel`].
pub fn grid_sequential<F>(rows: &[String], cols: &[String], eval: F) -> Vec<GridCell>
where
    F: Fn(&str, &str) -> f64,
{
    rows.iter()
        .flat_map(|r| cols.iter().map(|c| (r.clone(), c.clone())))
        .map(|(row, col)| {
            let value = eval(&row, &col);
            GridCell { row, col, value }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_indexed_preserves_order() {
        let out = par_indexed((0..64u64).collect(), |i| i * 3);
        assert_eq!(out, (0..64u64).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let out: Vec<u64> = par_indexed(Vec::<u64>::new(), |x| x);
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic]
    fn worker_panics_propagate() {
        par_indexed((0..8usize).collect(), |i| {
            if i == 3 {
                panic!("boom");
            }
        });
    }

    #[test]
    fn grid_matches_sequential_reference() {
        let rows: Vec<String> = ["a", "b", "c"].iter().map(|s| s.to_string()).collect();
        let cols: Vec<String> = ["x", "y"].iter().map(|s| s.to_string()).collect();
        let eval = |r: &str, c: &str| (r.len() * 7 + c.len() * 3) as f64;
        assert_eq!(
            grid_parallel(&rows, &cols, eval),
            grid_sequential(&rows, &cols, eval)
        );
    }
}
