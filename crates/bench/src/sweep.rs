//! The one sweep engine behind every crash battery.
//!
//! The crash, media-fault, multi-core and chaos batteries share one
//! pipeline, and each states only its cell and point logic as a
//! [`Sweep`] impl. [`run`] derives every cell's points in one parallel
//! pass (a panicking crash-free run becomes the cell's one failure),
//! cuts each cell's points into ascending chunks, checks the chunks in
//! a second pass, and merges the verdicts in `(cell, point)` order, so
//! the [`Report`] is identical for any worker count. A chunk may carry
//! state across its points: the crash sweep serves one chunk from one
//! streaming oracle and replay cursor.

use crate::runner::par_map_with;
use slpmt_core::{panic_msg, TraceRecord};
use std::cell::Cell;
use std::fmt;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Once;

/// One crash battery: its cells, their points and the per-point check.
pub trait Sweep: Sync {
    /// One independent cell of the matrix (a scheme × workload × … case).
    type Cell: Copy + Send + Sync;
    /// One point of a cell (usually the persist event `k` the crash is
    /// armed at).
    type Point: Copy + Send + Sync;
    /// What a passing point reports (`()` for pass/fail batteries).
    type Outcome: Send;
    /// A reproducible failure tuple.
    type Failure: fmt::Display + Send;
    /// Report heading, e.g. `"crash sweep"`.
    const LABEL: &'static str;
    /// What the heading calls the cells.
    const CELLS: &'static str = "cases";

    /// Pass 1: the cell's points, ascending, derived from a crash-free
    /// run. Panics when the crash-free run already fails its oracle.
    fn points(&self, cell: &Self::Cell) -> Vec<Self::Point>;

    /// The failure reported for a cell whose [`points`](Sweep::points)
    /// derivation panicked with `msg`.
    fn crash_free_failure(&self, cell: &Self::Cell, msg: String) -> Self::Failure;

    /// Pass 2: checks one ascending chunk of a cell's points, one
    /// verdict per point in order.
    fn check_chunk(
        &self,
        cell: &Self::Cell,
        points: &[Self::Point],
    ) -> Vec<Result<Self::Outcome, Self::Failure>>;
}

/// A sweep whose points can be re-run with event tracing on — the
/// capture path behind `--at K` replays and failure auto-dumps.
pub trait Replay: Sweep<Point = u64> {
    /// The event trace of point `k`: the same replay as the check,
    /// with tracing enabled, up to and including log replay.
    fn trace_at(&self, cell: &Self::Cell, k: u64) -> Vec<TraceRecord>;
    /// The deterministic file stem a capture of `(cell, k)` is dumped
    /// under.
    fn replay_stem(&self, cell: &Self::Cell, k: u64) -> String;
    /// The `(cell, k)` a failure reproduces at.
    fn failed_at(failure: &Self::Failure) -> (Self::Cell, u64);
}

/// Outcome of a sweep.
pub struct Report<S: Sweep> {
    /// Cells swept.
    pub cases: usize,
    /// Points checked across all cells.
    pub points: usize,
    /// Every failure: crash-free failures in cell order, then failing
    /// points in `(cell, point)` order.
    pub failures: Vec<S::Failure>,
    /// One entry per checked point, in `(cell, point)` order: the
    /// outcome, or `None` where the point failed.
    pub outcomes: Vec<Option<S::Outcome>>,
}

impl<S: Sweep> Report<S> {
    /// `true` when every point passed.
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty()
    }
}

impl<S: Sweep> fmt::Display for Report<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{}: {} points across {} {}, {} failure(s)",
            S::LABEL,
            self.points,
            self.cases,
            S::CELLS,
            self.failures.len()
        )?;
        for fail in &self.failures {
            writeln!(f, "  {fail}")?;
        }
        Ok(())
    }
}

/// Work-unit size for the point pass: a function of the point count
/// only (never the worker count), so chunk boundaries — and therefore
/// the exact per-chunk state — are identical for any `SLPMT_THREADS`.
fn chunk_len(points: usize) -> usize {
    (points / 64).max(16)
}

thread_local! {
    static QUIET: Cell<bool> = const { Cell::new(false) };
}

/// Runs `f` under `catch_unwind` with the panic hook silenced on this
/// thread. The hook is wrapped once per process, so concurrent sweeps
/// never race on swapping it; threads outside a sweep keep the
/// original hook.
fn quietly<R>(f: impl FnOnce() -> R) -> std::thread::Result<R> {
    static WRAP: Once = Once::new();
    WRAP.call_once(|| {
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !QUIET.with(Cell::get) {
                hook(info);
            }
        }));
    });
    let was = QUIET.with(|q| q.replace(true));
    let r = catch_unwind(AssertUnwindSafe(f));
    QUIET.with(|q| q.set(was));
    r
}

/// Runs `sweep` over `cells` on `workers` threads and merges the
/// verdicts in cell and point order.
pub fn run<S: Sweep>(sweep: &S, cells: &[S::Cell], workers: usize) -> Report<S> {
    let derived = par_map_with(cells, workers, |cell| {
        quietly(|| sweep.points(cell)).map_err(|p| sweep.crash_free_failure(cell, panic_msg(p)))
    });
    let mut failures = Vec::new();
    let mut cell_points = Vec::with_capacity(cells.len());
    for (cell, points) in cells.iter().zip(derived) {
        match points {
            Ok(points) => cell_points.push((*cell, points)),
            Err(fail) => failures.push(fail),
        }
    }
    let work: Vec<(S::Cell, &[S::Point])> = cell_points
        .iter()
        .flat_map(|(cell, points)| points.chunks(chunk_len(points.len())).map(|c| (*cell, c)))
        .collect();
    let verdicts = par_map_with(&work, workers, |(cell, chunk)| {
        let verdicts =
            quietly(|| sweep.check_chunk(cell, chunk)).unwrap_or_else(|p| resume_unwind(p));
        debug_assert_eq!(verdicts.len(), chunk.len(), "one verdict per point");
        verdicts
    });
    let mut outcomes = Vec::new();
    for verdict in verdicts.into_iter().flatten() {
        match verdict {
            Ok(outcome) => outcomes.push(Some(outcome)),
            Err(fail) => {
                outcomes.push(None);
                failures.push(fail);
            }
        }
    }
    Report {
        cases: cells.len(),
        points: outcomes.len(),
        failures,
        outcomes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Cell `n` has points `1..=n`; cell 0 fails its crash-free run,
    /// and every multiple of 7 fails its check. Chunks record their
    /// first point so the chunking is observable.
    struct Toy;

    impl Sweep for Toy {
        type Cell = u64;
        type Point = u64;
        type Outcome = (u64, u64);
        type Failure = String;
        const LABEL: &'static str = "toy sweep";

        fn points(&self, &n: &u64) -> Vec<u64> {
            assert!(n > 0, "empty cell");
            (1..=n).collect()
        }

        fn crash_free_failure(&self, n: &u64, msg: String) -> String {
            format!("cell {n}: {msg}")
        }

        fn check_chunk(&self, n: &u64, ks: &[u64]) -> Vec<Result<(u64, u64), String>> {
            ks.iter()
                .map(|&k| match k % 7 {
                    0 => Err(format!("cell {n} k={k}")),
                    _ => Ok((k, ks[0])),
                })
                .collect()
        }
    }

    #[test]
    fn merges_in_cell_and_point_order_at_any_worker_count() {
        let cells = [8, 0, 40];
        let serial = run(&Toy, &cells, 1);
        // The serial pass ran on this thread; its hook is audible again.
        assert!(!QUIET.with(Cell::get));
        assert_eq!(serial.cases, 3);
        assert_eq!(serial.points, 48);
        assert_eq!(
            serial.failures,
            [
                "cell 0: empty cell",
                "cell 8 k=7",
                "cell 40 k=7",
                "cell 40 k=14",
                "cell 40 k=21",
                "cell 40 k=28",
                "cell 40 k=35",
            ]
        );
        let ks: Vec<u64> = serial.outcomes.iter().flatten().map(|o| o.0).collect();
        assert_eq!(ks.len(), 48 - 6);
        // Chunks of 16 points: cell 40 splits at k = 17 and 33.
        let starts: Vec<u64> = serial.outcomes.iter().flatten().map(|o| o.1).collect();
        assert_eq!(starts[8..].iter().max(), Some(&33));
        assert!(serial
            .to_string()
            .starts_with("toy sweep: 48 points across 3 cases, 7 failure(s)"));
        for workers in [2, 4, 7] {
            let r = run(&Toy, &cells, workers);
            assert_eq!(r.failures, serial.failures);
            assert_eq!(r.outcomes, serial.outcomes);
        }
    }

    #[test]
    fn chunks_depend_on_the_point_count_only() {
        assert_eq!(chunk_len(0), 16);
        assert_eq!(chunk_len(1000), 16);
        assert_eq!(chunk_len(6400), 100);
    }
}
