//! Persist-event crash sweeps as [`Sweep`] impls.
//!
//! [`slpmt_workloads::crashsweep`] defines the per-point check: replay
//! a fixed seeded trace with the device armed to crash at persist
//! event `k`, recover, compare against the volatile oracle.
//! [`CrashSweep`] runs those checks over a scheme × workload matrix on
//! the [`sweep`](crate::sweep) engine, every event (`1..=N`) or a
//! seeded sample of them; each ascending chunk of a case's points is
//! served by one streaming oracle over one generated trace, forking
//! points from its crash-free replay cursor. [`McSweep`] does the same
//! for the multi-core crash check (`slpmt_core::multi`), over `0..=N`.
//!
//! Failures come back as reproducible `(scheme, workload, seed, k)`
//! tuples; `slpmt crashsweep` and the `tests/crash_sweep.rs` gate
//! print them verbatim.

use crate::sweep::{Replay, Sweep};
use slpmt_core::multi::{mc_check_point, mc_count_events, mc_trace_crash_at};
use slpmt_core::{McFailure, McSweepCase, SchemeKind, TraceRecord};
use slpmt_workloads::crashsweep::{
    check_point_streaming, count_events, sample_points, trace_crash_at, trace_ops, StreamingOracle,
    SweepCase, SweepFailure,
};
use slpmt_workloads::runner::IndexKind;
use slpmt_workloads::ycsb::MixSpec;

/// The scheme × workload matrix of sweep cases, one per pair, all
/// sharing the trace parameters.
pub fn sweep_cases<S: Into<SchemeKind> + Copy>(
    schemes: &[S],
    kinds: &[IndexKind],
    seed: u64,
    ops: usize,
) -> Vec<SweepCase> {
    sweep_cases_mixed(schemes, kinds, seed, 0, ops, MixSpec::CHURN)
}

/// [`sweep_cases`] under a named mix with a load phase — the YCSB
/// adversarial-traffic matrix.
pub fn sweep_cases_mixed<S: Into<SchemeKind> + Copy>(
    schemes: &[S],
    kinds: &[IndexKind],
    seed: u64,
    load: usize,
    ops: usize,
    mix: MixSpec,
) -> Vec<SweepCase> {
    let mut cases = Vec::with_capacity(schemes.len() * kinds.len());
    for &kind in kinds {
        for &scheme in schemes {
            cases.push(SweepCase::with_mix(scheme, kind, seed, load, ops, mix));
        }
    }
    cases
}

/// The persist-event crash sweep over [`SweepCase`]s.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashSweep {
    /// Every persist event `1..=N` of every case.
    Exhaustive,
    /// This many seeded points per case, matching
    /// [`sweep_points`](slpmt_workloads::crashsweep::sweep_points) —
    /// the mode for the big named-mix traces, whose event counts dwarf
    /// what an exhaustive pass can visit.
    Sampled(usize),
}

impl Sweep for CrashSweep {
    type Cell = SweepCase;
    type Point = u64;
    type Outcome = ();
    type Failure = SweepFailure;
    const LABEL: &'static str = "crash sweep";

    fn points(&self, case: &SweepCase) -> Vec<u64> {
        let n = count_events(case);
        match *self {
            CrashSweep::Exhaustive => (1..=n).collect(),
            CrashSweep::Sampled(count) => sample_points(case.seed, n, count),
        }
    }

    fn crash_free_failure(&self, case: &SweepCase, msg: String) -> SweepFailure {
        SweepFailure {
            case: *case,
            k: 0,
            detail: format!("crash-free run failed: {msg}"),
        }
    }

    /// One streaming oracle over one generated trace serves the whole
    /// chunk: O(trace + chunk·replay), no per-point model rebuild.
    fn check_chunk(&self, case: &SweepCase, ks: &[u64]) -> Vec<Result<(), SweepFailure>> {
        let ops = trace_ops(case);
        let mut oracle = StreamingOracle::new(&ops);
        ks.iter()
            .map(|&k| check_point_streaming(case, &mut oracle, k))
            .collect()
    }
}

impl Replay for CrashSweep {
    fn trace_at(&self, case: &SweepCase, k: u64) -> Vec<TraceRecord> {
        trace_crash_at(case, k)
    }

    fn replay_stem(&self, c: &SweepCase, k: u64) -> String {
        format!("crashsweep-{}-{}-s{}-k{k}", c.scheme, c.kind, c.seed)
    }

    fn failed_at(fail: &SweepFailure) -> (SweepCase, u64) {
        (fail.case, fail.k)
    }
}

/// The multi-core persist-event crash sweep: every event `0..=N` of
/// every [`McSweepCase`], recovery checked against the admissible-value
/// oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct McSweep;

impl Sweep for McSweep {
    type Cell = McSweepCase;
    type Point = u64;
    type Outcome = ();
    type Failure = McFailure;
    const LABEL: &'static str = "mc sweep";

    fn points(&self, case: &McSweepCase) -> Vec<u64> {
        (0..=mc_count_events(case)).collect()
    }

    fn crash_free_failure(&self, case: &McSweepCase, msg: String) -> McFailure {
        McFailure {
            case: *case,
            k: 0,
            detail: format!("crash-free run failed: {msg}"),
        }
    }

    fn check_chunk(&self, case: &McSweepCase, ks: &[u64]) -> Vec<Result<(), McFailure>> {
        ks.iter().map(|&k| mc_check_point(case, k)).collect()
    }
}

impl Replay for McSweep {
    fn trace_at(&self, case: &McSweepCase, k: u64) -> Vec<TraceRecord> {
        mc_trace_crash_at(case, k)
    }

    fn replay_stem(&self, c: &McSweepCase, k: u64) -> String {
        format!("mc-{}-c{}-s{}-{}-k{k}", c.scheme, c.cores, c.seed, c.sched)
    }

    fn failed_at(fail: &McFailure) -> (McSweepCase, u64) {
        (fail.case, fail.k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::threads;
    use crate::sweep::run;
    use slpmt_core::Scheme;

    #[test]
    fn matrix_is_kind_major_and_complete() {
        let cases = sweep_cases(
            &[Scheme::Fg, Scheme::Slpmt],
            &[IndexKind::Hashtable, IndexKind::Heap],
            7,
            10,
        );
        assert_eq!(cases.len(), 4);
        assert_eq!(cases[0].kind, IndexKind::Hashtable);
        assert_eq!(cases[1].scheme, Scheme::Slpmt.into());
        assert_eq!(cases[2].kind, IndexKind::Heap);
    }

    #[test]
    fn tiny_sweep_is_clean() {
        let cases = sweep_cases(&[Scheme::Fg], &[IndexKind::Heap], 3, 4);
        let report = run(&CrashSweep::Exhaustive, &cases, threads());
        assert!(report.points > 0);
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn sampled_mixed_sweep_is_clean_and_counts_points() {
        let cases = sweep_cases_mixed(
            &[Scheme::Slpmt],
            &[IndexKind::Hashtable],
            11,
            8,
            16,
            MixSpec::DELETE_HEAVY,
        );
        let report = run(&CrashSweep::Sampled(6), &cases, threads());
        assert_eq!(report.cases, 1);
        assert_eq!(report.points, 6);
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn chunked_sweep_matches_serial_sweep() {
        // The chunked parallel pass must find exactly what the serial
        // single-oracle sweep finds (here: nothing), over the same
        // point domain.
        let case =
            SweepCase::with_mix(Scheme::Fg, IndexKind::Heap, 5, 4, 10, MixSpec::DELETE_HEAVY);
        let report = run(&CrashSweep::Exhaustive, &[case], threads());
        let serial = slpmt_workloads::crashsweep::sweep_serial(&case);
        assert_eq!(report.points as u64, count_events(&case));
        assert_eq!(report.failures.len(), serial.len());
    }
}
