//! The media-fault sweep as a [`Sweep`] impl.
//!
//! [`slpmt_workloads::faultsweep`] defines the per-point check: replay
//! a seeded trace with a [`FaultPlan`] armed — torn crash-boundary
//! event, poisoned lines, flipped log bits, drain jitter — crash at
//! persist event `k`, recover, and verify the degradation rules.
//! [`FaultSweep`] runs those checks over a scheme × workload × plan
//! matrix on the [`sweep`](crate::sweep) engine, at seeded crash points
//! drawn from each cell's clean event count.
//!
//! Failures come back as reproducible `(scheme, workload, seed, k,
//! plan)` tuples; `slpmt faults` and the `tests/fault_properties.rs`
//! gate print them verbatim, and `slpmt faults --plan … --at …`
//! replays a single one.

use crate::crashsweep::sweep_cases;
use crate::sweep::{Replay, Sweep};
use slpmt_core::{SchemeKind, TraceRecord};
use slpmt_pmem::FaultPlan;
use slpmt_workloads::crashsweep::SweepCase;
use slpmt_workloads::faultsweep::{
    check_fault_point, default_plans, fault_points, trace_fault_at, FaultCase, FaultFailure,
};
use slpmt_workloads::runner::IndexKind;

/// The scheme × workload × plan matrix: every base pair crossed with
/// the given plans (or [`default_plans`] when `plans` is empty).
pub fn fault_cases<S: Into<SchemeKind> + Copy>(
    schemes: &[S],
    kinds: &[IndexKind],
    seed: u64,
    ops: usize,
    plans: &[FaultPlan],
) -> Vec<FaultCase> {
    fault_cases_mixed(&sweep_cases(schemes, kinds, seed, ops), plans)
}

/// [`fault_cases`] over mixed-workload bases — every base case crossed
/// with the plans (or [`default_plans`] when `plans` is empty). The
/// YCSB gates use this to run the media-fault battery under
/// delete-heavy and zipfian traffic.
pub fn fault_cases_mixed(bases: &[SweepCase], plans: &[FaultPlan]) -> Vec<FaultCase> {
    let defaults;
    let plans = if plans.is_empty() {
        defaults = default_plans(bases.first().map_or(0, |b| b.seed));
        &defaults
    } else {
        plans
    };
    let mut cases = Vec::with_capacity(bases.len() * plans.len());
    for &base in bases {
        for &plan in plans {
            cases.push(FaultCase { base, plan });
        }
    }
    cases
}

/// The media-fault sweep: this many seeded crash points per
/// [`FaultCase`] ([`fault_points`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSweep(pub usize);

impl Sweep for FaultSweep {
    type Cell = FaultCase;
    type Point = u64;
    type Outcome = ();
    type Failure = FaultFailure;
    const LABEL: &'static str = "fault sweep";
    const CELLS: &'static str = "cells";

    fn points(&self, case: &FaultCase) -> Vec<u64> {
        fault_points(case, self.0)
    }

    fn crash_free_failure(&self, case: &FaultCase, msg: String) -> FaultFailure {
        FaultFailure {
            case: *case,
            k: 0,
            detail: format!("crash-free run failed: {msg}"),
        }
    }

    fn check_chunk(&self, case: &FaultCase, ks: &[u64]) -> Vec<Result<(), FaultFailure>> {
        ks.iter().map(|&k| check_fault_point(case, k)).collect()
    }
}

impl Replay for FaultSweep {
    fn trace_at(&self, case: &FaultCase, k: u64) -> Vec<TraceRecord> {
        trace_fault_at(case, k)
    }

    fn replay_stem(&self, c: &FaultCase, k: u64) -> String {
        let b = &c.base;
        format!(
            "faultsweep-{}-{}-s{}-p{}-k{k}",
            b.scheme, b.kind, b.seed, c.plan
        )
    }

    fn failed_at(fail: &FaultFailure) -> (FaultCase, u64) {
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
    fn matrix_crosses_plans_and_defaults_apply() {
        let cases = fault_cases(&[Scheme::Fg, Scheme::Slpmt], &[IndexKind::Heap], 7, 10, &[]);
        assert_eq!(cases.len(), 2 * default_plans(7).len());
        let one = [FaultPlan {
            tear: true,
            ..FaultPlan::NONE
        }];
        assert_eq!(
            fault_cases(&[Scheme::Fg], &[IndexKind::Heap], 7, 10, &one).len(),
            1
        );
    }

    #[test]
    fn tiny_fault_sweep_is_clean() {
        let cases = fault_cases(&[Scheme::Fg], &[IndexKind::Heap], 3, 4, &[]);
        let report = run(&FaultSweep(2), &cases, threads());
        assert!(report.points > 0);
        assert!(report.is_clean(), "{report}");
    }
}
