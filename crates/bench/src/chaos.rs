//! The crash-during-serve chaos sweep as a [`Sweep`] impl.
//!
//! [`slpmt_kv::chaos`] defines the per-point check: serve a pipelined
//! session stream until an armed crash (optionally with a media
//! [`FaultPlan`]) trips mid-dispatch, recover, pin the zero-lost-acks
//! contract, then restart the clients and drive the seeded
//! retry/backoff tail through the degraded window to oracle-checked
//! convergence. [`ChaosSweep`] runs a mix × scheme matrix of those
//! points on the [`sweep`](crate::sweep) engine: each case's seeded
//! crash points under a clean crash and under every plan, plus one
//! poisoned probe that proves the battery's teeth — a deliberately
//! corrupted recovered state **must** fail the check.
//! [`ChaosTally`] folds the engine's report into the strict/lossy
//! counts, the contract counters and the order-sensitive digest.
//!
//! Every number in the tally derives from the simulated cycle clock
//! and the deterministic point outcomes, so `slpmt chaos --json` is
//! byte-identical for a given matrix at any `SLPMT_THREADS`.

use crate::sweep::{Report, Sweep};
use slpmt_core::SchemeKind;
use slpmt_kv::chaos::{
    chaos_points, check_chaos_point, count_chaos_events, ChaosCase, ChaosOutcome, ChaosReport,
};
use slpmt_kv::service::digest64;
use slpmt_pmem::FaultPlan;
use slpmt_workloads::{IndexKind, MixSpec};
use std::fmt;

/// The mix × scheme chaos matrix (mix-major, matching the repo's
/// kind-major matrix convention), all on the same backend.
pub fn chaos_cases<S: Into<SchemeKind> + Copy>(
    schemes: &[S],
    kind: IndexKind,
    seed: u64,
    requests: usize,
    mixes: &[MixSpec],
) -> Vec<ChaosCase> {
    let mut cases = Vec::with_capacity(schemes.len() * mixes.len());
    for &mix in mixes {
        for &scheme in schemes {
            cases.push(ChaosCase::new(scheme.into(), kind, seed, requests).with_mix(mix));
        }
    }
    cases
}

/// One chaos point of a case: the persist event the crash trips at,
/// the media faults armed alongside it, and whether it is the case's
/// poisoned probe.
#[derive(Debug, Clone, Copy)]
pub struct ChaosPoint {
    /// Media faults armed alongside the crash (`None` = clean crash).
    pub plan: Option<FaultPlan>,
    /// Persist event the crash is armed at.
    pub k: u64,
    /// The poisoned non-vacuity probe, which must fail the check.
    pub poison: bool,
}

/// What a chaos point reports when it does not fail.
#[derive(Debug, Clone)]
pub enum ChaosVerdict {
    /// A point that held the contract.
    Held(ChaosOutcome),
    /// A poisoned probe: `None` when the checker rejected it, else the
    /// vacuous-battery failure line.
    Poison(Option<String>),
}

/// The chaos sweep: `points_per_plan` seeded crash points per case
/// under a clean crash plus each of `plans` (typically
/// [`default_plans`](slpmt_workloads::faultsweep::default_plans)), and
/// one poisoned probe per case at the median crash point.
#[derive(Debug, Clone)]
pub struct ChaosSweep {
    /// Media-fault plans, each crossed with every crash point.
    pub plans: Vec<FaultPlan>,
    /// Seeded crash points per case and plan variant.
    pub points_per_plan: usize,
}

impl Sweep for ChaosSweep {
    type Cell = ChaosCase;
    type Point = ChaosPoint;
    type Outcome = ChaosVerdict;
    type Failure = String;
    const LABEL: &'static str = "chaos sweep";

    fn points(&self, case: &ChaosCase) -> Vec<ChaosPoint> {
        let ks = chaos_points(case, count_chaos_events(case), self.points_per_plan);
        let point = |plan, k, poison| ChaosPoint { plan, k, poison };
        let plans = std::iter::once(None).chain(self.plans.iter().copied().map(Some));
        let mut points: Vec<ChaosPoint> = plans
            .flat_map(|plan| ks.iter().map(move |&k| point(plan, k, false)))
            .collect();
        points.extend(ks.get(ks.len() / 2).map(|&k| point(None, k, true)));
        points
    }

    fn crash_free_failure(&self, case: &ChaosCase, _msg: String) -> String {
        format!("{case}: crash-free chaos run failed")
    }

    fn check_chunk(
        &self,
        case: &ChaosCase,
        points: &[ChaosPoint],
    ) -> Vec<Result<ChaosVerdict, String>> {
        points
            .iter()
            .map(|p| {
                if !p.poison {
                    return check_chaos_point(case, p.plan.as_ref(), p.k, false)
                        .map(ChaosVerdict::Held);
                }
                let caught = check_chaos_point(case, None, p.k, true).is_err();
                Ok(ChaosVerdict::Poison((!caught).then(|| {
                    format!(
                        "{case} @k={}: poisoned state passed the oracle check (vacuous battery)",
                        p.k
                    )
                })))
            })
            .collect()
    }
}

/// The chaos-specific fold of a chaos sweep's [`Report`].
#[derive(Debug, Clone, Default)]
pub struct ChaosTally {
    /// Cases swept (mix × scheme cells).
    pub cases: usize,
    /// Chaos points checked (crash points × plan variants).
    pub points: usize,
    /// Points that recovered loss-free with the full contract held.
    pub strict: usize,
    /// Points whose injected faults cost lines, reported honestly.
    pub lossy: usize,
    /// Total lines lost across lossy points.
    pub lost_lines: u64,
    /// Sums of the strict points' [`ChaosReport`] counters.
    pub totals: ChaosReport,
    /// Poisoned (non-vacuity) probes run, one per case.
    pub poison_checked: usize,
    /// Poisoned probes the checker correctly rejected.
    pub poison_caught: usize,
    /// Order-sensitive digest of every point's outcome — the
    /// byte-identity fingerprint CI diffs across worker counts.
    pub digest: u64,
    /// Every failure, then every poisoned probe that passed.
    pub failures: Vec<String>,
}

impl ChaosTally {
    /// Folds a chaos sweep's report, in point order.
    pub fn of(report: Report<ChaosSweep>) -> Self {
        let mut t = ChaosTally {
            cases: report.cases,
            failures: report.failures,
            ..ChaosTally::default()
        };
        let mut vacuous = Vec::new();
        let mut digest_stream = Vec::with_capacity(report.outcomes.len() * 8);
        for outcome in report.outcomes {
            match outcome {
                Some(ChaosVerdict::Poison(passed)) => {
                    t.poison_checked += 1;
                    match passed {
                        None => t.poison_caught += 1,
                        Some(line) => vacuous.push(line),
                    }
                    continue;
                }
                Some(ChaosVerdict::Held(ChaosOutcome::Strict(rep))) => {
                    t.strict += 1;
                    t.totals.acked += rep.acked;
                    t.totals.durable += rep.durable;
                    t.totals.retried += rep.retried;
                    t.totals.suppressed += rep.suppressed;
                    t.totals.refused_writes += rep.refused_writes;
                    t.totals.scrubbed += rep.scrubbed;
                    t.totals.events += rep.events;
                    digest_stream.push(1u8);
                    for v in [
                        rep.acked,
                        rep.durable,
                        rep.retried,
                        rep.suppressed,
                        rep.refused_writes,
                        rep.scrubbed,
                    ] {
                        digest_stream.extend_from_slice(&v.to_le_bytes());
                    }
                }
                Some(ChaosVerdict::Held(ChaosOutcome::Lossy { lost })) => {
                    t.lossy += 1;
                    t.lost_lines += lost as u64;
                    digest_stream.push(2u8);
                    digest_stream.extend_from_slice(&(lost as u64).to_le_bytes());
                }
                None => digest_stream.push(0u8),
            }
            t.points += 1;
        }
        t.digest = digest64(&digest_stream);
        t.failures.extend(vacuous);
        t
    }

    /// `true` when every point held the contract and every poisoned
    /// probe was caught.
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty() && self.poison_caught == self.poison_checked
    }
}

impl fmt::Display for ChaosTally {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "chaos sweep: {} points across {} cases — {} strict, {} lossy ({} lines), \
             {} failure(s); poison probes {}/{} caught",
            self.points,
            self.cases,
            self.strict,
            self.lossy,
            self.lost_lines,
            self.failures.len(),
            self.poison_caught,
            self.poison_checked,
        )?;
        writeln!(
            f,
            "  acked={} durable={} retried={} suppressed={} refused_writes={} scrubbed={}",
            self.totals.acked,
            self.totals.durable,
            self.totals.retried,
            self.totals.suppressed,
            self.totals.refused_writes,
            self.totals.scrubbed,
        )?;
        for fail in &self.failures {
            writeln!(f, "  {fail}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::run;
    use slpmt_core::Scheme;

    fn tiny_cases() -> Vec<ChaosCase> {
        chaos_cases(
            &[Scheme::Slpmt],
            IndexKind::KvBtree,
            13,
            24,
            &[MixSpec::YCSB_B],
        )
    }

    #[test]
    fn matrix_is_mix_major() {
        let cases = chaos_cases(
            &[Scheme::Slpmt, Scheme::SlpmtRedo],
            IndexKind::KvBtree,
            7,
            10,
            &[MixSpec::YCSB_A, MixSpec::YCSB_B],
        );
        assert_eq!(cases.len(), 4);
        assert_eq!(cases[0].mix, MixSpec::YCSB_A);
        assert_eq!(cases[0].scheme, Scheme::Slpmt.into());
        assert_eq!(cases[1].scheme, Scheme::SlpmtRedo.into());
        assert_eq!(cases[2].mix, MixSpec::YCSB_B);
    }

    #[test]
    fn tiny_chaos_sweep_is_clean_and_worker_invariant() {
        let cases = tiny_cases();
        let plans = [FaultPlan::NONE];
        let sweep = ChaosSweep {
            plans: plans.to_vec(),
            points_per_plan: 2,
        };
        let r1 = ChaosTally::of(run(&sweep, &cases, 1));
        assert!(r1.is_clean(), "{r1}");
        assert_eq!(r1.points, 4, "2 points × (clean + 1 plan)");
        assert_eq!(r1.poison_checked, 1);
        let r2 = ChaosTally::of(run(&sweep, &cases, 4));
        assert_eq!(r1.digest, r2.digest);
        assert_eq!(r1.totals, r2.totals);
        assert_eq!(r1.strict, r2.strict);
    }
}
