//! Golden fingerprints of the sweep engine over a fixed tiny matrix.
//!
//! The CLI determinism diffs only compare worker counts against each
//! other; these constants pin the point domains and the point order
//! themselves. A change to how the engine derives, orders or chunks
//! points that moves any output — a crash sweep visiting `0..=N`
//! instead of `1..=N`, a reordered chaos fold — fails here at both
//! worker counts. The constants were recorded before the batteries
//! moved onto the shared engine; re-record them only for a deliberate
//! change to a battery's domain or outcome.

use slpmt::bench::chaos::{chaos_cases, ChaosSweep, ChaosTally};
use slpmt::bench::crashsweep::{sweep_cases, sweep_cases_mixed, CrashSweep, McSweep};
use slpmt::bench::faultsweep::{fault_cases, FaultSweep};
use slpmt::bench::sweep::run;
use slpmt::core::{McSweepCase, PtmFlavor, Schedule, Scheme, SchemeKind};
use slpmt::workloads::faultsweep::default_plans;
use slpmt::workloads::runner::IndexKind;
use slpmt::workloads::ycsb::MixSpec;

const WORKERS: [usize; 2] = [1, 4];

#[test]
fn chaos_fingerprint() {
    let cases = chaos_cases(
        &[Scheme::Slpmt, Scheme::SlpmtRedo],
        IndexKind::KvBtree,
        7,
        24,
        &[MixSpec::YCSB_A, MixSpec::DELETE_HEAVY],
    );
    for workers in WORKERS {
        let sweep = ChaosSweep {
            plans: default_plans(7),
            points_per_plan: 2,
        };
        let t = ChaosTally::of(run(&sweep, &cases, workers));
        assert!(t.is_clean(), "{t}");
        assert_eq!(
            format!("{:016x}", t.digest),
            "799944ca2b4431e7",
            "{workers}w"
        );
        assert_eq!((t.strict, t.lossy, t.points), (26, 22, 48), "{workers}w");
        assert_eq!(t.poison_checked, 4, "{workers}w");
    }
}

#[test]
fn crash_sweep_point_domains() {
    let exhaustive = sweep_cases(
        &[Scheme::Fg, Scheme::Slpmt, Scheme::SlpmtRedo],
        &[IndexKind::Hashtable, IndexKind::Heap],
        42,
        8,
    );
    let sampled = sweep_cases_mixed(
        &[SchemeKind::from(Scheme::Slpmt), PtmFlavor::UndoLog.into()],
        &[IndexKind::Hashtable, IndexKind::Rbtree],
        11,
        8,
        16,
        MixSpec::DELETE_HEAVY,
    );
    for workers in WORKERS {
        let r = run(&CrashSweep::Exhaustive, &exhaustive, workers);
        assert!(r.is_clean(), "{r}");
        assert_eq!(r.points, 413, "{workers}w");
        let r = run(&CrashSweep::Sampled(40), &sampled, workers);
        assert!(r.is_clean(), "{r}");
        assert_eq!(r.points, 160, "{workers}w");
    }
}

#[test]
fn fault_sweep_point_domain() {
    let cases = fault_cases(&[Scheme::Fg, Scheme::Slpmt], &[IndexKind::Heap], 3, 6, &[]);
    for workers in WORKERS {
        let r = run(&FaultSweep(3), &cases, workers);
        assert!(r.is_clean(), "{r}");
        assert_eq!(r.points, 30, "{workers}w");
    }
}

#[test]
fn mc_sweep_point_domain() {
    // The multi-core domain includes k = 0 (crash before any event).
    let cases = [
        McSweepCase::new(Scheme::Slpmt, 2, 42, Schedule::round_robin(3)),
        McSweepCase::new(Scheme::FgRedo, 2, 42, Schedule::weighted(9)),
    ];
    for workers in WORKERS {
        let r = run(&McSweep, &cases, workers);
        assert!(r.is_clean(), "{r}");
        assert_eq!(r.points, 155, "{workers}w");
    }
}
