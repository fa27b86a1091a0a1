//! The crash sweep's replay cursor is exact.
//!
//! `recover_at_streaming` forks each crash point from a crash-free
//! cursor instead of replaying the trace from op 0. This file rebuilds
//! every point from scratch with public calls only — build, arm the
//! crash at event `k`, apply operations until the crash trips, crash,
//! recover — and requires the cursor path to agree at every point on
//! the durable commit sequence, the committed prefix `b`, the
//! `RecoveryReport`, a digest of every touched line of the recovered
//! image, and the verdict.

use slpmt::annotate::AnnotationTable;
use slpmt::core::{PtmFlavor, RecoveryReport, Scheme, SchemeKind};
use slpmt::pmem::PmAddr;
use slpmt::workloads::crashsweep::{
    check_recovered, count_events, recover_at_streaming, sample_points, trace_ops,
};
use slpmt::workloads::{
    inspect, AnnotationSource, DurableIndex, IndexKind, MixSpec, MixedOp, PmContext,
    StreamingOracle, SweepCase,
};
use slpmt_prng::splitmix64;

const KINDS: [IndexKind; 3] = [IndexKind::Hashtable, IndexKind::Rbtree, IndexKind::Heap];

/// Everything one crash point observes.
#[derive(Debug, PartialEq)]
struct Observed {
    marker: u64,
    b: usize,
    report: RecoveryReport,
    image: u64,
    verdict: Result<(), String>,
}

fn apply(idx: &mut dyn DurableIndex, ctx: &mut PmContext, op: &MixedOp) {
    match op {
        MixedOp::Insert(o) => idx.insert(ctx, o.key, &o.value),
        MixedOp::Read(k) => {
            idx.get(ctx, *k);
        }
        MixedOp::Remove(k) => {
            idx.remove(ctx, *k);
        }
        MixedOp::Update(o) => {
            idx.update(ctx, o.key, &o.value);
        }
        MixedOp::Rmw(o) => {
            idx.get(ctx, o.key);
            idx.update(ctx, o.key, &o.value);
        }
        MixedOp::Scan { keys } => {
            for k in keys {
                idx.get(ctx, *k);
            }
        }
    }
}

/// Digest of every touched line of the durable image: its address and
/// its 64 bytes.
fn image_digest(ctx: &PmContext) -> u64 {
    let image = ctx.machine().device().image();
    let mut acc = 0u64;
    for addr in image.touched_line_addrs() {
        let mut s = acc ^ addr;
        acc = splitmix64(&mut s);
        for word in image.read_line(PmAddr::new(addr)).chunks(8) {
            let mut s = acc ^ u64::from_le_bytes(word.try_into().expect("word"));
            acc = splitmix64(&mut s);
        }
    }
    acc
}

/// The crash point replayed from op 0, checked with a fresh oracle.
fn from_scratch(case: &SweepCase, ops: &[MixedOp], k: u64) -> Observed {
    let mut ctx = PmContext::new(case.scheme, AnnotationTable::new());
    let mut idx = case
        .kind
        .build(&mut ctx, case.value_size, AnnotationSource::Manual);
    ctx.machine_mut().arm_crash_at_event(k);
    let mut op_seq = Vec::new();
    for op in ops {
        apply(idx.as_mut(), &mut ctx, op);
        op_seq.push(ctx.txn_seq());
        if ctx.machine().crash_tripped() {
            break;
        }
    }
    ctx.crash();
    let marker = ctx.durable_commit_seq();
    let b = op_seq.iter().take_while(|&&seq| seq <= marker).count();
    let report = ctx.recover();
    idx.recover(&mut ctx);
    let image = image_digest(&ctx);
    let verdict = (|| {
        let reachable = idx.reachable(&ctx);
        let leaks = inspect(&ctx, &reachable).leaks.len();
        ctx.gc(&reachable);
        idx.check_invariants(&ctx)
            .map_err(|e| format!("invariant violated after recovery: {e}"))?;
        let after_gc = inspect(&ctx, &reachable);
        if !after_gc.is_clean() {
            return Err(format!(
                "{} allocations still leaked after GC reclaimed {leaks}",
                after_gc.leaks.len()
            ));
        }
        let mut oracle = StreamingOracle::new(ops);
        oracle.advance_to(b);
        oracle
            .check(&ctx, idx.as_ref())
            .map_err(|e| format!("{e} (marker seq {marker})"))
    })();
    Observed {
        marker,
        b,
        report,
        image,
        verdict,
    }
}

/// The crash point through the cursor carried by `oracle`.
fn via_cursor(case: &SweepCase, oracle: &mut StreamingOracle<'_>, k: u64) -> Observed {
    let point = recover_at_streaming(case, oracle, k);
    let (marker, b, report) = (point.marker, point.b, point.report.clone());
    let image = image_digest(&point.ctx);
    let verdict = check_recovered(case, oracle, k, point).map_err(|f| f.detail);
    Observed {
        marker,
        b,
        report,
        image,
        verdict,
    }
}

/// Visits `ks` in the given order on one oracle, comparing each point
/// with its from-scratch replay.
fn assert_exact(case: &SweepCase, oracle: &mut StreamingOracle<'_>, ks: &[u64]) {
    let ops = oracle.ops();
    for &k in ks {
        let want = from_scratch(case, ops, k);
        assert_eq!(via_cursor(case, oracle, k), want, "{case} k={k}");
    }
}

#[test]
fn cursor_matches_from_scratch_at_every_point_of_every_column() {
    for kind in KINDS {
        for &scheme in SchemeKind::REGISTRY.iter() {
            let case = SweepCase::new(scheme, kind, 3, 16);
            let ops = trace_ops(&case);
            let n = count_events(&case);
            // Every crash point, plus the two ends: no event durable,
            // and a crash after the last event.
            let ks: Vec<u64> = (0..=n + 1).collect();
            assert_exact(&case, &mut StreamingOracle::new(&ops), &ks);
        }
    }
}

#[test]
fn cursor_matches_from_scratch_on_a_loaded_ycsb_mix() {
    for kind in KINDS {
        let case = SweepCase::with_mix(Scheme::Slpmt, kind, 11, 24, 48, MixSpec::YCSB_A);
        let ops = trace_ops(&case);
        let ks = sample_points(case.seed, count_events(&case), 12);
        assert_exact(&case, &mut StreamingOracle::new(&ops), &ks);
    }
}

#[test]
fn descending_points_rebuild_and_stay_exact() {
    let case = SweepCase::new(Scheme::Slpmt, IndexKind::Hashtable, 5, 16);
    let ops = trace_ops(&case);
    let n = count_events(&case);
    let mut ks: Vec<u64> = (1..=n).step_by(7).collect();
    ks.reverse();
    // A descending run, then an ascending one on the same oracle.
    ks.extend((1..=n).step_by(5));
    assert_exact(&case, &mut StreamingOracle::new(&ops), &ks);
}

#[test]
fn switching_cases_on_one_oracle_rebuilds_and_stays_exact() {
    // Cases sharing one trace (same seed and shape), so one oracle
    // models both; alternating between them forces rebuilds.
    let cases = [
        SweepCase::new(Scheme::Fg, IndexKind::Rbtree, 8, 16),
        SweepCase::new(PtmFlavor::UndoLog, IndexKind::Rbtree, 8, 16),
        SweepCase::new(PtmFlavor::UndoLog, IndexKind::Heap, 8, 16),
    ];
    let ops = trace_ops(&cases[0]);
    assert!(cases.iter().all(|c| trace_ops(c) == ops));
    let n = cases.iter().map(count_events).min().expect("cases");
    let mut oracle = StreamingOracle::new(&ops);
    for k in (1..=n).step_by(3) {
        for case in &cases {
            assert_exact(case, &mut oracle, &[k]);
        }
    }
}
