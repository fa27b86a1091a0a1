//! Event-tracing integration: coverage, determinism and zero-cost of
//! the disabled path at the `Machine` level.

#![cfg(not(feature = "no-trace"))]

use slpmt_core::multi::{gen_programs, run_programs, ProgramSpec, Schedule, TraceOp};
use slpmt_core::{
    Machine, MachineConfig, MultiMachine, Scheme, StoreKind, TraceEvent, TraceMetrics, TraceRecord,
};
use slpmt_pmem::PmAddr;

const A: PmAddr = PmAddr::new(0x10000);

fn traced_run(scheme: Scheme) -> Vec<TraceRecord> {
    let mut m = Machine::new(MachineConfig::for_scheme(scheme));
    m.enable_tracing(1 << 16);
    m.setup_write(A, &5u64.to_le_bytes());
    m.tx_begin();
    m.store_u64(A, 7, StoreKind::Store);
    m.store_u64(A.add(64), 8, StoreKind::lazy_logged());
    m.store_u64(A.add(128), 9, StoreKind::log_free());
    m.tx_commit();
    m.drain_lazy();
    m.take_trace()
}

#[test]
fn trace_covers_the_pipeline() {
    let recs = traced_run(Scheme::Slpmt);
    assert!(!recs.is_empty());
    let has = |name: &str| recs.iter().any(|r| r.event.name() == name);
    for name in [
        "store_issue",
        "log_bit",
        "tier_append",
        "tier_drain",
        "tier_occupancy",
        "wpq_enqueue",
        "persist",
        "commit_begin",
        "commit_stage",
        "commit_end",
        "txn_id_alloc",
        "cache_fetch",
    ] {
        assert!(has(name), "expected a {name} event in the trace");
    }
    // Commit spans are well-formed: begin before stages before end.
    let pos = |name: &str| recs.iter().position(|r| r.event.name() == name).unwrap();
    assert!(pos("commit_begin") < pos("commit_stage"));
    assert!(pos("commit_stage") < pos("commit_end"));
}

#[test]
fn same_seeded_run_traces_identically() {
    let a = traced_run(Scheme::Slpmt);
    let b = traced_run(Scheme::Slpmt);
    assert_eq!(a, b, "a trace must replay bit-identically");
}

#[test]
fn disabled_tracing_returns_empty_and_changes_nothing() {
    let run = |trace: bool| {
        let mut m = Machine::new(MachineConfig::for_scheme(Scheme::Slpmt));
        if trace {
            m.enable_tracing(1 << 16);
        }
        m.tx_begin();
        m.store_u64(A, 7, StoreKind::Store);
        m.tx_commit();
        (m.now(), *m.stats(), m.take_trace())
    };
    let (now_on, stats_on, trace_on) = run(true);
    let (now_off, stats_off, trace_off) = run(false);
    assert!(!trace_on.is_empty());
    assert!(trace_off.is_empty());
    assert_eq!(now_on, now_off, "tracing must not change timing");
    assert_eq!(stats_on, stats_off, "tracing must not change behaviour");
}

/// A clone of a traced machine is untraced: its own run records
/// nothing, leaves the parent's ring exactly as a run without the
/// clone would, and behaves like the parent (tracing never changes
/// simulated state).
#[test]
fn clone_of_a_traced_machine_is_untraced() {
    let first = |m: &mut Machine| {
        m.tx_begin();
        m.store_u64(A, 7, StoreKind::Store);
        m.tx_commit();
    };
    let second = |m: &mut Machine| {
        m.tx_begin();
        m.store_u64(A.add(64), 8, StoreKind::lazy_logged());
        m.tx_commit();
        m.drain_lazy();
    };
    let mut reference = Machine::new(MachineConfig::for_scheme(Scheme::Slpmt));
    reference.enable_tracing(1 << 16);
    first(&mut reference);
    second(&mut reference);

    let mut m = Machine::new(MachineConfig::for_scheme(Scheme::Slpmt));
    m.enable_tracing(1 << 16);
    first(&mut m);
    let mut fork = m.clone();
    assert!(m.trace_enabled());
    assert!(!fork.trace_enabled(), "a clone gets no tracer");
    second(&mut fork);
    assert!(fork.take_trace().is_empty());
    second(&mut m);
    assert_eq!(m.take_trace(), reference.take_trace());
    assert_eq!(fork.now(), m.now());
    assert_eq!(fork.stats(), m.stats());
}

#[test]
fn multi_core_events_carry_core_attribution() {
    let spec = ProgramSpec::small(3, 21);
    let programs = gen_programs(&spec);
    let mut mm = MultiMachine::new(MachineConfig::for_scheme(Scheme::Slpmt), 3);
    mm.enable_tracing(1 << 16);
    for step in 0..programs.iter().map(Vec::len).max().unwrap() {
        for (core, prog) in programs.iter().enumerate() {
            if let Some(op) = prog.get(step) {
                if mm.in_txn(core) || matches!(op, TraceOp::Begin) {
                    match *op {
                        TraceOp::Begin => {
                            mm.tx_begin(core);
                        }
                        TraceOp::Load { addr } => {
                            mm.load_u64(core, PmAddr::new(addr));
                        }
                        TraceOp::Store { addr, value, kind } => {
                            mm.store_u64(core, PmAddr::new(addr), value, kind);
                        }
                        TraceOp::Commit => {
                            mm.tx_commit(core);
                        }
                    }
                }
            }
        }
    }
    let recs = mm.take_trace();
    let cores: std::collections::BTreeSet<u8> = recs.iter().map(|r| r.core).collect();
    assert!(cores.len() >= 2, "events from several cores: {cores:?}");
    // Per-core sequence numbers are dense from 0.
    for &c in &cores {
        let mut seqs: Vec<u64> = recs.iter().filter(|r| r.core == c).map(|r| r.seq).collect();
        seqs.sort_unstable();
        assert_eq!(seqs, (0..seqs.len() as u64).collect::<Vec<_>>());
    }
}

#[test]
fn metrics_fold_a_real_trace() {
    let recs = traced_run(Scheme::Slpmt);
    let m = TraceMetrics::from_records(&recs);
    assert_eq!(m.records, recs.len());
    assert_eq!(m.commits, 1);
    assert!(m.persists.iter().sum::<u64>() > 0);
    assert!(m.tier_appends > 0);
    // The lazy store deferred its line, so a signature was inserted
    // and the trace's ground-truth false-positive accounting holds.
    assert!(m.sig_inserts <= 1);
}

#[test]
fn tracing_survives_run_programs_when_disabled() {
    // run_programs builds its machine internally (no tracing): the
    // trace drain must stay empty rather than capturing stale state.
    let spec = ProgramSpec::small(2, 9);
    let programs = gen_programs(&spec);
    let (mut mm, outcome) = run_programs(
        MachineConfig::for_scheme(Scheme::Slpmt),
        &programs,
        Schedule::round_robin(4),
    );
    assert!(!outcome.crashed);
    assert!(mm.take_trace().is_empty());
}

#[test]
fn recovery_emits_stage_events() {
    let mut m = Machine::new(MachineConfig::for_scheme(Scheme::Fg).with_tiny_caches());
    m.enable_tracing(1 << 16);
    m.setup_write(A, &5u64.to_le_bytes());
    m.tx_begin();
    m.store_u64(A, 99, StoreKind::Store);
    for i in 0..512u64 {
        m.store_u64(PmAddr::new(0x40000 + i * 64), i, StoreKind::Store);
    }
    m.crash();
    let report = m.recover();
    assert!(report.undo_applied > 0);
    let recs = m.take_trace();
    let stages: Vec<String> = recs
        .iter()
        .filter_map(|r| match &r.event {
            TraceEvent::Recovery { stage, .. } => Some(stage.label().to_string()),
            _ => None,
        })
        .collect();
    for want in ["validate", "truncate", "skip", "replay", "salvage", "scrub"] {
        assert!(stages.iter().any(|s| s == want), "missing stage {want}");
    }
    // The one-line report formatter carries the same counts.
    let line = report.to_string();
    assert!(line.contains(&format!("undo {}", report.undo_applied)));
}

/// L3 victims are dropped silently (they are clean), but the trace
/// still records each one, so trace-derived metrics count level-3
/// evictions — and only when a run actually overflows L3.
#[test]
fn l3_evictions_reach_the_trace() {
    let l3_evicts = |lines: u64| {
        let mut m = Machine::new(MachineConfig::for_scheme(Scheme::Slpmt).with_tiny_caches());
        m.enable_tracing(1 << 16);
        for l in 0..lines {
            m.load_u64(A.add(l * 64));
        }
        TraceMetrics::from_records(&m.take_trace()).cache_evicts[3]
    };
    // The tiny hierarchy holds 8 + 32 + 128 lines exclusively; a
    // sequential sweep spreads evenly over every level's sets.
    assert_eq!(l3_evicts(100), 0, "the sweep fits in L3");
    assert_eq!(
        l3_evicts(400),
        400 - 168,
        "every line past capacity evicts one"
    );
}
