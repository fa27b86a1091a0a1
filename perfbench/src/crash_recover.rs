//! `crash-recover`: the exhaustive persist-event crash battery over
//! five 16-op churn traces on each of hashtable, rbtree and heap × all
//! 15 columns.
//!
//! A round first counts each case's persist events (`count_events`,
//! the set-up), then checks every crash point `k ∈ 1..=N` with
//! `check_point_streaming` (the timed region): replay to event `k`,
//! crash, log replay, structure recovery, leak GC, oracle check.
//! Points are handed to the workers in chunks of consecutive `k` with
//! one streaming oracle per chunk; a phase's seconds are the items'
//! summed times divided by the worker count. A check round at the
//! other worker count is the reference every timed round must
//! reproduce.
//!
//! The simulated metrics come from crash-free runs composed here from
//! public calls: one per case, whose persist-event count must equal
//! `count_events` and whose end state must pass the oracle, plus more
//! churn traces for the FG and SLPMT columns.

use crate::common::{
    calibrate, durations, fold, geomean, layer_metrics, median, par_map, percentile, ratio,
    Counters, HostLog, MetricList, Opts, Span, Spans, TraceTotals, TRACE_RING,
};
use crate::Outcome;
use slpmt_annotate::AnnotationTable;
use slpmt_core::{Scheme, SchemeKind};
use slpmt_workloads::crashsweep::{check_point_streaming, count_events, trace_ops};
use slpmt_workloads::{
    AnnotationSource, DurableIndex, IndexKind, MixedOp, PmContext, StreamingOracle, SweepCase,
};
use std::panic::catch_unwind;
use std::time::Instant;

const OPS: usize = 16;
const KINDS: [IndexKind; 3] = [IndexKind::Hashtable, IndexKind::Rbtree, IndexKind::Heap];
/// Crash points per work item.
const CHUNK: u64 = 32;
/// Churn traces per index the battery sweeps: several short traces
/// rather than one long one, so a round's work varies less with the
/// seed.
const SWEEP_TRACES: u64 = 5;
/// Churn traces per index behind the simulated metrics (FG and SLPMT
/// columns); the first `SWEEP_TRACES` are the swept ones.
const SIM_TRACES: u64 = 220;

fn trace_seed(seed: u64, t: u64) -> u64 {
    if t == 0 {
        seed
    } else {
        fold(seed, t)
    }
}

/// The swept cases, ordered by index kind, then trace, then column.
fn cases(seed: u64) -> Vec<SweepCase> {
    KINDS
        .iter()
        .flat_map(|&kind| {
            (0..SWEEP_TRACES).flat_map(move |t| {
                SchemeKind::REGISTRY
                    .iter()
                    .map(move |&scheme| SweepCase::new(scheme, kind, trace_seed(seed, t), OPS))
            })
        })
        .collect()
}

/// Position in [`cases`] of index kind `k`, trace `t`, column `c`.
fn case_at(k: usize, t: u64, c: usize) -> usize {
    (k * SWEEP_TRACES as usize + t as usize) * SchemeKind::REGISTRY.len() + c
}

struct Round {
    setup_s: f64,
    timed_s: f64,
    /// Persist events per case (the sweep domain).
    events: Vec<u64>,
    /// `(case, k, detail)` of every failing point, in case/k order.
    failures: Vec<(usize, u64, String)>,
    spans: Vec<Span>,
}

impl Round {
    fn points(&self) -> u64 {
        self.events.iter().sum()
    }

    fn digest(&self) -> u64 {
        let acc = self.events.iter().fold(0, |a, &n| fold(a, n));
        self.failures
            .iter()
            .fold(acc, |a, f| fold(fold(a, f.0 as u64), f.1))
    }
}

fn run_round(cases: &[SweepCase], workers: usize, traced: bool, origin: Instant) -> Round {
    let (setup, mut spans) = par_map(cases.len(), workers, traced, origin, |i, sp| {
        let t0 = Instant::now();
        let o = sp.open("recovery.count_events", 0);
        let counted = catch_unwind(|| count_events(&cases[i]));
        let ops = trace_ops(&cases[i]);
        sp.close(o);
        (
            ops,
            counted.map_err(|_| "crash-free run failed".to_string()),
            t0.elapsed(),
        )
    });
    let mut failures = Vec::new();
    let mut events = Vec::new();
    let mut chunks = Vec::new();
    for (ci, (_, n, _)) in setup.iter().enumerate() {
        let n = match n {
            Ok(n) => *n,
            Err(e) => {
                failures.push((ci, 0, e.clone()));
                0
            }
        };
        events.push(n);
        chunks.extend(
            (1..=n)
                .step_by(CHUNK as usize)
                .map(|lo| (ci, lo, (lo + CHUNK - 1).min(n))),
        );
    }
    let (found, point_spans) = par_map(chunks.len(), workers, traced, origin, |i, sp| {
        let t0 = Instant::now();
        let (ci, lo, hi) = chunks[i];
        let mut oracle = StreamingOracle::new(&setup[ci].0);
        let mut bad = Vec::new();
        for k in lo..=hi {
            let o = sp.open("recovery.check_point", 0);
            if let Err(f) = check_point_streaming(&cases[ci], &mut oracle, k) {
                bad.push((ci, k, f.detail));
            }
            sp.close(o);
        }
        (bad, t0.elapsed())
    });
    let per_worker = |d: std::time::Duration| d.as_secs_f64() / workers as f64;
    let setup_s = per_worker(setup.iter().map(|s| s.2).sum());
    let timed_s = per_worker(found.iter().map(|f| f.1).sum());
    failures.extend(found.into_iter().flat_map(|f| f.0));
    spans.extend(point_spans);
    Round {
        setup_s,
        timed_s,
        events,
        failures,
        spans,
    }
}

/// One crash-free run of a case, composed from public calls.
struct Reference {
    counters: Counters,
    lat: Vec<u64>,
    trace: TraceTotals,
    host_ns: u64,
    persist_events: u64,
    check: Result<(), String>,
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

fn reference(case: &SweepCase, traced: bool, sp: &mut Spans) -> Reference {
    let ops = trace_ops(case);
    let mut ctx = PmContext::new(case.scheme, AnnotationTable::new());
    let mut idx = sp.time("workloads.build", 0, || {
        case.kind
            .build(&mut ctx, case.value_size, AnnotationSource::Manual)
    });
    if traced {
        ctx.enable_tracing(TRACE_RING);
    }
    let start = Counters::snapshot(&ctx);
    let t0 = Instant::now();
    let mut lat = Vec::with_capacity(ops.len());
    for op in &ops {
        let s0 = ctx.machine().now();
        let name = if matches!(op, MixedOp::Insert(_)) {
            "workloads.insert"
        } else {
            "workloads.op"
        };
        sp.time(name, 0, || apply(idx.as_mut(), &mut ctx, op));
        lat.push(ctx.machine().now() - s0);
    }
    let host_ns = t0.elapsed().as_nanos() as u64;
    let counters = Counters::since(&ctx, &start, ops.len() as u64);
    let mut trace = TraceTotals::default();
    if traced {
        trace.absorb(&ctx.take_trace());
    }
    let mut oracle = StreamingOracle::new(&ops);
    oracle.advance_to(ops.len());
    Reference {
        counters,
        lat,
        trace,
        host_ns,
        persist_events: ctx.machine().persist_event_count(),
        check: oracle.check(&ctx, idx.as_ref()),
    }
}

/// Every crash-free run of index kind `k` in column `c`: the swept
/// traces' reference runs, then the extra ones.
fn column_refs<'a>(
    refs: &'a [Reference],
    extra: &'a [Vec<Reference>],
    k: usize,
    c: usize,
) -> Vec<&'a Reference> {
    (0..SWEEP_TRACES)
        .map(|t| &refs[case_at(k, t, c)])
        .chain(&extra[k])
        .collect()
}

pub fn run(o: &Opts) -> Outcome {
    let cases = cases(o.seed);
    let origin = Instant::now();
    let deadline = origin + std::time::Duration::from_secs(o.seconds);
    let mut metrics = MetricList::default();
    let mut notes = Vec::new();

    let first = run_round(&cases, o.check_workers, false, origin);
    let mut rounds = Vec::new();
    let mut traced = Vec::new();
    let mut host = HostLog::default();
    loop {
        let cal = calibrate();
        let r = run_round(&cases, o.workers, false, origin);
        host.record(r.points() as f64, r.setup_s, r.timed_s, cal);
        rounds.push(r);
        if o.trace {
            traced.push(run_round(&cases, o.workers, true, origin));
        }
        let enough = if o.trace { 1 } else { 3 };
        if rounds.len() >= enough && Instant::now() >= deadline {
            break;
        }
    }

    let mut attempted = 0;
    let mut failed = 0;
    for r in std::iter::once(&first).chain(&rounds).chain(&traced) {
        attempted += r.points();
        failed += r.failures.len() as u64;
        if r.digest() != first.digest() {
            failed += 1;
            notes.push(format!(
                "FAIL a round at {} worker(s) differs from the check round at {}",
                o.workers, o.check_workers
            ));
        }
    }
    for (ci, k, detail) in first.failures.iter().take(10) {
        notes.push(format!("FAIL {} k={k}: {detail}", cases[*ci]));
    }

    let mut sp = Spans::new(origin, 0, o.trace);
    let refs: Vec<Reference> = cases
        .iter()
        .map(|c| reference(c, o.trace, &mut sp))
        .collect();
    for (i, r) in refs.iter().enumerate() {
        attempted += 1;
        if let Err(e) = &r.check {
            failed += 1;
            notes.push(format!("FAIL crash-free {}: {e}", cases[i]));
        } else if r.persist_events != first.events[i] {
            failed += 1;
            notes.push(format!(
                "FAIL crash-free {}: {} persist events, count_events says {}",
                cases[i], r.persist_events, first.events[i]
            ));
        }
    }
    let cols = SchemeKind::REGISTRY.len();
    let col = |s: Scheme| {
        let kind = SchemeKind::Hardware(s);
        SchemeKind::REGISTRY
            .iter()
            .position(|&x| x == kind)
            .expect("registered")
    };
    // FG and SLPMT over `SIM_TRACES` traces per index: the swept ones
    // (their reference runs above), then more that only feed the
    // simulated metrics.
    let mut per_kind = |c: usize| -> Vec<Vec<Reference>> {
        (0..KINDS.len())
            .map(|k| {
                let case = cases[case_at(k, 0, c)];
                (SWEEP_TRACES..SIM_TRACES)
                    .map(|t| {
                        let extra =
                            SweepCase::new(case.scheme, case.kind, trace_seed(o.seed, t), OPS);
                        let r = reference(&extra, o.trace, &mut sp);
                        if let Err(e) = &r.check {
                            notes.push(format!("FAIL crash-free {extra}: {e}"));
                        }
                        r
                    })
                    .collect()
            })
            .collect()
    };
    let (fg_extra, slpmt_extra) = (per_kind(col(Scheme::Fg)), per_kind(col(Scheme::Slpmt)));
    for r in fg_extra.iter().chain(&slpmt_extra).flatten() {
        attempted += 1;
        failed += u64::from(r.check.is_err());
    }
    let total = |c: usize, extra: &[Vec<Reference>], k: usize| {
        let mut sum = Counters::default();
        for r in column_refs(&refs, extra, k, c) {
            sum.add(&r.counters);
        }
        sum
    };
    let fg: Vec<Counters> = (0..KINDS.len())
        .map(|k| total(col(Scheme::Fg), &fg_extra, k))
        .collect();
    let slpmt: Vec<Counters> = (0..KINDS.len())
        .map(|k| total(col(Scheme::Slpmt), &slpmt_extra, k))
        .collect();
    let mut slpmt_c = Counters::default();
    for c in &slpmt {
        slpmt_c.add(c);
    }
    let slpmt_refs: Vec<&Reference> = (0..KINDS.len())
        .flat_map(|k| column_refs(&refs, &slpmt_extra, k, col(Scheme::Slpmt)))
        .collect();
    let slpmt_lat: Vec<u64> = slpmt_refs
        .iter()
        .flat_map(|r| r.lat.iter().copied())
        .collect();
    notes.push(format!(
        "{} cases, {} crash points per round, {} oracle failures in the reference round; \
         simulated metrics over {SIM_TRACES} traces per index",
        cases.len(),
        first.points(),
        first.failures.len()
    ));

    if !o.trace {
        host.put("points", &mut metrics, &mut notes);
        let speedups: Vec<f64> = fg
            .iter()
            .zip(&slpmt)
            .map(|(f, s)| f.cycles as f64 / s.cycles as f64)
            .collect();
        let reductions: Vec<f64> = fg
            .iter()
            .zip(&slpmt)
            .map(|(f, s)| 1.0 - s.media() as f64 / f.media() as f64)
            .collect();
        metrics.put(
            "sim_cycles_per_op",
            ratio(slpmt_c.cycles as f64, slpmt_c.ops as f64),
        );
        metrics.put("waf", slpmt_c.waf());
        metrics.put("slpmt_speedup_vs_fg", geomean(&speedups));
        metrics.put(
            "slpmt_traffic_reduction_vs_fg",
            reductions.iter().sum::<f64>() / KINDS.len() as f64,
        );
        metrics.put("req_p50_cycles", percentile(&slpmt_lat, 0.5) as f64);
        metrics.put("req_p999_cycles", percentile(&slpmt_lat, 0.999) as f64);
        return Outcome {
            attempted,
            failed,
            metrics,
            notes,
            spans: Vec::new(),
        };
    }

    let mut spans: Vec<Span> = traced
        .iter()
        .flat_map(|r| r.spans.iter().copied())
        .collect();
    let points = durations(&spans, "recovery.check_point");
    let us = |p: f64| percentile(&points, p) as f64 / 1e3;
    metrics.put("recovery.point_host_us_p50", us(0.5));
    metrics.put("recovery.point_host_us_p99", us(0.99));
    let counts: Vec<f64> = traced.iter().map(|r| r.setup_s).collect();
    metrics.put("recovery.count_events_s", median(&counts));
    spans.extend(sp.spans);
    let insert_ns = durations(&spans, "workloads.insert");
    metrics.put(
        "workloads.insert_host_ns_p50",
        percentile(&insert_ns, 0.5) as f64,
    );
    metrics.put(
        "workloads.insert_host_ns_p99",
        percentile(&insert_ns, 0.99) as f64,
    );
    metrics.put(
        "workloads.insert_sim_cycles_p50",
        percentile(&slpmt_lat, 0.5) as f64,
    );
    metrics.put(
        "workloads.insert_sim_cycles_p99",
        percentile(&slpmt_lat, 0.99) as f64,
    );
    let build_ns: u64 = durations(&spans, "workloads.build").iter().sum();
    metrics.put("workloads.build_s", build_ns as f64 / 1e9);
    let mut trace = TraceTotals::default();
    for r in &slpmt_refs {
        trace.add(&r.trace);
    }
    let mut software = Counters::default();
    for (i, r) in refs.iter().enumerate() {
        if SchemeKind::REGISTRY[i % cols].software().is_some() {
            software.add(&r.counters);
        }
    }
    let host_ns: u64 = refs.iter().map(|r| r.host_ns).sum();
    let host_cycles: u64 = refs.iter().map(|r| r.counters.cycles).sum();
    layer_metrics(
        &mut metrics,
        &slpmt_c,
        &trace,
        &software,
        host_ns as f64,
        host_cycles,
    );
    let plain: Vec<f64> = rounds
        .iter()
        .map(|r| r.points() as f64 / r.timed_s)
        .collect();
    let with: Vec<f64> = traced
        .iter()
        .map(|r| r.points() as f64 / r.timed_s)
        .collect();
    metrics.put("trace.host_ops_per_s", median(&with));
    metrics.put("trace.overhead_frac", median(&plain) / median(&with) - 1.0);
    let last = traced.pop().map(|r| r.spans).unwrap_or_default();
    Outcome {
        attempted,
        failed,
        metrics,
        notes,
        spans: last,
    }
}
