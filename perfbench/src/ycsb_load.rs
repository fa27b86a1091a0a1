//! `ycsb-load`: the paper's YCSB-load insert stream (1,000 unique
//! 8-byte keys, 256-byte values) into all 8 indexes × 11 columns.
//!
//! Each of the 88 cells builds its index (set-up), runs the insert
//! stream (the timed region) and verifies the result (invariants plus
//! membership). Workers take cells from a shared counter; a round's
//! set-up and timed seconds are the cells' summed phase times divided
//! by the worker count, so one slow worker does not stretch the
//! others' figures. A check round at the other worker count (`nproc`
//! when the timed rounds use one worker) is the simulated reference
//! every timed round must reproduce exactly.

use crate::common::{
    calibrate, durations, fold, geomean, layer_metrics, median, par_map, percentile, ratio,
    Counters, HostLog, MetricList, Opts, Span, Spans, TraceTotals, TRACE_RING,
};
use crate::Outcome;
use slpmt_annotate::AnnotationTable;
use slpmt_core::{MachineConfig, Scheme, SchemeKind};
use slpmt_workloads::{ycsb_load, AnnotationSource, DurableIndex, IndexKind, PmContext, YcsbOp};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

const INSERTS: usize = 1000;
const VALUE: usize = 256;
const FG: usize = 0;
const SLPMT: usize = 3;
/// First software column.
const SOFTWARE: usize = 6;

/// FG, FG+LG, FG+LZ, SLPMT, ATOM, EDE, then the five software PTMs.
fn columns() -> Vec<SchemeKind> {
    let mut cols: Vec<SchemeKind> = [
        Scheme::Fg,
        Scheme::FgLg,
        Scheme::FgLz,
        Scheme::Slpmt,
        Scheme::Atom,
        Scheme::Ede,
    ]
    .map(SchemeKind::Hardware)
    .to_vec();
    cols.extend(SchemeKind::SOFTWARE);
    cols
}

#[derive(Default)]
struct Cell {
    counters: Counters,
    /// Simulated cycles of each insert.
    lat: Vec<u64>,
    trace: TraceTotals,
    build_ns: u64,
    insert_ns: u64,
    failures: u64,
    detail: Option<String>,
}

struct Round {
    setup_s: f64,
    timed_s: f64,
    /// Indexed `kind * columns + column`.
    cells: Vec<Cell>,
    spans: Vec<Span>,
}

impl Round {
    fn digest(&self) -> u64 {
        self.cells.iter().fold(0, |acc, c| {
            c.lat
                .iter()
                .fold(c.counters.digest(acc), |a, &x| fold(a, x))
        })
    }

    fn cell(&self, kind: usize, col: usize) -> &Cell {
        &self.cells[kind * columns().len() + col]
    }
}

fn verify(ctx: &PmContext, idx: &dyn DurableIndex, ops: &[YcsbOp]) -> (u64, Option<String>) {
    let mut failures = 0;
    let mut detail = None;
    if let Err(e) = idx.check_invariants(ctx) {
        failures += 1;
        detail = Some(format!("invariant: {e}"));
    }
    if idx.len(ctx) != ops.len() {
        failures += 1;
        detail = Some(format!("len {} != {}", idx.len(ctx), ops.len()));
    }
    let missing = ops.iter().filter(|op| !idx.contains(ctx, op.key)).count() as u64;
    if missing > 0 {
        failures += missing;
        detail = Some(format!("{missing} keys missing"));
    }
    (failures, detail)
}

/// Builds, fills and verifies one cell.
fn run_cell(kind: IndexKind, scheme: SchemeKind, ops: &[YcsbOp], sp: &mut Spans) -> Cell {
    let arena = INSERTS as u64 * (VALUE as u64 + 192) + (1 << 20);
    let t0 = Instant::now();
    let build = sp.open("workloads.build", 0);
    let mut ctx = PmContext::with_config(MachineConfig::for_kind(scheme), AnnotationTable::new());
    ctx.prefault_heap(arena);
    let mut idx = kind.build(&mut ctx, VALUE, AnnotationSource::Manual);
    if sp.enabled() {
        ctx.enable_tracing(TRACE_RING);
    }
    sp.close(build);
    let build_ns = t0.elapsed().as_nanos() as u64;

    let stream = sp.open("workloads.insert_stream", 0);
    let start = Counters::snapshot(&ctx);
    let t1 = Instant::now();
    let mut lat = Vec::with_capacity(ops.len());
    for op in ops {
        let s0 = ctx.machine().now();
        let o = sp.open("workloads.insert", stream.id());
        idx.insert(&mut ctx, op.key, &op.value);
        sp.close(o);
        lat.push(ctx.machine().now() - s0);
    }
    let insert_ns = t1.elapsed().as_nanos() as u64;
    sp.close(stream);

    let (failures, detail) = verify(&ctx, idx.as_ref(), ops);
    let mut trace = TraceTotals::default();
    if sp.enabled() {
        trace.absorb(&ctx.take_trace());
    }
    Cell {
        counters: Counters::since(&ctx, &start, ops.len() as u64),
        lat,
        trace,
        build_ns,
        insert_ns,
        failures,
        detail: detail.map(|d| format!("{kind}/{scheme}: {d}")),
    }
}

fn run_round(ops: &[YcsbOp], workers: usize, traced: bool, origin: Instant) -> Round {
    let cols = columns();
    let kinds = IndexKind::ALL;
    let (cells, spans) = par_map(
        kinds.len() * cols.len(),
        workers,
        traced,
        origin,
        |i, sp| {
            let (kind, scheme) = (kinds[i / cols.len()], cols[i % cols.len()]);
            catch_unwind(AssertUnwindSafe(|| run_cell(kind, scheme, ops, sp))).unwrap_or_else(
                |_| Cell {
                    failures: ops.len() as u64,
                    detail: Some(format!("{kind}/{scheme}: panicked")),
                    ..Cell::default()
                },
            )
        },
    );
    let per_worker = |ns: u64| ns as f64 / 1e9 / workers as f64;
    Round {
        setup_s: per_worker(cells.iter().map(|c| c.build_ns).sum()),
        timed_s: per_worker(cells.iter().map(|c| c.insert_ns).sum()),
        cells,
        spans,
    }
}

pub fn run(o: &Opts) -> Outcome {
    let ops = ycsb_load(INSERTS, VALUE, o.seed);
    let cols = columns();
    let origin = Instant::now();
    let deadline = origin + std::time::Duration::from_secs(o.seconds);
    let total_inserts = (ops.len() * cols.len() * IndexKind::ALL.len()) as f64;
    let mut metrics = MetricList::default();
    let mut notes = Vec::new();

    let reference = run_round(&ops, o.check_workers, false, origin);
    let mut rounds: Vec<Round> = Vec::new();
    let mut traced: Vec<Round> = Vec::new();
    let mut host = HostLog::default();
    loop {
        let cal = calibrate();
        let r = run_round(&ops, o.workers, false, origin);
        host.record(total_inserts, r.setup_s, r.timed_s, cal);
        rounds.push(r);
        if o.trace {
            traced.push(run_round(&ops, o.workers, true, origin));
        }
        let enough = if o.trace { 1 } else { 3 };
        if rounds.len() >= enough && Instant::now() >= deadline {
            break;
        }
    }

    let mut attempted = 0u64;
    let mut failed = 0u64;
    for r in std::iter::once(&reference).chain(&rounds).chain(&traced) {
        attempted += total_inserts as u64;
        for c in &r.cells {
            failed += c.failures;
            if let Some(d) = &c.detail {
                notes.push(format!("FAIL {d}"));
            }
        }
        if r.digest() != reference.digest() {
            failed += 1;
            notes.push(format!(
                "FAIL a round at {} worker(s) differs from the check round at {}",
                o.workers, o.check_workers
            ));
        }
    }

    let r0 = &reference;
    let kinds = IndexKind::ALL.len();
    let sum_cols = |col: usize| {
        let mut c = Counters::default();
        for k in 0..kinds {
            c.add(&r0.cell(k, col).counters);
        }
        c
    };
    let slpmt = sum_cols(SLPMT);
    let slpmt_lat: Vec<u64> = (0..kinds)
        .flat_map(|k| r0.cell(k, SLPMT).lat.iter().copied())
        .collect();
    notes.push(format!(
        "{:<12} {:>14} {:>8}   (simulated, summed over the {kinds} indexes)",
        "column", "cycles/insert", "waf"
    ));
    for (ci, col) in cols.iter().enumerate() {
        let c = sum_cols(ci);
        notes.push(format!(
            "{:<12} {:>14.1} {:>8.3}",
            col.to_string(),
            ratio(c.cycles as f64, c.ops as f64),
            c.waf()
        ));
    }
    let rates =
        |rs: &[Round]| -> Vec<f64> { rs.iter().map(|r| total_inserts / r.timed_s).collect() };

    if !o.trace {
        host.put("inserts", &mut metrics, &mut notes);
        let pair = |k: usize| (&r0.cell(k, FG).counters, &r0.cell(k, SLPMT).counters);
        let speedups: Vec<f64> = (0..kinds)
            .map(|k| pair(k).0.cycles as f64 / pair(k).1.cycles as f64)
            .collect();
        let reductions: Vec<f64> = (0..kinds)
            .map(|k| 1.0 - pair(k).1.media() as f64 / pair(k).0.media() as f64)
            .collect();
        metrics.put(
            "sim_cycles_per_op",
            ratio(slpmt.cycles as f64, slpmt.ops as f64),
        );
        metrics.put("waf", slpmt.waf());
        metrics.put("slpmt_speedup_vs_fg", geomean(&speedups));
        metrics.put(
            "slpmt_traffic_reduction_vs_fg",
            reductions.iter().sum::<f64>() / kinds as f64,
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

    let spans: Vec<Span> = traced
        .iter()
        .flat_map(|r| r.spans.iter().copied())
        .collect();
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
    let builds: Vec<f64> = traced.iter().map(|r| r.setup_s).collect();
    metrics.put("workloads.build_s", median(&builds));
    let mut trace = TraceTotals::default();
    for k in 0..kinds {
        trace.add(&traced[0].cell(k, SLPMT).trace);
    }
    let mut software = Counters::default();
    for col in SOFTWARE..cols.len() {
        software.add(&sum_cols(col));
    }
    let host_ns: u64 = rounds[0].cells.iter().map(|c| c.insert_ns).sum();
    let host_cycles: u64 = r0.cells.iter().map(|c| c.counters.cycles).sum();
    layer_metrics(
        &mut metrics,
        &slpmt,
        &trace,
        &software,
        host_ns as f64,
        host_cycles,
    );
    let (plain, with) = (median(&rates(&rounds)), median(&rates(&traced)));
    metrics.put("trace.host_ops_per_s", with);
    metrics.put("trace.overhead_frac", plain / with - 1.0);
    Outcome {
        attempted,
        failed,
        metrics,
        notes,
        spans: traced.pop().map(|r| r.spans).unwrap_or_default(),
    }
}
