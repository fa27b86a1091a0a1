//! End-to-end and per-layer benchmark of the SLPMT simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload ycsb-load|kv-serve|crash-recover --seed N --seconds S --trace 0|1 [--workers W]
//! ```
//!
//! Human-readable lines (host facts, per-column tables, every metric
//! with its unit) go to stdout first; the last stdout line is one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`. `--trace 0`
//! reports the end-to-end metrics, `--trace 1` the per-layer ones. See
//! `perfbench/README.md` for the metric definitions.

mod common;
mod crash_recover;
mod kv_serve;
mod probes;
mod ycsb_load;

use common::{MetricList, Opts, Span};
use std::process::{Command, ExitCode};

/// End-to-end metrics `(name, unit)`, in report order.
const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("host_ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("sim_cycles_per_op", "cycles"),
    ("waf", "ratio"),
    ("slpmt_speedup_vs_fg", "x"),
    ("slpmt_traffic_reduction_vs_fg", "ratio"),
    ("req_p50_cycles", "cycles"),
    ("req_p999_cycles", "cycles"),
    ("failed_frac", "ratio"),
];

/// Per-layer metrics `(name, unit)`, in report order. A workload that
/// does not exercise a layer reports its metrics as 0 (listed in the
/// README).
const PER_LAYER: [(&str, &str); 50] = [
    ("workloads.insert_host_ns_p50", "ns"),
    ("workloads.insert_host_ns_p99", "ns"),
    ("workloads.insert_sim_cycles_p50", "cycles"),
    ("workloads.insert_sim_cycles_p99", "cycles"),
    ("workloads.build_s", "s"),
    ("core.commit_stall_cycles_per_op", "cycles/op"),
    ("core.compute_cycles_per_op", "cycles/op"),
    ("core.log_records_per_op", "count/op"),
    ("core.log_records_discarded_per_op", "count/op"),
    ("core.commit_line_persists_per_op", "count/op"),
    ("core.lazy_forced_frac", "ratio"),
    ("core.sig_false_positive_rate", "ratio"),
    ("core.host_ns_per_sim_kcycle", "ns"),
    ("pmem.data_bytes_per_op", "B/op"),
    ("pmem.log_bytes_per_op", "B/op"),
    ("pmem.wpq_stall_cycles_per_op", "cycles/op"),
    ("pmem.wpq_depth_mean", "entries"),
    ("pmem.read_cycles_per_op", "cycles/op"),
    ("pmem.persist_events_per_op", "count/op"),
    ("cache.l3_miss_per_op", "count/op"),
    ("cache.evicts_l1_per_op", "count/op"),
    ("cache.evicts_l2_per_op", "count/op"),
    ("cache.evicts_l3_per_op", "count/op"),
    ("cache.logged_evicts_per_op", "count/op"),
    ("logbuf.appends_per_op", "count/op"),
    ("logbuf.coalesce_ratio", "ratio"),
    ("logbuf.overflow_drains_per_op", "count/op"),
    ("logbuf.tier_occupancy_mean", "records"),
    ("ptm.fences_per_op", "count/op"),
    ("ptm.flushes_per_op", "count/op"),
    ("ptm.fence_stall_cycles_per_op", "cycles/op"),
    ("kv.parse_host_ns_p50", "ns"),
    ("kv.parse_host_ns_p99", "ns"),
    ("kv.dispatch_host_ns_p50", "ns"),
    ("kv.dispatch_host_ns_p99", "ns"),
    ("kv.admission_queued", "count"),
    ("kv.admission_queued_cycles", "cycles"),
    ("recovery.point_host_us_p50", "us"),
    ("recovery.point_host_us_p99", "us"),
    ("recovery.count_events_s", "s"),
    ("probe.cache_host_ns", "ns"),
    ("probe.logbuf_host_ns", "ns"),
    ("probe.pmem_persist_line_host_ns", "ns"),
    ("probe.pmem_persist_line_sim_cycles", "cycles"),
    ("probe.pmem_log_pack_host_ns", "ns"),
    ("probe.pmem_log_pack_sim_cycles", "cycles"),
    ("probe.log_crc_host_ns", "ns"),
    ("probe.recover_host_ns", "ns"),
    ("trace.host_ops_per_s", "1/s"),
    ("trace.overhead_frac", "ratio"),
];

/// The workloads, with the reason each was chosen.
const WORKLOADS: [(&str, &str); 3] = [
    (
        "ycsb-load",
        "write-only durable inserts: storeT, log buffer, commit persists, WPQ and fences",
    ),
    (
        "kv-serve",
        "read-dominated YCSB-B larger than L3: codec, index lookups, L3 misses, PM reads",
    ),
    (
        "crash-recover",
        "exhaustive crash points: log replay, CRC validation, structure recovery, oracle",
    ),
];

/// What one workload run produced.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: MetricList,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
    /// Host spans of the last traced round, written out at the end.
    pub spans: Vec<Span>,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--workers <w>]",
        names.join("|")
    )
}

fn parse_args(nproc: usize) -> Result<(String, Opts), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut opts = Opts {
        seed: 0,
        seconds: 10,
        workers: 1,
        check_workers: nproc,
        trace: false,
    };
    let mut seed = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => opts.seconds = num()?,
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                }
            }
            "--workers" => opts.workers = num()? as usize,
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.iter().any(|w| w.0 == workload) {
        return Err(format!("unknown workload {workload}"));
    }
    opts.seed = seed.ok_or("missing --seed")?;
    if opts.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    if opts.workers == 0 || opts.workers > nproc {
        return Err(format!(
            "--workers {} refused: must be between 1 and available_parallelism ({nproc})",
            opts.workers
        ));
    }
    opts.check_workers = if opts.workers == 1 { nproc } else { 1 };
    Ok((workload, opts))
}

/// First line of a command's stdout, or `unknown`.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

fn json_metrics(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

/// Orders `produced` by `table`; a metric the workload did not produce
/// is reported as 0 (layer not exercised), an unlisted one is a bug.
fn select(produced: &MetricList, table: &[(&'static str, &'static str)]) -> Vec<Metric> {
    for (name, _) in &produced.0 {
        assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|m| m.0 == *name),
            "metric {name} is not in the metric tables"
        );
    }
    table
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            value: produced.0.iter().find(|m| m.0 == name).map_or(0.0, |m| m.1),
            unit,
        })
        .collect()
}

fn main() -> ExitCode {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (workload, opts) = match parse_args(nproc) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let why = WORKLOADS
        .iter()
        .find(|w| w.0 == workload)
        .map_or("", |w| w.1);
    println!("# workload {workload}: {why}");
    println!(
        "# host: available_parallelism {nproc}, workers {} (check round {}), rustc {}, git {}, seed {}, seconds {}, trace {}",
        opts.workers,
        opts.check_workers,
        command_line("rustc", &["--version"]),
        command_line("git", &["--git-dir", ".git", "rev-parse", "HEAD"]),
        opts.seed,
        opts.seconds,
        u8::from(opts.trace)
    );
    let mut out = match workload.as_str() {
        "ycsb-load" => ycsb_load::run(&opts),
        "kv-serve" => kv_serve::run(&opts),
        _ => crash_recover::run(&opts),
    };
    if opts.trace {
        probes::run(&mut out.metrics);
    } else {
        out.metrics.put("peak_rss_mb", common::peak_rss_mb());
        let frac = out.failed as f64 / out.attempted.max(1) as f64;
        out.metrics.put("failed_frac", frac);
    }
    for line in &out.notes {
        println!("# {line}");
    }
    let table: &[(&str, &str)] = if opts.trace { &PER_LAYER } else { &END_TO_END };
    let metrics = select(&out.metrics, table);
    for m in &metrics {
        println!("# {:<36} {:>18.6} {}", m.name, m.value, m.unit);
    }
    if opts.trace {
        let path = format!("perfbench-out/spans-{workload}-seed{}.json", opts.seed);
        match common::write_spans(std::path::Path::new(&path), &out.spans) {
            Ok(()) => println!("# spans written to {path}"),
            Err(e) => println!("# spans not written ({path}: {e})"),
        }
    }
    let correct = out.failed == 0;
    // failed_frac travels in `failed`/`attempted`; the metric map holds
    // the BENCHMARK.json metrics only.
    let reported: Vec<Metric> = metrics
        .into_iter()
        .filter(|m| m.name != "failed_frac")
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.attempted.max(1),
        out.failed,
        json_metrics(&reported)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
