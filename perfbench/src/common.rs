//! Shared pieces: host spans, simulated counters, trace folding,
//! order statistics and the metric list every workload fills.

use slpmt_pmem::PmConfig;
use slpmt_trace::{Event, Metrics, TraceRecord};
use slpmt_workloads::PmContext;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Options every workload receives from the command line.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    /// Input seed.
    pub seed: u64,
    /// Host seconds one run measures.
    pub seconds: u64,
    /// Worker threads of the timed rounds (at most `nproc`).
    pub workers: usize,
    /// Worker count of the check round, which must reproduce the timed
    /// rounds' simulated results: `nproc` when `workers` is 1, else 1.
    pub check_workers: usize,
    /// `true` for the traced run (per-layer metrics).
    pub trace: bool,
}

/// One host-time span recorded by the benchmark around a call into a
/// layer. `parent` is 0 for a root span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: u64,
    pub tid: u32,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// A span that has been opened but not closed. A disabled sink does
/// not read the clock (`start` is `None`).
pub struct Open {
    name: &'static str,
    id: u64,
    parent: u64,
    start: Option<Instant>,
}

impl Open {
    /// The span's identifier, to pass as the parent of child spans.
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// In-memory span sink of one thread. Spans are only recorded while
/// `enabled`; a disabled sink costs one branch per call.
pub struct Spans {
    origin: Instant,
    tid: u32,
    next: u64,
    enabled: bool,
    pub spans: Vec<Span>,
}

impl Spans {
    pub fn new(origin: Instant, tid: u32, enabled: bool) -> Self {
        Spans {
            origin,
            tid,
            next: 0,
            enabled,
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn open(&mut self, name: &'static str, parent: u64) -> Open {
        self.next += 1;
        Open {
            name,
            id: (u64::from(self.tid) << 40) | self.next,
            parent,
            start: self.enabled.then(Instant::now),
        }
    }

    /// Closes `o`, recording it when the sink is enabled.
    pub fn close(&mut self, o: Open) {
        if let Some(start) = o.start {
            self.spans.push(Span {
                name: o.name,
                id: o.id,
                parent: o.parent,
                tid: self.tid,
                start_ns: start.duration_since(self.origin).as_nanos() as u64,
                dur_ns: start.elapsed().as_nanos() as u64,
            });
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, parent: u64, f: impl FnOnce() -> R) -> R {
        let o = self.open(name, parent);
        let r = f();
        self.close(o);
        r
    }
}

/// Runs `f(item, spans)` for every item on `workers` threads, taking
/// items in order from a shared counter; results keep item order.
pub fn par_map<T: Send>(
    items: usize,
    workers: usize,
    traced: bool,
    origin: Instant,
    f: impl Fn(usize, &mut Spans) -> T + Sync,
) -> (Vec<T>, Vec<Span>) {
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<T>>> = Mutex::new((0..items).map(|_| None).collect());
    let spans = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for w in 0..workers {
            let (next, slots, spans, f) = (&next, &slots, &spans, &f);
            s.spawn(move || {
                let mut sp = Spans::new(origin, w as u32 + 1, traced);
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= items {
                        break;
                    }
                    let r = f(i, &mut sp);
                    slots.lock().expect("result slots poisoned")[i] = Some(r);
                }
                spans.lock().expect("span list poisoned").extend(sp.spans);
            });
        }
    });
    let out = slots
        .into_inner()
        .expect("result slots poisoned")
        .into_iter()
        .map(|r| r.expect("every item ran"))
        .collect();
    (out, spans.into_inner().expect("span list poisoned"))
}

/// Durations (ns) of every span named `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<u64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns)
        .collect()
}

/// Writes spans as a Chrome/Perfetto trace (`ph: "X"` complete events).
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "{{\"traceEvents\":[")?;
    for (i, s) in spans.iter().enumerate() {
        let sep = if i + 1 == spans.len() { "" } else { "," };
        writeln!(
            out,
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"id\":{},\"parent\":{}}}}}{sep}",
            s.name,
            s.tid,
            s.start_ns as f64 / 1e3,
            s.dur_ns as f64 / 1e3,
            s.id,
            s.parent
        )?;
    }
    writeln!(out, "]}}")?;
    out.flush()
}

/// Nearest-rank percentile (`p` in 0..=1) of unsorted samples; 0 when
/// empty.
pub fn percentile(samples: &[u64], p: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let mut s = samples.to_vec();
    s.sort_unstable();
    let rank = ((p * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

/// Quantile `q` (0..=1) of `xs`, interpolating linearly between
/// order statistics; 0 when empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

pub fn geomean(xs: &[f64]) -> f64 {
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Seconds the calibration loop takes on the host the normalised
/// figures are expressed for (the loop's median on a shared 2-vCPU
/// virtual machine). Only the scale of the reported numbers depends on
/// it.
const CALIBRATION_REF_S: f64 = 0.017;

/// A fixed host workload timed before every untraced round: inserts
/// and lookups of 50,000 pseudo-random keys in a `std` `BTreeMap`, the
/// fastest of three passes (one pass is short enough for a burst of
/// host noise to double it). It is benchmark code, so no change to the
/// simulator moves it, while a slower or busier host slows it and the
/// simulator alike.
pub fn calibrate() -> f64 {
    let pass = || {
        let t0 = Instant::now();
        let mut map = BTreeMap::new();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % (1 << 20)
        };
        for i in 0..50_000u64 {
            map.insert(next(), i);
        }
        let mut acc = 0u64;
        for _ in 0..50_000 {
            acc = acc.wrapping_add(map.get(&next()).copied().unwrap_or(0));
        }
        std::hint::black_box(acc);
        t0.elapsed().as_secs_f64()
    };
    (0..3).map(|_| pass()).fold(f64::INFINITY, f64::min)
}

/// Host figures of the untraced rounds, scaled by the run's median
/// calibration time: `ops/s × calibration s ÷ reference s`. On a shared
/// virtual machine the host's speed drifts by a third over minutes; the
/// calibration loop drifts with it, so the scaled figures repeat where
/// the raw ones do not. One calibration pass is itself noisy, so the
/// scale is the median over the run, not a per-round figure.
#[derive(Debug, Default)]
pub struct HostLog {
    /// `(ops, setup s, timed s)` per round.
    rounds: Vec<(f64, f64, f64)>,
    calibration_s: Vec<f64>,
}

impl HostLog {
    pub fn record(&mut self, ops: f64, setup_s: f64, timed_s: f64, calibration_s: f64) {
        self.rounds.push((ops, setup_s, timed_s));
        self.calibration_s.push(calibration_s);
    }

    /// Puts `setup_s` (median of the set-up times) and `host_ops_per_s`
    /// (lower quartile of the per-round rates: per-round throughput
    /// sits on a steady floor with bursts above it, and the lower
    /// quartile follows the floor), both scaled.
    pub fn put(&self, what: &str, metrics: &mut MetricList, notes: &mut Vec<String>) {
        let scale = median(&self.calibration_s) / CALIBRATION_REF_S;
        let rates: Vec<f64> = self.rounds.iter().map(|r| r.0 / r.2).collect();
        let setups: Vec<f64> = self.rounds.iter().map(|r| r.1).collect();
        let ms: Vec<f64> = self
            .calibration_s
            .iter()
            .map(|c| (c * 1e4).round() / 10.0)
            .collect();
        let raw: Vec<f64> = rates.iter().map(|r| r.round()).collect();
        notes.push(format!(
            "{} timed rounds; raw host {what}/s per round {raw:?}",
            raw.len()
        ));
        notes.push(format!("calibration ms per round {ms:?}; scale {scale:.4}"));
        metrics.put("setup_s", median(&setups) / scale);
        metrics.put("host_ops_per_s", quantile(&rates, 0.25) * scale);
    }
}

/// Peak resident set size of this process, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Simulated counters of one measured phase, as deltas of the
/// machine's public counters. Additive across runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    pub ops: u64,
    pub cycles: u64,
    pub data_bytes: u64,
    pub log_bytes: u64,
    pub logical_bytes: u64,
    pub commit_stall: u64,
    pub compute: u64,
    pub log_records: u64,
    pub log_discarded: u64,
    pub commit_line_persists: u64,
    pub lazy_deferred: u64,
    pub lazy_forced: u64,
    pub fences: u64,
    pub flushes: u64,
    pub fence_stall: u64,
    pub wpq_stall: u64,
    pub persist_events: u64,
    /// Software-PTM log-arena bytes (device-level data writes that are
    /// really log traffic).
    pub soft_log_bytes: u64,
}

impl Counters {
    /// Absolute counter values of `ctx` now.
    pub fn snapshot(ctx: &PmContext) -> Counters {
        let m = ctx.machine();
        let s = m.stats();
        let t = m.device().traffic();
        Counters {
            ops: 0,
            cycles: m.now(),
            data_bytes: t.data_bytes,
            log_bytes: t.log_bytes,
            logical_bytes: ctx.logical_bytes(),
            commit_stall: s.commit_stall_cycles,
            compute: s.compute_cycles,
            log_records: s.log_records_created,
            log_discarded: s.log_records_discarded,
            commit_line_persists: s.commit_line_persists,
            lazy_deferred: s.lazy_lines_deferred,
            lazy_forced: s.lazy_lines_forced,
            fences: s.fences,
            flushes: s.flushes,
            fence_stall: s.fence_stall_cycles,
            wpq_stall: m.device().wpq_stall_cycles(),
            persist_events: m.persist_event_count(),
            soft_log_bytes: ctx.soft().map_or(0, |s| s.traffic.log_media_bytes),
        }
    }

    /// Counters accumulated since `start` over `ops` operations.
    /// Software log-arena writes move from data to log traffic, so the
    /// split means the same for every column.
    pub fn since(ctx: &PmContext, start: &Counters, ops: u64) -> Counters {
        let now = Counters::snapshot(ctx);
        let soft = now.soft_log_bytes - start.soft_log_bytes;
        Counters {
            ops,
            cycles: now.cycles - start.cycles,
            data_bytes: now.data_bytes - start.data_bytes - soft,
            log_bytes: now.log_bytes - start.log_bytes + soft,
            logical_bytes: now.logical_bytes - start.logical_bytes,
            commit_stall: now.commit_stall - start.commit_stall,
            compute: now.compute - start.compute,
            log_records: now.log_records - start.log_records,
            log_discarded: now.log_discarded - start.log_discarded,
            commit_line_persists: now.commit_line_persists - start.commit_line_persists,
            lazy_deferred: now.lazy_deferred - start.lazy_deferred,
            lazy_forced: now.lazy_forced - start.lazy_forced,
            fences: now.fences - start.fences,
            flushes: now.flushes - start.flushes,
            fence_stall: now.fence_stall - start.fence_stall,
            wpq_stall: now.wpq_stall - start.wpq_stall,
            persist_events: now.persist_events - start.persist_events,
            soft_log_bytes: soft,
        }
    }

    pub fn add(&mut self, o: &Counters) {
        self.ops += o.ops;
        self.cycles += o.cycles;
        self.data_bytes += o.data_bytes;
        self.log_bytes += o.log_bytes;
        self.logical_bytes += o.logical_bytes;
        self.commit_stall += o.commit_stall;
        self.compute += o.compute;
        self.log_records += o.log_records;
        self.log_discarded += o.log_discarded;
        self.commit_line_persists += o.commit_line_persists;
        self.lazy_deferred += o.lazy_deferred;
        self.lazy_forced += o.lazy_forced;
        self.fences += o.fences;
        self.flushes += o.flushes;
        self.fence_stall += o.fence_stall;
        self.wpq_stall += o.wpq_stall;
        self.persist_events += o.persist_events;
        self.soft_log_bytes += o.soft_log_bytes;
    }

    /// PM media bytes written (data + log).
    pub fn media(&self) -> u64 {
        self.data_bytes + self.log_bytes
    }

    pub fn waf(&self) -> f64 {
        ratio(self.media() as f64, self.logical_bytes as f64)
    }

    fn per_op(&self, x: u64) -> f64 {
        ratio(x as f64, self.ops as f64)
    }
}

/// Trace-derived totals of the modelled cache, log buffer and WPQ,
/// folded chunk by chunk through [`Metrics::from_records`]. The
/// signature ground truth is carried across chunks, so a hit in one
/// chunk is judged against the insert of an earlier chunk.
#[derive(Debug, Clone, Default)]
pub struct TraceTotals {
    pub evicts: [u64; 4],
    pub logged_evicts: u64,
    pub l3_misses: u64,
    pub appends: u64,
    pub coalesces: u64,
    pub overflow_drains: u64,
    pub occupancy_sum: u64,
    pub occupancy_snapshots: u64,
    pub wpq_depth_sum: u64,
    pub wpq_depth_samples: u64,
    pub sig_hits: u64,
    pub sig_false_hits: u64,
    sig_sets: BTreeMap<u8, Vec<u64>>,
}

impl TraceTotals {
    pub fn absorb(&mut self, records: &[TraceRecord]) {
        let m = Metrics::from_records(records);
        for l in 1..4 {
            self.evicts[l] += m.cache_evicts[l];
        }
        self.logged_evicts += m.cache_logged_evicts;
        self.l3_misses += m.cache_fetches[4];
        self.appends += m.tier_appends;
        self.coalesces += m.tier_coalesces;
        self.overflow_drains += m.tier_overflow_drains;
        for tier in &m.tier_hist {
            self.occupancy_sum += tier
                .iter()
                .enumerate()
                .map(|(n, c)| n as u64 * c)
                .sum::<u64>();
        }
        self.occupancy_snapshots += m.tier_hist[0].iter().sum::<u64>();
        self.wpq_depth_sum += m.wpq_depth_sum;
        self.wpq_depth_samples += m.wpq_depth_samples;
        for rec in records {
            match &rec.event {
                Event::SigInsert { id, lines, .. } => {
                    self.sig_sets.insert(*id, lines.clone());
                }
                Event::SigHit { addr, id } => {
                    self.sig_hits += 1;
                    let actual = self.sig_sets.get(id).is_some_and(|s| s.contains(addr));
                    self.sig_false_hits += u64::from(!actual);
                }
                Event::TxnIdRetire { id, .. } => {
                    self.sig_sets.remove(id);
                }
                _ => {}
            }
        }
    }

    pub fn add(&mut self, o: &TraceTotals) {
        for l in 1..4 {
            self.evicts[l] += o.evicts[l];
        }
        self.logged_evicts += o.logged_evicts;
        self.l3_misses += o.l3_misses;
        self.appends += o.appends;
        self.coalesces += o.coalesces;
        self.overflow_drains += o.overflow_drains;
        self.occupancy_sum += o.occupancy_sum;
        self.occupancy_snapshots += o.occupancy_snapshots;
        self.wpq_depth_sum += o.wpq_depth_sum;
        self.wpq_depth_samples += o.wpq_depth_samples;
        self.sig_hits += o.sig_hits;
        self.sig_false_hits += o.sig_false_hits;
    }
}

/// Per-ring capacity for traced runs: large enough that no measured
/// phase between two `take_trace` calls drops a record.
pub const TRACE_RING: usize = 1 << 21;

/// Metric values in the order a workload produced them. Units live in
/// the metric tables of `main.rs`.
#[derive(Debug, Default)]
pub struct MetricList(pub Vec<(&'static str, f64)>);

impl MetricList {
    pub fn put(&mut self, name: &'static str, value: f64) {
        self.0.push((name, value));
    }
}

/// The counter- and trace-derived per-layer metrics shared by every
/// workload: `core` and `pmem` from `layer` (the SLPMT column of the
/// workload), `cache` and `logbuf` from its trace, `ptm` from
/// `software` (the software-PTM columns; all zero where none ran).
pub fn layer_metrics(
    out: &mut MetricList,
    layer: &Counters,
    trace: &TraceTotals,
    software: &Counters,
    host_ns: f64,
    host_cycles: u64,
) {
    let ops = layer.ops as f64;
    let c = layer;
    out.put("core.commit_stall_cycles_per_op", c.per_op(c.commit_stall));
    out.put("core.compute_cycles_per_op", c.per_op(c.compute));
    out.put("core.log_records_per_op", c.per_op(c.log_records));
    out.put(
        "core.log_records_discarded_per_op",
        c.per_op(c.log_discarded),
    );
    out.put(
        "core.commit_line_persists_per_op",
        c.per_op(c.commit_line_persists),
    );
    out.put(
        "core.lazy_forced_frac",
        ratio(c.lazy_forced as f64, c.lazy_deferred as f64),
    );
    out.put(
        "core.sig_false_positive_rate",
        ratio(trace.sig_false_hits as f64, trace.sig_hits as f64),
    );
    out.put(
        "core.host_ns_per_sim_kcycle",
        ratio(host_ns * 1000.0, host_cycles as f64),
    );
    out.put("pmem.data_bytes_per_op", c.per_op(c.data_bytes));
    out.put("pmem.log_bytes_per_op", c.per_op(c.log_bytes));
    out.put("pmem.wpq_stall_cycles_per_op", c.per_op(c.wpq_stall));
    out.put(
        "pmem.wpq_depth_mean",
        ratio(trace.wpq_depth_sum as f64, trace.wpq_depth_samples as f64),
    );
    // Every last-level miss is served by the medium at the fixed read
    // latency (the machine keeps no read-cycle counter of its own).
    let read_cycles = trace.l3_misses * PmConfig::default().pm_read_cycles;
    out.put("pmem.read_cycles_per_op", ratio(read_cycles as f64, ops));
    out.put("pmem.persist_events_per_op", c.per_op(c.persist_events));
    out.put("cache.l3_miss_per_op", ratio(trace.l3_misses as f64, ops));
    for (l, name) in [
        (1, "cache.evicts_l1_per_op"),
        (2, "cache.evicts_l2_per_op"),
        (3, "cache.evicts_l3_per_op"),
    ] {
        out.put(name, ratio(trace.evicts[l] as f64, ops));
    }
    out.put(
        "cache.logged_evicts_per_op",
        ratio(trace.logged_evicts as f64, ops),
    );
    out.put("logbuf.appends_per_op", ratio(trace.appends as f64, ops));
    out.put(
        "logbuf.coalesce_ratio",
        ratio(trace.coalesces as f64, trace.appends as f64),
    );
    out.put(
        "logbuf.overflow_drains_per_op",
        ratio(trace.overflow_drains as f64, ops),
    );
    out.put(
        "logbuf.tier_occupancy_mean",
        ratio(trace.occupancy_sum as f64, trace.occupancy_snapshots as f64),
    );
    let s = software;
    out.put("ptm.fences_per_op", s.per_op(s.fences));
    out.put("ptm.flushes_per_op", s.per_op(s.flushes));
    out.put("ptm.fence_stall_cycles_per_op", s.per_op(s.fence_stall));
}

/// splitmix64-style fold, for round digests of simulated results.
pub fn fold(acc: u64, x: u64) -> u64 {
    let mut z = acc.wrapping_add(x).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Counters {
    /// Digest of every field (worker-count and round identity check).
    pub fn digest(&self, acc: u64) -> u64 {
        [
            self.ops,
            self.cycles,
            self.data_bytes,
            self.log_bytes,
            self.logical_bytes,
            self.commit_stall,
            self.compute,
            self.log_records,
            self.log_discarded,
            self.commit_line_persists,
            self.lazy_deferred,
            self.lazy_forced,
            self.fences,
            self.flushes,
            self.fence_stall,
            self.wpq_stall,
            self.persist_events,
        ]
        .iter()
        .fold(acc, |a, &x| fold(a, x))
    }
}
