//! Benchmark driver: the [`DurableIndex`] trait and the insert-run
//! harness used by every figure.

use crate::ctx::{AnnotationSource, PmContext};
use crate::ycsb::{MixedOp, YcsbOp};
use slpmt_core::{MachineConfig, SchemeKind};
use slpmt_pmem::{PmAddr, WriteTraffic, LINE_BYTES};
use slpmt_ptm::PtmTraffic;
use std::fmt;

/// A durable key-value index evaluated by the paper.
///
/// `insert` runs one durable transaction per call (the YCSB-load
/// operation granularity). The untimed methods (`contains`,
/// `value_of`, `len`, `check_invariants`, `reachable`) inspect logical
/// state via peeks; `recover` repairs the structure after
/// [`PmContext::crash_and_recover`] replayed the undo log.
pub trait DurableIndex {
    /// Benchmark name as figures print it.
    fn name(&self) -> &'static str;

    /// A boxed copy of the index handle. The handle only caches root
    /// addresses and sizes; the structure itself lives in the
    /// context's persistent image, so a copy paired with a clone of
    /// the context is an independent fork of the structure.
    fn clone_box(&self) -> Box<dyn DurableIndex>;

    /// Inserts `key → value` in one durable transaction.
    fn insert(&mut self, ctx: &mut PmContext, key: u64, value: &[u8]);

    /// Removes `key` in one durable transaction, returning whether it
    /// was present. Deallocated regions are the Pattern 1 *free* case:
    /// stores into them need neither log nor persistence, and the
    /// frees themselves defer to commit.
    fn remove(&mut self, ctx: &mut PmContext, key: u64) -> bool;

    /// Timed lookup: reads run through the simulated cache hierarchy
    /// (no transaction needed — reads are non-mutating).
    fn get(&mut self, ctx: &mut PmContext, key: u64) -> Option<Vec<u8>>;

    /// Replaces `key`'s value in one durable transaction, returning
    /// whether the key was present. The PM-friendly copy-on-write
    /// idiom: write a fresh blob log-free, swap the (logged) pointer,
    /// free the old blob — a crash either keeps the old blob (pointer
    /// rolled back, fresh blob leaks to GC) or the new one.
    fn update(&mut self, ctx: &mut PmContext, key: u64, value: &[u8]) -> bool;

    /// Whether `key` is present (untimed).
    fn contains(&self, ctx: &PmContext, key: u64) -> bool;

    /// The value bytes stored for `key`, if present (untimed).
    fn value_of(&self, ctx: &PmContext, key: u64) -> Option<Vec<u8>>;

    /// Number of keys present (untimed).
    fn len(&self, ctx: &PmContext) -> usize;

    /// `true` when the index holds no keys.
    fn is_empty(&self, ctx: &PmContext) -> bool {
        self.len(ctx) == 0
    }

    /// Structure-specific invariants (chain integrity, BST/RB/AVL
    /// properties, heap order, …).
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violation.
    fn check_invariants(&self, ctx: &PmContext) -> Result<(), String>;

    /// Every heap allocation reachable from the structure's roots
    /// (input to the post-crash GC).
    fn reachable(&self, ctx: &PmContext) -> Vec<PmAddr>;

    /// Post-crash, post-undo-replay structure recovery: rebuild
    /// lazily-persistent data (parent pointers, heights, moved data,
    /// counters) from what is durable.
    fn recover(&mut self, ctx: &mut PmContext);

    /// Timed range scan for `lo..=hi` when the index is ordered
    /// (`None` otherwise — hash-style indexes can't serve ranges, and
    /// mixed runners degrade their scans to point lookups). Ordered
    /// structures override this to delegate to
    /// [`RangeIndex::scan`], making scans reachable through the
    /// `dyn DurableIndex` the drivers hold.
    fn scan_range(&mut self, ctx: &mut PmContext, lo: u64, hi: u64) -> Option<Vec<(u64, Vec<u8>)>> {
        let _ = (ctx, lo, hi);
        None
    }
}

/// Ordered indexes additionally support timed range scans.
pub trait RangeIndex: DurableIndex {
    /// Returns every `(key, value)` with `lo <= key <= hi`, in key
    /// order, reading through the simulated cache hierarchy.
    fn scan(&mut self, ctx: &mut PmContext, lo: u64, hi: u64) -> Vec<(u64, Vec<u8>)>;
}

/// Which index a run instantiates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IndexKind {
    /// Chained hash table with resizing.
    Hashtable,
    /// Red-black tree.
    Rbtree,
    /// Array max-heap.
    Heap,
    /// AVL tree.
    Avl,
    /// PMDK-style KV store, B-tree index.
    KvBtree,
    /// PMDK-style KV store, crit-bit-tree index.
    KvCtree,
    /// PMDK-style KV store, radix-tree index.
    KvRtree,
    /// PMDK-style KV store, skiplist index (extension backend).
    KvSkiplist,
}

impl IndexKind {
    /// The four kernel benchmarks (Figure 8).
    pub const KERNELS: [IndexKind; 4] = [
        IndexKind::Hashtable,
        IndexKind::Rbtree,
        IndexKind::Heap,
        IndexKind::Avl,
    ];

    /// The PMKV backends (Figure 14).
    pub const PMKV: [IndexKind; 3] = [IndexKind::KvBtree, IndexKind::KvCtree, IndexKind::KvRtree];

    /// Every implemented index, including extension backends.
    pub const ALL: [IndexKind; 8] = [
        IndexKind::Hashtable,
        IndexKind::Rbtree,
        IndexKind::Heap,
        IndexKind::Avl,
        IndexKind::KvBtree,
        IndexKind::KvCtree,
        IndexKind::KvRtree,
        IndexKind::KvSkiplist,
    ];

    /// Builds the index (setup is untimed) and returns it with its
    /// resolved annotation table installed into `ctx`.
    pub fn build(
        self,
        ctx: &mut PmContext,
        value_size: usize,
        source: AnnotationSource,
    ) -> Box<dyn DurableIndex> {
        match self {
            IndexKind::Hashtable => {
                Box::new(crate::hashtable::Hashtable::new(ctx, value_size, source))
            }
            IndexKind::Rbtree => Box::new(crate::rbtree::Rbtree::new(ctx, value_size, source)),
            IndexKind::Heap => Box::new(crate::heap::MaxHeap::new(ctx, value_size, source)),
            IndexKind::Avl => Box::new(crate::avl::AvlTree::new(ctx, value_size, source)),
            IndexKind::KvBtree => Box::new(crate::kv::btree::BtreeKv::new(ctx, value_size, source)),
            IndexKind::KvCtree => Box::new(crate::kv::ctree::CtreeKv::new(ctx, value_size, source)),
            IndexKind::KvRtree => Box::new(crate::kv::rtree::RtreeKv::new(ctx, value_size, source)),
            IndexKind::KvSkiplist => Box::new(crate::kv::skiplist::SkiplistKv::new(
                ctx, value_size, source,
            )),
        }
    }
}

impl fmt::Display for IndexKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            IndexKind::Hashtable => "hashtable",
            IndexKind::Rbtree => "rbtree",
            IndexKind::Heap => "heap",
            IndexKind::Avl => "avl",
            IndexKind::KvBtree => "kv-btree",
            IndexKind::KvCtree => "kv-ctree",
            IndexKind::KvRtree => "kv-rtree",
            IndexKind::KvSkiplist => "kv-skiplist",
        };
        f.write_str(s)
    }
}

/// Result of one benchmark run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Scheme simulated (hardware design or software PTM flavour).
    pub scheme: SchemeKind,
    /// Index evaluated.
    pub kind: IndexKind,
    /// Total simulated cycles for the measured phase.
    pub cycles: u64,
    /// PM write traffic for the measured phase. For software flavours
    /// the log-arena persists are reattributed from data to log
    /// traffic (the device cannot tell a software log line from data).
    pub traffic: WriteTraffic,
    /// Logical payload bytes the workload stored during the measured
    /// phase — the write-amplification denominator.
    pub logical_bytes: u64,
    /// Machine event counters.
    pub stats: slpmt_core::MachineStats,
}

impl RunResult {
    /// Write-amplification factor: PM media bytes written (data + log)
    /// per logical payload byte stored. `NaN`-free: returns 0 when the
    /// run stored nothing.
    pub fn waf(&self) -> f64 {
        if self.logical_bytes == 0 {
            return 0.0;
        }
        (self.traffic.data_bytes + self.traffic.log_bytes) as f64 / self.logical_bytes as f64
    }

    /// Speedup of this run relative to `baseline` (baseline cycles /
    /// these cycles) — the Figure 8 metric.
    pub fn speedup_vs(&self, baseline: &RunResult) -> f64 {
        baseline.cycles as f64 / self.cycles as f64
    }

    /// Write-traffic reduction relative to `baseline` (1 − media
    /// bytes / baseline media bytes), the Figure 8/11 metric.
    pub fn traffic_reduction_vs(&self, baseline: &RunResult) -> f64 {
        self.traffic.reduction_vs(&baseline.traffic)
    }
}

/// Runs the YCSB-load insert stream on one index/scheme combination
/// and returns cycles + traffic. `verify` additionally checks
/// invariants and membership after the run (used by tests; figures
/// disable it for speed).
pub fn run_inserts(
    scheme: impl Into<SchemeKind>,
    kind: IndexKind,
    ops: &[YcsbOp],
    value_size: usize,
    source: AnnotationSource,
    verify: bool,
) -> RunResult {
    run_inserts_with(
        MachineConfig::for_kind(scheme),
        kind,
        ops,
        value_size,
        source,
        verify,
    )
}

/// Up-front heap-arena estimate for an op stream: value payloads plus
/// index-node and allocator overhead per op, with slack for structure
/// roots. Only sizes the host-side page prefault (clamped to capacity
/// by the space itself) — an over- or under-estimate affects setup
/// cost, never simulated behaviour.
fn arena_estimate(ops: usize, value_size: usize) -> u64 {
    ops as u64 * (value_size as u64 + 192) + (1 << 20)
}

/// Measured-phase traffic delta. Software flavours' log-arena persists
/// arrive at the device as plain data-line writes; this reattributes
/// them to log traffic so the data/log split means the same thing for
/// every scheme column.
fn measured_traffic(ctx: &PmContext, start: &WriteTraffic, soft_start: PtmTraffic) -> WriteTraffic {
    let mut traffic = *ctx.machine().device().traffic();
    traffic.data_bytes -= start.data_bytes;
    traffic.log_bytes -= start.log_bytes;
    traffic.data_lines -= start.data_lines;
    traffic.log_records -= start.log_records;
    traffic.wpq_lines -= start.wpq_lines;
    if let Some(s) = ctx.soft() {
        let log_bytes = s.traffic.log_media_bytes - soft_start.log_media_bytes;
        let records = s.traffic.log_records - soft_start.log_records;
        traffic.data_bytes -= log_bytes;
        traffic.data_lines -= log_bytes / LINE_BYTES as u64;
        traffic.log_bytes += log_bytes;
        traffic.log_records += records;
    }
    traffic
}

fn soft_traffic(ctx: &PmContext) -> PtmTraffic {
    ctx.soft().map(|s| s.traffic).unwrap_or_default()
}

/// [`run_inserts`] with an explicit machine configuration (latency
/// sweeps, tiny caches).
pub fn run_inserts_with(
    cfg: MachineConfig,
    kind: IndexKind,
    ops: &[YcsbOp],
    value_size: usize,
    source: AnnotationSource,
    verify: bool,
) -> RunResult {
    let scheme = cfg.kind();
    let mut ctx = PmContext::with_config(cfg, slpmt_annotate::AnnotationTable::new());
    ctx.prefault_heap(arena_estimate(ops.len(), value_size));
    let mut index = kind.build(&mut ctx, value_size, source);
    let start_cycles = ctx.machine().now();
    let start_traffic = *ctx.machine().device().traffic();
    let start_soft = soft_traffic(&ctx);
    let start_logical = ctx.logical_bytes();
    for op in ops {
        index.insert(&mut ctx, op.key, &op.value);
    }
    let cycles = ctx.machine().now() - start_cycles;
    let traffic = measured_traffic(&ctx, &start_traffic, start_soft);
    let logical_bytes = ctx.logical_bytes() - start_logical;
    if verify {
        index
            .check_invariants(&ctx)
            .unwrap_or_else(|e| panic!("{kind}/{scheme}: invariant violated after run: {e}"));
        assert_eq!(index.len(&ctx), ops.len(), "{kind}/{scheme}: size mismatch");
        for op in ops {
            assert!(
                index.contains(&ctx, op.key),
                "{kind}/{scheme}: key {} missing",
                op.key
            );
        }
    }
    RunResult {
        scheme,
        kind,
        cycles,
        traffic,
        logical_bytes,
        stats: *ctx.machine().stats(),
    }
}

/// [`run_inserts_with`] with event tracing enabled for the measured
/// phase, returning the captured records alongside the result. Setup
/// (structure build) happens before tracing turns on, so the records
/// cover exactly the measured insert stream; verification is skipped
/// (capture runs exist to be exported, not gated).
pub fn run_inserts_traced(
    cfg: MachineConfig,
    kind: IndexKind,
    ops: &[YcsbOp],
    value_size: usize,
    source: AnnotationSource,
) -> (RunResult, Vec<slpmt_core::TraceRecord>) {
    let scheme = cfg.kind();
    let mut ctx = PmContext::with_config(cfg, slpmt_annotate::AnnotationTable::new());
    ctx.prefault_heap(arena_estimate(ops.len(), value_size));
    let mut index = kind.build(&mut ctx, value_size, source);
    ctx.enable_tracing(1 << 20);
    let start_cycles = ctx.machine().now();
    let start_traffic = *ctx.machine().device().traffic();
    let start_soft = soft_traffic(&ctx);
    let start_logical = ctx.logical_bytes();
    for op in ops {
        index.insert(&mut ctx, op.key, &op.value);
    }
    let cycles = ctx.machine().now() - start_cycles;
    let traffic = measured_traffic(&ctx, &start_traffic, start_soft);
    let logical_bytes = ctx.logical_bytes() - start_logical;
    let stats = *ctx.machine().stats();
    let records = ctx.take_trace();
    (
        RunResult {
            scheme,
            kind,
            cycles,
            traffic,
            logical_bytes,
            stats,
        },
        records,
    )
}

/// Executes one mixed operation, asserting it is legal at this point
/// in the trace (the generators only target live keys). Scans go
/// through [`DurableIndex::scan_range`] on ordered indexes — checking
/// the result set against the keys the generator materialised — and
/// degrade to point lookups elsewhere.
fn apply_mixed(
    index: &mut dyn DurableIndex,
    ctx: &mut PmContext,
    op: &MixedOp,
    kind: IndexKind,
    scheme: SchemeKind,
) {
    match op {
        MixedOp::Insert(o) => index.insert(ctx, o.key, &o.value),
        MixedOp::Read(k) => {
            let v = index.get(ctx, *k);
            assert!(v.is_some(), "{kind}/{scheme}: live key {k} unreadable");
        }
        MixedOp::Remove(k) => {
            let removed = index.remove(ctx, *k);
            assert!(removed, "{kind}/{scheme}: live key {k} unremovable");
        }
        MixedOp::Update(o) => {
            let updated = index.update(ctx, o.key, &o.value);
            assert!(updated, "{kind}/{scheme}: live key {} unupdatable", o.key);
        }
        MixedOp::Rmw(o) => {
            let v = index.get(ctx, o.key);
            assert!(v.is_some(), "{kind}/{scheme}: rmw key {} unreadable", o.key);
            let updated = index.update(ctx, o.key, &o.value);
            assert!(updated, "{kind}/{scheme}: rmw key {} unupdatable", o.key);
        }
        MixedOp::Scan { keys } => {
            let (lo, hi) = (keys[0], *keys.last().expect("scans are never empty"));
            match index.scan_range(ctx, lo, hi) {
                Some(got) => {
                    let got_keys: Vec<u64> = got.iter().map(|(k, _)| *k).collect();
                    assert_eq!(
                        &got_keys, keys,
                        "{kind}/{scheme}: scan [{lo}, {hi}] returned wrong key set"
                    );
                }
                None => {
                    for k in keys {
                        let v = index.get(ctx, *k);
                        assert!(v.is_some(), "{kind}/{scheme}: scanned key {k} unreadable");
                    }
                }
            }
        }
    }
}

/// Runs a mixed workload (after an untimed load phase): inserts and
/// removes are durable transactions, reads are timed cache-hierarchy
/// lookups. Returns the measured-phase result.
pub fn run_mixed(
    cfg: MachineConfig,
    kind: IndexKind,
    load: &[YcsbOp],
    ops: &[MixedOp],
    value_size: usize,
    source: AnnotationSource,
    verify: bool,
) -> RunResult {
    run_mixed_latencies(cfg, kind, load, ops, value_size, source, verify).0
}

/// The operation classes a mixed run distinguishes for latency
/// reporting.
pub const OP_CLASSES: [&str; 6] = ["read", "insert", "update", "remove", "rmw", "scan"];

/// Percentile summary of one operation class's simulated latencies.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencySummary {
    /// Number of operations observed.
    pub count: u64,
    /// Median simulated cycles per operation.
    pub p50: u64,
    /// 99th-percentile simulated cycles per operation.
    pub p99: u64,
    /// Worst observed operation, in cycles.
    pub max: u64,
    /// Total simulated cycles across the class.
    pub total: u64,
}

impl LatencySummary {
    fn from_samples(mut samples: Vec<u64>) -> LatencySummary {
        if samples.is_empty() {
            return LatencySummary::default();
        }
        samples.sort_unstable();
        let pct = |p: u64| samples[((samples.len() - 1) as u64 * p / 100) as usize];
        LatencySummary {
            count: samples.len() as u64,
            p50: pct(50),
            p99: pct(99),
            max: *samples.last().unwrap(),
            total: samples.iter().sum(),
        }
    }
}

/// Per-class latency summaries of one mixed run, in [`OP_CLASSES`]
/// order. Everything is simulated cycles, so the breakdown is
/// bit-identical across reruns and host machines.
#[derive(Debug, Clone, Default)]
pub struct MixLatencies {
    /// One summary per [`OP_CLASSES`] entry (empty classes are
    /// all-zero).
    pub classes: [LatencySummary; 6],
}

impl MixLatencies {
    /// Iterates `(class name, summary)` pairs, skipping empty classes.
    pub fn present(&self) -> impl Iterator<Item = (&'static str, &LatencySummary)> + '_ {
        OP_CLASSES
            .iter()
            .zip(self.classes.iter())
            .filter(|(_, s)| s.count > 0)
            .map(|(n, s)| (*n, s))
    }
}

fn class_of(op: &MixedOp) -> usize {
    match op {
        MixedOp::Read(_) => 0,
        MixedOp::Insert(_) => 1,
        MixedOp::Update(_) => 2,
        MixedOp::Remove(_) => 3,
        MixedOp::Rmw(_) => 4,
        MixedOp::Scan { .. } => 5,
    }
}

/// [`run_mixed`] that also reports per-class p50/p99 simulated-cycle
/// latencies, taken from the machine clock around each operation.
pub fn run_mixed_latencies(
    cfg: MachineConfig,
    kind: IndexKind,
    load: &[YcsbOp],
    ops: &[MixedOp],
    value_size: usize,
    source: AnnotationSource,
    verify: bool,
) -> (RunResult, MixLatencies) {
    let scheme = cfg.kind();
    let mut ctx = PmContext::with_config(cfg, slpmt_annotate::AnnotationTable::new());
    ctx.prefault_heap(arena_estimate(load.len() + ops.len(), value_size));
    let mut index = kind.build(&mut ctx, value_size, source);
    for op in load {
        index.insert(&mut ctx, op.key, &op.value);
    }
    let start_cycles = ctx.machine().now();
    let start_traffic = *ctx.machine().device().traffic();
    let start_soft = soft_traffic(&ctx);
    let start_logical = ctx.logical_bytes();
    let mut samples: [Vec<u64>; 6] = Default::default();
    for op in ops {
        let t0 = ctx.machine().now();
        apply_mixed(index.as_mut(), &mut ctx, op, kind, scheme);
        samples[class_of(op)].push(ctx.machine().now() - t0);
    }
    let cycles = ctx.machine().now() - start_cycles;
    let traffic = measured_traffic(&ctx, &start_traffic, start_soft);
    let logical_bytes = ctx.logical_bytes() - start_logical;
    if verify {
        index
            .check_invariants(&ctx)
            .unwrap_or_else(|e| panic!("{kind}/{scheme}: invariant violated after mixed run: {e}"));
    }
    let lat = MixLatencies {
        classes: samples.map(LatencySummary::from_samples),
    };
    (
        RunResult {
            scheme,
            kind,
            cycles,
            traffic,
            logical_bytes,
            stats: *ctx.machine().stats(),
        },
        lat,
    )
}
