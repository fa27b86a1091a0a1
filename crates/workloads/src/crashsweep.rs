//! Exhaustive persist-event crash sweep with oracle-checked recovery.
//!
//! The commit-phase crash matrix (`CommitPhase`) covers four coarse
//! points of the commit sequence; everything *between* them — the
//! individual WPQ drains, log-record pack writes, lazy-drain forced
//! persists, log truncations — is exactly where selective logging and
//! lazy persistency could silently break recoverability. This module
//! enumerates those states exhaustively:
//!
//! 1. [`count_events`] runs a fixed seeded workload trace once and
//!    returns how many persist events `N` it generates (sanity-checking
//!    the crash-free end state against a volatile oracle on the way).
//! 2. [`run_crash_at`] replays the identical trace with the device
//!    armed to crash at event `k` (see
//!    `slpmt_core::Machine::arm_crash_at_event`): events `1..=k` are
//!    durable, every later mutation is dropped. It then crashes, runs
//!    log replay plus the structure's own recovery, and checks the
//!    result against the oracle.
//! 3. [`sweep_serial`] does that for every `k ∈ 1..=N`. The parallel
//!    fan-out over a scheme × workload matrix is the
//!    `slpmt_bench::crashsweep::CrashSweep` battery of the sweep engine.
//!
//! ### The oracle check
//!
//! Commit markers persist in transaction order, so the durably
//! committed transactions always form a prefix of the sequence
//! numbers. Each trace operation records the sequence number of the
//! last transaction it ran; `b` = the number of operations whose last
//! transaction has a durable marker. Auxiliary transactions an
//! operation runs *before* its main one (a hashtable update closing a
//! redo window, a resize) are membership-neutral, so the recovered
//! structure must equal a `BTreeMap` oracle after exactly `b`
//! operations: same length, every key mapped to its exact value,
//! structure invariants intact, and the heap clean after the leak GC
//! ([`inspect`](crate::inspector::inspect)-verified).
//!
//! Battery-backed configurations (§V-E) are *not* swept: with the
//! caches inside the persistence domain, the state a power failure
//! leaves behind depends on the volatile cache contents at failure
//! time, not on a prefix of the persist-event trace, so "crash at
//! event k" does not define their crash state. (No named [`Scheme`]
//! enables the battery; it is a separate `MachineConfig` flag.)

use crate::ctx::{AnnotationSource, PmContext};
use crate::inspector::inspect;
use crate::runner::{DurableIndex, IndexKind};
use crate::ycsb::{ycsb_mix, MixSpec, MixedOp};
use slpmt_annotate::AnnotationTable;
use slpmt_core::{panic_msg, RecoveryReport, Scheme, SchemeKind};
use slpmt_pmem::FaultPlan;
use slpmt_prng::splitmix64;
use std::collections::BTreeMap;
use std::fmt;

/// One cell of a crash sweep: a scheme × workload pair plus the trace
/// parameters that make it reproducible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepCase {
    /// Design to simulate (hardware scheme or software PTM flavour).
    pub scheme: SchemeKind,
    /// Index workload to drive.
    pub kind: IndexKind,
    /// Trace seed.
    pub seed: u64,
    /// Number of trace operations (each mutating operation is at least
    /// one durable transaction).
    pub ops: usize,
    /// Value payload size in bytes (whole words).
    pub value_size: usize,
    /// Operation mix of the trace (defaults to the legacy churn mix).
    pub mix: MixSpec,
    /// Keys inserted by the load phase before the mixed trace (their
    /// inserts are part of the sweep trace, so crash points land in
    /// the load phase too). Read-only mixes need `load > 0`.
    pub load: usize,
}

impl SweepCase {
    /// A sweep case with the standard trace shape (`ops` operations,
    /// 32-byte values, the legacy churn mix, no load phase).
    pub fn new(scheme: impl Into<SchemeKind>, kind: IndexKind, seed: u64, ops: usize) -> Self {
        SweepCase {
            scheme: scheme.into(),
            kind,
            seed,
            ops,
            value_size: 32,
            mix: MixSpec::CHURN,
            load: 0,
        }
    }

    /// [`SweepCase::new`] under a specific mix with a load phase.
    pub fn with_mix(
        scheme: impl Into<SchemeKind>,
        kind: IndexKind,
        seed: u64,
        load: usize,
        ops: usize,
        mix: MixSpec,
    ) -> Self {
        SweepCase {
            scheme: scheme.into(),
            kind,
            seed,
            ops,
            value_size: 32,
            mix,
            load,
        }
    }
}

impl fmt::Display for SweepCase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "scheme={} workload={} seed={} ops={}",
            self.scheme, self.kind, self.seed, self.ops
        )?;
        // Keep historical failure lines byte-stable for default cases.
        if self.mix != MixSpec::CHURN || self.load != 0 {
            write!(f, " mix={} load={}", self.mix, self.load)?;
        }
        Ok(())
    }
}

/// One failed crash point, carrying everything needed to reproduce it.
#[derive(Debug, Clone)]
pub struct SweepFailure {
    /// The failing cell.
    pub case: SweepCase,
    /// Persist-event index the crash was armed at.
    pub k: u64,
    /// What went wrong.
    pub detail: String,
}

impl fmt::Display for SweepFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "crashsweep FAIL {} k={}: {}",
            self.case, self.k, self.detail
        )
    }
}

/// The schemes a persist-event sweep covers: every named design,
/// undo and redo (battery-backed §V-E configurations are excluded —
/// see the module docs).
pub const SWEEP_SCHEMES: [Scheme; 10] = [
    Scheme::Fg,
    Scheme::FgLg,
    Scheme::FgLz,
    Scheme::Slpmt,
    Scheme::Atom,
    Scheme::Ede,
    Scheme::FgCl,
    Scheme::SlpmtCl,
    Scheme::FgRedo,
    Scheme::SlpmtRedo,
];

/// The deterministic operation trace of a case: the mix's load-phase
/// inserts followed by its seeded operation stream, starting from an
/// empty structure. The default ([`MixSpec::CHURN`], no load) keeps
/// PR 2's trace shape: 5% reads, 15% updates, 20% removes, the rest
/// inserts — enough churn to exercise remove frees, update
/// copy-on-write swaps and (at these sizes) hashtable resizes, while
/// keeping the structure growing so later crash points see non-trivial
/// state.
pub fn trace_ops(case: &SweepCase) -> Vec<MixedOp> {
    let (loaded, mixed) = ycsb_mix(case.load, case.ops, case.value_size, case.seed, &case.mix);
    let mut all: Vec<MixedOp> = loaded.into_iter().map(MixedOp::Insert).collect();
    all.extend(mixed);
    all
}

pub(crate) fn apply(idx: &mut dyn DurableIndex, ctx: &mut PmContext, op: &MixedOp) {
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
        // Scans are membership- and value-neutral; in the sweep they
        // degrade to point reads of the expected keys so every index
        // kind (ordered or not) runs the same trace.
        MixedOp::Scan { keys } => {
            for k in keys {
                idx.get(ctx, *k);
            }
        }
    }
}

/// Incremental committed-prefix recovery oracle.
///
/// `oracle_after` used to rebuild a `BTreeMap<u64, Vec<u8>>` from
/// scratch — cloning every live payload — once per crash point, which
/// is O(n²) time and allocation across a sweep and unusable at
/// million-op scale. The streaming oracle exploits the sweep's
/// structure instead: crash points are visited in ascending `k`, and
/// the committed-prefix length `b` is nondecreasing in `k`, so one
/// model can advance monotonically through the trace. Values are
/// never cloned: the model maps each key to the index of the trace
/// operation that last wrote it, and checks recompute the expected
/// payload by slicing that operation's buffer ([`YcsbOp`] values are
/// themselves deterministic recomputations of `value_for` /
/// [`update_value_for`](crate::ycsb::update_value_for)).
///
/// Total cost of a whole sweep is O(n) model mutations regardless of
/// the number of crash points — [`work`](StreamingOracle::work)
/// exposes the applied-operation counter so tests can pin the
/// linearity down.
///
/// The oracle also carries the sweep's replay cursor: the crash-free
/// machine state the next crash point forks from (see
/// [`recover_at_streaming`]).
///
/// [`YcsbOp`]: crate::ycsb::YcsbOp
#[derive(Debug)]
pub struct StreamingOracle<'a> {
    ops: &'a [MixedOp],
    applied: usize,
    /// key → index in `ops` of the operation whose value is current.
    model: BTreeMap<u64, u32>,
    work: u64,
    cursor: Option<Box<Cursor>>,
}

impl<'a> StreamingOracle<'a> {
    /// A fresh oracle over a trace, positioned before any operation.
    pub fn new(ops: &'a [MixedOp]) -> Self {
        assert!(u32::try_from(ops.len()).is_ok(), "trace too long");
        StreamingOracle {
            ops,
            applied: 0,
            model: BTreeMap::new(),
            work: 0,
            cursor: None,
        }
    }

    /// The trace this oracle models.
    pub fn ops(&self) -> &'a [MixedOp] {
        self.ops
    }

    /// Number of trace operations currently applied.
    pub fn applied(&self) -> usize {
        self.applied
    }

    /// Total model mutations ever applied — linear in the trace
    /// length for a full ascending sweep, never quadratic.
    pub fn work(&self) -> u64 {
        self.work
    }

    /// Advances the model to the state after the first `b` operations.
    ///
    /// # Panics
    ///
    /// Panics if `b` retreats (crash points must be visited in
    /// ascending order; build a fresh oracle to go back) or exceeds
    /// the trace length.
    pub fn advance_to(&mut self, b: usize) {
        assert!(
            b >= self.applied,
            "streaming oracle cannot retreat ({} -> {b}); build a fresh oracle",
            self.applied
        );
        assert!(b <= self.ops.len(), "prefix beyond trace end");
        while self.applied < b {
            let i = self.applied;
            match &self.ops[i] {
                MixedOp::Insert(o) | MixedOp::Update(o) | MixedOp::Rmw(o) => {
                    self.model.insert(o.key, i as u32);
                    self.work += 1;
                }
                MixedOp::Remove(k) => {
                    self.model.remove(k);
                    self.work += 1;
                }
                MixedOp::Read(_) | MixedOp::Scan { .. } => {}
            }
            self.applied = i + 1;
        }
    }

    /// Moves the model to the state after the first `b` operations,
    /// restarting it from the empty prefix when `b` retreats.
    fn seek(&mut self, b: usize) {
        if b < self.applied {
            self.model.clear();
            self.applied = 0;
        }
        self.advance_to(b);
    }

    /// Number of live keys in the modelled prefix.
    pub fn len(&self) -> usize {
        self.model.len()
    }

    /// Whether the modelled prefix has no live keys.
    pub fn is_empty(&self) -> bool {
        self.model.is_empty()
    }

    /// The expected payload of `key`, borrowed from the trace.
    pub fn expected(&self, key: u64) -> Option<&'a [u8]> {
        self.model.get(&key).map(|&i| match &self.ops[i as usize] {
            MixedOp::Insert(o) | MixedOp::Update(o) | MixedOp::Rmw(o) => o.value.as_slice(),
            _ => unreachable!("model points at a non-writing op"),
        })
    }

    /// Iterates `(key, expected payload)` in key order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &'a [u8])> + '_ {
        let ops = self.ops;
        self.model.iter().map(move |(&k, &i)| {
            let v = match &ops[i as usize] {
                MixedOp::Insert(o) | MixedOp::Update(o) | MixedOp::Rmw(o) => o.value.as_slice(),
                _ => unreachable!("model points at a non-writing op"),
            };
            (k, v)
        })
    }

    /// Checks a recovered structure against the modelled prefix: same
    /// key count, every key mapped to its exact payload.
    pub fn check(&self, ctx: &PmContext, idx: &dyn DurableIndex) -> Result<(), String> {
        let b = self.applied;
        if idx.len(ctx) != self.model.len() {
            return Err(format!(
                "{} keys recovered, oracle has {} after {b} committed ops",
                idx.len(ctx),
                self.model.len()
            ));
        }
        for (key, value) in self.iter() {
            let got = idx.value_of(ctx, key);
            if got.as_deref() != Some(value) {
                return Err(format!(
                    "key {key} recovered as {:?}, oracle says {:?} (b={b})",
                    got.map(|v| v.len()),
                    value.len()
                ));
            }
        }
        Ok(())
    }
}

pub(crate) fn build(case: &SweepCase) -> (PmContext, Box<dyn DurableIndex>) {
    let mut ctx = PmContext::new(case.scheme, AnnotationTable::new());
    let idx = case
        .kind
        .build(&mut ctx, case.value_size, AnnotationSource::Manual);
    (ctx, idx)
}

/// Runs the case's trace crash-free, checks the end state against the
/// oracle, and returns the number of persist events the trace
/// generated — the sweep domain is `1..=N`.
///
/// # Panics
///
/// Panics if the crash-free run already disagrees with the oracle (the
/// sweep would be meaningless).
pub fn count_events(case: &SweepCase) -> u64 {
    let ops = trace_ops(case);
    let (mut ctx, mut idx) = build(case);
    for op in &ops {
        apply(idx.as_mut(), &mut ctx, op);
    }
    let mut oracle = StreamingOracle::new(&ops);
    oracle.advance_to(ops.len());
    if let Err(e) = oracle.check(&ctx, idx.as_ref()) {
        panic!("{case}: crash-free run disagrees with the oracle: {e}");
    }
    ctx.machine().persist_event_count()
}

/// Replays the case's trace with a crash armed at persist event `k`,
/// recovers, and checks the recovered structure against the oracle.
///
/// # Errors
///
/// Returns the reproducible failure tuple when the recovered state
/// violates committed-prefix durability, value equality, a structure
/// invariant, or heap-leak accounting.
pub fn run_crash_at(case: &SweepCase, k: u64) -> Result<(), SweepFailure> {
    let ops = trace_ops(case);
    let mut oracle = StreamingOracle::new(&ops);
    let point = recover_at_streaming(case, &mut oracle, k);
    check_recovered(case, &oracle, k, point)
}

/// Cap on the adoption window. The cursor copies a fork's op-boundary
/// state only before operations that start within the window of `k`
/// — the ones that may hold the trip — where the window is the most
/// persist events one operation has generated so far. The cap keeps
/// one outlier operation (a hashtable resize) from making a sparse
/// sweep over a long trace copy the machine at every boundary.
const ADOPT_WINDOW: u64 = 256;

/// A crash-free replay position of one case: the context and index
/// after the trace's first `next` operations, and the transaction
/// sequence number each of those operations ended at.
///
/// A device armed at event `k` behaves exactly like an unarmed one
/// until its first dropped persist, so every op-boundary state a
/// crash-at-`k` replay passes before the trip is a crash-free state.
/// Crash points fork from the cursor instead of replaying from op 0,
/// and the cursor moves up to the fork's last op boundary before the
/// trip, so an ascending sweep runs each operation once on the
/// crash-free path.
struct Cursor {
    case: SweepCase,
    ctx: PmContext,
    idx: Box<dyn DurableIndex>,
    next: usize,
    op_seq: Vec<u64>,
    /// Most persist events one operation has generated so far (at
    /// least `k - before + 1` for one that tripped a crash at `k`).
    max_op_events: u64,
}

impl fmt::Debug for Cursor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Cursor")
            .field("case", &self.case)
            .field("next", &self.next)
            .field("events", &self.ctx.machine().persist_event_count())
            .finish_non_exhaustive()
    }
}

/// A forked replay stopped at its crash point (the trip, or the trace
/// end), not yet crashed: its context and index, and the sequence
/// numbers of every operation it ran, the cursor's prefix included.
struct Crashed {
    ctx: PmContext,
    idx: Box<dyn DurableIndex>,
    op_seq: Vec<u64>,
}

impl Cursor {
    fn new(case: &SweepCase) -> Self {
        let (ctx, idx) = build(case);
        Cursor {
            case: *case,
            ctx,
            idx,
            next: 0,
            op_seq: Vec::new(),
            max_op_events: 0,
        }
    }

    /// Whether a crash at event `k` of `case` can fork from here.
    fn serves(&self, case: &SweepCase, k: u64) -> bool {
        self.case == *case && self.ctx.machine().persist_event_count() <= k
    }

    /// Moves the cursor to a fork's state at op boundary `i`, before
    /// its trip (`op_seq` holds the fork's sequence numbers so far).
    /// The copy stays armed at the fork's `k`; that is harmless, since
    /// it has not tripped and every later fork re-arms at its own `k`.
    fn adopt(&mut self, ctx: &PmContext, idx: &dyn DurableIndex, op_seq: &[u64], i: usize) {
        self.ctx = ctx.clone();
        self.idx = idx.clone_box();
        self.op_seq.extend_from_slice(&op_seq[self.next..i]);
        self.next = i;
    }

    /// Runs a fork armed at `k` from the cursor until the crash trips
    /// or the trace ends. On the way the cursor adopts the fork's
    /// state at each op boundary within the adoption window, ending on
    /// the last one before the trip.
    fn run_to_crash(&mut self, ops: &[MixedOp], k: u64) -> Crashed {
        debug_assert!(
            !self.ctx.machine().trace_enabled(),
            "a traced context cannot fork (clones are untraced)"
        );
        let mut ctx = self.ctx.clone();
        let mut idx = self.idx.clone_box();
        ctx.machine_mut().arm_crash_at_event(k);
        let mut op_seq = self.op_seq.clone();
        for (i, op) in ops.iter().enumerate().skip(self.next) {
            let before = ctx.machine().persist_event_count();
            let gap = k.saturating_sub(before);
            if i > self.next && gap <= self.max_op_events.min(ADOPT_WINDOW) {
                self.adopt(&ctx, idx.as_ref(), &op_seq, i);
            }
            apply(idx.as_mut(), &mut ctx, op);
            op_seq.push(ctx.txn_seq());
            let tripped = ctx.machine().crash_tripped();
            let made = if tripped {
                gap + 1
            } else {
                ctx.machine().persist_event_count() - before
            };
            self.max_op_events = self.max_op_events.max(made);
            if tripped {
                break;
            }
        }
        if !ctx.machine().crash_tripped() && ops.len() > self.next {
            // The whole trace ran crash-free: its end state is the
            // cursor for every later point.
            self.adopt(&ctx, idx.as_ref(), &op_seq, ops.len());
        }
        Crashed { ctx, idx, op_seq }
    }
}

/// One crash point after log replay and structure recovery, before
/// the leak GC and the oracle checks.
pub struct RecoveredPoint {
    /// The recovered context.
    pub ctx: PmContext,
    /// The recovered index.
    pub idx: Box<dyn DurableIndex>,
    /// Highest durably committed transaction sequence at the crash.
    pub marker: u64,
    /// Committed-prefix length: trace operations whose last
    /// transaction has a durable marker.
    pub b: usize,
    /// What log replay did.
    pub report: RecoveryReport,
}

/// The first half of [`run_crash_at`] against a caller-owned
/// [`StreamingOracle`] over the case's trace ([`trace_ops`]): replay to
/// the crash at persist event `k`, power failure, log replay and the
/// structure's own recovery. The oracle is advanced to the committed prefix `b`
/// *before* recovery runs, so a panicking recovery leaves it valid for
/// the next point.
///
/// The replay forks from the oracle's crash-free replay cursor rather
/// than from op 0: the fork is armed at `k` and runs on until the
/// crash trips, and the cursor moves up to the fork's last op boundary
/// before the trip. The cursor is rebuilt from scratch when the case
/// changes or `k` lies before its position; the model restarts when a
/// point's prefix retreats. Either way every point is exactly the
/// from-scratch replay's crash state.
pub fn recover_at_streaming(
    case: &SweepCase,
    oracle: &mut StreamingOracle<'_>,
    k: u64,
) -> RecoveredPoint {
    let ops = oracle.ops();
    let cursor = match &mut oracle.cursor {
        Some(c) if c.serves(case, k) => c,
        slot => slot.insert(Box::new(Cursor::new(case))),
    };
    let Crashed {
        mut ctx,
        mut idx,
        op_seq,
    } = cursor.run_to_crash(ops, k);
    // Power failure: volatile state is lost; events 1..=k survive.
    ctx.crash();
    // Durably committed transactions form a prefix of the sequence
    // numbers (markers persist in commit order), so the committed
    // operation count is a prefix length too.
    let marker = ctx.durable_commit_seq();
    let b = op_seq.iter().take_while(|&&seq| seq <= marker).count();
    oracle.seek(b);
    let report = ctx.recover();
    idx.recover(&mut ctx);
    RecoveredPoint {
        ctx,
        idx,
        marker,
        b,
        report,
    }
}

/// The second half of [`run_crash_at`]: leak GC, structure
/// invariants, heap cleanliness and the oracle comparison at the
/// point's committed prefix.
///
/// # Errors
///
/// As [`run_crash_at`].
pub fn check_recovered(
    case: &SweepCase,
    oracle: &StreamingOracle<'_>,
    k: u64,
    point: RecoveredPoint,
) -> Result<(), SweepFailure> {
    let fail = |detail: String| SweepFailure {
        case: *case,
        k,
        detail,
    };
    let RecoveredPoint {
        mut ctx,
        idx,
        marker,
        ..
    } = point;
    let reachable = idx.reachable(&ctx);
    let leaks = inspect(&ctx, &reachable).leaks.len();
    ctx.gc(&reachable);
    if let Err(e) = idx.check_invariants(&ctx) {
        return Err(fail(format!("invariant violated after recovery: {e}")));
    }
    let after_gc = inspect(&ctx, &reachable);
    if !after_gc.is_clean() {
        return Err(fail(format!(
            "{} allocations still leaked after GC reclaimed {leaks}",
            after_gc.leaks.len()
        )));
    }
    oracle
        .check(&ctx, idx.as_ref())
        .map_err(|e| fail(format!("{e} (marker seq {marker})")))
}

/// Replays the machine-level sequence of [`run_crash_at`] — trace,
/// crash at persist event `k`, power failure, log replay — with event
/// tracing enabled, and returns the captured records. Structure-level
/// recovery is skipped (it can legitimately panic on the failing
/// tuples this capture path exists for); panics during log replay are
/// swallowed so the trace of everything up to the panic still comes
/// back. Deterministic: the same `(case, k)` always yields the same
/// records.
pub fn trace_crash_at(case: &SweepCase, k: u64) -> Vec<slpmt_core::TraceRecord> {
    trace_at(case, None, k)
}

/// [`trace_crash_at`] with an optional media-fault plan armed.
pub(crate) fn trace_at(
    case: &SweepCase,
    plan: Option<FaultPlan>,
    k: u64,
) -> Vec<slpmt_core::TraceRecord> {
    let (mut ctx, ..) = replay_to_crash(case, &trace_ops(case), plan, k, true);
    let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| ctx.recover()));
    ctx.take_trace()
}

/// Replays `ops` from op 0 with `plan` armed (and event tracing on when
/// `trace`) until the crash at persist event `k` trips, then cuts the
/// power. Returns the crashed context and index and the transaction
/// sequence number each operation that ran ended at.
pub(crate) fn replay_to_crash(
    case: &SweepCase,
    ops: &[MixedOp],
    plan: Option<FaultPlan>,
    k: u64,
    trace: bool,
) -> (PmContext, Box<dyn DurableIndex>, Vec<u64>) {
    let (mut ctx, mut idx) = build(case);
    if trace {
        ctx.enable_tracing(1 << 20);
    }
    if let Some(plan) = plan {
        ctx.machine_mut().set_fault_plan(plan);
    }
    ctx.machine_mut().arm_crash_at_event(k);
    let mut op_seq = Vec::with_capacity(ops.len());
    for op in ops {
        apply(idx.as_mut(), &mut ctx, op);
        op_seq.push(ctx.txn_seq());
        if ctx.machine().crash_tripped() {
            break;
        }
    }
    ctx.crash();
    (ctx, idx, op_seq)
}

/// [`run_crash_at`] against a caller-owned [`StreamingOracle`], with
/// panics converted into failure tuples, so a sweep over thousands of
/// crash points reports `(scheme, workload, seed, k)` instead of dying
/// mid-matrix. A sweep visiting ascending `k` advances one model
/// instead of rebuilding it per point: the committed-prefix length `b`
/// is nondecreasing in `k`, which is exactly the oracle's monotonicity
/// contract. The prefix is advanced *before* the recovery checks run,
/// so a panicking point leaves the oracle valid for the next `k`.
pub fn check_point_streaming(
    case: &SweepCase,
    oracle: &mut StreamingOracle<'_>,
    k: u64,
) -> Result<(), SweepFailure> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let point = recover_at_streaming(case, oracle, k);
        check_recovered(case, oracle, k, point)
    })) {
        Ok(r) => r,
        Err(payload) => Err(SweepFailure {
            case: *case,
            k,
            detail: format!("panic: {}", panic_msg(payload)),
        }),
    }
}

/// Sweeps every crash point of one case serially, returning all
/// failures (empty = the case is crash-consistent at every persist
/// event). One streaming oracle serves the whole ascending sweep.
pub fn sweep_serial(case: &SweepCase) -> Vec<SweepFailure> {
    let n = count_events(case);
    let ops = trace_ops(case);
    let mut oracle = StreamingOracle::new(&ops);
    (1..=n)
        .filter_map(|k| check_point_streaming(case, &mut oracle, k).err())
        .collect()
}

/// `count` distinct seeded crash points of a case, ascending, drawn
/// from `1..=N` (`N` = [`count_events`]). The big named-mix traces
/// generate far more persist events than a sweep can visit
/// exhaustively; this is the sampled domain the YCSB gates use —
/// deterministic for a `(case, count)` pair, and ascending so one
/// streaming oracle covers all of them.
pub fn sweep_points(case: &SweepCase, count: usize) -> Vec<u64> {
    sample_points(case.seed, count_events(case), count)
}

/// [`sweep_points`] with the event count already known (parallel
/// drivers learn `N` in their crash-free pass and must sample the
/// identical points).
pub fn sample_points(seed: u64, n: u64, count: usize) -> Vec<u64> {
    if n == 0 {
        return Vec::new();
    }
    let mut points = std::collections::BTreeSet::new();
    let mut i = 0u64;
    while points.len() < count.min(n as usize) {
        let mut s = seed.rotate_left(23).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ i;
        points.insert(1 + splitmix64(&mut s) % n);
        i += 1;
    }
    points.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_is_deterministic_and_mutates_enough() {
        let case = SweepCase::new(Scheme::Slpmt, IndexKind::Hashtable, 7, 60);
        let a = trace_ops(&case);
        assert_eq!(a, trace_ops(&case));
        let mutating = a.iter().filter(|o| !matches!(o, MixedOp::Read(_))).count();
        assert!(mutating >= 50, "trace must carry ≥50 transactions");
    }

    #[test]
    fn oracle_prefix_applies_ops_in_order() {
        let case = SweepCase::new(Scheme::Slpmt, IndexKind::Rbtree, 3, 30);
        let ops = trace_ops(&case);
        let mut oracle = StreamingOracle::new(&ops);
        assert!(oracle.is_empty());
        oracle.advance_to(ops.len());
        assert!(!oracle.is_empty());
        // Work is one model mutation per mutating op — linear, and
        // independent of how many intermediate prefixes were visited.
        let mutating = ops
            .iter()
            .filter(|o| !matches!(o, MixedOp::Read(_) | MixedOp::Scan { .. }))
            .count() as u64;
        assert_eq!(oracle.work(), mutating);
    }

    #[test]
    fn oracle_matches_naive_rebuild_at_every_prefix() {
        // Equivalence with the retired `oracle_after` rebuild: advance
        // one streaming oracle through every prefix and compare against
        // a from-scratch BTreeMap model at each step.
        let case = SweepCase::new(Scheme::Slpmt, IndexKind::Hashtable, 13, 80);
        let ops = trace_ops(&case);
        let mut oracle = StreamingOracle::new(&ops);
        for b in 0..=ops.len() {
            oracle.advance_to(b);
            let mut naive: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
            for op in &ops[..b] {
                match op {
                    MixedOp::Insert(o) | MixedOp::Update(o) | MixedOp::Rmw(o) => {
                        naive.insert(o.key, o.value.clone());
                    }
                    MixedOp::Remove(k) => {
                        naive.remove(k);
                    }
                    MixedOp::Read(_) | MixedOp::Scan { .. } => {}
                }
            }
            assert_eq!(oracle.len(), naive.len(), "prefix {b}");
            for (k, v) in &naive {
                assert_eq!(
                    oracle.expected(*k),
                    Some(v.as_slice()),
                    "prefix {b} key {k}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "cannot retreat")]
    fn oracle_rejects_retreating_prefixes() {
        let case = SweepCase::new(Scheme::Fg, IndexKind::Heap, 2, 20);
        let ops = trace_ops(&case);
        let mut oracle = StreamingOracle::new(&ops);
        oracle.advance_to(10);
        oracle.advance_to(5);
    }

    #[test]
    fn sampled_points_are_ascending_and_deterministic() {
        let case = SweepCase::with_mix(
            Scheme::Slpmt,
            IndexKind::Hashtable,
            9,
            10,
            20,
            MixSpec::DELETE_HEAVY,
        );
        let a = sweep_points(&case, 8);
        assert_eq!(a, sweep_points(&case, 8));
        assert_eq!(a.len(), 8);
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        let n = count_events(&case);
        assert!(a.iter().all(|&k| k >= 1 && k <= n));
    }

    #[test]
    fn mixed_case_display_round_trips_the_mix() {
        let case = SweepCase::with_mix(
            Scheme::Slpmt,
            IndexKind::Rbtree,
            7,
            50,
            100,
            MixSpec::DELETE_HEAVY_ZIPF,
        );
        let line = case.to_string();
        assert!(line.contains("mix=delete-heavy-zipf"), "{line}");
        assert!(line.contains("load=50"), "{line}");
        // Default cases keep the historical four-field format.
        let legacy = SweepCase::new(Scheme::Fg, IndexKind::Heap, 1, 10).to_string();
        assert!(!legacy.contains("mix="), "{legacy}");
    }

    #[test]
    fn event_count_is_stable_for_a_case() {
        let case = SweepCase::new(Scheme::Fg, IndexKind::Heap, 11, 10);
        assert_eq!(count_events(&case), count_events(&case));
    }

    #[test]
    fn crash_after_all_events_recovers_everything() {
        let case = SweepCase::new(Scheme::Slpmt, IndexKind::Hashtable, 5, 15);
        let n = count_events(&case);
        run_crash_at(&case, n).unwrap();
    }

    #[test]
    fn crash_before_any_event_recovers_empty() {
        // k = 0: the very first durable mutation is dropped, so no
        // transaction ever has a durable marker.
        let case = SweepCase::new(Scheme::Fg, IndexKind::Rbtree, 5, 10);
        run_crash_at(&case, 0).unwrap();
    }

    #[test]
    fn failure_line_is_reproducible() {
        let f = SweepFailure {
            case: SweepCase::new(Scheme::Slpmt, IndexKind::Heap, 42, 50),
            k: 137,
            detail: "boom".into(),
        };
        let line = f.to_string();
        assert!(line.contains("scheme=SLPMT"));
        assert!(line.contains("workload=heap"));
        assert!(line.contains("seed=42"));
        assert!(line.contains("k=137"));
    }
}
