//! Crash and media-fault batteries driven *through the service
//! boundary*.
//!
//! The engine-level sweeps (`slpmt_workloads::crashsweep` /
//! `faultsweep`) prove committed-prefix durability for a mixed trace
//! applied directly to a [`DurableIndex`]. This module proves the same
//! property one layer up: every operation travels the full service
//! path — abstract request → wire encoding → codec parse → dispatch →
//! facade transaction — before the crash lands, and recovery goes
//! through [`KvStore::recover`]'s crash-to-ready sequence. The oracle
//! is still the engine's [`StreamingOracle`] (the request stream maps
//! 1:1 onto a mixed trace), but value checks decode the facade's
//! length-prefixed cells instead of comparing raw index payloads.
//!
//! The degradation rules of the media-fault battery mirror the
//! engine-level ones verbatim: log replay never panics; no torn or
//! corrupt state without a matching plan knob; every lost line traces
//! to an injected fault; a loss-free recovery must satisfy the strict
//! oracle.

use crate::codec::{Codec, Parse};
use crate::service::{dispatch, encode_request, TokenModel};
use crate::store::KvStore;
use slpmt_core::{panic_msg, SchemeKind};
use slpmt_pmem::FaultPlan;
use slpmt_workloads::crashsweep::{sample_points, StreamingOracle};
use slpmt_workloads::faultsweep::check_attribution;
use slpmt_workloads::ycsb::MixedOp;
use slpmt_workloads::{inspect, service_trace, IndexKind, KvRequest, MixSpec};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// One service-boundary sweep configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KvSweepCase {
    /// Simulated logging scheme.
    pub scheme: SchemeKind,
    /// Index backend behind the facade.
    pub kind: IndexKind,
    /// Trace seed.
    pub seed: u64,
    /// Load-phase inserts.
    pub load: usize,
    /// Mixed requests after the load phase.
    pub requests: usize,
    /// Value payload size.
    pub value_size: usize,
    /// Request mix.
    pub mix: MixSpec,
}

impl KvSweepCase {
    /// A baseline case: 30 loaded keys + `requests` YCSB-A requests of
    /// 16-byte values.
    pub fn new(scheme: impl Into<SchemeKind>, kind: IndexKind, seed: u64, requests: usize) -> Self {
        KvSweepCase {
            scheme: scheme.into(),
            kind,
            seed,
            load: 30,
            requests,
            value_size: 16,
            mix: MixSpec::YCSB_A,
        }
    }

    /// Same case with a different mix.
    pub fn with_mix(mut self, mix: MixSpec) -> Self {
        self.mix = mix;
        self
    }
}

impl fmt::Display for KvSweepCase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "kv-serve {} {} {} seed={} load={} reqs={} val={}",
            self.scheme, self.kind, self.mix, self.seed, self.load, self.requests, self.value_size
        )
    }
}

/// The case's deterministic service trace: mixed ops (the oracle's
/// input) and the mapped request stream, index-aligned.
pub fn service_ops(case: &KvSweepCase) -> (Vec<MixedOp>, Vec<KvRequest>) {
    service_trace(
        case.load,
        case.requests,
        case.value_size,
        case.seed,
        &case.mix,
    )
}

fn build_store(case: &KvSweepCase) -> KvStore {
    let mut store = KvStore::open(case.scheme, case.kind, case.value_size);
    store.prefault(case.load + case.requests);
    store
}

/// Replays one request through the full service path: wire-encode
/// (updating the client token model), codec-parse, dispatch.
fn apply_wire(
    store: &mut KvStore,
    codec: &Codec,
    model: &mut TokenModel,
    ordered: bool,
    req: &KvRequest,
    wire: &mut Vec<u8>,
    out: &mut Vec<u8>,
) {
    wire.clear();
    encode_request(req, model, ordered, wire);
    let mut pos = 0;
    while pos < wire.len() {
        let (n, parse) = codec.parse(&wire[pos..]);
        pos += n;
        match parse {
            Parse::Req(r) => dispatch(store, &r, out),
            other => panic!("generated wire must parse cleanly, got {other:?}"),
        }
    }
}

/// Decoded-state check: the recovered store must agree with the
/// oracle's committed prefix, comparing *decoded payloads* (the facade
/// stores length-prefixed cells the raw engine oracle cannot compare
/// directly).
pub fn check_store(store: &KvStore, oracle: &StreamingOracle<'_>) -> Result<(), String> {
    if store.len() != oracle.len() {
        return Err(format!(
            "{} keys recovered through the facade, oracle has {}",
            store.len(),
            oracle.len()
        ));
    }
    for (k, v) in oracle.iter() {
        match store.peek_value(k) {
            Some(got) if got == v => {}
            got => {
                return Err(format!(
                    "key {k} decoded as {:?} B, oracle says {} B",
                    got.map(|g| g.len()),
                    v.len()
                ))
            }
        }
    }
    Ok(())
}

/// Runs the case's request stream crash-free through the service
/// path, checks the decoded end state against the oracle, and returns
/// the persist-event count — the sweep domain is `1..=N`.
///
/// # Panics
///
/// Panics if the crash-free run already disagrees with the oracle.
pub fn count_service_events(case: &KvSweepCase) -> u64 {
    let (ops, reqs) = service_ops(case);
    let mut store = build_store(case);
    let ordered = store.scan(0, 0).is_some();
    let codec = Codec::new(case.value_size);
    let mut model = TokenModel::default();
    let (mut wire, mut out) = (Vec::new(), Vec::new());
    for req in &reqs {
        apply_wire(
            &mut store, &codec, &mut model, ordered, req, &mut wire, &mut out,
        );
    }
    let mut oracle = StreamingOracle::new(&ops);
    oracle.advance_to(ops.len());
    if let Err(e) = check_store(&store, &oracle) {
        panic!("{case}: crash-free service run disagrees with the oracle: {e}");
    }
    store.machine().persist_event_count()
}

/// Crashes the service at persist event `k`, recovers through the
/// facade, and checks committed-prefix durability with decoded
/// values. The caller-owned oracle advances monotonically, so an
/// ascending sweep pays O(trace) model work total.
///
/// # Errors
///
/// Returns a human-readable failure description when the recovered
/// service state violates the committed-prefix contract, an
/// invariant, or heap-leak accounting.
pub fn run_service_crash_at(
    case: &KvSweepCase,
    oracle: &mut StreamingOracle<'_>,
    k: u64,
) -> Result<(), String> {
    let (_ops, reqs) = service_ops(case);
    let mut store = build_store(case);
    let ordered = store.scan(0, 0).is_some();
    store.machine_mut().arm_crash_at_event(k);
    let codec = Codec::new(case.value_size);
    let mut model = TokenModel::default();
    let (mut wire, mut out) = (Vec::new(), Vec::new());
    let mut op_seq = Vec::with_capacity(reqs.len());
    for req in &reqs {
        apply_wire(
            &mut store, &codec, &mut model, ordered, req, &mut wire, &mut out,
        );
        op_seq.push(store.txn_seq());
        if store.machine().crash_tripped() {
            break;
        }
    }
    store.crash();
    let marker = store.durable_commit_seq();
    let b = op_seq.iter().take_while(|&&seq| seq <= marker).count();
    oracle.advance_to(b);
    store.recover();
    store
        .check_invariants()
        .map_err(|e| format!("invariant violated after service recovery: {e}"))?;
    let reachable = store.reachable();
    if !inspect(store.context(), &reachable).is_clean() {
        return Err("allocations still leaked after facade GC".into());
    }
    check_store(&store, oracle).map_err(|e| format!("{e} (b={b}, marker seq {marker})"))
}

/// [`run_service_crash_at`] with a panic guard: any panic in the
/// replay/recovery path becomes a failure string.
pub fn check_service_point(
    case: &KvSweepCase,
    oracle: &mut StreamingOracle<'_>,
    k: u64,
) -> Option<String> {
    match catch_unwind(AssertUnwindSafe(|| run_service_crash_at(case, oracle, k))) {
        Ok(Ok(())) => None,
        Ok(Err(e)) => Some(format!("{case} @k={k}: {e}")),
        Err(p) => Some(format!("{case} @k={k}: panic: {}", panic_msg(p))),
    }
}

/// Seeded sample of `count` distinct crash points in `1..=n`,
/// ascending (so one oracle serves the whole sweep).
pub fn service_points(case: &KvSweepCase, n: u64, count: usize) -> Vec<u64> {
    sample_points(case.seed ^ 0x5E7E_CE00, n, count)
}

/// Media-fault battery at the service boundary: replays the request
/// stream with `plan` armed and a crash at persist event `k`, then
/// checks the engine's degradation rules against the facade's
/// recovery. Mirrors `slpmt_workloads::faultsweep::run_fault_at`
/// rule-for-rule, with decoded-value strict checks.
///
/// # Errors
///
/// Returns a failure description when log replay panics, a fault
/// appears out of thin air, a lost line has no injected cause, or a
/// loss-free recovery breaks the strict oracle.
pub fn run_service_fault_at(case: &KvSweepCase, plan: &FaultPlan, k: u64) -> Result<(), String> {
    let (ops, reqs) = service_ops(case);
    let mut store = build_store(case);
    let ordered = store.scan(0, 0).is_some();
    store.machine_mut().set_fault_plan(*plan);
    store.machine_mut().arm_crash_at_event(k);
    let codec = Codec::new(case.value_size);
    let mut model = TokenModel::default();
    let (mut wire, mut out) = (Vec::new(), Vec::new());
    let mut op_seq = Vec::with_capacity(reqs.len());
    for req in &reqs {
        apply_wire(
            &mut store, &codec, &mut model, ordered, req, &mut wire, &mut out,
        );
        op_seq.push(store.txn_seq());
        if store.machine().crash_tripped() {
            break;
        }
    }
    store.crash();
    let marker = store.durable_commit_seq();
    let b = op_seq.iter().take_while(|&&seq| seq <= marker).count();
    // Log replay must never panic, whatever the media did.
    let report = match catch_unwind(AssertUnwindSafe(|| store.replay())) {
        Ok(r) => r,
        Err(p) => return Err(format!("log replay panicked: {}", panic_msg(p))),
    };
    check_attribution(Some(plan), &report, store.machine().device())?;
    if !report.lost_lines.is_empty() {
        // Degraded and detected: the loss was reported honestly and
        // attributed; the facade surfaces the report to the
        // application, and structure recovery over a lossy image is
        // out of contract (same stop as the engine-level battery).
        return Ok(());
    }
    // Zero lost lines: the faults were fully absorbed, so the strict
    // decoded-state oracle applies unchanged and any panic is a
    // failure.
    let strict = catch_unwind(AssertUnwindSafe(move || -> Result<(), String> {
        store.rebuild();
        store
            .check_invariants()
            .map_err(|e| format!("invariant violated after recovery: {e}"))?;
        let reachable = store.reachable();
        if !inspect(store.context(), &reachable).is_clean() {
            return Err("allocations still leaked after GC".into());
        }
        let mut oracle = StreamingOracle::new(&ops);
        oracle.advance_to(b);
        check_store(&store, &oracle).map_err(|e| format!("{e} (marker seq {marker})"))
    }));
    match strict {
        Ok(r) => r,
        Err(p) => Err(format!("structure recovery panicked: {}", panic_msg(p))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slpmt_core::Scheme;
    use slpmt_workloads::faultsweep::default_plans;

    #[test]
    fn crash_free_service_run_matches_oracle() {
        let case = KvSweepCase::new(Scheme::Slpmt, IndexKind::KvBtree, 11, 60);
        let n = count_service_events(&case);
        assert!(n > 0);
    }

    #[test]
    fn sampled_service_crash_points_recover() {
        let case = KvSweepCase::new(Scheme::Slpmt, IndexKind::KvBtree, 5, 50);
        let n = count_service_events(&case);
        let (ops, _) = service_ops(&case);
        let mut oracle = StreamingOracle::new(&ops);
        for k in service_points(&case, n, 8) {
            if let Some(fail) = check_service_point(&case, &mut oracle, k) {
                panic!("{fail}");
            }
        }
    }

    #[test]
    fn fault_battery_smoke() {
        let case = KvSweepCase::new(Scheme::Slpmt, IndexKind::KvBtree, 9, 40);
        let n = count_service_events(&case);
        let plans = default_plans(1234);
        let plan = &plans[0];
        for k in [n / 3, 2 * n / 3] {
            if let Err(e) = run_service_fault_at(&case, plan, k.max(1)) {
                panic!("{case} plan[0] @k={k}: {e}");
            }
        }
    }

    #[test]
    fn points_are_ascending_and_seeded() {
        let case = KvSweepCase::new(Scheme::Slpmt, IndexKind::KvBtree, 5, 50);
        let pts = service_points(&case, 500, 20);
        assert_eq!(pts.len(), 20);
        assert!(pts.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(pts, service_points(&case, 500, 20));
    }
}
