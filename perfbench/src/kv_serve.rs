//! `kv-serve`: YCSB-B (95 % get, 5 % set) through the memcached-text
//! codec, sessions, admission control and `KvStore` on `kv-btree`
//! under SLPMT — one shard, closed loop, pipelined over four sessions.
//!
//! A round opens a store, loads 20,000 keys of 256 B (larger than the
//! simulated 2 MB L3) and encodes the request stream into the session
//! buffers (set-up); the timed region serves every request. The serve
//! loop is composed here from the crate's public calls (`admit`,
//! `take_request`, `dispatch`) so each can be timed separately; its
//! response digest and simulated results must equal those of
//! `run_shard_service` on the same inputs, or the run fails.

use crate::common::{
    calibrate, durations, layer_metrics, median, percentile, ratio, Counters, HostLog, MetricList,
    Opts, Spans, TraceTotals, TRACE_RING,
};
use crate::Outcome;
use slpmt_core::{MachineConfig, Scheme};
use slpmt_kv::admission::{admit, Admission, AdmissionStats};
use slpmt_kv::codec::{reply, Codec};
use slpmt_kv::service::{
    dispatch, encode_request, run_shard_service, shard_streams, take_request, ServeConfig,
    TokenModel,
};
use slpmt_kv::{KvStore, ServiceError, Session};
use slpmt_workloads::{session_of, IndexKind, KvRequest, MixSpec, YcsbOp};
use std::time::Instant;

const LOAD: usize = 20_000;
const REQUESTS: usize = 50_000;
const VALUE: usize = 256;
/// Requests between trace-ring drains in the traced round.
const TRACE_CHUNK: usize = 1024;

fn config(scheme: Scheme, seed: u64) -> ServeConfig {
    let mut cfg = ServeConfig::new(scheme, IndexKind::KvBtree, MixSpec::YCSB_B);
    cfg.load = LOAD;
    cfg.requests = REQUESTS;
    cfg.value_size = VALUE;
    cfg.seed = seed;
    cfg
}

/// A loaded store with the request stream encoded into its sessions.
struct Prepared {
    store: KvStore,
    sessions: Vec<Session>,
    codec: Codec,
}

/// The set-up `run_shard_service` performs before its clock starts:
/// open, load, probe orderedness, encode the pipelined stream.
fn prepare(
    cfg: &ServeConfig,
    loads: &[YcsbOp],
    reqs: &[KvRequest],
    sp: &mut Spans,
    lat: &mut Vec<u64>,
) -> Prepared {
    let mut store = KvStore::with_config(
        MachineConfig::for_kind(cfg.scheme),
        cfg.kind,
        cfg.value_size,
    );
    store.prefault(loads.len() + reqs.len());
    let mut model = TokenModel::default();
    for op in loads {
        let s0 = store.now();
        sp.time("workloads.insert", 0, || store.set(op.key, &op.value));
        if sp.enabled() {
            lat.push(store.now() - s0);
        }
        model.on_load(op);
    }
    let ordered = store.scan(0, 0).is_some();
    let mut sessions: Vec<Session> = (0..cfg.sessions.max(1) as u32).map(Session::new).collect();
    let n = sessions.len();
    let mut wire = Vec::new();
    for (i, req) in reqs.iter().enumerate() {
        wire.clear();
        encode_request(req, &mut model, ordered, &mut wire);
        sessions[session_of(i, n) as usize].feed(&wire);
    }
    Prepared {
        store,
        sessions,
        codec: Codec::new(cfg.value_size),
    }
}

#[derive(Default)]
struct Served {
    served: u64,
    refused: u64,
    admission: AdmissionStats,
    sim_cycles: u64,
    /// Simulated cycles from arrival to response, per served request.
    samples: Vec<u64>,
    digest: u64,
    counters: Counters,
    trace: TraceTotals,
}

/// Serves every request of the prepared sessions, in arrival order,
/// exactly as `run_shard_service`'s closed loop does.
fn serve(
    p: &mut Prepared,
    cfg: &ServeConfig,
    requests: usize,
    sp: &mut Spans,
    traced: bool,
) -> Served {
    let store = &mut p.store;
    let n = p.sessions.len();
    let start = Counters::snapshot(store.context());
    let t0 = store.now();
    let mut out = Served::default();
    for i in 0..requests {
        let s = session_of(i, n) as usize;
        let sess = &mut p.sessions[s];
        let root = sp.open("kv.request", 0);
        let arrival = store.now();
        let decision = admit(store, &cfg.admission);
        out.admission.record(decision);
        match decision {
            Admission::Shed { .. } => {
                let _ = sess.next_request(&p.codec);
                Codec::write_line(&mut sess.wbuf, reply::SERVER_ERROR_BUSY);
                out.refused += 1;
            }
            Admission::Admit { .. } => {
                let parse = sp.open("kv.take_request", root.id());
                let parsed = take_request(sess, &p.codec, i as u64);
                sp.close(parse);
                match parsed {
                    Ok(Ok(req)) => {
                        let d = sp.open("kv.dispatch", root.id());
                        let mut wbuf = std::mem::take(&mut sess.wbuf);
                        dispatch(store, &req, &mut wbuf);
                        sess.wbuf = wbuf;
                        sp.close(d);
                        out.served += 1;
                        out.samples.push(store.now() - arrival);
                    }
                    Ok(Err(line)) => {
                        Codec::write_line(&mut sess.wbuf, &line);
                        out.refused += 1;
                    }
                    Err(ServiceError::TruncatedStream { .. }) => {
                        Codec::write_line(&mut sess.wbuf, reply::SERVER_ERROR_TRUNCATED);
                        out.refused += 1;
                    }
                }
            }
        }
        sp.close(root);
        if traced && (i + 1) % TRACE_CHUNK == 0 {
            out.trace.absorb(&store.context_mut().take_trace());
        }
    }
    if traced {
        out.trace.absorb(&store.context_mut().take_trace());
    }
    out.sim_cycles = store.now() - t0;
    out.counters = Counters::since(store.context(), &start, requests as u64);
    let mut responses = Vec::new();
    for sess in &mut p.sessions {
        responses.extend_from_slice(&sess.take_responses());
    }
    out.digest = slpmt_kv::service::digest64(&responses);
    out
}

struct Round {
    setup_s: f64,
    timed_s: f64,
    out: Served,
    /// Structure check after serving (invariants, key count).
    check: Result<(), String>,
}

fn round(
    cfg: &ServeConfig,
    loads: &[YcsbOp],
    reqs: &[KvRequest],
    sp: &mut Spans,
    load_lat: &mut Vec<u64>,
) -> Round {
    let traced = sp.enabled();
    let t0 = Instant::now();
    let mut p = prepare(cfg, loads, reqs, sp, load_lat);
    if traced {
        p.store.enable_tracing(TRACE_RING);
    }
    let t1 = Instant::now();
    let out = serve(&mut p, cfg, reqs.len(), sp, traced);
    let timed_s = t1.elapsed().as_secs_f64();
    let check = p.store.check_invariants().and_then(|()| {
        if p.store.len() == loads.len() {
            Ok(())
        } else {
            Err(format!(
                "{} keys live, {} loaded",
                p.store.len(),
                loads.len()
            ))
        }
    });
    Round {
        setup_s: (t1 - t0).as_secs_f64(),
        timed_s,
        out,
        check,
    }
}

/// Simulated identity of a round: equal across rounds and to the real
/// serve loop.
fn sim_key(s: &Served) -> (u64, u64, u64, AdmissionStats, u64) {
    (
        s.digest,
        s.served,
        s.sim_cycles,
        s.admission,
        s.counters.digest(0),
    )
}

pub fn run(o: &Opts) -> Outcome {
    let cfg = config(Scheme::Slpmt, o.seed);
    let (loads, reqs) = shard_streams(&cfg);
    let (loads, reqs) = (&loads[0], &reqs[0]);
    let origin = Instant::now();
    let deadline = origin + std::time::Duration::from_secs(o.seconds);
    let mut metrics = MetricList::default();
    let mut notes = Vec::new();
    let mut quiet = Spans::new(origin, 1, false);
    let mut traced_spans = Spans::new(origin, 1, true);
    let mut load_lat = Vec::new();

    let mut rounds = Vec::new();
    let mut traced = Vec::new();
    let mut host = HostLog::default();
    loop {
        let cal = calibrate();
        let r = round(&cfg, loads, reqs, &mut quiet, &mut Vec::new());
        host.record(reqs.len() as f64, r.setup_s, r.timed_s, cal);
        rounds.push(r);
        if o.trace {
            load_lat.clear();
            traced_spans.spans.clear();
            traced.push(round(&cfg, loads, reqs, &mut traced_spans, &mut load_lat));
        }
        let enough = if o.trace { 1 } else { 3 };
        if rounds.len() >= enough && Instant::now() >= deadline {
            break;
        }
    }

    // The real serve loop on the same inputs, and FG for the baseline.
    let real = run_shard_service(&cfg, 0, loads, reqs);
    let fg_cfg = config(Scheme::Fg, o.seed);
    let fg = round(&fg_cfg, loads, reqs, &mut quiet, &mut Vec::new());

    let mut attempted = 0u64;
    let mut failed = 0u64;
    let first = &rounds[0].out;
    for r in rounds.iter().chain(&traced) {
        attempted += reqs.len() as u64;
        failed += r.out.refused;
        if r.out.served + r.out.refused != reqs.len() as u64 {
            failed += 1;
            notes.push(format!(
                "FAIL served {} + refused {} != {} requests",
                r.out.served,
                r.out.refused,
                reqs.len()
            ));
        }
        if let Err(e) = &r.check {
            failed += 1;
            notes.push(format!("FAIL store check: {e}"));
        }
        if sim_key(&r.out) != sim_key(first) {
            failed += 1;
            notes.push("FAIL a round's simulated results differ from round 0".into());
        }
    }
    let real_key = (
        real.response_digest,
        real.served,
        real.sim_cycles,
        real.admission,
    );
    let ours = (
        first.digest,
        first.served,
        first.sim_cycles,
        first.admission,
    );
    if real_key != ours || real.samples.concat().len() != first.samples.len() {
        failed += 1;
        notes.push(format!(
            "FAIL composed serve loop differs from run_shard_service: digest {:016x} vs {:016x}, cycles {} vs {}",
            first.digest, real.response_digest, first.sim_cycles, real.sim_cycles
        ));
    }
    notes.push(format!(
        "response digest {:016x}; served {} of {}; admission immediate {} queued {} shed {}",
        first.digest,
        first.served,
        reqs.len(),
        first.admission.immediate,
        first.admission.queued,
        first.admission.shed
    ));

    if !o.trace {
        host.put("requests", &mut metrics, &mut notes);
        let c = &first.counters;
        metrics.put(
            "sim_cycles_per_op",
            ratio(first.sim_cycles as f64, reqs.len() as f64),
        );
        metrics.put("waf", c.waf());
        metrics.put(
            "slpmt_speedup_vs_fg",
            fg.out.sim_cycles as f64 / first.sim_cycles as f64,
        );
        metrics.put(
            "slpmt_traffic_reduction_vs_fg",
            1.0 - c.media() as f64 / fg.out.counters.media() as f64,
        );
        metrics.put("req_p50_cycles", percentile(&first.samples, 0.5) as f64);
        metrics.put("req_p999_cycles", percentile(&first.samples, 0.999) as f64);
        return Outcome {
            attempted,
            failed,
            metrics,
            notes,
            spans: Vec::new(),
        };
    }

    let spans = traced_spans.spans;
    let t = &traced[0].out;
    let parse = durations(&spans, "kv.take_request");
    let disp = durations(&spans, "kv.dispatch");
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
        percentile(&load_lat, 0.5) as f64,
    );
    metrics.put(
        "workloads.insert_sim_cycles_p99",
        percentile(&load_lat, 0.99) as f64,
    );
    let builds: Vec<f64> = traced.iter().map(|r| r.setup_s).collect();
    metrics.put("workloads.build_s", median(&builds));
    metrics.put("kv.parse_host_ns_p50", percentile(&parse, 0.5) as f64);
    metrics.put("kv.parse_host_ns_p99", percentile(&parse, 0.99) as f64);
    metrics.put("kv.dispatch_host_ns_p50", percentile(&disp, 0.5) as f64);
    metrics.put("kv.dispatch_host_ns_p99", percentile(&disp, 0.99) as f64);
    metrics.put("kv.admission_queued", t.admission.queued as f64);
    metrics.put(
        "kv.admission_queued_cycles",
        t.admission.queued_cycles as f64,
    );
    let host_ns = rounds[0].timed_s * 1e9;
    layer_metrics(
        &mut metrics,
        &first.counters,
        &t.trace,
        &Counters::default(),
        host_ns,
        first.sim_cycles,
    );
    let plain: Vec<f64> = rounds
        .iter()
        .map(|r| reqs.len() as f64 / r.timed_s)
        .collect();
    let with: Vec<f64> = traced
        .iter()
        .map(|r| reqs.len() as f64 / r.timed_s)
        .collect();
    metrics.put("trace.host_ops_per_s", median(&with));
    metrics.put("trace.overhead_frac", median(&plain) / median(&with) - 1.0);
    Outcome {
        attempted,
        failed,
        metrics,
        notes,
        spans,
    }
}
