//! Per-component host probes: each calls one simulator component's
//! public API in isolation and reports host nanoseconds per operation
//! (median of several repetitions), plus simulated cycles per
//! operation where the component keeps time.

use crate::common::{median, MetricList};
use slpmt_cache::{CacheConfig, Entry, LineMeta, SetAssocCache};
use slpmt_core::{Machine, MachineConfig, Scheme, StoreKind};
use slpmt_logbuf::{LogRecord, TieredLogBuffer};
use slpmt_pmem::{LogFlushEntry, LogRegion, PayloadBuf, PmAddr, PmConfig, PmDevice, LINE_BYTES};
use std::hint::black_box;
use std::time::Instant;

const REPS: usize = 5;

/// Median over `REPS` of `f()`'s `(host ns, ops, sim cycles)` → per-op
/// host ns and sim cycles (the simulated part is deterministic).
fn per_op(mut f: impl FnMut() -> (u64, u64, u64)) -> (f64, f64) {
    let mut ns = Vec::new();
    let mut sim = 0.0;
    for _ in 0..REPS {
        let (host, ops, cycles) = f();
        ns.push(host as f64 / ops as f64);
        sim = cycles as f64 / ops as f64;
    }
    (median(&ns), sim)
}

fn elapsed_ns(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

/// L2-geometry access/fill stream over twice its capacity: a lookup,
/// and an insert on every miss.
fn cache() -> (u64, u64, u64) {
    const ACCESSES: u64 = 200_000;
    let geometry = CacheConfig::default().l2;
    let lines = 2 * (geometry.capacity / LINE_BYTES) as u64;
    let mut c = SetAssocCache::new(geometry);
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    let t0 = Instant::now();
    for _ in 0..ACCESSES {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let addr = PmAddr::new((x % lines) * LINE_BYTES as u64);
        if c.lookup(addr).is_none() {
            black_box(c.insert(Entry::new(addr, [0u8; LINE_BYTES], LineMeta::clean())));
        }
    }
    (elapsed_ns(t0), ACCESSES, 0)
}

/// Word records of consecutive words of each line: buddies coalesce
/// up the tiers; the buffer drains every 64 lines.
fn logbuf() -> (u64, u64, u64) {
    const LINES: u64 = 16_384;
    let mut buf = TieredLogBuffer::new();
    let t0 = Instant::now();
    for line in 0..LINES {
        for w in 0..8u64 {
            let addr = PmAddr::new(0x10_0000 + line * LINE_BYTES as u64 + w * 8);
            black_box(buf.insert(LogRecord::new(line / 4, addr, &w.to_le_bytes())));
        }
        if line % 64 == 63 {
            black_box(buf.drain_all());
        }
    }
    (elapsed_ns(t0), LINES * 8, 0)
}

fn persist_line() -> (u64, u64, u64) {
    const LINES: u64 = 100_000;
    let mut d = PmDevice::new(PmConfig::default());
    let data = [7u8; LINE_BYTES];
    let mut now = 0;
    let t0 = Instant::now();
    for i in 0..LINES {
        now = d.persist_line(
            now,
            PmAddr::new(0x1_0000 + (i % 4096) * LINE_BYTES as u64),
            &data,
        );
    }
    (elapsed_ns(t0), LINES, now)
}

/// Packs of four 32-byte records, the shape `tx_commit` emits.
fn log_pack() -> (u64, u64, u64) {
    const PACKS: u64 = 25_000;
    let entries: Vec<LogFlushEntry> = (0..4u64)
        .map(|i| LogFlushEntry {
            txn: 1,
            addr: PmAddr::new(0x2_0000 + i * 64),
            payload: PayloadBuf::from_slice(&[i as u8 + 1; 32]),
        })
        .collect();
    let mut d = PmDevice::new(PmConfig::default());
    let mut now = 0;
    let t0 = Instant::now();
    for _ in 0..PACKS {
        now = d.persist_log_pack(now, &entries);
    }
    (elapsed_ns(t0), PACKS * 4, now)
}

/// CRC validation of a log region, per record.
fn log_crc() -> (u64, u64, u64) {
    const RECORDS: u64 = 50_000;
    let mut region = LogRegion::new();
    for i in 0..RECORDS {
        region.append(i / 8, PmAddr::new(0x3_0000 + i * 32), &[i as u8; 32]);
    }
    let t0 = Instant::now();
    black_box(region.validate());
    (elapsed_ns(t0), RECORDS, 0)
}

/// `Machine::recover` on a tiny-cache FG machine crashed with a large
/// transaction in flight, per applied undo record. Recovery runs off
/// the simulated clock, so there is no simulated column.
fn recover() -> (u64, u64, u64) {
    let (mut ns, mut records) = (0, 0);
    for r in 0..32u64 {
        let mut m = Machine::new(MachineConfig::for_scheme(Scheme::Fg).with_tiny_caches());
        m.tx_begin();
        for w in 0..256u64 {
            m.store_u64(PmAddr::new(0x1_0000 + w * 64), 0xdead ^ r, StoreKind::Store);
        }
        m.crash();
        let t0 = Instant::now();
        let report = m.recover();
        ns += elapsed_ns(t0);
        records += (report.undo_applied + report.redo_applied) as u64;
    }
    (ns, records.max(1), 0)
}

pub fn run(out: &mut MetricList) {
    let (ns, _) = per_op(cache);
    out.put("probe.cache_host_ns", ns);
    let (ns, _) = per_op(logbuf);
    out.put("probe.logbuf_host_ns", ns);
    let (ns, sim) = per_op(persist_line);
    out.put("probe.pmem_persist_line_host_ns", ns);
    out.put("probe.pmem_persist_line_sim_cycles", sim);
    let (ns, sim) = per_op(log_pack);
    out.put("probe.pmem_log_pack_host_ns", ns);
    out.put("probe.pmem_log_pack_sim_cycles", sim);
    let (ns, _) = per_op(log_crc);
    out.put("probe.log_crc_host_ns", ns);
    let (ns, _) = per_op(recover);
    out.put("probe.recover_host_ns", ns);
}
