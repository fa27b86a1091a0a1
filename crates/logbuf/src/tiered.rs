//! The four-tier buddy-coalescing log buffer (§III-B2, Figure 6).
//!
//! Tier *i* holds records of 2^i words (word, double, quad, line), up
//! to eight records each. On insertion the buffer searches the tier for
//! the record's *buddy* (the neighbouring equally-sized block); if
//! found, the pair coalesces into the next tier, recursively. A tier
//! that fills with no coalescing opportunity drains: its records are
//! packed pad-style into cache lines and persisted.
//!
//! The buffer also serves the two eviction-time duties of §II/III-A:
//! flushing the records of a specific line before that line overflows
//! to L3, and discarding the records of lazily-persistent lines at
//! commit.

use crate::record::{flush_event, FlushEvent, LogRecord};
use slpmt_pmem::addr::{PmAddr, LINE_BYTES, WORD_BYTES};
use slpmt_trace::{Event as TraceEvent, TraceHandle, TraceSlot, Tracer};

/// Number of tiers: word, double-word, quad-word, line.
pub const TIERS: usize = 4;
/// Records each tier retains before draining.
pub const TIER_CAPACITY: usize = 8;

/// Counters describing buffer behaviour, used by the ablation benches.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TieredStats {
    /// Word records inserted.
    pub inserts: u64,
    /// Buddy merges performed (each removes one record).
    pub coalesces: u64,
    /// Tier drains forced by a full tier.
    pub overflow_drains: u64,
    /// Records discarded at commit because their line was lazy.
    pub discarded: u64,
}

/// The SLPMT four-tier log buffer.
///
/// ```
/// use slpmt_logbuf::{TieredLogBuffer, LogRecord};
/// use slpmt_pmem::PmAddr;
/// let mut buf = TieredLogBuffer::new();
/// // Two adjacent word records coalesce into a double-word record.
/// buf.insert(LogRecord::new(1, PmAddr::new(0), &[1; 8]));
/// buf.insert(LogRecord::new(1, PmAddr::new(8), &[2; 8]));
/// assert_eq!(buf.len(), 1);
/// let drained = buf.drain_all().unwrap();
/// assert_eq!(drained.entries[0].payload.len(), 16);
/// ```
#[derive(Debug, Clone, Default)]
pub struct TieredLogBuffer {
    tiers: [Vec<LogRecord>; TIERS],
    stats: TieredStats,
    /// Optional trace sink shared with the owning machine. `None` (the
    /// default) keeps every buffer operation at a single branch.
    tracer: TraceSlot,
}

fn tier_of(record: &LogRecord) -> usize {
    match record.payload.len() {
        8 => 0,
        16 => 1,
        32 => 2,
        64 => 3,
        n => unreachable!("record size {n} rejected at construction"),
    }
}

impl TieredLogBuffer {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Behaviour counters.
    pub fn stats(&self) -> &TieredStats {
        &self.stats
    }

    /// Installs (or removes) the shared trace sink: appends, buddy
    /// coalesces, drains and occupancy snapshots are emitted while a
    /// sink is present.
    pub fn set_tracer(&mut self, tracer: Option<TraceHandle>) {
        self.tracer.set(tracer);
    }

    /// `true` when buffer operations should collect trace detail.
    fn tracing(&self) -> bool {
        !cfg!(feature = "no-trace") && self.tracer.is_some()
    }

    /// Runs `f` against the sink when tracing is enabled.
    fn trace(&self, f: impl FnOnce(&mut Tracer)) {
        if cfg!(feature = "no-trace") {
            return;
        }
        if let Some(t) = self.tracer.get() {
            f(&mut t.borrow_mut());
        }
    }

    /// Emits a post-mutation tier-occupancy snapshot.
    fn trace_occupancy(&self) {
        if !self.tracing() {
            return;
        }
        let lens = self.tier_lens();
        self.trace(|t| {
            t.emit(TraceEvent::TierOccupancy {
                lens: [
                    lens[0].min(255) as u8,
                    lens[1].min(255) as u8,
                    lens[2].min(255) as u8,
                    lens[3].min(255) as u8,
                ],
            });
        });
    }

    /// Total records currently buffered.
    pub fn len(&self) -> usize {
        self.tiers.iter().map(Vec::len).sum()
    }

    /// `true` when no record is buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Inserts a record, coalescing upward; returns the flush events of
    /// any tier that overflowed in the process.
    pub fn insert(&mut self, record: LogRecord) -> Vec<FlushEvent> {
        self.stats.inserts += 1;
        let mut events = Vec::new();
        let mut rec = record;
        loop {
            let tier = tier_of(&rec);
            // Search the tier for the buddy (same transaction).
            let buddy_addr = rec.buddy_addr();
            if tier < TIERS - 1 {
                if let Some(pos) = self.tiers[tier]
                    .iter()
                    .position(|r| r.addr == buddy_addr && r.txn == rec.txn)
                {
                    let buddy = self.tiers[tier].swap_remove(pos);
                    self.stats.coalesces += 1;
                    rec = rec.merge(buddy);
                    self.trace(|t| {
                        t.emit(TraceEvent::TierCoalesce {
                            tier: tier_of(&rec) as u8,
                            addr: rec.addr.raw(),
                            len: rec.payload.len() as u16,
                        });
                    });
                    continue; // try to coalesce again in the next tier
                }
            }
            // No coalescing opportunity: drain the tier if full.
            if self.tiers[tier].len() == TIER_CAPACITY {
                self.stats.overflow_drains += 1;
                let drained = std::mem::take(&mut self.tiers[tier]);
                self.trace(|t| {
                    for r in &drained {
                        t.emit(TraceEvent::TierDrain {
                            tier: tier as u8,
                            addr: r.addr.raw(),
                            len: r.payload.len() as u16,
                            overflow: true,
                        });
                    }
                });
                events.push(flush_event(drained));
            }
            let (addr, len) = (rec.addr.raw(), rec.payload.len() as u16);
            self.tiers[tier].push(rec);
            self.trace(|t| {
                t.emit(TraceEvent::TierAppend {
                    tier: tier as u8,
                    addr,
                    len,
                });
            });
            self.trace_occupancy();
            return events;
        }
    }

    /// Updates the buffered bytes covering word `addr` of transaction
    /// `txn` with `data` — the redo-logging path, where a record must
    /// hold the *final* value of the word. Returns `false` when no
    /// buffered record covers the word (it was already flushed; the
    /// caller appends a fresh record, which forward replay applies
    /// last).
    pub fn update_word(&mut self, txn: u64, addr: PmAddr, data: &[u8; WORD_BYTES]) -> bool {
        let word = addr.raw() & !(WORD_BYTES as u64 - 1);
        for tier in &mut self.tiers {
            for rec in tier.iter_mut() {
                if rec.txn != txn {
                    continue;
                }
                let start = rec.addr.raw();
                let end = start + rec.payload.len() as u64;
                if word >= start && word < end {
                    let off = (word - start) as usize;
                    rec.payload[off..off + WORD_BYTES].copy_from_slice(data);
                    return true;
                }
            }
        }
        false
    }

    /// Whether any buffered record covers bytes of the line at `line`.
    pub fn has_records_for_line(&self, line: PmAddr) -> bool {
        let line = line.line();
        self.tiers.iter().flatten().any(|r| r.line() == line)
    }

    /// Flushes the records covering `line` (an L2→L3 eviction must
    /// persist them before the data leaves the private cache). Returns
    /// `None` when the buffer holds no such record.
    pub fn flush_line(&mut self, line: PmAddr) -> Option<FlushEvent> {
        let line = line.line();
        let tracing = self.tracing();
        let mut out = Vec::new();
        let mut out_tiers = Vec::new();
        for (ti, tier) in self.tiers.iter_mut().enumerate() {
            let mut i = 0;
            while i < tier.len() {
                if tier[i].line() == line {
                    if tracing {
                        out_tiers.push(ti as u8);
                    }
                    out.push(tier.swap_remove(i));
                } else {
                    i += 1;
                }
            }
        }
        if out.is_empty() {
            None
        } else {
            self.trace(|t| {
                for (ti, r) in out_tiers.iter().zip(&out) {
                    t.emit(TraceEvent::TierDrain {
                        tier: *ti,
                        addr: r.addr.raw(),
                        len: r.payload.len() as u16,
                        overflow: false,
                    });
                }
            });
            self.trace_occupancy();
            Some(flush_event(out))
        }
    }

    /// Discards the records of lazily-persistent `lines` (commit scan,
    /// §III-B2 last paragraph). Returns how many records were dropped.
    pub fn discard_lines(&mut self, lines: &[PmAddr]) -> usize {
        let lines: Vec<PmAddr> = lines.iter().map(|a| a.line()).collect();
        let mut dropped = 0;
        for tier in &mut self.tiers {
            let before = tier.len();
            tier.retain(|r| !lines.contains(&r.line()));
            dropped += before - tier.len();
        }
        self.stats.discarded += dropped as u64;
        dropped
    }

    /// Drains every tier into one packed flush (transaction commit).
    /// Returns `None` when empty.
    pub fn drain_all(&mut self) -> Option<FlushEvent> {
        let tracing = self.tracing();
        let mut all = Vec::new();
        let mut all_tiers = Vec::new();
        for (ti, tier) in self.tiers.iter_mut().enumerate() {
            if tracing {
                all_tiers.resize(all_tiers.len() + tier.len(), ti as u8);
            }
            all.append(tier);
        }
        if all.is_empty() {
            None
        } else {
            self.trace(|t| {
                for (ti, r) in all_tiers.iter().zip(&all) {
                    t.emit(TraceEvent::TierDrain {
                        tier: *ti,
                        addr: r.addr.raw(),
                        len: r.payload.len() as u16,
                        overflow: false,
                    });
                }
            });
            self.trace_occupancy();
            Some(flush_event(all))
        }
    }

    /// Clears the buffer without persisting anything (transaction
    /// abort, §V-B step 1).
    pub fn clear(&mut self) {
        for tier in &mut self.tiers {
            tier.clear();
        }
    }

    /// Records currently buffered in each tier (word, double, quad,
    /// line) — the occupancy invariant hook: no tier ever exceeds
    /// [`TIER_CAPACITY`].
    pub fn tier_lens(&self) -> [usize; TIERS] {
        [
            self.tiers[0].len(),
            self.tiers[1].len(),
            self.tiers[2].len(),
            self.tiers[3].len(),
        ]
    }

    /// Every buffered record, tier by tier (test hook: size-class,
    /// alignment and overlap invariants without draining).
    pub fn records(&self) -> impl Iterator<Item = &LogRecord> {
        self.tiers.iter().flatten()
    }

    /// Words currently covered by buffered records of transaction `txn`
    /// within `line` — a bitmap at word granularity. Used by tests and
    /// the speculative-logging path to avoid double-logging.
    pub fn words_covered(&self, txn: u64, line: PmAddr) -> u8 {
        let line = line.line();
        let mut mask = 0u8;
        for r in self.tiers.iter().flatten() {
            if r.txn == txn && r.line() == line {
                let first = ((r.addr.raw() - line.raw()) / WORD_BYTES as u64) as usize;
                for w in 0..r.words() {
                    mask |= 1 << (first + w);
                }
            }
        }
        mask
    }
}

/// Total on-chip buffer capacity in bytes: the lcm-based tier sizes of
/// §III-B2 (2 + 3 + 5 + 9 cache lines = 1,216 bytes).
pub const BUFFER_BYTES: usize = (2 + 3 + 5 + 9) * LINE_BYTES;

#[cfg(test)]
mod tests {
    use super::*;

    fn word(txn: u64, addr: u64, fill: u8) -> LogRecord {
        LogRecord::new(txn, PmAddr::new(addr), &[fill; 8])
    }

    #[test]
    fn buffer_bytes_match_paper() {
        assert_eq!(BUFFER_BYTES, 1216);
    }

    #[test]
    fn single_insert_no_flush() {
        let mut b = TieredLogBuffer::new();
        assert!(b.insert(word(1, 0, 0)).is_empty());
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn full_line_coalesces_to_top_tier() {
        let mut b = TieredLogBuffer::new();
        for w in 0..8 {
            assert!(b.insert(word(1, w * 8, w as u8)).is_empty());
        }
        assert_eq!(b.len(), 1, "eight words coalesce into one line record");
        let ev = b.drain_all().unwrap();
        assert_eq!(ev.entries.len(), 1);
        assert_eq!(ev.entries[0].payload.len(), 64);
        // Payload is in address order.
        for w in 0..8usize {
            assert!(ev.entries[0].payload[w * 8..][..8]
                .iter()
                .all(|&x| x == w as u8));
        }
        assert_eq!(b.stats().coalesces, 7);
    }

    #[test]
    fn reverse_order_also_coalesces() {
        let mut b = TieredLogBuffer::new();
        for w in (0..8).rev() {
            b.insert(word(1, w * 8, w as u8));
        }
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn different_txns_do_not_coalesce() {
        let mut b = TieredLogBuffer::new();
        b.insert(word(1, 0, 1));
        b.insert(word(2, 8, 2));
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn non_buddies_do_not_coalesce() {
        let mut b = TieredLogBuffer::new();
        b.insert(word(1, 8, 1));
        b.insert(word(1, 16, 2)); // adjacent but not a buddy pair (8^8=0, 16^8=24)
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn tier_overflow_drains_eight_records() {
        let mut b = TieredLogBuffer::new();
        // Nine non-coalescing word records (distinct lines).
        let mut events = Vec::new();
        for i in 0..9u64 {
            events.extend(b.insert(word(1, i * 64, i as u8)));
        }
        assert_eq!(events.len(), 1, "ninth insert drains the full word tier");
        let ev = &events[0];
        assert_eq!(ev.entries.len(), 8);
        assert_eq!(ev.lines, 2); // 8 × 16 B = 128 B → 2 lines
        assert_eq!(b.len(), 1);
        assert_eq!(b.stats().overflow_drains, 1);
    }

    #[test]
    fn flush_line_extracts_only_that_line() {
        let mut b = TieredLogBuffer::new();
        b.insert(word(1, 0, 1));
        b.insert(word(1, 8, 2)); // coalesces with the first
        b.insert(word(1, 64, 3));
        assert!(b.has_records_for_line(PmAddr::new(0)));
        let ev = b.flush_line(PmAddr::new(32)).unwrap(); // any addr in line 0
        assert_eq!(ev.entries.len(), 1);
        assert_eq!(ev.entries[0].payload.len(), 16);
        assert!(!b.has_records_for_line(PmAddr::new(0)));
        assert!(b.has_records_for_line(PmAddr::new(64)));
        assert!(b.flush_line(PmAddr::new(0)).is_none());
    }

    #[test]
    fn discard_lazy_lines() {
        let mut b = TieredLogBuffer::new();
        b.insert(word(1, 0, 1));
        b.insert(word(1, 64, 2));
        b.insert(word(1, 128, 3));
        let dropped = b.discard_lines(&[PmAddr::new(0), PmAddr::new(130)]);
        assert_eq!(dropped, 2);
        assert_eq!(b.len(), 1);
        assert_eq!(b.stats().discarded, 2);
    }

    #[test]
    fn drain_all_empties_buffer() {
        let mut b = TieredLogBuffer::new();
        b.insert(word(1, 0, 1));
        b.insert(word(1, 64, 2));
        let ev = b.drain_all().unwrap();
        assert_eq!(ev.entries.len(), 2);
        assert!(b.is_empty());
        assert!(b.drain_all().is_none());
    }

    #[test]
    fn clear_drops_without_events() {
        let mut b = TieredLogBuffer::new();
        b.insert(word(1, 0, 1));
        b.clear();
        assert!(b.is_empty());
    }

    #[test]
    fn words_covered_bitmap() {
        let mut b = TieredLogBuffer::new();
        b.insert(word(1, 0, 1));
        b.insert(word(1, 24, 2));
        assert_eq!(b.words_covered(1, PmAddr::new(0)), 0b0000_1001);
        assert_eq!(b.words_covered(2, PmAddr::new(0)), 0);
        // After coalescing 0+8, bitmap covers both words.
        b.insert(word(1, 8, 3));
        assert_eq!(b.words_covered(1, PmAddr::new(0)), 0b0000_1011);
    }

    #[test]
    fn duplicate_records_permitted() {
        // §III-B1: a reused evicted line may be logged again "without
        // overwriting prior logs".
        let mut b = TieredLogBuffer::new();
        b.insert(word(1, 0, 1));
        b.insert(word(1, 0, 2));
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn update_word_rewrites_buffered_payload() {
        let mut b = TieredLogBuffer::new();
        b.insert(word(1, 0, 1));
        b.insert(word(1, 8, 2)); // coalesces into a 16-byte record
        assert!(b.update_word(1, PmAddr::new(8), &[9u8; 8]));
        let ev = b.drain_all().unwrap();
        assert_eq!(&ev.entries[0].payload[8..], &[9u8; 8]);
        assert_eq!(&ev.entries[0].payload[..8], &[1u8; 8]);
    }

    #[test]
    fn update_word_misses_flushed_or_foreign_records() {
        let mut b = TieredLogBuffer::new();
        b.insert(word(1, 0, 1));
        assert!(!b.update_word(2, PmAddr::new(0), &[9u8; 8]), "other txn");
        assert!(
            !b.update_word(1, PmAddr::new(64), &[9u8; 8]),
            "uncovered word"
        );
        b.drain_all();
        assert!(!b.update_word(1, PmAddr::new(0), &[9u8; 8]), "flushed");
    }

    #[test]
    fn cascaded_coalesce_across_three_tiers() {
        let mut b = TieredLogBuffer::new();
        // Insert words 0..3 of a line: 4 words → one quad record.
        for w in 0..4 {
            b.insert(word(1, w * 8, 0));
        }
        assert_eq!(b.len(), 1);
        let ev = b.drain_all().unwrap();
        assert_eq!(ev.entries[0].payload.len(), 32);
    }
}
