//! The trace sink: bounded per-core ring buffers of timestamped
//! records.
//!
//! A [`Tracer`] is shared by every emitter of one simulated machine
//! through a [`TraceHandle`] (`Rc<RefCell<…>>`): the machine front
//! end, the persistent-memory device and the tiered log buffer all
//! hold an `Option<TraceHandle>` that is `None` unless tracing was
//! explicitly enabled, so the disabled path costs one branch.
//!
//! Records carry three deterministic clocks: the simulated cycle
//! counter (`now`), the durable persist-event counter (`devent`,
//! mirrored from the device on every accepted mutation) and a per-core
//! sequence number (`seq`). None of them ever reads wall time, so the
//! same seeded run emits the same records in the same order.

use crate::event::Event;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

/// One emitted event with its deterministic timestamps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// Global emission index within the tracer (merge order).
    pub order: u64,
    /// Durable persist-event count at emission time.
    pub devent: u64,
    /// Issuing core slot.
    pub core: u8,
    /// Per-core sequence number (0-based, dense per core).
    pub seq: u64,
    /// Simulated cycle clock at emission time.
    pub now: u64,
    /// The event itself.
    pub event: Event,
}

#[derive(Debug, Clone, Default)]
struct Ring {
    buf: VecDeque<TraceRecord>,
    seq: u64,
    dropped: u64,
}

/// Bounded per-core ring-buffer sink for [`Event`]s.
#[derive(Debug, Clone)]
pub struct Tracer {
    capacity: usize,
    rings: Vec<Ring>,
    core: u8,
    clock: u64,
    devent: u64,
    order: u64,
}

impl Tracer {
    /// Creates a tracer whose per-core rings hold at most
    /// `capacity_per_core` records (oldest drop first).
    ///
    /// # Panics
    ///
    /// Panics if `capacity_per_core` is zero.
    pub fn new(capacity_per_core: usize) -> Self {
        assert!(capacity_per_core > 0, "ring capacity must be positive");
        Tracer {
            capacity: capacity_per_core,
            rings: vec![Ring::default()],
            core: 0,
            clock: 0,
            devent: 0,
            order: 0,
        }
    }

    /// Sets the core slot stamped on subsequent records (called by the
    /// multi-core front end at every scheduling step).
    pub fn set_core(&mut self, core: u8) {
        self.core = core;
        while self.rings.len() <= core as usize {
            self.rings.push(Ring::default());
        }
    }

    /// The core slot currently stamped on records.
    pub fn core(&self) -> u8 {
        self.core
    }

    /// Updates the simulated cycle clock stamped on subsequent records.
    pub fn set_clock(&mut self, now: u64) {
        self.clock = now;
    }

    /// Mirrors the device's durable persist-event counter.
    pub fn set_devent(&mut self, devent: u64) {
        self.devent = devent;
    }

    /// Emits one event at the current clock / devent / core.
    pub fn emit(&mut self, event: Event) {
        let ring = &mut self.rings[self.core as usize];
        let rec = TraceRecord {
            order: self.order,
            devent: self.devent,
            core: self.core,
            seq: ring.seq,
            now: self.clock,
            event,
        };
        self.order += 1;
        ring.seq += 1;
        if ring.buf.len() == self.capacity {
            ring.buf.pop_front();
            ring.dropped += 1;
        }
        ring.buf.push_back(rec);
    }

    /// Emits one event, updating the clock first.
    pub fn emit_at(&mut self, now: u64, event: Event) {
        self.set_clock(now);
        self.emit(event);
    }

    /// Total records dropped across all rings (capacity overflow).
    pub fn dropped(&self) -> u64 {
        self.rings.iter().map(|r| r.dropped).sum()
    }

    /// Total records currently buffered.
    pub fn len(&self) -> usize {
        self.rings.iter().map(|r| r.buf.len()).sum()
    }

    /// `true` when nothing has been buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All buffered records in the deterministic merged order (global
    /// emission order, which refines `(devent, core, seq)`).
    pub fn records(&self) -> Vec<TraceRecord> {
        let mut out: Vec<TraceRecord> = self
            .rings
            .iter()
            .flat_map(|r| r.buf.iter().cloned())
            .collect();
        out.sort_unstable_by_key(|r| r.order);
        out
    }

    /// Drains all buffered records (merged order), resetting the rings
    /// but not the sequence counters.
    pub fn take(&mut self) -> Vec<TraceRecord> {
        let out = self.records();
        for r in &mut self.rings {
            r.buf.clear();
        }
        out
    }
}

/// Shared handle to a [`Tracer`]; every emitter of one machine clones
/// the same handle.
pub type TraceHandle = Rc<RefCell<Tracer>>;

/// Creates a fresh shared tracer with the given per-core capacity.
pub fn tracer(capacity_per_core: usize) -> TraceHandle {
    Rc::new(RefCell::new(Tracer::new(capacity_per_core)))
}

/// A component's optional trace sink.
///
/// Cloning a traced component yields an *untraced* copy: the clone's
/// slot is empty. A ring records one run, and a forked machine sharing
/// its parent's handle would interleave two runs' events under one
/// clock; a fork that needs a trace replays its run with a tracer of
/// its own instead.
#[derive(Debug, Default)]
pub struct TraceSlot(Option<TraceHandle>);

impl Clone for TraceSlot {
    fn clone(&self) -> Self {
        TraceSlot(None)
    }
}

impl TraceSlot {
    /// The installed handle, if any.
    #[inline]
    pub fn get(&self) -> Option<&TraceHandle> {
        self.0.as_ref()
    }

    /// Installs (or, with `None`, removes) the handle.
    pub fn set(&mut self, handle: Option<TraceHandle>) {
        self.0 = handle;
    }

    /// Whether a handle is installed.
    #[inline]
    pub fn is_some(&self) -> bool {
        self.0.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(addr: u64) -> Event {
        Event::StoreIssue {
            addr,
            log: true,
            lazy: false,
            honoured: true,
        }
    }

    #[test]
    fn cloned_slot_is_empty() {
        let mut slot = TraceSlot::default();
        slot.set(Some(tracer(4)));
        assert!(slot.is_some());
        assert!(slot.clone().get().is_none());
    }

    #[test]
    fn records_carry_deterministic_clocks() {
        let mut t = Tracer::new(8);
        t.set_clock(100);
        t.set_devent(3);
        t.emit(ev(8));
        t.emit_at(120, ev(16));
        let recs = t.records();
        assert_eq!(recs.len(), 2);
        assert_eq!((recs[0].now, recs[0].devent, recs[0].seq), (100, 3, 0));
        assert_eq!((recs[1].now, recs[1].seq), (120, 1));
        assert_eq!(recs[0].core, 0);
    }

    #[test]
    fn per_core_sequences_are_dense() {
        let mut t = Tracer::new(8);
        t.emit(ev(0));
        t.set_core(2);
        t.emit(ev(8));
        t.emit(ev(16));
        t.set_core(0);
        t.emit(ev(24));
        let recs = t.records();
        assert_eq!(recs.len(), 4);
        // Merge order is emission order.
        assert_eq!(
            recs.iter().map(|r| (r.core, r.seq)).collect::<Vec<_>>(),
            vec![(0, 0), (2, 0), (2, 1), (0, 1)]
        );
    }

    #[test]
    fn ring_bounds_and_counts_drops() {
        let mut t = Tracer::new(2);
        for i in 0..5 {
            t.emit(ev(i * 8));
        }
        assert_eq!(t.len(), 2);
        assert_eq!(t.dropped(), 3);
        let recs = t.records();
        // The newest records survive; sequences keep counting.
        assert_eq!(recs[0].seq, 3);
        assert_eq!(recs[1].seq, 4);
    }

    #[test]
    fn take_drains() {
        let mut t = Tracer::new(4);
        t.emit(ev(0));
        assert_eq!(t.take().len(), 1);
        assert!(t.is_empty());
        t.emit(ev(8));
        assert_eq!(t.records()[0].seq, 1, "sequence survives the drain");
    }

    #[test]
    fn handle_is_shared() {
        let h = tracer(4);
        h.borrow_mut().emit(ev(0));
        let h2 = h.clone();
        h2.borrow_mut().emit(ev(8));
        assert_eq!(h.borrow().len(), 2);
    }
}
