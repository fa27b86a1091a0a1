//! Model-based check of the [`SetAssocCache`] storage layout: seeded
//! random operation sequences drive the cache and a reference
//! per-set `Vec<Vec<Entry>>` model (push on insert, `swap_remove` on
//! eviction and removal — the layout the cache replaced) side by side.
//! Victims, LRU choices, `iter()` order (set order, then way order,
//! which battery-backed flushes and abort scans depend on), `len` and
//! `CacheStats` must agree after every step.
//!
//! The cache remembers the slot of the last line it looked up or
//! inserted and `peek`/`peek_mut` try that slot first, so after every
//! step — a lookup, an insert, an evicting insert (whose `swap_remove`
//! moves a way), a take, a remove, a clear or a clone — the model also
//! peeks at the line just touched (and at an evicted victim), where a
//! hint trusted without checking the slot's address would go wrong.

use slpmt_cache::{CacheGeometry, CacheStats, Entry, LineMeta, SetAssocCache};
use slpmt_pmem::{PmAddr, LINE_BYTES};
use slpmt_prng::SimRng;

/// The reference layout: one `Vec` per set, each way carrying its own
/// LRU stamp.
struct Model {
    ways: usize,
    sets: Vec<Vec<(Entry, u64)>>,
    tick: u64,
    stats: CacheStats,
}

impl Model {
    fn new(geo: CacheGeometry) -> Self {
        Model {
            ways: geo.ways,
            sets: vec![Vec::new(); geo.sets()],
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    fn set(&mut self, addr: PmAddr) -> &mut Vec<(Entry, u64)> {
        let n = self.sets.len() as u64;
        &mut self.sets[(addr.raw() / LINE_BYTES as u64 % n) as usize]
    }

    fn lookup(&mut self, addr: PmAddr) -> Option<Entry> {
        self.tick += 1;
        let tick = self.tick;
        let line = addr.line();
        match self.set(line).iter_mut().find(|(e, _)| e.addr == line) {
            Some((e, lru)) => {
                *lru = tick;
                let e = e.clone();
                self.stats.hits += 1;
                Some(e)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    fn peek(&mut self, addr: PmAddr) -> Option<Entry> {
        let line = addr.line();
        self.set(line)
            .iter()
            .find(|(e, _)| e.addr == line)
            .map(|(e, _)| e.clone())
    }

    fn insert(&mut self, entry: Entry) -> Option<Entry> {
        self.tick += 1;
        let (tick, ways) = (self.tick, self.ways);
        let set = self.set(entry.addr);
        let victim = if set.len() == ways {
            let (pos, _) = set
                .iter()
                .enumerate()
                .min_by_key(|(_, (_, lru))| *lru)
                .expect("full set");
            Some(set.swap_remove(pos).0)
        } else {
            None
        };
        set.push((entry, tick));
        self.stats.evictions += u64::from(victim.is_some());
        victim
    }

    fn remove(&mut self, addr: PmAddr) -> Option<Entry> {
        let line = addr.line();
        let set = self.set(line);
        let pos = set.iter().position(|(e, _)| e.addr == line)?;
        Some(set.swap_remove(pos).0)
    }

    fn iter(&self) -> impl Iterator<Item = &Entry> {
        self.sets.iter().flatten().map(|(e, _)| e)
    }

    fn len(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }
}

fn key(e: &Entry) -> (u64, [u8; LINE_BYTES], LineMeta) {
    (e.addr.raw(), e.data, e.meta)
}

fn same(a: Option<&Entry>, b: Option<&Entry>, step: usize, what: &str) {
    assert_eq!(a.map(key), b.map(key), "step {step}: {what} disagrees");
}

/// `peek` and `peek_mut` of `addr` must both agree with the model.
fn same_peeks(cache: &mut SetAssocCache, model: &mut Model, addr: PmAddr, step: usize) {
    let want = model.peek(addr);
    same(cache.peek(addr), want.as_ref(), step, "peek");
    same(
        cache.peek_mut(addr).map(|e| &*e),
        want.as_ref(),
        step,
        "peek_mut",
    );
}

/// Runs `steps` random operations over `lines` distinct lines.
fn drive(geo: CacheGeometry, lines: u64, steps: usize, seed: u64) {
    let mut rng = SimRng::seed_from_u64(seed);
    let mut cache = SetAssocCache::new(geo);
    let mut model = Model::new(geo);
    let mut stamp = 0u8;
    for step in 0..steps {
        let addr =
            PmAddr::new(rng.gen_range(0..lines) * LINE_BYTES as u64 + rng.gen_range(0..8) * 8);
        match rng.gen_range(0..100) {
            0..=31 => {
                let got = cache.lookup(addr).map(|e| e.clone());
                same(got.as_ref(), model.lookup(addr).as_ref(), step, "lookup");
            }
            32..=59 => {
                if model.peek(addr).is_none() {
                    stamp = stamp.wrapping_add(1);
                    let meta = LineMeta {
                        dirty: stamp.is_multiple_of(2),
                        log_bits: stamp,
                        ..LineMeta::clean()
                    };
                    let e = Entry::new(addr.line(), [stamp; LINE_BYTES], meta);
                    let got = cache.insert(e.clone());
                    same(got.as_ref(), model.insert(e).as_ref(), step, "victim");
                    if let Some(v) = got {
                        same_peeks(&mut cache, &mut model, v.addr, step);
                    }
                }
            }
            60..=67 => {
                same(cache.peek(addr), model.peek(addr).as_ref(), step, "peek");
                if let Some(e) = cache.peek_mut(addr) {
                    e.meta.persist = !e.meta.persist;
                    let line = addr.line();
                    let m = model.set(line).iter_mut().find(|(e, _)| e.addr == line);
                    m.expect("resident in both").0.meta.persist ^= true;
                }
            }
            68..=75 => {
                // `take` is a counted lookup that removes on a hit.
                let got = cache.take(addr);
                let want = model.lookup(addr).and_then(|_| model.remove(addr));
                same(got.as_ref(), want.as_ref(), step, "take");
            }
            76..=84 => {
                let got = cache.remove(addr);
                same(got.as_ref(), model.remove(addr).as_ref(), step, "remove");
            }
            85..=97 => {
                let got = cache.invalidate(addr);
                let want = model.remove(addr);
                model.stats.invalidations += u64::from(want.is_some());
                same(got.as_ref(), want.as_ref(), step, "invalidate");
            }
            98 => cache = cache.clone(),
            _ => {
                cache.clear();
                for set in &mut model.sets {
                    set.clear();
                }
            }
        }
        same_peeks(&mut cache, &mut model, addr, step);
        assert_eq!(cache.len(), model.len(), "step {step}: len");
        assert_eq!(cache.is_empty(), model.len() == 0, "step {step}: is_empty");
        assert_eq!(*cache.stats(), model.stats, "step {step}: stats");
        let order: Vec<_> = cache.iter().map(key).collect();
        let want: Vec<_> = model.iter().map(key).collect();
        assert_eq!(order, want, "step {step}: iter order");
    }
    // A clone continues identically to the original.
    let mut twin = cache.clone();
    for i in 0..lines {
        let addr = PmAddr::new(i * LINE_BYTES as u64);
        same_peeks(&mut twin, &mut model, addr, steps + i as usize);
        let (a, b) = (
            twin.lookup(addr).map(|e| key(e)),
            cache.lookup(addr).map(|e| key(e)),
        );
        assert_eq!(a, b, "a clone's lookup of line {i} disagrees");
    }
    assert_eq!(twin.stats(), cache.stats());
}

#[test]
fn layout_matches_vec_of_vecs_model() {
    let geos = [
        // 2 sets × 2 ways: constant conflict pressure.
        CacheGeometry {
            capacity: 256,
            ways: 2,
            hit_cycles: 1,
        },
        // 8 sets × 4 ways.
        CacheGeometry {
            capacity: 2048,
            ways: 4,
            hit_cycles: 1,
        },
        // 4 sets × 16 ways (the L3 associativity).
        CacheGeometry {
            capacity: 4096,
            ways: 16,
            hit_cycles: 1,
        },
        // 3 sets × 2 ways: a set count indexed by remainder, not mask.
        CacheGeometry {
            capacity: 384,
            ways: 2,
            hit_cycles: 1,
        },
        // One fully associative set.
        CacheGeometry {
            capacity: 256,
            ways: 4,
            hit_cycles: 1,
        },
    ];
    for (g, geo) in geos.into_iter().enumerate() {
        let lines = geo.lines() as u64;
        for seed in 0..8 {
            // Working sets below, at and well above capacity.
            for span in [lines / 2, lines, 3 * lines] {
                drive(geo, span.max(1), 1500, seed * 31 + g as u64 * 7 + span);
            }
        }
    }
}
