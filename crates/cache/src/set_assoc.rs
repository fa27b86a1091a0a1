//! Generic set-associative cache container with LRU replacement.
//!
//! All three levels of the simulated hierarchy instantiate this
//! container; the hierarchy itself (exclusive placement, eviction
//! cascades, metadata transforms) is orchestrated by `slpmt-core`.

use crate::config::CacheGeometry;
use crate::meta::LineMeta;
use crate::stats::CacheStats;
use slpmt_pmem::addr::{PmAddr, LINE_BYTES};

/// One cached line: address tag, data, and SLPMT metadata.
#[derive(Debug, Clone)]
pub struct Entry {
    /// Line-aligned address of the cached data.
    pub addr: PmAddr,
    /// Current (possibly newer-than-persistent) line contents.
    pub data: [u8; LINE_BYTES],
    /// SLPMT per-line metadata bits.
    pub meta: LineMeta,
    lru: u64,
}

impl Entry {
    /// Creates an entry for `addr` with the given data and metadata.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not line-aligned.
    pub fn new(addr: PmAddr, data: [u8; LINE_BYTES], meta: LineMeta) -> Self {
        assert!(addr.is_line_aligned(), "cache entries are whole lines");
        Entry {
            addr,
            data,
            meta,
            lru: 0,
        }
    }
}

/// Directory value of a set that has never held a line.
const NO_BLOCK: u32 = u32::MAX;

/// Where the last [`lookup`](SetAssocCache::lookup) hit or
/// [`insert`](SetAssocCache::insert) left a line: its address, block
/// and way. A hint is only ever a guess — a later `swap_remove`,
/// eviction or `clear` may move or drop the line — so every reader
/// confirms the entry at that slot still holds the line before using
/// it, and falls back to the set scan otherwise.
#[derive(Debug, Clone, Copy)]
struct SlotHint {
    line: PmAddr,
    block: u32,
    way: u32,
}

/// A set-associative, LRU-replacement cache of 64-byte lines.
///
/// Storage scales with the touched sets, not the geometry: a flat
/// directory maps each set to a way block (a `Vec` of its resident
/// entries, growing with occupancy) that the set gets on its first
/// insert. Cloning copies the directory and the touched blocks,
/// [`clear`](Self::clear) empties only the touched blocks, and
/// [`len`](Self::len) is a counter — so forking a machine whose
/// caches hold a few dozen lines does not walk thousands of sets.
/// Within a set, ways keep `Vec` `push` / `swap_remove` order, which
/// fixes [`iter`](Self::iter) order (set order, then way order) and
/// every LRU choice. A one-entry hint remembers the slot of the last
/// line looked up or inserted, so the statistics-neutral
/// [`peek`](Self::peek) / [`peek_mut`](Self::peek_mut) that follow an
/// access find it without a second scan of the set.
///
/// ```
/// use slpmt_cache::{CacheGeometry, SetAssocCache, Entry, LineMeta};
/// use slpmt_pmem::PmAddr;
/// let geo = CacheGeometry { capacity: 256, ways: 2, hit_cycles: 4 };
/// let mut c = SetAssocCache::new(geo);
/// let e = Entry::new(PmAddr::new(0), [0; 64], LineMeta::clean());
/// assert!(c.insert(e).is_none());
/// assert!(c.lookup(PmAddr::new(0)).is_some());
/// assert!(c.lookup(PmAddr::new(64)).is_none());
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    geometry: CacheGeometry,
    /// `sets - 1` when the set count is a power of two (index by
    /// mask), else 0 (index by remainder).
    set_mask: u64,
    /// Set → index of its block in `blocks`, or [`NO_BLOCK`].
    dir: Vec<u32>,
    /// The touched sets' entries, in first-touch order.
    blocks: Vec<Vec<Entry>>,
    len: usize,
    tick: u64,
    stats: CacheStats,
    hint: Option<SlotHint>,
}

impl SetAssocCache {
    /// Creates an empty cache with the given geometry.
    pub fn new(geometry: CacheGeometry) -> Self {
        let sets = geometry.sets();
        SetAssocCache {
            geometry,
            set_mask: if sets.is_power_of_two() {
                sets as u64 - 1
            } else {
                0
            },
            dir: vec![NO_BLOCK; sets],
            blocks: Vec::new(),
            len: 0,
            tick: 0,
            stats: CacheStats::default(),
            hint: None,
        }
    }

    /// The cache geometry.
    pub fn geometry(&self) -> &CacheGeometry {
        &self.geometry
    }

    /// Access counters.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    #[inline]
    fn set_index(&self, line: PmAddr) -> usize {
        let n = line.raw() / LINE_BYTES as u64;
        (if self.set_mask != 0 {
            n & self.set_mask
        } else {
            n % self.dir.len() as u64
        }) as usize
    }

    fn bump(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// The `(block, way)` slot of `line`, if resident: the hint when
    /// the entry there still holds `line`, else one scan of the set.
    #[inline]
    fn find(&self, line: PmAddr) -> Option<(usize, usize)> {
        if let Some(h) = self.hint {
            let (b, w) = (h.block as usize, h.way as usize);
            if h.line == line && self.blocks[b].get(w).is_some_and(|e| e.addr == line) {
                return Some((b, w));
            }
        }
        let b = self.dir[self.set_index(line)];
        if b == NO_BLOCK {
            return None;
        }
        let way = self.blocks[b as usize]
            .iter()
            .position(|e| e.addr == line)?;
        Some((b as usize, way))
    }

    /// Removes way `way` of block `b`, moving the last way into its
    /// slot.
    fn swap_remove(&mut self, b: usize, way: usize) -> Entry {
        self.len -= 1;
        self.blocks[b].swap_remove(way)
    }

    /// Counts one access to `line` and returns its slot on a hit: the
    /// shared half of [`lookup`](Self::lookup) and [`take`](Self::take).
    fn access(&mut self, line: PmAddr) -> Option<(usize, usize)> {
        self.bump();
        let slot = self.find(line);
        if slot.is_some() {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
        }
        slot
    }

    /// Looks up `addr`'s line, counting a hit or miss and refreshing
    /// LRU state on a hit.
    pub fn lookup(&mut self, addr: PmAddr) -> Option<&mut Entry> {
        let line = addr.line();
        let (block, way) = self.access(line)?;
        self.hint = Some(SlotHint {
            line,
            block: block as u32,
            way: way as u32,
        });
        let e = &mut self.blocks[block][way];
        e.lru = self.tick;
        Some(e)
    }

    /// Removes and returns `addr`'s line, counting a hit or miss and
    /// advancing the LRU clock exactly as [`lookup`](Self::lookup)
    /// does: a `lookup` followed by a [`remove`](Self::remove) in one
    /// scan of the set.
    pub fn take(&mut self, addr: PmAddr) -> Option<Entry> {
        let (block, way) = self.access(addr.line())?;
        Some(self.swap_remove(block, way))
    }

    /// Inspects `addr`'s line without touching LRU state or counters.
    pub fn peek(&self, addr: PmAddr) -> Option<&Entry> {
        let (block, way) = self.find(addr.line())?;
        Some(&self.blocks[block][way])
    }

    /// Like [`peek`](Self::peek) but mutable; still statistics-neutral.
    /// Used by commit/flush scans that are not program accesses.
    pub fn peek_mut(&mut self, addr: PmAddr) -> Option<&mut Entry> {
        let (block, way) = self.find(addr.line())?;
        Some(&mut self.blocks[block][way])
    }

    /// `true` if the line containing `addr` is present.
    pub fn contains(&self, addr: PmAddr) -> bool {
        self.peek(addr).is_some()
    }

    /// Inserts `entry`, evicting and returning the set's LRU victim if
    /// the set was full.
    ///
    /// # Panics
    ///
    /// Panics if the line is already present — the hierarchy is
    /// exclusive, duplicates indicate a policy bug upstream.
    pub fn insert(&mut self, mut entry: Entry) -> Option<Entry> {
        let tick = self.bump();
        let idx = self.set_index(entry.addr);
        let ways = self.geometry.ways;
        if self.dir[idx] == NO_BLOCK {
            self.dir[idx] = self.blocks.len() as u32;
            self.blocks.push(Vec::new());
        }
        let block = self.dir[idx] as usize;
        // One pass both rejects a duplicate and finds the LRU way (the
        // first minimum; ticks are unique, so there are no ties).
        let (mut lru_way, mut lru_tick) = (0, u64::MAX);
        for (way, e) in self.blocks[block].iter().enumerate() {
            assert!(
                e.addr != entry.addr,
                "duplicate insert of line {}",
                entry.addr
            );
            if e.lru < lru_tick {
                (lru_way, lru_tick) = (way, e.lru);
            }
        }
        let victim = if self.blocks[block].len() == ways {
            self.stats.evictions += 1;
            Some(self.swap_remove(block, lru_way))
        } else {
            None
        };
        let way = self.blocks[block].len();
        entry.lru = tick;
        self.hint = Some(SlotHint {
            line: entry.addr,
            block: block as u32,
            way: way as u32,
        });
        self.blocks[block].push(entry);
        self.len += 1;
        victim
    }

    /// Removes and returns the line containing `addr` (statistics
    /// neutral; used to migrate lines between levels).
    pub fn remove(&mut self, addr: PmAddr) -> Option<Entry> {
        let (block, way) = self.find(addr.line())?;
        Some(self.swap_remove(block, way))
    }

    /// Removes and returns the line containing `addr` for a
    /// cache-to-cache transfer into *another core's* private cache,
    /// counting the migration. The entry's metadata travels with it —
    /// a migrated line keeps its lazy/transaction tags so the
    /// receiving core's coherence checks see them.
    pub fn migrate_out(&mut self, addr: PmAddr) -> Option<Entry> {
        let e = self.remove(addr);
        if e.is_some() {
            self.stats.migrations += 1;
        }
        e
    }

    /// Invalidates the line containing `addr`, counting the event.
    /// Returns the dropped entry, if any.
    pub fn invalidate(&mut self, addr: PmAddr) -> Option<Entry> {
        let e = self.remove(addr);
        if e.is_some() {
            self.stats.invalidations += 1;
        }
        e
    }

    /// Iterates all resident entries (set order, then way order).
    pub fn iter(&self) -> impl Iterator<Item = &Entry> {
        self.dir
            .iter()
            .filter(|&&b| b != NO_BLOCK)
            .flat_map(move |&b| self.blocks[b as usize].iter())
    }

    /// Drops every entry (e.g. simulated power loss). Touched sets
    /// keep their (now empty) blocks.
    pub fn clear(&mut self) {
        for set in &mut self.blocks {
            set.clear();
        }
        self.len = 0;
    }

    /// Number of resident lines.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no line is resident.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geo(capacity: usize, ways: usize) -> CacheGeometry {
        CacheGeometry {
            capacity,
            ways,
            hit_cycles: 1,
        }
    }

    fn entry(line: u64) -> Entry {
        Entry::new(PmAddr::new(line * 64), [line as u8; 64], LineMeta::clean())
    }

    #[test]
    fn hit_and_miss_counting() {
        let mut c = SetAssocCache::new(geo(256, 2));
        c.insert(entry(0));
        assert!(c.lookup(PmAddr::new(0)).is_some());
        assert!(c.lookup(PmAddr::new(8)).is_some(), "same line, any offset");
        assert!(c.lookup(PmAddr::new(64)).is_none());
        let s = c.stats();
        assert_eq!(s.hits, 2);
        assert_eq!(s.misses, 1);
    }

    #[test]
    fn lru_eviction_order() {
        // 2 sets × 2 ways; lines 0,2,4 map to set 0.
        let mut c = SetAssocCache::new(geo(256, 2));
        c.insert(entry(0));
        c.insert(entry(2));
        // Touch line 0 so line 2 becomes LRU.
        c.lookup(PmAddr::new(0));
        let victim = c.insert(entry(4)).expect("set full → eviction");
        assert_eq!(victim.addr, PmAddr::new(2 * 64));
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn insert_without_conflict_returns_none() {
        let mut c = SetAssocCache::new(geo(256, 2));
        assert!(c.insert(entry(0)).is_none());
        assert!(c.insert(entry(1)).is_none(), "different set");
        assert_eq!(c.len(), 2);
    }

    #[test]
    #[should_panic(expected = "duplicate insert")]
    fn duplicate_insert_panics() {
        let mut c = SetAssocCache::new(geo(256, 2));
        c.insert(entry(0));
        c.insert(entry(0));
    }

    #[test]
    fn remove_and_invalidate() {
        let mut c = SetAssocCache::new(geo(256, 2));
        c.insert(entry(0));
        c.insert(entry(1));
        assert!(c.remove(PmAddr::new(0)).is_some());
        assert!(c.remove(PmAddr::new(0)).is_none());
        assert!(c.invalidate(PmAddr::new(64)).is_some());
        assert_eq!(c.stats().invalidations, 1);
        assert!(c.is_empty());
    }

    #[test]
    fn peek_is_stat_neutral() {
        let mut c = SetAssocCache::new(geo(256, 2));
        c.insert(entry(0));
        assert!(c.peek(PmAddr::new(0)).is_some());
        assert!(c.peek_mut(PmAddr::new(64)).is_none());
        assert_eq!(c.stats().hits + c.stats().misses, 0);
    }

    #[test]
    fn peek_does_not_refresh_lru() {
        let mut c = SetAssocCache::new(geo(256, 2));
        c.insert(entry(0));
        c.insert(entry(2));
        // Peek at line 0 (no LRU refresh) → line 0 remains LRU.
        c.peek(PmAddr::new(0));
        let victim = c.insert(entry(4)).unwrap();
        assert_eq!(victim.addr, PmAddr::new(0));
    }

    #[test]
    fn iteration_and_clear() {
        let mut c = SetAssocCache::new(geo(256, 2));
        for i in 0..4 {
            c.insert(entry(i));
        }
        assert_eq!(c.iter().count(), 4);
        assert_eq!(c.len(), 4);
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.iter().count(), 0);
        assert!(c.lookup(PmAddr::new(0)).is_none(), "cleared lines are gone");
        assert!(c.insert(entry(0)).is_none());
        assert_eq!(c.len(), 1);
    }

    #[test]
    #[should_panic(expected = "whole lines")]
    fn unaligned_entry_rejected() {
        let _ = Entry::new(PmAddr::new(8), [0; 64], LineMeta::clean());
    }
}
