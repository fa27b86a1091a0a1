//! The byte-addressable persistent image.
//!
//! [`PmSpace`] holds the bytes that are *durable*: what a simulated
//! crash preserves. The cache hierarchy holds newer, volatile copies of
//! lines; data only enters the image when it is persisted through the
//! write pending queue (Intel ADR semantics — reaching the WPQ counts
//! as durable, and the WPQ itself drains on power failure).
//!
//! Storage is a two-level page directory of contiguous 64-KiB frame
//! arenas: a line access is two indexed loads and a `memcpy`, with no
//! hashing and no per-line allocation on the hot path. Memory still
//! scales with the touched footprint (pages materialise on first
//! write), and a per-page line bitmap preserves the exact
//! touched-lines accounting of the earlier per-frame map.
//!
//! Directories and pages are shared copy-on-write (`Rc` +
//! [`Rc::make_mut`]): cloning a space bumps one reference count per
//! directory, and a clone copies a directory or a 64-KiB page only on
//! its first write to it. A crash sweep forking a machine per crash
//! point therefore pays for the pages the fork dirties, not for the
//! whole image. The counts are non-atomic, so the uniqueness check on
//! every write is two plain loads; a space stays on the thread that
//! built it, like the device that owns it.

use crate::addr::{PmAddr, LINE_BYTES};
use std::rc::Rc;

/// log2 of the page size: 64 KiB pages, i.e. 1024 lines per page.
const PAGE_SHIFT: u32 = 16;
/// Bytes per page (one contiguous frame arena).
const PAGE_BYTES: usize = 1 << PAGE_SHIFT;
/// Lines per page.
const PAGE_LINES: usize = PAGE_BYTES / LINE_BYTES;
/// Pages per second-level directory (so one directory spans 16 MiB).
const DIR_PAGES: usize = 256;
/// Bytes spanned by one second-level directory.
const DIR_SPAN: u64 = (PAGE_BYTES * DIR_PAGES) as u64;

/// One materialised 64-KiB arena plus its touched-line bitmap.
struct Page {
    bytes: Box<[u8; PAGE_BYTES]>,
    touched: [u64; PAGE_LINES / 64],
}

impl Page {
    fn zeroed() -> Rc<Page> {
        let bytes: Box<[u8; PAGE_BYTES]> = vec![0u8; PAGE_BYTES]
            .into_boxed_slice()
            .try_into()
            .expect("sized allocation");
        Rc::new(Page {
            bytes,
            touched: [0; PAGE_LINES / 64],
        })
    }

    /// Marks lines `first..=last` (page-local indexes) as written,
    /// returning how many were newly touched.
    fn mark_lines(&mut self, first: usize, last: usize) -> usize {
        let mut newly = 0;
        for line in first..=last {
            let (w, b) = (line / 64, line % 64);
            if self.touched[w] & (1 << b) == 0 {
                self.touched[w] |= 1 << b;
                newly += 1;
            }
        }
        newly
    }
}

impl Clone for Page {
    fn clone(&self) -> Self {
        Page {
            bytes: self.bytes.clone(),
            touched: self.touched,
        }
    }
}

impl std::fmt::Debug for Page {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let touched: u32 = self.touched.iter().map(|w| w.count_ones()).sum();
        write!(f, "Page {{ touched_lines: {touched} }}")
    }
}

type Dir = Vec<Option<Rc<Page>>>;

/// The durable byte image of the persistent-memory device.
///
/// Reads of never-written bytes return zero, matching a zero-initialised
/// device.
///
/// ```
/// use slpmt_pmem::{PmSpace, PmAddr};
/// let mut s = PmSpace::new(1 << 20);
/// s.write_u64(PmAddr::new(64), 0xDEAD_BEEF);
/// assert_eq!(s.read_u64(PmAddr::new(64)), 0xDEAD_BEEF);
/// assert_eq!(s.read_u64(PmAddr::new(128)), 0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct PmSpace {
    dirs: Vec<Option<Rc<Dir>>>,
    capacity: u64,
    touched: usize,
}

impl PmSpace {
    /// Creates an empty (all-zero) space of `capacity` bytes.
    pub fn new(capacity: u64) -> Self {
        let n_dirs = capacity.div_ceil(DIR_SPAN) as usize;
        PmSpace {
            dirs: (0..n_dirs).map(|_| None).collect(),
            capacity,
            touched: 0,
        }
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Number of distinct cache-line frames ever written.
    pub fn touched_lines(&self) -> usize {
        self.touched
    }

    /// Line addresses of every touched cache-line frame, in address
    /// order (the deterministic target set for media-fault injection).
    pub fn touched_line_addrs(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.touched);
        for (di, dir) in self.dirs.iter().enumerate() {
            let Some(dir) = dir else { continue };
            for (pi, page) in dir.iter().enumerate() {
                let Some(page) = page else { continue };
                let base = di as u64 * DIR_SPAN + ((pi as u64) << PAGE_SHIFT);
                for (wi, &word) in page.touched.iter().enumerate() {
                    let mut bits = word;
                    while bits != 0 {
                        let b = bits.trailing_zeros() as u64;
                        out.push(base + (wi as u64 * 64 + b) * LINE_BYTES as u64);
                        bits &= bits - 1;
                    }
                }
            }
        }
        out
    }

    fn check(&self, addr: PmAddr, len: usize) {
        assert!(
            addr.raw() + len as u64 <= self.capacity,
            "PM access out of range: {addr} + {len} > capacity {}",
            self.capacity
        );
    }

    #[inline]
    fn page(&self, addr: u64) -> Option<&Page> {
        let dir = self.dirs[(addr / DIR_SPAN) as usize].as_ref()?;
        dir[(addr % DIR_SPAN) as usize >> PAGE_SHIFT].as_deref()
    }

    /// The page holding `addr`, materialised on first use and
    /// unshared from any clone (copy-on-write) before it is returned.
    #[inline]
    fn page_mut(&mut self, addr: u64) -> &mut Page {
        let dir = self.dirs[(addr / DIR_SPAN) as usize]
            .get_or_insert_with(|| Rc::new((0..DIR_PAGES).map(|_| None).collect()));
        let page = Rc::make_mut(dir)[(addr % DIR_SPAN) as usize >> PAGE_SHIFT]
            .get_or_insert_with(Page::zeroed);
        Rc::make_mut(page)
    }

    /// Materializes the backing pages for `[base, base + bytes)` up
    /// front (clamped to the capacity). Pages normally appear lazily on
    /// first write; pre-faulting an arena a run is known to use moves
    /// those host allocations out of the measured loop — and, for
    /// parallel sharded runs, out of the phase where every shard
    /// allocates concurrently. Purely a host-side optimization: a
    /// pre-faulted page reads as zeros exactly like an absent one, so
    /// simulated behaviour (including `touched_lines`) is unchanged.
    pub fn prefault(&mut self, base: u64, bytes: u64) {
        let end = (base + bytes).min(self.capacity);
        let mut a = base & !(PAGE_BYTES as u64 - 1);
        while a < end {
            self.page_mut(a);
            a += PAGE_BYTES as u64;
        }
    }

    /// Reads `buf.len()` bytes starting at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the device capacity.
    pub fn read(&self, addr: PmAddr, buf: &mut [u8]) {
        self.check(addr, buf.len());
        let mut cursor = addr.raw();
        let mut filled = 0;
        while filled < buf.len() {
            let off = (cursor % PAGE_BYTES as u64) as usize;
            let take = (PAGE_BYTES - off).min(buf.len() - filled);
            match self.page(cursor) {
                Some(page) => {
                    buf[filled..filled + take].copy_from_slice(&page.bytes[off..off + take])
                }
                None => buf[filled..filled + take].fill(0),
            }
            filled += take;
            cursor += take as u64;
        }
    }

    /// Writes `data` starting at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the device capacity.
    pub fn write(&mut self, addr: PmAddr, data: &[u8]) {
        self.check(addr, data.len());
        let mut cursor = addr.raw();
        let mut written = 0;
        while written < data.len() {
            let off = (cursor % PAGE_BYTES as u64) as usize;
            let take = (PAGE_BYTES - off).min(data.len() - written);
            let newly = {
                let page = self.page_mut(cursor);
                page.bytes[off..off + take].copy_from_slice(&data[written..written + take]);
                page.mark_lines(off / LINE_BYTES, (off + take - 1) / LINE_BYTES)
            };
            self.touched += newly;
            written += take;
            cursor += take as u64;
        }
    }

    /// Reads one 8-byte little-endian word at a word-aligned address.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not word-aligned or out of range.
    pub fn read_u64(&self, addr: PmAddr) -> u64 {
        assert!(addr.is_word_aligned(), "unaligned word read at {addr}");
        self.check(addr, 8);
        match self.page(addr.raw()) {
            Some(page) => {
                let off = (addr.raw() % PAGE_BYTES as u64) as usize;
                u64::from_le_bytes(page.bytes[off..off + 8].try_into().expect("word"))
            }
            None => 0,
        }
    }

    /// Writes one 8-byte little-endian word at a word-aligned address.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not word-aligned or out of range.
    pub fn write_u64(&mut self, addr: PmAddr, value: u64) {
        assert!(addr.is_word_aligned(), "unaligned word write at {addr}");
        self.check(addr, 8);
        let off = (addr.raw() % PAGE_BYTES as u64) as usize;
        let newly = {
            let page = self.page_mut(addr.raw());
            page.bytes[off..off + 8].copy_from_slice(&value.to_le_bytes());
            page.mark_lines(off / LINE_BYTES, off / LINE_BYTES)
        };
        self.touched += newly;
    }

    /// Reads a whole 64-byte line at a line-aligned address.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not line-aligned or out of range.
    pub fn read_line(&self, addr: PmAddr) -> [u8; LINE_BYTES] {
        assert!(addr.is_line_aligned(), "unaligned line read at {addr}");
        self.check(addr, LINE_BYTES);
        match self.page(addr.raw()) {
            Some(page) => {
                let off = (addr.raw() % PAGE_BYTES as u64) as usize;
                page.bytes[off..off + LINE_BYTES].try_into().expect("line")
            }
            None => [0; LINE_BYTES],
        }
    }

    /// Writes a whole 64-byte line at a line-aligned address.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not line-aligned or out of range.
    pub fn write_line(&mut self, addr: PmAddr, data: &[u8; LINE_BYTES]) {
        assert!(addr.is_line_aligned(), "unaligned line write at {addr}");
        self.check(addr, LINE_BYTES);
        let off = (addr.raw() % PAGE_BYTES as u64) as usize;
        let newly = {
            let page = self.page_mut(addr.raw());
            page.bytes[off..off + LINE_BYTES].copy_from_slice(data);
            page.mark_lines(off / LINE_BYTES, off / LINE_BYTES)
        };
        self.touched += newly;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_initialised() {
        let s = PmSpace::new(1 << 16);
        assert_eq!(s.read_u64(PmAddr::new(0)), 0);
        assert_eq!(s.read_line(PmAddr::new(1024)), [0u8; 64]);
        assert_eq!(s.touched_lines(), 0);
    }

    /// Pre-faulting is simulation-invisible: reads stay zero, no line
    /// counts as touched (so fault-injection target sets are
    /// unchanged), and the range clamps to capacity.
    #[test]
    fn prefault_is_invisible_to_simulated_state() {
        let mut s = PmSpace::new(1 << 20);
        s.prefault(0x1000, 1 << 21); // deliberately past capacity
        assert_eq!(s.touched_lines(), 0);
        assert!(s.touched_line_addrs().is_empty());
        assert_eq!(s.read_u64(PmAddr::new(0x1000)), 0);
        s.write_u64(PmAddr::new(0x1000), 7);
        assert_eq!(s.touched_lines(), 1);
    }

    #[test]
    fn word_round_trip() {
        let mut s = PmSpace::new(1 << 16);
        s.write_u64(PmAddr::new(8), 42);
        s.write_u64(PmAddr::new(16), u64::MAX);
        assert_eq!(s.read_u64(PmAddr::new(8)), 42);
        assert_eq!(s.read_u64(PmAddr::new(16)), u64::MAX);
        // Neighbours untouched.
        assert_eq!(s.read_u64(PmAddr::new(0)), 0);
        assert_eq!(s.read_u64(PmAddr::new(24)), 0);
    }

    #[test]
    fn cross_line_write_and_read() {
        let mut s = PmSpace::new(1 << 16);
        let data: Vec<u8> = (0..200).map(|i| i as u8).collect();
        s.write(PmAddr::new(30), &data);
        let mut back = vec![0u8; 200];
        s.read(PmAddr::new(30), &mut back);
        assert_eq!(back, data);
        assert_eq!(s.touched_lines(), 4); // bytes 30..230 span lines 0..=3
    }

    #[test]
    fn line_round_trip() {
        let mut s = PmSpace::new(1 << 16);
        let line = [7u8; 64];
        s.write_line(PmAddr::new(128), &line);
        assert_eq!(s.read_line(PmAddr::new(128)), line);
    }

    #[test]
    fn cross_page_write_and_read() {
        let mut s = PmSpace::new(1 << 20);
        let data: Vec<u8> = (0..512).map(|i| (i * 7) as u8).collect();
        let addr = PmAddr::new(PAGE_BYTES as u64 - 100); // straddles a page boundary
        s.write(addr, &data);
        let mut back = vec![0u8; 512];
        s.read(addr, &mut back);
        assert_eq!(back, data);
    }

    #[test]
    fn cross_directory_write_and_read() {
        let mut s = PmSpace::new(DIR_SPAN * 2);
        let data = [0xAB_u8; 96];
        let addr = PmAddr::new(DIR_SPAN - 32); // straddles a directory boundary
        s.write(addr, &data);
        let mut back = [0u8; 96];
        s.read(addr, &mut back);
        assert_eq!(back, data);
        assert_eq!(s.touched_lines(), 2);
    }

    #[test]
    fn touched_line_addrs_enumerates_in_order() {
        let mut s = PmSpace::new(DIR_SPAN * 2);
        s.write_u64(PmAddr::new(DIR_SPAN + 64), 1); // second directory
        s.write_u64(PmAddr::new(128), 2);
        s.write_u64(PmAddr::new(0), 3);
        assert_eq!(s.touched_line_addrs(), vec![0, 128, DIR_SPAN + 64]);
        assert_eq!(s.touched_line_addrs().len(), s.touched_lines());
    }

    #[test]
    fn touched_lines_counts_each_line_once() {
        let mut s = PmSpace::new(1 << 20);
        for _ in 0..3 {
            s.write_u64(PmAddr::new(64), 9);
            s.write_line(PmAddr::new(64), &[1; 64]);
        }
        assert_eq!(s.touched_lines(), 1);
        s.write_u64(PmAddr::new(0), 1);
        assert_eq!(s.touched_lines(), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn capacity_enforced() {
        let mut s = PmSpace::new(128);
        s.write_u64(PmAddr::new(128), 1);
    }

    #[test]
    #[should_panic(expected = "unaligned")]
    fn unaligned_word_rejected() {
        let s = PmSpace::new(1 << 16);
        let _ = s.read_u64(PmAddr::new(3));
    }

    #[test]
    fn clone_is_snapshot() {
        let mut s = PmSpace::new(1 << 16);
        s.write_u64(PmAddr::new(0), 1);
        let snap = s.clone();
        s.write_u64(PmAddr::new(0), 2);
        assert_eq!(snap.read_u64(PmAddr::new(0)), 1);
        assert_eq!(s.read_u64(PmAddr::new(0)), 2);
    }

    /// Every byte of `[0, len)` plus the touched-line accounting.
    fn image(s: &PmSpace, len: usize) -> (Vec<u8>, usize, Vec<u64>) {
        let mut bytes = vec![0u8; len];
        s.read(PmAddr::new(0), &mut bytes);
        (bytes, s.touched_lines(), s.touched_line_addrs())
    }

    /// Copy-on-write isolation: after `prefault` and partial writes,
    /// writes through a clone (and a clone of that clone) leave the
    /// original's bytes and touched lines alone, and the reverse
    /// holds too — including pages and directories none of them had
    /// materialised before the clone.
    #[test]
    fn clones_are_copy_on_write_isolated() {
        let cap = DIR_SPAN * 2;
        let len = (DIR_SPAN + 2 * PAGE_BYTES as u64) as usize;
        let mut a = PmSpace::new(cap);
        a.prefault(0, 2 * PAGE_BYTES as u64);
        a.write(PmAddr::new(40), &[0x11; 100]); // partial lines 0..=2
        a.write_u64(PmAddr::new(PAGE_BYTES as u64 + 8), 5);
        let a0 = image(&a, len);

        let mut b = a.clone();
        assert_eq!(image(&b, len), a0, "a clone starts equal");
        b.write_u64(PmAddr::new(48), 0xB); // shared, touched line
        b.write(PmAddr::new(PAGE_BYTES as u64 - 4), &[0xBB; 16]); // straddles pages
        b.write_u64(PmAddr::new(DIR_SPAN + 64), 0xB); // fresh directory
        let b0 = image(&b, len);
        assert_eq!(
            image(&a, len),
            a0,
            "writes to a clone leak into the original"
        );
        assert_ne!(b0, a0);

        let mut c = b.clone();
        c.write_line(PmAddr::new(0), &[0xCC; 64]);
        c.write_u64(PmAddr::new(3 * PAGE_BYTES as u64), 0xC); // fresh page
        assert_eq!(image(&a, len), a0, "a clone of a clone leaks into the root");
        assert_eq!(
            image(&b, len),
            b0,
            "a clone of a clone leaks into its parent"
        );
        assert_eq!(c.touched_lines(), b0.1 + 1);

        // The reverse direction: the original and the middle clone
        // write after being cloned; their clones keep their bytes.
        let c0 = image(&c, len);
        a.write_line(PmAddr::new(64), &[0xAA; 64]);
        a.write_u64(PmAddr::new(DIR_SPAN + 128), 0xA);
        b.write_u64(PmAddr::new(0), 0xBB);
        assert_eq!(image(&c, len), c0, "writes to a parent leak into a clone");
        assert_eq!(a.read_u64(PmAddr::new(48)), 0x1111_1111_1111_1111);
        assert_eq!(b.read_u64(PmAddr::new(64)), 0x1111_1111_1111_1111);
        assert_eq!(a.touched_lines(), a0.1 + 1);
        assert_eq!(a.touched_line_addrs().len(), a.touched_lines());
    }
}
