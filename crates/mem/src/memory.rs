//! Sparse functional backing store.

use std::cell::Cell;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use crate::{page_offset, vpn, PAGE_BYTES};

/// Sentinel VPN that can never occur (`vpn(addr) = addr >> 12 < 2^52`).
const NO_PAGE: u64 = u64::MAX;

/// Entries of the direct-mapped VPN → slot cache in front of the index.
const RECENT: usize = 256;

/// The slot bit of a page in the frozen image: the other bits index
/// `SparseMemory::shared` instead of `SparseMemory::owned`.
const SHARED: u32 = 1 << 31;

/// One materialized page.
type Page = Box<[u8; PAGE_BYTES as usize]>;

/// Multiply-based hasher for VPN keys (Fibonacci hashing).
///
/// VPNs are small, well-distributed integers; SipHash's DoS resistance
/// buys nothing here and costs a large fraction of every simulated memory
/// access. One multiply by the 64-bit golden-ratio constant mixes the low
/// bits the `HashMap` actually uses.
#[derive(Debug, Default, Clone, Copy)]
pub struct VpnHasher(u64);

impl Hasher for VpnHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        // The multiply concentrates entropy in the high bits; HashMap
        // masks the low ones, so swap halves on the way out.
        self.0.rotate_left(32)
    }
}

/// The [`SparseMemory::recent`] entry `page` maps to: the high bits of a
/// Fibonacci hash, so that pages a power-of-two distance apart (a stack
/// top and a heap base) do not collide.
#[inline]
fn recent_index(page: u64) -> usize {
    (page.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - RECENT.trailing_zeros())) as usize
}

type VpnIndex = HashMap<u64, u32, BuildHasherDefault<VpnHasher>>;

/// A sparse, byte-addressable 64-bit memory.
///
/// Pages materialize (zero-filled) on first touch, so programs can use
/// widely separated regions (text at 4 KiB, heap at 1 MiB, a victim array at
/// 1 GiB) without cost. This is the *functional* store; all timing lives in
/// the cache hierarchy.
///
/// Layout: a VPN → slot index with a cheap multiplicative hasher, fronted
/// by a 256-entry direct-mapped cache of recent lookups, so accesses to
/// the pages a program is working in skip the index. A slot names either
/// a page this memory owns and writes in place, or a page of its *frozen
/// image*, which it shares with other memories and never writes.
/// 1-, 2-, 4- and 8-byte accesses inside one page are fixed-width copies;
/// only accesses straddling a 4 KiB boundary fall back to per-byte.
///
/// Copy-on-write: [`SparseMemory::freeze`] moves every owned page into the
/// frozen image without copying it; a clone shares the frozen pages (one
/// reference count each) and copies only the owned ones; the first write
/// to a shared page copies that one page into an owned page. A checkpoint
/// freezes its image, so a boot or a resume from it copies only the pages
/// it writes. A read or write of an owned page costs one recent-cache
/// probe and touches no reference count.
///
/// # Examples
///
/// ```
/// use specmpk_mem::SparseMemory;
///
/// let mut m = SparseMemory::new();
/// m.write_uint(0xFFFF_0000, 4, 0xABCD);
/// assert_eq!(m.read_uint(0xFFFF_0000, 4), 0xABCD);
/// assert_eq!(m.read_uint(0x0, 8), 0); // untouched memory reads zero
///
/// m.freeze();
/// let mut copy = m.clone(); // shares the page
/// copy.write_uint(0xFFFF_0000, 4, 7); // copies it
/// assert_eq!((m.read_uint(0xFFFF_0000, 4), copy.read_uint(0xFFFF_0000, 4)), (0xABCD, 7));
/// ```
#[derive(Debug, Clone)]
pub struct SparseMemory {
    index: VpnIndex,
    /// Pages this memory writes in place.
    owned: Vec<Page>,
    /// The frozen image: pages shared with every memory cloned from this
    /// one since it froze them. The `Arc` holds the moved `Box`, so
    /// freezing a page copies none of its bytes.
    shared: Vec<Arc<Page>>,
    /// Direct-mapped cache of `(vpn, slot)` lookups, `NO_PAGE` when empty,
    /// at [`recent_index`]. `Cell`s so the read path (`&self`) can refresh
    /// it; the simulator never shares one memory across threads (each
    /// parallel experiment cell owns its core), so losing `Sync` costs
    /// nothing.
    recent: Box<[Cell<(u64, u32)>; RECENT]>,
}

impl Default for SparseMemory {
    fn default() -> Self {
        Self::new()
    }
}

impl SparseMemory {
    /// Creates an empty memory.
    #[must_use]
    pub fn new() -> Self {
        SparseMemory {
            index: VpnIndex::default(),
            owned: Vec::new(),
            shared: Vec::new(),
            recent: Box::new(std::array::from_fn(|_| Cell::new((NO_PAGE, 0)))),
        }
    }

    /// The slot holding `page`, if materialized.
    #[inline]
    fn slot_of(&self, page: u64) -> Option<u32> {
        let recent = &self.recent[recent_index(page)];
        let (vpn, slot) = recent.get();
        if vpn == page {
            return Some(slot);
        }
        let slot = *self.index.get(&page)?;
        recent.set((page, slot));
        Some(slot)
    }

    /// The bytes of the page in `slot`.
    #[inline]
    fn bytes(&self, slot: u32) -> &[u8; PAGE_BYTES as usize] {
        if slot & SHARED == 0 {
            &self.owned[slot as usize]
        } else {
            self.shared_bytes(slot)
        }
    }

    /// [`SparseMemory::bytes`] of a shared page, out of line: the in-page
    /// read path then stays small enough for the compiler to inline.
    #[inline(never)]
    fn shared_bytes(&self, slot: u32) -> &[u8; PAGE_BYTES as usize] {
        &self.shared[(slot ^ SHARED) as usize]
    }

    /// The page holding `page`, if materialized.
    #[inline]
    fn page(&self, page: u64) -> Option<&[u8; PAGE_BYTES as usize]> {
        self.slot_of(page).map(|slot| self.bytes(slot))
    }

    /// The page holding `page`, made an owned page first if it is not one.
    #[inline]
    fn page_mut(&mut self, page: u64) -> &mut [u8; PAGE_BYTES as usize] {
        let slot = match self.slot_of(page) {
            Some(slot) if slot & SHARED == 0 => slot,
            found => self.own(page, found),
        };
        &mut self.owned[slot as usize]
    }

    /// Gives `page` an owned page, returning its slot: a copy of the
    /// shared page in `found`, or a zero-filled page if there is none. Out
    /// of line and cold: it runs once per page and owner, so the write path
    /// keeps only the slot test.
    #[cold]
    fn own(&mut self, page: u64, found: Option<u32>) -> u32 {
        let bytes = match found {
            Some(shared) => Page::clone(&self.shared[(shared ^ SHARED) as usize]),
            None => Box::new([0; PAGE_BYTES as usize]),
        };
        let slot = self.next_owned_slot();
        self.owned.push(bytes);
        self.index.insert(page, slot);
        self.recent[recent_index(page)].set((page, slot));
        slot
    }

    /// The slot the next owned page gets.
    fn next_owned_slot(&self) -> u32 {
        u32::try_from(self.owned.len()).ok().filter(|&s| s < SHARED).expect("fewer than 2^31 pages")
    }

    /// Moves every owned page into the frozen image, so that clones share
    /// it instead of copying it, and drops the shared pages this memory
    /// has replaced with its own. Copies no page bytes: a page's box moves
    /// behind an `Arc`. The image holds the pages in ascending-VPN order,
    /// the order [`SparseMemory::restore_snapshot`] lays them out in.
    pub fn freeze(&mut self) {
        let mut owned: Vec<Option<Page>> =
            std::mem::take(&mut self.owned).into_iter().map(Some).collect();
        let mut shared: Vec<Option<Arc<Page>>> =
            std::mem::take(&mut self.shared).into_iter().map(Some).collect();
        for (vpn, slot) in self.sorted_slots() {
            let page = if slot & SHARED == 0 {
                owned[slot as usize].take().map(Arc::new)
            } else {
                shared[(slot ^ SHARED) as usize].take()
            };
            self.index.insert(vpn, SHARED | self.shared.len() as u32);
            self.shared.push(page.expect("each slot is indexed once"));
        }
        self.recent.fill(Cell::new((NO_PAGE, 0)));
    }

    /// Every `(vpn, slot)` of the index, in ascending-VPN order.
    fn sorted_slots(&self) -> Vec<(u64, u32)> {
        let mut slots: Vec<(u64, u32)> = self.index.iter().map(|(&v, &s)| (v, s)).collect();
        slots.sort_unstable_by_key(|&(vpn, _)| vpn);
        slots
    }

    /// Reads one byte (zero if the page was never written).
    #[must_use]
    #[inline]
    pub fn read_byte(&self, addr: u64) -> u8 {
        self.page(vpn(addr)).map_or(0, |p| p[page_offset(addr) as usize])
    }

    /// Writes one byte.
    pub fn write_byte(&mut self, addr: u64, value: u8) {
        self.page_mut(vpn(addr))[page_offset(addr) as usize] = value;
    }

    /// Reads a little-endian unsigned integer of `width` bytes (1 to 8).
    ///
    /// Accesses may straddle page boundaries.
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or greater than 8.
    #[must_use]
    #[inline]
    pub fn read_uint(&self, addr: u64, width: u64) -> u64 {
        match width {
            8 => self.read_fixed::<8>(addr),
            4 => self.read_fixed::<4>(addr),
            2 => self.read_fixed::<2>(addr),
            1 => self.read_fixed::<1>(addr),
            _ => self.read_bytewise(addr, width),
        }
    }

    /// [`SparseMemory::read_uint`] of a compile-time width: one page
    /// lookup and an `N`-byte copy unless the access straddles a page.
    #[inline]
    fn read_fixed<const N: usize>(&self, addr: u64) -> u64 {
        let offset = page_offset(addr) as usize;
        if offset + N > PAGE_BYTES as usize {
            return self.read_bytewise(addr, N as u64);
        }
        let Some(page) = self.page(vpn(addr)) else { return 0 };
        let mut buf = [0u8; 8];
        buf[..N].copy_from_slice(&page[offset..offset + N]);
        u64::from_le_bytes(buf)
    }

    fn read_bytewise(&self, addr: u64, width: u64) -> u64 {
        assert!((1..=8).contains(&width), "width {width} out of range");
        (0..width).fold(0, |v, i| v | u64::from(self.read_byte(addr + i)) << (8 * i))
    }

    /// Reads a little-endian `u64` — the load-path width the pipeline
    /// issues most, with no per-access allocation.
    #[must_use]
    #[inline]
    pub fn read_u64(&self, addr: u64) -> u64 {
        self.read_uint(addr, 8)
    }

    /// Writes a little-endian unsigned integer of `width` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or greater than 8.
    #[inline]
    pub fn write_uint(&mut self, addr: u64, width: u64, value: u64) {
        match width {
            8 => self.write_fixed::<8>(addr, value),
            4 => self.write_fixed::<4>(addr, value),
            2 => self.write_fixed::<2>(addr, value),
            1 => self.write_fixed::<1>(addr, value),
            _ => self.write_bytewise(addr, width, value),
        }
    }

    /// [`SparseMemory::write_uint`] of a compile-time width.
    #[inline]
    fn write_fixed<const N: usize>(&mut self, addr: u64, value: u64) {
        let offset = page_offset(addr) as usize;
        if offset + N > PAGE_BYTES as usize {
            return self.write_bytewise(addr, N as u64, value);
        }
        self.page_mut(vpn(addr))[offset..offset + N].copy_from_slice(&value.to_le_bytes()[..N]);
    }

    fn write_bytewise(&mut self, addr: u64, width: u64, value: u64) {
        assert!((1..=8).contains(&width), "width {width} out of range");
        for i in 0..width {
            self.write_byte(addr + i, (value >> (8 * i)) as u8);
        }
    }

    /// Copies `bytes` into memory starting at `addr`, one page chunk at a
    /// time.
    pub fn write_bytes(&mut self, addr: u64, bytes: &[u8]) {
        let mut addr = addr;
        let mut rest = bytes;
        while !rest.is_empty() {
            let offset = page_offset(addr) as usize;
            let chunk = rest.len().min(PAGE_BYTES as usize - offset);
            self.page_mut(vpn(addr))[offset..offset + chunk].copy_from_slice(&rest[..chunk]);
            addr += chunk as u64;
            rest = &rest[chunk..];
        }
    }

    /// Fills `buf` with the bytes starting at `addr` (untouched memory
    /// reads zero), one page chunk at a time, without allocating.
    pub fn read_into(&self, addr: u64, buf: &mut [u8]) {
        let mut addr = addr;
        let mut rest = &mut *buf;
        while !rest.is_empty() {
            let offset = page_offset(addr) as usize;
            let chunk = rest.len().min(PAGE_BYTES as usize - offset);
            match self.page(vpn(addr)) {
                Some(page) => rest[..chunk].copy_from_slice(&page[offset..offset + chunk]),
                None => rest[..chunk].fill(0),
            }
            addr += chunk as u64;
            rest = &mut rest[chunk..];
        }
    }

    /// Number of pages that have been materialized.
    #[must_use]
    pub fn resident_pages(&self) -> usize {
        self.index.len()
    }

    /// Serializes every materialized page for a checkpoint as
    /// `[vpn, hex-payload]` pairs in ascending-VPN order. Pages only
    /// materialize on writes, so this is exactly the dirty set; emitting
    /// it sorted makes the snapshot byte-deterministic (the slab order is
    /// insertion-dependent, the VPN order is not).
    #[must_use]
    pub fn snapshot(&self) -> specmpk_trace::Json {
        use specmpk_trace::Json;
        let pages: Vec<Json> = self
            .sorted_slots()
            .into_iter()
            .map(|(vpn, slot)| {
                let data = self.bytes(slot);
                let mut hex = String::with_capacity(data.len() * 2);
                for b in data.iter() {
                    hex.push(char::from_digit(u32::from(b >> 4), 16).expect("nibble"));
                    hex.push(char::from_digit(u32::from(b & 0xF), 16).expect("nibble"));
                }
                Json::from(vec![Json::hex(vpn), Json::from(hex)])
            })
            .collect();
        Json::object().with("pages", pages)
    }

    /// Replaces the whole memory image with the one captured by
    /// [`SparseMemory::snapshot`]. Pages are re-materialized in snapshot
    /// (ascending-VPN) order, so two restores of the same snapshot are
    /// identical down to slab layout.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed field.
    pub fn restore_snapshot(&mut self, snap: &specmpk_trace::Json) -> Result<(), String> {
        let pages = snap.get("pages").and_then(|j| j.as_arr()).ok_or("memory: bad pages array")?;
        self.index = VpnIndex::default();
        self.owned = Vec::with_capacity(pages.len());
        self.shared = Vec::new();
        self.recent.fill(Cell::new((NO_PAGE, 0)));
        for entry in pages {
            let row = entry.as_arr().filter(|r| r.len() == 2).ok_or("memory: malformed page")?;
            let vpn = row[0].as_hex_u64().ok_or("memory: bad page vpn")?;
            let hex = row[1].as_str().ok_or("memory: bad page payload")?;
            if hex.len() != 2 * PAGE_BYTES as usize {
                return Err(format!("memory: page {vpn:#x} payload has {} chars", hex.len()));
            }
            let mut data: Page = Box::new([0; PAGE_BYTES as usize]);
            let nibbles = hex.as_bytes();
            for (i, b) in data.iter_mut().enumerate() {
                let hi = (nibbles[2 * i] as char).to_digit(16);
                let lo = (nibbles[2 * i + 1] as char).to_digit(16);
                match (hi, lo) {
                    (Some(hi), Some(lo)) => *b = (hi as u8) << 4 | lo as u8,
                    _ => return Err(format!("memory: page {vpn:#x} has non-hex payload")),
                }
            }
            if self.index.insert(vpn, self.next_owned_slot()).is_some() {
                return Err(format!("memory: duplicate page {vpn:#x}"));
            }
            self.owned.push(data);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_memory_reads_zero() {
        let m = SparseMemory::new();
        assert_eq!(m.read_uint(0x1234, 8), 0);
        assert_eq!(m.resident_pages(), 0);
    }

    #[test]
    fn little_endian_round_trip() {
        let mut m = SparseMemory::new();
        m.write_uint(0x100, 8, 0x1122_3344_5566_7788);
        assert_eq!(m.read_byte(0x100), 0x88);
        assert_eq!(m.read_byte(0x107), 0x11);
        assert_eq!(m.read_uint(0x100, 8), 0x1122_3344_5566_7788);
        assert_eq!(m.read_u64(0x100), 0x1122_3344_5566_7788);
        assert_eq!(m.read_uint(0x100, 4), 0x5566_7788);
        assert_eq!(m.read_uint(0x104, 2), 0x3344);
    }

    #[test]
    fn cross_page_access() {
        let mut m = SparseMemory::new();
        let addr = PAGE_BYTES - 4; // straddles the first page boundary
        m.write_uint(addr, 8, 0xAABB_CCDD_EEFF_0011);
        assert_eq!(m.read_uint(addr, 8), 0xAABB_CCDD_EEFF_0011);
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn byte_slices_round_trip() {
        let mut m = SparseMemory::new();
        m.write_bytes(0x42, &[1, 2, 3, 4, 5]);
        let mut buf = [0u8; 5];
        m.read_into(0x42, &mut buf);
        assert_eq!(buf, [1, 2, 3, 4, 5]);
    }

    #[test]
    fn bulk_copies_straddle_pages() {
        let mut m = SparseMemory::new();
        let base = 2 * PAGE_BYTES - 3;
        let data: Vec<u8> = (0..10u8).collect();
        m.write_bytes(base, &data);
        let mut buf = [0xFFu8; 10];
        m.read_into(base, &mut buf);
        assert_eq!(&buf[..], &data[..]);
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn read_into_zero_fills_untouched_pages() {
        let mut m = SparseMemory::new();
        m.write_byte(0x0, 7); // first page resident, second untouched
        let mut buf = [0xFFu8; 16];
        m.read_into(PAGE_BYTES - 8, &mut buf);
        assert_eq!(buf, [0u8; 16]);
    }

    #[test]
    fn recent_page_cache_tracks_colliding_pages() {
        // Find two pages that share a recent-cache entry, then alternate.
        let a = 0x10u64;
        let b = (a + 1..).find(|&p| recent_index(p) == recent_index(a)).unwrap();
        let mut m = SparseMemory::new();
        m.write_uint(a * PAGE_BYTES, 8, 1);
        m.write_uint(b * PAGE_BYTES, 8, 2);
        for i in 0..4 {
            assert_eq!(m.read_u64(a * PAGE_BYTES), 1 + 10 * i);
            assert_eq!(m.read_u64(b * PAGE_BYTES), 2);
            m.write_uint(a * PAGE_BYTES, 8, 11 + 10 * i);
        }
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn every_width_matches_a_bytewise_reference() {
        let bytes: Vec<u8> = (1..=16).collect();
        let value = 0xF0E0_D0C0_B0A0_9080u64;
        // One access inside a page, one straddling the first boundary.
        for base in [0x100, PAGE_BYTES - 3] {
            for width in 1..=8 {
                let mut m = SparseMemory::new();
                m.write_bytes(base, &bytes);
                let expected = (0..width).fold(0, |v, i| v | u64::from(bytes[i]) << (8 * i));
                assert_eq!(m.read_uint(base, width as u64), expected, "{base:#x}/{width}");
                m.write_uint(base, width as u64, value);
                let mut out = [0u8; 16];
                m.read_into(base, &mut out);
                assert_eq!(out[..width], value.to_le_bytes()[..width], "{base:#x}/{width}");
                assert_eq!(out[width..], bytes[width..], "{base:#x}/{width}");
            }
        }
    }

    #[test]
    fn last_page_cache_tracks_interleaved_pages() {
        let mut m = SparseMemory::new();
        let a = 0x1000;
        let b = 0x8_0000;
        m.write_uint(a, 8, 1);
        m.write_uint(b, 8, 2);
        for _ in 0..4 {
            assert_eq!(m.read_u64(a), 1);
            assert_eq!(m.read_u64(b), 2);
        }
        m.write_uint(a, 8, 3);
        assert_eq!(m.read_u64(a), 3);
        assert_eq!(m.read_u64(b), 2);
    }

    #[test]
    fn clone_is_independent() {
        let mut m = SparseMemory::new();
        m.write_uint(0x500, 8, 42);
        let snapshot = m.clone();
        m.write_uint(0x500, 8, 99);
        assert_eq!(snapshot.read_u64(0x500), 42);
        assert_eq!(m.read_u64(0x500), 99);
    }

    /// Pages 3, 5 and 7, written in the order 7, 3, 5, page `p` filled
    /// with byte `p`.
    fn three_pages() -> SparseMemory {
        let mut m = SparseMemory::new();
        for p in [7u8, 3, 5] {
            m.write_bytes(u64::from(p) * PAGE_BYTES, &[p; PAGE_BYTES as usize]);
        }
        m
    }

    fn frozen_image() -> SparseMemory {
        let mut m = three_pages();
        m.freeze();
        m
    }

    /// Whether `a` and `b` hold the very same shared page allocations.
    fn shares_every_page(a: &SparseMemory, b: &SparseMemory) -> bool {
        a.shared.len() == b.shared.len()
            && a.shared.iter().zip(&b.shared).all(|(x, y)| Arc::ptr_eq(x, y))
    }

    #[test]
    fn freezing_moves_pages_and_clones_share_them() {
        let mut m = three_pages();
        let mut before: Vec<*const u8> = m.owned.iter().map(|p| p.as_ptr()).collect();
        m.freeze();
        // A capture: every page moved into the image, none copied, and the
        // image holds them in ascending-VPN order.
        assert!(m.owned.is_empty());
        let mut after: Vec<*const u8> = m.shared.iter().map(|p| p.as_ptr()).collect();
        assert_eq!(m.shared.iter().map(|p| p[0]).collect::<Vec<_>>(), [3, 5, 7]);
        before.sort_unstable();
        after.sort_unstable();
        assert_eq!(before, after, "freezing must move the page buffers");
        // A boot, a resume or a checkpoint clone: shares every page.
        let boot = m.clone();
        assert!(boot.owned.is_empty() && shares_every_page(&boot, &m));
        assert_eq!(boot.snapshot().dump(), m.snapshot().dump());
    }

    #[test]
    fn a_shared_page_is_copied_once_per_owner() {
        let image = frozen_image();
        let (mut a, mut b) = (image.clone(), image.clone());
        for i in 0..100 {
            a.write_uint(5 * PAGE_BYTES + 8 * i, 8, i);
        }
        assert_eq!(a.owned.len(), 1, "a hundred writes to one page copy it once");
        b.write_byte(5 * PAGE_BYTES + 1, 0xEE);
        b.write_byte(3 * PAGE_BYTES, 0xDD);
        b.write_byte(9 * PAGE_BYTES, 0xCC);
        assert_eq!(b.owned.len(), 3, "two copies and one new page");
        // The copy starts from the shared bytes; every owner reads its own.
        assert_eq!(a.read_u64(5 * PAGE_BYTES + 8 * 99), 99);
        assert_eq!(a.read_byte(5 * PAGE_BYTES + 4095), 5);
        assert_eq!((b.read_byte(5 * PAGE_BYTES), b.read_byte(5 * PAGE_BYTES + 1)), (5, 0xEE));
        assert_eq!((image.read_byte(5 * PAGE_BYTES + 1), image.read_byte(9 * PAGE_BYTES)), (5, 0));
        assert_eq!((a.resident_pages(), b.resident_pages(), image.resident_pages()), (3, 4, 3));
        assert!(shares_every_page(&a, &image) && shares_every_page(&b, &image));
    }

    #[test]
    fn a_recapture_adds_only_the_pages_written_since() {
        let image = frozen_image();
        let mut resumed = image.clone();
        resumed.write_byte(5 * PAGE_BYTES, 0xEE);
        resumed.write_byte(9 * PAGE_BYTES, 0xCC);
        resumed.freeze();
        // Pages 3 and 7 are still the image's; 5 (copied) and 9 (new) are
        // the two written, and the replaced copy of 5 is dropped.
        let kept: Vec<bool> = resumed
            .shared
            .iter()
            .map(|page| image.shared.iter().any(|old| Arc::ptr_eq(old, page)))
            .collect();
        assert_eq!(kept, [true, false, true, false], "pages 3, 5, 7, 9");
        assert!(resumed.owned.is_empty());
        assert_eq!(
            (resumed.read_byte(5 * PAGE_BYTES), resumed.read_byte(5 * PAGE_BYTES + 1)),
            (0xEE, 5)
        );
        assert_eq!(image.read_byte(5 * PAGE_BYTES), 5);
        // Restoring the re-frozen image's snapshot gives the same bytes.
        let mut restored = SparseMemory::new();
        restored.restore_snapshot(&resumed.snapshot()).unwrap();
        assert_eq!(restored.snapshot().dump(), resumed.snapshot().dump());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn zero_width_read_panics() {
        let _ = SparseMemory::new().read_uint(0, 0);
    }

    #[test]
    fn snapshot_round_trip_and_insertion_order_independence() {
        // Two images with identical contents written in different page
        // order must snapshot to identical bytes, and restore exactly.
        let mut a = SparseMemory::new();
        a.write_uint(0x1000, 8, 0xDEAD_BEEF_0123_4567);
        a.write_uint(0x9000, 8, 42);
        let mut b = SparseMemory::new();
        b.write_uint(0x9000, 8, 42);
        b.write_uint(0x1000, 8, 0xDEAD_BEEF_0123_4567);
        let snap = a.snapshot();
        assert_eq!(snap.dump(), b.snapshot().dump());

        let mut restored = SparseMemory::new();
        restored.restore_snapshot(&snap).unwrap();
        assert_eq!(restored.read_u64(0x1000), 0xDEAD_BEEF_0123_4567);
        assert_eq!(restored.read_u64(0x9000), 42);
        assert_eq!(restored.resident_pages(), 2);
        // Re-snapshotting the restored image reproduces the bytes.
        assert_eq!(restored.snapshot().dump(), snap.dump());
    }
}
