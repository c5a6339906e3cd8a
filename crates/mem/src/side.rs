//! Chunked address-space bookkeeping and side metadata.
//!
//! The backing store stays one flat word array (objects may straddle
//! chunk boundaries and the copy kernels want contiguous slices), but
//! bookkeeping is chunked: the address space is divided into fixed
//! [`CHUNK_WORDS`]-sized chunks, each optionally *owned* by the space
//! whose reservation covers it, and a side-metadata layer hosts the
//! per-word collector state that changes under an object:
//!
//! * a **dirty bitmap** (1 bit per word) backing the object-marking
//!   write barrier's deduplication filter,
//! * a **mark bitmap** (1 bit per word) for large-object marking,
//! * a **scratch bitmap** (1 bit per word) the SSB dense filter borrows
//!   transiently.
//!
//! An object's immutable identity — kind, length, pointer mask and
//! allocation site — is its [`Header`](crate::Header); only mutable GC
//! state lives here. Keeping that state out of headers makes the barrier
//! filter a single branch-free test-and-set and makes clearing a
//! `memset`-style word sweep ([`SideBitmap::bulk_clear`]) instead of a
//! per-object header walk. This follows the chunked-heap + side-metadata
//! idiom of production collectors (mmtk-core's `util/heap` and
//! `util/metadata/side_metadata`).
//!
//! Storage is plain `vec![0; n]` arrays of `u64`: a zeroed allocation
//! commits no page until its first write, so building a heap costs what
//! the program touches, not what the collector reserves (0.375 bytes of
//! side metadata per reserved heap word) — provided the allocator hands
//! out a fresh mapping, which the heap word array and the bitmaps make
//! sure of (see `FRESH_MAPPING_BYTES` below). Bulk clears keep the
//! property: collectors sweep a space's *used extent*, never its whole
//! reservation, and debug builds check that the tail beyond it is
//! already clear.

use crate::{Addr, SpaceRange};

/// Smallest request glibc *always* serves with a fresh anonymous mapping:
/// one page past its `DEFAULT_MMAP_THRESHOLD_MAX` (32 MiB on 64-bit).
///
/// `calloc` skips the clear only for untouched pages. glibc raises its
/// dynamic mmap threshold to the size of the largest mapped chunk freed so
/// far, capped at that constant; a later, smaller `calloc` is then carved
/// from the brk heap, and a recycled chunk is cleared in full — once a
/// process has dropped its first heap, the next one's whole reservation
/// turns resident. A request above the cap can never take that path, so
/// the heap word array and the side bitmaps ask for at least this much
/// and keep only the length they need; the untouched tail costs address
/// space, not memory. Harmless on allocators without the rule.
const FRESH_MAPPING_BYTES: usize = (32 << 20) + 4096;

/// `n` zeroed words, requested at least [`FRESH_MAPPING_BYTES`] long and
/// truncated to `n`.
pub(crate) fn fresh_zeroed_words(n: usize) -> Vec<u64> {
    let mut words = vec![0; n.max(FRESH_MAPPING_BYTES.div_ceil(crate::WORD_BYTES))];
    words.truncate(n);
    words
}

/// Words per chunk (2¹⁵ words = 256 KiB of simulated heap).
pub const CHUNK_WORDS: usize = 1 << 15;

/// Bytes of simulated heap covered by one chunk.
pub const CHUNK_BYTES: usize = CHUNK_WORDS * crate::WORD_BYTES;

/// Ownership map of the chunked address space.
///
/// Each chunk is either unowned or tagged with the label of the space
/// whose reservation first covered any of its words. Ownership is
/// bookkeeping at chunk granularity: a boundary chunk shared by two
/// reservations keeps the first owner. Spaces tag their reservations
/// via [`Memory::reserve_owned`](crate::Memory::reserve_owned).
#[derive(Debug, Clone)]
pub struct ChunkMap {
    owners: Vec<Option<&'static str>>,
    /// Chunks owned per label, kept by [`assign`](ChunkMap::assign) so a
    /// heap census reads counts instead of rescanning every chunk.
    counts: Vec<(&'static str, usize)>,
}

impl ChunkMap {
    /// Builds the map for an address space of `capacity_words` words.
    /// The last chunk may be partial.
    pub(crate) fn new(capacity_words: usize) -> ChunkMap {
        ChunkMap {
            owners: vec![None; capacity_words.div_ceil(CHUNK_WORDS)],
            counts: Vec::new(),
        }
    }

    /// The chunk index covering `addr`.
    #[inline]
    pub fn chunk_of(addr: Addr) -> usize {
        addr.index() / CHUNK_WORDS
    }

    /// Total number of chunks (owned or not).
    #[inline]
    pub fn len(&self) -> usize {
        self.owners.len()
    }

    /// Whether the map covers no chunks.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.owners.is_empty()
    }

    /// The owner label of the chunk covering `addr`, if any.
    #[inline]
    pub fn owner_of(&self, addr: Addr) -> Option<&'static str> {
        self.owners[Self::chunk_of(addr)]
    }

    /// Number of chunks currently owned by some space.
    pub fn owned_chunks(&self) -> usize {
        self.counts.iter().map(|&(_, n)| n).sum()
    }

    /// Number of chunks owned by the space labelled `owner`.
    pub fn owned_chunks_by(&self, owner: &str) -> usize {
        let entry = self.counts.iter().find(|(o, _)| *o == owner);
        entry.map_or(0, |&(_, n)| n)
    }

    /// Tags every chunk overlapping `range` with `owner`. Chunks that
    /// already have an owner keep it (first reservation wins).
    pub(crate) fn assign(&mut self, range: SpaceRange, owner: &'static str) {
        if range.end <= range.start {
            return;
        }
        let first = range.start.index() / CHUNK_WORDS;
        let last = (range.end.index() - 1) / CHUNK_WORDS;
        let mut claimed = 0;
        for slot in self.owners[first..=last].iter_mut().filter(|o| o.is_none()) {
            *slot = Some(owner);
            claimed += 1;
        }
        match self.counts.iter_mut().find(|(o, _)| *o == owner) {
            Some((_, n)) => *n += claimed,
            None => self.counts.push((owner, claimed)),
        }
    }
}

/// A side bitmap holding one metadata bit per heap word.
///
/// One bitmap word covers 64 consecutive heap words, so adjacent
/// reservations can share edge bitmap words;
/// [`bulk_clear`](SideBitmap::bulk_clear) mask-edits those partial edge
/// words and only `memset`s the fully covered interior.
#[derive(Debug, Clone)]
pub struct SideBitmap {
    words: Vec<u64>,
}

impl SideBitmap {
    /// Builds an all-clear bitmap covering `capacity_words` heap words.
    pub(crate) fn new(capacity_words: usize) -> SideBitmap {
        let n = capacity_words.div_ceil(64);
        // A fresh mapping, like the word array: a bitmap `calloc` carves
        // from a recycled brk chunk is cleared — made resident — in full (9 MB each for a 192 MB budget), and
        // whether it is recycled depends on malloc order elsewhere.
        SideBitmap {
            words: fresh_zeroed_words(n),
        }
    }

    #[inline]
    fn locate(addr: Addr) -> (usize, u64) {
        let i = addr.index();
        (i / 64, 1u64 << (i % 64))
    }

    /// Reads the bit for `addr`.
    #[inline]
    pub fn get(&self, addr: Addr) -> bool {
        let (w, m) = Self::locate(addr);
        self.words[w] & m != 0
    }

    /// Sets the bit for `addr`.
    #[inline]
    pub fn set(&mut self, addr: Addr) {
        let (w, m) = Self::locate(addr);
        self.words[w] |= m;
    }

    /// Clears the bit for `addr`.
    #[inline]
    pub fn clear(&mut self, addr: Addr) {
        let (w, m) = Self::locate(addr);
        self.words[w] &= !m;
    }

    /// Sets the bit for `addr` and reports whether it was already set.
    ///
    /// This is the branch-free barrier filter: one load, an OR, a
    /// store and a bit test — no conditional anywhere.
    #[inline]
    pub fn set_returning_old(&mut self, addr: Addr) -> bool {
        let (w, m) = Self::locate(addr);
        let word = &mut self.words[w];
        let old = *word;
        *word = old | m;
        old & m != 0
    }

    /// Clears the bits of a space reserved over `range` and used up to
    /// `frontier`, and returns the number of heap words covered.
    ///
    /// Only the used extent `[range.start, frontier)` is swept, so a
    /// roomy reservation costs (and commits) nothing: bits are only ever
    /// set on allocated objects, which leaves the tail beyond the
    /// frontier clear already — debug builds check that it is. Fully
    /// covered bitmap words are zeroed wholesale (the `memset`-style
    /// sweep); the partial first and last words are mask-edited so bits
    /// belonging to neighbouring reservations survive.
    ///
    /// # Panics
    ///
    /// Panics if `frontier` lies outside `range`.
    pub fn bulk_clear(&mut self, range: SpaceRange, frontier: Addr) -> u64 {
        let (used, unused) = range.split_at(frontier - range.start);
        debug_assert!(!self.any_set(unused), "stale side bit beyond {frontier}");
        let Some((sw, ew, head, tail)) = Self::span(used) else {
            return 0;
        };
        if sw == ew {
            self.words[sw] &= !(head & tail);
        } else {
            self.words[sw] &= !head;
            self.words[sw + 1..ew].fill(0);
            self.words[ew] &= !tail;
        }
        used.words() as u64
    }

    /// Whether any bit is set for an address in `range` — a read-only
    /// scan, so it commits no untouched page.
    pub fn any_set(&self, range: SpaceRange) -> bool {
        let Some((sw, ew, head, tail)) = Self::span(range) else {
            return false;
        };
        if sw == ew {
            return self.words[sw] & head & tail != 0;
        }
        self.words[sw] & head != 0
            || self.words[ew] & tail != 0
            || self.words[sw + 1..ew].iter().any(|&w| w != 0)
    }

    /// The first and last bitmap words covering `range` with the masks
    /// of its bits in each, or `None` for an empty range.
    fn span(range: SpaceRange) -> Option<(usize, usize, u64, u64)> {
        if range.end <= range.start {
            return None;
        }
        let (s, last) = (range.start.index(), range.end.index() - 1);
        let head = !0u64 << (s % 64);
        let tail = !0u64 >> (63 - last % 64);
        Some((s / 64, last / 64, head, tail))
    }

    /// Drains the set bits in `[lo, hi]` into `out` in ascending
    /// address order, clearing them as it goes.
    ///
    /// Scratch-only: the full bitmap words covering the span are zeroed
    /// wholesale, so the caller must own every bit in the edge words —
    /// which the SSB filter does, because the scratch bitmap is empty
    /// outside the span it just populated.
    pub fn drain_sorted(&mut self, lo: Addr, hi: Addr, out: &mut Vec<Addr>) {
        debug_assert!(lo <= hi);
        for w in lo.index() / 64..=hi.index() / 64 {
            let mut bits = std::mem::take(&mut self.words[w]);
            while bits != 0 {
                let bit = bits.trailing_zeros() as usize;
                out.push(Addr::new((w * 64 + bit) as u32));
                bits &= bits - 1;
            }
        }
    }
}

/// The full side-metadata layer owned by a
/// [`Memory`](crate::Memory).
#[derive(Debug, Clone)]
pub(crate) struct SideMetadata {
    /// Write-barrier dedup bits, bulk-cleared when a space is vacated.
    pub(crate) dirty: SideBitmap,
    /// Large-object mark bits, bulk-cleared when marking begins.
    pub(crate) mark: SideBitmap,
    /// SSB dense-filter scratch, cleared by the filter after each use.
    pub(crate) scratch: SideBitmap,
    /// Running total of heap words covered by dirty/mark bulk clears.
    pub(crate) cleared_words: u64,
}

impl SideMetadata {
    pub(crate) fn new(capacity_words: usize) -> SideMetadata {
        SideMetadata {
            dirty: SideBitmap::new(capacity_words),
            mark: SideBitmap::new(capacity_words),
            scratch: SideBitmap::new(capacity_words),
            cleared_words: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn range(start: u32, end: u32) -> SpaceRange {
        SpaceRange {
            start: Addr::new(start),
            end: Addr::new(end),
        }
    }

    #[test]
    fn chunk_map_tags_overlapping_chunks_first_wins() {
        let mut map = ChunkMap::new(3 * CHUNK_WORDS + 10);
        assert_eq!(map.len(), 4, "partial last chunk still counts");
        assert_eq!(map.owned_chunks(), 0);
        map.assign(range(1, CHUNK_WORDS as u32 / 2), "nursery");
        map.assign(
            range(CHUNK_WORDS as u32 / 2, 3 * CHUNK_WORDS as u32),
            "tenured",
        );
        assert_eq!(map.owner_of(Addr::new(1)), Some("nursery"));
        assert_eq!(
            map.owner_of(Addr::new(CHUNK_WORDS as u32 - 1)),
            Some("nursery"),
            "boundary chunk keeps its first owner"
        );
        assert_eq!(map.owner_of(Addr::new(CHUNK_WORDS as u32)), Some("tenured"));
        assert_eq!(map.owned_chunks(), 3);
        assert_eq!(map.owned_chunks_by("nursery"), 1);
        assert_eq!(map.owned_chunks_by("tenured"), 2);
        assert_eq!(map.owned_chunks_by("los"), 0);
        assert_eq!(map.owner_of(Addr::new(3 * CHUNK_WORDS as u32 + 5)), None);
    }

    #[test]
    fn bitmap_round_trip_across_chunk_boundary() {
        let mut bm = SideBitmap::new(2 * CHUNK_WORDS);
        let edge = CHUNK_WORDS as u32;
        for a in [edge - 1, edge, edge + 1] {
            let a = Addr::new(a);
            assert!(!bm.get(a));
            bm.set(a);
            assert!(bm.get(a));
        }
        bm.clear(Addr::new(edge));
        assert!(!bm.get(Addr::new(edge)));
        assert!(bm.get(Addr::new(edge - 1)) && bm.get(Addr::new(edge + 1)));
    }

    #[test]
    fn set_returning_old_reports_prior_state() {
        let mut bm = SideBitmap::new(256);
        assert!(!bm.set_returning_old(Addr::new(77)));
        assert!(bm.set_returning_old(Addr::new(77)));
        assert!(bm.get(Addr::new(77)));
    }

    #[test]
    fn bulk_clear_mask_edits_shared_edge_words() {
        let mut bm = SideBitmap::new(512);
        // Bits on both sides of a range whose edges split bitmap words.
        for i in 60..200u32 {
            bm.set(Addr::new(i));
        }
        let cleared = bm.bulk_clear(range(70, 190), Addr::new(190));
        assert_eq!(cleared, 120);
        for i in 60..70u32 {
            assert!(bm.get(Addr::new(i)), "bit {i} below the range survives");
        }
        for i in 70..190u32 {
            assert!(!bm.get(Addr::new(i)), "bit {i} inside the range cleared");
        }
        for i in 190..200u32 {
            assert!(bm.get(Addr::new(i)), "bit {i} above the range survives");
        }
    }

    #[test]
    fn bulk_clear_within_one_bitmap_word() {
        let mut bm = SideBitmap::new(128);
        for i in 64..80u32 {
            bm.set(Addr::new(i));
        }
        assert_eq!(bm.bulk_clear(range(68, 72), Addr::new(72)), 4);
        assert!(bm.get(Addr::new(67)) && bm.get(Addr::new(72)));
        assert!(!bm.get(Addr::new(68)) && !bm.get(Addr::new(71)));
        assert_eq!(
            bm.bulk_clear(range(5, 5), Addr::new(5)),
            0,
            "empty range is a no-op"
        );
    }

    #[test]
    fn any_set_sees_exactly_the_bits_in_range() {
        let mut bm = SideBitmap::new(512);
        bm.set(Addr::new(69));
        bm.set(Addr::new(300));
        assert!(!bm.any_set(range(70, 300)), "edge bits are outside");
        assert!(bm.any_set(range(69, 70)) && bm.any_set(range(70, 301)));
        assert!(bm.any_set(range(0, 512)) && !bm.any_set(range(301, 512)));
        assert!(!bm.any_set(range(69, 69)), "empty range holds no bit");
        bm.set(Addr::new(200));
        assert!(bm.any_set(range(70, 300)), "interior words are scanned");
    }

    #[test]
    fn drain_sorted_emits_ascending_and_clears() {
        let mut bm = SideBitmap::new(1024);
        for a in [900u32, 3, 64, 65, 700] {
            bm.set(Addr::new(a));
        }
        let mut out = Vec::new();
        bm.drain_sorted(Addr::new(3), Addr::new(900), &mut out);
        let got: Vec<u32> = out.iter().map(|a| a.raw()).collect();
        assert_eq!(got, vec![3, 64, 65, 700, 900]);
        assert!(!bm.get(Addr::new(64)), "drain clears the bits");
    }
}
