use crate::side::{fresh_zeroed_words, ChunkMap, SideBitmap, SideMetadata};
use crate::{Addr, Header, MemError, SiteId, SpaceRange};

/// Size of a machine word, in bytes. The simulation models a 64-bit machine
/// (the paper's DEC Alpha 21064 is 64-bit).
pub const WORD_BYTES: usize = 8;

/// In debug builds, collectors fill vacated spaces with this pattern so
/// that a stale pointer dereference fails loudly instead of reading
/// garbage. (Read as a header it is a well-formed, enormous pointer
/// array, which is why the mutator's debug access check tests for it by
/// value.)
pub const POISON: u64 = 0xdead_dead_dead_dead;

/// The chunked simulated address space.
///
/// All heap spaces — semispaces, nursery, tenured area, large-object space,
/// pretenured regions — are carved out of one `Memory` with
/// [`reserve`](Memory::reserve) or [`reserve_owned`](Memory::reserve_owned),
/// so that a heap pointer is a plain word index valid anywhere, exactly
/// like a machine address. Word 0 is reserved for the null pointer.
///
/// The backing store is one contiguous word array (objects may straddle
/// chunk boundaries and the copy kernels want contiguous slices), but the
/// bookkeeping on top is chunked: a [`ChunkMap`] records which space owns
/// each [`CHUNK_WORDS`](crate::CHUNK_WORDS)-sized chunk, and a side-metadata
/// layer carries the per-word dirty and mark bits — the collector state
/// that changes under an object, kept out of its header (see
/// [`crate::side`]).
///
/// Accessors panic on out-of-bounds addresses: in this simulator an invalid
/// address is a collector bug, never a recoverable runtime condition.
/// Checked variants ([`try_word`](Memory::try_word)) exist for verifiers
/// that probe arbitrary words.
///
/// # Example
///
/// ```
/// use tilgc_mem::{Memory, Addr};
///
/// let mut mem = Memory::with_capacity_words(64);
/// let range = mem.reserve(16)?;
/// mem.set_word(range.start, 0xfeed);
/// assert_eq!(mem.word(range.start), 0xfeed);
/// # Ok::<(), tilgc_mem::MemError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Memory {
    words: Vec<u64>,
    reserved: usize,
    chunks: ChunkMap,
    side: SideMetadata,
}

impl Memory {
    /// Creates an address space of `capacity` words, all zeroed.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is 0 or exceeds `u32::MAX` (addresses are 32-bit
    /// word indices).
    pub fn with_capacity_words(capacity: usize) -> Memory {
        assert!(capacity > 0, "memory capacity must be positive");
        assert!(
            capacity <= u32::MAX as usize,
            "memory capacity exceeds 32-bit addressing"
        );
        Memory {
            words: fresh_zeroed_words(capacity),
            reserved: 1,
            chunks: ChunkMap::new(capacity),
            side: SideMetadata::new(capacity),
        }
    }

    /// Total capacity in words.
    #[inline]
    pub fn capacity_words(&self) -> usize {
        self.words.len()
    }

    /// Words not yet handed out by [`reserve`](Memory::reserve).
    #[inline]
    pub fn unreserved_words(&self) -> usize {
        self.words.len() - self.reserved
    }

    /// Reserves the next `words` words as a fresh, exclusively owned range.
    ///
    /// Reservations never overlap and are never reclaimed; collectors size
    /// the address space up-front and move logical space boundaries instead
    /// (heap "resizing" in the paper's sense changes a space's *limit*, not
    /// its reservation).
    ///
    /// # Errors
    ///
    /// Returns [`MemError::AddressSpaceExhausted`] if fewer than `words`
    /// words remain unreserved.
    pub fn reserve(&mut self, words: usize) -> Result<SpaceRange, MemError> {
        if words > self.unreserved_words() {
            return Err(MemError::AddressSpaceExhausted {
                requested: words,
                available: self.unreserved_words(),
            });
        }
        let start = Addr::new(self.reserved as u32);
        self.reserved += words;
        Ok(SpaceRange {
            start,
            end: start + words,
        })
    }

    /// Like [`reserve`](Memory::reserve), but also tags every chunk the
    /// new range overlaps with `owner` in the chunk map. Collectors use
    /// this for their spaces ("nursery", "tenured", "los", ...) so
    /// verifiers and telemetry can attribute any address to a space at
    /// chunk granularity.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::AddressSpaceExhausted`] if fewer than `words`
    /// words remain unreserved.
    pub fn reserve_owned(
        &mut self,
        words: usize,
        owner: &'static str,
    ) -> Result<SpaceRange, MemError> {
        let range = self.reserve(words)?;
        self.chunks.assign(range, owner);
        Ok(range)
    }

    /// The owner label of the chunk covering `addr`, if any.
    #[inline]
    pub fn chunk_owner(&self, addr: Addr) -> Option<&'static str> {
        self.chunks.owner_of(addr)
    }

    /// Number of chunks currently owned by some space.
    #[inline]
    pub fn owned_chunks(&self) -> usize {
        self.chunks.owned_chunks()
    }

    /// Number of chunks owned by the space labelled `owner`.
    #[inline]
    pub fn owned_chunks_by(&self, owner: &str) -> usize {
        self.chunks.owned_chunks_by(owner)
    }

    /// The allocation site of the object whose header is at `addr`, read
    /// from the header word — a forwarding header included, so an object
    /// already evacuated by the collection in progress still names its
    /// site at its old address.
    #[inline]
    pub fn site_of(&self, addr: Addr) -> SiteId {
        Header::from_raw(self.word(addr)).site()
    }

    /// Whether the write-barrier dirty bit for `addr` is set.
    #[inline]
    pub fn is_dirty(&self, addr: Addr) -> bool {
        self.side.dirty.get(addr)
    }

    /// Sets the dirty bit for `addr`.
    #[inline]
    pub fn set_dirty(&mut self, addr: Addr) {
        self.side.dirty.set(addr);
    }

    /// Clears the dirty bit for `addr`.
    #[inline]
    pub fn clear_dirty(&mut self, addr: Addr) {
        self.side.dirty.clear(addr);
    }

    /// Sets the dirty bit for `addr` and reports whether it was already
    /// set — the branch-free write-barrier dedup filter (one load, an
    /// OR, a store and a bit test).
    #[inline]
    pub fn dirty_test_and_set(&mut self, addr: Addr) -> bool {
        self.side.dirty.set_returning_old(addr)
    }

    /// Scalar reference implementation of
    /// [`dirty_test_and_set`](Memory::dirty_test_and_set): explicit
    /// test, branch and conditional set, modelling the old per-object
    /// header check. The oracle of
    /// `dirty_filter_matches_scalar_reference`.
    #[cfg(test)]
    fn dirty_test_and_set_reference(&mut self, addr: Addr) -> bool {
        let was = self.is_dirty(addr);
        if !was {
            self.set_dirty(addr);
        }
        was
    }

    /// Bulk-clears the dirty bits of a space reserved over `range` and
    /// used up to `frontier` — the `memset`-style sweep collectors run
    /// when a space is vacated, replacing the old per-object
    /// header-rewrite walk. Sweeps the used extent only (see
    /// [`SideBitmap::bulk_clear`]) and returns the heap words covered.
    pub fn bulk_clear_dirty(&mut self, range: SpaceRange, frontier: Addr) -> u64 {
        let covered = self.side.dirty.bulk_clear(range, frontier);
        self.side.cleared_words += covered;
        covered
    }

    /// Whether the large-object mark bit for `addr` is set.
    #[inline]
    pub fn is_marked(&self, addr: Addr) -> bool {
        self.side.mark.get(addr)
    }

    /// Sets the mark bit for `addr`, returning `true` if this call
    /// claimed it.
    #[inline]
    pub fn mark_test_and_set(&mut self, addr: Addr) -> bool {
        !self.side.mark.set_returning_old(addr)
    }

    /// Bulk-clears the mark bits of a space reserved over `range` and
    /// used up to `frontier` (start of a marking cycle). Returns the
    /// heap words covered.
    pub fn bulk_clear_marks(&mut self, range: SpaceRange, frontier: Addr) -> u64 {
        let covered = self.side.mark.bulk_clear(range, frontier);
        self.side.cleared_words += covered;
        covered
    }

    /// Running total of heap words covered by dirty/mark bulk clears
    /// since this memory was created. Collection-end telemetry reports
    /// the per-collection delta.
    #[inline]
    pub fn side_cleared_words(&self) -> u64 {
        self.side.cleared_words
    }

    /// The SSB dense filter's scratch bitmap. Callers must leave it
    /// all-clear between uses.
    #[inline]
    pub fn ssb_scratch_mut(&mut self) -> &mut SideBitmap {
        &mut self.side.scratch
    }

    /// Reads the word at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is null or out of bounds.
    #[inline]
    pub fn word(&self, addr: Addr) -> u64 {
        debug_assert!(!addr.is_null(), "read through null address");
        self.words[addr.index()]
    }

    /// Reads the word at `addr`, or `None` if out of bounds or null.
    #[inline]
    pub fn try_word(&self, addr: Addr) -> Option<u64> {
        if addr.is_null() {
            return None;
        }
        self.words.get(addr.index()).copied()
    }

    /// Writes the word at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is null or out of bounds.
    #[inline]
    pub fn set_word(&mut self, addr: Addr, value: u64) {
        debug_assert!(!addr.is_null(), "write through null address");
        self.words[addr.index()] = value;
    }

    /// Reads the word `offset` words past `addr` — an object's field — as
    /// one load. The index is `addr + offset` in `usize`, saturating, so
    /// an offset past the end of memory, however large, fails the backing
    /// array's bounds check: the only check on this path.
    ///
    /// # Panics
    ///
    /// Panics if the word is out of bounds, or (in debug builds) if
    /// `addr` is null.
    #[inline]
    pub(crate) fn word_offset(&self, addr: Addr, offset: usize) -> u64 {
        debug_assert!(!addr.is_null(), "read through null address");
        self.words[addr.index().saturating_add(offset)]
    }

    /// Writes the word `offset` words past `addr`, checked as
    /// [`word_offset`](Memory::word_offset) is.
    ///
    /// # Panics
    ///
    /// Panics if the word is out of bounds, or (in debug builds) if
    /// `addr` is null.
    #[inline]
    pub(crate) fn set_word_offset(&mut self, addr: Addr, offset: usize, value: u64) {
        debug_assert!(!addr.is_null(), "write through null address");
        self.words[addr.index().saturating_add(offset)] = value;
    }

    /// Borrows `len` consecutive words starting at `addr` as a slice.
    ///
    /// This is the batched read path of the copy/scan kernels: one bounds
    /// check for a whole object payload instead of one per
    /// [`word`](Memory::word) call.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds, or (in debug builds) if
    /// `addr` is null and `len` is nonzero.
    #[inline]
    pub fn words_at(&self, addr: Addr, len: usize) -> &[u64] {
        debug_assert!(len == 0 || !addr.is_null(), "read through null address");
        let i = addr.index();
        &self.words[i..i + len]
    }

    /// Borrows `len` consecutive words starting at `addr` mutably.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds, or (in debug builds) if
    /// `addr` is null and `len` is nonzero.
    #[inline]
    pub fn words_at_mut(&mut self, addr: Addr, len: usize) -> &mut [u64] {
        debug_assert!(len == 0 || !addr.is_null(), "write through null address");
        let i = addr.index();
        &mut self.words[i..i + len]
    }

    /// Copies `len` words from `src` to `dst` (the Cheney copy step).
    ///
    /// The ranges may not overlap — collectors only ever copy between
    /// distinct spaces.
    ///
    /// # Panics
    ///
    /// Panics if either range is out of bounds or if the ranges overlap.
    pub fn copy_words(&mut self, src: Addr, dst: Addr, len: usize) {
        if len == 0 {
            return;
        }
        let (s, d) = (src.index(), dst.index());
        assert!(
            s + len <= d || d + len <= s,
            "overlapping copy: src={src} dst={dst} len={len}"
        );
        let (lo, hi, src_is_lo) = if s < d { (s, d, true) } else { (d, s, false) };
        let (a, b) = self.words.split_at_mut(hi);
        if src_is_lo {
            b[..len].copy_from_slice(&a[lo..lo + len]);
        } else {
            a[lo..lo + len].copy_from_slice(&b[..len]);
        }
    }

    /// Fills `len` words starting at `addr` with `value`. Used to poison
    /// vacated semispaces in debug builds so stale reads fail loudly.
    pub fn fill(&mut self, addr: Addr, len: usize, value: u64) {
        let i = addr.index();
        self.words[i..i + len].fill(value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn over_sized_backing_request_keeps_the_requested_length() {
        let mem = Memory::with_capacity_words(1 << 10);
        assert_eq!(mem.capacity_words(), 1 << 10);
        assert_eq!(mem.word(Addr::new((1 << 10) - 1)), 0);
        assert_eq!(mem.site_of(Addr::new((1 << 10) - 1)), SiteId::new(0));
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn one_word_past_capacity_is_out_of_bounds() {
        Memory::with_capacity_words(1 << 10).word(Addr::new(1 << 10));
    }

    #[test]
    fn reserve_is_disjoint_and_skips_null() {
        let mut mem = Memory::with_capacity_words(100);
        let a = mem.reserve(10).unwrap();
        let b = mem.reserve(10).unwrap();
        assert_eq!(a.start, Addr::new(1), "word 0 must stay reserved for null");
        assert_eq!(a.end, b.start);
        assert_eq!(mem.unreserved_words(), 79);
    }

    #[test]
    fn reserve_exhaustion() {
        let mut mem = Memory::with_capacity_words(16);
        assert!(mem.reserve(15).is_ok());
        assert_eq!(
            mem.reserve(1),
            Err(MemError::AddressSpaceExhausted {
                requested: 1,
                available: 0
            })
        );
    }

    #[test]
    fn reserve_owned_tags_chunks() {
        let mut mem = Memory::with_capacity_words(3 * crate::CHUNK_WORDS);
        let a = mem
            .reserve_owned(2 * crate::CHUNK_WORDS, "nursery")
            .unwrap();
        let b = mem.reserve_owned(100, "tenured").unwrap();
        let anon = mem.reserve(100).unwrap();
        assert_eq!(mem.chunk_owner(a.start), Some("nursery"));
        assert_eq!(
            mem.chunk_owner(a.end + 1),
            Some("nursery") /* shared */
        );
        assert_eq!(
            mem.chunk_owner(b.start),
            Some("nursery"),
            "first owner wins"
        );
        assert_eq!(mem.owned_chunks(), 3);
        assert_eq!(mem.chunk_owner(anon.start), Some("nursery"));
    }

    #[test]
    fn plain_reserve_leaves_chunks_unowned() {
        let mut mem = Memory::with_capacity_words(64);
        let r = mem.reserve(16).unwrap();
        assert_eq!(mem.chunk_owner(r.start), None);
        assert_eq!(mem.owned_chunks(), 0);
    }

    #[test]
    fn dirty_filter_matches_scalar_reference() {
        let mut fast = Memory::with_capacity_words(256);
        let mut slow = Memory::with_capacity_words(256);
        let addrs = [3u32, 9, 3, 200, 9, 9, 3];
        for &a in &addrs {
            assert_eq!(
                fast.dirty_test_and_set(Addr::new(a)),
                slow.dirty_test_and_set_reference(Addr::new(a)),
            );
        }
        let range = SpaceRange {
            start: Addr::new(1),
            end: Addr::new(256),
        };
        assert_eq!(fast.bulk_clear_dirty(range, range.end), 255);
        assert!(!fast.is_dirty(Addr::new(3)));
        assert_eq!(fast.side_cleared_words(), 255);
    }

    #[test]
    fn mark_bits_claim_once_until_cleared() {
        let mut mem = Memory::with_capacity_words(128);
        assert!(mem.mark_test_and_set(Addr::new(40)));
        assert!(!mem.mark_test_and_set(Addr::new(40)));
        assert!(mem.is_marked(Addr::new(40)));
        let range = SpaceRange {
            start: Addr::new(32),
            end: Addr::new(64),
        };
        mem.bulk_clear_marks(range, range.end);
        assert!(!mem.is_marked(Addr::new(40)));
        assert!(mem.mark_test_and_set(Addr::new(40)));
    }

    #[test]
    fn bulk_clears_sweep_only_the_used_extent() {
        let mut mem = Memory::with_capacity_words(1024);
        let range = mem.reserve(1000).unwrap();
        let frontier = range.start + 100;
        mem.set_dirty(range.start + 99);
        mem.mark_test_and_set(range.start + 99);
        assert_eq!(mem.bulk_clear_dirty(range, frontier), 100);
        assert_eq!(mem.bulk_clear_marks(range, frontier), 100);
        assert!(!mem.is_dirty(range.start + 99) && !mem.is_marked(range.start + 99));
        assert_eq!(mem.side_cleared_words(), 200, "the tail is not counted");
        assert_eq!(mem.bulk_clear_dirty(range, range.start), 0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "stale side bit")]
    fn bulk_clear_checks_the_tail_beyond_the_frontier() {
        let mut mem = Memory::with_capacity_words(1024);
        let range = mem.reserve(1000).unwrap();
        mem.set_dirty(range.start + 500);
        mem.bulk_clear_dirty(range, range.start + 100);
    }

    #[test]
    fn site_tags_survive_clone() {
        let stamped = |site| Header::record(0, 0).unwrap().with_site(site).raw();
        let mut mem = Memory::with_capacity_words(64);
        mem.set_word(Addr::new(5), stamped(SiteId::new(9)));
        mem.set_dirty(Addr::new(5));
        mem.mark_test_and_set(Addr::new(6));
        let mut copy = mem.clone();
        assert_eq!(copy.site_of(Addr::new(5)), SiteId::new(9));
        assert!(copy.is_dirty(Addr::new(5)));
        assert!(copy.is_marked(Addr::new(6)));
        // The derived clone is deep: the copy's words and side tables are
        // its own.
        copy.set_word(Addr::new(5), stamped(SiteId::new(1)));
        copy.clear_dirty(Addr::new(5));
        assert_eq!(mem.site_of(Addr::new(5)), SiteId::new(9));
        assert!(mem.is_dirty(Addr::new(5)));
    }

    #[test]
    fn word_round_trip() {
        let mut mem = Memory::with_capacity_words(8);
        mem.set_word(Addr::new(3), u64::MAX);
        assert_eq!(mem.word(Addr::new(3)), u64::MAX);
        assert_eq!(mem.try_word(Addr::new(3)), Some(u64::MAX));
        assert_eq!(mem.try_word(Addr::new(99)), None);
        assert_eq!(mem.try_word(Addr::NULL), None);
    }

    #[test]
    fn copy_words_both_directions() {
        let mut mem = Memory::with_capacity_words(32);
        for i in 0..4 {
            mem.set_word(Addr::new(1 + i), u64::from(10 + i));
        }
        mem.copy_words(Addr::new(1), Addr::new(16), 4);
        for i in 0..4 {
            assert_eq!(mem.word(Addr::new(16 + i)), u64::from(10 + i));
        }
        mem.copy_words(Addr::new(16), Addr::new(8), 4);
        assert_eq!(mem.word(Addr::new(8)), 10);
    }

    #[test]
    #[should_panic(expected = "overlapping copy")]
    fn overlapping_copy_panics() {
        let mut mem = Memory::with_capacity_words(32);
        mem.copy_words(Addr::new(1), Addr::new(2), 4);
    }

    #[test]
    fn fill_poisons_range() {
        let mut mem = Memory::with_capacity_words(16);
        mem.fill(Addr::new(4), 4, 0xdead_beef);
        assert_eq!(mem.word(Addr::new(7)), 0xdead_beef);
        assert_eq!(mem.word(Addr::new(8)), 0);
    }

    #[test]
    #[should_panic]
    fn zero_capacity_panics() {
        let _ = Memory::with_capacity_words(0);
    }

    #[test]
    fn words_at_matches_scalar_reads() {
        let mut mem = Memory::with_capacity_words(16);
        for i in 0..4 {
            mem.set_word(Addr::new(2 + i), u64::from(7 * (i + 1)));
        }
        assert_eq!(mem.words_at(Addr::new(2), 4), &[7, 14, 21, 28]);
        mem.words_at_mut(Addr::new(2), 4)
            .copy_from_slice(&[1, 2, 3, 4]);
        assert_eq!(mem.word(Addr::new(3)), 2);
        assert!(mem.words_at(Addr::new(5), 0).is_empty());
    }

    #[test]
    #[should_panic]
    fn words_at_out_of_bounds_panics() {
        let mem = Memory::with_capacity_words(8);
        let _ = mem.words_at(Addr::new(6), 4);
    }
}
