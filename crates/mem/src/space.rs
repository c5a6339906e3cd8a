use crate::{Addr, MemError};

/// A contiguous, exclusively owned range of the address space.
///
/// Produced by [`Memory::reserve`](crate::Memory::reserve).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpaceRange {
    /// First word of the range.
    pub start: Addr,
    /// One past the last word of the range.
    pub end: Addr,
}

impl SpaceRange {
    /// Length of the range, in words.
    #[inline]
    pub fn words(&self) -> usize {
        self.end - self.start
    }

    /// Whether `addr` falls inside the range.
    #[inline]
    pub fn contains(&self, addr: Addr) -> bool {
        self.start <= addr && addr < self.end
    }

    /// Splits the range at `offset` words, returning `(low, high)`.
    ///
    /// # Panics
    ///
    /// Panics if `offset` exceeds the range length.
    pub fn split_at(&self, offset: usize) -> (SpaceRange, SpaceRange) {
        assert!(offset <= self.words(), "split offset {offset} beyond range");
        let mid = self.start + offset;
        (
            SpaceRange {
                start: self.start,
                end: mid,
            },
            SpaceRange {
                start: mid,
                end: self.end,
            },
        )
    }
}

/// A bump-allocated heap space.
///
/// Every area the paper's collectors manage — the two semispaces, the
/// nursery, the tenured generation, pretenured regions — is a `Space`: a
/// range of the address space with an allocation frontier and a *logical
/// limit*. Collectors model the paper's heap-resizing policies (target
/// liveness ratios of 0.10 and 0.3, §2.1) by moving the logical limit
/// within the reserved range, which is how a runtime would grow or shrink a
/// space without remapping it.
///
/// # Example
///
/// ```
/// use tilgc_mem::{Memory, Space};
///
/// let mut mem = Memory::with_capacity_words(128);
/// let mut s = Space::new(mem.reserve(64)?);
/// let a = s.alloc(10)?;
/// let b = s.alloc(10)?;
/// assert_eq!(b - a, 10);
/// assert_eq!(s.used_words(), 20);
/// assert!(s.contains(a));
/// # Ok::<(), tilgc_mem::MemError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Space {
    range: SpaceRange,
    limit: Addr,
    next: Addr,
    /// Words below the frontier that hold no live data: tails of
    /// per-worker bump chunks abandoned by a parallel collection.
    /// Subtracted from [`used_words`](Space::used_words) so live-size
    /// accounting matches a serial collection of the same heap.
    slack: usize,
    /// Whether the frontier is out on loan ([`lend`](Space::lend)): the
    /// borrower bumps its own copy, so `next` is stale until
    /// [`retire`](Space::retire) brings the cursor home.
    lent: bool,
}

impl Space {
    /// Creates a space spanning `range`, with the logical limit at the end
    /// of the range.
    pub fn new(range: SpaceRange) -> Space {
        Space {
            range,
            limit: range.end,
            next: range.start,
            slack: 0,
            lent: false,
        }
    }

    /// The reserved range backing this space.
    #[inline]
    pub fn range(&self) -> SpaceRange {
        self.range
    }

    /// First word of the space.
    #[inline]
    pub fn start(&self) -> Addr {
        self.range.start
    }

    /// Current allocation frontier: the address the next allocation will
    /// return.
    ///
    /// # Panics
    ///
    /// Panics in debug builds while the frontier is [lent](Space::lend):
    /// the borrower has the only current copy, and a second frontier is a
    /// bug, not a convention.
    #[inline]
    pub fn frontier(&self) -> Addr {
        debug_assert!(!self.lent, "frontier of a lent space read");
        self.next
    }

    /// Lends the allocation frontier out: returns `(cursor, limit)`, the
    /// window its one borrower may bump through on its own. Until
    /// [`retire`](Space::retire), every frontier-reading method of this
    /// space ([`alloc`](Space::alloc) included) is a debug panic.
    ///
    /// # Panics
    ///
    /// Panics if the frontier is already lent.
    pub fn lend(&mut self) -> (Addr, Addr) {
        assert!(!self.lent, "space lent twice");
        self.lent = true;
        (self.next, self.limit)
    }

    /// Whether the frontier is out on loan.
    #[inline]
    pub fn is_lent(&self) -> bool {
        self.lent
    }

    /// Ends a loan: the borrower's `cursor` becomes the frontier.
    ///
    /// # Panics
    ///
    /// Panics if nothing is lent, or if `cursor` is behind the frontier
    /// that was lent or past the logical limit.
    pub fn retire(&mut self, cursor: Addr) {
        assert!(self.lent, "retire without a loan");
        self.lent = false;
        self.advance_frontier(cursor);
    }

    /// Bump-allocates `words` words.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::SpaceFull`] if the allocation would pass the
    /// logical limit — for a nursery this is the signal to run a minor
    /// collection.
    #[inline]
    pub fn alloc(&mut self, words: usize) -> Result<Addr, MemError> {
        if self.free_words() < words {
            return Err(MemError::SpaceFull {
                requested: words,
                available: self.free_words(),
            });
        }
        let addr = self.frontier();
        self.next += words;
        Ok(addr)
    }

    /// Whether an allocation of `words` words would fit.
    #[inline]
    pub fn fits(&self, words: usize) -> bool {
        self.free_words() >= words
    }

    /// Whether `addr` lies in the *reserved range* of this space.
    ///
    /// Collectors use this for the "is this pointer into from-space?"
    /// test, so it covers the whole range, not just the allocated prefix.
    #[inline]
    pub fn contains(&self, addr: Addr) -> bool {
        self.range.contains(addr)
    }

    /// Words of live data allocated since the last
    /// [`reset`](Space::reset): the distance to the frontier minus any
    /// parallel-collection [slack](Space::note_slack).
    #[inline]
    pub fn used_words(&self) -> usize {
        self.physical_used_words() - self.slack
    }

    /// Words physically consumed up to the frontier, counting abandoned
    /// chunk tails. This is what the limit clamp and occupancy checks
    /// must use; resize policy uses the live [`used_words`](Space::used_words).
    #[inline]
    fn physical_used_words(&self) -> usize {
        self.frontier() - self.range.start
    }

    /// Words still available below the logical limit.
    #[inline]
    pub fn free_words(&self) -> usize {
        self.limit - self.frontier()
    }

    /// The logical capacity (words between start and limit).
    #[inline]
    pub fn capacity_words(&self) -> usize {
        self.limit - self.range.start
    }

    /// Largest capacity this space can be grown to.
    #[inline]
    pub fn max_capacity_words(&self) -> usize {
        self.range.words()
    }

    /// Moves the logical limit to `words` words past the start, clamped to
    /// the reserved range and never below the current frontier.
    pub fn set_limit_words(&mut self, words: usize) {
        let clamped = words
            .min(self.range.words())
            .max(self.physical_used_words());
        self.limit = self.range.start + clamped;
    }

    /// Empties the space: the frontier returns to the start. The contents
    /// become logically dead (collectors poison them in debug builds).
    pub fn reset(&mut self) {
        debug_assert!(!self.lent, "reset of a lent space");
        self.next = self.range.start;
        self.slack = 0;
    }

    /// Records `words` of dead space below the frontier — the abandoned
    /// tail of a parallel worker's bump chunk. Excluded from
    /// [`used_words`](Space::used_words) so live-size accounting stays
    /// identical to a serial collection.
    pub fn note_slack(&mut self, words: usize) {
        debug_assert!(
            self.slack + words <= self.physical_used_words(),
            "slack {} + {words} exceeds physical use {}",
            self.slack,
            self.physical_used_words()
        );
        self.slack += words;
    }

    /// Slack words recorded since the last [`reset`](Space::reset).
    #[inline]
    pub fn slack_words(&self) -> usize {
        self.slack
    }

    /// Advances the allocation frontier to `addr` — how a parallel
    /// collection syncs a shared atomic cursor back into the space after
    /// its workers join.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is behind the current frontier or past the
    /// logical limit.
    pub fn advance_frontier(&mut self, addr: Addr) {
        assert!(
            addr >= self.frontier() && addr <= self.limit,
            "frontier {addr} outside [{}, {}]",
            self.next,
            self.limit
        );
        self.next = addr;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Memory;

    fn space(words: usize) -> Space {
        let mut mem = Memory::with_capacity_words(words + 1);
        Space::new(mem.reserve(words).unwrap())
    }

    #[test]
    fn bump_allocation_is_contiguous() {
        let mut s = space(32);
        let a = s.alloc(4).unwrap();
        let b = s.alloc(8).unwrap();
        assert_eq!(b - a, 4);
        assert_eq!(s.used_words(), 12);
        assert_eq!(s.free_words(), 20);
    }

    #[test]
    fn alloc_past_limit_fails() {
        let mut s = space(8);
        assert!(s.alloc(8).is_ok());
        assert_eq!(
            s.alloc(1),
            Err(MemError::SpaceFull {
                requested: 1,
                available: 0
            })
        );
    }

    #[test]
    fn zero_sized_alloc_always_fits() {
        let mut s = space(1);
        s.alloc(1).unwrap();
        assert!(s.alloc(0).is_ok());
    }

    #[test]
    fn logical_limit_shrinks_and_grows() {
        let mut s = space(100);
        s.set_limit_words(10);
        assert_eq!(s.capacity_words(), 10);
        assert!(!s.fits(11));
        s.set_limit_words(1000); // clamped to reservation
        assert_eq!(s.capacity_words(), 100);
    }

    #[test]
    fn limit_never_truncates_live_allocations() {
        let mut s = space(100);
        s.alloc(50).unwrap();
        s.set_limit_words(10);
        assert_eq!(s.capacity_words(), 50);
        assert_eq!(s.free_words(), 0);
    }

    #[test]
    fn reset_reclaims_everything() {
        let mut s = space(16);
        s.alloc(16).unwrap();
        s.reset();
        assert_eq!(s.used_words(), 0);
        assert!(s.fits(16));
    }

    #[test]
    fn contains_covers_whole_reservation() {
        let mut s = space(16);
        let a = s.alloc(1).unwrap();
        assert!(s.contains(a));
        assert!(s.contains(a + 15)); // unallocated but reserved
        assert!(!s.contains(a + 16));
    }

    #[test]
    fn slack_is_excluded_from_used_but_not_free() {
        let mut s = space(100);
        s.alloc(40).unwrap();
        s.note_slack(10);
        assert_eq!(s.used_words(), 30, "live size excludes chunk tails");
        assert_eq!(s.slack_words(), 10);
        assert_eq!(s.free_words(), 60, "free space is physical");
        // The limit clamp must respect the physical frontier, not the
        // slack-adjusted live size.
        s.set_limit_words(35);
        assert_eq!(s.capacity_words(), 40);
        s.reset();
        assert_eq!(s.slack_words(), 0);
        assert_eq!(s.used_words(), 0);
    }

    #[test]
    fn advance_frontier_syncs_parallel_cursor() {
        let mut s = space(64);
        let a = s.alloc(4).unwrap();
        s.advance_frontier(a + 20);
        assert_eq!(s.used_words(), 20);
        assert_eq!(s.alloc(1).unwrap(), a + 20);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn advance_frontier_rejects_retreat() {
        let mut s = space(64);
        let a = s.alloc(8).unwrap();
        s.advance_frontier(a + 4);
    }

    #[test]
    fn a_lent_frontier_comes_home_with_the_borrowers_cursor() {
        let mut s = space(64);
        let a = s.alloc(4).unwrap();
        let (cursor, limit) = s.lend();
        assert!(s.is_lent());
        assert_eq!((cursor, limit), (a + 4, a + 64));
        s.retire(cursor + 10);
        assert!(!s.is_lent());
        assert_eq!(s.used_words(), 14);
        assert_eq!(s.alloc(1).unwrap(), a + 14);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "lent space")]
    fn alloc_on_a_lent_space_panics() {
        let mut s = space(64);
        s.lend();
        let _ = s.alloc(1);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "lent space")]
    fn frontier_of_a_lent_space_panics() {
        let mut s = space(64);
        s.lend();
        s.frontier();
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn retire_rejects_a_cursor_past_the_limit() {
        let mut s = space(64);
        s.set_limit_words(16);
        let (_, limit) = s.lend();
        s.retire(limit + 1);
    }

    #[test]
    fn split_range() {
        let mut mem = Memory::with_capacity_words(65);
        let r = mem.reserve(64).unwrap();
        let (lo, hi) = r.split_at(16);
        assert_eq!(lo.words(), 16);
        assert_eq!(hi.words(), 48);
        assert_eq!(lo.end, hi.start);
    }
}
