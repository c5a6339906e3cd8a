//! The large-object space.
//!
//! §2.1: "Large arrays are not allocated in the nursery and promoted to
//! the tenured area; instead, they reside in a region managed by a
//! mark-sweep algorithm." Copying a multi-kilobyte array at every
//! promotion would swamp the collector; here such arrays are allocated in
//! place and only their *liveness* is tracked.
//!
//! Blocks are handed out first-fit from a free list with coalescing of
//! adjacent frees; large objects are few, so the lists stay short.
//!
//! Mark state lives in the heap's side mark bitmap
//! ([`Memory::mark_test_and_set`]), not in per-object bookkeeping:
//! [`begin_marking`](LargeObjectSpace::begin_marking) is one bulk clear
//! over the space's used extent, and parallel tracing workers mark
//! through the atomic [`SideMetaView`](tilgc_mem::SideMetaView) without
//! taking a lock.
//!
//! In the space/plan layering this is the mark-sweep policy: the
//! generational plans route oversized allocations here and pass the
//! space to the cycle as `TraceSpaces::los`, and the tracing driver
//! marks reached large objects and queues them on its explicit gray
//! queue to be scanned without moving.

use std::collections::BTreeMap;

use tilgc_mem::{Addr, Memory, SpaceRange};

/// Per-object bookkeeping (the mark bit lives in the side bitmap).
#[derive(Clone, Copy, Debug)]
struct LargeObj {
    words: usize,
}

/// The mark-sweep large-object space.
#[derive(Clone, Debug)]
pub struct LargeObjectSpace {
    range: SpaceRange,
    /// Bump frontier for never-used tail of the range.
    frontier: Addr,
    objects: BTreeMap<u32, LargeObj>,
    /// Free blocks by address (coalesced on insert).
    free: BTreeMap<u32, usize>,
    used_words: usize,
    /// Large pointer arrays allocated since the last collection: they may
    /// have been initialized with nursery references, so the next minor
    /// collection scans them in place.
    pub pending_scan: Vec<Addr>,
}

impl LargeObjectSpace {
    /// Creates a large-object space over `range`.
    pub fn new(range: SpaceRange) -> LargeObjectSpace {
        LargeObjectSpace {
            range,
            frontier: range.start,
            objects: BTreeMap::new(),
            free: BTreeMap::new(),
            used_words: 0,
            pending_scan: Vec::new(),
        }
    }

    /// Words of address space the LOS spans.
    pub fn capacity_words(&self) -> usize {
        self.range.words()
    }

    /// Words currently occupied by live (not yet swept) objects.
    pub fn used_words(&self) -> usize {
        self.used_words
    }

    /// Number of live objects.
    pub fn object_count(&self) -> usize {
        self.objects.len()
    }

    /// Whether `addr` is the address of a live large object.
    pub fn contains(&self, addr: Addr) -> bool {
        self.objects.contains_key(&addr.raw())
    }

    /// Allocates a block of `words` words, first-fit.
    ///
    /// Returns `None` if no block fits (the caller should trigger a major
    /// collection and retry).
    pub fn alloc(&mut self, words: usize) -> Option<Addr> {
        // First fit from the free list.
        let found = self
            .free
            .iter()
            .find(|&(_, &len)| len >= words)
            .map(|(&a, &len)| (a, len));
        let addr = if let Some((a, len)) = found {
            self.free.remove(&a);
            if len > words {
                self.free.insert(a + words as u32, len - words);
            }
            Addr::new(a)
        } else {
            if self.frontier + words > self.range.end {
                return None;
            }
            let a = self.frontier;
            self.frontier += words;
            a
        };
        self.objects.insert(addr.raw(), LargeObj { words });
        self.used_words += words;
        Some(addr)
    }

    /// Clears all mark bits (start of a major collection): one bulk
    /// sweep over the side bitmap words below the bump frontier. Only
    /// live objects are ever marked and all of them sit below it, so
    /// the never-used tail of the reservation is clear already.
    pub fn begin_marking(&self, mem: &mut Memory) {
        mem.bulk_clear_marks(self.range, self.frontier);
    }

    /// Marks the object at `addr` as reachable via the side mark bitmap.
    /// Returns `true` the first time (the caller must then scan the
    /// object's fields).
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not a live large object.
    pub fn mark(&self, mem: &mut Memory, addr: Addr) -> bool {
        assert!(self.contains(addr), "mark of unknown large object");
        mem.mark_test_and_set(addr)
    }

    /// Sweeps unmarked objects (their side mark bit is still clear),
    /// returning their addresses (for death profiling) and freeing their
    /// blocks.
    pub fn sweep(&mut self, mem: &Memory) -> Vec<Addr> {
        let dead: Vec<(u32, usize)> = self
            .objects
            .iter()
            .filter(|&(&a, _)| !mem.is_marked(Addr::new(a)))
            .map(|(&a, o)| (a, o.words))
            .collect();
        let mut swept = Vec::with_capacity(dead.len());
        for (a, words) in dead {
            self.objects.remove(&a);
            self.used_words -= words;
            self.insert_free(a, words);
            swept.push(Addr::new(a));
        }
        swept
    }

    fn insert_free(&mut self, addr: u32, mut words: usize) {
        let mut addr = addr;
        // Coalesce with the block after.
        if let Some(&next_len) = self.free.get(&(addr + words as u32)) {
            self.free.remove(&(addr + words as u32));
            words += next_len;
        }
        // Coalesce with the block before.
        if let Some((&prev, &prev_len)) = self.free.range(..addr).next_back() {
            if prev + prev_len as u32 == addr {
                self.free.remove(&prev);
                addr = prev;
                words += prev_len;
            }
        }
        // A block ending at the bump frontier rejoins the untouched tail,
        // so large future allocations see one contiguous region.
        if Addr::new(addr) + words == self.frontier {
            self.frontier = Addr::new(addr);
        } else {
            self.free.insert(addr, words);
        }
    }

    /// Iterates over live object addresses.
    pub fn iter(&self) -> impl Iterator<Item = Addr> + '_ {
        self.objects.keys().map(|&a| Addr::new(a))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tilgc_mem::Memory;

    fn los(words: usize) -> (Memory, LargeObjectSpace) {
        let mut mem = Memory::with_capacity_words(words + 1);
        let l = LargeObjectSpace::new(mem.reserve(words).unwrap());
        (mem, l)
    }

    #[test]
    fn alloc_and_contains() {
        let (_mem, mut l) = los(1000);
        let a = l.alloc(100).unwrap();
        let b = l.alloc(200).unwrap();
        assert_ne!(a, b);
        assert!(l.contains(a) && l.contains(b));
        assert!(!l.contains(a + 1), "only object starts count");
        assert_eq!(l.used_words(), 300);
    }

    #[test]
    fn alloc_failure_when_full() {
        let (_mem, mut l) = los(100);
        assert!(l.alloc(60).is_some());
        assert!(l.alloc(60).is_none());
    }

    #[test]
    fn sweep_frees_unmarked_and_blocks_are_reusable() {
        let (mut mem, mut l) = los(300);
        let a = l.alloc(100).unwrap();
        let b = l.alloc(100).unwrap();
        let c = l.alloc(100).unwrap();
        l.begin_marking(&mut mem);
        assert!(l.mark(&mut mem, b));
        assert!(!l.mark(&mut mem, b), "second mark reports already-marked");
        let dead = l.sweep(&mem);
        assert_eq!(dead.len(), 2);
        assert!(dead.contains(&a) && dead.contains(&c));
        assert_eq!(l.used_words(), 100);
        // a's and c's blocks are free again (c coalesced with the tail
        // logic is not required; a new 100-word alloc must succeed).
        let d = l.alloc(100).unwrap();
        assert!(l.contains(d));
    }

    #[test]
    fn free_blocks_coalesce() {
        let (mut mem, mut l) = los(300);
        let a = l.alloc(100).unwrap();
        let _b = l.alloc(100).unwrap();
        let c = l.alloc(100).unwrap();
        l.begin_marking(&mut mem);
        // Everything dies.
        let _ = c;
        let dead = l.sweep(&mem);
        assert_eq!(dead.len(), 3);
        // The three adjacent blocks coalesced: one 300-word alloc fits.
        let big = l.alloc(300).unwrap();
        assert_eq!(big, a);
    }

    #[test]
    fn survivors_keep_their_address() {
        let (mut mem, mut l) = los(300);
        let a = l.alloc(128).unwrap();
        l.begin_marking(&mut mem);
        l.mark(&mut mem, a);
        l.sweep(&mem);
        assert!(l.contains(a));
        assert_eq!(l.iter().collect::<Vec<_>>(), vec![a]);
    }

    #[test]
    fn begin_marking_resets_stale_marks() {
        let (mut mem, mut l) = los(300);
        let a = l.alloc(64).unwrap();
        l.begin_marking(&mut mem);
        assert!(l.mark(&mut mem, a));
        // A new marking round forgets the previous cycle's bits.
        l.begin_marking(&mut mem);
        assert!(!mem.is_marked(a));
        assert!(l.mark(&mut mem, a), "re-mark wins after the bulk clear");
    }

    #[test]
    #[should_panic(expected = "unknown large object")]
    fn marking_unknown_address_panics() {
        let (mut mem, l) = los(100);
        l.mark(&mut mem, Addr::new(5));
    }
}
