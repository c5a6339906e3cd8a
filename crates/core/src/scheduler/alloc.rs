//! Per-worker copy allocation over a shared to-space cursor.

use std::sync::atomic::{AtomicUsize, Ordering};

use tilgc_mem::Addr;

/// Words per worker-local bump chunk. Large enough that the shared
/// cursor is touched rarely, small enough that abandoned tails stay a
/// tiny fraction of to-space.
pub const CHUNK_WORDS: usize = 256;

/// The shared to-space allocation cursor for one parallel drain.
///
/// Built from a [`Space`](tilgc_mem::Space)'s frontier and limit;
/// workers carve chunks off it with a single `fetch_update` each. After
/// the workers join, the evacuator syncs the final frontier back with
/// [`Space::advance_frontier`](tilgc_mem::Space::advance_frontier) and
/// records abandoned tails with
/// [`Space::note_slack`](tilgc_mem::Space::note_slack).
pub struct SharedCursor {
    next: AtomicUsize,
    limit: usize,
}

impl SharedCursor {
    /// A cursor spanning `[frontier, limit)` of a space.
    pub fn new(frontier: Addr, limit: Addr) -> SharedCursor {
        assert!(frontier <= limit, "cursor frontier past limit");
        SharedCursor {
            next: AtomicUsize::new(frontier.raw() as usize),
            limit: limit.raw() as usize,
        }
    }

    /// Atomically takes `words` contiguous words, or `None` if the
    /// region is exhausted.
    pub fn take(&self, words: usize) -> Option<Addr> {
        self.next
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |cur| {
                (self.limit - cur >= words).then_some(cur + words)
            })
            .ok()
            .map(|prev| Addr::new(prev as u32))
    }

    /// The current frontier (exact once all workers have joined).
    pub fn frontier(&self) -> Addr {
        Addr::new(self.next.load(Ordering::Relaxed) as u32)
    }

    /// Words still available (snapshot).
    pub fn remaining(&self) -> usize {
        self.limit - self.next.load(Ordering::Relaxed)
    }
}

/// One worker's private bump allocator over the shared cursor.
///
/// Small objects bump inside the worker's current chunk; a chunk refill
/// is one CAS on the cursor. Oversized objects bypass the chunk and
/// take exactly their size. When a chunk can't fit the next object its
/// tail is abandoned and counted in [`finish`](WorkerCopyAlloc::finish)
/// — the caller folds the total into the space's slack so live-size
/// accounting matches the serial lane.
pub struct WorkerCopyAlloc<'c> {
    cursor: &'c SharedCursor,
    workers: usize,
    chunk_next: usize,
    chunk_end: usize,
    slack: usize,
}

impl<'c> WorkerCopyAlloc<'c> {
    /// A fresh allocator with an empty chunk (first alloc refills).
    pub fn new(cursor: &'c SharedCursor, workers: usize) -> WorkerCopyAlloc<'c> {
        assert!(workers > 0);
        WorkerCopyAlloc {
            cursor,
            workers,
            chunk_next: 0,
            chunk_end: 0,
            slack: 0,
        }
    }

    /// Allocates `words` words of copy space, or `None` when to-space
    /// is exhausted (the headroom gate makes this unreachable in
    /// practice; callers treat it as the same overflow as the serial
    /// lane's bump failure).
    pub fn alloc(&mut self, words: usize) -> Option<Addr> {
        if words > CHUNK_WORDS {
            return self.cursor.take(words);
        }
        if self.chunk_end - self.chunk_next >= words {
            let addr = self.chunk_next;
            self.chunk_next += words;
            return Some(Addr::new(addr as u32));
        }
        // Refill: abandon the tail, take a fresh chunk. Near exhaustion
        // shrink the ask so stragglers don't strand big tails — but
        // never below the object itself.
        self.slack += self.chunk_end - self.chunk_next;
        self.chunk_next = 0;
        self.chunk_end = 0;
        let want = CHUNK_WORDS
            .min(self.cursor.remaining() / (2 * self.workers))
            .max(words);
        if let Some(chunk) = self.cursor.take(want) {
            let base = chunk.raw() as usize;
            self.chunk_next = base + words;
            self.chunk_end = base + want;
            Some(chunk)
        } else {
            // Chunk ask failed; fall back to an exact take.
            self.cursor.take(words)
        }
    }

    /// Retires the allocator, returning its total abandoned-tail words
    /// (current chunk remainder included).
    pub fn finish(self) -> usize {
        self.slack + (self.chunk_end - self.chunk_next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cursor_take_is_contiguous_and_bounded() {
        let c = SharedCursor::new(Addr::new(100), Addr::new(110));
        assert_eq!(c.take(4), Some(Addr::new(100)));
        assert_eq!(c.take(6), Some(Addr::new(104)));
        assert_eq!(c.take(1), None);
        assert_eq!(c.frontier(), Addr::new(110));
        assert_eq!(c.remaining(), 0);
    }

    #[test]
    fn worker_alloc_bumps_within_chunk() {
        let c = SharedCursor::new(Addr::new(0x100), Addr::new(0x100 + 4 * CHUNK_WORDS as u32));
        let mut a = WorkerCopyAlloc::new(&c, 2);
        let x = a.alloc(8).unwrap();
        let y = a.alloc(8).unwrap();
        assert_eq!(y - x, 8, "second alloc bumps in the same chunk");
        assert_eq!(
            c.frontier() - Addr::new(0x100),
            CHUNK_WORDS,
            "one chunk taken"
        );
        assert_eq!(a.finish(), CHUNK_WORDS - 16);
    }

    #[test]
    fn oversized_objects_bypass_the_chunk() {
        let c = SharedCursor::new(Addr::new(0x100), Addr::new(0x100 + 8 * CHUNK_WORDS as u32));
        let mut a = WorkerCopyAlloc::new(&c, 1);
        a.alloc(4).unwrap();
        let big = a.alloc(CHUNK_WORDS + 1).unwrap();
        assert_eq!(big.raw() as usize, 0x100 + CHUNK_WORDS, "after the chunk");
        let small = a.alloc(4).unwrap();
        assert_eq!(small - Addr::new(0x104), 0, "chunk bump resumes");
    }

    #[test]
    fn exhaustion_returns_none_and_slack_accounts_for_every_word() {
        let total = 2 * CHUNK_WORDS + 17;
        let c = SharedCursor::new(Addr::new(64), Addr::new(64 + total as u32));
        let mut a = WorkerCopyAlloc::new(&c, 1);
        let mut live = 0usize;
        while let Some(_addr) = a.alloc(7) {
            live += 7;
        }
        let slack = a.finish();
        assert_eq!(
            live + slack,
            c.frontier() - Addr::new(64),
            "every taken word is live or slack"
        );
        assert!(
            c.remaining() < 7,
            "only a sub-object tail may remain untaken"
        );
    }

    /// Hand-rolled property test (no proptest in-tree): racing workers'
    /// bump regions never overlap and cover exactly the taken words.
    #[test]
    fn concurrent_worker_regions_are_disjoint_and_exhaustive() {
        let mut seed = 0x9e37_79b9_u32;
        let mut rng = move || {
            seed ^= seed << 13;
            seed ^= seed >> 17;
            seed ^= seed << 5;
            seed
        };
        for _case in 0..20 {
            let workers = 2 + (rng() % 3) as usize; // 2..=4
            let total = CHUNK_WORDS * workers + (rng() % 2000) as usize;
            let start = 8 + (rng() % 64);
            let c = SharedCursor::new(Addr::new(start), Addr::new(start + total as u32));
            let sizes: Vec<usize> = (0..workers)
                .map(|_| 1 + (rng() % (CHUNK_WORDS as u32 + 8)) as usize)
                .collect();
            let (allocs, slack): (Vec<Vec<(usize, usize)>>, usize) = std::thread::scope(|s| {
                let handles: Vec<_> = sizes
                    .iter()
                    .map(|&sz| {
                        let c = &c;
                        s.spawn(move || {
                            let mut a = WorkerCopyAlloc::new(c, workers);
                            let mut got = Vec::new();
                            while let Some(addr) = a.alloc(sz) {
                                got.push((addr.raw() as usize, sz));
                                if got.len() > total {
                                    panic!("allocator never exhausts");
                                }
                            }
                            (got, a.finish())
                        })
                    })
                    .collect();
                let mut allocs = Vec::new();
                let mut slack = 0;
                for h in handles {
                    let (got, s) = h.join().unwrap();
                    allocs.push(got);
                    slack += s;
                }
                (allocs, slack)
            });
            let mut regions: Vec<(usize, usize)> = allocs.into_iter().flatten().collect();
            regions.sort_unstable();
            let mut live = 0usize;
            for w in regions.windows(2) {
                assert!(w[0].0 + w[0].1 <= w[1].0, "regions {w:?} overlap");
            }
            for &(_, sz) in &regions {
                live += sz;
            }
            assert_eq!(
                live + slack,
                c.frontier() - Addr::new(start),
                "allocations + abandoned tails cover exactly the taken words"
            );
        }
    }
}
