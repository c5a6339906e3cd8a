//! Run statistics: the raw material of the paper's tables.

/// Mutator-side counters (the "Client" columns and most of Table 2).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MutatorStats {
    /// Total bytes allocated (Table 2, "Total Alloc").
    pub alloc_bytes: u64,
    /// Bytes allocated as records (Table 2, "Records Alloc").
    pub record_bytes: u64,
    /// Bytes allocated as pointer arrays.
    pub ptr_array_bytes: u64,
    /// Bytes allocated as raw arrays (with `ptr_array_bytes`, Table 2's
    /// "Arrays Alloc").
    pub raw_array_bytes: u64,
    /// Objects allocated, total.
    pub alloc_objects: u64,
    /// Pointer updates recorded by the write barrier (Table 2, "Number of
    /// Pointer Updates").
    pub pointer_updates: u64,
    /// Simulated cycles spent in the mutator ("Client time").
    pub client_cycles: u64,
}

impl MutatorStats {
    /// Bytes allocated as arrays of either flavour.
    pub fn array_bytes(&self) -> u64 {
        self.ptr_array_bytes + self.raw_array_bytes
    }
}

/// Collector-side counters (the "GC" columns, Tables 3–6).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GcStats {
    /// Number of collections (Tables 3/4, "Number of GCs").
    pub collections: u64,
    /// How many of those were major (tenured-generation) collections.
    pub major_collections: u64,
    /// Bytes of live data copied over all collections ("Data copied").
    pub copied_bytes: u64,
    /// Words Cheney-scanned in to-space.
    pub scanned_words: u64,
    /// Stack frames decoded from scratch (the expensive path).
    pub frames_scanned: u64,
    /// Stack frames whose cached scan results were reused (generational
    /// stack collection's cheap path).
    pub frames_reused: u64,
    /// Sum over collections of the stack depth at collection time — with
    /// `collections`, gives Table 4's "Avg Frame Depth".
    pub depth_at_gc_sum: u64,
    /// Stack slots classified via trace-table decoding.
    pub slots_scanned: u64,
    /// Roots discovered and processed.
    pub roots_found: u64,
    /// Write-barrier entries filtered.
    pub barrier_entries: u64,
    /// Stack markers placed.
    pub markers_placed: u64,
    /// Words of pretenured regions scanned in place.
    pub pretenured_scanned_words: u64,
    /// Bytes allocated directly into the tenured generation by
    /// pretenuring.
    pub pretenured_bytes: u64,
    /// High-water mark of live bytes observed after any collection
    /// (Table 2, "Max Live Data").
    pub max_live_bytes: u64,
    /// Live bytes after the most recent collection.
    pub last_live_bytes: u64,

    /// Heap-pressure episodes the governor opened (the escalation
    /// ladder engaged after the ordinary slow path failed). Zero means
    /// the run was pressure-free.
    pub pressure_episodes: u64,
    /// Collections that left a generation holding more live data than
    /// its budget share — the deferred-failure state where the *next*
    /// allocation that misses fails typed instead of the collection
    /// panicking. Like `pressure_episodes`, nonzero means the heap
    /// budget undershot the workload.
    pub budget_overruns: u64,

    /// Allocation sites the online adaptive policy promoted to
    /// tenured-at-birth placement mid-run. Zero whenever adaptation is
    /// off — the offline (profile-driven) flow never flips sites.
    pub sites_promoted: u64,
    /// Allocation sites demoted back to the nursery path mid-run, by
    /// the adaptive estimator or by the pressure governor's demotion
    /// rung while adaptation is on.
    pub sites_demoted: u64,

    // Inert, always 0: `benchmark/src/metrics.rs` reports both and
    // `benchmark/src/workload.rs:625` checks them. ROADMAP item 1 deletes
    // those reads and these fields.
    #[doc(hidden)]
    pub workers_lost: u64,
    #[doc(hidden)]
    pub degraded_collections: u64,

    /// Simulated cycles spent processing roots ("GC-stack", Table 5).
    pub stack_cycles: u64,
    /// Simulated cycles spent scanning and copying the heap ("GC-copy").
    pub copy_cycles: u64,
    /// Remaining collection cycles (fixed overheads, barrier filtering,
    /// bookkeeping).
    pub other_cycles: u64,

    /// Wall-clock nanoseconds spent in root processing.
    pub stack_wall_ns: u64,
    /// Wall-clock nanoseconds spent in copy/scan work.
    pub copy_wall_ns: u64,
    /// Total wall-clock nanoseconds spent collecting.
    pub total_wall_ns: u64,
}

impl GcStats {
    /// The deterministic part: these statistics with the host-time
    /// fields (`*_wall_ns`) zeroed, for comparing two runs.
    pub fn without_host_time(mut self) -> GcStats {
        self.stack_wall_ns = 0;
        self.copy_wall_ns = 0;
        self.total_wall_ns = 0;
        self
    }

    /// Total simulated GC cycles.
    pub fn gc_cycles(&self) -> u64 {
        self.stack_cycles + self.copy_cycles + self.other_cycles
    }

    /// Fraction of simulated GC time spent in root processing (Table 5's
    /// "stack%").
    pub fn stack_fraction(&self) -> f64 {
        let total = self.gc_cycles();
        if total == 0 {
            0.0
        } else {
            self.stack_cycles as f64 / total as f64
        }
    }

    /// Mean stack depth at collection time (Table 4's "Avg Frame Depth").
    pub fn avg_depth_at_gc(&self) -> f64 {
        if self.collections == 0 {
            0.0
        } else {
            self.depth_at_gc_sum as f64 / self.collections as f64
        }
    }

    /// Mean number of freshly scanned frames per collection (Table 2's
    /// "New Frames in Stack").
    pub fn avg_new_frames(&self) -> f64 {
        if self.collections == 0 {
            0.0
        } else {
            self.frames_scanned as f64 / self.collections as f64
        }
    }

    /// Records the live size after a collection, maintaining the
    /// high-water mark.
    pub fn note_live_bytes(&mut self, live: u64) {
        self.last_live_bytes = live;
        self.max_live_bytes = self.max_live_bytes.max(live);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_ratios() {
        let mut s = GcStats::default();
        assert_eq!(s.stack_fraction(), 0.0);
        assert_eq!(s.avg_depth_at_gc(), 0.0);
        s.stack_cycles = 30;
        s.copy_cycles = 60;
        s.other_cycles = 10;
        s.collections = 4;
        s.depth_at_gc_sum = 10;
        s.frames_scanned = 6;
        assert!((s.stack_fraction() - 0.3).abs() < 1e-12);
        assert!((s.avg_depth_at_gc() - 2.5).abs() < 1e-12);
        assert!((s.avg_new_frames() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn live_high_water_mark() {
        let mut s = GcStats::default();
        s.note_live_bytes(100);
        s.note_live_bytes(40);
        assert_eq!(s.max_live_bytes, 100);
        assert_eq!(s.last_live_bytes, 40);
    }

    #[test]
    fn mutator_array_bytes() {
        let m = MutatorStats {
            ptr_array_bytes: 3,
            raw_array_bytes: 4,
            ..Default::default()
        };
        assert_eq!(m.array_bytes(), 7);
    }
}
