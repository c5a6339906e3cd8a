//! The simulated cycle cost model.
//!
//! The paper reports wall-clock seconds on a 150 MHz DEC Alpha 21064.
//! Those absolute numbers are irreproducible; what *is* reproducible is
//! the operation counts that drive them — words copied, frames decoded,
//! slots traced, store-buffer entries filtered. The simulator counts every
//! such operation and converts to "seconds" through this table of
//! per-operation cycle costs, so that the relative shapes of the paper's
//! tables (who wins, by what factor, where stack scanning dominates) can
//! be regenerated deterministically.
//!
//! The default costs are order-of-magnitude estimates for a simple
//! in-order 64-bit machine with the paper's cache structure; experiments
//! in `EXPERIMENTS.md` show the reproduced shapes are insensitive to
//! reasonable variations.

/// Per-operation costs in simulated cycles.
///
/// Construct with [`CostModel::default`] and adjust fields as needed:
///
/// ```
/// let model = tilgc_runtime::CostModel { copy_per_word: 8, ..Default::default() };
/// assert_eq!(model.copy_per_word, 8);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CostModel {
    /// Simulated clock rate, for converting cycles to seconds.
    pub clock_hz: u64,

    // --- mutator-side costs (client time) ---
    /// Fixed cost of an allocation (pointer bump + limit check).
    pub alloc_base: u64,
    /// Cost per word initialized at allocation.
    pub alloc_per_word: u64,
    /// Extra fixed cost of allocating into the pretenured region (the
    /// paper notes the pretenured code sequence "is somewhat longer").
    pub pretenure_alloc_extra: u64,
    /// Pushing an activation record.
    pub frame_push: u64,
    /// Popping an activation record (normal return).
    pub frame_pop: u64,
    /// Extra cost when a return goes through a marker stub.
    pub marker_fire: u64,
    /// Recording one pointer update in the write barrier.
    pub barrier_record: u64,
    /// A heap load or store.
    pub heap_access: u64,
    /// Raising an exception (dispatch, unwind setup).
    pub raise_base: u64,
    /// Updating the watermark `M` at a raise (variant 1 of §5).
    pub raise_watermark: u64,

    // --- collector-side costs (GC time) ---
    /// Fixed cost of entering a collection (trap, setup, space flip).
    pub gc_base: u64,
    /// Decoding one stack frame via the trace table.
    pub frame_decode: u64,
    /// Classifying one stack slot or register from its trace.
    pub slot_trace: u64,
    /// Extra cost for a `Compute` trace (fetch + interpret runtime type).
    pub compute_trace_extra: u64,
    /// Examining one discovered root (load + null/range test).
    pub root_check: u64,
    /// Relocating a root that did point into from-space (forward +
    /// store back).
    pub root_process: u64,
    /// Copying one word of live data.
    pub copy_per_word: u64,
    /// Cheney-scanning one word of copied data.
    pub scan_per_word: u64,
    /// Filtering one sequential-store-buffer entry or card.
    pub barrier_entry: u64,
    /// Scanning one word of a dirty (object-marking barrier) object.
    pub region_scan_per_word: u64,
    /// Placing one stack marker (swap return address, table insert).
    pub marker_place: u64,
    /// Reusing one cached frame (the cheap path of generational stack
    /// collection — a bounds check, no decoding).
    pub frame_reuse: u64,
    /// Mark-sweep cost per large object examined.
    pub large_object_visit: u64,

    // --- heap-pressure governor costs (GC time) ---
    /// Taking one retry rung of the pressure ladder (re-test the limit
    /// and re-enter the allocation sequence after a forced collection).
    pub pressure_retry: u64,
    /// The one-shot nursery/tenured budget rebalance rung (recompute
    /// limits, shrink the nursery reservation, republish thresholds).
    pub pressure_rebalance: u64,
    /// Demoting one pretenured site back to nursery allocation
    /// (policy-table update plus profile bookkeeping).
    pub pressure_demote: u64,
}

impl Default for CostModel {
    fn default() -> CostModel {
        CostModel {
            clock_hz: 150_000_000, // DEC 3000/500's 21064 runs at 150 MHz
            alloc_base: 5,
            alloc_per_word: 1,
            pretenure_alloc_extra: 4,
            frame_push: 6,
            frame_pop: 3,
            marker_fire: 30,
            barrier_record: 5,
            heap_access: 2,
            raise_base: 40,
            raise_watermark: 8,
            gc_base: 3000,
            frame_decode: 30,
            slot_trace: 6,
            compute_trace_extra: 10,
            root_check: 3,
            root_process: 12,
            copy_per_word: 6,
            scan_per_word: 3,
            barrier_entry: 10,
            region_scan_per_word: 2,
            marker_place: 25,
            frame_reuse: 2,
            large_object_visit: 40,
            pressure_retry: 20,
            pressure_rebalance: 200,
            pressure_demote: 150,
        }
    }
}

impl CostModel {
    /// Converts a cycle count to simulated seconds.
    pub fn secs(&self, cycles: u64) -> f64 {
        cycles as f64 / self.clock_hz as f64
    }

    /// Simulated cycles in `ms` milliseconds of this clock — the
    /// conversion the SLO tooling uses to express wall-time pause and
    /// MMU-window bounds in the deterministic cycle domain (10 ms at the
    /// default 150 MHz clock is 1_500_000 cycles).
    pub fn cycles_per_ms(&self, ms: u64) -> u64 {
        self.clock_hz / 1000 * ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_clock_matches_alpha() {
        let m = CostModel::default();
        assert_eq!(m.clock_hz, 150_000_000);
        assert!((m.secs(150_000_000) - 1.0).abs() < 1e-12);
        assert_eq!(m.cycles_per_ms(10), 1_500_000);
        assert_eq!(m.cycles_per_ms(1), 150_000);
    }

    #[test]
    fn struct_update_syntax_works() {
        let m = CostModel {
            gc_base: 1,
            ..Default::default()
        };
        assert_eq!(m.gc_base, 1);
        assert_eq!(m.copy_per_word, CostModel::default().copy_per_word);
    }
}
