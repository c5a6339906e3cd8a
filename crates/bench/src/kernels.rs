//! Fixed workloads for the GC hot-path kernels, shared by the
//! `kernels` Criterion bench (A/B wall-clock comparison) and the
//! `experiments bench-json` throughput baseline.
//!
//! Each rig owns a deterministic heap or stack and exposes a *batched*
//! pass (the shipping kernel) and a *reference* pass (the pre-batching
//! scalar code, compiled via `tilgc-core`'s `kernel-ref` feature). The
//! passes are idempotent — no object is ever in from-space, so a pass
//! forwards nothing and can be repeated for timing — and both variants
//! perform the same simulated-cost bookkeeping, so the wall-clock delta
//! is purely the kernel difference.
//!
//! The evacuation rig drives `tilgc-core`'s `Evacuator` directly — the
//! shared tracing driver underneath every plan — so the numbers here
//! measure the hot loop all three collector plans execute.

use tilgc_core::roots::{scan_stack, scan_stack_reference};
use tilgc_core::{Evacuator, MarkerPolicy};
use tilgc_mem::{object, Addr, Memory, SiteId, Space, SpaceRange};
use tilgc_runtime::{CostModel, FrameDesc, GcStats, MutatorState, Trace, Value};

/// Evacuation-scan workload: an even mix of pure-data records (no
/// pointer fields) and records whose pointer fields are sparse (4 of
/// 20) — the two shapes the batched mask walk exploits.
pub struct EvacRig {
    mem: Memory,
    from: [SpaceRange; 1],
    to: Space,
    owners: Vec<Addr>,
    stats: GcStats,
    /// Heap words visited by one full pass.
    pub words_per_pass: u64,
}

impl EvacRig {
    /// Builds the fixed workload: 4096 twenty-field records. Odd-indexed
    /// records are raw data (empty pointer mask); even-indexed ones have
    /// four pointer fields aimed at a pool of old-generation targets.
    pub fn new() -> EvacRig {
        let mut mem = Memory::with_capacity_words(1 << 20);
        let from = [mem.reserve(1 << 10).expect("reserve from")];
        let to = Space::new(mem.reserve(1 << 10).expect("reserve to"));
        let mut old = Space::new(mem.reserve(256 << 10).expect("reserve old"));

        let targets: Vec<Addr> = (0..512)
            .map(|i| {
                object::alloc_record(&mut mem, &mut old, SiteId::new(1), &[i], 0)
                    .expect("target alloc")
            })
            .collect();
        let ptr_mask = 1 | (1 << 7) | (1 << 13) | (1 << 19);
        let mut words_per_pass = 0u64;
        let owners: Vec<Addr> = (0..4096u64)
            .map(|n| {
                let mut fields = [0u64; 20];
                for (j, f) in fields.iter_mut().enumerate() {
                    *f = n * 31 + j as u64;
                }
                let mask = if n % 2 == 0 {
                    for (k, i) in [0usize, 7, 13, 19].into_iter().enumerate() {
                        let t = targets[((n as usize) * 4 + k) % targets.len()];
                        fields[i] = u64::from(t.raw());
                    }
                    ptr_mask
                } else {
                    0
                };
                words_per_pass += 21;
                object::alloc_record(&mut mem, &mut old, SiteId::new(2), &fields, mask)
                    .expect("owner alloc")
            })
            .collect();
        EvacRig {
            mem,
            from,
            to,
            owners,
            stats: GcStats::default(),
            words_per_pass,
        }
    }

    /// One batched scan pass over every owner; returns words visited.
    pub fn scan_pass(&mut self) -> u64 {
        let mut ev = Evacuator::new(
            &mut self.mem,
            &self.from,
            &mut self.to,
            None,
            None,
            None,
            &mut self.stats,
            CostModel::default(),
        );
        for &o in &self.owners {
            ev.scan_in_place(o, false);
        }
        self.words_per_pass
    }

    /// One reference (pre-batching) scan pass; returns words visited.
    pub fn scan_pass_reference(&mut self) -> u64 {
        let mut ev = Evacuator::new(
            &mut self.mem,
            &self.from,
            &mut self.to,
            None,
            None,
            None,
            &mut self.stats,
            CostModel::default(),
        );
        for &o in &self.owners {
            ev.scan_in_place_reference(o, false);
        }
        self.words_per_pass
    }
}

impl Default for EvacRig {
    fn default() -> Self {
        EvacRig::new()
    }
}

/// Stack-scan workload: a 256-frame stack of fully static frames
/// (4 pointer slots of 16), the shape the precompiled bitmaps serve.
pub struct StackRig {
    m: MutatorState,
    stats: GcStats,
    /// Frames decoded by one full scan.
    pub frames_per_pass: u64,
}

impl StackRig {
    /// Builds the fixed stack. Shadow checking is off, as in every
    /// measured configuration, which enables the bitmap fast path.
    pub fn new() -> StackRig {
        let mut m = MutatorState::new();
        m.check_shadows = false;
        let mut d = FrameDesc::new("kernels::static_frame");
        for _ in 0..4 {
            d = d.slots(3, Trace::NonPointer).slot(Trace::Pointer);
        }
        let desc = m.traces.register(d);
        for n in 0..256u32 {
            m.stack.push(desc, 16);
            for i in [3usize, 7, 11, 15] {
                m.stack.top_mut().set(i, Value::Ptr(Addr::new(64 + n)));
            }
        }
        let frames_per_pass = m.stack.depth() as u64;
        StackRig {
            m,
            stats: GcStats::default(),
            frames_per_pass,
        }
    }

    /// One full bitmap-path scan; returns frames decoded.
    pub fn scan_pass(&mut self) -> u64 {
        let out = scan_stack(&mut self.m, None, MarkerPolicy::Disabled, &mut self.stats);
        debug_assert_eq!(out.new_roots.len(), 256 * 4);
        self.frames_per_pass
    }

    /// One full reference (per-slot decode) scan; returns frames decoded.
    pub fn scan_pass_reference(&mut self) -> u64 {
        let out = scan_stack_reference(&mut self.m, None, MarkerPolicy::Disabled, &mut self.stats);
        debug_assert_eq!(out.new_roots.len(), 256 * 4);
        self.frames_per_pass
    }
}

impl Default for StackRig {
    fn default() -> Self {
        StackRig::new()
    }
}

/// Store-buffer workload: 200k recorded pointer updates over 512 distinct
/// fields — the "mutated site recorded repeatedly" pathology of §4.
pub struct SsbRig {
    mem: Memory,
    from: [SpaceRange; 1],
    to: Space,
    stats: GcStats,
    locs: Vec<Addr>,
    /// Reused batch buffer: minor collections drain the store buffer
    /// into a long-lived vector rather than allocating one per GC.
    scratch: Vec<Addr>,
    /// Recorded entries filtered by one pass.
    pub entries_per_pass: u64,
}

impl SsbRig {
    /// Builds the fixed store buffer.
    pub fn new() -> SsbRig {
        let mut mem = Memory::with_capacity_words(64 << 10);
        let from = [mem.reserve(1 << 10).expect("reserve from")];
        let to = Space::new(mem.reserve(1 << 10).expect("reserve to"));
        let mut old = Space::new(mem.reserve(16 << 10).expect("reserve old"));
        let target =
            object::alloc_record(&mut mem, &mut old, SiteId::new(1), &[9], 0).expect("target");
        let fields: Vec<Addr> = (0..512)
            .map(|_| {
                let r = object::alloc_record(
                    &mut mem,
                    &mut old,
                    SiteId::new(2),
                    &[u64::from(target.raw())],
                    0b1,
                )
                .expect("record");
                object::field_addr(r, 0)
            })
            .collect();
        // Scatter duplicates in a fixed pseudo-random order (Knuth's
        // multiplicative hash) so the batched pass really sorts.
        let locs: Vec<Addr> = (0..200_000usize)
            .map(|i| fields[(i.wrapping_mul(2654435761)) % fields.len()])
            .collect();
        let entries_per_pass = locs.len() as u64;
        let scratch = Vec::with_capacity(locs.len());
        SsbRig {
            mem,
            from,
            to,
            stats: GcStats::default(),
            locs,
            scratch,
            entries_per_pass,
        }
    }

    /// One batched filter pass (sort + dedup + forward); returns entries.
    pub fn filter_pass(&mut self) -> u64 {
        self.scratch.clear();
        self.scratch.extend_from_slice(&self.locs);
        let mut ev = Evacuator::new(
            &mut self.mem,
            &self.from,
            &mut self.to,
            None,
            None,
            None,
            &mut self.stats,
            CostModel::default(),
        );
        ev.forward_field_locs(&mut self.scratch);
        self.entries_per_pass
    }

    /// One reference pass (forward every recorded entry); returns entries.
    pub fn filter_pass_reference(&mut self) -> u64 {
        let mut ev = Evacuator::new(
            &mut self.mem,
            &self.from,
            &mut self.to,
            None,
            None,
            None,
            &mut self.stats,
            CostModel::default(),
        );
        ev.forward_field_locs_reference(&self.locs);
        self.entries_per_pass
    }
}

impl Default for SsbRig {
    fn default() -> Self {
        SsbRig::new()
    }
}

/// Write-barrier filter workload: 200k pointer updates over 4096
/// distinct objects — the dedup filter the object-marking barrier runs
/// on every mutator store. The batched pass is the shipping branch-free
/// side-bitmap test-and-set plus one bulk sweep to retire the bits; the
/// reference pass is the scalar test-branch-set filter plus the old
/// per-object clear walk.
pub struct BarrierRig {
    mem: Memory,
    range: SpaceRange,
    updates: Vec<Addr>,
    objs: Vec<Addr>,
    /// Recorded updates filtered by one pass.
    pub updates_per_pass: u64,
}

impl BarrierRig {
    /// Builds the fixed update stream (Knuth multiplicative scatter, as
    /// in [`SsbRig`], so consecutive updates rarely hit the same word of
    /// the bitmap).
    pub fn new() -> BarrierRig {
        let mut mem = Memory::with_capacity_words(64 << 10);
        let range = mem.reserve(32 << 10).expect("reserve old");
        let mut old = Space::new(range);
        let objs: Vec<Addr> = (0..4096)
            .map(|i| {
                object::alloc_record(&mut mem, &mut old, SiteId::new(1), &[i], 0).expect("record")
            })
            .collect();
        let updates: Vec<Addr> = (0..200_000usize)
            .map(|i| objs[(i.wrapping_mul(2654435761)) % objs.len()])
            .collect();
        let updates_per_pass = updates.len() as u64;
        BarrierRig {
            mem,
            range,
            updates,
            objs,
            updates_per_pass,
        }
    }

    /// One branch-free filter pass over the update stream, then one bulk
    /// sweep to retire the dirty bits; returns the updates that would
    /// have been recorded (first touch of each object).
    pub fn filter_pass(&mut self) -> u64 {
        let mut recorded = 0u64;
        for &obj in &self.updates {
            recorded += u64::from(!self.mem.dirty_test_and_set(obj));
        }
        self.mem.bulk_clear_dirty(self.range, self.range.end);
        recorded
    }

    /// One scalar (test, branch, conditional set) filter pass, then the
    /// old per-object clear walk; returns the recorded count.
    pub fn filter_pass_reference(&mut self) -> u64 {
        let mut recorded = 0u64;
        for &obj in &self.updates {
            recorded += u64::from(!self.mem.dirty_test_and_set_reference(obj));
        }
        for &obj in &self.objs {
            self.mem.clear_dirty(obj);
        }
        recorded
    }
}

impl Default for BarrierRig {
    fn default() -> Self {
        BarrierRig::new()
    }
}

/// Bulk-clear workload: the `memset`-style word sweep collectors run
/// over a vacated space's dirty bits, measured over a 64 MB heap range
/// (8 Mi words — a bitmap sweep of 1 MB per pass). Throughput is
/// reported as *heap* megabytes retired per second, the unit the
/// collector reasons in.
pub struct BulkClearRig {
    mem: Memory,
    range: SpaceRange,
    /// Heap megabytes whose metadata one pass retires.
    pub heap_mb_per_pass: f64,
}

impl BulkClearRig {
    /// Builds the 64 MB range with a scattering of set bits (the sweep
    /// is word-wise, so the bit population does not affect its cost).
    pub fn new() -> BulkClearRig {
        let mut mem = Memory::with_capacity_bytes(64 << 20);
        let words = mem.capacity_words() - 8;
        let range = mem.reserve(words).expect("reserve range");
        for i in 0..words / 4096 {
            mem.set_dirty(range.start + i * 4096 + 1);
        }
        let heap_mb_per_pass = (words as f64) * 8.0 / (1u64 << 20) as f64;
        BulkClearRig {
            mem,
            range,
            heap_mb_per_pass,
        }
    }

    /// One bulk sweep over the whole range; returns heap words covered.
    pub fn clear_pass(&mut self) -> u64 {
        self.mem.bulk_clear_dirty(self.range, self.range.end)
    }
}

impl Default for BulkClearRig {
    fn default() -> Self {
        BulkClearRig::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evac_passes_agree_and_are_idempotent() {
        let mut rig = EvacRig::new();
        let w1 = rig.scan_pass();
        let w2 = rig.scan_pass_reference();
        assert_eq!(w1, w2);
        assert_eq!(w1, 4096 * 21);
        assert_eq!(rig.stats.copied_bytes, 0, "nothing is ever in from-space");
    }

    #[test]
    fn stack_passes_agree() {
        let mut rig = StackRig::new();
        assert_eq!(rig.scan_pass(), 256);
        assert_eq!(rig.scan_pass_reference(), 256);
        assert_eq!(rig.stats.frames_scanned, 512);
        let cycles_one_pass = rig.stats.stack_cycles / 2;
        assert_eq!(
            rig.stats.stack_cycles,
            cycles_one_pass * 2,
            "both paths charge identical simulated cycles"
        );
    }

    #[test]
    fn ssb_passes_agree() {
        let mut rig = SsbRig::new();
        assert_eq!(rig.filter_pass(), 200_000);
        assert_eq!(rig.filter_pass_reference(), 200_000);
        assert_eq!(rig.stats.copied_bytes, 0);
    }

    #[test]
    fn barrier_passes_agree_and_are_idempotent() {
        let mut rig = BarrierRig::new();
        // Every distinct object records exactly once per pass, on both
        // paths, on repeated passes (each pass retires its own bits).
        assert_eq!(rig.filter_pass(), 4096);
        assert_eq!(rig.filter_pass(), 4096);
        assert_eq!(rig.filter_pass_reference(), 4096);
        assert_eq!(rig.filter_pass(), 4096);
    }

    #[test]
    fn bulk_clear_covers_the_whole_range() {
        let mut rig = BulkClearRig::new();
        let words = rig.clear_pass();
        assert_eq!(words, rig.clear_pass(), "idempotent");
        assert!(
            (rig.heap_mb_per_pass - (words as f64) * 8.0 / (1u64 << 20) as f64).abs() < 1e-9,
            "advertised MB matches words covered"
        );
        assert!(rig.heap_mb_per_pass > 63.9, "nearly the full 64 MB range");
    }
}
