//! The semispace baseline plan (§2.1).
//!
//! One [`CopySpace`] is the whole heap: allocation bumps through the
//! active half, and a full collection evacuates survivors into the
//! other. After each collection the heap is resized toward the target liveness ratio `r = 0.10` ("if the liveness
//! ratio after a collection was r′, then the heap is resized by the
//! factor r′/r"), capped by the experiment's memory budget `k · Min`.
//!
//! §7.1 notes that generational *stack* collection is orthogonal to heap
//! generations, so this plan too accepts a [`MarkerPolicy`] — the
//! ablation benches compare semispace collection with and without scan
//! caching.

use tilgc_mem::{Addr, Arena, BudgetSnapshot, GcError, Memory, Space};
use tilgc_runtime::{
    AllocShape, CollectReason, CollectionEnd, Collector, GcStats, HeapProfile, MutatorState,
};

use crate::config::GcConfig;
use crate::cycle::{Cycle, PlanBase, Release, TraceSpaces};
use crate::evac::{poison_range, sweep_profile_deaths};
use crate::governor::{self, Governed, Ladder, Recovery};
use crate::space::CopySpace;

/// Resizing target liveness ratio (`r` = 0.10 in §2.1).
const TARGET_LIVENESS: f64 = 0.10;

/// The semispace (Fenichel–Yochelson/Cheney) plan.
pub struct SemispacePlan {
    heap: CopySpace,
    budget_words: usize,
    base: PlanBase,
}

impl SemispacePlan {
    /// Creates a semispace plan within `config.heap_budget_bytes` of
    /// total memory (each semispace gets half), and the [`Memory`] it
    /// reserved its semispaces in — the `Vm`'s to own, and the one every
    /// entry point of this plan must be handed.
    ///
    /// # Panics
    ///
    /// Panics if the budget is too small to hold even two one-kilobyte
    /// semispaces.
    pub fn new(config: &GcConfig) -> (SemispacePlan, Memory) {
        let budget_words = config.heap_budget_words();
        let semi = budget_words / 2;
        assert!(
            semi >= 128,
            "semispace budget too small: {} bytes",
            config.heap_budget_bytes
        );
        let mut mem = Memory::with_capacity_words(budget_words + 16);
        let a = Space::new(
            mem.reserve_owned(semi, "semispace")
                .expect("semispace reservation"),
        );
        let b = Space::new(
            mem.reserve_owned(semi, "semispace")
                .expect("semispace reservation"),
        );
        let plan = SemispacePlan {
            heap: CopySpace::new("semispace", a, b),
            budget_words,
            base: PlanBase::new(config),
        };
        (plan, mem)
    }

    fn do_collect(&mut self, mem: &mut Memory, m: &mut MutatorState, reason: &'static str) {
        // Every semispace collection traces the whole heap.
        let mut cycle = Cycle::begin(&mut self.base, mem, m, "semispace", reason, true);
        let from_range = self.heap.active().range();
        let from_frontier = self.heap.active().frontier();
        let to_space = self.heap.inactive_mut();
        to_space.set_limit_words(to_space.max_capacity_words());
        let spaces = TraceSpaces {
            from: &[from_range],
            to: to_space,
            nursery: None,
            los: None,
            survivor: None,
            // Every collection moves everything, so cached frames' roots
            // must be processed too — the cache saves only the decode cost.
            expand_cached: true,
        };
        cycle.trace(&mut self.base, mem, m, spaces).drain();

        // A semispace plan needs no write barrier; discard anything an
        // embedder recorded anyway.
        m.barrier.drain(|_| {});

        sweep_profile_deaths(
            mem,
            self.base.profile.as_mut(),
            from_range.start,
            from_frontier,
        );
        poison_range(mem, from_range, from_frontier);
        // The vacated half drops any barrier dirty bits an embedder set
        // in one word sweep (the plan itself records none).
        mem.bulk_clear_dirty(from_range, from_frontier);
        self.heap.active_mut().reset();
        self.heap.flip();
        let live_words = self.heap.active().used_words();

        // Resize toward the target liveness ratio, within the budget.
        let desired = (live_words as f64 / TARGET_LIVENESS) as usize;
        let cap = self.budget_words / 2;
        let new_size = desired.clamp((live_words + 512).min(cap), cap);
        self.heap.set_limit_words(new_size);

        let release = Release {
            live_words,
            pretenured: None,
            copy_spaces: &[&self.heap],
            los: None,
        };
        cycle.finish(&mut self.base, mem, m, release);
    }

    /// Exit from the collector: the active half is the mutator's to bump
    /// through, arrays of any size included (there is no large-object
    /// space to route them to).
    fn leave(&mut self, m: &mut MutatorState) {
        self.base
            .leave(m, self.heap.active_mut(), usize::MAX, false);
    }
}

impl Governed for SemispacePlan {
    fn stats_mut(&mut self) -> &mut GcStats {
        &mut self.base.stats
    }

    #[inline]
    fn place(&mut self, _arena: Arena, words: usize) -> Option<Addr> {
        self.heap.active_mut().alloc(words).ok()
    }

    /// Every semispace collection is a full one, whatever the step.
    fn recover(&mut self, mem: &mut Memory, m: &mut MutatorState, _step: Recovery) {
        self.do_collect(mem, m, "alloc-failure");
    }
}

impl Collector for SemispacePlan {
    fn name(&self) -> &'static str {
        "semispace"
    }

    fn alloc(
        &mut self,
        mem: &mut Memory,
        m: &mut MutatorState,
        shape: AllocShape,
    ) -> Result<Addr, GcError> {
        PlanBase::enter(m, self.heap.active_mut());
        let words = shape.size_words();
        // The semispace plan's single heap plays the tenured role.
        let ladder = &Ladder::FULL_COLLECTION;
        let result =
            match governor::allocate(self, mem, m, Arena::Tenured, ladder, shape.site(), words) {
                Ok(addr) => {
                    shape.write(mem, addr, &m.alloc_buf);
                    if let Some(p) = self.base.profile.as_mut() {
                        p.on_alloc(shape.site(), shape.size_bytes());
                    }
                    Ok(addr)
                }
                Err(session) => {
                    session.finish(m, "exhausted");
                    Err(GcError {
                        arena: Arena::Tenured,
                        kind: shape.kind(),
                        requested_words: words,
                        budget: BudgetSnapshot {
                            budget_words: self.budget_words,
                            free_words: self.heap.active().free_words(),
                            live_words: self.heap.active().used_words(),
                        },
                    })
                }
            };
        self.leave(m);
        result
    }

    fn collect(&mut self, mem: &mut Memory, m: &mut MutatorState, reason: CollectReason) {
        PlanBase::enter(m, self.heap.active_mut());
        self.do_collect(mem, m, reason.as_str());
        self.leave(m);
    }

    fn gc_stats(&self) -> &GcStats {
        &self.base.stats
    }

    fn finish(&mut self, _mem: &mut Memory, m: &mut MutatorState) {
        PlanBase::enter(m, self.heap.active_mut());
        self.leave(m);
    }

    fn take_profile(&mut self) -> Option<HeapProfile> {
        self.base.take_profile()
    }

    fn last_inspection(&self) -> Option<&CollectionEnd> {
        self.base.inspection.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tilgc_runtime::{FrameDesc, Trace, Value, Vm};

    fn vm(budget: usize) -> Vm {
        let config = GcConfig::new().heap_budget_bytes(budget);
        let mut m = MutatorState::new();
        m.barrier = tilgc_runtime::WriteBarrier::None;
        let (plan, mem) = SemispacePlan::new(&config);
        Vm::with_mutator(m, Box::new(plan), mem)
    }

    #[test]
    fn allocation_triggers_collection_and_survivors_live() {
        let mut vm = vm(16 << 10); // 16 KB budget → two 8 KB semispaces
        let site = vm.site("t::rec");
        let d = vm.register_frame(FrameDesc::new("t").slot(Trace::Pointer));
        vm.push_frame(d);
        let first = vm
            .alloc_record(site, &[Value::Int(41), Value::Int(42)])
            .unwrap();
        vm.set_slot(0, Value::Ptr(first));
        // Allocate enough garbage to force several collections.
        for i in 0..2000 {
            let _ = vm.alloc_record(site, &[Value::Int(i), Value::Int(i)]);
        }
        let collections = vm.gc_stats().collections;
        assert!(collections > 0);
        let root = vm.slot_ptr(0);
        if collections % 2 == 1 {
            // After an odd number of flips the survivor is in the other
            // semispace; after an even number it may be back at the same
            // address.
            assert_ne!(root, first, "the root was relocated");
        }
        let v = vm.load_int(root, 1);
        assert_eq!(v, 42, "survivor data intact after collections");
    }

    #[test]
    fn collections_preserve_linked_structures() {
        let mut vm = vm(64 << 10);
        let site = vm.site("t::cons");
        let d = vm.register_frame(FrameDesc::new("t").slot(Trace::Pointer));
        vm.push_frame(d);
        // Build a 50-cell list rooted in slot 0, interleaved with garbage.
        vm.set_slot(0, Value::NULL);
        for i in 0..50 {
            let tail = vm.slot_ptr(0);
            let cell = vm
                .alloc_record(site, &[Value::Int(i), Value::Ptr(tail)])
                .unwrap();
            vm.set_slot(0, Value::Ptr(cell));
            for _ in 0..100 {
                let _ = vm.alloc_record(site, &[Value::Int(0), Value::NULL]);
            }
        }
        assert!(vm.gc_stats().collections > 1);
        // Walk the list: 49, 48, ..., 0.
        let mut cur = vm.slot_ptr(0);
        for expect in (0..50).rev() {
            assert_eq!(vm.load_int(cur, 0), expect);
            cur = vm.load_ptr(cur, 1);
        }
        assert!(cur.is_null());
    }

    #[test]
    fn budget_exhaustion_is_a_typed_error() {
        let mut vm = vm(8 << 10);
        let site = vm.site("t::keep");
        let d = vm.register_frame(FrameDesc::new("t").slot(Trace::Pointer));
        vm.push_frame(d);
        // Retain an ever-growing list until the budget bursts.
        vm.set_slot(0, Value::NULL);
        let overflow = loop {
            let tail = vm.slot_ptr(0);
            match vm.alloc_ptr_array(site, 16, tail) {
                Ok(cell) => vm.set_slot(0, Value::Ptr(cell)),
                Err(overflow) => break overflow,
            }
        };
        // No handler was installed, so the raise went uncaught.
        assert!(matches!(
            overflow.outcome,
            tilgc_runtime::RaiseOutcome::Uncaught
        ));
        let err = overflow.error;
        assert_eq!(err.kind, tilgc_mem::ObjectKind::PtrArray);
        assert_eq!(err.arena, Arena::Tenured);
        assert!(err.requested_words >= 16);
        let budget = err.budget;
        assert_eq!(budget.budget_words, (8 << 10) / 8);
        assert!(budget.live_words <= budget.budget_words);
        let msg = err.to_string();
        assert!(msg.contains("tenured space exhausted"), "got: {msg}");
        // The heap stays usable after the failed allocation.
        vm.set_slot(0, Value::NULL);
        vm.gc_now();
        assert!(vm.alloc_record(site, &[Value::Int(1)]).is_ok());
    }

    #[test]
    fn resizing_respects_budget_cap() {
        let config = GcConfig::new().heap_budget_bytes(32 << 10);
        let (c, _mem) = SemispacePlan::new(&config);
        assert_eq!(c.heap.active().capacity_words(), (32 << 10) / 8 / 2);
    }

    #[test]
    fn stats_accumulate() {
        let mut vm = vm(16 << 10);
        let site = vm.site("t::x");
        for _ in 0..5000 {
            let _ = vm.alloc_record(site, &[Value::Int(1)]);
        }
        let s = vm.gc_stats();
        assert!(s.collections >= 2);
        assert!(s.gc_cycles() > 0);
        assert_eq!(s.major_collections, 0);
        assert!(vm.mutator_stats().alloc_bytes >= 5000 * 16);
    }

    #[test]
    fn profiling_semispace_records_sites() {
        let config = GcConfig::new().heap_budget_bytes(16 << 10).profiling(true);
        let mut m = MutatorState::new();
        m.barrier = tilgc_runtime::WriteBarrier::None;
        let (plan, mem) = SemispacePlan::new(&config);
        let mut vm = Vm::with_mutator(m, Box::new(plan), mem);
        let site = vm.site("t::p");
        for _ in 0..2000 {
            let _ = vm.alloc_record(site, &[Value::Int(1)]);
        }
        vm.finish();
        let profile = vm.take_profile().expect("profiling was enabled");
        let row = profile.site(site).expect("site seen");
        assert_eq!(row.alloc_objects, 2000);
        assert_eq!(row.old_percent(), 0.0, "all garbage died young");
    }
}
