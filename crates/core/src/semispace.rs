//! The semispace baseline plan (§2.1).
//!
//! One [`CopySpace`] is the whole heap: allocation bumps through the
//! active half, and a full collection evacuates survivors into the other
//! ([`CopySemantics::Evacuate`]). After each collection the heap is
//! resized toward the target liveness ratio `r = 0.10` ("if the liveness
//! ratio after a collection was r′, then the heap is resized by the
//! factor r′/r"), capped by the experiment's memory budget `k · Min`.
//!
//! §7.1 notes that generational *stack* collection is orthogonal to heap
//! generations, so this plan too accepts a [`MarkerPolicy`] — the
//! ablation benches compare semispace collection with and without scan
//! caching.

use std::time::Instant;

use tilgc_mem::{Addr, BudgetSnapshot, GcError, Memory, Space};
use tilgc_obs::{
    CollectionBegin, DegradationBegin, DegradationEnd, Event, GcPhase, HeapCensus, PhaseTimer,
    SpaceCensus, TelemetryAcc,
};
use tilgc_runtime::{
    AllocShape, CollectReason, CollectionInspection, GcStats, HeapProfile, MutatorState,
};

use crate::config::{GcConfig, MarkerPolicy};
use crate::evac::{poison_range, sweep_profile_deaths, Evacuator};
use crate::governor::{PressureRung, PressureSession};
use crate::plan::Plan;
use crate::roots::{append_cached_roots, scan_stack, ScanCache};
use crate::scheduler::WorkerFaultSpec;
use crate::space::{CopySemantics, CopySpace};
use crate::util::{alloc_in_space, build_collection_end, build_inspection, reason_str};

/// The semispace (Fenichel–Yochelson/Cheney) plan.
pub struct SemispacePlan {
    mem: Memory,
    heap: CopySpace,
    budget_words: usize,
    target_liveness: f64,
    marker_policy: MarkerPolicy,
    cache: Option<ScanCache>,
    profile: Option<HeapProfile>,
    stats: GcStats,
    inspection: Option<CollectionInspection>,
    /// Telemetry accumulator, allocated lazily the first time a
    /// collection or allocation runs with an enabled recorder installed.
    telem: Option<TelemetryAcc>,
    workers: usize,
    packet_reorder: bool,
    /// Injected worker fault, armed until its one shot fires (the spec
    /// is per-run, not per-collection).
    worker_fault: Option<WorkerFaultSpec>,
    fault_fired: bool,
    watchdog_ms: Option<u64>,
    worker_cycle_budget: Option<u64>,
    track_ttsp: bool,
}

impl SemispacePlan {
    /// Creates a semispace plan within `config.heap_budget_bytes` of
    /// total memory (each semispace gets half).
    ///
    /// # Panics
    ///
    /// Panics if the budget is too small to hold even two one-kilobyte
    /// semispaces.
    pub fn new(config: &GcConfig) -> SemispacePlan {
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
        SemispacePlan {
            mem,
            heap: CopySpace::new("semispace", CopySemantics::Evacuate, a, b),
            budget_words,
            target_liveness: config.semispace_target_liveness,
            marker_policy: config.marker_policy,
            cache: config.marker_policy.is_enabled().then(ScanCache::default),
            profile: config.profiling.then(HeapProfile::new),
            stats: GcStats::default(),
            inspection: None,
            telem: None,
            workers: config.workers,
            packet_reorder: config.packet_reorder,
            worker_fault: config.worker_fault,
            fault_fired: false,
            watchdog_ms: config.watchdog_ms,
            worker_cycle_budget: config.worker_cycle_budget,
            track_ttsp: config.track_ttsp,
        }
    }

    /// Capacity of one semispace right now, in words.
    pub fn semispace_words(&self) -> usize {
        self.heap.active().capacity_words()
    }

    /// Whether `words` fit in the active half right now. Consumes one
    /// forced-failure token first, so fault injection fails each
    /// *attempt* (not each logical allocation) and exercises the ladder.
    fn attempt_fits(&self, m: &mut MutatorState, words: usize) -> bool {
        !m.consume_forced_failure() && self.heap.active().fits(words)
    }

    fn budget_snapshot(&self) -> BudgetSnapshot {
        BudgetSnapshot {
            budget_words: self.budget_words,
            free_words: self.heap.active().free_words(),
            live_words: self.heap.active().used_words(),
        }
    }

    /// Bump-allocates into the active half (which was checked to fit)
    /// and records the allocation in the heap profile.
    fn finish_alloc(&mut self, m: &mut MutatorState, shape: AllocShape) -> Addr {
        let buf = std::mem::take(&mut m.alloc_buf);
        let addr = alloc_in_space(&mut self.mem, self.heap.active_mut(), shape, &buf)
            .expect("space was checked to fit");
        m.alloc_buf = buf;
        if let Some(p) = self.profile.as_mut() {
            p.on_alloc(addr, shape.site(), shape.size_bytes());
        }
        addr
    }

    fn do_collect(&mut self, m: &mut MutatorState, reason: &'static str) {
        let wall_start = Instant::now();
        let stats_before = self.stats;
        let side_cleared_before = self.mem.side_cleared_words();
        let depth_at_gc = m.stack.depth();
        // TTSP is read before any GC work so the distance reflects the
        // mutator's position when the collection took over.
        let ttsp_cycles = if self.track_ttsp {
            m.cycles_since_safepoint()
        } else {
            0
        };
        let mut timer = None;
        if m.recorder.is_enabled() {
            self.telem
                .get_or_insert_with(TelemetryAcc::default)
                .note_depth(depth_at_gc as u64);
            m.recorder.record(Event::CollectionBegin(CollectionBegin {
                collection: self.stats.collections + 1,
                plan: "semispace",
                reason,
                // Every semispace collection traces the whole heap.
                major: true,
                depth: depth_at_gc as u64,
                start_cycles: m.stats.client_cycles + self.stats.gc_cycles(),
                ttsp_cycles,
            }));
            timer = Some(PhaseTimer::start(self.stats.gc_cycles()));
        }
        self.stats.collections += 1;
        self.stats.depth_at_gc_sum += depth_at_gc as u64;
        self.stats.other_cycles += m.cost.gc_base;
        if let Some(t) = timer.as_mut() {
            t.mark(GcPhase::Setup, self.stats.gc_cycles());
        }

        // --- root processing (GC-stack) ---
        let stack_t0 = Instant::now();
        let outcome = scan_stack(m, self.cache.as_mut(), self.marker_policy, &mut self.stats);
        if let Some(t) = timer.as_mut() {
            t.mark(GcPhase::StackDecode, self.stats.gc_cycles());
        }
        let scan_claim = (outcome.claimed_prefix, outcome.oracle_prefix);
        // Every collection moves everything, so cached frames' roots must
        // be processed too — the cache saves only the decode cost.
        let mut roots = outcome.new_roots;
        append_cached_roots(self.cache.as_ref(), outcome.reused_frames, &mut roots);

        let from_range = self.heap.active().range();
        let from_frontier = self.heap.active().frontier();
        let from_used = from_frontier - from_range.start;
        let from_ranges = [from_range];
        let to_space = self.heap.inactive_mut();
        to_space.set_limit_words(to_space.max_capacity_words());
        // Parallel lane needs headroom for abandoned chunk tails; tight
        // heaps and profiling runs fall back to the serial oracle.
        let parallel = self.workers > 1
            && self.profile.is_none()
            && to_space.free_words()
                >= from_used + crate::scheduler::slack_budget_words(self.workers);
        let mut evac = Evacuator::new(
            &mut self.mem,
            &from_ranges,
            to_space,
            None,
            None,
            self.profile.as_mut(),
            &mut self.stats,
            m.cost,
        );
        if let Some(t) = self.telem.as_mut().filter(|_| timer.is_some()) {
            evac.set_telemetry(t);
        }
        if parallel {
            evac.set_workers(self.workers, self.packet_reorder);
            if !self.fault_fired {
                evac.set_worker_fault(self.worker_fault);
            }
            evac.set_watchdog_ms(self.watchdog_ms);
            evac.set_cycle_budget(self.worker_cycle_budget);
        }
        evac.forward_roots(m, &roots);
        if let Some(t) = timer.as_mut() {
            t.mark(GcPhase::RootScan, evac.current_gc_cycles());
        }
        let stack_ns = stack_t0.elapsed().as_nanos() as u64;

        // --- copying (GC-copy) ---
        let copy_t0 = Instant::now();
        evac.drain();
        if let Some(t) = timer.as_mut() {
            t.mark(GcPhase::CheneyCopy, evac.current_gc_cycles());
        }
        let copy_ns = copy_t0.elapsed().as_nanos() as u64;
        let workers_used = if evac.parallel() {
            self.workers as u64
        } else {
            1
        };
        let worker_copied = evac.worker_copied().to_vec();
        let fault_fired = evac.fault_fired();
        let workers_lost = evac.workers_lost();
        let degraded = evac.degraded();
        let degrade_trigger = evac.degrade_trigger();
        let leftover_packets = evac.leftover_packets();

        // A semispace plan needs no write barrier; discard anything an
        // embedder recorded anyway.
        m.barrier.drain(|_| {});

        sweep_profile_deaths(
            &self.mem,
            self.profile.as_mut(),
            from_range.start,
            from_frontier,
        );
        poison_range(&mut self.mem, from_range, from_frontier);
        // The vacated half drops any barrier dirty bits an embedder set
        // in one word sweep (the plan itself records none).
        self.mem.bulk_clear_dirty(from_range, from_frontier);
        self.heap.active_mut().reset();
        self.heap.flip();
        let live_words = self.heap.active().used_words();

        // Resize toward the target liveness ratio, within the budget.
        let desired = (live_words as f64 / self.target_liveness) as usize;
        let cap = self.budget_words / 2;
        let new_size = desired.clamp((live_words + 512).min(cap), cap);
        self.heap.set_limit_words(new_size);

        if fault_fired {
            self.fault_fired = true;
        }
        self.stats.workers_lost += workers_lost;
        self.stats.degraded_collections += u64::from(degraded);
        self.stats
            .note_live_bytes(tilgc_mem::words_to_bytes(live_words) as u64);
        self.stats.stack_wall_ns += stack_ns;
        self.stats.copy_wall_ns += copy_ns;
        let total_ns = wall_start.elapsed().as_nanos() as u64;
        self.stats.total_wall_ns += total_ns;
        crate::verify::check_worker_accounting(
            workers_used,
            &worker_copied,
            self.stats.copied_bytes - stats_before.copied_bytes,
        );
        // A semispace collection traces the whole heap.
        self.inspection = Some(build_inspection(
            &stats_before,
            &self.stats,
            true,
            depth_at_gc,
            true,
            scan_claim,
        ));
        if let Some(timer) = timer {
            let collection = self.stats.collections;
            for e in timer.into_events(collection) {
                m.recorder.record(e);
            }
            let telem = self.telem.as_mut().expect("allocated when recording");
            let insp = self.inspection.as_ref().expect("just built");
            let end_cycles = m.stats.client_cycles + self.stats.gc_cycles();
            m.recorder
                .record(Event::CollectionEnd(Box::new(build_collection_end(
                    &stats_before,
                    &self.stats,
                    insp,
                    telem,
                    end_cycles,
                    total_ns,
                    workers_used,
                    worker_copied,
                    self.mem.owned_chunks() as u64,
                    self.mem.side_cleared_words() - side_cleared_before,
                ))));
            // A degradation episode brackets right behind the end event,
            // like a census: the affected collection has already closed
            // with the exact serial answer.
            if degraded {
                m.recorder.record(Event::DegradationBegin(DegradationBegin {
                    collection,
                    trigger: degrade_trigger.unwrap_or("orphan"),
                    workers: workers_used,
                    workers_lost,
                }));
                m.recorder.record(Event::DegradationEnd(DegradationEnd {
                    collection,
                    leftover_packets,
                    outcome: "drained",
                }));
            }
            // Census behind the end event: one row for the single copy
            // space. Host-side reads only — no simulated cycles.
            m.recorder.record(Event::HeapCensus(HeapCensus {
                collection,
                pretenured_sites: 0,
                spaces: vec![SpaceCensus {
                    space: "semispace",
                    used_words: self.heap.active().used_words() as u64,
                    reserved_words: self.heap.active().capacity_words() as u64,
                    chunks: self.mem.owned_chunks_by("semispace") as u64,
                }],
            }));
            for e in telem.drain_samples(collection) {
                m.recorder.record(e);
            }
        }
    }
}

impl Plan for SemispacePlan {
    fn name(&self) -> &'static str {
        "semispace"
    }

    fn memory(&self) -> &Memory {
        &self.mem
    }

    fn memory_mut(&mut self) -> &mut Memory {
        &mut self.mem
    }

    fn alloc(&mut self, m: &mut MutatorState, shape: AllocShape) -> Result<Addr, GcError> {
        let words = shape.size_words();
        if m.recorder.is_enabled() {
            self.telem
                .get_or_insert_with(TelemetryAcc::default)
                .note_alloc(shape.site().get(), shape.size_bytes() as u64);
        }
        if self.attempt_fits(m, words) {
            return Ok(self.finish_alloc(m, shape));
        }
        // Ordinary slow path: one collection, no pressure episode yet.
        self.do_collect(m, "alloc-failure");
        if self.attempt_fits(m, words) {
            return Ok(self.finish_alloc(m, shape));
        }
        // The slow path failed: open a pressure episode and climb the
        // ladder. A single-space plan has only the retry-major rung.
        let mut session = PressureSession::begin(
            m,
            &mut self.stats,
            shape.site().get(),
            words as u64,
            "tenured",
        );
        let charged = session.charge(m, &mut self.stats, PressureRung::RetryMajor);
        self.do_collect(m, "alloc-failure");
        if self.attempt_fits(m, words) {
            session.emit_rung(m, PressureRung::RetryMajor, "recovered", charged);
            session.finish(m, "recovered");
            return Ok(self.finish_alloc(m, shape));
        }
        session.emit_rung(m, PressureRung::RetryMajor, "escalated", charged);
        session.finish(m, "exhausted");
        // The semispace plan's single heap plays the tenured role.
        Err(GcError::TenuredExhausted {
            kind: shape.kind(),
            requested_words: words,
            budget: self.budget_snapshot(),
        })
    }

    fn collect(&mut self, m: &mut MutatorState, reason: CollectReason) {
        self.do_collect(m, reason_str(reason));
    }

    fn gc_stats(&self) -> &GcStats {
        &self.stats
    }

    fn finish(&mut self, _m: &mut MutatorState) {
        if let Some(p) = self.profile.as_mut() {
            p.finish();
        }
    }

    fn take_profile(&mut self) -> Option<HeapProfile> {
        self.profile.take()
    }

    fn last_inspection(&self) -> Option<&CollectionInspection> {
        self.inspection.as_ref()
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
        Vm::with_mutator(m, SemispacePlan::new(&config).into_collector())
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
        assert_eq!(err.kind(), tilgc_mem::AllocKind::PtrArray);
        assert_eq!(err.space(), "tenured");
        assert!(err.requested_words() >= 16);
        let budget = err.budget();
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
        let c = SemispacePlan::new(&config);
        assert_eq!(c.semispace_words(), (32 << 10) / 8 / 2);
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
        let mut vm = Vm::with_mutator(m, SemispacePlan::new(&config).into_collector());
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
