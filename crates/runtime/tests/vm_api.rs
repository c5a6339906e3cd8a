//! Behavioural tests of the `Vm` facade against a minimal test collector,
//! exercising the runtime substrate independently of `tilgc-core`: frame
//! push/pop with callee-save spill/restore, slot/trace validation, the
//! slot bound, barriers, exceptions, allocation staging, and the
//! debug-build check on every heap access.

use tilgc_mem::{object, Addr, Header, Memory, Space, POISON};
use tilgc_runtime::{
    AllocShape, CollectReason, Collector, DescId, FrameDesc, GcStats, MutatorState, RaiseOutcome,
    Reg, ShadowTag, Trace, TypeLoc, Value, Vm,
};

/// A bump-only collector that never reclaims — the runtime substrate can
/// be tested without any GC behaviour. A request that does not fit is the
/// typed out-of-memory verdict a real plan's escalation ladder ends in.
/// `collect` is the smallest thing that moves objects: it slides all of
/// them up past the frontier, relocates the pointers in their fields and
/// in the frame slots, and leaves where each object was what a plan
/// leaves there — a forwarding header, or (on a forced major) the poison
/// a debug-build plan fills a vacated space with.
struct BumpCollector {
    space: Space,
    stats: GcStats,
}

impl BumpCollector {
    fn new() -> (BumpCollector, Memory) {
        let mut mem = Memory::with_capacity_words(1 << 20);
        let space = Space::new(mem.reserve((1 << 20) - 16).expect("reserve"));
        let collector = BumpCollector {
            space,
            stats: GcStats::default(),
        };
        (collector, mem)
    }
}

impl Collector for BumpCollector {
    fn name(&self) -> &'static str {
        "bump"
    }

    fn alloc(
        &mut self,
        mem: &mut Memory,
        m: &mut MutatorState,
        shape: AllocShape,
    ) -> Result<Addr, tilgc_mem::GcError> {
        let Ok(addr) = self.space.alloc(shape.size_words()) else {
            return Err(tilgc_mem::GcError {
                arena: tilgc_mem::Arena::Tenured,
                kind: shape.kind(),
                requested_words: shape.size_words(),
                budget: tilgc_mem::BudgetSnapshot::default(),
            });
        };
        shape.write(mem, addr, &m.alloc_buf);
        Ok(addr)
    }

    fn collect(&mut self, mem: &mut Memory, m: &mut MutatorState, reason: CollectReason) {
        let from = self.space.start();
        let used = self.space.used_words();
        let to = self.space.alloc(used).expect("room to slide into");
        mem.copy_words(from, to, used);
        let slid = |word: u64| if word == 0 { 0 } else { word + used as u64 };
        let copies: Vec<_> = object::walk(mem, to, to + used).collect();
        for copy in copies {
            for i in (0..copy.header.payload_words()).filter(|&i| copy.header.field_is_pointer(i)) {
                let target = object::field(mem, copy.addr, i);
                object::set_field(mem, copy.addr, i, slid(target));
            }
            let original = from + (copy.addr - to);
            object::set_header(mem, original, Header::forward(copy.addr));
        }
        if reason == CollectReason::ForcedMajor {
            mem.fill(from, used, POISON);
        }
        for depth in 0..m.stack.depth() {
            let frame = m.stack.frame(depth);
            let moved: Vec<_> = (0..frame.num_slots())
                .filter(|&i| frame.shadow(i) == ShadowTag::Ptr)
                .map(|i| (i, slid(frame.word(i))))
                .collect();
            let mut frame = m.stack.frame_mut(depth);
            for (i, word) in moved {
                frame.set_word_raw(i, word);
            }
        }
        m.barrier.drain(|_| {});
    }

    fn gc_stats(&self) -> &GcStats {
        &self.stats
    }

    fn finish(&mut self, _mem: &mut Memory, _m: &mut MutatorState) {}

    fn take_profile(&mut self) -> Option<tilgc_runtime::HeapProfile> {
        None
    }

    fn last_inspection(&self) -> Option<&tilgc_runtime::CollectionEnd> {
        None
    }
}

fn vm() -> Vm {
    let (collector, mem) = BumpCollector::new();
    Vm::new(Box::new(collector), mem)
}

#[test]
fn callee_save_spills_at_push_and_restores_at_pop() {
    let mut vm = vm();
    let site = vm.site("t::x");
    let callee = vm.register_frame(
        FrameDesc::new("callee")
            .slot(Trace::CalleeSave(Reg::new(9)))
            .def_pointer(Reg::new(9)),
    );
    // The caller leaves a pointer in $9...
    let obj = vm.alloc_record(site, &[Value::Int(5)]).unwrap();
    vm.set_reg(Reg::new(9), Value::Ptr(obj));
    // ...the callee spills it, clobbers the register, and the pop restores.
    vm.push_frame(callee);
    assert_eq!(vm.slot_word(0), u64::from(obj.raw()), "spilled at entry");
    assert_eq!(vm.mutator().stack.top().shadow(0), ShadowTag::Ptr);
    let other = vm.alloc_record(site, &[Value::Int(6)]).unwrap();
    vm.set_reg(Reg::new(9), Value::Ptr(other));
    vm.pop_frame();
    assert_eq!(vm.reg_ptr(Reg::new(9)), obj, "restored at exit");
}

#[test]
fn mixed_frame_spills_restores_and_nulls_from_the_compiled_layout() {
    // A non-static frame: push and pop serve it from the compiled layout
    // too — pointer slots nulled, both spills taken and restored, the
    // `Compute` slot and its type word left as plain zeroed non-pointers.
    let mut vm = vm();
    let site = vm.site("t::x");
    let mixed = vm.register_frame(
        FrameDesc::new("mixed")
            .slot(Trace::Pointer)
            .slot(Trace::CalleeSave(Reg::new(9)))
            .slot(Trace::NonPointer)
            .slot(Trace::Compute(TypeLoc::Slot(2)))
            .slot(Trace::CalleeSave(Reg::new(10)))
            .slot(Trace::Pointer),
    );
    let obj = vm.alloc_record(site, &[Value::Int(5)]).unwrap();
    vm.set_reg(Reg::new(9), Value::Ptr(obj));
    vm.set_reg(Reg::new(10), Value::Int(77));
    vm.push_frame(mixed);
    let top = vm.mutator().stack.top();
    let words: Vec<u64> = (0..6).map(|i| top.word(i)).collect();
    let tags: Vec<ShadowTag> = (0..6).map(|i| top.shadow(i)).collect();
    assert_eq!(words, [0, u64::from(obj.raw()), 0, 0, 77, 0]);
    use ShadowTag::{NonPtr, Ptr};
    assert_eq!(tags, [Ptr, Ptr, NonPtr, NonPtr, NonPtr, Ptr]);
    // The callee clobbers both registers (swapping their pointerness).
    vm.set_reg(Reg::new(9), Value::Int(1));
    vm.set_reg(Reg::new(10), Value::Ptr(obj));
    vm.pop_frame();
    assert_eq!(vm.reg_ptr(Reg::new(9)), obj, "pointer spill restored");
    assert_eq!(vm.reg_int(Reg::new(10)), 77, "integer spill restored");
    let m = vm.mutator();
    assert_eq!(m.regs.shadow(Reg::new(10)), NonPtr, "with its tag");
    assert_eq!(m.stack.depth(), 0);
}

#[test]
fn pointer_slots_start_as_null_pointers() {
    let mut vm = vm();
    let d = vm.register_frame(
        FrameDesc::new("f")
            .slot(Trace::Pointer)
            .slot(Trace::NonPointer),
    );
    vm.push_frame(d);
    assert!(vm.slot_ptr(0).is_null());
    assert_eq!(vm.mutator().stack.top().shadow(0), ShadowTag::Ptr);
    assert_eq!(vm.mutator().stack.top().shadow(1), ShadowTag::NonPtr);
}

// ----- the slot bound ------------------------------------------------------
//
// A slot access indexes the stack's word array at the top frame's cached
// base, and the top frame ends where the array does: the array's bounds
// check is the slot bound. Push, pop and raise each move the base; each
// case below reaches slot `n` of an `n`-slot top frame after one of them,
// with `n` inside the wider frame the base last pointed at. Shadow checks
// are off, so the bound alone has to catch it.

/// A VM with a two-slot frame (`narrow`: a pointer, then an integer) and
/// a five-slot one (`wide`) registered, shadow checks off.
fn narrow_and_wide() -> (Vm, DescId, DescId) {
    let mut vm = vm();
    vm.mutator_mut().check_shadows = false;
    let narrow = vm.register_frame(
        FrameDesc::new("narrow")
            .slot(Trace::Pointer)
            .slot(Trace::NonPointer),
    );
    let wide = vm.register_frame(FrameDesc::new("wide").slots(5, Trace::NonPointer));
    (vm, narrow, wide)
}

/// `narrow` pushed on `wide`: the push moved the base up.
fn narrow_pushed() -> Vm {
    let (mut vm, narrow, wide) = narrow_and_wide();
    vm.push_frame(wide);
    vm.push_frame(narrow);
    vm
}

/// `wide` pushed on `narrow` and popped: the base moved back down.
fn popped_to_narrow() -> Vm {
    let (mut vm, narrow, wide) = narrow_and_wide();
    vm.push_frame(narrow);
    vm.push_frame(wide);
    vm.pop_frame();
    vm
}

/// A raise from three `wide` frames to a handler in `narrow`.
fn raised_to_narrow() -> Vm {
    let (mut vm, narrow, wide) = narrow_and_wide();
    vm.push_frame(narrow);
    vm.push_handler();
    for _ in 0..3 {
        vm.push_frame(wide);
    }
    assert_eq!(vm.raise(), RaiseOutcome::Caught { handler_depth: 1 });
    vm
}

#[test]
#[should_panic(expected = "index out of bounds")]
fn slot_ptr_past_the_top_frame_panics_after_a_push() {
    let vm = narrow_pushed();
    assert!(vm.slot_ptr(0).is_null());
    let _ = vm.slot_ptr(2);
}

#[test]
#[should_panic(expected = "index out of bounds")]
fn set_slot_past_the_top_frame_panics_after_a_push() {
    let mut vm = narrow_pushed();
    vm.set_slot(1, Value::Int(1));
    vm.set_slot(2, Value::Int(1));
}

#[test]
#[should_panic(expected = "index out of bounds")]
fn slot_ptr_past_the_top_frame_panics_after_a_pop() {
    let vm = popped_to_narrow();
    assert!(vm.slot_ptr(0).is_null());
    let _ = vm.slot_ptr(2);
}

#[test]
#[should_panic(expected = "index out of bounds")]
fn set_slot_past_the_top_frame_panics_after_a_pop() {
    let mut vm = popped_to_narrow();
    vm.set_slot(1, Value::Int(1));
    vm.set_slot(2, Value::Int(1));
}

#[test]
#[should_panic(expected = "index out of bounds")]
fn slot_ptr_past_the_top_frame_panics_after_a_raise() {
    let vm = raised_to_narrow();
    assert!(vm.slot_ptr(0).is_null());
    let _ = vm.slot_ptr(2);
}

#[test]
#[should_panic(expected = "index out of bounds")]
fn set_slot_past_the_top_frame_panics_after_a_raise() {
    let mut vm = raised_to_narrow();
    vm.set_slot(1, Value::Int(1));
    vm.set_slot(2, Value::Int(1));
}

#[test]
fn slots_address_the_caller_after_a_pop_and_the_handler_after_a_raise() {
    let (mut vm, narrow, wide) = narrow_and_wide();
    let site = vm.site("t::x");
    let obj = vm.alloc_record(site, &[Value::Int(5)]).unwrap();
    vm.push_frame(narrow);
    vm.set_slot(0, Value::Ptr(obj));
    vm.set_slot(1, Value::Int(11));
    vm.push_handler();
    for round in ["pop", "raise"] {
        for depth in 0..3 {
            vm.push_frame(wide);
            for i in 0..5 {
                assert_eq!(vm.slot_int(i), 0, "a pushed frame is zeroed");
                vm.set_slot(i, Value::Int(100 * depth + i as i64));
            }
        }
        if round == "pop" {
            for _ in 0..3 {
                vm.pop_frame();
            }
        } else {
            assert_eq!(vm.raise(), RaiseOutcome::Caught { handler_depth: 1 });
        }
        assert_eq!(vm.depth(), 1);
        assert_eq!(vm.slot_ptr(0), obj, "after the {round}");
        assert_eq!(vm.slot_int(1), 11, "after the {round}");
        assert_eq!(vm.slot_word(1), 11, "after the {round}");
        assert_eq!(vm.mutator().stack.top_shadow(0), ShadowTag::Ptr);
    }
}

#[test]
#[should_panic(expected = "cannot hold")]
fn trace_validation_rejects_pointer_in_int_slot() {
    let mut vm = vm();
    // On by default only with debug assertions; this is the check's
    // test, so it asks for it whatever the profile.
    vm.mutator_mut().check_shadows = true;
    let site = vm.site("t::x");
    let d = vm.register_frame(FrameDesc::new("f").slot(Trace::NonPointer));
    vm.push_frame(d);
    let obj = vm.alloc_record(site, &[Value::Int(1)]).unwrap();
    vm.set_slot(0, Value::Ptr(obj)); // hides a root — must be rejected
}

#[test]
fn alloc_buffer_stages_operands() {
    let mut vm = vm();
    let site = vm.site("t::pair");
    let a = vm.alloc_record(site, &[Value::Int(1)]).unwrap();
    let b = vm
        .alloc_record(site, &[Value::Ptr(a), Value::Int(2), Value::Real(0.5)])
        .unwrap();
    assert_eq!(vm.load_ptr(b, 0), a);
    assert_eq!(vm.load_int(b, 1), 2);
    assert_eq!(vm.load_f64(b, 2), 0.5);
    // Mask derived from the values: only field 0 is a pointer.
    assert!(vm.header(b).field_is_pointer(0));
    assert!(!vm.header(b).field_is_pointer(1));
}

#[test]
fn stores_charge_barrier_and_stats() {
    let mut vm = vm();
    let site = vm.site("t::arr");
    let target = vm.alloc_record(site, &[Value::Int(9)]).unwrap();
    let arr = vm.alloc_ptr_array(site, 3, Addr::NULL).unwrap();
    vm.store_ptr(arr, 1, target);
    vm.store_ptr(arr, 1, target);
    assert_eq!(vm.mutator_stats().pointer_updates, 2);
    assert_eq!(vm.mutator().barrier.pending(), 2, "SSB keeps duplicates");
    assert_eq!(vm.load_ptr(arr, 1), target);
    // Integer stores are unbarriered.
    vm.store_int(target, 0, 11);
    assert_eq!(vm.mutator_stats().pointer_updates, 2);
}

#[test]
fn raise_unwinds_to_handler_and_consumes_it() {
    let mut vm = vm();
    let d = vm.register_frame(FrameDesc::new("f").slot(Trace::NonPointer));
    vm.push_frame(d);
    vm.push_handler();
    for _ in 0..5 {
        vm.push_frame(d);
    }
    assert_eq!(vm.depth(), 6);
    assert_eq!(vm.raise(), RaiseOutcome::Caught { handler_depth: 1 });
    assert_eq!(vm.depth(), 1);
    // The handler is consumed: a second raise is uncaught and leaves the
    // stack alone.
    assert_eq!(vm.raise(), RaiseOutcome::Uncaught);
    assert_eq!(vm.depth(), 1);
}

#[test]
fn nested_handlers_unwind_innermost_first() {
    let mut vm = vm();
    let d = vm.register_frame(FrameDesc::new("f").slot(Trace::NonPointer));
    vm.push_frame(d);
    vm.push_handler(); // depth 1
    vm.push_frame(d);
    vm.push_frame(d);
    vm.push_handler(); // depth 3
    vm.push_frame(d);
    assert_eq!(vm.raise(), RaiseOutcome::Caught { handler_depth: 3 });
    assert_eq!(vm.raise(), RaiseOutcome::Caught { handler_depth: 1 });
}

#[test]
fn raise_skips_a_handler_whose_installing_frame_returned() {
    let mut vm = vm();
    let d = vm.register_frame(FrameDesc::new("f").slot(Trace::NonPointer));
    vm.push_frame(d);
    vm.push_handler(); // depth 1: live throughout
    vm.push_frame(d);
    vm.push_handler(); // depth 2: its frame returns below
    vm.pop_frame();
    // Returning left the inner `handle` scope: the raise lands on the
    // outer handler instead of unwinding "up" to depth 2.
    assert_eq!(vm.raise(), RaiseOutcome::Caught { handler_depth: 1 });

    // With only a dead handler installed the raise is uncaught.
    vm.push_frame(d);
    vm.push_handler(); // depth 2
    vm.pop_frame();
    assert_eq!(vm.raise(), RaiseOutcome::Uncaught);
    assert_eq!(vm.depth(), 1, "an uncaught raise leaves the stack alone");
    assert!(vm.mutator().handlers.is_empty(), "dead entry discarded");
}

#[test]
fn heap_overflow_past_a_dead_handler_is_a_clean_uncaught_error() {
    let mut vm = vm();
    let site = vm.site("t::huge");
    let d = vm.register_frame(FrameDesc::new("f").slot(Trace::NonPointer));
    vm.push_frame(d);
    vm.push_frame(d);
    vm.push_handler();
    vm.pop_frame();
    // 16 MB does not fit the 8 MB bump space: the implicit raise must
    // return, not panic in the unwind.
    let err = vm.alloc_raw_array(site, 16 << 20).unwrap_err();
    assert_eq!(err.outcome, RaiseOutcome::Uncaught);
    assert_eq!(err.error.kind, tilgc_mem::ObjectKind::RawArray);
    assert_eq!(vm.depth(), 1);
}

#[test]
fn raw_array_byte_and_f64_access() {
    let mut vm = vm();
    let site = vm.site("t::raw");
    let raw = vm.alloc_raw_array(site, 40).unwrap();
    vm.store_byte(raw, 0, 0x12);
    vm.store_byte(raw, 39, 0x34);
    assert_eq!(vm.load_byte(raw, 0), 0x12);
    assert_eq!(vm.load_byte(raw, 39), 0x34);
    vm.store_f64(raw, 2, -7.25);
    assert_eq!(vm.load_f64(raw, 2), -7.25);
}

#[test]
fn client_cycles_accumulate_per_operation() {
    let mut vm = vm();
    let site = vm.site("t::x");
    let before = vm.mutator_stats().client_cycles;
    let _ = vm.alloc_record(site, &[Value::Int(0)]).unwrap();
    let mid = vm.mutator_stats().client_cycles;
    assert!(mid > before, "allocation charges client cycles");
    let d = vm.register_frame(FrameDesc::new("f").slot(Trace::NonPointer));
    vm.push_frame(d);
    vm.pop_frame();
    assert!(
        vm.mutator_stats().client_cycles > mid,
        "frame ops charge client cycles"
    );
    // A heap access is one `heap_access`, inlined or not; a pointer store
    // adds the barrier's record.
    let cost = vm.mutator().cost;
    let obj = vm
        .alloc_record(site, &[Value::Int(0), Value::NULL])
        .unwrap();
    let before = vm.mutator_stats().client_cycles;
    let _ = (
        vm.load_int(obj, 0),
        vm.load_ptr(obj, 1),
        vm.load_f64(obj, 0),
    );
    vm.store_int(obj, 0, 1);
    vm.store_f64(obj, 0, 1.0);
    let after_five = vm.mutator_stats().client_cycles;
    assert_eq!(after_five - before, 5 * cost.heap_access);
    vm.store_ptr(obj, 1, obj);
    assert_eq!(
        vm.mutator_stats().client_cycles - after_five,
        cost.heap_access + cost.barrier_record
    );
}

// ----- the access check --------------------------------------------------
//
// `Header::field_is_pointer` answers for any index, so without
// `Vm::check_field` / `check_byte` an access one past the end passes the
// pointerness assertions and lands on the next object's header. The
// accessors run the check in debug builds only; each test below calls the
// accessor (whose panic a debug build sees) and then the check itself
// (whose panic a release build sees), so `cargo test --release` runs it
// too.

#[test]
#[should_panic(expected = "field 2 is out of range of")]
fn load_one_past_a_records_last_field_is_caught() {
    let mut vm = vm();
    let site = vm.site("t::rec");
    let rec = vm
        .alloc_record(site, &[Value::Int(1), Value::Int(2)])
        .unwrap();
    let _next = vm.alloc_record(site, &[Value::Int(3)]).unwrap();
    let _ = vm.load_int(rec, 2); // would read `_next`'s header
    vm.check_field(rec, 2);
}

#[test]
#[should_panic(expected = "field 3 is out of range of")]
fn store_one_past_a_pointer_arrays_last_element_is_caught() {
    let mut vm = vm();
    let site = vm.site("t::arr");
    let arr = vm.alloc_ptr_array(site, 3, Addr::NULL).unwrap();
    let next = vm.alloc_record(site, &[Value::Int(3)]).unwrap();
    vm.store_ptr(arr, 3, next); // would overwrite `next`'s header
    vm.check_field(arr, 3);
}

#[test]
#[should_panic(expected = "field 2 is out of range of")]
fn load_one_past_a_raw_arrays_last_word_is_caught() {
    let mut vm = vm();
    let site = vm.site("t::raw");
    let raw = vm.alloc_raw_array(site, 12).unwrap(); // 2 words
    vm.store_f64(raw, 1, 0.5);
    vm.check_field(raw, 1);
    let _ = vm.load_f64(raw, 2);
    vm.check_field(raw, 2);
}

#[test]
#[should_panic(expected = "byte 12 is out of range of")]
fn store_one_past_a_raw_arrays_last_byte_is_caught() {
    let mut vm = vm();
    let site = vm.site("t::raw");
    let raw = vm.alloc_raw_array(site, 12).unwrap();
    vm.store_byte(raw, 11, 7);
    vm.check_byte(raw, 11);
    // Byte 12 is inside the second word but past the array's length.
    vm.store_byte(raw, 12, 7);
    vm.check_byte(raw, 12);
}

/// A record rooted in slot 0 of a one-slot frame, and its address.
fn rooted_record(vm: &mut Vm) -> Addr {
    let site = vm.site("t::rec");
    let d = vm.register_frame(FrameDesc::new("f").slot(Trace::Pointer));
    vm.push_frame(d);
    let rec = vm.alloc_record(site, &[Value::Int(41)]).unwrap();
    vm.set_slot(0, Value::Ptr(rec));
    rec
}

#[test]
#[should_panic(expected = "stale address")]
fn a_load_through_an_address_held_across_gc_now_is_caught() {
    let mut vm = vm();
    let stale = rooted_record(&mut vm);
    vm.gc_now();
    // The slot was relocated and reads fine; the host local was not.
    let fresh = vm.slot_ptr(0);
    assert_ne!(fresh, stale);
    assert_eq!(vm.load_int(fresh, 0), 41);
    assert!(vm.header(stale).is_forward());
    let _ = vm.load_int(stale, 0);
    vm.check_field(stale, 0);
}

#[test]
#[should_panic(expected = "poisoned")]
fn a_store_through_an_address_into_a_poisoned_space_is_caught() {
    let mut vm = vm();
    let stale = rooted_record(&mut vm);
    vm.gc_major();
    assert_eq!(vm.load_int(vm.slot_ptr(0), 0), 41);
    // Read as a header, poison is a pointer array of some 10^9 elements:
    // only a test by value tells it from an object.
    assert!(vm.header(stale).field_is_pointer(0));
    vm.store_int(stale, 0, 1);
    vm.check_field(stale, 0);
}
