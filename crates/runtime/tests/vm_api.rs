//! Behavioural tests of the `Vm` facade against a minimal test collector,
//! exercising the runtime substrate independently of `tilgc-core`: frame
//! push/pop with callee-save spill/restore, slot/trace validation,
//! barriers, exceptions, and allocation staging.

use tilgc_mem::{Addr, Memory, Space};
use tilgc_runtime::{
    AllocShape, CollectReason, Collector, FrameDesc, GcStats, MutatorState, RaiseOutcome, Reg,
    ShadowTag, Trace, TypeLoc, Value, Vm,
};

/// A bump-only collector that never collects — the runtime substrate can
/// be tested without any GC behaviour. A request that does not fit is the
/// typed out-of-memory verdict a real plan's escalation ladder ends in.
struct BumpCollector {
    mem: Memory,
    space: Space,
    stats: GcStats,
}

impl BumpCollector {
    fn new() -> BumpCollector {
        let mut mem = Memory::with_capacity_words(1 << 20);
        let space = Space::new(mem.reserve((1 << 20) - 16).expect("reserve"));
        BumpCollector {
            mem,
            space,
            stats: GcStats::default(),
        }
    }
}

impl Collector for BumpCollector {
    fn name(&self) -> &'static str {
        "bump"
    }

    fn memory(&self) -> &Memory {
        &self.mem
    }

    fn memory_mut(&mut self) -> &mut Memory {
        &mut self.mem
    }

    fn alloc(
        &mut self,
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
        shape.write(&mut self.mem, addr, &m.alloc_buf);
        Ok(addr)
    }

    fn collect(&mut self, _m: &mut MutatorState, _reason: CollectReason) {}

    fn gc_stats(&self) -> &GcStats {
        &self.stats
    }

    fn finish(&mut self, _m: &mut MutatorState) {}

    fn take_profile(&mut self) -> Option<tilgc_runtime::HeapProfile> {
        None
    }

    fn last_inspection(&self) -> Option<&tilgc_runtime::CollectionInspection> {
        None
    }
}

fn vm() -> Vm {
    Vm::new(Box::new(BumpCollector::new()))
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
}
