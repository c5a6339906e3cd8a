//! Shared infrastructure for the benchmark programs.
//!
//! # The rooting discipline, program-side
//!
//! Collections happen **only** inside `Vm::alloc_*` and the explicit
//! `gc_*` calls. Between allocations, heap addresses are stable, so
//! non-allocating code may hold [`Addr`]s in host locals freely. Code that
//! allocates must keep its live pointers in frame slots:
//!
//! * a function that allocates pushes a frame (whose descriptor declares
//!   its slots) and parks incoming pointer arguments in slots immediately;
//! * after any allocation, pointers are re-read from slots;
//! * an `Addr` returned by a callee is stored into a slot before the next
//!   allocation.
//!
//! Functions that merely *read* the heap take and return bare addresses.
//!
//! # Exceptions
//!
//! `Vm::raise` unwinds the VM stack to the innermost handler; the host
//! call chain mirrors that by propagating [`Exn`] with `?` — and, because
//! the VM frames are already gone, propagating code must *not* pop frames
//! on the error path. The `handle`-installing function resumes.

use tilgc_mem::Addr;
use tilgc_runtime::{DescId, FrameDesc, HeapOverflow, Trace, Value, Vm};

/// The exception payload programs propagate host-side while the VM stack
/// unwinds. Carries nothing: SML exception values would live in a
/// register; none of the benchmarks inspects them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Exn;

/// Result type for program functions that may raise.
pub type PResult<T> = Result<T, Exn>;

/// A deterministic xorshift64* generator — benchmark inputs must be
/// identical across collectors and runs.
#[derive(Clone, Debug)]
pub struct XorShift {
    state: u64,
}

impl XorShift {
    /// Creates a generator from a nonzero seed.
    pub fn new(seed: u64) -> XorShift {
        XorShift { state: seed.max(1) }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform value in `0..bound`.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound.max(1)
    }

    /// Uniform f64 in [0, 1).
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// FNV-1a-style mixing for result checksums.
#[inline]
pub fn mix(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(0x1000_0000_01b3)
}

/// Frame descriptors shared by the list helpers: `pN` has N pointer
/// slots.
#[derive(Clone, Copy, Debug)]
pub struct CommonFrames {
    /// One pointer slot.
    pub p1: DescId,
    /// Two pointer slots.
    pub p2: DescId,
    /// Three pointer slots.
    pub p3: DescId,
}

impl CommonFrames {
    /// Registers the shared descriptors in `vm`.
    pub fn register(vm: &mut Vm) -> CommonFrames {
        CommonFrames {
            p1: vm.register_frame(FrameDesc::new("common::p1").slots(1, Trace::Pointer)),
            p2: vm.register_frame(FrameDesc::new("common::p2").slots(2, Trace::Pointer)),
            p3: vm.register_frame(FrameDesc::new("common::p3").slots(3, Trace::Pointer)),
        }
    }
}

/// Unwraps an allocation in a calibrated benchmark, where the heap
/// budget is sized to the workload and exhaustion means the calibration
/// itself is wrong. Guest programs that want to *survive* exhaustion
/// install a handler and match on the [`HeapOverflow`] instead.
#[inline]
#[track_caller]
pub fn must(r: Result<Addr, HeapOverflow>) -> Addr {
    r.unwrap_or_else(|e| panic!("heap budget exhausted in a calibrated benchmark: {e}"))
}

/// Allocates a cons cell `(head, tail)` at `site`. `head` may be any
/// value; `tail` must be a list (or null). The operands are rooted by the
/// allocation buffer for the duration of the call.
#[inline]
pub fn cons(vm: &mut Vm, site: tilgc_mem::SiteId, head: Value, tail: Addr) -> Addr {
    must(vm.alloc_record(site, &[head, Value::Ptr(tail)]))
}

/// Head of a cons cell, as a raw integer field.
#[inline]
pub fn head_int(vm: &mut Vm, cell: Addr) -> i64 {
    vm.load_int(cell, 0)
}

/// Tail of a cons cell.
#[inline]
pub fn tail(vm: &mut Vm, cell: Addr) -> Addr {
    vm.load_ptr(cell, 1)
}

/// Length of a list (non-allocating).
pub fn list_len(vm: &mut Vm, mut l: Addr) -> usize {
    let mut n = 0;
    while !l.is_null() {
        n += 1;
        l = tail(vm, l);
    }
    n
}

/// Reverses an integer-headed list, allocating fresh cells at `site`.
pub fn list_rev(vm: &mut Vm, frames: &CommonFrames, site: tilgc_mem::SiteId, l: Addr) -> Addr {
    vm.push_frame(frames.p2);
    vm.set_slot(0, Value::Ptr(l)); // remaining input
    vm.set_slot(1, Value::NULL); // accumulated output
    loop {
        let rest = vm.slot_ptr(0);
        if rest.is_null() {
            break;
        }
        let h = head_int(vm, rest);
        let t = tail(vm, rest);
        vm.set_slot(0, Value::Ptr(t));
        let acc = vm.slot_ptr(1);
        let cell = cons(vm, site, Value::Int(h), acc);
        vm.set_slot(1, Value::Ptr(cell));
    }
    let out = vm.slot_ptr(1);
    vm.pop_frame();
    out
}

/// Whether an integer-headed list contains `x` (non-allocating).
pub fn list_mem_int(vm: &mut Vm, mut l: Addr, x: i64) -> bool {
    while !l.is_null() {
        if head_int(vm, l) == x {
            return true;
        }
        l = tail(vm, l);
    }
    false
}

/// Folds an integer-headed list into the checksum accumulator
/// (non-allocating).
pub fn list_checksum(vm: &mut Vm, mut l: Addr, mut h: u64) -> u64 {
    while !l.is_null() {
        h = mix(h, head_int(vm, l) as u64);
        l = tail(vm, l);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use tilgc_core::{build_vm, CollectorKind, GcConfig};

    fn vm() -> Vm {
        build_vm(
            CollectorKind::Generational,
            &GcConfig::new()
                .heap_budget_bytes(256 << 10)
                .nursery_bytes(8 << 10),
        )
    }

    #[test]
    fn xorshift_is_deterministic() {
        let mut a = XorShift::new(42);
        let mut b = XorShift::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let f = XorShift::new(7).unit_f64();
        assert!((0.0..1.0).contains(&f));
        assert!(XorShift::new(9).below(10) < 10);
    }

    #[test]
    fn list_round_trip_across_collections() {
        let mut vm = vm();
        let frames = CommonFrames::register(&mut vm);
        let site = vm.site("common::cell");
        vm.push_frame(frames.p1);
        vm.set_slot(0, Value::NULL);
        for i in 0..500 {
            let l = vm.slot_ptr(0);
            let cell = cons(&mut vm, site, Value::Int(i), l);
            vm.set_slot(0, Value::Ptr(cell));
        }
        // Force collections, then reverse (which allocates heavily).
        vm.gc_now();
        let l = vm.slot_ptr(0);
        assert_eq!(list_len(&mut vm, l), 500);
        let r = vm.slot_ptr(0);
        let rev = list_rev(&mut vm, &frames, site, r);
        vm.set_slot(0, Value::Ptr(rev));
        vm.gc_now();
        let rev = vm.slot_ptr(0);
        assert_eq!(
            head_int(&mut vm, rev),
            0,
            "reversal puts the first element first"
        );
        assert_eq!(list_len(&mut vm, rev), 500);
        assert!(list_mem_int(&mut vm, rev, 499));
        assert!(!list_mem_int(&mut vm, rev, 500));
    }

    #[test]
    fn checksums_differ_for_different_lists() {
        let mut vm = vm();
        let frames = CommonFrames::register(&mut vm);
        let site = vm.site("common::cell");
        vm.push_frame(frames.p2);
        vm.set_slot(0, Value::NULL);
        vm.set_slot(1, Value::NULL);
        for i in 0..10 {
            let a = vm.slot_ptr(0);
            let cell = cons(&mut vm, site, Value::Int(i), a);
            vm.set_slot(0, Value::Ptr(cell));
            let b = vm.slot_ptr(1);
            let cell = cons(&mut vm, site, Value::Int(i + 1), b);
            vm.set_slot(1, Value::Ptr(cell));
        }
        let a = vm.slot_ptr(0);
        let b = vm.slot_ptr(1);
        let ha = list_checksum(&mut vm, a, 0);
        let hb = list_checksum(&mut vm, b, 0);
        assert_ne!(ha, hb);
    }
}
