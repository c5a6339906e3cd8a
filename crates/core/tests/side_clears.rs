//! The collectors clear side metadata over a space's *used extent*, not
//! its reservation, and the heap is sized from the spaces it actually
//! reserves. These tests hold the other half of that bargain: after a
//! collection no stale bit survives anywhere — the scans here cover the
//! whole address space, so the production clears can stay bounded.

use tilgc_core::{build_collector, build_vm, verify_vm, CollectorKind, GcConfig};
use tilgc_mem::{Addr, Memory};
use tilgc_runtime::{FrameDesc, MutatorState, Trace, Value, Vm, WriteBarrier};

fn small_config() -> GcConfig {
    GcConfig::new()
        .heap_budget_bytes(256 << 10)
        .nursery_bytes(8 << 10)
        .large_object_bytes(2 << 10)
}

/// A `Vm` whose `store_ptr` sets side dirty bits (object marking).
fn object_mark_vm(kind: CollectorKind) -> Vm {
    let mut m = MutatorState::new();
    m.barrier = WriteBarrier::object_mark();
    let (collector, mem) = build_collector(kind, &small_config());
    Vm::with_mutator(m, collector, mem)
}

fn every_addr(mem: &Memory) -> impl Iterator<Item = Addr> {
    (1..mem.capacity_words() as u32).map(Addr::new)
}

fn dirty_addrs(mem: &Memory) -> Vec<Addr> {
    every_addr(mem).filter(|&a| mem.is_dirty(a)).collect()
}

fn marked_addrs(mem: &Memory) -> Vec<Addr> {
    every_addr(mem).filter(|&a| mem.is_marked(a)).collect()
}

/// Stores a fresh young record into `holder[i]` and, for young-on-young
/// dirt, a second fresh record into the first.
fn dirtying_stores(vm: &mut Vm, site: tilgc_mem::SiteId, holder: Addr, rounds: usize) {
    for i in 0..rounds {
        let young = vm.alloc_record(site, &[Value::NULL]).unwrap();
        vm.store_ptr(holder, i % 4, young);
        let younger = vm.alloc_record(site, &[Value::NULL]).unwrap();
        let young = vm.load_ptr(holder, i % 4);
        vm.store_ptr(young, 0, younger);
    }
}

#[test]
fn generational_collections_leave_no_stale_side_bits() {
    let mut vm = object_mark_vm(CollectorKind::Generational);
    let site = vm.site("t::cell");
    let d = vm.register_frame(FrameDesc::new("roots").slots(3, Trace::Pointer));
    vm.push_frame(d);
    let old = vm.alloc_ptr_array(site, 4, Addr::NULL).unwrap();
    vm.set_slot(0, Value::Ptr(old));
    vm.gc_now(); // tenure `old`
    let big_a = vm.alloc_ptr_array(site, 512, Addr::NULL).unwrap();
    let big_b = vm.alloc_ptr_array(site, 512, Addr::NULL).unwrap();
    assert!(big_b > big_a, "the LOS bump-allocates upward");
    vm.set_slot(1, Value::Ptr(big_a));
    vm.set_slot(2, Value::Ptr(big_b));

    // Minor: dirty tenured, young and (drained per entry) LOS objects.
    let old = vm.slot_ptr(0);
    dirtying_stores(&mut vm, site, old, 40);
    dirtying_stores(&mut vm, site, big_a, 8);
    assert!(!dirty_addrs(vm.mem()).is_empty(), "the stores set bits");
    let majors = vm.gc_stats().major_collections;
    vm.gc_now();
    assert_eq!(vm.gc_stats().major_collections, majors, "a minor ran");
    assert_eq!(dirty_addrs(vm.mem()), [], "after a minor");
    assert_eq!(marked_addrs(vm.mem()), [], "no marking cycle has run");

    // Major: the vacated nursery and tenured halves shed every bit, and
    // exactly the live large objects carry a mark.
    let old = vm.slot_ptr(0);
    dirtying_stores(&mut vm, site, old, 40);
    dirtying_stores(&mut vm, site, big_a, 8);
    vm.gc_major();
    assert_eq!(dirty_addrs(vm.mem()), [], "after a major");
    assert_eq!(marked_addrs(vm.mem()), [big_a, big_b]);

    // Drop the upper large object: it is swept, the LOS frontier recedes
    // below it, and the following cycles' bounded clears still leave
    // marks on the survivor only.
    vm.set_slot(2, Value::NULL);
    vm.gc_major();
    assert_eq!(marked_addrs(vm.mem()), [big_a]);
    let old = vm.slot_ptr(0);
    dirtying_stores(&mut vm, site, old, 40);
    vm.gc_major();
    assert_eq!(dirty_addrs(vm.mem()), []);
    assert_eq!(marked_addrs(vm.mem()), [big_a]);
    verify_vm(&vm);
}

/// Regression for the one semantic change of this PR: a large object that
/// was dirty when a major ran used to stay dirty (no vacated space's bulk
/// clear covers the LOS), so the object-marking barrier filtered every
/// later store into it and the next minor missed the young referent.
#[test]
fn store_into_a_large_object_dirtied_before_a_major_is_recorded_again() {
    let mut vm = object_mark_vm(CollectorKind::Generational);
    let site = vm.site("t::cell");
    let d = vm.register_frame(FrameDesc::new("roots").slots(1, Trace::Pointer));
    vm.push_frame(d);
    let big = vm.alloc_ptr_array(site, 512, Addr::NULL).unwrap();
    vm.set_slot(0, Value::Ptr(big));
    dirtying_stores(&mut vm, site, big, 1);
    assert!(vm.mem().is_dirty(big));
    vm.gc_major();
    assert!(!vm.mem().is_dirty(big), "the major retires the bit");

    let young = vm.alloc_record(site, &[Value::Int(41)]).unwrap();
    vm.store_ptr(big, 1, young);
    assert_eq!(vm.mutator().barrier.pending(), 1, "the store is recorded");
    let (majors, entries) = {
        let s = vm.gc_stats();
        (s.major_collections, s.barrier_entries)
    };
    vm.gc_now();
    assert_eq!(vm.gc_stats().major_collections, majors, "a minor ran");
    assert_eq!(vm.gc_stats().barrier_entries, entries + 1);
    let kept = vm.load_ptr(big, 1);
    assert_ne!(kept, young, "the referent was evacuated, not left behind");
    assert_eq!(vm.load_int(kept, 0), 41);
    verify_vm(&vm);
}

#[test]
fn semispace_collection_leaves_no_stale_dirty_bits() {
    // The plan needs no barrier; an embedder that installs one anyway
    // still gets its dirty bits retired with the vacated half.
    let mut vm = object_mark_vm(CollectorKind::Semispace);
    let site = vm.site("t::cell");
    let d = vm.register_frame(FrameDesc::new("roots").slots(1, Trace::Pointer));
    vm.push_frame(d);
    let holder = vm.alloc_ptr_array(site, 4, Addr::NULL).unwrap();
    vm.set_slot(0, Value::Ptr(holder));
    for _ in 0..2 {
        let holder = vm.slot_ptr(0);
        dirtying_stores(&mut vm, site, holder, 40);
        assert!(!dirty_addrs(vm.mem()).is_empty(), "the stores set bits");
        vm.gc_now();
        assert_eq!(dirty_addrs(vm.mem()), []);
    }
    verify_vm(&vm);
}

#[test]
fn address_space_is_sized_from_the_spaces_reserved() {
    let config = GcConfig::new()
        .heap_budget_bytes(256 << 10)
        .nursery_bytes(8 << 10);
    let (budget, nursery) = (32 << 10, 1 << 10);
    let with_los = build_vm(CollectorKind::Generational, &config);
    assert_eq!(
        with_los.mem().capacity_words(),
        2 * nursery + 2 * budget + budget + 32,
        "two nursery halves, two tenured halves, the LOS"
    );
}
