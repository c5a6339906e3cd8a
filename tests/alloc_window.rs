//! The allocation window is an implementation of the door, not a policy:
//! an arbitrary program run as is — records, and arrays under the
//! large-object threshold, bumped through the window `Vm` was lent — and
//! run again with the window closed before every allocation, so that each
//! one enters `Collector::alloc`, must be the same run. Same objects at
//! the same addresses, same collections, same refusals, same simulated
//! cycles, same telemetry: the checksum, `GcStats`, `MutatorStats`, the
//! reachable graph and the recorded JSONL stream are compared, under all
//! four plans.
//!
//! There is no product knob for this: [`MutatorState::close_window`] is
//! the setter the fault injector already needs.
//!
//! [`MutatorState::close_window`]: tilgc::runtime::MutatorState::close_window

use std::cell::Cell;
use std::rc::Rc;

use proptest::prelude::*;
use tilgc::core::{
    build_collector, build_vm_with_recorder, verify_vm, vm_snapshot, CollectorKind, GcConfig,
    PretenurePolicy,
};
use tilgc::mem::{Addr, GcError, Memory, ObjectKind, SiteId, MAX_RECORD_FIELDS};
use tilgc::runtime::{
    AllocShape, CollectReason, CollectionEnd, Collector, FrameDesc, GcStats, HeapOverflow,
    HeapProfile, MutatorState, MutatorStats, RaiseOutcome, RingRecorder, Trace, Value, Vm,
};
use tilgc_obs::jsonl;

const SLOTS: usize = 6;

/// One step of a random mutator program. Slot and field indices are
/// taken modulo what exists, so every program is well-formed. Not the
/// runtime driver's `VmOp` on purpose: the window's edges need records
/// of up to `MAX_RECORD_FIELDS` fields with any pointer mask and arrays
/// on both sides of the large-object threshold, and `VmOp` makes none.
#[derive(Debug, Clone)]
enum Op {
    /// A record of `arity % (MAX_RECORD_FIELDS + 1)` fields; field `i` is
    /// a pointer (copied from a slot) when bit `i` of `ptrs` is set, an
    /// integer otherwise.
    Record {
        dst: u8,
        arity: u8,
        ptrs: u32,
        src: u8,
    },
    /// A pointer array of `len % 300` elements: the large-object
    /// threshold below is 128 words, so both sides of it.
    PtrArray {
        dst: u8,
        len: u16,
        init: u8,
    },
    /// A raw array of `len % 2400` bytes, likewise.
    RawArray {
        dst: u8,
        len: u16,
    },
    /// Barriered store into a pointer field of the object in a slot.
    StorePtr {
        obj: u8,
        field: u8,
        val: u8,
    },
    Push,
    Pop,
    PushHandler,
    Raise,
    Gc,
    GcMajor,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        8 => (any::<u8>(), any::<u8>(), any::<u32>(), any::<u8>())
            .prop_map(|(dst, arity, ptrs, src)| Op::Record { dst, arity, ptrs, src }),
        2 => (any::<u8>(), any::<u16>(), any::<u8>())
            .prop_map(|(dst, len, init)| Op::PtrArray { dst, len, init }),
        2 => (any::<u8>(), any::<u16>()).prop_map(|(dst, len)| Op::RawArray { dst, len }),
        3 => (any::<u8>(), any::<u8>(), any::<u8>())
            .prop_map(|(obj, field, val)| Op::StorePtr { obj, field, val }),
        2 => Just(Op::Push),
        2 => Just(Op::Pop),
        1 => Just(Op::PushHandler),
        1 => Just(Op::Raise),
        1 => Just(Op::Gc),
        1 => Just(Op::GcMajor),
    ]
}

/// Everything two runs of one program must agree on.
#[derive(Debug, PartialEq)]
struct Run {
    checksum: u64,
    gc: GcStats,
    mutator: MutatorStats,
    snapshot: Vec<u64>,
    jsonl: String,
}

fn mix(h: u64, x: u64) -> u64 {
    (h ^ x).wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(29)
}

/// Blanks every `"wall_ns":N` (host time) in a rendered stream.
fn blank_wall_ns(doc: &str) -> String {
    let mut out = String::with_capacity(doc.len());
    let mut rest = doc;
    while let Some(at) = rest.find("\"wall_ns\":") {
        let digits = at + "\"wall_ns\":".len();
        out.push_str(&rest[..digits]);
        rest = rest[digits..].trim_start_matches(|c: char| c.is_ascii_digit());
    }
    out.push_str(rest);
    out
}

/// The host's side of one run: the checksum, and the anchor depths of
/// the installed handlers, so each is popped before its frame (the SML
/// scoping discipline).
#[derive(Default)]
struct Host {
    checksum: u64,
    handlers: Vec<usize>,
}

impl Host {
    /// Folds an allocation's result into the checksum and roots it. A
    /// typed refusal is folded in too — both runs must be refused the
    /// same way — and, caught, has consumed the innermost handler.
    fn settle(&mut self, vm: &mut Vm, dst: usize, result: Result<Addr, HeapOverflow>) {
        match result {
            Ok(addr) => {
                self.checksum = mix(self.checksum, u64::from(addr.raw()));
                vm.set_slot(dst, Value::Ptr(addr));
            }
            Err(e) => {
                self.checksum = mix(self.checksum, e.error.requested_words as u64);
                self.checksum = mix(self.checksum, e.error.budget.live_words as u64);
                self.checksum = mix(self.checksum, e.error.to_string().len() as u64);
                self.caught(e.outcome);
            }
        }
    }

    /// A caught raise consumed the innermost live handler and every dead
    /// one above it.
    fn caught(&mut self, outcome: RaiseOutcome) {
        if let RaiseOutcome::Caught { handler_depth } = outcome {
            while self.handlers.pop().is_some_and(|h| h > handler_depth) {}
        }
    }
}

fn run(kind: CollectorKind, config: &GcConfig, ops: &[Op], door_only: bool) -> Run {
    let recorder = Box::new(RingRecorder::with_capacity(1 << 16));
    let mut vm = build_vm_with_recorder(kind, config, recorder);
    let frame = vm.register_frame(FrameDesc::new("win::frame").slots(SLOTS, Trace::Pointer));
    let sites = sites(&mut vm);
    vm.push_frame(frame);
    let mut host = Host::default();
    let slot = |i: u8| usize::from(i) % SLOTS;
    for op in ops {
        if door_only {
            vm.mutator_mut().close_window();
        }
        match *op {
            Op::Record {
                dst,
                arity,
                ptrs,
                src,
            } => {
                let arity = usize::from(arity) % (MAX_RECORD_FIELDS + 1);
                let p = vm.slot_ptr(slot(src));
                let fields: Vec<Value> = (0..arity)
                    .map(|i| match (ptrs >> i) & 1 {
                        1 => Value::Ptr(p),
                        _ => Value::Int(i as i64 - 7),
                    })
                    .collect();
                // Two record sites, so a pretenuring plan routes some
                // records through the door in both runs.
                let site = sites.records[arity % 2];
                let result = vm.alloc_record(site, &fields);
                host.settle(&mut vm, slot(dst), result);
            }
            Op::PtrArray { dst, len, init } => {
                let init = vm.slot_ptr(slot(init));
                let result = vm.alloc_ptr_array(sites.array, usize::from(len) % 300, init);
                host.settle(&mut vm, slot(dst), result);
            }
            Op::RawArray { dst, len } => {
                let result = vm.alloc_raw_array(sites.raw, usize::from(len) % 2400);
                host.settle(&mut vm, slot(dst), result);
            }
            Op::StorePtr { obj, field, val } => {
                let target = vm.slot_ptr(slot(obj));
                if target.is_null() {
                    continue;
                }
                let header = vm.header(target);
                let fields = match header.kind() {
                    ObjectKind::RawArray => 0,
                    ObjectKind::Record | ObjectKind::PtrArray => header.len(),
                };
                let ptr_fields: Vec<usize> = (0..fields)
                    .filter(|&i| header.field_is_pointer(i))
                    .collect();
                if let Some(&f) = ptr_fields.get(usize::from(field) % ptr_fields.len().max(1)) {
                    let val = vm.slot_ptr(slot(val));
                    vm.store_ptr(target, f, val);
                }
            }
            Op::Push => {
                if vm.depth() < 64 {
                    vm.push_frame(frame);
                }
            }
            Op::Pop => {
                if vm.depth() > 1 {
                    while host.handlers.last() == Some(&vm.depth()) {
                        vm.pop_handler();
                        host.handlers.pop();
                    }
                    vm.pop_frame();
                }
            }
            Op::PushHandler => {
                if host.handlers.len() < 16 {
                    vm.push_handler();
                    host.handlers.push(vm.depth());
                }
            }
            Op::Raise => host.caught(vm.raise()),
            Op::Gc => vm.gc_now(),
            Op::GcMajor => vm.gc_major(),
        }
    }
    verify_vm(&vm);
    vm.finish();
    let events = RingRecorder::drain_events_from(vm.recorder_mut()).expect("recorder installed");
    Run {
        checksum: host.checksum,
        gc: vm.gc_stats().without_host_time(),
        mutator: *vm.mutator_stats(),
        snapshot: vm_snapshot(&vm),
        jsonl: blank_wall_ns(&jsonl::render(kind.label(), "window", 1, &[], &events)),
    }
}

struct Sites {
    records: [SiteId; 2],
    array: SiteId,
    raw: SiteId,
}

/// Registration order is fixed, so the ids are the same in every VM (and
/// in the policy, which is built before any VM exists).
fn sites(vm: &mut Vm) -> Sites {
    Sites {
        records: [vm.site("win::even"), vm.site("win::odd")],
        array: vm.site("win::array"),
        raw: vm.site("win::raw"),
    }
}

/// Tight enough that a program retaining its large arrays is refused
/// now and then, so the typed refusals are compared too.
fn config() -> GcConfig {
    GcConfig::new()
        .heap_budget_bytes(32 << 10)
        .nursery_bytes(4 << 10)
        .large_object_bytes(1 << 10)
}

/// The four plans. The pretenuring one routes one record site and the
/// (small) pointer arrays tenured at birth.
fn configurations() -> Vec<(&'static str, CollectorKind, GcConfig)> {
    let mut policy = PretenurePolicy::new();
    policy.add_site(SiteId::new(2)); // win::odd
    policy.add_site(SiteId::new(3)); // win::array
    CollectorKind::ALL
        .into_iter()
        .map(|kind| (kind.label(), kind, config().pretenure(policy.clone())))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn the_window_and_the_door_are_the_same_run(
        ops in proptest::collection::vec(op_strategy(), 1..300)
    ) {
        for (label, kind, config) in configurations() {
            let window = run(kind, &config, &ops, false);
            let door = run(kind, &config, &ops, true);
            prop_assert_eq!(window.checksum, door.checksum, "{}: checksum", label);
            prop_assert_eq!(window.gc, door.gc, "{}: GcStats", label);
            prop_assert_eq!(window.mutator, door.mutator, "{}: MutatorStats", label);
            prop_assert_eq!(&window.snapshot, &door.snapshot, "{}: reachable graph", label);
            prop_assert_eq!(&window.jsonl, &door.jsonl, "{}: JSONL stream", label);
        }
    }
}

/// A real plan behind a counter of door entries.
struct CountingDoor {
    plan: Box<dyn Collector>,
    entries: Rc<Cell<u64>>,
}

impl Collector for CountingDoor {
    fn name(&self) -> &'static str {
        self.plan.name()
    }
    fn alloc(
        &mut self,
        mem: &mut Memory,
        m: &mut MutatorState,
        shape: AllocShape,
    ) -> Result<Addr, GcError> {
        self.entries.set(self.entries.get() + 1);
        self.plan.alloc(mem, m, shape)
    }
    fn collect(&mut self, mem: &mut Memory, m: &mut MutatorState, reason: CollectReason) {
        self.plan.collect(mem, m, reason);
    }
    fn gc_stats(&self) -> &GcStats {
        self.plan.gc_stats()
    }
    fn finish(&mut self, mem: &mut Memory, m: &mut MutatorState) {
        self.plan.finish(mem, m);
    }
    fn take_profile(&mut self) -> Option<HeapProfile> {
        self.plan.take_profile()
    }
    fn last_inspection(&self) -> Option<&CollectionEnd> {
        self.plan.last_inspection()
    }
}

/// The differential above would pass vacuously if the window were never
/// used: an ordinary run enters the door once per nursery-full of
/// records — recorder or no, so telemetry stays on the fast path — and a
/// run that closes the window first enters it for every one.
#[test]
fn an_open_window_serves_allocations_and_a_closed_one_none() {
    const ALLOCS: u64 = 4000; // 2 words each: 15 fills of the 4 KB nursery
    for (label, kind, config) in configurations() {
        for recorded in [false, true] {
            for door_only in [false, true] {
                let entries = Rc::new(Cell::new(0));
                let (plan, mem) = build_collector(kind, &config);
                let door = CountingDoor {
                    plan,
                    entries: Rc::clone(&entries),
                };
                let mut vm = Vm::new(Box::new(door), mem);
                if recorded {
                    vm.set_recorder(Box::new(RingRecorder::with_capacity(1 << 12)));
                }
                let site = sites(&mut vm).records[0];
                for i in 0..ALLOCS as i64 {
                    if door_only {
                        vm.mutator_mut().close_window();
                    }
                    let a = vm.alloc_record(site, &[Value::Int(i)]).unwrap();
                    assert_eq!(vm.load_int(a, 0), i);
                }
                let what = format!("{label}, recorded {recorded}, door only {door_only}");
                if door_only {
                    assert_eq!(entries.get(), ALLOCS, "{what}");
                } else {
                    let fills = vm.gc_stats().collections + 1;
                    assert!(fills < ALLOCS / 100, "{what}: {fills} collections");
                    assert_eq!(entries.get(), fills, "{what}");
                }
            }
        }
    }
}
