//! Property-based tests over the whole stack: arbitrary mutator programs
//! must behave identically under every collector configuration, and the
//! marker machinery must never over-promise.

use proptest::prelude::*;
use tilgc::core::{
    build_vm, verify_collection, verify_vm, vm_snapshot, CollectorKind, GcConfig, MarkerPolicy,
    PretenurePolicy,
};
use tilgc::mem::ObjectKind;
use tilgc::runtime::{FrameDesc, RaiseOutcome, Trace, Value, Vm};

/// One step of a random mutator program. Slot indices are taken modulo
/// the frame size, field indices modulo the object's arity, so every
/// generated program is well-formed by construction.
#[derive(Debug, Clone)]
enum Op {
    /// Allocate a 4-field record (fields 0–1 pointers seeded from slots,
    /// fields 2–3 integers); store it in a slot of the top frame.
    AllocRecord {
        dst: u8,
        src_a: u8,
        src_b: u8,
        tag: i8,
    },
    /// Allocate a 4-element pointer array initialized from a slot.
    AllocArray { dst: u8, init: u8 },
    /// Allocate a raw byte array and stamp one byte.
    AllocRaw { dst: u8, len: u8 },
    /// Barriered pointer store into a pointer field of a heap object.
    StorePtr { obj: u8, field: u8, val: u8 },
    /// Load a pointer field back into a slot.
    LoadPtr { obj: u8, field: u8, dst: u8 },
    /// Push a frame (bounded depth).
    Push,
    /// Pop a frame (never the last).
    Pop,
    /// Install an exception handler at the current frame.
    PushHandler,
    /// Raise (no-op if no handler is installed).
    Raise,
    /// Force a minor collection.
    Gc,
    /// Force a major collection.
    GcMajor,
}

const SLOTS: usize = 6;

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => (any::<u8>(), any::<u8>(), any::<u8>(), any::<i8>())
            .prop_map(|(dst, src_a, src_b, tag)| Op::AllocRecord { dst, src_a, src_b, tag }),
        2 => (any::<u8>(), any::<u8>()).prop_map(|(dst, init)| Op::AllocArray { dst, init }),
        1 => (any::<u8>(), any::<u8>()).prop_map(|(dst, len)| Op::AllocRaw { dst, len }),
        3 => (any::<u8>(), any::<u8>(), any::<u8>())
            .prop_map(|(obj, field, val)| Op::StorePtr { obj, field, val }),
        3 => (any::<u8>(), any::<u8>(), any::<u8>())
            .prop_map(|(obj, field, dst)| Op::LoadPtr { obj, field, dst }),
        2 => Just(Op::Push),
        2 => Just(Op::Pop),
        1 => Just(Op::PushHandler),
        1 => Just(Op::Raise),
        1 => Just(Op::Gc),
        1 => Just(Op::GcMajor),
    ]
}

/// Interprets the program on a fresh VM of the given kind and returns the
/// canonical snapshot of the final reachable graph.
fn interpret(kind: CollectorKind, config: &GcConfig, ops: &[Op]) -> Vec<u64> {
    interpret_with(kind, config, ops, None, |_| {})
}

/// [`interpret`] twice: once with the mutator's shadow-tag check on, so
/// every stack scan takes the per-slot reference decode and is checked
/// against the shadows, and once with it off, so static frames take the
/// slot-list fast path as in release builds. Both runs verify every
/// collection ([`verify_each_collection`]) and must end in the same
/// graph; returns it.
fn interpret_both_decodes(kind: CollectorKind, config: &GcConfig, ops: &[Op]) -> Vec<u64> {
    let checked = interpret_with(kind, config, ops, Some(true), verify_each_collection());
    let fast = interpret_with(kind, config, ops, Some(false), verify_each_collection());
    assert_eq!(
        fast,
        checked,
        "{}: the fast decode diverged from the shadow-checked one",
        kind.label()
    );
    checked
}

/// [`interpret`], with the shadow-tag check set as given (the build's
/// default for `None`) and a check run after every op — for properties
/// that must hold at each step of an arbitrary program, not only at the
/// end. The check asserts on failure.
fn interpret_with(
    kind: CollectorKind,
    config: &GcConfig,
    ops: &[Op],
    check_shadows: Option<bool>,
    mut after_op: impl FnMut(&Vm),
) -> Vec<u64> {
    let mut vm = build_vm(kind, config);
    if let Some(check) = check_shadows {
        vm.mutator_mut().check_shadows = check;
    }
    let frame = vm.register_frame(FrameDesc::new("prop::frame").slots(SLOTS, Trace::Pointer));
    let rec_site = vm.site("prop::record");
    let arr_site = vm.site("prop::array");
    let raw_site = vm.site("prop::raw");
    vm.push_frame(frame);
    // Host-side record of handler anchor depths, so handlers are always
    // popped before their anchor frame (the SML scoping discipline).
    let mut handlers: Vec<usize> = Vec::new();

    let slot = |i: u8| (i as usize) % SLOTS;
    for op in ops {
        match *op {
            Op::AllocRecord {
                dst,
                src_a,
                src_b,
                tag,
            } => {
                let a = vm.slot_ptr(slot(src_a));
                let b = vm.slot_ptr(slot(src_b));
                let rec = vm
                    .alloc_record(
                        rec_site,
                        &[
                            Value::Ptr(a),
                            Value::Ptr(b),
                            Value::Int(i64::from(tag)),
                            Value::Int(42),
                        ],
                    )
                    .unwrap();
                vm.set_slot(slot(dst), Value::Ptr(rec));
            }
            Op::AllocArray { dst, init } => {
                let init = vm.slot_ptr(slot(init));
                let arr = vm.alloc_ptr_array(arr_site, 4, init).unwrap();
                vm.set_slot(slot(dst), Value::Ptr(arr));
            }
            Op::AllocRaw { dst, len } => {
                let len = 1 + (len as usize) % 64;
                let raw = vm.alloc_raw_array(raw_site, len).unwrap();
                vm.store_byte(raw, len - 1, 0xab);
                vm.set_slot(slot(dst), Value::Ptr(raw));
            }
            Op::StorePtr { obj, field, val } => {
                let target = vm.slot_ptr(slot(obj));
                if target.is_null() {
                    continue;
                }
                let header = vm.header(target);
                let field = match header.kind() {
                    ObjectKind::Record => (field as usize) % 2, // fields 0–1 are pointers
                    ObjectKind::PtrArray => (field as usize) % header.len(),
                    ObjectKind::RawArray => continue,
                };
                let val = vm.slot_ptr(slot(val));
                vm.store_ptr(target, field, val);
            }
            Op::LoadPtr { obj, field, dst } => {
                let target = vm.slot_ptr(slot(obj));
                if target.is_null() {
                    continue;
                }
                let header = vm.header(target);
                let field = match header.kind() {
                    ObjectKind::Record => (field as usize) % 2,
                    ObjectKind::PtrArray => (field as usize) % header.len(),
                    ObjectKind::RawArray => continue,
                };
                let v = vm.load_ptr(target, field);
                vm.set_slot(slot(dst), Value::Ptr(v));
            }
            Op::Push => {
                if vm.depth() < 64 {
                    vm.push_frame(frame);
                }
            }
            Op::Pop => {
                if vm.depth() > 1 {
                    while handlers.last() == Some(&vm.depth()) {
                        vm.pop_handler();
                        handlers.pop();
                    }
                    vm.pop_frame();
                }
            }
            Op::PushHandler => {
                if handlers.len() < 16 {
                    vm.push_handler();
                    handlers.push(vm.depth());
                }
            }
            Op::Raise => match vm.raise() {
                RaiseOutcome::Caught { .. } => {
                    handlers.pop();
                }
                RaiseOutcome::Uncaught => {}
            },
            Op::Gc => vm.gc_now(),
            Op::GcMajor => vm.gc_major(),
        }
        after_op(&vm);
    }
    verify_vm(&vm);
    vm_snapshot(&vm)
}

/// An after-op check: when the op ran a collection, the heap and that
/// collection's record pass `verify_collection` — the record's own
/// identities and the live bound. The slack is the op's allocation: an
/// op allocates at most once, and a collection it triggers runs before
/// the object is made.
fn verify_each_collection() -> impl FnMut(&Vm) {
    // (collections, bytes allocated) after the previous op.
    let mut seen = (0, 0);
    move |vm| {
        let now = (vm.gc_stats().collections, vm.mutator_stats().alloc_bytes);
        if now.0 != seen.0 {
            verify_collection(vm, now.1 - seen.1);
        }
        seen = now;
    }
}

/// The paper's reuse bound: the cached-scan prefix claimed by the markers
/// — `min(M, deepest intact marker)` — must never exceed the simulation
/// oracle's true unchanged prefix.
fn assert_reuse_bound(vm: &Vm) {
    let stack = &vm.mutator().stack;
    assert!(
        stack.reusable_prefix() <= stack.true_unchanged_prefix(),
        "markers over-promised: claimed {}, true {} (watermark {})",
        stack.reusable_prefix(),
        stack.true_unchanged_prefix(),
        stack.watermark(),
    );
}

fn tight_config() -> GcConfig {
    GcConfig::new()
        .heap_budget_bytes(1 << 20)
        .nursery_bytes(4 << 10)
        .large_object_bytes(4 << 10)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// The central theorem: an arbitrary mutator program produces an
    /// identical reachable graph under the semispace baseline, the plain
    /// generational collector, generational stack collection, and
    /// pretenuring — all with tiny heaps forcing constant collection.
    #[test]
    fn all_collectors_preserve_arbitrary_programs(
        ops in proptest::collection::vec(op_strategy(), 1..300)
    ) {
        let config = tight_config();
        let baseline = interpret_both_decodes(CollectorKind::Semispace, &config, &ops);
        for kind in [
            CollectorKind::Generational,
            CollectorKind::GenerationalStack,
            CollectorKind::GenerationalStackPretenure,
        ] {
            let got = interpret_both_decodes(kind, &config, &ops);
            prop_assert_eq!(
                &got, &baseline,
                "{} diverged from the semispace baseline", kind.label()
            );
        }
        // The §7.2 tenure-threshold variant (aging nursery semispaces)
        // must agree too.
        for threshold in [1u8, 3] {
            let config = tight_config().tenure_threshold(threshold);
            let got = interpret_both_decodes(CollectorKind::GenerationalStack, &config, &ops);
            prop_assert_eq!(
                &got, &baseline,
                "tenure threshold {} diverged from the baseline", threshold
            );
        }
    }

    /// Pretenuring every site (the most aggressive possible policy) still
    /// preserves arbitrary programs: the pretenured-region scan must find
    /// every young reference in freshly tenured objects.
    #[test]
    fn aggressive_pretenuring_preserves_arbitrary_programs(
        ops in proptest::collection::vec(op_strategy(), 1..200)
    ) {
        let config = tight_config();
        let baseline = interpret(CollectorKind::Generational, &config, &ops);
        let mut policy = PretenurePolicy::new();
        // Site ids 1..=3 are prop::record/array/raw in registration order.
        for id in 1..=3u16 {
            policy.add_site(tilgc::mem::SiteId::new(id));
        }
        let config = tight_config().pretenure(policy);
        let got = interpret(CollectorKind::GenerationalStackPretenure, &config, &ops);
        prop_assert_eq!(got, baseline);
    }

    /// The reuse bound holds under *real* collections: when scan epochs
    /// come from the plan layer's root driver (`scan_stack` feeding
    /// `Evacuator::forward_roots`) rather than simulated marker placement
    /// — allocation-triggered minors, forced majors, exception unwinds in
    /// between — the cached prefix stays a lower bound on the oracle at
    /// every step. Run once with stack collection alone and once with a
    /// pretenured region scanned in place, and the two final graphs must
    /// also agree.
    #[test]
    fn reuse_bound_conservative_under_plan_driven_scans(
        ops in proptest::collection::vec(op_strategy(), 1..300)
    ) {
        let config = tight_config();
        let plain = interpret_with(
            CollectorKind::GenerationalStack, &config, &ops, Some(true), assert_reuse_bound,
        );
        let fast = interpret_with(
            CollectorKind::GenerationalStack, &config, &ops, Some(false), assert_reuse_bound,
        );
        prop_assert_eq!(&fast, &plain, "the fast decode diverged from the shadow-checked one");
        let mut policy = PretenurePolicy::new();
        // Site ids 1..=3 are prop::record/array/raw in registration order.
        for id in 1..=3u16 {
            policy.add_site(tilgc::mem::SiteId::new(id));
        }
        let config = tight_config().pretenure(policy);
        let pretenured = interpret_with(
            CollectorKind::GenerationalStackPretenure, &config, &ops, None, assert_reuse_bound,
        );
        prop_assert_eq!(
            pretenured, plain,
            "pretenured in-place scanning diverged from the stack-collection run"
        );
    }

    /// The marker bookkeeping never claims more reuse than reality: for
    /// arbitrary push/pop/raise interleavings, `reusable_prefix()` is a
    /// lower bound on the true unchanged prefix — with the shadow-tag
    /// check on and off, ending in the same graph.
    #[test]
    fn marker_reuse_is_always_conservative(
        ops in proptest::collection::vec(op_strategy(), 1..300),
        interval in 1usize..40
    ) {
        let checked = run_marker_epochs(&ops, interval, true);
        let fast = run_marker_epochs(&ops, interval, false);
        prop_assert_eq!(fast, checked);
    }
}

/// The body of `marker_reuse_is_always_conservative`: runs the program's
/// push / pop / handler / raise ops on a stack-collection VM with the
/// shadow-tag check set as given, each `Gc` op a simulated scan epoch
/// (markers placed every `interval` frames), asserting the reuse bound
/// after every op; returns the final graph.
fn run_marker_epochs(ops: &[Op], interval: usize, check_shadows: bool) -> Vec<u64> {
    let mut vm = build_vm(CollectorKind::GenerationalStack, &tight_config());
    vm.mutator_mut().check_shadows = check_shadows;
    let frame = vm.register_frame(FrameDesc::new("prop::frame").slots(SLOTS, Trace::Pointer));
    vm.push_frame(frame);
    let mut handlers: Vec<usize> = Vec::new();
    for op in ops {
        match op {
            Op::Push if vm.depth() < 200 => {
                vm.push_frame(frame);
            }
            Op::Pop if vm.depth() > 1 => {
                while handlers.last() == Some(&vm.depth()) {
                    vm.pop_handler();
                    handlers.pop();
                }
                vm.pop_frame();
            }
            Op::PushHandler if handlers.len() < 16 => {
                vm.push_handler();
                handlers.push(vm.depth());
            }
            Op::Raise => {
                if let RaiseOutcome::Caught { .. } = vm.raise() {
                    handlers.pop();
                }
            }
            Op::Gc => {
                // Simulate a scan epoch: place markers directly.
                let placements = MarkerPolicy::EveryN(interval).placements(vm.depth());
                vm.mutator_mut().stack.place_markers_at(placements);
            }
            _ => {}
        }
        assert_reuse_bound(&vm);
    }
    verify_vm(&vm);
    vm_snapshot(&vm)
}

/// Parses one `proptest-regressions` entry's op list out of its
/// `# shrinks to ops = [...]` comment — the `Debug` rendering of
/// `Vec<Op>`. Returns `None` on anything unrecognized so the caller can
/// fail with the offending line.
fn parse_regression_ops(line: &str) -> Option<Vec<Op>> {
    let start = line.find("shrinks to ops = [")? + "shrinks to ops = [".len();
    let end = line.rfind(']')?;
    let mut rest = line.get(start..end)?.trim();
    let mut ops = Vec::new();
    while !rest.is_empty() {
        let name_end = rest
            .find(|c: char| !c.is_ascii_alphanumeric() && c != '_')
            .unwrap_or(rest.len());
        let name = &rest[..name_end];
        rest = rest[name_end..].trim_start();
        let mut fields: Vec<(&str, i64)> = Vec::new();
        if let Some(after_brace) = rest.strip_prefix('{') {
            let close = after_brace.find('}')?;
            for kv in after_brace[..close].split(',') {
                let (k, v) = kv.split_once(':')?;
                fields.push((k.trim(), v.trim().parse().ok()?));
            }
            rest = after_brace[close + 1..].trim_start();
        }
        rest = rest.strip_prefix(',').unwrap_or(rest).trim_start();
        let field =
            |key: &str| -> Option<i64> { fields.iter().find(|(k, _)| *k == key).map(|&(_, v)| v) };
        ops.push(match name {
            "AllocRecord" => Op::AllocRecord {
                dst: field("dst")? as u8,
                src_a: field("src_a")? as u8,
                src_b: field("src_b")? as u8,
                tag: field("tag")? as i8,
            },
            "AllocArray" => Op::AllocArray {
                dst: field("dst")? as u8,
                init: field("init")? as u8,
            },
            "AllocRaw" => Op::AllocRaw {
                dst: field("dst")? as u8,
                len: field("len")? as u8,
            },
            "StorePtr" => Op::StorePtr {
                obj: field("obj")? as u8,
                field: field("field")? as u8,
                val: field("val")? as u8,
            },
            "LoadPtr" => Op::LoadPtr {
                obj: field("obj")? as u8,
                field: field("field")? as u8,
                dst: field("dst")? as u8,
            },
            "Push" => Op::Push,
            "Pop" => Op::Pop,
            "PushHandler" => Op::PushHandler,
            "Raise" => Op::Raise,
            "Gc" => Op::Gc,
            "GcMajor" => Op::GcMajor,
            _ => return None,
        });
    }
    Some(ops)
}

/// Replays every checked-in regression trace through the differential
/// property on all four collectors. The vendored proptest shim does not
/// read `proptest-regressions` files itself, so this test is what keeps
/// old counterexamples live — and it fails LOUDLY if the file is
/// missing, unreadable or unparseable, rather than silently skipping
/// the very cases that once found bugs.
#[test]
fn checked_in_regressions_replay_against_all_collectors() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/property.proptest-regressions");
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {}: {e} — checked-in regression seeds must replay on every run",
            path.display()
        )
    });
    let mut replayed = 0;
    for (idx, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        assert!(
            line.starts_with("cc "),
            "unrecognized regression entry at {}:{}: {line}",
            path.display(),
            idx + 1
        );
        let ops = parse_regression_ops(line).unwrap_or_else(|| {
            panic!(
                "unparseable regression entry at {}:{}: {line}",
                path.display(),
                idx + 1
            )
        });
        assert!(!ops.is_empty());
        let config = tight_config();
        let baseline = interpret(CollectorKind::Semispace, &config, &ops);
        for kind in [
            CollectorKind::Generational,
            CollectorKind::GenerationalStack,
            CollectorKind::GenerationalStackPretenure,
        ] {
            let got = interpret(kind, &config, &ops);
            assert_eq!(
                got,
                baseline,
                "{} diverged from the baseline replaying the regression at {}:{}",
                kind.label(),
                path.display(),
                idx + 1
            );
        }
        replayed += 1;
    }
    assert!(
        replayed >= 1,
        "no regression entries found in {} — the checked-in counterexample is gone",
        path.display()
    );
}
