//! Property-based tests over the whole stack: arbitrary mutator programs
//! must behave identically under every collector configuration, and the
//! marker machinery must never over-promise.
//!
//! A program is a sequence of the runtime driver's [`VmOp`]s, drawn by
//! `tilgc_torture::generate` from a seed and a length, and stepped through
//! [`OpDriver`]: the one op alphabet the torture harness also runs. The
//! vendored proptest shim does not shrink, so a per-op strategy would buy
//! nothing over the generator's own weights.

use proptest::prelude::*;
use tilgc::core::{
    build_vm, verify_collection, verify_vm, vm_snapshot, CollectorKind, GcConfig, MarkerPolicy,
    PretenurePolicy,
};
use tilgc::mem::SiteId;
use tilgc::runtime::driver::{ARR_SITES, RAW_SITES, REC_SITES};
use tilgc::runtime::{OpDriver, StepOutcome, Vm, VmOp};
use tilgc_torture::generate;

/// Interprets the program on a fresh VM of the given kind and returns the
/// canonical snapshot of the final reachable graph.
fn interpret(kind: CollectorKind, config: &GcConfig, ops: &[VmOp]) -> Vec<u64> {
    interpret_with(kind, config, ops, None, |_| {})
}

/// [`interpret`] twice: once with the mutator's shadow-tag check on, so
/// every stack scan takes the per-slot reference decode and is checked
/// against the shadows, and once with it off, so static frames take the
/// slot-list fast path as in release builds. Both runs verify every
/// collection ([`verify_each_collection`]) and must end in the same
/// graph; returns it.
fn interpret_both_decodes(kind: CollectorKind, config: &GcConfig, ops: &[VmOp]) -> Vec<u64> {
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
/// end. The check asserts on failure. Every op must run to completion:
/// [`tight_config`]'s heap never runs out under these programs.
fn interpret_with(
    kind: CollectorKind,
    config: &GcConfig,
    ops: &[VmOp],
    check_shadows: Option<bool>,
    mut after_op: impl FnMut(&Vm),
) -> Vec<u64> {
    let mut vm = build_vm(kind, config);
    if let Some(check) = check_shadows {
        vm.mutator_mut().check_shadows = check;
    }
    let mut driver = OpDriver::install(&mut vm);
    for (i, &op) in ops.iter().enumerate() {
        let outcome = driver.step(&mut vm, op);
        assert_eq!(
            outcome,
            Ok(StepOutcome::Ran),
            "{}: op {i} ({op:?})",
            kind.label()
        );
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

/// A 1 MB heap with a 4 KB nursery, so programs collect constantly, and
/// the torture harness's 48-byte large-object threshold, so the driver's
/// longer arrays and widest records are born in the large-object space
/// and reach the next minor collection through its pending scan.
fn tight_config() -> GcConfig {
    GcConfig::new()
        .heap_budget_bytes(1 << 20)
        .nursery_bytes(4 << 10)
        .large_object_bytes(48)
}

/// [`tight_config`] pretenuring the driver's odd site ids: records at
/// sites 0, 2 and 4, pointer arrays at sites 0 and 2, raw arrays at
/// site 1. The other half stays young, so freshly pretenured objects
/// point into a live nursery and the §6 in-place scan has children to
/// find.
fn pretenuring_config() -> GcConfig {
    let mut policy = PretenurePolicy::new();
    let sites = (REC_SITES + ARR_SITES + RAW_SITES) as u16;
    for id in (1..=sites).step_by(2) {
        policy.add_site(SiteId::new(id));
    }
    tight_config().pretenure(policy)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// The central theorem: an arbitrary mutator program produces an
    /// identical reachable graph under the semispace baseline, the plain
    /// generational collector, generational stack collection, and
    /// pretenuring — all with tiny heaps forcing constant collection.
    #[test]
    fn all_collectors_preserve_arbitrary_programs(
        program in (any::<u64>(), 1usize..300)
    ) {
        let ops = generate(program.0, program.1);
        let config = tight_config();
        let baseline = interpret_both_decodes(CollectorKind::Semispace, &config, &ops);
        for &kind in &CollectorKind::ALL[1..] {
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

    /// Pretenuring half the driver's sites, spread over all three object
    /// kinds ([`pretenuring_config`]), preserves arbitrary programs: the
    /// pretenured-region scan must find every young reference in freshly
    /// tenured objects.
    #[test]
    fn aggressive_pretenuring_preserves_arbitrary_programs(
        program in (any::<u64>(), 1usize..200)
    ) {
        let ops = generate(program.0, program.1);
        let baseline = interpret(CollectorKind::Generational, &tight_config(), &ops);
        let got = interpret(CollectorKind::GenerationalStackPretenure, &pretenuring_config(), &ops);
        prop_assert_eq!(got, baseline);
    }

    /// The reuse bound holds under *real* collections: when scan epochs
    /// come from the plan layer's root driver (`scan_stack`, forwarding
    /// each root as it decodes it, then `Evacuator::forward_roots`) rather
    /// than simulated marker placement
    /// — allocation-triggered minors, forced majors, exception unwinds in
    /// between — the cached prefix stays a lower bound on the oracle at
    /// every step. Run once with stack collection alone and once with
    /// [`pretenuring_config`]'s regions scanned in place, and the two
    /// final graphs must also agree.
    #[test]
    fn reuse_bound_conservative_under_plan_driven_scans(
        program in (any::<u64>(), 1usize..300)
    ) {
        let ops = generate(program.0, program.1);
        let config = tight_config();
        let plain = interpret_with(
            CollectorKind::GenerationalStack, &config, &ops, Some(true), assert_reuse_bound,
        );
        let fast = interpret_with(
            CollectorKind::GenerationalStack, &config, &ops, Some(false), assert_reuse_bound,
        );
        prop_assert_eq!(&fast, &plain, "the fast decode diverged from the shadow-checked one");
        let pretenured = interpret_with(
            CollectorKind::GenerationalStackPretenure,
            &pretenuring_config(),
            &ops,
            None,
            assert_reuse_bound,
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
        program in (any::<u64>(), 1usize..300),
        interval in 1usize..40
    ) {
        let ops = generate(program.0, program.1);
        let checked = run_marker_epochs(&ops, interval, true);
        let fast = run_marker_epochs(&ops, interval, false);
        prop_assert_eq!(fast, checked);
    }
}

/// The body of `marker_reuse_is_always_conservative`: steps the
/// program's stack ops (pushes, pops, handlers, raises) through the
/// driver on a stack-collection VM with the shadow-tag check set as
/// given, each `Gc` op a simulated scan epoch (markers placed every
/// `interval` frames), asserting the reuse bound after every op; returns
/// the final graph.
fn run_marker_epochs(ops: &[VmOp], interval: usize, check_shadows: bool) -> Vec<u64> {
    let mut vm = build_vm(CollectorKind::GenerationalStack, &tight_config());
    vm.mutator_mut().check_shadows = check_shadows;
    let mut driver = OpDriver::install(&mut vm);
    use VmOp::*;
    for &op in ops {
        match op {
            Push { .. } | PushMany { .. } | Pop | PopMany { .. } | PushHandler | Raise => {
                assert_eq!(driver.step(&mut vm, op), Ok(StepOutcome::Ran));
            }
            Gc => {
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

/// Fixed programs, replayed on every run since the proptest shim reads
/// no regression files: the graph must agree across all four collectors
/// and the reuse bound must hold after every op.
///
/// 1. A program that once made the collectors diverge; its ops are the
///    driver's at site 0, with four-element pointer arrays.
/// 2. A raise to a marker's own depth: the marker at depth 24 (the
///    paper's every-25th policy) goes stale with `M = 24`, a pop lowers
///    the true prefix to 22, and two pushes climb back over depth 24. A
///    marker at depth `M` proves nothing, so the claim must stay at 22
///    or below.
#[test]
fn checked_in_regressions_replay_against_all_collectors() {
    use VmOp::*;
    #[rustfmt::skip]
    let regressions: [&[VmOp]; 2] = [
        &[
            AllocRecord { site: 0, dst: 204, src_a: 0, src_b: 0, tag: 0 },
            AllocRecord { site: 0, dst: 0, src_a: 0, src_b: 0, tag: 0 },
            AllocPtrArray { site: 0, dst: 10, init: 174, len: 3 },
            Push { kind: 0 }, Push { kind: 0 }, Pop, Pop, Push { kind: 0 }, Pop, Pop,
            AllocPtrArray { site: 0, dst: 39, init: 208, len: 3 },
            GcMajor,
            PushHandler,
            AllocRecord { site: 0, dst: 177, src_a: 94, src_b: 249, tag: 67 },
            Push { kind: 0 }, Raise, PushHandler,
            StorePtr { obj: 108, field: 101, val: 39 },
            Gc, Gc,
        ],
        &[
            PushMany { kind: 0, n: 22 }, PushHandler, PushMany { kind: 0, n: 3 },
            Gc, Raise, Pop, Push { kind: 0 }, Push { kind: 0 },
        ],
    ];
    let config = tight_config();
    for (i, ops) in regressions.into_iter().enumerate() {
        let baseline = interpret(CollectorKind::Semispace, &config, ops);
        for &kind in &CollectorKind::ALL[1..] {
            let got = interpret_with(kind, &config, ops, None, assert_reuse_bound);
            let label = kind.label();
            assert_eq!(
                got,
                baseline,
                "{label} diverged replaying regression {}",
                i + 1
            );
        }
    }
}
