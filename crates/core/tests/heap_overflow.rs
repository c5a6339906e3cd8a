//! Out-of-memory is a guest-level event, not a host-level one: on every
//! plan, budget exhaustion must surface as a catchable `HeapOverflow`
//! raise (the guest resumes at its handler and keeps allocating), an
//! unhandled raise must report `RaiseOutcome::Uncaught` without
//! panicking, and a run that *recovers* from pressure via the governor's
//! ladder must stay byte-deterministic.

use tilgc_core::{build_vm, build_vm_with_recorder, CollectorKind, GcConfig, PretenurePolicy};
use tilgc_mem::{Addr, Arena};
use tilgc_obs::{jsonl, schema, Event, RingRecorder};
use tilgc_runtime::{FrameDesc, GcStats, HeapOverflow, RaiseOutcome, Trace, Value, Vm};

/// A budget small enough that a retained chain of 1 KB pointer arrays
/// exhausts it within a few dozen allocations on every plan.
fn tight_config() -> GcConfig {
    GcConfig::new()
        .heap_budget_bytes(64 << 10)
        .nursery_bytes(4 << 10)
        .large_object_bytes(1 << 10)
}

/// Allocates 128-slot pointer arrays chained through their fill value
/// until the collector refuses; returns the overflow. The head of the
/// chain stays rooted in slot 0, so live data only grows.
fn exhaust(vm: &mut Vm) -> HeapOverflow {
    let site = vm.site("ovf::chain");
    for _ in 0..10_000 {
        let head = vm.slot_ptr(0);
        match vm.alloc_ptr_array(site, 128, head) {
            Ok(a) => vm.set_slot(0, Value::Ptr(a)),
            Err(e) => return e,
        }
    }
    panic!("a 64 KB budget survived 10k retained 1 KB arrays");
}

#[test]
fn caught_overflow_resumes_the_guest_on_every_plan() {
    for kind in CollectorKind::ALL {
        let label = kind.label();
        let mut vm = build_vm(kind, &tight_config());
        let d = vm.register_frame(FrameDesc::new("ovf").slot(Trace::Pointer));
        vm.push_frame(d);
        vm.set_slot(0, Value::NULL);
        vm.push_handler();

        let overflow = exhaust(&mut vm);
        assert_eq!(
            overflow.outcome,
            RaiseOutcome::Caught { handler_depth: 1 },
            "{label}: the installed handler must catch the raise"
        );
        assert!(
            overflow.error.budget.budget_words > 0,
            "{label}: error carries the budget snapshot"
        );
        assert!(
            overflow.error.to_string().contains("space exhausted"),
            "{label}: {}",
            overflow.error
        );

        // The guest resumes at the handler: drop the chain, collect, and
        // the same allocation succeeds again.
        vm.set_slot(0, Value::NULL);
        vm.gc_now();
        let site = vm.site("ovf::chain");
        let again = vm.alloc_ptr_array(site, 128, Addr::NULL);
        assert!(
            again.is_ok(),
            "{label}: heap unusable after a caught overflow: {:?}",
            again.err()
        );
    }
}

#[test]
fn unhandled_overflow_is_a_typed_verdict_not_a_panic() {
    for kind in CollectorKind::ALL {
        let label = kind.label();
        let mut vm = build_vm(kind, &tight_config());
        let d = vm.register_frame(FrameDesc::new("ovf").slot(Trace::Pointer));
        vm.push_frame(d);
        vm.set_slot(0, Value::NULL);

        let overflow = exhaust(&mut vm);
        assert_eq!(
            overflow.outcome,
            RaiseOutcome::Uncaught,
            "{label}: no handler installed"
        );
        // The VM object itself outlives the guest program: the host can
        // still inspect it, and a hypothetical fresh guest could run.
        vm.set_slot(0, Value::NULL);
        vm.gc_now();
        assert!(vm.gc_stats().collections > 0, "{label}");
    }
}

/// The budget is enforced on every route, not only the large-object one:
/// a guest that retains small objects is refused — typed, within its
/// budget, heap usable afterwards — whichever arena its requests land in.
#[test]
fn every_route_refuses_within_the_budget_on_every_plan() {
    type Grow = fn(&mut Vm, tilgc_mem::SiteId) -> Result<Addr, HeapOverflow>;
    let shapes: [(&str, Grow); 4] = [
        ("4-field record", |vm, site| {
            let head = Value::Ptr(vm.slot_ptr(0));
            vm.alloc_record(site, &[head, Value::Int(1), Value::Int(2), Value::Int(3)])
        }),
        ("60-element array", |vm, site| {
            let head = vm.slot_ptr(0);
            vm.alloc_ptr_array(site, 60, head)
        }),
        ("128-element array", |vm, site| {
            let head = vm.slot_ptr(0);
            vm.alloc_ptr_array(site, 128, head)
        }),
        ("pretenured record", |vm, _| {
            let head = Value::Ptr(vm.slot_ptr(0));
            let site = vm.site("ovf::pretenured");
            vm.alloc_record(site, &[head, Value::Int(1), Value::Int(2), Value::Int(3)])
        }),
    ];
    // Sites register in the same order in every VM.
    let mut probe = build_vm(CollectorKind::Generational, &tight_config());
    let _ = probe.site("ovf::chain");
    let mut policy = PretenurePolicy::new();
    policy.add_site(probe.site("ovf::pretenured"));
    let config = tight_config().pretenure(policy);

    for kind in CollectorKind::ALL {
        for (shape, grow) in shapes {
            let label = format!("{} / {shape}", kind.label());
            let mut vm = build_vm(kind, &config);
            let site = vm.site("ovf::chain");
            let d = vm.register_frame(FrameDesc::new("ovf").slot(Trace::Pointer));
            vm.push_frame(d);
            vm.set_slot(0, Value::NULL);
            vm.push_handler();

            let overflow = (0..100_000)
                .find_map(|_| match grow(&mut vm, site) {
                    Ok(a) => {
                        vm.set_slot(0, Value::Ptr(a));
                        None
                    }
                    Err(e) => Some(e),
                })
                .unwrap_or_else(|| panic!("{label}: a 64 KB budget was never exhausted"));
            assert_eq!(
                overflow.outcome,
                RaiseOutcome::Caught { handler_depth: 1 },
                "{label}"
            );
            let error = overflow.error;
            assert!(
                error.budget.live_words <= error.budget.budget_words,
                "{label}: refused only after overrunning the budget: {error}"
            );
            let large = shape == "128-element array" && kind != CollectorKind::Semispace;
            let arena = if large { Arena::Los } else { Arena::Tenured };
            assert_eq!(error.arena, arena, "{label}: {error}");
            // Nothing was freed, so the retry is refused as well: a
            // collector that hands the mutator an allocation window
            // while the budget is spent would let it through.
            let retry = grow(&mut vm, site);
            assert!(retry.is_err(), "{label}: the retry got {retry:?}");

            vm.set_slot(0, Value::NULL);
            vm.gc_now();
            let again = vm.alloc_ptr_array(site, 128, Addr::NULL);
            assert!(again.is_ok(), "{label}: heap unusable: {:?}", again.err());
        }
    }
}

/// Enough injected attempt-failures to push past the ordinary slow path
/// into a governor episode, per plan: the semispace ladder opens after
/// two failed attempts, the generational nursery ladder after three.
fn episode_tokens(kind: CollectorKind) -> u32 {
    match kind {
        CollectorKind::Semispace => 2,
        _ => 3,
    }
}

/// A list-building workload with a burst of injected allocation
/// failures in the middle — deep enough to open a pressure episode, on a
/// budget generous enough that the retry rungs recover it.
fn pressured_workload(vm: &mut Vm, kind: CollectorKind) {
    let site = vm.site("ovf::cell");
    let d = vm.register_frame(FrameDesc::new("ovf").slot(Trace::Pointer));
    vm.push_frame(d);
    vm.set_slot(0, Value::NULL);
    for i in 0..300 {
        if i == 150 {
            vm.mutator_mut().inject_alloc_failures(episode_tokens(kind));
        }
        let tail = vm.slot_ptr(0);
        let c = vm
            .alloc_record(site, &[Value::Int(i), Value::Ptr(tail)])
            .expect("a generous budget recovers via the retry rungs");
        vm.set_slot(0, Value::Ptr(c));
    }
    vm.gc_now();
}

fn scrub(mut s: GcStats) -> GcStats {
    s.stack_wall_ns = 0;
    s.copy_wall_ns = 0;
    s.total_wall_ns = 0;
    s
}

#[test]
fn recovered_pressure_runs_stay_byte_deterministic() {
    let config = GcConfig::new()
        .heap_budget_bytes(256 << 10)
        .nursery_bytes(8 << 10);
    for kind in CollectorKind::ALL {
        let label = kind.label();
        let mut a = build_vm(kind, &config);
        pressured_workload(&mut a, kind);
        a.finish();
        let mut b = build_vm(kind, &config);
        pressured_workload(&mut b, kind);
        b.finish();
        assert_eq!(
            scrub(*a.gc_stats()),
            scrub(*b.gc_stats()),
            "{label}: identical pressured runs diverged"
        );

        // A recorder must observe the episode without perturbing the
        // deterministic counters, and the rung events must render to
        // schema-valid JSONL (begin/rung/end bracketing included).
        let mut r = build_vm_with_recorder(
            kind,
            &config,
            Box::new(RingRecorder::with_capacity(1 << 16)),
        );
        pressured_workload(&mut r, kind);
        r.finish();
        assert_eq!(
            scrub(*a.gc_stats()),
            scrub(*r.gc_stats()),
            "{label}: recording a pressured run perturbed GcStats"
        );
        let events = RingRecorder::drain_events_from(r.recorder_mut()).expect("recorder installed");
        let begins = events
            .iter()
            .filter(|e| matches!(e, Event::PressureBegin(_)))
            .count();
        let rungs = events
            .iter()
            .filter(|e| matches!(e, Event::PressureRung(_)))
            .count();
        assert!(begins >= 1, "{label}: no pressure episode recorded");
        assert!(rungs >= 1, "{label}: no ladder rung recorded");
        let doc = jsonl::render(label, "heap-overflow-test", 150_000_000, &[], &events);
        schema::validate_jsonl(&doc).unwrap_or_else(|e| panic!("{label}: {e}"));
    }
}
