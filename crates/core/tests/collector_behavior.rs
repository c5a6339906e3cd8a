//! Scenario tests for the generational collector: write barriers,
//! promotion, large objects, stack markers, pretenuring and exceptions,
//! all through the public `Vm` API.

use tilgc_core::{
    build_vm, verify_vm, vm_snapshot, CollectorKind, GcConfig, MarkerPolicy, PretenurePolicy,
};
use tilgc_mem::{object, Addr};
use tilgc_runtime::{FrameDesc, MutatorState, RaiseOutcome, Trace, Value, Vm, WriteBarrier};

fn small_config() -> GcConfig {
    GcConfig::new()
        .heap_budget_bytes(256 << 10)
        .nursery_bytes(8 << 10)
}

fn frame_with_ptrs(vm: &mut Vm, n: usize) -> tilgc_runtime::DescId {
    vm.register_frame(FrameDesc::new("test").slots(n, Trace::Pointer))
}

#[test]
fn minor_collections_promote_survivors() {
    let mut vm = build_vm(CollectorKind::Generational, &small_config());
    let site = vm.site("t::cell");
    let d = frame_with_ptrs(&mut vm, 1);
    vm.push_frame(d);
    vm.set_slot(0, Value::NULL);
    // Build a list with interleaved garbage so several minor GCs run.
    for i in 0..200 {
        let tail = vm.slot_ptr(0);
        let cell = vm
            .alloc_record(site, &[Value::Int(i), Value::Ptr(tail)])
            .unwrap();
        vm.set_slot(0, Value::Ptr(cell));
        for _ in 0..50 {
            let _ = vm.alloc_record(site, &[Value::Int(-1), Value::NULL]);
        }
    }
    let stats = vm.gc_stats();
    assert!(
        stats.collections > 3,
        "expected several minor GCs, got {}",
        stats.collections
    );
    let mut cur = vm.slot_ptr(0);
    for expect in (0..200).rev() {
        assert_eq!(vm.load_int(cur, 0), expect);
        cur = vm.load_ptr(cur, 1);
    }
    assert!(cur.is_null());
    verify_vm(&vm);
}

#[test]
fn ssb_catches_old_to_young_stores() {
    let mut vm = build_vm(CollectorKind::Generational, &small_config());
    let site = vm.site("t::node");
    let d = frame_with_ptrs(&mut vm, 2);
    vm.push_frame(d);
    // Allocate an object and force it into the tenured generation.
    let old = vm.alloc_record(site, &[Value::NULL]).unwrap();
    vm.set_slot(0, Value::Ptr(old));
    vm.gc_now();
    let old = vm.slot_ptr(0);
    // Allocate a young object and store it into the old one — the classic
    // old→young reference only the write barrier knows about.
    let young = vm.alloc_record(site, &[Value::NULL]).unwrap();
    vm.store_ptr(old, 0, young);
    // Deliberately do NOT root `young` in a slot; the barrier must keep it.
    vm.gc_now();
    let old = vm.slot_ptr(0);
    let kept = vm.load_ptr(old, 0);
    assert!(!kept.is_null());
    // The promoted young object is a valid, reachable record.
    assert!(vm.load_ptr(kept, 0).is_null());
    assert!(
        vm.gc_stats().barrier_entries > 0,
        "the SSB entry was filtered"
    );
    verify_vm(&vm);
}

#[test]
fn object_mark_barrier_is_equivalent_to_ssb() {
    // Run the same mutation-heavy workload under both barriers; final
    // graphs must match.
    let run = |barrier: WriteBarrier| -> Vec<u64> {
        let mut m = MutatorState::new();
        m.barrier = barrier;
        let (collector, mem) =
            tilgc_core::build_collector(CollectorKind::Generational, &small_config());
        let mut vm = Vm::with_mutator(m, collector, mem);
        let site = vm.site("t::slotbox");
        let d = frame_with_ptrs(&mut vm, 1);
        vm.push_frame(d);
        let arr = vm.alloc_ptr_array(site, 16, Addr::NULL).unwrap();
        vm.set_slot(0, Value::Ptr(arr));
        vm.gc_now(); // tenure the array
        for round in 0..300 {
            let arr = vm.slot_ptr(0);
            let v = vm.alloc_record(site, &[Value::Int(round)]).unwrap();
            vm.store_ptr(arr, (round % 16) as usize, v);
            for _ in 0..20 {
                let _ = vm.alloc_record(site, &[Value::Int(0)]);
            }
        }
        vm_snapshot(&vm)
    };
    let a = run(WriteBarrier::ssb());
    let b = run(WriteBarrier::object_mark());
    assert_eq!(a, b, "both barriers must preserve the same reachable graph");
}

#[test]
fn object_mark_barrier_dedups_repeated_updates() {
    let mut m = MutatorState::new();
    m.barrier = WriteBarrier::object_mark();
    let (collector, mem) =
        tilgc_core::build_collector(CollectorKind::Generational, &small_config());
    let mut vm = Vm::with_mutator(m, collector, mem);
    let site = vm.site("t::box");
    let d = frame_with_ptrs(&mut vm, 2);
    vm.push_frame(d);
    let boxed = vm.alloc_ptr_array(site, 4, Addr::NULL).unwrap();
    vm.set_slot(0, Value::Ptr(boxed));
    vm.gc_now();
    let boxed = vm.slot_ptr(0);
    let val = vm.alloc_record(site, &[Value::Int(3)]).unwrap();
    vm.set_slot(1, Value::Ptr(val));
    // 1000 updates to one object → one barrier entry.
    for _ in 0..1000 {
        let val = vm.slot_ptr(1);
        vm.store_ptr(boxed, 0, val);
    }
    assert_eq!(vm.mutator().barrier.pending(), 1);
    assert_eq!(vm.mutator_stats().pointer_updates, 1000);
}

#[test]
fn large_arrays_bypass_the_nursery_and_survive_majors() {
    let config = small_config().large_object_bytes(4 << 10);
    let mut vm = build_vm(CollectorKind::Generational, &config);
    let site = vm.site("t::bigarray");
    let small_site = vm.site("t::small");
    let d = frame_with_ptrs(&mut vm, 1);
    vm.push_frame(d);
    let big = vm.alloc_raw_array(site, 8 << 10).unwrap(); // 8 KB ≥ threshold
    vm.store_byte(big, 1000, 0xaa);
    vm.set_slot(0, Value::Ptr(big));
    let copied_before = vm.gc_stats().copied_bytes;
    vm.gc_major();
    // The large array is never copied.
    assert_eq!(vm.slot_ptr(0), big, "large objects do not move");
    assert_eq!(vm.load_byte(big, 1000), 0xaa);
    let copied_after = vm.gc_stats().copied_bytes;
    assert!(
        copied_after - copied_before < 1024,
        "the 8 KB array must not be copied"
    );
    // Drop the root: the next major sweeps it.
    vm.set_slot(0, Value::NULL);
    vm.gc_major();
    let _ = small_site;
    verify_vm(&vm);
}

/// A large object the major sweep frees dies at the sweep's allocation
/// clock in the §6 profile, not at the end of the run.
#[test]
fn profile_sees_large_objects_die_at_the_sweep() {
    let mut vm = build_vm(CollectorKind::Generational, &small_config().profiling(true));
    let big = vm.site("t::big");
    let junk = vm.site("t::junk");
    // Past the 16 KB large-object threshold, and unreferenced.
    let _ = vm.alloc_raw_array(big, 32 << 10).unwrap();
    vm.gc_major();
    for _ in 0..4096 {
        let _ = vm.alloc_record(junk, &[Value::Int(0)]);
    }
    vm.finish();
    let profile = vm.take_profile().expect("profiling enabled");
    let row = profile.site(big).expect("site seen");
    assert_eq!(row.dead_objects, 1);
    assert_eq!(
        row.avg_age_kb(),
        0.0,
        "it died before anything else was allocated"
    );
}

#[test]
fn large_ptr_array_keeps_young_initializer_alive() {
    let config = small_config().large_object_bytes(2 << 10);
    let mut vm = build_vm(CollectorKind::Generational, &config);
    let site = vm.site("t::bigptr");
    // The frame declares that it leaves a pointer in $4 — without the
    // declaration the trace tables would (rightly) miss the register root.
    let d = vm.register_frame(FrameDesc::new("losroot").def_pointer(tilgc_runtime::Reg::new(4)));
    vm.push_frame(d);
    vm.set_reg(tilgc_runtime::Reg::new(4), Value::NULL);
    // A young record used as the initializer of a large pointer array.
    let young = vm.alloc_record(site, &[Value::Int(77)]).unwrap();
    let big = vm.alloc_ptr_array(site, 1024, young).unwrap();
    // Only the array references the young record... and nothing roots the
    // array except a register.
    vm.set_reg(tilgc_runtime::Reg::new(4), Value::Ptr(big));
    vm.gc_now();
    let big = vm.reg_ptr(tilgc_runtime::Reg::new(4));
    let kept = vm.load_ptr(big, 0);
    assert_eq!(
        vm.load_int(kept, 0),
        77,
        "initializing store into LOS array kept alive"
    );
    verify_vm(&vm);
}

fn deep_recursion(vm: &mut Vm, d: tilgc_runtime::DescId, site: tilgc_mem::SiteId, depth: usize) {
    vm.push_frame(d);
    let obj = vm.alloc_record(site, &[Value::Int(depth as i64)]).unwrap();
    vm.set_slot(0, Value::Ptr(obj));
    if depth > 0 {
        deep_recursion(vm, d, site, depth - 1);
        // Allocate after the call so every level triggers GCs at varying
        // stack depths.
        for _ in 0..3 {
            let _ = vm.alloc_record(site, &[Value::Int(0)]);
        }
    } else {
        for _ in 0..2000 {
            let _ = vm.alloc_record(site, &[Value::Int(0)]);
        }
    }
    let kept = vm.slot_ptr(0);
    assert_eq!(
        vm.load_int(kept, 0),
        depth as i64,
        "per-frame root survived"
    );
    vm.pop_frame();
}

#[test]
fn stack_markers_cut_frames_scanned_on_deep_stacks() {
    let run = |kind: CollectorKind| -> (u64, u64) {
        let mut vm = build_vm(kind, &small_config());
        let site = vm.site("t::deep");
        let d = frame_with_ptrs(&mut vm, 1);
        deep_recursion(&mut vm, d, site, 300);
        let s = vm.gc_stats();
        (s.frames_scanned, s.collections)
    };
    let (frames_plain, gcs_plain) = run(CollectorKind::Generational);
    let (frames_marked, gcs_marked) = run(CollectorKind::GenerationalStack);
    assert_eq!(
        gcs_plain, gcs_marked,
        "same workload, same collection count"
    );
    assert!(
        frames_marked * 3 < frames_plain,
        "markers should slash frames scanned: {frames_marked} vs {frames_plain}"
    );
}

#[test]
fn exceptions_keep_the_scan_cache_sound() {
    let mut vm = build_vm(CollectorKind::GenerationalStack, &small_config());
    let site = vm.site("t::exn");
    let d = frame_with_ptrs(&mut vm, 1);
    // Build a deep stack with a handler in the middle.
    for i in 0..120 {
        vm.push_frame(d);
        let obj = vm.alloc_record(site, &[Value::Int(i)]).unwrap();
        vm.set_slot(0, Value::Ptr(obj));
        if i == 40 {
            vm.push_handler();
        }
    }
    vm.gc_now(); // scan + markers over 120 frames
                 // Raise: jumps from depth 120 to 41, past the markers in between.
    match vm.raise() {
        RaiseOutcome::Caught { handler_depth } => assert_eq!(handler_depth, 41),
        RaiseOutcome::Uncaught => panic!("handler was installed"),
    }
    // Regrow with fresh frames and different roots.
    for i in 0..60 {
        vm.push_frame(d);
        let obj = vm.alloc_record(site, &[Value::Int(1000 + i)]).unwrap();
        vm.set_slot(0, Value::Ptr(obj));
    }
    vm.gc_now();
    // All 101 frames' roots must be intact; shadow checks inside the scan
    // plus the verifier cover soundness.
    verify_vm(&vm);
    for depth in 0..41 {
        let frame = vm.mutator().stack.frame(depth);
        let addr = Addr::new(frame.word(0) as u32);
        assert!(!addr.is_null());
    }
}

#[test]
fn pretenuring_reduces_copying_and_preserves_the_graph() {
    let run = |policy: Option<PretenurePolicy>| -> (u64, Vec<u64>) {
        let mut config = small_config();
        let kind = if policy.is_some() {
            CollectorKind::GenerationalStackPretenure
        } else {
            CollectorKind::Generational
        };
        if let Some(p) = policy {
            config = config.pretenure(p);
        }
        let mut vm = build_vm(kind, &config);
        let long_site = vm.site("t::longlived");
        let short_site = vm.site("t::shortlived");
        let d = frame_with_ptrs(&mut vm, 1);
        vm.push_frame(d);
        vm.set_slot(0, Value::NULL);
        for i in 0..500 {
            let tail = vm.slot_ptr(0);
            let cell = vm
                .alloc_record(long_site, &[Value::Int(i), Value::Ptr(tail)])
                .unwrap();
            vm.set_slot(0, Value::Ptr(cell));
            for _ in 0..30 {
                let _ = vm.alloc_record(short_site, &[Value::Int(0), Value::NULL]);
            }
        }
        (vm.gc_stats().copied_bytes, vm_snapshot(&vm))
    };

    let (copied_plain, snap_plain) = run(None);
    // Pretenure the long-lived site. Its id must match across runs — site
    // registration order is identical, so recompute it.
    let mut probe = build_vm(CollectorKind::Generational, &small_config());
    let long_site = probe.site("t::longlived");
    let mut policy = PretenurePolicy::new();
    policy.add_site(long_site);
    let (copied_pt, snap_pt) = run(Some(policy));

    assert_eq!(
        snap_plain, snap_pt,
        "pretenuring must not change program results"
    );
    assert!(
        copied_pt * 2 < copied_plain,
        "pretenuring the long-lived site should slash copying: {copied_pt} vs {copied_plain}"
    );
}

#[test]
fn pretenured_objects_with_young_children_are_scanned() {
    let mut probe = build_vm(CollectorKind::Generational, &small_config());
    let pt_site = probe.site("t::pt");
    let mut policy = PretenurePolicy::new();
    policy.add_site(pt_site);
    let config = small_config().pretenure(policy);
    let mut vm = build_vm(CollectorKind::GenerationalStackPretenure, &config);
    let pt_site = vm.site("t::pt");
    let young_site = vm.site("t::young");
    let d = frame_with_ptrs(&mut vm, 1);
    vm.push_frame(d);
    // A young child referenced ONLY from a pretenured (tenured-at-birth)
    // parent: the pretenured-region scan must find it.
    let child = vm.alloc_record(young_site, &[Value::Int(1234)]).unwrap();
    let parent = vm.alloc_record(pt_site, &[Value::Ptr(child)]).unwrap();
    vm.set_slot(0, Value::Ptr(parent));
    assert!(
        vm.gc_stats().pretenured_bytes > 0,
        "parent went straight to tenured"
    );
    vm.gc_now();
    let parent = vm.slot_ptr(0);
    let child = vm.load_ptr(parent, 0);
    assert_eq!(vm.load_int(child, 0), 1234);
    verify_vm(&vm);
}

#[test]
fn forced_major_compacts_tenured_garbage() {
    let mut vm = build_vm(CollectorKind::Generational, &small_config());
    let site = vm.site("t::g");
    let d = frame_with_ptrs(&mut vm, 1);
    vm.push_frame(d);
    // Tenure a chunk of data, then drop it.
    let a = vm.alloc_ptr_array(site, 256, Addr::NULL).unwrap();
    vm.set_slot(0, Value::Ptr(a));
    vm.gc_now();
    let live_with_garbage = vm.gc_stats().last_live_bytes;
    vm.set_slot(0, Value::NULL);
    vm.gc_major();
    let live_after = vm.gc_stats().last_live_bytes;
    assert!(vm.gc_stats().major_collections >= 1);
    assert!(
        live_after < live_with_garbage,
        "major collection reclaims tenured garbage: {live_after} vs {live_with_garbage}"
    );
}

#[test]
fn snapshot_is_stable_across_forced_collections() {
    let mut vm = build_vm(CollectorKind::GenerationalStack, &small_config());
    let site = vm.site("t::stable");
    let d = frame_with_ptrs(&mut vm, 2);
    vm.push_frame(d);
    let arr = vm.alloc_ptr_array(site, 8, Addr::NULL).unwrap();
    vm.set_slot(0, Value::Ptr(arr));
    for i in 0..8 {
        let arr = vm.slot_ptr(0);
        let v = vm.alloc_record(site, &[Value::Int(i)]).unwrap();
        vm.store_ptr(arr, i as usize, v);
    }
    let before = vm_snapshot(&vm);
    vm.gc_now();
    assert_eq!(
        vm_snapshot(&vm),
        before,
        "minor GC preserves the reachable graph"
    );
    vm.gc_major();
    assert_eq!(
        vm_snapshot(&vm),
        before,
        "major GC preserves the reachable graph"
    );
}

#[test]
fn tenure_threshold_ages_objects_through_the_nursery_system() {
    // §7.2 variant: with threshold 3, a live object must survive three
    // minor collections before reaching the tenured generation.
    let config = small_config().tenure_threshold(3);
    let mut vm = build_vm(CollectorKind::Generational, &config);
    // Chunks go to the first space reserved in them, so the first
    // tenured half starts in the nursery's last chunk; a first major
    // moves tenured allocation to the second half, whose chunks are all
    // tenured-owned.
    vm.gc_major();
    let site = vm.site("t::aged");
    let d = frame_with_ptrs(&mut vm, 1);
    vm.push_frame(d);
    let obj = vm.alloc_record(site, &[Value::Int(77)]).unwrap();
    vm.set_slot(0, Value::Ptr(obj));

    let space = |vm: &tilgc_runtime::Vm| vm.mem().chunk_owner(vm.slot_ptr(0));
    // Two minors: still young (copied back), nothing tenured.
    vm.gc_now();
    assert_eq!(space(&vm), Some("nursery"), "age 1: copied back");
    vm.gc_now();
    assert_eq!(space(&vm), Some("nursery"), "age 2: copied back");
    // Third minor: age reaches the threshold — promoted.
    vm.gc_now();
    assert_eq!(
        space(&vm),
        Some("tenured"),
        "age 3: promoted to the tenured generation"
    );
    let obj = vm.slot_ptr(0);
    assert_eq!(vm.load_int(obj, 0), 77);
    // Once tenured, minor collections leave it alone.
    let before = vm.slot_ptr(0);
    vm.gc_now();
    assert_eq!(
        vm.slot_ptr(0),
        before,
        "tenured objects do not move at minors"
    );
    verify_vm(&vm);
}

#[test]
fn tenure_threshold_preserves_linked_structures() {
    // The same list workload as the immediate-promotion test, with aging.
    let config = small_config().tenure_threshold(2);
    let mut vm = build_vm(CollectorKind::GenerationalStack, &config);
    let site = vm.site("t::cell");
    let d = frame_with_ptrs(&mut vm, 1);
    vm.push_frame(d);
    vm.set_slot(0, Value::NULL);
    for i in 0..300 {
        let tail = vm.slot_ptr(0);
        let cell = vm
            .alloc_record(site, &[Value::Int(i), Value::Ptr(tail)])
            .unwrap();
        vm.set_slot(0, Value::Ptr(cell));
        for _ in 0..40 {
            let _ = vm.alloc_record(site, &[Value::Int(-1), Value::NULL]);
        }
    }
    assert!(vm.gc_stats().collections > 5);
    let mut cur = vm.slot_ptr(0);
    for expect in (0..300).rev() {
        assert_eq!(vm.load_int(cur, 0), expect);
        cur = vm.load_ptr(cur, 1);
    }
    assert!(cur.is_null());
    verify_vm(&vm);
}

#[test]
fn tenure_threshold_increases_copying_which_pretenuring_removes() {
    // §7.2: "Since objects that are tenured are copied several times
    // before being promoted, pretenuring in such systems is likely to
    // yield an even greater benefit."
    let run = |threshold: u8, pretenure: bool| -> u64 {
        let mut probe = build_vm(CollectorKind::Generational, &small_config());
        let long_site = probe.site("t::long");
        let mut config = small_config().tenure_threshold(threshold);
        if pretenure {
            let mut policy = PretenurePolicy::new();
            policy.add_site(long_site);
            config = config.pretenure(policy);
        }
        let kind = if pretenure {
            CollectorKind::GenerationalStackPretenure
        } else {
            CollectorKind::Generational
        };
        let mut vm = build_vm(kind, &config);
        let long_site = vm.site("t::long");
        let short_site = vm.site("t::short");
        let d = frame_with_ptrs(&mut vm, 1);
        vm.push_frame(d);
        vm.set_slot(0, Value::NULL);
        for i in 0..400 {
            let tail = vm.slot_ptr(0);
            let cell = vm
                .alloc_record(long_site, &[Value::Int(i), Value::Ptr(tail)])
                .unwrap();
            vm.set_slot(0, Value::Ptr(cell));
            for _ in 0..30 {
                let _ = vm.alloc_record(short_site, &[Value::Int(0), Value::NULL]);
            }
        }
        vm.gc_stats().copied_bytes
    };
    let immediate = run(0, false);
    let aged = run(3, false);
    assert!(
        aged > immediate,
        "threshold tenuring copies survivors repeatedly: {aged} vs {immediate}"
    );
    let aged_pretenured = run(3, true);
    assert!(
        aged_pretenured * 2 < aged,
        "pretenuring removes the repeated copies: {aged_pretenured} vs {aged}"
    );
}

#[test]
fn pointer_free_pretenured_objects_skip_the_region_scan() {
    // §7.2: pretenured raw arrays and pointer-free records need no scan.
    let mut probe = build_vm(CollectorKind::Generational, &small_config());
    let raw_site = probe.site("t::rawdata");
    let flat_site = probe.site("t::flat");
    let mut policy = PretenurePolicy::new();
    policy.add_site(raw_site);
    policy.add_site(flat_site);
    let config = small_config().pretenure(policy);
    let mut vm = build_vm(CollectorKind::GenerationalStackPretenure, &config);
    let raw_site = vm.site("t::rawdata");
    let flat_site = vm.site("t::flat");
    let d = frame_with_ptrs(&mut vm, 2);
    vm.push_frame(d);
    let raw = vm.alloc_raw_array(raw_site, 256).unwrap();
    vm.set_slot(0, Value::Ptr(raw));
    let flat = vm
        .alloc_record(flat_site, &[Value::Int(1), Value::Real(2.5)])
        .unwrap();
    vm.set_slot(1, Value::Ptr(flat));
    assert!(
        vm.gc_stats().pretenured_bytes > 0,
        "both went straight to tenured"
    );
    vm.gc_now();
    assert_eq!(
        vm.gc_stats().pretenured_scanned_words,
        0,
        "pointer-free pretenured objects must not be region-scanned"
    );
    assert_eq!(vm.load_byte(vm.slot_ptr(0), 0), 0);
    assert_eq!(vm.load_int(vm.slot_ptr(1), 0), 1);
    verify_vm(&vm);
}

#[test]
fn semispace_with_markers_reuses_decodes_but_processes_all_roots() {
    // §7.1: "Generational stack collection can also be used with
    // non-generational collectors" — every collection still relocates
    // every root, but cached frames skip the trace-table decode.
    let config = small_config().marker_policy(MarkerPolicy::PAPER);
    let mut m = MutatorState::new();
    m.barrier = WriteBarrier::None;
    let (plan, mem) = tilgc_core::SemispacePlan::new(&config);
    let mut vm = Vm::with_mutator(m, Box::new(plan), mem);
    let site = vm.site("t::deep");
    let d = frame_with_ptrs(&mut vm, 1);
    // A deep, persistent stack with one root per frame.
    for i in 0..200 {
        vm.push_frame(d);
        let obj = vm.alloc_record(site, &[Value::Int(i)]).unwrap();
        vm.set_slot(0, Value::Ptr(obj));
    }
    // Churn garbage at the top: repeated collections over an unchanged
    // prefix.
    for _ in 0..30_000 {
        let _ = vm.alloc_record(site, &[Value::Int(0)]);
    }
    let s = vm.gc_stats();
    assert!(s.collections > 3);
    assert!(
        s.frames_reused > 3 * s.frames_scanned,
        "the scan cache must carry most frames: reused {} vs scanned {}",
        s.frames_reused,
        s.frames_scanned
    );
    // Every frame's root is still correct after all those moving GCs.
    for depth in 0..200 {
        let frame = vm.mutator().stack.frame(depth);
        let addr = Addr::new(frame.word(0) as u32);
        assert_eq!(vm.load_int(addr, 0), depth as i64);
    }
    verify_vm(&vm);
}

/// The `Vm` owns the memory and hands it to the plan at every entry, so
/// there is one memory by construction: after a forced minor and a forced
/// major collection, the slots lead to moved objects whose fields the
/// `Vm`'s own loads — and a direct read of `vm.mem()` — find intact.
fn the_vm_reads_what_the_collector_wrote(kind: CollectorKind) {
    let mut vm = build_vm(kind, &small_config());
    let site = vm.site("t::owned");
    let d = frame_with_ptrs(&mut vm, 2);
    vm.push_frame(d);
    let raw = vm.alloc_raw_array(site, 24).unwrap();
    vm.store_f64(raw, 1, -7.25);
    vm.store_byte(raw, 23, 0x5a);
    vm.set_slot(1, Value::Ptr(raw));
    let rec = vm
        .alloc_record(site, &[Value::Int(41), Value::Ptr(raw)])
        .unwrap();
    vm.set_slot(1, Value::Ptr(rec));
    let arr = vm.alloc_ptr_array(site, 3, Addr::NULL).unwrap();
    let rec = vm.slot_ptr(1);
    vm.store_ptr(arr, 2, rec);
    vm.set_slot(0, Value::Ptr(arr));
    vm.set_slot(1, Value::NULL);

    for (what, major) in [("minor", false), ("major", true)] {
        let stale = vm.slot_ptr(0);
        if major {
            vm.gc_major();
        } else {
            vm.gc_now();
        }
        let arr = vm.slot_ptr(0);
        assert_ne!(arr, stale, "{what}: the array moved");
        assert_eq!(vm.header(arr).len(), 3, "{what}");
        let rec = vm.load_ptr(arr, 2);
        assert_eq!(
            object::field(vm.mem(), rec, 0),
            41,
            "{what}: read off vm.mem()"
        );
        assert_eq!(vm.load_int(rec, 0), 41, "{what}");
        let raw = vm.load_ptr(rec, 1);
        assert_eq!(vm.load_f64(raw, 1), -7.25, "{what}");
        assert_eq!(vm.load_byte(raw, 23), 0x5a, "{what}");
        // A store after the collection lands where the next one looks.
        vm.store_int(rec, 0, 41);
        assert_eq!(verify_vm(&vm).objects, 3, "{what}");
    }
    assert_eq!(vm.gc_stats().collections, 2);
    // (A semispace plan counts no majors: every collection is full.)
    let majors = u64::from(kind != CollectorKind::Semispace);
    assert_eq!(vm.gc_stats().major_collections, majors);
}

#[test]
fn semispace_vm_reads_what_the_collector_wrote() {
    the_vm_reads_what_the_collector_wrote(CollectorKind::Semispace);
}

#[test]
fn generational_vm_reads_what_the_collector_wrote() {
    the_vm_reads_what_the_collector_wrote(CollectorKind::GenerationalStack);
}

/// Every path that writes an object stamps its site in the header, and
/// the stamp survives a minor and a major collection: a window hit, a
/// door entry (the window closed first), a large array (the LOS of a
/// generational plan) and a pretenured site (a pretenured region under
/// the pretenuring plan; an ordinary allocation elsewhere).
fn every_writer_stamps_the_site(kind: CollectorKind) {
    let mut probe = build_vm(kind, &small_config());
    let pretenured = probe.site("t::pretenured");
    let mut policy = PretenurePolicy::new();
    policy.add_site(pretenured);
    let config = small_config().large_object_bytes(2 << 10).pretenure(policy);
    let mut vm = build_vm(kind, &config);
    assert_eq!(vm.site("t::pretenured"), pretenured);
    let hit = vm.site("t::hit");
    let door = vm.site("t::door");
    let large = vm.site("t::large");
    let d = frame_with_ptrs(&mut vm, 4);
    vm.push_frame(d);
    // The first allocation enters the door, which lends the window the
    // second one bumps through.
    vm.alloc_record(hit, &[Value::Int(0)]).unwrap();
    let a = vm.alloc_record(hit, &[Value::Int(1)]).unwrap();
    vm.set_slot(0, Value::Ptr(a));
    vm.mutator_mut().close_window();
    let a = vm.alloc_record(door, &[Value::Int(2)]).unwrap();
    vm.set_slot(1, Value::Ptr(a));
    let a = vm.alloc_ptr_array(large, 1024, Addr::NULL).unwrap();
    vm.set_slot(2, Value::Ptr(a));
    let a = vm.alloc_raw_array(pretenured, 16).unwrap();
    vm.set_slot(3, Value::Ptr(a));

    let sites = [hit, door, large, pretenured];
    let check = |vm: &Vm, when: &str| {
        for (slot, &site) in sites.iter().enumerate() {
            let addr = vm.slot_ptr(slot);
            assert_eq!(vm.mem().site_of(addr), site, "{kind:?} slot {slot} {when}");
        }
    };
    check(&vm, "at allocation");
    let big = vm.slot_ptr(2);
    vm.gc_now();
    check(&vm, "after a minor collection");
    vm.gc_major();
    check(&vm, "after a major collection");
    verify_vm(&vm);
    if kind != CollectorKind::Semispace {
        assert_eq!(
            vm.slot_ptr(2),
            big,
            "{kind:?}: the large array sits in the LOS"
        );
    }
    if kind == CollectorKind::GenerationalStackPretenure {
        assert!(
            vm.gc_stats().pretenured_bytes > 0,
            "a pretenured region served the site"
        );
    }
}

#[test]
fn every_writer_stamps_the_site_on_every_plan() {
    for kind in CollectorKind::ALL {
        every_writer_stamps_the_site(kind);
    }
}
