//! Accounting pinning: the verifier's independent [`LiveReport`] must
//! agree with each plan's own `GcStats`/`CollectionEnd` byte
//! accounting on hand-built heaps — exact equalities, not just the
//! inequalities `check_inspection` enforces. One test per plan the paper
//! compares, including a pretenured region scanned in place.

use tilgc_core::{build_vm, verify_collection, CollectorKind, GcConfig, PretenurePolicy};
use tilgc_mem::SiteId;
use tilgc_runtime::{CollectionEnd, FrameDesc, Trace, Value};

/// Bytes of a 2-field record: header word + 2 field words.
const REC_BYTES: u64 = 24;

fn inspection(vm: &tilgc_runtime::Vm) -> CollectionEnd {
    vm.collector()
        .last_inspection()
        .expect("a collection has run")
        .clone()
}

#[test]
fn semispace_report_matches_copied_bytes_exactly() {
    let config = GcConfig::new().heap_budget_bytes(64 << 10);
    let mut vm = build_vm(CollectorKind::Semispace, &config);
    let frame = vm.register_frame(FrameDesc::new("acct").slots(2, Trace::Pointer));
    vm.push_frame(frame);
    let site = vm.site("acct::rec");
    let keep = vm
        .alloc_record(site, &[Value::Int(1), Value::Int(2)])
        .unwrap();
    vm.set_slot(0, Value::Ptr(keep));
    // Garbage that must NOT be copied or reported.
    for i in 0..10 {
        let _ = vm.alloc_record(site, &[Value::Int(i), Value::Int(i)]);
    }
    vm.gc_now();

    let report = verify_collection(&vm, 0);
    let stats = vm.gc_stats();
    assert_eq!(stats.collections, 1);
    assert_eq!(report.objects, 1);
    assert_eq!(report.bytes as u64, stats.copied_bytes);
    assert_eq!(stats.copied_bytes, REC_BYTES);

    let insp = inspection(&vm);
    assert_eq!(insp.collection, 1);
    assert!(insp.major);
    assert_eq!(insp.depth, 1);
    assert_eq!(insp.copied_bytes, REC_BYTES);
    // A semispace collection Cheney-scans exactly what it copied.
    assert_eq!(
        insp.scanned_words * tilgc_mem::WORD_BYTES as u64,
        insp.copied_bytes
    );
    assert_eq!(insp.live_bytes_after, REC_BYTES);
    assert_eq!(insp.frames_scanned, 1);
    assert_eq!(insp.frames_reused, 0);
    assert_eq!(insp.pretenured_scanned_words, 0);
}

#[test]
fn generational_minor_promotes_exactly_the_reachable_bytes() {
    let config = GcConfig::new()
        .heap_budget_bytes(256 << 10)
        .nursery_bytes(8 << 10);
    let mut vm = build_vm(CollectorKind::Generational, &config);
    let frame = vm.register_frame(FrameDesc::new("acct").slots(2, Trace::Pointer));
    vm.push_frame(frame);
    let site = vm.site("acct::cons");
    // A 5-cell list rooted in slot 0, plus interleaved garbage.
    vm.set_slot(0, Value::NULL);
    for i in 0..5 {
        let tail = vm.slot_ptr(0);
        let cell = vm
            .alloc_record(site, &[Value::Ptr(tail), Value::Int(i)])
            .unwrap();
        vm.set_slot(0, Value::Ptr(cell));
        let _ = vm.alloc_record(site, &[Value::NULL, Value::Int(-1)]);
    }
    vm.gc_now();

    let report = verify_collection(&vm, 0);
    let stats = vm.gc_stats();
    assert_eq!(stats.collections, 1);
    assert_eq!(stats.major_collections, 0);
    assert_eq!(report.objects, 5);
    // Immediate promotion: after a minor, everything reachable sits in
    // the tenured generation and was copied by this collection.
    assert_eq!(report.bytes as u64, stats.copied_bytes);
    assert_eq!(stats.copied_bytes, 5 * REC_BYTES);

    let insp = inspection(&vm);
    assert!(!insp.major);
    assert_eq!(insp.copied_bytes, 5 * REC_BYTES);
    assert_eq!(insp.live_bytes_after, 5 * REC_BYTES);
}

#[test]
fn live_accounting_is_complete_under_a_tenure_threshold() {
    // With a §7.2 tenure threshold, minor survivors are copied back into
    // the nursery system — and still counted live: the record's live
    // bytes are exactly what the oracle reaches, so the live bound holds
    // on an aging minor as on any other collection.
    let config = GcConfig::new()
        .heap_budget_bytes(256 << 10)
        .nursery_bytes(8 << 10)
        .tenure_threshold(2);
    let mut vm = build_vm(CollectorKind::GenerationalStack, &config);
    let frame = vm.register_frame(FrameDesc::new("acct").slots(1, Trace::Pointer));
    vm.push_frame(frame);
    let site = vm.site("acct::rec");
    let keep = vm
        .alloc_record(site, &[Value::Int(5), Value::Int(6)])
        .unwrap();
    vm.set_slot(0, Value::Ptr(keep));
    vm.gc_now();

    let insp = inspection(&vm);
    assert!(!insp.major);
    // The survivor was copied within the nursery system, not tenured.
    assert_eq!(insp.copied_bytes, REC_BYTES);
    assert_eq!(insp.live_bytes_after, REC_BYTES);
    assert_eq!(vm.gc_stats().last_live_bytes, REC_BYTES);
    let report = verify_collection(&vm, 0);
    assert_eq!(report.bytes as u64, insp.live_bytes_after);
}

#[test]
fn stack_markers_pin_frame_reuse_accounting() {
    let config = GcConfig::new()
        .heap_budget_bytes(256 << 10)
        .nursery_bytes(8 << 10);
    let mut vm = build_vm(CollectorKind::GenerationalStack, &config);
    let frame = vm.register_frame(FrameDesc::new("acct").slots(1, Trace::Pointer));
    // 30 frames: one more than one marker interval (the paper's n = 25).
    for _ in 0..30 {
        vm.push_frame(frame);
    }
    vm.gc_now();
    let first = inspection(&vm);
    assert_eq!(first.depth, 30);
    assert_eq!(first.frames_scanned, 30, "first scan decodes everything");
    assert_eq!(first.frames_reused, 0);

    // Untouched stack: the second scan must reuse the marker-covered
    // prefix and rescan only the frames above the deepest intact marker.
    vm.gc_now();
    let second = inspection(&vm);
    assert_eq!(second.frames_scanned + second.frames_reused, 30);
    assert!(
        second.frames_reused >= 20,
        "marker at the 25-frame interval should cover most of the stack \
         (reused {})",
        second.frames_reused
    );
    assert_eq!(second.frames_reused, second.claimed_prefix);
    // The simulation oracle concedes the whole untouched stack but the
    // top frame; the claim must stay within it.
    assert_eq!(second.oracle_prefix, 29);
    assert!(second.claimed_prefix <= second.oracle_prefix);
    assert_eq!(second.copied_bytes, 0, "nothing young to copy");
    verify_collection(&vm, 0);
}

#[test]
fn pretenured_region_is_scanned_in_place_and_reported() {
    // Site ids are handed out in registration order starting at 1; the
    // pretenure policy is built before the VM exists.
    let mut policy = PretenurePolicy::new();
    policy.add_site(SiteId::new(1));
    let config = GcConfig::new()
        .heap_budget_bytes(256 << 10)
        .nursery_bytes(8 << 10)
        .pretenure(policy);
    let mut vm = build_vm(CollectorKind::GenerationalStackPretenure, &config);
    let frame = vm.register_frame(FrameDesc::new("acct").slots(2, Trace::Pointer));
    vm.push_frame(frame);
    let pre_site = vm.site("acct::pre"); // id 1: pretenured
    let young_site = vm.site("acct::young"); // id 2: nursery
    let young = vm
        .alloc_record(young_site, &[Value::Int(7), Value::Int(8)])
        .unwrap();
    vm.set_slot(0, Value::Ptr(young));
    // Born tenured, holding the only heap reference into the nursery —
    // the in-place scan must find it.
    let pre = vm
        .alloc_record(pre_site, &[Value::Ptr(young), Value::Int(9)])
        .unwrap();
    vm.set_slot(1, Value::Ptr(pre));
    vm.gc_now();

    let report = verify_collection(&vm, 0);
    let stats = vm.gc_stats();
    let insp = inspection(&vm);
    assert!(!insp.major);
    assert_eq!(stats.pretenured_bytes, REC_BYTES, "one record born tenured");
    assert!(
        insp.pretenured_scanned_words > 0,
        "the fresh pretenured region owes its one in-place scan"
    );
    // Reachable = the promoted young record (copied) + the pretenured
    // record (never copied, counted via pretenured_bytes).
    assert_eq!(report.objects, 2);
    assert_eq!(
        report.bytes as u64,
        insp.copied_bytes + stats.pretenured_bytes
    );
    assert_eq!(insp.copied_bytes, REC_BYTES);
    assert_eq!(insp.live_bytes_after, 2 * REC_BYTES);
}
