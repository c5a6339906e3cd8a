//! Pins what an allocation that does not fit *emits*: for every plan,
//! 0..8 injected attempt failures ahead of one allocation of each shape
//! that reaches each arena, the exact `pressure-*` / `collection-begin`
//! JSONL lines, the guest-visible result, the tokens
//! left over, `GcStats` and the client clock — against a checked-in
//! transcript.
//!
//! Every rung is charged *before* its recovery work, so a charge moved
//! after its collection shifts that collection's `start_cycles`; the
//! pretenured cases inject twice in one VM, so a rebalance rung taken a
//! second time shows up as an extra `pressure-rung` line.
//!
//! Regenerate (only when the ladder's behaviour changes on purpose):
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p tilgc-core --test ladder_transcript
//! ```

use std::fmt::Write as _;

use tilgc_core::{build_vm_with_recorder, CollectorKind, GcConfig, PretenurePolicy};
use tilgc_mem::{Addr, SiteId};
use tilgc_obs::jsonl::{self, Line};
use tilgc_obs::{Event, RingRecorder};
use tilgc_runtime::{FrameDesc, HeapOverflow, Trace, Value, Vm};

/// One shape per route an allocation can take.
#[derive(Clone, Copy, Debug)]
enum Case {
    /// A 2-field record: the young path.
    Record,
    /// A 300-element pointer array over the 1 KB large-object threshold.
    LargePtrArray,
    /// A 4 000-byte raw array over the same threshold.
    LargeRawArray,
    /// The 2-field record from a pretenured site.
    Pretenured,
}

const CASES: [Case; 4] = [
    Case::Record,
    Case::LargePtrArray,
    Case::LargeRawArray,
    Case::Pretenured,
];

struct Sites {
    cell: SiteId,
    hot: SiteId,
    cool: SiteId,
}

/// Registration order is fixed, so the ids are the same in every VM
/// (and in the policy built before the VM exists).
fn sites(vm: &mut Vm) -> Sites {
    Sites {
        cell: vm.site("lad::cell"),
        hot: vm.site("lad::hot"),
        cool: vm.site("lad::cool"),
    }
}

fn config(case: Case) -> GcConfig {
    let base = GcConfig::new()
        .heap_budget_bytes(256 << 10)
        .nursery_bytes(8 << 10)
        .large_object_bytes(1 << 10);
    if !matches!(case, Case::Pretenured) {
        return base;
    }
    let mut probe = build_vm_with_recorder(
        CollectorKind::Generational,
        &base,
        Box::new(RingRecorder::with_capacity(1)),
    );
    let s = sites(&mut probe);
    let mut policy = PretenurePolicy::new();
    policy.add_site(s.hot);
    policy.add_site(s.cool);
    base.pretenure(policy)
}

/// Conses one record from `site` onto the list rooted in slot 0.
fn cons(vm: &mut Vm, site: SiteId, i: i64) {
    let tail = vm.slot_ptr(0);
    if let Ok(c) = vm.alloc_record(site, &[Value::Int(i), Value::Ptr(tail)]) {
        vm.set_slot(0, Value::Ptr(c));
    }
}

fn describe(result: Result<Addr, HeapOverflow>) -> String {
    match result {
        Ok(_) => "ok".to_string(),
        Err(e) => format!("{:?}: {}", e.outcome, e.error),
    }
}

fn scenario(kind: CollectorKind, case: Case, tokens: u32) -> String {
    let mut vm = build_vm_with_recorder(
        kind,
        &config(case),
        Box::new(RingRecorder::with_capacity(1 << 16)),
    );
    let s = sites(&mut vm);
    let d = vm.register_frame(FrameDesc::new("lad").slot(Trace::Pointer));
    vm.push_frame(d);
    vm.set_slot(0, Value::NULL);
    vm.push_handler();
    // Some retained data first; `hot` allocates twice what `cool` does,
    // so the demotion rung ranks it first.
    for i in 0..90 {
        let site = [s.cell, s.hot, s.cool, s.hot][i as usize % 4];
        cons(&mut vm, site, i);
    }

    let mut out = format!("== {} {case:?} tokens={tokens}\n", kind.label());
    // The pretenured cases inject twice in one VM: the second episode
    // meets whatever one-shot state the first one spent.
    let requests: &[&str] = match case {
        Case::Record => &["record"],
        Case::LargePtrArray => &["ptr-array"],
        Case::LargeRawArray => &["raw-array"],
        Case::Pretenured => &["hot", "cool"],
    };
    for &name in requests {
        vm.mutator_mut().inject_alloc_failures(tokens);
        let tail = vm.slot_ptr(0);
        let result = match name {
            "record" => vm.alloc_record(s.cell, &[Value::Int(7), Value::Ptr(tail)]),
            "ptr-array" => vm.alloc_ptr_array(s.cell, 300, tail),
            "raw-array" => vm.alloc_raw_array(s.cell, 4000),
            "hot" => vm.alloc_record(s.hot, &[Value::Int(7), Value::NULL]),
            _ => vm.alloc_record(s.cool, &[Value::Int(8), Value::NULL]),
        };
        let left = vm.mutator_mut().take_alloc_failures();
        writeln!(out, "{name}: {} (tokens left {left})", describe(result)).unwrap();
    }

    for i in 0..200 {
        let site = [s.cell, s.hot, s.cool][i as usize % 3];
        cons(&mut vm, site, i);
    }
    vm.gc_now();
    vm.finish();

    let events = RingRecorder::drain_events_from(vm.recorder_mut()).expect("recorder installed");
    for e in &events {
        if matches!(
            e,
            Event::PressureBegin(_)
                | Event::PressureRung(_)
                | Event::PressureEnd(_)
                | Event::CollectionBegin(_)
        ) {
            out.push_str(&jsonl::event_line(e));
            out.push('\n');
        }
    }
    let mut stats = *vm.gc_stats();
    stats.stack_wall_ns = 0;
    stats.copy_wall_ns = 0;
    stats.total_wall_ns = 0;
    writeln!(out, "{stats:?}").unwrap();
    writeln!(out, "client_cycles {}", vm.mutator_stats().client_cycles).unwrap();
    out
}

#[test]
fn ladders_emit_the_pinned_transcript() {
    let mut actual = String::new();
    for kind in CollectorKind::ALL {
        for case in CASES {
            for tokens in 0..8 {
                actual.push_str(&scenario(kind, case, tokens));
            }
        }
    }
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/ladder_transcript.txt");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &actual).expect("write transcript");
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing {} ({e}); run UPDATE_GOLDEN=1 cargo test -p tilgc-core --test ladder_transcript",
            path.display()
        )
    });
    if actual != golden {
        let first = actual
            .lines()
            .zip(golden.lines())
            .enumerate()
            .find(|(_, (a, g))| a != g)
            .map(|(i, (a, g))| format!("line {}:\n  actual: {a}\n  golden: {g}", i + 1))
            .unwrap_or_else(|| {
                format!(
                    "{} lines vs {} in the golden",
                    actual.lines().count(),
                    golden.lines().count()
                )
            });
        panic!("ladder transcript diverged at {first}");
    }
}

/// Every event line of the golden decodes through the one codec and
/// re-encodes to the identical bytes: the pressure / demotion vocabulary
/// the ladders emit is the vocabulary the reader's one list allows.
#[test]
fn every_golden_event_line_round_trips_through_the_codec() {
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/ladder_transcript.txt");
    let golden = std::fs::read_to_string(path).expect("golden transcript");
    let mut lines = 0;
    for line in golden.lines().filter(|l| l.starts_with("{\"type\":")) {
        match jsonl::parse_line(line) {
            Ok(Line::Event(e)) => assert_eq!(jsonl::event_line(&e), line),
            other => panic!("{line}: {other:?}"),
        }
        lines += 1;
    }
    assert!(lines > 700, "only {lines} event lines in the golden");
}
