//! Time-to-safepoint telemetry is observational.
//!
//! This file once held the parallel lane's worker-fault differentials;
//! collection is serial now, and what stays is the one check that never
//! depended on workers: recording TTSP charges nothing and the trace it
//! lands in validates.

use tilgc::core::{build_vm, build_vm_with_recorder, verify_vm, CollectorKind, GcConfig};
use tilgc::programs::Benchmark;
use tilgc::runtime::{Event, GcStats, RingRecorder};

fn big_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::Builder::new()
        .stack_size(256 << 20)
        .spawn(f)
        .expect("spawn")
        .join()
        .expect("benchmark thread panicked")
}

/// A roomy heap over a 16 KiB nursery, so the run collects often.
fn config() -> GcConfig {
    GcConfig::new()
        .heap_budget_bytes(48 << 20)
        .nursery_bytes(16 << 10)
        .large_object_bytes(4 << 10)
}

/// Wall-clock fields are the only sanctioned divergence.
fn drop_wall(mut s: GcStats) -> GcStats {
    s.stack_wall_ns = 0;
    s.copy_wall_ns = 0;
    s.total_wall_ns = 0;
    s
}

/// TTSP: every recorded collection-begin carries the mutator's distance
/// from its last safepoint poll. Reading it charges nothing, so a
/// recorded run and an unrecorded one agree on the answer and on
/// `GcStats`, and the trace validates.
#[test]
fn ttsp_is_observational() {
    big_stack(|| {
        let mut bare = build_vm(CollectorKind::Generational, &config());
        let bare_answer = Benchmark::Life.run(&mut bare, 1);
        verify_vm(&bare);
        let bare_stats = *bare.gc_stats();

        let mut vm = build_vm_with_recorder(
            CollectorKind::Generational,
            &config(),
            Box::new(RingRecorder::with_capacity(1 << 16)),
        );
        let answer = Benchmark::Life.run(&mut vm, 1);
        verify_vm(&vm);
        assert_eq!(bare_answer, answer, "recording TTSP changed the answer");
        assert_eq!(
            drop_wall(bare_stats),
            drop_wall(*vm.gc_stats()),
            "recording TTSP changed GcStats"
        );

        let events = RingRecorder::drain_events_from(vm.recorder_mut()).expect("ring");
        let observed: Vec<u64> = events
            .iter()
            .filter_map(|e| match e {
                Event::CollectionBegin(b) => Some(b.ttsp_cycles),
                _ => None,
            })
            .collect();
        assert!(!observed.is_empty(), "benchmark must collect");
        assert!(
            observed.iter().any(|&t| t > 0),
            "no collection observed a nonzero time-to-safepoint"
        );

        // The metrics layer sees every collection, zeros included.
        let metrics = tilgc_obs::metrics::TtspMetrics::from_events(&events);
        assert_eq!(metrics.histogram().count(), observed.len() as u64);

        let doc = tilgc_obs::jsonl::render("generational", "life", 1, &[], &events);
        if let Err(e) = tilgc_obs::schema::validate_jsonl(&doc) {
            panic!("trace failed schema validation: {e}");
        }
        assert!(
            doc.contains("ttsp_cycles"),
            "trace must surface ttsp_cycles"
        );
    });
}
