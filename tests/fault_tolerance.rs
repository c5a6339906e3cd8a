//! Fault-injection differential: worker faults must be invisible to
//! everything but wall-clock time and the fault counters.
//!
//! For each injected fault kind (worker panic, worker stall, packet
//! drop) and for a one-cycle worker budget, a 4-worker run must
//! terminate, produce the same program answer, the same reachable heap
//! graph, and the same deterministic `GcStats` as the serial oracle —
//! only the `*_wall_ns` fields and the fault counters (`workers_lost`,
//! `degraded_collections`) may differ.
//! The degraded collection must announce itself in telemetry with a
//! schema-valid `degradation-begin`/`degradation-end` episode.

use tilgc::core::{
    build_vm, build_vm_with_recorder, verify_vm, vm_snapshot, CollectorKind, GcConfig,
    WorkerFaultKind, WorkerFaultSpec,
};
use tilgc::programs::Benchmark;
use tilgc::runtime::{Event, FrameDesc, GcStats, RingRecorder, Trace, Value};

fn big_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::Builder::new()
        .stack_size(256 << 20)
        .spawn(f)
        .expect("spawn")
        .join()
        .expect("benchmark thread panicked")
}

/// Same sizing as the parallel differential: identical collection
/// timing on both lanes and enough to-space headroom that the parallel
/// gate engages.
fn config(workers: usize) -> GcConfig {
    GcConfig::new()
        .heap_budget_bytes(48 << 20)
        .nursery_bytes(16 << 10)
        .large_object_bytes(4 << 10)
        .workers(workers)
}

/// Wall-clock fields plus the fault counters are the only sanctioned
/// divergence from the serial oracle.
fn normalize(mut s: GcStats) -> GcStats {
    s.stack_wall_ns = 0;
    s.copy_wall_ns = 0;
    s.total_wall_ns = 0;
    s.workers_lost = 0;
    s.degraded_collections = 0;
    s
}

/// Runs a benchmark and returns (answer, raw stats, reachable graph).
fn run(kind: CollectorKind, bench: Benchmark, config: &GcConfig) -> (u64, GcStats, Vec<u64>) {
    let mut vm = build_vm(kind, config);
    let answer = bench.run(&mut vm, 1);
    verify_vm(&vm);
    let stats = *vm.gc_stats();
    let graph = vm_snapshot(&vm);
    (answer, stats, graph)
}

fn spec(kind: WorkerFaultKind) -> WorkerFaultSpec {
    // Worker 0's first packet pop: the 16 KiB nursery makes for short
    // packet queues, so worker 0 is the only worker guaranteed to pop
    // at all. The spec stays armed across collections until it fires.
    WorkerFaultSpec {
        kind,
        worker: 0,
        packet: 0,
    }
}

fn fault_config(kind: WorkerFaultKind) -> GcConfig {
    let c = config(4).worker_fault(spec(kind));
    match kind {
        // A short wall-clock deadline keeps the stall lane fast; the
        // watchdog is the only way a stalled worker is ever noticed.
        WorkerFaultKind::Stall => c.watchdog_ms(5),
        _ => c,
    }
}

/// One way to lose work mid-drain: its label, the 4-worker config that
/// provokes it, the `degradation-begin` triggers it may report, and
/// whether it retires a worker (a dropped packet only orphans work).
type Scenario = (&'static str, GcConfig, &'static [&'static str], bool);

/// The three injected fault kinds, plus a one-cycle `worker_cycle_budget`
/// — every worker retires after its first packet of every collection.
fn scenarios() -> [Scenario; 4] {
    [
        (
            "panic",
            fault_config(WorkerFaultKind::Panic),
            &["panic"],
            true,
        ),
        // A stalled worker is usually caught by the watchdog, but the
        // queue can also close on the loss before the latch releases,
        // surfacing the episode as a panic-path loss.
        (
            "stall",
            fault_config(WorkerFaultKind::Stall),
            &["watchdog", "panic"],
            true,
        ),
        (
            "drop",
            fault_config(WorkerFaultKind::Drop),
            &["orphan"],
            false,
        ),
        (
            "budget",
            config(4).worker_cycle_budget(1),
            &["budget"],
            true,
        ),
    ]
}

/// Every scenario, against the serial oracle, on two plans whose
/// parallel lanes engage under this sizing (the semispace plan never
/// collects Life inside a 48 MiB budget, so a fault armed there would
/// be inert).
#[test]
fn injected_faults_reproduce_the_serial_oracle() {
    big_stack(|| {
        for kind in [
            CollectorKind::Generational,
            CollectorKind::GenerationalStack,
        ] {
            let serial = run(kind, Benchmark::Life, &config(1));
            for (fault, faulted_config, _, loses_worker) in scenarios() {
                let faulted = run(kind, Benchmark::Life, &faulted_config);
                assert_eq!(
                    serial.0,
                    faulted.0,
                    "{} / {:?}: answers diverged",
                    kind.label(),
                    fault
                );
                assert_eq!(
                    normalize(serial.1),
                    normalize(faulted.1),
                    "{} / {:?}: deterministic GcStats diverged",
                    kind.label(),
                    fault
                );
                assert_eq!(
                    serial.2,
                    faulted.2,
                    "{} / {:?}: reachable heap graphs diverged",
                    kind.label(),
                    fault
                );
                assert!(
                    faulted.1.degraded_collections >= 1,
                    "{} / {:?}: injected fault never degraded a collection",
                    kind.label(),
                    fault
                );
                assert!(
                    !loses_worker || faulted.1.workers_lost >= 1,
                    "{} / {:?}: lost worker not counted",
                    kind.label(),
                    fault
                );
                assert_eq!(
                    serial.1.workers_lost, 0,
                    "serial oracle must not lose workers"
                );
                assert_eq!(
                    serial.1.degraded_collections, 0,
                    "serial oracle must not degrade"
                );
            }
        }
    });
}

/// The degraded collection announces itself: exactly one bracketed
/// degradation episode per degraded collection, with the expected
/// trigger, and the whole trace still passes the JSONL schema validator.
#[test]
fn degradation_episode_is_bracketed_and_schema_valid() {
    big_stack(|| {
        for (fault, faulted_config, triggers, _) in scenarios() {
            let mut vm = build_vm_with_recorder(
                CollectorKind::Generational,
                &faulted_config,
                Box::new(RingRecorder::with_capacity(1 << 16)),
            );
            let _ = Benchmark::Life.run(&mut vm, 1);
            verify_vm(&vm);
            let stats = *vm.gc_stats();
            assert!(stats.degraded_collections >= 1, "{fault:?}: never degraded");
            let events = RingRecorder::drain_events_from(vm.recorder_mut()).expect("ring");
            let mut begins = 0usize;
            let mut ends = 0usize;
            for e in &events {
                match e {
                    Event::DegradationBegin(b) => {
                        begins += 1;
                        assert!(
                            triggers.contains(&b.trigger),
                            "{fault:?}: unexpected trigger {:?}",
                            b.trigger
                        );
                        assert_eq!(b.workers, 4);
                        assert!(b.workers_lost <= b.workers);
                    }
                    Event::DegradationEnd(end) => {
                        ends += 1;
                        assert_eq!(end.outcome, "drained");
                    }
                    _ => {}
                }
            }
            assert_eq!(begins, ends, "{fault:?}: unbalanced degradation episodes");
            assert_eq!(
                begins as u64, stats.degraded_collections,
                "{fault:?}: episode count disagrees with GcStats"
            );
            let doc = tilgc_obs::jsonl::render("generational", "life", 1, &[], &events);
            if let Err(e) = tilgc_obs::schema::validate_jsonl(&doc) {
                panic!("{fault:?}: trace failed schema validation: {e}");
            }
            // Worker rows and degradation lines decode back to the
            // events that were recorded.
            let mut decoded = Vec::new();
            let each = |e| {
                decoded.push(e);
                Ok(())
            };
            tilgc_obs::jsonl::read_doc(&doc, each).expect("decodes");
            assert_eq!(decoded, events, "{fault:?}: codec round trip");
        }
    });
}

/// TTSP: every recorded collection-begin carries the mutator's distance
/// from its last safepoint poll. Reading it charges nothing, so a
/// recorded run and an unrecorded one agree on the answer and on
/// `GcStats`, and the trace validates.
#[test]
fn ttsp_is_observational() {
    big_stack(|| {
        let (bare_answer, bare_stats, _) =
            run(CollectorKind::Generational, Benchmark::Life, &config(1));

        let mut vm = build_vm_with_recorder(
            CollectorKind::Generational,
            &config(1),
            Box::new(RingRecorder::with_capacity(1 << 16)),
        );
        let answer = Benchmark::Life.run(&mut vm, 1);
        verify_vm(&vm);
        assert_eq!(bare_answer, answer, "recording TTSP changed the answer");
        assert_eq!(
            normalize(bare_stats),
            normalize(*vm.gc_stats()),
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

/// A budget no worker can reach retires no one: the knob is inert until
/// a worker actually overruns it.
#[test]
fn a_roomy_cycle_budget_never_degrades() {
    big_stack(|| {
        let roomy = config(4).worker_cycle_budget(u64::MAX / 2);
        let (_, stats, _) = run(CollectorKind::Generational, Benchmark::Life, &roomy);
        assert_eq!(stats.workers_lost, 0);
        assert_eq!(stats.degraded_collections, 0);
    });
}

/// Faults armed under a serial configuration are inert: `workers = 1`
/// never takes the parallel lane, so the spec never fires and the run
/// is indistinguishable from a fault-free one.
#[test]
fn serial_runs_ignore_armed_faults() {
    big_stack(|| {
        let plain = run(CollectorKind::Generational, Benchmark::Life, &config(1));
        let armed = run(
            CollectorKind::Generational,
            Benchmark::Life,
            &config(1).worker_fault(spec(WorkerFaultKind::Panic)),
        );
        assert_eq!(plain.0, armed.0);
        assert_eq!(normalize(plain.1), normalize(armed.1));
        assert_eq!(plain.2, armed.2);
        assert_eq!(armed.1.workers_lost, 0);
        assert_eq!(armed.1.degraded_collections, 0);
    });
}

/// The fallback branch of the headroom gate: while the to-space cannot
/// spare the workers' chunk slack, a `workers(4)` collection runs the
/// serial lane — nothing is lost, nothing degrades, and the injected
/// fault stays armed (not spent) until the first collection that does
/// engage the lanes.
#[test]
fn tight_heaps_fall_back_to_serial_and_keep_the_fault_armed() {
    // 32 KiB semispaces against 16 KiB of slack for four workers: the
    // gate needs the collected half at most half full.
    let config = GcConfig::new()
        .heap_budget_bytes(64 << 10)
        .workers(4)
        .worker_fault(spec(WorkerFaultKind::Panic));
    let mut vm = build_vm(CollectorKind::Semispace, &config);
    let site = vm.site("tight::cell");
    let d = vm.register_frame(FrameDesc::new("tight").slot(Trace::Pointer));
    vm.push_frame(d);
    let churn = |vm: &mut tilgc::runtime::Vm, keep: usize, collections: u64| {
        vm.set_slot(0, Value::NULL);
        for i in 0..keep {
            let tail = vm.slot_ptr(0);
            let cell = vm
                .alloc_record(site, &[Value::Int(i as i64), Value::Ptr(tail)])
                .unwrap();
            vm.set_slot(0, Value::Ptr(cell));
        }
        let until = vm.gc_stats().collections + collections;
        while vm.gc_stats().collections < until {
            let _ = vm.alloc_record(site, &[Value::Int(0), Value::NULL]);
        }
    };

    // 400 live cells (1200 words) keep the resize target at the cap, so
    // every collection finds the active half full: too tight.
    churn(&mut vm, 400, 8);
    verify_vm(&vm);
    let tight = *vm.gc_stats();
    assert_eq!(tight.workers_lost, 0, "the lanes engaged on a tight heap");
    assert_eq!(tight.degraded_collections, 0);

    // With 30 live cells the heap resizes far below the cap and the gate
    // engages; the fault must still be there to fire.
    churn(&mut vm, 30, 200);
    verify_vm(&vm);
    let roomy = *vm.gc_stats();
    assert!(
        roomy.workers_lost >= 1 && roomy.degraded_collections >= 1,
        "the fault armed through the serial fallbacks never fired: {roomy:?}"
    );
}
