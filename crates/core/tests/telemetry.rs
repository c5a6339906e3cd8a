//! Telemetry reconciliation: the event stream is not a parallel universe
//! of approximations — its sums must reproduce `GcStats` exactly, on
//! every plan, and an installed-but-disabled recorder must leave the
//! deterministic counters byte-identical to a run with no recorder.

use tilgc_core::{
    build_vm, build_vm_with_recorder, verify_vm, vm_snapshot, CollectorKind, GcConfig,
    PretenurePolicy,
};
use tilgc_mem::{Addr, SiteId};
use tilgc_obs::{jsonl, schema, CollectionEnd, Event, GcPhase, NullRecorder, RingRecorder};
use tilgc_programs::Benchmark;
use tilgc_runtime::{DescId, FrameDesc, GcStats, Trace, Value, Vm, NUM_REGS};

/// The site the pretenuring configuration tenures at birth. Site ids are
/// assigned in registration order starting at 1; the workload registers
/// this site first and asserts the id matched.
const CELL_SITE: u16 = 1;

fn config_for(kind: CollectorKind) -> GcConfig {
    let config = GcConfig::new()
        .heap_budget_bytes(256 << 10)
        .nursery_bytes(8 << 10);
    if kind == CollectorKind::GenerationalStackPretenure {
        let mut policy = PretenurePolicy::new();
        policy.add_site(SiteId::new(CELL_SITE));
        config.pretenure(policy)
    } else {
        config
    }
}

fn deep(vm: &mut Vm, d: DescId, site: SiteId, n: usize) {
    if n == 0 {
        vm.gc_now();
        return;
    }
    vm.push_frame(d);
    let c = vm
        .alloc_record(site, &[Value::Int(n as i64), Value::NULL])
        .unwrap();
    vm.set_slot(0, Value::Ptr(c));
    vm.set_slot(1, Value::NULL);
    deep(vm, d, site, n - 1);
    // Collect partway up so the unwound prefix differs from the scanned
    // one — frames_reused gets a chance to be nonzero under markers.
    if n == 20 {
        vm.gc_now();
    }
    vm.pop_frame();
}

/// Exercises every counter the events reconcile against: minor and major
/// collections, barrier traffic, a pointer array, deep recursion for the
/// marker machinery, and a forced final collection.
fn workload(vm: &mut Vm) {
    let cell = vm.site("telem::cell");
    assert_eq!(cell.get(), CELL_SITE);
    let junk = vm.site("telem::junk");
    let arr = vm.site("telem::arr");
    let d = vm.register_frame(FrameDesc::new("telem").slots(2, Trace::Pointer));
    vm.push_frame(d);
    vm.set_slot(0, Value::NULL);
    vm.set_slot(1, Value::NULL);
    for i in 0..150 {
        let tail = vm.slot_ptr(0);
        let c = vm
            .alloc_record(cell, &[Value::Int(i), Value::Ptr(tail)])
            .unwrap();
        vm.set_slot(0, Value::Ptr(c));
        for _ in 0..20 {
            let _ = vm.alloc_record(junk, &[Value::Int(-1), Value::NULL]);
        }
    }
    // Old-to-young store: the head is tenured by the forced collection,
    // the fresh cell is nursery-young.
    vm.gc_now();
    let head = vm.slot_ptr(0);
    let young = vm
        .alloc_record(cell, &[Value::Int(999), Value::NULL])
        .unwrap();
    vm.store_ptr(head, 1, young);
    let a = vm.alloc_ptr_array(arr, 64, head).unwrap();
    vm.set_slot(1, Value::Ptr(a));
    deep(vm, d, cell, 40);
    vm.gc_major();
    for _ in 0..100 {
        let _ = vm.alloc_record(junk, &[Value::Int(0), Value::NULL]);
    }
    vm.gc_now();
}

/// `GcStats` without its host-time fields, which legitimately differ run
/// to run, and the client cycles: everything deterministic a run counts.
fn base_stats(vm: &Vm) -> (GcStats, u64) {
    (
        vm.gc_stats().without_host_time(),
        vm.mutator_stats().client_cycles,
    )
}

/// Decodes a rendered document back to its events.
fn decode(doc: &str) -> Vec<Event> {
    let mut events = Vec::new();
    jsonl::read_doc(doc, |e| {
        events.push(e);
        Ok(())
    })
    .expect("a rendered stream decodes");
    events
}

#[test]
fn event_sums_reproduce_gc_stats_on_every_plan() {
    for kind in CollectorKind::ALL {
        let config = config_for(kind);
        let recorder = Box::new(RingRecorder::with_capacity(1 << 18));
        let mut vm = build_vm_with_recorder(kind, &config, recorder);
        workload(&mut vm);
        vm.finish();
        let stats = *vm.gc_stats();
        let events = RingRecorder::drain_events_from(vm.recorder_mut())
            .expect("a RingRecorder was installed");
        assert!(!events.is_empty(), "{}: no events recorded", kind.label());

        let mut begins = 0u64;
        let mut ends = 0u64;
        let mut censuses = 0u64;
        let mut sum = GcStats::default();
        let mut sum_gc_cycles = 0u64;
        let mut rung_cycles = 0u64;
        let mut phase_cycles: std::collections::HashMap<u64, u64> =
            std::collections::HashMap::new();
        let mut end_gc_cycles: std::collections::HashMap<u64, u64> =
            std::collections::HashMap::new();
        for e in &events {
            match e {
                Event::CollectionBegin(_) => begins += 1,
                Event::Phase(p) => *phase_cycles.entry(p.collection).or_default() += p.cycles,
                Event::CollectionEnd(c) => {
                    ends += 1;
                    sum.copied_bytes += c.copied_bytes;
                    sum.scanned_words += c.scanned_words;
                    sum.pretenured_scanned_words += c.pretenured_scanned_words;
                    sum.roots_found += c.roots_found;
                    sum.frames_scanned += c.frames_scanned;
                    sum.frames_reused += c.frames_reused;
                    sum.slots_scanned += c.slots_scanned;
                    sum.barrier_entries += c.barrier_entries;
                    sum.markers_placed += c.markers_placed;
                    sum_gc_cycles += c.gc_cycles;
                    end_gc_cycles.insert(c.collection, c.gc_cycles);
                }
                Event::PressureBegin(_) | Event::PressureEnd(_) => {}
                Event::PressureRung(r) => rung_cycles += r.cycles,
                Event::HeapCensus(c) => {
                    censuses += 1;
                    assert_eq!(
                        c.collection, ends,
                        "census trails its own collection's end event"
                    );
                    assert!(!c.spaces.is_empty(), "census without space rows");
                    for s in &c.spaces {
                        assert!(
                            s.used_words <= s.reserved_words,
                            "{}: used exceeds reserved",
                            s.space
                        );
                        assert!(s.chunks > 0, "{}: space owns no chunks", s.space);
                    }
                }
            }
        }

        let label = kind.label();
        assert_eq!(begins, stats.collections, "{label}: begin events");
        assert_eq!(ends, stats.collections, "{label}: end events");
        assert_eq!(censuses, stats.collections, "{label}: census events");
        assert_eq!(sum.copied_bytes, stats.copied_bytes, "{label}: copied");
        assert_eq!(sum.scanned_words, stats.scanned_words, "{label}: scanned");
        assert_eq!(
            sum.pretenured_scanned_words, stats.pretenured_scanned_words,
            "{label}: pretenured scan"
        );
        assert_eq!(sum.roots_found, stats.roots_found, "{label}: roots");
        assert_eq!(
            sum.frames_scanned, stats.frames_scanned,
            "{label}: frames scanned"
        );
        assert_eq!(
            sum.frames_reused, stats.frames_reused,
            "{label}: frames reused"
        );
        assert_eq!(
            sum.slots_scanned, stats.slots_scanned,
            "{label}: slots scanned"
        );
        assert_eq!(
            sum.barrier_entries, stats.barrier_entries,
            "{label}: barrier entries"
        );
        assert_eq!(
            sum.markers_placed, stats.markers_placed,
            "{label}: markers placed"
        );

        // The global identity: every simulated GC cycle is attributed
        // either to a collection or to a pressure-governor rung.
        assert_eq!(
            sum_gc_cycles + rung_cycles,
            stats.gc_cycles(),
            "{label}: gc cycles"
        );

        // Per-collection phase attribution is exact, not approximate.
        for (collection, total) in &end_gc_cycles {
            assert_eq!(
                phase_cycles.get(collection).copied().unwrap_or(0),
                *total,
                "{label}: phase cycle sum of collection {collection}"
            );
        }

        // The stream renders to schema-valid JSONL on every plan, and the
        // document decodes back to the very events that were recorded.
        let doc = jsonl::render(label, "telemetry-test", 150_000_000, &[], &events);
        schema::validate_jsonl(&doc).unwrap_or_else(|e| panic!("{label}: {e}"));
        assert_eq!(decode(&doc), events, "{label}: codec round trip");
        schema::check_stream(&events).unwrap_or_else(|e| panic!("{label}: {e}"));

        // Plan-specific signal checks, so the reconciliation above is
        // not vacuously summing zeros.
        assert!(stats.collections >= 3, "{label}: too few collections");
        assert!(stats.copied_bytes > 0, "{label}: nothing copied");
        if kind != CollectorKind::Semispace {
            assert!(stats.barrier_entries > 0, "{label}: no barrier traffic");
        }
        if kind == CollectorKind::GenerationalStack
            || kind == CollectorKind::GenerationalStackPretenure
        {
            assert!(stats.markers_placed > 0, "{label}: no markers placed");
        }
        if kind == CollectorKind::GenerationalStackPretenure {
            assert!(
                stats.pretenured_scanned_words > 0,
                "{label}: pretenured region never scanned"
            );
        }
    }
}

/// The PR 9 metrics layer reconciles exactly too: the streaming pause
/// histogram's count/sum reproduce `GcStats` (modulo governor rung
/// cycles, which are charged outside collection brackets by design), its
/// percentiles are ordered, and the MMU curve is monotone in the window.
/// The collection cycle is one pipeline, so one grammar holds for every
/// plan and every collection: `collection-begin, phase…, collection-end,
/// heap-census`, all naming the same collection, phases in canonical [`GcPhase`] order.
/// Returns the `(minor, major)` collection counts and each begin's
/// `ttsp_cycles`.
fn assert_cycle_grammar(label: &str, events: &[Event]) -> ((u64, u64), Vec<u64>) {
    let mut it = events
        .iter()
        .filter(|e| {
            // Pressure episodes bracket collections from the allocation
            // slow path; they are not part of a collection's own record.
            !matches!(
                e,
                Event::PressureBegin(_) | Event::PressureRung(_) | Event::PressureEnd(_)
            )
        })
        .peekable();
    let (mut minors, mut majors, mut ttsp) = (0, 0, Vec::new());
    while let Some(e) = it.next() {
        let Event::CollectionBegin(begin) = e else {
            panic!("{label}: expected collection-begin, got {e:?}");
        };
        let id = begin.collection;
        ttsp.push(begin.ttsp_cycles);
        let mut last_phase = None;
        while let Some(Event::Phase(span)) = it.peek() {
            assert_eq!(
                span.collection, id,
                "{label}: phase names another collection"
            );
            let rank = GcPhase::ALL.iter().position(|p| *p == span.phase);
            assert!(
                last_phase < rank,
                "{label}: collection {id} phase {:?} out of canonical order",
                span.phase
            );
            last_phase = rank;
            it.next();
        }
        assert!(
            last_phase.is_some(),
            "{label}: collection {id} has no phases"
        );
        let Some(Event::CollectionEnd(end)) = it.next() else {
            panic!("{label}: collection {id} phases not followed by collection-end");
        };
        assert_eq!((end.collection, end.major), (id, begin.major), "{label}");
        if begin.major {
            majors += 1;
        } else {
            minors += 1;
        }
        let Some(Event::HeapCensus(census)) = it.next() else {
            panic!("{label}: collection {id} end not followed by heap-census");
        };
        assert_eq!(census.collection, id, "{label}");
    }
    ((minors, majors), ttsp)
}

#[test]
fn every_plan_emits_one_collection_grammar() {
    for kind in CollectorKind::ALL {
        let label = kind.label();
        let recorder = Box::new(RingRecorder::with_capacity(1 << 18));
        let mut vm = build_vm_with_recorder(kind, &config_for(kind), recorder);
        workload(&mut vm);
        vm.finish();
        let events = RingRecorder::drain_events_from(vm.recorder_mut())
            .expect("a RingRecorder was installed");
        let ((minors, majors), ttsp) = assert_cycle_grammar(label, &events);
        assert_eq!(minors + majors, vm.gc_stats().collections, "{label}");
        if kind == CollectorKind::Semispace {
            assert!(
                majors >= 1 && minors == 0,
                "{label}: every collection is full"
            );
        } else {
            assert!(
                minors >= 1 && majors >= 1,
                "{label}: need both collection kinds"
            );
        }
        assert!(ttsp.iter().any(|&t| t > 0), "{label}: no TTSP observed");
    }
}

#[test]
fn pause_metrics_reconcile_against_gc_stats_on_every_plan() {
    use tilgc_obs::metrics::PauseMetrics;
    for kind in CollectorKind::ALL {
        let config = config_for(kind);
        let recorder = Box::new(RingRecorder::with_capacity(1 << 18));
        let mut vm = build_vm_with_recorder(kind, &config, recorder);
        workload(&mut vm);
        vm.finish();
        let stats = *vm.gc_stats();
        let client_cycles = vm.mutator_stats().client_cycles;
        let events = RingRecorder::drain_events_from(vm.recorder_mut())
            .expect("a RingRecorder was installed");

        let label = kind.label();
        let mut metrics = PauseMetrics::from_events(&events);
        metrics.set_horizon(client_cycles + stats.gc_cycles());
        let h = metrics.histogram();

        // Exact identities against GcStats.
        assert_eq!(h.count(), stats.collections, "{label}: histogram count");
        assert_eq!(
            metrics.pause_count() as u64,
            stats.collections,
            "{label}: pause intervals"
        );
        let rung_cycles: u64 = events
            .iter()
            .filter_map(|e| match e {
                Event::PressureRung(r) => Some(r.cycles),
                _ => None,
            })
            .sum();
        assert_eq!(
            h.sum() + rung_cycles,
            stats.gc_cycles(),
            "{label}: histogram sum + rung cycles == total gc cycles"
        );
        assert!(h.max() <= stats.gc_cycles(), "{label}: max pause bound");
        assert!(h.min() > 0, "{label}: zero-cycle collection");

        // Percentiles are ordered and land within [min, max].
        let ps: Vec<u64> = [500, 900, 990, 999, 1000]
            .iter()
            .map(|&p| h.percentile(p))
            .collect();
        assert!(ps.windows(2).all(|w| w[0] <= w[1]), "{label}: {ps:?}");
        assert!(ps[0] >= h.min(), "{label}: p50 below min");
        assert_eq!(ps[4], h.max(), "{label}: p100 is the max");

        // MMU is not monotone in the window in general (clustered pauses
        // can dent larger windows), but for this workload's pause spacing
        // the curve is non-decreasing — and the whole-run point must be
        // exactly the run's mutator fraction. All deterministic.
        let horizon = metrics.horizon();
        assert_eq!(
            horizon,
            client_cycles + stats.gc_cycles(),
            "{label}: horizon is the run's full timeline"
        );
        let windows = [1_000, 10_000, 100_000, horizon];
        let curve = metrics.mmu_curve(&windows);
        assert!(
            curve.windows(2).all(|w| w[0].1 <= w[1].1),
            "{label}: MMU not monotone: {curve:?}"
        );
        let overall = (horizon - (stats.gc_cycles() - rung_cycles)) * 1000 / horizon;
        assert_eq!(
            curve.last().unwrap().1,
            overall,
            "{label}: whole-run MMU is the mutator fraction"
        );
        assert!(curve.iter().all(|&(_, u)| u <= 1000), "{label}: {curve:?}");
    }
}

/// Runs [`workload`] under a ring recorder and returns the VM and its
/// stream as JSONL with `wall_ns` blanked.
fn ringed_run(kind: CollectorKind, config: &GcConfig) -> (Vm, String) {
    let recorder = Box::new(RingRecorder::with_capacity(1 << 18));
    let mut vm = build_vm_with_recorder(kind, config, recorder);
    workload(&mut vm);
    vm.finish();
    let events = RingRecorder::drain_events_from(vm.recorder_mut()).expect("ring");
    let doc = jsonl::render(kind.label(), "telemetry-test", 1, &[], &events);
    (vm, blank_wall_ns(&doc))
}

/// Neither a recorder nor the heap profiler moves a simulated number:
/// `gc-log` records with both, so its stream must be the one a bare
/// recorder sees. The profile it keeps reconciles with the run's own
/// counters, §7.2 aging (survivors copied more than once from the
/// nursery) included.
#[test]
fn installed_recorders_leave_gc_stats_byte_identical() {
    let aging = (
        CollectorKind::Generational,
        config_for(CollectorKind::Generational).tenure_threshold(3),
    );
    let runs = CollectorKind::ALL.map(|kind| (kind, config_for(kind)));
    for (kind, config) in runs.into_iter().chain([aging]) {
        let mut bare = build_vm(kind, &config);
        workload(&mut bare);
        bare.finish();

        let mut nulled = build_vm_with_recorder(kind, &config, Box::new(NullRecorder));
        workload(&mut nulled);
        nulled.finish();

        let (ringed, ring_doc) = ringed_run(kind, &config);
        let (mut profiled, profiled_doc) = ringed_run(kind, &config.clone().profiling(true));

        let label = format!("{} (tenure age {})", kind.label(), config.tenure_threshold);
        let base = base_stats(&bare);
        assert_eq!(base, base_stats(&nulled), "{label}: NullRecorder perturbed");
        assert_eq!(base, base_stats(&ringed), "{label}: RingRecorder perturbed");
        assert_eq!(base, base_stats(&profiled), "{label}: profiling perturbed");
        assert_eq!(
            bare.mutator_stats().alloc_bytes,
            ringed.mutator_stats().alloc_bytes,
            "{label}: recording perturbed allocation accounting"
        );
        assert_eq!(
            ring_doc, profiled_doc,
            "{label}: profiling perturbed the event stream"
        );

        let profile = profiled
            .take_profile()
            .unwrap_or_else(|| panic!("{label}: the profiled run kept no profile"));
        let rows: Vec<_> = profile.iter().map(|(_, row)| row).collect();
        let sum =
            |f: fn(&tilgc_runtime::SiteProfile) -> u64| rows.iter().map(|r| f(r)).sum::<u64>();
        let m = profiled.mutator_stats();
        assert_eq!(
            (sum(|r| r.alloc_objects), sum(|r| r.alloc_bytes)),
            (m.alloc_objects, m.alloc_bytes),
            "{label}: the profile's allocations are the mutator's"
        );
        assert_eq!(
            sum(|r| r.copied_bytes),
            profiled.gc_stats().copied_bytes,
            "{label}: the profile's copies are the collector's"
        );
        for row in &rows {
            assert_eq!(row.dead_objects, row.alloc_objects, "{label}: {row:?}");
            assert!(row.survived_first <= row.alloc_objects, "{label}: {row:?}");
        }
    }
}

/// A recorder is handed the plan's own record: every `collection-end`
/// in the stream equals what `last_inspection` returned right after
/// that collection — wall time included.
#[test]
fn each_recorded_collection_end_is_the_kept_record() {
    for kind in CollectorKind::ALL {
        let label = kind.label();
        let recorder = Box::new(RingRecorder::with_capacity(1 << 18));
        let mut vm = build_vm_with_recorder(kind, &config_for(kind), recorder);
        let cell = vm.site("telem::cell");
        let d = vm.register_frame(FrameDesc::new("telem").slots(2, Trace::Pointer));
        vm.push_frame(d);
        let mut kept: Vec<CollectionEnd> = Vec::new();
        for i in 0..4000i64 {
            let before = vm.gc_stats().collections;
            match i % 400 {
                // A deep stack collected twice unchanged: markers get reuse.
                0..=59 => vm.push_frame(d),
                150 | 250 => vm.gc_now(),
                300..=359 => vm.pop_frame(),
                399 => vm.gc_major(),
                _ => {}
            }
            let tail = if i % 3 == 0 {
                vm.slot_ptr(0)
            } else {
                Addr::NULL
            };
            let c = vm
                .alloc_record(cell, &[Value::Int(i), Value::Ptr(tail)])
                .unwrap();
            vm.set_slot(0, Value::Ptr(c));
            let after = vm.gc_stats().collections;
            if after != before {
                assert_eq!(after, before + 1, "{label}: one collection per step");
                kept.push(vm.collector().last_inspection().unwrap().clone());
            }
        }
        let recorded: Vec<CollectionEnd> = RingRecorder::drain_events_from(vm.recorder_mut())
            .expect("a RingRecorder was installed")
            .into_iter()
            .filter_map(|e| match e {
                Event::CollectionEnd(end) => Some(*end),
                _ => None,
            })
            .collect();
        let markers = !matches!(kind, CollectorKind::Semispace | CollectorKind::Generational);
        assert!(recorded.iter().any(|e| e.major), "{label}: no major");
        assert_eq!(
            recorded.iter().any(|e| e.frames_reused > 0),
            markers,
            "{label}: frames are reused exactly under markers"
        );
        assert!(
            recorded.len() > 10,
            "{label}: {} collections",
            recorded.len()
        );
        assert_eq!(recorded.len(), kept.len(), "{label}");
        for (r, k) in recorded.iter().zip(&kept) {
            assert_eq!(r, k, "{label}: collection {}", k.collection);
        }
    }
}

fn big_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::Builder::new()
        .stack_size(256 << 20)
        .spawn(f)
        .expect("spawn")
        .join()
        .expect("benchmark thread panicked")
}

/// The Life rig: a roomy heap over a 16 KiB nursery, so the run
/// collects often.
fn life_config() -> GcConfig {
    GcConfig::new()
        .heap_budget_bytes(48 << 20)
        .nursery_bytes(16 << 10)
        .large_object_bytes(4 << 10)
}

/// `doc` with every `"wall_ns":N` value blanked: host time is the one
/// thing two identical runs may disagree on.
fn blank_wall_ns(doc: &str) -> String {
    const KEY: &str = "\"wall_ns\":";
    let mut out = String::with_capacity(doc.len());
    let mut rest = doc;
    while let Some(i) = rest.find(KEY) {
        out.push_str(&rest[..i + KEY.len()]);
        rest = rest[i + KEY.len()..].trim_start_matches(|c: char| c.is_ascii_digit());
    }
    out.push_str(rest);
    out
}

/// Collection is serial, and `GcConfig::workers` — kept only because the
/// frozen benchmark calls it — changes nothing: on every plan, a Life or
/// Lexgen run configured with four workers has the answer, `GcStats`,
/// reachable heap graph and JSONL of one configured with none, and
/// `config.workers` reads 1 either way. This is what keeps the
/// benchmark's `churn-par` workload an exact serial twin of `churn-gen`.
#[test]
fn the_worker_count_is_inert() {
    big_stack(|| {
        let (serial, four) = (life_config(), life_config().workers(4));
        assert_eq!((serial.workers, four.workers), (1, 1));
        for kind in CollectorKind::ALL {
            for bench in [Benchmark::Life, Benchmark::Lexgen] {
                let run = |config: &GcConfig| {
                    let mut vm = build_vm_with_recorder(
                        kind,
                        config,
                        Box::new(RingRecorder::with_capacity(1 << 16)),
                    );
                    let answer = bench.run(&mut vm, 1);
                    verify_vm(&vm);
                    let graph = vm_snapshot(&vm);
                    let events = RingRecorder::drain_events_from(vm.recorder_mut()).expect("ring");
                    let doc = jsonl::render(kind.label(), bench.name(), 1, &[], &events);
                    let stats = vm.gc_stats().without_host_time();
                    (answer, stats, graph, blank_wall_ns(&doc))
                };
                let (a, b) = (run(&serial), run(&four));
                let at = format!("{} / {}", kind.label(), bench.name());
                // The 16 KiB nursery makes every generational run collect;
                // semispace has the whole 48 MB to itself.
                let nursery = kind != CollectorKind::Semispace;
                assert!(!nursery || a.1.collections > 0, "{at}: must collect");
                assert_eq!(a, b, "{at}: a worker count moved the run");
            }
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
        let mut bare = build_vm(CollectorKind::Generational, &life_config());
        let bare_answer = Benchmark::Life.run(&mut bare, 1);
        verify_vm(&bare);
        let bare_stats = *bare.gc_stats();

        let mut vm = build_vm_with_recorder(
            CollectorKind::Generational,
            &life_config(),
            Box::new(RingRecorder::with_capacity(1 << 16)),
        );
        let answer = Benchmark::Life.run(&mut vm, 1);
        verify_vm(&vm);
        assert_eq!(bare_answer, answer, "recording TTSP changed the answer");
        assert_eq!(
            bare_stats.without_host_time(),
            vm.gc_stats().without_host_time(),
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

        let doc = jsonl::render("generational", "life", 1, &[], &events);
        if let Err(e) = schema::validate_jsonl(&doc) {
            panic!("trace failed schema validation: {e}");
        }
        assert!(
            doc.contains("ttsp_cycles"),
            "trace must surface ttsp_cycles"
        );
    });
}

/// Stack frames of one record each, pushed and popped around minor and
/// major collections: every copy a collection makes is of a record one
/// stack root alone references, and the records hold no pointer.
fn rooted_records(vm: &mut Vm) {
    let cell = vm.site("split::cell");
    let d = vm.register_frame(
        FrameDesc::new("split")
            .slots(2, Trace::Pointer)
            .slot(Trace::NonPointer),
    );
    for round in 0..6 {
        for i in 0..30 {
            vm.push_frame(d);
            let c = vm
                .alloc_record(cell, &[Value::Int(i), Value::Int(round)])
                .unwrap();
            vm.set_slot(0, Value::Ptr(c));
            vm.set_slot(2, Value::Int(7));
        }
        if round % 3 == 2 {
            vm.gc_major();
        } else {
            vm.gc_now();
        }
        for _ in 0..20 {
            vm.pop_frame();
        }
    }
}

/// The stack is decoded and its roots forwarded in one pass, but the
/// phases still split the work as the paper does: on every plan, and
/// through either decode path (slot lists, or slot by slot under shadow
/// checks), each collection's stack-decode span is the decode's own
/// charge, and the copies the pass makes of the roots' referents — one
/// per relocated root here — are charged to root-scan with the roots
/// themselves.
#[test]
fn stack_decode_is_the_decode_and_root_copies_land_in_root_scan() {
    // A record of two fields: its header and the fields.
    const RECORD_WORDS: u64 = 3;
    for (kind, check_shadows) in CollectorKind::ALL
        .into_iter()
        .flat_map(|kind| [(kind, false), (kind, true)])
    {
        let label = format!("{}, shadow checks {check_shadows}", kind.label());
        let recorder = Box::new(RingRecorder::with_capacity(1 << 16));
        let mut vm = build_vm_with_recorder(kind, &config_for(kind), recorder);
        vm.mutator_mut().check_shadows = check_shadows;
        rooted_records(&mut vm);
        let cost = vm.mutator().cost;
        let events = RingRecorder::drain_events_from(vm.recorder_mut()).expect("ring");
        let span = |collection, phase| -> u64 {
            let spans = events.iter().filter_map(|e| match e {
                Event::Phase(p) if p.collection == collection && p.phase == phase => Some(p.cycles),
                _ => None,
            });
            spans.sum()
        };
        let mut copies = 0;
        for e in &events {
            let Event::CollectionEnd(c) = e else {
                continue;
            };
            let span = |phase| span(c.collection, phase);
            let at = format!("{label}, collection {}", c.collection);
            assert_eq!(
                span(GcPhase::StackDecode),
                cost.frame_reuse * c.frames_reused
                    + cost.frame_decode * c.frames_scanned
                    + cost.slot_trace * (c.slots_scanned + NUM_REGS as u64)
                    + cost.marker_place * c.markers_placed,
                "{at}: stack-decode"
            );
            let words = c.copied_bytes / 8;
            assert_eq!(words % RECORD_WORDS, 0, "{at}: only records copied");
            let moved = words / RECORD_WORDS;
            assert_eq!(
                span(GcPhase::RootScan),
                cost.root_check * c.roots_found
                    + (cost.root_process + cost.copy_per_word * RECORD_WORDS) * moved,
                "{at}: root-scan"
            );
            copies += moved;
        }
        assert!(copies > 0, "{label}: no root's referent was copied");
    }
}
