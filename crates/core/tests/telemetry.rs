//! Telemetry reconciliation: the event stream is not a parallel universe
//! of approximations — its sums must reproduce `GcStats` exactly, on
//! every plan, and an installed-but-disabled recorder must leave the
//! deterministic counters byte-identical to a run with no recorder.

use tilgc_core::{
    build_vm, build_vm_with_recorder, verify_vm, CollectorKind, GcConfig, PretenurePolicy,
};
use tilgc_mem::SiteId;
use tilgc_obs::{jsonl, schema, Event, GcPhase, NullRecorder, RingRecorder};
use tilgc_programs::Benchmark;
use tilgc_runtime::{DescId, FrameDesc, GcStats, Trace, Value, Vm};

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
/// marker machinery, and a forced final collection so every allocation
/// delta has been drained into a `site-sample` by the end.
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

/// Zeroes the host-time fields, which legitimately differ run to run;
/// everything else in `GcStats` is deterministic and must match.
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

fn scrub(mut s: GcStats) -> GcStats {
    s.stack_wall_ns = 0;
    s.copy_wall_ns = 0;
    s.total_wall_ns = 0;
    s
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
        let alloc_bytes = vm.mutator_stats().alloc_bytes;
        let events = RingRecorder::drain_events_from(vm.recorder_mut())
            .expect("a RingRecorder was installed");
        assert!(!events.is_empty(), "{}: no events recorded", kind.label());

        let mut begins = 0u64;
        let mut ends = 0u64;
        let mut censuses = 0u64;
        let mut sum = GcStats::default();
        let mut sum_gc_cycles = 0u64;
        let mut rung_cycles = 0u64;
        let mut sample_alloc_bytes = 0u64;
        let mut sample_copied_bytes = 0u64;
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
                Event::SiteSample(s) => {
                    sample_alloc_bytes += s.alloc_bytes;
                    sample_copied_bytes += s.copied_bytes;
                }
                Event::PressureBegin(_) | Event::PressureEnd(_) => {}
                Event::PressureRung(r) => rung_cycles += r.cycles,
                Event::SitePromote(_) => sum.sites_promoted += 1,
                Event::SiteDemote(_) => sum.sites_demoted += 1,
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
        // Site flips reconcile too (zero here — adaptation is off, so
        // nonzero would mean a phantom flip).
        assert_eq!(
            sum.sites_promoted, stats.sites_promoted,
            "{label}: site promotes"
        );
        assert_eq!(
            sum.sites_demoted, stats.sites_demoted,
            "{label}: site demotes"
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

        // Per-site samples: every allocation was drained (the workload
        // ends in a forced collection) and every copy carries its site.
        assert_eq!(
            sample_alloc_bytes, alloc_bytes,
            "{label}: sampled alloc bytes"
        );
        assert_eq!(
            sample_copied_bytes, stats.copied_bytes,
            "{label}: sampled copied bytes"
        );

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
/// heap-census, site-sample…`,
/// all naming the same collection, phases in canonical [`GcPhase`] order.
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
        while let Some(Event::SiteSample(sample)) = it.peek() {
            assert_eq!(
                sample.collection, id,
                "{label}: sample names another collection"
            );
            it.next();
        }
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

/// A workload that gives the online estimator real signal in both
/// directions: `keep` allocates only survivors (promotion evidence),
/// the statically seeded `drop` site allocates only garbage that majors
/// reveal as dead (demotion evidence).
fn adaptive_workload(vm: &mut Vm) {
    let keep = vm.site("telem::cell"); // id 1 — the statically seeded site
    assert_eq!(keep.get(), CELL_SITE);
    let hot = vm.site("telem::hot");
    let d = vm.register_frame(FrameDesc::new("adapt").slots(1, Trace::Pointer));
    vm.push_frame(d);
    vm.set_slot(0, Value::NULL);
    for round in 0..30 {
        // `hot` survivors chain onto the rooted list every round.
        for i in 0..16 {
            let tail = vm.slot_ptr(0);
            let c = vm
                .alloc_record(hot, &[Value::Int(i), Value::Ptr(tail)])
                .unwrap();
            vm.set_slot(0, Value::Ptr(c));
        }
        // The seeded site's objects are all garbage.
        for _ in 0..64 {
            let _ = vm.alloc_record(keep, &[Value::Int(-1), Value::NULL]);
        }
        vm.gc_now();
        if round % 3 == 2 {
            vm.gc_major();
        }
    }
}

#[test]
fn adaptive_flips_reconcile_events_against_stats() {
    let mut policy = PretenurePolicy::new();
    policy.add_site(SiteId::new(CELL_SITE));
    let config = GcConfig::new()
        .heap_budget_bytes(256 << 10)
        .nursery_bytes(8 << 10)
        .pretenure(policy)
        .adaptive(true);
    let kind = CollectorKind::GenerationalStackPretenure;

    let mut vm = build_vm_with_recorder(
        kind,
        &config,
        Box::new(RingRecorder::with_capacity(1 << 18)),
    );
    adaptive_workload(&mut vm);
    vm.finish();
    let stats = *vm.gc_stats();
    let events =
        RingRecorder::drain_events_from(vm.recorder_mut()).expect("a RingRecorder was installed");

    let mut promotes = 0u64;
    let mut demotes = 0u64;
    for e in &events {
        match e {
            Event::SitePromote(p) => {
                assert!(p.survival_permille <= 1000);
                promotes += 1;
            }
            Event::SiteDemote(dm) => {
                assert!(dm.survival_permille <= 1000);
                assert!(dm.reason == "adaptive" || dm.reason == "pressure");
                demotes += 1;
            }
            _ => {}
        }
    }
    assert_eq!(promotes, stats.sites_promoted, "promote events vs stats");
    assert_eq!(demotes, stats.sites_demoted, "demote events vs stats");
    assert!(promotes > 0, "the always-survives site never promoted");
    assert!(demotes > 0, "the always-dies seeded site never demoted");

    // The stream (flips included) renders to schema-valid JSONL and
    // decodes back to itself.
    let doc = jsonl::render(kind.label(), "adaptive-test", 150_000_000, &[], &events);
    schema::validate_jsonl(&doc).unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(decode(&doc), events, "codec round trip");

    // Adaptation reads the same windows the recorder samples; running
    // without any recorder must decide identically.
    let mut bare = build_vm(kind, &config);
    adaptive_workload(&mut bare);
    bare.finish();
    assert_eq!(
        scrub(stats),
        scrub(*bare.gc_stats()),
        "recorder presence changed adaptive decisions"
    );
}

#[test]
fn adaptation_off_yields_no_flips() {
    let config = config_for(CollectorKind::GenerationalStackPretenure);
    let mut vm = build_vm(CollectorKind::GenerationalStackPretenure, &config);
    adaptive_workload(&mut vm);
    vm.finish();
    assert_eq!(vm.gc_stats().sites_promoted, 0);
    assert_eq!(vm.gc_stats().sites_demoted, 0);
}

#[test]
fn installed_recorders_leave_gc_stats_byte_identical() {
    for kind in CollectorKind::ALL {
        let config = config_for(kind);

        let mut bare = build_vm(kind, &config);
        workload(&mut bare);
        bare.finish();

        let mut nulled = build_vm_with_recorder(kind, &config, Box::new(NullRecorder));
        workload(&mut nulled);
        nulled.finish();

        let mut ringed = build_vm_with_recorder(
            kind,
            &config,
            Box::new(RingRecorder::with_capacity(1 << 18)),
        );
        workload(&mut ringed);
        ringed.finish();

        let label = kind.label();
        let base = scrub(*bare.gc_stats());
        assert_eq!(
            base,
            scrub(*nulled.gc_stats()),
            "{label}: NullRecorder perturbed GcStats"
        );
        assert_eq!(
            base,
            scrub(*ringed.gc_stats()),
            "{label}: RingRecorder perturbed GcStats"
        );
        assert_eq!(
            bare.mutator_stats().client_cycles,
            ringed.mutator_stats().client_cycles,
            "{label}: recording perturbed client cycles"
        );
        assert_eq!(
            bare.mutator_stats().alloc_bytes,
            ringed.mutator_stats().alloc_bytes,
            "{label}: recording perturbed allocation accounting"
        );
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
/// frozen benchmark calls it — changes nothing: a Life run configured
/// with two workers has the answer, `GcStats` and JSONL of one configured
/// with none, and `config.workers` reads 1 either way. This is what keeps
/// the benchmark's `churn-par` workload an exact serial twin of
/// `churn-gen`.
#[test]
fn the_worker_count_is_inert() {
    big_stack(|| {
        let run = |config: &GcConfig| {
            let mut vm = build_vm_with_recorder(
                CollectorKind::Generational,
                config,
                Box::new(RingRecorder::with_capacity(1 << 16)),
            );
            let answer = Benchmark::Life.run(&mut vm, 1);
            verify_vm(&vm);
            let events = RingRecorder::drain_events_from(vm.recorder_mut()).expect("ring");
            let doc = jsonl::render("generational", "life", 1, &[], &events);
            (answer, scrub(*vm.gc_stats()), blank_wall_ns(&doc))
        };
        let (serial, two) = (life_config(), life_config().workers(2));
        assert_eq!((serial.workers, two.workers), (1, 1));
        let (a, b) = (run(&serial), run(&two));
        assert!(a.1.collections > 0, "Life must collect");
        assert_eq!(a, b, "a worker count moved the run");
    });
}
