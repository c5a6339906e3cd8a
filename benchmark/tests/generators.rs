//! Generator, oracle and ledger tests on shrunk streams (the full sizes
//! are what `run.sh` measures).

use tilgc_benchmark::churn::{ChurnSize, ChurnStream};
use tilgc_benchmark::deepstack::{StackSize, StackStream};
use tilgc_benchmark::metrics::{self, Totals};
use tilgc_benchmark::storm::{StormSize, StormStream};
use tilgc_benchmark::trace::{NoTrace, SpanTrace, Tracer};
use tilgc_benchmark::workload::{
    self, Body, Oracle, PauseTimeline, Recording, RunSpec, Sizes, Stream, WORKLOADS,
};
use tilgc_core::{CollectorKind, GcConfig};
use tilgc_obs::metrics::PauseMetrics;

const SMALL: Sizes = Sizes {
    churn: ChurnSize {
        units: 64,
        repeat: 8,
    },
    stack: StackSize {
        depth: 300,
        rounds: 300,
        repeat: 1,
    },
    storm: StormSize {
        units: 40,
        repeat: 8,
    },
};

const SYNTHETIC: [&str; 6] = [
    "churn-semi",
    "churn-gen",
    "churn-par",
    "stack-rescan",
    "stack-markers",
    "barrier-storm",
];

#[test]
fn same_seed_same_stream_and_same_simulated_metrics() {
    for name in SYNTHETIC {
        let w = workload::find(name).unwrap();
        let passes: Vec<Totals> = (0..2)
            .map(|_| {
                let stream = workload::generate(w, 7, &SMALL);
                let oracle = workload::oracle(w, stream.as_ref());
                let runs = workload::plan_runs(w, stream, &oracle);
                let pass = workload::run_pass(&runs, &oracle, Recording::Off, false, &mut NoTrace);
                assert!(pass.runs.iter().all(|r| r.failure.is_none()), "{name}");
                Totals::of(&pass)
            })
            .collect();
        assert!(passes[0].get("collections") > 0, "{name} never collected");
        if name == "churn-par" {
            // The parallel lanes are not deterministic on the collector
            // side (see README, findings); the mutator side is.
            assert_eq!(
                passes[0].get("client_cycles"),
                passes[1].get("client_cycles")
            );
            assert_eq!(passes[0].get("alloc_bytes"), passes[1].get("alloc_bytes"));
        } else {
            assert_eq!(passes[0], passes[1], "{name}: same seed, different counts");
        }
    }
}

#[test]
fn different_seed_different_stream() {
    for name in SYNTHETIC {
        let w = workload::find(name).unwrap();
        let a = workload::oracle(w, workload::generate(w, 1, &SMALL).as_ref());
        let again = workload::oracle(w, workload::generate(w, 1, &SMALL).as_ref());
        let b = workload::oracle(w, workload::generate(w, 2, &SMALL).as_ref());
        assert_eq!(a.stream_hash, again.stream_hash, "{name}");
        assert_ne!(a.stream_hash, b.stream_hash, "{name}");
        assert_ne!(
            a.checksums, b.checksums,
            "{name}: the answer does not depend on the seed"
        );
    }
}

/// The streams obey the rooting discipline: with the shadow-tag checks
/// on, every plan produces the host-side model's answer.
#[test]
fn shrunk_streams_pass_shadow_checks_under_all_four_plans() {
    // Budgets small enough that even semispace collects on the shrunk
    // streams.
    let streams = [
        (
            Stream::Churn(ChurnStream::generate(3, SMALL.churn)),
            16 << 20,
        ),
        (
            Stream::Stack(StackStream::generate(3, SMALL.stack)),
            2 << 20,
        ),
        (
            Stream::Storm(StormStream::generate(3, SMALL.storm)),
            2 << 20,
        ),
    ];
    for (stream, budget) in streams {
        let oracle = Oracle {
            stream_hash: 0,
            checksums: vec![stream.model()],
            policies: Vec::new(),
            derive_policy_s: 0.0,
        };
        let runs: Vec<RunSpec> = CollectorKind::ALL
            .iter()
            .map(|&kind| RunSpec {
                label: kind.label().to_string(),
                kind,
                config: GcConfig::new()
                    .heap_budget_bytes(budget)
                    .nursery_bytes(32 << 10),
                body: Body::Stream(stream.clone()),
                answer: 0,
            })
            .collect();
        let pass = workload::run_pass(&runs, &oracle, Recording::Off, true, &mut NoTrace);
        for run in &pass.runs {
            assert_eq!(run.failure, None);
            assert!(run.gc.collections > 0);
        }
    }
}

#[test]
fn a_wrong_answer_and_a_panic_are_counted_failures() {
    let stream = StormStream::generate(1, SMALL.storm);
    let wrong = Oracle {
        stream_hash: 0,
        checksums: vec![stream.model() ^ 1],
        policies: Vec::new(),
        derive_policy_s: 0.0,
    };
    let spec = |budget: usize| RunSpec {
        label: "storm".to_string(),
        kind: CollectorKind::Generational,
        config: GcConfig::new()
            .heap_budget_bytes(budget)
            .nursery_bytes(32 << 10),
        body: Body::Stream(Stream::Storm(stream.clone())),
        answer: 0,
    };
    let pass = workload::run_pass(
        &[spec(16 << 20)],
        &wrong,
        Recording::Off,
        false,
        &mut NoTrace,
    );
    assert!(pass.runs[0].failure.as_ref().unwrap().contains("checksum"));
    // A heap too small for the table: the allocation fails, the stream
    // panics, and the pass survives to report it.
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let pass = workload::run_pass(
        &[spec(64 << 10)],
        &wrong,
        Recording::Off,
        false,
        &mut NoTrace,
    );
    std::panic::set_hook(prev);
    assert!(pass.runs[0].failure.is_some());
}

#[test]
fn ledger_rows_sum_to_the_traced_pass_and_counts_match_untraced() {
    for name in SYNTHETIC {
        let w = workload::find(name).unwrap();
        let stream = workload::generate(w, 5, &SMALL);
        let oracle = workload::oracle(w, stream.as_ref());
        let runs = workload::plan_runs(w, stream, &oracle);
        let untraced = workload::run_pass(&runs, &oracle, Recording::Off, false, &mut NoTrace);
        let mut trace = SpanTrace::new();
        let root = trace.open("workload", name);
        let traced = workload::run_pass(&runs, &oracle, Recording::Events, false, &mut trace);
        trace.close(root);
        assert!(traced.runs.iter().all(|r| r.failure.is_none()), "{name}");
        if name != "churn-par" {
            assert_eq!(
                Totals::of(&traced),
                Totals::of(&untraced),
                "{name}: the recorder is not free on the simulated clock"
            );
        }

        let rows = metrics::ledger(&trace);
        let sum: u64 = rows.iter().map(|r| r.ns).sum();
        let pass_ns = traced.wall_ns as f64;
        assert!(
            (sum as f64 - pass_ns).abs() <= 0.03 * pass_ns,
            "{name}: rows sum to {sum} ns, pass is {pass_ns} ns"
        );
        let unattributed = rows.iter().find(|r| r.label == "unattributed").unwrap().ns;
        assert!(unattributed as f64 <= 0.03 * pass_ns, "{name}");

        let mut values = metrics::Values::new();
        metrics::from_trace(&trace, &mut values);
        assert!(values["runtime.alloc_ns_per_obj"] > 0.0, "{name}");
        assert_eq!(
            values["core.pause_host_samples"] as u64,
            Totals::of(&traced).get("collections"),
            "{name}: every collection became a span"
        );
        let phase_cycles: f64 = values
            .iter()
            .filter(|(k, _)| k.ends_with("_mcycles"))
            .map(|(_, v)| v)
            .sum();
        let gc_cycles = Totals::of(&traced).gc_cycles() as f64 / 1e6;
        assert!((phase_cycles - gc_cycles).abs() < 1e-6, "{name}");
    }
}

/// `wall_s@table5` measures what `bench-json`'s `table5_workload_ms`
/// measures: the reference answers, folded as `bench-json` folds them,
/// are its `table5_workload_checksum`.
#[test]
fn table5_reference_answers_fold_to_bench_jsons_checksum() {
    let w = workload::find("table5").unwrap();
    let oracle = workload::oracle(w, None);
    let folded = oracle
        .checksums
        .iter()
        .fold(0u64, |acc, &c| acc.rotate_left(7) ^ c);
    assert_eq!(folded, 15835292543591895745);
    let runs = workload::plan_runs(w, None, &oracle);
    assert_eq!(runs.len(), 4);
    assert!(runs
        .iter()
        .all(|r| r.kind == CollectorKind::GenerationalStack
            && r.config.heap_budget_bytes == 192 << 20
            && r.config.nursery_bytes == 32 << 10
            && r.config.large_object_bytes == 4 << 10
            && r.config.workers == 1));
}

#[test]
fn oracle_survives_the_command_line() {
    let oracle = Oracle {
        stream_hash: 0xdead_beef_0123_4567,
        checksums: vec![u64::MAX, 0, 42],
        policies: vec![vec![], vec![2, 3, 4], vec![65535]],
        derive_policy_s: 1.25,
    };
    assert_eq!(Oracle::from_arg(&oracle.to_arg()).unwrap(), oracle);
    let plain = Oracle {
        policies: Vec::new(),
        ..oracle
    };
    assert_eq!(Oracle::from_arg(&plain.to_arg()).unwrap(), plain);
    assert!(Oracle::from_arg("nonsense").is_err());
}

/// The benchmark's O(n log n) MMU against the library's exhaustive one.
#[test]
fn mmu_agrees_with_the_library() {
    let mut rng = tilgc_benchmark::rng::Rng::new(11, 0);
    for _ in 0..50 {
        let mut timeline = PauseTimeline::default();
        let mut library = PauseMetrics::new();
        let mut now = 0u64;
        for _ in 0..rng.below(40) {
            now += rng.below(5000);
            let end = now + 1 + rng.below(3000);
            timeline.pauses.push((now, end));
            library.push_pause(now, end, end - now);
            now = end;
        }
        timeline.horizon = now + rng.below(5000);
        library.set_horizon(timeline.horizon);
        for window in [1, 700, 4000, 20_000, 1_000_000] {
            assert_eq!(
                metrics::mmu_ppm(&timeline, window) / 1000,
                library.mmu(window),
                "window {window}, timeline {timeline:?}"
            );
        }
    }
}

#[test]
fn quartiles_are_pythons() {
    // statistics.quantiles([3, 1, 4, 1, 5, 9, 2, 6, 5, 3], n=4)
    let (q1, q3) = metrics::quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0]);
    assert!((q1 - 1.75).abs() < 1e-12 && (q3 - 5.25).abs() < 1e-12);
    assert_eq!(metrics::median(&[4.0, 1.0, 3.0]), 3.0);
    assert_eq!(metrics::median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    assert_eq!(metrics::mad(&[1.0, 2.0, 3.0, 4.0, 100.0]), 1.0);
}

#[test]
fn checked_in_benchmark_json_is_the_registry() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let checked_in = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    assert_eq!(
        checked_in,
        tilgc_benchmark::report::benchmark_json(tilgc_benchmark::RUN_SECONDS)
    );
    assert_eq!(WORKLOADS.len(), 8);
    for w in &WORKLOADS {
        assert!(
            w.why.len() <= 200,
            "{}: why is {} chars",
            w.name,
            w.why.len()
        );
        for d in w.dominance {
            assert!(
                metrics::PER_LAYER.iter().any(|m| m.name == d.metric),
                "{}: dominance line on unknown metric {}",
                w.name,
                d.metric
            );
        }
    }
}
