//! Cost-model invariance: the simulated `GcStats` counters for every
//! benchmark × collector configuration must be bit-for-bit stable.
//!
//! The golden file was captured before the batched-kernel rewrite of the
//! evacuation, stack-scan, and SSB hot paths. Those kernels may only
//! change how fast the *host* executes a collection — every simulated
//! counter (words copied, words scanned, frames decoded, simulated
//! cycles) must stay identical. Any future perf work that silently
//! changes simulated results fails this test.
//!
//! Regenerate the golden (only when a deliberate semantic change is
//! intended) with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test cost_invariance
//! ```

use std::fmt::Write as _;

use tilgc_core::{
    build_vm, CollectorKind, GcConfig, GenerationalPlan, MarkerPolicy, SemispacePlan,
};
use tilgc_mem::Memory;
use tilgc_programs::Benchmark;
use tilgc_runtime::{Collector, GcStats, MutatorState, Vm, WriteBarrier};

/// The paper's largest memory-budget multiple (k = 4 of the k sweep).
const K: f64 = 4.0;

fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/cost_invariance.txt")
}

/// The experiments' nursery rule: a third of the heap, capped at the
/// scaled 32 KB cache bound (mirrors `experiments::harness`).
fn nursery_for_budget(budget: usize) -> usize {
    (32 << 10).min(budget / 3).max(4 << 10)
}

fn config_with_budget(budget: usize) -> GcConfig {
    GcConfig::new()
        .heap_budget_bytes(budget)
        .nursery_bytes(nursery_for_budget(budget))
        .large_object_bytes(4 << 10)
}

fn run_in_vm(bench: Benchmark, mut vm: Vm) -> (u64, GcStats) {
    vm.mutator_mut().check_shadows = false;
    let checksum = bench.run(&mut vm, 1);
    vm.finish();
    (checksum, *vm.gc_stats())
}

/// A calibration run is only accepted if it never felt memory pressure:
/// no governor episode opened and no collection left a generation past
/// its budget share. A run that merely *survives* by degrading
/// gracefully is rejected just like the pre-ladder OOM panic was, so
/// the calibrated budgets (and the golden) are stable across the
/// panic-free refactor.
fn pressure_free(out: (u64, GcStats)) -> Option<(u64, GcStats)> {
    (out.1.pressure_episodes == 0 && out.1.budget_overruns == 0).then_some(out)
}

/// Silences the expected out-of-memory panic, and only that one. The
/// hook is process-global and this binary's tests (and the golden's
/// benchmark threads) run concurrently, so it is installed once and
/// never swapped back: every other panic still reaches the previous
/// hook and is printed.
fn silence_expected_oom() {
    static INSTALL: std::sync::Once = std::sync::Once::new();
    INSTALL.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !info.to_string().contains("heap budget exhausted") {
                prev(info);
            }
        }));
    });
}

/// [`run_in_vm`], but `None` on out-of-memory or memory pressure — the
/// calibration samples live size only at semispace collection points, so
/// a k·Min budget can genuinely undershoot a peak (the experiments
/// harness grows the budget by 25% steps for the same reason).
fn run_in_vm_or_oom(bench: Benchmark, vm: Vm) -> Option<(u64, GcStats)> {
    silence_expected_oom();
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_in_vm(bench, vm)))
        .ok()
        .and_then(pressure_free)
}

/// [`run_in_vm_or_oom`] on the VM `build_vm` composes for `kind`.
fn run_or_oom(bench: Benchmark, kind: CollectorKind, config: &GcConfig) -> Option<(u64, GcStats)> {
    run_in_vm_or_oom(bench, build_vm(kind, config))
}

/// Max live bytes measured by a generous semispace run (every semispace
/// collection computes the exact live set).
fn max_live_bytes(bench: Benchmark) -> u64 {
    let config = config_with_budget(64 << 20);
    let (_, gc) = run_in_vm(bench, build_vm(CollectorKind::Semispace, &config));
    gc.max_live_bytes.max(8 << 10)
}

fn pretenure_config(bench: Benchmark, budget: usize) -> GcConfig {
    let profiled = config_with_budget(192 << 20).profiling(true);
    let mut vm = build_vm(CollectorKind::GenerationalStack, &profiled);
    vm.mutator_mut().check_shadows = false;
    bench.run(&mut vm, 1);
    vm.finish();
    let profile = vm.take_profile().expect("profiling enabled");
    let policy = tilgc_profile::derive_policy(&profile, &tilgc_profile::PolicyOptions::default());
    config_with_budget(budget).pretenure(policy)
}

/// One stable line per run: every deterministic `GcStats` counter plus
/// the program checksum. The wall-clock fields (`*_wall_ns`) are host
/// noise and deliberately excluded.
fn stats_line(bench: Benchmark, kind: CollectorKind, checksum: u64, g: &GcStats) -> String {
    let mut s = String::new();
    write!(
        s,
        "{}/{}: checksum={checksum:#018x} collections={} major={} copied_bytes={} \
         scanned_words={} frames_scanned={} frames_reused={} depth_at_gc_sum={} \
         slots_scanned={} roots_found={} barrier_entries={} markers_placed={} \
         pretenured_scanned_words={} pretenured_bytes={} max_live_bytes={} \
         last_live_bytes={} stack_cycles={} copy_cycles={} other_cycles={}",
        bench.name(),
        kind.label(),
        g.collections,
        g.major_collections,
        g.copied_bytes,
        g.scanned_words,
        g.frames_scanned,
        g.frames_reused,
        g.depth_at_gc_sum,
        g.slots_scanned,
        g.roots_found,
        g.barrier_entries,
        g.markers_placed,
        g.pretenured_scanned_words,
        g.pretenured_bytes,
        g.max_live_bytes,
        g.last_live_bytes,
        g.stack_cycles,
        g.copy_cycles,
        g.other_cycles,
    )
    .unwrap();
    s
}

/// Builds a VM for `kind` through the plan constructors directly — no
/// [`build_vm`]/`build_collector` — replicating the config adjustments
/// those helpers apply (marker policy forced on/off per kind, pretenuring
/// dropped where unused) and the barrier wiring (none for semispace, SSB
/// otherwise).
fn build_vm_via_plans(kind: CollectorKind, config: &GcConfig) -> Vm {
    let mut config = config.clone();
    fn boxed<P: Collector + 'static>((plan, mem): (P, Memory)) -> (Box<dyn Collector>, Memory) {
        (Box::new(plan), mem)
    }
    let (collector, mem) = match kind {
        CollectorKind::Semispace => {
            config.pretenure = None;
            boxed(SemispacePlan::new(&config))
        }
        CollectorKind::Generational => {
            config.marker_policy = MarkerPolicy::Disabled;
            config.pretenure = None;
            boxed(GenerationalPlan::new(&config))
        }
        CollectorKind::GenerationalStack => {
            if !config.marker_policy.is_enabled() {
                config.marker_policy = MarkerPolicy::PAPER;
            }
            config.pretenure = None;
            boxed(GenerationalPlan::new(&config))
        }
        CollectorKind::GenerationalStackPretenure => {
            if !config.marker_policy.is_enabled() {
                config.marker_policy = MarkerPolicy::PAPER;
            }
            boxed(GenerationalPlan::new(&config))
        }
    };
    let mut m = MutatorState::new();
    m.barrier = match kind {
        CollectorKind::Semispace => WriteBarrier::None,
        _ => WriteBarrier::ssb(),
    };
    Vm::with_mutator(m, collector, mem)
}

/// The plan-based constructors must be a drop-in for `build_collector`:
/// all four collector configurations, driven by the same benchmark, must
/// produce byte-for-byte identical `GcStats` lines whether the collector
/// came from `build_vm` (pinned by the golden above) or from composing
/// the plans by hand.
#[test]
fn plan_constructors_match_build_collector() {
    let bench = Benchmark::Checksum;
    let min = 2 * max_live_bytes(bench);
    let budget = ((K * min as f64) as usize).max(48 << 10);
    for kind in CollectorKind::ALL {
        let mut budget = budget;
        let (via_builder, via_plans) = loop {
            let config = match kind {
                CollectorKind::GenerationalStackPretenure => pretenure_config(bench, budget),
                _ => config_with_budget(budget),
            };
            let builder = run_or_oom(bench, kind, &config);
            let plans = run_in_vm_or_oom(bench, build_vm_via_plans(kind, &config));
            match (builder, plans) {
                (Some(b), Some(p)) => break (b, p),
                _ => budget += budget / 4,
            }
        };
        let line_builder = stats_line(bench, kind, via_builder.0, &via_builder.1);
        let line_plans = stats_line(bench, kind, via_plans.0, &via_plans.1);
        assert_eq!(
            line_plans,
            line_builder,
            "{} via plan constructors diverged from build_collector",
            kind.label()
        );
    }
}

/// One benchmark's four golden lines, in `CollectorKind::ALL` order.
fn golden_lines(bench: Benchmark) -> Vec<String> {
    let min = 2 * max_live_bytes(bench);
    let budget = ((K * min as f64) as usize).max(48 << 10);
    CollectorKind::ALL
        .into_iter()
        .map(|kind| {
            let mut budget = budget;
            let (checksum, gc) = loop {
                let config = match kind {
                    CollectorKind::GenerationalStackPretenure => pretenure_config(bench, budget),
                    _ => config_with_budget(budget),
                };
                if let Some(out) = run_or_oom(bench, kind, &config) {
                    break out;
                }
                budget += budget / 4;
            };
            stats_line(bench, kind, checksum, &gc)
        })
        .collect()
}

#[test]
fn gc_stats_match_golden() {
    // The benchmarks are independent: one thread each, joined in
    // `Benchmark::ALL` order so the text is the serial loop's.
    let lines: Vec<String> = std::thread::scope(|s| {
        let runs = Benchmark::ALL.map(|bench| s.spawn(move || golden_lines(bench)));
        runs.into_iter()
            .flat_map(|run| run.join().expect("benchmark thread panicked"))
            .collect()
    });
    let actual = lines.join("\n") + "\n";

    let path = golden_path();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &actual).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run UPDATE_GOLDEN=1 cargo test --test cost_invariance",
            path.display()
        )
    });
    if actual != golden {
        let mismatches: Vec<String> = actual
            .lines()
            .zip(golden.lines())
            .filter(|(a, g)| a != g)
            .map(|(a, g)| format!("  actual: {a}\n  golden: {g}"))
            .collect();
        panic!(
            "simulated GcStats diverged from golden ({} line(s)):\n{}",
            mismatches.len(),
            mismatches.join("\n")
        );
    }
}
