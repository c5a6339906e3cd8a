//! Shared experiment infrastructure: calibrated heap budgets, run
//! execution, and result bundling.
//!
//! The paper compares collectors under a fixed memory budget `k · Min`,
//! where `Min = 2 × max-live` is the least memory a copying collector
//! could need (§3). `Min` is measured here by a calibration run with a
//! generous heap; budgets for the `k` sweeps derive from it.
//!
//! Collectors are obtained through `tilgc-core`'s `build_vm`, which
//! composes the space/plan layers per `CollectorKind` — the harness
//! never constructs plans directly, so it stays insulated from the plan
//! layer's internals.

use std::collections::HashMap;

use tilgc_core::{
    build_vm, build_vm_with_recorder, CollectorKind, GcConfig, MarkerPolicy, PretenurePolicy,
};
use tilgc_obs::{Event, RingRecorder};
use tilgc_programs::Benchmark;
use tilgc_runtime::{CostModel, GcStats, HeapProfile, MutatorStats, StackStats};

/// The nursery cap used throughout the experiments. The paper caps the
/// nursery at the 512 KB secondary cache but shrinks it "for benchmarking
/// reasons" — and under a tight memory budget the nursery must shrink
/// with it (a 48 KB heap cannot host a 512 KB nursery). With workloads
/// scaled ~100× down from 1998 sizes, 32 KB plays the role of the cache
/// bound; the working rule is `nursery = min(32 KB, budget / 3)`.
pub const EXPERIMENT_NURSERY: usize = 32 << 10;

/// The nursery for a given budget: a third of the heap, capped at the
/// (scaled) cache size. The generous share matters: the paper's 512 KB
/// nursery dwarfs its small benchmarks' live sets, which is what lets the
/// generational collector copy almost nothing per minor collection.
pub fn nursery_for_budget(budget: usize) -> usize {
    EXPERIMENT_NURSERY.min(budget / 3).max(4 << 10)
}

/// Everything one run produces.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// The program's result checksum (must not depend on the collector).
    pub checksum: u64,
    /// Collector statistics.
    pub gc: GcStats,
    /// Mutator statistics.
    pub mutator: MutatorStats,
    /// Stack statistics.
    pub stack: StackStats,
    /// Heap profile, when profiling was requested.
    pub profile: Option<HeapProfile>,
    /// Names of the run's allocation sites (for reports).
    pub sites: tilgc_runtime::SiteRegistry,
}

impl RunResult {
    /// Simulated total seconds (client + GC).
    pub fn total_secs(&self) -> f64 {
        self.gc_secs() + self.client_secs()
    }

    /// Simulated GC seconds.
    pub fn gc_secs(&self) -> f64 {
        CostModel::default().secs(self.gc.gc_cycles())
    }

    /// Simulated client (mutator) seconds.
    pub fn client_secs(&self) -> f64 {
        CostModel::default().secs(self.mutator.client_cycles)
    }

    /// Simulated seconds of stack (root-processing) work.
    pub fn stack_secs(&self) -> f64 {
        CostModel::default().secs(self.gc.stack_cycles)
    }

    /// Simulated seconds of copy/scan work (everything not stack).
    pub fn copy_secs(&self) -> f64 {
        CostModel::default().secs(self.gc.copy_cycles + self.gc.other_cycles)
    }
}

/// Runs `bench` once under the given collector kind and configuration.
pub fn run_once(bench: Benchmark, kind: CollectorKind, config: &GcConfig, scale: u32) -> RunResult {
    let mut vm = build_vm(kind, config);
    // Experiments run at full speed: the shadow cross-checks are covered
    // by the test suite.
    vm.mutator_mut().check_shadows = false;
    let checksum = bench.run(&mut vm, scale);
    vm.finish();
    let profile = vm.take_profile();
    RunResult {
        checksum,
        gc: *vm.gc_stats(),
        mutator: *vm.mutator_stats(),
        stack: *vm.mutator().stack.stats(),
        profile,
        sites: vm.mutator().sites.clone(),
    }
}

/// Calibrates and caches `Min = 2 × max-live` (bytes) per benchmark.
pub struct Calibration {
    scale: u32,
    min_bytes: HashMap<Benchmark, u64>,
}

impl Calibration {
    /// Creates an empty calibration for the given scale.
    pub fn new(scale: u32) -> Calibration {
        Calibration {
            scale,
            min_bytes: HashMap::new(),
        }
    }

    /// The scale this calibration was made for.
    pub fn scale(&self) -> u32 {
        self.scale
    }

    /// `Min` for `bench`: twice the max live bytes.
    ///
    /// Live size must be measured *exactly*: a generational collector
    /// with a generous heap never runs major collections, so tenured
    /// garbage masquerades as live data. The calibration therefore runs
    /// the semispace collector — every collection computes the precise
    /// live set — starting from a small budget and doubling on
    /// out-of-memory until the program fits.
    pub fn min_bytes(&mut self, bench: Benchmark) -> u64 {
        if let Some(&m) = self.min_bytes.get(&bench) {
            return m;
        }
        let mut budget: usize = 512 << 10;
        let max_live = loop {
            let config = GcConfig::new()
                .heap_budget_bytes(budget)
                .nursery_bytes(nursery_for_budget(budget));
            let scale = self.scale;
            match catch_silenced(|| run_once(bench, CollectorKind::Semispace, &config, scale)) {
                Ok(result) => break result.gc.max_live_bytes.max(8 << 10),
                Err(_) if budget < (1 << 30) => budget *= 2,
                Err(e) => std::panic::resume_unwind(e),
            }
        };
        let min = 2 * max_live;
        self.min_bytes.insert(bench, min);
        min
    }

    /// The heap budget for a given `k` (floored at 48 KB so even the
    /// tiniest benchmark has a functional heap).
    pub fn budget_for_k(&mut self, bench: Benchmark, k: f64) -> usize {
        let min = self.min_bytes(bench) as f64;
        ((k * min) as usize).max(48 << 10)
    }
}

/// Runs `f`, catching a panic with the panic hook silenced for the
/// duration — heap exhaustion under a too-tight budget is an expected
/// outcome here, not something to print a backtrace for.
fn catch_silenced<T>(f: impl FnOnce() -> T) -> std::thread::Result<T> {
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
    std::panic::set_hook(prev_hook);
    out
}

/// Like [`run_once`] but returns `None` when the budget is genuinely too
/// tight — the paper's k = 1.5 column sails close to the minimum by
/// construction. "Too tight" means the run aborted (heap exhaustion) or
/// merely survived under pressure: a governor episode or a budget-share
/// overrun disqualifies the run, so every accepted measurement is
/// pressure-free and comparable across collectors.
pub fn run_or_oom(
    bench: Benchmark,
    kind: CollectorKind,
    config: &GcConfig,
    scale: u32,
) -> Option<RunResult> {
    catch_silenced(|| run_once(bench, kind, config, scale))
        .ok()
        .filter(|r| r.gc.pressure_episodes == 0 && r.gc.budget_overruns == 0)
}

/// Runs with the given budget, growing it by 25 % steps if the collector
/// genuinely cannot fit (semispace calibration samples live size only at
/// its own collection points, so tight budgets can undershoot a peak).
pub fn run_resilient(
    bench: Benchmark,
    kind: CollectorKind,
    mut budget: usize,
    scale: u32,
) -> RunResult {
    loop {
        let config = config_with_budget(budget);
        if let Some(r) = run_or_oom(bench, kind, &config, scale) {
            return r;
        }
        budget += budget / 4;
    }
}

/// Event capacity of [`run_recorded`]'s ring; enough for every collection
/// the scaled benchmarks perform with plenty of headroom. Overflow drops
/// the oldest events (and the run reports it), never the run.
const RING_CAPACITY: usize = 1 << 20;

/// Everything one [`run_recorded`] run produces.
pub struct RecordedRun {
    /// The heap budget the run fitted in: `budget_for_k(bench, 4.0)`,
    /// or that grown in 25 % steps.
    pub budget: usize,
    /// The program's result checksum.
    pub checksum: u64,
    /// Collector statistics.
    pub gc: GcStats,
    /// Simulated mutator cycles of the whole run.
    pub client_cycles: u64,
    /// The recorded event stream, oldest first.
    pub events: Vec<Event>,
    /// Events the ring dropped on overflow.
    pub dropped: u64,
    /// `(id, name)` of the run's allocation sites.
    pub sites: Vec<(u16, String)>,
}

/// Runs `bench` at scale 1 under `kind` with the telemetry recorder
/// attached, at the calibrated k = 4.0 budget and (for the pretenure
/// plan) the profile-derived policy — the rig behind `gc-log` and live
/// `slo-report`. `adaptive` turns the online pretenuring estimator on.
///
/// Like [`run_resilient`] the budget grows by 25 % steps when the run
/// exhausts the heap (calibration samples live size only at semispace
/// collection points, so even k = 4.0 can undershoot a peak). Unlike it,
/// a run that merely survived under pressure is kept: governor episodes
/// are what the event stream is there to show.
pub fn run_recorded(bench: Benchmark, kind: CollectorKind, adaptive: bool) -> RecordedRun {
    let scale = 1;
    let mut budget = Calibration::new(scale).budget_for_k(bench, 4.0);
    let policy = (kind == CollectorKind::GenerationalStackPretenure)
        .then(|| derive_pretenure_policy(bench, scale).0);
    loop {
        let mut config = config_with_budget(budget).adaptive(adaptive);
        if let Some(policy) = &policy {
            config = config.pretenure(policy.clone());
        }
        let attempt = catch_silenced(|| {
            let recorder = Box::new(RingRecorder::with_capacity(RING_CAPACITY));
            let mut vm = build_vm_with_recorder(kind, &config, recorder);
            vm.mutator_mut().check_shadows = false;
            let checksum = bench.run(&mut vm, scale);
            vm.finish();
            (checksum, vm)
        });
        let (checksum, mut vm) = match attempt {
            Ok(done) => done,
            Err(panic) => {
                let msg = panic
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| panic.downcast_ref::<&str>().copied())
                    .unwrap_or("");
                if !msg.contains("heap budget exhausted") {
                    eprintln!("{msg}");
                    std::panic::resume_unwind(panic);
                }
                budget += budget / 4;
                continue;
            }
        };
        let ring = vm
            .recorder_mut()
            .as_any_mut()
            .downcast_mut::<RingRecorder>()
            .expect("run_recorded installed a RingRecorder");
        let (events, dropped) = (ring.drain(), ring.dropped());
        return RecordedRun {
            budget,
            checksum,
            gc: *vm.gc_stats(),
            client_cycles: vm.mutator_stats().client_cycles,
            events,
            dropped,
            sites: vm
                .mutator()
                .sites
                .iter()
                .map(|(id, name)| (id.get(), name.to_string()))
                .collect(),
        };
    }
}

/// The standard experiment configuration at budget `budget`. Large
/// arrays (≥ 4 KB — big relative to the scaled nurseries, as the paper's
/// were to its 512 KB nursery) go to the mark-sweep large-object space.
pub fn config_with_budget(budget: usize) -> GcConfig {
    GcConfig::new()
        .heap_budget_bytes(budget)
        .nursery_bytes(nursery_for_budget(budget))
        .large_object_bytes(4 << 10)
}

/// Derives the paper's pretenuring policy (old% ≥ 80) for `bench` from a
/// profiling run.
pub fn derive_pretenure_policy(bench: Benchmark, scale: u32) -> (PretenurePolicy, RunResult) {
    let config = GcConfig::new()
        .heap_budget_bytes(192 << 20)
        .nursery_bytes(EXPERIMENT_NURSERY)
        .profiling(true);
    let result = run_once(bench, CollectorKind::GenerationalStack, &config, scale);
    let profile = result.profile.as_ref().expect("profiling was enabled");
    let policy = tilgc_profile::derive_policy(profile, &tilgc_profile::PolicyOptions::default());
    (policy, result)
}

/// The paper's `k` sweep.
pub const K_VALUES: [f64; 3] = [1.5, 2.0, 4.0];

/// Formats a byte count the way the paper's tables do.
pub fn fmt_bytes(b: u64) -> String {
    if b >= 10 << 20 {
        format!("{:.0}MB", b as f64 / (1 << 20) as f64)
    } else if b >= 10 << 10 {
        format!("{}KB", b >> 10)
    } else {
        format!("{b}B")
    }
}

/// Formats simulated seconds with millisecond resolution.
pub fn fmt_secs(s: f64) -> String {
    format!("{s:.4}")
}

/// A marker-enabled configuration helper.
pub fn with_markers(mut config: GcConfig) -> GcConfig {
    config.marker_policy = MarkerPolicy::PAPER;
    config
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_recorded_grows_the_budget_only_on_heap_exhaustion() {
        let calibrated = |bench| Calibration::new(1).budget_for_k(bench, 4.0);
        // Neither fits its calibrated k = 4.0 budget under semispace.
        for bench in [Benchmark::Fft, Benchmark::Simple] {
            let run = run_recorded(bench, CollectorKind::Semispace, false);
            assert!(run.budget > calibrated(bench), "{}", bench.name());
            assert!(!run.events.is_empty());
        }
        let fits = run_recorded(Benchmark::Life, CollectorKind::Semispace, false);
        assert_eq!(fits.budget, calibrated(Benchmark::Life));
    }
}
