//! Shared experiment infrastructure: calibrated heap budgets, run
//! execution, and result bundling.
//!
//! The paper compares collectors under a fixed memory budget `k · Min`,
//! where `Min = 2 × max-live` is the least memory a copying collector
//! could need (§3). `Min` is measured here by a calibration run with a
//! generous heap; budgets for the `k` sweeps derive from it. One
//! [`Calibration`] serves a whole process: every table, figure and rig
//! reads `Min` and the pretenuring policy of a benchmark from it.
//!
//! Collectors are obtained through `tilgc-core`'s `build_vm`, which
//! composes the space/plan layers per `CollectorKind` — the harness
//! never constructs plans directly, so it stays insulated from the plan
//! layer's internals.

use std::any::Any;
use std::collections::HashMap;
use std::panic::{self, AssertUnwindSafe};

use tilgc_core::{build_vm, build_vm_with_recorder, CollectorKind, GcConfig, PretenurePolicy};
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

/// [`run_once`], or `None` when the run merely survived under pressure:
/// a governor episode or a budget-share overrun disqualifies it, so every
/// accepted measurement is pressure-free and comparable across
/// collectors.
pub fn run_pressure_free(
    bench: Benchmark,
    kind: CollectorKind,
    config: &GcConfig,
    scale: u32,
) -> Option<RunResult> {
    Some(run_once(bench, kind, config, scale))
        .filter(|r| r.gc.pressure_episodes == 0 && r.gc.budget_overruns == 0)
}

/// The scale of a process's runs, and what it measured once per
/// benchmark: `Min = 2 × max-live` (bytes) and the pretenuring policy.
pub struct Calibration {
    scale: u32,
    min_bytes: HashMap<Benchmark, u64>,
    policies: HashMap<Benchmark, (PretenurePolicy, RunResult)>,
}

impl Calibration {
    /// Creates an empty calibration for the given scale.
    pub fn new(scale: u32) -> Calibration {
        Calibration {
            scale,
            min_bytes: HashMap::new(),
            policies: HashMap::new(),
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
    /// live set — starting from a small budget and doubling on heap
    /// exhaustion until the program fits.
    pub fn min_bytes(&mut self, bench: Benchmark) -> u64 {
        let scale = self.scale;
        *self.min_bytes.entry(bench).or_insert_with(|| {
            let mut budget: usize = 512 << 10;
            let max_live = loop {
                let config = GcConfig::new()
                    .heap_budget_bytes(budget)
                    .nursery_bytes(nursery_for_budget(budget));
                match unless_exhausted(|| run_once(bench, CollectorKind::Semispace, &config, scale))
                {
                    Some(result) => break result.gc.max_live_bytes.max(8 << 10),
                    None if budget < (1 << 30) => budget *= 2,
                    None => panic!("{} does not fit a 1 GB semispace heap", bench.name()),
                }
            };
            2 * max_live
        })
    }

    /// The heap budget for a given `k` (floored at 48 KB so even the
    /// tiniest benchmark has a functional heap).
    pub fn budget_for_k(&mut self, bench: Benchmark, k: f64) -> usize {
        let min = self.min_bytes(bench) as f64;
        ((k * min) as usize).max(48 << 10)
    }

    /// The paper's pretenuring policy (old% ≥ 80) for `bench`, with the
    /// profiling run it was derived from (192 MB heap, default
    /// large-object threshold).
    pub fn policy(&mut self, bench: Benchmark) -> &(PretenurePolicy, RunResult) {
        let scale = self.scale;
        self.policies.entry(bench).or_insert_with(|| {
            let config = GcConfig::new()
                .heap_budget_bytes(192 << 20)
                .nursery_bytes(EXPERIMENT_NURSERY)
                .profiling(true);
            let result = run_once(bench, CollectorKind::GenerationalStack, &config, scale);
            let profile = result.profile.as_ref().expect("profiling was enabled");
            let options = tilgc_profile::PolicyOptions::default();
            (tilgc_profile::derive_policy(profile, &options), result)
        })
    }

    /// `bench` under `kind` at the budget for `k`, configured by
    /// `configure`, [`fit`] until a run is pressure-free.
    pub fn run_fitted(
        &mut self,
        bench: Benchmark,
        kind: CollectorKind,
        k: f64,
        configure: impl Fn(GcConfig) -> GcConfig,
    ) -> RunResult {
        let scale = self.scale;
        fit(self.budget_for_k(bench, k), |budget| {
            run_pressure_free(bench, kind, &configure(config_with_budget(budget)), scale)
        })
        .1
    }
}

/// What every out-of-heap panic says: `programs::common::must` and the
/// evacuator's to-space overflow.
const EXHAUSTED: &str = "heap budget exhausted";

/// Runs `f`, or `None` when it ran out of heap — the one verdict a
/// budget is grown for. Any other panic is a bug, not a verdict, and
/// propagates.
fn unless_exhausted<T>(f: impl FnOnce() -> T) -> Option<T> {
    silence_exhaustion();
    match panic::catch_unwind(AssertUnwindSafe(f)) {
        Ok(out) => Some(out),
        Err(payload) if message(&*payload).contains(EXHAUSTED) => None,
        Err(payload) => panic::resume_unwind(payload),
    }
}

/// Keeps the expected out-of-heap panic off stderr, and only that one.
/// The hook is process-global and the tests call the rigs from parallel
/// threads, so it is installed once and never swapped back: every other
/// panic still reaches the previous hook and is printed.
fn silence_exhaustion() {
    static INSTALL: std::sync::Once = std::sync::Once::new();
    INSTALL.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !info.to_string().contains(EXHAUSTED) {
                prev(info);
            }
        }));
    });
}

/// A panic payload's message (`panic!` with or without arguments).
fn message(payload: &(dyn Any + Send)) -> &str {
    payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| payload.downcast_ref::<&str>().copied())
        .unwrap_or("")
}

/// Runs `attempt` at `budget`, growing the budget by a quarter after
/// every refusal — `None`, or heap exhaustion — and returns the budget
/// that was accepted with its result. Calibration samples live size only
/// at semispace collection points, so even a `k · Min` budget can
/// undershoot a peak.
pub fn fit<T>(mut budget: usize, mut attempt: impl FnMut(usize) -> Option<T>) -> (usize, T) {
    loop {
        if let Some(out) = unless_exhausted(|| attempt(budget)).flatten() {
            return (budget, out);
        }
        budget += budget / 4;
    }
}

/// The `--bench` / `--plan` pair of the live rigs: a benchmark by
/// [`Benchmark::from_name`], a plan by its label ignoring case.
pub fn parse_target(bench: &str, plan: &str) -> Result<(Benchmark, CollectorKind), String> {
    let Some(b) = Benchmark::from_name(bench) else {
        let names = Benchmark::ALL.map(|b| b.name()).join(", ");
        return Err(format!(
            "unknown benchmark {bench:?}; expected one of: {names}"
        ));
    };
    let Some(kind) = CollectorKind::ALL
        .into_iter()
        .find(|k| k.label().eq_ignore_ascii_case(plan))
    else {
        let labels = CollectorKind::ALL.map(|k| k.label()).join(", ");
        return Err(format!("unknown plan {plan:?}; expected one of: {labels}"));
    };
    Ok((b, kind))
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
    /// Simulated cycles of the whole run, client and GC.
    pub horizon_cycles: u64,
    /// The recorded event stream, oldest first.
    pub events: Vec<Event>,
    /// Events the ring dropped on overflow.
    pub dropped: u64,
    /// The run's heap profile, when it was asked for.
    pub profile: Option<HeapProfile>,
    /// Names of the run's allocation sites.
    pub sites: tilgc_runtime::SiteRegistry,
}

impl RecordedRun {
    /// `(id, name)` of the run's allocation sites: the `meta` line's
    /// table.
    pub fn site_table(&self) -> Vec<(u16, String)> {
        self.sites
            .iter()
            .map(|(id, name)| (id.get(), name.to_string()))
            .collect()
    }
}

/// Runs `bench` under `kind` with the telemetry recorder attached, at
/// the calibrated k = 4.0 budget and (for the pretenure plan) the
/// profile-derived policy — the rig behind `gc-log` and live
/// `slo-report`. With `profiling`, the run also keeps its §6 heap
/// profile; the profiler is host-side, so the events are the same.
///
/// The budget is [`fit`]: it grows when the run exhausts the heap. Unlike
/// the tables' runs, a run that merely survived under pressure is kept:
/// governor episodes are what the event stream is there to show.
pub fn run_recorded(
    cal: &mut Calibration,
    bench: Benchmark,
    kind: CollectorKind,
    profiling: bool,
) -> RecordedRun {
    let scale = cal.scale();
    let policy =
        (kind == CollectorKind::GenerationalStackPretenure).then(|| cal.policy(bench).0.clone());
    let (budget, (checksum, mut vm)) = fit(cal.budget_for_k(bench, 4.0), |budget| {
        let mut config = config_with_budget(budget).profiling(profiling);
        if let Some(policy) = &policy {
            config = config.pretenure(policy.clone());
        }
        let recorder = Box::new(RingRecorder::with_capacity(RING_CAPACITY));
        let mut vm = build_vm_with_recorder(kind, &config, recorder);
        vm.mutator_mut().check_shadows = false;
        let checksum = bench.run(&mut vm, scale);
        vm.finish();
        Some((checksum, vm))
    });
    let ring = vm
        .recorder_mut()
        .as_any_mut()
        .downcast_mut::<RingRecorder>()
        .expect("run_recorded installed a RingRecorder");
    let (events, dropped) = (ring.drain(), ring.dropped());
    RecordedRun {
        budget,
        checksum,
        horizon_cycles: vm.mutator_stats().client_cycles + vm.gc_stats().gc_cycles(),
        events,
        dropped,
        profile: vm.take_profile(),
        sites: vm.mutator().sites.clone(),
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

/// The percentage by which `new` undercuts `base` (0 when `base` is 0).
pub fn pct_decrease(base: f64, new: f64) -> f64 {
    if base > 0.0 {
        100.0 * (base - new) / base
    } else {
        0.0
    }
}

/// Formats simulated seconds with millisecond resolution.
pub fn fmt_secs(s: f64) -> String {
    format!("{s:.4}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fit_grows_by_a_quarter_per_refusal() {
        // One refusal by `None`, one by heap exhaustion.
        let mut tries = 0;
        let (budget, accepted) = fit(1024, |budget| {
            tries += 1;
            match tries {
                1 => None,
                2 => panic!("{EXHAUSTED} at {budget}"),
                n => Some(n),
            }
        });
        assert_eq!((budget, accepted), (1024 * 5 / 4 * 5 / 4, 3));
    }

    #[test]
    fn fit_propagates_every_other_panic() {
        // A second attempt would be accepted: only propagation fails it.
        let mut tries = 0;
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            fit(1024, |_| {
                tries += 1;
                assert!(tries > 1, "a collector invariant broke");
                Some(())
            })
        }));
        let payload = caught.expect_err("the panic propagates");
        assert_eq!(message(&*payload), "a collector invariant broke");
    }

    #[test]
    fn targets_parse_ignoring_case_and_hyphens() {
        for name in ["knuth-bendix", "KnuthBendix"] {
            let (bench, kind) = parse_target(name, "GEN+MARKERS").expect(name);
            assert_eq!(bench, Benchmark::KnuthBendix);
            assert_eq!(kind, CollectorKind::GenerationalStack);
        }
        let err = parse_target("nosuch", "semispace").expect_err("refused");
        assert!(
            err.contains("\"nosuch\"") && err.contains("Knuth-Bendix, Lexgen"),
            "{err}"
        );
        let err = parse_target("Life", "nosuch").expect_err("refused");
        assert!(
            err.contains("semispace, generational, gen+markers"),
            "{err}"
        );
    }

    #[test]
    fn run_recorded_grows_the_budget_only_on_heap_exhaustion() {
        let mut cal = Calibration::new(1);
        // Neither fits its calibrated k = 4.0 budget under semispace.
        for bench in [Benchmark::Fft, Benchmark::Simple] {
            let run = run_recorded(&mut cal, bench, CollectorKind::Semispace, false);
            assert!(
                run.budget > cal.budget_for_k(bench, 4.0),
                "{}",
                bench.name()
            );
            assert!(!run.events.is_empty());
        }
        let fits = run_recorded(&mut cal, Benchmark::Life, CollectorKind::Semispace, false);
        assert_eq!(fits.budget, cal.budget_for_k(Benchmark::Life, 4.0));
    }
}
