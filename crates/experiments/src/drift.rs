//! `experiments drift` — the drifting-workload benchmark: a program
//! whose allocation-site lifetimes flip mid-run, run twice under the
//! pretenuring collector.
//!
//! The *static* lane keeps the offline profile-derived policy for the
//! whole run — exactly what the paper's profile-driven flow would do
//! when the profile goes stale. The *adaptive* lane starts from the
//! same policy but lets the online estimator promote and demote sites
//! as the run's behaviour drifts. Both lanes are deterministic
//! (simulated cycles, forced collection points), so the ratio
//!
//! ```text
//! drift_adaptive_speedup_vs_static = static gc cycles / adaptive gc cycles
//! ```
//!
//! is a stable, gateable number: below 1.0 would mean adaptation made
//! the drifting workload *worse* than doing nothing.
//!
//! The workload has two sites. `drift::stable` allocates long-lived
//! records for the first half of the run (what an offline profile sees,
//! so the seed policy pretenures it) and pure garbage for the second
//! half. `drift::churn` is its mirror image: garbage first, survivors
//! after the flip. The static lane therefore spends the second half
//! tenuring garbage at birth while nursery-copying every survivor; the
//! adaptive lane demotes the stale site at the first post-flip major
//! and promotes the newly-hot one within a few minors.

use tilgc_core::{build_vm, CollectorKind, GcConfig, PretenurePolicy};
use tilgc_mem::SiteId;
use tilgc_runtime::{FrameDesc, GcStats, Trace, Value, Vm};

/// Site id of `drift::stable` (registered first; ids start at 1).
const STABLE_SITE: u16 = 1;

/// Rounds in the run; the lifetime flip happens halfway.
const ROUNDS: i64 = 64;
/// Survivor records chained per round by whichever site is long-lived.
const KEEP_PER_ROUND: i64 = 16;
/// Garbage records per round from whichever site is short-lived.
const JUNK_PER_ROUND: i64 = 96;

/// What one drift run measures.
pub struct DriftReport {
    /// GC cycles of the static-policy lane.
    pub static_cycles: u64,
    /// GC cycles of the adaptive lane.
    pub adaptive_cycles: u64,
    /// Program checksum (identical across lanes by construction).
    pub checksum: u64,
    /// Sites the adaptive lane promoted mid-run.
    pub promotions: u64,
    /// Sites the adaptive lane demoted mid-run.
    pub demotions: u64,
    /// `static_cycles / adaptive_cycles`.
    pub speedup: f64,
}

/// The phase-flipping program. Survivors chain onto a rooted list;
/// at the flip the old list is dropped (so the stale site's tenured
/// objects all die) and the other site starts chaining instead.
fn workload(vm: &mut Vm) -> u64 {
    let stable = vm.site("drift::stable");
    assert_eq!(stable.get(), STABLE_SITE, "site ids are registration order");
    let churn = vm.site("drift::churn");
    let d = vm.register_frame(FrameDesc::new("drift").slots(1, Trace::Pointer));
    vm.push_frame(d);
    vm.set_slot(0, Value::NULL);
    let mut checksum = 0u64;
    for round in 0..ROUNDS {
        let flipped = round >= ROUNDS / 2;
        let (keeper, junker) = if flipped {
            (churn, stable)
        } else {
            (stable, churn)
        };
        if round == ROUNDS / 2 {
            // The flip: everything the first half retained dies at once.
            vm.set_slot(0, Value::NULL);
        }
        for i in 0..KEEP_PER_ROUND {
            let tail = vm.slot_ptr(0);
            let c = vm
                .alloc_record(keeper, &[Value::Int(round * 1000 + i), Value::Ptr(tail)])
                .unwrap();
            vm.set_slot(0, Value::Ptr(c));
            checksum = checksum.rotate_left(5) ^ (round * 1000 + i) as u64;
        }
        for i in 0..JUNK_PER_ROUND {
            let j = vm
                .alloc_record(junker, &[Value::Int(-i), Value::NULL])
                .unwrap();
            checksum = checksum.rotate_left(3) ^ vm.load_int(j, 0) as u64;
        }
        vm.gc_now();
        if round % 4 == 3 {
            vm.gc_major();
        }
    }
    vm.pop_frame();
    checksum
}

/// The seed policy: what offline profiling of the *first half* derives.
fn seed_policy() -> PretenurePolicy {
    let mut policy = PretenurePolicy::new();
    policy.add_site(SiteId::new(STABLE_SITE));
    policy
}

fn lane_config() -> GcConfig {
    GcConfig::new()
        .heap_budget_bytes(512 << 10)
        .nursery_bytes(8 << 10)
        .pretenure(seed_policy())
}

fn run_lane(config: &GcConfig) -> (u64, GcStats) {
    let mut vm = build_vm(CollectorKind::GenerationalStackPretenure, config);
    vm.mutator_mut().check_shadows = false;
    let checksum = workload(&mut vm);
    vm.finish();
    (checksum, *vm.gc_stats())
}

/// Runs both lanes and returns the report. Panics if the lanes disagree
/// on the program checksum — placement must be invisible to the program.
pub fn measure() -> DriftReport {
    let (static_sum, static_gc) = run_lane(&lane_config());
    let (adaptive_sum, adaptive_gc) = run_lane(&lane_config().adaptive(true));
    assert_eq!(
        static_sum, adaptive_sum,
        "adaptive placement changed the program's result"
    );
    let static_cycles = static_gc.gc_cycles();
    let adaptive_cycles = adaptive_gc.gc_cycles();
    DriftReport {
        static_cycles,
        adaptive_cycles,
        checksum: static_sum,
        promotions: adaptive_gc.sites_promoted,
        demotions: adaptive_gc.sites_demoted,
        speedup: static_cycles as f64 / adaptive_cycles as f64,
    }
}

/// Prints the human-readable drift report (the `experiments drift`
/// subcommand).
pub fn run() {
    let r = measure();
    println!(
        "drift: {ROUNDS}-round phase-flipping workload (lifetimes flip at round {})",
        ROUNDS / 2
    );
    println!(
        "  static lane   (stale offline policy): {:>12} gc cycles",
        r.static_cycles
    );
    println!(
        "  adaptive lane (online estimator):     {:>12} gc cycles  \
         ({} promotion(s), {} demotion(s))",
        r.adaptive_cycles, r.promotions, r.demotions
    );
    println!("  checksum: {:#018x} (identical across lanes)", r.checksum);
    println!("  drift_adaptive_speedup_vs_static: {:.3}", r.speedup);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adaptive_lane_flips_and_beats_static() {
        let r = measure();
        assert!(r.promotions > 0, "the newly-hot site never promoted");
        assert!(r.demotions > 0, "the stale seeded site never demoted");
        assert!(
            r.speedup >= 1.0,
            "adaptation lost to the stale policy: {:.3}",
            r.speedup
        );
    }

    #[test]
    fn measure_is_deterministic() {
        let a = measure();
        let b = measure();
        assert_eq!(a.static_cycles, b.static_cycles);
        assert_eq!(a.adaptive_cycles, b.adaptive_cycles);
        assert_eq!(a.checksum, b.checksum);
    }
}
