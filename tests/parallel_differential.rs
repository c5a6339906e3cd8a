//! A worker count is invisible: collection is serial.
//!
//! `GcConfig::workers(n)` survives only because the frozen benchmark
//! package calls it; it changes nothing. For every collector, a
//! benchmark run configured with `workers = 4` must produce the same
//! program answer, the same reachable heap graph, and the same
//! deterministic `GcStats` as the serial (`workers = 1`) oracle — only
//! the `*_wall_ns` fields may differ.

use tilgc::core::{build_vm, verify_vm, vm_snapshot, CollectorKind, GcConfig};
use tilgc::programs::Benchmark;
use tilgc::runtime::GcStats;

fn big_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::Builder::new()
        .stack_size(256 << 20)
        .spawn(f)
        .expect("spawn")
        .join()
        .expect("benchmark thread panicked")
}

/// A roomy heap over a 16 KiB nursery, so both runs collect often.
fn config(workers: usize) -> GcConfig {
    GcConfig::new()
        .heap_budget_bytes(48 << 20)
        .nursery_bytes(16 << 10)
        .large_object_bytes(4 << 10)
        .workers(workers)
}

/// Wall-clock fields are the only sanctioned divergence.
fn drop_wall(mut s: GcStats) -> GcStats {
    s.stack_wall_ns = 0;
    s.copy_wall_ns = 0;
    s.total_wall_ns = 0;
    s
}

fn run(kind: CollectorKind, bench: Benchmark, config: &GcConfig) -> (u64, GcStats, Vec<u64>) {
    let mut vm = build_vm(kind, config);
    let answer = bench.run(&mut vm, 1);
    verify_vm(&vm);
    let stats = drop_wall(*vm.gc_stats());
    let graph = vm_snapshot(&vm);
    (answer, stats, graph)
}

/// All four plans: a run configured with 4 workers is indistinguishable
/// from the serial oracle in answer, stats, and reachable heap.
#[test]
fn parallel_matches_serial_oracle_across_all_plans() {
    big_stack(|| {
        for kind in CollectorKind::ALL {
            for bench in [Benchmark::Life, Benchmark::Lexgen] {
                let serial = run(kind, bench, &config(1));
                let parallel = run(kind, bench, &config(4));
                assert_eq!(
                    serial.0,
                    parallel.0,
                    "{} / {}: answers diverged",
                    kind.label(),
                    bench.name()
                );
                assert_eq!(
                    serial.1,
                    parallel.1,
                    "{} / {}: deterministic GcStats diverged",
                    kind.label(),
                    bench.name()
                );
                assert_eq!(
                    serial.2,
                    parallel.2,
                    "{} / {}: reachable heap graphs diverged",
                    kind.label(),
                    bench.name()
                );
            }
        }
    });
}
