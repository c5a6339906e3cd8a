//! Experiments beyond the paper's main tables: the §7.2 extensions and
//! the design-choice ablations DESIGN.md calls out.

use tilgc_core::{build_collector, build_vm, CollectorKind, MarkerPolicy};
use tilgc_programs::Benchmark;
use tilgc_runtime::{CostModel, MutatorState, Vm, WriteBarrier};

use crate::harness::{config_with_budget, fmt_secs, run_once, Calibration};

/// §7.2: no-scan pretenuring on Nqueen.
///
/// The paper manually analyzed Nqueen's allocation sites, split the
/// pretenured objects into a group that only references pretenured
/// objects (no scan needed) and the rest, and measured a further 80 %
/// GC-time reduction. Here the analysis is automatic: the profiler
/// records site→site pointer edges, and sites whose observed targets are
/// all pretenured become no-scan.
pub fn no_scan_pretenuring(scale: u32) {
    println!("Extension (§7.2): eliminating pretenured-region scans, Nqueen");
    let bench = Benchmark::Nqueen;
    // Profile with edges.
    let config = config_with_budget(192 << 20).profiling(true);
    let profiled = run_once(bench, CollectorKind::GenerationalStack, &config, scale);
    let profile = profiled.profile.as_ref().expect("profiling enabled");

    let mut cal = Calibration::new(scale);
    let budget = cal.budget_for_k(bench, 4.0);

    let mut rows = Vec::new();
    for (label, derive_no_scan) in [
        ("pretenure, scanned", false),
        ("pretenure, no-scan analysis", true),
    ] {
        let opts = tilgc_profile::PolicyOptions {
            derive_no_scan,
            ..Default::default()
        };
        let policy = tilgc_profile::derive_policy(profile, &opts);
        let no_scan_sites = policy.sites().filter(|&s| policy.is_no_scan(s)).count();
        let config = config_with_budget(budget).pretenure(policy);
        let r = run_once(
            bench,
            CollectorKind::GenerationalStackPretenure,
            &config,
            scale,
        );
        assert_eq!(
            r.checksum, profiled.checksum,
            "policy changed the program result"
        );
        rows.push((label, r, no_scan_sites));
    }
    println!(
        "{:<30} {:>10} {:>16} {:>14}",
        "configuration", "GC time", "region words", "no-scan sites"
    );
    for (label, r, no_scan_sites) in &rows {
        println!(
            "{:<30} {:>10} {:>16} {:>14}",
            label,
            fmt_secs(r.gc_secs()),
            r.gc.pretenured_scanned_words,
            no_scan_sites,
        );
    }
    let base = &rows[0].1;
    let best = &rows[1].1;
    println!(
        "region-scan work eliminated: {:.0}%\n",
        100.0
            * (base
                .gc
                .pretenured_scanned_words
                .saturating_sub(best.gc.pretenured_scanned_words)) as f64
            / base.gc.pretenured_scanned_words.max(1) as f64
    );
}

/// §7.1: marker-placement policies on Knuth-Bendix (simulated cycles).
pub fn marker_policies(scale: u32) {
    println!("Ablation (§7.1): marker placement policies, Knuth-Bendix, k = 4");
    let bench = Benchmark::KnuthBendix;
    let mut cal = Calibration::new(scale);
    let budget = cal.budget_for_k(bench, 4.0);
    println!(
        "{:<18} {:>10} {:>10} {:>12} {:>12} {:>10}",
        "policy", "GC time", "stack", "scanned", "reused", "markers"
    );
    let policies: [(&str, MarkerPolicy); 5] = [
        ("disabled", MarkerPolicy::Disabled),
        ("every 5", MarkerPolicy::EveryN(5)),
        ("every 25", MarkerPolicy::EveryN(25)),
        ("every 25 + top", MarkerPolicy::EveryNPlusTop(25)),
        ("exponential", MarkerPolicy::Exponential),
    ];
    for (label, policy) in policies {
        let config = config_with_budget(budget).marker_policy(policy);
        let kind = if policy.is_enabled() {
            CollectorKind::GenerationalStack
        } else {
            CollectorKind::Generational
        };
        let r = run_once(bench, kind, &config, scale);
        println!(
            "{:<18} {:>10} {:>10} {:>12} {:>12} {:>10}",
            label,
            fmt_secs(r.gc_secs()),
            fmt_secs(r.stack_secs()),
            r.gc.frames_scanned,
            r.gc.frames_reused,
            r.gc.markers_placed,
        );
    }
    println!();
}

/// §4's suggestion: the sequential store buffer vs the deduplicating
/// object-marking barrier, on update-heavy Peg.
pub fn barrier_comparison(scale: u32) {
    println!("Ablation (§4): write barriers on update-heavy Peg, k = 4");
    let bench = Benchmark::Peg;
    let mut cal = Calibration::new(scale);
    let budget = cal.budget_for_k(bench, 4.0);
    println!(
        "{:<22} {:>10} {:>14} {:>14}",
        "barrier", "GC time", "entries drained", "updates"
    );
    let mut checksums = Vec::new();
    for (label, barrier) in [
        ("sequential store buf", WriteBarrier::ssb()),
        ("object marking", WriteBarrier::object_mark()),
    ] {
        let config = config_with_budget(budget);
        let mut m = MutatorState::new();
        m.barrier = barrier;
        m.check_shadows = false;
        let (collector, mem) = build_collector(CollectorKind::Generational, &config);
        let mut vm = Vm::with_mutator(m, collector, mem);
        let h = bench.run(&mut vm, scale);
        vm.finish();
        checksums.push(h);
        let gc = vm.gc_stats();
        println!(
            "{:<22} {:>10} {:>14} {:>14}",
            label,
            fmt_secs(CostModel::default().secs(gc.gc_cycles())),
            gc.barrier_entries,
            vm.mutator_stats().pointer_updates,
        );
    }
    assert!(checksums.windows(2).all(|w| w[0] == w[1]));
    println!();
}

/// §7.2: the tenure-threshold collector family. The paper: "objects that
/// are tenured are copied several times before being promoted;
/// pretenuring in such systems is likely to yield an even greater
/// benefit than in the system we studied."
pub fn tenure_threshold(scale: u32) {
    println!("Extension (§7.2): tenure thresholds and pretenuring, Nqueen, k = 4");
    let bench = Benchmark::Nqueen;
    let (policy, profiled) = crate::harness::derive_pretenure_policy(bench, scale);
    let mut cal = Calibration::new(scale);
    let budget = cal.budget_for_k(bench, 4.0);
    println!(
        "{:<26} {:>10} {:>12} {:>10} | {:>10} {:>12} {:>10}",
        "", "plain GC", "copied", "GCs", "preten GC", "copied", "GC gain"
    );
    for threshold in [0u8, 2, 4] {
        let base_cfg = config_with_budget(budget).tenure_threshold(threshold);
        let base = run_once(bench, CollectorKind::GenerationalStack, &base_cfg, scale);
        let pt_cfg = base_cfg.clone().pretenure(policy.clone());
        let pt = run_once(
            bench,
            CollectorKind::GenerationalStackPretenure,
            &pt_cfg,
            scale,
        );
        assert_eq!(base.checksum, profiled.checksum);
        assert_eq!(pt.checksum, profiled.checksum);
        let gain = if base.gc_secs() > 0.0 {
            100.0 * (base.gc_secs() - pt.gc_secs()) / base.gc_secs()
        } else {
            0.0
        };
        println!(
            "{:<26} {:>10} {:>12} {:>10} | {:>10} {:>12} {:>9.0}%",
            format!("threshold {threshold}"),
            fmt_secs(base.gc_secs()),
            base.gc.copied_bytes,
            base.gc.collections,
            fmt_secs(pt.gc_secs()),
            pt.gc.copied_bytes,
            gain,
        );
    }
    println!();
}

/// Cost-model sensitivity: the headline Table 5 comparison under
/// perturbed per-operation costs. The *shape* (markers sharply cut
/// deep-stack GC cost) must survive halving/doubling the copy and
/// stack-decode costs, or the reproduction would be an artifact of the
/// chosen constants.
pub fn cost_sensitivity(scale: u32) {
    println!("Sensitivity: Table 5's Knuth-Bendix marker gain under perturbed cost models");
    let bench = Benchmark::KnuthBendix;
    let mut cal = Calibration::new(scale);
    let budget = cal.budget_for_k(bench, 4.0);
    let models: [(&str, CostModel); 4] = [
        ("default", CostModel::default()),
        (
            "cheap copy (÷2)",
            CostModel {
                copy_per_word: 3,
                scan_per_word: 1,
                ..Default::default()
            },
        ),
        (
            "dear copy (×2)",
            CostModel {
                copy_per_word: 12,
                scan_per_word: 6,
                ..Default::default()
            },
        ),
        (
            "cheap decode (÷2)",
            CostModel {
                frame_decode: 15,
                slot_trace: 3,
                ..Default::default()
            },
        ),
    ];
    println!(
        "{:<20} {:>12} {:>12} {:>10}",
        "cost model", "GC plain", "GC markers", "decrease"
    );
    for (label, model) in models {
        let run = |kind: CollectorKind| {
            let config = config_with_budget(budget);
            let mut vm = build_vm(kind, &config);
            vm.mutator_mut().cost = model;
            vm.mutator_mut().check_shadows = false;
            bench.run(&mut vm, scale);
            model.secs(vm.gc_stats().gc_cycles())
        };
        let plain = run(CollectorKind::Generational);
        let markers = run(CollectorKind::GenerationalStack);
        println!(
            "{:<20} {:>12.4} {:>12.4} {:>9.0}%",
            label,
            plain,
            markers,
            100.0 * (plain - markers) / plain.max(1e-12),
        );
    }
    println!();
}

/// Runs every extension experiment.
pub fn all(scale: u32) {
    no_scan_pretenuring(scale);
    tenure_threshold(scale);
    marker_policies(scale);
    barrier_comparison(scale);
    cost_sensitivity(scale);
}
