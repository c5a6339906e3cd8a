//! The `torture` binary: wide-sweep driver for the differential GC
//! torture harness.
//!
//! ```text
//! torture [--seeds A..B|N] [--ops N] [--plans L,L,...] [--stride N]
//!         [--nursery-sweep] [--heap-budget BYTES]
//!         [--heap-sweep] [--inject drop-barrier|skew-copied|oom-alloc]
//!         [--budget-sweep] [--failure-out PATH]
//! ```
//!
//! Exit status: 0 all runs clean, 1 a divergence was found (printed,
//! minimized, and optionally written to `--failure-out`), 2 usage error.
//! The failure report carries a telemetry replay of the failing lane —
//! the minimized trace re-run with the event recorder attached, its
//! per-collection event stream appended as JSONL.
//!
//! With `--inject oom-alloc`, heap exhaustion is the *expected* outcome;
//! the sweep counts clean / caught / typed-fatal endings per seed and
//! fails only on a panic or divergence. With `--budget-sweep`, each seed
//! is instead binary-searched for its minimal surviving heap budget and
//! the frontier is printed (one line per seed plus a summary).

#![forbid(unsafe_code)]

use std::ops::Range;
use std::path::PathBuf;
use std::process::ExitCode;

use tilgc_core::CollectorKind;
use tilgc_mem::CHUNK_BYTES;
use tilgc_torture::{
    budget_sweep, failure_telemetry, generate, run_ops_outcome, run_seed, Fault, RunOutcome,
    TortureConfig,
};

const USAGE: &str = "usage: torture [options]
  --seeds A..B | N     seed range (default 0..50; N means 0..N)
  --ops N              ops per generated program (default 512)
  --plans L,L,...      plan labels to run in lockstep (default all four:
                       semispace,generational,gen+markers,gen+markers+pretenure)
  --stride N           diff cross-plan snapshots every N ops (default 16)
  --nursery-sweep      repeat the sweep at 2 KB, 4 KB and 16 KB nurseries
  --heap-budget BYTES  total heap budget per lane (default 1 MiB)
  --heap-sweep         repeat the sweep at heap budgets of 1, 2, 4 and
                       8 chunks, each one word under, exactly at, and one
                       word over the chunk boundary (side-metadata edge
                       cases); overrides --heap-budget
  --inject FAULT       plant a defect the harness must catch:
                       drop-barrier | skew-copied | oom-alloc
  --budget-sweep       binary-search each seed's minimal surviving heap
                       budget and print the frontier
  --failure-out PATH   write the minimized failure report to PATH
  --help               this text";

struct Args {
    seeds: Range<u64>,
    ops: usize,
    plans: Vec<CollectorKind>,
    stride: usize,
    nursery_sweep: bool,
    heap_budget: Option<usize>,
    heap_sweep: bool,
    inject: Option<Fault>,
    budget_sweep: bool,
    failure_out: Option<PathBuf>,
}

fn parse_seeds(s: &str) -> Result<Range<u64>, String> {
    if let Some((a, b)) = s.split_once("..") {
        let start: u64 = a.parse().map_err(|_| format!("bad seed range: {s}"))?;
        let end: u64 = b.parse().map_err(|_| format!("bad seed range: {s}"))?;
        if start >= end {
            return Err(format!("empty seed range: {s}"));
        }
        Ok(start..end)
    } else {
        let n: u64 = s.parse().map_err(|_| format!("bad seed count: {s}"))?;
        if n == 0 {
            return Err("seed count must be positive".to_string());
        }
        Ok(0..n)
    }
}

fn parse_plans(s: &str) -> Result<Vec<CollectorKind>, String> {
    let mut plans = Vec::new();
    for label in s.split(',') {
        let kind = CollectorKind::ALL
            .into_iter()
            .find(|k| k.label() == label.trim())
            .ok_or_else(|| format!("unknown plan label: {label}"))?;
        if !plans.contains(&kind) {
            plans.push(kind);
        }
    }
    if plans.is_empty() {
        return Err("no plans selected".to_string());
    }
    Ok(plans)
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seeds: 0..50,
        ops: 512,
        plans: CollectorKind::ALL.to_vec(),
        stride: 16,
        nursery_sweep: false,
        heap_budget: None,
        heap_sweep: false,
        inject: None,
        budget_sweep: false,
        failure_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("{flag} requires a value"));
        match flag.as_str() {
            "--seeds" => args.seeds = parse_seeds(&value("--seeds")?)?,
            "--ops" => {
                args.ops = value("--ops")?
                    .parse()
                    .map_err(|_| "bad --ops value".to_string())?;
            }
            "--plans" => args.plans = parse_plans(&value("--plans")?)?,
            "--stride" => {
                args.stride = value("--stride")?
                    .parse()
                    .map_err(|_| "bad --stride value".to_string())?;
            }
            "--nursery-sweep" => args.nursery_sweep = true,
            "--heap-budget" => {
                args.heap_budget = Some(
                    value("--heap-budget")?
                        .parse()
                        .map_err(|_| "bad --heap-budget value".to_string())?,
                );
                if args.heap_budget == Some(0) {
                    return Err("--heap-budget must be positive".to_string());
                }
            }
            "--heap-sweep" => args.heap_sweep = true,
            "--inject" => {
                args.inject = Some(match value("--inject")?.as_str() {
                    "drop-barrier" => Fault::DropBarrier,
                    "skew-copied" => Fault::SkewCopied,
                    "oom-alloc" => Fault::OomAlloc,
                    other => return Err(format!("unknown fault: {other}")),
                });
            }
            "--budget-sweep" => args.budget_sweep = true,
            "--failure-out" => args.failure_out = Some(PathBuf::from(value("--failure-out")?)),
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag: {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("torture: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let nurseries: &[usize] = if args.nursery_sweep {
        &[2 << 10, 4 << 10, 16 << 10]
    } else {
        &[4 << 10]
    };
    let heap_budgets: Vec<usize> = if args.heap_sweep {
        // 1, 2, 4 and 8 chunks, probed one word under, exactly at, and
        // one word over each boundary — the shapes that land space ends
        // on (and just past) side-metadata bitmap word edges.
        [1usize, 2, 4, 8]
            .iter()
            .flat_map(|&m| {
                let base = m * CHUNK_BYTES;
                [base - 8, base, base + 8]
            })
            .collect()
    } else {
        vec![args
            .heap_budget
            .unwrap_or(TortureConfig::default().heap_budget_bytes)]
    };
    let n_seeds = args.seeds.end - args.seeds.start;
    let mut runs = 0u64;
    for (&nursery, &heap_budget) in nurseries
        .iter()
        .flat_map(|n| heap_budgets.iter().map(move |b| (n, b)))
    {
        let cfg = TortureConfig {
            ops: args.ops,
            heap_budget_bytes: heap_budget,
            nursery_bytes: nursery,
            plans: args.plans.clone(),
            check_stride: args.stride,
            fault: args.inject,
            ..TortureConfig::default()
        };
        eprintln!(
            "torture: nursery {} KB, heap {} KB, seeds {}..{}, {} ops, plans [{}]{}",
            nursery >> 10,
            heap_budget >> 10,
            args.seeds.start,
            args.seeds.end,
            cfg.ops,
            cfg.plans
                .iter()
                .map(|k| k.label())
                .collect::<Vec<_>>()
                .join(", "),
            match cfg.fault {
                Some(f) => format!(", injected fault {f:?}"),
                None => String::new(),
            }
        );
        if args.budget_sweep {
            match sweep_budgets(&args, &cfg) {
                Ok(()) => {
                    runs += n_seeds;
                    continue;
                }
                Err(d) => return report_failure(&args, &cfg, nursery, &d),
            }
        }
        let mut oom_clean = 0u64;
        let mut oom_caught = 0u64;
        let mut oom_fatal = 0u64;
        for (done, seed) in args.seeds.clone().enumerate() {
            // Under oom-alloc injection exhaustion is the expected
            // outcome; classify it instead of just passing the seed.
            if args.inject == Some(Fault::OomAlloc) {
                let ops = generate(seed, cfg.ops);
                match run_ops_outcome(seed, &ops, &cfg) {
                    RunOutcome::Clean => oom_clean += 1,
                    RunOutcome::Oom { fatal: false, .. } => oom_caught += 1,
                    RunOutcome::Oom { fatal: true, .. } => oom_fatal += 1,
                    RunOutcome::Diverged(full) => {
                        let d = run_seed(seed, &cfg).unwrap_or(full);
                        return report_failure(&args, &cfg, nursery, &d);
                    }
                }
            } else if let Some(d) = run_seed(seed, &cfg) {
                return report_failure(&args, &cfg, nursery, &d);
            }
            runs += 1;
            if (done + 1) % 25 == 0 {
                eprintln!("torture:   {}/{} seeds clean", done + 1, n_seeds);
            }
        }
        if args.inject == Some(Fault::OomAlloc) {
            eprintln!(
                "torture:   oom-alloc outcomes: {oom_clean} recovered clean, \
                 {oom_caught} caught by a handler, {oom_fatal} typed-fatal exits"
            );
        }
    }
    println!(
        "torture: {} runs clean ({} seeds x {} nursery sizes x {} heap budgets, {} ops each)",
        runs,
        n_seeds,
        nurseries.len(),
        heap_budgets.len(),
        args.ops
    );
    ExitCode::SUCCESS
}

/// Prints a minimized failure (with its telemetry replay), optionally
/// writes it to `--failure-out`, and returns the failing exit code.
fn report_failure(
    args: &Args,
    cfg: &TortureConfig,
    nursery: usize,
    d: &tilgc_torture::Divergence,
) -> ExitCode {
    let mut report = format!(
        "nursery {nursery} bytes, heap budget {} bytes\n{d}",
        cfg.heap_budget_bytes
    );
    report.push_str(&failure_telemetry(d, cfg));
    eprintln!("torture: FAILED\n{report}");
    if let Some(path) = &args.failure_out {
        if let Err(e) = std::fs::write(path, &report) {
            eprintln!("torture: could not write {}: {e}", path.display());
        } else {
            eprintln!("torture: failure report written to {}", path.display());
        }
    }
    ExitCode::from(1)
}

/// The `--budget-sweep` mode: per-seed minimal-surviving-budget frontier
/// (one line per seed to stdout, so CI can archive it) plus a summary.
fn sweep_budgets(args: &Args, cfg: &TortureConfig) -> Result<(), tilgc_torture::Divergence> {
    let mut min = usize::MAX;
    let mut max = 0usize;
    let mut unsurvivable = 0u64;
    let mut probes = 0usize;
    for seed in args.seeds.clone() {
        let report = budget_sweep(seed, cfg)?;
        probes += report.probes;
        match report.minimal_budget_bytes {
            Some(b) => {
                min = min.min(b);
                max = max.max(b);
                println!("budget-sweep: seed {seed}: minimal budget {b} bytes");
            }
            None => {
                unsurvivable += 1;
                println!(
                    "budget-sweep: seed {seed}: no surviving budget <= {} bytes",
                    cfg.heap_budget_bytes
                );
            }
        }
    }
    if max == 0 {
        println!("budget-sweep: no seed survives at any probed budget");
    } else {
        println!(
            "budget-sweep: frontier {min}..{max} bytes across {} seeds \
             ({unsurvivable} unsurvivable, {probes} probes)",
            args.seeds.end - args.seeds.start
        );
    }
    Ok(())
}
