//! `experiments` — regenerates every table and figure of the PLDI'98
//! evaluation.
//!
//! ```text
//! experiments <table1..table7|figure2|extensions|all> [--scale N]
//! experiments gc-log [--bench NAME] [--plan LABEL] [--out-dir DIR]
//!                    [--validate]
//! experiments slo-report [--input FILE.jsonl | --bench NAME --plan LABEL]
//!                        [--validate] [--report FILE]
//!                        [--max-p50 C] [--max-p90 C] [--max-p99 C]
//!                        [--max-p999 C] [--mmu-window C] [--min-mmu P]
//! ```
//!
//! Every table and figure is deterministic simulated cycles; host time
//! is measured by `benchmark/run.sh` (see `benchmark/README.md`).
//! `--scale N` (default 1) sizes the input of every run. A process
//! calibrates each benchmark, and derives its pretenuring policy, once.
//! `gc-log` runs one benchmark (default `Checksum`) under one collector
//! (default `gen+markers`) with the telemetry recorder attached, prints
//! an ASCII per-collection phase timeline and per-site survival table,
//! and writes the event stream as JSONL into `--out-dir` (default
//! `gclog`); `--validate` additionally decodes the file back and checks
//! it against the documented schema.
//! `slo-report` evaluates pause-time service-level objectives: it reads
//! an event stream (a `gc-log` JSONL via `--input`, or a live run of
//! `--bench` under `--plan` — the gc-log rig), prints the pause
//! percentile table, the MMU curve, the last heap census, and the
//! recorder's drop accounting, then checks each configured bound —
//! `--max-p50/--max-p90/--max-p99/--max-p999 CYCLES` upper-bound pause
//! percentiles, and `--min-mmu PERMILLE` lower-bounds the MMU at the
//! preceding `--mmu-window CYCLES` (default 1500000, i.e. 10 ms at the
//! default clock; the flag pair may repeat for multiple windows) —
//! exiting nonzero on any violation. `--report FILE` additionally writes
//! the report text to a file for CI artifacts. Time-to-safepoint is
//! reported whenever the stream carries `ttsp_cycles` fields, which
//! every live run does.
//!
//! Build with `--release`: the simulator is deterministic either way, but
//! debug builds are an order of magnitude slower.

#![forbid(unsafe_code)]

mod extensions;
mod gclog;
mod harness;
mod slo;
mod tables;

use std::process::ExitCode;

/// `--scale`'s operand: a positive integer (0 would run every program
/// on an empty input and print tables of nonsense).
fn parse_scale(arg: Option<&String>) -> Option<u32> {
    arg.and_then(|s| s.parse().ok()).filter(|&s| s > 0)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut which: Option<String> = None;
    let mut scale: u32 = 1;
    let mut bench = "Checksum".to_string();
    let mut plan = "gen+markers".to_string();
    let mut out_dir = "gclog".to_string();
    let mut validate = false;
    let mut input: Option<String> = None;
    let mut report: Option<String> = None;
    let mut spec = tilgc_obs::metrics::SloSpec::default();
    // Window the next `--min-mmu` bound applies at: 10 ms at the default
    // 150 MHz clock.
    let mut mmu_window: u64 = 1_500_000;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            flag @ ("--bench" | "--plan" | "--out-dir" | "--input" | "--report") => {
                i += 1;
                let Some(value) = args.get(i).cloned() else {
                    eprintln!("{flag} needs a value");
                    return ExitCode::FAILURE;
                };
                match flag {
                    "--bench" => bench = value,
                    "--plan" => plan = value,
                    "--out-dir" => out_dir = value,
                    "--input" => input = Some(value),
                    _ => report = Some(value),
                }
            }
            "--validate" => validate = true,
            flag @ ("--max-p50" | "--max-p90" | "--max-p99" | "--max-p999") => {
                i += 1;
                let Some(bound) = args.get(i).and_then(|s| s.parse::<u64>().ok()) else {
                    eprintln!("{flag} needs a cycle count");
                    return ExitCode::FAILURE;
                };
                let permille = match flag {
                    "--max-p50" => 500,
                    "--max-p90" => 900,
                    "--max-p99" => 990,
                    _ => 999,
                };
                spec.max_pause.push((permille, bound));
            }
            "--mmu-window" => {
                i += 1;
                mmu_window = match args.get(i).and_then(|s| s.parse::<u64>().ok()) {
                    Some(w) if w > 0 => w,
                    _ => {
                        eprintln!("--mmu-window needs a positive cycle count");
                        return ExitCode::FAILURE;
                    }
                };
            }
            "--min-mmu" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse::<u64>().ok()) {
                    Some(p) if p <= 1000 => spec.min_mmu.push((mmu_window, p)),
                    _ => {
                        eprintln!("--min-mmu needs a permille value (0..=1000)");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--scale" => {
                i += 1;
                scale = match parse_scale(args.get(i)) {
                    Some(s) => s,
                    None => {
                        eprintln!("--scale needs a positive integer");
                        return ExitCode::FAILURE;
                    }
                };
            }
            other if which.is_none() => which = Some(other.to_string()),
            other => {
                eprintln!("unexpected argument: {other}");
                return ExitCode::FAILURE;
            }
        }
        i += 1;
    }
    let which = which.unwrap_or_else(|| "all".to_string());
    let mut cal = harness::Calibration::new(scale);
    if which == "gc-log" {
        return gclog::run(&mut cal, &bench, &plan, &out_dir, validate);
    }
    if which == "slo-report" {
        let request = slo::SloRequest {
            input,
            bench,
            plan,
            validate,
            report,
            spec,
        };
        return slo::run(&mut cal, &request);
    }
    let mut run = |name: &str| match name {
        "table1" => tables::table1(),
        "table2" => tables::table2(&mut cal),
        "table3" => tables::table3(&mut cal),
        "table4" => tables::table4(&mut cal),
        "table5" => tables::table5(&mut cal),
        "table6" => tables::table6(&mut cal),
        "table7" => tables::table7(&mut cal),
        "figure2" => tables::figure2(&mut cal),
        "extensions" => extensions::all(&mut cal),
        other => {
            eprintln!(
                "unknown experiment {other:?}; expected table1..table7, figure2, extensions, \
                 gc-log, slo-report, or all"
            );
            std::process::exit(2);
        }
    };
    if which == "all" {
        for name in [
            "table1",
            "table2",
            "table3",
            "table4",
            "table5",
            "table6",
            "table7",
            "figure2",
            "extensions",
        ] {
            run(name);
            println!();
        }
    } else {
        run(&which);
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::parse_scale;

    #[test]
    fn scale_must_be_a_positive_integer() {
        let parse = |s: &str| parse_scale(Some(&s.to_string()));
        assert_eq!(parse("3"), Some(3));
        assert_eq!(
            [parse("0"), parse("-1"), parse("x"), parse_scale(None)],
            [None; 4]
        );
    }
}
