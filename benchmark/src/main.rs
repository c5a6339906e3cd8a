//! Command line of the tilgc benchmark. `benchmark/run.sh` builds this
//! and passes its arguments through.
//!
//! * `--workload W --seed N --seconds S --trace 0|1` — one run of one
//!   workload; the last line of standard output is the result object.
//! * no `--trace` — the whole benchmark: every workload (or the one
//!   named), both runs each; writes `results.json`, the traces and the
//!   ledger under `--out`, prints every metric by name, unit and value.
//!   `--check` adds the dominance self-check.
//! * `compare <base.json…> -- <cand.json…>`, `aa`, `list`.

use std::process::ExitCode;

use tilgc_benchmark::measure::{self, Request};
use tilgc_benchmark::report::{self, WorkloadResults};
use tilgc_benchmark::run::{contract_line, run_workload};
use tilgc_benchmark::workload::{self, Oracle, Sizes, Workload, WORKLOADS};
use tilgc_benchmark::RUN_SECONDS;

const DEFAULT_OUT: &str = "benchmark/out";

#[derive(Debug)]
struct Args {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    out: String,
    check: bool,
    oracle: Option<Oracle>,
    rest: Vec<String>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: None,
        out: DEFAULT_OUT.to_string(),
        check: false,
        oracle: None,
        rest: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                parsed.workload =
                    Some(workload::find(&name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--seed" => {
                parsed.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?;
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|_| "--seconds takes a number")?;
                if !(0.0..=3600.0).contains(&s) {
                    return Err("--seconds must be between 0 and 3600".into());
                }
                parsed.seconds = s;
            }
            "--trace" => {
                parsed.trace = Some(match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            "--out" => parsed.out = value("--out")?,
            "--oracle" => parsed.oracle = Some(Oracle::from_arg(&value("--oracle")?)?),
            "--check" => parsed.check = true,
            other => parsed.rest.push(other.to_string()),
        }
    }
    Ok(parsed)
}

/// The whole benchmark (or one workload of it): both runs of each
/// workload, the results file, the table, the combined ledger.
fn run_all(args: &Args, out: &str) -> Result<(report::ResultsFile, bool), String> {
    let mut results: Vec<(&'static Workload, WorkloadResults)> = Vec::new();
    let mut ok = true;
    let mut ledger = String::new();
    for w in WORKLOADS
        .iter()
        .filter(|w| args.workload.is_none_or(|only| only.name == w.name))
    {
        eprintln!("benchmark: {} ...", w.name);
        let r = WorkloadResults {
            end_to_end: run_workload(w, args.seed, args.seconds, false, out)?,
            per_layer: run_workload(w, args.seed, args.seconds, true, out)?,
        };
        print!("{}", report::table(w, &r));
        ok &= r.end_to_end.failed + r.per_layer.failed == 0;
        if args.check {
            for miss in report::check_dominance(w, &r.per_layer.metrics) {
                println!("  CHECK MISSED: {miss}");
                ok = false;
            }
        }
        ledger.push_str(
            &std::fs::read_to_string(format!("{out}/{}.ledger.txt", w.name)).unwrap_or_default(),
        );
        results.push((w, r));
    }
    std::fs::create_dir_all(out).map_err(|e| format!("{out}: {e}"))?;
    let path = format!("{out}/results.json");
    std::fs::write(
        &path,
        report::results_json(args.seed, args.seconds, &results),
    )
    .map_err(|e| format!("{path}: {e}"))?;
    std::fs::write(format!("{out}/ledger.txt"), &ledger).map_err(|e| format!("ledger: {e}"))?;
    print!("{ledger}");
    println!("wrote {path}");
    Ok((report::load_results(&path)?, ok))
}

fn real_main() -> Result<bool, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let (command, flags) = match raw.first().map(String::as_str) {
        Some(c @ ("child" | "compare" | "aa" | "list")) => (c, &raw[1..]),
        _ => ("run", &raw[..]),
    };
    if command == "compare" {
        let split = flags
            .iter()
            .position(|a| a == "--")
            .ok_or("usage: compare <base.json...> -- <candidate.json...>")?;
        let load = |paths: &[String]| -> Result<Vec<_>, String> {
            paths.iter().map(|p| report::load_results(p)).collect()
        };
        let rows = report::compare(&load(&flags[..split])?, &load(&flags[split + 1..])?);
        print!("{}", report::compare_text(&rows));
        return Ok(rows.iter().all(|r| r.verdict != report::Verdict::Worse));
    }
    let args = parse(flags)?;
    if !args.rest.is_empty() {
        return Err(format!("unknown arguments {:?}", args.rest));
    }
    match command {
        "list" => {
            print!("{}", report::benchmark_json(RUN_SECONDS));
            Ok(true)
        }
        "child" => {
            let request = Request {
                workload: args.workload.ok_or("child needs --workload")?,
                seed: args.seed,
                seconds: args.seconds,
                trace: args.trace.unwrap_or(false),
                oracle: args.oracle.ok_or("child needs --oracle")?,
                out_dir: args.out,
            };
            println!("{}", measure::measure(&request, &Sizes::FULL).to_json());
            Ok(true)
        }
        "aa" => {
            let (a, ok_a) = run_all(&args, &format!("{}/aa-1", args.out))?;
            let (b, ok_b) = run_all(&args, &format!("{}/aa-2", args.out))?;
            let rows = report::compare(std::slice::from_ref(&a), std::slice::from_ref(&b));
            print!("{}", report::compare_text(&rows));
            let disagreements = report::aa_agrees(&a, &b);
            for d in &disagreements {
                println!("A/A DISAGREES: {d}");
            }
            Ok(ok_a && ok_b && disagreements.is_empty())
        }
        _ => match (args.workload, args.trace) {
            (Some(w), Some(trace)) => {
                let outcome = run_workload(w, args.seed, args.seconds, trace, &args.out)?;
                for f in &outcome.failures {
                    eprintln!("benchmark: FAILED: {f}");
                }
                let samples: Vec<String> = outcome
                    .wall_samples
                    .iter()
                    .map(|v| format!("{v:.4}"))
                    .collect();
                eprintln!("benchmark: {} pass seconds: {}", w.name, samples.join(" "));
                if trace {
                    for miss in report::check_dominance(w, &outcome.metrics) {
                        eprintln!("benchmark: check missed: {miss}");
                    }
                }
                println!("{}", contract_line(&outcome, trace));
                Ok(true)
            }
            (None, Some(_)) => Err("--trace needs --workload".into()),
            (_, None) => run_all(&args, &args.out).map(|(_, ok)| ok),
        },
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
