//! One run of one workload, as the parent process sees it: compute the
//! reference answers, hand them to fresh measuring children, and fold
//! what they report into the run's metrics.

use std::fmt::Write as _;
use std::process::{Command, Stdio};
use std::time::Instant;

use crate::measure::Report;
use crate::metrics::{self, Values};
use crate::workload::{self, Sizes, Workload};

/// What one run of one workload produced.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Program or stream runs made.
    pub attempted: u64,
    /// Runs that failed (wrong checksum, panic, heap pressure, recorder
    /// drops) plus determinism violations between passes or processes.
    pub failed: u64,
    /// What failed.
    pub failures: Vec<String>,
    /// The end-to-end metrics (`--trace 0`) or the per-layer metrics
    /// (`--trace 1`).
    pub metrics: Values,
    /// Seconds of every timed pass, over all the run's processes.
    pub wall_samples: Vec<f64>,
    /// Set-up seconds of each of the run's processes.
    pub setup_samples: Vec<f64>,
}

/// Runs `workload` once: `--trace 0` measures the end-to-end metrics in
/// `workload.rounds` fresh processes, `--trace 1` the per-layer metrics
/// in one.
pub fn run_workload(
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: &str,
) -> Result<Outcome, String> {
    let rounds = if trace { 1 } else { workload.rounds };
    let mut out = Outcome::default();
    let mut reports: Vec<Report> = Vec::new();
    for _ in 0..rounds {
        // Set-up, part one: the inputs and their reference answers —
        // here, so their memory is not the measuring child's.
        let t = Instant::now();
        let stream = workload::generate(workload, seed, &Sizes::FULL);
        let oracle = workload::oracle(workload, stream.as_ref());
        drop(stream);
        let oracle_s = t.elapsed().as_secs_f64();

        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let child = Command::new(exe)
            .args(["child", "--workload", workload.name])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &(seconds / rounds as f64).to_string()])
            .args(["--trace", if trace { "1" } else { "0" }])
            .args(["--oracle", &oracle.to_arg()])
            .args(["--out", out_dir])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("spawning the measuring child: {e}"))?;
        if !child.status.success() {
            return Err(format!("the measuring child ended with {}", child.status));
        }
        let stdout = String::from_utf8_lossy(&child.stdout);
        let line = stdout.lines().last().ok_or("the child printed nothing")?;
        let report = Report::from_json(line)?;
        // Set-up, part two: the child's warm-up pass.
        out.setup_samples.push(oracle_s + report.warmup_s);
        reports.push(report);
    }

    for r in &reports {
        out.attempted += r.attempted;
        out.failed += r.failed;
        out.failures.extend(r.failures.iter().cloned());
        out.wall_samples.extend(r.wall_samples.iter().copied());
    }
    // One value per process; on the simulated clock they are all equal
    // unless the workload collects in parallel (see `Report::parallel`).
    let over_processes = |f: fn(&Report) -> f64| {
        let values: Vec<f64> = reports.iter().map(f).collect();
        let first = values[0];
        (metrics::median(&values), values.iter().all(|&v| v == first))
    };
    let sim = [
        over_processes(|r| r.gc_cycles as f64 / 1e6),
        over_processes(|r| r.client_cycles as f64 / 1e6),
        over_processes(|r| r.pause_p99_cycles as f64 / 1e3),
        over_processes(|r| r.mmu_permille),
    ];
    if !reports[0].parallel && sim.iter().any(|&(_, same)| !same) {
        out.failed += 1;
        out.failures
            .push("simulated metrics differ between processes".into());
    }

    if trace {
        out.metrics = reports.swap_remove(0).per_layer;
    } else {
        let m = &mut out.metrics;
        m.insert("wall_s", metrics::median(&out.wall_samples));
        m.insert("sim_gc_mcycles", sim[0].0);
        m.insert("sim_client_mcycles", sim[1].0);
        m.insert("sim_pause_p99_kcycles", sim[2].0);
        m.insert("sim_mmu_permille", sim[3].0);
        m.insert("peak_rss_mb", over_processes(|r| r.hwm_mb).0);
        m.insert("setup_s", metrics::median(&out.setup_samples));
    }
    // `+ 0.0` turns the -0 an empty sum yields into 0.
    for value in out.metrics.values_mut() {
        *value += 0.0;
    }
    Ok(out)
}

/// The result line the benchmark contract asks for: `correct`,
/// `attempted`, `failed` and every metric of the run with its unit.
pub fn contract_line(outcome: &Outcome, trace: bool) -> String {
    let defs: &[metrics::MetricDef] = if trace {
        &metrics::PER_LAYER
    } else {
        &metrics::END_TO_END
    };
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed
    );
    for (i, def) in defs.iter().enumerate() {
        let value = outcome.metrics.get(def.name).copied().unwrap_or(0.0);
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            def.name, def.unit
        );
    }
    s.push_str("}}");
    s
}
