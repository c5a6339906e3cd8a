//! The measuring child process: generate the inputs, warm up, time
//! passes with tracing off, and — for a traced run — record one more
//! pass with the span recorder and a `RingRecorder` attached.
//!
//! Its standard output is one JSON line for the parent. Its own peak
//! memory (`VmHWM`) is read after the timed passes and before the traced
//! pass, and the reference answers were computed in the parent, so
//! neither counts toward `peak_rss_mb`.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::metrics::{self, HostSample, Totals, Values};
use crate::trace::{NoTrace, SpanTrace, Tracer};
use crate::workload::{self, Oracle, PassResult, Recording, RunSpec, Sizes, Workload};

/// Timed passes a process makes at least, however short `--seconds` is.
pub const MIN_PASSES: usize = 2;
/// Untraced passes of the serial twin `churn-par`'s traced run times to
/// give `core.sched.par_speedup` its base.
const TWIN_PASSES: usize = 3;

/// What the parent asks of one child.
#[derive(Clone, Debug)]
pub struct Request {
    /// The workload.
    pub workload: &'static Workload,
    /// The inputs' seed.
    pub seed: u64,
    /// Seconds of timed passes.
    pub seconds: f64,
    /// Whether to add the traced pass and report per-layer metrics.
    pub trace: bool,
    /// The reference answers.
    pub oracle: Oracle,
    /// Where the trace and ledger go.
    pub out_dir: String,
}

/// What one child measured.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Seconds of the warm-up pass.
    pub warmup_s: f64,
    /// Seconds of each timed pass.
    pub wall_samples: Vec<f64>,
    /// Program or stream runs made (warm-up, timed, traced).
    pub attempted: u64,
    /// Runs that failed, plus cross-pass determinism violations.
    pub failed: u64,
    /// What failed, for the log.
    pub failures: Vec<String>,
    /// `VmHWM` after the timed passes, MB.
    pub hwm_mb: f64,
    /// Σ simulated GC cycles of one pass.
    pub gc_cycles: u64,
    /// Σ simulated client cycles of one pass.
    pub client_cycles: u64,
    /// p99 pause in simulated cycles (warm-up pass's recorder).
    pub pause_p99_cycles: u64,
    /// Worst MMU at the benchmark's window, permille.
    pub mmu_permille: f64,
    /// Whether any run of the workload uses more than one GC worker.
    /// The parallel lanes are not deterministic on the simulated clock
    /// (how the workers' copy chunks fill the tenured generation decides
    /// when the next major collection comes), so there a pass that
    /// differs from the warm-up is counted, not failed.
    pub parallel: bool,
    /// Passes whose simulated cycles or counts differed from the
    /// warm-up's (a failure each, unless `parallel`).
    pub divergent_passes: u64,
    /// Per-layer metrics (traced runs only).
    pub per_layer: Values,
}

fn vm_hwm_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

impl Report {
    fn absorb(&mut self, pass: &PassResult) {
        self.attempted += pass.runs.len() as u64;
        for run in &pass.runs {
            if let Some(why) = &run.failure {
                self.failed += 1;
                self.failures.push(why.clone());
            }
        }
    }

    /// A pass's deterministic totals must equal the warm-up's.
    fn expect_same(&mut self, what: &str, totals: &Totals, expect: &Totals) {
        if totals == expect {
            return;
        }
        self.divergent_passes += 1;
        if !self.parallel {
            self.failed += 1;
            self.failures.push(format!(
                "{what}'s simulated cycles or counts differ from the warm-up's: {}",
                totals.diff(expect)
            ));
        }
    }

    /// The report as one JSON line.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        let samples: Vec<String> = self
            .wall_samples
            .iter()
            .map(|v| format!("{v:.9}"))
            .collect();
        let failures: Vec<String> = self
            .failures
            .iter()
            .map(|f| format!("\"{}\"", f.replace(['"', '\\', '\n'], "'")))
            .collect();
        let _ = write!(
            s,
            "{{\"warmup_s\":{:.9},\"wall_samples\":[{}],\"attempted\":{},\
             \"failed\":{},\"failures\":[{}],\"hwm_mb\":{:.4},\"gc_cycles\":{},\
             \"client_cycles\":{},\"pause_p99_cycles\":{},\"mmu_permille\":{},\"parallel\":{},\
             \"divergent_passes\":{},\"per_layer\":{{",
            self.warmup_s,
            samples.join(","),
            self.attempted,
            self.failed,
            failures.join(","),
            self.hwm_mb,
            self.gc_cycles,
            self.client_cycles,
            self.pause_p99_cycles,
            self.mmu_permille,
            self.parallel,
            self.divergent_passes,
        );
        let layers: Vec<String> = self
            .per_layer
            .iter()
            .map(|(k, v)| format!("\"{k}\":{v}"))
            .collect();
        s.push_str(&layers.join(","));
        s.push_str("}}");
        s
    }

    /// Parses [`to_json`](Report::to_json)'s output.
    pub fn from_json(line: &str) -> Result<Report, String> {
        let v = tilgc_obs::json::parse(line)?;
        let num = |key: &str| {
            v.get(key)
                .and_then(|x| x.as_f64())
                .ok_or_else(|| format!("child report lacks {key}"))
        };
        let per_layer_json = v
            .get("per_layer")
            .and_then(|x| x.as_object())
            .ok_or("child report lacks per_layer")?;
        let mut per_layer = Values::new();
        for def in &metrics::PER_LAYER {
            if let Some((_, value)) = per_layer_json.iter().find(|(k, _)| k == def.name) {
                per_layer.insert(def.name, value.as_f64().ok_or("per_layer value")?);
            }
        }
        Ok(Report {
            warmup_s: num("warmup_s")?,
            wall_samples: v
                .get("wall_samples")
                .and_then(|x| x.as_array())
                .ok_or("child report lacks wall_samples")?
                .iter()
                .filter_map(|x| x.as_f64())
                .collect(),
            attempted: num("attempted")? as u64,
            failed: num("failed")? as u64,
            failures: v
                .get("failures")
                .and_then(|x| x.as_array())
                .unwrap_or(&[])
                .iter()
                .filter_map(|x| x.as_str().map(str::to_string))
                .collect(),
            hwm_mb: num("hwm_mb")?,
            gc_cycles: num("gc_cycles")? as u64,
            client_cycles: num("client_cycles")? as u64,
            pause_p99_cycles: num("pause_p99_cycles")? as u64,
            mmu_permille: num("mmu_permille")?,
            parallel: v.get("parallel").and_then(|x| x.as_bool()).unwrap_or(false),
            divergent_passes: num("divergent_passes")? as u64,
            per_layer,
        })
    }
}

/// Times untraced passes of `runs` until `seconds` have gone by (at
/// least `min_passes`), checking each against `expect`.
fn timed_passes(
    runs: &[RunSpec],
    oracle: &Oracle,
    seconds: f64,
    min_passes: usize,
    expect: &Totals,
    report: &mut Report,
) -> Vec<HostSample> {
    let mut samples: Vec<HostSample> = Vec::new();
    let start = Instant::now();
    loop {
        let pass = workload::run_pass(runs, oracle, Recording::Off, false, &mut NoTrace);
        report.absorb(&pass);
        report.expect_same("a timed pass", &Totals::of(&pass), expect);
        samples.push(HostSample::of(&pass));
        // Stop at the pass boundary nearest to `seconds`.
        let last = pass.wall_ns as f64 / 1e9;
        if samples.len() >= min_passes && start.elapsed().as_secs_f64() + last / 2.0 >= seconds {
            return samples;
        }
    }
}

/// Runs the child's whole measurement.
pub fn measure(req: &Request, sizes: &Sizes) -> Report {
    let mut report = Report::default();

    let stream = workload::generate(req.workload, req.seed, sizes);
    if stream.as_ref().map_or(0, workload::Stream::hash) != req.oracle.stream_hash {
        report.failed += 1;
        report
            .failures
            .push("the seed generated another op stream here than in the parent".into());
    }
    let runs = workload::plan_runs(req.workload, stream, &req.oracle);
    report.parallel = runs.iter().any(|r| r.config.workers > 1);

    // Warm-up, with the pause recorder: fills the caches and the
    // allocator, and yields the deterministic pause timeline.
    let t = Instant::now();
    let warm = workload::run_pass(&runs, &req.oracle, Recording::Pauses, false, &mut NoTrace);
    report.warmup_s = t.elapsed().as_secs_f64();
    report.absorb(&warm);
    let totals = Totals::of(&warm);
    report.gc_cycles = totals.gc_cycles();
    report.client_cycles = totals.get("client_cycles");
    (report.pause_p99_cycles, report.mmu_permille) = metrics::pause_summary(&warm);
    drop(warm);

    let samples = timed_passes(
        &runs,
        &req.oracle,
        req.seconds,
        MIN_PASSES,
        &totals,
        &mut report,
    );
    report.wall_samples = samples.iter().map(|s| s.wall_ns as f64 / 1e9).collect();
    report.hwm_mb = vm_hwm_mb();

    if req.trace {
        traced_run(req, &runs, &totals, &samples, &mut report);
    }
    report
}

fn traced_run(
    req: &Request,
    runs: &[RunSpec],
    totals: &Totals,
    samples: &[HostSample],
    report: &mut Report,
) {
    let out = &mut report.per_layer;
    for def in &metrics::PER_LAYER {
        out.insert(def.name, 0.0);
    }
    metrics::from_timed_passes(totals, samples, out);
    let untraced_s = metrics::median(&report.wall_samples);

    // The serial twin: the same runs with one GC worker, where the
    // workload asks for more. Judged by the same clock in this process.
    if report.parallel {
        let twin: Vec<RunSpec> = runs
            .iter()
            .map(|r| RunSpec {
                config: r.config.clone().workers(1),
                ..r.clone()
            })
            .collect();
        let twin_totals = {
            let pass = workload::run_pass(&twin, &req.oracle, Recording::Off, false, &mut NoTrace);
            report.absorb(&pass);
            Totals::of(&pass)
        };
        let twin_samples = timed_passes(&twin, &req.oracle, 0.0, TWIN_PASSES, &twin_totals, report);
        let twin_s = metrics::median(
            &twin_samples
                .iter()
                .map(|s| s.wall_ns as f64 / 1e9)
                .collect::<Vec<_>>(),
        );
        let out = &mut report.per_layer;
        out.insert("core.sched.serial_twin_s", twin_s);
        out.insert("core.sched.par_speedup", twin_s / untraced_s);
    }

    let mut trace = SpanTrace::new();
    let root = trace.open("workload", req.workload.name);
    let pass = workload::run_pass(runs, &req.oracle, Recording::Events, false, &mut trace);
    trace.close(root);
    report.absorb(&pass);
    report.expect_same("the traced pass", &Totals::of(&pass), totals);
    let out = &mut report.per_layer;
    metrics::from_trace(&trace, out);
    out.insert(
        "mem.heap_reserved_mb",
        pass.runs
            .iter()
            .map(|r| r.heap_words * 8)
            .max()
            .unwrap_or(0) as f64
            / (1u64 << 20) as f64,
    );
    out.insert(
        "obs.events",
        pass.runs.iter().map(|r| r.event_count).sum::<u64>() as f64,
    );
    out.insert(
        "obs.dropped",
        pass.runs.iter().map(|r| r.dropped).sum::<u64>() as f64,
    );
    out.insert(
        "obs.overhead_share",
        pass.wall_ns as f64 / 1e9 / untraced_s - 1.0,
    );
    out.insert(
        "core.sched.divergent_passes",
        report.divergent_passes as f64,
    );
    out.insert("profile.derive_policy_s", req.oracle.derive_policy_s);
    out.insert(
        "profile.pretenured_sites",
        req.oracle.policies.iter().map(Vec::len).sum::<usize>() as f64,
    );

    if let Err(e) = write_artifacts(req, &trace, pass.wall_ns, untraced_s) {
        eprintln!("benchmark: could not write trace artifacts: {e}");
    }
}

/// The ledger of one traced pass as text: rows of self time that sum to
/// the pass, and the tracing overhead against the untraced median.
pub fn ledger_text(workload: &str, trace: &SpanTrace, traced_ns: u64, untraced_s: f64) -> String {
    let rows = metrics::ledger(trace);
    let pass_ns = traced_ns.max(1) as f64;
    let mut text = format!("ledger {workload}: traced pass {:.6} s\n", pass_ns / 1e9);
    let mut sum = 0u64;
    for row in &rows {
        sum += row.ns;
        let _ = writeln!(
            text,
            "  {:<40} {:>12.6} s {:>7.2} %",
            row.label,
            row.ns as f64 / 1e9,
            100.0 * row.ns as f64 / pass_ns
        );
    }
    let _ = writeln!(
        text,
        "  {:<40} {:>12.6} s {:>7.2} %",
        "sum of rows",
        sum as f64 / 1e9,
        100.0 * sum as f64 / pass_ns
    );
    let _ = writeln!(
        text,
        "  untraced median {:.6} s, obs.overhead_share {:+.4}",
        untraced_s,
        pass_ns / 1e9 / untraced_s - 1.0
    );
    text
}

fn write_artifacts(
    req: &Request,
    trace: &SpanTrace,
    traced_ns: u64,
    untraced_s: f64,
) -> std::io::Result<()> {
    let dir = Path::new(&req.out_dir);
    std::fs::create_dir_all(dir)?;
    let name = req.workload.name;
    std::fs::write(dir.join(format!("{name}.trace.jsonl")), trace.to_jsonl())?;
    std::fs::write(
        dir.join(format!("{name}.ledger.txt")),
        ledger_text(name, trace, traced_ns, untraced_s),
    )
}
