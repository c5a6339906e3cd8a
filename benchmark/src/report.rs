//! Reports over whole benchmark runs: the results file, the name / unit
//! / value table, the dominance self-check, and the comparison of two
//! sets of results under the benchmark's own bounds.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use tilgc_obs::json;

use crate::metrics::{self, Better, MetricDef, END_TO_END, PER_LAYER};
use crate::run::Outcome;
use crate::workload::{Workload, WORKLOADS};

/// `BENCHMARK.json`, generated from the registries so the two cannot
/// drift apart (a test compares the checked-in file with this).
pub fn benchmark_json(run_seconds: u64) -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(s, "  \"run_seconds\": {run_seconds},");
    s.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let sep = if i + 1 == WORKLOADS.len() { "" } else { "," };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{sep}",
            w.name, w.why
        );
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 == END_TO_END.len() { "" } else { "," };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{sep}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound.expect("end-to-end metrics have bounds")
        );
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 == PER_LAYER.len() { "" } else { "," };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{sep}",
            m.name,
            m.unit,
            m.better.as_str()
        );
    }
    s.push_str("  ]\n}\n");
    s
}

/// The smallest and largest of `values` (0, 0 when empty).
fn min_max(values: &[f64]) -> (f64, f64) {
    if values.is_empty() {
        return (0.0, 0.0);
    }
    values
        .iter()
        .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)))
}

/// Both runs of one workload.
#[derive(Clone, Debug, Default)]
pub struct WorkloadResults {
    /// The `--trace 0` run.
    pub end_to_end: Outcome,
    /// The `--trace 1` run.
    pub per_layer: Outcome,
}

/// The results file of one whole benchmark run.
pub fn results_json(
    seed: u64,
    seconds: f64,
    results: &[(&'static Workload, WorkloadResults)],
) -> String {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut s = format!(
        "{{\n  \"schema\": 1,\n  \"seed\": {seed},\n  \"seconds\": {seconds},\n  \
         \"host_cores\": {cores},\n  \"workloads\": {{\n"
    );
    for (i, (w, r)) in results.iter().enumerate() {
        let e = &r.end_to_end;
        let wall = &e.wall_samples;
        let (min, max) = min_max(wall);
        let _ = writeln!(s, "    \"{}\": {{", w.name);
        let _ = writeln!(
            s,
            "      \"attempted\": {}, \"failed\": {},",
            e.attempted + r.per_layer.attempted,
            e.failed + r.per_layer.failed
        );
        let _ = writeln!(
            s,
            "      \"wall_n\": {}, \"wall_min_s\": {}, \"wall_max_s\": {}, \"wall_mad_s\": {},",
            wall.len(),
            min,
            max,
            metrics::mad(wall)
        );
        for (key, defs, values) in [
            ("end_to_end", &END_TO_END[..], &e.metrics),
            ("per_layer", &PER_LAYER[..], &r.per_layer.metrics),
        ] {
            let _ = write!(s, "      \"{key}\": {{");
            let cells: Vec<String> = defs
                .iter()
                .filter_map(|d| values.get(d.name).map(|v| format!("\"{}\": {v}", d.name)))
                .collect();
            s.push_str(&cells.join(", "));
            s.push_str(if key == "end_to_end" { "},\n" } else { "}\n" });
        }
        s.push_str(if i + 1 == results.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    s.push_str("  }\n}\n");
    s
}

/// The name / unit / value table of one workload's results.
pub fn table(workload: &Workload, r: &WorkloadResults) -> String {
    let e = &r.end_to_end;
    let mut s = format!(
        "== {} == attempted {} failed {}\n",
        workload.name,
        e.attempted + r.per_layer.attempted,
        e.failed + r.per_layer.failed
    );
    if !e.wall_samples.is_empty() {
        let wall = &e.wall_samples;
        let (min, max) = min_max(wall);
        let _ = writeln!(
            s,
            "  wall_s over n={} passes: min {:.6} max {:.6} MAD {:.6}",
            wall.len(),
            min,
            max,
            metrics::mad(wall)
        );
    }
    for (defs, values) in [
        (&END_TO_END[..], &e.metrics),
        (&PER_LAYER[..], &r.per_layer.metrics),
    ] {
        for d in defs {
            let Some(v) = values.get(d.name) else {
                continue;
            };
            // End to end: the bound. Per layer: where the number comes
            // from and the end-to-end metric it should move.
            let note = match d.bound {
                Some(bound) => format!(
                    "{} is better, bound {:.0} %",
                    d.better.as_str(),
                    bound * 100.0
                ),
                None => format!("{} -> {}", d.source, d.moves),
            };
            let _ = writeln!(s, "  {:<46} {:>16.6} {:<9} {note}", d.name, v, d.unit);
        }
    }
    for f in e.failures.iter().chain(&r.per_layer.failures) {
        let _ = writeln!(s, "  FAILED: {f}");
    }
    s
}

/// Checks the traced run against the workload's dominance lines and the
/// ledger's 3 % unattributed cap; returns what was missed.
pub fn check_dominance(workload: &Workload, per_layer: &metrics::Values) -> Vec<String> {
    let value = |name: &str| per_layer.get(name).copied().unwrap_or(0.0);
    let mut missed = Vec::new();
    for d in workload.dominance {
        let v = value(d.metric);
        let ok = if d.at_least {
            v >= d.value
        } else {
            v <= d.value
        };
        if !ok {
            missed.push(format!(
                "{}: {} = {:.4}, must be {} {}",
                workload.name,
                d.metric,
                v,
                if d.at_least { "at least" } else { "at most" },
                d.value
            ));
        }
    }
    if value("ledger.unattributed_share") > 0.03 {
        missed.push(format!(
            "{}: ledger.unattributed_share = {:.4}, must be at most 0.03",
            workload.name,
            value("ledger.unattributed_share")
        ));
    }
    if value("obs.dropped") != 0.0 {
        missed.push(format!("{}: the recorder dropped events", workload.name));
    }
    missed
}

/// The cells of one results file: `(workload, metric) → value`, plus
/// each workload's `attempted` and `failed`.
#[derive(Clone, Debug, Default)]
pub struct ResultsFile {
    /// Metric cells.
    pub cells: BTreeMap<(String, String), f64>,
    /// `(attempted, failed)` per workload.
    pub ops: BTreeMap<String, (u64, u64)>,
}

/// Reads a results file written by [`results_json`].
pub fn load_results(path: &str) -> Result<ResultsFile, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let root = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let workloads = root
        .get("workloads")
        .and_then(|w| w.as_object())
        .ok_or_else(|| format!("{path}: no workloads object"))?;
    let mut file = ResultsFile::default();
    for (name, w) in workloads {
        let count = |key: &str| w.get(key).and_then(|v| v.as_u64()).unwrap_or(0);
        file.ops
            .insert(name.clone(), (count("attempted"), count("failed")));
        for group in ["end_to_end", "per_layer"] {
            for (metric, v) in w.get(group).and_then(|g| g.as_object()).unwrap_or(&[]) {
                if let Some(v) = v.as_f64() {
                    file.cells.insert((name.clone(), metric.clone()), v);
                }
            }
        }
    }
    Ok(file)
}

/// How a candidate's cell compares with the base's.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    /// Better than the base by more than the bound.
    Better,
    /// Within the bound either way.
    Same,
    /// Worse than the base by more than the bound.
    Worse,
    /// The base's own quartile spread exceeds the bound, and the
    /// candidate's runs do not all read better than the base's.
    Unresolved,
}

impl Verdict {
    /// Lower-case label.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One `(metric, workload)` row of a comparison.
#[derive(Clone, Debug)]
pub struct CompareRow {
    /// The workload.
    pub workload: &'static str,
    /// The metric.
    pub metric: &'static str,
    /// The base side's median.
    pub base: f64,
    /// The candidate side's median.
    pub candidate: f64,
    /// The bound applied.
    pub bound: f64,
    /// The verdict.
    pub verdict: Verdict,
    /// Pairs the candidate won / lost, given at least ten files a side.
    pub pairs: Option<(usize, usize)>,
}

/// How much worse `candidate` is than `base`, as a share of `base`
/// (negative when better), in the metric's direction.
fn worsening(def: &MetricDef, base: f64, candidate: f64) -> f64 {
    if base == 0.0 {
        return if candidate == base {
            0.0
        } else {
            f64::INFINITY
        };
    }
    match def.better {
        Better::Lower => (candidate - base) / base.abs(),
        Better::Higher => (base - candidate) / base.abs(),
    }
}

/// Compares two sets of results cell by cell under the end-to-end
/// bounds. One file a side compares values; more compare medians, call a
/// cell unresolved when the base's own quartile spread exceeds the
/// bound, and — with at least ten files a side — apply the pairs-won
/// rule to every claim of `better`.
pub fn compare(base: &[ResultsFile], candidate: &[ResultsFile]) -> Vec<CompareRow> {
    let mut rows = Vec::new();
    for w in &WORKLOADS {
        for def in &END_TO_END {
            let key = (w.name.to_string(), def.name.to_string());
            let side = |files: &[ResultsFile]| -> Vec<f64> {
                files
                    .iter()
                    .filter_map(|f| f.cells.get(&key).copied())
                    .collect()
            };
            let (b, c) = (side(base), side(candidate));
            if b.is_empty() || c.is_empty() {
                continue;
            }
            let (bm, cm) = (metrics::median(&b), metrics::median(&c));
            let bound = def.bound.expect("end-to-end metrics have bounds");
            let worse_by = worsening(def, bm, cm);
            let (q1, q3) = metrics::quartiles(&b);
            let spread = if bm == 0.0 { 0.0 } else { (q3 - q1) / bm.abs() };
            let all_better = b
                .iter()
                .all(|&x| c.iter().all(|&y| worsening(def, x, y) < 0.0));
            let pairs = (b.len() >= 10 && c.len() >= 10).then(|| {
                b.iter().zip(&c).fold((0, 0), |(won, lost), (&x, &y)| {
                    let d = worsening(def, x, y);
                    (won + usize::from(d < 0.0), lost + usize::from(d > 0.0))
                })
            });
            let mut verdict = if worse_by > bound {
                Verdict::Worse
            } else if worse_by < -bound {
                Verdict::Better
            } else {
                Verdict::Same
            };
            if b.len() > 1 && spread > bound && !all_better {
                verdict = Verdict::Unresolved;
            }
            if verdict == Verdict::Better {
                if let Some((won, lost)) = pairs {
                    // A gain needs nine tenths of all pairs run, ties
                    // counting for neither, and medians further apart
                    // than the base's own spread.
                    let total = b.len().min(c.len());
                    if won * 10 < total * 9 || lost * 10 > total || -worse_by <= spread {
                        verdict = Verdict::Same;
                    }
                }
            }
            rows.push(CompareRow {
                workload: w.name,
                metric: def.name,
                base: bm,
                candidate: cm,
                bound,
                verdict,
                pairs,
            });
        }
    }
    rows
}

/// The comparison as a table, one row per (metric, workload).
pub fn compare_text(rows: &[CompareRow]) -> String {
    let mut s = format!(
        "{:<24} {:<14} {:>14} {:>14} {:>9} {:>7}  {}\n",
        "metric", "workload", "base", "candidate", "ratio", "bound", "verdict"
    );
    for r in rows {
        let ratio = if r.base == 0.0 {
            f64::NAN
        } else {
            r.candidate / r.base
        };
        let pairs = r.pairs.map_or(String::new(), |(w, l)| {
            format!(" (pairs won {w}, lost {l})")
        });
        let _ = writeln!(
            s,
            "{:<24} {:<14} {:>14.6} {:>14.6} {:>9.4} {:>6.0}%  {}{}",
            r.metric,
            r.workload,
            r.base,
            r.candidate,
            ratio,
            r.bound * 100.0,
            r.verdict.as_str(),
            pairs
        );
    }
    s
}

/// Whether two sets of results of the same code agree: no cell worse
/// than the other set's by more than its bound, either way, and no
/// failed run. (`attempted` follows the number of passes that fit in the
/// run's seconds, so it is not compared.)
pub fn aa_agrees(a: &ResultsFile, b: &ResultsFile) -> Vec<String> {
    let mut disagreements = Vec::new();
    for (first, second, label) in [(a, b, "second vs first"), (b, a, "first vs second")] {
        for r in compare(std::slice::from_ref(first), std::slice::from_ref(second)) {
            if r.verdict == Verdict::Worse {
                disagreements.push(format!(
                    "{label}: {}@{} {} -> {} exceeds the {:.0} % bound",
                    r.metric,
                    r.workload,
                    r.base,
                    r.candidate,
                    r.bound * 100.0
                ));
            }
        }
    }
    for (name, &(_, failed)) in &a.ops {
        let other = b.ops.get(name).copied().unwrap_or((0, 0));
        if failed != 0 || other.1 != 0 {
            disagreements.push(format!("{name}: failed runs ({failed} and {})", other.1));
        }
    }
    disagreements
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(cells: &[(&str, &str, f64)]) -> ResultsFile {
        let mut f = ResultsFile::default();
        for &(w, m, v) in cells {
            f.cells.insert((w.to_string(), m.to_string()), v);
            f.ops.insert(w.to_string(), (10, 0));
        }
        f
    }

    fn verdict(rows: &[CompareRow], workload: &str, metric: &str) -> Verdict {
        rows.iter()
            .find(|r| r.workload == workload && r.metric == metric)
            .expect("row present")
            .verdict
    }

    #[test]
    fn single_files_compare_under_the_bounds_in_the_metrics_direction() {
        let base = file(&[
            ("table5", "wall_s", 1.0),
            ("table5", "sim_mmu_permille", 500.0),
            ("churn-gen", "wall_s", 1.0),
            ("churn-gen", "sim_gc_mcycles", 100.0),
        ]);
        let cand = file(&[
            ("table5", "wall_s", 1.09),
            ("table5", "sim_mmu_permille", 300.0),
            ("churn-gen", "wall_s", 0.5),
            ("churn-gen", "sim_gc_mcycles", 110.0),
        ]);
        let rows = compare(std::slice::from_ref(&base), std::slice::from_ref(&cand));
        assert_eq!(verdict(&rows, "table5", "wall_s"), Verdict::Same);
        // Higher is better for MMU: 500 -> 300 is 40 % worse.
        assert_eq!(verdict(&rows, "table5", "sim_mmu_permille"), Verdict::Worse);
        assert_eq!(verdict(&rows, "churn-gen", "wall_s"), Verdict::Better);
        assert_eq!(
            verdict(&rows, "churn-gen", "sim_gc_mcycles"),
            Verdict::Worse
        );
        assert_eq!(rows.len(), 4, "cells missing on a side are skipped");
        assert!(!aa_agrees(&base, &cand).is_empty());
        assert!(aa_agrees(&base, &base).is_empty());
        assert!(compare_text(&rows).contains("churn-gen"));
    }

    #[test]
    fn a_noisy_base_is_unresolved_and_gains_need_the_pairs() {
        let side = |values: &[f64]| -> Vec<ResultsFile> {
            values
                .iter()
                .map(|&v| file(&[("table5", "wall_s", v)]))
                .collect()
        };
        // Base spread (quartiles 0.75..1.25 of median 1.0) exceeds any bound.
        let noisy = side(&[0.5, 0.6, 0.8, 1.0, 1.0, 1.0, 1.2, 1.4, 1.5, 1.0]);
        let rows = compare(&noisy, &side(&[1.0; 10]));
        assert_eq!(verdict(&rows, "table5", "wall_s"), Verdict::Unresolved);
        // ... unless every candidate run beats every base run.
        let rows = compare(&noisy, &side(&[0.4; 10]));
        assert_eq!(verdict(&rows, "table5", "wall_s"), Verdict::Better);
        assert_eq!(rows[0].pairs, Some((10, 0)));

        // A steady base; the candidate's median is 40 % better but it
        // wins only 8 of 10 pairs: not a gain.
        let steady = side(&[1.0; 10]);
        let mixed = side(&[0.6, 0.6, 0.6, 0.6, 0.6, 0.6, 0.6, 0.6, 1.1, 1.1]);
        let rows = compare(&steady, &mixed);
        assert_eq!(verdict(&rows, "table5", "wall_s"), Verdict::Same);
        assert_eq!(rows[0].pairs, Some((8, 2)));
    }

    #[test]
    fn dominance_lines_are_checked_both_ways() {
        let w = crate::workload::find("stack-markers").unwrap();
        let mut values = metrics::Values::new();
        values.insert("core.frame_reuse_ratio", 0.99);
        values.insert("ledger.gc_share", 0.10);
        assert!(check_dominance(w, &values).is_empty());
        values.insert("ledger.gc_share", 0.50);
        values.insert("core.frame_reuse_ratio", 0.50);
        values.insert("ledger.unattributed_share", 0.05);
        assert_eq!(check_dominance(w, &values).len(), 3);
    }
}
