//! `experiments bench-compare` — regression gate over two `bench-json`
//! baselines.
//!
//! Reads the kernel-throughput metrics out of a baseline and a candidate
//! JSON file (the nightly CI tier produces `BENCH_nightly.json` and
//! compares it against the checked-in `BENCH_pr10.json`) and fails if
//! any throughput dropped by more than the allowed percentage, if any
//! per-plan pause or time-to-safepoint percentile grew (or MMU floor
//! fell) past the same allowance, or if any `*_speedup_vs_reference` or
//! `*_speedup_vs_static` ratio in the candidate sits below 1.0 — a
//! batched kernel slower than its scalar reference, or an adaptive
//! policy slower than the stale static one it exists to beat, is drift
//! no matter what the baseline recorded.
//! Wall-clock workload times are reported but not gated — they are too
//! noisy on shared runners; the per-second kernel throughputs are
//! medians and stable enough to gate on, and the drift ratio and
//! pause/MMU lanes are deterministic simulated cycles outright.
//!
//! Files are read with the workspace's JSON reader
//! ([`tilgc_obs::json`]); a file that does not parse is an error, not a
//! shorter metric list.

use std::collections::HashMap;
use std::process::ExitCode;

use tilgc_obs::json::{self, Value};

/// The gated metrics: higher is better for all of them.
const GATED: [&str; 5] = [
    "evac_words_per_sec",
    "stack_scan_frames_per_sec",
    "ssb_filter_entries_per_sec",
    "barrier_filter_updates_per_sec",
    "bulk_clear_mb_per_sec",
];

/// Per-plan latency metrics gated by suffix (so a new collector plan
/// joins the gate the moment `bench-json` emits its lane): pause
/// percentiles in simulated gc cycles, where *lower* is better.
const GATED_PAUSE_SUFFIXES: [&str; 3] = [
    "_pause_p50_cycles",
    "_pause_p99_cycles",
    "_pause_p999_cycles",
];

/// Per-plan time-to-safepoint percentiles (simulated client cycles from
/// the mutator's last safepoint poll to the collection), also gated by
/// suffix and lower-is-better. Baselines recorded before TTSP tracking
/// existed simply contribute no such keys, so old baselines keep
/// gating what they always gated.
const GATED_TTSP_SUFFIXES: [&str; 2] = ["_ttsp_p50_cycles", "_ttsp_p99_cycles"];

/// Per-plan MMU floors (permille at the 10 ms-equivalent window), where
/// higher is better — also gated by suffix.
const GATED_MMU_SUFFIX: &str = "_mmu_10ms_equiv";

/// Every latency metric named by the baseline, paired with its
/// direction (`true` = lower is better). The *baseline* drives the list
/// so a candidate that silently stops emitting a lane fails rather than
/// slipping past the gate.
fn latency_metrics(baseline: &HashMap<String, f64>) -> Vec<(String, bool)> {
    let mut names: Vec<(String, bool)> = baseline
        .keys()
        .filter_map(|k| {
            if GATED_PAUSE_SUFFIXES
                .iter()
                .chain(GATED_TTSP_SUFFIXES.iter())
                .any(|s| k.ends_with(s))
            {
                Some((k.clone(), true))
            } else if k.ends_with(GATED_MMU_SUFFIX) {
                Some((k.clone(), false))
            } else {
                None
            }
        })
        .collect();
    names.sort();
    names
}

/// Collects every `"key": <number>` member under `value`. Nested
/// objects simply contribute their pairs — `bench-json`'s output has
/// unique keys throughout, which is all this needs.
fn flatten(value: &Value, out: &mut HashMap<String, f64>) {
    match value {
        Value::Object(members) => {
            for (key, member) in members {
                match member {
                    Value::Number(n) => {
                        out.insert(key.clone(), *n);
                    }
                    nested => flatten(nested, out),
                }
            }
        }
        Value::Array(items) => items.iter().for_each(|item| flatten(item, out)),
        _ => {}
    }
}

/// Parses `text` as JSON and returns its numeric members by key.
fn read_metrics(text: &str) -> Result<HashMap<String, f64>, String> {
    let mut map = HashMap::new();
    flatten(&json::parse(text)?, &mut map);
    Ok(map)
}

/// Any `*_speedup_vs_reference` metric below 1.0 means a batched kernel
/// has drifted slower than the scalar reference path it was supposed to
/// beat; any `*_speedup_vs_static` below 1.0 means the online adaptive
/// pretenurer lost to the stale static policy on the drifting workload.
/// Either is a defect in its own right, so the candidate is checked
/// absolutely — not relative to the baseline, which may share the drift.
fn speedup_drift(metrics: &HashMap<String, f64>) -> Vec<(String, f64)> {
    let mut drift: Vec<(String, f64)> = metrics
        .iter()
        .filter(|(k, v)| {
            (k.ends_with("_speedup_vs_reference") || k.ends_with("_speedup_vs_static")) && **v < 1.0
        })
        .map(|(k, v)| (k.clone(), *v))
        .collect();
    drift.sort_by(|a, b| a.0.cmp(&b.0));
    drift
}

fn load(path: &str) -> Result<HashMap<String, f64>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let map = read_metrics(&text).map_err(|e| format!("{path} is not valid JSON: {e}"))?;
    if map.is_empty() {
        return Err(format!("{path} contains no numeric metrics"));
    }
    Ok(map)
}

/// Compares `candidate` against `baseline`, failing (exit 1) if any
/// gated throughput is below `baseline * (1 - max_regress_pct / 100)`.
pub fn run(baseline_path: &str, candidate_path: &str, max_regress_pct: f64) -> ExitCode {
    let (baseline, candidate) = match (load(baseline_path), load(candidate_path)) {
        (Ok(b), Ok(c)) => (b, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("bench-compare: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "bench-compare: {candidate_path} vs {baseline_path} (allowed regression {max_regress_pct}%)"
    );
    let mut failed = false;
    for name in GATED {
        let (Some(&base), Some(&cand)) = (baseline.get(name), candidate.get(name)) else {
            eprintln!("bench-compare: metric {name} missing from one of the files");
            failed = true;
            continue;
        };
        let ratio = cand / base;
        let floor = 1.0 - max_regress_pct / 100.0;
        let verdict = if ratio < floor { "REGRESSED" } else { "ok" };
        println!(
            "  {name:>28}: {cand:>14.0} vs {base:>14.0}  ({:+6.1}%)  {verdict}",
            (ratio - 1.0) * 100.0
        );
        if ratio < floor {
            failed = true;
        }
    }
    // Latency lane: pause percentiles regress *upward*, MMU regresses
    // *downward*. Both are deterministic simulated-cycle numbers, so the
    // allowance mostly absorbs intentional collector changes that land
    // with a refreshed baseline anyway.
    for (name, lower_is_better) in latency_metrics(&baseline) {
        let (Some(&base), Some(&cand)) = (baseline.get(&name), candidate.get(&name)) else {
            eprintln!("bench-compare: metric {name} missing from one of the files");
            failed = true;
            continue;
        };
        let allow = max_regress_pct / 100.0;
        let regressed = if lower_is_better {
            cand > base * (1.0 + allow)
        } else {
            cand < base * (1.0 - allow)
        };
        let pct = if base > 0.0 {
            (cand / base - 1.0) * 100.0
        } else {
            0.0
        };
        let verdict = if regressed { "REGRESSED" } else { "ok" };
        println!("  {name:>28}: {cand:>14.0} vs {base:>14.0}  ({pct:+6.1}%)  {verdict}");
        if regressed {
            failed = true;
        }
    }
    for (name, value) in speedup_drift(&candidate) {
        let what = if name.ends_with("_speedup_vs_static") {
            "adaptive policy slower than the static one"
        } else {
            "batched kernel slower than its reference"
        };
        eprintln!("  {name:>28}: {value:>14.3}  DRIFT ({what})");
        failed = true;
    }
    // Context only — wall-clock workload time is not gated.
    if let (Some(&b), Some(&c)) = (
        baseline.get("table5_workload_ms"),
        candidate.get("table5_workload_ms"),
    ) {
        println!(
            "  {:>28}: {c:>14.1} vs {b:>14.1}  (not gated)",
            "table5_workload_ms"
        );
    }
    if failed {
        // Report the paths actually compared, not the default constants
        // — `--baseline`/`--candidate` may have overridden them, and a
        // CI log that names the wrong file sends the reader to the
        // wrong artifact.
        eprintln!(
            "bench-compare: FAILED — {candidate_path} vs {baseline_path} \
             (allowed regression {max_regress_pct}%)"
        );
        ExitCode::FAILURE
    } else {
        println!("bench-compare: ok");
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_metrics(text: &str) -> HashMap<String, f64> {
        read_metrics(text).unwrap_or_default()
    }

    #[test]
    fn truncated_file_is_rejected() {
        let whole = r#"{"suite": "x", "metrics": {"a_per_sec": 1500, "b": 2.5}}"#;
        assert_eq!(read_metrics(whole).unwrap().len(), 2);
        for cut in [
            whole.len() - 1,
            whole.len() - 2,
            whole.find("\"b\"").unwrap(),
        ] {
            assert!(
                read_metrics(&whole[..cut]).is_err(),
                "accepted {:?}",
                &whole[..cut]
            );
        }
    }

    #[test]
    fn scanner_reads_nested_numeric_pairs() {
        let m =
            parse_metrics(r#"{"suite": "x", "metrics": {"a_per_sec": 1500, "b": 2.5, "c": -1e3}}"#);
        assert_eq!(m.get("a_per_sec"), Some(&1500.0));
        assert_eq!(m.get("b"), Some(&2.5));
        assert_eq!(m.get("c"), Some(&-1000.0));
        assert!(!m.contains_key("suite"), "string values are skipped");
    }

    #[test]
    fn speedup_ratios_below_one_are_drift() {
        let m = parse_metrics(
            r#"{"evac_speedup_vs_reference": 1.2, "ssb_filter_speedup_vs_reference": 0.980,
                "stack_scan_speedup_vs_reference": 1.0, "table5_parallel_speedup": 0.5}"#,
        );
        let drift = speedup_drift(&m);
        assert_eq!(drift.len(), 1, "only the sub-1.0 reference ratio drifts");
        assert_eq!(drift[0].0, "ssb_filter_speedup_vs_reference");
        assert!((drift[0].1 - 0.980).abs() < 1e-9);
    }

    #[test]
    fn adaptive_vs_static_below_one_is_drift() {
        let ok = parse_metrics(r#"{"drift_adaptive_speedup_vs_static": 1.042}"#);
        assert!(speedup_drift(&ok).is_empty());
        let bad = parse_metrics(r#"{"drift_adaptive_speedup_vs_static": 0.91}"#);
        let drift = speedup_drift(&bad);
        assert_eq!(drift.len(), 1);
        assert_eq!(drift[0].0, "drift_adaptive_speedup_vs_static");
    }

    #[test]
    fn latency_metrics_come_from_the_baseline_with_directions() {
        let base = parse_metrics(
            r#"{"semispace_pause_p50_cycles": 100, "gen_markers_pause_p999_cycles": 900,
                "semispace_mmu_10ms_equiv": 940, "gen_markers_ttsp_p99_cycles": 700,
                "evac_words_per_sec": 1e9, "table5_workload_ms": 120}"#,
        );
        let lanes = latency_metrics(&base);
        assert_eq!(
            lanes,
            vec![
                ("gen_markers_pause_p999_cycles".to_string(), true),
                ("gen_markers_ttsp_p99_cycles".to_string(), true),
                ("semispace_mmu_10ms_equiv".to_string(), false),
                ("semispace_pause_p50_cycles".to_string(), true),
            ],
            "sorted; pause and TTSP lower-is-better, MMU higher-is-better, others excluded"
        );
    }

    #[test]
    fn scanner_survives_malformed_tails() {
        assert!(parse_metrics("\"dangling").is_empty());
        assert!(parse_metrics("no quotes at all").is_empty());
    }
}
