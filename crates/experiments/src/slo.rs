//! `experiments slo-report` — evaluates pause-time/MMU service-level
//! objectives over a telemetry event stream.
//!
//! Two sources: `--input FILE.jsonl` replays a stream previously written
//! by `gc-log` (or any producer of the documented schema), while the
//! default live mode runs one benchmark under one collector with the
//! recorder attached — the same rig as `gc-log` — and evaluates the
//! stream it just captured. Either way the report is computed entirely
//! in the deterministic cycle domain: the percentile table comes from
//! the streaming [`PauseHistogram`](tilgc_obs::metrics::PauseHistogram),
//! the MMU curve from the exact sliding-window minimum, and the verdict
//! from an [`SloSpec`] assembled out of `--max-p*`/`--min-mmu` bounds.
//! Any violated bound makes the process exit nonzero, which is what lets
//! CI gate on it.
//!
//! Time-to-safepoint is surfaced alongside the pauses whenever the
//! stream carries it: every recorded collection observes it, and
//! replayed files contribute their `ttsp_cycles` fields. The section is
//! omitted when every observation is zero (a pre-TTSP trace).
//!
//! One caveat for replayed streams: the timeline horizon is the last
//! recorded event, so mutator time after the final collection is not
//! visible and whole-run MMU reads slightly low. Live mode extends the
//! horizon to the run's full `client + gc` cycle total.

use std::fmt::Write as _;
use std::process::ExitCode;

use tilgc_core::CollectorKind;
use tilgc_obs::json;
use tilgc_obs::metrics::{fmt_permille, PauseMetrics, SloSpec, TtspMetrics};
use tilgc_obs::{jsonl, schema, Event};
use tilgc_programs::Benchmark;
use tilgc_runtime::CostModel;

use crate::harness::run_recorded;

/// Width of the MMU bar, in character cells (one cell per 40‰).
const MMU_BAR_WIDTH: usize = 25;

/// The default MMU windows of the report, in milliseconds of the
/// stream's clock (the paper's latency story is told at these scales).
const MMU_WINDOWS_MS: [u64; 7] = [1, 2, 5, 10, 20, 50, 100];

/// Everything `slo-report` needs, assembled by `main`'s flag parser.
pub struct SloRequest {
    /// Replay this JSONL file instead of running a benchmark.
    pub input: Option<String>,
    /// Live mode: benchmark name (matched case-insensitively).
    pub bench: String,
    /// Live mode: collector plan label.
    pub plan: String,
    /// Live mode: enable the online pretenuring estimator.
    pub adaptive: bool,
    /// Schema-validate the stream before evaluating it.
    pub validate: bool,
    /// Also write the report text to this file (CI artifact).
    pub report: Option<String>,
    /// The bounds to enforce; empty means report-only (always exit 0).
    pub spec: SloSpec,
}

/// One space row of the most recent heap census, for the report footer.
struct CensusRow {
    space: String,
    used_words: u64,
    reserved_words: u64,
    chunks: u64,
}

/// The last heap census seen in the stream.
#[derive(Default)]
struct LastCensus {
    collection: u64,
    pretenured_sites: u64,
    rows: Vec<CensusRow>,
}

/// Everything extracted from a stream, whatever its source.
struct StreamSummary {
    source: String,
    plan: String,
    bench: String,
    clock_hz: u64,
    metrics: PauseMetrics,
    /// Time-to-safepoint observations, one per collection. All-zero
    /// when the stream was recorded without TTSP tracking (the JSONL
    /// sink omits the field for zero), so the report section is gated
    /// on a nonzero maximum.
    ttsp: TtspMetrics,
    census: Option<LastCensus>,
    event_count: usize,
    dropped: u64,
}

pub fn run(req: &SloRequest) -> ExitCode {
    let summary = match &req.input {
        Some(path) => match summarize_jsonl_file(path, req.validate) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("slo-report: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => match summarize_live_run(req) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("slo-report: {e}");
                return ExitCode::FAILURE;
            }
        },
    };
    let (text, violations) = render_report(&summary, &req.spec);
    print!("{text}");
    if let Some(path) = &req.report {
        if let Err(e) = std::fs::write(path, &text) {
            eprintln!("slo-report: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path}");
    }
    if violations == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Replays a JSONL file into a [`StreamSummary`] without reconstructing
/// `Event` values: each line is parsed and only the fields the metrics
/// need are read.
fn summarize_jsonl_file(path: &str, validate: bool) -> Result<StreamSummary, String> {
    let doc = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    if validate {
        let n = schema::validate_jsonl(&doc).map_err(|e| format!("{path}: schema: {e}"))?;
        println!("validate: {n} JSONL lines conform to the schema");
    }
    let mut metrics = PauseMetrics::new();
    let mut ttsp = TtspMetrics::new();
    let mut plan = String::from("?");
    let mut bench = String::from("?");
    let mut clock_hz = CostModel::default().clock_hz;
    let mut census: Option<LastCensus> = None;
    let mut open: Option<u64> = None;
    let mut event_count = 0usize;
    for (i, line) in doc.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        let v = json::parse(line).map_err(|e| format!("{path}:{}: {e}", i + 1))?;
        let kind = v
            .get("type")
            .and_then(|t| t.as_str())
            .ok_or_else(|| format!("{path}:{}: line without a type", i + 1))?;
        let num = |key: &str| -> Result<u64, String> {
            v.get(key)
                .and_then(|n| n.as_u64())
                .ok_or_else(|| format!("{path}:{}: {kind} missing {key}", i + 1))
        };
        match kind {
            "meta" => {
                clock_hz = num("clock_hz")?;
                if let Some(p) = v.get("plan").and_then(|p| p.as_str()) {
                    plan = p.to_string();
                }
                if let Some(b) = v.get("bench").and_then(|b| b.as_str()) {
                    bench = b.to_string();
                }
                continue; // not an event
            }
            "collection-begin" => {
                open = Some(num("start_cycles")?);
                // Optional: the sink omits it when zero (and always,
                // before TTSP tracking existed).
                ttsp.push(v.get("ttsp_cycles").and_then(|n| n.as_u64()).unwrap_or(0));
            }
            "collection-end" => {
                let gc_cycles = num("gc_cycles")?;
                let end_cycles = num("end_cycles")?;
                let start = open
                    .take()
                    .unwrap_or_else(|| end_cycles.saturating_sub(gc_cycles));
                metrics.push_pause(start, end_cycles, gc_cycles);
            }
            "heap-census" => {
                let mut last = LastCensus {
                    collection: num("collection")?,
                    pretenured_sites: num("pretenured_sites")?,
                    rows: Vec::new(),
                };
                let spaces = v
                    .get("spaces")
                    .and_then(|s| s.as_array())
                    .ok_or_else(|| format!("{path}:{}: census without spaces", i + 1))?;
                for s in spaces {
                    let field = |key: &str| s.get(key).and_then(|n| n.as_u64()).unwrap_or(0);
                    last.rows.push(CensusRow {
                        space: s
                            .get("space")
                            .and_then(|n| n.as_str())
                            .unwrap_or("?")
                            .to_string(),
                        used_words: field("used_words"),
                        reserved_words: field("reserved_words"),
                        chunks: field("chunks"),
                    });
                }
                census = Some(last);
            }
            _ => {}
        }
        event_count += 1;
    }
    Ok(StreamSummary {
        source: path.to_string(),
        plan,
        bench,
        clock_hz,
        metrics,
        ttsp,
        census,
        event_count,
        // A file has no ring; whatever was dropped at record time is
        // simply absent from it.
        dropped: 0,
    })
}

/// Runs one benchmark with the recorder attached — the `gc-log` rig —
/// and summarizes the captured stream.
fn summarize_live_run(req: &SloRequest) -> Result<StreamSummary, String> {
    let bench = Benchmark::ALL
        .iter()
        .copied()
        .find(|b| b.name().eq_ignore_ascii_case(&req.bench))
        .ok_or_else(|| {
            format!(
                "unknown benchmark {:?}; expected one of: {}",
                req.bench,
                Benchmark::ALL.map(|b| b.name()).join(", ")
            )
        })?;
    let kind = CollectorKind::ALL
        .iter()
        .copied()
        .find(|k| k.label().eq_ignore_ascii_case(&req.plan))
        .ok_or_else(|| {
            format!(
                "unknown plan {:?}; expected one of: {}",
                req.plan,
                CollectorKind::ALL.map(|k| k.label()).join(", ")
            )
        })?;

    let run = run_recorded(bench, kind, req.adaptive);
    let events = &run.events;
    let clock_hz = CostModel::default().clock_hz;

    if req.validate {
        let doc = jsonl::render(kind.label(), bench.name(), clock_hz, &run.sites, events);
        let n = schema::validate_jsonl(&doc).map_err(|e| format!("schema: {e}"))?;
        println!("validate: {n} JSONL lines conform to the schema");
    }

    let mut metrics = PauseMetrics::from_events(events);
    metrics.set_horizon(run.client_cycles + run.gc.gc_cycles());
    let ttsp = TtspMetrics::from_events(events);
    let census = events.iter().rev().find_map(|e| match e {
        Event::HeapCensus(c) => Some(LastCensus {
            collection: c.collection,
            pretenured_sites: c.pretenured_sites,
            rows: c
                .spaces
                .iter()
                .map(|s| CensusRow {
                    space: s.space.to_string(),
                    used_words: s.used_words,
                    reserved_words: s.reserved_words,
                    chunks: s.chunks,
                })
                .collect(),
        }),
        _ => None,
    });
    Ok(StreamSummary {
        source: format!(
            "{} on {} (live, budget {} bytes)",
            bench.name(),
            kind.label(),
            run.budget
        ),
        plan: kind.label().to_string(),
        bench: bench.name().to_string(),
        clock_hz,
        metrics,
        ttsp,
        census,
        event_count: events.len(),
        dropped: run.dropped,
    })
}

/// Renders the full report and returns it with the violation count.
fn render_report(summary: &StreamSummary, spec: &SloSpec) -> (String, usize) {
    let mut out = String::new();
    let model = CostModel {
        clock_hz: summary.clock_hz,
        ..CostModel::default()
    };
    let h = summary.metrics.histogram();
    let _ = writeln!(out, "slo-report: {}", summary.source);
    let _ = writeln!(
        out,
        "plan {}, bench {}, clock {} Hz, horizon {} cycles",
        summary.plan,
        summary.bench,
        summary.clock_hz,
        summary.metrics.horizon()
    );
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "pause percentiles ({} collections, {} gc cycles total):",
        h.count(),
        h.sum()
    );
    let _ = writeln!(out, "  {:>6} {:>14} {:>12}", "pctl", "cycles", "ms");
    for (name, value) in [
        ("p50", h.percentile(500)),
        ("p90", h.percentile(900)),
        ("p99", h.percentile(990)),
        ("p99.9", h.percentile(999)),
        ("max", h.max()),
    ] {
        let _ = writeln!(
            out,
            "  {name:>6} {value:>14} {:>12.3}",
            model.secs(value) * 1000.0
        );
    }

    // Time-to-safepoint: only rendered when the stream actually carries
    // nonzero observations (a pre-TTSP trace reads as all zeros and
    // keeps the report byte-identical to what it printed before the
    // section existed).
    let t = summary.ttsp.histogram();
    if t.max() > 0 {
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "time-to-safepoint ({} collections, client cycles since last poll):",
            t.count()
        );
        let _ = writeln!(out, "  {:>6} {:>14} {:>12}", "pctl", "cycles", "ms");
        for (name, value) in [
            ("p50", t.percentile(500)),
            ("p90", t.percentile(900)),
            ("p99", t.percentile(990)),
            ("max", t.max()),
        ] {
            let _ = writeln!(
                out,
                "  {name:>6} {value:>14} {:>12.3}",
                model.secs(value) * 1000.0
            );
        }
    }

    // The curve rows: the standard millisecond ladder plus every window
    // an SLO bound names, deduplicated and sorted.
    let mut windows: Vec<u64> = MMU_WINDOWS_MS
        .iter()
        .map(|&ms| model.cycles_per_ms(ms))
        .chain(spec.min_mmu.iter().map(|&(w, _)| w))
        .filter(|&w| w > 0)
        .collect();
    windows.sort_unstable();
    windows.dedup();
    let _ = writeln!(out);
    let _ = writeln!(out, "MMU curve (min mutator utilization):");
    let _ = writeln!(out, "  {:>14} {:>8}", "window(cycles)", "permille");
    for (window, mmu) in summary.metrics.mmu_curve(&windows) {
        let bar = "#".repeat((mmu as usize * MMU_BAR_WIDTH) / 1000);
        let _ = writeln!(out, "  {window:>14} {mmu:>8}  {bar}");
    }

    if let Some(census) = &summary.census {
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "heap census (after collection {}, {} pretenured site(s)):",
            census.collection, census.pretenured_sites
        );
        let _ = writeln!(
            out,
            "  {:<10} {:>12} {:>15} {:>7}",
            "space", "used_words", "reserved_words", "chunks"
        );
        for row in &census.rows {
            let _ = writeln!(
                out,
                "  {:<10} {:>12} {:>15} {:>7}",
                row.space, row.used_words, row.reserved_words, row.chunks
            );
        }
    }
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "recorder: {} events, {} dropped",
        summary.event_count, summary.dropped
    );

    let _ = writeln!(out);
    if spec.is_empty() {
        let _ = writeln!(out, "slo: no bounds configured (report only)");
        return (out, 0);
    }
    let violations = spec.evaluate(&summary.metrics);
    for &(permille, bound) in &spec.max_pause {
        let actual = h.percentile(permille);
        let verdict = if actual > bound { "VIOLATED" } else { "ok" };
        let _ = writeln!(
            out,
            "slo: pause p{} <= {bound} cycles: actual {actual}  {verdict}",
            fmt_permille(permille)
        );
    }
    for &(window, floor) in &spec.min_mmu {
        let actual = summary.metrics.mmu(window);
        let verdict = if actual < floor { "VIOLATED" } else { "ok" };
        let _ = writeln!(
            out,
            "slo: MMU@{window} >= {floor}‰: actual {actual}‰  {verdict}"
        );
    }
    let _ = if violations.is_empty() {
        writeln!(out, "slo-report: ok")
    } else {
        writeln!(
            out,
            "slo-report: FAILED ({} violation(s))",
            violations.len()
        )
    };
    (out, violations.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tilgc_obs::metrics::PauseHistogram;

    /// The deterministic latency lanes: per plan, over Color,
    /// Knuth-Bendix, Nqueen and PIA at k = 4.0 with TTSP tracking on —
    /// merged pause p50 / p99 / p99.9 (gc cycles), the worst
    /// per-benchmark MMU at a 10 ms window (permille), and merged
    /// time-to-safepoint p50 / p99 (client cycles). Simulated cycles
    /// only, so any movement is a collector, cost-model or read-point
    /// change and must come with a re-cut table.
    #[test]
    fn latency_lanes_are_pinned_exactly() {
        const PINNED: [[u64; 6]; 4] = [
            [45055, 720378, 720378, 424, 71, 1190],
            [21503, 155647, 491519, 270, 47, 895],
            [18431, 139263, 491519, 274, 47, 895],
            [14335, 131071, 475135, 552, 63, 895],
        ];
        let window = CostModel::default().cycles_per_ms(10);
        for (kind, pinned) in CollectorKind::ALL.into_iter().zip(PINNED) {
            let mut pauses = PauseHistogram::new();
            let mut ttsp = TtspMetrics::new();
            let mut mmu = 1000;
            for bench in [
                Benchmark::Color,
                Benchmark::KnuthBendix,
                Benchmark::Nqueen,
                Benchmark::Pia,
            ] {
                let run = run_recorded(bench, kind, false);
                assert_eq!(run.dropped, 0);
                let mut metrics = PauseMetrics::from_events(&run.events);
                metrics.set_horizon(run.client_cycles + run.gc.gc_cycles());
                pauses.merge(metrics.histogram());
                ttsp.merge(TtspMetrics::from_events(&run.events).histogram());
                mmu = mmu.min(metrics.mmu(window));
            }
            let lanes = [
                pauses.percentile(500),
                pauses.percentile(990),
                pauses.percentile(999),
                mmu,
                ttsp.histogram().percentile(500),
                ttsp.histogram().percentile(990),
            ];
            assert_eq!(lanes, pinned, "{}", kind.label());
        }
    }

    /// A minimal schema-shaped stream: the fields the summarizer reads
    /// are the documented ones, so these literals track the real schema.
    fn sample_doc() -> String {
        [
            r#"{"type":"meta","plan":"gen+markers","bench":"Checksum","clock_hz":100000,"sites":[]}"#,
            r#"{"type":"collection-begin","collection":1,"plan":"gen+markers","reason":"alloc-failure","major":false,"depth":2,"start_cycles":1000}"#,
            r#"{"type":"collection-end","collection":1,"gc_cycles":500,"end_cycles":1500}"#,
            r#"{"type":"heap-census","collection":1,"pretenured_sites":3,"spaces":[{"space":"nursery","used_words":10,"reserved_words":64,"chunks":1}]}"#,
            r#"{"type":"collection-end","collection":2,"gc_cycles":200,"end_cycles":4000}"#,
        ]
        .join("\n")
    }

    fn summary_of(doc: &str) -> StreamSummary {
        let dir = std::env::temp_dir().join("tilgc-slo-test");
        std::fs::create_dir_all(&dir).unwrap();
        // One file per call: tests run on parallel threads, and two of
        // them replaying the same document must not share a path.
        static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let path = dir.join(format!("sample-{}-{n}.jsonl", std::process::id()));
        std::fs::write(&path, doc).unwrap();
        summarize_jsonl_file(path.to_str().unwrap(), false).unwrap()
    }

    #[test]
    fn jsonl_replay_reconstructs_pauses_and_census() {
        let s = summary_of(&sample_doc());
        assert_eq!(s.plan, "gen+markers");
        assert_eq!(s.clock_hz, 100_000);
        assert_eq!(s.metrics.pause_count(), 2);
        assert_eq!(s.metrics.histogram().sum(), 700);
        // The second end had no begin: its start is end - gc_cycles.
        assert_eq!(s.metrics.horizon(), 4000);
        let census = s.census.as_ref().expect("census captured");
        assert_eq!(census.pretenured_sites, 3);
        assert_eq!(census.rows[0].space, "nursery");
        assert_eq!(census.rows[0].reserved_words, 64);
        // 4 event lines; meta is not an event.
        assert_eq!(s.event_count, 4);
    }

    #[test]
    fn report_flags_violations_and_passes_generous_bounds() {
        let s = summary_of(&sample_doc());
        // Generous bounds: pass.
        let ok = SloSpec {
            max_pause: vec![(990, 1_000_000)],
            min_mmu: vec![(4000, 100)],
        };
        let (text, violations) = render_report(&s, &ok);
        assert_eq!(violations, 0, "{text}");
        assert!(text.contains("slo-report: ok"));
        assert!(text.contains("pause percentiles (2 collections, 700 gc cycles total)"));
        assert!(text.contains("heap census (after collection 1, 3 pretenured site(s))"));
        // Impossible bounds: fail, and the verdict lines say which.
        let bad = SloSpec {
            max_pause: vec![(500, 1)],
            min_mmu: vec![(500, 1000)],
        };
        let (text, violations) = render_report(&s, &bad);
        assert_eq!(violations, 2, "{text}");
        assert!(text.contains("slo: pause p50 <= 1 cycles"));
        assert!(text.contains("VIOLATED"));
        assert!(text.contains("slo-report: FAILED (2 violation(s))"));
    }

    #[test]
    fn empty_spec_is_report_only() {
        let s = summary_of(&sample_doc());
        let (text, violations) = render_report(&s, &SloSpec::default());
        assert_eq!(violations, 0);
        assert!(text.contains("no bounds configured"));
    }

    #[test]
    fn ttsp_section_appears_only_when_the_stream_carries_it() {
        // The sample doc predates TTSP tracking: no section.
        let s = summary_of(&sample_doc());
        let (text, _) = render_report(&s, &SloSpec::default());
        assert!(
            !text.contains("time-to-safepoint"),
            "all-zero TTSP must not change the report: {text}"
        );
        // A tracked stream carries `ttsp_cycles` on collection-begin.
        let doc = sample_doc().replace(
            r#""start_cycles":1000}"#,
            r#""start_cycles":1000,"ttsp_cycles":40}"#,
        );
        let s = summary_of(&doc);
        assert_eq!(s.ttsp.histogram().count(), 1);
        assert_eq!(s.ttsp.histogram().max(), 40);
        let (text, _) = render_report(&s, &SloSpec::default());
        assert!(
            text.contains("time-to-safepoint (1 collections"),
            "tracked TTSP must be surfaced: {text}"
        );
    }

    /// The CI contract end to end: replaying a stream through `--input`
    /// with a bound it violates must exit nonzero, and with generous
    /// bounds must exit zero. `ExitCode` has no `PartialEq`, so the
    /// comparison goes through its `Debug` form.
    #[test]
    fn replayed_violations_exit_nonzero() {
        let dir = std::env::temp_dir().join("tilgc-slo-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("replay-gate.jsonl");
        std::fs::write(&path, sample_doc()).unwrap();
        let request = |spec: SloSpec| SloRequest {
            input: Some(path.to_str().unwrap().to_string()),
            bench: String::new(),
            plan: String::new(),
            adaptive: false,
            validate: false,
            report: None,
            spec,
        };
        // 500/1500 cycles of GC inside the 1000..4000 window: MMU at
        // that window can never reach 1000‰, so this bound is violated.
        let violated = run(&request(SloSpec {
            max_pause: vec![],
            min_mmu: vec![(3000, 1000)],
        }));
        assert_eq!(
            format!("{violated:?}"),
            format!("{:?}", ExitCode::FAILURE),
            "a violated MMU floor must exit nonzero"
        );
        let ok = run(&request(SloSpec {
            max_pause: vec![(990, 1_000_000)],
            min_mmu: vec![(3000, 1)],
        }));
        assert_eq!(
            format!("{ok:?}"),
            format!("{:?}", ExitCode::SUCCESS),
            "generous bounds must exit zero"
        );
    }
}
