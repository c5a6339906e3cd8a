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
//! A replayed file goes through the one codec (`tilgc_obs::jsonl`):
//! every line is decoded back to the `Event` the recorder produced and
//! the events are summarized by the same function as a live run's. A
//! line that does not decode — unknown type, key or vocabulary word, a
//! missing or second `meta` line — is an error naming file and line,
//! with or without `--validate` (before the codec existed, `--input`
//! silently skipped lines it did not know). `--validate` adds the stream
//! identities (`tilgc_obs::schema`).
//!
//! One caveat for replayed streams: the timeline horizon is the last
//! recorded event, so mutator time after the final collection is not
//! visible and whole-run MMU reads slightly low. Live mode extends the
//! horizon to the run's full `client + gc` cycle total.

use std::fmt::Write as _;
use std::process::ExitCode;

use tilgc_obs::jsonl::{self, Meta};
use tilgc_obs::metrics::{fmt_permille, PauseMetrics, SloSpec, TtspMetrics};
use tilgc_obs::{schema, Event, HeapCensus};
use tilgc_runtime::CostModel;

use crate::harness::{parse_target, run_recorded, Calibration};

/// Width of the MMU bar, in character cells (one cell per 40‰).
const MMU_BAR_WIDTH: usize = 25;

/// The default MMU windows of the report, in milliseconds of the
/// stream's clock (the paper's latency story is told at these scales).
const MMU_WINDOWS_MS: [u64; 7] = [1, 2, 5, 10, 20, 50, 100];

/// Everything `slo-report` needs, assembled by `main`'s flag parser.
pub struct SloRequest {
    /// Replay this JSONL file instead of running a benchmark.
    pub input: Option<String>,
    /// Live mode: benchmark name (read by [`parse_target`]).
    pub bench: String,
    /// Live mode: collector plan label.
    pub plan: String,
    /// Schema-validate the stream before evaluating it.
    pub validate: bool,
    /// Also write the report text to this file (CI artifact).
    pub report: Option<String>,
    /// The bounds to enforce; empty means report-only (always exit 0).
    pub spec: SloSpec,
}

/// Everything extracted from a stream, whatever its source.
struct StreamSummary {
    source: String,
    /// Plan, benchmark and clock rate: the stream's `meta` line.
    meta: Meta,
    metrics: PauseMetrics,
    /// Time-to-safepoint observations, one per collection. All-zero
    /// when the stream was recorded without TTSP tracking (the JSONL
    /// sink omits the field for zero), so the report section is gated
    /// on a nonzero maximum.
    ttsp: TtspMetrics,
    /// The last heap census in the stream, for the report footer.
    census: Option<HeapCensus>,
    event_count: usize,
    dropped: u64,
}

impl StreamSummary {
    /// The one summarizer: live and replayed streams are both `Event`s
    /// by the time they get here.
    fn from_events(source: String, meta: Meta, events: &[Event], dropped: u64) -> StreamSummary {
        StreamSummary {
            source,
            meta,
            metrics: PauseMetrics::from_events(events),
            ttsp: TtspMetrics::from_events(events),
            census: events.iter().rev().find_map(|e| match e {
                Event::HeapCensus(c) => Some(c.clone()),
                _ => None,
            }),
            event_count: events.len(),
            dropped,
        }
    }
}

pub fn run(cal: &mut Calibration, req: &SloRequest) -> ExitCode {
    let summary = match &req.input {
        Some(path) => summarize_jsonl_file(path, req.validate),
        None => summarize_live_run(cal, req),
    };
    let summary = match summary {
        Ok(s) => s,
        Err(e) => {
            eprintln!("slo-report: {e}");
            return ExitCode::FAILURE;
        }
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

/// Replays a JSONL file: every line is decoded back to the `Event` the
/// recorder produced (one parse per line; a line that does not decode
/// is an error naming file and line, with or without `validate`), and
/// `validate` additionally runs the stream identities over them.
fn summarize_jsonl_file(path: &str, validate: bool) -> Result<StreamSummary, String> {
    let doc = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut events = Vec::new();
    let mut checker = validate.then(schema::Checker::default);
    let (meta, lines) = jsonl::read_doc(&doc, |e| {
        if let Some(checker) = &mut checker {
            checker.event(&e)?;
        }
        events.push(e);
        Ok(())
    })
    .map_err(|e| format!("{path}: {e}"))?;
    if let Some(checker) = checker {
        checker.finish().map_err(|e| format!("{path}: {e}"))?;
        println!("validate: {lines} JSONL lines conform to the schema");
    }
    // A file has no ring; whatever was dropped at record time is simply
    // absent from it.
    Ok(StreamSummary::from_events(
        path.to_string(),
        meta,
        &events,
        0,
    ))
}

/// Runs one benchmark with the recorder attached — the `gc-log` rig —
/// and summarizes the captured stream.
fn summarize_live_run(cal: &mut Calibration, req: &SloRequest) -> Result<StreamSummary, String> {
    let (bench, kind) = parse_target(&req.bench, &req.plan)?;
    let run = run_recorded(cal, bench, kind, false);
    if req.validate {
        schema::check_stream(&run.events).map_err(|e| format!("schema: {e}"))?;
        println!(
            "validate: {} events conform to the schema",
            run.events.len()
        );
    }
    let source = format!(
        "{} on {} (live, budget {} bytes)",
        bench.name(),
        kind.label(),
        run.budget
    );
    let meta = Meta {
        plan: kind.label().to_string(),
        bench: bench.name().to_string(),
        clock_hz: CostModel::default().clock_hz,
        sites: run.site_table(),
    };
    let mut summary = StreamSummary::from_events(source, meta, &run.events, run.dropped);
    // A live run knows its full length; a file's horizon is its last event.
    summary.metrics.set_horizon(run.horizon_cycles);
    Ok(summary)
}

/// Renders the full report and returns it with the violation count.
fn render_report(summary: &StreamSummary, spec: &SloSpec) -> (String, usize) {
    let mut out = String::new();
    let model = CostModel {
        clock_hz: summary.meta.clock_hz,
        ..CostModel::default()
    };
    let h = summary.metrics.histogram();
    let _ = writeln!(out, "slo-report: {}", summary.source);
    let _ = writeln!(
        out,
        "plan {}, bench {}, clock {} Hz, horizon {} cycles",
        summary.meta.plan,
        summary.meta.bench,
        summary.meta.clock_hz,
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
        for row in &census.spaces {
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
    use tilgc_core::CollectorKind;
    use tilgc_obs::metrics::PauseHistogram;
    use tilgc_obs::{CollectionBegin, CollectionEnd, GcPhase, PhaseSpan, SpaceCensus};
    use tilgc_programs::Benchmark;

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
        let mut cal = Calibration::new(1);
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
                let run = run_recorded(&mut cal, bench, kind, false);
                assert_eq!(run.dropped, 0);
                let mut metrics = PauseMetrics::from_events(&run.events);
                metrics.set_horizon(run.horizon_cycles);
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

    /// A small stream rendered by the writer itself, so the fixture
    /// cannot drift from the schema: one bracketed collection with its
    /// census, then an end whose begin was lost to the ring.
    fn sample_doc() -> String {
        sample_doc_with_ttsp(0)
    }

    fn sample_doc_with_ttsp(ttsp_cycles: u64) -> String {
        let end = |collection, gc_cycles, end_cycles| {
            Event::CollectionEnd(Box::new(CollectionEnd {
                collection,
                major: false,
                depth: 2,
                claimed_prefix: 0,
                oracle_prefix: 0,
                copied_bytes: 0,
                scanned_words: 0,
                pretenured_scanned_words: 0,
                roots_found: 0,
                frames_scanned: 2,
                frames_reused: 0,
                slots_scanned: 0,
                barrier_entries: 0,
                markers_placed: 0,
                gc_cycles,
                end_cycles,
                live_bytes_after: 0,
                wall_ns: 0,
                workers: 1,
                worker_copied_bytes: Vec::new(),
                chunks_owned: 1,
                side_cleared_words: 0,
            }))
        };
        let events = [
            Event::CollectionBegin(CollectionBegin {
                collection: 1,
                plan: "generational",
                reason: "alloc-failure",
                major: false,
                depth: 2,
                start_cycles: 1000,
                ttsp_cycles,
            }),
            Event::Phase(PhaseSpan {
                collection: 1,
                phase: GcPhase::CheneyCopy,
                cycles: 500,
                wall_ns: 0,
            }),
            end(1, 500, 1500),
            Event::HeapCensus(HeapCensus {
                collection: 1,
                pretenured_sites: 3,
                spaces: vec![SpaceCensus {
                    space: "nursery",
                    used_words: 10,
                    reserved_words: 64,
                    chunks: 1,
                }],
            }),
            end(2, 200, 4000),
        ];
        jsonl::render("gen+markers", "Checksum", 100_000, &[], &events)
    }

    fn replay(doc: &str, validate: bool) -> Result<StreamSummary, String> {
        let dir = std::env::temp_dir().join("tilgc-slo-test");
        std::fs::create_dir_all(&dir).unwrap();
        // One file per call: tests run on parallel threads, and two of
        // them replaying the same document must not share a path.
        static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let path = dir.join(format!("sample-{}-{n}.jsonl", std::process::id()));
        std::fs::write(&path, doc).unwrap();
        summarize_jsonl_file(path.to_str().unwrap(), validate)
    }

    fn summary_of(doc: &str) -> StreamSummary {
        replay(doc, false).unwrap()
    }

    #[test]
    fn jsonl_replay_reconstructs_pauses_and_census() {
        let s = summary_of(&sample_doc());
        assert_eq!(s.meta.plan, "gen+markers");
        assert_eq!(s.meta.clock_hz, 100_000);
        assert_eq!(s.metrics.pause_count(), 2);
        assert_eq!(s.metrics.histogram().sum(), 700);
        // The second end had no begin: its start is end - gc_cycles.
        assert_eq!(s.metrics.horizon(), 4000);
        let census = s.census.as_ref().expect("census captured");
        assert_eq!(census.pretenured_sites, 3);
        assert_eq!(census.spaces[0].space, "nursery");
        assert_eq!(census.spaces[0].reserved_words, 64);
        // 5 event lines; meta is not an event.
        assert_eq!(s.event_count, 5);
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
        let s = summary_of(&sample_doc_with_ttsp(40));
        assert_eq!(s.ttsp.histogram().count(), 1);
        assert_eq!(s.ttsp.histogram().max(), 40);
        let (text, _) = render_report(&s, &SloSpec::default());
        assert!(
            text.contains("time-to-safepoint (1 collections"),
            "tracked TTSP must be surfaced: {text}"
        );
    }

    /// Writer → file → reader → metrics: a replayed stream is the live
    /// stream, so it renders the report the live events render.
    #[test]
    fn replayed_stream_reports_what_the_live_events_report() {
        let kind = CollectorKind::GenerationalStackPretenure;
        let run = run_recorded(&mut Calibration::new(1), Benchmark::Life, kind, false);
        let sites = run.site_table();
        let doc = jsonl::render(kind.label(), "Life", 150_000_000, &sites, &run.events);
        let replayed = replay(&doc, true).expect("a recorded stream validates");
        let (source, meta) = (replayed.source.clone(), replayed.meta.clone());
        let live = StreamSummary::from_events(source, meta, &run.events, 0);
        let spec = SloSpec::default();
        assert_eq!(render_report(&replayed, &spec), render_report(&live, &spec));
        assert!(replayed.metrics.pause_count() > 0 && replayed.census.is_some());
    }

    /// `--input` refuses what it cannot decode, naming file and line,
    /// whether or not `--validate` is given; the stream identities are
    /// what `--validate` adds.
    #[test]
    fn replay_refuses_undecodable_lines_and_validate_adds_the_identities() {
        for validate in [false, true] {
            let doc = sample_doc().replacen('\n', "\n{\"type\":\"mystery\"}\n", 1);
            let err = replay(&doc, validate).err().expect("refused");
            assert!(
                err.contains(".jsonl: line 2: unknown event type \"mystery\""),
                "{err}"
            );
        }
        // The sample's second end has no begin: summarized as a ring
        // drop without `--validate`, an identity violation with it.
        let err = replay(&sample_doc(), true).err().expect("refused");
        assert!(err.contains("line 6: end without begin for 2"), "{err}");
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
            validate: false,
            report: None,
            spec,
        };
        // 500/1500 cycles of GC inside the 1000..4000 window: MMU at
        // that window can never reach 1000‰, so this bound is violated.
        let cal = &mut Calibration::new(1);
        let violated = run(
            cal,
            &request(SloSpec {
                max_pause: vec![],
                min_mmu: vec![(3000, 1000)],
            }),
        );
        assert_eq!(
            format!("{violated:?}"),
            format!("{:?}", ExitCode::FAILURE),
            "a violated MMU floor must exit nonzero"
        );
        let ok = run(
            cal,
            &request(SloSpec {
                max_pause: vec![(990, 1_000_000)],
                min_mmu: vec![(3000, 1)],
            }),
        );
        assert_eq!(
            format!("{ok:?}"),
            format!("{:?}", ExitCode::SUCCESS),
            "generous bounds must exit zero"
        );
    }
}
