//! `experiments gc-log` — runs one benchmark under one collector with
//! the telemetry recorder attached and the §6 heap profiler on, renders
//! an ASCII per-collection timeline and the run's Figure-2 site report
//! (`tilgc_profile::render_report`) on stdout, and writes the full event
//! stream as JSONL (the file `slo-report --input` replays).
//!
//! The recorder and the profiler are host-side only: the run's simulated
//! cycle counts, `GcStats` and event stream are identical to a bare run
//! of the same program. Its `wall_ns` are not: they carry the profiler's
//! work. On Knuth-Bendix under `gen+markers` (five runs each) the
//! collections' `wall_ns` sum reads a median 27.4 ms profiled against
//! 15.8 ms with the profiler off. What is left is the death sweep over
//! each vacated range and `on_edge`'s `BTreeMap` per traced edge (both
//! in `cheney-copy`), and, outside collections, door-only allocation.

use std::collections::BTreeMap;
use std::process::ExitCode;

use tilgc_obs::metrics::{percentile, PauseMetrics};
use tilgc_obs::{jsonl, schema, Event, GcPhase};
use tilgc_profile::{render_report, ReportOptions};
use tilgc_runtime::CostModel;

use crate::harness::{parse_target, run_recorded, Calibration};

/// Width of the ASCII phase bar, in character cells.
const BAR_WIDTH: usize = 40;

/// Runs the gc-log experiment on the pair [`parse_target`] reads from
/// `bench_name` / `plan_label`.
pub fn run(
    cal: &mut Calibration,
    bench_name: &str,
    plan_label: &str,
    out_dir: &str,
    validate: bool,
) -> ExitCode {
    let (bench, kind) = match parse_target(bench_name, plan_label) {
        Ok(target) => target,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };

    let run = run_recorded(cal, bench, kind, true);
    let (events, dropped) = (&run.events, run.dropped);
    let profile = run.profile.as_ref().expect("gc-log profiles its run");
    let clock_hz = CostModel::default().clock_hz;

    println!(
        "gc-log: {} on {} (budget {} bytes, checksum {:#x})",
        bench.name(),
        kind.label(),
        run.budget,
        run.checksum
    );
    if dropped > 0 {
        println!("warning: ring overflow dropped {dropped} oldest events");
    }
    print_timeline(events);
    print_pressure(events);
    let opts = ReportOptions {
        show_names: true,
        ..ReportOptions::default()
    };
    let report = render_report(bench.name(), profile, &run.sites, &opts);
    print!("\n{report}");
    print_pause_summary(events, events.len(), dropped, clock_hz);

    let sites = run.site_table();
    let jsonl_doc = jsonl::render(kind.label(), bench.name(), clock_hz, &sites, events);
    let jsonl_path = format!("{out_dir}/gclog-{}-{}.jsonl", bench.name(), kind.label());
    if let Err(e) = std::fs::create_dir_all(out_dir) {
        eprintln!("cannot create {out_dir}: {e}");
        return ExitCode::FAILURE;
    }
    if let Err(e) = std::fs::write(&jsonl_path, &jsonl_doc) {
        eprintln!("cannot write {jsonl_path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {jsonl_path}");

    if validate {
        match schema::validate_jsonl(&jsonl_doc) {
            Ok(n) => println!("validate: {n} JSONL lines conform to the schema"),
            Err(e) => {
                eprintln!("validate: JSONL schema violation: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

/// One collection's worth of events, regrouped from the flat stream.
#[derive(Default)]
struct CollectionRow {
    major: bool,
    reason: &'static str,
    depth: u64,
    phases: Vec<(GcPhase, u64)>,
    gc_cycles: u64,
    copied_bytes: u64,
    frames_scanned: u64,
    frames_reused: u64,
}

fn group_collections(events: &[Event]) -> BTreeMap<u64, CollectionRow> {
    let mut rows: BTreeMap<u64, CollectionRow> = BTreeMap::new();
    for e in events {
        match e {
            Event::CollectionBegin(b) => {
                let row = rows.entry(b.collection).or_default();
                row.major = b.major;
                row.reason = b.reason;
                row.depth = b.depth;
            }
            Event::Phase(p) => {
                rows.entry(p.collection)
                    .or_default()
                    .phases
                    .push((p.phase, p.cycles));
            }
            Event::CollectionEnd(c) => {
                let row = rows.entry(c.collection).or_default();
                row.gc_cycles = c.gc_cycles;
                row.copied_bytes = c.copied_bytes;
                row.frames_scanned = c.frames_scanned;
                row.frames_reused = c.frames_reused;
            }
            // Pressure episodes sit between collections; they get their
            // own section of the report rather than a timeline row.
            Event::PressureBegin(_) | Event::PressureRung(_) | Event::PressureEnd(_) => {}
            // Censuses feed the pause/occupancy footer, not the timeline.
            Event::HeapCensus(_) => {}
        }
    }
    rows
}

/// Prints the latency footer: exact pause percentiles, the MMU at
/// millisecond-equivalent windows, and the recorder's event/drop
/// accounting.
fn print_pause_summary(events: &[Event], event_count: usize, dropped: u64, clock_hz: u64) {
    let metrics = PauseMetrics::from_events(events);
    let pauses = metrics.pauses();
    println!();
    if !pauses.is_empty() {
        let model = CostModel {
            clock_hz,
            ..CostModel::default()
        };
        println!(
            "pauses (gc cycles): n={} p50={} p90={} p99={} p99.9={} max={}",
            pauses.len(),
            percentile(&pauses, 500),
            percentile(&pauses, 900),
            percentile(&pauses, 990),
            percentile(&pauses, 999),
            percentile(&pauses, 1000)
        );
        let mmu: Vec<String> = [1u64, 10, 100]
            .iter()
            .map(|&ms| format!("{}ms={}‰", ms, metrics.mmu(model.cycles_per_ms(ms))))
            .collect();
        println!("MMU (min mutator utilization): {}", mmu.join(" "));
    }
    println!("recorder: {event_count} events, {dropped} dropped");
}

/// Prints the heap-pressure episodes: one line per episode with its
/// trigger, one indented line per governor rung climbed.
fn print_pressure(events: &[Event]) {
    let mut episode = 0u64;
    let mut open: Option<&tilgc_obs::PressureBegin> = None;
    let mut rungs: Vec<&tilgc_obs::PressureRung> = Vec::new();
    let mut printed_header = false;
    for e in events {
        match e {
            Event::PressureBegin(b) => {
                open = Some(b);
                rungs.clear();
            }
            Event::PressureRung(r) => rungs.push(r),
            Event::PressureEnd(end) => {
                episode += 1;
                if !printed_header {
                    printed_header = true;
                    println!();
                    println!("heap-pressure episodes:");
                }
                let trigger = match open.take() {
                    Some(b) => format!(
                        "site {} asked {} words of {} at cycle {}",
                        b.site, b.words, b.space, b.start_cycles
                    ),
                    None => "trigger dropped by the ring buffer".to_string(),
                };
                println!(
                    "  #{episode} {trigger} -> {} after {} rung(s), {} cycles",
                    end.outcome, end.rungs, end.cycles
                );
                for r in rungs.drain(..) {
                    println!(
                        "      {:<11} -> {} ({} cycles)",
                        r.rung, r.outcome, r.cycles
                    );
                }
            }
            _ => {}
        }
    }
}

/// Renders a phase bar: each nonzero phase gets cells proportional to its
/// cycle share (at least one), drawn with the phase's letter code.
fn phase_bar(phases: &[(GcPhase, u64)], total: u64) -> String {
    let mut bar = String::new();
    if total == 0 {
        return bar;
    }
    for &(phase, cycles) in phases {
        if cycles == 0 {
            continue;
        }
        let cells = ((cycles as u128 * BAR_WIDTH as u128 / total as u128) as usize).max(1);
        for _ in 0..cells {
            bar.push(phase.letter());
        }
    }
    bar.truncate(BAR_WIDTH);
    bar
}

fn print_timeline(events: &[Event]) {
    let rows = group_collections(events);
    if rows.is_empty() {
        println!("no collections occurred");
        return;
    }
    let legend: Vec<String> = GcPhase::ALL
        .iter()
        .map(|p| format!("{}={}", p.letter(), p.wire_name()))
        .collect();
    println!("phases: {}", legend.join(" "));
    println!(
        "{:>5} {:>5} {:>9} {:>7} {:<bw$}  {:>11} {:>13}",
        "gc#",
        "kind",
        "reason",
        "depth",
        "phase mix (by gc cycles)",
        "copied",
        "frames",
        bw = BAR_WIDTH
    );
    for (n, row) in &rows {
        println!(
            "{:>5} {:>5} {:>9} {:>7} {:<bw$}  {:>10}B {:>6}/{:<6}",
            n,
            if row.major { "major" } else { "minor" },
            row.reason,
            row.depth,
            phase_bar(&row.phases, row.gc_cycles),
            row.copied_bytes,
            row.frames_reused,
            row.frames_scanned,
            bw = BAR_WIDTH
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tilgc_obs::PhaseSpan;

    #[test]
    fn bar_is_proportional_and_bounded() {
        let phases = vec![(GcPhase::StackDecode, 75), (GcPhase::CheneyCopy, 25)];
        let bar = phase_bar(&phases, 100);
        assert!(bar.len() <= BAR_WIDTH);
        let decode = bar.chars().filter(|&c| c == 'D').count();
        let copy = bar.chars().filter(|&c| c == 'C').count();
        assert!(decode > copy);
        assert!(copy >= 1);
    }

    #[test]
    fn grouping_collects_phases_per_collection() {
        let events = vec![
            Event::Phase(PhaseSpan {
                collection: 1,
                phase: GcPhase::RootScan,
                cycles: 10,
                wall_ns: 1,
            }),
            Event::Phase(PhaseSpan {
                collection: 2,
                phase: GcPhase::CheneyCopy,
                cycles: 20,
                wall_ns: 1,
            }),
        ];
        let rows = group_collections(&events);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[&1].phases, vec![(GcPhase::RootScan, 10)]);
    }
}
