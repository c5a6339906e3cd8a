//! Every metric the benchmark reports: its name, unit, direction, bound
//! and the end-to-end metric it should move — and how each is computed
//! from pass results and the traced pass's spans.

use std::collections::BTreeMap;

use tilgc_runtime::CostModel;

use tilgc_obs::GcPhase;

use crate::trace::{phase_span_name, OpKind, Span, SpanTrace};
use crate::workload::{PassResult, PauseTimeline, RunResult};

/// Which way a metric improves.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// `"lower"` / `"higher"`, as `BENCHMARK.json` spells it.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric's definition.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    /// Name as printed and as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// End-to-end: the share of the base's median by which the metric
    /// may worsen before a change counts as a regression. Per-layer
    /// metrics have none.
    pub bound: Option<f64>,
    /// Per-layer: the end-to-end metric it should move. End-to-end: "".
    pub moves: &'static str,
    /// Where it comes from: `S` timed passes, `T` traced pass, `W` the
    /// warm-up pass's pause recorder, `P` the process.
    pub source: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    source: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
        moves: "",
        source,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
    source: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        moves,
        source,
    }
}

use Better::{Higher, Lower};

/// The end-to-end metrics, reported by every workload with tracing off.
pub const END_TO_END: [MetricDef; 7] = [
    e2e("wall_s", "s", Lower, 0.25, "S"),
    e2e("sim_gc_mcycles", "Mcycles", Lower, 0.08, "S"),
    e2e("sim_client_mcycles", "Mcycles", Lower, 0.02, "S"),
    e2e("sim_pause_p99_kcycles", "kcycles", Lower, 0.05, "W"),
    e2e("sim_mmu_permille", "permille", Higher, 0.10, "W"),
    e2e("peak_rss_mb", "MB", Lower, 0.10, "P"),
    e2e("setup_s", "s", Lower, 0.25, "P"),
];

/// The per-layer metrics, reported by every workload's traced run.
pub const PER_LAYER: [MetricDef; 82] = [
    layer("ledger.traced_pass_s", "s", Lower, "wall_s", "T"),
    layer("ledger.build_share", "share", Lower, "wall_s", "T"),
    layer("ledger.mutator_share", "share", Lower, "wall_s", "T"),
    layer("ledger.gc_share", "share", Lower, "wall_s", "T"),
    layer("ledger.teardown_share", "share", Lower, "wall_s", "T"),
    layer("ledger.unattributed_share", "share", Lower, "wall_s", "T"),
    layer("ledger.copy_share_of_gc", "share", Lower, "wall_s", "T"),
    layer("ledger.stack_share_of_gc", "share", Lower, "wall_s", "T"),
    layer("ledger.barrier_share_of_gc", "share", Lower, "wall_s", "T"),
    layer("core.build_vm_ms", "ms", Lower, "wall_s", "T"),
    layer("core.teardown_ms", "ms", Lower, "wall_s", "T"),
    layer("mem.heap_reserved_mb", "MB", Lower, "peak_rss_mb", "T"),
    layer("programs.mutator_host_s", "s", Lower, "wall_s", "S"),
    layer(
        "programs.host_ns_per_client_cycle",
        "ns",
        Lower,
        "wall_s",
        "S",
    ),
    layer("runtime.alloc_ns_per_obj", "ns", Lower, "wall_s", "T"),
    layer("runtime.alloc_ns_per_word", "ns", Lower, "wall_s", "T"),
    layer("runtime.load_ns", "ns", Lower, "wall_s", "T"),
    layer("runtime.frame_pushpop_ns", "ns", Lower, "wall_s", "T"),
    layer("runtime.raise_ns_per_frame", "ns", Lower, "wall_s", "T"),
    layer("runtime.store_ptr_ns.spread", "ns", Lower, "wall_s", "T"),
    layer("runtime.store_ptr_ns.hot", "ns", Lower, "wall_s", "T"),
    layer(
        "runtime.alloc_objects",
        "count",
        Lower,
        "sim_client_mcycles",
        "S",
    ),
    layer("runtime.alloc_mb", "MB", Lower, "sim_client_mcycles", "S"),
    layer(
        "runtime.frames_pushed",
        "count",
        Lower,
        "sim_client_mcycles",
        "T",
    ),
    layer(
        "runtime.pointer_updates",
        "count",
        Lower,
        "sim_client_mcycles",
        "S",
    ),
    layer("core.gc_host_s", "s", Lower, "wall_s", "S"),
    layer("core.gc_host_share", "share", Lower, "wall_s", "S"),
    layer("core.stack_host_s", "s", Lower, "wall_s", "S"),
    layer("core.copy_host_s", "s", Lower, "wall_s", "S"),
    layer("core.other_host_s", "s", Lower, "wall_s", "S"),
    layer("core.phase.setup_host_s", "s", Lower, "wall_s", "T"),
    layer("core.phase.stack-decode_host_s", "s", Lower, "wall_s", "T"),
    layer("core.phase.root-scan_host_s", "s", Lower, "wall_s", "T"),
    layer(
        "core.phase.barrier-filter_host_s",
        "s",
        Lower,
        "wall_s",
        "T",
    ),
    layer(
        "core.phase.pretenured-in-place-scan_host_s",
        "s",
        Lower,
        "wall_s",
        "T",
    ),
    layer("core.phase.cheney-copy_host_s", "s", Lower, "wall_s", "T"),
    layer(
        "core.phase.setup_mcycles",
        "Mcycles",
        Lower,
        "sim_gc_mcycles",
        "T",
    ),
    layer(
        "core.phase.stack-decode_mcycles",
        "Mcycles",
        Lower,
        "sim_gc_mcycles",
        "T",
    ),
    layer(
        "core.phase.root-scan_mcycles",
        "Mcycles",
        Lower,
        "sim_gc_mcycles",
        "T",
    ),
    layer(
        "core.phase.barrier-filter_mcycles",
        "Mcycles",
        Lower,
        "sim_gc_mcycles",
        "T",
    ),
    layer(
        "core.phase.pretenured-in-place-scan_mcycles",
        "Mcycles",
        Lower,
        "sim_gc_mcycles",
        "T",
    ),
    layer(
        "core.phase.cheney-copy_mcycles",
        "Mcycles",
        Lower,
        "sim_gc_mcycles",
        "T",
    ),
    layer("core.collection_other_us", "us", Lower, "wall_s", "T"),
    layer("mem.side_cleared_mwords", "Mwords", Lower, "wall_s", "T"),
    layer("mem.chunks_owned", "count", Lower, "wall_s", "T"),
    layer("core.copy_ns_per_word", "ns", Lower, "wall_s", "T"),
    layer(
        "core.stack_ns_per_frame_decoded",
        "ns",
        Lower,
        "wall_s",
        "T",
    ),
    layer("core.root_ns_per_root", "ns", Lower, "wall_s", "T"),
    layer("core.barrier_ns_per_entry", "ns", Lower, "wall_s", "T"),
    layer("core.pause_host_p50_us", "us", Lower, "wall_s", "T"),
    layer("core.pause_host_p99_us", "us", Lower, "wall_s", "T"),
    layer("core.pause_host_samples", "count", Lower, "wall_s", "T"),
    layer("core.collections", "count", Lower, "sim_gc_mcycles", "S"),
    layer(
        "core.major_collections",
        "count",
        Lower,
        "sim_gc_mcycles",
        "S",
    ),
    layer("core.copied_mb", "MB", Lower, "sim_gc_mcycles", "S"),
    layer(
        "core.scanned_mwords",
        "Mwords",
        Lower,
        "sim_gc_mcycles",
        "S",
    ),
    layer("core.frames_scanned", "count", Lower, "sim_gc_mcycles", "S"),
    layer("core.frames_reused", "count", Higher, "sim_gc_mcycles", "S"),
    layer(
        "core.frame_reuse_ratio",
        "ratio",
        Higher,
        "sim_gc_mcycles",
        "S",
    ),
    layer("core.slots_scanned", "count", Lower, "sim_gc_mcycles", "S"),
    layer("core.roots_found", "count", Lower, "sim_gc_mcycles", "S"),
    layer(
        "core.barrier_entries",
        "count",
        Lower,
        "sim_gc_mcycles",
        "S",
    ),
    layer(
        "core.barrier_entries_per_update",
        "ratio",
        Lower,
        "sim_gc_mcycles",
        "S",
    ),
    layer("core.markers_placed", "count", Lower, "sim_gc_mcycles", "S"),
    layer("core.pretenured_mb", "MB", Higher, "sim_gc_mcycles", "S"),
    layer(
        "core.pretenured_scanned_mwords",
        "Mwords",
        Lower,
        "sim_gc_mcycles",
        "S",
    ),
    layer("core.max_live_mb", "MB", Lower, "peak_rss_mb", "S"),
    layer("core.pressure_episodes", "count", Lower, "failed", "S"),
    layer("core.budget_overruns", "count", Lower, "failed", "S"),
    layer("core.workers_lost", "count", Lower, "failed", "S"),
    layer("core.degraded_collections", "count", Lower, "failed", "S"),
    layer(
        "core.sched.par_collections_ratio",
        "ratio",
        Higher,
        "wall_s",
        "T",
    ),
    layer(
        "core.sched.copy_mb_per_s_per_worker",
        "MB/s",
        Higher,
        "wall_s",
        "T",
    ),
    layer("core.sched.worker_imbalance", "ratio", Lower, "wall_s", "T"),
    layer("core.sched.par_speedup", "ratio", Higher, "wall_s", "S"),
    layer("core.sched.serial_twin_s", "s", Lower, "wall_s", "S"),
    layer(
        "core.sched.divergent_passes",
        "count",
        Lower,
        "sim_gc_mcycles",
        "S",
    ),
    layer("obs.events", "count", Lower, "none", "T"),
    layer("obs.dropped", "count", Lower, "failed", "T"),
    layer("obs.overhead_share", "share", Lower, "none", "T"),
    layer("profile.derive_policy_s", "s", Lower, "setup_s", "P"),
    layer(
        "profile.pretenured_sites",
        "count",
        Higher,
        "sim_gc_mcycles",
        "P",
    ),
];

/// The MMU window: 100 ms-equivalent of simulated time. (At the paper
/// lanes' 10 ms window the worst MMU of the copy-heavy workloads is 0,
/// and a metric that reads 0 can be compared with nothing.)
pub fn mmu_window_cycles() -> u64 {
    CostModel::default().cycles_per_ms(100)
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("measurements are finite"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Median absolute deviation of `values`.
pub fn mad(values: &[f64]) -> f64 {
    let m = median(values);
    let deviations: Vec<f64> = values.iter().map(|v| (v - m).abs()).collect();
    median(&deviations)
}

/// The first and third quartile of `values`, as Python's
/// `statistics.quantiles(values, n=4)` gives them (exclusive method).
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("measurements are finite"));
    let n = v.len();
    if n < 2 {
        let only = v.first().copied().unwrap_or(0.0);
        return (only, only);
    }
    let at = |q: usize| {
        let pos = q * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Names of the deterministic fields [`Totals`] sums, in
/// [`run_fields`] order.
const TOTAL_FIELDS: [&str; 27] = [
    "collections",
    "major_collections",
    "copied_bytes",
    "scanned_words",
    "frames_scanned",
    "frames_reused",
    "depth_at_gc_sum",
    "slots_scanned",
    "roots_found",
    "barrier_entries",
    "markers_placed",
    "pretenured_scanned_words",
    "pretenured_bytes",
    "max_live_bytes",
    "pressure_episodes",
    "budget_overruns",
    "sites_promoted",
    "sites_demoted",
    "workers_lost",
    "degraded_collections",
    "stack_cycles",
    "copy_cycles",
    "other_cycles",
    "client_cycles",
    "alloc_objects",
    "alloc_bytes",
    "pointer_updates",
];

/// Every simulated-clock and count field of one run (no host-ns field).
fn run_fields(run: &RunResult) -> [u64; TOTAL_FIELDS.len()] {
    let (g, m) = (&run.gc, &run.mutator);
    [
        g.collections,
        g.major_collections,
        g.copied_bytes,
        g.scanned_words,
        g.frames_scanned,
        g.frames_reused,
        g.depth_at_gc_sum,
        g.slots_scanned,
        g.roots_found,
        g.barrier_entries,
        g.markers_placed,
        g.pretenured_scanned_words,
        g.pretenured_bytes,
        g.max_live_bytes,
        g.pressure_episodes,
        g.budget_overruns,
        g.sites_promoted,
        g.sites_demoted,
        g.workers_lost,
        g.degraded_collections,
        g.stack_cycles,
        g.copy_cycles,
        g.other_cycles,
        m.client_cycles,
        m.alloc_objects,
        m.alloc_bytes,
        m.pointer_updates,
    ]
}

/// The deterministic totals of one pass: sums over its runs of every
/// simulated-clock and count field (`max_live_bytes` as a maximum).
/// Equal between any two passes of the same inputs, recorder or not.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Totals([u64; TOTAL_FIELDS.len()]);

impl Totals {
    /// Sums the deterministic fields over the runs of `pass`.
    pub fn of(pass: &PassResult) -> Totals {
        let mut totals = Totals::default();
        for run in &pass.runs {
            for ((total, value), name) in totals.0.iter_mut().zip(run_fields(run)).zip(TOTAL_FIELDS)
            {
                if name == "max_live_bytes" {
                    *total = (*total).max(value);
                } else {
                    *total += value;
                }
            }
        }
        totals
    }

    /// A total by field name.
    pub fn get(&self, name: &str) -> u64 {
        let i = TOTAL_FIELDS
            .iter()
            .position(|f| *f == name)
            .unwrap_or_else(|| panic!("no total named {name}"));
        self.0[i]
    }

    /// Σ simulated GC cycles.
    pub fn gc_cycles(&self) -> u64 {
        self.get("stack_cycles") + self.get("copy_cycles") + self.get("other_cycles")
    }

    /// The fields in which `self` and `other` differ, for failure
    /// messages: `name a != b`, comma-separated.
    pub fn diff(&self, other: &Totals) -> String {
        let differing: Vec<String> = TOTAL_FIELDS
            .iter()
            .zip(self.0.iter().zip(&other.0))
            .filter(|(_, (a, b))| a != b)
            .map(|(name, (a, b))| format!("{name} {a} != {b}"))
            .collect();
        differing.join(", ")
    }
}

/// Host-clock sums of one timed pass, from `GcStats::*_wall_ns` and the
/// pass runner's own clock.
#[derive(Clone, Copy, Debug, Default)]
pub struct HostSample {
    /// The whole pass.
    pub wall_ns: u64,
    /// Σ `build_vm`.
    pub build_ns: u64,
    /// Σ `GcStats::total_wall_ns`.
    pub gc_ns: u64,
    /// Σ `GcStats::stack_wall_ns`.
    pub stack_ns: u64,
    /// Σ `GcStats::copy_wall_ns`.
    pub copy_ns: u64,
}

impl HostSample {
    /// Sums the host-clock fields over the runs of `pass`.
    pub fn of(pass: &PassResult) -> HostSample {
        let mut s = HostSample {
            wall_ns: pass.wall_ns,
            ..HostSample::default()
        };
        for run in &pass.runs {
            s.build_ns += run.build_ns;
            s.gc_ns += run.gc.total_wall_ns;
            s.stack_ns += run.gc.stack_wall_ns;
            s.copy_ns += run.gc.copy_wall_ns;
        }
        s
    }
}

/// Minimum mutator utilization of one run over every window of
/// `window` cycles, in parts per million. The minimum is attained by a
/// window that starts where a pause starts or ends where one ends, so
/// those are the only candidates; prefix sums make each one a binary
/// search. A run shorter than the window counts as one window.
pub fn mmu_ppm(timeline: &PauseTimeline, window: u64) -> u64 {
    let PauseTimeline { pauses, horizon } = timeline;
    let total: u64 = pauses.iter().map(|&(s, e)| e - s).sum();
    if *horizon == 0 {
        return 1_000_000;
    }
    if window >= *horizon {
        return (horizon - total.min(*horizon)) * 1_000_000 / horizon;
    }
    // paused_before[i] = pause cycles in pauses[..i].
    let mut paused_before = Vec::with_capacity(pauses.len() + 1);
    paused_before.push(0u64);
    for &(s, e) in pauses {
        paused_before.push(paused_before.last().expect("seeded") + (e - s));
    }
    // Pause cycles in [0, t).
    let paused_until = |t: u64| -> u64 {
        let i = pauses.partition_point(|&(_, e)| e <= t);
        paused_before[i] + pauses.get(i).map_or(0, |&(s, _)| t.saturating_sub(s))
    };
    let mut worst = 0u64;
    for &(s, e) in pauses {
        for t0 in [s.min(horizon - window), e.saturating_sub(window)] {
            worst = worst.max(paused_until(t0 + window) - paused_until(t0));
        }
    }
    (window - worst.min(window)) * 1_000_000 / window
}

/// The pause summary of a recorded pass: the exact p99 pause over all
/// its collections, in cycles, and the worst MMU of any of its runs
/// (each run is its own timeline), in permille.
pub fn pause_summary(pass: &PassResult) -> (u64, f64) {
    let mut lengths: Vec<u64> = pass
        .runs
        .iter()
        .flat_map(|r| r.pauses.pauses.iter().map(|&(s, e)| e - s))
        .collect();
    lengths.sort_unstable();
    let mmu = pass
        .runs
        .iter()
        .map(|r| mmu_ppm(&r.pauses, mmu_window_cycles()))
        .min()
        .unwrap_or(1_000_000);
    (percentile(&lengths, 990), mmu as f64 / 1e3)
}

/// A metric name → value map.
pub type Values = BTreeMap<&'static str, f64>;

/// The `S`-sourced per-layer metrics: counts from the (deterministic)
/// totals, host-ns fields as medians over the timed passes.
pub fn from_timed_passes(totals: &Totals, samples: &[HostSample], out: &mut Values) {
    let med = |f: fn(&HostSample) -> u64| {
        let v: Vec<f64> = samples.iter().map(|s| f(s) as f64 / 1e9).collect();
        median(&v)
    };
    let wall = med(|s| s.wall_ns);
    let gc = med(|s| s.gc_ns);
    let stack = med(|s| s.stack_ns);
    let copy = med(|s| s.copy_ns);
    let mutator = med(|s| s.wall_ns.saturating_sub(s.build_ns + s.gc_ns));
    let t = |name: &str| totals.get(name) as f64;
    let mb = |name: &str| t(name) / (1u64 << 20) as f64;
    out.insert("programs.mutator_host_s", mutator);
    out.insert(
        "programs.host_ns_per_client_cycle",
        ratio(mutator * 1e9, t("client_cycles")),
    );
    out.insert("runtime.alloc_objects", t("alloc_objects"));
    out.insert("runtime.alloc_mb", mb("alloc_bytes"));
    out.insert("runtime.pointer_updates", t("pointer_updates"));
    out.insert("core.gc_host_s", gc);
    out.insert("core.gc_host_share", ratio(gc, wall));
    out.insert("core.stack_host_s", stack);
    out.insert("core.copy_host_s", copy);
    out.insert("core.other_host_s", (gc - stack - copy).max(0.0));
    out.insert("core.collections", t("collections"));
    out.insert("core.major_collections", t("major_collections"));
    out.insert("core.copied_mb", mb("copied_bytes"));
    out.insert("core.scanned_mwords", t("scanned_words") / 1e6);
    out.insert("core.frames_scanned", t("frames_scanned"));
    out.insert("core.frames_reused", t("frames_reused"));
    out.insert(
        "core.frame_reuse_ratio",
        ratio(t("frames_reused"), t("frames_reused") + t("frames_scanned")),
    );
    out.insert("core.slots_scanned", t("slots_scanned"));
    out.insert("core.roots_found", t("roots_found"));
    out.insert("core.barrier_entries", t("barrier_entries"));
    out.insert(
        "core.barrier_entries_per_update",
        ratio(t("barrier_entries"), t("pointer_updates")),
    );
    out.insert("core.markers_placed", t("markers_placed"));
    out.insert("core.pretenured_mb", mb("pretenured_bytes"));
    out.insert(
        "core.pretenured_scanned_mwords",
        t("pretenured_scanned_words") / 1e6,
    );
    out.insert("core.max_live_mb", mb("max_live_bytes"));
    out.insert("core.pressure_episodes", t("pressure_episodes"));
    out.insert("core.budget_overruns", t("budget_overruns"));
    out.insert("core.workers_lost", t("workers_lost"));
    out.insert("core.degraded_collections", t("degraded_collections"));
}

/// The registered per-layer metric called `name`, as the `'static`
/// key [`Values`] wants.
fn registered(name: &str) -> &'static str {
    PER_LAYER
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("no per-layer metric named {name}"))
        .name
}

/// One row of the ledger: a label and its share of the traced pass.
#[derive(Clone, Debug)]
pub struct LedgerRow {
    /// Row label.
    pub label: &'static str,
    /// Host ns booked to the row.
    pub ns: u64,
}

/// The ledger of a traced pass: rows of self time that sum to the pass.
pub fn ledger(trace: &SpanTrace) -> Vec<LedgerRow> {
    let by_name = trace.self_time_by_name();
    let get = |name: &str| by_name.get(name).copied().unwrap_or(0);
    let mut rows = vec![
        LedgerRow {
            label: "core.build_vm",
            ns: get("core.build_vm"),
        },
        LedgerRow {
            label: "programs.run (self)",
            ns: get("programs.run"),
        },
    ];
    for kind in OpKind::ALL {
        rows.push(LedgerRow {
            label: kind.span_name(),
            ns: get(kind.span_name()),
        });
    }
    for phase in GcPhase::ALL {
        rows.push(LedgerRow {
            label: phase_span_name(phase),
            ns: get(phase_span_name(phase)),
        });
    }
    rows.push(LedgerRow {
        label: "core.collection (other)",
        ns: get("core.collection"),
    });
    rows.push(LedgerRow {
        label: "core.teardown",
        ns: get("core.teardown"),
    });
    rows.push(LedgerRow {
        label: "unattributed",
        ns: get("unattributed"),
    });
    rows
}

fn percentile(sorted: &[u64], permille: usize) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (sorted.len() * permille).div_ceil(1000).max(1);
    sorted[rank - 1]
}

/// The `T`-sourced per-layer metrics, from the traced pass's spans.
pub fn from_trace(trace: &SpanTrace, out: &mut Values) {
    let spans = trace.spans();
    let pass_ns = spans
        .iter()
        .find(|s| s.name == "pass")
        .map_or(0, Span::dur_ns) as f64;
    let by_name = trace.self_time_by_name();
    let own = |name: &str| by_name.get(name).copied().unwrap_or(0) as f64;

    // Children of each span, to take collections out of block self time
    // is already done by `self_time_by_name`; here sum calls per kind.
    let sum = |name: &str, key: &str| -> f64 {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| trace.count(s, key) as f64)
            .sum()
    };
    let total = |name: &str| -> f64 {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64)
            .sum()
    };

    let collections: Vec<&Span> = spans
        .iter()
        .filter(|s| s.name == "core.collection")
        .collect();
    let collection_ns = total("core.collection");
    let phase_ns: f64 = GcPhase::ALL
        .iter()
        .map(|&p| total(phase_span_name(p)))
        .sum();
    let mutator_ns: f64 =
        own("programs.run") + OpKind::ALL.iter().map(|k| own(k.span_name())).sum::<f64>();

    out.insert("ledger.traced_pass_s", pass_ns / 1e9);
    out.insert("ledger.build_share", ratio(own("core.build_vm"), pass_ns));
    out.insert("ledger.mutator_share", ratio(mutator_ns, pass_ns));
    out.insert("ledger.gc_share", ratio(collection_ns, pass_ns));
    out.insert(
        "ledger.teardown_share",
        ratio(own("core.teardown"), pass_ns),
    );
    out.insert(
        "ledger.unattributed_share",
        ratio(own("unattributed"), pass_ns),
    );
    out.insert(
        "ledger.copy_share_of_gc",
        ratio(total("core.phase.cheney-copy"), collection_ns),
    );
    out.insert(
        "ledger.stack_share_of_gc",
        ratio(
            total("core.phase.stack-decode") + total("core.phase.root-scan"),
            collection_ns,
        ),
    );
    out.insert(
        "ledger.barrier_share_of_gc",
        ratio(total("core.phase.barrier-filter"), collection_ns),
    );
    out.insert("core.build_vm_ms", total("core.build_vm") / 1e6);
    out.insert("core.teardown_ms", total("core.teardown") / 1e6);

    let alloc_ns = own("runtime.alloc");
    out.insert(
        "runtime.alloc_ns_per_obj",
        ratio(alloc_ns, sum("runtime.alloc", "calls")),
    );
    out.insert(
        "runtime.alloc_ns_per_word",
        ratio(alloc_ns, sum("runtime.alloc", "words")),
    );
    out.insert(
        "runtime.load_ns",
        ratio(own("runtime.load"), sum("runtime.load", "calls")),
    );
    out.insert(
        "runtime.frame_pushpop_ns",
        ratio(own("runtime.frames"), sum("runtime.frames", "calls")),
    );
    out.insert(
        "runtime.raise_ns_per_frame",
        ratio(own("runtime.raise"), sum("runtime.raise", "frames_unwound")),
    );
    out.insert(
        "runtime.store_ptr_ns.spread",
        ratio(
            own("runtime.store_ptr.spread"),
            sum("runtime.store_ptr.spread", "calls"),
        ),
    );
    out.insert(
        "runtime.store_ptr_ns.hot",
        ratio(
            own("runtime.store_ptr.hot"),
            sum("runtime.store_ptr.hot", "calls"),
        ),
    );
    out.insert("runtime.frames_pushed", sum("runtime.frames", "calls"));

    for phase in GcPhase::ALL {
        let (span, wire) = (phase_span_name(phase), phase.wire_name());
        out.insert(
            registered(&format!("core.phase.{wire}_host_s")),
            total(span) / 1e9,
        );
        out.insert(
            registered(&format!("core.phase.{wire}_mcycles")),
            sum(span, "cycles") / 1e6,
        );
    }
    out.insert(
        "core.collection_other_us",
        ratio(
            (collection_ns - phase_ns).max(0.0) / 1e3,
            collections.len() as f64,
        ),
    );
    out.insert(
        "mem.side_cleared_mwords",
        sum("core.collection", "side_cleared_words") / 1e6,
    );
    out.insert(
        "mem.chunks_owned",
        collections
            .iter()
            .map(|s| trace.count(s, "chunks_owned"))
            .max()
            .unwrap_or(0) as f64,
    );
    out.insert(
        "core.copy_ns_per_word",
        ratio(
            total("core.phase.cheney-copy"),
            sum("core.collection", "copied_bytes") / 8.0,
        ),
    );
    out.insert(
        "core.stack_ns_per_frame_decoded",
        ratio(
            total("core.phase.stack-decode"),
            sum("core.collection", "frames_scanned"),
        ),
    );
    out.insert(
        "core.root_ns_per_root",
        ratio(
            total("core.phase.root-scan"),
            sum("core.collection", "roots_found"),
        ),
    );
    out.insert(
        "core.barrier_ns_per_entry",
        ratio(
            total("core.phase.barrier-filter"),
            sum("core.collection", "barrier_entries"),
        ),
    );
    let mut pauses: Vec<u64> = collections.iter().map(|s| s.dur_ns()).collect();
    pauses.sort_unstable();
    out.insert(
        "core.pause_host_p50_us",
        percentile(&pauses, 500) as f64 / 1e3,
    );
    out.insert(
        "core.pause_host_p99_us",
        percentile(&pauses, 990) as f64 / 1e3,
    );
    out.insert("core.pause_host_samples", pauses.len() as f64);

    // Scheduler: collections that ran with more than one worker. Their
    // copy phase is the child span named cheney-copy.
    let mut copy_ns_of = vec![0u64; spans.len() + 1];
    for s in spans {
        if s.name == "core.phase.cheney-copy" {
            copy_ns_of[s.parent as usize] += s.dur_ns();
        }
    }
    let parallel: Vec<&&Span> = collections
        .iter()
        .filter(|s| trace.count(s, "workers") > 1)
        .collect();
    let par_copied: f64 = parallel
        .iter()
        .map(|s| trace.count(s, "copied_bytes") as f64)
        .sum();
    let par_copy_ns: f64 = parallel
        .iter()
        .map(|s| copy_ns_of[s.id as usize] as f64)
        .sum();
    let par_worker_slots: f64 = parallel
        .iter()
        .map(|s| trace.count(s, "workers") as f64)
        .sum();
    let mean_workers = ratio(par_worker_slots, parallel.len() as f64);
    out.insert(
        "core.sched.par_collections_ratio",
        ratio(parallel.len() as f64, collections.len() as f64),
    );
    out.insert(
        "core.sched.copy_mb_per_s_per_worker",
        ratio(
            ratio(par_copied / (1u64 << 20) as f64, par_copy_ns / 1e9),
            mean_workers,
        ),
    );
    // max ÷ mean of the per-worker copied bytes, pooled over the
    // parallel collections: Σ max ÷ Σ (copied ÷ workers).
    let max_sum: f64 = parallel
        .iter()
        .map(|s| trace.count(s, "worker_copied_bytes_max") as f64)
        .sum();
    let mean_sum: f64 = parallel
        .iter()
        .map(|s| {
            ratio(
                trace.count(s, "copied_bytes") as f64,
                trace.count(s, "workers") as f64,
            )
        })
        .sum();
    out.insert("core.sched.worker_imbalance", ratio(max_sum, mean_sum));
}
