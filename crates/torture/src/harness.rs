//! The differential lockstep executor.
//!
//! One seeded [`VmOp`] program is stepped, op by op, against a VM per
//! collector plan. After every op:
//!
//! * any lane whose collection counter advanced is verified — the
//!   shadow-tag graph walk ([`verify_collection`]) checks every reachable
//!   pointer and cross-checks the plan's [`CollectionInspection`] record
//!   (reuse bound, frame accounting, copy/scan accounting, live-size
//!   bound);
//! * periodically (and always after a collection, and at program end)
//!   the mutator-visible reachable graph of every lane is canonicalized
//!   ([`vm_snapshot`]) and diffed against the first lane's.
//!
//! `gen+markers` runs twice: as is, and with the allocation window closed
//! before every op, so every allocation of the twin goes through
//! `Collector::alloc`. The two must agree on the graph like any pair of
//! lanes and, after every op, on `GcStats` and `MutatorStats` to the
//! cycle — the window is an implementation of the door, not a policy.
//!
//! Any mismatch or oracle panic becomes a [`Divergence`] carrying the
//! seed, the op index and the trace; [`run_seed`] then minimizes the
//! trace with the greedy deletion shrinker before reporting.
//!
//! [`CollectionInspection`]: tilgc_runtime::CollectionInspection

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};

use tilgc_core::{
    build_vm, check_inspection, verify_collection, verify_vm, vm_snapshot, CollectorKind, GcConfig,
    PretenurePolicy,
};
use tilgc_mem::WORD_BYTES;
use tilgc_runtime::driver::{arr_site_id, raw_site_id, rec_site_id, PTR_FREE_REC_INDEX};
use tilgc_runtime::{OpDriver, StepOutcome, Vm, VmOp, WriteBarrier};

use crate::program::generate;
use crate::shrink::minimize;

/// A deliberately injected defect, for validating that the harness
/// actually catches what it claims to catch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Disable the write barrier on every generational lane: old-to-young
    /// stores go unrecorded, so a minor collection loses reachable young
    /// objects — the shadow-tag oracle or the cross-plan diff must trip.
    DropBarrier,
    /// Corrupt the copied-bytes accounting of each collection's
    /// inspection record before cross-checking it — the copy/scan
    /// accounting invariant must trip.
    SkewCopied,
    /// Force allocation attempts to fail at a seed-derived op index (two
    /// forced failures per lane, enough to exhaust the ordinary slow
    /// path and drive the heap-pressure ladder). The run must end in a
    /// typed outcome — a caught `HeapOverflow` or a clean
    /// `VmExit::OutOfMemory` — never a panic.
    OomAlloc,
}

/// One torture run's parameters.
#[derive(Clone, Debug)]
pub struct TortureConfig {
    /// Program length in ops.
    pub ops: usize,
    /// Total heap budget per lane.
    pub heap_budget_bytes: usize,
    /// Nursery size — small values force frequent minor collections.
    pub nursery_bytes: usize,
    /// Large-object threshold — small values route the bigger pointer
    /// and raw arrays through the mark-sweep space.
    pub large_object_bytes: usize,
    /// The plans to run in lockstep (first is the diff baseline).
    pub plans: Vec<CollectorKind>,
    /// Diff the cross-plan snapshots every this many ops (collections
    /// and program end always trigger a diff).
    pub check_stride: usize,
    /// Optional injected defect.
    pub fault: Option<Fault>,
    /// Run extra pretenure lanes with the online adaptive policy
    /// enabled, in lockstep with the static-policy oracle lanes. Sites
    /// flip placement mid-run; the reachable graph must not care.
    pub adaptive: bool,
    /// Pinned op index for the [`Fault::OomAlloc`] injection. `None`
    /// (the default) derives it from the seed and the *current* program
    /// length; the shrinker pins it to the index derived from the
    /// original program so chunk-halving cannot move the fault out from
    /// under the failure it is minimizing.
    pub fault_pin: Option<usize>,
}

impl Default for TortureConfig {
    fn default() -> TortureConfig {
        TortureConfig {
            ops: 512,
            heap_budget_bytes: 1 << 20,
            nursery_bytes: 4 << 10,
            large_object_bytes: 48,
            plans: CollectorKind::ALL.to_vec(),
            check_stride: 16,
            fault: None,
            adaptive: false,
            fault_pin: None,
        }
    }
}

/// A reproduced cross-plan divergence or oracle failure.
#[derive(Clone, Debug)]
pub struct Divergence {
    /// The program seed.
    pub seed: u64,
    /// Index of the op being (or just) executed when the failure fired.
    pub op_index: usize,
    /// Label of the plan that failed or diverged.
    pub plan: &'static str,
    /// Whether the failing lane ran the online adaptive policy.
    pub adaptive: bool,
    /// Whether the failing lane was the `gen+markers` twin that
    /// allocates through the door alone (window closed before every op).
    pub door_only: bool,
    /// What went wrong.
    pub detail: String,
    /// The trace that reproduces the failure (minimized by
    /// [`run_seed`], full-length from [`run_ops`]).
    pub trace: Vec<VmOp>,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "seed {}: plan {}{}{} failed at op {}: {}",
            self.seed,
            self.plan,
            if self.adaptive { " (adaptive)" } else { "" },
            if self.door_only { " (door only)" } else { "" },
            self.op_index,
            self.detail
        )?;
        writeln!(f, "reproducing trace ({} ops):", self.trace.len())?;
        for (i, op) in self.trace.iter().enumerate() {
            writeln!(f, "  [{i:4}] {op:?}")?;
        }
        Ok(())
    }
}

/// One plan's VM plus its driver state.
struct Lane {
    kind: CollectorKind,
    adaptive: bool,
    /// Close the allocation window before every op.
    door_only: bool,
    vm: Vm,
    driver: OpDriver,
}

impl Lane {
    /// Runs one op (an op allocates at most once, so closing the window
    /// here sends a door-only lane's every allocation through the door).
    fn step(&mut self, op: VmOp) -> Result<StepOutcome, tilgc_runtime::VmExit> {
        if self.door_only {
            self.vm.mutator_mut().close_window();
        }
        self.driver.step(&mut self.vm, op)
    }
}

fn build_lane(kind: CollectorKind, adaptive: bool, cfg: &TortureConfig) -> Lane {
    let mut gc = GcConfig::new()
        .heap_budget_bytes(cfg.heap_budget_bytes)
        .nursery_bytes(cfg.nursery_bytes)
        .large_object_bytes(cfg.large_object_bytes);
    if kind == CollectorKind::GenerationalStackPretenure {
        // Pretenure a spread of the driver's sites: two pointer-carrying
        // record sites, the pointer-free record site (the §7.2 no-scan
        // candidate), one pointer-array site and one raw-array site.
        let mut policy = PretenurePolicy::new();
        policy.add_site(rec_site_id(1));
        policy.add_site(rec_site_id(3));
        policy.add_site(rec_site_id(PTR_FREE_REC_INDEX));
        policy.add_no_scan_site(rec_site_id(PTR_FREE_REC_INDEX));
        policy.add_site(arr_site_id(1));
        policy.add_site(raw_site_id(1));
        // The online policy starts from the same static seed the
        // oracle lane keeps, then flips sites as survival evidence
        // accumulates — exercising mid-run placement changes under
        // the full op mix.
        gc = gc.pretenure(policy).adaptive(adaptive);
    }
    let mut vm = build_vm(kind, &gc);
    if cfg.fault == Some(Fault::DropBarrier) && kind != CollectorKind::Semispace {
        vm.mutator_mut().barrier = WriteBarrier::None;
    }
    let driver = OpDriver::install(&mut vm);
    Lane {
        kind,
        adaptive,
        door_only: false,
        vm,
        driver,
    }
}

fn panic_msg(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Silences the default panic hook for the guard's lifetime: the harness
/// converts oracle panics into [`Divergence`]s via `catch_unwind`, and a
/// shrink run replays hundreds of expected failures.
struct QuietPanics {
    prev: Option<PanicHook>,
}

/// The boxed hook type `std::panic::take_hook` returns.
type PanicHook = Box<dyn Fn(&std::panic::PanicHookInfo<'_>) + Sync + Send + 'static>;

impl QuietPanics {
    fn new() -> QuietPanics {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        QuietPanics { prev: Some(prev) }
    }
}

impl Drop for QuietPanics {
    fn drop(&mut self) {
        if let Some(prev) = self.prev.take() {
            std::panic::set_hook(prev);
        }
    }
}

fn diverge(seed: u64, op_index: usize, lane: &Lane, detail: String, ops: &[VmOp]) -> Divergence {
    Divergence {
        seed,
        op_index,
        plan: lane.kind.label(),
        adaptive: lane.adaptive,
        door_only: lane.door_only,
        detail,
        trace: ops.to_vec(),
    }
}

/// Snapshot every lane and diff against the first; `None` means all
/// lanes agree on the reachable graph.
fn diff_lanes(seed: u64, op_index: usize, lanes: &[Lane], ops: &[VmOp]) -> Option<Divergence> {
    let mut base: Option<(&'static str, Vec<u64>)> = None;
    for lane in lanes {
        let snap = match catch_unwind(AssertUnwindSafe(|| vm_snapshot(&lane.vm))) {
            Ok(snap) => snap,
            Err(p) => {
                return Some(diverge(
                    seed,
                    op_index,
                    lane,
                    format!("snapshot walk panicked: {}", panic_msg(&*p)),
                    ops,
                ))
            }
        };
        match &base {
            None => base = Some((lane.kind.label(), snap)),
            Some((base_label, base_snap)) => {
                if snap != *base_snap {
                    return Some(diverge(
                        seed,
                        op_index,
                        lane,
                        format!(
                            "reachable graph diverged from {} ({} vs {} snapshot words)",
                            base_label,
                            snap.len(),
                            base_snap.len()
                        ),
                        ops,
                    ));
                }
            }
        }
    }
    None
}

/// SplitMix64 finalizer — derives the [`Fault::OomAlloc`] injection
/// point from the seed, independent of the program generator's stream.
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// How a lockstep replay ended.
#[derive(Clone, Debug)]
pub enum RunOutcome {
    /// Every op ran; no lane saw heap exhaustion.
    Clean,
    /// A lane hit heap exhaustion but stayed panic-free: either the
    /// guest caught the `HeapOverflow` (`fatal: false`) or the VM exited
    /// with a typed `VmExit::OutOfMemory` (`fatal: true`). Cross-plan
    /// diffing stops at the first exhaustion — an out-of-memory lane's
    /// graph legitimately differs from the others'.
    Oom {
        /// Label of the first lane that exhausted.
        plan: &'static str,
        /// Op index at which it exhausted.
        op_index: usize,
        /// Whether the exhaustion terminated the VM (uncaught raise).
        fatal: bool,
    },
    /// A panic, oracle failure, or cross-plan divergence.
    Diverged(Divergence),
}

/// Replays `ops` against every configured plan in lockstep and reports
/// how the run ended. The trace inside a [`RunOutcome::Diverged`] is
/// `ops` itself (unminimized).
pub fn run_ops_outcome(seed: u64, ops: &[VmOp], cfg: &TortureConfig) -> RunOutcome {
    assert!(!cfg.plans.is_empty(), "at least one plan required");
    let mut lanes: Vec<Lane> = Vec::new();
    for &k in &cfg.plans {
        lanes.push(build_lane(k, false, cfg));
        // Adaptive lanes run alongside the static-policy oracle lanes:
        // placement flips must be invisible to the reachable graph, so
        // the same cross-lane diff covers them.
        if cfg.adaptive && k == CollectorKind::GenerationalStackPretenure {
            lanes.push(build_lane(k, true, cfg));
        }
    }
    // The door-only twin of the serial `gen+markers` lane.
    let twin = lanes
        .iter()
        .position(|l| l.kind == CollectorKind::GenerationalStack)
        .map(|oracle| {
            let mut lane = build_lane(CollectorKind::GenerationalStack, false, cfg);
            lane.door_only = true;
            lanes.push(lane);
            (oracle, lanes.len() - 1)
        });
    let stride = cfg.check_stride.max(1);
    let inject_at = (cfg.fault == Some(Fault::OomAlloc) && !ops.is_empty()).then(|| {
        cfg.fault_pin
            .unwrap_or_else(|| (splitmix(seed) % ops.len() as u64) as usize)
    });
    let mut oom: Option<(&'static str, usize, bool)> = None;
    'program: for (i, &op) in ops.iter().enumerate() {
        if Some(i) == inject_at {
            for lane in &mut lanes {
                // Two forced failures: one for the fast path, one for
                // the ordinary slow-path retry — the third attempt is
                // real, so the pressure ladder decides the outcome.
                lane.vm.mutator_mut().inject_alloc_failures(2);
            }
        }
        let mut collected = false;
        for lane in &mut lanes {
            let collections_before = lane.vm.gc_stats().collections;
            let alloc_before = lane.vm.mutator_stats().alloc_bytes;
            let stepped = catch_unwind(AssertUnwindSafe(|| lane.step(op)));
            match stepped {
                Err(p) => {
                    return RunOutcome::Diverged(diverge(
                        seed,
                        i,
                        lane,
                        format!("panic executing {op:?}: {}", panic_msg(&*p)),
                        ops,
                    ));
                }
                Ok(Err(_exit)) => {
                    // Typed out-of-memory termination: the graceful end
                    // state the governor guarantees. The lane's VM is
                    // done; end the seed for every lane.
                    oom.get_or_insert((lane.kind.label(), i, true));
                    break 'program;
                }
                Ok(Ok(StepOutcome::OomCaught)) => {
                    // The guest's handler caught the overflow and the
                    // lane keeps running — but its graph now (correctly)
                    // differs from lanes that did not exhaust, so stop
                    // cross-plan diffing.
                    oom.get_or_insert((lane.kind.label(), i, false));
                }
                Ok(Ok(StepOutcome::Ran)) => {}
            }
            if lane.vm.gc_stats().collections == collections_before {
                continue;
            }
            collected = true;
            // An op performs at most one allocation, and an
            // allocation-triggered collection runs before the object is
            // materialized — so this op's whole allocation delta postdates
            // the collection and bounds the oracle's slack.
            let slack = lane.vm.mutator_stats().alloc_bytes - alloc_before;
            let verified = catch_unwind(AssertUnwindSafe(|| {
                verify_collection(&lane.vm, slack);
            }));
            if let Err(p) = verified {
                return RunOutcome::Diverged(diverge(
                    seed,
                    i,
                    lane,
                    format!("oracle check failed after collection: {}", panic_msg(&*p)),
                    ops,
                ));
            }
            if cfg.fault == Some(Fault::SkewCopied) {
                if let Some(d) = skewed_accounting_check(seed, i, lane, slack, ops) {
                    return RunOutcome::Diverged(d);
                }
            }
        }
        if let Some((oracle, twin)) = twin {
            let counters = |lane: &Lane| {
                let vm = &lane.vm;
                (vm.gc_stats().without_host_time(), *vm.mutator_stats())
            };
            let (window, door) = (counters(&lanes[oracle]), counters(&lanes[twin]));
            if window != door {
                let detail =
                    format!("door and window disagree on the counters: {door:?} vs {window:?}");
                return RunOutcome::Diverged(diverge(seed, i, &lanes[twin], detail, ops));
            }
        }
        if oom.is_none() && (collected || (i + 1) % stride == 0 || i + 1 == ops.len()) {
            if let Some(d) = diff_lanes(seed, i, &lanes, ops) {
                return RunOutcome::Diverged(d);
            }
        }
    }
    match oom {
        Some((plan, op_index, fatal)) => RunOutcome::Oom {
            plan,
            op_index,
            fatal,
        },
        None => RunOutcome::Clean,
    }
}

/// Replays `ops` against every configured plan in lockstep and returns
/// the first failure, if any. Heap exhaustion (caught or typed-fatal) is
/// not a failure — see [`run_ops_outcome`] for the full report.
pub fn run_ops(seed: u64, ops: &[VmOp], cfg: &TortureConfig) -> Option<Divergence> {
    match run_ops_outcome(seed, ops, cfg) {
        RunOutcome::Diverged(d) => Some(d),
        RunOutcome::Clean | RunOutcome::Oom { .. } => None,
    }
}

/// The [`Fault::SkewCopied`] injection: re-run the inspection cross-check
/// with the copied-bytes figure corrupted past what the scan accounting
/// can justify. [`check_inspection`] MUST panic; the "divergence" it
/// reports is the harness catching the planted bug (so the shrinker has
/// a failure to minimize). Not panicking means the oracle is toothless —
/// reported as a divergence too, with a distinct detail.
fn skewed_accounting_check(
    seed: u64,
    op_index: usize,
    lane: &Lane,
    slack: u64,
    ops: &[VmOp],
) -> Option<Divergence> {
    let insp = lane.vm.collector().last_inspection()?;
    let mut bad = *insp;
    bad.copied_bytes = bad.scanned_words * WORD_BYTES as u64 + WORD_BYTES as u64;
    let report = verify_vm(&lane.vm);
    match catch_unwind(AssertUnwindSafe(|| check_inspection(&report, &bad, slack))) {
        Err(p) => Some(diverge(
            seed,
            op_index,
            lane,
            format!("injected accounting skew caught: {}", panic_msg(&*p)),
            ops,
        )),
        Ok(()) => Some(diverge(
            seed,
            op_index,
            lane,
            "injected accounting skew NOT caught by check_inspection".to_string(),
            ops,
        )),
    }
}

/// Replays a divergence's trace on the failing plan alone with the
/// telemetry recorder attached and returns the collection event stream
/// as JSONL, ready to append to a failure report. The replay stops where
/// the original failure panics (expected — the trace reproduces a
/// defect), keeping every event recorded up to that point.
///
/// Telemetry is recorded host-side only and charges no simulated cycles,
/// so the replayed lane's collection timeline is exactly the failing
/// run's.
pub fn failure_telemetry(d: &Divergence, cfg: &TortureConfig) -> String {
    let Some(kind) = CollectorKind::ALL
        .iter()
        .copied()
        .find(|k| k.label() == d.plan)
    else {
        return format!(
            "--- telemetry replay (0 events, 0 dropped) ---\nunknown plan {:?}\n",
            d.plan
        );
    };
    let _quiet = QuietPanics::new();
    let mut lane = build_lane(kind, d.adaptive, cfg);
    lane.door_only = d.door_only;
    lane.vm
        .set_recorder(Box::new(tilgc_obs::RingRecorder::with_capacity(1 << 16)));
    for &op in &d.trace {
        let stepped = catch_unwind(AssertUnwindSafe(|| lane.step(op)));
        match stepped {
            Ok(Ok(_)) => {}
            // A panic or a typed out-of-memory exit both end the replay;
            // everything recorded so far is kept.
            Ok(Err(_)) | Err(_) => break,
        }
    }
    let events =
        tilgc_obs::RingRecorder::drain_events_from(lane.vm.recorder_mut()).unwrap_or_default();
    // The drop count makes a truncated replay detectable: a nonzero
    // figure means the ring wrapped and the JSONL below starts mid-run.
    let dropped = match lane
        .vm
        .recorder_mut()
        .as_any_mut()
        .downcast_mut::<tilgc_obs::RingRecorder>()
    {
        Some(r) => r.dropped(),
        None => 0,
    };
    let sites: Vec<(u16, String)> = lane
        .vm
        .mutator()
        .sites
        .iter()
        .map(|(id, name)| (id.get(), name.to_string()))
        .collect();
    let clock_hz = tilgc_runtime::CostModel::default().clock_hz;
    let mut out = format!(
        "--- telemetry replay ({} events, {dropped} dropped) ---\n",
        events.len()
    );
    out.push_str(&tilgc_obs::jsonl::render(
        kind.label(),
        "torture",
        clock_hz,
        &sites,
        &events,
    ));
    out
}

/// Result of a [`budget_sweep`]: the smallest heap budget (within the
/// probed range) under which the seed's program runs to completion with
/// no lane exhausting.
#[derive(Clone, Copy, Debug)]
pub struct SweepReport {
    /// The program seed swept.
    pub seed: u64,
    /// Smallest surviving budget found by the binary search, or `None`
    /// if even the configured ceiling (`cfg.heap_budget_bytes`)
    /// exhausts.
    pub minimal_budget_bytes: Option<usize>,
    /// How many lockstep replays the search spent.
    pub probes: usize,
}

/// Smallest budget the sweep will probe. Below this the nursery clamp
/// dominates and every plan exhausts on the first bursts.
pub const SWEEP_FLOOR_BYTES: usize = 8 << 10;

/// Binary-searches the minimal heap budget (in `SWEEP_FLOOR_BYTES ..=
/// cfg.heap_budget_bytes`) under which seed `seed`'s program survives on
/// every plan — mapping the graceful-degradation frontier rather than
/// assuming one budget fits all seeds. Survival is monotone in the
/// budget for these append-mostly programs, which is what makes the
/// bisection sound. A cross-plan divergence or oracle panic during any
/// probe is a real bug and aborts the sweep.
pub fn budget_sweep(seed: u64, cfg: &TortureConfig) -> Result<SweepReport, Divergence> {
    let _quiet = QuietPanics::new();
    let ops = generate(seed, cfg.ops);
    let mut probes = 0usize;
    let mut probe = |budget: usize| -> Result<bool, Divergence> {
        probes += 1;
        let mut probe_cfg = cfg.clone();
        probe_cfg.heap_budget_bytes = budget;
        probe_cfg.fault = None;
        match run_ops_outcome(seed, &ops, &probe_cfg) {
            RunOutcome::Clean => Ok(true),
            RunOutcome::Oom { .. } => Ok(false),
            RunOutcome::Diverged(d) => Err(d),
        }
    };
    let ceiling = cfg.heap_budget_bytes.max(SWEEP_FLOOR_BYTES);
    if !probe(ceiling)? {
        return Ok(SweepReport {
            seed,
            minimal_budget_bytes: None,
            probes,
        });
    }
    let (mut lo, mut hi) = (SWEEP_FLOOR_BYTES, ceiling);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if probe(mid)? {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    Ok(SweepReport {
        seed,
        minimal_budget_bytes: Some(lo),
        probes,
    })
}

/// Generates, runs, and — on failure — minimizes one seed. Returns the
/// divergence with its minimized reproducing trace, or `None` for a
/// clean run.
pub fn run_seed(seed: u64, cfg: &TortureConfig) -> Option<Divergence> {
    let _quiet = QuietPanics::new();
    let ops = generate(seed, cfg.ops);
    let full = run_ops(seed, &ops, cfg)?;
    // Pin the seed-derived injection point to the *original* program
    // length before shrinking: without the pin, every chunk deletion
    // would recompute `splitmix(seed) % len` against the shorter
    // candidate and the fault would wander — the shrinker would then be
    // minimizing a different failure each probe (or none at all).
    let mut shrink_cfg = cfg.clone();
    if cfg.fault == Some(Fault::OomAlloc) && cfg.fault_pin.is_none() && !ops.is_empty() {
        shrink_cfg.fault_pin = Some((splitmix(seed) % ops.len() as u64) as usize);
    }
    let min = minimize(&ops, |cand| run_ops(seed, cand, &shrink_cfg).is_some());
    // Re-run the minimized trace so op index and detail describe it, not
    // the original program.
    Some(run_ops(seed, &min, &shrink_cfg).unwrap_or(full))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lanes_start_identical() {
        let cfg = TortureConfig::default();
        let lanes: Vec<Lane> = cfg
            .plans
            .iter()
            .map(|&k| build_lane(k, false, &cfg))
            .collect();
        assert!(diff_lanes(0, 0, &lanes, &[]).is_none());
    }

    #[test]
    fn divergence_display_includes_trace() {
        let d = Divergence {
            seed: 9,
            op_index: 1,
            plan: "semispace",
            adaptive: true,
            door_only: false,
            detail: "boom".into(),
            trace: vec![VmOp::Gc, VmOp::Pop],
        };
        let s = d.to_string();
        assert!(s.contains("seed 9"));
        assert!(s.contains("(adaptive)"));
        assert!(s.contains("Gc"));
        assert!(s.contains("Pop"));
    }

    #[test]
    fn adaptive_config_adds_pretenure_lanes() {
        let cfg = TortureConfig {
            adaptive: true,
            ops: 64,
            ..TortureConfig::default()
        };
        // 4 plans + an adaptive pretenure lane + the door-only twin. A
        // short clean run proves the lanes coexist.
        let ops = crate::program::generate(7, cfg.ops);
        assert!(matches!(
            run_ops_outcome(7, &ops, &cfg),
            RunOutcome::Clean | RunOutcome::Oom { .. }
        ));
    }
}
