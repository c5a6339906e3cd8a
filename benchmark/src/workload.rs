//! The eight workloads: what each runs, why it exists, the reference
//! answers it is checked against, and how one pass of it is executed.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use tilgc_core::{build_vm, build_vm_with_recorder, CollectorKind, GcConfig, PretenurePolicy};
use tilgc_mem::SiteId;
use tilgc_obs::{Event, Recorder, RingRecorder};
use tilgc_programs::Benchmark;
use tilgc_runtime::{GcStats, MutatorStats, Vm};

use crate::churn::{ChurnSize, ChurnStream};
use crate::deepstack::{StackSize, StackStream, DEPTH};
use crate::storm::{StormSize, StormStream};
use crate::trace::Tracer;

/// A check the traced run must pass for the workload to still measure
/// what it was built to measure (`--check`).
#[derive(Clone, Copy, Debug)]
pub struct Dominance {
    /// A per-layer metric name.
    pub metric: &'static str,
    /// `true`: the metric must be at least `value`; `false`: at most.
    pub at_least: bool,
    /// The threshold.
    pub value: f64,
}

const fn at_least(metric: &'static str, value: f64) -> Dominance {
    Dominance {
        metric,
        at_least: true,
        value,
    }
}

const fn at_most(metric: &'static str, value: f64) -> Dominance {
    Dominance {
        metric,
        at_least: false,
        value,
    }
}

/// One benchmark workload.
#[derive(Debug)]
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why the workload exists (one line, also in `BENCHMARK.json`).
    pub why: &'static str,
    /// Fresh processes one `--trace 0` run measures in: each pays its
    /// own set-up and warm-up, and `setup_s` is the median over them.
    pub rounds: usize,
    /// The shape the traced run must confirm.
    pub dominance: &'static [Dominance],
}

/// Every workload, in reporting order.
pub const WORKLOADS: [Workload; 8] = [
    Workload {
        name: "table5",
        why: "Color, Knuth-Bendix, Nqueen, PIA under gen+markers in a roomy 192 MB heap: \
              build_vm and mutator bound, the BENCH_pr6-pr10 lane; GC-kernel changes predict no change",
        rounds: 3,
        dominance: &[
            at_least("ledger.build_share", 0.30),
            at_least("ledger.mutator_share", 0.40),
            at_most("ledger.gc_share", 0.15),
        ],
    },
    Workload {
        name: "paper-k2",
        why: "all 11 paper programs under all 4 plans at budgets of 2 x Min: tight heaps, frequent \
              majors, over 90 % mutator; the bypass workload for collector-side changes",
        rounds: 1,
        dominance: &[at_least("ledger.mutator_share", 0.90)],
    },
    Workload {
        name: "churn-semi",
        why: "survivor churn of flat records and nodes under semispace in 12 MB: pure evacuation \
              through SemispacePlan, Cheney copy dominates GC",
        rounds: 3,
        dominance: &[
            at_least("ledger.gc_share", 0.55),
            at_least("ledger.copy_share_of_gc", 0.90),
        ],
    },
    Workload {
        name: "churn-gen",
        why: "the same churn stream under generational, 16 MB with a 1 MB nursery: promotion, SSB \
              filtering and majors use the copy kernel the other way",
        rounds: 3,
        dominance: &[
            at_least("ledger.gc_share", 0.40),
            at_least("ledger.copy_share_of_gc", 0.50),
            at_least("ledger.barrier_share_of_gc", 0.10),
        ],
    },
    Workload {
        name: "churn-par",
        why: "churn-gen with 2 GC workers: the only workload where the work-packet scheduler runs; \
              judged against churn-gen",
        rounds: 3,
        dominance: &[at_least("core.sched.par_collections_ratio", 0.95)],
    },
    Workload {
        name: "stack-rescan",
        why: "4000-frame stack with a churning top under generational without markers: every minor \
              collection decodes the whole stack",
        rounds: 3,
        dominance: &[
            at_least("ledger.gc_share", 0.65),
            at_least("ledger.stack_share_of_gc", 0.95),
        ],
    },
    Workload {
        name: "stack-markers",
        why: "the same stack stream, 4 x the rounds, under gen+markers: nearly all frames reused; \
              what remains is marker upkeep, watermark and push/pop cost",
        rounds: 3,
        dominance: &[
            at_least("core.frame_reuse_ratio", 0.95),
            at_most("ledger.gc_share", 0.20),
        ],
    },
    Workload {
        name: "barrier-storm",
        why: "young cells stored 8 x each into a tenured table, half spread and half aimed at 16 \
              hot slots: store_ptr and SSB on the mutator side, barrier-filter on the GC side",
        rounds: 3,
        dominance: &[
            at_least("ledger.gc_share", 0.30),
            at_least("ledger.barrier_share_of_gc", 0.60),
        ],
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The Table 5 programs, in `bench-json`'s `HEADLINERS` order.
pub const TABLE5_PROGRAMS: [Benchmark; 4] = [
    Benchmark::Color,
    Benchmark::KnuthBendix,
    Benchmark::Nqueen,
    Benchmark::Pia,
];

/// `paper-k2` heap budgets in bytes, in `Benchmark::ALL` order: 2 × Min
/// (Min = 2 × max live under semispace), floored at 48 KB and grown in
/// +25 % steps until all four plans run pressure-free — the
/// `experiments` harness's `Calibration` rule, evaluated once at the
/// commit that added the benchmark and frozen here so the inputs do not
/// move with the code under test.
pub const K2_BUDGETS: [usize; 11] = [
    49_152, 60_672, 76_800, 109_504, 1_826_176, 1_252_704, 49_152, 512_640, 49_152, 166_784,
    150_000,
];

/// A heap so large that no paper program ever collects in it.
const NO_GC_BUDGET: usize = 80 << 20;

/// The standard experiment configuration at `budget` bytes.
fn paper_config(budget: usize) -> GcConfig {
    GcConfig::new()
        .heap_budget_bytes(budget)
        .nursery_bytes((32usize << 10).min(budget / 3).max(4 << 10))
        .large_object_bytes(4 << 10)
}

fn synthetic_config(budget_mb: usize, nursery_kb: usize) -> GcConfig {
    GcConfig::new()
        .heap_budget_bytes(budget_mb << 20)
        .nursery_bytes(nursery_kb << 10)
}

/// Work sizes of the synthetic streams. [`Sizes::FULL`] is what the
/// benchmark measures; tests shrink them.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// The churn stream.
    pub churn: ChurnSize,
    /// The deep-stack stream (`stack-markers` repeats it 4 × more).
    pub stack: StackSize,
    /// The barrier stream.
    pub storm: StormSize,
}

impl Sizes {
    /// The benchmark's sizes.
    pub const FULL: Sizes = Sizes {
        churn: ChurnSize {
            units: 1024,
            repeat: 8,
        },
        stack: StackSize {
            depth: DEPTH,
            rounds: 4096,
            repeat: 3,
        },
        storm: StormSize {
            units: 1024,
            repeat: 24,
        },
    };
}

/// A generated synthetic op stream.
#[derive(Clone, Debug)]
pub enum Stream {
    /// Survivor churn.
    Churn(ChurnStream),
    /// Deep stack.
    Stack(StackStream),
    /// Write-barrier storm.
    Storm(StormStream),
}

impl Stream {
    /// A hash of everything the generator produced.
    pub fn hash(&self) -> u64 {
        match self {
            Stream::Churn(s) => s.hash(),
            Stream::Stack(s) => s.hash(),
            Stream::Storm(s) => s.hash(),
        }
    }

    /// The checksum [`run`](Stream::run) must produce, from a replay of
    /// the ops on plain Rust vectors.
    pub fn model(&self) -> u64 {
        match self {
            Stream::Churn(s) => s.model(),
            Stream::Stack(s) => s.model(),
            Stream::Storm(s) => s.model(),
        }
    }

    /// Runs one pass of the stream on `vm`; returns its checksum.
    pub fn run<T: Tracer>(&self, vm: &mut Vm, tracer: &mut T) -> u64 {
        match self {
            Stream::Churn(s) => s.run(vm, tracer),
            Stream::Stack(s) => s.run(vm, tracer),
            Stream::Storm(s) => s.run(vm, tracer),
        }
    }
}

/// What a run executes on its `Vm`.
#[derive(Clone, Debug)]
pub enum Body {
    /// One of the paper's programs at scale 1 (fixed input).
    Program(Benchmark),
    /// A synthetic op stream.
    Stream(Stream),
}

/// One program or stream execution on a fresh `Vm`.
#[derive(Clone, Debug)]
pub struct RunSpec {
    /// `program/plan` label for reports and spans.
    pub label: String,
    /// The collector plan.
    pub kind: CollectorKind,
    /// Its configuration.
    pub config: GcConfig,
    /// What runs.
    pub body: Body,
    /// Index into [`Oracle::checksums`].
    pub answer: usize,
}

/// Reference answers, none of which comes from a collector under test:
/// a host-side model replay for the synthetic streams, a run that never
/// collects for the paper programs.
#[derive(Clone, Debug, PartialEq)]
pub struct Oracle {
    /// Hash of the generated op stream (0 for the paper programs).
    pub stream_hash: u64,
    /// Expected checksums, one per distinct program or stream.
    pub checksums: Vec<u64>,
    /// Pretenured sites per program (`paper-k2` only).
    pub policies: Vec<Vec<u16>>,
    /// Seconds spent deriving `policies`.
    pub derive_policy_s: f64,
}

impl Oracle {
    /// One command-line argument carrying the oracle to a child.
    pub fn to_arg(&self) -> String {
        let checksums: Vec<String> = self.checksums.iter().map(|c| format!("{c:x}")).collect();
        let policies: Vec<String> = self
            .policies
            .iter()
            .map(|p| {
                let sites: Vec<String> = p.iter().map(|s| s.to_string()).collect();
                sites.join(".")
            })
            .collect();
        format!(
            "{:x}:{}:{}:{}",
            self.stream_hash,
            checksums.join(","),
            policies.join(","),
            self.derive_policy_s
        )
    }

    /// Parses [`to_arg`](Oracle::to_arg)'s output.
    pub fn from_arg(arg: &str) -> Result<Oracle, String> {
        let bad = || format!("malformed oracle argument {arg:?}");
        let parts: Vec<&str> = arg.split(':').collect();
        let [hash, checksums, policies, derive] = parts[..] else {
            return Err(bad());
        };
        let hex = |s: &str| u64::from_str_radix(s, 16).map_err(|_| bad());
        let policies = if policies.is_empty() {
            Vec::new()
        } else {
            policies
                .split(',')
                .map(|p| {
                    p.split('.')
                        .filter(|s| !s.is_empty())
                        .map(|s| s.parse::<u16>().map_err(|_| bad()))
                        .collect::<Result<Vec<u16>, String>>()
                })
                .collect::<Result<_, _>>()?
        };
        Ok(Oracle {
            stream_hash: hex(hash)?,
            checksums: checksums.split(',').map(hex).collect::<Result<_, _>>()?,
            policies,
            derive_policy_s: derive.parse().map_err(|_| bad())?,
        })
    }
}

/// Runs `bench` in a heap it never fills, asserting that no collection
/// happened: the answer owes nothing to any collector.
fn no_gc_answer(bench: Benchmark) -> u64 {
    let mut vm = build_vm(CollectorKind::Semispace, &paper_config(NO_GC_BUDGET));
    vm.mutator_mut().check_shadows = false;
    let checksum = bench.run(&mut vm, 1);
    vm.finish();
    assert_eq!(
        vm.gc_stats().collections,
        0,
        "{} collected in the no-GC reference heap",
        bench.name()
    );
    checksum
}

/// Derives the paper's old% >= 80 pretenuring policy from a profiling
/// run, as the `experiments` harness does for Table 6.
fn derive_policy_sites(bench: Benchmark) -> Vec<u16> {
    let config = GcConfig::new()
        .heap_budget_bytes(192 << 20)
        .nursery_bytes(32 << 10)
        .profiling(true);
    let mut vm = build_vm(CollectorKind::GenerationalStack, &config);
    vm.mutator_mut().check_shadows = false;
    bench.run(&mut vm, 1);
    vm.finish();
    let profile = vm.take_profile().expect("profiling was enabled");
    tilgc_profile::derive_policy(&profile, &tilgc_profile::PolicyOptions::default())
        .sites()
        .map(SiteId::get)
        .collect()
}

/// Generates the workload's op stream from the seed (none for the paper
/// programs, whose inputs are fixed).
pub fn generate(workload: &Workload, seed: u64, sizes: &Sizes) -> Option<Stream> {
    match workload.name {
        "table5" | "paper-k2" => None,
        "churn-semi" | "churn-gen" | "churn-par" => {
            Some(Stream::Churn(ChurnStream::generate(seed, sizes.churn)))
        }
        "stack-rescan" => Some(Stream::Stack(StackStream::generate(seed, sizes.stack))),
        "stack-markers" => Some(Stream::Stack(StackStream::generate(
            seed,
            StackSize {
                repeat: 4 * sizes.stack.repeat,
                ..sizes.stack
            },
        ))),
        "barrier-storm" => Some(Stream::Storm(StormStream::generate(seed, sizes.storm))),
        other => unreachable!("unknown workload {other}"),
    }
}

/// Computes the reference answers of `workload` for `stream`.
pub fn oracle(workload: &Workload, stream: Option<&Stream>) -> Oracle {
    let mut oracle = Oracle {
        stream_hash: 0,
        checksums: Vec::new(),
        policies: Vec::new(),
        derive_policy_s: 0.0,
    };
    match stream {
        Some(s) => {
            oracle.stream_hash = s.hash();
            oracle.checksums = vec![s.model()];
        }
        None if workload.name == "table5" => {
            oracle.checksums = TABLE5_PROGRAMS.iter().map(|&b| no_gc_answer(b)).collect();
        }
        None => {
            oracle.checksums = Benchmark::ALL.iter().map(|&b| no_gc_answer(b)).collect();
            let t = Instant::now();
            oracle.policies = Benchmark::ALL
                .iter()
                .map(|&b| derive_policy_sites(b))
                .collect();
            oracle.derive_policy_s = t.elapsed().as_secs_f64();
        }
    }
    oracle
}

/// The runs of one pass of `workload`.
pub fn plan_runs(workload: &Workload, stream: Option<Stream>, oracle: &Oracle) -> Vec<RunSpec> {
    if let Some(stream) = stream {
        let (kind, config) = match workload.name {
            "churn-semi" => (CollectorKind::Semispace, synthetic_config(12, 512)),
            "churn-gen" => (CollectorKind::Generational, synthetic_config(16, 1024)),
            "churn-par" => (
                CollectorKind::Generational,
                synthetic_config(16, 1024).workers(2),
            ),
            "stack-rescan" | "barrier-storm" => {
                (CollectorKind::Generational, synthetic_config(16, 32))
            }
            "stack-markers" => (CollectorKind::GenerationalStack, synthetic_config(16, 32)),
            other => unreachable!("workload {other} runs no stream"),
        };
        return vec![RunSpec {
            label: format!("stream/{}", kind.label()),
            kind,
            config,
            body: Body::Stream(stream),
            answer: 0,
        }];
    }
    if workload.name == "table5" {
        return TABLE5_PROGRAMS
            .iter()
            .enumerate()
            .map(|(i, &b)| RunSpec {
                label: format!("{}/{}", b.name(), CollectorKind::GenerationalStack.label()),
                kind: CollectorKind::GenerationalStack,
                config: paper_config(192 << 20),
                body: Body::Program(b),
                answer: i,
            })
            .collect();
    }
    let mut runs = Vec::new();
    for (i, &b) in Benchmark::ALL.iter().enumerate() {
        for kind in CollectorKind::ALL {
            let mut config = paper_config(K2_BUDGETS[i]);
            if kind == CollectorKind::GenerationalStackPretenure {
                let policy: PretenurePolicy =
                    oracle.policies[i].iter().map(|&s| SiteId::new(s)).collect();
                config = config.pretenure(policy);
            }
            runs.push(RunSpec {
                label: format!("{}/{}", b.name(), kind.label()),
                kind,
                config,
                body: Body::Program(b),
                answer: i,
            });
        }
    }
    runs
}

/// What the recorder of a pass's `Vm`s keeps.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Recording {
    /// The default `NullRecorder`: timed passes.
    Off,
    /// Pause brackets only, folded as they arrive (the warm-up pass).
    Pauses,
    /// Every event, in a `RingRecorder` (the traced pass).
    Events,
}

/// The pause timeline of one run on the simulated clock: each
/// collection's `[start, end)` in cycles since the run began (client
/// cycles stand still during a collection), and where the run ended.
#[derive(Clone, Debug, Default)]
pub struct PauseTimeline {
    /// One bracket per collection, in order.
    pub pauses: Vec<(u64, u64)>,
    /// Client + GC cycles of the whole run.
    pub horizon: u64,
}

/// A recorder that keeps nothing but the pause timeline.
#[derive(Debug, Default)]
struct PauseRecorder {
    open: u64,
    timeline: PauseTimeline,
}

impl Recorder for PauseRecorder {
    fn is_enabled(&self) -> bool {
        true
    }

    fn record(&mut self, event: Event) {
        match event {
            Event::CollectionBegin(b) => self.open = b.start_cycles,
            Event::CollectionEnd(e) => self.timeline.pauses.push((self.open, e.end_cycles)),
            _ => {}
        }
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Ring capacity of the traced pass: far above any workload's event
/// count, so nothing is dropped (and `obs.dropped` checks it).
const RING_CAPACITY: usize = 1 << 24;

/// The outcome of one run.
#[derive(Clone, Debug, Default)]
pub struct RunResult {
    /// Why the run failed, if it did.
    pub failure: Option<String>,
    /// Collector statistics at the end of the run.
    pub gc: GcStats,
    /// Mutator statistics at the end of the run.
    pub mutator: MutatorStats,
    /// Host ns in `build_vm`.
    pub build_ns: u64,
    /// Words of simulated heap the `Vm` reserved.
    pub heap_words: u64,
    /// Pause timeline ([`Recording::Pauses`]).
    pub pauses: PauseTimeline,
    /// Events recorded ([`Recording::Events`]).
    pub event_count: u64,
    /// The recorded events and the `programs.run` span they belong
    /// under, until the pass is over and they are turned into spans.
    events: (crate::trace::SpanId, Vec<Event>),
    /// Events the ring dropped.
    pub dropped: u64,
}

/// The outcome of one pass.
#[derive(Clone, Debug, Default)]
pub struct PassResult {
    /// Host ns from the first `build_vm` to the last `Vm` dropped.
    pub wall_ns: u64,
    /// One entry per run, in [`plan_runs`] order.
    pub runs: Vec<RunResult>,
}

fn run_one<T: Tracer>(
    spec: &RunSpec,
    oracle: &Oracle,
    recording: Recording,
    check_shadows: bool,
    tracer: &mut T,
) -> RunResult {
    let mut out = RunResult::default();
    let span = tracer.open("core.build_vm", &spec.label);
    let t = Instant::now();
    let mut vm = match recording {
        Recording::Off => build_vm(spec.kind, &spec.config),
        Recording::Pauses => {
            build_vm_with_recorder(spec.kind, &spec.config, Box::<PauseRecorder>::default())
        }
        Recording::Events => build_vm_with_recorder(
            spec.kind,
            &spec.config,
            Box::new(RingRecorder::with_capacity(RING_CAPACITY)),
        ),
    };
    out.build_ns = t.elapsed().as_nanos() as u64;
    tracer.close(span);
    vm.mutator_mut().check_shadows = check_shadows;
    out.heap_words = vm.mem().capacity_words() as u64;

    let span = tracer.open("programs.run", &spec.label);
    let checksum = match &spec.body {
        Body::Program(b) => b.run(&mut vm, 1),
        Body::Stream(s) => s.run(&mut vm, tracer),
    };
    tracer.close(span);

    let teardown = tracer.open("core.teardown", &spec.label);
    vm.finish();
    out.gc = *vm.gc_stats();
    out.mutator = *vm.mutator_stats();
    let recorder = vm.recorder_mut().as_any_mut();
    if let Some(r) = recorder.downcast_mut::<PauseRecorder>() {
        out.pauses = std::mem::take(&mut r.timeline);
        out.pauses.horizon = out.mutator.client_cycles + out.gc.gc_cycles();
    } else if let Some(r) = recorder.downcast_mut::<RingRecorder>() {
        out.dropped = r.dropped();
        out.events = (span, r.drain());
        out.event_count = out.events.1.len() as u64;
    }
    drop(vm);
    tracer.close(teardown);

    let expected = oracle.checksums[spec.answer];
    let gc = &out.gc;
    out.failure = if checksum != expected {
        Some(format!(
            "{}: checksum {checksum:#x}, reference {expected:#x}",
            spec.label
        ))
    } else if gc.pressure_episodes + gc.budget_overruns + gc.workers_lost + gc.degraded_collections
        != 0
    {
        Some(format!(
            "{}: pressure_episodes {} budget_overruns {} workers_lost {} degraded_collections {}",
            spec.label,
            gc.pressure_episodes,
            gc.budget_overruns,
            gc.workers_lost,
            gc.degraded_collections
        ))
    } else if out.dropped != 0 {
        Some(format!(
            "{}: recorder dropped {} events",
            spec.label, out.dropped
        ))
    } else {
        None
    };
    out
}

/// Runs one pass. A run that panics (a failed allocation, a collector
/// assertion) is a counted failure of that run, not of the process.
pub fn run_pass<T: Tracer>(
    runs: &[RunSpec],
    oracle: &Oracle,
    recording: Recording,
    check_shadows: bool,
    tracer: &mut T,
) -> PassResult {
    let pass = tracer.open("pass", "");
    let start = Instant::now();
    let mut results: Vec<RunResult> = runs
        .iter()
        .map(|spec| {
            let depth = tracer.open_depth();
            catch_unwind(AssertUnwindSafe(|| {
                run_one(spec, oracle, recording, check_shadows, tracer)
            }))
            .unwrap_or_else(|panic| {
                tracer.close_to(depth);
                let message = panic
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| panic.downcast_ref::<&str>().copied())
                    .unwrap_or("panic");
                RunResult {
                    failure: Some(format!("{}: panicked: {message}", spec.label)),
                    ..RunResult::default()
                }
            })
        })
        .collect();
    let wall_ns = start.elapsed().as_nanos() as u64;
    tracer.close(pass);
    // Turning events into spans is the tracer's work, not the pass's.
    for run in &mut results {
        let (span, events) = std::mem::take(&mut run.events);
        tracer.collections(span, &events);
    }
    PassResult {
        wall_ns,
        runs: results,
    }
}
