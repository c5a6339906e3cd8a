//! The benchmark's own span recorder: spans around every call into a
//! layer, taken from outside the library.
//!
//! The span tree of one traced pass is
//! `workload` → `pass` → `core.build_vm` | `programs.run` | `core.teardown`;
//! under a synthetic `programs.run` sit one span per same-kind op block
//! (`runtime.*`, `bench.verify`), and under whichever span was open when
//! `GcStats::collections` advanced sit `core.collection` →
//! `core.phase.<p>`. Collection and phase *durations* are the library's
//! own `CollectionEnd.wall_ns` / `PhaseSpan.wall_ns`; their *positions*
//! inside the enclosing block are not measured, so they are laid
//! back-to-back from the block's start. Self time — span minus children —
//! needs durations only.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use tilgc_obs::{Event, GcPhase};
use tilgc_runtime::Vm;

/// The kind of a same-kind block of `Vm` calls in a synthetic op stream.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum OpKind {
    /// `Vm::alloc_record` / `Vm::alloc_ptr_array`.
    Alloc,
    /// `Vm::store_ptr` to uniformly spread slots.
    StoreSpread,
    /// `Vm::store_ptr` aimed at a few hot slots (rewrites).
    StoreHot,
    /// `Vm::load_ptr`.
    Load,
    /// `Vm::push_frame` / `Vm::pop_frame`.
    Frames,
    /// `Vm::raise` (plus re-installing the handler).
    Raise,
    /// The final checksum walk over the reachable structure.
    Verify,
}

impl OpKind {
    /// Every kind, in ledger order.
    pub const ALL: [OpKind; 7] = [
        OpKind::Alloc,
        OpKind::StoreSpread,
        OpKind::StoreHot,
        OpKind::Load,
        OpKind::Frames,
        OpKind::Raise,
        OpKind::Verify,
    ];

    /// The span name of a block of this kind.
    pub fn span_name(self) -> &'static str {
        match self {
            OpKind::Alloc => "runtime.alloc",
            OpKind::StoreSpread => "runtime.store_ptr.spread",
            OpKind::StoreHot => "runtime.store_ptr.hot",
            OpKind::Load => "runtime.load",
            OpKind::Frames => "runtime.frames",
            OpKind::Raise => "runtime.raise",
            OpKind::Verify => "bench.verify",
        }
    }
}

/// What the pass runner and the op streams tell the tracer at layer
/// boundaries. The untraced implementation is empty, so timed passes
/// pay nothing for it.
pub trait Tracer {
    /// The run's first block of same-kind calls is about to start.
    fn enter(&mut self, vm: &Vm);
    /// The current block ended after `calls` calls of `kind`, and the
    /// next one starts here: one clock reading serves both, so a stream
    /// of short blocks is not drowned in its own bookkeeping.
    fn exit(&mut self, vm: &Vm, kind: OpKind, calls: u64);
    /// Opens a span under the innermost open one.
    fn open(&mut self, _name: &'static str, _detail: &str) -> SpanId {
        0
    }
    /// Closes span `id` (and anything left open inside it).
    fn close(&mut self, _id: SpanId) {}
    /// How many spans are open.
    fn open_depth(&self) -> usize {
        0
    }
    /// Closes spans until only `depth` are open (after a panic).
    fn close_to(&mut self, _depth: usize) {}
    /// Attaches the collections of the run that just ended (its drained
    /// recorder events) under the spans open when they happened.
    fn collections(&mut self, _run: SpanId, _events: &[Event]) {}
}

/// Tracing off.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoTrace;

impl Tracer for NoTrace {
    #[inline(always)]
    fn enter(&mut self, _vm: &Vm) {}
    #[inline(always)]
    fn exit(&mut self, _vm: &Vm, _kind: OpKind, _calls: u64) {}
}

/// Index of a span in its [`SpanTrace`] (also its `id` on the wire).
pub type SpanId = u32;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// 1-based id; the root's parent is 0.
    pub id: SpanId,
    /// Id of the span that caused this one.
    pub parent: SpanId,
    /// Layer-qualified name.
    pub name: &'static str,
    /// Start, ns since the trace was created.
    pub start_ns: u64,
    /// End, ns since the trace was created.
    pub end_ns: u64,
    /// Where the counts taken at the same boundary sit in the trace's
    /// count pool (one pool, so recording a span allocates nothing).
    counts: (u32, u32),
}

impl Span {
    /// The span's duration.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The span name of a collection phase.
pub fn phase_span_name(phase: GcPhase) -> &'static str {
    match phase {
        GcPhase::Setup => "core.phase.setup",
        GcPhase::StackDecode => "core.phase.stack-decode",
        GcPhase::RootScan => "core.phase.root-scan",
        GcPhase::BarrierFilter => "core.phase.barrier-filter",
        GcPhase::PretenuredInPlaceScan => "core.phase.pretenured-in-place-scan",
        GcPhase::CheneyCopy => "core.phase.cheney-copy",
    }
}

/// State captured by [`Tracer::enter`].
#[derive(Clone, Copy, Debug)]
struct BlockStart {
    at_ns: u64,
    collections: u64,
    alloc_bytes: u64,
    depth: usize,
}

/// The in-memory span recorder of one traced pass.
#[derive(Debug)]
pub struct SpanTrace {
    epoch: Instant,
    spans: Vec<Span>,
    count_pool: Vec<(&'static str, u64)>,
    /// Free-form qualifiers (program and plan of a `programs.run`).
    details: BTreeMap<SpanId, String>,
    open: Vec<SpanId>,
    block: Option<BlockStart>,
    /// Blocks of the current run during which collections happened:
    /// `(block span, collections before it, collections after it)`,
    /// ascending.
    block_collections: Vec<(SpanId, u64, u64)>,
}

impl Default for SpanTrace {
    fn default() -> SpanTrace {
        SpanTrace::new()
    }
}

impl SpanTrace {
    /// An empty trace; time zero is now.
    pub fn new() -> SpanTrace {
        SpanTrace {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            count_pool: Vec::with_capacity(1 << 17),
            details: BTreeMap::new(),
            open: Vec::new(),
            block: None,
            block_collections: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn push(&mut self, parent: SpanId, name: &'static str, start_ns: u64, end_ns: u64) -> SpanId {
        let id = self.spans.len() as SpanId + 1;
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
            counts: (self.count_pool.len() as u32, 0),
        });
        id
    }

    /// Adds counts to the span pushed last.
    fn add_counts(&mut self, counts: &[(&'static str, u64)]) {
        self.count_pool.extend_from_slice(counts);
        let span = self.spans.last_mut().expect("a span was just pushed");
        span.counts.1 += counts.len() as u32;
    }

    /// The counts of `span`.
    pub fn counts(&self, span: &Span) -> &[(&'static str, u64)] {
        let (at, len) = span.counts;
        &self.count_pool[at as usize..(at + len) as usize]
    }

    /// A count of `span` by name (0 when absent).
    pub fn count(&self, span: &Span, key: &str) -> u64 {
        self.counts(span)
            .iter()
            .find(|(k, _)| *k == key)
            .map_or(0, |&(_, v)| v)
    }

    /// The recorded spans, in creation order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// One JSON object per span, one per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 128);
        for s in &self.spans {
            let _ = write!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}",
                s.id, s.parent, s.name, s.start_ns, s.end_ns
            );
            if let Some(detail) = self.details.get(&s.id) {
                let _ = write!(out, ",\"detail\":\"{detail}\"");
            }
            for (k, v) in self.counts(s) {
                let _ = write!(out, ",\"{k}\":{v}");
            }
            out.push_str("}\n");
        }
        out
    }

    /// Self time (span minus direct children) of everything inside the
    /// `pass` span, summed by span name — except that the self time of
    /// a `programs.run` span *with* op blocks under it (the stream loop
    /// and this recorder, not the library) is booked under
    /// `"unattributed"` together with the `pass` span's own.
    pub fn self_time_by_name(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len() + 1];
        let mut has_blocks = vec![false; self.spans.len() + 1];
        for s in &self.spans {
            child_ns[s.parent as usize] += s.dur_ns();
            if s.name.starts_with("runtime.") {
                has_blocks[s.parent as usize] = true;
            }
        }
        let mut by_name = BTreeMap::new();
        for s in &self.spans {
            // A collection's wall time can exceed its block's by clock
            // granularity; saturate rather than wrap.
            let own = s.dur_ns().saturating_sub(child_ns[s.id as usize]);
            let row = match s.name {
                "workload" => continue,
                "pass" => "unattributed",
                "programs.run" if has_blocks[s.id as usize] => "unattributed",
                name => name,
            };
            *by_name.entry(row).or_insert(0) += own;
        }
        by_name
    }
}

impl Tracer for SpanTrace {
    fn open(&mut self, name: &'static str, detail: &str) -> SpanId {
        let parent = self.open.last().copied().unwrap_or(0);
        let now = self.now_ns();
        let id = self.push(parent, name, now, now);
        if !detail.is_empty() {
            self.details.insert(id, detail.to_string());
        }
        self.open.push(id);
        id
    }

    fn close(&mut self, id: SpanId) {
        let now = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top as usize - 1].end_ns = now;
            if top == id {
                break;
            }
        }
    }

    fn open_depth(&self) -> usize {
        self.open.len()
    }

    fn close_to(&mut self, depth: usize) {
        let now = self.now_ns();
        while self.open.len() > depth {
            let top = self.open.pop().expect("len checked");
            self.spans[top as usize - 1].end_ns = now;
        }
        self.block = None;
        self.block_collections.clear();
    }

    /// Collections go under the op block whose collection range
    /// contains them, else under `run`.
    fn collections(&mut self, run: SpanId, events: &[Event]) {
        let blocks = std::mem::take(&mut self.block_collections);
        let mut next_block = 0usize;
        // Where the next collection of each parent starts.
        let mut cursor: BTreeMap<SpanId, u64> = BTreeMap::new();
        let mut phases: Vec<(GcPhase, u64, u64)> = Vec::new();
        for event in events {
            match event {
                Event::Phase(p) => phases.push((p.phase, p.wall_ns, p.cycles)),
                Event::CollectionEnd(end) => {
                    while next_block < blocks.len() && blocks[next_block].2 < end.collection {
                        next_block += 1;
                    }
                    let parent = blocks
                        .get(next_block)
                        .filter(|b| b.1 < end.collection)
                        .map_or(run, |b| b.0);
                    let parent_start = self.spans[parent as usize - 1].start_ns;
                    let start = *cursor.get(&parent).unwrap_or(&parent_start);
                    let id = self.push(parent, "core.collection", start, start + end.wall_ns);
                    cursor.insert(parent, start + end.wall_ns);
                    let mut counts = vec![
                        ("collection", end.collection),
                        ("major", u64::from(end.major)),
                        ("workers", end.workers),
                        ("gc_cycles", end.gc_cycles),
                        ("copied_bytes", end.copied_bytes),
                        ("frames_scanned", end.frames_scanned),
                        ("frames_reused", end.frames_reused),
                        ("roots_found", end.roots_found),
                        ("barrier_entries", end.barrier_entries),
                        ("side_cleared_words", end.side_cleared_words),
                        ("chunks_owned", end.chunks_owned),
                    ];
                    if end.workers > 1 {
                        let max = end.worker_copied_bytes.iter().copied().max().unwrap_or(0);
                        counts.push(("worker_copied_bytes_max", max));
                    }
                    self.add_counts(&counts);
                    let mut at = start;
                    for (phase, wall_ns, cycles) in phases.drain(..) {
                        self.push(id, phase_span_name(phase), at, at + wall_ns);
                        self.add_counts(&[("cycles", cycles)]);
                        at += wall_ns;
                    }
                }
                _ => {}
            }
        }
    }

    fn enter(&mut self, vm: &Vm) {
        self.block = Some(BlockStart {
            at_ns: self.now_ns(),
            collections: vm.gc_stats().collections,
            alloc_bytes: vm.mutator_stats().alloc_bytes,
            depth: vm.depth(),
        });
    }

    fn exit(&mut self, vm: &Vm, kind: OpKind, calls: u64) {
        let end_ns = self.now_ns();
        let start = self.block.expect("exit without enter");
        let parent = self.open.last().copied().unwrap_or(0);
        let id = self.push(parent, kind.span_name(), start.at_ns, end_ns);
        match kind {
            OpKind::Alloc => {
                let words = (vm.mutator_stats().alloc_bytes - start.alloc_bytes) / 8;
                self.add_counts(&[("calls", calls), ("words", words)]);
            }
            OpKind::Raise => {
                let unwound = start.depth.saturating_sub(vm.depth()) as u64;
                self.add_counts(&[("calls", calls), ("frames_unwound", unwound)]);
            }
            _ => self.add_counts(&[("calls", calls)]),
        }
        let collections = vm.gc_stats().collections;
        if collections > start.collections {
            self.block_collections
                .push((id, start.collections, collections));
        }
        self.block = Some(BlockStart {
            at_ns: end_ns,
            collections,
            alloc_bytes: vm.mutator_stats().alloc_bytes,
            depth: vm.depth(),
        });
    }
}
