//! GC telemetry for the `tilgc` collectors: per-collection event traces
//! and phase timelines.
//!
//! The paper's entire argument (Tables 2–6) is made through measurement,
//! yet end-of-run aggregates (`GcStats`) flatten every collection into one
//! sum. This crate turns each collection into an inspectable record, in
//! the spirit of MMTk's statistics/event-counter subsystem:
//!
//! * an [`Event`] stream — one [`CollectionBegin`] / per-phase
//!   [`PhaseSpan`]s / one [`CollectionEnd`] / one [`HeapCensus`] per
//!   collection, plus the heap-pressure episodes between collections.
//!   Per-site lifetimes are not kept here: the one per-site ledger is
//!   the §6 heap profile (`tilgc_runtime::HeapProfile`);
//! * a [`Recorder`] trait with a no-op default ([`NullRecorder`]) so
//!   recording is zero-cost when disabled — emitters gate all telemetry
//!   work on [`Recorder::is_enabled`], never charge simulated cycles for
//!   it, and never touch `GcStats`, preserving byte-identity of every
//!   deterministic counter;
//! * a bounded [`RingRecorder`] sink (drop-oldest);
//! * one serde-free codec, [`jsonl`]: `Event` ⇄ line, one event per
//!   line — the only module that knows the wire format, in both
//!   directions (over the crate's own minimal [`json`] parser);
//! * [`schema`]: the identities a stream must satisfy, checked over
//!   decoded `Event`s — replayed from a file or live, never rendered;
//! * [`metrics`]: exact pause percentiles, MMU and SLO evaluation over the
//!   same `Event`s.
//!
//! This crate sits *below* `tilgc-runtime` in the dependency order
//! (`mem ← obs ← runtime ← core`) so the collectors can emit events
//! through the recorder installed in the mutator state. It is std-only:
//! allocation sites are identified by their raw `u16` ids here; name
//! resolution happens in the stream's `meta` line.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod jsonl;
pub mod metrics;
pub mod schema;

use std::time::Instant;

/// The phase taxonomy of one collection, in canonical (emission) order.
///
/// Phase cycle spans are measured as deltas of the collector's total
/// simulated GC cycles at section boundaries, so per collection the
/// emitted [`PhaseSpan`] cycles sum *exactly* to the collection's
/// `GcStats` cycle delta.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GcPhase {
    /// Fixed per-collection overhead (the cost model's `gc_base`).
    Setup,
    /// Decoding stack frames via trace tables (fresh scans and marker
    /// bookkeeping).
    StackDecode,
    /// Examining and forwarding the discovered roots.
    RootScan,
    /// Write-barrier work: draining and filtering the sequential store
    /// buffer / dirty objects, remembered-set rescans, and the per-entry
    /// examination charge.
    BarrierFilter,
    /// Scanning freshly pretenured regions in place (§6/§7.2).
    PretenuredInPlaceScan,
    /// The Cheney transitive-closure copy/scan drain.
    CheneyCopy,
}

impl GcPhase {
    /// All phases in canonical order.
    pub const ALL: [GcPhase; 6] = [
        GcPhase::Setup,
        GcPhase::StackDecode,
        GcPhase::RootScan,
        GcPhase::BarrierFilter,
        GcPhase::PretenuredInPlaceScan,
        GcPhase::CheneyCopy,
    ];

    /// Wire name used on JSONL lines.
    pub fn wire_name(self) -> &'static str {
        match self {
            GcPhase::Setup => "setup",
            GcPhase::StackDecode => "stack-decode",
            GcPhase::RootScan => "root-scan",
            GcPhase::BarrierFilter => "barrier-filter",
            GcPhase::PretenuredInPlaceScan => "pretenured-in-place-scan",
            GcPhase::CheneyCopy => "cheney-copy",
        }
    }

    /// One-letter tag for ASCII timelines.
    pub fn letter(self) -> char {
        match self {
            GcPhase::Setup => 's',
            GcPhase::StackDecode => 'D',
            GcPhase::RootScan => 'R',
            GcPhase::BarrierFilter => 'B',
            GcPhase::PretenuredInPlaceScan => 'P',
            GcPhase::CheneyCopy => 'C',
        }
    }

    fn index(self) -> usize {
        match self {
            GcPhase::Setup => 0,
            GcPhase::StackDecode => 1,
            GcPhase::RootScan => 2,
            GcPhase::BarrierFilter => 3,
            GcPhase::PretenuredInPlaceScan => 4,
            GcPhase::CheneyCopy => 5,
        }
    }
}

/// Start-of-collection event.
#[derive(Clone, Debug, PartialEq)]
pub struct CollectionBegin {
    /// 1-based collection number (matches `GcStats::collections`).
    pub collection: u64,
    /// The emitting plan's name (`"semispace"` / `"generational"`).
    pub plan: &'static str,
    /// Why the collection ran: `"alloc-failure"`, `"forced"` or
    /// `"forced-major"`.
    pub reason: &'static str,
    /// Whether this is a major (full) collection.
    pub major: bool,
    /// Stack depth (frames) at collection time.
    pub depth: u64,
    /// Position on the simulated timeline when the collection started:
    /// client cycles + GC cycles accumulated so far.
    pub start_cycles: u64,
    /// Time-to-safepoint: client cycles elapsed between the mutator's
    /// last safepoint poll and this collection. Observed, never
    /// charged; the JSONL sink omits the field when it is zero.
    pub ttsp_cycles: u64,
}

/// One phase's span within a collection.
#[derive(Clone, Debug, PartialEq)]
pub struct PhaseSpan {
    /// The collection this span belongs to.
    pub collection: u64,
    /// Which phase.
    pub phase: GcPhase,
    /// Simulated cycles attributed to the phase. Per collection, the
    /// emitted spans sum exactly to the collection's GC-cycle delta.
    pub cycles: u64,
    /// Wall-clock nanoseconds spent in the phase.
    pub wall_ns: u64,
}

/// A collection's one record: its `GcStats` deltas, the §5 reuse claim
/// and its oracle bound, and where it ended on both clocks. A plan
/// builds it at every collection and keeps it (`last_inspection`); a
/// recorder gets a clone as the `collection-end` event. Every field is
/// exact with or without a recorder.
/// [`schema::check_collection_end`] holds its identities.
#[derive(Clone, Debug, PartialEq)]
pub struct CollectionEnd {
    /// 1-based collection number.
    pub collection: u64,
    /// Whether this was a major (full) collection.
    pub major: bool,
    /// Stack depth (frames) at collection time.
    pub depth: u64,
    /// Frames of cached scan results the collector claimed to reuse:
    /// `min(M, deepest intact marker)`, clamped to the cache length.
    pub claimed_prefix: u64,
    /// The simulation oracle's true unchanged prefix at the same
    /// instant, the bound the claim is checked against.
    pub oracle_prefix: u64,
    /// Bytes copied by this collection.
    pub copied_bytes: u64,
    /// Words Cheney-scanned by this collection.
    pub scanned_words: u64,
    /// Words of pretenured regions scanned in place by this collection.
    pub pretenured_scanned_words: u64,
    /// Roots examined by this collection.
    pub roots_found: u64,
    /// Stack frames decoded from scratch.
    pub frames_scanned: u64,
    /// Stack frames whose cached scan was reused.
    pub frames_reused: u64,
    /// Stack slots classified via trace-table decoding.
    pub slots_scanned: u64,
    /// Write-barrier entries filtered.
    pub barrier_entries: u64,
    /// Stack markers placed.
    pub markers_placed: u64,
    /// Simulated GC cycles this collection consumed (equals the sum of
    /// its phase spans).
    pub gc_cycles: u64,
    /// Position on the simulated timeline when the collection ended.
    pub end_cycles: u64,
    /// Live bytes after the collection.
    pub live_bytes_after: u64,
    /// Wall-clock nanoseconds for the whole collection.
    pub wall_ns: u64,
    // Inert, always 1 and empty, and never written to a line:
    // `benchmark/src/trace.rs:346–358` reads both. ROADMAP item 2(c)
    // deletes that read and these fields.
    #[doc(hidden)]
    pub workers: u64,
    #[doc(hidden)]
    pub worker_copied_bytes: Vec<u64>,
    /// Chunks of the heap's address space owned by spaces at collection
    /// end (constant per plan; a layout fingerprint for trace readers).
    pub chunks_owned: u64,
    /// Side-metadata words (dirty + mark bitmap words) retired by this
    /// collection's bulk clears.
    pub side_cleared_words: u64,
}

/// Start of a heap-pressure episode: an allocation that the ordinary
/// collect-and-retry path could not satisfy, handing control to the
/// escalation governor.
#[derive(Clone, Debug, PartialEq)]
pub struct PressureBegin {
    /// Raw allocation-site id of the request that hit pressure.
    pub site: u16,
    /// Words the request asked for.
    pub words: u64,
    /// Wire name of the space under pressure (`"nursery"`, `"tenured"`,
    /// `"los"`).
    pub space: &'static str,
    /// Position on the simulated timeline (client + GC cycles) when the
    /// episode started.
    pub start_cycles: u64,
}

/// One rung of the governor's escalation ladder taken during a pressure
/// episode.
#[derive(Clone, Debug, PartialEq)]
pub struct PressureRung {
    /// Wire name of the rung: `"retry-minor"`, `"retry-major"`,
    /// `"rebalance"` or `"demote"`.
    pub rung: &'static str,
    /// Allocation site the ladder is working for (for `"demote"` rungs,
    /// the site being demoted).
    pub site: u16,
    /// Words the triggering request asked for.
    pub words: u64,
    /// What the rung achieved: `"recovered"` (the retry fit),
    /// `"escalated"` (on to the next rung) or `"demoted"` (a pretenured
    /// site was flipped back to the nursery).
    pub outcome: &'static str,
    /// Simulated cycles charged for taking the rung (accumulated into
    /// `GcStats` outside any collection's phase spans).
    pub cycles: u64,
}

/// One space's row in a [`HeapCensus`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpaceCensus {
    /// Wire name of the space (`"nursery"`, `"tenured"`, `"los"`,
    /// `"semispace"` — the same labels the spaces reserve chunks under).
    pub space: &'static str,
    /// Words of live data held by the space after the collection.
    pub used_words: u64,
    /// Words of address space the space can currently allocate into
    /// (active-copy capacity; for the LOS, its whole range).
    pub reserved_words: u64,
    /// Chunks of the heap's address space owned by the space (from the
    /// chunk map's ownership labels).
    pub chunks: u64,
}

/// Per-collection heap census, emitted immediately after each
/// [`CollectionEnd`]: per-space occupancy plus the pretenuring route
/// table's current size. Gives trace readers the occupancy time-series
/// that end-of-run aggregates flatten away.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HeapCensus {
    /// The collection this census was taken after.
    pub collection: u64,
    /// Allocation sites currently routed tenured-at-birth (0 on plans
    /// without pretenuring).
    pub pretenured_sites: u64,
    /// One row per space, in the plan's canonical space order.
    pub spaces: Vec<SpaceCensus>,
}

/// End of a heap-pressure episode.
#[derive(Clone, Debug, PartialEq)]
pub struct PressureEnd {
    /// How the episode ended: `"recovered"` (the allocation eventually
    /// fit) or `"exhausted"` (a typed out-of-memory error was returned).
    pub outcome: &'static str,
    /// Number of ladder rungs taken.
    pub rungs: u64,
    /// Total simulated cycles charged for the episode's rungs (equals
    /// the sum of its [`PressureRung`] cycles).
    pub cycles: u64,
}

/// One telemetry event.
#[derive(Clone, Debug, PartialEq)]
pub enum Event {
    /// A collection started.
    CollectionBegin(CollectionBegin),
    /// A phase of a collection completed.
    Phase(PhaseSpan),
    /// A collection finished. Boxed: the end record is several times
    /// the size of the other variants, and most events in a stream are
    /// phases.
    CollectionEnd(Box<CollectionEnd>),
    /// A heap-pressure episode started.
    PressureBegin(PressureBegin),
    /// The governor took one escalation rung.
    PressureRung(PressureRung),
    /// A heap-pressure episode ended.
    PressureEnd(PressureEnd),
    /// Per-space occupancy census taken right after a collection.
    HeapCensus(HeapCensus),
}

/// An event sink installed in the mutator state.
///
/// Emitters must gate *all* telemetry work — event construction and
/// phase timing — on [`is_enabled`](Recorder::is_enabled),
/// and must never charge simulated cycles or touch `GcStats` for it, so a
/// disabled recorder leaves every deterministic counter byte-identical.
pub trait Recorder: std::fmt::Debug {
    /// Whether events should be produced at all.
    fn is_enabled(&self) -> bool;
    /// Consumes one event. Never called when [`is_enabled`](Recorder::is_enabled)
    /// is false.
    fn record(&mut self, event: Event);
    /// Downcast hook for retrieving a concrete recorder back out of a
    /// `Box<dyn Recorder>`.
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any;
}

/// The default recorder: disabled, discards everything.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    fn is_enabled(&self) -> bool {
        false
    }

    fn record(&mut self, _event: Event) {}

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// A bounded in-memory event buffer: keeps the most recent `capacity`
/// events, dropping the oldest on overflow (and counting the drops).
#[derive(Debug)]
pub struct RingRecorder {
    capacity: usize,
    buf: std::collections::VecDeque<Event>,
    dropped: u64,
}

impl RingRecorder {
    /// Creates a recorder holding at most `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> RingRecorder {
        assert!(capacity > 0, "ring capacity must be positive");
        RingRecorder {
            capacity,
            buf: std::collections::VecDeque::new(),
            dropped: 0,
        }
    }

    /// The buffered events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &Event> {
        self.buf.iter()
    }

    /// Takes the buffered events, oldest first, leaving the buffer empty.
    pub fn drain(&mut self) -> Vec<Event> {
        self.buf.drain(..).collect()
    }

    /// How many events were dropped to the ring bound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Downcasts a `dyn Recorder` and drains its events, if it is a
    /// `RingRecorder`.
    pub fn drain_events_from(r: &mut dyn Recorder) -> Option<Vec<Event>> {
        r.as_any_mut()
            .downcast_mut::<RingRecorder>()
            .map(RingRecorder::drain)
    }
}

impl Recorder for RingRecorder {
    fn is_enabled(&self) -> bool {
        true
    }

    fn record(&mut self, event: Event) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(event);
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Per-phase cycle/wall accumulator for one collection.
///
/// The plan marks each section boundary with the collector's *current
/// total* simulated GC cycles; the timer attributes the delta since the
/// previous mark to the named phase. Marking every boundary makes the
/// emitted spans sum exactly to the collection's total cycle delta.
/// Wall-clock time is split at the same boundaries.
#[derive(Debug)]
pub struct PhaseTimer {
    last_cycles: u64,
    last_wall: Instant,
    acc: [(u64, u64); GcPhase::ALL.len()],
}

impl PhaseTimer {
    /// Starts timing; `now_cycles` is the collector's total GC cycles at
    /// the start of the collection.
    pub fn start(now_cycles: u64) -> PhaseTimer {
        PhaseTimer {
            last_cycles: now_cycles,
            last_wall: Instant::now(),
            acc: [(0, 0); GcPhase::ALL.len()],
        }
    }

    /// Ends the current section, attributing the cycles and wall time
    /// since the previous mark (or [`start`](PhaseTimer::start)) to
    /// `phase`. A phase may be marked more than once; spans accumulate.
    /// One clock read per mark: it ends this span and starts the next,
    /// so the spans tile the collection with no gap between them.
    pub fn mark(&mut self, phase: GcPhase, now_cycles: u64) {
        let now = Instant::now();
        let slot = &mut self.acc[phase.index()];
        slot.0 += now_cycles.saturating_sub(self.last_cycles);
        slot.1 += now.duration_since(self.last_wall).as_nanos() as u64;
        self.last_cycles = now_cycles;
        self.last_wall = now;
    }

    /// Emits the accumulated spans for `collection` in canonical phase
    /// order, skipping phases that saw no work at all.
    pub fn into_events(self, collection: u64) -> Vec<Event> {
        GcPhase::ALL
            .into_iter()
            .filter_map(|phase| {
                let (cycles, wall_ns) = self.acc[phase.index()];
                (cycles > 0 || wall_ns > 0).then_some(Event::Phase(PhaseSpan {
                    collection,
                    phase,
                    cycles,
                    wall_ns,
                }))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_drops_oldest_past_capacity() {
        let mut r = RingRecorder::with_capacity(2);
        for c in 1..=3 {
            r.record(Event::Phase(PhaseSpan {
                collection: c,
                phase: GcPhase::CheneyCopy,
                cycles: 1,
                wall_ns: 0,
            }));
        }
        assert_eq!(r.dropped(), 1);
        let events = r.drain();
        assert_eq!(events.len(), 2);
        match &events[0] {
            Event::Phase(p) => assert_eq!(p.collection, 2, "oldest event was dropped"),
            other => panic!("unexpected event {other:?}"),
        }
        assert!(r.drain().is_empty());
    }

    #[test]
    fn null_recorder_is_disabled() {
        let mut n = NullRecorder;
        assert!(!n.is_enabled());
        n.record(Event::Phase(PhaseSpan {
            collection: 1,
            phase: GcPhase::Setup,
            cycles: 0,
            wall_ns: 0,
        }));
        assert!(RingRecorder::drain_events_from(&mut n).is_none());
    }

    #[test]
    fn phase_timer_attributes_deltas_and_sums_exactly() {
        let mut t = PhaseTimer::start(100);
        t.mark(GcPhase::Setup, 110);
        t.mark(GcPhase::StackDecode, 150);
        t.mark(GcPhase::BarrierFilter, 150); // zero-cycle section
        t.mark(GcPhase::CheneyCopy, 400);
        t.mark(GcPhase::BarrierFilter, 410); // accumulates onto the first
        let events = t.into_events(7);
        let mut total = 0;
        let mut saw_barrier = 0;
        for e in &events {
            let Event::Phase(p) = e else {
                panic!("unexpected event {e:?}")
            };
            assert_eq!(p.collection, 7);
            total += p.cycles;
            if p.phase == GcPhase::BarrierFilter {
                saw_barrier = p.cycles;
            }
        }
        assert_eq!(total, 310, "spans sum to the total delta");
        assert_eq!(saw_barrier, 10, "re-marked phase accumulated");
    }
}
