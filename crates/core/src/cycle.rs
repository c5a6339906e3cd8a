//! One collection, from first to last instruction.
//!
//! The paper's two techniques are add-ons to one copying collector, and
//! every plan's collection follows the same protocol; this module owns
//! that protocol once, as three stages a plan calls in order with its own
//! work between them: [`Cycle::begin`] (prologue), [`Cycle::trace`] …
//! [`Trace::drain`] (evacuator wiring, the one pass over the stack that
//! decodes and forwards the roots, and the copy), and [`Cycle::finish`]
//! (epilogue, after the plan's release step).
//! DESIGN.md's *Architecture* section tabulates what each stage owns and
//! what the plan supplies. [`PlanBase`] holds the state every plan
//! carries for those stages.
//!
//! A recorder sees a collection only through what `begin` and `finish`
//! emit (begin, phase spans, end record, census); nothing in the cycle
//! counts per object for it. The per-site ledger is the heap profile,
//! which the evacuator feeds when profiling is on.

use std::time::Instant;

use tilgc_mem::{Addr, Memory, Space, SpaceRange};
use tilgc_obs::{
    CollectionBegin, CollectionEnd, Event, GcPhase, HeapCensus, PhaseTimer, SpaceCensus,
};
use tilgc_runtime::{GcStats, HeapProfile, MutatorState};

use crate::config::{GcConfig, MarkerPolicy};
use crate::evac::Evacuator;
use crate::los::LargeObjectSpace;
use crate::roots::{scan_stack, ScanCache, ScanOutcome};
use crate::space::{CopySpace, PretenuredRegion};

/// The state every plan carries for the collection cycle.
pub(crate) struct PlanBase {
    pub stats: GcStats,
    /// The most recent collection's record, built by [`Cycle::finish`]
    /// at every collection (`Collector::last_inspection`); a recorder
    /// is handed a clone of it.
    pub inspection: Option<CollectionEnd>,
    /// The §6 heap profile, when profiling: the one per-site ledger.
    pub profile: Option<HeapProfile>,
    pub cache: Option<ScanCache>,
    pub marker_policy: MarkerPolicy,
}

impl PlanBase {
    pub fn new(config: &GcConfig) -> PlanBase {
        PlanBase {
            stats: GcStats::default(),
            inspection: None,
            profile: config.profiling.then(HeapProfile::new),
            cache: config.marker_policy.is_enabled().then(ScanCache::default),
            marker_policy: config.marker_policy,
        }
    }

    /// Entry to the collector (`Collector::alloc`, `collect`, `finish`):
    /// the frontier of `space`, the one this plan lends, comes home.
    /// Harmless when nothing is out.
    pub fn enter(m: &mut MutatorState, space: &mut Space) {
        let cursor = m.retire_window();
        if space.is_lent() {
            space.retire(cursor);
        }
    }

    /// The profile, finished: a taken profile is a whole-run profile, its
    /// live objects charged at the final clock.
    pub fn take_profile(&mut self) -> Option<HeapProfile> {
        let mut profile = self.profile.take()?;
        profile.finish();
        Some(profile)
    }

    /// Exit from the collector: lends `space`'s frontier to the mutator,
    /// which may bump records, and arrays under `array_limit_words`,
    /// through it until the next entry. `hold` is the plan's own reason
    /// to place every object itself; a profiling plan always does
    /// (`on_alloc` wants every object). Not lending leaves the window
    /// empty, which is all the mutator's fast path ever tests.
    pub fn leave(
        &self,
        m: &mut MutatorState,
        space: &mut Space,
        array_limit_words: usize,
        hold: bool,
    ) {
        if hold || self.profile.is_some() {
            return;
        }
        let (cursor, limit) = space.lend();
        m.lend_window(cursor, limit, array_limit_words);
    }
}

/// The spaces one collection traces over. Which field a plan passes a
/// space in is what decides its objects' treatment this collection.
pub(crate) struct TraceSpaces<'a> {
    /// The ranges being vacated.
    pub from: &'a [SpaceRange],
    pub to: &'a mut Space,
    /// Which of `from` is the allocation area (first promotions).
    pub nursery: Option<SpaceRange>,
    /// Marked and scanned instead of copied, when given.
    pub los: Option<&'a mut LargeObjectSpace>,
    /// §7.2 aging destination and its tenure age.
    pub survivor: Option<(&'a mut Space, u8)>,
    /// Whether this collection moves what the frames the scan cache reused
    /// may reference, so their roots are forwarded too (§5).
    pub expand_cached: bool,
}

/// What the plan's release step leaves for [`Cycle::finish`].
pub(crate) struct Release<'a> {
    /// Every word a live object can occupy after the collection, in any
    /// space (§7.2 survivors copied back into the nursery included).
    pub live_words: usize,
    pub pretenured: Option<&'a PretenuredRegion>,
    /// The spaces the heap census reports, one row each.
    pub copy_spaces: &'a [&'a CopySpace],
    pub los: Option<&'a LargeObjectSpace>,
}

/// One collection in flight.
pub(crate) struct Cycle {
    wall_start: Instant,
    stats_before: GcStats,
    side_cleared_before: u64,
    depth_at_gc: usize,
    major: bool,
    /// `None` (and nothing at all is recorded) under the default
    /// disabled recorder.
    timer: Option<PhaseTimer>,
    scan: ScanOutcome,
    stack_ns: u64,
    copy_ns: u64,
}

impl Cycle {
    /// Prologue. `major` is what the begin event and the collection's
    /// record say; counting `major_collections` is the plan's business.
    pub fn begin(
        base: &mut PlanBase,
        mem: &Memory,
        m: &mut MutatorState,
        plan: &'static str,
        reason: &'static str,
        major: bool,
    ) -> Cycle {
        let wall_start = Instant::now();
        let mut cycle = Cycle {
            wall_start,
            stats_before: base.stats,
            side_cleared_before: mem.side_cleared_words(),
            depth_at_gc: m.stack.depth(),
            major,
            timer: None,
            scan: ScanOutcome::default(),
            stack_ns: 0,
            copy_ns: 0,
        };
        let depth = cycle.depth_at_gc as u64;
        if m.recorder.is_enabled() {
            m.recorder.record(Event::CollectionBegin(CollectionBegin {
                collection: base.stats.collections + 1,
                plan,
                reason,
                major,
                depth,
                start_cycles: m.stats.client_cycles + base.stats.gc_cycles(),
                // Read before any GC work: the mutator's position at takeover.
                ttsp_cycles: m.cycles_since_safepoint(),
            }));
            cycle.timer = Some(PhaseTimer::start(base.stats.gc_cycles()));
        }
        base.stats.collections += 1;
        base.stats.depth_at_gc_sum += depth;
        base.stats.other_cycles += m.cost.gc_base;
        cycle.mark(GcPhase::Setup, base.stats.gc_cycles());
        cycle
    }

    /// Ends the current phase section at the GC cycle total `cycles`.
    pub fn mark(&mut self, phase: GcPhase, cycles: u64) {
        if let Some(t) = self.timer.as_mut() {
            t.mark(phase, cycles);
        }
    }

    /// Root processing (GC-stack) and the start of copying (GC-copy): wires
    /// the evacuator, scans the stack, forwarding each fresh root where it
    /// decodes it, then the registers, the allocation buffer and, if
    /// `spaces.expand_cached`, the cached prefix. Stack-decode ends at the
    /// decode's own charge, so the copies fall in root-scan. The returned
    /// [`Trace`] is the plan's to feed until [`Trace::drain`].
    pub fn trace<'a>(
        &'a mut self,
        base: &'a mut PlanBase,
        mem: &'a mut Memory,
        m: &mut MutatorState,
        spaces: TraceSpaces<'a>,
    ) -> Trace<'a> {
        let stack_t0 = Instant::now();
        let mut evac = Evacuator::new(
            mem,
            spaces.from,
            spaces.to,
            spaces.nursery,
            spaces.los,
            base.profile.as_mut(),
            &mut base.stats,
            m.cost,
        );
        if let Some((survivor, tenure_age)) = spaces.survivor {
            evac.set_survivor(survivor, tenure_age);
        }
        let decode_start = evac.current_gc_cycles();
        self.scan = scan_stack(m, base.cache.as_mut(), base.marker_policy, &mut evac);
        self.mark(GcPhase::StackDecode, decode_start + self.scan.decode_cycles);
        let cached = match &base.cache {
            Some(c) if spaces.expand_cached => c.prefix_roots(self.scan.reused_frames),
            _ => &[],
        };
        evac.forward_roots(m, &self.scan, cached);
        self.mark(GcPhase::RootScan, evac.current_gc_cycles());
        self.stack_ns = stack_t0.elapsed().as_nanos() as u64;
        Trace {
            evac,
            cycle: self,
            copy_t0: Instant::now(),
        }
    }

    /// Epilogue, after the plan released its spaces: the last call on a
    /// cycle. (By `&mut`, like [`Trace::drain`]: these run once per
    /// collection and a by-value receiver costs a copy of the whole
    /// struct.)
    pub fn finish(
        &mut self,
        base: &mut PlanBase,
        mem: &Memory,
        m: &mut MutatorState,
        release: Release<'_>,
    ) {
        base.stats
            .note_live_bytes(tilgc_mem::words_to_bytes(release.live_words) as u64);
        base.stats.stack_wall_ns += self.stack_ns;
        base.stats.copy_wall_ns += self.copy_ns;
        let total_ns = self.wall_start.elapsed().as_nanos() as u64;
        base.stats.total_wall_ns += total_ns;
        let end = self.record(base, mem, m, total_ns);
        let Some(timer) = self.timer.take() else {
            base.inspection = Some(end);
            return;
        };
        let collection = end.collection;
        for e in timer.into_events(collection) {
            m.recorder.record(e);
        }
        m.recorder
            .record(Event::CollectionEnd(Box::new(end.clone())));
        base.inspection = Some(end);
        // The heap census rides right behind the end event: per-space
        // occupancy plus the route table's current size, all host-side
        // reads — no simulated cycles, no GcStats.
        let row = |space, used_words: usize, reserved_words: usize| SpaceCensus {
            space,
            used_words: used_words as u64,
            reserved_words: reserved_words as u64,
            chunks: mem.owned_chunks_by(space) as u64,
        };
        let copy_rows = release.copy_spaces.iter().map(|s| {
            let active = s.active();
            row(s.label(), active.used_words(), active.capacity_words())
        });
        let los_row = release
            .los
            .map(|l| row("los", l.used_words(), l.capacity_words()));
        m.recorder.record(Event::HeapCensus(HeapCensus {
            collection,
            pretenured_sites: release.pretenured.map_or(0, |r| r.policy().len() as u64),
            spaces: copy_rows.chain(los_row).collect(),
        }));
    }

    /// The collection's record: the `GcStats` deltas since
    /// [`Cycle::begin`], the §5 reuse claim against its oracle, and where
    /// the collection ended on both clocks. Built once the live bytes
    /// are noted.
    fn record(
        &self,
        base: &PlanBase,
        mem: &Memory,
        m: &MutatorState,
        wall_ns: u64,
    ) -> CollectionEnd {
        let (before, after) = (&self.stats_before, &base.stats);
        CollectionEnd {
            collection: after.collections,
            major: self.major,
            depth: self.depth_at_gc as u64,
            claimed_prefix: self.scan.reused_frames as u64,
            oracle_prefix: self.scan.oracle_prefix as u64,
            copied_bytes: after.copied_bytes - before.copied_bytes,
            scanned_words: after.scanned_words - before.scanned_words,
            pretenured_scanned_words: after.pretenured_scanned_words
                - before.pretenured_scanned_words,
            roots_found: after.roots_found - before.roots_found,
            frames_scanned: after.frames_scanned - before.frames_scanned,
            frames_reused: after.frames_reused - before.frames_reused,
            slots_scanned: after.slots_scanned - before.slots_scanned,
            barrier_entries: after.barrier_entries - before.barrier_entries,
            markers_placed: after.markers_placed - before.markers_placed,
            gc_cycles: after.gc_cycles() - before.gc_cycles(),
            end_cycles: m.stats.client_cycles + after.gc_cycles(),
            live_bytes_after: after.last_live_bytes,
            wall_ns,
            workers: 1,
            worker_copied_bytes: Vec::new(),
            chunks_owned: mem.owned_chunks() as u64,
            side_cleared_words: mem.side_cleared_words() - self.side_cleared_before,
        }
    }
}

/// The tracing stage in flight: the wired evacuator plus the cycle's
/// phase timer.
pub(crate) struct Trace<'a> {
    pub evac: Evacuator<'a>,
    cycle: &'a mut Cycle,
    copy_t0: Instant,
}

/// What [`Trace::drain`] hands back once the evacuator's borrows end.
pub(crate) struct Drained {
    /// §7.2 remembered set for the next minor collection: old objects /
    /// field locations left referencing survivor-space objects.
    pub young_owner_refs: Vec<Addr>,
    pub young_field_locs: Vec<Addr>,
}

impl Trace<'_> {
    /// Ends the current phase section at the evacuator's cycle count.
    pub fn mark(&mut self, phase: GcPhase) {
        self.cycle.mark(phase, self.evac.current_gc_cycles());
    }

    /// Runs the closure to completion and closes the copy stage.
    pub fn drain(&mut self) -> Drained {
        self.evac.drain();
        self.mark(GcPhase::CheneyCopy);
        let drained = Drained {
            young_owner_refs: self.evac.take_young_owner_refs(),
            young_field_locs: self.evac.take_young_field_locs(),
        };
        self.cycle.copy_ns = self.copy_t0.elapsed().as_nanos() as u64;
        drained
    }
}
