//! One collection, from first to last instruction.
//!
//! The paper's two techniques are add-ons to one copying collector, and
//! every plan's collection follows the same protocol; this module owns
//! that protocol once, as four stages a plan calls in order with its own
//! work between them: [`Cycle::begin`] (prologue), [`Cycle::scan_roots`],
//! [`Cycle::trace`] … [`Trace::drain`] (evacuator wiring and the copy),
//! and [`Cycle::finish`] (epilogue, after the plan's release step).
//! DESIGN.md's *Architecture* section tabulates what each stage owns and
//! what the plan supplies. [`PlanBase`] holds the state every plan
//! carries for those stages.

use std::time::Instant;

use tilgc_mem::{Addr, Memory, Space, SpaceRange};
use tilgc_obs::{
    CollectionBegin, Event, GcPhase, HeapCensus, PhaseTimer, SiteDemote, SitePromote, SiteWindow,
    SpaceCensus, TelemetryAcc,
};
use tilgc_runtime::{CollectionInspection, GcStats, HeapProfile, MutatorState};

use crate::adaptive::AdaptivePretenure;
use crate::config::{GcConfig, MarkerPolicy};
use crate::evac::Evacuator;
use crate::los::LargeObjectSpace;
use crate::roots::{append_cached_roots, scan_stack, RootLoc, ScanCache};
use crate::space::{CopySpace, PretenuredRegion};
use crate::util::{build_collection_end, build_inspection};

/// The state every plan carries for the collection cycle.
pub(crate) struct PlanBase {
    pub stats: GcStats,
    pub inspection: Option<CollectionInspection>,
    /// Telemetry accumulator, allocated lazily the first time a
    /// collection runs with someone listening (an enabled recorder, or
    /// `keep_windows`).
    pub telem: Option<TelemetryAcc>,
    /// Keep the accumulator running without a recorder: the adaptive
    /// estimator is then its only consumer.
    pub keep_windows: bool,
    pub profile: Option<HeapProfile>,
    pub cache: Option<ScanCache>,
    pub marker_policy: MarkerPolicy,
}

impl PlanBase {
    pub fn new(config: &GcConfig) -> PlanBase {
        PlanBase {
            stats: GcStats::default(),
            inspection: None,
            telem: None,
            keep_windows: false,
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
}

/// What the plan's release step leaves for [`Cycle::finish`].
pub(crate) struct Release<'a> {
    pub live_words: usize,
    /// Whether `live_words` accounts for every live byte (copied-back
    /// §7.2 survivors are not counted; verifiers then skip the check).
    pub live_accounting_complete: bool,
    pub adaptive: Option<&'a mut AdaptivePretenure>,
    pub pretenured: Option<&'a mut PretenuredRegion>,
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
    scan_claim: (usize, usize),
    stack_t0: Instant,
    stack_ns: u64,
    copy_ns: u64,
}

impl Cycle {
    /// Prologue. `major` is what the begin event and the inspection
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
            scan_claim: (0, 0),
            stack_t0: wall_start,
            stack_ns: 0,
            copy_ns: 0,
        };
        let depth = cycle.depth_at_gc as u64;
        // The mutator tallies every allocation per site on its own side
        // of the window; a collection is where the per-site windows are
        // read, so it is where the tally is folded in — or dropped, when
        // neither a recorder nor the adaptive estimator is listening.
        if m.recorder.is_enabled() || base.keep_windows {
            let telem = base.telem.get_or_insert_with(TelemetryAcc::default);
            m.drain_site_tally(|site, n, bytes| telem.note_allocs(site.get(), n, bytes));
        } else {
            m.drain_site_tally(|_, _, _| {});
        }
        if m.recorder.is_enabled() {
            base.telem
                .get_or_insert_with(TelemetryAcc::default)
                .note_depth(depth);
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
        cycle.mark(GcPhase::Setup, &base.stats);
        cycle
    }

    /// Ends the current phase section at the GC cycles `stats` shows.
    pub fn mark(&mut self, phase: GcPhase, stats: &GcStats) {
        if let Some(t) = self.timer.as_mut() {
            t.mark(phase, stats.gc_cycles());
        }
    }

    /// Root processing (GC-stack), first half: decodes the stack. The
    /// scan cache saves decode cost only, so a collection that moves
    /// objects cached frames may reference asks for their roots too
    /// (`expand_cached`).
    pub fn scan_roots(
        &mut self,
        base: &mut PlanBase,
        m: &mut MutatorState,
        expand_cached: bool,
    ) -> Vec<RootLoc> {
        self.stack_t0 = Instant::now();
        let outcome = scan_stack(m, base.cache.as_mut(), base.marker_policy, &mut base.stats);
        self.mark(GcPhase::StackDecode, &base.stats);
        self.scan_claim = (outcome.claimed_prefix, outcome.oracle_prefix);
        let mut roots = outcome.new_roots;
        if expand_cached {
            append_cached_roots(base.cache.as_ref(), outcome.reused_frames, &mut roots);
        }
        roots
    }

    /// Root processing, second half, and the start of copying (GC-copy):
    /// wires the evacuator and forwards `roots`. The returned [`Trace`]
    /// is the plan's to feed (barrier entries, in-place scans) until
    /// [`Trace::drain`].
    pub fn trace<'a>(
        &'a mut self,
        base: &'a mut PlanBase,
        mem: &'a mut Memory,
        m: &mut MutatorState,
        spaces: TraceSpaces<'a>,
        roots: &[RootLoc],
    ) -> Trace<'a> {
        let lend_telemetry = self.timer.is_some() || base.keep_windows;
        let mut trace = Trace {
            evac: Evacuator::new(
                mem,
                spaces.from,
                spaces.to,
                spaces.nursery,
                spaces.los,
                base.profile.as_mut(),
                &mut base.stats,
                m.cost,
            ),
            // Stamped for real once the roots are forwarded.
            copy_t0: self.stack_t0,
            cycle: self,
        };
        if let Some((survivor, tenure_age)) = spaces.survivor {
            trace.evac.set_survivor(survivor, tenure_age);
        }
        if lend_telemetry {
            trace
                .evac
                .set_telemetry(base.telem.get_or_insert_with(TelemetryAcc::default));
        }
        trace.evac.forward_roots(m, roots);
        trace.mark(GcPhase::RootScan);
        trace.cycle.stack_ns = trace.cycle.stack_t0.elapsed().as_nanos() as u64;
        trace.copy_t0 = Instant::now();
        trace
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
        base.inspection = Some(build_inspection(
            &self.stats_before,
            &base.stats,
            self.major,
            self.depth_at_gc,
            release.live_accounting_complete,
            self.scan_claim,
        ));
        let mut pretenured = release.pretenured;
        // Before the end event: draining the samples resets the windows
        // the estimator reads.
        if let Some(adaptive) = release.adaptive {
            adapt(base, m, self.major, adaptive, pretenured.as_deref_mut());
        }
        let Some(timer) = self.timer.take() else {
            return;
        };
        let collection = base.stats.collections;
        for e in timer.into_events(collection) {
            m.recorder.record(e);
        }
        let telem = base.telem.as_mut().expect("allocated by Cycle::begin");
        let insp = base.inspection.as_ref().expect("just built");
        let end_cycles = m.stats.client_cycles + base.stats.gc_cycles();
        m.recorder
            .record(Event::CollectionEnd(Box::new(build_collection_end(
                &self.stats_before,
                &base.stats,
                insp,
                telem,
                end_cycles,
                total_ns,
                mem.owned_chunks() as u64,
                mem.side_cleared_words() - self.side_cleared_before,
            ))));
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
            pretenured_sites: pretenured.map_or(0, |r| r.policy().len() as u64),
            spaces: copy_rows.chain(los_row).collect(),
        }));
        for e in telem.drain_samples(collection) {
            m.recorder.record(e);
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
        if let Some(t) = self.cycle.timer.as_mut() {
            t.mark(phase, self.evac.current_gc_cycles());
        }
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

/// The closed loop's decision step, run at the end of every collection
/// while adaptation is on: feed the per-site windows into the estimator
/// and apply the placement flips it returns.
fn adapt(
    base: &mut PlanBase,
    m: &mut MutatorState,
    major: bool,
    adaptive: &mut AdaptivePretenure,
    pretenured: Option<&mut PretenuredRegion>,
) {
    let Some(telem) = base.telem.as_mut() else {
        return;
    };
    let windows: Vec<SiteWindow> = telem.windows().collect();
    let collection = base.stats.collections;
    let out = adaptive.observe(collection, major, &windows);
    if !m.recorder.is_enabled() {
        // No recorder to drain the windows at collection end: reset
        // them here so each observation stays one collection wide.
        telem.clear_windows();
    }
    if out.is_empty() {
        return;
    }
    let region = pretenured.expect("adaptive plans always compose a pretenured region");
    for &(site, permille) in &out.promotions {
        region.promote_site(&mut m.routes, site);
        base.stats.sites_promoted += 1;
        if m.recorder.is_enabled() {
            m.recorder.record(Event::SitePromote(SitePromote {
                collection,
                site: site.get(),
                survival_permille: permille,
            }));
        }
    }
    for &(site, permille) in &out.demotions {
        region.demote_site(&mut m.routes, site);
        base.stats.sites_demoted += 1;
        if m.recorder.is_enabled() {
            m.recorder.record(Event::SiteDemote(SiteDemote {
                collection,
                site: site.get(),
                survival_permille: permille,
                reason: "adaptive",
            }));
        }
    }
}
