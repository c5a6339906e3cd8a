//! The generational plan (§2.1), optionally extended with generational
//! stack collection (§5) and profile-driven pretenuring (§6).
//!
//! Two generations, each a [`CopySpace`]: a nursery bounded by the
//! secondary cache size (minor collections
//! promote **all** nursery survivors immediately, "at each minor
//! collection, we immediately promote all live objects from the
//! nursery") and a tenured generation evacuated between its semispace
//! halves at major collections. Large arrays bypass the nursery into the
//! mark-sweep [`LargeObjectSpace`]. Intergenerational stores are caught
//! by the mutator's write barrier and filtered here at each collection.
//!
//! With a [`MarkerPolicy`](crate::MarkerPolicy) enabled, stack scans reuse cached decodes for
//! the unchanged stack prefix; because survivors are promoted immediately,
//! *cached frames contribute no roots at all to a minor collection* —
//! everything they reference is already tenured. This is the mechanism
//! behind the paper's 67–74 % GC-time reductions on deep-stack programs.
//!
//! With a [`PretenuredRegion`] composed in (a [`PretenurePolicy`] in the
//! configuration — the §6 setup), allocations from designated sites go
//! straight into the tenured generation; the freshly pretenured objects
//! are *scanned in place* at the next collection
//! ("this is a win over copying since copying objects is slower than
//! only scanning them"), unless the §7.2 analysis marked their site
//! no-scan.

use tilgc_mem::{Addr, Arena, BudgetSnapshot, GcError, Memory, SiteId, Space, SpaceRange};
use tilgc_obs::GcPhase;
use tilgc_runtime::{
    AllocShape, BarrierEntry, CollectReason, CollectionEnd, Collector, GcStats, HeapProfile,
    MutatorState,
};

use crate::config::GcConfig;
use crate::cycle::{Cycle, PlanBase, Release, TraceSpaces};
use crate::evac::{poison_range, sweep_profile_deaths};
use crate::governor::{self, Governed, Ladder, PressureRung, PressureSession, Recovery};
use crate::space::{CopySpace, PretenuredRegion};
use crate::LargeObjectSpace;

/// Tenured-generation resizing target liveness ratio (0.3 in §2.1).
const TENURED_TARGET_LIVENESS: f64 = 0.30;

/// The two-generation plan of §2.1.
pub struct GenerationalPlan {
    /// The nursery system: with a zero tenure threshold only the active
    /// half is ever used (the paper's immediate-promotion setup); with a
    /// §7.2 threshold the pair works as aging semispaces.
    nursery: CopySpace,
    tenured: CopySpace,
    los: LargeObjectSpace,
    budget_words: usize,
    nursery_words: usize,
    large_object_words: usize,
    /// Tenured occupancy (words) beyond which the next collection goes
    /// major — live-size/0.3 after the last major, per §2.1.
    major_threshold_words: usize,
    /// §7.2 tenure threshold (0 = immediate promotion).
    tenure_threshold: u8,
    pretenured: Option<PretenuredRegion>,
    /// §7.2 remembered set: old-generation objects / field locations
    /// currently referencing survivor-space objects (only populated when
    /// `tenure_threshold > 0`).
    young_refs: Vec<Addr>,
    young_locs: Vec<Addr>,
    /// Whether the governor's one-shot budget rebalance (ladder rung 3)
    /// has already been spent for this plan's lifetime.
    rebalanced: bool,
    /// Whether live tenured data sits past the tenured share of the
    /// budget (refreshed wherever the share is recomputed). While it
    /// does the budget is spent, and a young allocation attempt fails
    /// like a full nursery — only tenured-arena requests read the
    /// tenured limit, and a guest retaining small objects makes none.
    tenured_over_share: bool,
    base: PlanBase,
}

impl GenerationalPlan {
    /// Creates a generational plan within `config.heap_budget_bytes`,
    /// and the [`Memory`] it reserved its spaces in — the `Vm`'s to own,
    /// and the one every entry point of this plan must be handed.
    ///
    /// The nursery gets `config.nursery_bytes` (capped at a quarter of the
    /// budget); the rest is split between the two tenured semispaces and
    /// the large-object space.
    ///
    /// # Panics
    ///
    /// Panics if the budget is too small for the requested nursery.
    pub fn new(config: &GcConfig) -> (GenerationalPlan, Memory) {
        let budget_words = config.heap_budget_words();
        let nursery_words = config.nursery_words().min(budget_words / 4).max(64);
        let tenured_phys = budget_words; // physical reservation; logical limits enforce budget
        let los_phys = budget_words;
        let capacity = 2 * nursery_words + 2 * tenured_phys + los_phys + 32;
        let mut mem = Memory::with_capacity_words(capacity);
        let n0 = Space::new(
            mem.reserve_owned(nursery_words, "nursery")
                .expect("nursery reservation"),
        );
        let n1 = Space::new(
            mem.reserve_owned(nursery_words, "nursery")
                .expect("nursery reservation"),
        );
        let t0 = Space::new(
            mem.reserve_owned(tenured_phys, "tenured")
                .expect("tenured reservation"),
        );
        let t1 = Space::new(
            mem.reserve_owned(tenured_phys, "tenured")
                .expect("tenured reservation"),
        );
        let los = LargeObjectSpace::new(
            mem.reserve_owned(los_phys, "los")
                .expect("large-object reservation"),
        );
        let mut c = GenerationalPlan {
            nursery: CopySpace::new("nursery", n0, n1),
            tenured: CopySpace::new("tenured", t0, t1),
            los,
            budget_words,
            nursery_words,
            large_object_words: config.large_object_bytes / tilgc_mem::WORD_BYTES,
            major_threshold_words: 0,
            tenure_threshold: config.tenure_threshold,
            pretenured: config.pretenure.clone().map(PretenuredRegion::new),
            young_refs: Vec::new(),
            young_locs: Vec::new(),
            rebalanced: false,
            tenured_over_share: false,
            base: PlanBase::new(config),
        };
        c.apply_limits(0);
        (c, mem)
    }

    /// The tenured budget per semispace, given current LOS usage.
    fn tenured_max_words(&self) -> usize {
        self.budget_words
            .saturating_sub(self.nursery_words)
            .saturating_sub(self.los.used_words())
            / 2
    }

    fn apply_limits(&mut self, live_words: usize) {
        let max = self.tenured_max_words();
        self.tenured.set_limit_words(max);
        self.tenured_over_share = self.tenured.active().used_words() > max;
        let target = (live_words as f64 / TENURED_TARGET_LIVENESS) as usize;
        self.major_threshold_words = target.clamp((2 * self.nursery_words).min(max), max);
    }

    /// Whether the next collection should be major: the tenured area is
    /// past its liveness-target threshold, or could not absorb a full
    /// nursery of promotions.
    fn needs_major(&self) -> bool {
        let t = self.tenured.active();
        let n = self.nursery.active();
        t.used_words() + n.used_words() > self.major_threshold_words
            || t.free_words() < n.used_words()
    }

    /// The range all live tenured data occupies right now.
    fn tenured_live_range(&self) -> SpaceRange {
        let t = self.tenured.active();
        SpaceRange {
            start: t.start(),
            end: t.frontier(),
        }
    }

    fn minor(&mut self, mem: &mut Memory, m: &mut MutatorState, reason: &'static str) {
        let mut cycle = Cycle::begin(&mut self.base, mem, m, "generational", reason, false);
        let tenure_threshold = self.tenure_threshold;

        let nursery_range = self.nursery.active().range();
        let nursery_frontier = self.nursery.active().frontier();
        let spaces = TraceSpaces {
            from: &[nursery_range],
            to: self.tenured.active_mut(),
            nursery: Some(nursery_range),
            los: None, // the LOS is old-generation: untouched by minor collections
            survivor: (tenure_threshold > 0)
                .then(|| (self.nursery.inactive_mut(), tenure_threshold)),
            // Immediate promotion means frames scanned at an earlier
            // collection cannot reference the (newer) nursery: only newly
            // scanned frames, registers and the alloc buffer yield roots.
            // With a §7.2 tenure threshold, copied-back survivors are
            // young and movable, so cached frames' roots must be processed
            // too (their decode cost is still saved).
            expand_cached: tenure_threshold > 0,
        };
        let mut tr = cycle.trace(&mut self.base, mem, m, spaces);

        // Write barrier: old→young references created by pointer updates.
        // Field entries (the sequential store buffer) are batched —
        // sorted and deduplicated before filtering, since a hot field
        // reached the buffer once per store. The simulated cost stays per
        // *recorded* entry: the collector still examines every entry, the
        // batching only removes redundant host-side forwarding work.
        // Object entries (object marking) are already distinct by
        // construction (the dirty bit) and are processed in record order.
        let mut barrier_entries = 0u64;
        let mut field_locs: Vec<Addr> = Vec::new();
        let mut barrier = std::mem::replace(&mut m.barrier, tilgc_runtime::WriteBarrier::None);
        barrier.drain(|entry| {
            barrier_entries += 1;
            match entry {
                BarrierEntry::Field(loc) => field_locs.push(loc),
                BarrierEntry::Object(obj) => {
                    // The object may itself be in the nursery (young-on-young
                    // update): its copy, if live, is scanned by Cheney anyway,
                    // and scanning it here in place is harmless. Clear the
                    // dirty bit either way.
                    tr.evac.clear_dirty_and_scan(obj);
                }
            }
        });
        m.barrier = barrier;
        tr.evac.forward_field_locs(&mut field_locs);
        tr.mark(GcPhase::BarrierFilter);
        // Freshly pretenured regions: scan in place instead of copying.
        if let Some(p) = self.pretenured.as_mut() {
            for addr in p.take_pending() {
                tr.evac.scan_in_place(addr);
            }
        }
        tr.mark(GcPhase::PretenuredInPlaceScan);
        // Young large pointer arrays and oversized records tenured at
        // birth: their initializing stores may reference the nursery.
        for addr in std::mem::take(&mut self.los.pending_scan) {
            tr.evac.scan_in_place(addr);
        }
        // §7.2 remembered set: old objects still referencing survivors
        // from the previous collection.
        for addr in std::mem::take(&mut self.young_refs) {
            tr.evac.scan_in_place(addr);
        }
        for loc in std::mem::take(&mut self.young_locs) {
            tr.evac.forward_word_at(loc);
        }
        tr.mark(GcPhase::BarrierFilter);
        let drained = tr.drain();
        self.young_refs = drained.young_owner_refs;
        self.young_locs = drained.young_field_locs;

        self.base.stats.barrier_entries += barrier_entries;
        self.base.stats.other_cycles += m.cost.barrier_entry * barrier_entries;
        // The per-entry examination charge lands after the drain; fold
        // it into the barrier-filter phase.
        cycle.mark(GcPhase::BarrierFilter, self.base.stats.gc_cycles());

        sweep_profile_deaths(
            mem,
            self.base.profile.as_mut(),
            nursery_range.start,
            nursery_frontier,
        );
        poison_range(mem, nursery_range, nursery_frontier);
        // Vacating the nursery invalidates every side dirty bit in it in
        // one word sweep — fresh allocations at reused addresses must
        // start clean or the object-marking barrier would skip them.
        mem.bulk_clear_dirty(nursery_range, nursery_frontier);
        self.nursery.active_mut().reset();
        if tenure_threshold > 0 {
            // Flip: allocation continues in the space now holding the
            // copied-back survivors.
            self.nursery.flip();
        }

        // With a §7.2 tenure threshold the copied-back survivors are live
        // too, in the nursery half allocation now continues in (empty
        // under immediate promotion).
        let live_words = self.tenured.active().used_words()
            + self.los.used_words()
            + self.nursery.active().used_words();
        self.finish_cycle(mem, m, &mut cycle, live_words);
    }

    fn major(&mut self, mem: &mut Memory, m: &mut MutatorState, reason: &'static str) {
        let mut cycle = Cycle::begin(&mut self.base, mem, m, "generational", reason, true);
        self.base.stats.major_collections += 1;

        let nursery_range = self.nursery.active().range();
        let nursery_frontier = self.nursery.active().frontier();
        debug_assert_eq!(
            self.nursery.inactive().used_words(),
            0,
            "the inactive nursery semispace is empty between collections"
        );
        let tenured_from = self.tenured_live_range();
        self.los.begin_marking(mem);
        self.los.pending_scan.clear();
        // The full trace subsumes the write barrier: drop its contents.
        // A dirty object in a vacated space loses its bit to that space's
        // bulk clear; a large object stays put, so its bit goes here.
        m.barrier.drain(|entry| {
            if let BarrierEntry::Object(obj) = entry {
                mem.clear_dirty(obj);
            }
        });
        let t_to = self.tenured.inactive_mut();
        t_to.set_limit_words(t_to.max_capacity_words());
        let spaces = TraceSpaces {
            from: &[nursery_range, tenured_from],
            to: t_to,
            nursery: Some(nursery_range),
            los: Some(&mut self.los),
            survivor: None,
            // A major collection moves tenured objects, so cached frames'
            // roots must be relocated too — but their decode cost is still
            // saved (§5: "it is still advantageous to have amortized the
            // cost of decoding the stack frames").
            expand_cached: true,
        };
        let mut tr = cycle.trace(&mut self.base, mem, m, spaces);
        // Pending pretenured/oversized objects are ordinary tenured
        // objects for a major collection: traced if reachable.
        if let Some(p) = self.pretenured.as_mut() {
            p.clear_pending();
        }
        self.young_refs.clear();
        self.young_locs.clear();
        tr.mark(GcPhase::BarrierFilter);
        tr.drain();

        sweep_profile_deaths(
            mem,
            self.base.profile.as_mut(),
            nursery_range.start,
            nursery_frontier,
        );
        sweep_profile_deaths(
            mem,
            self.base.profile.as_mut(),
            tenured_from.start,
            tenured_from.end,
        );
        let swept = self.los.sweep(mem);
        if let Some(p) = self.base.profile.as_mut() {
            // The sweep leaves each freed object's header in place.
            for addr in swept {
                p.on_death(mem.site_of(addr));
            }
        }

        poison_range(mem, nursery_range, nursery_frontier);
        mem.bulk_clear_dirty(nursery_range, nursery_frontier);
        self.nursery.active_mut().reset();
        let tenured_full = self.tenured.active().range();
        poison_range(mem, tenured_from, tenured_from.end);
        // The vacated tenured semispace sheds its barrier dirty bits in
        // one sweep of what it used, not of its (budget-sized)
        // reservation; the next major's copies land on clean metadata.
        mem.bulk_clear_dirty(tenured_full, tenured_from.end);
        self.tenured.active_mut().reset();
        self.tenured.flip();

        let live_words = self.tenured.active().used_words() + self.los.used_words();
        self.apply_limits(live_words);
        // Live tenured data past its budget share is not a panic here:
        // `set_limit_words` clamps the limit up to the used words, so
        // tenured and young attempts alike fail typed from now on and
        // the governor's ladder (rebalance, demotion) or a
        // `HeapOverflow` raise handles it. The overrun is counted so
        // calibration harnesses can tell this run was not pressure-free
        // even if every allocation succeeds.
        if self.tenured_over_share {
            self.base.stats.budget_overruns += 1;
        }
        self.finish_cycle(mem, m, &mut cycle, live_words);
    }

    /// The epilogue both collections share: the pretenured region and
    /// the spaces to census.
    fn finish_cycle(
        &mut self,
        mem: &Memory,
        m: &mut MutatorState,
        cycle: &mut Cycle,
        live_words: usize,
    ) {
        let release = Release {
            live_words,
            pretenured: self.pretenured.as_ref(),
            copy_spaces: &[&self.nursery, &self.tenured],
            los: Some(&self.los),
        };
        cycle.finish(&mut self.base, mem, m, release);
    }

    /// Entry to the collector: the nursery frontier comes home, and the
    /// pretenuring policy is routed in this mutator's table if it has
    /// not been yet.
    fn enter(&mut self, m: &mut MutatorState) {
        PlanBase::enter(m, self.nursery.active_mut());
        if let Some(p) = self.pretenured.as_mut() {
            p.seed_routes(&mut m.routes);
        }
    }

    /// Exit from the collector: lends the nursery out again — unless
    /// live tenured data is over its share, when a young allocation must
    /// come through the door to be refused.
    fn leave(&mut self, m: &mut MutatorState) {
        self.base.leave(
            m,
            self.nursery.active_mut(),
            self.large_object_words,
            self.tenured_over_share,
        );
    }

    /// The collection the plan's own policy picks for `reason`.
    fn collect_inner(&mut self, mem: &mut Memory, m: &mut MutatorState, reason: CollectReason) {
        let why = reason.as_str();
        match reason {
            CollectReason::ForcedMajor => self.major(mem, m, why),
            CollectReason::Forced | CollectReason::AllocFailure => {
                if self.needs_major() {
                    self.major(mem, m, why);
                } else {
                    self.minor(mem, m, why);
                }
            }
        }
    }

    /// The budget picture at the moment `arena` gave out.
    fn snapshot(&self, arena: Arena) -> BudgetSnapshot {
        let (free_words, live_words) = match arena {
            Arena::Nursery => (
                self.nursery.active().free_words(),
                self.nursery.active().used_words(),
            ),
            Arena::Los => {
                let used = self.los.used_words();
                let committed = self.nursery_words + 2 * self.tenured.active().used_words() + used;
                (self.budget_words.saturating_sub(committed), used)
            }
            Arena::Tenured => (
                self.tenured.active().free_words(),
                self.tenured.active().used_words(),
            ),
        };
        BudgetSnapshot {
            budget_words: self.budget_words,
            free_words,
            live_words,
        }
    }

    /// The governor's one-shot rebalance rung: halves the nursery's
    /// budget share in favor of the tenured generation. Deterministic
    /// and irreversible — a plan rebalances at most once.
    fn rebalance(&mut self) {
        self.rebalanced = true;
        self.nursery_words = (self.nursery_words / 2).max(64);
        self.nursery.set_limit_words(self.nursery_words);
        let live = self.tenured.active().used_words() + self.los.used_words();
        self.apply_limits(live);
    }

    /// The pretenuring path's last rung, after the tenured ladder ran
    /// out: demotes pretenured sites (hottest first) back to nursery
    /// allocation until `site` itself routes young.
    fn demote_until_young(
        &mut self,
        m: &mut MutatorState,
        session: &mut PressureSession,
        site: SiteId,
    ) {
        while self.route_pretenured(m, site) {
            let charged = session.charge(m, &mut self.base.stats, PressureRung::Demote);
            let demoted = self
                .pretenured
                .as_mut()
                .expect("pretenure routing checked")
                .demote_hottest(&mut m.routes)
                .expect("`site` is still pretenured");
            if let Some(p) = self.base.profile.as_mut() {
                p.note_demotion(demoted);
            }
            session.emit_rung(m, PressureRung::Demote, "demoted", charged);
        }
    }

    /// Whether `site` is born tenured: the mutator's route table is the
    /// one record of it (a routed site never uses the window), flipped by
    /// this plan's region alone.
    fn route_pretenured(&self, m: &MutatorState, site: SiteId) -> bool {
        self.pretenured.is_some() && m.routes.route(site)
    }

    /// Where a request of this shape is placed.
    fn route(&self, m: &MutatorState, shape: AllocShape) -> Arena {
        let words = shape.size_words();
        // Large arrays bypass the nursery (§2.1) — checked before the
        // pretenuring policy because a mark-sweep-managed array is never
        // copied anyway, which strictly dominates tenured placement.
        // Arrays that would not even fit an empty nursery are routed here
        // regardless of the configured threshold. (A record always fits
        // one: it is at most `MAX_RECORD_FIELDS + 1` words and a nursery
        // never shrinks below 64.)
        let is_array = !matches!(shape, AllocShape::Record { .. });
        if is_array
            && (words >= self.large_object_words || words > self.nursery.active().capacity_words())
        {
            Arena::Los
        } else if self.route_pretenured(m, shape.site()) {
            // Profile-driven pretenuring: straight to the tenured generation.
            Arena::Tenured
        } else {
            Arena::Nursery
        }
    }

    /// The door, with the frontier home: route, place through the
    /// governor, initialize. Recurses (once) after a demotion re-route.
    fn alloc_inner(
        &mut self,
        mem: &mut Memory,
        m: &mut MutatorState,
        shape: AllocShape,
    ) -> Result<Addr, GcError> {
        let words = shape.size_words();
        let site = shape.site();
        let arena = self.route(m, shape);
        let ladder = match arena {
            Arena::Nursery => &Ladder::NURSERY,
            Arena::Tenured if !self.rebalanced => &Ladder::TENURED,
            Arena::Tenured | Arena::Los => &Ladder::FULL_COLLECTION,
        };
        if arena == Arena::Tenured {
            m.charge(m.cost.pretenure_alloc_extra);
        }
        let addr = match governor::allocate(self, mem, m, arena, ladder, site, words) {
            Ok(addr) => addr,
            Err(mut session) if arena == Arena::Tenured => {
                self.demote_until_young(m, &mut session, site);
                session.finish(m, "recovered");
                // The site now allocates young: re-route.
                return self.alloc_inner(mem, m, shape);
            }
            Err(session) => {
                session.finish(m, "exhausted");
                // Refused over the tenured share: name the arena that is full.
                let arena = match arena {
                    Arena::Nursery if self.tenured_over_share => Arena::Tenured,
                    routed => routed,
                };
                return Err(GcError {
                    arena,
                    kind: shape.kind(),
                    requested_words: words,
                    budget: self.snapshot(arena),
                });
            }
        };
        shape.write(mem, addr, &m.alloc_buf);
        match arena {
            Arena::Tenured => {
                self.base.stats.pretenured_bytes += shape.size_bytes() as u64;
                // §7.2: "some areas may require no scanning because they
                // contain no pointers" — pointer-free objects never make
                // it onto the pending-scan list, and neither do objects
                // from sites the no-scan analysis cleared.
                let pointer_free = match shape {
                    AllocShape::Record { mask, .. } => mask == 0,
                    AllocShape::PtrArray { .. } => false,
                    AllocShape::RawArray { .. } => true,
                };
                self.pretenured
                    .as_mut()
                    .expect("pretenure routing checked")
                    .note_alloc(addr, site, words, pointer_free);
            }
            // The initializing store may reference the nursery.
            Arena::Los if matches!(shape, AllocShape::PtrArray { .. }) => {
                self.los.pending_scan.push(addr);
            }
            Arena::Nursery | Arena::Los => {}
        }
        if let Some(prof) = self.base.profile.as_mut() {
            prof.on_alloc(site, shape.size_bytes());
        }
        Ok(addr)
    }
}

impl Governed for GenerationalPlan {
    fn stats_mut(&mut self) -> &mut GcStats {
        &mut self.base.stats
    }

    #[inline]
    fn place(&mut self, arena: Arena, words: usize) -> Option<Addr> {
        match arena {
            Arena::Nursery if self.tenured_over_share => None,
            Arena::Nursery => self.nursery.active_mut().alloc(words).ok(),
            Arena::Tenured => self.tenured.active_mut().alloc(words).ok(),
            Arena::Los => self.los.alloc(words),
        }
    }

    fn recover(&mut self, mem: &mut Memory, m: &mut MutatorState, step: Recovery) {
        match step {
            Recovery::Collect => self.collect_inner(mem, m, CollectReason::AllocFailure),
            Recovery::Minor => self.minor(mem, m, "alloc-failure"),
            Recovery::Major => self.major(mem, m, "alloc-failure"),
            Recovery::Rebalance => self.rebalance(),
        }
    }
}

impl Collector for GenerationalPlan {
    fn name(&self) -> &'static str {
        "generational"
    }

    fn alloc(
        &mut self,
        mem: &mut Memory,
        m: &mut MutatorState,
        shape: AllocShape,
    ) -> Result<Addr, GcError> {
        self.enter(m);
        let result = self.alloc_inner(mem, m, shape);
        self.leave(m);
        result
    }

    fn collect(&mut self, mem: &mut Memory, m: &mut MutatorState, reason: CollectReason) {
        self.enter(m);
        self.collect_inner(mem, m, reason);
        self.leave(m);
    }

    fn gc_stats(&self) -> &GcStats {
        &self.base.stats
    }

    fn finish(&mut self, _mem: &mut Memory, m: &mut MutatorState) {
        self.enter(m);
        self.leave(m);
    }

    fn take_profile(&mut self) -> Option<HeapProfile> {
        self.base.take_profile()
    }

    fn last_inspection(&self) -> Option<&CollectionEnd> {
        self.base.inspection.as_ref()
    }
}
