//! Online adaptive pretenuring (§6 closed-loop extension).
//!
//! The paper derives pretenuring decisions *offline*: a profiling run
//! records per-site survival, and sites whose old-generation survival is
//! ≥ 80 % are pretenured in a second run. That static policy is blind to
//! phase changes — a site that allocates long-lived data during start-up
//! and short-lived data afterwards keeps its stale placement forever.
//!
//! This module closes the telemetry→policy loop online. It consumes the
//! same per-site windows the telemetry accumulator already maintains
//! (allocations and survivors per site per collection) and keeps one
//! fixed-point EWMA of survival per site. Sites cross into the
//! pretenured set when their smoothed survival rises above a *promote*
//! band, and drop back to the nursery path when it falls below a lower
//! *demote* band; the gap between the bands plus a per-site cooldown
//! provides hysteresis so a site oscillating around one threshold flips
//! at most once per cooldown window.
//!
//! Everything is integer arithmetic on deterministic inputs: the same
//! telemetry stream always yields the same promote/demote sequence, on
//! one worker or many (worker deltas merge in worker-index order before
//! the estimator ever sees them).
//!
//! Survival evidence is asymmetric, mirroring where the signal lives:
//!
//! * **Promotion** evidence comes from minor collections: a
//!   nursery-allocated site's window says how many of its objects were
//!   allocated and how many survived the nursery. High smoothed
//!   survival ⇒ the copy into tenured space is wasted motion ⇒ promote.
//! * **Demotion** evidence comes from major collections: pretenured
//!   sites bypass the nursery, so their minor windows show allocations
//!   with zero survivors — which is *placement working*, not death.
//!   Only a major collection's census of the tenured generation says
//!   whether those objects actually lived; the estimator accumulates a
//!   pretenured site's allocations between majors and samples survival
//!   from the major's copied-object count.

use std::collections::BTreeMap;

use tilgc_mem::SiteId;
use tilgc_obs::SiteWindow;

use crate::PretenurePolicy;

/// Smoothed survival (per-mille) at or above which a nursery site is
/// promoted to tenured-at-birth placement: the paper's offline cutoff.
const PROMOTE_PERMILLE: i64 = 800;
/// Smoothed survival (per-mille) at or below which a pretenured site is
/// demoted back to the nursery path.
const DEMOTE_PERMILLE: i64 = 400;
/// Minimum number of collections between two flips of the same site.
/// Together with the band gap this bounds flip rate: an oscillating
/// site changes placement at most once per window.
pub const COOLDOWN: u64 = 4;
/// Windows with fewer allocations than this carry no signal (a single
/// surviving object would look like 100 % survival) and are ignored.
const MIN_ALLOCS: u64 = 8;
/// EWMA smoothing shift: each sample moves the estimate by
/// `(sample - ewma) >> EWMA_SHIFT`. 2 ⇒ new data carries 1/4 weight.
const EWMA_SHIFT: u32 = 2;

/// Per-site estimator state.
#[derive(Clone, Copy, Debug, Default)]
struct SiteState {
    /// Fixed-point EWMA of survival, in per-mille (0..=1000).
    ewma_permille: i64,
    /// Whether any sample has seeded the EWMA yet (the first sample is
    /// adopted verbatim instead of decaying from zero).
    seeded: bool,
    /// Collection number of the site's last placement flip, for the
    /// cooldown. `None` until the site first flips; seed-policy sites
    /// start flippable.
    last_flip: Option<u64>,
    /// Allocations accumulated since the last major collection, for
    /// pretenured sites (their survival is sampled at majors only).
    major_allocs: u64,
}

/// The placement changes one [`AdaptivePretenure::observe`] call
/// decided, in deterministic (site-id) order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AdaptiveOutcome {
    /// Sites to move onto the tenured-at-birth path, with the smoothed
    /// survival (per-mille) that justified each.
    pub promotions: Vec<(SiteId, u64)>,
    /// Sites to move back to the nursery path, with their smoothed
    /// survival.
    pub demotions: Vec<(SiteId, u64)>,
}

impl AdaptiveOutcome {
    /// Whether this outcome changes any placement.
    pub fn is_empty(&self) -> bool {
        self.promotions.is_empty() && self.demotions.is_empty()
    }
}

/// The online survival estimator and flip decider.
///
/// Owns its view of which sites are currently pretenured (seeded from
/// the static policy, if any, at construction) so decisions depend only
/// on the telemetry stream — the caller applies the returned
/// [`AdaptiveOutcome`] to the real region/policy and keeps both views in
/// lockstep via [`note_forced_demotion`](Self::note_forced_demotion).
///
/// # Example
///
/// ```
/// use tilgc_core::AdaptivePretenure;
/// use tilgc_mem::SiteId;
/// use tilgc_obs::SiteWindow;
///
/// let mut a = AdaptivePretenure::new(None);
/// let win = |survived| SiteWindow {
///     site: 7,
///     allocs: 100,
///     alloc_bytes: 800,
///     copied_objects: survived,
///     copied_bytes: survived * 8,
///     survived,
/// };
/// // Sustained ~100% survival promotes site 7 after the EWMA warms up.
/// let mut promoted = false;
/// for gc in 0..4 {
///     promoted |= !a.observe(gc, false, &[win(100)]).promotions.is_empty();
/// }
/// assert!(promoted);
/// assert!(a.is_pretenured(SiteId::new(7)));
/// ```
#[derive(Clone, Debug)]
pub struct AdaptivePretenure {
    sites: BTreeMap<SiteId, SiteState>,
    /// The estimator's view of the currently pretenured set.
    pretenured: std::collections::BTreeSet<SiteId>,
}

impl AdaptivePretenure {
    /// Creates an estimator, seeding the pretenured view from `seed`
    /// (the static, profile-derived policy) when present.
    pub fn new(seed: Option<&PretenurePolicy>) -> AdaptivePretenure {
        let pretenured = match seed {
            Some(p) => p.sites().collect(),
            None => Default::default(),
        };
        AdaptivePretenure {
            sites: BTreeMap::new(),
            pretenured,
        }
    }

    /// The estimator's current view: is `site` on the tenured-at-birth
    /// path?
    pub fn is_pretenured(&self, site: SiteId) -> bool {
        self.pretenured.contains(&site)
    }

    /// The smoothed survival estimate for `site`, in per-mille, or
    /// `None` if the site has produced no usable sample yet.
    pub fn survival_permille(&self, site: SiteId) -> Option<u64> {
        let s = self.sites.get(&site)?;
        s.seeded.then_some(s.ewma_permille.clamp(0, 1000) as u64)
    }

    /// Records a demotion performed outside the estimator (the pressure
    /// governor's demotion rung), keeping the pretenured view in sync
    /// and starting the site's cooldown so it is not re-promoted
    /// immediately.
    pub fn note_forced_demotion(&mut self, site: SiteId, collection: u64) {
        self.pretenured.remove(&site);
        let s = self.sites.entry(site).or_default();
        s.last_flip = Some(collection);
        // The governor demoted for *space*, not lifetime; bias the
        // estimate below the promote band so re-promotion needs fresh
        // sustained evidence.
        if s.ewma_permille >= PROMOTE_PERMILLE {
            s.ewma_permille = DEMOTE_PERMILLE;
        }
        s.major_allocs = 0;
    }

    /// Feeds one collection's per-site windows into the estimator and
    /// returns the placement flips it decides. `collection` is the
    /// collection number (for cooldown bookkeeping), `major` whether
    /// this was a major (tenured-generation) collection. Windows must
    /// arrive in site order (the accumulator's iteration order).
    pub fn observe(
        &mut self,
        collection: u64,
        major: bool,
        windows: &[SiteWindow],
    ) -> AdaptiveOutcome {
        let mut out = AdaptiveOutcome::default();
        for w in windows {
            let site = SiteId::new(w.site);
            if site == SiteId::UNKNOWN {
                // Runtime-internal allocations have no stable program
                // point; never flip them.
                continue;
            }
            if self.pretenured.contains(&site) {
                // Minor or major, the window's allocations feed the
                // between-majors volume; the survival sample is taken
                // below, at majors only.
                self.sites.entry(site).or_default().major_allocs += w.allocs;
            } else {
                self.observe_nursery(site, w, collection, &mut out);
            }
        }
        if major {
            // Sample *every* pretenured site, not just those with a
            // window this collection: a site whose objects all died has
            // no survivors to produce a window at all — precisely the
            // strongest demotion evidence. Absent window ⇒ zero census.
            let sites: Vec<SiteId> = self.pretenured.iter().copied().collect();
            for site in sites {
                let live = windows
                    .iter()
                    .find(|w| w.site == site.get())
                    .map(|w| w.copied_objects.saturating_sub(w.survived))
                    .unwrap_or(0);
                self.sample_pretenured_major(site, live, collection, &mut out);
            }
        }
        out
    }

    /// Nursery-side update: the window's allocs/survived ratio is a
    /// direct nursery-survival sample.
    fn observe_nursery(
        &mut self,
        site: SiteId,
        w: &SiteWindow,
        collection: u64,
        out: &mut AdaptiveOutcome,
    ) {
        if w.allocs < MIN_ALLOCS {
            return;
        }
        let sample = (w.survived.min(w.allocs) * 1000 / w.allocs) as i64;
        let s = self.sites.entry(site).or_default();
        update_ewma(s, sample);
        let cooled = cooled_down(s, collection);
        if s.ewma_permille >= PROMOTE_PERMILLE && cooled {
            s.last_flip = Some(collection);
            s.major_allocs = 0;
            self.pretenured.insert(site);
            out.promotions
                .push((site, s.ewma_permille.clamp(0, 1000) as u64));
        }
    }

    /// Pretenured-side update, run at majors only: the site's objects
    /// bypass the nursery (their minor windows are structurally
    /// survivor-free), so the only survival evidence is the major's
    /// tenured census — `live` objects of this site were found alive
    /// (copied, or scanned in place and counted) against `major_allocs`
    /// allocated since the last sample.
    fn sample_pretenured_major(
        &mut self,
        site: SiteId,
        live: u64,
        collection: u64,
        out: &mut AdaptiveOutcome,
    ) {
        let s = self.sites.entry(site).or_default();
        let allocs = s.major_allocs;
        if allocs < MIN_ALLOCS {
            return;
        }
        let sample = (live.min(allocs) * 1000 / allocs) as i64;
        s.major_allocs = 0;
        update_ewma(s, sample);
        let cooled = cooled_down(s, collection);
        if s.ewma_permille <= DEMOTE_PERMILLE && cooled {
            s.last_flip = Some(collection);
            self.pretenured.remove(&site);
            out.demotions
                .push((site, s.ewma_permille.clamp(0, 1000) as u64));
        }
    }
}

/// EWMA update: adopt the first sample, then decay toward new samples
/// with weight `2^-EWMA_SHIFT`.
fn update_ewma(s: &mut SiteState, sample: i64) {
    if s.seeded {
        s.ewma_permille += (sample - s.ewma_permille) >> EWMA_SHIFT;
    } else {
        s.ewma_permille = sample;
        s.seeded = true;
    }
}

/// Whether the site's cooldown has elapsed by `collection`.
fn cooled_down(s: &SiteState, collection: u64) -> bool {
    match s.last_flip {
        Some(last) => collection.saturating_sub(last) >= COOLDOWN,
        None => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn win(site: u16, allocs: u64, survived: u64) -> SiteWindow {
        SiteWindow {
            site,
            allocs,
            alloc_bytes: allocs * 8,
            copied_objects: survived,
            copied_bytes: survived * 8,
            survived,
        }
    }

    /// A major-collection window for a pretenured site: `allocs` fresh
    /// allocations this window, `tenured_live` objects found live in the
    /// tenured census, no nursery survivors.
    fn major_win(site: u16, allocs: u64, tenured_live: u64) -> SiteWindow {
        SiteWindow {
            site,
            allocs,
            alloc_bytes: allocs * 8,
            copied_objects: tenured_live,
            copied_bytes: tenured_live * 8,
            survived: 0,
        }
    }

    #[test]
    fn sustained_survival_promotes_once() {
        let mut a = AdaptivePretenure::new(None);
        let mut promotions = 0;
        for gc in 0..10 {
            let out = a.observe(gc, false, &[win(3, 100, 100)]);
            promotions += out.promotions.len();
        }
        assert_eq!(promotions, 1, "exactly one promote for a steady site");
        assert!(a.is_pretenured(SiteId::new(3)));
    }

    #[test]
    fn low_survival_never_promotes() {
        let mut a = AdaptivePretenure::new(None);
        for gc in 0..50 {
            let out = a.observe(gc, false, &[win(3, 100, 10)]);
            assert!(out.is_empty());
        }
        assert!(!a.is_pretenured(SiteId::new(3)));
    }

    #[test]
    fn small_windows_carry_no_signal() {
        let mut a = AdaptivePretenure::new(None);
        // 4 allocs < min_allocs: 100% survival of a tiny window must
        // not promote.
        for gc in 0..50 {
            let out = a.observe(gc, false, &[win(3, 4, 4)]);
            assert!(out.is_empty());
        }
        assert_eq!(a.survival_permille(SiteId::new(3)), None);
    }

    #[test]
    fn seeded_site_demotes_when_tenured_survival_collapses() {
        let mut seed = PretenurePolicy::new();
        seed.add_site(SiteId::new(5));
        let mut a = AdaptivePretenure::new(Some(&seed));
        assert!(a.is_pretenured(SiteId::new(5)));
        // Minors: allocations accumulate, zero nursery survivors —
        // structurally uninformative, must not demote.
        for gc in 0..3 {
            let out = a.observe(gc, false, &[win(5, 100, 0)]);
            assert!(out.is_empty(), "minors must not demote pretenured sites");
        }
        // Majors with a dead tenured census drive the EWMA down.
        let mut demotions = 0;
        for gc in 3..12 {
            let out = a.observe(gc, true, &[major_win(5, 100, 0)]);
            demotions += out.demotions.len();
        }
        assert_eq!(demotions, 1);
        assert!(!a.is_pretenured(SiteId::new(5)));
    }

    #[test]
    fn unknown_site_is_never_flipped() {
        let mut a = AdaptivePretenure::new(None);
        for gc in 0..10 {
            let out = a.observe(gc, false, &[win(0, 1000, 1000)]);
            assert!(out.is_empty());
        }
        assert!(!a.is_pretenured(SiteId::UNKNOWN));
    }

    /// Hysteresis pin: a site oscillating between 100% and 0% survival
    /// every window flips at most once per cooldown window.
    #[test]
    fn oscillating_site_flips_at_most_once_per_cooldown() {
        let mut a = AdaptivePretenure::new(None);
        let mut flips: Vec<u64> = Vec::new();
        for gc in 0..200u64 {
            let alive = gc % 2 == 0;
            let w = if a.is_pretenured(SiteId::new(9)) {
                major_win(9, 100, if alive { 100 } else { 0 })
            } else {
                win(9, 100, if alive { 100 } else { 0 })
            };
            // Alternate majors/minors so both flip directions get
            // sampling opportunities.
            let out = a.observe(gc, gc % 2 == 1, &[w]);
            for _ in &out.promotions {
                flips.push(gc);
            }
            for _ in &out.demotions {
                flips.push(gc);
            }
        }
        for pair in flips.windows(2) {
            assert!(
                pair[1] - pair[0] >= COOLDOWN,
                "flips at {} and {} violate the cooldown of {}",
                pair[0],
                pair[1],
                COOLDOWN
            );
        }
    }

    #[test]
    fn forced_demotion_syncs_view_and_starts_cooldown() {
        let mut seed = PretenurePolicy::new();
        seed.add_site(SiteId::new(2));
        let mut a = AdaptivePretenure::new(Some(&seed));
        a.note_forced_demotion(SiteId::new(2), 10);
        assert!(!a.is_pretenured(SiteId::new(2)));
        // Perfect survival immediately after: no flip until cooldown.
        let out = a.observe(11, false, &[win(2, 100, 100)]);
        assert!(out.promotions.is_empty(), "cooldown gates re-promotion");
        let mut promoted = false;
        for gc in 12..20 {
            promoted |= !a
                .observe(gc, false, &[win(2, 100, 100)])
                .promotions
                .is_empty();
        }
        assert!(promoted, "site re-promotes once cooled down and re-proven");
    }

    #[test]
    fn same_stream_same_decisions() {
        let run = || {
            let mut a = AdaptivePretenure::new(None);
            let mut log = Vec::new();
            for gc in 0..64u64 {
                let s = (gc * 37) % 101;
                let out = a.observe(
                    gc,
                    gc % 5 == 0,
                    &[win(1, 100, s), win(2, 50, 50 - (s % 50)), win(3, 2, 2)],
                );
                log.push(out);
            }
            log
        };
        assert_eq!(run(), run());
    }
}
