//! The space/policy layer: each kind of heap region as a reusable
//! component with its own allocation discipline, membership test, and
//! per-object treatment during a trace.
//!
//! A plan composes these policies and decides each one's treatment by
//! the role it passes the space in for a collection (the `from`, `to`,
//! `survivor` and `los` fields of the cycle's `TraceSpaces`); the shared
//! tracing driver (`evac`) then applies that treatment when the
//! transitive closure reaches an object:
//!
//! * [`CopySpace`] — a pair of bump-allocated semispaces with an active
//!   half. One `CopySpace` is the whole heap of the semispace plan
//!   (survivors are evacuated into the other half), another is the
//!   nursery of the generational plans (all survivors leave for an
//!   older space, §2.1), and a third is the tenured generation
//!   (evacuated between its halves at major collections).
//! * [`LargeObjectSpace`](crate::LargeObjectSpace) — mark-sweep;
//!   objects never move.
//! * [`PretenuredRegion`] — the §6 policy: objects from designated sites
//!   are born tenured and the freshly allocated region is *scanned in
//!   place* at the next collection instead of being copied, unless the
//!   §7.2 analysis cleared their site of scanning entirely.

use tilgc_mem::{Addr, SiteId, SiteRouteTable, Space};

use crate::config::PretenurePolicy;

/// A pair of bump-allocated semispaces with an active half — the moving
/// spaces of every plan (the semispace heap, the nursery system, the
/// tenured generation).
///
/// Allocation always bumps through the active half; a collection copies
/// survivors out (into the inactive half, or — the nursery's promotion —
/// into another space entirely) and [`flip`](CopySpace::flip)s.
#[derive(Debug)]
pub struct CopySpace {
    label: &'static str,
    spaces: [Space; 2],
    active: usize,
}

impl CopySpace {
    /// Builds a copy space from two (equal-capacity) reservations.
    pub fn new(label: &'static str, a: Space, b: Space) -> CopySpace {
        CopySpace {
            label,
            spaces: [a, b],
            active: 0,
        }
    }

    /// Short diagnostic label ("nursery", "tenured", ...), the space's
    /// row name in the heap census.
    pub fn label(&self) -> &'static str {
        self.label
    }

    /// The half allocation currently bumps through.
    pub fn active(&self) -> &Space {
        &self.spaces[self.active]
    }

    /// Mutable access to the active half.
    pub fn active_mut(&mut self) -> &mut Space {
        &mut self.spaces[self.active]
    }

    /// The half survivors are copied into.
    pub fn inactive(&self) -> &Space {
        &self.spaces[1 - self.active]
    }

    /// Mutable access to the inactive half.
    pub fn inactive_mut(&mut self) -> &mut Space {
        &mut self.spaces[1 - self.active]
    }

    /// Makes the inactive half active (after survivors landed there).
    pub fn flip(&mut self) {
        self.active = 1 - self.active;
    }

    /// Applies the same logical capacity limit to both halves (heap
    /// resizing toward a target liveness ratio applies symmetrically).
    pub fn set_limit_words(&mut self, words: usize) {
        self.spaces[0].set_limit_words(words);
        self.spaces[1].set_limit_words(words);
    }
}

/// The §6 pretenured region: the site policy deciding which allocations
/// are born tenured, plus the objects allocated since the last collection
/// that still owe their one in-place scan.
///
/// The region is not a separate reservation — pretenured objects live in
/// the tenured [`CopySpace`] — but it is a distinct *policy*: its objects
/// are scanned in place until the next collection has seen them, after
/// which they are ordinary tenured objects.
///
/// The per-allocation question "is this site pretenured?" is not asked
/// here: the mutator's [`SiteRouteTable`] answers it (a routed site never
/// uses the allocation window), and every policy flip below toggles the
/// site's bit in the table the caller passes — the plan owns none.
#[derive(Debug, Default)]
pub struct PretenuredRegion {
    policy: PretenurePolicy,
    /// Whether the policy's sites have been routed in the mutator's
    /// table yet (the plan is built before it meets its mutator).
    seeded: bool,
    pending: Vec<Addr>,
    /// Words allocated per pretenured site over the run, by site index —
    /// the pressure signal the governor's demotion rung ranks sites by.
    alloc_words: Vec<u64>,
}

impl PretenuredRegion {
    /// Builds the region around a derived (or hand-written) site policy.
    pub fn new(policy: PretenurePolicy) -> PretenuredRegion {
        PretenuredRegion {
            policy,
            seeded: false,
            pending: Vec::new(),
            alloc_words: Vec::new(),
        }
    }

    /// The site policy in force.
    pub fn policy(&self) -> &PretenurePolicy {
        &self.policy
    }

    /// Routes every site of the policy in `routes`, the first time it is
    /// called: the plan is built before it meets the mutator it
    /// allocates for, so it seeds on every entry and only the first one
    /// does anything.
    pub fn seed_routes(&mut self, routes: &mut SiteRouteTable) {
        if !std::mem::replace(&mut self.seeded, true) {
            for site in self.policy.sites() {
                routes.set(site);
            }
        }
    }

    /// Reroutes future allocations from `site` back to the nursery.
    /// Objects the site already tenured stay where they are. Returns
    /// whether the site was routed.
    pub fn demote_site(&mut self, routes: &mut SiteRouteTable, site: SiteId) -> bool {
        routes.clear(site);
        self.policy.remove_site(site)
    }

    /// Records a freshly pretenured allocation of `words` words, queuing
    /// it for its one in-place scan — unless it is pointer-free or the
    /// §7.2 analysis cleared its site ("some areas may require no
    /// scanning because they contain no pointers").
    pub fn note_alloc(&mut self, addr: Addr, site: SiteId, words: usize, pointer_free: bool) {
        if site.index() >= self.alloc_words.len() {
            self.alloc_words.resize(site.index() + 1, 0);
        }
        self.alloc_words[site.index()] += words as u64;
        if !pointer_free && !self.policy.is_no_scan(site) {
            self.pending.push(addr);
        }
    }

    /// Demotes the highest-pressure pretenured site — the one that has
    /// allocated the most tenured words (ties break to the lowest site
    /// id) — back to nursery allocation, and returns it. Objects the
    /// site already tenured stay where they are (any still owing their
    /// in-place scan remain pending); only *future* allocations are
    /// rerouted. Returns `None` when no site is left to demote.
    pub fn demote_hottest(&mut self, routes: &mut SiteRouteTable) -> Option<SiteId> {
        let hottest = self.policy.sites().max_by_key(|s| {
            (
                self.alloc_words.get(s.index()).copied().unwrap_or(0),
                std::cmp::Reverse(*s),
            )
        })?;
        self.demote_site(routes, hottest);
        Some(hottest)
    }

    /// Takes the pending-scan list for a minor collection's in-place
    /// pass.
    pub fn take_pending(&mut self) -> Vec<Addr> {
        std::mem::take(&mut self.pending)
    }

    /// Drops the pending list — a major collection traces pretenured
    /// objects like any other tenured object.
    pub fn clear_pending(&mut self) {
        self.pending.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tilgc_mem::Memory;

    #[test]
    fn copy_space_flips_and_limits_both_halves() {
        let mut mem = Memory::with_capacity_words(512);
        let a = Space::new(mem.reserve(128).unwrap());
        let b = Space::new(mem.reserve(128).unwrap());
        let mut cs = CopySpace::new("heap", a, b);
        assert_eq!(cs.label(), "heap");
        let in_active = cs.active_mut().alloc(4).unwrap();
        assert!(cs.active().contains(in_active));
        assert_eq!(cs.active().used_words(), 4);
        cs.flip();
        assert_eq!(cs.inactive().used_words(), 4);
        assert_eq!(cs.active().used_words(), 0);
        cs.set_limit_words(64);
        assert_eq!(cs.active().capacity_words(), 64);
        assert_eq!(cs.inactive().capacity_words(), 64);
    }

    #[test]
    fn pretenured_region_queues_only_scannable_objects() {
        let mut policy = PretenurePolicy::new();
        let hot = SiteId::new(1);
        let cleared = SiteId::new(2);
        policy.add_site(hot);
        policy.add_site(cleared);
        policy.add_no_scan_site(cleared);
        let mut region = PretenuredRegion::new(policy);
        let mut routes = SiteRouteTable::new();
        region.seed_routes(&mut routes);
        assert!(routes.route(hot) && routes.route(cleared));
        assert_eq!(routes.len(), 2);

        region.note_alloc(Addr::new(10), hot, 4, false);
        region.note_alloc(Addr::new(20), hot, 4, true); // pointer-free
        region.note_alloc(Addr::new(30), cleared, 4, false); // §7.2 no-scan
        assert!(region.pending.contains(&Addr::new(10)));
        assert!(!region.pending.contains(&Addr::new(20)));
        assert_eq!(region.take_pending(), vec![Addr::new(10)]);
        assert!(region.take_pending().is_empty());
    }

    #[test]
    fn demotion_picks_the_hottest_site_and_drains_the_policy() {
        let cool = SiteId::new(1);
        let hot = SiteId::new(2);
        let idle = SiteId::new(3);
        let mut policy: PretenurePolicy = [cool, hot, idle].into_iter().collect();
        policy.add_no_scan_site(hot);
        let mut region = PretenuredRegion::new(policy);
        let mut routes = SiteRouteTable::new();
        region.seed_routes(&mut routes);
        region.note_alloc(Addr::new(10), cool, 8, false);
        region.note_alloc(Addr::new(20), hot, 64, false);
        region.note_alloc(Addr::new(30), hot, 64, false);

        assert_eq!(region.demote_hottest(&mut routes), Some(hot));
        assert!(!routes.route(hot));
        assert!(
            !region.policy().is_no_scan(hot),
            "no-scan entry dropped too"
        );
        // Pending scans of already-tenured objects survive the demotion.
        assert!(region.pending.contains(&Addr::new(10)));
        assert_eq!(region.demote_hottest(&mut routes), Some(cool));
        // Sites with equal (zero) pressure demote lowest-id first.
        assert_eq!(region.demote_hottest(&mut routes), Some(idle));
        assert_eq!(region.demote_hottest(&mut routes), None);
        assert!(routes.is_empty());
    }

    #[test]
    fn route_table_mirrors_policy_through_flips() {
        let seeded = SiteId::new(4);
        let demoted = SiteId::new(9);
        let policy: PretenurePolicy = [seeded, demoted].into_iter().collect();
        let mut region = PretenuredRegion::new(policy);
        let mut routes = SiteRouteTable::new();
        region.seed_routes(&mut routes);
        assert!(routes.route(seeded) && routes.route(demoted));

        assert!(region.demote_site(&mut routes, demoted));
        assert!(!routes.route(demoted));
        assert!(!region.policy().should_pretenure(demoted));
        assert!(!region.demote_site(&mut routes, demoted), "already demoted");

        assert_eq!(region.demote_hottest(&mut routes), Some(seeded));
        assert!(!routes.route(seeded));
        assert_eq!(routes.len(), region.policy().len());
    }
}
