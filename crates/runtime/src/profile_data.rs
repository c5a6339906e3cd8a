//! Raw heap-profile data gathered during a profiling run (§6).
//!
//! The collectors update a [`HeapProfile`] as they allocate, copy and
//! sweep; the `tilgc-profile` crate turns the result into the paper's
//! Figure-2 report and into pretenuring policies. Keeping the raw data
//! here (in the runtime substrate) lets the collector crate fill it in
//! without depending on the analysis crate.
//!
//! Every Figure-2 column is a per-site sum, so the profile holds sums and
//! nothing per object: the site rides in each object's header, the age
//! column is Σ death clock − Σ birth clock over a site's objects, and a
//! first survival is a nursery copy of an object whose header age is
//! still 0. A copy costs two adds.

use std::collections::BTreeMap;

use tilgc_mem::SiteId;

/// Per-allocation-site lifetime statistics — one row of Figure 2.
#[derive(Clone, Debug, Default)]
pub struct SiteProfile {
    /// Bytes allocated from this site ("alloc size").
    pub alloc_bytes: u64,
    /// Objects allocated from this site ("alloc count").
    pub alloc_objects: u64,
    /// Bytes from this site copied during all collections ("copied size").
    pub copied_bytes: u64,
    /// Objects from this site that survived the first collection after
    /// their creation (numerator of "% old").
    pub survived_first: u64,
    /// Objects from this site observed dead.
    pub dead_objects: u64,
    /// Sum of the allocation clock, in bytes, at each object's birth
    /// (just after its own bytes).
    pub birth_clock_sum: u128,
    /// Sum of the allocation clock, in bytes, at each dead object's death.
    pub death_clock_sum: u128,
    /// Observed pointer edges: target site → count. Feeds the §7.2
    /// `P(s) ⊆ S` reachability analysis.
    pub edges_to: BTreeMap<SiteId, u64>,
}

impl SiteProfile {
    /// Percentage of objects surviving their first collection ("% old").
    pub fn old_percent(&self) -> f64 {
        if self.alloc_objects == 0 {
            0.0
        } else {
            100.0 * self.survived_first as f64 / self.alloc_objects as f64
        }
    }

    /// Mean age at death in KB of allocation ("avg age"). Meaningful once
    /// every object is dead — after [`HeapProfile::finish`].
    pub fn avg_age_kb(&self) -> f64 {
        if self.dead_objects == 0 {
            0.0
        } else {
            (self.death_clock_sum - self.birth_clock_sum) as f64 / 1024.0 / self.dead_objects as f64
        }
    }

    /// Ratio of copied to allocated bytes (Figure 2's last column; can
    /// exceed 1 when objects are copied repeatedly).
    pub fn copy_ratio(&self) -> f64 {
        if self.alloc_bytes == 0 {
            0.0
        } else {
            self.copied_bytes as f64 / self.alloc_bytes as f64
        }
    }
}

/// Heap profile being gathered during a run: per-site sums on one
/// allocation clock.
#[derive(Clone, Debug, Default)]
pub struct HeapProfile {
    sites: Vec<SiteProfile>,
    alloc_clock_bytes: u64,
    /// Sites the heap-pressure governor demoted from pretenured back to
    /// nursery allocation, in demotion order. A site appearing here means
    /// its pretenuring decision was wrong for this heap budget — the next
    /// policy derivation should treat the site as nursery-allocated.
    pub demoted_sites: Vec<SiteId>,
}

impl HeapProfile {
    /// Creates an empty profile.
    pub fn new() -> HeapProfile {
        HeapProfile::default()
    }

    fn entry(&mut self, site: SiteId) -> &mut SiteProfile {
        let i = site.index();
        if i >= self.sites.len() {
            self.sites.resize_with(i + 1, SiteProfile::default);
        }
        &mut self.sites[i]
    }

    /// The profile row for `site`, if any allocation was seen from it.
    pub fn site(&self, site: SiteId) -> Option<&SiteProfile> {
        self.sites.get(site.index())
    }

    /// Iterates over `(site, row)` pairs with at least one allocation.
    pub fn iter(&self) -> impl Iterator<Item = (SiteId, &SiteProfile)> {
        self.sites
            .iter()
            .enumerate()
            .filter(|(_, p)| p.alloc_objects > 0 || p.copied_bytes > 0)
            .map(|(i, p)| (SiteId::new(i as u16), p))
    }

    /// Records an allocation of `bytes` bytes from `site`; the object is
    /// born at the clock just after its own bytes.
    pub fn on_alloc(&mut self, site: SiteId, bytes: usize) {
        self.alloc_clock_bytes += bytes as u64;
        let clock = self.alloc_clock_bytes;
        let e = self.entry(site);
        e.alloc_bytes += bytes as u64;
        e.alloc_objects += 1;
        e.birth_clock_sum += u128::from(clock);
    }

    /// Records a copy of `bytes` bytes of an object from `site`.
    /// `first_survival` marks a nursery copy of an object never copied
    /// before, which is what "% old" counts.
    pub fn on_copy(&mut self, site: SiteId, bytes: usize, first_survival: bool) {
        let e = self.entry(site);
        e.copied_bytes += bytes as u64;
        e.survived_first += u64::from(first_survival);
    }

    /// Records that an object from `site` was found dead.
    pub fn on_death(&mut self, site: SiteId) {
        let clock = self.alloc_clock_bytes;
        let e = self.entry(site);
        e.dead_objects += 1;
        e.death_clock_sum += u128::from(clock);
    }

    /// Records a pointer from an object born at `from_site` to one born at
    /// `to_site`.
    pub fn on_edge(&mut self, from_site: SiteId, to_site: SiteId) {
        *self.entry(from_site).edges_to.entry(to_site).or_insert(0) += 1;
    }

    /// Records that the governor demoted `site` out of the pretenured
    /// set under memory pressure.
    pub fn note_demotion(&mut self, site: SiteId) {
        self.demoted_sites.push(site);
    }

    /// Ends the run: objects still live are counted as dying at the end,
    /// so "avg age" reflects them, mirroring a whole-program profile.
    /// Idempotent: a second call finds no object live.
    ///
    /// # Panics
    ///
    /// Panics if a site reports more deaths than allocations.
    pub fn finish(&mut self) {
        let clock = u128::from(self.alloc_clock_bytes);
        for (i, e) in self.sites.iter_mut().enumerate() {
            let live = e
                .alloc_objects
                .checked_sub(e.dead_objects)
                .unwrap_or_else(|| panic!("site {i}: more deaths than allocations"));
            e.dead_objects += live;
            e.death_clock_sum += clock * u128::from(live);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const S1: SiteId = SiteId::new(1);
    const S2: SiteId = SiteId::new(2);

    #[test]
    fn alloc_copy_death_lifecycle() {
        let mut p = HeapProfile::new();
        p.on_alloc(S1, 1024);
        p.on_alloc(S2, 2048);
        // S1's object survives a minor collection; S2's dies.
        p.on_copy(S1, 1024, true);
        p.on_death(S2);

        let s1 = p.site(S1).unwrap();
        assert_eq!(s1.alloc_objects, 1);
        assert_eq!(s1.copied_bytes, 1024);
        assert_eq!(s1.survived_first, 1);
        assert_eq!(s1.old_percent(), 100.0);

        let s2 = p.site(S2).unwrap();
        assert_eq!(s2.old_percent(), 0.0);
        assert_eq!(s2.dead_objects, 1);
        // Born after its own allocation (clock 3072), died at 3072 → age 0 KB.
        assert_eq!(s2.avg_age_kb(), 0.0);
    }

    #[test]
    fn repeated_copies_accumulate_but_survival_counts_once() {
        let mut p = HeapProfile::new();
        p.on_alloc(S1, 100);
        p.on_copy(S1, 100, true);
        p.on_copy(S1, 100, false); // major copy
        let s = p.site(S1).unwrap();
        assert_eq!(s.copied_bytes, 200);
        assert_eq!(s.survived_first, 1);
        assert!((s.copy_ratio() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn age_measured_in_kb_of_allocation() {
        let mut p = HeapProfile::new();
        p.on_alloc(S1, 512);
        p.on_alloc(S2, 4096); // clock advances 4 KB
        p.on_death(S1);
        let s = p.site(S1).unwrap();
        assert!((s.avg_age_kb() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn finish_accounts_for_survivors() {
        let mut p = HeapProfile::new();
        p.on_alloc(S1, 1024);
        p.on_alloc(S1, 1024);
        p.on_death(S1);
        p.on_alloc(S2, 2048);
        p.finish();
        let s = p.site(S1).unwrap();
        assert_eq!(s.dead_objects, 2);
        // Born at 1 and 2 KB; dead at 2 KB and, at finish, 4 KB.
        assert!((s.avg_age_kb() - 1.5).abs() < 1e-12);
        let before = s.clone();
        p.finish();
        let s = p.site(S1).unwrap();
        assert_eq!(
            (s.dead_objects, s.death_clock_sum),
            (before.dead_objects, before.death_clock_sum),
            "finish is idempotent"
        );
    }

    #[test]
    #[should_panic(expected = "more deaths than allocations")]
    fn finish_refuses_more_deaths_than_allocations() {
        let mut p = HeapProfile::new();
        p.on_death(S1);
        p.finish();
    }

    #[test]
    fn edges_recorded_per_target() {
        let mut p = HeapProfile::new();
        p.on_edge(S1, S2);
        p.on_edge(S1, S2);
        p.on_edge(S1, S1);
        let s = p.site(S1).unwrap();
        assert_eq!(s.edges_to.get(&S2), Some(&2));
        assert_eq!(s.edges_to.get(&S1), Some(&1));
    }

    #[test]
    fn conservation_after_finish() {
        // Every allocated object is eventually accounted dead (possibly
        // at finish), and survivors-of-first-collection never exceed
        // allocations.
        let mut p = HeapProfile::new();
        for i in 0..50u32 {
            p.on_alloc(S1, 16);
            if i % 3 == 0 {
                p.on_copy(S1, 16, true);
                if i % 6 == 0 {
                    p.on_death(S1);
                }
            } else if i % 3 == 1 {
                p.on_death(S1);
            }
        }
        p.finish();
        let s = p.site(S1).unwrap();
        assert_eq!(s.alloc_objects, 50);
        assert_eq!(s.dead_objects, 50, "finish accounts every survivor");
        assert!(s.survived_first <= s.alloc_objects);
        assert_eq!(s.survived_first, 17); // i % 3 == 0 for 0..50
    }
}
