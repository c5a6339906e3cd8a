//! Raw heap-profile data gathered during a profiling run (§6).
//!
//! The collectors update a [`HeapProfile`] as they allocate, copy and
//! sweep; the `tilgc-profile` crate turns the result into the paper's
//! Figure-2 report and into pretenuring policies. Keeping the raw data
//! here (in the runtime substrate) lets the collector crate fill it in
//! without depending on the analysis crate.

use std::collections::{BTreeMap, HashMap};

use tilgc_mem::{Addr, SiteId};

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
    /// Sum of ages at death, in KB of allocation (numerator of "avg age").
    pub age_sum_kb: f64,
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

    /// Mean age at death in KB of allocation ("avg age").
    pub fn avg_age_kb(&self) -> f64 {
        if self.dead_objects == 0 {
            0.0
        } else {
            self.age_sum_kb / self.dead_objects as f64
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

#[derive(Clone, Copy, Debug)]
struct Birth {
    site: SiteId,
    born_at_bytes: u64,
    survived_first: bool,
}

/// Heap profile being gathered during a run.
///
/// Object identity is tracked by current address: the collector reports
/// every relocation with [`on_copy`](HeapProfile::on_copy), so the birth
/// table follows objects around, which is how the profiler attributes a
/// death discovered in the vacated nursery to the right site and age.
#[derive(Clone, Debug, Default)]
pub struct HeapProfile {
    sites: Vec<SiteProfile>,
    births: HashMap<u32, Birth>,
    alloc_clock_bytes: u64,
    /// Objects still live when the run finished.
    pub live_at_exit: u64,
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

    /// Records an allocation of `bytes` bytes at `addr` from `site`.
    pub fn on_alloc(&mut self, addr: Addr, site: SiteId, bytes: usize) {
        self.alloc_clock_bytes += bytes as u64;
        let e = self.entry(site);
        e.alloc_bytes += bytes as u64;
        e.alloc_objects += 1;
        self.births.insert(
            addr.raw(),
            Birth {
                site,
                born_at_bytes: self.alloc_clock_bytes,
                survived_first: false,
            },
        );
    }

    /// Records that the object at `old` was copied to `new`.
    /// `from_nursery` marks a first promotion out of the allocation area,
    /// which is what "% old" counts.
    pub fn on_copy(&mut self, old: Addr, new: Addr, bytes: usize, from_nursery: bool) {
        let Some(mut birth) = self.births.remove(&old.raw()) else {
            return;
        };
        let e = self.entry(birth.site);
        e.copied_bytes += bytes as u64;
        if from_nursery && !birth.survived_first {
            birth.survived_first = true;
            e.survived_first += 1;
        }
        self.births.insert(new.raw(), birth);
    }

    /// Records that the object at `addr` was found dead.
    pub fn on_death(&mut self, addr: Addr) {
        let Some(birth) = self.births.remove(&addr.raw()) else {
            return;
        };
        let age_kb = (self.alloc_clock_bytes - birth.born_at_bytes) as f64 / 1024.0;
        let e = self.entry(birth.site);
        e.dead_objects += 1;
        e.age_sum_kb += age_kb;
    }

    /// Records a pointer from an object born at `from_site` to one born at
    /// `to_site`.
    pub fn on_edge(&mut self, from_site: SiteId, to_site: SiteId) {
        *self.entry(from_site).edges_to.entry(to_site).or_insert(0) += 1;
    }

    /// Looks up the birth site of the (live) object at `addr`.
    pub fn site_of(&self, addr: Addr) -> Option<SiteId> {
        self.births.get(&addr.raw()).map(|b| b.site)
    }

    /// Records that the governor demoted `site` out of the pretenured
    /// set under memory pressure.
    pub fn note_demotion(&mut self, site: SiteId) {
        self.demoted_sites.push(site);
    }

    /// Ends the run: objects still live are counted as dying at the end,
    /// so "avg age" reflects them, mirroring a whole-program profile.
    pub fn finish(&mut self) {
        let clock = self.alloc_clock_bytes;
        self.live_at_exit = self.births.len() as u64;
        let births: Vec<Birth> = self.births.drain().map(|(_, b)| b).collect();
        for birth in births {
            let age_kb = (clock - birth.born_at_bytes) as f64 / 1024.0;
            let e = self.entry(birth.site);
            e.dead_objects += 1;
            e.age_sum_kb += age_kb;
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
        p.on_alloc(Addr::new(10), S1, 1024);
        p.on_alloc(Addr::new(20), S2, 2048);
        // S1's object survives a minor collection; S2's dies.
        p.on_copy(Addr::new(10), Addr::new(100), 1024, true);
        p.on_death(Addr::new(20));

        let s1 = p.site(S1).unwrap();
        assert_eq!(s1.alloc_objects, 1);
        assert_eq!(s1.copied_bytes, 1024);
        assert_eq!(s1.survived_first, 1);
        assert_eq!(s1.old_percent(), 100.0);

        let s2 = p.site(S2).unwrap();
        assert_eq!(s2.old_percent(), 0.0);
        assert_eq!(s2.dead_objects, 1);
        // Died when the clock stood at 3072 bytes, born at 3072 → age 0? No:
        // born after its own allocation (clock 3072), died at 3072 → age 0 KB.
        assert_eq!(s2.avg_age_kb(), 0.0);
    }

    #[test]
    fn repeated_copies_accumulate_but_survival_counts_once() {
        let mut p = HeapProfile::new();
        p.on_alloc(Addr::new(10), S1, 100);
        p.on_copy(Addr::new(10), Addr::new(20), 100, true);
        p.on_copy(Addr::new(20), Addr::new(30), 100, false); // major copy
        let s = p.site(S1).unwrap();
        assert_eq!(s.copied_bytes, 200);
        assert_eq!(s.survived_first, 1);
        assert!((s.copy_ratio() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn age_measured_in_kb_of_allocation() {
        let mut p = HeapProfile::new();
        p.on_alloc(Addr::new(10), S1, 512);
        p.on_alloc(Addr::new(20), S2, 4096); // clock advances 4 KB
        p.on_death(Addr::new(10));
        let s = p.site(S1).unwrap();
        assert!((s.avg_age_kb() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn finish_accounts_for_survivors() {
        let mut p = HeapProfile::new();
        p.on_alloc(Addr::new(10), S1, 1024);
        p.on_alloc(Addr::new(20), S1, 1024);
        p.on_death(Addr::new(20));
        p.finish();
        assert_eq!(p.live_at_exit, 1);
        let s = p.site(S1).unwrap();
        assert_eq!(s.dead_objects, 2);
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
        let mut next = 10u32;
        for i in 0..50u32 {
            let a = Addr::new(next);
            next += 4;
            p.on_alloc(a, S1, 16);
            if i % 3 == 0 {
                let moved = Addr::new(next);
                next += 4;
                p.on_copy(a, moved, 16, true);
                if i % 6 == 0 {
                    p.on_death(moved);
                }
            } else if i % 3 == 1 {
                p.on_death(a);
            }
        }
        p.finish();
        let s = p.site(S1).unwrap();
        assert_eq!(s.alloc_objects, 50);
        assert_eq!(s.dead_objects, 50, "finish accounts every survivor");
        assert!(s.survived_first <= s.alloc_objects);
        assert_eq!(s.survived_first, 17); // i % 3 == 0 for 0..50
    }

    #[test]
    fn death_of_untracked_address_is_ignored() {
        let mut p = HeapProfile::new();
        p.on_death(Addr::new(77)); // e.g. runtime-internal object
        assert_eq!(p.iter().count(), 0);
    }
}
