//! Deriving pretenuring policies from heap profiles (§6, §7.2).
//!
//! The paper's rule: pretenure every allocation site whose survival rate
//! (`old%`) is at least 80 %. "Considering the bimodality of the data,
//! this pretenuring policy is relatively insensitive to the particular
//! cutoff chosen." The §7.2 extension additionally classifies pretenured
//! sites whose objects were only ever observed to reference other
//! pretenured objects as *no-scan*: the pretenured-region scan can skip
//! them.

use tilgc_core::PretenurePolicy;
use tilgc_mem::SiteId;
use tilgc_runtime::HeapProfile;

/// Options for [`derive_policy`].
#[derive(Clone, Debug, PartialEq)]
pub struct PolicyOptions {
    /// Minimum `old%` for a site to be pretenured (the paper uses 80).
    pub old_percent_cutoff: f64,
    /// Ignore sites with fewer allocations than this — a site seen twice
    /// is not a statistic.
    pub min_alloc_objects: u64,
    /// Run the §7.2 analysis: mark pretenured sites whose observed
    /// outgoing edges all target pretenured sites as no-scan.
    pub derive_no_scan: bool,
}

impl Default for PolicyOptions {
    fn default() -> PolicyOptions {
        PolicyOptions {
            old_percent_cutoff: 80.0,
            min_alloc_objects: 4,
            derive_no_scan: false,
        }
    }
}

/// Derives a pretenuring policy from a heap profile.
///
/// # Example
///
/// ```
/// use tilgc_profile::{derive_policy, PolicyOptions};
/// use tilgc_runtime::HeapProfile;
/// use tilgc_mem::SiteId;
///
/// let mut profile = HeapProfile::new();
/// // Site 1: ten objects, all survive their first collection.
/// for _ in 0..10 {
///     profile.on_alloc(SiteId::new(1), 16);
///     profile.on_copy(SiteId::new(1), 16, true);
/// }
/// let policy = derive_policy(&profile, &PolicyOptions::default());
/// assert!(policy.should_pretenure(SiteId::new(1)));
/// ```
pub fn derive_policy(profile: &HeapProfile, opts: &PolicyOptions) -> PretenurePolicy {
    let mut policy = PretenurePolicy::new();
    for (site, row) in profile.iter() {
        if row.alloc_objects >= opts.min_alloc_objects
            && row.old_percent() >= opts.old_percent_cutoff
        {
            policy.add_site(site);
        }
    }
    if opts.derive_no_scan {
        let no_scan: Vec<SiteId> = profile
            .iter()
            .filter(|(site, _)| policy.should_pretenure(*site))
            .filter(|(_, row)| {
                row.edges_to
                    .keys()
                    .all(|target| policy.should_pretenure(*target))
            })
            .map(|(site, _)| site)
            .collect();
        for site in no_scan {
            policy.add_no_scan_site(site);
        }
    }
    policy
}

/// What fraction of the program's copying and allocation the policy's
/// sites account for — the summary lines under each Figure 2 profile
/// ("targeted sites comprise 96.02% copied and 2.48% allocated").
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Coverage {
    /// Percentage of all copied bytes coming from targeted sites.
    pub copied_percent: f64,
    /// Percentage of all allocated bytes coming from targeted sites.
    pub alloc_percent: f64,
}

/// Computes the copied/allocated coverage of `policy` under `profile`.
pub fn coverage(profile: &HeapProfile, policy: &PretenurePolicy) -> Coverage {
    let mut total_alloc = 0u64;
    let mut total_copied = 0u64;
    let mut hit_alloc = 0u64;
    let mut hit_copied = 0u64;
    for (site, row) in profile.iter() {
        total_alloc += row.alloc_bytes;
        total_copied += row.copied_bytes;
        if policy.should_pretenure(site) {
            hit_alloc += row.alloc_bytes;
            hit_copied += row.copied_bytes;
        }
    }
    let pct = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            100.0 * num as f64 / den as f64
        }
    };
    Coverage {
        copied_percent: pct(hit_copied, total_copied),
        alloc_percent: pct(hit_alloc, total_alloc),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    const LONG: SiteId = SiteId::new(1);
    const SHORT: SiteId = SiteId::new(2);
    const TINY: SiteId = SiteId::new(3);

    fn bimodal_profile() -> HeapProfile {
        let mut p = HeapProfile::new();
        // 20 long-lived objects (100 % old), edges only to LONG.
        for _ in 0..20 {
            p.on_alloc(LONG, 32);
            p.on_copy(LONG, 32, true);
        }
        p.on_edge(LONG, LONG);
        // 200 short-lived objects (0 % old), edges to LONG and SHORT.
        for _ in 0..200 {
            p.on_alloc(SHORT, 16);
            p.on_death(SHORT);
        }
        p.on_edge(SHORT, LONG);
        p.on_edge(SHORT, SHORT);
        // 2 objects from a tiny site that happen to survive — noise.
        for _ in 0..2 {
            p.on_alloc(TINY, 16);
            p.on_copy(TINY, 16, true);
        }
        p
    }

    #[test]
    fn cutoff_selects_the_long_lived_site_only() {
        let p = bimodal_profile();
        let policy = derive_policy(&p, &PolicyOptions::default());
        assert!(policy.should_pretenure(LONG));
        assert!(!policy.should_pretenure(SHORT));
        assert!(!policy.should_pretenure(TINY), "below min_alloc_objects");
        assert_eq!(policy.len(), 1);
    }

    #[test]
    fn no_scan_requires_closed_edges() {
        let p = bimodal_profile();
        let opts = PolicyOptions {
            derive_no_scan: true,
            ..Default::default()
        };
        let policy = derive_policy(&p, &opts);
        // LONG's only observed edges target LONG itself — closed under
        // the pretenured set, so no scan is needed.
        assert!(policy.is_no_scan(LONG));
    }

    #[test]
    fn no_scan_denied_when_edges_escape() {
        let mut p = bimodal_profile();
        p.on_edge(LONG, SHORT); // now LONG references un-pretenured data
        let opts = PolicyOptions {
            derive_no_scan: true,
            ..Default::default()
        };
        let policy = derive_policy(&p, &opts);
        assert!(policy.should_pretenure(LONG));
        assert!(!policy.is_no_scan(LONG));
    }

    #[test]
    fn coverage_matches_figure_2_summary_semantics() {
        let p = bimodal_profile();
        let policy = derive_policy(&p, &PolicyOptions::default());
        let c = coverage(&p, &policy);
        // LONG: 640 alloc bytes of 640+3200+32 total; all 640 copied bytes
        // of 640+32 total.
        assert!((c.alloc_percent - 100.0 * 640.0 / 3872.0).abs() < 1e-9);
        assert!((c.copied_percent - 100.0 * 640.0 / 672.0).abs() < 1e-9);
    }

    #[test]
    fn empty_profile_yields_empty_policy() {
        let p = HeapProfile::new();
        let policy = derive_policy(&p, &PolicyOptions::default());
        assert!(policy.is_empty());
        let c = coverage(&p, &policy);
        assert_eq!(c.alloc_percent, 0.0);
        assert_eq!(c.copied_percent, 0.0);
    }
}
