//! Collector configuration.
//!
//! A [`GcConfig`] is the input to the plan constructors
//! ([`SemispacePlan::new`](crate::SemispacePlan::new),
//! [`GenerationalPlan::new`](crate::GenerationalPlan::new)) and to the
//! [`build_collector`](crate::build_collector) convenience wrapper,
//! which adjusts the marker/pretenure fields per
//! [`CollectorKind`](crate::CollectorKind) before delegating to them.

use std::collections::BTreeSet;

use tilgc_mem::SiteId;

/// How the collector places stack markers at each scan (§5, §7.1).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum MarkerPolicy {
    /// No markers: every collection rescans the whole stack (the paper's
    /// "without stack markers" baseline).
    #[default]
    Disabled,
    /// Mark every n-th frame. The paper uses n = 25.
    EveryN(usize),
    /// Mark every n-th frame *and* the frame just below the top, so a
    /// stack that does not move at all between collections reuses
    /// everything but the active frame (a §7.1-style refinement).
    EveryNPlusTop(usize),
    /// Mark frames at exponentially growing distances below the top
    /// (top−2, top−4, top−8, ...): dense protection near the volatile top
    /// of the stack, sparse below — "better performance with fewer
    /// markers" for stacks that oscillate near the top.
    Exponential,
}

impl MarkerPolicy {
    /// The paper's configuration: markers every 25 frames.
    pub const PAPER: MarkerPolicy = MarkerPolicy::EveryN(25);

    /// Whether this policy places any markers at all.
    pub fn is_enabled(&self) -> bool {
        !matches!(self, MarkerPolicy::Disabled)
    }

    /// The marker depths for a stack of `depth` frames.
    pub fn placements(&self, depth: usize) -> Vec<usize> {
        match *self {
            MarkerPolicy::Disabled => Vec::new(),
            MarkerPolicy::EveryN(n) => {
                assert!(n > 0, "marker interval must be positive");
                (n - 1..depth).step_by(n).collect()
            }
            MarkerPolicy::EveryNPlusTop(n) => {
                assert!(n > 0, "marker interval must be positive");
                let mut v: Vec<usize> = (n - 1..depth).step_by(n).collect();
                if depth >= 2 {
                    v.push(depth - 2);
                }
                v.sort_unstable();
                v.dedup();
                v
            }
            MarkerPolicy::Exponential => {
                let mut v = Vec::new();
                let mut gap = 2usize;
                while gap <= depth {
                    v.push(depth - gap);
                    gap = gap.saturating_mul(2);
                }
                v.reverse();
                v
            }
        }
    }
}

/// A pretenuring policy: the set of allocation sites whose objects go
/// straight to the tenured generation (§6), plus the §7.2 no-scan set.
///
/// Derived from heap profiles by `tilgc-profile` (sites with old% ≥ 80 in
/// the paper), or built by hand:
///
/// ```
/// use tilgc_core::PretenurePolicy;
/// use tilgc_mem::SiteId;
///
/// let mut policy = PretenurePolicy::new();
/// policy.add_site(SiteId::new(3));
/// policy.add_no_scan_site(SiteId::new(3));
/// assert!(policy.should_pretenure(SiteId::new(3)));
/// assert!(policy.is_no_scan(SiteId::new(3)));
/// assert!(!policy.should_pretenure(SiteId::new(4)));
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PretenurePolicy {
    sites: BTreeSet<SiteId>,
    no_scan: BTreeSet<SiteId>,
}

impl PretenurePolicy {
    /// Creates an empty policy (nothing is pretenured).
    pub fn new() -> PretenurePolicy {
        PretenurePolicy::default()
    }

    /// Adds a site whose allocations are tenured at birth.
    pub fn add_site(&mut self, site: SiteId) {
        self.sites.insert(site);
    }

    /// Marks a pretenured site as *no-scan*: the §7.2 dataflow analysis
    /// showed its objects only ever reference pretenured objects, so the
    /// pretenured-region scan can skip them entirely.
    ///
    /// # Panics
    ///
    /// Panics if the site is not pretenured — no-scan only makes sense for
    /// pretenured sites.
    pub fn add_no_scan_site(&mut self, site: SiteId) {
        assert!(
            self.sites.contains(&site),
            "no-scan site {site} must be pretenured first"
        );
        self.no_scan.insert(site);
    }

    /// Removes a site from the policy (and from the no-scan set), so its
    /// future allocations go to the nursery again. Returns whether the
    /// site was pretenured. Used by the heap-pressure governor's demotion
    /// rung.
    pub fn remove_site(&mut self, site: SiteId) -> bool {
        self.no_scan.remove(&site);
        self.sites.remove(&site)
    }

    /// Whether allocations from `site` go straight to the tenured
    /// generation.
    pub fn should_pretenure(&self, site: SiteId) -> bool {
        self.sites.contains(&site)
    }

    /// Whether `site`'s pretenured objects may skip the region scan.
    pub fn is_no_scan(&self, site: SiteId) -> bool {
        self.no_scan.contains(&site)
    }

    /// Number of pretenured sites.
    pub fn len(&self) -> usize {
        self.sites.len()
    }

    /// Whether no site is pretenured.
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }

    /// The pretenured sites, in id order.
    pub fn sites(&self) -> impl Iterator<Item = SiteId> + '_ {
        self.sites.iter().copied()
    }
}

impl FromIterator<SiteId> for PretenurePolicy {
    fn from_iter<I: IntoIterator<Item = SiteId>>(iter: I) -> Self {
        PretenurePolicy {
            sites: iter.into_iter().collect(),
            ..Default::default()
        }
    }
}

/// Configuration shared by the collectors.
///
/// Defaults follow §2.1: 512 KB nursery (the secondary cache size, per
/// Tarditi–Diwan), large arrays segregated into a mark-sweep space. (The
/// §2.1 target liveness ratios, 0.10 and 0.3, are constants of the plans.)
///
/// # Example
///
/// ```
/// use tilgc_core::{GcConfig, MarkerPolicy};
///
/// let config = GcConfig::new()
///     .heap_budget_bytes(8 << 20)
///     .nursery_bytes(64 << 10)
///     .marker_policy(MarkerPolicy::PAPER);
/// assert_eq!(config.nursery_bytes, 64 << 10);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct GcConfig {
    /// Total heap budget in bytes (the paper's `k * Min`).
    pub heap_budget_bytes: usize,
    /// Nursery size in bytes (≤ 512 KB in the paper; smaller "for
    /// benchmarking reasons").
    pub nursery_bytes: usize,
    /// Stack-marker placement policy.
    pub marker_policy: MarkerPolicy,
    /// Arrays at least this many bytes go to the mark-sweep large-object
    /// space instead of the nursery.
    pub large_object_bytes: usize,
    /// Gather a heap profile during the run (≈50–200 % slower in the
    /// paper; here it costs host time, not simulated time).
    pub profiling: bool,
    /// Pretenuring policy, if any.
    pub pretenure: Option<PretenurePolicy>,
    /// §7.2 extension: objects must survive this many minor collections
    /// before being promoted to the tenured generation (age recorded in
    /// the header's counter bits). 0 — the paper's configuration —
    /// promotes every nursery survivor immediately.
    pub tenure_threshold: u8,
}

// Inert: `benchmark/src/measure.rs:240` and
// `benchmark/tests/generators.rs:242` read `config.workers`, which is
// always 1 — collection is serial. ROADMAP item 2(c) deletes both reads and
// this shim.
#[doc(hidden)]
pub struct SerialLane {
    pub workers: usize,
}

const SERIAL_LANE: SerialLane = SerialLane { workers: 1 };

#[doc(hidden)]
impl std::ops::Deref for GcConfig {
    type Target = SerialLane;

    fn deref(&self) -> &SerialLane {
        &SERIAL_LANE
    }
}

impl Default for GcConfig {
    fn default() -> GcConfig {
        GcConfig {
            heap_budget_bytes: 64 << 20,
            nursery_bytes: 512 << 10,
            marker_policy: MarkerPolicy::Disabled,
            large_object_bytes: 16 << 10,
            profiling: false,
            pretenure: None,
            tenure_threshold: 0,
        }
    }
}

impl GcConfig {
    /// Creates the default configuration.
    pub fn new() -> GcConfig {
        GcConfig::default()
    }

    /// Sets the total heap budget.
    #[must_use]
    pub fn heap_budget_bytes(mut self, bytes: usize) -> GcConfig {
        self.heap_budget_bytes = bytes;
        self
    }

    /// Sets the nursery size.
    #[must_use]
    pub fn nursery_bytes(mut self, bytes: usize) -> GcConfig {
        self.nursery_bytes = bytes;
        self
    }

    /// Sets the marker placement policy.
    ///
    /// # Panics
    ///
    /// Panics if the policy's marker interval is 0.
    #[must_use]
    pub fn marker_policy(mut self, policy: MarkerPolicy) -> GcConfig {
        if let MarkerPolicy::EveryN(n) | MarkerPolicy::EveryNPlusTop(n) = policy {
            assert!(n > 0, "marker interval must be positive");
        }
        self.marker_policy = policy;
        self
    }

    /// Sets the large-object threshold.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is 0 — the large-object space is always on.
    #[must_use]
    pub fn large_object_bytes(mut self, bytes: usize) -> GcConfig {
        assert!(bytes > 0, "large-object threshold must be positive");
        self.large_object_bytes = bytes;
        self
    }

    /// Enables or disables heap profiling.
    #[must_use]
    pub fn profiling(mut self, on: bool) -> GcConfig {
        self.profiling = on;
        self
    }

    /// Installs a pretenuring policy.
    #[must_use]
    pub fn pretenure(mut self, policy: PretenurePolicy) -> GcConfig {
        self.pretenure = Some(policy);
        self
    }

    /// Sets the tenure threshold (§7.2 extension): survivors are copied
    /// back within the nursery system until they have survived this many
    /// minor collections. 0 promotes immediately (the paper's setup).
    #[must_use]
    pub fn tenure_threshold(mut self, age: u8) -> GcConfig {
        self.tenure_threshold = age;
        self
    }

    // Inert: `benchmark/src/workload.rs:435` and
    // `benchmark/src/measure.rs:291` call it; collection is serial, so it
    // changes nothing. ROADMAP item 2(c) deletes both calls and this method.
    #[doc(hidden)]
    #[must_use]
    pub fn workers(self, n: usize) -> GcConfig {
        assert!(n > 0, "worker count must be positive");
        self
    }

    /// The heap budget in words.
    pub fn heap_budget_words(&self) -> usize {
        self.heap_budget_bytes / tilgc_mem::WORD_BYTES
    }

    /// The nursery size in words.
    pub fn nursery_words(&self) -> usize {
        self.nursery_bytes / tilgc_mem::WORD_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_n_placements() {
        let p = MarkerPolicy::EveryN(25);
        assert_eq!(p.placements(100), vec![24, 49, 74, 99]);
        assert_eq!(p.placements(24), Vec::<usize>::new());
        assert_eq!(p.placements(25), vec![24]);
        assert!(!MarkerPolicy::Disabled.is_enabled());
        assert!(p.is_enabled());
    }

    #[test]
    fn every_n_plus_top_adds_near_top_marker() {
        let p = MarkerPolicy::EveryNPlusTop(25);
        assert_eq!(p.placements(100), vec![24, 49, 74, 98, 99]);
        assert_eq!(p.placements(1), Vec::<usize>::new());
        // No duplicate when the top-adjacent frame is already aligned.
        assert_eq!(p.placements(26), vec![24]);
    }

    #[test]
    fn exponential_is_dense_near_top() {
        let p = MarkerPolicy::Exponential;
        assert_eq!(p.placements(100), vec![36, 68, 84, 92, 96, 98]);
        assert_eq!(p.placements(2), vec![0]);
        assert_eq!(p.placements(0), Vec::<usize>::new());
    }

    #[test]
    fn pretenure_policy_membership() {
        let mut p = PretenurePolicy::new();
        assert!(p.is_empty());
        p.add_site(SiteId::new(9));
        assert!(p.should_pretenure(SiteId::new(9)));
        assert!(!p.is_no_scan(SiteId::new(9)));
        p.add_no_scan_site(SiteId::new(9));
        assert!(p.is_no_scan(SiteId::new(9)));
        assert_eq!(p.len(), 1);
        assert_eq!(p.sites().collect::<Vec<_>>(), vec![SiteId::new(9)]);
        assert!(p.remove_site(SiteId::new(9)));
        assert!(!p.should_pretenure(SiteId::new(9)));
        assert!(!p.is_no_scan(SiteId::new(9)));
        assert!(!p.remove_site(SiteId::new(9)), "already removed");
    }

    #[test]
    #[should_panic(expected = "must be pretenured first")]
    fn no_scan_requires_pretenured() {
        let mut p = PretenurePolicy::new();
        p.add_no_scan_site(SiteId::new(1));
    }

    #[test]
    fn policy_from_iterator() {
        let p: PretenurePolicy = [SiteId::new(1), SiteId::new(2)].into_iter().collect();
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn config_builder_chains() {
        let c = GcConfig::new()
            .heap_budget_bytes(1 << 20)
            .nursery_bytes(1 << 14);
        assert_eq!(c.heap_budget_words(), (1 << 20) / 8);
        assert_eq!(c.nursery_words(), (1 << 14) / 8);
    }

    #[test]
    #[should_panic(expected = "marker interval must be positive")]
    fn zero_marker_interval_is_rejected_at_the_builder() {
        let _ = GcConfig::new().marker_policy(MarkerPolicy::EveryN(0));
    }

    #[test]
    #[should_panic(expected = "large-object threshold must be positive")]
    fn zero_large_object_threshold_is_rejected_at_the_builder() {
        let _ = GcConfig::new().large_object_bytes(0);
    }

    macro_rules! field_count {
        ($ty:ident { $($field:ident),* } = $e:expr) => {{
            let $ty { $($field: _),* } = $e;
            [$(stringify!($field)),*].len()
        }};
    }

    /// The option surface, pinned by the compiler: `field_count!`
    /// destructures without `..`, so a new field fails to compile
    /// *here*. Before adding one, fill in its row of DESIGN.md's
    /// "Options and what they pay" table — the paper table it produces,
    /// the benchmark metric it moves, the bug it caught — and delete it
    /// if all three are empty.
    #[test]
    fn option_surface_is_pinned() {
        let settable = field_count!(
            GcConfig {
                heap_budget_bytes,
                nursery_bytes,
                marker_policy,
                large_object_bytes,
                profiling,
                pretenure,
                tenure_threshold
            } = GcConfig::default()
        );
        assert_eq!(settable, 7, "settable values");
    }
}
