use std::fmt;

/// Identifier of a program allocation site.
///
/// The paper's profiler classifies every heap object by the static program
/// point that allocated it ("we speculate that objects allocated from the
/// same point in the program would tend to have similar lifetimes", §6).
/// TIL's profiling mode prepends the site id to each object; we instead
/// carry 16 bits of site id in every object header, which is equivalent for
/// the profiler and costs nothing extra in the simulation.
///
/// Site 0 is [`SiteId::UNKNOWN`], used for runtime-internal allocations.
///
/// # Example
///
/// ```
/// use tilgc_mem::SiteId;
///
/// let s = SiteId::new(10897);
/// assert_eq!(s.get(), 10897);
/// assert_eq!(s.to_string(), "site#10897");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Debug)]
pub struct SiteId(u16);

impl SiteId {
    /// The site used for objects whose allocation point is not tracked.
    pub const UNKNOWN: SiteId = SiteId(0);

    /// Largest representable site id (the header field is 16 bits wide).
    pub const MAX: SiteId = SiteId(u16::MAX);

    /// Creates a site id from its raw 16-bit representation.
    #[inline]
    pub const fn new(id: u16) -> Self {
        SiteId(id)
    }

    /// The raw 16-bit representation.
    #[inline]
    pub const fn get(self) -> u16 {
        self.0
    }

    /// Index form, convenient for dense per-site statistics tables.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<u16> for SiteId {
    fn from(id: u16) -> Self {
        SiteId(id)
    }
}

impl fmt::Display for SiteId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "site#{}", self.0)
    }
}

/// Number of `u64` words covering the full 16-bit site id space.
const ROUTE_WORDS: usize = (u16::MAX as usize + 1) / 64;

/// Branch-free site→target routing bitmap for the allocation fast path.
///
/// One bit per possible [`SiteId`]: set means "route this site to the
/// pretenured (tenured-at-birth) target", clear means the ordinary
/// nursery path. The lookup is a constant-time word index + bit test
/// with no data-dependent branch, so the alloc fast path pays the same
/// cost whether zero or thousands of sites are pretenured — and a
/// demotion mid-run clears a single bit.
///
/// The table is a fixed 8 KB (`1024 × u64`), covering every id without
/// resizing; membership semantics mirror the policy's site set exactly.
///
/// # Example
///
/// ```
/// use tilgc_mem::{SiteId, SiteRouteTable};
///
/// let mut t = SiteRouteTable::new();
/// t.set(SiteId::new(7));
/// assert!(t.route(SiteId::new(7)));
/// assert!(!t.route(SiteId::new(8)));
/// t.clear(SiteId::new(7));
/// assert!(!t.route(SiteId::new(7)));
/// ```
#[derive(Clone)]
pub struct SiteRouteTable {
    bits: Box<[u64; ROUTE_WORDS]>,
}

impl SiteRouteTable {
    /// An empty table: every site routes to the default (nursery) path.
    pub fn new() -> SiteRouteTable {
        SiteRouteTable {
            bits: Box::new([0u64; ROUTE_WORDS]),
        }
    }

    /// Branch-free membership test: does `site` route to the pretenured
    /// target?
    #[inline]
    pub fn route(&self, site: SiteId) -> bool {
        let id = site.index();
        (self.bits[id >> 6] >> (id & 63)) & 1 != 0
    }

    /// Routes `site` to the pretenured target.
    #[inline]
    pub fn set(&mut self, site: SiteId) {
        let id = site.index();
        self.bits[id >> 6] |= 1u64 << (id & 63);
    }

    /// Restores `site` to the default (nursery) path.
    #[inline]
    pub fn clear(&mut self, site: SiteId) {
        let id = site.index();
        self.bits[id >> 6] &= !(1u64 << (id & 63));
    }

    /// Number of routed sites (population count over the bitmap).
    pub fn len(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True when no site is routed.
    pub fn is_empty(&self) -> bool {
        self.bits.iter().all(|&w| w == 0)
    }
}

impl Default for SiteRouteTable {
    fn default() -> SiteRouteTable {
        SiteRouteTable::new()
    }
}

impl fmt::Debug for SiteRouteTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SiteRouteTable({} routed)", self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_is_zero_and_default() {
        assert_eq!(SiteId::UNKNOWN.get(), 0);
        assert_eq!(SiteId::default(), SiteId::UNKNOWN);
    }

    #[test]
    fn round_trip() {
        let s = SiteId::new(42);
        assert_eq!(SiteId::from(42u16), s);
        assert_eq!(s.index(), 42);
    }

    #[test]
    fn route_table_covers_boundary_ids() {
        let mut t = SiteRouteTable::new();
        assert!(t.is_empty());
        for id in [0u16, 63, 64, 65, 1023, u16::MAX] {
            let s = SiteId::new(id);
            assert!(!t.route(s));
            t.set(s);
            assert!(t.route(s), "site {id} routes after set");
        }
        assert_eq!(t.len(), 6);
        // Neighbouring ids stay untouched.
        assert!(!t.route(SiteId::new(62)));
        assert!(!t.route(SiteId::new(66)));
        for id in [0u16, 63, 64, 65, 1023, u16::MAX] {
            t.clear(SiteId::new(id));
            assert!(!t.route(SiteId::new(id)));
        }
        assert!(t.is_empty());
    }

    #[test]
    fn route_table_set_is_idempotent() {
        let mut t = SiteRouteTable::new();
        t.set(SiteId::new(100));
        t.set(SiteId::new(100));
        assert_eq!(t.len(), 1);
        t.clear(SiteId::new(100));
        t.clear(SiteId::new(100));
        assert!(t.is_empty());
    }
}
