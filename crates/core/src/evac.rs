//! The shared tracing driver: a work-queue transitive closure over the
//! object graph, used by every plan.
//!
//! An [`Evacuator`] is one collection's driver state. The plan configures
//! it with the *from* ranges being vacated, the *to* space receiving
//! survivors, and (optionally) an aging survivor space and the mark-sweep
//! large-object space — which role a space is passed in decides how its
//! objects are treated. The driver's gray set has two representations,
//! one for objects that move and one for objects that do not:
//!
//! * **Cheney scan cursors** for the moving spaces (`to` and the survivor
//!   space): a freshly copied object *is* its own queue entry, scanned
//!   when the cursor reaches it (the classic two-finger scan);
//! * an explicit [`ObjectQueue`] for objects traced **without moving** —
//!   marked large objects, and anything a plan feeds through
//!   [`scan_in_place`](Evacuator::scan_in_place) recursively discovers.
//!
//! [`drain`](Evacuator::drain) interleaves the two until nothing gray
//! remains. Root feeding is shared too:
//! [`forward_roots`](Evacuator::forward_roots) relocates every root
//! location a stack scan produced and charges the paper's per-root costs,
//! identically for every plan.

use tilgc_mem::{
    object, Addr, Header, Memory, ObjectKind, SideBitmap, Space, SpaceRange, MAX_RECORD_FIELDS,
    POISON,
};
use tilgc_obs::TelemetryAcc;
use tilgc_runtime::{CostModel, GcStats, HeapProfile, MutatorState};

use crate::los::LargeObjectSpace;
use crate::roots::{read_root, write_root, RootLoc};

/// The explicit half of the driver's gray set: objects that will be
/// traced in place (large objects, pretenured regions) rather than
/// discovered by a Cheney scan cursor.
#[derive(Debug, Default)]
pub struct ObjectQueue {
    pending: Vec<Addr>,
}

impl ObjectQueue {
    /// Enqueues a gray object for an in-place field scan.
    pub fn push(&mut self, addr: Addr) {
        self.pending.push(addr);
    }

    /// Takes the next gray object, LIFO.
    pub fn pop(&mut self) -> Option<Addr> {
        self.pending.pop()
    }
}

/// The ranges one collection vacates, with the membership test every
/// forwarded word goes through.
struct FromSet<'a> {
    ranges: &'a [SpaceRange],
    /// Bounding hull of all `ranges`: one range check rejects (or, when
    /// the hull is gap-free, accepts) most addresses without the
    /// per-range linear scan.
    hull: SpaceRange,
    /// Whether the `ranges` tile `hull` without gaps, making the hull
    /// check exact on its own.
    exact: bool,
}

impl<'a> FromSet<'a> {
    fn new(ranges: &'a [SpaceRange]) -> FromSet<'a> {
        let hull = match ranges.first() {
            Some(&first) => ranges.iter().fold(first, |hull, r| SpaceRange {
                start: hull.start.min(r.start),
                end: hull.end.max(r.end),
            }),
            None => SpaceRange {
                start: Addr::NULL,
                end: Addr::NULL,
            },
        };
        // Reservations never overlap, so covering the hull word-for-word
        // means the ranges tile it contiguously.
        let covered: usize = ranges.iter().map(|r| r.end - r.start).sum();
        FromSet {
            ranges,
            hull,
            exact: covered == hull.end - hull.start,
        }
    }

    /// Whether `addr` lies in a range being vacated.
    ///
    /// The common cases — one from-range (minor collections), or several
    /// contiguous ones — are decided by a single hull comparison; only a
    /// gappy multi-range hull falls back to the per-range scan. Debug
    /// builds re-check every answer against the per-range truth, so a
    /// space layout that breaks the hull's tiling assumption fails loudly
    /// instead of silently over-approximating membership.
    #[inline]
    fn contains(&self, addr: Addr) -> bool {
        let fast = self.hull.contains(addr)
            && (self.exact || self.ranges.iter().any(|r| r.contains(addr)));
        debug_assert_eq!(
            fast,
            self.ranges.iter().any(|r| r.contains(addr)),
            "bounding-hull membership diverged from per-range truth for {addr:?} \
             (hull {:?}, exact {})",
            self.hull,
            self.exact,
        );
        fast
    }
}

/// One collection's copying state.
pub struct Evacuator<'a> {
    mem: &'a mut Memory,
    from: FromSet<'a>,
    to: &'a mut Space,
    nursery: Option<SpaceRange>,
    los: Option<&'a mut LargeObjectSpace>,
    profile: Option<&'a mut HeapProfile>,
    stats: &'a mut GcStats,
    /// Telemetry accumulator lent by the plan while a recorder is
    /// installed: per-site copy/survival deltas and the object-size
    /// histogram. Host-side only — never charged simulated cycles.
    telem: Option<&'a mut TelemetryAcc>,
    cost: CostModel,
    scan: Addr,
    /// Optional aging destination (§7.2 tenure-threshold variant):
    /// from-space objects younger than `tenure_age` are copied here
    /// instead of into `to`.
    survivor: Option<&'a mut Space>,
    survivor_scan: Addr,
    tenure_age: u8,
    queue: ObjectQueue,
    /// Old-generation objects observed (during this collection) to hold
    /// a reference into the survivor space. With a tenure threshold,
    /// survivors move again at the next minor collection, so these
    /// references form a remembered set the collector must rescan.
    young_owner_refs: Vec<Addr>,
    /// Old-generation *field locations* (from store-buffer entries) whose
    /// relocated target stayed in the survivor space.
    young_field_locs: Vec<Addr>,
}

impl<'a> Evacuator<'a> {
    /// Creates an evacuator copying live objects out of `from` into `to`.
    ///
    /// `nursery` identifies which of the `from` ranges is the allocation
    /// area, so the profiler can distinguish first promotions (the "% old"
    /// statistic) from later copies. `los`, when given, receives
    /// mark/scan treatment instead of copying.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        mem: &'a mut Memory,
        from: &'a [SpaceRange],
        to: &'a mut Space,
        nursery: Option<SpaceRange>,
        los: Option<&'a mut LargeObjectSpace>,
        profile: Option<&'a mut HeapProfile>,
        stats: &'a mut GcStats,
        cost: CostModel,
    ) -> Evacuator<'a> {
        let scan = to.frontier();
        Evacuator {
            mem,
            from: FromSet::new(from),
            to,
            nursery,
            los,
            profile,
            stats,
            telem: None,
            cost,
            scan,
            survivor: None,
            survivor_scan: Addr::NULL,
            tenure_age: 0,
            queue: ObjectQueue::default(),
            young_owner_refs: Vec::new(),
            young_field_locs: Vec::new(),
        }
    }

    /// Routes from-space objects whose post-copy age is below
    /// `tenure_age` into `survivor` instead of `to` — the §7.2
    /// tenure-threshold discipline ("counter bits within each object
    /// record the number of minor collections the object has survived").
    pub fn set_survivor(&mut self, survivor: &'a mut Space, tenure_age: u8) {
        self.survivor_scan = survivor.frontier();
        self.survivor = Some(survivor);
        self.tenure_age = tenure_age;
    }

    /// Lends the plan's telemetry accumulator to this collection so
    /// copies and in-place scans feed the per-site counters and size
    /// histogram.
    pub fn set_telemetry(&mut self, telem: &'a mut TelemetryAcc) {
        self.telem = Some(telem);
    }

    /// Total simulated GC cycles charged so far, read through the stats
    /// borrow this evacuator holds — lets a plan mark phase boundaries
    /// while the collection is in flight.
    pub fn current_gc_cycles(&self) -> u64 {
        self.stats.gc_cycles()
    }

    /// Whether `addr` lies in the survivor (aging) space.
    #[inline]
    fn in_survivor(&self, addr: Addr) -> bool {
        self.survivor.as_ref().is_some_and(|s| s.contains(addr))
    }

    /// Old-generation objects found referencing survivor-space objects —
    /// the §7.2 remembered set the next minor collection must rescan.
    pub fn take_young_owner_refs(&mut self) -> Vec<Addr> {
        std::mem::take(&mut self.young_owner_refs)
    }

    /// Old-generation field locations whose targets stayed young.
    pub fn take_young_field_locs(&mut self) -> Vec<Addr> {
        std::mem::take(&mut self.young_field_locs)
    }

    /// Forwards a raw word (no-op for words that do not point into
    /// from-space — which is exactly why forwarding must only ever be
    /// applied to words *known* to be pointers).
    #[inline]
    pub fn forward_word(&mut self, word: u64) -> u64 {
        u64::from(self.forward(Addr::new(word as u32)).raw())
    }

    /// Forwards a pointer, copying the target on first contact. Only the
    /// test every pointer takes is inlined into the caller; the copy and
    /// the large-object mark stay out of line, so a pointer that stays
    /// put costs no call.
    ///
    /// # Panics
    ///
    /// Panics if to-space overflows — the heap budget is exhausted.
    #[inline]
    pub fn forward(&mut self, addr: Addr) -> Addr {
        if addr.is_null() {
            return addr;
        }
        if self.from.contains(addr) {
            return self.evacuate(addr);
        }
        if self.los.is_some() {
            self.visit_large(addr);
        }
        addr
    }

    /// The from-space object at `addr`: its copy, made on first contact.
    #[inline(never)]
    fn evacuate(&mut self, addr: Addr) -> Addr {
        let h = object::header(self.mem, addr);
        if let Some(to) = h.forward_addr() {
            return to;
        }
        let words = h.size_words();
        let new_age = h.age().saturating_add(1);
        let site = self.mem.site_of(addr);
        let dest = match self.survivor.as_deref_mut() {
            Some(survivor) if new_age < self.tenure_age && survivor.fits(words) => survivor,
            _ => &mut *self.to,
        };
        let new = dest
            .alloc(words)
            .unwrap_or_else(|_| panic!("to-space overflow: heap budget exhausted"));
        self.mem.copy_words(addr, new, words);
        // Survivors age by one collection. The dirty bit lives in
        // the side bitmap now and stays behind at the old address
        // (bulk-cleared when the space is vacated); the site tag is
        // the one piece of side metadata that moves with the object.
        object::set_header(self.mem, new, h.with_age(new_age));
        self.mem.set_site(new, site);
        object::set_header(self.mem, addr, Header::forward(new));
        let bytes = h.size_bytes();
        self.stats.copied_bytes += bytes as u64;
        self.stats.copy_cycles += self.cost.copy_per_word * words as u64;
        if self.profile.is_some() || self.telem.is_some() {
            let from_nursery = self.nursery.is_some_and(|n| n.contains(addr));
            if let Some(p) = self.profile.as_deref_mut() {
                p.on_copy(addr, new, bytes, from_nursery);
            }
            if let Some(t) = self.telem.as_deref_mut() {
                t.note_copy(site.get(), bytes as u64, from_nursery);
            }
        }
        new
    }

    /// Marks and queues `addr` if it is a large object not yet reached.
    #[inline(never)]
    fn visit_large(&mut self, addr: Addr) {
        if let Some(los) = self.los.as_deref() {
            if los.contains(addr) && los.mark(self.mem, addr) {
                self.stats.copy_cycles += self.cost.large_object_visit;
                self.queue.push(addr);
            }
        }
    }

    /// Forwards every root location, writing relocated values back, and
    /// charges the paper's per-root costs (`root_check` for every root
    /// examined, `root_process` for every root that moved). Returns the
    /// number of relocated roots.
    ///
    /// This is the root-feeding step every plan shares: the roots come
    /// from [`scan_stack`](crate::roots::scan_stack) (plus the cached
    /// frames the plan chose to expand), and whether forwarding moves a
    /// root depends only on the from-ranges this driver was configured
    /// with.
    pub fn forward_roots(&mut self, m: &mut MutatorState, roots: &[RootLoc]) -> u64 {
        let mut relocated: u64 = 0;
        for &loc in roots {
            let word = read_root(m, loc);
            let fwd = self.forward_word(word);
            if fwd != word {
                write_root(m, loc, fwd);
                relocated += 1;
            }
        }
        self.stats.roots_found += roots.len() as u64;
        self.stats.stack_cycles +=
            self.cost.root_check * roots.len() as u64 + self.cost.root_process * relocated;
        relocated
    }

    /// Runs the transitive closure to completion: the Cheney cursors
    /// (to-space, then the survivor space) scan copied objects where they
    /// landed, the [`ObjectQueue`] yields the objects traced in place,
    /// and the loop ends when all three are dry.
    pub fn drain(&mut self) {
        loop {
            if self.scan < self.to.frontier() {
                let addr = self.scan;
                let h = object::header(self.mem, addr);
                debug_assert!(!h.is_forward(), "forwarding header in to-space");
                self.scan = addr + h.size_words();
                self.scan_gray(addr, h);
            } else if self
                .survivor
                .as_deref()
                .is_some_and(|s| self.survivor_scan < s.frontier())
            {
                let addr = self.survivor_scan;
                let h = object::header(self.mem, addr);
                debug_assert!(!h.is_forward(), "forwarding header in survivor space");
                self.survivor_scan = addr + h.size_words();
                self.scan_gray(addr, h);
            } else if let Some(obj) = self.queue.pop() {
                let h = object::header(self.mem, obj);
                self.scan_gray(obj, h);
            } else {
                break;
            }
        }
    }

    /// Scans one gray object of the closure: charges its words to
    /// `scanned_words` at `scan_per_word`, then forwards its fields.
    #[inline]
    fn scan_gray(&mut self, addr: Addr, h: Header) {
        self.stats.scanned_words += h.size_words() as u64;
        self.stats.copy_cycles += self.cost.scan_per_word * h.size_words() as u64;
        self.scan_fields(addr, h);
    }

    /// Forwards the pointer stored at memory location `loc` (a sequential
    /// store buffer entry), writing the relocated value back. If the
    /// location is in the old generation and its target stayed in the
    /// survivor space, the location joins the young-refs remembered set.
    pub fn forward_word_at(&mut self, loc: Addr) {
        let word = self.mem.word(loc);
        let fwd = self.forward_word(word);
        if fwd != word {
            self.mem.set_word(loc, fwd);
        }
        if !self.from.contains(loc)
            && !self.in_survivor(loc)
            && self.in_survivor(Addr::new(fwd as u32))
        {
            self.young_field_locs.push(loc);
        }
    }

    /// Processes one object-marking barrier entry: clears the side dirty
    /// bit and scans the object's fields in place. If the object was
    /// already evacuated (its copy is scanned by the Cheney drain, and
    /// the stale bit at the old address is bulk-cleared when the space
    /// is vacated), nothing is needed.
    pub fn clear_dirty_and_scan(&mut self, obj: Addr) {
        let h = object::header(self.mem, obj);
        if h.is_forward() {
            return;
        }
        self.mem.clear_dirty(obj);
        self.stats.copy_cycles += self.cost.region_scan_per_word * h.size_words() as u64;
        self.scan_fields(obj, h);
    }

    /// Scans an object *in place*, forwarding its pointer fields without
    /// copying the object itself. Used for freshly pretenured regions,
    /// dirty (write-barrier-remembered) objects, and young large arrays.
    pub fn scan_in_place(&mut self, addr: Addr) {
        let h = object::header(self.mem, addr);
        debug_assert!(!h.is_forward(), "in-place scan of forwarded object");
        self.stats.copy_cycles += self.cost.scan_per_word * h.size_words() as u64;
        self.stats.pretenured_scanned_words += h.size_words() as u64;
        if let Some(t) = self.telem.as_deref_mut() {
            t.note_inplace_scan(h.size_bytes() as u64);
        }
        self.scan_fields(addr, h);
    }

    /// Forwards a batch of store-buffer field locations.
    ///
    /// The batch is sorted and deduplicated first — the paper notes (§4)
    /// that "the simple sequential store list records a mutated site
    /// repeatedly", so a hot field reached the buffer once per store.
    /// Filtering duplicates up front means each distinct location pays the
    /// read-forward-write cycle once. The simulated cost of examining the
    /// buffer is charged per *recorded* entry by the caller, exactly as
    /// before, so `GcStats` is unchanged.
    pub fn forward_field_locs(&mut self, locs: &mut Vec<Addr>) {
        sort_dedup_addrs(self.mem.ssb_scratch_mut(), locs);
        for &loc in locs.iter() {
            self.forward_word_at(loc);
        }
    }

    /// Forwards every pointer field of the object at `addr`, dispatching
    /// to a batched kernel per object kind. All three paths visit the same
    /// fields in the same ascending order as the reference loop and feed
    /// the profiler identically.
    fn scan_fields(&mut self, addr: Addr, h: Header) {
        match h.kind() {
            ObjectKind::RawArray => {}
            ObjectKind::Record => self.scan_record(addr, h),
            ObjectKind::PtrArray => self.scan_ptr_array(addr, h),
        }
    }

    /// Batched record scan: the payload is snapshotted with one bounds
    /// check, pointer fields are found by iterating the set bits of the
    /// header's pointer mask, and the (rarely) updated words are written
    /// back as one slice.
    ///
    /// Snapshotting is sound because [`forward`](Self::forward) only ever
    /// writes to fresh to-space/survivor allocations and to the *headers*
    /// of from-space objects — never into the payload of the object being
    /// scanned (objects are disjoint, and scanned objects are never in
    /// from-space).
    fn scan_record(&mut self, addr: Addr, h: Header) {
        let mut mask = h.ptr_mask();
        if mask == 0 {
            // No pointer fields: nothing to forward, no edges to profile,
            // and `holds_young` stays false — exactly what the reference
            // loop concludes after decoding every field.
            return;
        }
        let len = h.len();
        let base = object::field_addr(addr, 0);
        let mut buf = [0u64; MAX_RECORD_FIELDS];
        let buf = &mut buf[..len];
        buf.copy_from_slice(self.mem.words_at(base, len));

        let owner_is_old = !self.from.contains(addr) && !self.in_survivor(addr);
        let mut holds_young = false;
        let mut changed = false;
        while mask != 0 {
            let i = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            let child = Addr::new(buf[i] as u32);
            if child.is_null() {
                continue;
            }
            let new_child = self.forward(child);
            if new_child != child {
                buf[i] = u64::from(new_child.raw());
                changed = true;
            }
            holds_young |= self.in_survivor(new_child);
            if let Some(p) = self.profile.as_deref_mut() {
                let child_site = self.mem.site_of(new_child);
                p.on_edge(self.mem.site_of(addr), child_site);
            }
        }
        if changed {
            self.mem.words_at_mut(base, len).copy_from_slice(buf);
        }
        if owner_is_old && holds_young {
            self.young_owner_refs.push(addr);
        }
    }

    /// Batched pointer-array scan: elements are processed in fixed-size
    /// chunks, each snapshotted and written back as a slice (every element
    /// of a pointer array is a pointer — no mask to consult).
    fn scan_ptr_array(&mut self, addr: Addr, h: Header) {
        const CHUNK: usize = 64;
        let len = h.len();
        let owner_is_old = !self.from.contains(addr) && !self.in_survivor(addr);
        let mut holds_young = false;
        let mut buf = [0u64; CHUNK];
        let mut start = 0;
        while start < len {
            let n = CHUNK.min(len - start);
            let base = object::field_addr(addr, start);
            let buf = &mut buf[..n];
            buf.copy_from_slice(self.mem.words_at(base, n));
            let mut changed = false;
            for slot in buf.iter_mut() {
                let child = Addr::new(*slot as u32);
                if child.is_null() {
                    continue;
                }
                let new_child = self.forward(child);
                if new_child != child {
                    *slot = u64::from(new_child.raw());
                    changed = true;
                }
                holds_young |= self.in_survivor(new_child);
                if let Some(p) = self.profile.as_deref_mut() {
                    let child_site = self.mem.site_of(new_child);
                    p.on_edge(self.mem.site_of(addr), child_site);
                }
            }
            if changed {
                self.mem.words_at_mut(base, n).copy_from_slice(buf);
            }
            start += n;
        }
        if owner_is_old && holds_young {
            self.young_owner_refs.push(addr);
        }
    }
}

/// Sorts and deduplicates a store-buffer address batch, producing the
/// ascending unique locations — exactly `sort_unstable` + `dedup`, by
/// one of two routes picked by batch shape:
///
/// * **dense batches** (address span under 64× the entry count — the
///   common store-buffer shape, hot fields clustered in one region) are
///   collapsed through `scratch`, the heap's side-metadata SSB bitmap:
///   one set-bit pass over the entries, one `trailing_zeros` walk over
///   the span's bitmap words. Linear in entries + span words, no sort
///   and **zero allocation** — the bitmap is sized to the address space
///   and already resident (so every heap address fits it), and the
///   drain leaves it all-clear for the next batch;
/// * sparse batches comparison-sort.
///
/// Why two routes and no more. Counted per call at the commit that
/// deleted the other two (an LSB radix sort for sparse batches of
/// ≥ 2 048 entries, and a span-sized temporary bitmap for callers
/// without a scratch): `experiments all` dense 3 517× / comparison
/// 4 381× (largest sparse batch 132 entries); benchmark `barrier-storm`
/// dense 20 133×, `churn-gen` / `churn-par` dense 1 377×, `table5` 54
/// dense + 819 comparison, `paper-k2` 1 917 dense + 1 765 comparison
/// (largest 132), `churn-semi` / `stack-rescan` / `stack-markers` none;
/// torture `--seeds 0..200` on every lane ≤ 773 of each, batches ≤ 5.
/// Radix and temporary bitmap: 0 everywhere — a sparse batch that large
/// needs ≥ 2 048 entries spread over ≥ 1 MB in one minor collection,
/// and the evacuator always has the scratch.
fn sort_dedup_addrs(scratch: &mut SideBitmap, locs: &mut Vec<Addr>) {
    let n = locs.len();
    if n < 2 {
        return;
    }
    let (mut lo, mut hi) = (u32::MAX, 0u32);
    for &a in locs.iter() {
        lo = lo.min(a.raw());
        hi = hi.max(a.raw());
    }
    let span = (hi - lo) as usize + 1;
    if span / 64 < n {
        for &a in locs.iter() {
            scratch.set(a);
        }
        locs.clear();
        scratch.drain_sorted(Addr::new(lo), Addr::new(hi), locs);
    } else {
        locs.sort_unstable();
        locs.dedup();
    }
}

/// Reports every unforwarded (dead) object in `[start, upto)` to the
/// profiler — the death sweep each plan runs over a vacated range before
/// poisoning and resetting it. A no-op without a profiler.
pub(crate) fn sweep_profile_deaths(
    mem: &Memory,
    profile: Option<&mut HeapProfile>,
    start: Addr,
    upto: Addr,
) {
    if let Some(p) = profile {
        for entry in object::walk(mem, start, upto) {
            if entry.forwarded.is_none() {
                p.on_death(entry.addr);
            }
        }
    }
}

/// Poisons a vacated range in debug builds so stale reads fail loudly.
pub fn poison_range(mem: &mut Memory, range: SpaceRange, upto: Addr) {
    if cfg!(debug_assertions) {
        let end = upto.min(range.end);
        if end > range.start {
            mem.fill(range.start, end - range.start, POISON);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tilgc_mem::SiteId;

    struct Rig {
        mem: Memory,
        from: Space,
        to: Space,
        stats: GcStats,
    }

    fn rig(words: usize) -> Rig {
        let mut mem = Memory::with_capacity_words(2 * words + 8);
        let from = Space::new(mem.reserve(words).unwrap());
        let to = Space::new(mem.reserve(words).unwrap());
        Rig {
            mem,
            from,
            to,
            stats: GcStats::default(),
        }
    }

    #[test]
    fn forward_copies_once_and_installs_forwarding() {
        let mut r = rig(256);
        let a =
            object::alloc_record(&mut r.mem, &mut r.from, SiteId::new(1), &[41, 42], 0).unwrap();
        let from_ranges = [r.from.range()];
        let mut ev = Evacuator::new(
            &mut r.mem,
            &from_ranges,
            &mut r.to,
            None,
            None,
            None,
            &mut r.stats,
            CostModel::default(),
        );
        let new1 = ev.forward(a);
        let new2 = ev.forward(a);
        assert_eq!(new1, new2, "second forward follows the forwarding pointer");
        assert_ne!(new1, a);
        assert_eq!(object::field(&r.mem, new1, 1), 42);
        assert_eq!(object::header(&r.mem, a).forward_addr(), Some(new1));
        assert_eq!(r.stats.copied_bytes, 24, "one 3-word object copied once");
    }

    #[test]
    fn drain_copies_transitively_and_updates_fields() {
        let mut r = rig(256);
        // c <- b <- a (a points to b points to c)
        let c = object::alloc_record(&mut r.mem, &mut r.from, SiteId::new(3), &[7], 0).unwrap();
        let b = object::alloc_record(
            &mut r.mem,
            &mut r.from,
            SiteId::new(2),
            &[u64::from(c.raw())],
            0b1,
        )
        .unwrap();
        let a = object::alloc_record(
            &mut r.mem,
            &mut r.from,
            SiteId::new(1),
            &[u64::from(b.raw())],
            0b1,
        )
        .unwrap();
        let from_ranges = [r.from.range()];
        let mut ev = Evacuator::new(
            &mut r.mem,
            &from_ranges,
            &mut r.to,
            None,
            None,
            None,
            &mut r.stats,
            CostModel::default(),
        );
        let new_a = ev.forward(a);
        ev.drain();
        let new_b = object::ptr_field(&r.mem, new_a, 0);
        let new_c = object::ptr_field(&r.mem, new_b, 0);
        assert!(r.to.contains(new_b) && r.to.contains(new_c));
        assert_eq!(object::field(&r.mem, new_c, 0), 7);
        assert_eq!(r.stats.copied_bytes, 3 * 16);
    }

    #[test]
    fn null_and_foreign_pointers_pass_through() {
        let mut r = rig(64);
        let from_ranges = [r.from.range()];
        let mut ev = Evacuator::new(
            &mut r.mem,
            &from_ranges,
            &mut r.to,
            None,
            None,
            None,
            &mut r.stats,
            CostModel::default(),
        );
        assert_eq!(ev.forward(Addr::NULL), Addr::NULL);
        let foreign = from_ranges[0].end; // start of to-space, not in from-space
        assert_eq!(ev.forward(foreign), foreign);
        assert_eq!(r.stats.copied_bytes, 0);
    }

    #[test]
    fn copies_age_and_lose_dirty_bit() {
        let mut r = rig(64);
        let a = object::alloc_record(&mut r.mem, &mut r.from, SiteId::new(1), &[0], 0).unwrap();
        r.mem.set_dirty(a);
        let from_ranges = [r.from.range()];
        let mut ev = Evacuator::new(
            &mut r.mem,
            &from_ranges,
            &mut r.to,
            None,
            None,
            None,
            &mut r.stats,
            CostModel::default(),
        );
        let new = ev.forward(a);
        let nh = object::header(&r.mem, new);
        assert_eq!(nh.age(), 1);
        assert!(
            !r.mem.is_dirty(new),
            "side dirty bit stays at the old address"
        );
        assert_eq!(
            r.mem.site_of(new),
            SiteId::new(1),
            "site tag moves with the copy"
        );
        assert!(
            r.mem.is_dirty(a),
            "the stale from-space bit is the plan's to bulk-clear at vacate time"
        );
    }

    #[test]
    fn large_objects_are_marked_and_scanned_not_copied() {
        let mut mem = Memory::with_capacity_words(4096);
        let mut from = Space::new(mem.reserve(256).unwrap());
        let mut to = Space::new(mem.reserve(256).unwrap());
        let mut los = LargeObjectSpace::new(mem.reserve(2048).unwrap());
        let mut stats = GcStats::default();

        // A small record in from-space...
        let small = object::alloc_record(&mut mem, &mut from, SiteId::new(1), &[5], 0).unwrap();
        // ...pointed to by a large pointer array in the LOS.
        let big_words = 1 + 300;
        let big = los.alloc(big_words).unwrap();
        let h = Header::ptr_array(300).unwrap();
        object::set_header(&mut mem, big, h);
        mem.set_site(big, SiteId::new(2));
        for i in 0..300 {
            object::set_field(&mut mem, big, i, 0);
        }
        object::set_field(&mut mem, big, 7, u64::from(small.raw()));

        los.begin_marking(&mut mem);
        let from_ranges = [from.range()];
        let mut ev = Evacuator::new(
            &mut mem,
            &from_ranges,
            &mut to,
            None,
            Some(&mut los),
            None,
            &mut stats,
            CostModel::default(),
        );
        let fwd = ev.forward(big);
        assert_eq!(fwd, big, "large objects never move");
        ev.drain();
        // The small record was reached through the large array and copied;
        // the array's field was updated.
        let new_small = object::ptr_field(&mem, big, 7);
        assert!(to.contains(new_small));
        assert_eq!(object::field(&mem, new_small, 0), 5);
        assert_eq!(
            los.sweep(&mem).len(),
            0,
            "marked large object survives the sweep"
        );
    }

    #[test]
    fn scan_in_place_forwards_fields_without_moving_owner() {
        let mut r = rig(256);
        let child = object::alloc_record(&mut r.mem, &mut r.from, SiteId::new(1), &[9], 0).unwrap();
        // Owner lives in to-space (e.g. a freshly pretenured object).
        let owner = object::alloc_record(
            &mut r.mem,
            &mut r.to,
            SiteId::new(2),
            &[u64::from(child.raw())],
            0b1,
        )
        .unwrap();
        let from_ranges = [r.from.range()];
        let mut ev = Evacuator::new(
            &mut r.mem,
            &from_ranges,
            &mut r.to,
            None,
            None,
            None,
            &mut r.stats,
            CostModel::default(),
        );
        ev.scan_in_place(owner);
        ev.drain();
        let new_child = object::ptr_field(&r.mem, owner, 0);
        assert_ne!(new_child, child);
        assert_eq!(object::field(&r.mem, new_child, 0), 9);
        assert!(r.stats.pretenured_scanned_words > 0);
    }

    #[test]
    fn survivor_space_receives_young_objects_until_the_threshold() {
        let mut mem = Memory::with_capacity_words(1024);
        let mut from = Space::new(mem.reserve(256).unwrap());
        let mut tenured = Space::new(mem.reserve(256).unwrap());
        let mut survivor = Space::new(mem.reserve(256).unwrap());
        let mut stats = GcStats::default();
        // Two objects: one brand new (age 0), one that has already
        // survived twice (age 2). Threshold 3: the first goes to the
        // survivor space, the second tenures.
        let young = object::alloc_record(&mut mem, &mut from, SiteId::new(1), &[1], 0).unwrap();
        let older = object::alloc_record(&mut mem, &mut from, SiteId::new(2), &[2], 0).unwrap();
        let h = object::header(&mem, older).with_age(2);
        object::set_header(&mut mem, older, h);

        let from_ranges = [from.range()];
        let mut ev = Evacuator::new(
            &mut mem,
            &from_ranges,
            &mut tenured,
            None,
            None,
            None,
            &mut stats,
            CostModel::default(),
        );
        ev.set_survivor(&mut survivor, 3);
        let new_young = ev.forward(young);
        let new_older = ev.forward(older);
        ev.drain();
        assert!(survivor.contains(new_young), "age 1 < 3: stays young");
        assert!(tenured.contains(new_older), "age 3 >= 3: tenured");
        assert_eq!(object::header(&mem, new_young).age(), 1);
        assert_eq!(object::header(&mem, new_older).age(), 3);
    }

    #[test]
    fn survivor_space_objects_are_cheney_scanned() {
        let mut mem = Memory::with_capacity_words(1024);
        let mut from = Space::new(mem.reserve(256).unwrap());
        let mut tenured = Space::new(mem.reserve(256).unwrap());
        let mut survivor = Space::new(mem.reserve(256).unwrap());
        let mut stats = GcStats::default();
        // A young parent (goes to survivor space) pointing at a young
        // child: the drain must chase through the survivor cursor.
        let child = object::alloc_record(&mut mem, &mut from, SiteId::new(1), &[7], 0).unwrap();
        let parent = object::alloc_record(
            &mut mem,
            &mut from,
            SiteId::new(2),
            &[u64::from(child.raw())],
            0b1,
        )
        .unwrap();
        let from_ranges = [from.range()];
        let mut ev = Evacuator::new(
            &mut mem,
            &from_ranges,
            &mut tenured,
            None,
            None,
            None,
            &mut stats,
            CostModel::default(),
        );
        ev.set_survivor(&mut survivor, 4);
        let new_parent = ev.forward(parent);
        ev.drain();
        let new_child = object::ptr_field(&mem, new_parent, 0);
        assert!(survivor.contains(new_parent));
        assert!(
            survivor.contains(new_child),
            "child chased via the survivor scan cursor"
        );
        assert_eq!(object::field(&mem, new_child, 0), 7);
    }

    #[test]
    fn sort_dedup_matches_sort_then_dedup_on_every_shape() {
        let mut mem = Memory::with_capacity_words(1 << 16);
        let mut state = 0x1234_5678u32;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 17;
            state ^= state << 5;
            state
        };
        // Dense (bitmap route), sparse-large and sparse-small (both the
        // comparison route), duplicates everywhere.
        let shapes: Vec<Vec<Addr>> = vec![
            (0..5000).map(|_| Addr::new(1000 + rng() % 900)).collect(),
            (0..4096).map(|_| Addr::new(rng() >> 4)).collect(),
            (0..100).map(|_| Addr::new(8 + rng() % 2_000_000)).collect(),
            vec![Addr::new(7)],
            vec![],
        ];
        for mut v in shapes {
            let mut expect = v.clone();
            expect.sort_unstable();
            expect.dedup();
            sort_dedup_addrs(mem.ssb_scratch_mut(), &mut v);
            assert_eq!(v, expect);
        }
    }

    /// The scratch-bitmap route against the reference, `sort_unstable` +
    /// `dedup`, batch after batch over one persistent scratch.
    #[test]
    fn sort_dedup_scratch_bitmap_path_matches_temp_vec_path() {
        let mut mem = Memory::with_capacity_words(1 << 16);
        let mut state = 0x9e37_79b9u32;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 17;
            state ^= state << 5;
            state
        };
        for round in 0..20 {
            // Dense cluster inside the heap: the scratch route triggers.
            let base = 1 + rng() % 60_000;
            let mut v: Vec<Addr> = (0..500 + round * 37)
                .map(|_| Addr::new(base + rng() % 400))
                .collect();
            let mut expect = v.clone();
            expect.sort_unstable();
            expect.dedup();
            sort_dedup_addrs(mem.ssb_scratch_mut(), &mut v);
            assert_eq!(v, expect, "scratch route diverged in round {round}");
        }
        // The scratch must be left all-clear between batches: a second
        // batch over a disjoint range sees no leftover bits.
        let mut v = vec![Addr::new(40), Addr::new(41), Addr::new(40), Addr::new(45)];
        sort_dedup_addrs(mem.ssb_scratch_mut(), &mut v);
        assert_eq!(v, vec![Addr::new(40), Addr::new(41), Addr::new(45)]);
    }

    #[test]
    fn profile_sees_promotions() {
        let mut r = rig(256);
        let a = object::alloc_record(&mut r.mem, &mut r.from, SiteId::new(4), &[1], 0).unwrap();
        let mut profile = HeapProfile::new();
        profile.on_alloc(a, SiteId::new(4), 16);
        let from_ranges = [r.from.range()];
        let nursery = Some(r.from.range());
        let mut ev = Evacuator::new(
            &mut r.mem,
            &from_ranges,
            &mut r.to,
            nursery,
            None,
            Some(&mut profile),
            &mut r.stats,
            CostModel::default(),
        );
        ev.forward(a);
        ev.drain();
        let row = profile.site(SiteId::new(4)).unwrap();
        assert_eq!(row.survived_first, 1);
        assert_eq!(row.copied_bytes, 16);
    }

    /// The scalar kernels the batched ones replaced, kept as the oracles
    /// of the differential tests below.
    impl Evacuator<'_> {
        /// The pre-batching scan loop: header-decoded pointer test and
        /// one bounds-checked read/write per field.
        fn scan_fields_reference(&mut self, addr: Addr, h: Header) {
            if h.kind() == ObjectKind::RawArray {
                return;
            }
            let owner_is_old = !self.from.contains(addr) && !self.in_survivor(addr);
            let mut holds_young = false;
            for i in 0..h.len() {
                if !h.field_is_pointer(i) {
                    continue;
                }
                let child = object::ptr_field(self.mem, addr, i);
                if child.is_null() {
                    continue;
                }
                let new_child = self.forward(child);
                if new_child != child {
                    object::set_field(self.mem, addr, i, u64::from(new_child.raw()));
                }
                holds_young |= self.in_survivor(new_child);
            }
            if owner_is_old && holds_young {
                self.young_owner_refs.push(addr);
            }
        }

        /// [`scan_in_place`](Evacuator::scan_in_place) through the scalar
        /// field loop, with the same charges.
        fn scan_in_place_reference(&mut self, addr: Addr) {
            let h = object::header(self.mem, addr);
            self.stats.copy_cycles += self.cost.scan_per_word * h.size_words() as u64;
            self.stats.pretenured_scanned_words += h.size_words() as u64;
            self.scan_fields_reference(addr, h);
        }

        /// The pre-batching store-buffer filter: one forward per
        /// recorded entry, duplicates and all.
        fn forward_field_locs_reference(&mut self, locs: &[Addr]) {
            for &loc in locs {
                self.forward_word_at(loc);
            }
        }
    }

    /// Everything a trace leaves behind that a kernel could get wrong.
    #[derive(Debug, PartialEq)]
    struct Traced {
        words: Vec<u64>,
        stats: GcStats,
        young_owner_refs: Vec<Addr>,
        young_field_locs: Vec<Addr>,
        frontiers: (Addr, Addr),
    }

    /// Builds the differential heap — old-generation owners of every
    /// shape (records with mask 0, all-ones, sparse-with-top-bit and
    /// pseudo-random masks, a pointer array longer than one 64-element
    /// chunk, a raw array) whose pointer fields cycle through null,
    /// `fanout` young and `fanout` aged from-space records, a to-space
    /// record, a large object and a foreign record, and whose non-pointer
    /// fields hold a from-space address a sloppy kernel would forward —
    /// then runs `feed(evacuator, owners)` and the drain over it. Aged
    /// records tenure, young ones stay in the survivor space.
    fn trace_heap(fanout: usize, feed: impl FnOnce(&mut Evacuator<'_>, &[Addr])) -> Traced {
        const CAPACITY: usize = 16 << 10;
        let mut mem = Memory::with_capacity_words(CAPACITY);
        let mut from = Space::new(mem.reserve(1024).unwrap());
        let mut to = Space::new(mem.reserve(2048).unwrap());
        let mut survivor = Space::new(mem.reserve(1024).unwrap());
        let mut old = Space::new(mem.reserve(4096).unwrap());
        let mut los = LargeObjectSpace::new(mem.reserve(1024).unwrap());
        let site = SiteId::new(1);
        let word = |a: Addr| u64::from(a.raw());

        let mut targets = vec![Addr::NULL];
        let mut prev = Addr::NULL;
        for i in 0..fanout {
            let young =
                object::alloc_record(&mut mem, &mut from, site, &[word(prev), i as u64], 0b01)
                    .unwrap();
            let aged =
                object::alloc_record(&mut mem, &mut from, site, &[7, word(young)], 0b10).unwrap();
            let h = object::header(&mem, aged).with_age(1);
            object::set_header(&mut mem, aged, h);
            targets.extend([young, aged]);
            prev = young;
        }
        let decoy = word(prev);
        targets.push(object::alloc_record(&mut mem, &mut to, site, &[3], 0).unwrap());
        let big = los.alloc(71).unwrap();
        object::set_header(&mut mem, big, Header::ptr_array(70).unwrap());
        mem.set_site(big, site);
        for i in 0..70 {
            object::set_field(&mut mem, big, i, word(targets[i % targets.len()]));
        }
        targets.push(big);
        targets.push(object::alloc_record(&mut mem, &mut old, site, &[5], 0).unwrap());

        let mut next = 0usize;
        let mut pick = || {
            next += 1;
            word(targets[(next * 7) % targets.len()])
        };
        let full = (1u32 << MAX_RECORD_FIELDS) - 1;
        let mut masks = vec![
            (6, 0),
            (MAX_RECORD_FIELDS, full),
            (
                MAX_RECORD_FIELDS,
                1 | 1 << 11 | 1 << (MAX_RECORD_FIELDS - 1),
            ),
            (1, 1),
        ];
        masks.extend((0..32u32).map(|n| {
            let len = 1 + n as usize % MAX_RECORD_FIELDS;
            (len, (n.wrapping_mul(2_654_435_761) >> 7) & ((1 << len) - 1))
        }));
        let mut owners = Vec::new();
        for (len, mask) in masks {
            let fields: Vec<u64> = (0..len)
                .map(|i| if mask >> i & 1 == 1 { pick() } else { decoy })
                .collect();
            owners.push(object::alloc_record(&mut mem, &mut old, site, &fields, mask).unwrap());
        }
        let array = object::alloc_ptr_array(&mut mem, &mut old, site, 150, Addr::NULL).unwrap();
        for i in 0..150 {
            object::set_field(&mut mem, array, i, pick());
        }
        owners.push(array);
        let raw = object::alloc_raw_array(&mut mem, &mut old, site, 64).unwrap();
        object::set_field(&mut mem, raw, 3, decoy);
        owners.push(raw);

        los.begin_marking(&mut mem);
        let mut stats = GcStats::default();
        let from_ranges = [from.range()];
        let mut ev = Evacuator::new(
            &mut mem,
            &from_ranges,
            &mut to,
            None,
            Some(&mut los),
            None,
            &mut stats,
            CostModel::default(),
        );
        ev.set_survivor(&mut survivor, 2);
        feed(&mut ev, &owners);
        ev.drain();
        let young_owner_refs = ev.take_young_owner_refs();
        let young_field_locs = ev.take_young_field_locs();
        Traced {
            words: mem.words_at(Addr::new(1), CAPACITY - 1).to_vec(),
            stats,
            young_owner_refs,
            young_field_locs,
            frontiers: (to.frontier(), survivor.frontier()),
        }
    }

    #[test]
    fn batched_scan_matches_the_scalar_field_loop() {
        let batched = trace_heap(8, |ev, owners| {
            for &o in owners {
                ev.scan_in_place(o);
            }
        });
        let scalar = trace_heap(8, |ev, owners| {
            for &o in owners {
                ev.scan_in_place_reference(o);
            }
        });
        assert!(batched.stats.copied_bytes > 0 && !batched.young_owner_refs.is_empty());
        assert_eq!(batched, scalar);
    }

    /// The store-buffer batch: every pointer field of every owner,
    /// recorded three times over in a scrambled order.
    fn recorded_locs(mem: &Memory, owners: &[Addr]) -> Vec<Addr> {
        let mut distinct = Vec::new();
        for &o in owners {
            let h = object::header(mem, o);
            distinct.extend(
                (0..h.len())
                    .filter(|&i| h.kind() != ObjectKind::RawArray && h.field_is_pointer(i))
                    .map(|i| object::field_addr(o, i)),
            );
        }
        (0..3 * distinct.len())
            .map(|i| distinct[i.wrapping_mul(2_654_435_761) % distinct.len()])
            .collect()
    }

    #[test]
    fn sorted_deduped_ssb_pass_matches_one_forward_per_entry() {
        // One young and one aged from-space record: they copy into
        // different spaces, so the heap does not depend on which entry
        // reaches them first and the two orders must agree word for word.
        let batched = trace_heap(1, |ev, owners| {
            let mut locs = recorded_locs(ev.mem, owners);
            ev.forward_field_locs(&mut locs);
        });
        let mut per_entry = trace_heap(1, |ev, owners| {
            let locs = recorded_locs(ev.mem, owners);
            ev.forward_field_locs_reference(&locs);
        });
        assert!(batched.stats.copied_bytes > 0 && !batched.young_field_locs.is_empty());
        // The scalar pass records a young location once per entry, in
        // recording order; the batch is its ascending set.
        per_entry.young_field_locs.sort_unstable();
        per_entry.young_field_locs.dedup();
        assert_eq!(batched, per_entry);
    }
}
