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
//! * **gray FIFOs** for the moving spaces (`to` and the survivor space):
//!   a copy that has a pointer field is queued on its space's FIFO when
//!   it is made; a pointer-free copy is never queued, only its words
//!   counted, so the closure never reads it again;
//! * an explicit [`ObjectQueue`] for objects traced **without moving** —
//!   marked large objects, and anything a plan feeds through
//!   [`scan_in_place`](Evacuator::scan_in_place) recursively discovers.
//!
//! [`drain`](Evacuator::drain) interleaves them until nothing gray
//! remains, in the order a Cheney scan of the two spaces would: all of
//! to-space first, then one survivor object, then one large object.
//! Every field scan goes through one batch kernel: gather the pointer
//! fields of up to [`BATCH_EDGES`] edges, load every from-space child's
//! header in one sweep (independent loads, so their cache misses
//! overlap), then forward the edges in order. Root feeding is shared too:
//! the stack scan forwards each fresh frame's roots where it decodes them,
//! then [`forward_roots`](Evacuator::forward_roots) relocates registers
//! and allocation-buffer entries by mask and the cached frames' stack
//! words by index, and charges the decode and the paper's per-root costs
//! for all of them, identically for every plan.

use std::collections::VecDeque;

use tilgc_mem::{object, Addr, Header, Memory, ObjectKind, SideBitmap, SiteId, Space, SpaceRange};
use tilgc_runtime::{CostModel, GcStats, HeapProfile, MutatorState, Reg};

use crate::los::LargeObjectSpace;
use crate::roots::ScanOutcome;

/// The indices of the set bits of `mask`, ascending.
fn set_bits(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let i = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            i
        })
    })
}

/// The explicit half of the driver's gray set: objects that will be
/// traced in place (large objects, pretenured regions) rather than
/// queued on a gray FIFO when copied.
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

/// The most edges one batch of the field-scan kernel gathers before its
/// header sweep. A pointer array with more elements is scanned in chunks
/// of this many.
const BATCH_EDGES: usize = 256;

/// The to-space FIFO's starting capacity: about the widest gray frontier
/// of a minor collection of the paper's programs, so such a collection
/// allocates its FIFO once instead of growing it while the roots are
/// forwarded.
const TO_GRAY_START: usize = 1024;

/// One pointer field gathered into a batch.
#[derive(Clone, Copy, Debug)]
struct Edge {
    /// Where the pointer is stored.
    loc: Addr,
    /// The pointer as gathered; never null.
    child: Addr,
    /// What the header sweep found: the child's copy if the child was
    /// already forwarded, null if it is a from-space object not yet
    /// copied, the child itself if it lies outside from-space.
    fwd: Addr,
}

/// A gray object whose edges a batch holds: what the per-owner
/// bookkeeping of those edges needs.
#[derive(Clone, Copy, Debug)]
struct Owner {
    addr: Addr,
    site: SiteId,
    /// Whether a survivor-space child puts `addr` in the §7.2 remembered
    /// set: the owner is old, and no earlier chunk of it already did.
    remembers: bool,
    /// One past the owner's last edge in the batch.
    end: usize,
}

/// Whether an object of header `h` has a pointer field: a record with a
/// nonzero mask, or a non-empty pointer array.
#[inline]
fn has_pointer_field(h: Header) -> bool {
    match h.kind() {
        ObjectKind::Record => h.ptr_mask() != 0,
        ObjectKind::PtrArray => !h.is_empty(),
        ObjectKind::RawArray => false,
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
    /// The from set as `(first, words)` when it alone decides whether a
    /// root moves (gap-free, no large-object space): `a - first < words`.
    root_range: Option<(u32, u32)>,
    to: &'a mut Space,
    nursery: Option<SpaceRange>,
    los: Option<&'a mut LargeObjectSpace>,
    profile: Option<&'a mut HeapProfile>,
    stats: &'a mut GcStats,
    cost: CostModel,
    /// Optional aging destination (§7.2 tenure-threshold variant):
    /// from-space objects younger than `tenure_age` are copied here
    /// instead of into `to`.
    survivor: Option<&'a mut Space>,
    tenure_age: u8,
    /// The moving half of the gray set: copies into to-space that have
    /// a pointer field, in copy order.
    to_gray: VecDeque<Addr>,
    /// Copies into the survivor space that have a pointer field.
    survivor_gray: VecDeque<Addr>,
    /// The batch the field-scan kernel is gathering, and its owners.
    edges: Vec<Edge>,
    owners: Vec<Owner>,
    /// Words of the pointer-free copies made so far, which no FIFO
    /// holds: [`drain`](Self::drain) charges them as scanned.
    unqueued_words: u64,
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
        let from = FromSet::new(from);
        let (start, end) = (from.hull.start.raw(), from.hull.end.raw());
        Evacuator {
            mem,
            root_range: (from.exact && los.is_none()).then_some((start, end - start)),
            from,
            to,
            nursery,
            los,
            profile,
            stats,
            cost,
            survivor: None,
            tenure_age: 0,
            to_gray: VecDeque::with_capacity(TO_GRAY_START),
            survivor_gray: VecDeque::new(),
            edges: Vec::with_capacity(BATCH_EDGES),
            owners: Vec::with_capacity(BATCH_EDGES),
            unqueued_words: 0,
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
        self.survivor = Some(survivor);
        self.tenure_age = tenure_age;
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

    /// The from-space object at `addr`: its copy, made on first contact
    /// and queued gray on its space's FIFO if it has a pointer field.
    #[inline(never)]
    fn evacuate(&mut self, addr: Addr) -> Addr {
        let h = object::header(self.mem, addr);
        if let Some(to) = h.forward_addr() {
            return to;
        }
        let words = h.size_words();
        let new_age = h.age().saturating_add(1);
        let site = h.site();
        let (dest, fifo) = match self.survivor.as_deref_mut() {
            Some(survivor) if new_age < self.tenure_age && survivor.fits(words) => {
                (survivor, &mut self.survivor_gray)
            }
            _ => (&mut *self.to, &mut self.to_gray),
        };
        let new = dest
            .alloc(words)
            .unwrap_or_else(|_| panic!("to-space overflow: heap budget exhausted"));
        if has_pointer_field(h) {
            fifo.push_back(new);
        } else {
            self.unqueued_words += words as u64;
        }
        self.mem.copy_words(addr, new, words);
        // Survivors age by one collection; the site rides in the header,
        // so it moved with the copy, and the forwarding header keeps it
        // for whoever reads the corpse. The dirty bit lives in the side
        // bitmap and stays behind at the old address (bulk-cleared when
        // the space is vacated).
        object::set_header(self.mem, new, h.with_age(new_age));
        object::set_header(self.mem, addr, Header::forward(new).with_site(site));
        let bytes = h.size_bytes();
        self.stats.copied_bytes += bytes as u64;
        self.stats.copy_cycles += self.cost.copy_per_word * words as u64;
        if let Some(p) = self.profile.as_deref_mut() {
            // The header age is 0 until an object's first copy and
            // saturates, so a nursery copy at age 0 is its first survival
            // (a §7.2 copy-back leaves the survivor at age 1).
            let from_nursery = self.nursery.is_some_and(|n| n.contains(addr));
            p.on_copy(site, bytes, from_nursery && h.age() == 0);
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

    /// Forwards the pointer stored in `word` as the address in its low
    /// half, writing the relocated address back only if it moved; returns
    /// whether it did. Only a word known to be a pointer may be forwarded.
    #[inline]
    pub fn forward_root(&mut self, word: &mut u64) -> bool {
        let addr = Addr::new(*word as u32);
        let fwd = self.forward(addr);
        if fwd != addr {
            *word = u64::from(fwd.raw());
        }
        fwd != addr
    }

    /// Forwards the roots at offsets `slots` of `frame` as
    /// [`forward_root`](Self::forward_root) does; returns how many moved.
    /// With a `root_range`, one branch-free test of the frame's words first
    /// decides whether any can: on a deep stack most old frames hold none.
    #[inline]
    pub fn forward_slots(&mut self, frame: &mut [u64], slots: &[u32]) -> u64 {
        if let Some((start, words)) = self.root_range {
            let inside = |s: u32| (frame[s as usize] as u32).wrapping_sub(start) < words;
            if !slots.iter().fold(false, |any, &s| any | inside(s)) {
                return 0;
            }
        }
        slots
            .iter()
            .map(|&s| u64::from(self.forward_root(&mut frame[s as usize])))
            .sum()
    }

    /// Forwards the roots the stack scan left, writing relocated values
    /// back — after [`scan_stack`](crate::roots::scan_stack) forwarded the
    /// fresh frames', the registers in `scan.reg_roots`, the allocation
    /// buffer's entries under its pointer mask, then the cached frames'
    /// stack words (`cached`: the prefix the plan chose to expand, or
    /// nothing) — and charges them with the decode and fresh roots `scan`
    /// counted. Every plan feeds its roots this way.
    pub fn forward_roots(&mut self, m: &mut MutatorState, scan: &ScanOutcome, cached: &[u32]) {
        let mut relocated = scan.roots_relocated;
        let mut found = scan.roots_found + cached.len() as u64;
        for r in set_bits(u64::from(scan.reg_roots.mask())) {
            let reg = Reg::new(r as u8);
            let mut word = m.regs.word(reg);
            if self.forward_root(&mut word) {
                m.regs.set_word_raw(reg, word);
                relocated += 1;
            }
            found += 1;
        }
        for i in set_bits(m.alloc_buf_ptr_mask) {
            let Some(slot) = m.alloc_buf.get_mut(i) else {
                break;
            };
            relocated += u64::from(self.forward_root(slot));
            found += 1;
        }
        let words = m.stack.words_mut();
        for &i in cached {
            relocated += u64::from(self.forward_root(&mut words[i as usize]));
        }
        // The decode as the scan counted it, then the paper's per-root
        // costs for every root examined and every root that moved.
        let s = &mut *self.stats;
        s.frames_scanned += scan.scanned_frames as u64;
        s.frames_reused += scan.reused_frames as u64;
        s.slots_scanned += scan.slots_scanned;
        s.markers_placed += scan.markers_placed;
        s.roots_found += found;
        s.stack_cycles +=
            scan.decode_cycles + self.cost.root_check * found + self.cost.root_process * relocated;
    }

    /// Runs the transitive closure to completion, in the order a Cheney
    /// scan of the moving spaces would take: the to-space FIFO until it
    /// is dry (several objects to a batch), then one survivor object,
    /// then one object of the [`ObjectQueue`] — each re-checking
    /// to-space first, since its scan may have copied into it. Then the
    /// words of the pointer-free copies, which no FIFO held, are charged
    /// as scanned.
    pub fn drain(&mut self) {
        loop {
            if !self.to_gray.is_empty() {
                self.scan_to_space();
            } else if let Some(obj) = self.survivor_gray.pop_front() {
                self.scan_gray(obj);
            } else if let Some(obj) = self.queue.pop() {
                self.scan_gray(obj);
            } else {
                break;
            }
        }
        let words = std::mem::take(&mut self.unqueued_words);
        self.stats.scanned_words += words;
        self.stats.copy_cycles += self.cost.scan_per_word * words;
    }

    /// Scans the to-space FIFO until it is dry, gathering objects into a
    /// batch until the next might overflow it (its field count bounds
    /// its pointer fields). Copies the batch makes join the FIFO's tail,
    /// so the objects are scanned in copy order. A to-space object is
    /// old, so a survivor child remembers it.
    fn scan_to_space(&mut self) {
        while let Some(addr) = self.to_gray.pop_front() {
            let h = self.charge_gray(addr);
            if self.edges.len() + h.len() > BATCH_EDGES {
                self.flush_batch();
            }
            self.gather(addr, h, true);
        }
        self.flush_batch();
    }

    /// Scans one gray object of the closure as a batch of its own.
    fn scan_gray(&mut self, addr: Addr) {
        let h = self.charge_gray(addr);
        self.scan_fields(addr, h);
    }

    /// Charges the gray object at `addr`'s words to `scanned_words` at
    /// `scan_per_word`; returns its header.
    #[inline]
    fn charge_gray(&mut self, addr: Addr) -> Header {
        let h = object::header(self.mem, addr);
        debug_assert!(!h.is_forward(), "forwarding header on a gray object");
        self.stats.scanned_words += h.size_words() as u64;
        self.stats.copy_cycles += self.cost.scan_per_word * h.size_words() as u64;
        h
    }

    /// Forwards the pointer stored at memory location `loc` (a sequential
    /// store buffer entry), writing the relocated value back. If the
    /// location is in the old generation and its target stayed in the
    /// survivor space, the location joins the young-refs remembered set.
    pub fn forward_word_at(&mut self, loc: Addr) {
        let mut word = self.mem.word(loc);
        if self.forward_root(&mut word) {
            self.mem.set_word(loc, word);
        }
        if !self.from.contains(loc)
            && !self.in_survivor(loc)
            && self.in_survivor(Addr::new(word as u32))
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

    /// Forwards every pointer field of the object at `addr` as a batch
    /// of one object (a long pointer array takes several).
    fn scan_fields(&mut self, addr: Addr, h: Header) {
        debug_assert!(self.edges.is_empty(), "batch left unflushed");
        let old = !self.from.contains(addr) && !self.in_survivor(addr);
        self.gather(addr, h, old);
        self.flush_batch();
    }

    /// The batch kernel's first step: appends the non-null pointer
    /// fields of the object at `addr` to the batch as edges, in field
    /// order; `remembers` says whether the object is old, so that a
    /// survivor child puts it in the §7.2 remembered set. The caller
    /// has made room for a record; a pointer array that does not fit is
    /// read in chunks, each of which ends the batch but the last.
    ///
    /// Gathering a field's value before the earlier edges are forwarded
    /// is sound because forwarding only ever writes fresh to-space or
    /// survivor allocations and the *headers* of from-space objects —
    /// never a payload word of a gathered object.
    fn gather(&mut self, addr: Addr, h: Header, remembers: bool) {
        let site = h.site();
        let base = object::field_addr(addr, 0);
        match h.kind() {
            ObjectKind::RawArray => {}
            ObjectKind::Record => {
                let fields = self.mem.words_at(base, h.len());
                for i in set_bits(u64::from(h.ptr_mask())) {
                    let child = Addr::new(fields[i] as u32);
                    if !child.is_null() {
                        self.edges.push(Edge {
                            loc: base + i,
                            child,
                            fwd: Addr::NULL,
                        });
                    }
                }
                self.close_owner(addr, site, remembers);
            }
            ObjectKind::PtrArray => {
                let len = h.len();
                let mut remembers = remembers;
                let mut start = 0;
                loop {
                    let n = (len - start).min(BATCH_EDGES - self.edges.len());
                    let loc = base + start;
                    let elems = self.mem.words_at(loc, n);
                    for (i, &word) in elems.iter().enumerate() {
                        let child = Addr::new(word as u32);
                        if !child.is_null() {
                            self.edges.push(Edge {
                                loc: loc + i,
                                child,
                                fwd: Addr::NULL,
                            });
                        }
                    }
                    start += n;
                    self.close_owner(addr, site, remembers);
                    if start == len {
                        break;
                    }
                    // A chunk that is not the array's last ends its batch,
                    // so a batch holds one run of the array. The run is
                    // the batch's last: if its flush remembered the array,
                    // the array is the remembered set's last entry.
                    self.flush_batch();
                    remembers &= self.young_owner_refs.last() != Some(&addr);
                }
            }
        }
    }

    /// Ends the edge run of the owner at `addr` in the batch (an owner
    /// whose fields were all null adds no run).
    #[inline]
    fn close_owner(&mut self, addr: Addr, site: SiteId, remembers: bool) {
        let end = self.edges.len();
        if self.owners.last().map_or(0, |o| o.end) < end {
            self.owners.push(Owner {
                addr,
                site,
                remembers,
                end,
            });
        }
    }

    /// The batch kernel's last two steps. **Sweep:** load the header of
    /// every from-space child in one loop — the loads are independent,
    /// so their cache misses overlap. **Forward**, in edge order: a
    /// child the sweep found forwarded takes its copy with no call; a
    /// from-space child it found uncopied goes to
    /// [`evacuate`](Self::evacuate), which reads the header again, since
    /// an earlier edge of this batch may have copied it; a child outside
    /// from-space stays, marked if it is a large object — what
    /// [`forward`](Self::forward) does. Per-owner bookkeeping — the §7.2
    /// remembered set and the profiler's edge table — runs in edge
    /// order too, so the sequence of copies is the field-by-field
    /// loop's.
    fn flush_batch(&mut self) {
        let mut edges = std::mem::take(&mut self.edges);
        let mut owners = std::mem::take(&mut self.owners);
        let young = self.survivor.as_deref().map_or(
            SpaceRange {
                start: Addr::NULL,
                end: Addr::NULL,
            },
            Space::range,
        );
        for e in edges.iter_mut() {
            e.fwd = if self.from.contains(e.child) {
                let h = object::header(self.mem, e.child);
                h.forward_addr().unwrap_or(Addr::NULL)
            } else {
                e.child
            };
        }
        let mut start = 0;
        for o in &owners {
            let mut holds_young = false;
            for e in &edges[start..o.end] {
                let new_child = if e.fwd.is_null() {
                    self.evacuate(e.child)
                } else {
                    if e.fwd == e.child && self.los.is_some() {
                        self.visit_large(e.child);
                    }
                    e.fwd
                };
                if new_child != e.child {
                    self.mem.set_word(e.loc, u64::from(new_child.raw()));
                }
                holds_young |= young.contains(new_child);
                if let Some(p) = self.profile.as_deref_mut() {
                    p.on_edge(o.site, self.mem.site_of(new_child));
                }
            }
            start = o.end;
            if o.remembers && holds_young {
                self.young_owner_refs.push(o.addr);
            }
        }
        edges.clear();
        owners.clear();
        self.edges = edges;
        self.owners = owners;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::roots::ScanCache;
    use tilgc_mem::MAX_RECORD_FIELDS;
    use tilgc_runtime::trace::NUM_REGS;

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
        assert_eq!(
            r.mem.site_of(a),
            SiteId::new(1),
            "the forwarding header keeps the site"
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
        let h = Header::ptr_array(300).unwrap().with_site(SiteId::new(2));
        object::set_header(&mut mem, big, h);
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
        // child: the drain must chase through the survivor FIFO.
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
            "child chased via the survivor FIFO"
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

    /// Copies one 16-byte nursery record of header age `age` under a
    /// profiler and returns its site's row.
    fn profile_one_nursery_copy(age: u8) -> tilgc_runtime::SiteProfile {
        let mut r = rig(256);
        let a = object::alloc_record(&mut r.mem, &mut r.from, SiteId::new(4), &[1], 0).unwrap();
        let h = object::header(&r.mem, a).with_age(age);
        object::set_header(&mut r.mem, a, h);
        let mut profile = HeapProfile::new();
        profile.on_alloc(SiteId::new(4), 16);
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
        profile.site(SiteId::new(4)).unwrap().clone()
    }

    #[test]
    fn profile_sees_promotions() {
        let row = profile_one_nursery_copy(0);
        assert_eq!((row.survived_first, row.copied_bytes), (1, 16));
    }

    #[test]
    fn an_aged_nursery_copy_counts_its_bytes_and_no_first_survival() {
        // A §7.2 copy-back leaves a survivor in the nursery at age 1.
        let row = profile_one_nursery_copy(1);
        assert_eq!((row.survived_first, row.copied_bytes), (0, 16));
    }

    /// The scalar kernels the batched ones replaced, kept as the oracles
    /// of the differential tests below.
    impl Evacuator<'_> {
        /// The drain before the gray FIFOs: a Cheney cursor over to-space
        /// from `scan` and one over the survivor space from
        /// `survivor_scan`, reading every copy back and scanning it with
        /// the scalar field loop — all of to-space first, then one
        /// survivor object, then one large object.
        fn drain_reference(&mut self, mut scan: Addr, mut survivor_scan: Addr) {
            loop {
                if scan < self.to.frontier() {
                    let addr = scan;
                    let h = object::header(self.mem, addr);
                    scan = addr + h.size_words();
                    self.scan_gray_reference(addr, h);
                } else if self
                    .survivor
                    .as_deref()
                    .is_some_and(|s| survivor_scan < s.frontier())
                {
                    let addr = survivor_scan;
                    let h = object::header(self.mem, addr);
                    survivor_scan = addr + h.size_words();
                    self.scan_gray_reference(addr, h);
                } else if let Some(obj) = self.queue.pop() {
                    let h = object::header(self.mem, obj);
                    self.scan_gray_reference(obj, h);
                } else {
                    break;
                }
            }
            // The cursors read every copy back: what the copies fed the
            // FIFOs and the unqueued count is not theirs to charge.
            self.to_gray.clear();
            self.survivor_gray.clear();
            self.unqueued_words = 0;
        }

        fn scan_gray_reference(&mut self, addr: Addr, h: Header) {
            self.stats.scanned_words += h.size_words() as u64;
            self.stats.copy_cycles += self.cost.scan_per_word * h.size_words() as u64;
            self.scan_fields_reference(addr, h);
        }

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
                if let Some(p) = self.profile.as_deref_mut() {
                    p.on_edge(h.site(), self.mem.site_of(new_child));
                }
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

        /// The root loop before root sets were slices: one read and one
        /// write-back per root location, registers and allocation-buffer
        /// entries tested bit by bit, in the order of the two-step scan:
        /// the fresh frames' `roots`, the registers, the allocation
        /// buffer, the cached prefix. Charged with what `scan` counted.
        fn forward_roots_reference(
            &mut self,
            m: &mut MutatorState,
            roots: &[u32],
            scan: &ScanOutcome,
            cached: &[u32],
        ) {
            // The root's address, relocated, if it moved.
            fn moved(ev: &mut Evacuator<'_>, word: u64) -> Option<u64> {
                let addr = Addr::new(word as u32);
                let fwd = ev.forward(addr);
                (fwd != addr).then(|| u64::from(fwd.raw()))
            }
            let (mut found, mut relocated) = (0u64, 0u64);
            for &i in roots {
                if let Some(fwd) = moved(self, m.stack.word(i as usize)) {
                    m.stack.words_mut()[i as usize] = fwd;
                    relocated += 1;
                }
                found += 1;
            }
            for r in 0..NUM_REGS {
                if scan.reg_roots.is_pointer(r) {
                    let reg = Reg::new(r as u8);
                    if let Some(fwd) = moved(self, m.regs.word(reg)) {
                        m.regs.set_word_raw(reg, fwd);
                        relocated += 1;
                    }
                    found += 1;
                }
            }
            for i in 0..m.alloc_buf.len() {
                if (m.alloc_buf_ptr_mask >> i) & 1 == 1 {
                    if let Some(fwd) = moved(self, m.alloc_buf[i]) {
                        m.alloc_buf[i] = fwd;
                        relocated += 1;
                    }
                    found += 1;
                }
            }
            for &i in cached {
                if let Some(fwd) = moved(self, m.stack.word(i as usize)) {
                    m.stack.words_mut()[i as usize] = fwd;
                    relocated += 1;
                }
                found += 1;
            }
            let (found, relocated) = (scan.roots_found + found, scan.roots_relocated + relocated);
            let s = &mut *self.stats;
            s.frames_scanned += scan.scanned_frames as u64;
            s.frames_reused += scan.reused_frames as u64;
            s.slots_scanned += scan.slots_scanned;
            s.markers_placed += scan.markers_placed;
            s.roots_found += found;
            s.stack_cycles += scan.decode_cycles;
            s.stack_cycles += self.cost.root_check * found + self.cost.root_process * relocated;
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
        object::set_header(
            &mut mem,
            big,
            Header::ptr_array(70).unwrap().with_site(site),
        );
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

    /// Everything a root phase and its drain leave behind.
    #[derive(Debug, PartialEq)]
    struct Rooted {
        stack: Vec<u64>,
        regs: Vec<u64>,
        alloc_buf: Vec<u64>,
        heap: Vec<u64>,
        large_marked: Vec<bool>,
        stats: GcStats,
        cache: Option<ScanCache>,
        reused_frames: usize,
        frontier: Addr,
    }

    /// How [`trace_roots`] feeds the roots to the evacuator.
    #[derive(Clone, Copy, Debug)]
    enum Feed {
        /// A collection's root phase: `scan_stack`, which forwards each
        /// fresh root where it decodes it, then `forward_roots`.
        Fused,
        /// `scan_stack`, then the scalar loop over the other roots.
        ScalarTail,
        /// The two-step scan: the reference decode into a buffer, then
        /// the scalar loop over it and the other roots.
        TwoStep,
    }

    /// What [`trace_roots`] varies besides the feed.
    #[derive(Clone, Copy, Debug)]
    struct RootCase {
        /// Scan with a cache, which a first scan filled.
        cached: bool,
        /// Forward the cached prefix's roots too.
        expand: bool,
        /// Decode every frame slot by slot, checking the shadow tags.
        check_shadows: bool,
        /// Give the evacuator the large-object space.
        los: bool,
    }

    /// Every [`RootCase`] that differs.
    fn root_cases() -> Vec<RootCase> {
        let mut cases = Vec::new();
        for cached in [false, true] {
            for expand in [false, true] {
                for check_shadows in [false, true] {
                    for los in [false, true] {
                        if cached || !expand {
                            cases.push(RootCase {
                                cached,
                                expand,
                                check_shadows,
                                los,
                            });
                        }
                    }
                }
            }
        }
        cases
    }

    /// Builds a stack of static, callee-save, compute and empty frames
    /// whose pointer slots, pointer registers and masked allocation-buffer
    /// entries each reference a different from-space (nursery) record, or
    /// null, or a record outside the from-space, or one of two large
    /// pointer arrays that reference from-space records (some static
    /// frames reference nothing else); each record links to the next. Non-pointer slots, unmasked buffer entries and
    /// unboxed polymorphic values hold a from-space address as an
    /// integer. With a cache, a first scan fills it and the stack then
    /// pops and regrows, so the scan under test reuses a prefix. Then
    /// the roots are fed as `feed` says and the closure drained.
    fn trace_roots(case: RootCase, feed: Feed) -> Rooted {
        use crate::roots::tests::decode_reference;
        use crate::roots::{scan_stack, RegState, ScanCache};
        use crate::MarkerPolicy;
        use tilgc_runtime::{FrameDesc, Trace, TypeLoc, Value, TYPE_BOXED};

        const CAPACITY: usize = 8 << 10;
        let mut mem = Memory::with_capacity_words(CAPACITY);
        let mut from = Space::new(mem.reserve(2048).unwrap());
        let mut to = Space::new(mem.reserve(2048).unwrap());
        let mut old = Space::new(mem.reserve(64).unwrap());
        let mut los = LargeObjectSpace::new(mem.reserve(1024).unwrap());
        let site = SiteId::new(1);
        let word = |a: Addr| u64::from(a.raw());
        let outside = object::alloc_record(&mut mem, &mut old, site, &[5], 0).unwrap();
        let decoy = object::alloc_record(&mut mem, &mut from, site, &[0], 0).unwrap();
        let large: Vec<Addr> = (0..2)
            .map(|i| {
                let big = los.alloc(9).unwrap();
                object::set_header(&mut mem, big, Header::ptr_array(8).unwrap().with_site(site));
                for f in 0..8 {
                    let child =
                        object::alloc_record(&mut mem, &mut from, site, &[i * 8 + f], 0).unwrap();
                    object::set_field(&mut mem, big, f as usize, word(child));
                }
                big
            })
            .collect();
        let mut next = Addr::NULL;
        let mut n = 0u64;
        let mut target = |mem: &mut Memory| {
            n += 1;
            if n % 11 == 0 {
                return Value::NULL;
            }
            if n % 13 == 0 {
                return Value::Ptr(outside);
            }
            if n % 7 == 0 {
                return Value::Ptr(large[(n / 7 % 2) as usize]);
            }
            let fields = [word(next), n];
            next = object::alloc_record(mem, &mut from, site, &fields, 0b01).unwrap();
            Value::Ptr(next)
        };

        let mut m = MutatorState::new();
        m.check_shadows = case.check_shadows;
        let descs = [
            m.traces.register(
                FrameDesc::new("static")
                    .slot(Trace::Pointer)
                    .slot(Trace::NonPointer)
                    .slot(Trace::Pointer)
                    .def_pointer(Reg::new(7)),
            ),
            m.traces.register(
                FrameDesc::new("callee-save")
                    .slot(Trace::CalleeSave(Reg::new(7)))
                    .slot(Trace::Pointer)
                    .def_non_pointer(Reg::new(7))
                    .def_pointer(Reg::new(2)),
            ),
            m.traces.register(
                FrameDesc::new("compute")
                    .slot(Trace::NonPointer)
                    .slot(Trace::Compute(TypeLoc::Slot(0)))
                    .def_pointer(Reg::new(9)),
            ),
            m.traces.register(FrameDesc::new("leaf")),
        ];
        // The register pointerness the stack's frames leave.
        let reg_state = |m: &MutatorState| {
            (0..m.stack.depth()).fold(RegState::EMPTY, |s, d| {
                s.apply(m.traces.compiled(m.stack.frame(d).desc()))
            })
        };
        let decoy = Value::Int(i64::from(decoy.raw()));
        let mut push = |m: &mut MutatorState, mem: &mut Memory, i: usize| {
            let id = descs[i % descs.len()];
            let regs = reg_state(m);
            let traces = m.traces.desc(id).slot_traces().to_vec();
            m.stack.push(id, traces.len());
            let boxed = i % 3 == 0;
            for (s, trace) in traces.into_iter().enumerate() {
                let value = match trace {
                    // Every eighth frame, a static one, roots large objects only.
                    Trace::Pointer if i % 8 == 4 => Value::Ptr(large[s % 2]),
                    Trace::Pointer => target(mem),
                    Trace::CalleeSave(r) if regs.is_pointer(r.index()) => target(mem),
                    Trace::Compute(_) if boxed => target(mem),
                    Trace::NonPointer if boxed => Value::Int(TYPE_BOXED),
                    Trace::NonPointer if s == 0 => Value::Int(0),
                    _ => decoy,
                };
                m.stack.top_mut().set(s, value);
            }
        };
        let policy = MarkerPolicy::EveryN(4);
        let mut cache = ScanCache::default();
        for i in 0..40 {
            push(&mut m, &mut mem, i);
        }
        if case.cached {
            // The registers are not set up yet: this scan checks no shadow.
            m.check_shadows = false;
            decode_reference(&mut m, Some(&mut cache), policy, &mut Vec::new());
            m.check_shadows = case.check_shadows;
        }
        for _ in 0..9 {
            m.stack.pop();
        }
        for i in 0..12 {
            push(&mut m, &mut mem, i + 1);
        }
        let regs = reg_state(&m);
        for r in 0..NUM_REGS {
            let value = if regs.is_pointer(r) {
                target(&mut mem)
            } else {
                decoy
            };
            m.regs.set(Reg::new(r as u8), value);
        }
        assert!(regs.mask().count_ones() >= 2);
        m.alloc_buf = (0..5).map(|_| target(&mut mem).to_word()).collect();
        m.alloc_buf[0] = decoy.to_word();
        m.alloc_buf_ptr_mask = 0b10110;

        los.begin_marking(&mut mem);
        let mut stats = GcStats::default();
        let from_ranges = [from.range()];
        let mut ev = Evacuator::new(
            &mut mem,
            &from_ranges,
            &mut to,
            Some(from.range()),
            case.los.then_some(&mut los),
            None,
            &mut stats,
            CostModel::default(),
        );
        let scan_cache = case.cached.then_some(&mut cache);
        let mut fresh = Vec::new();
        let out = match feed {
            Feed::Fused | Feed::ScalarTail => scan_stack(&mut m, scan_cache, policy, &mut ev),
            Feed::TwoStep => decode_reference(&mut m, scan_cache, policy, &mut fresh),
        };
        let prefix = match case.cached && case.expand {
            true => cache.prefix_roots(out.reused_frames),
            false => &[],
        };
        match feed {
            Feed::Fused => ev.forward_roots(&mut m, &out, prefix),
            Feed::ScalarTail | Feed::TwoStep => {
                ev.forward_roots_reference(&mut m, &fresh, &out, prefix)
            }
        }
        ev.drain();
        Rooted {
            stack: (0..m.stack.num_words()).map(|i| m.stack.word(i)).collect(),
            regs: (0..NUM_REGS)
                .map(|r| m.regs.word(Reg::new(r as u8)))
                .collect(),
            alloc_buf: m.alloc_buf.clone(),
            heap: mem.words_at(Addr::new(1), CAPACITY - 1).to_vec(),
            large_marked: large.iter().map(|&a| mem.is_marked(a)).collect(),
            stats,
            cache: case.cached.then_some(cache),
            reused_frames: out.reused_frames,
            frontier: to.frontier(),
        }
    }

    /// The fused scan forwards every root the two-step scan it replaced
    /// did, in the same order — fresh frames bottom-up, registers,
    /// allocation buffer, cached prefix — so every copy lands at the same
    /// address: on static, callee-save and compute frames, with a cache
    /// and without, expanding the cached prefix or not, decoding slot by
    /// slot under shadow checks or from slot lists, with roots into the
    /// nursery, the large-object space, null and old data. Stack,
    /// registers, buffer, heap, marks, charges and cache all agree.
    #[test]
    fn fused_scan_matches_the_two_step_scan() {
        for case in root_cases() {
            let fused = trace_roots(case, Feed::Fused);
            assert!(fused.stats.copied_bytes > 0, "{case:?}: nothing copied");
            assert_eq!(
                fused.large_marked.contains(&true),
                case.los,
                "{case:?}: large objects"
            );
            assert_eq!(fused.reused_frames > 0, case.cached, "{case:?}: reuse");
            assert_eq!(fused, trace_roots(case, Feed::TwoStep), "{case:?}");
        }
    }

    /// After the fused scan, the registers, the allocation buffer and the
    /// cached prefix go through `forward_roots`' mask and slice loops as
    /// through the scalar root loop.
    #[test]
    fn slice_forward_matches_the_scalar_root_loop() {
        for case in root_cases() {
            let slice = trace_roots(case, Feed::Fused);
            assert!(slice.stats.roots_found > 10, "{case:?}");
            assert_eq!(slice, trace_roots(case, Feed::ScalarTail), "{case:?}");
        }
    }

    /// Everything a closure leaves behind, and what the feed before it
    /// charged.
    #[derive(Debug, PartialEq)]
    struct Closed {
        traced: Traced,
        fed: GcStats,
        edges: Vec<(SiteId, Vec<(SiteId, u64)>)>,
    }

    /// Builds a from-space graph of 600 objects of every shape — records
    /// of every length with pseudo-random masks (mask 0 among them, and
    /// fields that repeat the field before, so one batch reaches a child
    /// twice), raw arrays, empty and short pointer arrays, and one
    /// pointer array longer than two batches — at ages 0 and 1, so under
    /// tenure age 2 young copies go to the survivor space and their aged
    /// children tenure back into to-space. Pointer fields reach from-space
    /// objects, null, large objects (which point back into from-space)
    /// and an old record; the long array, which tenures, and a large
    /// array as long reach a survivor child in every chunk. A profiler
    /// is installed. The feed forwards 42 roots (the two long arrays
    /// among them) through the allocation buffer and scans two old owners in
    /// place — through the kernels under test, or (`cursor`) through
    /// their scalar references — and the closure is then drained by the
    /// FIFO drain or the cursor drain.
    fn close_graph(cursor: bool) -> Closed {
        const CAPACITY: usize = 96 << 10;
        let mut mem = Memory::with_capacity_words(CAPACITY);
        let mut from = Space::new(mem.reserve(24 << 10).unwrap());
        let mut to = Space::new(mem.reserve(24 << 10).unwrap());
        let mut survivor = Space::new(mem.reserve(24 << 10).unwrap());
        let mut old = Space::new(mem.reserve(1024).unwrap());
        let mut los = LargeObjectSpace::new(mem.reserve(4096).unwrap());
        let mut profile = HeapProfile::new();
        let mut state = 0x2545_f491u32;
        let mut rng = move |n: u32| {
            state ^= state << 13;
            state ^= state >> 17;
            state ^= state << 5;
            state % n
        };
        let word = |a: Addr| u64::from(a.raw());

        let mut objs = Vec::new();
        for i in 0..600u32 {
            let site = SiteId::new(1 + (i % 7) as u16);
            let a = match rng(10) {
                _ if i == 300 => {
                    object::alloc_ptr_array(&mut mem, &mut from, site, 600, Addr::NULL)
                }
                0 => object::alloc_raw_array(&mut mem, &mut from, site, 8 + rng(40) as usize),
                1 => object::alloc_ptr_array(&mut mem, &mut from, site, 0, Addr::NULL),
                2 => object::alloc_ptr_array(
                    &mut mem,
                    &mut from,
                    site,
                    1 + rng(30) as usize,
                    Addr::NULL,
                ),
                3 => object::alloc_record(&mut mem, &mut from, site, &[7, 8], 0),
                _ => {
                    let len = 1 + rng(MAX_RECORD_FIELDS as u32) as usize;
                    let mask = rng(1 << len);
                    object::alloc_record(&mut mem, &mut from, site, &vec![9; len], mask)
                }
            }
            .unwrap();
            let age = if i == 300 { 1 } else { rng(2) as u8 };
            let h = object::header(&mem, a).with_age(age);
            object::set_header(&mut mem, a, h);
            profile.on_alloc(site, object::header(&mem, a).size_bytes());
            objs.push(a);
        }
        let bigs: Vec<Addr> = (0..3)
            .map(|_| {
                let big = los.alloc(41).unwrap();
                let h = Header::ptr_array(40).unwrap().with_site(SiteId::new(9));
                object::set_header(&mut mem, big, h);
                big
            })
            .collect();
        let long_big = los.alloc(601).unwrap();
        let h = Header::ptr_array(600).unwrap().with_site(SiteId::new(9));
        object::set_header(&mut mem, long_big, h);
        let elder = object::alloc_record(&mut mem, &mut old, SiteId::new(8), &[5], 0).unwrap();
        let pick = |rng: &mut dyn FnMut(u32) -> u32| match rng(20) {
            0 => Addr::NULL,
            1 => bigs[rng(3) as usize],
            2 => elder,
            _ => objs[rng(600) as usize],
        };
        let mut owners = Vec::new();
        for &a in objs.iter().chain(&bigs).chain([&long_big]) {
            let h = object::header(&mem, a);
            let mut prev = Addr::NULL;
            for i in (0..h.len()).filter(|&i| h.field_is_pointer(i)) {
                let child = if !prev.is_null() && rng(4) == 0 {
                    prev
                } else {
                    pick(&mut rng)
                };
                object::set_field(&mut mem, a, i, word(child));
                prev = child;
            }
        }
        // The two long arrays are old owners — one tenures into to-space,
        // one is large — with nulls in their first chunk, so a chunk ends
        // short of a full batch, and a survivor child in every chunk.
        let young: Vec<Addr> = objs
            .iter()
            .copied()
            .filter(|&a| object::header(&mem, a).age() == 0)
            .collect();
        for a in [objs[300], long_big] {
            for i in 0..600 {
                if i < BATCH_EDGES && i % 3 == 0 {
                    object::set_field(&mut mem, a, i, 0);
                } else if i % 64 == 1 {
                    object::set_field(&mut mem, a, i, word(young[i % young.len()]));
                }
            }
        }
        for _ in 0..2 {
            let fields: Vec<u64> = (0..6).map(|_| word(pick(&mut rng))).collect();
            owners.push(
                object::alloc_record(&mut mem, &mut old, SiteId::new(8), &fields, 0b111111)
                    .unwrap(),
            );
        }
        let mut m = MutatorState::new();
        m.alloc_buf = (0..40).map(|_| word(objs[rng(600) as usize])).collect();
        m.alloc_buf.extend([word(objs[300]), word(long_big)]);
        m.alloc_buf_ptr_mask = (1 << 42) - 1;

        los.begin_marking(&mut mem);
        let (to_start, survivor_start) = (to.frontier(), survivor.frontier());
        let mut stats = GcStats::default();
        let from_ranges = [from.range()];
        let mut ev = Evacuator::new(
            &mut mem,
            &from_ranges,
            &mut to,
            Some(from.range()),
            Some(&mut los),
            Some(&mut profile),
            &mut stats,
            CostModel::default(),
        );
        ev.set_survivor(&mut survivor, 2);
        if cursor {
            ev.forward_roots_reference(&mut m, &[], &ScanOutcome::default(), &[]);
        } else {
            ev.forward_roots(&mut m, &ScanOutcome::default(), &[]);
        }
        let fed = *ev.stats;
        for &o in &owners {
            if cursor {
                ev.scan_in_place_reference(o);
            } else {
                ev.scan_in_place(o);
            }
        }
        if cursor {
            ev.drain_reference(to_start, survivor_start);
        } else {
            ev.drain();
        }
        let young_owner_refs = ev.take_young_owner_refs();
        let young_field_locs = ev.take_young_field_locs();
        assert!(
            to.frontier() > to_start && survivor.frontier() > survivor_start,
            "copies reach both moving spaces"
        );
        Closed {
            traced: Traced {
                words: mem.words_at(Addr::new(1), CAPACITY - 1).to_vec(),
                stats,
                young_owner_refs,
                young_field_locs,
                frontiers: (to.frontier(), survivor.frontier()),
            },
            fed,
            edges: profile
                .iter()
                .map(|(site, row)| (site, row.edges_to.iter().map(|(&s, &n)| (s, n)).collect()))
                .collect(),
        }
    }

    #[test]
    fn fifo_drain_matches_the_cheney_cursor_drain() {
        let fifo = close_graph(false);
        let cursor = close_graph(true);
        assert!(fifo.traced.stats.scanned_words > 0 && !fifo.traced.young_owner_refs.is_empty());
        assert_eq!(fifo, cursor);
    }
}
