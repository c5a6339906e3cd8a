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
//!
//! With [`set_parallel`](Evacuator::set_parallel) the driver runs the
//! closure drain — and only the drain — on the parallel work-packet
//! lane of the [`scheduler`](crate::scheduler) module: workers race to
//! claim from-space objects through the atomic
//! [`SharedMemView`](tilgc_mem::SharedMemView) and copy them into
//! per-worker bump chunks. Root forwarding and store-buffer filtering
//! stay on the serial path on every lane (measured: a thread round
//! around either costs more than the work it splits), queueing their
//! copies as the drain's seed. The serial lane (`workers == 1`, the
//! default) never touches any of that machinery and remains the
//! byte-identical oracle.

use tilgc_mem::{
    object, Addr, Header, Memory, ObjectKind, SharedMemView, SideBitmap, SideMetaView, Space,
    SpaceRange, MAX_RECORD_FIELDS, POISON,
};
use tilgc_obs::TelemetryAcc;
use tilgc_runtime::{CostModel, GcStats, HeapProfile, MutatorState};

use crate::config::ParallelConfig;
use crate::los::LargeObjectSpace;
use crate::roots::{read_root, write_root, RootLoc};
use crate::scheduler::{
    packetize, reorder_packets, CycleBudget, PacketQueue, PendingClaim, SectionFaults,
    SharedCursor, WorkerCopyAlloc, WorkerDelta, WorkerFaultKind,
};

/// Watchdog deadline used when a stall fault is armed but no explicit
/// deadline was configured (a stalled worker would otherwise deadlock
/// the drain), and the interval at which the watchdog rescans.
const DEFAULT_STALL_DEADLINE: std::time::Duration = std::time::Duration::from_millis(10);
const WATCHDOG_POLL: std::time::Duration = std::time::Duration::from_micros(500);

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

/// What one collection's tracing lanes report back once the closure is
/// drained (see [`Evacuator::outcome`]): the lanes used, their
/// per-worker copy totals, and the fault-tolerance outcome. On the
/// serial lane `workers` is 1, `worker_copied` is empty and the rest is
/// zero / `false` — folding it into the run counters is then a no-op.
#[derive(Clone, Debug, Default)]
pub struct LaneOutcome {
    /// Tracing lanes used: the worker count, or 1 on the serial lane.
    pub workers: u64,
    /// Per-worker copied-byte totals (empty on the serial lane). Index 0
    /// also absorbs copies made by serial code around the parallel
    /// drain (roots, store buffer, in-place scans, the degradation
    /// drain), so the vector always sums to the `copied_bytes` this
    /// collection added to `GcStats`.
    pub worker_copied: Vec<u64>,
    /// Whether the armed injected fault fired in the parallel drain.
    pub fault_fired: bool,
    /// Workers lost (panicked, stalled past the deadline, or over
    /// budget) in the collection's parallel drain.
    pub workers_lost: u64,
    /// Whether the drain degraded: lost a worker or left packets for
    /// the coordinator's serial drain.
    pub degraded: bool,
    /// First degradation trigger: `"panic"`, `"watchdog"`, `"budget"`,
    /// or `"orphan"` (leftover packets with no recorded loss).
    pub trigger: Option<&'static str>,
    /// Packets the coordinator drained serially after the queue closed.
    pub leftover_packets: u64,
}

/// The ranges one collection vacates, with the membership test every
/// forwarded word goes through — shared by value between the serial
/// driver and the parallel workers.
#[derive(Clone, Copy)]
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
    /// The parallel-lane knobs in force. The default (`workers == 1`)
    /// is the serial oracle lane; a higher worker count routes the
    /// closure drain through the work-packet scheduler. The armed fault,
    /// if any, fires at most once per run (the cycle disarms it for
    /// later collections); the watchdog deadline is forced on (with a
    /// default) while a stall fault is armed — a stalled worker would
    /// otherwise deadlock the drain.
    lane: ParallelConfig,
    /// What the lanes have done so far this collection.
    outcome: LaneOutcome,
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
            lane: ParallelConfig::default(),
            outcome: LaneOutcome {
                workers: 1,
                ..LaneOutcome::default()
            },
        }
    }

    /// Switches this collection's drain onto the parallel work-packet
    /// lane with `lane.workers` tracing threads, the lane's
    /// packet-reorder knob, armed fault (its worker index is taken
    /// modulo the worker count), watchdog deadline and per-worker cycle
    /// budget. A no-op for `lane.workers == 1`.
    ///
    /// The parallel lane supports the plain copying configurations only:
    /// the collection cycle's headroom gate calls this exclusively when
    /// no survivor space and no heap profile are attached (profiled runs
    /// and the §7.2 tenure-threshold variant always take the serial
    /// lane).
    ///
    /// # Panics
    ///
    /// Panics if a survivor space or profile is attached.
    pub fn set_parallel(&mut self, lane: ParallelConfig) {
        assert!(lane.workers >= 1, "worker count must be positive");
        if lane.workers == 1 {
            return;
        }
        assert!(
            self.survivor.is_none() && self.profile.is_none(),
            "parallel collection excludes survivor aging and profiling"
        );
        self.outcome.workers = lane.workers as u64;
        self.outcome.worker_copied = vec![0; lane.workers];
        self.lane = lane;
    }

    /// Whether this collection drains on the parallel lane.
    #[inline]
    pub fn parallel(&self) -> bool {
        self.lane.workers > 1
    }

    /// One-call snapshot of what the lanes did, read after the drain
    /// (the evacuator's `GcStats` borrow ends there) to update run
    /// counters, check the per-worker accounting and emit degradation
    /// events.
    pub fn outcome(&self) -> LaneOutcome {
        self.outcome.clone()
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
        if self.lane.workers > 1 {
            // Serial copy during a parallel collection (roots, store
            // buffer, in-place scans, the degradation drain): the
            // Cheney cursor is disabled (to-space has chunk-slack
            // holes), so the copy must join the explicit gray queue
            // the parallel drain feeds on. Attributed to worker 0
            // so the per-worker totals still sum to `copied_bytes`.
            self.outcome.worker_copied[0] += bytes as u64;
            self.queue.push(new);
        }
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
    /// with. Serial on every lane: §5 exists to keep this set tiny, and
    /// on a parallel collection [`forward`](Self::forward) queues each
    /// copy for the parallel drain.
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
        if self.parallel() {
            self.par_drain();
            return;
        }
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

    /// The parallel closure drain. The gray set is queue-driven only —
    /// the Cheney cursors are disabled because chunked copy allocation
    /// leaves slack holes in to-space — so every pending gray object
    /// (the copies the serial root, store-buffer and in-place steps
    /// made) is packetized into a terminating [`PacketQueue`], and
    /// workers push the packets their scans generate back onto it.
    fn par_drain(&mut self) {
        let mut gray = Vec::new();
        while let Some(obj) = self.queue.pop() {
            gray.push(obj);
        }
        if !gray.is_empty() {
            let mut packets = packetize(gray);
            if self.lane.packet_reorder {
                reorder_packets(&mut packets);
            }
            let queue = PacketQueue::new(self.lane.workers);
            queue.seed(packets);
            for obj in self.par_section(&queue).into_iter().flatten() {
                self.queue.push(obj);
            }
            // Close the graph on the exact serial path: leftover
            // packets from a degraded drain, plus any gray a failed
            // worker handed back mid-packet (merged into the explicit
            // queue by `par_section`). Empty — and charge-free — on
            // fault-free runs.
            self.serial_close_drain();
        }
        // The scan cursor tracks the frontier so any later serial scan
        // of this space starts past the parallel drain's copies.
        self.scan = self.to.frontier();
    }

    /// Serially scans the explicit gray queue to emptiness with the
    /// serial lane's exact charges — the degradation drain. New copies
    /// made here go through the serial [`forward`](Self::forward), which
    /// (on a parallel collection) re-enqueues them and attributes their
    /// bytes to worker 0, so the per-worker accounting still reconciles.
    fn serial_close_drain(&mut self) {
        while let Some(obj) = self.queue.pop() {
            let h = object::header(self.mem, obj);
            self.scan_gray(obj, h);
        }
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
    /// before, so `GcStats` is unchanged. Serial on every lane, like
    /// [`forward_roots`](Self::forward_roots).
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

    /// The body of the parallel drain: spawns `workers` scoped threads
    /// over a freshly built [`ParShared`] context (atomic memory view,
    /// atomic side-metadata view, shared to-space cursor), then merges
    /// the per-worker deltas back into `GcStats` *in worker-index order*
    /// — so the merged totals are independent of thread interleaving.
    ///
    /// Each worker repeatedly pops a packet of gray objects from `queue`
    /// (recording it in its in-flight slot), scans it inside
    /// `catch_unwind`, and pushes the gray those scans discovered back
    /// as fresh packets before completing the packet, so termination
    /// stays sound. A worker that panics rolls back its in-progress
    /// forwarding claim, fails itself on the queue (requeueing its
    /// packet), and retires; a worker exceeding the simulated-cycle
    /// budget retires likewise. A watchdog (armed by config or forced on
    /// while a stall fault is armed) marks unresponsive workers lost on
    /// a wall-clock deadline.
    ///
    /// Returns whatever packets the workers could not finish (queue
    /// remnants after a loss-threshold close, plus orphaned in-flight
    /// packets) — the caller drains those on the exact serial path, so
    /// the collection's answer is always the serial oracle's. Gray a
    /// failed worker discovered but never pushed lands on the
    /// evacuator's explicit queue; abandoned chunk tails are recorded
    /// as to-space slack.
    fn par_section(&mut self, queue: &PacketQueue<Vec<Addr>>) -> Vec<Vec<Addr>> {
        let workers = self.lane.workers;
        let frontier = self.to.frontier();
        let limit = frontier + self.to.free_words();
        let telem_on = self.telem.is_some();
        let (view, side) = self.mem.shared_views();
        let shared = ParShared {
            cursor: SharedCursor::new(frontier, limit),
            from: self.from,
            nursery: self.nursery,
            cost: self.cost,
            workers,
            telem_on,
            los: self.los.as_deref(),
            view,
            side,
        };
        let faults = SectionFaults::new(self.lane.worker_fault.map(|mut f| {
            f.worker %= workers;
            f
        }));
        let budget = CycleBudget::new(self.lane.worker_cycle_budget.unwrap_or(u64::MAX));
        let watchdog = self
            .lane
            .watchdog_ms
            .map(std::time::Duration::from_millis)
            .or(faults.stall_armed().then_some(DEFAULT_STALL_DEADLINE));
        let reorder = self.lane.packet_reorder;
        let outcomes: Vec<(WorkerDelta, usize)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let (shared, faults, budget) = (&shared, &faults, &budget);
                    s.spawn(move || {
                        let mut alloc = WorkerCopyAlloc::new(&shared.cursor, shared.workers);
                        let mut delta = WorkerDelta::default();
                        let mut packet_idx = 0usize;
                        loop {
                            if budget.exceeded(delta.copy_cycles + delta.scan_cycles) {
                                // Over the simulated-cycle deadline:
                                // retire as lost; the queue hands the
                                // rest to the serial path.
                                faults.note_lost("budget");
                                queue.fail(w);
                                break;
                            }
                            let Some(packet) = queue.pop_worker(w, reorder && w % 2 == 1) else {
                                break;
                            };
                            let fault = faults.should_fire(w, packet_idx);
                            packet_idx += 1;
                            match fault {
                                Some(WorkerFaultKind::Stall) => {
                                    // Unresponsive until the watchdog
                                    // marks this worker lost (requeueing
                                    // the packet) and releases the latch.
                                    faults.latch.park();
                                    break;
                                }
                                Some(WorkerFaultKind::Drop) => {
                                    // Neither processed nor completed:
                                    // the in-flight clone resurfaces as
                                    // a leftover after the join.
                                    continue;
                                }
                                _ => {}
                            }
                            let unwind =
                                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                    if fault == Some(WorkerFaultKind::Panic) {
                                        panic!("injected worker panic");
                                    }
                                    for obj in packet {
                                        shared.scan_obj(&mut alloc, &mut delta, obj);
                                    }
                                    // Generative: push the gray this
                                    // packet discovered back before the
                                    // packet is completed, keeping the
                                    // termination protocol sound.
                                    for fresh in packetize(std::mem::take(&mut delta.gray)) {
                                        queue.push(fresh);
                                    }
                                }));
                            match unwind {
                                Ok(()) => {
                                    queue.complete(w);
                                }
                                Err(_) => {
                                    // Roll back the claim the unwind
                                    // interrupted (if any): republish
                                    // the original header so spinning
                                    // losers re-claim, and refund the
                                    // abandoned copy destination as
                                    // chunk slack.
                                    if let Some(claim) = delta.pending_claim.take() {
                                        shared.view.publish(claim.addr, claim.original);
                                        delta.tail_slack += claim.dest_words;
                                    }
                                    faults.note_lost("panic");
                                    queue.fail(w);
                                    break;
                                }
                            }
                        }
                        (delta, alloc.finish())
                    })
                })
                .collect();
            if let Some(deadline) = watchdog {
                let faults = &faults;
                s.spawn(move || {
                    while !queue.is_done() {
                        for w in queue.stale_workers(deadline) {
                            faults.note_lost("watchdog");
                            queue.mark_lost(w);
                        }
                        // Free any stall-parked worker the scan just
                        // retired so its thread can join.
                        if faults.lost() > 0 {
                            faults.latch.release();
                        }
                        std::thread::sleep(WATCHDOG_POLL);
                    }
                    faults.latch.release();
                });
            }
            handles
                .into_iter()
                // An Err means the worker died outside the caught
                // packet loop (queue bookkeeping itself panicked).
                // Defensive: its delta is gone, but the heap stays
                // sound — published copies are complete and its
                // in-flight packet resurfaces as a leftover.
                .map(|h| h.join().unwrap_or_default())
                .collect()
        });
        let new_frontier = shared.cursor.frontier();
        self.to.advance_frontier(new_frontier);
        for (w, (delta, chunk_tail)) in outcomes.into_iter().enumerate() {
            self.outcome.worker_copied[w] += delta.copied_bytes;
            self.stats.copied_bytes += delta.copied_bytes;
            self.stats.copy_cycles += delta.copy_cycles + delta.scan_cycles;
            self.stats.scanned_words += delta.scanned_words;
            self.to.note_slack(chunk_tail + delta.tail_slack);
            if let Some(t) = self.telem.as_deref_mut() {
                for &(site, bytes, from_nursery) in &delta.telem_copies {
                    t.note_copy(site, bytes, from_nursery);
                }
            }
            for obj in delta.gray {
                self.queue.push(obj);
            }
        }
        if faults.fired() {
            self.outcome.fault_fired = true;
        }
        self.outcome.workers_lost += faults.lost();
        let leftovers = queue.take_leftovers();
        if faults.lost() > 0 || !leftovers.is_empty() {
            self.outcome.degraded = true;
            if self.outcome.trigger.is_none() {
                self.outcome.trigger = Some(faults.trigger().unwrap_or("orphan"));
            }
            self.outcome.leftover_packets += leftovers.len() as u64;
        }
        leftovers
    }
}

/// The immutable context every worker of one parallel drain shares:
/// the atomic memory view, the atomic side-metadata view (mark bitmap +
/// site bytemap), the drain's to-space cursor, the from-range
/// membership data, and a read-only borrow of the large-object space
/// (its mark state lives in the side bitmap, so marking needs no lock).
/// All tracing state a worker mutates lives in its own [`WorkerDelta`].
struct ParShared<'s> {
    view: SharedMemView<'s>,
    side: SideMetaView<'s>,
    cursor: SharedCursor,
    from: FromSet<'s>,
    nursery: Option<SpaceRange>,
    cost: CostModel,
    workers: usize,
    telem_on: bool,
    los: Option<&'s LargeObjectSpace>,
}

impl ParShared<'_> {
    /// [`Evacuator::forward`] on the parallel lane: the claim/publish
    /// protocol. The winner CASes the from-space header to the busy
    /// sentinel, copies the payload into its private chunk, stores the
    /// copy's header, then release-publishes the forwarding header;
    /// losers spin until the forwarding pointer appears. Charges match
    /// the serial lane per object exactly, so the merged totals are
    /// identical.
    fn forward(
        &self,
        alloc: &mut WorkerCopyAlloc<'_>,
        delta: &mut WorkerDelta,
        addr: Addr,
    ) -> Addr {
        if addr.is_null() {
            return addr;
        }
        if !self.from.contains(addr) {
            if let Some(los) = self.los {
                // Lock-free large-object marking: the mark bit lives in
                // the atomic side bitmap, so workers race on a fetch_or
                // and exactly one wins the scan.
                if los.contains(addr) && self.side.mark_test_and_set(addr) {
                    delta.copy_cycles += self.cost.large_object_visit;
                    delta.gray.push(addr);
                }
            }
            return addr;
        }
        loop {
            let raw = self.view.load_header_acquire(addr);
            if raw == SharedMemView::BUSY {
                std::hint::spin_loop();
                continue;
            }
            let h = Header::from_raw(raw);
            if let Some(to) = h.forward_addr() {
                return to;
            }
            if self.view.try_claim(addr, raw).is_err() {
                // Lost the race; the next header load sees the winner's
                // sentinel or its published forwarding pointer.
                continue;
            }
            // From here to the publish below the claim is this worker's
            // liability: record it so an unwind (allocation failure, or
            // any panic while the BUSY sentinel is visible) can be
            // rolled back by the packet loop instead of wedging every
            // loser spinning on the sentinel.
            delta.pending_claim = Some(PendingClaim {
                addr,
                original: raw,
                dest_words: 0,
            });
            let words = h.size_words();
            let new = alloc
                .alloc(words)
                .unwrap_or_else(|| panic!("to-space overflow: heap budget exhausted"));
            if let Some(claim) = delta.pending_claim.as_mut() {
                claim.dest_words = words;
            }
            // The from-space header word holds the busy sentinel, so the
            // payload copy skips word 0 and the copy's header is written
            // directly from the claimed value.
            self.view.copy_words(addr + 1usize, new + 1usize, words - 1);
            let new_h = h.with_age(h.age().saturating_add(1));
            self.view.store(new, new_h.raw());
            // The site tag moves with the object; the copy must be
            // visible before the forwarding header is published, which
            // the release store below guarantees.
            self.side.copy_site(addr, new);
            self.view.publish(addr, Header::forward(new).raw());
            // Published: the copy is complete and visible, the claim is
            // discharged, and only now are the charges taken — so an
            // unwound claim never leaves partial charges behind.
            delta.pending_claim = None;
            let bytes = h.size_bytes() as u64;
            delta.copied_bytes += bytes;
            delta.copy_cycles += self.cost.copy_per_word * words as u64;
            if self.telem_on {
                let from_nursery = self.nursery.is_some_and(|n| n.contains(addr));
                delta
                    .telem_copies
                    .push((self.side.site_of(addr).get(), bytes, from_nursery));
            }
            delta.gray.push(new);
            return new;
        }
    }

    /// Scans one gray object (a to-space copy or a marked large object),
    /// forwarding its pointer fields through the view. The object is
    /// private to this worker — every gray object is enqueued exactly
    /// once, by its claim (or mark) winner — so plain loads and stores
    /// on its payload cannot race.
    ///
    /// The parallel gate excludes profiling and the survivor space, so
    /// unlike [`Evacuator::scan_fields`] there are no profile edges and
    /// no young-owner bookkeeping to replicate here.
    fn scan_obj(&self, alloc: &mut WorkerCopyAlloc<'_>, delta: &mut WorkerDelta, addr: Addr) {
        let h = Header::from_raw(self.view.load(addr));
        debug_assert!(!h.is_forward(), "gray object carries a forwarding header");
        let words = h.size_words() as u64;
        delta.scanned_words += words;
        delta.scan_cycles += self.cost.scan_per_word * words;
        match h.kind() {
            ObjectKind::RawArray => {}
            ObjectKind::Record => {
                let mut mask = h.ptr_mask();
                let base = object::field_addr(addr, 0);
                while mask != 0 {
                    let i = mask.trailing_zeros() as usize;
                    mask &= mask - 1;
                    self.forward_field(alloc, delta, base + i);
                }
            }
            ObjectKind::PtrArray => {
                let base = object::field_addr(addr, 0);
                for i in 0..h.len() {
                    self.forward_field(alloc, delta, base + i);
                }
            }
        }
    }

    /// Forwards the pointer stored at `loc`, writing back on change.
    #[inline]
    fn forward_field(&self, alloc: &mut WorkerCopyAlloc<'_>, delta: &mut WorkerDelta, loc: Addr) {
        let word = self.view.load(loc);
        let child = Addr::new(word as u32);
        if child.is_null() {
            return;
        }
        let fwd = self.forward(alloc, delta, child);
        if fwd != child {
            self.view.store(loc, u64::from(fwd.raw()));
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

    fn lane(workers: usize, packet_reorder: bool) -> ParallelConfig {
        ParallelConfig {
            workers,
            packet_reorder,
            ..ParallelConfig::default()
        }
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

    /// Builds a linked list + shared diamond in from-space and returns
    /// the entry points, for serial/parallel equivalence checks.
    fn build_graph(r: &mut Rig, nodes: usize) -> Vec<Addr> {
        let shared =
            object::alloc_record(&mut r.mem, &mut r.from, SiteId::new(9), &[99], 0).unwrap();
        let mut prev = Addr::NULL;
        let mut heads = Vec::new();
        for i in 0..nodes {
            let a = object::alloc_record(
                &mut r.mem,
                &mut r.from,
                SiteId::new(1 + (i % 5) as u16),
                &[u64::from(prev.raw()), u64::from(shared.raw()), i as u64],
                0b011,
            )
            .unwrap();
            if i % 7 == 0 {
                heads.push(a);
            }
            prev = a;
        }
        heads.push(prev);
        heads
    }

    #[test]
    fn parallel_drain_copies_the_same_graph_with_identical_stats() {
        // Serial oracle.
        let mut sr = rig(4096);
        let s_heads = build_graph(&mut sr, 200);
        let from_ranges = [sr.from.range()];
        let mut ev = Evacuator::new(
            &mut sr.mem,
            &from_ranges,
            &mut sr.to,
            None,
            None,
            None,
            &mut sr.stats,
            CostModel::default(),
        );
        let s_new: Vec<Addr> = s_heads.iter().map(|&a| ev.forward(a)).collect();
        ev.drain();
        drop(ev);

        // Parallel lane, 4 workers.
        let mut pr = rig(4096);
        let p_heads = build_graph(&mut pr, 200);
        let from_ranges = [pr.from.range()];
        let mut ev = Evacuator::new(
            &mut pr.mem,
            &from_ranges,
            &mut pr.to,
            None,
            None,
            None,
            &mut pr.stats,
            CostModel::default(),
        );
        ev.set_parallel(lane(4, false));
        let p_new: Vec<Addr> = p_heads.iter().map(|&a| ev.forward(a)).collect();
        ev.drain();
        let per_worker: Vec<u64> = ev.outcome().worker_copied;
        drop(ev);

        // Same counters (parallel charges are interleaving-independent).
        assert_eq!(sr.stats.copied_bytes, pr.stats.copied_bytes);
        assert_eq!(sr.stats.scanned_words, pr.stats.scanned_words);
        assert_eq!(sr.stats.copy_cycles, pr.stats.copy_cycles);
        assert_eq!(per_worker.iter().sum::<u64>(), pr.stats.copied_bytes);
        assert_eq!(per_worker.len(), 4);
        // Same reachable values: walk both lists, compare payloads.
        for (&sa, &pa) in s_new.iter().zip(&p_new) {
            let (mut sa, mut pa) = (sa, pa);
            loop {
                assert_eq!(object::field(&sr.mem, sa, 2), object::field(&pr.mem, pa, 2));
                let s_shared = object::ptr_field(&sr.mem, sa, 1);
                let p_shared = object::ptr_field(&pr.mem, pa, 1);
                assert_eq!(object::field(&sr.mem, s_shared, 0), 99);
                assert_eq!(object::field(&pr.mem, p_shared, 0), 99);
                sa = object::ptr_field(&sr.mem, sa, 0);
                pa = object::ptr_field(&pr.mem, pa, 0);
                assert_eq!(sa.is_null(), pa.is_null());
                if sa.is_null() {
                    break;
                }
            }
        }
        // Live accounting matches the serial lane despite chunk slack.
        assert_eq!(sr.to.used_words(), pr.to.used_words());
        assert_eq!(
            pr.to.used_words() + pr.to.slack_words(),
            pr.to.frontier() - pr.to.start()
        );
    }

    #[test]
    fn packet_reorder_lane_reaches_the_same_heap() {
        let mut base = rig(4096);
        let b_heads = build_graph(&mut base, 150);
        let from_ranges = [base.from.range()];
        let mut ev = Evacuator::new(
            &mut base.mem,
            &from_ranges,
            &mut base.to,
            None,
            None,
            None,
            &mut base.stats,
            CostModel::default(),
        );
        ev.set_parallel(lane(3, true));
        let heads: Vec<Addr> = b_heads.iter().map(|&a| ev.forward(a)).collect();
        ev.drain();
        drop(ev);
        // The list still chains to its full length with intact payloads.
        let mut len = 0;
        let mut cur = *heads.last().unwrap();
        while !cur.is_null() {
            len += 1;
            cur = object::ptr_field(&base.mem, cur, 0);
        }
        assert_eq!(len, 150);
    }

    #[test]
    fn parallel_forward_field_locs_updates_old_fields() {
        let mut r = rig(4096);
        let child1 =
            object::alloc_record(&mut r.mem, &mut r.from, SiteId::new(1), &[11], 0).unwrap();
        let child2 =
            object::alloc_record(&mut r.mem, &mut r.from, SiteId::new(1), &[22], 0).unwrap();
        // "Old" owners live in to-space; their fields are SSB entries.
        let owner = object::alloc_record(
            &mut r.mem,
            &mut r.to,
            SiteId::new(2),
            &[u64::from(child1.raw()), u64::from(child2.raw())],
            0b11,
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
        ev.set_parallel(lane(2, false));
        // Duplicates on purpose: dedup must leave one writer per location.
        let mut locs = vec![
            object::field_addr(owner, 0),
            object::field_addr(owner, 1),
            object::field_addr(owner, 0),
            object::field_addr(owner, 1),
        ];
        ev.forward_field_locs(&mut locs);
        ev.drain();
        drop(ev);
        let new1 = object::ptr_field(&r.mem, owner, 0);
        let new2 = object::ptr_field(&r.mem, owner, 1);
        assert!(r.to.contains(new1) && r.to.contains(new2));
        assert_eq!(object::field(&r.mem, new1, 0), 11);
        assert_eq!(object::field(&r.mem, new2, 0), 22);
        assert_eq!(r.stats.copied_bytes, 2 * 16, "each child copied once");
    }

    #[test]
    fn parallel_lane_marks_and_scans_large_objects() {
        let mut mem = Memory::with_capacity_words(8192);
        let mut from = Space::new(mem.reserve(512).unwrap());
        let mut to = Space::new(mem.reserve(2048).unwrap());
        let mut los = LargeObjectSpace::new(mem.reserve(2048).unwrap());
        let mut stats = GcStats::default();
        let small = object::alloc_record(&mut mem, &mut from, SiteId::new(1), &[5], 0).unwrap();
        let big = los.alloc(301).unwrap();
        object::set_header(&mut mem, big, Header::ptr_array(300).unwrap());
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
        ev.set_parallel(lane(4, false));
        assert_eq!(ev.forward(big), big, "large objects never move");
        ev.drain();
        drop(ev);
        let new_small = object::ptr_field(&mem, big, 7);
        assert!(to.contains(new_small));
        assert_eq!(object::field(&mem, new_small, 0), 5);
        assert_eq!(los.sweep(&mem).len(), 0, "marked large object survives");
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
