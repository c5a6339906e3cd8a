//! Root-set computation: the two-pass stack scan of §2.3, extended with
//! the scan cache of §5 (*generational stack collection*).
//!
//! The scan cannot decode frames in isolation: a slot traced as
//! `CalleeSave($r)` holds whatever the *caller* had in `$r`, and a
//! `Compute` slot needs a runtime type fetched from another location. So
//! the scan walks from the initial frame upward, threading a register
//! pointerness state through every frame's declared register effects —
//! the "two-pass" structure the paper describes (the downward
//! frame-boundary discovery pass is implicit in the simulation, but its
//! cost is charged per decoded frame).
//!
//! A stack root is named by its index in the stack's word array, as the
//! real collector names it by address. With a [`ScanCache`], frames below
//! the stack's [`reusable_prefix`](tilgc_runtime::Stack::reusable_prefix)
//! are not re-decoded: their roots and the register state at the cache
//! boundary are reused from the previous collection.
//!
//! Plans feed the result into the tracing driver: [`scan_stack`] yields
//! the freshly decoded roots, [`append_cached_roots`] expands the cached
//! prefix when a collection moves everything (every plan except the
//! immediate-promotion minor, whose cached frames contribute no roots at
//! all — the §5 payoff), and the driver's `forward_roots` loop (`evac`
//! module) processes the combined list.

use tilgc_runtime::trace::{RegEffect, Trace, TypeLoc, NUM_REGS};
use tilgc_runtime::{type_word_is_pointer, GcStats, MutatorState, ShadowTag};

use crate::config::MarkerPolicy;

/// Bitmask of registers currently known to hold pointers.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct RegState(u32);

impl RegState {
    /// The initial state: no register holds a pointer.
    pub const EMPTY: RegState = RegState(0);

    /// Whether register `r` holds a pointer.
    #[inline]
    pub fn is_pointer(self, r: usize) -> bool {
        (self.0 >> r) & 1 == 1
    }

    /// Applies one frame's declared register effects.
    pub fn apply(mut self, effects: &[(tilgc_runtime::Reg, RegEffect)]) -> RegState {
        for &(reg, effect) in effects {
            match effect {
                RegEffect::Preserve => {}
                RegEffect::DefPointer => self.0 |= 1 << reg.index(),
                RegEffect::DefNonPointer => self.0 &= !(1 << reg.index()),
            }
        }
        self
    }
}

/// Scan results cached across collections — the data structure at the
/// heart of generational stack collection.
///
/// Flat: the cached frames' roots as stack-word indices in one list, and
/// per frame where its run ends. The indices stay valid because a frame
/// below the reusable prefix was never popped since it was decoded, and
/// neither was any frame under it, so its base is where it was.
#[derive(Clone, Debug, Default)]
pub struct ScanCache {
    /// Every cached frame's roots, oldest frame first.
    roots: Vec<u32>,
    /// Per cached frame (index = depth): the end of its run in `roots`,
    /// and the register pointerness after its effects.
    frames: Vec<(usize, RegState)>,
}

impl ScanCache {
    /// Where the roots of cached frames `0 .. frames` end in `roots`.
    fn run_end(&self, frames: usize) -> usize {
        self.frames[..frames].last().map_or(0, |&(end, _)| end)
    }

    /// Keeps the cached frames `0 .. frames`.
    fn truncate(&mut self, frames: usize) {
        self.roots.truncate(self.run_end(frames));
        self.frames.truncate(frames);
    }
}

/// The location of one root (a pointer the collector must relocate).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RootLoc {
    /// Word `i` of the stack's word array.
    StackWord(u32),
    /// A general-purpose register.
    Reg(u8),
    /// Entry `i` of the allocation staging buffer.
    AllocBuf(u16),
}

impl RootLoc {
    /// The root in slot `slot` of the frame at `depth`, whose slot 0 is
    /// stack word `base`: the one place a root's word index is computed,
    /// which panics if the index does not fit a `u32`.
    #[inline]
    fn stack_slot(base: usize, depth: usize, slot: usize) -> RootLoc {
        // Out of line, so the scan's loops keep no panic arguments alive.
        #[cold]
        #[inline(never)]
        fn refuse(depth: usize, slot: usize, index: usize) -> ! {
            panic!("slot {slot} of frame {depth} is stack word {index}, past a 32-bit root index")
        }
        let index = base + slot;
        match u32::try_from(index) {
            Ok(i) => RootLoc::StackWord(i),
            Err(_) => refuse(depth, slot, index),
        }
    }

    /// The stack-word index, if this is a stack root.
    fn stack_word(&self) -> Option<u32> {
        match *self {
            RootLoc::StackWord(i) => Some(i),
            RootLoc::Reg(_) | RootLoc::AllocBuf(_) => None,
        }
    }
}

/// What a scan produced.
#[derive(Debug, Default)]
pub struct ScanOutcome {
    /// Roots in *newly scanned* frames, plus registers and the alloc
    /// buffer. Cached frames' roots are not included — for a minor
    /// collection with immediate promotion they are irrelevant, and for a
    /// major collection the caller pulls them from the cache.
    pub new_roots: Vec<RootLoc>,
    /// Frames whose cached decode was reused.
    pub reused_frames: usize,
    /// Frames decoded from scratch.
    pub scanned_frames: usize,
    /// The cached-prefix claim this scan acted on:
    /// `min(M, deepest intact marker)` clamped to the cache length
    /// (equal to `reused_frames`; recorded separately so plans can
    /// expose the claim for post-collection inspection).
    pub claimed_prefix: usize,
    /// The simulation oracle's true unchanged prefix, captured *before*
    /// marker placement reset the stack's bookkeeping. A correct marker
    /// implementation guarantees `claimed_prefix <= oracle_prefix`.
    pub oracle_prefix: usize,
}

/// Reads the word a root location currently holds.
#[inline]
pub fn read_root(m: &MutatorState, loc: RootLoc) -> u64 {
    match loc {
        RootLoc::StackWord(i) => m.stack.word(i as usize),
        RootLoc::Reg(r) => m.regs.word(tilgc_runtime::Reg::new(r)),
        RootLoc::AllocBuf(i) => m.alloc_buf[i as usize],
    }
}

/// Writes a (relocated) word back into a root location.
#[inline]
pub fn write_root(m: &mut MutatorState, loc: RootLoc, word: u64) {
    match loc {
        RootLoc::StackWord(i) => m.stack.set_word_raw(i as usize, word),
        RootLoc::Reg(r) => m.regs.set_word_raw(tilgc_runtime::Reg::new(r), word),
        RootLoc::AllocBuf(i) => m.alloc_buf[i as usize] = word,
    }
}

/// Expands the reused (cached) frames' roots, appending to `roots`.
///
/// The scan cache saves the frame *decode* cost, not root processing:
/// a plan whose collection moves objects the cached frames may reference
/// — the semispace plan always, the generational plans at major
/// collections and (under a §7.2 tenure threshold) at minor ones —
/// feeds the cached roots back through the tracing driver with this
/// helper after [`scan_stack`]. The immediate-promotion minor collection
/// is the one case that skips it: everything a cached frame references
/// is already tenured, so cached frames contribute no roots at all (§5).
pub fn append_cached_roots(
    cache: Option<&ScanCache>,
    reused_frames: usize,
    roots: &mut Vec<RootLoc>,
) {
    if let Some(c) = cache {
        let cached = &c.roots[..c.run_end(reused_frames)];
        roots.extend(cached.iter().map(|&i| RootLoc::StackWord(i)));
    }
}

/// Scans the mutator state for roots.
///
/// * With `cache = None` this is the plain §2.3 full scan: it produces
///   the roots and charges the cycles, and keeps nothing.
/// * With a cache, frames under the stack's reusable prefix are skipped
///   (their decodes are reused) and markers are re-placed per `policy`
///   after the scan — §5's generational stack collection.
///
/// Costs are charged to `stats` (`stack_cycles`).
///
/// # Panics
///
/// Panics (when `m.check_shadows` is set) if a trace-derived pointerness
/// decision contradicts the mutator's shadow tags — a mis-declared frame
/// descriptor or a bug in the two-pass reconstruction.
pub fn scan_stack(
    m: &mut MutatorState,
    cache: Option<&mut ScanCache>,
    policy: MarkerPolicy,
    stats: &mut GcStats,
) -> ScanOutcome {
    scan_stack_impl(m, cache, policy, stats, true)
}

fn scan_stack_impl(
    m: &mut MutatorState,
    mut cache: Option<&mut ScanCache>,
    policy: MarkerPolicy,
    stats: &mut GcStats,
    use_bitmaps: bool,
) -> ScanOutcome {
    let cost = m.cost;
    let depth = m.stack.depth();
    // The cache keeps the reusable prefix; the frames above it are
    // decoded again and appended.
    let (reusable, mut reg_state) = match cache.as_deref_mut() {
        Some(c) => {
            let r = m.stack.reusable_prefix().min(c.frames.len());
            c.truncate(r);
            (r, c.frames.last().map_or(RegState::EMPTY, |&(_, s)| s))
        }
        None => (0, RegState::EMPTY),
    };
    let mut cycles = cost.frame_reuse * reusable as u64;

    let mut outcome = ScanOutcome {
        reused_frames: reusable,
        claimed_prefix: reusable,
        // Read the oracle now: place_markers_at (below) resets it.
        oracle_prefix: m.stack.true_unchanged_prefix(),
        ..Default::default()
    };
    // The decode's charges are counted here and priced after the loop:
    // `frame_decode` per frame, `slot_trace` per slot and
    // `compute_trace_extra` per `Compute` slot, whichever path decodes.
    let mut slots_seen: u64 = 0;
    let mut computed: u64 = 0;

    for d in reusable..depth {
        let frame = m.stack.frame(d);
        let base = m.stack.frame_base(d);
        let desc = m.traces.desc(frame.desc());
        let compiled = m.traces.compiled(frame.desc());
        slots_seen += compiled.num_slots() as u64;

        // Bitmap fast path: fully static frames were compiled into packed
        // pointer bitmasks at registration, so the scan walks set bits
        // instead of matching a `Trace` per slot. Shadow checking wants
        // the per-slot decode, so it keeps the reference path.
        if use_bitmaps && compiled.is_static() && !m.check_shadows {
            for (w, &word) in compiled.ptr_bitmap().iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    let slot = w * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    outcome.new_roots.push(RootLoc::stack_slot(base, d, slot));
                }
            }
        } else {
            for (i, &trace) in desc.slot_traces().iter().enumerate() {
                let is_ptr = match trace {
                    Trace::Pointer => true,
                    Trace::NonPointer => false,
                    Trace::CalleeSave(r) => reg_state.is_pointer(r.index()),
                    Trace::Compute(loc) => {
                        computed += 1;
                        let type_word = match loc {
                            TypeLoc::Slot(s) => frame.word(s as usize),
                            TypeLoc::Reg(r) => m.regs.word(r),
                        };
                        type_word_is_pointer(type_word)
                    }
                };
                if m.check_shadows {
                    let shadow_ptr = frame.shadow(i) == ShadowTag::Ptr;
                    assert_eq!(
                        is_ptr,
                        shadow_ptr,
                        "trace decode disagrees with shadow for slot {i} (trace {trace:?}) of \
                         frame {d} ({})",
                        desc.name()
                    );
                }
                if is_ptr {
                    outcome.new_roots.push(RootLoc::stack_slot(base, d, i));
                }
            }
        }
        reg_state = reg_state.apply(desc.reg_effects());
        if let Some(c) = cache.as_deref_mut() {
            // `c.roots` holds the reused prefix's roots until the fresh
            // ones join it below.
            c.frames
                .push((c.roots.len() + outcome.new_roots.len(), reg_state));
        }
    }
    outcome.scanned_frames = depth - reusable;
    cycles += cost.frame_decode * outcome.scanned_frames as u64
        + cost.slot_trace * slots_seen
        + cost.compute_trace_extra * computed;

    // Registers live across the collection point.
    for r in 0..NUM_REGS {
        cycles += cost.slot_trace;
        let is_ptr = reg_state.is_pointer(r);
        if m.check_shadows {
            let shadow_ptr = m.regs.shadow(tilgc_runtime::Reg::new(r as u8)) == ShadowTag::Ptr;
            assert_eq!(
                is_ptr, shadow_ptr,
                "register ${r} trace state disagrees with shadow"
            );
        }
        if is_ptr {
            outcome.new_roots.push(RootLoc::Reg(r as u8));
        }
    }

    // Allocation staging buffer (argument registers of the allocation in
    // progress).
    for i in 0..m.alloc_buf.len() {
        if (m.alloc_buf_ptr_mask >> i) & 1 == 1 {
            outcome.new_roots.push(RootLoc::AllocBuf(i as u16));
        }
    }

    if let Some(c) = cache {
        c.roots
            .extend(outcome.new_roots.iter().filter_map(RootLoc::stack_word));
        let placed = m.stack.place_markers_at(policy.placements(depth));
        cycles += cost.marker_place * placed as u64;
        stats.markers_placed += placed as u64;
    }

    stats.frames_scanned += outcome.scanned_frames as u64;
    stats.frames_reused += outcome.reused_frames as u64;
    stats.slots_scanned += slots_seen;
    stats.stack_cycles += cycles;
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use tilgc_mem::Addr;
    use tilgc_runtime::{FrameDesc, Reg, Trace, Value, TYPE_BOXED, TYPE_UNBOXED};

    /// Builds a mutator with `depth` frames: slot 0 pointer, slot 1 int.
    fn mutator(depth: usize) -> MutatorState {
        let mut m = MutatorState::new();
        let d = m.traces.register(
            FrameDesc::new("t")
                .slot(Trace::Pointer)
                .slot(Trace::NonPointer),
        );
        for i in 0..depth {
            m.stack.push(d, 2);
            m.stack
                .top_mut()
                .set(0, Value::Ptr(Addr::new(100 + i as u32)));
            m.stack.top_mut().set(1, Value::Int(7));
        }
        m
    }

    /// [`scan_stack`] with the bitmap fast path disabled: every frame
    /// takes the per-slot `Trace` decode, as before precompilation. The
    /// oracle of `bitmap_path_matches_reference_scan`; results and charged
    /// costs are identical by construction.
    fn scan_stack_reference(
        m: &mut MutatorState,
        cache: Option<&mut ScanCache>,
        policy: MarkerPolicy,
        stats: &mut GcStats,
    ) -> ScanOutcome {
        scan_stack_impl(m, cache, policy, stats, false)
    }

    /// The stack roots among `roots`, as sorted word indices.
    fn stack_words(roots: &[RootLoc]) -> Vec<u32> {
        let mut words: Vec<u32> = roots.iter().filter_map(RootLoc::stack_word).collect();
        words.sort_unstable();
        words
    }

    #[test]
    fn full_scan_finds_every_pointer_slot() {
        let mut m = mutator(10);
        let mut stats = GcStats::default();
        let out = scan_stack(&mut m, None, MarkerPolicy::Disabled, &mut stats);
        let slot_roots = stack_words(&out.new_roots);
        assert_eq!(slot_roots, (0..10).map(|d| 2 * d).collect::<Vec<u32>>());
        assert_eq!(out.scanned_frames, 10);
        assert_eq!(out.reused_frames, 0);
        assert!(stats.stack_cycles > 0);
    }

    #[test]
    fn cached_scan_skips_old_frames() {
        let mut m = mutator(100);
        let mut stats = GcStats::default();
        let mut cache = ScanCache::default();
        let out = scan_stack(
            &mut m,
            Some(&mut cache),
            MarkerPolicy::EveryN(25),
            &mut stats,
        );
        assert_eq!(out.scanned_frames, 100);
        assert_eq!(cache.frames.len(), 100);

        // Second scan with no mutator activity: reuse up to the deepest
        // marker (depth 99).
        let out2 = scan_stack(
            &mut m,
            Some(&mut cache),
            MarkerPolicy::EveryN(25),
            &mut stats,
        );
        assert_eq!(out2.reused_frames, 99);
        assert_eq!(out2.scanned_frames, 1);
        assert_eq!(cache.frames.len(), 100);
        assert_eq!(cache.roots.len(), 100);
    }

    #[test]
    fn cache_handles_pops_and_regrowth() {
        let mut m = mutator(100);
        let mut stats = GcStats::default();
        let mut cache = ScanCache::default();
        scan_stack(
            &mut m,
            Some(&mut cache),
            MarkerPolicy::EveryN(25),
            &mut stats,
        );
        for _ in 0..30 {
            m.stack.pop(); // fires markers at 99 and 74
        }
        let d = m.stack.frame(0).desc();
        for _ in 0..10 {
            m.stack.push(d, 2);
            m.stack.top_mut().set(0, Value::NULL);
        }
        let out = scan_stack(
            &mut m,
            Some(&mut cache),
            MarkerPolicy::EveryN(25),
            &mut stats,
        );
        assert_eq!(out.reused_frames, 49, "intact marker at 49 bounds reuse");
        assert_eq!(out.scanned_frames, 80 - 49);
        assert_eq!(cache.frames.len(), 80);
        assert_eq!(cache.roots.len(), 80);
    }

    #[test]
    fn callee_save_resolved_through_register_state() {
        let mut m = MutatorState::new();
        // Frame A leaves a pointer in $5; frame B spills $5 to its slot 0.
        let da = m
            .traces
            .register(FrameDesc::new("a").def_pointer(Reg::new(5)));
        let db = m
            .traces
            .register(FrameDesc::new("b").slot(Trace::CalleeSave(Reg::new(5))));
        m.stack.push(da, 0);
        m.regs.set(Reg::new(5), Value::Ptr(Addr::new(64)));
        m.stack.push(db, 1);
        // Spill (the VM does this automatically; done by hand here).
        m.stack.top_mut().set_word_tagged(0, 64, ShadowTag::Ptr);

        let mut stats = GcStats::default();
        let out = scan_stack(&mut m, None, MarkerPolicy::Disabled, &mut stats);
        let spill = RootLoc::stack_slot(m.stack.frame_base(1), 1, 0);
        assert!(out.new_roots.contains(&spill));
        // $5 is still pointer-valued at the top, so it is a register root.
        assert!(out.new_roots.contains(&RootLoc::Reg(5)));
    }

    #[test]
    fn callee_save_of_non_pointer_is_not_a_root() {
        let mut m = MutatorState::new();
        let da = m
            .traces
            .register(FrameDesc::new("a").def_non_pointer(Reg::new(5)));
        let db = m
            .traces
            .register(FrameDesc::new("b").slot(Trace::CalleeSave(Reg::new(5))));
        m.stack.push(da, 0);
        m.regs.set(Reg::new(5), Value::Int(999));
        m.stack.push(db, 1);
        m.stack.top_mut().set_word_tagged(0, 999, ShadowTag::NonPtr);

        let mut stats = GcStats::default();
        let out = scan_stack(&mut m, None, MarkerPolicy::Disabled, &mut stats);
        assert!(out.new_roots.is_empty());
    }

    #[test]
    fn compute_trace_consults_runtime_type() {
        let mut m = MutatorState::new();
        let d = m.traces.register(
            FrameDesc::new("poly")
                .slot(Trace::NonPointer) // slot 0: the runtime type
                .slot(Trace::Compute(TypeLoc::Slot(0))), // slot 1: polymorphic value
        );
        m.stack.push(d, 2);
        m.stack.top_mut().set(0, Value::Int(TYPE_BOXED));
        m.stack.top_mut().set(1, Value::Ptr(Addr::new(640)));
        let mut stats = GcStats::default();
        let out = scan_stack(&mut m, None, MarkerPolicy::Disabled, &mut stats);
        assert!(out.new_roots.contains(&RootLoc::stack_slot(0, 0, 1)));

        // Flip the type to unboxed: same slot, now not a root.
        m.stack.top_mut().set(0, Value::Int(TYPE_UNBOXED));
        m.stack.top_mut().set(1, Value::Int(640));
        let out = scan_stack(&mut m, None, MarkerPolicy::Disabled, &mut stats);
        assert!(stack_words(&out.new_roots).is_empty());
    }

    #[test]
    #[should_panic(expected = "disagrees with shadow")]
    fn misdeclared_descriptor_is_caught() {
        let mut m = MutatorState::new();
        // On by default only with debug assertions; this is the check's
        // test, so it asks for it whatever the profile.
        m.check_shadows = true;
        let d = m
            .traces
            .register(FrameDesc::new("bad").slot(Trace::NonPointer));
        m.stack.push(d, 1);
        // The mutator writes a pointer into a slot declared non-pointer:
        // in the real system this hides a root. The shadow check trips.
        m.stack.top_mut().set_word_tagged(0, 640, ShadowTag::Ptr);
        let mut stats = GcStats::default();
        scan_stack(&mut m, None, MarkerPolicy::Disabled, &mut stats);
    }

    #[test]
    fn alloc_buf_entries_are_roots() {
        let mut m = MutatorState::new();
        m.alloc_buf = vec![640, 7, 888];
        m.alloc_buf_ptr_mask = 0b101;
        let mut stats = GcStats::default();
        let out = scan_stack(&mut m, None, MarkerPolicy::Disabled, &mut stats);
        assert!(out.new_roots.contains(&RootLoc::AllocBuf(0)));
        assert!(out.new_roots.contains(&RootLoc::AllocBuf(2)));
        assert!(!out.new_roots.contains(&RootLoc::AllocBuf(1)));
    }

    /// The bitmap fast path must be observably identical to the per-slot
    /// reference decode: same roots in the same order, same cache, same
    /// charged costs.
    #[test]
    fn bitmap_path_matches_reference_scan() {
        let build = || {
            let mut m = MutatorState::new();
            m.check_shadows = false; // enable the bitmap fast path
            let stat = m.traces.register(
                FrameDesc::new("static")
                    .slot(Trace::Pointer)
                    .slot(Trace::NonPointer)
                    .slot(Trace::Pointer)
                    .def_pointer(Reg::new(7)),
            );
            let dynamic = m.traces.register(
                FrameDesc::new("dynamic")
                    .slot(Trace::CalleeSave(Reg::new(7)))
                    .slot(Trace::NonPointer)
                    .slot(Trace::Compute(TypeLoc::Slot(1))),
            );
            for i in 0..40 {
                if i % 5 == 4 {
                    m.stack.push(dynamic, 3);
                    m.stack.top_mut().set_word_tagged(0, 64, ShadowTag::Ptr);
                    m.stack.top_mut().set(1, Value::Int(TYPE_UNBOXED));
                    m.stack.top_mut().set(2, Value::Int(9));
                } else {
                    m.stack.push(stat, 3);
                    m.stack.top_mut().set(0, Value::Ptr(Addr::new(100 + i)));
                    m.stack.top_mut().set(1, Value::Int(7));
                    m.stack.top_mut().set(2, Value::Ptr(Addr::new(200 + i)));
                }
            }
            m
        };

        let mut m_fast = build();
        let mut m_ref = build();
        let mut stats_fast = GcStats::default();
        let mut stats_ref = GcStats::default();
        let mut cache_fast = ScanCache::default();
        let mut cache_ref = ScanCache::default();
        let out_fast = scan_stack(
            &mut m_fast,
            Some(&mut cache_fast),
            MarkerPolicy::EveryN(8),
            &mut stats_fast,
        );
        let out_ref = scan_stack_reference(
            &mut m_ref,
            Some(&mut cache_ref),
            MarkerPolicy::EveryN(8),
            &mut stats_ref,
        );

        assert_eq!(out_fast.new_roots, out_ref.new_roots);
        assert_eq!(out_fast.scanned_frames, out_ref.scanned_frames);
        assert_eq!(out_fast.reused_frames, out_ref.reused_frames);
        assert_eq!(stats_fast, stats_ref);
        assert_eq!(cache_fast.roots, cache_ref.roots);
        assert_eq!(cache_fast.frames, cache_ref.frames);
    }

    /// The workspace's deterministic xorshift64* generator.
    fn xorshift(state: &mut u64) -> u64 {
        let mut x = *state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *state = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Random pushes, pops and raise unwinds over static and dynamic
    /// frames, with a cached scan after every burst: its fresh roots plus
    /// the expanded cached prefix are exactly the stack words a cache-less
    /// scan of the same stack names, and the register state at the cache
    /// boundary is the one a full decode computes there.
    #[test]
    fn cached_scans_name_the_roots_of_a_full_scan() {
        for every in [1, 3, 25] {
            let mut reused = 0;
            for seed in 1..=6u64 {
                let mut rng = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
                let mut m = MutatorState::new();
                m.check_shadows = false; // the bitmap path, as in release builds
                let descs = [
                    m.traces.register(
                        FrameDesc::new("static")
                            .slot(Trace::Pointer)
                            .slot(Trace::NonPointer)
                            .slot(Trace::Pointer)
                            .def_pointer(Reg::new(7)),
                    ),
                    m.traces.register(FrameDesc::new("leaf")),
                    m.traces.register(
                        FrameDesc::new("wide")
                            .slots(70, Trace::NonPointer)
                            .slot(Trace::Pointer)
                            .def_non_pointer(Reg::new(7)),
                    ),
                    m.traces.register(
                        FrameDesc::new("callee-save")
                            .slot(Trace::CalleeSave(Reg::new(7)))
                            .slot(Trace::Pointer),
                    ),
                    m.traces.register(
                        FrameDesc::new("compute")
                            .slot(Trace::NonPointer)
                            .slot(Trace::Compute(TypeLoc::Slot(0)))
                            .def_pointer(Reg::new(9)),
                    ),
                ];
                let mut cache = ScanCache::default();
                let policy = MarkerPolicy::EveryN(every);
                for round in 0..40 {
                    // The first burst only pushes: a stack deep enough for
                    // markers 25 apart.
                    let ops = if round == 0 {
                        60
                    } else {
                        xorshift(&mut rng) % 24
                    };
                    for _ in 0..ops {
                        let depth = m.stack.depth();
                        let op = if round == 0 {
                            0
                        } else {
                            xorshift(&mut rng) % 8
                        };
                        match op {
                            0..=3 => {
                                let d = descs[(xorshift(&mut rng) % 5) as usize];
                                let n = m.traces.desc(d).num_slots();
                                m.stack.push(d, n);
                                for i in 0..n {
                                    let word = xorshift(&mut rng);
                                    m.stack.top_mut().set_word_raw(i, word);
                                }
                            }
                            4 | 5 if depth > 0 => {
                                m.stack.pop();
                            }
                            6 if depth > 0 => {
                                let frames = xorshift(&mut rng) as usize % depth.min(10);
                                m.stack.unwind_for_raise(depth - 1 - frames);
                            }
                            // The active frame retypes its polymorphic value.
                            7 if depth > 0 && m.stack.top().num_slots() > 0 => {
                                let word = xorshift(&mut rng);
                                m.stack.top_mut().set_word_raw(0, word);
                            }
                            _ => {}
                        }
                    }

                    let full = scan_stack(&mut m, None, policy, &mut GcStats::default());
                    // A scan with a cache re-places markers, so the full
                    // decode into a fresh cache runs on a copy of the stack.
                    let live = m.stack.clone();
                    let mut fresh = ScanCache::default();
                    scan_stack(&mut m, Some(&mut fresh), policy, &mut GcStats::default());
                    m.stack = live;

                    let out = scan_stack(&mut m, Some(&mut cache), policy, &mut GcStats::default());
                    let mut roots = out.new_roots;
                    append_cached_roots(Some(&cache), out.reused_frames, &mut roots);
                    let at = format!("every {every}, seed {seed}, round {round}");
                    assert_eq!(stack_words(&roots), stack_words(&full.new_roots), "{at}");
                    let boundary = |c: &ScanCache| c.frames[..out.reused_frames].last().copied();
                    assert_eq!(
                        boundary(&cache).map(|(_, s)| s),
                        boundary(&fresh).map(|(_, s)| s),
                        "{at}"
                    );
                    assert_eq!(cache.roots, fresh.roots, "{at}");
                    assert_eq!(cache.frames, fresh.frames, "{at}");
                    reused += out.reused_frames;
                }
            }
            assert!(reused > 0, "every {every}: no scan reused a frame");
        }
    }

    #[test]
    #[should_panic(expected = "slot 3 of frame 7 is stack word 4294967296")]
    fn a_root_index_past_u32_is_refused() {
        let last = u32::MAX as usize;
        assert_eq!(
            RootLoc::stack_slot(last - 3, 7, 3),
            RootLoc::StackWord(u32::MAX)
        );
        RootLoc::stack_slot(last - 2, 7, 3);
    }

    #[test]
    fn root_read_write_round_trip() {
        let mut m = mutator(3);
        let loc = RootLoc::stack_slot(m.stack.frame_base(1), 1, 0);
        assert_eq!(read_root(&m, loc), 101);
        write_root(&mut m, loc, 4242);
        assert_eq!(read_root(&m, loc), 4242);
        assert_eq!(m.stack.frame(1).word(0), 4242);
        assert_eq!(m.stack.frame(1).word(1), 7, "the neighbour is untouched");

        m.regs.set(Reg::new(3), Value::Ptr(Addr::new(9)));
        let loc = RootLoc::Reg(3);
        assert_eq!(read_root(&m, loc), 9);
        write_root(&mut m, loc, 11);
        assert_eq!(read_root(&m, loc), 11);
    }
}
