//! Root-set computation: the two-pass stack scan of §2.3, extended with
//! the scan cache of §5 (*generational stack collection*), fused with the
//! processing of the roots it finds.
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
//! The paper counts decoding and processing the roots as two steps;
//! [`scan_stack`] takes both in one pass, forwarding each root where it
//! decodes it, so no root set is buffered; a run of static frames of one
//! descriptor is one loop over its precompiled pointer-slot offsets.
//! Registers and the allocation buffer are roots by mask (the scan's
//! final register state, the buffer's own mask), forwarded after the
//! stack by the driver's `forward_roots`, which also charges what the
//! scan counted. With a [`ScanCache`], frames below the stack's
//! [`reusable_prefix`](tilgc_runtime::Stack::reusable_prefix) are not
//! re-decoded: their roots, as stack-word indices, and the register state
//! at the cache boundary are reused, and the fresh frames' indices join
//! them. A collection that moves everything (every plan but the
//! immediate-promotion minor, whose cached frames contribute no roots at
//! all: the §5 payoff) forwards them last, from
//! [`ScanCache::prefix_roots`].

use tilgc_runtime::trace::{CompiledTrace, Trace, TypeLoc, NUM_REGS};
use tilgc_runtime::{type_word_is_pointer, MutatorState, ShadowTag};

use crate::config::MarkerPolicy;
use crate::evac::Evacuator;

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

    /// The registers holding pointers, bit `r` for register `r`.
    #[inline]
    pub fn mask(self) -> u32 {
        self.0
    }

    /// Applies one frame's declared register effects, precompiled into
    /// its layout's [`reg_masks`](CompiledTrace::reg_masks).
    #[inline]
    pub fn apply(self, layout: &CompiledTrace) -> RegState {
        let (set, clear) = layout.reg_masks();
        RegState((self.0 & !clear) | set)
    }
}

/// Scan results cached across collections — the data structure at the
/// heart of generational stack collection.
///
/// Flat: the cached frames' roots as stack-word indices in one list, and
/// per frame where its run ends. The indices stay valid because a frame
/// below the reusable prefix was never popped since it was decoded, and
/// neither was any frame under it, so its base is where it was.
#[derive(Clone, Debug, Default, PartialEq)]
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

    /// The roots of cached frames `0 .. frames`, as stack-word indices.
    ///
    /// The scan cache saves the frame *decode* cost, not root processing:
    /// a plan whose collection moves objects the cached frames may
    /// reference — the semispace plan always, the generational plans at
    /// major collections and (under a §7.2 tenure threshold) at minor
    /// ones — forwards these after [`scan_stack`] with
    /// `frames = reused_frames`. The immediate-promotion minor collection
    /// is the one case that skips them: everything a cached frame
    /// references is already tenured (§5).
    pub fn prefix_roots(&self, frames: usize) -> &[u32] {
        &self.roots[..self.run_end(frames)]
    }
}

/// Slot `slot` of the frame at `depth`, whose slot 0 is stack word `base`,
/// as the root index the scan cache keeps, or a panic if the index does
/// not fit a `u32`.
#[inline]
fn checked_index(base: usize, depth: usize, slot: usize) -> u32 {
    // Out of line, so the scan's loops keep no panic arguments alive.
    #[cold]
    #[inline(never)]
    fn refuse(depth: usize, slot: usize, index: usize) -> ! {
        panic!("slot {slot} of frame {depth} is stack word {index}, past a 32-bit root index")
    }
    let index = base + slot;
    u32::try_from(index).unwrap_or_else(|_| refuse(depth, slot, index))
}

/// What a scan counted for `Evacuator::forward_roots` to charge.
#[derive(Debug, Default)]
pub struct ScanOutcome {
    /// The register roots: the pointerness the scan threaded through
    /// every frame's effects, as it stands at the collection point.
    pub reg_roots: RegState,
    /// Frames whose cached decode was reused.
    pub reused_frames: usize,
    /// Frames decoded from scratch.
    pub scanned_frames: usize,
    /// The simulation oracle's true unchanged prefix, captured *before*
    /// marker placement reset the stack's bookkeeping. A correct marker
    /// implementation guarantees `reused_frames <= oracle_prefix`: the
    /// reuse it acts on, `min(M, deepest intact marker)` clamped to the
    /// cache length, is the claim the collection's record carries.
    pub oracle_prefix: usize,
    /// Stack slots the decode traced.
    pub slots_scanned: u64,
    /// Markers the scan placed.
    pub markers_placed: u64,
    /// The decode's own charge, without the roots it forwarded: where the
    /// collection's stack-decode phase ends.
    pub decode_cycles: u64,
    /// The fresh frames' roots the scan forwarded.
    pub roots_found: u64,
    /// How many of those moved.
    pub roots_relocated: u64,
}

/// Scans the mutator state for roots, forwarding through `ev` each root
/// of the *newly scanned* frames where it decodes it, bottom frame first.
/// Nothing is charged: the outcome counts the decode and those roots for
/// `Evacuator::forward_roots`, which forwards the
/// register roots, the allocation buffer and, if the caller asks, the
/// cached frames' roots ([`ScanCache::prefix_roots`]) after them. A
/// `Compute` slot's type word lies in a `NonPointer` slot (registration
/// refuses any other), so forwarding a slot never changes a decision.
///
/// * With `cache = None` this is the plain §2.3 full scan, keeping
///   nothing.
/// * With a cache, frames under the stack's reusable prefix are skipped
///   (their decodes are reused), the fresh frames' roots join the cache,
///   and markers are re-placed per `policy` — §5's generational stack
///   collection.
///
/// # Panics
///
/// Panics (when `m.check_shadows` is set) if a trace-derived pointerness
/// decision contradicts the mutator's shadow tags — a mis-declared frame
/// descriptor or a bug in the two-pass reconstruction.
pub fn scan_stack(
    m: &mut MutatorState,
    mut cache: Option<&mut ScanCache>,
    policy: MarkerPolicy,
    ev: &mut Evacuator<'_>,
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
        // Read the oracle now: place_markers_at (below) resets it.
        oracle_prefix: m.stack.true_unchanged_prefix(),
        ..Default::default()
    };
    // The decode's charges are counted here and priced after the loop:
    // `frame_decode` per frame, `slot_trace` per slot and
    // `compute_trace_extra` per `Compute` slot, whichever path decodes.
    let mut slots_seen: u64 = 0;
    let mut computed: u64 = 0;
    let (mut found, mut relocated) = (0u64, 0u64);
    // Shadow checking wants the per-slot decode, so it keeps the
    // reference path for every frame.
    let check = m.check_shadows;
    let (frames, words, shadow) = m.stack.scan_view(reusable);
    let mut frames = frames.peekable();
    let mut d = reusable;

    while let Some((id, base)) = frames.next() {
        let compiled = m.traces.compiled(id);
        // The register state after this frame, and after every frame of a
        // run of its descriptor: a frame's effects are idempotent.
        let after = reg_state.apply(compiled);
        // Slot-list fast path: a fully static frame's roots were compiled
        // into pointer-slot offsets at registration, and a run of frames
        // of its descriptor, as a recursion leaves (over 95 % of the
        // frames the paper's programs decode), takes one lookup.
        let fast = !check && compiled.is_static();
        let (slots, width) = (compiled.ptr_slots(), compiled.num_slots());
        let mut next = Some(base);
        while let Some(base) = next {
            let frame = &mut words[base..base + width];
            slots_seen += width as u64;
            if fast {
                relocated += ev.forward_slots(frame, slots);
                found += slots.len() as u64;
                if let Some(c) = cache.as_deref_mut() {
                    c.roots
                        .extend(slots.iter().map(|&s| checked_index(base, d, s as usize)));
                }
            } else {
                let desc = m.traces.desc(id);
                for (i, &trace) in desc.slot_traces().iter().enumerate() {
                    let is_ptr = match trace {
                        Trace::Pointer => true,
                        Trace::NonPointer => false,
                        Trace::CalleeSave(r) => reg_state.is_pointer(r.index()),
                        Trace::Compute(loc) => {
                            computed += 1;
                            let type_word = match loc {
                                TypeLoc::Slot(s) => frame[s as usize],
                                TypeLoc::Reg(r) => m.regs.word(r),
                            };
                            type_word_is_pointer(type_word)
                        }
                    };
                    if check {
                        let shadow_ptr = shadow[base + i] == ShadowTag::Ptr;
                        assert_eq!(
                            is_ptr,
                            shadow_ptr,
                            "trace decode disagrees with shadow for slot {i} (trace {trace:?}) \
                             of frame {d} ({})",
                            desc.name()
                        );
                    }
                    if is_ptr {
                        found += 1;
                        relocated += u64::from(ev.forward_root(&mut frame[i]));
                        if let Some(c) = cache.as_deref_mut() {
                            c.roots.push(checked_index(base, d, i));
                        }
                    }
                }
            }
            if let Some(c) = cache.as_deref_mut() {
                c.frames.push((c.roots.len(), after));
            }
            d += 1;
            next = frames
                .next_if(|&(next_id, _)| fast && next_id == id)
                .map(|(_, base)| base);
        }
        reg_state = after;
    }
    // Marker placement, below, takes the stack back from the view.
    drop(frames);
    outcome.scanned_frames = depth - reusable;
    cycles += cost.frame_decode * outcome.scanned_frames as u64
        + cost.slot_trace * slots_seen
        + cost.compute_trace_extra * computed;

    // Registers live across the collection point: each is traced, and
    // the ones the state marks are roots.
    cycles += cost.slot_trace * NUM_REGS as u64;
    if check {
        for r in 0..NUM_REGS {
            let shadow_ptr = m.regs.shadow(tilgc_runtime::Reg::new(r as u8)) == ShadowTag::Ptr;
            assert_eq!(
                reg_state.is_pointer(r),
                shadow_ptr,
                "register ${r} trace state disagrees with shadow"
            );
        }
    }
    outcome.reg_roots = reg_state;

    if cache.is_some() {
        let placed = m.stack.place_markers_at(policy.placements(depth));
        cycles += cost.marker_place * placed as u64;
        outcome.markers_placed = placed as u64;
    }
    outcome.slots_scanned = slots_seen;
    outcome.decode_cycles = cycles;
    outcome.roots_found = found;
    outcome.roots_relocated = relocated;
    outcome
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::evac::Evacuator;
    use tilgc_mem::{object, Addr, Memory, SiteId, Space};
    use tilgc_runtime::trace::RegEffect;
    use tilgc_runtime::{FrameDesc, GcStats, Reg, Trace, Value, TYPE_BOXED, TYPE_UNBOXED};

    /// The first step of the scan before decode and forwarding were fused:
    /// the per-slot decode of every fresh frame into `roots` (cleared first),
    /// with the cache, markers, shadow checks and decode counts of
    /// [`scan_stack`], forwarding and counting no root. Forwarding `roots`
    /// in order, then the registers, the allocation buffer and the cached
    /// prefix, is the two-step scan the differential tests hold the fused
    /// one to.
    pub(crate) fn decode_reference(
        m: &mut MutatorState,
        mut cache: Option<&mut ScanCache>,
        policy: MarkerPolicy,
        roots: &mut Vec<u32>,
    ) -> ScanOutcome {
        let cost = m.cost;
        let depth = m.stack.depth();
        roots.clear();
        let (reusable, mut reg_state) = match cache.as_deref_mut() {
            Some(c) => {
                let r = m.stack.reusable_prefix().min(c.frames.len());
                c.truncate(r);
                (r, c.frames.last().map_or(RegState::EMPTY, |&(_, s)| s))
            }
            None => (0, RegState::EMPTY),
        };
        let mut outcome = ScanOutcome {
            reused_frames: reusable,
            oracle_prefix: m.stack.true_unchanged_prefix(),
            ..Default::default()
        };
        let (mut slots_seen, mut computed) = (0u64, 0u64);
        for d in reusable..depth {
            let frame = m.stack.frame(d);
            let desc = m.traces.desc(frame.desc());
            slots_seen += desc.num_slots() as u64;
            for (i, &trace) in desc.slot_traces().iter().enumerate() {
                let is_ptr = match trace {
                    Trace::Pointer => true,
                    Trace::NonPointer => false,
                    Trace::CalleeSave(r) => reg_state.is_pointer(r.index()),
                    Trace::Compute(loc) => {
                        computed += 1;
                        type_word_is_pointer(match loc {
                            TypeLoc::Slot(s) => frame.word(s as usize),
                            TypeLoc::Reg(r) => m.regs.word(r),
                        })
                    }
                };
                if m.check_shadows {
                    assert_eq!(
                        is_ptr,
                        frame.shadow(i) == ShadowTag::Ptr,
                        "trace decode disagrees with shadow for slot {i} of frame {d}"
                    );
                }
                if is_ptr {
                    roots.push(checked_index(m.stack.frame_base(d), d, i));
                }
            }
            reg_state = reg_state.apply(m.traces.compiled(frame.desc()));
            if let Some(c) = cache.as_deref_mut() {
                c.frames.push((c.roots.len() + roots.len(), reg_state));
            }
        }
        if m.check_shadows {
            for r in 0..NUM_REGS {
                assert_eq!(
                    reg_state.is_pointer(r),
                    m.regs.shadow(tilgc_runtime::Reg::new(r as u8)) == ShadowTag::Ptr,
                    "register ${r} trace state disagrees with shadow"
                );
            }
        }
        outcome.scanned_frames = depth - reusable;
        outcome.reg_roots = reg_state;
        outcome.slots_scanned = slots_seen;
        outcome.decode_cycles = cost.frame_reuse * reusable as u64
            + cost.frame_decode * outcome.scanned_frames as u64
            + cost.slot_trace * (slots_seen + NUM_REGS as u64)
            + cost.compute_trace_extra * computed;
        if let Some(c) = cache {
            c.roots.extend_from_slice(roots);
            let placed = m.stack.place_markers_at(policy.placements(depth));
            outcome.decode_cycles += cost.marker_place * placed as u64;
            outcome.markers_placed = placed as u64;
        }
        outcome
    }

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

    /// A root phase through an evacuator whose from set is empty, so that
    /// nothing moves: `scan` takes the stack, then `forward_roots` the
    /// registers and the allocation buffer, charging what `scan` counted.
    fn moving_nothing(
        m: &mut MutatorState,
        stats: &mut GcStats,
        scan: impl FnOnce(&mut MutatorState, &mut Evacuator<'_>) -> ScanOutcome,
    ) -> ScanOutcome {
        let mut mem = Memory::with_capacity_words(16);
        let mut to = Space::new(mem.reserve(8).unwrap());
        let cost = m.cost;
        let mut ev = Evacuator::new(&mut mem, &[], &mut to, None, None, None, stats, cost);
        let out = scan(m, &mut ev);
        ev.forward_roots(m, &out, &[]);
        out
    }

    /// [`moving_nothing`] with the fused scan.
    fn scan_moving_nothing(
        m: &mut MutatorState,
        cache: Option<&mut ScanCache>,
        policy: MarkerPolicy,
        stats: &mut GcStats,
    ) -> ScanOutcome {
        moving_nothing(m, stats, |m, ev| scan_stack(m, cache, policy, ev))
    }

    /// [`scan_moving_nothing`] with `cache` — or, when `None`, a fresh
    /// cache, in which `MarkerPolicy::Disabled` places no marker — and
    /// the roots the scan named: the fresh frames' run of the cache's
    /// roots.
    fn scan(
        m: &mut MutatorState,
        cache: Option<&mut ScanCache>,
        policy: MarkerPolicy,
        stats: &mut GcStats,
    ) -> (Vec<u32>, ScanOutcome) {
        let mut own = ScanCache::default();
        let c = cache.unwrap_or(&mut own);
        let out = scan_moving_nothing(m, Some(&mut *c), policy, stats);
        (c.roots[c.run_end(out.reused_frames)..].to_vec(), out)
    }

    /// [`moving_nothing`] with the two-step scan of [`decode_reference`]:
    /// the decode, then its roots examined and left alone. Returns them.
    fn two_step_moving_nothing(
        m: &mut MutatorState,
        cache: Option<&mut ScanCache>,
        policy: MarkerPolicy,
        stats: &mut GcStats,
    ) -> (Vec<u32>, ScanOutcome) {
        let mut roots = Vec::new();
        let out = moving_nothing(m, stats, |m, _| {
            let mut out = decode_reference(m, cache, policy, &mut roots);
            out.roots_found = roots.len() as u64;
            out
        });
        (roots, out)
    }

    /// A collection's root phase out of `from` into `to`: the cache-less
    /// scan, forwarding each stack root where it decodes it, then the
    /// registers and the allocation buffer. Returns the charges.
    fn collect_roots(
        mem: &mut Memory,
        from: &Space,
        to: &mut Space,
        m: &mut MutatorState,
    ) -> GcStats {
        let mut stats = GcStats::default();
        let from_ranges = [from.range()];
        {
            let cost = m.cost;
            let mut ev = Evacuator::new(mem, &from_ranges, to, None, None, None, &mut stats, cost);
            let out = scan_stack(m, None, MarkerPolicy::Disabled, &mut ev);
            ev.forward_roots(m, &out, &[]);
        }
        stats
    }

    /// A heap of one from-space and one to-space, and `n` one-field
    /// records in the from-space.
    fn heap(n: usize) -> (Memory, Space, Space, Vec<Addr>) {
        let mut mem = Memory::with_capacity_words(8 * n + 64);
        let mut from = Space::new(mem.reserve(4 * n + 8).unwrap());
        let to = Space::new(mem.reserve(4 * n + 8).unwrap());
        let objs = (0..n)
            .map(|i| object::alloc_record(&mut mem, &mut from, SiteId::new(1), &[i as u64], 0))
            .collect::<Result<_, _>>()
            .unwrap();
        (mem, from, to, objs)
    }

    #[test]
    fn full_scan_finds_every_pointer_slot() {
        let mut m = mutator(10);
        let mut stats = GcStats::default();
        let (roots, out) = scan(&mut m, None, MarkerPolicy::Disabled, &mut stats);
        assert_eq!(roots, (0..10).map(|d| 2 * d).collect::<Vec<u32>>());
        assert_eq!(out.reg_roots, RegState::EMPTY);
        assert_eq!(out.scanned_frames, 10);
        assert_eq!(out.reused_frames, 0);
        assert!(stats.stack_cycles > 0);
    }

    #[test]
    fn cached_scan_skips_old_frames() {
        let mut m = mutator(100);
        let mut stats = GcStats::default();
        let mut cache = ScanCache::default();
        let (_, out) = scan(
            &mut m,
            Some(&mut cache),
            MarkerPolicy::EveryN(25),
            &mut stats,
        );
        assert_eq!(out.scanned_frames, 100);
        assert_eq!(cache.frames.len(), 100);

        // Second scan with no mutator activity: reuse up to the deepest
        // marker (depth 99).
        let (roots, out2) = scan(
            &mut m,
            Some(&mut cache),
            MarkerPolicy::EveryN(25),
            &mut stats,
        );
        assert_eq!(out2.reused_frames, 99);
        assert_eq!(out2.scanned_frames, 1);
        assert_eq!(roots, [198]);
        assert_eq!(cache.frames.len(), 100);
        assert_eq!(cache.roots.len(), 100);
        assert_eq!(cache.prefix_roots(99), &cache.roots[..99]);
    }

    #[test]
    fn cache_handles_pops_and_regrowth() {
        let mut m = mutator(100);
        let mut stats = GcStats::default();
        let mut cache = ScanCache::default();
        scan(
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
        let (_, out) = scan(
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
        let (roots, out) = scan(&mut m, None, MarkerPolicy::Disabled, &mut stats);
        assert_eq!(roots, [m.stack.frame_base(1) as u32]);
        // $5 is still pointer-valued at the top, so it is a register root.
        assert_eq!(out.reg_roots.mask(), 1 << 5);
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
        let (roots, out) = scan(&mut m, None, MarkerPolicy::Disabled, &mut stats);
        assert!(roots.is_empty());
        assert_eq!(out.reg_roots, RegState::EMPTY);
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
        let (roots, _) = scan(&mut m, None, MarkerPolicy::Disabled, &mut stats);
        assert_eq!(roots, [1]);

        // Flip the type to unboxed: same slot, now not a root.
        m.stack.top_mut().set(0, Value::Int(TYPE_UNBOXED));
        m.stack.top_mut().set(1, Value::Int(640));
        let (roots, _) = scan(&mut m, None, MarkerPolicy::Disabled, &mut stats);
        assert!(roots.is_empty());
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
        scan(&mut m, None, MarkerPolicy::Disabled, &mut stats);
    }

    /// The allocation buffer's roots are its pointer mask: forwarding
    /// moves the masked entries and leaves the others alone.
    #[test]
    fn alloc_buf_entries_are_roots() {
        let (mut mem, from, mut to, objs) = heap(3);
        let mut m = MutatorState::new();
        let words: Vec<u64> = objs.iter().map(|a| u64::from(a.raw())).collect();
        m.alloc_buf = vec![words[0], words[1], words[2]];
        m.alloc_buf_ptr_mask = 0b101;
        let mut stats = GcStats::default();
        let (roots, _) = scan(&mut m, None, MarkerPolicy::Disabled, &mut stats);
        assert!(roots.is_empty(), "the scan does not read the buffer");
        let stats = collect_roots(&mut mem, &from, &mut to, &mut m);
        assert_eq!(stats.roots_found, 2);
        for i in [0, 2] {
            assert!(
                to.contains(Addr::new(m.alloc_buf[i] as u32)),
                "entry {i} moved"
            );
        }
        assert_eq!(m.alloc_buf[1], words[1], "an unmasked entry stays");
    }

    /// The slot-list fast path must be observably identical to the
    /// per-slot reference decode: same roots in the same order, same
    /// register roots, same cache, same charged costs.
    #[test]
    fn bitmap_path_matches_reference_scan() {
        let build = || {
            let mut m = MutatorState::new();
            m.check_shadows = false; // enable the slot-list fast path
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
                    .slot(Trace::Compute(TypeLoc::Slot(1)))
                    .def_pointer(Reg::new(2)),
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
        let (roots_fast, out_fast) = scan(
            &mut m_fast,
            Some(&mut cache_fast),
            MarkerPolicy::EveryN(8),
            &mut stats_fast,
        );
        let (roots_ref, out_ref) = two_step_moving_nothing(
            &mut m_ref,
            Some(&mut cache_ref),
            MarkerPolicy::EveryN(8),
            &mut stats_ref,
        );

        assert_eq!(roots_fast, roots_ref);
        assert_eq!(out_fast.reg_roots, out_ref.reg_roots);
        assert_eq!(out_fast.reg_roots.mask(), 1 << 7 | 1 << 2);
        assert_eq!(out_fast.scanned_frames, out_ref.scanned_frames);
        assert_eq!(out_fast.reused_frames, out_ref.reused_frames);
        assert_eq!(stats_fast, stats_ref);
        assert_eq!(cache_fast, cache_ref);
    }

    /// The register effects applied one by one, in declaration order.
    fn apply_in_sequence(state: RegState, effects: &[(Reg, RegEffect)]) -> RegState {
        let mut bits = state.mask();
        for &(reg, effect) in effects {
            match effect {
                RegEffect::Preserve => {}
                RegEffect::DefPointer => bits |= 1 << reg.index(),
                RegEffect::DefNonPointer => bits &= !(1 << reg.index()),
            }
        }
        RegState(bits)
    }

    /// A descriptor naming one register twice, in either order, folds to
    /// the register state its effects give applied in sequence: the last
    /// one wins.
    #[test]
    fn register_masks_fold_like_effects_in_sequence() {
        let mut m = MutatorState::new();
        let (r, other) = (Reg::new(4), Reg::new(31));
        let descs = [
            FrameDesc::new("ptr-then-int")
                .def_pointer(r)
                .def_non_pointer(other)
                .def_non_pointer(r),
            FrameDesc::new("int-then-ptr")
                .def_non_pointer(r)
                .def_pointer(other)
                .def_pointer(r),
            FrameDesc::new("twice")
                .def_pointer(r)
                .def_pointer(r)
                .def_non_pointer(other)
                .def_non_pointer(other),
        ];
        for desc in descs {
            let id = m.traces.register(desc.clone());
            for start in [0, u32::MAX, 1 << 4, 1 << 31, 0x9e37_79b9] {
                let state = RegState(start);
                assert_eq!(
                    state.apply(m.traces.compiled(id)),
                    apply_in_sequence(state, desc.reg_effects()),
                    "{} from {start:#x}",
                    desc.name()
                );
            }
        }
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
    /// frames, with a cached scan after every burst: its roots, register
    /// roots, cache and charges are the two-step reference scan's, from
    /// the same cache; the cached prefix and its fresh roots are exactly
    /// the stack words the cache-less reference decode of the same stack
    /// names, in stack order, and the cache-less fused scan charges what
    /// that decode does; and the register state at the cache boundary is
    /// the one a full decode computes there.
    #[test]
    fn cached_scans_name_the_roots_of_a_full_scan() {
        for every in [1, 3, 25] {
            let mut reused = 0;
            for seed in 1..=6u64 {
                let mut rng = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
                let mut m = MutatorState::new();
                m.check_shadows = false; // the slot-list path, as in release builds
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
                    let at = format!("every {every}, seed {seed}, round {round}");

                    let mut full_stats = GcStats::default();
                    let (full, full_out) =
                        two_step_moving_nothing(&mut m, None, policy, &mut full_stats);
                    let mut fused_stats = GcStats::default();
                    let fused_out = scan_moving_nothing(&mut m, None, policy, &mut fused_stats);
                    assert_eq!(fused_out.reg_roots, full_out.reg_roots, "{at}");
                    assert_eq!(fused_stats, full_stats, "{at}");

                    // A scan with a cache re-places markers, so the full
                    // decode into a fresh cache, and the reference scan
                    // from the live cache, run on copies of the stack.
                    let live = m.stack.clone();
                    let mut fresh = ScanCache::default();
                    scan(&mut m, Some(&mut fresh), policy, &mut GcStats::default());
                    m.stack = live.clone();
                    let mut ref_cache = cache.clone();
                    let mut ref_stats = GcStats::default();
                    let (ref_roots, ref_out) = two_step_moving_nothing(
                        &mut m,
                        Some(&mut ref_cache),
                        policy,
                        &mut ref_stats,
                    );
                    m.stack = live;

                    let mut stats = GcStats::default();
                    let (roots, out) = scan(&mut m, Some(&mut cache), policy, &mut stats);
                    assert_eq!(roots, ref_roots, "{at}");
                    assert_eq!(out.reg_roots, ref_out.reg_roots, "{at}");
                    assert_eq!(out.reg_roots, full_out.reg_roots, "{at}");
                    assert_eq!(stats, ref_stats, "{at}");
                    assert_eq!(cache, ref_cache, "{at}");

                    assert_eq!(cache.roots, full, "{at}");
                    let boundary = |c: &ScanCache| c.frames[..out.reused_frames].last().copied();
                    assert_eq!(
                        boundary(&cache).map(|(_, s)| s),
                        boundary(&fresh).map(|(_, s)| s),
                        "{at}"
                    );
                    assert_eq!(cache, fresh, "{at}");
                    reused += out.reused_frames;
                }
            }
            assert!(reused > 0, "every {every}: no scan reused a frame");
        }
    }

    /// The scan cache names a root by a `u32` stack-word index: the last
    /// one converts, and an index past `u32::MAX` is refused, naming
    /// frame and slot.
    #[test]
    #[should_panic(expected = "slot 3 of frame 7 is stack word 4294967296")]
    fn a_root_index_past_u32_is_refused() {
        let last = u32::MAX as usize;
        assert_eq!(checked_index(last - 3, 7, 3), u32::MAX);
        checked_index(last - 2, 7, 3);
    }

    /// A stack root and a register root round-trip through the root
    /// phase: each word is read where the scan decodes it, and the
    /// relocated word is written back there and nowhere else.
    #[test]
    fn root_read_write_round_trip() {
        let (mut mem, from, mut to, objs) = heap(2);
        let mut m = mutator(3);
        let (stack_obj, reg_obj) = (objs[0], objs[1]);
        m.stack.frame_mut(1).set(0, Value::Ptr(stack_obj));
        let d = m
            .traces
            .register(FrameDesc::new("def").def_pointer(Reg::new(3)));
        m.stack.push(d, 0);
        m.regs.set(Reg::new(3), Value::Ptr(reg_obj));
        let stats = collect_roots(&mut mem, &from, &mut to, &mut m);
        assert_eq!(stats.roots_found, 4, "three stack roots and $3");

        let moved = |a: Addr| object::header(&mem, a).forward_addr().unwrap();
        assert_eq!(m.stack.frame(1).word(0), u64::from(moved(stack_obj).raw()));
        assert_eq!(m.stack.frame(1).word(1), 7, "the neighbour is untouched");
        assert_eq!(
            m.stack.frame(0).word(0),
            100,
            "a root outside from-space stays"
        );
        assert_eq!(m.regs.word(Reg::new(3)), u64::from(moved(reg_obj).raw()));
    }
}
