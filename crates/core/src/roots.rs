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
//! With a [`ScanCache`], frames below the stack's
//! [`reusable_prefix`](tilgc_runtime::Stack::reusable_prefix) are not
//! re-decoded: their root-slot lists and the register state at the cache
//! boundary are reused from the previous collection.
//!
//! Plans feed the result into the tracing driver: [`scan_stack`] yields
//! the freshly decoded roots, [`append_cached_roots`] expands the cached
//! prefix when a collection moves everything (every plan except the
//! immediate-promotion minor, whose cached frames contribute no roots at
//! all — the §5 payoff), and the driver's `forward_roots` loop (`evac`
//! module) processes the combined list.

use std::sync::Arc;

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

/// The cached decode of one frame.
#[derive(Clone, Debug)]
pub struct FrameScanInfo {
    /// Slot indices that hold pointers (resolved through callee-save and
    /// compute traces). Shared: frames whose traces are fully static
    /// reference the list precompiled into the trace table rather than a
    /// per-scan copy.
    pub ptr_slots: Arc<[u16]>,
    /// Register pointerness after this frame's effects.
    pub reg_state_after: RegState,
}

/// Scan results cached across collections — the data structure at the
/// heart of generational stack collection.
#[derive(Clone, Debug, Default)]
pub struct ScanCache {
    /// Per-frame cached decodes; index = frame depth.
    pub frames: Vec<FrameScanInfo>,
}

/// The location of one root (a pointer the collector must relocate).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RootLoc {
    /// Slot `slot` of the frame at `depth`.
    Slot {
        /// Frame depth (0 = oldest).
        depth: u32,
        /// Slot index within the frame.
        slot: u16,
    },
    /// A general-purpose register.
    Reg(u8),
    /// Entry `i` of the allocation staging buffer.
    AllocBuf(u16),
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
pub fn read_root(m: &MutatorState, loc: RootLoc) -> u64 {
    match loc {
        RootLoc::Slot { depth, slot } => m.stack.frame(depth as usize).word(slot as usize),
        RootLoc::Reg(r) => m.regs.word(tilgc_runtime::Reg::new(r)),
        RootLoc::AllocBuf(i) => m.alloc_buf[i as usize],
    }
}

/// Writes a (relocated) word back into a root location.
pub fn write_root(m: &mut MutatorState, loc: RootLoc, word: u64) {
    match loc {
        RootLoc::Slot { depth, slot } => {
            m.stack
                .frame_mut(depth as usize)
                .set_word_raw(slot as usize, word);
        }
        RootLoc::Reg(r) => m.regs.set_word_raw(tilgc_runtime::Reg::new(r), word),
        RootLoc::AllocBuf(i) => m.alloc_buf[i as usize] = word,
    }
}

/// Expands the reused (cached) frames' pointer slots into root
/// locations, appending to `roots`.
///
/// The scan cache saves the frame *decode* cost, not root processing:
/// a plan whose collection moves objects the cached frames may reference
/// — the semispace plan always, the generational plans at major
/// collections and (under a §7.2 tenure threshold) at minor ones —
/// feeds the cached slots back through the tracing driver with this
/// helper after [`scan_stack`]. The immediate-promotion minor collection
/// is the one case that skips it: everything a cached frame references
/// is already tenured, so cached frames contribute no roots at all (§5).
pub fn append_cached_roots(
    cache: Option<&ScanCache>,
    reused_frames: usize,
    roots: &mut Vec<RootLoc>,
) {
    if let Some(cache) = cache {
        for (d, info) in cache.frames.iter().enumerate().take(reused_frames) {
            for &slot in info.ptr_slots.iter() {
                roots.push(RootLoc::Slot {
                    depth: d as u32,
                    slot,
                });
            }
        }
    }
}

/// Scans the mutator state for roots.
///
/// * With `cache = None` this is the plain §2.3 full scan.
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

/// [`scan_stack`] with the bitmap fast path disabled: every frame takes
/// the per-slot `Trace` decode, as before precompilation. The oracle of
/// `bitmap_path_matches_reference_scan`; results and charged costs are
/// identical by construction.
#[cfg(test)]
fn scan_stack_reference(
    m: &mut MutatorState,
    cache: Option<&mut ScanCache>,
    policy: MarkerPolicy,
    stats: &mut GcStats,
) -> ScanOutcome {
    scan_stack_impl(m, cache, policy, stats, false)
}

fn scan_stack_impl(
    m: &mut MutatorState,
    cache: Option<&mut ScanCache>,
    policy: MarkerPolicy,
    stats: &mut GcStats,
    use_bitmaps: bool,
) -> ScanOutcome {
    let cost = m.cost;
    let depth = m.stack.depth();
    let reusable = match cache.as_deref() {
        Some(c) => m.stack.reusable_prefix().min(c.frames.len()),
        None => 0,
    };
    let mut cycles = cost.frame_reuse * reusable as u64;

    let mut reg_state = match (reusable, cache.as_deref()) {
        (0, _) | (_, None) => RegState::EMPTY,
        (r, Some(c)) => c.frames[r - 1].reg_state_after,
    };

    let mut outcome = ScanOutcome {
        reused_frames: reusable,
        claimed_prefix: reusable,
        // Read the oracle now: place_markers_at (below) resets it.
        oracle_prefix: m.stack.true_unchanged_prefix(),
        ..Default::default()
    };
    let mut new_infos: Vec<FrameScanInfo> = Vec::with_capacity(depth - reusable);
    let mut slots_seen: u64 = 0;

    for d in reusable..depth {
        let frame = m.stack.frame(d);
        let desc_id = frame.desc();
        let desc = m.traces.desc(desc_id);
        cycles += cost.frame_decode;
        slots_seen += desc.num_slots() as u64;

        // Bitmap fast path: fully static frames were compiled into packed
        // pointer bitmasks at registration, so the scan walks set bits
        // instead of matching a `Trace` per slot — and reuses the
        // precompiled slot list instead of rebuilding it. Shadow checking
        // wants the per-slot decode, so it keeps the reference path. The
        // charge is `slot_trace` per slot either way (static frames have
        // no `Compute` slots, the only per-slot surcharge).
        let compiled = m.traces.compiled(desc_id);
        if use_bitmaps && compiled.is_static() && !m.check_shadows {
            cycles += cost.slot_trace * compiled.num_slots() as u64;
            for (w, &word) in compiled.ptr_bitmap().iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    let slot = (w * 64 + bits.trailing_zeros() as usize) as u16;
                    bits &= bits - 1;
                    outcome.new_roots.push(RootLoc::Slot {
                        depth: d as u32,
                        slot,
                    });
                }
            }
            reg_state = reg_state.apply(desc.reg_effects());
            new_infos.push(FrameScanInfo {
                ptr_slots: compiled.ptr_slots(),
                reg_state_after: reg_state,
            });
            continue;
        }

        let mut ptr_slots: Vec<u16> = Vec::new();
        for (i, &trace) in desc.slot_traces().iter().enumerate() {
            cycles += cost.slot_trace;
            let is_ptr = match trace {
                Trace::Pointer => true,
                Trace::NonPointer => false,
                Trace::CalleeSave(r) => reg_state.is_pointer(r.index()),
                Trace::Compute(loc) => {
                    cycles += cost.compute_trace_extra;
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
                ptr_slots.push(i as u16);
                outcome.new_roots.push(RootLoc::Slot {
                    depth: d as u32,
                    slot: i as u16,
                });
            }
        }
        reg_state = reg_state.apply(desc.reg_effects());
        new_infos.push(FrameScanInfo {
            ptr_slots: ptr_slots.into(),
            reg_state_after: reg_state,
        });
    }
    outcome.scanned_frames = depth - reusable;

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
        c.frames.truncate(reusable);
        c.frames.extend(new_infos);
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

    #[test]
    fn full_scan_finds_every_pointer_slot() {
        let mut m = mutator(10);
        let mut stats = GcStats::default();
        let out = scan_stack(&mut m, None, MarkerPolicy::Disabled, &mut stats);
        let slot_roots = out
            .new_roots
            .iter()
            .filter(|r| matches!(r, RootLoc::Slot { .. }))
            .count();
        assert_eq!(slot_roots, 10);
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
        assert!(out.new_roots.contains(&RootLoc::Slot { depth: 1, slot: 0 }));
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
        assert!(out.new_roots.contains(&RootLoc::Slot { depth: 0, slot: 1 }));

        // Flip the type to unboxed: same slot, now not a root.
        m.stack.top_mut().set(0, Value::Int(TYPE_UNBOXED));
        m.stack.top_mut().set(1, Value::Int(640));
        let out = scan_stack(&mut m, None, MarkerPolicy::Disabled, &mut stats);
        assert_eq!(
            out.new_roots
                .iter()
                .filter(|r| matches!(r, RootLoc::Slot { .. }))
                .count(),
            0
        );
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
    /// reference decode: same roots in the same order, same cached
    /// decodes, same charged costs.
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
        assert_eq!(cache_fast.frames.len(), cache_ref.frames.len());
        for (f, r) in cache_fast.frames.iter().zip(cache_ref.frames.iter()) {
            assert_eq!(&*f.ptr_slots, &*r.ptr_slots);
            assert_eq!(f.reg_state_after, r.reg_state_after);
        }
    }

    #[test]
    fn root_read_write_round_trip() {
        let mut m = mutator(3);
        let loc = RootLoc::Slot { depth: 1, slot: 0 };
        assert_eq!(read_root(&m, loc), 101);
        write_root(&mut m, loc, 4242);
        assert_eq!(read_root(&m, loc), 4242);

        m.regs.set(Reg::new(3), Value::Ptr(Addr::new(9)));
        let loc = RootLoc::Reg(3);
        assert_eq!(read_root(&m, loc), 9);
        write_root(&mut m, loc, 11);
        assert_eq!(read_root(&m, loc), 11);
    }
}
