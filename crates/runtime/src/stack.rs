//! The activation-record stack, including the paper's *stack marker*
//! machinery (§5).
//!
//! Frames are pushed and popped by the mutator. At each collection the
//! collector may *mark* every n-th frame by swapping its return address
//! for a stub and recording the original in a side table. When a marked
//! frame later returns normally, the stub fires: the original return
//! address is restored and the side-table entry is removed. Exceptions
//! unwind without returning through stubs, so a watermark `M` tracks the
//! shallowest depth reached by raises.
//!
//! At the next collection the *reusable prefix* — the frames whose scan
//! results from last time are still valid — is bounded by the deepest
//! marker that is still intact and by `M`:
//! frames `0 .. reusable_prefix()` are provably untouched since the last
//! scan. The bound is conservative by up to one marker interval, which is
//! exactly the trade the paper makes ("n is a parameter best chosen to
//! balance the gains of information reuse against the cost of the
//! bookkeeping").

use crate::trace::{CompiledTrace, DescId, TEMPLATE_BLOCK};
use crate::value::{ShadowTag, Value};

/// A borrowed view of one activation record.
///
/// As in the real runtime, frames lie contiguously in one word array
/// (Figure 1). A view names a frame by depth and resolves its slice of
/// that array — raw slot words and the simulation-only shadow tags — only
/// when a slot is read, so asking a frame for its descriptor key (the
/// "return address"), as the stack scan does for every frame, costs one
/// load.
#[derive(Clone, Copy, Debug)]
pub struct Frame<'a> {
    stack: &'a Stack,
    depth: usize,
}

impl Frame<'_> {
    /// The trace-table key for this frame (its "return address").
    #[inline]
    pub fn desc(&self) -> DescId {
        self.stack.frames[self.depth].desc
    }

    /// Number of slots.
    #[inline]
    pub fn num_slots(&self) -> usize {
        self.stack.slots(self.depth).len()
    }

    /// Raw word in slot `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn word(&self, i: usize) -> u64 {
        self.stack.words[self.stack.slots(self.depth)][i]
    }

    /// Shadow tag of slot `i` (testing oracle only).
    #[inline]
    pub fn shadow(&self, i: usize) -> ShadowTag {
        self.stack.shadow[self.stack.slots(self.depth)][i]
    }

    /// Whether this frame currently carries a stack marker.
    #[inline]
    pub fn is_marked(&self) -> bool {
        self.stack.frames[self.depth].marked
    }
}

/// A borrowed, writable view of one activation record's slots.
#[derive(Debug)]
pub struct FrameMut<'a> {
    words: &'a mut [u64],
    shadow: &'a mut [ShadowTag],
}

impl FrameMut<'_> {
    /// Writes a typed value into slot `i`, updating the shadow tag.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn set(&mut self, i: usize, value: Value) {
        self.words[i] = value.to_word();
        self.shadow[i] = ShadowTag::of(value);
    }

    /// Overwrites the raw word in slot `i` without touching the shadow tag
    /// (collector relocation of a pointer).
    #[inline]
    pub fn set_word_raw(&mut self, i: usize, word: u64) {
        self.words[i] = word;
    }

    /// Writes a raw word together with an explicit shadow tag — used for
    /// callee-save spills, which copy both the word and its (unknowable to
    /// the frame itself) pointerness from the register file.
    #[inline]
    pub fn set_word_tagged(&mut self, i: usize, word: u64, tag: ShadowTag) {
        self.words[i] = word;
        self.shadow[i] = tag;
    }
}

/// Counters the stack maintains for Table 2 and the cost model.
#[derive(Clone, Copy, Debug, Default)]
pub struct StackStats {
    /// Total frames pushed over the run.
    pub pushes: u64,
    /// Total frames popped over the run.
    pub pops: u64,
    /// Deepest stack seen (Table 2, "Max Frames in Stack").
    pub max_depth: usize,
    /// Number of stub firings (returns through marked frames).
    pub marker_fires: u64,
    /// Number of markers placed by collections.
    pub markers_placed: u64,
    /// Number of exceptions raised.
    pub raises: u64,
}

/// Where one live frame sits in the word array.
#[derive(Clone, Copy, Debug)]
struct FrameRec {
    desc: DescId,
    /// Index of slot 0; the frame ends where the next one begins.
    base: usize,
    marked: bool,
    /// Whether the frame's layout has callee-save slots, which a return
    /// must restore: a frame without them returns without a layout
    /// lookup.
    spills: bool,
}

/// The activation-record stack with marker bookkeeping.
///
/// # Example
///
/// ```
/// use tilgc_runtime::{Stack, TraceTable, FrameDesc, Trace};
///
/// let mut table = TraceTable::new();
/// let d = table.register(FrameDesc::new("f").slot(Trace::NonPointer));
/// let mut stack = Stack::new();
/// for _ in 0..100 { stack.push(d, 1); }
/// // A collection scans the stack and places markers every 25 frames.
/// stack.place_markers_at((24..100).step_by(25));
/// assert_eq!(stack.reusable_prefix(), 99); // all but the active top frame
/// for _ in 0..30 { stack.pop(); }          // pops fire the markers at depths 99 and 74
/// assert_eq!(stack.reusable_prefix(), 49); // bounded by the intact marker at depth 49
/// ```
#[derive(Clone, Debug, Default)]
pub struct Stack {
    /// Every live frame's slots, oldest first (Figure 1's layout).
    words: Vec<u64>,
    /// Simulation-only shadow tags, parallel to `words`.
    shadow: Vec<ShadowTag>,
    frames: Vec<FrameRec>,
    /// The top frame's base (0 on an empty stack): its slot `i` is word
    /// `top_base + i`, and it ends where the array does, so indexing
    /// `words` is the whole bounds check of a top-frame slot access.
    top_base: usize,
    /// Depths of marked frames, ascending — the side table the stubs
    /// consult.
    marker_table: Vec<usize>,
    /// Shallowest depth reached by exception unwinds since the last scan
    /// (`usize::MAX` if none) — the paper's `M`.
    watermark: usize,
    /// Simulation-only oracle: the true shallowest depth reached by any
    /// means since the last scan. Property tests check that
    /// `reusable_prefix() <= min_depth_since_scan`.
    min_depth_since_scan: usize,
    stats: StackStats,
}

impl Stack {
    /// Creates an empty stack.
    pub fn new() -> Stack {
        Stack {
            watermark: usize::MAX,
            ..Stack::default()
        }
    }

    /// Current depth (number of live frames).
    #[inline]
    pub fn depth(&self) -> usize {
        self.frames.len()
    }

    /// Whether the stack is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Pushes a frame of `num_slots` zeroed slots described by `desc`,
    /// every one tagged `NonPtr`.
    pub fn push(&mut self, desc: DescId, num_slots: usize) {
        let base = self.push_rec(desc, false);
        self.words.resize(base + num_slots, 0);
        self.shadow.resize(base + num_slots, ShadowTag::NonPtr);
    }

    /// Pushes a frame laid out by `layout`, the compiled form of `desc`:
    /// zeroed slots tagged from its template (declared pointer slots
    /// start as null pointers). The callee-save spills are the caller's
    /// to write.
    ///
    /// Whole template blocks are copied — fixed-size stores, one length
    /// update per block, no `memset` — and the stack is then cut back to
    /// the frame's true end.
    #[inline]
    pub fn push_compiled(&mut self, desc: DescId, layout: &CompiledTrace) {
        let base = self.push_rec(desc, !layout.callee_saves().is_empty());
        for block in layout.template() {
            self.words.extend_from_slice(&[0; TEMPLATE_BLOCK]);
            self.shadow.extend_from_slice(block);
        }
        self.words.truncate(base + layout.num_slots());
        self.shadow.truncate(base + layout.num_slots());
    }

    /// Records a new top frame starting at the array's end; returns its
    /// base.
    #[inline]
    fn push_rec(&mut self, desc: DescId, spills: bool) -> usize {
        let base = self.words.len();
        self.frames.push(FrameRec {
            desc,
            base,
            marked: false,
            spills,
        });
        self.top_base = base;
        self.stats.pushes += 1;
        self.stats.max_depth = self.stats.max_depth.max(self.frames.len());
        base
    }

    /// Cuts the word array back to `base`, the end of the frame now on
    /// top, and makes that frame the top.
    #[inline]
    fn truncate_to(&mut self, base: usize) {
        self.words.truncate(base);
        self.shadow.truncate(base);
        self.top_base = self.frames.last().map_or(0, |f| f.base);
    }

    /// Pops the top frame, firing its marker stub if it carries one;
    /// returns whether a stub fired, so the VM can charge the right
    /// simulated cost.
    ///
    /// # Panics
    ///
    /// Panics if the stack is empty.
    #[inline]
    pub fn pop(&mut self) -> bool {
        let frame = self.frames.pop().expect("pop on empty stack");
        self.truncate_to(frame.base);
        let depth = self.frames.len();
        self.stats.pops += 1;
        self.min_depth_since_scan = self.min_depth_since_scan.min(depth);
        if frame.marked {
            self.fire_marker(depth);
        }
        frame.marked
    }

    /// The stub of the marked frame that was at `depth` runs: it notes
    /// the deactivation (removes the table entry) and control continues
    /// at the recorded original return address.
    #[inline(never)]
    fn fire_marker(&mut self, depth: usize) {
        let entry = self.marker_table.binary_search(&depth);
        self.marker_table
            .remove(entry.expect("marked frame without table entry"));
        self.stats.marker_fires += 1;
    }

    /// Unwinds to `target_depth` because of a raised exception: frames are
    /// discarded *without* returning through their stubs, and the
    /// watermark `M` is updated instead.
    ///
    /// # Panics
    ///
    /// Panics if `target_depth` exceeds the current depth.
    pub fn unwind_for_raise(&mut self, target_depth: usize) {
        assert!(
            target_depth <= self.depth(),
            "unwind target beyond stack top"
        );
        let popped = self.depth() - target_depth;
        let cut = self.frames.get(target_depth);
        let base = cut.map_or(self.words.len(), |f| f.base);
        self.frames.truncate(target_depth);
        self.truncate_to(base);
        self.stats.pops += popped as u64;
        self.stats.raises += 1;
        self.watermark = self.watermark.min(target_depth);
        self.min_depth_since_scan = self.min_depth_since_scan.min(target_depth);
        // Stale marker-table entries above the cut are removed lazily at
        // the next scan; the watermark makes them harmless meanwhile.
    }

    /// Where frame `depth`'s slots lie in the word array: from its base to
    /// the next frame's (read, not re-derived from a descriptor).
    #[inline]
    fn slots(&self, depth: usize) -> std::ops::Range<usize> {
        let next = self.frames.get(depth + 1);
        self.frames[depth].base..next.map_or(self.words.len(), |f| f.base)
    }

    /// Index of frame `depth`'s slot 0 in the word array: slot `i` of the
    /// frame is word `frame_base(depth) + i`. A frame's base changes only
    /// when the frame itself is popped, so the stack scan names roots by
    /// word index, and a frame that was never popped keeps them.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is out of range.
    #[inline]
    pub fn frame_base(&self, depth: usize) -> usize {
        self.frames[depth].base
    }

    /// A stack scan's view: each frame's `(descriptor key, base)` from
    /// `depth` up, beside the word array it relocates roots in and the tags.
    ///
    /// # Panics
    ///
    /// Panics if `depth` exceeds the current depth.
    #[inline]
    pub fn scan_view(
        &mut self,
        depth: usize,
    ) -> (
        impl Iterator<Item = (DescId, usize)> + '_,
        &mut [u64],
        &[ShadowTag],
    ) {
        let frames = self.frames[depth..].iter().map(|f| (f.desc, f.base));
        (frames, &mut self.words, &self.shadow)
    }

    /// Number of words in the word array: every live frame's slots.
    #[inline]
    pub fn num_words(&self) -> usize {
        self.words.len()
    }

    /// The whole word array (see [`frame_base`](Self::frame_base)),
    /// writable, shadow tags untouched: the collector relocates roots
    /// through it by word index.
    #[inline]
    pub fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }

    /// The raw word at index `i` of the word array (see
    /// [`frame_base`](Self::frame_base)).
    ///
    /// # Panics
    ///
    /// Panics if `i` is past the top frame's last slot.
    #[inline]
    pub fn word(&self, i: usize) -> u64 {
        self.words[i]
    }

    /// The frame at `depth` (0 = oldest).
    ///
    /// # Panics
    ///
    /// Panics if `depth` is out of range.
    #[inline]
    pub fn frame(&self, depth: usize) -> Frame<'_> {
        assert!(depth < self.depth(), "frame {depth} out of range");
        Frame { stack: self, depth }
    }

    /// Mutable access to the frame at `depth`.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is out of range.
    #[inline]
    pub fn frame_mut(&mut self, depth: usize) -> FrameMut<'_> {
        let slots = self.slots(depth);
        FrameMut {
            words: &mut self.words[slots.clone()],
            shadow: &mut self.shadow[slots],
        }
    }

    /// The top (most recent) frame.
    ///
    /// # Panics
    ///
    /// Panics if the stack is empty.
    #[inline]
    pub fn top(&self) -> Frame<'_> {
        self.frame(self.depth().checked_sub(1).expect("top of empty stack"))
    }

    /// Mutable access to the top frame.
    ///
    /// # Panics
    ///
    /// Panics if the stack is empty.
    #[inline]
    pub fn top_mut(&mut self) -> FrameMut<'_> {
        self.frame_mut(self.depth().checked_sub(1).expect("top of empty stack"))
    }

    /// Whether the top frame holds callee-save spills to restore on
    /// return (`false` on an empty stack).
    #[inline]
    pub(crate) fn top_spills(&self) -> bool {
        self.frames.last().is_some_and(|f| f.spills)
    }

    /// Raw word in slot `i` of the top frame.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not a slot of the top frame (or the stack is
    /// empty).
    #[inline]
    pub fn top_word(&self, i: usize) -> u64 {
        self.words[self.top_base + i]
    }

    /// Shadow tag of slot `i` of the top frame (testing oracle only).
    ///
    /// # Panics
    ///
    /// As [`top_word`](Self::top_word).
    #[inline]
    pub fn top_shadow(&self, i: usize) -> ShadowTag {
        self.shadow[self.top_base + i]
    }

    /// Writes a typed value into slot `i` of the top frame, updating the
    /// shadow tag.
    ///
    /// # Panics
    ///
    /// As [`top_word`](Self::top_word).
    #[inline]
    pub fn set_top(&mut self, i: usize, value: Value) {
        self.set_top_tagged(i, value.to_word(), ShadowTag::of(value));
    }

    /// Writes a raw word with an explicit shadow tag into slot `i` of the
    /// top frame (a callee-save spill).
    ///
    /// # Panics
    ///
    /// As [`top_word`](Self::top_word).
    #[inline]
    pub(crate) fn set_top_tagged(&mut self, i: usize, word: u64, tag: ShadowTag) {
        let j = self.top_base + i;
        self.words[j] = word;
        self.shadow[j] = tag;
    }

    /// Number of leading frames that are provably unchanged since the last
    /// scan: the collector may reuse their cached scan results.
    ///
    /// Computed as the paper prescribes: the shallower of the exception
    /// watermark `M` and the deepest *intact* marker (a fired or stale
    /// marker proves nothing). An intact marker at depth `m` proves the
    /// stack never unwound past frame `m` — but frame `m` itself may have
    /// been the *top* frame (actively written) without being popped, so
    /// only frames `0 .. m` are reusable. Likewise a raise that unwound to
    /// depth `t` made frame `t − 1` the active frame, so `M = t` proves
    /// only `0 .. t − 1`.
    pub fn reusable_prefix(&self) -> usize {
        // Entries at depth ≥ M are stale: an exception jumped past them
        // without firing their stubs.
        let intact_bound = self.watermark.min(self.depth());
        let intact = self.marker_table.partition_point(|&d| d < intact_bound);
        let Some(&deepest_intact) = self.marker_table[..intact].last() else {
            return 0;
        };
        deepest_intact.min(self.watermark.saturating_sub(1))
    }

    /// Simulation-only oracle: the true unchanged prefix length. The frame
    /// at the minimum depth reached was the active frame at that moment,
    /// so it does not count as unchanged.
    pub fn true_unchanged_prefix(&self) -> usize {
        self.min_depth_since_scan
            .min(self.depth())
            .saturating_sub(1)
    }

    /// Called by the collector after a full or partial scan: removes stale
    /// marker entries, resets the watermark and the oracle, and marks the
    /// frames at the given depths — the caller's placement policy decides
    /// which (§7.1 notes "a more dynamic policy of marker placement may
    /// achieve better performance with fewer markers"). Depths beyond the
    /// stack are ignored; an empty list still resets the bookkeeping.
    /// Returns the number of markers placed (each placement has a
    /// bookkeeping cost).
    pub fn place_markers_at(&mut self, depths: impl IntoIterator<Item = usize>) -> usize {
        // Lazy cleanup: an entry is stale if its frame is gone or was
        // replaced by a new (unmarked) frame after an exception unwind.
        let depth = self.depth();
        let frames = &mut self.frames;
        self.marker_table.retain(|&d| d < depth && frames[d].marked);
        self.watermark = usize::MAX;
        self.min_depth_since_scan = depth;
        let mut placed = 0;
        for d in depths {
            if d < depth && !frames[d].marked {
                self.marker_table.push(d);
                frames[d].marked = true;
                placed += 1;
            }
        }
        if placed > 0 {
            self.marker_table.sort_unstable();
        }
        self.stats.markers_placed += placed as u64;
        placed
    }

    /// The current exception watermark `M` (`usize::MAX` when no raise has
    /// happened since the last scan).
    #[inline]
    pub fn watermark(&self) -> usize {
        self.watermark
    }

    /// Number of intact marker-table entries.
    pub fn live_markers(&self) -> usize {
        self.marker_table.len()
    }

    /// Cumulative stack statistics.
    #[inline]
    pub fn stats(&self) -> &StackStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{FrameDesc, TraceTable};

    fn desc() -> DescId {
        let mut t = TraceTable::new();
        t.register(FrameDesc::new("t"))
    }

    /// Every `n`-th of `depth` frames — what tilgc-core's
    /// `MarkerPolicy::EveryN` hands to `place_markers_at`.
    fn every(n: usize, depth: usize) -> impl Iterator<Item = usize> {
        (n - 1..depth).step_by(n)
    }

    fn stack_of(n: usize) -> Stack {
        let d = desc();
        let mut s = Stack::new();
        for _ in 0..n {
            s.push(d, 2);
        }
        s
    }

    #[test]
    fn push_pop_lifo() {
        let mut s = stack_of(3);
        assert_eq!(s.depth(), 3);
        s.top_mut().set(0, Value::Int(9));
        assert_eq!(s.top().word(0), 9);
        assert!(!s.pop(), "no marker to fire");
        assert_eq!(s.depth(), 2);
        assert_eq!(s.stats().max_depth, 3);
    }

    #[test]
    fn a_slot_is_its_frame_base_plus_its_index() {
        let mut s = stack_of(3);
        s.frame_mut(1).set(1, Value::Int(5));
        assert_eq!(s.frame_base(1), 2);
        assert_eq!(s.word(s.frame_base(1) + 1), 5);
        let top = s.frame_base(2);
        s.words_mut()[top] = 8;
        assert_eq!(s.top().word(0), 8);
        assert_eq!(
            s.top().shadow(0),
            ShadowTag::NonPtr,
            "raw writes keep the tag"
        );
        assert_eq!(s.num_words(), 6);
        let d = s.frame(0).desc();
        let (frames, words, shadow) = s.scan_view(1);
        assert_eq!(frames.collect::<Vec<_>>(), [(d, 2), (d, 4)]);
        assert_eq!((words.len(), shadow.len()), (6, 6));
        assert_eq!(s.scan_view(3).0.count(), 0);
    }

    #[test]
    fn fresh_stack_has_no_reusable_prefix() {
        let s = stack_of(100);
        assert_eq!(
            s.reusable_prefix(),
            0,
            "nothing scanned yet, nothing to reuse"
        );
    }

    #[test]
    fn markers_every_interval() {
        let mut s = stack_of(100);
        let placed = s.place_markers_at(every(25, s.depth()));
        assert_eq!(placed, 4); // depths 24, 49, 74, 99
        assert!(s.frame(24).is_marked() && s.frame(99).is_marked());
        assert!(!s.frame(25).is_marked());
        assert_eq!(s.reusable_prefix(), 99);
    }

    #[test]
    fn interval_zero_disables_markers() {
        let mut s = stack_of(100);
        assert_eq!(s.place_markers_at([]), 0);
        assert_eq!(s.reusable_prefix(), 0);
        // But the oracle still resets.
        assert_eq!(s.true_unchanged_prefix(), 99);
    }

    #[test]
    fn firing_markers_shrinks_the_prefix_conservatively() {
        let mut s = stack_of(100);
        s.place_markers_at(every(25, s.depth()));
        for _ in 0..26 {
            s.pop(); // pops 99..74, firing markers at 99 and 74
        }
        assert_eq!(s.stats().marker_fires, 2);
        assert_eq!(s.depth(), 74);
        // Deepest intact marker is 49; frames 49..73 are actually intact
        // but unprovable — the conservative price of interval 25.
        assert_eq!(s.reusable_prefix(), 49);
        assert_eq!(s.true_unchanged_prefix(), 73);
    }

    #[test]
    fn regrowth_after_pops_is_not_reused() {
        let d = desc();
        let mut s = stack_of(100);
        s.place_markers_at(every(25, s.depth()));
        for _ in 0..60 {
            s.pop(); // down to depth 40, firing markers 99, 74, 49
        }
        for _ in 0..60 {
            s.push(d, 2); // regrow to 100 with *new* frames
        }
        assert_eq!(
            s.reusable_prefix(),
            24,
            "only frames under the intact marker at 24"
        );
        assert!(s.reusable_prefix() <= s.true_unchanged_prefix());
    }

    #[test]
    fn exception_unwind_uses_watermark_not_stubs() {
        let d = desc();
        let mut s = stack_of(100);
        s.place_markers_at(every(25, s.depth()));
        s.unwind_for_raise(30); // jumps past markers at 99, 74, 49 silently
        assert_eq!(s.stats().marker_fires, 0);
        assert_eq!(s.watermark(), 30);
        for _ in 0..70 {
            s.push(d, 2);
        }
        // Markers at 49, 74, 99 are stale (their frames are new and
        // unmarked); M = 30 caps reuse, and the deepest intact marker
        // below 30 is 24.
        assert_eq!(s.reusable_prefix(), 24);
        assert!(s.reusable_prefix() <= s.true_unchanged_prefix());
    }

    #[test]
    fn rescan_cleans_stale_entries_and_resets_watermark() {
        let d = desc();
        let mut s = stack_of(100);
        s.place_markers_at(every(25, s.depth()));
        s.unwind_for_raise(10);
        for _ in 0..40 {
            s.push(d, 2);
        }
        s.place_markers_at(every(25, s.depth()));
        assert_eq!(s.watermark(), usize::MAX);
        assert_eq!(s.reusable_prefix(), 49); // depth 50, markers at 24 and 49 intact
        assert_eq!(s.live_markers(), 2);
    }

    #[test]
    fn remarking_does_not_duplicate() {
        let mut s = stack_of(50);
        assert_eq!(s.place_markers_at(every(25, s.depth())), 2);
        assert_eq!(
            s.place_markers_at(every(25, s.depth())),
            0,
            "existing markers are kept, not re-placed"
        );
    }

    #[test]
    fn explicit_marker_placement() {
        let mut s = stack_of(50);
        // Depths beyond the stack are ignored; duplicates collapse.
        let placed = s.place_markers_at([3, 10, 10, 49, 120]);
        assert_eq!(placed, 3);
        assert!(s.frame(3).is_marked() && s.frame(10).is_marked() && s.frame(49).is_marked());
        assert_eq!(s.live_markers(), 3);
        assert_eq!(s.reusable_prefix(), 49);
        // Re-placing over existing markers is free.
        assert_eq!(s.place_markers_at([3, 10]), 0);
    }

    #[test]
    #[should_panic(expected = "pop on empty stack")]
    fn pop_empty_panics() {
        Stack::new().pop();
    }

    #[test]
    fn unwind_to_current_depth_is_noop_on_frames() {
        let mut s = stack_of(5);
        s.unwind_for_raise(5);
        assert_eq!(s.depth(), 5);
        assert_eq!(s.watermark(), 5);
    }
}
