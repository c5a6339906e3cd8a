//! Trace tables: the compiler-emitted metadata that lets the collector
//! decode stack frames (§2.3 of the paper, Figure 1).
//!
//! Every activation record is described by a [`FrameDesc`] registered in
//! the [`TraceTable`]. A frame's *return address* is the key into the
//! table; in this simulation the key is a [`DescId`]. For each stack slot
//! and each register the descriptor records a [`Trace`]:
//!
//! * [`Trace::Pointer`] — statically known pointer, always a root;
//! * [`Trace::NonPointer`] — statically known non-pointer, never a root;
//! * [`Trace::CalleeSave`] — the slot holds the spilled value of a
//!   callee-save register, so its pointerness is whatever that register
//!   held *in the caller*: frames cannot be decoded in isolation, which is
//!   why the paper's stack scan is two-pass;
//! * [`Trace::Compute`] — polymorphic value; the collector must fetch a
//!   runtime type from another location and decide dynamically.

use std::fmt;

use crate::value::{ShadowTag, Value};

/// Number of general-purpose registers in the simulated machine (the Alpha
/// has 32).
pub const NUM_REGS: usize = 32;

/// A general-purpose register index.
///
/// # Example
///
/// ```
/// use tilgc_runtime::Reg;
/// let r = Reg::new(10);
/// assert_eq!(r.to_string(), "$10");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Reg(u8);

impl Reg {
    /// Creates a register index.
    ///
    /// # Panics
    ///
    /// Panics if `index >= NUM_REGS`.
    #[inline]
    pub const fn new(index: u8) -> Reg {
        assert!((index as usize) < NUM_REGS, "register out of range");
        Reg(index)
    }

    /// The register number.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "${}", self.0)
    }
}

/// Where a `Compute` trace finds its runtime type.
///
/// TIL passes types to polymorphic code at runtime (§2.2); the trace table
/// records where the type for a polymorphic value lives — some other slot
/// of the same frame, or a register.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum TypeLoc {
    /// The type descriptor is in slot `n` of the same frame.
    Slot(u16),
    /// The type descriptor is in a register.
    Reg(Reg),
}

/// Interprets a runtime type word: the low bit says whether values of the
/// described type are heap pointers.
///
/// This is the simulation's stand-in for TIL's type analysis — rich enough
/// that the collector genuinely cannot classify a `Compute` slot without
/// fetching and interpreting another value, which is the behaviour (and
/// cost) the paper describes.
#[inline]
pub fn type_word_is_pointer(type_word: u64) -> bool {
    type_word & 1 == 1
}

/// The runtime type word for "boxed" (pointer) values.
pub const TYPE_BOXED: i64 = 1;
/// The runtime type word for "unboxed" (non-pointer) values.
pub const TYPE_UNBOXED: i64 = 0;

/// The trace recorded for one stack slot or register (§2.3 lists exactly
/// these four).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Trace {
    /// Statically known to be a pointer.
    Pointer,
    /// Statically known not to be a pointer.
    NonPointer,
    /// Holds the spilled value of the given callee-save register.
    CalleeSave(Reg),
    /// Pointerness must be computed from a runtime type at `TypeLoc`.
    Compute(TypeLoc),
}

impl Trace {
    /// Whether writing `value` into a location with this trace is
    /// consistent. `Compute` and `CalleeSave` locations accept anything —
    /// their pointerness is context-dependent by design.
    pub fn admits(self, value: Value) -> bool {
        match self {
            Trace::Pointer => value.is_pointer(),
            Trace::NonPointer => !value.is_pointer(),
            Trace::CalleeSave(_) | Trace::Compute(_) => true,
        }
    }
}

/// What a frame's code does to a register by the time the frame is
/// suspended at a call (the register portion of Figure 1's table entry).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum RegEffect {
    /// The frame leaves the caller's value in place (callee-save
    /// discipline). This is the default for unlisted registers.
    #[default]
    Preserve,
    /// The frame leaves a pointer in the register.
    DefPointer,
    /// The frame leaves a non-pointer in the register.
    DefNonPointer,
}

/// Identifier of a registered [`FrameDesc`] — the simulation's "return
/// address", used as the key into the [`TraceTable`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct DescId(u32);

impl DescId {
    /// Index form for dense tables.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for DescId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ret:{:#x}", self.0)
    }
}

/// Static description of one kind of activation record.
///
/// Built with a fluent API and registered once per function/call-site:
///
/// ```
/// use tilgc_runtime::{FrameDesc, Trace, TypeLoc, Reg, TraceTable};
///
/// let mut table = TraceTable::new();
/// let desc = FrameDesc::new("kb::rewrite")
///     .slot(Trace::NonPointer)
///     .slot(Trace::Pointer)
///     .slot(Trace::Pointer)
///     .slot(Trace::NonPointer)              // runtime type for slot 4
///     .slot(Trace::Compute(TypeLoc::Slot(3)))
///     .slot(Trace::CalleeSave(Reg::new(10)))
///     .def_pointer(Reg::new(10));
/// let id = table.register(desc);
/// assert_eq!(table.desc(id).num_slots(), 6);
/// ```
#[derive(Clone, Debug)]
pub struct FrameDesc {
    name: String,
    slots: Vec<Trace>,
    reg_effects: Vec<(Reg, RegEffect)>,
}

impl FrameDesc {
    /// Starts a descriptor for the function/call-site named `name`.
    pub fn new(name: impl Into<String>) -> FrameDesc {
        FrameDesc {
            name: name.into(),
            slots: Vec::new(),
            reg_effects: Vec::new(),
        }
    }

    /// Appends a slot with the given trace.
    #[must_use]
    pub fn slot(mut self, trace: Trace) -> FrameDesc {
        self.slots.push(trace);
        self
    }

    /// Appends `n` slots with the same trace.
    #[must_use]
    pub fn slots(mut self, n: usize, trace: Trace) -> FrameDesc {
        self.slots.extend(std::iter::repeat_n(trace, n));
        self
    }

    /// Declares that this frame leaves a pointer in `reg` while suspended.
    #[must_use]
    pub fn def_pointer(mut self, reg: Reg) -> FrameDesc {
        self.reg_effects.push((reg, RegEffect::DefPointer));
        self
    }

    /// Declares that this frame leaves a non-pointer in `reg` while
    /// suspended.
    #[must_use]
    pub fn def_non_pointer(mut self, reg: Reg) -> FrameDesc {
        self.reg_effects.push((reg, RegEffect::DefNonPointer));
        self
    }

    /// The descriptor's human-readable name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of slots in frames of this shape (the paper's "frame size").
    pub fn num_slots(&self) -> usize {
        self.slots.len()
    }

    /// The trace for slot `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn slot_trace(&self, i: usize) -> Trace {
        self.slots[i]
    }

    /// All slot traces, in slot order.
    pub fn slot_traces(&self) -> &[Trace] {
        &self.slots
    }

    /// The declared register effects (unlisted registers are
    /// [`RegEffect::Preserve`]).
    pub fn reg_effects(&self) -> &[(Reg, RegEffect)] {
        &self.reg_effects
    }

    /// The effect of this frame on register `reg`.
    pub fn reg_effect(&self, reg: Reg) -> RegEffect {
        self.reg_effects
            .iter()
            .rev()
            .find(|(r, _)| *r == reg)
            .map(|&(_, e)| e)
            .unwrap_or(RegEffect::Preserve)
    }
}

/// Slots per block of a [`CompiledTrace`]'s shadow-tag template: frame push
/// copies whole blocks, each a fixed-size store, and then cuts the stack
/// back to the frame's true end.
pub(crate) const TEMPLATE_BLOCK: usize = 8;

/// A [`FrameDesc`]'s layout compiled once at [`TraceTable::register`]
/// time: the one per-descriptor form that frame push, frame pop and the
/// stack scan all read.
///
/// Most frames are *static*: every slot is [`Trace::Pointer`] or
/// [`Trace::NonPointer`], so which slots are roots is known the moment the
/// descriptor is registered. For those frames the scan adds the frame's
/// base to each precompiled pointer-slot offset instead of matching a
/// `Trace` per slot. Frames with [`Trace::CalleeSave`] or
/// [`Trace::Compute`] slots depend on runtime state and keep the two-pass
/// decode; their declared pointer slots are only part of the answer.
#[derive(Clone, Debug)]
pub struct CompiledTrace {
    /// The slots declared [`Trace::Pointer`], ascending.
    ptr_slots: Box<[u32]>,
    /// The registers the frame's effects leave holding a pointer, and
    /// those they leave holding a non-pointer (bit `r` = register `r`):
    /// the declared effects folded in order, so a register named twice
    /// ends with its last effect, as in [`FrameDesc::reg_effect`].
    reg_set: u32,
    reg_clear: u32,
    /// The shadow tags of a freshly pushed frame — `Ptr` for the declared
    /// pointer slots (null pointers: the frame is zeroed), `NonPtr` for
    /// the rest — in blocks of [`TEMPLATE_BLOCK`], the last one padded
    /// with `NonPtr`.
    template: Vec<[ShadowTag; TEMPLATE_BLOCK]>,
    /// `(slot, reg)` for every [`Trace::CalleeSave`] slot: spilled by
    /// frame push, restored by frame pop.
    callee_saves: Vec<(usize, Reg)>,
    num_slots: usize,
    is_static: bool,
}

impl CompiledTrace {
    fn compile(desc: &FrameDesc) -> CompiledTrace {
        let mut ptr_slots = Vec::new();
        let mut template =
            vec![[ShadowTag::NonPtr; TEMPLATE_BLOCK]; desc.slots.len().div_ceil(TEMPLATE_BLOCK)];
        let mut callee_saves = Vec::new();
        for (i, t) in desc.slots.iter().enumerate() {
            match *t {
                Trace::Pointer => {
                    ptr_slots.push(i as u32);
                    template[i / TEMPLATE_BLOCK][i % TEMPLATE_BLOCK] = ShadowTag::Ptr;
                }
                Trace::CalleeSave(reg) => callee_saves.push((i, reg)),
                Trace::NonPointer | Trace::Compute(_) => {}
            }
        }
        let (mut reg_set, mut reg_clear) = (0u32, 0u32);
        for &(reg, effect) in &desc.reg_effects {
            let bit = 1 << reg.index();
            match effect {
                RegEffect::Preserve => {}
                RegEffect::DefPointer => (reg_set, reg_clear) = (reg_set | bit, reg_clear & !bit),
                RegEffect::DefNonPointer => {
                    (reg_set, reg_clear) = (reg_set & !bit, reg_clear | bit)
                }
            }
        }
        CompiledTrace {
            ptr_slots: ptr_slots.into_boxed_slice(),
            reg_set,
            reg_clear,
            template,
            callee_saves,
            num_slots: desc.slots.len(),
            is_static: desc
                .slots
                .iter()
                .all(|t| matches!(t, Trace::Pointer | Trace::NonPointer)),
        }
    }

    /// Whether every slot's pointerness was decided at registration time
    /// (no callee-save or compute slots): the declared pointer slots are
    /// then the frame's whole root set.
    #[inline]
    pub fn is_static(&self) -> bool {
        self.is_static
    }

    /// Number of slots in frames of this shape.
    #[inline]
    pub fn num_slots(&self) -> usize {
        self.num_slots
    }

    /// The slots declared [`Trace::Pointer`], ascending: for a static
    /// frame, its whole root set as offsets from the frame's base.
    #[inline]
    pub fn ptr_slots(&self) -> &[u32] {
        &self.ptr_slots
    }

    /// The frame's register effects as two masks, `(set, clear)`: bit `r`
    /// of `set` means the frame leaves a pointer in register `r`, of
    /// `clear` a non-pointer; a register in neither is preserved. Register
    /// pointerness `s` after the frame is `(s & !clear) | set`.
    #[inline]
    pub fn reg_masks(&self) -> (u32, u32) {
        (self.reg_set, self.reg_clear)
    }

    /// The shadow-tag template frame push copies (see [`TEMPLATE_BLOCK`]).
    #[inline]
    pub(crate) fn template(&self) -> &[[ShadowTag; TEMPLATE_BLOCK]] {
        &self.template
    }

    /// The `(slot, reg)` callee-save spills frame push takes and frame pop
    /// restores.
    #[inline]
    pub(crate) fn callee_saves(&self) -> &[(usize, Reg)] {
        &self.callee_saves
    }
}

/// The table of auxiliary frame information the collector indexes by
/// return address (§2.3).
#[derive(Clone, Debug, Default)]
pub struct TraceTable {
    descs: Vec<FrameDesc>,
    compiled: Vec<CompiledTrace>,
}

impl TraceTable {
    /// Creates an empty table.
    pub fn new() -> TraceTable {
        TraceTable::default()
    }

    /// Registers a frame descriptor, returning its key.
    ///
    /// # Panics
    ///
    /// Panics on descriptors whose `Compute` traces read a slot out of
    /// range or one not traced `NonPointer` (the stack scan may relocate a
    /// pointer slot before it reads the type), or with more slots than a
    /// 16-bit slot index can name — the moral equivalent of a compiler bug.
    pub fn register(&mut self, desc: FrameDesc) -> DescId {
        assert!(
            desc.slots.len() <= 1 << 16,
            "frame {:?} has {} slots; slot indices are 16-bit",
            desc.name,
            desc.slots.len()
        );
        for (i, t) in desc.slots.iter().enumerate() {
            if let Trace::Compute(TypeLoc::Slot(s)) = t {
                assert!(
                    (*s as usize) < desc.slots.len(),
                    "compute trace of slot {i} in {:?} references missing slot {s}",
                    desc.name
                );
                assert_eq!(
                    desc.slots[*s as usize],
                    Trace::NonPointer,
                    "compute trace of slot {i} in {:?} reads its type from slot {s}, not NonPointer",
                    desc.name
                );
            }
        }
        let id = DescId(self.descs.len() as u32);
        self.compiled.push(CompiledTrace::compile(&desc));
        self.descs.push(desc);
        id
    }

    /// Looks up a descriptor (the "table index by return address").
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this table.
    pub fn desc(&self, id: DescId) -> &FrameDesc {
        &self.descs[id.index()]
    }

    /// Looks up a descriptor's compiled layout.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this table.
    pub fn compiled(&self, id: DescId) -> &CompiledTrace {
        &self.compiled[id.index()]
    }

    /// Number of registered descriptors.
    pub fn len(&self) -> usize {
        self.descs.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.descs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The slots a compiled template tags `Ptr`, padding included.
    fn template_ptr_slots(c: &CompiledTrace) -> Vec<usize> {
        let tags = c.template().iter().flatten();
        tags.enumerate()
            .filter_map(|(i, &t)| (t == ShadowTag::Ptr).then_some(i))
            .collect()
    }

    #[test]
    fn builder_accumulates_slots_and_effects() {
        let d = FrameDesc::new("f")
            .slot(Trace::Pointer)
            .slots(3, Trace::NonPointer)
            .def_pointer(Reg::new(4))
            .def_non_pointer(Reg::new(5));
        assert_eq!(d.num_slots(), 4);
        assert_eq!(d.slot_trace(0), Trace::Pointer);
        assert_eq!(d.slot_trace(3), Trace::NonPointer);
        assert_eq!(d.reg_effect(Reg::new(4)), RegEffect::DefPointer);
        assert_eq!(d.reg_effect(Reg::new(5)), RegEffect::DefNonPointer);
        assert_eq!(d.reg_effect(Reg::new(6)), RegEffect::Preserve);
    }

    #[test]
    fn later_reg_effect_wins() {
        let d = FrameDesc::new("f")
            .def_pointer(Reg::new(1))
            .def_non_pointer(Reg::new(1));
        assert_eq!(d.reg_effect(Reg::new(1)), RegEffect::DefNonPointer);
        assert_eq!(CompiledTrace::compile(&d).reg_masks(), (0, 0b10));
        let d = FrameDesc::new("g")
            .def_non_pointer(Reg::new(1))
            .def_pointer(Reg::new(1))
            .def_non_pointer(Reg::new(31));
        assert_eq!(d.reg_effect(Reg::new(1)), RegEffect::DefPointer);
        assert_eq!(CompiledTrace::compile(&d).reg_masks(), (0b10, 1 << 31));
    }

    #[test]
    fn callee_saves_listed_with_slots() {
        let d = FrameDesc::new("f")
            .slot(Trace::NonPointer)
            .slot(Trace::CalleeSave(Reg::new(9)))
            .slot(Trace::CalleeSave(Reg::new(10)));
        let compiled = CompiledTrace::compile(&d);
        assert_eq!(
            compiled.callee_saves(),
            [(1, Reg::new(9)), (2, Reg::new(10))]
        );
    }

    #[test]
    fn table_round_trip() {
        let mut t = TraceTable::new();
        let a = t.register(FrameDesc::new("a"));
        let b = t.register(FrameDesc::new("b").slot(Trace::Pointer));
        assert_ne!(a, b);
        assert_eq!(t.desc(a).name(), "a");
        assert_eq!(t.desc(b).num_slots(), 1);
        assert_eq!(t.len(), 2);
    }

    #[test]
    #[should_panic(expected = "references missing slot")]
    fn bad_compute_reference_panics() {
        let mut t = TraceTable::new();
        t.register(FrameDesc::new("bad").slot(Trace::Compute(TypeLoc::Slot(5))));
    }

    /// A type word in a slot the stack scan may relocate is refused.
    #[test]
    #[should_panic(expected = "reads its type from slot 0, not NonPointer")]
    fn compute_type_in_a_pointer_slot_panics() {
        let mut t = TraceTable::new();
        t.register(
            FrameDesc::new("bad")
                .slot(Trace::Pointer)
                .slot(Trace::Compute(TypeLoc::Slot(0))),
        );
    }

    #[test]
    #[should_panic(expected = "slot indices are 16-bit")]
    fn frame_wider_than_a_slot_index_is_rejected() {
        let mut t = TraceTable::new();
        t.register(FrameDesc::new("wide").slots(70_000, Trace::Pointer));
    }

    #[test]
    fn compiled_bitmap_matches_static_traces() {
        let mut t = TraceTable::new();
        let id = t.register(
            FrameDesc::new("s")
                .slot(Trace::Pointer)
                .slots(70, Trace::NonPointer)
                .slot(Trace::Pointer),
        );
        let c = t.compiled(id);
        assert!(c.is_static());
        assert_eq!(c.num_slots(), 72);
        assert_eq!(c.ptr_slots(), [0, 71]);
        assert_eq!(c.template().len(), 9, "72 slots in blocks of 8");
        assert_eq!(template_ptr_slots(c), [0, 71]);
    }

    #[test]
    fn compiled_dynamic_frames_are_flagged() {
        let mut t = TraceTable::new();
        let cs = t.register(FrameDesc::new("cs").slot(Trace::CalleeSave(Reg::new(3))));
        let cp = t.register(
            FrameDesc::new("cp")
                .slot(Trace::NonPointer)
                .slot(Trace::Compute(TypeLoc::Slot(0))),
        );
        assert!(!t.compiled(cs).is_static());
        assert!(!t.compiled(cp).is_static());
        assert_eq!(t.compiled(cp).num_slots(), 2);
        // The declared pointer slots are tagged for dynamic frames too
        // (frame push nulls them); only the scan may not stop there.
        let mixed = t.register(
            FrameDesc::new("mixed")
                .slot(Trace::CalleeSave(Reg::new(3)))
                .slot(Trace::Pointer),
        );
        assert!(!t.compiled(mixed).is_static());
        assert_eq!(template_ptr_slots(t.compiled(mixed)), [1]);
        assert_eq!(t.compiled(mixed).ptr_slots(), [1]);
    }

    #[test]
    fn compiled_empty_frame_is_static() {
        let mut t = TraceTable::new();
        let id = t.register(FrameDesc::new("leaf"));
        assert!(t.compiled(id).is_static());
        assert_eq!(t.compiled(id).num_slots(), 0);
        assert!(t.compiled(id).ptr_slots().is_empty());
        assert_eq!(t.compiled(id).reg_masks(), (0, 0));
        assert!(t.compiled(id).template().is_empty());
    }

    #[test]
    fn trace_admits() {
        use crate::value::Value;
        use tilgc_mem::Addr;
        assert!(Trace::Pointer.admits(Value::Ptr(Addr::NULL)));
        assert!(!Trace::Pointer.admits(Value::Int(1)));
        assert!(Trace::NonPointer.admits(Value::Real(2.0)));
        assert!(!Trace::NonPointer.admits(Value::Ptr(Addr::new(8))));
        assert!(Trace::Compute(TypeLoc::Slot(0)).admits(Value::Int(1)));
        assert!(Trace::CalleeSave(Reg::new(0)).admits(Value::Ptr(Addr::new(8))));
    }

    #[test]
    fn type_word_interpretation() {
        assert!(type_word_is_pointer(TYPE_BOXED as u64));
        assert!(!type_word_is_pointer(TYPE_UNBOXED as u64));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn reg_out_of_range_panics() {
        let _ = Reg::new(32);
    }
}
