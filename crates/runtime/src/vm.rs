//! The `Vm` facade: the API benchmark programs are written against.
//!
//! A `Vm` owns a [`MutatorState`] and the simulated [`Memory`], and
//! couples them with a [`Collector`]. Programs allocate through it, keep
//! their live pointers in *frame slots* (never in host-language locals
//! across an allocation — any allocation may move objects), and mirror
//! their call structure as pushed/popped frames so the collector sees a
//! realistic activation-record stack.
//!
//! # What is an instruction and what is a call
//!
//! The paper's mutator (§2.1) reads and writes the heap with ordinary
//! loads and stores, appends to the store list inline, and meets the
//! collector only at an allocation miss or a collection. So here: the
//! heap accessors (`header`, `load_*`, `store_*` — [`Vm::store_ptr`] is
//! the whole write barrier) and the slot and register accessors are
//! `#[inline]` and touch the `Vm`'s own memory and mutator state — a
//! program's `vm.load_int(l, 0)` compiles to a charge, a bounds check
//! and a load, and `vm.slot_int(i)` to a load at the top frame's cached
//! base plus `i`, the stack array's bound being the slot bound. What a
//! call site does not need stays out of line: the checked-mode halves of
//! `set_slot` / `slot_ptr` / `reg_ptr`, the debug access check, and
//! `push_frame` / `pop_frame`. A push writes zeroed words and the
//! frame's compiled shadow-tag template in fixed-size blocks; a pop reads
//! the layout only when the frame has callee-save spills to restore; both
//! measured faster as calls. The collector is behind three out-of-line
//! entries only: the allocation door, `gc_now` / `gc_major`, and
//! `finish`, each of which hands it the memory.
//!
//! # The rooting discipline
//!
//! Because every collector here is a *moving* collector, an [`Addr`] held
//! outside the VM goes stale at the next collection. The contract is the
//! one real compiled code obeys:
//!
//! * values that must survive an allocation live in frame slots (or
//!   registers) declared by the frame's [`FrameDesc`];
//! * an `Addr` read out of a slot may be used only up to the next
//!   allocation; afterwards re-read it from the slot.
//!
//! Allocation operands are safe by construction: they are staged in an
//! internal buffer that the collector treats as roots, the way argument
//! registers would be. An allocation that fits the window the collector
//! lent (see [`MutatorState::lend_window`]) cannot trigger a collection
//! and is written straight from its operands; the rest enter
//! [`Collector::alloc`].
//!
//! Violations do not go quietly: vacated spaces are poisoned in debug
//! builds, every heap accessor of a debug build first checks that its
//! address is a live object's and its index inside the payload
//! ([`Vm::check_field`] — the panic names the stale `Addr`), and the
//! heap verifier in `tilgc-core` rejects dangling addresses.

use std::fmt;

use tilgc_mem::{object, Addr, GcError, Header, Memory, SiteId, MAX_RECORD_FIELDS, POISON};

use crate::collector::{AllocShape, CollectReason, Collector};
use crate::mutator::MutatorState;
use crate::profile_data::HeapProfile;
use crate::stats::{GcStats, MutatorStats};
use crate::trace::{DescId, FrameDesc, Reg};
use crate::value::{ShadowTag, Value};

/// Result of [`Vm::raise`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RaiseOutcome {
    /// The exception was caught; the stack has been unwound to
    /// `handler_depth` frames and control belongs to the handler.
    Caught {
        /// Stack depth after unwinding.
        handler_depth: usize,
    },
    /// No handler was installed; the stack is untouched.
    Uncaught,
}

/// The guest-visible face of an out-of-memory condition.
///
/// When a collector's escalation ladder gives up, the VM raises through
/// the ordinary exception machinery — exactly as SML's `Overflow` would
/// surface — and returns this from the allocation entry point. `outcome`
/// tells the caller whether a handler caught the raise (the guest resumes
/// at the handler, the stack already unwound) or not (the program is dead;
/// terminate with [`VmExit::OutOfMemory`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HeapOverflow {
    /// The typed verdict from the collector.
    pub error: GcError,
    /// What the raise through the handler chain did.
    pub outcome: RaiseOutcome,
}

impl fmt::Display for HeapOverflow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.outcome {
            RaiseOutcome::Caught { handler_depth } => write!(
                f,
                "heap overflow caught at depth {handler_depth}: {}",
                self.error
            ),
            RaiseOutcome::Uncaught => write!(f, "uncaught heap overflow: {}", self.error),
        }
    }
}

impl std::error::Error for HeapOverflow {}

/// A clean, panic-free reason for ending a guest program's run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum VmExit {
    /// The heap budget was exhausted and no guest handler was installed.
    OutOfMemory(GcError),
}

impl fmt::Display for VmExit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmExit::OutOfMemory(e) => write!(f, "guest terminated: {e}"),
        }
    }
}

impl std::error::Error for VmExit {}

/// A running TIL-style virtual machine: mutator state and the simulated
/// memory, plus a collector over that memory.
///
/// # Example
///
/// ```no_run
/// use tilgc_runtime::{Vm, FrameDesc, Trace, Value};
///
/// # fn collector() -> (Box<dyn tilgc_runtime::Collector>, tilgc_mem::Memory) { unimplemented!() }
/// let (collector, mem) = collector();
/// let mut vm = Vm::new(collector, mem);
/// let site = vm.site("example::pair");
/// let d = vm.register_frame(FrameDesc::new("example").slot(Trace::Pointer));
/// vm.push_frame(d);
/// let pair = vm.alloc_record(site, &[Value::Int(1), Value::Int(2)]).unwrap();
/// vm.set_slot(0, Value::Ptr(pair));
/// vm.pop_frame();
/// ```
pub struct Vm {
    m: MutatorState,
    mem: Memory,
    gc: Box<dyn Collector>,
}

impl std::fmt::Debug for Vm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Vm")
            .field("collector", &self.gc.name())
            .field("depth", &self.m.stack.depth())
            .finish()
    }
}

impl Vm {
    /// Creates a VM over the given collector and the memory it reserved
    /// its spaces in, with default mutator state.
    pub fn new(collector: Box<dyn Collector>, mem: Memory) -> Vm {
        Vm::with_mutator(MutatorState::new(), collector, mem)
    }

    /// Creates a VM with custom mutator state (barrier choice, cost
    /// model, raise bookkeeping, ...).
    pub fn with_mutator(mutator: MutatorState, collector: Box<dyn Collector>, mem: Memory) -> Vm {
        Vm {
            m: mutator,
            mem,
            gc: collector,
        }
    }

    // ----- introspection ---------------------------------------------------

    /// The mutator state (stack, registers, statistics, ...).
    pub fn mutator(&self) -> &MutatorState {
        &self.m
    }

    /// Mutable access to the mutator state.
    pub fn mutator_mut(&mut self) -> &mut MutatorState {
        &mut self.m
    }

    /// The collector.
    pub fn collector(&self) -> &dyn Collector {
        &*self.gc
    }

    /// The simulated memory (read-only).
    pub fn mem(&self) -> &Memory {
        &self.mem
    }

    /// Collector statistics.
    pub fn gc_stats(&self) -> &GcStats {
        self.gc.gc_stats()
    }

    /// Mutator statistics.
    pub fn mutator_stats(&self) -> &MutatorStats {
        &self.m.stats
    }

    /// Current stack depth.
    pub fn depth(&self) -> usize {
        self.m.stack.depth()
    }

    // ----- registration ----------------------------------------------------

    /// Registers (or looks up) an allocation site by name.
    pub fn site(&mut self, name: &str) -> SiteId {
        self.m.sites.register(name)
    }

    /// Registers a frame descriptor.
    pub fn register_frame(&mut self, desc: FrameDesc) -> DescId {
        self.m.traces.register(desc)
    }

    // ----- frames ------------------------------------------------------------

    /// Pushes an activation record described by `desc`, spilling its
    /// callee-save registers into the declared slots. Slots declared
    /// [`Trace::Pointer`](crate::Trace::Pointer) start as null pointers
    /// (the frame is zeroed, and the layout says they are pointer slots).
    pub fn push_frame(&mut self, desc: DescId) {
        let compiled = self.m.traces.compiled(desc);
        self.m.stack.push_compiled(desc, compiled);
        for &(slot, reg) in compiled.callee_saves() {
            let (word, tag) = (self.m.regs.word(reg), self.m.regs.shadow(reg));
            self.m.stack.set_top_tagged(slot, word, tag);
        }
        self.m.charge(self.m.cost.frame_push);
    }

    /// Pops the top activation record, restoring its callee-save
    /// registers from the spill slots.
    ///
    /// # Panics
    ///
    /// Panics if the stack is empty.
    pub fn pop_frame(&mut self) {
        if self.m.stack.top_spills() {
            self.restore_spills();
        }
        let mut cost = self.m.cost.frame_pop;
        if self.m.stack.pop() {
            cost += self.m.cost.marker_fire;
        }
        self.m.charge(cost);
    }

    /// The top frame's callee-save slots back into their registers: the
    /// part of a return only frames with spills pay for, with the layout
    /// lookup it needs.
    fn restore_spills(&mut self) {
        let stack = &self.m.stack;
        let desc = stack.top().desc();
        for &(slot, reg) in self.m.traces.compiled(desc).callee_saves() {
            self.m
                .regs
                .set_word_tagged(reg, stack.top_word(slot), stack.top_shadow(slot));
        }
    }

    /// Writes a typed value into slot `i` of the top frame.
    ///
    /// # Panics
    ///
    /// Panics (when shadow checking is on) if the slot's declared trace
    /// does not admit the value — e.g. storing a pointer into a
    /// `NonPointer` slot, which in the real system would hide a root from
    /// the collector.
    #[inline]
    pub fn set_slot(&mut self, i: usize, value: Value) {
        if self.m.check_shadows {
            self.check_slot_admits(i, value);
        }
        self.m.stack.set_top(i, value);
    }

    /// Checked mode's half of [`set_slot`](Vm::set_slot), out of line so
    /// a call site carries the store only.
    #[inline(never)]
    fn check_slot_admits(&self, i: usize, value: Value) {
        let trace = self.m.traces.desc(self.m.stack.top().desc()).slot_trace(i);
        assert!(
            trace.admits(value),
            "slot {i} with trace {trace:?} cannot hold {value:?}"
        );
    }

    /// Raw word in slot `i` of the top frame.
    #[inline]
    pub fn slot_word(&self, i: usize) -> u64 {
        self.m.stack.top_word(i)
    }

    /// Pointer in slot `i` of the top frame.
    ///
    /// # Panics
    ///
    /// Panics in checked mode if the slot does not currently hold a
    /// pointer.
    #[inline]
    pub fn slot_ptr(&self, i: usize) -> Addr {
        if self.m.check_shadows {
            self.check_slot_holds_ptr(i);
        }
        Addr::new(self.m.stack.top_word(i) as u32)
    }

    /// Checked mode's half of [`slot_ptr`](Vm::slot_ptr), out of line.
    #[inline(never)]
    fn check_slot_holds_ptr(&self, i: usize) {
        assert_eq!(
            self.m.stack.top_shadow(i),
            ShadowTag::Ptr,
            "slot {i} read as pointer but holds a non-pointer"
        );
    }

    /// Integer in slot `i` of the top frame.
    #[inline]
    pub fn slot_int(&self, i: usize) -> i64 {
        self.m.stack.top_word(i) as i64
    }

    /// Writes a typed value into a register.
    #[inline]
    pub fn set_reg(&mut self, reg: Reg, value: Value) {
        self.m.regs.set(reg, value);
    }

    /// Pointer in register `reg`.
    ///
    /// # Panics
    ///
    /// Panics in checked mode if the register holds a non-pointer.
    #[inline]
    pub fn reg_ptr(&self, reg: Reg) -> Addr {
        if self.m.check_shadows {
            self.check_reg_holds_ptr(reg);
        }
        Addr::new(self.m.regs.word(reg) as u32)
    }

    /// Checked mode's half of [`reg_ptr`](Vm::reg_ptr), out of line.
    #[inline(never)]
    fn check_reg_holds_ptr(&self, reg: Reg) {
        assert_eq!(
            self.m.regs.shadow(reg),
            ShadowTag::Ptr,
            "register {reg} is not a pointer"
        );
    }

    /// Integer in register `reg`.
    #[inline]
    pub fn reg_int(&self, reg: Reg) -> i64 {
        self.m.regs.word(reg) as i64
    }

    // ----- allocation --------------------------------------------------------

    /// Allocates a record; the pointer mask is derived from the field
    /// values.
    ///
    /// # Errors
    ///
    /// Returns [`HeapOverflow`] if the heap budget is exhausted even
    /// after the collector's full escalation ladder; the raise through
    /// the guest handler chain has already happened (see
    /// [`HeapOverflow::outcome`]).
    ///
    /// # Panics
    ///
    /// Panics if more than [`MAX_RECORD_FIELDS`] fields are given.
    //
    // Inlined into the program, as the paper's allocation sequence is
    // (§2.1): with the field list a literal at the call site, the mask,
    // the header and the per-field stores below are constants and
    // straight-line code (12 → 4.5 ns per 3-field record on the
    // `stack-markers` loop). `door` stays out of line, so a call site
    // carries the hit path only.
    #[inline(always)]
    pub fn alloc_record(&mut self, site: SiteId, fields: &[Value]) -> Result<Addr, HeapOverflow> {
        assert!(
            fields.len() <= MAX_RECORD_FIELDS,
            "record of {} fields",
            fields.len()
        );
        let mut mask = 0u32;
        self.m.alloc_buf.clear();
        self.m
            .alloc_buf
            .extend(fields.iter().enumerate().map(|(i, v)| {
                mask |= u32::from(v.is_pointer()) << i;
                v.to_word()
            }));
        self.m.alloc_buf_ptr_mask = u64::from(mask);
        let shape = AllocShape::Record {
            site,
            len: fields.len(),
            mask,
        };
        self.m.stats.record_bytes += shape.size_bytes() as u64;
        self.alloc(shape, fields)
    }

    /// Allocates a pointer array filled with `init`.
    ///
    /// # Errors
    ///
    /// Returns [`HeapOverflow`] on budget exhaustion, as
    /// [`alloc_record`](Vm::alloc_record) does.
    pub fn alloc_ptr_array(
        &mut self,
        site: SiteId,
        len: usize,
        init: Addr,
    ) -> Result<Addr, HeapOverflow> {
        self.m.alloc_buf.clear();
        self.m.alloc_buf.push(u64::from(init.raw()));
        self.m.alloc_buf_ptr_mask = 1;
        let shape = AllocShape::PtrArray { site, len };
        self.m.stats.ptr_array_bytes += shape.size_bytes() as u64;
        self.alloc(shape, &[Value::Ptr(init)])
    }

    /// Allocates a zero-filled raw array of `len_bytes` bytes.
    ///
    /// # Errors
    ///
    /// Returns [`HeapOverflow`] on budget exhaustion, as
    /// [`alloc_record`](Vm::alloc_record) does.
    pub fn alloc_raw_array(
        &mut self,
        site: SiteId,
        len_bytes: usize,
    ) -> Result<Addr, HeapOverflow> {
        self.m.alloc_buf.clear();
        self.m.alloc_buf_ptr_mask = 0;
        let shape = AllocShape::RawArray { site, len_bytes };
        self.m.stats.raw_array_bytes += shape.size_bytes() as u64;
        self.alloc(shape, &[])
    }

    /// The allocation sequence (§2.1): charge it, count it, and — when
    /// the request fits the window the collector lent — bump, store the
    /// header (site included) and the fields, done. Anything else goes through the
    /// door. The caller has staged `operands` in the alloc buffer, where
    /// they are roots for the collection a door entry may run and, as
    /// the last allocation's argument registers, for any forced
    /// collection before the next allocation; a hit stores the object
    /// straight from `operands` (nothing can move in between).
    //
    // Forced inline: each entry point then knows its shape's variant,
    // and the size, the array test and the writer's `match` fold away.
    #[inline(always)]
    fn alloc(&mut self, shape: AllocShape, operands: &[Value]) -> Result<Addr, HeapOverflow> {
        let words = shape.size_words();
        let bytes = shape.size_bytes() as u64;
        let cost = self.m.cost.alloc_base + self.m.cost.alloc_per_word * words as u64;
        self.m.charge(cost);
        self.m.stats.alloc_bytes += bytes;
        self.m.stats.alloc_objects += 1;
        let is_array = !matches!(shape, AllocShape::Record { .. });
        let result = match self.m.bump(shape.site(), words, is_array) {
            Some(addr) => {
                shape.write(&mut self.mem, addr, operands);
                Ok(addr)
            }
            None => self.door(shape),
        };
        // Allocation is a GC-possible point: the collector may run
        // behind the door, reading its time-to-safepoint as the client
        // cycles since the previous poll; the poll after it starts the
        // next interval. Observational only — no cycles charged.
        self.m.poll_safepoint();
        result
    }

    /// A window miss: the collector places the staged request itself,
    /// collecting first if it must; a typed refusal is raised through
    /// the handler chain as an SML-style heap overflow.
    #[inline(never)]
    fn door(&mut self, shape: AllocShape) -> Result<Addr, HeapOverflow> {
        self.gc
            .alloc(&mut self.mem, &mut self.m, shape)
            .map_err(|error| {
                let outcome = self.raise();
                HeapOverflow { error, outcome }
            })
    }

    // ----- heap access ---------------------------------------------------------
    //
    // Instructions of the program, not calls into the runtime: `#[inline]`
    // so that they cross the crate boundary into the program's loops, and
    // over `self.mem` so that nothing is dispatched. Only the debug
    // check's panicking half stays out of line.

    /// Header of the object at `obj`.
    #[inline]
    pub fn header(&self, obj: Addr) -> Header {
        object::header(&self.mem, obj)
    }

    /// Panics unless `obj` is the address of a live object — its header
    /// is neither a forwarding pointer nor [`POISON`], the two things a
    /// collection leaves where an object used to be — and `i` indexes a
    /// word of its payload. The check every word accessor (`load_ptr`,
    /// `load_int`, `load_f64` and their stores) runs first in a debug
    /// build; a release build compiles the call out, so it is public for
    /// tests and embedders that want it regardless.
    ///
    /// Without it an index one past the end passes the pointerness
    /// assertions below ([`Header::field_is_pointer`] answers for any
    /// index) and reads or overwrites the next object's header.
    #[track_caller]
    pub fn check_field(&self, obj: Addr, i: usize) {
        let header = self.live_header(obj);
        assert!(
            i < header.payload_words(),
            "field {i} is out of range of {obj}: {header:?}"
        );
    }

    /// [`check_field`](Vm::check_field) for the byte accessors: `i`
    /// indexes a byte of the object's payload.
    #[track_caller]
    pub fn check_byte(&self, obj: Addr, i: usize) {
        let header = self.live_header(obj);
        assert!(
            i < header.len(),
            "byte {i} is out of range of {obj}: {header:?}"
        );
    }

    /// The header at `obj`, which must be a live object's.
    #[track_caller]
    fn live_header(&self, obj: Addr) -> Header {
        let header = self.header(obj);
        assert!(
            header.raw() != POISON,
            "stale address {obj}: it points into a vacated (poisoned) space"
        );
        assert!(
            !header.is_forward(),
            "stale address {obj}: the object moved, leaving {header:?}"
        );
        header
    }

    /// Loads pointer field `i` of `obj`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the header says field `i` is not a
    /// pointer, or on a [`check_field`](Vm::check_field) violation.
    #[inline]
    pub fn load_ptr(&mut self, obj: Addr, i: usize) -> Addr {
        if cfg!(debug_assertions) {
            self.check_field(obj, i);
        }
        debug_assert!(
            self.header(obj).field_is_pointer(i),
            "load_ptr of non-pointer field {i} of {obj}"
        );
        self.m.charge(self.m.cost.heap_access);
        object::ptr_field(&self.mem, obj, i)
    }

    /// Loads integer field `i` of `obj`.
    #[inline]
    pub fn load_int(&mut self, obj: Addr, i: usize) -> i64 {
        if cfg!(debug_assertions) {
            self.check_field(obj, i);
        }
        debug_assert!(
            !self.header(obj).field_is_pointer(i),
            "load_int of pointer field {i} of {obj}"
        );
        self.m.charge(self.m.cost.heap_access);
        object::field(&self.mem, obj, i) as i64
    }

    /// Loads double element `i` of a raw array, or an unboxed float field
    /// of a record (TIL does not always box floats, §2.2).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the field is a pointer field.
    #[inline]
    pub fn load_f64(&mut self, obj: Addr, i: usize) -> f64 {
        if cfg!(debug_assertions) {
            self.check_field(obj, i);
        }
        debug_assert!(
            !self.header(obj).field_is_pointer(i),
            "load_f64 of pointer field {i} of {obj}"
        );
        self.m.charge(self.m.cost.heap_access);
        object::f64_elem(&self.mem, obj, i)
    }

    /// Loads byte `i` of a raw array.
    #[inline]
    pub fn load_byte(&mut self, obj: Addr, i: usize) -> u8 {
        if cfg!(debug_assertions) {
            self.check_byte(obj, i);
        }
        self.m.charge(self.m.cost.heap_access);
        object::byte(&self.mem, obj, i)
    }

    /// Stores a pointer into field `i` of `obj`, recording the update in
    /// the write barrier (§2.1's "pointer updates"). The barrier is all
    /// here, inline as the paper's is: dirty test-and-set or store-buffer
    /// push, count, charge, store.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the header says field `i` is not a
    /// pointer field, or on a [`check_field`](Vm::check_field) violation.
    #[inline]
    pub fn store_ptr(&mut self, obj: Addr, i: usize, value: Addr) {
        if cfg!(debug_assertions) {
            self.check_field(obj, i);
        }
        debug_assert!(
            self.header(obj).field_is_pointer(i),
            "store_ptr into non-pointer field {i} of {obj}"
        );
        let record = if self.m.barrier.dedups_objects() {
            // Object-marking barrier: the side dirty bitmap deduplicates
            // repeated updates to the same object. One branch-free
            // test-and-set (load, OR, store, bit-test) replaces the old
            // header read-modify-write with its taken/not-taken branch.
            !self.mem.dirty_test_and_set(obj)
        } else {
            true
        };
        if record {
            self.m.barrier.record(obj, object::field_addr(obj, i));
        }
        self.m.stats.pointer_updates += 1;
        self.m
            .charge(self.m.cost.heap_access + self.m.cost.barrier_record);
        object::set_field(&mut self.mem, obj, i, u64::from(value.raw()));
    }

    /// Stores an integer into field `i` of `obj` (no barrier needed, as
    /// the paper notes).
    #[inline]
    pub fn store_int(&mut self, obj: Addr, i: usize, value: i64) {
        if cfg!(debug_assertions) {
            self.check_field(obj, i);
        }
        debug_assert!(
            !self.header(obj).field_is_pointer(i),
            "store_int into pointer field {i} of {obj}"
        );
        self.m.charge(self.m.cost.heap_access);
        object::set_field(&mut self.mem, obj, i, value as u64);
    }

    /// Stores a double into element `i` of a raw array or an unboxed
    /// float field of a record (no barrier — floats are not pointers).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the field is a pointer field.
    #[inline]
    pub fn store_f64(&mut self, obj: Addr, i: usize, value: f64) {
        if cfg!(debug_assertions) {
            self.check_field(obj, i);
        }
        debug_assert!(
            !self.header(obj).field_is_pointer(i),
            "store_f64 into pointer field {i} of {obj}"
        );
        self.m.charge(self.m.cost.heap_access);
        object::set_f64_elem(&mut self.mem, obj, i, value);
    }

    /// Stores a byte into a raw array.
    #[inline]
    pub fn store_byte(&mut self, obj: Addr, i: usize, value: u8) {
        if cfg!(debug_assertions) {
            self.check_byte(obj, i);
        }
        self.m.charge(self.m.cost.heap_access);
        object::set_byte(&mut self.mem, obj, i, value);
    }

    // ----- exceptions ---------------------------------------------------------

    /// Installs an exception handler anchored at the current frame.
    pub fn push_handler(&mut self) {
        let depth = self.m.stack.depth();
        self.m.handlers.push(depth);
    }

    /// Removes the innermost handler on normal exit from its scope.
    ///
    /// # Panics
    ///
    /// Panics if no handler is installed.
    pub fn pop_handler(&mut self) {
        self.m.handlers.pop();
    }

    /// Raises an exception: unwinds to the innermost live handler,
    /// lowering the stack watermark `M` to it (§5's first scheme). A
    /// handler anchored above the current depth is dead — its installing
    /// frame returned, which leaves the `handle` scope — and is discarded.
    pub fn raise(&mut self) -> RaiseOutcome {
        let depth = self.m.stack.depth();
        while self.m.handlers.innermost_depth().is_some_and(|h| h > depth) {
            self.m.handlers.pop();
        }
        let Some(target) = self.m.handlers.raise() else {
            return RaiseOutcome::Uncaught;
        };
        self.m.stack.unwind_for_raise(target);
        self.m
            .charge(self.m.cost.raise_base + self.m.cost.raise_watermark);
        RaiseOutcome::Caught {
            handler_depth: target,
        }
    }

    // ----- collection control ---------------------------------------------------

    /// Forces a collection.
    pub fn gc_now(&mut self) {
        self.gc
            .collect(&mut self.mem, &mut self.m, CollectReason::Forced);
        self.m.poll_safepoint();
    }

    /// Forces a major collection (for generational collectors).
    pub fn gc_major(&mut self) {
        self.gc
            .collect(&mut self.mem, &mut self.m, CollectReason::ForcedMajor);
        self.m.poll_safepoint();
    }

    /// Ends the run: final collector bookkeeping.
    pub fn finish(&mut self) {
        self.gc.finish(&mut self.mem, &mut self.m);
    }

    /// Extracts the heap profile, finished, if the collector gathered one.
    pub fn take_profile(&mut self) -> Option<HeapProfile> {
        self.gc.take_profile()
    }

    // ----- telemetry -------------------------------------------------------------

    /// Installs a telemetry recorder; collectors emit per-collection
    /// events through it. The default is the disabled
    /// [`NullRecorder`](tilgc_obs::NullRecorder), under which no events
    /// are produced and no simulated cycles are charged.
    pub fn set_recorder(&mut self, recorder: Box<dyn tilgc_obs::Recorder>) {
        self.m.recorder = recorder;
    }

    /// The installed telemetry recorder (e.g. to drain a
    /// [`RingRecorder`](tilgc_obs::RingRecorder) after a run).
    pub fn recorder_mut(&mut self) -> &mut dyn tilgc_obs::Recorder {
        &mut *self.m.recorder
    }
}
