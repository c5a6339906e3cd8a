//! An op-level driver for the [`Vm`]: a small closed instruction set
//! whose every instruction is well-formed by construction, so arbitrary
//! op sequences (random, replayed, or minimized) can be executed against
//! any collector without violating the rooting discipline.
//!
//! The driver is the execution substrate of the differential torture
//! harness in `tilgc-torture`: the *same* [`VmOp`] sequence is stepped in
//! lockstep against every plan, and because each op's observable effect
//! depends only on plan-invariant state (stack depth, header shape,
//! null-ness of slots — never raw addresses), any cross-plan divergence
//! in the reachable graph is a collector bug, not driver nondeterminism.
//!
//! Coverage by design:
//!
//! * allocations of all three object kinds across [`REC_SITES`] +
//!   [`ARR_SITES`] + [`RAW_SITES`] distinct sites (including a
//!   pointer-free record site, the §7.2 no-scan candidate);
//! * barriered pointer stores and loads into records and pointer arrays;
//! * calls/returns deep enough ([`MAX_DEPTH`] frames, batch pushes) to
//!   cross the paper's every-25th-frame stack markers;
//! * exception handlers and raises that drive the watermark `M` below
//!   intact markers;
//! * register churn through two pinned pointer registers, one of which is
//!   spilled via a `CalleeSave` trace so scans must thread register
//!   pointerness through frame effects.

use tilgc_mem::{Addr, ObjectKind, SiteId};

use crate::trace::{DescId, FrameDesc, Reg, Trace};
use crate::value::Value;
use crate::vm::{HeapOverflow, RaiseOutcome, Vm, VmExit};

/// What executing one [`VmOp`] did, when the guest program survived it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepOutcome {
    /// The op completed normally.
    Ran,
    /// An allocation in the op overflowed the heap, and an installed
    /// handler caught the resulting raise: the stack is unwound to the
    /// handler and the driver's bookkeeping follows, exactly as for
    /// [`VmOp::Raise`]. The destination slot of the failed allocation is
    /// left untouched.
    OomCaught,
}

/// Pointer slots per driver frame.
pub const PTR_SLOTS: usize = 6;
/// Record allocation sites the driver registers.
pub const REC_SITES: usize = 6;
/// Pointer-array allocation sites the driver registers.
pub const ARR_SITES: usize = 3;
/// Raw-array allocation sites the driver registers.
pub const RAW_SITES: usize = 3;
/// Index (within the record sites) of the pointer-free record site.
pub const PTR_FREE_REC_INDEX: usize = REC_SITES - 1;
/// Maximum stack depth the driver grows to — several marker intervals.
pub const MAX_DEPTH: usize = 200;
/// Maximum live handlers: a [`VmOp::PushHandler`] beyond it is a no-op.
pub const MAX_HANDLERS: usize = 16;

/// The two registers the driver pins as pointer-holding: the base frame
/// declares `DefPointer` for both, every other frame preserves them.
const REG_A: Reg = Reg::new(2);
const REG_B: Reg = Reg::new(3);

/// One driver instruction. All operands are `u8` selectors reduced
/// modulo the relevant bound at execution time, so every sequence of
/// `VmOp`s is executable — the property the trace minimizer relies on
/// (any subsequence of a valid program is a valid program).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VmOp {
    /// Allocate a record at record site `site % REC_SITES` (pointer
    /// fields seeded from slots, arity varies by site) into slot `dst`.
    AllocRecord {
        /// Record-site selector.
        site: u8,
        /// Destination slot selector.
        dst: u8,
        /// Slot selector for the first pointer field.
        src_a: u8,
        /// Slot selector for the second pointer field.
        src_b: u8,
        /// Integer payload.
        tag: i8,
    },
    /// Allocate a pointer array of `1 + len % 6` elements, initialized
    /// from slot `init`, into slot `dst`.
    AllocPtrArray {
        /// Array-site selector.
        site: u8,
        /// Destination slot selector.
        dst: u8,
        /// Initializer slot selector.
        init: u8,
        /// Length selector.
        len: u8,
    },
    /// Allocate a raw byte array of `1 + len % 96` bytes (stamping its
    /// last byte) into slot `dst`.
    AllocRawArray {
        /// Raw-site selector.
        site: u8,
        /// Destination slot selector.
        dst: u8,
        /// Length selector.
        len: u8,
    },
    /// Barriered pointer store into a pointer field of the object in
    /// slot `obj` (skipped if the slot is null or the object has no
    /// pointer fields).
    StorePtr {
        /// Slot selector for the target object.
        obj: u8,
        /// Field selector.
        field: u8,
        /// Slot selector for the stored value.
        val: u8,
    },
    /// Integer store into a non-pointer field (byte store for raw
    /// arrays; skipped for objects with no non-pointer fields).
    StoreInt {
        /// Slot selector for the target object.
        obj: u8,
        /// Field selector.
        field: u8,
        /// Stored value.
        val: i8,
    },
    /// Load a pointer field back into slot `dst`.
    LoadPtr {
        /// Slot selector for the source object.
        obj: u8,
        /// Field selector.
        field: u8,
        /// Destination slot selector.
        dst: u8,
    },
    /// Copy the pointer in slot `src` into pinned register A or B.
    RegSet {
        /// Register selector (even = A, odd = B).
        reg: u8,
        /// Source slot selector.
        src: u8,
    },
    /// Copy a pinned register's pointer into slot `dst`.
    RegGet {
        /// Register selector (even = A, odd = B).
        reg: u8,
        /// Destination slot selector.
        dst: u8,
    },
    /// Push one frame; `kind` selects the plain or spill layout.
    Push {
        /// Frame-layout selector (even = plain, odd = spill).
        kind: u8,
    },
    /// Push `1 + n % 24` frames — enough to cross a marker interval.
    PushMany {
        /// Frame-layout selector.
        kind: u8,
        /// Count selector.
        n: u8,
    },
    /// Pop one frame (never the base frame).
    Pop,
    /// Pop `1 + n % 24` frames (stopping at the base frame).
    PopMany {
        /// Count selector.
        n: u8,
    },
    /// Install an exception handler anchored at the current frame.
    PushHandler,
    /// Raise an exception (no-op when no handler is installed).
    Raise,
    /// Force a collection (minor for generational plans).
    Gc,
    /// Force a major collection.
    GcMajor,
}

/// The driver: owns the frame descriptors, site ids and host-side
/// handler bookkeeping for one [`Vm`], and executes [`VmOp`]s against it.
#[derive(Debug)]
pub struct OpDriver {
    plain: DescId,
    spill: DescId,
    rec_sites: Vec<SiteId>,
    arr_sites: Vec<SiteId>,
    raw_sites: Vec<SiteId>,
    /// Frame-layout kind per stack depth (`true` = spill layout).
    frame_spill: Vec<bool>,
    /// Anchor depths of live handlers, innermost last.
    handlers: Vec<usize>,
}

/// Site ids the driver's record sites will get on a fresh VM, in index
/// order. The registry hands out ids sequentially from 1, and
/// [`OpDriver::install`] registers record sites first — an assertion
/// there keeps this function honest.
pub fn rec_site_id(index: usize) -> SiteId {
    assert!(index < REC_SITES);
    SiteId::new((1 + index) as u16)
}

/// Site id of the driver's `index`-th pointer-array site on a fresh VM.
pub fn arr_site_id(index: usize) -> SiteId {
    assert!(index < ARR_SITES);
    SiteId::new((1 + REC_SITES + index) as u16)
}

/// Site id of the driver's `index`-th raw-array site on a fresh VM.
pub fn raw_site_id(index: usize) -> SiteId {
    assert!(index < RAW_SITES);
    SiteId::new((1 + REC_SITES + ARR_SITES + index) as u16)
}

impl OpDriver {
    /// Registers the driver's frame descriptors and allocation sites on
    /// `vm`, pushes the base frame and seeds the pinned registers.
    ///
    /// Must be the first registration activity on the VM: the
    /// `rec_site_id`/`arr_site_id`/`raw_site_id` helpers (used to build
    /// pretenuring policies before the VM exists) assume the driver's
    /// sites get the first registry ids.
    ///
    /// # Panics
    ///
    /// Panics if sites or frames were registered on `vm` before the
    /// driver, breaking the deterministic site-id layout.
    pub fn install(vm: &mut Vm) -> OpDriver {
        let base = vm.register_frame(
            FrameDesc::new("torture::base")
                .slots(PTR_SLOTS, Trace::Pointer)
                .slots(2, Trace::NonPointer)
                .def_pointer(REG_A)
                .def_pointer(REG_B),
        );
        let plain = vm.register_frame(
            FrameDesc::new("torture::plain")
                .slots(PTR_SLOTS, Trace::Pointer)
                .slots(2, Trace::NonPointer),
        );
        let spill = vm.register_frame(
            FrameDesc::new("torture::spill")
                .slot(Trace::CalleeSave(REG_A))
                .slots(PTR_SLOTS, Trace::Pointer)
                .slot(Trace::NonPointer),
        );
        let rec_sites: Vec<SiteId> = (0..REC_SITES)
            .map(|i| vm.site(&format!("torture::rec{i}")))
            .collect();
        let arr_sites: Vec<SiteId> = (0..ARR_SITES)
            .map(|i| vm.site(&format!("torture::arr{i}")))
            .collect();
        let raw_sites: Vec<SiteId> = (0..RAW_SITES)
            .map(|i| vm.site(&format!("torture::raw{i}")))
            .collect();
        for (i, &s) in rec_sites.iter().enumerate() {
            assert_eq!(s, rec_site_id(i), "driver sites must register first");
        }
        for (i, &s) in arr_sites.iter().enumerate() {
            assert_eq!(s, arr_site_id(i), "driver sites must register first");
        }
        for (i, &s) in raw_sites.iter().enumerate() {
            assert_eq!(s, raw_site_id(i), "driver sites must register first");
        }
        // The pinned registers are declared DefPointer by the base frame,
        // so their shadows must be pointer-tagged before the first scan.
        vm.set_reg(REG_A, Value::NULL);
        vm.set_reg(REG_B, Value::NULL);
        vm.push_frame(base);
        OpDriver {
            plain,
            spill,
            rec_sites,
            arr_sites,
            raw_sites,
            frame_spill: vec![false],
            handlers: Vec::new(),
        }
    }

    /// Pointer-slot index for selector `sel` in the current top frame
    /// (the spill layout shifts pointer slots up by one).
    fn ptr_slot(&self, sel: u8) -> usize {
        let base = usize::from(*self.frame_spill.last().expect("base frame"));
        base + (sel as usize) % PTR_SLOTS
    }

    fn reg(sel: u8) -> Reg {
        if sel % 2 == 0 {
            REG_A
        } else {
            REG_B
        }
    }

    fn push_one(&mut self, vm: &mut Vm, kind: u8) {
        if vm.depth() >= MAX_DEPTH {
            return;
        }
        let spill = kind % 2 == 1;
        vm.push_frame(if spill { self.spill } else { self.plain });
        self.frame_spill.push(spill);
    }

    fn pop_one(&mut self, vm: &mut Vm) {
        if vm.depth() <= 1 {
            return;
        }
        // Handlers anchored at the departing frame leave scope with it.
        while self.handlers.last() == Some(&vm.depth()) {
            vm.pop_handler();
            self.handlers.pop();
        }
        vm.pop_frame();
        self.frame_spill.pop();
    }

    /// Absorbs a [`HeapOverflow`] from an allocation op: a caught raise
    /// unwinds driver bookkeeping exactly like [`VmOp::Raise`]; an
    /// uncaught one ends the guest program cleanly.
    fn on_overflow(&mut self, overflow: HeapOverflow) -> Result<StepOutcome, VmExit> {
        match overflow.outcome {
            RaiseOutcome::Caught { handler_depth } => {
                self.handlers.pop();
                self.frame_spill.truncate(handler_depth);
                Ok(StepOutcome::OomCaught)
            }
            RaiseOutcome::Uncaught => Err(VmExit::OutOfMemory(overflow.error)),
        }
    }

    /// Executes one op against `vm`.
    ///
    /// # Errors
    ///
    /// Returns [`VmExit::OutOfMemory`] when an allocation overflows the
    /// heap with no guest handler installed — the clean, panic-free end
    /// of the simulated program.
    pub fn step(&mut self, vm: &mut Vm, op: VmOp) -> Result<StepOutcome, VmExit> {
        match op {
            VmOp::AllocRecord {
                site,
                dst,
                src_a,
                src_b,
                tag,
            } => {
                let k = (site as usize) % REC_SITES;
                let site = self.rec_sites[k];
                let rec = if k == PTR_FREE_REC_INDEX {
                    vm.alloc_record(site, &[Value::Int(i64::from(tag)), Value::Int(42)])
                } else {
                    let a = vm.slot_ptr(self.ptr_slot(src_a));
                    let b = vm.slot_ptr(self.ptr_slot(src_b));
                    let mut fields = vec![Value::Ptr(a), Value::Ptr(b), Value::Int(i64::from(tag))];
                    for extra in 0..k % 3 {
                        fields.push(Value::Int(extra as i64));
                    }
                    vm.alloc_record(site, &fields)
                };
                match rec {
                    Ok(rec) => vm.set_slot(self.ptr_slot(dst), Value::Ptr(rec)),
                    Err(overflow) => return self.on_overflow(overflow),
                }
            }
            VmOp::AllocPtrArray {
                site,
                dst,
                init,
                len,
            } => {
                let site = self.arr_sites[(site as usize) % ARR_SITES];
                let init = vm.slot_ptr(self.ptr_slot(init));
                match vm.alloc_ptr_array(site, 1 + (len as usize) % 6, init) {
                    Ok(arr) => vm.set_slot(self.ptr_slot(dst), Value::Ptr(arr)),
                    Err(overflow) => return self.on_overflow(overflow),
                }
            }
            VmOp::AllocRawArray { site, dst, len } => {
                let site = self.raw_sites[(site as usize) % RAW_SITES];
                let len = 1 + (len as usize) % 96;
                match vm.alloc_raw_array(site, len) {
                    Ok(raw) => {
                        vm.store_byte(raw, len - 1, 0xc3);
                        vm.set_slot(self.ptr_slot(dst), Value::Ptr(raw));
                    }
                    Err(overflow) => return self.on_overflow(overflow),
                }
            }
            VmOp::StorePtr { obj, field, val } => {
                let target = vm.slot_ptr(self.ptr_slot(obj));
                if target.is_null() {
                    return Ok(StepOutcome::Ran);
                }
                let Some(field) = ptr_field_of(vm, target, field) else {
                    return Ok(StepOutcome::Ran);
                };
                let val = vm.slot_ptr(self.ptr_slot(val));
                vm.store_ptr(target, field, val);
            }
            VmOp::StoreInt { obj, field, val } => {
                let target = vm.slot_ptr(self.ptr_slot(obj));
                if target.is_null() {
                    return Ok(StepOutcome::Ran);
                }
                let h = vm.header(target);
                if h.kind() == ObjectKind::RawArray {
                    vm.store_byte(target, (field as usize) % h.len(), val as u8);
                } else if let Some(field) = int_field_of(vm, target, field) {
                    vm.store_int(target, field, i64::from(val));
                }
            }
            VmOp::LoadPtr { obj, field, dst } => {
                let target = vm.slot_ptr(self.ptr_slot(obj));
                if target.is_null() {
                    return Ok(StepOutcome::Ran);
                }
                let Some(field) = ptr_field_of(vm, target, field) else {
                    return Ok(StepOutcome::Ran);
                };
                let v = vm.load_ptr(target, field);
                vm.set_slot(self.ptr_slot(dst), Value::Ptr(v));
            }
            VmOp::RegSet { reg, src } => {
                let p = vm.slot_ptr(self.ptr_slot(src));
                vm.set_reg(Self::reg(reg), Value::Ptr(p));
            }
            VmOp::RegGet { reg, dst } => {
                let p = vm.reg_ptr(Self::reg(reg));
                vm.set_slot(self.ptr_slot(dst), Value::Ptr(p));
            }
            VmOp::Push { kind } => self.push_one(vm, kind),
            VmOp::PushMany { kind, n } => {
                for _ in 0..1 + n % 24 {
                    self.push_one(vm, kind);
                }
            }
            VmOp::Pop => self.pop_one(vm),
            VmOp::PopMany { n } => {
                for _ in 0..1 + n % 24 {
                    self.pop_one(vm);
                }
            }
            VmOp::PushHandler => {
                if self.handlers.len() < MAX_HANDLERS {
                    vm.push_handler();
                    self.handlers.push(vm.depth());
                }
            }
            VmOp::Raise => {
                if let RaiseOutcome::Caught { handler_depth } = vm.raise() {
                    self.handlers.pop();
                    // The raise unwound frames without pop_frame calls;
                    // drop our layout record of the discarded frames.
                    self.frame_spill.truncate(handler_depth);
                }
            }
            VmOp::Gc => vm.gc_now(),
            VmOp::GcMajor => vm.gc_major(),
        }
        Ok(StepOutcome::Ran)
    }
}

/// First pointer field at or cyclically after selector `sel`, if any.
fn ptr_field_of(vm: &Vm, obj: Addr, sel: u8) -> Option<usize> {
    let h = vm.header(obj);
    if h.kind() == ObjectKind::RawArray || h.is_empty() {
        return None;
    }
    let len = h.len();
    (0..len)
        .map(|i| ((sel as usize) + i) % len)
        .find(|&f| h.field_is_pointer(f))
}

/// First non-pointer field at or cyclically after selector `sel`
/// (records and pointer arrays only), if any.
fn int_field_of(vm: &Vm, obj: Addr, sel: u8) -> Option<usize> {
    let h = vm.header(obj);
    if h.is_empty() {
        return None;
    }
    let len = h.len();
    (0..len)
        .map(|i| ((sel as usize) + i) % len)
        .find(|&f| !h.field_is_pointer(f))
}
