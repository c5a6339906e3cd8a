//! The deep-stack op stream (`stack-rescan`, `stack-markers`).
//!
//! A stack of [`DEPTH`] frames (4 pointer + 2 non-pointer slots each)
//! stays deep while its top churns: every round pops and re-pushes
//! 1–[`MAX_HOP`] frames, then makes [`ALLOCS_PER_ROUND`] short-lived
//! allocations in the top frame. Every [`RAISE_EVERY`]-th round raises
//! to a handler [`HANDLER_DROP`] frames down and regrows the stack.
//! Without markers every minor collection decodes the whole stack; with
//! them nearly all of it is reused — the paper's Table 5, in host time.
//!
//! Each frame keeps two cells alive: slot 0 inherits the cell the frame
//! below held in slot 1 when this frame was pushed, slot 1 holds the
//! newest cell allocated while the frame was on top. Blocks are
//! same-kind: frame pushes/pops, allocations, and the raise.

use tilgc_mem::Addr;
use tilgc_runtime::{DescId, FrameDesc, RaiseOutcome, Trace, Value, Vm};

use crate::rng::{mix, Rng};
use crate::trace::{OpKind, Tracer};

/// Steady-state stack depth.
pub const DEPTH: usize = 4000;
/// Frames between the handler's anchor and the steady-state top.
pub const HANDLER_DROP: usize = 500;
/// Most frames popped and re-pushed in one round.
pub const MAX_HOP: u64 = 40;
/// Short-lived allocations per round.
pub const ALLOCS_PER_ROUND: usize = 200;
/// A raise happens on every round whose index is a multiple of this.
pub const RAISE_EVERY: usize = 64;

/// How much work one stream holds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StackSize {
    /// Steady-state depth ([`DEPTH`] in the benchmark, less in tests).
    pub depth: usize,
    /// Rounds in the stream.
    pub rounds: usize,
    /// Times a pass runs the stream (4 for `stack-markers`).
    pub repeat: usize,
}

/// A generated deep-stack op stream.
#[derive(Clone, Debug)]
pub struct StackStream {
    size: StackSize,
    tag: u64,
    /// Frames popped and re-pushed, per round.
    hops: Vec<u8>,
}

fn cell_aux(id: u64) -> i64 {
    mix(id, 0xce11) as i64
}

impl StackStream {
    /// Generates the stream for `seed`.
    pub fn generate(seed: u64, size: StackSize) -> StackStream {
        assert!(
            HANDLER_DROP.min(size.depth / 2) > MAX_HOP as usize,
            "a round must never pop down to the handler's anchor"
        );
        let mut rng = Rng::new(seed, 1);
        let hops = (0..size.rounds)
            .map(|_| 1 + rng.below(MAX_HOP) as u8)
            .collect();
        StackStream {
            size,
            tag: mix(seed, 0x57ac),
            hops,
        }
    }

    /// A hash of everything the generator produced.
    pub fn hash(&self) -> u64 {
        let mut h = mix(self.tag, (self.size.depth * 31 + self.size.repeat) as u64);
        for &k in &self.hops {
            h = mix(h, u64::from(k));
        }
        h
    }

    fn handler_depth(&self) -> usize {
        self.size.depth - HANDLER_DROP.min(self.size.depth / 2)
    }

    /// Pushes frames up to `depth`; each inherits the cell below.
    fn grow(vm: &mut Vm, desc: DescId, depth: usize) -> u64 {
        let mut calls = 0;
        while vm.depth() < depth {
            let inherited = vm.slot_ptr(1);
            vm.push_frame(desc);
            vm.set_slot(0, Value::Ptr(inherited));
            vm.set_slot(4, Value::Int(vm.depth() as i64));
            calls += 1;
        }
        calls
    }

    /// Runs one pass of the stream on `vm` and returns the checksum of
    /// the final stack.
    pub fn run<T: Tracer>(&self, vm: &mut Vm, t: &mut T) -> u64 {
        let site = vm.site("deepstack::cell");
        let desc = vm.register_frame(
            FrameDesc::new("deepstack::frame")
                .slots(4, Trace::Pointer)
                .slots(2, Trace::NonPointer),
        );
        let depth = self.size.depth;
        let anchor = self.handler_depth();
        vm.push_frame(desc);

        t.enter(vm);
        let mut calls = StackStream::grow(vm, desc, anchor);
        vm.push_handler();
        calls += StackStream::grow(vm, desc, depth);
        t.exit(vm, OpKind::Frames, calls);

        let mut next_id = 0u64;
        for _ in 0..self.size.repeat {
            for (round, &hop) in self.hops.iter().enumerate() {
                for _ in 0..hop {
                    vm.pop_frame();
                }
                let pushed = StackStream::grow(vm, desc, depth);
                t.exit(vm, OpKind::Frames, u64::from(hop) + pushed);

                for _ in 0..ALLOCS_PER_ROUND {
                    let id = self.tag.wrapping_add(next_id);
                    next_id += 1;
                    let older = vm.slot_ptr(0);
                    let cell = vm
                        .alloc_record(
                            site,
                            &[
                                Value::Int(id as i64),
                                Value::Ptr(older),
                                Value::Int(cell_aux(id)),
                            ],
                        )
                        .expect("heap budget sized to the workload");
                    vm.set_slot(1, Value::Ptr(cell));
                }
                vm.set_slot(5, Value::Int(round as i64));
                t.exit(vm, OpKind::Alloc, ALLOCS_PER_ROUND as u64);

                if round % RAISE_EVERY == RAISE_EVERY - 1 {
                    let outcome = vm.raise();
                    assert_eq!(
                        outcome,
                        RaiseOutcome::Caught {
                            handler_depth: anchor
                        }
                    );
                    vm.push_handler();
                    t.exit(vm, OpKind::Raise, 1);

                    let pushed = StackStream::grow(vm, desc, depth);
                    t.exit(vm, OpKind::Frames, pushed);
                }
            }
        }

        let mut h = 0u64;
        let mut calls = 0u64;
        while vm.depth() > 0 {
            for slot in 0..2 {
                let cell: Addr = vm.slot_ptr(slot);
                if cell.is_null() {
                    h = mix(h, 1);
                } else {
                    h = mix(h, vm.load_int(cell, 0) as u64);
                    h = mix(h, vm.load_int(cell, 2) as u64);
                    let older = vm.load_ptr(cell, 1);
                    h = mix(
                        h,
                        if older.is_null() {
                            1
                        } else {
                            vm.load_int(older, 0) as u64
                        },
                    );
                    calls += 4;
                }
            }
            h = mix(h, vm.slot_int(4) as u64);
            h = mix(h, vm.slot_int(5) as u64);
            vm.pop_frame();
            calls += 1;
        }
        t.exit(vm, OpKind::Verify, calls);
        h
    }

    /// Replays the stream on a plain vector of frames and returns the
    /// checksum [`run`](StackStream::run) must produce.
    pub fn model(&self) -> u64 {
        /// A cell: its id and the id of the older cell it points at.
        type Cell = Option<(u64, Option<u64>)>;
        #[derive(Clone, Copy, Default)]
        struct Frame {
            inherited: Cell,
            newest: Cell,
            depth: i64,
            round: i64,
        }
        fn grow(stack: &mut Vec<Frame>, depth: usize) {
            while stack.len() < depth {
                let inherited = stack.last().expect("base frame").newest;
                stack.push(Frame {
                    inherited,
                    depth: stack.len() as i64 + 1,
                    ..Frame::default()
                });
            }
        }
        let depth = self.size.depth;
        let anchor = self.handler_depth();
        let mut stack = vec![Frame::default()];
        grow(&mut stack, depth);
        let mut next_id = 0u64;
        for _ in 0..self.size.repeat {
            for (round, &hop) in self.hops.iter().enumerate() {
                stack.truncate(stack.len() - hop as usize);
                grow(&mut stack, depth);
                let top = stack.last_mut().expect("deep stack");
                for _ in 0..ALLOCS_PER_ROUND {
                    let id = self.tag.wrapping_add(next_id);
                    next_id += 1;
                    top.newest = Some((id, top.inherited.map(|c| c.0)));
                }
                top.round = round as i64;
                if round % RAISE_EVERY == RAISE_EVERY - 1 {
                    stack.truncate(anchor);
                    grow(&mut stack, depth);
                }
            }
        }
        let mut h = 0u64;
        for frame in stack.iter().rev() {
            for cell in [frame.inherited, frame.newest] {
                match cell {
                    None => h = mix(h, 1),
                    Some((id, older)) => {
                        h = mix(h, id);
                        h = mix(h, cell_aux(id) as u64);
                        h = mix(h, older.unwrap_or(1));
                    }
                }
            }
            h = mix(h, frame.depth as u64);
            h = mix(h, frame.round as u64);
        }
        h
    }
}
