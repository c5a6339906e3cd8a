//! The write-barrier op stream (`barrier-storm`).
//!
//! A tenured table of [`ROWS`] × [`COLS`] slots receives a storm of
//! pointer stores of young cells: each unit allocates [`CELLS`] 2-field
//! cells (parked in frame slots) and stores each into [`FANOUT`] table
//! slots. Units alternate between *spread* (targets uniform over the
//! table: writes) and *hot* (targets drawn from [`HOT_SLOTS`] slots
//! picked by the seed: rewrites of the same few fields), so a barrier
//! change that helps one and costs the other shows in the two
//! `runtime.store_ptr_ns` metrics.

use tilgc_mem::Addr;
use tilgc_runtime::{FrameDesc, Trace, Value, Vm};

use crate::rng::{mix, Rng};
use crate::trace::{OpKind, Tracer};

/// Rows of the tenured table.
pub const ROWS: usize = 64;
/// Slots per row.
pub const COLS: usize = 256;
/// Cells allocated per unit.
pub const CELLS: usize = 128;
/// Table slots each cell is stored into.
pub const FANOUT: usize = 8;
/// Distinct targets of a hot unit.
pub const HOT_SLOTS: usize = 16;

const STAGE: usize = ROWS;
const STORES: usize = CELLS * FANOUT;

/// How much work one stream holds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StormSize {
    /// Units in the stream (even = spread, odd = hot).
    pub units: usize,
    /// Times a pass runs the stream.
    pub repeat: usize,
}

/// A generated write-barrier op stream.
#[derive(Clone, Debug)]
pub struct StormStream {
    size: StormSize,
    tag: u64,
    /// [`STORES`] target slots per unit; store `k` of a unit writes cell
    /// `k / FANOUT`.
    targets: Vec<u16>,
}

impl StormStream {
    /// Generates the stream for `seed`.
    pub fn generate(seed: u64, size: StormSize) -> StormStream {
        let mut rng = Rng::new(seed, 1);
        let hot: Vec<u16> = (0..HOT_SLOTS)
            .map(|_| rng.below((ROWS * COLS) as u64) as u16)
            .collect();
        let mut targets = Vec::with_capacity(size.units * STORES);
        for unit in 0..size.units {
            for _ in 0..STORES {
                targets.push(if unit % 2 == 0 {
                    rng.below((ROWS * COLS) as u64) as u16
                } else {
                    hot[rng.below(HOT_SLOTS as u64) as usize]
                });
            }
        }
        StormStream {
            size,
            tag: mix(seed, 0xba22),
            targets,
        }
    }

    /// A hash of everything the generator produced.
    pub fn hash(&self) -> u64 {
        let mut h = mix(self.tag, self.size.repeat as u64);
        for &s in &self.targets {
            h = mix(h, u64::from(s));
        }
        h
    }

    /// Runs one pass of the stream on `vm` and returns the checksum of
    /// the final table.
    pub fn run<T: Tracer>(&self, vm: &mut Vm, t: &mut T) -> u64 {
        let rows_site = vm.site("storm::row");
        let cell_site = vm.site("storm::cell");
        let base =
            vm.register_frame(FrameDesc::new("storm::base").slots(ROWS + CELLS, Trace::Pointer));
        vm.push_frame(base);

        t.enter(vm);
        for r in 0..ROWS {
            let row = vm
                .alloc_ptr_array(rows_site, COLS, Addr::NULL)
                .expect("heap budget sized to the workload");
            vm.set_slot(r, Value::Ptr(row));
        }
        // Tenure the table before the storm starts.
        vm.gc_now();
        t.exit(vm, OpKind::Alloc, ROWS as u64);

        let mut next_id = 0u64;
        for _ in 0..self.size.repeat {
            for unit in 0..self.size.units {
                for i in 0..CELLS {
                    let id = self.tag.wrapping_add(next_id);
                    next_id += 1;
                    let cell = vm
                        .alloc_record(cell_site, &[Value::Int(id as i64), Value::NULL])
                        .expect("heap budget sized to the workload");
                    vm.set_slot(STAGE + i, Value::Ptr(cell));
                }
                t.exit(vm, OpKind::Alloc, CELLS as u64);

                for (k, &slot) in self.targets[unit * STORES..(unit + 1) * STORES]
                    .iter()
                    .enumerate()
                {
                    let slot = slot as usize;
                    let row = vm.slot_ptr(slot / COLS);
                    let cell = vm.slot_ptr(STAGE + k / FANOUT);
                    vm.store_ptr(row, slot % COLS, cell);
                }
                let kind = if unit % 2 == 0 {
                    OpKind::StoreSpread
                } else {
                    OpKind::StoreHot
                };
                t.exit(vm, kind, STORES as u64);
            }
        }

        let mut h = 0u64;
        let mut loads = 0u64;
        for r in 0..ROWS {
            let row = vm.slot_ptr(r);
            for c in 0..COLS {
                let cell = vm.load_ptr(row, c);
                loads += 1;
                if cell.is_null() {
                    h = mix(h, 1);
                } else {
                    h = mix(h, vm.load_int(cell, 0) as u64);
                    loads += 1;
                }
            }
        }
        t.exit(vm, OpKind::Verify, loads);
        vm.pop_frame();
        h
    }

    /// Replays the stream on a plain vector and returns the checksum
    /// [`run`](StormStream::run) must produce.
    pub fn model(&self) -> u64 {
        let mut table: Vec<Option<u64>> = vec![None; ROWS * COLS];
        let mut next_id = 0u64;
        for _ in 0..self.size.repeat {
            for unit in 0..self.size.units {
                let first = self.tag.wrapping_add(next_id);
                next_id += CELLS as u64;
                for (k, &slot) in self.targets[unit * STORES..(unit + 1) * STORES]
                    .iter()
                    .enumerate()
                {
                    table[slot as usize] = Some(first.wrapping_add((k / FANOUT) as u64));
                }
            }
        }
        table.iter().fold(0, |h, cell| mix(h, cell.unwrap_or(1)))
    }
}
