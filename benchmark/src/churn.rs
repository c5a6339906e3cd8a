//! The survivor-churn op stream (`churn-semi`, `churn-gen`, `churn-par`).
//!
//! A rooted table of [`ROWS`] × [`COLS`] slots is overwritten by a
//! steady stream of fresh objects, half of which die young. Flat
//! 20-field pointer-free records (bulk copy) alternate with 3-field
//! nodes pointing at two flat records already in the table
//! (forwarding). Flat records live in the first [`FLAT_ROWS`] rows and
//! nodes in the rest, so a node only ever reaches flat records and the
//! live set stays bounded.
//!
//! The stream is a sequence of units, each three same-kind blocks:
//! [`UNIT`] `load_ptr` (the nodes' referents, parked in frame slots),
//! [`UNIT`] allocations (survivors parked in frame slots), then one
//! `store_ptr` per survivor. A pass runs the stream `repeat` times on
//! one `Vm`, so the stream itself stays small next to the heap.

use tilgc_mem::Addr;
use tilgc_runtime::{FrameDesc, Trace, Value, Vm};

use crate::rng::{mix, Rng};
use crate::trace::{OpKind, Tracer};

/// Rows of the rooted table.
pub const ROWS: usize = 128;
/// Rows holding flat records; the rest hold nodes.
pub const FLAT_ROWS: usize = 64;
/// Slots per row.
pub const COLS: usize = 256;
/// Allocations per unit (even index = flat record, odd = node).
pub const UNIT: usize = 256;
/// Fields of a flat record.
pub const FLAT_FIELDS: usize = 20;

const HALF_SLOTS: usize = FLAT_ROWS * COLS;
const REFS: usize = ROWS;
const STAGE: usize = ROWS + UNIT;
const FRAME_SLOTS: usize = ROWS + 2 * UNIT;

/// How much work one stream holds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChurnSize {
    /// Units in the stream.
    pub units: usize,
    /// Times a pass runs the stream.
    pub repeat: usize,
}

/// A generated churn op stream.
#[derive(Clone, Debug)]
pub struct ChurnStream {
    size: ChurnSize,
    /// Mixed into every object id, so two seeds never share payloads.
    tag: u64,
    /// [`UNIT`] referent slots (within the flat half) per unit.
    loads: Vec<u16>,
    /// Survivor stores, `alloc index << 16 | slot within its half`.
    stores: Vec<u32>,
    /// End of each unit's run in `stores`.
    store_ends: Vec<u32>,
    /// Per unit, bit `i` set when allocation `i` survives (is stored).
    keep: Vec<[u64; UNIT / 64]>,
}

fn flat_field(id: u64, i: usize) -> i64 {
    (mix(id, 0x5eed) ^ i as u64) as i64
}

impl ChurnStream {
    /// Generates the stream for `seed`.
    pub fn generate(seed: u64, size: ChurnSize) -> ChurnStream {
        let mut slots = Rng::new(seed, 1);
        let mut keeps = Rng::new(seed, 2);
        let mut loads = Vec::with_capacity(size.units * UNIT);
        let mut stores = Vec::with_capacity(size.units * UNIT / 2 + UNIT);
        let mut store_ends = Vec::with_capacity(size.units);
        let mut keep = Vec::with_capacity(size.units);
        for _ in 0..size.units {
            for _ in 0..UNIT {
                loads.push(slots.below(HALF_SLOTS as u64) as u16);
            }
            let mut kept = [0u64; UNIT / 64];
            for i in 0..UNIT {
                if keeps.next_u64() & 1 == 1 {
                    kept[i / 64] |= 1 << (i % 64);
                    stores.push((i as u32) << 16 | slots.below(HALF_SLOTS as u64) as u32);
                }
            }
            store_ends.push(stores.len() as u32);
            keep.push(kept);
        }
        ChurnStream {
            size,
            tag: mix(seed, 0xc4a2),
            loads,
            stores,
            store_ends,
            keep,
        }
    }

    /// A hash of everything the generator produced.
    pub fn hash(&self) -> u64 {
        let mut h = mix(self.tag, self.size.repeat as u64);
        for &l in &self.loads {
            h = mix(h, u64::from(l));
        }
        for &s in &self.stores {
            h = mix(h, u64::from(s));
        }
        for &e in &self.store_ends {
            h = mix(h, u64::from(e));
        }
        h
    }

    fn unit_stores(&self, unit: usize) -> &[u32] {
        let start = if unit == 0 {
            0
        } else {
            self.store_ends[unit - 1] as usize
        };
        &self.stores[start..self.store_ends[unit] as usize]
    }

    /// Row and column of a store's target: flat records (even alloc
    /// index) go to the flat half, nodes to the node half.
    fn target(store: u32) -> (usize, usize) {
        let slot = (store & 0xffff) as usize;
        let half = if (store >> 16) & 1 == 0 { 0 } else { FLAT_ROWS };
        (half + slot / COLS, slot % COLS)
    }

    /// Runs one pass of the stream on `vm` and returns the checksum of
    /// the final reachable structure.
    pub fn run<T: Tracer>(&self, vm: &mut Vm, t: &mut T) -> u64 {
        let rows_site = vm.site("churn::row");
        let flat_site = vm.site("churn::flat");
        let node_site = vm.site("churn::node");
        let base =
            vm.register_frame(FrameDesc::new("churn::base").slots(FRAME_SLOTS, Trace::Pointer));
        vm.push_frame(base);

        t.enter(vm);
        for r in 0..ROWS {
            let row = vm
                .alloc_ptr_array(rows_site, COLS, Addr::NULL)
                .expect("heap budget sized to the workload");
            vm.set_slot(r, Value::Ptr(row));
        }
        t.exit(vm, OpKind::Alloc, ROWS as u64);

        let mut next_id = 0u64;
        let mut fields = [Value::Int(0); FLAT_FIELDS];
        for _ in 0..self.size.repeat {
            for unit in 0..self.size.units {
                for (j, &slot) in self.loads[unit * UNIT..(unit + 1) * UNIT]
                    .iter()
                    .enumerate()
                {
                    let slot = slot as usize;
                    let row = vm.slot_ptr(slot / COLS);
                    let referent = vm.load_ptr(row, slot % COLS);
                    vm.set_slot(REFS + j, Value::Ptr(referent));
                }
                t.exit(vm, OpKind::Load, UNIT as u64);

                let kept = &self.keep[unit];
                for i in 0..UNIT {
                    let id = self.tag.wrapping_add(next_id);
                    next_id += 1;
                    let obj = if i % 2 == 0 {
                        for (k, f) in fields.iter_mut().enumerate() {
                            *f = Value::Int(flat_field(id, k));
                        }
                        vm.alloc_record(flat_site, &fields)
                    } else {
                        let a = vm.slot_ptr(REFS + i - 1);
                        let b = vm.slot_ptr(REFS + i);
                        vm.alloc_record(
                            node_site,
                            &[Value::Ptr(a), Value::Ptr(b), Value::Int(id as i64)],
                        )
                    }
                    .expect("heap budget sized to the workload");
                    // Only survivors are parked (rooted); the rest die
                    // at the next collection.
                    if kept[i / 64] >> (i % 64) & 1 == 1 {
                        vm.set_slot(STAGE + i, Value::Ptr(obj));
                    }
                }
                t.exit(vm, OpKind::Alloc, UNIT as u64);

                let stores = self.unit_stores(unit);
                for &store in stores {
                    let (r, c) = ChurnStream::target(store);
                    let row = vm.slot_ptr(r);
                    let obj = vm.slot_ptr(STAGE + (store >> 16) as usize);
                    vm.store_ptr(row, c, obj);
                }
                t.exit(vm, OpKind::StoreSpread, stores.len() as u64);
            }
        }

        let mut h = 0u64;
        let mut loads = 0u64;
        for r in 0..ROWS {
            let row = vm.slot_ptr(r);
            for c in 0..COLS {
                let obj = vm.load_ptr(row, c);
                loads += 1;
                if obj.is_null() {
                    h = mix(h, 1);
                } else if r < FLAT_ROWS {
                    for k in 0..FLAT_FIELDS {
                        h = mix(h, vm.load_int(obj, k) as u64);
                    }
                    loads += FLAT_FIELDS as u64;
                } else {
                    h = mix(h, vm.load_int(obj, 2) as u64);
                    for k in 0..2 {
                        let referent = vm.load_ptr(obj, k);
                        if referent.is_null() {
                            h = mix(h, 0);
                        } else {
                            h = mix(h, vm.load_int(referent, 0) as u64);
                            h = mix(h, vm.load_int(referent, FLAT_FIELDS - 1) as u64);
                        }
                    }
                    loads += 7;
                }
            }
        }
        t.exit(vm, OpKind::Verify, loads);
        vm.pop_frame();
        h
    }

    /// Replays the stream on plain vectors — an interpreter of the same
    /// ops that shares no code with the library — and returns the
    /// checksum [`run`](ChurnStream::run) must produce.
    pub fn model(&self) -> u64 {
        #[derive(Clone, Copy)]
        enum Cell {
            Empty,
            Flat(u64),
            Node(u64, Option<u64>, Option<u64>),
        }
        let mut table = vec![Cell::Empty; ROWS * COLS];
        let mut refs = [None; UNIT];
        let mut staged = [Cell::Empty; UNIT];
        let mut next_id = 0u64;
        for _ in 0..self.size.repeat {
            for unit in 0..self.size.units {
                for (j, &slot) in self.loads[unit * UNIT..(unit + 1) * UNIT]
                    .iter()
                    .enumerate()
                {
                    refs[j] = match table[slot as usize] {
                        Cell::Flat(id) => Some(id),
                        Cell::Empty => None,
                        Cell::Node(..) => unreachable!("referents come from the flat half"),
                    };
                }
                for (i, cell) in staged.iter_mut().enumerate() {
                    let id = self.tag.wrapping_add(next_id);
                    next_id += 1;
                    *cell = if i % 2 == 0 {
                        Cell::Flat(id)
                    } else {
                        Cell::Node(id, refs[i - 1], refs[i])
                    };
                }
                for &store in self.unit_stores(unit) {
                    let (r, c) = ChurnStream::target(store);
                    table[r * COLS + c] = staged[(store >> 16) as usize];
                }
            }
        }
        let mut h = 0u64;
        for cell in table {
            match cell {
                Cell::Empty => h = mix(h, 1),
                Cell::Flat(id) => {
                    for k in 0..FLAT_FIELDS {
                        h = mix(h, flat_field(id, k) as u64);
                    }
                }
                Cell::Node(id, a, b) => {
                    h = mix(h, id);
                    for referent in [a, b] {
                        match referent {
                            None => h = mix(h, 0),
                            Some(id) => {
                                h = mix(h, flat_field(id, 0) as u64);
                                h = mix(h, flat_field(id, FLAT_FIELDS - 1) as u64);
                            }
                        }
                    }
                }
            }
        }
        h
    }
}
