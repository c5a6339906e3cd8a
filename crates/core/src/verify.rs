//! Heap verifier: an independent oracle used by tests and debugging.
//!
//! The verifier computes the root set from the mutator's *shadow tags* —
//! information the real collector never has — and walks the object graph,
//! checking that every pointer lands on a well-formed, live object. It is
//! deliberately redundant with the trace-table scan: the two arriving at
//! the same graph is the central correctness claim of the root-scanning
//! machinery.
//!
//! The verifier is plan-agnostic: it sees the heap only as the
//! [`Vm`]'s memory and shadow tags, so the same walk validates every
//! plan — semispace, generational, or pretenuring — and any space layout
//! a plan composes.
//!
//! After a collection, [`verify_collection`] also holds the plan's record
//! of it ([`CollectionEnd`], from `last_inspection`) against the walk:
//! the record's own identities are `tilgc_obs::schema`'s, the same check
//! a replayed telemetry stream gets, and the walk adds the live bound —
//! on every collection, §7.2 aging minors included.

use std::collections::{HashSet, VecDeque};

use tilgc_mem::{object, Addr, Memory, ObjectKind, POISON};
use tilgc_obs::schema::check_collection_end;
use tilgc_runtime::{CollectionEnd, MutatorState, ShadowTag, Vm};

/// Summary of a verified heap.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LiveReport {
    /// Reachable objects.
    pub objects: usize,
    /// Reachable bytes (headers included).
    pub bytes: usize,
    /// Number of root locations that held (non-null) pointers.
    pub roots: usize,
}

/// Collects the shadow-tag root words: every stack slot, register and
/// alloc-buffer entry the mutator actually wrote a pointer into.
pub fn shadow_roots(m: &MutatorState) -> Vec<Addr> {
    let mut roots = Vec::new();
    for d in 0..m.stack.depth() {
        let frame = m.stack.frame(d);
        for i in 0..frame.num_slots() {
            if frame.shadow(i) == ShadowTag::Ptr {
                roots.push(Addr::new(frame.word(i) as u32));
            }
        }
    }
    for r in 0..tilgc_runtime::NUM_REGS {
        let reg = tilgc_runtime::Reg::new(r as u8);
        if m.regs.shadow(reg) == ShadowTag::Ptr {
            roots.push(Addr::new(m.regs.word(reg) as u32));
        }
    }
    for i in 0..m.alloc_buf.len() {
        if (m.alloc_buf_ptr_mask >> i) & 1 == 1 {
            roots.push(Addr::new(m.alloc_buf[i] as u32));
        }
    }
    roots
}

/// Walks the reachable graph from `roots`, validating every object.
///
/// # Panics
///
/// Panics if any reachable pointer refers to a forwarded, poisoned or
/// malformed object — i.e. on any dangling pointer a collector bug (or a
/// rooting-discipline violation in a program) would produce.
pub fn check_graph(mem: &Memory, roots: &[Addr]) -> LiveReport {
    let mut seen: HashSet<u32> = HashSet::new();
    let mut queue: VecDeque<Addr> = VecDeque::new();
    let mut live_roots = 0;
    // Plans reserve every space with a chunk owner; when this heap did,
    // every reachable object must sit in an owned chunk. (Bare test
    // heaps with plain `reserve` skip the check.)
    let check_chunk_owners = mem.owned_chunks() > 0;
    for &r in roots {
        if !r.is_null() {
            live_roots += 1;
            if seen.insert(r.raw()) {
                queue.push_back(r);
            }
        }
    }
    let mut objects = 0;
    let mut bytes = 0;
    while let Some(addr) = queue.pop_front() {
        let raw = mem
            .try_word(addr)
            .unwrap_or_else(|| panic!("pointer {addr} outside the address space"));
        assert_ne!(raw, POISON, "pointer {addr} into poisoned (vacated) memory");
        let h = tilgc_mem::Header::from_raw(raw);
        assert!(
            h.forward_addr().is_none(),
            "live heap contains forwarding header at {addr}"
        );
        // Malformed headers mostly manifest as absurd sizes.
        let words = h.size_words();
        assert!(
            words < (1 << 28),
            "implausible object size {words} at {addr}"
        );
        objects += 1;
        bytes += h.size_bytes();
        if check_chunk_owners {
            assert!(
                mem.chunk_owner(addr).is_some(),
                "reachable object at {addr} lies in a chunk no space owns"
            );
        }
        if h.kind() != ObjectKind::RawArray {
            for i in 0..h.len() {
                if !h.field_is_pointer(i) {
                    continue;
                }
                let child = object::ptr_field(mem, addr, i);
                if !child.is_null() && seen.insert(child.raw()) {
                    queue.push_back(child);
                }
            }
        }
    }
    LiveReport {
        objects,
        bytes,
        roots: live_roots,
    }
}

/// Verifies a running VM's heap: shadow roots → full graph walk.
///
/// # Panics
///
/// Panics on any dangling or malformed reachable pointer.
pub fn verify_vm(vm: &Vm) -> LiveReport {
    let roots = shadow_roots(vm.mutator());
    check_graph(vm.mem(), &roots)
}

/// Cross-checks a collection's record against the [`LiveReport`] an
/// independent shadow-tag graph walk produced.
///
/// The record's own identities — the §5 reuse bound, frame accounting,
/// copy/scan accounting — are [`check_collection_end`]'s, the same
/// function `gc-log --validate` runs on a recorded stream. Against the
/// oracle this adds the **live-size bound**: the bytes reachable from
/// the shadow roots fit within the record's live bytes plus
/// `alloc_slack_bytes` (bytes the mutator allocated after the
/// collection finished).
///
/// # Panics
///
/// Panics, naming the violated invariant, if the record is inconsistent
/// with itself or with the oracle — the failure mode an injected
/// accounting bug produces.
pub fn check_inspection(report: &LiveReport, insp: &CollectionEnd, alloc_slack_bytes: u64) {
    if let Err(broken) = check_collection_end(insp) {
        panic!("{broken}");
    }
    assert!(
        report.bytes as u64 <= insp.live_bytes_after + alloc_slack_bytes,
        "live accounting broken at collection {}: {} reachable bytes exceed {} live + {} \
         alloc slack",
        insp.collection,
        report.bytes,
        insp.live_bytes_after,
        alloc_slack_bytes
    );
}

/// Verifies a running VM's heap *and* cross-checks the collector's
/// record of the most recent collection via [`check_inspection`].
///
/// `alloc_slack_bytes` is the number of bytes the mutator has allocated
/// since the collection being inspected finished (those objects are
/// reachable but postdate the collector's live accounting).
///
/// # Panics
///
/// Panics on any dangling/malformed reachable pointer, or on any
/// inconsistency in the collection's record.
pub fn verify_collection(vm: &Vm, alloc_slack_bytes: u64) -> LiveReport {
    let report = verify_vm(vm);
    if let Some(insp) = vm.collector().last_inspection() {
        check_inspection(&report, insp, alloc_slack_bytes);
    }
    report
}

/// A canonical, address-independent encoding of the reachable graph, for
/// before/after-collection isomorphism checks.
///
/// Objects are numbered in BFS discovery order from the roots; each object
/// contributes its kind, site, length and, per field, either the raw word
/// (non-pointers) or the discovery number of the target (pointers). Two
/// heaps with equal snapshots are isomorphic reachable graphs.
pub fn graph_snapshot(mem: &Memory, roots: &[Addr]) -> Vec<u64> {
    use std::collections::HashMap;
    let mut ids: HashMap<u32, u64> = HashMap::new();
    let mut queue: VecDeque<Addr> = VecDeque::new();
    let mut out: Vec<u64> = Vec::new();
    let mut next_id = 0u64;
    let mut id_of = |a: Addr, queue: &mut VecDeque<Addr>, ids: &mut HashMap<u32, u64>| -> u64 {
        if a.is_null() {
            return u64::MAX;
        }
        *ids.entry(a.raw()).or_insert_with(|| {
            let id = next_id;
            next_id += 1;
            queue.push_back(a);
            id
        })
    };
    for &r in roots {
        let id = id_of(r, &mut queue, &mut ids);
        out.push(id);
    }
    out.push(u64::MAX - 1); // separator
    while let Some(addr) = queue.pop_front() {
        let h = object::header(mem, addr);
        out.push(match h.kind() {
            ObjectKind::Record => 0,
            ObjectKind::PtrArray => 1,
            ObjectKind::RawArray => 2,
        });
        out.push(u64::from(mem.site_of(addr).get()));
        out.push(h.len() as u64);
        match h.kind() {
            ObjectKind::RawArray => {
                for i in 0..h.payload_words() {
                    out.push(object::field(mem, addr, i));
                }
            }
            _ => {
                for i in 0..h.len() {
                    if h.field_is_pointer(i) {
                        let child = object::ptr_field(mem, addr, i);
                        out.push(id_of(child, &mut queue, &mut ids));
                    } else {
                        out.push(object::field(mem, addr, i));
                    }
                }
            }
        }
    }
    out
}

/// Snapshot of a running VM's reachable graph (shadow roots).
pub fn vm_snapshot(vm: &Vm) -> Vec<u64> {
    let roots = shadow_roots(vm.mutator());
    graph_snapshot(vm.mem(), &roots)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tilgc_mem::{SiteId, Space};

    fn heap() -> (Memory, Space) {
        let mut mem = Memory::with_capacity_words(512);
        let s = Space::new(mem.reserve(256).unwrap());
        (mem, s)
    }

    #[test]
    fn check_graph_counts_reachable_only() {
        let (mut mem, mut s) = heap();
        let a = object::alloc_record(&mut mem, &mut s, SiteId::new(1), &[1], 0).unwrap();
        let b = object::alloc_record(&mut mem, &mut s, SiteId::new(2), &[u64::from(a.raw())], 0b1)
            .unwrap();
        let _garbage = object::alloc_record(&mut mem, &mut s, SiteId::new(3), &[9], 0).unwrap();
        let report = check_graph(&mem, &[b]);
        assert_eq!(report.objects, 2);
        assert_eq!(report.bytes, 2 * 16);
        assert_eq!(report.roots, 1);
    }

    #[test]
    fn shared_structure_counted_once() {
        let (mut mem, mut s) = heap();
        let shared = object::alloc_record(&mut mem, &mut s, SiteId::new(1), &[5], 0).unwrap();
        let l = object::alloc_record(&mut mem, &mut s, SiteId::new(2), &[shared.raw().into()], 1)
            .unwrap();
        let r = object::alloc_record(&mut mem, &mut s, SiteId::new(3), &[shared.raw().into()], 1)
            .unwrap();
        let report = check_graph(&mem, &[l, r]);
        assert_eq!(report.objects, 3);
    }

    #[test]
    fn cycles_terminate() {
        let (mut mem, mut s) = heap();
        let a = object::alloc_record(&mut mem, &mut s, SiteId::new(1), &[0], 0b1).unwrap();
        let b =
            object::alloc_record(&mut mem, &mut s, SiteId::new(1), &[a.raw().into()], 0b1).unwrap();
        object::set_field(&mut mem, a, 0, u64::from(b.raw()));
        let report = check_graph(&mem, &[a]);
        assert_eq!(report.objects, 2);
    }

    #[test]
    #[should_panic(expected = "poisoned")]
    fn dangling_pointer_into_poison_is_caught() {
        let (mut mem, mut s) = heap();
        let a = object::alloc_record(&mut mem, &mut s, SiteId::new(1), &[1], 0).unwrap();
        mem.fill(a, 2, POISON);
        check_graph(&mem, &[a]);
    }

    #[test]
    #[should_panic(expected = "forwarding header")]
    fn forwarded_object_in_live_graph_is_caught() {
        let (mut mem, mut s) = heap();
        let a = object::alloc_record(&mut mem, &mut s, SiteId::new(1), &[1], 0).unwrap();
        object::set_header(&mut mem, a, tilgc_mem::Header::forward(Addr::new(4)));
        check_graph(&mem, &[a]);
    }

    #[test]
    fn snapshots_are_address_independent() {
        // Two copies of the same structure at different addresses must
        // produce identical snapshots.
        let (mut mem, mut s) = heap();
        let build = |mem: &mut Memory, s: &mut Space| {
            let inner = object::alloc_record(mem, s, SiteId::new(1), &[7, 8], 0).unwrap();
            object::alloc_record(mem, s, SiteId::new(2), &[inner.raw().into(), 3], 0b1).unwrap()
        };
        let r1 = build(&mut mem, &mut s);
        let r2 = build(&mut mem, &mut s);
        assert_ne!(r1, r2);
        assert_eq!(graph_snapshot(&mem, &[r1]), graph_snapshot(&mem, &[r2]));
    }

    #[test]
    fn snapshots_distinguish_different_graphs() {
        let (mut mem, mut s) = heap();
        let a = object::alloc_record(&mut mem, &mut s, SiteId::new(1), &[7], 0).unwrap();
        let b = object::alloc_record(&mut mem, &mut s, SiteId::new(1), &[8], 0).unwrap();
        assert_ne!(graph_snapshot(&mem, &[a]), graph_snapshot(&mem, &[b]));
    }
}
