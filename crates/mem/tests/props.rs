//! Property tests for the memory substrate: header encodings round-trip
//! for every legal input, the object walker tiles spaces exactly, and
//! the side-metadata layer (bitmaps, bulk clears, atomic mark claims)
//! agrees with a naive model at and across chunk boundaries.

use proptest::prelude::*;
use tilgc_mem::{object, Addr, Header, Memory, ObjectKind, SiteId, Space, SpaceRange, CHUNK_WORDS};

/// The workspace's deterministic xorshift64* generator (same recurrence
/// the torture harness and benchmark inputs use).
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x.wrapping_mul(0x2545_f491_4f6c_dd1d)
}

proptest! {
    /// Record headers round-trip every legal (len, mask, site, age)
    /// combination through the packed word.
    #[test]
    fn record_header_round_trip(
        len in 0usize..=24,
        mask_bits in any::<u32>(),
        site in any::<u16>(),
        age in any::<u8>(),
    ) {
        let mask = if len == 0 { 0 } else { mask_bits & ((1u32 << len) - 1) };
        let h = Header::record(len, mask)
            .expect("len <= 24 is valid")
            .with_site(SiteId::new(site))
            .with_age(age);
        prop_assert_eq!(h.kind(), ObjectKind::Record);
        prop_assert_eq!(h.len(), len);
        prop_assert_eq!(h.ptr_mask(), mask);
        prop_assert_eq!(h.site(), SiteId::new(site));
        prop_assert_eq!(h.age(), age);
        prop_assert_eq!(h.size_words(), 1 + len);
        prop_assert!(!h.is_forward());
        prop_assert_eq!(Header::from_raw(h.raw()), h);
        for i in 0..len {
            prop_assert_eq!(h.field_is_pointer(i), (mask >> i) & 1 == 1);
        }
    }

    /// Array headers round-trip lengths across the full 30-bit range.
    #[test]
    fn array_header_round_trip(
        len in 0usize..(1 << 30),
        raw in any::<bool>(),
    ) {
        let h = if raw {
            Header::raw_array(len).expect("30-bit length")
        } else {
            Header::ptr_array(len).expect("30-bit length")
        };
        prop_assert_eq!(h.len(), len);
        if raw {
            prop_assert_eq!(h.kind(), ObjectKind::RawArray);
            prop_assert_eq!(h.payload_words(), len.div_ceil(8));
            prop_assert!(!h.field_is_pointer(0));
        } else {
            prop_assert_eq!(h.kind(), ObjectKind::PtrArray);
            prop_assert_eq!(h.payload_words(), len);
            if len > 0 {
                prop_assert!(h.field_is_pointer(len - 1));
            }
        }
    }

    /// Forwarding headers preserve the full 32-bit address space and the
    /// site of the object they replaced.
    #[test]
    fn forward_header_round_trip(addr in any::<u32>(), site in any::<u16>()) {
        let h = Header::forward(Addr::new(addr)).with_site(SiteId::new(site));
        prop_assert!(h.is_forward());
        prop_assert_eq!(h.forward_addr(), Some(Addr::new(addr)));
        prop_assert_eq!(h.site(), SiteId::new(site));
    }

    /// The walker visits exactly the objects allocated, in order, with
    /// the right headers and site stamps — for arbitrary allocation
    /// sequences.
    #[test]
    fn walk_tiles_arbitrary_allocation_sequences(
        objs in proptest::collection::vec(
            (0usize..=8, any::<u16>(), prop_oneof![Just(0u8), Just(1), Just(2)]),
            0..40,
        )
    ) {
        let mut mem = Memory::with_capacity_words(1 << 16);
        let mut space = Space::new(mem.reserve(1 << 15).expect("reserve"));
        let start = space.frontier();
        let mut expected = Vec::new();
        for (len, site, kind) in objs {
            let site = SiteId::new(site);
            let addr = match kind {
                0 => object::alloc_record(
                    &mut mem,
                    &mut space,
                    site,
                    &vec![7u64; len],
                    0,
                )
                .expect("fits"),
                1 => object::alloc_ptr_array(&mut mem, &mut space, site, len, Addr::NULL)
                    .expect("fits"),
                _ => object::alloc_raw_array(&mut mem, &mut space, site, len * 8)
                    .expect("fits"),
            };
            expected.push((addr, site, len));
        }
        let walked: Vec<_> = object::walk(&mem, start, space.frontier())
            .map(|e| (e.addr, mem.site_of(e.addr), e.header.payload_words()))
            .collect();
        prop_assert_eq!(walked.len(), expected.len());
        for ((wa, ws, wp), (ea, es, el)) in walked.iter().zip(&expected) {
            prop_assert_eq!(wa, ea);
            prop_assert_eq!(ws, es);
            prop_assert_eq!(wp, el);
        }
    }

    /// Byte accessors on raw arrays behave like a plain byte buffer.
    #[test]
    fn raw_array_bytes_behave_like_a_buffer(
        len in 1usize..100,
        writes in proptest::collection::vec((any::<u16>(), any::<u8>()), 0..50),
    ) {
        let mut mem = Memory::with_capacity_words(1 << 12);
        let mut space = Space::new(mem.reserve(1 << 11).expect("reserve"));
        let arr = object::alloc_raw_array(&mut mem, &mut space, SiteId::UNKNOWN, len)
            .expect("fits");
        let mut model = vec![0u8; len];
        for (i, v) in writes {
            let i = (i as usize) % len;
            object::set_byte(&mut mem, arr, i, v);
            model[i] = v;
        }
        for (i, &m) in model.iter().enumerate() {
            prop_assert_eq!(object::byte(&mem, arr, i), m);
        }
    }

    /// Dirty bits round-trip through the side bitmap at and around
    /// chunk boundaries, agreeing with a naive per-address model.
    #[test]
    fn side_bitmap_round_trips_at_chunk_boundaries(seed in any::<u64>()) {
        let mut mem = Memory::with_capacity_words(2 * CHUNK_WORDS + 100);
        let mut model = std::collections::HashSet::new();
        let mut state = seed | 1;
        for _ in 0..300 {
            // Cluster addresses tightly around the two chunk edges so
            // the boundary bitmap words get heavy traffic.
            let edge = if xorshift(&mut state) % 2 == 0 { CHUNK_WORDS } else { 2 * CHUNK_WORDS };
            let a = Addr::new((edge as u32).wrapping_add((xorshift(&mut state) % 129) as u32) - 64);
            match xorshift(&mut state) % 3 {
                0 => {
                    mem.set_dirty(a);
                    model.insert(a);
                }
                1 => {
                    mem.clear_dirty(a);
                    model.remove(&a);
                }
                _ => prop_assert_eq!(mem.is_dirty(a), model.contains(&a)),
            }
        }
        for chunk_edge in [CHUNK_WORDS, 2 * CHUNK_WORDS] {
            for delta in -64i64..=64 {
                let a = Addr::new((chunk_edge as i64 + delta) as u32);
                prop_assert_eq!(mem.is_dirty(a), model.contains(&a));
            }
        }
    }

    /// Bulk-clearing one reservation's range never disturbs bits owned
    /// by its neighbours, even when they share edge bitmap words and
    /// chunk boundaries.
    #[test]
    fn bulk_clear_leaves_neighbouring_chunks_untouched(
        left_len in 1usize..200,
        mid_len in 1usize..(2 * CHUNK_WORDS),
        right_len in 1usize..200,
        seed in any::<u64>(),
    ) {
        let mut mem = Memory::with_capacity_words(3 * CHUNK_WORDS);
        let left = mem.reserve(left_len).expect("reserve");
        let mid = mem.reserve(mid_len).expect("reserve");
        let right = mem.reserve(right_len).expect("reserve");
        let mut state = seed | 1;
        let pick = |r: SpaceRange, state: &mut u64| {
            r.start + (xorshift(state) as usize % (r.end - r.start))
        };
        let mut outside = Vec::new();
        for _ in 0..40 {
            let a = pick(left, &mut state);
            mem.set_dirty(a);
            outside.push(a);
            let a = pick(right, &mut state);
            mem.set_dirty(a);
            outside.push(a);
            mem.set_dirty(pick(mid, &mut state));
        }
        let covered = mem.bulk_clear_dirty(mid, mid.end);
        prop_assert_eq!(covered, (mid.end - mid.start) as u64);
        for a in (mid.start.index()..mid.end.index()).map(|i| Addr::new(i as u32)) {
            prop_assert!(!mem.is_dirty(a), "bit inside the cleared range at {a}");
        }
        for a in outside {
            prop_assert!(mem.is_dirty(a), "neighbour bit at {a} was clobbered");
        }
    }

    /// A mark-bit claim — test and set in one call, so no caller sees the
    /// bit between the two — is idempotent: across any xorshift-driven
    /// sequence of duplicated addresses, each distinct address is claimed
    /// exactly once, and a claimed bit reads back set and loses every
    /// re-claim.
    #[test]
    fn atomic_mark_claim_is_idempotent(seed in any::<u64>(), n in 1usize..400) {
        let mut mem = Memory::with_capacity_words(4096);
        let mut state = seed | 1;
        let addrs: Vec<Addr> = (0..n)
            .map(|_| Addr::new(1 + (xorshift(&mut state) % 4095) as u32))
            .collect();
        let distinct: std::collections::HashSet<Addr> = addrs.iter().copied().collect();
        let claims = addrs.iter().filter(|&&a| mem.mark_test_and_set(a)).count();
        prop_assert_eq!(claims, distinct.len(), "each address claimed exactly once");
        for &a in &distinct {
            prop_assert!(mem.is_marked(a));
            prop_assert!(!mem.mark_test_and_set(a), "re-claim must lose");
        }
    }
}
