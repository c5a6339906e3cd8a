//! Allocation and inspection of heap objects.
//!
//! Objects are laid out as a single [`Header`] word followed by the
//! payload. Free functions cover the mutating paths (allocation, field
//! writes, header overwrites during collection); [`Obj`] is a cheap
//! read-only view used by collectors, the profiler and the verifier.

use crate::{Addr, Header, MemError, Memory, ObjectKind, SiteId, Space};

/// Allocates a record with the given field words and pointer `mask`.
///
/// Bit *i* of `mask` set means `fields[i]` is a pointer. This mirrors the
/// tag word TIL attaches to records so that the collector can trace them
/// without per-value tags.
///
/// # Errors
///
/// Returns [`MemError::SpaceFull`] if the space cannot fit the object
/// (trigger a collection and retry), or [`MemError::ObjectTooLarge`] if the
/// record exceeds [`MAX_RECORD_FIELDS`](crate::MAX_RECORD_FIELDS).
pub fn alloc_record(
    mem: &mut Memory,
    space: &mut Space,
    site: SiteId,
    fields: &[u64],
    mask: u32,
) -> Result<Addr, MemError> {
    let header = Header::record(fields.len(), mask)?.with_site(site);
    let addr = space.alloc(header.size_words())?;
    let words = mem.words_at_mut(addr, header.size_words());
    words[0] = header.raw();
    words[1..].copy_from_slice(fields);
    Ok(addr)
}

/// Allocates a pointer array of `len` elements, all initialized to `init`.
///
/// # Errors
///
/// Returns [`MemError::SpaceFull`] if the space cannot fit the object, or
/// [`MemError::ObjectTooLarge`] for lengths beyond the header encoding.
pub fn alloc_ptr_array(
    mem: &mut Memory,
    space: &mut Space,
    site: SiteId,
    len: usize,
    init: Addr,
) -> Result<Addr, MemError> {
    let header = Header::ptr_array(len)?.with_site(site);
    let addr = space.alloc(header.size_words())?;
    let words = mem.words_at_mut(addr, header.size_words());
    words[0] = header.raw();
    words[1..].fill(u64::from(init.raw()));
    Ok(addr)
}

/// Allocates a zero-filled raw (unscanned) array of `len_bytes` bytes.
///
/// Raw arrays hold unboxed floats, character data and other non-pointer
/// payloads; the collector copies but never traces them.
///
/// # Errors
///
/// Returns [`MemError::SpaceFull`] if the space cannot fit the object, or
/// [`MemError::ObjectTooLarge`] for lengths beyond the header encoding.
pub fn alloc_raw_array(
    mem: &mut Memory,
    space: &mut Space,
    site: SiteId,
    len_bytes: usize,
) -> Result<Addr, MemError> {
    let header = Header::raw_array(len_bytes)?.with_site(site);
    let addr = space.alloc(header.size_words())?;
    let words = mem.words_at_mut(addr, header.size_words());
    words[0] = header.raw();
    words[1..].fill(0);
    Ok(addr)
}

/// Reads the header of the object at `addr`.
#[inline]
pub fn header(mem: &Memory, addr: Addr) -> Header {
    Header::from_raw(mem.word(addr))
}

/// Overwrites the header of the object at `addr` (installing a forwarding
/// pointer, bumping the age, ...). The header carries the object's site:
/// a replacement keeps it only if it was built from the old header or
/// stamped with [`Header::with_site`].
#[inline]
pub fn set_header(mem: &mut Memory, addr: Addr, h: Header) {
    mem.set_word(addr, h.raw());
}

/// Address of field `i` of the object at `addr`.
///
/// # Panics
///
/// Panics if the address does not fit in 32 bits.
#[inline]
pub fn field_addr(addr: Addr, i: usize) -> Addr {
    addr + (1 + i)
}

/// Reads field `i` (a raw word) of the object at `addr`: one load at word
/// `addr + 1 + i`, whose bounds check against the memory is the only
/// check (no field address is formed).
///
/// # Panics
///
/// Panics if the field lies past the end of memory.
#[inline]
pub fn field(mem: &Memory, addr: Addr, i: usize) -> u64 {
    mem.word_offset(addr, i.saturating_add(1))
}

/// Writes field `i` (a raw word) of the object at `addr`, checked as
/// [`field`] is.
///
/// This is the *raw* store; intergenerational write-barrier bookkeeping
/// lives in the runtime crate, which calls down to this.
///
/// # Panics
///
/// Panics if the field lies past the end of memory.
#[inline]
pub fn set_field(mem: &mut Memory, addr: Addr, i: usize, value: u64) {
    mem.set_word_offset(addr, i.saturating_add(1), value);
}

/// Reads field `i` of the object at `addr` as a pointer.
#[inline]
pub fn ptr_field(mem: &Memory, addr: Addr, i: usize) -> Addr {
    Addr::new(field(mem, addr, i) as u32)
}

/// Reads byte `i` of the raw array at `addr`.
///
/// # Panics
///
/// Panics in debug builds if the object is not a raw array or `i` is out of
/// range.
#[inline]
pub fn byte(mem: &Memory, addr: Addr, i: usize) -> u8 {
    debug_assert_eq!(header(mem, addr).kind(), ObjectKind::RawArray);
    debug_assert!(i < header(mem, addr).len(), "byte index {i} out of range");
    let w = field(mem, addr, i / crate::WORD_BYTES);
    (w >> ((i % crate::WORD_BYTES) * 8)) as u8
}

/// Writes byte `i` of the raw array at `addr`.
///
/// # Panics
///
/// Panics in debug builds if the object is not a raw array or `i` is out of
/// range.
#[inline]
pub fn set_byte(mem: &mut Memory, addr: Addr, i: usize, value: u8) {
    debug_assert_eq!(header(mem, addr).kind(), ObjectKind::RawArray);
    debug_assert!(i < header(mem, addr).len(), "byte index {i} out of range");
    let word_index = i / crate::WORD_BYTES;
    let shift = (i % crate::WORD_BYTES) * 8;
    let old = field(mem, addr, word_index);
    let new = (old & !(0xffu64 << shift)) | (u64::from(value) << shift);
    set_field(mem, addr, word_index, new);
}

/// Reads element `i` of a raw array as an unboxed double.
#[inline]
pub fn f64_elem(mem: &Memory, addr: Addr, i: usize) -> f64 {
    f64::from_bits(field(mem, addr, i))
}

/// Writes element `i` of a raw array as an unboxed double.
#[inline]
pub fn set_f64_elem(mem: &mut Memory, addr: Addr, i: usize, value: f64) {
    set_field(mem, addr, i, value.to_bits());
}

/// Creates a read-only view of the object at `addr`.
#[inline]
pub fn view(mem: &Memory, addr: Addr) -> Obj<'_> {
    Obj {
        mem,
        addr,
        header: header(mem, addr),
    }
}

/// A read-only view of a heap object.
///
/// # Example
///
/// ```
/// use tilgc_mem::{Memory, Space, SiteId, object};
///
/// let mut mem = Memory::with_capacity_words(64);
/// let mut s = Space::new(mem.reserve(32)?);
/// let inner = object::alloc_record(&mut mem, &mut s, SiteId::new(1), &[5], 0)?;
/// let outer = object::alloc_record(
///     &mut mem, &mut s, SiteId::new(2), &[inner.raw().into(), 9], 0b01)?;
/// let obj = object::view(&mem, outer);
/// assert!(obj.field_is_pointer(0) && !obj.field_is_pointer(1));
/// assert_eq!(obj.ptr(0), inner);
/// # Ok::<(), tilgc_mem::MemError>(())
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Obj<'m> {
    mem: &'m Memory,
    addr: Addr,
    header: Header,
}

impl<'m> Obj<'m> {
    /// The object's address.
    #[inline]
    pub fn addr(&self) -> Addr {
        self.addr
    }

    /// The object's header.
    #[inline]
    pub fn header(&self) -> Header {
        self.header
    }

    /// The object kind.
    ///
    /// # Panics
    ///
    /// Panics if the header is a forwarding header.
    #[inline]
    pub fn kind(&self) -> ObjectKind {
        self.header.kind()
    }

    /// Payload length (see [`Header::len`] for the per-kind meaning).
    #[inline]
    pub fn len(&self) -> usize {
        self.header.len()
    }

    /// Whether the payload is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.header.is_empty()
    }

    /// The allocation site stamped in the object's header.
    #[inline]
    pub fn site(&self) -> SiteId {
        self.mem.site_of(self.addr)
    }

    /// Raw word of field `i`.
    #[inline]
    pub fn field(&self, i: usize) -> u64 {
        field(self.mem, self.addr, i)
    }

    /// Field `i` interpreted as a pointer.
    #[inline]
    pub fn ptr(&self, i: usize) -> Addr {
        ptr_field(self.mem, self.addr, i)
    }

    /// Whether field `i` is a pointer according to the header.
    #[inline]
    pub fn field_is_pointer(&self, i: usize) -> bool {
        self.header.field_is_pointer(i)
    }
}

/// One object encountered by [`walk`].
#[derive(Debug, Clone, Copy)]
pub struct WalkEntry {
    /// Address of the object (its header word).
    pub addr: Addr,
    /// The object's true header. For forwarded objects this is fetched
    /// from the to-space copy, since the forwarding pointer overwrote the
    /// original.
    pub header: Header,
    /// Where the object was copied to, if it was forwarded.
    pub forwarded: Option<Addr>,
}

/// Walks the objects laid out contiguously in `[from, to)`.
///
/// Works on live spaces and on evacuated from-spaces: when a header has
/// been replaced by a forwarding pointer, the walker recovers the size from
/// the to-space copy. This is exactly what the paper's profiler does when
/// it "scans the allocation area after each collection to locate dead
/// objects" (§6).
pub fn walk(mem: &Memory, from: Addr, to: Addr) -> Walk<'_> {
    Walk {
        mem,
        cursor: from,
        end: to,
    }
}

/// Iterator produced by [`walk`].
#[derive(Debug)]
pub struct Walk<'m> {
    mem: &'m Memory,
    cursor: Addr,
    end: Addr,
}

impl Iterator for Walk<'_> {
    type Item = WalkEntry;

    fn next(&mut self) -> Option<WalkEntry> {
        if self.cursor >= self.end {
            return None;
        }
        let addr = self.cursor;
        let raw = header(self.mem, addr);
        let (true_header, forwarded) = match raw.forward_addr() {
            Some(to) => (header(self.mem, to), Some(to)),
            None => (raw, None),
        };
        self.cursor = addr + true_header.size_words();
        Some(WalkEntry {
            addr,
            header: true_header,
            forwarded,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(words: usize) -> (Memory, Space) {
        let mut mem = Memory::with_capacity_words(words + 1);
        let space = Space::new(mem.reserve(words).unwrap());
        (mem, space)
    }

    #[test]
    fn record_fields_round_trip() {
        let (mut mem, mut s) = setup(64);
        let a = alloc_record(&mut mem, &mut s, SiteId::new(1), &[1, 2, 3], 0b010).unwrap();
        assert_eq!(field(&mem, a, 0), 1);
        set_field(&mut mem, a, 0, 99);
        assert_eq!(field(&mem, a, 0), 99);
        let o = view(&mem, a);
        assert_eq!(o.kind(), ObjectKind::Record);
        assert!(o.field_is_pointer(1));
        assert!(!o.field_is_pointer(0));
    }

    // `field` / `set_field` index memory with `addr + 1 + i` as a `usize`;
    // the memory's bounds check is what stops an index past its end, in
    // a release build as in a debug one.

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn a_field_read_past_the_end_of_memory_panics() {
        let (mut mem, mut s) = setup(64);
        let a = alloc_record(&mut mem, &mut s, SiteId::new(1), &[1], 0).unwrap();
        let past = mem.capacity_words() - a.index() - 1;
        assert_eq!(field(&mem, a, past - 1), 0, "the last word of memory");
        field(&mem, a, past);
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn a_field_write_past_the_end_of_memory_panics() {
        let (mut mem, mut s) = setup(64);
        let a = alloc_record(&mut mem, &mut s, SiteId::new(1), &[1], 0).unwrap();
        let past = mem.capacity_words() - a.index() - 1;
        set_field(&mut mem, a, past, 7);
    }

    #[test]
    fn a_field_index_that_would_wrap_panics() {
        // `addr + 1 + i` saturates: no index wraps around to a word
        // below the end of memory.
        let (mut mem, mut s) = setup(64);
        let a = alloc_record(&mut mem, &mut s, SiteId::new(1), &[1], 0).unwrap();
        for i in [usize::MAX, usize::MAX - 1, usize::MAX - a.index()] {
            let read = std::panic::catch_unwind(|| field(&mem, a, i));
            assert!(read.is_err(), "field {i} read");
            let mut copy = mem.clone();
            let write = std::panic::catch_unwind(move || set_field(&mut copy, a, i, 7));
            assert!(write.is_err(), "field {i} written");
        }
    }

    #[test]
    #[should_panic(expected = "address overflow")]
    fn a_field_address_past_32_bits_panics() {
        // The store buffer records field addresses, so `field_addr` keeps
        // its overflow check.
        field_addr(Addr::new(u32::MAX - 1), 1);
    }

    #[test]
    fn ptr_array_init() {
        let (mut mem, mut s) = setup(64);
        let target = alloc_record(&mut mem, &mut s, SiteId::new(1), &[], 0).unwrap();
        let arr = alloc_ptr_array(&mut mem, &mut s, SiteId::new(2), 5, target).unwrap();
        let o = view(&mem, arr);
        assert_eq!(o.len(), 5);
        for i in 0..5 {
            assert_eq!(o.ptr(i), target);
        }
    }

    #[test]
    fn raw_array_bytes() {
        let (mut mem, mut s) = setup(64);
        let a = alloc_raw_array(&mut mem, &mut s, SiteId::new(3), 19).unwrap();
        set_byte(&mut mem, a, 0, 0xab);
        set_byte(&mut mem, a, 18, 0xcd);
        assert_eq!(byte(&mem, a, 0), 0xab);
        assert_eq!(byte(&mem, a, 18), 0xcd);
        assert_eq!(byte(&mem, a, 1), 0);
    }

    #[test]
    fn raw_array_doubles() {
        let (mut mem, mut s) = setup(64);
        let a = alloc_raw_array(&mut mem, &mut s, SiteId::new(3), 4 * 8).unwrap();
        set_f64_elem(&mut mem, a, 2, 2.75);
        assert_eq!(f64_elem(&mem, a, 2), 2.75);
        assert_eq!(f64_elem(&mem, a, 0), 0.0);
    }

    #[test]
    fn alloc_fails_when_space_full() {
        let (mut mem, mut s) = setup(4);
        assert!(alloc_record(&mut mem, &mut s, SiteId::UNKNOWN, &[0, 0, 0], 0).is_ok());
        assert!(matches!(
            alloc_record(&mut mem, &mut s, SiteId::UNKNOWN, &[0], 0),
            Err(MemError::SpaceFull { .. })
        ));
    }

    #[test]
    fn walk_visits_every_object_in_order() {
        let (mut mem, mut s) = setup(128);
        let start = s.frontier();
        let a = alloc_record(&mut mem, &mut s, SiteId::new(1), &[0, 0], 0).unwrap();
        let b = alloc_raw_array(&mut mem, &mut s, SiteId::new(2), 9).unwrap();
        let c = alloc_ptr_array(&mut mem, &mut s, SiteId::new(3), 1, Addr::NULL).unwrap();
        let seen: Vec<_> = walk(&mem, start, s.frontier()).map(|e| e.addr).collect();
        assert_eq!(seen, vec![a, b, c]);
    }

    #[test]
    fn walk_recovers_size_of_forwarded_objects() {
        let mut mem = Memory::with_capacity_words(512);
        let mut s = Space::new(mem.reserve(256).unwrap());
        let start = s.frontier();
        let a = alloc_record(&mut mem, &mut s, SiteId::new(1), &[7, 8, 9], 0).unwrap();
        let b = alloc_record(&mut mem, &mut s, SiteId::new(2), &[1], 0).unwrap();
        let end = s.frontier();
        // Simulate a's evacuation to a second space.
        let mut to = Space::new(mem.reserve(32).unwrap());
        let h = header(&mem, a);
        let copy = to.alloc(h.size_words()).unwrap();
        mem.copy_words(a, copy, h.size_words());
        set_header(&mut mem, a, Header::forward(copy).with_site(h.site()));

        let entries: Vec<_> = walk(&mem, start, end).collect();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].forwarded, Some(copy));
        assert_eq!(entries[0].header.len(), 3);
        // The site tag at the original address survives forwarding.
        assert_eq!(mem.site_of(entries[0].addr), SiteId::new(1));
        assert_eq!(entries[1].addr, b);
        assert_eq!(entries[1].forwarded, None);
    }
}
