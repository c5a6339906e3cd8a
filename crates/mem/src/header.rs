use std::fmt;

use crate::{Addr, MemError, SiteId};

/// Maximum number of fields in a record (bounded by the header pointer-mask
/// width).
pub const MAX_RECORD_FIELDS: usize = 24;

/// Width of the record pointer mask, in bits. Equal to
/// [`MAX_RECORD_FIELDS`].
pub const MAX_PTR_MASK_FIELDS: usize = MAX_RECORD_FIELDS;

/// Maximum payload length an array header can encode: 2³⁰ − 1 words for
/// pointer arrays, 2³⁰ − 1 bytes for raw arrays.
const MAX_ARRAY_LEN: usize = (1 << 30) - 1;

const KIND_RECORD: u64 = 0;
const KIND_PTR_ARRAY: u64 = 1;
const KIND_RAW_ARRAY: u64 = 2;
const KIND_FORWARD: u64 = 3;

/// The site id sits above the widest kind-specific field — a forwarding
/// header's 32-bit address at bits 2..33 — so it has the same place in
/// every header, forwarding headers included.
const SITE_SHIFT: u32 = 34;
const SITE_MASK: u64 = 0xffff << SITE_SHIFT;
const AGE_SHIFT: u32 = 50;
const AGE_MASK: u64 = 0xff << AGE_SHIFT;

/// The runtime category of a heap object.
///
/// TIL's *nearly tag-free* representation means these three categories are
/// the only ones the collector ever sees (§2.2 of the paper): word-sized
/// integers are unboxed and indistinguishable from pointers except through
/// the header mask or the stack trace tables, and floating-point arrays are
/// unboxed raw arrays.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ObjectKind {
    /// A record of up to [`MAX_RECORD_FIELDS`] word-sized fields; the header
    /// carries a bitmask saying which fields are pointers.
    Record,
    /// An array whose every element is a (possibly null) pointer.
    PtrArray,
    /// An array of raw bytes — never scanned (holds unboxed floats, string
    /// data, bignum limbs, ...).
    RawArray,
}

impl fmt::Display for ObjectKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ObjectKind::Record => "record",
            ObjectKind::PtrArray => "pointer array",
            ObjectKind::RawArray => "raw array",
        };
        f.write_str(s)
    }
}

/// The single tag word that precedes every heap object.
///
/// Bit layout (LSB first):
///
/// ```text
/// kind = record:     | kind:2 | len:5 | mask:24 | pad:3 | site:16 | age:8 | pad:6 |
/// kind = ptr array:  | kind:2 | len(words):30   | pad:2 | site:16 | age:8 | pad:6 |
/// kind = raw array:  | kind:2 | len(bytes):30   | pad:2 | site:16 | age:8 | pad:6 |
/// kind = forward:    | kind:2 | to:32                   | site:16 | pad:14        |
/// ```
///
/// `site` is the [`SiteId`] of the allocation site that created the
/// object — the id TIL's profiling mode prepends to every object (§6).
/// It is stamped once, at allocation ([`with_site`](Self::with_site)),
/// travels with the object when it is copied, and stays behind in the
/// forwarding header, so [`site`](Self::site) reads the same field
/// whatever the kind. `age` counts minor collections survived (used by
/// the tenure-threshold collector variant, §7.2). What a header carries
/// is the object's immutable identity; the mutable collector state — the
/// write barrier's dirty bit, the large-object mark bit — is side
/// metadata (see [`crate::side`]). During collection the header of a
/// copied object is overwritten with a *forwarding* header pointing at
/// the new copy, exactly as in Cheney's algorithm.
///
/// # Example
///
/// ```
/// use tilgc_mem::{Header, ObjectKind, Addr, SiteId};
///
/// let h = Header::record(3, 0b101).unwrap();
/// assert_eq!(h.kind(), ObjectKind::Record);
/// assert_eq!(h.len(), 3);
/// assert!(h.field_is_pointer(0) && !h.field_is_pointer(1));
/// assert_eq!(h.size_words(), 4); // header + 3 fields
///
/// let f = Header::forward(Addr::new(64));
/// assert_eq!(f.forward_addr(), Some(Addr::new(64)));
///
/// let site = SiteId::new(7);
/// let h = h.with_site(site);
/// assert_eq!(Header::forward(Addr::new(64)).with_site(h.site()).site(), site);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Header(u64);

impl Header {
    /// Builds a record header.
    ///
    /// `mask` bit *i* set means field *i* is a pointer.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::ObjectTooLarge`] if `len > MAX_RECORD_FIELDS`.
    ///
    /// # Panics
    ///
    /// Panics if `mask` has bits set at or above `len` — that is a
    /// compiler-side bug, not a runtime condition.
    #[inline]
    pub fn record(len: usize, mask: u32) -> Result<Header, MemError> {
        if len > MAX_RECORD_FIELDS {
            return Err(MemError::ObjectTooLarge { words: len });
        }
        assert!(
            len == 32 || mask < (1u32 << len),
            "pointer mask {mask:#b} wider than record length {len}"
        );
        Ok(Header(
            KIND_RECORD | ((len as u64) << 2) | (u64::from(mask) << 7),
        ))
    }

    /// Builds a pointer-array header for `len` pointer elements.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::ObjectTooLarge`] if `len` exceeds the 30-bit
    /// length field.
    #[inline]
    pub fn ptr_array(len: usize) -> Result<Header, MemError> {
        if len > MAX_ARRAY_LEN {
            return Err(MemError::ObjectTooLarge { words: len });
        }
        Ok(Header(KIND_PTR_ARRAY | ((len as u64) << 2)))
    }

    /// Builds a raw-array header for `len_bytes` bytes of unscanned data.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::ObjectTooLarge`] if `len_bytes` exceeds the
    /// 30-bit length field.
    #[inline]
    pub fn raw_array(len_bytes: usize) -> Result<Header, MemError> {
        if len_bytes > MAX_ARRAY_LEN {
            return Err(MemError::ObjectTooLarge {
                words: crate::bytes_to_words(len_bytes),
            });
        }
        Ok(Header(KIND_RAW_ARRAY | ((len_bytes as u64) << 2)))
    }

    /// Builds a forwarding header pointing at the copied object.
    #[inline]
    pub const fn forward(to: Addr) -> Header {
        Header(KIND_FORWARD | ((to.raw() as u64) << 2))
    }

    /// Reinterprets a raw memory word as a header.
    #[inline]
    pub const fn from_raw(word: u64) -> Header {
        Header(word)
    }

    /// The raw word representation, as stored in memory.
    #[inline]
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Returns `true` if this is a forwarding header.
    #[inline]
    pub const fn is_forward(self) -> bool {
        self.0 & 0b11 == KIND_FORWARD
    }

    /// The forwarding destination, if this is a forwarding header.
    #[inline]
    pub fn forward_addr(self) -> Option<Addr> {
        if self.is_forward() {
            Some(Addr::new((self.0 >> 2) as u32))
        } else {
            None
        }
    }

    /// The object kind.
    ///
    /// # Panics
    ///
    /// Panics if the header is a forwarding header; check
    /// [`is_forward`](Self::is_forward) first when scanning during a
    /// collection.
    #[inline]
    pub fn kind(self) -> ObjectKind {
        match self.0 & 0b11 {
            KIND_RECORD => ObjectKind::Record,
            KIND_PTR_ARRAY => ObjectKind::PtrArray,
            KIND_RAW_ARRAY => ObjectKind::RawArray,
            _ => panic!("kind() called on forwarding header {:#x}", self.0),
        }
    }

    /// The payload length: field count for records, element count for
    /// pointer arrays, byte count for raw arrays.
    #[inline]
    pub fn len(self) -> usize {
        debug_assert!(!self.is_forward());
        if self.0 & 0b11 == KIND_RECORD {
            ((self.0 >> 2) & 0x1f) as usize
        } else {
            ((self.0 >> 2) & 0x3fff_ffff) as usize
        }
    }

    /// Returns `true` if the payload is empty.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.len() == 0
    }

    /// The record pointer mask. Zero for arrays.
    #[inline]
    pub fn ptr_mask(self) -> u32 {
        if self.0 & 0b11 == KIND_RECORD {
            ((self.0 >> 7) & 0xff_ffff) as u32
        } else {
            0
        }
    }

    /// Whether field `i` of this object is a pointer.
    ///
    /// Records consult the mask; every pointer-array element is a pointer;
    /// raw-array bytes never are.
    #[inline]
    pub fn field_is_pointer(self, i: usize) -> bool {
        match self.0 & 0b11 {
            KIND_RECORD => (self.ptr_mask() >> i) & 1 == 1,
            KIND_PTR_ARRAY => true,
            _ => false,
        }
    }

    /// The allocation site of the object — read from the same bits in
    /// every kind of header, forwarding headers included.
    #[inline]
    pub const fn site(self) -> SiteId {
        SiteId::new(((self.0 & SITE_MASK) >> SITE_SHIFT) as u16)
    }

    /// A copy of this header with the site replaced. Valid on every kind,
    /// so a forwarding header can keep the site of the object it replaced.
    #[inline]
    pub const fn with_site(self, site: SiteId) -> Header {
        Header((self.0 & !SITE_MASK) | ((site.get() as u64) << SITE_SHIFT))
    }

    /// Number of minor collections this object has survived (saturating at
    /// 255).
    #[inline]
    pub fn age(self) -> u8 {
        debug_assert!(!self.is_forward());
        ((self.0 & AGE_MASK) >> AGE_SHIFT) as u8
    }

    /// A copy of this header with the age replaced.
    #[inline]
    pub fn with_age(self, age: u8) -> Header {
        debug_assert!(!self.is_forward());
        Header((self.0 & !AGE_MASK) | (u64::from(age) << AGE_SHIFT))
    }

    /// Payload size in whole words (excluding the header word).
    #[inline]
    pub fn payload_words(self) -> usize {
        match self.0 & 0b11 {
            KIND_RAW_ARRAY => crate::bytes_to_words(self.len()),
            _ => self.len(),
        }
    }

    /// Total object size in words, including the header word.
    #[inline]
    pub fn size_words(self) -> usize {
        1 + self.payload_words()
    }

    /// Total object size in bytes, including the header word. This is the
    /// quantity the paper's "Data copied (bytes)" columns count.
    #[inline]
    pub fn size_bytes(self) -> usize {
        crate::words_to_bytes(self.size_words())
    }
}

impl fmt::Debug for Header {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(to) = self.forward_addr() {
            return write!(f, "Header(forward -> {to} {})", self.site());
        }
        write!(
            f,
            "Header({} len={} mask={:#b} {} age={})",
            self.kind(),
            self.len(),
            self.ptr_mask(),
            self.site(),
            self.age()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_round_trip() {
        let h = Header::record(24, 0xaa_aaaa & ((1 << 24) - 1)).unwrap();
        assert_eq!(h.kind(), ObjectKind::Record);
        assert_eq!(h.len(), 24);
        assert_eq!(h.ptr_mask(), 0xaa_aaaa);
        assert_eq!(h.age(), 0);
        assert_eq!(h.size_words(), 25);
        assert!(!h.is_forward());
    }

    #[test]
    fn record_too_long_is_rejected() {
        assert_eq!(
            Header::record(25, 0),
            Err(MemError::ObjectTooLarge { words: 25 })
        );
    }

    #[test]
    #[should_panic(expected = "pointer mask")]
    fn record_mask_wider_than_len_panics() {
        let _ = Header::record(2, 0b100);
    }

    #[test]
    fn ptr_array_round_trip() {
        let h = Header::ptr_array(1000).unwrap();
        assert_eq!(h.kind(), ObjectKind::PtrArray);
        assert_eq!(h.len(), 1000);
        assert!(h.field_is_pointer(999));
        assert_eq!(h.size_words(), 1001);
    }

    #[test]
    fn raw_array_rounds_bytes_up_to_words() {
        let h = Header::raw_array(17).unwrap();
        assert_eq!(h.kind(), ObjectKind::RawArray);
        assert_eq!(h.len(), 17);
        assert_eq!(h.payload_words(), 3);
        assert_eq!(h.size_words(), 4);
        assert!(!h.field_is_pointer(0));
    }

    #[test]
    fn empty_objects() {
        let h = Header::record(0, 0).unwrap();
        assert!(h.is_empty());
        assert_eq!(h.size_words(), 1);
        let h = Header::raw_array(0).unwrap();
        assert!(h.is_empty());
        assert_eq!(h.size_words(), 1);
    }

    #[test]
    fn oversized_arrays_are_rejected() {
        assert!(Header::ptr_array(1 << 30).is_err());
        assert!(Header::raw_array(1 << 30).is_err());
        assert!(Header::ptr_array((1 << 30) - 1).is_ok());
    }

    #[test]
    fn forwarding() {
        let h = Header::forward(Addr::new(0xdead));
        assert!(h.is_forward());
        assert_eq!(h.forward_addr(), Some(Addr::new(0xdead)));
        let n = Header::ptr_array(1).unwrap();
        assert_eq!(n.forward_addr(), None);
    }

    #[test]
    fn age_is_independent_of_other_fields() {
        let h = Header::record(3, 0b111).unwrap();
        let aged = h.with_age(9);
        assert_eq!(aged.age(), 9);
        assert_eq!(aged.len(), h.len());
        assert_eq!(aged.ptr_mask(), h.ptr_mask());
        assert_eq!(aged.with_age(0), h);
    }

    const SITES: [SiteId; 3] = [SiteId::new(0), SiteId::new(1), SiteId::MAX];

    #[test]
    fn site_round_trip() {
        let h = Header::record(2, 0b01).unwrap();
        assert_eq!(h.site(), SiteId::UNKNOWN, "a new header carries no site");
        assert_eq!(h.with_site(SiteId::new(777)).site(), SiteId::new(777));
        assert_eq!(h.with_site(SiteId::new(777)).with_site(SiteId::UNKNOWN), h);
    }

    #[test]
    fn site_survives_every_kind_and_disturbs_no_field() {
        let full = (1u32 << MAX_RECORD_FIELDS) - 1;
        let longest = MAX_ARRAY_LEN;
        for site in SITES {
            let rec = Header::record(MAX_RECORD_FIELDS, full)
                .unwrap()
                .with_site(site);
            assert_eq!(rec.site(), site);
            assert_eq!(rec.kind(), ObjectKind::Record);
            assert_eq!(rec.len(), MAX_RECORD_FIELDS);
            assert_eq!(rec.ptr_mask(), full);
            assert_eq!(rec.age(), 0);

            let arr = Header::ptr_array(longest).unwrap().with_site(site);
            assert_eq!(arr.site(), site);
            assert_eq!(arr.kind(), ObjectKind::PtrArray);
            assert_eq!(arr.len(), longest);
            assert_eq!(arr.age(), 0);

            let raw = Header::raw_array(longest).unwrap().with_site(site);
            assert_eq!(raw.site(), site);
            assert_eq!(raw.kind(), ObjectKind::RawArray);
            assert_eq!(raw.len(), longest);
            assert_eq!(raw.age(), 0);

            for h in [rec, arr, raw] {
                let aged = h.with_age(255);
                assert_eq!(aged.site(), site, "the age leaves the site alone");
                assert_eq!(aged.age(), 255);
                assert_eq!((aged.len(), aged.ptr_mask()), (h.len(), h.ptr_mask()));
                assert_eq!(
                    aged.with_site(site).age(),
                    255,
                    "the site leaves the age alone"
                );
                assert_eq!(aged.with_age(0), h);
            }

            let fwd = Header::forward(Addr::new(u32::MAX)).with_site(site);
            assert!(fwd.is_forward());
            assert_eq!(fwd.forward_addr(), Some(Addr::new(u32::MAX)));
            assert_eq!(fwd.site(), site, "a forwarding header keeps the site");
            assert_eq!(Header::forward(Addr::new(u32::MAX)).site(), SiteId::UNKNOWN);
        }
    }

    #[test]
    fn dirty_bit_lives_in_side_metadata_not_the_header() {
        // Re-homed from the old `Header::is_dirty`/`with_dirty` API: the
        // dirty bit is per-address side metadata now, orthogonal to
        // everything the header encodes.
        let mut mem = crate::Memory::with_capacity_words(64);
        let a = Addr::new(9);
        assert!(!mem.is_dirty(a));
        mem.set_dirty(a);
        assert!(mem.is_dirty(a));
        // Independent of the header stored at the same address.
        mem.set_word(a, Header::ptr_array(4).unwrap().raw());
        assert!(mem.is_dirty(a));
        assert_eq!(Header::from_raw(mem.word(a)).len(), 4);
        mem.clear_dirty(a);
        assert!(!mem.is_dirty(a));
        assert_eq!(Header::from_raw(mem.word(a)).len(), 4);
    }

    #[test]
    fn raw_word_round_trip() {
        let h = Header::ptr_array(5).unwrap();
        assert_eq!(Header::from_raw(h.raw()), h);
    }

    #[test]
    #[should_panic(expected = "kind() called on forwarding header")]
    fn kind_of_forward_panics() {
        let _ = Header::forward(Addr::new(1)).kind();
    }
}
