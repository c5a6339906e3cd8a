//! Word-addressed simulated memory and object model for the `tilgc`
//! collectors.
//!
//! This crate is the lowest substrate of the reproduction of *Generational
//! Stack Collection and Profile-Driven Pretenuring* (Cheng, Harper, Lee;
//! PLDI 1998). It models the memory system of the TIL runtime:
//!
//! * a chunked, word-addressed address space ([`Memory`]) in which all
//!   heap spaces live — words are 64 bits, matching the DEC Alpha the
//!   paper measured on; bookkeeping is chunked ([`CHUNK_WORDS`]-sized
//!   chunks owned by spaces) while the backing store stays contiguous;
//! * a [`side`]-metadata layer hosting the per-word dirty and mark bits
//!   — the collector state that changes under an object — stored as
//!   plain zero-initialised bitmaps the OS commits on first write, with
//!   `memset`-style bulk clears bounded by a space's used extent;
//! * *nearly tag-free* heap objects in the TIL style: [`records`] whose
//!   single header word carries a pointer mask, pointer arrays, and raw
//!   (non-pointer) byte arrays ([`ObjectKind`]), each header also
//!   carrying the [`SiteId`] of the allocation site that created the
//!   object;
//! * bump-allocated [`Space`]s out of which collectors carve semispaces,
//!   nurseries, tenured areas and pretenured regions.
//!
//! Addresses are indices, not machine pointers, so the simulation is
//! safe Rust and fully deterministic.
//!
//! [`records`]: ObjectKind::Record
//!
//! # Example
//!
//! ```
//! use tilgc_mem::{Memory, Space, SiteId, object};
//!
//! let mut mem = Memory::with_capacity_words(1024);
//! let mut space = Space::new(mem.reserve(512).unwrap());
//! // Allocate a two-field record whose first field is a pointer.
//! let site = SiteId::new(7);
//! let addr = object::alloc_record(&mut mem, &mut space, site, &[0, 42], 0b01).unwrap();
//! let obj = object::view(&mem, addr);
//! assert_eq!(obj.len(), 2);
//! assert_eq!(obj.field(1), 42);
//! assert!(obj.field_is_pointer(0));
//! assert_eq!(obj.site(), site);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod addr;
mod error;
mod header;
mod memory;
pub mod object;
pub mod side;
mod site;
mod space;

pub use addr::Addr;
pub use error::{Arena, BudgetSnapshot, GcError, MemError};
pub use header::{Header, ObjectKind, MAX_PTR_MASK_FIELDS, MAX_RECORD_FIELDS};
pub use memory::{Memory, POISON, WORD_BYTES};
pub use object::Obj;
pub use side::{ChunkMap, SideBitmap, CHUNK_BYTES, CHUNK_WORDS};
pub use site::{SiteId, SiteRouteTable};
pub use space::{Space, SpaceRange};

/// Number of bytes occupied by `words` machine words.
#[inline]
pub const fn words_to_bytes(words: usize) -> usize {
    words * WORD_BYTES
}

/// Number of whole words needed to hold `bytes` bytes (rounded up).
#[inline]
pub const fn bytes_to_words(bytes: usize) -> usize {
    bytes.div_ceil(WORD_BYTES)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_word_round_trip() {
        assert_eq!(words_to_bytes(3), 24);
        assert_eq!(bytes_to_words(0), 0);
        assert_eq!(bytes_to_words(1), 1);
        assert_eq!(bytes_to_words(8), 1);
        assert_eq!(bytes_to_words(9), 2);
        assert_eq!(bytes_to_words(words_to_bytes(17)), 17);
    }
}
