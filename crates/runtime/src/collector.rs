//! The interface between the mutator and a garbage collector.
//!
//! The runtime owns the stack, registers, write barrier and handler chain
//! and the simulated [`Memory`] itself (everything the mutator touches —
//! a load or a store is an instruction of the program, §2.1); a
//! [`Collector`] owns the *spaces* it carved out of that memory and the
//! policy over them, and is handed the memory at each of its three entry
//! points. Between entries it lends the mutator a window of its
//! allocation space ([`MutatorState::lend_window`]) that
//! [`Vm`](crate::Vm) bumps through on its own; a request the window
//! cannot serve goes through the door, [`Collector::alloc`], where the
//! collector places it itself — scanning the mutator state for roots,
//! relocating live data and retrying when space has run out.
//!
//! Each collection leaves one record behind, a
//! [`CollectionEnd`](tilgc_obs::CollectionEnd) the collector builds
//! whether or not anyone records it and keeps until the next one
//! ([`Collector::last_inspection`]); a recorder, when one is installed,
//! gets a clone as its `collection-end` event.

use tilgc_mem::{Addr, GcError, Header, Memory, ObjectKind, SiteId};
use tilgc_obs::CollectionEnd;

use crate::mutator::MutatorState;
use crate::profile_data::HeapProfile;
use crate::stats::GcStats;
use crate::value::Value;

/// An initial field word of a new object, in either form an allocation
/// holds it: the typed [`Value`] the program passed, or the bare word
/// staged in [`MutatorState::alloc_buf`].
pub trait Operand: Copy {
    /// The word stored in the object.
    fn to_word(self) -> u64;
}

impl Operand for u64 {
    #[inline]
    fn to_word(self) -> u64 {
        self
    }
}

impl Operand for Value {
    #[inline]
    fn to_word(self) -> u64 {
        Value::to_word(self)
    }
}

/// The shape of a requested allocation.
///
/// The *contents* (initial field words) travel separately, in
/// [`MutatorState::alloc_buf`]: the collector treats that buffer as a root
/// area during any collection the allocation triggers, which models the
/// argument registers a compiled allocation sequence would hold its
/// operands in. By the time the collector initializes the new object, the
/// buffer has been relocated along with everything else.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AllocShape {
    /// A record; field words come from the alloc buffer.
    Record {
        /// Allocation site.
        site: SiteId,
        /// Number of fields.
        len: usize,
        /// Pointer mask (bit *i* set ⇒ field *i* is a pointer).
        mask: u32,
    },
    /// A pointer array; the single alloc-buffer word is the initializer.
    PtrArray {
        /// Allocation site.
        site: SiteId,
        /// Element count.
        len: usize,
    },
    /// A zero-filled raw array; the alloc buffer is unused.
    RawArray {
        /// Allocation site.
        site: SiteId,
        /// Payload size in bytes.
        len_bytes: usize,
    },
}

impl AllocShape {
    /// The allocation site of the request.
    pub fn site(&self) -> SiteId {
        match *self {
            AllocShape::Record { site, .. }
            | AllocShape::PtrArray { site, .. }
            | AllocShape::RawArray { site, .. } => site,
        }
    }

    /// Total words the object will occupy, including its header.
    pub fn size_words(&self) -> usize {
        match *self {
            AllocShape::Record { len, .. } => 1 + len,
            AllocShape::PtrArray { len, .. } => 1 + len,
            AllocShape::RawArray { len_bytes, .. } => 1 + tilgc_mem::bytes_to_words(len_bytes),
        }
    }

    /// Total bytes the object will occupy, including its header.
    pub fn size_bytes(&self) -> usize {
        tilgc_mem::words_to_bytes(self.size_words())
    }

    /// The broad shape class of the request, for [`GcError`] reporting.
    pub fn kind(&self) -> ObjectKind {
        match self {
            AllocShape::Record { .. } => ObjectKind::Record,
            AllocShape::PtrArray { .. } => ObjectKind::PtrArray,
            AllocShape::RawArray { .. } => ObjectKind::RawArray,
        }
    }

    /// Writes a freshly allocated object of this shape at `addr`: the
    /// header, which carries the site, and the fields initialized from
    /// `operands` (the program's [`Value`]s on a window hit, the words
    /// staged in [`MutatorState::alloc_buf`] behind the door). The one
    /// place an object's layout is written down.
    ///
    /// # Panics
    ///
    /// Panics if the shape is invalid (over-long record); shapes are
    /// validated by the `Vm` entry points before they reach a collector.
    //
    // Forced inline: on `Vm`'s hit path the shape and often the operands
    // are known at the call site, and only an inlined writer folds them.
    #[inline(always)]
    pub fn write<T: Operand>(&self, mem: &mut Memory, addr: Addr, operands: &[T]) {
        match *self {
            AllocShape::Record { site, len, mask } => {
                let header = Header::record(len, mask).expect("record shape validated by Vm");
                let words = mem.words_at_mut(addr, header.size_words());
                words[0] = header.with_site(site).raw();
                for (word, operand) in words[1..].iter_mut().zip(&operands[..len]) {
                    *word = operand.to_word();
                }
            }
            AllocShape::PtrArray { site, len } => {
                let header = Header::ptr_array(len).expect("array shape validated by Vm");
                let init = operands.first().map_or(0, |o| o.to_word());
                let words = mem.words_at_mut(addr, header.size_words());
                words[0] = header.with_site(site).raw();
                words[1..].fill(init);
            }
            AllocShape::RawArray { site, len_bytes } => {
                let header = Header::raw_array(len_bytes).expect("array shape validated by Vm");
                let words = mem.words_at_mut(addr, header.size_words());
                words[0] = header.with_site(site).raw();
                words[1..].fill(0);
            }
        }
    }
}

/// Why a collection was requested.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CollectReason {
    /// An allocation did not fit in the allocation space.
    AllocFailure,
    /// The embedder forced a collection.
    Forced,
    /// The embedder forced a *major* collection (meaningful for
    /// generational collectors; others treat it as `Forced`).
    ForcedMajor,
}

impl CollectReason {
    /// The trigger's wire name, as a `collection-begin` event carries it.
    pub fn as_str(self) -> &'static str {
        match self {
            CollectReason::Forced => "forced",
            CollectReason::ForcedMajor => "forced-major",
            CollectReason::AllocFailure => "alloc-failure",
        }
    }
}

/// A garbage collector over a [`Memory`] the [`Vm`](crate::Vm) owns.
///
/// The collector sizes the memory and reserves its spaces in it when it
/// is built, then hands it to whoever builds the `Vm`; from then on it
/// sees it only as the `mem` argument of [`alloc`](Collector::alloc),
/// [`collect`](Collector::collect) and [`finish`](Collector::finish) —
/// always the one memory its spaces were reserved in. There is no
/// accessor for it here: the mutator's loads and stores never come
/// through the collector.
///
/// Implementations live in `tilgc-core`: the semispace baseline, the
/// generational collector, and the generational collector extended with
/// stack markers and pretenuring.
pub trait Collector {
    /// A short human-readable name ("semispace", "generational", ...).
    fn name(&self) -> &'static str;

    /// Allocates an object, collecting first if necessary. Entered only
    /// on a window miss: [`Vm`](crate::Vm) serves what fits the lent
    /// window itself and comes here for the rest — a full window, an
    /// array over the large-object threshold, a routed site — with the
    /// operands staged in [`MutatorState::alloc_buf`]. Correct at any
    /// time, whether or not a window is out: an implementation that lends
    /// takes its cursor back first.
    ///
    /// # Errors
    ///
    /// Returns a [`GcError`] when even the full heap-pressure escalation
    /// ladder (retry after minor, retry after major, budget rebalance,
    /// pretenuring demotion) cannot make the request fit within the fixed
    /// heap budget. The error names the exhausted space; the VM converts
    /// it into a catchable `HeapOverflow` raise for the guest program.
    fn alloc(
        &mut self,
        mem: &mut Memory,
        mutator: &mut MutatorState,
        shape: AllocShape,
    ) -> Result<Addr, GcError>;

    /// Runs a collection now.
    fn collect(&mut self, mem: &mut Memory, mutator: &mut MutatorState, reason: CollectReason);

    /// Cumulative collection statistics.
    fn gc_stats(&self) -> &GcStats;

    /// End-of-run hook: bring the lent allocation window home, run a
    /// final sweep, etc.
    ///
    /// Deliberately *not* defaulted: every implementation must state
    /// what — if anything — it does at the end of a run.
    fn finish(&mut self, mem: &mut Memory, mutator: &mut MutatorState);

    /// Extracts the heap profile gathered during the run, finished
    /// (`HeapProfile::finish`: objects still live are charged at the
    /// final clock), if profiling was enabled. Collectors that never
    /// profile return `None` explicitly; there is no default, for the
    /// same reason as [`finish`](Collector::finish).
    fn take_profile(&mut self) -> Option<HeapProfile>;

    /// The record of the most recent collection — the same
    /// [`CollectionEnd`] a recorder, when one is installed, is handed a
    /// copy of — or `None` if no collection has happened yet. It is what
    /// the collection *claims* it did, per collection (cumulative
    /// [`GcStats`] blur collections together), for an oracle such as
    /// `tilgc-core`'s `verify_collection` to hold against the heap.
    ///
    /// Not defaulted, for the same anti-drift reason as
    /// [`finish`](Collector::finish): a defaulted `None` would let a
    /// collector silently opt out of post-collection verification, which
    /// is exactly the accounting the differential torture harness exists
    /// to keep honest.
    fn last_inspection(&self) -> Option<&CollectionEnd>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use tilgc_mem::{object, Space};

    #[test]
    fn materialize_each_shape() {
        let mut mem = Memory::with_capacity_words(128);
        let mut s = Space::new(mem.reserve(64).unwrap());
        let mut place = |mem: &mut Memory, shape: AllocShape, operands: &[u64]| {
            let addr = s.alloc(shape.size_words()).unwrap();
            shape.write(mem, addr, operands);
            addr
        };

        let rec = place(
            &mut mem,
            AllocShape::Record {
                site: SiteId::new(1),
                len: 2,
                mask: 0b10,
            },
            &[11, 640],
        );
        assert_eq!(object::field(&mem, rec, 0), 11);
        assert!(object::header(&mem, rec).field_is_pointer(1));
        assert_eq!(mem.site_of(rec), SiteId::new(1));

        let arr = place(
            &mut mem,
            AllocShape::PtrArray {
                site: SiteId::new(2),
                len: 3,
            },
            &[u64::from(rec.raw())],
        );
        for i in 0..3 {
            assert_eq!(object::ptr_field(&mem, arr, i), rec);
        }

        let raw = place(
            &mut mem,
            AllocShape::RawArray {
                site: SiteId::new(3),
                len_bytes: 10,
            },
            &[0u64; 0],
        );
        assert_eq!(object::header(&mem, raw).payload_words(), 2);
        assert_eq!(object::field(&mem, raw, 0), 0);
    }

    #[test]
    fn shape_sizes() {
        let r = AllocShape::Record {
            site: SiteId::UNKNOWN,
            len: 3,
            mask: 0,
        };
        assert_eq!(r.size_words(), 4);
        assert_eq!(r.size_bytes(), 32);
        let p = AllocShape::PtrArray {
            site: SiteId::UNKNOWN,
            len: 10,
        };
        assert_eq!(p.size_words(), 11);
        let b = AllocShape::RawArray {
            site: SiteId::new(2),
            len_bytes: 9,
        };
        assert_eq!(b.size_words(), 3);
        assert_eq!(b.site(), SiteId::new(2));
    }
}
