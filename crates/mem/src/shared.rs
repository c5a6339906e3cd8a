//! Shared, atomic views of the simulated address space for parallel
//! collection.
//!
//! Parallel tracing workers race to *claim* from-space objects: the
//! winner installs a busy sentinel in the object's header with a CAS,
//! copies the payload, then publishes the forwarding pointer with a
//! release store. Losers spin until the forwarding pointer appears. That
//! protocol needs atomic access to the word array, which the safe
//! [`Memory`](crate::Memory) accessors cannot provide — so this module
//! reinterprets the exclusively borrowed `&mut [u64]` as `&[AtomicU64]`.
//! The side metadata takes the same road: it is stored as plain,
//! lazily committed `u64` / `u16` arrays (see [`crate::side`]) and its
//! [`SideMetaView`](crate::SideMetaView) borrows them through the same
//! cast, [`as_atomics`].
//!
//! That one function is the only `unsafe` code in the workspace. It is
//! sound because:
//!
//! * `AtomicU64` / `AtomicU16` have the same in-memory representation
//!   as `u64` / `u16` — identical size and alignment are checked at
//!   compile time beside each [`AtomicTwin`] impl, and every bit
//!   pattern is valid for both sides of the cast, and
//! * the view is constructed from a `&mut` borrow, so for its lifetime
//!   no non-atomic access to the same elements can exist.

use std::mem::{align_of, size_of};
use std::sync::atomic::{AtomicU16, AtomicU64, Ordering};

use crate::{Addr, Header};

/// A plain integer whose atomic twin has the identical layout — what
/// [`as_atomics`] may cast between. Implemented only through
/// `atomic_twin!`, which pins the layout beside every impl.
pub(crate) trait AtomicTwin: Sized {
    /// The atomic type of identical size, alignment and validity.
    type Atomic;
}

macro_rules! atomic_twin {
    ($plain:ty => $atomic:ty) => {
        const _: () = assert!(size_of::<$plain>() == size_of::<$atomic>());
        const _: () = assert!(align_of::<$plain>() == align_of::<$atomic>());
        impl AtomicTwin for $plain {
            type Atomic = $atomic;
        }
    };
}
atomic_twin!(u64 => AtomicU64);
atomic_twin!(u16 => AtomicU16);

/// Hands out an exclusively borrowed plain array as shared atomics.
#[allow(unsafe_code)]
pub(crate) fn as_atomics<T: AtomicTwin>(plain: &mut [T]) -> &[T::Atomic] {
    let len = plain.len();
    let ptr = plain.as_mut_ptr().cast::<T::Atomic>();
    // SAFETY: `T::Atomic` has the same size and alignment as `T`
    // (compile-time asserts beside every `AtomicTwin` impl) and both
    // are integers valid for any bit pattern, so the pointer is valid
    // and aligned for `len` elements; `plain` is a unique `&mut`
    // borrow that the returned slice keeps alive, so handing the range
    // out as shared atomics cannot race with any non-atomic access for
    // the view's lifetime.
    unsafe { std::slice::from_raw_parts(ptr, len) }
}

/// An atomic window over the whole simulated address space.
///
/// Copyable and `Sync`: every parallel worker holds the same view. All
/// accessors take absolute [`Addr`]s, like the `Memory` equivalents.
///
/// Plain data words use relaxed ordering — each is written by exactly
/// one worker (the claim winner for a copy, the sole scanner of a gray
/// object for a field update). Headers of from-space objects are the
/// contended words and use the claim/publish protocol:
/// [`try_claim`](SharedMemView::try_claim) (acquire-release CAS to the
/// [`BUSY`](SharedMemView::BUSY) sentinel) and
/// [`publish`](SharedMemView::publish) (release store of the forwarding
/// header), observed via
/// [`load_header_acquire`](SharedMemView::load_header_acquire).
#[derive(Clone, Copy, Debug)]
pub struct SharedMemView<'m> {
    words: &'m [AtomicU64],
}

impl<'m> SharedMemView<'m> {
    /// The busy sentinel a claiming worker installs between winning the
    /// CAS and publishing the real forwarding pointer: a forwarding
    /// header whose target is null. No real forwarding header ever
    /// points at null, so readers can distinguish "claimed, copy in
    /// flight" from "forwarded".
    pub const BUSY: u64 = Header::forward(Addr::NULL).raw();

    /// Builds the view over an exclusively borrowed word array.
    pub(crate) fn new(words: &'m mut [u64]) -> SharedMemView<'m> {
        SharedMemView {
            words: as_atomics(words),
        }
    }

    /// Number of words in the view.
    #[inline]
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Whether the view is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Reads the word at `addr` (relaxed).
    #[inline]
    pub fn load(&self, addr: Addr) -> u64 {
        debug_assert!(!addr.is_null(), "read through null address");
        self.words[addr.index()].load(Ordering::Relaxed)
    }

    /// Writes the word at `addr` (relaxed).
    #[inline]
    pub fn store(&self, addr: Addr, value: u64) {
        debug_assert!(!addr.is_null(), "write through null address");
        self.words[addr.index()].store(value, Ordering::Relaxed);
    }

    /// Reads the raw header word at `addr` with acquire ordering, so a
    /// forwarding header observed here makes the copied payload behind
    /// it visible too.
    #[inline]
    pub fn load_header_acquire(&self, addr: Addr) -> u64 {
        debug_assert!(!addr.is_null(), "read through null address");
        self.words[addr.index()].load(Ordering::Acquire)
    }

    /// Attempts to claim the object at `addr` for forwarding: CAS its
    /// header from `expected` to [`BUSY`](SharedMemView::BUSY).
    ///
    /// # Errors
    ///
    /// On failure returns the header word actually present — either
    /// `BUSY` (another worker is mid-copy; spin on
    /// [`load_header_acquire`](SharedMemView::load_header_acquire)) or
    /// a published forwarding header.
    #[inline]
    pub fn try_claim(&self, addr: Addr, expected: u64) -> Result<(), u64> {
        debug_assert!(!addr.is_null(), "claim through null address");
        self.words[addr.index()]
            .compare_exchange(expected, Self::BUSY, Ordering::AcqRel, Ordering::Acquire)
            .map(|_| ())
    }

    /// Publishes a header word at `addr` with release ordering. The
    /// claim winner calls this with the forwarding header once the
    /// payload copy is complete.
    #[inline]
    pub fn publish(&self, addr: Addr, header: u64) {
        debug_assert!(!addr.is_null(), "publish through null address");
        self.words[addr.index()].store(header, Ordering::Release);
    }

    /// Copies `len` words from `src` to `dst` (relaxed element-wise).
    /// Used by the parallel copy step: the destination is private to
    /// the claiming worker until [`publish`](SharedMemView::publish).
    pub fn copy_words(&self, src: Addr, dst: Addr, len: usize) {
        debug_assert!(len == 0 || (!src.is_null() && !dst.is_null()));
        let (s, d) = (src.index(), dst.index());
        for i in 0..len {
            self.words[d + i].store(self.words[s + i].load(Ordering::Relaxed), Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn busy_sentinel_is_a_null_forward() {
        let h = Header::from_raw(SharedMemView::BUSY);
        assert!(h.is_forward());
        assert!(h.forward_addr().unwrap().is_null());
    }

    #[test]
    fn as_atomics_borrows_the_plain_array_in_place() {
        let mut tags = vec![0u16, 7, 0];
        let atoms = as_atomics(&mut tags[..]);
        assert_eq!(atoms[1].load(Ordering::Relaxed), 7);
        atoms[2].store(0xbeef, Ordering::Relaxed);
        assert_eq!(tags, [0, 7, 0xbeef], "writes land in the backing array");
        assert!(as_atomics::<u64>(&mut []).is_empty());
    }

    #[test]
    fn load_store_round_trip() {
        let mut words = vec![0u64; 8];
        let view = SharedMemView::new(&mut words);
        assert_eq!(view.len(), 8);
        assert!(!view.is_empty());
        view.store(Addr::new(3), 0xfeed);
        assert_eq!(view.load(Addr::new(3)), 0xfeed);
        assert_eq!(words[3], 0xfeed, "writes land in the backing array");
    }

    #[test]
    fn claim_then_publish_protocol() {
        let mut words = vec![0u64; 8];
        let h = Header::record(2, 0b01).unwrap().raw();
        words[2] = h;
        let view = SharedMemView::new(&mut words);
        view.try_claim(Addr::new(2), h).expect("first claim wins");
        assert_eq!(
            view.try_claim(Addr::new(2), h),
            Err(SharedMemView::BUSY),
            "second claim sees the busy sentinel"
        );
        let fwd = Header::forward(Addr::new(5)).raw();
        view.publish(Addr::new(2), fwd);
        assert_eq!(view.load_header_acquire(Addr::new(2)), fwd);
    }

    #[test]
    fn copy_words_moves_payload() {
        let mut words = vec![0u64; 16];
        for (i, w) in words.iter_mut().enumerate().take(5).skip(1) {
            *w = 10 + i as u64;
        }
        let view = SharedMemView::new(&mut words);
        view.copy_words(Addr::new(1), Addr::new(9), 4);
        assert_eq!(view.load(Addr::new(9)), 11);
        assert_eq!(view.load(Addr::new(12)), 14);
    }

    #[test]
    fn concurrent_claims_elect_one_winner() {
        let mut words = vec![0u64; 64];
        let h = Header::record(1, 0).unwrap().raw();
        for w in words.iter_mut().skip(1) {
            *w = h;
        }
        let view = SharedMemView::new(&mut words);
        let wins: Vec<usize> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(move || {
                        let mut won = 0usize;
                        for i in 1..64u32 {
                            if view.try_claim(Addr::new(i), h).is_ok() {
                                won += 1;
                            }
                        }
                        won
                    })
                })
                .collect();
            handles.into_iter().map(|t| t.join().unwrap()).collect()
        });
        assert_eq!(wins.iter().sum::<usize>(), 63, "each word claimed once");
    }
}
