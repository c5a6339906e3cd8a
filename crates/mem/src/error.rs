use std::error::Error;
use std::fmt;

use crate::{Addr, ObjectKind};

/// Errors produced by the memory substrate.
///
/// Most accessor paths in this crate treat malformed addresses as collector
/// bugs and panic; `MemError` is reserved for conditions a caller can
/// legitimately react to, such as running out of reserved address space or
/// a space being too full to satisfy an allocation (the signal that a
/// garbage collection is required).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum MemError {
    /// The address space has no room left for another reservation.
    AddressSpaceExhausted {
        /// Words requested by the reservation.
        requested: usize,
        /// Words still unreserved.
        available: usize,
    },
    /// A bump allocation did not fit in the remaining part of its space.
    SpaceFull {
        /// Words requested by the allocation.
        requested: usize,
        /// Words still free in the space.
        available: usize,
    },
    /// An object was too large for the object-header encoding.
    ObjectTooLarge {
        /// Size of the rejected object, in words.
        words: usize,
    },
    /// An access touched memory outside the simulated address space.
    OutOfBounds {
        /// First address of the faulting access.
        addr: Addr,
        /// Length of the faulting access, in words.
        words: usize,
    },
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            MemError::AddressSpaceExhausted {
                requested,
                available,
            } => write!(
                f,
                "address space exhausted: requested {requested} words, {available} available"
            ),
            MemError::SpaceFull {
                requested,
                available,
            } => {
                write!(
                    f,
                    "space full: requested {requested} words, {available} available"
                )
            }
            MemError::ObjectTooLarge { words } => {
                write!(
                    f,
                    "object of {words} words exceeds the header encoding limits"
                )
            }
            MemError::OutOfBounds { addr, words } => {
                write!(f, "access of {words} words at {addr} is out of bounds")
            }
        }
    }
}

impl Error for MemError {}

/// Where an allocation request is routed, and — in a [`GcError`] —
/// which arena's share of the budget could not absorb it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arena {
    /// The young generation's allocation space.
    Nursery,
    /// The tenured generation (or the whole heap, for single-space plans).
    Tenured,
    /// The mark-sweep large-object space.
    Los,
}

impl Arena {
    /// The name used on the telemetry wire and in diagnostics.
    pub fn label(self) -> &'static str {
        match self {
            Arena::Nursery => "nursery",
            Arena::Tenured => "tenured",
            Arena::Los => "los",
        }
    }
}

/// A point-in-time picture of the heap budget when an allocation failed.
///
/// All figures are in words. `free_words` is the room left in the space
/// that rejected the request *after* the collector ran its full escalation
/// ladder, so `requested > free` explains the failure directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BudgetSnapshot {
    /// The fixed global heap budget the collector operates within.
    pub budget_words: usize,
    /// Words still allocatable in the space that rejected the request.
    pub free_words: usize,
    /// Words known live (retained by the last collection).
    pub live_words: usize,
}

/// A typed out-of-memory verdict from a collector plan.
///
/// Returned by `Collector::alloc` after the heap-pressure
/// governor has exhausted its escalation ladder (retry after minor, retry
/// after major, budget rebalance, pretenuring demotion). It names the
/// arena that could not be grown any further; the runtime converts it into
/// a catchable `HeapOverflow` raise through the guest handler chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GcError {
    /// The arena whose share of the budget is exhausted.
    pub arena: Arena,
    /// Shape class of the failed request.
    pub kind: ObjectKind,
    /// Words requested by the allocation.
    pub requested_words: usize,
    /// Budget picture at the point of failure.
    pub budget: BudgetSnapshot,
}

impl fmt::Display for GcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} space exhausted: {} of {} words does not fit \
             ({} words free, {} live, budget {} words)",
            self.arena.label(),
            self.kind,
            self.requested_words,
            self.budget.free_words,
            self.budget.live_words,
            self.budget.budget_words,
        )
    }
}

impl Error for GcError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_and_lowercase() {
        let errors = [
            MemError::AddressSpaceExhausted {
                requested: 8,
                available: 4,
            },
            MemError::SpaceFull {
                requested: 8,
                available: 4,
            },
            MemError::ObjectTooLarge { words: 1 << 40 },
            MemError::OutOfBounds {
                addr: Addr::new(9),
                words: 2,
            },
        ];
        for e in errors {
            let s = e.to_string();
            assert!(!s.is_empty());
            assert!(s.chars().next().unwrap().is_lowercase());
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<MemError>();
        assert_send_sync::<GcError>();
    }

    #[test]
    fn gc_error_display_is_nonempty_and_lowercase() {
        let budget = BudgetSnapshot {
            budget_words: 1024,
            free_words: 3,
            live_words: 900,
        };
        let errors = [
            (Arena::Nursery, ObjectKind::Record, 8),
            (Arena::Tenured, ObjectKind::PtrArray, 64),
            (Arena::Los, ObjectKind::RawArray, 512),
        ]
        .map(|(arena, kind, requested_words)| GcError {
            arena,
            kind,
            requested_words,
            budget,
        });
        for e in errors {
            let s = e.to_string();
            assert!(!s.is_empty());
            assert!(s.chars().next().unwrap().is_lowercase());
            assert!(s.starts_with(e.arena.label()));
        }
    }
}
