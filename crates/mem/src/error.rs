use std::error::Error;
use std::fmt;

use crate::Addr;

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

/// The broad shape class of a failed allocation request.
///
/// Carried inside [`GcError`] so diagnostics can say *what kind* of object
/// the guest asked for without dragging the full shape (mask, site table)
/// across the error path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocKind {
    /// A fixed-shape record with a pointer mask.
    Record,
    /// An array of guest pointers.
    PtrArray,
    /// An array of raw (pointer-free) bytes.
    RawArray,
}

impl fmt::Display for AllocKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AllocKind::Record => "record",
            AllocKind::PtrArray => "pointer array",
            AllocKind::RawArray => "raw array",
        })
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
/// space that could not be grown any further; the runtime converts it into
/// a catchable `HeapOverflow` raise through the guest handler chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum GcError {
    /// The nursery cannot hold the request even when empty.
    NurseryExhausted {
        /// Shape class of the failed request.
        kind: AllocKind,
        /// Words requested by the allocation.
        requested_words: usize,
        /// Budget picture at the point of failure.
        budget: BudgetSnapshot,
    },
    /// The tenured arena (or the whole heap, for single-space plans)
    /// cannot absorb the request within the global budget.
    TenuredExhausted {
        /// Shape class of the failed request.
        kind: AllocKind,
        /// Words requested by the allocation.
        requested_words: usize,
        /// Budget picture at the point of failure.
        budget: BudgetSnapshot,
    },
    /// The large-object space has no run of free words big enough.
    LargeObjectExhausted {
        /// Shape class of the failed request.
        kind: AllocKind,
        /// Words requested by the allocation.
        requested_words: usize,
        /// Budget picture at the point of failure.
        budget: BudgetSnapshot,
    },
}

impl GcError {
    /// The shape class of the failed request.
    pub fn kind(&self) -> AllocKind {
        match *self {
            GcError::NurseryExhausted { kind, .. }
            | GcError::TenuredExhausted { kind, .. }
            | GcError::LargeObjectExhausted { kind, .. } => kind,
        }
    }

    /// Words the failed allocation asked for.
    pub fn requested_words(&self) -> usize {
        match *self {
            GcError::NurseryExhausted {
                requested_words, ..
            }
            | GcError::TenuredExhausted {
                requested_words, ..
            }
            | GcError::LargeObjectExhausted {
                requested_words, ..
            } => requested_words,
        }
    }

    /// The budget picture captured when the ladder gave up.
    pub fn budget(&self) -> BudgetSnapshot {
        match *self {
            GcError::NurseryExhausted { budget, .. }
            | GcError::TenuredExhausted { budget, .. }
            | GcError::LargeObjectExhausted { budget, .. } => budget,
        }
    }

    /// The wire name of the exhausted space ("nursery", "tenured", "los").
    pub fn space(&self) -> &'static str {
        match self {
            GcError::NurseryExhausted { .. } => "nursery",
            GcError::TenuredExhausted { .. } => "tenured",
            GcError::LargeObjectExhausted { .. } => "los",
        }
    }
}

impl fmt::Display for GcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} space exhausted: {} of {} words does not fit \
             ({} words free, {} live, budget {} words)",
            self.space(),
            self.kind(),
            self.requested_words(),
            self.budget().free_words,
            self.budget().live_words,
            self.budget().budget_words,
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
            GcError::NurseryExhausted {
                kind: AllocKind::Record,
                requested_words: 8,
                budget,
            },
            GcError::TenuredExhausted {
                kind: AllocKind::PtrArray,
                requested_words: 64,
                budget,
            },
            GcError::LargeObjectExhausted {
                kind: AllocKind::RawArray,
                requested_words: 512,
                budget,
            },
        ];
        for e in errors {
            let s = e.to_string();
            assert!(!s.is_empty());
            assert!(s.chars().next().unwrap().is_lowercase());
            assert!(s.contains(e.space()));
        }
    }

    #[test]
    fn gc_error_accessors_round_trip() {
        let e = GcError::LargeObjectExhausted {
            kind: AllocKind::PtrArray,
            requested_words: 4096,
            budget: BudgetSnapshot {
                budget_words: 8192,
                free_words: 100,
                live_words: 8000,
            },
        };
        assert_eq!(e.kind(), AllocKind::PtrArray);
        assert_eq!(e.requested_words(), 4096);
        assert_eq!(e.budget().free_words, 100);
        assert_eq!(e.space(), "los");
    }
}
