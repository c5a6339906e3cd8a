//! Worker-fault injection and the stall latch.
//!
//! The torture harness (and the unit tests) arm exactly one
//! [`WorkerFaultSpec`] per run: a deterministic `(worker, packet)`
//! coordinate at which the targeted worker misbehaves. All three fault
//! kinds fire at a *packet boundary* — after the packet is popped (and
//! recorded in the worker's in-flight slot) but before any of its items
//! are processed — so the packet carries zero partial charges and the
//! requeue/degradation paths reproduce the serial oracle's `GcStats`
//! exactly. A genuine (non-injected) mid-packet panic still preserves
//! heap correctness (forwarding is idempotent and claims are rolled
//! back), but its partial cycle charges are kept, so only wall-clock
//! and the fault counters may differ from the oracle in that case.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Condvar, Mutex};

use super::queue::lock_recover;

/// What the injected worker does when the fault fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkerFaultKind {
    /// The worker panics (inside the packet loop's `catch_unwind`): its
    /// in-flight packet is requeued and the worker retires as lost.
    Panic,
    /// The worker parks on the drain's stall latch and stops
    /// responding; the watchdog's wall-clock backstop marks it lost,
    /// requeues its packet, and releases the latch so the thread can
    /// join.
    Stall,
    /// The worker silently skips the packet — neither processing nor
    /// completing it. The orphan is discovered in the worker's
    /// in-flight slot after the workers join and is drained on the
    /// serial path (the `orphan` degradation trigger).
    Drop,
}

/// A deterministic single-shot worker fault: `worker`'s `packet`-th
/// packet pop (counted per worker, within one collection's parallel
/// drain) triggers `kind`. Plain data so it can live in `GcConfig`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WorkerFaultSpec {
    /// Which fault fires.
    pub kind: WorkerFaultKind,
    /// Target worker index (taken modulo the worker count).
    pub worker: usize,
    /// Target per-worker packet ordinal (0 = the worker's first pop).
    pub packet: usize,
}

/// Why a collection degraded to the serial path, for telemetry.
/// Encoded through an atomic (first writer wins) because the trigger
/// can be set from a worker thread or from the watchdog.
const TRIGGER_NONE: u8 = 0;
const TRIGGER_PANIC: u8 = 1;
const TRIGGER_WATCHDOG: u8 = 2;
const TRIGGER_BUDGET: u8 = 3;

/// Shared fault state for one parallel drain: the (already
/// worker-resolved) armed spec, the one-shot fired flag, the lost
/// counter, and the degradation trigger slot.
pub struct SectionFaults {
    spec: Option<WorkerFaultSpec>,
    fired: AtomicBool,
    lost: AtomicU64,
    trigger: AtomicU8,
    /// The stall fault's parking spot.
    pub latch: StallLatch,
}

impl SectionFaults {
    /// Builds the drain's fault state; `spec` is `None` when no fault is
    /// armed (or an earlier collection already fired it).
    pub fn new(spec: Option<WorkerFaultSpec>) -> SectionFaults {
        SectionFaults {
            spec,
            fired: AtomicBool::new(false),
            lost: AtomicU64::new(0),
            trigger: AtomicU8::new(TRIGGER_NONE),
            latch: StallLatch::new(),
        }
    }

    /// Whether worker `w`'s `packet_idx`-th pop should misbehave.
    /// Claims the one-shot flag, so at most one call ever fires.
    pub fn should_fire(&self, w: usize, packet_idx: usize) -> Option<WorkerFaultKind> {
        let spec = self.spec?;
        if spec.worker != w || spec.packet != packet_idx {
            return None;
        }
        self.fired
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
            .then_some(spec.kind)
    }

    /// Whether the armed fault (if any) fired during this drain.
    pub fn fired(&self) -> bool {
        self.fired.load(Ordering::Acquire)
    }

    /// Whether a stall fault is armed (forces the watchdog on).
    pub fn stall_armed(&self) -> bool {
        self.spec.is_some_and(|s| s.kind == WorkerFaultKind::Stall)
    }

    /// Records a worker loss with its degradation trigger
    /// (`"panic"`, `"watchdog"`, or `"budget"`); first trigger wins.
    pub fn note_lost(&self, trigger: &'static str) {
        self.lost.fetch_add(1, Ordering::AcqRel);
        let code = match trigger {
            "panic" => TRIGGER_PANIC,
            "watchdog" => TRIGGER_WATCHDOG,
            "budget" => TRIGGER_BUDGET,
            _ => unreachable!("unknown loss trigger {trigger}"),
        };
        let _ =
            self.trigger
                .compare_exchange(TRIGGER_NONE, code, Ordering::AcqRel, Ordering::Acquire);
    }

    /// Workers lost during the drain.
    pub fn lost(&self) -> u64 {
        self.lost.load(Ordering::Acquire)
    }

    /// The degradation trigger, if any loss was recorded.
    pub fn trigger(&self) -> Option<&'static str> {
        match self.trigger.load(Ordering::Acquire) {
            TRIGGER_PANIC => Some("panic"),
            TRIGGER_WATCHDOG => Some("watchdog"),
            TRIGGER_BUDGET => Some("budget"),
            _ => None,
        }
    }
}

/// Where a stall-injected worker parks until the watchdog (or the
/// drain's teardown) releases it. Poison-safe like the packet queue: a
/// panic elsewhere can never wedge the latch.
pub struct StallLatch {
    released: Mutex<bool>,
    cond: Condvar,
}

impl StallLatch {
    /// A latch that is not yet released.
    pub fn new() -> StallLatch {
        StallLatch {
            released: Mutex::new(false),
            cond: Condvar::new(),
        }
    }

    /// Parks the calling thread until [`release`](Self::release).
    pub fn park(&self) {
        let mut released = lock_recover(&self.released);
        while !*released {
            released = self
                .cond
                .wait(released)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// Releases every parked (and future) waiter. Idempotent.
    pub fn release(&self) {
        let mut released = lock_recover(&self.released);
        *released = true;
        drop(released);
        self.cond.notify_all();
    }
}

/// Per-worker drain cycle telemetry bridged back to the coordinator:
/// workers publish their accumulated simulated cycles so the budget
/// check (the watchdog's simulated-cycle half) reads a live value.
pub struct CycleBudget {
    /// Per-phase simulated-cycle ceiling per worker; `u64::MAX`
    /// disables the check.
    pub budget: u64,
    spent_max: AtomicU64,
}

impl CycleBudget {
    /// A budget of `budget` simulated cycles per worker per drain.
    pub fn new(budget: u64) -> CycleBudget {
        CycleBudget {
            budget,
            spent_max: AtomicU64::new(0),
        }
    }

    /// Whether `spent` cycles exceed the budget (and records the
    /// high-water mark for diagnostics).
    pub fn exceeded(&self, spent: u64) -> bool {
        self.spent_max.fetch_max(spent, Ordering::AcqRel);
        spent > self.budget
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_fires_exactly_once_at_its_coordinate() {
        let f = SectionFaults::new(Some(WorkerFaultSpec {
            kind: WorkerFaultKind::Panic,
            worker: 2,
            packet: 1,
        }));
        assert_eq!(f.should_fire(2, 0), None, "wrong packet ordinal");
        assert_eq!(f.should_fire(1, 1), None, "wrong worker");
        assert_eq!(f.should_fire(2, 1), Some(WorkerFaultKind::Panic));
        assert_eq!(f.should_fire(2, 1), None, "one-shot");
        assert!(f.fired());
    }

    #[test]
    fn unarmed_sections_never_fire() {
        let f = SectionFaults::new(None);
        assert_eq!(f.should_fire(0, 0), None);
        assert!(!f.fired());
        assert!(!f.stall_armed());
    }

    #[test]
    fn first_loss_trigger_wins() {
        let f = SectionFaults::new(None);
        f.note_lost("watchdog");
        f.note_lost("panic");
        assert_eq!(f.lost(), 2);
        assert_eq!(f.trigger(), Some("watchdog"));
    }

    #[test]
    fn latch_release_unparks() {
        let latch = StallLatch::new();
        std::thread::scope(|s| {
            s.spawn(|| latch.park());
            latch.release();
        });
        latch.park(); // released for good: a later park returns at once
    }

    #[test]
    fn cycle_budget_tracks_exceedance() {
        let b = CycleBudget::new(100);
        assert!(!b.exceeded(100));
        assert!(b.exceeded(101));
        let unlimited = CycleBudget::new(u64::MAX);
        assert!(!unlimited.exceeded(u64::MAX - 1));
    }
}
