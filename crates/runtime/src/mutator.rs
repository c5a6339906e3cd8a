//! The bundle of mutator-owned state a collector scans for roots.

use crate::barrier::WriteBarrier;
use crate::cost::CostModel;
use crate::handlers::HandlerChain;
use crate::registers::RegisterFile;
use crate::sites::SiteRegistry;
use crate::stack::Stack;
use crate::stats::MutatorStats;
use crate::trace::TraceTable;
use tilgc_mem::{Addr, SiteId, SiteRouteTable};
use tilgc_obs::{NullRecorder, Recorder};

/// The mutator's end of the allocation frontier (§2.1's inlined
/// bump-and-store sequence): the stretch `[cursor, limit)` of the
/// collector's allocation space that [`Vm`](crate::Vm) may bump through
/// without entering [`Collector::alloc`](crate::Collector::alloc).
///
/// A collector lends it on the way out of every entry point and takes the
/// cursor back on the way in, so exactly one side owns the frontier at a
/// time. Every reason to send an allocation through the collector instead
/// is an *empty* window (`cursor == limit`), so the hit test is one
/// compare.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct AllocWindow {
    cursor: Addr,
    limit: Addr,
    /// Arrays of this many words or more never use the window (the
    /// collector's large-object threshold). Records always may.
    array_limit_words: usize,
}

/// Everything the mutator owns: stack, registers, write barrier, handler
/// chain, trace tables, allocation sites and statistics.
///
/// This is a passive data bundle in the C spirit — the `Vm` facade drives
/// it from above and collectors scan it from below, and both need free
/// access to its parts, so most fields are public. The allocation window
/// and the forced-failure budget are not: a pending failure must find the
/// window closed, and only the methods here keep that true.
#[derive(Debug)]
#[repr(C)]
pub struct MutatorState {
    // The layout is load-bearing, which is why it is `repr(C)`: every
    // allocation reads or writes each field down to `cost` (of which it
    // wants `alloc_base` and `alloc_per_word`, near the front) and
    // nothing below it, so declared first and in this order they share
    // the struct's first three cache lines. PR 16 moved `table5` 4 % by
    // shrinking a struct 16 bytes; the number that notices a careless
    // insertion here is `runtime.alloc_ns_per_obj` on `stack-markers`.
    /// Mutator-side statistics (`client_cycles` and the allocation
    /// counters are bumped by every allocation).
    pub stats: MutatorStats,
    window: AllocWindow,
    /// Client-cycle timestamp of this mutator's most recent safepoint
    /// poll (the GC-possible points: allocation completion and explicit
    /// collection requests). A collection's time-to-safepoint is the
    /// client cycles elapsed since this mark — observational only,
    /// never charged.
    pub last_safepoint_cycles: u64,
    /// Which entries of `alloc_buf` are pointers (bit *i* ⇒ entry *i*).
    pub alloc_buf_ptr_mask: u64,
    /// Staging buffer for allocation operands, the argument registers of
    /// the allocation sequence: scanned as roots by any collection, so
    /// the operands of the most recent allocation stay reachable until
    /// the next one restages.
    pub alloc_buf: Vec<u64>,
    /// Sites whose allocations the collector places itself (pretenured at
    /// birth): they never use the window. The collector flips bits as its
    /// policy changes.
    pub routes: SiteRouteTable,
    /// The shared cycle cost model.
    pub cost: CostModel,
    /// The activation-record stack.
    pub stack: Stack,
    /// The register file.
    pub regs: RegisterFile,
    /// The write barrier recording pointer updates.
    pub barrier: WriteBarrier,
    /// The exception handler chain.
    pub handlers: HandlerChain,
    /// Registered frame descriptors (the trace table).
    pub traces: TraceTable,
    /// Registered allocation sites.
    pub sites: SiteRegistry,
    /// The telemetry sink. Defaults to the disabled [`NullRecorder`];
    /// collectors gate all event production on `recorder.is_enabled()`
    /// and never charge simulated cycles for it, so the default leaves
    /// every deterministic counter byte-identical.
    pub recorder: Box<dyn Recorder>,
    /// Fault-injection budget: while non-zero, each allocation attempt in
    /// a collector consumes one unit and fails spuriously, as if the
    /// target space were full. Drives the torture harness's `oom-alloc`
    /// fault; zero (the default) disables injection entirely.
    force_alloc_failures: u32,
    /// Whether API entry points cross-check shadow tags against traces
    /// (catches mis-declared frame descriptors in test programs).
    pub check_shadows: bool,
}

impl Default for MutatorState {
    fn default() -> Self {
        MutatorState::new()
    }
}

impl MutatorState {
    /// Creates mutator state with an SSB write barrier (the paper's
    /// configuration) and default cost model.
    pub fn new() -> MutatorState {
        MutatorState {
            stats: MutatorStats::default(),
            window: AllocWindow::default(),
            last_safepoint_cycles: 0,
            alloc_buf_ptr_mask: 0,
            alloc_buf: Vec::new(),
            routes: SiteRouteTable::new(),
            cost: CostModel::default(),
            stack: Stack::new(),
            regs: RegisterFile::new(),
            barrier: WriteBarrier::ssb(),
            handlers: HandlerChain::new(),
            traces: TraceTable::new(),
            sites: SiteRegistry::new(),
            recorder: Box::new(NullRecorder),
            force_alloc_failures: 0,
            check_shadows: cfg!(debug_assertions),
        }
    }

    /// Marks a safepoint poll: the mutator is at a GC-possible point.
    /// Collectors read the distance from the previous mark as the
    /// collection's time-to-safepoint.
    #[inline]
    pub fn poll_safepoint(&mut self) {
        self.last_safepoint_cycles = self.stats.client_cycles;
    }

    /// Client cycles elapsed since the last safepoint poll.
    #[inline]
    pub fn cycles_since_safepoint(&self) -> u64 {
        self.stats
            .client_cycles
            .saturating_sub(self.last_safepoint_cycles)
    }

    /// Charges `cycles` to the client (mutator) account.
    #[inline]
    pub fn charge(&mut self, cycles: u64) {
        self.stats.client_cycles += cycles;
    }

    // ----- the allocation window ------------------------------------------

    /// Takes a window from the collector: `[cursor, limit)` of its
    /// allocation space, and the size from which arrays must go through
    /// the collector anyway. While forced allocation failures are pending
    /// the window arrives closed, so each of them meets an attempt.
    pub fn lend_window(&mut self, cursor: Addr, limit: Addr, array_limit_words: usize) {
        self.window = AllocWindow {
            cursor,
            limit: if self.force_alloc_failures > 0 {
                cursor
            } else {
                limit
            },
            array_limit_words,
        };
    }

    /// Gives the window back to the collector that lent it: returns the
    /// cursor (the space's new frontier) and leaves the window empty. A
    /// collector calls this on entry, before it reads its own space.
    pub fn retire_window(&mut self) -> Addr {
        std::mem::take(&mut self.window).cursor
    }

    /// Closes the window where it stands: the next allocation enters the
    /// collector, which reads the cursor back. Always safe — the door is
    /// correct whether or not a window is out — and used by tests to run
    /// a program through the door alone.
    pub fn close_window(&mut self) {
        self.window.limit = self.window.cursor;
    }

    /// Bumps `words` words out of the window if the request may use it:
    /// it fits, `site` is not routed to the collector, and an array is
    /// under the large-object threshold.
    #[inline]
    pub(crate) fn bump(&mut self, site: SiteId, words: usize, is_array: bool) -> Option<Addr> {
        let w = &mut self.window;
        let end = w.cursor.index() + words;
        if end > w.limit.index()
            || (is_array && words >= w.array_limit_words)
            || self.routes.route(site)
        {
            return None;
        }
        let addr = w.cursor;
        // `end <= limit`, which is an `Addr`.
        w.cursor = Addr::new(end as u32);
        Some(addr)
    }

    // ----- forced allocation failures -----------------------------------------

    /// Arms `n` forced allocation failures and closes the window, so the
    /// very next allocation attempt — and each one after it until the
    /// budget is spent — happens in the collector and fails.
    pub fn inject_alloc_failures(&mut self, n: u32) {
        self.force_alloc_failures = n;
        self.close_window();
    }

    /// Disarms fault injection, returning the failures left unspent.
    pub fn take_alloc_failures(&mut self) -> u32 {
        std::mem::take(&mut self.force_alloc_failures)
    }

    /// Consumes one injected allocation failure, if any are pending.
    ///
    /// Collectors call this at the head of every allocation attempt; a
    /// `true` return means the attempt must be treated as not fitting
    /// even if the space has room.
    #[inline]
    pub fn consume_forced_failure(&mut self) -> bool {
        if self.force_alloc_failures > 0 {
            self.force_alloc_failures -= 1;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_configuration() {
        let m = MutatorState::new();
        assert!(matches!(m.barrier, WriteBarrier::Ssb(_)));
        assert_eq!(m.stack.depth(), 0);
    }

    #[test]
    fn charge_accumulates() {
        let mut m = MutatorState::new();
        m.charge(10);
        m.charge(5);
        assert_eq!(m.stats.client_cycles, 15);
    }

    const SITE: SiteId = SiteId::new(3);

    #[test]
    fn a_fresh_mutator_has_no_window() {
        let mut m = MutatorState::new();
        assert_eq!(m.bump(SITE, 1, false), None);
        assert_eq!(m.retire_window(), Addr::NULL);
    }

    #[test]
    fn the_window_bumps_until_it_is_full_routed_or_closed() {
        let mut m = MutatorState::new();
        m.lend_window(Addr::new(100), Addr::new(110), 4);
        assert_eq!(m.bump(SITE, 3, false), Some(Addr::new(100)));
        assert_eq!(m.bump(SITE, 3, true), Some(Addr::new(103)));
        assert_eq!(m.bump(SITE, 4, true), None, "an array at the threshold");
        assert_eq!(m.bump(SITE, 4, false), Some(Addr::new(106)), "a record");
        assert_eq!(m.bump(SITE, 1, false), None, "past the limit");
        m.lend_window(Addr::new(110), Addr::new(120), 4);
        m.routes.set(SITE);
        assert_eq!(m.bump(SITE, 1, false), None, "a routed site");
        assert_eq!(m.bump(SiteId::new(4), 1, false), Some(Addr::new(110)));
        m.close_window();
        assert_eq!(m.bump(SiteId::new(4), 1, false), None);
        assert_eq!(m.retire_window(), Addr::new(111), "the cursor survives");
        assert_eq!(m.retire_window(), Addr::NULL);
    }

    #[test]
    fn pending_failures_keep_the_window_closed() {
        let mut m = MutatorState::new();
        m.lend_window(Addr::new(100), Addr::new(110), 4);
        m.inject_alloc_failures(2);
        assert_eq!(m.bump(SITE, 1, false), None, "closed by the injection");
        assert_eq!(m.retire_window(), Addr::new(100));
        assert!(m.consume_forced_failure());
        m.lend_window(Addr::new(100), Addr::new(110), 4);
        assert_eq!(m.bump(SITE, 1, false), None, "one failure still pending");
        assert_eq!(m.take_alloc_failures(), 1);
        assert!(!m.consume_forced_failure());
        m.lend_window(Addr::new(100), Addr::new(110), 4);
        assert_eq!(m.bump(SITE, 1, false), Some(Addr::new(100)));
    }
}
