//! The bundle of mutator-owned state a collector scans for roots.

use crate::barrier::WriteBarrier;
use crate::cost::CostModel;
use crate::handlers::HandlerChain;
use crate::registers::RegisterFile;
use crate::sites::SiteRegistry;
use crate::stack::Stack;
use crate::stats::MutatorStats;
use crate::trace::TraceTable;
use tilgc_obs::{NullRecorder, Recorder};

/// Everything the mutator owns: stack, registers, write barrier, handler
/// chain, trace tables, allocation sites and statistics.
///
/// This is a passive data bundle in the C spirit — the `Vm` facade drives
/// it from above and collectors scan it from below, and both need free
/// access to its parts, so the fields are public.
#[derive(Debug)]
pub struct MutatorState {
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
    /// Mutator-side statistics.
    pub stats: MutatorStats,
    /// The shared cycle cost model.
    pub cost: CostModel,
    /// Whether API entry points cross-check shadow tags against traces
    /// (catches mis-declared frame descriptors in test programs).
    pub check_shadows: bool,
    /// Staging buffer for allocation operands; scanned as roots during
    /// collections triggered by the allocation itself.
    pub alloc_buf: Vec<u64>,
    /// Which alloc-buffer entries are pointers (bit *i* ⇒ entry *i*).
    pub alloc_buf_ptr_mask: u64,
    /// The telemetry sink. Defaults to the disabled [`NullRecorder`];
    /// collectors gate all event production on `recorder.is_enabled()`
    /// and never charge simulated cycles for it, so the default leaves
    /// every deterministic counter byte-identical.
    pub recorder: Box<dyn Recorder>,
    /// Fault-injection budget: while non-zero, each allocation attempt in
    /// a collector consumes one unit and fails spuriously, as if the
    /// target space were full. Drives the torture harness's `oom-alloc`
    /// fault; zero (the default) disables injection entirely.
    pub force_alloc_failures: u32,
    /// Client-cycle timestamp of this mutator's most recent safepoint
    /// poll (the GC-possible points: allocation completion and explicit
    /// collection requests). A collection's time-to-safepoint is the
    /// client cycles elapsed since this mark — observational only,
    /// never charged.
    pub last_safepoint_cycles: u64,
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
            stack: Stack::new(),
            regs: RegisterFile::new(),
            barrier: WriteBarrier::ssb(),
            handlers: HandlerChain::new(),
            traces: TraceTable::new(),
            sites: SiteRegistry::new(),
            stats: MutatorStats::default(),
            cost: CostModel::default(),
            check_shadows: cfg!(debug_assertions),
            alloc_buf: Vec::new(),
            alloc_buf_ptr_mask: 0,
            recorder: Box::new(NullRecorder),
            force_alloc_failures: 0,
            last_safepoint_cycles: 0,
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
}
