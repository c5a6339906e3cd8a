//! The heap-pressure governor: the one path an allocation request takes
//! from a plan's routing decision to the object's first word, and the
//! deterministic escalation ladder it climbs when it does not fit.
//!
//! [`allocate`] makes the fast attempt, runs the arena's *ordinary* slow
//! path (uncharged collections, no episode), and only then opens a
//! pressure episode and walks the arena's charged rungs. The ladders are
//! data, one [`Ladder`] per arena; the plan lends the governor its
//! spaces through [`Governed`]: where an attempt places the object and
//! the recovery work behind each step. A ladder that runs out hands the
//! still-open episode back to the plan, which closes it `"exhausted"`
//! with its typed [`GcError`](tilgc_mem::GcError) — surfaced to the VM
//! as a catchable `HeapOverflow`, never a Rust panic — or, on the
//! pretenuring path only, runs the **demote** rung (flip the
//! highest-pressure pretenured site back to nursery allocation) and
//! re-routes the request young.
//!
//! Each rung has a fixed simulated cost from the
//! [`CostModel`](tilgc_runtime::CostModel), charged to
//! `GcStats::other_cycles` *before* the rung's recovery work runs, so it
//! lands outside any telemetry phase-timer window and the global
//! identity `sum(phase cycles) + sum(rung cycles) == gc_cycles` holds
//! exactly. When no recorder is installed the ladder emits nothing and
//! charges the same cycles, so a recovered-pressure run is
//! byte-deterministic with or without telemetry.

use tilgc_mem::{Addr, Arena, Memory, SiteId};
use tilgc_obs::{Event, PressureBegin, PressureEnd, PressureRung as RungEvent};
use tilgc_runtime::{CostModel, GcStats, MutatorState};

/// The recovery work behind one ladder step, which the plan maps onto
/// its own collections.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Recovery {
    /// The collection the plan's own policy picks (minor or major).
    Collect,
    /// A nursery collection.
    Minor,
    /// A full-heap collection.
    Major,
    /// The one-shot nursery/tenured budget rebalance.
    Rebalance,
}

/// What is tried, in order, when an attempt against an arena fails: the
/// ordinary slow path (uncharged, no episode), then the charged rungs of
/// a pressure episode.
#[derive(Debug)]
pub(crate) struct Ladder {
    ordinary: &'static [Recovery],
    rungs: &'static [(PressureRung, Recovery)],
}

impl Ladder {
    /// Young allocation: the policy-chosen collection, then a major
    /// (copied-back survivors can crowd the nursery system; a major
    /// promotes them all), then one more of each as charged rungs.
    pub(crate) const NURSERY: Ladder = Ladder {
        ordinary: &[Recovery::Collect, Recovery::Major],
        rungs: &[
            (PressureRung::RetryMinor, Recovery::Minor),
            (PressureRung::RetryMajor, Recovery::Major),
        ],
    };
    /// Tenured-at-birth allocation while the rebalance is unspent.
    pub(crate) const TENURED: Ladder = Ladder {
        ordinary: &[Recovery::Major],
        rungs: &[
            (PressureRung::RetryMajor, Recovery::Major),
            (PressureRung::Rebalance, Recovery::Rebalance),
        ],
    };
    /// An arena only a full collection can make room in: the
    /// large-object space (rebalancing cannot grow its reservation), a
    /// semispace heap, and the tenured arena once it has rebalanced.
    pub(crate) const FULL_COLLECTION: Ladder = Ladder {
        ordinary: &[Recovery::Major],
        rungs: &[(PressureRung::RetryMajor, Recovery::Major)],
    };
}

/// What a plan lends the governor.
pub(crate) trait Governed {
    /// The plan's cumulative statistics (rung charges land here).
    fn stats_mut(&mut self) -> &mut GcStats;

    /// Bumps (or first-fits) `words` words in `arena`, if they fit.
    fn place(&mut self, arena: Arena, words: usize) -> Option<Addr>;

    /// One allocation attempt. A forced-failure token is consumed first,
    /// so fault injection fails each *attempt* (not each logical
    /// allocation) and drives the full ladder.
    #[inline]
    fn attempt(&mut self, m: &mut MutatorState, arena: Arena, words: usize) -> Option<Addr> {
        if m.consume_forced_failure() {
            return None;
        }
        self.place(arena, words)
    }

    /// Runs the recovery work of one step.
    fn recover(&mut self, mem: &mut Memory, m: &mut MutatorState, step: Recovery);
}

/// Places `words` words in `arena`, climbing `ladder` if they do not
/// fit at once.
///
/// # Errors
///
/// When no rung is left the episode comes back still open: the plan
/// decides whether this is exhaustion or there is a plan-specific last
/// step, and [`finish`](PressureSession::finish)es it either way.
#[inline]
pub(crate) fn allocate<P: Governed>(
    plan: &mut P,
    mem: &mut Memory,
    m: &mut MutatorState,
    arena: Arena,
    ladder: &Ladder,
    site: SiteId,
    words: usize,
) -> Result<Addr, PressureSession> {
    if let Some(addr) = plan.attempt(m, arena, words) {
        return Ok(addr);
    }
    for &step in ladder.ordinary {
        plan.recover(mem, m, step);
        if let Some(addr) = plan.attempt(m, arena, words) {
            return Ok(addr);
        }
    }
    let mut session = PressureSession::begin(m, plan.stats_mut(), site, words, arena);
    for &(rung, step) in ladder.rungs {
        let charged = session.charge(m, plan.stats_mut(), rung);
        plan.recover(mem, m, step);
        if let Some(addr) = plan.attempt(m, arena, words) {
            session.emit_rung(m, rung, "recovered", charged);
            session.finish(m, "recovered");
            return Ok(addr);
        }
        session.emit_rung(m, rung, "escalated", charged);
    }
    Err(session)
}

/// One rung of the escalation ladder, in climb order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum PressureRung {
    /// Retry after a (repeated) minor collection.
    RetryMinor,
    /// Retry after a full-heap collection.
    RetryMajor,
    /// One-shot nursery/tenured budget rebalance.
    Rebalance,
    /// Demote the hottest pretenured site back to the nursery.
    Demote,
}

impl PressureRung {
    /// The name used on the telemetry wire.
    pub(crate) fn wire_name(self) -> &'static str {
        match self {
            PressureRung::RetryMinor => "retry-minor",
            PressureRung::RetryMajor => "retry-major",
            PressureRung::Rebalance => "rebalance",
            PressureRung::Demote => "demote",
        }
    }

    /// Simulated cycles the rung charges (on top of any collection it
    /// triggers, which bills itself as usual).
    pub(crate) fn cost(self, cost: &CostModel) -> u64 {
        match self {
            PressureRung::RetryMinor | PressureRung::RetryMajor => cost.pressure_retry,
            PressureRung::Rebalance => cost.pressure_rebalance,
            PressureRung::Demote => cost.pressure_demote,
        }
    }
}

/// One pressure episode: from the first unrecoverable-by-the-ordinary-
/// slow-path allocation failure to either recovery or exhaustion.
pub(crate) struct PressureSession {
    site: u16,
    words: u64,
    rungs: u64,
    cycles: u64,
}

impl PressureSession {
    /// Opens the episode (emitting `pressure-begin` when a recorder is
    /// installed) and counts it in [`GcStats::pressure_episodes`], the
    /// flag calibration harnesses use to reject under-budgeted runs.
    /// `arena` is the one that failed first.
    fn begin(
        m: &mut MutatorState,
        stats: &mut GcStats,
        site: SiteId,
        words: usize,
        arena: Arena,
    ) -> PressureSession {
        stats.pressure_episodes += 1;
        let session = PressureSession {
            site: site.get(),
            words: words as u64,
            rungs: 0,
            cycles: 0,
        };
        if m.recorder.is_enabled() {
            m.recorder.record(Event::PressureBegin(PressureBegin {
                site: session.site,
                words: session.words,
                space: arena.label(),
                start_cycles: m.stats.client_cycles + stats.gc_cycles(),
            }));
        }
        session
    }

    /// Charges `rung`'s simulated cost — always, recorder or not — and
    /// returns the cycles charged. Call this *before* running the rung's
    /// recovery work so the charge lands outside phase-timer windows.
    pub(crate) fn charge(
        &mut self,
        m: &MutatorState,
        stats: &mut GcStats,
        rung: PressureRung,
    ) -> u64 {
        let cycles = rung.cost(&m.cost);
        stats.other_cycles += cycles;
        self.rungs += 1;
        self.cycles += cycles;
        cycles
    }

    /// Emits the rung's `pressure-rung` line with its outcome
    /// (`"recovered"`, `"escalated"`, or `"demoted"`).
    pub(crate) fn emit_rung(
        &self,
        m: &mut MutatorState,
        rung: PressureRung,
        outcome: &'static str,
        cycles: u64,
    ) {
        if m.recorder.is_enabled() {
            m.recorder.record(Event::PressureRung(RungEvent {
                rung: rung.wire_name(),
                site: self.site,
                words: self.words,
                outcome,
                cycles,
            }));
        }
    }

    /// Closes the episode (`outcome` is `"recovered"` or `"exhausted"`),
    /// emitting the `pressure-end` line whose cycle total the validator
    /// checks against the rung sum.
    pub(crate) fn finish(self, m: &mut MutatorState, outcome: &'static str) {
        if m.recorder.is_enabled() {
            m.recorder.record(Event::PressureEnd(PressureEnd {
                outcome,
                rungs: self.rungs,
                cycles: self.cycles,
            }));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rung_costs_come_from_the_cost_model() {
        let cost = CostModel::default();
        assert_eq!(PressureRung::RetryMinor.cost(&cost), cost.pressure_retry);
        assert_eq!(PressureRung::RetryMajor.cost(&cost), cost.pressure_retry);
        assert_eq!(PressureRung::Rebalance.cost(&cost), cost.pressure_rebalance);
        assert_eq!(PressureRung::Demote.cost(&cost), cost.pressure_demote);
        assert_eq!(PressureRung::Demote.wire_name(), "demote");
    }

    #[test]
    fn charges_accumulate_without_a_recorder() {
        let mut m = MutatorState::new();
        let mut stats = GcStats::default();
        let mut session =
            PressureSession::begin(&mut m, &mut stats, SiteId::new(3), 16, Arena::Nursery);
        assert_eq!(stats.pressure_episodes, 1);
        let c1 = session.charge(&m, &mut stats, PressureRung::RetryMajor);
        session.emit_rung(&mut m, PressureRung::RetryMajor, "escalated", c1);
        let c2 = session.charge(&m, &mut stats, PressureRung::Rebalance);
        session.emit_rung(&mut m, PressureRung::Rebalance, "recovered", c2);
        assert_eq!(stats.other_cycles, c1 + c2);
        assert_eq!(session.rungs, 2);
        assert_eq!(session.cycles, c1 + c2);
        session.finish(&mut m, "recovered");
    }
}
