//! Collectors for the PLDI 1998 paper *Generational Stack Collection and
//! Profile-Driven Pretenuring* (Cheng, Harper, Lee).
//!
//! This crate is the paper's contribution proper, built on the
//! [`tilgc-mem`](tilgc_mem) and [`tilgc-runtime`](tilgc_runtime)
//! substrates, and is organized in three layers:
//!
//! * **spaces** ([`space`] module) — the policy components:
//!   [`CopySpace`] semispace pairs, the mark-sweep [`LargeObjectSpace`],
//!   and the scanned-in-place [`PretenuredRegion`] (§6);
//! * **plans** — the compositions the paper compares, each a
//!   [`Collector`]: [`SemispacePlan`] (the Fenichel–Yochelson/Cheney
//!   baseline with target-liveness resizing, r = 0.10) and
//!   [`GenerationalPlan`] (nursery + tenured generation with immediate
//!   promotion and sequential-store-buffer filtering, §2.1; with a
//!   [`PretenurePolicy`] configured, §6 site-directed tenured
//!   allocation). A plan supplies its spaces — the role each is passed
//!   in for a collection (vacated, destination, aging, large-object)
//!   decides how its objects are treated — and its release step; the
//!   collection protocol itself — prologue, roots, evacuator wiring,
//!   epilogue — is the one staged cycle of the `cycle` module;
//! * **the tracing driver** (the crate-private `evac` module) — one
//!   work-queue transitive closure (gray FIFOs of the copies that have
//!   a pointer field, scanned in batches, + an explicit queue for
//!   objects traced in place) that every plan configures and reuses.
//!
//! Cross-cutting the layers: **generational stack collection** (§5) —
//! scan caching in [`roots`], driven by stack markers placed per
//! [`MarkerPolicy`] — and **profile-driven pretenuring** (§6) per
//! [`PretenurePolicy`], including the §7.2 no-scan extension.
//!
//! # Quick start
//!
//! ```
//! use tilgc_core::{build_collector, CollectorKind, GcConfig};
//! use tilgc_runtime::{Value, Vm};
//!
//! let config = GcConfig::new().heap_budget_bytes(1 << 20);
//! let (collector, mem) = build_collector(CollectorKind::Generational, &config);
//! let mut vm = Vm::new(collector, mem);
//! let site = vm.site("example::pair");
//! let pair = vm.alloc_record(site, &[Value::Int(1), Value::Int(2)]).unwrap();
//! assert_eq!(vm.load_int(pair, 0), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod cycle;
mod evac;
mod generational;
mod governor;
mod los;
pub mod roots;
mod semispace;
pub mod space;
pub mod verify;

pub use config::{GcConfig, MarkerPolicy, PretenurePolicy};
pub use generational::GenerationalPlan;
pub use los::LargeObjectSpace;
pub use roots::{ScanCache, ScanOutcome};
pub use semispace::SemispacePlan;
pub use space::{CopySpace, PretenuredRegion};
pub use tilgc_mem::POISON;
pub use verify::{
    check_graph, check_inspection, graph_snapshot, verify_collection, verify_vm, vm_snapshot,
    LiveReport,
};

use tilgc_mem::Memory;
use tilgc_runtime::{Collector, MutatorState, Vm, WriteBarrier};

/// The collector configurations the paper compares (§3).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CollectorKind {
    /// Semispace baseline.
    Semispace,
    /// Generational collector, no stack markers, no pretenuring.
    Generational,
    /// Generational collector with stack markers (n = 25).
    GenerationalStack,
    /// Generational collector with stack markers and pretenuring.
    /// Requires a [`PretenurePolicy`] in the configuration to have any
    /// effect.
    GenerationalStackPretenure,
}

impl CollectorKind {
    /// All four configurations, in the paper's comparison order.
    pub const ALL: [CollectorKind; 4] = [
        CollectorKind::Semispace,
        CollectorKind::Generational,
        CollectorKind::GenerationalStack,
        CollectorKind::GenerationalStackPretenure,
    ];

    /// The label used in the paper's tables.
    pub fn label(&self) -> &'static str {
        match self {
            CollectorKind::Semispace => "semispace",
            CollectorKind::Generational => "generational",
            CollectorKind::GenerationalStack => "gen+markers",
            CollectorKind::GenerationalStackPretenure => "gen+markers+pretenure",
        }
    }
}

/// Builds a collector of the given kind, adjusting `config` to the kind's
/// needs (marker policy on for the stack-collection variants; pretenuring
/// dropped for the kinds that do not use it), together with the
/// [`Memory`] it reserved its spaces in: the pair a [`Vm`] is built from.
pub fn build_collector(kind: CollectorKind, config: &GcConfig) -> (Box<dyn Collector>, Memory) {
    fn boxed<P: Collector + 'static>((plan, mem): (P, Memory)) -> (Box<dyn Collector>, Memory) {
        (Box::new(plan), mem)
    }
    let mut config = config.clone();
    match kind {
        CollectorKind::Semispace => {
            config.pretenure = None;
            boxed(SemispacePlan::new(&config))
        }
        CollectorKind::Generational => {
            config.marker_policy = MarkerPolicy::Disabled;
            config.pretenure = None;
            boxed(GenerationalPlan::new(&config))
        }
        CollectorKind::GenerationalStack => {
            if !config.marker_policy.is_enabled() {
                config.marker_policy = MarkerPolicy::PAPER;
            }
            config.pretenure = None;
            boxed(GenerationalPlan::new(&config))
        }
        CollectorKind::GenerationalStackPretenure => {
            if !config.marker_policy.is_enabled() {
                config.marker_policy = MarkerPolicy::PAPER;
            }
            boxed(GenerationalPlan::new(&config))
        }
    }
}

/// Builds a full [`Vm`] of the given kind, with the write barrier matched
/// to the collector (none for semispace, SSB otherwise — the paper's
/// setup).
pub fn build_vm(kind: CollectorKind, config: &GcConfig) -> Vm {
    let mut m = MutatorState::new();
    m.barrier = match kind {
        CollectorKind::Semispace => WriteBarrier::None,
        _ => WriteBarrier::ssb(),
    };
    let (collector, mem) = build_collector(kind, config);
    Vm::with_mutator(m, collector, mem)
}

/// Builds a full [`Vm`] like [`build_vm`], with a telemetry recorder
/// installed: the plans emit per-collection events, phase spans and
/// per-site survival samples through it. Telemetry is host-side only —
/// it charges no simulated cycles and leaves `GcStats` untouched, so a
/// recorded run's deterministic counters match an unrecorded run's
/// exactly.
pub fn build_vm_with_recorder(
    kind: CollectorKind,
    config: &GcConfig,
    recorder: Box<dyn tilgc_runtime::Recorder>,
) -> Vm {
    let mut vm = build_vm(kind, config);
    vm.set_recorder(recorder);
    vm
}

#[cfg(test)]
mod tests {
    use super::*;
    use tilgc_runtime::Value;

    #[test]
    fn build_all_kinds() {
        let config = GcConfig::new().heap_budget_bytes(1 << 20);
        for kind in CollectorKind::ALL {
            let mut vm = build_vm(kind, &config);
            let site = vm.site("t::x");
            let a = vm.alloc_record(site, &[Value::Int(7)]).unwrap();
            assert_eq!(vm.load_int(a, 0), 7);
            assert!(!kind.label().is_empty());
        }
    }

    #[test]
    fn plain_generational_never_places_markers() {
        let config = GcConfig::new()
            .heap_budget_bytes(1 << 20)
            .marker_policy(MarkerPolicy::PAPER);
        let mut vm = build_vm(CollectorKind::Generational, &config);
        let site = vm.site("t::x");
        for _ in 0..50_000 {
            let _ = vm.alloc_record(site, &[Value::Int(1)]);
        }
        assert!(vm.gc_stats().collections > 0);
        assert_eq!(vm.gc_stats().markers_placed, 0);
    }
}
