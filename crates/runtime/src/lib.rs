//! TIL-style runtime substrate for the `tilgc` collectors.
//!
//! This crate models the runtime system of the TIL Standard ML compiler as
//! described in *Generational Stack Collection and Profile-Driven
//! Pretenuring* (Cheng, Harper, Lee; PLDI 1998), §2:
//!
//! * an activation-record [`Stack`] whose frames are described by
//!   compiler-emitted [trace tables](trace) — with the four trace kinds of
//!   §2.3 (pointer, non-pointer, callee-save, compute) that force the
//!   collector's stack scan to be two-pass;
//! * the *stack marker* machinery of §5: markers placed by the collector,
//!   stubs fired by returns, and the exception watermark `M`;
//! * [write barriers](barrier): the sequential store buffer the paper
//!   uses, plus the card-marking alternative it recommends for
//!   update-heavy programs;
//! * exception [handler chains](HandlerChain) (§5's raise-time
//!   watermark scheme);
//! * the [`Collector`] interface that the collectors in `tilgc-core`
//!   implement, and the [`Vm`] facade benchmark programs are written
//!   against;
//! * the cycle [cost model](CostModel) and [statistics](GcStats) that regenerate
//!   the paper's tables, and the [heap-profile data](profile_data) behind
//!   Figure 2 and pretenuring.
//!
//! See the module documentation of [`Vm`] for the rooting discipline
//! programs must follow.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod barrier;
mod collector;
mod cost;
pub mod driver;
mod handlers;
mod mutator;
pub mod profile_data;
mod registers;
mod sites;
pub mod stack;
mod stats;
pub mod trace;
mod value;
mod vm;

pub use barrier::{BarrierEntry, WriteBarrier};
pub use collector::{AllocShape, CollectReason, Collector, Operand};
pub use cost::CostModel;
pub use driver::{OpDriver, StepOutcome, VmOp};
pub use handlers::HandlerChain;
pub use mutator::MutatorState;
pub use profile_data::{HeapProfile, SiteProfile};
pub use registers::RegisterFile;
pub use sites::SiteRegistry;
pub use stack::{Frame, FrameMut, Stack, StackStats};
pub use stats::{GcStats, MutatorStats};
pub use trace::{
    type_word_is_pointer, CompiledTrace, DescId, FrameDesc, Reg, RegEffect, Trace, TraceTable,
    TypeLoc, NUM_REGS, TYPE_BOXED, TYPE_UNBOXED,
};
pub use value::{ShadowTag, Value};
pub use vm::{HeapOverflow, RaiseOutcome, Vm, VmExit};

// Telemetry: the recorder lives in `MutatorState` so collectors can emit
// events; re-exported here so callers need not depend on `tilgc-obs`
// directly for the common cases.
pub use tilgc_obs::{CollectionEnd, Event, GcPhase, NullRecorder, Recorder, RingRecorder};
