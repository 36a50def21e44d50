//! The high-level test generation algorithm of Van Campenhout, Mudge &
//! Hayes (DAC 1999).
//!
//! Test generation for a bus-SSL design error decomposes into three
//! subproblems (paper §V), implemented here as three cooperating engines:
//!
//! * **P1 — [`dptrace`]**: *path selection in the datapath*. Works on the
//!   word-level netlist with the C-state / O-state lattices and per-class
//!   propagation tables of Figure 5 ([`costate`]), choosing justification
//!   and propagation paths and emitting `(CTRL, value)` objectives.
//! * **P2 — [`dprelax`]**: *value selection in the datapath* by
//!   event-driven discrete relaxation over (error-free, erroneous) value
//!   pairs.
//! * **P3 — [`ctrljust`]**: *justification in the controller*. A
//!   PODEM-style branch-and-bound over the unrolled gate-level controller
//!   ([`unroll`]), making decisions on CPI, CTI and STS signals, guided by
//!   the objectives from P1.
//!
//! The search is organized around the **pipeframe model** (paper §IV,
//! [`pipeframe`]): decision variables per frame are the primary inputs and
//! the *tertiary* signals (stall/squash/bypass selects), rather than all
//! state bits as in the conventional timeframe organization
//! ([`timeframe`]).
//!
//! The top-level driver ([`tg`]) mirrors the paper's Figure 3, assembles the
//! resulting instruction sequence (a setup prologue, the core instructions,
//! an observation instruction when needed, and a NOP flush), and *confirms*
//! every generated test by dual good/bad simulation. [`campaign`] runs the
//! whole error population and produces the Table 1 statistics.
//!
//! Observability is layered on the [`instrument::Probe`] trait: the
//! zero-cost [`NO_PROBE`] default, atomic [`Counters`], the span-recording
//! [`trace::Tracer`] (JSONL emission, per-phase histograms), and the
//! [`instrument::MultiProbe`] fan-out composing them. [`jsonv`] is the
//! matching std-only JSON reader used to validate emitted output.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod chaos;
pub mod checkpoint;
pub mod costate;
pub mod flight;
pub mod instrument;
pub mod jsonv;
pub mod rng;
pub mod testability;
pub mod tg;
pub mod timeframe;
pub mod trace;
pub mod dprelax;
pub mod dptrace;
pub mod ctrljust;
pub mod pipeframe;
pub mod prover;
pub mod unroll;

pub use campaign::{
    Campaign, CampaignConfig, CampaignConfigBuilder, CampaignReport, CampaignRun, CampaignStats,
    ConfigError, ErrorRecord, ObserveOptions, RetryPolicy, RunOptions, ShardControl,
    ShardObserver, ShardStatus,
};
pub use chaos::{ChaosConfig, ChaosProbe, ChaosTally, CheckpointIoChaos, IoFault};
pub use checkpoint::{CheckpointEntry, CheckpointLog};
pub use flight::{FlightRecorder, MetricsTimeline};
pub use ctrljust::CtrlJustMemo;
pub use instrument::{Counter, Counters, MultiProbe, Phase, Probe, SpanEnd, StepBudget, NO_PROBE};
pub use prover::{
    prove_invariant, prove_untestable, ConflictClause, ProofKind, ProveConfig, UntestableProof,
};
pub use rng::SplitMix64;
pub use tg::{AbortReason, Outcome, TestGenerator, TgConfig};
pub use trace::{LogHistogram, TraceSnapshot, Tracer};
