//! Structured instrumentation for the test-generation engines.
//!
//! The campaign engine wants to know where time goes: how many decisions
//! and backtracks `CTRLJUST` makes, how many relaxation iterations
//! `DPRELAX` burns, how much wall-clock each phase costs. This module
//! provides that as a zero-cost-by-default probe:
//!
//! * [`Probe`] — the hook trait. Every method has a no-op default body, so
//!   a generator built over [`NO_PROBE`] compiles the hooks away. Besides
//!   the flat counters it carries *structured* hooks: per-error spans
//!   (`error_begin`/`error_end`), per-variant and per-phase boundaries,
//!   and fine-grained engine events (decisions, backtracks, relaxation
//!   steps) carrying the error id and pipeframe index. Hot-loop events are
//!   gated on [`Probe::wants_events`] so the uninstrumented path stays a
//!   cached-boolean branch.
//! * [`Counters`] — an atomic implementation safe to share across the
//!   campaign worker threads.
//! * [`MultiProbe`] — fans every hook out to several probes, so counters
//!   and the [`crate::trace::Tracer`] compose in one campaign run.
//! * [`CounterSnapshot`] — a plain-value copy for reporting, with a
//!   hand-rolled JSON emitter (the workspace is deliberately free of
//!   external dependencies, `serde` included).

use hltg_errors::BusSslError;
use std::cell::Cell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// A deterministic work-unit budget shared by the engine phases of one
/// per-error generation run.
///
/// The budget counts the same *deterministic* units the [`Probe`]
/// phase hooks already report as `cost` — `DPTRACE` recursion steps,
/// `CTRLJUST` implication passes, `DPRELAX` iterations — never
/// wall-clock, so exhaustion happens at exactly the same point in the
/// search for every worker-thread count, machine and run. One instance
/// is created per error; it is deliberately single-threaded (`Cell`),
/// since a per-error budget belongs to exactly one worker.
#[derive(Debug)]
pub struct StepBudget {
    limit: u64,
    used: Cell<u64>,
    tripped: Cell<bool>,
}

impl StepBudget {
    /// A budget of `limit` deterministic work units.
    #[must_use]
    pub fn limited(limit: u64) -> Self {
        StepBudget {
            limit,
            used: Cell::new(0),
            tripped: Cell::new(false),
        }
    }

    /// A budget that never exhausts.
    #[must_use]
    pub fn unlimited() -> Self {
        Self::limited(u64::MAX)
    }

    /// Consumes `n` units; `false` once the budget is exhausted. Charging
    /// past the limit saturates (the overshoot is not recorded), so the
    /// abort point is the first charge that would cross the limit.
    pub fn charge(&self, n: u64) -> bool {
        let used = self.used.get().saturating_add(n);
        self.used.set(used.min(self.limit));
        if used > self.limit {
            self.tripped.set(true);
        }
        !self.tripped.get()
    }

    /// `true` once a [`StepBudget::charge`] has failed.
    #[must_use]
    pub fn exhausted(&self) -> bool {
        self.tripped.get()
    }

    /// Units consumed so far (clamped at the limit).
    #[must_use]
    pub fn used(&self) -> u64 {
        self.used.get()
    }

    /// Units left before the budget trips: zero once exhausted. A cached
    /// result may only be replayed when its recorded cost fits here —
    /// otherwise the uncached search would have tripped the budget, and
    /// the cache must let it, to keep abort points byte-identical.
    #[must_use]
    pub fn remaining(&self) -> u64 {
        if self.tripped.get() {
            0
        } else {
            self.limit - self.used.get()
        }
    }
}

/// The three engine phases of the paper's Figure 3 loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// P1 — path selection in the datapath.
    Dptrace,
    /// P3 — justification in the controller.
    Ctrljust,
    /// P2 — value selection by discrete relaxation.
    Dprelax,
}

/// All phases, in reporting order.
pub const PHASES: [Phase; 3] = [Phase::Dptrace, Phase::Ctrljust, Phase::Dprelax];

impl Phase {
    /// Stable lowercase name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Dptrace => "dptrace",
            Phase::Ctrljust => "ctrljust",
            Phase::Dprelax => "dprelax",
        }
    }

    pub(crate) fn index(self) -> usize {
        match self {
            Phase::Dptrace => 0,
            Phase::Ctrljust => 1,
            Phase::Dprelax => 2,
        }
    }
}

/// Cheap event counters maintained by the engines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    /// `DPTRACE` invocations (one per attempted variant).
    DptraceCalls,
    /// Recursion steps taken by the `DPTRACE` path search.
    DptraceSteps,
    /// Modules on accepted justification/propagation paths.
    DptraceModulesOnPath,
    /// `CTRLJUST` invocations.
    CtrljustCalls,
    /// PODEM decisions (including flipped ones).
    CtrljustDecisions,
    /// PODEM backtracks.
    CtrljustBacktracks,
    /// Three-valued implication passes over the unrolled controller.
    CtrljustImplications,
    /// `DPRELAX` invocations.
    DprelaxCalls,
    /// Relaxation iterations (good/bad simulation runs).
    DprelaxIterations,
    /// Random-restart perturbations applied.
    DprelaxPerturbations,
    /// Path-selection variants attempted across all errors.
    Variants,
    /// Counterexample-guided STS refinements.
    Refinements,
    /// Tests generated (simulation-confirmed detections).
    TestsGenerated,
    /// Errors aborted after exhausting the variant budget.
    Aborts,
    /// `CTRLJUST` invocations answered from the objective memo.
    CtrljustMemoHits,
    /// `CTRLJUST` invocations that ran the search and populated the memo.
    CtrljustMemoMisses,
    /// Good-machine runs recorded by the shared-prefix simulation cache.
    SimCacheGoodRuns,
    /// Screening queries answered against a recorded good run (one
    /// bad-machine run each, instead of a good/bad pair).
    SimCacheScreens,
    /// Errors detected by their class representative's test sequence
    /// (error-class collapsing), skipping full generation.
    CollapseScreened,
    /// Fault-parallel screening passes (each packs up to 64 candidate
    /// errors into one bit-sliced simulation).
    PackedScreens,
    /// Candidate errors carried as lanes of packed screening passes.
    PackedLanes,
    /// Untestability-prover invocations: one per target error in the
    /// pre-search pass, plus one per round-0 abort probed afterwards.
    ProverCalls,
    /// Three-valued implication passes spent inside prover refutations.
    ProverImplications,
    /// Conflicts learned by the prover (refuted objective sets, including
    /// subsumption hits against already-learned clauses).
    ProverConflicts,
    /// Errors proven untestable (a checkable certificate was produced).
    ProverProofs,
    /// Certificates that failed their re-check at a trust boundary (at
    /// generation, or read back from a checkpoint) and were not trusted.
    CertificatesRejected,
    /// Retry-round generation attempts actually scheduled (escalation
    /// slots consumed by aborted-but-unproven errors).
    RetryAttempts,
}

/// All counters, in reporting order.
pub const COUNTERS: [Counter; 27] = [
    Counter::DptraceCalls,
    Counter::DptraceSteps,
    Counter::DptraceModulesOnPath,
    Counter::CtrljustCalls,
    Counter::CtrljustDecisions,
    Counter::CtrljustBacktracks,
    Counter::CtrljustImplications,
    Counter::DprelaxCalls,
    Counter::DprelaxIterations,
    Counter::DprelaxPerturbations,
    Counter::Variants,
    Counter::Refinements,
    Counter::TestsGenerated,
    Counter::Aborts,
    Counter::CtrljustMemoHits,
    Counter::CtrljustMemoMisses,
    Counter::SimCacheGoodRuns,
    Counter::SimCacheScreens,
    Counter::CollapseScreened,
    Counter::PackedScreens,
    Counter::PackedLanes,
    Counter::ProverCalls,
    Counter::ProverImplications,
    Counter::ProverConflicts,
    Counter::ProverProofs,
    Counter::CertificatesRejected,
    Counter::RetryAttempts,
];

impl Counter {
    /// Stable snake_case name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Counter::DptraceCalls => "dptrace_calls",
            Counter::DptraceSteps => "dptrace_steps",
            Counter::DptraceModulesOnPath => "dptrace_modules_on_path",
            Counter::CtrljustCalls => "ctrljust_calls",
            Counter::CtrljustDecisions => "ctrljust_decisions",
            Counter::CtrljustBacktracks => "ctrljust_backtracks",
            Counter::CtrljustImplications => "ctrljust_implications",
            Counter::DprelaxCalls => "dprelax_calls",
            Counter::DprelaxIterations => "dprelax_iterations",
            Counter::DprelaxPerturbations => "dprelax_perturbations",
            Counter::Variants => "variants",
            Counter::Refinements => "refinements",
            Counter::TestsGenerated => "tests_generated",
            Counter::Aborts => "aborts",
            Counter::CtrljustMemoHits => "ctrljust_memo_hits",
            Counter::CtrljustMemoMisses => "ctrljust_memo_misses",
            Counter::SimCacheGoodRuns => "sim_cache_good_runs",
            Counter::SimCacheScreens => "sim_cache_screens",
            Counter::CollapseScreened => "collapse_screened",
            Counter::PackedScreens => "packed_screens",
            Counter::PackedLanes => "packed_lanes",
            Counter::ProverCalls => "prover_calls",
            Counter::ProverImplications => "prover_implications",
            Counter::ProverConflicts => "prover_conflicts",
            Counter::ProverProofs => "prover_proofs",
            Counter::CertificatesRejected => "certificates_rejected",
            Counter::RetryAttempts => "retry_attempts",
        }
    }

    /// The counter whose [`Counter::name`] is `name`, if any. The inverse
    /// mapping lets persisted counter snapshots (checkpoint entries) be
    /// replayed into a live probe on resume.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Counter> {
        COUNTERS.iter().copied().find(|c| c.name() == name)
    }

    fn index(self) -> usize {
        COUNTERS
            .iter()
            .position(|&c| c == self)
            .expect("counter is enumerated")
    }
}

/// Exact raw values of a [`Counters`] store, used to compute and replay
/// per-generation deltas across checkpoint resume.
///
/// Phase timing is kept in integer nanoseconds (not the reporting-side
/// `f64` seconds) so a persisted delta replays without rounding drift.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CounterDelta {
    /// Counter values in [`COUNTERS`] order.
    pub counts: [u64; COUNTERS.len()],
    /// Accumulated wall-clock nanoseconds per phase, in [`PHASES`] order.
    pub phase_ns: [u64; PHASES.len()],
    /// Timed calls per phase, in [`PHASES`] order.
    pub phase_calls: [u64; PHASES.len()],
}

impl CounterDelta {
    /// The element-wise difference `self - before` (saturating, so a
    /// mismatched baseline cannot wrap).
    #[must_use]
    pub fn minus(&self, before: &CounterDelta) -> CounterDelta {
        let mut d = CounterDelta::default();
        for i in 0..COUNTERS.len() {
            d.counts[i] = self.counts[i].saturating_sub(before.counts[i]);
        }
        for i in 0..PHASES.len() {
            d.phase_ns[i] = self.phase_ns[i].saturating_sub(before.phase_ns[i]);
            d.phase_calls[i] = self.phase_calls[i].saturating_sub(before.phase_calls[i]);
        }
        d
    }

    /// `true` when every field is zero (nothing worth persisting).
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.counts.iter().all(|&v| v == 0)
            && self.phase_ns.iter().all(|&v| v == 0)
            && self.phase_calls.iter().all(|&v| v == 0)
    }

    /// Feeds the delta back into `probe` as if the counted work had run:
    /// counter adds plus per-phase timing with the exact recorded call
    /// count and total nanoseconds.
    pub fn replay(&self, probe: &dyn Probe) {
        for (i, &c) in COUNTERS.iter().enumerate() {
            if self.counts[i] > 0 {
                probe.add(c, self.counts[i]);
            }
        }
        for (i, &p) in PHASES.iter().enumerate() {
            let calls = self.phase_calls[i];
            if calls == 0 {
                continue;
            }
            // One zero-length tick per extra call keeps the call count
            // exact; the final tick carries the whole recorded duration.
            for _ in 1..calls {
                probe.phase_time(p, Duration::ZERO);
            }
            probe.phase_time(p, Duration::from_nanos(self.phase_ns[i]));
        }
    }
}

/// How a per-error generation span ended, reported via
/// [`Probe::error_end`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanEnd {
    /// A simulation-confirmed test was generated.
    pub detected: bool,
    /// The prover certified the error untestable before any search; no
    /// phase ran.
    pub proven: bool,
    /// Abort-reason name (`""` when detected; the proof-kind name when
    /// proven).
    pub reason: &'static str,
    /// Name of the phase that exhausted the budget (`""` when detected).
    pub failed_phase: &'static str,
    /// Generated test length (`0` when aborted).
    pub test_length: usize,
    /// Cycle of first observable discrepancy (`0` when aborted).
    pub detected_cycle: usize,
    /// Total CTRLJUST backtracks across all variants.
    pub backtracks: usize,
}

/// Instrumentation hooks threaded through the test generator.
///
/// Implementations must be [`Sync`]: the campaign shares one probe across
/// its worker threads. Every method defaults to a no-op so the
/// uninstrumented path costs nothing beyond a virtual call that inlines
/// away against [`NO_PROBE`].
///
/// Hook tiers:
///
/// * **Counters / timers** (`add`, `phase_time`) — always delivered.
/// * **Span hooks** (`campaign_begin`, `error_begin`/`error_end`,
///   `error_screened`, `variant_begin`/`variant_end`,
///   `phase_enter`/`phase_exit`, `refinement`) — a handful per error;
///   always delivered.
/// * **Engine events** (`decision`, `backtrack`, `relax_step`,
///   `relax_perturb`) — per search step; delivered only when
///   [`Probe::wants_events`] returns `true`. The engines cache that flag
///   once per invocation, so the uninstrumented hot loop pays one branch.
pub trait Probe: Sync {
    /// Adds `n` to counter `c`.
    fn add(&self, c: Counter, n: u64) {
        let _ = (c, n);
    }

    /// Records wall-clock time spent inside phase `p`.
    fn phase_time(&self, p: Phase, d: Duration) {
        let _ = (p, d);
    }

    /// `true` when the probe consumes the fine-grained engine events.
    fn wants_events(&self) -> bool {
        false
    }

    /// A campaign is starting over `total_errors` enumerated errors.
    fn campaign_begin(&self, total_errors: usize) {
        let _ = total_errors;
    }

    /// Test generation for `error` begins (opens its span).
    fn error_begin(&self, error: &BusSslError) {
        let _ = error;
    }

    /// The span for error `id` ends with `end`.
    fn error_end(&self, id: u64, end: SpanEnd) {
        let _ = (id, end);
    }

    /// Error `id` was covered by simulating an earlier test; no
    /// generation ran (no span is opened).
    fn error_screened(&self, id: u64, detected: bool) {
        let _ = (id, detected);
    }

    /// Path-selection variant `variant` for error `id` begins.
    fn variant_begin(&self, id: u64, variant: usize) {
        let _ = (id, variant);
    }

    /// Variant `variant` for error `id` ended; on failure `failed_phase`
    /// names the engine phase that rejected it.
    fn variant_end(&self, id: u64, variant: usize, ok: bool, failed_phase: &'static str) {
        let _ = (id, variant, ok, failed_phase);
    }

    /// Engine phase `p` begins for error `id`.
    fn phase_enter(&self, id: u64, p: Phase) {
        let _ = (id, p);
    }

    /// Engine phase `p` for error `id` ended after wall-clock `d`, having
    /// performed `cost` deterministic work units (DPTRACE recursion steps,
    /// CTRLJUST implication passes, DPRELAX iterations).
    fn phase_exit(&self, id: u64, p: Phase, cost: u64, d: Duration) {
        let _ = (id, p, cost, d);
    }

    /// A counterexample-guided STS refinement at pipeframe `frame`.
    fn refinement(&self, id: u64, frame: usize) {
        let _ = (id, frame);
    }

    /// CTRLJUST made a decision at pipeframe `frame` (gated on
    /// [`Probe::wants_events`]).
    fn decision(&self, id: u64, frame: usize, value: bool) {
        let _ = (id, frame, value);
    }

    /// CTRLJUST backtracked at pipeframe `frame` with `depth` decisions
    /// on the stack (gated on [`Probe::wants_events`]).
    fn backtrack(&self, id: u64, frame: usize, depth: usize) {
        let _ = (id, frame, depth);
    }

    /// DPRELAX completed relaxation iteration `iteration`; `activated` is
    /// the error-activation state after it (gated on
    /// [`Probe::wants_events`]).
    fn relax_step(&self, id: u64, iteration: usize, activated: bool) {
        let _ = (id, iteration, activated);
    }

    /// DPRELAX applied a random-restart perturbation during iteration
    /// `iteration` (gated on [`Probe::wants_events`]).
    fn relax_perturb(&self, id: u64, iteration: usize) {
        let _ = (id, iteration);
    }

    /// Fault-injection hook (gated on [`Probe::wants_events`]): `true`
    /// asks CTRLJUST to treat its current state as a conflict and
    /// backtrack even though no objective failed. Only
    /// [`crate::chaos::ChaosProbe`] ever returns `true`; the default (and
    /// every observability probe) keeps the search untouched.
    fn spurious_backtrack(&self, id: u64, decisions: usize) -> bool {
        let _ = (id, decisions);
        false
    }
}

/// The do-nothing probe.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoProbe;

impl Probe for NoProbe {}

/// A shared instance of [`NoProbe`] for uninstrumented generators.
pub static NO_PROBE: NoProbe = NoProbe;

/// Fans every hook out to a list of probes, so [`Counters`] and
/// [`crate::trace::Tracer`] can observe one campaign simultaneously.
pub struct MultiProbe<'a> {
    probes: Vec<&'a dyn Probe>,
}

impl<'a> MultiProbe<'a> {
    /// A fan-out over `probes`, invoked in order.
    #[must_use]
    pub fn new(probes: Vec<&'a dyn Probe>) -> Self {
        MultiProbe { probes }
    }
}

impl std::fmt::Debug for MultiProbe<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "MultiProbe({} probes)", self.probes.len())
    }
}

impl Probe for MultiProbe<'_> {
    fn add(&self, c: Counter, n: u64) {
        for p in &self.probes {
            p.add(c, n);
        }
    }
    fn phase_time(&self, p: Phase, d: Duration) {
        for pr in &self.probes {
            pr.phase_time(p, d);
        }
    }
    fn wants_events(&self) -> bool {
        self.probes.iter().any(|p| p.wants_events())
    }
    fn campaign_begin(&self, total_errors: usize) {
        for p in &self.probes {
            p.campaign_begin(total_errors);
        }
    }
    fn error_begin(&self, error: &BusSslError) {
        for p in &self.probes {
            p.error_begin(error);
        }
    }
    fn error_end(&self, id: u64, end: SpanEnd) {
        for p in &self.probes {
            p.error_end(id, end);
        }
    }
    fn error_screened(&self, id: u64, detected: bool) {
        for p in &self.probes {
            p.error_screened(id, detected);
        }
    }
    fn variant_begin(&self, id: u64, variant: usize) {
        for p in &self.probes {
            p.variant_begin(id, variant);
        }
    }
    fn variant_end(&self, id: u64, variant: usize, ok: bool, failed_phase: &'static str) {
        for p in &self.probes {
            p.variant_end(id, variant, ok, failed_phase);
        }
    }
    fn phase_enter(&self, id: u64, p: Phase) {
        for pr in &self.probes {
            pr.phase_enter(id, p);
        }
    }
    fn phase_exit(&self, id: u64, p: Phase, cost: u64, d: Duration) {
        for pr in &self.probes {
            pr.phase_exit(id, p, cost, d);
        }
    }
    fn refinement(&self, id: u64, frame: usize) {
        for p in &self.probes {
            p.refinement(id, frame);
        }
    }
    fn decision(&self, id: u64, frame: usize, value: bool) {
        for p in &self.probes {
            p.decision(id, frame, value);
        }
    }
    fn backtrack(&self, id: u64, frame: usize, depth: usize) {
        for p in &self.probes {
            p.backtrack(id, frame, depth);
        }
    }
    fn relax_step(&self, id: u64, iteration: usize, activated: bool) {
        for p in &self.probes {
            p.relax_step(id, iteration, activated);
        }
    }
    fn relax_perturb(&self, id: u64, iteration: usize) {
        for p in &self.probes {
            p.relax_perturb(id, iteration);
        }
    }
    fn spurious_backtrack(&self, id: u64, decisions: usize) -> bool {
        self.probes
            .iter()
            .any(|p| p.spurious_backtrack(id, decisions))
    }
}

const N_COUNTERS: usize = COUNTERS.len();
const N_PHASES: usize = PHASES.len();

/// Atomic counter/timer store implementing [`Probe`].
#[derive(Debug, Default)]
pub struct Counters {
    counts: [AtomicU64; N_COUNTERS],
    phase_nanos: [AtomicU64; N_PHASES],
    phase_calls: [AtomicU64; N_PHASES],
}

impl Counters {
    /// A zeroed counter store.
    pub fn new() -> Self {
        Counters::default()
    }

    /// The current value of one counter.
    pub fn get(&self, c: Counter) -> u64 {
        self.counts[c.index()].load(Ordering::Relaxed)
    }

    /// The exact raw values of every counter and timer, for delta
    /// computation against a later [`Counters::raw`] of the same store.
    pub fn raw(&self) -> CounterDelta {
        let mut d = CounterDelta::default();
        for (i, &c) in COUNTERS.iter().enumerate() {
            d.counts[i] = self.get(c);
        }
        for (i, &p) in PHASES.iter().enumerate() {
            d.phase_ns[i] = self.phase_nanos[p.index()].load(Ordering::Relaxed);
            d.phase_calls[i] = self.phase_calls[p.index()].load(Ordering::Relaxed);
        }
        d
    }

    /// A plain-value copy of every counter and timer.
    pub fn snapshot(&self) -> CounterSnapshot {
        CounterSnapshot {
            counts: COUNTERS
                .iter()
                .map(|&c| (c.name(), self.get(c)))
                .collect(),
            phases: PHASES
                .iter()
                .map(|&p| PhaseSnapshot {
                    name: p.name(),
                    seconds: self.phase_nanos[p.index()].load(Ordering::Relaxed) as f64 / 1e9,
                    calls: self.phase_calls[p.index()].load(Ordering::Relaxed),
                })
                .collect(),
        }
    }
}

impl Probe for Counters {
    fn add(&self, c: Counter, n: u64) {
        self.counts[c.index()].fetch_add(n, Ordering::Relaxed);
    }

    fn phase_time(&self, p: Phase, d: Duration) {
        self.phase_nanos[p.index()].fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
        self.phase_calls[p.index()].fetch_add(1, Ordering::Relaxed);
    }
}

/// Accumulated wall-clock for one phase.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseSnapshot {
    /// Phase name (`dptrace` / `ctrljust` / `dprelax`).
    pub name: &'static str,
    /// Total seconds across all calls and threads.
    pub seconds: f64,
    /// Number of calls timed.
    pub calls: u64,
}

/// Plain-value snapshot of a [`Counters`] store.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CounterSnapshot {
    /// `(name, value)` for every counter, in [`COUNTERS`] order.
    pub counts: Vec<(&'static str, u64)>,
    /// Per-phase timing, in [`PHASES`] order.
    pub phases: Vec<PhaseSnapshot>,
}

impl CounterSnapshot {
    /// The value of a counter by name (0 when absent).
    pub fn count(&self, name: &str) -> u64 {
        self.counts
            .iter()
            .find(|&&(n, _)| n == name)
            .map(|&(_, v)| v)
            .unwrap_or(0)
    }
}

/// Formats an `f64` as a JSON number (JSON has no NaN/inf; they clamp to 0).
pub fn json_f64(v: f64) -> String {
    if v.is_finite() {
        // `{:?}` prints a round-trippable literal with a decimal point or
        // exponent, which is always a valid JSON number.
        format!("{v:?}")
    } else {
        "0".to_string()
    }
}

/// Escapes a string for inclusion in a JSON document.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

impl CounterSnapshot {
    /// Renders the snapshot as a JSON object fragment:
    /// `{"counters": {...}, "phases": {...}}` without surrounding braces,
    /// for embedding in a larger report.
    pub fn to_json_fields(&self) -> String {
        let mut out = String::new();
        out.push_str("\"counters\": {");
        for (i, &(name, v)) in self.counts.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{name}\": {v}");
        }
        out.push_str("}, \"phases\": {");
        for (i, p) in self.phases.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"seconds\": {}, \"calls\": {}}}",
                p.name,
                json_f64(p.seconds),
                p.calls
            );
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let c = Counters::new();
        c.add(Counter::CtrljustBacktracks, 3);
        c.add(Counter::CtrljustBacktracks, 4);
        c.phase_time(Phase::Dprelax, Duration::from_millis(250));
        assert_eq!(c.get(Counter::CtrljustBacktracks), 7);
        let snap = c.snapshot();
        assert_eq!(snap.count("ctrljust_backtracks"), 7);
        let relax = snap.phases.iter().find(|p| p.name == "dprelax").unwrap();
        assert!((relax.seconds - 0.25).abs() < 1e-9);
        assert_eq!(relax.calls, 1);
    }

    #[test]
    fn no_probe_is_silent() {
        // Compiles and does nothing — the default bodies.
        NO_PROBE.add(Counter::Variants, 99);
        NO_PROBE.phase_time(Phase::Dptrace, Duration::from_secs(1));
    }

    #[test]
    fn json_fragment_is_well_formed() {
        let c = Counters::new();
        c.add(Counter::TestsGenerated, 2);
        let json = format!("{{{}}}", c.snapshot().to_json_fields());
        assert!(json.contains("\"tests_generated\": 2"));
        assert!(json.contains("\"dptrace\": {\"seconds\": 0.0, \"calls\": 0}"));
        // Balanced braces.
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn step_budget_trips_exactly_at_the_limit() {
        let b = StepBudget::limited(3);
        assert!(b.charge(2));
        assert!(b.charge(1)); // lands exactly on the limit: still allowed
        assert!(!b.exhausted());
        assert!(!b.charge(1)); // first crossing charge fails
        assert!(b.exhausted());
        assert!(!b.charge(0)); // and the trip latches
        assert_eq!(b.used(), 3);

        let u = StepBudget::unlimited();
        assert!(u.charge(u64::MAX / 2));
        assert!(!u.exhausted());
    }

    #[test]
    fn escaping_and_numbers() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_f64(1.5), "1.5");
        assert_eq!(json_f64(f64::NAN), "0");
        assert_eq!(json_f64(2.0), "2.0");
    }

    #[test]
    fn json_f64_pins_the_non_finite_and_signed_zero_edge_cases() {
        // JSON has no NaN or infinities: the documented schema clamps all
        // three to the number 0.
        assert_eq!(json_f64(f64::NAN), "0");
        assert_eq!(json_f64(f64::INFINITY), "0");
        assert_eq!(json_f64(f64::NEG_INFINITY), "0");
        // Negative zero is a finite IEEE value and a valid JSON number;
        // it round-trips with its sign.
        assert_eq!(json_f64(-0.0), "-0.0");
        assert_eq!(json_f64(0.0), "0.0");
        // Subnormals and exponent forms stay parseable numbers.
        assert_eq!(json_f64(1e-300), "1e-300");
        assert_eq!(json_f64(-2.5e10), "-25000000000.0");
    }

    #[test]
    fn counter_from_name_inverts_name() {
        for &c in &COUNTERS {
            assert_eq!(Counter::from_name(c.name()), Some(c));
        }
        assert_eq!(Counter::from_name("not_a_counter"), None);
        assert_eq!(Counter::from_name(""), None);
    }

    #[test]
    fn counter_delta_round_trips_through_replay() {
        let c = Counters::new();
        let before = c.raw();
        c.add(Counter::DptraceSteps, 17);
        c.add(Counter::Variants, 2);
        c.phase_time(Phase::Ctrljust, Duration::from_nanos(1_234));
        c.phase_time(Phase::Ctrljust, Duration::from_nanos(766));
        let delta = c.raw().minus(&before);
        assert!(!delta.is_zero());

        let replayed = Counters::new();
        delta.replay(&replayed);
        assert_eq!(replayed.raw(), delta);
        let snap = replayed.snapshot();
        assert_eq!(snap.count("dptrace_steps"), 17);
        let cj = snap.phases.iter().find(|p| p.name == "ctrljust").unwrap();
        assert_eq!(cj.calls, 2);
        assert!((cj.seconds - 2e-6).abs() < 1e-12);

        assert!(CounterDelta::default().is_zero());
    }
}
