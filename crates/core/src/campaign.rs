//! Campaign runner: test generation over a whole error population, with
//! the statistics of the paper's Table 1.

use crate::chaos::{ChaosConfig, ChaosProbe};
use crate::checkpoint::{CheckpointEntry, CheckpointLog};
use crate::flight::{FlightRecorder, MetricsTimeline};
use crate::instrument::{
    json_f64, Counter, CounterDelta, CounterSnapshot, Counters, MultiProbe, Probe, SpanEnd,
};
use crate::prover::{invariant_bits, prove_invariant, prove_untestable, ProveConfig};
use crate::tg::{panic_payload, AbortReason, Outcome, TestCase, TestGenerator, TgConfig};
use crate::trace::{TraceSnapshot, Tracer};
use hltg_errors::{collapse_errors, enumerate_stage_errors, BusSslError, EnumPolicy};
use hltg_netlist::model::ProcessorModel;
use hltg_netlist::{Design, Stage};
use hltg_sim::{BatchScreen, Injection, Machine, PackedScreen, Schedule, MAX_LANES};
use std::collections::HashMap;
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, RwLock};
use std::time::{Duration, Instant};

/// Campaign configuration.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Pipe stages whose buses are targeted (the paper uses EX/MEM/WB).
    pub stages: Vec<Stage>,
    /// Error enumeration policy.
    pub policy: EnumPolicy,
    /// Per-error generator configuration.
    pub tg: TgConfig,
    /// Optional cap on the number of errors (for quick runs).
    pub limit: Option<usize>,
    /// Error simulation: after each generated test, simulate the remaining
    /// undetected errors against it and drop the ones it already detects.
    /// The paper's §VI notes its prototype did *not* do this and predicts
    /// large run-time improvements from it; this flag measures that claim.
    pub error_simulation: bool,
    /// Error-class collapsing: group errors whose sites canonicalize to
    /// the same underlying bus line (pass-through aliases, adjacent bits
    /// of one net) with the same polarity, run full generation only for
    /// class representatives, and screen the remaining members by *exact*
    /// simulation of an already-kept class test. A member the screen does
    /// not detect falls back to full generation, so collapsing never
    /// loses a detection — like [`CampaignConfig::error_simulation`] it
    /// only changes *which* errors are covered by simulation instead of
    /// dedicated generation. Off by default (the classic per-error loop);
    /// the `table1` binary turns it on.
    pub collapse: bool,
    /// Shared-prefix simulation cache for the screening loops: record the
    /// good machine's observable trace once per screened test and replay
    /// only the faulty machine per candidate error, instead of stepping a
    /// fresh good/bad pair for every (test, error) pair. Results are
    /// bit-identical to the uncached screen — only wall-clock and the
    /// `sim_cache_*` counters change.
    pub sim_cache: bool,
    /// Fault-parallel (packed) screening: batch up to 64 candidate errors
    /// of one screening pass into independent lanes of a bit-sliced
    /// simulation and step the design once, instead of one faulty replay
    /// per candidate. Requires [`CampaignConfig::sim_cache`]; lanes whose
    /// stuck line cannot pack fall back to the serial screen. Verdicts are
    /// bit-identical to the serial screen at any thread count and packing
    /// width — only wall-clock and the `packed_*` counters change.
    pub packed_screen: bool,
    /// Worker threads for the sharded campaign. `1` runs the classic
    /// sequential loop; the default is the machine's available parallelism.
    /// Per-error generation is a pure function of the seed and the error,
    /// and records are merged back into enumeration order, so every value
    /// produces identical records, statistics and reports. `0` is
    /// normalized to `1` by [`CampaignConfig::effective_threads`], the one
    /// place that interprets this field.
    pub num_threads: usize,
    /// Retry-with-escalation for aborted errors (default: no retries).
    pub retry: RetryPolicy,
    /// Wall-clock soft deadline for the sharded worker pool. Past the
    /// deadline, workers stop *claiming* new errors; the deterministic
    /// merge pass generates whatever remains, so recorded outcomes are
    /// unaffected — only the parallel schedule is cut short.
    pub soft_deadline: Option<Duration>,
    /// Per-error JSONL checkpoint file. Completed errors found in it are
    /// skipped on resume; newly completed errors are appended. A file
    /// written under a different configuration is refused — the campaign
    /// then warns on stderr and runs without persistence.
    pub checkpoint: Option<PathBuf>,
    /// Deterministic fault injection into the generator itself (used by
    /// the robustness tests and the chaos smoke run).
    pub chaos: Option<ChaosConfig>,
    /// Frame window for the untestability prover's bounded controller
    /// refutations. The prover always runs (see [`crate::prover`]): its
    /// frame-independent layers certify errors before any search, and its
    /// bounded layer tries every round-0 abort. Proven errors are
    /// recorded as [`Outcome::ProvenUntestable`] with a checkable
    /// certificate, leave the testable-coverage denominator, and never
    /// consume retry rounds.
    pub prove_frames: usize,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            stages: vec![Stage::new(2), Stage::new(3), Stage::new(4)],
            policy: EnumPolicy::RepresentativePerBus,
            tg: TgConfig::default(),
            limit: None,
            error_simulation: false,
            collapse: false,
            sim_cache: true,
            packed_screen: true,
            num_threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            retry: RetryPolicy::default(),
            soft_deadline: None,
            checkpoint: None,
            chaos: None,
            prove_frames: crate::prover::ProveConfig::default().frames,
        }
    }
}

impl CampaignConfig {
    /// The worker-thread count actually used: [`CampaignConfig::num_threads`]
    /// with `0` normalized to `1`.
    #[must_use]
    pub fn effective_threads(&self) -> usize {
        self.num_threads.max(1)
    }

    /// A validated builder over the default configuration. Prefer this
    /// over struct-literal updates: the builder rejects nonsensical
    /// combinations at `build()` time instead of normalizing them away at
    /// run time.
    #[must_use]
    pub fn builder() -> CampaignConfigBuilder {
        CampaignConfigBuilder::default()
    }

    /// The configuration as actually executed: chaos runs force the
    /// `CTRLJUST` memo off, because chaos spurious backtracks depend on
    /// global visit counts a memo replay would not advance —
    /// replay-exactness no longer holds. Every execution path
    /// ([`Campaign::run`] and the `hltg-serve` shard runner alike) must
    /// apply this *before* computing the checkpoint fingerprint, or a
    /// service shard and its finalizing merge would disagree about the
    /// checkpoint file they share.
    #[must_use]
    pub fn normalized(&self) -> CampaignConfig {
        let mut cfg = self.clone();
        if cfg.chaos.is_some() {
            cfg.tg.ctrljust_memo = false;
        }
        cfg
    }

    /// The prover configuration for round-0 aborts.
    fn prove_config(&self) -> ProveConfig {
        ProveConfig {
            frames: self.prove_frames.max(1),
            ..ProveConfig::default()
        }
    }
}

/// A configuration the builder refuses to produce.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// `threads(0)` was requested. The zero sentinel exists only for
    /// backwards compatibility of the raw struct field; the builder
    /// requires an honest count.
    ZeroThreads,
    /// `limit(0)` was requested — the campaign would target no errors.
    EmptyLimit,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroThreads => {
                write!(f, "threads(0): worker count must be at least 1")
            }
            ConfigError::EmptyLimit => {
                write!(f, "limit(0): the campaign would target no errors")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Builder for [`CampaignConfig`] with validated setters; see
/// [`CampaignConfig::builder`].
///
/// `collapse(true)` implies the sim-cache-compatible screening loop, so
/// the shared-prefix cache stays on unless [`sim_cache(false)`] is
/// requested *explicitly* — the combination remains expressible, it just
/// cannot happen by accident.
///
/// [`sim_cache(false)`]: CampaignConfigBuilder::sim_cache
#[derive(Debug, Clone, Default)]
pub struct CampaignConfigBuilder {
    cfg: CampaignConfig,
    /// Tri-state so `collapse(true)` can default the screen to cached
    /// without clobbering an explicit `sim_cache(false)`.
    sim_cache: Option<bool>,
    threads: Option<usize>,
    limit: Option<Option<usize>>,
}

impl CampaignConfigBuilder {
    /// Targets `stages` instead of the default EX/MEM/WB triple.
    #[must_use]
    pub fn stages(mut self, stages: Vec<Stage>) -> Self {
        self.cfg.stages = stages;
        self
    }

    /// Error enumeration policy.
    #[must_use]
    pub fn policy(mut self, policy: EnumPolicy) -> Self {
        self.cfg.policy = policy;
        self
    }

    /// Per-error generator configuration.
    #[must_use]
    pub fn tg(mut self, tg: TgConfig) -> Self {
        self.cfg.tg = tg;
        self
    }

    /// Caps the number of targeted errors. `build()` rejects `0`.
    #[must_use]
    pub fn limit(mut self, limit: usize) -> Self {
        self.limit = Some(Some(limit));
        self
    }

    /// Error simulation (screen later errors against each kept test).
    #[must_use]
    pub fn error_simulation(mut self, on: bool) -> Self {
        self.cfg.error_simulation = on;
        self
    }

    /// Error-class collapsing (see [`CampaignConfig::collapse`]).
    #[must_use]
    pub fn collapse(mut self, on: bool) -> Self {
        self.cfg.collapse = on;
        self
    }

    /// Shared-prefix simulation cache for the screening loops.
    #[must_use]
    pub fn sim_cache(mut self, on: bool) -> Self {
        self.sim_cache = Some(on);
        self
    }

    /// Fault-parallel (packed) screening (see
    /// [`CampaignConfig::packed_screen`]).
    #[must_use]
    pub fn packed_screen(mut self, on: bool) -> Self {
        self.cfg.packed_screen = on;
        self
    }

    /// Worker threads. `build()` rejects `0` — use `1` for the classic
    /// sequential loop.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Retry-with-escalation policy for aborted errors.
    #[must_use]
    pub fn retry(mut self, retry: RetryPolicy) -> Self {
        self.cfg.retry = retry;
        self
    }

    /// Wall-clock soft deadline for the sharded worker pool.
    #[must_use]
    pub fn soft_deadline(mut self, deadline: Duration) -> Self {
        self.cfg.soft_deadline = Some(deadline);
        self
    }

    /// Per-error JSONL checkpoint file.
    #[must_use]
    pub fn checkpoint(mut self, path: PathBuf) -> Self {
        self.cfg.checkpoint = Some(path);
        self
    }

    /// Deterministic fault injection into the generator itself.
    #[must_use]
    pub fn chaos(mut self, chaos: ChaosConfig) -> Self {
        self.cfg.chaos = Some(chaos);
        self
    }

    /// Frame window for the prover's bounded refutations (`0` is
    /// normalized to `1` by the prover).
    #[must_use]
    pub fn prove_frames(mut self, frames: usize) -> Self {
        self.cfg.prove_frames = frames;
        self
    }

    /// Validates and produces the configuration.
    pub fn build(self) -> Result<CampaignConfig, ConfigError> {
        let mut cfg = self.cfg;
        if let Some(limit) = self.limit {
            if limit == Some(0) {
                return Err(ConfigError::EmptyLimit);
            }
            cfg.limit = limit;
        }
        if let Some(threads) = self.threads {
            if threads == 0 {
                return Err(ConfigError::ZeroThreads);
            }
            cfg.num_threads = threads;
        }
        // Collapsing screens class members by simulation; the cached and
        // uncached screens are bit-identical, so collapse defaults to the
        // cached one. Only an explicit sim_cache(false) turns it off.
        cfg.sim_cache = self.sim_cache.unwrap_or(true);
        Ok(cfg)
    }
}

/// Retry-with-escalation for aborted errors.
///
/// After the main pass, every still-aborted, unproven error is
/// retried for up to `rounds` additional rounds. Round `r` multiplies the
/// generator's search budgets (`max_variants`, `CTRLJUST` backtracks,
/// `relax_iters`, and `max_steps` when set) by `escalate^r` and derives a
/// fresh RNG seed from the base seed and the round, so each retry is a
/// genuinely different, larger search rather than a replay. A retried
/// outcome replaces the original record (with the wall-clock summed) and
/// the record is tagged with the round that produced it. Retried tests
/// never feed the error-simulation screening pool; rounds run after the
/// main merge, so retries leave the thread-count invariance of the
/// records intact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Extra rounds after the main pass (`0` disables retries).
    pub rounds: u32,
    /// Geometric budget escalation per round (values below 2 are clamped
    /// to 2, so escalation is real).
    pub escalate: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            rounds: 0,
            escalate: 2,
        }
    }
}

impl RetryPolicy {
    /// The generator configuration for retry round `round` (1-based; the
    /// main pass is round 0 and uses `base` untouched).
    #[must_use]
    pub fn tg_for_round(&self, base: &TgConfig, round: u32) -> TgConfig {
        let mut cfg = base.clone();
        let m = u64::from(self.escalate.max(2)).saturating_pow(round);
        // One clamp for every escalated budget, in u64 *before* any cast:
        // `usize` budgets and the u64 `max_steps` saturate at the same
        // ceiling, so no escalation overflows or wraps on 32-bit targets.
        let clamp = |v: u64| v.min(1 << 30);
        let mul = |v: usize| clamp((v as u64).saturating_mul(m)) as usize;
        cfg.max_variants = mul(base.max_variants);
        cfg.ctrljust.max_backtracks = mul(base.ctrljust.max_backtracks);
        cfg.relax_iters = mul(base.relax_iters);
        cfg.max_steps = base.max_steps.map(|s| clamp(s.saturating_mul(m)));
        cfg.seed = base.seed ^ u64::from(round).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        cfg
    }
}

/// Per-error campaign record.
#[derive(Debug, Clone)]
pub struct ErrorRecord {
    /// The targeted error.
    pub error: BusSslError,
    /// Generation outcome.
    pub outcome: Outcome,
    /// Unused and always `false`: structural redundancy is certified as
    /// [`Outcome::ProvenUntestable`] with a
    /// [`crate::prover::ProofKind::ConstantLine`] proof. Kept only for
    /// source compatibility; nothing reads it.
    pub redundant: bool,
    /// Detected by simulating a test generated for an *earlier* error
    /// (only with [`CampaignConfig::error_simulation`]); no generation ran.
    pub by_simulation: bool,
    /// Wall-clock seconds spent on this error (summed over retry rounds).
    pub seconds: f64,
    /// Retry round that produced `outcome` (`0` = the main pass).
    pub round: u32,
}

/// Aggregated Table 1 statistics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CampaignStats {
    /// Errors targeted.
    pub errors: usize,
    /// Errors with a generated, simulation-confirmed test.
    pub detected: usize,
    /// Errors aborted.
    pub aborted: usize,
    /// Errors the untestability prover certified as untestable (disjoint
    /// from `aborted`; each carries a checkable certificate).
    pub proven_untestable: usize,
    /// Of the aborted: no datapath propagation path (observable only
    /// through the controller).
    pub aborted_no_path: usize,
    /// Of the aborted: a panic (injected or genuine) was isolated and
    /// recorded instead of killing the campaign.
    pub aborted_panicked: usize,
    /// Of the aborted: the deterministic step budget ran out.
    pub aborted_step_budget: usize,
    /// Errors detected only by an escalated retry round.
    pub detected_after_retry: usize,
    /// Mean test-sequence length over detected errors.
    pub avg_length: f64,
    /// Mean core (non-NOP) length over detected errors.
    pub avg_core_length: f64,
    /// Total CTRLJUST backtracks over detected errors.
    pub backtracks_detected: usize,
    /// Errors covered by error simulation instead of dedicated generation.
    pub detected_by_simulation: usize,
    /// Distinct generated tests (the compacted test set).
    pub test_set_size: usize,
    /// Total wall-clock seconds.
    pub seconds: f64,
    /// Histogram of sequence lengths (index = length, clamped at 32).
    pub length_histogram: Vec<usize>,
    /// Per-stage `(stage index, errors, detected)` breakdown.
    pub by_stage: Vec<(usize, usize, usize)>,
}

impl CampaignStats {
    /// Detection rate in percent.
    #[must_use]
    pub fn coverage_pct(&self) -> f64 {
        if self.errors == 0 {
            0.0
        } else {
            100.0 * self.detected as f64 / self.errors as f64
        }
    }

    /// Coverage over the *testable* population, the fairer comparison
    /// point. Only errors with an actual, checked untestability argument
    /// are excluded: the prover-certified `proven_untestable` records. A
    /// bare `no_path` abort is *not* excluded — the search giving up at a
    /// finite window proves nothing about the design, and counting it as
    /// untestable overstated this percentage on both sides.
    #[must_use]
    pub fn testable_coverage_pct(&self) -> f64 {
        let testable = self.errors - self.proven_untestable;
        if testable == 0 {
            0.0
        } else {
            100.0 * self.detected as f64 / testable as f64
        }
    }
}

impl fmt::Display for CampaignStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "No. of errors                    {:>8}", self.errors)?;
        writeln!(f, "No. of errors detected           {:>8}", self.detected)?;
        writeln!(f, "No. of errors aborted            {:>8}", self.aborted)?;
        writeln!(
            f,
            "    of which control-path only   {:>8}",
            self.aborted_no_path
        )?;
        writeln!(
            f,
            "No. of errors proven untestable  {:>8}",
            self.proven_untestable
        )?;
        if self.aborted_panicked > 0 {
            writeln!(
                f,
                "    of which panicked (isolated) {:>8}",
                self.aborted_panicked
            )?;
        }
        if self.aborted_step_budget > 0 {
            writeln!(
                f,
                "    of which step-budget         {:>8}",
                self.aborted_step_budget
            )?;
        }
        if self.detected_after_retry > 0 {
            writeln!(
                f,
                "Detected only after retry        {:>8}",
                self.detected_after_retry
            )?;
        }
        writeln!(f, "Average test sequence length     {:>8.1}", self.avg_length)?;
        writeln!(
            f,
            "Average non-NOP core length      {:>8.1}",
            self.avg_core_length
        )?;
        writeln!(
            f,
            "Backtracks (detected errors)     {:>8}",
            self.backtracks_detected
        )?;
        writeln!(f, "CPU time [seconds]               {:>8.1}", self.seconds)?;
        write!(
            f,
            "Coverage                         {:>7.1}% ({:.1}% of testable)",
            self.coverage_pct(),
            self.testable_coverage_pct()
        )
    }
}

/// A finished campaign: per-error records plus aggregation.
#[derive(Debug)]
pub struct Campaign {
    /// Per-error results, in enumeration order.
    pub records: Vec<ErrorRecord>,
}

/// What [`Campaign::run_observed`] records beyond the counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct ObserveOptions {
    /// Record per-error spans and phase histograms into a
    /// [`TraceSnapshot`].
    pub trace: bool,
    /// Print a periodic progress line (errors done/total, detect rate,
    /// per-phase p50/p99, ETA) to stderr while the campaign runs.
    pub progress: bool,
}

/// Options for [`Campaign::run`] — the single campaign entry point.
///
/// The default runs silently with counters only; turn on `trace` for a
/// merged deterministic [`TraceSnapshot`], `progress` for the periodic
/// stderr line, and supply `probe` to observe raw engine events alongside
/// the built-in instrumentation.
#[derive(Clone, Copy, Default)]
pub struct RunOptions<'p> {
    /// Record per-error spans and phase histograms into a
    /// [`TraceSnapshot`] (returned in [`CampaignRun::trace`]).
    pub trace: bool,
    /// Print a periodic progress line (errors done/total, detect rate,
    /// per-phase p50/p99, ETA) to stderr while the campaign runs.
    pub progress: bool,
    /// An additional probe composed with the built-in counters (and the
    /// tracer, when `trace` or `progress` is on).
    pub probe: Option<&'p dyn Probe>,
    /// Record a deterministic metrics timeline (returned in
    /// [`CampaignRun::metrics`]), sampling a cumulative snapshot every
    /// `N` completed errors.
    pub metrics: Option<usize>,
}

impl fmt::Debug for RunOptions<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RunOptions")
            .field("trace", &self.trace)
            .field("progress", &self.progress)
            .field("probe", &self.probe.map(|_| "<dyn Probe>"))
            .field("metrics", &self.metrics)
            .finish()
    }
}

/// The result of [`Campaign::run`].
#[derive(Debug)]
pub struct CampaignRun {
    /// The finished campaign.
    pub campaign: Campaign,
    /// The machine-readable report (stats + counters).
    pub report: CampaignReport,
    /// The merged deterministic trace, when [`RunOptions::trace`] was
    /// set.
    pub trace: Option<TraceSnapshot>,
    /// The merged deterministic metrics timeline, when
    /// [`RunOptions::metrics`] was set.
    pub metrics: Option<MetricsTimeline>,
}

/// Scheduling decision returned by [`ShardObserver::before_error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardControl {
    /// Keep going.
    Continue,
    /// Abandon the shard at this error boundary (cooperative
    /// cancellation): nothing is generated or recorded for this or any
    /// later error of the shard, and the attempt reports
    /// [`ShardStatus::stopped`].
    Stop,
}

/// Progress and control hooks for [`Campaign::run_shard`]: how an
/// external scheduler heartbeats, streams incremental results, injects
/// chaos kills and cancels a shard attempt, all at error granularity.
pub trait ShardObserver {
    /// Called before each error of the shard. Return
    /// [`ShardControl::Stop`] to abandon the attempt at this boundary —
    /// the supervisor's cancel/kill path.
    fn before_error(&mut self, _index: usize, _id: u64) -> ShardControl {
        ShardControl::Continue
    }

    /// Called after each completed per-error round, or once with the
    /// round-0 outcome when the error's whole chain was resumed from the
    /// checkpoint (`resumed` true: no generation ran).
    fn after_error(&mut self, _index: usize, _id: u64, _outcome: &Outcome, _round: u32, _resumed: bool) {
    }
}

/// What one [`Campaign::run_shard`] attempt accomplished.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStatus {
    /// Errors whose complete generation chain is now checkpointed.
    pub completed: usize,
    /// Of `completed`: resumed from the checkpoint without generating.
    pub resumed: usize,
    /// The observer stopped the attempt before the range was exhausted.
    pub stopped: bool,
}

/// Phase-1 result for one error, produced by a worker thread.
struct WorkItem {
    seconds: f64,
    /// `None` when the worker screened the error against the shared test
    /// pool and skipped generation.
    outcome: Option<Outcome>,
}

impl Campaign {
    /// Runs the campaign on `model` — the single entry point.
    ///
    /// With `config.num_threads <= 1` this is the classic sequential
    /// loop. With more threads the error list is sharded over a scoped
    /// worker pool (shared atomic cursor, so the faster workers steal the
    /// remaining errors); per-error generation is deterministic, and a
    /// sequential merge pass reorders the results by error index and
    /// replays the error-simulation covering order, so the resulting
    /// records are identical to the sequential run for every thread
    /// count.
    ///
    /// Counters always run; `opts` adds a merged deterministic
    /// [`TraceSnapshot`], a periodic progress line on stderr, and/or an
    /// external probe (all composed with a [`MultiProbe`], so any
    /// combination produces the same records and report).
    pub fn run(
        model: &dyn ProcessorModel,
        config: &CampaignConfig,
        opts: RunOptions<'_>,
    ) -> CampaignRun {
        let counters = Counters::new();
        let t0 = Instant::now();
        let tracer = (opts.trace || opts.progress).then(Tracer::new);
        let recorder = opts.metrics.map(FlightRecorder::new);
        let (campaign, deadline_exceeded) = {
            let mut list: Vec<&dyn Probe> = vec![&counters];
            if let Some(t) = &tracer {
                list.push(t);
            }
            if let Some(r) = &recorder {
                list.push(r);
            }
            if let Some(p) = opts.probe {
                list.push(p);
            }
            let multi;
            let probe: &dyn Probe = if list.len() == 1 {
                &counters
            } else {
                multi = MultiProbe::new(list);
                &multi
            };
            if let (true, Some(tracer)) = (opts.progress, tracer.as_ref()) {
                let stop = AtomicBool::new(false);
                std::thread::scope(|s| {
                    let stop = &stop;
                    s.spawn(move || {
                        let mut ticks = 0u32;
                        while !stop.load(Ordering::Relaxed) {
                            std::thread::sleep(Duration::from_millis(100));
                            ticks += 1;
                            if ticks.is_multiple_of(5) && !stop.load(Ordering::Relaxed) {
                                eprintln!("{}", tracer.progress_line());
                            }
                        }
                    });
                    let campaign = Self::run_chaos_wrapped(model, config, probe);
                    stop.store(true, Ordering::Relaxed);
                    campaign
                })
            } else {
                Self::run_chaos_wrapped(model, config, probe)
            }
        };
        if opts.progress {
            if let Some(tracer) = &tracer {
                eprintln!("{}", tracer.progress_line());
            }
        }
        // Mirror the deterministic record merge: keep exactly the spans
        // of errors that sequential semantics generated, in order.
        let trace = tracer.and_then(|tracer| {
            let kept = campaign
                .records
                .iter()
                .filter(|r| !r.by_simulation)
                .map(|r| u64::from(r.error.id.0));
            let snapshot = tracer.finish(kept);
            opts.trace.then_some(snapshot)
        });
        let metrics = recorder.map(|r| r.finish(&campaign.records, model.name()));
        let report = CampaignReport {
            stats: campaign.stats(),
            counters: counters.snapshot(),
            wall_seconds: t0.elapsed().as_secs_f64(),
            num_threads: config.effective_threads(),
            deadline_exceeded,
        };
        CampaignRun {
            campaign,
            report,
            trace,
            metrics,
        }
    }

    /// Runs the campaign and returns it together with a machine-readable
    /// [`CampaignReport`] carrying the engine instrumentation counters.
    #[deprecated(note = "use Campaign::run(model, config, RunOptions::default())")]
    pub fn run_with_report(
        model: &dyn ProcessorModel,
        config: &CampaignConfig,
    ) -> (Campaign, CampaignReport) {
        let run = Self::run(model, config, RunOptions::default());
        (run.campaign, run.report)
    }

    /// Runs the campaign with a merged trace and/or a progress line.
    #[deprecated(note = "use Campaign::run with RunOptions { trace, progress, .. }")]
    pub fn run_observed(
        model: &dyn ProcessorModel,
        config: &CampaignConfig,
        opts: &ObserveOptions,
    ) -> CampaignRun {
        Self::run(
            model,
            config,
            RunOptions {
                trace: opts.trace,
                progress: opts.progress,
                ..RunOptions::default()
            },
        )
    }

    /// Runs the campaign, reporting engine events to `probe`.
    #[deprecated(note = "use Campaign::run with RunOptions { probe: Some(..), .. }")]
    pub fn run_probed(
        model: &dyn ProcessorModel,
        config: &CampaignConfig,
        probe: &dyn Probe,
    ) -> Campaign {
        Self::run(
            model,
            config,
            RunOptions {
                probe: Some(probe),
                ..RunOptions::default()
            },
        )
        .campaign
    }

    /// Composes the configured chaos probe (last, so the observability
    /// probes have finished each hook before an injected panic unwinds)
    /// and runs the resilient loop.
    fn run_chaos_wrapped(
        model: &dyn ProcessorModel,
        config: &CampaignConfig,
        probe: &dyn Probe,
    ) -> (Campaign, usize) {
        match &config.chaos {
            Some(chaos) => {
                let chaos = ChaosProbe::new(chaos.clone());
                let multi = MultiProbe::new(vec![probe, &chaos]);
                Self::run_resilient(model, config, &multi)
            }
            None => Self::run_resilient(model, config, probe),
        }
    }

    fn run_resilient(
        model: &dyn ProcessorModel,
        config: &CampaignConfig,
        probe: &dyn Probe,
    ) -> (Campaign, usize) {
        let config = &config.normalized();
        let errors = Self::target_errors(model, config);
        probe.campaign_begin(errors.len());
        let ckpt = Self::open_checkpoint(model, config, probe);
        let ckpt = ckpt.as_ref();
        let proven = Self::prove_before_search(model.design(), &errors, probe, ckpt);
        // Class representative of every error (its own index when
        // collapsing is off or the error stands alone).
        let class_of: Vec<usize> = if config.collapse {
            let mut map: Vec<usize> = (0..errors.len()).collect();
            for class in collapse_errors(model.design(), &errors) {
                for member in class.members {
                    map[member] = class.representative;
                }
            }
            map
        } else {
            (0..errors.len()).collect()
        };
        let schedule = Schedule::build(model.design()).expect("design levelizes");
        let threads = config.effective_threads().min(errors.len().max(1));
        let (mut campaign, deadline_exceeded) = if threads <= 1 {
            (
                Self::run_serial(
                    model, config, probe, &errors, &class_of, &schedule, ckpt, proven,
                ),
                0,
            )
        } else {
            Self::run_sharded(
                model, config, probe, &errors, &class_of, &schedule, threads, ckpt, proven,
            )
        };
        Self::run_retries(model, config, probe, threads, &mut campaign, ckpt);
        (campaign, deadline_exceeded)
    }

    /// Certifies, before any search, every error of `errors` that the
    /// prover's frame-independent layers prove untestable: one
    /// [`invariant_bits`] fixpoint per call, then a lookup and a cone walk
    /// per error. Each certificate is re-checked before it is trusted. A
    /// certified error opens and closes its span here, with no phases,
    /// and is persisted to `ckpt` when the log lacks it, so the checkpoint
    /// stays a complete per-error ledger. It never reaches the generator,
    /// a screening candidate list or a retry round. Returns one slot per
    /// error, `Some` with the finished record where a certificate holds.
    fn prove_before_search(
        design: &Design,
        errors: &[BusSslError],
        probe: &dyn Probe,
        ckpt: Option<&CheckpointLog>,
    ) -> Vec<Option<ErrorRecord>> {
        let kb = invariant_bits(design);
        errors
            .iter()
            .map(|error| {
                let t0 = Instant::now();
                probe.add(Counter::ProverCalls, 1);
                let proof = prove_invariant(design, &kb, error)?;
                if !proof.check(design, error) {
                    probe.add(Counter::CertificatesRejected, 1);
                    return None;
                }
                probe.add(Counter::ProverProofs, 1);
                let id = u64::from(error.id.0);
                probe.error_begin(error);
                probe.error_end(
                    id,
                    SpanEnd {
                        detected: false,
                        proven: true,
                        reason: proof.kind.name(),
                        failed_phase: "",
                        test_length: 0,
                        detected_cycle: 0,
                        backtracks: 0,
                    },
                );
                let outcome = Outcome::ProvenUntestable(Box::new(proof));
                let seconds = t0.elapsed().as_secs_f64();
                if let Some(log) = ckpt.filter(|log| log.lookup(id, 0).is_none()) {
                    // Resume re-derives these rather than replaying them,
                    // so the entry carries no counter delta.
                    log.record(
                        id,
                        0,
                        &CheckpointEntry {
                            outcome: outcome.clone(),
                            redundant: false,
                            seconds,
                            counters: CounterDelta::default(),
                        },
                    );
                }
                Some(ErrorRecord {
                    error: error.clone(),
                    outcome,
                    redundant: false,
                    by_simulation: false,
                    seconds,
                    round: 0,
                })
            })
            .collect()
    }

    /// Re-checks every certificate persisted in `log` against `model`'s
    /// design and discards each one that fails, or that names no error of
    /// `config`'s population, so that error is generated afresh instead
    /// of trusted. A checkpoint read from disk is a trust boundary: a
    /// corrupt `proven_untestable` entry would otherwise quietly shrink
    /// the testable-coverage denominator. Returns the number discarded;
    /// the log counts them among its unusable lines.
    fn discard_unchecked_certificates(
        model: &dyn ProcessorModel,
        config: &CampaignConfig,
        log: &mut CheckpointLog,
    ) -> usize {
        let design = model.design();
        let population: HashMap<u64, BusSslError> =
            enumerate_stage_errors(design, &config.stages, config.policy)
                .into_iter()
                .map(|e| (u64::from(e.id.0), e))
                .collect();
        log.discard_unless(|id, _round, entry| match &entry.outcome {
            Outcome::ProvenUntestable(proof) => population
                .get(&id)
                .is_some_and(|error| proof.check(design, error)),
            _ => true,
        })
    }

    /// Opens the configured checkpoint log, if any, and discards every
    /// persisted certificate that fails its re-check (counted in
    /// [`Counter::CertificatesRejected`]). An unusable file (unreadable,
    /// or written under a different configuration or for a different
    /// design) is *not* clobbered: the campaign warns and runs without
    /// persistence.
    fn open_checkpoint(
        model: &dyn ProcessorModel,
        config: &CampaignConfig,
        probe: &dyn Probe,
    ) -> Option<CheckpointLog> {
        let path = config.checkpoint.as_ref()?;
        match CheckpointLog::open(path, &Self::checkpoint_fingerprint(model, config)) {
            Ok(mut log) => {
                let rejected = Self::discard_unchecked_certificates(model, config, &mut log);
                probe.add(Counter::CertificatesRejected, rejected as u64);
                if let Some(io) = config.chaos.as_ref().and_then(ChaosConfig::checkpoint_io) {
                    log.set_io_chaos(io);
                }
                if log.resumed() > 0 || log.skipped_lines() > 0 {
                    eprintln!(
                        "checkpoint: resuming {} completed errors from {} \
                         ({} unusable lines skipped)",
                        log.resumed(),
                        path.display(),
                        log.skipped_lines()
                    );
                }
                Some(log)
            }
            Err(e) => {
                eprintln!(
                    "checkpoint: {} is unusable ({e}); running without persistence",
                    path.display()
                );
                None
            }
        }
    }

    /// The configuration fingerprint stored in the checkpoint header. Two
    /// campaigns share a checkpoint only when everything that influences
    /// per-error generation matches — *including the design*: error ids
    /// are indices into the design's enumeration, so a checkpoint written
    /// under one backend is meaningless (and refused) under another.
    /// `limit` is deliberately excluded — error ids are stable across
    /// runs of one design, so a short run's checkpoint can seed a longer
    /// one.
    #[must_use]
    pub fn checkpoint_fingerprint(model: &dyn ProcessorModel, config: &CampaignConfig) -> String {
        format!(
            "v8 design={} width={} stages={:?} policy={:?} sim={} collapse={} \
             simcache={} packed={} tg={:?} retry={}x{} chaos={:?} prove_frames={}",
            model.name(),
            model.data_width(),
            config.stages,
            config.policy,
            config.error_simulation,
            config.collapse,
            config.sim_cache,
            config.packed_screen,
            config.tg,
            config.retry.rounds,
            config.retry.escalate,
            config.chaos,
            config.prove_frames,
        )
    }

    /// Generates a test for one error with worker-level isolation: a
    /// checkpoint hit skips generation entirely (replaying the entry's
    /// persisted counter delta into `probe`, so a resumed campaign's
    /// counters match the uninterrupted run); a panic that escapes the
    /// generator's own per-phase isolation (e.g. from a probe hook) is
    /// caught here and recorded as an aborted outcome, so the worker and
    /// its pool survive. Returns the outcome and the generation seconds
    /// (the value persisted to the checkpoint, so a resumed record equals
    /// the original byte for byte). `capture` is the per-worker counter
    /// store composed into `tg`'s probe chain; the difference across one
    /// generation is the delta persisted with the entry.
    #[allow(clippy::too_many_arguments)]
    fn generate_checkpointed(
        tg: &mut TestGenerator<'_>,
        capture: &Counters,
        probe: &dyn Probe,
        error: &BusSslError,
        ckpt: Option<&CheckpointLog>,
        round: u32,
        prove: Option<ProveConfig>,
    ) -> (Outcome, f64) {
        let id = u64::from(error.id.0);
        if let Some(entry) = ckpt.and_then(|log| log.lookup(id, round)) {
            // A persisted `proven_untestable` entry replays its proof,
            // re-checked when the log was opened — resume never re-proves.
            entry.counters.replay(probe);
            return (entry.outcome, entry.seconds);
        }
        Self::generate_uncached(tg, capture, error, ckpt, round, prove)
    }

    /// The generation half of [`Campaign::generate_checkpointed`]: always
    /// runs the generator — no checkpoint lookup — and records the
    /// result. [`Campaign::run_shard`] calls this directly when it
    /// regenerates an interrupted retry chain whose earlier rounds exist
    /// in the checkpoint but must not be replayed (the chaos probe's
    /// visit counts only line up when one probe instance sees the whole
    /// chain).
    #[allow(clippy::too_many_arguments)]
    fn generate_uncached(
        tg: &mut TestGenerator<'_>,
        capture: &Counters,
        error: &BusSslError,
        ckpt: Option<&CheckpointLog>,
        round: u32,
        prove: Option<ProveConfig>,
    ) -> (Outcome, f64) {
        let id = u64::from(error.id.0);
        let before = capture.raw();
        let t0 = Instant::now();
        if round > 0 {
            // Every actual retry generation charges a retry slot; the
            // counter lives inside the capture window so a resumed
            // campaign replays it with the entry.
            tg.probe().add(Counter::RetryAttempts, 1);
        }
        let mut outcome =
            match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| tg.generate(error))) {
                Ok(outcome) => outcome,
                Err(payload) => Outcome::Aborted {
                    reason: AbortReason::Panicked {
                        phase: "campaign",
                        payload: panic_payload(payload.as_ref()),
                    },
                    backtracks: 0,
                },
            };
        // Round-0 aborts face the untestability prover before anything
        // else sees them: a proof that re-checks turns the abort into a
        // certified `ProvenUntestable` (persisted below, so resume skips
        // the prover), and the retry machinery filters on the outcome. A
        // proof that fails its check leaves the abort standing.
        if let (Some(pcfg), Outcome::Aborted { .. }) = (prove, &outcome) {
            let design = tg.model().design();
            if let Some(proof) = prove_untestable(design, error, pcfg, tg.probe()) {
                if proof.check(design, error) {
                    outcome = Outcome::ProvenUntestable(Box::new(proof));
                } else {
                    tg.probe().add(Counter::CertificatesRejected, 1);
                }
            }
        }
        let seconds = t0.elapsed().as_secs_f64();
        if let Some(log) = ckpt {
            log.record(
                id,
                round,
                &CheckpointEntry {
                    outcome: outcome.clone(),
                    redundant: false,
                    seconds,
                    counters: capture.raw().minus(&before),
                },
            );
        }
        (outcome, seconds)
    }

    /// The per-worker counter capture composed in front of the campaign
    /// probe for one [`TestGenerator`]: everything the generator reports
    /// flows through both, and diffing `capture` around one generation
    /// yields the per-error counter delta the checkpoint persists.
    fn capture_probe<'a>(capture: &'a Counters, probe: &'a dyn Probe) -> MultiProbe<'a> {
        MultiProbe::new(vec![capture, probe])
    }

    /// The error population `config` targets on `model`, in enumeration
    /// order with the limit applied — the shared vocabulary between an
    /// external scheduler slicing the population into shards and the
    /// finalizing merge: index `i` and `errors[i].id` are stable across
    /// processes.
    #[must_use]
    pub fn target_errors(model: &dyn ProcessorModel, config: &CampaignConfig) -> Vec<BusSslError> {
        let errors = enumerate_stage_errors(model.design(), &config.stages, config.policy);
        let take = config.limit.unwrap_or(errors.len());
        errors.into_iter().take(take).collect()
    }

    /// Runs one contiguous slice `range` of the error population for an
    /// external scheduler (`hltg-serve`), recording every per-error
    /// generation — including its escalated retry chain — into `ckpt`.
    ///
    /// This is the *generation* half of a campaign only: no screening, no
    /// merge. The division of labor with [`Campaign::run`] is exact: a
    /// shard persists `(id, round)` entries; once every shard of a job
    /// has completed, re-running `Campaign::run` with the same
    /// (normalized) config over the same checkpoint finds every
    /// generation it needs as a replay hit, and its sequential merge +
    /// screening + retry semantics produce a report byte-identical to an
    /// uninterrupted run — per-error generation is a pure function of the
    /// seed and the error, which the soak suite pins end to end.
    ///
    /// Resume semantics: an error whose *complete* chain is already
    /// checkpointed (by an earlier attempt of this shard, a sibling in
    /// the same process sharing the live log, or a previous process) is
    /// skipped. An interrupted chain — round 0 persisted but a required
    /// retry round missing — is regenerated from round 0 with one fresh
    /// chaos probe, because chaos-injection decisions depend on per-error
    /// visit counts that only line up when a single probe instance sees
    /// the whole chain, exactly as in an uninterrupted run. Re-appended
    /// rounds overwrite identically (generation is pure), so duplicates
    /// are harmless.
    ///
    /// The observer is the scheduler's control surface: heartbeats and
    /// cooperative cancellation via [`ShardObserver::before_error`],
    /// result streaming via [`ShardObserver::after_error`].
    pub fn run_shard(
        model: &dyn ProcessorModel,
        config: &CampaignConfig,
        range: std::ops::Range<usize>,
        ckpt: &CheckpointLog,
        observer: &mut dyn ShardObserver,
    ) -> ShardStatus {
        let config = config.normalized();
        let errors = Self::target_errors(model, &config);
        let end = range.end.min(errors.len());
        let start = range.start.min(end);
        let chaos = config.chaos.clone().map(ChaosProbe::new);
        let probe: &dyn Probe = match &chaos {
            Some(c) => c,
            None => &crate::instrument::NoProbe,
        };
        let capture = Counters::new();
        let tg_probe = Self::capture_probe(&capture, probe);
        let mut tg = TestGenerator::with_probe(model, config.tg.clone(), &tg_probe);
        let proven =
            Self::prove_before_search(model.design(), &errors[start..end], probe, Some(ckpt));
        let mut status = ShardStatus::default();
        for (i, error) in errors.iter().enumerate().take(end).skip(start) {
            let id = u64::from(error.id.0);
            if observer.before_error(i, id) == ShardControl::Stop {
                status.stopped = true;
                return status;
            }
            if let Some(record) = &proven[i - start] {
                status.completed += 1;
                observer.after_error(i, id, &record.outcome, 0, false);
                continue;
            }
            if let Some(done) = Self::chain_complete(ckpt, id, &config.retry) {
                status.completed += 1;
                status.resumed += 1;
                observer.after_error(i, id, &done.outcome, 0, true);
                continue;
            }
            let (mut outcome, _) = Self::generate_uncached(
                &mut tg,
                &capture,
                error,
                Some(ckpt),
                0,
                Some(config.prove_config()),
            );
            observer.after_error(i, id, &outcome, 0, false);
            // The retry chain, eagerly: the finalizing merge retries every
            // still-aborted unproven record, and its targets are a subset
            // of the errors retried here (screening only removes targets),
            // so every retry round the merge will look up is already
            // persisted and replays instead of regenerating with
            // out-of-line chaos visit counts.
            let mut round = 0;
            while round < config.retry.rounds
                && !outcome.is_detected()
                && !outcome.is_proven_untestable()
            {
                round += 1;
                let tg_cfg = config.retry.tg_for_round(&config.tg, round);
                let mut retry_tg = TestGenerator::with_probe(model, tg_cfg, &tg_probe);
                (outcome, _) = Self::generate_uncached(
                    &mut retry_tg,
                    &capture,
                    error,
                    Some(ckpt),
                    round,
                    None,
                );
                observer.after_error(i, id, &outcome, round, false);
            }
            status.completed += 1;
        }
        status
    }

    /// The checkpointed state of one error's generation chain: `Some`
    /// with the round-0 entry when the chain is *complete* — round 0 plus
    /// every escalated retry round [`Campaign::run_retries`] could ask
    /// for — and `None` when anything is missing. A partial chain (the
    /// recording worker died between rounds) must be regenerated from
    /// round 0; see [`Campaign::run_shard`].
    fn chain_complete(
        ckpt: &CheckpointLog,
        id: u64,
        retry: &RetryPolicy,
    ) -> Option<CheckpointEntry> {
        let e0 = ckpt.lookup(id, 0)?;
        if e0.outcome.is_detected() || e0.outcome.is_proven_untestable() {
            return Some(e0);
        }
        for round in 1..=retry.rounds {
            let er = ckpt.lookup(id, round)?;
            if er.outcome.is_detected() {
                break;
            }
        }
        Some(e0)
    }

    #[allow(clippy::too_many_arguments)]
    fn run_serial(
        model: &dyn ProcessorModel,
        config: &CampaignConfig,
        probe: &dyn Probe,
        errors: &[BusSslError],
        class_of: &[usize],
        schedule: &Schedule,
        ckpt: Option<&CheckpointLog>,
        proven: Vec<Option<ErrorRecord>>,
    ) -> Campaign {
        let capture = Counters::new();
        let tg_probe = Self::capture_probe(&capture, probe);
        let mut tg = TestGenerator::with_probe(model, config.tg.clone(), &tg_probe);
        let mut records = proven;
        for i in 0..errors.len() {
            if records[i].is_some() {
                continue; // proven before search, or covered by error simulation
            }
            let error = errors[i].clone();
            let (outcome, seconds) = Self::generate_checkpointed(
                &mut tg,
                &capture,
                probe,
                &error,
                ckpt,
                0,
                Some(config.prove_config()),
            );
            if config.error_simulation || config.collapse {
                if let Outcome::Detected(tc) = &outcome {
                    // Simulate the remaining screening candidates against
                    // the new test — every later error with error
                    // simulation on, otherwise the later members of this
                    // error's class; each one it detects needs no
                    // generation of its own.
                    let mut slot = ScreenSlot::new();
                    let candidates: Vec<usize> = (i + 1..errors.len())
                        .filter(|&j| {
                            let same_class = config.collapse && class_of[j] == class_of[i];
                            records[j].is_none() && (config.error_simulation || same_class)
                        })
                        .collect();
                    screen_candidates(
                        model,
                        schedule,
                        probe,
                        config,
                        &mut slot,
                        tc,
                        errors,
                        &candidates,
                        |j, seconds| {
                            let other = &errors[j];
                            probe.error_screened(u64::from(other.id.0), true);
                            if config.collapse && class_of[j] == class_of[i] {
                                probe.add(Counter::CollapseScreened, 1);
                            }
                            records[j] = Some(ErrorRecord {
                                error: other.clone(),
                                outcome: outcome.clone(),
                                redundant: false,
                                by_simulation: true,
                                seconds,
                                round: 0,
                            });
                        },
                    );
                }
            }
            records[i] = Some(ErrorRecord {
                error,
                outcome,
                redundant: false,
                by_simulation: false,
                seconds,
                round: 0,
            });
        }
        Campaign {
            records: records.into_iter().flatten().collect(),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn run_sharded(
        model: &dyn ProcessorModel,
        config: &CampaignConfig,
        probe: &dyn Probe,
        errors: &[BusSslError],
        class_of: &[usize],
        schedule: &Schedule,
        threads: usize,
        ckpt: Option<&CheckpointLog>,
        proven: Vec<Option<ErrorRecord>>,
    ) -> (Campaign, usize) {
        let n = errors.len();
        let cursor = AtomicUsize::new(0);
        // Errors the pool left unclaimed when the soft deadline tripped
        // (max across workers — they all observe the same shrinking
        // remainder, the first to break sees the most).
        let deadline_left = AtomicUsize::new(0);
        let started = Instant::now();
        // Tests already generated, tagged with their error index. Workers
        // screen their next error against tests of *earlier* errors: if one
        // already detects it, the (expensive) generation can be skipped —
        // the merge pass below re-checks the skip against exact sequential
        // semantics.
        let pool: RwLock<Vec<(usize, TestCase)>> = RwLock::new(Vec::new());
        let (tx, rx) = mpsc::channel::<(usize, WorkItem)>();
        let mut slots: Vec<Option<WorkItem>> = Vec::new();
        slots.resize_with(n, || None);
        std::thread::scope(|s| {
            for _ in 0..threads {
                let tx = tx.clone();
                let (cursor, pool, deadline_left, proven) =
                    (&cursor, &pool, &deadline_left, &proven);
                s.spawn(move || {
                    let capture = Counters::new();
                    let tg_probe = Self::capture_probe(&capture, probe);
                    let mut tg = TestGenerator::with_probe(model, config.tg.clone(), &tg_probe);
                    // Per-worker view of the shared pool: the pool is
                    // append-only, so entries past `screens.len()` are new.
                    // Each entry carries this worker's lazily built
                    // screening slot, so one worker records each pooled
                    // test's good run at most once.
                    let mut screens: Vec<(usize, TestCase, ScreenSlot<'_>)> = Vec::new();
                    loop {
                        if config
                            .soft_deadline
                            .is_some_and(|d| started.elapsed() >= d)
                        {
                            // Scheduling only: stop claiming work. The merge
                            // pass generates whatever is left, so recorded
                            // outcomes are unaffected by the deadline — but
                            // the report surfaces how much the deadline cut.
                            let left = n.saturating_sub(cursor.load(Ordering::Relaxed));
                            deadline_left.fetch_max(left, Ordering::Relaxed);
                            break;
                        }
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        if proven[i].is_some() {
                            continue;
                        }
                        let error = &errors[i];
                        if config.error_simulation || config.collapse {
                            let t0 = Instant::now();
                            {
                                let pool = pool.read().expect("pool lock");
                                for (k, tc) in pool.iter().skip(screens.len()) {
                                    screens.push((*k, tc.clone(), ScreenSlot::new()));
                                }
                            }
                            let screened = screens.iter_mut().any(|(k, tc, slot)| {
                                *k < i
                                    && (config.error_simulation
                                        || (config.collapse && class_of[*k] == class_of[i]))
                                    && screen_test(
                                        model,
                                        schedule,
                                        probe,
                                        config.sim_cache,
                                        slot,
                                        tc,
                                        error,
                                    )
                            });
                            if screened {
                                probe.error_screened(u64::from(error.id.0), true);
                                let item = WorkItem {
                                    seconds: t0.elapsed().as_secs_f64(),
                                    outcome: None,
                                };
                                let _ = tx.send((i, item));
                                continue;
                            }
                        }
                        let (outcome, seconds) = Self::generate_checkpointed(
                            &mut tg,
                            &capture,
                            probe,
                            error,
                            ckpt,
                            0,
                            Some(config.prove_config()),
                        );
                        if config.error_simulation || config.collapse {
                            if let Outcome::Detected(tc) = &outcome {
                                pool.write().expect("pool lock").push((i, (**tc).clone()));
                            }
                        }
                        let item = WorkItem {
                            seconds,
                            outcome: Some(outcome),
                        };
                        let _ = tx.send((i, item));
                    }
                });
            }
            drop(tx);
            for (i, item) in rx {
                slots[i] = Some(item);
            }
        });

        // Deterministic merge: replay the sequential covering order over
        // the precomputed outcomes. Generation is a pure function of the
        // seed and the error, so a precomputed outcome equals what the
        // sequential loop would have computed at this point.
        let mut records = proven;
        let capture = Counters::new();
        let tg_probe = Self::capture_probe(&capture, probe);
        let mut tg = TestGenerator::with_probe(model, config.tg.clone(), &tg_probe);
        for i in 0..n {
            if records[i].is_some() {
                continue; // proven before search, or covered by an earlier kept test
            }
            // A missing slot means no worker finished this error — it was
            // never claimed (soft deadline) or its worker died before
            // sending (a panic that escaped every isolation layer).
            // Generation is pure, so generating here yields exactly what
            // the worker would have produced.
            let item = slots[i].take().unwrap_or(WorkItem {
                seconds: 0.0,
                outcome: None,
            });
            let (outcome, seconds) = match item.outcome {
                Some(o) => (o, item.seconds),
                None => {
                    // Also reached when the parallel screen relied on a
                    // pooled test whose own error turned out to be covered
                    // sequentially (its test is not in the sequential test
                    // set). Rare; regenerate to keep the sequential
                    // semantics exact.
                    let (o, s) = Self::generate_checkpointed(
                        &mut tg,
                        &capture,
                        probe,
                        &errors[i],
                        ckpt,
                        0,
                        Some(config.prove_config()),
                    );
                    (o, item.seconds + s)
                }
            };
            if config.error_simulation || config.collapse {
                if let Outcome::Detected(tc) = &outcome {
                    let mut slot = ScreenSlot::new();
                    let candidates: Vec<usize> = (i + 1..n)
                        .filter(|&j| {
                            let same_class = config.collapse && class_of[j] == class_of[i];
                            records[j].is_none() && (config.error_simulation || same_class)
                        })
                        .collect();
                    let records_ref = &mut records;
                    screen_candidates(
                        model,
                        schedule,
                        probe,
                        config,
                        &mut slot,
                        tc,
                        errors,
                        &candidates,
                        |j, seconds| {
                            let other = &errors[j];
                            if config.collapse && class_of[j] == class_of[i] {
                                probe.add(Counter::CollapseScreened, 1);
                            }
                            records_ref[j] = Some(ErrorRecord {
                                error: other.clone(),
                                outcome: outcome.clone(),
                                redundant: false,
                                by_simulation: true,
                                seconds,
                                round: 0,
                            });
                        },
                    );
                }
            }
            records[i] = Some(ErrorRecord {
                error: errors[i].clone(),
                outcome,
                redundant: false,
                by_simulation: false,
                seconds,
                round: 0,
            });
        }
        (
            Campaign {
                records: records.into_iter().flatten().collect(),
            },
            deadline_left.into_inner(),
        )
    }

    /// Re-runs still-aborted, unproven errors with escalated budgets
    /// per [`RetryPolicy`]. Rounds are sequential; within a round, errors
    /// shard over the worker pool (per-round generation stays pure, so
    /// the records remain identical for every thread count). Rounds stop
    /// early once nothing is left to retry.
    fn run_retries(
        model: &dyn ProcessorModel,
        config: &CampaignConfig,
        probe: &dyn Probe,
        threads: usize,
        campaign: &mut Campaign,
        ckpt: Option<&CheckpointLog>,
    ) {
        for round in 1..=config.retry.rounds {
            let targets: Vec<usize> = campaign
                .records
                .iter()
                .enumerate()
                .filter(|(_, r)| !r.outcome.is_detected() && !r.outcome.is_proven_untestable())
                .map(|(i, _)| i)
                .collect();
            if targets.is_empty() {
                break;
            }
            let tg_cfg = config.retry.tg_for_round(&config.tg, round);
            let retry_errors: Vec<BusSslError> = targets
                .iter()
                .map(|&i| campaign.records[i].error.clone())
                .collect();
            let results =
                Self::generate_batch(model, &tg_cfg, probe, &retry_errors, threads, ckpt, round);
            for (&i, (outcome, seconds)) in targets.iter().zip(&results) {
                let record = &mut campaign.records[i];
                record.seconds += seconds;
                record.outcome = outcome.clone();
                record.round = round;
            }
        }
    }

    /// Generates tests for `errors` under `tg_cfg`, sharding over up to
    /// `threads` workers. Results come back in input order; a dead
    /// worker's slots are regenerated inline, exactly as in the main
    /// merge pass.
    fn generate_batch(
        model: &dyn ProcessorModel,
        tg_cfg: &TgConfig,
        probe: &dyn Probe,
        errors: &[BusSslError],
        threads: usize,
        ckpt: Option<&CheckpointLog>,
        round: u32,
    ) -> Vec<(Outcome, f64)> {
        let n = errors.len();
        if threads.min(n) <= 1 {
            let capture = Counters::new();
            let tg_probe = Self::capture_probe(&capture, probe);
            let mut tg = TestGenerator::with_probe(model, tg_cfg.clone(), &tg_probe);
            return errors
                .iter()
                .map(|e| {
                    Self::generate_checkpointed(&mut tg, &capture, probe, e, ckpt, round, None)
                })
                .collect();
        }
        let cursor = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel::<(usize, (Outcome, f64))>();
        let mut slots: Vec<Option<(Outcome, f64)>> = Vec::new();
        slots.resize_with(n, || None);
        std::thread::scope(|s| {
            for _ in 0..threads.min(n) {
                let tx = tx.clone();
                let cursor = &cursor;
                s.spawn(move || {
                    let capture = Counters::new();
                    let tg_probe = Self::capture_probe(&capture, probe);
                    let mut tg = TestGenerator::with_probe(model, tg_cfg.clone(), &tg_probe);
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let result = Self::generate_checkpointed(
                            &mut tg, &capture, probe, &errors[i], ckpt, round, None,
                        );
                        let _ = tx.send((i, result));
                    }
                });
            }
            drop(tx);
            for (i, result) in rx {
                slots[i] = Some(result);
            }
        });
        slots
            .into_iter()
            .enumerate()
            .map(|(i, slot)| {
                slot.unwrap_or_else(|| {
                    let capture = Counters::new();
                    let tg_probe = Self::capture_probe(&capture, probe);
                    let mut tg = TestGenerator::with_probe(model, tg_cfg.clone(), &tg_probe);
                    Self::generate_checkpointed(
                        &mut tg, &capture, probe, &errors[i], ckpt, round, None,
                    )
                })
            })
            .collect()
    }

    /// Aggregates Table 1 statistics.
    pub fn stats(&self) -> CampaignStats {
        let mut s = CampaignStats {
            errors: self.records.len(),
            length_histogram: vec![0; 33],
            ..CampaignStats::default()
        };
        let mut total_len = 0usize;
        let mut total_core = 0usize;
        let mut stage_map: std::collections::BTreeMap<usize, (usize, usize)> =
            std::collections::BTreeMap::new();
        for r in &self.records {
            s.seconds += r.seconds;
            let entry = stage_map.entry(r.error.stage.index()).or_insert((0, 0));
            entry.0 += 1;
            if r.outcome.is_detected() {
                entry.1 += 1;
            }
            match &r.outcome {
                Outcome::Detected(tc) => {
                    s.detected += 1;
                    if r.round > 0 {
                        s.detected_after_retry += 1;
                    }
                    total_len += tc.length;
                    total_core += tc.core_len;
                    s.length_histogram[tc.length.min(32)] += 1;
                    if r.by_simulation {
                        s.detected_by_simulation += 1;
                    } else {
                        s.backtracks_detected += tc.backtracks;
                        s.test_set_size += 1;
                    }
                }
                Outcome::Aborted { reason, .. } => {
                    s.aborted += 1;
                    match reason {
                        AbortReason::Panicked { .. } => s.aborted_panicked += 1,
                        AbortReason::StepBudget { .. } => s.aborted_step_budget += 1,
                        _ => {}
                    }
                    if *reason == AbortReason::NoPath {
                        s.aborted_no_path += 1;
                    }
                }
                Outcome::ProvenUntestable(_) => s.proven_untestable += 1,
            }
        }
        if s.detected > 0 {
            s.avg_length = total_len as f64 / s.detected as f64;
            s.avg_core_length = total_core as f64 / s.detected as f64;
        }
        s.by_stage = stage_map
            .into_iter()
            .map(|(stage, (e, d))| (stage, e, d))
            .collect();
        s
    }

    /// Renders the Table 1 side-by-side comparison (paper vs this run).
    pub fn table1_report(&self) -> String {
        let s = self.stats();
        let mut out = String::new();
        use std::fmt::Write;
        let _ = writeln!(
            out,
            "Table 1: test generation for bus SSL errors in EX/MEM/WB stages"
        );
        let _ = writeln!(out, "{:<38} {:>10} {:>10}", "", "paper", "this run");
        let _ = writeln!(out, "{:<38} {:>10} {:>10}", "No. of errors", 298, s.errors);
        let _ = writeln!(
            out,
            "{:<38} {:>10} {:>10}",
            "No. of errors detected", 252, s.detected
        );
        let _ = writeln!(
            out,
            "{:<38} {:>10} {:>10}",
            "No. of errors aborted", 46, s.aborted
        );
        let _ = writeln!(
            out,
            "{:<38} {:>9.1}% {:>9.1}%",
            "Coverage",
            100.0 * 252.0 / 298.0,
            s.coverage_pct()
        );
        let _ = writeln!(
            out,
            "{:<38} {:>10} {:>10.1}",
            "Average test sequence length", 6.2, s.avg_length
        );
        let _ = writeln!(
            out,
            "{:<38} {:>10} {:>10}",
            "Backtracks (detected errors)", 50, s.backtracks_detected
        );
        let _ = writeln!(
            out,
            "{:<38} {:>9}m {:>9.1}s",
            "CPU time", 36, s.seconds
        );
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "aborted breakdown (this run): {} observable only through the \
             controller, {} other",
            s.aborted_no_path,
            s.aborted - s.aborted_no_path
        );
        let proven_of = |kind: &str| {
            self.records
                .iter()
                .filter(
                    |r| matches!(&r.outcome, Outcome::ProvenUntestable(p) if p.kind.name() == kind),
                )
                .count()
        };
        let _ = writeln!(
            out,
            "proven untestable (this run): {} constant_line, {} no_propagation_path, \
             {} ctrl_refuted (certified; excluded from testable coverage)",
            proven_of("constant_line"),
            proven_of("no_propagation_path"),
            proven_of("ctrl_refuted")
        );
        if s.detected_by_simulation > 0 {
            let _ = writeln!(
                out,
                "error simulation: {} of {} detections needed no generation; \
                 compacted test set holds {} tests",
                s.detected_by_simulation, s.detected, s.test_set_size
            );
        }
        if s.aborted_panicked > 0 || s.aborted_step_budget > 0 || s.detected_after_retry > 0 {
            let _ = writeln!(
                out,
                "resilience: {} panics isolated, {} step-budget aborts, \
                 {} detected only after retry",
                s.aborted_panicked, s.aborted_step_budget, s.detected_after_retry
            );
        }
        out
    }
}

/// Machine-readable campaign summary: the Table 1 aggregates plus the
/// engine instrumentation counters and per-phase timings.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Aggregated statistics.
    pub stats: CampaignStats,
    /// Engine counters and per-phase wall-clock, summed across workers.
    pub counters: CounterSnapshot,
    /// End-to-end wall-clock seconds (not summed across workers).
    pub wall_seconds: f64,
    /// Worker threads configured for the run.
    pub num_threads: usize,
    /// Errors the parallel pool left unclaimed because
    /// [`CampaignConfig::soft_deadline`] tripped. The deterministic merge
    /// pass generated them afterwards — records and outcomes are complete
    /// and unaffected — but the run did not fit its deadline budget, and
    /// this stat surfaces by how much instead of the deadline silently
    /// shaping the schedule.
    pub deadline_exceeded: usize,
}

impl CampaignReport {
    /// The deterministic aggregate fields (everything except wall-clock,
    /// thread count and engine counters), without enclosing braces.
    fn deterministic_json_fields(&self) -> String {
        use std::fmt::Write;
        let s = &self.stats;
        let mut out = String::new();
        let _ = write!(
            out,
            "\"errors\": {}, \"detected\": {}, \"aborted\": {}, \
             \"proven_untestable\": {}, \"aborted_no_path\": {}, \
             \"aborted_panicked\": {}, \"aborted_step_budget\": {}, \
             \"detected_after_retry\": {}, ",
            s.errors,
            s.detected,
            s.aborted,
            s.proven_untestable,
            s.aborted_no_path,
            s.aborted_panicked,
            s.aborted_step_budget,
            s.detected_after_retry
        );
        let _ = write!(
            out,
            "\"avg_length\": {}, \"avg_core_length\": {}, \
             \"backtracks_detected\": {}, \"detected_by_simulation\": {}, \
             \"test_set_size\": {}, ",
            json_f64(s.avg_length),
            json_f64(s.avg_core_length),
            s.backtracks_detected,
            s.detected_by_simulation,
            s.test_set_size
        );
        let _ = write!(
            out,
            "\"coverage_pct\": {}, \"testable_coverage_pct\": {}, ",
            json_f64(s.coverage_pct()),
            json_f64(s.testable_coverage_pct()),
        );
        out.push_str("\"length_histogram\": [");
        for (i, &c) in s.length_histogram.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "{c}");
        }
        out.push_str("], \"by_stage\": [");
        for (i, &(stage, errors, detected)) in s.by_stage.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "{{\"stage\": {stage}, \"errors\": {errors}, \"detected\": {detected}}}"
            );
        }
        out.push(']');
        out
    }

    /// Renders the report as a single JSON object (hand-rolled; the
    /// workspace deliberately has no external dependencies).
    #[must_use]
    pub fn to_json(&self) -> String {
        use std::fmt::Write;
        let mut out = String::from("{");
        out.push_str(&self.deterministic_json_fields());
        let _ = write!(
            out,
            ", \"seconds\": {}, \"wall_seconds\": {}, \"num_threads\": {}, \
             \"deadline_exceeded\": {}, \"deadline_partial\": {}, ",
            json_f64(self.stats.seconds),
            json_f64(self.wall_seconds),
            self.num_threads,
            self.deadline_exceeded,
            self.deadline_partial()
        );
        out.push_str(&self.counters.to_json_fields());
        out.push('}');
        out
    }

    /// True when the soft deadline cut the parallel schedule short. The
    /// report is still complete — the merge pass regenerated the
    /// remainder — so this flags a budget miss, not missing results.
    /// Wall-clock dependent, hence part of [`CampaignReport::to_json`]
    /// but never of [`CampaignReport::to_json_deterministic`].
    #[must_use]
    pub fn deadline_partial(&self) -> bool {
        self.deadline_exceeded > 0
    }

    /// Renders only the machine-invariant part of the report: the full
    /// aggregate statistics minus CPU/wall seconds, thread count and the
    /// engine counters. Two runs of the same campaign configuration must
    /// produce byte-identical output from this method regardless of
    /// thread count, and regardless of the pure caches
    /// ([`TgConfig::ctrljust_memo`], [`CampaignConfig::sim_cache`]) being
    /// on or off — the determinism tests and the `check.sh`
    /// cache-consistency smoke hold it to that.
    #[must_use]
    pub fn to_json_deterministic(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&self.deterministic_json_fields());
        out.push('}');
        out
    }
}

/// Loads a test's memory images into a machine (good or faulty alike).
fn preload_test(m: &mut Machine<'_>, model: &dyn ProcessorModel, test: &TestCase) {
    let pipe = model.pipeline();
    for &(addr, word) in &test.imem_image {
        m.preload_mem(pipe.imem, addr, u64::from(word));
    }
    for &(addr, value) in &test.dmem_image {
        m.preload_mem(pipe.dmem, addr, value);
    }
}

/// Detection horizon used by every screening path for `test`.
fn screen_horizon(test: &TestCase) -> u64 {
    test.program.len() as u64 + 16
}

/// Replays `test` against `error` on a fresh dual pair; `true` when the
/// observables diverge (the test detects the error too).
fn simulate_test(
    model: &dyn ProcessorModel,
    schedule: &Schedule,
    test: &TestCase,
    error: &BusSslError,
) -> bool {
    let mut good = Machine::with_schedule(model.design(), schedule.clone());
    let mut bad = Machine::with_schedule(model.design(), schedule.clone());
    bad.set_injection(Some(error.to_injection()));
    for m in [&mut good, &mut bad] {
        preload_test(m, model, test);
    }
    for _ in 0..screen_horizon(test) {
        let go = good.step();
        let bo = bad.step();
        if go != bo {
            return true;
        }
    }
    false
}

/// A content fingerprint of everything that determines a test's recorded
/// good run: the screening horizon (a function of the program length) and
/// the preloaded instruction/data memory images. FNV-1a over those words.
/// Also the per-test identity in the metrics timeline
/// ([`crate::flight::MetricRec::test_fp`]), where it groups detections by
/// covering test.
pub(crate) fn test_fingerprint(test: &TestCase) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut mix = |v: u64| {
        for byte in v.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(PRIME);
        }
    };
    mix(test.program.len() as u64);
    for &(addr, word) in &test.imem_image {
        mix(addr);
        mix(u64::from(word));
    }
    for &(addr, value) in &test.dmem_image {
        mix(addr);
        mix(value);
    }
    h
}

/// A lazily built screening slot: the recorded good run of one test, as a
/// serial [`BatchScreen`] and/or a fault-parallel [`PackedScreen`].
///
/// The slot is *keyed* by a [`test_fingerprint`] of the test it was built
/// for. Screening a different test through the same slot silently reused
/// the wrong recorded good run before this key existed; now any access
/// first re-keys the slot, dropping stale screens so they are rebuilt for
/// the test actually being screened.
struct ScreenSlot<'d> {
    built_for: Option<u64>,
    batch: Option<BatchScreen<'d>>,
    packed: Option<PackedScreen<'d>>,
}

impl<'d> ScreenSlot<'d> {
    fn new() -> Self {
        ScreenSlot {
            built_for: None,
            batch: None,
            packed: None,
        }
    }

    /// Drops any screen recorded for a different test than `test`.
    fn rekey(&mut self, test: &TestCase) {
        let fp = test_fingerprint(test);
        if self.built_for != Some(fp) {
            self.built_for = Some(fp);
            self.batch = None;
            self.packed = None;
        }
    }
}

/// Screens `error` against `test`, through the shared-prefix simulation
/// cache when it is enabled. `slot` holds the lazily built [`BatchScreen`]
/// for this test — the good machine runs once when the slot first fills,
/// and every further screen replays only the faulty machine against the
/// recorded observable trace. The returned verdict is bit-identical to
/// [`simulate_test`] either way.
fn screen_test<'d>(
    model: &'d dyn ProcessorModel,
    schedule: &Schedule,
    probe: &dyn Probe,
    sim_cache: bool,
    slot: &mut ScreenSlot<'d>,
    test: &TestCase,
    error: &BusSslError,
) -> bool {
    if !sim_cache {
        return simulate_test(model, schedule, test, error);
    }
    slot.rekey(test);
    let screen = slot.batch.get_or_insert_with(|| {
        probe.add(Counter::SimCacheGoodRuns, 1);
        BatchScreen::new(
            model.design(),
            schedule.clone(),
            |m| preload_test(m, model, test),
            screen_horizon(test),
        )
    });
    probe.add(Counter::SimCacheScreens, 1);
    screen.detects(error.to_injection())
}

/// Screens every candidate error (`candidates` are indices into `errors`)
/// against `test`, calling `on_detect(j, seconds)` for each detected one.
///
/// With the packed screen enabled (and the sim cache on, which it rides
/// on), packable candidates are batched [`MAX_LANES`] at a time into one
/// fault-parallel pass each; candidates whose stuck line cannot pack fall
/// back to the serial [`screen_test`]. Verdicts are bit-identical either
/// way, so callers observe the same detections in the same candidate
/// order regardless of packing.
#[allow(clippy::too_many_arguments)]
fn screen_candidates<'d>(
    model: &'d dyn ProcessorModel,
    schedule: &Schedule,
    probe: &dyn Probe,
    config: &CampaignConfig,
    slot: &mut ScreenSlot<'d>,
    test: &TestCase,
    errors: &[BusSslError],
    candidates: &[usize],
    mut on_detect: impl FnMut(usize, f64),
) {
    if !(config.sim_cache && config.packed_screen) || candidates.len() < 2 {
        for &j in candidates {
            let t1 = Instant::now();
            if screen_test(
                model,
                schedule,
                probe,
                config.sim_cache,
                slot,
                test,
                &errors[j],
            ) {
                on_detect(j, t1.elapsed().as_secs_f64());
            }
        }
        return;
    }
    slot.rekey(test);
    let packed = slot.packed.get_or_insert_with(|| {
        probe.add(Counter::SimCacheGoodRuns, 1);
        PackedScreen::new(
            model.design(),
            schedule.clone(),
            |m| preload_test(m, model, test),
            screen_horizon(test),
        )
    });
    let mut pack: Vec<(usize, Injection)> = Vec::with_capacity(candidates.len());
    let mut serial: Vec<usize> = Vec::new();
    for &j in candidates {
        let inj = errors[j].to_injection();
        if packed.can_pack(inj) {
            pack.push((j, inj));
        } else {
            serial.push(j);
        }
    }
    for chunk in pack.chunks(MAX_LANES) {
        let t0 = Instant::now();
        let injs: Vec<Injection> = chunk.iter().map(|&(_, inj)| inj).collect();
        let mask = packed.screen(&injs);
        probe.add(Counter::PackedScreens, 1);
        probe.add(Counter::PackedLanes, chunk.len() as u64);
        // Wall-clock attribution: the pass is shared, each lane gets an
        // equal share.
        let per_lane = t0.elapsed().as_secs_f64() / chunk.len() as f64;
        for (lane, &(j, _)) in chunk.iter().enumerate() {
            if mask & (1u64 << lane) != 0 {
                on_detect(j, per_lane);
            }
        }
    }
    for j in serial {
        let t1 = Instant::now();
        if screen_test(model, schedule, probe, true, slot, test, &errors[j]) {
            on_detect(j, t1.elapsed().as_secs_f64());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hltg_dlx::{DlxModel, LiteModel};

    #[test]
    fn small_campaign_detects_and_aggregates() {
        let model = DlxModel::new();
        let config = CampaignConfig {
            limit: Some(8),
            ..CampaignConfig::default()
        };
        let campaign = Campaign::run(&model, &config, RunOptions::default()).campaign;
        let stats = campaign.stats();
        assert_eq!(stats.errors, 8);
        assert!(stats.detected >= 6, "detected {}", stats.detected);
        assert!(stats.avg_length > 0.0);
        let report = campaign.table1_report();
        assert!(report.contains("paper"));
        assert!(report.contains("298"));
    }

    #[test]
    fn retry_escalation_clamps_all_budgets_alike() {
        let policy = RetryPolicy {
            rounds: 40,
            escalate: u32::MAX,
        };
        let base = TgConfig {
            max_steps: Some(u64::MAX / 2),
            ..TgConfig::default()
        };
        let cfg = policy.tg_for_round(&base, 7);
        // Every budget — the usize ones and the u64 step budget — hits
        // the same ceiling instead of saturating at type-dependent maxima.
        assert_eq!(cfg.max_variants, 1 << 30);
        assert_eq!(cfg.ctrljust.max_backtracks, 1 << 30);
        assert_eq!(cfg.relax_iters, 1 << 30);
        assert_eq!(cfg.max_steps, Some(1 << 30));
    }

    /// Regression: a screening slot records the good run of *one* test.
    /// Nothing used to tie the recorded run to the test being screened —
    /// a slot built for test A silently answered queries about test B
    /// with A's observable trace. The slot is now keyed by a test
    /// fingerprint: screening a different test through the same slot must
    /// rebuild the recorded run (a second good run, not a reuse) and give
    /// the same verdicts as fresh per-test slots.
    #[test]
    fn screen_slot_rebuilds_for_a_mismatched_test() {
        let model = DlxModel::new();
        let schedule = Schedule::build(model.design()).expect("design levelizes");
        let config = CampaignConfig::default();
        let errors = enumerate_stage_errors(model.design(), &config.stages, config.policy);
        let mut tg = TestGenerator::with_probe(&model, TgConfig::default(), &crate::instrument::NoProbe);
        let mut found: Vec<(BusSslError, TestCase)> = Vec::new();
        for e in &errors {
            if let Outcome::Detected(tc) = tg.generate(e) {
                let tc = (*tc).clone();
                if found
                    .iter()
                    .all(|(_, t)| test_fingerprint(t) != test_fingerprint(&tc))
                {
                    found.push((e.clone(), tc));
                }
                if found.len() == 2 {
                    break;
                }
            }
        }
        let (e2, t2) = found.pop().expect("two distinct tests");
        let (e1, t1) = found.pop().expect("two distinct tests");

        // Reference verdicts from slots dedicated to one test each:
        // screen each error against the *other* error's test.
        let mut fresh1 = ScreenSlot::new();
        let v1 = screen_test(&model, &schedule, &crate::instrument::NoProbe, true, &mut fresh1, &t1, &e2);
        let mut fresh2 = ScreenSlot::new();
        let v2 = screen_test(&model, &schedule, &crate::instrument::NoProbe, true, &mut fresh2, &t2, &e1);

        // The same queries through one shared slot: the second test must
        // force a rebuild (two good runs recorded), not reuse t1's run.
        let counters = Counters::new();
        let mut slot = ScreenSlot::new();
        assert_eq!(
            screen_test(&model, &schedule, &counters, true, &mut slot, &t1, &e2),
            v1
        );
        assert_eq!(
            screen_test(&model, &schedule, &counters, true, &mut slot, &t2, &e1),
            v2
        );
        assert_eq!(
            counters.get(Counter::SimCacheGoodRuns),
            2,
            "a slot holding a different test's run must be rebuilt, not reused"
        );
    }

    #[test]
    fn checkpoint_fingerprint_covers_cache_settings() {
        let model = DlxModel::new();
        let base = CampaignConfig::default();
        let fp = Campaign::checkpoint_fingerprint(&model, &base);
        assert!(fp.starts_with("v8 "), "fingerprint version bumped: {fp}");
        let collapse = CampaignConfig {
            collapse: true,
            ..base.clone()
        };
        let no_sim_cache = CampaignConfig {
            sim_cache: false,
            ..base.clone()
        };
        let no_packed = CampaignConfig {
            packed_screen: false,
            ..base.clone()
        };
        let frames = CampaignConfig {
            prove_frames: base.prove_frames + 1,
            ..base.clone()
        };
        let mut no_memo = base.clone();
        no_memo.tg.ctrljust_memo = false;
        for other in [&collapse, &no_sim_cache, &no_packed, &frames, &no_memo] {
            assert_ne!(
                fp,
                Campaign::checkpoint_fingerprint(&model, other),
                "cache settings must invalidate foreign checkpoints"
            );
        }
    }

    #[test]
    fn checkpoint_fingerprint_is_design_keyed() {
        let config = CampaignConfig::default();
        let dlx = Campaign::checkpoint_fingerprint(&DlxModel::new(), &config);
        let dlx16 = Campaign::checkpoint_fingerprint(&DlxModel::narrow(), &config);
        let lite = Campaign::checkpoint_fingerprint(&LiteModel::new(), &config);
        assert_ne!(dlx, dlx16, "width variants must not share checkpoints");
        assert_ne!(dlx, lite, "designs must not share checkpoints");
        assert_ne!(dlx16, lite);
        assert!(dlx.contains("design=dlx "), "{dlx}");
        assert!(lite.contains("design=dlx-lite "), "{lite}");
    }

    #[test]
    fn config_builder_validates_and_defaults() {
        let cfg = CampaignConfig::builder()
            .limit(8)
            .threads(2)
            .collapse(true)
            .build()
            .expect("valid config");
        assert_eq!(cfg.limit, Some(8));
        assert_eq!(cfg.num_threads, 2);
        assert!(cfg.collapse);
        assert!(cfg.sim_cache, "collapse keeps the cached screen on");
        assert!(cfg.packed_screen, "packed screening defaults on");
        let no_packed = CampaignConfig::builder()
            .packed_screen(false)
            .build()
            .expect("valid config");
        assert!(!no_packed.packed_screen);
        let explicit = CampaignConfig::builder()
            .collapse(true)
            .sim_cache(false)
            .build()
            .expect("explicit sim_cache(false) stays expressible");
        assert!(!explicit.sim_cache);
        assert_eq!(
            CampaignConfig::builder().threads(0).build().err(),
            Some(ConfigError::ZeroThreads)
        );
        assert_eq!(
            CampaignConfig::builder().limit(0).build().err(),
            Some(ConfigError::EmptyLimit)
        );
    }

    /// Errors the invariant layers certify never reach the search: no
    /// DPTRACE, CTRLJUST or DPRELAX phase is entered on their behalf,
    /// yet each still opens and closes its span, with zero phases.
    #[test]
    fn pre_proven_errors_make_no_search_calls() {
        struct PhaseCalls(std::sync::Mutex<HashMap<u64, u64>>);
        impl Probe for PhaseCalls {
            fn phase_enter(&self, id: u64, _p: crate::instrument::Phase) {
                *self.0.lock().unwrap().entry(id).or_insert(0) += 1;
            }
        }
        let lite = LiteModel::new();
        let probe = PhaseCalls(std::sync::Mutex::new(HashMap::new()));
        // Limit 57 reaches `set_seq.y[16]:sa0` (error 56), a constant line.
        let run = Campaign::run(
            &lite,
            &CampaignConfig {
                limit: Some(57),
                error_simulation: true,
                num_threads: 2,
                ..CampaignConfig::default()
            },
            RunOptions {
                trace: true,
                probe: Some(&probe),
                ..RunOptions::default()
            },
        );
        let calls = probe.0.into_inner().unwrap();
        let id_of = |r: &ErrorRecord| u64::from(r.error.id.0);
        let proven: Vec<u64> = run
            .campaign
            .records
            .iter()
            .filter(|r| matches!(&r.outcome, Outcome::ProvenUntestable(p) if !p.is_bounded()))
            .map(id_of)
            .collect();
        assert!(!proven.is_empty(), "the window holds a pre-proven error");
        for id in &proven {
            assert_eq!(
                calls.get(id),
                None,
                "pre-proven error {id} entered the search"
            );
        }
        assert!(
            run.campaign.records.iter().any(|r| r.outcome.is_detected()
                && !r.by_simulation
                && calls.contains_key(&id_of(r))),
            "the probe must see the search of generated errors"
        );
        let trace = run.trace.expect("trace requested");
        for id in &proven {
            let span = trace
                .spans
                .iter()
                .find(|s| s.id == *id)
                .expect("proven error has a span");
            assert!(span.phase_calls.is_empty());
            assert_eq!(span.reason, "constant_line");
        }
    }

    /// Pins both Table-1 percentages: overall coverage counts every
    /// enumerated error, while testable coverage excludes only errors
    /// with an actual untestability argument: the prover-certified
    /// records. A bare `no_path` abort used to be excluded too, silently
    /// treating a search failure at a finite window as a property of the
    /// design; it must stay in the denominator.
    #[test]
    fn stats_separate_testable_from_overall_coverage() {
        let stats = CampaignStats {
            errors: 10,
            detected: 6,
            aborted: 1,
            proven_untestable: 3,
            aborted_no_path: 1,
            ..CampaignStats::default()
        };
        assert!((stats.coverage_pct() - 60.0).abs() < 1e-9);
        // 10 - 3 proven = 7 testable; 6/7 detected. The bare no-path
        // abort stays in the denominator.
        assert!((stats.testable_coverage_pct() - 600.0 / 7.0).abs() < 1e-9);
        let no_proof = CampaignStats {
            proven_untestable: 0,
            aborted: 4,
            ..stats.clone()
        };
        // Without a certificate every abort counts as testable.
        assert!((no_proof.testable_coverage_pct() - 60.0).abs() < 1e-9);
        let empty = CampaignStats::default();
        assert_eq!(empty.coverage_pct(), 0.0);
        assert_eq!(empty.testable_coverage_pct(), 0.0);
    }

    /// Collapsing screens class members by exact simulation and falls
    /// back to full generation otherwise, so against the plain run it can
    /// only shrink the generated test set — never the coverage.
    #[test]
    fn collapse_screens_class_members_without_losing_detections() {
        let model = DlxModel::new();
        let base = CampaignConfig {
            policy: EnumPolicy::AllBits,
            limit: Some(12),
            num_threads: 1,
            ..CampaignConfig::default()
        };
        let collapsed_cfg = CampaignConfig {
            collapse: true,
            ..base.clone()
        };
        let plain = Campaign::run(&model, &base, RunOptions::default())
            .campaign
            .stats();
        let run = Campaign::run(&model, &collapsed_cfg, RunOptions::default());
        let (campaign, report) = (run.campaign, run.report);
        let collapsed = campaign.stats();
        assert_eq!(plain.errors, collapsed.errors);
        assert!(
            collapsed.detected >= plain.detected,
            "collapsing lost detections: {} vs {}",
            collapsed.detected,
            plain.detected
        );
        assert!(
            collapsed.test_set_size < plain.test_set_size,
            "adjacent bits of one bus must share a class test: {} vs {}",
            collapsed.test_set_size,
            plain.test_set_size
        );
        assert!(collapsed.detected_by_simulation > 0);
        // Every simulation detection here is a collapse screen (error
        // simulation itself is off), and the counter agrees.
        assert_eq!(
            report.counters.count("collapse_screened"),
            collapsed.detected_by_simulation as u64
        );
        // Screened members share their representative's recorded outcome.
        for r in &campaign.records {
            if r.by_simulation {
                assert!(r.outcome.is_detected());
            }
        }
    }

    /// Satellite: the soft deadline used to shape scheduling silently. A
    /// zero deadline over several workers must surface how many errors
    /// the pool left to the merge pass, in the report struct and the full
    /// JSON — but never in the deterministic JSON, where a wall-clock
    /// artifact has no place.
    #[test]
    fn soft_deadline_trips_are_surfaced_in_the_report() {
        let model = DlxModel::new();
        let config = CampaignConfig {
            limit: Some(6),
            num_threads: 4,
            soft_deadline: Some(Duration::ZERO),
            ..CampaignConfig::default()
        };
        let report = Campaign::run(&model, &config, RunOptions::default()).report;
        assert!(report.deadline_exceeded > 0, "zero deadline must trip");
        assert!(report.deadline_partial());
        assert_eq!(report.stats.errors, 6, "the merge still completes every record");
        let json = report.to_json();
        assert!(json.contains(&format!(
            "\"deadline_exceeded\": {}",
            report.deadline_exceeded
        )));
        assert!(json.contains("\"deadline_partial\": true"));
        assert!(!report.to_json_deterministic().contains("deadline"));

        let plain = CampaignConfig {
            soft_deadline: None,
            ..config
        };
        let report = Campaign::run(&model, &plain, RunOptions::default()).report;
        assert_eq!(report.deadline_exceeded, 0);
        assert!(!report.deadline_partial());
        assert!(report.to_json().contains("\"deadline_partial\": false"));
    }

    #[test]
    fn error_simulation_compacts_the_test_set() {
        let model = DlxModel::new();
        let base = CampaignConfig {
            limit: Some(16),
            ..CampaignConfig::default()
        };
        let with_sim = CampaignConfig {
            error_simulation: true,
            ..base.clone()
        };
        let plain = Campaign::run(&model, &base, RunOptions::default())
            .campaign
            .stats();
        let compact = Campaign::run(&model, &with_sim, RunOptions::default())
            .campaign
            .stats();
        // Same coverage, fewer generated tests, no lost detections.
        assert_eq!(plain.errors, compact.errors);
        assert!(compact.detected >= plain.detected);
        assert!(
            compact.test_set_size < plain.detected,
            "error simulation must drop some generations: {} vs {}",
            compact.test_set_size,
            plain.detected
        );
        assert!(compact.detected_by_simulation > 0);
    }
}
