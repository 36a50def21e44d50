//! `TG` — the overall test generation algorithm (paper Figure 3),
//! generic over any [`ProcessorModel`] backend.
//!
//! For one bus-SSL error the driver iterates the Figure 3/4 loop:
//!
//! 1. **`DPTRACE`** selects justification/propagation paths, yielding CTRL
//!    objectives at times relative to the activation cycle (re-invoked with
//!    a new `variant` whenever a later phase rejects the plan — the
//!    re-selection arrow of Figure 4).
//! 2. The pipeframe window is laid out: a fixed prologue of four `LW`
//!    instructions loads the operand registers `r1..r4` from the memory
//!    image; the frames after it are free pipeframes for the core
//!    instructions. The activation cycle is `T = core_start + stage(e)`.
//! 3. **`CTRLJUST`** searches CPI/STS assignments over the unrolled
//!    controller satisfying the plan objectives plus *quiet* objectives
//!    (no stall anywhere, no squash except where the plan redirects the
//!    PC), starting from the reset state.
//! 4. The decided CPI bits are completed into concrete opcodes; register
//!    fields are allocated honouring the STS decisions (equalities for
//!    planned bypass/hazard interactions, distinctness otherwise); branch
//!    immediates are pinned to `+8` so a taken transfer continues linearly
//!    past its two squashed slots.
//! 5. **`DPRELAX`** picks memory-image words and free immediate fields so
//!    the error is activated and the effect reaches an observable output —
//!    evaluated by an exact good/bad machine pair, so success *is*
//!    simulation confirmation.
//!
//! Every failure backtracks to step 1 with the next variant until the
//! variant budget is exhausted, in which case the error is *aborted*.
//!
//! Nothing here is DLX-specific: the pipeline geometry (stage indices,
//! bypass/stall/squash wires, PC-derivative buses) and the semantic shape
//! of every status signal come from the backend's
//! [`PipelineDesc`] descriptor, so the same driver serves the classic
//! five-stage DLX, its width variants and the merged-EX/MEM `dlx-lite`
//! pipeline.

use crate::ctrljust::{self, CtrlJustConfig, CtrlJustMemo, Objective};
use crate::dprelax::{Activation, MemImage, RelaxEngine, RelaxGoal};
use crate::dptrace::{self, DptraceConfig, PathPlan};
use crate::instrument::{Counter, Phase, Probe, SpanEnd, StepBudget, NO_PROBE};
use crate::rng::SplitMix64;
use crate::unroll::Unrolled;
use hltg_errors::BusSslError;
use hltg_isa::asm::Program;
use hltg_isa::instr::{ALL_OPCODES, Format};
use hltg_isa::{Instr, Opcode};
use hltg_netlist::ctl::CtlNetId;
use hltg_netlist::model::{FieldSlot, PipelineDesc, ProcessorModel, StsKind};
use hltg_sim::{Polarity, Schedule, V3};
use std::collections::HashMap;

/// Configuration of the test generator.
#[derive(Debug, Clone)]
pub struct TgConfig {
    /// Path-selection variants to try before aborting.
    pub max_variants: usize,
    /// Controller-justification limits.
    pub ctrljust: CtrlJustConfig,
    /// Path-selection window bounds.
    pub dptrace: DptraceConfig,
    /// Discrete-relaxation iteration budget per variant.
    pub relax_iters: usize,
    /// Global deterministic step budget per error, across all variants
    /// and phases: `DPTRACE` recursion steps + `CTRLJUST` implication
    /// passes + `DPRELAX` iterations. Counts work units, never
    /// wall-clock, so an exhausted budget aborts at a byte-identical
    /// point for any worker-thread count. `None` (the default) is
    /// unlimited.
    pub max_steps: Option<u64>,
    /// RNG seed for relaxation heuristics.
    pub seed: u64,
    /// Memoize `CTRLJUST` searches keyed by (pipeframe window,
    /// pre-assignments, objectives, monitors). Consecutive errors on the
    /// same net share the whole controller-justification workload, so a
    /// hit replays the recorded search — probe events, counters and step
    /// charges included — instead of re-running it. Replay-exact:
    /// disabling this changes nothing but wall-clock and the
    /// `ctrljust_memo_*` counters. The campaign engine forces it off
    /// when chaos injection is configured (spurious backtracks depend on
    /// global visit counts a replay would not advance).
    pub ctrljust_memo: bool,
    /// Emit step-by-step tracing on stderr (debugging aid).
    pub debug: bool,
}

impl Default for TgConfig {
    fn default() -> Self {
        TgConfig {
            max_variants: 12,
            ctrljust: CtrlJustConfig::default(),
            dptrace: DptraceConfig::default(),
            relax_iters: 48,
            max_steps: None,
            seed: 0x5eed_1999,
            ctrljust_memo: true,
            debug: false,
        }
    }
}

/// A generated, simulation-confirmed verification test.
#[derive(Debug, Clone)]
pub struct TestCase {
    /// The *dynamic* instruction sequence, in fetch order (trailing
    /// all-zero NOP frames trimmed to the drain length). With a
    /// register-indirect jump in the test the stream is not contiguous in
    /// memory; load [`TestCase::imem_image`] rather than these words.
    pub program: Program,
    /// Initial instruction-memory image `(word_addr, word)` — the actual
    /// memory layout to load, including rebased regions after
    /// register-indirect jumps.
    pub imem_image: Vec<(u64, u32)>,
    /// Initial data-memory image `(word_addr, value)`.
    pub dmem_image: Vec<(u64, u64)>,
    /// Number of instructions up to and including the last non-NOP.
    pub core_len: usize,
    /// Total sequence length including the NOP drain to the detection
    /// point (the paper's notion of test length).
    pub length: usize,
    /// Cycle of first observable discrepancy.
    pub detected_cycle: usize,
    /// CTRLJUST backtracks in the successful attempt.
    pub backtracks: usize,
    /// DPTRACE variant that succeeded.
    pub variant: usize,
    /// Relaxation iterations in the successful attempt.
    pub relax_iterations: usize,
}

/// Internal allocation/model-check failure, possibly refinable by
/// re-running the controller search with a corrected status assumption.
enum StsFailure {
    /// A status decision contradicts a value fixed by the instruction
    /// stream; retry with the actual value assumed.
    Refinable {
        frame: usize,
        net: CtlNetId,
        actual: bool,
    },
    /// Not refinable.
    Fatal,
}

/// Why a test could not be generated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AbortReason {
    /// `DPTRACE` found no justification/propagation path in any variant
    /// (typically buses observable only through the controller).
    NoPath,
    /// `CTRLJUST` could not satisfy the control objectives.
    ControlJustification,
    /// Opcode completion / register allocation was inconsistent.
    Assembly,
    /// `DPRELAX` did not converge.
    ValueSelection,
    /// A confirmed test's instruction word failed to decode: the memory
    /// image activates the error through a word that is not a valid
    /// instruction, so the test cannot be reported as a program.
    BadEncoding,
    /// The global [`TgConfig::max_steps`] budget ran out (deterministic
    /// work units, identical abort point for any thread count).
    StepBudget {
        /// The engine phase that consumed the final unit.
        phase: Phase,
    },
    /// Generation panicked; the panic was isolated by the per-phase
    /// `catch_unwind` and converted into this abort.
    Panicked {
        /// Name of the pipeline phase (or `"generate"` for panics
        /// outside the three engines, `"campaign"` for panics outside
        /// the generator) that panicked.
        phase: &'static str,
        /// The panic payload, when it was a string.
        payload: String,
    },
}

impl AbortReason {
    /// Stable snake_case name used in reports and trace events.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            AbortReason::NoPath => "no_path",
            AbortReason::ControlJustification => "control_justification",
            AbortReason::Assembly => "assembly",
            AbortReason::ValueSelection => "value_selection",
            AbortReason::BadEncoding => "bad_encoding",
            AbortReason::StepBudget { .. } => "step_budget",
            AbortReason::Panicked { .. } => "panicked",
        }
    }

    /// The pipeline phase that exhausted its budget, as named in trace
    /// events (`assembly` covers the opcode/register/model-check steps
    /// between CTRLJUST and DPRELAX).
    #[must_use]
    pub fn phase_name(&self) -> &'static str {
        match self {
            AbortReason::NoPath => "dptrace",
            AbortReason::ControlJustification => "ctrljust",
            AbortReason::Assembly | AbortReason::BadEncoding => "assembly",
            AbortReason::ValueSelection => "dprelax",
            AbortReason::StepBudget { phase } => phase.name(),
            AbortReason::Panicked { phase, .. } => phase,
        }
    }
}

/// The result of test generation for one error.
#[derive(Debug, Clone)]
pub enum Outcome {
    /// A confirmed test was generated.
    Detected(Box<TestCase>),
    /// Generation failed within budget.
    Aborted {
        /// Failure mode of the final variant attempted.
        reason: AbortReason,
        /// Total CTRLJUST backtracks across all variants.
        backtracks: usize,
    },
    /// The untestability prover established that no activating and
    /// propagating sequence exists; the certificate is checkable with
    /// [`crate::prover::UntestableProof::check`]. These errors leave the
    /// coverage denominator and never enter retry rounds.
    ProvenUntestable(Box<crate::prover::UntestableProof>),
}

impl Outcome {
    /// `true` for [`Outcome::Detected`].
    pub fn is_detected(&self) -> bool {
        matches!(self, Outcome::Detected(_))
    }

    /// `true` for [`Outcome::ProvenUntestable`]: the error is hopeless and
    /// must not consume retry effort.
    pub fn is_proven_untestable(&self) -> bool {
        matches!(self, Outcome::ProvenUntestable(_))
    }
}

/// Catches a panic in `f` and converts it into an
/// [`AbortReason::Panicked`] abort naming `phase`. Any state `f` touched
/// is abandoned by the caller (the whole attempt — or error — is given
/// up), so the `AssertUnwindSafe` is sound: nothing partially mutated is
/// ever observed again.
#[allow(clippy::type_complexity)]
fn catch_phase<T>(
    phase: &'static str,
    f: impl FnOnce() -> T,
) -> Result<T, (AbortReason, Option<(usize, CtlNetId, bool)>)> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(v) => Ok(v),
        Err(payload) => Err((
            AbortReason::Panicked {
                phase,
                payload: panic_payload(payload.as_ref()),
            },
            None,
        )),
    }
}

/// Best-effort extraction of a panic message from a payload.
pub(crate) fn panic_payload(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Frame index at which the free core region begins (after the 4-load
/// prologue).
const CORE_START: usize = 6;
/// First free (non-prologue-load) frame: producers for planned bypasses.
const FREE_START: usize = 4;
/// Byte address of the memory image slot backing register `rk`.
fn image_addr(k: u32) -> i32 {
    0x400 + 4 * k as i32
}

/// The test generator, reusable across errors of one design.
pub struct TestGenerator<'d> {
    model: &'d dyn ProcessorModel,
    pipe: &'d PipelineDesc,
    cfg: TgConfig,
    probe: &'d dyn Probe,
    /// Levelized evaluation order, built once and shared by every
    /// `DPRELAX` machine pair this generator constructs.
    schedule: Schedule,
    /// `CTRLJUST` search memo (see [`TgConfig::ctrljust_memo`]).
    memo: CtrlJustMemo,
}

impl<'d> TestGenerator<'d> {
    /// Creates a generator for `model`.
    pub fn new(model: &'d dyn ProcessorModel, cfg: TgConfig) -> Self {
        Self::with_probe(model, cfg, &NO_PROBE)
    }

    /// Creates a generator reporting engine events to `probe`. The probe
    /// may be shared across threads (it is `Sync`); the campaign engine
    /// hands every worker the same counter store.
    pub fn with_probe(
        model: &'d dyn ProcessorModel,
        cfg: TgConfig,
        probe: &'d dyn Probe,
    ) -> Self {
        let schedule = Schedule::build(model.design()).expect("design levelizes");
        TestGenerator {
            model,
            pipe: model.pipeline(),
            cfg,
            probe,
            schedule,
            memo: CtrlJustMemo::default(),
        }
    }

    /// The model this generator targets.
    pub fn model(&self) -> &'d dyn ProcessorModel {
        self.model
    }

    /// The probe this generator reports to (the campaign's composed
    /// counter chain — the untestability prover reports through the same
    /// probe so its counters persist with the per-error checkpoint delta).
    pub fn probe(&self) -> &'d dyn Probe {
        self.probe
    }

    /// Generates (and confirms) a test for `error`, or reports an abort.
    ///
    /// Resilient by construction: a panic anywhere in the attempt is
    /// caught (per engine phase, so the abort names the phase that
    /// panicked) and becomes [`AbortReason::Panicked`]; the probe span is
    /// closed normally either way, so a panicking error never corrupts
    /// the campaign trace or kills a worker thread.
    pub fn generate(&mut self, error: &BusSslError) -> Outcome {
        let id = u64::from(error.id.0);
        self.probe.error_begin(error);
        let budget = match self.cfg.max_steps {
            Some(limit) => StepBudget::limited(limit),
            None => StepBudget::unlimited(),
        };
        let mut total_backtracks = 0usize;
        let mut last_reason = AbortReason::NoPath;
        'variants: for variant in 0..self.cfg.max_variants {
            self.probe.add(Counter::Variants, 1);
            self.probe.variant_begin(id, variant);
            // Counterexample-guided refinement: a status decision that the
            // assembled instruction stream contradicts is re-assumed at its
            // actual value and the controller search repeated.
            let mut assumptions: Vec<(usize, CtlNetId, bool)> = Vec::new();
            for _refine in 0..4 {
                let attempted = match catch_phase("generate", || {
                    self.attempt(error, variant, &assumptions, &mut total_backtracks, &budget)
                }) {
                    Ok(inner) => inner,
                    Err(caught) => Err(caught),
                };
                match attempted {
                    Ok(test) => {
                        self.probe.add(Counter::TestsGenerated, 1);
                        self.probe.variant_end(id, variant, true, "");
                        self.probe.error_end(
                            id,
                            SpanEnd {
                                detected: true,
                                proven: false,
                                reason: "",
                                failed_phase: "",
                                test_length: test.length,
                                detected_cycle: test.detected_cycle,
                                backtracks: total_backtracks,
                            },
                        );
                        return Outcome::Detected(Box::new(test));
                    }
                    Err((reason, Some((frame, net, actual)))) => {
                        last_reason = reason;
                        if assumptions.iter().any(|&(f, n, _)| f == frame && n == net) {
                            break; // refinement loop detected
                        }
                        self.probe.add(Counter::Refinements, 1);
                        self.probe.refinement(id, frame);
                        assumptions.push((frame, net, actual));
                    }
                    Err((reason, None)) => {
                        // A panic or an exhausted global budget ends the
                        // whole error, not just this variant: the budget
                        // spans variants, and a panicking phase must not
                        // be re-entered on state it may have corrupted.
                        let fatal = matches!(
                            reason,
                            AbortReason::Panicked { .. } | AbortReason::StepBudget { .. }
                        );
                        last_reason = reason;
                        if fatal {
                            self.probe
                                .variant_end(id, variant, false, last_reason.phase_name());
                            break 'variants;
                        }
                        break;
                    }
                }
            }
            self.probe
                .variant_end(id, variant, false, last_reason.phase_name());
        }
        self.probe.add(Counter::Aborts, 1);
        self.probe.error_end(
            id,
            SpanEnd {
                detected: false,
                proven: false,
                reason: last_reason.name(),
                failed_phase: last_reason.phase_name(),
                test_length: 0,
                detected_cycle: 0,
                backtracks: total_backtracks,
            },
        );
        Outcome::Aborted {
            reason: last_reason,
            backtracks: total_backtracks,
        }
    }

    #[allow(clippy::type_complexity)]
    fn attempt(
        &mut self,
        error: &BusSslError,
        variant: usize,
        assumptions: &[(usize, CtlNetId, bool)],
        total_backtracks: &mut usize,
        budget: &StepBudget,
    ) -> Result<TestCase, (AbortReason, Option<(usize, CtlNetId, bool)>)> {
        let design = self.model.design();
        let id = u64::from(error.id.0);
        let plan = catch_phase("dptrace", || {
            dptrace::select_paths_budgeted(
                design,
                error.net,
                variant,
                self.cfg.dptrace,
                self.probe,
                id,
                budget,
            )
        })?
        .map_err(|e| match e {
            dptrace::DptraceError::StepBudget => (
                AbortReason::StepBudget {
                    phase: Phase::Dptrace,
                },
                None,
            ),
            _ => (AbortReason::NoPath, None),
        })?;
        if self.cfg.debug {
            eprintln!(
                "[tg v{variant}] plan: sink={}@t{} objectives={:?} sels={:?} sources={:?}",
                design.dp.net(plan.sink.net).name,
                plan.sink.time,
                plan.ctrl_objectives
                    .iter()
                    .map(|o| format!("{}={}@{}", design.dp.net(o.dp_net).name, o.value as u8, o.time))
                    .collect::<Vec<_>>(),
                plan.sel_requirements
                    .iter()
                    .map(|&(n, t, v)| format!("{}={v}@{t}", design.dp.net(n).name))
                    .collect::<Vec<_>>(),
                plan.sources
                    .iter()
                    .map(|src| match *src {
                        crate::dptrace::SourceUse::Dpi(n, t) =>
                            format!("dpi:{}@{t}", design.dp.net(n).name),
                        crate::dptrace::SourceUse::RegRead(m, t) =>
                            format!("rf:{}@{t}", design.dp.module(m).name),
                        crate::dptrace::SourceUse::MemRead(m, t) =>
                            format!("mem:{}@{t}", design.dp.module(m).name),
                    })
                    .collect::<Vec<_>>()
            );
        }

        // --- Window layout -------------------------------------------------
        // The core pipeframe reaches the error stage at the activation
        // cycle; deep justification (negative plan times) pushes the whole
        // window later so every involved pipeframe stays in the free
        // region after the prologue.
        let activation_cycle = ((CORE_START + error.stage.index()) as i32)
            .max(FREE_START as i32 + 2 - plan.min_time);
        let frames = (activation_cycle + plan.max_time.max(0) + 8) as usize;

        // --- CTRLJUST ------------------------------------------------------
        let mut u = Unrolled::new(&design.ctl, frames);
        self.assume_prologue(&mut u, frames);
        for &(f, n, v) in assumptions {
            if f < frames && u.assigned(f, n) == V3::X {
                u.assign(f, n, v);
            }
        }
        let (objectives, monitors) = self
            .build_objectives(&plan, activation_cycle, frames)
            .map_err(|e| (e, None))?;
        let cj_cfg = self.cfg.ctrljust;
        let use_memo = self.cfg.ctrljust_memo;
        let probe = self.probe;
        let memo = &mut self.memo;
        let just = catch_phase("ctrljust", || {
            ctrljust::justify_memoized(
                &mut u,
                &objectives,
                &monitors,
                cj_cfg,
                probe,
                id,
                budget,
                use_memo.then_some(memo),
            )
        })?
        .map_err(|e| {
            if self.cfg.debug {
                eprintln!("[tg v{variant}] ctrljust failed: {e}");
            }
            match e {
                ctrljust::JustifyError::StepBudget => (
                    AbortReason::StepBudget {
                        phase: Phase::Ctrljust,
                    },
                    None,
                ),
                _ => (AbortReason::ControlJustification, None),
            }
        })?;
        *total_backtracks += just.backtracks;

        // --- Opcode completion ----------------------------------------------
        let opcodes = self
            .complete_opcodes(&u, frames, &plan, activation_cycle)
            .map_err(|e| {
                if self.cfg.debug {
                    eprintln!("[tg v{variant}] opcode completion failed: {e:?}");
                }
                (e, None)
            })?;
        if self.cfg.debug {
            eprintln!(
                "[tg v{variant}] opcodes: {:?}",
                opcodes
                    .iter()
                    .enumerate()
                    .filter(|(_, o)| **o != Opcode::Nop)
                    .map(|(f, o)| format!("f{f}:{}", o.mnemonic()))
                    .collect::<Vec<_>>()
            );
        }

        // --- ID-stage internal-forwarding routes -----------------------------
        // A routed write-through bypass in ID (`byp_a`/`byp_b` = 1) means
        // the instruction then in ID names, in the corresponding specifier
        // field, the destination of the instruction then in WB. That is a
        // register-allocation equality, not a free data value.
        let mut opcodes = opcodes;
        let mut byp_constraints: Vec<(i64, Slot, i64, bool)> = Vec::new();
        for &(net, t, v) in &plan.sel_requirements {
            let slot = if self.pipe.byp_a == Some(net) {
                Slot::S1
            } else if self.pipe.byp_b == Some(net) {
                Slot::S2
            } else {
                continue;
            };
            // The consumer reads in ID, the producer commits in WB, at the
            // cycle the bypass predicate is sampled.
            let f = activation_cycle + t;
            let consumer = f as i64 - self.pipe.id_stage as i64;
            let producer = f as i64 - self.pipe.wb_stage as i64;
            if v == 1 {
                if consumer < FREE_START as i64 || producer < 0 {
                    if self.cfg.debug {
                        eprintln!("[tg v{variant}] byp route outside free window");
                    }
                    return Err((AbortReason::Assembly, None));
                }
                let cp = consumer as usize;
                if cp < frames && opcodes[cp] == Opcode::Nop {
                    match self.substitute(&u, cp) {
                        Some(op) => opcodes[cp] = op,
                        None => {
                            if self.cfg.debug {
                                eprintln!("[tg v{variant}] no consumer opcode fits frame {cp}");
                            }
                            return Err((AbortReason::Assembly, None));
                        }
                    }
                }
                // The producer must commit a register write that cycle.
                let pp = producer as usize;
                if producer >= FREE_START as i64 && pp < frames && !opcodes[pp].writes_reg() {
                    let sub = if opcodes[pp] == Opcode::Nop {
                        self.substitute(&u, pp).filter(|op| op.writes_reg())
                    } else {
                        None
                    };
                    match sub {
                        Some(op) => opcodes[pp] = op,
                        None => {
                            if self.cfg.debug {
                                eprintln!("[tg v{variant}] no writing producer fits frame {pp}");
                            }
                            return Err((AbortReason::Assembly, None));
                        }
                    }
                }
            }
            byp_constraints.push((consumer, slot, producer, v == 1));
        }

        // --- Register allocation --------------------------------------------
        let alloc = allocate_registers(
            self.pipe,
            &u,
            &just,
            &opcodes,
            frames,
            &byp_constraints,
            self.cfg.debug,
        )
        .map_err(|e| {
            if self.cfg.debug {
                eprintln!("[tg v{variant}] register allocation failed");
            }
            match e {
                StsFailure::Refinable { frame, net, actual } => {
                    (AbortReason::Assembly, Some((frame, net, actual)))
                }
                StsFailure::Fatal => (AbortReason::Assembly, None),
            }
        })?;

        // --- Program skeleton -----------------------------------------------
        let (imem_image, requirements, addrs) = self
            .assemble_skeleton(error, &u, &just, &plan, &opcodes, &alloc, frames, activation_cycle)
            .map_err(|e| {
                if self.cfg.debug {
                    eprintln!("[tg v{variant}] skeleton failed: {e:?}");
                }
                (e, None)
            })?;

        // --- Final model check ------------------------------------------------
        // With the instruction stream fully concrete, every CPI bit and
        // every specifier-comparator status value is known; the objectives
        // and the quiet monitors must all hold in the three-valued model
        // before value selection is attempted.
        if let Err(e) =
            self.model_check(&mut u, &imem_image, &addrs, &opcodes, frames, &objectives, &monitors)
        {
            if self.cfg.debug {
                eprintln!("[tg v{variant}] model check failed (stall/squash or sts mismatch)");
            }
            return Err(match e {
                StsFailure::Refinable { frame, net, actual } => {
                    (AbortReason::Assembly, Some((frame, net, actual)))
                }
                StsFailure::Fatal => (AbortReason::Assembly, None),
            });
        }

        // --- DPRELAX (value selection + confirmation) ------------------------
        let mut engine = RelaxEngine::with_schedule(
            design,
            self.schedule.clone(),
            error.to_injection(),
            vec![
                (self.pipe.imem, imem_image),
                (self.pipe.dmem, MemImage::free()),
            ],
        );
        let goal = RelaxGoal {
            activation: Activation {
                net: error.net,
                cycle: activation_cycle as usize,
                bit: error.bit,
                want: error.polarity == Polarity::StuckAt0,
            },
            requirements,
            horizon: frames + 2,
        };
        let mut rng = SplitMix64::seed_from_u64(
            self.cfg.seed ^ ((variant as u64) << 32) ^ u64::from(error.id.0),
        );
        let sol = catch_phase("dprelax", || {
            engine.solve_budgeted(&goal, &mut rng, self.cfg.relax_iters, self.probe, id, budget)
        })?
        .map_err(|e| {
            if self.cfg.debug {
                eprintln!("[tg v{variant}] relaxation failed: {e}");
            }
            if e.budget_exhausted {
                (
                    AbortReason::StepBudget {
                        phase: Phase::Dprelax,
                    },
                    None,
                )
            } else {
                (AbortReason::ValueSelection, None)
            }
        })?;

        // --- Extract the confirmed test --------------------------------------
        let final_imem = &sol.images[0].1;
        let mut words: Vec<u32> = addrs
            .iter()
            .map(|&a| final_imem.value_of(a / 4) as u32)
            .collect();
        let core_len = words
            .iter()
            .rposition(|&w| w != 0)
            .map(|i| i + 1)
            .unwrap_or(0);
        let length = (sol.detected_at.0 + 1).min(words.len());
        words.truncate(length.max(core_len));
        // Every word of the confirmed stream must decode: a detection that
        // rides on an undecodable word is not a reportable *program*, and
        // silently substituting a NOP would hand the user a test whose
        // listing disagrees with the memory image that actually ran.
        let mut instrs = Vec::with_capacity(words.len());
        for &w in &words {
            match Instr::decode(w) {
                Ok(i) => instrs.push(i),
                Err(_) => return Err((AbortReason::BadEncoding, None)),
            }
        }
        let program = Program { base: 0, instrs };
        let mut dmem_image: Vec<(u64, u64)> =
            sol.images[1].1.words.iter().map(|(&a, &v)| (a, v)).collect();
        dmem_image.sort_unstable();
        let mut imem_pairs: Vec<(u64, u32)> = final_imem
            .words
            .iter()
            .map(|(&a, &v)| (a, v as u32))
            .collect();
        imem_pairs.sort_unstable();
        Ok(TestCase {
            program,
            imem_image: imem_pairs,
            dmem_image,
            core_len,
            length,
            detected_cycle: sol.detected_at.0,
            backtracks: just.backtracks,
            variant,
            relax_iterations: sol.iterations,
        })
    }

    /// Pre-assigns the prologue: frames 0..4 fetch `LW r(k+1), img(r0)`,
    /// and every status input whose value is already determined by the
    /// fixed prologue (and the empty pipeline before it) is assigned that
    /// true value, so `CTRLJUST` cannot decide it inconsistently.
    fn assume_prologue(&self, u: &mut Unrolled<'_>, frames: usize) {
        let pipe = self.pipe;
        let lw_major = Opcode::Lw.major();
        for f in 0..FREE_START {
            for (i, &net) in pipe.cpi_op.iter().enumerate() {
                u.assign(f, net, (lw_major >> i) & 1 == 1);
            }
            // The func-field CPI bits carry imm bits [5:0] of the load
            // offset in an I-type word.
            let imm = image_addr(f as u32 + 1) as u32;
            for (i, &net) in pipe.cpi_fn.iter().enumerate() {
                u.assign(f, net, (imm >> i) & 1 == 1);
            }
        }
        // Fields of the determined pipeframes: before reset everything is
        // zero; prologue loads are `lw r(k+1), imm(r0)`.
        let rs1_field = |pf: i64| -> Option<u8> {
            // Pre-reset bubbles and prologue loads both address r0.
            if pf < FREE_START as i64 {
                Some(0)
            } else {
                None
            }
        };
        let s2_field = |pf: i64| -> Option<u8> {
            if pf < 0 {
                Some(0)
            } else if (pf as usize) < FREE_START {
                Some(pf as u8 + 1)
            } else {
                None
            }
        };
        let dest = s2_field; // lw selects the I-type dest field
        let field = |slot: FieldSlot, pf: i64| -> Option<u8> {
            match slot {
                FieldSlot::Rs1 => rs1_field(pf),
                FieldSlot::Rs2 => s2_field(pf),
            }
        };
        let eq = |a: Option<u8>, b: Option<u8>| -> Option<bool> {
            Some(a? == b?)
        };
        let nz = |a: Option<u8>| -> Option<bool> { Some(a? != 0) };
        for f in 0..frames {
            let fi = f as i64;
            for d in &pipe.sts {
                let val = match d.kind {
                    StsKind::FieldEqDest {
                        slot,
                        consumer_off,
                        producer_off,
                    } => eq(
                        field(slot, fi + consumer_off as i64),
                        dest(fi + producer_off as i64),
                    ),
                    StsKind::DestNz { producer_off } => nz(dest(fi + producer_off as i64)),
                    // A determined execute-stage occupant is a prologue
                    // `lw` (or a bubble), whose A operand is r0: the zero
                    // flag is high.
                    StsKind::AZero { ex_off } => {
                        if fi + i64::from(ex_off) < FREE_START as i64 {
                            Some(true)
                        } else {
                            None
                        }
                    }
                };
                if let Some(v) = val {
                    u.assign(f, d.net, v);
                }
            }
        }
    }

    /// Maps the DPTRACE plan to controller objectives and adds the quiet
    /// (no-stall / no-squash) objectives that keep frame alignment.
    #[allow(clippy::type_complexity)]
    fn build_objectives(
        &self,
        plan: &PathPlan,
        activation_cycle: i32,
        frames: usize,
    ) -> Result<(Vec<Objective>, Vec<Objective>), AbortReason> {
        let design = self.model.design();
        let pipe = self.pipe;
        let mut objectives = Vec::new();
        let mut redirect_frames = Vec::new();
        for o in &plan.ctrl_objectives {
            let frame = activation_cycle + o.time;
            if frame < 0 || frame as usize >= frames {
                return Err(AbortReason::NoPath);
            }
            let ctl_net = design
                .ctrl_source(o.dp_net)
                .expect("every dp ctrl net is bound");
            objectives.push(Objective {
                frame: frame as usize,
                net: ctl_net,
                value: o.value,
            });
            let is_redirect = (o.dp_net == pipe.pc_redirect[0]
                || o.dp_net == pipe.pc_redirect[1])
                && o.value;
            if is_redirect {
                redirect_frames.push(frame as usize);
            }
            // Routing the write-back mux to PC4 means the instruction in WB
            // is a link jump (JAL/JALR) — which squashed its younger slots
            // when it resolved in EX, `wb - ex` cycles before WB.
            if pipe.wb_link == Some(o.dp_net) && o.value {
                let ex_frame = frame - (pipe.wb_stage - pipe.ex_stage) as i32;
                if ex_frame < 0 {
                    return Err(AbortReason::NoPath);
                }
                redirect_frames.push(ex_frame as usize);
            }
        }
        redirect_frames.sort_unstable();
        redirect_frames.dedup();
        // Quiet *monitors*: never stall (when the design can); never
        // squash except at planned redirect frames (where squash becomes a
        // hard objective). Monitors catch implied violations without
        // driving decisions; the final model check resolves the ones left
        // undetermined.
        let mut monitors = Vec::new();
        for f in 0..frames {
            if let Some(stall) = pipe.stall {
                monitors.push(Objective {
                    frame: f,
                    net: stall,
                    value: false,
                });
            }
            if redirect_frames.contains(&f) {
                objectives.push(Objective {
                    frame: f,
                    net: pipe.squash,
                    value: true,
                });
            } else {
                monitors.push(Objective {
                    frame: f,
                    net: pipe.squash,
                    value: false,
                });
            }
        }
        Ok((objectives, monitors))
    }

    /// Completes the decided CPI bits of every free frame into a concrete
    /// opcode (preferring NOP when nothing is constrained).
    fn complete_opcodes(
        &self,
        u: &Unrolled<'_>,
        frames: usize,
        plan: &PathPlan,
        activation_cycle: i32,
    ) -> Result<Vec<Opcode>, AbortReason> {
        let pipe = self.pipe;
        let mut out = vec![Opcode::Nop; frames];
        for (f, slot) in out.iter_mut().enumerate().take(frames).skip(FREE_START) {
            let mut op_bits = [None::<bool>; 6];
            let mut fn_bits = [None::<bool>; 6];
            for i in 0..6 {
                op_bits[i] = u.assigned(f, pipe.cpi_op[i]).to_bool();
                fn_bits[i] = u.assigned(f, pipe.cpi_fn[i]).to_bool();
            }
            let matches = |op: Opcode| -> bool {
                let major = op.major();
                let func = op.func().unwrap_or(0);
                let func_matters = op.format() == Format::RType;
                for i in 0..6 {
                    if let Some(b) = op_bits[i] {
                        if b != ((major >> i) & 1 == 1) {
                            return false;
                        }
                    }
                    if let Some(b) = fn_bits[i] {
                        // For non-R-type opcodes the low bits are immediate
                        // bits: any value is encodable.
                        if func_matters && b != ((func >> i) & 1 == 1) {
                            return false;
                        }
                    }
                }
                true
            };
            if matches(Opcode::Nop) {
                *slot = Opcode::Nop;
                continue;
            }
            // Prefer instructions without control-flow side effects; an
            // incidental branch or jump would squash frames the plan needs.
            // A bit combination matching no architected instruction (a
            // "ghost" encoding) produces the all-inert control word —
            // exactly NOP's — so substituting NOP preserves every
            // controller output the justification relied on.
            *slot = ALL_OPCODES
                .iter()
                .copied()
                .find(|&op| !op.is_branch() && !op.is_jump() && matches(op))
                .or_else(|| ALL_OPCODES.iter().copied().find(|&op| matches(op)))
                .unwrap_or(Opcode::Nop);
        }
        // The justification path bottoms out at register-file and memory
        // read ports. A pipeframe that must supply such a value cannot be a
        // NOP (it would read r0 / not load at all): substitute a real
        // instruction. This is sound — every objective already holds as a
        // *known* three-valued value over the unassigned bits, so any
        // completion preserves it.
        for src in &plan.sources {
            match *src {
                crate::dptrace::SourceUse::RegRead(module, t) => {
                    // The reader is in ID at the source cycle. It must
                    // actually read the port the path uses; substitute a
                    // compatible reading opcode when the completed one does
                    // not (any completion of the X bits preserves the
                    // justified objectives).
                    let p = activation_cycle + t - pipe.id_stage as i32;
                    if p < FREE_START as i32 || (p as usize) >= frames {
                        continue;
                    }
                    let p = p as usize;
                    let out_net = self.model.design().dp.module(module).output;
                    let needs_rs2 = out_net == Some(pipe.b_raw);
                    let reads = |op: Opcode| {
                        if needs_rs2 {
                            op.reads_rs2()
                        } else {
                            op.reads_rs1()
                        }
                    };
                    if !reads(out[p]) {
                        if let Some(op) = std::iter::once(Opcode::Add)
                            .chain(ALL_OPCODES.iter().copied())
                            .find(|&op| reads(op) && self.frame_allows(u, p, op))
                        {
                            out[p] = op;
                        }
                    }
                }
                crate::dptrace::SourceUse::MemRead(module, t) => {
                    // Data-memory reads happen in the memory stage; the
                    // instruction-fetch port needs no instruction.
                    let m = self.model.design().dp.module(module);
                    if let hltg_netlist::dp::DpOp::MemRead(arch) = m.op {
                        if arch == pipe.dmem {
                            let p = activation_cycle + t - pipe.mem_stage as i32;
                            if p >= FREE_START as i32 && (p as usize) < frames {
                                let p = p as usize;
                                if !out[p].is_load() {
                                    if let Some(op) = [Opcode::Lw, Opcode::Lh, Opcode::Lb]
                                        .into_iter()
                                        .find(|&op| self.frame_allows(u, p, op))
                                    {
                                        out[p] = op;
                                    }
                                }
                            }
                        }
                    }
                }
                crate::dptrace::SourceUse::Dpi(..) => {}
            }
        }
        Ok(out)
    }

    /// Assigns the complete instruction stream and the
    /// allocation-determined comparator statuses into the model, then
    /// verifies every objective and monitor holds. Returns `false` when
    /// the assembled program would stall, squash unexpectedly, or
    /// contradict a status decision.
    #[allow(clippy::too_many_arguments)]
    fn model_check(
        &self,
        u: &mut Unrolled<'_>,
        image: &MemImage,
        addrs: &[u64],
        opcodes: &[Opcode],
        frames: usize,
        objectives: &[Objective],
        monitors: &[Objective],
    ) -> Result<(), StsFailure> {
        let pipe = self.pipe;
        for (f, &addr) in addrs.iter().enumerate().take(frames) {
            let w = image.value_of(addr / 4) as u32;
            for (i, &n) in pipe.cpi_op.iter().enumerate() {
                if u.assigned(f, n) == V3::X {
                    u.assign(f, n, (w >> (26 + i)) & 1 == 1);
                }
            }
            for (i, &n) in pipe.cpi_fn.iter().enumerate() {
                if u.assigned(f, n) == V3::X {
                    u.assign(f, n, (w >> i) & 1 == 1);
                }
            }
        }
        let word = |pf: i64| -> u32 {
            if pf < 0 || pf as usize >= frames {
                0
            } else {
                image.value_of(addrs[pf as usize] / 4) as u32
            }
        };
        let s1 = |pf: i64| (word(pf) >> 21) & 31;
        let s2v = |pf: i64| (word(pf) >> 16) & 31;
        let s3v = |pf: i64| (word(pf) >> 11) & 31;
        let dest = |pf: i64| -> u32 {
            if pf < 0 || pf as usize >= frames {
                return 0;
            }
            let p = pf as usize;
            if p < FREE_START {
                return p as u32 + 1;
            }
            match opcodes[p] {
                Opcode::Jal | Opcode::Jalr => 31,
                op => match dest_slot(op) {
                    Some(Slot::S3) => s3v(pf),
                    // The dest mux defaults to the I-type field position.
                    _ => s2v(pf),
                },
            }
        };
        let field = |slot: FieldSlot, pf: i64| -> u32 {
            match slot {
                FieldSlot::Rs1 => s1(pf),
                FieldSlot::Rs2 => s2v(pf),
            }
        };
        for f in 0..frames {
            let fi = f as i64;
            for d in &pipe.sts {
                let v = match d.kind {
                    StsKind::FieldEqDest {
                        slot,
                        consumer_off,
                        producer_off,
                    } => field(slot, fi + consumer_off as i64) == dest(fi + producer_off as i64),
                    StsKind::DestNz { producer_off } => dest(fi + producer_off as i64) != 0,
                    // The zero flag is free data, resolved by DPRELAX.
                    StsKind::AZero { .. } => continue,
                };
                let n = d.net;
                match u.assigned(f, n).to_bool() {
                    None => u.assign(f, n, v),
                    Some(decided) if decided != v => {
                        if self.cfg.debug {
                            eprintln!(
                                "[model] sts {}@{f} decided {} but stream implies {}",
                                self.model.design().ctl.net(n).name,
                                decided as u8,
                                v as u8
                            );
                        }
                        return Err(StsFailure::Refinable {
                            frame: f,
                            net: n,
                            actual: v,
                        });
                    }
                    Some(_) => {}
                }
            }
        }
        u.propagate();
        match objectives
            .iter()
            .chain(monitors)
            .find(|o| u.value(o.frame, o.net).to_bool() != Some(o.value))
        {
            None => Ok(()),
            Some(o) => {
                if self.cfg.debug {
                    eprintln!(
                        "[model] {}@{} wanted {} got {}",
                        self.model.design().ctl.net(o.net).name,
                        o.frame,
                        o.value as u8,
                        u.value(o.frame, o.net)
                    );
                }
                Err(StsFailure::Fatal)
            }
        }
    }

    /// The preferred substitute opcode compatible with the bits CTRLJUST
    /// assigned at `frame`: plain ALU ops first, then anything architected.
    fn substitute(&self, u: &Unrolled<'_>, frame: usize) -> Option<Opcode> {
        const PREF: [Opcode; 8] = [
            Opcode::Add,
            Opcode::Sub,
            Opcode::Or,
            Opcode::Xor,
            Opcode::Addi,
            Opcode::Ori,
            Opcode::Xori,
            Opcode::Subi,
        ];
        PREF.into_iter()
            .chain(ALL_OPCODES.iter().copied())
            .find(|&op| self.frame_allows(u, frame, op))
    }

    /// `true` if every CPI bit CTRLJUST assigned at `frame` is compatible
    /// with encoding `op` there.
    fn frame_allows(&self, u: &Unrolled<'_>, frame: usize, op: Opcode) -> bool {
        let major = op.major();
        let func = op.func().unwrap_or(0);
        let func_matters = op.format() == Format::RType;
        for (i, &net) in self.pipe.cpi_op.iter().enumerate() {
            if let Some(b) = u.assigned(frame, net).to_bool() {
                if b != ((major >> i) & 1 == 1) {
                    return false;
                }
            }
        }
        if func_matters {
            for (i, &net) in self.pipe.cpi_fn.iter().enumerate() {
                if let Some(b) = u.assigned(frame, net).to_bool() {
                    if b != ((func >> i) & 1 == 1) {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// Builds the instruction-memory image: prologue words, completed core
    /// words with allocated registers, free masks on the immediate fields,
    /// and the value requirements implied by STS decisions.
    #[allow(clippy::too_many_arguments)]
    fn assemble_skeleton(
        &self,
        error: &BusSslError,
        u: &Unrolled<'_>,
        just: &ctrljust::Justification,
        plan: &PathPlan,
        opcodes: &[Opcode],
        alloc: &Allocation,
        frames: usize,
        activation_cycle: i32,
    ) -> Result<Skeleton, AbortReason> {
        let pipe = self.pipe;
        // The EX-resolution latency: a transfer fetched at frame `f`
        // resolves at `f + ex`, squashes the `ex` younger slots, and the
        // continuation is fetched at `f + ex + 1`.
        let ex = pipe.ex_stage;
        let mut image = MemImage::fixed(Vec::new());
        // Per-frame fetch addresses: linear from 0, except a register-
        // indirect jump rebases the stream (its target register is a free
        // value, so the continuation may sit anywhere — which is how high
        // PC bits get activated).
        let bias = if pipe.pc_family.contains(&error.net)
            && error.polarity == Polarity::StuckAt0
            && (2..30).contains(&error.bit)
        {
            1u64 << error.bit
        } else {
            0
        };
        let mut addrs = vec![0u64; frames];
        let mut cursor = 0u64;
        let mut rebase_at: Option<(usize, u64)> = None;
        for f in 0..frames {
            if let Some((rf, base)) = rebase_at {
                if f == rf {
                    cursor = base;
                    rebase_at = None;
                }
            }
            addrs[f] = cursor;
            cursor += 4;
            if f >= FREE_START && matches!(opcodes[f], Opcode::Jr | Opcode::Jalr) {
                // Continuation resumes at the target after the squashed
                // slots; place it in a distinct region biased to activate
                // high PC bits when the plan needs that.
                // Keep the low bits advancing so rebased slots do not
                // collide with a second jump region.
                let base = (0x2000 | bias | (addrs[f] & 0xfff)) + 4 * (ex as u64 + 1);
                rebase_at = Some((f + ex + 1, base));
            }
        }
        // Prologue loads.
        for k in 0..4u32 {
            let instr = Instr::lw(hltg_isa::Reg(k as u8 + 1), hltg_isa::Reg(0), image_addr(k + 1));
            image.words.insert(addrs[k as usize] / 4, instr.encode() as u64);
        }
        // Core frames.
        for f in FREE_START..frames {
            let op = opcodes[f];
            if op == Opcode::Nop {
                image.words.insert(addrs[f] / 4, 0);
                continue;
            }
            let rs1 = alloc.value(f, Slot::S1);
            let s2 = alloc.value(f, Slot::S2);
            let s3 = alloc.value(f, Slot::S3);
            let mut word: u32 = match op.format() {
                Format::RType => {
                    (rs1 as u32) << 21 | (s2 as u32) << 16 | (s3 as u32) << 11 | op.func().expect("r-type")
                }
                Format::IType => op.major() << 26 | (rs1 as u32) << 21 | (s2 as u32) << 16,
                Format::JType => op.major() << 26,
            };
            // Immediate policy: transfers get `4 * ex` (linear
            // continuation past the squashed slots); other I-type
            // immediates are free except for low bits CTRLJUST already
            // decided (the func-field CPI positions double as imm[5:0] in
            // I-type words).
            let taken_disp = 4 * ex as u32;
            let mut free: u32 = 0;
            match op.format() {
                Format::JType => {
                    word |= taken_disp;
                }
                Format::IType if op.is_branch() => {
                    word |= taken_disp;
                }
                Format::IType => {
                    free = 0xffff;
                }
                Format::RType => {}
            }
            for (i, &net) in pipe.cpi_fn.iter().enumerate() {
                if let Some(b) = u.assigned(f, net).to_bool() {
                    if op.format() == Format::RType {
                        continue; // func bits already encoded
                    }
                    let bit = 1u32 << i;
                    if free & bit != 0 {
                        free &= !bit;
                        word = (word & !bit) | if b { bit } else { 0 };
                    } else if (word & bit != 0) != b {
                        // A fixed immediate (branch +8) conflicts with a
                        // decided bit.
                        return Err(AbortReason::Assembly);
                    }
                }
            }
            image.words.insert(addrs[f] / 4, word as u64);
            if free != 0 {
                image.free_mask.insert(addrs[f] / 4, free as u64);
            }
        }

        // Value requirements: data-driven mux routes chosen by DPTRACE,
        // branch conditions decided by CTRLJUST (not the prologue's quiet
        // assumptions), and register-indirect jump targets.
        let mut requirements = Vec::new();
        for &(net, t, v) in &plan.sel_requirements {
            let cycle = activation_cycle + t;
            if cycle < 0 {
                return Err(AbortReason::NoPath);
            }
            requirements.push((net, cycle as usize, v));
        }
        let azero = pipe.azero_net();
        for (f, net, val) in just.sts_obligations(u) {
            if azero == Some(net) {
                // a_fwd at cycle f must be zero (or the canonical
                // non-zero 1).
                requirements.push((pipe.a_fwd, f, if val { 0 } else { 1 }));
            }
        }
        // Register-indirect jumps: the target register must hold the
        // continuation address of the (possibly rebased) stream.
        for f in FREE_START..frames {
            if matches!(opcodes[f], Opcode::Jr | Opcode::Jalr) {
                // The jump resolves in EX at f + ex; the younger slots are
                // squashed and fetch resumes at frame f + ex + 1 from the
                // target address.
                let ex_cycle = f + ex;
                if ex_cycle < frames && f + ex + 1 < frames {
                    requirements.push((pipe.a_fwd, ex_cycle, addrs[f + ex + 1]));
                }
            }
        }
        Ok((image, requirements, addrs))
    }
}

/// The assembled program skeleton: instruction-memory image, value
/// requirements for `DPRELAX`, and per-frame fetch addresses.
type Skeleton = (
    MemImage,
    Vec<(hltg_netlist::dp::DpNetId, usize, u64)>,
    Vec<u64>,
);

/// Physical register-field slots of an instruction word.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Slot {
    /// Bits [25:21].
    S1,
    /// Bits [20:16].
    S2,
    /// Bits [15:11].
    S3,
}

/// Result of register allocation: a value for every (frame, slot).
#[derive(Debug)]
struct Allocation {
    values: HashMap<(usize, Slot), u8>,
}

impl Allocation {
    fn value(&self, frame: usize, slot: Slot) -> u8 {
        self.values.get(&(frame, slot)).copied().unwrap_or(0)
    }
}

/// Logical operand roles, resolved to physical slots per opcode.
fn dest_slot(op: Opcode) -> Option<Slot> {
    if !op.writes_reg() {
        return None;
    }
    match op.format() {
        Format::RType => Some(Slot::S3),
        Format::IType if matches!(op, Opcode::Jalr) => None, // r31 fixed
        Format::IType => Some(Slot::S2),
        Format::JType => None, // JAL links r31
    }
}

/// Union-find with optional fixed values.
struct Uf {
    parent: Vec<usize>,
    fixed: Vec<Option<u8>>,
}

impl Uf {
    fn new(n: usize) -> Self {
        Uf {
            parent: (0..n).collect(),
            fixed: vec![None; n],
        }
    }
    fn find(&mut self, x: usize) -> usize {
        if self.parent[x] != x {
            let r = self.find(self.parent[x]);
            self.parent[x] = r;
        }
        self.parent[x]
    }
    fn union(&mut self, a: usize, b: usize) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return true;
        }
        match (self.fixed[ra], self.fixed[rb]) {
            (Some(x), Some(y)) if x != y => return false,
            (Some(x), _) => self.fixed[rb] = Some(x),
            (_, Some(y)) => self.fixed[ra] = Some(y),
            _ => {}
        }
        self.parent[ra] = rb;
        true
    }
    fn fix(&mut self, x: usize, v: u8) -> bool {
        let r = self.find(x);
        match self.fixed[r] {
            Some(cur) => cur == v,
            None => {
                self.fixed[r] = Some(v);
                true
            }
        }
    }
}

/// Allocates register fields for the core frames, honouring the STS
/// decisions made by CTRLJUST.
#[allow(clippy::too_many_arguments)]
fn allocate_registers(
    pipe: &PipelineDesc,
    _u: &Unrolled<'_>,
    just: &ctrljust::Justification,
    opcodes: &[Opcode],
    frames: usize,
    byp_constraints: &[(i64, Slot, i64, bool)],
    debug: bool,
) -> Result<Allocation, StsFailure> {
    macro_rules! fail {
        ($($arg:tt)*) => {{
            if debug {
                eprintln!("[alloc] {}", format!($($arg)*));
            }
            return Err(StsFailure::Fatal);
        }};
    }
    // Node indexing: (frame, slot) for FREE_START..frames, plus virtual
    // fixed nodes for prologue/pre-reset pipeframes.
    let slots = [Slot::S1, Slot::S2, Slot::S3];
    let index = |f: usize, s: Slot| -> usize {
        f * 3
            + match s {
                Slot::S1 => 0,
                Slot::S2 => 1,
                Slot::S3 => 2,
            }
    };
    let n = frames * 3;
    let mut uf = Uf::new(n);

    // Fixed prologue fields: `lw rk+1, imm(r0)`.
    for f in 0..FREE_START.min(frames) {
        if !uf.fix(index(f, Slot::S1), 0)
            || !uf.fix(index(f, Slot::S2), f as u8 + 1)
            || !uf.fix(index(f, Slot::S3), 0)
        {
            fail!("prologue field fix at frame {f}");
        }
    }
    // NOP frames have all-zero fields.
    for (f, &op) in opcodes.iter().enumerate().take(frames).skip(FREE_START) {
        if op == Opcode::Nop {
            for s in slots {
                if !uf.fix(index(f, s), 0) {
                    fail!("nop field fix at frame {f}");
                }
            }
        }
    }

    // The destination-field view of a pipeframe: the physical slot its
    // `dest` mux selects, or a fixed register.
    #[derive(Clone, Copy)]
    enum DestRef {
        Slot(usize),
        Fixed(u8),
    }
    let dest_of = |pf: i64| -> DestRef {
        if pf < 0 {
            return DestRef::Fixed(0); // pipeline fills with bubbles
        }
        let pf = pf as usize;
        if pf >= frames {
            return DestRef::Fixed(0);
        }
        let op = opcodes[pf];
        if pf < FREE_START {
            return DestRef::Fixed(pf as u8 + 1); // prologue lw dest
        }
        match op {
            Opcode::Jal | Opcode::Jalr => DestRef::Fixed(31),
            _ => match dest_slot(op) {
                Some(s) => DestRef::Slot(index(pf, s)),
                // Non-writing instructions still latch their dest-mux
                // selection (I-type default): the S2 field.
                None => DestRef::Slot(index(pf, Slot::S2)),
            },
        }
    };
    let slot_of = |pf: i64, s: Slot| -> Option<usize> {
        if pf < 0 || pf as usize >= frames {
            return None;
        }
        Some(index(pf as usize, s))
    };

    // Equality / inequality constraints from STS decisions, derived from
    // the descriptor's semantic shapes: (sts net, consumer pipeframe
    // offset from frame, consumer slot, producer pipeframe offset).
    let mut neq: Vec<(usize, usize)> = Vec::new();
    let mut zero_dest: Vec<i64> = Vec::new();
    let sts_pairs: Vec<(CtlNetId, i64, Slot, i64)> = pipe
        .sts
        .iter()
        .filter_map(|d| match d.kind {
            StsKind::FieldEqDest {
                slot,
                consumer_off,
                producer_off,
            } => Some((
                d.net,
                consumer_off as i64,
                match slot {
                    FieldSlot::Rs1 => Slot::S1,
                    FieldSlot::Rs2 => Slot::S2,
                },
                producer_off as i64,
            )),
            _ => None,
        })
        .collect();
    let dest_nz: Vec<(CtlNetId, i64)> = pipe
        .sts
        .iter()
        .filter_map(|d| match d.kind {
            StsKind::DestNz { producer_off } => Some((d.net, producer_off as i64)),
            _ => None,
        })
        .collect();
    for &(f, net, v) in &just.assignments {
        let fi = f as i64;
        for &(sn, coff, cslot, poff) in &sts_pairs {
            if net != sn {
                continue;
            }
            let Some(cslot_ix) = slot_of(fi + coff, cslot) else {
                if v {
                    fail!("sts {} at frame {f} references out-of-window consumer", f);
                }
                continue;
            };
            let producer = dest_of(fi + poff);
            match (producer, v) {
                (DestRef::Slot(p), true) => {
                    if !uf.union(cslot_ix, p) {
                        fail!("eq union conflict: sts at frame {f}");
                    }
                }
                (DestRef::Fixed(r), true) => {
                    if !uf.fix(cslot_ix, r) {
                        if debug {
                            eprintln!("[alloc] eq fix conflict to r{r}: sts at frame {f}");
                        }
                        return Err(StsFailure::Refinable {
                            frame: f,
                            net,
                            actual: false,
                        });
                    }
                }
                (DestRef::Slot(p), false) => neq.push((cslot_ix, p)),
                (DestRef::Fixed(_), false) => {
                    // Distinct-by-default allocation handles this; record
                    // against a virtual node via the fixed value below.
                    neq.push((cslot_ix, usize::MAX));
                    let _ = net;
                }
            }
        }
        // dest != 0 / dest == 0 constraints.
        for &(sn, poff) in &dest_nz {
            if net != sn {
                continue;
            }
            match dest_of(fi + poff) {
                DestRef::Slot(p) => {
                    if v {
                        // Non-zero by default allocation; remember nothing.
                        let _ = p;
                    } else {
                        zero_dest.push(fi + poff);
                    }
                }
                DestRef::Fixed(r) => {
                    if v != (r != 0) {
                        if debug {
                            eprintln!(
                                "[alloc] dest-nz={} conflicts fixed r{r} at frame {f}",
                                v as u8
                            );
                        }
                        return Err(StsFailure::Refinable {
                            frame: f,
                            net,
                            actual: r != 0,
                        });
                    }
                }
            }
        }
    }
    for pf in zero_dest {
        if let DestRef::Slot(p) = dest_of(pf) {
            if !uf.fix(p, 0) {
                fail!("zero-dest fix conflict at pipeframe {pf}");
            }
        }
    }
    // ID-stage write-through forwarding routes chosen by path selection.
    for &(consumer, slot, producer, equal) in byp_constraints {
        let Some(cix) = slot_of(consumer, slot) else {
            if equal {
                fail!("byp consumer pipeframe {consumer} out of window");
            }
            continue;
        };
        match (dest_of(producer), equal) {
            (DestRef::Slot(p), true) => {
                if !uf.union(cix, p) {
                    fail!("byp eq union conflict at pipeframe {consumer}");
                }
            }
            (DestRef::Fixed(r), true) => {
                if r == 0 {
                    fail!("byp route needs a non-zero producer dest");
                }
                if !uf.fix(cix, r) {
                    fail!("byp eq fix conflict to r{r} at pipeframe {consumer}");
                }
            }
            (DestRef::Slot(p), false) => neq.push((cix, p)),
            (DestRef::Fixed(_), false) => {}
        }
    }

    // Assignment: fixed classes keep their value; source slots draw from
    // the prologue-loaded registers r1..r4; destination slots draw fresh
    // registers r5.. upward; everything else is r0.
    let mut values = HashMap::new();
    let mut class_value: HashMap<usize, u8> = HashMap::new();
    let mut next_src = 1u8;
    let mut next_dst = 5u8;
    for (f, &op) in opcodes.iter().enumerate().take(frames).skip(FREE_START) {
        if op == Opcode::Nop {
            for s in slots {
                values.insert((f, s), 0);
            }
            continue;
        }
        for s in slots {
            let ix = index(f, s);
            let root = uf.find(ix);
            let v = if let Some(&v) = class_value.get(&root) {
                v
            } else if let Some(v) = uf.fixed[root] {
                class_value.insert(root, v);
                v
            } else {
                // Role of this slot for this opcode.
                let is_dest = dest_slot(op) == Some(s);
                let is_source = match s {
                    Slot::S1 => op.reads_rs1(),
                    Slot::S2 => op.reads_rs2(),
                    Slot::S3 => false,
                };
                let v = if is_dest {
                    let v = next_dst.min(30);
                    next_dst += 1;
                    v
                } else if is_source {
                    let v = next_src;
                    next_src = if next_src >= 4 { 1 } else { next_src + 1 };
                    v
                } else {
                    0
                };
                class_value.insert(root, v);
                v
            };
            values.insert((f, s), v);
        }
    }
    // Inequality check (best effort: the default pools already separate
    // sources and destinations).
    for (a, b) in neq {
        if b == usize::MAX {
            continue;
        }
        let (ra, rb) = (uf.find(a), uf.find(b));
        if ra == rb {
            fail!("neq violated: slots unified");
        }
        if let (Some(&x), Some(&y)) = (class_value.get(&ra), class_value.get(&rb)) {
            if x == y && x != 0 {
                fail!("neq violated: both slots allocated r{x}");
            }
        }
    }
    Ok(Allocation { values })
}
