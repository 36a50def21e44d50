//! Robustness and failure-injection tests: starved budgets, degenerate
//! configurations and the extended error models must degrade gracefully —
//! clean aborts, never panics or bogus detections.

use hltg::core::ctrljust::CtrlJustConfig;
use hltg::core::dptrace::DptraceConfig;
use hltg::core::{
    AbortReason, Campaign, CampaignConfig, CampaignStats, ChaosConfig, Outcome, Phase,
    RunOptions, TestGenerator, TgConfig,
};
use hltg::build_model;
use hltg::dlx::{DlxDesign, DlxModel};
use hltg::errors::{
    enumerate_bus_order_errors, enumerate_module_substitutions, enumerate_stage_errors,
    EnumPolicy,
};
use hltg::isa::asm::assemble;
use hltg::netlist::{ProcessorModel, Stage};
use hltg::sim::{ErrorModel, Machine, Schedule};
use std::time::Duration;

fn stages() -> [Stage; 3] {
    [Stage::new(2), Stage::new(3), Stage::new(4)]
}

/// Stats with the wall-clock field zeroed: `seconds` is the only
/// legitimately run-dependent quantity.
fn stats_sans_time(c: &Campaign) -> CampaignStats {
    let mut s = c.stats();
    s.seconds = 0.0;
    s
}

/// The Table 1 report with its timing line removed.
fn report_sans_time(c: &Campaign) -> String {
    c.table1_report()
        .lines()
        .filter(|l| !l.contains("CPU time"))
        .collect::<Vec<_>>()
        .join("\n")
}

/// A unique temp path for checkpoint files (tests run concurrently).
fn temp_checkpoint(name: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("hltg_robustness_{name}.jsonl"));
    let _ = std::fs::remove_file(&path);
    path
}

/// Starved search budgets abort cleanly and never claim detection without
/// a confirming divergence.
#[test]
fn starved_budgets_abort_cleanly() {
    let dlx = DlxModel::new();
    let cfg = TgConfig {
        max_variants: 1,
        relax_iters: 1,
        ctrljust: CtrlJustConfig { max_backtracks: 1 },
        dptrace: DptraceConfig {
            max_time: 2,
            min_time: -2,
            max_depth: 8,
        },
        ..TgConfig::default()
    };
    let mut tg = TestGenerator::new(&dlx, cfg);
    let errors = enumerate_stage_errors(dlx.design(), &stages(), EnumPolicy::RepresentativePerBus);
    let mut aborted = 0;
    for e in errors.iter().take(20) {
        match tg.generate(e) {
            Outcome::Detected(tc) => {
                // A detection under starvation must still be real.
                assert!(tc.detected_cycle < tc.program.len() + 32);
            }
            Outcome::Aborted { .. } => aborted += 1,
            // The prover only runs under campaign flags, never in raw tg.
            Outcome::ProvenUntestable(_) => unreachable!("tg::generate never proves"),
        }
    }
    assert!(aborted > 0, "starved budgets must abort at least sometimes");
}

/// A zero-error campaign produces empty but well-formed statistics.
#[test]
fn empty_campaign_is_well_formed() {
    let dlx = DlxModel::new();
    let campaign = Campaign::run(
        &dlx,
        &CampaignConfig {
            limit: Some(0),
            ..CampaignConfig::default()
        },
        RunOptions::default(),
    )
    .campaign;
    let stats = campaign.stats();
    assert_eq!(stats.errors, 0);
    assert_eq!(stats.coverage_pct(), 0.0);
    assert!(campaign.table1_report().contains("this run"));
}

/// Every extended-model error either diverges from the good machine or
/// behaves identically — and the dual run itself never panics, for every
/// enumerated instance.
#[test]
fn extended_models_simulate_safely() {
    let dlx = DlxDesign::build();
    let program = assemble(
        0,
        "
        addi r1, r0, 0x29a
        lhi  r2, 0x8000
        add  r3, r1, r2
        sll  r4, r1, r1
        sw   r3, 0x100(r0)
        lw   r5, 0x100(r0)
        sub  r6, r5, r1
        sw   r6, 0x104(r0)
        ",
    )
    .unwrap();
    let schedule = Schedule::build(&dlx.design).unwrap();
    let mut models = enumerate_bus_order_errors(&dlx.design, &stages());
    models.extend(enumerate_module_substitutions(&dlx.design, &stages()));
    let mut divergent = 0;
    for e in &models {
        let mut good = Machine::with_schedule(&dlx.design, schedule.clone());
        let mut bad = Machine::with_schedule(&dlx.design, schedule.clone());
        bad.set_error(Some(*e));
        for m in [&mut good, &mut bad] {
            for (i, w) in program.encode().iter().enumerate() {
                m.preload_mem(dlx.dp.imem, i as u64, u64::from(*w));
            }
        }
        let diverged = (0..40).any(|_| good.step() != bad.step());
        if diverged {
            divergent += 1;
        }
    }
    // A single short program only exercises a slice of the machine; the
    // full cross-coverage experiment lives in the `ext_error_models`
    // binary. Here the point is safety plus a sanity floor.
    assert!(
        divergent * 5 >= models.len() / 2,
        "{divergent}/{} extended errors detected",
        models.len()
    );
}

/// A `ModuleSubstitution` that replaces an op with itself is behaviourally
/// silent — the injection machinery adds no spurious effects.
#[test]
fn identity_substitution_is_silent() {
    let dlx = DlxDesign::build();
    let (alu_add_mod, op) = dlx
        .design
        .dp
        .iter_modules()
        .find(|(_, m)| m.name == "alu_add")
        .map(|(id, m)| (id, m.op))
        .expect("alu adder exists");
    let program = assemble(0, "addi r1, r0, 7\nadd r2, r1, r1\nsw r2, 0x40(r0)").unwrap();
    let schedule = Schedule::build(&dlx.design).unwrap();
    let mut good = Machine::with_schedule(&dlx.design, schedule.clone());
    let mut bad = Machine::with_schedule(&dlx.design, schedule);
    bad.set_error(Some(ErrorModel::ModuleSubstitution {
        module: alu_add_mod,
        with: op,
    }));
    for m in [&mut good, &mut bad] {
        for (i, w) in program.encode().iter().enumerate() {
            m.preload_mem(dlx.dp.imem, i as u64, u64::from(*w));
        }
    }
    for _ in 0..24 {
        assert_eq!(good.step(), bad.step());
    }
}

/// Chaos-injected panics — in every engine phase, targeted or not — are
/// isolated into `Aborted` records: the campaign completes, every error
/// is accounted for, no worker dies uncounted, and the statistics are
/// byte-identical across thread counts.
#[test]
fn chaos_panics_are_isolated_and_deterministic() {
    let dlx = DlxModel::new();
    let phases = [
        None,
        Some(Phase::Dptrace),
        Some(Phase::Ctrljust),
        Some(Phase::Dprelax),
    ];
    for phase in phases {
        let config_at = |num_threads: usize| CampaignConfig {
            limit: Some(10),
            num_threads,
            chaos: Some(ChaosConfig {
                seed: 0xDEAD_BEEF,
                panic_permille: 500,
                phase,
                ..ChaosConfig::default()
            }),
            ..CampaignConfig::default()
        };
        // Through the full observed path: counters and report survive
        // chaos too.
        let run = Campaign::run(&dlx, &config_at(1), RunOptions::default());
        assert_eq!(run.report.stats.errors, 10);
        let serial = run.campaign;
        let stats = serial.stats();
        assert_eq!(serial.records.len(), 10, "campaign must complete ({phase:?})");
        assert_eq!(
            stats.detected + stats.aborted,
            stats.errors,
            "every error accounted ({phase:?})"
        );
        assert!(
            stats.aborted_panicked >= 1,
            "injection rate 50% must panic somewhere ({phase:?})"
        );
        // Panic records carry the phase they unwound from.
        for r in &serial.records {
            if let Outcome::Aborted {
                reason: AbortReason::Panicked { phase: at, payload },
                ..
            } = &r.outcome
            {
                assert!(payload.starts_with("chaos("), "payload: {payload}");
                if let Some(want) = phase {
                    assert_eq!(*at, want.name(), "panic attributed to the injected phase");
                }
            }
        }
        let sharded = Campaign::run(&dlx, &config_at(4), RunOptions::default()).campaign;
        assert_eq!(
            stats_sans_time(&sharded),
            stats_sans_time(&serial),
            "chaos stats diverge between 1 and 4 threads ({phase:?})"
        );
        assert_eq!(
            report_sans_time(&sharded),
            report_sans_time(&serial),
            "chaos report diverges between 1 and 4 threads ({phase:?})"
        );
    }
}

/// Stage targeting: chaos aimed at a stage with no enumerated errors is
/// vacuous — the campaign equals a clean run — while chaos aimed at a
/// populated stage injects.
#[test]
fn chaos_stage_targeting_is_respected() {
    let dlx = DlxModel::new();
    let base = CampaignConfig {
        limit: Some(8),
        num_threads: 1,
        ..CampaignConfig::default()
    };
    let clean = Campaign::run(&dlx, &base, RunOptions::default()).campaign;
    let populated_stage = clean.records[0].error.stage.index();
    let hit = Campaign::run(
        &dlx,
        &CampaignConfig {
            chaos: Some(ChaosConfig {
                panic_permille: 1000,
                stage: Some(populated_stage),
                ..ChaosConfig::default()
            }),
            ..base.clone()
        },
        RunOptions::default(),
    )
    .campaign;
    assert!(hit.stats().aborted_panicked >= 1);
    let vacuous = Campaign::run(
        &dlx,
        &CampaignConfig {
            chaos: Some(ChaosConfig {
                panic_permille: 1000,
                stage: Some(99),
                ..ChaosConfig::default()
            }),
            ..base.clone()
        },
        RunOptions::default(),
    )
    .campaign;
    assert_eq!(stats_sans_time(&vacuous), stats_sans_time(&clean));
}

/// Chaos spurious backtracks waste CTRLJUST work but never corrupt an
/// outcome: detections stay confirmed and the campaign stays
/// thread-count deterministic.
#[test]
fn chaos_spurious_backtracks_stay_sound() {
    let dlx = DlxModel::new();
    let config_at = |num_threads: usize| CampaignConfig {
        limit: Some(8),
        num_threads,
        chaos: Some(ChaosConfig {
            spurious_backtrack_permille: 200,
            ..ChaosConfig::default()
        }),
        ..CampaignConfig::default()
    };
    let serial = Campaign::run(&dlx, &config_at(1), RunOptions::default()).campaign;
    let stats = serial.stats();
    assert_eq!(stats.detected + stats.aborted, stats.errors);
    for r in &serial.records {
        if let Outcome::Detected(tc) = &r.outcome {
            assert!(tc.detected_cycle < tc.program.len() + 32);
        }
    }
    let sharded = Campaign::run(&dlx, &config_at(4), RunOptions::default()).campaign;
    assert_eq!(stats_sans_time(&sharded), stats_sans_time(&serial));
}

/// Retry-with-escalation recovers errors whose first attempt was killed
/// by an injected panic: `first_attempt_only` chaos panics every error
/// once, the escalated round runs clean, and the final statistics show
/// the recovery (and stay thread-count deterministic).
#[test]
fn retry_recovers_panicked_errors() {
    let dlx = DlxModel::new();
    let config_at = |num_threads: usize| {
        let mut config = CampaignConfig {
            limit: Some(6),
            num_threads,
            chaos: Some(ChaosConfig {
                panic_permille: 1000,
                phase: Some(Phase::Dptrace),
                first_attempt_only: true,
                ..ChaosConfig::default()
            }),
            ..CampaignConfig::default()
        };
        config.retry.rounds = 1;
        config
    };
    let campaign = Campaign::run(&dlx, &config_at(1), RunOptions::default()).campaign;
    let stats = campaign.stats();
    assert_eq!(stats.detected + stats.aborted, stats.errors);
    assert!(
        stats.detected_after_retry >= 1,
        "retry must recover panicked errors: {stats:?}"
    );
    assert_eq!(
        stats.aborted_panicked, 0,
        "the clean retry round replaces every panic record: {stats:?}"
    );
    for r in &campaign.records {
        if r.outcome.is_detected() && !r.by_simulation {
            assert_eq!(r.round, 1, "recovered records are tagged with their round");
        }
    }
    let sharded = Campaign::run(&dlx, &config_at(4), RunOptions::default()).campaign;
    assert_eq!(stats_sans_time(&sharded), stats_sans_time(&campaign));
}

/// The deterministic step budget aborts with a phase-attributed reason at
/// byte-identical points for every thread count, and never fabricates a
/// detection.
#[test]
fn step_budget_aborts_deterministically() {
    let dlx = DlxModel::new();
    let config_at = |num_threads: usize| {
        let mut config = CampaignConfig {
            limit: Some(10),
            num_threads,
            ..CampaignConfig::default()
        };
        config.tg.max_steps = Some(40);
        config
    };
    let serial = Campaign::run(&dlx, &config_at(1), RunOptions::default()).campaign;
    let stats = serial.stats();
    assert_eq!(stats.detected + stats.aborted, stats.errors);
    assert!(
        stats.aborted_step_budget >= 1,
        "a 40-step budget must starve some error: {stats:?}"
    );
    for r in &serial.records {
        if let Outcome::Aborted {
            reason: AbortReason::StepBudget { .. },
            ..
        } = &r.outcome
        {
            continue;
        }
        if let Outcome::Detected(tc) = &r.outcome {
            assert!(tc.detected_cycle < tc.program.len() + 32);
        }
    }
    for threads in [4, 8] {
        let sharded = Campaign::run(&dlx, &config_at(threads), RunOptions::default()).campaign;
        assert_eq!(
            stats_sans_time(&sharded),
            stats_sans_time(&serial),
            "step-budget abort points diverge at num_threads={threads}"
        );
        assert_eq!(report_sans_time(&sharded), report_sans_time(&serial));
    }
}

/// Checkpoint/resume: a short run's checkpoint seeds a longer one, and
/// the resumed campaign reproduces the uninterrupted report — including,
/// on a full resume, the recorded CPU time, byte for byte.
#[test]
fn checkpoint_resume_reproduces_the_report() {
    let dlx = DlxModel::new();
    let path = temp_checkpoint("resume");
    let config = |limit: usize, checkpoint: bool, num_threads: usize| CampaignConfig {
        limit: Some(limit),
        num_threads,
        checkpoint: checkpoint.then(|| path.clone()),
        ..CampaignConfig::default()
    };
    // An uninterrupted reference run, no persistence.
    let uninterrupted = Campaign::run(&dlx, &config(12, false, 1), RunOptions::default()).campaign;
    // A "killed midway" run: only the first half completes.
    let partial = Campaign::run(&dlx, &config(6, true, 1), RunOptions::default()).campaign;
    assert_eq!(partial.records.len(), 6);
    // Resuming finishes the remaining errors and reproduces the report.
    let resumed = Campaign::run(&dlx, &config(12, true, 1), RunOptions::default()).campaign;
    assert_eq!(stats_sans_time(&resumed), stats_sans_time(&uninterrupted));
    assert_eq!(report_sans_time(&resumed), report_sans_time(&uninterrupted));
    // A full resume restores every record — the report matches the run
    // that wrote the checkpoint byte for byte, CPU time included, for
    // any thread count.
    for threads in [1, 4] {
        let replayed = Campaign::run(&dlx, &config(12, true, threads), RunOptions::default()).campaign;
        assert_eq!(replayed.table1_report(), resumed.table1_report());
        assert_eq!(stats_sans_time(&replayed), stats_sans_time(&resumed));
    }
    let _ = std::fs::remove_file(&path);
}

/// Checkpoint entries persist the per-generation *counter deltas*, and a
/// resume replays them: after a partial run plus a resumed completion,
/// the counter totals and per-phase call counts equal an uninterrupted
/// run's, exactly. Phase *seconds* are wall-clock and excluded — they
/// replay the partial run's measurements, not the reference run's. The
/// `CTRLJUST` memo is disabled because its hit pattern depends on which
/// errors were generated (vs replayed) by one generator instance.
#[test]
fn checkpoint_resume_replays_counter_totals() {
    let dlx = DlxModel::new();
    let path = temp_checkpoint("counter_replay");
    let config = |limit: usize, checkpoint: bool| {
        let mut config = CampaignConfig {
            limit: Some(limit),
            num_threads: 1,
            checkpoint: checkpoint.then(|| path.clone()),
            ..CampaignConfig::default()
        };
        config.tg.ctrljust_memo = false;
        config
    };
    let uninterrupted = Campaign::run(&dlx, &config(12, false), RunOptions::default());
    // A "killed midway" run persists deltas for the first half...
    let partial = Campaign::run(&dlx, &config(6, true), RunOptions::default());
    assert_eq!(partial.campaign.records.len(), 6);
    // ...and the resumed run replays them while generating the rest.
    let resumed = Campaign::run(&dlx, &config(12, true), RunOptions::default());
    assert_eq!(
        stats_sans_time(&resumed.campaign),
        stats_sans_time(&uninterrupted.campaign)
    );
    assert_eq!(
        resumed.report.counters.counts, uninterrupted.report.counters.counts,
        "replayed counter totals must equal the uninterrupted run's"
    );
    let phase_calls = |counters: &hltg::core::instrument::CounterSnapshot| {
        counters
            .phases
            .iter()
            .map(|p| (p.name, p.calls))
            .collect::<Vec<_>>()
    };
    assert_eq!(
        phase_calls(&resumed.report.counters),
        phase_calls(&uninterrupted.report.counters),
        "replayed per-phase call counts must equal the uninterrupted run's"
    );
    // Sanity: the campaign did real work that the replay had to carry.
    assert!(resumed.report.counters.count("variants") > 0);
    let _ = std::fs::remove_file(&path);
}

/// Certified untestability proofs persist: a checkpointed campaign's
/// `proven_untestable` entries survive the kill/resume round trip. The
/// resumed run ends with certificates bit for bit equal to the
/// uninterrupted run's, and a full replay reproduces the counter totals
/// exactly — the pre-search prover pass costs the same on every run, the
/// deltas of generated errors replay with their entries, and nothing is
/// proven twice on top of them.
#[test]
fn checkpoint_resume_preserves_proofs() {
    let lite = build_model("dlx-lite").expect("registered backend");
    let path = temp_checkpoint("proofs");
    let config = |limit: usize, checkpoint: bool| {
        let mut config = CampaignConfig {
            limit: Some(limit),
            num_threads: 1,
            checkpoint: checkpoint.then(|| path.clone()),
            ..CampaignConfig::default()
        };
        // Counter totals are compared below; the memo's hit pattern
        // depends on which errors were generated vs replayed.
        config.tg.ctrljust_memo = false;
        config
    };
    let proofs = |c: &Campaign| {
        c.records
            .iter()
            .filter_map(|r| match &r.outcome {
                Outcome::ProvenUntestable(p) => Some((r.error.id, (**p).clone())),
                _ => None,
            })
            .collect::<Vec<_>>()
    };
    // An uninterrupted reference run, no persistence.
    let uninterrupted = Campaign::run(lite.as_ref(), &config(67, false), RunOptions::default());
    assert!(
        uninterrupted.report.stats.proven_untestable >= 2,
        "the window must certify enough errors to exercise the round trip: {:?}",
        uninterrupted.report.stats
    );
    // A "killed midway" run whose persisted prefix already holds proofs...
    let partial = Campaign::run(lite.as_ref(), &config(60, true), RunOptions::default());
    assert!(
        partial.report.stats.proven_untestable >= 1,
        "the partial run must certify at least one error"
    );
    let persisted = std::fs::read_to_string(&path).expect("checkpoint written");
    assert!(
        persisted.contains("\"outcome\": \"proven_untestable\""),
        "the partial run must persist its certificates"
    );
    // ...resumed to completion: stats match the uninterrupted reference
    // and every certificate — restored or freshly proven — is identical.
    let resumed = Campaign::run(lite.as_ref(), &config(67, true), RunOptions::default());
    assert_eq!(
        stats_sans_time(&resumed.campaign),
        stats_sans_time(&uninterrupted.campaign)
    );
    assert_eq!(
        proofs(&resumed.campaign),
        proofs(&uninterrupted.campaign),
        "restored certificates must equal the uninterrupted run's bit for bit"
    );
    // A full replay regenerates nothing: the proofs round-trip through
    // the JSONL file once more, and the counter totals — prover counters
    // included — replay exactly. Proving an error twice would inflate
    // them.
    let replayed = Campaign::run(lite.as_ref(), &config(67, true), RunOptions::default());
    assert_eq!(proofs(&replayed.campaign), proofs(&resumed.campaign));
    assert_eq!(
        replayed.report.counters.counts, resumed.report.counters.counts,
        "a full replay must reproduce the counter totals without re-proving"
    );
    assert!(
        replayed.report.counters.count("prover_calls") > 0,
        "the replayed totals must still carry the recorded prover work"
    );
    let _ = std::fs::remove_file(&path);
}

/// A checkpoint read back from disk is a trust boundary: every persisted
/// certificate is re-checked against the design before the campaign
/// trusts it. A corrupted certificate, and a forged one that would turn
/// an abort into "untestable" and shrink the testable-coverage
/// denominator, each count as one unusable entry and are regenerated;
/// the resumed report stays byte-identical to the uninterrupted run.
#[test]
fn tampered_certificates_are_regenerated_on_resume() {
    let lite = build_model("dlx-lite").expect("registered backend");
    let path = temp_checkpoint("tamper");
    // Limit 57 reaches `set_seq.y[16]:sa0` (error 56), a constant line
    // the prover certifies before any search. Error simulation keeps the
    // generation work small.
    let config = CampaignConfig {
        limit: Some(57),
        error_simulation: true,
        num_threads: 2,
        checkpoint: Some(path.clone()),
        ..CampaignConfig::default()
    };
    let outcomes = |c: &Campaign| {
        c.records
            .iter()
            .map(|r| format!("{:?}", r.outcome))
            .collect::<Vec<_>>()
    };
    let uninterrupted = Campaign::run(lite.as_ref(), &config, RunOptions::default());
    assert!(uninterrupted.report.stats.proven_untestable >= 1);
    assert!(uninterrupted.report.stats.aborted >= 1);
    let rewrite = |edit: &dyn Fn(&str) -> Option<String>| {
        let text = std::fs::read_to_string(&path).expect("checkpoint written");
        let mut done = false;
        let lines: Vec<String> = text
            .lines()
            .map(|line| match (done, edit(line)) {
                (false, Some(tampered)) => {
                    done = true;
                    tampered
                }
                _ => line.to_string(),
            })
            .collect();
        assert!(done, "no line to tamper with");
        std::fs::write(&path, lines.join("\n") + "\n").expect("checkpoint rewritable");
    };
    let resume_and_compare = |what: &str| {
        let resumed = Campaign::run(lite.as_ref(), &config, RunOptions::default());
        assert_eq!(
            resumed.report.to_json_deterministic(),
            uninterrupted.report.to_json_deterministic(),
            "{what}: the resumed report diverges"
        );
        assert_eq!(
            outcomes(&resumed.campaign),
            outcomes(&uninterrupted.campaign),
            "{what}: a certificate was trusted instead of regenerated"
        );
        assert_eq!(
            resumed.report.counters.count("certificates_rejected"),
            1,
            "{what}: exactly one unusable entry"
        );
    };
    // Corrupt a persisted constant-line certificate: the claimed value
    // no longer equals the stuck value.
    rewrite(&|line| {
        (line.contains("\"kind\": \"constant_line\"") && line.contains("\"value\": false"))
            .then(|| line.replace("\"value\": false", "\"value\": true"))
    });
    resume_and_compare("corrupted certificate");
    // Forge a certificate onto an aborted error's entry. The regenerated
    // certificate above superseded the corrupt line, so again exactly
    // one entry is unusable.
    rewrite(&|line| {
        let at = line.find("\"outcome\": \"aborted\"")?;
        Some(format!(
            "{}\"outcome\": \"proven_untestable\", \"frames\": 0, \
             \"kind\": \"no_propagation_path\", \"clauses\": []}}",
            &line[..at]
        ))
    });
    resume_and_compare("forged certificate");
    let _ = std::fs::remove_file(&path);
}

/// A checkpoint written under a different configuration is refused, not
/// silently mixed in: the campaign warns, runs without persistence, and
/// produces the same results as an unpersisted run.
#[test]
fn mismatched_checkpoint_is_refused_not_mixed() {
    let dlx = DlxModel::new();
    let path = temp_checkpoint("mismatch");
    let mut starved = CampaignConfig {
        limit: Some(4),
        num_threads: 1,
        checkpoint: Some(path.clone()),
        ..CampaignConfig::default()
    };
    starved.tg.max_steps = Some(40);
    let _ = Campaign::run(&dlx, &starved, RunOptions::default()).campaign;
    // Same path, different generator configuration: must not resume.
    let clean_cfg = CampaignConfig {
        limit: Some(4),
        num_threads: 1,
        checkpoint: Some(path.clone()),
        ..CampaignConfig::default()
    };
    let unpersisted = CampaignConfig {
        checkpoint: None,
        ..clean_cfg.clone()
    };
    let a = Campaign::run(&dlx, &clean_cfg, RunOptions::default()).campaign;
    let b = Campaign::run(&dlx, &unpersisted, RunOptions::default()).campaign;
    assert_eq!(stats_sans_time(&a), stats_sans_time(&b));
    let _ = std::fs::remove_file(&path);
}

/// The wall-clock soft deadline only reschedules work — an immediately
/// expired deadline forces the merge pass to generate everything, with
/// outcomes identical to an undeadlined run.
#[test]
fn soft_deadline_never_changes_outcomes() {
    let dlx = DlxModel::new();
    let base = CampaignConfig {
        limit: Some(8),
        num_threads: 4,
        ..CampaignConfig::default()
    };
    let plain = Campaign::run(&dlx, &base, RunOptions::default()).campaign;
    let deadlined = Campaign::run(
        &dlx,
        &CampaignConfig {
            soft_deadline: Some(Duration::ZERO),
            ..base.clone()
        },
        RunOptions::default(),
    )
    .campaign;
    assert_eq!(stats_sans_time(&deadlined), stats_sans_time(&plain));
    assert_eq!(report_sans_time(&deadlined), report_sans_time(&plain));
}

/// Regenerating a test for the same error is deterministic: two fresh
/// generators produce identical programs and images.
#[test]
fn generation_is_deterministic() {
    let dlx = DlxModel::new();
    let errors = enumerate_stage_errors(dlx.design(), &stages(), EnumPolicy::RepresentativePerBus);
    for e in errors.iter().take(6) {
        let a = TestGenerator::new(&dlx, TgConfig::default()).generate(e);
        let b = TestGenerator::new(&dlx, TgConfig::default()).generate(e);
        match (a, b) {
            (Outcome::Detected(x), Outcome::Detected(y)) => {
                assert_eq!(x.imem_image, y.imem_image, "{e}");
                assert_eq!(x.dmem_image, y.dmem_image, "{e}");
                assert_eq!(x.detected_cycle, y.detected_cycle, "{e}");
            }
            (Outcome::Aborted { reason: ra, .. }, Outcome::Aborted { reason: rb, .. }) => {
                assert_eq!(ra, rb, "{e}");
            }
            _ => panic!("{e}: outcome differs between identical runs"),
        }
    }
}
