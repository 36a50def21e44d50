//! End-to-end integration: the full pipeline from error enumeration through
//! test generation to *independent* confirmation.
//!
//! For each sampled error, the generated test is replayed from scratch on a
//! fresh good/bad machine pair (not the one the generator used), and the
//! good machine's final architectural state is cross-checked against the
//! ISA reference simulator — the implementation-vs-specification comparison
//! that defines design verification.

use hltg::core::{
    Campaign, CampaignConfig, Outcome, ProofKind, RunOptions, TestGenerator, TgConfig,
};
use hltg::dlx::{DlxDesign, DlxModel};
use hltg::errors::{enumerate_stage_errors, EnumPolicy};
use hltg::isa::ref_sim::ArchSim;
use hltg::netlist::Stage;
use hltg::sim::{DualSim, Machine};

fn ex_mem_wb() -> [Stage; 3] {
    [Stage::new(2), Stage::new(3), Stage::new(4)]
}

/// Replays a generated test on a fresh dual pair; returns the discrepancy
/// cycle if the error is detected.
fn replay(dlx: &DlxDesign, test: &hltg::core::tg::TestCase, error: &hltg::errors::BusSslError) -> Option<u64> {
    let mut dual = DualSim::new(&dlx.design, error.to_injection()).expect("levelizes");
    dual.with_both(|m| {
        for &(addr, word) in &test.imem_image {
            m.preload_mem(dlx.dp.imem, addr, u64::from(word));
        }
        for &(addr, value) in &test.dmem_image {
            m.preload_mem(dlx.dp.dmem, addr, value);
        }
    });
    dual.run(96).map(|d| d.cycle)
}

#[test]
fn generated_tests_replay_and_detect() {
    let model = DlxModel::new();
    let dlx = model.inner();
    let errors = enumerate_stage_errors(
        &dlx.design,
        &ex_mem_wb(),
        EnumPolicy::RepresentativePerBus,
    );
    let mut tg = TestGenerator::new(&model, TgConfig::default());
    let mut detected = 0;
    for error in errors.iter().take(24) {
        if let Outcome::Detected(test) = tg.generate(error) {
            assert!(
                replay(dlx, &test, error).is_some(),
                "{error}: generated test does not replay to a detection"
            );
            detected += 1;
        }
    }
    assert!(detected >= 14, "only {detected} of 24 errors detected");
}

/// The good machine running a generated test must match the ISA reference
/// simulator — errors in the *implementation* are what we hunt; the good
/// machine itself must stay correct under generated stimuli. Register
/// indirect jumps may leave the linear program region, so the comparison
/// uses the shared fetch stream length.
#[test]
fn generated_tests_keep_good_machine_architecturally_correct() {
    let model = DlxModel::new();
    let dlx = model.inner();
    let errors = enumerate_stage_errors(
        &dlx.design,
        &ex_mem_wb(),
        EnumPolicy::RepresentativePerBus,
    );
    let mut tg = TestGenerator::new(&model, TgConfig::default());
    let mut checked = 0;
    for error in errors.iter().take(16) {
        let Outcome::Detected(test) = tg.generate(error) else {
            continue;
        };
        // Build the shared initial world.
        let mut machine = Machine::new(&dlx.design).expect("levelizes");
        let mut spec = ArchSim::new();
        for &(addr, word) in &test.imem_image {
            machine.preload_mem(dlx.dp.imem, addr, u64::from(word));
            spec.load_program(4 * addr as u32, &[word]);
        }
        for &(addr, value) in &test.dmem_image {
            machine.preload_mem(dlx.dp.dmem, addr, value);
            spec.set_mem_word(4 * addr as u32, value as u32);
        }
        // Run the pipeline long enough to retire everything, the spec for
        // the same dynamic instruction count.
        let cycles = test.program.len() as u64 + 24;
        for _ in 0..cycles {
            machine.step();
        }
        spec.run(cycles as usize);
        for r in 1..32u32 {
            assert_eq!(
                machine.read_reg(dlx.dp.gpr, r),
                u64::from(spec.reg(hltg::isa::Reg(r as u8))),
                "{error}: r{r} diverges between pipeline and ISA reference\n{}",
                test.program.listing()
            );
        }
        checked += 1;
    }
    assert!(checked >= 10, "only {checked} tests cross-checked");
}

/// No error is aborted without a reason. A structurally redundant error
/// never aborts at all: the campaign certifies it as `ProvenUntestable`
/// with a constant-line proof before any search runs. An aborted error is
/// observable only through the controller, or is a search-budget
/// artifact that an escalated budget (what the campaign's retry rounds
/// apply) recovers into a detection; the escalation is checked on the
/// first 36 errors.
#[test]
fn aborts_are_explained() {
    let model = DlxModel::new();
    let dlx = model.inner();
    // Error simulation only skips generation for errors an earlier test
    // detects; every abort is still generated with the default budgets.
    let campaign = Campaign::run(
        &model,
        &CampaignConfig {
            error_simulation: true,
            ..CampaignConfig::default()
        },
        RunOptions::default(),
    )
    .campaign;
    let mut redundant = 0;
    for (i, record) in campaign.records.iter().enumerate() {
        let error = &record.error;
        if hltg::errors::is_structurally_redundant(&dlx.design, error) {
            redundant += 1;
            assert!(
                matches!(
                    &record.outcome,
                    Outcome::ProvenUntestable(proof)
                        if matches!(proof.kind, ProofKind::ConstantLine { .. })
                ),
                "{error}: structurally redundant but not proven by a constant line: {:?}",
                record.outcome
            );
            continue;
        }
        if i >= 36 {
            continue;
        }
        if let Outcome::Aborted { reason, .. } = &record.outcome {
            if *reason == hltg::core::tg::AbortReason::NoPath {
                continue;
            }
            // Default budgets can strand a testable error on an unlucky
            // variant ordering; the escalated budget must recover it.
            let escalated = TgConfig {
                max_variants: 32,
                ctrljust: hltg::core::ctrljust::CtrlJustConfig {
                    max_backtracks: 20_000,
                },
                ..TgConfig::default()
            };
            let mut tg2 = TestGenerator::new(&model, escalated);
            assert!(
                matches!(tg2.generate(error), Outcome::Detected(_)),
                "{error}: aborted with {reason:?} but is neither control-only \
                 nor recoverable under an escalated budget"
            );
        }
    }
    assert!(
        redundant > 0,
        "the dlx population has structurally redundant errors"
    );
}

/// The generator handles arbitrary line positions, not just the
/// representative middle line: spot-check low, middle and sign lines of
/// the ALU output under both polarities.
#[test]
fn all_bit_positions_are_generatable() {
    let model = DlxModel::new();
    let dlx = model.inner();
    let mut tg = TestGenerator::new(&model, TgConfig::default());
    let all = enumerate_stage_errors(&dlx.design, &ex_mem_wb(), EnumPolicy::AllBits);
    let mut checked = 0;
    for error in all.iter().filter(|e| {
        std::ptr::eq(dlx.design.dp.net(e.net), dlx.design.dp.net(dlx.dp.alu_out))
            && matches!(e.bit, 0 | 15 | 31)
    }) {
        let outcome = tg.generate(error);
        match outcome {
            Outcome::Detected(test) => {
                assert!(replay(dlx, &test, error).is_some(), "{error}");
                checked += 1;
            }
            Outcome::Aborted { .. } | Outcome::ProvenUntestable(_) => {
                panic!("{error}: ALU lines must be testable")
            }
        }
    }
    assert_eq!(checked, 6, "three lines x two polarities");
}
