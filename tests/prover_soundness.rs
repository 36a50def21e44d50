//! Soundness suite for the untestability prover (DESIGN.md §6h): every
//! certificate a campaign emits must (a) re-check against the design
//! from scratch, (b) survive exhaustive dual simulation — no generated
//! test may expose a certified error — and (c) never consume an
//! escalated retry slot.

use hltg::core::tg::Outcome;
use hltg::core::{Campaign, CampaignConfig, RetryPolicy, RunOptions};
use hltg::build_model;
use hltg::sim::{Machine, Schedule};

#[test]
fn certified_proofs_are_sound_on_dlx_lite() {
    let model = build_model("dlx-lite").expect("registered backend");
    let rounds = 2;
    let run = Campaign::run(
        model.as_ref(),
        &CampaignConfig {
            retry: RetryPolicy {
                rounds,
                escalate: 2,
            },
            ..CampaignConfig::default()
        },
        RunOptions::default(),
    );
    let campaign = run.campaign;
    let design = model.design();

    let proven: Vec<_> = campaign
        .records
        .iter()
        .filter_map(|r| match &r.outcome {
            Outcome::ProvenUntestable(proof) => Some((r, proof)),
            _ => None,
        })
        .collect();
    assert!(
        !proven.is_empty(),
        "the full dlx-lite campaign certified nothing — the suite exercises nothing"
    );
    assert_eq!(
        campaign.stats().proven_untestable,
        proven.len(),
        "stats disagree with the records"
    );

    // (a) Every certificate re-derives: a proof that does not check must
    // never be trusted, and proofs only come from the main pass.
    for (r, proof) in &proven {
        assert!(
            proof.check(design, &r.error),
            "certificate fails re-check: {}",
            r.error
        );
        assert_eq!(r.round, 0, "a proven error entered a retry round: {}", r.error);
    }

    // (b) Exhaustive dual simulation: replay every generated test against
    // every certified error over the screening horizon. A single
    // divergence refutes the certificate.
    let schedule = Schedule::build(design).expect("levelizes");
    let pipe = model.pipeline();
    let tests: Vec<_> = campaign
        .records
        .iter()
        .filter_map(|r| match &r.outcome {
            Outcome::Detected(tc) => Some(tc),
            _ => None,
        })
        .collect();
    assert!(!tests.is_empty(), "no tests to grade the certificates against");
    for (r, _) in &proven {
        for tc in &tests {
            let mut good = Machine::with_schedule(design, schedule.clone());
            let mut bad = Machine::with_schedule(design, schedule.clone());
            bad.set_injection(Some(r.error.to_injection()));
            for m in [&mut good, &mut bad] {
                for &(addr, word) in &tc.imem_image {
                    m.preload_mem(pipe.imem, addr, u64::from(word));
                }
                for &(addr, value) in &tc.dmem_image {
                    m.preload_mem(pipe.dmem, addr, value);
                }
            }
            let horizon = tc.program.len() as u64 + 16;
            assert!(
                (0..horizon).all(|_| good.step() == bad.step()),
                "a generated test detects the certified-untestable error {}",
                r.error
            );
        }
    }

    // (c) No proven error consumed a retry slot. Reconstruct the exact
    // number of escalated attempts the retry rounds owed: an error that
    // recovered in round r failed rounds 1..r first (r attempts); an
    // error still aborted after the last round consumed every round.
    // Proven errors owe zero — if one leaked into the retry loop the
    // counter would exceed this sum.
    let owed: u64 = campaign
        .records
        .iter()
        .map(|r| match &r.outcome {
            Outcome::Detected(_) => u64::from(r.round),
            Outcome::Aborted { .. } => u64::from(rounds),
            _ => 0,
        })
        .sum();
    assert_eq!(
        run.report.counters.count("retry_attempts"),
        owed,
        "retry attempts disagree with the records — a proven error \
         consumed a retry slot"
    );
    assert_eq!(
        run.report.counters.count("prover_proofs") as usize,
        proven.len(),
        "prover_proofs counter disagrees with the certified records"
    );
}
