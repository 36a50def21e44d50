//! The correctness gate run on every campaign the benchmark times:
//! replay of every detected test, an independent fault-grade of the
//! emitted test set, and a prover pass whose certificates are re-checked.

use hltg::core::instrument::Counters;
use hltg::core::tg::TestCase;
use hltg::core::{prove_untestable, ErrorRecord, Outcome, ProveConfig, SplitMix64};
use hltg::errors::BusSslError;
use hltg::prelude::ProcessorModel;
use hltg::sim::{Injection, Machine, PackedScreen, Schedule, MAX_LANES};
use std::collections::HashSet;
use std::time::Instant;

/// Cycles past the program end that a screen watches for divergence;
/// the campaign's screening loops use the same horizon.
const SCREEN_TAIL: u64 = 16;

fn screen_horizon(test: &TestCase) -> u64 {
    test.program.len() as u64 + SCREEN_TAIL
}

fn preload(m: &mut Machine<'_>, model: &dyn ProcessorModel, test: &TestCase) {
    let pipe = model.pipeline();
    for &(addr, word) in &test.imem_image {
        m.preload_mem(pipe.imem, addr, u64::from(word));
    }
    for &(addr, value) in &test.dmem_image {
        m.preload_mem(pipe.dmem, addr, value);
    }
}

/// Steps a fresh good/bad pair for at most `horizon` cycles; returns the
/// first cycle whose observables differ, and the cycles stepped.
fn first_divergence(
    model: &dyn ProcessorModel,
    schedule: &Schedule,
    test: &TestCase,
    inj: Injection,
    horizon: u64,
) -> (Option<u64>, u64) {
    let mut good = Machine::with_schedule(model.design(), schedule.clone());
    let mut bad = Machine::with_schedule(model.design(), schedule.clone());
    bad.set_injection(Some(inj));
    preload(&mut good, model, test);
    preload(&mut bad, model, test);
    for cycle in 0..horizon {
        if good.step() != bad.step() {
            return (Some(cycle), cycle + 1);
        }
    }
    (None, horizon)
}

/// Shuffles `v` in place (Fisher–Yates) from `rng`.
fn shuffle<T>(v: &mut [T], rng: &mut SplitMix64) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_index(i + 1));
    }
}

/// Result of [`replay`].
#[derive(Debug, Default)]
pub struct Replay {
    pub detected: usize,
    pub verified: usize,
    pub failures: Vec<String>,
    /// Machine cycles stepped, good and bad machines both counted.
    pub cycles: u64,
    pub seconds: f64,
}

/// Replays every detected test on a fresh good/bad pair from reset with
/// the error injected. A generated test must diverge by its recorded
/// `detected_cycle`; a test credited by screening must diverge within
/// the screening horizon. Records are visited in an order drawn from
/// `rng`, which the verdicts must not depend on.
pub fn replay(
    model: &dyn ProcessorModel,
    schedule: &Schedule,
    records: &[ErrorRecord],
    rng: &mut SplitMix64,
) -> Replay {
    let t0 = Instant::now();
    let mut out = Replay::default();
    let mut order: Vec<&ErrorRecord> = records.iter().filter(|r| r.outcome.is_detected()).collect();
    shuffle(&mut order, rng);
    for r in order {
        let Outcome::Detected(test) = &r.outcome else {
            unreachable!("filtered to detections")
        };
        out.detected += 1;
        let limit = if r.by_simulation {
            screen_horizon(test)
        } else {
            test.detected_cycle as u64 + 1
        };
        let (at, cycles) = first_divergence(model, schedule, test, r.error.to_injection(), limit);
        out.cycles += 2 * cycles;
        match at {
            Some(_) => out.verified += 1,
            None => out.failures.push(format!(
                "replay: {} ({}) does not diverge within {limit} cycles",
                r.error.net_name, r.error.id.0
            )),
        }
    }
    out.seconds = t0.elapsed().as_secs_f64();
    out
}

/// Result of [`grade`].
#[derive(Debug, Default)]
pub struct Grade {
    pub tests: usize,
    pub covered: usize,
    pub failures: Vec<String>,
    pub passes: u64,
    pub lanes: u64,
    pub serial: u64,
    pub seconds: f64,
}

/// Fault-grades the emitted test set (the distinct generated tests)
/// against every target error with [`PackedScreen`], dropping an error
/// once a test detects it. Every error the campaign reports detected
/// must be covered. Tests are graded in an order drawn from `rng`.
pub fn grade(
    model: &dyn ProcessorModel,
    schedule: &Schedule,
    errors: &[BusSslError],
    records: &[ErrorRecord],
    rng: &mut SplitMix64,
) -> Grade {
    let t0 = Instant::now();
    let mut out = Grade::default();
    let mut seen = HashSet::new();
    let mut tests: Vec<&TestCase> = records
        .iter()
        .filter(|r| !r.by_simulation)
        .filter_map(|r| match &r.outcome {
            Outcome::Detected(t) => Some(t.as_ref()),
            _ => None,
        })
        .filter(|t| seen.insert((t.program.len(), t.imem_image.clone(), t.dmem_image.clone())))
        .collect();
    shuffle(&mut tests, rng);
    out.tests = tests.len();
    let mut covered = vec![false; errors.len()];
    for test in tests {
        let mut screen = PackedScreen::new(
            model.design(),
            schedule.clone(),
            |m| preload(m, model, test),
            screen_horizon(test),
        );
        let (packable, serial): (Vec<usize>, Vec<usize>) = (0..errors.len())
            .filter(|&j| !covered[j])
            .partition(|&j| screen.can_pack(errors[j].to_injection()));
        for chunk in packable.chunks(MAX_LANES) {
            let injs: Vec<Injection> = chunk.iter().map(|&j| errors[j].to_injection()).collect();
            let mask = screen.screen(&injs);
            out.passes += 1;
            out.lanes += chunk.len() as u64;
            for (lane, &j) in chunk.iter().enumerate() {
                covered[j] |= mask & (1u64 << lane) != 0;
            }
        }
        for j in serial {
            out.serial += 1;
            let inj = errors[j].to_injection();
            covered[j] = first_divergence(model, schedule, test, inj, screen_horizon(test))
                .0
                .is_some();
        }
    }
    out.covered = covered.iter().filter(|&&c| c).count();
    for (r, &c) in records.iter().zip(&covered) {
        if r.outcome.is_detected() && !c {
            out.failures.push(format!(
                "grade: {} ({}) is reported detected but no emitted test detects it",
                r.error.net_name, r.error.id.0
            ));
        }
    }
    out.seconds = t0.elapsed().as_secs_f64();
    out
}

/// Result of [`prover_pass`].
#[derive(Debug, Default)]
pub struct ProverPass {
    pub calls: u64,
    pub proofs: u64,
    pub implications: u64,
    pub failures: Vec<String>,
    pub prove_seconds: f64,
    pub check_seconds: f64,
}

/// Calls the untestability prover on every aborted error and re-checks
/// every certificate, both the ones it produces and any the campaign
/// recorded itself.
pub fn prover_pass(model: &dyn ProcessorModel, records: &[ErrorRecord]) -> ProverPass {
    let design = model.design();
    let counters = Counters::new();
    let mut out = ProverPass::default();
    for r in records {
        let proof = match &r.outcome {
            Outcome::Detected(_) => continue,
            Outcome::ProvenUntestable(proof) => Some(proof.as_ref().clone()),
            Outcome::Aborted { .. } => {
                let t0 = Instant::now();
                let proof = prove_untestable(design, &r.error, ProveConfig::default(), &counters);
                out.prove_seconds += t0.elapsed().as_secs_f64();
                out.calls += 1;
                out.proofs += u64::from(proof.is_some());
                proof
            }
        };
        if let Some(proof) = proof {
            let t0 = Instant::now();
            let ok = proof.check(design, &r.error);
            out.check_seconds += t0.elapsed().as_secs_f64();
            if !ok {
                out.failures.push(format!(
                    "prover: certificate for {} ({}) fails check()",
                    r.error.net_name, r.error.id.0
                ));
            }
        }
    }
    out.implications = counters.snapshot().count("prover_implications");
    out
}

/// FNV-1a over `bytes`: the determinism digest.
pub fn digest(bytes: impl AsRef<[u8]>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes.as_ref() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}
