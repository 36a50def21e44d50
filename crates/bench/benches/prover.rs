//! Benches for the untestability prover (DESIGN.md §6h). Plain std
//! harness; run with `cargo bench --bench prover`.
//!
//! Three costs matter in a campaign: certifying a provable error (paid
//! once per certified error), *failing* to certify a testable error (the
//! overhead the prover adds to every genuine abort), and re-checking a
//! certificate (what every trust boundary — generation, checkpoint
//! resume, the service merge — pays to trust it). The provable/testable specimens are discovered by scanning the
//! DLX `AllBits` error-stage population with the prover itself, so the
//! set keeps working if the enumeration order moves.

use hltg_bench::harness::{bench, write_json_report};
use hltg_core::instrument::Counters;
use hltg_core::{prove_untestable, ProveConfig};
use hltg_dlx::DlxModel;
use hltg_errors::{enumerate_stage_errors, EnumPolicy};
use hltg_netlist::ProcessorModel;
use std::hint::black_box;

fn main() {
    let model = DlxModel::new();
    let design = model.design();
    let stages = model.error_stages();
    let errors = enumerate_stage_errors(design, &stages, EnumPolicy::AllBits);
    let cfg = ProveConfig::default();
    let probe = Counters::default();

    // Setup (untimed): one provable and one unprovable specimen.
    let provable = errors
        .iter()
        .find(|e| prove_untestable(design, e, cfg, &probe).is_some())
        .expect("the DLX error stages contain a provably untestable bit");
    let testable = errors
        .iter()
        .find(|e| prove_untestable(design, e, cfg, &probe).is_none())
        .expect("the DLX error stages contain a testable bit");
    let proof = prove_untestable(design, provable, cfg, &probe).expect("specimen proves");

    let mut results = Vec::new();
    results.push(bench("prove_certified_error", || {
        black_box(prove_untestable(design, black_box(provable), cfg, &probe))
    }));
    results.push(bench("prove_miss_testable_error", || {
        black_box(prove_untestable(design, black_box(testable), cfg, &probe))
    }));
    results.push(bench("check_certificate", || {
        black_box(proof.check(design, black_box(provable)))
    }));
    write_json_report("prover", &results);
}
