//! **Extended error-model cross coverage** (paper §VI: "our test generation
//! algorithm can be used in conjunction with other error models proposed in
//! \[28\]"). Generates the compacted bus-SSL test set for the selected
//! design's error stages (EX/MEM/WB on the classic DLX), then grades it
//! against the other models of that family — bus order errors and module
//! substitution errors — by dual simulation.
//!
//! Usage: `cargo run --release -p hltg-bench --bin ext_error_models
//!         [--design NAME] [--json] [--trace-out PATH] [--progress]
//!         [--metrics-out PATH]
//!         [--resume PATH] [--no-sim-cache] [--no-packed-screen]
//!         [--prove-frames K]`
//!
//! `--design NAME` selects the processor backend (default `dlx`) from
//! the process-wide [`hltg_netlist::registry`].
//!
//! `--json` emits a machine-readable object: the generating campaign's
//! [`hltg_core::CampaignReport`] (stats plus per-phase instrumentation
//! counters) under `"campaign"`, and the cross-coverage figures under
//! `"cross_coverage"`. `--trace-out PATH` writes the generating campaign's
//! structured JSONL trace (per-error spans, per-phase histograms) to
//! `PATH`; `--progress` prints a periodic stderr progress line.
//! `--metrics-out PATH` writes the generating campaign's deterministic
//! flight-recorder metrics JSONL (see DESIGN.md §Observability v2) for
//! `campaign_report`.
//! `--resume PATH` checkpoints the generating campaign to a JSONL file
//! and, on re-run, skips the errors the file already holds (see DESIGN.md
//! §Resilience) — the cross-coverage grading then reuses the restored
//! test set and reproduces the identical report.
//! The untestability prover always runs (certified errors are reported
//! as `proven_untestable`); `--prove-frames K` bounds the window of its
//! bounded layer (default 8 pipeframes).

use hltg_core::tg::Outcome;
use hltg_core::{Campaign, CampaignConfig, RunOptions};
use hltg_errors::{enumerate_bus_order_errors, enumerate_module_substitutions};
use hltg_sim::{ErrorModel, Machine, Schedule};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json = args.iter().any(|a| a == "--json");
    let progress = args.iter().any(|a| a == "--progress");
    let no_sim_cache = args.iter().any(|a| a == "--no-sim-cache");
    let no_packed_screen = args.iter().any(|a| a == "--no-packed-screen");
    let prove_frames_pos = args.iter().position(|a| a == "--prove-frames");
    let prove_frames: Option<usize> = prove_frames_pos
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok());
    if prove_frames_pos.is_some() && prove_frames.is_none() {
        eprintln!("--prove-frames requires a numeric argument");
        std::process::exit(2);
    }
    let trace_pos = args.iter().position(|a| a == "--trace-out");
    let trace_out: Option<String> = trace_pos.and_then(|i| args.get(i + 1)).cloned();
    if trace_pos.is_some() && trace_out.is_none() {
        eprintln!("--trace-out requires a path argument");
        std::process::exit(2);
    }
    let metrics_pos = args.iter().position(|a| a == "--metrics-out");
    let metrics_out: Option<String> = metrics_pos.and_then(|i| args.get(i + 1)).cloned();
    if metrics_pos.is_some() && metrics_out.is_none() {
        eprintln!("--metrics-out requires a path argument");
        std::process::exit(2);
    }
    let resume_pos = args.iter().position(|a| a == "--resume");
    let resume: Option<String> = resume_pos.and_then(|i| args.get(i + 1)).cloned();
    if resume_pos.is_some() && resume.is_none() {
        eprintln!("--resume requires a path argument");
        std::process::exit(2);
    }
    let design_pos = args.iter().position(|a| a == "--design");
    let design_name = design_pos
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| {
            if design_pos.is_some() {
                eprintln!("--design requires a name argument");
                std::process::exit(2);
            }
            "dlx".to_string()
        });
    hltg_dlx::register_backends();
    hltg_rv32::register_backends();
    let model = hltg_netlist::registry::build_model(&design_name).unwrap_or_else(|| {
        eprintln!(
            "--design {design_name}: unknown backend (registered: {})",
            hltg_netlist::registry::backend_names().join(", ")
        );
        std::process::exit(2);
    });
    let stages = model.error_stages();

    eprintln!("generating the compacted bus-SSL test set on {}...", model.name());
    let defaults = CampaignConfig::default();
    let run = Campaign::run(
        model.as_ref(),
        &CampaignConfig {
            stages: stages.clone(),
            error_simulation: true,
            sim_cache: !no_sim_cache,
            packed_screen: !no_packed_screen,
            checkpoint: resume.map(std::path::PathBuf::from),
            prove_frames: prove_frames.unwrap_or(defaults.prove_frames),
            ..defaults
        },
        RunOptions {
            trace: trace_out.is_some(),
            progress,
            metrics: metrics_out.is_some().then_some(8),
            ..RunOptions::default()
        },
    );
    let (campaign, report) = (run.campaign, run.report);
    if let (Some(path), Some(trace)) = (&trace_out, &run.trace) {
        if let Err(e) = std::fs::write(path, trace.to_jsonl()) {
            eprintln!("failed to write trace to {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("wrote {} spans to {path}", trace.spans.len());
    }
    if let (Some(path), Some(metrics)) = (&metrics_out, &run.metrics) {
        if let Err(e) = std::fs::write(path, metrics.to_jsonl_deterministic()) {
            eprintln!("failed to write metrics to {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("wrote {} metric records to {path}", metrics.recs.len());
    }
    // Distinct generated tests only.
    let tests: Vec<_> = campaign
        .records
        .iter()
        .filter(|r| !r.by_simulation)
        .filter_map(|r| match &r.outcome {
            Outcome::Detected(tc) => Some(tc.clone()),
            _ => None,
        })
        .collect();
    if !json {
        println!("bus-SSL test set: {} tests", tests.len());
    }

    let design = model.design();
    let pipe = model.pipeline();
    let schedule = Schedule::build(design).expect("levelizes");
    let grade = |errors: &[ErrorModel]| {
        let mut detected = 0usize;
        for &e in errors {
            let hit = tests.iter().any(|tc| {
                let mut good = Machine::with_schedule(design, schedule.clone());
                let mut bad = Machine::with_schedule(design, schedule.clone());
                bad.set_error(Some(e));
                for m in [&mut good, &mut bad] {
                    for &(addr, word) in &tc.imem_image {
                        m.preload_mem(pipe.imem, addr, u64::from(word));
                    }
                    for &(addr, value) in &tc.dmem_image {
                        m.preload_mem(pipe.dmem, addr, value);
                    }
                }
                (0..tc.program.len() as u64 + 16).any(|_| good.step() != bad.step())
            });
            if hit {
                detected += 1;
            }
        }
        detected
    };

    let order = enumerate_bus_order_errors(design, &stages);
    let subs = enumerate_module_substitutions(design, &stages);
    let order_hit = grade(&order);
    let subs_hit = grade(&subs);

    if json {
        println!(
            "{{\"campaign\": {}, \"cross_coverage\": {{\
             \"test_set_size\": {}, \
             \"bus_order\": {{\"detected\": {}, \"total\": {}}}, \
             \"module_substitution\": {{\"detected\": {}, \"total\": {}}}}}}}",
            report.to_json(),
            tests.len(),
            order_hit,
            order.len(),
            subs_hit,
            subs.len()
        );
        return;
    }

    let show = |name: &str, detected: usize, total: usize| {
        println!(
            "{name:<28} {detected:>4}/{total:<4} = {:>5.1}%",
            100.0 * detected as f64 / total.max(1) as f64
        );
    };
    println!("\ncross coverage of the bus-SSL test set:");
    show("bus order errors", order_hit, order.len());
    show("module substitution errors", subs_hit, subs.len());
    println!(
        "\n(The bus-SSL tests were generated without knowledge of these models;\n\
         high incidental coverage is the classical argument for the model's use\n\
         as a verification driver.)"
    );
}
