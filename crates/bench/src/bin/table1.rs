//! Reproduces **Table 1**: test generation for bus SSL errors in the
//! error stages of the selected design's datapath (the classic DLX's
//! EX/MEM/WB by default).
//!
//! Usage: `cargo run --release -p hltg-bench --bin table1 [limit]
//!         [--design NAME] [--list-designs] [--error-sim] [--no-collapse]
//!         [--no-sim-cache] [--no-packed-screen]
//!         [--threads N] [--json] [--trace-out PATH] [--progress]
//!         [--metrics-out PATH] [--metrics-every N] [--metrics-full]
//!         [--resume PATH] [--retry N] [--max-steps N]
//!         [--soft-deadline-ms MS] [--chaos-panic PERMILLE]
//!         [--chaos-seed S] [--prove-frames K]`
//!
//! `--design NAME` selects the processor backend (default `dlx`) from
//! the process-wide [`hltg_netlist::registry`]; `--list-designs` prints
//! the registered names, one per line, and exits. Every workspace
//! backend crate (`hltg-dlx`: `dlx`, `dlx16`, `dlx-lite`; `hltg-rv32`:
//! `rv32`, `rv32-7`) registers itself here before resolution.
//!
//! `--threads N` shards the campaign over N worker threads (default: all
//! available cores; results are identical for any N). `--json` emits the
//! machine-readable [`hltg_core::CampaignReport`] — stats plus the
//! per-phase DPTRACE/CTRLJUST/DPRELAX instrumentation counters — instead
//! of the human-readable table. `--trace-out PATH` writes the structured
//! JSONL trace (per-error spans, per-phase histograms; see DESIGN.md
//! §Observability) to `PATH`, and `--progress` prints a periodic stderr
//! progress line with per-phase p50/p99 latency, an errors/sec rate and
//! an ETA.
//!
//! `--metrics-out PATH` writes the campaign flight-recorder timeline
//! (see DESIGN.md §Observability v2): per-error metric records, periodic
//! cumulative snapshots (every `--metrics-every N` completions, default
//! 8), the stage × error-class detection matrix and the
//! detection-latency histogram, as JSONL for `campaign_report`. The
//! default stream is deterministic — byte-identical for any `--threads`
//! value; `--metrics-full` adds the wall-clock and live counter-sample
//! fields (which race with worker scheduling).
//!
//! Resilience flags (see DESIGN.md §Resilience): `--resume PATH`
//! checkpoints every finished error to a JSONL file and skips errors the
//! file already holds, so a killed campaign resumes instead of starting
//! over; `--retry N` re-runs aborted errors for up to N escalated rounds;
//! `--max-steps N` sets the deterministic per-error step budget;
//! `--soft-deadline-ms MS` stops workers *claiming* new errors past the
//! deadline (outcomes are unaffected); `--chaos-panic PERMILLE` (with
//! `--chaos-seed S`) deterministically injects panics into the engine
//! phases to exercise the isolation machinery.
//!
//! The untestability prover always runs: its frame-independent layers
//! certify errors before any search, and its bounded layer tries every
//! error the generator aborts. A certified error is reported as
//! `proven_untestable` (excluded from testable coverage, skipped by the
//! retry rounds, broken down by proof kind in the table);
//! `--prove-frames K` bounds the bounded layer's window (default 8
//! pipeframes).
//!
//! Reuse flags (see DESIGN.md §Campaign-level reuse): this binary runs
//! with error-class collapsing on by default — `--no-collapse` restores
//! the classic one-generation-per-error loop, `--no-sim-cache`
//! disables both the shared-prefix simulation cache and the `CTRLJUST`
//! memo, and `--no-packed-screen` disables the fault-parallel (packed)
//! screening passes (the screening verdicts and the report are identical
//! either way; only run time and the `*_cache`/`*_memo`/`packed_*`
//! counters move).

use hltg_core::{Campaign, CampaignConfig, ChaosConfig, RunOptions};
use std::path::PathBuf;
use std::time::Duration;

fn parse_or_exit<T: std::str::FromStr>(flag: &str, value: &str) -> T {
    value.parse().unwrap_or_else(|_| {
        eprintln!("{flag}: cannot parse {value:?}");
        std::process::exit(2);
    })
}

fn register_backends() {
    hltg_dlx::register_backends();
    hltg_rv32::register_backends();
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--list-designs") {
        register_backends();
        for name in hltg_netlist::registry::backend_names() {
            println!("{name}");
        }
        return;
    }
    let error_simulation = args.iter().any(|a| a == "--error-sim");
    let no_collapse = args.iter().any(|a| a == "--no-collapse");
    let no_sim_cache = args.iter().any(|a| a == "--no-sim-cache");
    let no_packed_screen = args.iter().any(|a| a == "--no-packed-screen");
    let json = args.iter().any(|a| a == "--json");
    let progress = args.iter().any(|a| a == "--progress");
    let metrics_full = args.iter().any(|a| a == "--metrics-full");
    // Value-carrying flags: record the value's position so the positional
    // limit scan below can skip it.
    let mut value_positions: Vec<usize> = Vec::new();
    let mut value_of = |name: &str| -> Option<String> {
        let i = args.iter().position(|a| a == name)?;
        value_positions.push(i + 1);
        match args.get(i + 1) {
            Some(v) => Some(v.clone()),
            None => {
                eprintln!("{name} requires a value argument");
                std::process::exit(2);
            }
        }
    };
    let design_name = value_of("--design").unwrap_or_else(|| "dlx".to_string());
    let num_threads: Option<usize> =
        value_of("--threads").map(|v| parse_or_exit("--threads", &v));
    let trace_out: Option<String> = value_of("--trace-out");
    let metrics_out: Option<String> = value_of("--metrics-out");
    let metrics_every: Option<usize> =
        value_of("--metrics-every").map(|v| parse_or_exit("--metrics-every", &v));
    let resume: Option<String> = value_of("--resume");
    let retry: Option<u32> = value_of("--retry").map(|v| parse_or_exit("--retry", &v));
    let max_steps: Option<u64> =
        value_of("--max-steps").map(|v| parse_or_exit("--max-steps", &v));
    let soft_deadline_ms: Option<u64> =
        value_of("--soft-deadline-ms").map(|v| parse_or_exit("--soft-deadline-ms", &v));
    let chaos_panic: Option<u32> =
        value_of("--chaos-panic").map(|v| parse_or_exit("--chaos-panic", &v));
    let chaos_seed: Option<u64> =
        value_of("--chaos-seed").map(|v| parse_or_exit("--chaos-seed", &v));
    let prove_frames: Option<usize> =
        value_of("--prove-frames").map(|v| parse_or_exit("--prove-frames", &v));
    // The limit is the first positional argument: not a flag, and not a
    // value consumed by one.
    let limit: Option<usize> = args
        .iter()
        .enumerate()
        .filter(|(i, a)| !a.starts_with("--") && !value_positions.contains(i))
        .find_map(|(_, s)| s.parse().ok());

    register_backends();
    let model = hltg_netlist::registry::build_model(&design_name).unwrap_or_else(|| {
        eprintln!(
            "--design {design_name}: unknown backend (registered: {})",
            hltg_netlist::registry::backend_names().join(", ")
        );
        std::process::exit(2);
    });
    let mut config = CampaignConfig {
        stages: model.error_stages(),
        limit,
        error_simulation,
        collapse: !no_collapse,
        sim_cache: !no_sim_cache,
        packed_screen: !no_packed_screen,
        ..CampaignConfig::default()
    };
    config.tg.ctrljust_memo = !no_sim_cache;
    if let Some(n) = num_threads {
        config.num_threads = n;
    }
    if let Some(n) = max_steps {
        config.tg.max_steps = Some(n);
    }
    if let Some(rounds) = retry {
        config.retry.rounds = rounds;
    }
    if let Some(path) = resume {
        config.checkpoint = Some(PathBuf::from(path));
    }
    if let Some(ms) = soft_deadline_ms {
        config.soft_deadline = Some(Duration::from_millis(ms));
    }
    if let Some(k) = prove_frames {
        config.prove_frames = k;
    }
    if chaos_panic.is_some() || chaos_seed.is_some() {
        let mut chaos = ChaosConfig::default();
        if let Some(p) = chaos_panic {
            chaos.panic_permille = p;
        }
        if let Some(s) = chaos_seed {
            chaos.seed = s;
        }
        config.chaos = Some(chaos);
    }

    eprintln!(
        "running the {} bus-SSL campaign on {} ({} thread{})...",
        model.stage_label(&config.stages),
        model.name(),
        config.effective_threads(),
        if config.effective_threads() == 1 { "" } else { "s" }
    );
    let opts = RunOptions {
        trace: trace_out.is_some(),
        progress,
        metrics: metrics_out
            .is_some()
            .then(|| metrics_every.unwrap_or(8).max(1)),
        ..RunOptions::default()
    };
    let run = Campaign::run(model.as_ref(), &config, opts);
    let (campaign, report) = (run.campaign, run.report);
    if let (Some(path), Some(trace)) = (&trace_out, &run.trace) {
        if let Err(e) = std::fs::write(path, trace.to_jsonl()) {
            eprintln!("failed to write trace to {path}: {e}");
            std::process::exit(1);
        }
        eprintln!(
            "wrote {} spans to {path}",
            trace.spans.len()
        );
    }
    if let (Some(path), Some(metrics)) = (&metrics_out, &run.metrics) {
        let jsonl = if metrics_full {
            metrics.to_jsonl()
        } else {
            metrics.to_jsonl_deterministic()
        };
        if let Err(e) = std::fs::write(path, jsonl) {
            eprintln!("failed to write metrics to {path}: {e}");
            std::process::exit(1);
        }
        eprintln!(
            "wrote {} metric records ({} snapshots) to {path}",
            metrics.recs.len(),
            metrics.snaps.len()
        );
    }

    if json {
        println!("{}", report.to_json());
        return;
    }

    println!("{}", campaign.table1_report());

    let stats = campaign.stats();
    println!("sequence-length histogram (detected errors):");
    for (len, &count) in stats.length_histogram.iter().enumerate() {
        if count > 0 {
            println!("  {len:>3}: {count:>3} {}", "#".repeat(count.min(60)));
        }
    }
    println!(
        "\nqualitative check (paper: 'a few non-trivial instructions followed by NOPs'):\n\
         average core (non-NOP) length {:.1} of {:.1} total instructions.",
        stats.avg_core_length, stats.avg_length
    );
    println!("\nper-stage breakdown:");
    for (stage, errors, detected) in &stats.by_stage {
        println!(
            "  {}: {detected}/{errors} detected",
            hltg_netlist::stage::stage_name(
                hltg_netlist::Stage::new(*stage as u8),
                model.pipeline().depth
            )
        );
    }
}
