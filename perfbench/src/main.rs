//! Whole-campaign benchmark for `hltg`.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload dlx-table1 --seed 1 --seconds 20 --trace 0 [--tg-seed N]
//! ```
//!
//! `--trace 0` runs the workload's campaign untraced, back to back until
//! `--seconds` of campaign wall clock have been measured, and prints the
//! end-to-end metrics. `--trace 1` runs it once untraced and once with a
//! benchmark-owned probe and spans, and prints the per-layer metrics.
//! Both check the program's outputs (see `gate.rs`) and print, as the
//! last line, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. See `README.md` for what every metric means.

mod calib;
mod gate;
mod trace;
mod workload;

use gate::digest;
use hltg::core::{CampaignReport, CheckpointLog, SplitMix64, TgConfig};
use hltg::prelude::*;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use trace::{LayerProbe, SpanLog, ROOT};
use workload::{Execution, Setup, SetupTimes, Tracing, Workload};

/// Set-up repetitions per block; an untraced run takes one block before
/// its first campaign and one after each.
const SETUP_BLOCK: usize = 100;
/// Re-finalizations from the completed checkpoint in a traced run.
const RESUME_REPS: usize = 8;
/// Largest negative residual self time accepted from the span arithmetic.
const SELF_TIME_EPSILON_S: f64 = 1e-3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    tg_seed: u64,
}

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: hltg-perfbench --workload <{}> --seed N --seconds S --trace <0|1> [--tg-seed N]",
        names.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut tg_seed = TgConfig::default().seed;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("{flag}: cannot parse {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                });
            }
            "--tg-seed" => tg_seed = value.parse::<u64>().map_err(|_| bad())?,
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        tg_seed,
    })
}

/// Scratch files (checkpoints, digests, span dumps) live beside the
/// benchmark executable, inside the build directory.
fn work_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("executable path is known");
    let dir = exe
        .parent()
        .expect("executable has a parent directory")
        .join("perfbench-work");
    std::fs::create_dir_all(&dir).expect("work directory is writable");
    dir
}

fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolation quantile (`q` in `[0, 1]`) of `values`.
fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// `VmHWM` of this process, in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

fn pct(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        100.0 * part / whole
    }
}

/// Metrics in print order: `(name, value, unit)`.
#[derive(Default)]
struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }
}

/// The work-unit total of a report: every deterministic search step the
/// engines count.
fn work_units(report: &CampaignReport) -> u64 {
    let c = &report.counters;
    c.count("dptrace_steps")
        + c.count("ctrljust_implications")
        + c.count("dprelax_iterations")
        + c.count("prover_implications")
}

/// The part of a campaign's result that must repeat exactly.
fn exact_key(report: &CampaignReport) -> String {
    format!(
        "{} work_units={}",
        report.to_json_deterministic(),
        work_units(report)
    )
}

/// Compares `value` with the digest an earlier run of this executable
/// stored under `key`, storing it when none exists. A mismatch means an
/// exact metric differed between two runs of the same code. The file is
/// keyed by a digest of the executable, so a rebuilt benchmark (other
/// code, other results) never compares against a stale one.
fn check_stored_digest(work: &Path, key: &str, value: u64, failures: &mut Vec<String>) {
    let exe = std::env::current_exe()
        .and_then(std::fs::read)
        .expect("executable is readable");
    let build = digest(&exe);
    let path = work.join(format!("digest-{key}-{build:016x}.txt"));
    let line = format!("{value:016x}");
    match std::fs::read_to_string(&path) {
        Ok(stored) if stored.trim() == line => {}
        Ok(stored) => failures.push(format!(
            "determinism: digest {line} differs from {} stored by an earlier run",
            stored.trim()
        )),
        Err(_) => std::fs::write(&path, &line).expect("work directory is writable"),
    }
}

/// Runs a block of set-ups, appends their times to `samples` and returns
/// the last one.
fn setups(w: Workload, tg_seed: u64, samples: &mut Vec<SetupTimes>) -> Setup {
    let mut last = None;
    for _ in 0..SETUP_BLOCK {
        let (s, t) = workload::setup(w, tg_seed);
        samples.push(t);
        last = Some(s);
    }
    last.expect("at least one set-up")
}

/// The checks and measurements every run makes on the final campaign.
struct Checked {
    replay: gate::Replay,
    grade: gate::Grade,
    prover: gate::ProverPass,
}

fn check_outputs(s: &Setup, exec: &Execution, seed: u64, log: Option<(&SpanLog, u32)>) -> Checked {
    fn within<T>(log: Option<(&SpanLog, u32)>, name: &'static str, f: impl FnOnce() -> T) -> T {
        match log {
            Some((log, parent)) => log.span(name, parent, |_| f()),
            None => f(),
        }
    }
    let model = s.model.as_ref();
    let records = &exec.last().campaign.records;
    let mut rng = SplitMix64::seed_from_u64(seed);
    Checked {
        replay: within(log, "replay", || {
            gate::replay(model, &s.schedule, records, &mut rng)
        }),
        grade: within(log, "grade", || {
            gate::grade(model, &s.schedule, &s.errors, records, &mut rng)
        }),
        prover: within(log, "prover", || gate::prover_pass(model, records)),
    }
}

/// Re-finalizes the workload from its completed checkpoint `reps` times;
/// every re-finalized report must equal the final one. Returns the
/// per-call seconds.
fn resume(
    args: &Args,
    s: &Setup,
    exec: &Execution,
    work: &Path,
    reps: usize,
    failures: &mut Vec<String>,
) -> Vec<f64> {
    let model = s.model.as_ref();
    let expected = exec.last().report.to_json_deterministic();
    workload::ensure_checkpoint(
        args.workload,
        model,
        args.tg_seed,
        work,
        &exec.last().campaign.records,
    );
    let config = workload::resume_config(args.workload, model, args.tg_seed, work);
    let mut seconds = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        let run = Campaign::run(model, &config, RunOptions::default());
        seconds.push(t0.elapsed().as_secs_f64());
        if run.report.to_json_deterministic() != expected {
            failures.push("resume: re-finalized report differs from the campaign's".to_string());
        }
    }
    seconds
}

/// The exact quality and work metrics of a finished campaign: every one
/// must repeat across runs of one build.
fn exact_metrics(exec: &Execution, checked: &Checked, errors: usize) -> Metrics {
    let mut m = Metrics::default();
    let report = &exec.last().report;
    let st = &report.stats;
    m.put("detected", st.detected as f64, "count");
    m.put(
        "decided_pct",
        pct(
            (st.detected + st.proven_untestable) as f64,
            st.errors as f64,
        ),
        "%",
    );
    m.put("testable_coverage_pct", st.testable_coverage_pct(), "%");
    m.put(
        "graded_coverage_pct",
        pct(checked.grade.covered as f64, errors as f64),
        "%",
    );
    let per_test = if st.test_set_size == 0 {
        0.0
    } else {
        st.detected as f64 / st.test_set_size as f64
    };
    m.put("errors_per_test", per_test, "ratio");
    m.put("avg_test_length", st.avg_length, "instructions");
    m.put(
        "verified_pct",
        pct(
            checked.replay.verified as f64,
            checked.replay.detected as f64,
        ),
        "%",
    );
    m.put("work_units", work_units(report) as f64, "count");
    m
}

fn run_untraced(args: &Args, work: &Path, failures: &mut Vec<String>) -> (Metrics, usize) {
    let w = args.workload;
    // Every wall clock is rescaled by the reference-kernel blocks taken
    // right around it (see `calib.rs`). Set-up is sampled in a block
    // after each kernel block, so that its median covers the whole run
    // rather than one moment of it.
    let mut reference = calib::Reference::default();
    let mut setup_s = Vec::new();
    let mut setup_wall = Vec::new();
    let mut setup_block = |reference: &mut calib::Reference| {
        let block = reference.sample();
        let mut samples = Vec::new();
        let s = setups(w, args.tg_seed, &mut samples);
        for t in samples {
            setup_wall.push(t.total());
            setup_s.push(reference.at(block, t.total()));
        }
        s
    };
    let mut s = setup_block(&mut reference);
    let mut campaign_s = Vec::new();
    let mut campaign_wall = Vec::new();
    let mut first_key: Option<String> = None;
    let mut last = None;
    while campaign_wall.is_empty() || campaign_wall.iter().sum::<f64>() < args.seconds {
        let exec = workload::execute(w, &s, args.tg_seed, work, None);
        let key = exact_key(&exec.last().report);
        match &first_key {
            None => first_key = Some(key),
            Some(k) if *k != key => {
                failures.push("determinism: two campaigns of this run differ".to_string())
            }
            Some(_) => {}
        }
        s = setup_block(&mut reference);
        campaign_wall.push(exec.seconds());
        campaign_s.push(reference.between(campaign_s.len(), exec.seconds()));
        last = Some(exec);
    }
    let exec = last.expect("at least one campaign");
    let checked = check_outputs(&s, &exec, args.seed, None);
    resume(args, &s, &exec, work, 1, failures);

    eprintln!(
        "{}: wall clock {} s per campaign ({} run), {} s per set-up ({} run); \
         reference kernel {} s",
        w.name(),
        median(&campaign_wall),
        campaign_wall.len(),
        median(&setup_wall),
        setup_wall.len(),
        reference.seconds()
    );
    let mut m = Metrics::default();
    m.put("campaign_s", median(&campaign_s), "s");
    m.put("setup_s", median(&setup_s), "s");
    m.put("peak_rss_mb", peak_rss_mib(), "MiB");
    let exact = exact_metrics(&exec, &checked, s.errors.len());
    finish_checks(args, work, &exec, &checked, &exact, failures);
    m.0.extend(exact.0);
    (m, s.errors.len())
}

/// Gate failures and the cross-run determinism digest over the report
/// and every exact metric.
fn finish_checks(
    args: &Args,
    work: &Path,
    exec: &Execution,
    checked: &Checked,
    exact: &Metrics,
    failures: &mut Vec<String>,
) {
    failures.extend_from_slice(&checked.replay.failures);
    failures.extend_from_slice(&checked.grade.failures);
    failures.extend_from_slice(&checked.prover.failures);
    let mut key = exact_key(&exec.last().report);
    for &(name, value, _) in &exact.0 {
        let _ = write!(key, " {name}={value}");
    }
    let d = digest(&key);
    eprintln!("{}: exact digest {d:016x}", args.workload.name());
    check_stored_digest(
        work,
        &format!("{}-{}", args.workload.name(), args.tg_seed),
        d,
        failures,
    );
}

fn run_traced(args: &Args, work: &Path, failures: &mut Vec<String>) -> (Metrics, usize) {
    let w = args.workload;
    let log = SpanLog::new();
    let probe = LayerProbe::new(&log);
    let mut reference = calib::Reference::default();
    reference.sample();
    let mut setup_samples = Vec::new();
    let s = log.span("setup", ROOT, |_| {
        setups(w, args.tg_seed, &mut setup_samples)
    });
    let baseline = log.span("baseline", ROOT, |_| {
        workload::execute(w, &s, args.tg_seed, work, None)
    });
    reference.sample();
    let traced = log.span("traced", ROOT, |id| {
        let tracing = Tracing {
            log: &log,
            probe: &probe,
            parent: id,
        };
        workload::execute(w, &s, args.tg_seed, work, Some(&tracing))
    });
    reference.sample();
    if exact_key(&baseline.last().report) != exact_key(&traced.last().report) {
        failures.push("determinism: the traced campaign differs from the untraced one".to_string());
    }
    let checked = check_outputs(&s, &traced, args.seed, Some((&log, ROOT)));
    let resume_s = log.span("resume", ROOT, |_| {
        resume(args, &s, &traced, work, RESUME_REPS, failures)
    });
    let ckpt = workload::checkpoint_path(w, work);
    let fingerprint = Campaign::checkpoint_fingerprint(
        s.model.as_ref(),
        &workload::resume_config(w, s.model.as_ref(), args.tg_seed, work).normalized(),
    );
    let t0 = Instant::now();
    let opened = log.span("checkpoint.open", ROOT, |_| {
        CheckpointLog::open(&ckpt, &fingerprint)
    });
    let open_s = t0.elapsed().as_secs_f64();
    let replayed = match opened {
        Ok(l) => l.resumed(),
        Err(e) => {
            failures.push(format!("checkpoint: reopening failed: {e}"));
            0
        }
    };
    let ckpt_text = std::fs::read_to_string(&ckpt).unwrap_or_default();

    let report = &traced.last().report;
    let c = &report.counters;
    let count = |name: &str| c.count(name) as f64;
    let mut m = Metrics::default();
    let med = |f: fn(&SetupTimes) -> f64| {
        let v: Vec<f64> = setup_samples.iter().map(f).collect();
        median(&v) * 1e3
    };
    m.put("setup.build_model_ms", med(|t| t.build_model), "ms");
    m.put("setup.schedule_ms", med(|t| t.schedule), "ms");
    m.put("errors.enumerate_ms", med(|t| t.enumerate), "ms");
    m.put("errors.collapse_ms", med(|t| t.collapse), "ms");
    m.put("errors.count", s.errors.len() as f64, "count");
    m.put("errors.classes", s.classes as f64, "count");
    let redundant = s
        .errors
        .iter()
        .filter(|e| hltg::errors::is_structurally_redundant(s.model.design(), e))
        .count();
    m.put("errors.redundant", redundant as f64, "count");

    let dptrace_s = log.total("dptrace");
    let ctrljust_s = log.total("ctrljust");
    let dprelax_s = log.total("dprelax");
    m.put("dptrace.s", dptrace_s, "s");
    m.put("dptrace.calls", count("dptrace_calls"), "count");
    m.put("dptrace.steps", count("dptrace_steps"), "count");
    m.put("ctrljust.s", ctrljust_s, "s");
    m.put("ctrljust.calls", count("ctrljust_calls"), "count");
    m.put(
        "ctrljust.implications",
        count("ctrljust_implications"),
        "count",
    );
    m.put("ctrljust.decisions", count("ctrljust_decisions"), "count");
    m.put("ctrljust.backtracks", count("ctrljust_backtracks"), "count");
    let hits = count("ctrljust_memo_hits");
    m.put(
        "ctrljust.memo_hit_pct",
        pct(hits, hits + count("ctrljust_memo_misses")),
        "%",
    );
    m.put("dprelax.s", dprelax_s, "s");
    m.put("dprelax.calls", count("dprelax_calls"), "count");
    let iterations = count("dprelax_iterations");
    m.put("dprelax.iterations", iterations, "count");
    m.put(
        "dprelax.perturbations",
        count("dprelax_perturbations"),
        "count",
    );
    m.put(
        "dprelax.us_per_iteration",
        if iterations == 0.0 {
            0.0
        } else {
            dprelax_s * 1e6 / iterations
        },
        "us",
    );

    let error_s = log.total("error");
    let tg_self = error_s - dptrace_s - ctrljust_s - dprelax_s;
    let legs_s: f64 = log
        .spans()
        .iter()
        .filter(|sp| sp.name.starts_with("campaign"))
        .map(trace::Span::seconds)
        .sum();
    let campaign_self = legs_s - error_s;
    for (name, v) in [("tg.self_s", tg_self), ("campaign.self_s", campaign_self)] {
        if v < -SELF_TIME_EPSILON_S {
            failures.push(format!(
                "trace: residual {name} = {v} s is below -{SELF_TIME_EPSILON_S} s"
            ));
        }
    }
    m.put("tg.self_s", tg_self, "s");
    let variants = count("variants");
    m.put("tg.variants", variants, "count");
    m.put("tg.refinements", count("refinements"), "count");
    m.put(
        "tg.tests_per_variant_pct",
        pct(count("tests_generated"), variants),
        "%",
    );

    let p = &checked.prover;
    m.put("prover.calls", p.calls as f64, "count");
    m.put("prover.proofs", p.proofs as f64, "count");
    m.put(
        "prover.proof_pct",
        pct(p.proofs as f64, p.calls as f64),
        "%",
    );
    m.put("prover.implications", p.implications as f64, "count");
    m.put(
        "prover.ms_per_call",
        if p.calls == 0 {
            0.0
        } else {
            p.prove_seconds * 1e3 / p.calls as f64
        },
        "ms",
    );
    m.put("prover.check_ms", p.check_seconds * 1e3, "ms");

    let r = &checked.replay;
    m.put("sim.cycles", r.cycles as f64, "count");
    m.put("sim.cycles_per_s", r.cycles as f64 / r.seconds, "1/s");
    let g = &checked.grade;
    m.put("screen.passes", g.passes as f64, "count");
    m.put("screen.lanes", g.lanes as f64, "count");
    m.put("screen.lanes_per_s", g.lanes as f64 / g.seconds, "1/s");
    m.put("screen.program_lanes", count("packed_lanes"), "count");
    m.put("sim_cache.good_runs", count("sim_cache_good_runs"), "count");

    let entries = ckpt_text
        .lines()
        .filter(|l| !l.contains("fingerprint"))
        .count();
    m.put("checkpoint.entries", entries as f64, "count");
    m.put("checkpoint.bytes", ckpt_text.len() as f64, "B");
    m.put("checkpoint.open_ms", open_s * 1e3, "ms");
    m.put("checkpoint.replayed", replayed as f64, "count");

    let timeline = traced.legs.iter().find_map(|l| l.run.metrics.as_ref());
    m.put(
        "flight.records",
        timeline.map_or(0, |t| t.recs.len()) as f64,
        "count",
    );
    m.put(
        "flight.bytes",
        timeline.map_or(0, |t| t.to_jsonl_deterministic().len()) as f64,
        "B",
    );
    m.put("campaign.self_s", campaign_self, "s");
    m.put(
        "campaign.screened",
        report.stats.detected_by_simulation as f64,
        "count",
    );
    m.put("campaign.resume_ms", median(&resume_s) * 1e3, "ms");
    let verdict_ms: Vec<f64> = baseline
        .last()
        .campaign
        .records
        .iter()
        .map(|r| r.seconds * 1e3)
        .collect();
    m.put("campaign.verdict_n", verdict_ms.len() as f64, "count");
    m.put("campaign.verdict_p50_ms", quantile(&verdict_ms, 0.5), "ms");
    m.put("campaign.verdict_p90_ms", quantile(&verdict_ms, 0.9), "ms");
    m.put("campaign.untraced_s", baseline.seconds(), "s");
    m.put("campaign.traced_s", traced.seconds(), "s");
    m.put("host.reference_ms", reference.seconds() * 1e3, "ms");
    m.put(
        "trace.overhead_pct",
        pct(traced.seconds() - baseline.seconds(), baseline.seconds()),
        "%",
    );

    let exact = exact_metrics(&traced, &checked, s.errors.len());
    finish_checks(args, work, &traced, &checked, &exact, failures);
    let dump = work.join(format!("spans-{}.jsonl", w.name()));
    std::fs::write(&dump, log.to_jsonl()).expect("work directory is writable");
    eprintln!(
        "{}: {} spans written to {}",
        w.name(),
        log.spans().len(),
        dump.display()
    );
    (m, s.errors.len())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    hltg::register_backends();
    let work = work_dir();
    let mut failures = Vec::new();
    let (metrics, attempted) = if args.trace {
        run_traced(&args, &work, &mut failures)
    } else {
        run_untraced(&args, &work, &mut failures)
    };
    for f in &failures {
        eprintln!("FAILED {f}");
    }
    let mut json = String::new();
    for (i, &(name, value, unit)) in metrics.0.iter().enumerate() {
        println!("{name:<28} {value:>20} {unit}");
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    let correct = failures.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        failures.len()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
