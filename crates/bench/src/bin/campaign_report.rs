//! Renders coverage analytics from a campaign metrics timeline (the
//! JSONL written by `table1 --metrics-out` / `ext_error_models
//! --metrics-out`; see DESIGN.md §Observability v2): the per-stage ×
//! per-error-class detection matrix, the detection-latency histogram,
//! per-test efficiency (errors covered per kept test) and the coverage
//! timeline.
//!
//! Usage:
//!
//! ```text
//! campaign_report <metrics.jsonl>            # markdown report
//! campaign_report --tsv <metrics.jsonl>      # detection matrix as TSV
//! campaign_report --check <metrics.jsonl>    # validate, exit non-zero on error
//! ```
//!
//! `--check` validates instead of rendering: every line must parse and
//! carry the schema fields for its event kind, the summary's detection
//! matrix must equal one recomputed from the `rec` lines, the summary
//! totals must equal the per-record tallies, and the TSV rendering must
//! round-trip (parse back to the same matrix). Exits non-zero on the
//! first violation — the metrics smoke step of `scripts/check.sh`.

use hltg_core::jsonv::{self, Value};
use std::collections::BTreeMap;

const PHASES: [&str; 3] = ["dptrace", "ctrljust", "dprelax"];
/// The metrics-stream schema this tool reads. Version 2 dropped the
/// `redundant` keys: structural redundancy is a `proven_untestable`
/// record whose reason is `constant_line`.
const SCHEMA_VERSION: u64 = 2;
/// Proof kinds, as they appear in a proven record's `reason`.
const PROOF_KINDS: [&str; 3] = ["constant_line", "no_propagation_path", "ctrl_refuted"];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let check = args.iter().any(|a| a == "--check");
    let tsv = args.iter().any(|a| a == "--tsv");
    let path = args.iter().find(|a| !a.starts_with("--")).cloned();
    let Some(path) = path else {
        eprintln!("usage: campaign_report [--check|--tsv] <metrics.jsonl>");
        std::process::exit(2);
    };
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(1);
        }
    };
    let timeline = match parse_metrics(&text) {
        Ok(t) => t,
        Err(msg) => {
            eprintln!("{path}: {msg}");
            std::process::exit(1);
        }
    };
    if check {
        if let Err(msg) = cross_check(&timeline) {
            eprintln!("{path}: {msg}");
            std::process::exit(1);
        }
        println!(
            "ok: {} metric records, {} snapshots, {} matrix cells validated",
            timeline.recs.len(),
            timeline.snaps.len(),
            matrix_of(&timeline.summary).len()
        );
        return;
    }
    if tsv {
        print!("{}", render_tsv(&timeline));
        return;
    }
    render_markdown(&timeline);
}

struct Timeline {
    meta: Value,
    recs: Vec<Value>,
    snaps: Vec<Value>,
    summary: Value,
}

/// Parses and schema-checks every line; returns the structured timeline.
fn parse_metrics(text: &str) -> Result<Timeline, String> {
    let mut meta = None;
    let mut recs = Vec::new();
    let mut snaps = Vec::new();
    let mut summary = None;
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = jsonv::parse(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        let kind = v
            .get_str("ev")
            .ok_or_else(|| format!("line {}: missing \"ev\"", lineno + 1))?
            .to_string();
        let req: &[&str] = match kind.as_str() {
            "meta" => &["version", "stream", "design", "errors", "sample_every"],
            "rec" => &[
                "error",
                "stage",
                "site",
                "class",
                "outcome",
                "reason",
                "by_simulation",
                "round",
                "detected_cycle",
                "test_length",
            ],
            "snap" => &[
                "at",
                "generated",
                "screened",
                "detected",
                "aborted",
                "proven_untestable",
                "retried",
                "coverage_pct",
                "decisions",
                "backtracks",
                "cost",
            ],
            "summary" => &[
                "errors",
                "generated",
                "screened",
                "detected",
                "aborted",
                "proven_untestable",
                "retried",
                "coverage_pct",
                "test_set_size",
                "matrix",
                "latency_hist",
            ],
            other => return Err(format!("line {}: unknown event kind {other:?}", lineno + 1)),
        };
        for key in req {
            if v.get(key).is_none() {
                return Err(format!("line {}: {kind} event missing \"{key}\"", lineno + 1));
            }
        }
        match kind.as_str() {
            "meta" => meta = Some(v),
            "rec" => recs.push(v),
            "snap" => snaps.push(v),
            "summary" => summary = Some(v),
            _ => unreachable!(),
        }
    }
    let meta = meta.ok_or("no meta event")?;
    let summary = summary.ok_or("no summary event")?;
    if meta.get_str("stream") != Some("metrics") {
        return Err("meta event is not a metrics stream".into());
    }
    if meta.get_u64("version") != Some(SCHEMA_VERSION) {
        return Err(format!(
            "metrics schema version {:?}, this tool reads version {SCHEMA_VERSION}",
            meta.get_u64("version")
        ));
    }
    Ok(Timeline {
        meta,
        recs,
        snaps,
        summary,
    })
}

/// The summary's detection matrix as `(stage, class) -> (errors, detected)`.
fn matrix_of(summary: &Value) -> BTreeMap<(u64, String), (u64, u64)> {
    let mut out = BTreeMap::new();
    if let Some(cells) = summary.get("matrix").and_then(Value::as_arr) {
        for c in cells {
            let (Some(stage), Some(class), Some(errors), Some(detected)) = (
                c.get_u64("stage"),
                c.get_str("class"),
                c.get_u64("errors"),
                c.get_u64("detected"),
            ) else {
                continue;
            };
            out.insert((stage, class.to_string()), (errors, detected));
        }
    }
    out
}

/// Recomputes the detection matrix from the `rec` lines.
fn matrix_from_recs(recs: &[Value]) -> BTreeMap<(u64, String), (u64, u64)> {
    let mut out: BTreeMap<(u64, String), (u64, u64)> = BTreeMap::new();
    for r in recs {
        let (Some(stage), Some(class)) = (r.get_u64("stage"), r.get_str("class")) else {
            continue;
        };
        let cell = out.entry((stage, class.to_string())).or_insert((0, 0));
        cell.0 += 1;
        cell.1 += u64::from(r.get_str("outcome") == Some("detected"));
    }
    out
}

/// The independent invariants one timeline must satisfy: the summary
/// aggregates equal tallies recomputed from the `rec` lines, the
/// snapshot clock is sane, and the TSV rendering round-trips.
fn cross_check(t: &Timeline) -> Result<(), String> {
    let errors = t.recs.len() as u64;
    if t.meta.get_u64("errors") != Some(errors) {
        return Err(format!(
            "meta claims {:?} errors, {} rec lines present",
            t.meta.get_u64("errors"),
            errors
        ));
    }
    let tally = |f: &dyn Fn(&Value) -> bool| t.recs.iter().filter(|r| f(r)).count() as u64;
    let detected = tally(&|r| r.get_str("outcome") == Some("detected"));
    let proven = tally(&|r| r.get_str("outcome") == Some("proven_untestable"));
    let generated = tally(&|r| r.get("by_simulation").and_then(Value::as_bool) == Some(false));
    let retried = tally(&|r| r.get_u64("round").unwrap_or(0) > 0);
    for (key, want) in [
        ("errors", errors),
        ("detected", detected),
        // Detected, aborted and proven-untestable partition the records.
        ("aborted", errors - detected - proven),
        ("proven_untestable", proven),
        ("generated", generated),
        ("screened", errors - generated),
        ("retried", retried),
    ] {
        if t.summary.get_u64(key) != Some(want) {
            return Err(format!(
                "summary \"{key}\" is {:?}, rec lines tally {want}",
                t.summary.get_u64(key)
            ));
        }
    }
    let claimed = matrix_of(&t.summary);
    let recomputed = matrix_from_recs(&t.recs);
    if claimed != recomputed {
        return Err(format!(
            "summary matrix disagrees with the rec lines: {claimed:?} vs {recomputed:?}"
        ));
    }
    // Every generated detection contributes one latency sample.
    let generated_detections = tally(&|r| {
        r.get_str("outcome") == Some("detected")
            && r.get("by_simulation").and_then(Value::as_bool) == Some(false)
    });
    let hist_total: u64 = t
        .summary
        .get("latency_hist")
        .and_then(Value::as_arr)
        .map(|buckets| {
            buckets
                .iter()
                .filter_map(Value::as_arr)
                .filter_map(|p| p.get(1).and_then(Value::as_u64))
                .sum()
        })
        .unwrap_or(0);
    if hist_total != generated_detections {
        return Err(format!(
            "latency histogram holds {hist_total} samples, \
             {generated_detections} generated detections recorded"
        ));
    }
    // Distinct covering tests among generated detections.
    let mut fps: Vec<&str> = t
        .recs
        .iter()
        .filter(|r| r.get("by_simulation").and_then(Value::as_bool) == Some(false))
        .filter_map(|r| r.get_str("test_fp"))
        .collect();
    fps.sort_unstable();
    fps.dedup();
    if t.summary.get_u64("test_set_size") != Some(fps.len() as u64) {
        return Err(format!(
            "summary test_set_size is {:?}, {} distinct test fingerprints recorded",
            t.summary.get_u64("test_set_size"),
            fps.len()
        ));
    }
    // The snapshot clock advances strictly and ends on the last record.
    let mut prev = 0;
    for s in &t.snaps {
        let at = s.get_u64("at").unwrap_or(0);
        if at <= prev {
            return Err(format!("snapshot clock not strictly increasing at {at}"));
        }
        prev = at;
    }
    if errors > 0 && prev != errors {
        return Err(format!(
            "last snapshot at {prev}, {errors} records accounted"
        ));
    }
    // The TSV rendering carries the same matrix back through a parse.
    let rendered = render_tsv(t);
    let mut round_trip = BTreeMap::new();
    for line in rendered.lines().skip(1) {
        let cols: Vec<&str> = line.split('\t').collect();
        if cols.len() != 4 || cols[0] == "total" {
            continue;
        }
        let (Ok(stage), Ok(errors), Ok(detected)) = (
            cols[0].parse::<u64>(),
            cols[2].parse::<u64>(),
            cols[3].parse::<u64>(),
        ) else {
            return Err(format!("TSV row failed to parse: {line:?}"));
        };
        round_trip.insert((stage, cols[1].to_string()), (errors, detected));
    }
    if round_trip != recomputed {
        return Err("TSV rendering does not round-trip the matrix".into());
    }
    Ok(())
}

/// The detection matrix as TSV: `stage class errors detected`, one cell
/// per row, plus a trailing `total` row.
fn render_tsv(t: &Timeline) -> String {
    let matrix = matrix_of(&t.summary);
    let mut out = String::from("stage\tclass\terrors\tdetected\n");
    let (mut total_e, mut total_d) = (0, 0);
    for ((stage, class), (errors, detected)) in &matrix {
        out.push_str(&format!("{stage}\t{class}\t{errors}\t{detected}\n"));
        total_e += errors;
        total_d += detected;
    }
    out.push_str(&format!("total\t*\t{total_e}\t{total_d}\n"));
    out
}

/// Lower-bound quantile over sparse `[lower_bound, count]` histogram
/// buckets, as emitted by `LogHistogram::to_json`.
fn hist_quantile(buckets: &[Value], q: f64) -> u64 {
    let total: u64 = buckets
        .iter()
        .filter_map(Value::as_arr)
        .filter_map(|p| p.get(1).and_then(Value::as_u64))
        .sum();
    if total == 0 {
        return 0;
    }
    let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
    let mut seen = 0u64;
    for b in buckets {
        let Some(pair) = b.as_arr() else { continue };
        let (Some(lo), Some(n)) = (
            pair.first().and_then(Value::as_u64),
            pair.get(1).and_then(Value::as_u64),
        ) else {
            continue;
        };
        seen += n;
        if seen >= rank {
            return lo;
        }
    }
    0
}

fn render_markdown(t: &Timeline) {
    let design = t.meta.get_str("design").unwrap_or("?");
    let errors = t.summary.get_u64("errors").unwrap_or(0);
    let detected = t.summary.get_u64("detected").unwrap_or(0);
    let generated = t.summary.get_u64("generated").unwrap_or(0);
    let screened = t.summary.get_u64("screened").unwrap_or(0);
    let retried = t.summary.get_u64("retried").unwrap_or(0);
    let proven = t.summary.get_u64("proven_untestable").unwrap_or(0);
    println!("# Campaign metrics: {design}");
    println!();
    println!(
        "{errors} errors — {detected} detected ({:.1}%), \
         {generated} generated, {screened} screened by simulation, \
         {retried} recovered by retry, {} distinct tests kept.",
        t.summary.get_f64("coverage_pct").unwrap_or(0.0),
        t.summary.get_u64("test_set_size").unwrap_or(0),
    );
    if proven > 0 {
        let by_kind: Vec<String> = PROOF_KINDS
            .iter()
            .map(|kind| {
                let n = t
                    .recs
                    .iter()
                    .filter(|r| {
                        r.get_str("outcome") == Some("proven_untestable")
                            && r.get_str("reason") == Some(kind)
                    })
                    .count();
                format!("{n} {kind}")
            })
            .collect();
        println!();
        println!(
            "{proven} errors proven untestable ({}): each carries a checked \
             certificate and leaves the testable-coverage denominator.",
            by_kind.join(", ")
        );
    }

    // --- Detection matrix -----------------------------------------------
    println!();
    println!("## Detection matrix (stage × error class)");
    println!();
    let matrix = matrix_of(&t.summary);
    let stages: Vec<u64> = {
        let mut s: Vec<u64> = matrix.keys().map(|(stage, _)| *stage).collect();
        s.sort_unstable();
        s.dedup();
        s
    };
    println!("| stage | sa0 | sa1 | total | coverage |");
    println!("|---|---|---|---|---|");
    let cell = |stage: u64, class: &str| -> (u64, u64) {
        matrix
            .get(&(stage, class.to_string()))
            .copied()
            .unwrap_or((0, 0))
    };
    for stage in &stages {
        let (e0, d0) = cell(*stage, "sa0");
        let (e1, d1) = cell(*stage, "sa1");
        let (e, d) = (e0 + e1, d0 + d1);
        println!(
            "| {stage} | {d0}/{e0} | {d1}/{e1} | {d}/{e} | {:.1}% |",
            100.0 * d as f64 / e.max(1) as f64
        );
    }
    println!(
        "| **all** | — | — | {detected}/{errors} | {:.1}% |",
        100.0 * detected as f64 / errors.max(1) as f64
    );

    // --- Detection latency ----------------------------------------------
    println!();
    println!("## Detection latency (cycles to first divergence)");
    println!();
    match t.summary.get("latency_hist").and_then(Value::as_arr) {
        Some(buckets) if !buckets.is_empty() => {
            println!(
                "p50 ≥ {}, p90 ≥ {}, p99 ≥ {} cycles (log2 lower bounds).",
                hist_quantile(buckets, 0.50),
                hist_quantile(buckets, 0.90),
                hist_quantile(buckets, 0.99)
            );
            println!();
            let max: u64 = buckets
                .iter()
                .filter_map(Value::as_arr)
                .filter_map(|p| p.get(1).and_then(Value::as_u64))
                .max()
                .unwrap_or(1);
            println!("| cycles ≥ | detections | |");
            println!("|---|---|---|");
            for b in buckets {
                let Some(pair) = b.as_arr() else { continue };
                let (Some(lo), Some(n)) = (
                    pair.first().and_then(Value::as_u64),
                    pair.get(1).and_then(Value::as_u64),
                ) else {
                    continue;
                };
                let bar = ((n * 24) / max.max(1)) as usize;
                println!("| {lo} | {n} | {} |", "#".repeat(bar.max(1)));
            }
        }
        _ => println!("(no generated detections)"),
    }

    // --- Per-test efficiency --------------------------------------------
    println!();
    println!("## Per-test efficiency (errors covered per kept test)");
    println!();
    let mut by_test: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
    for r in &t.recs {
        let Some(fp) = r.get_str("test_fp") else { continue };
        let entry = by_test.entry(fp).or_insert((0, 0, 0));
        entry.0 += 1;
        if r.get("by_simulation").and_then(Value::as_bool) == Some(true) {
            entry.1 += 1;
        }
        entry.2 = entry.2.max(r.get_u64("test_length").unwrap_or(0));
    }
    let mut ranked: Vec<(&str, (u64, u64, u64))> =
        by_test.iter().map(|(k, v)| (*k, *v)).collect();
    ranked.sort_by(|a, b| b.1 .0.cmp(&a.1 .0).then(a.0.cmp(b.0)));
    if ranked.is_empty() {
        println!("(no detections)");
    } else {
        println!("| test | errors covered | by simulation | length |");
        println!("|---|---|---|---|");
        for (fp, (covered, screened, length)) in ranked.iter().take(10) {
            println!("| `{fp}` | {covered} | {screened} | {length} |");
        }
        if ranked.len() > 10 {
            println!();
            println!("... and {} more tests.", ranked.len() - 10);
        }
    }

    // --- Coverage timeline ----------------------------------------------
    println!();
    println!("## Coverage timeline");
    println!();
    println!("| at | detected | screened | coverage | decisions | backtracks | cost ({}) |",
        PHASES.join("/"));
    println!("|---|---|---|---|---|---|---|");
    for s in &t.snaps {
        let cost = s.get("cost");
        let costs: Vec<String> = PHASES
            .iter()
            .map(|p| {
                cost.and_then(|c| c.get_u64(p))
                    .map_or_else(|| "?".to_string(), |v| v.to_string())
            })
            .collect();
        println!(
            "| {} | {} | {} | {:.1}% | {} | {} | {} |",
            s.get_u64("at").unwrap_or(0),
            s.get_u64("detected").unwrap_or(0),
            s.get_u64("screened").unwrap_or(0),
            s.get_f64("coverage_pct").unwrap_or(0.0),
            s.get_u64("decisions").unwrap_or(0),
            s.get_u64("backtracks").unwrap_or(0),
            costs.join("/")
        );
    }
}
