//! Renders a text profile from a structured campaign trace (the JSONL
//! written by `table1 --trace-out` / `ext_error_models --trace-out`):
//! per-phase time breakdown, the top-10 slowest errors, abort
//! post-mortems (which phase exhausted the budget), and the
//! CTRLJUST backtrack-depth distribution.
//!
//! Usage:
//!
//! ```text
//! profile_report <trace.jsonl>
//! profile_report --check <trace.jsonl> [--report <report.json>]
//! ```
//!
//! `--check` validates instead of rendering: every JSONL line must parse
//! and carry the schema fields for its event kind, and the optional
//! campaign report must parse with its aggregate fields present. Exits
//! non-zero on the first violation — the offline smoke step of
//! `scripts/check.sh`.

use hltg_core::jsonv::{self, Value};

const PHASES: [&str; 3] = ["dptrace", "ctrljust", "dprelax"];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let check = args.iter().any(|a| a == "--check");
    let report_path = args
        .iter()
        .position(|a| a == "--report")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let report_pos = args.iter().position(|a| a == "--report");
    let trace_path = args
        .iter()
        .enumerate()
        .filter(|(i, a)| !a.starts_with("--") && Some(i.wrapping_sub(1)) != report_pos)
        .map(|(_, a)| a.clone())
        .next();
    let Some(trace_path) = trace_path else {
        eprintln!("usage: profile_report <trace.jsonl> | --check <trace.jsonl> [--report <report.json>]");
        std::process::exit(2);
    };

    let text = match std::fs::read_to_string(&trace_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {trace_path}: {e}");
            std::process::exit(1);
        }
    };
    let events = match parse_trace(&text) {
        Ok(evs) => evs,
        Err(msg) => {
            eprintln!("{trace_path}: {msg}");
            std::process::exit(1);
        }
    };

    if check {
        if let Some(path) = report_path {
            if let Err(msg) = check_report(&path) {
                eprintln!("{path}: {msg}");
                std::process::exit(1);
            }
        }
        let spans = events.iter().filter(|e| e.kind == "span").count();
        println!(
            "ok: {} trace events ({spans} spans) validated",
            events.len()
        );
        return;
    }

    render(&events);
}

struct Event {
    kind: String,
    value: Value,
}

/// Parses and schema-checks every line; returns the event list.
fn parse_trace(text: &str) -> Result<Vec<Event>, String> {
    let mut events = Vec::new();
    let mut kinds = (false, false, false); // meta, span-or-none, summary
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = jsonv::parse(line)
            .map_err(|e| format!("line {}: {e}", lineno + 1))?;
        let kind = v
            .get_str("ev")
            .ok_or_else(|| format!("line {}: missing \"ev\"", lineno + 1))?
            .to_string();
        let req: &[&str] = match kind.as_str() {
            "meta" => {
                kinds.0 = true;
                &["version", "errors", "spans"]
            }
            "span" => {
                kinds.1 = true;
                &[
                    "error",
                    "stage",
                    "site",
                    "outcome",
                    "reason",
                    "failed_phase",
                    "variants",
                    "refinements",
                    "decisions",
                    "backtracks",
                    "max_backtrack_depth",
                    "relax_iterations",
                    "perturbations",
                    "test_length",
                    "detected_cycle",
                    "phases",
                ]
            }
            "hist" => &["phase", "metric", "buckets"],
            "summary" => {
                kinds.2 = true;
                &[
                    "errors",
                    "spans",
                    "detected",
                    "aborted",
                    "proven_untestable",
                    "screened",
                ]
            }
            other => return Err(format!("line {}: unknown event kind {other:?}", lineno + 1)),
        };
        for key in req {
            if v.get(key).is_none() {
                return Err(format!(
                    "line {}: {kind} event missing \"{key}\"",
                    lineno + 1
                ));
            }
        }
        events.push(Event { kind, value: v });
    }
    if !kinds.0 {
        return Err("no meta event".into());
    }
    if !kinds.2 {
        return Err("no summary event".into());
    }
    Ok(events)
}

/// Validates a `table1 --json` / `CampaignReport::to_json` document.
fn check_report(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let v = jsonv::parse(text.trim()).map_err(|e| e.to_string())?;
    for key in [
        "errors",
        "detected",
        "aborted",
        "coverage_pct",
        "counters",
        "phases",
    ] {
        if v.get(key).is_none() {
            return Err(format!("campaign report missing \"{key}\""));
        }
    }
    println!("ok: campaign report validated");
    Ok(())
}

fn fmt_ns(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.0}ns")
    } else if ns < 1e6 {
        format!("{:.1}µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.1}ms", ns / 1e6)
    } else {
        format!("{:.2}s", ns / 1e9)
    }
}

/// Lower-bound quantile over sparse `[lower_bound, count]` histogram
/// buckets (as emitted in `hist` events).
fn hist_quantile(buckets: &[Value], q: f64) -> u64 {
    let total: u64 = buckets
        .iter()
        .filter_map(|b| b.as_arr())
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

fn render(events: &[Event]) {
    let spans: Vec<&Value> = events
        .iter()
        .filter(|e| e.kind == "span")
        .map(|e| &e.value)
        .collect();
    let summary = events
        .iter()
        .find(|e| e.kind == "summary")
        .map(|e| &e.value);
    let hist = |phase: &str, metric: &str| -> Option<&[Value]> {
        events
            .iter()
            .filter(|e| e.kind == "hist")
            .map(|e| &e.value)
            .find(|v| v.get_str("phase") == Some(phase) && v.get_str("metric") == Some(metric))
            .and_then(|v| v.get("buckets"))
            .and_then(Value::as_arr)
    };
    let timed = spans.iter().any(|s| s.get("ns").is_some());

    if let Some(s) = summary {
        println!(
            "campaign: {} errors, {} generated spans, {} detected, {} aborted, \
             {} proven untestable before search, {} screened by simulation",
            s.get_u64("errors").unwrap_or(0),
            s.get_u64("spans").unwrap_or(0),
            s.get_u64("detected").unwrap_or(0),
            s.get_u64("aborted").unwrap_or(0),
            s.get_u64("proven_untestable").unwrap_or(0),
            s.get_u64("screened").unwrap_or(0),
        );
    }

    // --- Per-phase breakdown --------------------------------------------
    println!("\nper-phase breakdown:");
    let metric = if timed { "ns" } else { "cost" };
    let phase_total = |p: &str| -> f64 {
        spans
            .iter()
            .filter_map(|s| s.get("phases").and_then(|v| v.get(p)))
            .filter_map(|ph| ph.get_f64(metric))
            .sum()
    };
    let grand: f64 = PHASES.iter().map(|&p| phase_total(p)).sum();
    for &p in &PHASES {
        let mut calls = 0u64;
        let mut total = 0f64;
        for s in &spans {
            if let Some(ph) = s.get("phases").and_then(|v| v.get(p)) {
                calls += ph.get_u64("calls").unwrap_or(0);
                total += ph.get_f64(metric).unwrap_or(0.0);
            }
        }
        let p50 = hist(p, metric).map_or(0, |b| hist_quantile(b, 0.50));
        let p99 = hist(p, metric).map_or(0, |b| hist_quantile(b, 0.99));
        let share = if grand > 0.0 { 100.0 * total / grand } else { 0.0 };
        if timed {
            println!(
                "  {p:<9} {calls:>6} calls  total {:>9}  ({share:>5.1}%)  p50 {:>9}  p99 {:>9}",
                fmt_ns(total),
                fmt_ns(p50 as f64),
                fmt_ns(p99 as f64)
            );
        } else {
            println!(
                "  {p:<9} {calls:>6} calls  total cost {total:>10.0}  ({share:>5.1}%)  p50 {p50:>7}  p99 {p99:>7}"
            );
        }
    }

    // --- Top-10 slowest errors ------------------------------------------
    let weight = |s: &Value| -> f64 {
        if timed {
            s.get_f64("ns").unwrap_or(0.0)
        } else {
            PHASES
                .iter()
                .filter_map(|&p| s.get("phases").and_then(|v| v.get(p)))
                .filter_map(|ph| ph.get_f64("cost"))
                .sum()
        }
    };
    let mut ranked: Vec<&&Value> = spans.iter().collect();
    ranked.sort_by(|a, b| {
        weight(b)
            .partial_cmp(&weight(a))
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.get_u64("error").cmp(&b.get_u64("error")))
    });
    println!(
        "\ntop-10 slowest errors (by {}):",
        if timed { "wall-clock" } else { "total phase cost" }
    );
    println!(
        "  {:>5} {:<26} {:>9} {:>8} {:>6} {:>6} {:>6}  outcome",
        "error", "site", if timed { "time" } else { "cost" }, "variants", "dec", "btk", "iter"
    );
    for s in ranked.iter().take(10) {
        let w = weight(s);
        println!(
            "  {:>5} {:<26} {:>9} {:>8} {:>6} {:>6} {:>6}  {}",
            s.get_u64("error").unwrap_or(0),
            s.get_str("site").unwrap_or("?"),
            if timed {
                fmt_ns(w)
            } else {
                format!("{w:.0}")
            },
            s.get_u64("variants").unwrap_or(0),
            s.get_u64("decisions").unwrap_or(0),
            s.get_u64("backtracks").unwrap_or(0),
            s.get_u64("relax_iterations").unwrap_or(0),
            match s.get_str("outcome") {
                Some("detected") => "detected".to_string(),
                _ => format!("aborted:{}", s.get_str("reason").unwrap_or("?")),
            }
        );
    }

    // --- Abort post-mortems ---------------------------------------------
    let aborted: Vec<&&Value> = spans
        .iter()
        .filter(|s| s.get_str("outcome") == Some("aborted"))
        .collect();
    println!("\nabort post-mortems ({} aborted):", aborted.len());
    if aborted.is_empty() {
        println!("  (none)");
    }
    // "generate"/"campaign"/"unknown" are the isolation layers a panic or
    // step-budget abort can be attributed to (DESIGN.md §Resilience).
    for &phase in &[
        "dptrace", "ctrljust", "assembly", "dprelax", "generate", "campaign", "unknown",
    ] {
        let in_phase: Vec<&&&Value> = aborted
            .iter()
            .filter(|s| s.get_str("failed_phase") == Some(phase))
            .collect();
        if in_phase.is_empty() {
            continue;
        }
        println!("  budget exhausted in {phase}: {} errors", in_phase.len());
        for s in in_phase.iter().take(5) {
            println!(
                "    #{} {} — {} variants, {} backtracks, {} relax iterations",
                s.get_u64("error").unwrap_or(0),
                s.get_str("site").unwrap_or("?"),
                s.get_u64("variants").unwrap_or(0),
                s.get_u64("backtracks").unwrap_or(0),
                s.get_u64("relax_iterations").unwrap_or(0),
            );
        }
        if in_phase.len() > 5 {
            println!("    ... and {} more", in_phase.len() - 5);
        }
    }

    // --- Backtrack-depth distribution -----------------------------------
    println!("\nCTRLJUST backtrack-depth distribution (log2 buckets):");
    match hist("ctrljust", "backtrack_depth") {
        Some(buckets) if !buckets.is_empty() => {
            let max: u64 = buckets
                .iter()
                .filter_map(|b| b.as_arr())
                .filter_map(|p| p.get(1).and_then(Value::as_u64))
                .max()
                .unwrap_or(1);
            for b in buckets {
                let Some(pair) = b.as_arr() else { continue };
                let (Some(lo), Some(n)) = (
                    pair.first().and_then(Value::as_u64),
                    pair.get(1).and_then(Value::as_u64),
                ) else {
                    continue;
                };
                let bar = (n * 50 / max.max(1)) as usize;
                println!("  depth >= {lo:>5}: {n:>7} {}", "#".repeat(bar.max(1)));
            }
        }
        _ => println!("  (no backtracks recorded)"),
    }
}
