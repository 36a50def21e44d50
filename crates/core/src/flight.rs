//! Campaign flight recorder: a deterministic metrics timeline.
//!
//! [`FlightRecorder`] is a [`Probe`] that turns one campaign run into a
//! [`MetricsTimeline`]: one `rec` line per covered error (the coverage
//! analytics substrate — stage, error class, outcome, latency, the
//! fingerprint of the detecting test, and the engine work the generation
//! cost), `snap` lines sampled on a deterministic event-count clock, and a
//! `summary` carrying the per-stage × per-error-class detection matrix and
//! the detection-latency histogram the `campaign_report` bin renders.
//!
//! Determinism contract (same discipline as [`crate::trace::Tracer`]): the
//! timeline is assembled in [`FlightRecorder::finish`] from the campaign's
//! merged `ErrorRecord` list, which already replays sequential covering
//! semantics in enumeration order — so the *clock* is "errors completed in
//! enumeration order", never wall time or thread interleaving, and
//! [`MetricsTimeline::to_jsonl_deterministic`] is byte-for-byte identical
//! for any worker-thread count. Physically thread-dependent quantities —
//! wall-clock (`ns` keys) and the live counter samples (worker pre-screens
//! and per-worker memos fire on a thread-dependent schedule) — appear only
//! in the full [`MetricsTimeline::to_jsonl`] emission.
//!
//! JSONL schema (one object per line; `DESIGN.md` §6f documents examples):
//!
//! * `{"ev": "meta", "stream": "metrics", ...}` — one header line.
//! * `{"ev": "rec", ...}` — one line per enumerated error, in enumeration
//!   order. Generated errors (`"by_simulation": false`) carry an `"engine"`
//!   object with the work their generation cost; screened errors do not
//!   (no generation ran for them under sequential semantics).
//! * `{"ev": "snap", "at": n, ...}` — cumulative totals after every
//!   `sample_every` errors (and once at the end). Full emission adds
//!   `"ns"` and a `"counters"` object sampled live at the same event count.
//! * `{"ev": "summary", ...}` — totals, the `"matrix"` of
//!   `stage × class → errors/detected`, the detection-latency histogram
//!   and per-test efficiency aggregates.

use crate::campaign::{test_fingerprint, ErrorRecord};
use crate::instrument::{
    json_escape, json_f64, Counter, Phase, Probe, SpanEnd, COUNTERS, PHASES,
};
use crate::tg::Outcome;
use crate::trace::LogHistogram;
use hltg_errors::BusSslError;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

const N_PHASES: usize = PHASES.len();
const N_COUNTERS: usize = COUNTERS.len();
/// In-flight cell shards, sized like the tracer's: one worker owns an
/// error at a time, so the per-event lock is effectively uncontended.
const SHARDS: usize = 32;

/// Deterministic engine work accumulated while generating one error.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EngineWork {
    /// Path-selection variants attempted.
    pub variants: u64,
    /// Counterexample-guided STS refinements.
    pub refinements: u64,
    /// CTRLJUST decisions.
    pub decisions: u64,
    /// CTRLJUST backtracks.
    pub backtracks: u64,
    /// DPRELAX iterations.
    pub relax_iterations: u64,
    /// DPRELAX random-restart perturbations.
    pub perturbations: u64,
    /// Deterministic work units per phase, in [`PHASES`] order.
    pub cost: [u64; N_PHASES],
    /// Engine calls per phase, in [`PHASES`] order.
    pub calls: [u64; N_PHASES],
    /// Wall-clock from `error_begin` to `error_end` (thread- and
    /// machine-dependent; full emission only).
    pub wall_ns: u64,
}

/// In-flight per-error accumulation; becomes [`EngineWork`] at `error_end`.
#[derive(Debug)]
struct FlightCell {
    work: EngineWork,
    opened: Instant,
}

impl FlightCell {
    fn new() -> Self {
        FlightCell {
            work: EngineWork::default(),
            opened: Instant::now(),
        }
    }
}

/// One live counter sample, captured when the completion count crossed a
/// multiple of the sampling interval. Values race with in-flight workers
/// and are therefore excluded from the deterministic emission.
#[derive(Debug, Clone, PartialEq)]
pub struct LiveSample {
    /// Errors completed (generated + screened) when the sample was taken.
    pub at: usize,
    /// Wall-clock nanoseconds since the recorder was created.
    pub ns: u64,
    /// Counter values in [`COUNTERS`] order.
    pub counts: [u64; N_COUNTERS],
}

/// A [`Probe`] recording the metrics timeline of one campaign run.
///
/// Share one recorder across the campaign workers (it is `Sync`); after
/// the run, [`FlightRecorder::finish`] merges against the deterministic
/// `ErrorRecord` list into a [`MetricsTimeline`].
#[derive(Debug)]
pub struct FlightRecorder {
    sample_every: usize,
    shards: Vec<Mutex<HashMap<u64, FlightCell>>>,
    done: Mutex<Vec<(u64, EngineWork)>>,
    completed: AtomicUsize,
    counts: [AtomicU64; N_COUNTERS],
    live: Mutex<Vec<LiveSample>>,
    started: Instant,
}

impl FlightRecorder {
    /// A recorder sampling a snapshot every `sample_every` completed
    /// errors (clamped to at least 1).
    #[must_use]
    pub fn new(sample_every: usize) -> Self {
        FlightRecorder {
            sample_every: sample_every.max(1),
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            done: Mutex::new(Vec::new()),
            completed: AtomicUsize::new(0),
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            live: Mutex::new(Vec::new()),
            started: Instant::now(),
        }
    }

    fn with_cell(&self, id: u64, f: impl FnOnce(&mut FlightCell)) {
        let mut shard = self.shards[(id as usize) % SHARDS]
            .lock()
            .expect("flight shard lock");
        let cell = shard.entry(id).or_insert_with(FlightCell::new);
        f(cell);
    }

    /// Bumps the completion clock; on crossing a sampling boundary,
    /// captures the live counters (full-emission data only).
    fn tick(&self) {
        let done = self.completed.fetch_add(1, Ordering::Relaxed) + 1;
        if !done.is_multiple_of(self.sample_every) {
            return;
        }
        let mut counts = [0u64; N_COUNTERS];
        for (i, c) in self.counts.iter().enumerate() {
            counts[i] = c.load(Ordering::Relaxed);
        }
        self.live.lock().expect("flight live lock").push(LiveSample {
            at: done,
            ns: self.started.elapsed().as_nanos() as u64,
            counts,
        });
    }

    /// Closes the recorder against the campaign's merged record list
    /// (enumeration order), producing the deterministic timeline.
    #[must_use]
    pub fn finish(self, records: &[ErrorRecord], design: &str) -> MetricsTimeline {
        let mut by_id: HashMap<u64, EngineWork> = self
            .done
            .into_inner()
            .expect("flight done lock")
            .into_iter()
            .collect(); // later entries overwrite earlier: retries win
        let wall_ns = self.started.elapsed().as_nanos() as u64;
        let mut recs = Vec::with_capacity(records.len());
        for r in records {
            // Engine work joins only for generated records: a worker may
            // speculatively generate an error the sequential merge then
            // screens, and keeping that cell would differ by thread count.
            let engine = if r.by_simulation {
                None
            } else {
                by_id.remove(&u64::from(r.error.id.0))
            };
            recs.push(MetricRec::from_record(r, engine));
        }
        MetricsTimeline::assemble(
            design.to_string(),
            self.sample_every,
            recs,
            self.live.into_inner().expect("flight live lock"),
            wall_ns,
        )
    }
}

impl Probe for FlightRecorder {
    fn wants_events(&self) -> bool {
        true
    }

    fn add(&self, c: Counter, n: u64) {
        // Only feeds the live samples; Counter ordering mirrors COUNTERS.
        let idx = COUNTERS
            .iter()
            .position(|&k| k == c)
            .expect("counter is enumerated");
        self.counts[idx].fetch_add(n, Ordering::Relaxed);
    }

    fn error_begin(&self, error: &BusSslError) {
        let id = u64::from(error.id.0);
        let mut shard = self.shards[(id as usize) % SHARDS]
            .lock()
            .expect("flight shard lock");
        // Insert replaces: a regeneration (retry round, merge-pass replay
        // of a lost slot) restarts the cell, so the last generation wins —
        // matching the record the campaign merge keeps.
        shard.insert(id, FlightCell::new());
    }

    fn error_end(&self, id: u64, _end: SpanEnd) {
        let cell = {
            let mut shard = self.shards[(id as usize) % SHARDS]
                .lock()
                .expect("flight shard lock");
            shard.remove(&id).unwrap_or_else(FlightCell::new)
        };
        let mut work = cell.work;
        work.wall_ns = cell.opened.elapsed().as_nanos() as u64;
        self.done.lock().expect("flight done lock").push((id, work));
        self.tick();
    }

    fn error_screened(&self, _id: u64, _detected: bool) {
        self.tick();
    }

    fn variant_begin(&self, id: u64, variant: usize) {
        self.with_cell(id, |c| {
            c.work.variants = c.work.variants.max(variant as u64 + 1);
        });
    }

    fn phase_exit(&self, id: u64, p: Phase, cost: u64, _d: std::time::Duration) {
        self.with_cell(id, |c| {
            c.work.cost[p.index()] += cost;
            c.work.calls[p.index()] += 1;
        });
    }

    fn refinement(&self, id: u64, _frame: usize) {
        self.with_cell(id, |c| c.work.refinements += 1);
    }

    fn decision(&self, id: u64, _frame: usize, _value: bool) {
        self.with_cell(id, |c| c.work.decisions += 1);
    }

    fn backtrack(&self, id: u64, _frame: usize, _depth: usize) {
        self.with_cell(id, |c| c.work.backtracks += 1);
    }

    fn relax_step(&self, id: u64, _iteration: usize, _activated: bool) {
        self.with_cell(id, |c| c.work.relax_iterations += 1);
    }

    fn relax_perturb(&self, id: u64, _iteration: usize) {
        self.with_cell(id, |c| c.work.perturbations += 1);
    }
}

/// One error's line in the metrics timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricRec {
    /// Error id.
    pub id: u64,
    /// Pipe-stage index of the error site.
    pub stage: usize,
    /// Error site, `net_name[bit]:sa{0|1}`.
    pub site: String,
    /// Error class along the polarity axis: `sa0` or `sa1`.
    pub class: &'static str,
    /// `true` when a detecting test covers this error.
    pub detected: bool,
    /// `true` when the untestability prover certified no test exists.
    pub proven_untestable: bool,
    /// Abort-reason name (`""` when detected; the proof-kind name when
    /// proven untestable).
    pub reason: &'static str,
    /// Covered by simulating an earlier test instead of generation.
    pub by_simulation: bool,
    /// Retry round that produced the outcome (0 = first pass).
    pub round: u32,
    /// Cycle of first observable divergence (0 when aborted).
    pub detected_cycle: usize,
    /// Length of the covering test (0 when aborted).
    pub test_length: usize,
    /// FNV-1a fingerprint of the covering test (None when aborted).
    pub test_fp: Option<u64>,
    /// Wall-clock seconds the campaign charged to this error
    /// (thread-dependent; full emission only).
    pub seconds: f64,
    /// Engine work, present for generated records only.
    pub engine: Option<EngineWork>,
}

impl MetricRec {
    fn from_record(r: &ErrorRecord, engine: Option<EngineWork>) -> Self {
        let (detected, proven, reason, detected_cycle, test_length, test_fp) = match &r.outcome {
            Outcome::Detected(tc) => (
                true,
                false,
                "",
                tc.detected_cycle,
                tc.length,
                Some(test_fingerprint(tc)),
            ),
            Outcome::Aborted { reason, .. } => (false, false, reason.name(), 0, 0, None),
            Outcome::ProvenUntestable(proof) => (false, true, proof.kind.name(), 0, 0, None),
        };
        MetricRec {
            id: u64::from(r.error.id.0),
            stage: r.error.stage.index(),
            site: format!(
                "{}[{}]:sa{}",
                r.error.net_name,
                r.error.bit,
                u8::from(r.error.polarity == hltg_sim::Polarity::StuckAt1)
            ),
            class: if r.error.polarity == hltg_sim::Polarity::StuckAt1 {
                "sa1"
            } else {
                "sa0"
            },
            detected,
            proven_untestable: proven,
            reason,
            by_simulation: r.by_simulation,
            round: r.round,
            detected_cycle,
            test_length,
            test_fp,
            seconds: r.seconds,
            engine,
        }
    }
}

/// One deterministic snapshot of cumulative totals on the event-count
/// clock ("after `at` errors in enumeration order").
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricSnap {
    /// Errors accounted so far (the clock value).
    pub at: usize,
    /// Errors that ran dedicated generation.
    pub generated: usize,
    /// Errors covered by simulating an earlier test.
    pub screened: usize,
    /// Detections so far.
    pub detected: usize,
    /// Aborts so far (proven-untestable errors counted separately).
    pub aborted: usize,
    /// Prover-certified untestable errors so far.
    pub proven_untestable: usize,
    /// Records produced by a retry round (round > 0).
    pub retried: usize,
    /// Detected / accounted, in percent.
    pub coverage_pct: f64,
    /// Cumulative CTRLJUST decisions across generated errors.
    pub decisions: u64,
    /// Cumulative CTRLJUST backtracks across generated errors.
    pub backtracks: u64,
    /// Cumulative deterministic phase cost, in [`PHASES`] order.
    pub cost: [u64; N_PHASES],
    /// Live counter sample at the same clock value, when one was captured
    /// (thread-dependent; full emission only).
    pub live: Option<LiveSample>,
}

/// One cell of the per-stage × per-error-class detection matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatrixCell {
    /// Pipe-stage index.
    pub stage: usize,
    /// `sa0` or `sa1`.
    pub class: &'static str,
    /// Errors enumerated in this cell.
    pub errors: usize,
    /// Detections among them.
    pub detected: usize,
}

/// The merged, deterministic metrics result of one campaign run.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsTimeline {
    /// Design (backend) name.
    pub design: String,
    /// Snapshot sampling interval, in completed errors.
    pub sample_every: usize,
    /// One record per enumerated error, in enumeration order.
    pub recs: Vec<MetricRec>,
    /// Deterministic snapshots on the event-count clock.
    pub snaps: Vec<MetricSnap>,
    /// Detection matrix cells, ordered by (stage, class).
    pub matrix: Vec<MatrixCell>,
    /// Detection latency (cycles to first observable divergence) over
    /// generated detections.
    pub latency_hist: LogHistogram,
    /// Distinct covering tests among generated detections.
    pub test_set_size: usize,
    /// Total wall-clock nanoseconds (full emission only).
    pub wall_ns: u64,
}

impl MetricsTimeline {
    fn assemble(
        design: String,
        sample_every: usize,
        recs: Vec<MetricRec>,
        live: Vec<LiveSample>,
        wall_ns: u64,
    ) -> Self {
        let mut snaps = Vec::new();
        let mut cum = MetricSnap::default();
        let mut live_iter = live.into_iter().peekable();
        let mut matrix: BTreeMap<(usize, &'static str), (usize, usize)> = BTreeMap::new();
        let mut latency_hist = LogHistogram::new();
        let mut tests: BTreeMap<u64, usize> = BTreeMap::new();
        for (i, r) in recs.iter().enumerate() {
            cum.at = i + 1;
            if r.by_simulation {
                cum.screened += 1;
            } else {
                cum.generated += 1;
            }
            if r.detected {
                cum.detected += 1;
            } else if r.proven_untestable {
                cum.proven_untestable += 1;
            } else {
                cum.aborted += 1;
            }
            if r.round > 0 {
                cum.retried += 1;
            }
            if let Some(e) = &r.engine {
                cum.decisions += e.decisions;
                cum.backtracks += e.backtracks;
                for p in 0..N_PHASES {
                    cum.cost[p] += e.cost[p];
                }
            }
            let cell = matrix.entry((r.stage, r.class)).or_insert((0, 0));
            cell.0 += 1;
            cell.1 += usize::from(r.detected);
            if !r.by_simulation {
                if let Some(fp) = r.test_fp {
                    latency_hist.record(r.detected_cycle as u64);
                    *tests.entry(fp).or_insert(0) += 1;
                }
            }
            if cum.at.is_multiple_of(sample_every) || i + 1 == recs.len() {
                cum.coverage_pct = 100.0 * cum.detected as f64 / cum.at as f64;
                let mut snap = cum.clone();
                // The live clock counts completions (thread-dependent
                // schedule), the snapshot clock counts merged records;
                // both tick every `sample_every`, so samples join by
                // clock value where one landed.
                while let Some(s) = live_iter.peek() {
                    if s.at < snap.at {
                        live_iter.next();
                    } else {
                        break;
                    }
                }
                if live_iter.peek().is_some_and(|s| s.at == snap.at) {
                    snap.live = live_iter.next();
                }
                snaps.push(snap);
            }
        }
        MetricsTimeline {
            design,
            sample_every,
            recs,
            snaps,
            matrix: matrix
                .into_iter()
                .map(|((stage, class), (errors, detected))| MatrixCell {
                    stage,
                    class,
                    errors,
                    detected,
                })
                .collect(),
            latency_hist,
            test_set_size: tests.len(),
            wall_ns,
        }
    }

    /// Detections across all records.
    #[must_use]
    pub fn detected(&self) -> usize {
        self.recs.iter().filter(|r| r.detected).count()
    }

    /// The full JSONL timeline, wall-clock and live counters included.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        self.emit(true)
    }

    /// The deterministic JSONL timeline: identical lines minus every
    /// thread-dependent field (`ns` keys, per-record `seconds`, live
    /// `counters` objects). Byte-for-byte identical for any worker-thread
    /// count.
    #[must_use]
    pub fn to_jsonl_deterministic(&self) -> String {
        self.emit(false)
    }

    fn emit(&self, timing: bool) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{{\"ev\": \"meta\", \"version\": 2, \"stream\": \"metrics\", \
             \"design\": \"{}\", \"errors\": {}, \"sample_every\": {}}}",
            json_escape(&self.design),
            self.recs.len(),
            self.sample_every
        );
        for r in &self.recs {
            let _ = write!(
                out,
                "{{\"ev\": \"rec\", \"error\": {}, \"stage\": {}, \"site\": \"{}\", \
                 \"class\": \"{}\", \"outcome\": \"{}\", \"reason\": \"{}\", \
                 \"by_simulation\": {}, \"round\": {}, \
                 \"detected_cycle\": {}, \"test_length\": {}",
                r.id,
                r.stage,
                json_escape(&r.site),
                r.class,
                if r.detected {
                    "detected"
                } else if r.proven_untestable {
                    "proven_untestable"
                } else {
                    "aborted"
                },
                json_escape(r.reason),
                r.by_simulation,
                r.round,
                r.detected_cycle,
                r.test_length,
            );
            if let Some(fp) = r.test_fp {
                let _ = write!(out, ", \"test_fp\": \"{fp:016x}\"");
            }
            if let Some(e) = &r.engine {
                let _ = write!(
                    out,
                    ", \"engine\": {{\"variants\": {}, \"refinements\": {}, \
                     \"decisions\": {}, \"backtracks\": {}, \
                     \"relax_iterations\": {}, \"perturbations\": {}",
                    e.variants,
                    e.refinements,
                    e.decisions,
                    e.backtracks,
                    e.relax_iterations,
                    e.perturbations
                );
                out.push_str(", \"phases\": {");
                for (i, p) in PHASES.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    let _ = write!(
                        out,
                        "\"{}\": {{\"calls\": {}, \"cost\": {}}}",
                        p.name(),
                        e.calls[i],
                        e.cost[i]
                    );
                }
                out.push('}');
                if timing {
                    let _ = write!(out, ", \"ns\": {}", e.wall_ns);
                }
                out.push('}');
            }
            if timing {
                let _ = write!(out, ", \"ns\": {}", (r.seconds * 1e9) as u64);
            }
            out.push_str("}\n");
        }
        for s in &self.snaps {
            let _ = write!(
                out,
                "{{\"ev\": \"snap\", \"at\": {}, \"generated\": {}, \"screened\": {}, \
                 \"detected\": {}, \"aborted\": {}, \"proven_untestable\": {}, \
                 \"retried\": {}, \"coverage_pct\": {}, \"decisions\": {}, \
                 \"backtracks\": {}",
                s.at,
                s.generated,
                s.screened,
                s.detected,
                s.aborted,
                s.proven_untestable,
                s.retried,
                json_f64(s.coverage_pct),
                s.decisions,
                s.backtracks,
            );
            out.push_str(", \"cost\": {");
            for (i, p) in PHASES.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "\"{}\": {}", p.name(), s.cost[i]);
            }
            out.push('}');
            if timing {
                if let Some(live) = &s.live {
                    let _ = write!(out, ", \"ns\": {}", live.ns);
                    out.push_str(", \"counters\": {");
                    let mut first = true;
                    for (i, &c) in COUNTERS.iter().enumerate() {
                        if live.counts[i] == 0 {
                            continue;
                        }
                        if !first {
                            out.push_str(", ");
                        }
                        first = false;
                        let _ = write!(out, "\"{}\": {}", c.name(), live.counts[i]);
                    }
                    out.push('}');
                }
            }
            out.push_str("}\n");
        }
        let generated = self.recs.iter().filter(|r| !r.by_simulation).count();
        let retried = self.recs.iter().filter(|r| r.round > 0).count();
        let proven = self.recs.iter().filter(|r| r.proven_untestable).count();
        let _ = write!(
            out,
            "{{\"ev\": \"summary\", \"errors\": {}, \"generated\": {}, \
             \"screened\": {}, \"detected\": {}, \"aborted\": {}, \
             \"proven_untestable\": {}, \
             \"retried\": {}, \"coverage_pct\": {}, \"test_set_size\": {}",
            self.recs.len(),
            generated,
            self.recs.len() - generated,
            self.detected(),
            self.recs.len() - self.detected() - proven,
            proven,
            retried,
            json_f64(if self.recs.is_empty() {
                0.0
            } else {
                100.0 * self.detected() as f64 / self.recs.len() as f64
            }),
            self.test_set_size,
        );
        out.push_str(", \"matrix\": [");
        for (i, c) in self.matrix.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "{{\"stage\": {}, \"class\": \"{}\", \"errors\": {}, \"detected\": {}}}",
                c.stage, c.class, c.errors, c.detected
            );
        }
        out.push(']');
        let _ = write!(out, ", \"latency_hist\": {}", self.latency_hist.to_json());
        if timing {
            let _ = write!(out, ", \"ns\": {}", self.wall_ns);
        }
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorder_accumulates_engine_work_per_error() {
        let rec = FlightRecorder::new(4);
        rec.with_cell(7, |c| c.work.decisions += 3);
        rec.with_cell(7, |c| c.work.cost[0] += 10);
        let mut got = EngineWork::default();
        rec.with_cell(7, |c| got = c.work.clone());
        assert_eq!(got.decisions, 3);
        assert_eq!(got.cost[0], 10);
    }

    #[test]
    fn empty_timeline_emits_meta_and_summary_only() {
        let rec = FlightRecorder::new(8);
        let tl = rec.finish(&[], "dlx");
        let det = tl.to_jsonl_deterministic();
        assert!(det.starts_with("{\"ev\": \"meta\""));
        assert!(det.contains("\"ev\": \"summary\""));
        assert!(!det.contains("\"ev\": \"rec\""));
        assert!(!det.contains("\"ns\":"));
        assert_eq!(tl.test_set_size, 0);
        // Full emission of the same timeline carries the wall clock.
        assert!(tl.to_jsonl().contains("\"ns\":"));
    }
}
