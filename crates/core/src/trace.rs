//! Structured trace subsystem: per-error spans, per-phase latency
//! histograms, and JSONL event emission.
//!
//! [`Tracer`] is a [`Probe`] implementation that records a *timeline per
//! error* — which variants ran, what each engine phase cost, how deep the
//! CTRLJUST backtracks went, how the span ended — plus campaign-wide
//! log-bucketed (power-of-2) histograms. Storage is contention-free in
//! practice: in-flight spans live in sharded per-error cells (one worker
//! owns an error at a time, so the per-event lock is never contended) and
//! the live progress statistics are plain atomics.
//!
//! Determinism contract: per-error generation is a pure function of the
//! seed and the error, so every *work-unit* quantity in a span (variants,
//! decisions, backtracks, phase costs, relaxation iterations, outcomes) is
//! identical for any `num_threads`. The campaign join hands the tracer the
//! list of errors that sequential semantics actually generated (mirroring
//! the `ErrorRecord` merge) and [`Tracer::finish`] keeps exactly those
//! spans, in enumeration order — so [`TraceSnapshot::to_jsonl_deterministic`]
//! is byte-for-byte identical for 1 vs N worker threads. Wall-clock fields
//! are the one physically thread-dependent quantity; they are confined to
//! keys named `ns` / suffixed `_ns` (and `hist` lines with
//! `"metric": "ns"`), which the deterministic emitter omits.
//!
//! JSONL schema (one event object per line, hand-rolled JSON, see
//! `DESIGN.md` §Observability for documented examples):
//!
//! * `{"ev": "meta", ...}` — one header line per trace.
//! * `{"ev": "span", ...}` — one line per generated error, in enumeration
//!   order.
//! * `{"ev": "hist", "phase": p, "metric": m, "buckets": [[lo, n], ...]}`
//!   — per-phase per-call histograms (`metric` ∈ `cost`, `ns`) plus the
//!   CTRLJUST `backtrack_depth` distribution.
//! * `{"ev": "summary", ...}` — campaign totals and per-phase p50/p99.

use crate::instrument::{json_escape, Phase, Probe, SpanEnd, PHASES};
use hltg_errors::BusSslError;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

const N_PHASES: usize = PHASES.len();
/// In-flight span shards; workers process distinct errors, so two threads
/// hit the same shard only when their error ids collide modulo this.
const SHARDS: usize = 32;

/// Number of power-of-2 buckets in a [`LogHistogram`]; covers the full
/// `u64` range.
pub const LOG_BUCKETS: usize = 65;

/// A hand-rolled power-of-2 (log-bucketed) histogram over `u64` samples.
///
/// Bucket `0` holds the value `0`; bucket `i >= 1` holds values in
/// `[2^(i-1), 2^i)`. Merging and bucket counts are order-independent, so
/// histograms built from the same sample multiset are identical regardless
/// of thread interleaving.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogHistogram {
    buckets: [u64; LOG_BUCKETS],
    count: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram {
            buckets: [0; LOG_BUCKETS],
            count: 0,
        }
    }
}

/// The bucket index value `v` falls into.
#[must_use]
pub fn log2_bucket(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// The smallest value of bucket `i` (its inclusive lower bound).
#[must_use]
pub fn bucket_floor(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << (i - 1)
    }
}

impl LogHistogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        LogHistogram::default()
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.buckets[log2_bucket(v)] += 1;
        self.count += 1;
    }

    /// Total samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The per-bucket counts.
    #[must_use]
    pub fn buckets(&self) -> &[u64; LOG_BUCKETS] {
        &self.buckets
    }

    /// Adds every bucket of `other` into `self`.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
    }

    /// The lower bound of the bucket containing the `q`-quantile sample
    /// (`q` in `[0, 1]`), or 0 for an empty histogram.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_floor(i);
            }
        }
        bucket_floor(LOG_BUCKETS - 1)
    }

    /// Renders the histogram as a JSON array of `[lower_bound, count]`
    /// pairs, omitting empty buckets.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        let mut first = true;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if !first {
                out.push_str(", ");
            }
            first = false;
            let _ = write!(out, "[{}, {}]", bucket_floor(i), c);
        }
        out.push(']');
        out
    }
}

/// One engine-phase invocation inside an error span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseCall {
    /// Which engine ran.
    pub phase: Phase,
    /// Path-selection variant it ran under.
    pub variant: usize,
    /// Deterministic work units (steps / implication passes / iterations).
    pub cost: u64,
    /// Wall-clock nanoseconds (thread- and machine-dependent).
    pub ns: u64,
}

/// The completed timeline of one error's generation.
#[derive(Debug, Clone, PartialEq)]
pub struct ErrorSpan {
    /// Error id (enumeration index).
    pub id: u64,
    /// Pipe-stage index of the error site.
    pub stage: usize,
    /// Error site, `net_name[bit]:sa{0|1}`.
    pub site: String,
    /// `true` when a confirmed test was generated.
    pub detected: bool,
    /// `true` when the prover certified the error before any search.
    pub proven: bool,
    /// Abort-reason name (`""` when detected; the proof-kind name when
    /// proven).
    pub reason: &'static str,
    /// Phase that exhausted the budget (`""` when detected).
    pub failed_phase: &'static str,
    /// Path-selection variants attempted.
    pub variants: usize,
    /// Counterexample-guided STS refinements.
    pub refinements: u64,
    /// CTRLJUST decisions across all variants (including failed searches).
    pub decisions: u64,
    /// CTRLJUST backtracks across all variants (including failed searches).
    pub backtracks: u64,
    /// DPRELAX iterations across all variants.
    pub relax_iterations: u64,
    /// DPRELAX perturbations across all variants.
    pub perturbations: u64,
    /// Deepest decision stack observed at a backtrack.
    pub max_backtrack_depth: u64,
    /// Log-bucketed distribution of decision-stack depth per backtrack.
    pub depth_hist: LogHistogram,
    /// Generated test length (`0` when aborted).
    pub test_length: usize,
    /// Cycle of first observable discrepancy (`0` when aborted).
    pub detected_cycle: usize,
    /// Every engine-phase invocation, in call order.
    pub phase_calls: Vec<PhaseCall>,
    /// End-to-end wall-clock of the span in nanoseconds (thread- and
    /// machine-dependent; excluded from the deterministic emission).
    pub wall_ns: u64,
}

impl ErrorSpan {
    /// Total deterministic work units spent in `p`.
    #[must_use]
    pub fn phase_cost(&self, p: Phase) -> u64 {
        self.phase_calls
            .iter()
            .filter(|c| c.phase == p)
            .map(|c| c.cost)
            .sum()
    }

    /// Total wall-clock nanoseconds spent in `p`.
    #[must_use]
    pub fn phase_ns(&self, p: Phase) -> u64 {
        self.phase_calls
            .iter()
            .filter(|c| c.phase == p)
            .map(|c| c.ns)
            .sum()
    }
}

/// In-flight accumulator for one error, owned by the worker generating it.
#[derive(Debug)]
struct SpanBuilder {
    stage: usize,
    site: String,
    started: Instant,
    variants: usize,
    cur_variant: usize,
    refinements: u64,
    decisions: u64,
    backtracks: u64,
    relax_iterations: u64,
    perturbations: u64,
    max_backtrack_depth: u64,
    depth_hist: LogHistogram,
    phase_calls: Vec<PhaseCall>,
}

impl SpanBuilder {
    fn new(stage: usize, site: String) -> Self {
        SpanBuilder {
            stage,
            site,
            started: Instant::now(),
            variants: 0,
            cur_variant: 0,
            refinements: 0,
            decisions: 0,
            backtracks: 0,
            relax_iterations: 0,
            perturbations: 0,
            max_backtrack_depth: 0,
            depth_hist: LogHistogram::new(),
            phase_calls: Vec::new(),
        }
    }

    fn finish(self, id: u64, end: SpanEnd) -> ErrorSpan {
        ErrorSpan {
            id,
            stage: self.stage,
            site: self.site,
            detected: end.detected,
            proven: end.proven,
            reason: end.reason,
            failed_phase: end.failed_phase,
            variants: self.variants,
            refinements: self.refinements,
            decisions: self.decisions,
            backtracks: self.backtracks,
            relax_iterations: self.relax_iterations,
            perturbations: self.perturbations,
            max_backtrack_depth: self.max_backtrack_depth,
            depth_hist: self.depth_hist,
            test_length: end.test_length,
            detected_cycle: end.detected_cycle,
            phase_calls: self.phase_calls,
            wall_ns: self.started.elapsed().as_nanos() as u64,
        }
    }
}

/// A [`Probe`] recording per-error spans and per-phase histograms.
///
/// Share one `Tracer` across the campaign workers (it is `Sync`); after
/// the run, [`Tracer::finish`] yields the deterministic, merged
/// [`TraceSnapshot`].
#[derive(Debug)]
pub struct Tracer {
    shards: Vec<Mutex<HashMap<u64, SpanBuilder>>>,
    done: Mutex<Vec<ErrorSpan>>,
    total: AtomicUsize,
    completed: AtomicUsize,
    detected: AtomicUsize,
    screened: AtomicUsize,
    /// Live per-phase wall-clock histograms for the progress display
    /// (approximate: includes spans later dropped by the merge).
    live_ns: Vec<Vec<AtomicU64>>,
    /// Completion count at the previous progress tick, for the
    /// instantaneous errors/sec rate. Display-path only: plain atomics,
    /// never consulted by the deterministic emit path.
    rate_prev_done: AtomicUsize,
    /// Elapsed nanoseconds at the previous progress tick.
    rate_prev_ns: AtomicU64,
    started: Instant,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer.
    #[must_use]
    pub fn new() -> Self {
        Tracer {
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            done: Mutex::new(Vec::new()),
            total: AtomicUsize::new(0),
            completed: AtomicUsize::new(0),
            detected: AtomicUsize::new(0),
            screened: AtomicUsize::new(0),
            live_ns: (0..N_PHASES)
                .map(|_| (0..LOG_BUCKETS).map(|_| AtomicU64::new(0)).collect())
                .collect(),
            rate_prev_done: AtomicUsize::new(0),
            rate_prev_ns: AtomicU64::new(0),
            started: Instant::now(),
        }
    }

    fn with_span(&self, id: u64, f: impl FnOnce(&mut SpanBuilder)) {
        let mut shard = self.shards[(id as usize) % SHARDS]
            .lock()
            .expect("tracer shard lock");
        // Engines invoked outside a campaign (unit tests, direct API use)
        // may emit events for a span that was never opened; give them an
        // anonymous builder so nothing is lost.
        let builder = shard
            .entry(id)
            .or_insert_with(|| SpanBuilder::new(0, String::new()));
        f(builder);
    }

    /// Errors completed so far (generated + screened), the enumerated
    /// total, and the detections among them — the live progress triple.
    #[must_use]
    pub fn progress(&self) -> (usize, usize, usize) {
        (
            self.completed.load(Ordering::Relaxed),
            self.total.load(Ordering::Relaxed),
            self.detected.load(Ordering::Relaxed),
        )
    }

    /// One human-readable progress line: errors done/total, detect rate,
    /// errors/sec over the window since the previous tick, per-phase
    /// p50/p99 latency, and an ETA from the deterministic work remaining
    /// (`total - done` errors at the observed completion rate).
    ///
    /// Rate bookkeeping lives in two display-only atomics updated here —
    /// the ticking is throttled by the caller's wall clock and never
    /// touches the deterministic emit path.
    #[must_use]
    pub fn progress_line(&self) -> String {
        let (done, total, detected) = self.progress();
        let now_ns = self.started.elapsed().as_nanos() as u64;
        let prev_ns = self.rate_prev_ns.swap(now_ns, Ordering::Relaxed);
        let prev_done = self.rate_prev_done.swap(done, Ordering::Relaxed);
        // Instantaneous errors/sec over the window since the last tick;
        // the whole-run average when the window is degenerate.
        let avg_rate = if now_ns > 0 {
            done as f64 / (now_ns as f64 / 1e9)
        } else {
            0.0
        };
        let rate = if now_ns > prev_ns && done > prev_done {
            (done - prev_done) as f64 / ((now_ns - prev_ns) as f64 / 1e9)
        } else {
            avg_rate
        };
        let mut line = format!(
            "[campaign] {done}/{total} errors ({:.0}%) · detected {detected}",
            if total == 0 {
                0.0
            } else {
                100.0 * done as f64 / total as f64
            }
        );
        if done > 0 {
            let _ = write!(line, " ({:.0}%)", 100.0 * detected as f64 / done as f64);
        }
        if done > 0 && rate > 0.0 {
            let _ = write!(line, " · {rate:.1} err/s");
        }
        for (pi, p) in PHASES.iter().enumerate() {
            let mut h = LogHistogram::new();
            for (i, c) in self.live_ns[pi].iter().enumerate() {
                let n = c.load(Ordering::Relaxed);
                h.buckets[i] = n;
                h.count += n;
            }
            if h.count() > 0 {
                let _ = write!(
                    line,
                    " · {} p50/p99 {}/{}",
                    p.name(),
                    fmt_ns(h.quantile(0.50)),
                    fmt_ns(h.quantile(0.99))
                );
            }
        }
        if done > 0 && total > done && rate > 0.0 {
            // Deterministic work remaining at the observed rate.
            let eta = (total - done) as f64 / rate;
            let _ = write!(line, " · ETA {}", fmt_secs(eta));
        }
        line
    }

    /// Closes the tracer: keeps exactly the spans whose error ids appear
    /// in `kept` (the errors sequential semantics generated, in
    /// enumeration order) and builds the campaign-wide histograms from
    /// them. Mirrors the deterministic `ErrorRecord` merge, so the result
    /// is identical for any worker-thread count.
    #[must_use]
    pub fn finish(self, kept: impl IntoIterator<Item = u64>) -> TraceSnapshot {
        let mut by_id: HashMap<u64, ErrorSpan> = self
            .done
            .into_inner()
            .expect("tracer done lock")
            .into_iter()
            .map(|s| (s.id, s))
            .collect();
        let spans: Vec<ErrorSpan> = kept
            .into_iter()
            .filter_map(|id| by_id.remove(&id))
            .collect();
        let total_errors = self.total.load(Ordering::Relaxed);
        let mut snap = TraceSnapshot {
            // Derived, not read from the live counter: the worker-side
            // screen is approximate under sharding, but "enumerated minus
            // generated" matches sequential semantics for any thread count.
            screened: total_errors.saturating_sub(spans.len()),
            spans,
            cost_hist: std::array::from_fn(|_| LogHistogram::new()),
            ns_hist: std::array::from_fn(|_| LogHistogram::new()),
            backtrack_depth_hist: LogHistogram::new(),
            total_errors,
        };
        for s in &snap.spans {
            for c in &s.phase_calls {
                snap.cost_hist[c.phase.index()].record(c.cost);
                snap.ns_hist[c.phase.index()].record(c.ns);
            }
            snap.backtrack_depth_hist.merge(&s.depth_hist);
        }
        snap
    }
}

impl Probe for Tracer {
    fn wants_events(&self) -> bool {
        true
    }

    fn campaign_begin(&self, total_errors: usize) {
        self.total.store(total_errors, Ordering::Relaxed);
    }

    fn error_begin(&self, error: &BusSslError) {
        let site = format!(
            "{}[{}]:sa{}",
            error.net_name,
            error.bit,
            u8::from(error.polarity == hltg_sim::Polarity::StuckAt1)
        );
        let id = u64::from(error.id.0);
        let mut shard = self.shards[(id as usize) % SHARDS]
            .lock()
            .expect("tracer shard lock");
        shard.insert(id, SpanBuilder::new(error.stage.index(), site));
    }

    fn error_end(&self, id: u64, end: SpanEnd) {
        let builder = {
            let mut shard = self.shards[(id as usize) % SHARDS]
                .lock()
                .expect("tracer shard lock");
            shard
                .remove(&id)
                .unwrap_or_else(|| SpanBuilder::new(0, String::new()))
        };
        self.completed.fetch_add(1, Ordering::Relaxed);
        if end.detected {
            self.detected.fetch_add(1, Ordering::Relaxed);
        }
        self.done
            .lock()
            .expect("tracer done lock")
            .push(builder.finish(id, end));
    }

    fn error_screened(&self, _id: u64, detected: bool) {
        self.completed.fetch_add(1, Ordering::Relaxed);
        self.screened.fetch_add(1, Ordering::Relaxed);
        if detected {
            self.detected.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn variant_begin(&self, id: u64, variant: usize) {
        self.with_span(id, |s| {
            s.variants = s.variants.max(variant + 1);
            s.cur_variant = variant;
        });
    }

    fn phase_exit(&self, id: u64, p: Phase, cost: u64, d: Duration) {
        let ns = d.as_nanos() as u64;
        self.live_ns[p.index()][log2_bucket(ns)].fetch_add(1, Ordering::Relaxed);
        self.with_span(id, |s| {
            s.phase_calls.push(PhaseCall {
                phase: p,
                variant: s.cur_variant,
                cost,
                ns,
            });
        });
    }

    fn refinement(&self, id: u64, _frame: usize) {
        self.with_span(id, |s| s.refinements += 1);
    }

    fn decision(&self, id: u64, _frame: usize, _value: bool) {
        self.with_span(id, |s| s.decisions += 1);
    }

    fn backtrack(&self, id: u64, _frame: usize, depth: usize) {
        self.with_span(id, |s| {
            s.backtracks += 1;
            s.max_backtrack_depth = s.max_backtrack_depth.max(depth as u64);
            s.depth_hist.record(depth as u64);
        });
    }

    fn relax_step(&self, id: u64, _iteration: usize, _activated: bool) {
        self.with_span(id, |s| s.relax_iterations += 1);
    }

    fn relax_perturb(&self, id: u64, _iteration: usize) {
        self.with_span(id, |s| s.perturbations += 1);
    }
}

/// The merged, deterministic result of a traced campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSnapshot {
    /// Per-error spans, in enumeration order, for exactly the errors that
    /// sequential campaign semantics generated.
    pub spans: Vec<ErrorSpan>,
    /// Per-phase histogram of deterministic work units per engine call.
    pub cost_hist: [LogHistogram; N_PHASES],
    /// Per-phase histogram of wall-clock nanoseconds per engine call
    /// (machine-dependent).
    pub ns_hist: [LogHistogram; N_PHASES],
    /// Distribution of CTRLJUST decision-stack depth per backtrack.
    pub backtrack_depth_hist: LogHistogram,
    /// Errors enumerated by the campaign.
    pub total_errors: usize,
    /// Errors covered by error simulation instead of dedicated generation
    /// (enumerated minus generated; deterministic).
    pub screened: usize,
}

impl TraceSnapshot {
    /// Detections among the kept spans.
    #[must_use]
    pub fn detected(&self) -> usize {
        self.spans.iter().filter(|s| s.detected).count()
    }

    /// Errors the prover certified before any search, among the kept
    /// spans.
    #[must_use]
    pub fn proven(&self) -> usize {
        self.spans.iter().filter(|s| s.proven).count()
    }

    /// Aborts among the kept spans.
    #[must_use]
    pub fn aborted(&self) -> usize {
        self.spans.len() - self.detected() - self.proven()
    }

    /// Total wall-clock nanoseconds spent in `p` across all spans.
    #[must_use]
    pub fn phase_total_ns(&self, p: Phase) -> u64 {
        self.spans.iter().map(|s| s.phase_ns(p)).sum()
    }

    /// The full JSONL trace, wall-clock fields included.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        self.emit(true)
    }

    /// The deterministic JSONL trace: identical lines minus every
    /// wall-clock field (`ns` keys, `_ns` suffixes, `"metric": "ns"`
    /// histograms). Byte-for-byte identical for any worker-thread count.
    #[must_use]
    pub fn to_jsonl_deterministic(&self) -> String {
        self.emit(false)
    }

    fn emit(&self, timing: bool) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{{\"ev\": \"meta\", \"version\": 2, \"generator\": \"hltg\", \
             \"errors\": {}, \"spans\": {}}}",
            self.total_errors,
            self.spans.len()
        );
        for s in &self.spans {
            let _ = write!(
                out,
                "{{\"ev\": \"span\", \"error\": {}, \"stage\": {}, \"site\": \"{}\", \
                 \"outcome\": \"{}\", \"reason\": \"{}\", \"failed_phase\": \"{}\", \
                 \"variants\": {}, \"refinements\": {}, \"decisions\": {}, \
                 \"backtracks\": {}, \"max_backtrack_depth\": {}, \
                 \"relax_iterations\": {}, \"perturbations\": {}, \
                 \"test_length\": {}, \"detected_cycle\": {}",
                s.id,
                s.stage,
                json_escape(&s.site),
                match (s.detected, s.proven) {
                    (true, _) => "detected",
                    (false, true) => "proven_untestable",
                    (false, false) => "aborted",
                },
                json_escape(s.reason),
                json_escape(s.failed_phase),
                s.variants,
                s.refinements,
                s.decisions,
                s.backtracks,
                s.max_backtrack_depth,
                s.relax_iterations,
                s.perturbations,
                s.test_length,
                s.detected_cycle,
            );
            out.push_str(", \"phases\": {");
            for (i, p) in PHASES.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                let calls = s.phase_calls.iter().filter(|c| c.phase == *p).count();
                let _ = write!(
                    out,
                    "\"{}\": {{\"calls\": {}, \"cost\": {}",
                    p.name(),
                    calls,
                    s.phase_cost(*p)
                );
                if timing {
                    let _ = write!(out, ", \"ns\": {}", s.phase_ns(*p));
                }
                out.push('}');
            }
            out.push('}');
            if timing {
                let _ = write!(out, ", \"ns\": {}", s.wall_ns);
            }
            out.push_str("}\n");
        }
        for (i, p) in PHASES.iter().enumerate() {
            let _ = writeln!(
                out,
                "{{\"ev\": \"hist\", \"phase\": \"{}\", \"metric\": \"cost\", \
                 \"buckets\": {}}}",
                p.name(),
                self.cost_hist[i].to_json()
            );
            if timing {
                let _ = writeln!(
                    out,
                    "{{\"ev\": \"hist\", \"phase\": \"{}\", \"metric\": \"ns\", \
                     \"buckets\": {}}}",
                    p.name(),
                    self.ns_hist[i].to_json()
                );
            }
        }
        let _ = writeln!(
            out,
            "{{\"ev\": \"hist\", \"phase\": \"ctrljust\", \
             \"metric\": \"backtrack_depth\", \"buckets\": {}}}",
            self.backtrack_depth_hist.to_json()
        );
        let _ = write!(
            out,
            "{{\"ev\": \"summary\", \"errors\": {}, \"spans\": {}, \
             \"detected\": {}, \"aborted\": {}, \"proven_untestable\": {}, \
             \"screened\": {}",
            self.total_errors,
            self.spans.len(),
            self.detected(),
            self.aborted(),
            self.proven(),
            self.screened
        );
        if timing {
            out.push_str(", \"phase_ns\": {");
            for (i, p) in PHASES.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                let _ = write!(
                    out,
                    "\"{}\": {{\"total\": {}, \"p50\": {}, \"p99\": {}}}",
                    p.name(),
                    self.phase_total_ns(*p),
                    self.ns_hist[i].quantile(0.50),
                    self.ns_hist[i].quantile(0.99)
                );
            }
            out.push('}');
        }
        out.push_str("}\n");
        out
    }
}

/// Formats nanoseconds human-readably (`ns`, `µs`, `ms`, `s`).
#[must_use]
pub fn fmt_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else {
        format!("{:.2}s", ns as f64 / 1e9)
    }
}

/// Formats seconds as `MM:SS` (or `HH:MM:SS` past an hour).
#[must_use]
pub fn fmt_secs(s: f64) -> String {
    let s = s.max(0.0) as u64;
    if s >= 3600 {
        format!("{}:{:02}:{:02}", s / 3600, (s % 3600) / 60, s % 60)
    } else {
        format!("{:02}:{:02}", s / 60, s % 60)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instrument::Counter;

    #[test]
    fn log_histogram_buckets_and_quantiles() {
        let mut h = LogHistogram::new();
        assert_eq!(h.quantile(0.5), 0);
        for v in [0, 1, 2, 3, 4, 700, 700, 900, 1023, 1_000_000] {
            h.record(v);
        }
        assert_eq!(h.count(), 10);
        // 0 -> bucket 0; 1 -> 1; 2,3 -> 2; 4 -> 3; 700/900/1023 -> 10.
        assert_eq!(h.buckets()[0], 1);
        assert_eq!(h.buckets()[1], 1);
        assert_eq!(h.buckets()[2], 2);
        assert_eq!(h.buckets()[3], 1);
        assert_eq!(h.buckets()[10], 4);
        assert_eq!(h.quantile(0.5), 4); // 5th sample is the value 4
        assert_eq!(h.quantile(0.99), 524_288); // the 1e6 sample's bucket
        let json = h.to_json();
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert!(json.contains("[512, 4]"));
    }

    /// Pins the documented quantile edge cases: an empty histogram
    /// answers 0 for any `q`; `q = 0` clamps to rank 1 (the first
    /// recorded sample's bucket floor); `q = 1` is the last sample's
    /// bucket floor, never past it.
    #[test]
    fn log_histogram_quantile_edges() {
        let empty = LogHistogram::new();
        assert_eq!(empty.quantile(0.0), 0);
        assert_eq!(empty.quantile(0.5), 0);
        assert_eq!(empty.quantile(1.0), 0);

        let mut h = LogHistogram::new();
        for v in [3, 700, 1_000_000] {
            h.record(v);
        }
        assert_eq!(h.quantile(0.0), bucket_floor(log2_bucket(3)));
        assert_eq!(h.quantile(1.0), bucket_floor(log2_bucket(1_000_000)));

        // A single sample answers its own bucket floor at every q.
        let mut one = LogHistogram::new();
        one.record(0);
        assert_eq!(one.quantile(0.0), 0);
        assert_eq!(one.quantile(1.0), 0);
        let mut one = LogHistogram::new();
        one.record(u64::MAX);
        assert_eq!(one.quantile(1.0), bucket_floor(LOG_BUCKETS - 1));
    }

    #[test]
    fn log_histogram_merge_is_additive() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        a.record(5);
        b.record(5);
        b.record(100);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.buckets()[3], 2);
    }

    #[test]
    fn tracer_builds_spans_and_histograms() {
        let t = Tracer::new();
        t.campaign_begin(2);
        // Anonymous span: events without error_begin still record.
        t.variant_begin(7, 0);
        t.phase_exit(7, Phase::Dptrace, 12, Duration::from_micros(5));
        t.decision(7, 3, true);
        t.decision(7, 4, false);
        t.backtrack(7, 4, 2);
        t.phase_exit(7, Phase::Ctrljust, 40, Duration::from_micros(50));
        t.relax_step(7, 0, false);
        t.relax_step(7, 1, true);
        t.relax_perturb(7, 1);
        t.phase_exit(7, Phase::Dprelax, 2, Duration::from_micros(9));
        t.refinement(7, 5);
        t.error_end(
            7,
            SpanEnd {
                detected: true,
                proven: false,
                reason: "",
                failed_phase: "",
                test_length: 7,
                detected_cycle: 9,
                backtracks: 1,
            },
        );
        t.error_screened(9, true);
        assert_eq!(t.progress(), (2, 2, 2));
        let snap = t.finish([7]);
        assert_eq!(snap.spans.len(), 1);
        let s = &snap.spans[0];
        assert_eq!(s.decisions, 2);
        assert_eq!(s.backtracks, 1);
        assert_eq!(s.max_backtrack_depth, 2);
        assert_eq!(s.relax_iterations, 2);
        assert_eq!(s.perturbations, 1);
        assert_eq!(s.refinements, 1);
        assert_eq!(s.variants, 1);
        assert_eq!(s.phase_cost(Phase::Ctrljust), 40);
        assert!(s.phase_ns(Phase::Ctrljust) >= 50_000);
        assert_eq!(snap.cost_hist[Phase::Dptrace.index()].count(), 1);
        assert_eq!(snap.backtrack_depth_hist.count(), 1);
        assert_eq!(snap.screened, 1);
    }

    #[test]
    fn finish_drops_unlisted_spans_and_orders_by_kept_list() {
        let t = Tracer::new();
        for id in [3u64, 1, 2] {
            t.variant_begin(id, 0);
            t.error_end(
                id,
                SpanEnd {
                    detected: false,
                    proven: false,
                    reason: "no_path",
                    failed_phase: "dptrace",
                    test_length: 0,
                    detected_cycle: 0,
                    backtracks: 0,
                },
            );
        }
        let snap = t.finish([1, 3]);
        let ids: Vec<u64> = snap.spans.iter().map(|s| s.id).collect();
        assert_eq!(ids, vec![1, 3]);
    }

    #[test]
    fn deterministic_jsonl_has_no_timing_keys() {
        let t = Tracer::new();
        t.campaign_begin(1);
        t.variant_begin(0, 0);
        t.phase_exit(0, Phase::Dptrace, 5, Duration::from_micros(123));
        t.error_end(
            0,
            SpanEnd {
                detected: true,
                proven: false,
                reason: "",
                failed_phase: "",
                test_length: 3,
                detected_cycle: 5,
                backtracks: 0,
            },
        );
        let snap = t.finish([0]);
        let full = snap.to_jsonl();
        let det = snap.to_jsonl_deterministic();
        assert!(full.contains("\"ns\""));
        assert!(!det.contains("\"ns\""));
        assert!(!det.contains("_ns"));
        assert!(det.contains("\"ev\": \"span\""));
        assert!(det.contains("\"metric\": \"cost\""));
        // Every line parses as a JSON object.
        for line in full.lines().chain(det.lines()) {
            crate::jsonv::parse(line).expect("trace line parses");
        }
    }

    #[test]
    fn tracer_ignores_counter_hooks_but_wants_events() {
        let t = Tracer::new();
        t.add(Counter::Variants, 3);
        t.phase_time(Phase::Dprelax, Duration::from_secs(1));
        assert!(t.wants_events());
    }
}
