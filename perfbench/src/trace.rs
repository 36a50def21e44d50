//! In-memory spans for the traced run.
//!
//! The benchmark records a span around each of its own calls into a
//! layer (set-up, each campaign leg, the replay, the grading pass, the
//! prover pass, the checkpoint open) and, through [`LayerProbe`] on the
//! public [`Probe`] hook, one span per generated error and one per engine
//! phase inside it. Spans carry their parent's id, stay in memory, and
//! are written out as JSONL once the run ends.

use hltg::core::instrument::{Phase, SpanEnd};
use hltg::core::Probe;
use hltg::errors::BusSslError;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// Id of the implicit root: spans with this parent have no parent span.
pub const ROOT: u32 = 0;

/// One span; `end_ns` equals `start_ns` until the span closes.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// The span store of one traced run.
#[derive(Debug)]
pub struct SpanLog {
    t0: Instant,
    inner: Mutex<Vec<Span>>,
}

impl SpanLog {
    pub fn new() -> Self {
        SpanLog {
            t0: Instant::now(),
            inner: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Reserves an id for a span that opens now; close it with
    /// [`SpanLog::close`]. Ids are 1-based so that [`ROOT`] is never one.
    fn open(&self, name: &'static str, parent: u32) -> u32 {
        let start = self.now_ns();
        let mut spans = self.inner.lock().expect("span log lock poisoned");
        let id = spans.len() as u32 + 1;
        // The placeholder keeps ids dense and in opening order.
        spans.push(Span {
            id,
            parent,
            name,
            start_ns: start,
            end_ns: start,
        });
        id
    }

    fn close(&self, id: u32) {
        let end = self.now_ns();
        let mut spans = self.inner.lock().expect("span log lock poisoned");
        spans[id as usize - 1].end_ns = end;
    }

    /// Runs `f` inside a span named `name` under `parent`; `f` receives
    /// the new span's id so it can parent its own children.
    pub fn span<T>(&self, name: &'static str, parent: u32, f: impl FnOnce(u32) -> T) -> T {
        let id = self.open(name, parent);
        let out = f(id);
        self.close(id);
        out
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> Vec<Span> {
        self.inner.lock().expect("span log lock poisoned").clone()
    }

    /// Total seconds of the spans named `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(Span::seconds)
            .sum()
    }

    /// The spans as JSONL, one object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in self.spans() {
            let _ = writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                s.id, s.parent, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// The open error span and the open phase span inside it.
#[derive(Debug, Default)]
struct Open {
    error: Option<u32>,
    phase: Option<u32>,
}

/// A benchmark-owned [`Probe`]: one span per generated error (parented
/// to the current campaign leg) and one per engine phase inside it.
///
/// The campaign runs on one worker thread, so at most one error and one
/// phase are open at a time.
#[derive(Debug)]
pub struct LayerProbe<'a> {
    log: &'a SpanLog,
    leg: Mutex<u32>,
    open: Mutex<Open>,
}

impl<'a> LayerProbe<'a> {
    pub fn new(log: &'a SpanLog) -> Self {
        LayerProbe {
            log,
            leg: Mutex::new(ROOT),
            open: Mutex::new(Open::default()),
        }
    }

    /// Parents the error spans that follow to the span `leg`.
    pub fn set_leg(&self, leg: u32) {
        *self.leg.lock().expect("probe lock poisoned") = leg;
    }
}

impl Probe for LayerProbe<'_> {
    fn error_begin(&self, _error: &BusSslError) {
        let leg = *self.leg.lock().expect("probe lock poisoned");
        let id = self.log.open("error", leg);
        self.open.lock().expect("probe lock poisoned").error = Some(id);
    }

    fn error_end(&self, _id: u64, _end: SpanEnd) {
        if let Some(id) = self.open.lock().expect("probe lock poisoned").error.take() {
            self.log.close(id);
        }
    }

    fn phase_enter(&self, _id: u64, p: Phase) {
        let mut open = self.open.lock().expect("probe lock poisoned");
        let parent = open.error.unwrap_or(ROOT);
        let id = self.log.open(p.name(), parent);
        open.phase = Some(id);
    }

    fn phase_exit(&self, _id: u64, _p: Phase, _cost: u64, _d: std::time::Duration) {
        if let Some(id) = self.open.lock().expect("probe lock poisoned").phase.take() {
            self.log.close(id);
        }
    }
}
