//! Per-error campaign checkpointing: crash-safe JSONL, resume-aware.
//!
//! A campaign configured with [`crate::campaign::CampaignConfig::checkpoint`]
//! appends one JSON line per finished per-error generation (detected or
//! aborted, tagged with the retry round). Killing the campaign loses at
//! most the in-flight errors; re-running it with the same path *resumes*:
//! completed errors are looked up instead of regenerated, and because
//! per-error generation is a pure function of the seed and the error, the
//! resumed campaign's final report is identical to an uninterrupted run.
//!
//! The format is deliberately dumb — self-contained lines, written via
//! [`crate::instrument::json_escape`]/[`crate::instrument::json_f64`] and
//! read back with the in-tree [`crate::jsonv`] parser:
//!
//! ```text
//! {"ck": 1, "fingerprint": "<config fingerprint>"}
//! {"ck": 1, "id": 17, "round": 0, "seconds": 0.04,
//!  "outcome": "detected", "length": 9, "core_len": 5, ...,
//!  "program": [word, ...], "imem": [[addr, word], ...], "dmem": [[addr, value], ...]}
//! {"ck": 1, "id": 18, "round": 0, "seconds": 0.01,
//!  "outcome": "aborted", "reason": "no_path", "failed_phase": "dptrace",
//!  "payload": "", "backtracks": 0}
//! {"ck": 1, "id": 19, "round": 0, "seconds": 0.00002,
//!  "outcome": "proven_untestable", "frames": 0, "kind": "constant_line",
//!  "value": false, "clauses": []}
//! ```
//!
//! Robustness properties:
//!
//! * a truncated final line (the kill arrived mid-write) is skipped, not
//!   fatal;
//! * a fingerprint mismatch (the checkpoint belongs to a different
//!   configuration) refuses to open rather than mixing incompatible
//!   records;
//! * a persisted untestability certificate is data, not a verdict: the
//!   campaign re-checks each one against the design when it opens the log
//!   ([`CheckpointLog::discard_unless`]) and regenerates any that fails;
//! * write failures degrade to an un-checkpointed campaign with a single
//!   warning — persistence is best-effort, results are not.

use crate::chaos::{CheckpointIoChaos, IoFault};
use crate::instrument::{json_escape, json_f64, Counter, CounterDelta, Phase, COUNTERS, PHASES};
use crate::jsonv::{self, Value};
use crate::tg::{AbortReason, Outcome, TestCase};
use hltg_isa::asm::Program;
use hltg_isa::Instr;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError, RwLock};

/// One checkpointed per-error result.
#[derive(Debug, Clone)]
pub struct CheckpointEntry {
    /// The generation outcome (reconstructed exactly on load).
    pub outcome: Outcome,
    /// Unused and never persisted: structural redundancy is a
    /// `proven_untestable` outcome with a `constant_line` certificate.
    /// Kept only for source compatibility.
    pub redundant: bool,
    /// Wall-clock seconds the original generation spent.
    pub seconds: f64,
    /// The counter work this generation performed, replayed into the live
    /// probe on resume so post-resume reports match an uninterrupted run.
    pub counters: CounterDelta,
}

/// The file half of the log: the handle plus an append counter feeding
/// the deterministic I/O fault plan.
#[derive(Debug)]
struct LogFile {
    file: File,
    appends: u64,
}

/// An append-only JSONL checkpoint, shared across campaign workers.
///
/// The entry map is *live*: [`CheckpointLog::record`] publishes to it as
/// well as appending to the file, so a log shared by several in-process
/// shard attempts (the `hltg-serve` kill-and-respawn path) lets a
/// respawned attempt skip work its predecessor completed moments ago
/// without reopening the file.
#[derive(Debug)]
pub struct CheckpointLog {
    file: Mutex<LogFile>,
    entries: RwLock<HashMap<(u64, u32), CheckpointEntry>>,
    resumed_at_open: usize,
    skipped: usize,
    warned: AtomicBool,
    recovered: AtomicU64,
    io_chaos: Option<CheckpointIoChaos>,
}

impl CheckpointLog {
    /// Opens (creating if absent) the checkpoint at `path` and loads any
    /// completed entries. `fingerprint` names the campaign configuration;
    /// a non-empty file whose header carries a different fingerprint is
    /// refused with [`io::ErrorKind::InvalidData`], so a stale checkpoint
    /// can never silently contaminate a differently-configured run.
    ///
    /// # Errors
    ///
    /// I/O errors opening or reading the file, plus the fingerprint
    /// mismatch above.
    pub fn open(path: &Path, fingerprint: &str) -> io::Result<CheckpointLog> {
        let mut file = OpenOptions::new()
            .read(true)
            .create(true)
            .append(true)
            .open(path)?;
        let mut content = String::new();
        file.read_to_string(&mut content)?;
        let mut entries = HashMap::new();
        let mut skipped = 0usize;
        let mut saw_header = false;
        for line in content.lines() {
            if line.trim().is_empty() {
                continue;
            }
            match jsonv::parse(line) {
                Ok(v) if v.get_u64("ck") == Some(1) => {
                    if let Some(found) = v.get_str("fingerprint") {
                        if found != fingerprint {
                            return Err(io::Error::new(
                                io::ErrorKind::InvalidData,
                                format!(
                                    "checkpoint fingerprint mismatch: file has {found:?}, \
                                     campaign needs {fingerprint:?}"
                                ),
                            ));
                        }
                        saw_header = true;
                    } else if let Some((key, entry)) = entry_from_json(&v) {
                        entries.insert(key, entry);
                    } else {
                        skipped += 1;
                    }
                }
                // Unparseable or foreign line: typically the torn tail of
                // a killed run. Tolerate and move on.
                _ => skipped += 1,
            }
        }
        if !saw_header {
            writeln!(
                file,
                "{{\"ck\": 1, \"fingerprint\": \"{}\"}}",
                json_escape(fingerprint)
            )?;
        }
        Ok(CheckpointLog {
            file: Mutex::new(LogFile { file, appends: 0 }),
            resumed_at_open: entries.len(),
            entries: RwLock::new(entries),
            skipped,
            warned: AtomicBool::new(false),
            recovered: AtomicU64::new(0),
            io_chaos: None,
        })
    }

    /// Number of completed entries loaded at open.
    #[must_use]
    pub fn resumed(&self) -> usize {
        self.resumed_at_open
    }

    /// Completed entries currently known: those loaded at open plus
    /// everything recorded live since.
    #[must_use]
    pub fn completed(&self) -> usize {
        self.entries
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Unusable lines: corrupt or torn lines skipped at open, plus entries
    /// removed by [`CheckpointLog::discard_unless`].
    #[must_use]
    pub fn skipped_lines(&self) -> usize {
        self.skipped
    }

    /// Removes every loaded entry for which `keep(id, round, entry)` is
    /// false, counting each as an unusable line, and returns how many were
    /// removed. A removed entry is regenerated on lookup instead of
    /// replayed. This is how a campaign re-checks persisted certificates
    /// against its design before trusting them.
    pub fn discard_unless(&mut self, keep: impl Fn(u64, u32, &CheckpointEntry) -> bool) -> usize {
        let entries = self
            .entries
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner);
        let before = entries.len();
        entries.retain(|&(id, round), entry| keep(id, round, entry));
        let removed = before - entries.len();
        self.resumed_at_open -= removed;
        self.skipped += removed;
        removed
    }

    /// Appends recovered after a failed write (injected or real): the
    /// torn prefix was newline-terminated and the append retried.
    #[must_use]
    pub fn io_recoveries(&self) -> u64 {
        self.recovered.load(Ordering::Relaxed)
    }

    /// Arms deterministic append-fault injection (see
    /// [`CheckpointIoChaos`]); the campaign runner wires this from
    /// [`crate::chaos::ChaosConfig`].
    pub fn set_io_chaos(&mut self, chaos: CheckpointIoChaos) {
        self.io_chaos = Some(chaos);
    }

    /// The stored result of `(error id, retry round)`, when completed —
    /// loaded at open or recorded live by any worker since.
    #[must_use]
    pub fn lookup(&self, id: u64, round: u32) -> Option<CheckpointEntry> {
        self.entries
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&(id, round))
            .cloned()
    }

    /// Appends one completed per-error result and publishes it to the
    /// live entry map. The file side is best-effort with one layer of
    /// recovery: a failed append (torn write, transient disk-full) is
    /// retried once after newline-terminating whatever prefix reached
    /// the disk — the fragment becomes a single skippable line for the
    /// next open — and a still-failing append warns once while the
    /// campaign carries on un-persisted. The in-memory entry is
    /// published unconditionally: the generation itself completed.
    pub fn record(&self, id: u64, round: u32, entry: &CheckpointEntry) {
        self.entries
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .insert((id, round), entry.clone());
        let line = entry_to_json(id, round, entry);
        // A worker that panics while appending (e.g. killed by the chaos
        // probe inside a hook) poisons this lock. The file is still
        // sound — at worst one torn line, which open() skips — so
        // recover the guard instead of cascading the panic into every
        // later append of every surviving worker.
        let mut log = self.file.lock().unwrap_or_else(PoisonError::into_inner);
        let append = log.appends;
        log.appends += 1;
        let wrote = match self.io_chaos.as_ref().and_then(|c| c.roll(append)) {
            // A torn write: a prefix of the line reaches the file, the
            // rest is lost — what a kill mid-append leaves behind.
            Some(IoFault::TornWrite) => {
                let half = &line.as_bytes()[..line.len() / 2];
                let _ = log.file.write_all(half);
                Err(io::Error::new(
                    io::ErrorKind::Interrupted,
                    "chaos: torn checkpoint append",
                ))
            }
            // Transient disk-full: nothing reaches the file.
            Some(IoFault::DiskFull) => Err(io::Error::new(
                io::ErrorKind::WriteZero,
                "chaos: checkpoint disk full",
            )),
            None => writeln!(log.file, "{line}").and_then(|()| log.file.flush()),
        };
        if wrote.is_ok() {
            return;
        }
        let retried = writeln!(log.file)
            .and_then(|()| writeln!(log.file, "{line}"))
            .and_then(|()| log.file.flush());
        if retried.is_ok() {
            self.recovered.fetch_add(1, Ordering::Relaxed);
            return;
        }
        if !self.warned.swap(true, Ordering::Relaxed) {
            eprintln!("checkpoint: write failed; campaign continues without persistence");
        }
    }
}

fn entry_to_json(id: u64, round: u32, e: &CheckpointEntry) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"ck\": 1, \"id\": {id}, \"round\": {round}, \"seconds\": {}, ",
        json_f64(e.seconds)
    );
    if !e.counters.is_zero() {
        // Nonzero counters as [name, value] pairs (self-describing across
        // counter-set growth) plus [ns, calls] per phase in PHASES order.
        out.push_str("\"counters\": [");
        let mut first = true;
        for (i, c) in COUNTERS.iter().enumerate() {
            if e.counters.counts[i] == 0 {
                continue;
            }
            if !first {
                out.push_str(", ");
            }
            first = false;
            let _ = write!(out, "[\"{}\", {}]", c.name(), e.counters.counts[i]);
        }
        out.push_str("], \"phases\": [");
        for i in 0..PHASES.len() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "[{}, {}]",
                e.counters.phase_ns[i], e.counters.phase_calls[i]
            );
        }
        out.push_str("], ");
    }
    match &e.outcome {
        Outcome::Detected(tc) => {
            let _ = write!(
                out,
                "\"outcome\": \"detected\", \"length\": {}, \"core_len\": {}, \
                 \"detected_cycle\": {}, \"backtracks\": {}, \"variant\": {}, \
                 \"relax_iterations\": {}, \"program\": [",
                tc.length,
                tc.core_len,
                tc.detected_cycle,
                tc.backtracks,
                tc.variant,
                tc.relax_iterations
            );
            for (i, w) in tc.program.encode().iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "{w}");
            }
            out.push_str("], \"imem\": [");
            for (i, &(a, w)) in tc.imem_image.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "[{a}, {w}]");
            }
            out.push_str("], \"dmem\": [");
            for (i, &(a, v)) in tc.dmem_image.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "[{a}, {v}]");
            }
            out.push_str("]}");
        }
        Outcome::Aborted { reason, backtracks } => {
            let _ = write!(
                out,
                "\"outcome\": \"aborted\", \"reason\": \"{}\", \"failed_phase\": \"{}\", \
                 \"payload\": \"{}\", \"backtracks\": {backtracks}}}",
                json_escape(reason.name()),
                json_escape(reason.phase_name()),
                json_escape(match reason {
                    AbortReason::Panicked { payload, .. } => payload,
                    _ => "",
                }),
            );
        }
        Outcome::ProvenUntestable(proof) => {
            let _ = write!(
                out,
                "\"outcome\": \"proven_untestable\", \"frames\": {}, \"kind\": \"{}\", ",
                proof.frames,
                json_escape(proof.kind.name()),
            );
            if let crate::prover::ProofKind::ConstantLine { value } = proof.kind {
                let _ = write!(out, "\"value\": {value}, ");
            }
            // Learned clauses as [frame, net, value] triples so the proof
            // round-trips losslessly and a resumed campaign can re-`check` it.
            out.push_str("\"clauses\": [");
            for (i, clause) in proof.clauses.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push('[');
                for (j, &(frame, net, value)) in clause.objectives.iter().enumerate() {
                    if j > 0 {
                        out.push_str(", ");
                    }
                    let _ = write!(out, "[{frame}, {net}, {}]", u8::from(value));
                }
                out.push(']');
            }
            out.push_str("]}");
        }
    }
    out
}

fn entry_from_json(v: &Value) -> Option<((u64, u32), CheckpointEntry)> {
    let id = v.get_u64("id")?;
    let round = u32::try_from(v.get_u64("round")?).ok()?;
    let seconds = v.get_f64("seconds")?;
    let outcome = match v.get_str("outcome")? {
        "detected" => Outcome::Detected(Box::new(test_case_from_json(v)?)),
        "aborted" => Outcome::Aborted {
            reason: reason_from_json(v)?,
            backtracks: v.get_u64("backtracks")? as usize,
        },
        "proven_untestable" => Outcome::ProvenUntestable(Box::new(proof_from_json(v)?)),
        _ => return None,
    };
    Some((
        (id, round),
        CheckpointEntry {
            outcome,
            redundant: false,
            seconds,
            counters: counters_from_json(v)?,
        },
    ))
}

/// Reconstructs an [`crate::prover::UntestableProof`] exactly as written, so
/// a resumed record compares equal to a fresh one and `check` still passes.
fn proof_from_json(v: &Value) -> Option<crate::prover::UntestableProof> {
    use crate::prover::{ConflictClause, ProofKind, UntestableProof};
    let frames = v.get_u64("frames")? as usize;
    let kind = match v.get_str("kind")? {
        "constant_line" => ProofKind::ConstantLine {
            value: v.get("value")?.as_bool()?,
        },
        "no_propagation_path" => ProofKind::NoPropagationPath,
        "ctrl_refuted" => ProofKind::CtrlRefuted,
        _ => return None,
    };
    let mut clauses = Vec::new();
    for clause in v.get("clauses")?.as_arr()? {
        let mut objectives = Vec::new();
        for o in clause.as_arr()? {
            let [frame, net, value] = o.as_arr()? else {
                return None;
            };
            objectives.push((
                u32::try_from(frame.as_u64()?).ok()?,
                u32::try_from(net.as_u64()?).ok()?,
                value.as_u64()? != 0,
            ));
        }
        clauses.push(ConflictClause { objectives });
    }
    Some(UntestableProof {
        frames,
        kind,
        clauses,
    })
}

/// Reads the persisted counter delta back; entries written before the
/// delta existed (or whose generation counted nothing) load as all-zero.
fn counters_from_json(v: &Value) -> Option<CounterDelta> {
    let mut d = CounterDelta::default();
    if let Some(pairs) = v.get("counters").and_then(Value::as_arr) {
        for pair in pairs {
            let [name, value] = pair.as_arr()? else {
                return None;
            };
            // Unknown names (a newer writer) are skipped, not fatal.
            if let Some(c) = Counter::from_name(name.as_str()?) {
                let idx = COUNTERS.iter().position(|&k| k == c)?;
                d.counts[idx] = value.as_u64()?;
            }
        }
    }
    if let Some(phases) = v.get("phases").and_then(Value::as_arr) {
        for (i, pair) in phases.iter().enumerate().take(PHASES.len()) {
            let [ns, calls] = pair.as_arr()? else {
                return None;
            };
            d.phase_ns[i] = ns.as_u64()?;
            d.phase_calls[i] = calls.as_u64()?;
        }
    }
    Some(d)
}

fn test_case_from_json(v: &Value) -> Option<TestCase> {
    let words: Vec<u32> = v
        .get("program")?
        .as_arr()?
        .iter()
        .map(|w| w.as_u64().and_then(|w| u32::try_from(w).ok()))
        .collect::<Option<_>>()?;
    let instrs: Vec<Instr> = words
        .iter()
        .map(|&w| Instr::decode(w).ok())
        .collect::<Option<_>>()?;
    let pair = |x: &Value| -> Option<(u64, u64)> {
        let a = x.as_arr()?;
        match a {
            [addr, val] => Some((addr.as_u64()?, val.as_u64()?)),
            _ => None,
        }
    };
    let imem_image: Vec<(u64, u32)> = v
        .get("imem")?
        .as_arr()?
        .iter()
        .map(|x| {
            let (a, w) = pair(x)?;
            Some((a, u32::try_from(w).ok()?))
        })
        .collect::<Option<_>>()?;
    let dmem_image: Vec<(u64, u64)> = v
        .get("dmem")?
        .as_arr()?
        .iter()
        .map(pair)
        .collect::<Option<_>>()?;
    Some(TestCase {
        program: Program { base: 0, instrs },
        imem_image,
        dmem_image,
        core_len: v.get_u64("core_len")? as usize,
        length: v.get_u64("length")? as usize,
        detected_cycle: v.get_u64("detected_cycle")? as usize,
        backtracks: v.get_u64("backtracks")? as usize,
        variant: v.get_u64("variant")? as usize,
        relax_iterations: v.get_u64("relax_iterations")? as usize,
    })
}

fn reason_from_json(v: &Value) -> Option<AbortReason> {
    let phase = v.get_str("failed_phase").unwrap_or("");
    Some(match v.get_str("reason")? {
        "no_path" => AbortReason::NoPath,
        "control_justification" => AbortReason::ControlJustification,
        "assembly" => AbortReason::Assembly,
        "value_selection" => AbortReason::ValueSelection,
        "bad_encoding" => AbortReason::BadEncoding,
        "step_budget" => AbortReason::StepBudget {
            phase: match phase {
                "ctrljust" => Phase::Ctrljust,
                "dprelax" => Phase::Dprelax,
                _ => Phase::Dptrace,
            },
        },
        "panicked" => AbortReason::Panicked {
            phase: static_phase(phase),
            payload: v.get_str("payload").unwrap_or("").to_string(),
        },
        _ => return None,
    })
}

/// Maps a stored phase name back onto the static strings the live
/// generator uses, so a resumed record compares equal to a fresh one.
fn static_phase(s: &str) -> &'static str {
    match s {
        "dptrace" => "dptrace",
        "ctrljust" => "ctrljust",
        "assembly" => "assembly",
        "dprelax" => "dprelax",
        "generate" => "generate",
        "campaign" => "campaign",
        _ => "unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_abort() -> CheckpointEntry {
        CheckpointEntry {
            outcome: Outcome::Aborted {
                reason: AbortReason::Panicked {
                    phase: "ctrljust",
                    payload: "chaos(ctrljust): injected \"panic\"".to_string(),
                },
                backtracks: 7,
            },
            redundant: false,
            seconds: 0.125,
            counters: CounterDelta::default(),
        }
    }

    #[test]
    fn abort_roundtrips_through_json() {
        let entry = sample_abort();
        let line = entry_to_json(42, 1, &entry);
        let v = jsonv::parse(&line).expect("line parses");
        let ((id, round), back) = entry_from_json(&v).expect("entry loads");
        assert_eq!((id, round), (42, 1));
        assert!(
            !line.contains("redundant"),
            "the inert flag is not persisted"
        );
        assert_eq!(back.seconds, entry.seconds);
        match (&back.outcome, &entry.outcome) {
            (
                Outcome::Aborted {
                    reason: a,
                    backtracks: ab,
                },
                Outcome::Aborted {
                    reason: b,
                    backtracks: bb,
                },
            ) => {
                assert_eq!(a, b);
                assert_eq!(ab, bb);
            }
            _ => panic!("outcome kind changed"),
        }
    }

    /// A panic payload is arbitrary text — quotes, backslashes, control
    /// characters, newlines, even JSON-shaped content. The entry line must
    /// stay one well-formed JSONL record and the payload must round-trip
    /// byte for byte.
    #[test]
    fn hostile_panic_payload_roundtrips() {
        let hostile = "quote\" back\\slash \n\r\t \u{1}\u{7f} {\"fake\": [\"json\"]} 😀";
        let entry = CheckpointEntry {
            outcome: Outcome::Aborted {
                reason: AbortReason::Panicked {
                    phase: "dptrace",
                    payload: hostile.to_string(),
                },
                backtracks: 0,
            },
            redundant: false,
            seconds: 0.0,
            counters: CounterDelta::default(),
        };
        let line = entry_to_json(7, 0, &entry);
        assert!(!line.contains('\n'), "JSONL entries must be single lines");
        let v = jsonv::parse(&line).expect("hostile payload stays parseable");
        let (_, back) = entry_from_json(&v).expect("entry loads");
        match back.outcome {
            Outcome::Aborted {
                reason: AbortReason::Panicked { payload, .. },
                ..
            } => assert_eq!(payload, hostile),
            other => panic!("outcome changed: {other:?}"),
        }
    }

    #[test]
    fn counter_delta_roundtrips_through_json() {
        let mut entry = sample_abort();
        entry.counters.counts[0] = 3; // dptrace_calls
        entry.counters.counts[4] = 120; // ctrljust_decisions
        entry.counters.phase_ns = [1_000, 2_000, 0];
        entry.counters.phase_calls = [1, 2, 0];
        let line = entry_to_json(9, 0, &entry);
        let v = jsonv::parse(&line).expect("line parses");
        let (_, back) = entry_from_json(&v).expect("entry loads");
        assert_eq!(back.counters, entry.counters);
        // Zero deltas stay off the wire entirely.
        let lean = entry_to_json(9, 0, &sample_abort());
        assert!(!lean.contains("\"counters\""));
        let v = jsonv::parse(&lean).expect("lean line parses");
        let (_, back) = entry_from_json(&v).expect("lean entry loads");
        assert!(back.counters.is_zero());
    }

    #[test]
    fn torn_tail_and_foreign_lines_are_skipped() {
        let dir = std::env::temp_dir().join("hltg_ckpt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torn.jsonl");
        let _ = std::fs::remove_file(&path);
        {
            let log = CheckpointLog::open(&path, "fp-1").unwrap();
            log.record(1, 0, &sample_abort());
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            // A kill mid-write leaves a torn line; a stray non-checkpoint
            // line must not confuse the loader either.
            write!(f, "not json at all\n{{\"ck\": 1, \"id\": 2, \"rou").unwrap();
        }
        let log = CheckpointLog::open(&path, "fp-1").unwrap();
        assert_eq!(log.resumed(), 1);
        assert_eq!(log.skipped_lines(), 2);
        assert!(log.lookup(1, 0).is_some());
        assert!(log.lookup(2, 0).is_none());
        // And a different fingerprint refuses to open.
        let err = CheckpointLog::open(&path, "fp-2").expect_err("mismatch");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let _ = std::fs::remove_file(&path);
    }

    /// Entries a campaign refuses to trust (a certificate failing its
    /// re-check) leave the loaded set and count as unusable lines.
    #[test]
    fn discarded_entries_count_as_unusable() {
        let dir = std::env::temp_dir().join("hltg_ckpt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("discard.jsonl");
        let _ = std::fs::remove_file(&path);
        {
            let log = CheckpointLog::open(&path, "fp-d").unwrap();
            log.record(1, 0, &sample_abort());
            log.record(2, 0, &sample_abort());
        }
        let mut log = CheckpointLog::open(&path, "fp-d").unwrap();
        assert_eq!(log.discard_unless(|id, _, _| id != 2), 1);
        assert_eq!(log.resumed(), 1);
        assert_eq!(log.skipped_lines(), 1);
        assert!(log.lookup(1, 0).is_some());
        assert!(
            log.lookup(2, 0).is_none(),
            "a discarded entry is regenerated"
        );
        let _ = std::fs::remove_file(&path);
    }

    /// Regression: a worker that panics while holding the file lock used
    /// to poison it, and the old `lock().expect(..)` then cascaded the
    /// panic into every later append from every surviving worker. The
    /// log must instead recover the guard and keep appending.
    #[test]
    fn poisoned_file_lock_recovers() {
        let dir = std::env::temp_dir().join("hltg_ckpt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("poison.jsonl");
        let _ = std::fs::remove_file(&path);
        let log = CheckpointLog::open(&path, "fp-p").unwrap();
        let poisoner = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = log.file.lock().unwrap();
            panic!("worker dies while appending");
        }));
        assert!(poisoner.is_err());
        assert!(log.file.is_poisoned(), "test must actually poison the lock");
        log.record(5, 0, &sample_abort());
        assert!(log.lookup(5, 0).is_some(), "entry published despite poison");
        drop(log);
        let back = CheckpointLog::open(&path, "fp-p").unwrap();
        assert_eq!(back.resumed(), 1, "entry persisted despite poison");
        let _ = std::fs::remove_file(&path);
    }

    /// Records are published to the live map as they are appended, so a
    /// sibling shard attempt sharing the log sees them without a reopen.
    #[test]
    fn recorded_entries_are_visible_live() {
        let dir = std::env::temp_dir().join("hltg_ckpt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("live.jsonl");
        let _ = std::fs::remove_file(&path);
        let log = CheckpointLog::open(&path, "fp-l").unwrap();
        assert_eq!(log.completed(), 0);
        log.record(3, 0, &sample_abort());
        log.record(3, 1, &sample_abort());
        assert_eq!(log.resumed(), 0, "resumed() counts the open-time load only");
        assert_eq!(log.completed(), 2);
        assert!(log.lookup(3, 1).is_some());
        let _ = std::fs::remove_file(&path);
    }

    /// Satellite: injected torn-write / disk-full faults on the append
    /// path lose no entries — the torn prefix is newline-terminated into
    /// a line the next open skips, and the append is retried.
    #[test]
    fn injected_append_faults_lose_no_entries() {
        let dir = std::env::temp_dir().join("hltg_ckpt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("iofaults.jsonl");
        let _ = std::fs::remove_file(&path);
        let mut log = CheckpointLog::open(&path, "fp-io").unwrap();
        log.set_io_chaos(CheckpointIoChaos {
            seed: 11,
            torn_permille: 350,
            full_permille: 250,
        });
        for id in 0..40 {
            log.record(id, 0, &sample_abort());
        }
        assert_eq!(log.completed(), 40);
        assert!(log.io_recoveries() > 0, "fault plan injected nothing");
        drop(log);
        let back = CheckpointLog::open(&path, "fp-io").unwrap();
        assert_eq!(back.resumed(), 40, "an injected fault lost an entry");
        assert!(
            back.skipped_lines() > 0,
            "no torn prefix reached the file; torn-write path untested"
        );
        let _ = std::fs::remove_file(&path);
    }
}
