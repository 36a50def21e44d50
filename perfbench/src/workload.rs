//! The three campaign workloads, their set-up, and the re-finalization
//! from a completed checkpoint.

use crate::trace::{LayerProbe, SpanLog};
use hltg::core::instrument::CounterDelta;
use hltg::core::{CheckpointEntry, CheckpointLog, ErrorRecord, Probe};
use hltg::errors::{collapse_errors, BusSslError};
use hltg::prelude::*;
use hltg::sim::Schedule;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// A named campaign configuration, driven on one worker thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The classic five-stage `dlx`, all EX/MEM/WB errors, `table1`
    /// defaults: the paper's headline experiment.
    DlxTable1,
    /// The seven-stage `rv32-7` with error simulation on: the deepest
    /// pipeframe window and the heaviest packed screening.
    Rv32x7ErrSim,
    /// The four-stage `dlx-lite` in two legs: the first half with a
    /// checkpoint and the metrics timeline, then the full population
    /// resumed from that checkpoint.
    DlxLiteResume,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::DlxTable1,
        Workload::Rv32x7ErrSim,
        Workload::DlxLiteResume,
    ];

    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::DlxTable1 => "dlx-table1",
            Workload::Rv32x7ErrSim => "rv32-7-errsim",
            Workload::DlxLiteResume => "dlx-lite-resume",
        }
    }

    pub fn design(self) -> &'static str {
        match self {
            Workload::DlxTable1 => "dlx",
            Workload::Rv32x7ErrSim => "rv32-7",
            Workload::DlxLiteResume => "dlx-lite",
        }
    }

    /// The full-population configuration: `table1`'s defaults (error
    /// stages of the design, collapsing on) on one thread, with the
    /// generator seeded by `tg_seed`. Knobs whose defaults already hold
    /// (`sim_cache`, `packed_screen`, the `CTRLJUST` memo) are left
    /// unset, so retiring one does not change what a workload means.
    pub fn config(self, model: &dyn ProcessorModel, tg_seed: u64) -> CampaignConfig {
        let tg = TgConfig {
            seed: tg_seed,
            ..TgConfig::default()
        };
        CampaignConfig::builder()
            .stages(model.error_stages())
            .collapse(true)
            .error_simulation(self == Workload::Rv32x7ErrSim)
            .tg(tg)
            .threads(1)
            .build()
            .expect("workload configuration is valid")
    }
}

/// What every invocation pays before the campaign starts.
pub struct Setup {
    pub model: Box<dyn ProcessorModel>,
    pub errors: Vec<BusSslError>,
    pub classes: usize,
    pub schedule: Schedule,
}

/// Seconds spent in each set-up step of one [`setup`] call.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub build_model: f64,
    pub enumerate: f64,
    pub collapse: f64,
    pub schedule: f64,
}

impl SetupTimes {
    pub fn total(&self) -> f64 {
        self.build_model + self.enumerate + self.collapse + self.schedule
    }
}

/// Builds the design from the registry, enumerates and collapses its
/// target errors and levelizes its simulation schedule.
pub fn setup(w: Workload, tg_seed: u64) -> (Setup, SetupTimes) {
    let t0 = Instant::now();
    let model = hltg::netlist::registry::build_model(w.design()).expect("registered backend");
    let t1 = Instant::now();
    let config = w.config(model.as_ref(), tg_seed);
    let errors = Campaign::target_errors(model.as_ref(), &config);
    let t2 = Instant::now();
    let classes = collapse_errors(model.design(), &errors).len();
    let t3 = Instant::now();
    let schedule = Schedule::build(model.design()).expect("design levelizes");
    let t4 = Instant::now();
    let times = SetupTimes {
        build_model: (t1 - t0).as_secs_f64(),
        enumerate: (t2 - t1).as_secs_f64(),
        collapse: (t3 - t2).as_secs_f64(),
        schedule: (t4 - t3).as_secs_f64(),
    };
    (
        Setup {
            model,
            errors,
            classes,
            schedule,
        },
        times,
    )
}

/// One campaign leg: its result and the wall clock of its
/// `Campaign::run` call.
pub struct Leg {
    pub run: CampaignRun,
    pub seconds: f64,
}

/// One complete execution of a workload's campaign.
pub struct Execution {
    pub legs: Vec<Leg>,
}

impl Execution {
    /// Wall clock of every leg together.
    pub fn seconds(&self) -> f64 {
        self.legs.iter().map(|l| l.seconds).sum()
    }

    /// The leg that produced the final report.
    pub fn last(&self) -> &CampaignRun {
        &self.legs.last().expect("at least one leg").run
    }
}

/// Where a traced execution records its spans.
pub struct Tracing<'a> {
    pub log: &'a SpanLog,
    pub probe: &'a LayerProbe<'a>,
    pub parent: u32,
}

fn run_leg<'p>(
    name: &'static str,
    model: &dyn ProcessorModel,
    config: &CampaignConfig,
    mut opts: RunOptions<'p>,
    tracing: Option<&Tracing<'p>>,
) -> Leg {
    let call = |opts: RunOptions<'_>| {
        let t0 = Instant::now();
        let run = Campaign::run(model, config, opts);
        Leg {
            seconds: t0.elapsed().as_secs_f64(),
            run,
        }
    };
    match tracing {
        None => call(opts),
        Some(t) => t.log.span(name, t.parent, |id| {
            t.probe.set_leg(id);
            let probe: &dyn Probe = t.probe;
            opts.probe = Some(probe);
            call(opts)
        }),
    }
}

/// Path of the workload's checkpoint inside the work directory.
pub fn checkpoint_path(w: Workload, work: &Path) -> PathBuf {
    work.join(format!("{}.ckpt.jsonl", w.name()))
}

/// Sampling interval of the metrics timeline on the checkpointed leg.
const METRICS_EVERY: usize = 8;

/// Runs the workload's campaign once, from a clean checkpoint.
pub fn execute(
    w: Workload,
    s: &Setup,
    tg_seed: u64,
    work: &Path,
    tracing: Option<&Tracing<'_>>,
) -> Execution {
    let model = s.model.as_ref();
    let config = w.config(model, tg_seed);
    if w != Workload::DlxLiteResume {
        let leg = run_leg("campaign", model, &config, RunOptions::default(), tracing);
        return Execution { legs: vec![leg] };
    }
    let path = checkpoint_path(w, work);
    let _ = std::fs::remove_file(&path);
    let full = CampaignConfig {
        checkpoint: Some(path),
        ..config
    };
    let first_half = CampaignConfig {
        limit: Some(s.errors.len() / 2),
        ..full.clone()
    };
    let write = RunOptions {
        metrics: Some(METRICS_EVERY),
        ..RunOptions::default()
    };
    let leg1 = run_leg("campaign.leg1", model, &first_half, write, tracing);
    let leg2 = run_leg(
        "campaign.leg2",
        model,
        &full,
        RunOptions::default(),
        tracing,
    );
    Execution {
        legs: vec![leg1, leg2],
    }
}

/// The configuration that re-finalizes the workload from its completed
/// checkpoint.
pub fn resume_config(
    w: Workload,
    model: &dyn ProcessorModel,
    tg_seed: u64,
    work: &Path,
) -> CampaignConfig {
    CampaignConfig {
        checkpoint: Some(checkpoint_path(w, work)),
        ..w.config(model, tg_seed)
    }
}

/// Makes sure the workload's completed checkpoint exists. The resume
/// workload wrote it in its legs; for the others it is written here from
/// the finished campaign's generated records (screened records are not
/// checkpointed, exactly as in a checkpointed run). Their persisted
/// counter deltas are empty, which changes the re-finalized counters but
/// not its deterministic report.
pub fn ensure_checkpoint(
    w: Workload,
    model: &dyn ProcessorModel,
    tg_seed: u64,
    work: &Path,
    records: &[ErrorRecord],
) {
    if w == Workload::DlxLiteResume {
        return;
    }
    let config = resume_config(w, model, tg_seed, work);
    let path = checkpoint_path(w, work);
    let _ = std::fs::remove_file(&path);
    let fingerprint = Campaign::checkpoint_fingerprint(model, &config.normalized());
    let log = CheckpointLog::open(&path, &fingerprint).expect("work directory is writable");
    for r in records.iter().filter(|r| !r.by_simulation) {
        log.record(
            u64::from(r.error.id.0),
            r.round,
            &CheckpointEntry {
                outcome: r.outcome.clone(),
                redundant: r.redundant,
                seconds: r.seconds,
                counters: CounterDelta::default(),
            },
        );
    }
}
