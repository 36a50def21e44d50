//! The shared worker pool: claim, run, settle.
//!
//! All scheduler state lives in one mutex ([`Shared::state`]) with a
//! condvar for wakeups; attempts and finalizing merges run *outside*
//! the lock. A worker thread loops claim → run → settle:
//!
//! * **claim** picks the first runnable piece of work in job-id order —
//!   a pending shard whose backoff has expired, or a job whose
//!   generation is over and needs its finalizing merge.
//! * **run** executes [`Campaign::run_shard`] under `catch_unwind`,
//!   with a [`ShardObserver`] that heartbeats, streams `record` events,
//!   polls the cancel/condemned flags and takes the job's injected
//!   kills and stalls.
//! * **settle** classifies how the attempt ended. A completed shard may
//!   ready the job for finalization; a death (panic or injected kill)
//!   retires this thread, requeues the shard behind an exponential
//!   backoff — or degrades the job once the attempt budget is burned —
//!   and spawns a replacement worker.
//!
//! Respawned attempts resume from the checkpoint: completed chains
//! replay instantly (the log's live entry map), so a kill costs at most
//! the error that was in flight. The finalizing merge is a plain
//! single-threaded [`Campaign::run`] over the same checkpoint — every
//! generation is a replay hit, and the resulting report is
//! byte-identical to an uninterrupted run, which `tests/soak.rs` pins.

use crate::protocol::{Event, JobId, ServiceMetrics, Verdict};
use crate::queue::{DoneInfo, Job, JobPhase, ServiceChaos, ShardState};
use crate::supervisor::ServeConfig;
use hltg_core::instrument::Counters;
use hltg_core::{
    Campaign, CampaignConfig, CampaignReport, CheckpointLog, ErrorRecord, Outcome, RunOptions,
    ShardControl, ShardObserver,
};
use crate::build_model;
use hltg_errors::BusSslError;
use std::collections::BTreeMap;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Sentinel shard index marking a slot as busy with a finalizing merge
/// rather than a shard attempt. The supervisor exempts it from the
/// heartbeat deadline: the merge replays the checkpoint without
/// observer callbacks, so it has no natural beat.
pub(crate) const FINALIZE: usize = usize::MAX;

/// Per-worker-slot control block, shared between the worker thread and
/// the supervisor.
#[derive(Debug, Default)]
pub(crate) struct WorkerFlags {
    /// Last heartbeat, in milliseconds since the service epoch.
    pub beat_ms: AtomicU64,
    /// Set by the supervisor when the slot missed its deadline: the
    /// shard has been taken away and a replacement spawned; the thread
    /// must retire at its next boundary.
    pub condemned: AtomicBool,
}

impl WorkerFlags {
    fn beat(&self, now_ms: u64) {
        self.beat_ms.store(now_ms, Ordering::Relaxed);
    }
}

/// One worker slot. Slots are never removed — a dead slot keeps its
/// index so `worker` fields in past events stay meaningful.
pub(crate) struct WorkerSlot {
    pub flags: Arc<WorkerFlags>,
    /// `(job id, shard index)` while running (`FINALIZE` for a merge).
    pub busy: Option<(u64, usize)>,
    pub alive: bool,
}

/// Cumulative service counters (lock-free; see
/// [`crate::protocol::ServiceMetrics`] for the snapshot).
#[derive(Debug, Default)]
pub(crate) struct ServiceCounters {
    pub jobs_submitted: AtomicU64,
    pub jobs_ok: AtomicU64,
    pub jobs_degraded: AtomicU64,
    pub jobs_cancelled: AtomicU64,
    pub shard_attempts: AtomicU64,
    pub shards_completed: AtomicU64,
    pub respawns: AtomicU64,
    pub stalls_detected: AtomicU64,
    pub chaos_kills: AtomicU64,
    pub chaos_stalls: AtomicU64,
    pub records_streamed: AtomicU64,
    pub errors_resumed: AtomicU64,
}

impl ServiceCounters {
    pub(crate) fn snapshot(&self) -> ServiceMetrics {
        let get = |a: &AtomicU64| a.load(Ordering::Relaxed);
        ServiceMetrics {
            jobs_submitted: get(&self.jobs_submitted),
            jobs_ok: get(&self.jobs_ok),
            jobs_degraded: get(&self.jobs_degraded),
            jobs_cancelled: get(&self.jobs_cancelled),
            shard_attempts: get(&self.shard_attempts),
            shards_completed: get(&self.shards_completed),
            respawns: get(&self.respawns),
            stalls_detected: get(&self.stalls_detected),
            chaos_kills: get(&self.chaos_kills),
            chaos_stalls: get(&self.chaos_stalls),
            records_streamed: get(&self.records_streamed),
            errors_resumed: get(&self.errors_resumed),
        }
    }
}

/// Everything behind the scheduler mutex.
pub(crate) struct State {
    pub jobs: BTreeMap<u64, Job>,
    pub next_job: u64,
    pub slots: Vec<WorkerSlot>,
    pub live_workers: usize,
    /// No new submissions; workers retire once every job is terminal.
    pub draining: bool,
    /// Workers and the supervisor retire at their next boundary.
    pub stop_now: bool,
}

impl State {
    pub(crate) fn all_terminal(&self) -> bool {
        self.jobs.values().all(Job::terminal)
    }
}

/// The service's shared core: configuration, scheduler state, event
/// channel and counters.
pub(crate) struct Shared {
    pub cfg: ServeConfig,
    pub epoch: Instant,
    pub state: Mutex<State>,
    pub work: Condvar,
    /// `None` once the service stopped (no further events).
    pub events: Mutex<Option<Sender<Event>>>,
    /// Worker/supervisor thread handles, joined at shutdown. Lock order:
    /// `state` before `handles`, never the reverse.
    pub handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
    pub counters: ServiceCounters,
}

impl Shared {
    pub(crate) fn lock_state(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    pub(crate) fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }

    pub(crate) fn emit(&self, ev: Event) {
        let guard = self.events.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(tx) = guard.as_ref() {
            let _ = tx.send(ev);
        }
    }
}

/// Spawns a new worker thread and its slot; `state` is already locked.
/// Returns the new slot index.
pub(crate) fn spawn_worker_locked(shared: &Arc<Shared>, st: &mut State) -> usize {
    let flags = Arc::new(WorkerFlags::default());
    flags.beat(shared.epoch.elapsed().as_millis() as u64);
    st.slots.push(WorkerSlot {
        flags,
        busy: None,
        alive: true,
    });
    st.live_workers += 1;
    let me = st.slots.len() - 1;
    let shared2 = Arc::clone(shared);
    let handle = std::thread::spawn(move || worker_main(shared2, me));
    shared
        .handles
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .push(handle);
    me
}

/// Marks slot `me` dead; `state` is already locked.
fn retire_locked(st: &mut State, me: usize) {
    if st.slots[me].alive {
        st.slots[me].alive = false;
        st.live_workers -= 1;
    }
    st.slots[me].busy = None;
}

/// What a worker claimed.
enum Task {
    Shard(u64, usize),
    Finalize(u64),
}

/// How a shard attempt ended, as classified by the observer and the
/// unwind boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AttemptEnd {
    /// Ran to the end of its range.
    Completed,
    /// The job's cancel flag stopped it (cancel request, degradation or
    /// immediate shutdown).
    Cancelled,
    /// The supervisor condemned this worker mid-attempt.
    Condemned,
    /// An injected chaos kill: the worker "dies" here.
    Killed,
    /// A real panic escaped the attempt.
    Crashed,
}

/// The worker thread body: claim → run → settle until retired.
pub(crate) fn worker_main(shared: Arc<Shared>, me: usize) {
    loop {
        let Some(task) = claim(&shared, me) else {
            return;
        };
        let keep_going = match task {
            Task::Shard(job, shard) => run_shard_attempt(&shared, me, job, shard),
            Task::Finalize(job) => {
                finalize_job(&shared, me, job);
                true
            }
        };
        if !keep_going {
            return;
        }
    }
}

/// Blocks until there is work for slot `me`, the pool is stopping, or
/// the drain completes. `None` retires the thread.
fn claim(shared: &Arc<Shared>, me: usize) -> Option<Task> {
    let mut st = shared.lock_state();
    loop {
        if st.stop_now || st.slots[me].flags.condemned.load(Ordering::Relaxed) {
            retire_locked(&mut st, me);
            shared.work.notify_all();
            return None;
        }
        if let Some(task) = pick(shared, &mut st, me) {
            return Some(task);
        }
        if st.draining && st.all_terminal() {
            retire_locked(&mut st, me);
            shared.work.notify_all();
            return None;
        }
        // A short timeout doubles as the backoff clock: parked shards
        // become claimable without an explicit wakeup.
        let (guard, _) = shared
            .work
            .wait_timeout(st, Duration::from_millis(5))
            .unwrap_or_else(PoisonError::into_inner);
        st = guard;
    }
}

/// First runnable piece of work in job-id order, marking it claimed.
fn pick(shared: &Arc<Shared>, st: &mut State, me: usize) -> Option<Task> {
    let now = Instant::now();
    let now_ms = shared.now_ms();
    let mut claimed = None;
    for job in st.jobs.values_mut() {
        match job.phase {
            JobPhase::Done | JobPhase::Finalizing => continue,
            JobPhase::FinalizeQueued => {
                job.phase = JobPhase::Finalizing;
                claimed = Some(Task::Finalize(job.id));
                break;
            }
            JobPhase::Running => {}
        }
        if job.cancel.load(Ordering::Relaxed) {
            // Cancelled (or degraded) mid-generation: fold up the queue.
            // Pending shards are abandoned here; once the last running
            // attempt drains, the job is ready for its partial report.
            for shard in &mut job.shards {
                if shard.state == ShardState::Pending {
                    shard.state = ShardState::Abandoned;
                }
            }
            if job.shards.iter().all(|s| s.state != ShardState::Running) {
                job.phase = JobPhase::Finalizing;
                claimed = Some(Task::Finalize(job.id));
                break;
            }
            continue;
        }
        let runnable = job.shards.iter_mut().enumerate().find(|(_, s)| {
            s.state == ShardState::Pending && s.not_before.is_none_or(|t| t <= now)
        });
        if let Some((idx, shard)) = runnable {
            shard.state = ShardState::Running;
            shard.attempts += 1;
            shard.not_before = None;
            claimed = Some(Task::Shard(job.id, idx));
            break;
        }
    }
    match &claimed {
        Some(Task::Shard(job, shard)) => {
            st.slots[me].busy = Some((*job, *shard));
            st.slots[me].flags.beat(now_ms);
            shared.counters.shard_attempts.fetch_add(1, Ordering::Relaxed);
        }
        Some(Task::Finalize(job)) => {
            st.slots[me].busy = Some((*job, FINALIZE));
            st.slots[me].flags.beat(now_ms);
        }
        None => {}
    }
    claimed
}

/// The observer a worker attempt drives [`Campaign::run_shard`] with.
struct WorkerObserver<'a> {
    shared: &'a Shared,
    flags: &'a WorkerFlags,
    cancel: &'a AtomicBool,
    chaos: Option<ServiceChaos>,
    job: JobId,
    shard: usize,
    attempt: u32,
    first_index: usize,
    worker: usize,
    end: AttemptEnd,
}

impl ShardObserver for WorkerObserver<'_> {
    fn before_error(&mut self, index: usize, _id: u64) -> ShardControl {
        self.flags.beat(self.shared.now_ms());
        if self.flags.condemned.load(Ordering::Relaxed) {
            self.end = AttemptEnd::Condemned;
            return ShardControl::Stop;
        }
        if self.cancel.load(Ordering::Relaxed) {
            self.end = AttemptEnd::Cancelled;
            return ShardControl::Stop;
        }
        if let Some(chaos) = self.chaos {
            if chaos.stalls(self.shard, self.attempt, index) {
                self.shared
                    .counters
                    .chaos_stalls
                    .fetch_add(1, Ordering::Relaxed);
                // Go silent: no heartbeat for the whole stall — the
                // supervisor's deadline detection must catch this.
                std::thread::sleep(chaos.stall);
                if self.flags.condemned.load(Ordering::Relaxed) {
                    self.end = AttemptEnd::Condemned;
                    return ShardControl::Stop;
                }
            }
            if chaos.kills(self.shard, self.attempt, index, self.first_index) {
                self.shared
                    .counters
                    .chaos_kills
                    .fetch_add(1, Ordering::Relaxed);
                self.end = AttemptEnd::Killed;
                return ShardControl::Stop;
            }
        }
        ShardControl::Continue
    }

    fn after_error(&mut self, index: usize, id: u64, outcome: &Outcome, round: u32, resumed: bool) {
        self.flags.beat(self.shared.now_ms());
        self.shared
            .counters
            .records_streamed
            .fetch_add(1, Ordering::Relaxed);
        if resumed {
            self.shared
                .counters
                .errors_resumed
                .fetch_add(1, Ordering::Relaxed);
        }
        self.shared.emit(Event::Record {
            job: self.job,
            index,
            id,
            round,
            detected: outcome.is_detected(),
            resumed,
            worker: self.worker,
        });
    }
}

/// Context cloned out of the locked state for one attempt.
struct AttemptCtx {
    config: CampaignConfig,
    design: String,
    range: Range<usize>,
    ckpt: Arc<CheckpointLog>,
    cancel: Arc<AtomicBool>,
    chaos: Option<ServiceChaos>,
    attempt: u32,
    flags: Arc<WorkerFlags>,
}

/// Runs one shard attempt end to end. Returns `false` when this worker
/// thread must retire (it "died": condemned, killed or crashed — a
/// replacement has been spawned where needed).
fn run_shard_attempt(shared: &Arc<Shared>, me: usize, job_id: u64, shard_idx: usize) -> bool {
    let ctx = {
        let st = shared.lock_state();
        let Some(job) = st.jobs.get(&job_id) else {
            return true;
        };
        AttemptCtx {
            config: job.config.clone(),
            design: job.spec.design.clone(),
            range: job.shards[shard_idx].range.clone(),
            ckpt: Arc::clone(&job.ckpt),
            cancel: Arc::clone(&job.cancel),
            chaos: job.chaos,
            attempt: job.shards[shard_idx].attempts,
            flags: Arc::clone(&st.slots[me].flags),
        }
    };
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let model = build_model(&ctx.design).expect("design validated at submit");
        let mut obs = WorkerObserver {
            shared: shared.as_ref(),
            flags: &ctx.flags,
            cancel: &ctx.cancel,
            chaos: ctx.chaos,
            job: JobId(job_id),
            shard: shard_idx,
            attempt: ctx.attempt,
            first_index: ctx.range.start,
            worker: me,
            end: AttemptEnd::Completed,
        };
        Campaign::run_shard(
            model.as_ref(),
            &ctx.config,
            ctx.range.clone(),
            &ctx.ckpt,
            &mut obs,
        );
        obs.end
    }));
    let end = outcome.unwrap_or(AttemptEnd::Crashed);
    settle(shared, me, job_id, shard_idx, end)
}

/// Books the end of an attempt back into the scheduler state. Returns
/// `false` when the worker thread must retire.
fn settle(shared: &Arc<Shared>, me: usize, job_id: u64, shard_idx: usize, end: AttemptEnd) -> bool {
    let mut st = shared.lock_state();
    st.slots[me].busy = None;
    if st.slots[me].flags.condemned.load(Ordering::Relaxed) || end == AttemptEnd::Condemned {
        // The supervisor already requeued the shard and spawned a
        // replacement; whatever this attempt managed is safely in the
        // checkpoint. Just retire.
        retire_locked(&mut st, me);
        shared.work.notify_all();
        return false;
    }
    let Some(job) = st.jobs.get_mut(&job_id) else {
        return true;
    };
    let mut retire = false;
    match end {
        AttemptEnd::Condemned => unreachable!("handled above"),
        AttemptEnd::Completed => {
            job.shards[shard_idx].state = ShardState::Done;
            shared
                .counters
                .shards_completed
                .fetch_add(1, Ordering::Relaxed);
            if job.shards.iter().all(|s| s.state == ShardState::Done) {
                job.phase = JobPhase::FinalizeQueued;
            }
        }
        AttemptEnd::Cancelled => {
            job.shards[shard_idx].state = ShardState::Abandoned;
            // pick() completes the fold-up and queues the finalize.
        }
        AttemptEnd::Killed | AttemptEnd::Crashed => {
            let reason = if end == AttemptEnd::Killed { "kill" } else { "crash" };
            requeue_or_degrade_locked(shared, job, shard_idx, me, reason);
            // The worker itself died with the attempt: retire this
            // thread and keep the pool at strength.
            retire_locked(&mut st, me);
            spawn_worker_locked(shared, &mut st);
            retire = true;
        }
    }
    shared.work.notify_all();
    !retire
}

/// After a worker death: park the shard behind an exponential backoff
/// for another attempt, or — once the attempt budget is burned — degrade
/// the whole job to a partial-results verdict. Also the supervisor's
/// path for condemned stalls. `state` is already locked (the `job` is a
/// borrow of it).
pub(crate) fn requeue_or_degrade_locked(
    shared: &Arc<Shared>,
    job: &mut Job,
    shard_idx: usize,
    worker: usize,
    reason: &'static str,
) {
    let attempts = job.shards[shard_idx].attempts;
    if attempts >= shared.cfg.max_attempts {
        job.degraded = true;
        job.cancel.store(true, Ordering::Relaxed);
        job.shards[shard_idx].state = ShardState::Abandoned;
        shared.emit(Event::Degraded {
            job: JobId(job.id),
            shard: shard_idx,
            attempts,
        });
        return;
    }
    let backoff = backoff_for(&shared.cfg, attempts);
    job.shards[shard_idx].state = ShardState::Pending;
    job.shards[shard_idx].not_before = Some(Instant::now() + backoff);
    shared.counters.respawns.fetch_add(1, Ordering::Relaxed);
    shared.emit(Event::Respawn {
        job: JobId(job.id),
        shard: shard_idx,
        worker,
        attempt: attempts,
        reason,
        backoff_ms: backoff.as_millis() as u64,
    });
}

/// Bounded exponential backoff: `base * 2^(attempts-1)`, capped.
fn backoff_for(cfg: &ServeConfig, attempts: u32) -> Duration {
    let factor = 1u32 << attempts.saturating_sub(1).min(16);
    cfg.backoff_base
        .saturating_mul(factor)
        .min(cfg.backoff_max)
}

/// Produces the job's terminal report. For a healthy job this is the
/// finalizing merge: a single-threaded [`Campaign::run`] over the shared
/// checkpoint — every generation replays, and the report is
/// byte-identical to an uninterrupted run. For a degraded or cancelled
/// job it is the checkpointed prefix, assembled without any generation.
fn finalize_job(shared: &Arc<Shared>, me: usize, job_id: u64) {
    let (config, design, name, ckpt, total, degraded, cancelled) = {
        let st = shared.lock_state();
        let Some(job) = st.jobs.get(&job_id) else {
            return;
        };
        (
            job.config.clone(),
            job.spec.design.clone(),
            job.spec.name.clone(),
            Arc::clone(&job.ckpt),
            job.total,
            job.degraded,
            job.cancelled || (job.cancel.load(Ordering::Relaxed) && !job.degraded),
        )
    };
    let healthy = !degraded && !cancelled;
    let done = catch_unwind(AssertUnwindSafe(|| {
        let model = build_model(&design).expect("design validated at submit");
        if healthy {
            let run = Campaign::run(model.as_ref(), &config, RunOptions::default());
            DoneInfo {
                verdict: Verdict::Ok,
                completed: total,
                total,
                report: run.report.to_json_deterministic(),
            }
        } else {
            let verdict = if degraded {
                Verdict::Degraded
            } else {
                Verdict::Cancelled
            };
            let (report, completed) = partial_report(model.as_ref(), &config, &ckpt);
            DoneInfo {
                verdict,
                completed,
                total,
                report,
            }
        }
    }))
    .unwrap_or_else(|_| DoneInfo {
        verdict: Verdict::Degraded,
        completed: 0,
        total,
        report: "{}".to_string(),
    });
    let counter = match done.verdict {
        Verdict::Ok => &shared.counters.jobs_ok,
        Verdict::Degraded => &shared.counters.jobs_degraded,
        Verdict::Cancelled => &shared.counters.jobs_cancelled,
    };
    counter.fetch_add(1, Ordering::Relaxed);
    shared.emit(Event::Done {
        job: JobId(job_id),
        name,
        verdict: done.verdict,
        completed: done.completed,
        total: done.total,
        report: done.report.clone(),
    });
    let mut st = shared.lock_state();
    if let Some(job) = st.jobs.get_mut(&job_id) {
        job.phase = JobPhase::Done;
        job.done = Some(done);
    }
    st.slots[me].busy = None;
    shared.work.notify_all();
}

/// The partial report of a degraded or cancelled job: one record per
/// target error whose round-0 outcome made it into the checkpoint, with
/// the retry chain walked exactly as the merge's retry pass would have.
/// No generation runs — this is pure bookkeeping over persisted entries,
/// so a crash-looping job still terminates promptly. A persisted
/// certificate is trusted only if it re-checks against the design, the
/// same test the finalizing merge applies when it opens the checkpoint;
/// one that fails leaves its error out, like a missing entry.
fn partial_report(
    model: &dyn hltg_netlist::ProcessorModel,
    config: &CampaignConfig,
    ckpt: &CheckpointLog,
) -> (String, usize) {
    let errors = Campaign::target_errors(model, config);
    let certified = |error: &BusSslError, outcome: &Outcome| match outcome {
        Outcome::ProvenUntestable(proof) => proof.check(model.design(), error),
        _ => true,
    };
    let mut records = Vec::new();
    for error in &errors {
        let id = u64::from(error.id.0);
        let Some(e0) = ckpt
            .lookup(id, 0)
            .filter(|e0| certified(error, &e0.outcome))
        else {
            continue;
        };
        let mut outcome = e0.outcome;
        let mut seconds = e0.seconds;
        let mut round = 0u32;
        while round < config.retry.rounds
            && !outcome.is_detected()
            && !outcome.is_proven_untestable()
        {
            match ckpt.lookup(id, round + 1) {
                Some(er) => {
                    round += 1;
                    seconds += er.seconds;
                    outcome = er.outcome;
                }
                None => break,
            }
        }
        records.push(ErrorRecord {
            error: error.clone(),
            outcome,
            redundant: false,
            by_simulation: false,
            seconds,
            round,
        });
    }
    let completed = records.len();
    let campaign = Campaign { records };
    let report = CampaignReport {
        stats: campaign.stats(),
        counters: Counters::new().snapshot(),
        wall_seconds: 0.0,
        num_threads: 1,
        deadline_exceeded: 0,
    };
    (report.to_json_deterministic(), completed)
}
