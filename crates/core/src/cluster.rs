//! Multi-process sharded fleet: a coordinator/worker split that extends
//! the [`Fleet`](crate::fleet::Fleet) determinism contract from threads
//! to processes.
//!
//! # Shape
//!
//! The coordinator spawns N worker processes (the same binary in
//! `--worker` mode, or any command speaking the protocol), shards the
//! job space deterministically across them ([`plan_shards`]), and drives
//! a line-framed protocol over each worker's stdin/stdout:
//!
//! ```text
//! coordinator -> worker   CTX <one-line context>          (once, first)
//! coordinator -> worker   JOB <id> <spec>
//! worker -> coordinator   OK <id> <nrows>\n<row>*nrows
//! worker -> coordinator   ERR <message>                   (fatal, exits)
//! coordinator -> worker   <stdin EOF>                     (clean shutdown)
//! ```
//!
//! Rows are opaque single lines; the campaign glue sends verdict CSV
//! rows, the diff glue sends tab-escaped [`DiffRun`]s. A job is one
//! *group* (a campaign tuple's pending cells, a diff tuple's schemes),
//! run as one co-sim bundle, exactly as on threads.
//!
//! # Scheduling: shards, stealing, leases
//!
//! Jobs are pre-sharded round-robin; each worker holds one in-flight job
//! (the *lease*) plus its queue. An idle worker first drains the orphan
//! pool (work reclaimed from dead workers), then its own queue, then
//! steals from the **back** of the longest live queue — stragglers lose
//! their tail, never their head. Because results are keyed by job id and
//! assembled in submission order, stealing never changes output bytes.
//!
//! # Death, reassignment, determinism
//!
//! A worker's death — `kill -9`, OOM, a torn frame, a garbage frame —
//! surfaces on its stdout (EOF, a partial line, or an unparseable
//! frame). The coordinator revokes the lease: the in-flight job and the
//! dead worker's queue move to the orphan pool and idle workers pick
//! them up. Every completed row is journalled by the coordinator through
//! the same [`campaign`](crate::campaign) journal the in-process runner
//! uses — the journal *is* the coordination substrate — so a kill of the
//! coordinator itself resumes exactly like a killed single-process
//! campaign. Rows are pure functions of their cell and the final CSV is
//! assembled by key in tuple-major order, so the bytes are identical at
//! any worker count, under any interleaving, steal pattern or mid-run
//! kill. An explicit `ERR` frame stays **fatal**: it reports a
//! deterministic worker-side failure that would fail identically on any
//! replacement, so retry-looping it would loop forever.
//!
//! # Failure accounting: backoff and quarantine
//!
//! Worker slots are fixed: a replacement process respawns *into* the
//! slot of the process it replaces (a new *generation*; stale events
//! from the predecessor are ignored). Each death increments the slot's
//! consecutive-failure count and schedules the respawn after a capped
//! exponential backoff ([`ClusterConfig::backoff_base`] doubling per
//! consecutive failure up to [`ClusterConfig::backoff_cap`]), while the
//! shared respawn budget lasts. A successful reply resets the count; a
//! slot reaching [`ClusterConfig::quarantine_after`] consecutive
//! failures is **permanently quarantined** — never respawned, its work
//! redistributed — so a poisoned slot (bad CPU, cursed cgroup, a chaos
//! profile with a grudge) degrades the fleet instead of eating the whole
//! respawn budget. The campaign completes on the survivors; only when
//! *no* slot is alive or pending respawn does the run fail.
//!
//! # Kill-test and chaos hooks
//!
//! Setting `TV_CLUSTER_KILL=<worker>@<jobs>` on the coordinator arranges
//! for the initial process in slot `<worker>` to SIGKILL *itself* upon
//! receiving its `<jobs>+1`-th job — before running it, so the job is
//! genuinely in flight when the worker dies. Respawned processes never
//! inherit the hook, so recovery is observable rather than a kill loop.
//! (The worker-side env var is `TV_CLUSTER_SELFKILL=<jobs>`.) Each
//! worker is told its slot via `TV_CLUSTER_SLOT=<index>`, which scripted
//! test workers use for per-slot behaviour. When a
//! [`chaos`](crate::chaos) plan is active, the coordinator derives a
//! per-`(slot, generation)` `TV_CHAOS` value for every spawn
//! ([`ChaosPlan::worker_env_value`](crate::chaos::ChaosPlan::worker_env_value)),
//! so workers fault deterministically but respawns do not replay their
//! predecessor's fatal schedule.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Read, Write};
use std::process::{Child, ChildStdin, Command, ExitCode, Stdio};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::time::{Duration, Instant};

use tv_timing::Voltage;

use crate::campaign::{run_bundle_caught, CampaignConfig, CampaignTuple};
use crate::diff::{diff_runs, report_from_runs, DiffConfig, DiffReport, DiffRun, DiffTuple};
use crate::schemes::Scheme;
use crate::workload::Workload;

/// Coordinator-side env var arming the kill-test hook (`<worker>@<jobs>`).
pub const KILL_ENV: &str = "TV_CLUSTER_KILL";

/// Worker-side env var the coordinator injects: SIGKILL self upon
/// receiving job number `<value>+1`.
pub const SELFKILL_ENV: &str = "TV_CLUSTER_SELFKILL";

/// Worker-side env var carrying the worker's slot index. Informational
/// for real workers; scripted test workers key per-slot behaviour on it.
pub const SLOT_ENV: &str = "TV_CLUSTER_SLOT";

/// Process-fleet construction parameters.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Worker processes to spawn (clamped to at least 1, and never more
    /// than there are jobs).
    pub procs: usize,
    /// Worker command line; empty means "this executable with
    /// `--worker`", which is what the harness binaries use.
    pub worker_cmd: Vec<String>,
    /// Replacement processes the coordinator may spawn after worker
    /// deaths before giving up.
    pub respawn_budget: usize,
    /// Consecutive failures (deaths with no completed job in between)
    /// after which a slot is permanently quarantined.
    pub quarantine_after: u32,
    /// Respawn backoff after a slot's first consecutive failure; doubles
    /// per further failure.
    pub backoff_base: Duration,
    /// Upper bound on the respawn backoff.
    pub backoff_cap: Duration,
}

impl ClusterConfig {
    /// A cluster of `procs` workers running the current executable in
    /// `--worker` mode.
    pub fn new(procs: usize) -> Self {
        ClusterConfig {
            procs: procs.max(1),
            worker_cmd: Vec::new(),
            respawn_budget: 2 * procs.max(1) + 2,
            quarantine_after: 3,
            backoff_base: Duration::from_millis(50),
            backoff_cap: Duration::from_secs(2),
        }
    }

    /// The worker `Command`, before protocol plumbing.
    fn command(&self) -> Result<Command, String> {
        if self.worker_cmd.is_empty() {
            let exe = std::env::current_exe()
                .map_err(|e| format!("cannot resolve current executable: {e}"))?;
            let mut cmd = Command::new(exe);
            cmd.arg("--worker");
            Ok(cmd)
        } else {
            let mut cmd = Command::new(&self.worker_cmd[0]);
            cmd.args(&self.worker_cmd[1..]);
            Ok(cmd)
        }
    }
}

/// Deterministic round-robin shard plan: job `j` lands in shard
/// `j % shards`. Pure, so the initial assignment is identical on every
/// run — only stealing (which cannot change output bytes) reacts to
/// timing.
pub fn plan_shards(jobs: usize, shards: usize) -> Vec<Vec<usize>> {
    let shards = shards.clamp(1, jobs.max(1));
    let mut plan: Vec<Vec<usize>> = vec![Vec::new(); shards];
    for j in 0..jobs {
        plan[j % shards].push(j);
    }
    plan
}

/// Counters from one coordinator run.
#[derive(Debug, Clone, Default)]
pub struct ClusterStats {
    /// Worker processes initially spawned.
    pub workers: usize,
    /// Worker deaths observed (kills, crashes, torn frames).
    pub deaths: usize,
    /// Replacement processes spawned.
    pub respawns: usize,
    /// Jobs stolen from another worker's queue.
    pub stolen: usize,
    /// Jobs reassigned out of dead workers (leases revoked + queues).
    pub reassigned: usize,
    /// Slots permanently quarantined after repeated consecutive failures.
    pub quarantined: usize,
    /// Coordinator wall-clock time.
    pub elapsed: Duration,
    /// Per-job `(job id, wall, worker slot)` in completion order. Wall
    /// time is coordinator-observed (dispatch to reply).
    pub timings: Vec<(usize, Duration, usize)>,
}

/// One worker process slot. Slots are fixed for the whole run; processes
/// respawn *into* their slot with a bumped generation.
struct Slot {
    child: Option<Child>,
    stdin: Option<ChildStdin>,
    queue: VecDeque<usize>,
    /// The lease: the dispatched job and when it left.
    inflight: Option<(usize, Instant)>,
    alive: bool,
    /// Bumped on every spawn into this slot; events tagged with an older
    /// generation come from a reaped predecessor and are ignored.
    generation: u64,
    /// Deaths since the last completed job.
    failures: u32,
    /// Permanently out of service; never respawned.
    quarantined: bool,
    /// A scheduled respawn (backoff expiry), serviced by the main loop.
    respawn_at: Option<Instant>,
}

impl Slot {
    fn vacant() -> Self {
        Slot {
            child: None,
            stdin: None,
            queue: VecDeque::new(),
            inflight: None,
            alive: false,
            generation: 0,
            failures: 0,
            quarantined: false,
            respawn_at: None,
        }
    }
}

/// What a worker's stdout reader thread reports back. Every event is
/// tagged with the generation the reader was spawned for, so a reply or
/// death from a replaced process cannot be misattributed to its
/// successor in the same slot.
enum Event {
    /// A complete `OK` frame with its rows.
    Reply {
        worker: usize,
        generation: u64,
        id: usize,
        rows: Vec<String>,
    },
    /// An explicit `ERR` frame — a deterministic worker-side failure,
    /// fatal to the whole run (it would fail identically on any
    /// replacement, so retry-looping it would loop forever).
    Fatal { worker: usize, msg: String },
    /// The process died: EOF, torn output, or a garbage frame (`garbage`
    /// carries the offending line when there was one).
    Dead {
        worker: usize,
        generation: u64,
        garbage: Option<String>,
    },
}

struct Coordinator<'a> {
    cluster: &'a ClusterConfig,
    ctx: &'a str,
    specs: &'a [String],
    tx: Sender<Event>,
    rx: Receiver<Event>,
    slots: Vec<Slot>,
    orphans: VecDeque<usize>,
    completed: Vec<bool>,
    done: usize,
    respawns_left: usize,
    kill_spec: Option<(usize, usize)>,
    stats: ClusterStats,
}

impl Coordinator<'_> {
    /// Spawns a worker process into slot `w` (bumping its generation) and
    /// sends it the context. `initial` spawns may receive the kill-test
    /// hook; respawns never do.
    fn spawn_into(&mut self, w: usize, initial: bool) -> Result<(), String> {
        self.slots[w].generation += 1;
        let generation = self.slots[w].generation;
        let mut cmd = self.cluster.command()?;
        cmd.stdin(Stdio::piped()).stdout(Stdio::piped());
        // Workers must never act as coordinators of their own sub-fleet,
        // and only the targeted initial slot self-kills.
        cmd.env_remove(KILL_ENV).env_remove(SELFKILL_ENV);
        cmd.env(SLOT_ENV, w.to_string());
        if initial {
            if let Some((target, jobs)) = self.kill_spec {
                if target == w {
                    cmd.env(SELFKILL_ENV, jobs.to_string());
                }
            }
        }
        // Under an active chaos plan, each (slot, generation) gets its
        // own derived schedule: deterministic faults, but a respawn never
        // replays its predecessor's fatal draw.
        if let Some(plan) = crate::chaos::active_plan() {
            cmd.env(crate::chaos::ENV, plan.worker_env_value(w, generation));
        }
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("cannot spawn worker {w}: {e}"))?;
        let mut stdin = child.stdin.take().expect("piped stdin");
        let stdout = child.stdout.take().expect("piped stdout");
        let tx = self.tx.clone();
        std::thread::spawn(move || read_worker(w, generation, stdout, &tx));
        // A write failure here means the child is already gone; the
        // reader thread will report Dead, so just drop the error.
        let _ = writeln!(stdin, "CTX {}", self.ctx).and_then(|()| stdin.flush());
        let slot = &mut self.slots[w];
        slot.child = Some(child);
        slot.stdin = Some(stdin);
        slot.inflight = None;
        slot.alive = true;
        Ok(())
    }

    /// Picks the next job for an idle worker: orphans (reclaimed work)
    /// first, then its own shard, then a steal from the back of the
    /// longest live queue.
    fn next_job(&mut self, w: usize) -> Option<usize> {
        if let Some(id) = self.orphans.pop_front() {
            return Some(id);
        }
        if let Some(id) = self.slots[w].queue.pop_front() {
            return Some(id);
        }
        let victim = (0..self.slots.len())
            .filter(|&v| v != w && self.slots[v].alive && !self.slots[v].queue.is_empty())
            .max_by_key(|&v| self.slots[v].queue.len())?;
        let id = self.slots[victim].queue.pop_back()?;
        self.stats.stolen += 1;
        Some(id)
    }

    /// Dispatches one job to an idle live worker, if any work remains.
    fn dispatch(&mut self, w: usize) {
        if !self.slots[w].alive || self.slots[w].inflight.is_some() {
            return;
        }
        let Some(id) = self.next_job(w) else { return };
        let line = format!("JOB {id} {}\n", self.specs[id]);
        let slot = &mut self.slots[w];
        let sent = slot
            .stdin
            .as_mut()
            .map(|s| s.write_all(line.as_bytes()).and_then(|()| s.flush()).is_ok())
            .unwrap_or(false);
        if sent {
            slot.inflight = Some((id, Instant::now()));
        } else {
            // EPIPE: the worker is dead; its reader thread will deliver
            // the Dead event. The job goes back to the pool untouched.
            self.orphans.push_front(id);
        }
    }

    /// Revokes a dead worker's lease and queue, redistributes the work,
    /// and either quarantines the slot (too many consecutive failures)
    /// or schedules a backed-off respawn while the budget lasts.
    fn handle_death(&mut self, w: usize, generation: u64, garbage: Option<String>) {
        if !self.slots[w].alive || self.slots[w].generation != generation {
            return; // already reaped, or an event from a replaced process
        }
        let slot = &mut self.slots[w];
        slot.alive = false;
        slot.stdin.take(); // close our end
        if let Some(mut child) = slot.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        slot.failures += 1;
        let failures = slot.failures;
        self.stats.deaths += 1;
        let mut reclaimed = 0usize;
        if let Some((id, _)) = slot.inflight.take() {
            self.orphans.push_front(id);
            reclaimed += 1;
        }
        while let Some(id) = slot.queue.pop_front() {
            self.orphans.push_back(id);
            reclaimed += 1;
        }
        self.stats.reassigned += reclaimed;
        if self.done >= self.specs.len() {
            return; // late death after all jobs finished
        }
        // Idle live workers absorb the orphans immediately.
        for v in 0..self.slots.len() {
            if self.orphans.is_empty() {
                break;
            }
            self.dispatch(v);
        }
        let live = self.slots.iter().filter(|s| s.alive).count();
        let cause = match garbage {
            Some(g) => {
                let g: String = one_line(&g).chars().take(80).collect();
                format!(" (garbage frame: {g})")
            }
            None => String::new(),
        };
        eprintln!(
            "[cluster] worker {w} died{cause}; {reclaimed} jobs reassigned, {live} workers live"
        );
        let slot = &mut self.slots[w];
        if failures >= self.cluster.quarantine_after {
            slot.quarantined = true;
            self.stats.quarantined += 1;
            eprintln!(
                "[cluster] worker {w} quarantined after {failures} consecutive failures"
            );
        } else if self.respawns_left > 0 {
            self.respawns_left -= 1;
            let delay = backoff_delay(self.cluster, failures);
            slot.respawn_at = Some(Instant::now() + delay);
            eprintln!(
                "[cluster] worker {w} respawning in {delay:?} (consecutive failure {failures})"
            );
        }
    }

    /// Spawns replacements whose backoff has expired.
    fn service_respawns(&mut self) -> Result<(), String> {
        let now = Instant::now();
        for w in 0..self.slots.len() {
            if self.slots[w].respawn_at.is_some_and(|t| t <= now) {
                self.slots[w].respawn_at = None;
                self.stats.respawns += 1;
                self.spawn_into(w, false)?;
                eprintln!("[cluster] respawned worker {w}");
                self.dispatch(w);
            }
        }
        Ok(())
    }

    /// Errors out when work remains but no slot is alive or pending
    /// respawn — every slot is quarantined or the budget ran dry.
    fn check_liveness(&self) -> Result<(), String> {
        if self.done >= self.specs.len()
            || self
                .slots
                .iter()
                .any(|s| s.alive || s.respawn_at.is_some())
        {
            return Ok(());
        }
        let quarantined = self.slots.iter().filter(|s| s.quarantined).count();
        Err(format!(
            "all workers died with {} jobs unfinished \
             ({quarantined} slots quarantined, respawn budget exhausted)",
            self.specs.len() - self.done,
        ))
    }
}

/// Capped exponential backoff: `base * 2^(failures-1)`, at most `cap`.
fn backoff_delay(cluster: &ClusterConfig, failures: u32) -> Duration {
    let exp = failures.saturating_sub(1).min(16);
    cluster
        .backoff_base
        .saturating_mul(1u32 << exp)
        .min(cluster.backoff_cap)
}

/// The stdout reader for one worker process: turns frames into
/// [`Event`]s, all tagged with the process's generation. Runs on its own
/// thread; exits on EOF, a fatal frame, or a garbage frame.
///
/// A *garbage* frame — anything that isn't a well-formed `OK`/`ERR` — is
/// reported as a death, not a fatal error: it means the process's output
/// stream can no longer be trusted (chaos injection, a stray print, a
/// corrupted buffer), which is a property of that process, not of the
/// job. The job is reassigned and the slot's failure accounting decides
/// whether to respawn or quarantine. Only an explicit well-formed `ERR`
/// frame is fatal, because it reports a deterministic failure.
fn read_worker(worker: usize, generation: u64, stdout: impl Read, tx: &Sender<Event>) {
    let mut reader = BufReader::new(stdout);
    let mut line = String::new();
    let dead = |garbage: Option<String>| {
        let _ = tx.send(Event::Dead {
            worker,
            generation,
            garbage,
        });
    };
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => return dead(None),
            Ok(_) if !line.ends_with('\n') => {
                // A torn final line: the process died mid-write.
                return dead(None);
            }
            Ok(_) => {}
        }
        let frame = line.trim_end_matches('\n');
        if let Some(rest) = frame.strip_prefix("OK ") {
            let parsed = rest
                .split_once(' ')
                .and_then(|(id, n)| Some((id.parse::<usize>().ok()?, n.parse::<usize>().ok()?)));
            let Some((id, nrows)) = parsed else {
                return dead(Some(frame.to_string()));
            };
            let mut rows = Vec::with_capacity(nrows);
            for _ in 0..nrows {
                let mut row = String::new();
                match reader.read_line(&mut row) {
                    Ok(n) if n > 0 && row.ends_with('\n') => {
                        row.pop();
                        rows.push(row);
                    }
                    _ => return dead(None),
                }
            }
            if tx
                .send(Event::Reply {
                    worker,
                    generation,
                    id,
                    rows,
                })
                .is_err()
            {
                return; // coordinator gone
            }
        } else if let Some(msg) = frame.strip_prefix("ERR ") {
            let _ = tx.send(Event::Fatal {
                worker,
                msg: msg.to_string(),
            });
            return;
        } else {
            return dead(Some(frame.to_string()));
        }
    }
}

/// Runs `specs` (one opaque spec line per job) across the process fleet
/// and hands each job's reply rows to `on_group(job_id, rows)` exactly
/// once, in completion order. Job ids index `specs`; callers key their
/// results by id, so completion order never affects output.
///
/// # Errors
///
/// Returns an error when no worker can be (re)spawned, when every worker
/// is dead with work remaining and the respawn budget is spent, when a
/// worker reports a fatal `ERR` frame, or when `on_group` rejects a
/// reply. Transient worker deaths are *not* errors — their work is
/// reassigned.
pub fn run_groups<F>(
    cluster: &ClusterConfig,
    ctx: &str,
    specs: &[String],
    mut on_group: F,
) -> Result<ClusterStats, String>
where
    F: FnMut(usize, &[String]) -> Result<(), String>,
{
    let total = specs.len();
    let started = Instant::now();
    if total == 0 {
        return Ok(ClusterStats::default());
    }
    let workers = cluster.procs.clamp(1, total);
    let kill_spec = std::env::var(KILL_ENV).ok().and_then(|v| {
        let (w, jobs) = v.split_once('@')?;
        Some((w.parse().ok()?, jobs.parse().ok()?))
    });
    let (tx, rx) = channel();
    let mut coord = Coordinator {
        cluster,
        ctx,
        specs,
        tx,
        rx,
        slots: Vec::with_capacity(workers),
        orphans: VecDeque::new(),
        completed: vec![false; total],
        done: 0,
        respawns_left: cluster.respawn_budget,
        kill_spec,
        stats: ClusterStats {
            workers,
            ..ClusterStats::default()
        },
    };

    let result = (|| -> Result<(), String> {
        for (w, queue) in plan_shards(total, workers).into_iter().enumerate() {
            coord.slots.push(Slot::vacant());
            coord.slots[w].queue = queue.into();
            coord.spawn_into(w, true)?;
        }
        for w in 0..workers {
            coord.dispatch(w);
        }
        while coord.done < total {
            coord.service_respawns()?;
            coord.check_liveness()?;
            let event = match coord.rx.recv_timeout(Duration::from_millis(20)) {
                Ok(event) => event,
                // Timeouts exist only to service pending respawns.
                Err(RecvTimeoutError::Timeout) => continue,
                Err(RecvTimeoutError::Disconnected) => {
                    return Err("every worker reader exited with jobs unfinished".to_string())
                }
            };
            match event {
                Event::Reply {
                    worker,
                    generation,
                    id,
                    rows,
                } => {
                    if coord.slots[worker].generation != generation
                        || !coord.slots[worker].alive
                    {
                        // A reply from a process already declared dead:
                        // its job was reassigned; the duplicate-complete
                        // guard below makes the race harmless, but the
                        // lease now belongs to a different process.
                        continue;
                    }
                    let Some((leased, t0)) = coord.slots[worker].inflight.take() else {
                        return Err(format!("worker {worker} replied without a lease"));
                    };
                    if leased != id {
                        return Err(format!(
                            "worker {worker} replied for job {id} while leasing {leased}"
                        ));
                    }
                    coord.slots[worker].failures = 0;
                    coord.stats.timings.push((id, t0.elapsed(), worker));
                    // A reassigned job can complete twice when a worker
                    // presumed dead had already sent its reply; the first
                    // reply won and was journalled, so drop duplicates.
                    if !coord.completed[id] {
                        coord.completed[id] = true;
                        coord.done += 1;
                        on_group(id, &rows)?;
                    }
                    coord.dispatch(worker);
                }
                Event::Fatal { worker, msg } => {
                    return Err(format!("worker {worker}: {msg}"));
                }
                Event::Dead {
                    worker,
                    generation,
                    garbage,
                } => coord.handle_death(worker, generation, garbage),
            }
        }
        Ok(())
    })();

    // Shutdown: close stdins (workers exit on EOF), then reap. On the
    // error path kill outright so a wedged worker cannot hang us.
    for slot in &mut coord.slots {
        slot.stdin.take();
        if let Some(child) = &mut slot.child {
            if result.is_err() {
                let _ = child.kill();
            }
            let _ = child.wait();
        }
    }
    result.map(|()| {
        coord.stats.elapsed = started.elapsed();
        coord.stats
    })
}

/// SIGKILLs the current process — the kill-test hook's exit. Never
/// returns; on non-unix targets it degrades to `abort`.
fn sigkill_self() -> ! {
    #[cfg(unix)]
    {
        extern "C" {
            fn kill(pid: i32, sig: i32) -> i32;
        }
        unsafe {
            kill(std::process::id() as i32, 9);
        }
        // Delivery is asynchronous in principle; never proceed past here.
        loop {
            std::thread::sleep(Duration::from_millis(10));
        }
    }
    #[cfg(not(unix))]
    std::process::abort();
}

/// Collapses a message to one protocol-safe line.
fn one_line(msg: &str) -> String {
    msg.replace(['\n', '\r'], " ")
}

/// The generic worker side of the protocol: parses the `CTX` line with
/// `parse_ctx`, then answers every `JOB` via `run_group(task, spec)`
/// until stdin closes. Harness binaries call this from their `--worker`
/// mode; the campaign and diff workers are wrappers over it.
///
/// Nothing else may write to stdout while this runs — a stray print
/// corrupts the framing (the coordinator treats it as fatal).
pub fn worker_loop<T, P, R>(parse_ctx: P, run_group: R) -> ExitCode
where
    P: FnOnce(&str) -> Result<T, String>,
    R: Fn(&T, &str) -> Result<Vec<String>, String>,
{
    let stdin = std::io::stdin();
    let mut lines = stdin.lock().lines();
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let selfkill: Option<u64> = std::env::var(SELFKILL_ENV)
        .ok()
        .and_then(|v| v.parse().ok());

    let Some(Ok(first)) = lines.next() else {
        return ExitCode::from(2); // EOF before context: nothing to do
    };
    let Some(ctx) = first.strip_prefix("CTX ") else {
        let _ = writeln!(out, "ERR expected CTX frame, got: {}", one_line(&first));
        return ExitCode::from(2);
    };
    let task = match parse_ctx(ctx) {
        Ok(task) => task,
        Err(e) => {
            let _ = writeln!(out, "ERR bad ctx: {}", one_line(&e));
            return ExitCode::from(2);
        }
    };

    let mut received = 0u64;
    for line in lines {
        let Ok(line) = line else { break };
        if line.is_empty() {
            continue;
        }
        let Some(rest) = line.strip_prefix("JOB ") else {
            let _ = writeln!(out, "ERR expected JOB frame, got: {}", one_line(&line));
            return ExitCode::from(2);
        };
        let (id, spec) = rest.split_once(' ').unwrap_or((rest, ""));
        if selfkill.is_some_and(|after| received >= after) {
            // The kill-test hook: die with this job leased but unrun.
            sigkill_self();
        }
        received += 1;
        if let Some(plan) = crate::chaos::active_plan() {
            use crate::chaos::Site;
            if plan.decide(Site::WorkerExit) {
                // Crash mid-job: the coordinator sees EOF with the lease
                // open and reassigns the job.
                std::process::exit(3);
            }
            if plan.decide(Site::WorkerGarbage) {
                // Corrupt the protocol stream, then die: the coordinator
                // must treat the slot as dead, never trust the frame.
                let _ = writeln!(out, "chaos-garbage-frame job={id} n={received}");
                let _ = out.flush();
                std::process::exit(4);
            }
            if plan.decide(Site::WorkerStall) {
                std::thread::sleep(plan.stall(Site::WorkerStall));
            }
        }
        let reply = match run_group(&task, spec) {
            Ok(rows) => {
                if let Some(bad) = rows.iter().find(|r| r.contains('\n')) {
                    let _ = writeln!(out, "ERR row contains newline: {}", one_line(bad));
                    return ExitCode::from(2);
                }
                let mut buf = format!("OK {id} {}\n", rows.len());
                for row in &rows {
                    buf.push_str(row);
                    buf.push('\n');
                }
                buf
            }
            Err(e) => {
                let _ = writeln!(out, "ERR job {id}: {}", one_line(&e));
                return ExitCode::from(2);
            }
        };
        if out.write_all(reply.as_bytes()).and_then(|()| out.flush()).is_err() {
            return ExitCode::from(2); // coordinator gone
        }
    }
    ExitCode::SUCCESS
}

// --- campaign glue ------------------------------------------------------

/// Runs one campaign job: `spec` lists the global cell indices of one
/// tuple's pending cells (tuple-major, so cell `c` is scheme
/// `c % schemes.len()` of tuple `c / schemes.len()`), run as one bundle.
/// A panic becomes the bundle's panic rows, as on the thread executor.
fn run_campaign_group(
    config: &CampaignConfig,
    tuples: &[CampaignTuple],
    schemes: &[Scheme],
    spec: &str,
) -> Result<Vec<String>, String> {
    let cells: Vec<usize> = spec
        .split(',')
        .filter(|s| !s.is_empty())
        .map(|s| {
            s.parse::<usize>()
                .ok()
                .filter(|&c| c < tuples.len() * schemes.len())
                .ok_or_else(|| format!("cell index out of range: {s}"))
        })
        .collect::<Result<_, _>>()?;
    let Some(&first) = cells.first() else {
        return Err("empty job group".to_string());
    };
    let t = first / schemes.len();
    if cells.iter().any(|&c| c / schemes.len() != t) {
        return Err(format!("job group spans tuples: {spec}"));
    }
    let tuple = &tuples[t];
    let group: Vec<Scheme> = cells.iter().map(|&c| schemes[c % schemes.len()]).collect();
    Ok(run_bundle_caught(tuple, &group, config))
}

/// The campaign worker process body (`campaign --worker`,
/// `serve --worker`): speaks the cluster protocol until stdin closes.
pub fn campaign_worker() -> ExitCode {
    worker_loop(
        |ctx| {
            let ctx = ctx
                .strip_prefix("campaign ")
                .ok_or_else(|| format!("not a campaign ctx: {ctx}"))?;
            let config = CampaignConfig::from_ctx(ctx)?;
            Ok((config, config.generate_tuples(), config.schemes()))
        },
        |(config, tuples, schemes), spec| run_campaign_group(config, tuples, schemes, spec),
    )
}

// --- diff glue ----------------------------------------------------------

/// Escapes a wire field: `\` -> `\\`, tab -> `\t`, newline -> `\n`.
fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\t', "\\t").replace('\n', "\\n")
}

/// Inverse of [`escape`].
fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('t') => out.push('\t'),
            Some('n') => out.push('\n'),
            Some(c) => out.push(c),
            None => out.push('\\'),
        }
    }
    out
}

/// Looks a scheme up by its stable [`Scheme::name`].
fn scheme_from_name(name: &str) -> Option<Scheme> {
    Scheme::ALL
        .iter()
        .copied()
        .chain(std::iter::once(Scheme::NoTolerance))
        .find(|s| s.name() == name)
}

/// Serializes one [`DiffRun`] as a tab-separated wire line.
fn diff_run_to_wire(run: &DiffRun) -> String {
    let violation = match &run.first_violation {
        None => "none".to_string(),
        Some(v) => format!("some:{}", escape(v)),
    };
    let oracle = match run.oracle_clean {
        None => "-",
        Some(true) => "1",
        Some(false) => "0",
    };
    format!(
        "{}\t{}\t{}\t{}\t{}\t{}\t{:016x}\t{}\t{}\t{}\t{}\t{}",
        escape(&run.workload),
        run.vdd.volts(),
        run.seed,
        run.scheme.name(),
        run.commits,
        run.cycles,
        run.stream_hash,
        run.audit_cycles,
        run.audit_checks,
        run.audit_violations,
        violation,
        oracle,
    )
}

/// Parses a [`diff_run_to_wire`] line.
fn diff_run_from_wire(line: &str) -> Result<DiffRun, String> {
    let fields: Vec<&str> = line.split('\t').collect();
    if fields.len() != 12 {
        return Err(format!("diff wire row needs 12 fields, got {}", fields.len()));
    }
    let num = |i: usize| -> Result<u64, String> {
        fields[i]
            .parse::<u64>()
            .map_err(|_| format!("bad numeric field {i}: {}", fields[i]))
    };
    Ok(DiffRun {
        workload: unescape(fields[0]),
        vdd: Voltage::new(
            fields[1]
                .parse::<f64>()
                .map_err(|_| format!("bad vdd: {}", fields[1]))?,
        ),
        seed: num(2)?,
        scheme: scheme_from_name(fields[3]).ok_or_else(|| format!("unknown scheme: {}", fields[3]))?,
        commits: num(4)?,
        cycles: num(5)?,
        stream_hash: u64::from_str_radix(fields[6], 16)
            .map_err(|_| format!("bad stream hash: {}", fields[6]))?,
        audit_cycles: num(7)?,
        audit_checks: num(8)?,
        audit_violations: num(9)?,
        first_violation: match fields[10] {
            "none" => None,
            v => Some(
                v.strip_prefix("some:")
                    .map(unescape)
                    .ok_or_else(|| format!("bad violation field: {v}"))?,
            ),
        },
        oracle_clean: match fields[11] {
            "-" => None,
            "1" => Some(true),
            "0" => Some(false),
            v => return Err(format!("bad oracle field: {v}")),
        },
    })
}

/// Renders the audit level as a ctx word.
fn audit_word(audit: tv_audit::AuditLevel) -> &'static str {
    match audit {
        tv_audit::AuditLevel::Off => "off",
        tv_audit::AuditLevel::Basic => "basic",
        tv_audit::AuditLevel::Full => "full",
    }
}

/// Serializes a differential sweep as a one-line worker context.
///
/// # Errors
///
/// Rejects workload names the line framing cannot carry (whitespace,
/// `|`, `;` — e.g. a file path with spaces).
fn diff_ctx(tuples: &[DiffTuple], cfg: &DiffConfig) -> Result<String, String> {
    let mut tuple_words = Vec::with_capacity(tuples.len());
    for t in tuples {
        let name = t.workload.name();
        if name.contains(|c: char| c.is_whitespace() || c == '|' || c == ';') {
            return Err(format!(
                "workload name `{name}` cannot cross the cluster protocol \
                 (contains whitespace, `|` or `;`)"
            ));
        }
        tuple_words.push(format!("{name}|{}|{}", t.vdd.volts(), t.seed));
    }
    let schemes: Vec<&str> = cfg.schemes.iter().map(|s| s.name()).collect();
    Ok(format!(
        "diff commits={} warmup={} audit={} oracle={} schemes={} tuples={}",
        cfg.commits,
        cfg.warmup,
        audit_word(cfg.audit),
        u8::from(cfg.oracle),
        schemes.join(","),
        tuple_words.join(";"),
    ))
}

/// Parses a [`diff_ctx`] line back into tuples plus configuration.
fn parse_diff_ctx(ctx: &str) -> Result<(Vec<DiffTuple>, DiffConfig), String> {
    let ctx = ctx
        .strip_prefix("diff ")
        .ok_or_else(|| format!("not a diff ctx: {ctx}"))?;
    let mut cfg = DiffConfig::default();
    let mut tuples = Vec::new();
    for word in ctx.split_whitespace() {
        let (key, value) = word
            .split_once('=')
            .ok_or_else(|| format!("malformed ctx word: {word}"))?;
        match key {
            "commits" => cfg.commits = value.parse().map_err(|_| format!("bad commits: {value}"))?,
            "warmup" => cfg.warmup = value.parse().map_err(|_| format!("bad warmup: {value}"))?,
            "audit" => {
                cfg.audit = match value {
                    "off" => tv_audit::AuditLevel::Off,
                    "basic" => tv_audit::AuditLevel::Basic,
                    "full" => tv_audit::AuditLevel::Full,
                    other => return Err(format!("bad audit level: {other}")),
                }
            }
            "oracle" => cfg.oracle = value == "1",
            "schemes" => {
                cfg.schemes = value
                    .split(',')
                    .map(|n| scheme_from_name(n).ok_or_else(|| format!("unknown scheme: {n}")))
                    .collect::<Result<_, _>>()?;
            }
            "tuples" => {
                for t in value.split(';').filter(|t| !t.is_empty()) {
                    let mut parts = t.split('|');
                    let (Some(name), Some(vdd), Some(seed), None) =
                        (parts.next(), parts.next(), parts.next(), parts.next())
                    else {
                        return Err(format!("malformed tuple: {t}"));
                    };
                    tuples.push(DiffTuple {
                        workload: Workload::parse(name)?,
                        vdd: Voltage::new(
                            vdd.parse::<f64>().map_err(|_| format!("bad vdd: {vdd}"))?,
                        ),
                        seed: seed.parse().map_err(|_| format!("bad seed: {seed}"))?,
                    });
                }
            }
            other => return Err(format!("unknown ctx field: {other}")),
        }
    }
    if tuples.is_empty() {
        return Err("diff ctx carries no tuples".to_string());
    }
    Ok((tuples, cfg))
}

/// The diff worker process body (`audit_diff --worker`).
pub fn diff_worker() -> ExitCode {
    worker_loop(
        |ctx| parse_diff_ctx(&format!("diff {ctx}")).or_else(|_| parse_diff_ctx(ctx)),
        |(tuples, cfg), spec| {
            let ti: usize = spec
                .parse()
                .map_err(|_| format!("bad tuple index: {spec}"))?;
            let tuple = tuples
                .get(ti)
                .ok_or_else(|| format!("tuple index out of range: {ti}"))?;
            Ok(diff_runs(tuple, cfg).iter().map(diff_run_to_wire).collect())
        },
    )
}

/// [`run_differential`](crate::diff::run_differential) on a process
/// fleet: one job per tuple, results reassembled in submission order
/// (tuples outer, schemes inner), so the report is identical to the
/// in-process harness at any worker count.
///
/// # Errors
///
/// Unrecoverable cluster failures and protocol errors; individual
/// worker deaths are reassigned, not surfaced.
pub fn run_differential_cluster(
    cluster: &ClusterConfig,
    tuples: &[DiffTuple],
    cfg: &DiffConfig,
) -> Result<DiffReport, String> {
    let ctx = diff_ctx(tuples, cfg)?;
    let specs: Vec<String> = (0..tuples.len()).map(|i| i.to_string()).collect();
    let mut groups: Vec<Option<Vec<DiffRun>>> = vec![None; tuples.len()];
    run_groups(cluster, &ctx, &specs, |gid, rows| {
        let runs: Vec<DiffRun> = rows
            .iter()
            .map(|r| diff_run_from_wire(r))
            .collect::<Result<_, _>>()?;
        if runs.len() != cfg.schemes.len() {
            return Err(format!(
                "tuple {gid} returned {} runs for {} schemes",
                runs.len(),
                cfg.schemes.len(),
            ));
        }
        groups[gid] = Some(runs);
        Ok(())
    })?;
    let runs: Vec<DiffRun> = groups
        .into_iter()
        .flat_map(|g| g.expect("every tuple replied"))
        .collect();
    Ok(report_from_runs(runs, cfg))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_plan_is_round_robin_and_total() {
        let plan = plan_shards(10, 3);
        assert_eq!(plan.len(), 3);
        assert_eq!(plan[0], vec![0, 3, 6, 9]);
        assert_eq!(plan[1], vec![1, 4, 7]);
        assert_eq!(plan[2], vec![2, 5, 8]);
        let mut all: Vec<usize> = plan.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, (0..10).collect::<Vec<_>>());
        // Never more shards than jobs, never fewer than one.
        assert_eq!(plan_shards(2, 8).len(), 2);
        assert_eq!(plan_shards(0, 4).len(), 1);
        assert_eq!(plan_shards(5, 0).len(), 1);
        assert_eq!(plan_shards(5, 1), vec![(0..5).collect::<Vec<_>>()]);
    }

    #[test]
    fn campaign_ctx_round_trips() {
        let mut cfg = CampaignConfig::smoke();
        cfg.include_control = false;
        let parsed = CampaignConfig::from_ctx(&cfg.to_ctx()).expect("round trip");
        assert_eq!(parsed, cfg);
        assert_eq!(parsed.meta_line(), cfg.meta_line());

        assert!(CampaignConfig::from_ctx("seed=1").is_err(), "missing fields");
        assert!(CampaignConfig::from_ctx("nonsense").is_err());
        let err = CampaignConfig::from_ctx(
            "seed=x tuples=1 commits=1 warmup=0 watchdog=1 control=1 riscv=0",
        )
        .expect_err("bad number");
        assert!(err.contains("seed"), "{err}");
    }

    #[test]
    fn diff_ctx_and_wire_round_trip() {
        let cfg = DiffConfig {
            commits: 1234,
            warmup: 56,
            audit: tv_audit::AuditLevel::Basic,
            schemes: vec![Scheme::FaultFree, Scheme::Cds, Scheme::NoTolerance],
            oracle: true,
        };
        let tuples = vec![
            DiffTuple {
                workload: Workload::parse("gcc").unwrap(),
                vdd: Voltage::low_fault(),
                seed: 7,
            },
            DiffTuple {
                workload: Workload::builtin("matmul").unwrap(),
                vdd: Voltage::high_fault(),
                seed: 8,
            },
        ];
        let ctx = diff_ctx(&tuples, &cfg).expect("serializable");
        let (t2, c2) = parse_diff_ctx(&ctx).expect("parse back");
        assert_eq!(t2.len(), 2);
        assert_eq!(t2[0].workload.name(), "gcc");
        assert_eq!(t2[1].workload.name(), "riscv:matmul");
        assert_eq!(t2[0].vdd, tuples[0].vdd);
        assert_eq!(t2[1].seed, 8);
        assert_eq!(c2.commits, 1234);
        assert_eq!(c2.warmup, 56);
        assert_eq!(c2.schemes, cfg.schemes);
        assert!(c2.oracle);

        let run = DiffRun {
            workload: "riscv:matmul".to_string(),
            vdd: Voltage::low_fault(),
            seed: 9,
            scheme: Scheme::Abs,
            commits: 1000,
            cycles: 2500,
            stream_hash: 0xdead_beef_0123_4567,
            audit_cycles: 2500,
            audit_checks: 9000,
            audit_violations: 1,
            first_violation: Some("cycle 3: weird\ttab and\nnewline".to_string()),
            oracle_clean: Some(false),
        };
        let back = diff_run_from_wire(&diff_run_to_wire(&run)).expect("wire round trip");
        assert_eq!(back, run);
        assert!(!diff_run_to_wire(&run).contains('\n'), "wire rows are one line");

        let clean = DiffRun {
            first_violation: None,
            oracle_clean: None,
            ..run
        };
        assert_eq!(
            diff_run_from_wire(&diff_run_to_wire(&clean)).unwrap(),
            clean
        );
    }

    #[test]
    fn escape_round_trips() {
        for s in ["", "plain", "a\tb", "a\nb", "back\\slash", "\\t literal", "\\"] {
            assert_eq!(unescape(&escape(s)), s, "{s:?}");
        }
    }

    #[test]
    fn scheme_lookup_covers_all_and_control() {
        for s in Scheme::ALL.iter().copied().chain([Scheme::NoTolerance]) {
            assert_eq!(scheme_from_name(s.name()), Some(s));
        }
        assert_eq!(scheme_from_name("nope"), None);
    }

    /// A scripted POSIX-shell worker: obeys the protocol, echoes one row
    /// per job. Exercises the real spawn/pipe/reader machinery without
    /// simulating anything.
    #[cfg(unix)]
    fn echo_worker() -> Vec<String> {
        vec![
            "sh".to_string(),
            "-c".to_string(),
            // Read CTX, then answer every job with one derived row.
            "read ctx; while read cmd id spec; do echo \"OK $id 1\"; \
             echo \"row-$id-$spec\"; done"
                .to_string(),
        ]
    }

    #[cfg(unix)]
    #[test]
    fn run_groups_collects_every_job_at_any_worker_count() {
        let specs: Vec<String> = (0..13).map(|i| format!("s{i}")).collect();
        let mut reference: Vec<Option<String>> = vec![None; specs.len()];
        for procs in [1, 2, 4] {
            let mut cluster = ClusterConfig::new(procs);
            cluster.worker_cmd = echo_worker();
            let mut got: Vec<Option<String>> = vec![None; specs.len()];
            let stats = run_groups(&cluster, "test", &specs, |id, rows| {
                assert_eq!(rows.len(), 1);
                assert!(got[id].is_none(), "job {id} completed twice");
                got[id] = Some(rows[0].clone());
                Ok(())
            })
            .expect("cluster run");
            assert_eq!(stats.workers, procs.min(specs.len()));
            assert_eq!(stats.deaths, 0);
            assert_eq!(stats.timings.len(), specs.len());
            for (i, row) in got.iter().enumerate() {
                assert_eq!(row.as_deref(), Some(format!("row-{i}-s{i}").as_str()));
            }
            if procs == 1 {
                reference = got;
            } else {
                assert_eq!(got, reference, "results identical at procs={procs}");
            }
        }
    }

    /// A worker that dies (clean exit) after one job: every death path —
    /// lease revocation, queue reassignment, respawn — gets exercised,
    /// and all jobs still complete with the right rows.
    #[cfg(unix)]
    #[test]
    fn run_groups_reassigns_work_from_dying_workers() {
        let specs: Vec<String> = (0..9).map(|i| format!("s{i}")).collect();
        let mut cluster = ClusterConfig::new(3);
        cluster.respawn_budget = 32; // every respawn also dies after 1 job
        cluster.worker_cmd = vec![
            "sh".to_string(),
            "-c".to_string(),
            "read ctx; read cmd id spec; echo \"OK $id 1\"; echo \"row-$id\"; exit 0"
                .to_string(),
        ];
        let mut got: Vec<Option<String>> = vec![None; specs.len()];
        let stats = run_groups(&cluster, "test", &specs, |id, rows| {
            got[id] = Some(rows[0].clone());
            Ok(())
        })
        .expect("cluster survives serial worker deaths");
        for (i, row) in got.iter().enumerate() {
            assert_eq!(row.as_deref(), Some(format!("row-{i}").as_str()));
        }
        assert!(stats.deaths > 0, "workers died by construction");
        assert!(stats.respawns > 0, "deaths forced respawns");
    }

    /// Workers that die without ever completing work exhaust the respawn
    /// budget and surface an error instead of looping forever.
    #[cfg(unix)]
    #[test]
    fn run_groups_gives_up_when_no_worker_survives() {
        let specs = vec!["s0".to_string()];
        let mut cluster = ClusterConfig::new(1);
        cluster.respawn_budget = 2;
        cluster.worker_cmd = vec!["sh".to_string(), "-c".to_string(), "exit 1".to_string()];
        let err = run_groups(&cluster, "test", &specs, |_, _| Ok(()))
            .expect_err("all workers die instantly");
        assert!(err.contains("respawn budget"), "{err}");
    }

    #[test]
    fn backoff_doubles_per_failure_and_caps() {
        let mut cfg = ClusterConfig::new(1);
        cfg.backoff_base = Duration::from_millis(50);
        cfg.backoff_cap = Duration::from_millis(300);
        assert_eq!(backoff_delay(&cfg, 1), Duration::from_millis(50));
        assert_eq!(backoff_delay(&cfg, 2), Duration::from_millis(100));
        assert_eq!(backoff_delay(&cfg, 3), Duration::from_millis(200));
        assert_eq!(backoff_delay(&cfg, 4), Duration::from_millis(300));
        assert_eq!(backoff_delay(&cfg, 40), Duration::from_millis(300));
    }

    /// A slot whose every process dies instantly is quarantined after
    /// `quarantine_after` consecutive failures, and the run completes on
    /// the surviving slot — correctly and with the right rows.
    #[cfg(unix)]
    #[test]
    fn run_groups_quarantines_poisoned_slot_and_completes_on_survivors() {
        let specs: Vec<String> = (0..6).map(|i| format!("s{i}")).collect();
        let mut cluster = ClusterConfig::new(2);
        cluster.quarantine_after = 2;
        cluster.backoff_base = Duration::from_millis(1);
        cluster.worker_cmd = vec![
            "sh".to_string(),
            "-c".to_string(),
            // Slot 0 is poisoned: its process (and every respawn into the
            // slot) dies before speaking the protocol. The survivor works
            // slowly enough that slot 0 reaches its quarantine threshold
            // before the run finishes.
            "if [ \"$TV_CLUSTER_SLOT\" = 0 ]; then exit 1; fi; \
             read ctx; while read cmd id spec; do sleep 0.1; echo \"OK $id 1\"; echo \"row-$id\"; done"
                .to_string(),
        ];
        let mut got: Vec<Option<String>> = vec![None; specs.len()];
        let stats = run_groups(&cluster, "test", &specs, |id, rows| {
            got[id] = Some(rows[0].clone());
            Ok(())
        })
        .expect("campaign completes on the surviving slot");
        for (i, row) in got.iter().enumerate() {
            assert_eq!(row.as_deref(), Some(format!("row-{i}").as_str()));
        }
        assert_eq!(stats.quarantined, 1, "slot 0 permanently quarantined");
        assert!(stats.deaths >= 2, "slot 0 died at least quarantine_after times");
    }

    /// A garbage frame (unparseable protocol output) is a worker death —
    /// the job is reassigned to a replacement — not a fatal error.
    #[cfg(unix)]
    #[test]
    fn run_groups_treats_garbage_frames_as_death_not_fatal() {
        let marker =
            std::env::temp_dir().join(format!("tv-cluster-garbage-{}", std::process::id()));
        let _ = std::fs::remove_file(&marker);
        let specs = vec!["s0".to_string()];
        let mut cluster = ClusterConfig::new(1);
        cluster.backoff_base = Duration::from_millis(1);
        cluster.worker_cmd = vec![
            "sh".to_string(),
            "-c".to_string(),
            // First process corrupts the stream and dies; the respawn
            // (marker present) behaves.
            format!(
                "read ctx; if [ ! -e {m} ]; then : > {m}; echo 'chaos garbage %%%'; exit 0; fi; \
                 while read cmd id spec; do echo \"OK $id 1\"; echo \"row-$id\"; done",
                m = marker.display()
            ),
        ];
        let mut got: Vec<Option<String>> = vec![None; specs.len()];
        let stats = run_groups(&cluster, "test", &specs, |id, rows| {
            got[id] = Some(rows[0].clone());
            Ok(())
        })
        .expect("garbage frame is a death, not fatal");
        let _ = std::fs::remove_file(&marker);
        assert_eq!(got[0].as_deref(), Some("row-0"));
        assert_eq!(stats.deaths, 1);
        assert_eq!(stats.respawns, 1);
        assert_eq!(stats.quarantined, 0);
    }

    /// An ERR frame is fatal — deterministic worker-side failures abort
    /// the run instead of being retried on another worker.
    #[cfg(unix)]
    #[test]
    fn run_groups_treats_err_frames_as_fatal() {
        let specs = vec!["s0".to_string()];
        let mut cluster = ClusterConfig::new(1);
        cluster.worker_cmd = vec![
            "sh".to_string(),
            "-c".to_string(),
            "read ctx; read job; echo 'ERR deterministic failure'; exit 2".to_string(),
        ];
        let err = run_groups(&cluster, "test", &specs, |_, _| Ok(()))
            .expect_err("ERR frame is fatal");
        assert!(err.contains("deterministic failure"), "{err}");
    }

    #[test]
    fn empty_spec_list_is_a_no_op() {
        let cluster = ClusterConfig::new(4);
        // No workers are spawned at all, so even a bogus command works.
        let stats = run_groups(&cluster, "test", &[], |_, _| Ok(())).expect("no-op");
        assert_eq!(stats.workers, 0);
        assert_eq!(stats.timings.len(), 0);
    }
}
