//! The pipeline driver: fetch → decode → rename → dispatch → issue →
//! register read → execute/memory → writeback → retire.
//!
//! # Modelling notes (substitutions documented in DESIGN.md)
//!
//! * **Trace-driven**: instructions arrive pre-resolved from a
//!   [`WorkloadSource`] — the synthetic
//!   [`TraceGenerator`](tv_workloads::TraceGenerator) or a real RISC-V
//!   program. On a branch misprediction the machine does not
//!   fetch wrong-path instructions; fetch blocks until the branch resolves
//!   and then pays the redirect latency, reproducing the ~10-cycle
//!   misprediction loop of the Core-1 configuration.
//! * **Replay** (Razor-style recovery, paper §2.1.2): an unpredicted
//!   timing violation squashes the faulty instruction and everything
//!   younger, rolls back the rename state, and refetches from the trace.
//!   The replayed instance runs violation-free (the recovery restores the
//!   guard band).
//! * **Error Padding** (paper §5, baseline of [12, 13]): a predicted
//!   violation freezes the whole pipeline for one cycle while the faulty
//!   stage takes its second cycle.
//! * **Violation-aware scheduling** (the contribution, §3): the predicted
//!   faulty instruction takes one extra cycle in its faulty stage; the lane
//!   it occupies is frozen for one cycle (issue-slot management, FUSR,
//!   read-port blocking, writeback-slot recirculation); and its result
//!   broadcast is delayed so dependents are held back exactly one cycle.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use tv_audit::{AuditLevel, AuditReport, AuditSnapshot, Auditor};
use tv_tep::{Tep, TepConfig};
use tv_timing::{FaultCalibration, FaultModel, PipeStage, SensorModel, Voltage};
use tv_oracle::Semantics;
use tv_workloads::{Benchmark, OpClass, Profile, TraceInst, WorkloadSource, WorkloadSpec};

use crate::branch::BranchPredictor;
use crate::cache::CacheHierarchy;
use crate::cosim::{Feed, FedInst};
use crate::config::{CoreConfig, LaneKind, RecoveryModel};
use crate::exec::ExecUnits;
use crate::inflight::{InFlightInst, Queue, SlotId, Window};
use crate::issue_queue::IssueQueue;
use crate::lsq::Lsq;
use crate::policy::{AgeBasedSelect, IssueCandidate, SelectPolicy};
use crate::profile::{stage, timed_stage};
use crate::rename::RenameTable;
use crate::stats::SimStats;
use crate::stream::StreamMemo;
use crate::values::ValuePlane;
use crate::watchdog::{RobHeadDump, WatchdogError};

pub use tv_oracle::OracleReport;

/// How the machine tolerates timing violations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ToleranceMode {
    /// Golden run at nominal voltage: no faults occur.
    FaultFree,
    /// No prediction; every violation is corrected by instruction replay.
    Razor,
    /// Predicted violations stall the entire pipeline for one cycle
    /// (the baseline scheme of [12, 13]).
    ErrorPadding,
    /// The paper's violation-aware scheduling (VTE + delayed broadcast +
    /// slot freezing); selection priority comes from the [`SelectPolicy`].
    ViolationAware,
    /// Deliberately broken control: faults are injected but *nothing*
    /// tolerates them — no prediction, no stall, no replay. Violations
    /// survive to retirement and corrupt the committed value. Exists to
    /// prove the golden-model oracle detects corruption (it is not a real
    /// scheme and never appears in the paper's figures).
    NoTolerance,
}

impl ToleranceMode {
    /// Whether this mode uses the TEP.
    pub fn uses_predictor(self) -> bool {
        matches!(self, ToleranceMode::ErrorPadding | ToleranceMode::ViolationAware)
    }

    /// Whether this mode corrects violations at all ([`NoTolerance`]
    /// being the sole mode that lets them through).
    ///
    /// [`NoTolerance`]: ToleranceMode::NoTolerance
    pub fn tolerates(self) -> bool {
        self != ToleranceMode::NoTolerance
    }
}

/// Maximum occupancy of each inter-stage buffer.
const FRONT_BUF: usize = 8;

/// A pending event names its target instance by sequence number and
/// dispatch cycle. Under flush recovery a squashed instruction's refetched
/// twin reuses its seq (and so its window slot), but always dispatches
/// strictly later, so the squashed instance's events never fire on it.
#[derive(Debug, Clone, Copy)]
enum Event {
    /// A mispredicted branch resolves; fetch may redirect.
    Resolve { seq: u64, dispatched: u64 },
    /// An unpredicted timing violation is detected; replay.
    ReplayFault {
        seq: u64,
        dispatched: u64,
        stage: PipeStage,
    },
}

/// A scheduled [`Event`] in the pipeline's min-heap event queue. The
/// monotonic `order` counter preserves scheduling order among events that
/// fire in the same cycle (the order the old per-cycle `Vec` gave).
#[derive(Debug, Clone, Copy)]
struct ScheduledEvent {
    time: u64,
    order: u64,
    event: Event,
}

impl PartialEq for ScheduledEvent {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.order == other.order
    }
}

impl Eq for ScheduledEvent {}

impl PartialOrd for ScheduledEvent {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ScheduledEvent {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.order).cmp(&(other.time, other.order))
    }
}

/// Configures and builds a [`Pipeline`]. Fields are crate-visible so the
/// co-sim driver ([`crate::cosim::CoSim`]) can validate that a bundle of
/// builders is co-simulable and reuse the solo build path per lane.
pub struct PipelineBuilder {
    pub(crate) workload: WorkloadSpec,
    pub(crate) seed: u64,
    pub(crate) cfg: CoreConfig,
    pub(crate) mode: ToleranceMode,
    pub(crate) vdd: Voltage,
    pub(crate) policy: Option<Box<dyn SelectPolicy>>,
    pub(crate) tep_config: TepConfig,
    pub(crate) criticality_threshold: u32,
    pub(crate) sensor: Option<SensorModel>,
    pub(crate) fast_forward: u64,
    pub(crate) calibration: Option<FaultCalibration>,
    pub(crate) audit_level: AuditLevel,
    pub(crate) record_commits: bool,
    pub(crate) oracle: bool,
}

impl PipelineBuilder {
    /// Overrides the machine configuration (default: Core-1).
    pub fn config(mut self, cfg: CoreConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Sets the tolerance mode (default: [`ToleranceMode::FaultFree`]).
    pub fn tolerance(mut self, mode: ToleranceMode) -> Self {
        self.mode = mode;
        self
    }

    /// Sets the supply voltage (default: 1.04 V for faulty modes, nominal
    /// for fault-free).
    pub fn voltage(mut self, vdd: Voltage) -> Self {
        self.vdd = vdd;
        self
    }

    /// Sets the selection policy (default: age-based, ABS).
    pub fn policy(mut self, policy: Box<dyn SelectPolicy>) -> Self {
        self.policy = Some(policy);
        self
    }

    /// Overrides the TEP geometry.
    pub fn tep_config(mut self, cfg: TepConfig) -> Self {
        self.tep_config = cfg;
        self
    }

    /// Sets the CDL criticality threshold CT (default 8; paper §3.5.2).
    pub fn criticality_threshold(mut self, ct: u32) -> Self {
        self.criticality_threshold = ct;
        self
    }

    /// Installs a thermal/voltage sensor model (default: quiescent).
    pub fn sensor(mut self, sensor: SensorModel) -> Self {
        self.sensor = Some(sensor);
        self
    }

    /// Skips `n` trace instructions before simulation (SimPoint phase
    /// start).
    pub fn fast_forward(mut self, n: u64) -> Self {
        self.fast_forward = n;
        self
    }

    /// Overrides the fault calibration (default: the benchmark profile's
    /// Table 1 rates).
    pub fn calibration(mut self, cal: FaultCalibration) -> Self {
        self.calibration = Some(cal);
        self
    }

    /// Enables the cycle-level invariant auditor (default:
    /// [`AuditLevel::Off`], which costs nothing per cycle).
    pub fn audit(mut self, level: AuditLevel) -> Self {
        self.audit_level = level;
        self
    }

    /// Records the architectural commit stream — `(seq, pc, op)` per
    /// committed instruction — for differential scheme comparison
    /// (default: off).
    pub fn record_commits(mut self, enable: bool) -> Self {
        self.record_commits = enable;
        self
    }

    /// Enables the architectural value plane and golden-model oracle
    /// (default: off, which costs nothing per cycle): every committed
    /// destination value is checked against an independent in-order
    /// reference machine, and untolerated violations corrupt the victim's
    /// committed value so silent-data-corruption escapes are caught. See
    /// [`Pipeline::oracle_report`].
    pub fn oracle(mut self, enable: bool) -> Self {
        self.oracle = enable;
        self
    }

    /// Builds the pipeline: [`build_in`](Self::build_in) with a memo of
    /// its own, so the stream's program is generated once and the
    /// calibration probe walks a fork of the simulated stream.
    ///
    /// # Panics
    ///
    /// Panics if the machine configuration is invalid.
    pub fn build(self) -> Pipeline {
        self.build_in(&StreamMemo::new())
    }

    /// Builds the pipeline, taking its stream start and calibration
    /// counts from `memo` and computing there whichever this builder's
    /// (workload, seed, fast-forward) lacks. The result is bit-identical
    /// to [`build`](Self::build)'s.
    ///
    /// # Panics
    ///
    /// Panics if the machine configuration is invalid.
    pub fn build_in(self, memo: &StreamMemo) -> Pipeline {
        let (src, fault_model) = self.stream_from(memo);
        self.build_with(Feed::Direct(src), fault_model)
    }

    /// The fault calibration a build would use (explicit override or the
    /// workload profile's Table 1 rates).
    pub(crate) fn resolved_calibration(&self) -> FaultCalibration {
        self.calibration.unwrap_or_else(|| {
            let (rate_097, rate_104) = self.workload.fault_rates();
            FaultCalibration::from_rates(rate_097, rate_104)
        })
    }

    /// The sensor model a build would use (override or quiescent).
    pub(crate) fn resolved_sensor(&self) -> SensorModel {
        self.sensor.unwrap_or_else(SensorModel::quiescent)
    }

    /// This builder's stream from `memo`: a source at the simulated
    /// window's start, and (for a faulty mode) the fault model with its
    /// critical-PC set calibrated on the stream's probe counts. The memo
    /// entry is looked up by this builder's own (workload, seed,
    /// fast-forward). The co-sim driver calls this once per bundle and
    /// clones the model into each faulty lane, so a shared model is
    /// bit-identical to a solo one.
    pub(crate) fn stream_from(
        &self,
        memo: &StreamMemo,
    ) -> (Box<dyn WorkloadSource>, Option<FaultModel>) {
        let stream = memo.stream(&self.workload, self.seed, self.fast_forward);
        let fault_model = (self.mode != ToleranceMode::FaultFree).then(|| {
            FaultModel::calibrated(
                self.resolved_calibration(),
                self.vdd,
                self.seed,
                self.resolved_sensor(),
                stream.pc_counts().iter().copied(),
            )
        });
        (stream.source(), fault_model)
    }

    /// Builds the pipeline around an explicit instruction feed and fault
    /// model — the shared tail of [`build`](Self::build) (solo, direct
    /// feed) and the co-sim driver (shared-frontend cursor).
    pub(crate) fn build_with(self, gen: Feed, fault_model: Option<FaultModel>) -> Pipeline {
        self.cfg.validate();
        let semantics = match &self.workload {
            WorkloadSpec::Synthetic(_) => Semantics::Synthetic,
            WorkloadSpec::Riscv(program) => Semantics::Riscv(program.clone()),
        };
        let tep = self
            .mode
            .uses_predictor()
            .then(|| Tep::new(self.tep_config));
        let caches = CacheHierarchy::new(&self.cfg);
        let exec = ExecUnits::new(&self.cfg);
        let iq_entries = self.cfg.iq_entries;
        let phys_regs = self.cfg.phys_regs;
        // Everything in flight fits: the ROB plus three full front-end
        // queues.
        let window_slots = (self.cfg.rob_entries + 3 * FRONT_BUF).next_power_of_two();
        Pipeline {
            rename: RenameTable::new(self.cfg.phys_regs),
            iq: IssueQueue::new(self.cfg.iq_entries),
            lsq: Lsq::new(self.cfg.lsq_entries),
            bp: BranchPredictor::default_geometry(),
            policy: self.policy.unwrap_or_else(|| Box::new(AgeBasedSelect::new())),
            criticality_threshold: self.criticality_threshold,
            caches,
            exec,
            window: Window::new(window_slots, self.fast_forward),
            gen,
            workload_done: false,
            fault_model,
            tep,
            mode: self.mode,
            cfg: self.cfg,
            cycle: 0,
            refetch: VecDeque::new(),
            fetch_stall_until: 0,
            fetch_blocked_on: None,
            pending_ep_stalls: 0,
            pending_recovery_stalls: 0,
            stall_skip: 0,
            rename_stall_until: 0,
            dispatch_stall_until: 0,
            retire_stall_until: 0,
            events: BinaryHeap::with_capacity(64),
            event_order: 0,
            timestamp_counter: 0,
            last_fetch_line: u64::MAX,
            commit_limit: u64::MAX,
            stats: SimStats::default(),
            cycle_base: 0,
            freeze_base: 0,
            search_base: 0,
            cache_base: Default::default(),
            audit: self.audit_level.enabled().then(|| Auditor::new(self.audit_level)),
            audit_admits: [0; 3],
            audit_charges: Vec::new(),
            commit_log: self.record_commits.then(Vec::new),
            values: self.oracle.then(|| ValuePlane::new(phys_regs, semantics)),
            cand_buf: Vec::with_capacity(iq_entries),
        }
    }
}

/// The cycle-level out-of-order pipeline.
pub struct Pipeline {
    cfg: CoreConfig,
    mode: ToleranceMode,
    gen: Feed,
    /// The workload stream has ended (a finite RISC-V program halted).
    workload_done: bool,
    fault_model: Option<FaultModel>,
    tep: Option<Tep>,
    policy: Box<dyn SelectPolicy>,
    criticality_threshold: u32,
    bp: BranchPredictor,
    caches: CacheHierarchy,
    rename: RenameTable,
    iq: IssueQueue,
    lsq: Lsq,
    exec: ExecUnits,
    /// Every in-flight instruction: the ROB and the fetch, decode and
    /// rename queues are ranges of it.
    window: Window,
    cycle: u64,
    /// Squashed instructions awaiting refetch, in seq order, the first at
    /// the window's tail; `bool` = fault cleared.
    refetch: VecDeque<(TraceInst, bool)>,
    fetch_stall_until: u64,
    /// Sequence number of an unresolved mispredicted branch blocking fetch.
    fetch_blocked_on: Option<u64>,
    /// Whole-pipeline stall cycles owed by the EP scheme.
    pending_ep_stalls: u64,
    /// Whole-pipeline recovery bubbles owed by in-situ replays.
    pending_recovery_stalls: u64,
    /// Remaining interior cycles of a coalesced stall window whose
    /// timestamp shift was already applied up front (audit-off fast path).
    stall_skip: u64,
    /// TEP-driven stall signals for in-order stages (paper §2.2): the
    /// stage is held so a predicted-faulty instruction completes in two
    /// cycles while the other stages' inputs recirculate.
    rename_stall_until: u64,
    dispatch_stall_until: u64,
    retire_stall_until: u64,
    events: BinaryHeap<Reverse<ScheduledEvent>>,
    /// Monotonic tie-break for same-cycle events.
    event_order: u64,
    timestamp_counter: u8,
    last_fetch_line: u64,
    /// Retire stops once `committed` reaches this bound (set by `run`).
    commit_limit: u64,
    stats: SimStats,
    /// Measurement-window bases captured by `reset_stats`.
    cycle_base: u64,
    freeze_base: u64,
    search_base: u64,
    cache_base: (crate::cache::CacheStats, crate::cache::CacheStats),
    /// Invariant auditor, when enabled via the builder.
    audit: Option<Auditor>,
    /// Per-cycle stage admission counts [rename, dispatch, retire],
    /// maintained only while auditing.
    audit_admits: [u32; 3],
    /// In-order stall charges this cycle — `(stage, seq, admits at the
    /// charge)` — maintained only while auditing.
    audit_charges: Vec<(PipeStage, u64, u32)>,
    /// Architectural commit stream `(seq, pc, op)`, when recording.
    commit_log: Option<Vec<(u64, u64, u8)>>,
    /// Architectural value plane + golden-model oracle, when enabled via
    /// the builder ([`PipelineBuilder::oracle`]). `None` costs nothing.
    values: Option<ValuePlane>,
    /// Issue-candidate scratch buffer reused across cycles so the
    /// steady-state hot path allocates nothing.
    cand_buf: Vec<IssueCandidate>,
}

impl Pipeline {
    /// Starts a builder for one of the paper's SPEC CPU2006 benchmarks.
    pub fn builder(bench: Benchmark, seed: u64) -> PipelineBuilder {
        Self::builder_with_profile(bench.profile(), seed)
    }

    /// Starts a builder for an explicit synthetic workload profile.
    pub fn builder_with_profile(profile: Profile, seed: u64) -> PipelineBuilder {
        Self::builder_with_workload(WorkloadSpec::Synthetic(profile), seed)
    }

    /// Starts a builder for any workload — synthetic or a real RISC-V
    /// program.
    pub fn builder_with_workload(workload: WorkloadSpec, seed: u64) -> PipelineBuilder {
        PipelineBuilder {
            workload,
            seed,
            cfg: CoreConfig::core1(),
            mode: ToleranceMode::FaultFree,
            vdd: Voltage::low_fault(),
            policy: None,
            tep_config: TepConfig::paper_default(),
            criticality_threshold: 8,
            sensor: None,
            fast_forward: 0,
            calibration: None,
            audit_level: AuditLevel::Off,
            record_commits: false,
            oracle: false,
        }
    }

    /// Current cycle count.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Statistics so far.
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// Current occupancy of (issue queue, ROB, front-end buffers) — a
    /// bottleneck-analysis probe.
    pub fn occupancy(&self) -> (usize, usize, usize) {
        (
            self.iq.len(),
            self.window.len_of(Queue::Rob),
            self.frontend_len(),
        )
    }

    /// Runs until exactly `commits` more instructions have retired, then
    /// returns the final statistics. Retirement stops precisely at the
    /// target so runs of different schemes commit identical work.
    ///
    /// # Panics
    ///
    /// Panics if the pipeline deadlocks (an internal invariant violation).
    /// Campaign-style callers that must survive deadlocks should use
    /// [`try_run`](Pipeline::try_run) instead.
    pub fn run(&mut self, commits: u64) -> SimStats {
        self.try_run(commits)
            .unwrap_or_else(|e| panic!("pipeline deadlock: {e}"))
    }

    /// Like [`run`](Pipeline::run), but when nothing commits for
    /// [`CoreConfig::watchdog_cycles`] cycles the watchdog trips and the
    /// simulation returns a structured [`WatchdogError`] diagnostic dump
    /// instead of panicking — a crash-isolated experiment harness records
    /// it as a per-tuple verdict and carries on.
    ///
    /// # Errors
    ///
    /// Returns the watchdog dump (cycle, ROB-head state, queue occupancy,
    /// active stall state) when the commit watchdog trips.
    pub fn try_run(&mut self, commits: u64) -> Result<SimStats, WatchdogError> {
        let target = self.stats.committed + commits;
        self.commit_limit = target;
        let mut last_commit_cycle = self.cycle;
        let mut last_committed = self.stats.committed;
        let threshold = self.cfg.watchdog_cycles;
        while self.stats.committed < target {
            self.step();
            if self.stats.committed != last_committed {
                last_committed = self.stats.committed;
                last_commit_cycle = self.cycle;
            }
            if self.cycle - last_commit_cycle >= threshold {
                return Err(self.watchdog_error(last_commit_cycle));
            }
        }
        self.finalize_stats();
        Ok(self.stats.clone())
    }

    /// Whether a finite workload has ended *and* every in-flight
    /// instruction has drained: nothing more will ever commit. Synthetic
    /// workloads never drain.
    pub fn drained(&self) -> bool {
        self.workload_done && self.refetch.is_empty() && self.window.is_empty()
    }

    /// Occupancy of the fetch, decode and rename queues together.
    fn frontend_len(&self) -> usize {
        self.window.len() - self.window.len_of(Queue::Rob)
    }

    /// Runs a finite workload to its halt (or until `max_commits` more
    /// instructions retire, whichever comes first) and returns the final
    /// statistics.
    ///
    /// # Panics
    ///
    /// Panics if the pipeline deadlocks; see
    /// [`try_run_to_halt`](Pipeline::try_run_to_halt).
    pub fn run_to_halt(&mut self, max_commits: u64) -> SimStats {
        self.try_run_to_halt(max_commits)
            .unwrap_or_else(|e| panic!("pipeline deadlock: {e}"))
    }

    /// Like [`try_run`](Pipeline::try_run), but also stops — successfully —
    /// once the workload is [`drained`](Pipeline::drained), so real
    /// programs run to their `ecall` halt. The commit watchdog stays
    /// armed throughout.
    ///
    /// # Errors
    ///
    /// Returns the watchdog's diagnostic dump when nothing commits for
    /// [`CoreConfig::watchdog_cycles`] cycles.
    pub fn try_run_to_halt(&mut self, max_commits: u64) -> Result<SimStats, WatchdogError> {
        let target = self.stats.committed.saturating_add(max_commits);
        self.commit_limit = target;
        let mut last_commit_cycle = self.cycle;
        let mut last_committed = self.stats.committed;
        let threshold = self.cfg.watchdog_cycles;
        while self.stats.committed < target && !self.drained() {
            self.step();
            if self.stats.committed != last_committed {
                last_committed = self.stats.committed;
                last_commit_cycle = self.cycle;
            }
            if self.cycle - last_commit_cycle >= threshold {
                return Err(self.watchdog_error(last_commit_cycle));
            }
        }
        self.finalize_stats();
        Ok(self.stats.clone())
    }

    /// Sets the retire-stop bound directly. The co-sim driver sets it to
    /// the phase-final target once per phase — exactly as `try_run` does —
    /// then advances in chunks; setting it per chunk instead would clamp
    /// retire mid-phase and fork the cycle stream from a solo run.
    pub(crate) fn set_commit_limit(&mut self, limit: u64) {
        self.commit_limit = limit;
    }

    /// Advances the machine until `committed` reaches `milestone` (or,
    /// when `stop_at_drain`, the workload drains), carrying the caller's
    /// watchdog window across calls. The loop body is identical to
    /// `try_run`'s, so a chunked run steps the very same cycles.
    pub(crate) fn step_toward(
        &mut self,
        milestone: u64,
        stop_at_drain: bool,
        wd_last_commit_cycle: &mut u64,
        wd_last_committed: &mut u64,
    ) -> Result<(), WatchdogError> {
        let threshold = self.cfg.watchdog_cycles;
        while self.stats.committed < milestone && !(stop_at_drain && self.drained()) {
            self.step();
            if self.stats.committed != *wd_last_committed {
                *wd_last_committed = self.stats.committed;
                *wd_last_commit_cycle = self.cycle;
            }
            if self.cycle - *wd_last_commit_cycle >= threshold {
                return Err(self.watchdog_error(*wd_last_commit_cycle));
            }
        }
        Ok(())
    }

    /// Closes a chunked run phase (the co-sim analogue of the
    /// `finalize_stats` call at the end of `try_run`).
    pub(crate) fn finish_phase(&mut self) {
        self.finalize_stats();
    }

    /// Materializes the watchdog's diagnostic dump of the stuck machine.
    fn watchdog_error(&self, last_commit_cycle: u64) -> WatchdogError {
        let rob_head = self.window.front(Queue::Rob).map(|slot| {
            let inst = self.window.get(slot);
            RobHeadDump {
                seq: inst.seq(),
                pc: inst.trace.pc,
                op: inst.trace.op,
                issue_cycle: inst.issue_cycle,
                complete_cycle: inst.complete_cycle,
                predicted_fault: inst.predicted_fault,
                actual_fault: inst.actual_fault,
            }
        });
        WatchdogError {
            cycle: self.cycle,
            last_commit_cycle,
            threshold: self.cfg.watchdog_cycles,
            committed: self.stats.committed,
            next_commit_seq: self.window.head(),
            rob_head,
            rob_len: self.window.len_of(Queue::Rob),
            iq_len: self.iq.len(),
            lsq_occupancy: self.lsq.occupancy(),
            frontend_len: self.frontend_len(),
            pending_ep_stalls: self.pending_ep_stalls,
            pending_recovery_stalls: self.pending_recovery_stalls,
            fetch_blocked_on: self.fetch_blocked_on,
            rename_stall_until: self.rename_stall_until,
            dispatch_stall_until: self.dispatch_stall_until,
            retire_stall_until: self.retire_stall_until,
            fetch_stall_until: self.fetch_stall_until,
        }
    }

    fn finalize_stats(&mut self) {
        self.stats.cycles = self.cycle - self.cycle_base;
        self.stats.slot_freezes = self.exec.slot_freezes - self.freeze_base;
        self.stats.activity.lsq_searches = self.lsq.searches - self.search_base;
        let (l1d0, l20) = self.cache_base;
        let l1d = self.caches.l1d_stats;
        let l2 = self.caches.l2_stats;
        let rate = |acc: u64, miss: u64| if acc == 0 { 0.0 } else { miss as f64 / acc as f64 };
        self.stats.l1d_miss_rate = rate(l1d.accesses - l1d0.accesses, l1d.misses - l1d0.misses);
        self.stats.l2_miss_rate = rate(l2.accesses - l20.accesses, l2.misses - l20.misses);
        self.stats.activity.dcache_accesses = l1d.accesses - l1d0.accesses;
        self.stats.activity.l2_accesses = l2.accesses - l20.accesses;
        self.stats.activity.mem_accesses = l2.misses - l20.misses;
    }

    /// Warms the machine (caches, branch predictor, TEP) by running
    /// `commits` instructions, then resets the statistics so subsequent
    /// measurement excludes cold-start effects — the paper measures warmed
    /// SimPoint phases.
    pub fn warm_up(&mut self, commits: u64) {
        if commits == 0 {
            return;
        }
        let _ = self.run(commits);
        self.reset_stats();
    }

    /// Zeroes the statistics while keeping all machine state; in-flight
    /// instructions remain counted as fetched so the conservation
    /// invariant (`fetched = committed + squashed + in-flight`) holds.
    pub fn reset_stats(&mut self) {
        self.stats = SimStats::default();
        self.stats.fetched = self.window.len() as u64;
        self.cycle_base = self.cycle;
        self.freeze_base = self.exec.slot_freezes;
        self.search_base = self.lsq.searches;
        self.cache_base = (self.caches.l1d_stats, self.caches.l2_stats);
    }

    /// Advances the machine one clock cycle.
    pub fn step(&mut self) {
        self.cycle += 1;
        let now = self.cycle;
        if self.audit.is_some() {
            self.audit_admits = [0; 3];
            self.audit_charges.clear();
        }
        timed_stage!(stage::EVENTS, self.process_events(now));
        let mut global_stall = false;
        if self.stall_skip > 0 {
            // Interior cycle of a coalesced stall window: the timestamp
            // shift already happened up front, so only the per-cycle
            // stall accounting remains. No event can fire here (the
            // opening cycle's shift pushed them all past the window).
            self.stall_skip -= 1;
            if self.pending_recovery_stalls > 0 {
                self.pending_recovery_stalls -= 1;
                self.stats.recovery_stall_cycles += 1;
            } else {
                self.pending_ep_stalls -= 1;
                self.stats.ep_stall_cycles += 1;
            }
            global_stall = true;
        } else if self.pending_recovery_stalls > 0 || self.pending_ep_stalls > 0 {
            // Razor recovery bubbles / Error Padding: the pipeline
            // recirculates — everything still in flight (pending
            // completions, result broadcasts, lane releases, front-end
            // buffers and scheduled events) slips with the machine.
            //
            // Nothing can shorten or extend the window from inside it
            // (stages are idle and all events sit beyond it), so with the
            // auditor off the whole window's shift is applied in one walk
            // and the remaining cycles only keep the books. The auditor
            // snapshots machine state every cycle, so audited runs keep
            // the cycle-by-cycle shifts.
            if self.pending_recovery_stalls > 0 {
                self.pending_recovery_stalls -= 1;
                self.stats.recovery_stall_cycles += 1;
            } else {
                self.pending_ep_stalls -= 1;
                self.stats.ep_stall_cycles += 1;
            }
            let delta = if self.audit.is_none() {
                self.stall_skip = self.pending_recovery_stalls + self.pending_ep_stalls;
                1 + self.stall_skip
            } else {
                1
            };
            self.apply_global_stall(now, delta);
            global_stall = true;
        } else {
            timed_stage!(stage::RETIRE, self.retire(now));
            timed_stage!(stage::ISSUE, self.issue(now));
            timed_stage!(stage::DISPATCH, self.dispatch(now));
            timed_stage!(stage::RENAME, self.rename_stage(now));
            timed_stage!(stage::DECODE, self.decode(now));
            timed_stage!(stage::FETCH, self.fetch(now));
        }
        if self.audit.is_some() {
            timed_stage!(stage::AUDIT, self.run_audit(now, global_stall));
        }
    }

    /// Publishes this cycle's end-of-cycle snapshot to the auditor.
    fn run_audit(&mut self, now: u64, global_stall: bool) {
        let mut auditor = self.audit.take().expect("caller checked");
        // Hand the cycle's stall charges over instead of cloning them; the
        // buffer is cleared at the top of the next audited cycle anyway.
        let charges = std::mem::take(&mut self.audit_charges);
        let snapshot = self.audit_snapshot(now, global_stall, auditor.level(), charges);
        auditor.observe(snapshot);
        self.audit = Some(auditor);
    }

    /// Materializes the end-of-cycle snapshot. Only called while an
    /// auditor is attached; the Full-only vectors stay empty at Basic so
    /// the per-cycle cost tracks the audit level.
    fn audit_snapshot(
        &self,
        now: u64,
        global_stall: bool,
        level: AuditLevel,
        charges: Vec<(PipeStage, u64, u32)>,
    ) -> AuditSnapshot {
        let full = level == AuditLevel::Full;
        AuditSnapshot {
            cycle: now,
            global_stall,
            fetched: self.stats.fetched,
            committed: self.stats.committed,
            squashed: self.stats.squashed,
            in_flight: self.window.len() as u64,
            next_commit_seq: self.window.head(),
            rob_head_seq: self.window.front(Queue::Rob).map(|s| self.window.get(s).seq()),
            timestamp_counter: self.timestamp_counter,
            rename_stall_until: self.rename_stall_until,
            dispatch_stall_until: self.dispatch_stall_until,
            retire_stall_until: self.retire_stall_until,
            fetch_stall_until: self.fetch_stall_until,
            rename_admits: self.audit_admits[0],
            dispatch_admits: self.audit_admits[1],
            retire_admits: self.audit_admits[2],
            charges,
            store_seqs: self.lsq.store_seqs(),
            lsq_occupancy: self.lsq.occupancy(),
            lsq_capacity: self.lsq.capacity(),
            rob_seqs: if full {
                self.window
                    .range(Queue::Rob)
                    .map(|seq| self.window.get(self.window.slot(seq)).seq())
                    .collect()
            } else {
                Vec::new()
            },
            inflight_timestamps: if full {
                self.window
                    .range(Queue::Rob)
                    .map(|seq| self.window.get(self.window.slot(seq)).timestamp)
                    .collect()
            } else {
                Vec::new()
            },
            phys_regs: if full { self.rename.audit_phys() } else { Vec::new() },
            event_times: if full {
                let mut times: Vec<u64> =
                    self.events.iter().map(|Reverse(ev)| ev.time).collect();
                times.sort_unstable();
                times
            } else {
                Vec::new()
            },
            queue_ready: if full {
                [Queue::Fetched, Queue::Decoded, Queue::Renamed]
                    .into_iter()
                    .flat_map(|q| self.window.range(q))
                    .map(|seq| self.window.get(self.window.slot(seq)).ready)
                    .collect()
            } else {
                Vec::new()
            },
        }
    }

    /// The auditor's report so far, when auditing is enabled.
    pub fn audit_report(&self) -> Option<AuditReport> {
        self.audit.as_ref().map(|a| a.report())
    }

    /// The recorded architectural commit stream, when enabled.
    pub fn commit_log(&self) -> Option<&[(u64, u64, u8)]> {
        self.commit_log.as_deref()
    }

    /// The golden-model oracle's verdict over everything committed so far
    /// (value mismatches plus the final architectural register file
    /// comparison), when the oracle is enabled via
    /// [`PipelineBuilder::oracle`].
    pub fn oracle_report(&self) -> Option<OracleReport> {
        self.values.as_ref().map(ValuePlane::report)
    }

    /// The committed architectural register file, when the oracle is
    /// enabled. Under RISC-V semantics every entry is a zero-extended
    /// 32-bit value directly comparable with the standalone executor's.
    pub fn arch_regs(&self) -> Option<&[u64; 32]> {
        self.values.as_ref().map(ValuePlane::arch_regs)
    }

    /// The committed memory image as sorted `(address, word)` pairs, when
    /// the oracle is enabled.
    pub fn memory_image(&self) -> Option<Vec<(u64, u64)>> {
        self.values.as_ref().map(|v| v.memory().image())
    }

    /// Slips every pending future timestamp `delta` cycles later (the EP
    /// global stall: all pipeline latches recirculate).
    ///
    /// `delta == 1` is one recirculation stall cycle. Because each stall
    /// cycle shifts exactly the timestamps still beyond the *original*
    /// stall cycle `now` (a shifted timestamp stays beyond every later
    /// cycle of the window), a run of `delta` back-to-back stall cycles
    /// shifts the same set by `delta` — so the walk can be coalesced into
    /// one pass when the window length is known up front.
    fn apply_global_stall(&mut self, now: u64, delta: u64) {
        let rob = self.window.range(Queue::Rob);
        for seq in rob.end..self.window.tail() {
            let inst = self.window.get_mut(self.window.slot(seq));
            if inst.ready > now {
                inst.ready += delta;
            }
        }
        for seq in rob {
            let inst = self.window.get_mut(self.window.slot(seq));
            if let Some(c) = inst.complete_cycle {
                if c > now {
                    inst.complete_cycle = Some(c + delta);
                }
            }
            if let Some(w) = inst.wake_cycle {
                if w > now {
                    inst.wake_cycle = Some(w + delta);
                }
            }
        }
        self.rename.shift_pending_after(now, delta);
        self.exec.shift_pending_after(now, delta);
        if self.fetch_stall_until > now {
            self.fetch_stall_until += delta;
        }
        // The in-order stall deadlines recirculate too: a faulty stage's
        // second cycle must not silently elapse inside a global stall.
        for stall in [
            &mut self.rename_stall_until,
            &mut self.dispatch_stall_until,
            &mut self.retire_stall_until,
        ] {
            if *stall > now {
                *stall += delta;
            }
        }
        // Slip every still-pending event with the machine. All pending
        // events are strictly in the future here (this cycle's fired at
        // the top of `step`), and a uniform shift preserves heap order, so
        // the heap's backing vector can be shifted in place.
        let mut pending = std::mem::take(&mut self.events).into_vec();
        for Reverse(ev) in &mut pending {
            if ev.time > now {
                ev.time += delta;
            }
        }
        self.events = BinaryHeap::from(pending);
        // Pending broadcast wakeups slip identically (the rename table's
        // ready cycles just moved): re-arming happens lazily when each
        // stale event pops, so nothing to do for the issue queue here.
    }

    // --- events ------------------------------------------------------------

    fn schedule_event(&mut self, time: u64, event: Event) {
        self.event_order += 1;
        self.events.push(Reverse(ScheduledEvent {
            time,
            order: self.event_order,
            event,
        }));
    }

    fn process_events(&mut self, now: u64) {
        while let Some(&Reverse(ev)) = self.events.peek() {
            if ev.time > now {
                break;
            }
            debug_assert_eq!(ev.time, now, "event missed its cycle");
            self.events.pop();
            match ev.event {
                Event::Resolve { seq, dispatched } => {
                    if self.is_live(seq, dispatched) {
                        self.on_branch_resolve(now, seq);
                    }
                }
                Event::ReplayFault {
                    seq,
                    dispatched,
                    stage,
                } => {
                    if self.is_live(seq, dispatched) {
                        self.on_replay_fault(now, seq, stage);
                    }
                }
            }
        }
    }

    /// Whether the instance an event names — `seq`, dispatched at cycle
    /// `dispatched` — is still in the ROB. Events only target dispatched
    /// instructions, so a refetched twin still in the front end must not
    /// match, and neither may a twin that has re-dispatched since.
    fn is_live(&self, seq: u64, dispatched: u64) -> bool {
        self.window.range(Queue::Rob).contains(&seq)
            && self.window.get(self.window.slot(seq)).dispatch_cycle == dispatched
    }

    fn on_branch_resolve(&mut self, now: u64, seq: u64) {
        if self.fetch_blocked_on == Some(seq) {
            self.fetch_blocked_on = None;
            self.fetch_stall_until = self
                .fetch_stall_until
                .max(now + self.cfg.redirect_latency);
        }
    }

    fn on_replay_fault(&mut self, now: u64, seq: u64, stage: PipeStage) {
        let slot = self.window.slot(seq);
        self.stats.replays += 1;
        self.stats.record_fault(stage, false);
        if let (Some(tep), Some(key)) = (self.tep.as_mut(), self.window.get(slot).tep_key) {
            tep.train_fault_at(key, stage);
        }
        match self.cfg.recovery {
            RecoveryModel::InSitu => {
                // Razor-style in-situ replay: the instruction re-executes
                // with a restored guard band; recovery bubbles stall the
                // pipeline while the stage recovers. Younger independent
                // work is preserved.
                let penalty = self.cfg.replay_penalty;
                let dst;
                {
                    let inst = self.window.get_mut(slot);
                    inst.actual_fault = None; // corrected by the replay
                    let complete = inst.complete_cycle.map(|c| c.max(now) + penalty);
                    inst.complete_cycle = complete;
                    let wake = inst.wake_cycle.map(|w| w.max(now) + penalty);
                    inst.wake_cycle = wake;
                    dst = inst.dst_phys.zip(wake);
                }
                if let Some((d, wake)) = dst {
                    // The replay slips an already-armed (and possibly
                    // already-fired) broadcast later: consumers that woke
                    // on the original wake must be demoted back to waiting.
                    self.rename.set_ready_cycle(d, wake, false);
                    self.iq.note_delay(&self.rename, d, wake, now);
                }
                self.pending_recovery_stalls += self.cfg.replay_latency;
            }
            RecoveryModel::Flush => {
                self.squash_from(seq);
                self.fetch_stall_until =
                    self.fetch_stall_until.max(now + self.cfg.replay_latency);
            }
        }
    }

    /// Squashes every in-flight instruction with `seq >= seq_min` and
    /// queues them for refetch; the instruction `seq_min` itself is
    /// refetched with its fault cleared (the replay succeeds).
    fn squash_from(&mut self, seq_min: u64) {
        // Roll back rename state youngest-first over everything renamed:
        // the rename queue, then the ROB's tail.
        for seq in (seq_min..self.window.range(Queue::Renamed).end).rev() {
            let inst = self.window.get(self.window.slot(seq));
            if let (Some(dst), Some(new_phys), Some(old_phys)) =
                (inst.trace.dst, inst.dst_phys, inst.old_phys)
            {
                self.rename.rollback(
                    dst,
                    crate::rename::Renamed {
                        new_phys,
                        old_phys,
                    },
                );
            }
        }

        // Release window resources for ROB-resident squashed instructions.
        for seq in (seq_min..self.window.range(Queue::Rob).end).rev() {
            let slot = self.window.slot(seq);
            let inst = self.window.get(slot);
            self.iq.remove(slot);
            match inst.trace.op {
                OpClass::Load => self.lsq.release_load(),
                OpClass::Store => { /* squash_stores_after handles stores */ }
                _ => {}
            }
            if inst.issue_cycle.is_some() {
                self.stats.activity.wasted_issues += 1;
            }
        }
        self.lsq.squash_stores_after(seq_min.saturating_sub(1));

        // If fetch was blocked on a branch that just got squashed, unblock:
        // the branch will be refetched and re-predicted.
        if let Some(b) = self.fetch_blocked_on {
            if b >= seq_min {
                self.fetch_blocked_on = None;
            }
        }

        // Anything still pending in the refetch queue (left over from an
        // earlier squash) continues the window's tail, so the squashed
        // suffix is prepended youngest-first, oldest ending up first.
        let tail = self.window.tail();
        self.stats.squashed += tail - seq_min;
        for seq in (seq_min..tail).rev() {
            let trace = self.window.get(self.window.slot(seq)).trace;
            self.refetch.push_front((trace, seq == seq_min));
        }
        self.window.truncate(seq_min);
    }

    /// Handles a predicted or actual in-order-engine fault for the
    /// instruction in `slot` as it occupies `stage` (rename, dispatch or
    /// retire — paper §2.2). Returns `true` when the stage must stall one
    /// cycle (predicted fault: the stall signal gives the stage its second
    /// cycle).
    fn handle_in_order_stage(&mut self, now: u64, slot: SlotId, stage: PipeStage) -> bool {
        let (predicted_here, actual, key) = {
            let inst = self.window.get(slot);
            (
                self.mode.uses_predictor()
                    && !inst.in_order_charged
                    && inst.predicted_fault == Some(stage),
                inst.actual_fault,
                inst.tep_key,
            )
        };
        let mut stall = false;
        if predicted_here {
            self.window.get_mut(slot).in_order_charged = true;
            // TEP-driven stall signal: the faulty stage completes in two
            // clock cycles (paper §2.2).
            stall = true;
            self.stats.in_order_stalls += 1;
            if self.audit.is_some() {
                // Capture the stage's admission count at the instant the
                // signal fires: older width-group members may already have
                // passed, but nothing may follow.
                let admits_now = match stage {
                    PipeStage::Rename => self.audit_admits[0],
                    PipeStage::Dispatch => self.audit_admits[1],
                    _ => self.audit_admits[2],
                };
                let seq = self.window.get(slot).seq();
                self.audit_charges.push((stage, seq, admits_now));
            }
            if actual == Some(stage) {
                self.stats.record_fault(stage, true);
                self.window.get_mut(slot).actual_fault = None;
                if let (Some(tep), Some(key)) = (self.tep.as_mut(), key) {
                    tep.train_fault_at(key, stage);
                }
            } else if actual.is_none() {
                self.stats.false_positives += 1;
                if let (Some(tep), Some(key)) = (self.tep.as_mut(), key) {
                    tep.train_clean_at(key);
                }
            }
        } else if actual == Some(stage) && self.mode.tolerates() {
            // Unpredicted violation in an in-order stage: replay.
            self.replay_in_place(now, slot, stage);
        }
        stall
    }

    /// Razor-style synchronous replay for faults detected before the
    /// instruction enters the window (front-end and in-order stages).
    fn replay_in_place(&mut self, _now: u64, slot: SlotId, stage: PipeStage) {
        self.stats.replays += 1;
        self.stats.record_fault(stage, false);
        let key = {
            let inst = self.window.get_mut(slot);
            inst.actual_fault = None; // corrected by the replay
            inst.tep_key
        };
        if let (Some(tep), Some(key)) = (self.tep.as_mut(), key) {
            tep.train_fault_at(key, stage);
        }
        self.pending_recovery_stalls += self.cfg.replay_latency;
    }

    // --- retire -------------------------------------------------------------

    fn retire(&mut self, now: u64) {
        if now < self.retire_stall_until {
            return;
        }
        for _ in 0..self.cfg.width {
            if self.stats.committed >= self.commit_limit {
                break;
            }
            let Some(slot) = self.window.front(Queue::Rob) else { break };
            match self.window.get(slot).complete_cycle {
                Some(c) if c <= now => {}
                _ => break,
            }
            if self.handle_in_order_stage(now, slot, PipeStage::Retire) {
                self.retire_stall_until = now + 2;
                break;
            }
            let inst = *self.window.get(slot);
            let head = self.window.head();
            self.window.advance(Queue::Rob);
            assert_eq!(inst.seq(), head, "out-of-order or lost commit");
            self.stats.committed += 1;
            self.stats.activity.retires += 1;
            if self.audit.is_some() {
                self.audit_admits[2] += 1;
            }
            if let Some(log) = self.commit_log.as_mut() {
                log.push((inst.seq(), inst.trace.pc, inst.trace.op as u8));
            }
            if self.values.is_some() {
                // A violation that survives to retirement untolerated
                // (only possible under NoTolerance, or an escape bug in a
                // real scheme) latches a corrupted result. Covered faults
                // — predicted OoO violations absorbed by padding — commit
                // clean: the extra stage cycle restored the slack.
                let covered = self.mode.uses_predictor()
                    && inst
                        .actual_fault
                        .filter(|s| s.is_ooo())
                        .is_some_and(|s| inst.predicted_fault == Some(s));
                let corruption = match inst.actual_fault {
                    Some(_) if !covered => self
                        .fault_model
                        .as_ref()
                        .expect("a fault implies a fault model")
                        .corruption_mask(inst.trace.pc, inst.seq()),
                    _ => 0,
                };
                let vp = self.values.as_mut().expect("checked above");
                vp.commit(&inst.trace, inst.src_phys, inst.dst_phys, corruption);
            }

            match inst.trace.op {
                OpClass::Store => {
                    // Write-through of the store buffer at retire.
                    let addr = inst.trace.mem_addr.expect("stores have addresses");
                    let _ = self.caches.access_data(addr);
                    self.lsq.retire_store(inst.seq());
                }
                OpClass::Load => self.lsq.release_load(),
                OpClass::CondBranch => {
                    self.stats.branches += 1;
                    if inst.branch_mispredicted {
                        self.stats.branch_mispredicts += 1;
                    }
                }
                OpClass::Jump => {
                    if inst.branch_mispredicted {
                        self.stats.branch_mispredicts += 1;
                    }
                }
                _ => {}
            }
            if let Some(old) = inst.old_phys {
                self.rename.retire_free(old);
            }

            if self.mode == ToleranceMode::NoTolerance {
                // Control mode: nothing intervened, so any injected fault
                // (any stage) survives to retirement as silent corruption.
                if let Some(stage) = inst.actual_fault {
                    self.stats.record_fault(stage, false);
                    self.stats.untolerated_faults += 1;
                }
            } else {
                // Predictor training with the stage-level detector's
                // verdict.
                let predicted = inst.predicted_fault.filter(|s| s.is_ooo());
                let actual = inst.actual_fault.filter(|s| s.is_ooo());
                match (predicted, actual) {
                    (Some(_), Some(stage)) => {
                        self.stats.record_fault(stage, true);
                        if let (Some(tep), Some(key)) = (self.tep.as_mut(), inst.tep_key) {
                            tep.train_fault_at(key, stage);
                        }
                    }
                    (Some(_), None) => {
                        self.stats.false_positives += 1;
                        if let (Some(tep), Some(key)) = (self.tep.as_mut(), inst.tep_key) {
                            tep.train_clean_at(key);
                        }
                    }
                    (None, Some(_)) => {
                        unreachable!("unpredicted faults are cleared by replay before retire")
                    }
                    (None, None) => {}
                }
            }
        }
    }

    // --- issue (wakeup/select + downstream timing) ---------------------------

    fn issue(&mut self, now: u64) {
        // Wakeup: the issue queue's broadcast index hands back the
        // operand-ready entries; only broadcast-matched entries and the
        // believed-ready list are touched, never the whole queue.
        let mut candidates = std::mem::take(&mut self.cand_buf);
        candidates.clear();
        timed_stage!(
            stage::ISSUE_WAKE,
            self.iq.collect_candidates(&self.rename, now, &mut candidates)
        );
        if candidates.is_empty() {
            self.cand_buf = candidates;
            return;
        }
        #[cfg(debug_assertions)]
        let before: u64 = candidates.iter().map(|c| c.seq).sum();
        timed_stage!(stage::ISSUE_SORT, self.policy.prioritize(&mut candidates));
        #[cfg(debug_assertions)]
        {
            let after: u64 = candidates.iter().map(|c| c.seq).sum();
            debug_assert_eq!(before, after, "policy must permute, not alter");
        }

        // Select: greedy lane assignment in priority order, each candidate
        // taking the lowest free lane that accepts its op.
        timed_stage!(stage::ISSUE_SEL, {
            let mut free = self.exec.free_lanes(now);
            let mut issued = 0usize;
            for cand in &candidates {
                if issued == self.cfg.width || free == 0 {
                    break;
                }
                let Some(lane) = self.exec.lane_for(cand.op, free) else {
                    continue;
                };
                free &= !(1 << lane);
                issued += 1;
                self.issue_one(now, cand.slot, lane);
            }
        });
        self.cand_buf = candidates;
    }

    fn issue_one(&mut self, now: u64, slot: SlotId, lane: usize) {
        self.iq.remove(slot);

        // Criticality Detection Logic: count dependents waiting on this
        // result tag at broadcast (paper §3.5.2), then store the verdict
        // with the TEP so future instances of the PC carry it.
        let (dst_phys, tep_key) = {
            let inst = self.window.get(slot);
            (inst.dst_phys, inst.tep_key)
        };
        if self.criticality_threshold > 0 {
            if let Some(dst) = dst_phys.filter(|&d| d != 0) {
                let dependents = self.iq.count_dependents(dst);
                let critical = dependents >= self.criticality_threshold;
                if let (Some(tep), Some(key)) = (self.tep.as_mut(), tep_key) {
                    tep.set_criticality_at(key, critical);
                }
            }
        }

        let inst = self.window.get(slot);
        let op = inst.trace.op;
        let seq = inst.seq();
        let dispatched = inst.dispatch_cycle;
        let treated_faulty = self.mode.uses_predictor() && inst.treated_as_faulty();
        let predicted_stage = inst.predicted_fault;
        let actual = inst.actual_fault.filter(|s| s.is_ooo());
        let mem_addr = inst.trace.mem_addr;
        let mispredicted = inst.branch_mispredicted;

        // Memory timing: AGEN at now+2, then LSQ search / cache access.
        let exec_lat = self.cfg.exec_latency(op);
        let mut mem_lat = 0;
        if op == OpClass::Load {
            let addr = mem_addr.expect("loads have addresses");
            let agen_done = now + 2;
            let search = self.lsq.search_for_load(seq, addr, agen_done);
            mem_lat = if search.forwarded {
                1
            } else {
                self.caches.access_data(addr)
            };
        } else if op == OpClass::Store {
            let addr = mem_addr.expect("stores have addresses");
            self.lsq.resolve_store(seq, addr, now + 2);
        }

        // The paper's padding: one extra cycle in the predicted faulty
        // stage. Which timelines slip depends on the stage (§3.3):
        // * Issue (wakeup/select): the broadcast into the wakeup lane is
        //   held steady for two cycles, so *dependents* wake a cycle late
        //   and the issue slot freezes, but the instruction's own
        //   execution is not delayed.
        // * RegRead / Execute / Memory: the instruction occupies the stage
        //   one extra cycle — both its result broadcast and its completion
        //   slip by one.
        // * Writeback: completion slips; the result was already bypassed,
        //   so dependents are unaffected.
        // Under Error Padding the global stall itself provides the faulty
        // stage's second cycle — everything (the instruction, its
        // dependents, the rest of the machine) slips together, so no
        // relative padding is applied on top.
        let pad = u64::from(treated_faulty && self.mode == ToleranceMode::ViolationAware);
        let wake_pad = match predicted_stage {
            // Writeback: result already bypassed. Issue: the broadcast
            // delay applies only to already-waiting consumers, handled via
            // the delayed-broadcast flag on the physical register below.
            Some(PipeStage::Writeback) | Some(PipeStage::Issue) => 0,
            _ => pad,
        };
        let complete_pad = match predicted_stage {
            Some(PipeStage::Issue) => 0,
            _ => pad,
        };
        let exec_total = exec_lat + mem_lat;
        let wake = now + exec_total + wake_pad;
        let complete = now + 1 + exec_total + complete_pad;

        // Unpredicted fault ⇒ detection + replay at the stage's latch.
        // The NoTolerance control has no detector: the fault rides through.
        if let Some(stage) = actual.filter(|_| self.mode.tolerates()) {
            let covered = treated_faulty && predicted_stage == Some(stage);
            if !covered {
                let detect = match stage {
                    PipeStage::Issue => now + 1,
                    PipeStage::RegRead => now + 2,
                    PipeStage::Execute => now + 1 + exec_lat,
                    PipeStage::Memory => now + 2 + mem_lat.max(1),
                    _ => complete,
                }
                .min(complete);
                self.schedule_event(
                    detect,
                    Event::ReplayFault {
                        seq,
                        dispatched,
                        stage,
                    },
                );
            }
        }

        // Lane occupancy: FUSR + issue-slot freeze semantics.
        let unpipelined_busy = if op == OpClass::IntDiv {
            self.cfg.div_latency.saturating_sub(1)
        } else {
            0
        };
        let faulty_hold = self.mode == ToleranceMode::ViolationAware && treated_faulty;
        self.exec.occupy(lane, now, unpipelined_busy, faulty_hold);

        // Error Padding: one whole-pipeline stall per predicted fault.
        if self.mode == ToleranceMode::ErrorPadding && treated_faulty {
            self.pending_ep_stalls += 1;
        }

        // Branch resolution event (to unblock fetch after mispredicts).
        if op.is_branch() && mispredicted {
            self.schedule_event(complete, Event::Resolve { seq, dispatched });
        }

        // Result broadcast. For RegRead/Execute/Memory faults the result
        // itself is late (wake already padded); for Issue faults only the
        // broadcast into the wakeup CAM is held, so consumers already
        // waiting pay one cycle while later arrivals do not (§3.3.1).
        if let Some(dst) = dst_phys {
            let delayed_broadcast = self.mode == ToleranceMode::ViolationAware
                && treated_faulty
                && predicted_stage == Some(PipeStage::Issue);
            // First issue of this tag, or a post-recovery re-issue? A
            // fresh broadcast cannot un-ready anyone; a re-issue can have
            // moved an already-consumed wakeup later and must demote.
            let fresh = self.rename.ready_cycle(dst) == u64::MAX;
            self.rename.set_ready_cycle(dst, wake, delayed_broadcast);
            // Arm the issue queue's wakeup event at the effective time
            // waiting consumers see (one later for a held broadcast).
            let at = wake + u64::from(delayed_broadcast);
            if fresh {
                self.iq.note_broadcast(dst, at);
            } else {
                self.iq.note_delay(&self.rename, dst, at, now);
            }
            if dst != 0 {
                self.stats.activity.broadcasts += 1;
            }
        }

        let inst = self.window.get_mut(slot);
        inst.issue_cycle = Some(now);
        inst.wake_cycle = Some(wake);
        inst.complete_cycle = Some(complete);

        // Activity accounting.
        self.stats.activity.issues += 1;
        self.stats.activity.regreads += 1;
        match self.exec.kind(lane) {
            LaneKind::SimpleAlu | LaneKind::SimpleAluBranch => {
                self.stats.activity.fu_simple += 1
            }
            LaneKind::Complex => self.stats.activity.fu_complex += 1,
            LaneKind::Mem => self.stats.activity.fu_mem += 1,
        }
    }

    // --- dispatch -------------------------------------------------------------

    fn dispatch(&mut self, now: u64) {
        if now < self.dispatch_stall_until {
            return;
        }
        for _ in 0..self.cfg.width {
            let Some(slot) = self.window.front(Queue::Renamed) else { break };
            let inst = self.window.get(slot);
            if inst.ready > now
                || self.window.len_of(Queue::Rob) == self.cfg.rob_entries
                || self.iq.free() == 0
            {
                break;
            }
            let (op, seq) = (inst.trace.op, inst.seq());
            // Resource check before the fault is charged: a load/store
            // that cannot allocate its LSQ entry stays renamed and
            // must not consume its predicted fault (stall counted, TEP
            // trained) in a cycle where it cannot dispatch.
            if matches!(op, OpClass::Load | OpClass::Store) && self.lsq.free() == 0 {
                break;
            }
            if self.handle_in_order_stage(now, slot, PipeStage::Dispatch) {
                // The stall signal holds the whole stage: the faulty
                // instruction takes its second cycle here, and neither it
                // nor the rest of its width group may dispatch.
                self.dispatch_stall_until = now + 2;
                break;
            }
            match op {
                OpClass::Load => {
                    let ok = self.lsq.alloc_load();
                    debug_assert!(ok, "free checked above");
                }
                OpClass::Store => {
                    let ok = self.lsq.alloc_store(seq);
                    debug_assert!(ok, "free checked above");
                }
                _ => {}
            }
            self.window.advance(Queue::Renamed);
            let ts = self.timestamp_counter;
            self.timestamp_counter = (self.timestamp_counter + 1) & 63;
            let inst = self.window.get_mut(slot);
            inst.timestamp = ts;
            inst.dispatch_cycle = now;
            self.iq.push(&self.rename, &self.window, slot);
            self.stats.activity.dispatches += 1;
            if self.audit.is_some() {
                self.audit_admits[1] += 1;
            }
        }
    }

    // --- rename ----------------------------------------------------------------

    fn rename_stage(&mut self, now: u64) {
        if now < self.rename_stall_until {
            return;
        }
        for _ in 0..self.cfg.width {
            let Some(slot) = self.window.front(Queue::Decoded) else { break };
            let full = self.window.len_of(Queue::Renamed) >= FRONT_BUF;
            if full || self.window.get(slot).ready > now {
                break;
            }
            if self.handle_in_order_stage(now, slot, PipeStage::Rename) {
                // As in dispatch/retire: a stalled rename stage admits
                // nothing this cycle or the next.
                self.rename_stall_until = now + 2;
                break;
            }
            // Source lookups first (read-before-write within the group is
            // handled by processing instructions in order).
            let trace = self.window.get(slot).trace;
            let mut src_phys = [None, None];
            for (i, src) in trace.srcs.iter().enumerate() {
                if let Some(r) = src {
                    src_phys[i] = Some(self.rename.lookup(*r));
                }
            }
            let mut dst_phys = None;
            let mut old_phys = None;
            if let Some(dst) = trace.dst {
                match self.rename.rename_dst(dst) {
                    Some(renamed) => {
                        dst_phys = Some(renamed.new_phys);
                        old_phys = Some(renamed.old_phys);
                        self.stats.activity.renames += 1;
                    }
                    None => break, // no free physical register: stall
                }
            }
            self.window.advance(Queue::Decoded);
            let inst = self.window.get_mut(slot);
            inst.src_phys = src_phys;
            inst.dst_phys = dst_phys;
            inst.old_phys = old_phys;
            inst.ready = now + self.cfg.rename_latency;
            if self.audit.is_some() {
                self.audit_admits[0] += 1;
            }
        }
    }

    // --- decode (TEP access in parallel) -----------------------------------------

    fn decode(&mut self, now: u64) {
        for _ in 0..self.cfg.width {
            let Some(slot) = self.window.front(Queue::Fetched) else { break };
            let full = self.window.len_of(Queue::Decoded) >= FRONT_BUF;
            if full || self.window.get(slot).ready > now {
                break;
            }
            self.window.advance(Queue::Fetched);
            self.stats.activity.decodes += 1;
            // Fetch/decode violations cannot be mitigated by the TEP —
            // "any violations in these two stages are mitigated using
            // instruction replay" (paper §2.2).
            let front_fault = self
                .window
                .get(slot)
                .actual_fault
                .filter(|s| s.is_replay_only());
            if let Some(stage) = front_fault {
                if self.mode.tolerates() {
                    self.replay_in_place(now, slot, stage);
                }
            }

            let (pc, op, taken, seq) = {
                let t = &self.window.get(slot).trace;
                (t.pc, t.op, t.taken, t.seq)
            };
            if let Some(tep) = self.tep.as_mut() {
                let armed = self
                    .fault_model
                    .as_ref()
                    .map(|fm| fm.sensor().armed(seq))
                    .unwrap_or(true);
                let key = tep.lookup_key(pc);
                let pred = tep.predict(pc, armed);
                let inst = self.window.get_mut(slot);
                inst.tep_key = Some(key);
                if pred.faulty {
                    inst.predicted_fault = pred.stage;
                    inst.predicted_critical = pred.critical;
                }
                if op == OpClass::CondBranch {
                    if let Some(t) = taken {
                        self.tep.as_mut().expect("checked above").record_branch(t);
                    }
                }
            }
            self.window.get_mut(slot).ready = now + 1;
        }
    }

    // --- fetch ---------------------------------------------------------------------

    fn fetch(&mut self, now: u64) {
        if self.fetch_blocked_on.is_some() {
            self.stats.activity.fetch_blocked_cycles += 1;
            return;
        }
        if now < self.fetch_stall_until {
            self.stats.activity.fetch_stall_cycles += 1;
            return;
        }
        if self.window.len_of(Queue::Fetched) >= FRONT_BUF {
            self.stats.activity.fetch_full_cycles += 1;
        }
        let mut fetched_group = false;
        for _ in 0..self.cfg.width {
            if self.window.len_of(Queue::Fetched) >= FRONT_BUF {
                break;
            }
            let (trace, fault, shared_mispred) = match self.refetch.pop_front() {
                // A squashed instruction re-enters with its original fault
                // verdict unless the replay cleared it; re-sampling the
                // model reproduces the verdict (decide is pure). Refetch
                // only happens under flush recovery, which the co-sim
                // forbids, so the lane's own model is always the right one.
                Some((trace, cleared)) => {
                    let fault = if cleared {
                        None
                    } else {
                        self.fault_model
                            .as_ref()
                            .and_then(|fm| fm.decide(trace.pc, trace.op.is_mem(), trace.seq))
                    };
                    (trace, fault, None)
                }
                None => match self.gen.next(self.fault_model.as_ref()) {
                    Some(FedInst { trace, fault, mispred }) => (trace, fault, mispred),
                    None => {
                        // Finite workload exhausted: stop fetching and let
                        // everything in flight drain through retirement.
                        self.workload_done = true;
                        break;
                    }
                },
            };
            let mut inst = InFlightInst::new(trace);
            inst.actual_fault = fault;

            // I-cache: one access per line per group.
            let line = trace.pc / self.cfg.line_bytes as u64;
            let icache_extra = if line != self.last_fetch_line {
                self.last_fetch_line = line;
                if !fetched_group {
                    self.stats.activity.fetch_groups += 1;
                    fetched_group = true;
                }
                self.caches.access_inst(trace.pc).saturating_sub(1)
            } else {
                0
            };
            inst.ready = now + self.cfg.frontend_latency + icache_extra;

            // Branch prediction against the resolved trace outcome. The
            // co-sim frontend resolved the predictor verdict once for all
            // lanes; solo lanes (and any refetch) consult their own.
            let mispred = shared_mispred.or_else(|| self.bp.resolve(&trace));
            let blocks_fetch = mispred == Some(true);
            inst.branch_mispredicted = blocks_fetch;
            let ends_group = match trace.op {
                OpClass::CondBranch => trace.taken == Some(true),
                OpClass::Jump => true,
                _ => false,
            };

            let seq = inst.seq();
            self.window.push_fetched(inst);
            self.stats.fetched += 1;
            self.stats.activity.fetches += 1;

            if blocks_fetch {
                self.fetch_blocked_on = Some(seq);
                break;
            }
            if ends_group {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::FAULT_CALIBRATION_PROBE;

    fn run_bench(
        bench: Benchmark,
        mode: ToleranceMode,
        vdd: Voltage,
        commits: u64,
    ) -> SimStats {
        Pipeline::builder(bench, 7)
            .tolerance(mode)
            .voltage(vdd)
            .build()
            .run(commits)
    }

    #[test]
    fn fault_free_run_commits_everything() {
        let stats = run_bench(
            Benchmark::Gcc,
            ToleranceMode::FaultFree,
            Voltage::nominal(),
            20_000,
        );
        assert_eq!(stats.committed, 20_000);
        assert_eq!(stats.faults_total(), 0);
        assert_eq!(stats.replays, 0);
        assert_eq!(stats.squashed, 0);
        assert!(stats.ipc() > 0.3, "ipc = {}", stats.ipc());
        assert!(stats.ipc() <= 4.0);
    }

    #[test]
    fn ipc_orders_across_benchmarks() {
        // The memory-bound benchmark must be slower than the ILP-rich one.
        let mcf = run_bench(
            Benchmark::Mcf,
            ToleranceMode::FaultFree,
            Voltage::nominal(),
            30_000,
        );
        let sjeng = run_bench(
            Benchmark::Sjeng,
            ToleranceMode::FaultFree,
            Voltage::nominal(),
            30_000,
        );
        assert!(
            sjeng.ipc() > 1.5 * mcf.ipc(),
            "sjeng {} vs mcf {}",
            sjeng.ipc(),
            mcf.ipc()
        );
    }

    #[test]
    fn razor_pays_for_faults() {
        let clean = run_bench(
            Benchmark::Astar,
            ToleranceMode::FaultFree,
            Voltage::nominal(),
            30_000,
        );
        let razor = run_bench(
            Benchmark::Astar,
            ToleranceMode::Razor,
            Voltage::high_fault(),
            30_000,
        );
        assert!(razor.faults_total() > 0);
        assert_eq!(razor.faults_predicted, 0, "razor never predicts");
        assert_eq!(razor.replays, razor.faults_total());
        assert!(razor.recovery_stall_cycles > 0, "in-situ recovery inserts bubbles");
        assert_eq!(razor.squashed, 0, "in-situ recovery preserves younger work");
        assert!(
            razor.ipc() < clean.ipc(),
            "razor {} must lose to clean {}",
            razor.ipc(),
            clean.ipc()
        );
    }

    #[test]
    fn violation_aware_mostly_predicts() {
        let stats = run_bench(
            Benchmark::Astar,
            ToleranceMode::ViolationAware,
            Voltage::high_fault(),
            50_000,
        );
        assert!(stats.faults_total() > 1_000, "faults = {}", stats.faults_total());
        let predicted_share =
            stats.faults_predicted as f64 / stats.faults_total() as f64;
        assert!(
            predicted_share > 0.8,
            "TEP should catch most faults, got {predicted_share:.2}"
        );
        assert!(stats.slot_freezes > 0);
    }

    #[test]
    fn scheme_ordering_matches_paper() {
        // Razor ≫ EP > VTE in overhead; all lose to fault-free.
        let commits = 60_000;
        let clean = run_bench(
            Benchmark::Bzip2,
            ToleranceMode::FaultFree,
            Voltage::nominal(),
            commits,
        );
        let razor = run_bench(
            Benchmark::Bzip2,
            ToleranceMode::Razor,
            Voltage::high_fault(),
            commits,
        );
        let ep = run_bench(
            Benchmark::Bzip2,
            ToleranceMode::ErrorPadding,
            Voltage::high_fault(),
            commits,
        );
        let vte = run_bench(
            Benchmark::Bzip2,
            ToleranceMode::ViolationAware,
            Voltage::high_fault(),
            commits,
        );
        assert!(razor.ipc() < ep.ipc(), "razor {} !< ep {}", razor.ipc(), ep.ipc());
        assert!(ep.ipc() < vte.ipc(), "ep {} !< vte {}", ep.ipc(), vte.ipc());
        assert!(vte.ipc() <= clean.ipc() * 1.001);
        assert!(ep.ep_stall_cycles > 0);
        assert_eq!(vte.ep_stall_cycles, 0);
    }

    #[test]
    fn fault_rate_tracks_voltage() {
        let lo = run_bench(
            Benchmark::Sjeng,
            ToleranceMode::ViolationAware,
            Voltage::low_fault(),
            40_000,
        );
        let hi = run_bench(
            Benchmark::Sjeng,
            ToleranceMode::ViolationAware,
            Voltage::high_fault(),
            40_000,
        );
        assert!(
            hi.fault_rate() > 2.0 * lo.fault_rate(),
            "hi {} vs lo {}",
            hi.fault_rate(),
            lo.fault_rate()
        );
    }

    #[test]
    fn deterministic_runs() {
        let a = run_bench(
            Benchmark::Gobmk,
            ToleranceMode::ViolationAware,
            Voltage::low_fault(),
            15_000,
        );
        let b = run_bench(
            Benchmark::Gobmk,
            ToleranceMode::ViolationAware,
            Voltage::low_fault(),
            15_000,
        );
        assert_eq!(a, b);
    }

    #[test]
    fn branches_are_predicted_reasonably() {
        let stats = run_bench(
            Benchmark::Povray,
            ToleranceMode::FaultFree,
            Voltage::nominal(),
            40_000,
        );
        assert!(stats.branches > 1_000);
        assert!(
            stats.mispredict_rate() < 0.25,
            "mispredict rate {}",
            stats.mispredict_rate()
        );
    }

    #[test]
    fn in_order_faults_are_stalled_when_predicted() {
        // All fault mass in the in-order engine: rename/dispatch/retire
        // are tolerated by stall signals, fetch/decode by replay.
        let cal = tv_timing::FaultCalibration {
            in_order_share: 0.999,
            ..tv_timing::FaultCalibration::from_rates(8.0, 8.0)
        };
        let stats = Pipeline::builder(Benchmark::Gcc, 11)
            .tolerance(ToleranceMode::ViolationAware)
            .voltage(Voltage::high_fault())
            .calibration(cal)
            .build()
            .run(40_000);
        assert!(stats.in_order_stalls > 0, "stall signals must fire");
        assert!(
            stats.faults_in(PipeStage::Rename)
                + stats.faults_in(PipeStage::Dispatch)
                + stats.faults_in(PipeStage::Retire)
                > 0,
            "in-order faults must occur"
        );
        assert!(
            stats.faults_in(PipeStage::Fetch) + stats.faults_in(PipeStage::Decode) > 0,
            "front-end faults must occur"
        );
        // Every fetch/decode violation is replay-corrected.
        assert!(stats.replays > 0);
        // The machine still makes good progress.
        assert!(stats.ipc() > 0.3, "ipc {}", stats.ipc());
    }

    #[test]
    fn in_order_faults_all_replay_under_razor() {
        let cal = tv_timing::FaultCalibration {
            in_order_share: 0.999,
            ..tv_timing::FaultCalibration::from_rates(4.0, 4.0)
        };
        let stats = Pipeline::builder(Benchmark::Gcc, 11)
            .tolerance(ToleranceMode::Razor)
            .voltage(Voltage::high_fault())
            .calibration(cal)
            .build()
            .run(30_000);
        assert_eq!(stats.in_order_stalls, 0, "razor has no predictor");
        assert_eq!(stats.replays, stats.faults_total());
    }

    #[test]
    fn flush_recovery_squashes_and_refetches() {
        let cfg = CoreConfig {
            recovery: crate::config::RecoveryModel::Flush,
            replay_latency: 6,
            ..CoreConfig::core1()
        };
        let stats = Pipeline::builder(Benchmark::Astar, 7)
            .config(cfg)
            .tolerance(ToleranceMode::Razor)
            .voltage(Voltage::high_fault())
            .build()
            .run(30_000);
        assert!(stats.replays > 0);
        assert!(stats.squashed > 0, "flush recovery squashes younger work");
        assert!(stats.activity.wasted_issues > 0);
    }

    #[test]
    fn accounting_is_conserved() {
        let mut pipe = Pipeline::builder(Benchmark::Xalancbmk, 3)
            .tolerance(ToleranceMode::Razor)
            .voltage(Voltage::high_fault())
            .build();
        let stats = pipe.run(25_000);
        // fetched = committed + squashed + still-in-flight
        let in_flight = pipe.window.len() as u64;
        assert_eq!(stats.fetched, stats.committed + stats.squashed + in_flight);
    }

    /// Fetches `inst` as the window's next instruction and moves it
    /// forward into range `to`, ready (or dispatched) at `now`. Ranges
    /// younger than `to` must be empty, as they are when a test fills the
    /// window oldest-first.
    fn admit(pipe: &mut Pipeline, mut inst: InFlightInst, to: Queue, now: u64) -> SlotId {
        inst.trace.seq = pipe.window.tail();
        inst.trace.pc = 0x8000 + 4 * inst.trace.seq;
        inst.ready = now;
        inst.dispatch_cycle = now;
        let slot = pipe.window.push_fetched(inst);
        for q in [Queue::Fetched, Queue::Decoded, Queue::Renamed] {
            if q == to {
                break;
            }
            pipe.window.advance(q);
        }
        slot
    }

    /// Builds a ViolationAware pipeline plus one in-flight ALU instruction
    /// predicted faulty in `stage`, parked in the issue queue with its
    /// destination renamed — ready for a direct `issue_one` micro-step.
    fn micro_issue_setup(stage: PipeStage, now: u64) -> (Pipeline, SlotId, u16) {
        use tv_workloads::ArchReg;
        let mut pipe = vte_pipe();
        let dst = pipe.rename.rename_dst(ArchReg::new(5)).unwrap().new_phys;
        let mut inst = frontend_inst(OpClass::IntAlu, Some(stage));
        inst.dst_phys = Some(dst);
        let slot = admit(&mut pipe, inst, Queue::Rob, now);
        pipe.iq.push(&pipe.rename, &pipe.window, slot);
        (pipe, slot, dst)
    }

    #[test]
    fn issue_fault_delays_waiting_consumers_exactly_one_cycle() {
        // Paper §3.3.1: an issue-stage violation holds the tag broadcast —
        // consumers already waiting wake exactly one cycle late, consumers
        // dispatched at/after the settled broadcast pay nothing, and the
        // faulty instruction's own execution is not delayed.
        let now = 100;
        let (mut pipe, slot, dst) = micro_issue_setup(PipeStage::Issue, now);
        pipe.issue_one(now, slot, 0);

        let wake = pipe.window.get(slot).wake_cycle.unwrap();
        assert_eq!(
            wake,
            now + pipe.cfg.exec_latency(OpClass::IntAlu),
            "own execution unpadded"
        );
        // Early consumer: not ready at the broadcast cycle, ready exactly
        // one cycle later.
        assert!(!pipe.rename.is_ready(dst, wake, now));
        assert!(pipe.rename.is_ready(dst, wake + 1, now));
        // Late-dispatched consumer reads the settled ready bit.
        assert!(pipe.rename.is_ready(dst, wake, wake));
    }

    #[test]
    fn issue_fault_freezes_slot_admitting_no_new_input() {
        // Paper §3.3.3: the slot behind a faulty instruction is frozen for
        // one extra cycle — the lane admits no new input at now+1 and
        // reopens at now+2.
        let now = 100;
        let (mut pipe, slot, _) = micro_issue_setup(PipeStage::Issue, now);
        pipe.issue_one(now, slot, 0);

        let lane0 = |cycle| pipe.exec.lane_for(OpClass::IntAlu, pipe.exec.free_lanes(cycle) & 1);
        assert_eq!(lane0(now + 1), None);
        assert_eq!(lane0(now + 2), Some(0));
        assert_eq!(pipe.exec.slot_freezes, 1);
    }

    #[test]
    fn execute_fault_pads_result_for_all_consumers() {
        // An Execute-stage violation delays the result itself by the one
        // padding cycle: every consumer sees the padded wake cycle, with
        // no extra delayed-broadcast penalty on top.
        let now = 200;
        let (mut pipe, slot, dst) = micro_issue_setup(PipeStage::Execute, now);
        pipe.issue_one(now, slot, 0);

        let wake = pipe.window.get(slot).wake_cycle.unwrap();
        assert_eq!(
            wake,
            now + pipe.cfg.exec_latency(OpClass::IntAlu) + 1,
            "result slips by exactly the padding cycle"
        );
        assert!(!pipe.rename.is_ready(dst, wake - 1, now));
        assert!(pipe.rename.is_ready(dst, wake, now), "no +1 on top of the pad");
        assert!(pipe.rename.is_ready(dst, wake, wake));
        assert_eq!(pipe.exec.slot_freezes, 1, "slot freeze applies regardless of stage");
    }

    #[test]
    fn slot_freezes_only_under_violation_aware() {
        let razor = run_bench(
            Benchmark::Astar,
            ToleranceMode::Razor,
            Voltage::high_fault(),
            15_000,
        );
        assert_eq!(razor.slot_freezes, 0, "razor replays, never freezes");
        let ep = run_bench(
            Benchmark::Astar,
            ToleranceMode::ErrorPadding,
            Voltage::high_fault(),
            15_000,
        );
        assert_eq!(ep.slot_freezes, 0, "EP stalls the whole machine instead");
        assert!(ep.ep_stall_cycles > 0);
    }

    #[test]
    fn dispatch_timestamps_stay_mod_64() {
        // The ABS timestamp is a 6-bit hardware counter (§3.5): it wraps
        // at 64 and every in-flight instruction carries a 6-bit value even
        // after far more than 64 dispatches.
        let mut pipe = Pipeline::builder(Benchmark::Gcc, 7).build();
        let stats = pipe.run(2_000);
        assert!(stats.committed >= 2_000, "well past many counter wraps");
        assert!(pipe.timestamp_counter < 64);
        for slot in pipe.iq.iter() {
            assert!(pipe.window.get(slot).timestamp < 64);
        }
    }

    /// Builds a bare in-flight instruction for direct stage micro-tests
    /// ([`admit`] gives it its seq and pc).
    fn frontend_inst(op: OpClass, predicted: Option<PipeStage>) -> InFlightInst {
        let mut inst = InFlightInst::new(TraceInst {
            seq: 0,
            pc: 0,
            op,
            srcs: [None, None],
            dst: None,
            mem_addr: matches!(op, OpClass::Load | OpClass::Store).then_some(0x1_0000),
            taken: None,
            target: None,
            operand_values: [0, 0],
        });
        inst.predicted_fault = predicted;
        inst
    }

    fn vte_pipe() -> Pipeline {
        Pipeline::builder(Benchmark::Gcc, 7)
            .tolerance(ToleranceMode::ViolationAware)
            .voltage(Voltage::high_fault())
            .build()
    }

    #[test]
    fn dispatch_stall_holds_faulty_inst_and_width_group() {
        // §2.2 regression: a predicted-Dispatch-fault instruction takes two
        // clock cycles in dispatch, admitting neither itself nor the rest
        // of its width group until the stall signal clears; pre-fix the
        // whole group dispatched in the charge cycle.
        let now = 50;
        let mut pipe = vte_pipe();
        let faulty = frontend_inst(OpClass::IntAlu, Some(PipeStage::Dispatch));
        admit(&mut pipe, faulty, Queue::Renamed, now);
        admit(&mut pipe, frontend_inst(OpClass::IntAlu, None), Queue::Renamed, now);

        pipe.dispatch(now);
        assert_eq!(pipe.stats.in_order_stalls, 1, "fault charged at the stall signal");
        assert_eq!(pipe.window.len_of(Queue::Rob), 0, "nothing dispatches in the charge cycle");
        assert_eq!(pipe.window.len_of(Queue::Renamed), 2);
        assert_eq!(pipe.dispatch_stall_until, now + 2);

        pipe.dispatch(now + 1);
        assert_eq!(
            pipe.window.len_of(Queue::Rob),
            0,
            "the stage admits nothing in its second cycle"
        );

        pipe.dispatch(now + 2);
        assert_eq!(pipe.window.len_of(Queue::Rob), 2, "both dispatch once the signal clears");
        assert_eq!(pipe.stats.in_order_stalls, 1, "fault charged exactly once");
    }

    #[test]
    fn rename_stall_holds_faulty_inst_and_width_group() {
        let now = 50;
        let mut pipe = vte_pipe();
        let faulty = frontend_inst(OpClass::IntAlu, Some(PipeStage::Rename));
        admit(&mut pipe, faulty, Queue::Decoded, now);
        admit(&mut pipe, frontend_inst(OpClass::IntAlu, None), Queue::Decoded, now);

        pipe.rename_stage(now);
        assert_eq!(pipe.stats.in_order_stalls, 1);
        assert_eq!(pipe.window.len_of(Queue::Renamed), 0, "nothing renames in the charge cycle");
        assert_eq!(pipe.rename_stall_until, now + 2);

        pipe.rename_stage(now + 1);
        assert_eq!(pipe.window.len_of(Queue::Renamed), 0, "second stall cycle admits nothing");

        pipe.rename_stage(now + 2);
        assert_eq!(pipe.window.len_of(Queue::Renamed), 2, "both rename once the signal clears");
        assert_eq!(pipe.stats.in_order_stalls, 1);
    }

    #[test]
    fn global_stall_slips_pending_in_order_stall_deadlines() {
        // An EP stall or recovery bubble recirculates every latch: an
        // in-order stall deadline still pending must slip with the machine
        // instead of silently expiring mid-stall (losing the faulty
        // stage's second cycle). Already-expired deadlines stay put.
        let now = 80;
        let mut pipe = vte_pipe();
        pipe.rename_stall_until = now;
        pipe.dispatch_stall_until = now + 2;
        pipe.retire_stall_until = now + 1;
        pipe.apply_global_stall(now, 1);
        assert_eq!(pipe.rename_stall_until, now, "expired deadline unmoved");
        assert_eq!(pipe.dispatch_stall_until, now + 3);
        assert_eq!(pipe.retire_stall_until, now + 2);
    }

    #[test]
    fn squash_inside_the_rob_restores_cursors_and_refetches_in_order() {
        use tv_workloads::ArchReg;
        let now = 40;
        let mut pipe = vte_pipe();
        let mapping = |pipe: &Pipeline| -> Vec<u16> {
            (1..=9).map(|r| pipe.rename.lookup(ArchReg::new(r))).collect()
        };
        let before = mapping(&pipe);
        // Seqs 0-2 in the ROB (and issue queue), 3-4 renamed, 5-6 decoded,
        // 7-8 fetched; everything renamed writes its own register.
        let plan = [Queue::Rob, Queue::Rob, Queue::Rob, Queue::Renamed, Queue::Renamed]
            .into_iter()
            .chain([Queue::Decoded; 2])
            .chain([Queue::Fetched; 2]);
        for (seq, q) in plan.enumerate() {
            let mut inst = frontend_inst(OpClass::IntAlu, None);
            if matches!(q, Queue::Rob | Queue::Renamed) {
                let reg = ArchReg::new(seq as u8 + 1);
                let renamed = pipe.rename.rename_dst(reg).expect("free registers");
                inst.trace.dst = Some(reg);
                inst.dst_phys = Some(renamed.new_phys);
                inst.old_phys = Some(renamed.old_phys);
            }
            let slot = admit(&mut pipe, inst, q, now);
            if q == Queue::Rob {
                pipe.iq.push(&pipe.rename, &pipe.window, slot);
            }
        }

        pipe.squash_from(1);
        assert_eq!(pipe.window.range(Queue::Rob), 0..1);
        for q in [Queue::Renamed, Queue::Decoded, Queue::Fetched] {
            assert_eq!(pipe.window.range(q), 1..1, "{q:?}");
        }
        assert_eq!(pipe.iq.len(), 1, "squashed entries leave the issue queue");
        assert_eq!(pipe.stats.squashed, 8);
        let refetch: Vec<(u64, bool)> = pipe.refetch.iter().map(|&(t, c)| (t.seq, c)).collect();
        let expected: Vec<(u64, bool)> = (1..9).map(|seq| (seq, seq == 1)).collect();
        assert_eq!(refetch, expected, "seq order; only the replayed instance is cleared");
        let after = mapping(&pipe);
        assert_ne!(after[0], before[0], "seq 0 keeps its rename");
        assert_eq!(after[1..], before[1..], "every squashed rename is rolled back");

        // Refetch re-enters the suffix at the window's tail, in order.
        pipe.fetch(now + 1);
        assert_eq!(pipe.window.range(Queue::Fetched), 1..5);
        assert_eq!(pipe.refetch.front().map(|(t, _)| t.seq), Some(5));
    }

    /// A flush-recovery Razor pipeline whose only instruction, a
    /// mispredicted branch with an unpredicted Execute fault dispatched at
    /// `now - 1`, issues at `now`: its ReplayFault and Resolve events are
    /// both due at `now + 2`.
    fn flush_pipe_with_pending_events(now: u64) -> Pipeline {
        let cfg = CoreConfig {
            recovery: RecoveryModel::Flush,
            ..CoreConfig::core1()
        };
        let mut pipe = Pipeline::builder(Benchmark::Gcc, 7)
            .config(cfg)
            .tolerance(ToleranceMode::Razor)
            .voltage(Voltage::high_fault())
            .build();
        let mut branch = frontend_inst(OpClass::CondBranch, None);
        branch.branch_mispredicted = true;
        branch.actual_fault = Some(PipeStage::Execute);
        let slot = admit(&mut pipe, branch, Queue::Rob, now - 1);
        pipe.fetch_blocked_on = Some(0);
        pipe.issue_one(now, slot, 0);
        assert_eq!(pipe.events.len(), 2);
        pipe
    }

    #[test]
    fn squashed_instance_events_are_ignored_by_its_twin() {
        let now = 30;
        // Control: the events fire on the instance they name.
        let mut pipe = flush_pipe_with_pending_events(now);
        pipe.process_events(now + 2);
        assert_eq!(pipe.stats.replays, 1);

        // Squash the instance, then refetch and re-dispatch its twin: same
        // seq, same slot, still a mispredicted branch blocking fetch.
        let mut pipe = flush_pipe_with_pending_events(now);
        pipe.squash_from(0);
        let (trace, _) = pipe.refetch.pop_front().expect("squashed instance awaits refetch");
        let mut twin = InFlightInst::new(trace);
        twin.branch_mispredicted = true;
        admit(&mut pipe, twin, Queue::Rob, now + 1);
        pipe.fetch_blocked_on = Some(0);

        pipe.process_events(now + 2);
        assert_eq!(pipe.stats.replays, 0, "the original's ReplayFault must not replay the twin");
        assert_eq!(pipe.fetch_blocked_on, Some(0), "nor its Resolve unblock fetch");
        assert_eq!(pipe.window.range(Queue::Rob), 0..1);
        assert_eq!(pipe.stats.squashed, 1);
    }

    #[test]
    fn lsq_full_dispatch_does_not_consume_predicted_fault() {
        // The LSQ availability check must come before the fault is charged:
        // a load that cannot allocate its LSQ entry stays renamed with
        // its predicted fault intact, and pays the two-cycle stall in the
        // cycle it actually dispatches.
        let now = 50;
        let mut pipe = vte_pipe();
        while pipe.lsq.free() > 0 {
            assert!(pipe.lsq.alloc_load());
        }
        let load = frontend_inst(OpClass::Load, Some(PipeStage::Dispatch));
        let load = admit(&mut pipe, load, Queue::Renamed, now);

        pipe.dispatch(now);
        assert_eq!(pipe.stats.in_order_stalls, 0, "no charge while the LSQ blocks dispatch");
        assert!(!pipe.window.get(load).in_order_charged);
        assert_eq!(pipe.window.len_of(Queue::Renamed), 1);

        pipe.lsq.release_load();
        pipe.dispatch(now + 1);
        assert_eq!(pipe.stats.in_order_stalls, 1, "fault charged once dispatch is possible");
        assert_eq!(pipe.dispatch_stall_until, now + 3);

        pipe.dispatch(now + 3);
        assert_eq!(pipe.window.len_of(Queue::Rob), 1, "load dispatches after its second cycle");
    }

    #[test]
    fn auditor_reports_clean_runs_across_schemes() {
        for mode in [
            ToleranceMode::FaultFree,
            ToleranceMode::Razor,
            ToleranceMode::ErrorPadding,
            ToleranceMode::ViolationAware,
        ] {
            let vdd = if mode == ToleranceMode::FaultFree {
                Voltage::nominal()
            } else {
                Voltage::high_fault()
            };
            let mut pipe = Pipeline::builder(Benchmark::Astar, 7)
                .tolerance(mode)
                .voltage(vdd)
                .audit(AuditLevel::Full)
                .build();
            pipe.warm_up(2_000); // auditing must survive the stats reset
            pipe.run(8_000);
            let report = pipe.audit_report().expect("auditing enabled");
            assert!(report.cycles > 0 && report.checks > report.cycles);
            assert!(
                report.clean(),
                "{mode:?}: {} violations, first: {:?}",
                report.violations_total,
                report.violations.first()
            );
        }
    }

    #[test]
    fn audit_off_has_no_report_and_identical_results() {
        let run = |level: AuditLevel| {
            let mut b = Pipeline::builder(Benchmark::Gobmk, 5)
                .tolerance(ToleranceMode::ViolationAware)
                .voltage(Voltage::high_fault());
            if level.enabled() {
                b = b.audit(level);
            }
            let mut pipe = b.build();
            let stats = pipe.run(10_000);
            (stats, pipe.audit_report())
        };
        let (base, none) = run(AuditLevel::Off);
        let (audited, report) = run(AuditLevel::Full);
        assert!(none.is_none());
        assert!(report.is_some());
        assert_eq!(base, audited, "auditing must not perturb the simulation");
    }

    #[test]
    fn commit_log_records_architectural_stream() {
        let mut pipe = Pipeline::builder(Benchmark::Gcc, 3)
            .record_commits(true)
            .build();
        pipe.run(500);
        let log = pipe.commit_log().expect("recording enabled");
        assert_eq!(log.len(), 500);
        for (i, &(seq, _, _)) in log.iter().enumerate() {
            assert_eq!(seq, i as u64, "commit stream is contiguous from 0");
        }
    }

    #[test]
    fn walked_calibration_decides_like_a_probe_that_builds_every_instruction() {
        for (bench, seed, ff) in [
            (Benchmark::Gcc, 42, 0),
            (Benchmark::Mcf, 7, 777),
            (Benchmark::Libquantum, 3, 12_345),
        ] {
            let builder = Pipeline::builder(bench, seed)
                .tolerance(ToleranceMode::ViolationAware)
                .voltage(Voltage::high_fault())
                .fast_forward(ff);
            let (_, walked) = builder.stream_from(&StreamMemo::new());
            let walked = walked.expect("faulty mode has a model");

            let mut gen = tv_workloads::TraceGenerator::for_benchmark(bench, seed);
            gen.fast_forward(ff);
            let mut weights = std::collections::HashMap::new();
            for _ in 0..FAULT_CALIBRATION_PROBE {
                *weights.entry(gen.next_inst().pc).or_insert(0u64) += 1;
            }
            let reference = FaultModel::calibrated(
                builder.resolved_calibration(),
                builder.vdd,
                seed,
                builder.resolved_sensor(),
                weights,
            );

            // Every static PC and one past the end (unprofiled), at
            // xorshift-scattered sequence numbers.
            let mut pcs: Vec<u64> = gen
                .program()
                .blocks()
                .iter()
                .flat_map(|b| &b.insts)
                .map(|i| i.pc)
                .collect();
            pcs.push(pcs[pcs.len() - 1] + 4);
            let mut x = seed | 1;
            let mut faults = 0;
            for i in 0..100_000u64 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let pc = pcs[(x % pcs.len() as u64) as usize];
                let (is_mem, seq) = (x >> 63 == 1, (x >> 20) % 1_000_000 + i);
                let verdict = walked.decide(pc, is_mem, seq);
                assert_eq!(
                    verdict,
                    reference.decide(pc, is_mem, seq),
                    "{bench:?} pc {pc:#x} seq {seq}"
                );
                faults += usize::from(verdict.is_some());
            }
            assert!(
                faults > 0,
                "{bench:?}: no pair faulted; the comparison is vacuous"
            );
        }
    }

    #[test]
    fn fast_forward_offsets_commit_stream() {
        let stats = Pipeline::builder(Benchmark::Gcc, 9)
            .fast_forward(5_000)
            .build()
            .run(1_000);
        assert_eq!(stats.committed, 1_000);
    }
}
