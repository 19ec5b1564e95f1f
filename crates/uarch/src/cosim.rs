//! Single-pass multi-scheme co-simulation: one shared frontend feeding
//! N per-scheme timing lanes.
//!
//! PR 2's differential harness proved that every tolerance scheme commits
//! the bit-identical architectural stream — schemes differ in *timing*,
//! never in *work*. A conventional sweep still pays for that work N times:
//! each solo [`Pipeline`] regenerates the trace, re-samples the fault
//! stream and re-trains an identical branch predictor, and one built
//! alone (outside a [`StreamMemo`] it shares) also re-runs the
//! 300k-instruction fault-calibration probe. [`CoSim`] runs the lanes
//! against one [`SharedFrontend`] instead, so per tuple the sweep pays for
//! trace generation, fault sampling, branch-outcome prediction, and the
//! calibration probe exactly once.
//!
//! # What is shareable, and why
//!
//! Under the default in-situ recovery model ([`RecoveryModel::InSitu`]),
//! replay happens in place: nothing is squashed, so fetch order equals
//! trace order in every lane. That makes the following *scheme-invariant*:
//!
//! * **The instruction stream.** [`TraceInst`] is pre-resolved; the
//!   generator's output depends only on (workload, seed, fast-forward).
//! * **Fault sampling.** [`FaultModel::decide`] is a pure function of
//!   (PC, is-mem, seq) given the model's calibration — and the model
//!   itself depends only on (workload, seed, fast-forward, voltage,
//!   sensor), all of which the lanes share per tuple.
//! * **Branch-predictor outcomes.** The predictor observes the fetch
//!   stream in order and updates deterministically, so its
//!   mispredict/correct verdict per dynamic branch is identical across
//!   lanes.
//!
//! Everything downstream of fetch — queue occupancy clocks, stall
//! ledgers, replay/EP accounting, TEP training (which interleaves
//! predict-at-decode with train-at-retire and is therefore
//! timing-dependent), caches, and the rename/value planes — stays
//! per-lane, untouched.
//!
//! # The bit-identity contract
//!
//! Co-simulation is an optimization, never a semantic fork: every lane's
//! committed stream hash, [`SimStats`], audit verdicts, and oracle
//! verdicts are bit-identical to a solo run of that scheme. The driver
//! guarantees this by construction —
//!
//! * each lane is a full [`Pipeline`] built by the same builder path as a
//!   solo run, differing only in where `fetch` pulls its next
//!   (instruction, fault, branch-verdict) triple;
//! * the shared fault model is built by the same probe code a solo build
//!   runs ([`PipelineBuilder`] internals are reused, not re-implemented);
//! * `run`/`warm_up`/`run_to_halt` set each lane's commit limit once per
//!   phase — exactly as the solo entry points do — and then advance lanes
//!   in bounded chunks toward shared commit milestones, so chunked
//!   stepping executes the very same `step()` sequence a solo run would;
//! * watchdog bookkeeping is carried per lane across chunks, reproducing
//!   the solo watchdog window;
//! * a lane whose watchdog trips stops where it tripped, exactly where a
//!   solo `try_run` returns its error: it runs no later chunk or phase and
//!   gets no `finish_phase`/`reset_stats`, so its statistics, oracle
//!   report and dump are the solo run's. It also stops holding back the
//!   shared memo, and its siblings run on to their phase targets.
//!
//! `tests/cosim_equiv.rs` pins the contract over a grid of synthetic
//! tuples and every RISC-V builtin.
//!
//! [`RecoveryModel::InSitu`]: crate::config::RecoveryModel::InSitu

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use tv_timing::{FaultModel, PipeStage, Voltage};
use tv_workloads::{TraceInst, WorkloadSource};

use crate::branch::BranchPredictor;
use crate::config::RecoveryModel;
use crate::pipeline::{Pipeline, PipelineBuilder, ToleranceMode};
use crate::profile::{stage, timed_stage};
use crate::stats::SimStats;
use crate::stream::StreamMemo;
use crate::watchdog::WatchdogError;

/// Commits each lane advances per interleaving chunk. Large enough that
/// lane switches are rare relative to per-instruction work, small enough
/// that the shared memo buffer stays cache-resident (the lanes' commit
/// points never drift more than a chunk plus the in-flight window apart).
const CHUNK_COMMITS: u64 = 2048;

/// One instruction as fed to a lane's fetch stage: the pre-resolved trace
/// record plus the frontend verdicts that are scheme-invariant.
pub(crate) struct FedInst {
    pub trace: TraceInst,
    /// Sampled timing-violation stage, already `None` for fault-free lanes.
    pub fault: Option<PipeStage>,
    /// Branch-predictor verdict from the shared frontend (co-sim) for
    /// branches/jumps; `None` means the lane resolves the instruction
    /// against its own predictor (solo mode, and a no-op for other ops).
    pub mispred: Option<bool>,
}

/// Where a pipeline's fetch stage gets instructions: its own workload
/// source (solo) or a cursor into a [`SharedFrontend`] (co-sim).
pub(crate) enum Feed {
    Direct(Box<dyn WorkloadSource>),
    Shared(SharedCursor),
}

impl Feed {
    /// Pulls the next instruction plus its frontend verdicts. `fm` is the
    /// lane's fault model; the shared path ignores it (the shared frontend
    /// sampled the stream already).
    #[inline]
    pub(crate) fn next(&mut self, fm: Option<&FaultModel>) -> Option<FedInst> {
        match self {
            Feed::Direct(src) => timed_stage!(stage::FRONTEND, {
                src.next_inst().map(|trace| FedInst {
                    fault: fm.and_then(|m| m.decide(trace.pc, trace.op.is_mem(), trace.seq)),
                    mispred: None,
                    trace,
                })
            }),
            Feed::Shared(cursor) => cursor.next(),
        }
    }
}

/// One memoized frontend record, shared by all lanes.
struct SharedEntry {
    trace: TraceInst,
    fault: Option<PipeStage>,
    /// [`BranchPredictor::resolve`]'s verdict (`None` for non-branches).
    mispred: Option<bool>,
}

/// The scheme-invariant frontend pass, computed once and memoized until
/// the slowest lane has consumed it.
pub struct SharedFrontend {
    src: Box<dyn WorkloadSource>,
    /// Shared fault model (None when every lane is fault-free).
    fm: Option<FaultModel>,
    /// Shared branch predictor; valid because fetch order is trace order
    /// in every lane under in-situ recovery.
    bp: BranchPredictor,
    buf: VecDeque<SharedEntry>,
    /// Sequence number of `buf[0]`; `u64::MAX` until the first pull.
    base: u64,
    /// Per-cursor next sequence number; `u64::MAX` once the cursor's lane
    /// has wedged and released its hold.
    positions: Vec<u64>,
    /// The source ended; no further entries will ever exist.
    done: bool,
    /// Total instructions pulled from the source (profile/attribution).
    pulled: u64,
}

impl SharedFrontend {
    /// Runs the shared pass for one more instruction; false when the
    /// source is exhausted.
    fn pull_one(&mut self) -> bool {
        timed_stage!(stage::FRONTEND, {
            let Some(trace) = self.src.next_inst() else {
                self.done = true;
                return false;
            };
            if self.base == u64::MAX {
                self.base = trace.seq;
            }
            debug_assert_eq!(trace.seq, self.base + self.buf.len() as u64);
            let fault = self
                .fm
                .as_ref()
                .and_then(|m| m.decide(trace.pc, trace.op.is_mem(), trace.seq));
            // Same prediction/update sequence as Pipeline::fetch runs solo.
            let mispred = self.bp.resolve(&trace);
            self.pulled += 1;
            self.buf.push_back(SharedEntry { trace, fault, mispred });
            true
        })
    }

    /// Next instruction for cursor `id`; `faulty` lanes see the sampled
    /// fault stream, fault-free lanes see a clean one.
    fn next_for(&mut self, id: usize, faulty: bool) -> Option<FedInst> {
        let seq = self.positions[id];
        while self.base == u64::MAX || seq >= self.base + self.buf.len() as u64 {
            if !self.pull_one() {
                return None;
            }
        }
        let entry = &self.buf[(seq - self.base) as usize];
        self.positions[id] = seq + 1;
        Some(FedInst {
            trace: entry.trace,
            fault: if faulty { entry.fault } else { None },
            mispred: entry.mispred,
        })
    }

    /// Stops cursor `id` holding back [`reclaim`](Self::reclaim): its
    /// lane has wedged and will never fetch again.
    fn release(&mut self, id: usize) {
        self.positions[id] = u64::MAX;
    }

    /// Drops memo entries every live lane has consumed (called between
    /// chunks).
    fn reclaim(&mut self) {
        let min = self.positions.iter().copied().min().unwrap_or(self.base);
        while self.base < min && !self.buf.is_empty() {
            self.buf.pop_front();
            self.base += 1;
        }
    }
}

/// One lane's cursor into the shared frontend.
pub(crate) struct SharedCursor {
    shared: Rc<RefCell<SharedFrontend>>,
    id: usize,
    faulty: bool,
}

impl SharedCursor {
    #[inline]
    fn next(&mut self) -> Option<FedInst> {
        self.shared.borrow_mut().next_for(self.id, self.faulty)
    }
}

struct Lane {
    pipe: Pipeline,
    /// Watchdog bookkeeping carried across chunks; reset at phase starts,
    /// exactly mirroring the locals of a solo `try_run`.
    wd_last_commit_cycle: u64,
    wd_last_committed: u64,
    /// The solo-identical dump of the watchdog trip that stopped this
    /// lane for good; `None` while the lane runs. Boxed to keep the
    /// lanes' stride unchanged by a field that is almost always `None`.
    wedged: Option<Box<WatchdogError>>,
}

impl Lane {
    /// This lane's outcome so far: its wedge dump, or `ok`.
    fn outcome<T>(&self, ok: impl FnOnce() -> T) -> Result<T, WatchdogError> {
        self.wedged.as_deref().cloned().map_or_else(|| Ok(ok()), Err)
    }
}

/// Drives N per-scheme [`Pipeline`] lanes against one [`SharedFrontend`]
/// in a single interleaved run. See the module docs for the sharing
/// argument and the bit-identity contract.
pub struct CoSim {
    shared: Rc<RefCell<SharedFrontend>>,
    lanes: Vec<Lane>,
}

impl CoSim {
    /// Builds one lane per builder against a shared frontend.
    ///
    /// # Panics
    ///
    /// Panics when the builders are not co-simulable: they must share the
    /// workload, seed, and fast-forward (one stream), use in-situ recovery
    /// (fetch order must equal trace order), and every faulty lane must
    /// resolve to the same voltage, calibration, and sensor (one fault
    /// model). Tolerance mode, select policy, TEP geometry, CT, audit,
    /// and oracle settings are free per lane.
    pub fn build(builders: Vec<PipelineBuilder>) -> CoSim {
        assert!(!builders.is_empty(), "co-sim needs at least one lane");
        let first = &builders[0];
        let (seed, fast_forward) = (first.seed, first.fast_forward);
        let mut fm_params: Option<(Voltage, _, _)> = None;
        for (i, b) in builders.iter().enumerate() {
            assert!(
                first.workload == b.workload,
                "lane {i}: co-sim lanes must share one workload"
            );
            assert_eq!(b.seed, seed, "lane {i}: co-sim lanes must share one seed");
            assert_eq!(
                b.fast_forward, fast_forward,
                "lane {i}: co-sim lanes must share one fast-forward"
            );
            assert_eq!(
                b.cfg.recovery,
                RecoveryModel::InSitu,
                "lane {i}: co-sim requires in-situ recovery (fetch order must \
                 equal trace order for the frontend to be scheme-invariant)"
            );
            if b.mode != ToleranceMode::FaultFree {
                let params = (b.vdd, b.resolved_calibration(), b.resolved_sensor());
                match &fm_params {
                    None => fm_params = Some(params),
                    Some(p) => assert_eq!(
                        *p, params,
                        "lane {i}: faulty co-sim lanes must share one fault model \
                         (voltage, calibration, sensor)"
                    ),
                }
            }
        }
        // One stream and one calibration probe for the whole bundle, via
        // the same builder path a solo build runs — the shared model is
        // bit-identical to each faulty lane's solo one.
        let (src, fm) = builders
            .iter()
            .find(|b| b.mode != ToleranceMode::FaultFree)
            .unwrap_or(first)
            .stream_from(&StreamMemo::new());
        let shared = Rc::new(RefCell::new(SharedFrontend {
            src,
            fm: fm.clone(),
            bp: BranchPredictor::default_geometry(),
            buf: VecDeque::new(),
            base: u64::MAX,
            positions: vec![fast_forward; builders.len()],
            done: false,
            pulled: 0,
        }));
        let lanes = builders
            .into_iter()
            .enumerate()
            .map(|(id, b)| {
                let faulty = b.mode != ToleranceMode::FaultFree;
                let lane_fm = if faulty {
                    Some(fm.clone().expect("faulty lane implies a fault model"))
                } else {
                    None
                };
                let cursor = SharedCursor { shared: Rc::clone(&shared), id, faulty };
                Lane {
                    pipe: b.build_with(Feed::Shared(cursor), lane_fm),
                    wd_last_commit_cycle: 0,
                    wd_last_committed: 0,
                    wedged: None,
                }
            })
            .collect();
        CoSim { shared, lanes }
    }

    /// Number of lanes.
    pub fn len(&self) -> usize {
        self.lanes.len()
    }

    /// Whether the co-sim has no lanes (never true for a built co-sim).
    pub fn is_empty(&self) -> bool {
        self.lanes.is_empty()
    }

    /// Lane `i`'s pipeline (reports, stats, end-state accessors).
    pub fn lane(&self, i: usize) -> &Pipeline {
        &self.lanes[i].pipe
    }

    /// Instructions the shared frontend pulled from the source — the work
    /// paid once instead of N times.
    pub fn shared_pulls(&self) -> u64 {
        self.shared.borrow().pulled
    }

    /// Frontend records memoized for live lanes that have yet to fetch
    /// them. A wedged lane holds none back, so this stays near one chunk
    /// plus the in-flight window however far its siblings run on.
    pub fn memo_len(&self) -> usize {
        self.shared.borrow().buf.len()
    }

    /// Warms every lane by `commits` instructions, then resets statistics —
    /// the co-sim analogue of [`Pipeline::warm_up`].
    ///
    /// # Panics
    ///
    /// Panics if any lane deadlocks.
    pub fn warm_up(&mut self, commits: u64) {
        for outcome in self.try_warm_up(commits) {
            outcome.unwrap_or_else(|e| panic!("pipeline deadlock: {e}"));
        }
    }

    /// Fallible [`warm_up`](CoSim::warm_up): one outcome per lane, in
    /// build order. A lane that wedges keeps its warm-up statistics
    /// unreset, as a solo `try_run` of the warm-up leaves them, and every
    /// later phase returns the same dump for it.
    pub fn try_warm_up(&mut self, commits: u64) -> Vec<Result<(), WatchdogError>> {
        if commits > 0 {
            self.drive(commits, false);
            for lane in self.lanes.iter_mut().filter(|l| l.wedged.is_none()) {
                // Same sequence as a solo warm_up: run() finalizes, then resets.
                lane.pipe.finish_phase();
                lane.pipe.reset_stats();
            }
        }
        self.lanes.iter().map(|lane| lane.outcome(|| ())).collect()
    }

    /// Runs every lane until exactly `commits` more instructions retire
    /// and returns per-lane statistics in build order — the co-sim
    /// analogue of [`Pipeline::run`].
    ///
    /// # Panics
    ///
    /// Panics if any lane deadlocks.
    pub fn run(&mut self, commits: u64) -> Vec<SimStats> {
        Self::expect_live(self.try_run(commits))
    }

    /// Fallible [`run`](CoSim::run): one outcome per lane, in build order.
    /// A wedged lane's error is the dump a solo `try_run` returns; its
    /// siblings still run to the target.
    pub fn try_run(&mut self, commits: u64) -> Vec<Result<SimStats, WatchdogError>> {
        self.drive(commits, false);
        self.finish()
    }

    /// Runs every lane to its workload's halt (or `max_commits`, whichever
    /// comes first) — the co-sim analogue of [`Pipeline::run_to_halt`].
    ///
    /// # Panics
    ///
    /// Panics if any lane deadlocks.
    pub fn run_to_halt(&mut self, max_commits: u64) -> Vec<SimStats> {
        Self::expect_live(self.try_run_to_halt(max_commits))
    }

    /// Fallible [`run_to_halt`](CoSim::run_to_halt), one outcome per lane
    /// as in [`try_run`](CoSim::try_run).
    pub fn try_run_to_halt(&mut self, max_commits: u64) -> Vec<Result<SimStats, WatchdogError>> {
        self.drive(max_commits, true);
        self.finish()
    }

    fn expect_live(outcomes: Vec<Result<SimStats, WatchdogError>>) -> Vec<SimStats> {
        outcomes
            .into_iter()
            .map(|o| o.unwrap_or_else(|e| panic!("pipeline deadlock: {e}")))
            .collect()
    }

    fn finish(&mut self) -> Vec<Result<SimStats, WatchdogError>> {
        self.lanes
            .iter_mut()
            .map(|lane| {
                if lane.wedged.is_none() {
                    lane.pipe.finish_phase();
                }
                lane.outcome(|| lane.pipe.stats().clone())
            })
            .collect()
    }

    /// One run phase over the live lanes: set each one's commit limit to
    /// the phase-final target (once — mid-phase clamps would change retire
    /// behaviour at chunk boundaries vs a solo run), then advance them in
    /// bounded chunks toward shared commit milestones, reclaiming drained
    /// memo entries between chunks. A lane whose watchdog trips stops
    /// there for good and releases its hold on the memo.
    fn drive(&mut self, commits: u64, to_halt: bool) {
        let Some(start) = self
            .lanes
            .iter()
            .find(|l| l.wedged.is_none())
            .map(|l| l.pipe.stats().committed)
        else {
            return;
        };
        let target = start.saturating_add(commits);
        for lane in self.lanes.iter_mut().filter(|l| l.wedged.is_none()) {
            debug_assert_eq!(lane.pipe.stats().committed, start, "lanes drift between phases");
            lane.pipe.set_commit_limit(target);
            lane.wd_last_commit_cycle = lane.pipe.cycle();
            lane.wd_last_committed = lane.pipe.stats().committed;
        }
        let mut milestone = start;
        loop {
            milestone = milestone.saturating_add(CHUNK_COMMITS).min(target);
            let mut all_done = true;
            for (id, lane) in self.lanes.iter_mut().enumerate() {
                if lane.wedged.is_some() {
                    continue;
                }
                let stepped = lane.pipe.step_toward(
                    milestone,
                    to_halt,
                    &mut lane.wd_last_commit_cycle,
                    &mut lane.wd_last_committed,
                );
                if let Err(e) = stepped {
                    lane.wedged = Some(Box::new(e));
                    self.shared.borrow_mut().release(id);
                } else if lane.pipe.stats().committed < target
                    && !(to_halt && lane.pipe.drained())
                {
                    all_done = false;
                }
            }
            self.shared.borrow_mut().reclaim();
            if all_done {
                return;
            }
        }
    }
}
