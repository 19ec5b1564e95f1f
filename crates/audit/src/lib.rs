//! Cycle-level invariant auditor for the pipeline simulator.
//!
//! The paper's schemes rest on *exact* one-cycle accounting: the §2.2
//! stall signals, delayed tag broadcast and issue-slot freezing must each
//! cost precisely one cycle, and an Error-Padding global stall must slip
//! every pending timestamp together. This crate checks those properties
//! continuously instead of trusting end-of-run statistics.
//!
//! The pipeline publishes an [`AuditSnapshot`] at the end of every cycle;
//! each [`Invariant`] compares the current snapshot (and the previous one,
//! for transition invariants) and reports [`Violation`]s. The auditor is
//! behind a builder flag and costs nothing when off.
//!
//! Invariant catalogue:
//! * instruction conservation — `fetched = committed + squashed +
//!   in-flight` every cycle;
//! * ROB age-ordering and contiguous-seq commit;
//! * physical-register ready-bit monotonicity within a broadcast epoch;
//! * LSQ load/store ordering and occupancy;
//! * mod-64 ABS timestamp bounds (§3.5);
//! * stall-signal exclusivity — a stage stalled by a TEP stall signal
//!   admits zero instructions that cycle and the next;
//! * EP global-stall closure — every pending deadline slips together,
//!   including the in-order stall deadlines.

use tv_timing::PipeStage;

/// How much state the pipeline snapshots for the auditor each cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AuditLevel {
    /// No auditing; the pipeline takes no snapshots at all.
    #[default]
    Off,
    /// Scalar counters and deadlines only (cheap; suitable for CI sweeps).
    Basic,
    /// Everything in `Basic` plus full structure scans (ROB contents,
    /// physical-register file, event queue, front-end buffers).
    Full,
}

impl AuditLevel {
    /// Whether any auditing happens at this level.
    pub fn enabled(self) -> bool {
        self != AuditLevel::Off
    }
}

/// One invariant violation, timestamped with the cycle it was observed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Cycle at which the violating snapshot was taken.
    pub cycle: u64,
    /// Name of the invariant that failed.
    pub invariant: &'static str,
    /// Human-readable description of the failure.
    pub detail: String,
}

/// End-of-cycle pipeline state published to the auditor.
///
/// Scalar fields are filled at every level; the `Vec` fields are filled
/// only at [`AuditLevel::Full`] (empty otherwise) except where noted.
#[derive(Debug, Clone, Default)]
pub struct AuditSnapshot {
    /// Cycle this snapshot was taken (end of cycle).
    pub cycle: u64,
    /// Whether this cycle was an EP stall or recovery bubble (every latch
    /// recirculated; no stage ran).
    pub global_stall: bool,

    /// Cumulative instructions fetched.
    pub fetched: u64,
    /// Cumulative instructions committed.
    pub committed: u64,
    /// Cumulative instructions squashed.
    pub squashed: u64,
    /// Instructions currently in flight (window occupancy).
    pub in_flight: u64,

    /// Next sequence number expected at commit (the in-flight window's
    /// head).
    pub next_commit_seq: u64,
    /// Sequence number at the ROB head, if any.
    pub rob_head_seq: Option<u64>,

    /// The 6-bit ABS dispatch timestamp counter.
    pub timestamp_counter: u8,

    /// In-order stall deadline for rename (stage runs when `now >= deadline`).
    pub rename_stall_until: u64,
    /// In-order stall deadline for dispatch.
    pub dispatch_stall_until: u64,
    /// In-order stall deadline for retire.
    pub retire_stall_until: u64,
    /// Fetch stall deadline (redirects/replays).
    pub fetch_stall_until: u64,

    /// Instructions the rename stage admitted this cycle.
    pub rename_admits: u32,
    /// Instructions the dispatch stage admitted this cycle.
    pub dispatch_admits: u32,
    /// Instructions the retire stage committed this cycle.
    pub retire_admits: u32,
    /// In-order stall signals charged this cycle: `(stage, seq, stage
    /// admissions at the instant the signal fired)`. Older width-group
    /// members may pass before the signal, but nothing may follow it.
    pub charges: Vec<(PipeStage, u64, u32)>,

    /// Store-queue sequence numbers, oldest first (all levels).
    pub store_seqs: Vec<u64>,
    /// Combined LSQ occupancy (loads + stores).
    pub lsq_occupancy: usize,
    /// LSQ capacity.
    pub lsq_capacity: usize,

    /// ROB contents as sequence numbers, oldest first (`Full` only).
    pub rob_seqs: Vec<u64>,
    /// ABS timestamps of every ROB-resident instruction (`Full` only).
    pub inflight_timestamps: Vec<u8>,
    /// Per-physical-register `(broadcast_epoch, ready_cycle)` (`Full` only).
    pub phys_regs: Vec<(u64, u64)>,
    /// Scheduled event times, ascending (`Full` only).
    pub event_times: Vec<u64>,
    /// Ready times of all front-end queue entries, fetch→rename order
    /// (`Full` only).
    pub queue_ready: Vec<u64>,
}

/// A checkable pipeline invariant.
///
/// `prev` is `None` on the first audited cycle. Implementations may keep
/// internal state (hence `&mut self`), but most derive everything from the
/// two snapshots.
pub trait Invariant {
    /// Stable name used in reports and CSV output.
    fn name(&self) -> &'static str;
    /// Checks the transition `prev → cur`, appending any violations.
    fn check(&mut self, prev: Option<&AuditSnapshot>, cur: &AuditSnapshot, out: &mut Vec<Violation>);
}

/// Cap on stored violation records; further violations are only counted.
const MAX_STORED_VIOLATIONS: usize = 256;

/// Summary of an audited run.
#[derive(Debug, Clone, Default)]
pub struct AuditReport {
    /// Cycles audited.
    pub cycles: u64,
    /// Individual invariant checks performed.
    pub checks: u64,
    /// Total violations observed (may exceed `violations.len()`).
    pub violations_total: u64,
    /// First `MAX_STORED_VIOLATIONS` violation records.
    pub violations: Vec<Violation>,
}

impl AuditReport {
    /// Whether the run was violation-free.
    pub fn clean(&self) -> bool {
        self.violations_total == 0
    }
}

/// Drives a set of invariants over the per-cycle snapshot stream.
pub struct Auditor {
    level: AuditLevel,
    invariants: Vec<Box<dyn Invariant>>,
    prev: Option<AuditSnapshot>,
    cycles: u64,
    checks: u64,
    violations_total: u64,
    violations: Vec<Violation>,
}

impl Auditor {
    /// Creates an auditor with the standard invariant set for `level`.
    ///
    /// # Panics
    ///
    /// Panics if `level` is [`AuditLevel::Off`] — an off auditor should
    /// not exist at all.
    pub fn new(level: AuditLevel) -> Self {
        assert!(level.enabled(), "AuditLevel::Off has no auditor");
        let mut invariants: Vec<Box<dyn Invariant>> = vec![
            Box::new(InstructionConservation),
            Box::new(RobCommitOrder),
            Box::new(LsqOrder),
            Box::new(TimestampBounds),
            Box::new(StallExclusivity),
            Box::new(GlobalStallClosure),
        ];
        if level == AuditLevel::Full {
            invariants.push(Box::new(ReadyBitMonotonic));
        }
        Auditor {
            level,
            invariants,
            prev: None,
            cycles: 0,
            checks: 0,
            violations_total: 0,
            violations: Vec::new(),
        }
    }

    /// The configured audit level.
    pub fn level(&self) -> AuditLevel {
        self.level
    }

    /// Checks one end-of-cycle snapshot against every invariant.
    pub fn observe(&mut self, snapshot: AuditSnapshot) {
        self.cycles += 1;
        let mut found = Vec::new();
        for inv in &mut self.invariants {
            inv.check(self.prev.as_ref(), &snapshot, &mut found);
            self.checks += 1;
        }
        self.violations_total += found.len() as u64;
        let room = MAX_STORED_VIOLATIONS.saturating_sub(self.violations.len());
        self.violations.extend(found.into_iter().take(room));
        self.prev = Some(snapshot);
    }

    /// Snapshot of the report so far.
    pub fn report(&self) -> AuditReport {
        AuditReport {
            cycles: self.cycles,
            checks: self.checks,
            violations_total: self.violations_total,
            violations: self.violations.clone(),
        }
    }
}

// --- invariants --------------------------------------------------------------

/// `fetched = committed + squashed + in-flight`, every cycle.
pub struct InstructionConservation;

impl Invariant for InstructionConservation {
    fn name(&self) -> &'static str {
        "instruction-conservation"
    }

    fn check(&mut self, _prev: Option<&AuditSnapshot>, cur: &AuditSnapshot, out: &mut Vec<Violation>) {
        let accounted = cur.committed + cur.squashed + cur.in_flight;
        if cur.fetched != accounted {
            out.push(Violation {
                cycle: cur.cycle,
                invariant: self.name(),
                detail: format!(
                    "fetched {} != committed {} + squashed {} + in-flight {}",
                    cur.fetched, cur.committed, cur.squashed, cur.in_flight
                ),
            });
        }
    }
}

/// ROB entries are age-ordered with contiguous sequence numbers, the head
/// is the next instruction to commit, and commits advance `next_commit_seq`
/// in lock-step.
pub struct RobCommitOrder;

impl Invariant for RobCommitOrder {
    fn name(&self) -> &'static str {
        "rob-commit-order"
    }

    fn check(&mut self, prev: Option<&AuditSnapshot>, cur: &AuditSnapshot, out: &mut Vec<Violation>) {
        let mut fail = |detail: String| {
            out.push(Violation {
                cycle: cur.cycle,
                invariant: "rob-commit-order",
                detail,
            })
        };
        if let Some(head) = cur.rob_head_seq {
            if head != cur.next_commit_seq {
                fail(format!(
                    "ROB head seq {head} != next commit seq {}",
                    cur.next_commit_seq
                ));
            }
        }
        if let Some(prev) = prev {
            // Tolerate the measurement-window stats reset (committed drops
            // to 0 while next_commit_seq keeps counting).
            if cur.committed >= prev.committed {
                let commits = cur.committed - prev.committed;
                let seq_advance = cur.next_commit_seq - prev.next_commit_seq;
                if commits != seq_advance {
                    fail(format!(
                        "{commits} commits advanced next_commit_seq by {seq_advance}"
                    ));
                }
            }
        }
        // Full level: the whole window must be contiguous and age-ordered.
        for w in cur.rob_seqs.windows(2) {
            if w[1] != w[0] + 1 {
                fail(format!("ROB seqs not contiguous/ordered: {} then {}", w[0], w[1]));
                break;
            }
        }
        if let (Some(&first), Some(head)) = (cur.rob_seqs.first(), cur.rob_head_seq) {
            if first != head {
                fail(format!("ROB scan head {first} != reported head {head}"));
            }
        }
    }
}

/// Store-queue entries stay in program order and the LSQ never exceeds its
/// capacity.
pub struct LsqOrder;

impl Invariant for LsqOrder {
    fn name(&self) -> &'static str {
        "lsq-order"
    }

    fn check(&mut self, _prev: Option<&AuditSnapshot>, cur: &AuditSnapshot, out: &mut Vec<Violation>) {
        for w in cur.store_seqs.windows(2) {
            if w[1] <= w[0] {
                out.push(Violation {
                    cycle: cur.cycle,
                    invariant: self.name(),
                    detail: format!("store queue out of order: seq {} then {}", w[0], w[1]),
                });
                break;
            }
        }
        if cur.lsq_occupancy > cur.lsq_capacity {
            out.push(Violation {
                cycle: cur.cycle,
                invariant: self.name(),
                detail: format!(
                    "LSQ occupancy {} exceeds capacity {}",
                    cur.lsq_occupancy, cur.lsq_capacity
                ),
            });
        }
    }
}

/// The ABS dispatch timestamp is a 6-bit hardware counter (§3.5): the
/// counter and every in-flight timestamp stay below 64.
pub struct TimestampBounds;

impl Invariant for TimestampBounds {
    fn name(&self) -> &'static str {
        "timestamp-mod64"
    }

    fn check(&mut self, _prev: Option<&AuditSnapshot>, cur: &AuditSnapshot, out: &mut Vec<Violation>) {
        if cur.timestamp_counter >= 64 {
            out.push(Violation {
                cycle: cur.cycle,
                invariant: self.name(),
                detail: format!("timestamp counter {} >= 64", cur.timestamp_counter),
            });
        }
        if let Some(&ts) = cur.inflight_timestamps.iter().find(|&&t| t >= 64) {
            out.push(Violation {
                cycle: cur.cycle,
                invariant: self.name(),
                detail: format!("in-flight timestamp {ts} >= 64"),
            });
        }
    }
}

/// A stage stalled by a TEP stall signal (§2.2) admits zero instructions
/// that cycle and the next: from the instant a fault is charged the stage
/// admits nothing more (older width-group members may already have
/// passed), and a still-pending deadline from an earlier cycle keeps the
/// stage closed.
pub struct StallExclusivity;

impl StallExclusivity {
    fn check_stage(
        cur: &AuditSnapshot,
        prev: Option<&AuditSnapshot>,
        stage: PipeStage,
        deadline: u64,
        prev_deadline: Option<u64>,
        admits: u32,
        out: &mut Vec<Violation>,
    ) {
        if let Some(&(_, seq, admits_at_charge)) =
            cur.charges.iter().find(|&&(s, _, _)| s == stage)
        {
            if admits != admits_at_charge {
                out.push(Violation {
                    cycle: cur.cycle,
                    invariant: "stall-exclusivity",
                    detail: format!(
                        "{stage:?} admitted {} instructions after its stall signal fired for seq {seq}",
                        admits - admits_at_charge.min(admits)
                    ),
                });
            }
            if deadline != cur.cycle + 2 {
                out.push(Violation {
                    cycle: cur.cycle,
                    invariant: "stall-exclusivity",
                    detail: format!(
                        "{stage:?} charged a fault but deadline is {deadline}, expected {}",
                        cur.cycle + 2
                    ),
                });
            }
        }
        if prev.is_some() {
            if let Some(pd) = prev_deadline {
                // The deadline covered this cycle: the stage was closed.
                if pd > cur.cycle && admits != 0 {
                    out.push(Violation {
                        cycle: cur.cycle,
                        invariant: "stall-exclusivity",
                        detail: format!(
                            "{stage:?} admitted {admits} instructions under an active stall (deadline {pd})"
                        ),
                    });
                }
            }
        }
    }
}

impl Invariant for StallExclusivity {
    fn name(&self) -> &'static str {
        "stall-exclusivity"
    }

    fn check(&mut self, prev: Option<&AuditSnapshot>, cur: &AuditSnapshot, out: &mut Vec<Violation>) {
        let stages = [
            (PipeStage::Rename, cur.rename_stall_until, prev.map(|p| p.rename_stall_until), cur.rename_admits),
            (PipeStage::Dispatch, cur.dispatch_stall_until, prev.map(|p| p.dispatch_stall_until), cur.dispatch_admits),
            (PipeStage::Retire, cur.retire_stall_until, prev.map(|p| p.retire_stall_until), cur.retire_admits),
        ];
        for (stage, deadline, prev_deadline, admits) in stages {
            Self::check_stage(cur, prev, stage, deadline, prev_deadline, admits, out);
        }
    }
}

/// During an EP global stall or recovery bubble every latch recirculates:
/// no stage admits anything, no fault is charged, and every pending
/// in-order stall deadline slips by exactly one cycle (an expired deadline
/// stays put). At `Full` level the event queue and front-end buffer ready
/// times must slip in lock-step too.
pub struct GlobalStallClosure;

impl Invariant for GlobalStallClosure {
    fn name(&self) -> &'static str {
        "global-stall-closure"
    }

    fn check(&mut self, prev: Option<&AuditSnapshot>, cur: &AuditSnapshot, out: &mut Vec<Violation>) {
        if !cur.global_stall {
            return;
        }
        let mut fail = |detail: String| {
            out.push(Violation {
                cycle: cur.cycle,
                invariant: "global-stall-closure",
                detail,
            })
        };
        if cur.rename_admits + cur.dispatch_admits + cur.retire_admits != 0 {
            fail("stage admitted instructions during a global stall".to_string());
        }
        if !cur.charges.is_empty() {
            fail("in-order fault charged during a global stall".to_string());
        }
        let Some(prev) = prev else { return };
        let deadlines = [
            ("rename", prev.rename_stall_until, cur.rename_stall_until),
            ("dispatch", prev.dispatch_stall_until, cur.dispatch_stall_until),
            ("retire", prev.retire_stall_until, cur.retire_stall_until),
        ];
        for (label, before, after) in deadlines {
            let expected = if before > cur.cycle { before + 1 } else { before };
            if after != expected {
                fail(format!(
                    "{label} stall deadline {before} became {after} across a global stall, expected {expected}"
                ));
            }
        }
        // Full-level closure: scheduled events and front-end ready times
        // slip with the machine (events due this cycle are consumed).
        if !prev.event_times.is_empty() || !cur.event_times.is_empty() {
            let expected: Vec<u64> = prev
                .event_times
                .iter()
                .filter(|&&t| t > cur.cycle)
                .map(|&t| t + 1)
                .collect();
            if cur.event_times != expected {
                fail(format!(
                    "event times {:?} after global stall, expected {:?}",
                    cur.event_times, expected
                ));
            }
        }
        if !prev.queue_ready.is_empty() || !cur.queue_ready.is_empty() {
            let expected: Vec<u64> = prev
                .queue_ready
                .iter()
                .map(|&t| if t > cur.cycle { t + 1 } else { t })
                .collect();
            if cur.queue_ready != expected {
                fail(format!(
                    "front-end ready times {:?} after global stall, expected {:?}",
                    cur.queue_ready, expected
                ));
            }
        }
    }
}

/// Within one broadcast epoch a physical register's readiness is monotone:
/// a ready bit never un-sets, and a pending ready cycle only slips later
/// (global-stall recirculation). Any other movement requires a new
/// broadcast (epoch bump).
pub struct ReadyBitMonotonic;

impl Invariant for ReadyBitMonotonic {
    fn name(&self) -> &'static str {
        "ready-bit-monotonic"
    }

    fn check(&mut self, prev: Option<&AuditSnapshot>, cur: &AuditSnapshot, out: &mut Vec<Violation>) {
        let Some(prev) = prev else { return };
        if prev.phys_regs.len() != cur.phys_regs.len() {
            return;
        }
        for (phys, (&(pe, prc), &(ce, crc))) in
            prev.phys_regs.iter().zip(cur.phys_regs.iter()).enumerate()
        {
            if pe != ce {
                continue; // new broadcast epoch: no relation required
            }
            let was_ready = prc <= prev.cycle;
            let violated = if was_ready { crc != prc } else { crc < prc };
            if violated {
                out.push(Violation {
                    cycle: cur.cycle,
                    invariant: self.name(),
                    detail: format!(
                        "phys {phys} ready cycle moved {prc} -> {crc} within epoch {pe}"
                    ),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_snapshot(cycle: u64) -> AuditSnapshot {
        AuditSnapshot {
            cycle,
            fetched: 10,
            committed: 4,
            squashed: 2,
            in_flight: 4,
            next_commit_seq: 4,
            rob_head_seq: Some(4),
            lsq_capacity: 16,
            ..AuditSnapshot::default()
        }
    }

    fn run_one(inv: &mut dyn Invariant, prev: Option<&AuditSnapshot>, cur: &AuditSnapshot) -> Vec<Violation> {
        let mut out = Vec::new();
        inv.check(prev, cur, &mut out);
        out
    }

    #[test]
    fn conservation_catches_lost_instruction() {
        let mut inv = InstructionConservation;
        let good = base_snapshot(5);
        assert!(run_one(&mut inv, None, &good).is_empty());
        let mut bad = base_snapshot(5);
        bad.in_flight = 3; // one instruction vanished
        let v = run_one(&mut inv, None, &bad);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, "instruction-conservation");
    }

    #[test]
    fn rob_order_catches_head_and_commit_mismatch() {
        let mut inv = RobCommitOrder;
        let prev = base_snapshot(5);
        let mut cur = base_snapshot(6);
        cur.committed = 6;
        cur.next_commit_seq = 6;
        cur.rob_head_seq = Some(6);
        assert!(run_one(&mut inv, Some(&prev), &cur).is_empty());

        // Head not the next commit seq.
        let mut bad = cur.clone();
        bad.rob_head_seq = Some(9);
        assert_eq!(run_one(&mut inv, Some(&prev), &bad).len(), 1);

        // Commit count and seq advance disagree (a lost or double commit).
        let mut bad = cur.clone();
        bad.next_commit_seq = 7;
        bad.rob_head_seq = Some(7);
        assert_eq!(run_one(&mut inv, Some(&prev), &bad).len(), 1);

        // Non-contiguous ROB scan.
        let mut bad = cur.clone();
        bad.rob_seqs = vec![6, 7, 9];
        assert_eq!(run_one(&mut inv, Some(&prev), &bad).len(), 1);
    }

    #[test]
    fn rob_order_tolerates_stats_reset() {
        let mut inv = RobCommitOrder;
        let mut prev = base_snapshot(5);
        prev.committed = 100;
        let mut cur = base_snapshot(6);
        cur.committed = 0; // reset_stats mid-run
        cur.next_commit_seq = prev.next_commit_seq + 3;
        cur.rob_head_seq = Some(cur.next_commit_seq);
        assert!(run_one(&mut inv, Some(&prev), &cur).is_empty());
    }

    #[test]
    fn lsq_order_catches_out_of_order_stores_and_overflow() {
        let mut inv = LsqOrder;
        let mut cur = base_snapshot(5);
        cur.store_seqs = vec![3, 7, 9];
        cur.lsq_occupancy = 5;
        assert!(run_one(&mut inv, None, &cur).is_empty());
        cur.store_seqs = vec![3, 9, 7];
        assert_eq!(run_one(&mut inv, None, &cur).len(), 1);
        cur.store_seqs = vec![3, 7];
        cur.lsq_occupancy = 17;
        assert_eq!(run_one(&mut inv, None, &cur).len(), 1);
    }

    #[test]
    fn timestamp_bounds_catch_counter_and_inflight_overflow() {
        let mut inv = TimestampBounds;
        let mut cur = base_snapshot(5);
        cur.timestamp_counter = 63;
        cur.inflight_timestamps = vec![0, 63, 12];
        assert!(run_one(&mut inv, None, &cur).is_empty());
        cur.timestamp_counter = 64;
        assert_eq!(run_one(&mut inv, None, &cur).len(), 1);
        cur.timestamp_counter = 1;
        cur.inflight_timestamps = vec![0, 64];
        assert_eq!(run_one(&mut inv, None, &cur).len(), 1);
    }

    #[test]
    fn stall_exclusivity_catches_admission_in_charge_cycle() {
        // The pre-fix dispatch bug: the stall signal fires but the width
        // group dispatches in the same cycle.
        let mut inv = StallExclusivity;
        let prev = base_snapshot(9);
        let mut cur = base_snapshot(10);
        // One older width-group member passed before the signal fired;
        // two more followed it — the pre-fix failure mode.
        cur.charges = vec![(PipeStage::Dispatch, 42, 1)];
        cur.dispatch_stall_until = 12;
        cur.dispatch_admits = 3;
        let v = run_one(&mut inv, Some(&prev), &cur);
        assert_eq!(v.len(), 1);
        assert!(v[0].detail.contains("Dispatch"));

        cur.dispatch_admits = 1;
        assert!(run_one(&mut inv, Some(&prev), &cur).is_empty());
    }

    #[test]
    fn stall_exclusivity_catches_admission_under_active_deadline() {
        // The second stall cycle: the deadline from the charge cycle still
        // covers this cycle, so the stage must admit nothing.
        let mut inv = StallExclusivity;
        let mut prev = base_snapshot(10);
        prev.retire_stall_until = 12;
        let mut cur = base_snapshot(11);
        cur.retire_stall_until = 12;
        cur.retire_admits = 1;
        let v = run_one(&mut inv, Some(&prev), &cur);
        assert_eq!(v.len(), 1);
        assert!(v[0].detail.contains("Retire"));

        cur.retire_admits = 0;
        assert!(run_one(&mut inv, Some(&prev), &cur).is_empty());
    }

    #[test]
    fn stall_exclusivity_requires_two_cycle_deadline() {
        let mut inv = StallExclusivity;
        let mut cur = base_snapshot(10);
        cur.charges = vec![(PipeStage::Rename, 7, 0)];
        cur.rename_stall_until = 11; // should be 12
        let v = run_one(&mut inv, None, &cur);
        assert_eq!(v.len(), 1);
        assert!(v[0].detail.contains("deadline"));
    }

    #[test]
    fn global_stall_closure_catches_unslipped_deadline() {
        // The pre-fix apply_global_stall bug: pending in-order deadlines
        // silently expire inside the stall.
        let mut inv = GlobalStallClosure;
        let mut prev = base_snapshot(10);
        prev.dispatch_stall_until = 12;
        let mut cur = base_snapshot(11);
        cur.global_stall = true;
        cur.dispatch_stall_until = 12; // must have slipped to 13
        let v = run_one(&mut inv, Some(&prev), &cur);
        assert_eq!(v.len(), 1);
        assert!(v[0].detail.contains("dispatch"));

        cur.dispatch_stall_until = 13;
        assert!(run_one(&mut inv, Some(&prev), &cur).is_empty());
    }

    #[test]
    fn global_stall_closure_checks_events_and_queues() {
        let mut inv = GlobalStallClosure;
        let mut prev = base_snapshot(10);
        prev.event_times = vec![11, 15];
        prev.queue_ready = vec![9, 12];
        let mut cur = base_snapshot(11);
        cur.global_stall = true;
        cur.event_times = vec![16]; // 11 consumed, 15 slipped
        cur.queue_ready = vec![9, 13]; // 9 expired stays, 12 slips
        assert!(run_one(&mut inv, Some(&prev), &cur).is_empty());

        cur.event_times = vec![15]; // failed to slip
        assert_eq!(run_one(&mut inv, Some(&prev), &cur).len(), 1);
        cur.event_times = vec![16];
        cur.queue_ready = vec![9, 12]; // failed to slip
        assert_eq!(run_one(&mut inv, Some(&prev), &cur).len(), 1);
    }

    #[test]
    fn global_stall_closure_ignores_normal_cycles() {
        let mut inv = GlobalStallClosure;
        let mut prev = base_snapshot(10);
        prev.dispatch_stall_until = 12;
        let mut cur = base_snapshot(11);
        cur.dispatch_stall_until = 12; // fine: not a stall cycle
        assert!(run_one(&mut inv, Some(&prev), &cur).is_empty());
    }

    #[test]
    fn ready_bit_monotonic_catches_unsetting_and_backsliding() {
        let mut inv = ReadyBitMonotonic;
        let mut prev = base_snapshot(10);
        prev.phys_regs = vec![(1, 5), (2, 20), (3, u64::MAX)];
        let mut cur = base_snapshot(11);
        cur.phys_regs = vec![(1, 5), (2, 21), (3, u64::MAX)];
        assert!(run_one(&mut inv, Some(&prev), &cur).is_empty());

        // Ready bit un-set without a new epoch.
        cur.phys_regs = vec![(1, 30), (2, 21), (3, u64::MAX)];
        assert_eq!(run_one(&mut inv, Some(&prev), &cur).len(), 1);

        // Pending ready cycle moved earlier without a new epoch.
        cur.phys_regs = vec![(1, 5), (2, 15), (3, u64::MAX)];
        assert_eq!(run_one(&mut inv, Some(&prev), &cur).len(), 1);

        // Epoch bump legitimises any movement.
        cur.phys_regs = vec![(2, 30), (2, 21), (4, 3)];
        assert!(run_one(&mut inv, Some(&prev), &cur).is_empty());
    }

    #[test]
    fn auditor_accumulates_and_caps_reports() {
        let mut auditor = Auditor::new(AuditLevel::Basic);
        auditor.observe(base_snapshot(1));
        let mut bad = base_snapshot(2);
        bad.in_flight = 0;
        auditor.observe(bad);
        let report = auditor.report();
        assert_eq!(report.cycles, 2);
        assert!(report.checks >= 12, "6 invariants x 2 cycles");
        assert_eq!(report.violations_total, 1);
        assert!(!report.clean());
    }

    #[test]
    fn full_level_adds_phys_reg_invariant() {
        let basic = Auditor::new(AuditLevel::Basic);
        let full = Auditor::new(AuditLevel::Full);
        assert_eq!(basic.invariants.len() + 1, full.invariants.len());
    }
}
