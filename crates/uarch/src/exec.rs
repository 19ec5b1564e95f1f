//! Execution lanes with Functional Unit State Register (FUSR) semantics.
//!
//! Each issue lane owns its register-read port, functional unit and
//! writeback slot. A lane accepts at most one instruction per cycle; the
//! FUSR (paper §3.3.3) is modelled as a per-lane `next_accept` cycle:
//!
//! * single-cycle units accept every cycle;
//! * pipelined multi-cycle units accept every cycle;
//! * unpipelined units (divide) are busy for their full latency;
//! * issuing a *faulty* instruction holds the lane one extra cycle — the
//!   paper's issue-slot freeze / FUSR-bit-off / read-port-block / frozen
//!   writeback-slot, which are all the same "no new input behind the
//!   faulty instruction" rule.

use tv_workloads::OpClass;

use crate::config::{CoreConfig, LaneKind};

/// One execution lane.
#[derive(Debug, Clone, Copy)]
pub struct Lane {
    /// Capability class.
    pub kind: LaneKind,
    /// First cycle at which a new instruction may be issued to this lane.
    next_accept: u64,
}

/// The execution-lane array.
#[derive(Debug, Clone)]
pub struct ExecUnits {
    lanes: Vec<Lane>,
    /// Total extra-cycle lane holds applied for faulty instructions
    /// (slot-freeze events, for the stats).
    pub slot_freezes: u64,
}

impl ExecUnits {
    /// Builds the lane array from the configuration.
    pub fn new(cfg: &CoreConfig) -> Self {
        ExecUnits {
            lanes: cfg
                .lanes
                .iter()
                .map(|&kind| Lane {
                    kind,
                    next_accept: 0,
                })
                .collect(),
            slot_freezes: 0,
        }
    }

    /// Number of lanes.
    pub fn len(&self) -> usize {
        self.lanes.len()
    }

    /// Whether there are no lanes (never true for a valid config).
    pub fn is_empty(&self) -> bool {
        self.lanes.is_empty()
    }

    /// Finds a lane able to accept `op` at `cycle`, preferring earlier
    /// lanes (selection order). `blocked` marks lanes already claimed this
    /// cycle.
    pub fn find_lane(&self, op: OpClass, cycle: u64, blocked: &[bool]) -> Option<usize> {
        self.lanes.iter().enumerate().position(|(i, lane)| {
            !blocked[i] && lane.kind.accepts(op) && lane.next_accept <= cycle
        })
    }

    /// Issues `op` to `lane` at `cycle`.
    ///
    /// `unpipelined_busy` is the number of cycles an unpipelined unit stays
    /// busy (0 for pipelined/single-cycle ops); `faulty_hold` adds the
    /// paper's one-cycle freeze behind a faulty instruction.
    ///
    /// # Panics
    ///
    /// Panics if the lane cannot accept the instruction at `cycle` (the
    /// caller must use [`find_lane`](Self::find_lane) first).
    pub fn occupy(&mut self, lane: usize, cycle: u64, unpipelined_busy: u64, faulty_hold: bool) {
        let l = &mut self.lanes[lane];
        assert!(l.next_accept <= cycle, "lane is busy");
        let mut next = cycle + 1 + unpipelined_busy;
        if faulty_hold {
            next += 1;
            self.slot_freezes += 1;
        }
        l.next_accept = next;
    }

    /// Freezes `lane` through cycle `until` (inclusive) — used by the EP
    /// scheme's global stall and by writeback-slot recirculation.
    pub fn freeze_until(&mut self, lane: usize, until: u64) {
        let l = &mut self.lanes[lane];
        l.next_accept = l.next_accept.max(until + 1);
    }

    /// The lane's capability class.
    pub fn kind(&self, lane: usize) -> LaneKind {
        self.lanes[lane].kind
    }

    /// Pushes every pending lane release one cycle later (whole-pipeline
    /// recirculation stall).
    pub fn shift_pending_after(&mut self, now: u64, delta: u64) {
        for lane in &mut self.lanes {
            if lane.next_accept > now {
                lane.next_accept += delta;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn units() -> ExecUnits {
        ExecUnits::new(&CoreConfig::core1())
    }

    #[test]
    fn find_prefers_first_capable_free_lane() {
        let u = units();
        let blocked = vec![false; u.len()];
        // IntAlu fits lanes 0 and 1; lane 0 preferred.
        assert_eq!(u.find_lane(OpClass::IntAlu, 0, &blocked), Some(0));
        assert_eq!(u.find_lane(OpClass::Load, 0, &blocked), Some(3));
        assert_eq!(u.find_lane(OpClass::IntMul, 0, &blocked), Some(2));
    }

    #[test]
    fn blocked_lanes_are_skipped() {
        let u = units();
        let mut blocked = vec![false; u.len()];
        blocked[0] = true;
        assert_eq!(u.find_lane(OpClass::IntAlu, 0, &blocked), Some(1));
        blocked[1] = true;
        assert_eq!(u.find_lane(OpClass::IntAlu, 0, &blocked), None);
    }

    #[test]
    fn pipelined_lane_accepts_next_cycle() {
        let mut u = units();
        let blocked = vec![false; u.len()];
        u.occupy(2, 10, 0, false); // pipelined mul
        assert_eq!(u.find_lane(OpClass::IntMul, 10, &blocked), None);
        assert_eq!(u.find_lane(OpClass::IntMul, 11, &blocked), Some(2));
    }

    #[test]
    fn unpipelined_divide_blocks_lane() {
        let mut u = units();
        let blocked = vec![false; u.len()];
        u.occupy(2, 10, 11, false); // div: busy 12 cycles total
        assert_eq!(u.find_lane(OpClass::IntMul, 21, &blocked), None);
        assert_eq!(u.find_lane(OpClass::IntMul, 22, &blocked), Some(2));
    }

    #[test]
    fn faulty_hold_freezes_one_extra_cycle() {
        let mut u = units();
        let blocked = vec![false; u.len()];
        u.occupy(0, 5, 0, true);
        assert_eq!(u.slot_freezes, 1);
        // normally free at 6; frozen through 6, free at 7
        assert_eq!(u.find_lane(OpClass::IntAlu, 6, &blocked), Some(1));
        let b2 = vec![true, true, false, false];
        assert_eq!(u.find_lane(OpClass::IntAlu, 6, &b2), None);
        let b3 = vec![false; 4];
        assert_eq!(u.find_lane(OpClass::IntAlu, 7, &b3), Some(0));
    }

    #[test]
    fn freeze_until_extends_hold() {
        let mut u = units();
        u.freeze_until(3, 20);
        let blocked = vec![false; u.len()];
        assert_eq!(u.find_lane(OpClass::Load, 20, &blocked), None);
        assert_eq!(u.find_lane(OpClass::Load, 21, &blocked), Some(3));
        assert_eq!(u.kind(3), LaneKind::Mem);
    }

    #[test]
    #[should_panic(expected = "lane is busy")]
    fn double_occupy_panics() {
        let mut u = units();
        u.occupy(0, 5, 0, false);
        u.occupy(0, 5, 0, false);
    }
}
