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
    /// Per [`OpClass`], the bitmask of lanes able to execute it.
    accepts: [u32; OpClass::ALL.len()],
    /// Total extra-cycle lane holds applied for faulty instructions
    /// (slot-freeze events, for the stats).
    pub slot_freezes: u64,
}

impl ExecUnits {
    /// Builds the lane array from the configuration.
    ///
    /// # Panics
    ///
    /// Panics with more than 32 lanes (the select masks are `u32`).
    pub fn new(cfg: &CoreConfig) -> Self {
        assert!(cfg.lanes.len() <= 32, "at most 32 issue lanes");
        let mut accepts = [0u32; OpClass::ALL.len()];
        for op in OpClass::ALL {
            for (i, kind) in cfg.lanes.iter().enumerate() {
                if kind.accepts(op) {
                    accepts[op as usize] |= 1 << i;
                }
            }
        }
        ExecUnits {
            lanes: cfg
                .lanes
                .iter()
                .map(|&kind| Lane {
                    kind,
                    next_accept: 0,
                })
                .collect(),
            accepts,
            slot_freezes: 0,
        }
    }

    /// Bitmask of the lanes free to accept an instruction at `cycle`.
    pub fn free_lanes(&self, cycle: u64) -> u32 {
        self.lanes
            .iter()
            .enumerate()
            .fold(0, |m, (i, l)| m | (u32::from(l.next_accept <= cycle) << i))
    }

    /// The lowest-numbered lane of the `free` mask able to execute `op`
    /// (lanes are in selection order).
    pub fn lane_for(&self, op: OpClass, free: u32) -> Option<usize> {
        let fit = free & self.accepts[op as usize];
        (fit != 0).then(|| fit.trailing_zeros() as usize)
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
    /// caller must pick it with [`lane_for`](Self::lane_for) first).
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

    /// The select's lane choice for `op` at `cycle`, with the lanes in
    /// `claimed` already taken this cycle.
    fn pick(u: &ExecUnits, op: OpClass, cycle: u64, claimed: u32) -> Option<usize> {
        u.lane_for(op, u.free_lanes(cycle) & !claimed)
    }

    #[test]
    fn select_prefers_first_capable_free_lane() {
        let u = units();
        // IntAlu fits lanes 0 and 1; lane 0 preferred.
        assert_eq!(pick(&u, OpClass::IntAlu, 0, 0), Some(0));
        assert_eq!(pick(&u, OpClass::Load, 0, 0), Some(3));
        assert_eq!(pick(&u, OpClass::IntMul, 0, 0), Some(2));
        assert_eq!(pick(&u, OpClass::CondBranch, 0, 0), Some(0));
    }

    #[test]
    fn claimed_lanes_are_skipped() {
        let u = units();
        assert_eq!(pick(&u, OpClass::IntAlu, 0, 0b0001), Some(1));
        assert_eq!(pick(&u, OpClass::IntAlu, 0, 0b0011), None);
        assert_eq!(
            pick(&u, OpClass::Jump, 0, 0b0001),
            None,
            "lane 0 alone jumps"
        );
    }

    #[test]
    fn pipelined_lane_accepts_next_cycle() {
        let mut u = units();
        u.occupy(2, 10, 0, false); // pipelined mul
        assert_eq!(pick(&u, OpClass::IntMul, 10, 0), None);
        assert_eq!(pick(&u, OpClass::IntMul, 11, 0), Some(2));
    }

    #[test]
    fn unpipelined_divide_blocks_lane() {
        let mut u = units();
        u.occupy(2, 10, 11, false); // div: busy 12 cycles total
        assert_eq!(pick(&u, OpClass::IntMul, 21, 0), None);
        assert_eq!(pick(&u, OpClass::IntMul, 22, 0), Some(2));
    }

    #[test]
    fn faulty_hold_freezes_one_extra_cycle() {
        let mut u = units();
        u.occupy(0, 5, 0, true);
        assert_eq!(u.slot_freezes, 1);
        // normally free at 6; frozen through 6, free at 7
        assert_eq!(u.free_lanes(6), 0b1110);
        assert_eq!(pick(&u, OpClass::IntAlu, 6, 0), Some(1));
        assert_eq!(pick(&u, OpClass::IntAlu, 6, 0b0010), None);
        assert_eq!(pick(&u, OpClass::IntAlu, 7, 0), Some(0));
    }

    #[test]
    fn global_stall_shifts_pending_releases() {
        let mut u = units();
        u.occupy(3, 20, 0, false);
        u.shift_pending_after(20, 2);
        assert_eq!(pick(&u, OpClass::Load, 22, 0), None);
        assert_eq!(pick(&u, OpClass::Load, 23, 0), Some(3));
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
