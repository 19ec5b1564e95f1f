//! Machine configuration (Fabscalar Core-1 defaults).

use tv_workloads::OpClass;

/// How an unpredicted timing violation is corrected (paper §2.1.2:
/// "error recovery is triggered using instruction replay, similar to
/// Razor").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryModel {
    /// Razor-style in-situ replay: the faulty instruction re-executes with
    /// a restored guard band (`replay_penalty` extra cycles) while the
    /// pipeline inserts `replay_latency` recovery bubbles. Younger
    /// independent instructions are preserved.
    InSitu,
    /// Full flush: the faulty instruction and everything younger are
    /// squashed and refetched (a heavyweight recovery, kept for ablation).
    Flush,
}

/// Functional capability of an issue lane.
///
/// The Core-1-style machine issues one instruction per lane per cycle; each
/// lane owns its register-read port, functional unit, and writeback slot,
/// so holding a lane for an extra cycle models the paper's issue-slot
/// freezing, register-read-port blocking and FUSR management uniformly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LaneKind {
    /// Single-cycle simple ALU; also resolves branches.
    SimpleAluBranch,
    /// Single-cycle simple ALU.
    SimpleAlu,
    /// Multi-cycle complex unit: pipelined multiply / FP, unpipelined divide.
    Complex,
    /// Memory port: address generation followed by data-cache access.
    Mem,
}

impl LaneKind {
    /// Whether this lane can execute `op`.
    pub fn accepts(self, op: OpClass) -> bool {
        match self {
            LaneKind::SimpleAluBranch => {
                matches!(op, OpClass::IntAlu | OpClass::CondBranch | OpClass::Jump)
            }
            LaneKind::SimpleAlu => op == OpClass::IntAlu,
            LaneKind::Complex => matches!(
                op,
                OpClass::IntMul | OpClass::IntDiv | OpClass::FpAlu | OpClass::FpMul
            ),
            LaneKind::Mem => matches!(op, OpClass::Load | OpClass::Store),
        }
    }
}

/// Full machine configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct CoreConfig {
    /// Pipeline width W (fetch/decode/rename/dispatch/issue/retire).
    pub width: usize,
    /// Issue lanes, in selection order.
    pub lanes: Vec<LaneKind>,
    /// Issue-queue entries.
    pub iq_entries: usize,
    /// Reorder-buffer entries.
    pub rob_entries: usize,
    /// Load/store-queue entries.
    pub lsq_entries: usize,
    /// Physical integer registers.
    pub phys_regs: usize,
    /// Front-end latency from fetch to rename input, in cycles (models the
    /// multi-stage fetch/decode pipe; Core-1's fetch→execute loop is 10).
    pub frontend_latency: u64,
    /// Latency of each of rename, dispatch (cycles per stage).
    pub rename_latency: u64,
    /// Execute latency of a pipelined multiply.
    pub mul_latency: u64,
    /// Execute latency of an *unpipelined* divide.
    pub div_latency: u64,
    /// Execute latency of pipelined FP add.
    pub fp_alu_latency: u64,
    /// Execute latency of pipelined FP multiply.
    pub fp_mul_latency: u64,
    /// L1 data/instruction cache hit latency.
    pub l1_latency: u64,
    /// L2 hit latency (paper: 25 cycles).
    pub l2_latency: u64,
    /// Main-memory latency (paper: 240 cycles).
    pub mem_latency: u64,
    /// L1 size in bytes (paper: 32 KB), 4-way.
    pub l1_bytes: usize,
    /// L1 associativity.
    pub l1_ways: usize,
    /// L2 size in bytes (paper: 8 MB), 16-way.
    pub l2_bytes: usize,
    /// L2 associativity.
    pub l2_ways: usize,
    /// Cache line size in bytes.
    pub line_bytes: usize,
    /// Extra cycles from a branch-misprediction redirect until fetch
    /// resumes (on top of the refill through the front end).
    pub redirect_latency: u64,
    /// Recovery bubbles inserted per replay (whole-pipeline stall cycles
    /// while the Razor recovery restores the stage), and — for the flush
    /// model — extra cycles before fetch resumes.
    pub replay_latency: u64,
    /// Extra execution cycles the replayed instruction takes to re-execute
    /// with a restored guard band (in-situ model only).
    pub replay_penalty: u64,
    /// Replay recovery mechanism.
    pub recovery: RecoveryModel,
    /// Watchdog threshold: cycles without a commit before the simulation
    /// gives up with a structured [`WatchdogError`](crate::WatchdogError)
    /// diagnostic instead of spinning forever.
    pub watchdog_cycles: u64,
}

impl CoreConfig {
    /// The Fabscalar Core-1-like configuration used throughout the paper.
    pub fn core1() -> Self {
        CoreConfig {
            width: 4,
            lanes: vec![
                LaneKind::SimpleAluBranch,
                LaneKind::SimpleAlu,
                LaneKind::Complex,
                LaneKind::Mem,
            ],
            iq_entries: 32,
            rob_entries: 128,
            lsq_entries: 48,
            phys_regs: 96,
            frontend_latency: 4,
            rename_latency: 1,
            mul_latency: 3,
            div_latency: 12,
            fp_alu_latency: 4,
            fp_mul_latency: 6,
            l1_latency: 1,
            l2_latency: 25,
            mem_latency: 240,
            l1_bytes: 32 * 1024,
            l1_ways: 4,
            l2_bytes: 8 * 1024 * 1024,
            l2_ways: 16,
            line_bytes: 64,
            redirect_latency: 2,
            replay_latency: 3,
            replay_penalty: 8,
            recovery: RecoveryModel::InSitu,
            watchdog_cycles: 500_000,
        }
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics on structurally impossible configurations (zero width, no
    /// lanes, fewer physical registers than architectural, more
    /// issue-queue entries than its `u64` masks hold, etc.).
    pub fn validate(&self) {
        assert!(self.width >= 1, "width must be at least 1");
        assert!(!self.lanes.is_empty(), "at least one issue lane required");
        assert!(self.iq_entries >= self.width, "issue queue too small");
        assert!(self.iq_entries <= 64, "at most 64 issue-queue entries");
        assert!(self.rob_entries >= self.width, "ROB too small");
        assert!(self.lsq_entries >= 2, "LSQ too small");
        assert!(
            self.phys_regs >= 32 + self.width,
            "need more physical than architectural registers"
        );
        assert!(
            self.lanes.iter().any(|l| l.accepts(OpClass::Load)),
            "need a memory lane"
        );
        assert!(
            self.lanes.iter().any(|l| l.accepts(OpClass::CondBranch)),
            "need a branch-capable lane"
        );
        assert!(
            self.watchdog_cycles >= 1,
            "watchdog threshold must be positive"
        );
        assert!(
            self.line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(
            self.l1_bytes % (self.l1_ways * self.line_bytes) == 0,
            "L1 geometry invalid"
        );
        assert!(
            self.l2_bytes % (self.l2_ways * self.line_bytes) == 0,
            "L2 geometry invalid"
        );
    }

    /// Execute latency of `op` (memory access latency excluded for loads).
    pub fn exec_latency(&self, op: OpClass) -> u64 {
        match op {
            OpClass::IntAlu | OpClass::CondBranch | OpClass::Jump => 1,
            OpClass::IntMul => self.mul_latency,
            OpClass::IntDiv => self.div_latency,
            OpClass::FpAlu => self.fp_alu_latency,
            OpClass::FpMul => self.fp_mul_latency,
            // address generation; the cache access is added separately
            OpClass::Load | OpClass::Store => 1,
        }
    }
}

impl Default for CoreConfig {
    fn default() -> Self {
        Self::core1()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn core1_is_valid_and_paper_shaped() {
        let c = CoreConfig::core1();
        c.validate();
        assert_eq!(c.width, 4);
        assert_eq!(c.iq_entries, 32);
        assert_eq!(c.phys_regs, 96);
        assert_eq!(c.l2_latency, 25);
        assert_eq!(c.mem_latency, 240);
        assert_eq!(c.lanes.len(), 4);
    }

    #[test]
    fn lane_capabilities() {
        assert!(LaneKind::SimpleAluBranch.accepts(OpClass::CondBranch));
        assert!(LaneKind::SimpleAluBranch.accepts(OpClass::IntAlu));
        assert!(!LaneKind::SimpleAlu.accepts(OpClass::Load));
        assert!(LaneKind::Complex.accepts(OpClass::IntMul));
        assert!(LaneKind::Complex.accepts(OpClass::FpMul));
        assert!(LaneKind::Mem.accepts(OpClass::Store));
        assert!(!LaneKind::Mem.accepts(OpClass::IntAlu));
    }

    #[test]
    fn exec_latencies() {
        let c = CoreConfig::core1();
        assert_eq!(c.exec_latency(OpClass::IntAlu), 1);
        assert_eq!(c.exec_latency(OpClass::IntMul), 3);
        assert_eq!(c.exec_latency(OpClass::IntDiv), 12);
        assert_eq!(c.exec_latency(OpClass::Load), 1);
    }

    #[test]
    #[should_panic(expected = "issue queue too small")]
    fn invalid_config_panics() {
        let c = CoreConfig {
            iq_entries: 1,
            ..CoreConfig::core1()
        };
        c.validate();
    }

    #[test]
    #[should_panic(expected = "at most 64 issue-queue entries")]
    fn oversized_issue_queue_panics() {
        let c = CoreConfig {
            iq_entries: 65,
            ..CoreConfig::core1()
        };
        c.validate();
    }
}
