//! Pluggable instruction-selection priority.
//!
//! Every cycle the issue stage gathers the operand-ready issue-queue
//! entries and asks the [`SelectPolicy`] to order them; the pipeline then
//! assigns them greedily to free lanes. The paper's three policies (§3.5)
//! differ only in this ordering:
//!
//! * **ABS** (age-based) — oldest first, via the 6-bit modulo-64 timestamp
//!   ([`AgeBasedSelect`], provided here; also the policy the fault-free and
//!   Error Padding baselines use, §4.2);
//! * **FFS** (faulty-first) — predicted-faulty instructions first, age
//!   otherwise (in `tv-core`);
//! * **CDS** (criticality-driven) — faulty *and critical* first, age
//!   otherwise (in `tv-core`).

use tv_workloads::OpClass;

/// A selection candidate: one operand-ready issue-queue entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IssueCandidate {
    /// Window slot of the instruction.
    pub slot: crate::inflight::SlotId,
    /// Dynamic sequence number (true age; unique).
    pub seq: u64,
    /// 6-bit modulo-64 dispatch timestamp (what the ABS hardware compares).
    pub timestamp: u8,
    /// TEP predicted-faulty bit from the issue-queue entry (§3.2.1).
    pub faulty: bool,
    /// CDL criticality bit (§3.5.2).
    pub critical: bool,
    /// Operation class (for lane assignment).
    pub op: OpClass,
}

/// Instruction-selection priority policy.
///
/// Implementations reorder `candidates` in place, highest priority first.
/// The ordering must be a permutation — the pipeline asserts no candidate
/// is lost.
pub trait SelectPolicy {
    /// Short name for reports (e.g. `"ABS"`).
    fn name(&self) -> &'static str;

    /// Orders `candidates`, highest selection priority first.
    fn prioritize(&mut self, candidates: &mut [IssueCandidate]);
}

/// Age-based selection: oldest instruction first.
///
/// Hardware compares 6-bit modulo-64 timestamps; the simulator uses the
/// unique sequence number, which yields the identical order whenever the
/// in-flight age span is below 64 (guaranteed here because timestamps are
/// assigned at dispatch and the issue queue is far smaller than 64).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AgeBasedSelect;

impl AgeBasedSelect {
    /// Creates the policy.
    pub fn new() -> Self {
        AgeBasedSelect
    }
}

impl SelectPolicy for AgeBasedSelect {
    fn name(&self) -> &'static str {
        "ABS"
    }

    fn prioritize(&mut self, candidates: &mut [IssueCandidate]) {
        // Unstable sort: `seq` is unique, so the order is total and the
        // result is a pure function of the candidate *set* — and the
        // unstable sort never allocates, keeping the issue stage on the
        // zero-allocation steady-state path.
        candidates.sort_unstable_by_key(|c| c.seq);
    }
}

/// The 6-bit relative age the ABS comparator computes (paper §3.5): the
/// modulo-64 distance from the oldest in-flight timestamp `head` up to
/// `ts`. Ordering candidates by this key reproduces true dispatch order
/// whenever the in-flight age span is below 64 — including across the
/// 63→0 counter wrap — which is what lets the hardware compare 6-bit
/// timestamps instead of full sequence numbers. [`AgeBasedSelect`] sorts
/// by the unique `seq`, which the tests below pin as equivalent.
pub fn mod64_age(ts: u8, head: u8) -> u8 {
    ts.wrapping_sub(head) & 63
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn candidate(seq: u64, faulty: bool, critical: bool) -> IssueCandidate {
        IssueCandidate {
            slot: seq as usize,
            seq,
            timestamp: (seq % 64) as u8,
            faulty,
            critical,
            op: OpClass::IntAlu,
        }
    }

    #[test]
    fn abs_orders_by_age() {
        let mut cands = vec![
            candidate(30, true, true),
            candidate(10, false, false),
            candidate(20, true, false),
        ];
        AgeBasedSelect::new().prioritize(&mut cands);
        let seqs: Vec<u64> = cands.iter().map(|c| c.seq).collect();
        assert_eq!(seqs, vec![10, 20, 30]);
        assert_eq!(AgeBasedSelect::new().name(), "ABS");
    }

    #[test]
    fn abs_ignores_fault_bits() {
        let mut cands = vec![candidate(2, true, true), candidate(1, false, false)];
        AgeBasedSelect::new().prioritize(&mut cands);
        assert_eq!(cands[0].seq, 1);
    }

    #[test]
    fn mod64_age_handles_counter_wraparound() {
        // Head at timestamp 62: the wrap (62, 63, 0, 1) still orders.
        assert_eq!(mod64_age(62, 62), 0);
        assert_eq!(mod64_age(63, 62), 1);
        assert_eq!(mod64_age(0, 62), 2);
        assert_eq!(mod64_age(1, 62), 3);
        // The youngest representable age is head - 1 (mod 64).
        assert_eq!(mod64_age(61, 62), 63);
    }

    #[test]
    fn mod64_age_matches_seq_order_across_wrap() {
        // Any window of in-flight instructions whose age span is < 64
        // orders identically by 6-bit relative age and by unique seq —
        // exercised across every alignment of the 63→0 wrap.
        for start in 0..128u64 {
            let seqs: Vec<u64> = (start..start + 63).rev().collect();
            let head_ts = (start % 64) as u8;
            let mut by_age: Vec<u64> = seqs.clone();
            by_age.sort_by_key(|&s| mod64_age((s % 64) as u8, head_ts));
            let mut by_seq = seqs;
            by_seq.sort_unstable();
            assert_eq!(by_age, by_seq, "window starting at {start}");
        }
    }

    #[test]
    fn abs_seq_sort_equals_hardware_timestamp_sort() {
        // A realistic post-wrap issue-queue snapshot: ages 60..72 mod 64.
        let mut cands: Vec<IssueCandidate> = [70, 61, 63, 66, 60, 64, 71, 62]
            .iter()
            .map(|&s| candidate(s, false, false))
            .collect();
        let head_ts = cands
            .iter()
            .map(|c| c.timestamp)
            .min_by_key(|&t| mod64_age(t, 60))
            .unwrap();
        assert_eq!(head_ts, 60 % 64);
        let mut by_hw = cands.clone();
        by_hw.sort_by_key(|c| mod64_age(c.timestamp, head_ts));
        AgeBasedSelect::new().prioritize(&mut cands);
        assert_eq!(by_hw, cands, "ABS order must match the 6-bit comparator");
    }
}
