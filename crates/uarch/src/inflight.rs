//! In-flight instruction state and the window that owns it.
//!
//! Every in-flight instruction lives in one ring, at index `seq & mask`.
//! The in-flight set is always one contiguous run of sequence numbers in
//! program order: fetch appends at the tail (a squash's refetch re-enters
//! the squashed suffix in order), retire removes the head, and a squash
//! cuts a youngest suffix. Five cursors `head ≤ dispatched ≤ renamed ≤
//! decoded ≤ tail` therefore cut the ring into the pipeline's four
//! in-order structures — the reorder buffer and the three front-end
//! queues — each of which is just a range of it ([`Queue`]).

use std::ops::Range;

use tv_timing::PipeStage;
use tv_workloads::{OpClass, TraceInst};

/// Identifier of an in-flight instruction: its index in the [`Window`]
/// ring, `seq & mask`.
pub type SlotId = usize;

/// All per-instruction state carried through the pipeline.
#[derive(Debug, Clone, Copy)]
pub struct InFlightInst {
    /// The trace instruction (architectural content).
    pub trace: TraceInst,
    /// Timing-fault verdict from the fault model for this dynamic instance
    /// (`None` after a replay clears it: the replayed instance runs with a
    /// restored guard band, as in Razor).
    pub actual_fault: Option<PipeStage>,
    /// TEP prediction attached at decode.
    pub predicted_fault: Option<PipeStage>,
    /// TEP criticality bit attached at decode (used by CDS).
    pub predicted_critical: bool,
    /// TEP lookup key captured at decode so training hits the same entry.
    pub tep_key: Option<tv_tep::LookupKey>,
    /// Whether fetch detected that the branch predictor disagrees with the
    /// resolved outcome (fetch then blocks until this branch resolves).
    pub branch_mispredicted: bool,
    /// 6-bit modulo-64 dispatch timestamp (the paper's ABS hardware).
    pub timestamp: u8,
    /// Renamed source physical registers.
    pub src_phys: [Option<u16>; 2],
    /// Renamed destination physical register.
    pub dst_phys: Option<u16>,
    /// Previous mapping of the destination architectural register (freed at
    /// retire, restored on squash).
    pub old_phys: Option<u16>,
    /// Whether an in-order stall signal has already been charged for this
    /// instruction (the stage stall applies exactly once).
    pub in_order_charged: bool,
    /// Cycle the instruction may leave its front-end queue (set as it
    /// enters each of the fetch, decode and rename queues).
    pub ready: u64,
    /// Cycle the instruction was dispatched into the window.
    pub dispatch_cycle: u64,
    /// Cycle the instruction issued (None before issue).
    pub issue_cycle: Option<u64>,
    /// Cycle the instruction finishes writeback and may retire.
    pub complete_cycle: Option<u64>,
    /// Cycle dependents may issue (result broadcast timing).
    pub wake_cycle: Option<u64>,
}

impl InFlightInst {
    /// Wraps a trace instruction as it enters the machine.
    pub fn new(trace: TraceInst) -> Self {
        InFlightInst {
            trace,
            actual_fault: None,
            predicted_fault: None,
            predicted_critical: false,
            tep_key: None,
            branch_mispredicted: false,
            timestamp: 0,
            src_phys: [None, None],
            dst_phys: None,
            old_phys: None,
            in_order_charged: false,
            ready: 0,
            dispatch_cycle: 0,
            issue_cycle: None,
            complete_cycle: None,
            wake_cycle: None,
        }
    }

    /// Global dynamic sequence number.
    pub fn seq(&self) -> u64 {
        self.trace.seq
    }

    /// Whether the paper's VTE treats this instruction as faulty (a
    /// prediction exists for *some* OoO stage).
    pub fn treated_as_faulty(&self) -> bool {
        self.predicted_fault.map(|s| s.is_ooo()).unwrap_or(false)
    }
}

/// The window's four ranges, oldest first. An instruction leaves the front
/// of its range into the one before it: decode moves it from `Fetched` to
/// `Decoded`, rename to `Renamed`, dispatch into the `Rob`, and retire out
/// of the window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Queue {
    /// Dispatched and not yet retired: the reorder buffer.
    Rob,
    /// Renamed, waiting for dispatch.
    Renamed,
    /// Decoded, waiting for rename.
    Decoded,
    /// Fetched, waiting for decode.
    Fetched,
}

/// The in-flight window: a ring of [`InFlightInst`] indexed by
/// `seq & mask`, cut into the four [`Queue`] ranges by five cursors.
#[derive(Debug, Clone)]
pub struct Window {
    ring: Vec<InFlightInst>,
    mask: u64,
    /// `[head, dispatched, renamed, decoded, tail]`; range `q` is
    /// `[cursor[q], cursor[q + 1])`.
    cursor: [u64; 5],
}

impl Window {
    /// An empty window of `capacity` slots whose first fetched instruction
    /// carries sequence number `first_seq`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is not a power of two.
    pub fn new(capacity: usize, first_seq: u64) -> Self {
        assert!(
            capacity.is_power_of_two(),
            "window capacity must be a power of two"
        );
        let vacant = InFlightInst::new(TraceInst {
            seq: 0,
            pc: 0,
            op: OpClass::IntAlu,
            srcs: [None, None],
            dst: None,
            mem_addr: None,
            taken: None,
            target: None,
            operand_values: [0, 0],
        });
        Window {
            ring: vec![vacant; capacity],
            mask: capacity as u64 - 1,
            cursor: [first_seq; 5],
        }
    }

    /// The slot of sequence number `seq`.
    pub fn slot(&self, seq: u64) -> SlotId {
        (seq & self.mask) as SlotId
    }

    /// The oldest in-flight sequence number (the ROB head when the ROB is
    /// non-empty).
    pub fn head(&self) -> u64 {
        self.cursor[0]
    }

    /// The sequence number the next fetched instruction must carry.
    pub fn tail(&self) -> u64 {
        self.cursor[4]
    }

    /// The sequence numbers in range `q`, oldest first.
    pub fn range(&self, q: Queue) -> Range<u64> {
        self.cursor[q as usize]..self.cursor[q as usize + 1]
    }

    /// Occupancy of range `q`.
    pub fn len_of(&self, q: Queue) -> usize {
        (self.cursor[q as usize + 1] - self.cursor[q as usize]) as usize
    }

    /// Number of in-flight instructions.
    pub fn len(&self) -> usize {
        (self.tail() - self.head()) as usize
    }

    /// Whether nothing is in flight.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The slot at the front (oldest end) of range `q`, if any.
    pub fn front(&self, q: Queue) -> Option<SlotId> {
        let r = self.range(q);
        (r.start < r.end).then(|| self.slot(r.start))
    }

    /// Moves the front of range `q` into the range before it; for the ROB,
    /// out of the window (retire).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn advance(&mut self, q: Queue) {
        let i = q as usize;
        assert!(
            self.cursor[i] < self.cursor[i + 1],
            "advance from an empty range"
        );
        self.cursor[i] += 1;
    }

    /// Appends a fetched instruction at the tail and returns its slot.
    ///
    /// # Panics
    ///
    /// Panics if its sequence number does not continue the in-flight run,
    /// or if the ring is full.
    pub fn push_fetched(&mut self, inst: InFlightInst) -> SlotId {
        assert_eq!(
            inst.seq(),
            self.tail(),
            "fetched instruction must continue the in-flight run"
        );
        assert!(self.len() < self.ring.len(), "window overflow");
        let slot = self.slot(inst.seq());
        self.ring[slot] = inst;
        self.cursor[4] += 1;
        slot
    }

    /// Cuts every instruction with `seq >= seq_min` out of the window,
    /// clamping each cursor to `seq_min`.
    ///
    /// # Panics
    ///
    /// Panics if `seq_min` lies outside `[head, tail]`.
    pub fn truncate(&mut self, seq_min: u64) {
        assert!(
            (self.head()..=self.tail()).contains(&seq_min),
            "squash outside the window"
        );
        for c in &mut self.cursor[1..] {
            *c = (*c).min(seq_min);
        }
    }

    /// Whether `slot` holds an in-flight instruction (its sequence number
    /// lies in `[head, tail)`).
    fn contains(&self, slot: SlotId) -> bool {
        slot as u64 <= self.mask
            && (slot as u64).wrapping_sub(self.head()) & self.mask < self.len() as u64
    }

    /// Shared access.
    ///
    /// # Panics
    ///
    /// Panics if the slot holds no in-flight instruction.
    pub fn get(&self, slot: SlotId) -> &InFlightInst {
        assert!(self.contains(slot), "slot is occupied");
        &self.ring[slot]
    }

    /// Exclusive access.
    ///
    /// # Panics
    ///
    /// Panics if the slot holds no in-flight instruction.
    pub fn get_mut(&mut self, slot: SlotId) -> &mut InFlightInst {
        assert!(self.contains(slot), "slot is occupied");
        &mut self.ring[slot]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inst(seq: u64) -> InFlightInst {
        InFlightInst::new(TraceInst {
            seq,
            pc: 0x1000 + 4 * seq,
            op: OpClass::IntAlu,
            srcs: [None, None],
            dst: None,
            mem_addr: None,
            taken: None,
            target: None,
            operand_values: [0, 0],
        })
    }

    #[test]
    fn ranges_follow_the_cursors() {
        let mut w = Window::new(8, 100);
        for seq in 100..105 {
            w.push_fetched(inst(seq));
        }
        assert_eq!(w.range(Queue::Fetched), 100..105);
        w.advance(Queue::Fetched);
        w.advance(Queue::Fetched);
        w.advance(Queue::Decoded);
        w.advance(Queue::Renamed);
        assert_eq!(w.range(Queue::Rob), 100..101);
        assert_eq!(w.range(Queue::Renamed), 101..101);
        assert_eq!(w.range(Queue::Decoded), 101..102);
        assert_eq!(w.range(Queue::Fetched), 102..105);
        assert_eq!(w.front(Queue::Renamed), None);
        assert_eq!(w.front(Queue::Decoded), Some(w.slot(101)));
        assert_eq!(w.len(), 5);
        w.advance(Queue::Rob);
        assert_eq!(w.head(), 101);
        assert_eq!(w.len_of(Queue::Rob), 0);
    }

    #[test]
    fn ring_wraps_past_its_capacity_many_times() {
        // Keep five instructions in flight across a hundred laps of an
        // eight-slot ring: every slot is reused and every lookup still
        // finds the instance its sequence number names.
        let mut w = Window::new(8, 3);
        let mut next = 3;
        for _ in 0..5 {
            w.push_fetched(inst(next));
            next += 1;
        }
        for _ in 0..800 {
            for q in [Queue::Fetched, Queue::Decoded, Queue::Renamed, Queue::Rob] {
                if w.len_of(q) > 0 {
                    w.advance(q);
                }
            }
            while w.len() < 5 {
                w.push_fetched(inst(next));
                next += 1;
            }
            for seq in w.head()..w.tail() {
                assert_eq!(w.get(w.slot(seq)).seq(), seq);
            }
        }
        assert!(w.head() > 100 * 8, "the ring lapped many times");
    }

    #[test]
    fn truncate_clamps_every_cursor() {
        let mut w = Window::new(16, 0);
        for seq in 0..10 {
            w.push_fetched(inst(seq));
        }
        for (q, n) in [
            (Queue::Fetched, 8),
            (Queue::Decoded, 6),
            (Queue::Renamed, 4),
            (Queue::Rob, 1),
        ] {
            for _ in 0..n {
                w.advance(q);
            }
        }
        // head 1, dispatched 4, renamed 6, decoded 8, tail 10.
        w.truncate(5);
        assert_eq!(w.range(Queue::Rob), 1..4);
        assert_eq!(w.range(Queue::Renamed), 4..5);
        assert_eq!(w.range(Queue::Decoded), 5..5);
        assert_eq!(w.range(Queue::Fetched), 5..5);
        w.push_fetched(inst(5));
        assert_eq!(w.tail(), 6);
    }

    #[test]
    #[should_panic(expected = "must continue the in-flight run")]
    fn push_fetched_with_a_gap_panics() {
        let mut w = Window::new(8, 0);
        w.push_fetched(inst(0));
        w.push_fetched(inst(2));
    }

    #[test]
    #[should_panic(expected = "window overflow")]
    fn push_past_capacity_panics() {
        let mut w = Window::new(2, 0);
        for seq in 0..3 {
            w.push_fetched(inst(seq));
        }
    }

    #[test]
    #[should_panic(expected = "slot is occupied")]
    fn get_on_a_retired_slot_panics() {
        let mut w = Window::new(8, 0);
        let a = w.push_fetched(inst(0));
        w.push_fetched(inst(1));
        for q in [Queue::Fetched, Queue::Decoded, Queue::Renamed, Queue::Rob] {
            w.advance(q);
        }
        let _ = w.get(a);
    }

    #[test]
    fn treated_as_faulty_covers_only_ooo_stages() {
        let mut i = inst(3);
        assert!(!i.treated_as_faulty());
        i.predicted_fault = Some(PipeStage::Execute);
        assert!(i.treated_as_faulty());
        i.predicted_fault = Some(PipeStage::Fetch);
        assert!(!i.treated_as_faulty(), "front-end faults are not VTE's job");
    }
}
