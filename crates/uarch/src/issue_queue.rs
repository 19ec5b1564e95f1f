//! Issue queue (reservation stations): a fixed array of entries tracked by
//! bitmasks.
//!
//! Entries carry the paper's VTE additions (§3.2.1): a faulty bit plus a
//! faulty-stage field (the 4-bit error-prediction field) and the CDL
//! criticality bit — all stored in the [`InFlightInst`] the entry points
//! at. The queue also implements the Criticality Detection Logic's
//! tag-match count (§3.5.2): when a producer broadcasts its result tag,
//! the number of waiting entries matching that tag estimates how many
//! dependents the producer gates. Each waiting *instruction* counts once,
//! even when both of its source operands match the broadcast tag.
//!
//! # Wakeup
//!
//! The queue is its `iq_entries` positions, one bit each in the `u64`
//! masks of resident (`occupied`) and operand-ready (`ready`) entries.
//! Every position caches `wake`, the latest
//! [`RenameTable::effective_ready_cycle`] over its sources, so an entry is
//! a candidate at `now` exactly when `wake <= now` — the condition
//! [`IssueQueue::candidates_linear`] checks operand by operand. Like the
//! hardware CAM, which matches a broadcast tag against every entry at once,
//! `readers[tag]` holds the positions with a source that reads `tag`.
//!
//! A source's ready cycle moves in exactly two ways, and the pipeline
//! follows each with a refresh that keeps the cache exact:
//!
//! 1. `RenameTable::set_ready_cycle` (a producer issues, or an in-situ
//!    replay slips its broadcast later):
//!    [`refresh_readers`](IssueQueue::refresh_readers) re-reads the wake
//!    of every reader of the tag, promoting or demoting it.
//! 2. `RenameTable::shift_pending_after` (an EP stall or recovery bubble):
//!    [`refresh_waiting`](IssueQueue::refresh_waiting) re-reads every
//!    waiting entry. Shifting the cached wakes instead would be wrong: a
//!    held broadcast whose ready cycle is the stall cycle itself keeps its
//!    one-cycle-later effective time unshifted.
//!
//! Nothing else moves a resident entry's sources: a register is freed only
//! after all of its readers retired, and the readers of a rolled-back
//! register are squashed with it.
//!
//! Each cycle [`collect_candidates`](IssueQueue::collect_candidates)
//! promotes the waiting entries whose wake is due — scanning them only once
//! `next_wake`, the earliest waiting wake, has come — and hands out the
//! ready entries' candidates in position order.

use tv_workloads::OpClass;

use crate::inflight::{InFlightInst, SlotId, Window};
use crate::policy::IssueCandidate;
use crate::rename::RenameTable;

/// `pos_of` value of a window slot with no resident entry.
const ABSENT: u8 = u8::MAX;

/// One issue-queue position.
#[derive(Debug, Clone, Copy)]
struct Entry {
    /// Renamed sources captured at dispatch; an absent source is phys 0,
    /// which is always ready and never counted.
    srcs: [u16; 2],
    /// Consumer dispatch cycle (delayed-broadcast semantics, §3.3.1).
    dispatch: u64,
    /// The latest effective ready cycle over `srcs`.
    wake: u64,
    /// The selection candidate, materialized once at dispatch — every
    /// field (seq, timestamp, fault/criticality bits, op class) is frozen
    /// by then, so the per-cycle candidate walk never touches the window.
    cand: IssueCandidate,
}

impl Entry {
    const VACANT: Entry = Entry {
        srcs: [0; 2],
        dispatch: 0,
        wake: u64::MAX,
        cand: IssueCandidate {
            slot: 0,
            seq: 0,
            timestamp: 0,
            faulty: false,
            critical: false,
            op: OpClass::IntAlu,
        },
    };

    /// The entry's wake as the rename table has it now.
    fn read_wake(&self, rename: &RenameTable) -> u64 {
        let [a, b] = self.srcs;
        rename
            .effective_ready_cycle(a, self.dispatch)
            .max(rename.effective_ready_cycle(b, self.dispatch))
    }
}

/// The set bits of `mask`, lowest first.
fn positions(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let pos = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            pos
        })
    })
}

/// The issue queue: an unordered pool of dispatched, un-issued entries.
#[derive(Debug, Clone)]
pub struct IssueQueue {
    entries: Vec<Entry>,
    /// Resident positions.
    occupied: u64,
    /// Resident positions promoted as operand-ready (`wake <= now`).
    ready: u64,
    /// Resident entries (a counter: `count_ones` is no single instruction
    /// on the baseline x86-64 target).
    len: usize,
    /// A lower bound on the wake of every waiting entry: before it no
    /// waiting entry can be due, so the promotion scan is skipped.
    next_wake: u64,
    /// Window slot → position (`ABSENT` when not resident).
    pos_of: Vec<u8>,
    /// Per physical register, the positions with a source reading it
    /// (r0 excluded).
    readers: Vec<u64>,
}

impl IssueQueue {
    /// Creates a queue of `entries` positions for instructions from a
    /// window of `window_slots` slots renamed onto `phys_regs` physical
    /// registers. Nothing grows after this.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= entries <= 64` (the masks are `u64`).
    pub fn new(entries: usize, window_slots: usize, phys_regs: usize) -> Self {
        assert!(entries > 0, "issue queue capacity must be positive");
        assert!(entries <= 64, "at most 64 issue-queue entries");
        IssueQueue {
            entries: vec![Entry::VACANT; entries],
            occupied: 0,
            ready: 0,
            len: 0,
            next_wake: u64::MAX,
            pos_of: vec![ABSENT; window_slots],
            readers: vec![0; phys_regs],
        }
    }

    /// Free entries remaining.
    pub fn free(&self) -> usize {
        self.entries.len() - self.len
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates the resident slots (position order, not age order).
    pub fn iter(&self) -> impl Iterator<Item = SlotId> + '_ {
        positions(self.occupied).map(|pos| self.entries[pos].cand.slot)
    }

    /// Inserts a dispatched instruction and reads its wake from the
    /// current rename state. The instruction's `dispatch_cycle` and
    /// `src_phys` must already be set.
    ///
    /// # Panics
    ///
    /// Panics if the queue is full (dispatch must check
    /// [`free`](IssueQueue::free)).
    pub fn push(&mut self, rename: &RenameTable, window: &Window, slot: SlotId) {
        assert!(self.len < self.entries.len(), "issue queue overflow");
        let pos = (!self.occupied).trailing_zeros() as usize;
        let inst = window.get(slot);
        // Filled in place: a whole `Entry` built on the stack and copied in
        // stalls on store forwarding.
        let e = &mut self.entries[pos];
        e.srcs = inst.src_phys.map(|p| p.unwrap_or(0));
        e.dispatch = inst.dispatch_cycle;
        e.cand = Self::candidate(inst, slot);
        e.wake = e.read_wake(rename);
        let (srcs, dispatch) = (e.srcs, e.dispatch);
        let bit = 1 << pos;
        for p in srcs {
            if p != 0 {
                self.readers[p as usize] |= bit;
            }
        }
        self.occupied |= bit;
        self.len += 1;
        self.pos_of[slot] = pos as u8;
        self.settle(pos, dispatch);
    }

    /// Marks `pos` ready if its cached wake has come by `now`, waiting
    /// (and due no earlier than `next_wake`) otherwise. Branch-free, like
    /// the promotion scan.
    fn settle(&mut self, pos: usize, now: u64) {
        let wake = self.entries[pos].wake;
        let due = wake <= now;
        self.ready = self.ready & !(1 << pos) | u64::from(due) << pos;
        self.next_wake = self.next_wake.min(if due { u64::MAX } else { wake });
    }

    /// Re-reads the wake of every entry that reads `tag`. Every
    /// `RenameTable::set_ready_cycle` call — a producer's broadcast, or a
    /// replay slipping it later — must be followed by this one, at the
    /// same cycle `now`.
    pub fn refresh_readers(&mut self, rename: &RenameTable, tag: u16, now: u64) {
        for pos in positions(self.readers[tag as usize]) {
            self.entries[pos].wake = self.entries[pos].read_wake(rename);
            self.settle(pos, now);
        }
    }

    /// Re-reads the wake of every waiting entry. Every
    /// `RenameTable::shift_pending_after` call (a global stall) must be
    /// followed by this one, at the same cycle `now`.
    pub fn refresh_waiting(&mut self, rename: &RenameTable, now: u64) {
        self.next_wake = u64::MAX;
        for pos in positions(self.occupied & !self.ready) {
            self.entries[pos].wake = self.entries[pos].read_wake(rename);
            self.settle(pos, now);
        }
    }

    /// Wakeup: promotes the waiting entries whose wake has come and
    /// appends every operand-ready candidate to `out` (in position order —
    /// select policies must order by their own total key, never by
    /// position).
    pub fn collect_candidates(
        &mut self,
        rename: &RenameTable,
        now: u64,
        out: &mut Vec<IssueCandidate>,
    ) {
        if now >= self.next_wake {
            // Branch-free: whether a waiting entry is due is data the
            // branch predictor cannot learn.
            let mut ready = self.ready;
            let mut next_wake = u64::MAX;
            for pos in positions(self.occupied & !self.ready) {
                let wake = self.entries[pos].wake;
                let due = wake <= now;
                ready |= u64::from(due) << pos;
                next_wake = next_wake.min(if due { u64::MAX } else { wake });
            }
            self.ready = ready;
            self.next_wake = next_wake;
        }
        #[cfg(debug_assertions)]
        for pos in positions(self.occupied) {
            let e = &self.entries[pos];
            assert_eq!(e.wake, e.read_wake(rename), "stale cached wake");
            assert_eq!(self.ready >> pos & 1 == 1, e.wake <= now, "readiness");
        }
        #[cfg(not(debug_assertions))]
        let _ = rename;
        for pos in positions(self.ready) {
            out.push(self.entries[pos].cand);
        }
    }

    /// Reference wakeup: a full linear scan of every resident entry's
    /// operands in the window. Kept as the behavioural oracle the cached
    /// wakes are tested against.
    pub fn candidates_linear(
        &self,
        rename: &RenameTable,
        window: &Window,
        now: u64,
        out: &mut Vec<IssueCandidate>,
    ) {
        for slot in self.iter() {
            let inst = window.get(slot);
            let ready = inst
                .src_phys
                .iter()
                .flatten()
                .all(|&p| rename.is_ready(p, now, inst.dispatch_cycle));
            if ready {
                out.push(Self::candidate(inst, slot));
            }
        }
    }

    fn candidate(inst: &InFlightInst, slot: SlotId) -> IssueCandidate {
        IssueCandidate {
            slot,
            seq: inst.seq(),
            timestamp: inst.timestamp,
            faulty: inst.treated_as_faulty(),
            critical: inst.predicted_critical,
            op: inst.trace.op,
        }
    }

    /// Removes an issued (or squashed) slot; absent slots are a no-op.
    pub fn remove(&mut self, slot: SlotId) {
        let pos = std::mem::replace(&mut self.pos_of[slot], ABSENT);
        if pos == ABSENT {
            return;
        }
        let keep = !(1 << pos);
        self.occupied &= keep;
        self.ready &= keep;
        self.len -= 1;
        for p in self.entries[pos as usize].srcs {
            self.readers[p as usize] &= keep;
        }
    }

    /// Criticality Detection Logic: the number of resident entries with a
    /// source operand matching the broadcast `tag` (paper §3.5.2 — the
    /// tag-match count fed to the encoder and compared against CT). Each
    /// dependent instruction counts once, even when both of its sources
    /// read the tag.
    pub fn count_dependents(&self, tag: u16) -> u32 {
        self.readers[tag as usize].count_ones()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inflight::Queue;
    use tv_workloads::{ArchReg, TraceInst};

    /// Window slots and physical registers of the test queues.
    const SLOTS: usize = 256;
    const PHYS: usize = 96;

    /// An empty window whose first instruction carries seq 1.
    fn window() -> Window {
        Window::new(SLOTS, 1)
    }

    /// A queue of `entries` positions over [`window`] and [`PHYS`]
    /// registers.
    fn queue(entries: usize) -> IssueQueue {
        IssueQueue::new(entries, SLOTS, PHYS)
    }

    /// Dispatches the next instruction into `w`'s ROB, reading `srcs` at
    /// cycle `dispatch`, and returns its slot.
    fn admit(w: &mut Window, srcs: [Option<u16>; 2], dispatch: u64) -> SlotId {
        let mut i = InFlightInst::new(TraceInst {
            seq: w.tail(),
            pc: 0x1000,
            op: OpClass::IntAlu,
            srcs: [None, None],
            dst: None,
            mem_addr: None,
            taken: None,
            target: None,
            operand_values: [0, 0],
        });
        i.src_phys = srcs;
        i.dispatch_cycle = dispatch;
        let slot = w.push_fetched(i);
        for q in [Queue::Fetched, Queue::Decoded, Queue::Renamed] {
            w.advance(q);
        }
        slot
    }

    /// A rename table where every register is ready at cycle 0.
    fn ready_rename() -> RenameTable {
        RenameTable::new(PHYS)
    }

    /// The queue's candidates at `now`, checked against the linear scan
    /// and sorted by slot.
    fn candidates(iq: &mut IssueQueue, rename: &RenameTable, w: &Window, now: u64) -> Vec<SlotId> {
        let mut fast = Vec::new();
        let mut slow = Vec::new();
        iq.collect_candidates(rename, now, &mut fast);
        iq.candidates_linear(rename, w, now, &mut slow);
        fast.sort_by_key(|c| c.slot);
        slow.sort_by_key(|c| c.slot);
        assert_eq!(fast, slow, "cycle {now}");
        fast.iter().map(|c| c.slot).collect()
    }

    #[test]
    fn push_remove_capacity() {
        let rename = ready_rename();
        let mut w = window();
        let a = admit(&mut w, [None, None], 0);
        let b = admit(&mut w, [None, None], 0);
        let mut iq = queue(2);
        iq.push(&rename, &w, a);
        iq.push(&rename, &w, b);
        assert_eq!(iq.free(), 0);
        assert_eq!(iq.len(), 2);
        iq.remove(a);
        assert_eq!(iq.free(), 1);
        assert_eq!(iq.iter().collect::<Vec<_>>(), vec![b]);
        iq.remove(42); // removing an absent slot is a no-op
        iq.remove(a); // and so is removing a slot twice
        assert_eq!(iq.len(), 1);
        assert!(!iq.is_empty());
        // The freed position is reused.
        let c = admit(&mut w, [None, None], 0);
        iq.push(&rename, &w, c);
        assert_eq!(iq.iter().collect::<Vec<_>>(), vec![c, b]);
    }

    #[test]
    #[should_panic(expected = "issue queue overflow")]
    fn overflow_panics() {
        let rename = ready_rename();
        let mut w = window();
        let a = admit(&mut w, [None, None], 0);
        let b = admit(&mut w, [None, None], 0);
        let mut iq = queue(1);
        iq.push(&rename, &w, a);
        iq.push(&rename, &w, b);
    }

    #[test]
    #[should_panic(expected = "at most 64 issue-queue entries")]
    fn more_entries_than_mask_bits_panics() {
        queue(65);
    }

    #[test]
    fn cdl_counts_dependent_instructions_once() {
        // Paper §3.5.2: the CDL counts dependent *instructions* in the
        // reservation stations. Entry `b` reads tag 40 through both
        // sources but is still one dependent.
        let rename = ready_rename();
        let mut w = window();
        let a = admit(&mut w, [Some(40), None], 0);
        let b = admit(&mut w, [Some(40), Some(40)], 0);
        let c = admit(&mut w, [Some(41), None], 0);
        let zero = admit(&mut w, [Some(0), Some(0)], 0);
        let mut iq = queue(8);
        for slot in [a, b, c, zero] {
            iq.push(&rename, &w, slot);
        }
        assert_eq!(iq.count_dependents(40), 2, "duplicate operand counts once");
        assert_eq!(iq.count_dependents(41), 1);
        assert_eq!(iq.count_dependents(42), 0);
        assert_eq!(iq.count_dependents(0), 0, "r0 never counts");
    }

    #[test]
    fn cdl_count_drops_entries_that_leave_the_queue() {
        // The CDL tag-match count (§3.5.2) is computed over *resident*
        // entries only: dependents that issue or are squashed must fall
        // out of the count immediately.
        let rename = ready_rename();
        let mut w = window();
        let a = admit(&mut w, [Some(50), None], 0);
        let b = admit(&mut w, [Some(50), None], 0);
        let c = admit(&mut w, [Some(50), Some(50)], 0);
        let mut iq = queue(8);
        iq.push(&rename, &w, a);
        iq.push(&rename, &w, b);
        iq.push(&rename, &w, c);
        assert_eq!(iq.count_dependents(50), 3);
        iq.remove(b); // issued
        assert_eq!(iq.count_dependents(50), 2);
        iq.remove(c); // squashed
        assert_eq!(iq.count_dependents(50), 1);
        assert_eq!(iq.iter().collect::<Vec<_>>(), vec![a]);
    }

    #[test]
    fn wakes_on_broadcast() {
        let mut rename = ready_rename();
        let mut w = window();
        let mut iq = queue(8);
        // The producer of phys 32 has not issued yet.
        rename.rename_dst(ArchReg::new(1));
        let waiting = admit(&mut w, [Some(32), None], 1);
        iq.push(&rename, &w, waiting);
        assert!(
            candidates(&mut iq, &rename, &w, 2).is_empty(),
            "producer has not broadcast"
        );
        // The producer issues at cycle 2 and broadcasts at cycle 5.
        rename.set_ready_cycle(32, 5, false);
        iq.refresh_readers(&rename, 32, 2);
        assert!(
            candidates(&mut iq, &rename, &w, 4).is_empty(),
            "broadcast not yet effective"
        );
        assert_eq!(candidates(&mut iq, &rename, &w, 5), vec![waiting]);
    }

    #[test]
    fn slipped_broadcast_does_not_wake_early() {
        // A replay moves a pending broadcast later (monotone within the
        // epoch); the waiting consumer must wake at the new cycle, not
        // the old one.
        let mut rename = ready_rename();
        let mut w = window();
        let mut iq = queue(8);
        rename.rename_dst(ArchReg::new(1)); // phys 32
        let waiting = admit(&mut w, [Some(32), None], 1);
        iq.push(&rename, &w, waiting);
        rename.set_ready_cycle(32, 4, false);
        iq.refresh_readers(&rename, 32, 1);
        // Replay: the broadcast slips from 4 to 9.
        rename.set_ready_cycle(32, 9, false);
        iq.refresh_readers(&rename, 32, 2);
        assert!(
            candidates(&mut iq, &rename, &w, 4).is_empty(),
            "slipped broadcast must not wake at 4"
        );
        assert_eq!(candidates(&mut iq, &rename, &w, 9), vec![waiting]);
    }

    #[test]
    fn ready_entry_demotes_after_regression() {
        // An entry already woken can regress if a replay moves its source
        // later again; the refresh that follows the replay must demote it.
        let mut rename = ready_rename();
        let mut w = window();
        let mut iq = queue(8);
        rename.rename_dst(ArchReg::new(1)); // phys 32
        rename.set_ready_cycle(32, 2, false);
        iq.refresh_readers(&rename, 32, 1); // no readers yet
        let consumer = admit(&mut w, [Some(32), None], 1);
        iq.push(&rename, &w, consumer);
        assert_eq!(
            candidates(&mut iq, &rename, &w, 2),
            vec![consumer],
            "woken at the original broadcast"
        );
        // An in-situ replay at cycle 3 slips the broadcast to 12.
        rename.set_ready_cycle(32, 12, false);
        iq.refresh_readers(&rename, 32, 3);
        assert!(
            candidates(&mut iq, &rename, &w, 3).is_empty(),
            "regressed entry must stop being a candidate"
        );
        assert_eq!(
            candidates(&mut iq, &rename, &w, 12),
            vec![consumer],
            "re-woken at the slipped broadcast"
        );
    }

    #[test]
    fn delayed_broadcast_wakes_waiters_one_cycle_late() {
        let mut rename = ready_rename();
        let mut w = window();
        let mut iq = queue(8);
        rename.rename_dst(ArchReg::new(1)); // phys 32
        let early = admit(&mut w, [Some(32), None], 1);
        iq.push(&rename, &w, early);
        // Issue-stage-faulty producer: broadcast at 6, held one cycle.
        rename.set_ready_cycle(32, 6, true);
        iq.refresh_readers(&rename, 32, 5);
        assert!(
            candidates(&mut iq, &rename, &w, 6).is_empty(),
            "waiting consumer pays the held broadcast"
        );
        // A consumer dispatched after the settled broadcast pays nothing.
        let late = admit(&mut w, [Some(32), None], 7);
        iq.push(&rename, &w, late);
        assert_eq!(candidates(&mut iq, &rename, &w, 7), vec![early, late]);
    }

    #[test]
    fn held_broadcast_at_the_stall_cycle_is_not_shifted() {
        // A held broadcast whose ready cycle is the stall cycle itself:
        // `shift_pending_after` leaves it (it is not after `now`), so the
        // waiting consumer still wakes at `now + 1`, while a pending
        // broadcast slips with the machine.
        let mut rename = ready_rename();
        let mut w = window();
        let mut iq = queue(8);
        rename.rename_dst(ArchReg::new(1)); // phys 32
        rename.rename_dst(ArchReg::new(2)); // phys 33
        let held = admit(&mut w, [Some(32), None], 1);
        let pending = admit(&mut w, [Some(33), None], 1);
        iq.push(&rename, &w, held);
        iq.push(&rename, &w, pending);
        rename.set_ready_cycle(32, 10, true);
        iq.refresh_readers(&rename, 32, 8);
        rename.set_ready_cycle(33, 12, false);
        iq.refresh_readers(&rename, 33, 8);
        // Three stall cycles starting at cycle 10.
        rename.shift_pending_after(10, 3);
        iq.refresh_waiting(&rename, 10);
        assert!(candidates(&mut iq, &rename, &w, 10).is_empty());
        assert_eq!(candidates(&mut iq, &rename, &w, 11), vec![held]);
        assert_eq!(candidates(&mut iq, &rename, &w, 14), vec![held]);
        assert_eq!(candidates(&mut iq, &rename, &w, 15), vec![held, pending]);
    }

    #[test]
    fn index_matches_linear_scan() {
        // Drive pushes and broadcasts, comparing the queue against the
        // linear-scan oracle each cycle.
        let mut rename = ready_rename();
        let mut w = window();
        let mut iq = queue(8);
        for r in 1..=4 {
            rename.rename_dst(ArchReg::new(r)); // phys 31+r
        }
        let slots: Vec<SlotId> = (0..4u16)
            .map(|k| admit(&mut w, [Some(32 + k), Some(32 + (k + 1) % 4)], 1))
            .collect();
        for &s in &slots {
            iq.push(&rename, &w, s);
        }
        for (k, cycle) in [(0u16, 3u64), (1, 5), (2, 5), (3, 8)] {
            rename.set_ready_cycle(32 + k, cycle, false);
            iq.refresh_readers(&rename, 32 + k, 1);
        }
        for now in 1..=9 {
            candidates(&mut iq, &rename, &w, now);
        }
    }

    #[test]
    fn index_matches_linear_scan_randomized() {
        // Long randomized drive of the full queue contract — dispatch,
        // fresh broadcasts (with and without the delayed-broadcast hold),
        // replay slips, global stalls (a held broadcast at the stall cycle
        // among them), issue removal and squashes of the youngest
        // entries — checking the candidate set against the linear-scan
        // oracle every cycle.
        fn next(s: &mut u64) -> u64 {
            // splitmix64: deterministic, no external dependency.
            *s = s.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = *s;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        const SLOTS: usize = 32;
        for trial in 0..24u64 {
            let mut s = 0xdead_beef ^ trial.wrapping_mul(0x1234_5678_9abc_def1);
            let mut rename = ready_rename();
            let tags: Vec<u16> = (1..=24)
                .map(|r| {
                    rename
                        .rename_dst(ArchReg::new(r))
                        .expect("free registers available")
                        .new_phys
                })
                .collect();
            // A 32-slot window laps several times in 200 cycles, so slots
            // and positions are reused.
            let mut w = Window::new(SLOTS, 1);
            let mut iq = IssueQueue::new(12, SLOTS, PHYS);
            // Cycles left in the current global stall.
            let mut stalled = 0;
            for now in 0..200u64 {
                // Replay slip: an already-broadcast producer re-executes
                // and its wake moves later (events fire even in a stall).
                if next(&mut s).is_multiple_of(4) {
                    let t = tags[(next(&mut s) as usize) % tags.len()];
                    if rename.ready_cycle(t) != u64::MAX {
                        let wake = now + next(&mut s) % 8;
                        rename.set_ready_cycle(t, wake, false);
                        iq.refresh_readers(&rename, t, now);
                    }
                }
                if stalled > 0 {
                    stalled -= 1;
                    candidates(&mut iq, &rename, &w, now);
                    continue;
                }
                // Global stall: every pending ready cycle slips with the
                // machine, sometimes right after a held broadcast whose
                // ready cycle is this very cycle.
                if next(&mut s).is_multiple_of(8) {
                    if next(&mut s).is_multiple_of(2) {
                        let t = tags[(next(&mut s) as usize) % tags.len()];
                        if rename.ready_cycle(t) == u64::MAX {
                            rename.set_ready_cycle(t, now, true);
                            iq.refresh_readers(&rename, t, now);
                        }
                    }
                    let delta = 1 + next(&mut s) % 3;
                    rename.shift_pending_after(now, delta);
                    iq.refresh_waiting(&rename, now);
                    stalled = delta - 1;
                    candidates(&mut iq, &rename, &w, now);
                    continue;
                }
                // Dispatch up to two new consumers of random tags.
                for _ in 0..(next(&mut s) % 3) {
                    if iq.free() == 0 || w.len() == SLOTS {
                        break;
                    }
                    let pick = |s: &mut u64| {
                        if next(s).is_multiple_of(4) {
                            None
                        } else {
                            Some(tags[(next(s) as usize) % tags.len()])
                        }
                    };
                    let srcs = [pick(&mut s), pick(&mut s)];
                    let slot = admit(&mut w, srcs, now);
                    iq.push(&rename, &w, slot);
                }
                // Fresh broadcast of a not-yet-issued producer, mirroring
                // the pipeline's `set_ready_cycle` + `refresh_readers`.
                if next(&mut s).is_multiple_of(2) {
                    let t = tags[(next(&mut s) as usize) % tags.len()];
                    if rename.ready_cycle(t) == u64::MAX {
                        let wake = now + 1 + next(&mut s) % 6;
                        let delayed = next(&mut s).is_multiple_of(4);
                        rename.set_ready_cycle(t, wake, delayed);
                        iq.refresh_readers(&rename, t, now);
                    }
                }
                let ready = candidates(&mut iq, &rename, &w, now);
                // Issue (remove) a random ready candidate.
                if !ready.is_empty() && next(&mut s).is_multiple_of(2) {
                    iq.remove(ready[(next(&mut s) as usize) % ready.len()]);
                }
                // Squash the youngest few instructions, waiting, ready or
                // already issued, as a flush recovery does.
                if next(&mut s).is_multiple_of(16) {
                    let rob = w.range(Queue::Rob);
                    let seq_min = rob.end - (next(&mut s) % 4).min(rob.end - rob.start);
                    for seq in (seq_min..rob.end).rev() {
                        iq.remove(w.slot(seq));
                    }
                    w.truncate(seq_min);
                }
                // Retire issued instructions from the head, in order.
                while let Some(head) = w.front(Queue::Rob) {
                    if iq.iter().any(|slot| slot == head) {
                        break;
                    }
                    w.advance(Queue::Rob);
                }
            }
        }
    }
}
