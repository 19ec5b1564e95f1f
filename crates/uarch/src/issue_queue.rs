//! Issue queue (reservation stations) with a broadcast-driven wakeup index.
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
//! # Wakeup index
//!
//! The software model used to rescan every resident entry's operands each
//! cycle. This version mirrors the hardware CAM instead: every entry is
//! registered under exactly one *blocking tag* — the unready source with
//! the latest effective broadcast time — in a per-tag waiter list, and a
//! min-heap of pending `(effective cycle, tag)` broadcast events drives
//! wakeup. Each cycle only the due broadcasts fire; their waiters are
//! re-evaluated and either join the ready list or re-register under their
//! next blocking tag. The ready list is revalidated every cycle, because
//! a replay may move an already-fired broadcast *later* (readiness within
//! one broadcast epoch is monotone — the `ReadyBitMonotonic` invariant —
//! which is exactly what makes this lazy revalidation sound: a pending
//! broadcast only slips later, never earlier, so re-arming the heap event
//! at the new effective time never misses a wakeup).
//!
//! The pipeline reports every `RenameTable::set_ready_cycle` call through
//! [`IssueQueue::note_broadcast`]; stale heap events (tag re-allocated,
//! broadcast slipped) are dropped or re-armed when popped.
//!
//! [`InFlightInst`]: crate::inflight::InFlightInst

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::inflight::{Slab, SlotId};
use crate::policy::IssueCandidate;
use crate::rename::RenameTable;

/// Where an entry currently sits in the wakeup index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WakeState {
    /// Registered in the waiter list of its current blocking tag.
    Waiting(u16),
    /// On the believed-ready list (revalidated every wakeup pass).
    Ready,
}

/// Per-resident-entry wakeup bookkeeping.
#[derive(Debug, Clone, Copy)]
struct EntryMeta {
    /// Registration generation: index references left behind by entries
    /// that issued, retired or were squashed carry an older value and are
    /// dropped when next encountered.
    gen: u64,
    /// Position in `entries` (O(1) removal).
    pos: usize,
    /// Consumer dispatch cycle (delayed-broadcast semantics, §3.3.1).
    dispatch: u64,
    /// Renamed source tags captured at dispatch.
    srcs: [Option<u16>; 2],
    state: WakeState,
    /// The selection candidate, materialized once at dispatch — every
    /// field (seq, timestamp, fault/criticality bits, op class) is frozen
    /// by then, so the per-cycle candidate walk never touches the slab.
    cand: IssueCandidate,
}

/// A ready-list member: the slot, its registration generation, and the
/// pre-materialized selection candidate.
#[derive(Debug, Clone, Copy)]
struct ReadyEntry {
    slot: SlotId,
    gen: u64,
    cand: IssueCandidate,
}

/// The issue queue: an unordered pool of dispatched, un-issued entries.
#[derive(Debug, Clone)]
pub struct IssueQueue {
    entries: Vec<SlotId>,
    capacity: usize,
    /// Per-slot registration metadata (`None` = not resident).
    meta: Vec<Option<EntryMeta>>,
    /// Per-tag waiter lists: `(slot, gen)` of entries blocked on the tag.
    waiters: Vec<Vec<(SlotId, u64)>>,
    /// Operand-ready entries awaiting select. Maintained eagerly: issue
    /// and squash remove their entry, and the only event that can revoke
    /// readiness — a producer's broadcast slipping later — demotes through
    /// [`note_delay`](IssueQueue::note_delay). The per-cycle candidate
    /// walk therefore copies this list out without consulting the rename
    /// table at all.
    ready: Vec<ReadyEntry>,
    /// Pending tag-broadcast wakeup events `(effective cycle, tag)`.
    broadcasts: BinaryHeap<Reverse<(u64, u16)>>,
    /// CDL §3.5.2 dependent count per tag, each resident entry counted
    /// once even when both sources match.
    dep_count: Vec<u32>,
    gen: u64,
}

impl IssueQueue {
    /// Creates a queue with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "issue queue capacity must be positive");
        IssueQueue {
            entries: Vec::with_capacity(capacity),
            capacity,
            meta: Vec::new(),
            waiters: Vec::new(),
            ready: Vec::with_capacity(capacity),
            broadcasts: BinaryHeap::with_capacity(4 * capacity),
            dep_count: Vec::new(),
            gen: 0,
        }
    }

    /// Free entries remaining.
    pub fn free(&self) -> usize {
        self.capacity - self.entries.len()
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates the resident slots (residence order, not age order).
    pub fn iter(&self) -> impl Iterator<Item = SlotId> + '_ {
        self.entries.iter().copied()
    }

    /// Grows the per-tag tables to cover `tag`.
    fn ensure_tag(&mut self, tag: u16) {
        let need = tag as usize + 1;
        if self.waiters.len() < need {
            let cap = self.capacity;
            self.waiters.resize_with(need, || Vec::with_capacity(cap));
            self.dep_count.resize(need, 0);
        }
    }

    /// Registers `(slot, gen)` as a waiter on `tag`, compacting stale
    /// references out of the list before it would have to grow.
    fn push_waiter(&mut self, tag: u16, slot: SlotId, gen: u64) {
        self.ensure_tag(tag);
        let meta = &self.meta;
        let list = &mut self.waiters[tag as usize];
        if list.len() == list.capacity() {
            list.retain(|&(s, g)| {
                meta.get(s)
                    .and_then(Option::as_ref)
                    .map_or(false, |m| m.gen == g && m.state == WakeState::Waiting(tag))
            });
        }
        list.push((slot, gen));
    }

    /// The source tag with the latest effective broadcast still after
    /// `now`, if any — the entry's wakeup registration.
    fn blocking_tag(
        rename: &RenameTable,
        srcs: &[Option<u16>; 2],
        dispatch: u64,
        now: u64,
    ) -> Option<u16> {
        let mut best: Option<(u64, u16)> = None;
        for &p in srcs.iter().flatten() {
            let eff = rename.effective_ready_cycle(p, dispatch);
            if eff > now && best.map_or(true, |(b, _)| eff > b) {
                best = Some((eff, p));
            }
        }
        best.map(|(_, p)| p)
    }

    /// Inserts a dispatched instruction, classifying it into the wakeup
    /// index against the current rename state. The instruction's
    /// `dispatch_cycle` and `src_phys` must already be set.
    ///
    /// # Panics
    ///
    /// Panics if the queue is full (dispatch must check
    /// [`free`](IssueQueue::free)).
    pub fn push(&mut self, rename: &RenameTable, slab: &Slab, slot: SlotId) {
        assert!(self.entries.len() < self.capacity, "issue queue overflow");
        let inst = slab.get(slot);
        let dispatch = inst.dispatch_cycle;
        let srcs = inst.src_phys;
        self.gen += 1;
        let gen = self.gen;
        if self.meta.len() <= slot {
            self.meta.resize(slot + 1, None);
        }
        for (i, &src) in srcs.iter().enumerate() {
            let Some(p) = src else { continue };
            if p == 0 || (i == 1 && srcs[0] == Some(p)) {
                continue; // r0 never counts; a duplicate operand counts once
            }
            self.ensure_tag(p);
            self.dep_count[p as usize] += 1;
        }
        let cand = Self::candidate(slab, slot);
        let state = match Self::blocking_tag(rename, &srcs, dispatch, dispatch) {
            Some(tag) => {
                self.push_waiter(tag, slot, gen);
                WakeState::Waiting(tag)
            }
            None => {
                self.ready.push(ReadyEntry { slot, gen, cand });
                WakeState::Ready
            }
        };
        let pos = self.entries.len();
        self.entries.push(slot);
        self.meta[slot] = Some(EntryMeta {
            gen,
            pos,
            dispatch,
            srcs,
            state,
            cand,
        });
    }

    /// Records a producer tag broadcast at effective cycle `at` (every
    /// `RenameTable::set_ready_cycle` call must be mirrored here so
    /// waiters are woken).
    ///
    /// Only valid for a *fresh* broadcast — the tag's ready cycle was
    /// `u64::MAX` before the mirrored `set_ready_cycle`, so no resident
    /// entry can already be operand-ready on it. A re-broadcast (replay
    /// slipping a wake later, an instruction re-issuing after recovery)
    /// must go through [`note_delay`](IssueQueue::note_delay) instead,
    /// which also demotes any ready entries the slip invalidated.
    pub fn note_broadcast(&mut self, tag: u16, at: u64) {
        if tag != 0 {
            self.ensure_tag(tag);
            self.broadcasts.push(Reverse((at, tag)));
        }
    }

    /// Records a *re*-broadcast of `tag` at effective cycle `at` and
    /// demotes any ready entries whose operands the slip un-readied.
    ///
    /// The ready list is maintained without per-cycle revalidation on the
    /// strength of a monotonicity argument: once every source's effective
    /// ready cycle is `<= now`, it stays so — `shift_pending_after` only
    /// moves cycles still in the future — *except* when a mirrored
    /// `set_ready_cycle` moves an already-fired broadcast later. This is
    /// that exception's handler; it runs only on replay recoveries, so
    /// the scan over the ready list is off the steady-state path.
    pub fn note_delay(&mut self, rename: &RenameTable, tag: u16, at: u64, now: u64) {
        if tag == 0 {
            return;
        }
        self.ensure_tag(tag);
        self.broadcasts.push(Reverse((at, tag)));
        let mut i = 0;
        while i < self.ready.len() {
            let ReadyEntry { slot, gen, .. } = self.ready[i];
            let m = self.meta[slot].as_ref().expect("ready entries are live");
            debug_assert_eq!(m.gen, gen, "ready entries are current");
            if m.srcs.iter().flatten().all(|&p| p != tag) {
                i += 1;
                continue;
            }
            match Self::blocking_tag(rename, &m.srcs, m.dispatch, now) {
                Some(next) => {
                    self.meta[slot].as_mut().expect("checked").state =
                        WakeState::Waiting(next);
                    self.push_waiter(next, slot, gen);
                    self.ready.swap_remove(i);
                }
                None => i += 1,
            }
        }
    }

    /// Whether `(slot, gen)` still names a live registration in `state`.
    fn is_current(&self, slot: SlotId, gen: u64, state: WakeState) -> bool {
        self.meta
            .get(slot)
            .and_then(Option::as_ref)
            .map_or(false, |m| m.gen == gen && m.state == state)
    }

    /// Wakeup: fires due broadcasts, migrates their waiters, revalidates
    /// the ready list and appends the operand-ready candidates to `out`
    /// (in index order — select policies must order by their own total
    /// key, never by position).
    pub fn collect_candidates(
        &mut self,
        rename: &RenameTable,
        now: u64,
        out: &mut Vec<IssueCandidate>,
    ) {
        // 1. Fire every broadcast event that is due.
        while let Some(&Reverse((t, tag))) = self.broadcasts.peek() {
            if t > now {
                break;
            }
            self.broadcasts.pop();
            let rc = rename.ready_cycle(tag);
            if rc == u64::MAX {
                // Tag re-allocated to a not-yet-issued producer; its own
                // broadcast will arm a fresh event.
                continue;
            }
            // Canonical wakeup time for waiting consumers (all waiters
            // dispatched before `rc`). A replay may have slipped the
            // broadcast later than this event: re-arm, do not fire early.
            let eff = rename.effective_ready_cycle(tag, 0);
            if eff > now {
                self.broadcasts.push(Reverse((eff, tag)));
                continue;
            }
            let mut list = std::mem::take(&mut self.waiters[tag as usize]);
            for &(slot, gen) in &list {
                if !self.is_current(slot, gen, WakeState::Waiting(tag)) {
                    continue; // stale reference
                }
                let m = self.meta[slot].as_ref().expect("checked current");
                let (dispatch, srcs, cand) = (m.dispatch, m.srcs, m.cand);
                match Self::blocking_tag(rename, &srcs, dispatch, now) {
                    Some(next) => {
                        debug_assert_ne!(next, tag, "fired tag cannot still block");
                        self.push_waiter(next, slot, gen);
                        self.meta[slot].as_mut().expect("checked").state =
                            WakeState::Waiting(next);
                    }
                    None => {
                        self.ready.push(ReadyEntry { slot, gen, cand });
                        self.meta[slot].as_mut().expect("checked").state = WakeState::Ready;
                    }
                }
            }
            list.clear();
            // Restore the (empty) list to keep its capacity. Nothing can
            // have re-registered under the fired tag meanwhile.
            debug_assert!(self.waiters[tag as usize].is_empty());
            self.waiters[tag as usize] = list;
        }

        // 2. Emit the ready list. No revalidation: readiness is monotone
        //    under everything except a broadcast slip, and `note_delay`
        //    demoted those entries at the moment the slip happened.
        #[cfg(debug_assertions)]
        for e in &self.ready {
            let m = self.meta[e.slot].as_ref().expect("ready entries are live");
            debug_assert_eq!(m.gen, e.gen);
            debug_assert_eq!(m.state, WakeState::Ready);
            debug_assert_eq!(
                Self::blocking_tag(rename, &m.srcs, m.dispatch, now),
                None,
                "ready entry has an unready operand"
            );
        }
        out.extend(self.ready.iter().map(|e| e.cand));
    }

    /// Reference wakeup: the original full linear scan of every resident
    /// entry's operands. Kept as the behavioural oracle the index is
    /// tested against.
    pub fn candidates_linear(
        &self,
        rename: &RenameTable,
        slab: &Slab,
        now: u64,
        out: &mut Vec<IssueCandidate>,
    ) {
        for &slot in &self.entries {
            let inst = slab.get(slot);
            let ready = inst
                .src_phys
                .iter()
                .flatten()
                .all(|&p| rename.is_ready(p, now, inst.dispatch_cycle));
            if ready {
                out.push(Self::candidate(slab, slot));
            }
        }
    }

    fn candidate(slab: &Slab, slot: SlotId) -> IssueCandidate {
        let inst = slab.get(slot);
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
    /// Waiter-list references are invalidated lazily by generation; the
    /// ready list is kept exact, so a `Ready` entry pays a short scan of
    /// the (select-width-sized) ready list here.
    pub fn remove(&mut self, slot: SlotId) {
        let Some(m) = self.meta.get_mut(slot).and_then(|o| o.take()) else {
            return;
        };
        if m.state == WakeState::Ready {
            let i = self
                .ready
                .iter()
                .position(|e| e.slot == slot)
                .expect("ready entries are live");
            self.ready.swap_remove(i);
        }
        self.entries.swap_remove(m.pos);
        if let Some(&moved) = self.entries.get(m.pos) {
            self.meta[moved].as_mut().expect("resident entry").pos = m.pos;
        }
        for (i, &src) in m.srcs.iter().enumerate() {
            let Some(p) = src else { continue };
            if p == 0 || (i == 1 && m.srcs[0] == Some(p)) {
                continue;
            }
            self.dep_count[p as usize] -= 1;
        }
    }

    /// Retains only entries satisfying `pred` (squash path).
    pub fn retain<F: FnMut(SlotId) -> bool>(&mut self, mut pred: F) {
        let mut i = 0;
        while i < self.entries.len() {
            let slot = self.entries[i];
            if pred(slot) {
                i += 1;
            } else {
                self.remove(slot); // swap_remove: re-examine index i
            }
        }
    }

    /// Criticality Detection Logic: the number of resident entries with a
    /// source operand matching the broadcast `tag` (paper §3.5.2 — the
    /// tag-match count fed to the encoder and compared against CT). Each
    /// dependent instruction counts once, even when both of its sources
    /// read the tag.
    pub fn count_dependents(&self, tag: u16) -> u32 {
        if tag == 0 {
            return 0;
        }
        self.dep_count.get(tag as usize).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inflight::InFlightInst;
    use tv_workloads::{OpClass, TraceInst};

    fn inst(seq: u64, srcs: [Option<u16>; 2]) -> InFlightInst {
        let mut i = InFlightInst::new(TraceInst {
            seq,
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
        i
    }

    /// A rename table where every register is ready at cycle 0.
    fn ready_rename() -> RenameTable {
        RenameTable::new(64)
    }

    #[test]
    fn push_remove_capacity() {
        let rename = ready_rename();
        let mut slab = Slab::new();
        let a = slab.insert(inst(1, [None, None]));
        let b = slab.insert(inst(2, [None, None]));
        let mut iq = IssueQueue::new(2);
        iq.push(&rename, &slab, a);
        iq.push(&rename, &slab, b);
        assert_eq!(iq.free(), 0);
        assert_eq!(iq.len(), 2);
        iq.remove(a);
        assert_eq!(iq.free(), 1);
        assert_eq!(iq.iter().collect::<Vec<_>>(), vec![b]);
        iq.remove(42); // removing an absent slot is a no-op
        assert_eq!(iq.len(), 1);
        assert!(!iq.is_empty());
    }

    #[test]
    #[should_panic(expected = "issue queue overflow")]
    fn overflow_panics() {
        let rename = ready_rename();
        let mut slab = Slab::new();
        let a = slab.insert(inst(1, [None, None]));
        let b = slab.insert(inst(2, [None, None]));
        let mut iq = IssueQueue::new(1);
        iq.push(&rename, &slab, a);
        iq.push(&rename, &slab, b);
    }

    #[test]
    fn cdl_counts_dependent_instructions_once() {
        // Paper §3.5.2: the CDL counts dependent *instructions* in the
        // reservation stations. Entry `b` reads tag 40 through both
        // sources but is still one dependent.
        let rename = ready_rename();
        let mut slab = Slab::new();
        let a = slab.insert(inst(1, [Some(40), None]));
        let b = slab.insert(inst(2, [Some(40), Some(40)]));
        let c = slab.insert(inst(3, [Some(41), None]));
        let mut iq = IssueQueue::new(8);
        iq.push(&rename, &slab, a);
        iq.push(&rename, &slab, b);
        iq.push(&rename, &slab, c);
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
        let mut slab = Slab::new();
        let a = slab.insert(inst(1, [Some(50), None]));
        let b = slab.insert(inst(2, [Some(50), None]));
        let c = slab.insert(inst(3, [Some(50), Some(50)]));
        let mut iq = IssueQueue::new(8);
        iq.push(&rename, &slab, a);
        iq.push(&rename, &slab, b);
        iq.push(&rename, &slab, c);
        assert_eq!(iq.count_dependents(50), 3);
        iq.remove(b); // issued
        assert_eq!(iq.count_dependents(50), 2);
        iq.retain(|s| s == a); // squash everything younger than a
        assert_eq!(iq.count_dependents(50), 1);
    }

    #[test]
    fn retain_squashes() {
        let rename = ready_rename();
        let mut slab = Slab::new();
        let slots: Vec<SlotId> = (1..=4)
            .map(|s| slab.insert(inst(s, [None, None])))
            .collect();
        let mut iq = IssueQueue::new(4);
        for &s in &slots {
            iq.push(&rename, &slab, s);
        }
        let keep = &slots[..2];
        iq.retain(|s| keep.contains(&s));
        assert_eq!(iq.len(), 2);
    }

    #[test]
    fn wakeup_index_wakes_on_broadcast() {
        let mut rename = RenameTable::new(64);
        let mut slab = Slab::new();
        let mut iq = IssueQueue::new(8);
        // Producer for tag 40 not issued yet.
        rename.rename_dst(tv_workloads::ArchReg::new(1)); // phys 32
        let waiting = {
            let mut i = inst(1, [Some(32), None]);
            i.dispatch_cycle = 1;
            slab.insert(i)
        };
        iq.push(&rename, &slab, waiting);
        let mut out = Vec::new();
        iq.collect_candidates(&rename, 2, &mut out);
        assert!(out.is_empty(), "producer has not broadcast");
        // Producer broadcasts at cycle 5.
        rename.set_ready_cycle(32, 5, false);
        iq.note_broadcast(32, 5);
        out.clear();
        iq.collect_candidates(&rename, 4, &mut out);
        assert!(out.is_empty(), "broadcast not yet effective");
        out.clear();
        iq.collect_candidates(&rename, 5, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].slot, waiting);
    }

    #[test]
    fn wakeup_index_rearms_when_broadcast_slips() {
        // A replay moves a pending broadcast later (monotone within the
        // epoch); the stale heap event must re-arm, not fire early.
        let mut rename = RenameTable::new(64);
        let mut slab = Slab::new();
        let mut iq = IssueQueue::new(8);
        rename.rename_dst(tv_workloads::ArchReg::new(1)); // phys 32
        let waiting = {
            let mut i = inst(1, [Some(32), None]);
            i.dispatch_cycle = 1;
            slab.insert(i)
        };
        iq.push(&rename, &slab, waiting);
        rename.set_ready_cycle(32, 4, false);
        iq.note_broadcast(32, 4);
        // Replay: broadcast slips from 4 to 9.
        rename.set_ready_cycle(32, 9, false);
        iq.note_broadcast(32, 9);
        let mut out = Vec::new();
        iq.collect_candidates(&rename, 4, &mut out);
        assert!(out.is_empty(), "slipped broadcast must not wake at 4");
        out.clear();
        iq.collect_candidates(&rename, 9, &mut out);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn ready_list_revalidates_after_regression() {
        // An entry already woken can regress if a replay moves its
        // source later again; the `note_delay` mirror must demote it.
        let mut rename = RenameTable::new(64);
        let mut slab = Slab::new();
        let mut iq = IssueQueue::new(8);
        rename.rename_dst(tv_workloads::ArchReg::new(1)); // phys 32
        rename.set_ready_cycle(32, 2, false);
        // set_ready_cycle calls are always mirrored by note_broadcast.
        iq.note_broadcast(32, 2);
        let consumer = {
            let mut i = inst(1, [Some(32), None]);
            i.dispatch_cycle = 1;
            slab.insert(i)
        };
        iq.push(&rename, &slab, consumer);
        let mut out = Vec::new();
        iq.collect_candidates(&rename, 2, &mut out);
        assert_eq!(out.len(), 1, "woken at the original broadcast");
        // In-situ replay slips the broadcast to 12: a re-broadcast, so it
        // is mirrored by `note_delay` rather than `note_broadcast`.
        rename.set_ready_cycle(32, 12, false);
        iq.note_delay(&rename, 32, 12, 3);
        out.clear();
        iq.collect_candidates(&rename, 3, &mut out);
        assert!(out.is_empty(), "regressed entry must leave the ready list");
        out.clear();
        iq.collect_candidates(&rename, 12, &mut out);
        assert_eq!(out.len(), 1, "re-woken at the slipped broadcast");
    }

    #[test]
    fn delayed_broadcast_wakes_waiters_one_cycle_late() {
        let mut rename = RenameTable::new(64);
        let mut slab = Slab::new();
        let mut iq = IssueQueue::new(8);
        rename.rename_dst(tv_workloads::ArchReg::new(1)); // phys 32
        let early = {
            let mut i = inst(1, [Some(32), None]);
            i.dispatch_cycle = 1; // dispatched before the broadcast: waits
            slab.insert(i)
        };
        iq.push(&rename, &slab, early);
        // Issue-stage-faulty producer: broadcast at 6, held one cycle.
        rename.set_ready_cycle(32, 6, true);
        iq.note_broadcast(32, 7);
        let mut out = Vec::new();
        iq.collect_candidates(&rename, 6, &mut out);
        assert!(out.is_empty(), "waiting consumer pays the held broadcast");
        // A consumer dispatched after the settled broadcast pays nothing.
        let late = {
            let mut i = inst(2, [Some(32), None]);
            i.dispatch_cycle = 7;
            slab.insert(i)
        };
        iq.push(&rename, &slab, late);
        out.clear();
        iq.collect_candidates(&rename, 7, &mut out);
        let slots: Vec<SlotId> = out.iter().map(|c| c.slot).collect();
        assert!(slots.contains(&early) && slots.contains(&late));
    }

    #[test]
    fn index_matches_linear_scan() {
        // Drive pushes and broadcasts, comparing the index against the
        // linear-scan oracle each cycle.
        let mut rename = RenameTable::new(64);
        let mut slab = Slab::new();
        let mut iq = IssueQueue::new(8);
        for r in 1..=4 {
            rename.rename_dst(tv_workloads::ArchReg::new(r)); // phys 31+r
        }
        let slots: Vec<SlotId> = (0..4u16)
            .map(|k| {
                let mut i = inst(u64::from(k) + 1, [Some(32 + k), Some(32 + (k + 1) % 4)]);
                i.dispatch_cycle = 1;
                slab.insert(i)
            })
            .collect();
        for &s in &slots {
            iq.push(&rename, &slab, s);
        }
        for (k, cycle) in [(0u16, 3u64), (1, 5), (2, 5), (3, 8)] {
            rename.set_ready_cycle(32 + k, cycle, false);
            iq.note_broadcast(32 + k, cycle);
        }
        for now in 1..=9 {
            let mut fast = Vec::new();
            let mut slow = Vec::new();
            iq.collect_candidates(&rename, now, &mut fast);
            iq.candidates_linear(&rename, &slab, now, &mut slow);
            fast.sort_by_key(|c| c.slot);
            slow.sort_by_key(|c| c.slot);
            assert_eq!(fast, slow, "cycle {now}");
        }
    }

    #[test]
    fn index_matches_linear_scan_randomized() {
        // Long randomized drive of the full index contract — dispatch,
        // fresh broadcasts (with and without the delayed-broadcast hold),
        // replay slips through `note_delay`, and issue removal — checking
        // the candidate set against the linear-scan oracle every cycle.
        fn next(s: &mut u64) -> u64 {
            // splitmix64: deterministic, no external dependency.
            *s = s.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = *s;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        for trial in 0..24u64 {
            let mut s = 0xdead_beef ^ trial.wrapping_mul(0x1234_5678_9abc_def1);
            let mut rename = RenameTable::new(96);
            let tags: Vec<u16> = (1..=24)
                .map(|r| {
                    rename
                        .rename_dst(tv_workloads::ArchReg::new(r))
                        .expect("free registers available")
                        .new_phys
                })
                .collect();
            let mut slab = Slab::new();
            let mut iq = IssueQueue::new(12);
            let mut seq = 0u64;
            for now in 0..150u64 {
                // Dispatch up to two new consumers of random tags.
                for _ in 0..(next(&mut s) % 3) {
                    if iq.free() == 0 {
                        break;
                    }
                    let pick = |s: &mut u64| {
                        if next(s) % 4 == 0 {
                            None
                        } else {
                            Some(tags[(next(s) as usize) % tags.len()])
                        }
                    };
                    seq += 1;
                    let mut i = inst(seq, [pick(&mut s), pick(&mut s)]);
                    i.dispatch_cycle = now;
                    let slot = slab.insert(i);
                    iq.push(&rename, &slab, slot);
                }
                // Fresh broadcast of a not-yet-issued producer; mirror the
                // pipeline's `set_ready_cycle` + `note_broadcast` pairing.
                if next(&mut s) % 2 == 0 {
                    let t = tags[(next(&mut s) as usize) % tags.len()];
                    if rename.ready_cycle(t) == u64::MAX {
                        let wake = now + 1 + next(&mut s) % 6;
                        let delayed = next(&mut s) % 4 == 0;
                        rename.set_ready_cycle(t, wake, delayed);
                        iq.note_broadcast(t, wake + u64::from(delayed));
                    }
                }
                // Replay slip: an already-broadcast producer re-issues and
                // its wake moves — the `note_delay` path.
                if next(&mut s) % 4 == 0 {
                    let t = tags[(next(&mut s) as usize) % tags.len()];
                    if rename.ready_cycle(t) != u64::MAX {
                        let wake = now + 1 + next(&mut s) % 8;
                        rename.set_ready_cycle(t, wake, false);
                        iq.note_delay(&rename, t, wake, now);
                    }
                }
                let mut fast = Vec::new();
                let mut slow = Vec::new();
                iq.collect_candidates(&rename, now, &mut fast);
                iq.candidates_linear(&rename, &slab, now, &mut slow);
                fast.sort_by_key(|c| c.slot);
                slow.sort_by_key(|c| c.slot);
                assert_eq!(fast, slow, "trial {trial}, cycle {now}");
                // Issue (remove) a random ready candidate.
                if !fast.is_empty() && next(&mut s) % 2 == 0 {
                    let victim = fast[(next(&mut s) as usize) % fast.len()].slot;
                    iq.remove(victim);
                    slab.remove(victim);
                }
            }
        }
    }
}
