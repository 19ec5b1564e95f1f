//! Load/store queue with store-to-load forwarding.
//!
//! The memory stage's CAM search over the store queue is the structure the
//! paper identifies as the other timing-error hotspot besides wakeup/select
//! (§3.3.4: "when the CAM search results in several tag matches, we observe
//! additional delay in this stage"). Searches are counted for the energy
//! model, and the number of address matches in a search is reported so the
//! caller can model match-dependent delay.
//!
//! Ordering model: loads may issue past older stores with unresolved
//! addresses (no memory-dependence predictor and no ordering violations are
//! modelled — the trace carries exact addresses, so a forwarding match
//! against a *resolved* older store is always correct; this optimistic
//! disambiguation is a documented substitution).

use std::collections::VecDeque;

/// One store-queue entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct StoreEntry {
    seq: u64,
    /// 8-byte-aligned effective address.
    addr: u64,
    /// Cycle the address becomes resolved (AGEN completion).
    resolved_at: u64,
}

/// Result of a load's store-queue search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SearchResult {
    /// Whether an older resolved store matched (forwarding hit).
    pub forwarded: bool,
    /// Number of CAM address matches observed (≥ 1 when `forwarded`).
    pub matches: u32,
}

/// The load/store queue.
#[derive(Debug, Clone)]
pub struct Lsq {
    stores: VecDeque<StoreEntry>,
    /// Combined occupancy (loads tracked only as a count; loads leave at
    /// completion, stores at retire).
    loads_in_flight: usize,
    capacity: usize,
    /// Total CAM searches performed (energy accounting).
    pub searches: u64,
}

impl Lsq {
    /// Creates an LSQ with `capacity` combined entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "LSQ capacity must be positive");
        Lsq {
            stores: VecDeque::new(),
            loads_in_flight: 0,
            capacity,
            searches: 0,
        }
    }

    /// Free entries remaining.
    pub fn free(&self) -> usize {
        self.capacity - self.stores.len() - self.loads_in_flight
    }

    /// Allocates a load entry at dispatch. Returns `false` if full.
    pub fn alloc_load(&mut self) -> bool {
        if self.free() == 0 {
            return false;
        }
        self.loads_in_flight += 1;
        true
    }

    /// Allocates a store entry at dispatch. Returns `false` if full.
    pub fn alloc_store(&mut self, seq: u64) -> bool {
        if self.free() == 0 {
            return false;
        }
        self.stores.push_back(StoreEntry {
            seq,
            addr: u64::MAX,
            resolved_at: u64::MAX,
        });
        true
    }

    /// Records a store's effective address once AGEN completes.
    pub fn resolve_store(&mut self, seq: u64, addr: u64, cycle: u64) {
        if let Some(e) = self.stores.iter_mut().find(|e| e.seq == seq) {
            e.addr = addr & !7;
            e.resolved_at = cycle;
        }
    }

    /// CAM-searches the store queue on behalf of a load (`seq`, `addr`)
    /// executing at `cycle`. Only *older*, *resolved* stores participate.
    pub fn search_for_load(&mut self, seq: u64, addr: u64, cycle: u64) -> SearchResult {
        self.searches += 1;
        let addr = addr & !7;
        let mut matches = 0u32;
        for e in &self.stores {
            if e.seq < seq && e.resolved_at <= cycle && e.addr == addr {
                matches += 1;
            }
        }
        SearchResult {
            forwarded: matches > 0,
            matches,
        }
    }

    /// Releases a completed load.
    ///
    /// # Panics
    ///
    /// Panics if no load is in flight (accounting bug).
    pub fn release_load(&mut self) {
        assert!(self.loads_in_flight > 0, "no load to release");
        self.loads_in_flight -= 1;
    }

    /// Releases a store at retire.
    pub fn retire_store(&mut self, seq: u64) {
        if let Some(pos) = self.stores.iter().position(|e| e.seq == seq) {
            self.stores.remove(pos);
        }
    }

    /// Squashes all entries with `seq > keep_seq` (and in-flight loads are
    /// handled by the caller via [`release_load`](Lsq::release_load)).
    pub fn squash_stores_after(&mut self, keep_seq: u64) {
        self.stores.retain(|e| e.seq <= keep_seq);
    }

    /// Total capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Combined occupancy (loads + stores).
    pub fn occupancy(&self) -> usize {
        self.stores.len() + self.loads_in_flight
    }

    /// Store-queue sequence numbers, oldest first (auditor scan).
    pub fn store_seqs(&self) -> Vec<u64> {
        self.stores.iter().map(|e| e.seq).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forwarding_from_older_resolved_store() {
        let mut lsq = Lsq::new(8);
        assert!(lsq.alloc_store(5));
        lsq.resolve_store(5, 0x1000, 10);
        let r = lsq.search_for_load(7, 0x1000, 12);
        assert!(r.forwarded);
        assert_eq!(r.matches, 1);
        assert_eq!(lsq.searches, 1);
    }

    #[test]
    fn younger_or_unresolved_stores_do_not_forward() {
        let mut lsq = Lsq::new(8);
        lsq.alloc_store(9); // younger than the load below
        lsq.resolve_store(9, 0x2000, 1);
        assert!(!lsq.search_for_load(7, 0x2000, 5).forwarded);
        lsq.alloc_store(3); // older but unresolved
        assert!(!lsq.search_for_load(7, 0x3000, 5).forwarded);
        lsq.resolve_store(3, 0x3000, 6);
        assert!(
            !lsq.search_for_load(7, 0x3000, 5).forwarded,
            "not resolved yet at 5"
        );
        assert!(lsq.search_for_load(7, 0x3000, 6).forwarded);
    }

    #[test]
    fn capacity_accounting() {
        let mut lsq = Lsq::new(3);
        assert!(lsq.alloc_load());
        assert!(lsq.alloc_store(1));
        assert!(lsq.alloc_load());
        assert_eq!(lsq.free(), 0);
        assert!(!lsq.alloc_load());
        assert!(!lsq.alloc_store(2));
        lsq.release_load();
        assert_eq!(lsq.free(), 1);
        lsq.retire_store(1);
        assert_eq!(lsq.free(), 2);
    }

    #[test]
    fn multiple_matches_counted() {
        let mut lsq = Lsq::new(8);
        for seq in [1, 2, 3] {
            lsq.alloc_store(seq);
            lsq.resolve_store(seq, 0x4000, 1);
        }
        let r = lsq.search_for_load(10, 0x4000, 5);
        assert_eq!(r.matches, 3);
    }

    #[test]
    fn squash_drops_young_stores() {
        let mut lsq = Lsq::new(8);
        for seq in [1, 5, 9] {
            lsq.alloc_store(seq);
        }
        lsq.squash_stores_after(5);
        assert_eq!(lsq.store_seqs(), vec![1, 5]);
        lsq.squash_stores_after(0);
        assert_eq!(lsq.occupancy(), 0);
    }

    #[test]
    #[should_panic(expected = "no load to release")]
    fn release_without_alloc_panics() {
        let mut lsq = Lsq::new(2);
        lsq.release_load();
    }
}
