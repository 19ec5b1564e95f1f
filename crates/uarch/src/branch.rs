//! Branch prediction: Alpha-21264-style tournament predictor plus BTB.
//!
//! Three direction components cover the three behaviours synthetic (and
//! real) branches exhibit:
//!
//! * **bimodal** (per-PC 2-bit counters) — tracks bias, immune to history
//!   pollution from data-dependent branches;
//! * **gshare** (global history ⊕ PC) — captures correlation with the path;
//! * **local** (per-branch history → pattern table) — captures each
//!   branch's own repeating pattern (loop trip counts, periodic if-skips)
//!   independent of path noise.
//!
//! A per-PC chooser picks bimodal vs gshare; a second per-PC chooser picks
//! that winner vs the local component.

use tv_workloads::{OpClass, TraceInst};

/// Tournament direction predictor with a branch target buffer.
#[derive(Debug, Clone)]
pub struct BranchPredictor {
    /// Bimodal 2-bit counters, PC-indexed.
    bimodal: Vec<u8>,
    /// Gshare 2-bit counters, (PC ⊕ global history)-indexed.
    gshare: Vec<u8>,
    /// Chooser between bimodal and gshare, PC-indexed (≥2 favours gshare).
    chooser_global: Vec<u8>,
    /// Per-branch local history registers, PC-indexed.
    local_hist: Vec<u32>,
    /// Local pattern table, (local history ⊕ PC hash)-indexed.
    local_pht: Vec<u8>,
    /// Chooser between the global winner and the local component,
    /// PC-indexed (≥2 favours local).
    chooser_local: Vec<u8>,
    /// Global history register.
    history: u64,
    history_bits: u32,
    local_bits: u32,
    /// BTB: (tag, target) per set.
    btb: Vec<Option<(u64, u64)>>,
}

/// A branch prediction: direction and target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BranchPrediction {
    /// Predicted taken?
    pub taken: bool,
    /// Predicted target (None = BTB miss; a predicted-taken branch without
    /// a target behaves as a misprediction).
    pub target: Option<u64>,
}

impl BranchPredictor {
    /// Creates a predictor with `pht_entries` counters per table (power of
    /// two) and a BTB of `btb_entries` (power of two).
    ///
    /// # Panics
    ///
    /// Panics if either size is not a power of two.
    pub fn new(pht_entries: usize, history_bits: u32, btb_entries: usize) -> Self {
        assert!(
            pht_entries.is_power_of_two(),
            "PHT size must be a power of two"
        );
        assert!(
            btb_entries.is_power_of_two(),
            "BTB size must be a power of two"
        );
        BranchPredictor {
            bimodal: vec![2; pht_entries],
            gshare: vec![2; pht_entries],
            chooser_global: vec![1; pht_entries], // weakly favour bimodal
            local_hist: vec![0; pht_entries],
            local_pht: vec![2; pht_entries],
            chooser_local: vec![1; pht_entries], // weakly favour global
            history: 0,
            history_bits,
            local_bits: 14,
            btb: vec![None; btb_entries],
        }
    }

    /// Default geometry: 16 K entries per table, 12 bits of global and
    /// 14 bits of local history, 4 K-entry BTB.
    pub fn default_geometry() -> Self {
        Self::new(16384, 12, 4096)
    }

    fn pc_index(&self, pc: u64) -> usize {
        ((pc >> 2) as usize) & (self.bimodal.len() - 1)
    }

    fn gshare_index(&self, pc: u64) -> usize {
        let h = self.history & ((1 << self.history_bits) - 1);
        (((pc >> 2) ^ h) as usize) & (self.gshare.len() - 1)
    }

    fn local_index(&self, pc: u64) -> usize {
        let h = self.local_hist[self.pc_index(pc)] & ((1 << self.local_bits) - 1);
        ((h as u64 ^ (pc >> 2).wrapping_mul(0x9e37)) as usize) & (self.local_pht.len() - 1)
    }

    fn btb_index(&self, pc: u64) -> usize {
        ((pc >> 2) as usize) & (self.btb.len() - 1)
    }

    fn direction(&self, pc: u64) -> bool {
        let pci = self.pc_index(pc);
        let bi = self.bimodal[pci] >= 2;
        let gs = self.gshare[self.gshare_index(pc)] >= 2;
        let global = if self.chooser_global[pci] >= 2 {
            gs
        } else {
            bi
        };
        let local = self.local_pht[self.local_index(pc)] >= 2;
        if self.chooser_local[pci] >= 2 {
            local
        } else {
            global
        }
    }

    /// Predicts a conditional branch at `pc`.
    pub fn predict_cond(&self, pc: u64) -> BranchPrediction {
        let taken = self.direction(pc);
        let target = self.btb[self.btb_index(pc)].and_then(|(tag, tgt)| (tag == pc).then_some(tgt));
        BranchPrediction { taken, target }
    }

    /// Predicts an unconditional jump at `pc` (direction is always taken;
    /// only the target can miss).
    pub fn predict_jump(&self, pc: u64) -> BranchPrediction {
        let target = self.btb[self.btb_index(pc)].and_then(|(tag, tgt)| (tag == pc).then_some(tgt));
        BranchPrediction {
            taken: true,
            target,
        }
    }

    /// Predicts `inst` if it is a conditional branch or a jump, then
    /// trains with its resolved outcome from the trace. Returns whether
    /// the prediction missed; `None` for any other op, which leaves the
    /// predictor untouched.
    pub(crate) fn resolve(&mut self, inst: &TraceInst) -> Option<bool> {
        let (taken, mispred) = match inst.op {
            OpClass::CondBranch => {
                let taken = inst.taken.expect("branches carry outcomes");
                let pred = self.predict_cond(inst.pc);
                let missed = pred.taken != taken || (taken && pred.target != inst.target);
                (taken, missed)
            }
            OpClass::Jump => (true, self.predict_jump(inst.pc).target != inst.target),
            _ => return None,
        };
        self.update(inst.pc, taken, inst.target);
        Some(mispred)
    }

    /// Trains with the resolved outcome and updates the histories.
    pub fn update(&mut self, pc: u64, taken: bool, target: Option<u64>) {
        let pci = self.pc_index(pc);
        let gsi = self.gshare_index(pc);
        let loi = self.local_index(pc);

        let bi_correct = (self.bimodal[pci] >= 2) == taken;
        let gs_correct = (self.gshare[gsi] >= 2) == taken;
        let global_correct = if self.chooser_global[pci] >= 2 {
            gs_correct
        } else {
            bi_correct
        };
        let lo_correct = (self.local_pht[loi] >= 2) == taken;

        if bi_correct != gs_correct {
            let c = &mut self.chooser_global[pci];
            if gs_correct {
                *c = (*c + 1).min(3);
            } else {
                *c = c.saturating_sub(1);
            }
        }
        if lo_correct != global_correct {
            let c = &mut self.chooser_local[pci];
            if lo_correct {
                *c = (*c + 1).min(3);
            } else {
                *c = c.saturating_sub(1);
            }
        }
        for counter in [
            &mut self.bimodal[pci],
            &mut self.gshare[gsi],
            &mut self.local_pht[loi],
        ] {
            if taken {
                *counter = (*counter + 1).min(3);
            } else {
                *counter = counter.saturating_sub(1);
            }
        }
        self.history = (self.history << 1) | taken as u64;
        self.local_hist[pci] = (self.local_hist[pci] << 1) | taken as u32;
        if taken {
            if let Some(t) = target {
                let bidx = self.btb_index(pc);
                self.btb[bidx] = Some((pc, t));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_biased_branch() {
        let mut bp = BranchPredictor::default_geometry();
        for _ in 0..16 {
            bp.update(0x1000, true, Some(0x2000));
        }
        let p = bp.predict_cond(0x1000);
        assert!(p.taken);
        assert_eq!(p.target, Some(0x2000));
    }

    #[test]
    fn learns_not_taken() {
        let mut bp = BranchPredictor::default_geometry();
        for _ in 0..16 {
            bp.update(0x1004, false, None);
        }
        assert!(!bp.predict_cond(0x1004).taken);
    }

    #[test]
    fn btb_miss_gives_no_target() {
        let bp = BranchPredictor::default_geometry();
        assert_eq!(bp.predict_jump(0x5555_0000).target, None);
    }

    #[test]
    fn learns_periodic_pattern_via_local_history() {
        // A period-7 pattern (6 taken, 1 not-taken — a trip-count-7 loop
        // back-edge) must be learned almost perfectly by the local side,
        // regardless of what the global history contains.
        let mut bp = BranchPredictor::default_geometry();
        let mut correct = 0;
        let total = 2_000;
        for i in 0..total {
            let actual = i % 7 != 6;
            // pollute global history with a pseudo-random other branch
            bp.update(0x9000, (i * 2654435761u64) % 3 == 0, Some(0x9100));
            let p = bp.predict_cond(0x2000);
            if i >= 500 && p.taken == actual {
                correct += 1;
            }
            bp.update(0x2000, actual, Some(0x3000));
        }
        let acc = correct as f64 / (total - 500) as f64;
        assert!(acc > 0.95, "local pattern accuracy {acc}");
    }

    #[test]
    fn learns_alternating_pattern() {
        let mut bp = BranchPredictor::new(4096, 10, 256);
        let mut correct = 0;
        let total = 400;
        for i in 0..total {
            let actual = i % 2 == 0;
            let p = bp.predict_cond(0x2000);
            if i >= 100 && p.taken == actual {
                correct += 1;
            }
            bp.update(0x2000, actual, Some(0x3000));
        }
        assert!(
            correct as f64 / (total - 100) as f64 > 0.9,
            "should learn a period-2 pattern, got {correct}/300"
        );
    }

    #[test]
    fn biased_random_branch_tracks_bias() {
        // A Bernoulli(0.85) branch must be predicted taken (≈85 % correct),
        // not degraded by history pollution.
        let mut bp = BranchPredictor::new(4096, 10, 256);
        let mut x: u64 = 0x12345;
        let mut correct = 0;
        let total = 4000;
        for i in 0..total {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let actual = (x % 100) < 85;
            let p = bp.predict_cond(0x4000);
            if i >= 500 && p.taken == actual {
                correct += 1;
            }
            bp.update(0x4000, actual, Some(0x5000));
        }
        let acc = correct as f64 / (total - 500) as f64;
        assert!(acc > 0.75, "bias-tracking accuracy {acc}");
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_geometry_panics() {
        let _ = BranchPredictor::new(1000, 10, 256);
    }
}
