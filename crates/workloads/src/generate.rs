//! Dynamic trace generation: walking the static program.
//!
//! [`TraceGenerator`] walks the Markov control-flow graph of a
//! [`StaticProgram`], resolving branch outcomes and memory addresses, and
//! emits an endless stream of [`TraceInst`]s. The walk is deterministic for
//! a given `(profile, seed)` pair, so every scheme in an experiment sees the
//! *identical* dynamic instruction stream — a prerequisite for the paper's
//! overhead comparisons.

use tv_prng::{ChaCha12Rng, FastHashMap, Rng, SeedableRng};

use crate::inst::{OpClass, TraceInst};
use crate::profile::{Benchmark, MemoryShape, Profile};
use crate::program::{MemPattern, StaticProgram, Terminator, COLD_BASE, HOT_BASE};

/// Per-static-memory-instruction address state.
#[derive(Debug, Clone, Copy)]
struct MemCursor {
    offset: u64,
}

/// Walks a static program and emits a resolved dynamic instruction stream.
///
/// # Example
///
/// ```
/// use tv_workloads::{Benchmark, TraceGenerator};
///
/// let mut gen = TraceGenerator::for_benchmark(Benchmark::Sjeng, 1);
/// let first = gen.next_inst();
/// let mut again = TraceGenerator::for_benchmark(Benchmark::Sjeng, 1);
/// assert_eq!(first, again.next_inst()); // deterministic
/// ```
#[derive(Debug, Clone)]
pub struct TraceGenerator {
    program: StaticProgram,
    profile: Profile,
    rng: ChaCha12Rng,
    /// Current block index.
    block: usize,
    /// Next instruction index within the current block.
    slot: usize,
    /// Global dynamic sequence counter.
    seq: u64,
    /// Per-conditional-branch position within its repeating pattern,
    /// indexed by block id (0 for never-visited branches — the same
    /// starting position the old lazy map handed out).
    pattern_pos: Vec<u32>,
    /// Per-static-instruction memory cursors, keyed by PC (bit 63 tags
    /// the cold-region cursor).
    cursors: FastHashMap<u64, MemCursor>,
    /// Architectural register values (for operand-value streams).
    reg_values: [u64; 32],
    /// Dynamic basic-block execution counts since the last drain (SimPoint).
    block_counts: Vec<u64>,
}

impl TraceGenerator {
    /// Creates a generator for an explicit profile and seed.
    pub fn new(profile: Profile, seed: u64) -> Self {
        let program = StaticProgram::generate(&profile, seed);
        let num_blocks = program.blocks().len();
        TraceGenerator {
            program,
            profile,
            rng: ChaCha12Rng::seed_from_u64(seed ^ 0x7452_4143_4547_454e),
            block: 0,
            slot: 0,
            seq: 0,
            pattern_pos: vec![0; num_blocks],
            cursors: FastHashMap::default(),
            reg_values: [0; 32],
            block_counts: vec![0; num_blocks],
        }
    }

    /// Creates a generator for one of the paper's SPEC CPU2006 benchmarks.
    pub fn for_benchmark(bench: Benchmark, seed: u64) -> Self {
        Self::new(bench.profile(), seed)
    }

    /// The underlying static program.
    pub fn program(&self) -> &StaticProgram {
        &self.program
    }

    /// The benchmark profile driving this generator.
    pub fn profile(&self) -> &Profile {
        &self.profile
    }

    /// Number of instructions emitted so far.
    pub fn emitted(&self) -> u64 {
        self.seq
    }

    /// Produces the next dynamic instruction.
    pub fn next_inst(&mut self) -> TraceInst {
        let (block_id, slot) = (self.block, self.slot);
        if slot == 0 {
            self.block_counts[block_id] += 1;
        }
        let sinst = self.program.blocks()[block_id].insts[slot].clone();
        let taken = self.step();
        // A taken transfer lands on the block `step` moved to.
        let target = (taken == Some(true)).then(|| self.program.blocks()[self.block].start_pc());

        let mem_addr = sinst.mem.map(|m| self.next_address(sinst.pc, m));
        let operand_values = [
            sinst.srcs[0].map_or(0, |r| self.reg_values[r.index() as usize]),
            sinst.srcs[1].map_or(0, |r| self.reg_values[r.index() as usize]),
        ];
        self.update_reg_value(&sinst, operand_values, mem_addr);

        let inst = TraceInst {
            seq: self.seq,
            pc: sinst.pc,
            op: sinst.op,
            srcs: sinst.srcs,
            dst: sinst.dst,
            mem_addr,
            taken,
            target,
            operand_values,
        };
        self.seq += 1;
        inst
    }

    /// Moves the block and slot positions past the current instruction.
    /// When it ends its block, the terminator picks the next block — a
    /// patterned branch advances its pattern position, an unpatterned one
    /// makes one Bernoulli draw — and the returned direction is that of
    /// the branch or jump (`None` for any other instruction).
    ///
    /// With [`draw_access`](Self::draw_access) this is every ChaCha12 draw
    /// of the walk, so [`next_inst`](Self::next_inst) and
    /// [`walk_pc_counts`](Self::walk_pc_counts) calling both in the same
    /// order consume the stream draw for draw.
    ///
    /// Forced inline, like `draw_access`: `next_inst` runs once per
    /// simulated instruction, and with the calls left to the compiler it
    /// ran ~18% slower (paired release runs of `gen_speed`).
    #[inline(always)]
    fn step(&mut self) -> Option<bool> {
        let block = &self.program.blocks()[self.block];
        if self.slot + 1 < block.insts.len() {
            self.slot += 1;
            return None;
        }
        // Match the terminator by reference: `Cond::pattern` owns a Vec,
        // so cloning it here would put an allocation on the
        // per-instruction hot path.
        let (next, taken) = match block.terminator {
            Terminator::Fall { next } => (next, None),
            Terminator::Jump { target } => (target, Some(true)),
            Terminator::Cond {
                taken,
                fall,
                bias,
                ref pattern,
            } => {
                let is_taken = match pattern {
                    Some(pat) => {
                        let pos = &mut self.pattern_pos[self.block];
                        let dir = pat[*pos as usize % pat.len()];
                        *pos = (*pos + 1) % pat.len() as u32;
                        dir
                    }
                    None => self.rng.gen_bool(bias),
                };
                (if is_taken { taken } else { fall }, Some(is_taken))
            }
        };
        self.block = next;
        self.slot = 0;
        taken
    }

    /// The ChaCha12 draws of one dynamic memory access, in stream order:
    /// its region (`true` = cold) and, for an access with neither a
    /// stride nor a pointer chase, its offset within that region.
    ///
    /// Region choice is per dynamic access so the cold share tracks the
    /// profile exactly, independent of which static instructions happen
    /// to sit in hot loops. Pointer chases use their own miss fraction
    /// (most hops of a pointer walk hit the cached part of the structure;
    /// a `chase_miss_frac` share wanders cold).
    #[inline(always)]
    fn draw_access(&mut self, m: MemPattern) -> (bool, Option<u64>) {
        let mem = self.profile.memory;
        let cold = if m.pointer_chase {
            self.rng.gen_bool(mem.chase_miss_frac.clamp(0.0, 1.0))
        } else {
            self.rng.gen_bool(mem.cold_frac.clamp(0.0, 1.0))
        };
        let random = !m.pointer_chase && !m.strided;
        let offset = random.then(|| self.rng.gen_range(0..region(&mem, cold).1));
        (cold, offset)
    }

    /// Per-PC execution counts of the next `n` instructions, sorted by PC
    /// — the counts [`next_inst`](Self::next_inst) would produce, without
    /// building a single instruction.
    ///
    /// The walk moves only the block, slot and pattern positions and the
    /// ChaCha12 stream, through the same [`step`](Self::step) and
    /// [`draw_access`](Self::draw_access) calls in the same order as
    /// `next_inst`. Memory cursors, register values, the sequence number
    /// and the SimPoint block counts draw nothing and decide no control
    /// flow, so it leaves them behind; it takes the generator by value so
    /// nothing can use those stale fields afterwards.
    pub(crate) fn walk_pc_counts(mut self, n: u64) -> Vec<(u64, u64)> {
        // Static instructions are numbered in program order, which is PC
        // order; `starts[b]` is block `b`'s first number.
        let starts: Vec<usize> = self
            .program
            .blocks()
            .iter()
            .scan(0, |next, b| {
                let start = *next;
                *next += b.insts.len();
                Some(start)
            })
            .collect();
        let mut counts = vec![0u64; self.program.num_insts()];
        for _ in 0..n {
            let (block, slot) = (self.block, self.slot);
            let mem = self.program.blocks()[block].insts[slot].mem;
            self.step();
            counts[starts[block] + slot] += 1;
            if let Some(m) = mem {
                self.draw_access(m);
            }
        }
        self.program
            .blocks()
            .iter()
            .flat_map(|b| &b.insts)
            .zip(counts)
            .filter(|&(_, count)| count > 0)
            .map(|(inst, count)| (inst.pc, count))
            .collect()
    }

    /// Drains and resets the dynamic basic-block execution counts gathered
    /// since the previous call (used by the SimPoint analysis).
    pub fn take_block_counts(&mut self) -> Vec<u64> {
        let counts = self.block_counts.clone();
        for c in &mut self.block_counts {
            *c = 0;
        }
        counts
    }

    /// Advances past `n` instructions (fast-forward to a SimPoint phase start).
    pub fn fast_forward(&mut self, n: u64) {
        for _ in 0..n {
            let _ = self.next_inst();
        }
    }

    fn next_address(&mut self, pc: u64, m: MemPattern) -> u64 {
        let (cold, random) = self.draw_access(m);
        let (base, size) = region(&self.profile.memory, cold);
        let offset = match random {
            Some(offset) => offset,
            None => {
                // Separate cursors per region keep strides/walks coherent.
                let key = pc | ((cold as u64) << 63);
                let cursor = self
                    .cursors
                    .entry(key)
                    .or_insert(MemCursor { offset: pc % size });
                cursor.offset = if m.pointer_chase {
                    // Hash walk: the next node lives at a pseudo-random
                    // offset derived from the current one.
                    splitmix(cursor.offset ^ pc) % size
                } else {
                    // Cold streams stride at least a cache line (they
                    // really miss); hot strides reuse lines.
                    let stride = if cold { m.stride * 8 } else { m.stride };
                    (cursor.offset + stride) % size
                };
                cursor.offset
            }
        };
        base + (offset & !7) // 8-byte aligned
    }

    fn update_reg_value(&mut self, sinst: &crate::program::StaticInst, vals: [u64; 2], addr: Option<u64>) {
        let Some(dst) = sinst.dst else { return };
        if dst.is_zero() {
            return;
        }
        let v = match sinst.op {
            OpClass::IntAlu => vals[0].wrapping_add(vals[1]).rotate_left(1),
            OpClass::IntMul | OpClass::FpMul => vals[0].wrapping_mul(vals[1] | 1),
            OpClass::IntDiv => vals[0] / (vals[1] | 1),
            OpClass::FpAlu => vals[0] ^ vals[1].rotate_left(17),
            OpClass::Load => splitmix(addr.unwrap_or(0)),
            _ => return,
        };
        self.reg_values[dst.index() as usize] = v;
    }
}

/// The `(base, size)` of the cold or the hot data region.
fn region(mem: &MemoryShape, cold: bool) -> (u64, u64) {
    if cold {
        (COLD_BASE, mem.cold_bytes.max(64))
    } else {
        (HOT_BASE, mem.hot_bytes.max(64))
    }
}

/// SplitMix64 finalizer: a cheap, well-distributed hash for address chains.
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl Iterator for TraceGenerator {
    type Item = TraceInst;

    fn next(&mut self) -> Option<TraceInst> {
        Some(self.next_inst())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{COLD_BASE, HOT_BASE};
    use std::collections::HashSet;

    #[test]
    fn determinism_across_instances() {
        let mut a = TraceGenerator::for_benchmark(Benchmark::Gcc, 9);
        let mut b = TraceGenerator::for_benchmark(Benchmark::Gcc, 9);
        for _ in 0..5_000 {
            assert_eq!(a.next_inst(), b.next_inst());
        }
    }

    #[test]
    fn seq_is_monotone() {
        let mut g = TraceGenerator::for_benchmark(Benchmark::Astar, 3);
        for i in 0..1_000 {
            assert_eq!(g.next_inst().seq, i);
        }
        assert_eq!(g.emitted(), 1_000);
    }

    #[test]
    fn static_pcs_recur() {
        // The property TEP depends on: a bounded static footprint revisited
        // many times.
        let mut g = TraceGenerator::for_benchmark(Benchmark::Sjeng, 5);
        let mut pcs = HashSet::new();
        for _ in 0..50_000 {
            pcs.insert(g.next_inst().pc);
        }
        let static_total = g.program().num_insts();
        assert!(pcs.len() <= static_total);
        // Reuse factor must be substantial.
        assert!(50_000 / pcs.len() > 10, "PCs do not recur enough");
    }

    #[test]
    fn branch_outcomes_match_targets() {
        let mut g = TraceGenerator::for_benchmark(Benchmark::Gobmk, 11);
        let mut prev: Option<TraceInst> = None;
        for _ in 0..20_000 {
            let inst = g.next_inst();
            if let Some(p) = prev {
                let expect = match p.taken {
                    Some(true) => p.target.expect("taken branch must carry a target"),
                    _ => p.next_pc(),
                };
                assert_eq!(inst.pc, expect, "control flow is inconsistent");
            }
            prev = Some(inst);
        }
    }

    #[test]
    fn memory_addresses_land_in_regions() {
        let mut g = TraceGenerator::for_benchmark(Benchmark::Mcf, 2);
        let mem = g.profile().memory;
        let mut saw_cold = false;
        let mut saw_hot = false;
        for _ in 0..30_000 {
            let inst = g.next_inst();
            if let Some(a) = inst.mem_addr {
                assert_eq!(a % 8, 0, "addresses are 8-byte aligned");
                if a >= COLD_BASE {
                    assert!(a < COLD_BASE + mem.cold_bytes);
                    saw_cold = true;
                } else {
                    assert!(a >= HOT_BASE && a < HOT_BASE + mem.hot_bytes);
                    saw_hot = true;
                }
            }
        }
        assert!(saw_cold && saw_hot);
    }

    #[test]
    fn mix_roughly_matches_profile() {
        let mut g = TraceGenerator::for_benchmark(Benchmark::Bzip2, 17);
        let mut loads = 0usize;
        let n = 100_000;
        for _ in 0..n {
            if g.next_inst().op == OpClass::Load {
                loads += 1;
            }
        }
        let frac = loads as f64 / n as f64;
        let want = g.profile().mix.load / g.profile().mix.total();
        assert!(
            (frac - want).abs() < 0.08,
            "load fraction {frac:.3} too far from {want:.3}"
        );
    }

    #[test]
    fn patterned_branches_repeat() {
        // Find a patterned branch and check its dynamic outcomes cycle.
        let mut g = TraceGenerator::for_benchmark(Benchmark::Povray, 23);
        let mut outcomes: std::collections::HashMap<u64, Vec<bool>> = Default::default();
        for _ in 0..200_000 {
            let inst = g.next_inst();
            if inst.op == OpClass::CondBranch {
                outcomes.entry(inst.pc).or_default().push(inst.taken.unwrap());
            }
        }
        // At least one branch must show a perfectly periodic outcome stream.
        let periodic = outcomes.values().any(|v| {
            v.len() > 32
                && (2..=8).any(|p| v.windows(p + 1).all(|w| w[0] == w[p]))
        });
        assert!(periodic, "no periodic branch found");
    }

    #[test]
    fn fast_forward_advances_stream() {
        let mut a = TraceGenerator::for_benchmark(Benchmark::Gcc, 7);
        let mut b = TraceGenerator::for_benchmark(Benchmark::Gcc, 7);
        a.fast_forward(123);
        for _ in 0..123 {
            b.next_inst();
        }
        assert_eq!(a.next_inst(), b.next_inst());
    }

    /// Every benchmark profile, plus the cold-share extremes: at
    /// `cold_frac = 1.0` the region draw is `gen_bool(1.0)`, which draws
    /// nothing, and at `0.0` it draws but never picks the cold region.
    fn walk_profiles() -> Vec<Profile> {
        let mut profiles: Vec<Profile> = Benchmark::ALL.iter().map(|b| b.profile()).collect();
        for frac in [1.0, 0.0] {
            let mut p = Benchmark::Mcf.profile();
            p.memory.cold_frac = frac;
            p.memory.chase_miss_frac = frac;
            profiles.push(p);
        }
        profiles
    }

    #[test]
    fn pc_count_walk_matches_next_inst_counts() {
        use crate::source::WorkloadSpec;
        // Odd lengths stop most walks inside a block.
        const N: u64 = 10_007;
        let mut stopped_mid_block = 0;
        for profile in walk_profiles() {
            let spec = WorkloadSpec::Synthetic(profile.clone());
            for seed in [1, 42, 9_001] {
                for ff in [0, 777, 12_345] {
                    let mut reference = TraceGenerator::new(profile.clone(), seed);
                    reference.fast_forward(ff);
                    let mut want = std::collections::BTreeMap::new();
                    for _ in 0..N {
                        *want.entry(reference.next_inst().pc).or_insert(0u64) += 1;
                    }
                    let want: Vec<(u64, u64)> = want.into_iter().collect();
                    stopped_mid_block += usize::from(reference.slot != 0);

                    let mut probe = spec.source(seed);
                    probe.fast_forward(ff);
                    let got = probe.pc_counts(N);
                    assert_eq!(got, want, "{} seed {seed} ff {ff}", profile.name);
                }
            }
        }
        assert!(stopped_mid_block > 0, "no walk stopped inside a block");
    }

    #[test]
    fn pc_count_walk_stops_at_its_budget() {
        let g = TraceGenerator::for_benchmark(Benchmark::Gcc, 3);
        assert!(g.clone().walk_pc_counts(0).is_empty());
        let counts = g.walk_pc_counts(1);
        assert_eq!(counts, vec![(crate::program::TEXT_BASE, 1)]);
    }

    #[test]
    fn iterator_interface() {
        let g = TraceGenerator::for_benchmark(Benchmark::Tonto, 1);
        let v: Vec<_> = g.take(10).collect();
        assert_eq!(v.len(), 10);
        assert_eq!(v[9].seq, 9);
    }
}

#[cfg(test)]
mod speed_probe {
    use super::*;

    #[test]
    #[ignore = "manual throughput probe"]
    fn gen_speed() {
        let mut g = TraceGenerator::for_benchmark(Benchmark::Gcc, 42);
        let t = std::time::Instant::now();
        let mut acc = 0u64;
        for _ in 0..1_000_000 {
            acc ^= g.next_inst().pc;
        }
        eprintln!("1M insts in {:?} (acc {acc})", t.elapsed());
    }
}
