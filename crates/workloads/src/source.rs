//! The workload abstraction the pipeline is driven by.
//!
//! [`WorkloadSource`] is the stream interface: the synthetic
//! [`TraceGenerator`] yields instructions forever, while the RISC-V
//! [`RiscvMachine`] runs a real program to its `ecall` halt and then
//! ends the stream. [`WorkloadSpec`] is the
//! *recipe* — a cloneable description a pipeline builder can instantiate
//! any number of times. A started stream can also be
//! [`fork`](WorkloadSource::fork)ed: the fault-calibration probe walks a
//! fork of the simulated stream, and every pipeline built for the same
//! (workload, seed, fast-forward) can start from forks of one source.

use std::sync::Arc;

use tv_prng::{fast_map, FastHashMap};

use crate::generate::TraceGenerator;
use crate::inst::TraceInst;
use crate::profile::Profile;
use crate::riscv::{RiscvMachine, RiscvProgram};

/// A stream of resolved dynamic instructions feeding the pipeline.
///
/// Implementations must be deterministic: two sources built from the same
/// spec and seed yield identical streams. They are `Sync` so that one
/// started stream can be shared by the threads that fork it.
pub trait WorkloadSource: Send + Sync {
    /// The next dynamic instruction, or `None` once the workload has
    /// halted (synthetic workloads never halt).
    fn next_inst(&mut self) -> Option<TraceInst>;

    /// An independent copy of this stream at its current position: it
    /// yields exactly what this source would yield next. Cheap next to
    /// building a source: a synthetic fork shares its generated program.
    fn fork(&self) -> Box<dyn WorkloadSource>;

    /// Skips up to `n` instructions (stops early at a halt).
    fn fast_forward(&mut self, n: u64) {
        for _ in 0..n {
            if self.next_inst().is_none() {
                break;
            }
        }
    }

    /// Per-PC execution counts of the next `n` instructions (fewer when
    /// the workload halts first), sorted by PC, zero counts omitted — the
    /// profile the fault model's critical-PC ranking is calibrated on.
    ///
    /// Consumes the source. This default builds every instruction, which
    /// a source whose PCs come from executing a program must do; the
    /// synthetic generator overrides it with a walk that builds none and
    /// leaves its operand state stale.
    fn pc_counts(mut self: Box<Self>, n: u64) -> Vec<(u64, u64)> {
        let mut counts: FastHashMap<u64, u64> = fast_map();
        for _ in 0..n {
            match self.next_inst() {
                Some(t) => *counts.entry(t.pc).or_default() += 1,
                None => break,
            }
        }
        let mut counts: Vec<(u64, u64)> = counts.into_iter().collect();
        counts.sort_unstable();
        counts
    }
}

impl WorkloadSource for TraceGenerator {
    fn next_inst(&mut self) -> Option<TraceInst> {
        Some(TraceGenerator::next_inst(self))
    }

    fn fork(&self) -> Box<dyn WorkloadSource> {
        Box::new(self.clone())
    }

    fn fast_forward(&mut self, n: u64) {
        TraceGenerator::fast_forward(self, n);
    }

    fn pc_counts(self: Box<Self>, n: u64) -> Vec<(u64, u64)> {
        self.walk_pc_counts(n)
    }
}

/// Default Table-1-style fault rates for RISC-V programs, which carry no
/// benchmark profile: faults per 10k instructions at 0.97 V / 1.04 V,
/// in the range spanned by the paper's SPEC profiles.
pub const RISCV_FAULT_RATES: (f64, f64) = (6.0, 2.0);

/// A cloneable workload recipe; [`source`](WorkloadSpec::source) mints
/// independent instruction streams from it.
#[derive(Debug, Clone)]
pub enum WorkloadSpec {
    /// A synthetic Markov-CFG workload described by a benchmark profile.
    Synthetic(Profile),
    /// A real RISC-V program, run to its `ecall` halt.
    Riscv(Arc<RiscvProgram>),
}

/// Two specs are equal when they describe the same stream: equal
/// profiles, or the same (or an identical) RISC-V program.
impl PartialEq for WorkloadSpec {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (WorkloadSpec::Synthetic(p), WorkloadSpec::Synthetic(q)) => p == q,
            (WorkloadSpec::Riscv(p), WorkloadSpec::Riscv(q)) => Arc::ptr_eq(p, q) || p == q,
            _ => false,
        }
    }
}

impl WorkloadSpec {
    /// Instantiates a fresh instruction stream. `seed` drives synthetic
    /// generation; RISC-V execution is seed-independent (the program *is*
    /// the stream).
    pub fn source(&self, seed: u64) -> Box<dyn WorkloadSource> {
        match self {
            WorkloadSpec::Synthetic(profile) => {
                Box::new(TraceGenerator::new(profile.clone(), seed))
            }
            WorkloadSpec::Riscv(program) => Box::new(RiscvMachine::new(program.clone())),
        }
    }

    /// The `(0.97 V, 1.04 V)` fault rates calibrating the fault model.
    pub fn fault_rates(&self) -> (f64, f64) {
        match self {
            WorkloadSpec::Synthetic(p) => (p.fault_rate_097, p.fault_rate_104),
            WorkloadSpec::Riscv(_) => RISCV_FAULT_RATES,
        }
    }

    /// Whether the stream ends on its own (a real program halting).
    pub fn is_finite(&self) -> bool {
        matches!(self, WorkloadSpec::Riscv(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::Benchmark;
    use crate::riscv::assemble;

    #[test]
    fn synthetic_source_is_endless_and_seeded() {
        let spec = WorkloadSpec::Synthetic(Benchmark::Gcc.profile());
        assert!(!spec.is_finite());
        let mut a = spec.source(5);
        let mut b = spec.source(5);
        for _ in 0..500 {
            assert_eq!(a.next_inst(), b.next_inst());
        }
        let mut c = spec.source(6);
        let diverges = (0..500).any(|_| a.next_inst() != c.next_inst());
        assert!(diverges, "seed must matter");
    }

    #[test]
    fn riscv_source_halts_and_is_seed_independent() {
        let program = Arc::new(assemble("li a0, 1\nadd a0, a0, a0\necall\n").unwrap());
        let spec = WorkloadSpec::Riscv(program);
        assert!(spec.is_finite());
        let mut a = spec.source(1);
        let mut b = spec.source(99);
        let mut n = 0;
        loop {
            let (x, y) = (a.next_inst(), b.next_inst());
            assert_eq!(x, y, "riscv streams are seed-independent");
            if x.is_none() {
                break;
            }
            n += 1;
        }
        assert_eq!(n, 3);
        assert_eq!(a.next_inst(), None, "stream stays ended");
    }

    #[test]
    fn fast_forward_stops_at_halt() {
        let program = Arc::new(assemble("nop\necall\n").unwrap());
        let mut src = WorkloadSpec::Riscv(program).source(0);
        src.fast_forward(1_000);
        assert_eq!(src.next_inst(), None);
    }
}
