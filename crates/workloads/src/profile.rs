//! Per-benchmark workload profiles.
//!
//! Each profile is a parameter set for the synthetic program generator that
//! reproduces the *observable* characteristics the paper reports for the
//! corresponding SPEC benchmark: fault-free IPC (Table 1, column 2),
//! susceptibility to data stalls (libquantum, mcf), inherent instruction-level
//! parallelism (sjeng, povray), and the fault rates measured at the two
//! studied supply voltages (Table 1, FR columns).
//!
//! Fault-rate targets are carried here because the paper observes that fault
//! rates are *program dependent* ("depending on specific paths sensitized
//! during program execution, different benchmark programs exhibit different
//! fault rates while operating at the same supply voltage", §5.1); the
//! `tv-timing` crate constructs a per-static-instruction slack distribution
//! that reproduces these rates at the calibration voltages and interpolates
//! in between.

use crate::inst::OpClass;

/// The twelve SPEC CPU2006 benchmarks evaluated in the paper (Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Benchmark {
    Astar,
    Bzip2,
    Gcc,
    Gobmk,
    Libquantum,
    Mcf,
    Perlbench,
    Povray,
    Sjeng,
    Sphinx3,
    Tonto,
    Xalancbmk,
}

impl Benchmark {
    /// All benchmarks in the order used by the paper's tables and figures.
    pub const ALL: [Benchmark; 12] = [
        Benchmark::Astar,
        Benchmark::Bzip2,
        Benchmark::Gcc,
        Benchmark::Gobmk,
        Benchmark::Libquantum,
        Benchmark::Mcf,
        Benchmark::Perlbench,
        Benchmark::Povray,
        Benchmark::Sjeng,
        Benchmark::Sphinx3,
        Benchmark::Tonto,
        Benchmark::Xalancbmk,
    ];

    /// Lower-case benchmark name as printed in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Benchmark::Astar => "astar",
            Benchmark::Bzip2 => "bzip2",
            Benchmark::Gcc => "gcc",
            Benchmark::Gobmk => "gobmk",
            Benchmark::Libquantum => "libquantum",
            Benchmark::Mcf => "mcf",
            Benchmark::Perlbench => "perlbench",
            Benchmark::Povray => "povray",
            Benchmark::Sjeng => "sjeng",
            Benchmark::Sphinx3 => "sphinx3",
            Benchmark::Tonto => "tonto",
            Benchmark::Xalancbmk => "xalancbmk",
        }
    }

    /// The workload profile for this benchmark.
    pub fn profile(self) -> Profile {
        profile_2006(self)
    }
}

impl std::fmt::Display for Benchmark {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The six SPEC2000 integer benchmarks used for the gate-level
/// path-sensitization study (paper §S1, Figure 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Spec2000 {
    Bzip,
    Gap,
    Gzip,
    Mcf,
    Parser,
    Vortex,
}

impl Spec2000 {
    /// All SPEC2000 benchmarks in the order of Figure 7's legend.
    pub const ALL: [Spec2000; 6] = [
        Spec2000::Bzip,
        Spec2000::Gap,
        Spec2000::Gzip,
        Spec2000::Mcf,
        Spec2000::Parser,
        Spec2000::Vortex,
    ];

    /// Lower-case benchmark name as printed in Figure 7.
    pub fn name(self) -> &'static str {
        match self {
            Spec2000::Bzip => "bzip",
            Spec2000::Gap => "gap",
            Spec2000::Gzip => "gzip",
            Spec2000::Mcf => "mcf",
            Spec2000::Parser => "parser",
            Spec2000::Vortex => "vortex",
        }
    }

    /// Value-locality parameters for this benchmark's operand streams.
    ///
    /// `(value_bits, repeat_prob, stride_prob)`: operands span roughly
    /// `2^value_bits` distinct magnitudes; with `repeat_prob` a dynamic
    /// instance reuses its previous operand pair exactly; with `stride_prob`
    /// it offsets the previous pair by a small stride (the array-walk pattern
    /// the paper calls out for AGEN). The remainder draws fresh values.
    ///
    /// vortex "operates on a smaller range of input values" (§S1.3) and shows
    /// the highest commonality, so it gets the narrowest range and highest
    /// repeat probability.
    pub fn value_profile(self) -> ValueProfile {
        match self {
            Spec2000::Bzip => ValueProfile::new(18, 0.970, 0.027),
            Spec2000::Gap => ValueProfile::new(20, 0.962, 0.034),
            Spec2000::Gzip => ValueProfile::new(16, 0.975, 0.022),
            Spec2000::Mcf => ValueProfile::new(24, 0.945, 0.050),
            Spec2000::Parser => ValueProfile::new(21, 0.962, 0.034),
            Spec2000::Vortex => ValueProfile::new(12, 0.992, 0.007),
        }
    }
}

impl std::fmt::Display for Spec2000 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Value-locality parameters for a SPEC2000 operand stream (see
/// [`Spec2000::value_profile`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ValueProfile {
    /// Operand values span roughly `2^value_bits` magnitudes.
    pub value_bits: u32,
    /// Probability a dynamic instance repeats its previous operand pair.
    pub repeat_prob: f64,
    /// Probability a dynamic instance strides from the previous pair.
    pub stride_prob: f64,
}

impl ValueProfile {
    /// Creates a value profile.
    ///
    /// # Panics
    ///
    /// Panics if probabilities are outside `[0, 1]` or sum above 1, or if
    /// `value_bits` is 0 or exceeds 63.
    pub fn new(value_bits: u32, repeat_prob: f64, stride_prob: f64) -> Self {
        assert!(value_bits > 0 && value_bits < 64, "value_bits out of range");
        assert!((0.0..=1.0).contains(&repeat_prob), "repeat_prob out of range");
        assert!((0.0..=1.0).contains(&stride_prob), "stride_prob out of range");
        assert!(repeat_prob + stride_prob <= 1.0, "probabilities exceed 1");
        ValueProfile {
            value_bits,
            repeat_prob,
            stride_prob,
        }
    }
}

/// Instruction-mix weights (relative, not required to sum to 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mix {
    pub int_alu: f64,
    pub int_mul: f64,
    pub int_div: f64,
    pub load: f64,
    pub store: f64,
    pub cond_branch: f64,
    pub jump: f64,
    pub fp_alu: f64,
    pub fp_mul: f64,
}

impl Mix {
    /// Weight for one operation class.
    pub fn weight(&self, op: OpClass) -> f64 {
        match op {
            OpClass::IntAlu => self.int_alu,
            OpClass::IntMul => self.int_mul,
            OpClass::IntDiv => self.int_div,
            OpClass::Load => self.load,
            OpClass::Store => self.store,
            OpClass::CondBranch => self.cond_branch,
            OpClass::Jump => self.jump,
            OpClass::FpAlu => self.fp_alu,
            OpClass::FpMul => self.fp_mul,
        }
    }

    /// Total weight across all classes.
    pub fn total(&self) -> f64 {
        OpClass::ALL.iter().map(|&op| self.weight(op)).sum()
    }

    /// A typical integer-code mix.
    pub fn integer() -> Self {
        Mix {
            int_alu: 0.48,
            int_mul: 0.01,
            int_div: 0.002,
            load: 0.24,
            store: 0.10,
            cond_branch: 0.13,
            jump: 0.03,
            fp_alu: 0.0,
            fp_mul: 0.0,
        }
    }

    /// A floating-point-heavy mix.
    pub fn floating_point() -> Self {
        Mix {
            int_alu: 0.30,
            int_mul: 0.01,
            int_div: 0.002,
            load: 0.26,
            store: 0.09,
            cond_branch: 0.08,
            jump: 0.02,
            fp_alu: 0.14,
            fp_mul: 0.10,
        }
    }
}

/// Memory working-set shape.
///
/// Loads and stores address a two-level region model: a *hot* region that is
/// expected to fit in L1/L2 and a *cold* region that does not. The fraction
/// of accesses sent to the cold region, together with the cold region size,
/// determines the L2/memory miss traffic and therefore the data-stall
/// behaviour of the benchmark (mcf and libquantum in the paper).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryShape {
    /// Hot working-set size in bytes.
    pub hot_bytes: u64,
    /// Cold working-set size in bytes.
    pub cold_bytes: u64,
    /// Fraction of dynamic memory accesses that target the cold region
    /// (decided per access by the generator).
    pub cold_frac: f64,
    /// Fraction of static memory instructions that follow a sequential
    /// stride within their region (the rest are pseudo-random).
    pub stride_frac: f64,
    /// Fraction of static loads whose *address* depends on the previous
    /// load's result (pointer chasing, serializing — dominant in mcf).
    pub pointer_chase_frac: f64,
    /// Fraction of dynamic pointer-chase accesses that walk into the cold
    /// region (the rest chase within the cached hot structure).
    pub chase_miss_frac: f64,
}

/// Complete generator parameter set for one benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct Profile {
    /// Benchmark name (for reports).
    pub name: &'static str,
    /// Instruction mix.
    pub mix: Mix,
    /// Mean register-dependence distance in instructions; larger values mean
    /// more independent instructions in flight (more ILP).
    pub mean_dep_distance: f64,
    /// Memory working-set shape.
    pub memory: MemoryShape,
    /// Fraction of source operands that reuse the current basic block's
    /// *hub* value (the block's first result). High values create
    /// high-fan-out producers — the data-flow pattern that makes the
    /// criticality-driven policy shine on libquantum (paper §5.2).
    pub fanout_reuse: f64,
    /// Mean taken-bias of conditional branches in `[0.5, 1.0)`; closer to 1.0
    /// means highly biased (predictable) branches.
    pub branch_bias: f64,
    /// Fraction of conditional branches that follow a short repeating
    /// pattern (predictable by global history) rather than a Bernoulli draw.
    pub branch_patterned: f64,
    /// Number of basic blocks in the static program.
    pub num_blocks: usize,
    /// Mean basic-block length in instructions.
    pub mean_block_len: f64,
    /// Target fault rate (% of committed instructions incurring a timing
    /// violation in the OoO engine) at V_DD = 0.97 V — Table 1.
    pub fault_rate_097: f64,
    /// Target fault rate (%) at V_DD = 1.04 V — Table 1.
    pub fault_rate_104: f64,
    /// Fault-free IPC the paper reports (Table 1, column 2); used only as a
    /// calibration target and in reports, never by the generator itself.
    pub paper_ipc: f64,
}

fn profile_2006(bench: Benchmark) -> Profile {
    const KB: u64 = 1024;
    const MB: u64 = 1024 * 1024;
    match bench {
        // Path-finding: modest ILP, irregular loads, mid-size working set.
        Benchmark::Astar => Profile {
            name: "astar",
            mix: Mix {
                load: 0.28,
                store: 0.08,
                cond_branch: 0.15,
                ..Mix::integer()
            },
            mean_dep_distance: 2.6,
            memory: MemoryShape {
                hot_bytes: 14 * KB,
                cold_bytes: 24 * MB,
                cold_frac: 0.016,
                stride_frac: 0.35,
                pointer_chase_frac: 0.004,
                chase_miss_frac: 0.30,
            },
            fanout_reuse: 0.10,
            branch_bias: 0.82,
            branch_patterned: 0.60,
            num_blocks: 180,
            mean_block_len: 7.0,
            fault_rate_097: 6.74,
            fault_rate_104: 2.01,
            paper_ipc: 0.69,
        },
        // Compression: good ILP, strided hot loops.
        Benchmark::Bzip2 => Profile {
            name: "bzip2",
            mix: Mix::integer(),
            mean_dep_distance: 5.0,
            memory: MemoryShape {
                hot_bytes: 16 * KB,
                cold_bytes: 64 * KB,
                cold_frac: 0.010,
                stride_frac: 0.70,
                pointer_chase_frac: 0.002,
                chase_miss_frac: 0.10,
            },
            fanout_reuse: 0.12,
            branch_bias: 0.87,
            branch_patterned: 0.90,
            num_blocks: 140,
            mean_block_len: 8.0,
            fault_rate_097: 8.92,
            fault_rate_104: 2.24,
            paper_ipc: 1.48,
        },
        // Compiler: large instruction footprint, moderate everything.
        Benchmark::Gcc => Profile {
            name: "gcc",
            mix: Mix {
                cond_branch: 0.16,
                jump: 0.05,
                ..Mix::integer()
            },
            mean_dep_distance: 4.8,
            memory: MemoryShape {
                hot_bytes: 14 * KB,
                cold_bytes: 16 * MB,
                cold_frac: 0.002,
                stride_frac: 0.60,
                pointer_chase_frac: 0.004,
                chase_miss_frac: 0.10,
            },
            fanout_reuse: 0.10,
            branch_bias: 0.86,
            branch_patterned: 0.90,
            num_blocks: 420,
            mean_block_len: 6.0,
            fault_rate_097: 8.43,
            fault_rate_104: 1.50,
            paper_ipc: 1.34,
        },
        // Go engine: high ILP, branchy but predictable enough.
        Benchmark::Gobmk => Profile {
            name: "gobmk",
            mix: Mix {
                cond_branch: 0.17,
                ..Mix::integer()
            },
            mean_dep_distance: 12.0,
            memory: MemoryShape {
                hot_bytes: 12 * KB,
                cold_bytes: 128 * KB,
                cold_frac: 0.003,
                stride_frac: 0.55,
                pointer_chase_frac: 0.003,
                chase_miss_frac: 0.08,
            },
            fanout_reuse: 0.10,
            branch_bias: 0.85,
            branch_patterned: 0.95,
            num_blocks: 360,
            mean_block_len: 6.5,
            fault_rate_097: 8.64,
            fault_rate_104: 2.16,
            paper_ipc: 1.68,
        },
        // Quantum simulation: streaming over a huge array — dominated by
        // data stalls (paper: "greater data stalls, substantially lower
        // performance impact from occasional timing violations").
        Benchmark::Libquantum => Profile {
            name: "libquantum",
            mix: Mix {
                load: 0.30,
                store: 0.12,
                cond_branch: 0.12,
                ..Mix::integer()
            },
            mean_dep_distance: 3.2,
            memory: MemoryShape {
                hot_bytes: 12 * KB,
                cold_bytes: 64 * MB,
                cold_frac: 0.200,
                stride_frac: 0.90,
                pointer_chase_frac: 0.0,
                chase_miss_frac: 0.0,
            },
            fanout_reuse: 0.45,
            branch_bias: 0.93,
            branch_patterned: 0.80,
            num_blocks: 60,
            mean_block_len: 7.5,
            fault_rate_097: 10.54,
            fault_rate_104: 2.10,
            paper_ipc: 0.51,
        },
        // Sparse network simplex: pointer chasing over a working set far
        // beyond L2 — the classic memory-bound benchmark.
        Benchmark::Mcf => Profile {
            name: "mcf",
            mix: Mix {
                load: 0.34,
                store: 0.09,
                cond_branch: 0.14,
                ..Mix::integer()
            },
            mean_dep_distance: 2.2,
            memory: MemoryShape {
                hot_bytes: 12 * KB,
                cold_bytes: 256 * MB,
                cold_frac: 0.060,
                stride_frac: 0.10,
                pointer_chase_frac: 0.040,
                chase_miss_frac: 0.25,
            },
            fanout_reuse: 0.15,
            branch_bias: 0.80,
            branch_patterned: 0.45,
            num_blocks: 120,
            mean_block_len: 6.0,
            fault_rate_097: 6.45,
            fault_rate_104: 1.73,
            paper_ipc: 0.34,
        },
        // Interpreter: indirect-branch heavy, decent ILP.
        Benchmark::Perlbench => Profile {
            name: "perlbench",
            mix: Mix {
                cond_branch: 0.15,
                jump: 0.06,
                ..Mix::integer()
            },
            mean_dep_distance: 4.6,
            memory: MemoryShape {
                hot_bytes: 14 * KB,
                cold_bytes: 16 * MB,
                cold_frac: 0.004,
                stride_frac: 0.50,
                pointer_chase_frac: 0.005,
                chase_miss_frac: 0.08,
            },
            fanout_reuse: 0.10,
            branch_bias: 0.87,
            branch_patterned: 0.72,
            num_blocks: 380,
            mean_block_len: 6.0,
            fault_rate_097: 7.21,
            fault_rate_104: 1.80,
            paper_ipc: 1.31,
        },
        // Ray tracer: FP heavy, high ILP, tiny working set.
        Benchmark::Povray => Profile {
            name: "povray",
            mix: Mix::floating_point(),
            mean_dep_distance: 16.0,
            memory: MemoryShape {
                hot_bytes: 12 * KB,
                cold_bytes: 128 * KB,
                cold_frac: 0.002,
                stride_frac: 0.70,
                pointer_chase_frac: 0.001,
                chase_miss_frac: 0.05,
            },
            fanout_reuse: 0.12,
            branch_bias: 0.92,
            branch_patterned: 0.95,
            num_blocks: 260,
            mean_block_len: 10.0,
            fault_rate_097: 6.31,
            fault_rate_104: 1.57,
            paper_ipc: 1.94,
        },
        // Chess engine: the paper's example of high inherent ILP and
        // therefore greatest susceptibility to timing-violation slowdown.
        Benchmark::Sjeng => Profile {
            name: "sjeng",
            mix: Mix {
                cond_branch: 0.15,
                ..Mix::integer()
            },
            mean_dep_distance: 18.0,
            memory: MemoryShape {
                hot_bytes: 12 * KB,
                cold_bytes: 128 * KB,
                cold_frac: 0.002,
                stride_frac: 0.60,
                pointer_chase_frac: 0.002,
                chase_miss_frac: 0.05,
            },
            fanout_reuse: 0.10,
            branch_bias: 0.88,
            branch_patterned: 0.95,
            num_blocks: 300,
            mean_block_len: 7.5,
            fault_rate_097: 9.19,
            fault_rate_104: 2.29,
            paper_ipc: 1.93,
        },
        // Speech recognition: FP + strided, moderate misses.
        Benchmark::Sphinx3 => Profile {
            name: "sphinx3",
            mix: Mix {
                fp_alu: 0.10,
                fp_mul: 0.07,
                load: 0.28,
                int_alu: 0.35,
                ..Mix::integer()
            },
            mean_dep_distance: 4.6,
            memory: MemoryShape {
                hot_bytes: 16 * KB,
                cold_bytes: 12 * MB,
                cold_frac: 0.007,
                stride_frac: 0.80,
                pointer_chase_frac: 0.002,
                chase_miss_frac: 0.05,
            },
            fanout_reuse: 0.20,
            branch_bias: 0.89,
            branch_patterned: 0.85,
            num_blocks: 200,
            mean_block_len: 7.0,
            fault_rate_097: 6.95,
            fault_rate_104: 1.73,
            paper_ipc: 1.30,
        },
        // Quantum chemistry: FP heavy, good ILP.
        Benchmark::Tonto => Profile {
            name: "tonto",
            mix: Mix::floating_point(),
            mean_dep_distance: 6.0,
            memory: MemoryShape {
                hot_bytes: 14 * KB,
                cold_bytes: 1 * MB,
                cold_frac: 0.004,
                stride_frac: 0.75,
                pointer_chase_frac: 0.002,
                chase_miss_frac: 0.05,
            },
            fanout_reuse: 0.15,
            branch_bias: 0.90,
            branch_patterned: 0.88,
            num_blocks: 240,
            mean_block_len: 8.5,
            fault_rate_097: 5.59,
            fault_rate_104: 1.39,
            paper_ipc: 1.41,
        },
        // XML processing: branchy pointer code with poor locality.
        Benchmark::Xalancbmk => Profile {
            name: "xalancbmk",
            mix: Mix {
                int_alu: 0.40,
                load: 0.30,
                cond_branch: 0.16,
                jump: 0.05,
                ..Mix::integer()
            },
            mean_dep_distance: 2.4,
            memory: MemoryShape {
                hot_bytes: 14 * KB,
                cold_bytes: 48 * MB,
                cold_frac: 0.055,
                stride_frac: 0.25,
                pointer_chase_frac: 0.060,
                chase_miss_frac: 0.15,
            },
            fanout_reuse: 0.12,
            branch_bias: 0.79,
            branch_patterned: 0.50,
            num_blocks: 340,
            mean_block_len: 5.5,
            fault_rate_097: 7.95,
            fault_rate_104: 1.99,
            paper_ipc: 0.51,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_benchmarks_have_profiles() {
        for b in Benchmark::ALL {
            let p = b.profile();
            assert_eq!(p.name, b.name());
            assert!(p.mean_dep_distance >= 1.0);
            assert!(p.mix.total() > 0.9 && p.mix.total() < 1.1, "{}", b);
            assert!(p.memory.cold_frac >= 0.0 && p.memory.cold_frac <= 1.0);
            assert!(p.branch_bias >= 0.5 && p.branch_bias < 1.0);
            assert!(p.num_blocks >= 16);
            assert!(p.fault_rate_097 > p.fault_rate_104, "{}", b);
        }
    }

    #[test]
    fn fault_rates_match_table1_ordering() {
        // libquantum has the highest 0.97 V fault rate; tonto the lowest.
        let max = Benchmark::ALL
            .iter()
            .max_by(|a, b| {
                a.profile()
                    .fault_rate_097
                    .partial_cmp(&b.profile().fault_rate_097)
                    .unwrap()
            })
            .copied()
            .unwrap();
        let min = Benchmark::ALL
            .iter()
            .min_by(|a, b| {
                a.profile()
                    .fault_rate_097
                    .partial_cmp(&b.profile().fault_rate_097)
                    .unwrap()
            })
            .copied()
            .unwrap();
        assert_eq!(max, Benchmark::Libquantum);
        assert_eq!(min, Benchmark::Tonto);
    }

    #[test]
    fn ipc_targets_span_paper_range() {
        let ipcs: Vec<f64> = Benchmark::ALL.iter().map(|b| b.profile().paper_ipc).collect();
        let lo = ipcs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = ipcs.iter().cloned().fold(0.0, f64::max);
        assert!((lo - 0.34).abs() < 1e-9); // mcf
        assert!((hi - 1.94).abs() < 1e-9); // povray
    }

    #[test]
    fn spec2000_value_profiles() {
        for b in Spec2000::ALL {
            let v = b.value_profile();
            assert!(v.value_bits > 0 && v.value_bits < 64);
            assert!(v.repeat_prob + v.stride_prob <= 1.0);
        }
        // vortex has the narrowest value range (highest commonality).
        let vmin = Spec2000::ALL
            .iter()
            .min_by_key(|b| b.value_profile().value_bits)
            .copied()
            .unwrap();
        assert_eq!(vmin, Spec2000::Vortex);
    }

    #[test]
    #[should_panic(expected = "probabilities exceed 1")]
    fn value_profile_validates() {
        let _ = ValueProfile::new(8, 0.7, 0.7);
    }
}
