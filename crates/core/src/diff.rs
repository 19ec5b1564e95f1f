//! Scheme-equivalence differential harness.
//!
//! The paper's schemes may differ only in *timing*, never in *work*: every
//! tolerance mode and selection policy must commit the identical
//! architectural instruction stream — same sequence numbers, same PCs,
//! same operations — because faults are either corrected (replay) or
//! tolerated in place (padding/stalls), and the trace is the single source
//! of architectural truth. This harness runs each `(benchmark, voltage,
//! seed)` tuple under every scheme via the [`Fleet`] engine, with the
//! cycle-level invariant auditor enabled, and checks:
//!
//! 1. all schemes commit bit-identical streams (FNV-1a over
//!    `(seq, pc, op)` triples), and
//! 2. no run violates a single pipeline invariant.
//!
//! Tuples name a [`Workload`], so the same harness diffs synthetic
//! benchmarks and real RISC-V programs (which additionally run under the
//! golden-model oracle when [`DiffConfig::oracle`] is set).

use tv_audit::AuditLevel;
use tv_timing::Voltage;
use tv_workloads::Benchmark;

use crate::cosim::build_cosim;
use crate::fleet::Fleet;
use crate::schemes::Scheme;
use crate::workload::Workload;

/// One differential test point.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffTuple {
    /// Workload under test.
    pub workload: Workload,
    /// Faulty-environment supply voltage (FaultFree still runs nominal).
    pub vdd: Voltage,
    /// Workload/die seed.
    pub seed: u64,
}

impl DiffTuple {
    /// Cartesian sweep over benchmarks × voltages × seeds.
    pub fn sweep(benches: &[Benchmark], voltages: &[Voltage], seeds: &[u64]) -> Vec<DiffTuple> {
        let workloads: Vec<Workload> = benches.iter().map(|&b| Workload::Bench(b)).collect();
        Self::sweep_workloads(&workloads, voltages, seeds)
    }

    /// Cartesian sweep over arbitrary workloads × voltages × seeds.
    pub fn sweep_workloads(
        workloads: &[Workload],
        voltages: &[Voltage],
        seeds: &[u64],
    ) -> Vec<DiffTuple> {
        let mut tuples = Vec::new();
        for workload in workloads {
            for &vdd in voltages {
                for &seed in seeds {
                    tuples.push(DiffTuple {
                        workload: workload.clone(),
                        vdd,
                        seed,
                    });
                }
            }
        }
        tuples
    }
}

/// Differential-run parameters.
#[derive(Debug, Clone)]
pub struct DiffConfig {
    /// Committed instructions measured per run.
    pub commits: u64,
    /// Warm-up commits before measurement (exercises the mid-run stats
    /// reset under the auditor).
    pub warmup: u64,
    /// Audit level for every run.
    pub audit: AuditLevel,
    /// Schemes to compare (default: all six).
    pub schemes: Vec<Scheme>,
    /// Also run the golden-model oracle and record its verdict per run
    /// (default: off; the synthetic golden CSVs predate the field).
    pub oracle: bool,
}

impl Default for DiffConfig {
    fn default() -> Self {
        DiffConfig {
            commits: 20_000,
            warmup: 5_000,
            audit: AuditLevel::Full,
            schemes: Scheme::ALL.to_vec(),
            oracle: false,
        }
    }
}

/// The outcome of one scheme's run within a tuple.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffRun {
    /// Workload name of the tuple (`gcc`, `riscv:matmul`, …).
    pub workload: String,
    /// Supply voltage of the tuple.
    pub vdd: Voltage,
    /// Seed of the tuple.
    pub seed: u64,
    /// Scheme this run used.
    pub scheme: Scheme,
    /// Instructions committed (warm-up + measured).
    pub commits: u64,
    /// Cycles simulated in the measurement window.
    pub cycles: u64,
    /// FNV-1a hash of the committed `(seq, pc, op)` stream.
    pub stream_hash: u64,
    /// Cycles audited.
    pub audit_cycles: u64,
    /// Invariant checks performed.
    pub audit_checks: u64,
    /// Invariant violations observed.
    pub audit_violations: u64,
    /// First violation's description, if any.
    pub first_violation: Option<String>,
    /// Golden-model verdict when [`DiffConfig::oracle`] is on: `Some(true)`
    /// iff every committed value and the final register file matched.
    pub oracle_clean: Option<bool>,
}

/// Aggregate result of a differential sweep.
#[derive(Debug, Clone)]
pub struct DiffReport {
    /// Every run, grouped by tuple in submission order.
    pub runs: Vec<DiffRun>,
    /// Human-readable descriptions of tuples whose schemes disagreed.
    pub mismatches: Vec<String>,
}

impl DiffReport {
    /// Total invariant violations across all runs.
    pub fn total_violations(&self) -> u64 {
        self.runs.iter().map(|r| r.audit_violations).sum()
    }

    /// Whether every scheme agreed and no invariant was violated.
    pub fn clean(&self) -> bool {
        self.mismatches.is_empty() && self.total_violations() == 0
    }
}

/// FNV-1a over the architectural commit stream.
pub(crate) fn stream_hash(log: &[(u64, u64, u8)]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mix = |word: u64, h: &mut u64| {
        for byte in word.to_le_bytes() {
            *h ^= u64::from(byte);
            *h = h.wrapping_mul(PRIME);
        }
    };
    for &(seq, pc, op) in log {
        mix(seq, &mut h);
        mix(pc, &mut h);
        mix(u64::from(op), &mut h);
    }
    h
}

/// One tuple's differential runs: one co-sim bundle (shared frontend,
/// one lane per configured scheme), one [`DiffRun`] per scheme in scheme
/// order — each bit-identical to a solo run of that scheme.
fn diff_runs(tuple: &DiffTuple, cfg: &DiffConfig) -> Vec<DiffRun> {
    let mut cosim = build_cosim(&tuple.workload, tuple.seed, tuple.vdd, &cfg.schemes, |_, b| {
        let b = b.record_commits(true).oracle(cfg.oracle);
        if cfg.audit.enabled() {
            b.audit(cfg.audit)
        } else {
            b
        }
    });
    // Finite programs run start-to-halt (warming up would consume the
    // program); synthetic streams warm up then measure, as the golden
    // CSVs were produced.
    let stats = if tuple.workload.is_riscv() {
        cosim.run_to_halt(cfg.commits)
    } else {
        cosim.warm_up(cfg.warmup);
        cosim.run(cfg.commits)
    };
    cfg.schemes
        .iter()
        .zip(stats)
        .enumerate()
        .map(|(i, (&scheme, stats))| {
            let pipe = cosim.lane(i);
            let log = pipe.commit_log().expect("recording enabled");
            let report = pipe.audit_report();
            DiffRun {
                workload: tuple.workload.name(),
                vdd: tuple.vdd,
                seed: tuple.seed,
                scheme,
                commits: log.len() as u64,
                cycles: stats.cycles,
                stream_hash: stream_hash(log),
                audit_cycles: report.as_ref().map_or(0, |r| r.cycles),
                audit_checks: report.as_ref().map_or(0, |r| r.checks),
                audit_violations: report.as_ref().map_or(0, |r| r.violations_total),
                first_violation: report
                    .as_ref()
                    .and_then(|r| r.violations.first())
                    .map(|v| format!("cycle {}: {}: {}", v.cycle, v.invariant, v.detail)),
                oracle_clean: pipe.oracle_report().map(|r| r.clean()),
            }
        })
        .collect()
}

/// Runs every tuple under every configured scheme on `fleet` — one
/// co-sim bundle per tuple — and checks scheme equivalence: any scheme
/// whose stream diverges from its tuple's first scheme is a mismatch.
/// Results come back in submission order (tuples outer, schemes inner),
/// bit-identical at any worker count.
pub fn run_differential(fleet: &Fleet, tuples: &[DiffTuple], cfg: &DiffConfig) -> DiffReport {
    let runs: Vec<DiffRun> = fleet
        .map(tuples.to_vec(), |tuple| diff_runs(tuple, cfg))
        .results
        .into_iter()
        .flatten()
        .collect();
    let mut mismatches = Vec::new();
    for group in runs.chunks(cfg.schemes.len()) {
        let Some(first) = group.first() else { continue };
        for run in &group[1..] {
            if run.stream_hash != first.stream_hash || run.commits != first.commits {
                mismatches.push(format!(
                    "{}@{:.3}V seed {}: {} stream (hash {:016x}, {} commits) \
                     diverges from {} (hash {:016x}, {} commits)",
                    run.workload,
                    run.vdd.volts(),
                    run.seed,
                    run.scheme.name(),
                    run.stream_hash,
                    run.commits,
                    first.scheme.name(),
                    first.stream_hash,
                    first.commits,
                ));
            }
        }
    }
    DiffReport { runs, mismatches }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_hash_is_order_and_content_sensitive() {
        let a = vec![(0u64, 0x400u64, 1u8), (1, 0x404, 2)];
        let mut b = a.clone();
        b.swap(0, 1);
        assert_ne!(stream_hash(&a), stream_hash(&b));
        let mut c = a.clone();
        c[1].2 = 3;
        assert_ne!(stream_hash(&a), stream_hash(&c));
        assert_eq!(stream_hash(&a), stream_hash(&a.clone()));
    }

    #[test]
    fn differential_smoke_two_schemes() {
        // A minimal two-scheme diff on one tuple; the full sweep lives in
        // tests/audit_diff.rs.
        let cfg = DiffConfig {
            commits: 3_000,
            warmup: 500,
            audit: AuditLevel::Basic,
            schemes: vec![Scheme::FaultFree, Scheme::Razor],
            oracle: false,
        };
        let tuples = [DiffTuple {
            workload: Workload::Bench(Benchmark::Gcc),
            vdd: Voltage::high_fault(),
            seed: 3,
        }];
        let report = run_differential(&Fleet::serial(), &tuples, &cfg);
        assert_eq!(report.runs.len(), 2);
        assert!(report.clean(), "mismatches: {:?}", report.mismatches);
        assert!(report.runs.iter().all(|r| r.commits == 3_500));
        assert!(report.runs.iter().all(|r| r.audit_checks > 0));
        assert!(report.runs.iter().all(|r| r.oracle_clean.is_none()));
    }

    #[test]
    fn differential_riscv_program_all_schemes_oracle_clean() {
        let mut schemes = Scheme::ALL.to_vec();
        schemes.push(Scheme::NoTolerance);
        let cfg = DiffConfig {
            commits: 1_000_000,
            warmup: 0,
            audit: AuditLevel::Basic,
            schemes,
            oracle: true,
        };
        let tuples = [DiffTuple {
            workload: Workload::builtin("hazard_raw").unwrap(),
            vdd: Voltage::high_fault(),
            seed: 9,
        }];
        let report = run_differential(&Fleet::serial(), &tuples, &cfg);
        assert_eq!(report.runs.len(), 7);
        assert!(
            report.mismatches.is_empty(),
            "all schemes must commit the same real-program stream: {:?}",
            report.mismatches
        );
        assert_eq!(report.total_violations(), 0);
        // Every run commits the whole program (same dynamic length).
        let commits = report.runs[0].commits;
        assert!(commits > 0);
        assert!(report.runs.iter().all(|r| r.commits == commits));
        assert!(report
            .runs
            .iter()
            .all(|r| r.oracle_clean.is_some()));
    }
}
