//! Scheme-equivalence differential audit (the tv-audit acceptance test).
//!
//! The paper's schemes differ only in *timing*, never in *work*: Razor
//! replays, Error Padding stalls globally, and violation-aware scheduling
//! (ABS/FFS/CDS) absorbs faults locally — but all of them must commit the
//! identical architectural instruction stream that the fault-free machine
//! commits. This test sweeps 8 `(benchmark, voltage, seed)` tuples under
//! all six schemes with the full cycle-level invariant auditor enabled and
//! asserts (1) bit-identical commit streams within each tuple and (2) zero
//! invariant violations anywhere.

use tv_sched::audit::AuditLevel;
use tv_sched::core::{run_differential, DiffConfig, DiffTuple, Fleet, Scheme, Workload};
use tv_sched::timing::Voltage;
use tv_sched::workloads::Benchmark;

#[test]
fn all_schemes_commit_identical_streams_under_full_audit() {
    let tuples = DiffTuple::sweep(
        &[Benchmark::Gcc, Benchmark::Astar],
        &[Voltage::low_fault(), Voltage::high_fault()],
        &[11, 12],
    );
    assert_eq!(tuples.len(), 8, "acceptance requires >= 8 tuples");

    let cfg = DiffConfig {
        commits: 4_000,
        warmup: 1_000,
        audit: AuditLevel::Full,
        schemes: Scheme::ALL.to_vec(),
        oracle: false,
    };
    let report = run_differential(&Fleet::auto(), &tuples, &cfg);

    assert_eq!(report.runs.len(), 8 * Scheme::ALL.len());
    assert!(
        report.mismatches.is_empty(),
        "architectural streams diverged:\n{}",
        report.mismatches.join("\n")
    );
    assert_eq!(
        report.total_violations(),
        0,
        "invariant violations: {:?}",
        report
            .runs
            .iter()
            .filter_map(|r| r.first_violation.as_deref())
            .collect::<Vec<_>>()
    );
    // Every run was actually audited and actually committed the workload.
    for run in &report.runs {
        assert_eq!(run.commits, 5_000, "{:?}", run.scheme);
        assert!(run.audit_cycles > 0 && run.audit_checks > run.audit_cycles);
    }
    assert!(report.clean());
}

/// A real RISC-V program through the same differential harness: every
/// scheme (including the broken `NoTolerance` control) commits the
/// bit-identical architectural stream under the full auditor, the real
/// schemes finish oracle-clean, and the control is *caught* corrupting
/// state — pinning that the oracle has teeth on real programs too.
#[test]
fn riscv_program_streams_match_and_control_is_caught() {
    let mut schemes = Scheme::ALL.to_vec();
    schemes.push(Scheme::NoTolerance);
    let cfg = DiffConfig {
        commits: 1_000_000,
        warmup: 0,
        audit: AuditLevel::Full,
        schemes: schemes.clone(),
        oracle: true,
    };
    let tuples = [DiffTuple {
        workload: Workload::builtin("checksum").expect("built-in program"),
        vdd: Voltage::high_fault(),
        seed: 7,
    }];
    let report = run_differential(&Fleet::auto(), &tuples, &cfg);

    assert_eq!(report.runs.len(), schemes.len());
    assert!(
        report.mismatches.is_empty(),
        "schemes must commit the identical program stream:\n{}",
        report.mismatches.join("\n")
    );
    assert_eq!(report.total_violations(), 0);
    let commits = report.runs[0].commits;
    assert!(commits > 0, "the program must run to its ecall halt");
    for run in &report.runs {
        assert_eq!(run.commits, commits, "{:?} truncated the program", run.scheme);
        assert!(run.audit_cycles > 0 && run.audit_checks > 0);
        if run.scheme == Scheme::NoTolerance {
            assert_eq!(
                run.oracle_clean,
                Some(false),
                "the oracle must catch the untolerated control corrupting state"
            );
        } else {
            assert_eq!(
                run.oracle_clean,
                Some(true),
                "{:?} must retire oracle-clean",
                run.scheme
            );
        }
    }
}

/// Same stream, different tuple => different hash (the oracle is not
/// trivially constant).
#[test]
fn differential_hashes_distinguish_tuples() {
    let cfg = DiffConfig {
        commits: 1_000,
        warmup: 0,
        audit: AuditLevel::Basic,
        schemes: vec![Scheme::FaultFree],
        oracle: false,
    };
    let gcc = Workload::Bench(Benchmark::Gcc);
    let astar = Workload::Bench(Benchmark::Astar);
    let tuples = [
        DiffTuple { workload: gcc.clone(), vdd: Voltage::high_fault(), seed: 1 },
        DiffTuple { workload: gcc, vdd: Voltage::high_fault(), seed: 2 },
        DiffTuple { workload: astar, vdd: Voltage::high_fault(), seed: 1 },
    ];
    let report = run_differential(&Fleet::serial(), &tuples, &cfg);
    assert!(report.clean());
    let hashes: Vec<u64> = report.runs.iter().map(|r| r.stream_hash).collect();
    assert_ne!(hashes[0], hashes[1], "seed must change the stream");
    assert_ne!(hashes[0], hashes[2], "benchmark must change the stream");
}
