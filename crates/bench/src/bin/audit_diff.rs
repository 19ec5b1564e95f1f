//! Scheme-equivalence differential audit: every tolerance scheme must
//! commit the identical architectural instruction stream, with the
//! cycle-level invariant auditor reporting zero violations. Each tuple's
//! schemes run as one co-simulation job (shared frontend, one timing lane
//! per scheme), every lane bit-identical to a solo run.
//!
//! ```text
//! --commits N       measured commits per run        (default 20 000)
//! --warmup N        warm-up commits per run         (default 5 000)
//! --seed N          base seed; runs use N and N+1   (default 42)
//! --out DIR         result directory                (default bench_results)
//! --workers N       fleet worker threads
//! --basic           Basic audit level (default: Full)
//! --fast            CI preset: 1 benchmark x 4 schemes x 2 seeds, 8k commits
//! --workload NAME   diff a single workload instead of the benchmark sweep;
//!                   NAME is a benchmark or riscv:<program|file.asm>, and
//!                   RISC-V workloads also run the golden-model oracle
//! ```
//!
//! Exits non-zero on any stream mismatch or invariant violation.

use std::path::PathBuf;

use tv_bench::harness::Cli;
use tv_bench::write_csv;
use tv_core::{run_differential, DiffConfig, DiffTuple, Fleet, Scheme, Workload};
use tv_timing::Voltage;
use tv_uarch::AuditLevel;
use tv_workloads::Benchmark;

struct Args {
    commits: u64,
    warmup: u64,
    seed: u64,
    out: PathBuf,
    workers: Option<usize>,
    audit: AuditLevel,
    fast: bool,
    workload: Option<Workload>,
}

fn parse_args() -> Args {
    let mut parsed = Args {
        commits: 20_000,
        warmup: 5_000,
        seed: 42,
        out: PathBuf::from("bench_results"),
        workers: None,
        audit: AuditLevel::Full,
        fast: false,
        workload: None,
    };
    let mut cli = Cli::new(
        "audit_diff",
        "audit_diff [--commits N] [--warmup N] [--seed N] [--out DIR] [--workers N] \
         [--basic] [--fast] [--workload NAME]",
    );
    while let Some(arg) = cli.next_arg() {
        match arg.as_str() {
            "--commits" => parsed.commits = cli.parse("--commits"),
            "--warmup" => parsed.warmup = cli.parse("--warmup"),
            "--seed" => parsed.seed = cli.parse("--seed"),
            "--out" => parsed.out = PathBuf::from(cli.value("--out")),
            "--workers" => parsed.workers = Some(cli.parse("--workers")),
            "--basic" => parsed.audit = AuditLevel::Basic,
            "--fast" => parsed.fast = true,
            "--workload" => {
                let name = cli.value("--workload");
                match Workload::parse(&name) {
                    Ok(w) => parsed.workload = Some(w),
                    Err(e) => cli.fail(&format!("--workload: {e}")),
                }
            }
            other => cli.unknown(other),
        }
    }
    parsed
}

fn main() -> std::process::ExitCode {
    let args = parse_args();
    let seeds = [args.seed, args.seed + 1];
    let oracle = args.workload.as_ref().is_some_and(Workload::is_riscv);
    let (tuples, schemes, commits, warmup) = if let Some(workload) = &args.workload {
        (
            DiffTuple::sweep_workloads(
                std::slice::from_ref(workload),
                &[Voltage::low_fault(), Voltage::high_fault()],
                &seeds,
            ),
            Scheme::ALL.to_vec(),
            args.commits,
            args.warmup,
        )
    } else if args.fast {
        (
            DiffTuple::sweep(&[Benchmark::Gcc], &[Voltage::high_fault()], &seeds),
            vec![Scheme::FaultFree, Scheme::Razor, Scheme::ErrorPadding, Scheme::Abs],
            args.commits.min(8_000),
            args.warmup.min(2_000),
        )
    } else {
        (
            DiffTuple::sweep(
                &[Benchmark::Gcc, Benchmark::Astar],
                &[Voltage::low_fault(), Voltage::high_fault()],
                &seeds,
            ),
            Scheme::ALL.to_vec(),
            args.commits,
            args.warmup,
        )
    };
    let cfg = DiffConfig {
        commits,
        warmup,
        audit: args.audit,
        schemes: schemes.clone(),
        oracle,
    };
    println!(
        "scheme-equivalence differential audit — {} tuples x {} schemes, \
         {} commits (+{} warm-up) per run, {:?} audit",
        tuples.len(),
        cfg.schemes.len(),
        cfg.commits,
        cfg.warmup,
        args.audit,
    );

    let fleet = match args.workers {
        Some(n) => Fleet::new(n),
        None => Fleet::auto(),
    }
    .with_progress(true);
    let report = run_differential(&fleet, &tuples, &cfg);

    let mut rows = Vec::new();
    for group in report.runs.chunks(cfg.schemes.len()) {
        let reference = group.first().expect("non-empty group").stream_hash;
        for run in group {
            rows.push(format!(
                "{},{:.3},{},{},{},{},{:016x},{},{},{},{}",
                run.workload,
                run.vdd.volts(),
                run.scheme.name(),
                run.seed,
                run.commits,
                run.cycles,
                run.stream_hash,
                run.audit_cycles,
                run.audit_checks,
                run.audit_violations,
                run.stream_hash == reference,
            ));
        }
    }
    std::fs::create_dir_all(&args.out).expect("create output directory");
    write_csv(
        &args.out.join("audit_diff.csv"),
        "bench,vdd,scheme,seed,commits,cycles,stream_hash,audit_cycles,audit_checks,audit_violations,stream_match",
        &rows,
    );

    let checks: u64 = report.runs.iter().map(|r| r.audit_checks).sum();
    println!(
        "{} runs, {} invariant checks, {} violations, {} stream mismatches",
        report.runs.len(),
        checks,
        report.total_violations(),
        report.mismatches.len(),
    );
    for m in &report.mismatches {
        eprintln!("STREAM MISMATCH: {m}");
    }
    for run in report.runs.iter().filter(|r| r.audit_violations > 0) {
        eprintln!(
            "VIOLATIONS: {}/{}@{:.3}V seed {}: {} ({})",
            run.workload,
            run.scheme.name(),
            run.vdd.volts(),
            run.seed,
            run.audit_violations,
            run.first_violation.as_deref().unwrap_or("?"),
        );
    }
    let corrupted: Vec<_> = report
        .runs
        .iter()
        .filter(|r| r.oracle_clean == Some(false))
        .collect();
    for run in &corrupted {
        eprintln!(
            "ORACLE CORRUPTION: {}/{}@{:.3}V seed {}",
            run.workload,
            run.scheme.name(),
            run.vdd.volts(),
            run.seed,
        );
    }
    if !report.clean() || !corrupted.is_empty() {
        return std::process::ExitCode::FAILURE;
    }
    println!("all schemes commit identical architectural streams; all invariants hold");
    std::process::ExitCode::SUCCESS
}
