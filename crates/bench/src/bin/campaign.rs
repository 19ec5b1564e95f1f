//! Adversarial fault-injection campaign with golden-model oracle verdicts.
//!
//! Sweeps randomized stress tuples (fault bursts, correlated multi-stage
//! faults, sensor flapping, forced TEP false-positives/negatives) across
//! every scheme plus the broken `NoTolerance` control, each tuple running
//! as one crash-isolated co-simulation bundle under the architectural
//! oracle. Verdict rows land in `campaign.csv`; every finished bundle's
//! rows are also journalled immediately to `campaign.journal`, so a
//! killed campaign re-run with `--resume` produces a bit-identical CSV
//! while only executing the missing cells.
//!
//! ```text
//! campaign [--tuples N] [--riscv N] [--seed N] [--commits N] [--warmup N]
//!          [--watchdog N] [--no-control] [--smoke] [--resume]
//!          [--out DIR] [--workers N] [--procs N]
//! campaign --worker
//! ```
//!
//! `--procs N` runs the sweep on the multi-process fleet: this process
//! becomes the coordinator, spawning N copies of itself in `--worker`
//! mode and handing each idle one the next tuple in order. A `kill -9`'d
//! worker is detected, its tuple goes back to the front of the queue,
//! and the CSV is byte-identical to the in-process run at any process
//! count.
//! `--worker` is the protocol-speaking worker mode (spawned by the
//! coordinator, not for interactive use).
//!
//! A bundle shares one frontend and one fault-calibration probe across
//! its schemes; a lane whose watchdog trips stops in place while its
//! siblings finish, so every row equals a solo run of its cell.
//!
//! `--riscv N` appends N tuples running the built-in RISC-V compute
//! programs (matmul, quicksort, checksum) through the same scenario and
//! scheme sweep (default: 4; 2 under `--smoke`).
//!
//! Exit status is non-zero when any real scheme fails its oracle check,
//! any cell panics, or (with the control enabled) the oracle fails to
//! catch the control corrupting state.

use std::path::PathBuf;
use std::process::ExitCode;

use tv_bench::harness::Cli;
use tv_core::{CampaignConfig, ClusterConfig, Executor, Fleet};

struct Args {
    config: CampaignConfig,
    out: PathBuf,
    workers: Option<usize>,
    procs: Option<usize>,
    resume: bool,
}

fn parse_args() -> Args {
    let mut config = CampaignConfig::full();
    let mut out = PathBuf::from("bench_results");
    let mut workers = None;
    let mut procs = None;
    let mut resume = false;
    let mut cli = Cli::new(
        "campaign",
        "campaign [--tuples N] [--riscv N] [--seed N] [--commits N] [--warmup N] \
         [--watchdog N] [--no-control] [--smoke] [--resume] [--out DIR] \
         [--workers N] [--procs N] | campaign --worker",
    );
    while let Some(arg) = cli.next_arg() {
        match arg.as_str() {
            "--tuples" => config.tuples = cli.parse("--tuples"),
            "--riscv" => config.riscv_tuples = cli.parse("--riscv"),
            "--seed" => config.campaign_seed = cli.parse("--seed"),
            "--commits" => config.commits = cli.parse("--commits"),
            "--warmup" => config.warmup = cli.parse("--warmup"),
            "--watchdog" => config.watchdog_cycles = cli.parse("--watchdog"),
            "--no-control" => config.include_control = false,
            "--smoke" => {
                config = CampaignConfig {
                    include_control: config.include_control,
                    ..CampaignConfig::smoke()
                };
            }
            "--resume" => resume = true,
            "--out" => out = PathBuf::from(cli.value("--out")),
            "--workers" => workers = Some(cli.parse("--workers")),
            "--procs" => procs = Some(cli.parse("--procs")),
            other => cli.unknown(other),
        }
    }
    Args {
        config,
        out,
        workers,
        procs,
        resume,
    }
}

fn main() -> ExitCode {
    // Arm chaos injection first (TV_CHAOS=<seed>:<profile>): both the
    // coordinator and its workers honour it, workers with per-slot
    // derived schedules.
    let chaos = match tv_core::chaos::install_from_env() {
        Ok(plan) => plan,
        Err(e) => {
            eprintln!("campaign: {e}");
            return ExitCode::from(2);
        }
    };
    // Worker mode speaks the cluster protocol on stdin/stdout and must
    // be dispatched before anything can print to stdout.
    if std::env::args().nth(1).as_deref() == Some("--worker") {
        return tv_core::campaign_worker();
    }
    if let Some(plan) = &chaos {
        println!(
            "chaos: profile `{}` seed {} active (deterministic fault injection)",
            plan.profile().name,
            plan.seed(),
        );
    }
    let args = parse_args();
    let cfg = &args.config;
    let schemes = cfg.schemes();
    println!(
        "Fault-injection campaign — {} tuples (+{} RISC-V) x {} schemes \
         ({} commits + {} warmup per cell, seed {})",
        cfg.tuples,
        cfg.riscv_tuples,
        schemes.len(),
        cfg.commits,
        cfg.warmup,
        cfg.campaign_seed,
    );

    std::fs::create_dir_all(&args.out).expect("create output directory");
    let journal = args.out.join("campaign.journal");
    let csv = args.out.join("campaign.csv");

    let executor = match args.procs {
        Some(procs) => {
            println!("process fleet: {procs} workers");
            Executor::Procs(ClusterConfig::new(procs))
        }
        None => {
            let fleet = args.workers.map_or_else(Fleet::auto, Fleet::new);
            Executor::Threads(fleet.with_progress(true))
        }
    };
    let report = match executor.run_campaign(cfg, &journal, args.resume, |_, _| {}) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("campaign failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    // Atomic publish: readers (verify's `cmp`, the result store) must
    // never observe a torn campaign.csv.
    tv_core::write_atomic_str(&csv, &report.csv()).expect("write campaign.csv");
    println!("wrote {}", csv.display());

    let (clean, corrupt, watchdog, panicked) = report.verdict_counts();
    println!(
        "verdicts: {clean} clean, {corrupt} corrupt, {watchdog} watchdog, {panicked} panic \
         ({} reused from journal, {} executed)",
        report.reused, report.executed,
    );
    if report.quarantined > 0 {
        println!(
            "journal: {} corrupt row(s) quarantined and re-executed",
            report.quarantined,
        );
    }
    println!("fleet: {}", report.fleet.summary());

    let mut ok = true;
    let failures = report.failures();
    if !failures.is_empty() {
        ok = false;
        eprintln!("FAIL: {} real-scheme cells are not oracle-clean:", failures.len());
        for row in failures.iter().take(10) {
            eprintln!("  {row}");
        }
    }
    if report.panicked > 0 {
        ok = false;
        eprintln!("FAIL: {} cells panicked", report.panicked);
    }
    if cfg.include_control {
        let catches = report.control_catches();
        if catches == 0 {
            ok = false;
            eprintln!("FAIL: the oracle caught the NoTolerance control on 0 tuples");
        } else {
            println!("oracle teeth: control caught corrupting state on {catches} tuples");
        }
    }
    if ok {
        println!("campaign PASS");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
