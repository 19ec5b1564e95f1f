//! Chaos acceptance bench: the campaign must survive every built-in
//! fault profile with a byte-identical CSV.
//!
//! ```text
//! chaos [--seed N]       chaos schedule seed          (default 42)
//!       [--out DIR]      output root                  (default bench_results)
//!       [--procs N]      cluster workers for process-fault profiles
//!                                                     (default 2)
//!       [--profiles A,B] comma-separated profile list (default
//!                        journal,cluster,light,heavy)
//!       [--attempts N]   resume-retry bound per leg   (default 30)
//! chaos --worker
//! ```
//!
//! The bin first runs a fault-free reference campaign (the CI smoke
//! configuration) and keeps its CSV as ground truth. Then, for each
//! requested profile in escalating order, it:
//!
//! 1. installs a deterministic [`ChaosPlan`] and runs the same campaign
//!    from scratch — on the multi-process cluster when the profile
//!    injects worker faults, in-process otherwise — retrying with
//!    `--resume` semantics (bounded by `--attempts`) whenever an
//!    injected fault kills the run;
//! 2. damages the finished journal at rest
//!    ([`corrupt_file`](tv_core::chaos::corrupt_file): one seeded
//!    bit-flip or truncation, on top of whatever torn/flipped appends
//!    the chaos writer already left) and resumes once more — the
//!    self-healing path must quarantine the damage and re-execute.
//!
//! Both legs must produce a CSV byte-identical to the reference; any
//! divergence, or a leg that exhausts its retry bound, fails the bench.
//! Results land in `<out>/chaos.csv` (one row per profile: attempts,
//! per-site injection counters, rows quarantined while healing, and the
//! identity verdicts), and each profile's journal plus any
//! `.quarantine` sidecar survive under `<out>/chaos/<profile>/` as
//! artifacts.
//!
//! The chaos schedule is a pure function of `(seed, profile)`, and the
//! campaign journals bundles in tuple order whatever order they finish
//! in, so the journal faults land on the same bytes on every run — a
//! failing run is replayed exactly by rerunning with the same flags.
//!
//! Counter scope: the per-site columns in `chaos.csv` count faults the
//! *coordinator's* plan injected. Worker-site faults fire inside the
//! spawned worker processes under their own derived plans (see
//! [`ChaosPlan::worker_env_value`](tv_core::chaos::ChaosPlan::worker_env_value))
//! and surface as the cluster's `worker N died` / respawn log lines
//! rather than in these counters.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use tv_bench::harness::Cli;
use tv_core::chaos::{self, ChaosPlan, Site};
use tv_core::{CampaignConfig, ClusterConfig, Executor, Fleet};

struct Args {
    seed: u64,
    out: PathBuf,
    procs: usize,
    profiles: Vec<String>,
    attempts: u32,
}

fn parse_args() -> Args {
    let mut args = Args {
        seed: 42,
        out: PathBuf::from("bench_results"),
        procs: 2,
        profiles: vec!["journal", "cluster", "light", "heavy"]
            .into_iter()
            .map(String::from)
            .collect(),
        attempts: 30,
    };
    let mut cli = Cli::new(
        "chaos",
        "chaos [--seed N] [--out DIR] [--procs N] [--profiles A,B,..] [--attempts N] \
         | chaos --worker",
    );
    while let Some(arg) = cli.next_arg() {
        match arg.as_str() {
            "--seed" => args.seed = cli.parse("--seed"),
            "--out" => args.out = PathBuf::from(cli.value("--out")),
            "--procs" => args.procs = cli.parse("--procs"),
            "--profiles" => {
                args.profiles = cli
                    .value("--profiles")
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty())
                    .collect();
            }
            "--attempts" => args.attempts = cli.parse("--attempts"),
            other => cli.unknown(other),
        }
    }
    args
}

/// Outcome of one bounded resume-retry leg.
struct LegOutcome {
    /// Runs needed before one completed (1 = no injected failure).
    attempts: u32,
    /// Corrupt journal rows quarantined-and-re-executed across the runs.
    quarantined: usize,
    /// The completed run's CSV document.
    csv: String,
}

/// Runs the campaign to completion on `executor`, resuming from the
/// journal after every injected failure, at most `max_attempts` times.
fn run_leg(
    config: &CampaignConfig,
    journal: &Path,
    executor: &Executor,
    max_attempts: u32,
) -> Result<LegOutcome, String> {
    let mut quarantined = 0;
    let mut last_err = String::new();
    for attempt in 1..=max_attempts {
        let resume = journal.exists();
        match executor.run_campaign(config, journal, resume, |_, _| {}) {
            Ok(report) => {
                quarantined += report.quarantined;
                return Ok(LegOutcome {
                    attempts: attempt,
                    quarantined,
                    csv: report.csv(),
                });
            }
            Err(e) => {
                println!("    attempt {attempt} died (resuming): {e}");
                last_err = e;
            }
        }
    }
    Err(format!("no attempt survived after {max_attempts} tries (last: {last_err})"))
}

/// One profile's row in `chaos.csv`.
struct ProfileResult {
    profile: String,
    attempts: u32,
    heal_quarantined: usize,
    identical: bool,
    heal_identical: bool,
    injected: Vec<u64>,
}

fn main() -> ExitCode {
    // Cluster workers spawned by the process-fault legs; they pick their
    // per-slot chaos schedule up from the env the coordinator set.
    if std::env::args().nth(1).as_deref() == Some("--worker") {
        if let Err(e) = chaos::install_from_env() {
            eprintln!("chaos worker: {e}");
            return ExitCode::from(2);
        }
        return tv_core::campaign_worker();
    }
    let args = parse_args();
    let config = CampaignConfig::smoke();
    let root = args.out.join("chaos");
    std::fs::create_dir_all(&root).expect("create chaos output directory");

    println!(
        "chaos bench — seed {}, profiles [{}], {} tuples (+{} RISC-V)",
        args.seed,
        args.profiles.join(", "),
        config.tuples,
        config.riscv_tuples,
    );

    // Ground truth: the fault-free CSV every chaos leg must reproduce
    // byte-for-byte.
    let ref_dir = root.join("reference");
    let _ = std::fs::remove_dir_all(&ref_dir);
    std::fs::create_dir_all(&ref_dir).expect("create reference directory");
    let threads = Executor::Threads(Fleet::new(2));
    let reference = run_leg(&config, &ref_dir.join("campaign.journal"), &threads, 1)
        .expect("fault-free reference run")
        .csv;
    println!("reference: {} bytes of CSV", reference.len());

    let mut results: Vec<ProfileResult> = Vec::new();
    let mut ok = true;
    for name in &args.profiles {
        let plan = match ChaosPlan::new(args.seed, name) {
            Ok(p) => chaos::install(p),
            Err(e) => {
                eprintln!("chaos: {e}");
                return ExitCode::from(2);
            }
        };
        let worker_faults = [Site::WorkerExit, Site::WorkerStall, Site::WorkerGarbage]
            .iter()
            .any(|&s| plan.profile().rate(s) > 0.0);
        // Worker-site faults need the process fleet: in-process threads
        // cannot be killed.
        let executor = if worker_faults {
            Executor::Procs(ClusterConfig::new(args.procs))
        } else {
            threads.clone()
        };
        println!(
            "profile `{name}`: {} run, rates [{}]",
            if worker_faults {
                format!("{}-process cluster", args.procs)
            } else {
                "in-process".to_string()
            },
            plan.counters().replace("=0", "=·"),
        );

        let dir = root.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create profile directory");
        let journal = dir.join("campaign.journal");

        // Leg 1: run from scratch under live injection.
        let leg1 = run_leg(&config, &journal, &executor, args.attempts);
        let (attempts, identical) = match &leg1 {
            Ok(out) => {
                let same = out.csv == reference;
                println!(
                    "  leg 1: completed in {} attempt(s), {} row(s) quarantined, CSV {}",
                    out.attempts,
                    out.quarantined,
                    if same { "identical" } else { "DIVERGED" },
                );
                (out.attempts, same)
            }
            Err(e) => {
                println!("  leg 1: FAILED — {e}");
                (args.attempts, false)
            }
        };

        // Leg 2: damage the finished journal at rest, then self-heal.
        // The journal already carries whatever torn/flipped appends the
        // chaos writer injected; corrupt_file adds one more seeded wound.
        let (heal_quarantined, heal_identical) = if leg1.is_ok() && journal.exists() {
            let what = chaos::corrupt_file(&journal, args.seed ^ plan.fingerprint())
                .expect("corrupt journal at rest");
            println!("  leg 2: damaged journal ({what}); resuming to heal");
            match run_leg(&config, &journal, &executor, args.attempts) {
                Ok(out) => {
                    let same = out.csv == reference;
                    println!(
                        "  leg 2: healed in {} attempt(s), {} row(s) quarantined, CSV {}",
                        out.attempts,
                        out.quarantined,
                        if same { "identical" } else { "DIVERGED" },
                    );
                    (out.quarantined, same)
                }
                Err(e) => {
                    println!("  leg 2: FAILED — {e}");
                    (0, false)
                }
            }
        } else {
            (0, false)
        };

        println!("  injected: {}", plan.counters());
        ok &= identical && heal_identical;
        results.push(ProfileResult {
            profile: name.clone(),
            attempts,
            heal_quarantined,
            identical,
            heal_identical,
            injected: Site::ALL.iter().map(|&s| plan.injected(s)).collect(),
        });
        chaos::uninstall();
    }

    // chaos.csv is written with injection off — the report about chaos
    // must not itself be a chaos victim.
    let mut csv = String::from("profile,seed,attempts,heal_quarantined,identical,heal_identical");
    for site in Site::ALL {
        csv.push(',');
        csv.push_str(site.name());
    }
    csv.push('\n');
    for r in &results {
        csv.push_str(&format!(
            "{},{},{},{},{},{}",
            r.profile, args.seed, r.attempts, r.heal_quarantined, r.identical, r.heal_identical,
        ));
        for n in &r.injected {
            csv.push_str(&format!(",{n}"));
        }
        csv.push('\n');
    }
    let csv_path = args.out.join("chaos.csv");
    tv_core::write_atomic_str(&csv_path, &csv).expect("write chaos.csv");
    println!("wrote {}", csv_path.display());

    if ok {
        println!("chaos PASS — every profile reproduced the reference CSV byte-for-byte");
        ExitCode::SUCCESS
    } else {
        eprintln!("chaos FAIL — see legs above");
        ExitCode::FAILURE
    }
}
