//! Real-program runner: executes RISC-V workloads through the full
//! pipeline under every scheme, with the golden-model oracle on and the
//! committed architectural end state differenced against the standalone
//! in-order executor.
//!
//! ```text
//! riscv [--workload NAME]...   riscv:<builtin|file.asm> or bare builtin
//!                              name (default: every built-in program)
//!       [--seed N]             workload/die seed          (default 42)
//!       [--low-vdd]            0.97 V instead of 1.04 V for faulty runs
//!       [--max-commits N]      per-run commit cap         (default 2 000 000)
//!       [--out DIR]            result directory           (default bench_results)
//!       [--procs N]            run on the multi-process sharded fleet
//! riscv --worker               cluster protocol worker (spawned by --procs)
//! ```
//!
//! Each program's schemes run as one co-simulation bundle (shared
//! frontend, one fault-calibration probe). Every per-scheme column is
//! bit-identical to a solo run (the `tests/cosim_equiv.rs` contract)
//! except `kcommits_per_sec`: the six lanes share one interleaved
//! wall-clock window, so each row reports its lane's commits over the
//! *bundle* wall time.
//!
//! Under `--procs N` each program's scheme sweep is one job on the
//! process fleet; every CSV column except the wall-clock-derived
//! `kcommits_per_sec` is bit-identical to the serial run.
//!
//! Writes one CSV row per `(workload, scheme)` cell to `riscv.csv` and
//! exits non-zero when any cell is not oracle-clean or its committed
//! register file / memory image differs from the executor's.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use tv_bench::harness::Cli;
use tv_bench::write_csv;
use tv_core::{build_cosim, run_groups, worker_loop, ClusterConfig, Scheme, Workload};
use tv_timing::Voltage;
use tv_uarch::{Pipeline, SimStats};
use tv_workloads::riscv::RiscvMachine;

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    vdd: Voltage,
    max_commits: u64,
    out: PathBuf,
    procs: Option<usize>,
}

fn parse_workload(name: &str) -> Result<Workload, String> {
    // Accept both `riscv:matmul` and bare `matmul`.
    let workload = Workload::parse(name).or_else(|e| Workload::builtin(name).ok_or(e))?;
    if !workload.is_riscv() {
        return Err(format!(
            "{name}: this runner takes RISC-V programs; \
             synthetic benchmarks go through the figure harnesses"
        ));
    }
    Ok(workload)
}

fn parse_args() -> Args {
    let mut parsed = Args {
        workloads: Vec::new(),
        seed: 42,
        vdd: Voltage::high_fault(),
        max_commits: 2_000_000,
        out: PathBuf::from("bench_results"),
        procs: None,
    };
    let mut cli = Cli::new(
        "riscv",
        "riscv [--workload NAME]... [--seed N] [--low-vdd] [--max-commits N] \
         [--out DIR] [--procs N] | riscv --worker",
    );
    while let Some(arg) = cli.next_arg() {
        match arg.as_str() {
            "--workload" => {
                let name = cli.value("--workload");
                match parse_workload(&name) {
                    Ok(w) => parsed.workloads.push(w),
                    Err(e) => cli.fail(&format!("--workload {e}")),
                }
            }
            "--seed" => parsed.seed = cli.parse("--seed"),
            "--low-vdd" => parsed.vdd = Voltage::low_fault(),
            "--max-commits" => parsed.max_commits = cli.parse("--max-commits"),
            "--out" => parsed.out = PathBuf::from(cli.value("--out")),
            "--procs" => parsed.procs = Some(cli.parse("--procs")),
            other => cli.unknown(other),
        }
    }
    if parsed.workloads.is_empty() {
        parsed.workloads = Workload::builtin_names()
            .into_iter()
            .map(|n| Workload::builtin(n).expect("built-in program"))
            .collect();
    }
    parsed
}

/// Renders one `(workload, scheme)` cell as its CSV row — pure, no
/// printing, so it can run inside a cluster worker whose stdout is the
/// protocol channel.
#[allow(clippy::too_many_arguments)]
fn cell_row(
    workload: &Workload,
    scheme: Scheme,
    seed: u64,
    vdd: Voltage,
    stats: &SimStats,
    wall_s: f64,
    pipe: &Pipeline,
    ref_regs: &[u64],
    ref_mem: &[(u64, u64)],
) -> String {
    let report = pipe.oracle_report().expect("oracle enabled");
    let oracle_clean = report.clean();
    let regs_match = pipe.arch_regs().is_some_and(|r| r[..] == ref_regs[..]);
    let mem_match = pipe.memory_image().is_some_and(|m| m == ref_mem);
    let kcommits = stats.committed as f64 / wall_s / 1e3;
    format!(
        "{},{},{:.3},{},{},{},{},{},{},{},{},{:.1}",
        workload.name(),
        scheme.name(),
        vdd.volts(),
        seed,
        stats.committed,
        stats.cycles,
        stats.faults_total(),
        stats.replays,
        oracle_clean,
        regs_match,
        mem_match,
        kcommits,
    )
}

/// Runs one workload's full scheme sweep as one co-sim bundle to CSV
/// rows, one per scheme in `Scheme::ALL` order.
fn workload_rows(workload: &Workload, seed: u64, vdd: Voltage, max_commits: u64) -> Vec<String> {
    // Reference end state from the standalone in-order executor.
    let Workload::Riscv { program, .. } = workload else {
        unreachable!("callers admit only RISC-V workloads");
    };
    let mut exec = RiscvMachine::new(program.clone());
    exec.run_to_halt(max_commits);
    let ref_regs: Vec<u64> = exec.regs().iter().map(|&r| u64::from(r)).collect();
    let ref_mem: Vec<(u64, u64)> = exec
        .mem_image()
        .into_iter()
        .map(|(a, w)| (u64::from(a), u64::from(w)))
        .collect();

    // All six schemes as one bundle: the frontend and the
    // fault-calibration probe are paid once; per-scheme state is
    // bit-identical to a solo run by the co-sim contract.
    let mut cosim = build_cosim(workload, seed, vdd, &Scheme::ALL, |_, b| b.oracle(true));
    let t0 = Instant::now();
    let stats = cosim.run_to_halt(max_commits);
    let wall_s = t0.elapsed().as_secs_f64().max(1e-9);
    Scheme::ALL
        .into_iter()
        .enumerate()
        .map(|(i, scheme)| {
            cell_row(
                workload, scheme, seed, vdd, &stats[i], wall_s, cosim.lane(i), &ref_regs, &ref_mem,
            )
        })
        .collect()
}

/// Prints the human-readable line for a finished cell row and returns
/// whether the cell passed (oracle clean + end state matches).
fn print_and_grade(row: &str) -> bool {
    let f: Vec<&str> = row.split(',').collect();
    let (oracle_clean, regs_match, mem_match) =
        (f[8] == "true", f[9] == "true", f[10] == "true");
    println!(
        "  {:<22} {:>9}: {:>8} commits, {:>9} cycles, {} faults, \
         {:>7} kcommits/s, oracle {}{}",
        f[0],
        f[1],
        f[4],
        f[5],
        f[6],
        f[11],
        if oracle_clean { "clean" } else { "CORRUPT" },
        if regs_match && mem_match {
            ""
        } else {
            ", END-STATE MISMATCH"
        },
    );
    oracle_clean && regs_match && mem_match
}

/// Serializes the sweep as a one-line cluster worker context.
fn riscv_ctx(args: &Args) -> Result<String, String> {
    let mut names = Vec::with_capacity(args.workloads.len());
    for w in &args.workloads {
        let name = w.name();
        if name.contains(|c: char| c.is_whitespace() || c == ',') {
            return Err(format!(
                "workload name `{name}` cannot cross the cluster protocol \
                 (contains whitespace or `,`)"
            ));
        }
        names.push(name);
    }
    Ok(format!(
        "riscv seed={} vdd={} max={} workloads={}",
        args.seed,
        args.vdd.volts(),
        args.max_commits,
        names.join(","),
    ))
}

/// Parses a [`riscv_ctx`] line back into worker-side parameters.
fn parse_riscv_ctx(ctx: &str) -> Result<Args, String> {
    let ctx = ctx
        .strip_prefix("riscv ")
        .ok_or_else(|| format!("not a riscv ctx: {ctx}"))?;
    let mut args = Args {
        workloads: Vec::new(),
        seed: 42,
        vdd: Voltage::high_fault(),
        max_commits: 2_000_000,
        out: PathBuf::new(),
        procs: None,
    };
    for word in ctx.split_whitespace() {
        let (key, value) = word
            .split_once('=')
            .ok_or_else(|| format!("malformed ctx word: {word}"))?;
        match key {
            "seed" => args.seed = value.parse().map_err(|_| format!("bad seed: {value}"))?,
            "vdd" => {
                args.vdd = Voltage::new(
                    value.parse::<f64>().map_err(|_| format!("bad vdd: {value}"))?,
                )
            }
            "max" => {
                args.max_commits = value.parse().map_err(|_| format!("bad max: {value}"))?
            }
            "workloads" => {
                args.workloads = value
                    .split(',')
                    .filter(|n| !n.is_empty())
                    .map(parse_workload)
                    .collect::<Result<_, _>>()?;
            }
            other => return Err(format!("unknown ctx field: {other}")),
        }
    }
    if args.workloads.is_empty() {
        return Err("riscv ctx carries no workloads".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    // Worker mode speaks the cluster protocol on stdin/stdout and must
    // be dispatched before anything can print to stdout.
    if std::env::args().nth(1).as_deref() == Some("--worker") {
        return worker_loop(parse_riscv_ctx, |args: &Args, spec| {
            let wi: usize = spec
                .parse()
                .map_err(|_| format!("bad workload index: {spec}"))?;
            let workload = args
                .workloads
                .get(wi)
                .ok_or_else(|| format!("workload index out of range: {wi}"))?;
            Ok(workload_rows(workload, args.seed, args.vdd, args.max_commits))
        });
    }

    let args = parse_args();
    println!(
        "RISC-V pipeline runner — {} programs x {} schemes, seed {}, {:.3} V faulty",
        args.workloads.len(),
        Scheme::ALL.len(),
        args.seed,
        args.vdd.volts(),
    );

    // One job per program: the full scheme sweep, reassembled in
    // submission order so the CSV matches the serial run row-for-row.
    let mut groups: Vec<Option<Vec<String>>> = vec![None; args.workloads.len()];
    if let Some(procs) = args.procs {
        println!("process fleet: {procs} workers");
        let ctx = match riscv_ctx(&args) {
            Ok(ctx) => ctx,
            Err(e) => {
                eprintln!("riscv --procs: {e}");
                return ExitCode::FAILURE;
            }
        };
        let specs: Vec<String> = (0..args.workloads.len()).map(|i| i.to_string()).collect();
        let run = run_groups(&ClusterConfig::new(procs), &ctx, &specs, |gid, rows| {
            if rows.len() != Scheme::ALL.len() {
                return Err(format!(
                    "workload {gid} returned {} rows for {} schemes",
                    rows.len(),
                    Scheme::ALL.len(),
                ));
            }
            groups[gid] = Some(rows.to_vec());
            Ok(())
        });
        if let Err(e) = run {
            eprintln!("riscv cluster run failed: {e}");
            return ExitCode::FAILURE;
        }
    } else {
        for (i, workload) in args.workloads.iter().enumerate() {
            groups[i] = Some(workload_rows(workload, args.seed, args.vdd, args.max_commits));
        }
    }

    let mut rows = Vec::new();
    let mut failed = false;
    for group in groups {
        for row in group.expect("every workload produced rows") {
            failed |= !print_and_grade(&row);
            rows.push(row);
        }
    }

    std::fs::create_dir_all(&args.out).expect("create output directory");
    write_csv(
        &args.out.join("riscv.csv"),
        "workload,scheme,vdd,seed,commits,cycles,faults,replays,oracle_clean,regs_match,mem_match,kcommits_per_sec",
        &rows,
    );

    if failed {
        eprintln!("FAIL: at least one cell corrupted or diverged from the executor");
        return ExitCode::FAILURE;
    }
    println!("all programs oracle-clean with executor-identical end states");
    ExitCode::SUCCESS
}
