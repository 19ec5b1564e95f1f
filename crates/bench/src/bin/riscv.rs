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
//! ```
//!
//! Each program's schemes run as one co-simulation bundle (shared
//! frontend, one fault-calibration probe). Every per-scheme column is
//! bit-identical to a solo run (the `tests/cosim_equiv.rs` contract)
//! except `kcommits_per_sec`: the six lanes share one interleaved
//! wall-clock window, so each row reports its lane's commits over the
//! *bundle* wall time.
//!
//! Writes one CSV row per `(workload, scheme)` cell to `riscv.csv` and
//! exits non-zero when any cell is not oracle-clean or its committed
//! register file / memory image differs from the executor's.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use tv_bench::harness::Cli;
use tv_bench::write_csv;
use tv_core::{build_cosim, Scheme, Workload};
use tv_timing::Voltage;
use tv_uarch::{Pipeline, SimStats};
use tv_workloads::riscv::RiscvMachine;

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    vdd: Voltage,
    max_commits: u64,
    out: PathBuf,
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
    };
    let mut cli = Cli::new(
        "riscv",
        "riscv [--workload NAME]... [--seed N] [--low-vdd] [--max-commits N] \
         [--out DIR]",
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

/// One finished `(workload, scheme)` cell: its CSV row, its progress
/// line, and the verdicts that grade it.
struct Cell {
    row: String,
    line: String,
    oracle_clean: bool,
    /// Registers and memory image both equal the executor's.
    end_state_match: bool,
}

/// Grades one `(workload, scheme)` cell and renders it.
#[allow(clippy::too_many_arguments)]
fn cell(
    workload: &Workload,
    scheme: Scheme,
    seed: u64,
    vdd: Voltage,
    stats: &SimStats,
    wall_s: f64,
    pipe: &Pipeline,
    ref_regs: &[u64],
    ref_mem: &[(u64, u64)],
) -> Cell {
    let report = pipe.oracle_report().expect("oracle enabled");
    let oracle_clean = report.clean();
    let regs_match = pipe.arch_regs().is_some_and(|r| r[..] == ref_regs[..]);
    let mem_match = pipe.memory_image().is_some_and(|m| m == ref_mem);
    let kcommits = stats.committed as f64 / wall_s / 1e3;
    let row = format!(
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
    );
    let line = format!(
        "  {:<22} {:>9}: {:>8} commits, {:>9} cycles, {} faults, {:>7.1} kcommits/s",
        workload.name(),
        scheme.name(),
        stats.committed,
        stats.cycles,
        stats.faults_total(),
        kcommits,
    );
    Cell {
        row,
        line,
        oracle_clean,
        end_state_match: regs_match && mem_match,
    }
}

/// Runs one workload's full scheme sweep as one co-sim bundle to graded
/// cells, one per scheme in `Scheme::ALL` order.
fn workload_cells(workload: &Workload, seed: u64, vdd: Voltage, max_commits: u64) -> Vec<Cell> {
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
            cell(
                workload,
                scheme,
                seed,
                vdd,
                &stats[i],
                wall_s,
                cosim.lane(i),
                &ref_regs,
                &ref_mem,
            )
        })
        .collect()
}

/// Prints a finished cell's progress line with its verdicts and returns
/// whether the cell passed (oracle clean + end state matches).
fn print_and_grade(cell: &Cell) -> bool {
    println!(
        "{}, oracle {}{}",
        cell.line,
        if cell.oracle_clean {
            "clean"
        } else {
            "CORRUPT"
        },
        if cell.end_state_match {
            ""
        } else {
            ", END-STATE MISMATCH"
        },
    );
    cell.oracle_clean && cell.end_state_match
}

fn main() -> ExitCode {
    let args = parse_args();
    println!(
        "RISC-V pipeline runner — {} programs x {} schemes, seed {}, {:.3} V faulty",
        args.workloads.len(),
        Scheme::ALL.len(),
        args.seed,
        args.vdd.volts(),
    );

    let mut rows = Vec::new();
    let mut failed = false;
    for workload in &args.workloads {
        for cell in workload_cells(workload, args.seed, args.vdd, args.max_commits) {
            failed |= !print_and_grade(&cell);
            rows.push(cell.row);
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
