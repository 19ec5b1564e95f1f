//! `paper_regen`: the Table 1 grid — every benchmark at both faulty
//! voltages under all six schemes, 144 solo jobs — through
//! `run_evaluations` on a one-worker fleet, one evaluation per call. Table 1
//! and Figs. 4/5/8/9 are all derived from these jobs.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use tv_bench::figure_csv_rows;
use tv_core::{
    average_row, fnv1a, run_evaluations, Evaluation, Experiment, FigureRow, Fleet, RunConfig,
    Scheme, SchemeResult, Table1Row,
};
use tv_energy::RunEnergy;
use tv_serve::json::{Json, Obj};
use tv_timing::Voltage;
use tv_workloads::Benchmark;

use crate::metrics::{num, num_array, nums, str_array, strs, Outcome};
use crate::speed;
use crate::stats::{median, median_of, tail};
use crate::trace::Recorder;
use crate::{
    another_round, finish_trace, input_seconds, run_program, Ctx, DEFAULT_SEED, FULL_SECONDS,
};

/// Measured commits per job and second of input length: 45k/15k from
/// [`FULL_SECONDS`] on, 4.4 s a round on one quiet core.
const COMMITS_PER_SECOND: f64 = 2_250.0;
/// Warm-up commits per job and second of input length.
const WARMUP_PER_SECOND: f64 = 750.0;

/// Table 1 and Figs. 4/5/8/9 as derived at the default seed and full-size
/// inputs, recorded from the seed commit.
const REFERENCE: &str = include_str!("../reference/paper_regen.csv");

/// The grid's measurement parameters for a run of `seconds`.
fn run_config(seed: u64, seconds: f64) -> RunConfig {
    let seconds = input_seconds(seconds);
    RunConfig {
        commits: ((COMMITS_PER_SECOND * seconds).round() as u64).max(1),
        warmup: (WARMUP_PER_SECOND * seconds).round() as u64,
        seed,
        ..RunConfig::quick()
    }
}

/// The Table 1 grid, bench-major with 0.97 V before 1.04 V.
fn grid(config: RunConfig) -> Vec<(Experiment, Vec<Scheme>)> {
    Benchmark::ALL
        .into_iter()
        .flat_map(|bench| {
            [Voltage::high_fault(), Voltage::low_fault()]
                .map(|vdd| (Experiment::new(bench, vdd, config), Scheme::ALL.to_vec()))
        })
        .collect()
}

/// Bit-exact fingerprint of one job's result (f64 Debug round-trips).
fn digest(result: &SchemeResult) -> String {
    format!("{:016x}", fnv1a(format!("{result:?}").as_bytes()))
}

/// Table 1 and Figs. 4/5/8/9 rows, prefixed by their artifact, in the
/// harness binaries' CSV formats.
fn paper_rows(evals: &[Evaluation]) -> Vec<String> {
    let mut rows = Vec::new();
    for pair in evals.chunks(2) {
        let r = Table1Row::from_evaluations(&pair[0], &pair[1]);
        rows.push(format!(
            "table1,{},{:.3},{:.2},{:.2},{:.2},{:.2},{:.2},{:.2},{:.2},{:.2},{:.2},{:.2}",
            r.bench,
            r.fault_free_ipc,
            r.fr_097,
            r.razor_097.perf_pct,
            r.razor_097.ed_pct,
            r.ep_097.perf_pct,
            r.ep_097.ed_pct,
            r.fr_104,
            r.razor_104.perf_pct,
            r.razor_104.ed_pct,
            r.ep_104.perf_pct,
            r.ep_104.ed_pct,
        ));
    }
    type Metric = fn(&Evaluation) -> FigureRow;
    // (figure, index of its voltage in each bench's pair, row metric)
    let figures: [(&str, usize, Metric); 4] = [
        ("fig4", 1, FigureRow::perf),
        ("fig5", 1, FigureRow::ed),
        ("fig8", 0, FigureRow::perf),
        ("fig9", 0, FigureRow::ed),
    ];
    for (fig, voltage, metric) in figures {
        let mut fig_rows: Vec<FigureRow> =
            evals.iter().skip(voltage).step_by(2).map(metric).collect();
        fig_rows.push(average_row(&fig_rows));
        rows.extend(
            figure_csv_rows(&fig_rows)
                .into_iter()
                .map(|l| format!("{fig},{l}")),
        );
    }
    rows
}

/// Program side: builds the grid, waits for `go`, then runs the grid once
/// per round until `seconds` are spent, printing one JSON line per round
/// with per-job walls, speed-reference readings, commit counts, result
/// digests and the derived paper rows.
///
/// A round passes the grid to `run_evaluations` one evaluation (a bench at
/// one voltage, six jobs) at a time, so that the speed reference can be
/// read between them: before the first, and after each.
pub fn program(seed: u64, seconds: f64) -> ExitCode {
    let specs = grid(run_config(seed, seconds));
    if !crate::await_go() {
        return ExitCode::SUCCESS;
    }
    let fleet = Fleet::new(1);
    let start = Instant::now();
    let mut done = 0;
    while another_round(start, done, seconds) {
        done += 1;
        let mut refs = vec![speed::reference_ns()];
        let mut evals = Vec::with_capacity(specs.len());
        let mut walls = Vec::new();
        let (mut workers, mut elapsed, mut serial) = (0, Duration::ZERO, Duration::ZERO);
        for spec in &specs {
            let (eval, stats) = run_evaluations(&fleet, std::slice::from_ref(spec));
            refs.push(speed::reference_ns());
            walls.extend(stats.timings.iter().map(|t| t.wall.as_nanos() as f64));
            workers = workers.max(stats.workers);
            elapsed += stats.elapsed;
            serial += stats.serial_equivalent;
            evals.extend(eval);
        }
        let results: Vec<&SchemeResult> = evals.iter().flat_map(Evaluation::results).collect();
        let committed: Vec<f64> = results.iter().map(|r| r.stats.committed as f64).collect();
        let digests: Vec<String> = results.iter().map(|r| digest(r)).collect();
        let mut o = Obj::new();
        o.u64("workers", workers as u64)
            .u64("elapsed_ns", elapsed.as_nanos() as u64)
            .u64("serial_ns", serial.as_nanos() as u64)
            .raw("wall_ns", num_array(&walls))
            .raw("ref_ns", num_array(&refs))
            .raw("committed", num_array(&committed))
            .raw("digest", str_array(&digests))
            .raw("rows", str_array(&paper_rows(&evals)));
        println!("{}", o.render());
    }
    crate::await_exit();
    ExitCode::SUCCESS
}

/// One round as the program reported it.
struct Round {
    walls_ms: Vec<f64>,
    refs_ns: Vec<f64>,
    committed: Vec<f64>,
    digests: Vec<String>,
    rows: Vec<String>,
    overhead_pct: f64,
    elapsed_s: f64,
}

impl Round {
    fn parse(doc: &Json) -> Result<Round, String> {
        if num(doc, "workers")? != 1.0 {
            return Err("the fleet ran on more than one worker".to_string());
        }
        let elapsed = num(doc, "elapsed_ns")?;
        Ok(Round {
            walls_ms: nums(doc, "wall_ns")?.iter().map(|n| n / 1e6).collect(),
            refs_ns: nums(doc, "ref_ns")?,
            committed: nums(doc, "committed")?,
            digests: strs(doc, "digest")?,
            rows: strs(doc, "rows")?,
            overhead_pct: (1.0 - num(doc, "serial_ns")? / elapsed) * 100.0,
            elapsed_s: elapsed / 1e9,
        })
    }
}

/// Driver side.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let config = run_config(ctx.seed, ctx.seconds);
    let specs = grid(config);
    let jobs = specs.len() * Scheme::ALL.len();
    let mut out = Outcome::default();
    out.info
        .u64("fleet_workers", 1)
        .u64("processes", 1)
        .u64("commits", config.commits)
        .u64("warmup", config.warmup)
        .u64("jobs", jobs as u64);
    let program = run_program(ctx, &mut out)?;
    // A job panic takes the whole bag down: every job of the round that
    // stopped the program failed.
    let (rounds, broken): (Vec<Round>, bool) =
        match program.rounds.iter().map(Round::parse).collect() {
            Ok(r) => (r, program.error.is_some()),
            Err(e) => {
                out.check("program output parses", Some(e));
                (Vec::new(), true)
            }
        };
    out.attempted = (jobs * (rounds.len() + usize::from(broken))).max(1) as u64;
    let Some(first) = rounds.first() else {
        out.failed = out.attempted;
        return Ok(out);
    };

    let mut failed = jobs * usize::from(broken);
    for (i, r) in rounds.iter().enumerate() {
        failed += jobs.saturating_sub(r.digests.len());
        out.expect(
            &format!("round {i} returns every job"),
            r.walls_ms.len() == jobs,
            || format!("{} of {jobs} jobs", r.walls_ms.len()),
        );
        out.expect(
            &format!("round {i} repeats round 0 exactly"),
            r.digests == first.digests && r.rows == first.rows,
            || "results differ between identical rounds".to_string(),
        );
    }
    // Every scheme of a (bench, vdd) pair commits the same count.
    for (pair, counts) in first.committed.chunks(Scheme::ALL.len()).enumerate() {
        if counts.iter().any(|&c| c != config.commits as f64) {
            failed += counts.len() * rounds.len();
            out.check(
                &format!("equal commits in pair {pair}"),
                Some(format!("{counts:?}")),
            );
        }
    }
    out.failed = failed as u64;
    check_reference(&mut out, ctx.seed, ctx.seconds, &first.rows);

    if rounds
        .iter()
        .any(|r| r.walls_ms.len() != jobs || r.refs_ns.len() != specs.len() + 1)
    {
        out.check(
            "every round reports every job and reading",
            Some("short round".to_string()),
        );
        return Ok(out);
    }
    let bounds: Vec<usize> = (0..specs.len()).map(|e| e * Scheme::ALL.len()).collect();
    let walls: Vec<Vec<f64>> = rounds
        .iter()
        .map(|r| speed::calibrate(&r.walls_ms, &bounds, &r.refs_ns))
        .collect();
    let typical = median_of(&walls);
    let busy_s = typical.iter().sum::<f64>() / 1e3;
    let job_tail = tail(&typical)?;
    let nominal = (jobs as u64 * (config.commits + config.warmup)) as f64;
    out.set("setup_s", median(&program.setups));
    out.set("sim_minst_per_s", nominal / busy_s / 1e6);
    out.set("latency_p50_ms", median(&typical));
    out.set("latency_tail_ms", job_tail.value);
    // A job's one result row arrives when the job ends.
    out.set("first_row_p50_ms", median(&typical));
    out.set("req_per_s", jobs as f64 / busy_s);
    out.set("max_rss_mb", program.max_rss_mb);
    let raw: Vec<Vec<f64>> = rounds.iter().map(|r| r.walls_ms.clone()).collect();
    let refs: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.refs_ns.iter().copied())
        .collect();
    speed::record_wall_times(&mut out, nominal, &raw, &refs);
    let round_walls: Vec<f64> = rounds.iter().map(|r| r.elapsed_s).collect();
    out.info
        .num("latency_tail_percentile", job_tail.percentile)
        .u64("latency_samples", job_tail.samples as u64)
        .raw("round_walls_s", num_array(&round_walls));

    if ctx.trace {
        let mut rec = Recorder::new();
        // On a spawned thread, as the fleet worker ran the timed jobs: the
        // allocator behaves differently on the main thread.
        let replayed = std::thread::scope(|s| {
            s.spawn(|| replay_jobs(&mut rec, config, &specs, &mut out))
                .join()
                .expect("replay thread panicked")
        });
        let differ = replayed
            .digests
            .iter()
            .zip(&first.digests)
            .filter(|(a, b)| a != b)
            .count()
            + replayed.digests.len().abs_diff(first.digests.len());
        out.expect("replay reproduces every SchemeResult", differ == 0, || {
            format!("{differ} of {jobs} jobs differ from the timed run")
        });
        for (name, v) in replayed.counts {
            out.set(name, v as f64);
        }
        let overheads: Vec<f64> = rounds.iter().map(|r| r.overhead_pct).collect();
        out.set("core.fleet.overhead_pct", median(&overheads));
        let traced_ms = rec.total("job") as f64 / 1e6;
        finish_trace(
            ctx,
            &mut rec,
            &mut out,
            traced_ms,
            median(&round_walls) * 1e3,
        )?;
    }
    Ok(out)
}

/// Compares the derived rows with the recorded reference when this run has
/// the reference's seed and length.
fn check_reference(out: &mut Outcome, seed: u64, seconds: f64, rows: &[String]) {
    let mut lines = REFERENCE.lines();
    let header = lines.next().unwrap_or("");
    let want = format!("# seed={DEFAULT_SEED} seconds={FULL_SECONDS}");
    if seed != DEFAULT_SEED || header != want || seconds < FULL_SECONDS {
        out.check(
            "paper rows equal the reference (not applicable to this seed/length)",
            None,
        );
        return;
    }
    let reference: Vec<&str> = lines.collect();
    let got: Vec<&str> = rows.iter().map(String::as_str).collect();
    let first_diff = reference
        .iter()
        .zip(&got)
        .position(|(a, b)| a != b)
        .or((reference.len() != got.len()).then(|| reference.len().min(got.len())));
    out.check(
        "paper rows equal the reference",
        first_diff.map(|i| format!("row {i}: want {:?}, got {:?}", reference.get(i), got.get(i))),
    );
}

/// What a replay of the grid's jobs produced.
pub struct JobReplay {
    /// Digest of each job's `SchemeResult`, in job order.
    pub digests: Vec<String>,
    /// Exact `SimStats` counts summed over the jobs.
    pub counts: Vec<(&'static str, u64)>,
}

/// Replays every job as `Experiment::run_scheme` runs it, one span per
/// layer call, and sets the `uarch` unit costs in `out`.
pub fn replay_jobs(
    rec: &mut Recorder,
    config: RunConfig,
    specs: &[(Experiment, Vec<Scheme>)],
    out: &mut Outcome,
) -> JobReplay {
    let from = rec.spans().len();
    let (mut cycles, mut committed, mut faults, mut predicted) = (0u64, 0u64, 0u64, 0u64);
    let (mut false_pos, mut replays, mut ep_stalls) = (0u64, 0u64, 0u64);
    let mut digests = Vec::new();
    for (exp, schemes) in specs {
        for &scheme in schemes {
            let id = digests.len() as u64;
            let job = rec.begin("job", id);
            let mut pipe = rec.time("uarch.build", id, || {
                scheme
                    .pipeline_builder(exp.benchmark(), config.seed, exp.voltage())
                    .criticality_threshold(config.criticality_threshold)
                    .build()
            });
            rec.time("uarch.warm_up", id, || pipe.warm_up(config.warmup));
            let mut stats = rec.time("uarch.run", id, || pipe.run(config.commits));
            stats.label = scheme.name().to_string();
            let energy = rec.time("energy.from_stats", id, || {
                RunEnergy::from_stats(&stats, &config.energy)
            });
            rec.end(job);
            cycles += stats.cycles;
            committed += stats.committed;
            faults += stats.faults_total();
            predicted += stats.faults_predicted;
            false_pos += stats.false_positives;
            replays += stats.replays;
            ep_stalls += stats.ep_stall_cycles;
            digests.push(digest(&SchemeResult {
                scheme,
                stats,
                energy,
            }));
        }
    }
    let jobs = digests.len().max(1) as f64;
    let total = |name: &str| rec.total_from(name, from) as f64;
    out.set("uarch.build_ms", total("uarch.build") / 1e6 / jobs);
    out.set(
        "uarch.warmup_ns_per_commit",
        total("uarch.warm_up") / (jobs * config.warmup.max(1) as f64),
    );
    out.set(
        "uarch.run_ns_per_cycle",
        total("uarch.run") / cycles.max(1) as f64,
    );
    out.set(
        "uarch.run_ns_per_commit",
        total("uarch.run") / committed.max(1) as f64,
    );
    JobReplay {
        digests,
        counts: vec![
            ("uarch.sim_cycles", cycles),
            ("uarch.committed", committed),
            ("timing.faults", faults),
            ("tep.faults_predicted", predicted),
            ("tep.false_positives", false_pos),
            ("uarch.replays", replays),
            ("uarch.ep_stall_cycles", ep_stalls),
        ],
    }
}
