//! End-to-end and per-layer benchmark of the simulator, the campaign
//! server and the process fleet. See `README.md` beside this crate.
//!
//! ```text
//! perfbench --workload paper_regen|serve_cold|serve_hits|campaign_procs
//!           [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! The last line of standard output is the result object. The binary also
//! serves as the program under test for the batch workloads
//! (`perfbench program <workload> ...`) and as their cluster worker
//! (`perfbench --worker`).

mod child;
mod client;
mod metrics;
mod probe;
mod procs;
mod regen;
mod serve;
mod speed;
mod stats;
mod trace;

use std::fs;
use std::io::{BufRead, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use child::{Proc, RssWatch};
use metrics::Outcome;
use trace::Recorder;
use tv_serve::json::{Json, Obj};

const USAGE: &str = "perfbench --workload paper_regen|serve_cold|serve_hits|campaign_procs \
                     [--seed N] [--seconds S] [--trace 0|1]";

/// The seed whose outputs the recorded references pin.
pub const DEFAULT_SEED: u64 = 42;

/// How many times a run sets the program up; `setup_s` is their median.
pub const SETUPS: usize = 15;

/// Rounds of identical work every run makes at least; later rounds repeat
/// the same inputs until the run's `--seconds` are spent. An operation's
/// time is its median over the rounds: on a shared host, contention comes
/// and goes over seconds, so rounds far apart see independent slowdowns.
pub const MIN_ROUNDS: usize = 3;

/// Run length at which the workloads' inputs reach their full size, the
/// size the recorded references pin; longer runs only add rounds.
pub const FULL_SECONDS: f64 = 20.0;

/// The run length input sizes are scaled to.
pub fn input_seconds(seconds: f64) -> f64 {
    seconds.min(FULL_SECONDS)
}

/// Whether a timed phase that began at `start` and has finished `done`
/// rounds makes another: always below [`MIN_ROUNDS`], then while one more
/// round of the average length so far still ends within `seconds`.
pub fn another_round(start: Instant, done: usize, seconds: f64) -> bool {
    let spent = start.elapsed().as_secs_f64();
    done < MIN_ROUNDS || spent + spent / done as f64 <= seconds
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Table 1 grid through `run_evaluations` on one fleet worker.
    PaperRegen,
    /// Distinct cold `POST /campaign` requests against a fresh server.
    ServeCold,
    /// Store hits against a server over a pre-filled store.
    ServeHits,
    /// One offline co-sim campaign on a one-worker process fleet.
    CampaignProcs,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::PaperRegen,
        Workload::ServeCold,
        Workload::ServeHits,
        Workload::CampaignProcs,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::PaperRegen => "paper_regen",
            Workload::ServeCold => "serve_cold",
            Workload::ServeHits => "serve_hits",
            Workload::CampaignProcs => "campaign_procs",
        }
    }

    fn parse(name: &str) -> Result<Workload, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| format!("unknown workload `{name}`"))
    }
}

/// Everything a workload run needs to know.
pub struct Ctx {
    /// The workload.
    pub workload: Workload,
    /// The input seed.
    pub seed: u64,
    /// Target length of the timed phase; input sizes scale with it.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Scratch directory of this run (removed afterwards).
    pub work: PathBuf,
    /// Where trace files are kept.
    pub out: PathBuf,
    /// This executable.
    pub exe: PathBuf,
}

impl Ctx {
    /// The `serve` binary built beside this one.
    pub fn serve_exe(&self) -> PathBuf {
        self.exe.with_file_name("serve")
    }

    /// The command that starts this workload's program process.
    pub fn program(&self) -> Command {
        let mut cmd = Command::new(&self.exe);
        cmd.arg("program")
            .arg(self.workload.name())
            .arg("--seed")
            .arg(self.seed.to_string())
            .arg("--seconds")
            .arg(self.seconds.to_string())
            .arg("--work")
            .arg(&self.work);
        cmd
    }

    /// Where a spawned process's stderr is kept.
    pub fn log(&self, name: &str) -> PathBuf {
        self.work.join(format!("{name}.stderr"))
    }
}

/// Spawns the batch program [`SETUPS`] times, timing each from spawn to its
/// `ready` line (inputs built), at the reference speed (see [`speed`]). All
/// but the last are told to quit; the last is returned ready for `go`.
///
/// # Errors
///
/// A program that fails to start or to report ready.
pub fn ready_program(ctx: &Ctx) -> Result<(Vec<f64>, Proc), String> {
    let mut times = Vec::with_capacity(SETUPS);
    for i in 0..SETUPS {
        let before = speed::reference_ns();
        let mut p = Proc::spawn(ctx.program(), &ctx.log("program"))
            .map_err(|e| format!("spawn program: {e}"))?;
        match p.line() {
            Ok(line) if line == "ready" => {
                let wall = p.spawned().elapsed().as_secs_f64();
                times.push(wall * speed::factor(before, speed::reference_ns()));
            }
            other => {
                p.kill();
                return Err(format!("program did not report ready: {other:?}"));
            }
        }
        if i + 1 == SETUPS {
            return Ok((times, p));
        }
        p.send("quit").map_err(|e| format!("quit program: {e}"))?;
        p.reap().map_err(|e| format!("reap program: {e}"))?;
    }
    unreachable!("SETUPS is positive")
}

/// What a batch program's timed phase produced.
pub struct ProgramRun {
    /// Set-up times of the [`SETUPS`] spawns, seconds.
    pub setups: Vec<f64>,
    /// One parsed result line per completed round.
    pub rounds: Vec<Json>,
    /// Why the program stopped before reporting `done`, if it did.
    pub error: Option<String>,
    /// Peak resident set of the program's processes, MB.
    pub max_rss_mb: f64,
}

/// Readies the batch program, starts it, reads one result line per round
/// up to its `done` line and reaps it, recording its exit, CPU and wall
/// time in `out`.
///
/// # Errors
///
/// A program that cannot be started or reaped.
pub fn run_program(ctx: &Ctx, out: &mut Outcome) -> Result<ProgramRun, String> {
    let (setups, mut proc) = ready_program(ctx)?;
    let watch = RssWatch::start(&proc);
    let go = Instant::now();
    proc.send("go").map_err(|e| format!("start program: {e}"))?;
    let mut rounds = Vec::new();
    let error = loop {
        match proc.line() {
            Ok(line) if line == "done" => break None,
            Ok(line) => match Json::parse(&line) {
                Ok(doc) => rounds.push(doc),
                Err(e) => break Some(e),
            },
            Err(e) => break Some(e.to_string()),
        }
    };
    let timed = go.elapsed();
    let max_rss_mb = watch.finish();
    let (exit, usage) = proc.reap().map_err(|e| format!("reap program: {e}"))?;
    out.info
        .u64("rounds", rounds.len() as u64)
        .num("timed_wall_s", timed.as_secs_f64())
        .num("program_cpu_s", usage.cpu.as_secs_f64())
        .num("program_wall_s", usage.wall.as_secs_f64())
        .raw("setup_samples_s", metrics::num_array(&setups));
    out.expect("program exits 0", exit == Some(0), || {
        format!("exit {exit:?}")
    });
    out.check("program reports every round", error.clone());
    Ok(ProgramRun {
        setups,
        rounds,
        error,
        max_rss_mb,
    })
}

/// Program side of the ready/go handshake: announces `ready`, then
/// returns whether the benchmark said `go` (anything else means quit).
pub fn await_go() -> bool {
    println!("ready");
    std::io::stdout().flush().expect("stdout");
    let mut line = String::new();
    std::io::stdin().lock().read_line(&mut line).is_ok() && line.trim() == "go"
}

/// Program side, after the last round's line: reports `done`, then stays
/// alive until the benchmark closes stdin, so the benchmark can read the
/// final peak resident set.
pub fn await_exit() {
    println!("done");
    std::io::stdout().flush().expect("stdout");
    let mut sink = String::new();
    while std::io::stdin()
        .lock()
        .read_line(&mut sink)
        .is_ok_and(|n| n > 0)
    {
        sink.clear();
    }
}

/// splitmix64 of `a` keyed by `b`: the benchmark's input derivation.
pub fn mix(a: u64, b: u64) -> u64 {
    let mut x = a ^ b.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Milliseconds of a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The checked-out revision, read from `.git` without running git;
/// `unknown` outside a git checkout.
fn git_rev(root: &Path) -> String {
    let git = root.join(".git");
    let short = |s: &str| s.trim().chars().take(12).collect::<String>();
    let Ok(head) = fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let Some(reference) = head.trim().strip_prefix("ref: ") else {
        return short(&head);
    };
    if let Ok(hash) = fs::read_to_string(git.join(reference)) {
        return short(&hash);
    }
    fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|p| p.lines().find(|l| l.ends_with(reference)).map(short))
        .unwrap_or_else(|| "unknown".to_string())
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    work: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 20.0;
    let mut trace = false;
    let mut work = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value()?)?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--work" => work = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        work,
    })
}

/// `perfbench program <workload> ...`: the program under test of a batch
/// workload.
fn program_main(args: &[String]) -> ExitCode {
    let Some((name, rest)) = args.split_first() else {
        eprintln!("perfbench program: missing workload");
        return ExitCode::from(2);
    };
    let parsed = Workload::parse(name).and_then(|w| {
        parse_args(&[&["--workload".to_string(), w.name().to_string()], rest].concat())
    });
    match parsed {
        Ok(Args {
            workload: Workload::PaperRegen,
            seed,
            seconds,
            ..
        }) => regen::program(seed, seconds),
        Ok(Args {
            workload: Workload::CampaignProcs,
            seed,
            seconds,
            work: Some(work),
            ..
        }) => procs::program(seed, seconds, &work),
        Ok(_) => {
            eprintln!("perfbench program: {name} has no program mode here");
            ExitCode::from(2)
        }
        Err(e) => {
            eprintln!("perfbench program: {e}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--worker") => return tv_core::campaign_worker(),
        Some("program") => return program_main(&args[1..]),
        _ => {}
    }
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\nusage: {USAGE}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Everything this run starts inherits the pin: see `child::pin_one_cpu`.
    let cpu = child::pin_one_cpu();
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let out = root.join("out");
    let ctx = Ctx {
        workload: args.workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        work: out.join(format!(
            "run-{}-{}-{}",
            args.workload.name(),
            args.seed,
            std::process::id()
        )),
        out,
        exe: std::env::current_exe().expect("current executable"),
    };
    if let Err(e) = fs::create_dir_all(&ctx.work) {
        eprintln!("perfbench: cannot create {}: {e}", ctx.work.display());
        return ExitCode::FAILURE;
    }
    let result = match ctx.workload {
        Workload::PaperRegen => regen::run(&ctx),
        Workload::ServeCold => serve::run_cold(&ctx),
        Workload::ServeHits => serve::run_hits(&ctx),
        Workload::CampaignProcs => procs::run(&ctx),
    };
    let mut outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!(
                "perfbench: {} failed: {e} (logs kept in {})",
                ctx.workload.name(),
                ctx.work.display()
            );
            return ExitCode::FAILURE;
        }
    };

    let repo = root.parent().unwrap_or(root);
    outcome
        .info
        .str("workload", ctx.workload.name())
        .u64("seed", ctx.seed)
        .num("seconds", ctx.seconds)
        .bool("trace", ctx.trace)
        .str("git_rev", &git_rev(repo))
        .u64("nproc", nproc as u64);
    match cpu {
        Ok(cpu) => outcome.info.u64("pinned_cpu", cpu as u64),
        Err(e) => outcome.info.str("pinned_cpu", &format!("none ({e})")),
    };
    let mut info = Obj::new();
    info.obj("info", &outcome.info)
        .raw("checks", outcome.checks_json());
    println!("{}", info.render());
    for c in outcome.checks.iter().filter(|c| c.failure.is_some()) {
        eprintln!(
            "perfbench: check `{}` failed: {}",
            c.name,
            c.failure.as_deref().unwrap_or("")
        );
    }
    if outcome.correct() {
        fs::remove_dir_all(&ctx.work).ok();
    } else {
        eprintln!("perfbench: logs kept in {}", ctx.work.display());
    }
    let catalogue = if ctx.trace {
        metrics::per_layer()
    } else {
        metrics::end_to_end()
    };
    println!("{}", outcome.result_line(&catalogue));
    ExitCode::SUCCESS
}

/// Finishes a traced run: records the tracing overhead (`traced_ms` of span
/// time against `untraced_ms` for the same work without the recorder), runs
/// the layer probes into `rec`, then writes the trace and the self times.
/// Coverage defaults to the overhead's ratio; the serve workloads, whose
/// replay has no HTTP layer, overwrite it.
///
/// # Errors
///
/// A layer probe that cannot run.
pub fn finish_trace(
    ctx: &Ctx,
    rec: &mut Recorder,
    out: &mut Outcome,
    traced_ms: f64,
    untraced_ms: f64,
) -> Result<(), String> {
    out.set("trace.traced_ms", traced_ms);
    out.set("trace.untraced_ms", untraced_ms);
    out.set(
        "trace.overhead_pct",
        (traced_ms - untraced_ms) / untraced_ms * 100.0,
    );
    out.set("trace.coverage_pct", traced_ms / untraced_ms * 100.0);
    probe::workloads(out);
    probe::fill_layers(ctx, rec, out)?;
    for (name, ns) in rec.self_by_name() {
        out.set(&format!("self.{name}"), ns as f64 / 1e6);
    }
    out.set("trace.spans", rec.spans().len() as f64);
    let path = ctx.out.join(format!(
        "trace-{}-seed{}.json",
        ctx.workload.name(),
        ctx.seed
    ));
    match std::fs::write(&path, rec.chrome_json()) {
        Ok(()) => {
            out.info.str("trace_file", &path.display().to_string());
        }
        Err(e) => out.check("trace file written", Some(e.to_string())),
    }
    Ok(())
}
