//! `campaign_procs`: one offline co-sim campaign on a one-worker process
//! fleet (`run_campaign_cluster` with `ClusterConfig::new(1)`). It is the
//! only workload through `core::cluster` — worker spawn, CTX/JOB/OK
//! framing, leases, coordinator journaling — and `uarch::CoSim`.

use std::cell::{Cell, RefCell};
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use tv_core::{fnv1a, run_campaign_cluster, CampaignConfig, ClusterConfig};
use tv_serve::json::{Json, Obj};

use crate::metrics::{num, num_array, nums, str_array, strs, Outcome};
use crate::speed;
use crate::stats::{median, median_of, tail};
use crate::trace::Recorder;
use crate::{
    another_round, finish_trace, input_seconds, mix, ms, run_program, Ctx, DEFAULT_SEED,
    FULL_SECONDS,
};

/// Campaigns per round. A round runs them one after another, each on a
/// freshly spawned worker, so that the speed reference can be read between
/// them (see [`speed`]).
const CAMPAIGNS: u64 = 5;
/// Synthetic tuples per campaign and second of input length: with the
/// RISC-V tuples, 20 groups a campaign and 100 a round from
/// [`FULL_SECONDS`] on, enough for a p90 tail.
const TUPLES_PER_SECOND: f64 = 0.85;
/// RISC-V tuples per campaign: one of each built-in campaign program.
const RISCV_TUPLES: usize = 3;
/// Cell length: short, so a round of 100 bundles takes about 4.5 s.
const COMMITS: u64 = 8_000;
const WARMUP: u64 = 2_000;

/// `<fnv1a of the CSV> <rows>` of each campaign at the default seed and
/// full-size inputs, recorded from the seed commit.
const REFERENCE: &str = include_str!("../reference/campaign_procs.txt");

/// The campaigns of a run of `seconds`, as co-sim bundles with the
/// control, each with its own seed derived from the run's.
fn campaigns(seed: u64, seconds: f64) -> Vec<CampaignConfig> {
    let tuples = ((TUPLES_PER_SECOND * input_seconds(seconds)).round() as usize).max(1);
    (0..CAMPAIGNS)
        .map(|c| CampaignConfig {
            tuples,
            riscv_tuples: RISCV_TUPLES,
            campaign_seed: mix(seed, c),
            commits: COMMITS,
            warmup: WARMUP,
            cosim: true,
            ..CampaignConfig::full()
        })
        .collect()
}

fn cells(config: &CampaignConfig) -> usize {
    groups(config) * config.schemes().len()
}

fn groups(config: &CampaignConfig) -> usize {
    config.tuples + config.riscv_tuples
}

/// Program side: waits for `go`, then runs the round's campaigns once per
/// round, until `seconds` are spent, on a one-worker process fleet (this
/// executable in `--worker` mode), each from a fresh journal, printing one
/// JSON line per round.
pub fn program(seed: u64, seconds: f64, work: &Path) -> ExitCode {
    let configs = campaigns(seed, seconds);
    let cluster = ClusterConfig::new(1);
    if !crate::await_go() {
        return ExitCode::SUCCESS;
    }
    let start = Instant::now();
    let mut round = 0;
    while another_round(start, round, seconds) {
        round += 1;
        let t0 = Instant::now();
        let first_row = Cell::new(None);
        let mut refs = vec![speed::reference_ns()];
        let (mut fnvs, mut group_ns) = (Vec::new(), Vec::new());
        let (mut rows, mut failures, mut panicked) = (0, 0, 0);
        let mut catches = Vec::new();
        let mut workers = 0;
        for (c, config) in configs.iter().enumerate() {
            let journal = work.join(format!(
                "campaign-{}-{round}-{c}.journal",
                std::process::id()
            ));
            let report = run_campaign_cluster(&cluster, config, &journal, false, |_, _| {
                if first_row.get().is_none() {
                    first_row.set(Some(t0.elapsed()));
                }
            });
            refs.push(speed::reference_ns());
            let report = match report {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("campaign_procs: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let mut timings: Vec<(usize, f64)> = report
                .fleet
                .timings
                .iter()
                .map(|t| (t.index, t.wall.as_nanos() as f64))
                .collect();
            timings.sort_by_key(|&(index, _)| index);
            group_ns.extend(timings.into_iter().map(|(_, ns)| ns));
            fnvs.push(format!("{:016x}", fnv1a(report.csv().as_bytes())));
            rows += report.rows.len();
            failures += report.failures().len();
            panicked += report.panicked;
            catches.push(report.control_catches() as f64);
            workers = workers.max(report.fleet.workers);
        }
        let mut o = Obj::new();
        o.u64("workers", workers as u64)
            .u64("elapsed_ns", t0.elapsed().as_nanos() as u64)
            .u64(
                "first_row_ns",
                first_row.get().unwrap_or_default().as_nanos() as u64,
            )
            .raw("csv_fnv", str_array(&fnvs))
            .u64("rows", rows as u64)
            .u64("failures", failures as u64)
            .u64("panicked", panicked as u64)
            .raw("control_catches", num_array(&catches))
            .raw("group_ns", num_array(&group_ns))
            .raw("ref_ns", num_array(&refs));
        println!("{}", o.render());
    }
    crate::await_exit();
    ExitCode::SUCCESS
}

/// One round as the program reported it.
struct Round {
    csv_fnvs: Vec<String>,
    rows: usize,
    failures: usize,
    panicked: usize,
    control_catches: Vec<f64>,
    first_row_ms: f64,
    elapsed_s: f64,
    groups_ms: Vec<f64>,
    refs_ns: Vec<f64>,
}

impl Round {
    fn parse(doc: &Json) -> Result<Round, String> {
        if num(doc, "workers")? != 1.0 {
            return Err("the cluster ran more than one worker".to_string());
        }
        Ok(Round {
            csv_fnvs: strs(doc, "csv_fnv")?,
            rows: num(doc, "rows")? as usize,
            failures: num(doc, "failures")? as usize,
            panicked: num(doc, "panicked")? as usize,
            control_catches: nums(doc, "control_catches")?,
            first_row_ms: num(doc, "first_row_ns")? / 1e6,
            elapsed_s: num(doc, "elapsed_ns")? / 1e9,
            groups_ms: nums(doc, "group_ns")?.iter().map(|n| n / 1e6).collect(),
            refs_ns: nums(doc, "ref_ns")?,
        })
    }
}

/// Driver side.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let configs = campaigns(ctx.seed, ctx.seconds);
    let total: usize = configs.iter().map(cells).sum();
    let groups_total: usize = configs.iter().map(groups).sum();
    let mut out = Outcome::default();
    out.info
        .u64("cluster_procs", 1)
        .u64("processes", 2)
        .u64("campaigns_per_round", configs.len() as u64)
        .u64("tuples_per_campaign", configs[0].tuples as u64)
        .u64("riscv_tuples_per_campaign", configs[0].riscv_tuples as u64)
        .u64("commits", COMMITS)
        .u64("warmup", WARMUP)
        .u64("cells", total as u64);
    let program = run_program(ctx, &mut out)?;
    let log = std::fs::read_to_string(ctx.log("program")).unwrap_or_default();
    let deaths = log
        .lines()
        .filter(|l| l.starts_with("[cluster]") && l.contains(" died"))
        .count();
    out.expect("no worker death reported", deaths == 0, || {
        format!("{deaths} worker deaths")
    });
    let (rounds, broken): (Vec<Round>, bool) =
        match program.rounds.iter().map(Round::parse).collect() {
            Ok(r) => (r, program.error.is_some()),
            Err(e) => {
                out.check("program output parses", Some(e));
                (Vec::new(), true)
            }
        };
    out.attempted = (total * (rounds.len() + usize::from(broken))).max(1) as u64;
    let Some(first) = rounds.first() else {
        out.failed = out.attempted;
        return Ok(out);
    };
    out.failed = (total * usize::from(broken)
        + deaths
        + rounds
            .iter()
            .map(|r| r.failures + r.panicked + total.saturating_sub(r.rows))
            .sum::<usize>()) as u64;
    for (i, r) in rounds.iter().enumerate() {
        out.expect(
            &format!("round {i}: one row per cell"),
            r.rows == total,
            || format!("{} rows for {total} cells", r.rows),
        );
        out.expect(
            &format!("round {i}: one reply per group"),
            r.groups_ms.len() == groups_total,
            || format!("{} replies for {groups_total} groups", r.groups_ms.len()),
        );
        out.expect(
            &format!("round {i}: every real scheme is clean"),
            r.failures + r.panicked == 0,
            || format!("{} rows not clean, {} panics", r.failures, r.panicked),
        );
        out.expect(
            &format!("round {i}: every campaign catches the control"),
            r.control_catches.len() == configs.len() && r.control_catches.iter().all(|&c| c >= 1.0),
            || format!("control catches per campaign: {:?}", r.control_catches),
        );
        out.expect(
            &format!("round {i} repeats round 0's CSVs"),
            r.csv_fnvs == first.csv_fnvs,
            || format!("{:?} != {:?}", r.csv_fnvs, first.csv_fnvs),
        );
    }
    check_reference(&mut out, ctx.seed, ctx.seconds, &configs, &first.csv_fnvs);
    if rounds
        .iter()
        .any(|r| r.groups_ms.len() != groups_total || r.refs_ns.len() != configs.len() + 1)
    {
        out.check(
            "every round reports every group and reading",
            Some("short round".to_string()),
        );
        return Ok(out);
    }

    // Every campaign has the same number of groups.
    let bounds: Vec<usize> = (0..configs.len())
        .map(|c| c * groups(&configs[0]))
        .collect();
    let walls: Vec<Vec<f64>> = rounds
        .iter()
        .map(|r| speed::calibrate(&r.groups_ms, &bounds, &r.refs_ns))
        .collect();
    let typical = median_of(&walls);
    let busy_s = typical.iter().sum::<f64>() / 1e3;
    let group_tail = tail(&typical)?;
    let nominal = (total as u64 * (COMMITS + WARMUP)) as f64;
    out.set("setup_s", median(&program.setups));
    out.set("sim_minst_per_s", nominal / busy_s / 1e6);
    out.set("latency_p50_ms", median(&typical));
    out.set("latency_tail_ms", group_tail.value);
    // A group's rows arrive together, in its one reply.
    out.set("first_row_p50_ms", median(&typical));
    out.set("req_per_s", total as f64 / busy_s);
    out.set("max_rss_mb", program.max_rss_mb);
    let raw: Vec<Vec<f64>> = rounds.iter().map(|r| r.groups_ms.clone()).collect();
    let refs: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.refs_ns.iter().copied())
        .collect();
    speed::record_wall_times(&mut out, nominal, &raw, &refs);
    let round_walls: Vec<f64> = rounds.iter().map(|r| r.elapsed_s).collect();
    let first_rows: Vec<f64> = rounds.iter().map(|r| r.first_row_ms).collect();
    out.info
        .raw("round_first_row_ms", num_array(&first_rows))
        .num("latency_tail_percentile", group_tail.percentile)
        .u64("latency_samples", group_tail.samples as u64)
        .raw("round_walls_s", num_array(&round_walls));

    if ctx.trace {
        let mut rec = Recorder::new();
        let journal = ctx.work.join("replay.journal");
        let (csvs, traced_ms) = replay_cluster(&mut rec, &configs, &journal, &mut out)?;
        let fnvs: Vec<String> = csvs
            .iter()
            .map(|csv| format!("{:016x}", fnv1a(csv.as_bytes())))
            .collect();
        out.expect("replay reproduces the CSVs", fnvs == first.csv_fnvs, || {
            "replayed CSVs differ from the timed run".to_string()
        });
        let csvs: Vec<&str> = csvs.iter().map(String::as_str).collect();
        crate::serve::count_rows(&mut out, &csvs);
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

/// Compares the CSV fingerprints with the recorded reference when this run
/// has the reference's seed and length.
fn check_reference(
    out: &mut Outcome,
    seed: u64,
    seconds: f64,
    configs: &[CampaignConfig],
    csv_fnvs: &[String],
) {
    let mut lines = REFERENCE.lines();
    let header = lines.next().unwrap_or("");
    if seed != DEFAULT_SEED
        || header != format!("# seed={DEFAULT_SEED} seconds={FULL_SECONDS}")
        || seconds < FULL_SECONDS
    {
        out.check(
            "CSVs equal the reference (not applicable to this seed/length)",
            None,
        );
        return;
    }
    let want: Vec<&str> = lines.collect();
    let got: Vec<String> = configs
        .iter()
        .zip(csv_fnvs)
        .map(|(c, fnv)| format!("{fnv} {}", cells(c)))
        .collect();
    out.expect("CSVs equal the reference", want == got, || {
        format!("want {want:?}, got {got:?}")
    });
}

/// Runs each campaign through `run_campaign_cluster` on a one-worker
/// process fleet, timestamping every `on_row`, derives one span per group
/// from the coordinator-observed group walls and sets the `core.cluster`
/// costs in `out`. Returns the CSVs and the calls' span time in ms.
pub fn replay_cluster(
    rec: &mut Recorder,
    configs: &[CampaignConfig],
    journal: &Path,
    out: &mut Outcome,
) -> Result<(Vec<String>, f64), String> {
    let mut csvs = Vec::with_capacity(configs.len());
    let mut first_reply = None;
    let (mut walls_ms, mut busy_s, mut calls_s) = (Vec::new(), 0.0, 0.0);
    for (c, config) in configs.iter().enumerate() {
        let schemes = config.schemes().len();
        let offset = walls_ms.len() as u64;
        let call = rec.begin("core.run_campaign_cluster", c as u64);
        let called = Instant::now();
        let arrivals: RefCell<Vec<(usize, Instant)>> = RefCell::new(Vec::new());
        let report = run_campaign_cluster(
            &ClusterConfig::new(1),
            config,
            &journal.with_extension(format!("{c}.journal")),
            false,
            |i, _| arrivals.borrow_mut().push((i, Instant::now())),
        )?;
        rec.end(call);
        let wall = called.elapsed();

        // Cells are tuple-major and every cell is fresh, so group g holds
        // cells g*schemes..(g+1)*schemes and its rows arrive together.
        let arrivals = arrivals.into_inner();
        for t in &report.fleet.timings {
            let Some(&(_, at)) = arrivals.iter().find(|(i, _)| i / schemes == t.index) else {
                continue;
            };
            if c == 0 {
                first_reply = first_reply.or(Some(at - called));
            }
            let end = rec.ns(at);
            let start = end.saturating_sub(t.wall.as_nanos() as u64);
            let id = offset + t.index as u64;
            rec.record("core.cluster.group", id, Some(call), start, end);
        }
        walls_ms.extend(report.fleet.timings.iter().map(|t| ms(t.wall)));
        busy_s += report
            .fleet
            .timings
            .iter()
            .map(|t| t.wall.as_secs_f64())
            .sum::<f64>();
        calls_s += wall.as_secs_f64();
        csvs.push(report.csv());
    }
    out.set("core.cluster.first_reply_ms", first_reply.map_or(0.0, ms));
    out.set("core.cluster.group_ms_p50", median(&walls_ms));
    out.set(
        "core.cluster.overhead_pct",
        (1.0 - busy_s / calls_s) * 100.0,
    );
    Ok((csvs, calls_s * 1e3))
}
