//! `serve_cold` and `serve_hits`: one `serve` process with one fleet
//! worker and one HTTP worker, driven by one client connection at a time
//! in a closed loop.
//!
//! `serve_cold` sends distinct specs to a server on an empty store, so
//! every request simulates, journals, publishes and streams. `serve_hits`
//! fills a store once (untimed) and then only reads it: verified store
//! reads, no simulation.

use std::fs;
use std::io;
use std::net::SocketAddr;
use std::path::Path;
use std::process::Command;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use tv_core::campaign::HEADER;
use tv_core::{run_campaign, run_campaign_observed, CampaignConfig, Fleet, Scheme};
use tv_serve::json::Json;
use tv_serve::{parse_spec, ResultStore};

use crate::child::{Proc, RssWatch, Usage};
use crate::client::{self, Reply};
use crate::metrics::{num_array, Outcome};
use crate::speed;
use crate::stats::{median, median_of, tail};
use crate::trace::Recorder;
use crate::{another_round, finish_trace, input_seconds, mix, ms, Ctx, MIN_ROUNDS, SETUPS};

/// Cold requests per second of input length: 100 at full size, enough for
/// a p90 tail; each takes about 0.1 s and is sent once per round.
const COLD_PER_SECOND: f64 = 5.0;
/// Cell length of the cold specs.
const COLD_COMMITS: u64 = 5_000;
const COLD_WARMUP: u64 = 2_000;
/// Hits per second of input length: 9000 at full size, under the 10000 at
/// which the tail rule would move from p99 to p99.9. Each is sent once per
/// round.
const HITS_PER_SECOND: f64 = 450.0;
/// Hits between two readings of the speed reference: about 20 ms of
/// requests, against about 2 ms for a reading. A cold request is long
/// enough to get a reading of its own.
const HITS_PER_READING: usize = 100;
/// Floor on requests, so the tail rule always has a percentile.
const MIN_REQUESTS: usize = 20;
/// Distinct results in the hits store.
const HIT_SPECS: usize = 40;
/// RISC-V tuple counts cycle through 0..=4 across the hit specs.
const MAX_RISCV: usize = 4;
/// Cell length of the hit specs: short, since hits never simulate and
/// the store is filled on every run.
const HIT_COMMITS: u64 = 2_000;
const HIT_WARMUP: u64 = 1_000;
/// Client-side timeout of one request.
const TIMEOUT: Duration = Duration::from_secs(60);
/// `GET /healthz` round trips timed by a traced run.
const HEALTHZ_PROBES: usize = 200;

/// One request body and what the server should make of it.
pub struct Spec {
    /// The JSON request body.
    pub body: String,
    config: CampaignConfig,
    key: String,
    cells: usize,
    nominal: u64,
}

impl Spec {
    pub fn new(body: String) -> Result<Spec, String> {
        let config = parse_spec(body.as_bytes())?;
        let cells = config.generate_tuples().len() * config.schemes().len();
        Ok(Spec {
            key: config.store_key(),
            nominal: cells as u64 * (config.commits + config.warmup),
            body,
            config,
            cells,
        })
    }
}

/// A seed small enough to travel as an exact JSON number.
fn json_seed(seed: u64, salt: u64, i: usize) -> u64 {
    mix(seed ^ salt, i as u64) >> 11
}

/// Distinct cold specs: one synthetic and one RISC-V tuple plus the
/// control, run as the server's default per-cell jobs (no co-sim) of
/// 5k/2k commits, where the fault-calibration probe in `build` dominates.
fn cold_specs(seed: u64, n: usize) -> Result<Vec<Spec>, String> {
    (0..n)
        .map(|i| {
            let s = json_seed(seed, 0xc01d, i);
            Spec::new(format!(
                "{{\"tuples\":1,\"riscv\":1,\"seed\":{s},\"commits\":{COLD_COMMITS},\"warmup\":{COLD_WARMUP}}}"
            ))
        })
        .collect()
}

/// The hit specs: RISC-V tuple counts spread evenly over 0..=4 so hit
/// latencies form one spread, synthetic tuples alternating 1 and 2.
fn hit_specs(seed: u64) -> Result<Vec<Spec>, String> {
    (0..HIT_SPECS)
        .map(|i| {
            let riscv = i % (MAX_RISCV + 1);
            let tuples = 1 + (i / (MAX_RISCV + 1)) % 2;
            let s = json_seed(seed, 0x417, i);
            Spec::new(format!(
                "{{\"tuples\":{tuples},\"riscv\":{riscv},\"seed\":{s},\"commits\":{HIT_COMMITS},\"warmup\":{HIT_WARMUP}}}"
            ))
        })
        .collect()
}

fn request_count(seconds: f64, per_second: f64) -> usize {
    ((seconds * per_second).round() as usize).max(MIN_REQUESTS)
}

/// A running `serve` process.
pub struct Server {
    proc: Proc,
    /// Where it listens.
    pub addr: SocketAddr,
}

/// Spawns `serve` on `store` and waits until `GET /health` answers 200
/// (after the startup fsck). Returns the server and its set-up time in
/// seconds at the reference speed (see [`speed`]).
pub fn start(ctx: &Ctx, store: &Path) -> Result<(Server, f64), String> {
    let before = speed::reference_ns();
    let mut cmd = Command::new(ctx.serve_exe());
    cmd.arg("--addr")
        .arg("127.0.0.1:0")
        .arg("--store")
        .arg(store)
        .args(["--workers", "1", "--http-workers", "1"]);
    let mut proc = Proc::spawn(cmd, &ctx.log("serve")).map_err(|e| format!("spawn serve: {e}"))?;
    let addr = loop {
        match proc.line() {
            Ok(line) => {
                if let Some(a) = line.strip_prefix("listening on http://") {
                    break a.parse().map_err(|e| format!("serve address {a}: {e}"))?;
                }
            }
            Err(e) => {
                proc.kill();
                return Err(format!("serve did not start: {e}"));
            }
        }
    };
    match client::send(addr, "GET", "/health", b"", TIMEOUT) {
        Ok(r) if r.status == 200 => {
            let wall = proc.spawned().elapsed().as_secs_f64();
            let setup = wall * speed::factor(before, speed::reference_ns());
            Ok((Server { proc, addr }, setup))
        }
        other => {
            proc.kill();
            Err(format!("GET /health: {:?}", other.map(|r| r.status)))
        }
    }
}

/// Shuts the server down and reaps it.
pub fn stop(server: Server) -> Result<Usage, String> {
    let _ = client::send(server.addr, "POST", "/shutdown", b"", TIMEOUT);
    let (exit, usage) = server.proc.reap().map_err(|e| format!("reap serve: {e}"))?;
    if exit != Some(0) {
        return Err(format!("serve exited with {exit:?}"));
    }
    Ok(usage)
}

/// Starts the server [`SETUPS`] times on `store`, keeping the last.
fn ready_server(ctx: &Ctx, store: &Path) -> Result<(Vec<f64>, Server), String> {
    let mut times = Vec::with_capacity(SETUPS);
    for _ in 1..SETUPS {
        let (server, setup) = start(ctx, store)?;
        times.push(setup);
        stop(server)?;
    }
    let (server, setup) = start(ctx, store)?;
    times.push(setup);
    Ok((times, server))
}

fn server_stats(addr: SocketAddr) -> Result<Json, String> {
    let reply = client::send(addr, "GET", "/stats", b"", TIMEOUT)
        .map_err(|e| format!("GET /stats: {e}"))?;
    Json::parse(&String::from_utf8_lossy(&reply.body))
}

fn stat(doc: &Json, key: &str) -> u64 {
    doc.as_obj()
        .and_then(|o| o.get(key))
        .and_then(Json::as_u64)
        .unwrap_or(0)
}

/// Times `GET /healthz` round trips; returns the median in µs.
pub fn healthz_rtt_us(addr: SocketAddr) -> f64 {
    let rtts: Vec<f64> = (0..HEALTHZ_PROBES)
        .filter_map(|_| client::send(addr, "GET", "/healthz", b"", TIMEOUT).ok())
        .filter(|r| r.status == 200)
        .map(|r| r.total.as_secs_f64() * 1e6)
        .collect();
    if rtts.is_empty() {
        0.0
    } else {
        median(&rtts)
    }
}

/// Why a streamed cold reply fails its checks, if it does.
fn cold_failure(spec: &Spec, reply: &Reply) -> Option<String> {
    if reply.status != 200 {
        return Some(format!("status {}", reply.status));
    }
    if reply.header("x-cache") != Some("miss") {
        return Some(format!("X-Cache {:?}", reply.header("x-cache")));
    }
    if reply.header("x-store-key") != Some(spec.key.as_str()) {
        return Some(format!("X-Store-Key {:?}", reply.header("x-store-key")));
    }
    if !reply.complete {
        return Some("chunked body not terminated".to_string());
    }
    let Ok(body) = std::str::from_utf8(&reply.body) else {
        return Some("non-UTF-8 body".to_string());
    };
    let mut lines = body.lines();
    if lines.next() != Some(HEADER) {
        return Some("header line differs from campaign::HEADER".to_string());
    }
    let rows: Vec<&str> = lines.collect();
    if rows.len() != spec.cells {
        return Some(format!("{} rows for {} cells", rows.len(), spec.cells));
    }
    rows_failure(&rows)
}

/// A real-scheme row that is not clean, or a control that went uncaught.
fn rows_failure(rows: &[&str]) -> Option<String> {
    let control = Scheme::NoTolerance.name();
    let field = |row: &str, i: usize| row.split(',').nth(i).unwrap_or("").to_string();
    if let Some(bad) = rows
        .iter()
        .find(|r| field(r, 4) != control && field(r, 6) != "clean")
    {
        return Some(format!("real scheme not clean: {bad}"));
    }
    let caught = rows
        .iter()
        .any(|r| field(r, 4) == control && field(r, 6) == "corrupt");
    (!caught).then(|| "control not caught".to_string())
}

/// Simulation counts summed over verdict rows (CSV columns of
/// `campaign::HEADER`).
pub fn count_rows(out: &mut Outcome, csvs: &[&str]) {
    let control = Scheme::NoTolerance.name();
    let mut sums = [0u64; 6];
    let (mut cells, mut clean, mut caught) = (0u64, 0u64, 0u64);
    for row in csvs.iter().flat_map(|c| c.lines().skip(1)) {
        let f: Vec<&str> = row.split(',').collect();
        cells += 1;
        clean += u64::from(f.get(6) == Some(&"clean"));
        caught += u64::from(f.get(4) == Some(&control) && f.get(6) == Some(&"corrupt"));
        for (sum, col) in sums.iter_mut().zip([8, 7, 9, 10, 14, 13]) {
            *sum += f.get(col).and_then(|v| v.parse::<u64>().ok()).unwrap_or(0);
        }
    }
    for (name, v) in [
        "uarch.sim_cycles",
        "uarch.committed",
        "timing.faults",
        "tep.faults_predicted",
        "tep.false_positives",
        "uarch.replays",
    ]
    .into_iter()
    .zip(sums)
    {
        out.set(name, v as f64);
    }
    out.set("core.campaign.cells", cells as f64);
    out.set("core.campaign.rows_clean", clean as f64);
    out.set("core.campaign.control_caught", caught as f64);
}

/// One round's replies and what the client measured around them.
struct Window {
    replies: Vec<io::Result<Reply>>,
    /// Speed-reference readings: one before every `every` requests, and
    /// one after the last.
    refs: Vec<f64>,
    wall: Duration,
    cpu: Duration,
}

/// Sends every body in a closed loop, one connection at a time, reading
/// the speed reference before every `every` requests and after the last.
fn closed_loop<'a>(
    addr: SocketAddr,
    bodies: impl Iterator<Item = &'a str>,
    every: usize,
) -> Window {
    let cpu = crate::child::self_cpu();
    let start = Instant::now();
    let mut refs = Vec::new();
    let replies = bodies
        .enumerate()
        .map(|(i, b)| {
            if i % every == 0 {
                refs.push(speed::reference_ns());
            }
            client::send(addr, "POST", "/campaign", b.as_bytes(), TIMEOUT)
        })
        .collect();
    refs.push(speed::reference_ns());
    Window {
        replies,
        refs,
        wall: start.elapsed(),
        cpu: crate::child::self_cpu() - cpu,
    }
}

/// Per-request replies of every round, and what they add up to.
struct Rounds {
    /// `replies[round][request]`.
    replies: Vec<Vec<io::Result<Reply>>>,
    /// Failure of each send, by round and request.
    failures: Vec<String>,
    /// Requests that passed their checks in every round.
    good: Vec<usize>,
    /// `refs[round]`: the round's speed-reference readings.
    refs: Vec<Vec<f64>>,
    /// Requests between two readings.
    every: usize,
    windows_s: Vec<f64>,
    client_cpu_s: f64,
    server_cpu_s: f64,
    server_wall_s: f64,
}

impl Rounds {
    fn new(n: usize) -> Rounds {
        Rounds {
            replies: Vec::new(),
            failures: Vec::new(),
            good: (0..n).collect(),
            refs: Vec::new(),
            every: 1,
            windows_s: Vec::new(),
            client_cpu_s: 0.0,
            server_cpu_s: 0.0,
            server_wall_s: 0.0,
        }
    }

    /// Adds one round: `check(i, reply)` names what is wrong with a reply.
    fn add(&mut self, window: Window, mut check: impl FnMut(usize, &Reply) -> Option<String>) {
        let Window {
            replies,
            refs,
            wall,
            cpu,
        } = window;
        let round = self.replies.len();
        let mut bad = Vec::new();
        for (i, reply) in replies.iter().enumerate() {
            let failure = match reply {
                Err(e) => Some(e.to_string()),
                Ok(r) => check(i, r),
            };
            if let Some(f) = failure {
                self.failures
                    .push(format!("round {round} request {i}: {f}"));
                bad.push(i);
            }
        }
        self.good.retain(|i| !bad.contains(i));
        self.replies.push(replies);
        self.refs.push(refs);
        self.windows_s.push(wall.as_secs_f64());
        self.client_cpu_s += cpu.as_secs_f64();
    }

    fn add_server(&mut self, usage: Usage) {
        self.server_cpu_s += usage.cpu.as_secs_f64();
        self.server_wall_s += usage.wall.as_secs_f64();
    }

    fn reply(&self, round: usize, i: usize) -> &Reply {
        self.replies[round][i]
            .as_ref()
            .expect("good requests have replies")
    }

    /// Each good request's time in every round, by `pick`, in ms at the
    /// reference speed (see [`speed`]).
    fn per_round(&self, pick: impl Fn(&Reply) -> Duration) -> Vec<Vec<f64>> {
        (0..self.replies.len())
            .map(|r| {
                self.good
                    .iter()
                    .map(|&i| {
                        let b = i / self.every;
                        ms(pick(self.reply(r, i)))
                            * speed::factor(self.refs[r][b], self.refs[r][b + 1])
                    })
                    .collect()
            })
            .collect()
    }

    /// Each good request's time in every round, by `pick`, in wall ms.
    fn per_round_wall(&self, pick: impl Fn(&Reply) -> Duration) -> Vec<Vec<f64>> {
        (0..self.replies.len())
            .map(|r| {
                self.good
                    .iter()
                    .map(|&i| ms(pick(self.reply(r, i))))
                    .collect()
            })
            .collect()
    }

    /// Sets the end-to-end metrics shared by both serve workloads.
    fn metrics(
        &self,
        out: &mut Outcome,
        setups: &[f64],
        nominal_per_request: impl Fn(usize) -> u64,
        max_rss_mb: f64,
    ) {
        out.failed = self.failures.len() as u64;
        out.check(
            "every request passes its checks",
            self.failures.first().cloned(),
        );
        let totals = median_of(&self.per_round(|r| r.total));
        let t = match tail(&totals) {
            Ok(t) => t,
            Err(e) => {
                out.check("enough good requests for the tail", Some(e));
                return;
            }
        };
        let first_rows = median_of(&self.per_round(|r| r.first_row.unwrap_or(r.total)));
        let busy_s = totals.iter().sum::<f64>() / 1e3;
        let nominal: u64 = self.good.iter().map(|&i| nominal_per_request(i)).sum();
        out.set("setup_s", median(setups));
        out.set("sim_minst_per_s", nominal as f64 / busy_s / 1e6);
        out.set("latency_p50_ms", median(&totals));
        out.set("latency_tail_ms", t.value);
        out.set("first_row_p50_ms", median(&first_rows));
        out.set("req_per_s", self.good.len() as f64 / busy_s);
        out.set("max_rss_mb", max_rss_mb);
        let refs: Vec<f64> = self.refs.iter().flatten().copied().collect();
        speed::record_wall_times(
            out,
            nominal as f64,
            &self.per_round_wall(|r| r.total),
            &refs,
        );
        out.info
            .u64("requests_per_reading", self.every as u64)
            .u64("fleet_workers", 1)
            .u64("http_workers", 1)
            .u64("connections", 1)
            .u64("processes", 1)
            .u64("rounds", self.replies.len() as u64)
            .num("latency_tail_percentile", t.percentile)
            .u64("latency_samples", t.samples as u64)
            .raw("round_windows_s", num_array(&self.windows_s))
            .num("client_cpu_s", self.client_cpu_s)
            .num("server_cpu_s", self.server_cpu_s)
            .num("server_wall_s", self.server_wall_s)
            .raw("setup_samples_s", num_array(setups));
    }
}

/// What a replay of a request sequence measured.
#[derive(Default)]
pub struct Replay {
    /// Per request: the replayed request span (ns), as the server would
    /// spend it between reading the request and writing the last byte.
    request_ns: Vec<u64>,
    /// Gaps between successive `on_row` calls (ms).
    cell_ms: Vec<f64>,
    /// From calling the campaign to its first `on_row` (ms).
    first_row_ms: Vec<f64>,
    /// The CSV each request produced.
    csvs: Vec<String>,
    /// Wall time of the whole replay.
    wall: Duration,
}

/// Replays each request as the server handles it — `parse_spec`,
/// `store_key`, `ResultStore::get`, and on a miss `run_campaign_observed`
/// on a one-worker fleet with a timestamping observer followed by
/// `ResultStore::publish`.
pub fn replay(specs: &[&Spec], store: &ResultStore, rec: &mut Recorder) -> Replay {
    let fleet = Fleet::new(1);
    let mut r = Replay::default();
    let t0 = Instant::now();
    for (i, spec) in specs.iter().enumerate() {
        let id = i as u64;
        let started = Instant::now();
        let request = rec.begin("request", id);
        let config = rec
            .time("serve.parse_spec", id, || parse_spec(spec.body.as_bytes()))
            .expect("specs parsed before the run");
        let key = rec.time("core.store_key", id, || config.store_key());
        let csv = match rec.time("serve.store.get", id, || store.get(&key)) {
            Some(csv) => csv,
            None => {
                let call = rec.begin("core.run_campaign", id);
                let called = Instant::now();
                let arrivals = Mutex::new(Vec::with_capacity(spec.cells));
                let report = run_campaign_observed(
                    &fleet,
                    &config,
                    &store.journal_path(&key),
                    true,
                    |_, _| arrivals.lock().expect("arrivals").push(Instant::now()),
                );
                let mut prev = called;
                for (k, at) in arrivals
                    .into_inner()
                    .expect("arrivals")
                    .into_iter()
                    .enumerate()
                {
                    if k == 0 {
                        r.first_row_ms.push(ms(at - called));
                    }
                    r.cell_ms.push(ms(at - prev));
                    let (start, end) = (rec.ns(prev), rec.ns(at));
                    rec.record("core.campaign.cell", id, Some(call), start, end);
                    prev = at;
                }
                rec.end(call);
                let csv = report.map(|rep| rep.csv()).unwrap_or_default();
                if let Err(e) = rec.time("serve.store.publish", id, || store.publish(&key, &csv)) {
                    eprintln!("perfbench: replay publish failed: {e}");
                }
                csv
            }
        };
        rec.end(request);
        r.request_ns.push(started.elapsed().as_nanos() as u64);
        r.csvs.push(csv);
    }
    r.wall = t0.elapsed();
    r
}

impl Replay {
    /// Per request: the replayed request span, ns.
    pub fn request_ns(&self) -> &[u64] {
        &self.request_ns
    }
}

/// Sets the serve-side layer costs from the spans recorded at index `from`
/// or later, leaving alone any the spans do not cover.
pub fn layer_metrics(rec: &Recorder, from: usize, r: &Replay, out: &mut Outcome) {
    for (metric, span, scale) in [
        ("serve.spec.parse_us", "serve.parse_spec", 1e3),
        ("core.campaign.store_key_us", "core.store_key", 1e3),
        ("serve.store.get_us", "serve.store.get", 1e3),
        ("serve.store.publish_ms", "serve.store.publish", 1e6),
        ("serve.store.fsck_ms", "serve.store.fsck", 1e6),
    ] {
        let durations: Vec<u64> = rec.spans()[from..]
            .iter()
            .filter(|s| s.name == span)
            .map(|s| s.dur())
            .collect();
        if !durations.is_empty() {
            let mean = durations.iter().sum::<u64>() as f64 / durations.len() as f64;
            out.set(metric, mean / scale);
        }
    }
    if !r.cell_ms.is_empty() {
        out.set("core.campaign.cell_ms_p50", median(&r.cell_ms));
        out.set("core.campaign.first_row_ms", median(&r.first_row_ms));
    }
}

/// Traced replay, bare replay, and the per-layer metrics they yield.
fn trace_serve(
    ctx: &Ctx,
    out: &mut Outcome,
    specs: &[&Spec],
    rounds: &Rounds,
    store_for: &dyn Fn(&str) -> io::Result<ResultStore>,
) -> Result<(), String> {
    let served: Vec<&[u8]> = rounds
        .good
        .iter()
        .map(|&i| rounds.reply(0, i).body.as_slice())
        .collect();
    // Layer spans are wall times, so the residual is taken against wall
    // times too.
    let typical_ms = median_of(&rounds.per_round_wall(|r| r.total));
    let mut rec = Recorder::new();
    let traced_store = store_for("replay-traced").map_err(|e| e.to_string())?;
    rec.time("serve.store.fsck", 0, || traced_store.fsck());
    let traced = replay(specs, &traced_store, &mut rec);
    // The bare replay, recorder off, repeats the first fifth of the
    // requests: enough to price the recorder without doubling the run.
    let k = (specs.len() / 5).max(1);
    let bare_store = store_for("replay-bare").map_err(|e| e.to_string())?;
    let bare = replay(&specs[..k], &bare_store, &mut Recorder::disabled());
    let differ = traced
        .csvs
        .iter()
        .chain(&bare.csvs)
        .zip(served.iter().chain(&served[..k]))
        .filter(|(csv, want)| csv.as_bytes() != **want)
        .count();
    out.expect("replay reproduces every served body", differ == 0, || {
        format!("{differ} replayed bodies differ from the served ones")
    });
    layer_metrics(&rec, 0, &traced, out);
    let residual_us: Vec<f64> = typical_ms
        .iter()
        .zip(&traced.request_ns)
        .map(|(&typical, &ns)| typical * 1e3 - ns as f64 / 1e3)
        .collect();
    out.set("serve.http.overhead_us", median(&residual_us));
    // The replay has no HTTP layer: its tracing overhead is measured
    // against the bare replay of the same calls, and its coverage against
    // the client-side request times.
    let traced_k = traced.request_ns[..k].iter().sum::<u64>() as f64 / 1e6;
    finish_trace(ctx, &mut rec, out, traced_k, ms(bare.wall))?;
    let client_ms: f64 = typical_ms.iter().sum();
    out.set("trace.coverage_pct", ms(traced.wall) / client_ms * 100.0);
    Ok(())
}

/// `serve_cold`.
pub fn run_cold(ctx: &Ctx) -> Result<Outcome, String> {
    // Each round runs on a fresh server over a fresh store, so every
    // request of every round is a miss.
    let specs = cold_specs(
        ctx.seed,
        request_count(input_seconds(ctx.seconds), COLD_PER_SECOND),
    )?;
    let n = specs.len();
    let mut out = Outcome::default();
    // The rounds' servers are set-ups too; the rest start on an empty store.
    let mut setups = Vec::with_capacity(SETUPS);
    let empty = ctx.work.join("empty");
    fs::create_dir_all(&empty).map_err(|e| e.to_string())?;
    for _ in MIN_ROUNDS..SETUPS {
        let (server, setup) = start(ctx, &empty)?;
        setups.push(setup);
        stop(server)?;
    }
    let mut rounds = Rounds::new(n);
    let mut max_rss_mb = 0.0f64;
    let mut stats = Vec::new();
    let mut healthz = 0.0;
    let timed = Instant::now();
    while another_round(timed, stats.len(), ctx.seconds) {
        let round = stats.len();
        let store = ctx.work.join(format!("store-{round}"));
        fs::create_dir_all(&store).map_err(|e| e.to_string())?;
        let (server, setup) = start(ctx, &store)?;
        setups.push(setup);
        let addr = server.addr;
        let watch = RssWatch::start(&server.proc);
        let window = closed_loop(addr, specs.iter().map(|s| s.body.as_str()), rounds.every);
        let round_stats = server_stats(addr)?;
        rounds.add(window, |i, r| {
            cold_failure(&specs[i], r).or_else(|| {
                match client::send(
                    addr,
                    "GET",
                    &format!("/result/{}", specs[i].key),
                    b"",
                    TIMEOUT,
                ) {
                    Ok(stored) if stored.status == 200 && stored.body == r.body => None,
                    Ok(stored) => Some(format!("GET /result differs (status {})", stored.status)),
                    Err(e) => Some(format!("GET /result: {e}")),
                }
            })
        });
        if ctx.trace {
            healthz = healthz_rtt_us(addr);
        }
        max_rss_mb = max_rss_mb.max(watch.finish());
        rounds.add_server(stop(server)?);
        out.expect(
            &format!("round {round}: every request executed once"),
            stat(&round_stats, "executions") == n as u64 && stat(&round_stats, "cache_hits") == 0,
            || format!("server stats {round_stats:?}"),
        );
        stats.push(round_stats);
    }
    out.attempted = (n * stats.len()) as u64;
    let last = stats.len() - 1;
    let differing = rounds
        .good
        .iter()
        .filter(|&&i| rounds.reply(0, i).body != rounds.reply(last, i).body)
        .count();
    out.expect(
        "every round streams the same bodies",
        differing == 0,
        || format!("{differing} requests differ between rounds"),
    );
    rounds.metrics(&mut out, &setups, |i| specs[i].nominal, max_rss_mb);
    out.info.u64("cells_per_request", specs[0].cells as u64);

    if ctx.trace {
        let bodies: Vec<&str> = rounds
            .good
            .iter()
            .map(|&i| std::str::from_utf8(&rounds.reply(0, i).body).unwrap_or(""))
            .collect();
        count_rows(&mut out, &bodies);
        let last = stats.last().expect("at least one round");
        out.set(
            "serve.cache_hit_ratio",
            stat(last, "cache_hits") as f64 / stat(last, "campaign_requests").max(1) as f64,
        );
        out.set("serve.http.healthz_rtt_us", healthz);
        let good_specs: Vec<&Spec> = rounds.good.iter().map(|&i| &specs[i]).collect();
        let work = ctx.work.clone();
        trace_serve(ctx, &mut out, &good_specs, &rounds, &|name| {
            ResultStore::open(&work.join(name))
        })?;
    }
    Ok(out)
}

/// `serve_hits`.
pub fn run_hits(ctx: &Ctx) -> Result<Outcome, String> {
    let specs = hit_specs(ctx.seed)?;
    let store_dir = ctx.work.join("store");
    let store = ResultStore::open(&store_dir).map_err(|e| e.to_string())?;

    // Fill the store once, untimed: co-sim bundles on one thread produce
    // the same CSV the server would, at a fraction of the cost.
    let fill_start = Instant::now();
    let mut expected = Vec::with_capacity(specs.len());
    for spec in &specs {
        let config = CampaignConfig {
            cosim: true,
            ..spec.config
        };
        let report = run_campaign(
            &Fleet::new(1),
            &config,
            &store.journal_path(&spec.key),
            false,
        )?;
        if !report.failures().is_empty() || report.panicked > 0 {
            return Err(format!("fill campaign {} failed", spec.body));
        }
        let csv = report.csv();
        store.publish(&spec.key, &csv).map_err(|e| e.to_string())?;
        expected.push(csv);
    }
    let fill = fill_start.elapsed();

    let n = request_count(input_seconds(ctx.seconds), HITS_PER_SECOND);
    let picks: Vec<usize> = (0..n)
        .map(|j| (mix(ctx.seed ^ 0x9175, j as u64) % HIT_SPECS as u64) as usize)
        .collect();
    let mut out = Outcome::default();
    let (setups, server) = ready_server(ctx, &store_dir)?;
    let addr = server.addr;
    let watch = RssWatch::start(&server.proc);
    let before = server_stats(addr)?;
    let mut rounds = Rounds::new(n);
    rounds.every = HITS_PER_READING;
    let start = Instant::now();
    while another_round(start, rounds.replies.len(), ctx.seconds) {
        let window = closed_loop(
            addr,
            picks.iter().map(|&p| specs[p].body.as_str()),
            rounds.every,
        );
        rounds.add(window, |j, r| {
            if r.status != 200 {
                Some(format!("status {}", r.status))
            } else if r.header("x-cache") != Some("hit") {
                Some(format!("X-Cache {:?}", r.header("x-cache")))
            } else if !r.complete || r.body != expected[picks[j]].as_bytes() {
                Some("body differs from the stored CSV".to_string())
            } else {
                None
            }
        });
    }
    out.attempted = (n * rounds.replies.len()) as u64;
    let after = server_stats(addr)?;
    let healthz = ctx.trace.then(|| healthz_rtt_us(addr));
    let max_rss_mb = watch.finish();
    rounds.add_server(stop(server)?);

    for counter in ["executions", "cells_executed"] {
        out.expect(
            &format!("/stats {counter} unchanged across the rounds"),
            stat(&before, counter) == stat(&after, counter),
            || format!("{} -> {}", stat(&before, counter), stat(&after, counter)),
        );
    }
    rounds.metrics(&mut out, &setups, |j| specs[picks[j]].nominal, max_rss_mb);
    let riscv_share = picks
        .iter()
        .filter(|&&p| specs[p].config.riscv_tuples > 0)
        .count() as f64
        / n as f64;
    out.info
        .u64("store_entries", specs.len() as u64)
        .num("fill_s", fill.as_secs_f64())
        .num("riscv_request_share", riscv_share);

    if ctx.trace {
        let csvs: Vec<&str> = expected.iter().map(String::as_str).collect();
        count_rows(&mut out, &csvs);
        out.set(
            "serve.cache_hit_ratio",
            stat(&after, "cache_hits") as f64 / stat(&after, "campaign_requests").max(1) as f64,
        );
        out.set("serve.http.healthz_rtt_us", healthz.unwrap_or(0.0));
        let good_specs: Vec<&Spec> = rounds.good.iter().map(|&j| &specs[picks[j]]).collect();
        // Both replays read the filled store; neither writes it.
        trace_serve(ctx, &mut out, &good_specs, &rounds, &|_| {
            ResultStore::open(&store_dir)
        })?;
    }
    Ok(out)
}
