//! The campaign server: HTTP front end, worker pool, request
//! coalescing and the execute-once contract.
//!
//! # Request life cycle (`POST /campaign`)
//!
//! 1. The spec parses ([`parse_spec`]) into a [`CampaignConfig`], whose
//!    [`store_key`](CampaignConfig::store_key) names the experiment.
//! 2. **Hit** — the store already holds the key's CSV: serve it
//!    verbatim (`X-Cache: hit`). Byte-identical to the executed
//!    response by construction, because the executed response *is* the
//!    CSV that was published.
//! 3. **Miss** — this connection becomes the key's *leader*: it
//!    registers an in-flight entry, streams verdict rows to its client
//!    as chunked CSV while the campaign executes on the server's
//!    [`Executor`], then atomically publishes the finished CSV to the
//!    store and wakes the waiters.
//! 4. **Coalesced** — a concurrent request for the same key finds the
//!    in-flight entry and blocks on its condvar instead of executing;
//!    on wake-up it serves the freshly published CSV
//!    (`X-Cache: coalesced`). N identical concurrent requests execute
//!    the campaign exactly once.
//!
//! The leader journals rows at the store's per-key journal path with
//! resume enabled, so a server killed mid-campaign picks up where it
//! left off when the key is next requested — completed cells are reused
//! verbatim and the final CSV is bit-identical to an uninterrupted run
//! (the campaign module's resume contract).
//!
//! The executor hands rows over in CSV order, a row reused from a
//! resumed journal as soon as every row before it has gone and a tuple's
//! rows together when its bundle is journalled; each becomes one chunk,
//! so the streamed body is exactly [`CampaignReport::csv`] — which is
//! also what lands in the store, keeping hit, coalesced and miss
//! responses byte-identical.
//!
//! [`CampaignReport::csv`]: tv_core::CampaignReport::csv
//! [`Executor`]: tv_core::Executor

use std::collections::HashMap;
use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use tv_core::campaign::HEADER;
use tv_core::{CampaignConfig, ClusterConfig, Executor, Fleet};

use crate::http::{
    read_request_limited, write_response, ChunkedWriter, Limits, Request, RequestError,
    DEFAULT_MAX_BODY,
};
use crate::json::Obj;
use crate::spec::parse_spec;
use crate::store::ResultStore;

/// Server construction parameters.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Result-store directory.
    pub store_dir: PathBuf,
    /// Fleet worker threads for campaign bundles (`0` = one per core);
    /// unused when `procs > 0`.
    pub fleet_workers: usize,
    /// HTTP worker threads (concurrent connections in service).
    pub http_workers: usize,
    /// Campaign worker *processes*; `0` keeps execution on the in-process
    /// thread fleet, `N > 0` runs each campaign on the multi-process
    /// fleet instead (same CSV bytes either way).
    pub procs: usize,
    /// Cluster worker command (empty = this executable with `--worker`);
    /// only meaningful with `procs > 0`. Lets tests and embedders point
    /// at a binary that actually has a campaign worker mode.
    pub worker_cmd: Vec<String>,
    /// Per-connection socket read/write timeout; a stalled client is cut
    /// off (best-effort `408`) instead of pinning an HTTP worker thread
    /// forever. `None` disables (tests only).
    pub io_timeout: Option<Duration>,
    /// Request-body byte cap; larger declared bodies get `413`.
    pub max_body: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            store_dir: PathBuf::from("bench_results/store"),
            fleet_workers: 0,
            http_workers: 8,
            procs: 0,
            worker_cmd: Vec::new(),
            io_timeout: Some(Duration::from_secs(10)),
            max_body: DEFAULT_MAX_BODY,
        }
    }
}

/// Monotonic server counters, exposed on `GET /stats`.
///
/// `executions` counts campaigns actually run; a warm-cache load test
/// asserting "zero re-simulations" checks that `executions` did not move
/// between two `/stats` snapshots.
#[derive(Debug, Default)]
pub struct Stats {
    /// All HTTP requests accepted (any endpoint, any outcome).
    pub requests: AtomicU64,
    /// `POST /campaign` requests with a well-formed spec.
    pub campaign_requests: AtomicU64,
    /// Campaign requests served from the store.
    pub cache_hits: AtomicU64,
    /// Campaign requests that waited on another request's execution.
    pub coalesced: AtomicU64,
    /// Campaigns executed (one per unique in-flight key).
    pub executions: AtomicU64,
    /// Cells simulated across all executions.
    pub cells_executed: AtomicU64,
    /// Cells reused from resume journals across all executions.
    pub cells_reused: AtomicU64,
    /// Requests answered with a 4xx/5xx status.
    pub errors: AtomicU64,
}

impl Stats {
    fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Renders the counters as a JSON object.
    pub fn to_json(&self, store_entries: usize) -> String {
        let mut o = Obj::new();
        o.u64("requests", self.requests.load(Ordering::Relaxed))
            .u64(
                "campaign_requests",
                self.campaign_requests.load(Ordering::Relaxed),
            )
            .u64("cache_hits", self.cache_hits.load(Ordering::Relaxed))
            .u64("coalesced", self.coalesced.load(Ordering::Relaxed))
            .u64("executions", self.executions.load(Ordering::Relaxed))
            .u64("cells_executed", self.cells_executed.load(Ordering::Relaxed))
            .u64("cells_reused", self.cells_reused.load(Ordering::Relaxed))
            .u64("errors", self.errors.load(Ordering::Relaxed))
            .u64("store_entries", store_entries as u64);
        o.render()
    }
}

/// One key's in-flight execution: waiters block on the condvar until
/// the leader flips `done` (after publishing to the store).
struct Inflight {
    done: Mutex<bool>,
    cv: Condvar,
}

impl Inflight {
    fn new() -> Self {
        Inflight {
            done: Mutex::new(false),
            cv: Condvar::new(),
        }
    }

    fn finish(&self) {
        *self.done.lock().expect("inflight lock") = true;
        self.cv.notify_all();
    }

    fn wait(&self) {
        let mut done = self.done.lock().expect("inflight lock");
        while !*done {
            done = self.cv.wait(done).expect("inflight wait");
        }
    }
}

/// Shared server state.
struct State {
    executor: Executor,
    store: ResultStore,
    stats: Stats,
    inflight: Mutex<HashMap<String, Arc<Inflight>>>,
    shutdown: AtomicBool,
    io_timeout: Option<Duration>,
    limits: Limits,
    http_workers: usize,
}

/// A running campaign server.
pub struct Server {
    addr: SocketAddr,
    state: Arc<State>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds, spawns the accept thread and the HTTP worker pool, and
    /// returns immediately.
    ///
    /// # Errors
    ///
    /// Propagates bind and store-creation failures.
    pub fn start(config: &ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let store = ResultStore::open(&config.store_dir)?;
        // Startup fsck: never serve bytes that rotted while we were
        // down. Evicted keys simply re-execute on their next request.
        let fsck = store.fsck();
        if !fsck.evicted.is_empty() {
            eprintln!(
                "tv-serve: startup fsck evicted {} corrupt store entr{} ({} verified)",
                fsck.evicted.len(),
                if fsck.evicted.len() == 1 { "y" } else { "ies" },
                fsck.ok,
            );
        }
        let executor = if config.procs > 0 {
            let mut cluster = ClusterConfig::new(config.procs);
            cluster.worker_cmd = config.worker_cmd.clone();
            Executor::Procs(cluster)
        } else if config.fleet_workers == 0 {
            Executor::Threads(Fleet::auto())
        } else {
            Executor::Threads(Fleet::new(config.fleet_workers))
        };
        let state = Arc::new(State {
            executor,
            store,
            stats: Stats::default(),
            inflight: Mutex::new(HashMap::new()),
            shutdown: AtomicBool::new(false),
            io_timeout: config.io_timeout,
            limits: Limits {
                max_body: config.max_body,
                ..Limits::default()
            },
            http_workers: config.http_workers.max(1),
        });

        let (tx, rx): (Sender<TcpStream>, Receiver<TcpStream>) = channel();
        let rx = Arc::new(Mutex::new(rx));
        let workers = (0..config.http_workers.max(1))
            .map(|i| {
                let rx = Arc::clone(&rx);
                let state = Arc::clone(&state);
                thread::Builder::new()
                    .name(format!("tv-serve-http-{i}"))
                    .spawn(move || loop {
                        let stream = match rx.lock().expect("worker queue").recv() {
                            Ok(s) => s,
                            Err(_) => break, // accept thread gone: drain done
                        };
                        handle_connection(&state, stream);
                    })
                    .expect("spawn http worker")
            })
            .collect();

        let accept_state = Arc::clone(&state);
        let accept = thread::Builder::new()
            .name("tv-serve-accept".to_string())
            .spawn(move || {
                // The sender lives here: breaking out drops it, which
                // shuts the worker pool down after the queue drains.
                for stream in listener.incoming() {
                    if accept_state.shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    match stream {
                        Ok(s) => {
                            if tx.send(s).is_err() {
                                break;
                            }
                        }
                        Err(_) => continue,
                    }
                }
            })
            .expect("spawn accept thread");

        Ok(Server {
            addr,
            state,
            accept: Some(accept),
            workers,
        })
    }

    /// The bound address (resolves port `0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Asks the server to stop accepting connections. Idempotent; also
    /// triggered remotely by `POST /shutdown`.
    pub fn trigger_shutdown(&self) {
        self.state.shutdown.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throw-away connection.
        TcpStream::connect(self.addr).ok();
    }

    /// Blocks until the accept thread and every HTTP worker exit —
    /// i.e. until shutdown was triggered and in-service requests
    /// finished.
    pub fn wait(mut self) {
        if let Some(accept) = self.accept.take() {
            accept.join().expect("accept thread");
        }
        for w in self.workers.drain(..) {
            w.join().expect("http worker");
        }
    }

    /// Stops the server and waits for in-service requests to finish.
    pub fn stop(self) {
        self.trigger_shutdown();
        self.wait();
    }
}

/// Serves one connection: parse, route, respond, close.
fn handle_connection(state: &State, stream: TcpStream) {
    // Chaos connection faults: a scheduled reset drops the connection
    // before a single byte is served (the client sees EOF and must
    // retry); a stall holds it for a while first — exactly the slow-loris
    // shape the io_timeout machinery exists for.
    if let Some(plan) = tv_core::chaos::active_plan() {
        use tv_core::chaos::Site;
        if plan.decide(Site::ConnStall) {
            std::thread::sleep(plan.stall(Site::ConnStall));
        }
        if plan.decide(Site::ConnReset) {
            drop(stream);
            return;
        }
    }
    // Per-connection deadline: a client that never sends (or never
    // reads) gets cut off instead of pinning this worker thread.
    if state.io_timeout.is_some() {
        if stream.set_read_timeout(state.io_timeout).is_err()
            || stream.set_write_timeout(state.io_timeout).is_err()
        {
            return;
        }
    }
    let read_half = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let mut reader = BufReader::new(read_half);
    let request = match read_request_limited(&mut reader, &state.limits) {
        Ok(Some(r)) => r,
        Ok(None) => return, // idle close (e.g. the shutdown poke)
        Err(RequestError::BodyTooLarge { declared, cap }) => {
            Stats::bump(&state.stats.errors);
            respond_plain(
                state,
                stream,
                413,
                &format!("request body of {declared} bytes exceeds the {cap}-byte cap\n"),
            );
            return;
        }
        Err(RequestError::Malformed(e)) => {
            Stats::bump(&state.stats.errors);
            respond_plain(state, stream, 400, &format!("bad request: {e}\n"));
            return;
        }
        Err(RequestError::Io(e)) => {
            // A timed-out read gets a best-effort 408 (the write may
            // itself time out — fine, the connection drops either way).
            if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) {
                Stats::bump(&state.stats.errors);
                respond_plain(state, stream, 408, "request timeout\n");
            }
            return;
        }
    };
    Stats::bump(&state.stats.requests);

    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => {
            let mut stream = stream;
            write_response(&mut stream, 200, &[], "text/plain", b"ok\n").ok();
        }
        ("GET", "/health") => {
            let draining = state.shutdown.load(Ordering::SeqCst);
            let (fleet_workers, cluster_procs) = match &state.executor {
                Executor::Threads(fleet) => (fleet.workers(), 0),
                Executor::Procs(cluster) => (0, cluster.procs),
            };
            let mut o = Obj::new();
            o.str("status", if draining { "draining" } else { "ok" })
                .u64("http_workers", state.http_workers as u64)
                .u64("fleet_workers", fleet_workers as u64)
                .u64("cluster_procs", cluster_procs as u64)
                .u64("store_entries", state.store.len() as u64)
                .u64(
                    "inflight",
                    state.inflight.lock().expect("inflight map").len() as u64,
                )
                .u64("requests", state.stats.requests.load(Ordering::Relaxed))
                .u64("executions", state.stats.executions.load(Ordering::Relaxed))
                .u64("errors", state.stats.errors.load(Ordering::Relaxed));
            let body = o.render();
            let mut stream = stream;
            write_response(&mut stream, 200, &[], "application/json", body.as_bytes()).ok();
        }
        ("GET", "/fsck") => {
            let report = state.store.fsck();
            let mut o = Obj::new();
            o.u64("checked", report.checked as u64)
                .u64("ok", report.ok as u64)
                .u64("evicted", report.evicted.len() as u64)
                .u64("journals", report.journals as u64);
            let body = o.render();
            if !report.evicted.is_empty() {
                eprintln!(
                    "tv-serve: /fsck evicted {} corrupt entr{}",
                    report.evicted.len(),
                    if report.evicted.len() == 1 { "y" } else { "ies" },
                );
            }
            let mut stream = stream;
            write_response(&mut stream, 200, &[], "application/json", body.as_bytes()).ok();
        }
        ("GET", "/stats") => {
            let body = state.stats.to_json(state.store.len());
            let mut stream = stream;
            write_response(&mut stream, 200, &[], "application/json", body.as_bytes()).ok();
        }
        ("POST", "/shutdown") => {
            state.shutdown.store(true, Ordering::SeqCst);
            let addr = stream.local_addr().ok();
            let mut stream = stream;
            write_response(&mut stream, 200, &[], "text/plain", b"shutting down\n").ok();
            drop(stream);
            if let Some(addr) = addr {
                TcpStream::connect(addr).ok(); // unblock the accept loop
            }
        }
        ("POST", "/campaign") => handle_campaign(state, &request, stream),
        ("GET", path) if path.starts_with("/result/") => {
            handle_result(state, &path["/result/".len()..], stream);
        }
        (_, "/campaign" | "/shutdown") => {
            Stats::bump(&state.stats.errors);
            respond_plain(state, stream, 405, "method not allowed\n");
        }
        (_, path) if path.starts_with("/result/") => {
            Stats::bump(&state.stats.errors);
            respond_plain(state, stream, 405, "method not allowed\n");
        }
        _ => {
            Stats::bump(&state.stats.errors);
            respond_plain(state, stream, 404, "no such endpoint\n");
        }
    }
}

fn respond_plain(_state: &State, mut stream: TcpStream, status: u16, body: &str) {
    write_response(&mut stream, status, &[], "text/plain", body.as_bytes()).ok();
}

/// `GET /result/<key>`: fetches a finished campaign CSV from the
/// content-addressed store by its `X-Store-Key`, without re-POSTing the
/// spec. Unknown keys are `404`; a key that is not 16 hex chars can
/// never name a store entry (and must not reach the filesystem), so it
/// is `400`.
fn handle_result(state: &State, key: &str, stream: TcpStream) {
    let well_formed =
        key.len() == 16 && key.bytes().all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b));
    if !well_formed {
        Stats::bump(&state.stats.errors);
        respond_plain(state, stream, 400, "malformed store key\n");
        return;
    }
    match state.store.get(key) {
        Some(csv) => serve_csv(stream, key, "hit", &csv),
        None => {
            Stats::bump(&state.stats.errors);
            respond_plain(state, stream, 404, "no stored result for this key\n");
        }
    }
}

/// Writes one chunk of a streamed response. A failed write means the
/// client went away: the writer is dropped and the campaign keeps
/// executing — the store and any coalesced waiters still want the result.
fn write_chunk(writer: &mut Option<ChunkedWriter>, bytes: &[u8]) {
    if let Some(w) = writer.as_mut() {
        if w.chunk(bytes).is_err() {
            *writer = None;
        }
    }
}

/// `POST /campaign`: hit, coalesce or lead.
fn handle_campaign(state: &State, request: &Request, stream: TcpStream) {
    let config = match parse_spec(&request.body) {
        Ok(c) => c,
        Err(e) => {
            Stats::bump(&state.stats.errors);
            respond_plain(state, stream, 400, &format!("bad spec: {e}\n"));
            return;
        }
    };
    Stats::bump(&state.stats.campaign_requests);
    let key = config.store_key();

    if let Some(csv) = state.store.get(&key) {
        Stats::bump(&state.stats.cache_hits);
        serve_csv(stream, &key, "hit", &csv);
        return;
    }

    // Join or create the key's in-flight entry.
    let (inflight, leader) = {
        let mut map = state.inflight.lock().expect("inflight map");
        match map.get(&key) {
            Some(entry) => (Arc::clone(entry), false),
            None => {
                let entry = Arc::new(Inflight::new());
                map.insert(key.clone(), Arc::clone(&entry));
                (Arc::clone(&entry), true)
            }
        }
    };

    if !leader {
        inflight.wait();
        match state.store.get(&key) {
            Some(csv) => {
                Stats::bump(&state.stats.coalesced);
                serve_csv(stream, &key, "coalesced", &csv);
            }
            None => {
                // The leader failed; surface that instead of retrying
                // (the client can resubmit, which resumes the journal).
                Stats::bump(&state.stats.errors);
                respond_plain(state, stream, 500, "campaign execution failed\n");
            }
        }
        return;
    }

    // Leadership won after the cache check raced a publisher: another
    // leader may have published between our `get` miss and the map
    // insert. Re-check before paying for an execution.
    if let Some(csv) = state.store.get(&key) {
        release_inflight(state, &key, &inflight);
        Stats::bump(&state.stats.cache_hits);
        serve_csv(stream, &key, "hit", &csv);
        return;
    }

    Stats::bump(&state.stats.executions);
    lead_campaign(state, &config, &key, stream);
    release_inflight(state, &key, &inflight);
}

/// Marks the key's in-flight entry done and unregisters it.
fn release_inflight(state: &State, key: &str, inflight: &Inflight) {
    inflight.finish();
    state.inflight.lock().expect("inflight map").remove(key);
}

/// Executes the campaign as the key's leader, streaming rows to the
/// client and publishing the CSV to the store.
fn lead_campaign(state: &State, config: &CampaignConfig, key: &str, stream: TcpStream) {
    // Start the chunked response before executing; if the client is
    // already gone, execute anyway — waiters and the store still want
    // the result.
    let mut writer = ChunkedWriter::start(
        stream,
        200,
        &[("X-Cache", "miss"), ("X-Store-Key", key)],
        "text/csv",
    )
    .ok();
    write_chunk(&mut writer, format!("{HEADER}\n").as_bytes());

    let journal = state.store.journal_path(key);
    let report = state.executor.run_campaign(config, &journal, true, |_, row| {
        write_chunk(&mut writer, format!("{row}\n").as_bytes());
    });

    match report {
        Ok(report) => {
            Stats::add(&state.stats.cells_executed, report.executed as u64);
            Stats::add(&state.stats.cells_reused, report.reused as u64);
            if let Err(e) = state.store.publish(key, &report.csv()) {
                eprintln!("tv-serve: publish {key} failed: {e}");
                Stats::bump(&state.stats.errors);
            }
            if let Some(w) = writer {
                w.finish().ok();
            }
        }
        Err(e) => {
            // The journal (if any) stays behind for the next attempt to
            // resume. The chunked body ends without its terminating
            // chunk, which clients see as a truncated transfer.
            eprintln!("tv-serve: campaign {key} failed: {e}");
            Stats::bump(&state.stats.errors);
        }
    }
}

/// Process-wide SIGTERM latch for graceful drain; see
/// [`install_sigterm_handler`].
static SIGTERM: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
extern "C" fn on_sigterm(_sig: i32) {
    // A relaxed-ordering store on a static atomic is the only
    // async-signal-safe thing a handler may do.
    SIGTERM.store(true, Ordering::SeqCst);
}

/// Installs a SIGTERM handler that latches the signal into a flag
/// instead of killing the process. A host binary polls
/// [`sigterm_received`] and, when set, drains gracefully:
/// [`Server::trigger_shutdown`] (stop accepting), [`Server::wait`]
/// (finish in-flight requests), flush, exit 0. Idempotent; no-op on
/// non-unix targets.
pub fn install_sigterm_handler() {
    #[cfg(unix)]
    {
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        let handler: extern "C" fn(i32) = on_sigterm;
        unsafe {
            signal(15, handler as usize);
        }
    }
}

/// Whether a SIGTERM arrived since [`install_sigterm_handler`] armed
/// the latch.
pub fn sigterm_received() -> bool {
    SIGTERM.load(Ordering::SeqCst)
}

/// Serves a finished CSV with cache-disposition headers.
fn serve_csv(mut stream: TcpStream, key: &str, disposition: &str, csv: &str) {
    write_response(
        &mut stream,
        200,
        &[("X-Cache", disposition), ("X-Store-Key", key)],
        "text/csv",
        csv.as_bytes(),
    )
    .ok();
}
