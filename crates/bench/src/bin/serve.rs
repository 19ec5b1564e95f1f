//! The campaign server binary: `tv-serve` over a result-store directory.
//!
//! ```text
//! serve [--addr HOST:PORT]   bind address      (default 127.0.0.1:7713;
//!                            port 0 picks a free port)
//!       [--store DIR]        result store      (default bench_results/store)
//!       [--workers N]        fleet workers     (default: one per core)
//!       [--http-workers N]   connections in service concurrently (default 8)
//!       [--procs N]          run campaigns on N worker *processes* (the
//!                            multi-process fleet) instead of in-process
//!                            threads
//!       [--io-timeout SECS]  per-connection socket timeout (default 10;
//!                            0 disables)
//!       [--max-body BYTES]   request-body cap, 413 above it (default 1 MiB)
//!       [--addr-file PATH]   write the bound address to PATH (for scripts
//!                            binding port 0)
//! serve --fsck [--store DIR] offline store check: verify every entry's
//!                            checksum sidecar, evict corrupt ones, print
//!                            a JSON report and exit (0 = store healthy,
//!                            1 = entries were evicted)
//! serve --worker             cluster protocol worker (spawned by --procs)
//! ```
//!
//! Prints `listening on http://ADDR` once bound, then serves until
//! `POST /shutdown` or SIGTERM (graceful drain: stop accepting, finish
//! in-flight requests, exit 0). A `kill -9` is also safe — in-flight
//! campaign journals survive in the store and resume on the next request
//! for the same spec.
//!
//! Endpoints: `POST /campaign` (JSON spec -> streamed verdict CSV, with
//! `X-Cache: hit|miss|coalesced` and `X-Store-Key` headers),
//! `GET /stats`, `GET /healthz`, `GET /health` (pool/store JSON),
//! `GET /fsck` (on-demand store verification), `POST /shutdown`.

use std::path::PathBuf;
use std::time::Duration;

use tv_bench::harness::Cli;
use tv_serve::{ServeConfig, Server};

/// `serve --fsck`: verify-and-heal the store without serving.
fn run_fsck(store_dir: &std::path::Path) -> std::process::ExitCode {
    let store = match tv_serve::ResultStore::open(store_dir) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("serve: cannot open store {}: {e}", store_dir.display());
            return std::process::ExitCode::from(2);
        }
    };
    let report = store.fsck();
    let mut o = tv_serve::json::Obj::new();
    o.str("store", &store_dir.display().to_string())
        .u64("checked", report.checked as u64)
        .u64("ok", report.ok as u64)
        .u64("evicted", report.evicted.len() as u64)
        .u64("journals", report.journals as u64);
    println!("{}", o.render());
    if report.evicted.is_empty() {
        std::process::ExitCode::SUCCESS
    } else {
        std::process::ExitCode::FAILURE
    }
}

fn main() -> std::process::ExitCode {
    // Chaos injection (TV_CHAOS=<seed>:<profile>) covers the server's
    // connection handling and, via derived worker schedules, --procs
    // campaign workers.
    if let Err(e) = tv_core::chaos::install_from_env() {
        eprintln!("serve: {e}");
        return std::process::ExitCode::from(2);
    }
    // Worker mode speaks the cluster protocol on stdin/stdout and must
    // be dispatched before anything can print to stdout. The server
    // spawns `serve --worker` processes when started with `--procs`.
    if std::env::args().nth(1).as_deref() == Some("--worker") {
        return tv_core::campaign_worker();
    }
    let mut config = ServeConfig {
        addr: "127.0.0.1:7713".to_string(),
        ..ServeConfig::default()
    };
    let mut addr_file: Option<PathBuf> = None;
    let mut fsck_only = false;
    let mut cli = Cli::new(
        "serve",
        "serve [--addr HOST:PORT] [--store DIR] [--workers N] [--http-workers N] \
         [--procs N] [--io-timeout SECS] [--max-body BYTES] [--addr-file PATH] \
         | serve --fsck [--store DIR] | serve --worker",
    );
    while let Some(arg) = cli.next_arg() {
        match arg.as_str() {
            "--fsck" => fsck_only = true,
            "--addr" => config.addr = cli.value("--addr"),
            "--store" => config.store_dir = PathBuf::from(cli.value("--store")),
            "--workers" => config.fleet_workers = cli.parse("--workers"),
            "--http-workers" => config.http_workers = cli.parse("--http-workers"),
            "--procs" => config.procs = cli.parse("--procs"),
            "--io-timeout" => {
                let secs: u64 = cli.parse("--io-timeout");
                config.io_timeout = (secs > 0).then(|| Duration::from_secs(secs));
            }
            "--max-body" => config.max_body = cli.parse("--max-body"),
            "--addr-file" => addr_file = Some(PathBuf::from(cli.value("--addr-file"))),
            other => cli.unknown(other),
        }
    }

    if fsck_only {
        return run_fsck(&config.store_dir);
    }

    // Graceful drain: SIGTERM latches a flag; the monitor thread then
    // triggers the normal shutdown path (stop accepting, finish
    // in-flight requests) and `wait()` below returns for a clean exit 0.
    tv_serve::install_sigterm_handler();
    let server = match Server::start(&config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("serve: cannot start on {}: {e}", config.addr);
            std::process::exit(1);
        }
    };
    let addr = server.local_addr();
    std::thread::spawn(move || loop {
        if tv_serve::sigterm_received() {
            eprintln!("serve: SIGTERM — draining (no new connections, finishing in-flight)");
            let _ = tv_serve::http::request(
                addr,
                "POST",
                "/shutdown",
                b"",
                Duration::from_secs(10),
            );
            return;
        }
        std::thread::sleep(Duration::from_millis(50));
    });
    println!("listening on http://{addr}");
    println!(
        "store {} | fleet workers {} | http workers {}{}",
        config.store_dir.display(),
        if config.fleet_workers == 0 {
            "auto".to_string()
        } else {
            config.fleet_workers.to_string()
        },
        config.http_workers,
        if config.procs > 0 {
            format!(" | worker procs {}", config.procs)
        } else {
            String::new()
        },
    );
    if let Some(path) = addr_file {
        // Atomic so a script polling for the file never reads half an
        // address.
        tv_core::write_atomic_str(&path, &format!("{addr}\n")).expect("write addr file");
    }
    server.wait();
    if tv_serve::sigterm_received() {
        println!("serve: drained after SIGTERM");
    } else {
        println!("serve: shut down cleanly");
    }
    std::process::ExitCode::SUCCESS
}
