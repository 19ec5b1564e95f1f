//! Campaign-as-a-service: a persistent experiment server with a
//! content-addressed result store.
//!
//! Running fault-injection campaigns through one-shot binaries re-pays
//! process start-up, fleet spin-up and — much worse — *re-simulation*
//! for every caller who asks the same question. This crate keeps a
//! server resident instead: clients `POST /campaign` a JSON spec, the
//! server maps it to a content-addressed key (the campaign journal
//! fingerprint, which covers the sweep parameters *and* the workload
//! program bytes), and
//!
//! * a key already in the store is served instantly, byte-identical to
//!   the CSV an offline `campaign` run with the same spec writes;
//! * a key in flight is *coalesced* — the request blocks on the running
//!   execution instead of starting its own;
//! * a fresh key executes once on the server's [`Executor`] (worker
//!   threads, or worker processes with `procs > 0`), streaming verdict
//!   rows to the requesting client as each tuple's bundle completes and
//!   atomically publishing the finished CSV for everyone after.
//!
//! Everything is `std`-only (the workspace builds offline): the HTTP
//! layer ([`http`]), the JSON layer ([`json`]), the store ([`store`])
//! and the server itself ([`server`]) have no dependencies beyond
//! `tv-core`.
//!
//! # Quickstart
//!
//! ```no_run
//! use tv_serve::{ServeConfig, Server};
//!
//! let server = Server::start(&ServeConfig::default()).expect("bind");
//! println!("listening on http://{}", server.local_addr());
//! server.wait(); // until POST /shutdown
//! ```
//!
//! [`Executor`]: tv_core::Executor

pub mod http;
pub mod json;
pub mod server;
pub mod spec;
pub mod store;

pub use http::{request, Limits, RequestError, Response};
pub use server::{install_sigterm_handler, sigterm_received, ServeConfig, Server, Stats};
pub use spec::parse_spec;
pub use store::{FsckReport, ResultStore};
