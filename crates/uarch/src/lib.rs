//! Cycle-level out-of-order pipeline simulator.
//!
//! This crate rebuilds the architectural-simulation substrate of the paper
//! (§4.2): a detailed timing model of a 4-wide out-of-order microprocessor
//! matching the Fabscalar Core-1 configuration — 32-entry issue queue,
//! 96-entry physical register file, 10-stage fetch-to-execute misprediction
//! loop, single-cycle and multi-cycle functional units, and a two-level
//! cache hierarchy (32 KB 4-way split L1 @ 1 cycle, 8 MB 16-way L2 @ 25
//! cycles, memory @ 240 cycles).
//!
//! The pipeline is trace-driven by [`tv_workloads::TraceGenerator`], injects
//! timing faults through [`tv_timing::FaultModel`], predicts them with
//! [`tv_tep::Tep`], and tolerates them under a configurable
//! [`ToleranceMode`]:
//!
//! * [`ToleranceMode::FaultFree`] — golden run, no faults;
//! * [`ToleranceMode::Razor`] — every violation detected in situ and
//!   corrected by instruction replay (flush + refetch);
//! * [`ToleranceMode::ErrorPadding`] — predicted violations stall the whole
//!   pipeline for one cycle (the baseline of [12, 13]);
//! * [`ToleranceMode::ViolationAware`] — the paper's contribution: the
//!   faulty instruction takes one extra cycle in its faulty stage, the
//!   resource it occupies is frozen for one cycle (issue-slot management /
//!   FUSR), and dependents are held back through delayed tag broadcast.
//!
//! Instruction selection priority is pluggable through [`SelectPolicy`];
//! the crate ships the age-based default (ABS), while the faulty-first and
//! criticality-driven policies live in `tv-core` with the rest of the
//! paper's contribution.
//!
//! # Example
//!
//! ```
//! use tv_uarch::{CoreConfig, Pipeline, ToleranceMode};
//! use tv_workloads::Benchmark;
//!
//! let mut pipe = Pipeline::builder(Benchmark::Astar, 42)
//!     .tolerance(ToleranceMode::FaultFree)
//!     .build();
//! let stats = pipe.run(10_000);
//! assert_eq!(stats.committed, 10_000);
//! assert!(stats.ipc() > 0.1);
//! ```

pub mod branch;
pub mod cache;
pub mod config;
pub mod cosim;
pub mod exec;
pub mod inflight;
pub mod issue_queue;
pub mod lsq;
pub mod pipeline;
pub mod policy;
pub mod profile;
pub mod rename;
pub mod rob;
pub mod stats;
pub mod stream;
mod values;
pub mod watchdog;

pub use config::{CoreConfig, LaneKind, RecoveryModel};
pub use cosim::CoSim;
pub use inflight::InFlightInst;
pub use pipeline::{Pipeline, PipelineBuilder, ToleranceMode};
pub use tv_audit::{AuditLevel, AuditReport};
pub use tv_oracle::OracleReport;
pub use policy::{mod64_age, AgeBasedSelect, IssueCandidate, SelectPolicy};
pub use stats::SimStats;
pub use stream::StreamMemo;
pub use watchdog::{RobHeadDump, WatchdogError};
