//! Violation-aware instruction scheduling — the paper's contribution.
//!
//! This crate assembles the complete system of *"Efficiently Tolerating
//! Timing Violations in Pipelined Microprocessors"* (DAC 2013) on top of
//! the substrate crates:
//!
//! * [`select`] — the three selection-priority policies of §3.5: age-based
//!   (**ABS**, re-exported from `tv-uarch`), faulty-first (**FFS**) and
//!   criticality-driven (**CDS**, fed by the Criticality Detection Logic
//!   with the paper's best threshold CT = 8);
//! * [`schemes`] — the five comparative schemes of §5 (Razor, Error
//!   Padding, ABS, FFS, CDS) plus the fault-free golden configuration,
//!   each mapping to a tolerance mode, selection policy and predictor
//!   configuration of the pipeline;
//! * [`experiment`] — the measurement driver: runs a benchmark under every
//!   scheme on the *identical* dynamic instruction stream and produces the
//!   `(performance %, ED %)` overhead tuples of Table 1 and the
//!   EP-normalized relative overheads of Figures 4/5/8/9;
//! * [`fleet`] — the parallel experiment engine: a job-agnostic map
//!   that hands items to scoped worker threads in submission order and
//!   returns results in submission order, bit-identical regardless of
//!   worker count; [`run_evaluations`] runs the figure and table grids'
//!   `(benchmark, voltage, scheme, config)` jobs on it;
//! * [`campaign`] — adversarial fault-injection campaigns: randomized
//!   stress tuples (fault bursts, correlated multi-stage faults, sensor
//!   flapping, forced predictor false-positives/negatives) run under the
//!   golden-model oracle as one co-sim bundle per tuple on an
//!   [`Executor`] (threads or processes), with a per-row resume journal
//!   that makes interrupted campaigns bit-identical on resume;
//! * [`cluster`] — the multi-process fleet behind the campaign
//!   [`Executor`]: a job-agnostic coordinator that spawns worker
//!   processes over a line-framed stdin/stdout protocol, hands each idle
//!   worker the next job in submission order and puts the work of
//!   `kill -9`'d workers back at the front, so campaign CSVs are
//!   byte-identical at any process count;
//! * [`chaos`] — deterministic, seed-driven fault injection against the
//!   platform's own persistence and process fabric (journal corruption,
//!   persist errors, worker kills, connection faults), behind
//!   zero-cost-off hooks — the platform-level analog of the paper's
//!   detect-and-recover bar;
//! * [`persist`] — atomic write-temp-then-rename result publication and
//!   the FNV-1a content fingerprint used by journals and the
//!   content-addressed result store;
//! * [`report`] — result aggregation (per-benchmark rows, averages) shared
//!   by the benchmark harnesses;
//! * [`diff`] — the scheme-equivalence differential harness: every scheme
//!   must commit the identical architectural instruction stream (schemes
//!   differ in timing, never in work), checked under the cycle-level
//!   invariant auditor of `tv-audit`.
//!
//! # Example
//!
//! ```no_run
//! use tv_core::{Experiment, RunConfig, Scheme};
//! use tv_timing::Voltage;
//! use tv_workloads::Benchmark;
//!
//! let cfg = RunConfig::default();
//! let eval = Experiment::new(Benchmark::Astar, Voltage::low_fault(), cfg).run_all();
//! let rel = eval.relative_perf_overhead(Scheme::Abs);
//! assert!(rel >= 0.0);
//! ```

pub mod campaign;
pub mod chaos;
pub mod cluster;
pub mod cosim;
pub mod diff;
pub mod experiment;
pub mod fleet;
pub mod persist;
pub mod report;
pub mod schemes;
pub mod select;
pub mod workload;

pub use campaign::{
    campaign_worker, journal_line, parse_journal, prepare_journal, run_campaign,
    run_campaign_cluster, run_campaign_observed, CampaignConfig, CampaignReport, CampaignTuple,
    Executor, FaultScenario, ParsedJournal,
};
pub use chaos::{ChaosIo, ChaosPlan};
pub use cluster::{ClusterConfig, ClusterStats};
pub use persist::{fnv1a, write_atomic, write_atomic_str};
pub use cosim::build_cosim;
pub use diff::{run_differential, DiffConfig, DiffReport, DiffRun, DiffTuple};
pub use experiment::{run_evaluations, Evaluation, Experiment, RunConfig, SchemeResult};
pub use fleet::{Fleet, FleetRun, FleetStats, JobTiming};
pub use report::{average_row, FigureRow, Table1Row};
pub use schemes::Scheme;
pub use select::{CriticalityDrivenSelect, FaultyFirstSelect};
pub use workload::Workload;
