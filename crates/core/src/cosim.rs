//! Schemes-as-one-job orchestration over the co-sim driver.
//!
//! [`tv_uarch::CoSim`] runs N per-scheme timing lanes against one shared
//! frontend (see `crates/uarch/src/cosim.rs` for the sharing argument and
//! the bit-identity contract). This module bridges it to the scheme layer:
//! per-tuple builder bundles configured exactly like the solo paths and
//! the differential harness's co-sim cell. A sweep that used to submit
//! `tuples × schemes` jobs submits `tuples` jobs instead, each paying for
//! trace generation, fault sampling, branch-outcome resolution, and the
//! 300k-instruction fault-calibration probe once rather than
//! `schemes.len()` times.

use tv_timing::Voltage;
use tv_uarch::cosim::CoSim;
use tv_uarch::PipelineBuilder;

use crate::diff::{stream_hash, DiffConfig, DiffRun, DiffTuple};
use crate::schemes::Scheme;
use crate::workload::Workload;

/// Per-scheme pipeline builders for one tuple, configured through the same
/// [`Scheme::pipeline_builder_for`] path a solo run uses; `configure`
/// applies any per-run options (audit, oracle, CT, fast-forward) uniformly.
pub fn scheme_builders(
    workload: &Workload,
    seed: u64,
    vdd: Voltage,
    schemes: &[Scheme],
    mut configure: impl FnMut(Scheme, PipelineBuilder) -> PipelineBuilder,
) -> Vec<PipelineBuilder> {
    schemes
        .iter()
        .map(|&s| configure(s, s.pipeline_builder_for(workload, seed, vdd)))
        .collect()
}

/// Builds a co-sim with one lane per scheme over one tuple.
///
/// # Panics
///
/// Panics if `schemes` is empty (a co-sim needs at least one lane).
pub fn build_cosim(
    workload: &Workload,
    seed: u64,
    vdd: Voltage,
    schemes: &[Scheme],
    configure: impl FnMut(Scheme, PipelineBuilder) -> PipelineBuilder,
) -> CoSim {
    CoSim::build(scheme_builders(workload, seed, vdd, schemes, configure))
}

/// The co-sim analogue of the differential harness's per-tuple work: one
/// shared frontend, one lane per configured scheme, one [`DiffRun`] per
/// scheme in scheme order — bit-identical to the solo rows.
pub(crate) fn diff_runs(tuple: &DiffTuple, cfg: &DiffConfig) -> Vec<DiffRun> {
    let mut cosim = build_cosim(
        &tuple.workload,
        tuple.seed,
        tuple.vdd,
        &cfg.schemes,
        |_, b| {
            let mut b = b.record_commits(true).oracle(cfg.oracle);
            if cfg.audit.enabled() {
                b = b.audit(cfg.audit);
            }
            b
        },
    );
    // Same phase structure as the solo run_one: finite programs run
    // start-to-halt, synthetic streams warm up then measure.
    let stats = if tuple.workload.is_riscv() {
        cosim.run_to_halt(cfg.commits)
    } else {
        cosim.warm_up(cfg.warmup);
        cosim.run(cfg.commits)
    };
    cfg.schemes
        .iter()
        .zip(stats)
        .enumerate()
        .map(|(i, (&scheme, stats))| {
            let pipe = cosim.lane(i);
            let log = pipe.commit_log().expect("recording enabled");
            let report = pipe.audit_report();
            DiffRun {
                workload: tuple.workload.name(),
                vdd: tuple.vdd,
                seed: tuple.seed,
                scheme,
                commits: log.len() as u64,
                cycles: stats.cycles,
                stream_hash: stream_hash(log),
                audit_cycles: report.as_ref().map_or(0, |r| r.cycles),
                audit_checks: report.as_ref().map_or(0, |r| r.checks),
                audit_violations: report.as_ref().map_or(0, |r| r.violations_total),
                first_violation: report
                    .as_ref()
                    .and_then(|r| r.violations.first())
                    .map(|v| format!("cycle {}: {}: {}", v.cycle, v.invariant, v.detail)),
                oracle_clean: pipe.oracle_report().map(|r| r.clean()),
            }
        })
        .collect()
}
