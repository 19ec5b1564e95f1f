//! Schemes-as-one-job orchestration over the co-sim driver.
//!
//! [`tv_uarch::CoSim`] runs N per-scheme timing lanes against one shared
//! frontend (see `crates/uarch/src/cosim.rs` for the sharing argument and
//! the bit-identity contract). This module bridges it to the scheme layer:
//! per-tuple builder bundles configured exactly like a solo run of each
//! scheme. The campaign, the differential harness and the `riscv` bin run
//! every tuple as one such bundle, paying for trace generation, fault
//! sampling, branch-outcome resolution, and the fault-calibration probe
//! once rather than `schemes.len()` times.

use tv_timing::Voltage;
use tv_uarch::cosim::CoSim;
use tv_uarch::PipelineBuilder;

use crate::schemes::Scheme;
use crate::workload::Workload;

/// Builds a co-sim with one lane per scheme over one tuple, each lane's
/// builder made through the same [`Scheme::pipeline_builder_for`] path a
/// solo run uses; `configure` applies any per-run options (audit, oracle,
/// CT, fast-forward) uniformly.
///
/// # Panics
///
/// Panics if `schemes` is empty (a co-sim needs at least one lane).
pub fn build_cosim(
    workload: &Workload,
    seed: u64,
    vdd: Voltage,
    schemes: &[Scheme],
    mut configure: impl FnMut(Scheme, PipelineBuilder) -> PipelineBuilder,
) -> CoSim {
    CoSim::build(
        schemes
            .iter()
            .map(|&s| configure(s, s.pipeline_builder_for(workload, seed, vdd)))
            .collect(),
    )
}
