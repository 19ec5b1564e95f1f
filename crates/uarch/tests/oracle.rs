//! Golden-model oracle end-to-end checks: every real tolerance scheme must
//! commit oracle-clean architectural state under fault injection, the
//! NoTolerance control must be caught corrupting it, and the commit
//! watchdog must report a structured diagnostic instead of spinning.

use tv_timing::{FaultCalibration, Voltage};
use tv_uarch::{CoreConfig, Pipeline, PipelineBuilder, ToleranceMode};
use tv_workloads::Benchmark;

const COMMITS: u64 = 20_000;

fn faulty(bench: Benchmark, mode: ToleranceMode) -> PipelineBuilder {
    Pipeline::builder(bench, 42)
        .tolerance(mode)
        .voltage(Voltage::high_fault())
        .oracle(true)
}

#[test]
fn razor_replays_every_fault_and_commits_oracle_clean_values() {
    // The satellite's contract for the Razor replay path: an unpredicted
    // fault corrupts the in-flight result, the stage latch detects it,
    // replay re-executes violation-free, and the *committed* value is the
    // oracle-correct one.
    let mut pipe = faulty(Benchmark::Gcc, ToleranceMode::Razor).build();
    let stats = pipe.run(COMMITS);
    assert!(stats.replays > 0, "fault injection must trigger replays");
    assert_eq!(
        stats.replays,
        stats.faults_total(),
        "Razor has no predictor: every fault is an unpredicted replay"
    );
    assert_eq!(stats.untolerated_faults, 0);
    // Pin the recovery accounting: each replay owes exactly
    // `replay_latency` whole-pipeline bubbles, and commits only happen
    // with the bubble ledger drained, so over any commit-bounded window
    // the two sides balance exactly.
    assert_eq!(
        stats.recovery_stall_cycles,
        stats.replays * CoreConfig::core1().replay_latency,
        "recovery bubbles must balance replays exactly"
    );
    let report = pipe.oracle_report().expect("oracle enabled");
    assert_eq!(report.checked, COMMITS);
    assert!(
        report.clean(),
        "Razor corrupted state: {}",
        report.summary()
    );
}

#[test]
fn vte_replays_unpredicted_noncritical_faults_clean() {
    // Raise the unpredictable share so plenty of faults strike
    // non-critical PCs the TEP has never flagged — the replay path inside
    // the violation-aware scheme.
    let cal = FaultCalibration {
        unpredictable_share: 0.25,
        ..FaultCalibration::from_rates(6.74, 2.01)
    };
    let mut pipe = faulty(Benchmark::Astar, ToleranceMode::ViolationAware)
        .calibration(cal)
        .build();
    let stats = pipe.run(COMMITS);
    assert!(
        stats.faults_unpredicted > 0,
        "unpredictable share must produce unpredicted faults"
    );
    assert!(stats.replays > 0);
    assert!(stats.faults_predicted > 0, "the TEP still covers hot PCs");
    let report = pipe.oracle_report().expect("oracle enabled");
    assert!(report.clean(), "VTE corrupted state: {}", report.summary());
}

#[test]
fn error_padding_commits_oracle_clean_values() {
    let mut pipe = faulty(Benchmark::Bzip2, ToleranceMode::ErrorPadding).build();
    let stats = pipe.run(COMMITS);
    assert!(stats.faults_total() > 0);
    let report = pipe.oracle_report().expect("oracle enabled");
    assert!(report.clean(), "EP corrupted state: {}", report.summary());
}

#[test]
fn no_tolerance_control_is_caught_corrupting_state() {
    let mut pipe = faulty(Benchmark::Gcc, ToleranceMode::NoTolerance).build();
    let stats = pipe.run(COMMITS);
    assert!(
        stats.untolerated_faults > 0,
        "the control must let faults through"
    );
    assert_eq!(stats.replays, 0, "the control never replays");
    let report = pipe.oracle_report().expect("oracle enabled");
    assert!(
        !report.clean(),
        "oracle failed to flag {} untolerated faults",
        stats.untolerated_faults
    );
    assert!(report.value_mismatches > 0);
    assert!(!report.first_mismatches.is_empty());
}

#[test]
fn oracle_is_purely_observational() {
    // Bit-identical timing and statistics with the oracle on and off.
    let run = |oracle: bool| {
        faulty(Benchmark::Sjeng, ToleranceMode::ViolationAware)
            .oracle(oracle)
            .build()
            .run(10_000)
    };
    assert_eq!(run(true), run(false));
}

#[test]
fn watchdog_returns_structured_dump_instead_of_spinning() {
    // A threshold below the main-memory latency wedges on the first cold
    // L2 miss: the dump must identify the stuck machine state.
    let cfg = CoreConfig {
        watchdog_cycles: 64,
        ..CoreConfig::core1()
    };
    let mut pipe = Pipeline::builder(Benchmark::Mcf, 7).config(cfg).build();
    let err = pipe
        .try_run(50_000)
        .expect_err("a 64-cycle watchdog must trip under 240-cycle memory");
    assert_eq!(err.threshold, 64);
    assert!(err.cycle - err.last_commit_cycle >= 64);
    assert!(err.committed < 50_000);
    assert!(err.rob_len > 0 || err.frontend_len > 0, "machine not empty");
    let line = err.to_string();
    assert!(!line.contains(','), "dump must embed in a CSV field");
}

#[test]
#[should_panic(expected = "pipeline deadlock")]
fn run_still_panics_on_watchdog() {
    let cfg = CoreConfig {
        watchdog_cycles: 64,
        ..CoreConfig::core1()
    };
    let mut pipe = Pipeline::builder(Benchmark::Mcf, 7).config(cfg).build();
    let _ = pipe.run(50_000);
}
