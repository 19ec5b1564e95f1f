//! Co-simulation equivalence: the bit-identity contract.
//!
//! `CoSim` runs N per-scheme timing lanes against one shared frontend
//! (trace supply, fault sampling, branch-outcome resolution, and the
//! fault-calibration probe computed once per tuple). The contract — co-sim
//! is an optimization, never a semantic fork — requires every lane's
//! statistics, committed stream, audit counters, and oracle verdict to be
//! bit-identical to a solo run of the same scheme. This suite pins the
//! contract over a grid of synthetic tuples, every RISC-V builtin
//! (including the broken `NoTolerance` control staying pinned as
//! *caught*), and bundles in which some or all lanes wedge on the commit
//! watchdog.

use tv_sched::audit::AuditLevel;
use tv_sched::core::campaign::cell_builder;
use tv_sched::core::{
    build_cosim, run_differential, CampaignConfig, DiffConfig, DiffRun, DiffTuple, Fleet, Scheme,
    Workload,
};
use tv_sched::timing::Voltage;
use tv_sched::uarch::{CoSim, SimStats};
use tv_sched::workloads::Benchmark;

/// FNV-1a over the committed `(seq, pc, op)` stream, re-derived here so
/// the harness's hash is checked, not trusted.
fn stream_hash(log: &[(u64, u64, u8)]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &(seq, pc, op) in log {
        for word in [seq, pc, u64::from(op)] {
            for byte in word.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

/// One solo run configured exactly like a co-sim lane of the
/// differential harness: full statistics, the committed stream, and the
/// harness row (stream hash, audit counters, oracle verdict).
struct SoloRun {
    stats: SimStats,
    log: Vec<(u64, u64, u8)>,
    run: DiffRun,
}

fn solo_run(tuple: &DiffTuple, scheme: Scheme, cfg: &DiffConfig) -> SoloRun {
    let mut builder = scheme
        .pipeline_builder_for(&tuple.workload, tuple.seed, tuple.vdd)
        .record_commits(true)
        .oracle(cfg.oracle);
    if cfg.audit.enabled() {
        builder = builder.audit(cfg.audit);
    }
    let mut pipe = builder.build();
    let stats = if tuple.workload.is_riscv() {
        pipe.run_to_halt(cfg.commits)
    } else {
        pipe.warm_up(cfg.warmup);
        pipe.run(cfg.commits)
    };
    let log = pipe.commit_log().expect("recording enabled").to_vec();
    let audit = pipe.audit_report();
    let run = DiffRun {
        workload: tuple.workload.name(),
        vdd: tuple.vdd,
        seed: tuple.seed,
        scheme,
        commits: log.len() as u64,
        cycles: stats.cycles,
        stream_hash: stream_hash(&log),
        audit_cycles: audit.as_ref().map_or(0, |r| r.cycles),
        audit_checks: audit.as_ref().map_or(0, |r| r.checks),
        audit_violations: audit.as_ref().map_or(0, |r| r.violations_total),
        first_violation: audit
            .as_ref()
            .and_then(|r| r.violations.first())
            .map(|v| format!("cycle {}: {}: {}", v.cycle, v.invariant, v.detail)),
        oracle_clean: pipe.oracle_report().map(|r| r.clean()),
    };
    SoloRun { stats, log, run }
}

/// Synthetic grid: every scheme's co-sim lane must reproduce its solo run
/// bit-for-bit — the full `SimStats` struct (every counter), the complete
/// committed `(seq, pc, op)` stream, and the oracle verdict.
#[test]
fn synthetic_grid_lanes_match_solo_runs_bit_identically() {
    let schemes = Scheme::ALL.to_vec();
    let cfg = DiffConfig {
        commits: 6_000,
        warmup: 1_500,
        audit: AuditLevel::Off,
        oracle: true,
        ..DiffConfig::default()
    };
    let seed = 11;
    for bench in [Benchmark::Gcc, Benchmark::Astar] {
        for vdd in [Voltage::low_fault(), Voltage::high_fault()] {
            let tuple = DiffTuple {
                workload: Workload::Bench(bench),
                vdd,
                seed,
            };
            let mut cosim = build_cosim(&tuple.workload, seed, vdd, &schemes, |_, b| {
                b.record_commits(true).oracle(true)
            });
            cosim.warm_up(cfg.warmup);
            let lane_stats = cosim.run(cfg.commits);

            for (i, &scheme) in schemes.iter().enumerate() {
                let label = format!("{} {scheme} @ {:.2}V", bench.name(), vdd.volts());
                let solo = solo_run(&tuple, scheme, &cfg);
                assert_eq!(lane_stats[i], solo.stats, "{label}: statistics diverge");
                assert_eq!(
                    cosim.lane(i).commit_log().expect("recording enabled"),
                    &solo.log[..],
                    "{label}: committed streams diverge"
                );
                assert_eq!(
                    cosim.lane(i).oracle_report().map(|r| r.clean()),
                    solo.run.oracle_clean,
                    "{label}: oracle verdicts diverge"
                );
                assert_eq!(solo.run.oracle_clean, Some(true), "{label}: real schemes retire clean");
            }

            // The frontend really is shared: the bundle pulled roughly one
            // lane's worth of instructions, not six.
            let pulls = cosim.shared_pulls();
            assert!(
                pulls < schemes.len() as u64 * (cfg.commits + cfg.warmup),
                "frontend not amortized: {pulls} pulls across {} lanes",
                schemes.len()
            );
        }
    }
}

/// The differential harness (one co-sim bundle per tuple) produces rows
/// bit-identical to solo runs of each scheme on synthetic tuples: same
/// hashes, cycles, audit counters and oracle verdicts.
#[test]
fn differential_cosim_mode_equals_solo_mode_on_synthetic_tuples() {
    let tuples = DiffTuple::sweep(
        &[Benchmark::Gcc, Benchmark::Astar],
        &[Voltage::high_fault()],
        &[11, 12],
    );
    let cfg = DiffConfig {
        commits: 4_000,
        warmup: 1_000,
        audit: AuditLevel::Full,
        oracle: true,
        ..DiffConfig::default()
    };
    let report = run_differential(&Fleet::auto(), &tuples, &cfg);
    let solo: Vec<DiffRun> = tuples
        .iter()
        .flat_map(|t| cfg.schemes.iter().map(|&s| solo_run(t, s, &cfg).run))
        .collect();
    assert_eq!(report.runs, solo, "diff rows must equal solo runs");
    assert!(report.clean(), "mismatches: {:?}", report.mismatches);
    assert_eq!(report.total_violations(), 0);
}

/// Every RISC-V builtin, run start-to-halt under all six schemes plus the
/// broken control: the harness's bundle rows equal solo rows bit-for-bit,
/// and the control stays pinned as caught by the oracle.
#[test]
fn riscv_builtins_cosim_equals_solo_including_control() {
    let mut schemes = Scheme::ALL.to_vec();
    schemes.push(Scheme::NoTolerance);
    let cfg = DiffConfig {
        commits: 1_000_000,
        warmup: 0,
        audit: AuditLevel::Basic,
        schemes: schemes.clone(),
        oracle: true,
    };
    for name in Workload::builtin_names() {
        let tuple = DiffTuple {
            workload: Workload::builtin(name).expect("built-in program"),
            vdd: Voltage::high_fault(),
            seed: 7,
        };
        let report = run_differential(&Fleet::serial(), std::slice::from_ref(&tuple), &cfg);
        let solo: Vec<DiffRun> = schemes.iter().map(|&s| solo_run(&tuple, s, &cfg).run).collect();
        assert_eq!(report.runs, solo, "riscv:{name}: rows diverge");
        assert!(
            report.mismatches.is_empty(),
            "riscv:{name}: streams diverge: {:?}",
            report.mismatches
        );
        assert_eq!(report.total_violations(), 0, "riscv:{name}");
        for run in &report.runs {
            assert!(run.commits > 0, "riscv:{name}: program must reach its halt");
            let expected = Some(run.scheme != Scheme::NoTolerance);
            if run.scheme == Scheme::NoTolerance && name != "checksum" {
                // The control's corruption is only pinned on the tuple the
                // solo suite pins (fault placement is program-dependent);
                // equality with the solo row is still asserted above.
                continue;
            }
            assert_eq!(
                run.oracle_clean, expected,
                "riscv:{name}: {} verdict",
                run.scheme
            );
        }
    }
}

/// Runs smoke-campaign tuple `id` at `watchdog_cycles` as one bundle, the
/// way the campaign does, and asserts that every lane's outcome — its
/// `SimStats` or watchdog dump, its raw statistics and its oracle report
/// — equals a solo run of the cell: `try_run` of the warm-up, then
/// `reset_stats` and the measured `try_run` if the warm-up finished
/// (finite programs run start-to-halt). Returns the bundle and the
/// outcomes for fixture-specific checks.
fn bundle_matches_solo(
    watchdog_cycles: u64,
    id: usize,
) -> (CoSim, Vec<Result<SimStats, tv_sched::uarch::WatchdogError>>) {
    let config = CampaignConfig {
        watchdog_cycles,
        ..CampaignConfig::smoke()
    };
    let tuple = &config.generate_tuples()[id];
    let schemes = config.schemes();
    let mut cosim = CoSim::build(
        schemes
            .iter()
            .map(|&s| cell_builder(tuple, s, &config))
            .collect(),
    );
    let riscv = tuple.workload.is_riscv();
    let outcomes = if riscv {
        cosim.try_run_to_halt(config.commits)
    } else {
        cosim.try_warm_up(config.warmup);
        cosim.try_run(config.commits)
    };
    for (i, &scheme) in schemes.iter().enumerate() {
        let label = format!("tuple {id} {scheme} watchdog={watchdog_cycles}");
        let mut solo = cell_builder(tuple, scheme, &config).build();
        let outcome = if riscv {
            solo.try_run_to_halt(config.commits)
        } else {
            solo.try_run(config.warmup).and_then(|_| {
                solo.reset_stats();
                solo.try_run(config.commits)
            })
        };
        assert_eq!(outcomes[i], outcome, "{label}: outcomes diverge");
        if let (Err(lane), Err(solo)) = (&outcomes[i], &outcome) {
            assert_eq!(lane.to_string(), solo.to_string(), "{label}: dumps diverge");
        }
        assert_eq!(cosim.lane(i).stats(), solo.stats(), "{label}: statistics diverge");
        assert_eq!(
            cosim.lane(i).oracle_report(),
            solo.oracle_report(),
            "{label}: oracle reports diverge"
        );
    }
    (cosim, outcomes)
}

/// Smoke tuple 7 (`riscv:quicksort`, burst, 0.970 V) at a 250-cycle
/// watchdog: FaultFree and the control run to 12 000 commits while the
/// five tolerant lanes wedge at cycle 250. Each wedged lane stops where it
/// tripped — its dump, statistics and oracle report are a solo run's —
/// and stops holding back the shared memo while its siblings run on.
#[test]
fn wedged_lanes_stop_in_place_while_siblings_finish() {
    let (cosim, outcomes) = bundle_matches_solo(250, 7);
    for (i, outcome) in outcomes.iter().enumerate() {
        match cosim.lane(i).stats().committed {
            12_000 => assert!(outcome.is_ok(), "lane {i} finishes"),
            _ => assert_eq!(outcome.as_ref().map_err(|e| e.cycle), Err(250), "lane {i}"),
        }
    }
    assert_eq!(outcomes.iter().filter(|o| o.is_ok()).count(), 2);
    // The wedged lanes stopped fetching near the start; had they kept
    // holding back reclaim, the memo would span the siblings' 12 000
    // commits.
    assert!(
        cosim.memo_len() < 1_000,
        "memo grew with the siblings' commits: {} records",
        cosim.memo_len()
    );
}

/// Smoke tuple 0 (`povray`, false-positive, 1.040 V) at a 280-cycle
/// watchdog: every lane wedges mid-warm-up after 761 commits, each at its
/// own cycle, and each keeps its unreset warm-up statistics and dump
/// exactly as a solo warm-up leaves them.
#[test]
fn lanes_wedged_mid_warm_up_match_solo_runs() {
    let (cosim, outcomes) = bundle_matches_solo(280, 0);
    for (i, outcome) in outcomes.iter().enumerate() {
        let e = outcome.as_ref().expect_err("every lane wedges");
        assert_eq!(e.committed, 761, "lane {i}");
        assert!((7_171..=7_191).contains(&e.cycle), "lane {i} at cycle {}", e.cycle);
        assert_eq!(cosim.lane(i).stats().committed, 761, "lane {i} stats unreset");
    }
    let cycles: std::collections::BTreeSet<u64> =
        outcomes.iter().map(|o| o.as_ref().unwrap_err().cycle).collect();
    assert!(cycles.len() > 1, "lanes wedge at their own cycles: {cycles:?}");
}
