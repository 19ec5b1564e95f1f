//! Determinism contract of the parallel experiment engine (`tv-core`'s
//! [`Fleet`]): the same seed and config must produce **bit-identical**
//! `SimStats`/`RunEnergy` across repeated serial runs, across 1/2/N
//! worker threads, and regardless of job submission order — and an
//! evaluation bag's shared stream memo must change no result.

use tv_core::{run_evaluations, Experiment, Fleet, RunConfig, Scheme};
use tv_prng::{ChaCha12Rng, Rng, SeedableRng};
use tv_timing::Voltage;
use tv_workloads::Benchmark;

/// Small but non-trivial measurement: long enough for faults, replays and
/// TEP training to occur at both voltages.
fn cfg() -> RunConfig {
    RunConfig {
        commits: 8_000,
        warmup: 4_000,
        ..RunConfig::quick()
    }
}

#[test]
fn repeated_serial_runs_are_bit_identical() {
    let exp = Experiment::new(Benchmark::Astar, Voltage::high_fault(), cfg());
    let a = exp.run_scheme(Scheme::Cds);
    let b = exp.run_scheme(Scheme::Cds);
    assert_eq!(a.stats, b.stats, "SimStats must match bit for bit");
    assert_eq!(a.energy, b.energy, "RunEnergy must match bit for bit");
    assert_eq!(a, b);
}

#[test]
fn worker_count_does_not_change_results() {
    let exp = Experiment::new(Benchmark::Gcc, Voltage::low_fault(), cfg());
    let schemes = [Scheme::Razor, Scheme::Abs, Scheme::Cds];
    // Serial reference, computed without the engine at all.
    let reference: Vec<_> = std::iter::once(Scheme::FaultFree)
        .chain(schemes)
        .map(|s| exp.run_scheme(s))
        .collect();
    for workers in [1, 2, 5] {
        let eval = exp.run_schemes_on(&Fleet::new(workers), &schemes);
        assert_eq!(
            eval.results(),
            &reference[..],
            "{workers} workers must be bit-identical to the serial loop"
        );
    }
}

#[test]
fn shuffled_submission_order_does_not_change_results() {
    let specs: Vec<(Experiment, Vec<Scheme>)> =
        [Benchmark::Astar, Benchmark::Mcf, Benchmark::Sjeng]
            .into_iter()
            .flat_map(|bench| {
                [Scheme::ErrorPadding, Scheme::Ffs].map(|scheme| {
                    (
                        Experiment::new(bench, Voltage::high_fault(), cfg()),
                        vec![scheme],
                    )
                })
            })
            .collect();
    let fleet = Fleet::new(3);
    let (in_order, _) = run_evaluations(&fleet, &specs);

    // Deterministic Fisher–Yates shuffle of the submission order.
    let mut rng = ChaCha12Rng::seed_from_u64(0xF1EE7);
    let mut perm: Vec<usize> = (0..specs.len()).collect();
    for i in (1..perm.len()).rev() {
        let j = rng.gen_range(0..=i);
        perm.swap(i, j);
    }
    assert_ne!(
        perm,
        (0..specs.len()).collect::<Vec<_>>(),
        "shuffle is real"
    );
    let shuffled: Vec<_> = perm.iter().map(|&i| specs[i].clone()).collect();
    let (out_of_order, _) = run_evaluations(&fleet, &shuffled);

    for (pos, &orig) in perm.iter().enumerate() {
        assert_eq!(
            out_of_order[pos].results(),
            in_order[orig].results(),
            "spec {orig} must not depend on submission position"
        );
    }
}

#[test]
fn grouped_evaluations_are_identical_across_worker_counts() {
    let specs = vec![
        (
            Experiment::new(Benchmark::Bzip2, Voltage::high_fault(), cfg()),
            vec![Scheme::ErrorPadding, Scheme::Abs],
        ),
        (
            Experiment::new(Benchmark::Libquantum, Voltage::low_fault(), cfg()),
            vec![Scheme::Cds],
        ),
    ];
    let (serial, serial_stats) = run_evaluations(&Fleet::new(1), &specs);
    let (parallel, parallel_stats) = run_evaluations(&Fleet::new(4), &specs);
    assert_eq!(serial_stats.jobs, 5, "3 + 2 jobs with baselines");
    assert_eq!(parallel_stats.jobs, 5);
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(s.benchmark(), p.benchmark());
        assert_eq!(s.results(), p.results());
    }
    // Timing counters are populated in submission order either way.
    assert_eq!(parallel_stats.timings.len(), 5);
    assert!(parallel_stats
        .timings
        .iter()
        .enumerate()
        .all(|(i, t)| t.index == i && !t.label.is_empty()));
    assert_eq!(parallel_stats.timings[1].label, "bzip2/EP@0.970V");
}

#[test]
fn bag_memo_changes_no_result_and_is_keyed_by_stream() {
    let small = RunConfig {
        commits: 2_000,
        warmup: 1_000,
        ..RunConfig::quick()
    };
    let high = Voltage::high_fault();
    // Both voltages of two benchmarks share two streams; gcc again at a
    // second seed and fast-forwarded are two streams of their own.
    let mut experiments = Vec::new();
    for bench in [Benchmark::Gcc, Benchmark::Mcf] {
        for vdd in [high, Voltage::low_fault()] {
            experiments.push((bench, vdd, small));
        }
    }
    let reseeded = RunConfig { seed: 43, ..small };
    let skipped = RunConfig {
        fast_forward: 5_000,
        ..small
    };
    experiments.push((Benchmark::Gcc, high, reseeded));
    experiments.push((Benchmark::Gcc, high, skipped));
    // Scheme::ALL holds the baseline, so each spec is six jobs: 36 in all.
    let specs: Vec<(Experiment, Vec<Scheme>)> = experiments
        .into_iter()
        .map(|(bench, vdd, config)| (Experiment::new(bench, vdd, config), Scheme::ALL.to_vec()))
        .collect();
    let alone: Vec<Vec<_>> = specs
        .iter()
        .map(|(exp, schemes)| schemes.iter().map(|&s| exp.run_scheme(s)).collect())
        .collect();
    for workers in [1, 4] {
        let (evals, stats) = run_evaluations(&Fleet::new(workers), &specs);
        assert_eq!(stats.jobs, 36);
        for (eval, want) in evals.iter().zip(&alone) {
            for (got, want) in eval.results().iter().zip(want) {
                assert_eq!(
                    got,
                    want,
                    "{}/{} in a bag on {workers} workers",
                    eval.benchmark().name(),
                    want.scheme
                );
            }
        }
        assert_eq!(
            (stats.starts, stats.walks),
            (4, 4),
            "one program and one walk per stream on {workers} workers"
        );
    }
}
