//! Determinism contract of the parallel experiment engine (`tv-core`'s
//! [`Fleet`]): the same seed and config must produce **bit-identical**
//! `SimStats`/`RunEnergy` across repeated serial runs, across 1/2/N
//! worker threads, and regardless of job submission order — and a job bag's
//! shared stream memo must change no result.

use tv_core::{run_evaluations, Experiment, Fleet, Job, RunConfig, Scheme};
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
    let jobs: Vec<Job> = [Benchmark::Astar, Benchmark::Mcf, Benchmark::Sjeng]
        .into_iter()
        .flat_map(|bench| {
            [Scheme::ErrorPadding, Scheme::Ffs].map(|scheme| {
                Job::new(bench, Voltage::high_fault(), scheme, cfg())
            })
        })
        .collect();
    let fleet = Fleet::new(3);
    let in_order = fleet.run_jobs(jobs.clone());

    // Deterministic Fisher–Yates shuffle of the submission order.
    let mut rng = ChaCha12Rng::seed_from_u64(0xF1EE7);
    let mut perm: Vec<usize> = (0..jobs.len()).collect();
    for i in (1..perm.len()).rev() {
        let j = rng.gen_range(0..=i);
        perm.swap(i, j);
    }
    assert_ne!(perm, (0..jobs.len()).collect::<Vec<_>>(), "shuffle is real");
    let shuffled: Vec<Job> = perm.iter().map(|&i| jobs[i]).collect();
    let out_of_order = fleet.run_jobs(shuffled);

    for (pos, &orig) in perm.iter().enumerate() {
        assert_eq!(
            out_of_order.results[pos], in_order.results[orig],
            "job {orig} must not depend on submission position"
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
    let jobs: Vec<Job> = experiments
        .into_iter()
        .flat_map(|(bench, vdd, config)| Scheme::ALL.map(|s| Job::new(bench, vdd, s, config)))
        .collect();
    let alone: Vec<_> = jobs.iter().map(Job::run).collect();
    for workers in [1, 4] {
        let run = Fleet::new(workers).run_jobs(jobs.clone());
        for ((job, got), want) in jobs.iter().zip(&run.results).zip(&alone) {
            assert_eq!(got, want, "{} in a bag on {workers} workers", job.label());
        }
        assert_eq!(
            (run.stats.starts, run.stats.walks),
            (4, 4),
            "one program and one walk per stream on {workers} workers"
        );
    }
}
