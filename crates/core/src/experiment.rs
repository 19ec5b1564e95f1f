//! The measurement driver for the paper's evaluation.
//!
//! An [`Experiment`] runs one benchmark at one supply voltage under any
//! subset of the comparative schemes. Every scheme consumes the identical
//! dynamic instruction stream (same seed, same committed count), so cycle
//! and energy differences are attributable purely to the
//! tolerance/scheduling machinery — the paper's comparison methodology.

use tv_energy::{EnergyParams, OverheadTuple, RunEnergy};
use tv_timing::Voltage;
use tv_uarch::SimStats;
use tv_workloads::Benchmark;

use crate::fleet::{Fleet, FleetStats, Job};
use crate::schemes::Scheme;

/// Measurement parameters shared by every run of an experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunConfig {
    /// Committed instructions measured per run (the paper uses
    /// 1 M-instruction SimPoint phases).
    pub commits: u64,
    /// Committed instructions run before measurement to warm the caches,
    /// branch predictor and TEP (cold-start effects are excluded, as with
    /// warmed SimPoint phases).
    pub warmup: u64,
    /// Trace fast-forward before measurement (SimPoint phase start).
    pub fast_forward: u64,
    /// Workload/die seed.
    pub seed: u64,
    /// CDL criticality threshold (paper: CT = 8 is best, §3.5.2).
    pub criticality_threshold: u32,
    /// Energy parameters.
    pub energy: EnergyParams,
}

impl RunConfig {
    /// A fast configuration for tests and examples (100 k commits).
    pub fn quick() -> Self {
        RunConfig {
            commits: 100_000,
            warmup: 50_000,
            fast_forward: 0,
            seed: 42,
            criticality_threshold: 8,
            energy: EnergyParams::core1_45nm(),
        }
    }

    /// The paper's measurement length: a 1 M-instruction phase.
    pub fn paper() -> Self {
        RunConfig {
            commits: 1_000_000,
            warmup: 200_000,
            ..Self::quick()
        }
    }
}

impl Default for RunConfig {
    fn default() -> Self {
        Self::quick()
    }
}

/// The outcome of one scheme's run.
#[derive(Debug, Clone, PartialEq)]
pub struct SchemeResult {
    /// The scheme that ran.
    pub scheme: Scheme,
    /// Pipeline statistics.
    pub stats: SimStats,
    /// Energy accounting.
    pub energy: RunEnergy,
}

/// One benchmark × voltage experiment.
#[derive(Debug, Clone)]
pub struct Experiment {
    bench: Benchmark,
    vdd: Voltage,
    config: RunConfig,
}

impl Experiment {
    /// Creates an experiment.
    pub fn new(bench: Benchmark, vdd: Voltage, config: RunConfig) -> Self {
        Experiment { bench, vdd, config }
    }

    /// The benchmark under test.
    pub fn benchmark(&self) -> Benchmark {
        self.bench
    }

    /// The faulty-environment supply voltage.
    pub fn voltage(&self) -> Voltage {
        self.vdd
    }

    /// The measurement parameters.
    pub fn config(&self) -> RunConfig {
        self.config
    }

    /// Runs a single scheme.
    pub fn run_scheme(&self, scheme: Scheme) -> SchemeResult {
        let mut builder = scheme
            .pipeline_builder(self.bench, self.config.seed, self.vdd)
            .criticality_threshold(self.config.criticality_threshold);
        if self.config.fast_forward > 0 {
            builder = builder.fast_forward(self.config.fast_forward);
        }
        let mut pipe = builder.build();
        pipe.warm_up(self.config.warmup);
        let mut stats = pipe.run(self.config.commits);
        stats.label = scheme.name().to_string();
        let energy = RunEnergy::from_stats(&stats, &self.config.energy);
        SchemeResult {
            scheme,
            stats,
            energy,
        }
    }

    /// Runs all six schemes and bundles the results.
    pub fn run_all(&self) -> Evaluation {
        self.run_schemes(&Scheme::ALL)
    }

    /// Runs `scheme` over every SimPoint-selected representative phase and
    /// returns the weighted cycle count per committed instruction — the
    /// paper's full methodology (§4.2: "we focus our architectural
    /// simulation on representative phases extracted using the SimPoint
    /// toolset"). Phases are selected over `num_intervals` intervals of
    /// the configured `commits` length and clustered into `k` phases.
    ///
    /// # Panics
    ///
    /// Panics if `num_intervals` or `k` is zero (see
    /// [`SimPoint::analyze`](tv_workloads::SimPoint::analyze)).
    pub fn run_simpoint_weighted(
        &self,
        scheme: Scheme,
        num_intervals: usize,
        k: usize,
    ) -> f64 {
        let mut gen =
            tv_workloads::TraceGenerator::new(self.bench.profile(), self.config.seed);
        let sp = tv_workloads::SimPoint::analyze(
            &mut gen,
            num_intervals,
            self.config.commits,
            k,
            self.config.seed,
        );
        let mut weighted_cpi = 0.0;
        for phase in sp.phases() {
            let mut pipe = scheme
                .pipeline_builder(self.bench, self.config.seed, self.vdd)
                .criticality_threshold(self.config.criticality_threshold)
                .fast_forward(phase.start_seq.saturating_sub(self.config.warmup))
                .build();
            pipe.warm_up(self.config.warmup.min(phase.start_seq));
            let stats = pipe.run(self.config.commits);
            weighted_cpi += phase.weight * stats.cpi();
        }
        weighted_cpi
    }

    /// Runs a subset of schemes (the fault-free baseline is always added —
    /// every overhead is measured against it). Jobs are submitted through
    /// an [`Fleet::auto`] engine; results are bit-identical to a serial
    /// loop over [`run_scheme`](Self::run_scheme).
    pub fn run_schemes(&self, schemes: &[Scheme]) -> Evaluation {
        self.run_schemes_on(&Fleet::auto(), schemes)
    }

    /// Runs a subset of schemes on the given engine (the fault-free
    /// baseline is always added).
    pub fn run_schemes_on(&self, fleet: &Fleet, schemes: &[Scheme]) -> Evaluation {
        let jobs: Vec<Job> = with_baseline(schemes)
            .into_iter()
            .map(|s| Job::new(self.bench, self.vdd, s, self.config))
            .collect();
        let run = fleet.run_jobs(jobs);
        Evaluation {
            bench: self.bench,
            vdd: self.vdd,
            results: run.results,
        }
    }
}

/// Prepends the fault-free baseline to a scheme list when absent.
fn with_baseline(schemes: &[Scheme]) -> Vec<Scheme> {
    let mut list = Vec::with_capacity(schemes.len() + 1);
    if !schemes.contains(&Scheme::FaultFree) {
        list.push(Scheme::FaultFree);
    }
    list.extend_from_slice(schemes);
    list
}

/// Runs many experiments' scheme sets as one flattened job bag on the
/// engine — the harness entry point behind every figure and table. Each
/// spec's evaluation comes back in spec order (its scheme results in
/// scheme order, baseline first when added), along with the engine's
/// timing counters for the whole bag.
pub fn run_evaluations(
    fleet: &Fleet,
    specs: &[(Experiment, Vec<Scheme>)],
) -> (Vec<Evaluation>, FleetStats) {
    let mut jobs = Vec::new();
    let mut counts = Vec::with_capacity(specs.len());
    for (exp, schemes) in specs {
        let list = with_baseline(schemes);
        counts.push(list.len());
        jobs.extend(
            list.into_iter()
                .map(|s| Job::new(exp.bench, exp.vdd, s, exp.config)),
        );
    }
    let run = fleet.run_jobs(jobs);
    let mut results = run.results.into_iter();
    let evals = specs
        .iter()
        .zip(counts)
        .map(|((exp, _), count)| Evaluation {
            bench: exp.bench,
            vdd: exp.vdd,
            results: results.by_ref().take(count).collect(),
        })
        .collect();
    (evals, run.stats)
}

/// Results of one benchmark × voltage across schemes.
#[derive(Debug, Clone)]
pub struct Evaluation {
    bench: Benchmark,
    vdd: Voltage,
    results: Vec<SchemeResult>,
}

impl Evaluation {
    /// The benchmark evaluated.
    pub fn benchmark(&self) -> Benchmark {
        self.bench
    }

    /// The faulty-environment voltage.
    pub fn voltage(&self) -> Voltage {
        self.vdd
    }

    /// All scheme results.
    pub fn results(&self) -> &[SchemeResult] {
        &self.results
    }

    /// The result of `scheme`.
    ///
    /// # Panics
    ///
    /// Panics if the scheme was not part of the experiment.
    pub fn result(&self, scheme: Scheme) -> &SchemeResult {
        self.results
            .iter()
            .find(|r| r.scheme == scheme)
            .unwrap_or_else(|| panic!("scheme {scheme} was not run"))
    }

    /// Fault-free IPC (Table 1, column 2).
    pub fn fault_free_ipc(&self) -> f64 {
        self.result(Scheme::FaultFree).stats.ipc()
    }

    /// Observed fault rate (%) under `scheme`.
    pub fn fault_rate_pct(&self, scheme: Scheme) -> f64 {
        self.result(scheme).stats.fault_rate() * 100.0
    }

    /// `(performance %, ED %)` overhead of `scheme` versus fault-free
    /// execution (Table 1's Razor/EP columns).
    pub fn overhead(&self, scheme: Scheme) -> OverheadTuple {
        OverheadTuple::relative_to(
            &self.result(scheme).energy,
            &self.result(Scheme::FaultFree).energy,
        )
    }

    /// Performance overhead of `scheme` normalized to the EP baseline
    /// (Figures 4 and 8; lower is better, 1.0 = as bad as EP).
    ///
    /// # Panics
    ///
    /// Panics if EP was not part of the experiment.
    pub fn relative_perf_overhead(&self, scheme: Scheme) -> f64 {
        let ep = self.overhead(Scheme::ErrorPadding).perf_pct;
        let s = self.overhead(scheme).perf_pct;
        (s / ep.max(1e-9)).max(0.0)
    }

    /// ED overhead of `scheme` normalized to the EP baseline (Figures 5
    /// and 9).
    pub fn relative_ed_overhead(&self, scheme: Scheme) -> f64 {
        let ep = self.overhead(Scheme::ErrorPadding).ed_pct;
        let s = self.overhead(scheme).ed_pct;
        (s / ep.max(1e-9)).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> RunConfig {
        RunConfig {
            commits: 40_000,
            warmup: 40_000,
            ..RunConfig::quick()
        }
    }

    #[test]
    fn evaluation_reproduces_paper_shape_high_fault() {
        let exp = Experiment::new(Benchmark::Bzip2, Voltage::high_fault(), small_config());
        let eval = exp.run_all();

        // Razor ≫ EP in overhead; the proposed schemes beat EP strongly.
        let razor = eval.overhead(Scheme::Razor);
        let ep = eval.overhead(Scheme::ErrorPadding);
        assert!(razor.perf_pct > ep.perf_pct, "razor {razor} vs ep {ep}");
        assert!(ep.perf_pct > 0.5, "EP overhead must be visible: {ep}");
        for s in Scheme::PROPOSED {
            let rel = eval.relative_perf_overhead(s);
            assert!(
                rel < 0.6,
                "{s} should remove ≥40% of EP's overhead, got {rel:.2}"
            );
            let rel_ed = eval.relative_ed_overhead(s);
            assert!(rel_ed < 0.8, "{s} relative ED {rel_ed:.2}");
        }
    }

    #[test]
    fn fault_rates_track_table1() {
        let cfg = small_config();
        let hi = Experiment::new(Benchmark::Astar, Voltage::high_fault(), cfg)
            .run_schemes(&[Scheme::Abs]);
        let lo = Experiment::new(Benchmark::Astar, Voltage::low_fault(), cfg)
            .run_schemes(&[Scheme::Abs]);
        let fr_hi = hi.fault_rate_pct(Scheme::Abs);
        let fr_lo = lo.fault_rate_pct(Scheme::Abs);
        // Table 1: astar 6.74 % @ 0.97 V, 2.01 % @ 1.04 V.
        assert!((fr_hi - 6.74).abs() < 2.5, "high FR {fr_hi:.2}");
        assert!((fr_lo - 2.01).abs() < 1.2, "low FR {fr_lo:.2}");
        assert!(fr_hi > fr_lo);
    }

    #[test]
    fn schemes_commit_identical_work() {
        let exp = Experiment::new(Benchmark::Gcc, Voltage::low_fault(), small_config());
        let eval = exp.run_schemes(&[Scheme::Razor, Scheme::ErrorPadding, Scheme::Cds]);
        let commits: Vec<u64> = eval.results().iter().map(|r| r.stats.committed).collect();
        assert!(commits.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn simpoint_weighted_cpi_is_plausible() {
        let cfg = RunConfig {
            commits: 20_000,
            warmup: 10_000,
            ..RunConfig::quick()
        };
        let exp = Experiment::new(Benchmark::Gcc, Voltage::low_fault(), cfg);
        let cpi = exp.run_simpoint_weighted(Scheme::FaultFree, 6, 2);
        // gcc's fault-free CPI sits well inside (0.4, 3.0) for any phase mix.
        assert!(cpi > 0.4 && cpi < 3.0, "weighted CPI {cpi}");
    }

    #[test]
    fn fleet_matches_serial_and_groups_specs() {
        let cfg = RunConfig {
            commits: 10_000,
            warmup: 5_000,
            ..RunConfig::quick()
        };
        let specs = vec![
            (
                Experiment::new(Benchmark::Gcc, Voltage::low_fault(), cfg),
                vec![Scheme::Abs],
            ),
            (
                Experiment::new(Benchmark::Astar, Voltage::high_fault(), cfg),
                vec![Scheme::Razor, Scheme::Cds],
            ),
        ];
        let (evals, stats) = run_evaluations(&Fleet::new(3), &specs);
        assert_eq!(evals.len(), 2);
        // Baseline prepended per spec: 2 + 3 jobs.
        assert_eq!(stats.jobs, 5);
        assert_eq!(evals[0].results().len(), 2);
        assert_eq!(evals[1].results().len(), 3);
        assert_eq!(evals[1].benchmark(), Benchmark::Astar);
        // Identical to a direct serial scheme run.
        let serial = specs[0].0.run_scheme(Scheme::Abs);
        assert_eq!(evals[0].result(Scheme::Abs), &serial);
    }

    #[test]
    #[should_panic(expected = "was not run")]
    fn missing_scheme_panics() {
        let exp = Experiment::new(Benchmark::Gcc, Voltage::low_fault(), small_config());
        let eval = exp.run_schemes(&[Scheme::Razor]);
        let _ = eval.result(Scheme::Cds);
    }
}
