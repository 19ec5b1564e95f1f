//! Adversarial fault-injection campaigns with golden-model verdicts.
//!
//! A campaign sweeps randomized `(scenario, benchmark, voltage, seed)`
//! tuples across every scheme with the architectural value plane and
//! golden-model oracle enabled ([`PipelineBuilder::oracle`]), then renders
//! one CSV verdict row per `(tuple, scheme)` cell. The stress scenarios
//! ([`FaultScenario`]) deliberately push the fault injector and sensor
//! model outside the paper's calibrated operating point — fault bursts,
//! correlated multi-stage faults, sensor flapping, forced TEP
//! false-positives and false-negatives — because that is where tolerance
//! escapes hide.
//!
//! # Crash isolation and the resume journal
//!
//! Each tuple's pending cells run as one co-simulation bundle
//! ([`run_bundle`]) on an [`Executor`] — crash-isolated worker threads or
//! worker processes. Crash isolation is per bundle: a panicking bundle
//! becomes one `panic` verdict row per cell instead of killing the
//! campaign. Finished bundles' rows are appended to a journal file
//! (`<out>.journal`), one line per write, in tuple order: a bundle that
//! finishes before an earlier tuple's waits for it. The journal's bytes
//! are thus the same at any worker count and on either executor, and a
//! killed campaign loses only the bundles that were mid-flight or waiting
//! behind one. Re-running with resume enabled
//! replays the journal — completed rows are reused **verbatim** and only
//! the missing cells execute — which makes the final CSV bit-identical to
//! an uninterrupted run by construction.
//!
//! # Journal format (v3): per-row CRC32 and quarantine
//!
//! Every journal line is `<crc32-hex8>\t<payload>` ([`journal_line`]),
//! where the CRC covers the payload bytes. The first payload is the
//! configuration fingerprint ([`CampaignConfig::meta_line`]); row
//! payloads are `key\tcsv-row`. On resume ([`parse_journal`] /
//! [`prepare_journal`]):
//!
//! * a line whose CRC does not verify — a flipped bit, a torn append, an
//!   overwritten sector — is **quarantined**: moved to
//!   `<journal>.quarantine`, its cell re-executed. CRC-32 catches every
//!   single-bit error and every burst up to 32 bits, so damage cannot
//!   masquerade as a valid row and resumes stay byte-identical to an
//!   uninterrupted run (self-healing, never a wrong row);
//! * a *corrupt header* poisons trust in the whole file (rows carry no
//!   campaign identity of their own), so every line is quarantined and
//!   the campaign starts fresh — degraded, still correct;
//! * a **valid** header naming a different configuration is refused with
//!   a clear error (that journal belongs to someone else);
//! * a torn final line without its newline (the kill landed mid-append)
//!   is discarded as before.
//!
//! After quarantine the journal is rewritten atomically with only the
//! surviving rows, so damage is processed exactly once.
//!
//! [`PipelineBuilder::oracle`]: tv_uarch::PipelineBuilder::oracle

use std::collections::HashMap;
use std::fs;
use std::fs::OpenOptions;
use std::io::Write;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

use tv_prng::crc32;
use tv_timing::{FaultCalibration, SensorModel, Voltage};
use tv_uarch::{CoSim, CoreConfig, OracleReport, PipelineBuilder, SimStats};
use tv_workloads::{Benchmark, Profile};

use crate::chaos::ChaosIo;
use crate::cluster::{run_groups, ClusterConfig};
use crate::fleet::{Fleet, FleetStats, JobTiming};
use crate::persist::{fnv1a, fnv1a_word, write_atomic_str};
use crate::schemes::Scheme;
use crate::workload::Workload;

/// The built-in RISC-V programs the campaign cycles through — the
/// compute-heavy ones, so injected faults have values to corrupt.
const RISCV_CAMPAIGN_PROGRAMS: [&str; 3] = ["matmul", "quicksort", "checksum"];

/// Number of comma-separated fields in one verdict row.
const FIELDS: usize = 19;

/// CSV header of a campaign verdict file.
pub const HEADER: &str = "id,scenario,bench,vdd,scheme,seed,verdict,commits,cycles,\
                          faults,predicted,unpredicted,untolerated,replays,false_positives,\
                          oracle_checked,oracle_mismatches,regfile_mismatches,detail";

/// A stress fault model for one campaign tuple.
///
/// Each scenario shapes the existing [`FaultCalibration`] and
/// [`SensorModel`] knobs into an adversarial regime; none of them touch
/// the simulated instruction stream, so every scheme still commits the
/// identical work and the oracle's verdict is purely about value
/// integrity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultScenario {
    /// The paper's calibrated operating point (Table 1 rates, default
    /// sensor) — the control scenario.
    Paper,
    /// Fault bursts: deep, frequent supply droops concentrate faults into
    /// dense windows instead of spreading them thinly.
    Burst,
    /// Correlated multi-stage faults: a large share of violations strike
    /// the in-order engines (fetch/decode/rename/retire), exercising the
    /// stall-signal and in-place-replay paths alongside the OoO core.
    MultiStage,
    /// Sensor flapping: the favourability signal oscillates across the
    /// arming threshold every few dozen instructions, so the TEP arms and
    /// disarms pathologically often.
    SensorFlap,
    /// Forced TEP false-positives: faults avoid the common PCs the
    /// predictor trains on, so its entries go stale and it pads cleanly
    /// completing instructions.
    FalsePositive,
    /// Forced TEP false-negatives: a large unpredictable share steers
    /// faults onto PCs the predictor has never flagged, maximizing the
    /// unpredicted-replay path.
    FalseNegative,
}

impl FaultScenario {
    /// All scenarios, in the order the tuple generator indexes them.
    pub const ALL: [FaultScenario; 6] = [
        FaultScenario::Paper,
        FaultScenario::Burst,
        FaultScenario::MultiStage,
        FaultScenario::SensorFlap,
        FaultScenario::FalsePositive,
        FaultScenario::FalseNegative,
    ];

    /// Stable lowercase name used in CSV rows.
    pub fn name(self) -> &'static str {
        match self {
            FaultScenario::Paper => "paper",
            FaultScenario::Burst => "burst",
            FaultScenario::MultiStage => "multi_stage",
            FaultScenario::SensorFlap => "sensor_flap",
            FaultScenario::FalsePositive => "false_positive",
            FaultScenario::FalseNegative => "false_negative",
        }
    }

    /// The fault calibration this scenario applies to `profile`.
    pub fn calibration(self, profile: &Profile) -> FaultCalibration {
        self.calibration_from_rates(profile.fault_rate_097, profile.fault_rate_104)
    }

    /// The scenario's calibration over explicit `(0.97 V, 1.04 V)` base
    /// rates — RISC-V workloads carry no profile.
    pub fn calibration_from_rates(self, rate_097: f64, rate_104: f64) -> FaultCalibration {
        let base = FaultCalibration::from_rates(rate_097, rate_104);
        match self {
            FaultScenario::Paper | FaultScenario::Burst | FaultScenario::SensorFlap => base,
            FaultScenario::MultiStage => FaultCalibration {
                in_order_share: 0.35,
                ..base
            },
            FaultScenario::FalsePositive => FaultCalibration {
                commonality: 0.45,
                ..base
            },
            FaultScenario::FalseNegative => FaultCalibration {
                unpredictable_share: 0.40,
                ..base
            },
        }
    }

    /// The sensor model this scenario installs.
    pub fn sensor(self, seed: u64) -> SensorModel {
        match self {
            FaultScenario::Paper | FaultScenario::MultiStage | FaultScenario::FalseNegative => {
                SensorModel::paper_default(seed)
            }
            FaultScenario::Burst => SensorModel {
                thermal_amplitude: 0.2,
                thermal_period: 80_000,
                droop_amplitude: 1.0,
                droop_spacing: 8_000,
                droop_len: 2_000,
                arming_threshold: -0.8,
                seed,
            },
            FaultScenario::SensorFlap => SensorModel {
                thermal_amplitude: 1.0,
                thermal_period: 64,
                droop_amplitude: 0.0,
                droop_spacing: u64::MAX,
                droop_len: 0,
                arming_threshold: 0.25,
                seed,
            },
            // Stale-entry false positives want a *calm* environment: the
            // predictor keeps arming while the shifted fault population
            // leaves its trained PCs clean.
            FaultScenario::FalsePositive => SensorModel::quiescent(),
        }
    }
}

impl std::fmt::Display for FaultScenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One randomized campaign tuple; every scheme runs once per tuple.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignTuple {
    /// Tuple index within the campaign (stable across resumes).
    pub id: u32,
    /// The stress fault model.
    pub scenario: FaultScenario,
    /// Workload under test — synthetic benchmark or RISC-V program.
    pub workload: Workload,
    /// Faulty-environment supply voltage.
    pub vdd: Voltage,
    /// Workload/die seed for this tuple.
    pub seed: u64,
}

/// Campaign-wide parameters; fingerprinted into the resume journal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CampaignConfig {
    /// Number of randomized tuples.
    pub tuples: usize,
    /// Master seed the tuple sweep derives from.
    pub campaign_seed: u64,
    /// Measured commits per cell.
    pub commits: u64,
    /// Warm-up commits per cell (excluded from the measured stats).
    pub warmup: u64,
    /// Commit-watchdog threshold for every cell.
    pub watchdog_cycles: u64,
    /// Whether the broken [`Scheme::NoTolerance`] control rides along to
    /// prove the oracle flags corruption.
    pub include_control: bool,
    /// Extra tuples running real RISC-V programs (appended after the
    /// synthetic tuples, cycling through the built-in compute programs).
    pub riscv_tuples: usize,
    /// Ignored: every tuple runs as one co-simulation bundle. Kept so
    /// struct literals that set it still build; it is in neither
    /// [`to_ctx`](Self::to_ctx) nor [`meta_line`](Self::meta_line), but
    /// it does take part in `PartialEq`: two configurations that differ
    /// only here compare unequal, and `from_ctx(to_ctx(c)) == c` holds
    /// only when it is `false`.
    pub cosim: bool,
}

impl CampaignConfig {
    /// The acceptance-grade campaign: 64 synthetic + 4 RISC-V tuples
    /// across all schemes.
    pub fn full() -> Self {
        CampaignConfig {
            tuples: 64,
            campaign_seed: 2013,
            commits: 30_000,
            warmup: 10_000,
            watchdog_cycles: 500_000,
            include_control: true,
            riscv_tuples: 4,
            cosim: false,
        }
    }

    /// A CI-sized smoke campaign (a few tuples, short cells).
    pub fn smoke() -> Self {
        CampaignConfig {
            tuples: 6,
            commits: 12_000,
            warmup: 4_000,
            riscv_tuples: 2,
            ..Self::full()
        }
    }

    /// The schemes every tuple runs, control last when enabled.
    pub fn schemes(&self) -> Vec<Scheme> {
        let mut schemes = Scheme::ALL.to_vec();
        if self.include_control {
            schemes.push(Scheme::NoTolerance);
        }
        schemes
    }

    /// The campaign's randomized tuple sweep — a pure function of the
    /// configuration, so resumed runs regenerate the identical sweep.
    /// Synthetic tuples come first; the RISC-V tuples follow with ids
    /// continuing where the synthetic ones stop.
    pub fn generate_tuples(&self) -> Vec<CampaignTuple> {
        let mut tuples: Vec<CampaignTuple> = (0..self.tuples)
            .map(|i| {
                let h = mix2(self.campaign_seed, 0x7475_706c_65 ^ i as u64);
                CampaignTuple {
                    id: i as u32,
                    scenario: FaultScenario::ALL[(h % 6) as usize],
                    workload: Workload::Bench(Benchmark::ALL[((h >> 3) % 12) as usize]),
                    vdd: if (h >> 8) & 1 == 0 {
                        Voltage::high_fault()
                    } else {
                        Voltage::low_fault()
                    },
                    seed: mix2(h, 0x5eed),
                }
            })
            .collect();
        for j in 0..self.riscv_tuples {
            let i = self.tuples + j;
            let h = mix2(self.campaign_seed, 0x7269_7363_76 ^ j as u64);
            let name = RISCV_CAMPAIGN_PROGRAMS[j % RISCV_CAMPAIGN_PROGRAMS.len()];
            tuples.push(CampaignTuple {
                id: i as u32,
                scenario: FaultScenario::ALL[(h % 6) as usize],
                workload: Workload::builtin(name).expect("built-in program"),
                vdd: if (h >> 8) & 1 == 0 {
                    Voltage::high_fault()
                } else {
                    Voltage::low_fault()
                },
                seed: mix2(h, 0x5eed),
            });
        }
        tuples
    }

    /// The journal's configuration fingerprint line.
    ///
    /// `wl=` is the combined [`Workload::content_hash`] of every tuple's
    /// workload, in tuple order — so the fingerprint follows the bytes
    /// the campaign actually executes. If a built-in program's assembly
    /// changes between versions, stale journals (and stale
    /// content-addressed store entries, which key on this line) stop
    /// matching instead of silently serving rows from the old program.
    pub fn meta_line(&self) -> String {
        format!(
            "# tv-campaign v3 seed={} tuples={} commits={} warmup={} watchdog={} control={} riscv={} wl={:016x}",
            self.campaign_seed,
            self.tuples,
            self.commits,
            self.warmup,
            self.watchdog_cycles,
            u8::from(self.include_control),
            self.riscv_tuples,
            self.workload_fingerprint(),
        )
    }

    /// Combined content hash of every tuple's workload, in tuple order.
    pub fn workload_fingerprint(&self) -> u64 {
        self.generate_tuples()
            .iter()
            .fold(fnv1a(b"tv-campaign-workloads"), |h, t| {
                fnv1a_word(h, t.workload.content_hash())
            })
    }

    /// The content-addressed result-store key of this campaign: the
    /// FNV-1a hash of [`meta_line`](Self::meta_line), hex-encoded.
    ///
    /// Two configurations share a key exactly when they are the same
    /// experiment — same sweep parameters *and* same workload bytes — so
    /// overlapping requests from any number of clients coalesce to one
    /// execution and one stored CSV.
    pub fn store_key(&self) -> String {
        format!("{:016x}", fnv1a(self.meta_line().as_bytes()))
    }

    /// Serializes the configuration as a one-line cluster context
    /// (`key=value` words), the inverse of [`from_ctx`](Self::from_ctx).
    pub fn to_ctx(&self) -> String {
        format!(
            "seed={} tuples={} commits={} warmup={} watchdog={} control={} riscv={}",
            self.campaign_seed,
            self.tuples,
            self.commits,
            self.warmup,
            self.watchdog_cycles,
            u8::from(self.include_control),
            self.riscv_tuples,
        )
    }

    /// Parses a [`to_ctx`](Self::to_ctx) line back into a configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed or missing field.
    pub fn from_ctx(ctx: &str) -> Result<CampaignConfig, String> {
        let mut cfg = CampaignConfig::full();
        let mut seen = 0u32;
        for word in ctx.split_whitespace() {
            let (key, value) = word
                .split_once('=')
                .ok_or_else(|| format!("malformed ctx word: {word}"))?;
            let num = |what: &str| -> Result<u64, String> {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("bad {what} in ctx: {value}"))
            };
            match key {
                "seed" => cfg.campaign_seed = num("seed")?,
                "tuples" => cfg.tuples = num("tuples")? as usize,
                "commits" => cfg.commits = num("commits")?,
                "warmup" => cfg.warmup = num("warmup")?,
                "watchdog" => cfg.watchdog_cycles = num("watchdog")?,
                "control" => cfg.include_control = num("control")? != 0,
                "riscv" => cfg.riscv_tuples = num("riscv")? as usize,
                other => return Err(format!("unknown ctx field: {other}")),
            }
            seen += 1;
        }
        if seen != 7 {
            return Err(format!("campaign ctx needs 7 fields, got {seen}"));
        }
        Ok(cfg)
    }
}

/// splitmix64-style mixer, matching the hashing idiom used throughout.
fn mix2(a: u64, b: u64) -> u64 {
    let mut x = a ^ b.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The identity prefix of one cell's CSV row (`id,...,seed`).
pub(crate) fn cell_prefix(tuple: &CampaignTuple, scheme: Scheme) -> String {
    format!(
        "{},{},{},{:.3},{},{}",
        tuple.id,
        tuple.scenario,
        tuple.workload.name(),
        tuple.vdd.volts(),
        scheme.name(),
        tuple.seed,
    )
}

/// The journal key of one cell.
pub(crate) fn cell_key(tuple: &CampaignTuple, scheme: Scheme) -> String {
    format!("{}/{}", tuple.id, scheme.name())
}

/// Human-readable fleet progress label carrying the full tuple identity.
fn bundle_label(tuple: &CampaignTuple, cells: usize) -> String {
    format!(
        "#{} {} {}@{:.3}V seed={} x{cells} schemes",
        tuple.id,
        tuple.scenario,
        tuple.workload.name(),
        tuple.vdd.volts(),
        tuple.seed,
    )
}

/// Strips characters that would break the one-row-per-line CSV shape.
fn sanitize(detail: &str) -> String {
    let d: String = detail
        .chars()
        .map(|c| match c {
            ',' => ';',
            '\n' | '\r' => ' ',
            c => c,
        })
        .collect();
    if d.is_empty() {
        "-".to_string()
    } else {
        d
    }
}

/// Renders one verdict row.
fn render_row(
    prefix: &str,
    verdict: &str,
    cycles: u64,
    stats: &SimStats,
    report: Option<&OracleReport>,
    detail: &str,
) -> String {
    let (checked, values, regs) = report.map_or((0, 0, 0), |r| {
        (r.checked, r.value_mismatches, r.regfile_mismatches)
    });
    format!(
        "{prefix},{verdict},{},{cycles},{},{},{},{},{},{},{checked},{values},{regs},{}",
        stats.committed,
        stats.faults_total(),
        stats.faults_predicted,
        stats.faults_unpredicted,
        stats.untolerated_faults,
        stats.replays,
        stats.false_positives,
        sanitize(detail),
    )
}

/// The rows of a bundle that panicked: crash isolation is per bundle, so
/// every cell of the tuple becomes a `panic` row carrying the payload.
fn panic_rows(tuple: &CampaignTuple, schemes: &[Scheme], payload: &str) -> Vec<String> {
    schemes
        .iter()
        .map(|&scheme| {
            let prefix = cell_prefix(tuple, scheme);
            render_row(&prefix, "panic", 0, &SimStats::default(), None, payload)
        })
        .collect()
}

/// The pipeline builder of one `(tuple, scheme)` cell: scheme-configured,
/// with the scenario-shaped fault model and sensor, the campaign's commit
/// watchdog, and the oracle enabled.
pub fn cell_builder(
    tuple: &CampaignTuple,
    scheme: Scheme,
    config: &CampaignConfig,
) -> PipelineBuilder {
    let spec = tuple.workload.spec();
    let (rate_097, rate_104) = spec.fault_rates();
    scheme
        .pipeline_builder_with_spec(spec, tuple.seed, tuple.vdd)
        .calibration(tuple.scenario.calibration_from_rates(rate_097, rate_104))
        .sensor(tuple.scenario.sensor(tuple.seed))
        .config(CoreConfig {
            watchdog_cycles: config.watchdog_cycles,
            ..CoreConfig::core1()
        })
        .oracle(true)
}

/// Runs one tuple's schemes as a single co-simulation bundle, returning
/// one verdict row per scheme in order.
///
/// The bundle shares the frontend (trace supply, scenario-shaped fault
/// sampling, branch outcomes) and pays the fault-calibration probe once.
/// Synthetic streams warm up first; finite programs run start-to-halt.
/// Each lane then measures `config.commits` committed instructions under
/// the commit watchdog and is graded `clean` (oracle-verified state),
/// `corrupt` (the oracle flagged value or register-file mismatches) or
/// `watchdog` (the lane wedged; the detail field carries the structured
/// dump). A wedged lane stops where it tripped while its siblings run
/// on, so every row is the row a solo run of its cell renders
/// (`tests/cosim_equiv.rs`).
pub fn run_bundle(
    tuple: &CampaignTuple,
    schemes: &[Scheme],
    config: &CampaignConfig,
) -> Vec<String> {
    let builders = schemes
        .iter()
        .map(|&scheme| cell_builder(tuple, scheme, config))
        .collect();
    let mut cosim = CoSim::build(builders);
    let outcomes = if tuple.workload.is_riscv() {
        cosim.try_run_to_halt(config.commits)
    } else {
        // A lane that wedges while warming up reports the same dump from
        // the measured run.
        cosim.try_warm_up(config.warmup);
        cosim.try_run(config.commits)
    };
    schemes
        .iter()
        .zip(outcomes)
        .enumerate()
        .map(|(i, (&scheme, outcome))| {
            let prefix = cell_prefix(tuple, scheme);
            let pipe = cosim.lane(i);
            let report = pipe.oracle_report();
            match outcome {
                Ok(stats) => {
                    let report = report.expect("oracle enabled");
                    let (verdict, detail) = if report.clean() {
                        ("clean", String::new())
                    } else {
                        ("corrupt", report.summary())
                    };
                    render_row(&prefix, verdict, stats.cycles, &stats, Some(&report), &detail)
                }
                Err(e) => render_row(
                    &prefix,
                    "watchdog",
                    e.cycle,
                    pipe.stats(),
                    report.as_ref(),
                    &e.to_string(),
                ),
            }
        })
        .collect()
}

/// [`run_bundle`] with crash isolation, as both executors run it: a
/// bundle that panics yields one `panic` row per scheme, carrying the
/// panic message, instead of unwinding.
pub(crate) fn run_bundle_caught(
    tuple: &CampaignTuple,
    schemes: &[Scheme],
    config: &CampaignConfig,
) -> Vec<String> {
    catch_unwind(AssertUnwindSafe(|| run_bundle(tuple, schemes, config)))
        .unwrap_or_else(|p| panic_rows(tuple, schemes, &panic_message(p.as_ref())))
}

/// Extracts a human-readable message from a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "opaque panic payload".to_string())
}

/// Outcome of one campaign run: verdict rows in cell order plus resume
/// and crash accounting.
#[derive(Debug)]
pub struct CampaignReport {
    /// One verdict row per `(tuple, scheme)` cell, tuple-major.
    pub rows: Vec<String>,
    /// Rows reused verbatim from the resume journal.
    pub reused: usize,
    /// Corrupt journal lines quarantined (and re-executed) by this run.
    pub quarantined: usize,
    /// Cells executed in this run.
    pub executed: usize,
    /// Executed cells that panicked (recorded as `panic` rows).
    pub panicked: usize,
    /// Fleet timing counters for the executed cells.
    pub fleet: FleetStats,
}

/// The verdict field of a row.
pub(crate) fn row_field(row: &str, idx: usize) -> &str {
    row.split(',').nth(idx).unwrap_or("")
}

impl CampaignReport {
    /// The full CSV document (header plus rows, trailing newline).
    pub fn csv(&self) -> String {
        let mut out = String::with_capacity(self.rows.len() * 96 + HEADER.len() + 1);
        out.push_str(HEADER);
        out.push('\n');
        for row in &self.rows {
            out.push_str(row);
            out.push('\n');
        }
        out
    }

    /// Rows of *real* schemes (control excluded) whose verdict is not
    /// `clean` — the campaign's failure set, empty on a passing run.
    pub fn failures(&self) -> Vec<&String> {
        self.rows
            .iter()
            .filter(|r| row_field(r, 4) != Scheme::NoTolerance.name() && row_field(r, 6) != "clean")
            .collect()
    }

    /// Control cells the oracle caught corrupting state. A passing
    /// campaign with the control enabled needs at least one — otherwise
    /// the oracle has no teeth.
    pub fn control_catches(&self) -> usize {
        self.rows
            .iter()
            .filter(|r| {
                row_field(r, 4) == Scheme::NoTolerance.name() && row_field(r, 6) == "corrupt"
            })
            .count()
    }

    /// `(clean, corrupt, watchdog, panic)` verdict counts over all rows.
    pub fn verdict_counts(&self) -> (usize, usize, usize, usize) {
        let count = |v: &str| self.rows.iter().filter(|r| row_field(r, 6) == v).count();
        (
            count("clean"),
            count("corrupt"),
            count("watchdog"),
            count("panic"),
        )
    }
}

/// Renders one CRC-protected journal line: `<crc32-hex8>\t<payload>\n`,
/// with the CRC computed over the payload bytes.
pub fn journal_line(payload: &str) -> String {
    format!("{:08x}\t{payload}\n", crc32(payload.as_bytes()))
}

/// Decodes one journal line back to its payload, verifying the CRC.
/// Returns `None` for any malformed or damaged line.
fn decode_journal_line(line: &str) -> Option<&str> {
    let (crc_hex, payload) = line.split_once('\t')?;
    if crc_hex.len() != 8 {
        return None;
    }
    let crc = u32::from_str_radix(crc_hex, 16).ok()?;
    (crc == crc32(payload.as_bytes())).then_some(payload)
}

/// The quarantine sidecar of a journal (`<journal>.quarantine`).
pub(crate) fn quarantine_path(journal: &Path) -> PathBuf {
    let mut os = journal.as_os_str().to_os_string();
    os.push(".quarantine");
    PathBuf::from(os)
}

/// The outcome of reading a journal body.
#[derive(Debug, Default)]
pub struct ParsedJournal {
    /// Rows that verified (CRC + shape), keyed by cell key.
    pub completed: HashMap<String, String>,
    /// Raw lines that failed verification, in journal order. These are
    /// *damage*, not data: their cells re-execute.
    pub quarantined: Vec<String>,
}

/// Parses a journal body into completed `key -> row` entries plus the
/// quarantine set.
///
/// Every complete line must decode as `<crc32>\t<payload>` with a
/// verifying CRC; lines that do not (bit flips, truncations, torn
/// appends that later gained a newline) land in
/// [`quarantined`](ParsedJournal::quarantined). A corrupt *header* line
/// quarantines the entire journal — rows carry no campaign identity of
/// their own, so none of them can be trusted to belong to `meta`. A torn
/// final line without its newline is silently discarded (the expected
/// SIGKILL residue, handled since v1).
///
/// # Errors
///
/// A journal whose header verifies but names a different configuration
/// is refused — that journal is someone else's, not damaged.
pub fn parse_journal(text: &str, meta: &str) -> Result<ParsedJournal, String> {
    if text.is_empty() {
        return Ok(ParsedJournal::default());
    }
    // Only newline-terminated lines are complete; a SIGKILL mid-append
    // leaves at most one torn tail, which we drop here.
    let complete = &text[..text.rfind('\n').map_or(0, |i| i + 1)];
    let mut parsed = ParsedJournal::default();
    let mut lines = complete.lines();
    match lines.next() {
        None => return Ok(parsed),
        Some(first) => match decode_journal_line(first) {
            Some(payload) if payload == meta => {}
            Some(payload) => {
                return Err(format!(
                    "journal belongs to a different campaign: found \"{payload}\", \
                     expected \"{meta}\""
                ))
            }
            None => {
                // Header damage: nothing below it can be attributed to
                // this campaign. Quarantine everything, start fresh.
                parsed.quarantined.push(first.to_string());
                parsed.quarantined.extend(lines.map(str::to_string));
                return Ok(parsed);
            }
        },
    }
    for line in lines {
        let valid = decode_journal_line(line).and_then(|payload| {
            let (key, row) = payload.split_once('\t')?;
            (row.split(',').count() == FIELDS).then(|| (key.to_string(), row.to_string()))
        });
        match valid {
            Some((key, row)) => {
                parsed.completed.insert(key, row);
            }
            None => parsed.quarantined.push(line.to_string()),
        }
    }
    Ok(parsed)
}

/// A journal opened for appending, with completed rows already parsed —
/// the state every campaign runner (in-process fleet or process cluster)
/// needs before executing pending cells.
pub struct JournalPrep {
    /// Rows reused verbatim from the journal, keyed by cell key.
    pub completed: HashMap<String, String>,
    /// Corrupt lines moved to `<journal>.quarantine` by this resume.
    pub quarantined: usize,
    /// Append handle positioned on a fresh line.
    pub file: fs::File,
}

/// Reads/validates `journal` against `meta`, quarantines damaged lines
/// to `<journal>.quarantine`, rewrites the journal with only the
/// surviving rows (self-healing: damage is processed exactly once), and
/// returns the append handle plus the completed rows. Shared by the
/// in-process and cluster campaign runners so both obey the identical
/// resume semantics.
///
/// # Errors
///
/// Unreadable/unwritable journals and valid-but-foreign headers surface
/// as errors; damaged lines do not (they quarantine).
pub fn prepare_journal(journal: &Path, meta: &str, resume: bool) -> Result<JournalPrep, String> {
    let parsed = if resume && journal.exists() {
        // Lossy decode, not `read_to_string`: a bit flip that lands a
        // non-UTF-8 byte must not brick the journal. The replacement
        // character breaks that line's CRC, so the damage quarantines
        // like any other instead of making the file unreadable forever.
        let bytes = fs::read(journal)
            .map_err(|e| format!("cannot read journal {}: {e}", journal.display()))?;
        let text = String::from_utf8_lossy(&bytes);
        parse_journal(&text, meta)?
    } else {
        ParsedJournal::default()
    };
    if !parsed.quarantined.is_empty() {
        // Damage goes to the quarantine sidecar (appended: repeated
        // resumes under repeated corruption accumulate evidence), with a
        // header naming the campaign it was quarantined from.
        let qpath = quarantine_path(journal);
        let mut body = format!("# quarantined from {meta}\n");
        for line in &parsed.quarantined {
            body.push_str(line);
            body.push('\n');
        }
        let mut qfile = OpenOptions::new()
            .append(true)
            .create(true)
            .open(&qpath)
            .map_err(|e| format!("cannot open quarantine {}: {e}", qpath.display()))?;
        qfile
            .write_all(body.as_bytes())
            .map_err(|e| format!("cannot write quarantine {}: {e}", qpath.display()))?;
        eprintln!(
            "[campaign] quarantined {} corrupt journal line(s) to {}; their cells re-execute",
            parsed.quarantined.len(),
            qpath.display(),
        );
    }
    // Rewrite the journal from verified content only: the header plus
    // surviving rows (sorted by key for a stable file). This drops
    // quarantined lines and any torn tail in one atomic publish, so a
    // later resume never re-quarantines the same damage.
    let mut body = journal_line(meta);
    let mut entries: Vec<(&String, &String)> = parsed.completed.iter().collect();
    entries.sort();
    for (key, row) in entries {
        body.push_str(&journal_line(&format!("{key}\t{row}")));
    }
    write_atomic_str(journal, &body)
        .map_err(|e| format!("cannot start journal {}: {e}", journal.display()))?;
    let file = OpenOptions::new()
        .append(true)
        .open(journal)
        .map_err(|e| format!("cannot append to journal {}: {e}", journal.display()))?;
    Ok(JournalPrep {
        completed: parsed.completed,
        quarantined: parsed.quarantined.len(),
        file,
    })
}

/// Where a campaign's tuple bundles execute. The rows, the journal and
/// the CSV are byte-identical on either.
#[derive(Debug, Clone)]
pub enum Executor {
    /// Crash-isolated worker threads in this process.
    Threads(Fleet),
    /// Worker processes of the multi-process sharded fleet.
    Procs(ClusterConfig),
}

impl Executor {
    /// Runs (or resumes) a fault-injection campaign.
    ///
    /// Each tuple's pending cells run as one crash-isolated bundle; the
    /// finished bundles' rows are appended to `journal` in tuple order,
    /// one line per write, so a killed process loses only the bundles in
    /// flight or waiting behind one. With
    /// `resume` set, rows already in the journal are reused verbatim and
    /// only missing cells run — the returned rows are bit-identical to an
    /// uninterrupted campaign.
    ///
    /// `on_row(cell_index, row)` fires once for every cell, on the calling
    /// thread: first for the rows reused from the journal, in cell order,
    /// then for each bundle's rows together, in tuple order, right after
    /// they are journalled. `cell_index` is the cell's position in the
    /// final tuple-major row order, so an observer holding a reorder
    /// buffer can merge the reused rows with the executed ones and stream
    /// them in output order. This is the campaign server's streaming hook.
    ///
    /// # Errors
    ///
    /// Returns an error when the journal cannot be read or written, when
    /// resuming against a journal written by a different configuration,
    /// or when the process fleet fails as a whole (no worker can run, a
    /// fatal protocol error); single worker deaths are not errors.
    pub fn run_campaign<F>(
        &self,
        config: &CampaignConfig,
        journal: &Path,
        resume: bool,
        mut on_row: F,
    ) -> Result<CampaignReport, String>
    where
        F: FnMut(usize, &str),
    {
        let tuples = config.generate_tuples();
        let schemes = config.schemes();
        let n = schemes.len();
        let keys: Vec<String> = tuples
            .iter()
            .flat_map(|t| schemes.iter().map(|&s| cell_key(t, s)))
            .collect();
        let JournalPrep {
            completed,
            quarantined,
            file,
        } = prepare_journal(journal, &config.meta_line(), resume)?;
        let mut rows: Vec<Option<String>> =
            keys.iter().map(|k| completed.get(k).cloned()).collect();
        for (i, row) in rows.iter().enumerate() {
            if let Some(row) = row {
                on_row(i, row);
            }
        }

        // One group per tuple with pending cells: their global cell indices
        // (tuple-major, so cell `c` is scheme `c % n` of tuple `c / n`).
        // A partly journalled tuple simply gets a smaller bundle.
        let groups: Vec<Vec<usize>> = (0..tuples.len())
            .map(|t| (t * n..(t + 1) * n).filter(|&c| rows[c].is_none()).collect())
            .filter(|g: &Vec<usize>| !g.is_empty())
            .collect();
        let bundle = |g: &[usize]| {
            let picked: Vec<Scheme> = g.iter().map(|&c| schemes[c % n]).collect();
            (&tuples[g[0] / n], picked)
        };
        let executed = groups.iter().map(Vec::len).sum();

        // The chaos wrapper injects journal faults when a plan is installed
        // and passes through untouched otherwise. An append failure is
        // *not* fatal: the row lives on in memory (this run's CSV is
        // complete) and a resume simply re-executes the cell — losing
        // durability, never correctness.
        let mut file = ChaosIo::journal(file);
        let mut panicked = 0;
        // Bundles finish in any order but are recorded in tuple order: a
        // finished bundle waits here until every earlier one is recorded,
        // so the journal's bytes, and the chaos draws that land on them,
        // do not depend on scheduling.
        let mut finished: Vec<Option<Vec<String>>> = vec![None; groups.len()];
        let mut next = 0;
        let mut record = |gid: usize, group_rows: &[String]| {
            finished[gid] = Some(group_rows.to_vec());
            while let Some(group_rows) = finished.get_mut(next).and_then(Option::take) {
                let cells = &groups[next];
                next += 1;
                // One write per line: a kill can tear at most the last
                // line, which parse_journal discards on resume.
                for (&c, row) in cells.iter().zip(&group_rows) {
                    let line = journal_line(&format!("{}\t{row}", keys[c]));
                    if let Err(e) = file.write_all(line.as_bytes()) {
                        eprintln!(
                            "[campaign] journal append failed ({e}); affected cells re-execute on resume"
                        );
                    }
                }
                // Rows are durable in the journal; now stream them.
                for (&c, row) in cells.iter().zip(group_rows) {
                    panicked += usize::from(row_field(&row, 6) == "panic");
                    on_row(c, &row);
                    rows[c] = Some(row);
                }
            }
        };

        let fleet = match self {
            Executor::Threads(fleet) => {
                let bundles: Vec<_> = groups.iter().map(|g| bundle(g)).collect();
                let labels = bundles.iter().map(|(t, s)| bundle_label(t, s.len())).collect();
                fleet
                    .map_observed(
                        bundles,
                        labels,
                        |(tuple, schemes)| run_bundle_caught(tuple, schemes, config),
                        |gid, group_rows| record(gid, group_rows),
                    )
                    .stats
            }
            Executor::Procs(cluster) => {
                let specs: Vec<String> = groups
                    .iter()
                    .map(|g| g.iter().map(ToString::to_string).collect::<Vec<_>>().join(","))
                    .collect();
                let ctx = format!("campaign {}", config.to_ctx());
                let stats = run_groups(cluster, &ctx, &specs, |gid, group_rows| {
                    if group_rows.len() != groups[gid].len() {
                        return Err(format!(
                            "job {gid} returned {} rows for {} cells",
                            group_rows.len(),
                            groups[gid].len(),
                        ));
                    }
                    record(gid, group_rows);
                    Ok(())
                })?;
                if stats.deaths > 0 {
                    eprintln!(
                        "[cluster] recovered from {} worker death(s): {} jobs reassigned, {} respawns",
                        stats.deaths, stats.reassigned, stats.respawns,
                    );
                }
                // The familiar FleetStats shape, so harness summaries need no
                // second code path: one "job" is one tuple group, and wall
                // times are coordinator-observed.
                FleetStats {
                    jobs: specs.len(),
                    workers: stats.workers,
                    elapsed: stats.elapsed,
                    serial_equivalent: stats.timings.iter().map(|(_, w, _)| *w).sum(),
                    timings: stats
                        .timings
                        .iter()
                        .map(|&(gid, wall, worker)| JobTiming {
                            index: gid,
                            label: format!(
                                "#{} x{} cells (proc {worker})",
                                tuples[groups[gid][0] / n].id,
                                groups[gid].len(),
                            ),
                            wall,
                            worker,
                        })
                        .collect(),
                }
            }
        };

        Ok(CampaignReport {
            rows: rows
                .into_iter()
                .map(|r| r.expect("every cell produced a row"))
                .collect(),
            reused: keys.len() - executed,
            quarantined,
            executed,
            panicked,
            fleet,
        })
    }
}

/// Runs (or resumes) a campaign on the crash-isolated thread `fleet`;
/// see [`Executor::run_campaign`].
///
/// # Errors
///
/// As [`Executor::run_campaign`].
pub fn run_campaign(
    fleet: &Fleet,
    config: &CampaignConfig,
    journal: &Path,
    resume: bool,
) -> Result<CampaignReport, String> {
    run_campaign_observed(fleet, config, journal, resume, |_, _| {})
}

/// [`run_campaign`] with the per-row observer of
/// [`Executor::run_campaign`].
///
/// # Errors
///
/// As [`Executor::run_campaign`].
pub fn run_campaign_observed<F>(
    fleet: &Fleet,
    config: &CampaignConfig,
    journal: &Path,
    resume: bool,
    on_row: F,
) -> Result<CampaignReport, String>
where
    F: FnMut(usize, &str),
{
    Executor::Threads(fleet.clone()).run_campaign(config, journal, resume, on_row)
}

/// [`run_campaign_observed`] on the multi-process sharded fleet: the
/// coordinator journals every row itself (workers are stateless), so the
/// output is bit-identical to the thread run at any `procs`, across
/// worker kills, and across resumes on either executor.
///
/// # Errors
///
/// As [`Executor::run_campaign`].
pub fn run_campaign_cluster<F>(
    cluster: &ClusterConfig,
    config: &CampaignConfig,
    journal: &Path,
    resume: bool,
    on_row: F,
) -> Result<CampaignReport, String>
where
    F: FnMut(usize, &str),
{
    Executor::Procs(cluster.clone()).run_campaign(config, journal, resume, on_row)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> CampaignConfig {
        CampaignConfig {
            tuples: 3,
            commits: 4_000,
            warmup: 2_000,
            riscv_tuples: 1,
            ..CampaignConfig::full()
        }
    }

    fn temp_journal(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "tv-campaign-{}-{tag}",
            std::process::id()
        ));
        fs::create_dir_all(&dir).expect("temp dir");
        dir.join("campaign.journal")
    }

    #[test]
    fn tuple_sweep_is_deterministic_and_diverse() {
        let cfg = CampaignConfig::full();
        let a = cfg.generate_tuples();
        let b = cfg.generate_tuples();
        assert_eq!(a, b, "the sweep is a pure function of the config");
        assert_eq!(a.len(), 64 + 4, "synthetic tuples plus the RISC-V appendix");
        assert!(a.iter().enumerate().all(|(i, t)| t.id == i as u32));
        let scenarios: std::collections::HashSet<_> =
            a.iter().map(|t| t.scenario).collect();
        let names: std::collections::HashSet<_> =
            a.iter().map(|t| t.workload.name()).collect();
        assert!(scenarios.len() >= 5, "64 tuples must cover the scenarios");
        assert!(names.len() >= 8, "64 tuples must cover the benchmarks");
        let seeds: std::collections::HashSet<_> = a.iter().map(|t| t.seed).collect();
        assert_eq!(seeds.len(), a.len(), "per-tuple seeds must be distinct");
        assert!(
            a[..64].iter().all(|t| !t.workload.is_riscv()),
            "synthetic tuples come first"
        );
        assert!(
            a[64..].iter().all(|t| t.workload.is_riscv()),
            "the appendix runs real programs"
        );
    }

    #[test]
    fn smoke_campaign_is_clean_and_control_is_caught() {
        let cfg = tiny_config();
        let journal = temp_journal("smoke");
        let report =
            run_campaign(&Fleet::new(2), &cfg, &journal, false).expect("campaign runs");
        assert_eq!(
            report.rows.len(),
            (cfg.tuples + cfg.riscv_tuples) * 7,
            "6 schemes + control"
        );
        assert_eq!(report.executed, report.rows.len());
        assert_eq!(report.reused, 0);
        assert_eq!(report.panicked, 0);
        for row in &report.rows {
            assert_eq!(row.split(',').count(), FIELDS, "malformed row: {row}");
        }
        assert!(
            report.failures().is_empty(),
            "real schemes must be oracle-clean: {:?}",
            report.failures()
        );
        assert!(
            report.control_catches() > 0,
            "the oracle must catch the NoTolerance control"
        );
        let (clean, corrupt, watchdog, panicked) = report.verdict_counts();
        assert_eq!(clean + corrupt, report.rows.len());
        assert_eq!(watchdog + panicked, 0);
        fs::remove_dir_all(journal.parent().unwrap()).ok();
    }

    #[test]
    fn resume_is_bit_identical_and_tolerates_torn_tail() {
        let cfg = tiny_config();
        let fleet = Fleet::new(2);

        // Uninterrupted reference run.
        let full_journal = temp_journal("resume-full");
        let reference =
            run_campaign(&fleet, &cfg, &full_journal, false).expect("reference run");

        // Simulate a SIGKILL: keep the meta line and the first five
        // completed rows, then a torn half-row with no newline.
        let text = fs::read_to_string(&full_journal).expect("journal exists");
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines.len() > 7, "need enough rows to truncate");
        let torn_journal = temp_journal("resume-torn");
        let mut torn = lines[..6].join("\n");
        torn.push('\n');
        torn.push_str(&lines[6][..lines[6].len() / 2]);
        fs::write(&torn_journal, &torn).expect("write torn journal");

        let resumed =
            run_campaign(&fleet, &cfg, &torn_journal, true).expect("resume runs");
        assert_eq!(resumed.reused, 5, "five journal rows survive the kill");
        assert_eq!(resumed.executed, reference.rows.len() - 5);
        assert_eq!(
            resumed.rows, reference.rows,
            "resumed output must be bit-identical"
        );
        assert_eq!(resumed.csv(), reference.csv());

        fs::remove_dir_all(full_journal.parent().unwrap()).ok();
        fs::remove_dir_all(torn_journal.parent().unwrap()).ok();
    }

    #[test]
    fn resume_refuses_foreign_journal() {
        let cfg = tiny_config();
        let journal = temp_journal("foreign");
        let other = CampaignConfig {
            campaign_seed: 999,
            ..cfg
        };
        // A *valid* header (CRC verifies) naming another campaign: this
        // journal is someone else's data, not damage — refuse it.
        fs::write(&journal, journal_line(&other.meta_line())).expect("seed journal");
        let err = run_campaign(&Fleet::new(1), &cfg, &journal, true)
            .expect_err("mismatched fingerprint must be refused");
        assert!(err.contains("different campaign"), "{err}");
        fs::remove_dir_all(journal.parent().unwrap()).ok();
    }

    #[test]
    fn journal_lines_round_trip_and_reject_any_single_byte_damage() {
        let payload = "3/CDS\t3,burst,gcc,0.970,CDS,77,clean,1,2,3,4,5,6,7,8,9,10,11,-";
        let line = journal_line(payload);
        assert!(line.ends_with('\n'));
        let body = line.trim_end_matches('\n');
        assert_eq!(decode_journal_line(body), Some(payload));
        // Any single-byte change — in the CRC field, the tab, or the
        // payload — must fail verification.
        let bytes = body.as_bytes();
        for i in 0..bytes.len() {
            let mut damaged = bytes.to_vec();
            damaged[i] ^= 0x04;
            if let Ok(s) = std::str::from_utf8(&damaged) {
                assert_ne!(
                    decode_journal_line(s),
                    Some(payload),
                    "damage at byte {i} went undetected"
                );
            }
        }
        assert_eq!(decode_journal_line("no-crc-here"), None);
        assert_eq!(decode_journal_line("zzzzzzzz\tpayload"), None);
    }

    #[test]
    fn parse_journal_quarantines_damaged_rows_and_heals_on_resume() {
        let cfg = tiny_config();
        let meta = cfg.meta_line();
        let good =
            journal_line("0/ABS\t0,paper,gcc,0.970,ABS,1,clean,1,2,3,4,5,6,7,8,9,10,11,-");
        let bad = good.replace("clean", "cleam"); // payload changed, CRC stale
        let text = format!("{}{good}{bad}", journal_line(&meta));
        let parsed = parse_journal(&text, &meta).expect("header verifies");
        assert_eq!(parsed.completed.len(), 1, "the intact row survives");
        assert!(parsed.completed.contains_key("0/ABS"));
        assert_eq!(parsed.quarantined.len(), 1, "the damaged row quarantines");
        assert!(parsed.quarantined[0].contains("cleam"));

        // A corrupt header distrusts the whole journal: everything
        // quarantines, nothing completes — the campaign starts fresh.
        let corrupt_header = format!("{}{good}", journal_line(&meta).replace('3', "4"));
        let parsed = parse_journal(&corrupt_header, &meta).expect("not an error");
        assert!(parsed.completed.is_empty());
        assert_eq!(parsed.quarantined.len(), 2);

        // End-to-end: prepare_journal moves the damage to the sidecar,
        // rewrites the journal, and a second prepare sees no new damage.
        let journal = temp_journal("quarantine");
        fs::write(&journal, &text).expect("seed damaged journal");
        let prep = prepare_journal(&journal, &meta, true).expect("prepare");
        assert_eq!(prep.quarantined, 1);
        assert_eq!(prep.completed.len(), 1);
        drop(prep);
        let qpath = quarantine_path(&journal);
        let qbody = fs::read_to_string(&qpath).expect("quarantine file exists");
        assert!(qbody.contains("cleam"), "damage preserved as evidence: {qbody}");
        let again = prepare_journal(&journal, &meta, true).expect("second prepare");
        assert_eq!(again.quarantined, 0, "healed journals stay healed");
        assert_eq!(again.completed.len(), 1);
        fs::remove_dir_all(journal.parent().unwrap()).ok();
    }

    #[test]
    fn observer_sees_every_cell_once_with_final_order_indices() {
        let cfg = tiny_config();
        let journal = temp_journal("observe");
        let mut seen = Vec::new();
        let report = run_campaign_observed(&Fleet::new(2), &cfg, &journal, false, |i, row| {
            seen.push((i, row.to_string()));
        })
        .expect("campaign runs");
        assert_eq!(seen.len(), report.rows.len(), "one observation per cell");
        seen.sort_by_key(|(i, _)| *i);
        for (slot, (i, row)) in seen.iter().enumerate() {
            assert_eq!(slot, *i, "indices cover 0..cells exactly once");
            assert_eq!(row, &report.rows[*i], "observer rows match the final CSV");
        }

        // A resumed run streams the journal-reused rows too — the
        // observer always sees the complete campaign.
        let text = fs::read_to_string(&journal).expect("journal exists");
        let lines: Vec<&str> = text.lines().collect();
        let partial = temp_journal("observe-partial");
        let mut body = lines[..4].join("\n");
        body.push('\n');
        fs::write(&partial, &body).expect("write partial journal");
        let mut reused_seen = 0usize;
        let resumed =
            run_campaign_observed(&Fleet::new(2), &cfg, &partial, true, |_, _| {
                reused_seen += 1;
            })
            .expect("resume runs");
        assert_eq!(reused_seen, resumed.rows.len());
        assert_eq!(resumed.rows, report.rows);

        fs::remove_dir_all(journal.parent().unwrap()).ok();
        fs::remove_dir_all(partial.parent().unwrap()).ok();
    }

    #[test]
    fn store_key_follows_config_and_content_not_job_shape() {
        let cfg = tiny_config();
        assert_eq!(cfg.store_key(), cfg.store_key(), "key is deterministic");
        assert_eq!(cfg.store_key().len(), 16);
        let cosim = CampaignConfig { cosim: true, ..cfg };
        assert_eq!(
            cfg.store_key(),
            cosim.store_key(),
            "job shape is not part of the experiment identity"
        );
        let other_seed = CampaignConfig {
            campaign_seed: cfg.campaign_seed + 1,
            ..cfg
        };
        assert_ne!(cfg.store_key(), other_seed.store_key());
        let other_len = CampaignConfig {
            commits: cfg.commits + 1,
            ..cfg
        };
        assert_ne!(cfg.store_key(), other_len.store_key());
        assert!(
            cfg.meta_line().contains("wl="),
            "fingerprint carries the workload content hash: {}",
            cfg.meta_line()
        );
    }

    #[test]
    fn panic_rows_keep_the_csv_shape() {
        let tuple = &tiny_config().generate_tuples()[1];
        let rows = panic_rows(tuple, &[Scheme::Cds, Scheme::Abs], "index out of bounds, len 4");
        assert_eq!(rows.len(), 2);
        for (row, scheme) in rows.iter().zip([Scheme::Cds, Scheme::Abs]) {
            assert!(row.starts_with(&cell_prefix(tuple, scheme)), "{row}");
            assert_eq!(row.split(',').count(), FIELDS);
            assert!(row.contains(",panic,"));
            assert!(row.ends_with("index out of bounds; len 4"));
        }
    }

    #[test]
    fn a_panicking_bundle_is_caught() {
        // A bundle with no lanes panics in `CoSim::build`; the caught run
        // returns its (empty) panic rows instead of unwinding.
        let config = tiny_config();
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // silence the expected panic
        let rows = run_bundle_caught(&config.generate_tuples()[0], &[], &config);
        std::panic::set_hook(hook);
        assert!(rows.is_empty());
    }

    #[test]
    fn panic_message_handles_common_payloads() {
        let s: Box<dyn std::any::Any + Send> = Box::new("static str");
        assert_eq!(panic_message(s.as_ref()), "static str");
        let owned: Box<dyn std::any::Any + Send> = Box::new(String::from("formatted"));
        assert_eq!(panic_message(owned.as_ref()), "formatted");
        let odd: Box<dyn std::any::Any + Send> = Box::new(42u32);
        assert_eq!(panic_message(odd.as_ref()), "opaque panic payload");
    }
}
