//! Minimal in-tree micro-benchmark harness.
//!
//! Replaces the `criterion` dev-dependency (unavailable in offline
//! builds) for the `benches/` targets. It keeps the parts these benches
//! actually used: named benchmarks, automatic iteration-count calibration,
//! and a stable one-line report of the per-iteration time.
//!
//! ```text
//! pipeline_kernel/simulate_20k/CDS   time: 12.41 ms/iter  (5 samples x 3 iters)
//! ```
//!
//! Timings come from `std::time::Instant`; results are reported as the
//! median of the per-sample means, which is robust to a stray slow sample
//! on a shared host.

use std::hint::black_box;
use std::str::FromStr;
use std::time::{Duration, Instant};

/// Shared command-line parsing for the harness binaries.
///
/// Every bin in this crate used to hand-roll the same loop — `args.next()`
/// plus `panic!` on a bad flag, which aborts with a backtrace and exit
/// code 101. This parser keeps the loop shape (the bins still own their
/// `match arg`), but malformed input prints the offending flag and the
/// binary's usage line to **stderr** and exits with status **2**, the
/// conventional usage-error code.
///
/// ```no_run
/// use tv_bench::harness::Cli;
/// let mut cli = Cli::new("example", "example [--commits N] [--out DIR]");
/// let mut commits: u64 = 20_000;
/// while let Some(arg) = cli.next_arg() {
///     match arg.as_str() {
///         "--commits" => commits = cli.parse("--commits"),
///         other => cli.unknown(other),
///     }
/// }
/// ```
pub struct Cli {
    bin: &'static str,
    usage: &'static str,
    args: std::vec::IntoIter<String>,
}

/// A usage error: what went wrong, before [`Cli`] renders it and exits.
#[derive(Debug, PartialEq, Eq)]
pub struct UsageError(pub String);

impl Cli {
    /// Parses the process arguments (after the binary name).
    pub fn new(bin: &'static str, usage: &'static str) -> Self {
        Self::from_vec(bin, usage, std::env::args().skip(1).collect())
    }

    /// Parser over explicit arguments — the testable constructor.
    pub fn from_vec(bin: &'static str, usage: &'static str, args: Vec<String>) -> Self {
        Cli {
            bin,
            usage,
            args: args.into_iter(),
        }
    }

    /// The next argument, if any.
    #[allow(clippy::should_implement_trait)]
    pub fn next_arg(&mut self) -> Option<String> {
        self.args.next()
    }

    /// The value following `flag`, or a usage exit when it is missing.
    pub fn value(&mut self, flag: &str) -> String {
        self.try_value(flag).unwrap_or_else(|e| self.exit(e))
    }

    /// The value following `flag`, parsed as `T`; usage exit on a missing
    /// value or a parse failure.
    pub fn parse<T: FromStr>(&mut self, flag: &str) -> T
    where
        T::Err: std::fmt::Display,
    {
        self.try_parse(flag).unwrap_or_else(|e| self.exit(e))
    }

    /// Reports an unrecognized argument and exits with status 2.
    pub fn unknown(&self, arg: &str) -> ! {
        self.exit(UsageError(format!("unknown argument `{arg}`")))
    }

    /// Reports an arbitrary usage error and exits with status 2.
    pub fn fail(&self, message: &str) -> ! {
        self.exit(UsageError(message.to_string()))
    }

    fn try_value(&mut self, flag: &str) -> Result<String, UsageError> {
        self.args
            .next()
            .ok_or_else(|| UsageError(format!("{flag} requires a value")))
    }

    fn try_parse<T: FromStr>(&mut self, flag: &str) -> Result<T, UsageError>
    where
        T::Err: std::fmt::Display,
    {
        let raw = self.try_value(flag)?;
        raw.parse()
            .map_err(|e| UsageError(format!("{flag}: invalid value `{raw}`: {e}")))
    }

    fn exit(&self, err: UsageError) -> ! {
        eprintln!("{}: {}", self.bin, err.0);
        eprintln!("usage: {}", self.usage);
        std::process::exit(2);
    }
}

/// Wall-clock budget per benchmark used to calibrate iteration counts.
const TARGET_SAMPLE: Duration = Duration::from_millis(300);
/// Samples taken per benchmark (median reported).
const SAMPLES: usize = 5;

/// A named group of benchmarks (mirrors the `criterion` group concept).
pub struct Harness {
    group: &'static str,
    filter: Option<String>,
}

impl Harness {
    /// Creates a harness for one bench target.
    ///
    /// Accepts and ignores the arguments `cargo bench` forwards
    /// (`--bench`, and an optional name filter which is honored).
    pub fn new(group: &'static str) -> Self {
        let filter = std::env::args()
            .skip(1)
            .find(|a| !a.starts_with("--"));
        Harness { group, filter }
    }

    /// Runs one benchmark: calibrates an iteration count so a sample
    /// lasts roughly `TARGET_SAMPLE`, takes `SAMPLES` samples and
    /// reports the median per-iteration time.
    pub fn bench<T>(&self, name: &str, mut f: impl FnMut() -> T) {
        let full = format!("{}/{}", self.group, name);
        if let Some(filter) = &self.filter {
            if !full.contains(filter.as_str()) {
                return;
            }
        }
        // Calibration: one untimed warmup, then measure a single call.
        black_box(f());
        let t0 = Instant::now();
        black_box(f());
        let once = t0.elapsed().max(Duration::from_nanos(1));
        let iters = (TARGET_SAMPLE.as_nanos() / once.as_nanos()).clamp(1, 10_000) as u32;

        let mut per_iter: Vec<f64> = (0..SAMPLES)
            .map(|_| {
                let t = Instant::now();
                for _ in 0..iters {
                    black_box(f());
                }
                t.elapsed().as_secs_f64() / f64::from(iters)
            })
            .collect();
        per_iter.sort_by(|a, b| a.partial_cmp(b).expect("durations are finite"));
        let median = per_iter[SAMPLES / 2];
        println!(
            "{full:<48} time: {:>12}  ({SAMPLES} samples x {iters} iters)",
            humanize(median)
        );
    }
}

/// Formats seconds-per-iteration with an adaptive unit.
fn humanize(secs: f64) -> String {
    if secs >= 1.0 {
        format!("{secs:.3} s/iter")
    } else if secs >= 1e-3 {
        format!("{:.2} ms/iter", secs * 1e3)
    } else if secs >= 1e-6 {
        format!("{:.2} us/iter", secs * 1e6)
    } else {
        format!("{:.1} ns/iter", secs * 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cli_reads_flags_values_and_typed_values() {
        let mut cli = Cli::from_vec(
            "t",
            "t [--n N] [--name S]",
            vec!["--n".into(), "42".into(), "--name".into(), "gcc".into()],
        );
        assert_eq!(cli.next_arg().as_deref(), Some("--n"));
        assert_eq!(cli.try_parse::<u64>("--n"), Ok(42));
        assert_eq!(cli.next_arg().as_deref(), Some("--name"));
        assert_eq!(cli.try_value("--name"), Ok("gcc".into()));
        assert_eq!(cli.next_arg(), None);
    }

    #[test]
    fn cli_usage_errors_name_the_flag() {
        let mut cli = Cli::from_vec("t", "t", vec!["--n".into(), "nope".into()]);
        cli.next_arg();
        let err = cli.try_parse::<u64>("--n").unwrap_err();
        assert!(err.0.contains("--n"), "{}", err.0);
        assert!(err.0.contains("nope"), "{}", err.0);
        let mut cli = Cli::from_vec("t", "t", vec!["--n".into()]);
        cli.next_arg();
        let err = cli.try_parse::<u64>("--n").unwrap_err();
        assert_eq!(err.0, "--n requires a value");
    }

    #[test]
    fn humanize_picks_sane_units() {
        assert!(humanize(2.5).ends_with("s/iter"));
        assert!(humanize(2.5e-3).contains("ms"));
        assert!(humanize(2.5e-6).contains("us"));
        assert!(humanize(2.5e-9).contains("ns"));
    }

    #[test]
    fn bench_runs_each_closure() {
        let h = Harness {
            group: "test",
            filter: None,
        };
        let mut calls = 0u32;
        h.bench("counting", || calls += 1);
        assert!(calls > 0);
    }

    #[test]
    fn filter_skips_non_matching() {
        let h = Harness {
            group: "test",
            filter: Some("nomatch".into()),
        };
        let mut calls = 0u32;
        h.bench("other", || calls += 1);
        assert_eq!(calls, 0);
    }
}
