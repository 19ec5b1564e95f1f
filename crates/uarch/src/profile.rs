//! Self-profiling for the pipeline hot path.
//!
//! With the `stage-profile` cargo feature enabled, [`Pipeline::step`]
//! accumulates per-stage wall-clock time into process-wide relaxed
//! atomics; [`snapshot`] reads them back for reporting (the bench
//! harnesses append the breakdown to `runner_timing.csv`, `simspeed`
//! prints it). With the feature disabled — the default — every probe
//! compiles to nothing: no `Instant::now`, no atomics, no branches.
//!
//! The counters are global rather than per-`Pipeline` so that fleet runs
//! (many pipelines across worker threads) aggregate into one breakdown
//! without threading profile state through result types, which must stay
//! bit-identical across worker counts.
//!
//! [`Pipeline::step`]: crate::Pipeline::step

/// Pipeline stages instrumented by the profiler, in `step()` order. The
/// `issue.*` entries are sub-phases nested inside `issue` (wakeup:
/// promoting the issue-queue entries whose cached wake has come and
/// gathering the ready ones; priority ordering; lane select + downstream
/// timing). `frontend` is nested inside `fetch`: the scheme-invariant
/// instruction-supply work (trace generation, fault sampling, shared
/// branch-outcome resolution) — in a solo run it is paid per lane, in a
/// co-sim once per bundle, which is the shared-frontend amortization claim
/// made visible.
pub const STAGE_NAMES: [&str; 12] = [
    "events",
    "retire",
    "issue",
    "dispatch",
    "rename",
    "decode",
    "fetch",
    "audit",
    "issue.wake",
    "issue.sort",
    "issue.sel",
    "frontend",
];

/// Index constants matching [`STAGE_NAMES`].
pub(crate) mod stage {
    pub const EVENTS: usize = 0;
    pub const RETIRE: usize = 1;
    pub const ISSUE: usize = 2;
    pub const DISPATCH: usize = 3;
    pub const RENAME: usize = 4;
    pub const DECODE: usize = 5;
    pub const FETCH: usize = 6;
    pub const AUDIT: usize = 7;
    pub const ISSUE_WAKE: usize = 8;
    pub const ISSUE_SORT: usize = 9;
    pub const ISSUE_SEL: usize = 10;
    pub const FRONTEND: usize = 11;
}

/// One stage's accumulated profile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageSample {
    /// Stage name (one of [`STAGE_NAMES`]).
    pub name: &'static str,
    /// Total wall-clock nanoseconds spent in the stage.
    pub nanos: u64,
    /// Number of timed stage invocations.
    pub calls: u64,
}

/// Whether the profiler is compiled in.
pub const fn enabled() -> bool {
    cfg!(feature = "stage-profile")
}

#[cfg(feature = "stage-profile")]
mod imp {
    use std::sync::atomic::{AtomicU64, Ordering};

    const N: usize = super::STAGE_NAMES.len();
    static NANOS: [AtomicU64; N] = [const { AtomicU64::new(0) }; N];
    static CALLS: [AtomicU64; N] = [const { AtomicU64::new(0) }; N];

    #[inline]
    pub fn record(idx: usize, nanos: u64) {
        NANOS[idx].fetch_add(nanos, Ordering::Relaxed);
        CALLS[idx].fetch_add(1, Ordering::Relaxed);
    }

    pub fn read(idx: usize) -> (u64, u64) {
        (
            NANOS[idx].load(Ordering::Relaxed),
            CALLS[idx].load(Ordering::Relaxed),
        )
    }

    pub fn reset() {
        for i in 0..N {
            NANOS[i].store(0, Ordering::Relaxed);
            CALLS[i].store(0, Ordering::Relaxed);
        }
    }
}

/// Records one stage invocation (no-op without the feature; only
/// referenced by `timed_stage!` expansions when profiling is on).
#[inline(always)]
#[allow(unused_variables, dead_code)]
pub(crate) fn record(idx: usize, nanos: u64) {
    #[cfg(feature = "stage-profile")]
    imp::record(idx, nanos);
}

/// The accumulated per-stage profile; empty when the feature is off.
pub fn snapshot() -> Vec<StageSample> {
    #[cfg(feature = "stage-profile")]
    {
        return STAGE_NAMES
            .iter()
            .enumerate()
            .map(|(i, &name)| {
                let (nanos, calls) = imp::read(i);
                StageSample { name, nanos, calls }
            })
            .collect();
    }
    #[cfg(not(feature = "stage-profile"))]
    Vec::new()
}

/// Zeroes the counters (between measurement phases).
pub fn reset() {
    #[cfg(feature = "stage-profile")]
    imp::reset();
}

/// Times a stage expression when profiling is compiled in; expands to the
/// bare expression otherwise.
macro_rules! timed_stage {
    ($idx:expr, $e:expr) => {{
        #[cfg(feature = "stage-profile")]
        let __profile_t0 = std::time::Instant::now();
        #[cfg(not(feature = "stage-profile"))]
        let _ = $idx; // keep the index used (and type-checked) when off
        let __r = $e;
        #[cfg(feature = "stage-profile")]
        $crate::profile::record($idx, __profile_t0.elapsed().as_nanos() as u64);
        __r
    }};
}
pub(crate) use timed_stage;

#[cfg(test)]
mod tests {
    #[test]
    fn snapshot_matches_feature_state() {
        let snap = super::snapshot();
        if super::enabled() {
            assert_eq!(snap.len(), super::STAGE_NAMES.len());
        } else {
            assert!(snap.is_empty());
        }
        super::reset(); // must not panic either way
    }
}
