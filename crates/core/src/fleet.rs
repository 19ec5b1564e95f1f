//! The parallel experiment engine.
//!
//! Every table and figure of the evaluation is a bag of independent
//! simulation jobs — one `(benchmark, voltage, scheme, config)` tuple
//! each. The [`Fleet`] fans such bags across `std::thread::scope` workers
//! and returns the results **in submission order**, so harnesses and
//! tests see output identical to a serial loop. It knows nothing about
//! the jobs it runs: [`run_evaluations`](crate::experiment::run_evaluations)
//! and the campaign executor hand it items and a function.
//!
//! # Determinism contract
//!
//! Every job is a pure function of its item: the pipeline, workload
//! trace, fault model and TEP are all (re)constructed inside the job from
//! its seed, and no RNG state is shared between jobs. Anything the jobs
//! of a bag do share (the write-once `uarch::StreamMemo` of a
//! `run_evaluations` bag) must be a pure function of its key, so a job
//! gets the same inputs whichever job computed them. Results are
//! written into per-job slots indexed by submission order. Consequently a
//! fleet run is **bit-identical** to a serial run — and to any other
//! fleet run — regardless of worker count, scheduling interleavings or
//! completion order. `tests/determinism.rs` at the workspace root pins
//! this contract for 1, 2 and N workers and for shuffled submission.
//!
//! # Worker count
//!
//! [`Fleet::auto`] honours the `TV_WORKERS` environment variable and
//! falls back to [`std::thread::available_parallelism`]. Idle worker
//! threads take the next item in submission order off a shared atomic
//! cursor, so long jobs do not convoy short ones.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::channel;
use std::time::{Duration, Instant};

/// Wall-clock timing of one completed job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobTiming {
    /// Submission index of the job.
    pub index: usize,
    /// The item's progress label (`gcc/ABS@0.970V` for an evaluation
    /// job; empty for [`Fleet::map`] items).
    pub label: String,
    /// Wall-clock time the job spent executing.
    pub wall: Duration,
    /// Worker thread that executed the job.
    pub worker: usize,
}

/// Aggregate counters for one fleet run — the engine's `SimStats`.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetStats {
    /// Jobs executed.
    pub jobs: usize,
    /// Worker threads used.
    pub workers: usize,
    /// Wall-clock time of the whole run.
    pub elapsed: Duration,
    /// Sum of per-job wall-clock times (what a serial loop would cost).
    pub serial_equivalent: Duration,
    /// Per-job timings, in submission order.
    pub timings: Vec<JobTiming>,
    /// Streams a [`run_evaluations`](crate::experiment::run_evaluations)
    /// bag's memo started: one program generation per distinct
    /// (benchmark, seed, fast-forward). Zero for other runs, which keep
    /// no memo.
    pub starts: u64,
    /// Calibration probe walks the bag's memo ran: one per distinct
    /// stream with a faulty job. Zero for runs that keep no memo.
    pub walks: u64,
}

impl FleetStats {
    /// Parallel speedup: serial-equivalent time over elapsed time.
    /// About 1.0 on a single-core host, approaching the worker count when
    /// jobs are plentiful and balanced.
    pub fn speedup(&self) -> f64 {
        let elapsed = self.elapsed.as_secs_f64();
        if elapsed <= 0.0 {
            return 1.0;
        }
        self.serial_equivalent.as_secs_f64() / elapsed
    }

    /// The longest-running job, if any ran.
    pub fn slowest(&self) -> Option<&JobTiming> {
        self.timings.iter().max_by_key(|t| t.wall)
    }

    /// One-line human summary for harness output; an evaluation bag adds
    /// its memo counts.
    pub fn summary(&self) -> String {
        let mut line = format!(
            "{} jobs on {} worker{} in {:.2}s (serial-equivalent {:.2}s, speedup {:.2}x)",
            self.jobs,
            self.workers,
            if self.workers == 1 { "" } else { "s" },
            self.elapsed.as_secs_f64(),
            self.serial_equivalent.as_secs_f64(),
            self.speedup()
        );
        if self.starts > 0 {
            line += &format!(
                ", {} stream{} started, {} calibration walk{}",
                self.starts,
                if self.starts == 1 { "" } else { "s" },
                self.walks,
                if self.walks == 1 { "" } else { "s" },
            );
        }
        line
    }
}

/// Results plus timing counters of one fleet run. `results[i]` belongs to
/// the `i`-th submitted item, always.
#[derive(Debug)]
pub struct FleetRun<R> {
    /// Per-item results, in submission order.
    pub results: Vec<R>,
    /// Timing/progress counters.
    pub stats: FleetStats,
}

/// The parallel experiment engine.
#[derive(Debug, Clone)]
pub struct Fleet {
    workers: usize,
    progress: bool,
}

impl Fleet {
    /// Creates a fleet with `workers` threads (clamped to at least 1).
    pub fn new(workers: usize) -> Self {
        Fleet {
            workers: workers.max(1),
            progress: false,
        }
    }

    /// A single-worker fleet: runs jobs serially on one spawned thread.
    pub fn serial() -> Self {
        Fleet::new(1)
    }

    /// Picks the worker count from the `TV_WORKERS` environment variable,
    /// falling back to [`std::thread::available_parallelism`].
    pub fn auto() -> Self {
        Fleet::new(auto_workers(std::env::var("TV_WORKERS").ok().as_deref()))
    }

    /// Enables (or disables) per-job progress lines on stderr.
    pub fn with_progress(mut self, progress: bool) -> Self {
        self.progress = progress;
        self
    }

    /// Worker threads this fleet uses.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Generic deterministic parallel map: applies `f` to every item and
    /// returns the results in item order. `f` must be a pure function of
    /// its item for the determinism contract to hold.
    pub fn map<T, R, F>(&self, items: Vec<T>, f: F) -> FleetRun<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        let labels = vec![String::new(); items.len()];
        self.map_observed(items, labels, f, |_, _| {})
    }

    /// [`map`](Fleet::map) with a completion observer and progress
    /// labels: `observe(index, result)` runs on the *calling* thread as
    /// each item finishes (in completion order, not submission order).
    /// This is the checkpoint hook — a resumable harness journals each
    /// finished result here, single-threaded, so a `SIGKILL` loses at most
    /// the results still in flight. `labels` must have one identity string
    /// per item.
    pub fn map_observed<T, R, F, O>(
        &self,
        items: Vec<T>,
        labels: Vec<String>,
        f: F,
        mut observe: O,
    ) -> FleetRun<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
        O: FnMut(usize, &R),
    {
        assert_eq!(items.len(), labels.len(), "one label per item");
        let total = items.len();
        let workers = self.workers.min(total.max(1));
        let started = Instant::now();

        // Workers send each finished item home; the calling thread observes
        // it and files it in its submission-order slot.
        let mut slots: Vec<Option<(R, Duration, usize)>> = (0..total).map(|_| None).collect();
        let cursor = AtomicUsize::new(0);
        let (tx, rx) = channel();

        std::thread::scope(|scope| {
            for worker in 0..workers {
                let cursor = &cursor;
                let items = &items;
                let f = &f;
                let tx = tx.clone();
                scope.spawn(move || loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= total {
                        break;
                    }
                    let t0 = Instant::now();
                    let result = f(&items[i]);
                    if tx.send((i, result, t0.elapsed(), worker)).is_err() {
                        break;
                    }
                });
            }
            drop(tx);
            for (n, (i, result, wall, worker)) in rx.iter().enumerate() {
                observe(i, &result);
                if self.progress {
                    eprintln!(
                        "[fleet] {}/{total} {} {:.2}s (worker {worker})",
                        n + 1,
                        labels[i],
                        wall.as_secs_f64()
                    );
                }
                slots[i] = Some((result, wall, worker));
            }
        });

        let elapsed = started.elapsed();
        let mut results = Vec::with_capacity(total);
        let mut timings = Vec::with_capacity(total);
        let mut serial_equivalent = Duration::ZERO;
        for (index, (slot, label)) in slots.into_iter().zip(labels).enumerate() {
            let (result, wall, worker) = slot.expect("every job slot is filled");
            serial_equivalent += wall;
            results.push(result);
            timings.push(JobTiming {
                index,
                label,
                wall,
                worker,
            });
        }
        FleetRun {
            results,
            stats: FleetStats {
                jobs: total,
                workers,
                elapsed,
                serial_equivalent,
                timings,
                starts: 0,
                walks: 0,
            },
        }
    }
}

impl Default for Fleet {
    fn default() -> Self {
        Fleet::auto()
    }
}

/// Resolves the worker count from an optional `TV_WORKERS` value.
fn auto_workers(env: Option<&str>) -> usize {
    if let Some(v) = env {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_submission_order() {
        // Uneven job costs ensure out-of-order completion under >1 worker.
        let items: Vec<u64> = (0..64).collect();
        let run = Fleet::new(4).map(items, |&i| {
            if i % 7 == 0 {
                std::thread::yield_now();
            }
            i * i
        });
        let expect: Vec<u64> = (0..64).map(|i| i * i).collect();
        assert_eq!(run.results, expect);
        assert_eq!(run.stats.jobs, 64);
        assert_eq!(run.stats.timings.len(), 64);
        assert!(run.stats.timings.iter().enumerate().all(|(i, t)| t.index == i));
    }

    #[test]
    fn identical_results_across_worker_counts() {
        let f = |&i: &u64| i.wrapping_mul(6364136223846793005).rotate_left(17);
        let serial = Fleet::serial().map((0..40).collect(), f);
        for workers in [2, 3, 8] {
            let par = Fleet::new(workers).map((0..40).collect(), f);
            assert_eq!(par.results, serial.results, "workers = {workers}");
        }
    }

    #[test]
    fn workers_clamped_to_jobs_and_one() {
        assert_eq!(Fleet::new(0).workers(), 1);
        let run = Fleet::new(16).map(vec![1, 2], |&i: &i32| i);
        assert_eq!(run.stats.workers, 2, "never more workers than jobs");
        let empty = Fleet::new(3).map(Vec::<i32>::new(), |&i| i);
        assert!(empty.results.is_empty());
        assert_eq!(empty.stats.jobs, 0);
    }

    #[test]
    fn stats_counters_are_populated() {
        let run = Fleet::new(2).map((0..6).collect::<Vec<i32>>(), |&i| {
            std::thread::sleep(Duration::from_millis(1));
            i
        });
        assert!(run.stats.serial_equivalent >= Duration::from_millis(6));
        assert!(run.stats.elapsed > Duration::ZERO);
        assert!(run.stats.speedup() > 0.0);
        assert!(run.stats.slowest().is_some());
        let s = run.stats.summary();
        assert!(s.contains("6 jobs"), "{s}");
    }

    #[test]
    fn auto_worker_resolution() {
        assert_eq!(auto_workers(Some("3")), 3);
        assert_eq!(auto_workers(Some(" 5 ")), 5);
        // Invalid or zero values fall back to host parallelism (>= 1).
        assert!(auto_workers(Some("0")) >= 1);
        assert!(auto_workers(Some("nope")) >= 1);
        assert!(auto_workers(None) >= 1);
    }

    #[test]
    fn observer_sees_every_completion_once_on_the_caller() {
        let items: Vec<u64> = (0..32).collect();
        let labels: Vec<String> = items.iter().map(|i| format!("item-{i}")).collect();
        let caller = std::thread::current().id();
        let mut seen = Vec::new();
        let run = Fleet::new(4).map_observed(
            items,
            labels,
            |&i| i + 1,
            |index, &result: &u64| {
                assert_eq!(std::thread::current().id(), caller, "observed on the caller");
                seen.push((index, result));
            },
        );
        let expect: Vec<(usize, u64)> = (0..32).map(|i| (i, i as u64 + 1)).collect();
        assert_eq!(run.results, expect.iter().map(|&(_, r)| r).collect::<Vec<_>>());
        assert!(run.stats.timings.iter().all(|t| t.label == format!("item-{}", t.index)));
        seen.sort_unstable();
        assert_eq!(seen, expect, "one observation per item, values intact");
    }
}
