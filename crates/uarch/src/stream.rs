//! Per-stream build inputs, computed once and shared by every pipeline
//! built for the same stream.
//!
//! Every pipeline of a given (workload, seed, fast-forward) consumes the
//! same instruction stream, and every faulty one calibrates its fault
//! model on the same probe walk of it (DESIGN.md §8, §15). A
//! [`StreamMemo`] computes both once per distinct stream:
//!
//! * the stream's *start*: a source fast-forwarded to the simulated
//!   window. A synthetic start holds the generated `StaticProgram`, so
//!   each pipeline's source is a cheap [`fork`](WorkloadSource::fork) of
//!   it;
//! * the probe's per-PC counts, walked over another fork of the start.
//!
//! The first build that needs an entry computes it; later builds, on any
//! thread, reuse it (a build that needs it while it is being computed
//! waits for it). Entries are write-once and pure functions of their key,
//! and the memo derives that key from the builder's own inputs with exact
//! equality, so no caller can hand a pipeline the counts of a different
//! stream, and a pipeline built through a shared memo is bit-identical
//! to one built alone.
//!
//! [`PipelineBuilder::build`](crate::PipelineBuilder::build) and
//! [`CoSim::build`](crate::CoSim::build) each use a fresh memo; an
//! evaluation bag (`tv_core::run_evaluations`) owns one for its
//! duration. No memo lives
//! for the whole process: a process that repeats identical runs would
//! then skip every walk after the first run, which no single run sees.

use std::sync::{Arc, Mutex, OnceLock};

use tv_workloads::{WorkloadSource, WorkloadSpec};

/// Instructions profiled to calibrate the fault model's critical-PC set.
pub(crate) const FAULT_CALIBRATION_PROBE: u64 = 300_000;

/// A write-once memo of stream starts and calibration counts, keyed by
/// (workload, seed, fast-forward). See the module docs.
#[derive(Default)]
pub struct StreamMemo {
    streams: Mutex<Vec<Arc<Stream>>>,
}

impl StreamMemo {
    /// An empty memo.
    pub fn new() -> Self {
        Self::default()
    }

    /// Streams started: one source built (for a synthetic workload, one
    /// `StaticProgram` generated) per distinct stream any build asked for.
    pub fn starts(&self) -> u64 {
        self.count(|s| s.start.get().is_some())
    }

    /// Calibration probe walks run: one per distinct stream a faulty
    /// build asked for.
    pub fn walks(&self) -> u64 {
        self.count(|s| s.pc_counts.get().is_some())
    }

    fn count(&self, done: impl Fn(&Stream) -> bool) -> u64 {
        let streams = self.streams.lock().expect("a stream memo lookup panicked");
        streams.iter().filter(|s| done(s)).count() as u64
    }

    /// The entry for one stream, created empty on first use. Only the
    /// lookup holds the lock; computing an entry's parts does not.
    pub(crate) fn stream(
        &self,
        workload: &WorkloadSpec,
        seed: u64,
        fast_forward: u64,
    ) -> Arc<Stream> {
        let mut streams = self.streams.lock().expect("a stream memo lookup panicked");
        let found = streams
            .iter()
            .find(|s| s.seed == seed && s.fast_forward == fast_forward && s.workload == *workload);
        if let Some(stream) = found {
            return Arc::clone(stream);
        }
        let stream = Arc::new(Stream {
            workload: workload.clone(),
            seed,
            fast_forward,
            start: OnceLock::new(),
            pc_counts: OnceLock::new(),
        });
        streams.push(Arc::clone(&stream));
        stream
    }
}

/// One distinct stream's entry in a [`StreamMemo`].
pub(crate) struct Stream {
    workload: WorkloadSpec,
    seed: u64,
    fast_forward: u64,
    start: OnceLock<Box<dyn WorkloadSource>>,
    pc_counts: OnceLock<Vec<(u64, u64)>>,
}

impl Stream {
    /// A fresh source at the simulated window's start.
    pub(crate) fn source(&self) -> Box<dyn WorkloadSource> {
        self.start
            .get_or_init(|| {
                let mut src = self.workload.source(self.seed);
                src.fast_forward(self.fast_forward);
                src
            })
            .fork()
    }

    /// Per-PC counts of the first [`FAULT_CALIBRATION_PROBE`]
    /// instructions from the start (fewer when a finite workload halts
    /// first), sorted by PC.
    pub(crate) fn pc_counts(&self) -> &[(u64, u64)] {
        self.pc_counts
            .get_or_init(|| self.source().pc_counts(FAULT_CALIBRATION_PROBE))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tv_workloads::Benchmark;

    fn gcc() -> WorkloadSpec {
        WorkloadSpec::Synthetic(Benchmark::Gcc.profile())
    }

    #[test]
    fn one_entry_per_key_and_parts_only_on_demand() {
        let memo = StreamMemo::new();
        let a = memo.stream(&gcc(), 1, 0);
        assert!(
            Arc::ptr_eq(&a, &memo.stream(&gcc(), 1, 0)),
            "equal keys share"
        );
        for other in [memo.stream(&gcc(), 2, 0), memo.stream(&gcc(), 1, 5)] {
            assert!(!Arc::ptr_eq(&a, &other), "seed and fast-forward are key");
        }
        let mcf = WorkloadSpec::Synthetic(Benchmark::Mcf.profile());
        assert!(
            !Arc::ptr_eq(&a, &memo.stream(&mcf, 1, 0)),
            "workload is key"
        );
        assert_eq!(
            (memo.starts(), memo.walks()),
            (0, 0),
            "lookups compute nothing"
        );
        a.source();
        a.source();
        assert_eq!((memo.starts(), memo.walks()), (1, 0));
        a.pc_counts();
        a.pc_counts();
        assert_eq!(
            (memo.starts(), memo.walks()),
            (1, 1),
            "the walk forks the start"
        );
    }

    #[test]
    fn sources_start_after_the_fast_forward_and_counts_match_a_fresh_probe() {
        let memo = StreamMemo::new();
        let stream = memo.stream(&gcc(), 7, 1_000);
        let mut fresh = gcc().source(7);
        fresh.fast_forward(1_000);
        let (mut a, mut b) = (stream.source(), stream.source());
        for _ in 0..2_000 {
            let want = fresh.next_inst();
            assert_eq!(a.next_inst(), want);
            assert_eq!(b.next_inst(), want, "forks are independent");
        }
        let mut probe = gcc().source(7);
        probe.fast_forward(1_000);
        assert_eq!(
            stream.pc_counts(),
            &probe.pc_counts(FAULT_CALIBRATION_PROBE)[..]
        );
    }
}
