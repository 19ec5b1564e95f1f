//! Steady-state zero-allocation guarantee for `Pipeline::step`.
//!
//! Every per-cycle buffer in the simulator is hoisted and reused: the
//! issue stage's candidate scratch, the flat cache tag arrays and the
//! event heap all reach a stable capacity during warm-up, and the
//! in-flight window and the issue queue's position, slot and reader
//! tables are sized at build. After that, a measured run must perform **zero** heap
//! allocations — the property the throughput work relies on, pinned here
//! with a counting global allocator across all four tolerance modes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use tv_core::Scheme;
use tv_timing::Voltage;
use tv_workloads::Benchmark;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// One scheme per tolerance mode: fault-free baseline, Razor flush
/// recovery, Error Padding's global stalls, and the violation-aware
/// machinery (CDS exercises the TEP, CDL, replay and delayed-broadcast
/// paths — the richest allocation surface).
const MODES: [Scheme; 4] = [
    Scheme::FaultFree,
    Scheme::Razor,
    Scheme::ErrorPadding,
    Scheme::Cds,
];

#[test]
fn steady_state_makes_no_allocations() {
    for scheme in MODES {
        let mut pipe = scheme
            .pipeline_builder(Benchmark::Gcc, 42, Voltage::high_fault())
            .build();
        // Warm-up grows every buffer to its steady capacity (caches fill,
        // the candidate scratch and the event heap reach their high-water
        // marks, the CDL's criticality ranking is materialized).
        pipe.warm_up(30_000);
        let before = ALLOCS.load(Ordering::Relaxed);
        let stats = pipe.run(30_000);
        let after = ALLOCS.load(Ordering::Relaxed);
        assert_eq!(stats.committed, 30_000, "{}: short run", scheme.name());
        assert_eq!(
            after - before,
            0,
            "{}: {} heap allocations in a steady-state window of {} cycles",
            scheme.name(),
            after - before,
            stats.cycles,
        );
    }
}
