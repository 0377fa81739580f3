//! Pins the memory layout of the monitor's row history.
//!
//! The history grows for as long as orchestration runs, so it must stay
//! packed — each row's 40 bytes of payload, one small header per run of
//! rows — and it must live in fixed-size chunks, never in one buffer that
//! grows (and reallocates) with the run. This records a stream shaped like
//! one block of the benchmark's `run-long` workload (180 rounds × 10 RAs ×
//! 24 intervals × 5 slices, one report of it an outage grid instead, plus
//! one replayed round) under a per-thread allocator that tracks live bytes
//! and the largest single allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use edgeslice::{IntervalStatus, MonitorRecord, RaId, SliceId, SystemMonitor};

/// Tracks the calling thread's live heap bytes and largest allocation
/// while its [`TRACKING`] flag is set (per thread, so the libtest harness
/// thread's own allocations never land in a measured region).
struct TrackingAllocator;

thread_local! {
    // `const`-initialised and without destructors: reading them from inside
    // the allocator neither allocates nor registers a TLS destructor.
    static TRACKING: Cell<bool> = const { Cell::new(false) };
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(freed: usize, allocated: usize) {
    if TRACKING.with(Cell::get) {
        LIVE.with(|n| n.set(n.get() + allocated as isize - freed as isize));
        LARGEST.with(|n| n.set(n.get().max(allocated)));
    }
}

unsafe impl GlobalAlloc for TrackingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(0, layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(layout.size(), 0);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(layout.size(), new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: TrackingAllocator = TrackingAllocator;

/// Runs `f` with tracking enabled on this thread; returns its result, the
/// heap bytes it left live and its largest single allocation.
fn track<T>(f: impl FnOnce() -> T) -> (T, isize, usize) {
    LIVE.with(|n| n.set(0));
    LARGEST.with(|n| n.set(0));
    TRACKING.with(|c| c.set(true));
    let out = f();
    TRACKING.with(|c| c.set(false));
    (out, LIVE.with(Cell::get), LARGEST.with(Cell::get))
}

const ROUNDS: usize = 180;
const N_RAS: usize = 10;
const PERIOD: usize = 24;
const N_SLICES: usize = 5;

/// The most a history chunk may take: 80 KiB, under glibc's 128 KiB mmap
/// threshold.
const CHUNK_BYTES: usize = 80 * 1024;

/// One RA's report for one round, as a worker emits it: `PERIOD ×
/// N_SLICES` served rows, interval-major.
fn report(round: usize, ra: usize) -> impl Iterator<Item = MonitorRecord> {
    (0..PERIOD * N_SLICES).map(move |k| {
        let x = (round * 7 + ra * 3 + k) as f64;
        MonitorRecord {
            round,
            interval: k / N_SLICES,
            ra: RaId(ra),
            slice: SliceId(k % N_SLICES),
            queue: x * 0.5,
            performance: -x * 0.01,
            shares: [0.1, 0.2, x.sin()],
            status: IntervalStatus::Served,
        }
    })
}

#[test]
fn history_is_packed_in_bounded_chunks() {
    let mut stream: Vec<MonitorRecord> = (0..ROUNDS)
        .flat_map(|round| (0..N_RAS).flat_map(move |ra| report(round, ra)))
        .collect();
    // RA 4 dark for round 90: `record_outage`'s grid, in place of its report.
    let dark = 90 * N_RAS + 4;
    let outage = (0..PERIOD * N_SLICES)
        .map(|k| MonitorRecord::outage(90, k / N_SLICES, RaId(4), SliceId(k % N_SLICES)));
    let range = dark * PERIOD * N_SLICES..(dark + 1) * PERIOD * N_SLICES;
    stream.splice(range, outage);
    // A same-process resume re-records a round behind later ones.
    stream.extend((0..N_RAS).flat_map(|ra| report(120, ra)));

    let (monitor, live, largest) = track(|| {
        let mut monitor = SystemMonitor::new();
        for r in &stream {
            monitor.record(*r);
        }
        monitor
    });
    let rows = stream.len();
    assert_eq!(rows, (ROUNDS + 1) * N_RAS * PERIOD * N_SLICES);
    assert!(
        monitor.records() == &stream[..],
        "records() must return the recorded stream, in order"
    );
    let per_row = live as f64 / rows as f64;
    assert!(
        per_row <= 48.0,
        "the history keeps {live} live heap bytes for {rows} rows ({per_row:.1} B/row)"
    );
    assert!(
        largest <= CHUNK_BYTES,
        "one allocation took {largest} bytes, more than a {CHUNK_BYTES}-byte chunk"
    );
}
