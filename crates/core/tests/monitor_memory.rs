//! Guards what the monitor keeps.
//!
//! The monitor folds every row into per-round sums as it arrives and keeps
//! no row, so what it holds grows with the (round, interval, slice) cells
//! it has seen, not with the RAs that report them. This records a stream
//! shaped like one block of the benchmark's `run-long` workload (180
//! rounds × 24 intervals × 5 slices, one RA's report of one round an
//! outage grid instead, plus one replayed round) from 10 RAs and from 20,
//! under a per-thread allocator that tracks live bytes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use edgeslice::{IntervalStatus, MonitorRecord, RaId, SliceId, SystemMonitor};

/// Tracks the calling thread's live heap bytes while its [`TRACKING`]
/// flag is set (per thread, so the libtest harness thread's own
/// allocations never land in a measured region).
struct TrackingAllocator;

thread_local! {
    // `const`-initialised and without destructors: reading them from inside
    // the allocator neither allocates nor registers a TLS destructor.
    static TRACKING: Cell<bool> = const { Cell::new(false) };
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

fn note(freed: usize, allocated: usize) {
    if TRACKING.with(Cell::get) {
        LIVE.with(|n| n.set(n.get() + allocated as isize - freed as isize));
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

/// Runs `f` with tracking enabled on this thread; returns its result and
/// the heap bytes it left live.
fn track<T>(f: impl FnOnce() -> T) -> (T, isize) {
    LIVE.with(|n| n.set(0));
    TRACKING.with(|c| c.set(true));
    let out = f();
    TRACKING.with(|c| c.set(false));
    (out, LIVE.with(Cell::get))
}

const ROUNDS: usize = 180;
const PERIOD: usize = 24;
const N_SLICES: usize = 5;

/// The RA whose report of [`DARK_ROUND`] is an outage grid.
const DARK_RA: usize = 4;
const DARK_ROUND: usize = 90;
/// The round a same-process resume records again, behind later ones.
const REPLAYED_ROUND: usize = 120;

/// RA `ra`'s rows for `round`, as the coordinator records them: `PERIOD ×
/// N_SLICES` rows, interval-major; served, or `record_outage`'s grid.
fn report(round: usize, ra: usize) -> impl Iterator<Item = MonitorRecord> {
    (0..PERIOD * N_SLICES).map(move |k| {
        let (interval, slice) = (k / N_SLICES, SliceId(k % N_SLICES));
        if (round, ra) == (DARK_ROUND, DARK_RA) {
            return MonitorRecord::outage(round, interval, RaId(ra), slice);
        }
        let x = (round * 7 + ra * 3 + k) as f64;
        MonitorRecord {
            round,
            interval,
            ra: RaId(ra),
            slice,
            queue: x * 0.5,
            performance: -x * 0.01,
            shares: [0.1, 0.2, x.sin()],
            status: IntervalStatus::Served,
        }
    })
}

/// Records the `run-long`-shaped stream of `n_ras` RAs; returns the rows
/// recorded and the live heap bytes the monitor holds.
fn record_block(n_ras: usize) -> (usize, isize) {
    let rounds = (0..ROUNDS).chain([REPLAYED_ROUND]);
    let (monitor, live) = track(|| {
        let mut monitor = SystemMonitor::new();
        for round in rounds {
            for r in (0..n_ras).flat_map(|ra| report(round, ra)) {
                monitor.record(r);
            }
        }
        monitor
    });
    assert_eq!(monitor.rounds(), ROUNDS);
    (monitor.records().len(), live)
}

#[test]
fn monitor_keeps_per_cell_sums_not_rows() {
    let (rows_10, live_10) = record_block(10);
    let (rows_20, live_20) = record_block(20);
    assert_eq!(rows_10, (ROUNDS + 1) * 10 * PERIOD * N_SLICES);
    assert_eq!(rows_20, 2 * rows_10);
    assert_eq!(
        live_10, live_20,
        "twice the RAs must not grow what the monitor keeps"
    );
    let cells = ROUNDS * PERIOD * N_SLICES;
    let per_cell = live_10 as f64 / cells as f64;
    assert!(
        per_cell <= 64.0,
        "the monitor keeps {live_10} live heap bytes for {cells} cells ({per_cell:.1} B/cell)"
    );
}
