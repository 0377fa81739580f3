//! Proves `Ddpg::train`'s helper thread (the lane) never touches the heap.
//!
//! Everything the lane writes is grown on the calling thread before the
//! lane starts. An allocation on the lane would do more than cost time:
//! glibc serves a thread's first allocation from an arena of its own, and
//! how far that arena grows varies from run to run, and so did the peak
//! RSS of every process that trains.
//!
//! The counter is process-wide, so this file holds one test: libtest would
//! otherwise start other tests' threads while this one measures. Threads
//! that allocated before the measured region — the harness's — are marked
//! as old on the way and never counted; the calling thread is marked
//! explicitly. What is left is the lane, spawned inside the region.

#![expect(
    unsafe_code,
    reason = "a `GlobalAlloc` wrapper around `System` counts the lane's allocations: the trait and its methods are `unsafe`"
)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use edgeslice_rl::{Ddpg, DdpgConfig, Environment, Step};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Counts `alloc`/`realloc` calls made, while [`WATCHING`] is set, by
/// threads that are neither the calling thread nor older than the
/// measured region.
struct CountingAllocator;

static WATCHING: AtomicBool = AtomicBool::new(false);
static OFF_THREAD: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // `const`-initialised and without destructors: reading them from inside
    // the allocator neither allocates nor registers a TLS destructor.
    static OLD: Cell<bool> = const { Cell::new(false) };
    static CALLER: Cell<bool> = const { Cell::new(false) };
}

fn note_allocation() {
    if !WATCHING.load(Ordering::SeqCst) {
        OLD.with(|old| old.set(true));
    } else if !OLD.with(Cell::get) && !CALLER.with(Cell::get) {
        OFF_THREAD.fetch_add(1, Ordering::SeqCst);
    }
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// A 3-state, 2-action task with 16-step episodes.
struct Drift {
    s: [f64; 3],
    t: usize,
}

impl Environment for Drift {
    fn state_dim(&self) -> usize {
        3
    }

    fn action_dim(&self) -> usize {
        2
    }

    fn reset(&mut self, rng: &mut StdRng) -> Vec<f64> {
        self.s = std::array::from_fn(|_| rng.gen_range(0.0..1.0));
        self.t = 0;
        self.s.to_vec()
    }

    fn step(&mut self, a: &[f64], _rng: &mut StdRng) -> Step {
        let reward = -(a[0] - self.s[0]).powi(2) - (a[1] - self.s[2]).powi(2);
        self.s = [self.s[1], self.s[2], (self.s[0] + 0.5 * a[0] + 0.1).fract()];
        self.t += 1;
        Step {
            next_state: self.s.to_vec(),
            reward,
            done: self.t == 16,
        }
    }
}

/// Two `train` calls — the second starts with every buffer already grown,
/// the first from nothing — at a batch that splits the critic re-forward
/// unevenly and is tall enough for the 8-row staged `A·Bᵀ`, which copies
/// `Bᵀ` into a const-initialised per-thread buffer, on the lane too.
#[test]
fn the_lane_never_allocates() {
    let config = DdpgConfig {
        hidden: 32,
        batch_size: 65,
        replay_capacity: 2_048,
        warmup: 80,
        ..Default::default()
    };
    let mut rng = StdRng::seed_from_u64(3);
    let mut agent = Ddpg::new(3, 2, config, &mut rng);
    let mut env = Drift { s: [0.0; 3], t: 0 };
    CALLER.with(|caller| caller.set(true));
    for call in 0..2 {
        WATCHING.store(true, Ordering::SeqCst);
        agent.train(&mut env, 300, &mut rng);
        WATCHING.store(false, Ordering::SeqCst);
        assert_eq!(
            OFF_THREAD.load(Ordering::SeqCst),
            0,
            "train call {call}: the lane allocated"
        );
    }
    assert_eq!(agent.updates(), 2 * (300 - 80));
}
