//! Proves the steady-state training step is allocation-free.
//!
//! A counting global allocator wraps the system allocator; counting is
//! switched on only around the measured region, so test-harness and warm-up
//! allocations are ignored. The agent is warmed past its first update (which
//! legitimately grows every scratch buffer to steady-state capacity), then a
//! burst of further updates must perform **zero** heap allocations.
//!
//! Flag and count are **per thread**: libtest runs each test on its own
//! thread and allocates on its harness thread whenever it likes (printing a
//! finished test's result, say), so a process-global flag counted the
//! harness's allocations into whichever test happened to be measuring —
//! about one run in three failed. A thread only ever counts itself now, and
//! the tests need no lock between them.

#![expect(
    unsafe_code,
    reason = "a `GlobalAlloc` wrapper around `System` counts the training step's allocations: the trait and its methods are `unsafe`"
)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use edgeslice_rl::{Ddpg, DdpgConfig, Transition};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Counts the calling thread's `alloc`/`realloc` calls while its
/// [`COUNTING`] flag is set. Deallocations are not counted: freeing during
/// the measured region would itself imply a prior allocation, and
/// steady-state buffers are never freed anyway.
struct CountingAllocator;

thread_local! {
    // `const`-initialised and without destructors: reading them from inside
    // the allocator neither allocates nor registers a TLS destructor.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn note_allocation() {
    if COUNTING.with(Cell::get) {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
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

/// Runs `f` with allocation counting enabled on this thread and returns how
/// many heap allocations it performed.
fn count_allocations(f: impl FnOnce()) -> u64 {
    ALLOCATIONS.with(|n| n.set(0));
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    ALLOCATIONS.with(Cell::get)
}

#[test]
fn ddpg_update_is_allocation_free_at_steady_state() {
    let config = DdpgConfig {
        hidden: 32,
        batch_size: 64,
        replay_capacity: 4_096,
        warmup: 0,
        ..Default::default()
    };
    let mut rng = StdRng::seed_from_u64(11);
    let mut agent = Ddpg::new(4, 2, config, &mut rng);

    // Fill the replay memory well past a batch.
    for _ in 0..512 {
        let state: Vec<f64> = (0..4).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let next_state: Vec<f64> = (0..4).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let action: Vec<f64> = (0..2).map(|_| rng.gen_range(0.0..1.0)).collect();
        agent.observe(&Transition {
            state,
            action,
            reward: rng.gen_range(-1.0..1.0),
            next_state,
            done: rng.gen_range(0.0..1.0) < 0.05,
        });
    }

    // Warm-up updates: the first sizes every scratch buffer, a few more
    // catch any lazily-grown corner (e.g. Adam bias-correction state).
    for _ in 0..4 {
        assert!(agent.update(&mut rng).is_some());
    }

    // Steady state: a burst of updates must never touch the heap.
    let allocations = count_allocations(|| {
        for _ in 0..16 {
            let update = agent.update(&mut rng);
            assert!(update.is_some());
        }
    });
    assert_eq!(
        allocations, 0,
        "steady-state Ddpg::update performed {allocations} heap allocations"
    );
}

#[test]
fn batch_kernels_are_allocation_free() {
    use edgeslice_nn::{GemmOp, Matrix};

    let mut rng = StdRng::seed_from_u64(13);

    // Eight rows, so `A·Bᵀ` stages `Bᵀ` in its per-thread buffer: 133 deep,
    // a chunk holds 56 of the 67 columns, so each call stages two chunks,
    // the second padded to a whole sliver. `A·B` and `Aᵀ·B` run the same
    // register tile in place, through every column-tail width.
    let (m, k, n) = (8, 133, 67);
    let a = Matrix::from_fn(m, k, |_, _| rng.gen_range(-1.0f64..1.0));
    let b = Matrix::from_fn(k, n, |_, _| rng.gen_range(-1.0f64..1.0));
    let at = Matrix::from_fn(k, m, |_, _| rng.gen_range(-1.0f64..1.0));
    let br = Matrix::from_fn(n, k, |_, _| rng.gen_range(-1.0f64..1.0));
    let products = [
        (GemmOp::AB, &a, &b),
        (GemmOp::AtB, &at, &b),
        (GemmOp::ABt, &a, &br),
    ];
    let mut out = Matrix::zeros(1, 1);

    // Warm-up sizes the output buffer once per largest shape.
    for (op, x, y) in products {
        Matrix::gemm_into(op, x, y, &mut out);
    }

    let allocations = count_allocations(|| {
        for (op, x, y) in products {
            Matrix::gemm_into(op, x, y, &mut out);
        }
    });
    assert_eq!(
        allocations, 0,
        "steady-state batch kernels performed {allocations} heap allocations"
    );
}

#[test]
fn one_row_forward_is_allocation_free() {
    use edgeslice_nn::{Activation, Mlp, RowScratch};

    // The per-RA decide of every agent step: one state row through
    // `forward_row`, each layer one lone-row pass against the memoised
    // padded `Wᵀ`, on the paper actor's shapes; the states change every
    // call, the scratch is warmed once.
    let mut rng = StdRng::seed_from_u64(14);
    for hidden in [64, 128] {
        let net = Mlp::new(
            &[10, hidden, hidden, 15],
            Activation::leaky_default(),
            Activation::Sigmoid,
            &mut rng,
        );
        let states: Vec<Vec<f64>> = (0..32)
            .map(|_| (0..10).map(|_| rng.gen_range(-1.0f64..1.0)).collect())
            .collect();
        let mut scratch = RowScratch::new();
        net.forward_row(&states[0], &mut scratch);
        let allocations = count_allocations(|| {
            for state in &states {
                let out = net.forward_row(state, &mut scratch);
                assert_eq!(out.len(), 15);
            }
        });
        assert_eq!(
            allocations, 0,
            "one-row forward (hidden {hidden}) performed {allocations} heap allocations"
        );
    }
}

#[test]
fn rejected_update_during_warmup_is_also_allocation_free() {
    let config = DdpgConfig {
        batch_size: 64,
        ..Default::default()
    };
    let mut rng = StdRng::seed_from_u64(12);
    let mut agent = Ddpg::new(2, 1, config, &mut rng);
    // Empty replay: sampling fails with a typed error, touching nothing.
    let allocations = count_allocations(|| {
        assert!(agent.update(&mut rng).is_none());
    });
    assert_eq!(
        allocations, 0,
        "warm-up rejection performed {allocations} heap allocations"
    );
}
