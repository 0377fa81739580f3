//! Proves one agent-step of the round loop is allocation-free.
//!
//! `RaExecWorker::run_round` spends its time in `observe → decide →
//! project → advance`, once per (RA, interval). This drives exactly those
//! four public calls — the heap-free forms the worker uses — against a
//! 5-slice dataset environment and a DDPG-shaped policy, under the same
//! per-thread counting allocator as `crates/rl/tests/zero_alloc.rs`: after
//! one warm-up step (which sizes every buffer), a thousand more must not
//! touch the heap. The lint's `hot-path-alloc` / `transitive-alloc` rules
//! are the static half of this guarantee; this is the half that runs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use edgeslice::{
    project_action_per_resource, AgentConfig, EdgeSliceSystem, FleetScratch, OrchestratorKind,
    PolicyCheckpoint, RaSliceEnv, SystemConfig, Taro,
};
use edgeslice_rl::Technique;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Counts the calling thread's `alloc`/`realloc` calls while its
/// [`COUNTING`] flag is set (per thread, so the libtest harness thread's
/// own allocations never land in a measured region).
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

const N_SLICES: usize = 5;
const STEPS: usize = 1_000;

/// A one-RA deployment on the simulation configuration (5 slices, dataset
/// service model, diurnal traffic, `project_actions` on) with an untrained
/// DDPG agent: the shapes are the deployed ones, and an untrained actor's
/// near-0.5 outputs project to shares off the 10 % grid, so every step
/// takes `GridDataset::predict`'s fitting path.
fn deployment(rng: &mut StdRng) -> EdgeSliceSystem {
    let mut agent_config = AgentConfig::default();
    agent_config.ddpg.replay_capacity = 64;
    EdgeSliceSystem::new(
        SystemConfig::simulation(N_SLICES, 1, rng),
        OrchestratorKind::Learned(Technique::Ddpg),
        &agent_config,
        rng,
    )
}

fn every_slice_is_off_grid(env: &RaSliceEnv) -> bool {
    env.last_shares().iter().all(|sh| {
        sh.as_array()
            .iter()
            .any(|s| (s / 0.1 - (s / 0.1).round()).abs() > 1e-9)
    })
}

#[test]
fn learned_agent_step_is_allocation_free_after_warm_up() {
    let mut rng = StdRng::seed_from_u64(17);
    let mut system = deployment(&mut rng);
    let policy = PolicyCheckpoint::from_agent(&system.agent0());
    let env = system.env0_mut();
    env.set_randomize_coord(false);
    env.set_coordination(&[-30.0; N_SLICES]);
    let (mut state, mut action, mut scratch) = (Vec::new(), Vec::new(), FleetScratch::new());
    let mut step = |env: &mut RaSliceEnv, rng: &mut StdRng| {
        env.observe_into(&mut state);
        policy.decide_into(&state, &mut scratch, &mut action);
        project_action_per_resource(&mut action, N_SLICES);
        env.advance_scratch(&action, rng)
    };
    step(env, &mut rng);
    let allocations = count_allocations(|| {
        for _ in 0..STEPS {
            assert!(step(env, &mut rng).is_finite());
        }
    });
    assert!(
        every_slice_is_off_grid(env),
        "the step must exercise the off-grid fit, got {:?}",
        env.last_shares()
    );
    assert_eq!(
        allocations, 0,
        "{STEPS} learned agent-steps performed {allocations} heap allocations"
    );
}

#[test]
fn taro_agent_step_is_allocation_free_after_warm_up() {
    let mut rng = StdRng::seed_from_u64(18);
    let mut system = deployment(&mut rng);
    let env = system.env0_mut();
    env.set_randomize_coord(false);
    let taro = Taro::new();
    let (mut queues, mut action) = (Vec::new(), Vec::new());
    let mut step = |env: &mut RaSliceEnv, rng: &mut StdRng| {
        env.queue_lengths_into(&mut queues);
        taro.action_into(&queues, &mut action);
        project_action_per_resource(&mut action, N_SLICES);
        env.advance_scratch(&action, rng)
    };
    step(env, &mut rng);
    let allocations = count_allocations(|| {
        for _ in 0..STEPS {
            assert!(step(env, &mut rng).is_finite());
        }
    });
    assert_eq!(
        allocations, 0,
        "{STEPS} TARO agent-steps performed {allocations} heap allocations"
    );
}
