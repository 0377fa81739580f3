//! Proves one agent-step of the round loop is allocation-free.
//!
//! `RaExecWorker::run_round` spends its time in `observe → decide →
//! project → advance`, once per (RA, interval). This drives exactly those
//! four public calls — the heap-free forms the worker uses — against a
//! 5-slice dataset environment and a DDPG-shaped policy, under the same
//! per-thread counting allocator as `crates/rl/tests/zero_alloc.rs`: after
//! one warm-up step (which sizes every buffer), a thousand more must not
//! touch the heap — including the steps that land in a grid cell for the
//! first time and fit it. The lint's `hot-path-alloc` / `transitive-alloc`
//! rules are the static half of this guarantee; this is the half that runs.
//!
//! The same allocator counts deployment: installing a trained agent on
//! every RA is a handful of allocations whatever its replay capacity.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use edgeslice::{
    project_action_per_resource, AgentConfig, EdgeSliceSystem, OrchestrationAgent,
    OrchestratorKind, PolicyCheckpoint, RaId, RaSliceEnv, RowScratch, SystemConfig, Taro,
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

/// A deployment on the simulation configuration (5 slices, dataset
/// service model, diurnal traffic, `project_actions` on) with untrained
/// DDPG agents: the shapes are the deployed ones, and an untrained actor's
/// near-0.5 outputs project to shares off the 10 % grid, so every step
/// takes `GridDataset::predict`'s fitting path.
fn deployment(n_ras: usize, rng: &mut StdRng) -> EdgeSliceSystem {
    let mut agent_config = AgentConfig::default();
    agent_config.ddpg.replay_capacity = 64;
    EdgeSliceSystem::new(
        SystemConfig::simulation(N_SLICES, n_ras, rng),
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

/// The interior cells of each slice's 10 % grid that applied shares have
/// landed in, on the stack so that keeping it costs the step no allocation.
struct CellsSeen([[bool; 1_000]; N_SLICES]);

impl CellsSeen {
    /// Notes the cells of `env`'s last applied shares; returns how many were
    /// first touches — steps on which `GridDataset::predict` had to fit.
    fn note(&mut self, env: &RaSliceEnv) -> usize {
        let mut first_touches = 0;
        for (seen, sh) in self.0.iter_mut().zip(env.last_shares()) {
            let g = sh.as_array().map(|s| s / 0.1);
            if g.iter().any(|g| g.floor() == g.ceil()) {
                continue; // on a cell face: fitted every time, never kept
            }
            let [r, t, c] = g.map(|g| g as usize);
            let cell = &mut seen[(r * 10 + t) * 10 + c];
            first_touches += usize::from(!*cell);
            *cell = true;
        }
        first_touches
    }
}

#[test]
fn learned_agent_step_is_allocation_free_after_warm_up() {
    let mut rng = StdRng::seed_from_u64(17);
    let mut system = deployment(1, &mut rng);
    let policy = PolicyCheckpoint::from_agent(&system.agent0());
    let env = system.env0_mut();
    env.set_randomize_coord(false);
    env.set_coordination(&[-30.0; N_SLICES]);
    let (mut state, mut action, mut scratch) = (Vec::new(), Vec::new(), RowScratch::new());
    // An untrained actor barely moves, so `i` drifts its action across the
    // grid: the counted steps hold first touches (a cell fitted and
    // remembered) as well as revisits.
    let mut step = |env: &mut RaSliceEnv, rng: &mut StdRng, i: usize| {
        env.observe_into(&mut state);
        policy.decide_into(&state, &mut scratch, &mut action);
        for (k, a) in action.iter_mut().enumerate() {
            *a = (*a + (i * (k + 1) % 89) as f64 / 89.0) % 1.0;
        }
        project_action_per_resource(&mut action, N_SLICES);
        env.advance_scratch(&action, rng)
    };
    step(env, &mut rng, 0);
    let mut cells = CellsSeen([[false; 1_000]; N_SLICES]);
    cells.note(env);
    let mut first_touches = 0;
    let allocations = count_allocations(|| {
        for i in 0..STEPS {
            assert!(step(env, &mut rng, i).is_finite());
            first_touches += cells.note(env);
        }
    });
    assert!(
        every_slice_is_off_grid(env),
        "the step must exercise the off-grid fit, got {:?}",
        env.last_shares()
    );
    assert!(
        (100..STEPS).contains(&first_touches),
        "the counted steps must hold first touches and revisits, got {first_touches}"
    );
    assert_eq!(
        allocations, 0,
        "{STEPS} learned agent-steps performed {allocations} heap allocations"
    );
}

#[test]
fn installing_agents_allocates_the_same_handful_whatever_the_replay_capacity() {
    let installs_at = |replay_capacity: usize| {
        let mut rng = StdRng::seed_from_u64(19);
        let mut system = deployment(10, &mut rng);
        let mut agent_config = AgentConfig::default();
        agent_config.ddpg.replay_capacity = replay_capacity;
        let trained = OrchestrationAgent::new(
            RaId(0),
            Technique::Ddpg,
            system.env0_mut(),
            &agent_config,
            &mut rng,
        );
        count_allocations(|| system.install_agents(&trained))
    };
    let (small, large) = (installs_at(8_192), installs_at(100_000));
    assert_eq!(
        small, large,
        "deployment cost depends on the replay capacity"
    );
    assert!(small <= 8, "install_agents allocated {small} times");
}

#[test]
fn taro_agent_step_is_allocation_free_after_warm_up() {
    let mut rng = StdRng::seed_from_u64(18);
    let mut system = deployment(1, &mut rng);
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
