//! Cross-RA batched inference gate: a [`PolicyFleet`]'s fused multi-row
//! forward must produce actions **bit-identical** to calling each RA's
//! frozen policy one at a time — batching is purely a wall-clock
//! optimization, never an arithmetic one.

use edgeslice::{AgentConfig, EdgeSliceSystem, OrchestratorKind, Parallelism, SystemConfig};
use edgeslice_rl::Technique;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn quick_agent_config() -> AgentConfig {
    AgentConfig {
        ddpg: edgeslice_rl::DdpgConfig {
            hidden: 16,
            batch_size: 32,
            warmup: 50,
            ..Default::default()
        },
        ..Default::default()
    }
}

fn random_states(sys_states: &[usize], rng: &mut StdRng) -> Vec<Vec<f64>> {
    sys_states
        .iter()
        .map(|&d| (0..d).map(|_| rng.gen_range(0.0f64..1.0)).collect())
        .collect()
}

#[test]
fn shared_policy_fleet_collapses_to_one_group_and_matches_per_ra_decide() {
    let mut rng = StdRng::seed_from_u64(31);
    let config = SystemConfig::prototype();
    let mut sys = EdgeSliceSystem::new(
        config,
        OrchestratorKind::Learned(Technique::Ddpg),
        &quick_agent_config(),
        &mut rng,
    );
    sys.train_shared(120, &mut rng);

    let mut fleet = sys.policy_fleet(Parallelism::Sequential);
    assert!(!fleet.is_empty());
    assert_eq!(fleet.len(), 2);
    assert_eq!(
        fleet.group_count(),
        1,
        "train_shared replicates one policy, so the fleet must fuse into one group"
    );

    let dims: Vec<usize> = fleet.policies().iter().map(|p| p.state_dim()).collect();
    let states = random_states(&dims, &mut rng);
    let mut actions = Vec::new();
    fleet.decide_into(&states, &mut actions);
    for (i, (state, action)) in states.iter().zip(&actions).enumerate() {
        let solo = fleet.policies()[i].decide(state);
        assert_eq!(
            action, &solo,
            "RA {i}: fused action diverged from solo decide"
        );
    }
}

#[test]
fn independently_trained_policies_split_groups_and_stay_bit_identical() {
    let mut rng = StdRng::seed_from_u64(32);
    let config = SystemConfig::prototype();
    let sys = EdgeSliceSystem::new(
        config,
        OrchestratorKind::Learned(Technique::Ddpg),
        &quick_agent_config(),
        &mut rng,
    );
    // No shared training: per-RA agents are independently initialized, so
    // every RA lands in its own parameter group.
    let mut fleet = sys.policy_fleet(Parallelism::Sequential);
    assert_eq!(fleet.group_count(), fleet.len());

    let dims: Vec<usize> = fleet.policies().iter().map(|p| p.state_dim()).collect();
    let states = random_states(&dims, &mut rng);
    let mut actions = Vec::new();
    fleet.decide_into(&states, &mut actions);
    for (i, (state, action)) in states.iter().zip(&actions).enumerate() {
        let solo = fleet.policies()[i].decide(state);
        assert_eq!(
            action, &solo,
            "RA {i}: fused action diverged from solo decide"
        );
    }

    // Steady state: re-deciding with fresh states reuses every buffer.
    let states2 = random_states(&dims, &mut rng);
    fleet.decide_into(&states2, &mut actions);
    for (i, (state, action)) in states2.iter().zip(&actions).enumerate() {
        assert_eq!(
            action,
            &fleet.policies()[i].decide(state),
            "RA {i} (round 2)"
        );
    }
}
