//! Deployment shares, training copies: replicas of one trained agent are
//! handles to a single learner, yet each behaves as a value of its own —
//! training one never moves another — and an installed policy is the one
//! the system decides with, whatever a checkpoint store restored before.

use edgeslice::{
    AgentConfig, EdgeSliceSystem, OrchestrationAgent, OrchestratorKind, Parallelism,
    PolicyCheckpoint, RaId, Scheduler, SystemConfig,
};
use edgeslice_rl::Technique;
use rand::rngs::StdRng;
use rand::SeedableRng;

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

fn learned_system(config: SystemConfig, rng: &mut StdRng) -> EdgeSliceSystem {
    EdgeSliceSystem::new(
        config,
        OrchestratorKind::Learned(Technique::Ddpg),
        &quick_agent_config(),
        rng,
    )
}

fn policy_json(agent: &OrchestrationAgent) -> String {
    PolicyCheckpoint::from_agent(agent).to_json().unwrap()
}

fn fleet_json(sys: &EdgeSliceSystem) -> Vec<String> {
    let fleet = sys.policy_fleet(Parallelism::Sequential);
    fleet
        .policies()
        .iter()
        .map(|p| p.to_json().unwrap())
        .collect()
}

#[test]
fn training_one_replica_leaves_the_other_bit_identical() {
    let mut rng = StdRng::seed_from_u64(51);
    let mut sys = learned_system(SystemConfig::prototype(), &mut rng);
    sys.train_shared(150, &mut rng);
    let trained = sys.agent0();
    let before = policy_json(&trained);

    let mut further = trained.clone_for_ra(RaId(1));
    let kept = trained.clone_for_ra(RaId(2));
    further.train(sys.env0_mut(), 200, &mut rng);

    assert_eq!(policy_json(&kept), before, "the untrained replica moved");
    assert_eq!(policy_json(&trained), before, "the donor moved");
    assert_ne!(
        policy_json(&further),
        before,
        "200 more steps changed nothing"
    );
    // The system's own replicas share that learner too.
    assert!(fleet_json(&sys).iter().all(|p| *p == before));
}

#[test]
fn per_ra_training_after_train_shared_diverges_identically_under_every_scheduler() {
    let retrain = |scheduler: Scheduler| {
        let mut rng = StdRng::seed_from_u64(52);
        let mut sys = learned_system(SystemConfig::simulation(2, 4, &mut rng), &mut rng);
        sys.set_scheduler(scheduler);
        sys.train_shared(120, &mut rng);
        let shared = fleet_json(&sys);
        assert!(shared.iter().all(|p| *p == shared[0]));
        sys.train(120, &mut rng);
        (shared, fleet_json(&sys))
    };
    let (shared, sequential) = retrain(Scheduler::Sequential);
    for (j, policy) in sequential.iter().enumerate() {
        assert_ne!(*policy, shared[0], "RA {j} kept the shared policy");
        for (k, other) in sequential.iter().enumerate().skip(j + 1) {
            assert_ne!(policy, other, "RAs {j} and {k} trained one learner");
        }
    }
    let (_, threaded) = retrain(Scheduler::Threaded(4));
    assert_eq!(threaded, sequential, "Threaded(4) diverged from Sequential");
}

#[test]
fn an_installed_policy_is_not_shadowed_by_a_restored_one() {
    let dir = std::env::temp_dir().join(format!("edgeslice-shadow-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let steps = 120;
    // The same train program run twice against one store: the second run
    // skips to the stored policies, which then front the live agents.
    let restored_system = || {
        let mut rng = StdRng::seed_from_u64(53);
        let mut sys = learned_system(SystemConfig::prototype(), &mut rng);
        sys.set_checkpointing(&dir, 4).unwrap();
        sys.train(steps, &mut rng);
        sys
    };
    assert_eq!(restored_system().restored_policy_count(), 0);
    let n_ras = SystemConfig::prototype().n_ras;

    let mut rng = StdRng::seed_from_u64(54);
    let mut elsewhere = learned_system(SystemConfig::prototype(), &mut rng);
    elsewhere.train_shared(steps, &mut rng);
    let new = elsewhere.agent0();

    let mut sys = restored_system();
    assert_eq!(sys.restored_policy_count(), n_ras);
    assert!(fleet_json(&sys).iter().all(|p| *p != policy_json(&new)));
    sys.install_agents(&new);
    assert_eq!(sys.restored_policy_count(), 0);
    let installed = PolicyCheckpoint::from_agent(&new);
    let fleet = sys.policy_fleet(Parallelism::Sequential);
    assert!(fleet.policies().iter().all(|p| *p == installed));

    let mut sys = restored_system();
    assert_eq!(sys.restored_policy_count(), n_ras);
    sys.train_shared(steps, &mut rng);
    assert_eq!(sys.restored_policy_count(), 0);
    let shared = policy_json(&sys.agent0());
    assert!(fleet_json(&sys).iter().all(|p| *p == shared));
    let _ = std::fs::remove_dir_all(&dir);
}
