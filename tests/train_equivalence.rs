//! Equivalence gate for the zero-allocation training hot path, on the
//! paper's RA slicing environment.
//!
//! Trains a DDPG agent through the shipped scratch-arena update and the
//! test-side oracle (`crates/rl/tests/support/ddpg_oracle.rs`: a cached
//! allocating forward, `Matrix::gemm` backward, flat-vector Adam,
//! `ReplayBuffer::sample`) from the same seed and the same initial weights,
//! and requires the serialized actor and critic to be **byte-identical** —
//! and the agent's deployable [`PolicyCheckpoint`] to carry exactly the
//! oracle's actor. Any reordering of floating-point operations between the
//! two shows up here as a JSON diff.
//!
//! Both sides multiply through the one `Matrix::gemm_into`, so what this
//! pins is everything *above* the product: the in-place Adam walk against
//! flatten → scatter, `backward_weighted_into` against a per-element
//! `d · act'(z)`, `mse_loss_into`, `hstack_into`, `sample_into`, the
//! input-only backward. The product's own term order is held where it is
//! computed, by `crates/nn/tests/properties.rs` against a naive triple loop.

#[path = "../crates/rl/tests/support/ddpg_oracle.rs"]
mod ddpg_oracle;

use ddpg_oracle::DdpgOracle;
use edgeslice::{OrchestrationAgent, PolicyCheckpoint, RaEnvConfig, RaId, RaSliceEnv, SliceSpec};
use edgeslice_netsim::PoissonTraffic;
use edgeslice_nn::Mlp;
use edgeslice_rl::{Ddpg, DdpgConfig, Environment};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn paper_env() -> RaSliceEnv {
    RaSliceEnv::with_dataset(
        RaEnvConfig::experiment(vec![
            SliceSpec::experiment_slice1(),
            SliceSpec::experiment_slice2(),
        ]),
        vec![
            Box::new(PoissonTraffic::paper()),
            Box::new(PoissonTraffic::paper()),
        ],
    )
}

fn new_agent(env: &RaSliceEnv, rng: &mut StdRng) -> Ddpg {
    let config = DdpgConfig {
        hidden: 24,
        batch_size: 32,
        replay_capacity: 4_096,
        warmup: 100,
        ..Default::default()
    };
    Ddpg::new(env.state_dim(), env.action_dim(), config, rng)
}

fn json(net: &Mlp) -> String {
    serde_json::to_string(net).expect("network serializes")
}

/// `(checkpoint JSON, actor JSON, critic JSON)` after `steps` shipped
/// training steps from `seed`.
fn trained(seed: u64, steps: usize) -> (String, String, String) {
    let mut env = paper_env();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut agent = new_agent(&env, &mut rng);
    agent.train(&mut env, steps, &mut rng);
    let (actor, critic) = (json(agent.actor()), json(agent.critic()));
    let agent = OrchestrationAgent::from_ddpg(RaId(0), agent);
    let checkpoint = PolicyCheckpoint::from_agent(&agent)
        .to_json()
        .expect("checkpoint serializes");
    (checkpoint, actor, critic)
}

/// `(actor JSON, critic JSON)` after `steps` oracle training steps from
/// `seed`.
fn oracle_trained(seed: u64, steps: usize) -> (String, String) {
    let mut env = paper_env();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut oracle = DdpgOracle::new(&new_agent(&env, &mut rng));
    oracle.train(&mut env, steps, &mut rng);
    (json(&oracle.actor), json(&oracle.critic))
}

#[test]
fn fixed_seed_training_checkpoints_are_byte_identical_across_kernels() {
    let (checkpoint, actor, critic) = trained(1234, 400);
    let (oracle_actor, oracle_critic) = oracle_trained(1234, 400);
    assert!(
        actor == oracle_actor,
        "fused-kernel training diverged from the oracle: actors differ \
         (fused {} bytes, oracle {} bytes)",
        actor.len(),
        oracle_actor.len()
    );
    assert!(
        critic == oracle_critic,
        "fused-kernel training diverged from the oracle: critics differ"
    );
    assert!(
        checkpoint.contains(&oracle_actor),
        "the deployable checkpoint does not carry the trained actor"
    );
    // Sanity: different seeds must *not* collide, or the equality above
    // proves nothing.
    let (other, _, _) = trained(99, 400);
    assert_ne!(
        checkpoint, other,
        "checkpoint JSON is insensitive to training"
    );
}
