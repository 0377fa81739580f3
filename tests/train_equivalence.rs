//! Equivalence gate for the zero-allocation training hot path.
//!
//! Trains two DDPG agents on the paper's RA slicing environment from the
//! same seed — one through the fused scratch-arena update, one through the
//! preserved pre-fusion reference update — and requires their serialized
//! [`PolicyCheckpoint`]s to be **byte-identical**. Any reordering of
//! floating-point operations between the two paths would show up here as a
//! JSON diff.
//!
//! Both paths multiply through the one `Matrix::gemm_into` (the reference
//! on a fresh output per call), so what this pins is everything *above*
//! the product: the in-place Adam walk against flatten → scatter,
//! `backward_weighted_into` against `hadamard ∘ backward`, `mse_loss_into`,
//! `hstack_into`, `sample_into`, the input-only backward. The product's own
//! term order is held where it is computed, by
//! `crates/nn/tests/properties.rs` against a naive triple loop.

use edgeslice::{OrchestrationAgent, PolicyCheckpoint, RaEnvConfig, RaId, RaSliceEnv, SliceSpec};
use edgeslice_netsim::PoissonTraffic;
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

fn trained_checkpoint_json(seed: u64, steps: usize, reference: bool) -> String {
    let mut env = paper_env();
    let mut rng = StdRng::seed_from_u64(seed);
    let config = DdpgConfig {
        hidden: 24,
        batch_size: 32,
        replay_capacity: 4_096,
        warmup: 100,
        ..Default::default()
    };
    let mut agent = Ddpg::new(env.state_dim(), env.action_dim(), config, &mut rng);
    if reference {
        agent.train_reference(&mut env, steps, &mut rng);
    } else {
        agent.train(&mut env, steps, &mut rng);
    }
    let agent = OrchestrationAgent::from_ddpg(RaId(0), agent);
    PolicyCheckpoint::from_agent(&agent)
        .to_json()
        .expect("checkpoint serializes")
}

#[test]
fn fixed_seed_training_checkpoints_are_byte_identical_across_kernels() {
    let fused = trained_checkpoint_json(1234, 400, false);
    let reference = trained_checkpoint_json(1234, 400, true);
    assert!(
        fused == reference,
        "fused-kernel training diverged from the reference kernels: \
         checkpoints differ (fused {} bytes, reference {} bytes)",
        fused.len(),
        reference.len()
    );
    // Sanity: different seeds must *not* collide, or the equality above
    // proves nothing.
    let other = trained_checkpoint_json(99, 400, false);
    assert_ne!(fused, other, "checkpoint JSON is insensitive to training");
}
