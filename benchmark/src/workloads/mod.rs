//! The four `train → run` workloads. Each stresses a different layer, and
//! for every optimisation one exercises its mechanism while another
//! bypasses it (see the README's layer table).

pub mod run_durable;
pub mod run_long;
pub mod run_net;
pub mod train_paper;

use std::time::Instant;

use edgeslice::OrchestrationAgent;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::deploy::{new_system, policy_digest, report_digest};
use crate::error::{check, Result};
use crate::scenario::Ctx;
use crate::sizes::{DEPLOYMENT_SEED, TRAINING_SEED};

/// The set-up `run-long` and `run-durable` share: a fresh deployment system,
/// `train_shared`, a short shake-down `run`, keep `agent0()`. Everything is
/// drawn from the deployment's seeds (rule T1), so the trained policy is the
/// same whatever `--seed` is. Returns RA 0's agent and a digest of all
/// results.
pub fn train_deployment(ctx: &Ctx<'_>) -> Result<(OrchestrationAgent, u64)> {
    let mut rng = StdRng::seed_from_u64(DEPLOYMENT_SEED);
    let mut system = new_system(ctx.sizes.n_ras, &mut rng);
    let untrained = policy_digest(&system.agent0())?;
    let mut train_rng = StdRng::seed_from_u64(TRAINING_SEED);
    let start = Instant::now();
    system.train_shared(ctx.sizes.train_steps, &mut train_rng);
    let train_s = start.elapsed().as_secs_f64();
    ctx.notes
        .note("core.orchestrator.train_shared.ms", train_s * 1e3);
    ctx.notes.note(
        "core.agent.train.us_per_step",
        train_s * 1e6 / ctx.sizes.train_steps as f64,
    );
    let report = system.run(ctx.sizes.setup_rounds, &mut train_rng);
    let agent = system.agent0();
    let trained = policy_digest(&agent)?;
    check("train-changes-policy", trained != untrained, || {
        format!("policy digest {trained:016x} before and after train_shared")
    })?;
    check(
        "rounds-exact",
        report.rounds.len() == ctx.sizes.setup_rounds,
        || {
            format!(
                "shake-down run returned {} of {} rounds",
                report.rounds.len(),
                ctx.sizes.setup_rounds
            )
        },
    )?;
    let digest = trained ^ report_digest(&report)?.rotate_left(1);
    Ok((agent, digest))
}

#[cfg(test)]
mod tests {
    use edgeslice::{AgentConfig, EdgeSliceSystem, OrchestratorKind};
    use edgeslice_rl::Technique;

    use super::*;
    use crate::deploy::system_config;
    use crate::sizes::{sizes, Workload, REPLAY_CAPACITY};

    /// `replay-8192-equals-default` (timing rule T5): no training call of
    /// the size table fills 8192 transitions, so the smaller memory learns
    /// bit-identically to the default 100 000.
    #[test]
    fn replay_8192_equals_default() {
        let steps = Workload::ALL
            .iter()
            .map(|&w| sizes(w, false).train_steps)
            .max()
            .unwrap();
        let train = |capacity: usize| {
            let mut config = AgentConfig::default();
            config.ddpg.replay_capacity = capacity;
            let mut system = EdgeSliceSystem::new(
                system_config(1),
                OrchestratorKind::Learned(Technique::Ddpg),
                &config,
                &mut StdRng::seed_from_u64(DEPLOYMENT_SEED),
            );
            system.train_shared(steps, &mut StdRng::seed_from_u64(TRAINING_SEED));
            policy_digest(&system.agent0()).unwrap()
        };
        let default = AgentConfig::default().ddpg.replay_capacity;
        assert!(default > REPLAY_CAPACITY);
        assert_eq!(train(REPLAY_CAPACITY), train(default));
    }
}
