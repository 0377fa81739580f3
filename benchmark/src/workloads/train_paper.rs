//! `train-paper`: offline DDPG training of one RA's agent.
//!
//! Block = fresh 5-slice × 1-RA simulation system, `train(train_steps)`
//! (500 uniform warm-up interactions, then one DDPG update per step).
//! `rl.ddpg.update` → `nn` GEMM/Adam/Polyak is > 95 % of the time and
//! `core.monitor`, `core.store` and `runtime` never run: the workload an
//! `nn`/`rl` change must move, and the bypass for every `run-*` change.

use edgeslice::{EdgeSliceSystem, OrchestrationAgent};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::deploy::{new_system, policy_digest, Ops};
use crate::error::Result;
use crate::handloop::hand_train;
use crate::scenario::{Ctx, Scenario, Verdict};
use crate::sizes::DEPLOYMENT_SEED;
use crate::trace::Tracer;

/// The workload.
#[derive(Debug, Clone, Copy)]
pub struct TrainPaper;

/// A trained agent, still inside its system or already taken out.
pub enum TrainedAgent {
    /// The real block: the system `train` was called on.
    InSystem(Box<EdgeSliceSystem>),
    /// The hand-driven block: the learner it trained by hand.
    Bare(Box<OrchestrationAgent>),
}

/// The system a block trains: slice set, traffic areas and network
/// initialisation all from the deployment seed (rule T1).
fn fresh() -> EdgeSliceSystem {
    new_system(1, &mut StdRng::seed_from_u64(DEPLOYMENT_SEED))
}

impl Scenario for TrainPaper {
    /// Digest of the untrained policy.
    type State = u64;
    type Output = TrainedAgent;

    /// One discarded block.
    fn setup(&self, ctx: &Ctx<'_>) -> Result<(u64, u64)> {
        let untrained = policy_digest(&fresh().agent0())?;
        let out = self.block(ctx, &untrained)?;
        let verdict = self.verify(ctx, &untrained, out)?;
        Ok((untrained, verdict.digest))
    }

    fn block(&self, ctx: &Ctx<'_>, _: &u64) -> Result<TrainedAgent> {
        let mut system = fresh();
        // `--seed` drives exploration noise and traffic arrivals.
        let mut rng = StdRng::seed_from_u64(ctx.online_seed);
        system.train(ctx.sizes.train_steps, &mut rng);
        Ok(TrainedAgent::InSystem(Box::new(system)))
    }

    fn hand_block(&self, ctx: &Ctx<'_>, _: &u64, tracer: &mut Tracer) -> Result<TrainedAgent> {
        let mut system = fresh();
        let mut rng = StdRng::seed_from_u64(ctx.online_seed);
        let agent = hand_train(&mut system, ctx.sizes.train_steps, &mut rng, tracer)?;
        Ok(TrainedAgent::Bare(Box::new(agent)))
    }

    fn verify(&self, _: &Ctx<'_>, untrained: &u64, output: TrainedAgent) -> Result<Verdict> {
        let agent = match output {
            TrainedAgent::InSystem(system) => system.agent0(),
            TrainedAgent::Bare(agent) => *agent,
        };
        let digest = policy_digest(&agent)?;
        // One operation = one `train` call; it fails if it left a weight
        // non-finite (then no state maps to a finite action).
        let probe = vec![0.5; 2 * crate::sizes::N_SLICES];
        let finite = agent.decide(&probe).iter().all(|a| a.is_finite());
        Ok(Verdict {
            digest,
            ops: Ops {
                attempted: 1,
                failed: u64::from(!finite),
            },
            checks: vec![("train-changes-policy", digest != *untrained)],
        })
    }
}
