//! The orchestration agent (paper Sec. IV-B): a per-RA DRL learner that
//! maps the state (Eq. 13) to an end-to-end resource orchestration
//! (Eq. 14) under the coordinator's supervision.

use std::sync::Arc;

use edgeslice_rl::{
    Ddpg, DdpgConfig, Environment, Ppo, PpoConfig, Sac, SacConfig, Technique, Trpo, TrpoConfig,
    Vpg, VpgConfig,
};
use rand::rngs::StdRng;

use crate::{RaId, RaSliceEnv};

/// The learning backend of an orchestration agent. DDPG is the paper's
/// technique; the others are the Fig. 10b comparators.
// `Ddpg` carries its scratch arena and reusable sample batch inline, so the
// variant is big — but a backend only ever lives behind its agent's `Arc`
// (never in arrays), so boxing the variant would buy nothing.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum AgentBackend {
    /// Deep deterministic policy gradient (the paper's choice).
    Ddpg(Ddpg),
    /// Soft actor-critic.
    Sac(Sac),
    /// Proximal policy optimization.
    Ppo(Ppo),
    /// Trust region policy optimization.
    Trpo(Trpo),
    /// Vanilla policy gradient.
    Vpg(Vpg),
}

/// Hyper-parameter bundle used when constructing any backend.
#[derive(Debug, Clone, Copy, Default)]
pub struct AgentConfig {
    /// DDPG hyper-parameters.
    pub ddpg: DdpgConfig,
    /// SAC hyper-parameters.
    pub sac: SacConfig,
    /// PPO hyper-parameters.
    pub ppo: PpoConfig,
    /// TRPO hyper-parameters.
    pub trpo: TrpoConfig,
    /// VPG hyper-parameters.
    pub vpg: VpgConfig,
}

/// A per-RA orchestration agent.
///
/// Cloning is a handle copy: replicas of one trained agent share its
/// learner (replay memory, critic, targets, optimiser state) and only
/// [`OrchestrationAgent::train`] takes a private copy, so deploying a
/// policy on `n` RAs costs `n` pointers while each agent still behaves as
/// a value of its own.
#[derive(Debug, Clone)]
pub struct OrchestrationAgent {
    ra: RaId,
    backend: Arc<AgentBackend>,
}

impl OrchestrationAgent {
    /// Creates an agent for RA `ra` using `technique`, sized for `env`'s
    /// state/action dimensions.
    pub fn new(
        ra: RaId,
        technique: Technique,
        env: &RaSliceEnv,
        config: &AgentConfig,
        rng: &mut StdRng,
    ) -> Self {
        let (sd, ad) = (env.state_dim(), env.action_dim());
        let backend = match technique {
            Technique::Ddpg => AgentBackend::Ddpg(Ddpg::new(sd, ad, config.ddpg, rng)),
            Technique::Sac => AgentBackend::Sac(Sac::new(sd, ad, config.sac, rng)),
            Technique::Ppo => AgentBackend::Ppo(Ppo::new(sd, ad, config.ppo, rng)),
            Technique::Trpo => AgentBackend::Trpo(Trpo::new(sd, ad, config.trpo, rng)),
            Technique::Vpg => AgentBackend::Vpg(Vpg::new(sd, ad, config.vpg, rng)),
        };
        Self {
            ra,
            backend: Arc::new(backend),
        }
    }

    /// Wraps an already-trained DDPG learner as the agent for RA `ra` —
    /// e.g. to checkpoint a learner that was trained outside the system
    /// harness (the kernel-equivalence tests train bare [`Ddpg`] pairs).
    pub fn from_ddpg(ra: RaId, ddpg: Ddpg) -> Self {
        Self {
            ra,
            backend: Arc::new(AgentBackend::Ddpg(ddpg)),
        }
    }

    /// The RA this agent orchestrates.
    pub fn ra(&self) -> RaId {
        self.ra
    }

    /// This agent (including its learned parameters) as the agent of
    /// another RA; the two share one learner until either is trained.
    pub fn clone_for_ra(&self, ra: RaId) -> OrchestrationAgent {
        OrchestrationAgent {
            ra,
            backend: Arc::clone(&self.backend),
        }
    }

    /// The learning backend (e.g. for checkpoint extraction).
    pub fn backend(&self) -> &AgentBackend {
        &self.backend
    }

    /// The technique in use.
    pub fn technique(&self) -> Technique {
        match &*self.backend {
            AgentBackend::Ddpg(_) => Technique::Ddpg,
            AgentBackend::Sac(_) => Technique::Sac,
            AgentBackend::Ppo(_) => Technique::Ppo,
            AgentBackend::Trpo(_) => Technique::Trpo,
            AgentBackend::Vpg(_) => Technique::Vpg,
        }
    }

    /// Trains the agent offline for approximately `env_steps` environment
    /// interactions (on-policy backends round to whole rollouts). An agent
    /// that shares its learner with replicas first takes its own copy, so
    /// the replicas keep the policy they had.
    pub fn train(&mut self, env: &mut RaSliceEnv, env_steps: usize, rng: &mut StdRng) {
        env.set_randomize_coord(true);
        match Arc::make_mut(&mut self.backend) {
            AgentBackend::Ddpg(a) => {
                a.train(env, env_steps, rng);
            }
            AgentBackend::Sac(a) => {
                a.train(env, env_steps, rng);
            }
            AgentBackend::Ppo(a) => {
                let iters = (env_steps / PpoConfig::default().rollout_len).max(1);
                a.train(env, iters, rng);
            }
            AgentBackend::Trpo(a) => {
                let iters = (env_steps / TrpoConfig::default().rollout_len).max(1);
                a.train(env, iters, rng);
            }
            AgentBackend::Vpg(a) => {
                let iters = (env_steps / VpgConfig::default().rollout_len).max(1);
                a.train(env, iters, rng);
            }
        }
        env.set_randomize_coord(false);
    }

    /// The greedy orchestration action for a state (Eq. 14).
    pub fn decide(&self, state: &[f64]) -> Vec<f64> {
        match &*self.backend {
            AgentBackend::Ddpg(a) => a.policy(state),
            AgentBackend::Sac(a) => a.policy(state),
            AgentBackend::Ppo(a) => a.policy(state),
            AgentBackend::Trpo(a) => a.policy(state),
            AgentBackend::Vpg(a) => a.policy(state),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RaEnvConfig, SliceSpec, StateSpec};
    use edgeslice_netsim::PoissonTraffic;
    use rand::SeedableRng;

    fn small_env() -> RaSliceEnv {
        let config = RaEnvConfig::experiment(vec![
            SliceSpec::experiment_slice1(),
            SliceSpec::experiment_slice2(),
        ]);
        RaSliceEnv::with_dataset(
            config,
            vec![
                Box::new(PoissonTraffic::paper()),
                Box::new(PoissonTraffic::paper()),
            ],
        )
    }

    #[test]
    fn every_technique_constructs_and_decides() {
        let mut rng = StdRng::seed_from_u64(0);
        let env = small_env();
        let cfg = AgentConfig::default();
        for t in Technique::ALL {
            let agent = OrchestrationAgent::new(RaId(0), t, &env, &cfg, &mut rng);
            assert_eq!(agent.technique(), t);
            let a = agent.decide(&env.observe());
            assert_eq!(a.len(), env.action_dim());
            assert!(a.iter().all(|&v| (0.0..=1.0).contains(&v)), "{t}: {a:?}");
        }
    }

    #[test]
    fn training_restores_orchestration_mode() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut env = small_env();
        let cfg = AgentConfig {
            ddpg: edgeslice_rl::DdpgConfig {
                hidden: 8,
                batch_size: 16,
                warmup: 20,
                ..Default::default()
            },
            ..Default::default()
        };
        let mut agent = OrchestrationAgent::new(RaId(1), Technique::Ddpg, &env, &cfg, &mut rng);
        agent.train(&mut env, 60, &mut rng);
        assert_eq!(agent.ra(), RaId(1));
        // After training, reset must keep the coordination we set.
        env.set_coordination(&[-7.0, -3.0]);
        env.reset(&mut rng);
        assert_eq!(env.coordination(), &[-7.0, -3.0]);
    }

    #[test]
    fn nt_agent_has_smaller_state() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut config = RaEnvConfig::experiment(vec![
            SliceSpec::experiment_slice1(),
            SliceSpec::experiment_slice2(),
        ]);
        config.state_spec = StateSpec::CoordinationOnly;
        let env = RaSliceEnv::with_dataset(
            config,
            vec![
                Box::new(PoissonTraffic::paper()),
                Box::new(PoissonTraffic::paper()),
            ],
        );
        let agent = OrchestrationAgent::new(
            RaId(0),
            Technique::Ddpg,
            &env,
            &AgentConfig::default(),
            &mut rng,
        );
        assert_eq!(agent.decide(&env.observe()).len(), 6);
    }
}
