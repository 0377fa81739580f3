//! The orchestration agent (paper Sec. IV-B): a per-RA DRL learner that
//! maps the state (Eq. 13) to an end-to-end resource orchestration
//! (Eq. 14) under the coordinator's supervision.

use std::sync::Arc;

use edgeslice_rl::{
    Ddpg, DdpgConfig, Environment, OnPolicy, OnPolicyConfig, Sac, SacConfig, Technique,
};
use rand::rngs::StdRng;

use crate::{RaId, RaSliceEnv};

/// The learning backend of an orchestration agent. DDPG is the paper's
/// technique; the others are the Fig. 10b comparators.
#[expect(
    clippy::large_enum_variant,
    reason = "`Ddpg` carries its scratch arena and sample batch inline, but a backend only \
              lives behind its agent's `Arc` (never in arrays): boxing it would buy nothing"
)]
#[derive(Debug, Clone)]
pub enum AgentBackend {
    /// Deep deterministic policy gradient (the paper's choice).
    Ddpg(Ddpg),
    /// Soft actor-critic.
    Sac(Sac),
    /// PPO, TRPO or VPG: its update rule says which.
    OnPolicy(OnPolicy),
}

/// Hyper-parameter bundle used when constructing any backend.
#[derive(Debug, Clone, Copy)]
pub struct AgentConfig {
    /// DDPG hyper-parameters.
    pub ddpg: DdpgConfig,
    /// SAC hyper-parameters.
    pub sac: SacConfig,
    /// PPO hyper-parameters (an [`edgeslice_rl::UpdateRule::Ppo`] rule).
    pub ppo: OnPolicyConfig,
    /// TRPO hyper-parameters (an [`edgeslice_rl::UpdateRule::Trpo`] rule).
    pub trpo: OnPolicyConfig,
    /// VPG hyper-parameters (an [`edgeslice_rl::UpdateRule::Vpg`] rule).
    pub vpg: OnPolicyConfig,
}

impl Default for AgentConfig {
    fn default() -> Self {
        Self {
            ddpg: DdpgConfig::default(),
            sac: SacConfig::default(),
            ppo: OnPolicyConfig::PPO,
            trpo: OnPolicyConfig::TRPO,
            vpg: OnPolicyConfig::VPG,
        }
    }
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
            Technique::Ppo => AgentBackend::OnPolicy(OnPolicy::new(sd, ad, config.ppo, rng)),
            Technique::Trpo => AgentBackend::OnPolicy(OnPolicy::new(sd, ad, config.trpo, rng)),
            Technique::Vpg => AgentBackend::OnPolicy(OnPolicy::new(sd, ad, config.vpg, rng)),
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
    pub(crate) fn technique(&self) -> Technique {
        match &*self.backend {
            AgentBackend::Ddpg(_) => Technique::Ddpg,
            AgentBackend::Sac(_) => Technique::Sac,
            AgentBackend::OnPolicy(a) => a.config().rule.into(),
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
            AgentBackend::OnPolicy(a) => {
                let iters = (env_steps / a.config().rollout_len).max(1);
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
            AgentBackend::OnPolicy(a) => a.gaussian_policy().act_deterministic(state),
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
    fn on_policy_training_budgets_whole_rollouts_of_the_agents_own_length() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut env = small_env();
        let cfg = AgentConfig {
            ppo: OnPolicyConfig {
                hidden: 8,
                rollout_len: 32,
                ..OnPolicyConfig::PPO
            },
            ..Default::default()
        };
        let mut agent = OrchestrationAgent::new(RaId(0), Technique::Ppo, &env, &cfg, &mut rng);
        let start = env.global_t();
        agent.train(&mut env, 320, &mut rng);
        assert_eq!(env.global_t() - start, 320);
    }

    /// Replicas share their learner behind an `Arc`, so the backend's size
    /// is what every `install_agents` allocation costs: the DDPG learner
    /// must stay its largest variant.
    #[test]
    fn ddpg_is_the_largest_backend() {
        use std::mem::size_of;
        assert!(size_of::<Sac>() <= size_of::<Ddpg>());
        assert!(size_of::<OnPolicy>() <= size_of::<Ddpg>());
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
