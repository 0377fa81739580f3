//! Deep deterministic policy gradient (Lillicrap et al.), the paper's
//! training technique for orchestration agents (Sec. IV-B2, Fig. 3).
//!
//! The agent maintains a deterministic actor `μ(s|θ^μ)` and a critic
//! `Q(s, a|θ^π)`, each shadowed by a slowly-tracking target network. The
//! critic minimizes the mean-squared Bellman error against the target value
//! `g_t = r + γ Q'(s', μ'(s'))` (paper Eq. 16–17); the actor ascends
//! `∇_θ J ≈ E[∇_a Q(s, a)|_{a=μ(s)} ∇_θ μ(s)]` (paper Eq. 18).

use edgeslice_nn::{Adam, FleetScratch, Matrix, Mlp, Parallelism, TrainScratch};
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::{Batch, DecayingGaussian, Environment, ReplayBuffer, Transition};

/// Hyper-parameters for [`Ddpg`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DdpgConfig {
    /// Hidden width of both actor and critic (paper: 128).
    pub hidden: usize,
    /// Discount factor γ (paper: 0.99).
    pub gamma: f64,
    /// Polyak factor τ for target-network tracking.
    pub tau: f64,
    /// Actor/critic learning rate (paper: 0.001 for both).
    pub lr: f64,
    /// Minibatch size (paper: 512).
    pub batch_size: usize,
    /// Replay memory capacity.
    pub replay_capacity: usize,
    /// Environment steps collected before updates begin.
    pub warmup: usize,
    /// Initial exploration noise σ (paper: 1.0).
    pub noise_sigma: f64,
    /// Per-update noise decay (paper: 0.9999).
    pub noise_decay: f64,
}

impl Default for DdpgConfig {
    fn default() -> Self {
        Self {
            hidden: 64,
            gamma: 0.99,
            tau: 0.005,
            lr: 1e-3,
            batch_size: 128,
            replay_capacity: 100_000,
            warmup: 500,
            noise_sigma: 1.0,
            noise_decay: 0.999,
        }
    }
}

impl DdpgConfig {
    /// The paper's exact hyper-parameters (Sec. VI-A): 2×128 hidden layers,
    /// batch 512, lr 1e-3, γ = 0.99, noise decay 0.9999. Training for the
    /// paper's 1e6 steps takes hours on CPU; the figure binaries use the
    /// scaled default instead and record the deviation in EXPERIMENTS.md.
    pub fn paper() -> Self {
        Self {
            hidden: 128,
            batch_size: 512,
            noise_decay: 0.9999,
            warmup: 2_000,
            ..Default::default()
        }
    }
}

/// Diagnostics from one gradient update.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DdpgUpdate {
    /// Critic MSBE loss (Eq. 16).
    pub critic_loss: f64,
    /// Mean critic value of the actor's on-batch actions (the actor
    /// objective being ascended).
    pub actor_objective: f64,
    /// Exploration σ after this update.
    pub noise_sigma: f64,
}

/// Reusable buffers for one [`Ddpg::update`] step: the sampled batch, one
/// [`TrainScratch`] per (network, role) pair, and every intermediate matrix
/// the update touches. After the first update everything here sits at its
/// steady-state capacity and the step is allocation-free.
#[derive(Debug, Clone, Default)]
struct DdpgScratch {
    batch: Batch,
    /// Target-actor forward for `μ'(s')`.
    ta_fwd: TrainScratch,
    /// Target-critic forward for `Q'(s', μ'(s'))`.
    tc_fwd: TrainScratch,
    /// Critic forward/backward for the TD loss.
    critic_td: TrainScratch,
    /// Actor forward/backward for the policy gradient.
    actor_fwd: TrainScratch,
    /// Critic re-forward (and input-gradient backward) at `(s, μ(s))`.
    critic_pi: TrainScratch,
    next_sa: Matrix,
    sa: Matrix,
    sa_mu: Matrix,
    targets: Matrix,
    d_pred: Matrix,
    d_q: Matrix,
    d_action: Matrix,
}

/// A DDPG learner.
#[derive(Debug, Clone)]
pub struct Ddpg {
    actor: Mlp,
    critic: Mlp,
    target_actor: Mlp,
    target_critic: Mlp,
    actor_opt: Adam,
    critic_opt: Adam,
    replay: ReplayBuffer,
    noise: DecayingGaussian,
    config: DdpgConfig,
    updates: u64,
    scratch: DdpgScratch,
}

impl Ddpg {
    /// Creates a learner for the given state/action dimensions.
    pub fn new(state_dim: usize, action_dim: usize, config: DdpgConfig, rng: &mut StdRng) -> Self {
        let h = config.hidden;
        let actor = Mlp::new(
            &[state_dim, h, h, action_dim],
            edgeslice_nn::Activation::leaky_default(),
            edgeslice_nn::Activation::Sigmoid,
            rng,
        );
        let critic = Mlp::new(
            &[state_dim + action_dim, h, h, 1],
            edgeslice_nn::Activation::leaky_default(),
            edgeslice_nn::Activation::Identity,
            rng,
        );
        let target_actor = actor.clone();
        let target_critic = critic.clone();
        let actor_opt = Adam::new(&actor, config.lr);
        let critic_opt = Adam::new(&critic, config.lr);
        let replay = ReplayBuffer::new(config.replay_capacity, state_dim, action_dim);
        let noise = DecayingGaussian::new(config.noise_sigma, config.noise_decay, 0.01);
        Self {
            actor,
            critic,
            target_actor,
            target_critic,
            actor_opt,
            critic_opt,
            replay,
            noise,
            config,
            updates: 0,
            scratch: DdpgScratch::default(),
        }
    }

    /// The configuration this learner was built with.
    pub fn config(&self) -> &DdpgConfig {
        &self.config
    }

    /// The greedy (noise-free) policy action for `state`.
    pub fn policy(&self, state: &[f64]) -> Vec<f64> {
        self.actor.forward_one(state)
    }

    /// Batched greedy policy: the actor's fused multi-row forward over the
    /// input batch staged in `s` ([`Mlp::forward_fleet_scratch`]). Row `i`
    /// of the returned matrix is bit-identical to [`Ddpg::policy`] on input
    /// row `i`, for any `par`; allocation-free at steady state.
    pub fn policy_batch_scratch<'s>(
        &self,
        s: &'s mut FleetScratch,
        par: Parallelism,
    ) -> &'s Matrix {
        self.actor.forward_fleet_scratch(s, par)
    }

    /// Immutable access to the actor network (e.g. for checkpointing).
    pub fn actor(&self) -> &Mlp {
        &self.actor
    }

    /// Immutable access to the critic network.
    pub fn critic(&self) -> &Mlp {
        &self.critic
    }

    /// Number of gradient updates applied so far.
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// Exploration action: policy output plus decaying Gaussian noise,
    /// clamped to `[0, 1]`.
    pub fn explore(&mut self, state: &[f64], rng: &mut StdRng) -> Vec<f64> {
        let mut a = self.policy(state);
        self.noise.perturb(&mut a, rng);
        a
    }

    /// Stores a transition in the replay memory.
    pub fn observe(&mut self, transition: &Transition) {
        self.replay.push(transition);
    }

    /// Runs one critic + actor gradient step and soft target updates.
    ///
    /// Returns `None` while the replay memory holds fewer than a batch of
    /// transitions (the warm-up contract: no network is touched until the
    /// buffer can fill a batch).
    ///
    /// The step runs entirely through the `_into` kernels and this agent's
    /// scratch arena — zero heap allocations at steady state. For the same
    /// RNG state it is bit-identical to the textbook, allocating update
    /// (cached forward, `Matrix::gemm` backward, flat-vector Adam) that the
    /// test-side oracle `crates/rl/tests/support/ddpg_oracle.rs` runs.
    pub fn update(&mut self, rng: &mut StdRng) -> Option<DdpgUpdate> {
        // Move the scratch out so its buffers and `self`'s networks can be
        // borrowed independently; moving is allocation-free.
        let mut s = std::mem::take(&mut self.scratch);
        let result = self.update_with(&mut s, rng);
        self.scratch = s;
        result
    }

    fn update_with(&mut self, s: &mut DdpgScratch, rng: &mut StdRng) -> Option<DdpgUpdate> {
        if self
            .replay
            .sample_into(self.config.batch_size, rng, &mut s.batch)
            .is_err()
        {
            return None;
        }
        let n = s.batch.rewards.len();

        // ---- Critic: minimize (Q(s,a) - g)² with g = r + γ Q'(s', μ'(s')).
        self.target_actor
            .forward_scratch(&s.batch.next_states, &mut s.ta_fwd);
        Matrix::hstack_into(&[&s.batch.next_states, s.ta_fwd.output()], &mut s.next_sa);
        self.target_critic
            .forward_scratch(&s.next_sa, &mut s.tc_fwd);
        s.targets.resize_for(n, 1);
        {
            let next_q = s.tc_fwd.output();
            for i in 0..n {
                let bootstrap = if s.batch.dones[i] {
                    0.0
                } else {
                    self.config.gamma * next_q[(i, 0)]
                };
                s.targets[(i, 0)] = s.batch.rewards[i] + bootstrap;
            }
        }
        Matrix::hstack_into(&[&s.batch.states, &s.batch.actions], &mut s.sa);
        self.critic.forward_scratch(&s.sa, &mut s.critic_td);
        let critic_loss =
            edgeslice_nn::mse_loss_into(s.critic_td.output(), &s.targets, &mut s.d_pred);
        self.critic.backward_scratch(&mut s.critic_td, &s.d_pred);
        s.critic_td.grads_mut().clip_global_norm(10.0);
        self.critic_opt.step(&mut self.critic, s.critic_td.grads());

        // ---- Actor: ascend Q(s, μ(s)).
        self.actor
            .forward_scratch(&s.batch.states, &mut s.actor_fwd);
        Matrix::hstack_into(&[&s.batch.states, s.actor_fwd.output()], &mut s.sa_mu);
        self.critic.forward_scratch(&s.sa_mu, &mut s.critic_pi);
        let actor_objective = s.critic_pi.output().mean();
        // d(-mean Q)/dQ = -1/n; backprop through the critic to get ∇_a Q.
        // Only the input-gradient chain is needed — the critic's parameter
        // gradients would be discarded, so they are never computed.
        s.d_q.resize_for(n, 1);
        s.d_q.fill(-1.0 / n as f64);
        self.critic.backward_input_scratch(&mut s.critic_pi, &s.d_q);
        // Slice out the action part of the critic input gradient.
        let sd = s.batch.states.cols();
        let ad = s.actor_fwd.output().cols();
        s.d_action.resize_for(n, ad);
        {
            let d_input = s.critic_pi.d_input();
            for i in 0..n {
                s.d_action
                    .row_mut(i)
                    .copy_from_slice(&d_input.row(i)[sd..sd + ad]);
            }
        }
        self.actor.backward_scratch(&mut s.actor_fwd, &s.d_action);
        s.actor_fwd.grads_mut().clip_global_norm(10.0);
        self.actor_opt.step(&mut self.actor, s.actor_fwd.grads());

        // ---- Soft target updates.
        self.target_actor
            .soft_update_from(&self.actor, self.config.tau);
        self.target_critic
            .soft_update_from(&self.critic, self.config.tau);
        self.updates += 1;

        Some(DdpgUpdate {
            critic_loss,
            actor_objective,
            noise_sigma: self.noise.sigma(),
        })
    }

    /// Convenience training loop: interacts with `env` for `steps`
    /// environment steps, updating once per step after warm-up. Returns the
    /// per-episode returns observed during training.
    pub fn train<E: Environment + ?Sized>(
        &mut self,
        env: &mut E,
        steps: usize,
        rng: &mut StdRng,
    ) -> Vec<f64> {
        let mut returns = Vec::new();
        let mut state = env.reset(rng);
        let mut episode_return = 0.0;
        for step in 0..steps {
            let action = if step < self.config.warmup {
                // Uniform random warm-up fills the replay memory with
                // diverse actions before the policy is trusted.
                (0..env.action_dim())
                    .map(|_| rng.gen_range(0.0..1.0))
                    .collect()
            } else {
                self.explore(&state, rng)
            };
            let out = env.step(&action, rng);
            episode_return += out.reward;
            self.observe(&Transition {
                state: state.clone(),
                action,
                reward: out.reward,
                next_state: out.next_state.clone(),
                done: out.done,
            });
            state = if out.done {
                returns.push(episode_return);
                episode_return = 0.0;
                env.reset(rng)
            } else {
                out.next_state
            };
            if step >= self.config.warmup {
                self.update(rng);
            }
        }
        returns
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ddpg_oracle::DdpgOracle;
    use crate::env::test_env::TrackingEnv;
    use crate::evaluate;
    use rand::SeedableRng;

    fn small_config() -> DdpgConfig {
        DdpgConfig {
            hidden: 16,
            batch_size: 32,
            replay_capacity: 5_000,
            warmup: 100,
            noise_sigma: 0.4,
            noise_decay: 0.999,
            ..Default::default()
        }
    }

    #[test]
    fn update_requires_warmup_data() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut agent = Ddpg::new(1, 1, small_config(), &mut rng);
        assert!(agent.update(&mut rng).is_none());
    }

    #[test]
    fn update_before_warmup_leaves_networks_untouched() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut agent = Ddpg::new(2, 1, small_config(), &mut rng);
        // A few transitions, but fewer than a batch: still warming up.
        for i in 0..5 {
            agent.observe(&Transition {
                state: vec![0.1, 0.2],
                action: vec![0.5],
                reward: i as f64,
                next_state: vec![0.2, 0.3],
                done: false,
            });
        }
        let actor_before = agent.actor.flat_params();
        let critic_before = agent.critic.flat_params();
        assert!(agent.update(&mut rng).is_none());
        assert_eq!(agent.actor.flat_params(), actor_before);
        assert_eq!(agent.critic.flat_params(), critic_before);
        assert_eq!(agent.updates(), 0);
    }

    /// The shipped update against the test-side oracle's textbook one
    /// (`crates/rl/tests/support/ddpg_oracle.rs`), from the same seed and
    /// the same initial weights: all four networks bit for bit after 400
    /// training steps (300 updates).
    #[test]
    fn fused_update_is_bit_identical_to_reference() {
        let mut env_a = TrackingEnv::new(20);
        let mut env_b = TrackingEnv::new(20);
        let mut rng_a = StdRng::seed_from_u64(42);
        let mut rng_b = StdRng::seed_from_u64(42);
        let mut fused = Ddpg::new(1, 1, small_config(), &mut rng_a);
        let mut oracle = DdpgOracle::new(&Ddpg::new(1, 1, small_config(), &mut rng_b));
        fused.train(&mut env_a, 400, &mut rng_a);
        oracle.train(&mut env_b, 400, &mut rng_b);
        assert_eq!(fused.updates(), 300);
        let bits =
            |net: &Mlp| -> Vec<u64> { net.flat_params().iter().map(|p| p.to_bits()).collect() };
        assert_eq!(bits(&fused.actor), bits(&oracle.actor), "actor diverged");
        assert_eq!(bits(&fused.critic), bits(&oracle.critic), "critic diverged");
        assert_eq!(
            bits(&fused.target_actor),
            bits(&oracle.target_actor),
            "target actor diverged"
        );
        assert_eq!(
            bits(&fused.target_critic),
            bits(&oracle.target_critic),
            "target critic diverged"
        );
    }

    #[test]
    fn learns_to_track_the_target() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut env = TrackingEnv::new(20);
        let mut agent = Ddpg::new(1, 1, small_config(), &mut rng);
        let before = evaluate(&mut env, |s| agent.policy(s), 10, 20, &mut rng);
        agent.train(&mut env, 2_000, &mut rng);
        let after = evaluate(&mut env, |s| agent.policy(s), 10, 20, &mut rng);
        // Perfect play earns 20; random play ~17. Require clear learning.
        assert!(
            after > before && after > 19.0,
            "DDPG failed to learn: before={before:.2} after={after:.2}"
        );
    }

    #[test]
    fn policy_outputs_stay_in_unit_box() {
        let mut rng = StdRng::seed_from_u64(1);
        let agent = Ddpg::new(3, 2, small_config(), &mut rng);
        for _ in 0..20 {
            let s: Vec<f64> = (0..3).map(|_| rng.gen_range(-10.0..10.0)).collect();
            let a = agent.policy(&s);
            assert!(a.iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }

    #[test]
    fn update_counter_and_diagnostics() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut env = TrackingEnv::new(10);
        let mut agent = Ddpg::new(1, 1, small_config(), &mut rng);
        agent.train(&mut env, 200, &mut rng);
        assert_eq!(agent.updates(), 100); // steps - warmup
        let u = agent.update(&mut rng).unwrap();
        assert!(u.critic_loss.is_finite());
        assert!(u.actor_objective.is_finite());
        assert!(u.noise_sigma < small_config().noise_sigma);
    }

    #[test]
    fn paper_config_matches_section_vi() {
        let c = DdpgConfig::paper();
        assert_eq!(c.hidden, 128);
        assert_eq!(c.batch_size, 512);
        assert_eq!(c.lr, 1e-3);
        assert_eq!(c.gamma, 0.99);
        assert_eq!(c.noise_decay, 0.9999);
    }
}
