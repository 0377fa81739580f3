//! Vanilla policy gradient (REINFORCE with a learned baseline), one of the
//! comparator training techniques in Fig. 10b (Sutton et al. 2000).

use edgeslice_nn::{Adam, Matrix, TrainScratch};
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

use crate::{collect_rollout, gae, normalize_advantages, Environment, GaussianPolicy, ValueNet};

/// Hyper-parameters for [`Vpg`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VpgConfig {
    /// Hidden width of policy and value networks.
    pub hidden: usize,
    /// Discount factor γ.
    pub gamma: f64,
    /// GAE λ (1.0 recovers Monte-Carlo advantages).
    pub lambda: f64,
    /// Policy learning rate.
    pub policy_lr: f64,
    /// Value-function learning rate.
    pub value_lr: f64,
    /// Environment steps per policy update.
    pub rollout_len: usize,
    /// Value-regression epochs per update.
    pub value_epochs: usize,
    /// Initial policy log standard deviation.
    pub initial_log_std: f64,
}

impl Default for VpgConfig {
    fn default() -> Self {
        Self {
            hidden: 64,
            gamma: 0.99,
            lambda: 1.0,
            policy_lr: 3e-3,
            value_lr: 1e-2,
            rollout_len: 512,
            value_epochs: 10,
            initial_log_std: -0.7,
        }
    }
}

/// Diagnostics from one VPG update.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VpgUpdate {
    /// Mean per-step reward in the rollout.
    pub mean_reward: f64,
    /// Final value-regression loss.
    pub value_loss: f64,
    /// Policy entropy after the update.
    pub entropy: f64,
}

/// A vanilla policy-gradient learner.
#[derive(Debug, Clone)]
pub struct Vpg {
    policy: GaussianPolicy,
    policy_opt: Adam,
    value: ValueNet,
    config: VpgConfig,
    /// The mean network's forward/backward pass over a rollout.
    scratch: TrainScratch,
}

impl Vpg {
    /// Creates a learner for the given dimensions.
    pub fn new(state_dim: usize, action_dim: usize, config: VpgConfig, rng: &mut StdRng) -> Self {
        let mean = edgeslice_nn::Mlp::new(
            &[state_dim, config.hidden, config.hidden, action_dim],
            edgeslice_nn::Activation::leaky_default(),
            edgeslice_nn::Activation::Sigmoid,
            rng,
        );
        let policy = GaussianPolicy::new(mean, config.initial_log_std);
        let policy_opt = Adam::new(policy.mean_net(), config.policy_lr);
        let value = ValueNet::new(state_dim, config.hidden, config.value_lr, rng);
        Self {
            policy,
            policy_opt,
            value,
            config,
            scratch: TrainScratch::new(),
        }
    }

    /// The greedy (mean) policy action.
    pub fn policy(&self, state: &[f64]) -> Vec<f64> {
        let mut a = self.policy.act_deterministic(state);
        for v in &mut a {
            *v = v.clamp(0.0, 1.0);
        }
        a
    }

    /// The underlying stochastic policy.
    pub fn gaussian_policy(&self) -> &GaussianPolicy {
        &self.policy
    }

    /// Collects one rollout and applies one policy-gradient step.
    pub fn update<E: Environment + ?Sized>(&mut self, env: &mut E, rng: &mut StdRng) -> VpgUpdate {
        let rollout = collect_rollout(env, &self.policy, self.config.rollout_len, rng);
        let values = self.value.predict(&rollout.states);
        let last_value = self.value.predict_one(&rollout.final_state);
        let (mut adv, targets) = gae(
            &rollout.rewards,
            &values,
            &rollout.dones,
            last_value,
            self.config.gamma,
            self.config.lambda,
        );
        normalize_advantages(&mut adv);

        // Policy gradient of -E[log π(a|s) A]: upstream gradient on the
        // mean head is -A_i * ∂logπ/∂μ for each sample.
        let s = &mut self.scratch;
        self.policy.mean_net().forward_scratch(&rollout.states, s);
        let dlogp = self.policy.dlogp_dmean(s.output(), &rollout.raw_actions);
        let n = rollout.rewards.len() as f64;
        let d_mean = Matrix::from_fn(dlogp.rows(), dlogp.cols(), |i, j| {
            -adv[i] * dlogp[(i, j)] / n
        });
        self.policy.mean_net().backward_scratch(s, &d_mean);
        s.grads_mut().clip_global_norm(5.0);
        self.policy_opt.step(self.policy.mean_net_mut(), s.grads());

        // log-std gradient (ascend E[logπ A]), at the pre-step means.
        let dls = self.policy.dlogp_dlogstd(s.output(), &rollout.raw_actions);
        for j in 0..self.policy.action_dim() {
            let mut g = 0.0;
            for i in 0..dls.rows() {
                g += -adv[i] * dls[(i, j)] / n;
            }
            let ls = &mut self.policy.log_std_mut()[j];
            *ls = (*ls - self.config.policy_lr * g).clamp(-3.0, 1.0);
        }

        let value_loss =
            self.value
                .fit(&rollout.states, &targets, self.config.value_epochs, 64, rng);
        VpgUpdate {
            mean_reward: rollout.rewards.iter().sum::<f64>() / n,
            value_loss,
            entropy: self.policy.entropy(),
        }
    }

    /// Runs `iterations` update cycles; returns the per-update mean rewards.
    pub fn train<E: Environment + ?Sized>(
        &mut self,
        env: &mut E,
        iterations: usize,
        rng: &mut StdRng,
    ) -> Vec<f64> {
        (0..iterations)
            .map(|_| self.update(env, rng).mean_reward)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::test_env::TrackingEnv;
    use crate::evaluate;
    use rand::SeedableRng;

    #[test]
    fn improves_on_tracking_task() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut env = TrackingEnv::new(20);
        let cfg = VpgConfig {
            hidden: 16,
            rollout_len: 256,
            ..Default::default()
        };
        let mut agent = Vpg::new(1, 1, cfg, &mut rng);
        let before = evaluate(&mut env, |s| agent.policy(s), 10, 20, &mut rng);
        agent.train(&mut env, 30, &mut rng);
        let after = evaluate(&mut env, |s| agent.policy(s), 10, 20, &mut rng);
        assert!(
            after > before,
            "VPG failed to improve: {before:.2} -> {after:.2}"
        );
        assert!(after > 18.0, "VPG final score too low: {after:.2}");
    }

    #[test]
    fn actions_clamped_to_unit_box() {
        let mut rng = StdRng::seed_from_u64(5);
        let agent = Vpg::new(2, 2, VpgConfig::default(), &mut rng);
        let a = agent.policy(&[100.0, -100.0]);
        assert!(a.iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn update_reports_finite_diagnostics() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut env = TrackingEnv::new(10);
        let cfg = VpgConfig {
            hidden: 8,
            rollout_len: 64,
            ..Default::default()
        };
        let mut agent = Vpg::new(1, 1, cfg, &mut rng);
        let u = agent.update(&mut env, &mut rng);
        assert!(u.mean_reward.is_finite());
        assert!(u.value_loss.is_finite());
        assert!(u.entropy.is_finite());
    }
}
