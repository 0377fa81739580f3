//! Proximal policy optimization (Schulman et al. 2017) with a clipped
//! surrogate objective — a comparator training technique in Fig. 10b.

use edgeslice_nn::{Adam, Matrix, TrainScratch};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use serde::{Deserialize, Serialize};

use crate::{collect_rollout, gae, normalize_advantages, Environment, GaussianPolicy, ValueNet};

/// Hyper-parameters for [`Ppo`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PpoConfig {
    /// Hidden width of policy and value networks.
    pub hidden: usize,
    /// Discount factor γ.
    pub gamma: f64,
    /// GAE λ.
    pub lambda: f64,
    /// Clip range ε of the surrogate ratio.
    pub clip: f64,
    /// Policy learning rate.
    pub policy_lr: f64,
    /// Value-function learning rate.
    pub value_lr: f64,
    /// Environment steps per update.
    pub rollout_len: usize,
    /// Optimization epochs over each rollout.
    pub epochs: usize,
    /// Minibatch size within an epoch.
    pub minibatch: usize,
    /// Entropy bonus coefficient.
    pub entropy_coef: f64,
    /// Initial policy log standard deviation.
    pub initial_log_std: f64,
}

impl Default for PpoConfig {
    fn default() -> Self {
        Self {
            hidden: 64,
            gamma: 0.99,
            lambda: 0.95,
            clip: 0.2,
            policy_lr: 3e-4,
            value_lr: 1e-2,
            rollout_len: 512,
            epochs: 8,
            minibatch: 64,
            entropy_coef: 1e-3,
            initial_log_std: -0.7,
        }
    }
}

/// Diagnostics from one PPO update.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PpoUpdate {
    /// Mean per-step reward in the rollout.
    pub mean_reward: f64,
    /// Fraction of samples whose ratio hit the clip boundary in the final
    /// epoch.
    pub clip_fraction: f64,
    /// Final value-regression loss.
    pub value_loss: f64,
}

/// A PPO-clip learner.
#[derive(Debug, Clone)]
pub struct Ppo {
    policy: GaussianPolicy,
    policy_opt: Adam,
    value: ValueNet,
    config: PpoConfig,
    /// The mean network's forward/backward pass over a minibatch.
    scratch: TrainScratch,
}

impl Ppo {
    /// Creates a learner for the given dimensions.
    pub fn new(state_dim: usize, action_dim: usize, config: PpoConfig, rng: &mut StdRng) -> Self {
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

    /// The underlying stochastic policy.
    pub fn gaussian_policy(&self) -> &GaussianPolicy {
        &self.policy
    }

    /// The greedy (mean) policy action, clamped to the unit box.
    pub fn policy(&self, state: &[f64]) -> Vec<f64> {
        let mut a = self.policy.act_deterministic(state);
        for v in &mut a {
            *v = v.clamp(0.0, 1.0);
        }
        a
    }

    /// Collects one rollout and runs the clipped-surrogate optimization.
    pub fn update<E: Environment + ?Sized>(&mut self, env: &mut E, rng: &mut StdRng) -> PpoUpdate {
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

        let n = rollout.rewards.len();
        let mut indices: Vec<usize> = (0..n).collect();
        let mut clip_fraction = 0.0;
        for _ in 0..self.config.epochs {
            indices.shuffle(rng);
            let mut clipped = 0usize;
            for chunk in indices.chunks(self.config.minibatch.max(1)) {
                let states = rollout.states.select_rows(chunk);
                let raws = rollout.raw_actions.select_rows(chunk);
                let old_lp: Vec<f64> = chunk.iter().map(|&i| rollout.log_probs[i]).collect();
                let batch_adv: Vec<f64> = chunk.iter().map(|&i| adv[i]).collect();

                let s = &mut self.scratch;
                self.policy.mean_net().forward_scratch(&states, s);
                let new_lp = self.policy.log_prob_batch(s.output(), &raws);
                let dlogp = self.policy.dlogp_dmean(s.output(), &raws);
                let m = chunk.len() as f64;

                // Clipped-surrogate gradient wrt the mean head. For sample i
                // the objective is min(r A, clip(r) A); its gradient is
                // r A ∂logπ/∂μ when the unclipped branch is active, else 0.
                let mut d_mean = Matrix::zeros(dlogp.rows(), dlogp.cols());
                for (row, (&lp_new, &lp_old)) in new_lp.iter().zip(&old_lp).enumerate() {
                    let ratio = (lp_new - lp_old).exp();
                    let a = batch_adv[row];
                    let active = if a >= 0.0 {
                        ratio <= 1.0 + self.config.clip
                    } else {
                        ratio >= 1.0 - self.config.clip
                    };
                    if !active {
                        clipped += 1;
                        continue;
                    }
                    for j in 0..dlogp.cols() {
                        // Minimize the negative surrogate.
                        d_mean[(row, j)] = -ratio * a * dlogp[(row, j)] / m;
                    }
                }
                self.policy.mean_net().backward_scratch(s, &d_mean);
                s.grads_mut().clip_global_norm(5.0);
                self.policy_opt.step(self.policy.mean_net_mut(), s.grads());

                // log-std update: surrogate + entropy bonus, at the pre-step
                // means.
                let dls = self.policy.dlogp_dlogstd(s.output(), &raws);
                for j in 0..self.policy.action_dim() {
                    let mut g = 0.0;
                    for (row, (&lp_new, &lp_old)) in new_lp.iter().zip(&old_lp).enumerate() {
                        let ratio = (lp_new - lp_old).exp();
                        let a = batch_adv[row];
                        let active = if a >= 0.0 {
                            ratio <= 1.0 + self.config.clip
                        } else {
                            ratio >= 1.0 - self.config.clip
                        };
                        if active {
                            g += -ratio * a * dls[(row, j)] / m;
                        }
                    }
                    // Entropy bonus gradient: ∂H/∂logσ = 1.
                    g -= self.config.entropy_coef;
                    let ls = &mut self.policy.log_std_mut()[j];
                    *ls = (*ls - self.config.policy_lr * g).clamp(-3.0, 1.0);
                }
            }
            clip_fraction = clipped as f64 / n as f64;
        }

        let value_loss = self
            .value
            .fit(&rollout.states, &targets, self.config.epochs, 64, rng);
        PpoUpdate {
            mean_reward: rollout.rewards.iter().sum::<f64>() / n as f64,
            clip_fraction,
            value_loss,
        }
    }

    /// Runs `iterations` update cycles; returns per-update mean rewards.
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
        let mut rng = StdRng::seed_from_u64(1);
        let mut env = TrackingEnv::new(20);
        let cfg = PpoConfig {
            hidden: 16,
            rollout_len: 256,
            policy_lr: 1e-3,
            ..Default::default()
        };
        let mut agent = Ppo::new(1, 1, cfg, &mut rng);
        let before = evaluate(&mut env, |s| agent.policy(s), 10, 20, &mut rng);
        agent.train(&mut env, 25, &mut rng);
        let after = evaluate(&mut env, |s| agent.policy(s), 10, 20, &mut rng);
        assert!(
            after > before,
            "PPO failed to improve: {before:.2} -> {after:.2}"
        );
        assert!(after > 18.0, "PPO final score too low: {after:.2}");
    }

    #[test]
    fn clip_fraction_is_a_fraction() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut env = TrackingEnv::new(10);
        let cfg = PpoConfig {
            hidden: 8,
            rollout_len: 64,
            epochs: 4,
            ..Default::default()
        };
        let mut agent = Ppo::new(1, 1, cfg, &mut rng);
        let u = agent.update(&mut env, &mut rng);
        assert!((0.0..=1.0).contains(&u.clip_fraction));
        assert!(u.value_loss.is_finite());
    }
}
