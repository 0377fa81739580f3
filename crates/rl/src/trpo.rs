//! Trust region policy optimization (Schulman et al. 2015) — a comparator
//! training technique in Fig. 10b.
//!
//! The natural-gradient direction is obtained by conjugate gradient on
//! Fisher-vector products. For a diagonal-Gaussian policy with
//! state-independent σ the Fisher matrix is the Gauss–Newton matrix
//! `F = (1/n) Jᵀ diag(1/σ²) J` of the mean network, so `F v` is computed
//! matrix-free as a Jacobian-vector product (forward difference) followed
//! by a transposed-Jacobian product (backpropagation). The log-std is held
//! fixed during the trust-region step, the usual simplification.

use edgeslice_nn::{Matrix, TrainScratch};
use edgeslice_optim::conjugate_gradient;
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

use crate::{collect_rollout, gae, normalize_advantages, Environment, GaussianPolicy, ValueNet};

/// Hyper-parameters for [`Trpo`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrpoConfig {
    /// Hidden width of policy and value networks.
    pub hidden: usize,
    /// Discount factor γ.
    pub gamma: f64,
    /// GAE λ.
    pub lambda: f64,
    /// Trust-region radius δ (max mean KL per update).
    pub max_kl: f64,
    /// Conjugate-gradient iterations.
    pub cg_iters: usize,
    /// Damping added to Fisher-vector products.
    pub cg_damping: f64,
    /// Backtracking line-search shrink factor.
    pub backtrack_coef: f64,
    /// Maximum line-search steps.
    pub backtrack_iters: usize,
    /// Environment steps per update.
    pub rollout_len: usize,
    /// Value-function learning rate.
    pub value_lr: f64,
    /// Value-regression epochs per update.
    pub value_epochs: usize,
    /// Fixed policy log standard deviation.
    pub initial_log_std: f64,
}

impl Default for TrpoConfig {
    fn default() -> Self {
        Self {
            hidden: 64,
            gamma: 0.99,
            lambda: 0.95,
            max_kl: 0.01,
            cg_iters: 10,
            cg_damping: 0.1,
            backtrack_coef: 0.8,
            backtrack_iters: 10,
            rollout_len: 512,
            value_lr: 1e-2,
            value_epochs: 10,
            initial_log_std: -0.7,
        }
    }
}

/// Diagnostics from one TRPO update.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrpoUpdate {
    /// Mean per-step reward in the rollout.
    pub mean_reward: f64,
    /// KL divergence of the accepted step (0 if the step was rejected).
    pub kl: f64,
    /// Surrogate improvement of the accepted step.
    pub improvement: f64,
    /// Whether the line search accepted a step.
    pub accepted: bool,
}

/// A TRPO learner.
#[derive(Debug, Clone)]
pub struct Trpo {
    policy: GaussianPolicy,
    value: ValueNet,
    config: TrpoConfig,
    /// The mean network's pass at `θ_old`: one forward per update,
    /// backpropagated for the gradient and again for every Fisher-vector
    /// product.
    scratch: TrainScratch,
}

impl Trpo {
    /// Creates a learner for the given dimensions.
    pub fn new(state_dim: usize, action_dim: usize, config: TrpoConfig, rng: &mut StdRng) -> Self {
        let mean = edgeslice_nn::Mlp::new(
            &[state_dim, config.hidden, config.hidden, action_dim],
            edgeslice_nn::Activation::leaky_default(),
            edgeslice_nn::Activation::Sigmoid,
            rng,
        );
        let policy = GaussianPolicy::new(mean, config.initial_log_std);
        let value = ValueNet::new(state_dim, config.hidden, config.value_lr, rng);
        Self {
            policy,
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

    /// Surrogate objective `mean(exp(logπ_new − logπ_old) · A)`.
    fn surrogate(
        policy: &GaussianPolicy,
        states: &Matrix,
        raws: &Matrix,
        old_lp: &[f64],
        adv: &[f64],
    ) -> f64 {
        let means = policy.mean_net().forward(states);
        let new_lp = policy.log_prob_batch(&means, raws);
        new_lp
            .iter()
            .zip(old_lp)
            .zip(adv)
            .map(|((&n, &o), &a)| (n - o).exp() * a)
            .sum::<f64>()
            / adv.len().max(1) as f64
    }

    /// Collects one rollout and applies a trust-region step.
    pub fn update<E: Environment + ?Sized>(&mut self, env: &mut E, rng: &mut StdRng) -> TrpoUpdate {
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

        // Policy gradient g = ∇_θ mean(logπ · A) at θ_old.
        let mean_net = self.policy.mean_net();
        let scratch = &mut self.scratch;
        mean_net.forward_scratch(&rollout.states, scratch);
        let dlogp = self
            .policy
            .dlogp_dmean(scratch.output(), &rollout.raw_actions);
        let d_mean = Matrix::from_fn(dlogp.rows(), dlogp.cols(), |i, j| {
            adv[i] * dlogp[(i, j)] / n as f64
        });
        mean_net.backward_scratch(scratch, &d_mean);
        let g = mean_net.flat_grads(scratch.grads());

        // Fisher-vector product via JVP (forward difference) + VJP
        // (backprop through the θ_old pass still in `scratch`):
        // F v = (1/n) Jᵀ diag(1/σ²) J v + damping v.
        let theta = mean_net.flat_params();
        let sigma_inv2: Vec<f64> = self
            .policy
            .log_std()
            .iter()
            .map(|ls| (-2.0 * ls).exp())
            .collect();
        let damping = self.config.cg_damping;
        let mut fvp = |v: &[f64]| -> Vec<f64> {
            let eps = 1e-5 / v.iter().map(|x| x * x).sum::<f64>().sqrt().max(1e-12);
            let mut net = mean_net.clone();
            let perturbed: Vec<f64> = theta.iter().zip(v).map(|(t, vi)| t + eps * vi).collect();
            net.set_flat_params(&perturbed);
            let mu_eps = net.forward(&rollout.states);
            // Jv, weighted by 1/σ² and 1/n.
            let means = scratch.output();
            let weighted = Matrix::from_fn(n, means.cols(), |i, j| {
                (mu_eps[(i, j)] - means[(i, j)]) / eps * sigma_inv2[j] / n as f64
            });
            mean_net.backward_scratch(scratch, &weighted);
            let mut out = mean_net.flat_grads(scratch.grads());
            for (o, vi) in out.iter_mut().zip(v) {
                *o += damping * vi;
            }
            out
        };

        let s = conjugate_gradient(&mut fvp, &g, self.config.cg_iters, 1e-10);
        let s_fs: f64 = s.iter().zip(fvp(&s)).map(|(a, b)| a * b).sum();
        if s_fs <= 1e-12 || !s_fs.is_finite() {
            // Degenerate direction; skip the policy step but keep learning V.
            self.value
                .fit(&rollout.states, &targets, self.config.value_epochs, 64, rng);
            return TrpoUpdate {
                mean_reward: rollout.rewards.iter().sum::<f64>() / n as f64,
                kl: 0.0,
                improvement: 0.0,
                accepted: false,
            };
        }
        let beta = (2.0 * self.config.max_kl / s_fs).sqrt();

        let old_surrogate = Self::surrogate(
            &self.policy,
            &rollout.states,
            &rollout.raw_actions,
            &rollout.log_probs,
            &adv,
        );
        let old_policy = self.policy.clone();
        let mut accepted = false;
        let mut kl = 0.0;
        let mut improvement = 0.0;
        let mut alpha = 1.0;
        for _ in 0..self.config.backtrack_iters {
            let candidate: Vec<f64> = theta
                .iter()
                .zip(&s)
                .map(|(t, si)| t + alpha * beta * si)
                .collect();
            self.policy.mean_net_mut().set_flat_params(&candidate);
            let new_surrogate = Self::surrogate(
                &self.policy,
                &rollout.states,
                &rollout.raw_actions,
                &rollout.log_probs,
                &adv,
            );
            let step_kl = self.policy.mean_kl_from(&old_policy, &rollout.states);
            if new_surrogate > old_surrogate && step_kl <= 1.5 * self.config.max_kl {
                accepted = true;
                kl = step_kl;
                improvement = new_surrogate - old_surrogate;
                break;
            }
            alpha *= self.config.backtrack_coef;
        }
        if !accepted {
            self.policy = old_policy;
        }

        self.value
            .fit(&rollout.states, &targets, self.config.value_epochs, 64, rng);
        TrpoUpdate {
            mean_reward: rollout.rewards.iter().sum::<f64>() / n as f64,
            kl,
            improvement,
            accepted,
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
        let mut rng = StdRng::seed_from_u64(12);
        let mut env = TrackingEnv::new(20);
        let cfg = TrpoConfig {
            hidden: 16,
            rollout_len: 256,
            ..Default::default()
        };
        let mut agent = Trpo::new(1, 1, cfg, &mut rng);
        let before = evaluate(&mut env, |s| agent.policy(s), 10, 20, &mut rng);
        agent.train(&mut env, 25, &mut rng);
        let after = evaluate(&mut env, |s| agent.policy(s), 10, 20, &mut rng);
        assert!(
            after > before,
            "TRPO failed to improve: {before:.2} -> {after:.2}"
        );
        assert!(after > 17.5, "TRPO final score too low: {after:.2}");
    }

    #[test]
    fn accepted_steps_respect_kl_bound() {
        let mut rng = StdRng::seed_from_u64(13);
        let mut env = TrackingEnv::new(10);
        let cfg = TrpoConfig {
            hidden: 8,
            rollout_len: 128,
            ..Default::default()
        };
        let mut agent = Trpo::new(1, 1, cfg, &mut rng);
        for _ in 0..5 {
            let u = agent.update(&mut env, &mut rng);
            if u.accepted {
                assert!(u.kl <= 1.5 * cfg.max_kl + 1e-9, "KL {0} over bound", u.kl);
                assert!(u.improvement >= 0.0);
            }
        }
    }
}
