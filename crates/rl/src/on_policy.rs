//! The on-policy comparators of Fig. 10b as three update rules on one
//! Gaussian actor-critic: vanilla policy gradient (REINFORCE with a learned
//! baseline, Sutton et al. 2000), PPO with a clipped surrogate objective
//! (Schulman et al. 2017) and TRPO (Schulman et al. 2015).
//!
//! Every update collects one rollout under the stochastic policy, estimates
//! normalized GAE advantages against the value baseline, takes the rule's
//! policy step and refits the baseline.
//!
//! TRPO's natural-gradient direction is obtained by conjugate gradient on
//! Fisher-vector products. For a diagonal-Gaussian policy with
//! state-independent σ the Fisher matrix is the Gauss–Newton matrix
//! `F = (1/n) Jᵀ diag(1/σ²) J` of the mean network, so `F v` is computed
//! matrix-free as a Jacobian-vector product (forward difference) followed
//! by a transposed-Jacobian product (backpropagation). The log-std is held
//! fixed during the trust-region step, the usual simplification.

use edgeslice_nn::{Activation, Adam, Matrix, Mlp, TrainScratch};
use edgeslice_optim::conjugate_gradient;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use serde::{Deserialize, Serialize};

use crate::common::{collect_rollout, gae, normalize_advantages, Rollout};
use crate::{Environment, GaussianPolicy, Technique, ValueNet};

/// How [`OnPolicy`] turns a rollout's advantages into a policy step, with
/// the hyper-parameters only that step reads.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum UpdateRule {
    /// Vanilla policy gradient: one Adam step on `−E[log π · A]`.
    Vpg {
        /// Policy learning rate.
        policy_lr: f64,
        /// Value-regression epochs per update.
        value_epochs: usize,
    },
    /// PPO-clip: `epochs` passes of minibatch Adam steps on the clipped
    /// surrogate.
    Ppo {
        /// Clip range ε of the surrogate ratio.
        clip: f64,
        /// Policy learning rate.
        policy_lr: f64,
        /// Optimization epochs over each rollout, for the policy and the
        /// value regression alike.
        epochs: usize,
        /// Minibatch size within an epoch.
        minibatch: usize,
        /// Entropy bonus coefficient.
        entropy_coef: f64,
    },
    /// TRPO: a natural-gradient step, backtracked into the trust region.
    Trpo {
        /// Trust-region radius δ (max mean KL per update).
        max_kl: f64,
        /// Conjugate-gradient iterations.
        cg_iters: usize,
        /// Damping added to Fisher-vector products.
        cg_damping: f64,
        /// Backtracking line-search shrink factor.
        backtrack_coef: f64,
        /// Maximum line-search steps.
        backtrack_iters: usize,
        /// Value-regression epochs per update.
        value_epochs: usize,
    },
}

impl From<UpdateRule> for Technique {
    fn from(rule: UpdateRule) -> Self {
        match rule {
            UpdateRule::Vpg { .. } => Technique::Vpg,
            UpdateRule::Ppo { .. } => Technique::Ppo,
            UpdateRule::Trpo { .. } => Technique::Trpo,
        }
    }
}

/// Hyper-parameters for [`OnPolicy`]: the actor-critic's own, plus the
/// update rule's. [`OnPolicyConfig::VPG`], [`OnPolicyConfig::PPO`] and
/// [`OnPolicyConfig::TRPO`] are the defaults of each technique.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OnPolicyConfig {
    /// Hidden width of policy and value networks.
    pub hidden: usize,
    /// Discount factor γ.
    pub gamma: f64,
    /// GAE λ (1.0 recovers Monte-Carlo advantages).
    pub lambda: f64,
    /// Value-function learning rate.
    pub value_lr: f64,
    /// Environment steps per update.
    pub rollout_len: usize,
    /// Initial policy log standard deviation (TRPO holds it fixed).
    pub initial_log_std: f64,
    /// The policy step.
    pub rule: UpdateRule,
}

impl OnPolicyConfig {
    /// Vanilla policy gradient's defaults.
    pub const VPG: Self = Self {
        hidden: 64,
        gamma: 0.99,
        lambda: 1.0,
        value_lr: 1e-2,
        rollout_len: 512,
        initial_log_std: -0.7,
        rule: UpdateRule::Vpg {
            policy_lr: 3e-3,
            value_epochs: 10,
        },
    };

    /// PPO's defaults.
    pub const PPO: Self = Self {
        lambda: 0.95,
        rule: UpdateRule::Ppo {
            clip: 0.2,
            policy_lr: 3e-4,
            epochs: 8,
            minibatch: 64,
            entropy_coef: 1e-3,
        },
        ..Self::VPG
    };

    /// TRPO's defaults.
    pub const TRPO: Self = Self {
        lambda: 0.95,
        rule: UpdateRule::Trpo {
            max_kl: 0.01,
            cg_iters: 10,
            cg_damping: 0.1,
            backtrack_coef: 0.8,
            backtrack_iters: 10,
            value_epochs: 10,
        },
        ..Self::VPG
    };
}

/// Diagnostics from one [`OnPolicy::update`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OnPolicyUpdate {
    /// Mean per-step reward in the rollout.
    pub mean_reward: f64,
    /// Final value-regression loss.
    pub value_loss: f64,
    /// PPO: fraction of samples whose ratio hit the clip boundary in the
    /// final epoch (0 under the other rules).
    pub clip_fraction: f64,
    /// TRPO: mean KL divergence of the accepted step (0 if the step was
    /// rejected, and under the other rules).
    pub kl: f64,
    /// Whether the policy moved: TRPO's line search may reject its step,
    /// VPG and PPO always take theirs.
    pub accepted: bool,
}

/// A Gaussian actor-critic trained on-policy by VPG, PPO or TRPO.
#[derive(Debug, Clone)]
pub struct OnPolicy {
    policy: GaussianPolicy,
    /// The mean network's optimiser; TRPO steps without one.
    policy_opt: Option<Adam>,
    value: ValueNet,
    config: OnPolicyConfig,
    /// The mean network's forward/backward pass over a rollout (VPG), a
    /// minibatch (PPO), or at `θ_old` (TRPO: one forward per update,
    /// backpropagated for the gradient and again for every Fisher-vector
    /// product).
    scratch: TrainScratch,
}

impl OnPolicy {
    /// Creates a learner for the given dimensions.
    pub fn new(
        state_dim: usize,
        action_dim: usize,
        config: OnPolicyConfig,
        rng: &mut StdRng,
    ) -> Self {
        let mean = Mlp::new(
            &[state_dim, config.hidden, config.hidden, action_dim],
            Activation::leaky_default(),
            Activation::Sigmoid,
            rng,
        );
        let policy = GaussianPolicy::new(mean, config.initial_log_std);
        let policy_opt = match config.rule {
            UpdateRule::Vpg { policy_lr, .. } | UpdateRule::Ppo { policy_lr, .. } => {
                Some(Adam::new(policy.mean_net(), policy_lr))
            }
            UpdateRule::Trpo { .. } => None,
        };
        let value = ValueNet::new(state_dim, config.hidden, config.value_lr, rng);
        Self {
            policy,
            policy_opt,
            value,
            config,
            scratch: TrainScratch::new(),
        }
    }

    /// The hyper-parameters this learner was built with.
    pub fn config(&self) -> &OnPolicyConfig {
        &self.config
    }

    /// The stochastic policy; its mean (the sigmoid head keeps it in the
    /// unit box) is the greedy action.
    pub fn gaussian_policy(&self) -> &GaussianPolicy {
        &self.policy
    }

    /// Collects one rollout, takes the rule's policy step and refits the
    /// value baseline.
    pub fn update<E: Environment + ?Sized>(
        &mut self,
        env: &mut E,
        rng: &mut StdRng,
    ) -> OnPolicyUpdate {
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

        let (mut clip_fraction, mut kl, mut accepted) = (0.0, 0.0, true);
        let value_epochs = match self.config.rule {
            UpdateRule::Vpg {
                policy_lr,
                value_epochs,
            } => {
                self.vpg_step(&rollout, &adv, policy_lr);
                value_epochs
            }
            UpdateRule::Ppo { epochs, .. } => {
                clip_fraction = self.ppo_step(&rollout, &adv, rng);
                epochs
            }
            UpdateRule::Trpo { value_epochs, .. } => {
                let step_kl = self.trpo_step(&rollout, &adv);
                accepted = step_kl.is_some();
                kl = step_kl.unwrap_or(0.0);
                value_epochs
            }
        };

        let value_loss = self
            .value
            .fit(&rollout.states, &targets, value_epochs, 64, rng);
        OnPolicyUpdate {
            mean_reward: rollout.rewards.iter().sum::<f64>() / rollout.rewards.len() as f64,
            value_loss,
            clip_fraction,
            kl,
            accepted,
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

    /// VPG's step: one policy-gradient step over the whole rollout.
    fn vpg_step(&mut self, rollout: &Rollout, adv: &[f64], policy_lr: f64) {
        // Policy gradient of -E[log π(a|s) A]: upstream gradient on the
        // mean head is -A_i * ∂logπ/∂μ for each sample.
        let s = &mut self.scratch;
        self.policy.mean_net().forward_scratch(&rollout.states, s);
        let dlogp = self.policy.dlogp_dmean(s.output(), &rollout.raw_actions);
        let n = rollout.rewards.len() as f64;
        let d_mean = Matrix::from_fn(dlogp.rows(), dlogp.cols(), |i, j| {
            -adv[i] * f64::from(dlogp[(i, j)]) / n
        });
        self.policy.mean_net().backward_scratch(s, &d_mean);
        s.grads_mut().clip_global_norm(5.0);
        self.policy_opt
            .as_mut()
            .expect("VPG owns an Adam state")
            .step(self.policy.mean_net_mut(), s.grads());

        // log-std gradient (ascend E[logπ A]), at the pre-step means.
        let dls = self.policy.dlogp_dlogstd(s.output(), &rollout.raw_actions);
        for j in 0..self.policy.action_dim() {
            let mut g = 0.0;
            for i in 0..dls.rows() {
                g += -adv[i] * f64::from(dls[(i, j)]) / n;
            }
            let ls = &mut self.policy.log_std_mut()[j];
            *ls = (*ls - policy_lr * g).clamp(-3.0, 1.0);
        }
    }

    /// PPO's step: `epochs` shuffled passes of minibatch steps on the
    /// clipped surrogate. Returns the final epoch's clip fraction.
    fn ppo_step(&mut self, rollout: &Rollout, adv: &[f64], rng: &mut StdRng) -> f64 {
        let UpdateRule::Ppo {
            clip,
            policy_lr,
            epochs,
            minibatch,
            entropy_coef,
        } = self.config.rule
        else {
            unreachable!("PPO step under {:?}", self.config.rule)
        };
        let n = rollout.rewards.len();
        let mut indices: Vec<usize> = (0..n).collect();
        let mut clip_fraction = 0.0;
        for _ in 0..epochs {
            indices.shuffle(rng);
            let mut clipped = 0usize;
            for chunk in indices.chunks(minibatch.max(1)) {
                let states = rollout.states.select_rows(chunk);
                let raws = rollout.raw_actions.select_rows(chunk);
                let s = &mut self.scratch;
                self.policy.mean_net().forward_scratch(&states, s);
                let new_lp = self.policy.log_prob_batch(s.output(), &raws);
                let dlogp = self.policy.dlogp_dmean(s.output(), &raws);
                let m = chunk.len() as f64;

                // For sample i the objective is min(r A, clip(r) A); its
                // gradient is r A ∂logπ/∂μ when the unclipped branch is
                // active, else 0. `None` marks a clipped sample.
                let ratios: Vec<Option<f64>> = chunk
                    .iter()
                    .zip(&new_lp)
                    .map(|(&i, &lp_new)| {
                        let ratio = (lp_new - rollout.log_probs[i]).exp();
                        let active = if adv[i] >= 0.0 {
                            ratio <= 1.0 + clip
                        } else {
                            ratio >= 1.0 - clip
                        };
                        active.then_some(ratio)
                    })
                    .collect();
                clipped += ratios.iter().filter(|r| r.is_none()).count();

                // Minimize the negative surrogate.
                let mut d_mean = Matrix::zeros(dlogp.rows(), dlogp.cols());
                for (row, (&i, ratio)) in chunk.iter().zip(&ratios).enumerate() {
                    if let Some(ratio) = ratio {
                        for j in 0..dlogp.cols() {
                            let d = -ratio * adv[i] * f64::from(dlogp[(row, j)]) / m;
                            d_mean[(row, j)] = d as f32;
                        }
                    }
                }
                self.policy.mean_net().backward_scratch(s, &d_mean);
                s.grads_mut().clip_global_norm(5.0);
                self.policy_opt
                    .as_mut()
                    .expect("PPO owns an Adam state")
                    .step(self.policy.mean_net_mut(), s.grads());

                // log-std update: surrogate + entropy bonus, at the pre-step
                // means.
                let dls = self.policy.dlogp_dlogstd(s.output(), &raws);
                for j in 0..self.policy.action_dim() {
                    let mut g = 0.0;
                    for (row, (&i, ratio)) in chunk.iter().zip(&ratios).enumerate() {
                        if let Some(ratio) = ratio {
                            g += -ratio * adv[i] * f64::from(dls[(row, j)]) / m;
                        }
                    }
                    // Entropy bonus gradient: ∂H/∂logσ = 1.
                    g -= entropy_coef;
                    let ls = &mut self.policy.log_std_mut()[j];
                    *ls = (*ls - policy_lr * g).clamp(-3.0, 1.0);
                }
            }
            clip_fraction = clipped as f64 / n as f64;
        }
        clip_fraction
    }

    /// TRPO's step: the natural-gradient direction, scaled to the trust
    /// region and backtracked until the surrogate improves within it.
    /// Returns the accepted step's mean KL, or `None` when no step was
    /// taken.
    fn trpo_step(&mut self, rollout: &Rollout, adv: &[f64]) -> Option<f64> {
        let UpdateRule::Trpo {
            max_kl,
            cg_iters,
            cg_damping,
            backtrack_coef,
            backtrack_iters,
            ..
        } = self.config.rule
        else {
            unreachable!("TRPO step under {:?}", self.config.rule)
        };
        let n = rollout.rewards.len();

        // Policy gradient g = ∇_θ mean(logπ · A) at θ_old.
        let mean_net = self.policy.mean_net();
        let scratch = &mut self.scratch;
        mean_net.forward_scratch(&rollout.states, scratch);
        let dlogp = self
            .policy
            .dlogp_dmean(scratch.output(), &rollout.raw_actions);
        let d_mean = Matrix::from_fn(dlogp.rows(), dlogp.cols(), |i, j| {
            adv[i] * f64::from(dlogp[(i, j)]) / n as f64
        });
        mean_net.backward_scratch(scratch, &d_mean);
        // The conjugate-gradient solve runs in f64 over the widened f32
        // parameters and gradients; candidates are narrowed back.
        let g = widen(&mean_net.flat_grads(scratch.grads()));

        // Fisher-vector product via JVP (forward difference) + VJP
        // (backprop through the θ_old pass still in `scratch`):
        // F v = (1/n) Jᵀ diag(1/σ²) J v + damping v.
        let theta = widen(&mean_net.flat_params());
        let sigma_inv2: Vec<f64> = self
            .policy
            .log_std()
            .iter()
            .map(|ls| (-2.0 * ls).exp())
            .collect();
        let mut fvp = |v: &[f64]| -> Vec<f64> {
            // A step of 1e-3 in parameter space: the f32 network's rounding
            // (≈ 1e-7 relative) would swamp the difference at a smaller one.
            let eps = 1e-3 / v.iter().map(|x| x * x).sum::<f64>().sqrt().max(1e-12);
            let mut net = mean_net.clone();
            let perturbed: Vec<f32> = theta
                .iter()
                .zip(v)
                .map(|(t, vi)| (t + eps * vi) as f32)
                .collect();
            net.set_flat_params(&perturbed);
            let mu_eps = net.forward(&rollout.states);
            // Jv, weighted by 1/σ² and 1/n.
            let means = scratch.output();
            let weighted = Matrix::from_fn(n, means.cols(), |i, j| {
                let d = f64::from(mu_eps[(i, j)]) - f64::from(means[(i, j)]);
                d / eps * sigma_inv2[j] / n as f64
            });
            mean_net.backward_scratch(scratch, &weighted);
            let mut out = widen(&mean_net.flat_grads(scratch.grads()));
            for (o, vi) in out.iter_mut().zip(v) {
                *o += cg_damping * vi;
            }
            out
        };

        let s = conjugate_gradient(&mut fvp, &g, cg_iters, 1e-10);
        let s_fs: f64 = s.iter().zip(fvp(&s)).map(|(a, b)| a * b).sum();
        if s_fs <= 1e-12 || !s_fs.is_finite() {
            // Degenerate direction: skip the policy step (the value
            // baseline still learns).
            return None;
        }
        let beta = (2.0 * max_kl / s_fs).sqrt();

        let old_surrogate = surrogate(&self.policy, rollout, adv);
        let old_policy = self.policy.clone();
        let mut alpha = 1.0;
        for _ in 0..backtrack_iters {
            let candidate: Vec<f32> = theta
                .iter()
                .zip(&s)
                .map(|(t, si)| (t + alpha * beta * si) as f32)
                .collect();
            self.policy.mean_net_mut().set_flat_params(&candidate);
            let new_surrogate = surrogate(&self.policy, rollout, adv);
            let step_kl = self.policy.mean_kl_from(&old_policy, &rollout.states);
            if new_surrogate > old_surrogate && step_kl <= 1.5 * max_kl {
                return Some(step_kl);
            }
            alpha *= backtrack_coef;
        }
        self.policy = old_policy;
        None
    }
}

/// `values` widened to `f64`, exactly.
fn widen(values: &[f32]) -> Vec<f64> {
    values.iter().map(|&v| f64::from(v)).collect()
}

/// Surrogate objective `mean(exp(logπ_new − logπ_old) · A)` of `policy` on
/// the rollout that `rollout.log_probs` were sampled in.
fn surrogate(policy: &GaussianPolicy, rollout: &Rollout, adv: &[f64]) -> f64 {
    let means = policy.mean_net().forward(&rollout.states);
    let new_lp = policy.log_prob_batch(&means, &rollout.raw_actions);
    new_lp
        .iter()
        .zip(&rollout.log_probs)
        .zip(adv)
        .map(|((&n, &o), &a)| (n - o).exp() * a)
        .sum::<f64>()
        / adv.len().max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::test_env::TrackingEnv;
    use crate::evaluate;
    use rand::SeedableRng;

    /// Trains `config` for `iterations` updates on the tracking task and
    /// returns the greedy policy's score before and after.
    fn tracking_scores(config: OnPolicyConfig, seed: u64, iterations: usize) -> (f64, f64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut env = TrackingEnv::new(20);
        let mut agent = OnPolicy::new(1, 1, config, &mut rng);
        let score = |agent: &OnPolicy, env: &mut TrackingEnv, rng: &mut StdRng| {
            let policy = agent.gaussian_policy();
            evaluate(env, |s| policy.act_deterministic(s), 10, 20, rng)
        };
        let before = score(&agent, &mut env, &mut rng);
        agent.train(&mut env, iterations, &mut rng);
        (before, score(&agent, &mut env, &mut rng))
    }

    #[test]
    fn vpg_improves_on_tracking_task() {
        let cfg = OnPolicyConfig {
            hidden: 16,
            rollout_len: 256,
            ..OnPolicyConfig::VPG
        };
        let (before, after) = tracking_scores(cfg, 4, 30);
        assert!(
            after > before,
            "VPG failed to improve: {before:.2} -> {after:.2}"
        );
        assert!(after > 18.0, "VPG final score too low: {after:.2}");
    }

    #[test]
    fn ppo_improves_on_tracking_task() {
        let cfg = OnPolicyConfig {
            hidden: 16,
            rollout_len: 256,
            rule: UpdateRule::Ppo {
                clip: 0.2,
                policy_lr: 1e-3,
                epochs: 8,
                minibatch: 64,
                entropy_coef: 1e-3,
            },
            ..OnPolicyConfig::PPO
        };
        let (before, after) = tracking_scores(cfg, 1, 25);
        assert!(
            after > before,
            "PPO failed to improve: {before:.2} -> {after:.2}"
        );
        assert!(after > 18.0, "PPO final score too low: {after:.2}");
    }

    #[test]
    fn trpo_improves_on_tracking_task() {
        let cfg = OnPolicyConfig {
            hidden: 16,
            rollout_len: 256,
            ..OnPolicyConfig::TRPO
        };
        let (before, after) = tracking_scores(cfg, 12, 25);
        assert!(
            after > before,
            "TRPO failed to improve: {before:.2} -> {after:.2}"
        );
        assert!(after > 17.5, "TRPO final score too low: {after:.2}");
    }

    #[test]
    fn greedy_actions_stay_in_the_unit_box() {
        let mut rng = StdRng::seed_from_u64(5);
        for config in [
            OnPolicyConfig::VPG,
            OnPolicyConfig::PPO,
            OnPolicyConfig::TRPO,
        ] {
            let agent = OnPolicy::new(2, 2, config, &mut rng);
            let a = agent.gaussian_policy().act_deterministic(&[100.0, -100.0]);
            assert!(a.iter().all(|&v| (0.0..=1.0).contains(&v)), "{a:?}");
        }
    }

    #[test]
    fn only_the_gradient_rules_own_an_optimiser() {
        let mut rng = StdRng::seed_from_u64(7);
        for (config, technique) in [
            (OnPolicyConfig::VPG, Technique::Vpg),
            (OnPolicyConfig::PPO, Technique::Ppo),
            (OnPolicyConfig::TRPO, Technique::Trpo),
        ] {
            let agent = OnPolicy::new(1, 1, config, &mut rng);
            assert_eq!(Technique::from(agent.config().rule), technique);
            assert_eq!(
                agent.policy_opt.is_some(),
                technique != Technique::Trpo,
                "{technique}"
            );
        }
    }

    #[test]
    fn vpg_update_reports_finite_diagnostics() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut env = TrackingEnv::new(10);
        let cfg = OnPolicyConfig {
            hidden: 8,
            rollout_len: 64,
            ..OnPolicyConfig::VPG
        };
        let mut agent = OnPolicy::new(1, 1, cfg, &mut rng);
        let u = agent.update(&mut env, &mut rng);
        assert!(u.mean_reward.is_finite());
        assert!(u.value_loss.is_finite());
        assert!(u.accepted);
    }

    #[test]
    fn ppo_clip_fraction_is_a_fraction() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut env = TrackingEnv::new(10);
        let cfg = OnPolicyConfig {
            hidden: 8,
            rollout_len: 64,
            rule: UpdateRule::Ppo {
                clip: 0.2,
                policy_lr: 3e-4,
                epochs: 4,
                minibatch: 64,
                entropy_coef: 1e-3,
            },
            ..OnPolicyConfig::PPO
        };
        let mut agent = OnPolicy::new(1, 1, cfg, &mut rng);
        let u = agent.update(&mut env, &mut rng);
        assert!((0.0..=1.0).contains(&u.clip_fraction));
        assert!(u.value_loss.is_finite());
    }

    #[test]
    fn trpo_accepted_steps_respect_kl_bound() {
        let mut rng = StdRng::seed_from_u64(13);
        let mut env = TrackingEnv::new(10);
        let cfg = OnPolicyConfig {
            hidden: 8,
            rollout_len: 128,
            ..OnPolicyConfig::TRPO
        };
        let mut agent = OnPolicy::new(1, 1, cfg, &mut rng);
        let mut accepted = 0;
        for _ in 0..5 {
            let u = agent.update(&mut env, &mut rng);
            if u.accepted {
                accepted += 1;
                assert!(
                    u.kl > 0.0 && u.kl <= 1.5 * 0.01 + 1e-9,
                    "KL {} over bound",
                    u.kl
                );
            } else {
                assert_eq!(u.kl, 0.0);
            }
        }
        assert!(accepted > 0, "no TRPO step was accepted");
    }
}
