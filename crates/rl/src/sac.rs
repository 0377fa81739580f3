//! Soft actor-critic (Haarnoja et al. 2018) — a comparator training
//! technique in Fig. 10b.
//!
//! SAC learns a stochastic squashed-Gaussian policy by maximum-entropy RL
//! with twin critics. Because EdgeSlice actions live in `[0, 1]` (sigmoid
//! actor output, Sec. VI-A), the squashing function here is the logistic
//! sigmoid rather than the conventional tanh; the change-of-variables
//! correction uses `log σ'(u) = log a(1−a)` accordingly.
//!
//! The sampled actions and their noise are `f32` tensors, like the
//! networks; log-probabilities, targets' scalar terms, losses and the head
//! gradients are computed in `f64` from widened values and narrowed once.

use edgeslice_nn::{mse_loss_into, Activation, Adam, Matrix, Mlp, TrainScratch};
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::noise::sample_standard_normal;
use crate::replay::Batch;
use crate::{Environment, ReplayBuffer, Transition};

const LOG_STD_MIN: f64 = -5.0;
const LOG_STD_MAX: f64 = 2.0;
const LOG_2PI: f64 = 1.837_877_066_409_345_5;

/// Hyper-parameters for [`Sac`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SacConfig {
    /// Hidden width of actor and critics.
    pub hidden: usize,
    /// Discount factor γ.
    pub gamma: f64,
    /// Polyak factor τ for the critic targets.
    pub tau: f64,
    /// Learning rate for actor and critics.
    pub lr: f64,
    /// Entropy temperature α.
    pub alpha: f64,
    /// Minibatch size.
    pub batch_size: usize,
    /// Replay capacity.
    pub replay_capacity: usize,
    /// Steps of uniform-random action collection before updates.
    pub warmup: usize,
}

impl Default for SacConfig {
    fn default() -> Self {
        Self {
            hidden: 64,
            gamma: 0.99,
            tau: 0.005,
            lr: 1e-3,
            alpha: 0.1,
            batch_size: 128,
            replay_capacity: 100_000,
            warmup: 500,
        }
    }
}

/// Diagnostics from one SAC update.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SacUpdate {
    /// Mean twin-critic MSBE loss.
    pub critic_loss: f64,
    /// Actor loss `E[α log π − min Q]`.
    pub actor_loss: f64,
    /// Mean entropy `−E[log π]` of the current policy on the batch.
    pub entropy: f64,
}

/// A soft actor-critic learner.
#[derive(Debug, Clone)]
pub struct Sac {
    actor: Mlp,
    q1: Mlp,
    q2: Mlp,
    q1_target: Mlp,
    q2_target: Mlp,
    actor_opt: Adam,
    q1_opt: Adam,
    q2_opt: Adam,
    replay: ReplayBuffer,
    config: SacConfig,
    action_dim: usize,
    scratch: SacScratch,
}

/// Reusable buffers for one [`Sac::update`]: the sampled batch, the
/// training passes and the stacked critic inputs. Each phase of the update
/// consumes its passes' outputs before the next phase overwrites them, so
/// one actor pass and one pass per twin critic serve all three phases.
#[derive(Debug, Clone, Default)]
struct SacScratch {
    batch: Batch,
    /// Actor forward: at `s'` for the target's next actions, then at `s`
    /// (with its backward) for the policy objective.
    actor: TrainScratch,
    /// Per twin critic: the target forward at `(s', a')`, then the TD
    /// forward/backward at `(s, a)`, then the input-gradient pass at
    /// `(s, a~π)`.
    critics: [TrainScratch; 2],
    next_sa: Matrix,
    /// `(s, a)` for the TD step, then `(s, a~π)` for the policy objective.
    sa: Matrix,
    targets: Matrix,
    d_pred: Matrix,
    /// `∂(−min Q)/∂Q_k` per twin.
    d_q: [Matrix; 2],
    d_head: Matrix,
}

/// A batch of squashed-Gaussian samples with everything needed for the
/// reparameterized gradient.
struct PolicySample {
    /// Squashed actions `a = σ(u)`, `n × ad`.
    actions: Matrix,
    /// The standard-normal noise `ε` used, `n × ad`.
    eps: Matrix,
    /// Clamped log standard deviations, `n × ad`.
    log_std: Matrix,
    /// Per-sample log-probabilities, in `f64`.
    log_prob: Vec<f64>,
    /// Mask: 1.0 where the raw log-std head was inside the clamp range.
    std_grad_mask: Matrix,
}

impl Sac {
    /// Creates a learner for the given dimensions.
    pub fn new(state_dim: usize, action_dim: usize, config: SacConfig, rng: &mut StdRng) -> Self {
        let h = config.hidden;
        // Actor emits [μ | log σ_raw] per action dimension.
        let actor = Mlp::new(
            &[state_dim, h, h, 2 * action_dim],
            Activation::leaky_default(),
            Activation::Identity,
            rng,
        );
        let make_q = |rng: &mut StdRng| {
            Mlp::new(
                &[state_dim + action_dim, h, h, 1],
                Activation::leaky_default(),
                Activation::Identity,
                rng,
            )
        };
        let q1 = make_q(rng);
        let q2 = make_q(rng);
        let q1_target = q1.clone();
        let q2_target = q2.clone();
        let actor_opt = Adam::new(&actor, config.lr);
        let q1_opt = Adam::new(&q1, config.lr);
        let q2_opt = Adam::new(&q2, config.lr);
        let replay = ReplayBuffer::new(config.replay_capacity, state_dim, action_dim);
        Self {
            actor,
            q1,
            q2,
            q1_target,
            q2_target,
            actor_opt,
            q1_opt,
            q2_opt,
            replay,
            config,
            action_dim,
            scratch: SacScratch::default(),
        }
    }

    /// Splits actor head output into `(mean, clamped log-std, mask)`.
    fn split_heads(&self, head: &Matrix) -> (Matrix, Matrix, Matrix) {
        let n = head.rows();
        let ad = self.action_dim;
        let mean = Matrix::from_fn(n, ad, |i, j| f64::from(head[(i, j)]));
        let log_std = Matrix::from_fn(n, ad, |i, j| {
            f64::from(head[(i, ad + j)]).clamp(LOG_STD_MIN, LOG_STD_MAX)
        });
        let mask = Matrix::from_fn(n, ad, |i, j| {
            let raw = f64::from(head[(i, ad + j)]);
            if (LOG_STD_MIN..=LOG_STD_MAX).contains(&raw) {
                1.0
            } else {
                0.0
            }
        });
        (mean, log_std, mask)
    }

    /// Samples reparameterized actions for a batch of states given the
    /// forwarded actor heads.
    fn sample_from_heads(&self, head: &Matrix, rng: &mut StdRng) -> PolicySample {
        let (mean, log_std, mask) = self.split_heads(head);
        let n = mean.rows();
        let ad = self.action_dim;
        let mut eps = Matrix::zeros(n, ad);
        let mut actions = Matrix::zeros(n, ad);
        let mut log_prob = vec![0.0; n];
        for i in 0..n {
            for j in 0..ad {
                let e = sample_standard_normal(rng) as f32;
                let ls = log_std[(i, j)];
                let a = edgeslice_nn::sigmoid(mean[(i, j)] + ls.exp() * e);
                eps[(i, j)] = e;
                actions[(i, j)] = a;
                // log N(u; μ, σ) − log |da/du|
                let (e, ls, a) = (f64::from(e), f64::from(ls), f64::from(a));
                log_prob[i] += -0.5 * e * e - ls - 0.5 * LOG_2PI - (a * (1.0 - a)).max(1e-12).ln();
            }
        }
        PolicySample {
            actions,
            eps,
            log_std,
            log_prob,
            std_grad_mask: mask,
        }
    }

    /// The actor network (emits `[μ | log σ_raw]`; see
    /// [`Sac::policy`] for how actions derive from it).
    pub fn actor(&self) -> &Mlp {
        &self.actor
    }

    /// The greedy policy: squashed mean action.
    pub fn policy(&self, state: &[f64]) -> Vec<f64> {
        let head = self.actor.forward_one(state);
        (0..self.action_dim)
            .map(|j| f64::from(edgeslice_nn::sigmoid(head[j] as f32)))
            .collect()
    }

    /// A stochastic action for exploration.
    pub fn explore(&self, state: &[f64], rng: &mut StdRng) -> Vec<f64> {
        let head = self
            .actor
            .forward(&Matrix::from_fn(1, state.len(), |_, j| state[j]));
        let sample = self.sample_from_heads(&head, rng);
        sample
            .actions
            .row(0)
            .iter()
            .map(|&a| f64::from(a))
            .collect()
    }

    /// Stores a transition.
    pub fn observe(&mut self, transition: &Transition) {
        self.replay.push(transition);
    }

    /// Runs one twin-critic + actor update with soft target tracking.
    ///
    /// Returns `None` (leaving every network untouched) until a full batch
    /// is available.
    pub fn update(&mut self, rng: &mut StdRng) -> Option<SacUpdate> {
        // Move the scratch out so its buffers and `self`'s networks can be
        // borrowed independently; moving is allocation-free.
        let mut s = std::mem::take(&mut self.scratch);
        let result = self.update_with(&mut s, rng);
        self.scratch = s;
        result
    }

    fn update_with(&mut self, s: &mut SacScratch, rng: &mut StdRng) -> Option<SacUpdate> {
        if self
            .replay
            .sample_into(self.config.batch_size, rng, &mut s.batch)
            .is_err()
        {
            return None;
        }
        let n = s.batch.rewards.len();
        let alpha = self.config.alpha;

        // ---- Critic targets: y = r + γ (min Q'(s',a') − α log π(a'|s')).
        self.actor
            .forward_scratch(&s.batch.next_states, &mut s.actor);
        let next_sample = self.sample_from_heads(s.actor.output(), rng);
        Matrix::hstack_into(
            &[&s.batch.next_states, &next_sample.actions],
            &mut s.next_sa,
        );
        let [c1, c2] = &mut s.critics;
        self.q1_target.forward_scratch(&s.next_sa, c1);
        self.q2_target.forward_scratch(&s.next_sa, c2);
        s.targets.resize_for(n, 1);
        for i in 0..n {
            let minq = f64::from(c1.output()[(i, 0)].min(c2.output()[(i, 0)]));
            let soft = minq - alpha * next_sample.log_prob[i];
            let bootstrap = if s.batch.dones[i] {
                0.0
            } else {
                self.config.gamma * soft
            };
            s.targets[(i, 0)] = (f64::from(s.batch.rewards[i]) + bootstrap) as f32;
        }

        Matrix::hstack_into(&[&s.batch.states, &s.batch.actions], &mut s.sa);
        let mut critic_loss = 0.0;
        let twins = [
            (&mut self.q1, &mut self.q1_opt),
            (&mut self.q2, &mut self.q2_opt),
        ];
        for ((q, opt), cs) in twins.into_iter().zip(&mut s.critics) {
            q.forward_scratch(&s.sa, cs);
            let loss = mse_loss_into(cs.output(), &s.targets, &mut s.d_pred);
            q.backward_scratch(cs, &s.d_pred);
            cs.grads_mut().clip_global_norm(10.0);
            opt.step(q, cs.grads());
            critic_loss += 0.5 * loss;
        }

        // ---- Actor: minimize E[α log π(a|s) − min Q(s, a)] (reparameterized).
        self.actor.forward_scratch(&s.batch.states, &mut s.actor);
        let sample = self.sample_from_heads(s.actor.output(), rng);
        Matrix::hstack_into(&[&s.batch.states, &sample.actions], &mut s.sa);
        let [c1, c2] = &mut s.critics;
        self.q1.forward_scratch(&s.sa, c1);
        self.q2.forward_scratch(&s.sa, c2);
        let mut actor_loss = 0.0;
        // Per-row masks selecting the minimum critic.
        let [d1, d2] = &mut s.d_q;
        for d in [&mut *d1, &mut *d2] {
            d.resize_for(n, 1);
            d.fill(0.0);
        }
        for i in 0..n {
            let (v1, v2) = (c1.output()[(i, 0)], c2.output()[(i, 0)]);
            actor_loss += (alpha * sample.log_prob[i] - f64::from(v1.min(v2))) / n as f64;
            // d(−Qmin)/dQk = −1/n on the selected critic.
            if v1 <= v2 {
                d1[(i, 0)] = (-1.0 / n as f64) as f32;
            } else {
                d2[(i, 0)] = (-1.0 / n as f64) as f32;
            }
        }
        // Only ∇_a Q is needed: the critics' parameter gradients would be
        // discarded, so they are never computed.
        self.q1.backward_input_scratch(c1, d1);
        self.q2.backward_input_scratch(c2, d2);
        let (din1, din2) = (c1.d_input(), c2.d_input());
        let sd = s.batch.states.cols();
        let ad = self.action_dim;

        // Assemble head gradients.
        s.d_head.resize_for(n, 2 * ad);
        for i in 0..n {
            for j in 0..ad {
                // ∂L/∂a from the −Qmin path (already includes the 1/n factor).
                let dl_da = f64::from(din1[(i, sd + j)]) + f64::from(din2[(i, sd + j)]);
                let a = f64::from(sample.actions[(i, j)]);
                let da_du = (a * (1.0 - a)).max(1e-12);
                // ∂L/∂u = (∂L/∂a)·σ'(u) + (α/n)·∂(−log σ'(u))/∂u.
                let dl_du = dl_da * da_du + alpha / n as f64 * -(1.0 - 2.0 * a);
                s.d_head[(i, j)] = dl_du as f32; // μ head
                let sigma = f64::from(sample.log_std[(i, j)]).exp();
                // log-σ head: via u = μ + σ ε, plus the −log σ term of log π.
                let dls = dl_du * sigma * f64::from(sample.eps[(i, j)]) - alpha / n as f64;
                s.d_head[(i, ad + j)] = (dls * f64::from(sample.std_grad_mask[(i, j)])) as f32;
            }
        }
        self.actor.backward_scratch(&mut s.actor, &s.d_head);
        s.actor.grads_mut().clip_global_norm(10.0);
        self.actor_opt.step(&mut self.actor, s.actor.grads());

        // ---- Soft target updates.
        self.q1_target.soft_update_from(&self.q1, self.config.tau);
        self.q2_target.soft_update_from(&self.q2, self.config.tau);

        let entropy = -sample.log_prob.iter().sum::<f64>() / n as f64;
        Some(SacUpdate {
            critic_loss,
            actor_loss,
            entropy,
        })
    }

    /// Convenience training loop mirroring [`crate::Ddpg::train`].
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
    use crate::env::test_env::TrackingEnv;
    use crate::evaluate;
    use rand::SeedableRng;

    fn small_config() -> SacConfig {
        SacConfig {
            hidden: 16,
            batch_size: 32,
            replay_capacity: 5_000,
            warmup: 100,
            ..Default::default()
        }
    }

    #[test]
    fn learns_to_track_the_target() {
        let mut rng = StdRng::seed_from_u64(21);
        let mut env = TrackingEnv::new(20);
        let mut agent = Sac::new(1, 1, small_config(), &mut rng);
        let before = evaluate(&mut env, |s| agent.policy(s), 10, 20, &mut rng);
        agent.train(&mut env, 2_500, &mut rng);
        let after = evaluate(&mut env, |s| agent.policy(s), 10, 20, &mut rng);
        assert!(
            after > before && after > 18.5,
            "SAC failed to learn: before={before:.2} after={after:.2}"
        );
    }

    #[test]
    fn actions_live_in_unit_box() {
        let mut rng = StdRng::seed_from_u64(22);
        let agent = Sac::new(2, 3, small_config(), &mut rng);
        for _ in 0..20 {
            let s: Vec<f64> = (0..2).map(|_| rng.gen_range(-10.0..10.0)).collect();
            let a = agent.policy(&s);
            assert!(a.iter().all(|&v| (0.0..=1.0).contains(&v)));
            let e = agent.explore(&s, &mut rng);
            assert!(e.iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }

    #[test]
    fn update_diagnostics_are_finite() {
        let mut rng = StdRng::seed_from_u64(23);
        let mut env = TrackingEnv::new(10);
        let mut agent = Sac::new(1, 1, small_config(), &mut rng);
        agent.train(&mut env, 200, &mut rng);
        let u = agent.update(&mut rng).unwrap();
        assert!(u.critic_loss.is_finite());
        assert!(u.actor_loss.is_finite());
        assert!(u.entropy.is_finite());
    }
}
