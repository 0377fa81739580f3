//! The on-policy learner's machinery: the diagonal-Gaussian policy,
//! rollout collection and generalized advantage estimation.

use edgeslice_nn::{Matrix, Mlp};
use rand::rngs::StdRng;

use crate::noise::sample_standard_normal;
use crate::{Environment, Step};

const LOG_2PI: f64 = 1.837_877_066_409_345_5;

/// A diagonal-Gaussian policy: the mean comes from an [`Mlp`] ending in a
/// sigmoid (so it lands in the normalized action box), and the per-dimension
/// log standard deviation is a free, state-independent parameter vector —
/// the standard parameterization for continuous-control policy-gradient
/// methods.
#[derive(Debug, Clone)]
pub struct GaussianPolicy {
    mean: Mlp,
    log_std: Vec<f64>,
}

impl GaussianPolicy {
    /// Wraps a mean network; initial `σ = exp(initial_log_std)` per
    /// dimension.
    ///
    /// # Panics
    ///
    /// Panics if the network output width is zero.
    pub(crate) fn new(mean: Mlp, initial_log_std: f64) -> Self {
        let dim = mean.out_dim();
        assert!(dim > 0, "policy needs at least one action dimension");
        Self {
            mean,
            log_std: vec![initial_log_std; dim],
        }
    }

    /// The mean network.
    pub fn mean_net(&self) -> &Mlp {
        &self.mean
    }

    /// Mutable access to the mean network.
    pub(crate) fn mean_net_mut(&mut self) -> &mut Mlp {
        &mut self.mean
    }

    /// Per-dimension log standard deviations.
    pub fn log_std(&self) -> &[f64] {
        &self.log_std
    }

    /// Mutable access to the log standard deviations.
    pub(crate) fn log_std_mut(&mut self) -> &mut [f64] {
        &mut self.log_std
    }

    /// Action dimensionality.
    pub(crate) fn action_dim(&self) -> usize {
        self.log_std.len()
    }

    /// Deterministic (mean) action for evaluation.
    pub fn act_deterministic(&self, state: &[f64]) -> Vec<f64> {
        self.mean.forward_one(state)
    }

    /// Samples a raw (unclamped) action and its log-probability.
    ///
    /// The raw action is what gradients are computed against; callers clamp
    /// a copy into `[0, 1]` before handing it to the environment.
    pub(crate) fn sample(&self, state: &[f64], rng: &mut StdRng) -> (Vec<f64>, f64) {
        let mean = self.mean.forward_one(state);
        let mut raw = Vec::with_capacity(mean.len());
        for (m, ls) in mean.iter().zip(&self.log_std) {
            raw.push(m + ls.exp() * sample_standard_normal(rng));
        }
        let logp = self.log_prob(&mean, &raw);
        (raw, logp)
    }

    /// Log-probability of `raw` under `N(mean, diag(σ²))`.
    pub(crate) fn log_prob(&self, mean: &[f64], raw: &[f64]) -> f64 {
        let mut lp = 0.0;
        for ((m, a), ls) in mean.iter().zip(raw).zip(&self.log_std) {
            let sigma = ls.exp();
            let z = (a - m) / sigma;
            lp += -0.5 * z * z - ls - 0.5 * LOG_2PI;
        }
        lp
    }

    /// Batched log-probabilities given the forwarded means.
    ///
    /// # Panics
    ///
    /// Panics if shapes disagree.
    pub(crate) fn log_prob_batch(&self, means: &Matrix, raws: &Matrix) -> Vec<f64> {
        assert_eq!(means.shape(), raws.shape(), "log_prob_batch shape mismatch");
        (0..means.rows())
            .map(|i| self.log_prob(means.row(i), raws.row(i)))
            .collect()
    }

    /// `∂ log p / ∂ mean` for each sample/dimension: `(a − μ)/σ²`.
    pub(crate) fn dlogp_dmean(&self, means: &Matrix, raws: &Matrix) -> Matrix {
        assert_eq!(means.shape(), raws.shape(), "dlogp shape mismatch");
        Matrix::from_fn(means.rows(), means.cols(), |i, j| {
            let sigma = self.log_std[j].exp();
            (raws[(i, j)] - means[(i, j)]) / (sigma * sigma)
        })
    }

    /// `∂ log p / ∂ log_std_j` for each sample/dimension:
    /// `((a − μ)/σ)² − 1`.
    pub(crate) fn dlogp_dlogstd(&self, means: &Matrix, raws: &Matrix) -> Matrix {
        Matrix::from_fn(means.rows(), means.cols(), |i, j| {
            let sigma = self.log_std[j].exp();
            let z = (raws[(i, j)] - means[(i, j)]) / sigma;
            z * z - 1.0
        })
    }

    /// Mean KL divergence `KL(old ‖ self)` over a batch of states, for two
    /// policies sharing the same `log_std` treatment (used by TRPO's line
    /// search).
    pub(crate) fn mean_kl_from(&self, old: &GaussianPolicy, states: &Matrix) -> f64 {
        let mu_new = self.mean.forward(states);
        let mu_old = old.mean.forward(states);
        let mut total = 0.0;
        for i in 0..states.rows() {
            for j in 0..self.log_std.len() {
                let s_new = self.log_std[j].exp();
                let s_old = old.log_std[j].exp();
                let d = mu_old[(i, j)] - mu_new[(i, j)];
                total += (s_new / s_old).ln().max(-1e9)
                    + (s_old * s_old + d * d) / (2.0 * s_new * s_new)
                    - 0.5;
            }
        }
        total / states.rows().max(1) as f64
    }
}

/// Generalized advantage estimation (Schulman et al.).
///
/// Returns `(advantages, value_targets)` where
/// `A_t = δ_t + γλ A_{t+1}` with `δ_t = r_t + γ V(s_{t+1}) − V(s_t)`, and
/// `value_targets = A + V`.
///
/// `last_value` bootstraps the value of the state following the final
/// transition (ignored when that transition terminated an episode).
pub(crate) fn gae(
    rewards: &[f64],
    values: &[f64],
    dones: &[bool],
    last_value: f64,
    gamma: f64,
    lambda: f64,
) -> (Vec<f64>, Vec<f64>) {
    let n = rewards.len();
    assert_eq!(values.len(), n, "gae values length mismatch");
    assert_eq!(dones.len(), n, "gae dones length mismatch");
    let mut adv = vec![0.0; n];
    let mut next_adv = 0.0;
    let mut next_value = last_value;
    for i in (0..n).rev() {
        let (nv, na) = if dones[i] {
            (0.0, 0.0)
        } else {
            (next_value, next_adv)
        };
        let delta = rewards[i] + gamma * nv - values[i];
        adv[i] = delta + gamma * lambda * na;
        next_adv = adv[i];
        next_value = values[i];
    }
    let targets = adv.iter().zip(values).map(|(a, v)| a + v).collect();
    (adv, targets)
}

/// Normalizes a vector to zero mean and unit standard deviation (no-op for
/// constant input).
pub(crate) fn normalize_advantages(adv: &mut [f64]) {
    if adv.is_empty() {
        return;
    }
    let n = adv.len() as f64;
    let mean = adv.iter().sum::<f64>() / n;
    let var = adv.iter().map(|a| (a - mean) * (a - mean)).sum::<f64>() / n;
    let std = var.sqrt();
    if std < 1e-9 {
        return;
    }
    for a in adv.iter_mut() {
        *a = (*a - mean) / std;
    }
}

/// One on-policy rollout: flat arrays of length `steps`.
#[derive(Debug, Clone)]
pub(crate) struct Rollout {
    /// Visited states, `steps × state_dim`.
    pub states: Matrix,
    /// Raw (pre-clamp) sampled actions, `steps × action_dim`.
    pub raw_actions: Matrix,
    /// Per-step rewards.
    pub rewards: Vec<f64>,
    /// Per-step episode-termination flags.
    pub dones: Vec<bool>,
    /// Log-probabilities of the sampled actions under the behaviour policy.
    pub log_probs: Vec<f64>,
    /// State following the final transition (for bootstrapping).
    pub final_state: Vec<f64>,
}

/// Collects `steps` transitions from `env` under the stochastic `policy`,
/// resetting at episode ends.
pub(crate) fn collect_rollout<E: Environment + ?Sized>(
    env: &mut E,
    policy: &GaussianPolicy,
    steps: usize,
    rng: &mut StdRng,
) -> Rollout {
    let sd = env.state_dim();
    let ad = env.action_dim();
    let mut states = Vec::with_capacity(steps * sd);
    let mut raw_actions = Vec::with_capacity(steps * ad);
    let mut rewards = Vec::with_capacity(steps);
    let mut dones = Vec::with_capacity(steps);
    let mut log_probs = Vec::with_capacity(steps);

    let mut state = env.reset(rng);
    for _ in 0..steps {
        let (raw, logp) = policy.sample(&state, rng);
        let mut clamped = raw.clone();
        for a in &mut clamped {
            *a = a.clamp(0.0, 1.0);
        }
        let Step {
            next_state,
            reward,
            done,
        } = env.step(&clamped, rng);
        states.extend_from_slice(&state);
        raw_actions.extend_from_slice(&raw);
        rewards.push(reward);
        dones.push(done);
        log_probs.push(logp);
        state = if done { env.reset(rng) } else { next_state };
    }
    Rollout {
        states: Matrix::from_vec(steps, sd, states),
        raw_actions: Matrix::from_vec(steps, ad, raw_actions),
        rewards,
        dones,
        log_probs,
        final_state: state,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgeslice_nn::Activation;
    use rand::SeedableRng;

    /// Monte-Carlo reward-to-go `G_t = r_t + γ G_{t+1}`, resetting at
    /// episode boundaries: what GAE must equal at λ = 1.
    fn discounted_returns(rewards: &[f64], dones: &[bool], gamma: f64) -> Vec<f64> {
        assert_eq!(rewards.len(), dones.len(), "returns length mismatch");
        let mut out = vec![0.0; rewards.len()];
        let mut acc = 0.0;
        for i in (0..rewards.len()).rev() {
            if dones[i] {
                acc = 0.0;
            }
            acc = rewards[i] + gamma * acc;
            out[i] = acc;
        }
        out
    }

    fn policy() -> GaussianPolicy {
        let mut rng = StdRng::seed_from_u64(0);
        let net = Mlp::new(
            &[2, 8, 2],
            Activation::leaky_default(),
            Activation::Sigmoid,
            &mut rng,
        );
        GaussianPolicy::new(net, -0.5)
    }

    #[test]
    fn log_prob_peaks_at_mean() {
        let p = policy();
        let mean = vec![0.5, 0.5];
        let at_mean = p.log_prob(&mean, &mean);
        let off = p.log_prob(&mean, &[0.9, 0.1]);
        assert!(at_mean > off);
    }

    #[test]
    fn log_prob_matches_univariate_gaussian_formula() {
        let mut p = policy();
        p.log_std_mut().copy_from_slice(&[0.0, 0.0]); // σ = 1
        let lp = p.log_prob(&[0.0, 0.0], &[1.0, 0.0]);
        // -0.5*1 - 0.5*log(2π) per dim with z=1 and z=0.
        let expected = (-0.5 - 0.5 * LOG_2PI) + (-0.5 * LOG_2PI);
        assert!((lp - expected).abs() < 1e-12);
    }

    #[test]
    fn dlogp_dmean_matches_finite_difference() {
        let p = policy();
        let means = Matrix::from_rows(&[&[0.4, 0.6]]);
        let raws = Matrix::from_rows(&[&[0.7, 0.2]]);
        let grad = p.dlogp_dmean(&means, &raws);
        let eps = 1e-6;
        for j in 0..2 {
            let mut up = means.clone();
            up[(0, j)] += eps;
            let mut dn = means.clone();
            dn[(0, j)] -= eps;
            let fd = (p.log_prob(up.row(0), raws.row(0)) - p.log_prob(dn.row(0), raws.row(0)))
                / (2.0 * eps);
            assert!((fd - grad[(0, j)]).abs() < 1e-5, "dim {j}");
        }
    }

    #[test]
    fn dlogp_dlogstd_matches_finite_difference() {
        let mut p = policy();
        let means = Matrix::from_rows(&[&[0.4, 0.6]]);
        let raws = Matrix::from_rows(&[&[0.9, 0.55]]);
        let grad = p.dlogp_dlogstd(&means, &raws);
        let eps = 1e-6;
        for j in 0..2 {
            let orig = p.log_std()[j];
            p.log_std_mut()[j] = orig + eps;
            let up = p.log_prob(means.row(0), raws.row(0));
            p.log_std_mut()[j] = orig - eps;
            let dn = p.log_prob(means.row(0), raws.row(0));
            p.log_std_mut()[j] = orig;
            let fd = (up - dn) / (2.0 * eps);
            assert!(
                (fd - grad[(0, j)]).abs() < 1e-5,
                "dim {j}: fd={fd} an={}",
                grad[(0, j)]
            );
        }
    }

    #[test]
    fn kl_of_identical_policies_is_zero() {
        let p = policy();
        let states = Matrix::from_rows(&[&[0.1, 0.9], &[0.5, 0.5]]);
        assert!(p.mean_kl_from(&p.clone(), &states).abs() < 1e-12);
    }

    #[test]
    fn kl_grows_with_parameter_distance() {
        let p = policy();
        let mut q = p.clone();
        let mut params = q.mean_net().flat_params();
        for v in &mut params {
            *v += 0.5;
        }
        q.mean_net_mut().set_flat_params(&params);
        let states = Matrix::from_rows(&[&[0.1, 0.9], &[0.5, 0.5]]);
        assert!(q.mean_kl_from(&p, &states) > 1e-4);
    }

    #[test]
    fn discounted_returns_reset_at_done() {
        let r = discounted_returns(&[1.0, 1.0, 1.0, 1.0], &[false, true, false, false], 0.5);
        assert!((r[0] - 1.5).abs() < 1e-12);
        assert!((r[1] - 1.0).abs() < 1e-12);
        assert!((r[2] - 1.5).abs() < 1e-12);
        assert!((r[3] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn gae_with_lambda_one_equals_mc_minus_baseline() {
        let rewards = [1.0, 2.0, 3.0];
        let values = [0.5, 0.5, 0.5];
        let dones = [false, false, true];
        let gamma = 0.9;
        let (adv, targets) = gae(&rewards, &values, &dones, 99.0, gamma, 1.0);
        let mc = discounted_returns(&rewards, &dones, gamma);
        for i in 0..3 {
            assert!((adv[i] - (mc[i] - values[i])).abs() < 1e-9, "t={i}");
            assert!((targets[i] - mc[i]).abs() < 1e-9);
        }
    }

    #[test]
    fn gae_bootstraps_with_last_value_when_truncated() {
        let (adv, _) = gae(&[0.0], &[0.0], &[false], 10.0, 0.5, 1.0);
        assert!((adv[0] - 5.0).abs() < 1e-12);
    }

    #[test]
    fn normalize_advantages_zero_mean_unit_std() {
        let mut a = vec![1.0, 2.0, 3.0, 4.0];
        normalize_advantages(&mut a);
        let mean = a.iter().sum::<f64>() / 4.0;
        let var = a.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / 4.0;
        assert!(mean.abs() < 1e-12);
        assert!((var - 1.0).abs() < 1e-9);
    }

    #[test]
    fn normalize_constant_is_noop() {
        let mut a = vec![2.0, 2.0];
        normalize_advantages(&mut a);
        assert_eq!(a, vec![2.0, 2.0]);
    }

    #[test]
    fn rollout_has_consistent_shapes() {
        use crate::env::test_env::TrackingEnv;
        let mut rng = StdRng::seed_from_u64(3);
        let mut env = TrackingEnv::new(5);
        let mut rng2 = StdRng::seed_from_u64(0);
        let net = Mlp::new(
            &[1, 8, 1],
            Activation::leaky_default(),
            Activation::Sigmoid,
            &mut rng2,
        );
        let p = GaussianPolicy::new(net, -1.0);
        let r = collect_rollout(&mut env, &p, 12, &mut rng);
        assert_eq!(r.states.shape(), (12, 1));
        assert_eq!(r.raw_actions.shape(), (12, 1));
        assert_eq!(r.rewards.len(), 12);
        assert_eq!(r.log_probs.len(), 12);
        // Horizon 5 ⇒ dones at steps 4 and 9.
        assert!(r.dones[4] && r.dones[9]);
        assert_eq!(r.final_state.len(), 1);
    }
}
