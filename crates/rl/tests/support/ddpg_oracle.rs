//! The DDPG oracle: the textbook, allocating form of `Ddpg::train` /
//! `Ddpg::update`, built only from the public API, that the equivalence
//! tests hold the shipped scratch-arena update to bit for bit.
//!
//! Everything above the matrix product is written out here the plain way:
//! a forward pass that allocates and caches every layer's input and
//! pre-activation, a backward pass through `Matrix::gemm` and
//! `Activation::derivative`, an allocating MSE, flat-vector Adam with its
//! own moments (flatten → update → scatter), `ReplayBuffer::sample` and
//! freshly stacked critic inputs. The shipped update fuses all of that into
//! one `TrainScratch` per pass, an in-place Adam walk, `mse_loss_into`,
//! `hstack_into`, `sample_into` and an input-gradient-only backward; any
//! reordered add or changed RNG draw among those moves a parameter bit.
//! The product's own term order is pinned where it is computed, by
//! `crates/nn/tests/properties.rs` against a naive triple loop.
//!
//! Like the shipped update it computes in `f32`, narrowing the same `f64`
//! inputs at the same seams: the state fed to the actor, the replay store,
//! `γ`, and Adam's hyper-parameters and bias corrections. `Matrix::from_fn`
//! narrows, so every `f32` it is handed goes through `f64::from` (exact).
//!
//! Included by `#[path]` into the `edgeslice-rl` unit tests (which compare
//! all four networks) and into the root package's
//! `tests/train_equivalence.rs` (the paper's RA environment); it is not a
//! test target of its own.

use edgeslice_nn::{DenseGrad, GemmOp, Gradients, Matrix, Mlp};
use edgeslice_rl::{Ddpg, DdpgConfig, DecayingGaussian, Environment, ReplayBuffer, Transition};
use rand::rngs::StdRng;
use rand::Rng;

/// Adam's fixed hyper-parameters, as `edgeslice_nn::Adam` sets them (in
/// `f64`, narrowed per step).
const BETA1: f64 = 0.9;
const BETA2: f64 = 0.999;
const EPS: f64 = 1e-8;

/// Gradient-norm cap both DDPG networks are clipped to.
const MAX_GRAD_NORM: f64 = 10.0;

/// Every layer's input and pre-activation from one forward pass.
struct Cache {
    inputs: Vec<Matrix>,
    pre: Vec<Matrix>,
    output: Matrix,
}

fn forward(net: &Mlp, x: &Matrix) -> Cache {
    let (mut inputs, mut pre) = (Vec::new(), Vec::new());
    let mut h = x.clone();
    for layer in net.layers() {
        let mut z = Matrix::gemm(GemmOp::ABt, &h, layer.weights());
        z.add_row_broadcast(layer.bias());
        let act = layer.activation();
        let out = Matrix::from_fn(z.rows(), z.cols(), |i, j| f64::from(act.eval(z[(i, j)])));
        inputs.push(h);
        pre.push(z);
        h = out;
    }
    Cache {
        inputs,
        pre,
        output: h,
    }
}

/// Parameter gradients (sums over the batch) and `∂L/∂input`.
fn backward(net: &Mlp, cache: &Cache, d_output: &Matrix) -> (Gradients, Matrix) {
    let mut layers = Vec::new();
    let mut d = d_output.clone();
    for (idx, layer) in net.layers().iter().enumerate().rev() {
        let (x, z) = (&cache.inputs[idx], &cache.pre[idx]);
        let act = layer.activation();
        let dz = Matrix::from_fn(z.rows(), z.cols(), |i, j| {
            f64::from(d[(i, j)] * act.derivative(z[(i, j)]))
        });
        let weights = Matrix::gemm(GemmOp::AtB, &dz, x);
        let mut bias = vec![0.0f32; dz.cols()];
        for row in dz.rows_iter() {
            for (b, &v) in bias.iter_mut().zip(row) {
                *b += v;
            }
        }
        d = Matrix::gemm(GemmOp::AB, &dz, layer.weights());
        layers.push(DenseGrad { weights, bias });
    }
    layers.reverse();
    (Gradients { layers }, d)
}

/// `(mean((pred − target)²), 2 (pred − target) / n)`, the loss in `f64`.
fn mse(pred: &Matrix, target: &Matrix) -> (f64, Matrix) {
    let n = pred.rows() * pred.cols();
    let diff = pred - target;
    let loss = diff.dot(&diff) / n as f64;
    let grad = Matrix::from_fn(diff.rows(), diff.cols(), |i, j| {
        f64::from(2.0 * diff[(i, j)] / n as f32)
    });
    (loss, grad)
}

fn hstack(a: &Matrix, b: &Matrix) -> Matrix {
    Matrix::from_fn(a.rows(), a.cols() + b.cols(), |i, j| {
        f64::from(if j < a.cols() {
            a[(i, j)]
        } else {
            b[(i, j - a.cols())]
        })
    })
}

/// Adam over the flattened parameter vector.
struct FlatAdam {
    lr: f64,
    t: i32,
    m: Vec<f32>,
    v: Vec<f32>,
}

impl FlatAdam {
    fn new(net: &Mlp, lr: f64) -> Self {
        let n = net.param_count();
        Self {
            lr,
            t: 0,
            m: vec![0.0; n],
            v: vec![0.0; n],
        }
    }

    fn step(&mut self, net: &mut Mlp, grads: &Gradients) {
        let g = net.flat_grads(grads);
        self.t += 1;
        let b1t = (1.0 - BETA1.powi(self.t)) as f32;
        let b2t = (1.0 - BETA2.powi(self.t)) as f32;
        let (b1, b2, lr, eps) = (BETA1 as f32, BETA2 as f32, self.lr as f32, EPS as f32);
        let (c1, c2) = ((1.0 - BETA1) as f32, (1.0 - BETA2) as f32);
        let mut params = net.flat_params();
        for i in 0..g.len() {
            self.m[i] = b1 * self.m[i] + c1 * g[i];
            self.v[i] = b2 * self.v[i] + c2 * g[i] * g[i];
            let m_hat = self.m[i] / b1t;
            let v_hat = self.v[i] / b2t;
            params[i] -= lr * m_hat / (v_hat.sqrt() + eps);
        }
        net.set_flat_params(&params);
    }
}

/// A DDPG learner trained the textbook way.
pub struct DdpgOracle {
    pub actor: Mlp,
    pub critic: Mlp,
    pub target_actor: Mlp,
    pub target_critic: Mlp,
    actor_opt: FlatAdam,
    critic_opt: FlatAdam,
    replay: ReplayBuffer,
    noise: DecayingGaussian,
    config: DdpgConfig,
}

impl DdpgOracle {
    /// The oracle twin of a freshly constructed `agent`: same weights
    /// (targets start as copies, as `Ddpg::new` makes them), same
    /// configuration, empty replay, fresh optimizer moments and noise.
    pub fn new(agent: &Ddpg) -> Self {
        let (actor, critic) = (agent.actor().clone(), agent.critic().clone());
        let config = *agent.config();
        Self {
            actor_opt: FlatAdam::new(&actor, config.lr),
            critic_opt: FlatAdam::new(&critic, config.lr),
            replay: ReplayBuffer::new(config.replay_capacity, actor.in_dim(), actor.out_dim()),
            noise: DecayingGaussian::new(config.noise_sigma, config.noise_decay, 0.01),
            target_actor: actor.clone(),
            target_critic: critic.clone(),
            actor,
            critic,
            config,
        }
    }

    /// `Ddpg::train`'s loop: same RNG draws in the same order.
    pub fn train<E: Environment + ?Sized>(&mut self, env: &mut E, steps: usize, rng: &mut StdRng) {
        let mut state = env.reset(rng);
        for step in 0..steps {
            let action = if step < self.config.warmup {
                (0..env.action_dim())
                    .map(|_| rng.gen_range(0.0..1.0))
                    .collect()
            } else {
                let row = Matrix::from_fn(1, state.len(), |_, j| state[j]);
                let out = forward(&self.actor, &row).output;
                let mut a: Vec<f64> = out.as_slice().iter().map(|&y| f64::from(y)).collect();
                self.noise.perturb(&mut a, rng);
                a
            };
            let out = env.step(&action, rng);
            self.replay.push(&Transition {
                state: state.clone(),
                action,
                reward: out.reward,
                next_state: out.next_state.clone(),
                done: out.done,
            });
            state = if out.done {
                env.reset(rng)
            } else {
                out.next_state
            };
            if step >= self.config.warmup {
                self.update(rng);
            }
        }
    }

    fn update(&mut self, rng: &mut StdRng) {
        let Ok(batch) = self.replay.sample(self.config.batch_size, rng) else {
            return;
        };
        let n = batch.rewards.len();

        // ---- Critic: minimize (Q(s,a) - g)² with g = r + γ Q'(s', μ'(s')).
        let next_actions = forward(&self.target_actor, &batch.next_states).output;
        let next_q = forward(
            &self.target_critic,
            &hstack(&batch.next_states, &next_actions),
        )
        .output;
        let gamma = self.config.gamma as f32;
        let targets = Matrix::from_fn(n, 1, |i, _| {
            let bootstrap = if batch.dones[i] {
                0.0
            } else {
                gamma * next_q[(i, 0)]
            };
            f64::from(batch.rewards[i] + bootstrap)
        });
        let cache = forward(&self.critic, &hstack(&batch.states, &batch.actions));
        let (_, d_pred) = mse(&cache.output, &targets);
        let (mut critic_grads, _) = backward(&self.critic, &cache, &d_pred);
        critic_grads.clip_global_norm(MAX_GRAD_NORM);
        self.critic_opt.step(&mut self.critic, &critic_grads);

        // ---- Actor: ascend Q(s, μ(s)) through the critic's input gradient.
        let actor_cache = forward(&self.actor, &batch.states);
        let critic_cache = forward(&self.critic, &hstack(&batch.states, &actor_cache.output));
        let d_q = Matrix::filled(n, 1, -1.0 / n as f64);
        let (_, d_input) = backward(&self.critic, &critic_cache, &d_q);
        let sd = batch.states.cols();
        let d_action = Matrix::from_fn(n, actor_cache.output.cols(), |i, j| {
            f64::from(d_input[(i, sd + j)])
        });
        let (mut actor_grads, _) = backward(&self.actor, &actor_cache, &d_action);
        actor_grads.clip_global_norm(MAX_GRAD_NORM);
        self.actor_opt.step(&mut self.actor, &actor_grads);

        // ---- Soft target updates.
        self.target_actor
            .soft_update_from(&self.actor, self.config.tau);
        self.target_critic
            .soft_update_from(&self.critic, self.config.tau);
    }
}
