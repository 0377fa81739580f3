//! Deep deterministic policy gradient (Lillicrap et al.), the paper's
//! training technique for orchestration agents (Sec. IV-B2, Fig. 3).
//!
//! The agent maintains a deterministic actor `μ(s|θ^μ)` and a critic
//! `Q(s, a|θ^π)`, each shadowed by a slowly-tracking target network. The
//! critic minimizes the mean-squared Bellman error against the target value
//! `g_t = r + γ Q'(s', μ'(s'))` (paper Eq. 16–17); the actor ascends
//! `∇_θ J ≈ E[∇_a Q(s, a)|_{a=μ(s)} ∇_θ μ(s)]` (paper Eq. 18).
//!
//! # Two-lane training
//!
//! An update has two halves that do not read each other's networks: the
//! target side (the Polyak steps and the TD targets, [`TargetLane`]) and
//! the online side. [`Ddpg::update`] runs both on the caller's thread.
//! [`Ddpg::train`] lends the target side to one scoped helper thread, the
//! *lane*, for the whole call, and meets it twice per update:
//!
//! 1. the lane pays the previous update's Polyak steps and computes the TD
//!    targets while the caller runs `Q(s, a)` and `μ(s)`;
//! 2. after the critic step, each side runs the critic re-forward and its
//!    input gradient on half of the rows of `(s, μ(s))`.
//!
//! Every output element is the same arithmetic on the same operands in
//! both placements, so the two are bit-identical.

use std::ops::Range;
use std::sync::mpsc::{self, Receiver, SyncSender};

use edgeslice_nn::{Adam, Matrix, Mlp, TrainScratch};
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::{Batch, DecayingGaussian, Environment, ReplayBuffer, Transition};

/// Gradient-norm cap both networks are clipped to before their Adam step.
const MAX_GRAD_NORM: f64 = 10.0;

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

/// Reusable buffers for the online side of an update: the sampled batch,
/// one [`TrainScratch`] per network, and every intermediate matrix the
/// update touches. After the first update everything here sits at its
/// steady-state capacity and the step is allocation-free.
#[derive(Debug, Clone, Default)]
struct DdpgScratch {
    batch: Batch,
    /// Critic forward/backward for the TD loss; once the critic has
    /// stepped, the re-forward (and input-gradient backward) at this
    /// thread's rows of `(s, μ(s))`.
    critic: TrainScratch,
    /// Actor forward/backward for the policy gradient.
    actor: TrainScratch,
    sa: Matrix,
    sa_mu: Matrix,
    /// TD targets of an inline update (a laned one receives them in its
    /// [`Packet`]).
    targets: Matrix,
    d_pred: Matrix,
    d_q: Matrix,
    d_action: Matrix,
}

/// A DDPG learner.
#[derive(Debug, Clone)]
pub struct Ddpg {
    online: Online,
    scratch: DdpgScratch,
    lane: TargetLane,
}

/// The online side of a learner: the networks being trained, their
/// optimizers, the replay memory and the exploration noise.
#[derive(Debug, Clone)]
struct Online {
    actor: Mlp,
    critic: Mlp,
    actor_opt: Adam,
    critic_opt: Adam,
    replay: ReplayBuffer,
    noise: DecayingGaussian,
    config: DdpgConfig,
    updates: u64,
}

/// The target networks `μ'`, `Q'`, their scratches, and the two pieces of
/// an update that read them: the TD targets and the Polyak steps.
/// [`Ddpg::update`] calls these methods inline; under [`Ddpg::train`] the
/// lane thread calls the same methods ([`TargetLane::serve`]), plus its
/// share of the critic re-forward ([`TargetLane::policy_rows`]).
#[derive(Debug, Clone)]
struct TargetLane {
    target_actor: Mlp,
    target_critic: Mlp,
    /// Target-actor forward for `μ'(s')`.
    ta_fwd: TrainScratch,
    /// Target-critic forward for `Q'(s', μ'(s'))`; at rendezvous 2, the
    /// online critic's re-forward at the lane's rows of `(s, μ(s))`.
    tc_fwd: TrainScratch,
    next_sa: Matrix,
    d_q: Matrix,
}

impl TargetLane {
    /// Targets that start as copies of the online networks.
    fn new(actor: &Mlp, critic: &Mlp) -> Self {
        Self {
            target_actor: actor.clone(),
            target_critic: critic.clone(),
            ta_fwd: TrainScratch::default(),
            tc_fwd: TrainScratch::default(),
            next_sa: Matrix::default(),
            d_q: Matrix::default(),
        }
    }

    /// `g = r + γ Q'(s', μ'(s'))`, with no bootstrap past an episode's end,
    /// for the batch's `(s', r, done)` into `targets` (`n × 1`). The batch's
    /// states and actions are not read.
    fn td_targets(&mut self, batch: &Batch, gamma: f64, targets: &mut Matrix) {
        self.target_actor
            .forward_scratch(&batch.next_states, &mut self.ta_fwd);
        Matrix::hstack_into(
            &[&batch.next_states, self.ta_fwd.output()],
            &mut self.next_sa,
        );
        self.target_critic
            .forward_scratch(&self.next_sa, &mut self.tc_fwd);
        let n = batch.len();
        targets.resize_for(n, 1);
        let next_q = self.tc_fwd.output();
        for i in 0..n {
            let bootstrap = if batch.dones[i] {
                0.0
            } else {
                gamma * next_q[(i, 0)]
            };
            targets[(i, 0)] = batch.rewards[i] + bootstrap;
        }
    }

    /// The soft target updates `θ' ← (1 − τ) θ' + τ θ` toward the online
    /// networks.
    fn track(&mut self, actor: &Mlp, critic: &Mlp, tau: f64) {
        self.target_actor.soft_update_from(actor, tau);
        self.target_critic.soft_update_from(critic, tau);
    }

    /// Rendezvous 2's lane half: the stepped critic at the lane's rows of
    /// `(s, μ(s))` and their actor-loss gradient, run in the target
    /// critic's forward scratch (its rendezvous-1 pass is spent), with the
    /// `Q` values and the action gradients copied out into the packet.
    fn policy_rows(&mut self, p: &mut Packet, n: usize) {
        critic_at_policy(&p.critic, &p.sa_mu, n, &mut self.tc_fwd, &mut self.d_q);
        p.q.copy_from(self.tc_fwd.output());
        let ad = p.actor.out_dim();
        p.d_action.resize_for(p.sa_mu.rows(), ad);
        action_grads(&self.tc_fwd, ad, p.d_action.as_mut_slice());
    }

    /// The lane thread's loop: runs each job that arrives on `jobs` and
    /// hands its packet back on `done`, until the caller hangs up.
    fn serve(&mut self, jobs: Receiver<Packet>, done: SyncSender<Packet>, gamma: f64, tau: f64) {
        for mut p in jobs {
            match p.job {
                Job::Targets => {
                    if std::mem::take(&mut p.polyak_pending) {
                        self.track(&p.actor, &p.critic, tau);
                    }
                    self.td_targets(&p.batch, gamma, &mut p.targets);
                }
                Job::PolicyRows { n } => self.policy_rows(&mut p, n),
            }
            if done.send(p).is_err() {
                return;
            }
        }
    }
}

/// What the lane is asked to do with a [`Packet`].
#[derive(Debug, Clone, Copy)]
enum Job {
    /// Rendezvous 1: the Polyak steps the last update owes, then the TD
    /// targets of `batch`.
    Targets,
    /// Rendezvous 2: the critic at `sa_mu` and its input gradient under the
    /// actor loss over `n` rows in all.
    PolicyRows { n: usize },
}

/// The buffers one laned update hands between the caller and the lane.
/// Whichever side holds the packet owns them, so nothing is locked, and
/// after the first update nothing is allocated.
struct Packet {
    job: Job,
    /// The batch's successor half `(s', r, done)`, lent by the caller for
    /// rendezvous 1; the states and actions stay with the caller.
    batch: Batch,
    /// The TD targets the lane computed at rendezvous 1.
    targets: Matrix,
    /// Whether the target networks still owe the last update's Polyak
    /// steps, toward `actor` and `critic`.
    polyak_pending: bool,
    /// A mirror of the online actor as the last update left it.
    actor: Mlp,
    /// A mirror of the online critic after the last critic step (the actor
    /// step does not move it).
    critic: Mlp,
    /// The lane's rows of `(s, μ(s))` at rendezvous 2.
    sa_mu: Matrix,
    /// `Q(s, μ(s))` at those rows.
    q: Matrix,
    /// The actor-loss gradient with respect to their actions.
    d_action: Matrix,
}

impl Packet {
    fn new(actor: &Mlp, critic: &Mlp) -> Self {
        Self {
            job: Job::Targets,
            batch: Batch::default(),
            targets: Matrix::default(),
            polyak_pending: false,
            actor: actor.clone(),
            critic: critic.clone(),
            sa_mu: Matrix::default(),
            q: Matrix::default(),
            d_action: Matrix::default(),
        }
    }
}

/// The caller's ends of the two channels to the lane.
struct LaneLink {
    jobs: SyncSender<Packet>,
    done: Receiver<Packet>,
}

/// The lane hung up before answering: it panicked, and joining it says why.
#[derive(Debug)]
struct LaneDown;

impl LaneLink {
    fn post(&self, p: Packet) -> Result<(), LaneDown> {
        self.jobs.send(p).map_err(|_| LaneDown)
    }

    fn collect(&self) -> Result<Packet, LaneDown> {
        self.done.recv().map_err(|_| LaneDown)
    }
}

/// `Q(s, μ(s))` at the rows staged in `sa_mu` and its input gradient under
/// the actor loss `−mean Q` over `n` rows in all (`∂L/∂Q = −1/n` per row),
/// left in `pi`. Only the input-gradient chain is computed — the critic's
/// parameter gradients would be discarded. Rows are independent, so the
/// rows of any split of a batch get the bits the whole batch would.
fn critic_at_policy(
    critic: &Mlp,
    sa_mu: &Matrix,
    n: usize,
    pi: &mut TrainScratch,
    d_q: &mut Matrix,
) {
    critic.forward_scratch(sa_mu, pi);
    d_q.resize_for(sa_mu.rows(), 1);
    d_q.fill(-1.0 / n as f64);
    critic.backward_input_scratch(pi, d_q);
}

/// The action columns of the critic's input gradient left in `pi` by
/// [`critic_at_policy`] — the actor loss's gradient with respect to each
/// row's action — into `out` (`rows × ad`, row-major).
fn action_grads(pi: &TrainScratch, ad: usize, out: &mut [f64]) {
    let d_input = pi.d_input();
    let sd = d_input.cols() - ad;
    for (dst, row) in out.chunks_exact_mut(ad).zip(d_input.rows_iter()) {
        dst.copy_from_slice(&row[sd..]);
    }
}

/// `[states | actions]` over `rows`, into `out`: a row range of
/// [`Matrix::hstack_into`].
fn stack_rows(states: &Matrix, actions: &Matrix, rows: Range<usize>, out: &mut Matrix) {
    let sd = states.cols();
    out.resize_for(rows.len(), sd + actions.cols());
    for (o, i) in rows.enumerate() {
        let row = out.row_mut(o);
        row[..sd].copy_from_slice(states.row(i));
        row[sd..].copy_from_slice(actions.row(i));
    }
}

/// Overwrites `dst`'s parameters with `src`'s (same architecture) in place.
fn copy_weights(dst: &mut Mlp, src: &Mlp) {
    for (d, s) in dst.layers_mut().iter_mut().zip(src.layers()) {
        d.weights_mut().copy_from(s.weights());
        d.bias_mut().copy_from_slice(s.bias());
    }
}

/// Swaps the successor halves `(s', r, done)` of two batches.
fn swap_successors(a: &mut Batch, b: &mut Batch) {
    std::mem::swap(&mut a.next_states, &mut b.next_states);
    std::mem::swap(&mut a.rewards, &mut b.rewards);
    std::mem::swap(&mut a.dones, &mut b.dones);
}

impl Online {
    fn explore(&mut self, state: &[f64], rng: &mut StdRng) -> Vec<f64> {
        let mut a = self.actor.forward_one(state);
        self.noise.perturb(&mut a, rng);
        a
    }

    /// Samples the update's batch and returns its size; `None` while the
    /// replay memory cannot fill one.
    fn sample(&self, s: &mut DdpgScratch, rng: &mut StdRng) -> Option<usize> {
        self.replay
            .sample_into(self.config.batch_size, rng, &mut s.batch)
            .ok()?;
        Some(s.batch.len())
    }

    /// The online forwards: the critic at `(s, a)` and the actor at `s`.
    fn forward_online(&self, s: &mut DdpgScratch) {
        Matrix::hstack_into(&[&s.batch.states, &s.batch.actions], &mut s.sa);
        self.critic.forward_scratch(&s.sa, &mut s.critic);
        self.actor.forward_scratch(&s.batch.states, &mut s.actor);
    }

    /// The critic step: minimize `(Q(s, a) − g)²` against `targets` through
    /// the forward recorded in `td`. Returns the loss.
    fn critic_step(&mut self, td: &mut TrainScratch, targets: &Matrix, d_pred: &mut Matrix) -> f64 {
        let loss = edgeslice_nn::mse_loss_into(td.output(), targets, d_pred);
        self.critic.backward_scratch(td, d_pred);
        td.grads_mut().clip_global_norm(MAX_GRAD_NORM);
        self.critic_opt.step(&mut self.critic, td.grads());
        loss
    }

    /// The actor step: ascend `Q(s, μ(s))` through the critic's input
    /// gradient, read from this thread's re-forward (in `s.critic`, the
    /// first rows) and the lane's (`far`: its `Q` values and action
    /// gradients, the rest). Returns the actor objective, `mean Q(s, μ(s))`
    /// summed in row order.
    fn actor_step(
        &mut self,
        s: &mut DdpgScratch,
        far: Option<(&Matrix, &Matrix)>,
        n: usize,
    ) -> f64 {
        let near_q = s.critic.output().as_slice();
        let far_q = far.map_or(&[][..], |(q, _)| q.as_slice());
        let objective = near_q.iter().chain(far_q).sum::<f64>() / n as f64;
        let ad = self.actor.out_dim();
        s.d_action.resize_for(n, ad);
        let (near, rest) = s.d_action.as_mut_slice().split_at_mut(near_q.len() * ad);
        action_grads(&s.critic, ad, near);
        if let Some((_, d_action)) = far {
            rest.copy_from_slice(d_action.as_slice());
        }
        self.actor.backward_scratch(&mut s.actor, &s.d_action);
        s.actor.grads_mut().clip_global_norm(MAX_GRAD_NORM);
        self.actor_opt.step(&mut self.actor, s.actor.grads());
        objective
    }

    fn finish(&mut self, critic_loss: f64, actor_objective: f64) -> DdpgUpdate {
        self.updates += 1;
        DdpgUpdate {
            critic_loss,
            actor_objective,
            noise_sigma: self.noise.sigma(),
        }
    }

    /// One update with the target side run inline ([`Ddpg::update`]).
    fn update_inline(
        &mut self,
        lane: &mut TargetLane,
        s: &mut DdpgScratch,
        rng: &mut StdRng,
    ) -> Option<DdpgUpdate> {
        let n = self.sample(s, rng)?;
        lane.td_targets(&s.batch, self.config.gamma, &mut s.targets);
        self.forward_online(s);
        let critic_loss = self.critic_step(&mut s.critic, &s.targets, &mut s.d_pred);
        stack_rows(&s.batch.states, s.actor.output(), 0..n, &mut s.sa_mu);
        critic_at_policy(&self.critic, &s.sa_mu, n, &mut s.critic, &mut s.d_q);
        let actor_objective = self.actor_step(s, None, n);
        lane.track(&self.actor, &self.critic, self.config.tau);
        Some(self.finish(critic_loss, actor_objective))
    }

    /// One update with the target side on the lane ([`Ddpg::train`]). The
    /// Polyak steps it owes are paid at the next rendezvous 1, or by
    /// `train` after the last update.
    fn update_laned(
        &mut self,
        s: &mut DdpgScratch,
        mut p: Packet,
        link: &LaneLink,
        rng: &mut StdRng,
    ) -> Result<(Packet, Option<DdpgUpdate>), LaneDown> {
        let Some(n) = self.sample(s, rng) else {
            return Ok((p, None));
        };

        // Rendezvous 1: the lane tracks the last update's networks and
        // computes the TD targets while this thread runs the online
        // forwards.
        swap_successors(&mut s.batch, &mut p.batch);
        if p.polyak_pending {
            copy_weights(&mut p.actor, &self.actor);
        }
        p.job = Job::Targets;
        link.post(p)?;
        self.forward_online(s);
        let mut p = link.collect()?;
        swap_successors(&mut s.batch, &mut p.batch);
        let critic_loss = self.critic_step(&mut s.critic, &p.targets, &mut s.d_pred);

        // Rendezvous 2: each side runs the stepped critic at half of the
        // rows of (s, μ(s)).
        let half = n / 2;
        copy_weights(&mut p.critic, &self.critic);
        stack_rows(&s.batch.states, s.actor.output(), half..n, &mut p.sa_mu);
        p.job = Job::PolicyRows { n };
        link.post(p)?;
        stack_rows(&s.batch.states, s.actor.output(), 0..half, &mut s.sa_mu);
        critic_at_policy(&self.critic, &s.sa_mu, n, &mut s.critic, &mut s.d_q);
        let mut p = link.collect()?;
        let actor_objective = self.actor_step(s, Some((&p.q, &p.d_action)), n);
        p.polyak_pending = true;
        Ok((p, Some(self.finish(critic_loss, actor_objective))))
    }

    /// [`Ddpg::train`]'s environment loop, updating through the lane.
    /// Returns the episode returns and the packet, whose `polyak_pending`
    /// says whether the last update's Polyak steps are still owed.
    fn run<E: Environment + ?Sized>(
        &mut self,
        s: &mut DdpgScratch,
        env: &mut E,
        steps: usize,
        rng: &mut StdRng,
        link: &LaneLink,
        mut packet: Packet,
    ) -> Result<(Vec<f64>, Packet), LaneDown> {
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
            self.replay.push(&Transition {
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
                packet = self.update_laned(s, packet, link, rng)?.0;
            }
        }
        Ok((returns, packet))
    }
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
        let lane = TargetLane::new(&actor, &critic);
        Self {
            online: Online {
                actor_opt: Adam::new(&actor, config.lr),
                critic_opt: Adam::new(&critic, config.lr),
                replay: ReplayBuffer::new(config.replay_capacity, state_dim, action_dim),
                noise: DecayingGaussian::new(config.noise_sigma, config.noise_decay, 0.01),
                actor,
                critic,
                config,
                updates: 0,
            },
            scratch: DdpgScratch::default(),
            lane,
        }
    }

    /// The configuration this learner was built with.
    pub fn config(&self) -> &DdpgConfig {
        &self.online.config
    }

    /// The greedy (noise-free) policy action for `state`.
    pub fn policy(&self, state: &[f64]) -> Vec<f64> {
        self.online.actor.forward_one(state)
    }

    /// Immutable access to the actor network (e.g. for checkpointing).
    pub fn actor(&self) -> &Mlp {
        &self.online.actor
    }

    /// Immutable access to the critic network.
    pub fn critic(&self) -> &Mlp {
        &self.online.critic
    }

    /// Number of gradient updates applied so far.
    pub fn updates(&self) -> u64 {
        self.online.updates
    }

    /// Exploration action: policy output plus decaying Gaussian noise,
    /// clamped to `[0, 1]`.
    pub fn explore(&mut self, state: &[f64], rng: &mut StdRng) -> Vec<f64> {
        self.online.explore(state, rng)
    }

    /// Stores a transition in the replay memory.
    pub fn observe(&mut self, transition: &Transition) {
        self.online.replay.push(transition);
    }

    /// Runs one critic + actor gradient step and soft target updates, all
    /// on the calling thread.
    ///
    /// Returns `None` while the replay memory holds fewer than a batch of
    /// transitions (the warm-up contract: no network is touched until the
    /// buffer can fill a batch).
    ///
    /// The step runs entirely through the `_into` kernels and this agent's
    /// scratch arenas — zero heap allocations at steady state. For the same
    /// RNG state it is bit-identical to the textbook, allocating update
    /// (cached forward, `Matrix::gemm` backward, flat-vector Adam) that the
    /// test-side oracle `crates/rl/tests/support/ddpg_oracle.rs` runs, and
    /// to the laned update [`Ddpg::train`] runs.
    pub fn update(&mut self, rng: &mut StdRng) -> Option<DdpgUpdate> {
        let Self {
            online,
            scratch,
            lane,
        } = self;
        online.update_inline(lane, scratch, rng)
    }

    /// Convenience training loop: interacts with `env` for `steps`
    /// environment steps, updating once per step after warm-up. Returns the
    /// per-episode returns observed during training.
    ///
    /// The target networks train on a scoped helper thread (the module's
    /// "two-lane training") for the whole call, so a call runs on two
    /// threads; the resulting learner is bit-identical to the same loop
    /// over [`Ddpg::update`]. A panic on the helper thread resurfaces here.
    pub fn train<E: Environment + ?Sized>(
        &mut self,
        env: &mut E,
        steps: usize,
        rng: &mut StdRng,
    ) -> Vec<f64> {
        let Self {
            online,
            scratch,
            lane,
        } = self;
        let (gamma, tau) = (online.config.gamma, online.config.tau);
        let packet = Packet::new(&online.actor, &online.critic);
        let (returns, packet) = std::thread::scope(|scope| {
            let (jobs, lane_jobs) = mpsc::sync_channel(1);
            let (lane_done, done) = mpsc::sync_channel(1);
            let worker = scope.spawn(move || lane.serve(lane_jobs, lane_done, gamma, tau));
            let link = LaneLink { jobs, done };
            let trained = online.run(scratch, env, steps, rng, &link, packet);
            // Hang up: the lane's job stream ends and it returns.
            drop(link);
            match worker.join() {
                Ok(()) => trained.expect("the lane stops early only by panicking"),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        });
        if packet.polyak_pending {
            self.lane
                .track(&self.online.actor, &self.online.critic, tau);
        }
        returns
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ddpg_oracle::DdpgOracle;
    use crate::env::test_env::TrackingEnv;
    use crate::{evaluate, Step};
    use edgeslice_nn::Activation;
    use rand::SeedableRng;
    use std::panic::{catch_unwind, AssertUnwindSafe};

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

    fn bits(net: &Mlp) -> Vec<u64> {
        net.flat_params().iter().map(|p| p.to_bits()).collect()
    }

    /// A 3-state, 2-action toy task, so the critic's action columns sit
    /// behind more than one state column; episodes of 16 steps.
    struct SpreadEnv {
        s: [f64; 3],
        t: usize,
    }

    impl Environment for SpreadEnv {
        fn state_dim(&self) -> usize {
            3
        }

        fn action_dim(&self) -> usize {
            2
        }

        fn reset(&mut self, rng: &mut StdRng) -> Vec<f64> {
            self.s = std::array::from_fn(|_| rng.gen_range(0.0..1.0));
            self.t = 0;
            self.s.to_vec()
        }

        fn step(&mut self, a: &[f64], _rng: &mut StdRng) -> Step {
            let reward = -(a[0] - self.s[0]).powi(2) - (a[1] - self.s[2]).powi(2);
            self.s = [self.s[1], self.s[2], (self.s[0] + 0.5 * a[0] + 0.1).fract()];
            self.t += 1;
            Step {
                next_state: self.s.to_vec(),
                reward,
                done: self.t == 16,
            }
        }
    }

    /// `Ddpg::train`'s loop through the public per-step API: the same RNG
    /// draws in the same order, the inline `update` after each post-warm-up
    /// step.
    fn train_inline(
        agent: &mut Ddpg,
        env: &mut impl Environment,
        steps: usize,
        rng: &mut StdRng,
    ) -> Vec<f64> {
        let warmup = agent.config().warmup;
        let mut returns = Vec::new();
        let mut state = env.reset(rng);
        let mut episode_return = 0.0;
        for step in 0..steps {
            let action = if step < warmup {
                (0..env.action_dim())
                    .map(|_| rng.gen_range(0.0..1.0))
                    .collect()
            } else {
                agent.explore(&state, rng)
            };
            let out = env.step(&action, rng);
            episode_return += out.reward;
            agent.observe(&Transition {
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
            if step >= warmup {
                agent.update(rng);
            }
        }
        returns
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
        let actor_before = agent.actor().flat_params();
        let critic_before = agent.critic().flat_params();
        assert!(agent.update(&mut rng).is_none());
        assert_eq!(agent.actor().flat_params(), actor_before);
        assert_eq!(agent.critic().flat_params(), critic_before);
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
        assert_eq!(bits(fused.actor()), bits(&oracle.actor), "actor diverged");
        assert_eq!(
            bits(fused.critic()),
            bits(&oracle.critic),
            "critic diverged"
        );
        assert_eq!(
            bits(&fused.lane.target_actor),
            bits(&oracle.target_actor),
            "target actor diverged"
        );
        assert_eq!(
            bits(&fused.lane.target_critic),
            bits(&oracle.target_critic),
            "target critic diverged"
        );
    }

    /// The laned `train` against the same loop over the inline `update`,
    /// from one seed: all four networks, the noise σ and the episode
    /// returns bit for bit. Batch 1 leaves this thread's half of the
    /// re-forward empty, 2 gives each side one row, 33 splits odd, and 128
    /// (above the warm-up) makes the first laned updates skip for want of
    /// data. Two `train` calls with an inline `update` between them cover
    /// the Polyak steps owed across a call boundary.
    #[test]
    fn two_lane_training_matches_inline_updates() {
        for batch_size in [1, 2, 33, 128] {
            let config = DdpgConfig {
                batch_size,
                warmup: 40,
                ..small_config()
            };
            let fresh = || SpreadEnv { s: [0.0; 3], t: 0 };
            let (mut env_a, mut env_b) = (fresh(), fresh());
            let mut rng_a = StdRng::seed_from_u64(9);
            let mut rng_b = StdRng::seed_from_u64(9);
            let mut laned = Ddpg::new(3, 2, config, &mut rng_a);
            let mut inline = Ddpg::new(3, 2, config, &mut rng_b);

            let mut returns_a = laned.train(&mut env_a, 250, &mut rng_a);
            let mut returns_b = train_inline(&mut inline, &mut env_b, 250, &mut rng_b);
            assert_eq!(laned.update(&mut rng_a), inline.update(&mut rng_b));
            returns_a.extend(laned.train(&mut env_a, 120, &mut rng_a));
            returns_b.extend(train_inline(&mut inline, &mut env_b, 120, &mut rng_b));

            // The first `train` skips its updates until the replay memory
            // holds a batch: step `k` sees `k + 1` transitions.
            let expected_updates = (250 - 40) + 1 + (120 - 40);
            let skipped = batch_size.saturating_sub(40 + 1) as u64;
            assert_eq!(
                laned.updates(),
                expected_updates - skipped,
                "batch {batch_size}"
            );
            assert_eq!(laned.updates(), inline.updates(), "batch {batch_size}");
            let returns_bits = |r: &[f64]| r.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(returns_bits(&returns_a), returns_bits(&returns_b));
            for (name, a, b) in [
                ("actor", laned.actor(), inline.actor()),
                ("critic", laned.critic(), inline.critic()),
                (
                    "target actor",
                    &laned.lane.target_actor,
                    &inline.lane.target_actor,
                ),
                (
                    "target critic",
                    &laned.lane.target_critic,
                    &inline.lane.target_critic,
                ),
            ] {
                assert_eq!(bits(a), bits(b), "{name} diverged at batch {batch_size}");
            }
            assert_eq!(
                laned.online.noise.sigma().to_bits(),
                inline.online.noise.sigma().to_bits(),
                "noise σ diverged at batch {batch_size}"
            );
        }
    }

    fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
        payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or("")
    }

    /// A panic on the lane reaches `train`'s caller with its own payload,
    /// through the join — it neither hangs the caller nor turns into a
    /// generic "a scoped thread panicked".
    #[test]
    fn lane_panic_resurfaces_in_the_caller() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut agent = Ddpg::new(1, 1, small_config(), &mut rng);
        // A target critic of the wrong input width: the lane's first
        // TD-target forward fails its shape check.
        agent.lane.target_critic = Mlp::new(
            &[3, 4, 1],
            Activation::leaky_default(),
            Activation::Identity,
            &mut rng,
        );
        let mut env = TrackingEnv::new(20);
        let payload = catch_unwind(AssertUnwindSafe(|| agent.train(&mut env, 200, &mut rng)))
            .expect_err("the lane's panic must reach the caller");
        let message = panic_message(payload.as_ref());
        assert!(
            message.contains("gemm dimension mismatch"),
            "unexpected panic: {message:?}"
        );
    }

    /// A panic on the caller's side of `train` (here, its environment)
    /// releases the lane: the call unwinds instead of waiting forever for a
    /// helper that waits for it.
    #[test]
    fn caller_panic_releases_the_lane() {
        struct FailingEnv(TrackingEnv, usize);
        impl Environment for FailingEnv {
            fn state_dim(&self) -> usize {
                1
            }
            fn action_dim(&self) -> usize {
                1
            }
            fn reset(&mut self, rng: &mut StdRng) -> Vec<f64> {
                self.0.reset(rng)
            }
            fn step(&mut self, action: &[f64], rng: &mut StdRng) -> Step {
                self.1 += 1;
                assert!(self.1 < 150, "environment failed at step {}", self.1);
                self.0.step(action, rng)
            }
        }
        let mut rng = StdRng::seed_from_u64(6);
        let mut agent = Ddpg::new(1, 1, small_config(), &mut rng);
        let mut env = FailingEnv(TrackingEnv::new(20), 0);
        let payload = catch_unwind(AssertUnwindSafe(|| agent.train(&mut env, 200, &mut rng)))
            .expect_err("the environment's panic must unwind train");
        assert!(panic_message(payload.as_ref()).contains("environment failed"));
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
