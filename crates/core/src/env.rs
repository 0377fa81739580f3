//! The per-RA slicing environment (paper Fig. 5) — the world an
//! orchestration agent interacts with.
//!
//! Each decision epoch is one time interval `t`: slice traffic arrives into
//! FIFO queues, the agent's action sets every slice's end-to-end resource
//! shares, the resulting per-task service time determines how much of each
//! queue drains, the slices report their performance `U`, and the reward is
//! Eq. 15. Training runs against the grid-search dataset + local linear
//! model (Sec. VI-B); evaluation can run against the physical RA substrates
//! instead.

use std::sync::Arc;

use edgeslice_netsim::{
    DomainShares, GridDataset, RaCapacities, ResourceAutonomy, ServiceQueue, TrafficSource,
};
use edgeslice_rl::{Environment, Step};
use rand::rngs::StdRng;
use rand::Rng;

use crate::{reward, PerformanceFunction, ResourceKind, RewardParams, SliceSpec};

/// What the orchestration agent observes (Sec. VII-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StateSpec {
    /// EdgeSlice: queue lengths **and** coordinating information (Eq. 13).
    Full,
    /// EdgeSlice-NT: coordinating information only.
    CoordinationOnly,
}

impl StateSpec {
    /// The observation's length on `n_slices` slice slots.
    pub(crate) fn dim(self, n_slices: usize) -> usize {
        match self {
            StateSpec::Full => 2 * n_slices,
            StateSpec::CoordinationOnly => n_slices,
        }
    }
}

/// How the environment maps an action to service times.
pub enum ServiceModel {
    /// The Fig. 5 training path: per-slice grid dataset + local linear
    /// regression. A system builds each slot's dataset once and every RA's
    /// environment holds the same `Arc`: the grid and the fitted-cell memo
    /// are functions of the slot's app alone, so which RA fills a cell
    /// first changes no bit.
    Dataset(Vec<Arc<GridDataset>>),
    /// The prototype path: drive the physical RA substrates.
    Physical(Box<ResourceAutonomy>),
}

impl std::fmt::Debug for ServiceModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceModel::Dataset(d) => write!(f, "ServiceModel::Dataset({} slices)", d.len()),
            ServiceModel::Physical(_) => write!(f, "ServiceModel::Physical"),
        }
    }
}

/// Configuration of a [`RaSliceEnv`].
#[derive(Clone)]
pub struct RaEnvConfig {
    /// The slices served in this RA.
    pub slices: Vec<SliceSpec>,
    /// The (hidden) performance function slices report with.
    pub perf: Arc<dyn PerformanceFunction>,
    /// Reward weights (Eq. 15).
    pub reward: RewardParams,
    /// Agent observability (EdgeSlice vs EdgeSlice-NT).
    pub state_spec: StateSpec,
    /// Length of one time interval, seconds (paper: 1 s).
    pub interval_s: f64,
    /// Queue-length normalization for the state vector.
    pub queue_norm: f64,
    /// Coordination-signal normalization for the state vector.
    pub coord_norm: f64,
    /// Range the per-slice coordinating signal `z − y` is sampled from at
    /// reset during offline training (the paper trains "under different
    /// coordinating information", Sec. VI-A).
    pub coord_sample_range: (f64, f64),
    /// Whether reset should randomize the coordinating signal (training) or
    /// keep the externally-set one (orchestration).
    pub randomize_coord: bool,
    /// Per-slice queue capacity in tasks: arrivals beyond it are dropped,
    /// like any real buffer. Also bounds the performance range seen by the
    /// learner.
    pub queue_capacity: f64,
    /// Squash the *training* reward with `asinh` to compress the huge
    /// dynamic range of Eq. 15 (quadratic in `U = −l^α`) — a monotone
    /// per-step transform that stabilizes the critic. Evaluation metrics
    /// (`advance`'s return and `RaSliceEnv::last_performance`) are never
    /// squashed.
    pub squash_training_reward: bool,
    /// Project the decoded shares onto per-resource capacity before they
    /// reach the substrates. This is the physical truth — the radio
    /// scheduler trims to the PRB grid and an over-subscribed link cannot
    /// deliver more than its rate — and it makes training consistent with
    /// deployment: the Eq. 15 capacity penalty is still computed on the
    /// *raw* action, so the agent is taught feasibility, but service never
    /// benefits from infeasible allocations.
    pub project_shares: bool,
}

impl std::fmt::Debug for RaEnvConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RaEnvConfig")
            .field("slices", &self.slices.len())
            .field("perf", &self.perf.label())
            .field("state_spec", &self.state_spec)
            .field("interval_s", &self.interval_s)
            .finish_non_exhaustive()
    }
}

impl RaEnvConfig {
    /// The experiments' defaults: Eq. 15 weights, 1 s intervals, `T = 10`,
    /// full state, training-mode coordination sampling over
    /// `[Umin, 0] = [−50, 0]`.
    pub fn experiment(slices: Vec<SliceSpec>) -> Self {
        Self {
            slices,
            perf: Arc::new(crate::QueuePenalty::paper()),
            reward: RewardParams::paper(),
            state_spec: StateSpec::Full,
            interval_s: 1.0,
            queue_norm: 25.0,
            coord_norm: 50.0,
            coord_sample_range: (-100.0, 25.0),
            randomize_coord: true,
            queue_capacity: 200.0,
            squash_training_reward: true,
            project_shares: true,
        }
    }
}

/// One grid dataset per slice slot, generated from the prototype
/// capacities: what a [`ServiceModel::Dataset`] environment serves with.
pub(crate) fn slot_datasets(slices: &[SliceSpec]) -> Vec<Arc<GridDataset>> {
    let caps = RaCapacities::prototype();
    slices
        .iter()
        .map(|s| Arc::new(GridDataset::generate(s.app, caps)))
        .collect()
}

/// The per-RA environment (Fig. 5).
pub struct RaSliceEnv {
    config: RaEnvConfig,
    traffic: Vec<Box<dyn TrafficSource + Send>>,
    model: ServiceModel,
    queues: Vec<ServiceQueue>,
    /// Coordinating information `z − y` per slice.
    coord: Vec<f64>,
    /// Interval index within the current period.
    t: usize,
    /// Global interval counter (drives trace position across periods).
    global_t: usize,
    /// Last per-slice performance `U^{(t)}`.
    last_perf: Vec<f64>,
    /// Last applied shares.
    last_shares: Vec<DomainShares>,
    /// Last per-slice service time, seconds.
    last_service: Vec<f64>,
    /// Per-domain capacity multipliers `[radio, transport, compute]` from
    /// fault injection (`1.0` when healthy): a share `x` of a degraded
    /// domain delivers what `x · scale` of the nominal capacity would. The
    /// one store of a degraded domain, for both service models.
    capacity_scale: [f64; 3],
    /// Per-slice activity flags (dynamic workloads): an inactive slot's
    /// shares are zeroed before the Eq. 15 penalty and before service, its
    /// traffic draw is discarded, and its performance is 0. Traffic is
    /// still *drawn* each interval so the round RNG stream is identical
    /// whatever the live slice set.
    active: Vec<bool>,
    /// Negotiated per-slice rate overrides: `Some(r)` replaces the
    /// construction-time source with `Poisson(r)` (dynamic admission or
    /// resize), `None` keeps the configured source.
    rate_overrides: Vec<Option<f64>>,
    /// [`RaSliceEnv::advance_scratch`]'s flat slice-major share buffer:
    /// the raw (clamped, inactive-zeroed) action, then — projected in
    /// place — the feasible one, then that times the capacity scale: the
    /// nominal shares the service model sees. Together with `last_shares`,
    /// `last_service` and `last_perf` it is all the storage an interval
    /// needs, so a step never touches the allocator.
    flat_shares: Vec<f64>,
}

impl std::fmt::Debug for RaSliceEnv {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RaSliceEnv")
            .field("config", &self.config)
            .field("model", &self.model)
            .field("t", &self.t)
            .field("queues", &self.queue_lengths())
            .finish_non_exhaustive()
    }
}

impl RaSliceEnv {
    /// Builds a training environment over grid datasets of its own,
    /// generated from the prototype capacities.
    pub fn with_dataset(config: RaEnvConfig, traffic: Vec<Box<dyn TrafficSource + Send>>) -> Self {
        let datasets = slot_datasets(&config.slices);
        Self::new(config, traffic, ServiceModel::Dataset(datasets))
    }

    /// Builds an environment over explicit substrates.
    ///
    /// # Panics
    ///
    /// Panics if the traffic-source count differs from the slice count.
    pub fn new(
        config: RaEnvConfig,
        traffic: Vec<Box<dyn TrafficSource + Send>>,
        model: ServiceModel,
    ) -> Self {
        assert_eq!(
            traffic.len(),
            config.slices.len(),
            "one traffic source per slice"
        );
        let n = config.slices.len();
        let queues = vec![ServiceQueue::with_capacity(config.queue_capacity); n];
        Self {
            config,
            traffic,
            model,
            queues,
            coord: vec![0.0; n],
            t: 0,
            global_t: 0,
            last_perf: vec![0.0; n],
            last_shares: vec![DomainShares::new(0.0, 0.0, 0.0); n],
            last_service: vec![f64::INFINITY; n],
            capacity_scale: [1.0; 3],
            active: vec![true; n],
            rate_overrides: vec![None; n],
            flat_shares: Vec::with_capacity(n * ResourceKind::COUNT),
        }
    }

    /// Per-slice activity flags (all `true` for static workloads).
    pub fn slice_active(&self) -> &[bool] {
        &self.active
    }

    /// Per-slice negotiated rate overrides (`None` = configured source).
    pub fn rate_overrides(&self) -> &[Option<f64>] {
        &self.rate_overrides
    }

    /// Activates or deactivates slice `i`. Either transition flushes the
    /// slot's queue: a departing tenant takes its backlog with it, and an
    /// arriving one starts empty.
    ///
    /// # Panics
    ///
    /// Panics if `i` is beyond the slice capacity.
    pub(crate) fn set_slice_active(&mut self, i: usize, active: bool) {
        assert!(i < self.n_slices(), "slice {i} beyond capacity");
        if self.active[i] != active {
            self.queues[i].flush();
        }
        self.active[i] = active;
    }

    /// Installs the negotiated Poisson rate for slice `i` (dynamic
    /// admission or in-place resize).
    ///
    /// # Panics
    ///
    /// Panics if `i` is beyond the slice capacity or `rate` is not a
    /// finite non-negative number.
    pub(crate) fn set_slice_rate(&mut self, i: usize, rate: f64) {
        assert!(i < self.n_slices(), "slice {i} beyond capacity");
        self.traffic[i] = Box::new(edgeslice_netsim::PoissonTraffic::new(rate));
        self.rate_overrides[i] = Some(rate);
    }

    /// Converges the environment onto an absolute lifecycle state from the
    /// coordinator (idempotent; diffs against local state so repeated
    /// applications are free and a worker that missed rounds self-heals).
    ///
    /// # Errors
    ///
    /// Returns [`crate::EdgeSliceError::SnapshotMismatch`] if the state is
    /// shaped for a different slice capacity; the environment is left
    /// untouched.
    pub(crate) fn apply_lifecycle(
        &mut self,
        state: &crate::workload::LifecycleState,
    ) -> Result<(), crate::EdgeSliceError> {
        let n = self.n_slices();
        if state.active.len() != n || state.rates.len() != n {
            return Err(crate::EdgeSliceError::SnapshotMismatch {
                reason: format!(
                    "lifecycle state covers {} slots, environment has {n}",
                    state.active.len()
                ),
            });
        }
        for i in 0..n {
            if let Some(rate) = state.rates[i] {
                if self.rate_overrides[i] != Some(rate) {
                    self.set_slice_rate(i, rate);
                }
            }
            if state.active[i] != self.active[i] {
                self.set_slice_active(i, state.active[i]);
            }
        }
        Ok(())
    }

    /// Restores lifecycle flags captured by a durable snapshot. Unlike
    /// `RaSliceEnv::apply_lifecycle` this never flushes queues — the
    /// snapshot's queues already reflect every past transition.
    ///
    /// # Panics
    ///
    /// Panics on a slice-capacity mismatch.
    pub fn restore_lifecycle(&mut self, active: &[bool], rates: &[Option<f64>]) {
        assert_eq!(active.len(), self.n_slices(), "active flag count mismatch");
        assert_eq!(rates.len(), self.n_slices(), "rate override count mismatch");
        self.active.copy_from_slice(active);
        for (i, rate) in rates.iter().enumerate() {
            if let Some(r) = rate {
                if self.rate_overrides[i] != Some(*r) {
                    self.traffic[i] = Box::new(edgeslice_netsim::PoissonTraffic::new(*r));
                    self.rate_overrides[i] = Some(*r);
                }
            }
        }
    }

    /// Scales each domain's capacity (fault injection; `[1.0; 3]` restores
    /// full capacity). Every interval then feeds either service model the
    /// shares times this scale.
    ///
    /// # Panics
    ///
    /// Panics unless every multiplier is finite and in `(0, 1]`.
    pub fn set_capacity_scale(&mut self, scale: [f64; 3]) {
        for s in scale {
            assert!(
                s.is_finite() && s > 0.0 && s <= 1.0,
                "capacity scale {s} not in (0, 1]"
            );
        }
        self.capacity_scale = scale;
    }

    /// The per-domain capacity multipliers in effect.
    pub fn capacity_scale(&self) -> [f64; 3] {
        self.capacity_scale
    }

    /// Number of slices.
    pub fn n_slices(&self) -> usize {
        self.config.slices.len()
    }

    /// Current queue backlogs (the paper's `l`).
    pub fn queue_lengths(&self) -> Vec<f64> {
        let mut lengths = Vec::with_capacity(self.n_slices());
        self.queue_lengths_into(&mut lengths);
        lengths
    }

    /// [`RaSliceEnv::queue_lengths`] into a caller-owned buffer (cleared
    /// and refilled; allocation-free once its capacity has warmed up).
    pub fn queue_lengths_into(&self, lengths: &mut Vec<f64>) {
        lengths.clear();
        lengths.extend(self.queues.iter().map(ServiceQueue::backlog));
    }

    /// Sets the coordinating information `z − y` (one value per slice) —
    /// the RC-L message from the performance coordinator.
    ///
    /// # Panics
    ///
    /// Panics on a length mismatch.
    pub fn set_coordination(&mut self, zy: &[f64]) {
        assert_eq!(zy.len(), self.coord.len(), "coordination length mismatch");
        self.coord.copy_from_slice(zy);
    }

    /// The coordinating information currently in effect.
    pub fn coordination(&self) -> &[f64] {
        &self.coord
    }

    /// Per-slice performance of the most recent interval.
    pub(crate) fn last_performance(&self) -> &[f64] {
        &self.last_perf
    }

    /// Shares applied in the most recent interval.
    pub fn last_shares(&self) -> &[DomainShares] {
        &self.last_shares
    }

    /// Per-slice service times of the most recent interval, seconds.
    pub fn last_service_times(&self) -> &[f64] {
        &self.last_service
    }

    /// The per-slot grid datasets of a dataset-model environment.
    #[cfg(test)]
    pub(crate) fn datasets(&self) -> &[Arc<GridDataset>] {
        match &self.model {
            ServiceModel::Dataset(datasets) => datasets,
            ServiceModel::Physical(_) => &[],
        }
    }

    /// Switches between training-mode (randomized coordination at reset)
    /// and orchestration-mode (externally controlled).
    pub fn set_randomize_coord(&mut self, randomize: bool) {
        self.config.randomize_coord = randomize;
    }

    /// Clears the queues (the orchestrator does this once at start-up, not
    /// between coordination rounds).
    pub fn clear_queues(&mut self) {
        for q in &mut self.queues {
            q.flush();
        }
    }

    /// The per-slice service queues, for durable snapshots. Together with
    /// [`RaSliceEnv::coordination`] and [`RaSliceEnv::global_t`] this is
    /// the complete round-boundary state of the environment: `observe`
    /// reads only queues + coordination, and traffic draws are a pure
    /// function of `global_t` plus the domain-separated round stream.
    pub fn queues(&self) -> &[ServiceQueue] {
        &self.queues
    }

    /// The global interval counter (trace position across rounds).
    pub fn global_t(&self) -> usize {
        self.global_t
    }

    /// Restores the round-boundary state captured by a durable snapshot:
    /// service queues, coordination vector, and trace position.
    ///
    /// # Panics
    ///
    /// Panics if `queues` or `coord` do not match the slice count.
    pub fn restore_round_state(
        &mut self,
        queues: Vec<ServiceQueue>,
        coord: &[f64],
        global_t: usize,
    ) {
        assert_eq!(queues.len(), self.n_slices(), "queue count mismatch");
        assert_eq!(coord.len(), self.n_slices(), "coordination length mismatch");
        self.queues = queues;
        self.coord = coord.to_vec();
        self.global_t = global_t;
    }

    /// Assembles the observation (Eq. 13), normalized.
    ///
    /// Both halves of the state saturate at the range the agent trained
    /// over: out-of-range signals (a coordination target beyond the
    /// sampled range, a queue beyond the training coverage) clamp to the
    /// nearest trained value instead of driving the actor into input
    /// regions it never saw — the deployed-policy analogue of input
    /// standardization.
    pub fn observe(&self) -> Vec<f64> {
        let mut s = Vec::with_capacity(self.state_dim());
        self.observe_into(&mut s);
        s
    }

    /// [`RaSliceEnv::observe`] into a caller-owned buffer (cleared and
    /// refilled; allocation-free once its capacity has warmed up).
    pub fn observe_into(&self, s: &mut Vec<f64>) {
        s.clear();
        if self.config.state_spec == StateSpec::Full {
            // The queue observation spans the whole buffer range (the
            // capacity bound already saturates it physically).
            let max_obs = self.config.queue_capacity / self.config.queue_norm;
            for q in &self.queues {
                s.push((q.backlog() / self.config.queue_norm).min(max_obs));
            }
        }
        let (lo, hi) = self.config.coord_sample_range;
        for &c in &self.coord {
            s.push(c.clamp(lo, hi) / self.config.coord_norm);
        }
    }

    /// Runs one interval and returns `(reward, per-slice U)`: the
    /// allocating form of [`RaSliceEnv::advance_scratch`].
    pub fn advance(&mut self, action: &[f64], rng: &mut StdRng) -> (f64, Vec<f64>) {
        let r = self.advance_scratch(action, rng);
        (r, self.last_perf.clone())
    }

    /// Runs one interval on a normalized action (Eq. 14 layout:
    /// slice-major, `[radio, transport, compute]` per slice) inside the
    /// environment's own buffers and returns the reward; the per-slice
    /// `U`, the applied shares and the service times are left in
    /// `RaSliceEnv::last_performance`, [`RaSliceEnv::last_shares`] and
    /// [`RaSliceEnv::last_service_times`]. Shared by the RL trait impl and
    /// the orchestrator loop; against a dataset model it never touches the
    /// allocator.
    ///
    /// # Panics
    ///
    /// Panics if `action.len() != action_dim()`.
    pub fn advance_scratch(&mut self, action: &[f64], rng: &mut StdRng) -> f64 {
        assert_eq!(action.len(), self.action_dim(), "action length mismatch");
        let k = ResourceKind::COUNT;
        // The Eq. 15 capacity penalty is computed on the raw action (its
        // per-resource sums, in slice order); the substrates only ever see
        // a feasible (projected) one. An inactive slot's shares are zeroed
        // first: a departed tenant neither holds capacity nor pays the
        // over-allocation penalty.
        let mut sums = [0.0; ResourceKind::COUNT];
        self.flat_shares.clear();
        for (i, &active) in self.active.iter().enumerate() {
            let raw = if active {
                DomainShares::new(action[k * i], action[k * i + 1], action[k * i + 2])
            } else {
                DomainShares::new(0.0, 0.0, 0.0)
            };
            for (s, v) in sums.iter_mut().zip(raw.as_array()) {
                *s += v;
            }
            self.flat_shares.extend(raw.as_array());
        }
        if self.config.project_shares {
            crate::project_action_per_resource(&mut self.flat_shares, self.active.len());
        }
        // A share `x` of a capacity scaled by `s` delivers what `x·s` of
        // the nominal capacity would, and both service models take nominal
        // shares: the grid is indexed by them, the substrates size their
        // PRBs, meters and thread budgets by them.
        let (shares, _) = self.flat_shares.as_chunks_mut::<{ ResourceKind::COUNT }>();
        for (sh, x) in self.last_shares.iter_mut().zip(shares.iter_mut()) {
            let [radio, transport, computing] = *x;
            *sh = DomainShares::new(radio, transport, computing);
            for ((x, share), s) in x.iter_mut().zip(sh.as_array()).zip(self.capacity_scale) {
                *x = share * s;
            }
        }
        let (nominal, _) = self.flat_shares.as_chunks::<{ ResourceKind::COUNT }>();
        match &mut self.model {
            ServiceModel::Dataset(datasets) => {
                for ((time, &x), d) in self
                    .last_service
                    .iter_mut()
                    .zip(nominal)
                    .zip(datasets.iter())
                {
                    // Path-qualified, not `d.predict(..)`: the lint's call
                    // graph resolves method calls within one crate only,
                    // and this is the call it must follow — into netsim's
                    // fit and optim's solve.
                    *time = GridDataset::predict(d, x);
                }
            }
            ServiceModel::Physical(ra) => {
                let shares = nominal.iter().map(|&[r, t, c]| DomainShares::new(r, t, c));
                let apps = self.config.slices.iter().map(|s| s.app);
                // lint:allow(hot-path-alloc): the testbed arm — `service_times` re-configures the eNB/SDN/GPU models and allocates throughout, by design; the simulated `Dataset` step this family guards is pinned by tests/zero_alloc_step.rs
                let (shares, apps) = (shares.collect::<Vec<_>>(), apps.collect::<Vec<_>>());
                self.last_service = ra.service_times(&shares, &apps);
            }
        }

        // Queue dynamics: arrivals, then service at Δt / service_time.
        // Traffic is drawn for *every* slot — and discarded for inactive
        // ones — so the round RNG stream is identical whatever the live
        // slice set (the determinism contract under churn).
        for (i, ((queue, traffic), &service_time)) in self
            .queues
            .iter_mut()
            .zip(&self.traffic)
            .zip(&self.last_service)
            .enumerate()
        {
            let arrivals = traffic.arrivals(self.global_t, rng);
            if !self.active[i] {
                self.last_perf[i] = 0.0;
                continue;
            }
            queue.arrive(arrivals);
            let capacity = if service_time.is_finite() && service_time > 0.0 {
                self.config.interval_s / service_time
            } else {
                0.0
            };
            queue.serve(capacity);
            self.last_perf[i] = self.config.perf.evaluate(queue.backlog(), service_time);
        }

        self.t += 1;
        self.global_t += 1;
        // Eq. 15 reward: per-resource allocation sums vs unit capacity.
        reward(
            &self.config.reward,
            &self.last_perf,
            &self.coord,
            &sums,
            &[1.0, 1.0, 1.0],
        )
    }
}

impl Environment for RaSliceEnv {
    fn state_dim(&self) -> usize {
        self.config.state_spec.dim(self.n_slices())
    }

    fn action_dim(&self) -> usize {
        self.n_slices() * ResourceKind::COUNT
    }

    fn reset(&mut self, rng: &mut StdRng) -> Vec<f64> {
        self.t = 0;
        for q in &mut self.queues {
            q.flush();
            // A random initial backlog diversifies training starts and
            // covers the loaded states the deployed agent will encounter.
            q.arrive(rng.gen_range(0.0..20.0));
        }
        if self.config.randomize_coord {
            let (lo, hi) = self.config.coord_sample_range;
            for c in &mut self.coord {
                *c = rng.gen_range(lo..hi);
            }
        }
        self.observe()
    }

    fn step(&mut self, action: &[f64], rng: &mut StdRng) -> Step {
        let raw = self.advance_scratch(action, rng);
        let reward = if self.config.squash_training_reward {
            raw.asinh()
        } else {
            raw
        };
        let done = self.t >= self.config.reward.period;
        Step {
            next_state: self.observe(),
            reward,
            done,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgeslice_netsim::PoissonTraffic;

    fn env(spec: StateSpec) -> RaSliceEnv {
        let mut config = RaEnvConfig::experiment(vec![
            SliceSpec::experiment_slice1(),
            SliceSpec::experiment_slice2(),
        ]);
        config.state_spec = spec;
        RaSliceEnv::with_dataset(
            config,
            vec![
                Box::new(PoissonTraffic::paper()),
                Box::new(PoissonTraffic::paper()),
            ],
        )
    }

    #[test]
    fn dimensions_match_paper() {
        let full = env(StateSpec::Full);
        assert_eq!(full.state_dim(), 4); // 2 queues + 2 coordination signals
        assert_eq!(full.action_dim(), 6); // 2 slices × 3 resources
        let nt = env(StateSpec::CoordinationOnly);
        assert_eq!(nt.state_dim(), 2);
    }

    #[test]
    fn episode_ends_after_period() {
        let mut rng = crate::test_rng(0);
        let mut e = env(StateSpec::Full);
        e.reset(&mut rng);
        let mut steps = 0;
        loop {
            let s = e.step(&[0.4; 6], &mut rng);
            steps += 1;
            if s.done {
                break;
            }
        }
        assert_eq!(steps, RewardParams::paper().period);
    }

    #[test]
    fn starving_a_slice_grows_its_queue() {
        let mut rng = crate::test_rng(1);
        let mut e = env(StateSpec::Full);
        e.reset(&mut rng);
        // Slice 0 gets everything; slice 1 nothing.
        let action = [1.0, 1.0, 1.0, 0.0, 0.0, 0.0];
        for _ in 0..5 {
            e.step(&action, &mut rng);
        }
        let l = e.queue_lengths();
        assert!(l[1] > 20.0, "starved queue should grow, got {}", l[1]);
        assert!(l[0] < l[1]);
        // Starved performance is strongly negative.
        assert!(e.last_performance()[1] < -400.0);
    }

    #[test]
    fn over_allocation_is_penalized_in_reward() {
        let mut rng = crate::test_rng(2);
        let mut e = env(StateSpec::Full);
        e.reset(&mut rng);
        e.set_randomize_coord(false);
        e.set_coordination(&[0.0, 0.0]);
        e.clear_queues();
        // Duplicate env to compare rewards on identical traffic.
        let (r_ok, _) = e.advance(&[0.5, 0.5, 0.5, 0.5, 0.5, 0.5], &mut rng);
        let mut rng2 = crate::test_rng(2);
        let mut e2 = env(StateSpec::Full);
        e2.reset(&mut rng2);
        e2.set_randomize_coord(false);
        e2.set_coordination(&[0.0, 0.0]);
        e2.clear_queues();
        let (r_over, _) = e2.advance(&[1.0, 1.0, 1.0, 1.0, 1.0, 1.0], &mut rng2);
        // Over-allocation serves faster but pays β = 20 per unit excess ×
        // 3 resources = 60; it must not out-score the feasible action.
        assert!(r_ok > r_over, "feasible {r_ok} vs over-allocated {r_over}");
    }

    #[test]
    fn nt_state_excludes_queues() {
        let mut rng = crate::test_rng(3);
        let mut e = env(StateSpec::CoordinationOnly);
        e.set_randomize_coord(false);
        e.set_coordination(&[-10.0, -20.0]);
        e.reset(&mut rng);
        let s1 = e.observe();
        // Grow the queues; the observation must not change.
        for _ in 0..3 {
            e.step(&[0.0; 6], &mut rng);
        }
        let s2 = e.observe();
        assert_eq!(s1, s2);
    }

    #[test]
    fn coordination_enters_the_state_normalized() {
        let mut e = env(StateSpec::Full);
        e.set_coordination(&[-25.0, -50.0]);
        let s = e.observe();
        assert!((s[2] + 0.5).abs() < 1e-12);
        assert!((s[3] + 1.0).abs() < 1e-12);
    }

    #[test]
    fn physical_service_times_degrade_and_restore_bit_for_bit() {
        let mut e = RaSliceEnv::new(
            env(StateSpec::Full).config,
            vec![
                Box::new(PoissonTraffic::paper()),
                Box::new(PoissonTraffic::paper()),
            ],
            ServiceModel::Physical(Box::new(ResourceAutonomy::prototype(0, 2))),
        );
        let mut rng = crate::test_rng(4);
        let action = [0.6, 0.5, 0.4, 0.4, 0.5, 0.6];
        let mut times = |e: &mut RaSliceEnv, scale| {
            e.set_capacity_scale(scale);
            e.advance(&action, &mut rng);
            let bits = e.last_service_times().iter().map(|t| t.to_bits());
            bits.collect::<Vec<_>>()
        };
        let healthy = times(&mut e, [1.0; 3]);
        let degraded = times(&mut e, [1.0, 0.5, 0.5]);
        for (d, h) in degraded.iter().zip(&healthy) {
            assert!(f64::from_bits(*d) > f64::from_bits(*h));
        }
        // The scale reaches the service model only: the recorded
        // allocation is the action's.
        assert_eq!(e.last_shares()[0], DomainShares::new(0.6, 0.5, 0.4));
        assert_eq!(times(&mut e, [1.0; 3]), healthy);
    }

    #[test]
    #[should_panic(expected = "capacity scale")]
    fn zero_capacity_scale_is_rejected() {
        env(StateSpec::Full).set_capacity_scale([0.0, 1.0, 1.0]);
    }
}
