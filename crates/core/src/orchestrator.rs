//! The EdgeSlice resource-orchestration workflow (paper Alg. 1).
//!
//! A period `T` at a time, every RA's orchestration agent acts on its local
//! state under the current coordinating information; at the period's end
//! the performance coordinator runs the `z`/`y` updates and broadcasts
//! fresh `z − y`, iterating until the ADMM residuals converge.

use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use edgeslice_optim::{project_capacity_strided, AdmmConfig, AdmmResiduals};
use edgeslice_rl::Technique;
use edgeslice_runtime::{
    caps, derive_stream_seed, par_map, Control, Engine, Lease, NetCoordinator, NodeInfo, RaReport,
    RoundCoordinator, RoundWorker, Scheduler, Supervisor, SupervisorConfig, Transport,
    TransportError, WorkerCommand, WorkerSession, DOMAIN_ORCH, DOMAIN_TRAIN,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use edgeslice_netsim::{
    AppProfile, ComputationModel, DiurnalTrace, FrameResolution, PoissonTraffic, TrafficSource,
};

use crate::exec::{RaExecWorker, SystemExecCoordinator, WorkerPolicy};
use crate::store::{CheckpointStore, TrainSnapshot, WorkerSnapshot};
use crate::{
    AgentConfig, EdgeSliceError, FaultInjector, OrchestrationAgent, PerformanceCoordinator,
    PerformanceFunction, PolicyCheckpoint, QueuePenalty, RaEnvConfig, RaId, RaSliceEnv,
    RewardParams, Sla, SliceId, SliceSpec, StateSpec, SystemMonitor,
};

/// Traffic model shared by every (slice, RA) pair.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum TrafficKind {
    /// Stationary Poisson arrivals (prototype experiments, rate 10).
    Poisson(f64),
    /// Synthetic diurnal traces (trace-driven simulations), randomized per
    /// (slice, RA) around the given base rate.
    Diurnal {
        /// Peak arrivals per interval.
        base: f64,
    },
}

/// Full system configuration.
#[derive(Clone)]
pub struct SystemConfig {
    /// Slice specifications (apps + SLAs).
    pub slices: Vec<SliceSpec>,
    /// Number of resource autonomies.
    pub n_ras: usize,
    /// Reward weights and the period length `T`.
    pub reward: RewardParams,
    /// Agent observability (EdgeSlice vs EdgeSlice-NT).
    pub state_spec: StateSpec,
    /// ADMM convergence parameters.
    pub admm: AdmmConfig,
    /// Traffic model.
    pub traffic: TrafficKind,
    /// The hidden slice performance function.
    pub perf: Arc<dyn PerformanceFunction>,
    /// Range for randomized coordination during offline training.
    pub coord_sample_range: (f64, f64),
    /// Project evaluated actions onto per-resource capacity (what the
    /// physical managers enforce anyway). Training is never projected.
    pub project_actions: bool,
}

impl std::fmt::Debug for SystemConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SystemConfig")
            .field("slices", &self.slices.len())
            .field("n_ras", &self.n_ras)
            .field("period", &self.reward.period)
            .field("state_spec", &self.state_spec)
            .field("traffic", &self.traffic)
            .finish_non_exhaustive()
    }
}

impl SystemConfig {
    /// The prototype experiments (Sec. VII-C): 2 slices (traffic-heavy +
    /// compute-heavy), 2 RAs, Poisson(10) traffic, `t = 1 s`, `T = 10`,
    /// `Umin = −50`, `ρ = 1`, `β = 20`.
    pub fn prototype() -> Self {
        Self {
            slices: vec![
                SliceSpec::experiment_slice1(),
                SliceSpec::experiment_slice2(),
            ],
            n_ras: 2,
            reward: RewardParams::paper(),
            state_spec: StateSpec::Full,
            admm: AdmmConfig::default(),
            traffic: TrafficKind::Poisson(10.0),
            perf: Arc::new(QueuePenalty::paper()),
            coord_sample_range: (-100.0, 25.0),
            project_actions: true,
        }
    }

    /// The trace-driven simulations (Sec. VII-D): `n_slices` slices with
    /// randomly selected frame resolutions and computation models,
    /// `n_ras` RAs, diurnal traffic, `T = 24` intervals (one per hour).
    pub fn simulation(n_slices: usize, n_ras: usize, rng: &mut StdRng) -> Self {
        // The experiments' Umin = −50 is calibrated to 2 RAs × T=10; keep
        // the same per-(RA, interval) stringency as the network grows so
        // the SLA stays meaningful (and the ADMM duals stay interior).
        let umin = -50.0 * (n_ras as f64 / 2.0) * (24.0 / 10.0);
        let slices = (0..n_slices)
            .map(|i| {
                let res = FrameResolution::ALL[rng.gen_range(0..3)];
                let model = ComputationModel::ALL[rng.gen_range(0..3)];
                SliceSpec::new(SliceId(i), AppProfile::new(res, model), Sla::new(umin))
            })
            .collect();
        Self {
            slices,
            n_ras,
            reward: RewardParams {
                period: 24,
                ..RewardParams::paper()
            },
            state_spec: StateSpec::Full,
            admm: AdmmConfig::default(),
            traffic: TrafficKind::Diurnal { base: 12.0 },
            perf: Arc::new(QueuePenalty::paper()),
            coord_sample_range: (-100.0, 25.0),
            project_actions: true,
        }
    }

    /// The EdgeSlice-NT ablation of this configuration.
    pub fn without_traffic_state(mut self) -> Self {
        self.state_spec = StateSpec::CoordinationOnly;
        self
    }

    fn make_traffic(&self, rng: &mut StdRng) -> Vec<Box<dyn TrafficSource + Send>> {
        self.slices
            .iter()
            .map(|_| -> Box<dyn TrafficSource + Send> {
                match self.traffic {
                    TrafficKind::Poisson(rate) => Box::new(PoissonTraffic::new(rate)),
                    TrafficKind::Diurnal { base } => Box::new(DiurnalTrace::random_area(base, rng)),
                }
            })
            .collect()
    }

    fn make_env(&self, rng: &mut StdRng) -> RaSliceEnv {
        let env_config = RaEnvConfig {
            slices: self.slices.clone(),
            perf: Arc::clone(&self.perf),
            reward: self.reward,
            state_spec: self.state_spec,
            interval_s: 1.0,
            queue_norm: 25.0,
            coord_norm: 50.0,
            coord_sample_range: self.coord_sample_range,
            randomize_coord: true,
            queue_capacity: 200.0,
            squash_training_reward: true,
            project_shares: true,
        };
        RaSliceEnv::with_dataset(env_config, self.make_traffic(rng))
    }
}

/// Which orchestration policy drives the system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OrchestratorKind {
    /// A learned per-RA agent (EdgeSlice / EdgeSlice-NT, by state spec).
    Learned(Technique),
    /// The TARO proportional baseline.
    Taro,
}

/// One coordination round's outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoundRecord {
    /// Round index.
    pub round: usize,
    /// `Σ_{i,j,t} U` of the round.
    pub system_performance: f64,
    /// `Σ_{j,t} U` per slice.
    pub slice_performance: Vec<f64>,
    /// Mean `[radio, transport, compute]` usage per slice.
    pub usage: Vec<[f64; 3]>,
    /// ADMM residuals after the coordinator update.
    pub residuals: AdmmResiduals,
    /// Whether each slice's SLA held this round. Under outages the target
    /// is prorated by `served_fraction` — dark intervals are excluded from
    /// SLA accounting rather than counted as zero-performance service.
    pub sla_met: Vec<bool>,
    /// RAs that were dark this round.
    pub outages: Vec<RaId>,
    /// RAs whose supervised worker went down this round (caught panic,
    /// exhausted restart budget, or dead channel) — reported explicitly,
    /// never silently truncated into a missing report.
    pub downed: Vec<RaId>,
    /// Malformed reports (wrong round, unknown RA, duplicate slot) the
    /// gather loop dropped with a trace this round.
    pub discarded_reports: usize,
    /// Fraction of this round's (RA, interval) pairs that served traffic
    /// (`1.0` in a fault-free round).
    pub served_fraction: f64,
    /// End-of-round queue backlog per RA (summed over slices; `0.0` for an
    /// RA whose report never arrived).
    pub load: Vec<f64>,
}

/// One supervision event: a worker that could not report this round.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DownEvent {
    /// The downed RA.
    pub ra: RaId,
    /// Global round index of the event.
    pub round: usize,
    /// Human-readable cause (`"panic: …"`, `"restart budget exhausted"`,
    /// `"worker channel disconnected"`).
    pub cause: String,
}

/// Aggregate supervision telemetry for a run: what went down, when, and
/// what the engine's gather loop had to discard or time out on.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct SupervisionStats {
    /// Every worker-down event, in round order (RA-sorted within a round).
    pub worker_downs: Vec<DownEvent>,
    /// Rounds whose wall-clock report deadline expired.
    pub deadline_timeouts: usize,
    /// Rounds that ended with a dead worker channel.
    pub disconnects: usize,
    /// Malformed reports dropped at the gather loop across the run.
    pub discarded_reports: usize,
    /// Networked mode: frame sends retried after a transient failure and
    /// ultimately delivered — "the network flaked but recovered". Always
    /// zero in-process.
    pub send_retries: usize,
    /// Networked mode: frame sends abandoned after the bounded retry
    /// budget (the link broke; the lease decides whether the worker is
    /// down). Always zero in-process.
    pub sends_abandoned: usize,
    /// Networked mode: leases that lapsed into a
    /// [`edgeslice_runtime::DownCause::LeaseExpired`] down event — "the
    /// worker died". Always zero in-process.
    pub leases_expired: usize,
    /// Networked mode: workers re-admitted after a lease expiry (a sign
    /// of life or a fresh registration from a respawned process). Always
    /// zero in-process.
    pub rejoins: usize,
}

/// The full run's outcome.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct RunReport {
    /// Per-round records, in order.
    pub rounds: Vec<RoundRecord>,
    /// Supervision telemetry accumulated over the run.
    pub supervision: SupervisionStats,
    /// Per-slot lifecycle outcomes (admit round, depart round, reject
    /// reason, resize count) for dynamic-workload runs; empty for static
    /// runs.
    pub slice_lifetimes: Vec<crate::SliceLifetime>,
}

impl RunReport {
    /// System performance of the final round.
    pub fn final_system_performance(&self) -> f64 {
        self.rounds.last().map_or(0.0, |r| r.system_performance)
    }

    /// Serializes the report to JSON (for offline analysis/plotting).
    ///
    /// # Errors
    ///
    /// Returns [`EdgeSliceError::Serialization`] on failure (practically
    /// impossible for this structure).
    pub fn to_json(&self) -> Result<String, EdgeSliceError> {
        serde_json::to_string_pretty(self).map_err(EdgeSliceError::from)
    }

    /// Mean system performance over the last `n` rounds (a stabler
    /// convergence figure than the single final round).
    pub fn tail_system_performance(&self, n: usize) -> f64 {
        if self.rounds.is_empty() {
            return 0.0;
        }
        let tail = &self.rounds[self.rounds.len().saturating_sub(n)..];
        tail.iter().map(|r| r.system_performance).sum::<f64>() / tail.len() as f64
    }
}

/// The assembled EdgeSlice system: envs + agents + coordinator + monitor.
///
/// All round execution and training is delegated to the
/// [`edgeslice_runtime`] engine; [`EdgeSliceSystem::set_scheduler`] picks
/// between the inline reference topology and worker threads. Both produce
/// bit-identical [`RunReport`]s for the same seed.
pub struct EdgeSliceSystem {
    config: SystemConfig,
    kind: OrchestratorKind,
    envs: Vec<RaSliceEnv>,
    agents: Vec<OrchestrationAgent>,
    coordinator: PerformanceCoordinator,
    monitor: SystemMonitor,
    scheduler: Scheduler,
    round_deadline: Duration,
    straggle_sleep: Duration,
    /// Supervision policy for worker panics (restart budget + backoff).
    supervision: SupervisorConfig,
    /// Durable snapshot store; when set, runs checkpoint every
    /// `checkpoint_every` rounds and training checkpoints per RA.
    store: Option<CheckpointStore>,
    checkpoint_every: usize,
    /// Per-RA policies restored from snapshots; when set, workers decide
    /// with these instead of the live agents (bit-identical either way).
    policy_overrides: Vec<Option<PolicyCheckpoint>>,
    /// Dynamic-workload state machine (see
    /// [`EdgeSliceSystem::set_workload`]); `None` = static slice set.
    workload: Option<crate::workload::SliceLifecycle>,
}

impl std::fmt::Debug for EdgeSliceSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EdgeSliceSystem")
            .field("kind", &self.kind)
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl EdgeSliceSystem {
    /// Assembles the system (envs, coordinator, and — for learned kinds —
    /// untrained agents).
    pub fn new(
        config: SystemConfig,
        kind: OrchestratorKind,
        agent_config: &AgentConfig,
        rng: &mut StdRng,
    ) -> Self {
        let envs: Vec<RaSliceEnv> = (0..config.n_ras).map(|_| config.make_env(rng)).collect();
        let agents = match kind {
            OrchestratorKind::Learned(technique) => (0..config.n_ras)
                .map(|j| OrchestrationAgent::new(RaId(j), technique, &envs[j], agent_config, rng))
                .collect(),
            OrchestratorKind::Taro => Vec::new(),
        };
        let slas: Vec<Sla> = config.slices.iter().map(|s| s.sla).collect();
        let coordinator = PerformanceCoordinator::new(&slas, config.n_ras, config.admm);
        let n_ras = config.n_ras;
        Self {
            config,
            kind,
            envs,
            agents,
            coordinator,
            monitor: SystemMonitor::new(),
            scheduler: Scheduler::Sequential,
            round_deadline: Duration::from_secs(30),
            straggle_sleep: Duration::ZERO,
            supervision: SupervisorConfig::default(),
            store: None,
            checkpoint_every: 4,
            policy_overrides: vec![None; n_ras],
            workload: None,
        }
    }

    /// Selects the execution topology for subsequent `run*`/`train*`
    /// calls. [`Scheduler::Sequential`] (the default) runs every RA inline
    /// on the caller's thread; [`Scheduler::Threaded`] shards RAs across
    /// worker threads. Reports are bit-identical either way.
    pub fn set_scheduler(&mut self, scheduler: Scheduler) {
        self.scheduler = scheduler;
    }

    /// The execution topology in effect.
    pub fn scheduler(&self) -> Scheduler {
        self.scheduler
    }

    /// Sets the per-round wall-clock report deadline (default 30 s — a
    /// liveness backstop that only a hung worker ever misses; injected
    /// stragglers miss their deadline *logically* via the fault plan, so
    /// determinism is unaffected).
    pub fn set_round_deadline(&mut self, deadline: Duration) {
        self.round_deadline = deadline;
    }

    /// Makes injected stragglers also sleep for `delay` before reporting,
    /// so their reports are physically late on the channel (default zero:
    /// straggling stays purely logical and runs stay fast).
    pub fn set_straggle_sleep(&mut self, delay: Duration) {
        self.straggle_sleep = delay;
    }

    /// Sets the supervision policy applied to worker panics: restart
    /// budget per RA and the exponential backoff between respawns.
    pub fn set_supervision(&mut self, config: SupervisorConfig) {
        self.supervision = config;
    }

    /// Attaches a durable [`CheckpointStore`] at `dir`: subsequent runs
    /// write a crash-consistent snapshot every `every_k` rounds and
    /// training checkpoints each RA's trained policy, enabling
    /// [`EdgeSliceSystem::resume`].
    ///
    /// # Errors
    ///
    /// Returns [`EdgeSliceError::Io`] if the directory cannot be created.
    ///
    /// # Panics
    ///
    /// Panics if `every_k` is zero.
    pub fn set_checkpointing(&mut self, dir: &Path, every_k: usize) -> Result<(), EdgeSliceError> {
        assert!(every_k >= 1, "checkpoint cadence must be at least 1 round");
        self.store = Some(CheckpointStore::open(dir)?);
        self.checkpoint_every = every_k;
        Ok(())
    }

    /// The attached checkpoint store, if any.
    pub fn checkpoint_store(&self) -> Option<&CheckpointStore> {
        self.store.as_ref()
    }

    /// How many of this system's RAs currently decide with a
    /// snapshot-restored policy instead of a live agent.
    pub fn restored_policy_count(&self) -> usize {
        self.policy_overrides.iter().filter(|p| p.is_some()).count()
    }

    /// The system configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// The monitor database accumulated so far.
    pub fn monitor(&self) -> &SystemMonitor {
        &self.monitor
    }

    /// The performance coordinator.
    pub fn coordinator(&self) -> &PerformanceCoordinator {
        &self.coordinator
    }

    /// Trains every RA's agent offline for ~`env_steps` interactions each
    /// (randomized coordinating information, Sec. VI-A). No-op for TARO.
    ///
    /// Each (agent, env) pair trains on a private RNG stream derived from
    /// one master seed drawn from `rng`, so training parallelizes across
    /// RA workers under [`Scheduler::Threaded`] with results identical to
    /// the sequential schedule.
    /// With a [`CheckpointStore`] attached, each RA's trained policy (and
    /// end-of-training environment state) is persisted as it completes,
    /// and a re-run of the same `train` call — same seed sequence, same
    /// `env_steps` — skips straight to the stored outcome instead of
    /// retraining, so an interrupted train-then-run program resumes.
    pub fn train(&mut self, env_steps: usize, rng: &mut StdRng) {
        if self.agents.is_empty() {
            // TARO trains nothing, but deployment still starts from an
            // operational baseline (and the caller's rng is untouched).
            for env in &mut self.envs {
                env.clear_queues();
            }
            return;
        }
        let master = rng.gen::<u64>();
        // Per RA: resume from a matching train snapshot, or train live.
        let mut restored: Vec<Option<TrainSnapshot>> = vec![None; self.config.n_ras];
        if let Some(store) = &self.store {
            for (j, slot) in restored.iter_mut().enumerate() {
                match store.load_train(RaId(j)) {
                    Ok(Some(snap)) if snap.master_seed == master && snap.env_steps == env_steps => {
                        *slot = Some(snap);
                    }
                    // A snapshot from a different seed/length: retrain.
                    Ok(_) => {}
                    Err(err) => {
                        eprintln!(
                            "edgeslice: ignoring unreadable train snapshot for ra {j}: {err}"
                        );
                    }
                }
            }
        }
        let mut units: Vec<TrainUnit<'_>> = self
            .agents
            .iter_mut()
            .zip(&mut self.envs)
            .enumerate()
            .filter(|(j, _)| restored[*j].is_none())
            .map(|(j, (agent, env))| TrainUnit {
                ra: RaId(j),
                agent,
                env,
                rng: StdRng::seed_from_u64(derive_stream_seed(master, DOMAIN_TRAIN, j as u64)),
            })
            .collect();
        let sink = self.store.as_ref();
        par_map(self.scheduler, &mut units, |_, unit| {
            unit.agent.train(unit.env, env_steps, &mut unit.rng);
            // Deployment starts from an operational baseline, not whatever
            // backlog the final training episode left behind.
            unit.env.clear_queues();
            if let Some(store) = sink {
                let snap = TrainSnapshot {
                    ra: unit.ra,
                    master_seed: master,
                    env_steps,
                    policy: PolicyCheckpoint::from_agent(unit.agent),
                    env: WorkerSnapshot {
                        ra: unit.ra,
                        queues: unit.env.queues().to_vec(),
                        coordination: unit.env.coordination().to_vec(),
                        global_t: unit.env.global_t(),
                        was_down: false,
                        active: unit.env.slice_active().to_vec(),
                        rates: unit.env.rate_overrides().to_vec(),
                    },
                };
                if let Err(err) = store.save_train(&snap) {
                    eprintln!(
                        "edgeslice: train checkpoint write failed for ra {} (continuing): {err}",
                        unit.ra.0
                    );
                }
            }
        });
        drop(units);
        for (j, slot) in restored.into_iter().enumerate() {
            match slot {
                Some(snap) => {
                    // Skipped RA: re-install the stored outcome — policy
                    // and environment exactly as training left them.
                    self.envs[j].restore_round_state(
                        snap.env.queues,
                        &snap.env.coordination,
                        snap.env.global_t,
                    );
                    self.policy_overrides[j] = Some(snap.policy);
                }
                None => self.policy_overrides[j] = None,
            }
        }
    }

    /// Trains RA 0's agent and replicates it to every other RA — a large
    /// speed-up when all RAs are statistically identical (used by the
    /// scalability sweeps; the paper trains each agent, which is
    /// embarrassingly parallel on their testbed).
    pub fn train_shared(&mut self, env_steps: usize, rng: &mut StdRng) {
        if self.agents.is_empty() {
            return;
        }
        // Same stream derivation as `train` (worker 0's stream), so shared
        // and per-RA training draw from the same family of streams.
        let master = rng.gen::<u64>();
        let mut rng0 = StdRng::seed_from_u64(derive_stream_seed(master, DOMAIN_TRAIN, 0));
        if let (Some(agent), Some(env)) = (self.agents.first_mut(), self.envs.first_mut()) {
            agent.train(env, env_steps, &mut rng0);
        }
        // Re-decide the remaining agents from the trained one's policy by
        // round-tripping through its backend clone.
        let trained = self.agents.remove(0);
        let mut replicas = trained.replicate(self.config.n_ras);
        for env in &mut self.envs {
            env.set_randomize_coord(false);
            // Deployment starts from an operational baseline, not whatever
            // backlog the final training episode left behind.
            env.clear_queues();
        }
        self.agents.clear();
        self.agents.append(&mut replicas);
    }

    /// Installs replicas of a pre-trained agent on every RA (the
    /// counterpart of [`EdgeSliceSystem::train_shared`] when the agent was
    /// trained elsewhere, e.g. reused across a scalability sweep whose RA
    /// count varies but whose slice set does not).
    ///
    /// # Panics
    ///
    /// Panics if this is a TARO system.
    pub fn install_agents(&mut self, trained: &OrchestrationAgent) {
        assert!(
            matches!(self.kind, OrchestratorKind::Learned(_)),
            "cannot install agents on a TARO system"
        );
        self.agents = trained.replicate(self.config.n_ras);
        for env in &mut self.envs {
            env.set_randomize_coord(false);
        }
    }

    /// A clone of RA 0's (trained) agent, for installation into another
    /// system of the same slice set (e.g. a different network size in a
    /// scalability sweep).
    ///
    /// # Panics
    ///
    /// Panics on a TARO system.
    pub fn agent0(&self) -> OrchestrationAgent {
        self.agents
            .first()
            .expect(
                "invariant: agent0 is only called on learned systems, which hold one agent per RA",
            )
            .clone()
    }

    /// Snapshots every RA's current policy (restored checkpoint override
    /// when present, live agent otherwise) into a [`crate::PolicyFleet`]
    /// for batched cross-RA inference. After [`EdgeSliceSystem::train_shared`]
    /// or [`EdgeSliceSystem::install_agents`] the parameters are
    /// bit-identical across RAs, so the fleet collapses to one group and
    /// one fused GEMM chain per decision round; per-RA actions stay
    /// bit-identical to [`OrchestrationAgent::decide`].
    pub fn policy_fleet(&self, par: edgeslice_nn::Parallelism) -> crate::PolicyFleet {
        let policies = self
            .agents
            .iter()
            .zip(&self.policy_overrides)
            .map(|(agent, over)| match over {
                Some(p) => p.clone(),
                None => PolicyCheckpoint::from_agent(agent),
            })
            .collect();
        crate::PolicyFleet::new(policies, par)
    }

    /// A mutable handle to RA 0's environment (used to train an agent that
    /// will be installed elsewhere).
    ///
    /// # Panics
    ///
    /// Panics if the system has no RAs (impossible by construction).
    pub fn env0_mut(&mut self) -> &mut RaSliceEnv {
        self.envs
            .first_mut()
            .expect("invariant: systems are constructed with at least one RA")
    }

    /// Sets the coordinator's staleness budget: missed rounds tolerated
    /// before an RA is declared dead (default 3).
    pub fn set_staleness_budget(&mut self, rounds: usize) {
        self.coordinator.set_staleness_budget(rounds);
    }

    /// Attaches a dynamic workload: the plan's lifecycle events (arrivals,
    /// resizes, teardowns) are replayed online through `admission` by
    /// subsequent `run*` calls. The system must have been constructed with
    /// [`crate::WorkloadPlan::slot_specs`] as its slice set — policy
    /// network dimensions are fixed at construction, so every slot (initial
    /// slices plus planned arrivals) pre-exists and events merely activate
    /// or retire them.
    ///
    /// Initial slices are admitted immediately (a round-0 rejection is a
    /// recorded outcome, not an error); pending and rejected slots start
    /// deactivated in the ADMM coordinator and the substrate environments,
    /// so training and static reports are unaffected until events fire.
    ///
    /// # Errors
    ///
    /// Returns [`EdgeSliceError::InvalidWorkloadPlan`] if the plan's slot
    /// list does not match this system's configured slices.
    pub fn set_workload(
        &mut self,
        plan: crate::WorkloadPlan,
        admission: crate::AdmissionController,
    ) -> Result<(), EdgeSliceError> {
        let specs = plan.slot_specs();
        if specs != self.config.slices {
            return Err(EdgeSliceError::InvalidWorkloadPlan(format!(
                "plan covers {} slot(s) that do not match the system's {} configured slice(s); \
                 construct the system with WorkloadPlan::slot_specs()",
                specs.len(),
                self.config.slices.len()
            )));
        }
        self.workload = Some(crate::workload::SliceLifecycle::new(plan, admission));
        Ok(())
    }

    /// The attached dynamic-workload state machine, if any.
    pub fn workload(&self) -> Option<&crate::workload::SliceLifecycle> {
        self.workload.as_ref()
    }

    /// Deactivates coordinator rows and substrate slots that the workload
    /// machine reports as not currently serving, so a run starts from the
    /// machine's present state (round 0 of a fresh plan: initial slices
    /// active, planned arrivals pending).
    fn sync_lifecycle_into_substrate(&mut self) {
        let Some(lc) = &self.workload else { return };
        let state = lc.state();
        for (i, active) in state.active.iter().enumerate() {
            if !active {
                self.coordinator.depart_slice(SliceId(i));
            }
        }
        for env in &mut self.envs {
            env.apply_lifecycle(&state)
                .expect("invariant: set_workload validated the plan against this system's slices");
        }
    }

    /// Runs Alg. 1 for at most `max_rounds` coordination rounds (stopping
    /// early on ADMM convergence) and reports per-round outcomes.
    pub fn run(&mut self, max_rounds: usize, rng: &mut StdRng) -> RunReport {
        let injector = FaultInjector::none(self.config.n_ras, max_rounds);
        self.run_with_faults(max_rounds, rng, &injector)
    }

    /// Runs Alg. 1 under injected faults (Alg. 1 + the degradation policy).
    ///
    /// The injector's rounds index this run's rounds, 0-based. Per round,
    /// for each RA the orchestrator consults its [`crate::RaFaultView`]:
    ///
    /// * **down** — the RA serves nothing; the monitor records explicit
    ///   outage rows; the coordinator sees the RA as missing (stale reuse,
    ///   frozen duals, death + redistribution past the staleness budget).
    ///   At outage start a learned RA's policy is checkpointed.
    /// * **rejoining** — the RA's queues are flushed (the node rebooted)
    ///   and, for learned kinds, its policy is restored from the
    ///   checkpoint taken at outage start — decisions after rejoin are
    ///   bit-identical to the pre-outage policy.
    /// * **broadcast dropped** — the RA orchestrates on its previous
    ///   `z − y` (the env keeps the last coordination it received).
    /// * **straggler** — traffic is served and monitored, but the report
    ///   misses the deadline: the coordinator treats the RA as missing
    ///   this round (the late report is superseded by the next one).
    /// * **capacity degradation** — the RA's substrate capacity is scaled
    ///   for the round; the agent's shares deliver proportionally less.
    ///
    /// SLA accounting excludes outage intervals: each round's `Umin` is
    /// prorated by the fraction of (RA, interval) pairs that served.
    ///
    /// Execution is delegated to the [`edgeslice_runtime`] engine: one
    /// worker per RA (each with a private RNG stream derived from a master
    /// seed drawn once from `rng`), folded by a coordinator task. The
    /// report is bit-identical across schedulers.
    pub fn run_with_faults(
        &mut self,
        max_rounds: usize,
        rng: &mut StdRng,
        injector: &FaultInjector,
    ) -> RunReport {
        let master = rng.gen::<u64>();
        self.run_rounds(max_rounds, master, injector, None)
    }

    /// Resumes an interrupted `run`/`run_with_faults` from the newest
    /// valid snapshot in `dir`, producing a report bit-identical to the
    /// run that was never interrupted (same system seed, same fault plan,
    /// same `max_rounds`).
    ///
    /// Corrupt or truncated snapshot files are skipped (with a note on
    /// stderr) in favour of the newest one that validates; if none does,
    /// the run simply starts over from round 0 — `resume` is therefore
    /// safe to use as the *only* entry point of a crash-looped program.
    /// One draw is consumed from `rng` either way, so the caller's seed
    /// stream stays aligned with the interrupted program's.
    ///
    /// What resume cannot replay: real wall-clock deadline misses and
    /// channel disconnects (as opposed to fault-plan stragglers and
    /// scripted outages/panics) are nondeterministic in the original run,
    /// so their reports are only equal if neither run hits one.
    ///
    /// # Errors
    ///
    /// Returns [`EdgeSliceError::Io`] if the store cannot be opened and
    /// [`EdgeSliceError::SnapshotMismatch`] if the snapshot belongs to a
    /// differently-shaped system.
    pub fn resume(
        &mut self,
        dir: &Path,
        max_rounds: usize,
        rng: &mut StdRng,
        injector: &FaultInjector,
    ) -> Result<RunReport, EdgeSliceError> {
        let every_k = self.checkpoint_every;
        self.set_checkpointing(dir, every_k)?;
        let latest = self
            .store
            .as_ref()
            .expect("invariant: set_checkpointing attached the store on the line above")
            .latest_run()?;
        for (path, err) in &latest.rejected {
            eprintln!(
                "edgeslice: skipping unreadable snapshot {}: {err}",
                path.display()
            );
        }
        // Drawn whether or not a snapshot exists, so the caller's rng
        // stays aligned with the interrupted program's seed stream.
        let drawn_master = rng.gen::<u64>();
        let Some(snap) = latest.snapshot else {
            return Ok(self.run_rounds(max_rounds, drawn_master, injector, None));
        };
        if snap.workers.len() != self.config.n_ras {
            return Err(EdgeSliceError::SnapshotMismatch {
                reason: format!(
                    "snapshot has {} RAs, this system has {}",
                    snap.workers.len(),
                    self.config.n_ras
                ),
            });
        }
        snap.validate_slices(&self.config.slices)?;
        match (self.workload.as_mut(), snap.lifecycle) {
            (Some(lc), Some(state)) => lc.restore(state)?,
            (Some(_), None) => {
                return Err(EdgeSliceError::SnapshotMismatch {
                    reason: "this system has a workload plan but the snapshot carries no \
                             lifecycle state"
                        .into(),
                });
            }
            (None, Some(_)) => {
                return Err(EdgeSliceError::SnapshotMismatch {
                    reason: "the snapshot carries lifecycle state but this system has no \
                             workload plan"
                        .into(),
                });
            }
            (None, None) => {}
        }
        self.coordinator.restore(&snap.coordinator)?;
        self.policy_overrides = snap.policies;
        let mut prefix = RunReport {
            rounds: snap.rounds,
            supervision: snap.supervision,
            slice_lifetimes: Vec::new(),
        };
        if snap.next_round >= max_rounds {
            // The interrupted run had already finished these rounds; its
            // lifecycle outcomes are the restored machine's.
            if let Some(lc) = &self.workload {
                prefix.slice_lifetimes = lc.lifetimes().to_vec();
            }
            return Ok(prefix);
        }
        Ok(self.run_rounds(
            max_rounds,
            snap.master_seed,
            injector,
            Some(ResumeState {
                first_round: snap.next_round,
                round_base: snap.round_base,
                worker_state: snap.workers,
                panic_counts: snap.panic_counts,
                prefix,
            }),
        ))
    }

    /// The single round-loop implementation behind `run`,
    /// `run_with_faults` and `resume`.
    fn run_rounds(
        &mut self,
        max_rounds: usize,
        master: u64,
        injector: &FaultInjector,
        resume: Option<ResumeState>,
    ) -> RunReport {
        let n_ras = self.config.n_ras;
        let period = self.config.reward.period;
        for env in &mut self.envs {
            env.set_randomize_coord(false);
        }
        let (first_round, round_base, worker_state, panic_counts, prefix) = match resume {
            Some(state) => {
                // Rewind every environment to the snapshot boundary,
                // including its slot activity and rate overrides (absent
                // on pre-churn snapshots: fall back to the restored
                // workload machine's present state).
                for (env, ws) in self.envs.iter_mut().zip(&state.worker_state) {
                    env.restore_round_state(ws.queues.clone(), &ws.coordination, ws.global_t);
                    if !ws.active.is_empty() {
                        env.restore_lifecycle(&ws.active, &ws.rates);
                    }
                }
                if state
                    .worker_state
                    .first()
                    .is_some_and(|ws| ws.active.is_empty())
                {
                    self.sync_lifecycle_into_substrate();
                }
                (
                    state.first_round,
                    state.round_base,
                    state.worker_state,
                    state.panic_counts,
                    state.prefix,
                )
            }
            None => {
                let round_base = self.monitor.rounds();
                // A fresh dynamic run starts from the workload machine's
                // present state: initial slices active, planned arrivals
                // pending (deactivated rows and slots).
                self.sync_lifecycle_into_substrate();
                // The initial snapshot state is the environments as they
                // stand at run start (post-training baseline).
                let worker_state = self
                    .envs
                    .iter()
                    .enumerate()
                    .map(|(j, env)| WorkerSnapshot {
                        ra: RaId(j),
                        queues: env.queues().to_vec(),
                        coordination: env.coordination().to_vec(),
                        global_t: env.global_t(),
                        was_down: false,
                        active: env.slice_active().to_vec(),
                        rates: env.rate_overrides().to_vec(),
                    })
                    .collect();
                (
                    0,
                    round_base,
                    worker_state,
                    vec![0; n_ras],
                    RunReport::default(),
                )
            }
        };
        let policies = self.effective_policies();
        let project_actions = self.config.project_actions;
        let straggle_sleep = self.straggle_sleep;
        let mut workers: Vec<RaExecWorker<'_>> = Vec::with_capacity(n_ras);
        for (j, (env, policy)) in self.envs.iter_mut().zip(&policies).enumerate() {
            // One effective policy per worker: the snapshot-restored
            // checkpoint or the live agent's, resolved once here.
            let policy = match policy {
                Some(ckpt) => WorkerPolicy::Learned(ckpt.clone()),
                None => WorkerPolicy::Taro(crate::Taro::new()),
            };
            workers.push(
                RaExecWorker::new(
                    RaId(j),
                    env,
                    policy,
                    injector,
                    derive_stream_seed(master, DOMAIN_ORCH, j as u64),
                    period,
                    project_actions,
                    round_base,
                    straggle_sleep,
                )
                .with_down_state(worker_state[j].was_down),
            );
        }
        let mut exec = SystemExecCoordinator::new(
            &mut self.coordinator,
            &mut self.monitor,
            &self.config.slices,
            n_ras,
            period,
            round_base,
        )
        .with_state(worker_state, panic_counts.clone(), policies, prefix)
        .with_workload(self.workload.as_mut());
        if let Some(store) = &self.store {
            exec = exec.with_sink(store, self.checkpoint_every, master);
        }
        Engine::new(self.scheduler)
            .with_deadline(self.round_deadline)
            .with_supervisor(self.supervision)
            .with_prior_panics(panic_counts)
            .run_from(&mut workers, &mut exec, first_round, max_rounds);
        let mut report = exec.report;
        drop(workers);
        if let Some(lc) = &self.workload {
            report.slice_lifetimes = lc.lifetimes().to_vec();
        }
        // Leave the substrates healthy for subsequent runs.
        for env in &mut self.envs {
            env.set_capacity_scale([1.0; 3]);
        }
        report
    }

    /// The effective policy per RA — what a fresh process re-installs
    /// instead of retraining (`None` for TARO).
    fn effective_policies(&self) -> Vec<Option<PolicyCheckpoint>> {
        match self.kind {
            OrchestratorKind::Learned(_) => (0..self.config.n_ras)
                .map(|j| {
                    self.policy_overrides[j]
                        .clone()
                        .or_else(|| Some(PolicyCheckpoint::from_agent(&self.agents[j])))
                })
                .collect(),
            OrchestratorKind::Taro => vec![None; self.config.n_ras],
        }
    }

    /// Runs Alg. 1 as the *coordinator of a networked deployment*: every
    /// RA is a separate [`EdgeSliceSystem::serve_ra`] peer (thread or
    /// process) reached through `net`'s [`Transport`] links, registered on
    /// the ε-ORC-style lease plane.
    ///
    /// The round protocol, ADMM folding, degraded-coordination policy and
    /// checkpointing are exactly `run_with_faults`'s — the coordinator
    /// side is transport-agnostic, so a loopback run and a UDS run of the
    /// same seed and fault plan produce byte-identical [`RunReport`]s.
    /// Failure semantics differ from in-process in one deliberate way: a
    /// vanished peer is detected by its *lapsed lease*
    /// ([`edgeslice_runtime::DownCause::LeaseExpired`], folded into
    /// [`SupervisionStats::leases_expired`] and the per-round `downed`
    /// set), never by the broken socket, and a degraded round completes
    /// through the same stale-report/frozen-dual ADMM path a scripted
    /// outage takes.
    ///
    /// One seed draw is consumed from `rng`, exactly like
    /// `run_with_faults`, so workers constructed from the same seed derive
    /// the identical master seed in [`EdgeSliceSystem::serve_ra`].
    ///
    /// # Errors
    ///
    /// Returns [`EdgeSliceError::Transport`] if registration does not
    /// complete within `net`'s configured deadline. Mid-run transport
    /// failures are *not* errors: they degrade the run (telemetry, lease
    /// expiries) instead of aborting it.
    pub fn run_networked<T: Transport>(
        &mut self,
        max_rounds: usize,
        rng: &mut StdRng,
        injector: &FaultInjector,
        net: &mut NetCoordinator<T>,
    ) -> Result<RunReport, EdgeSliceError> {
        let _ = injector; // the fault plan acts on the worker side
        let master = rng.gen::<u64>();
        let n_ras = self.config.n_ras;
        let period = self.config.reward.period;
        for env in &mut self.envs {
            env.set_randomize_coord(false);
        }
        let round_base = self.monitor.rounds();
        self.sync_lifecycle_into_substrate();
        let worker_state: Vec<WorkerSnapshot> = self
            .envs
            .iter()
            .enumerate()
            .map(|(j, env)| WorkerSnapshot {
                ra: RaId(j),
                queues: env.queues().to_vec(),
                coordination: env.coordination().to_vec(),
                global_t: env.global_t(),
                was_down: false,
                active: env.slice_active().to_vec(),
                rates: env.rate_overrides().to_vec(),
            })
            .collect();
        let policies = self.effective_policies();
        net.wait_registered(0).map_err(EdgeSliceError::Transport)?;
        let mut exec = SystemExecCoordinator::new(
            &mut self.coordinator,
            &mut self.monitor,
            &self.config.slices,
            n_ras,
            period,
            round_base,
        )
        .with_state(worker_state, vec![0; n_ras], policies, RunReport::default())
        .with_workload(self.workload.as_mut());
        if let Some(store) = &self.store {
            exec = exec.with_sink(store, self.checkpoint_every, master);
        }
        for round in 0..max_rounds {
            let zys = exec.broadcast(round);
            let lifecycle = exec.lifecycle_delta(round);
            let (raw, mut telemetry) = net.run_round(round, &zys, &lifecycle);
            let mut slots: Vec<Option<RaReport<crate::exec::RaRoundBody>>> =
                Vec::with_capacity(n_ras);
            for slot in raw {
                let Some(rep) = slot else {
                    slots.push(None);
                    continue;
                };
                let body = match rep.body {
                    None => None,
                    Some(bytes) => match crate::exec::decode_body(
                        &bytes,
                        RaId(rep.ra),
                        round_base + round,
                        self.config.slices.len(),
                    ) {
                        Ok(body) => Some(body),
                        Err(err) => {
                            // Framed correctly but undecodable: a foreign
                            // or buggy peer. Drop the report, count it,
                            // keep the round going.
                            eprintln!(
                                "edgeslice: dropping undecodable report body from ra {}: {err}",
                                rep.ra
                            );
                            telemetry.discarded_reports += 1;
                            slots.push(None);
                            continue;
                        }
                    },
                };
                slots.push(Some(RaReport {
                    ra: rep.ra,
                    round: rep.round,
                    deadline_missed: rep.deadline_missed,
                    body,
                }));
            }
            let converged = exec.collect(round, slots, &telemetry);
            if converged {
                break;
            }
        }
        net.shutdown();
        let mut report = exec.report;
        let stats = net.stats();
        report.supervision.send_retries += stats.send_retries;
        report.supervision.sends_abandoned += stats.sends_abandoned;
        report.supervision.leases_expired += stats.leases_expired;
        report.supervision.rejoins += stats.rejoins;
        if let Some(lc) = &self.workload {
            report.slice_lifetimes = lc.lifetimes().to_vec();
        }
        for env in &mut self.envs {
            env.set_capacity_scale([1.0; 3]);
        }
        Ok(report)
    }

    /// Serves RA `ra` as a *networked worker peer* of a
    /// [`EdgeSliceSystem::run_networked`] coordinator, over `transport`.
    ///
    /// The peer must be built from the same seed as the coordinator (both
    /// construct the full system identically, then draw one master seed
    /// from `rng` here), which is what makes its decisions bit-identical
    /// to an in-process worker's. It registers on the coordinator's lease
    /// plane, then serves rounds until `Shutdown` or disconnect:
    ///
    /// * injected faults from `injector` act exactly as in-process —
    ///   panics really unwind and are caught by a per-worker
    ///   [`Supervisor`] (reported to the coordinator as a typed `Down`
    ///   frame), outages go dark, stragglers mark their reports late;
    /// * a [`FaultEvent::WorkerSilence`](crate::FaultEvent::WorkerSilence)
    ///   window freezes the peer: connected but sending neither reports
    ///   nor lease refreshes, so the coordinator's failure detector — the
    ///   lease, not the socket — fires deterministically;
    /// * with a [`CheckpointStore`] attached
    ///   ([`EdgeSliceSystem::set_checkpointing`] on the same directory the
    ///   coordinator checkpoints into), a freshly (re)spawned peer
    ///   re-syncs its environment, policy and restart budget from the
    ///   newest snapshot before registering — the kill-and-rejoin path.
    ///
    /// Returns what happened: rounds served, the snapshot round re-synced
    /// from (if any), and panics caught by the local supervisor.
    ///
    /// # Errors
    ///
    /// Returns [`EdgeSliceError::Transport`] if the session cannot be
    /// established or dies mid-round, and [`EdgeSliceError::Io`] /
    /// snapshot errors if the checkpoint store is attached but unreadable.
    ///
    /// # Panics
    ///
    /// Panics if `ra` is outside this system's RA range.
    pub fn serve_ra<T: Transport>(
        &mut self,
        ra: RaId,
        rng: &mut StdRng,
        injector: &FaultInjector,
        transport: T,
        opts: &WorkerNetOptions,
    ) -> Result<ServeOutcome, EdgeSliceError> {
        let n_ras = self.config.n_ras;
        assert!(ra.0 < n_ras, "serve_ra: ra {} out of range {n_ras}", ra.0);
        let master = rng.gen::<u64>();
        let period = self.config.reward.period;
        for env in &mut self.envs {
            env.set_randomize_coord(false);
        }
        // Re-sync from the newest checkpoint, if a store is attached and
        // its snapshot belongs to this exact run (same master seed).
        let mut resynced_from = None;
        let mut round_base = self.monitor.rounds();
        let mut panic_count = 0usize;
        let mut policy_override = self.policy_overrides[ra.0].clone();
        let mut was_down = false;
        if let Some(store) = &self.store {
            let latest = store.latest_run()?;
            for (path, err) in &latest.rejected {
                eprintln!(
                    "edgeslice: skipping unreadable snapshot {}: {err}",
                    path.display()
                );
            }
            if let Some(snap) = latest.snapshot {
                if snap.master_seed == master && snap.workers.len() == n_ras {
                    let ws = &snap.workers[ra.0];
                    self.envs[ra.0].restore_round_state(
                        ws.queues.clone(),
                        &ws.coordination,
                        ws.global_t,
                    );
                    if !ws.active.is_empty() {
                        self.envs[ra.0].restore_lifecycle(&ws.active, &ws.rates);
                    }
                    was_down = ws.was_down;
                    panic_count = snap.panic_counts[ra.0];
                    policy_override = snap.policies[ra.0].clone().or(policy_override);
                    round_base = snap.round_base;
                    resynced_from = Some(snap.next_round);
                }
            }
        }
        // A fresh (non-resynced) dynamic worker starts from the workload
        // machine's present state; per-round lifecycle payloads converge
        // it from there.
        if resynced_from.is_none() {
            if let Some(lc) = &self.workload {
                self.envs[ra.0].apply_lifecycle(&lc.state()).expect(
                    "invariant: set_workload validated the plan against this system's slices",
                );
            }
        }
        let stream_seed = derive_stream_seed(master, DOMAIN_ORCH, ra.0 as u64);
        let policy = match self.kind {
            OrchestratorKind::Learned(_) => WorkerPolicy::Learned(
                policy_override.unwrap_or_else(|| PolicyCheckpoint::from_agent(&self.agents[ra.0])),
            ),
            OrchestratorKind::Taro => WorkerPolicy::Taro(crate::Taro::new()),
        };
        let mut worker = RaExecWorker::new(
            ra,
            &mut self.envs[ra.0],
            policy,
            injector,
            stream_seed,
            period,
            self.config.project_actions,
            round_base,
            self.straggle_sleep,
        )
        .with_down_state(was_down);
        let mut supervisor = Supervisor::with_panic_counts(self.supervision, &[panic_count]);
        let capabilities = caps::RESYNC
            | match self.kind {
                OrchestratorKind::Learned(_) => caps::LEARNED,
                OrchestratorKind::Taro => caps::TARO,
            };
        let node = NodeInfo {
            ra: ra.0,
            capabilities,
            capacity: 1.0,
        };
        let (mut session, _ack) = WorkerSession::establish(
            transport,
            node,
            opts.lease,
            opts.establish_timeout,
            opts.refresh_interval,
        )
        .map_err(EdgeSliceError::Transport)?;
        let mut rounds_served = 0usize;
        let mut frozen = false;
        loop {
            match session.next_command(opts.idle_budget) {
                Ok(WorkerCommand::Round(info)) => {
                    let view = injector.view(ra, info.round);
                    if view.silent {
                        if !frozen {
                            // Freeze: checkpoint the effective policy and
                            // mark the worker down so the round it thaws
                            // on takes the rejoin path — the same
                            // make-before-break an outage performs.
                            worker.handle_control(&Control::Checkpoint);
                            let _ = worker.recover();
                            frozen = true;
                        }
                        session.set_auto_refresh(false);
                        continue;
                    }
                    frozen = false;
                    session.set_auto_refresh(true);
                    match supervisor.guard(0, &mut worker, &info) {
                        Ok(report) => {
                            let body = match &report.body {
                                Some(b) => Some(crate::exec::encode_body(b)?),
                                None => None,
                            };
                            session
                                .report(report.round, report.deadline_missed, body)
                                .map_err(EdgeSliceError::Transport)?;
                            rounds_served += 1;
                        }
                        Err(down) => {
                            // A real caught panic (or an exhausted restart
                            // budget), shipped as a typed Down frame.
                            session
                                .down(info.round, down.cause.to_string())
                                .map_err(EdgeSliceError::Transport)?;
                        }
                    }
                }
                Ok(WorkerCommand::Control(Control::Shutdown)) => break,
                Ok(WorkerCommand::Control(ctl)) => worker.handle_control(&ctl),
                // The coordinator is gone: an orderly end of service, not
                // a worker failure.
                Err(TransportError::Disconnected) => break,
                Err(e) => return Err(EdgeSliceError::Transport(e)),
            }
        }
        let caught_panics = supervisor.restarts(0);
        drop(worker);
        for env in &mut self.envs {
            env.set_capacity_scale([1.0; 3]);
        }
        Ok(ServeOutcome {
            rounds_served,
            resynced_from,
            caught_panics,
        })
    }
}

/// Knobs for a [`EdgeSliceSystem::serve_ra`] worker peer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerNetOptions {
    /// The lease this worker declares at registration (its own failure
    /// deadline, in rounds).
    pub lease: Lease,
    /// Budget for handshake + registration.
    pub establish_timeout: Duration,
    /// How often the idle worker refreshes its lease.
    pub refresh_interval: Duration,
    /// How long the worker waits for a command before giving up on the
    /// coordinator.
    pub idle_budget: Duration,
}

impl Default for WorkerNetOptions {
    fn default() -> Self {
        Self {
            lease: Lease::default(),
            establish_timeout: Duration::from_secs(10),
            refresh_interval: Duration::from_millis(100),
            idle_budget: Duration::from_secs(120),
        }
    }
}

/// What a [`EdgeSliceSystem::serve_ra`] worker peer did before shutdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeOutcome {
    /// Rounds this peer served (reports actually sent).
    pub rounds_served: usize,
    /// `Some(next_round)` if the peer re-synced from a checkpoint
    /// snapshot before registering (the kill-and-rejoin path).
    pub resynced_from: Option<usize>,
    /// Panics the peer's local supervisor caught and restarted through.
    pub caught_panics: usize,
}

/// One RA's training bundle: agent + env + private RNG stream, shippable
/// to a worker thread as a unit.
struct TrainUnit<'a> {
    ra: RaId,
    agent: &'a mut OrchestrationAgent,
    env: &'a mut RaSliceEnv,
    rng: StdRng,
}

/// The state a resumed run re-enters the round loop with.
struct ResumeState {
    /// First engine-local round to execute.
    first_round: usize,
    /// Global round index of the interrupted run's round 0.
    round_base: usize,
    /// Per-RA round-boundary state from the snapshot.
    worker_state: Vec<WorkerSnapshot>,
    /// Caught panics per RA before the snapshot (restart budgets).
    panic_counts: Vec<usize>,
    /// The rounds (and supervision telemetry) completed before the
    /// snapshot.
    prefix: RunReport,
}

/// Projects a flat slice-major action onto per-resource capacity
/// (`Σ_i x_{i,k} ≤ 1` for each `k`), preserving ratios — the same
/// enforcement the physical managers apply.
pub fn project_action_per_resource(action: &mut [f64], n_slices: usize) {
    let k = crate::ResourceKind::COUNT;
    debug_assert_eq!(action.len(), n_slices * k);
    for kind in 0..k {
        project_capacity_strided(action, kind, k, 1.0);
    }
}

impl OrchestrationAgent {
    /// Clones this trained agent into `n` per-RA replicas (see
    /// [`EdgeSliceSystem::train_shared`]).
    pub fn replicate(&self, n: usize) -> Vec<OrchestrationAgent> {
        (0..n).map(|j| self.clone_for_ra(RaId(j))).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn quick_agent_config() -> AgentConfig {
        AgentConfig {
            ddpg: edgeslice_rl::DdpgConfig {
                hidden: 16,
                batch_size: 32,
                warmup: 50,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn taro_system_runs_and_reports() {
        let mut rng = StdRng::seed_from_u64(0);
        let config = SystemConfig::prototype();
        let mut sys = EdgeSliceSystem::new(
            config,
            OrchestratorKind::Taro,
            &AgentConfig::default(),
            &mut rng,
        );
        let report = sys.run(3, &mut rng);
        assert!(!report.rounds.is_empty());
        let r0 = &report.rounds[0];
        assert_eq!(r0.slice_performance.len(), 2);
        assert_eq!(r0.usage.len(), 2);
        // TARO's per-domain usage is identical across resources by design.
        for u in &r0.usage {
            assert!((u[0] - u[1]).abs() < 1e-9);
            assert!((u[1] - u[2]).abs() < 1e-9);
        }
        assert!(r0.system_performance < 0.0);
    }

    #[test]
    fn learned_system_trains_and_runs() {
        let mut rng = StdRng::seed_from_u64(1);
        let config = SystemConfig::prototype();
        let mut sys = EdgeSliceSystem::new(
            config,
            OrchestratorKind::Learned(Technique::Ddpg),
            &quick_agent_config(),
            &mut rng,
        );
        sys.train(300, &mut rng);
        let report = sys.run(2, &mut rng);
        assert_eq!(report.rounds.len().min(2), report.rounds.len());
        assert!(report.final_system_performance().is_finite());
        // Monitor saw every (round, interval, ra, slice) tuple.
        let expected = report.rounds.len() * 10 * 2 * 2;
        assert_eq!(sys.monitor().records().len(), expected);
    }

    #[test]
    fn action_projection_caps_each_resource() {
        let mut a = vec![0.8, 0.2, 0.6, 0.8, 0.2, 0.6];
        project_action_per_resource(&mut a, 2);
        // Radio column: 0.8 + 0.8 = 1.6 → scaled to 1.0 keeping ratio.
        assert!((a[0] - 0.5).abs() < 1e-12);
        assert!((a[3] - 0.5).abs() < 1e-12);
        // Transport column was feasible: untouched.
        assert_eq!(a[1], 0.2);
        assert_eq!(a[4], 0.2);
        // Compute column: 1.2 → 0.5/0.5.
        assert!((a[2] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn run_report_serializes() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut sys = EdgeSliceSystem::new(
            SystemConfig::prototype(),
            OrchestratorKind::Taro,
            &AgentConfig::default(),
            &mut rng,
        );
        let report = sys.run(1, &mut rng);
        let json = report.to_json().unwrap();
        assert!(json.contains("system_performance"));
        let back: RunReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn simulation_config_shapes() {
        let mut rng = StdRng::seed_from_u64(2);
        let c = SystemConfig::simulation(5, 10, &mut rng);
        assert_eq!(c.slices.len(), 5);
        assert_eq!(c.n_ras, 10);
        assert_eq!(c.reward.period, 24);
        let nt = c.clone().without_traffic_state();
        assert_eq!(nt.state_spec, StateSpec::CoordinationOnly);
    }

    #[test]
    fn train_shared_replicates_one_agent() {
        let mut rng = StdRng::seed_from_u64(3);
        let config = SystemConfig::prototype();
        let mut sys = EdgeSliceSystem::new(
            config,
            OrchestratorKind::Learned(Technique::Ddpg),
            &quick_agent_config(),
            &mut rng,
        );
        sys.train_shared(150, &mut rng);
        let report = sys.run(1, &mut rng);
        assert_eq!(report.rounds.len(), 1);
    }
}
