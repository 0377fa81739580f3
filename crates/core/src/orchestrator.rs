//! The EdgeSlice resource-orchestration workflow (paper Alg. 1).
//!
//! A period `T` at a time, every RA's orchestration agent acts on its local
//! state under the current coordinating information; at the period's end
//! the performance coordinator runs the `z`/`y` updates and broadcasts
//! fresh `z − y`, iterating until the ADMM residuals converge.

use std::path::Path;
use std::time::Duration;

use edgeslice_optim::project_capacity_strided;
use edgeslice_runtime::{derive_stream_seed, par_map, Scheduler, SupervisorConfig, DOMAIN_TRAIN};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::store::{CheckpointStore, TrainSnapshot, WorkerSnapshot};
use crate::{
    AgentConfig, EdgeSliceError, OrchestrationAgent, PerformanceCoordinator, PolicyCheckpoint,
    RaId, RaSliceEnv, Sla, SliceId, SystemMonitor,
};

mod run;
mod types;

pub use run::{ServeOutcome, WorkerNetOptions};
pub use types::{
    DownEvent, OrchestratorKind, RoundRecord, RunReport, SupervisionStats, SystemConfig,
    TrafficKind,
};

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
                    env: WorkerSnapshot::capture(unit.ra, unit.env),
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
    ///
    /// Deployment shares, training copies: the replicas are handles to the
    /// one trained learner, and an RA pays for a learner of its own only
    /// if it is trained further (a later [`EdgeSliceSystem::train`]).
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
        let trained = self.agent0();
        self.deploy(&trained);
        for env in &mut self.envs {
            // Deployment starts from an operational baseline, not whatever
            // backlog the final training episode left behind.
            env.clear_queues();
        }
    }

    /// Installs replicas of a pre-trained agent on every RA (the
    /// counterpart of [`EdgeSliceSystem::train_shared`] when the agent was
    /// trained elsewhere, e.g. reused across a scalability sweep whose RA
    /// count varies but whose slice set does not). The replicas share
    /// `trained`'s learner, so this costs one handle per RA whatever the
    /// replay capacity.
    ///
    /// # Panics
    ///
    /// Panics if this is a TARO system.
    pub fn install_agents(&mut self, trained: &OrchestrationAgent) {
        assert!(
            matches!(self.kind, OrchestratorKind::Learned(_)),
            "cannot install agents on a TARO system"
        );
        self.deploy(trained);
    }

    /// Makes every RA decide with `trained`'s policy from here on: live
    /// replicas of it, and no policy restored earlier from a snapshot left
    /// standing in front of them.
    fn deploy(&mut self, trained: &OrchestrationAgent) {
        self.agents = trained.replicate(self.config.n_ras);
        self.policy_overrides.fill(None);
        for env in &mut self.envs {
            env.set_randomize_coord(false);
        }
    }

    /// A replica of RA 0's (trained) agent, for installation into another
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
    pub fn policy_fleet(&self, par: crate::Parallelism) -> crate::PolicyFleet {
        let policies = (0..self.config.n_ras)
            .filter_map(|j| self.effective_policy(j, None))
            .collect();
        crate::PolicyFleet::new(policies, par)
    }

    /// The policy RA `j` decides with — what a fresh process re-installs
    /// instead of retraining: `restored` (a snapshot's) when given, else
    /// the pinned override, else the live agent's. `None` for TARO.
    fn effective_policy(
        &self,
        j: usize,
        restored: Option<PolicyCheckpoint>,
    ) -> Option<PolicyCheckpoint> {
        match self.kind {
            OrchestratorKind::Learned(_) => restored
                .or_else(|| self.policy_overrides[j].clone())
                .or_else(|| Some(PolicyCheckpoint::from_agent(&self.agents[j]))),
            OrchestratorKind::Taro => None,
        }
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
}

/// One RA's training bundle: agent + env + private RNG stream, shippable
/// to a worker thread as a unit.
struct TrainUnit<'a> {
    ra: RaId,
    agent: &'a mut OrchestrationAgent,
    env: &'a mut RaSliceEnv,
    rng: StdRng,
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
    /// This trained agent as `n` per-RA replicas sharing its learner (see
    /// [`EdgeSliceSystem::train_shared`]).
    pub fn replicate(&self, n: usize) -> Vec<OrchestrationAgent> {
        (0..n).map(|j| self.clone_for_ra(RaId(j))).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StateSpec;
    use edgeslice_rl::Technique;

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
