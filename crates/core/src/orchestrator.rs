//! The EdgeSlice resource-orchestration workflow (paper Alg. 1).
//!
//! A period `T` at a time, every RA's orchestration agent acts on its local
//! state under the current coordinating information; at the period's end
//! the performance coordinator runs the `z`/`y` updates and broadcasts
//! fresh `z − y`, iterating until the ADMM residuals converge.

use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use edgeslice_optim::project_capacity_strided;
use edgeslice_runtime::{derive_stream_seed, par_map, Scheduler, SupervisorConfig, DOMAIN_TRAIN};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::exec::WorkerPolicy;
use crate::store::{CheckpointStore, TrainSnapshot, WorkerSnapshot};
use crate::{
    AgentConfig, EdgeSliceError, OrchestrationAgent, PerformanceCoordinator, PolicyCheckpoint,
    RaId, RaSliceEnv, Sla, SliceId, SystemMonitor, Taro,
};

mod run;
mod types;

pub use run::{ServeOutcome, WorkerNetOptions};
pub use types::{
    DownEvent, OrchestratorKind, RoundRecord, RunReport, SupervisionStats, SystemConfig,
    TrafficKind,
};

/// The assembled EdgeSlice system: envs + deployed policies + coordinator
/// + monitor (+ the learners that `train` trains, for learned kinds).
///
/// All round execution and training is delegated to the
/// [`edgeslice_runtime`] engine; [`EdgeSliceSystem::set_scheduler`] picks
/// between the inline reference topology and worker threads. Both produce
/// bit-identical [`RunReport`]s for the same seed.
pub struct EdgeSliceSystem {
    config: SystemConfig,
    kind: OrchestratorKind,
    envs: Vec<RaSliceEnv>,
    /// One learner per RA (none for TARO): what `train` trains.
    learners: Vec<OrchestrationAgent>,
    /// The policy each RA decides with; every run path reads it as is.
    deployed: Vec<WorkerPolicy>,
    /// How many entries of `deployed` a checkpoint store restored.
    restored: usize,
    coordinator: PerformanceCoordinator,
    monitor: SystemMonitor,
    scheduler: Scheduler,
    straggle_sleep: Duration,
    /// Supervision policy for worker panics (restart budget + backoff).
    supervision: SupervisorConfig,
    /// Durable snapshot store; when set, runs checkpoint every
    /// `checkpoint_every` rounds and training checkpoints per RA.
    store: Option<CheckpointStore>,
    checkpoint_every: usize,
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
    /// untrained learners, each RA deployed with its own).
    pub fn new(
        config: SystemConfig,
        kind: OrchestratorKind,
        agent_config: &AgentConfig,
        rng: &mut StdRng,
    ) -> Self {
        // One surrogate per system: every RA serves from the same per-slot
        // datasets (and so shares their fitted-cell memo).
        let datasets = crate::env::slot_datasets(&config.slices);
        let envs: Vec<RaSliceEnv> = (0..config.n_ras)
            .map(|_| config.make_env(&datasets, rng))
            .collect();
        let learners: Vec<OrchestrationAgent> = match kind {
            OrchestratorKind::Learned(technique) => (0..config.n_ras)
                .map(|j| OrchestrationAgent::new(RaId(j), technique, &envs[j], agent_config, rng))
                .collect(),
            OrchestratorKind::Taro => Vec::new(),
        };
        let deployed = match kind {
            OrchestratorKind::Learned(_) => learners.iter().map(WorkerPolicy::from_agent).collect(),
            OrchestratorKind::Taro => vec![WorkerPolicy::Taro(Taro::new()); config.n_ras],
        };
        let slas: Vec<Sla> = config.slices.iter().map(|s| s.sla).collect();
        let coordinator = PerformanceCoordinator::new(&slas, config.n_ras, config.admm);
        Self {
            config,
            kind,
            envs,
            learners,
            deployed,
            restored: 0,
            coordinator,
            monitor: SystemMonitor::new(),
            scheduler: Scheduler::Sequential,
            straggle_sleep: Duration::ZERO,
            supervision: SupervisorConfig::default(),
            store: None,
            checkpoint_every: 4,
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

    /// How many of this system's RAs are deployed with a policy a
    /// checkpoint store restored (by `train` or `resume`) rather than one
    /// of this system's learners.
    pub fn restored_policy_count(&self) -> usize {
        self.restored
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
        if self.learners.is_empty() {
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
            let (n_slices, state_dim) = (self.config.slices.len(), self.state_dim());
            for (j, slot) in restored.iter_mut().enumerate() {
                let snap = match store.load_train(RaId(j)) {
                    Ok(Some(snap)) if snap.master_seed == master && snap.env_steps == env_steps => {
                        snap.check(RaId(j), n_slices, state_dim).map(|()| snap)
                    }
                    // No snapshot, or one from a different seed/length: retrain.
                    Ok(_) => continue,
                    Err(err) => Err(err.to_string()),
                };
                match snap {
                    Ok(snap) => *slot = Some(snap),
                    Err(err) => {
                        eprintln!("edgeslice: ignoring unreadable train snapshot for ra {j}: {err}")
                    }
                }
            }
        }
        // An RA that trains drops its stale policy first, so that no copy
        // of the old actor sits in the heap under the replay store as it
        // grows; the trained one is deployed below.
        for (policy, slot) in self.deployed.iter_mut().zip(&restored) {
            if slot.is_none() {
                *policy = WorkerPolicy::Taro(Taro::new());
            }
        }
        let mut units: Vec<TrainUnit<'_>> = self
            .learners
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
        self.restored = restored.iter().flatten().count();
        for (j, slot) in restored.into_iter().enumerate() {
            self.deployed[j] = match slot {
                Some(snap) => {
                    // Skipped RA: re-install the stored outcome — policy
                    // and environment exactly as training left them.
                    snap.env.rewind(&mut self.envs[j]);
                    WorkerPolicy::Learned(Arc::new(snap.policy))
                }
                None => WorkerPolicy::from_agent(&self.learners[j]),
            };
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
        if self.learners.is_empty() {
            return;
        }
        // Same stream derivation as `train` (worker 0's stream), so shared
        // and per-RA training draw from the same family of streams.
        let master = rng.gen::<u64>();
        let mut rng0 = StdRng::seed_from_u64(derive_stream_seed(master, DOMAIN_TRAIN, 0));
        if let (Some(agent), Some(env)) = (self.learners.first_mut(), self.envs.first_mut()) {
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

    /// Makes every RA decide with `trained`'s policy from here on, through
    /// one checkpoint, in place of whatever was deployed (a policy
    /// restored from a snapshot included); every RA's learner becomes a
    /// replica of `trained`. Both `Vec`s are refilled in place, so the
    /// checkpoint is all that deploying allocates.
    fn deploy(&mut self, trained: &OrchestrationAgent) {
        self.learners.clear();
        self.learners
            .extend((0..self.config.n_ras).map(|j| trained.clone_for_ra(RaId(j))));
        self.deployed.fill(WorkerPolicy::from_agent(trained));
        self.restored = 0;
        for env in &mut self.envs {
            env.set_randomize_coord(false);
        }
    }

    /// A replica of RA 0's *learner*, for installation into another
    /// system of the same slice set (e.g. a different network size in a
    /// scalability sweep). It is what `train`, `train_shared` or
    /// `install_agents` left in RA 0's learner slot — not necessarily what
    /// RA 0 is deployed with: a `train` that restored RA 0 from a
    /// checkpoint store deploys the stored policy and leaves this learner
    /// untrained.
    ///
    /// # Panics
    ///
    /// Panics on a TARO system.
    pub fn agent0(&self) -> OrchestrationAgent {
        self.learners
            .first()
            .expect(
                "invariant: agent0 is only called on learned systems, which hold one agent per RA",
            )
            .clone()
    }

    /// Copies every RA's deployed policy into a [`crate::PolicyFleet`],
    /// which decides for every RA in turn; per-RA actions stay
    /// bit-identical to [`OrchestrationAgent::decide`]. Empty for TARO.
    pub fn policy_fleet(&self, par: crate::Parallelism) -> crate::PolicyFleet {
        let policies = self.deployed.iter().filter_map(WorkerPolicy::learned);
        crate::PolicyFleet::new(policies.cloned().collect(), par)
    }

    /// What every RA's policy observes: one input per slice slot, twice
    /// that when the queues are observed too.
    fn state_dim(&self) -> usize {
        self.config.state_spec.dim(self.config.slices.len())
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

    /// A matching train snapshot whose state does not fit its RA (one
    /// queue short) is retrained with a note, never restored into the
    /// environment — and the other RA's still skips retraining.
    #[test]
    fn a_misshaped_train_snapshot_is_retrained() {
        let dir =
            std::env::temp_dir().join(format!("edgeslice-misshaped-train-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut rng = StdRng::seed_from_u64(4);
        let mut sys = EdgeSliceSystem::new(
            SystemConfig::prototype(),
            OrchestratorKind::Learned(Technique::Ddpg),
            &quick_agent_config(),
            &mut rng,
        );
        sys.set_checkpointing(&dir, 1).unwrap();
        sys.train(100, &mut StdRng::seed_from_u64(9));
        let store = CheckpointStore::open(&dir).unwrap();
        let mut snap = store.load_train(RaId(0)).unwrap().unwrap();
        snap.env.queues.pop();
        store.save_train(&snap).unwrap();

        sys.train(100, &mut StdRng::seed_from_u64(9));
        assert_eq!(sys.restored_policy_count(), 1, "only RA 1 skips training");
        let retrained = store.load_train(RaId(0)).unwrap().unwrap();
        assert_eq!(retrained.env.queues.len(), 2, "rewritten by the retrain");
        let _ = std::fs::remove_dir_all(&dir);
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

    /// One surrogate per system: every RA's environment serves from the
    /// same per-slot dataset, so a cell fitted through RA 0 is already
    /// remembered through RA 9.
    #[test]
    fn every_ra_shares_each_slots_dataset_and_its_fitted_cells() {
        let mut rng = StdRng::seed_from_u64(6);
        let config = SystemConfig::simulation(5, 10, &mut rng);
        let taro = OrchestratorKind::Taro;
        let mut sys = EdgeSliceSystem::new(config, taro, &AgentConfig::default(), &mut rng);
        for env in &sys.envs {
            assert_eq!(env.datasets().len(), 5);
            let first = sys.envs[0].datasets();
            assert!(env
                .datasets()
                .iter()
                .zip(first)
                .all(|(d, f)| Arc::ptr_eq(d, f)));
        }
        // The memo shows only in `Debug`: a fitted cell prints its fit.
        let fitted = |env: &RaSliceEnv| -> Vec<usize> {
            let count = |d: String| d.matches("Plane(").count() + d.matches("Mean(").count();
            env.datasets()
                .iter()
                .map(|d| count(format!("{d:?}")))
                .collect()
        };
        assert_eq!(fitted(&sys.envs[9]), vec![0; 5]);
        // Every share off the 10 % grid, and no resource over capacity.
        let off_grid: Vec<f64> = (0..15).map(|k| 0.03 + 0.013 * k as f64).collect();
        sys.envs[0].advance(&off_grid, &mut rng);
        let through_ra9 = fitted(&sys.envs[9]);
        assert!(through_ra9.iter().all(|&n| n > 0), "{through_ra9:?}");
        assert_eq!(through_ra9, fitted(&sys.envs[0]));
    }

    /// One deployed policy per learner: the workers of `install_agents`
    /// replicas decide through one checkpoint, untrained agents through
    /// one each, and a restored policy stays its RA's own.
    #[test]
    fn install_agents_replicas_decide_through_one_checkpoint() {
        let mut rng = StdRng::seed_from_u64(7);
        let config = SystemConfig::simulation(2, 10, &mut rng);
        let ddpg = OrchestratorKind::Learned(Technique::Ddpg);
        let mut sys = EdgeSliceSystem::new(config, ddpg, &quick_agent_config(), &mut rng);
        // The checkpoints the workers decide through, as `run_rounds`
        // hands them out, counted once each.
        let distinct = |sys: &EdgeSliceSystem| {
            let workers: Vec<&Arc<PolicyCheckpoint>> = sys
                .deployed
                .iter()
                .map(|policy| match policy {
                    WorkerPolicy::Learned(p) => p,
                    WorkerPolicy::Taro(_) => unreachable!("a learned system"),
                })
                .collect();
            let first = |j: usize| !workers[..j].iter().any(|w| Arc::ptr_eq(w, workers[j]));
            (0..workers.len()).filter(|&j| first(j)).count()
        };
        assert_eq!(distinct(&sys), 10);
        let trained = sys.agent0();
        sys.install_agents(&trained);
        assert_eq!(distinct(&sys), 1);
        sys.deployed[3] = WorkerPolicy::from_agent(&trained);
        assert_eq!(distinct(&sys), 2);
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
