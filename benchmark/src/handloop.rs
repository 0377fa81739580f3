//! Alg. 1's round loop and the DDPG training loop, driven by hand through
//! the program's public functions with one span per call into a layer.
//!
//! `EdgeSliceSystem::run`/`resume`/`train` are black boxes from outside, so
//! the traced run rebuilds what they do — the same calls in the same order
//! on the same seeds — and the `hand-loop-equals-run` check holds the
//! rebuild to the real thing byte for byte. If the program's loop changes
//! shape, that check (not a silently wrong attribution) is what breaks.

use std::path::Path;
use std::time::Instant;

use edgeslice::{
    project_action_per_resource, AgentBackend, CheckpointStore, EdgeSliceSystem, FrozenPolicy,
    IntervalStatus, MonitorRecord, OrchestrationAgent, PerformanceCoordinator, PolicyCheckpoint,
    RaEnvConfig, RaId, RaSliceEnv, RoundRecord, RunReport, RunSnapshot, Sla, SliceId,
    SupervisionStats, SystemConfig, SystemMonitor, TrafficKind, WorkerSnapshot,
};
use edgeslice_netsim::{DiurnalTrace, GridDataset, PoissonTraffic, RaCapacities, TrafficSource};
use edgeslice_rl::{Ddpg, Environment, Technique, Transition};
use edgeslice_runtime::{derive_stream_seed, DOMAIN_ORCH, DOMAIN_ROUND, DOMAIN_TRAIN};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::deploy::{agent_config, system_config};
use crate::error::{Error, Result};
use crate::host::thread_sched_ns;
use crate::trace::Tracer;

/// Span names of the round loop, one per call into a layer.
pub mod span {
    /// One whole coordination round (parent of everything below).
    pub const ROUND: &str = "core.orchestrator.round";
    /// `PerformanceCoordinator::coordination_info` + per-RA `for_ra`.
    pub const COORDINATION_INFO: &str = "core.coordinator.coordination_info";
    /// `RaSliceEnv::observe`.
    pub const OBSERVE: &str = "core.env.observe";
    /// `OrchestrationAgent::decide` / `FrozenPolicy::decide`.
    pub const DECIDE: &str = "core.agent.decide";
    /// `project_action_per_resource`.
    pub const PROJECT: &str = "core.orchestrator.project_action";
    /// `RaSliceEnv::advance`.
    pub const ADVANCE: &str = "core.env.advance";
    /// `SystemMonitor::record`, one round's rows.
    pub const MONITOR_RECORD: &str = "core.monitor.record";
    /// `PerformanceCoordinator::update_partial`.
    pub const UPDATE_PARTIAL: &str = "core.coordinator.update_partial";
    /// `SystemMonitor::round_served_fraction` + `round_usage` per slice.
    pub const MONITOR_QUERIES: &str = "core.monitor.round_queries";
    /// Assembling a `RunSnapshot` (clones of the report prefix and policies).
    pub const SNAPSHOT_BUILD: &str = "core.store.run_snapshot";
    /// `CheckpointStore::save_run`.
    pub const SAVE_RUN: &str = "core.store.save_run";
    /// `CheckpointStore::latest_run`.
    pub const LATEST_RUN: &str = "core.store.latest_run";
    /// One training step (parent of the four below).
    pub const TRAIN_STEP: &str = "core.agent.train_step";
    /// `Ddpg::explore`.
    pub const EXPLORE: &str = "rl.ddpg.explore";
    /// `Environment::step` (+ `reset` at episode ends).
    pub const ENV_STEP: &str = "core.env.step";
    /// `Ddpg::observe` (replay push).
    pub const REPLAY_PUSH: &str = "rl.replay.push";
    /// `Ddpg::update`.
    pub const DDPG_UPDATE: &str = "rl.ddpg.update";
}

/// Names of the counts taken next to the spans.
pub mod count {
    /// Rows the monitor holds when a run ends.
    pub const MONITOR_RECORDS: &str = "core.monitor.records";
    /// Size of the snapshot file a `save_run` call wrote.
    pub const SAVE_RUN_BYTES: &str = "core.store.save_run.bytes";
    /// Time a `save_run` call spent off the CPU and off the run queue
    /// (blocked on the disk), nanoseconds.
    pub const SAVE_RUN_BLOCKED_NS: &str = "core.store.save_run.blocked_ns";
    /// `GridDataset::predict` calls of a round (one per slice and step).
    pub const PREDICT_CALLS: &str = "netsim.dataset.predict.calls";
    /// Of those, calls whose shares lay off the grid (the linear-fit path).
    pub const PREDICT_OFFGRID: &str = "netsim.dataset.predict.offgrid";
}

/// A durable sink for the hand-driven loop: the store and its cadence.
#[derive(Debug, Clone, Copy)]
pub struct Sink<'a> {
    /// Where snapshots go.
    pub store: &'a CheckpointStore,
    /// Snapshot every `every_k` rounds.
    pub every_k: usize,
}

/// The pieces `EdgeSliceSystem` assembles, held in the open.
pub struct HandSystem {
    config: SystemConfig,
    envs: Vec<RaSliceEnv>,
    agents: Vec<OrchestrationAgent>,
    /// Policies restored by `resume`; an RA with one decides with it.
    frozen: Vec<Option<FrozenPolicy>>,
    coordinator: PerformanceCoordinator,
    monitor: SystemMonitor,
}

/// The state a resumed hand-driven run re-enters the loop with.
struct Entry {
    first_round: usize,
    master: u64,
    round_base: usize,
    worker_state: Vec<WorkerSnapshot>,
    policies: Vec<Option<PolicyCheckpoint>>,
    prefix: RunReport,
}

impl HandSystem {
    /// Mirrors `EdgeSliceSystem::new` for a learned DDPG system on the
    /// deployment configuration: the same constructor calls drawing from
    /// `rng` in the same order, so the environments' traffic areas — and the
    /// position `rng` is left at — are those of the real system.
    pub fn new(n_ras: usize, rng: &mut StdRng) -> Self {
        let config = system_config(n_ras);
        let envs: Vec<RaSliceEnv> = (0..n_ras).map(|_| make_env(&config, rng)).collect();
        let agents = (0..n_ras)
            .map(|j| {
                OrchestrationAgent::new(RaId(j), Technique::Ddpg, &envs[j], &agent_config(), rng)
            })
            .collect();
        let slas: Vec<Sla> = config.slices.iter().map(|s| s.sla).collect();
        let coordinator = PerformanceCoordinator::new(&slas, n_ras, config.admm);
        Self {
            config,
            envs,
            agents,
            frozen: (0..n_ras).map(|_| None).collect(),
            coordinator,
            monitor: SystemMonitor::new(),
        }
    }

    /// Mirrors `EdgeSliceSystem::install_agents`.
    pub fn install_agents(&mut self, trained: &OrchestrationAgent) {
        self.agents = trained.replicate(self.config.n_ras);
        for env in &mut self.envs {
            env.set_randomize_coord(false);
        }
    }

    /// Mirrors `EdgeSliceSystem::run` (optionally with checkpointing set).
    pub fn run(
        &mut self,
        max_rounds: usize,
        rng: &mut StdRng,
        sink: Option<Sink<'_>>,
        tracer: &mut Tracer,
    ) -> Result<RunReport> {
        let master = rng.gen::<u64>();
        let worker_state = self
            .envs
            .iter()
            .enumerate()
            .map(|(j, env)| worker_snapshot(j, env))
            .collect();
        let entry = Entry {
            first_round: 0,
            master,
            round_base: self.monitor.rounds(),
            worker_state,
            policies: self.effective_policies(),
            prefix: RunReport::default(),
        };
        self.run_rounds(max_rounds, entry, sink, tracer)
    }

    /// Mirrors `EdgeSliceSystem::resume` for a static, fault-free run whose
    /// store holds at least one valid snapshot.
    pub fn resume(
        &mut self,
        dir: &Path,
        every_k: usize,
        max_rounds: usize,
        rng: &mut StdRng,
        tracer: &mut Tracer,
    ) -> Result<RunReport> {
        let store =
            CheckpointStore::open(dir).map_err(|e| Error::program("opening the store", e))?;
        let sp = tracer.enter(span::LATEST_RUN, 0);
        let latest = store.latest_run();
        tracer.exit(sp);
        let latest = latest.map_err(|e| Error::program("scanning the store", e))?;
        // Drawn whether or not it is used, as `resume` does.
        let _ = rng.gen::<u64>();
        let snap = latest
            .snapshot
            .ok_or_else(|| Error::Program("resume found no valid snapshot".into()))?;
        snap.validate_slices(&self.config.slices)
            .map_err(|e| Error::program("validating the snapshot", e))?;
        self.coordinator
            .restore(&snap.coordinator)
            .map_err(|e| Error::program("restoring the coordinator", e))?;
        for (j, policy) in snap.policies.iter().enumerate() {
            self.frozen[j] = policy.clone().map(|p| p.into_frozen_policy(RaId(j)));
        }
        for (env, ws) in self.envs.iter_mut().zip(&snap.workers) {
            env.set_randomize_coord(false);
            env.restore_round_state(ws.queues.clone(), &ws.coordination, ws.global_t);
            if !ws.active.is_empty() {
                env.restore_lifecycle(&ws.active, &ws.rates);
            }
        }
        let entry = Entry {
            first_round: snap.next_round,
            master: snap.master_seed,
            round_base: snap.round_base,
            worker_state: snap.workers,
            policies: snap.policies,
            prefix: RunReport {
                rounds: snap.rounds,
                supervision: snap.supervision,
                slice_lifetimes: Vec::new(),
            },
        };
        let sink = Sink {
            store: &store,
            every_k,
        };
        self.run_rounds(max_rounds, entry, Some(sink), tracer)
    }

    fn effective_policies(&self) -> Vec<Option<PolicyCheckpoint>> {
        self.agents
            .iter()
            .zip(&self.frozen)
            .map(|(agent, frozen)| match frozen {
                Some(policy) => Some(policy.checkpoint().clone()),
                None => Some(PolicyCheckpoint::from_agent(agent)),
            })
            .collect()
    }

    /// The round loop: the sequential engine, the per-RA worker and the
    /// coordinator task of the program, fault-free and static.
    fn run_rounds(
        &mut self,
        max_rounds: usize,
        entry: Entry,
        sink: Option<Sink<'_>>,
        tr: &mut Tracer,
    ) -> Result<RunReport> {
        let n_ras = self.config.n_ras;
        let n_slices = self.config.slices.len();
        let period = self.config.reward.period;
        let Entry {
            first_round,
            master,
            round_base,
            mut worker_state,
            policies,
            prefix: mut report,
        } = entry;
        for env in &mut self.envs {
            env.set_randomize_coord(false);
        }
        let stream_seeds: Vec<u64> = (0..n_ras)
            .map(|j| derive_stream_seed(master, DOMAIN_ORCH, j as u64))
            .collect();
        // The benchmark's own copy of the slices' grids, to tell which
        // `predict` path an applied action took (traced runs only).
        let grids: Vec<GridDataset> = if tr.is_on() {
            let caps = RaCapacities::prototype();
            self.config
                .slices
                .iter()
                .map(|s| GridDataset::generate(s.app, caps))
                .collect()
        } else {
            Vec::new()
        };
        for round_off in first_round..max_rounds {
            let round = round_base + round_off;
            let sp_round = tr.enter(span::ROUND, round_off);

            let sp = tr.enter(span::COORDINATION_INFO, round_off);
            let info = self.coordinator.coordination_info();
            let zys: Vec<Vec<f64>> = (0..n_ras).map(|j| info.for_ra(RaId(j))).collect();
            tr.exit(sp);

            // Every RA's worker round, in RA order.
            let mut bodies = Vec::with_capacity(n_ras);
            let mut offgrid = 0u64;
            for (j, env) in self.envs.iter_mut().enumerate() {
                let mut rng = StdRng::seed_from_u64(derive_stream_seed(
                    stream_seeds[j],
                    DOMAIN_ROUND,
                    round_off as u64,
                ));
                env.set_capacity_scale([1.0; 3]);
                env.set_coordination(&zys[j]);
                let mut u = vec![0.0; n_slices];
                let mut records = Vec::with_capacity(period * n_slices);
                for t in 0..period {
                    let sp = tr.enter(span::OBSERVE, round_off);
                    let state = env.observe();
                    tr.exit(sp);
                    let sp = tr.enter(span::DECIDE, round_off);
                    let mut action = match &self.frozen[j] {
                        Some(policy) => policy.decide(&state),
                        None => self.agents[j].decide(&state),
                    };
                    tr.exit(sp);
                    if self.config.project_actions {
                        let sp = tr.enter(span::PROJECT, round_off);
                        project_action_per_resource(&mut action, n_slices);
                        tr.exit(sp);
                    }
                    let sp = tr.enter(span::ADVANCE, round_off);
                    let (_, perf) = env.advance(&action, &mut rng);
                    tr.exit(sp);
                    let queues = env.queue_lengths();
                    let shares = env.last_shares();
                    for (grid, share) in grids.iter().zip(shares) {
                        offgrid += u64::from(grid.lookup(share.as_array()).is_none());
                    }
                    for i in 0..n_slices {
                        u[i] += perf[i];
                        records.push(MonitorRecord {
                            round,
                            interval: t,
                            ra: RaId(j),
                            slice: SliceId(i),
                            queue: queues[i],
                            performance: perf[i],
                            shares: shares[i].as_array(),
                            status: IntervalStatus::Served,
                        });
                    }
                }
                bodies.push((u, records, worker_snapshot(j, env)));
            }

            tr.count(
                count::PREDICT_CALLS,
                round_off,
                (n_ras * period * n_slices) as u64,
            );
            tr.count(count::PREDICT_OFFGRID, round_off, offgrid);

            // The coordinator task's fold.
            let mut achieved = vec![vec![0.0; n_ras]; n_slices];
            let present = vec![true; n_ras];
            let mut load = vec![0.0; n_ras];
            for (j, (u, records, state)) in bodies.into_iter().enumerate() {
                for (row, &v) in achieved.iter_mut().zip(&u) {
                    row[j] = v;
                }
                load[j] = state.queues.iter().map(|q| q.backlog()).sum();
                worker_state[j] = state;
                let sp = tr.enter(span::MONITOR_RECORD, round_off);
                for record in records {
                    self.monitor.record(record);
                }
                tr.exit(sp);
            }
            let sp = tr.enter(span::UPDATE_PARTIAL, round_off);
            let residuals = self.coordinator.update_partial(&achieved, &present);
            tr.exit(sp);
            let slice_performance: Vec<f64> = achieved.iter().map(|row| row.iter().sum()).collect();
            let sp = tr.enter(span::MONITOR_QUERIES, round_off);
            let served_fraction = self.monitor.round_served_fraction(round, n_ras, period);
            let usage: Vec<[f64; 3]> = (0..n_slices)
                .map(|i| self.monitor.round_usage(round, SliceId(i)))
                .collect();
            tr.exit(sp);
            let sla_met: Vec<bool> = self
                .config
                .slices
                .iter()
                .map(|s| {
                    !self.coordinator.slice_active(s.id)
                        || slice_performance[s.id.0]
                            >= self.coordinator.slice_umin(s.id) * served_fraction - 1e-9
                })
                .collect();
            report.rounds.push(RoundRecord {
                round,
                system_performance: slice_performance.iter().sum(),
                slice_performance,
                usage,
                residuals,
                sla_met,
                outages: Vec::new(),
                downed: Vec::new(),
                discarded_reports: 0,
                served_fraction,
                load,
            });
            if let Some(Sink { store, every_k }) = sink {
                if (round_off + 1) % every_k == 0 {
                    let sp = tr.enter(span::SNAPSHOT_BUILD, round_off);
                    let snapshot = RunSnapshot {
                        master_seed: master,
                        round_base,
                        next_round: round_off + 1,
                        coordinator: self.coordinator.snapshot(),
                        workers: worker_state.clone(),
                        policies: policies.clone(),
                        panic_counts: vec![0; n_ras],
                        rounds: report.rounds.clone(),
                        supervision: SupervisionStats::default(),
                        slices: self.config.slices.clone(),
                        lifecycle: None,
                    };
                    tr.exit(sp);
                    let sched_before = tr.is_on().then(thread_sched_ns).flatten();
                    let started = Instant::now();
                    let sp = tr.enter(span::SAVE_RUN, round_off);
                    let saved = store.save_run(&snapshot);
                    tr.exit(sp);
                    let wall_ns = started.elapsed().as_nanos() as u64;
                    let path = saved.map_err(|e| Error::program("saving a snapshot", e))?;
                    if tr.is_on() {
                        let bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
                        tr.count(count::SAVE_RUN_BYTES, round_off, bytes);
                        if let (Some(before), Some(after)) = (sched_before, thread_sched_ns()) {
                            let on_cpu_or_queued = after.saturating_sub(before);
                            tr.count(
                                count::SAVE_RUN_BLOCKED_NS,
                                round_off,
                                wall_ns.saturating_sub(on_cpu_or_queued),
                            );
                        }
                    }
                }
            }
            tr.exit(sp_round);
            if self.coordinator.converged() {
                break;
            }
        }
        for env in &mut self.envs {
            env.set_capacity_scale([1.0; 3]);
        }
        tr.count(
            count::MONITOR_RECORDS,
            max_rounds,
            self.monitor.records().len() as u64,
        );
        Ok(report)
    }
}

/// Mirrors `SystemConfig::make_env` (private to the program): the
/// environment configuration of a deployed RA and one traffic source per
/// slice drawn from `rng`.
fn make_env(config: &SystemConfig, rng: &mut StdRng) -> RaSliceEnv {
    let env_config = RaEnvConfig {
        slices: config.slices.clone(),
        perf: std::sync::Arc::clone(&config.perf),
        reward: config.reward,
        state_spec: config.state_spec,
        interval_s: 1.0,
        queue_norm: 25.0,
        coord_norm: 50.0,
        coord_sample_range: config.coord_sample_range,
        randomize_coord: true,
        queue_capacity: 200.0,
        squash_training_reward: true,
        project_shares: true,
    };
    let traffic = config
        .slices
        .iter()
        .map(|_| -> Box<dyn TrafficSource + Send> {
            match config.traffic {
                TrafficKind::Poisson(rate) => Box::new(PoissonTraffic::new(rate)),
                TrafficKind::Diurnal { base } => Box::new(DiurnalTrace::random_area(base, rng)),
            }
        })
        .collect();
    RaSliceEnv::with_dataset(env_config, traffic)
}

fn worker_snapshot(j: usize, env: &RaSliceEnv) -> WorkerSnapshot {
    WorkerSnapshot {
        ra: RaId(j),
        queues: env.queues().to_vec(),
        coordination: env.coordination().to_vec(),
        global_t: env.global_t(),
        was_down: false,
        active: env.slice_active().to_vec(),
        rates: env.rate_overrides().to_vec(),
    }
}

/// Mirrors `EdgeSliceSystem::train` on a one-RA DDPG system: the master
/// draw, RA 0's training stream, and `Ddpg::train`'s interaction loop with
/// one span per call. Returns the trained agent.
pub fn hand_train(
    system: &mut EdgeSliceSystem,
    env_steps: usize,
    rng: &mut StdRng,
    tr: &mut Tracer,
) -> Result<OrchestrationAgent> {
    let agent = system.agent0();
    let AgentBackend::Ddpg(ddpg) = agent.backend() else {
        return Err(Error::Program("the deployment trains DDPG agents".into()));
    };
    let mut ddpg: Ddpg = ddpg.clone();
    let master = rng.gen::<u64>();
    let mut rng = StdRng::seed_from_u64(derive_stream_seed(master, DOMAIN_TRAIN, 0));
    let rng = &mut rng;
    let env = system.env0_mut();
    env.set_randomize_coord(true);
    let warmup = ddpg.config().warmup;
    let mut state = env.reset(rng);
    for step in 0..env_steps {
        let sp_step = tr.enter(span::TRAIN_STEP, step);
        let action: Vec<f64> = if step < warmup {
            (0..env.action_dim())
                .map(|_| rng.gen_range(0.0..1.0))
                .collect()
        } else {
            let sp = tr.enter(span::EXPLORE, step);
            let a = ddpg.explore(&state, rng);
            tr.exit(sp);
            a
        };
        let sp = tr.enter(span::ENV_STEP, step);
        let out = env.step(&action, rng);
        tr.exit(sp);
        let sp = tr.enter(span::REPLAY_PUSH, step);
        ddpg.observe(&Transition {
            state: state.clone(),
            action,
            reward: out.reward,
            next_state: out.next_state.clone(),
            done: out.done,
        });
        tr.exit(sp);
        state = if out.done {
            let sp = tr.enter(span::ENV_STEP, step);
            let s = env.reset(rng);
            tr.exit(sp);
            s
        } else {
            out.next_state
        };
        if step >= warmup {
            let sp = tr.enter(span::DDPG_UPDATE, step);
            ddpg.update(rng);
            tr.exit(sp);
        }
        tr.exit(sp_step);
    }
    env.set_randomize_coord(false);
    env.clear_queues();
    Ok(OrchestrationAgent::from_ddpg(RaId(0), ddpg))
}
