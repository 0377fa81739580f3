//! The run paths of an [`EdgeSliceSystem`]: in-process (`run`,
//! `run_with_faults`, `resume`), and the two halves of a networked
//! deployment (`run_networked`, `serve_ra`).

use std::path::Path;
use std::time::Duration;

use edgeslice_runtime::{
    caps, derive_stream_seed, Control, Engine, Lease, NetCoordinator, NodeInfo, RaReport,
    RoundCoordinator, RoundWorker, Supervisor, Transport, TransportError, WorkerCommand,
    WorkerSession, DOMAIN_ORCH,
};
use rand::rngs::StdRng;
use rand::Rng;

use super::{EdgeSliceSystem, OrchestratorKind, RunReport};
use crate::exec::{RaExecWorker, SystemExecCoordinator, WorkerPolicy};
use crate::store::WorkerSnapshot;
use crate::{EdgeSliceError, FaultInjector, PolicyCheckpoint, RaId};

impl EdgeSliceSystem {
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
