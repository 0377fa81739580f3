//! The run paths of an [`EdgeSliceSystem`]: in-process (`run`,
//! `run_with_faults`, `resume`), and the two halves of a networked
//! deployment (`run_networked`, `serve_ra`).

use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use edgeslice_runtime::{
    caps, round_loop, Engine, Lease, NodeInfo, RaReport, RoundGather, RoundTelemetry, RoundWorker,
    Supervisor, Transport, TransportError, WorkerCommand, WorkerSession,
};
use rand::rngs::StdRng;
use rand::Rng;

use super::{EdgeSliceSystem, OrchestratorKind, RunReport};
use crate::exec::{
    decode_body, encode_body, RaExecWorker, RaRoundBody, RunStart, SystemExecCoordinator, WorkerRun,
};
use crate::store::{CheckpointStore, RunSnapshot, WorkerSnapshot};
use crate::{EdgeSliceError, FaultInjector, NetCoordinator, RaId};

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
        self.run_rounds(max_rounds, master, Workers::Local(injector), None)
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
        let latest = newest_valid_run(
            self.store
                .as_ref()
                .expect("invariant: set_checkpointing attached the store on the line above"),
        )?;
        // Drawn whether or not a snapshot exists, so the caller's rng
        // stays aligned with the interrupted program's seed stream.
        let drawn_master = rng.gen::<u64>();
        let Some(snap) = latest else {
            return Ok(self.run_rounds(max_rounds, drawn_master, Workers::Local(injector), None));
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
        snap.validate(&self.config.slices, Some(self.state_dim()))?;
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
        self.policy_overrides = snap.policies.into_iter().map(|p| p.map(Arc::new)).collect();
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
            Workers::Local(injector),
            Some(RunStart {
                first_round: snap.next_round,
                round_base: snap.round_base,
                worker_state: snap.workers,
                panic_counts: snap.panic_counts,
                prefix,
            }),
        ))
    }

    /// The one run path behind `run`, `run_with_faults`, `resume` and
    /// `run_networked`: snapshots (or, resuming, rewinds) the worker
    /// state, resolves the policies, wires the coordinator task to sink
    /// and workload, drives the runtime's round loop over `workers`, and
    /// leaves the substrates healthy. Where the RA workers live only picks
    /// the gather under that loop.
    fn run_rounds(
        &mut self,
        max_rounds: usize,
        master: u64,
        workers: Workers<'_>,
        resume: Option<RunStart>,
    ) -> RunReport {
        let n_ras = self.config.n_ras;
        for env in &mut self.envs {
            env.set_randomize_coord(false);
        }
        let start = match resume {
            Some(start) => {
                // Rewind every environment to the snapshot boundary.
                for (env, ws) in self.envs.iter_mut().zip(&start.worker_state) {
                    ws.rewind(env);
                }
                start
            }
            None => {
                // A fresh dynamic run starts from the workload machine's
                // present state: initial slices active, planned arrivals
                // pending (deactivated rows and slots).
                self.sync_lifecycle_into_substrate();
                RunStart {
                    first_round: 0,
                    round_base: self.monitor.rounds(),
                    // The environments as they stand at run start
                    // (post-training baseline).
                    worker_state: self
                        .envs
                        .iter()
                        .enumerate()
                        .map(|(j, env)| WorkerSnapshot::capture(RaId(j), env))
                        .collect(),
                    panic_counts: vec![0; n_ras],
                    prefix: RunReport::default(),
                }
            }
        };
        let first_round = start.first_round;
        let prior_panics = start.panic_counts.clone();
        let policies = self.effective_policies();
        // Workers exist in this process only when the RAs do: one per RA,
        // each on its effective policy, resolved once here — replicas of
        // one learner share one checkpoint.
        let mut local: Vec<RaExecWorker<'_>> = match workers {
            Workers::Local(injector) => {
                let run = self.worker_run(injector, master);
                let starts = self.envs.iter_mut().zip(&policies).zip(&start.worker_state);
                starts
                    .enumerate()
                    .map(|(j, ((env, policy), ws))| {
                        RaExecWorker::new(RaId(j), env, policy.clone().into(), ws.was_down, run)
                    })
                    .collect()
            }
            Workers::Remote(_) => Vec::new(),
        };
        let mut exec = SystemExecCoordinator::new(
            &mut self.coordinator,
            &mut self.monitor,
            &self.config.slices,
            n_ras,
            self.config.reward.period,
            policies,
            start,
        )
        .with_workload(self.workload.as_mut());
        if let Some(store) = &self.store {
            exec = exec.with_sink(store, self.checkpoint_every, master);
        }
        match workers {
            Workers::Local(_) => Engine::new(self.scheduler)
                .with_supervisor(self.supervision)
                .with_prior_panics(prior_panics)
                .run_from(&mut local, &mut exec, first_round, max_rounds),
            Workers::Remote(net) => {
                let mut decoded = DecodedReports {
                    net,
                    period: self.config.reward.period,
                    n_slices: self.config.slices.len(),
                };
                round_loop(&mut decoded, &mut exec, first_round, max_rounds)
            }
        };
        let mut report = exec.report;
        drop(local);
        if let Some(lc) = &self.workload {
            report.slice_lifetimes = lc.lifetimes().to_vec();
        }
        self.heal_substrates();
        report
    }

    /// The run-wide constants RA workers are built from, here and in a
    /// `serve_ra` peer alike.
    fn worker_run<'a>(&self, injector: &'a FaultInjector, master: u64) -> WorkerRun<'a> {
        WorkerRun {
            injector,
            master,
            period: self.config.reward.period,
            project_actions: self.config.project_actions,
            straggle_sleep: self.straggle_sleep,
        }
    }

    /// Undoes whatever capacity degradation a run's last rounds left
    /// behind, so the next run starts on healthy substrates.
    fn heal_substrates(&mut self) {
        for env in &mut self.envs {
            env.set_capacity_scale([1.0; 3]);
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
    /// [`crate::SupervisionStats::leases_expired`] and the per-round `downed`
    /// set), never by the broken socket, and a degraded round completes
    /// through the same stale-report/frozen-dual ADMM path a scripted
    /// outage takes.
    ///
    /// One seed draw is consumed from `rng`, exactly like
    /// `run_with_faults`, so workers constructed from the same seed derive
    /// the identical master seed in [`EdgeSliceSystem::serve_ra`].
    ///
    /// The fault plan acts on the worker side — panics, outages,
    /// stragglers and silences happen where the RA runs — so give it to
    /// the `serve_ra` peers; the coordinator side has nothing to inject
    /// and takes `_injector` only so both halves of a deployment are
    /// called alike.
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
        _injector: &FaultInjector,
        net: &mut NetCoordinator<T>,
    ) -> Result<RunReport, EdgeSliceError> {
        let master = rng.gen::<u64>();
        net.wait_registered(0).map_err(EdgeSliceError::Transport)?;
        let mut report = self.run_rounds(max_rounds, master, Workers::Remote(net), None);
        let stats = net.stats();
        report.supervision.send_retries += stats.send_retries;
        report.supervision.sends_abandoned += stats.sends_abandoned;
        report.supervision.leases_expired += stats.leases_expired;
        report.supervision.rejoins += stats.rejoins;
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
    /// established or dies mid-round, [`EdgeSliceError::Io`] / snapshot
    /// errors if the checkpoint store is attached but unreadable, and
    /// [`EdgeSliceError::SnapshotMismatch`] if this run's newest snapshot
    /// does not fit this system.
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
        for env in &mut self.envs {
            env.set_randomize_coord(false);
        }
        // Re-sync from the newest checkpoint, if a store is attached and
        // its snapshot belongs to this exact run (same master seed).
        let mut resynced_from = None;
        let mut panic_count = 0usize;
        let mut restored_policy = None;
        let mut was_down = false;
        if let Some(store) = &self.store {
            if let Some(mut snap) = newest_valid_run(store)?
                .filter(|snap| snap.master_seed == master && snap.workers.len() == n_ras)
            {
                snap.validate(&self.config.slices, Some(self.state_dim()))?;
                let ws = &snap.workers[ra.0];
                ws.rewind(&mut self.envs[ra.0]);
                was_down = ws.was_down;
                panic_count = snap.panic_counts[ra.0];
                restored_policy = snap.policies.swap_remove(ra.0);
                resynced_from = Some(snap.next_round);
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
        // A snapshot's policy comes first, and stays this RA's own.
        let policy = match restored_policy {
            Some(restored) if self.kind != OrchestratorKind::Taro => Some(Arc::new(restored)),
            _ => self.effective_policy(ra.0),
        };
        let run = self.worker_run(injector, master);
        let env = &mut self.envs[ra.0];
        let mut worker = RaExecWorker::new(ra, env, policy.into(), was_down, run);
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
        let served = serve_rounds(
            &mut worker,
            &mut supervisor,
            injector,
            node,
            transport,
            opts,
        );
        let caught_panics = supervisor.restarts(0);
        drop(worker);
        // Whether the service ended in order or on a dead link.
        self.heal_substrates();
        Ok(ServeOutcome {
            rounds_served: served?,
            resynced_from,
            caught_panics,
        })
    }
}

/// A `serve_ra` peer's session: registers `node` over `transport`, then
/// serves rounds on `worker` until `Shutdown` or disconnect. Returns the
/// number of rounds served.
fn serve_rounds<T: Transport>(
    worker: &mut RaExecWorker<'_>,
    supervisor: &mut Supervisor,
    injector: &FaultInjector,
    node: NodeInfo,
    transport: T,
    opts: &WorkerNetOptions,
) -> Result<usize, EdgeSliceError> {
    let ra = RaId(node.ra);
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
                if injector.view(ra, info.round).silent {
                    if !frozen {
                        // Freeze: checkpoint the effective policy and
                        // mark the worker down so the round it thaws
                        // on takes the rejoin path — the same
                        // make-before-break an outage performs.
                        worker.checkpoint();
                        let _ = worker.recover();
                        frozen = true;
                    }
                    session.set_auto_refresh(false);
                    continue;
                }
                frozen = false;
                session.set_auto_refresh(true);
                match supervisor.guard(0, worker, &info) {
                    Ok(report) => {
                        let body = report.body.as_ref().map(encode_body).transpose()?;
                        session
                            .report(report.round, report.deadline_missed, body)
                            .map_err(EdgeSliceError::Transport)?;
                        rounds_served += 1;
                    }
                    // A real caught panic (or an exhausted restart
                    // budget), shipped as a typed Down frame.
                    Err(down) => session
                        .down(info.round, &down.cause)
                        .map_err(EdgeSliceError::Transport)?,
                }
            }
            Ok(WorkerCommand::Shutdown) => return Ok(rounds_served),
            // The coordinator is gone: an orderly end of service, not
            // a worker failure.
            Err(TransportError::Disconnected) => return Ok(rounds_served),
            Err(e) => return Err(EdgeSliceError::Transport(e)),
        }
    }
}

/// Where a run's RA workers live — all that differs between the run
/// paths, and all that picks the gather under the round loop.
enum Workers<'a> {
    /// In this process, on the system's scheduler, under this fault plan.
    Local(&'a FaultInjector),
    /// In [`EdgeSliceSystem::serve_ra`] peers behind this networked
    /// gather, each under its own copy of the fault plan.
    Remote(&'a mut dyn RoundGather<Body = Vec<u8>>),
}

/// The networked gather as the round loop sees it: `net`'s raw report
/// payloads decoded into round bodies, so the telemetry the coordinator
/// task collects already counts what would not decode.
struct DecodedReports<'a> {
    net: &'a mut dyn RoundGather<Body = Vec<u8>>,
    /// The shape of the row grid every report must carry.
    period: usize,
    n_slices: usize,
}

impl RoundGather for DecodedReports<'_> {
    type Body = RaRoundBody;

    fn gather(
        &mut self,
        round: usize,
        zys: &[Vec<f64>],
        lifecycle: &[u8],
    ) -> (Vec<Option<RaReport<RaRoundBody>>>, RoundTelemetry) {
        let (raw, mut telemetry) = self.net.gather(round, zys, lifecycle);
        let decoded = raw
            .into_iter()
            .map(|slot| {
                let rep = slot?;
                let body = rep
                    .body
                    .map(|bytes| decode_body(&bytes, RaId(rep.ra), self.period, self.n_slices))
                    .transpose();
                match body {
                    Ok(body) => Some(RaReport {
                        ra: rep.ra,
                        round: rep.round,
                        deadline_missed: rep.deadline_missed,
                        body,
                    }),
                    // Framed correctly but undecodable: a foreign or buggy
                    // peer. Drop the report, count it, keep the round
                    // going.
                    Err(err) => {
                        eprintln!(
                            "edgeslice: dropping undecodable report body from ra {} for \
                             round {round}: {err}",
                            rep.ra
                        );
                        telemetry.discarded_reports += 1;
                        None
                    }
                }
            })
            .collect();
        (decoded, telemetry)
    }

    fn shutdown(&mut self) {
        self.net.shutdown();
    }
}

/// The newest snapshot in `store` that validates, reporting on stderr
/// every newer file it had to skip.
fn newest_valid_run(store: &CheckpointStore) -> Result<Option<RunSnapshot>, EdgeSliceError> {
    let latest = store.latest_run()?;
    for (path, err) in &latest.rejected {
        eprintln!(
            "edgeslice: skipping unreadable snapshot {}: {err}",
            path.display()
        );
    }
    Ok(latest.snapshot)
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
