//! The orchestration layer's bindings to the [`edgeslice_runtime`]
//! execution engine: one [`RaExecWorker`] per resource autonomy (policy +
//! environment + private RNG stream + fault view + checkpoints) and one
//! [`SystemExecCoordinator`] wrapping the ADMM coordinator and the system
//! monitor.
//!
//! Every run path drives exactly this code through the runtime's one
//! [`edgeslice_runtime::round_loop`]: the coordinator task is the same
//! whether the workers are gathered inline, from shard threads or — as
//! `serve_ra` peers running this worker in their own processes — over
//! transport links; the scheduler or the transport only picks the gather.
//! And, because every worker reseeds its RNG per round from a
//! domain-separated stream, the topologies produce bit-identical
//! [`crate::RunReport`]s for the same seed, and a run resumed from a
//! [`crate::CheckpointStore`] snapshot is bit-identical to one that was
//! never interrupted.

use std::time::Duration;

use edgeslice_nn::FleetScratch;
use edgeslice_runtime::{
    derive_stream_seed, Control, CoordInfo, DownCause, RaReport, RoundCoordinator, RoundTelemetry,
    RoundWorker, DOMAIN_ORCH, DOMAIN_ROUND,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::orchestrator::DownEvent;
use crate::store::{CheckpointStore, RunSnapshot, WorkerSnapshot};
use crate::{
    project_action_per_resource, FaultInjector, IntervalStatus, MonitorRecord,
    PerformanceCoordinator, PolicyCheckpoint, RaId, RaSliceEnv, RoundRecord, RunReport, SliceId,
    SliceSpec, SystemMonitor, Taro,
};

/// The policy a worker decides with.
pub(crate) enum WorkerPolicy {
    /// The RA's effective frozen policy — the snapshot-restored one when
    /// there is one, the live agent's otherwise (bit-identical decisions
    /// either way: the checkpoint stores the exact weights, and training
    /// never runs inside a coordination round).
    Learned(PolicyCheckpoint),
    /// The TARO proportional baseline.
    Taro(Taro),
}

impl From<Option<PolicyCheckpoint>> for WorkerPolicy {
    /// An RA's effective policy as the system resolves it: a checkpoint
    /// for learned kinds, none for TARO.
    fn from(policy: Option<PolicyCheckpoint>) -> Self {
        policy.map_or_else(|| WorkerPolicy::Taro(Taro::new()), WorkerPolicy::Learned)
    }
}

/// What every RA worker of one run is built from, whichever process it
/// lives in.
#[derive(Clone, Copy)]
pub(crate) struct WorkerRun<'a> {
    pub injector: &'a FaultInjector,
    /// The run's master seed; each worker derives its own stream from it.
    pub master: u64,
    pub period: usize,
    pub project_actions: bool,
    /// Global round index of this run's round 0 (monitor rounds keep
    /// counting across runs).
    pub round_base: usize,
    /// Real wall-clock delay applied when a worker straggles, making the
    /// late report physically late on the channel (zero by default so
    /// determinism tests stay instant).
    pub straggle_sleep: Duration,
}

/// One RA's round outcome, carried in [`RaReport::body`]: the achieved
/// per-slice `Σ_t U`, the end-of-round queue state, the coordination
/// signal and trace position the environment ended the round with (the
/// coordinator's snapshot material), and this round's monitor rows (the
/// VR-interface reports, shipped to the central monitor in one batch per
/// round).
///
/// Serializable because the networked runtime ships it across process
/// boundaries as an opaque frame payload (see [`encode_body`]); JSON's
/// Ryu `f64` round-trip keeps loopback and socket runs byte-identical.
#[derive(serde::Serialize, serde::Deserialize)]
pub(crate) struct RaRoundBody {
    /// `Σ_t U_{i,j}` per slice `i` for this RA `j`.
    pub u: Vec<f64>,
    /// End-of-round per-slice service queues.
    pub queues: Vec<edgeslice_netsim::ServiceQueue>,
    /// The coordination vector the environment holds after this round.
    pub coordination: Vec<f64>,
    /// The environment's global interval counter after this round.
    pub global_t: usize,
    /// The round's per-(interval, slice) monitor rows.
    pub records: Vec<MonitorRecord>,
    /// Per-slice activity flags after this round (dynamic workloads;
    /// empty — e.g. from a pre-churn peer — means all slots active).
    pub active: Vec<bool>,
    /// Per-slice negotiated rate overrides after this round.
    pub rates: Vec<Option<f64>>,
}

/// Encodes a round body for the wire (the networked runtime carries it as
/// an opaque payload inside a `Report` frame).
pub(crate) fn encode_body(body: &RaRoundBody) -> Result<Vec<u8>, crate::EdgeSliceError> {
    serde_json::to_string(body)
        .map(String::into_bytes)
        .map_err(crate::EdgeSliceError::from)
}

/// Decodes the wire round body RA `ra` reported for global round `round`.
/// A payload that framed correctly but fails to decode is a protocol bug
/// or a foreign peer — a typed error, never a panic. So is a body whose
/// monitor rows are not the reporter's own for that round and a known
/// slice: the monitor sizes its per-round aggregates by those three ids,
/// and a peer must not get to pick them.
pub(crate) fn decode_body(
    bytes: &[u8],
    ra: RaId,
    round: usize,
    n_slices: usize,
) -> Result<RaRoundBody, crate::EdgeSliceError> {
    let text = std::str::from_utf8(bytes)
        .map_err(|e| crate::EdgeSliceError::Serialization(format!("non-UTF-8 body: {e}")))?;
    let body: RaRoundBody = serde_json::from_str(text)?;
    if let Some(r) = body
        .records
        .iter()
        .find(|r| r.round != round || r.ra != ra || r.slice.0 >= n_slices)
    {
        return Err(crate::EdgeSliceError::Serialization(format!(
            "monitor row for (round {}, {}, {}) in {ra}'s report for round {round}",
            r.round, r.ra, r.slice
        )));
    }
    Ok(body)
}

/// A per-RA execution worker: everything one resource autonomy needs to
/// run coordination rounds without touching any other RA's state.
pub(crate) struct RaExecWorker<'a> {
    ra: RaId,
    env: &'a mut RaSliceEnv,
    policy: WorkerPolicy,
    run: WorkerRun<'a>,
    /// This worker's domain-separated stream seed; the traffic RNG is
    /// rederived from it at the top of every round, so worker randomness
    /// is a pure function of (master seed, RA, round) — the keystone of
    /// crash-consistent resume.
    stream_seed: u64,
    rng: StdRng,
    n_slices: usize,
    /// Policy snapshot taken at outage start (learned kinds only) and
    /// re-deployed at rejoin; decisions after a rejoin are bit-identical
    /// to the pre-outage policy.
    checkpoint: Option<PolicyCheckpoint>,
    was_down: bool,
    /// What the policy observes this interval (Eq. 13 state; queue
    /// lengths under TARO), its action, and the batch-1 inference
    /// scratch: worker-owned and refilled in place, so an agent step
    /// never touches the allocator.
    state: Vec<f64>,
    action: Vec<f64>,
    scratch: FleetScratch,
}

impl<'a> RaExecWorker<'a> {
    /// RA `ra`'s worker for `run`. `was_down` marks a worker freshly
    /// resumed from a snapshot where its RA was down (mid-outage or just
    /// panicked): its next served round takes the rejoin path, exactly
    /// like the uninterrupted worker would.
    pub(crate) fn new(
        ra: RaId,
        env: &'a mut RaSliceEnv,
        policy: WorkerPolicy,
        was_down: bool,
        run: WorkerRun<'a>,
    ) -> Self {
        let n_slices = env.n_slices();
        let stream_seed = derive_stream_seed(run.master, DOMAIN_ORCH, ra.0 as u64);
        Self {
            ra,
            env,
            policy,
            run,
            stream_seed,
            // Placeholder only: `run_round` reseeds before every draw.
            rng: StdRng::seed_from_u64(stream_seed),
            n_slices,
            checkpoint: None,
            was_down,
            state: Vec::new(),
            action: Vec::new(),
            scratch: FleetScratch::new(),
        }
    }
}

impl RoundWorker for RaExecWorker<'_> {
    type Body = RaRoundBody;

    fn ra(&self) -> usize {
        self.ra.0
    }

    fn run_round(&mut self, info: &CoordInfo) -> RaReport<RaRoundBody> {
        let round_off = info.round;
        let view = self.run.injector.view(self.ra, round_off);
        // A scripted worker panic unwinds for real, before the RNG reseed
        // and before any state mutation: the panicked round leaves the
        // worker exactly as the previous round left it, which is what
        // makes caught panics replayable from a snapshot.
        if view.panic {
            // lint:allow(panic-policy): scripted fault injection — this unwind IS the failure under test; the Supervisor must observe a real worker panic
            panic!("injected worker panic: ra {} round {round_off}", self.ra.0);
        }
        self.rng = StdRng::seed_from_u64(derive_stream_seed(
            self.stream_seed,
            DOMAIN_ROUND,
            round_off as u64,
        ));
        // Converge on the broadcast slice-lifecycle state *before* the
        // dark-RA early return, so an RA serving nothing still tracks
        // admissions/teardowns and rejoins with the correct slice set.
        if !info.lifecycle.is_empty() {
            match crate::workload::LifecycleState::decode(&info.lifecycle) {
                Ok(state) => {
                    if let Err(err) = self.env.apply_lifecycle(&state) {
                        eprintln!(
                            "edgeslice: ignoring mis-shaped lifecycle payload \
                             (ra {}): {err}",
                            self.ra.0
                        );
                    }
                }
                Err(err) => eprintln!(
                    "edgeslice: ignoring undecodable lifecycle payload (ra {}): {err}",
                    self.ra.0
                ),
            }
        }
        let round = self.run.round_base + round_off;
        if view.down {
            // Outage start: make-before-break — snapshot the policy the
            // RA will be re-deployed from when it rejoins.
            if !self.was_down {
                self.handle_control(&Control::Checkpoint);
            }
            self.was_down = true;
            return RaReport {
                ra: self.ra.0,
                round: round_off,
                deadline_missed: false,
                body: None,
            };
        }
        if view.rejoining || self.was_down {
            self.handle_control(&Control::Rejoin { round: round_off });
            self.was_down = false;
        }
        self.env.set_capacity_scale(view.capacity_scale);
        if !view.broadcast_dropped {
            self.env.set_coordination(&info.zy);
        }
        let mut u = vec![0.0; self.n_slices];
        let mut records = Vec::with_capacity(self.run.period * self.n_slices);
        for t in 0..self.run.period {
            match &self.policy {
                WorkerPolicy::Learned(policy) => {
                    self.env.observe_into(&mut self.state);
                    policy.decide_into(&self.state, &mut self.scratch, &mut self.action);
                }
                WorkerPolicy::Taro(taro) => {
                    self.env.queue_lengths_into(&mut self.state);
                    taro.action_into(&self.state, &mut self.action);
                }
            }
            if self.run.project_actions {
                project_action_per_resource(&mut self.action, self.n_slices);
            }
            self.env.advance_scratch(&self.action, &mut self.rng);
            let perf = self.env.last_performance();
            let queues = self.env.queues();
            let shares = self.env.last_shares();
            for i in 0..self.n_slices {
                u[i] += perf[i];
                records.push(MonitorRecord {
                    round,
                    interval: t,
                    ra: self.ra,
                    slice: SliceId(i),
                    queue: queues[i].backlog(),
                    performance: perf[i],
                    shares: shares[i].as_array(),
                    status: IntervalStatus::Served,
                });
            }
        }
        if view.straggler && !self.run.straggle_sleep.is_zero() {
            std::thread::sleep(self.run.straggle_sleep);
        }
        RaReport {
            ra: self.ra.0,
            round: round_off,
            deadline_missed: view.straggler,
            body: Some(RaRoundBody {
                u,
                queues: self.env.queues().to_vec(),
                coordination: self.env.coordination().to_vec(),
                global_t: self.env.global_t(),
                records,
                active: self.env.slice_active().to_vec(),
                rates: self.env.rate_overrides().to_vec(),
            }),
        }
    }

    fn handle_control(&mut self, ctl: &Control) {
        match ctl {
            Control::Checkpoint => {
                if let (None, WorkerPolicy::Learned(policy)) = (&self.checkpoint, &self.policy) {
                    self.checkpoint = Some(policy.clone());
                }
            }
            Control::Rejoin { .. } => {
                // The node rebooted: backlog is gone, and the policy is
                // re-deployed from the outage-start checkpoint.
                self.env.clear_queues();
                if let Some(ckpt) = self.checkpoint.take() {
                    self.policy = WorkerPolicy::Learned(ckpt);
                }
            }
            Control::Shutdown => {}
        }
    }

    fn recover(&mut self) -> bool {
        // The supervisor respawns this worker after a caught panic. The
        // panicked round mutated nothing, so recovery is a rejoin: the
        // next served round flushes the queues and redeploys the policy —
        // identical to a node reboot, and to what a resumed process does.
        self.was_down = true;
        true
    }
}

/// The coordinator task: folds per-RA reports and supervision telemetry
/// into the ADMM update, the monitor database, the [`RunReport`], and —
/// every K rounds, when a durable sink is attached — a crash-consistent
/// [`RunSnapshot`].
pub(crate) struct SystemExecCoordinator<'a> {
    coordinator: &'a mut PerformanceCoordinator,
    monitor: &'a mut SystemMonitor,
    slices: &'a [SliceSpec],
    n_ras: usize,
    period: usize,
    round_base: usize,
    /// Rolling per-RA round-boundary state, refreshed from report bodies;
    /// what a snapshot freezes.
    worker_state: Vec<WorkerSnapshot>,
    /// Caught panics per RA, prior runs included: seeds resumed restart
    /// budgets.
    panic_counts: Vec<usize>,
    /// The effective policy per RA (`None` for TARO), re-installed
    /// verbatim on resume.
    policies: Vec<Option<PolicyCheckpoint>>,
    /// Durable sink: `(store, every_k, master_seed)`.
    sink: Option<(&'a CheckpointStore, usize, u64)>,
    /// The dynamic-workload state machine, when a workload plan is set:
    /// its events are applied at the top of each broadcast and its
    /// absolute state rides the `CoordInfo::lifecycle` payload.
    lifecycle: Option<&'a mut crate::workload::SliceLifecycle>,
    /// The per-round records accumulated so far.
    pub report: RunReport,
}

impl<'a> SystemExecCoordinator<'a> {
    pub(crate) fn new(
        coordinator: &'a mut PerformanceCoordinator,
        monitor: &'a mut SystemMonitor,
        slices: &'a [SliceSpec],
        n_ras: usize,
        period: usize,
        round_base: usize,
    ) -> Self {
        Self {
            coordinator,
            monitor,
            slices,
            n_ras,
            period,
            round_base,
            worker_state: (0..n_ras)
                .map(|j| WorkerSnapshot {
                    ra: RaId(j),
                    queues: Vec::new(),
                    coordination: Vec::new(),
                    global_t: 0,
                    was_down: false,
                    active: Vec::new(),
                    rates: Vec::new(),
                })
                .collect(),
            panic_counts: vec![0; n_ras],
            policies: vec![None; n_ras],
            sink: None,
            lifecycle: None,
            report: RunReport::default(),
        }
    }

    /// Attaches the dynamic-workload state machine for this run.
    pub(crate) fn with_workload(
        mut self,
        lifecycle: Option<&'a mut crate::workload::SliceLifecycle>,
    ) -> Self {
        self.lifecycle = lifecycle;
        self
    }

    /// Seeds the coordinator with resume (or fresh-run) state: the per-RA
    /// round-boundary snapshots, prior panic counts, effective policies,
    /// and the already-completed report prefix.
    pub(crate) fn with_state(
        mut self,
        worker_state: Vec<WorkerSnapshot>,
        panic_counts: Vec<usize>,
        policies: Vec<Option<PolicyCheckpoint>>,
        prefix: RunReport,
    ) -> Self {
        self.worker_state = worker_state;
        self.panic_counts = panic_counts;
        self.policies = policies;
        self.report = prefix;
        self
    }

    /// Records `ra` as having served nothing in `round`: one explicit
    /// outage row per (interval, slice).
    fn record_outage(&mut self, round: usize, ra: RaId) {
        for t in 0..self.period {
            for i in 0..self.slices.len() {
                self.monitor
                    .record(MonitorRecord::outage(round, t, ra, SliceId(i)));
            }
        }
    }

    /// Attaches a durable snapshot sink writing every `every_k` rounds.
    pub(crate) fn with_sink(
        mut self,
        store: &'a CheckpointStore,
        every_k: usize,
        master_seed: u64,
    ) -> Self {
        self.sink = Some((store, every_k, master_seed));
        self
    }
}

impl RoundCoordinator for SystemExecCoordinator<'_> {
    type Body = RaRoundBody;

    fn broadcast(&mut self, round: usize) -> Vec<Vec<f64>> {
        // Apply this round's lifecycle events *before* computing `z − y`,
        // so the broadcast already reflects admissions, resizes and
        // teardowns decided this round.
        if let Some(lc) = self.lifecycle.as_deref_mut() {
            use crate::monitor::{LifecycleChange, LifecycleRecord};
            use crate::workload::LifecycleAction;
            let global_round = self.round_base + round;
            for action in lc.apply_round(round) {
                let (slice, change) = match action {
                    LifecycleAction::Admitted { slice, sla } => {
                        self.coordinator.admit_slice(slice, sla);
                        (slice, LifecycleChange::Admitted)
                    }
                    LifecycleAction::Rejected { slice, reason } => {
                        (slice, LifecycleChange::Rejected { reason })
                    }
                    LifecycleAction::Resized { slice, sla } => {
                        self.coordinator.resize_slice(slice, sla);
                        (slice, LifecycleChange::Resized)
                    }
                    LifecycleAction::ResizeRejected { slice, reason } => {
                        (slice, LifecycleChange::ResizeRejected { reason })
                    }
                    LifecycleAction::Departed { slice } => {
                        self.coordinator.depart_slice(slice);
                        (slice, LifecycleChange::Departed)
                    }
                };
                self.monitor.record_lifecycle(LifecycleRecord {
                    round: global_round,
                    slice,
                    change,
                });
            }
        }
        let info = self.coordinator.coordination_info();
        (0..self.n_ras).map(|j| info.for_ra(RaId(j))).collect()
    }

    fn lifecycle_delta(&mut self, _round: usize) -> Vec<u8> {
        match self.lifecycle.as_deref() {
            Some(lc) => lc.state().encode(),
            None => Vec::new(),
        }
    }

    fn collect(
        &mut self,
        round_off: usize,
        reports: Vec<Option<RaReport<RaRoundBody>>>,
        telemetry: &RoundTelemetry,
    ) -> bool {
        let round = self.round_base + round_off;
        let n_slices = self.slices.len();
        // Fold the supervision events first: every downed RA is reported
        // explicitly — never silently truncated into a missing report.
        let mut downed = Vec::new();
        for down in &telemetry.downs {
            if down.ra >= self.n_ras {
                continue;
            }
            downed.push(RaId(down.ra));
            if matches!(down.cause, DownCause::Panic(_)) {
                // The worker's `recover` hook marked it down; mirror that
                // in the snapshot state so a resumed worker takes the
                // same rejoin path, and count the panic against the
                // resumed restart budget.
                self.panic_counts[down.ra] += 1;
                self.worker_state[down.ra].was_down = true;
            }
            if matches!(down.cause, DownCause::LeaseExpired { .. }) {
                // A lease-expired (networked) worker rejoins through the
                // same path a panicked one resumes through — but nothing
                // crashed, so its restart budget is untouched.
                self.worker_state[down.ra].was_down = true;
            }
            self.report.supervision.worker_downs.push(DownEvent {
                ra: RaId(down.ra),
                round,
                cause: down.cause.to_string(),
            });
        }
        self.report.supervision.deadline_timeouts += usize::from(telemetry.deadline_expired);
        self.report.supervision.disconnects += usize::from(telemetry.channel_disconnected);
        self.report.supervision.discarded_reports += telemetry.discarded_reports;

        let mut achieved = vec![vec![0.0; self.n_ras]; n_slices];
        let mut present = vec![true; self.n_ras];
        let mut load = vec![0.0; self.n_ras];
        let mut outages = Vec::new();
        for (j, slot) in reports.into_iter().enumerate() {
            match slot {
                // No report. Either the worker is down (a typed event in
                // `downed`: the RA served nothing, so it gets explicit
                // outage rows and SLA proration, like a scripted outage)
                // or the report was lost to a wall-clock deadline expiry
                // / dead channel (the rows are lost with the message).
                None => {
                    present[j] = false;
                    if downed.contains(&RaId(j)) {
                        self.record_outage(round, RaId(j));
                    }
                }
                Some(rep) => match rep.body {
                    // A dark RA: nothing served, explicit outage rows.
                    None => {
                        present[j] = false;
                        outages.push(RaId(j));
                        self.worker_state[j].was_down = true;
                        self.record_outage(round, RaId(j));
                    }
                    Some(body) => {
                        for (row, &u) in achieved.iter_mut().zip(&body.u) {
                            row[j] = u;
                        }
                        load[j] = body.queues.iter().map(|q| q.backlog()).sum();
                        self.worker_state[j] = WorkerSnapshot {
                            ra: RaId(j),
                            queues: body.queues,
                            coordination: body.coordination,
                            global_t: body.global_t,
                            was_down: false,
                            active: body.active,
                            rates: body.rates,
                        };
                        for record in body.records {
                            self.monitor.record(record);
                        }
                        // Served but reported late: the coordinator treats
                        // the RA as missing (the late report is superseded
                        // by the next one).
                        if rep.deadline_missed {
                            present[j] = false;
                        }
                    }
                },
            }
        }
        let residuals = self.coordinator.update_partial(&achieved, &present);
        let slice_performance: Vec<f64> = achieved.iter().map(|row| row.iter().sum()).collect();
        // Dark intervals are excluded from SLA accounting: the target
        // shrinks with the fraction of (RA, interval) pairs served.
        let served_fraction = self
            .monitor
            .round_served_fraction(round, self.n_ras, self.period);
        // SLA checks run against the coordinator's *live* contracts:
        // admissions and resizes update `Umin` online, and an inactive
        // slot (pending, rejected, departed) trivially meets its SLA.
        let sla_met: Vec<bool> = self
            .slices
            .iter()
            .map(|s| {
                !self.coordinator.slice_active(s.id)
                    || slice_performance[s.id.0]
                        >= self.coordinator.slice_umin(s.id) * served_fraction - 1e-9
            })
            .collect();
        let usage: Vec<[f64; 3]> = (0..n_slices)
            .map(|i| self.monitor.round_usage(round, SliceId(i)))
            .collect();
        self.report.rounds.push(RoundRecord {
            round,
            system_performance: slice_performance.iter().sum(),
            slice_performance,
            usage,
            residuals,
            sla_met,
            outages,
            downed,
            discarded_reports: telemetry.discarded_reports,
            served_fraction,
            load,
        });
        if let Some((store, every_k, master_seed)) = self.sink {
            if (round_off + 1).is_multiple_of(every_k) {
                let snapshot = RunSnapshot {
                    master_seed,
                    round_base: self.round_base,
                    next_round: round_off + 1,
                    coordinator: self.coordinator.snapshot(),
                    workers: self.worker_state.clone(),
                    policies: self.policies.clone(),
                    panic_counts: self.panic_counts.clone(),
                    rounds: self.report.rounds.clone(),
                    supervision: self.report.supervision.clone(),
                    slices: self.slices.to_vec(),
                    lifecycle: self
                        .lifecycle
                        .as_deref()
                        .map(crate::workload::SliceLifecycle::snapshot),
                };
                // A failed checkpoint write degrades resumability, not the
                // run itself: report it and keep going.
                if let Err(err) = store.save_run(&snapshot) {
                    eprintln!("edgeslice: checkpoint write failed (run continues): {err}");
                }
            }
        }
        self.coordinator.converged()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The worker and every type it owns must be shippable to a worker
    /// thread; this fails to compile if anyone reintroduces non-`Send`
    /// shared state (the `Send` audit, enforced forever).
    #[test]
    fn worker_types_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<RaSliceEnv>();
        assert_send::<crate::OrchestrationAgent>();
        assert_send::<RaExecWorker<'_>>();
        assert_send::<RaRoundBody>();
        fn assert_sync<T: Sync>() {}
        assert_sync::<FaultInjector>();
        assert_sync::<crate::OrchestrationAgent>();
        assert_sync::<crate::CheckpointStore>();
    }

    /// A peer's report may only carry its own rows for the round being
    /// collected: anything else is rejected before it reaches the monitor.
    #[test]
    fn decode_body_rejects_rows_that_are_not_the_reporters() {
        let body = |record: MonitorRecord| RaRoundBody {
            u: vec![0.0],
            queues: Vec::new(),
            coordination: Vec::new(),
            global_t: 0,
            records: vec![record],
            active: Vec::new(),
            rates: Vec::new(),
        };
        let decode = |record| decode_body(&encode_body(&body(record)).unwrap(), RaId(1), 7, 2);
        assert!(decode(MonitorRecord::outage(7, 0, RaId(1), SliceId(1))).is_ok());
        for foreign in [
            MonitorRecord::outage(usize::MAX, 0, RaId(1), SliceId(1)),
            MonitorRecord::outage(7, 0, RaId(0), SliceId(1)),
            MonitorRecord::outage(7, 0, RaId(1), SliceId(2)),
        ] {
            assert!(matches!(
                decode(foreign),
                Err(crate::EdgeSliceError::Serialization(_))
            ));
        }
    }
}
