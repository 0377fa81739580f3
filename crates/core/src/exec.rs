//! The orchestration layer's bindings to the [`edgeslice_runtime`]
//! execution engine: one [`RaExecWorker`] per resource autonomy (policy +
//! environment + private RNG stream + fault view) and one
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

use std::sync::Arc;
use std::time::Duration;

use edgeslice_nn::RowScratch;
use edgeslice_runtime::{
    CoordInfo, DownCause, RaReport, RoundCoordinator, RoundTelemetry, RoundWorker, Stream,
};
use rand::rngs::StdRng;

use crate::orchestrator::DownEvent;
use crate::store::{CheckpointStore, RunSnapshot, WorkerSnapshot};
use crate::{
    project_action_per_resource, FaultInjector, IntervalStatus, MonitorRecord,
    PerformanceCoordinator, PolicyCheckpoint, RaId, RaSliceEnv, RoundRecord, RunReport, SliceId,
    SliceSpec, SystemMonitor, Taro,
};

/// The policy an RA is deployed with: one per RA in the system, set only
/// where a policy changes (`new`, `train`, `deploy`, `resume`) and handed
/// to the RA's worker as is. Nothing reassigns it during a run, so a
/// worker that rejoins after an outage decides with the policy it had.
#[derive(Clone)]
pub(crate) enum WorkerPolicy {
    /// A frozen learned policy: the learner's weights as `new`, `train`
    /// or `deploy` left them, or a snapshot's. RAs deployed with replicas
    /// of one learner share one checkpoint.
    Learned(Arc<PolicyCheckpoint>),
    /// The TARO proportional baseline.
    Taro(Taro),
}

impl WorkerPolicy {
    /// `agent`'s policy as it stands, frozen.
    pub(crate) fn from_agent(agent: &crate::OrchestrationAgent) -> Self {
        WorkerPolicy::Learned(Arc::new(PolicyCheckpoint::from_agent(agent)))
    }

    /// The frozen policy, for learned kinds.
    pub(crate) fn learned(&self) -> Option<&PolicyCheckpoint> {
        match self {
            WorkerPolicy::Learned(policy) => Some(policy),
            WorkerPolicy::Taro(_) => None,
        }
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
    /// Real wall-clock delay applied when a worker straggles, making the
    /// late report physically late on the channel (zero by default so
    /// determinism tests stay instant).
    pub straggle_sleep: Duration,
}

/// One RA's round outcome, carried in [`RaReport::body`]: this round's
/// monitor rows (the VR-interface reports, shipped to the central monitor
/// in one batch per round) and the RA's state at the round's end (the
/// coordinator's snapshot material).
///
/// Which RA reported, for which round, is what the coordinator already
/// knows; so is where each row sits in the grid. The body carries neither,
/// nor the achieved per-slice `Σ_t U`: that is the sum of the rows'
/// performance in interval order, and the coordinator adds it up itself.
///
/// Serializable because the networked runtime ships it across process
/// boundaries as an opaque frame payload (see [`encode_body`]); JSON's
/// Ryu `f64` round-trip keeps loopback and socket runs byte-identical.
#[derive(serde::Serialize, serde::Deserialize)]
pub(crate) struct RaRoundBody {
    /// The round's rows, interval-major: row `k` is interval
    /// `k / n_slices`, slice `k % n_slices`.
    pub rows: Vec<MeasuredRow>,
    /// The RA's round-boundary state after this round.
    pub state: WorkerSnapshot,
}

/// What one served (interval, slice) cell measured: the monitor row
/// without its identity, which the coordinator stamps from the cell.
#[derive(Clone, Copy, serde::Serialize, serde::Deserialize)]
pub(crate) struct MeasuredRow {
    /// Queue length at interval end.
    pub queue: f64,
    /// Performance `U`.
    pub performance: f64,
    /// Applied shares `[radio, transport, compute]`.
    pub shares: [f64; 3],
}

impl MeasuredRow {
    /// This measurement as the served row of `cell`'s (round, interval,
    /// RA, slice).
    fn at(self, cell: MonitorRecord) -> MonitorRecord {
        MonitorRecord {
            queue: self.queue,
            performance: self.performance,
            shares: self.shares,
            status: IntervalStatus::Served,
            ..cell
        }
    }
}

/// Encodes a round body for the wire (the networked runtime carries it as
/// an opaque payload inside a `Report` frame).
pub(crate) fn encode_body(body: &RaRoundBody) -> Result<Vec<u8>, crate::EdgeSliceError> {
    serde_json::to_string(body)
        .map(String::into_bytes)
        .map_err(crate::EdgeSliceError::from)
}

/// Decodes the wire round body RA `ra` reported. A payload that framed
/// correctly but fails to decode is a protocol bug or a foreign peer — a
/// typed error, never a panic. So is a body whose state fails
/// [`WorkerSnapshot::check`] for `ra` or marks the RA down (the
/// coordinator folds that state into the next snapshot, which a resume
/// restores into the environments), and one whose rows are not the
/// `period × n_slices` grid a worker emits: the monitor sums every row
/// into the cell its position names, so a peer must not leave cells out
/// or add any.
pub(crate) fn decode_body(
    bytes: &[u8],
    ra: RaId,
    period: usize,
    n_slices: usize,
) -> Result<RaRoundBody, crate::EdgeSliceError> {
    let text = std::str::from_utf8(bytes)
        .map_err(|e| crate::EdgeSliceError::Serialization(format!("non-UTF-8 body: {e}")))?;
    let body: RaRoundBody = serde_json::from_str(text)?;
    let refuse = |reason: String| {
        crate::EdgeSliceError::Serialization(format!("{ra}'s report body: {reason}"))
    };
    body.state.check(ra, n_slices).map_err(refuse)?;
    if body.state.was_down {
        return Err(refuse("a served round's state marks the RA down".into()));
    }
    if Some(body.rows.len()) != period.checked_mul(n_slices) {
        return Err(refuse(format!(
            "{} monitor rows, not {period} × {n_slices}",
            body.rows.len()
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
    was_down: bool,
    /// What the policy observes this interval (Eq. 13 state; queue
    /// lengths under TARO), its action, and the batch-1 inference
    /// scratch: worker-owned and refilled in place, so an agent step
    /// never touches the allocator.
    state: Vec<f64>,
    action: Vec<f64>,
    scratch: RowScratch,
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
        let stream_seed = Stream::Orch.seed(run.master, ra.0 as u64);
        Self {
            ra,
            env,
            policy,
            run,
            stream_seed,
            // Placeholder only: `run_round` reseeds before every draw.
            rng: crate::stream_rng(run.master, Stream::Orch, ra.0 as u64),
            n_slices,
            was_down,
            state: Vec::new(),
            action: Vec::new(),
            scratch: RowScratch::new(),
        }
    }

    /// The node rebooted: its backlog is gone. Its policy is the one it
    /// was deployed with, which nothing reassigns during a run.
    fn rejoin(&mut self) {
        self.env.clear_queues();
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
        #[expect(
            clippy::panic,
            reason = "scripted fault injection: this unwind is the failure under test, and the \
                      Supervisor must observe a real worker panic"
        )]
        if view.panic {
            panic!("injected worker panic: ra {} round {round_off}", self.ra.0);
        }
        self.rng = crate::stream_rng(self.stream_seed, Stream::Round, round_off as u64);
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
        if view.down {
            self.was_down = true;
            return RaReport {
                ra: self.ra.0,
                round: round_off,
                deadline_missed: false,
                body: None,
            };
        }
        if view.rejoining || self.was_down {
            self.rejoin();
            self.was_down = false;
        }
        self.env.set_capacity_scale(view.capacity_scale);
        if !view.broadcast_dropped {
            self.env.set_coordination(&info.zy);
        }
        let mut rows = Vec::with_capacity(self.run.period * self.n_slices);
        for _ in 0..self.run.period {
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
            rows.extend((0..self.n_slices).map(|i| MeasuredRow {
                queue: queues[i].backlog(),
                performance: perf[i],
                shares: shares[i].as_array(),
            }));
        }
        if view.straggler && !self.run.straggle_sleep.is_zero() {
            std::thread::sleep(self.run.straggle_sleep);
        }
        RaReport {
            ra: self.ra.0,
            round: round_off,
            deadline_missed: view.straggler,
            body: Some(RaRoundBody {
                rows,
                state: WorkerSnapshot::capture(self.ra, self.env),
            }),
        }
    }

    fn recover(&mut self) -> bool {
        // The supervisor respawns this worker after a caught panic. The
        // panicked round mutated nothing, so recovery is a rejoin: the
        // next served round flushes the queues — identical to a node
        // reboot, and to what a resumed process does.
        self.was_down = true;
        true
    }
}

/// The state a run enters the round loop with: the system as it stands
/// for a fresh run, a snapshot's for a resumed one.
pub(crate) struct RunStart {
    /// First engine-local round to execute.
    pub(crate) first_round: usize,
    /// Global round index of the run's round 0.
    pub(crate) round_base: usize,
    /// Per-RA round-boundary state.
    pub(crate) worker_state: Vec<WorkerSnapshot>,
    /// Caught panics per RA so far (restart budgets).
    pub(crate) panic_counts: Vec<usize>,
    /// The rounds (and supervision telemetry) already completed.
    pub(crate) prefix: RunReport,
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
    /// The deployed policy per RA, re-installed verbatim on resume.
    policies: &'a [WorkerPolicy],
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
    /// The coordinator task of a run over `n_ras` RAs on `policies` (the
    /// deployed policy per RA), entering the round loop at `start`.
    pub(crate) fn new(
        coordinator: &'a mut PerformanceCoordinator,
        monitor: &'a mut SystemMonitor,
        slices: &'a [SliceSpec],
        n_ras: usize,
        period: usize,
        policies: &'a [WorkerPolicy],
        start: RunStart,
    ) -> Self {
        Self {
            coordinator,
            monitor,
            slices,
            n_ras,
            period,
            round_base: start.round_base,
            worker_state: start.worker_state,
            panic_counts: start.panic_counts,
            policies,
            sink: None,
            lifecycle: None,
            report: start.prefix,
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

    /// Records RA `ra`'s `round` in the monitor, one row per (interval,
    /// slice) cell, stamped with the cell's identity: row `k` of `rows` is
    /// interval `k / n_slices`, slice `k % n_slices`. Without rows the RA
    /// served nothing, and every cell is an explicit outage row.
    fn record_rows(&mut self, round: usize, ra: RaId, rows: Option<&[MeasuredRow]>) {
        let n_slices = self.slices.len();
        for k in 0..self.period * n_slices {
            let cell = MonitorRecord::outage(round, k / n_slices, ra, SliceId(k % n_slices));
            let row = rows.and_then(|rows| rows.get(k));
            self.monitor.record(row.map_or(cell, |row| row.at(cell)));
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
            use crate::workload::LifecycleAction;
            for action in lc.apply_round(round) {
                match action {
                    LifecycleAction::Admitted { slice, sla } => {
                        self.coordinator.admit_slice(slice, sla)
                    }
                    LifecycleAction::Resized { slice, sla } => {
                        self.coordinator.resize_slice(slice, sla)
                    }
                    LifecycleAction::Departed { slice } => self.coordinator.depart_slice(slice),
                }
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
                        self.record_rows(round, RaId(j), None);
                    }
                }
                Some(rep) => match rep.body {
                    // A dark RA: nothing served, explicit outage rows.
                    None => {
                        present[j] = false;
                        outages.push(RaId(j));
                        self.worker_state[j].was_down = true;
                        self.record_rows(round, RaId(j), None);
                    }
                    Some(body) => {
                        // `Σ_t U` per slice, summed in interval order from
                        // +0.0 — the worker's own sum, bit for bit.
                        for (k, row) in body.rows.iter().enumerate() {
                            achieved[k % n_slices][j] += row.performance;
                        }
                        load[j] = body.state.queues.iter().map(|q| q.backlog()).sum();
                        self.record_rows(round, RaId(j), Some(&body.rows));
                        self.worker_state[j] = body.state;
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
                    policies: self.policies.iter().map(|p| p.learned().cloned()).collect(),
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

    /// The coordinator task keeps a round's three failure signals apart:
    /// an expired deadline, a dead channel and discarded reports each land
    /// in their own `SupervisionStats` counter.
    #[test]
    fn collect_counts_disconnects_apart_from_deadlines() {
        let slices = [
            SliceSpec::experiment_slice1(),
            SliceSpec::experiment_slice2(),
        ];
        let slas: Vec<_> = slices.iter().map(|s| s.sla).collect();
        let mut coordinator = PerformanceCoordinator::new(&slas, 1, Default::default());
        let mut monitor = SystemMonitor::new();
        // No report and no down: nothing reads the RA's state.
        let start = RunStart {
            first_round: 0,
            round_base: 0,
            worker_state: Vec::new(),
            panic_counts: vec![0],
            prefix: RunReport::default(),
        };
        let policies = [WorkerPolicy::Taro(Taro::new())];
        let mut exec = SystemExecCoordinator::new(
            &mut coordinator,
            &mut monitor,
            &slices,
            1,
            2,
            &policies,
            start,
        );
        // `(deadline expired, channel disconnected, reports discarded)`.
        for (round, (expired, disconnected, discarded)) in
            [(true, false, 0), (false, true, 0), (false, false, 2)]
                .into_iter()
                .enumerate()
        {
            let telemetry = RoundTelemetry {
                downs: Vec::new(),
                discarded_reports: discarded,
                deadline_expired: expired,
                channel_disconnected: disconnected,
            };
            exec.collect(round, vec![None], &telemetry);
        }
        let sup = &exec.report.supervision;
        let counters = (
            sup.deadline_timeouts,
            sup.disconnects,
            sup.discarded_reports,
        );
        assert_eq!(counters, (1, 1, 2), "{sup:?}");
        assert!(sup.worker_downs.is_empty());
        assert_eq!(exec.report.rounds.len(), 3);
    }

    /// A peer's report may only carry the grid a worker emits — one row
    /// per (interval, slice) cell — and its own state, one entry of valid
    /// state per slice: anything else is rejected before it reaches the
    /// monitor or a snapshot.
    #[test]
    fn decode_body_rejects_rows_that_are_not_the_reporters() {
        const PERIOD: usize = 3;
        let row = MeasuredRow {
            queue: 1.0,
            performance: -2.0,
            shares: [0.5; 3],
        };
        let grid = vec![row; PERIOD * 2];
        let state = || WorkerSnapshot {
            ra: RaId(1),
            queues: vec![edgeslice_netsim::ServiceQueue::new(); 2],
            coordination: vec![0.0; 2],
            global_t: 0,
            was_down: false,
            active: vec![true; 2],
            rates: vec![None, Some(1.5)],
        };
        let body = |rows: Vec<MeasuredRow>| RaRoundBody {
            rows,
            state: state(),
        };
        let decode_text = |text: &str| decode_body(text.as_bytes(), RaId(1), PERIOD, 2).map(|_| ());
        let encode = |body: RaRoundBody| String::from_utf8(encode_body(&body).unwrap()).unwrap();
        let decode = |rows| decode_text(&encode(body(rows)));
        assert!(decode(grid.clone()).is_ok());
        // Per-slice state of another length or out of range, another RA's
        // state, and a served round's state marked down.
        let edits: [fn(&mut WorkerSnapshot); 7] = [
            |s| s.queues.push(edgeslice_netsim::ServiceQueue::new()),
            |s| s.coordination.truncate(1),
            |s| s.active.clear(),
            |s| s.rates.truncate(1),
            |s| s.rates[1] = Some(-1.0),
            |s| s.ra = RaId(0),
            |s| s.was_down = true,
        ];
        for edit in edits {
            let mut hostile = body(grid.clone());
            edit(&mut hostile.state);
            assert!(matches!(
                decode_text(&encode(hostile)),
                Err(crate::EdgeSliceError::Serialization(_))
            ));
        }
        // JSON has no non-finite numbers; an overflowing one is refused too.
        let text = encode(body(grid.clone()));
        assert!(text.contains("\"rates\":[null,1.5]"), "{text}");
        assert!(matches!(
            decode_text(&text.replace("\"rates\":[null,1.5]", "\"rates\":[null,1e999]")),
            Err(crate::EdgeSliceError::Serialization(_))
        ));
        let last = grid.len() - 1;
        // A short body, one row too many, and none at all.
        for misshaped in [
            grid[..last].to_vec(),
            [&grid[..], &grid[last..]].concat(),
            Vec::new(),
        ] {
            assert!(matches!(
                decode(misshaped),
                Err(crate::EdgeSliceError::Serialization(_))
            ));
        }
    }
}
