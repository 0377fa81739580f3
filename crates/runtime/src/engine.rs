//! The in-process executor: the worker and coordinator traits, and the
//! [`Engine`] that runs the one [`round_loop`] over RA workers gathered
//! either inline (sequential) or across worker threads with typed `mpsc`
//! channels, per-round deadlines, and panic supervision.

use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::time::Duration;

use crate::clock::RoundDeadline;
use crate::gather::{round_loop, RoundGather, SettleLedger};
use crate::msg::{CoordInfo, RaReport};
use crate::supervisor::{Supervisor, SupervisorConfig, WorkerDown};
use crate::Scheduler;

/// One resource autonomy's execution state: everything the RA needs to run
/// a coordination round locally (policy, environment, private RNG stream,
/// fault view, checkpoints). Implementations must be [`Send`] so a worker
/// can live on its own thread; they must *not* share mutable state with
/// any other worker — cross-RA communication goes through the coordinator.
pub trait RoundWorker: Send {
    /// The round-outcome payload carried back in [`RaReport::body`].
    type Body: Send;

    /// The RA index this worker serves. Workers handed to
    /// [`Engine::run`] must be sorted so `workers[j].ra() == j`.
    fn ra(&self) -> usize;

    /// Runs one coordination round under `info` and reports the outcome.
    fn run_round(&mut self, info: &CoordInfo) -> RaReport<Self::Body>;

    /// Called by the [`Supervisor`] after a panic was caught inside
    /// [`RoundWorker::run_round`], before this worker is driven again.
    /// Restore internal invariants to a servable state and return `true`
    /// to accept further rounds; the default declines, which marks the
    /// worker permanently dead ([`crate::DownCause::RestartsExhausted`]).
    fn recover(&mut self) -> bool {
        false
    }
}

/// Per-round engine telemetry handed to [`RoundCoordinator::collect`]
/// alongside the report slots: which workers went down and why, how many
/// reports were discarded, and whether the round ended on a deadline or a
/// dead channel. Every failure the engine observes is in here — nothing
/// is silently truncated.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RoundTelemetry {
    /// Typed worker failures observed this round, sorted by RA (so the
    /// sequence is identical across schedulers).
    pub downs: Vec<WorkerDown>,
    /// Reports dropped this round because they were stale (an earlier
    /// round's straggler), out of range (`ra >= n`), or a duplicate for
    /// an already-settled slot.
    pub discarded_reports: usize,
    /// The round's wall-clock deadline expired before every slot settled
    /// (a hung or genuinely slow worker).
    pub deadline_expired: bool,
    /// The report channel disconnected before every slot settled: every
    /// worker thread is gone, which is a crash, not a missed deadline.
    pub channel_disconnected: bool,
}

/// The outcome of an [`Engine::run`]: how many rounds ran. Each round's
/// failure telemetry went to [`RoundCoordinator::collect`] as it happened.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EngineReport {
    /// Coordination rounds executed (possibly fewer than requested if the
    /// coordinator stopped early).
    pub rounds: usize,
}

/// The coordinator side of the round protocol: produce the downstream
/// broadcast, fold the upstream reports. Runs on the caller's thread.
pub trait RoundCoordinator {
    /// The round-outcome payload consumed from [`RaReport::body`].
    type Body;

    /// The per-RA `z − y` payloads for `round` (indexed by RA).
    fn broadcast(&mut self, round: usize) -> Vec<Vec<f64>>;

    /// The encoded slice-lifecycle state accompanying round `round`'s
    /// broadcast, shared by every RA (carried opaquely in
    /// [`CoordInfo::lifecycle`]). Called exactly once per round, after
    /// [`broadcast`](Self::broadcast). Coordinators running a dynamic
    /// workload encode the *absolute* lifecycle state (not an incremental
    /// delta) so workers that missed rounds self-heal on the next
    /// broadcast. The default — a static slice set — sends nothing.
    fn lifecycle_delta(&mut self, _round: usize) -> Vec<u8> {
        Vec::new()
    }

    /// Folds this round's reports, indexed by RA. `None` means the RA
    /// produced no report — the reason (worker down, missed deadline,
    /// dead channel) is in `telemetry`. Returns `true` to stop the run
    /// (e.g. on convergence).
    fn collect(
        &mut self,
        round: usize,
        reports: Vec<Option<RaReport<Self::Body>>>,
        telemetry: &RoundTelemetry,
    ) -> bool;
}

/// How long the in-process coordinator waits for one round's reports
/// before handing the missing RAs on as *missing*: a liveness backstop
/// generous enough that only a hung worker ever misses it, which keeps
/// healthy runs deterministic across schedulers. Injected stragglers miss
/// their deadline *logically*, through the fault plan.
pub(crate) const ROUND_DEADLINE: Duration = Duration::from_secs(30);

/// The round-based execution engine. See the crate docs for the
/// determinism contract.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Engine {
    scheduler: Scheduler,
    supervision: SupervisorConfig,
    /// Panics each worker slot suffered in an earlier interrupted run;
    /// seeds the supervisors on resume (empty for fresh runs).
    prior_panics: Vec<usize>,
}

impl Engine {
    /// An engine on `scheduler` with the default supervision policy. Each
    /// round waits at most 30 s for its reports (`ROUND_DEADLINE`).
    pub fn new(scheduler: Scheduler) -> Self {
        Self {
            scheduler,
            supervision: SupervisorConfig::default(),
            prior_panics: Vec::new(),
        }
    }

    /// Sets the panic-supervision policy (restart budget and backoff).
    #[must_use]
    pub fn with_supervisor(mut self, supervision: SupervisorConfig) -> Self {
        self.supervision = supervision;
        self
    }

    /// Seeds the supervisors with the panic counts an earlier interrupted
    /// run accumulated per worker slot (missing slots count zero), so a
    /// resumed run applies the same restart budget the original would
    /// have: a slot that exhausted its budget before the interruption
    /// stays dead after it.
    #[must_use]
    pub fn with_prior_panics(mut self, counts: Vec<usize>) -> Self {
        self.prior_panics = counts;
        self
    }

    /// Runs up to `max_rounds` coordination rounds over `workers`, driving
    /// `coord` on the calling thread.
    ///
    /// # Panics
    ///
    /// Panics if `workers[j].ra() != j` for some `j` (the report
    /// collection indexes slots by RA).
    pub fn run<W, C>(&self, workers: &mut [W], coord: &mut C, max_rounds: usize) -> EngineReport
    where
        W: RoundWorker,
        C: RoundCoordinator<Body = W::Body>,
    {
        self.run_from(workers, coord, 0, max_rounds)
    }

    /// Runs coordination rounds `first_round..end_round` — the resume
    /// entry point: a run interrupted after round `r` restarts with
    /// `first_round == r + 1` and every broadcast/report keeps the round
    /// indices (and therefore the per-round RNG streams) of the original
    /// run.
    ///
    /// # Panics
    ///
    /// Panics if `workers[j].ra() != j` for some `j`.
    pub fn run_from<W, C>(
        &self,
        workers: &mut [W],
        coord: &mut C,
        first_round: usize,
        end_round: usize,
    ) -> EngineReport
    where
        W: RoundWorker,
        C: RoundCoordinator<Body = W::Body>,
    {
        for (j, w) in workers.iter().enumerate() {
            assert_eq!(w.ra(), j, "workers must be sorted by RA index");
        }
        if workers.is_empty() || first_round >= end_round {
            return EngineReport::default();
        }
        let prior: Vec<usize> = (0..workers.len())
            .map(|j| self.prior_panics.get(j).copied().unwrap_or(0))
            .collect();
        let n_threads = self.scheduler.threads(workers.len());
        // On a single-core host the threaded topology still pays the full
        // channel round-trip per report while the OS interleaves the shard
        // threads — strictly slower than inline execution. The determinism
        // contract makes the two gathers bit-identical, so fall back to
        // the inline one; `Threaded(1)`'s channel-debugging value only
        // exists where threads can actually run concurrently.
        if n_threads == 0 || host_parallelism() == 1 {
            let mut inline = InlineGather {
                workers,
                supervisor: Supervisor::with_panic_counts(self.supervision, &prior),
            };
            return round_loop(&mut inline, coord, first_round, end_round);
        }
        std::thread::scope(|s| {
            let mut shards = ShardGather::spawn(s, workers, n_threads, self.supervision, &prior);
            round_loop(&mut shards, coord, first_round, end_round)
        })
    }
}

/// The reference gather: every worker inline, in RA order, each round
/// guarded by one supervisor so a panic downs one RA instead of unwinding
/// through the whole run.
struct InlineGather<'a, W> {
    workers: &'a mut [W],
    supervisor: Supervisor,
}

impl<W: RoundWorker> RoundGather for InlineGather<'_, W> {
    type Body = W::Body;

    fn gather(
        &mut self,
        round: usize,
        zys: &[Vec<f64>],
        lifecycle: &[u8],
    ) -> (Vec<Option<RaReport<W::Body>>>, RoundTelemetry) {
        let mut ledger = SettleLedger::new(round, self.workers.len());
        for (j, w) in self.workers.iter_mut().enumerate() {
            let info = CoordInfo::addressed(round, j, zys, lifecycle);
            ledger.settle(self.supervisor.guard(j, w, &info));
        }
        ledger.finish()
    }

    /// Inline workers hold no thread or channel: there is nothing to end.
    fn shutdown(&mut self) {}
}

/// The decentralized gather: worker threads own contiguous RA shards; the
/// coordinator sends each shard its round commands, then settles what
/// comes back on a shared channel under the per-round deadline. Each
/// shard thread runs its own supervisor with the same per-slot policy as
/// the inline gather, so panic semantics are scheduler-invariant.
struct ShardGather<B> {
    n: usize,
    chunk_size: usize,
    /// One command channel per shard thread. Hanging up *is* the shutdown
    /// command: a shard serves until its channel closes.
    cmd_txs: Vec<Sender<Vec<CoordInfo>>>,
    /// What `Supervisor::guard` returned for each addressed RA.
    rep_rx: Receiver<Result<RaReport<B>, WorkerDown>>,
}

impl<B: Send> ShardGather<B> {
    /// Shards `workers` across `n_threads` threads of scope `s`.
    fn spawn<'scope, W: RoundWorker<Body = B>>(
        s: &'scope std::thread::Scope<'scope, '_>,
        workers: &'scope mut [W],
        n_threads: usize,
        supervision: SupervisorConfig,
        prior_panics: &[usize],
    ) -> Self
    where
        B: 'scope,
    {
        let n = workers.len();
        let chunk_size = n.div_ceil(n_threads);
        let (rep_tx, rep_rx) = mpsc::channel();
        let cmd_txs = workers
            .chunks_mut(chunk_size)
            .zip(prior_panics.chunks(chunk_size))
            .map(|(shard, prior)| {
                let (cmd_tx, cmd_rx) = mpsc::channel();
                let rep_tx = rep_tx.clone();
                let supervisor = Supervisor::with_panic_counts(supervision, prior);
                s.spawn(move || worker_loop(shard, &cmd_rx, &rep_tx, supervisor));
                cmd_tx
            })
            .collect();
        Self {
            n,
            chunk_size,
            cmd_txs,
            rep_rx,
        }
    }
}

impl<B> RoundGather for ShardGather<B> {
    type Body = B;

    fn gather(
        &mut self,
        round: usize,
        zys: &[Vec<f64>],
        lifecycle: &[u8],
    ) -> (Vec<Option<RaReport<B>>>, RoundTelemetry) {
        for (ci, cmd_tx) in self.cmd_txs.iter().enumerate() {
            let lo = ci * self.chunk_size;
            let hi = (lo + self.chunk_size).min(self.n);
            let infos = (lo..hi)
                .map(|j| CoordInfo::addressed(round, j, zys, lifecycle))
                .collect();
            // A dead thread surfaces as a disconnect below.
            let _ = cmd_tx.send(infos);
        }
        let mut ledger = SettleLedger::new(round, self.n);
        let deadline = RoundDeadline::after(ROUND_DEADLINE);
        while !ledger.all_settled() {
            match self.rep_rx.recv_timeout(deadline.remaining()) {
                Ok(outcome) => ledger.settle(outcome),
                Err(RecvTimeoutError::Timeout) => {
                    ledger.expire();
                    break;
                }
                // Every sender hung up: all worker threads are gone.
                Err(RecvTimeoutError::Disconnected) => ledger.disconnect(),
            }
        }
        ledger.finish()
    }

    fn shutdown(&mut self) {
        self.cmd_txs.clear();
    }
}

/// The per-thread worker loop: serve round commands for this thread's RA
/// shard until the coordinator hangs up. Every `run_round` is guarded, so
/// one panicking worker downs only its own RA — the shard thread and its
/// channel stay alive.
fn worker_loop<W: RoundWorker>(
    shard: &mut [W],
    cmd_rx: &Receiver<Vec<CoordInfo>>,
    rep_tx: &Sender<Result<RaReport<W::Body>, WorkerDown>>,
    mut supervisor: Supervisor,
) {
    let base = shard.first().map_or(0, RoundWorker::ra);
    while let Ok(infos) = cmd_rx.recv() {
        for info in infos {
            let slot = info.ra - base;
            let outcome = supervisor.guard(slot, &mut shard[slot], &info);
            if rep_tx.send(outcome).is_err() {
                return; // Coordinator gone; nothing left to serve.
            }
        }
    }
}

/// The host's available parallelism (1 when it cannot be queried). Both
/// the engine and [`par_map`] skip thread/channel machinery entirely when
/// this is 1: spawning threads on a single core only adds scheduling and
/// messaging overhead on top of the same serial work.
fn host_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// A deterministic, order-preserving parallel map: applies `f` to every
/// item, inline for [`Scheduler::Sequential`] and across scoped threads
/// (contiguous chunks) for [`Scheduler::Threaded`]. `f` receives the
/// item's global index so callers can derive per-item RNG streams; because
/// items never share state, the result is identical under every scheduler.
///
/// This is the primitive behind parallel per-RA training.
pub fn par_map<T, F>(scheduler: Scheduler, items: &mut [T], f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    let n_threads = scheduler.threads(items.len());
    if n_threads <= 1 || host_parallelism() == 1 {
        for (i, item) in items.iter_mut().enumerate() {
            f(i, item);
        }
        return;
    }
    let chunk_size = items.len().div_ceil(n_threads);
    std::thread::scope(|s| {
        for (ci, chunk) in items.chunks_mut(chunk_size).enumerate() {
            let f = &f;
            s.spawn(move || {
                for (k, item) in chunk.iter_mut().enumerate() {
                    f(ci * chunk_size + k, item);
                }
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DownCause;

    /// A deterministic toy worker: echoes a transform of the broadcast.
    struct EchoWorker {
        ra: usize,
        /// Pretend-PRNG state, advanced once per round.
        state: u64,
        /// Rounds this worker is "down" (reports `body: None`).
        dark: Vec<usize>,
        /// Rounds this worker straggles (flags `deadline_missed`).
        late: Vec<usize>,
        /// Rounds this worker panics mid-round.
        panics: Vec<usize>,
        /// Whether `recover` accepts a restart after a caught panic.
        recoverable: bool,
    }

    impl RoundWorker for EchoWorker {
        type Body = (u64, Vec<f64>);

        fn ra(&self) -> usize {
            self.ra
        }

        fn run_round(&mut self, info: &CoordInfo) -> RaReport<Self::Body> {
            if self.dark.contains(&info.round) {
                return RaReport {
                    ra: self.ra,
                    round: info.round,
                    deadline_missed: false,
                    body: None,
                };
            }
            assert!(
                !self.panics.contains(&info.round),
                "injected panic: ra {} round {}",
                self.ra,
                info.round
            );
            self.state = crate::derive_stream_seed(self.state, crate::Stream::Orch, 1);
            RaReport {
                ra: self.ra,
                round: info.round,
                deadline_missed: self.late.contains(&info.round),
                body: Some((self.state, info.zy.clone())),
            }
        }

        fn recover(&mut self) -> bool {
            self.recoverable
        }
    }

    /// Records everything it sees, byte-comparably, and the typed down
    /// events on their own.
    #[derive(Default)]
    struct RecordingCoordinator {
        n_ras: usize,
        log: Vec<String>,
        downs: Vec<WorkerDown>,
        stop_after: Option<usize>,
    }

    impl RoundCoordinator for RecordingCoordinator {
        type Body = (u64, Vec<f64>);

        fn broadcast(&mut self, round: usize) -> Vec<Vec<f64>> {
            (0..self.n_ras)
                .map(|j| vec![round as f64, j as f64])
                .collect()
        }

        fn collect(
            &mut self,
            round: usize,
            reports: Vec<Option<RaReport<Self::Body>>>,
            telemetry: &RoundTelemetry,
        ) -> bool {
            for (j, rep) in reports.iter().enumerate() {
                self.log.push(format!("{round}/{j}: {rep:?}"));
            }
            for down in &telemetry.downs {
                self.log.push(format!("{round}/down: {down}"));
            }
            self.downs.extend(telemetry.downs.iter().cloned());
            self.log.push(format!(
                "{round}/discarded: {} expired: {} disconnected: {}",
                telemetry.discarded_reports,
                telemetry.deadline_expired,
                telemetry.channel_disconnected
            ));
            self.stop_after.is_some_and(|r| round + 1 >= r)
        }
    }

    fn workers(n: usize) -> Vec<EchoWorker> {
        (0..n)
            .map(|j| EchoWorker {
                ra: j,
                state: j as u64,
                dark: if j == 1 { vec![2, 3] } else { vec![] },
                late: if j == 0 { vec![1] } else { vec![] },
                panics: vec![],
                recoverable: true,
            })
            .collect()
    }

    fn fast_supervision() -> SupervisorConfig {
        SupervisorConfig {
            backoff_base: Duration::ZERO,
            ..Default::default()
        }
    }

    fn run_with(scheduler: Scheduler, n: usize, rounds: usize) -> Vec<String> {
        let mut ws = workers(n);
        let mut coord = RecordingCoordinator {
            n_ras: n,
            ..Default::default()
        };
        let report = Engine::new(scheduler).run(&mut ws, &mut coord, rounds);
        assert_eq!(report.rounds, rounds);
        coord.log
    }

    #[test]
    fn threaded_matches_sequential_bit_for_bit() {
        let baseline = run_with(Scheduler::Sequential, 5, 6);
        for threads in [1, 2, 3, 5, 8] {
            assert_eq!(
                run_with(Scheduler::Threaded(threads), 5, 6),
                baseline,
                "threaded({threads}) diverged from sequential"
            );
        }
    }

    #[test]
    fn early_stop_respected_by_both_schedulers() {
        for scheduler in [Scheduler::Sequential, Scheduler::Threaded(2)] {
            let mut ws = workers(3);
            let mut coord = RecordingCoordinator {
                n_ras: 3,
                stop_after: Some(2),
                ..Default::default()
            };
            let report = Engine::new(scheduler).run(&mut ws, &mut coord, 10);
            assert_eq!(report.rounds, 2, "{scheduler}: wrong round count");
        }
    }

    #[test]
    fn workers_must_be_sorted_by_ra() {
        let mut ws = workers(2);
        ws.swap(0, 1);
        let mut coord = RecordingCoordinator {
            n_ras: 2,
            ..Default::default()
        };
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            Engine::new(Scheduler::Sequential).run(&mut ws, &mut coord, 1)
        }));
        assert!(result.is_err());
    }

    #[test]
    fn run_from_continues_round_indices_and_worker_state() {
        // A run split at round 3 must replay rounds 3..6 with the same
        // broadcasts and (because EchoWorker state carries over in place)
        // the same report payloads as the tail of a one-shot run.
        let full = run_with(Scheduler::Sequential, 4, 6);
        let mut ws = workers(4);
        let mut coord = RecordingCoordinator {
            n_ras: 4,
            ..Default::default()
        };
        let engine = Engine::new(Scheduler::Sequential);
        let head = engine.run_from(&mut ws, &mut coord, 0, 3);
        assert_eq!(head.rounds, 3);
        let tail = engine.run_from(&mut ws, &mut coord, 3, 6);
        assert_eq!(tail.rounds, 3);
        assert_eq!(coord.log, full);
    }

    #[test]
    fn panicking_worker_is_downed_not_fatal_and_scheduler_invariant() {
        let run = |scheduler: Scheduler| {
            let mut ws = workers(4);
            ws[2].panics = vec![1, 3];
            let mut coord = RecordingCoordinator {
                n_ras: 4,
                ..Default::default()
            };
            let report = Engine::new(scheduler)
                .with_supervisor(fast_supervision())
                .run(&mut ws, &mut coord, 5);
            assert_eq!(report.rounds, 5, "{scheduler}: panics must not end the run");
            coord
        };
        let seq = run(Scheduler::Sequential);
        assert_eq!(seq.downs.len(), 2);
        assert!(seq
            .downs
            .iter()
            .all(|d| d.ra == 2 && matches!(d.cause, DownCause::Panic(_))));
        for threads in [1, 2, 4] {
            let threaded = run(Scheduler::Threaded(threads));
            assert_eq!(threaded.downs, seq.downs, "threaded({threads}) downs");
            assert_eq!(threaded.log, seq.log, "threaded({threads}) log diverged");
        }
    }

    #[test]
    fn unrecoverable_panic_reports_down_every_remaining_round() {
        let mut ws = workers(3);
        ws[1].panics = vec![1];
        ws[1].recoverable = false;
        ws[1].dark = vec![]; // isolate the panic path
        let mut coord = RecordingCoordinator {
            n_ras: 3,
            ..Default::default()
        };
        let report = Engine::new(Scheduler::Threaded(2))
            .with_supervisor(fast_supervision())
            .run(&mut ws, &mut coord, 5);
        assert_eq!(report.rounds, 5);
        // Round 1: the panic. Rounds 2..5: explicit RestartsExhausted —
        // the failure is re-reported, never silently truncated.
        assert_eq!(coord.downs.len(), 4);
        assert!(matches!(coord.downs[0].cause, DownCause::Panic(_)));
        assert!(coord.downs[1..]
            .iter()
            .all(|d| d.cause == DownCause::RestartsExhausted));
        let rounds_ended = coord.log.iter().filter(|l| l.contains("/discarded: "));
        assert!(
            rounds_ended
                .clone()
                .all(|l| l.ends_with("expired: false disconnected: false")),
            "downs are neither deadline misses nor disconnects: {:?}",
            coord.log
        );
        assert_eq!(rounds_ended.count(), 5);
    }

    #[test]
    fn prior_panic_counts_resume_the_restart_budget() {
        // One-shot run: RA 1 panics in rounds 0..4 with max_restarts = 3,
        // so the 4th panic exhausts the budget and rounds 4.. report
        // RestartsExhausted.
        let full = {
            let mut ws = workers(3);
            ws[1].panics = (0..4).collect();
            ws[1].dark = vec![];
            let mut coord = RecordingCoordinator {
                n_ras: 3,
                ..Default::default()
            };
            Engine::new(Scheduler::Sequential)
                .with_supervisor(fast_supervision())
                .run(&mut ws, &mut coord, 6);
            coord
        };
        // Split run: rounds 0..3 (3 panics), then resume 3..6 carrying the
        // panic count — the tail must be byte-identical to the one-shot's.
        let mut ws = workers(3);
        ws[1].panics = (0..4).collect();
        ws[1].dark = vec![];
        let mut coord = RecordingCoordinator {
            n_ras: 3,
            ..Default::default()
        };
        let engine = Engine::new(Scheduler::Sequential).with_supervisor(fast_supervision());
        engine.run_from(&mut ws, &mut coord, 0, 3);
        assert_eq!(coord.downs.len(), 3);
        engine
            .clone()
            .with_prior_panics(vec![0, 3, 0])
            .run_from(&mut ws, &mut coord, 3, 6);
        assert_eq!(coord.downs, full.downs);
        assert_eq!(coord.log, full.log);
        assert!(matches!(coord.downs[3].cause, DownCause::Panic(_)));
        assert_eq!(coord.downs[4].cause, DownCause::RestartsExhausted);
    }

    #[test]
    fn empty_and_zero_round_runs_are_no_ops() {
        let mut ws: Vec<EchoWorker> = Vec::new();
        let mut coord = RecordingCoordinator::default();
        assert_eq!(
            Engine::new(Scheduler::Threaded(4))
                .run(&mut ws, &mut coord, 5)
                .rounds,
            0
        );
        let mut ws = workers(2);
        let mut coord = RecordingCoordinator {
            n_ras: 2,
            ..Default::default()
        };
        assert_eq!(
            Engine::new(Scheduler::Sequential)
                .run(&mut ws, &mut coord, 0)
                .rounds,
            0
        );
    }

    #[test]
    fn par_map_is_scheduler_invariant() {
        let run = |scheduler| {
            let mut items: Vec<u64> = (0..17).map(|i| i * 3).collect();
            par_map(scheduler, &mut items, |i, v| {
                *v = crate::derive_stream_seed(*v, crate::Stream::Train, i as u64);
            });
            items
        };
        let baseline = run(Scheduler::Sequential);
        for threads in [1, 2, 4, 16, 32] {
            assert_eq!(run(Scheduler::Threaded(threads)), baseline);
        }
    }
}
