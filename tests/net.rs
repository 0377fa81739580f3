//! Networked-runtime acceptance: transport-independent determinism and
//! lease-based fault handling.
//!
//! Exercises the multi-process protocol end to end with real worker peers
//! (threads here; `netchaos` in `crates/bench` repeats the key scenario
//! with separate processes and a real `kill -9`):
//!
//! * a worker that goes silent mid-run is detected by its *lapsed lease*
//!   — never by the socket — the run completes through the degraded-ADMM
//!   path, and the resulting [`RunReport`] is byte-identical between the
//!   in-memory loopback transport and a real Unix-domain socket;
//! * a replacement peer connecting mid-run re-syncs from the latest
//!   checkpoint snapshot and serves the remaining rounds;
//! * under the same scripted fault plan a networked run's report is
//!   byte-identical to the in-process run's — a caught worker panic's cause
//!   included;
//! * a peer whose report bodies do not decode is counted, folded as
//!   missing, and cannot stop the run;
//! * a peer whose link dies mid-round still leaves its substrate healthy;
//! * a hand-edited snapshot is a typed mismatch on resume and re-sync.

use std::path::{Path, PathBuf};
use std::thread;
use std::time::{Duration, SystemTime, UNIX_EPOCH};

use edgeslice::{
    channel_acceptor, connect_uds, loopback_pair, AgentConfig, CheckpointStore, Clock,
    EdgeSliceError, EdgeSliceSystem, FaultEvent, FaultInjector, FaultPlan, Lease, ListenerAcceptor,
    LoopbackTransport, NetConfig, NetCoordinator, NetListener, OrchestratorKind, RaId,
    ResourceKind, RetryPolicy, RunReport, RunSnapshot, ServeOutcome, SystemConfig, Transport,
    TransportError, WorkerNetOptions,
};
use edgeslice_rl::Technique;
use edgeslice_runtime::{
    caps, CoordInfo, NodeInfo, WireMsg, WorkerCommand, WorkerSession, PROTOCOL_VERSION,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

const N_RAS: usize = 2;
const ROUNDS: usize = 7;
const SEED: u64 = 23;

fn taro_system(rng: &mut StdRng) -> EdgeSliceSystem {
    EdgeSliceSystem::new(
        SystemConfig::prototype(),
        OrchestratorKind::Taro,
        &AgentConfig::default(),
        rng,
    )
}

/// A short gather deadline so silent rounds expire in milliseconds, not
/// the production default's 30 s.
fn net_config() -> NetConfig {
    NetConfig {
        round_deadline: Duration::from_millis(250),
        ..NetConfig::default()
    }
}

/// A tight one-round lease: the second consecutively missed round is
/// fatal, so a three-round silence window reliably lapses it.
fn worker_opts() -> WorkerNetOptions {
    WorkerNetOptions {
        lease: Lease {
            deadline_rounds: 1,
            wall_backstop: None,
        },
        ..WorkerNetOptions::default()
    }
}

/// RA 1 goes dark (no reports, no lease refreshes) for rounds 2..5.
fn silence_events() -> Vec<FaultEvent> {
    vec![FaultEvent::WorkerSilence {
        ra: RaId(1),
        start_round: 2,
        rounds: 3,
    }]
}

fn fresh_dir(tag: &str) -> PathBuf {
    let nanos = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .unwrap()
        .as_nanos();
    let dir = std::env::temp_dir().join(format!(
        "edgeslice-net-{tag}-{}-{nanos}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Serves `ra` on its own thread: a peer built from the same seed as the
/// coordinator, with its own fault plan (and optionally the shared
/// checkpoint store for the re-sync path).
fn spawn_worker<T: Transport + 'static>(
    seed: u64,
    ra: usize,
    events: Vec<FaultEvent>,
    rounds: usize,
    transport: T,
    opts: WorkerNetOptions,
    store_dir: Option<PathBuf>,
) -> thread::JoinHandle<ServeOutcome> {
    thread::spawn(move || {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut sys = taro_system(&mut rng);
        if let Some(dir) = &store_dir {
            sys.set_checkpointing(dir, 1).unwrap();
        }
        let injector = FaultInjector::new(FaultPlan::scripted(N_RAS, rounds, events).unwrap());
        sys.serve_ra(RaId(ra), &mut rng, &injector, transport, &opts)
            .unwrap()
    })
}

/// Runs the coordinator side over an already-configured [`NetCoordinator`].
fn run_coordinator<T: Transport + 'static>(
    seed: u64,
    rounds: usize,
    mut net: NetCoordinator<T>,
    store_dir: Option<&Path>,
) -> RunReport {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sys = taro_system(&mut rng);
    if let Some(dir) = store_dir {
        sys.set_checkpointing(dir, 1).unwrap();
    }
    let injector = FaultInjector::new(FaultPlan::scripted(N_RAS, rounds, vec![]).unwrap());
    sys.run_networked(rounds, &mut rng, &injector, &mut net)
        .unwrap()
}

/// A networked run over the in-memory loopback transport, every peer
/// under `events`.
fn loopback_run(seed: u64, events: &[FaultEvent]) -> RunReport {
    let (tx, acceptor) = channel_acceptor::<LoopbackTransport>();
    let mut net = NetCoordinator::new(N_RAS, net_config(), Clock::wall());
    net.set_acceptor(Box::new(acceptor));
    let mut handles = Vec::new();
    for ra in 0..N_RAS {
        let (coord_end, worker_end) = loopback_pair();
        tx.send(coord_end).unwrap();
        handles.push(spawn_worker(
            seed,
            ra,
            events.to_vec(),
            ROUNDS,
            worker_end,
            worker_opts(),
            None,
        ));
    }
    let report = run_coordinator(seed, ROUNDS, net, None);
    for h in handles {
        h.join().unwrap();
    }
    report
}

/// The silence scenario over the in-memory loopback transport.
fn degraded_run_loopback(seed: u64) -> RunReport {
    loopback_run(seed, &silence_events())
}

/// The identical scenario over a real Unix-domain socket.
fn degraded_run_uds(seed: u64) -> RunReport {
    let dir = fresh_dir("uds");
    let sock = dir.join("coord.sock");
    let listener = NetListener::bind_uds(&sock).unwrap();
    let mut net = NetCoordinator::new(N_RAS, net_config(), Clock::wall());
    net.set_acceptor(Box::new(ListenerAcceptor::new(
        listener,
        RetryPolicy::default(),
    )));
    let mut handles = Vec::new();
    for ra in 0..N_RAS {
        let t = connect_uds(&sock, RetryPolicy::default(), Duration::from_secs(5)).unwrap();
        handles.push(spawn_worker(
            seed,
            ra,
            silence_events(),
            ROUNDS,
            t,
            worker_opts(),
            None,
        ));
    }
    let report = run_coordinator(seed, ROUNDS, net, None);
    for h in handles {
        h.join().unwrap();
    }
    let _ = std::fs::remove_dir_all(&dir);
    report
}

/// A mid-run lease lapse degrades the run (never aborts it), the failure
/// is attributed to the lease — not the transport — and the loopback and
/// UDS reports are byte-identical for the same seed and fault plan.
#[test]
fn lease_lapse_degrades_identically_across_loopback_and_uds() {
    let loopback = degraded_run_loopback(SEED);
    let uds = degraded_run_uds(SEED);

    assert_eq!(
        loopback.rounds.len(),
        ROUNDS,
        "the lease lapse must not abort the run"
    );

    // Failure attribution: the worker was detected by its lapsed lease,
    // not by a closed socket (its connection stayed open the whole time).
    let sup = &loopback.supervision;
    assert_eq!(sup.disconnects, 0, "{sup:?}");
    assert_eq!(sup.leases_expired, 1, "{sup:?}");
    assert_eq!(sup.rejoins, 1, "{sup:?}");
    assert!(
        sup.worker_downs
            .iter()
            .any(|d| d.ra == RaId(1) && d.cause.contains("lease expired")),
        "{:?}",
        sup.worker_downs
    );
    assert!(
        sup.worker_downs.iter().all(|d| d.ra == RaId(1)),
        "only the silent RA may go down: {:?}",
        sup.worker_downs
    );
    // The silent rounds cost the full gather deadline, identically on
    // both transports.
    assert!(sup.deadline_timeouts >= 2, "{sup:?}");

    let a = serde_json::to_string(&loopback).unwrap();
    let b = serde_json::to_string(&uds).unwrap();
    assert_eq!(a, b, "loopback and UDS runs must be byte-identical");
}

/// A replacement peer that connects mid-run (after the original went
/// permanently silent and its lease lapsed) re-syncs from the latest
/// checkpoint snapshot and serves the remaining rounds.
#[test]
fn respawned_worker_resyncs_from_checkpoint_and_finishes_the_run() {
    const R: usize = 12;
    let seed = 11;
    let dir = fresh_dir("rejoin");

    let (tx, acceptor) = channel_acceptor::<LoopbackTransport>();
    let mut net = NetCoordinator::new(N_RAS, net_config(), Clock::wall());
    net.set_acceptor(Box::new(acceptor));

    // RA 0: healthy for the whole run.
    let (c0, w0) = loopback_pair();
    tx.send(c0).unwrap();
    let h0 = spawn_worker(seed, 0, vec![], R, w0, worker_opts(), None);

    // RA 1, first incarnation: goes dark at round 3 and never comes back
    // on its own — the stand-in for a killed process.
    let (c1, w1) = loopback_pair();
    tx.send(c1).unwrap();
    let h1 = spawn_worker(
        seed,
        1,
        vec![FaultEvent::WorkerSilence {
            ra: RaId(1),
            start_round: 3,
            rounds: R - 3,
        }],
        R,
        w1,
        worker_opts(),
        None,
    );

    // RA 1, second incarnation: a fresh peer (same seed, no faults, store
    // attached) connecting through the acceptor once the lease has lapsed.
    let tx2 = tx.clone();
    let dir2 = dir.clone();
    let h2 = thread::spawn(move || {
        thread::sleep(Duration::from_millis(1500));
        let (coord_end, worker_end) = loopback_pair();
        tx2.send(coord_end).unwrap();
        spawn_worker(seed, 1, vec![], R, worker_end, worker_opts(), Some(dir2))
            .join()
            .unwrap()
    });

    let report = run_coordinator(seed, R, net, Some(&dir));
    let out0 = h0.join().unwrap();
    let out1 = h1.join().unwrap();
    let out2 = h2.join().unwrap();

    assert_eq!(report.rounds.len(), R, "the run must complete degraded");
    assert!(
        report.supervision.leases_expired >= 1,
        "{:?}",
        report.supervision
    );
    assert!(report.supervision.rejoins >= 1, "{:?}", report.supervision);
    assert_eq!(
        report.supervision.disconnects, 0,
        "{:?}",
        report.supervision
    );

    assert_eq!(out0.rounds_served, R, "the healthy RA serves every round");
    assert_eq!(out1.rounds_served, 3, "incarnation 1 served rounds 0..3");
    assert!(out1.resynced_from.is_none(), "{out1:?}");
    assert!(
        out2.resynced_from.is_some(),
        "the replacement must re-sync from a checkpoint: {out2:?}"
    );
    assert!(
        out2.rounds_served >= 1,
        "the replacement must serve at least one round: {out2:?}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// A snapshot whose worker state is not one entry per slice slot is a
/// typed mismatch on both paths that rewind an environment from one —
/// `resume` and a `serve_ra` peer's re-sync — never a panic.
#[test]
fn misshaped_worker_snapshot_is_a_typed_mismatch_on_resume_and_resync() {
    let dir = fresh_dir("misshaped");
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut sys = taro_system(&mut rng);
    sys.set_checkpointing(&dir, 1).unwrap();
    sys.run(ROUNDS, &mut rng);
    let store = CheckpointStore::open(&dir).unwrap();
    let mut snap = store.latest_run().unwrap().snapshot.unwrap();
    snap.workers[0].queues.pop();
    store.save_run(&snap).unwrap();

    // One round past the snapshot, so the resume rewinds the environments.
    let injector = FaultInjector::none(N_RAS, ROUNDS + 1);
    let mut rng = StdRng::seed_from_u64(SEED);
    let resumed = taro_system(&mut rng).resume(&dir, ROUNDS + 1, &mut rng, &injector);
    assert!(matches!(
        resumed,
        Err(EdgeSliceError::SnapshotMismatch { .. })
    ));

    let mut rng = StdRng::seed_from_u64(SEED);
    let mut peer = taro_system(&mut rng);
    peer.set_checkpointing(&dir, 1).unwrap();
    let (_coordinator_end, worker_end) = loopback_pair();
    let served = peer.serve_ra(RaId(0), &mut rng, &injector, worker_end, &worker_opts());
    assert!(matches!(
        served,
        Err(EdgeSliceError::SnapshotMismatch { .. })
    ));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Each of these hand edits of a run snapshot once panicked `resume` or a
/// `serve_ra` re-sync of a learned system — an index past the short list,
/// or a traffic source built on a negative rate. Each is a typed mismatch
/// on both paths.
#[test]
fn hand_edited_snapshots_are_typed_mismatches_on_resume_and_resync() {
    fn learned_system(rng: &mut StdRng) -> EdgeSliceSystem {
        EdgeSliceSystem::new(
            SystemConfig::prototype(),
            OrchestratorKind::Learned(Technique::Ddpg),
            &AgentConfig::default(),
            rng,
        )
    }
    type Edit = fn(&mut RunSnapshot);
    let edits: [(&str, Edit); 3] = [
        ("one policy short", |snap| {
            snap.policies.pop();
        }),
        ("no panic counts", |snap| snap.panic_counts.clear()),
        ("a rate of -1", |snap| snap.workers[0].rates[0] = Some(-1.0)),
    ];
    for (name, edit) in edits {
        let dir = fresh_dir("hand-edited");
        let mut rng = StdRng::seed_from_u64(SEED);
        let mut sys = learned_system(&mut rng);
        sys.set_checkpointing(&dir, 1).unwrap();
        sys.run(ROUNDS, &mut rng);
        let store = CheckpointStore::open(&dir).unwrap();
        let mut snap = store.latest_run().unwrap().snapshot.unwrap();
        edit(&mut snap);
        store.save_run(&snap).unwrap();

        let injector = FaultInjector::none(N_RAS, ROUNDS + 1);
        let mut rng = StdRng::seed_from_u64(SEED);
        let resumed = learned_system(&mut rng).resume(&dir, ROUNDS + 1, &mut rng, &injector);
        assert!(
            matches!(resumed, Err(EdgeSliceError::SnapshotMismatch { .. })),
            "{name}: {resumed:?}"
        );

        let mut rng = StdRng::seed_from_u64(SEED);
        let mut peer = learned_system(&mut rng);
        peer.set_checkpointing(&dir, 1).unwrap();
        let (_coordinator_end, worker_end) = loopback_pair();
        let served = peer.serve_ra(RaId(0), &mut rng, &injector, worker_end, &worker_opts());
        assert!(
            matches!(served, Err(EdgeSliceError::SnapshotMismatch { .. })),
            "{name}: {served:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Where the RA workers run is a property of the link, not of the
/// protocol: the same scripted fault plan, given to `run_with_faults` and
/// to the `serve_ra` peers of a loopback `run_networked`, yields the same
/// report byte for byte — supervision telemetry and a caught panic's cause
/// included.
#[test]
fn networked_run_equals_in_process_run_under_the_same_fault_plan() {
    let table: [(&str, Vec<FaultEvent>); 4] = [
        ("no faults", vec![]),
        (
            "outage",
            vec![FaultEvent::RaOutage {
                ra: RaId(1),
                start_round: 2,
                rounds: 2,
            }],
        ),
        (
            "straggler + capacity degradation",
            vec![
                FaultEvent::Straggler {
                    ra: RaId(0),
                    round: 1,
                },
                FaultEvent::CapacityDegradation {
                    ra: RaId(1),
                    domain: ResourceKind::Transport,
                    start_round: 3,
                    rounds: 2,
                    factor: 0.5,
                },
            ],
        ),
        (
            "worker panic",
            vec![FaultEvent::WorkerPanic {
                ra: RaId(1),
                round: 2,
            }],
        ),
    ];
    for (name, events) in table {
        let mut rng = StdRng::seed_from_u64(SEED);
        let mut sys = taro_system(&mut rng);
        let injector =
            FaultInjector::new(FaultPlan::scripted(N_RAS, ROUNDS, events.clone()).unwrap());
        let in_process = sys.run_with_faults(ROUNDS, &mut rng, &injector);
        assert_eq!(in_process.rounds.len(), ROUNDS, "{name}");

        let networked = loopback_run(SEED, &events);
        assert_eq!(
            serde_json::to_string(&networked).unwrap(),
            serde_json::to_string(&in_process).unwrap(),
            "{name}: the networked report must equal the in-process one"
        );
    }
}

/// A peer that registers and answers every round — with a body that is
/// not a round body. Each such report is dropped and counted, its RA is
/// folded as missing (it did report: no down event, no lease expiry, and
/// no monitor rows of its own), and the run completes.
#[test]
fn undecodable_report_bodies_are_counted_and_cannot_stop_the_run() {
    let (tx, acceptor) = channel_acceptor::<LoopbackTransport>();
    let mut net = NetCoordinator::new(N_RAS, net_config(), Clock::wall());
    net.set_acceptor(Box::new(acceptor));

    let (c0, w0) = loopback_pair();
    tx.send(c0).unwrap();
    let healthy = spawn_worker(SEED, 0, vec![], ROUNDS, w0, worker_opts(), None);

    let (c1, w1) = loopback_pair();
    tx.send(c1).unwrap();
    let hostile = thread::spawn(move || {
        let node = NodeInfo {
            ra: 1,
            capabilities: caps::TARO,
            capacity: 1.0,
        };
        let (mut session, _ack) = WorkerSession::establish(
            w1,
            node,
            worker_opts().lease,
            Duration::from_secs(10),
            Duration::from_millis(100),
        )
        .unwrap();
        let mut answered = 0usize;
        loop {
            match session.next_command(Duration::from_secs(30)) {
                Ok(WorkerCommand::Round(info)) => {
                    session
                        .report(info.round, false, Some(b"not a round body".to_vec()))
                        .unwrap();
                    answered += 1;
                }
                Ok(WorkerCommand::Shutdown) | Err(TransportError::Disconnected) => return answered,
                Err(e) => panic!("hostile peer: {e}"),
            }
        }
    });

    let mut rng = StdRng::seed_from_u64(SEED);
    let mut sys = taro_system(&mut rng);
    let injector = FaultInjector::none(N_RAS, ROUNDS);
    let report = sys
        .run_networked(ROUNDS, &mut rng, &injector, &mut net)
        .unwrap();
    assert_eq!(healthy.join().unwrap().rounds_served, ROUNDS);
    assert_eq!(hostile.join().unwrap(), ROUNDS, "one answer per round");

    assert_eq!(report.rounds.len(), ROUNDS, "the run must complete");
    let sup = &report.supervision;
    assert_eq!(sup.discarded_reports, report.rounds.len(), "{sup:?}");
    assert!(sup.worker_downs.is_empty(), "{sup:?}");
    assert_eq!(
        (sup.leases_expired, sup.deadline_timeouts),
        (0, 0),
        "{sup:?}"
    );
    for round in &report.rounds {
        assert_eq!(round.discarded_reports, 1, "{round:?}");
        assert!(
            round.downed.is_empty() && round.outages.is_empty(),
            "{round:?}"
        );
        assert_eq!(
            round.load[1], 0.0,
            "a missing RA reports no load: {round:?}"
        );
    }
    // RA 0's rows alone: no row of the discarded RA 1 was recorded.
    let grid = sys.config().reward.period * sys.config().slices.len();
    assert_eq!(sys.monitor().records().len(), report.rounds.len() * grid);
}

/// A registered peer whose every report body is nested `[` as deep as one
/// frame carries: 1 MiB less the 22 bytes of the report's other fields.
/// The body parser stops at its nesting bound, so the coordinator counts
/// and drops each body instead of recursing once per byte until its stack
/// overflows and the process aborts.
#[test]
fn a_deeply_nested_report_body_is_counted_and_dropped_not_fatal() {
    let (tx, acceptor) = channel_acceptor::<LoopbackTransport>();
    let mut net = NetCoordinator::new(N_RAS, net_config(), Clock::wall());
    net.set_acceptor(Box::new(acceptor));

    let (c0, w0) = loopback_pair();
    tx.send(c0).unwrap();
    let healthy = spawn_worker(SEED, 0, vec![], ROUNDS, w0, worker_opts(), None);

    let (c1, w1) = loopback_pair();
    tx.send(c1).unwrap();
    let hostile = thread::spawn(move || {
        let node = NodeInfo {
            ra: 1,
            capabilities: caps::TARO,
            capacity: 1.0,
        };
        let (mut session, _ack) = WorkerSession::establish(
            w1,
            node,
            worker_opts().lease,
            Duration::from_secs(10),
            Duration::from_millis(100),
        )
        .unwrap();
        let body = vec![b'['; (1 << 20) - 22];
        while let Ok(WorkerCommand::Round(info)) = session.next_command(Duration::from_secs(30)) {
            session
                .report(info.round, false, Some(body.clone()))
                .unwrap();
        }
    });

    let mut rng = StdRng::seed_from_u64(SEED);
    let mut sys = taro_system(&mut rng);
    let injector = FaultInjector::none(N_RAS, ROUNDS);
    let report = sys
        .run_networked(ROUNDS, &mut rng, &injector, &mut net)
        .unwrap();
    assert_eq!(healthy.join().unwrap().rounds_served, ROUNDS);
    hostile.join().unwrap();

    assert_eq!(report.rounds.len(), ROUNDS, "the run must complete");
    let sup = &report.supervision;
    assert_eq!(sup.discarded_reports, ROUNDS, "{sup:?}");
    assert!(sup.worker_downs.is_empty(), "{sup:?}");
}

/// A coordinator link that dies with a round in flight: the far end is
/// dropped the moment the worker takes the round off the wire, so the
/// report it then sends has nowhere to go.
struct CutAfterRound {
    link: LoopbackTransport,
    far_end: Option<LoopbackTransport>,
}

impl Transport for CutAfterRound {
    fn send(&mut self, msg: &WireMsg) -> Result<(), TransportError> {
        self.link.send(msg)
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<WireMsg, TransportError> {
        let msg = self.link.recv_timeout(timeout)?;
        if matches!(msg, WireMsg::Round(_)) {
            self.far_end = None;
        }
        Ok(msg)
    }

    fn kind(&self) -> &'static str {
        "loopback, cut mid-round"
    }
}

/// `serve_ra` ends on a typed transport error when its link dies
/// mid-round — and still leaves the substrate as it found it: a capacity
/// degradation in force for that round must not leak into the system's
/// next run.
#[test]
fn serve_ra_heals_the_substrate_when_its_link_dies_mid_round() {
    let (mut coord_end, worker_end) = loopback_pair();
    // Everything the coordinator would say up to and including round 0,
    // queued ahead of time; it never reads the answers.
    for msg in [
        WireMsg::HelloAck {
            version: PROTOCOL_VERSION,
        },
        WireMsg::RegisterAck {
            next_round: 0,
            rejoin: false,
        },
        WireMsg::Round(CoordInfo {
            round: 0,
            ra: 0,
            zy: vec![0.0; 2],
            lifecycle: Vec::new(),
        }),
    ] {
        coord_end.send(&msg).unwrap();
    }
    let link = CutAfterRound {
        link: worker_end,
        far_end: Some(coord_end),
    };

    let mut rng = StdRng::seed_from_u64(SEED);
    let mut sys = taro_system(&mut rng);
    let degraded = FaultEvent::CapacityDegradation {
        ra: RaId(0),
        domain: ResourceKind::Radio,
        start_round: 0,
        rounds: 1,
        factor: 0.5,
    };
    let injector = FaultInjector::new(FaultPlan::scripted(N_RAS, ROUNDS, vec![degraded]).unwrap());
    let served = sys.serve_ra(RaId(0), &mut rng, &injector, link, &worker_opts());
    assert!(
        matches!(served, Err(EdgeSliceError::Transport(_))),
        "{served:?}"
    );
    assert_eq!(sys.env0_mut().capacity_scale(), [1.0; 3]);
}
