//! Stand-alone probes of single public functions: the per-layer numbers no
//! span can give (a layer's cost in isolation, at the workloads' shapes).
//!
//! Each probe times a batch of calls several times over and reports the
//! median batch ÷ calls. Times are raw host time: read them next to
//! `host.speed`.

use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use edgeslice::{
    connect_uds, AgentConfig, Clock, ListenerAcceptor, NetConfig, NetCoordinator, NetListener,
    OrchestrationAgent, Parallelism, PolicyCheckpoint, RaId, RetryPolicy,
};
use edgeslice_netsim::{AppProfile, GridDataset, RaCapacities};
use edgeslice_nn::{Adam, Matrix, Mlp, TrainScratch};
use edgeslice_rl::{Batch, Ddpg, ReplayBuffer, Technique, Transition};
use edgeslice_runtime::frame::{self, WireMsg};
use edgeslice_runtime::{
    caps, loopback_pair, CoordInfo, Engine, Lease, NodeInfo, RaReport, RoundCoordinator,
    RoundTelemetry, RoundWorker, Scheduler, Transport, WorkerSession,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::deploy::{agent_config, new_system, Scratch};
use crate::error::{Error, Result};
use crate::host::rss_mib;
use crate::report::Values;
use crate::sizes::{DEPLOYMENT_SEED, N_SLICES, PERIOD};
use crate::stats::median;

/// RAs of the in-process `run-*` systems the probes mirror.
const N_RAS: usize = 10;
/// State and action widths of a 5-slice RA (Eq. 13 / Eq. 14).
const STATE_DIM: usize = 2 * N_SLICES;
const ACTION_DIM: usize = 3 * N_SLICES;
/// Size of a `run-net` report body (JSON queues + 120 monitor rows), bytes.
const REPORT_BODY_BYTES: usize = 38_000;

/// Median over `reps` batches of `calls` calls of `f`, seconds per call.
fn per_call(reps: usize, calls: usize, mut f: impl FnMut()) -> f64 {
    let batches: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..calls {
                f();
            }
            start.elapsed().as_secs_f64() / calls as f64
        })
        .collect();
    median(&batches)
}

fn rng() -> StdRng {
    StdRng::seed_from_u64(DEPLOYMENT_SEED)
}

fn random_vec(rng: &mut StdRng, n: usize) -> Vec<f64> {
    (0..n).map(|_| rng.gen_range(0.0..1.0)).collect()
}

/// A learner at the workloads' shapes with a replay memory past warm-up.
fn warmed_ddpg(rng: &mut StdRng) -> Ddpg {
    let mut ddpg = Ddpg::new(STATE_DIM, ACTION_DIM, agent_config().ddpg, rng);
    for i in 0..600 {
        ddpg.observe(&Transition {
            state: random_vec(rng, STATE_DIM),
            action: random_vec(rng, ACTION_DIM),
            reward: rng.gen_range(-1.0..0.0),
            next_state: random_vec(rng, STATE_DIM),
            done: i % PERIOD == PERIOD - 1,
        });
    }
    ddpg
}

/// Floating-point operations of one DDPG update at the given shapes,
/// computed: a dense layer's forward is `2·B·in·out`, its parameter gradient
/// and its input gradient the same again each.
fn update_flops(batch: usize, hidden: usize) -> f64 {
    let dense = |dims: &[usize]| -> f64 {
        dims.windows(2)
            .map(|w| 2.0 * (batch * w[0] * w[1]) as f64)
            .sum()
    };
    let actor = dense(&[STATE_DIM, hidden, hidden, ACTION_DIM]);
    let critic = dense(&[STATE_DIM + ACTION_DIM, hidden, hidden, 1]);
    // Targets: μ'(s') and Q'(s', ·) forward.
    let targets = actor + critic;
    // Critic TD step: forward, parameter and input gradients.
    let critic_step = 3.0 * critic;
    // Actor step: μ(s) and Q(s, μ(s)) forward, ∇_a Q (input gradients only),
    // then the actor's parameter and input gradients.
    let actor_step = actor + critic + critic + 2.0 * actor;
    targets + critic_step + actor_step
}

fn nn_rl(values: &mut Values) {
    let mut rng = rng();
    let config = agent_config().ddpg;
    let mut ddpg = warmed_ddpg(&mut rng);
    values.set(
        "rl.ddpg.update.us_per_call",
        per_call(5, 20, || {
            black_box(ddpg.update(&mut rng));
        }) * 1e6,
    );
    let state = random_vec(&mut rng, STATE_DIM);
    values.set(
        "rl.ddpg.explore.ns_per_step",
        per_call(5, 2000, || {
            black_box(ddpg.explore(black_box(&state), &mut rng));
        }) * 1e9,
    );
    values.set(
        "nn.mlp.forward_one.ns",
        per_call(5, 5000, || {
            black_box(ddpg.actor().forward_one(black_box(&state)));
        }) * 1e9,
    );

    let mut replay = ReplayBuffer::new(config.replay_capacity, STATE_DIM, ACTION_DIM);
    let transition = Transition {
        state: random_vec(&mut rng, STATE_DIM),
        action: random_vec(&mut rng, ACTION_DIM),
        reward: -0.5,
        next_state: random_vec(&mut rng, STATE_DIM),
        done: false,
    };
    values.set(
        "rl.replay.push.ns_per_step",
        per_call(5, 5000, || replay.push(black_box(&transition))) * 1e9,
    );
    let mut batch = Batch::new();
    values.set(
        "rl.replay.sample_into.ns_per_call",
        per_call(5, 200, || {
            replay
                .sample_into(config.batch_size, &mut rng, &mut batch)
                .expect("the probe's replay memory holds a batch");
        }) * 1e9,
    );

    // The critic at batch size: the widest network of the update.
    let mut critic: Mlp = ddpg.critic().clone();
    let mut target = critic.clone();
    let mut adam = Adam::new(&critic, config.lr);
    let x = Matrix::from_fn(config.batch_size, STATE_DIM + ACTION_DIM, |_, _| {
        rng.gen_range(0.0..1.0)
    });
    let d_out = Matrix::filled(config.batch_size, 1, 1.0 / config.batch_size as f64);
    let mut scratch = TrainScratch::new();
    critic.forward_scratch(&x, &mut scratch);
    values.set(
        "nn.mlp.forward_batch.us",
        per_call(5, 100, || {
            critic.forward_scratch(black_box(&x), &mut scratch)
        }) * 1e6,
    );
    values.set(
        "nn.mlp.backward_batch.us",
        per_call(5, 100, || {
            critic.backward_scratch(&mut scratch, black_box(&d_out))
        }) * 1e6,
    );
    values.set(
        "nn.optimizer.adam_step.us",
        per_call(5, 100, || adam.step(&mut critic, scratch.grads())) * 1e6,
    );
    values.set(
        "nn.mlp.soft_update.us",
        per_call(5, 200, || target.soft_update_from(&critic, config.tau)) * 1e6,
    );
    values.set(
        "nn.matrix.update_flops",
        update_flops(config.batch_size, config.hidden),
    );
}

fn dataset(values: &mut Values) {
    let grid = GridDataset::generate(AppProfile::traffic_heavy(), RaCapacities::prototype());
    let on = [0.3, 0.5, 0.2];
    let off = [0.33, 0.52, 0.27];
    assert!(grid.lookup(on).is_some() && grid.lookup(off).is_none());
    values.set(
        "netsim.dataset.predict_ongrid.ns",
        per_call(5, 20_000, || {
            black_box(grid.predict(black_box(on)));
        }) * 1e9,
    );
    values.set(
        "netsim.dataset.predict_offgrid.ns",
        per_call(5, 5000, || {
            black_box(grid.predict(black_box(off)));
        }) * 1e9,
    );
}

fn orchestrator(values: &mut Values) {
    let mut seed_rng = rng();
    let donor = new_system(N_RAS, &mut seed_rng).agent0();
    let fresh = |rng: &mut StdRng| new_system(N_RAS, rng);

    let mut news = Vec::new();
    let mut installs = Vec::new();
    let mut runs = Vec::new();
    for _ in 0..5 {
        let start = Instant::now();
        let mut system = fresh(&mut seed_rng);
        news.push(start.elapsed().as_secs_f64());
        let start = Instant::now();
        system.install_agents(&donor);
        installs.push(start.elapsed().as_secs_f64());
        let start = Instant::now();
        black_box(system.run(1, &mut seed_rng));
        runs.push(start.elapsed().as_secs_f64());
    }
    values.set("core.orchestrator.new.ms", median(&news) * 1e3);
    values.set(
        "core.orchestrator.install_agents.ms",
        median(&installs) * 1e3,
    );
    values.set("core.orchestrator.run_fixed.us", median(&runs) * 1e6);

    // What rule T5 avoids: the default 100 000-transition replay memory,
    // cloned once per RA.
    let mut system = fresh(&mut seed_rng);
    let heavy = OrchestrationAgent::new(
        RaId(0),
        Technique::Ddpg,
        system.env0_mut(),
        &AgentConfig::default(),
        &mut seed_rng,
    );
    let before = rss_mib().unwrap_or(0.0);
    let start = Instant::now();
    system.install_agents(&heavy);
    values.set(
        "core.orchestrator.install_agents.default_capacity_ms",
        start.elapsed().as_secs_f64() * 1e3,
    );
    values.set(
        "core.orchestrator.install_agents.default_capacity_mib",
        (rss_mib().unwrap_or(0.0) - before).max(0.0),
    );
    drop(system);

    let policies = vec![PolicyCheckpoint::from_agent(&donor); N_RAS];
    let mut fleet = edgeslice::PolicyFleet::new(policies, Parallelism::Sequential);
    let states: Vec<Vec<f64>> = (0..N_RAS)
        .map(|_| random_vec(&mut seed_rng, STATE_DIM))
        .collect();
    let mut actions = Vec::new();
    fleet.decide_into(&states, &mut actions);
    values.set(
        "core.fleet.decide_into.ns_per_step",
        per_call(5, 500, || {
            fleet.decide_into(black_box(&states), &mut actions)
        }) * 1e9
            / N_RAS as f64,
    );
}

struct NullWorker(usize);

impl RoundWorker for NullWorker {
    type Body = ();
    fn ra(&self) -> usize {
        self.0
    }
    fn run_round(&mut self, info: &CoordInfo) -> RaReport<()> {
        RaReport {
            ra: self.0,
            round: info.round,
            deadline_missed: false,
            body: Some(()),
        }
    }
}

struct NullCoordinator {
    zy: Vec<Vec<f64>>,
    reports: usize,
}

impl RoundCoordinator for NullCoordinator {
    type Body = ();
    fn broadcast(&mut self, _round: usize) -> Vec<Vec<f64>> {
        self.zy.clone()
    }
    fn collect(
        &mut self,
        _round: usize,
        reports: Vec<Option<RaReport<()>>>,
        _telemetry: &RoundTelemetry,
    ) -> bool {
        self.reports += reports.iter().flatten().count();
        false
    }
}

fn engine(values: &mut Values) {
    const ROUNDS: usize = 2000;
    let mut workers: Vec<NullWorker> = (0..N_RAS).map(NullWorker).collect();
    let mut coordinator = NullCoordinator {
        zy: vec![vec![0.0; N_SLICES]; N_RAS],
        reports: 0,
    };
    let per_round = per_call(5, 1, || {
        let report = Engine::new(Scheduler::Sequential).run(&mut workers, &mut coordinator, ROUNDS);
        assert_eq!(report.rounds, ROUNDS);
    }) / ROUNDS as f64;
    assert!(coordinator.reports >= N_RAS * ROUNDS);
    values.set("runtime.engine.null_round.us", per_round * 1e6);
}

fn refresh(round: u64) -> WireMsg {
    WireMsg::Refresh { ra: 0, round }
}

/// Round trips of a small frame against an echo thread, seconds each.
fn rtt<T: Transport + 'static>(mut near: T, mut far: T) -> Result<f64> {
    const TRIPS: usize = 2000;
    let echo = std::thread::spawn(move || {
        while let Ok(msg) = far.recv_timeout(Duration::from_secs(5)) {
            if matches!(msg, WireMsg::Ctl(_)) || far.send(&msg).is_err() {
                break;
            }
        }
    });
    let mut trip = |round: u64| -> Result<()> {
        near.send(&refresh(round))
            .map_err(|e| Error::program("rtt probe send", e))?;
        near.recv_timeout(Duration::from_secs(5))
            .map(drop)
            .map_err(|e| Error::program("rtt probe recv", e))
    };
    let batches: Result<Vec<f64>> = (0..5)
        .map(|_| {
            let start = Instant::now();
            (0..TRIPS / 5).try_for_each(|i| trip(i as u64))?;
            Ok(start.elapsed().as_secs_f64() / (TRIPS / 5) as f64)
        })
        .collect();
    // End the echo thread on every path before judging the trips.
    let _ = near.send(&WireMsg::Ctl(edgeslice_runtime::Control::Shutdown));
    drop(near);
    echo.join()
        .map_err(|_| Error::Program("rtt echo thread panicked".into()))?;
    batches.map(|b| median(&b))
}

fn uds_pair(sock: &Path) -> Result<(edgeslice::FramedTransport, edgeslice::FramedTransport)> {
    let err = |e| Error::program("uds probe", e);
    let listener = NetListener::bind_uds(sock).map_err(err)?;
    let near = connect_uds(sock, RetryPolicy::default(), Duration::from_secs(5)).map_err(err)?;
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        if let Some(far) = listener.poll_accept(RetryPolicy::default()).map_err(err)? {
            return Ok((near, far));
        }
        if Instant::now() > deadline {
            return Err(Error::Program("uds probe: nobody connected".into()));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Time for a coordinator to see `n` workers through handshake and
/// registration over a Unix socket, seconds.
fn establish(sock: &Path, n: usize) -> Result<f64> {
    let err = |e| Error::program("establish probe", e);
    let start = Instant::now();
    let listener = NetListener::bind_uds(sock).map_err(err)?;
    let mut net = NetCoordinator::new(n, NetConfig::default(), Clock::wall());
    net.set_acceptor(Box::new(ListenerAcceptor::new(
        listener,
        RetryPolicy::default(),
    )));
    let outcome = std::thread::scope(|scope| {
        let peers: Vec<_> = (0..n)
            .map(|ra| {
                scope.spawn(move || {
                    let link = connect_uds(sock, RetryPolicy::default(), Duration::from_secs(5))?;
                    let node = NodeInfo {
                        ra,
                        capabilities: caps::LEARNED,
                        capacity: 1.0,
                    };
                    WorkerSession::establish(
                        link,
                        node,
                        Lease::default(),
                        Duration::from_secs(5),
                        Duration::from_millis(100),
                    )
                    .map(drop)
                })
            })
            .collect();
        let registered = net.wait_registered(0);
        let elapsed = start.elapsed().as_secs_f64();
        net.shutdown();
        for peer in peers {
            peer.join()
                .map_err(|_| Error::Program("establish probe peer panicked".into()))?
                .map_err(err)?;
        }
        registered.map_err(err)?;
        Ok(elapsed)
    });
    let _ = std::fs::remove_file(sock);
    outcome
}

fn runtime(values: &mut Values, scratch: &Scratch) -> Result<()> {
    let report = WireMsg::Report {
        ra: 1,
        round: 7,
        deadline_missed: false,
        body: Some(vec![b'7'; REPORT_BODY_BYTES]),
    };
    let bytes = frame::encode(&report).map_err(|e| Error::program("frame probe", e))?;
    values.set(
        "runtime.frame.encode.ns_per_frame",
        per_call(5, 2000, || {
            black_box(frame::encode(black_box(&report)).expect("the probe frame encodes"));
        }) * 1e9,
    );
    values.set(
        "runtime.frame.decode.ns_per_frame",
        per_call(5, 2000, || {
            black_box(frame::decode(black_box(&bytes)).expect("the probe frame decodes"));
        }) * 1e9,
    );

    let (near, far) = loopback_pair();
    values.set("runtime.transport.loopback_rtt.ns", rtt(near, far)? * 1e9);
    let sock = scratch.fresh("p");
    let pair = uds_pair(&sock);
    let _ = std::fs::remove_file(&sock);
    let (near, far) = pair?;
    values.set("runtime.transport.uds_rtt.ns", rtt(near, far)? * 1e9);

    let mut times = Vec::new();
    for _ in 0..3 {
        times.push(establish(&scratch.fresh("p"), 2)?);
    }
    values.set("runtime.net.establish.ms", median(&times) * 1e3);
    Ok(())
}

/// Runs every probe and records its metric.
pub fn run_all(values: &mut Values, scratch: &Scratch) -> Result<()> {
    nn_rl(values);
    dataset(values);
    orchestrator(values);
    engine(values);
    runtime(values, scratch)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn update_flops_counts_the_documented_passes() {
        // One dense 2→3 layer chain at batch 1 is easy to do by hand; here
        // just pin the default shapes so a silent formula change shows.
        let flops = update_flops(128, 64);
        let actor = 2.0 * 128.0 * (10.0 * 64.0 + 64.0 * 64.0 + 64.0 * 15.0);
        let critic = 2.0 * 128.0 * (25.0 * 64.0 + 64.0 * 64.0 + 64.0);
        assert_eq!(flops, 4.0 * actor + 6.0 * critic);
    }

    #[test]
    fn per_call_divides_by_the_call_count() {
        let mut calls = 0;
        let t = per_call(3, 10, || calls += 1);
        assert_eq!(calls, 30);
        assert!(t >= 0.0);
    }
}
