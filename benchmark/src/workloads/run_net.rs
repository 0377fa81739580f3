//! `run-net`: a networked run over a Unix socket against two worker peers.
//!
//! Block = one session: the coordinator binds a socket, two `serve_ra` peer
//! threads build their systems, connect and register, and
//! `run_networked(rounds)` drives them in lock-step (the coordinator sleeps
//! in `recv` while the peers compute, so at most two threads are runnable).
//! What the network adds over the in-process run is JSON report bodies
//! through `runtime.frame`, `runtime.transport` and `runtime.net`'s gather —
//! CPU work, not wake-up latency — the workload for one round loop and for
//! the per-round report copies.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use edgeslice::{
    connect_uds, Acceptor, Clock, EdgeSliceSystem, FaultInjector, FramedTransport, NetConfig,
    NetCoordinator, NetListener, RaId, RetryPolicy, RunReport, Transport, TransportError,
    WorkerNetOptions,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::deploy::{audit_report, new_system, report_digest};
use crate::error::{check, Error, Result};
use crate::netprobe::{Probe, SharedLog};
use crate::scenario::{Ctx, Scenario, Verdict};
use crate::sizes::{DEPLOYMENT_SEED, TRAINING_SEED};
use crate::trace::Tracer;

/// The workload.
#[derive(Debug, Clone, Copy)]
pub struct RunNet;

/// Span around one whole traced session (coordinator thread).
pub const SESSION: &str = "runtime.net.session";

/// A checkpoint cadence no run reaches: the store is attached for its
/// *train* snapshots only.
const NEVER: usize = usize::MAX;

/// What the set-up leaves: the store holding both RAs' trained policies and
/// the in-process run's digest.
#[derive(Debug)]
pub struct Reference {
    train_dir: PathBuf,
    in_process: u64,
}

/// A system of this run's online seed with the trained policies restored
/// from the train store — what the coordinator and every peer build.
/// Returns the system and the rng positioned where `run*`/`serve_ra` draw
/// the master seed.
fn restored_system(ctx: &Ctx<'_>, train_dir: &Path) -> Result<(EdgeSliceSystem, StdRng)> {
    let mut rng = StdRng::seed_from_u64(ctx.online_seed);
    let mut system = new_system(ctx.sizes.n_ras, &mut rng);
    system
        .set_checkpointing(train_dir, NEVER)
        .map_err(|e| Error::program("attaching the train store", e))?;
    // Same master seed and length as the set-up's call: restores, never
    // retrains.
    system.train(
        ctx.sizes.train_steps,
        &mut StdRng::seed_from_u64(TRAINING_SEED),
    );
    let restored = system.restored_policy_count();
    if restored != ctx.sizes.n_ras {
        return Err(Error::Program(format!(
            "only {restored} of {} policies were restored from the train store",
            ctx.sizes.n_ras
        )));
    }
    Ok((system, rng))
}

/// Accepts peers from a listener and hands each through `wrap`.
struct WrapAcceptor<F> {
    listener: NetListener,
    wrap: F,
}

impl<T: Transport, F: FnMut(FramedTransport) -> T + Send> Acceptor<T> for WrapAcceptor<F> {
    fn poll_accept(&mut self) -> std::result::Result<Option<T>, TransportError> {
        Ok(self
            .listener
            .poll_accept(RetryPolicy::default())?
            .map(&mut self.wrap))
    }
}

/// One networked session. `wrap(link label, transport)` decorates every
/// link end (identity for the timed blocks).
fn session<T, W>(ctx: &Ctx<'_>, state: &Reference, wrap: W) -> Result<RunReport>
where
    T: Transport + 'static,
    W: Fn(String, FramedTransport) -> T + Send + Sync + Clone + 'static,
{
    let (n_ras, rounds) = (ctx.sizes.n_ras, ctx.sizes.rounds);
    let sock = ctx.scratch.fresh("s");
    let net_err = |e| Error::program("networked session", e);
    let listener = NetListener::bind_uds(&sock).map_err(net_err)?;
    let config = NetConfig {
        // Liveness backstops only; a healthy session never comes near them,
        // and a broken one ends well inside the contract's run limit.
        round_deadline: Duration::from_secs(10),
        registration_timeout: Duration::from_secs(20),
        ..NetConfig::default()
    };
    let mut net: NetCoordinator<T> = NetCoordinator::new(n_ras, config, Clock::wall());
    let coord_wrap = wrap.clone();
    let mut accepted = 0usize;
    net.set_acceptor(Box::new(WrapAcceptor {
        listener,
        wrap: move |t| {
            accepted += 1;
            coord_wrap(format!("coordinator-link{}", accepted - 1), t)
        },
    }));
    let opts = WorkerNetOptions {
        establish_timeout: Duration::from_secs(20),
        idle_budget: Duration::from_secs(20),
        ..WorkerNetOptions::default()
    };
    let injector = FaultInjector::none(n_ras, rounds);

    let outcome = std::thread::scope(|scope| {
        let peers: Vec<_> = (0..n_ras)
            .map(|j| {
                let (wrap, sock, injector) = (wrap.clone(), &sock, &injector);
                scope.spawn(move || -> Result<usize> {
                    // Each peer builds its own system, as a separate process
                    // would.
                    let (mut system, mut rng) = restored_system(ctx, &state.train_dir)?;
                    let link = connect_uds(sock, RetryPolicy::default(), Duration::from_secs(5))
                        .map_err(|e| Error::program("peer connect", e))?;
                    let link = wrap(format!("peer{j}"), link);
                    let served = system
                        .serve_ra(RaId(j), &mut rng, injector, link, &opts)
                        .map_err(|e| Error::program("serve_ra", e))?;
                    Ok(served.rounds_served)
                })
            })
            .collect();
        let report = restored_system(ctx, &state.train_dir).and_then(|(mut system, mut rng)| {
            system
                .run_networked(rounds, &mut rng, &injector, &mut net)
                .map_err(|e| Error::program("run_networked", e))
        });
        // Closing the links ends any peer still waiting for a command.
        drop(net);
        let mut served = Vec::with_capacity(n_ras);
        for peer in peers {
            let joined = peer
                .join()
                .map_err(|_| Error::Program("a peer thread panicked".into()))?;
            served.push(joined);
        }
        let report = report?;
        for (j, rounds_served) in served.into_iter().enumerate() {
            let rounds_served = rounds_served?;
            if rounds_served != report.rounds.len() {
                return Err(Error::Program(format!(
                    "peer {j} served {rounds_served} of {} rounds",
                    report.rounds.len()
                )));
            }
        }
        Ok(report)
    });
    // `bind` created the socket file; unlink it on every path.
    let _ = std::fs::remove_file(&sock);
    outcome
}

impl Scenario for RunNet {
    type State = Reference;
    type Output = RunReport;

    /// `train` on the coordinator-side deployment system with a train store
    /// attached, plus one in-process reference run on this run's online seed.
    fn setup(&self, ctx: &Ctx<'_>) -> Result<(Reference, u64)> {
        let train_dir = ctx.scratch.fresh("train");
        let mut rng = StdRng::seed_from_u64(DEPLOYMENT_SEED);
        let mut system = new_system(ctx.sizes.n_ras, &mut rng);
        system
            .set_checkpointing(&train_dir, NEVER)
            .map_err(|e| Error::program("attaching the train store", e))?;
        let policies = |s: &EdgeSliceSystem| -> Result<u64> {
            let fleet = s.policy_fleet(edgeslice::Parallelism::Sequential);
            let mut digest = 0u64;
            for p in fleet.policies() {
                let json = p
                    .to_json()
                    .map_err(|e| Error::program("serialising a policy", e))?;
                digest = digest.rotate_left(1) ^ crate::deploy::fnv1a(json.as_bytes());
            }
            Ok(digest)
        };
        let untrained = policies(&system)?;
        let start = std::time::Instant::now();
        system.train(
            ctx.sizes.train_steps,
            &mut StdRng::seed_from_u64(TRAINING_SEED),
        );
        ctx.notes.note(
            "core.agent.train.us_per_step",
            start.elapsed().as_secs_f64() * 1e6 / (ctx.sizes.train_steps * ctx.sizes.n_ras) as f64,
        );
        let trained = policies(&system)?;
        check("train-changes-policy", trained != untrained, || {
            format!("policy digest {trained:016x} before and after train")
        })?;
        drop(system);

        let (mut reference, mut rng) = restored_system(ctx, &train_dir)?;
        let in_process = report_digest(&reference.run(ctx.sizes.rounds, &mut rng))?;
        let state = Reference {
            train_dir,
            in_process,
        };
        Ok((state, trained ^ in_process.rotate_left(2)))
    }

    fn block(&self, ctx: &Ctx<'_>, state: &Reference) -> Result<RunReport> {
        session(ctx, state, |_, link| link)
    }

    /// The same session with every link end wrapped in a [`Probe`], whose
    /// logs the tracer adopts; with the tracer off it is the plain block.
    fn hand_block(
        &self,
        ctx: &Ctx<'_>,
        state: &Reference,
        tracer: &mut Tracer,
    ) -> Result<RunReport> {
        if !tracer.is_on() {
            return self.block(ctx, state);
        }
        let origin = tracer.origin();
        let links: Arc<Mutex<Vec<(String, SharedLog)>>> = Arc::default();
        let registry = Arc::clone(&links);
        let sp = tracer.enter(SESSION, 0);
        let report = session(ctx, state, move |label, link| {
            let log = SharedLog::default();
            registry
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push((label, Arc::clone(&log)));
            Probe::new(link, origin, log)
        });
        tracer.exit(sp);
        let mut links = std::mem::take(&mut *links.lock().unwrap_or_else(|e| e.into_inner()));
        links.sort_by(|a, b| a.0.cmp(&b.0));
        for (label, log) in links {
            let log = std::mem::take(&mut *log.lock().unwrap_or_else(|e| e.into_inner()));
            tracer.adopt_link(label, log);
        }
        report
    }

    /// The same rounds on the same system, in process.
    fn baseline_block(&self, ctx: &Ctx<'_>, state: &Reference) -> Option<Result<()>> {
        Some(
            restored_system(ctx, &state.train_dir).map(|(mut system, mut rng)| {
                std::hint::black_box(system.run(ctx.sizes.rounds, &mut rng));
            }),
        )
    }

    fn verify(&self, ctx: &Ctx<'_>, state: &Reference, report: RunReport) -> Result<Verdict> {
        let digest = report_digest(&report)?;
        Ok(Verdict {
            digest,
            ops: audit_report(&report, ctx.sizes.rounds),
            checks: vec![
                ("rounds-exact", report.rounds.len() == ctx.sizes.rounds),
                ("networked-equals-in-process", digest == state.in_process),
            ],
        })
    }
}
