//! `run-durable`: a checkpointed run, killed half-way and resumed.
//!
//! Block = fresh system, `set_checkpointing(dir, 1)`, `run(kill_round)`,
//! then a second fresh system `resume(dir, rounds, ·)` (which checkpoints on
//! at the system's default cadence, every 4 rounds), then delete `dir`. A snapshot embeds the whole report
//! prefix plus every policy, so `core.store` (JSON + CRC + fsync on the
//! checkout's disk) is most of the block and the monitor next to nothing;
//! the resume half makes a delta-snapshot design pay for its read path.

use edgeslice::{CheckpointStore, FaultInjector, OrchestrationAgent, RunReport};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::deploy::{audit_report, new_system, remove_dir, report_digest};
use crate::error::{Error, Result};
use crate::handloop::{HandSystem, Sink};
use crate::scenario::{Ctx, Scenario, Verdict};
use crate::trace::Tracer;
use crate::workloads::train_deployment;

/// The workload.
#[derive(Debug, Clone, Copy)]
pub struct RunDurable;

/// Checkpoint cadence of the killed half: every round.
const EVERY_K: usize = 1;

/// Cadence of the resumed half: `EdgeSliceSystem`'s default, which `resume`
/// re-installs on a fresh system.
const RESUME_EVERY_K: usize = 4;

/// What the set-up leaves: the policy and the uninterrupted run's digest.
#[derive(Debug)]
pub struct Reference {
    trained: OrchestrationAgent,
    uninterrupted: u64,
}

/// A block's two reports.
#[derive(Debug)]
pub struct Halves {
    /// What the killed system had returned by `kill_round`.
    pub first: RunReport,
    /// What the resumed system returned for the whole run.
    pub resumed: RunReport,
}

impl Scenario for RunDurable {
    type State = Reference;
    type Output = Halves;

    /// The shared training set-up plus one uninterrupted reference run on
    /// this run's online seed.
    fn setup(&self, ctx: &Ctx<'_>) -> Result<(Reference, u64)> {
        let (trained, digest) = train_deployment(ctx)?;
        let mut rng = StdRng::seed_from_u64(ctx.online_seed);
        let mut system = new_system(ctx.sizes.n_ras, &mut rng);
        system.install_agents(&trained);
        let uninterrupted = report_digest(&system.run(ctx.sizes.rounds, &mut rng))?;
        let state = Reference {
            trained,
            uninterrupted,
        };
        Ok((state, digest ^ uninterrupted.rotate_left(2)))
    }

    fn block(&self, ctx: &Ctx<'_>, state: &Reference) -> Result<Halves> {
        let (n_ras, rounds) = (ctx.sizes.n_ras, ctx.sizes.rounds);
        let dir = ctx.scratch.fresh("ckpt");
        let store_err = |e| Error::program("attaching the checkpoint store", e);

        let mut rng = StdRng::seed_from_u64(ctx.online_seed);
        let mut killed = new_system(n_ras, &mut rng);
        killed.install_agents(&state.trained);
        killed.set_checkpointing(&dir, EVERY_K).map_err(store_err)?;
        let first = killed.run(ctx.sizes.kill_round, &mut rng);
        drop(killed);

        // A new process would rebuild the system from the same seed.
        let mut rng = StdRng::seed_from_u64(ctx.online_seed);
        let mut survivor = new_system(n_ras, &mut rng);
        survivor.install_agents(&state.trained);
        let resumed = survivor
            .resume(&dir, rounds, &mut rng, &FaultInjector::none(n_ras, rounds))
            .map_err(|e| Error::program("resuming", e))?;
        remove_dir(&dir)?;
        Ok(Halves { first, resumed })
    }

    fn hand_block(&self, ctx: &Ctx<'_>, state: &Reference, tracer: &mut Tracer) -> Result<Halves> {
        let (n_ras, rounds) = (ctx.sizes.n_ras, ctx.sizes.rounds);
        let dir = ctx.scratch.fresh("ckpt");
        let store =
            CheckpointStore::open(&dir).map_err(|e| Error::program("opening the store", e))?;
        let sink = Sink {
            store: &store,
            every_k: EVERY_K,
        };

        let mut rng = StdRng::seed_from_u64(ctx.online_seed);
        let mut killed = HandSystem::new(n_ras, &mut rng);
        killed.install_agents(&state.trained);
        let first = killed.run(ctx.sizes.kill_round, &mut rng, Some(sink), tracer)?;
        drop(killed);

        let mut rng = StdRng::seed_from_u64(ctx.online_seed);
        let mut survivor = HandSystem::new(n_ras, &mut rng);
        survivor.install_agents(&state.trained);
        let resumed = survivor.resume(&dir, RESUME_EVERY_K, rounds, &mut rng, tracer)?;
        remove_dir(&dir)?;
        Ok(Halves { first, resumed })
    }

    fn verify(&self, ctx: &Ctx<'_>, state: &Reference, out: Halves) -> Result<Verdict> {
        let (rounds, kill_round) = (ctx.sizes.rounds, ctx.sizes.kill_round);
        let digest = report_digest(&out.resumed)?;
        let mut ops = audit_report(&out.resumed, rounds);
        ops.failed = (ops.failed + audit_report(&out.first, kill_round).failed).min(ops.attempted);
        Ok(Verdict {
            digest,
            ops,
            checks: vec![
                (
                    "rounds-exact",
                    out.first.rounds.len() == kill_round && out.resumed.rounds.len() == rounds,
                ),
                ("resume-equals-uninterrupted", digest == state.uninterrupted),
            ],
        })
    }
}
