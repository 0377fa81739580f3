//! `run-long`: one long-lived in-process orchestration run.
//!
//! Block = fresh 5×10 system, `install_agents`, one `run(rounds)`. A run's
//! cost grows with the square of its length — `SystemMonitor`'s per-round
//! queries scan the whole history — so the monitor is most of the block and
//! policy inference + the `netsim` environment step most of the rest: the
//! workload for a round-indexed monitor and, after it, the per-step hot path.

use edgeslice::{OrchestrationAgent, RunReport};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::deploy::{audit_report, new_system, report_digest};
use crate::error::Result;
use crate::handloop::HandSystem;
use crate::scenario::{Ctx, Scenario, Verdict};
use crate::trace::Tracer;
use crate::workloads::train_deployment;

/// The workload.
#[derive(Debug, Clone, Copy)]
pub struct RunLong;

impl Scenario for RunLong {
    /// The trained agent every block installs.
    type State = OrchestrationAgent;
    type Output = RunReport;

    fn setup(&self, ctx: &Ctx<'_>) -> Result<(OrchestrationAgent, u64)> {
        train_deployment(ctx)
    }

    fn block(&self, ctx: &Ctx<'_>, trained: &OrchestrationAgent) -> Result<RunReport> {
        // `--seed` drives the traffic areas (drawn at construction) and the
        // arrivals (the run's master seed).
        let mut rng = StdRng::seed_from_u64(ctx.online_seed);
        let mut system = new_system(ctx.sizes.n_ras, &mut rng);
        system.install_agents(trained);
        Ok(system.run(ctx.sizes.rounds, &mut rng))
    }

    fn hand_block(
        &self,
        ctx: &Ctx<'_>,
        trained: &OrchestrationAgent,
        tracer: &mut Tracer,
    ) -> Result<RunReport> {
        let mut rng = StdRng::seed_from_u64(ctx.online_seed);
        let mut system = HandSystem::new(ctx.sizes.n_ras, &mut rng);
        system.install_agents(trained);
        system.run(ctx.sizes.rounds, &mut rng, None, tracer)
    }

    fn verify(&self, ctx: &Ctx<'_>, _: &OrchestrationAgent, report: RunReport) -> Result<Verdict> {
        Ok(Verdict {
            digest: report_digest(&report)?,
            ops: audit_report(&report, ctx.sizes.rounds),
            checks: vec![("rounds-exact", report.rounds.len() == ctx.sizes.rounds)],
        })
    }
}
