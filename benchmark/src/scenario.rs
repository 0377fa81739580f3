//! What a workload is to the runner: a set-up, a block of fixed work, its
//! hand-driven twin for the traced run, and a verdict on what came back.

use std::sync::Mutex;

use crate::deploy::{Ops, Scratch};
use crate::error::Result;
use crate::sizes::Sizes;
use crate::trace::Tracer;

/// Times a set-up measures about itself (how long its training call took),
/// by per-layer metric name. The last note of a name wins.
#[derive(Debug, Default)]
pub struct Notes(Mutex<Vec<(&'static str, f64)>>);

impl Notes {
    /// Notes `name = value`.
    pub fn note(&self, name: &'static str, value: f64) {
        // The vector is valid at every step, so a poisoned lock is usable.
        self.0
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push((name, value));
    }

    /// Everything noted so far, oldest first.
    pub fn all(&self) -> Vec<(&'static str, f64)> {
        self.0.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }
}

/// What every workload call is given.
#[derive(Debug)]
pub struct Ctx<'a> {
    /// The workload's row of the size table.
    pub sizes: Sizes,
    /// Seed of what arrives online — traffic areas and arrivals, exploration
    /// noise — derived from `--seed`. Every block of a run uses it, so every
    /// block does the same work and must return the same digest.
    pub online_seed: u64,
    /// Scratch space inside the checkout.
    pub scratch: &'a Scratch,
    /// Where set-ups leave what they timed about themselves.
    pub notes: &'a Notes,
}

/// The judgement on one block's output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Verdict {
    /// Digest of everything the block returned.
    pub digest: u64,
    /// Operations attempted and failed.
    pub ops: Ops,
    /// Named correctness checks this block could evaluate.
    pub checks: Vec<(&'static str, bool)>,
}

/// One workload.
pub trait Scenario {
    /// What the set-up leaves behind for the blocks.
    type State;
    /// What a block hands to [`Scenario::verify`] (judged off the clock).
    type Output;

    /// One complete, independent execution of the set-up on fresh state.
    /// Returns the state and a digest of every result it produced.
    fn setup(&self, ctx: &Ctx<'_>) -> Result<(Self::State, u64)>;

    /// One block: whole user-facing calls on freshly built state.
    fn block(&self, ctx: &Ctx<'_>, state: &Self::State) -> Result<Self::Output>;

    /// The same block driven by hand through the public functions, one span
    /// per call into a layer (nothing is recorded when `tracer` is off).
    fn hand_block(
        &self,
        ctx: &Ctx<'_>,
        state: &Self::State,
        tracer: &mut Tracer,
    ) -> Result<Self::Output>;

    /// The block's work without the layer the workload adds, where there is
    /// such a twin (`run-net`: the same rounds in process). Timed by the
    /// traced run for the overhead ratio.
    fn baseline_block(&self, _ctx: &Ctx<'_>, _state: &Self::State) -> Option<Result<()>> {
        None
    }

    /// Judges a block's output.
    fn verify(&self, ctx: &Ctx<'_>, state: &Self::State, output: Self::Output) -> Result<Verdict>;
}
