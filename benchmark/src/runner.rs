//! Running a workload: set-ups, warm-up, timed blocks, checks.

use std::collections::BTreeMap;

use crate::deploy::{fnv1a, Ops};
use crate::error::{check, Result};
use crate::host::HostClock;
use crate::measure::{timed, Sample};
use crate::scenario::{Ctx, Scenario, Verdict};
use crate::sizes::MIN_BLOCKS;

/// The seed of what arrives online, derived from `--seed` so that it never
/// coincides with a deployment seed.
pub fn online_seed(seed: u64) -> u64 {
    fnv1a(&seed.to_le_bytes()) ^ 0x0A11_1AE5_EED5_0000
}

/// Named correctness checks, each the conjunction of every evaluation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Checks(BTreeMap<&'static str, bool>);

impl Checks {
    /// Folds one evaluation of `name` in.
    pub fn note(&mut self, name: &'static str, ok: bool) {
        *self.0.entry(name).or_insert(true) &= ok;
    }

    /// Every check with its verdict, by name.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, bool)> + '_ {
        self.0.iter().map(|(k, v)| (*k, *v))
    }

    /// Fails on the first false check.
    pub fn require_all(&self) -> Result<()> {
        for (name, ok) in self.iter() {
            check(name, ok, || "see the run's output above".to_string())?;
        }
        Ok(())
    }
}

/// What the blocks of a run returned, folded.
#[derive(Debug, Clone, Default)]
pub struct Folded {
    /// Operations attempted and failed over every judged block.
    pub ops: Ops,
    /// The named checks.
    pub checks: Checks,
    /// Digest every block must reproduce (set by the first one).
    pub digest: Option<u64>,
}

impl Folded {
    /// Folds a block's verdict in; `same` names the check that a digest
    /// differing from the first block's fails.
    pub fn absorb(&mut self, verdict: Verdict, same: &'static str) {
        self.ops.absorb(verdict.ops);
        for (name, ok) in verdict.checks {
            self.checks.note(name, ok);
        }
        let first = *self.digest.get_or_insert(verdict.digest);
        self.checks.note(same, verdict.digest == first);
    }
}

/// The raw material of the end-to-end metrics.
#[derive(Debug, Clone)]
pub struct Measured {
    /// One sample per set-up repeat.
    pub setups: Vec<Sample>,
    /// One sample per timed block.
    pub blocks: Vec<Sample>,
    /// Operations, checks and the block digest.
    pub folded: Folded,
    /// Digest of the set-up's results (identical on every repeat).
    pub setup_digest: u64,
}

/// Runs the set-up `repeats` times (each complete, independent and
/// timed; byte-identical results required) and keeps the last state.
pub fn run_setups<S: Scenario, H: HostClock + ?Sized>(
    scenario: &S,
    ctx: &Ctx<'_>,
    host: &mut H,
    repeats: usize,
    checks: &mut Checks,
) -> Result<(S::State, u64, Vec<Sample>)> {
    let mut samples = Vec::with_capacity(repeats);
    let mut kept: Option<(S::State, u64)> = None;
    for _ in 0..repeats {
        let (result, sample) = timed(host, || scenario.setup(ctx));
        let (state, digest) = result?;
        samples.push(sample);
        if let Some((_, first)) = &kept {
            checks.note("repeats-deterministic", digest == *first);
        }
        kept = Some((state, digest));
    }
    let (state, digest) = kept.expect("at least one set-up repeat");
    Ok((state, digest, samples))
}

/// The untraced run behind the end-to-end metrics: set-ups, one untimed
/// warm-up block, then equal timed blocks for `seconds` (at least
/// [`MIN_BLOCKS`]), every block judged off the clock.
pub fn measure<S: Scenario, H: HostClock + ?Sized>(
    scenario: &S,
    ctx: &Ctx<'_>,
    host: &mut H,
    seconds: f64,
) -> Result<Measured> {
    let mut folded = Folded::default();
    let (state, setup_digest, setups) = run_setups(
        scenario,
        ctx,
        host,
        ctx.sizes.setup_repeats,
        &mut folded.checks,
    )?;

    let warm = scenario.block(ctx, &state)?;
    let verdict = scenario.verify(ctx, &state, warm)?;
    folded.absorb(verdict, "repeats-deterministic");
    // The warm-up's operations are not part of the measured phase.
    folded.ops = Ops::default();

    let mut blocks = Vec::new();
    let phase_start = host.wall_s();
    loop {
        let (output, sample) = timed(host, || scenario.block(ctx, &state));
        let verdict = scenario.verify(ctx, &state, output?)?;
        folded.absorb(verdict, "repeats-deterministic");
        blocks.push(sample);
        let elapsed = host.wall_s() - phase_start;
        let per_block = elapsed / blocks.len() as f64;
        if blocks.len() >= MIN_BLOCKS && elapsed + per_block > seconds {
            break;
        }
    }
    Ok(Measured {
        setups,
        blocks,
        folded,
        setup_digest,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checks_are_conjunctions_and_fail_by_name() {
        let mut checks = Checks::default();
        checks.note("rounds-exact", true);
        checks.note("rounds-exact", true);
        assert!(checks.require_all().is_ok());
        checks.note("repeats-deterministic", true);
        checks.note("repeats-deterministic", false);
        checks.note("repeats-deterministic", true);
        let err = checks.require_all().unwrap_err().to_string();
        assert!(err.contains("repeats-deterministic"), "{err}");
    }

    #[test]
    fn folded_compares_every_digest_with_the_first() {
        let verdict = |digest| Verdict {
            digest,
            ops: Ops {
                attempted: 3,
                failed: 1,
            },
            checks: vec![("rounds-exact", true)],
        };
        let mut folded = Folded::default();
        folded.absorb(verdict(7), "repeats-deterministic");
        folded.absorb(verdict(7), "repeats-deterministic");
        assert!(folded.checks.require_all().is_ok());
        folded.absorb(verdict(8), "repeats-deterministic");
        assert!(folded.checks.require_all().is_err());
        assert_eq!(
            folded.ops,
            Ops {
                attempted: 9,
                failed: 3
            }
        );
    }

    #[test]
    fn online_seed_differs_from_its_input() {
        assert_ne!(online_seed(11), 11);
        assert_ne!(online_seed(1), online_seed(2));
    }
}
