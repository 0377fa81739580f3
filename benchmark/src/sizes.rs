//! The size table: every constant that fixes how much work a run does.
//!
//! Work per block is a constant here (timing rule T2); `--seconds` only
//! decides how many blocks run. The table was sized on the host recorded in
//! `benchmark/README.md`; change a number here and every earlier result of
//! the workload stops being comparable.

use serde::Serialize;

/// Seed of the *deployment*: the slice set, the network initialisation and
/// the trained policy (timing rule T1). `--seed` drives only what arrives
/// online. Chosen so `core.env.advance.ns_per_step` sits nearest the median
/// of the candidates listed in the README.
pub const DEPLOYMENT_SEED: u64 = 5;

/// Seed of the offline training calls made on the deployment.
pub const TRAINING_SEED: u64 = 0x7EA1_0000 ^ DEPLOYMENT_SEED;

/// The calibration kernel's quiet-spell median on the sizing host, seconds
/// (timing rule T3): `h = mean(adjacent cal times) / CAL_REF_S`.
pub const CAL_REF_S: f64 = 0.00512;

/// Exponent applied to the host factor around a set-up repeat: its time is
/// divided by `h^SETUP_ALPHA`. Every set-up is mostly DDPG training, so the
/// value is `train-paper`'s block exponent (README, "Choosing α").
pub const SETUP_ALPHA: f64 = 0.75;

/// Slices in every workload (the paper's trace-driven simulations).
pub const N_SLICES: usize = 5;

/// Replay capacity used everywhere (timing rule T5): at least every training
/// length in the table, so learning is bit-identical to the default 100 000
/// while `install_agents` clones kilobytes, not ≈ 29 MB per RA.
pub const REPLAY_CAPACITY: usize = 8192;

/// Independent executions of a workload's set-up per run; `setup_s` is their
/// median. Fifteen, because a single repeat scatters by 6–12 % in a noisy
/// spell whatever the calibrations either side of it say, repeats of one run
/// are uncorrelated, and so only their number steadies the median (README,
/// "A/A").
const SETUP_REPEATS: usize = 15;

/// Set-up repeats of the `--quick` table: enough for a median and for the
/// determinism check.
const QUICK_SETUP_REPEATS: usize = 3;

/// Timed blocks every run completes, however short `--seconds` is.
pub const MIN_BLOCKS: usize = 8;

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize)]
pub enum Workload {
    /// Offline DDPG training of one RA's agent.
    TrainPaper,
    /// One long in-process orchestration run.
    RunLong,
    /// A checkpointed run, killed half-way and resumed.
    RunDurable,
    /// A networked run over a Unix socket against two worker peers.
    RunNet,
}

impl Workload {
    /// Every workload, in the order the README discusses them.
    pub const ALL: [Workload; 4] = [
        Workload::TrainPaper,
        Workload::RunLong,
        Workload::RunDurable,
        Workload::RunNet,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TrainPaper => "train-paper",
            Workload::RunLong => "run-long",
            Workload::RunDurable => "run-durable",
            Workload::RunNet => "run-net",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One workload's row of the size table.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Sizes {
    /// Resource autonomies in the system.
    pub n_ras: usize,
    /// Environment steps of the set-up's (or, for `train-paper`, the
    /// block's) training call.
    pub train_steps: usize,
    /// Rounds of the set-up's shake-down `run` (`run-long`, `run-durable`).
    pub setup_rounds: usize,
    /// Coordination rounds per block (0 for `train-paper`).
    pub rounds: usize,
    /// Round at which `run-durable` kills the first system.
    pub kill_round: usize,
    /// Set-up repeats per untraced run.
    pub setup_repeats: usize,
    /// Exponent applied to the host factor around a block: block times are
    /// divided by `h^alpha`. Below 1 because the kernel, a tight loop, feels
    /// a busy sibling more than any real code; 0.5 where the block streams
    /// through memory (README, "Choosing α").
    pub alpha: f64,
}

impl Sizes {
    /// Agent-steps in one block: one per (RA, interval) of every round, or
    /// one per environment interaction of the training call.
    pub fn steps_per_block(&self, period: usize) -> usize {
        if self.rounds == 0 {
            self.train_steps
        } else {
            self.rounds * self.n_ras * period
        }
    }
}

/// Intervals per coordination round in `SystemConfig::simulation` (`T = 24`).
pub const PERIOD: usize = 24;

/// The size table. `quick` is the shrunken smoke table: its results are
/// marked `comparable: false`.
pub fn sizes(workload: Workload, quick: bool) -> Sizes {
    let full = match workload {
        Workload::TrainPaper => Sizes {
            n_ras: 1,
            train_steps: 1000,
            setup_rounds: 0,
            rounds: 0,
            kill_round: 0,
            setup_repeats: SETUP_REPEATS,
            alpha: 0.75,
        },
        Workload::RunLong => Sizes {
            n_ras: 10,
            train_steps: 1500,
            setup_rounds: 5,
            rounds: 180,
            kill_round: 0,
            setup_repeats: SETUP_REPEATS,
            alpha: 0.5,
        },
        Workload::RunDurable => Sizes {
            n_ras: 10,
            train_steps: 1500,
            setup_rounds: 5,
            rounds: 64,
            kill_round: 32,
            setup_repeats: SETUP_REPEATS,
            alpha: 0.75,
        },
        Workload::RunNet => Sizes {
            n_ras: 2,
            train_steps: 1000,
            setup_rounds: 0,
            rounds: 300,
            kill_round: 0,
            setup_repeats: SETUP_REPEATS,
            alpha: 0.75,
        },
    };
    if !quick {
        return full;
    }
    Sizes {
        train_steps: full.train_steps.min(700),
        rounds: full.rounds / 6,
        kill_round: full.kill_round / 6,
        setup_repeats: QUICK_SETUP_REPEATS,
        ..full
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("run-short"), None);
    }

    #[test]
    fn steps_per_block_counts_agent_steps() {
        assert_eq!(
            sizes(Workload::TrainPaper, false).steps_per_block(PERIOD),
            1000
        );
        assert_eq!(
            sizes(Workload::RunLong, false).steps_per_block(PERIOD),
            43_200
        );
        assert_eq!(
            sizes(Workload::RunDurable, false).steps_per_block(PERIOD),
            15_360
        );
        assert_eq!(
            sizes(Workload::RunNet, false).steps_per_block(PERIOD),
            14_400
        );
    }

    #[test]
    fn replay_capacity_covers_every_training_length() {
        for w in Workload::ALL {
            for quick in [false, true] {
                assert!(sizes(w, quick).train_steps <= REPLAY_CAPACITY);
            }
        }
    }
}
