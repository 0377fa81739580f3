//! # edgeslice-bench
//!
//! Experiment harness regenerating every table and figure of the EdgeSlice
//! paper's evaluation (Sec. VII). One binary per figure:
//!
//! | binary | reproduces |
//! |---|---|
//! | `fig6` | convergence: system + per-slice performance vs time interval |
//! | `fig7` | per-resource usage over time |
//! | `fig8` | agent policy: performance CDF + usage ratios vs traffic |
//! | `fig9` | scalability over #RAs and #slices |
//! | `fig10` | training steps and training techniques |
//! | `fig11` | performance-function compatibility (α sweep, CDF) |
//! | `prototype` | Table II inventory + manager-mechanism demos |
//!
//! Figures train scaled-down agents by default so each binary finishes in
//! minutes; set `EDGESLICE_TRAIN_STEPS` / `EDGESLICE_SEED` to change the
//! schedule (EXPERIMENTS.md records the schedules used).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::str::FromStr;

use edgeslice::{AgentConfig, EdgeSliceSystem, OrchestratorKind, RunReport, SystemConfig};
use edgeslice_rl::Technique;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Experiment-wide knobs, read from the environment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Knobs {
    /// Offline training steps per agent (default 8000; the paper uses 1e6).
    pub train_steps: usize,
    /// Base RNG seed.
    pub seed: u64,
}

impl Knobs {
    /// Reads `EDGESLICE_TRAIN_STEPS` and `EDGESLICE_SEED` with defaults.
    /// A set variable that is not a plain non-negative integer (`1e6`,
    /// `-5`, the empty string) is an error: it is printed and the process
    /// exits with status 2.
    pub fn from_env() -> Self {
        fn read<T: FromStr>(name: &str, default: T) -> T {
            let raw = std::env::var_os(name).map(|v| v.to_string_lossy().into_owned());
            parse_knob(name, raw.as_deref(), default).unwrap_or_else(|e| {
                eprintln!("error: {e}");
                std::process::exit(2)
            })
        }
        Self {
            train_steps: read("EDGESLICE_TRAIN_STEPS", 8_000),
            seed: read("EDGESLICE_SEED", 7),
        }
    }

    /// A seeded RNG offset by `stream` so parallel arms decorrelate.
    pub fn rng(&self, stream: u64) -> StdRng {
        StdRng::seed_from_u64(self.seed.wrapping_add(stream.wrapping_mul(0x9E37_79B9)))
    }
}

/// The value of knob `name` given its raw environment value: `default`
/// when unset, the parsed value when it parses, otherwise an error naming
/// the variable and the raw value.
fn parse_knob<T: FromStr>(name: &str, raw: Option<&str>, default: T) -> Result<T, String> {
    match raw {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("{name}={v:?} is not a non-negative integer")),
    }
}

/// The three systems every comparison figure contrasts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arm {
    /// Full EdgeSlice (DDPG, traffic + coordination state).
    EdgeSlice,
    /// EdgeSlice-NT (coordination-only state).
    EdgeSliceNt,
    /// The TARO proportional baseline.
    Taro,
}

impl Arm {
    /// All arms in the paper's plotting order.
    pub const ALL: [Arm; 3] = [Arm::EdgeSlice, Arm::EdgeSliceNt, Arm::Taro];

    /// The paper's label.
    pub fn label(self) -> &'static str {
        match self {
            Arm::EdgeSlice => "EdgeSlice",
            Arm::EdgeSliceNt => "EdgeSlice-NT",
            Arm::Taro => "TARO",
        }
    }
}

/// Builds, trains (for learned arms, sharing one trained agent across RAs)
/// and returns a ready-to-run system for `arm` on `config`.
pub fn build_arm(
    config: &SystemConfig,
    arm: Arm,
    technique: Technique,
    knobs: &Knobs,
    rng: &mut StdRng,
) -> EdgeSliceSystem {
    let cfg = match arm {
        Arm::EdgeSliceNt => config.clone().without_traffic_state(),
        _ => config.clone(),
    };
    let kind = match arm {
        Arm::Taro => OrchestratorKind::Taro,
        _ => OrchestratorKind::Learned(technique),
    };
    let mut system = EdgeSliceSystem::new(cfg, kind, &AgentConfig::default(), rng);
    if arm != Arm::Taro {
        system.train_shared(knobs.train_steps, rng);
    }
    system
}

/// Trains and runs one arm, returning `(system, report)`.
pub fn run_arm(
    config: &SystemConfig,
    arm: Arm,
    rounds: usize,
    knobs: &Knobs,
    stream: u64,
) -> (EdgeSliceSystem, RunReport) {
    let mut rng = knobs.rng(stream);
    let mut system = build_arm(config, arm, Technique::Ddpg, knobs, &mut rng);
    let report = system.run(rounds, &mut rng);
    (system, report)
}

/// Empirical CDF: sorted `(value, cumulative probability)` points.
pub fn cdf(values: &[f64]) -> Vec<(f64, f64)> {
    let mut sorted: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite values"));
    let n = sorted.len().max(1) as f64;
    sorted
        .into_iter()
        .enumerate()
        .map(|(i, v)| (v, (i + 1) as f64 / n))
        .collect()
}

/// The fraction of `values` that are ≥ `threshold` (the paper's "80% of the
/// slice performance is larger than −30" statistic).
pub fn fraction_at_least(values: &[f64], threshold: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().filter(|&&v| v >= threshold).count() as f64 / values.len() as f64
}

/// Prints a series as aligned columns: an index column plus one column per
/// labeled series.
pub fn print_series(index_label: &str, labels: &[&str], columns: &[Vec<f64>]) {
    assert_eq!(labels.len(), columns.len(), "one label per column");
    print!("{index_label:>10}");
    for l in labels {
        print!("  {l:>14}");
    }
    println!();
    let n = columns.iter().map(Vec::len).max().unwrap_or(0);
    for i in 0..n {
        print!("{i:>10}");
        for c in columns {
            match c.get(i) {
                Some(v) => print!("  {v:>14.2}"),
                None => print!("  {:>14}", "-"),
            }
        }
        println!();
    }
}

/// Prints a labeled row of values (for bar-chart-like figures).
pub fn print_row(label: &str, values: &[(&str, f64)]) {
    print!("{label:>24}:");
    for (name, v) in values {
        print!("  {name}={v:.2}");
    }
    println!();
}

/// Downsamples a series by averaging blocks of `window` points (keeps
/// printed tables short for long runs).
pub fn downsample(series: &[f64], window: usize) -> Vec<f64> {
    if window <= 1 {
        return series.to_vec();
    }
    series
        .chunks(window)
        .map(|c| c.iter().sum::<f64>() / c.len() as f64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cdf_is_monotone_and_normalized() {
        let c = cdf(&[3.0, 1.0, 2.0, 2.0]);
        assert_eq!(c.len(), 4);
        assert!((c.last().unwrap().1 - 1.0).abs() < 1e-12);
        for w in c.windows(2) {
            assert!(w[0].0 <= w[1].0);
            assert!(w[0].1 <= w[1].1);
        }
    }

    #[test]
    fn cdf_skips_non_finite() {
        let c = cdf(&[1.0, f64::NAN, f64::INFINITY, 2.0]);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn fraction_at_least_counts_inclusive() {
        assert_eq!(fraction_at_least(&[-40.0, -20.0, -10.0, 0.0], -20.0), 0.75);
        assert_eq!(fraction_at_least(&[], 0.0), 0.0);
    }

    #[test]
    fn downsample_averages_blocks() {
        assert_eq!(
            downsample(&[1.0, 3.0, 5.0, 7.0, 9.0], 2),
            vec![2.0, 6.0, 9.0]
        );
        assert_eq!(downsample(&[1.0, 2.0], 1), vec![1.0, 2.0]);
    }

    #[test]
    fn knobs_streams_decorrelate() {
        let k = Knobs {
            train_steps: 100,
            seed: 1,
        };
        let mut a = k.rng(0);
        let mut b = k.rng(1);
        use rand::Rng;
        assert_ne!(a.gen::<u64>(), b.gen::<u64>(), "streams must decorrelate");
    }

    #[test]
    fn knob_parsing_rejects_what_it_cannot_read() {
        let steps = |raw| parse_knob::<usize>("EDGESLICE_TRAIN_STEPS", raw, 8_000);
        assert_eq!(steps(None), Ok(8_000));
        assert_eq!(steps(Some("1000000")), Ok(1_000_000));
        for bad in ["1e6", "-5", ""] {
            let err = steps(Some(bad)).unwrap_err();
            assert!(err.contains("EDGESLICE_TRAIN_STEPS"), "{err}");
            assert!(err.contains(&format!("{bad:?}")), "{err}");
        }
    }
}
