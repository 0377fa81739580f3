//! Figure 11 — compatibility with different slice performance functions
//! (trace-driven simulation setting: 5 slices, 10 RAs).
//!
//! (a) system performance vs the exponent α of `U = −l^α`,
//! α ∈ {1.0, 1.5, 2.0, 2.5};
//! (b) CDF of normalized system performance when the performance function
//! is the negative service time (traffic-independent) — EdgeSlice and
//! EdgeSlice-NT should coincide, both far ahead of TARO.

use std::sync::Arc;

use edgeslice::{NegServiceTime, PerformanceFunction, QueuePenalty};
use edgeslice_bench::{cdf, print_row, run_arm, simulation, Arm, Knobs, Policy};
use edgeslice_rl::Technique;

fn main() {
    let knobs = Knobs::from_env();
    let steps = knobs.train_steps.max(50_000);
    // Trains (if learned) a shared agent on the 10-RA system whose slices
    // all use `perf`, and runs it for 4 rounds.
    let run = |perf: Arc<dyn PerformanceFunction>, arm: Arm, stream: u64| {
        let mut config = simulation(&knobs, 5, 10);
        config.perf = perf;
        let policy = Policy::Train(steps);
        run_arm(&config, arm, Technique::Ddpg, policy, 4, knobs.rng(stream)).1
    };

    println!("=== Fig. 11 (a): system performance vs alpha in U = -l^alpha ===");
    println!("(EdgeSlice-NT omitted from this sweep: it needs the paper's full 1e6-step budget in the simulation setting; see EXPERIMENTS.md)");
    for alpha in [1.0, 1.5, 2.0, 2.5] {
        let mut vals = Vec::new();
        for (k, arm) in [Arm::EdgeSlice, Arm::Taro].iter().enumerate() {
            let perf = Arc::new(QueuePenalty::new(alpha));
            let report = run(perf, *arm, (alpha * 100.0) as u64 + k as u64);
            vals.push((arm.label(), report.tail_system_performance(2)));
        }
        print_row(&format!("alpha = {alpha}"), &vals);
    }
    println!("(paper: EdgeSlice best at every alpha; larger alpha reports worse raw numbers)");

    println!("\n=== Fig. 11 (b): CDF of normalized system performance, U = -service_time ===");
    for (k, arm) in Arm::ALL.iter().enumerate() {
        let report = run(Arc::new(NegServiceTime::paper()), *arm, 700 + k as u64);
        let norm = (5 * 10 * 24) as f64;
        let samples: Vec<f64> = report
            .rounds
            .iter()
            .map(|r| r.system_performance / norm)
            .collect();
        print!("{:>14}: ", arm.label());
        for (v, p) in cdf(&samples) {
            print!("({v:.3},{p:.2}) ");
        }
        println!();
    }
    println!("(paper: EdgeSlice ≈ EdgeSlice-NT here — queue state carries no information when U ignores traffic — and both beat TARO)");
}
