//! Figure 10 — the impact of training on orchestration quality
//! (trace-driven simulation setting: 5 slices, 10 RAs).
//!
//! (a) system performance vs the number of training steps — an
//! under-trained DRL agent can lose to TARO;
//! (b) system performance per training technique: DDPG (the paper's
//! choice) vs SAC, PPO, TRPO, VPG.
//!
//! The paper's step grid is {1e5, 5e5, 1e6, 1.5e6} on GPUs; the CPU
//! schedule scales the grid down (default top point 60k) while keeping the
//! qualitative shape. Override with `EDGESLICE_TRAIN_STEPS` (the top grid
//! point).

#![cfg_attr(not(test), deny(clippy::float_cmp))]

use edgeslice_bench::{print_row, run_arm, simulation, Arm, Knobs, Policy};
use edgeslice_rl::Technique;

const ROUNDS: usize = 4;

fn main() {
    let knobs = Knobs::from_env();
    let top = knobs.train_steps.max(60_000);
    // The 5-slice, 10-RA set-up of fig9's 10-RA points.
    let config = simulation(&knobs, 5, 10);
    // Trains a shared agent with `technique` for `steps` (TARO: none) and
    // returns the run's tail system performance.
    let point = |arm: Arm, technique: Technique, steps: usize, stream: u64| {
        let policy = Policy::Train(steps);
        let (_, report) = run_arm(&config, arm, technique, policy, ROUNDS, knobs.rng(stream));
        report.tail_system_performance(2)
    };

    println!("=== Fig. 10 (a): system performance vs training steps ===");
    let taro = point(Arm::Taro, Technique::Ddpg, 0, 2);
    let grid = [top / 10, top * 3 / 10, top * 6 / 10, top];
    let mut ddpg_top = 0.0;
    for (i, steps) in grid.iter().enumerate() {
        let es = point(Arm::EdgeSlice, Technique::Ddpg, *steps, 100 + i as u64);
        if i == grid.len() - 1 {
            ddpg_top = es;
            // EdgeSlice-NT needs far more training than the CPU budget
            // allows in this setting (see EXPERIMENTS.md); report it at the
            // top point only.
            let nt = point(Arm::EdgeSliceNt, Technique::Ddpg, *steps, 200 + i as u64);
            print_row(
                &format!("{steps} steps"),
                &[("EdgeSlice", es), ("EdgeSlice-NT", nt), ("TARO", taro)],
            );
        } else {
            print_row(
                &format!("{steps} steps"),
                &[("EdgeSlice", es), ("TARO", taro)],
            );
        }
    }
    println!("(paper: under-trained DRL agents can lose to TARO; well-trained EdgeSlice wins)");

    println!("\n=== Fig. 10 (b): system performance vs training technique ===");
    print_row(Technique::Ddpg.label(), &[("system performance", ddpg_top)]);
    for (k, technique) in Technique::ALL.iter().skip(1).enumerate() {
        // The comparators run a reduced schedule; DDPG reuses its top-grid
        // agent from (a).
        let perf = point(Arm::EdgeSlice, *technique, top * 2 / 3, 500 + k as u64);
        print_row(technique.label(), &[("system performance", perf)]);
    }
    println!("(paper: DDPG performs best among DDPG/SAC/PPO/TRPO/VPG in this setting)");
}
