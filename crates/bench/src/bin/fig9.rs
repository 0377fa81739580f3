//! Figure 9 — scalability of EdgeSlice (trace-driven simulation setting).
//!
//! (a) performance per RA vs the number of RAs ∈ {5, 10, 15, 20};
//! (b) performance per slice vs the number of slices ∈ {3, 5, 7}.
//! 5 slices / 10 RAs otherwise; diurnal traffic; `T = 24`.
//!
//! An orchestration agent is per-RA and sees only local state, so its
//! policy is independent of the network size: each learned arm is trained
//! once per slice count (shared-agent training on the 10-RA system) and
//! replicated across every RA-count point (the paper trains per-RA agents
//! in parallel on its testbed).

use edgeslice_bench::{print_row, run_arm, simulation, Arm, Knobs, Policy};
use edgeslice_rl::Technique;

fn main() {
    let knobs = Knobs::from_env();
    // Simulation envs (5 slices) need a longer schedule than the prototype.
    let steps = knobs.train_steps.max(60_000);
    let rounds = 5;
    // Trains one shared agent for `arm` on the 10-RA system and returns it
    // together with that system's own tail performance.
    let train_and_run_10 = |arm: Arm, n_slices: usize| {
        let config = simulation(&knobs, n_slices, 10);
        let rng = knobs.rng(100 + n_slices as u64 * 7 + (arm as usize as u64));
        let (sys, report) = run_arm(
            &config,
            arm,
            Technique::Ddpg,
            Policy::Train(steps),
            rounds,
            rng,
        );
        (sys.agent0(), report.tail_system_performance(2))
    };
    let run_point = |arm: Arm, policy: Policy, n_slices: usize, n_ras: usize| {
        let config = simulation(&knobs, n_slices, n_ras);
        let rng = knobs.rng(500 + (n_slices * 100 + n_ras * 3 + arm as usize) as u64);
        let (_, report) = run_arm(&config, arm, Technique::Ddpg, policy, rounds, rng);
        report.tail_system_performance(2)
    };

    println!("=== Fig. 9 (a): performance per RA vs number of RAs (5 slices) ===");
    eprintln!("training shared agents (reused across sizes)...");
    let (es5, es10_perf) = train_and_run_10(Arm::EdgeSlice, 5);
    let (nt5, nt10_perf) = train_and_run_10(Arm::EdgeSliceNt, 5);
    for n_ras in [5usize, 10, 15, 20] {
        let (es, nt) = if n_ras == 10 {
            (es10_perf, nt10_perf)
        } else {
            (
                run_point(Arm::EdgeSlice, Policy::Install(&es5), 5, n_ras),
                run_point(Arm::EdgeSliceNt, Policy::Install(&nt5), 5, n_ras),
            )
        };
        let ta = run_point(Arm::Taro, Policy::Train(steps), 5, n_ras);
        print_row(
            &format!("{n_ras} RAs"),
            &[
                ("EdgeSlice", es / n_ras as f64),
                ("EdgeSlice-NT", nt / n_ras as f64),
                ("TARO", ta / n_ras as f64),
            ],
        );
    }
    println!("(paper: EdgeSlice/NT per-RA performance stays flat; TARO is worst and degrades)");

    println!("\n=== Fig. 9 (b): performance per slice vs number of slices (10 RAs) ===");
    println!("(EdgeSlice-NT shown at the 5-slice point only: it needs the paper's full training budget in this setting; see EXPERIMENTS.md)");
    for n_slices in [3usize, 5, 7] {
        let es = if n_slices == 5 {
            es10_perf
        } else {
            train_and_run_10(Arm::EdgeSlice, n_slices).1
        };
        let ta = run_point(Arm::Taro, Policy::Train(steps), n_slices, 10);
        let n = n_slices as f64;
        let mut row = vec![("EdgeSlice", es / n)];
        if n_slices == 5 {
            row.push(("EdgeSlice-NT", nt10_perf / n));
        }
        row.push(("TARO", ta / n));
        print_row(&format!("{n_slices} slices"), &row);
    }
    println!("(paper: per-slice performance degrades as slices contend; EdgeSlice stays best)");
}
