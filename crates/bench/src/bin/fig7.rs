//! Figure 7 — EdgeSlice's multi-resource orchestration over time.
//!
//! Normalized usage of radio / transport / computing resources per slice
//! vs time interval, in the prototype configuration. The paper's
//! observations to reproduce: slice 1 (traffic-heavy) holds most radio and
//! transport resources; slice 2 (compute-heavy) starts with most computing
//! resources; allocations stabilize within ~6 coordination rounds.

#![cfg_attr(not(test), deny(clippy::float_cmp))]

use edgeslice::{ResourceKind, SliceId, SystemConfig};
use edgeslice_bench::{downsample, print_series, run_arm, Arm, Knobs, Policy};
use edgeslice_rl::Technique;

fn main() {
    let knobs = Knobs::from_env();
    let config = SystemConfig::prototype();
    let rounds = 10;
    let period = config.reward.period;
    let n_ras = config.n_ras;

    eprintln!("training + running EdgeSlice ...");
    let policy = Policy::Train(knobs.train_steps);
    let (system, _) = run_arm(
        &config,
        Arm::EdgeSlice,
        Technique::Ddpg,
        policy,
        rounds,
        knobs.rng(0),
    );
    let monitor = system.monitor();

    for kind in ResourceKind::ALL {
        println!("\n=== Fig. 7: normalized {kind} usage vs time interval ===");
        let series = |slice| {
            downsample(
                &monitor.usage_interval_series(slice, kind, period, n_ras),
                5,
            )
        };
        let slices = [series(SliceId(0)), series(SliceId(1))];
        print_series("interval/5", &["Slice 1", "Slice 2"], &slices);
    }

    println!("\nmean usage over the final 3 rounds:");
    let final_rounds = monitor.rounds().saturating_sub(3)..monitor.rounds();
    for slice in [SliceId(0), SliceId(1)] {
        let mut acc = [0.0f64; 3];
        let mut n = 0;
        for round in final_rounds.clone() {
            let u = monitor.round_usage(round, slice);
            for (a, v) in acc.iter_mut().zip(u) {
                *a += v;
            }
            n += 1;
        }
        for a in &mut acc {
            *a /= n.max(1) as f64;
        }
        println!(
            "  slice {}: radio={:.2} transport={:.2} compute={:.2}",
            slice.0 + 1,
            acc[0],
            acc[1],
            acc[2]
        );
    }
    println!("(paper: slice 1 dominates radio+transport; compute shifts toward slice 1 as its SLA binds)");
}
