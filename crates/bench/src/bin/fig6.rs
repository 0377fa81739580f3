//! Figure 6 — convergence of the coordination loop.
//!
//! (a) system performance vs time interval for EdgeSlice / EdgeSlice-NT /
//! TARO; (b) per-slice performance vs time interval for EdgeSlice against
//! `Umin = −50`. Prototype configuration: 2 slices, 2 RAs, 3 resources,
//! Poisson(10) traffic, `t = 1 s`, `T = 10`.

#![cfg_attr(not(test), deny(clippy::float_cmp))]

use edgeslice::{SliceId, SystemConfig};
use edgeslice_bench::{downsample, print_row, print_series, run_arm, Arm, Knobs, Policy};
use edgeslice_rl::Technique;

fn main() {
    let knobs = Knobs::from_env();
    let config = SystemConfig::prototype();
    let rounds = 10; // 10 rounds × T=10 ⇒ 100 time intervals, as plotted
    let period = config.reward.period;

    println!("=== Fig. 6 (a): system performance vs time interval ===");
    let mut columns = Vec::new();
    let mut reports = Vec::new();
    let mut systems = Vec::new();
    for (k, arm) in Arm::ALL.iter().enumerate() {
        eprintln!("running {} ...", arm.label());
        let policy = Policy::Train(knobs.train_steps);
        let (system, report) = run_arm(
            &config,
            *arm,
            Technique::Ddpg,
            policy,
            rounds,
            knobs.rng(k as u64),
        );
        columns.push(system.monitor().interval_system_series(period));
        systems.push(system);
        reports.push(report);
    }
    // Print every 5th interval to keep the table readable.
    let cols: Vec<Vec<f64>> = columns.iter().map(|c| downsample(c, 5)).collect();
    print_series("interval/5", &["EdgeSlice", "EdgeSlice-NT", "TARO"], &cols);

    let tail = |r: &edgeslice::RunReport| r.tail_system_performance(3);
    let es = tail(&reports[0]);
    let nt = tail(&reports[1]);
    let ta = tail(&reports[2]);
    println!();
    print_row(
        "converged system perf",
        &[("EdgeSlice", es), ("EdgeSlice-NT", nt), ("TARO", ta)],
    );
    print_row(
        "improvement factors",
        &[("vs TARO", ta / es), ("vs EdgeSlice-NT", nt / es)],
    );
    println!("(paper: 3.69x over TARO, 2.74x over EdgeSlice-NT)");

    println!("\n=== Fig. 6 (b): EdgeSlice per-slice performance vs time interval ===");
    let monitor = systems[0].monitor();
    let series = |slice| downsample(&monitor.slice_interval_series(slice, period), 5);
    let slices = [series(SliceId(0)), series(SliceId(1))];
    print_series("interval/5", &["Slice 1", "Slice 2"], &slices);
    if let Some(last) = reports[0].rounds.last() {
        println!("\nfinal-round per-slice performance (SLA Umin = -50 per period):");
        for (i, (p, met)) in last.slice_performance.iter().zip(&last.sla_met).enumerate() {
            println!("  slice {}: {p:.1}  SLA met: {met}", i + 1);
        }
    }
}
