//! Churn: orchestration under dynamic slice lifecycles and injected
//! faults.
//!
//! Two sweeps:
//!
//! 1. **Slice churn (recorded)** — a seeded Poisson arrival model drives
//!    online admit/resize/teardown through the ADMM coordinator at
//!    increasing offered load; each level records admitted / rejected /
//!    departed counts, SLA-violation rate, and tail system performance
//!    to `results/BENCH_churn.json`.
//! 2. **Fault churn (printed)** — system performance with injected
//!    outages, lost broadcasts, stragglers, and capacity sags vs the
//!    fault-free baseline on identical seeds (skipped in `--smoke`).
//!
//! Run: `cargo run --release -p edgeslice-bench --bin churn --
//! [--smoke] [--out PATH] [--arrivals poisson:<rate>|incr:<every>x<hold>|keep:<every>]
//! [--trace FILE]`
//!
//! `--arrivals` / `--trace` replace the default load sweep with a single
//! custom scenario: `--arrivals poisson:0.75` runs Poisson arrivals at
//! 0.75 expected slices per round; `--trace day.csv` (or `.json`) drives
//! the concurrent slice count from a demand curve (CSV `round,target`
//! rows, or a JSON array of per-round targets).

use edgeslice::{
    AdmissionController, AgentConfig, ArrivalModel, EdgeSliceSystem, FaultConfig, FaultEvent,
    FaultInjector, FaultPlan, OrchestratorKind, RunReport, Sla, SliceRequest, SystemConfig,
    WorkloadConfig, WorkloadPlan,
};
use edgeslice_netsim::AppProfile;
use rand::rngs::StdRng;
use rand::SeedableRng;

const TAIL: usize = 5;
/// Workload-stream seed for the recorded sweep (fixed: the bench is a
/// regression artifact, not a statistical study).
const WORKLOAD_SEED: u64 = 17;
/// Construction/traffic seed shared by every run.
const RUN_SEED: u64 = 7;

struct Args {
    rounds: usize,
    out: String,
    smoke: bool,
    arrivals: Option<ArrivalModel>,
    trace: Option<String>,
}

fn bad_arrivals(spec: &str) -> ! {
    panic!("bad --arrivals spec {spec:?} (see the module docs)")
}

fn parse_arrivals(spec: &str) -> ArrivalModel {
    if let Some(rate) = spec.strip_prefix("poisson:") {
        return ArrivalModel::Poisson {
            rate: rate.parse().unwrap_or_else(|_| bad_arrivals(spec)),
        };
    }
    if let Some(rest) = spec.strip_prefix("incr:") {
        let Some((every, hold)) = rest.split_once('x') else {
            bad_arrivals(spec)
        };
        return ArrivalModel::Incremental {
            every_rounds: every.parse().unwrap_or_else(|_| bad_arrivals(spec)),
            hold_rounds: hold.parse().unwrap_or_else(|_| bad_arrivals(spec)),
        };
    }
    if let Some(every) = spec.strip_prefix("keep:") {
        return ArrivalModel::IncrAndKeep {
            every_rounds: every.parse().unwrap_or_else(|_| bad_arrivals(spec)),
        };
    }
    bad_arrivals(spec)
}

fn parse_args() -> Args {
    let mut args = Args {
        rounds: 20,
        out: "results/BENCH_churn.json".to_string(),
        smoke: false,
        arrivals: None,
        trace: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--rounds" => {
                args.rounds = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--rounds takes a positive integer");
            }
            "--out" => {
                args.out = it.next().expect("--out takes a path");
            }
            "--arrivals" => {
                args.arrivals = Some(parse_arrivals(
                    &it.next().expect("--arrivals takes a model spec"),
                ));
            }
            "--trace" => {
                args.trace = Some(it.next().expect("--trace takes a file path"));
            }
            "--smoke" => {
                args.smoke = true;
                args.rounds = 8;
            }
            other => panic!("unknown flag {other:?} (see the module docs)"),
        }
    }
    args
}

/// The prototype pair of initial slices every scenario starts from.
fn initial_requests() -> Vec<SliceRequest> {
    vec![
        SliceRequest {
            app: AppProfile::traffic_heavy(),
            expected_rate: 10.0,
            sla: Sla::paper(),
        },
        SliceRequest {
            app: AppProfile::compute_heavy(),
            expected_rate: 10.0,
            sla: Sla::paper(),
        },
    ]
}

struct LevelOutcome {
    label: String,
    arrival_rate: f64,
    slots: usize,
    admitted: usize,
    rejected: usize,
    departed: usize,
    resizes: usize,
    sla_violation_rate: f64,
    mean_active_performance: f64,
    tail_performance: f64,
}

/// Runs one dynamic workload through the TARO prototype system.
fn run_workload(label: &str, arrival_rate: f64, plan: WorkloadPlan, rounds: usize) -> LevelOutcome {
    let config = SystemConfig {
        slices: plan.slot_specs(),
        ..SystemConfig::prototype()
    };
    let mut rng = StdRng::seed_from_u64(RUN_SEED);
    let mut sys = EdgeSliceSystem::new(
        config,
        OrchestratorKind::Taro,
        &AgentConfig::default(),
        &mut rng,
    );
    sys.set_workload(plan, AdmissionController::prototype())
        .expect("plan slots match the system's slices");
    let report = sys.run(rounds, &mut rng);
    summarize(label, arrival_rate, &report, rounds)
}

fn summarize(label: &str, arrival_rate: f64, report: &RunReport, rounds: usize) -> LevelOutcome {
    let lifetimes = &report.slice_lifetimes;
    let admitted = lifetimes.iter().filter(|l| l.admit_round.is_some()).count();
    let rejected = lifetimes.iter().filter(|l| l.reject.is_some()).count();
    let departed = lifetimes
        .iter()
        .filter(|l| l.depart_round.is_some_and(|d| d < rounds))
        .count();
    let resizes: usize = lifetimes.iter().map(|l| l.resizes).sum();
    // SLA accounting over *active* (slice, round) pairs only — inactive
    // slots are trivially "met" and would dilute the rate at high load.
    let active_at = |i: usize, round: usize| {
        let l = &lifetimes[i];
        l.admit_round.is_some_and(|a| a <= round) && l.depart_round.is_none_or(|d| round < d)
    };
    let (met, total) = report.rounds.iter().fold((0usize, 0usize), |(m, t), r| {
        let active = r
            .sla_met
            .iter()
            .enumerate()
            .filter(|(i, _)| active_at(*i, r.round));
        (
            m + active.clone().filter(|(_, &ok)| ok).count(),
            t + active.count(),
        )
    });
    // Mean per-round utility of an *active* slice — how thin the churn
    // spreads the substrate (the violation rate saturates at the paper's
    // per-round stringency, this does not).
    let (perf_sum, perf_n) = report.rounds.iter().fold((0.0f64, 0usize), |(s, n), r| {
        let active: Vec<f64> = r
            .slice_performance
            .iter()
            .enumerate()
            .filter(|(i, _)| active_at(*i, r.round))
            .map(|(_, &p)| p)
            .collect();
        (s + active.iter().sum::<f64>(), n + active.len())
    });
    LevelOutcome {
        label: label.to_string(),
        arrival_rate,
        slots: lifetimes.len(),
        admitted,
        rejected,
        departed,
        resizes,
        sla_violation_rate: if total == 0 {
            0.0
        } else {
            (total - met) as f64 / total as f64
        },
        mean_active_performance: if perf_n == 0 {
            0.0
        } else {
            perf_sum / perf_n as f64
        },
        tail_performance: report.tail_system_performance(TAIL),
    }
}

/// The fault-churn sweep (the bench's original dimension): tail system
/// performance under stochastic fault plans of increasing intensity and
/// one targeted long outage, vs the fault-free baseline.
fn fault_sweep(rounds: usize) {
    let run = |injector: &FaultInjector| -> (f64, f64, usize) {
        let mut rng = StdRng::seed_from_u64(RUN_SEED);
        let mut sys = EdgeSliceSystem::new(
            SystemConfig::prototype(),
            OrchestratorKind::Taro,
            &AgentConfig::default(),
            &mut rng,
        );
        let report = sys.run_with_faults(rounds, &mut rng, injector);
        let dark = report
            .rounds
            .iter()
            .filter(|r| !r.outages.is_empty())
            .count();
        let served = report.rounds.iter().map(|r| r.served_fraction).sum::<f64>()
            / report.rounds.len() as f64;
        (report.tail_system_performance(TAIL), served, dark)
    };

    println!("\n=== Performance under fault churn (TARO policy, prototype config) ===");
    println!("{rounds} rounds, tail mean over the last {TAIL}; same traffic seed everywhere\n");

    let (baseline, _, _) = run(&FaultInjector::none(2, rounds));
    println!(
        "{:>22}  {:>12}  {:>12}  {:>11}",
        "fault intensity", "tail sys U", "vs baseline", "dark rounds"
    );
    println!("{:>22}  {baseline:>12.2}  {:>12}  {:>11}", "none", "-", 0);

    // Stochastic churn at increasing intensity (outage/drop/straggler/
    // degradation rates scaled together).
    for (label, scale) in [("stress x0.5", 0.5), ("stress x1", 1.0), ("stress x2", 2.0)] {
        let base = FaultConfig::stress(2, rounds, 42);
        let cfg = FaultConfig {
            outage_rate: (base.outage_rate * scale).min(0.9),
            broadcast_drop_rate: (base.broadcast_drop_rate * scale).min(0.9),
            straggler_rate: (base.straggler_rate * scale).min(0.9),
            degradation_rate: (base.degradation_rate * scale).min(0.9),
            ..base
        };
        let injector =
            FaultInjector::new(FaultPlan::generate(&cfg).expect("scaled stress config is valid"));
        let (tail, served, dark) = run(&injector);
        println!(
            "{label:>22}  {tail:>12.2}  {:>+12.2}  {dark:>11}   (mean served fraction {served:.2})",
            tail - baseline
        );
    }

    // A targeted worst case: one of the two RAs dark for a quarter of the
    // run. The coordinator redistributes the SLA across the survivor.
    let plan = FaultPlan::scripted(
        2,
        rounds,
        vec![FaultEvent::RaOutage {
            ra: edgeslice::RaId(1),
            start_round: 5.min(rounds.saturating_sub(1)),
            rounds: (rounds / 4).max(1),
        }],
    )
    .expect("scripted plan is valid");
    let (tail, served, dark) = run(&FaultInjector::new(plan));
    println!(
        "{:>22}  {tail:>12.2}  {:>+12.2}  {dark:>11}   (mean served fraction {served:.2})",
        "RA1 dark",
        tail - baseline
    );

    println!("\nDark rounds are excluded from SLA accounting (the per-round target is");
    println!("prorated by the served fraction); duals of missing RAs are frozen and");
    println!("their SLA share is redistributed across survivors past the staleness budget.");
}

fn main() {
    let args = parse_args();
    let rounds = args.rounds;

    println!("=== Slice churn: load vs admission/SLA outcomes (TARO, prototype) ===");
    println!("{rounds} rounds, workload seed {WORKLOAD_SEED}, run seed {RUN_SEED}\n");

    // The recorded sweep — or the single custom scenario from the flags.
    let workload_config = |model: ArrivalModel| WorkloadConfig {
        model,
        ..WorkloadConfig::prototype(WORKLOAD_SEED, rounds)
    };
    let levels: Vec<LevelOutcome> = if let Some(path) = &args.trace {
        let text = std::fs::read_to_string(path).expect("read --trace file");
        let template = initial_requests()[0];
        let plan = if path.ends_with(".json") {
            WorkloadPlan::from_trace_json(initial_requests(), &text, &template)
        } else {
            WorkloadPlan::from_trace_csv(initial_requests(), &text, &template)
        }
        .expect("valid trace file");
        let horizon = plan.horizon_rounds();
        vec![run_workload(&format!("trace {path}"), 0.0, plan, horizon)]
    } else if let Some(model) = args.arrivals.clone() {
        let rate = match model {
            ArrivalModel::Poisson { rate } => rate,
            _ => 0.0,
        };
        let plan = WorkloadPlan::generate(initial_requests(), &workload_config(model))
            .expect("valid --arrivals model");
        vec![run_workload("custom arrivals", rate, plan, rounds)]
    } else {
        [0.25, 0.5, 1.0, 2.0]
            .into_iter()
            .map(|rate| {
                let plan = WorkloadPlan::generate(
                    initial_requests(),
                    &workload_config(ArrivalModel::Poisson { rate }),
                )
                .expect("prototype workload config is valid");
                run_workload(&format!("poisson {rate}"), rate, plan, rounds)
            })
            .collect()
    };

    println!(
        "{:>16}  {:>5}  {:>8}  {:>8}  {:>8}  {:>7}  {:>9}  {:>12}  {:>10}",
        "workload",
        "slots",
        "admitted",
        "rejected",
        "departed",
        "resizes",
        "SLA viol.",
        "mean U/slice",
        "tail sys U"
    );
    for l in &levels {
        println!(
            "{:>16}  {:>5}  {:>8}  {:>8}  {:>8}  {:>7}  {:>8.1}%  {:>12.2}  {:>10.2}",
            l.label,
            l.slots,
            l.admitted,
            l.rejected,
            l.departed,
            l.resizes,
            100.0 * l.sla_violation_rate,
            l.mean_active_performance,
            l.tail_performance
        );
    }

    // Hand-rolled JSON: the schema is flat and the vendored serde_json
    // stand-in has no `json!` macro.
    let level_json: Vec<String> = levels
        .iter()
        .map(|l| {
            format!(
                "    {{\"label\": \"{}\", \"arrival_rate\": {}, \"slots\": {}, \"admitted\": {}, \"rejected\": {}, \"departed\": {}, \"resizes\": {}, \"sla_violation_rate\": {:.6}, \"mean_active_performance\": {:.6}, \"tail_system_performance\": {:.6}}}",
                l.label,
                l.arrival_rate,
                l.slots,
                l.admitted,
                l.rejected,
                l.departed,
                l.resizes,
                l.sla_violation_rate,
                l.mean_active_performance,
                l.tail_performance
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"churn\",\n  \"config\": {{\"rounds\": {rounds}, \"workload_seed\": {WORKLOAD_SEED}, \"run_seed\": {RUN_SEED}, \"policy\": \"taro\", \"admission_utilization\": 0.7}},\n  \"smoke\": {},\n  \"n_levels\": {},\n  \"levels\": [\n{}\n  ]\n}}\n",
        args.smoke,
        levels.len(),
        level_json.join(",\n"),
    );
    if let Some(dir) = std::path::Path::new(&args.out).parent() {
        std::fs::create_dir_all(dir).expect("create results dir");
    }
    std::fs::write(&args.out, json).expect("write bench JSON");
    println!("\nwrote {}", args.out);

    if !args.smoke {
        fault_sweep(rounds);
    }
}
