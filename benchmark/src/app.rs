//! The `e2e` binary's work: parse the command line, run one workload
//! untraced or traced, print the metrics and the result line, write the
//! info file.

use std::path::{Path, PathBuf};

use serde::Serialize;

use crate::deploy::Scratch;
use crate::error::{Error, Result};
use crate::host::{peak_rss_mib, HostClock, Provenance, RealHost};
use crate::measure::{time_metrics, Sample};
use crate::report::{print_metrics, result_line, write_json, Values, END_TO_END, PER_LAYER};
use crate::runner::{measure, online_seed};
use crate::scenario::{Ctx, Notes, Scenario};
use crate::sizes::{sizes, Sizes, Workload, CAL_REF_S, DEPLOYMENT_SEED, PERIOD, SETUP_ALPHA};
use crate::stats::quantile;
use crate::tracerun::trace_run;
use crate::workloads::{
    run_durable::RunDurable, run_long::RunLong, run_net::RunNet, train_paper::TrainPaper,
};

/// The `e2e` command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// `--workload`.
    pub workload: Workload,
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`: how long the timed phase measures.
    pub seconds: f64,
    /// `--trace 1`: the traced run that yields the per-layer metrics.
    pub trace: bool,
    /// `--quick`: the shrunken smoke table (results not comparable).
    pub quick: bool,
    /// `--out`: where the info, trace and scratch files go.
    pub out_dir: PathBuf,
}

/// The usage text.
pub const USAGE: &str = "e2e --workload <train-paper|run-long|run-durable|run-net> --seed <u64> \
                         --seconds <n> --trace <0|1> [--quick] [--out <dir>]";

impl Options {
    /// Parses the arguments after the program name.
    pub fn parse(args: &[String]) -> Result<Self> {
        let usage = |msg: String| Error::Usage(format!("{msg}\n  {USAGE}"));
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let mut quick = false;
        let mut out_dir = PathBuf::from("benchmark/out");
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            if flag == "--quick" {
                quick = true;
                continue;
            }
            let value = it
                .next()
                .ok_or_else(|| usage(format!("`{flag}` needs a value")))?;
            let bad = || usage(format!("bad value `{value}` for `{flag}`"));
            match flag.as_str() {
                "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
                "--seconds" => {
                    let s = value.parse::<f64>().map_err(|_| bad())?;
                    if !(s.is_finite() && s > 0.0 && s <= 120.0) {
                        return Err(bad());
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    })
                }
                "--out" => out_dir = PathBuf::from(value),
                _ => return Err(usage(format!("unknown argument `{flag}`"))),
            }
        }
        let missing = |name: &str| usage(format!("`{name}` is required"));
        Ok(Self {
            workload: workload.ok_or_else(|| missing("--workload"))?,
            seed: seed.ok_or_else(|| missing("--seed"))?,
            seconds: seconds.ok_or_else(|| missing("--seconds"))?,
            trace: trace.ok_or_else(|| missing("--trace"))?,
            quick,
            out_dir,
        })
    }
}

/// Quartiles of the host factor over a run.
#[derive(Debug, Clone, Copy, Serialize)]
struct HostFactor {
    p25: f64,
    p50: f64,
    p90: f64,
}

/// One block's or set-up's times, raw and normalised.
#[derive(Debug, Clone, Copy, Serialize)]
struct SeriesPoint {
    raw: Sample,
    h: f64,
    wall_norm_s: f64,
    cpu_norm_s: f64,
}

/// The info file: everything behind the metrics that is not a metric.
#[derive(Debug, Serialize)]
struct Info {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// False for `--quick` runs: the shrunken table's numbers are not
    /// comparable with anything.
    comparable: bool,
    host: Provenance,
    deployment_seed: u64,
    cal_ref_s: f64,
    setup_alpha: f64,
    sizes: Sizes,
    steps_per_block: usize,
    setup_digest: String,
    block_digest: String,
    checks: Vec<(String, bool)>,
    /// Why a traced run's per-layer times are not to be trusted, if so.
    warnings: Vec<String>,
    attempted: u64,
    failed: u64,
    host_factor: HostFactor,
    setups: Vec<SeriesPoint>,
    blocks: Vec<SeriesPoint>,
}

fn series(samples: &[Sample], alpha: f64) -> Vec<SeriesPoint> {
    samples
        .iter()
        .map(|s| {
            let (wall_norm_s, cpu_norm_s) = s.normalised(alpha);
            SeriesPoint {
                raw: *s,
                h: s.host_factor(),
                wall_norm_s,
                cpu_norm_s,
            }
        })
        .collect()
}

fn run_scenario<S: Scenario>(scenario: &S, opts: &Options, host: &mut RealHost) -> Result<()> {
    let provenance = Provenance::read();
    let sizes = sizes(opts.workload, opts.quick);
    let steps_per_block = sizes.steps_per_block(PERIOD);
    let scratch = Scratch::create(&opts.out_dir)?;
    let notes = Notes::default();
    let ctx = Ctx {
        sizes,
        online_seed: online_seed(opts.seed),
        scratch: &scratch,
        notes: &notes,
    };
    let name = opts.workload.name();
    println!(
        "workload {name}  seed {}  seconds {}  trace {}{}",
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        if opts.quick {
            "  (quick: not comparable)"
        } else {
            ""
        }
    );

    let (measured, metrics, warnings) = if opts.trace {
        let traced = trace_run(scenario, &ctx, host, opts)?;
        let metrics = traced.values.against(&PER_LAYER)?;
        (traced.measured, metrics, traced.warnings)
    } else {
        let measured = measure(scenario, &ctx, host, opts.seconds)?;
        let t = time_metrics(
            &measured.setups,
            SETUP_ALPHA,
            &measured.blocks,
            sizes.alpha,
            steps_per_block,
        );
        let rss = peak_rss_mib()
            .ok_or_else(|| Error::Program("/proc/self/status has no VmHWM".into()))?;
        let mut values = Values::default();
        values.set("setup_s", t.setup_s);
        values.set("agent_steps_per_s", t.agent_steps_per_s);
        values.set("cpu_us_per_step", t.cpu_us_per_step);
        values.set("peak_rss_mib", rss);
        (measured, values.against(&END_TO_END)?, Vec::new())
    };

    let blocks = series(&measured.blocks, sizes.alpha);
    let h: Vec<f64> = blocks.iter().map(|p| p.h).collect();
    let info = Info {
        workload: name,
        seed: opts.seed,
        seconds: opts.seconds,
        trace: opts.trace,
        comparable: !opts.quick,
        host: provenance,
        deployment_seed: DEPLOYMENT_SEED,
        cal_ref_s: CAL_REF_S,
        setup_alpha: SETUP_ALPHA,
        sizes,
        steps_per_block,
        setup_digest: format!("{:016x}", measured.setup_digest),
        block_digest: format!("{:016x}", measured.folded.digest.unwrap_or(0)),
        checks: measured
            .folded
            .checks
            .iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
        warnings,
        attempted: measured.folded.ops.attempted,
        failed: measured.folded.ops.failed,
        host_factor: HostFactor {
            p25: quantile(&h, 0.25),
            p50: quantile(&h, 0.5),
            p90: quantile(&h, 0.9),
        },
        setups: series(&measured.setups, SETUP_ALPHA),
        blocks,
    };
    let suffix = if opts.trace { "-traced" } else { "" };
    write_json(&info_path(&opts.out_dir, name, suffix), &info)?;

    for (check, ok) in measured.folded.checks.iter() {
        println!("check {check:<32} {}", if ok { "ok" } else { "FAILED" });
    }
    println!(
        "blocks {}  host.speed p25/p50/p90 {:.3}/{:.3}/{:.3}  wall {:.1} s",
        measured.blocks.len(),
        info.host_factor.p25,
        info.host_factor.p50,
        info.host_factor.p90,
        host.wall_s()
    );
    print_metrics(&metrics);
    for warning in &info.warnings {
        println!("WARNING {warning}");
    }
    // A failed check prints no result line.
    measured.folded.checks.require_all()?;
    drop(scratch);
    println!("{}", result_line(measured.folded.ops, &metrics));
    Ok(())
}

/// Where a run's info file goes.
pub fn info_path(out_dir: &Path, workload: &str, suffix: &str) -> PathBuf {
    out_dir.join(format!("info-{workload}{suffix}.json"))
}

/// Runs `e2e` with the given options on the real host.
pub fn run(opts: &Options) -> Result<()> {
    let mut host = RealHost::new()?;
    match opts.workload {
        Workload::TrainPaper => run_scenario(&TrainPaper, opts, &mut host),
        Workload::RunLong => run_scenario(&RunLong, opts, &mut host),
        Workload::RunDurable => run_scenario(&RunDurable, opts, &mut host),
        Workload::RunNet => run_scenario(&RunNet, opts, &mut host),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_contract_command_line() {
        let o =
            Options::parse(&args("--workload run-net --seed 42 --seconds 20 --trace 1")).unwrap();
        assert_eq!(o.workload, Workload::RunNet);
        assert_eq!(
            (o.seed, o.seconds, o.trace, o.quick),
            (42, 20.0, true, false)
        );
        assert_eq!(o.out_dir, PathBuf::from("benchmark/out"));
        let q = Options::parse(&args(
            "--quick --workload train-paper --seed 0 --seconds 3 --trace 0 --out x/y",
        ))
        .unwrap();
        assert!(q.quick && !q.trace);
        assert_eq!(q.out_dir, PathBuf::from("x/y"));
    }

    #[test]
    fn rejects_malformed_command_lines() {
        for bad in [
            "",
            "--workload run-net --seed 1 --seconds 20",
            "--workload run-fast --seed 1 --seconds 20 --trace 0",
            "--workload run-net --seed -1 --seconds 20 --trace 0",
            "--workload run-net --seed 1 --seconds 0 --trace 0",
            "--workload run-net --seed 1 --seconds 20 --trace 2",
            "--workload run-net --seed 1 --seconds 20 --trace 0 --verbose 1",
            "--workload run-net --seed",
        ] {
            assert!(
                matches!(Options::parse(&args(bad)), Err(Error::Usage(_))),
                "accepted: {bad}"
            );
        }
    }
}
