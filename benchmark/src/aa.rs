//! `aa`: the A/A self-check the metric bounds rest on.
//!
//! Replays what the acceptance check does — the `BENCHMARK.json` command,
//! one process per run, N seeds per workload, twice — on unchanged code, and
//! holds every end-to-end metric, `setup_s` included, to rule T8: in each
//! set the inter-quartile range over the median stays within half the
//! metric's bound, and the two sets' medians differ by at most half the
//! bound. Next to each normalised time metric it prints the raw one (from
//! the runs' info files), so that normalisation has to earn its place, and
//! `host.speed` per run, so that a noisy spell is visible.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

use serde::{Deserialize, Serialize};

use crate::app::info_path;
use crate::contract::{Contract, EndToEndEntry, ResultLine};
use crate::error::{Error, Result};
use crate::stats::{iqr_over_median, median};

/// Sets of runs per workload: the acceptance check compares two.
const SETS: usize = 2;

/// Seed of the first run of every set; run `i` uses `FIRST_SEED + i`.
const FIRST_SEED: u64 = 1;

/// The `aa` command line. The workloads are those `BENCHMARK.json` gates.
#[derive(Debug, Clone, PartialEq)]
pub struct AaOptions {
    /// Runs (different seeds) per set.
    pub runs: usize,
    /// Where `BENCHMARK.json` is.
    pub contract: PathBuf,
    /// Where the runs write their info files (the command's default).
    pub out_dir: PathBuf,
}

/// The usage text.
pub const USAGE: &str =
    "aa [--runs 10] [--benchmark BENCHMARK.json] — run from the repository root";

impl AaOptions {
    /// Parses the arguments after the program name.
    pub fn parse(args: &[String]) -> Result<Self> {
        let usage = |msg: String| Error::Usage(format!("{msg}\n  {USAGE}"));
        let mut opts = Self {
            runs: 10,
            contract: PathBuf::from("BENCHMARK.json"),
            out_dir: PathBuf::from("benchmark/out"),
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it
                .next()
                .ok_or_else(|| usage(format!("`{flag}` needs a value")))?;
            let bad = || usage(format!("bad value `{value}` for `{flag}`"));
            match flag.as_str() {
                "--runs" => opts.runs = value.parse().ok().filter(|&n| n >= 2).ok_or_else(bad)?,
                "--benchmark" => opts.contract = PathBuf::from(value),
                _ => return Err(usage(format!("unknown argument `{flag}`"))),
            }
        }
        Ok(opts)
    }
}

/// The parts of a run's info file `aa` reads.
#[derive(Debug, Deserialize)]
struct InfoFile {
    steps_per_block: usize,
    host_factor: InfoHostFactor,
    blocks: Vec<InfoPoint>,
    setups: Vec<InfoPoint>,
}

#[derive(Debug, Deserialize)]
struct InfoHostFactor {
    p50: f64,
}

#[derive(Debug, Deserialize)]
struct InfoPoint {
    raw: InfoRaw,
}

#[derive(Debug, Deserialize)]
struct InfoRaw {
    wall_s: f64,
    cpu_s: f64,
}

/// One run.
#[derive(Debug, Clone, Serialize)]
pub struct RunRow {
    /// The run's `--seed`.
    pub seed: u64,
    /// Median host factor over the run's blocks.
    pub host_speed: f64,
    /// The run's metrics, normalised (the result line) and, under
    /// `raw.<name>`, the same three time metrics from raw medians.
    pub metrics: BTreeMap<String, f64>,
}

/// One metric of one workload, judged.
#[derive(Debug, Clone, Serialize)]
pub struct Judgement {
    /// The workload.
    pub workload: String,
    /// The metric (`raw.<name>` rows are shown, never judged).
    pub metric: String,
    /// The metric's bound (`None` for raw rows).
    pub bound: Option<f64>,
    /// Each set's median.
    pub medians: Vec<f64>,
    /// Each set's IQR over median.
    pub spreads: Vec<f64>,
    /// Largest |difference| between two sets' medians, as a share of the first.
    pub drift: f64,
    /// Whether rule T8 holds (always true for raw rows).
    pub ok: bool,
}

fn run_once(
    contract: &Contract,
    workload: &str,
    set: usize,
    seed: u64,
    out_dir: &Path,
) -> Result<RunRow> {
    let (program, args) = contract
        .command
        .split_first()
        .ok_or_else(|| Error::Program("BENCHMARK.json has an empty command".into()))?;
    let output = Command::new(program)
        .args(args)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &contract.run_seconds.to_string(),
            "--trace",
            "0",
        ])
        .output()
        .map_err(|e| Error::io(format!("starting `{program}`"), e))?;
    if !output.status.success() {
        return Err(Error::Program(format!(
            "{workload} seed {seed} exited with {}: {}",
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        )));
    }
    let line = ResultLine::from_stdout(&String::from_utf8_lossy(&output.stdout))?;
    if !line.correct || line.failed > 0 {
        return Err(Error::Program(format!(
            "{workload} seed {seed}: correct {} failed {} of {}",
            line.correct, line.failed, line.attempted
        )));
    }
    let mut metrics: BTreeMap<String, f64> = line
        .metrics
        .into_iter()
        .map(|(name, reading)| (name, reading.value))
        .collect();

    let path = info_path(out_dir, workload, "");
    let text = std::fs::read_to_string(&path)
        .map_err(|e| Error::io(format!("reading {}", path.display()), e))?;
    // The next run overwrites the info file: keep every run's (the block
    // series and calibration parts behind any later look at α).
    let kept = out_dir.join("aa");
    std::fs::create_dir_all(&kept)
        .and_then(|()| {
            std::fs::write(
                kept.join(format!("info-{workload}-set{}-seed{seed}.json", set + 1)),
                &text,
            )
        })
        .map_err(|e| Error::io(format!("writing under {}", kept.display()), e))?;
    let info: InfoFile =
        serde_json::from_str(&text).map_err(|e| Error::program("parsing the info file", e))?;
    let of = |points: &[InfoPoint], f: fn(&InfoRaw) -> f64| -> f64 {
        median(&points.iter().map(|p| f(&p.raw)).collect::<Vec<_>>())
    };
    let steps = info.steps_per_block as f64;
    metrics.insert("raw.setup_s".into(), of(&info.setups, |r| r.wall_s));
    metrics.insert(
        "raw.agent_steps_per_s".into(),
        steps / of(&info.blocks, |r| r.wall_s),
    );
    metrics.insert(
        "raw.cpu_us_per_step".into(),
        of(&info.blocks, |r| r.cpu_s) / steps * 1e6,
    );
    Ok(RunRow {
        seed,
        host_speed: info.host_factor.p50,
        metrics,
    })
}

fn judge(
    workload: &str,
    entry: Option<&EndToEndEntry>,
    metric: &str,
    sets: &[Vec<RunRow>],
) -> Judgement {
    let column =
        |set: &Vec<RunRow>| -> Vec<f64> { set.iter().map(|r| r.metrics[metric]).collect() };
    let medians: Vec<f64> = sets.iter().map(|s| median(&column(s))).collect();
    let spreads: Vec<f64> = sets.iter().map(|s| iqr_over_median(&column(s))).collect();
    let (lo, hi) = medians
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &m| {
            (lo.min(m), hi.max(m))
        });
    let drift = (hi - lo) / medians[0].abs();
    let bound = entry.map(|e| e.bound);
    let ok = bound.is_none_or(|b| spreads.iter().all(|&s| s <= b / 2.0) && drift <= b / 2.0);
    Judgement {
        workload: workload.to_string(),
        metric: metric.to_string(),
        bound,
        medians,
        spreads,
        drift,
        ok,
    }
}

/// Everything `aa` measured and concluded.
#[derive(Debug, Serialize)]
pub struct AaReport {
    /// `runs[workload][set]` = the set's runs.
    pub runs: BTreeMap<String, Vec<Vec<RunRow>>>,
    /// One row per workload and metric.
    pub judgements: Vec<Judgement>,
}

/// Runs the A/A check; `Ok(report)` even when a judgement fails (see
/// [`Judgement::ok`]).
pub fn run(opts: &AaOptions) -> Result<AaReport> {
    let contract = Contract::read(&opts.contract)?;
    let workloads: Vec<String> = contract.workloads.iter().map(|w| w.name.clone()).collect();
    let mut runs: BTreeMap<String, Vec<Vec<RunRow>>> = BTreeMap::new();
    for set in 0..SETS {
        for workload in &workloads {
            let mut rows = Vec::with_capacity(opts.runs);
            for i in 0..opts.runs {
                let seed = FIRST_SEED + i as u64;
                let row = run_once(&contract, workload, set, seed, &opts.out_dir)?;
                println!(
                    "set {} {workload:<12} seed {:<3} host.speed {:.3}  {}",
                    set + 1,
                    row.seed,
                    row.host_speed,
                    contract
                        .end_to_end
                        .iter()
                        .map(|m| format!("{} {:.4}", m.name, row.metrics[&m.name]))
                        .collect::<Vec<_>>()
                        .join("  ")
                );
                rows.push(row);
            }
            runs.entry(workload.clone()).or_default().push(rows);
        }
    }

    let mut judgements = Vec::new();
    for workload in &workloads {
        let sets = &runs[workload];
        for entry in &contract.end_to_end {
            judgements.push(judge(workload, Some(entry), &entry.name, sets));
            let raw = format!("raw.{}", entry.name);
            if sets[0][0].metrics.contains_key(&raw) {
                judgements.push(judge(workload, None, &raw, sets));
            }
        }
    }
    Ok(AaReport { runs, judgements })
}

/// Prints the judgement table (Markdown, as the README holds it).
pub fn print_table(report: &AaReport) {
    let sets = report.judgements.first().map_or(0, |j| j.medians.len());
    let mut head = String::from("| workload | metric | bound |");
    let mut rule = String::from("|---|---|---|");
    for s in 1..=sets {
        head += &format!(" set {s} median | set {s} IQR/median |");
        rule += "---|---|";
    }
    println!("{head} drift | T8 |");
    println!("{rule}---|---|");
    for j in &report.judgements {
        let mut row = format!(
            "| {} | {} | {} |",
            j.workload,
            j.metric,
            j.bound.map_or_else(|| "—".to_string(), |b| format!("{b}"))
        );
        for (m, s) in j.medians.iter().zip(&j.spreads) {
            row += &format!(" {m:.4} | {:.2} % |", s * 100.0);
        }
        let verdict = match (j.bound, j.ok) {
            (None, _) => "",
            (Some(_), true) => "ok",
            (Some(_), false) => "FAIL",
        };
        println!("{row} {:.2} % | {verdict} |", j.drift * 100.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(values: &[f64]) -> Vec<RunRow> {
        values
            .iter()
            .enumerate()
            .map(|(i, &v)| RunRow {
                seed: i as u64,
                host_speed: 1.0,
                metrics: BTreeMap::from([("m".to_string(), v)]),
            })
            .collect()
    }

    fn entry(bound: f64) -> EndToEndEntry {
        EndToEndEntry {
            name: "m".into(),
            unit: "s".into(),
            better: "lower".into(),
            bound,
        }
    }

    #[test]
    fn rule_t8_bounds_spread_and_drift_at_half_the_bound() {
        let steady: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i) * 0.2).collect();
        let shifted: Vec<f64> = steady.iter().map(|v| v * 1.04).collect();
        // Same median as `steady`, six times the spread.
        let noisy: Vec<f64> = (0..10).map(|i| 87.4 + f64::from(i) * 3.0).collect();

        let same = judge("w", Some(&entry(0.2)), "m", &[rows(&steady), rows(&steady)]);
        assert!(same.ok && same.drift == 0.0);
        let drifted = judge(
            "w",
            Some(&entry(0.2)),
            "m",
            &[rows(&steady), rows(&shifted)],
        );
        assert!(drifted.ok, "4 % drift is within half of 20 %");
        let tight = judge(
            "w",
            Some(&entry(0.05)),
            "m",
            &[rows(&steady), rows(&shifted)],
        );
        assert!(!tight.ok, "4 % drift is beyond half of 5 %");
        let wide = judge("w", Some(&entry(0.2)), "m", &[rows(&steady), rows(&noisy)]);
        assert!(
            !wide.ok,
            "one noisy set fails the spread rule: {:?}",
            wide.spreads
        );
        let raw = judge("w", None, "m", &[rows(&steady), rows(&noisy)]);
        assert!(
            raw.ok && raw.bound.is_none(),
            "raw rows are shown, never judged"
        );
    }

    #[test]
    fn parses_its_command_line() {
        let args = |s: &str| -> Vec<String> { s.split_whitespace().map(String::from).collect() };
        let o = AaOptions::parse(&args("--runs 5 --benchmark x/BENCHMARK.json")).unwrap();
        assert_eq!(o.runs, 5);
        assert_eq!(o.contract, PathBuf::from("x/BENCHMARK.json"));
        assert!(AaOptions::parse(&args("--runs 1")).is_err());
        assert!(AaOptions::parse(&args("--runs")).is_err());
        assert!(AaOptions::parse(&args("--sets 3")).is_err());
    }
}
