//! `BENCHMARK.json` and the result line, as data: what `aa` replays and what
//! the sync test holds the binary to.

use std::collections::BTreeMap;
use std::path::Path;

use serde::{Deserialize, Value};

use crate::error::{Error, Result};

/// One workload entry of `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq, Deserialize)]
pub struct WorkloadEntry {
    /// The workload's name.
    pub name: String,
    /// Why it was chosen, one line.
    pub why: String,
}

/// One end-to-end metric entry of `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq, Deserialize)]
pub struct EndToEndEntry {
    /// The metric's name.
    pub name: String,
    /// Its unit.
    pub unit: String,
    /// `"lower"` or `"higher"`.
    pub better: String,
    /// Share of the parent's median by which it may get worse.
    pub bound: f64,
}

/// One per-layer metric entry of `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq, Deserialize)]
pub struct PerLayerEntry {
    /// The metric's name.
    pub name: String,
    /// Its unit.
    pub unit: String,
    /// `"lower"` or `"higher"`.
    pub better: String,
}

/// `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq, Deserialize)]
pub struct Contract {
    /// The program and its arguments.
    pub command: Vec<String>,
    /// Directories that hold the benchmark and nothing else.
    pub paths: Vec<String>,
    /// How long one run measures, seconds.
    pub run_seconds: u64,
    /// The gated workloads.
    pub workloads: Vec<WorkloadEntry>,
    /// The end-to-end metrics with their bounds.
    pub end_to_end: Vec<EndToEndEntry>,
    /// The per-layer metrics.
    pub per_layer: Vec<PerLayerEntry>,
}

impl Contract {
    /// Reads and parses the file at `path`.
    pub fn read(path: &Path) -> Result<Self> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| Error::io(format!("reading {}", path.display()), e))?;
        serde_json::from_str(&text).map_err(|e| Error::program("parsing BENCHMARK.json", e))
    }
}

/// One metric of a result line.
#[derive(Debug, Clone, PartialEq)]
pub struct Reading {
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: String,
}

/// The result line a run ends with.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultLine {
    /// Whether the run's outputs were correct.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Every metric of the run, by name.
    pub metrics: BTreeMap<String, Reading>,
}

impl ResultLine {
    /// Parses the last line of a run's standard output: one JSON object
    /// with exactly the keys `correct`, `attempted`, `failed` and `metrics`.
    pub fn from_stdout(stdout: &str) -> Result<Self> {
        let bad = |what: &str| Error::Program(format!("result line: {what}"));
        let last = stdout
            .lines()
            .next_back()
            .ok_or_else(|| bad("the run printed nothing"))?;
        let value = serde_json::parse_value(last).map_err(|e| Error::program("result line", e))?;
        let Value::Object(fields) = &value else {
            return Err(bad("not an object"));
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        if keys != ["correct", "attempted", "failed", "metrics"] {
            return Err(bad(&format!("keys {keys:?}")));
        }
        let count = |name: &str| match value.get_field(name) {
            Some(Value::Int(n)) => u64::try_from(*n).map_err(|_| bad(name)),
            Some(Value::UInt(n)) => Ok(*n),
            _ => Err(bad(name)),
        };
        let Some(Value::Bool(correct)) = value.get_field("correct") else {
            return Err(bad("correct"));
        };
        let Some(Value::Object(entries)) = value.get_field("metrics") else {
            return Err(bad("metrics"));
        };
        let mut metrics = BTreeMap::new();
        for (name, entry) in entries {
            let reading = match (entry.get_field("value"), entry.get_field("unit")) {
                (Some(Value::Float(v)), Some(Value::Str(unit))) => Reading {
                    value: *v,
                    unit: unit.clone(),
                },
                (Some(Value::Int(v)), Some(Value::Str(unit))) => Reading {
                    value: *v as f64,
                    unit: unit.clone(),
                },
                _ => return Err(bad(&format!("metric `{name}`"))),
            };
            metrics.insert(name.clone(), reading);
        }
        Ok(Self {
            correct: *correct,
            attempted: count("attempted")?,
            failed: count("failed")?,
            metrics,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{END_TO_END, PER_LAYER};
    use crate::sizes::Workload;

    fn contract() -> Contract {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        Contract::read(&path).unwrap()
    }

    /// Every metric and workload name in `BENCHMARK.json` is one the binary
    /// prints, with the same unit and direction — and the other way round.
    #[test]
    fn benchmark_json_and_the_binary_agree() {
        let c = contract();
        let listed: Vec<(&str, &str, &str)> = c
            .end_to_end
            .iter()
            .map(|m| (m.name.as_str(), m.unit.as_str(), m.better.as_str()))
            .collect();
        let printed: Vec<(&str, &str, &str)> = END_TO_END
            .iter()
            .map(|d| (d.name, d.unit, d.better))
            .collect();
        assert_eq!(listed, printed, "end-to-end metrics out of sync");

        let listed: Vec<(&str, &str, &str)> = c
            .per_layer
            .iter()
            .map(|m| (m.name.as_str(), m.unit.as_str(), m.better.as_str()))
            .collect();
        let printed: Vec<(&str, &str, &str)> = PER_LAYER
            .iter()
            .map(|d| (d.name, d.unit, d.better))
            .collect();
        assert_eq!(listed, printed, "per-layer metrics out of sync");

        // Gated workloads are a subset of the binary's (rule T8 may leave a
        // noisy one runnable but ungated), in the binary's order.
        let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        let mut last = None;
        for w in &c.workloads {
            let at = known.iter().position(|k| *k == w.name);
            assert!(at.is_some(), "unknown workload `{}`", w.name);
            assert!(at > last, "workloads out of order at `{}`", w.name);
            last = at;
        }
        assert!(c.workloads.len() >= 2);
    }

    #[test]
    fn benchmark_json_keeps_the_contracts_limits() {
        let c = contract();
        assert_eq!(c.paths, ["benchmark"]);
        assert!((1..=60).contains(&c.run_seconds));
        assert!((2..=8).contains(&c.workloads.len()));
        assert!(c.command.len() <= 32 && c.command.iter().all(|a| a.len() <= 200));
        assert!(c
            .workloads
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        let setup = c.end_to_end.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit.as_str(), setup.better.as_str()), ("s", "lower"));
        for m in &c.end_to_end {
            assert!(
                m.bound > 0.0 && m.bound <= 0.25,
                "{} bound {}",
                m.name,
                m.bound
            );
            assert!(m.bound <= setup.bound, "setup_s has the largest bound");
        }
    }

    #[test]
    fn result_line_round_trips() {
        let line = r#"{"correct": true, "attempted": 1000, "failed": 0, "metrics": {"latency_ms": {"value": 1.2034, "unit": "ms"}, "setup_s": {"value": 0.8127, "unit": "s"}}}"#;
        let parsed = ResultLine::from_stdout(&format!("chatter\n{line}\n")).unwrap();
        assert!(parsed.correct);
        assert_eq!((parsed.attempted, parsed.failed), (1000, 0));
        assert_eq!(parsed.metrics["setup_s"].value, 0.8127);
        assert_eq!(parsed.metrics["latency_ms"].unit, "ms");
        assert!(ResultLine::from_stdout("").is_err());
        assert!(ResultLine::from_stdout("not json").is_err());
    }
}
