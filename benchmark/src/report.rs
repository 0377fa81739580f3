//! What a run prints and writes: the metric tables, the contract's result
//! line and the info file.

use serde::{Serialize, Value};

use crate::deploy::Ops;
use crate::error::{Error, Result};

/// A metric's name, unit and direction, as `BENCHMARK.json` lists them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// The metric's name (final: later PRs are judged by it).
    pub name: &'static str,
    /// Its unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: "lower",
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: "higher",
    }
}

/// The end-to-end metrics, the same four on every workload (`--trace 0`).
pub const END_TO_END: [MetricDef; 4] = [
    lower("setup_s", "s"),
    higher("agent_steps_per_s", "steps/s"),
    lower("cpu_us_per_step", "us"),
    lower("peak_rss_mib", "MiB"),
];

/// The per-layer metrics (`--trace 1`), outside in. A layer that does not
/// run on a workload reads 0 there.
pub const PER_LAYER: [MetricDef; 56] = [
    lower("core.orchestrator.round.us", "us"),
    lower("core.orchestrator.round.p99_us", "us"),
    lower("core.orchestrator.round.unattributed_share", "ratio"),
    lower("core.orchestrator.run_fixed.us", "us"),
    lower("core.orchestrator.new.ms", "ms"),
    lower("core.orchestrator.install_agents.ms", "ms"),
    lower("core.orchestrator.install_agents.default_capacity_ms", "ms"),
    lower(
        "core.orchestrator.install_agents.default_capacity_mib",
        "MiB",
    ),
    lower("core.orchestrator.train_shared.ms", "ms"),
    lower("core.agent.train.us_per_step", "us"),
    lower("core.coordinator.coordination_info.us_per_round", "us"),
    lower("core.coordinator.update_partial.us_per_round", "us"),
    lower("core.env.observe.ns_per_step", "ns"),
    lower("core.agent.decide.ns_per_step", "ns"),
    lower("core.fleet.decide_into.ns_per_step", "ns"),
    lower("core.orchestrator.project_action.ns_per_step", "ns"),
    lower("core.env.advance.ns_per_step", "ns"),
    lower("netsim.dataset.predict_ongrid.ns", "ns"),
    lower("netsim.dataset.predict_offgrid.ns", "ns"),
    lower("netsim.dataset.offgrid_share", "ratio"),
    lower("core.monitor.record.us_per_round", "us"),
    lower("core.monitor.round_queries.us_per_round", "us"),
    lower("core.monitor.round_queries.growth_ns_per_round", "ns"),
    lower("core.monitor.records", "count"),
    lower("core.store.save_run.us_per_call", "us"),
    lower("core.store.save_run.bytes_per_call", "bytes"),
    lower("core.store.save_run.bytes_growth_per_round", "bytes"),
    lower("core.store.latest_run.us_per_call", "us"),
    lower("core.store.fsync_wait_share", "ratio"),
    lower("runtime.frame.encode.ns_per_frame", "ns"),
    lower("runtime.frame.decode.ns_per_frame", "ns"),
    lower("runtime.frame.report_bytes", "bytes"),
    lower("runtime.frame.bytes_per_round", "bytes"),
    lower("runtime.transport.loopback_rtt.ns", "ns"),
    lower("runtime.transport.uds_rtt.ns", "ns"),
    lower("runtime.transport.recv_wait_share", "ratio"),
    lower("runtime.net.run_round.us", "us"),
    lower("runtime.net.run_round.p99_us", "us"),
    lower("runtime.net.establish.ms", "ms"),
    lower("runtime.net.overhead_ratio", "ratio"),
    lower("runtime.engine.null_round.us", "us"),
    lower("rl.ddpg.update.us_per_call", "us"),
    lower("rl.ddpg.explore.ns_per_step", "ns"),
    lower("rl.replay.push.ns_per_step", "ns"),
    lower("rl.replay.sample_into.ns_per_call", "ns"),
    lower("nn.mlp.forward_batch.us", "us"),
    lower("nn.mlp.backward_batch.us", "us"),
    lower("nn.optimizer.adam_step.us", "us"),
    lower("nn.mlp.soft_update.us", "us"),
    lower("nn.matrix.update_flops", "count"),
    lower("nn.mlp.forward_one.ns", "ns"),
    lower("alloc.count_per_step", "count"),
    lower("alloc.bytes_per_step", "bytes"),
    lower("host.speed", "ratio"),
    lower("trace.overhead_ratio", "ratio"),
    lower("trace.reconstruction_ratio", "ratio"),
];

/// Measured values by metric name, in table order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    /// Records `name = value` (the last write wins).
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    /// The value recorded for `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// Lays the values out against `defs`: every metric of the table must
    /// have a finite value and nothing else may be present.
    pub fn against(&self, defs: &[MetricDef]) -> Result<Vec<(MetricDef, f64)>> {
        if let Some((name, _)) = self
            .0
            .iter()
            .find(|(n, _)| defs.iter().all(|d| d.name != *n))
        {
            return Err(Error::Program(format!("metric `{name}` is in no table")));
        }
        defs.iter()
            .map(|def| match self.get(def.name) {
                Some(v) if v.is_finite() => Ok((*def, v)),
                Some(v) => Err(Error::Program(format!("metric `{}` is {v}", def.name))),
                None => Err(Error::Program(format!(
                    "metric `{}` was not measured",
                    def.name
                ))),
            })
            .collect()
    }
}

/// Prints every metric by name and unit, one per line.
pub fn print_metrics(metrics: &[(MetricDef, f64)]) {
    for (def, value) in metrics {
        println!("{:<58} {:>16.6} {}", def.name, value, def.unit);
    }
}

/// The contract's result line: one JSON object with exactly the keys
/// `correct`, `attempted`, `failed` and `metrics`. `correct` is always true:
/// a run whose checks failed prints no line at all.
pub fn result_line(ops: Ops, metrics: &[(MetricDef, f64)]) -> String {
    let metrics = metrics
        .iter()
        .map(|(def, value)| {
            let entry = Value::Object(vec![
                ("value".to_string(), Value::Float(*value)),
                ("unit".to_string(), Value::Str(def.unit.to_string())),
            ]);
            (def.name.to_string(), entry)
        })
        .collect();
    let line = Value::Object(vec![
        ("correct".to_string(), Value::Bool(true)),
        ("attempted".to_string(), Value::UInt(ops.attempted)),
        ("failed".to_string(), Value::UInt(ops.failed)),
        ("metrics".to_string(), Value::Object(metrics)),
    ]);
    serde_json::to_string(&line).expect("a value tree always prints")
}

/// Writes `value` as pretty JSON to `path`.
pub fn write_json<T: Serialize>(path: &std::path::Path, value: &T) -> Result<()> {
    let text =
        serde_json::to_string_pretty(value).map_err(|e| Error::program("printing JSON", e))?;
    std::fs::write(path, text).map_err(|e| Error::io(format!("writing {}", path.display()), e))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut values = Values::default();
        for (i, def) in END_TO_END.iter().enumerate() {
            values.set(def.name, 1.5 + i as f64);
        }
        let metrics = values.against(&END_TO_END).unwrap();
        let line = result_line(
            Ops {
                attempted: 1000,
                failed: 0,
            },
            &metrics,
        );
        assert!(!line.contains('\n'));
        let parsed = serde_json::parse_value(&line).unwrap();
        let Value::Object(fields) = &parsed else {
            panic!("not an object: {line}")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(parsed.get_field("correct"), Some(&Value::Bool(true)));
        assert_eq!(parsed.get_field("attempted"), Some(&Value::Int(1000)));
        let Some(Value::Object(metrics)) = parsed.get_field("metrics") else {
            panic!("no metrics: {line}")
        };
        assert_eq!(metrics.len(), END_TO_END.len());
        let setup = parsed
            .get_field("metrics")
            .unwrap()
            .get_field("setup_s")
            .unwrap();
        assert_eq!(setup.get_field("value"), Some(&Value::Float(1.5)));
        assert_eq!(setup.get_field("unit"), Some(&Value::Str("s".into())));
    }

    #[test]
    fn values_must_cover_the_table_exactly() {
        let mut values = Values::default();
        values.set("setup_s", 1.0);
        assert!(
            values.against(&END_TO_END).is_err(),
            "three metrics missing"
        );
        for def in &END_TO_END {
            values.set(def.name, 2.0);
        }
        assert!(values.against(&END_TO_END).is_ok());
        values.set("peak_rss_mib", f64::NAN);
        assert!(values.against(&END_TO_END).is_err(), "non-finite value");
        values.set("peak_rss_mib", 3.0);
        values.set("host.speed", 1.0);
        assert!(values.against(&END_TO_END).is_err(), "stray metric");
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|d| d.name)
            .collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "duplicate metric name");
        for def in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(def.name.len() <= 64, "{}", def.name);
            assert!(def.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(def
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(def.unit.len() <= 16);
            assert!(def
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }
}
