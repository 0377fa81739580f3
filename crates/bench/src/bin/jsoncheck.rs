//! CI helper: asserts a benchmark JSON artifact parses and, optionally,
//! that a top-level numeric field clears a minimum.
//!
//! Usage: `jsoncheck <path> [<field> [<min>]]`
//!    or: `jsoncheck --runtime <path>`
//!    or: `jsoncheck --churn <path>`
//!
//! - With just `<path>`: the file must be valid JSON.
//! - With `<field>`: the document must be an object with that top-level
//!   field, and the field must be a finite number.
//! - With `<min>`: additionally `field >= min` (default 1.0).
//! - With `--runtime`: the document must match the runtime-scaling schema —
//!   worker counts ≥ 1, finite positive timings in both the `sequential`
//!   and `threaded` sub-objects, finite positive speedups, and
//!   `reports_bit_identical` true.
//! - With `--churn`: the document must match the churn schema —
//!   `n_levels` ≥ 1 and equal to `levels[]`'s length, and every level
//!   carrying consistent admission counters (`admitted + rejected <=
//!   slots`) and an `sla_violation_rate` in `[0, 1]`.
//!
//! Exits 2 with a usage message on a malformed invocation; any schema
//! violation panics, which is exactly what a CI step wants.

#![cfg_attr(not(test), deny(clippy::float_cmp))]

use serde::Value;

const USAGE: &str = "usage: jsoncheck <path> [<field> [<min>]]\n\
       jsoncheck --runtime <path>\n\
       jsoncheck --churn <path>";

/// Prints the usage banner and exits 2 — a malformed *invocation*, as
/// opposed to a failed *check* (which panics with the violation).
fn usage_exit(why: &str) -> ! {
    eprintln!("jsoncheck: {why}\n{USAGE}");
    std::process::exit(2);
}

fn numeric(v: &Value) -> Option<f64> {
    match v {
        Value::Int(i) => Some(*i as f64),
        Value::UInt(u) => Some(*u as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

/// Whether `n` is a count: whole and non-negative. Exact on purpose:
/// `fract()` of a whole number is exactly 0.0.
fn is_count(n: f64) -> bool {
    n >= 0.0 && n.fract() == 0.0
}

/// A required top-level numeric field; panics with a field-specific
/// message when it is missing, non-numeric, or not finite.
fn require_numeric(path: &str, doc: &Value, field: &str) -> f64 {
    let v = doc
        .get_field(field)
        .unwrap_or_else(|| panic!("{path}: missing field {field:?}"));
    let n = numeric(v).unwrap_or_else(|| panic!("{path}: field {field:?} is not numeric"));
    assert!(n.is_finite(), "{path}: field {field:?} is not finite");
    n
}

/// Validates the runtime-scaling artifact schema (see module docs).
fn check_runtime(path: &str, doc: &Value) {
    for field in ["host_parallelism", "threaded_workers"] {
        let n = require_numeric(path, doc, field);
        assert!(n >= 1.0, "{path}: {field} = {n} must be >= 1");
    }
    for section in ["sequential", "threaded"] {
        let sub = doc
            .get_field(section)
            .unwrap_or_else(|| panic!("{path}: missing object {section:?}"));
        for field in ["train_s", "run_s", "run_rounds_per_s"] {
            let n = require_numeric(path, sub, field);
            assert!(n > 0.0, "{path}: {section}.{field} = {n} must be positive");
        }
    }
    for field in ["train_speedup", "run_speedup"] {
        let n = require_numeric(path, doc, field);
        assert!(n > 0.0, "{path}: {field} = {n} must be positive");
    }
    let identical = doc
        .get_field("reports_bit_identical")
        .unwrap_or_else(|| panic!("{path}: missing field \"reports_bit_identical\""));
    assert!(
        matches!(identical, Value::Bool(true)),
        "{path}: reports_bit_identical must be true, got {identical:?}"
    );
    println!(
        "{path}: runtime schema ok — run x{:.2}, reports bit-identical",
        require_numeric(path, doc, "run_speedup")
    );
}

/// Validates the churn artifact schema (see module docs).
fn check_churn(path: &str, doc: &Value) {
    let n_levels = require_numeric(path, doc, "n_levels");
    assert!(
        is_count(n_levels) && n_levels >= 1.0,
        "{path}: n_levels = {n_levels} must be a whole count >= 1"
    );
    let levels = doc
        .get_field("levels")
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("{path}: missing or non-array field \"levels\""));
    assert!(
        levels.len() == n_levels as usize,
        "{path}: n_levels = {n_levels} but levels[] holds {} entries",
        levels.len()
    );
    for (i, level) in levels.iter().enumerate() {
        let label = match level.get_field("label") {
            Some(Value::Str(s)) => s.clone(),
            _ => panic!("{path}: levels[{i}] has no string \"label\" field"),
        };
        let rate = require_numeric(path, level, "arrival_rate");
        assert!(
            rate > 0.0,
            "{path}: levels[{i}] ({label}): arrival_rate = {rate} must be positive"
        );
        for field in ["slots", "admitted", "rejected", "departed", "resizes"] {
            let n = require_numeric(path, level, field);
            assert!(
                is_count(n),
                "{path}: levels[{i}] ({label}): {field} = {n} must be a non-negative count"
            );
        }
        let slots = require_numeric(path, level, "slots");
        let admitted = require_numeric(path, level, "admitted");
        let rejected = require_numeric(path, level, "rejected");
        assert!(
            admitted + rejected <= slots,
            "{path}: levels[{i}] ({label}): admitted {admitted} + rejected {rejected} \
             exceeds slots {slots}"
        );
        let sla = require_numeric(path, level, "sla_violation_rate");
        assert!(
            (0.0..=1.0).contains(&sla),
            "{path}: levels[{i}] ({label}): sla_violation_rate = {sla} outside [0, 1]"
        );
        for field in ["mean_active_performance", "tail_system_performance"] {
            require_numeric(path, level, field);
        }
    }
    println!(
        "{path}: churn schema ok — {} arrival levels consistent",
        levels.len()
    );
}

/// Which structural schema a flag selects.
enum Mode {
    Plain,
    Runtime,
    Churn,
}

fn main() {
    let mut args = std::env::args().skip(1);
    let first = match args.next() {
        Some(a) => a,
        None => usage_exit("missing arguments"),
    };
    let (mode, path) = match first.as_str() {
        "--runtime" | "--churn" => {
            let mode = match first.as_str() {
                "--runtime" => Mode::Runtime,
                _ => Mode::Churn,
            };
            match args.next() {
                Some(p) => (mode, p),
                None => usage_exit(&format!("{first} takes a path")),
            }
        }
        f if f.starts_with("--") && f != "--" => usage_exit(&format!("unknown flag {f}")),
        _ => (Mode::Plain, first),
    };
    let field = args.next();
    let min: f64 = match args.next() {
        Some(m) => match m.parse() {
            Ok(v) => v,
            Err(_) => usage_exit(&format!("<min> must be a number, got {m:?}")),
        },
        None => 1.0,
    };
    if args.next().is_some() {
        usage_exit("too many arguments");
    }

    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
    let value = serde_json::parse_value(&text)
        .unwrap_or_else(|e| panic!("{path} is not valid JSON: {e:?}"));
    println!("{path}: parses");

    match mode {
        Mode::Runtime => {
            if field.is_some() {
                usage_exit("--runtime takes no extra arguments");
            }
            check_runtime(&path, &value);
            return;
        }
        Mode::Churn => {
            if field.is_some() {
                usage_exit("--churn takes no extra arguments");
            }
            check_churn(&path, &value);
            return;
        }
        Mode::Plain => {}
    }

    if let Some(field) = field {
        let Value::Object(fields) = &value else {
            panic!("{path}: top level is not an object");
        };
        let found = fields
            .iter()
            .find(|(k, _)| *k == field)
            .unwrap_or_else(|| panic!("{path}: missing field {field:?}"));
        let n =
            numeric(&found.1).unwrap_or_else(|| panic!("{path}: field {field:?} is not numeric"));
        assert!(n.is_finite(), "{path}: field {field:?} is not finite");
        assert!(
            n >= min,
            "{path}: {field} = {n} is below the required minimum {min}"
        );
        println!("{path}: {field} = {n} >= {min}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A churn document whose `levels[]` holds two consistent levels.
    fn churn_doc(n_levels: &str) -> Value {
        let level = r#"{"label": "x", "arrival_rate": 1.0, "slots": 4, "admitted": 2,
            "rejected": 1, "departed": 1, "resizes": 0, "sla_violation_rate": 0.5,
            "mean_active_performance": 1.0, "tail_system_performance": 1.0}"#;
        let text = format!(r#"{{"n_levels": {n_levels}, "levels": [{level}, {level}]}}"#);
        serde_json::parse_value(&text).expect("test document parses")
    }

    #[test]
    fn churn_accepts_a_whole_level_count() {
        check_churn("doc", &churn_doc("2"));
    }

    #[test]
    #[should_panic(expected = "n_levels = 2.5 must be a whole count")]
    fn churn_rejects_a_fractional_level_count() {
        // `2.5 as usize` is 2, the length of `levels[]`: only the count
        // check stands between this document and a pass.
        check_churn("doc", &churn_doc("2.5"));
    }
}
