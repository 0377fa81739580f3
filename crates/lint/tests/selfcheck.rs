//! Self-check: the analyzer runs over the *real* workspace and must come
//! back clean — zero unsuppressed findings, every `lint:allow` justified.
//! This is the same gate CI runs; keeping it as a test means `cargo test`
//! alone proves the tree satisfies its own invariants. The binary is also
//! spawned to pin the exit-code contract (0 clean / 1 findings / 2 usage).

use std::path::{Path, PathBuf};
use std::process::Command;

use edgeslice_lint::{find_workspace_root, run, workspace_files, FileSpec};

fn workspace_root() -> PathBuf {
    find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("this test runs from inside the workspace")
}

#[test]
fn workspace_has_zero_unsuppressed_findings() {
    let root = workspace_root();
    let specs = workspace_files(&root).expect("workspace sources enumerable");
    let report = run(&specs).expect("workspace sources readable");
    assert!(
        report.diagnostics.is_empty(),
        "the tree violates its own invariants:\n{}",
        report.to_text()
    );
    assert!(!report.has_errors());
    // Sanity: the walk actually visited the workspace, not an empty dir.
    assert!(
        report.files_checked > 40,
        "only {} files found — workspace discovery is broken",
        report.files_checked
    );
    // The justified bit-exact comparisons (GEMM zero-skip etc.) must be
    // visible to the audit trail.
    assert!(
        report.suppressions > 0,
        "expected the documented lint:allow sites to be counted"
    );
}

#[test]
fn workspace_walk_covers_the_workload_module() {
    // The dynamic-workload generator rides the determinism rule (it must
    // be a pure function of its seed): prove the walk actually schedules
    // it under the `core` crate identity the scoping keys on.
    let root = workspace_root();
    let specs = workspace_files(&root).expect("workspace sources enumerable");
    assert!(
        specs
            .iter()
            .any(|s| s.rel_path == "crates/core/src/workload.rs" && s.crate_name == "core"),
        "crates/core/src/workload.rs missing from the workspace walk"
    );
}

#[test]
fn workspace_walk_knows_the_crate_graph() {
    // The call graph only follows a call into a crate the caller's crate
    // depends on (transitively), read from the members' manifests.
    let specs = workspace_files(&workspace_root()).expect("workspace sources enumerable");
    let deps_of = |name: &str| {
        specs
            .iter()
            .find(|s| s.crate_name == name)
            .and_then(|s| s.deps.clone())
            .unwrap_or_else(|| panic!("no dependency list for crate {name}"))
    };
    assert!(deps_of("nn").is_empty());
    assert!(deps_of("lint").is_empty());
    assert_eq!(deps_of("rl"), ["nn", "optim"]);
    assert_eq!(deps_of("core"), ["netsim", "nn", "optim", "rl", "runtime"]);
}

#[test]
fn binary_exits_zero_on_the_workspace() {
    let out = Command::new(env!("CARGO_BIN_EXE_edgeslice-lint"))
        .args(["--workspace", "--format", "json"])
        .current_dir(workspace_root())
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "lint failed on the workspace:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let json = String::from_utf8_lossy(&out.stdout);
    assert!(json.contains("\"errors\": 0"), "{json}");
}

#[test]
fn binary_exits_one_on_a_bad_fixture() {
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/panic_policy_bad.rs");
    let out = Command::new(env!("CARGO_BIN_EXE_edgeslice-lint"))
        .args(["--as-crate", "core"])
        .arg(&fixture)
        .output()
        .expect("binary runs");
    assert_eq!(
        out.status.code(),
        Some(1),
        "findings must exit 1:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn binary_exits_two_on_usage_errors() {
    let out = Command::new(env!("CARGO_BIN_EXE_edgeslice-lint"))
        .arg("--no-such-flag")
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let out = Command::new(env!("CARGO_BIN_EXE_edgeslice-lint"))
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2), "no inputs is a usage error");
}

#[test]
fn list_rules_names_every_rule() {
    let out = Command::new(env!("CARGO_BIN_EXE_edgeslice-lint"))
        .arg("--list-rules")
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for rule in [
        "determinism",
        "panic-policy",
        "hot-path-alloc",
        "crate-header",
        "float-eq",
        "rng-stream-separation",
        "frame-protocol",
        "transitive-alloc",
    ] {
        assert!(text.contains(rule), "--list-rules omits {rule}:\n{text}");
    }
}

/// Writes `source` to a temp file masquerading as `rel` inside `crate_name`
/// so the cross-file passes see it next to the real workspace.
fn synth_spec(name: &str, rel: &str, crate_name: &str, source: &str) -> FileSpec {
    let path =
        std::env::temp_dir().join(format!("edgeslice_lint_{}_{name}.rs", std::process::id()));
    std::fs::write(&path, source).expect("temp file writable");
    FileSpec {
        path,
        rel_path: rel.into(),
        crate_name: crate_name.into(),
        is_crate_root: false,
        deps: None,
    }
}

/// Runs the analyzer over the real workspace plus one synthetic file and
/// returns the findings attributed to the synthetic file.
fn run_with_synth(spec: FileSpec) -> Vec<edgeslice_lint::Diagnostic> {
    let root = workspace_root();
    let mut specs = workspace_files(&root).expect("workspace sources enumerable");
    let rel = spec.rel_path.clone();
    let path = spec.path.clone();
    specs.push(spec);
    let report = run(&specs).expect("workspace + synthetic readable");
    let _ = std::fs::remove_file(path);
    report
        .diagnostics
        .into_iter()
        .filter(|d| d.file == rel)
        .collect()
}

#[test]
fn duplicating_a_real_stream_tag_is_caught_workspace_wide() {
    // Acceptance scenario (i): a second constant carrying the value of a
    // real stream tag must collide with it. The value is read out of the
    // real workload module so the pin survives renumbering.
    let workload = std::fs::read_to_string(workspace_root().join("crates/core/src/workload.rs"))
        .expect("workload module readable");
    let value = workload
        .lines()
        .find(|l| l.contains("WORKLOAD_STREAM_TAG") && l.contains('='))
        .and_then(|l| l.split('=').nth(1))
        .map(|v| v.trim().trim_end_matches(';').trim().to_string())
        .expect("WORKLOAD_STREAM_TAG declared in workload.rs");
    let source = format!("const SYNTH_STREAM_TAG: u64 = {value};\n");
    let diags = run_with_synth(synth_spec(
        "dup_tag",
        "crates/core/src/__synth_tag.rs",
        "core",
        &source,
    ));
    assert_eq!(diags.len(), 1, "{diags:#?}");
    assert_eq!(diags[0].rule, "rng-stream-separation");
    assert!(
        diags[0].message.contains("WORKLOAD_STREAM_TAG"),
        "{}",
        diags[0].message
    );
}

#[test]
fn a_partial_frame_match_is_caught_against_the_real_enum() {
    // Acceptance scenario (ii): a match handling only two variants must
    // be reported missing the other eight of the *real* `WireMsg`.
    let source = "fn peek(msg: WireMsg) -> bool {\n    match msg {\n        \
                  WireMsg::Round(_) => true,\n        WireMsg::Hello { .. } => false,\n    }\n}\n";
    let diags = run_with_synth(synth_spec(
        "partial_match",
        "crates/runtime/src/__synth_frame.rs",
        "runtime",
        source,
    ));
    assert_eq!(diags.len(), 1, "{diags:#?}");
    assert_eq!(diags[0].rule, "frame-protocol");
    for variant in ["Report", "Down", "RegisterAck"] {
        assert!(
            diags[0].message.contains(variant),
            "missing-variant list omits {variant}: {}",
            diags[0].message
        );
    }
}

#[test]
fn a_deep_allocation_under_a_hot_fn_is_caught() {
    // Acceptance scenario (iii): an allocation two calls below an
    // `_into` fn, with the real workspace in scope.
    let source = "pub fn synth_pack_into(out: &mut [f64]) {\n    helper_a(out);\n}\n\
                  fn helper_a(out: &mut [f64]) {\n    helper_b(out);\n}\n\
                  fn helper_b(out: &mut [f64]) {\n    let v = vec![0.0; 4];\n    \
                  out[0] = v[0];\n}\n";
    let diags = run_with_synth(synth_spec(
        "deep_alloc",
        "crates/nn/src/__synth_alloc.rs",
        "nn",
        source,
    ));
    assert_eq!(diags.len(), 1, "{diags:#?}");
    assert_eq!(diags[0].rule, "transitive-alloc");
    assert!(
        diags[0].message.contains("`helper_a` → `helper_b`"),
        "{}",
        diags[0].message
    );
}
