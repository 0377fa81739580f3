//! Golden-fixture tests: each rule has a *bad* fixture that must fire and
//! a *clean* counterpart that must stay silent. Fixtures live under
//! `tests/fixtures/` and are lexed, never compiled, so they can hold the
//! exact anti-patterns the rules ban.

use std::path::PathBuf;

use edgeslice_lint::{analyze_source, run, Diagnostic, FileSpec};

/// Reads `tests/fixtures/<name>` and analyzes it under the given crate
/// identity, returning `(unsuppressed diagnostics, suppression count)`.
fn analyze_fixture(name: &str, crate_name: &str) -> (Vec<Diagnostic>, usize) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let source = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("fixture {} unreadable: {e}", path.display()));
    let spec = FileSpec {
        path,
        rel_path: format!("crates/{crate_name}/src/{name}"),
        crate_name: crate_name.into(),
        deps: None,
        names_only: false,
    };
    analyze_source(&spec, &source)
}

/// Asserts every diagnostic carries `rule` and that there are `at_least`
/// of them.
fn assert_all_rule(diags: &[Diagnostic], rule: &str, at_least: usize) {
    assert!(
        diags.len() >= at_least,
        "expected >= {at_least} `{rule}` findings, got {}: {diags:#?}",
        diags.len()
    );
    for d in diags {
        assert_eq!(d.rule, rule, "unexpected rule in {d}");
    }
}

#[test]
fn panic_policy_bad_fires_per_construct() {
    let (diags, _) = analyze_fixture("panic_policy_bad.rs", "core");
    assert_all_rule(&diags, "panic-policy", 2);
    for needle in ["[0]", ".expect()"] {
        assert!(
            diags.iter().any(|d| d.message.contains(needle)),
            "no finding mentions {needle}: {diags:#?}"
        );
    }
}

#[test]
fn panic_policy_clean_is_silent() {
    let (diags, _) = analyze_fixture("panic_policy_clean.rs", "core");
    assert!(diags.is_empty(), "{diags:#?}");
}

#[test]
fn hot_path_alloc_bad_fires_in_all_families() {
    let (diags, _) = analyze_fixture("hot_path_alloc_bad.rs", "nn");
    assert_all_rule(&diags, "hot-path-alloc", 8);
    assert!(diags.iter().any(|d| d.message.contains("scaled_copy_into")));
    assert!(diags.iter().any(|d| d.message.contains("gather_scratch")));
    assert!(diags.iter().any(|d| d.message.contains("forward_row")));
    // The PR 9 kernel families are covered too.
    assert!(diags
        .iter()
        .any(|d| d.message.contains("matmul_rows_blocked")));
    assert!(diags.iter().any(|d| d.message.contains("pack_b_panel")));
    assert!(diags
        .iter()
        .any(|d| d.message.contains("accumulate_row_panel")));
}

#[test]
fn hot_path_alloc_clean_is_silent() {
    let (diags, _) = analyze_fixture("hot_path_alloc_clean.rs", "nn");
    assert!(diags.is_empty(), "{diags:#?}");
}

#[test]
fn frame_protocol_bad_fires_on_both_wildcards() {
    let (diags, _) = analyze_fixture("frame_protocol_bad.rs", "runtime");
    assert_all_rule(&diags, "frame-protocol", 2);
    assert_eq!(diags.len(), 2, "{diags:#?}");
    assert!(diags.iter().all(|d| d.message.contains("wildcard arm")));
}

#[test]
fn frame_protocol_clean_is_silent() {
    let (diags, _) = analyze_fixture("frame_protocol_clean.rs", "runtime");
    assert!(diags.is_empty(), "{diags:#?}");
}

#[test]
fn transitive_alloc_bad_fires_two_calls_down() {
    // Acceptance scenario: an allocation two calls below an `_into` fn.
    let (diags, _) = analyze_fixture("transitive_alloc_bad.rs", "nn");
    assert_all_rule(&diags, "transitive-alloc", 1);
    assert!(diags[0].message.contains("scale_rows_into"));
    assert!(diags[0].message.contains("`stage_one` → `stage_two`"));
    assert!(diags[0].message.contains(".to_vec()"));
}

#[test]
fn transitive_alloc_follows_a_core_into_fn_two_calls_down() {
    // The agent step's families: `core` (with `netsim` and `optim` under
    // it) is a hot-path crate, so a `Vec` two calls below a `core`
    // `*_into` fn is reported, with its chain.
    let (diags, _) = analyze_fixture("transitive_alloc_core_bad.rs", "core");
    assert_all_rule(&diags, "transitive-alloc", 1);
    assert_eq!(diags.len(), 1, "{diags:#?}");
    assert!(diags[0].message.contains("advance_into"));
    assert!(diags[0].message.contains("`service_time` → `fit_cell`"));
    assert!(diags[0].message.contains("Vec::new()"));
    for hot in ["netsim", "optim"] {
        let (diags, _) = analyze_fixture("transitive_alloc_core_bad.rs", hot);
        assert_all_rule(&diags, "transitive-alloc", 1);
    }
}

#[test]
fn transitive_alloc_clean_is_silent() {
    let (diags, _) = analyze_fixture("transitive_alloc_clean.rs", "nn");
    assert!(diags.is_empty(), "{diags:#?}");
}

#[test]
fn transitive_alloc_is_scoped_to_the_hot_crates() {
    let (diags, _) = analyze_fixture("transitive_alloc_bad.rs", "bench");
    assert!(diags.is_empty(), "{diags:#?}");
}

#[test]
fn transitive_alloc_resolves_a_nested_helper_in_its_scope() {
    // A helper `fn run` nested in a method's body used to be indexed as a
    // method of the surrounding `impl`, so the free call `run(..)` fell
    // through to the same-named, allocating module-level item.
    let (diags, _) = analyze_fixture("transitive_alloc_nested_fn_clean.rs", "nn");
    assert!(diags.is_empty(), "{diags:#?}");
}

#[test]
fn transitive_alloc_follows_turbofish_calls() {
    let (diags, _) = analyze_fixture("transitive_alloc_turbofish_bad.rs", "nn");
    assert_all_rule(&diags, "transitive-alloc", 1);
    assert_eq!(diags.len(), 1, "{diags:#?}");
    assert!(diags[0].message.contains("accumulate_into"));
    assert!(diags[0].message.contains("`tile` does `.to_vec()`"));
}

#[test]
fn transitive_alloc_exempts_a_once_per_memo_initializer() {
    let (diags, _) = analyze_fixture("transitive_alloc_once_init_clean.rs", "nn");
    assert!(diags.is_empty(), "{diags:#?}");
}

#[test]
fn transitive_alloc_never_resolves_into_a_crate_outside_the_dependency_graph() {
    // Analyzed together, as the workspace walk would: `nn` depends on no
    // workspace crate, so its free call cannot land in `lint`.
    let spec = |name: &str, crate_name: &str| FileSpec {
        path: PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("tests/fixtures")
            .join(name),
        rel_path: format!("crates/{crate_name}/src/{name}"),
        crate_name: crate_name.into(),
        deps: Some(Vec::new()),
        names_only: false,
    };
    let specs = [
        spec("transitive_alloc_dep_graph_clean.rs", "nn"),
        spec("transitive_alloc_dep_graph_other.rs", "lint"),
    ];
    let report = run(&specs).expect("fixtures readable");
    assert!(report.diagnostics.is_empty(), "{:#?}", report.diagnostics);
}

#[test]
fn stale_suppression_bad_fires() {
    let (diags, sups) = analyze_fixture("stale_suppression_bad.rs", "optim");
    assert_all_rule(&diags, "suppression-hygiene", 1);
    assert!(
        diags[0].message.contains("suppresses nothing"),
        "{}",
        diags[0].message
    );
    assert_eq!(sups, 1);
}

#[test]
fn stale_suppression_clean_is_silent() {
    let (diags, sups) = analyze_fixture("stale_suppression_clean.rs", "optim");
    assert!(diags.is_empty(), "{diags:#?}");
    assert_eq!(sups, 1);
}
