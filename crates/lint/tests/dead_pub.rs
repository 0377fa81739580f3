//! The `dead-pub` pass on the real workspace plus synthetic files: an
//! item named nowhere outside its library must be flagged, and every kind
//! of outside use must keep it public.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use edgeslice_lint::{
    analyze_source, find_workspace_root, run, workspace_files, Diagnostic, FileSpec,
};

/// A synthetic file: workspace-relative path, crate, source, and whether
/// it is read only for the names it uses.
struct Synth {
    rel: &'static str,
    crate_name: &'static str,
    source: &'static str,
    names_only: bool,
}

const fn lib(rel: &'static str, crate_name: &'static str, source: &'static str) -> Synth {
    Synth {
        rel,
        crate_name,
        source,
        names_only: false,
    }
}

const fn outside(rel: &'static str, source: &'static str) -> Synth {
    Synth {
        rel,
        crate_name: "outside",
        source,
        names_only: true,
    }
}

/// Runs the analyzer over the real workspace plus `synths` and returns the
/// findings attributed to the synthetic files.
fn findings(synths: &[Synth]) -> Vec<Diagnostic> {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("this test runs from inside the workspace");
    let mut specs = workspace_files(&root).expect("workspace sources enumerable");
    let mut paths: Vec<PathBuf> = Vec::new();
    for s in synths {
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!(
            "edgeslice_lint_dead_pub_{}_{n}.rs",
            std::process::id()
        ));
        std::fs::write(&path, s.source).expect("temp file writable");
        specs.push(FileSpec {
            path: path.clone(),
            rel_path: s.rel.into(),
            crate_name: s.crate_name.into(),
            is_crate_root: false,
            deps: None,
            names_only: s.names_only,
        });
        paths.push(path);
    }
    let report = run(&specs).expect("workspace + synthetic readable");
    for p in paths {
        let _ = std::fs::remove_file(p);
    }
    report
        .diagnostics
        .into_iter()
        .filter(|d| synths.iter().any(|s| s.rel == d.file))
        .collect()
}

const CORE_LIB: &str = "crates/core/src/__synth_dead_pub.rs";

fn assert_flags(diags: &[Diagnostic], name: &str) {
    assert_eq!(diags.len(), 1, "{diags:#?}");
    assert_eq!(diags[0].rule, "dead-pub");
    assert_eq!(diags[0].file, CORE_LIB);
    assert!(
        diags[0].message.contains(&format!(
            "`pub fn {name}` is named nowhere outside crate `core`"
        )),
        "{}",
        diags[0].message
    );
}

#[test]
fn an_unused_pub_fn_is_flagged() {
    let diags = findings(&[lib(CORE_LIB, "core", "pub fn synth_never_named() {}\n")]);
    assert_flags(&diags, "synth_never_named");
}

#[test]
fn a_use_in_the_crates_own_tests_does_not_count() {
    let source = "pub fn synth_only_tested() {}\n\n#[cfg(test)]\nmod tests {\n    \
                  #[test]\n    fn t() {\n        super::synth_only_tested();\n    }\n}\n";
    let diags = findings(&[lib(CORE_LIB, "core", source)]);
    assert_flags(&diags, "synth_only_tested");
}

#[test]
fn a_re_export_alone_does_not_count() {
    let diags = findings(&[
        lib(CORE_LIB, "core", "pub fn synth_only_reexported() {}\n"),
        lib(
            "src/__synth_reexport.rs",
            "repro",
            "pub use edgeslice::synth_only_reexported;\n",
        ),
    ]);
    assert_flags(&diags, "synth_only_reexported");
}

#[test]
fn a_call_from_the_crates_own_bin_target_counts() {
    let diags = findings(&[
        lib(
            "crates/bench/src/__synth_dead_pub.rs",
            "bench",
            "pub fn synth_for_a_bin() {}\n",
        ),
        lib(
            "crates/bench/src/bin/__synth_bin.rs",
            "bench",
            "fn main() {\n    edgeslice_bench::synth_for_a_bin();\n}\n",
        ),
    ]);
    assert!(diags.is_empty(), "{diags:#?}");
}

#[test]
fn calls_from_root_tests_and_the_benchmark_count() {
    for rel in ["tests/__synth_test.rs", "benchmark/src/__synth_bench.rs"] {
        let diags = findings(&[
            lib(CORE_LIB, "core", "pub fn synth_used_outside() {}\n"),
            outside(rel, "fn f() {\n    edgeslice::synth_used_outside();\n}\n"),
        ]);
        assert!(diags.is_empty(), "{rel}: {diags:#?}");
    }
}

#[test]
fn a_local_or_a_field_of_the_same_name_does_not_count() {
    let diags = findings(&[
        lib(CORE_LIB, "core", "pub fn synth_shadowed() {}\n"),
        outside(
            "tests/__synth_test.rs",
            "fn f(s: S) -> usize {\n    let synth_shadowed = s.synth_shadowed;\n    \
             S { synth_shadowed }.synth_shadowed + synth_shadowed\n}\n",
        ),
    ]);
    assert_flags(&diags, "synth_shadowed");
}

#[test]
fn a_method_call_a_path_and_a_turbofish_each_count() {
    for source in [
        "fn f(x: X) {\n    x.synth_called();\n}\n",
        "fn f() {\n    let g = edgeslice::Type::synth_called;\n}\n",
        "fn f() {\n    let g = synth_called::<u8>;\n}\n",
    ] {
        let diags = findings(&[
            lib(CORE_LIB, "core", "pub fn synth_called() {}\n"),
            outside("tests/__synth_test.rs", source),
        ]);
        assert!(diags.is_empty(), "{source}: {diags:#?}");
    }
}

#[test]
fn a_const_counts_wherever_its_name_appears() {
    let diags = findings(&[
        lib(CORE_LIB, "core", "pub const SYNTH_LIMIT: usize = 3;\n"),
        outside(
            "tests/__synth_test.rs",
            "fn f() -> [u8; SYNTH_LIMIT] {\n    [0; SYNTH_LIMIT]\n}\n",
        ),
    ]);
    assert!(diags.is_empty(), "{diags:#?}");
}

#[test]
fn a_doc_comment_code_block_counts() {
    let source = "/// ```\n/// edgeslice::synth_in_a_doctest();\n/// ```\n\
                  pub fn synth_in_a_doctest() {}\n";
    let diags = findings(&[lib(CORE_LIB, "core", source)]);
    assert!(diags.is_empty(), "{diags:#?}");
}

#[test]
fn a_justified_allow_suppresses_and_a_needless_one_is_stale() {
    let allowed = "// lint:allow(dead-pub): promised by the README\npub fn synth_allowed() {}\n";
    let diags = findings(&[lib(CORE_LIB, "core", allowed)]);
    assert!(diags.is_empty(), "{diags:#?}");

    let stale = "// lint:allow(dead-pub): promised by the README\npub fn synth_in_use() {}\n";
    let diags = findings(&[
        lib(CORE_LIB, "core", stale),
        outside(
            "tests/__synth_test.rs",
            "fn f() {\n    synth_in_use();\n}\n",
        ),
    ]);
    assert_eq!(diags.len(), 1, "{diags:#?}");
    assert_eq!(diags[0].rule, "suppression-hygiene");
    assert!(
        diags[0].message.contains("suppresses nothing"),
        "{}",
        diags[0].message
    );
}

#[test]
fn analyze_source_never_runs_the_pass() {
    let spec = FileSpec {
        path: PathBuf::from(CORE_LIB),
        rel_path: CORE_LIB.into(),
        crate_name: "core".into(),
        is_crate_root: false,
        deps: None,
        names_only: false,
    };
    let source = "// lint:allow(dead-pub): promised by the README\npub fn synth_a() {}\n\
                  pub fn synth_b() {}\n";
    let (diags, _) = analyze_source(&spec, source);
    assert!(diags.is_empty(), "{diags:#?}");
}
