//! Workspace discovery and the three-phase analysis pipeline the binary
//! and the tests share:
//!
//! 1. **Scan** — per file, embarrassingly parallel: read, lex, parse
//!    suppressions, run the local rules, build the item-level parse.
//! 2. **Graph** — sequential over the scan results: `transitive-alloc`
//!    runs on the workspace symbol table / call graph; on the workspace
//!    walk, `dead-pub` also runs on the names every file uses.
//! 3. **Filter** — suppressions are applied to the combined finding set
//!    while tracking which allows actually fired; a justified allow that
//!    suppresses nothing is itself a `suppression-hygiene` error (stale
//!    suppressions are drift, and drift is what this analyzer exists to
//!    catch). Diagnostics leave in stable `(file, line, rule, message)`
//!    order.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::dead_pub::{dead_pub, Names};
use crate::diag::{
    json_escape, parse_suppressions, suppression_covers, Diagnostic, Severity, Suppression,
};
use crate::graph::{transitive_alloc, Unit};
use crate::lexer::lex;
use crate::parse::{parse, ParsedFile};
use crate::rules::{cross_registry, registry, SourceFile, DEAD_PUB, SUPPRESSION_HYGIENE};

/// A fatal analyzer error (not a lint finding): bad workspace root,
/// unreadable file.
#[derive(Debug)]
pub enum LintError {
    /// No `Cargo.toml` with a `[workspace]` section was found walking up
    /// from the start directory.
    WorkspaceNotFound(PathBuf),
    /// A source file could not be read.
    Io(PathBuf, io::Error),
}

impl fmt::Display for LintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LintError::WorkspaceNotFound(p) => {
                write!(f, "no workspace Cargo.toml found above {}", p.display())
            }
            LintError::Io(p, e) => write!(f, "cannot read {}: {e}", p.display()),
        }
    }
}

impl std::error::Error for LintError {}

/// The analysis result over a set of files.
#[derive(Debug, Default)]
pub struct Report {
    /// Unsuppressed findings, in `(file, line, rule, message)` order.
    pub diagnostics: Vec<Diagnostic>,
    /// Files analyzed.
    pub files_checked: usize,
    /// Suppressions seen across the tree (justified or not; unjustified
    /// ones also produce a `suppression-hygiene` finding).
    pub suppressions: usize,
}

impl Report {
    /// Whether the run should fail: any unsuppressed error-severity
    /// finding.
    pub fn has_errors(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error)
    }

    /// Renders the human-readable report.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.to_string());
            out.push('\n');
        }
        out.push_str(&format!(
            "edgeslice-lint: {} file(s) checked, {} suppression(s), {} finding(s)\n",
            self.files_checked,
            self.suppressions,
            self.diagnostics.len()
        ));
        out
    }

    /// Renders the machine-readable report (stable key order).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"diagnostics\": [\n");
        for (i, d) in self.diagnostics.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"rule\": \"{}\", \"severity\": \"{}\", \"file\": \"{}\", \
                 \"line\": {}, \"message\": \"{}\"}}{}\n",
                json_escape(d.rule),
                d.severity,
                json_escape(&d.file),
                d.line,
                json_escape(&d.message),
                if i + 1 == self.diagnostics.len() {
                    ""
                } else {
                    ","
                }
            ));
        }
        out.push_str(&format!(
            "  ],\n  \"files_checked\": {},\n  \"suppressions\": {},\n  \"errors\": {}\n}}\n",
            self.files_checked,
            self.suppressions,
            self.diagnostics
                .iter()
                .filter(|d| d.severity == Severity::Error)
                .count()
        ));
        out
    }
}

/// Finds the workspace root (`Cargo.toml` containing `[workspace]`) at or
/// above `start`.
///
/// # Errors
///
/// [`LintError::WorkspaceNotFound`] when no ancestor qualifies.
pub fn find_workspace_root(start: &Path) -> Result<PathBuf, LintError> {
    let mut dir = Some(start);
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Ok(d.to_path_buf());
            }
        }
        dir = d.parent();
    }
    Err(LintError::WorkspaceNotFound(start.to_path_buf()))
}

/// One file scheduled for analysis.
#[derive(Debug, Clone)]
pub struct FileSpec {
    /// Absolute (or caller-relative) path to read.
    pub path: PathBuf,
    /// Workspace-relative path used in diagnostics (forward slashes).
    pub rel_path: String,
    /// Short crate name the scoping rules key on.
    pub crate_name: String,
    /// The workspace crates `crate_name` depends on, transitively (short
    /// names, sorted) — where the call graph may follow this file's calls
    /// besides its own crate. `None` when unknown (explicit files), which
    /// leaves cross-crate resolution unconstrained.
    pub deps: Option<Vec<String>>,
    /// A file outside every library (a test, an example, the benchmark), read
    /// only for the names it uses: no rule runs on it and it is not counted.
    pub names_only: bool,
}

/// Collects every non-test source file of the workspace: `src/**/*.rs` of
/// the root package and of each `crates/*` member, each with its crate's
/// workspace dependencies. The rules guard shipping code (in-file
/// `#[cfg(test)]` regions are excluded during analysis), so integration
/// tests, examples and the benchmark follow as [`FileSpec::names_only`]
/// files for `dead-pub`; vendored stand-ins are out of scope.
///
/// # Errors
///
/// [`LintError::Io`] when a source directory cannot be enumerated.
pub fn workspace_files(root: &Path) -> Result<Vec<FileSpec>, LintError> {
    let mut packages = vec![(root.to_path_buf(), "repro".to_string())];
    let mut members: Vec<PathBuf> = read_dir(&root.join("crates"))?
        .into_iter()
        .filter(|p| p.is_dir())
        .collect();
    members.sort();
    for member in members {
        let name = member
            .file_name()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_default();
        packages.push((member, name));
    }
    let deps = crate_deps(&packages);
    let mut out = Vec::new();
    for (dir, name) in &packages {
        let src = dir.join("src");
        collect_package(root, &src, name, deps.get(name), false, &mut out)?;
    }
    let mut outside = vec![(root.join("benchmark"), "benchmark")];
    for (dir, name) in &packages {
        outside.push((dir.join("tests"), name));
        outside.push((dir.join("examples"), name));
    }
    for (dir, name) in outside {
        collect_package(root, &dir, name, None, true, &mut out)?;
    }
    Ok(out)
}

/// A manifest's `[package]` name and `[dependencies]` keys.
type Manifest = (Option<String>, Vec<String>);

/// The `[package]` name and the `[dependencies]` keys of a `Cargo.toml`: a
/// line-level read covering the manifest shapes this workspace writes
/// (`key = ..` / `key.workspace = ..` lines under `[dependencies]`, and
/// `[dependencies.key]` tables). Dev- and build-dependencies are skipped,
/// as the passes skip test code.
fn manifest_deps(text: &str) -> Manifest {
    let (mut name, mut deps, mut section) = (None, Vec::new(), "");
    for line in text.lines().map(str::trim) {
        if let Some(header) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            section = header.trim();
            if let Some(dep) = section.strip_prefix("dependencies.") {
                deps.push(dep.trim().to_string());
            }
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            continue;
        };
        let key = key.trim().split('.').next().unwrap_or("").trim_matches('"');
        match section {
            "package" if key == "name" => name = Some(value.trim().trim_matches('"').to_string()),
            "dependencies" => deps.push(key.to_string()),
            _ => {}
        }
    }
    (name, deps)
}

/// Each package's workspace dependencies, transitively, by short crate
/// name. A package whose manifest cannot be read is left out (its files
/// resolve unconstrained).
fn crate_deps(packages: &[(PathBuf, String)]) -> BTreeMap<String, Vec<String>> {
    let manifests: Vec<(&String, Manifest)> = packages
        .iter()
        .filter_map(|(dir, short)| {
            let text = fs::read_to_string(dir.join("Cargo.toml")).ok()?;
            Some((short, manifest_deps(&text)))
        })
        .collect();
    let short_of: BTreeMap<&str, &String> = manifests
        .iter()
        .filter_map(|(short, (name, _))| Some((name.as_deref()?, *short)))
        .collect();
    let direct: BTreeMap<&String, Vec<&String>> = manifests
        .iter()
        .map(|(short, (_, deps))| {
            let ws = deps
                .iter()
                .filter_map(|d| short_of.get(d.as_str()).copied());
            (*short, ws.collect())
        })
        .collect();
    direct
        .keys()
        .map(|&start| {
            let mut seen = BTreeSet::new();
            let mut stack = direct[start].clone();
            while let Some(d) = stack.pop() {
                if seen.insert(d.clone()) {
                    stack.extend(direct.get(d).into_iter().flatten());
                }
            }
            (start.clone(), seen.into_iter().collect())
        })
        .collect()
}

fn read_dir(dir: &Path) -> Result<Vec<PathBuf>, LintError> {
    let rd = fs::read_dir(dir).map_err(|e| LintError::Io(dir.to_path_buf(), e))?;
    let mut out = Vec::new();
    for entry in rd {
        let entry = entry.map_err(|e| LintError::Io(dir.to_path_buf(), e))?;
        out.push(entry.path());
    }
    Ok(out)
}

fn collect_package(
    root: &Path,
    src: &Path,
    crate_name: &str,
    deps: Option<&Vec<String>>,
    names_only: bool,
    out: &mut Vec<FileSpec>,
) -> Result<(), LintError> {
    if !src.is_dir() {
        return Ok(());
    }
    let mut stack = vec![src.to_path_buf()];
    let mut files = Vec::new();
    while let Some(dir) = stack.pop() {
        for p in read_dir(&dir)? {
            if p.is_dir() {
                // A build directory (the benchmark's own `target/`).
                if !p.ends_with("target") {
                    stack.push(p);
                }
            } else if p.extension().is_some_and(|e| e == "rs") {
                files.push(p);
            }
        }
    }
    files.sort();
    for path in files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        out.push(FileSpec {
            rel_path: rel,
            crate_name: crate_name.to_string(),
            path,
            deps: deps.cloned(),
            names_only,
        });
    }
    Ok(())
}

/// Phase-1 output for one file: everything the graph and filter phases
/// need.
struct FileAnalysis {
    file: SourceFile,
    parsed: ParsedFile,
    sups: Vec<Suppression>,
    /// Local-rule findings, unfiltered (suppressions apply in phase 3).
    raw: Vec<Diagnostic>,
    /// The spec's crate dependencies (see [`FileSpec::deps`]).
    deps: Option<Vec<String>>,
    /// The identifiers the file names, for `dead-pub`.
    names: Names,
    /// See [`FileSpec::names_only`].
    names_only: bool,
}

/// Phase 1 for one file: lex, collect the names it uses, parse
/// suppressions, run the local rules, build the item-level parse.
fn scan_file(spec: &FileSpec, source: &str) -> FileAnalysis {
    let (toks, comments) = lex(source);
    let names = Names::of(&toks, &comments);
    let file = SourceFile::new(spec.crate_name.clone(), spec.rel_path.clone(), toks);
    if spec.names_only {
        return FileAnalysis {
            file,
            parsed: ParsedFile::default(),
            sups: Vec::new(),
            raw: Vec::new(),
            deps: None,
            names,
            names_only: true,
        };
    }
    let sups = parse_suppressions(&comments);
    let mut raw = Vec::new();
    for rule in registry() {
        (rule.check)(&file, &mut raw);
    }
    let parsed = parse(&file.toks);
    FileAnalysis {
        file,
        parsed,
        sups,
        raw,
        deps: spec.deps.clone(),
        names,
        names_only: false,
    }
}

/// Phases 2 + 3 over the scan results. `full_set` says the analyses are
/// a complete analysis universe (the workspace walk): only then is a
/// cross-rule allow held to the stale-suppression check — in single-file
/// mode a cross-file finding may legitimately be invisible (e.g. the
/// allocating callee lives elsewhere), so staleness is only assessed
/// for the always-full-context local rules. `dead-pub` runs, and its
/// allows are stale-checked, only when names-only files are present.
fn finish(analyses: Vec<FileAnalysis>, full_set: bool) -> Report {
    let (outside, mut analyses): (Vec<_>, Vec<_>) =
        analyses.into_iter().partition(|a| a.names_only);
    let dead_pub_ran = !outside.is_empty();
    // Phase 2: the cross-file passes over the workspace graph.
    let units: Vec<Unit<'_>> = analyses
        .iter()
        .map(|a| Unit {
            file: &a.file,
            parsed: &a.parsed,
            deps: a.deps.as_deref(),
        })
        .collect();
    let mut cross = Vec::new();
    transitive_alloc(&units, &mut cross);
    if dead_pub_ran {
        let names = analyses.iter().map(|a| &a.names);
        dead_pub(&units, names, outside.iter().map(|a| &a.names), &mut cross);
    }
    drop(units);

    // Phase 3: suppression filtering with usage tracking.
    let mut raw: Vec<Diagnostic> = Vec::new();
    for a in &mut analyses {
        raw.append(&mut a.raw);
    }
    raw.extend(cross);
    let mut used: Vec<Vec<bool>> = analyses.iter().map(|a| vec![false; a.sups.len()]).collect();
    let by_file: BTreeMap<&str, usize> = analyses
        .iter()
        .enumerate()
        .map(|(i, a)| (a.file.rel_path.as_str(), i))
        .collect();
    let mut diags = Vec::new();
    for d in raw {
        let mut suppressed = false;
        if let Some(&ai) = by_file.get(d.file.as_str()) {
            for (j, s) in analyses[ai].sups.iter().enumerate() {
                if suppression_covers(s, &d) {
                    used[ai][j] = true;
                    suppressed = true;
                }
            }
        }
        if !suppressed {
            diags.push(d);
        }
    }
    // Suppression hygiene: every allow must be justified, must name a
    // real rule, and must still suppress something.
    let local_rules: BTreeSet<&str> = registry().iter().map(|r| r.name).collect();
    let cross_rules: BTreeSet<&str> = cross_registry().iter().map(|r| r.name).collect();
    for (ai, a) in analyses.iter().enumerate() {
        for (j, s) in a.sups.iter().enumerate() {
            if s.justification.is_empty() {
                diags.push(Diagnostic {
                    rule: SUPPRESSION_HYGIENE,
                    severity: Severity::Error,
                    file: a.file.rel_path.clone(),
                    line: s.line,
                    message: format!(
                        "`lint:allow({})` without a justification: write \
                         `// lint:allow({}): <why this is safe>`",
                        s.rule, s.rule
                    ),
                });
                continue;
            }
            let rule = s.rule.as_str();
            if !local_rules.contains(rule) && !cross_rules.contains(rule) {
                diags.push(Diagnostic {
                    rule: SUPPRESSION_HYGIENE,
                    severity: Severity::Error,
                    file: a.file.rel_path.clone(),
                    line: s.line,
                    message: format!("`lint:allow({})` names an unknown rule", s.rule),
                });
            } else if !used[ai][j]
                && (full_set || !cross_rules.contains(rule))
                && (dead_pub_ran || rule != DEAD_PUB)
            {
                diags.push(Diagnostic {
                    rule: SUPPRESSION_HYGIENE,
                    severity: Severity::Error,
                    file: a.file.rel_path.clone(),
                    line: s.line,
                    message: format!(
                        "`lint:allow({})` suppresses nothing — the code it excused has \
                         drifted away; remove the stale allow (or fix what it was \
                         covering)",
                        s.rule
                    ),
                });
            }
        }
    }
    diags.sort_by(|a, b| {
        a.file
            .cmp(&b.file)
            .then_with(|| a.line.cmp(&b.line))
            .then_with(|| a.rule.cmp(b.rule))
            .then_with(|| a.message.cmp(&b.message))
    });
    Report {
        diagnostics: diags,
        files_checked: analyses.len(),
        suppressions: analyses.iter().map(|a| a.sups.len()).sum(),
    }
}

/// Analyzes one already-read source text under `spec`'s identity.
/// Shared by the driver and the fixture tests. The cross-file passes run
/// over the single file; stale-suppression detection is limited to the
/// local rules (see `finish`).
pub fn analyze_source(spec: &FileSpec, source: &str) -> (Vec<Diagnostic>, usize) {
    let analysis = scan_file(spec, source);
    let sups = analysis.sups.len();
    let report = finish(vec![analysis], false);
    (report.diagnostics, sups)
}

/// Reads and analyzes every file in `specs`, assembling the report. The
/// per-file scan phase fans out across all available cores; see
/// [`run_with_jobs`] to bound the worker count.
///
/// # Errors
///
/// [`LintError::Io`] when a scheduled file cannot be read.
pub fn run(specs: &[FileSpec]) -> Result<Report, LintError> {
    run_with_jobs(specs, 0)
}

/// [`run`] with an explicit scan-phase worker count (`0` = all available
/// cores). Results are byte-identical for every `jobs` value: workers
/// claim files by index stride and the report is assembled in input
/// order, so parallelism is purely a wall-clock knob.
///
/// # Errors
///
/// [`LintError::Io`] when a scheduled file cannot be read.
pub fn run_with_jobs(specs: &[FileSpec], jobs: usize) -> Result<Report, LintError> {
    let jobs = if jobs == 0 {
        std::thread::available_parallelism().map_or(1, usize::from)
    } else {
        jobs
    }
    .clamp(1, specs.len().max(1));

    let read_and_scan = |spec: &FileSpec| -> Result<FileAnalysis, LintError> {
        let source =
            fs::read_to_string(&spec.path).map_err(|e| LintError::Io(spec.path.clone(), e))?;
        Ok(scan_file(spec, &source))
    };

    let mut slots: Vec<Option<Result<FileAnalysis, LintError>>> =
        specs.iter().map(|_| None).collect();
    if jobs <= 1 {
        for (i, spec) in specs.iter().enumerate() {
            slots[i] = Some(read_and_scan(spec));
        }
    } else {
        let results = std::thread::scope(|s| {
            let handles: Vec<_> = (0..jobs)
                .map(|w| {
                    let read_and_scan = &read_and_scan;
                    s.spawn(move || {
                        let mut out = Vec::new();
                        let mut i = w;
                        while i < specs.len() {
                            out.push((i, read_and_scan(&specs[i])));
                            i += jobs;
                        }
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| {
                    h.join()
                        .expect("invariant: scan workers never panic (the lexer is total)")
                })
                .collect::<Vec<_>>()
        });
        for (i, r) in results {
            slots[i] = Some(r);
        }
    }
    let mut analyses = Vec::with_capacity(specs.len());
    for slot in slots {
        match slot {
            Some(Ok(a)) => analyses.push(a),
            Some(Err(e)) => return Err(e),
            None => {}
        }
    }
    Ok(finish(analyses, true))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(crate_name: &str, rel: &str) -> FileSpec {
        FileSpec {
            path: PathBuf::from(rel),
            rel_path: rel.into(),
            crate_name: crate_name.into(),
            deps: None,
            names_only: false,
        }
    }

    /// A hot-path fn that allocates once, with `comment` on the line above.
    fn hot_alloc(comment: &str) -> String {
        format!("fn fill_into(out: &mut [f64]) {{\n    {comment}\n    let v = vec![0.0; 4];\n}}")
    }

    #[test]
    fn suppression_with_justification_silences_finding() {
        let src = hot_alloc("// lint:allow(hot-path-alloc): one-off warm-up");
        let (diags, sups) = analyze_source(&spec("optim", "crates/optim/src/x.rs"), &src);
        assert!(diags.is_empty(), "{diags:?}");
        assert_eq!(sups, 1);
    }

    #[test]
    fn unjustified_suppression_is_its_own_error() {
        let src = hot_alloc("// lint:allow(hot-path-alloc)");
        let (diags, _) = analyze_source(&spec("optim", "crates/optim/src/x.rs"), &src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, SUPPRESSION_HYGIENE);
    }

    #[test]
    fn unknown_rule_in_allow_is_flagged() {
        let src = "// lint:allow(no-such-rule): because\nfn f() {}";
        let (diags, _) = analyze_source(&spec("optim", "crates/optim/src/x.rs"), src);
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("unknown rule"));
    }

    #[test]
    fn an_allow_naming_a_rule_clippy_now_holds_is_unknown() {
        // `determinism` moved to `clippy.toml`: a leftover allow for it
        // suppresses nothing here and must be deleted, not kept as noise.
        let src = "// lint:allow(determinism): was a wall-clock read\nfn f() {}";
        let (diags, _) = analyze_source(&spec("core", "crates/core/src/x.rs"), src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, SUPPRESSION_HYGIENE);
        assert!(
            diags[0].message.contains("unknown rule"),
            "{}",
            diags[0].message
        );
    }

    #[test]
    fn stale_suppression_is_flagged() {
        // A justified allow for a local rule with nothing to suppress:
        // the code it excused has drifted away.
        let src =
            "// lint:allow(hot-path-alloc): was a warm-up once\nfn fill_into(out: &mut [f64]) {}";
        let (diags, _) = analyze_source(&spec("optim", "crates/optim/src/x.rs"), src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, SUPPRESSION_HYGIENE);
        assert!(
            diags[0].message.contains("suppresses nothing"),
            "{}",
            diags[0].message
        );
    }

    #[test]
    fn cross_rule_allows_are_not_stale_checked_in_single_file_mode() {
        // The allocating callee lives elsewhere: a transitive-alloc allow
        // here cannot be proven stale from one file, so it is left alone.
        let src = "// lint:allow(transitive-alloc): the callee allocates once per memo\n\
                   fn fill_into(out: &mut [f64]) { helper(out); }";
        let (diags, _) = analyze_source(&spec("nn", "crates/nn/src/x.rs"), src);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn manifest_deps_reads_dependencies_but_not_dev_dependencies() {
        let toml = "[package]\nname = \"edgeslice-rl\"\n\n\
                    [dependencies]\nedgeslice-nn = { workspace = true }\nrand.workspace = true\n\n\
                    [dev-dependencies]\nproptest = { workspace = true }\n\n\
                    [dependencies.serde]\nworkspace = true\n";
        let (name, deps) = manifest_deps(toml);
        assert_eq!(name.as_deref(), Some("edgeslice-rl"));
        assert_eq!(deps, ["edgeslice-nn", "rand", "serde"]);
    }

    #[test]
    fn parallel_scan_is_order_identical() {
        let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
            .expect("inside the workspace");
        let specs = workspace_files(&root).expect("workspace enumerable");
        let seq = run_with_jobs(&specs, 1).expect("sequential run");
        let par = run_with_jobs(&specs, 8).expect("parallel run");
        assert_eq!(seq.files_checked, par.files_checked);
        assert_eq!(seq.suppressions, par.suppressions);
        assert_eq!(seq.diagnostics, par.diagnostics);
        assert_eq!(seq.to_json(), par.to_json());
    }

    #[test]
    fn json_report_is_well_formed_enough() {
        let report = Report {
            diagnostics: vec![Diagnostic {
                rule: "hot-path-alloc",
                severity: Severity::Error,
                file: "a \"b\".rs".into(),
                line: 3,
                message: "`vec![..]` in `fill_into`".into(),
            }],
            files_checked: 1,
            suppressions: 0,
        };
        let json = report.to_json();
        assert!(json.contains("\"errors\": 1"));
        assert!(json.contains("a \\\"b\\\".rs"));
    }
}
