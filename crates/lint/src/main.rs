//! `edgeslice-lint` — the CLI over [`edgeslice_lint`].
//!
//! ```text
//! edgeslice-lint --workspace [--format text|json] [--jobs N]
//! edgeslice-lint [--as-crate NAME] FILE...
//! edgeslice-lint --list-rules
//! ```
//!
//! Exit codes: 0 clean, 1 findings, 2 usage or I/O error.

#![cfg_attr(not(test), deny(clippy::float_cmp))]

use std::path::PathBuf;
use std::process::ExitCode;

use edgeslice_lint::{
    cross_registry, find_workspace_root, registry, run_with_jobs, workspace_files, FileSpec,
};

/// Parsed command line.
struct Args {
    workspace: bool,
    json: bool,
    list_rules: bool,
    as_crate: Option<String>,
    jobs: usize,
    files: Vec<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workspace: false,
        json: false,
        list_rules: false,
        as_crate: None,
        jobs: 0,
        files: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--workspace" => args.workspace = true,
            "--list-rules" => args.list_rules = true,
            "--format" => match it.next().as_deref() {
                Some("json") => args.json = true,
                Some("text") => args.json = false,
                other => return Err(format!("--format expects text|json, got {other:?}")),
            },
            "--as-crate" => {
                args.as_crate = Some(
                    it.next()
                        .ok_or_else(|| "--as-crate expects a crate name".to_string())?,
                );
            }
            "--jobs" => {
                let v = it
                    .next()
                    .ok_or_else(|| "--jobs expects a worker count (0 = all cores)".to_string())?;
                args.jobs = v
                    .parse()
                    .map_err(|_| format!("--jobs expects a number, got {v:?}"))?;
            }
            "--help" | "-h" => {
                return Err(
                    "usage: edgeslice-lint --workspace [--format text|json] [--jobs N] | \
                     [--as-crate NAME] FILE... | --list-rules"
                        .to_string(),
                )
            }
            f if !f.starts_with('-') => args.files.push(PathBuf::from(f)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !args.workspace && !args.list_rules && args.files.is_empty() {
        return Err("nothing to do: pass --workspace, files, or --list-rules".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("edgeslice-lint: {e}");
            return ExitCode::from(2);
        }
    };

    if args.list_rules {
        for rule in registry() {
            println!(
                "{:<24} {:<8} {}",
                rule.name, rule.severity, rule.description
            );
        }
        for rule in cross_registry() {
            println!(
                "{:<24} {:<8} {}",
                rule.name, rule.severity, rule.description
            );
        }
        return ExitCode::SUCCESS;
    }

    let mut specs: Vec<FileSpec> = Vec::new();
    if args.workspace {
        let cwd = match std::env::current_dir() {
            Ok(d) => d,
            Err(e) => {
                eprintln!("edgeslice-lint: cannot read cwd: {e}");
                return ExitCode::from(2);
            }
        };
        let root = match find_workspace_root(&cwd) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("edgeslice-lint: {e}");
                return ExitCode::from(2);
            }
        };
        match workspace_files(&root) {
            Ok(fs) => specs.extend(fs),
            Err(e) => {
                eprintln!("edgeslice-lint: {e}");
                return ExitCode::from(2);
            }
        }
    }
    for path in &args.files {
        let rel = path.to_string_lossy().replace('\\', "/");
        // Explicit files: the crate identity comes from --as-crate, or
        // from a `crates/<name>/` path component when present.
        let crate_name = args.as_crate.clone().unwrap_or_else(|| {
            rel.split("crates/")
                .nth(1)
                .and_then(|r| r.split('/').next())
                .unwrap_or("repro")
                .to_string()
        });
        specs.push(FileSpec {
            path: path.clone(),
            rel_path: rel,
            crate_name,
            deps: None,
            names_only: false,
        });
    }

    let report = match run_with_jobs(&specs, args.jobs) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("edgeslice-lint: {e}");
            return ExitCode::from(2);
        }
    };
    if args.json {
        print!("{}", report.to_json());
    } else {
        print!("{}", report.to_text());
    }
    if report.has_errors() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
