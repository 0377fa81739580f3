//! The `dead-pub` pass: a library's bare-`pub` `fn`, `const` or `static`
//! (outside `#[cfg(test)]`) must be named by code outside that library —
//! another crate, a bin, a test, an example, the benchmark — or by a
//! doc-comment code block anywhere, since doctests compile against the
//! public API. Names inside a `use` declaration never count: a re-export
//! alone is not a use. A `fn` counts as named only where a call or a path
//! can name it — `name(`, `Type::name` or `name::<` — so a local or a field
//! that shares its name keeps nothing alive; a `const` or `static` counts
//! wherever its identifier appears. A flagged item becomes `pub(crate)`,
//! and rustc's `dead_code` finds what nothing reaches. Names, not types,
//! are matched: dead items can hide behind a common name, live ones are
//! never flagged.

use std::collections::{BTreeMap, BTreeSet};

use crate::diag::{Diagnostic, Severity};
use crate::graph::Unit;
use crate::lexer::{lex, Comment, Tok, TokKind};
use crate::rules::DEAD_PUB;

/// The identifiers one file names: `code` outside `use` declarations, and
/// `doc` inside its doc comments' code blocks.
pub(crate) struct Names {
    code: Idents,
    doc: Idents,
}

/// One file's identifiers outside `use` declarations: `any` holds every
/// one, `fns` those in call or path position.
#[derive(Default)]
struct Idents {
    any: BTreeSet<String>,
    fns: BTreeSet<String>,
}

impl Names {
    /// Collects the names of a lexed file.
    pub(crate) fn of(toks: &[Tok], comments: &[Comment]) -> Self {
        let mut block = String::new();
        let mut fence: Option<bool> = None; // Some(compiled) inside a fence
        for c in comments.iter().filter(|c| c.doc) {
            // The text keeps the third marker character (`///`, `//!`, `/**`).
            for line in c.text.get(1..).unwrap_or("").lines() {
                match line.trim_start().strip_prefix("```") {
                    Some(info) if fence.is_none() => fence = Some(!info.contains("text")),
                    Some(_) => fence = None,
                    None if fence == Some(true) => {
                        block.push_str(line);
                        block.push('\n');
                    }
                    None => {}
                }
            }
        }
        Self {
            code: code_names(toks),
            doc: code_names(&lex(&block).0),
        }
    }
}

/// Every identifier token outside a `use` declaration, and which of them
/// stand where a `fn` is named: before `(` or `::<`, or after `::`. A `fn`
/// definition's own name is not a use.
fn code_names(toks: &[Tok]) -> Idents {
    let mut out = Idents::default();
    let mut in_use = false;
    let text = |k: usize| toks.get(k).map_or("", |t| t.text.as_str());
    for (i, t) in toks.iter().enumerate() {
        if in_use {
            in_use = t.text != ";";
        } else if t.kind == TokKind::Ident {
            in_use = t.text == "use";
            out.any.insert(t.text.clone());
            let before = if i == 0 { "" } else { text(i - 1) };
            let named_as_fn =
                before == "::" || text(i + 1) == "(" || (text(i + 1) == "::" && text(i + 2) == "<");
            if named_as_fn && before != "fn" {
                out.fns.insert(t.text.clone());
            }
        }
    }
    out
}

/// Whether `rel_path` is a library source, not a `src/bin` or `main.rs` one.
fn is_library(rel_path: &str) -> bool {
    !(rel_path.contains("/src/bin/") || rel_path.ends_with("src/main.rs"))
}

/// The `pub fn` / `pub const` / `pub static` items declared outside test
/// code: `(kind, name, line)`.
fn pub_items<'t>(unit: &'t Unit<'_>) -> Vec<(&'static str, &'t str, usize)> {
    let toks = &unit.file.toks;
    let text = |k: usize| toks.get(k).map_or("", |t| t.text.as_str());
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || t.text != "pub" || unit.file.in_test(i) {
            continue;
        }
        let (kind, name) = match (text(i + 1), text(i + 2)) {
            ("fn", _) => ("fn", i + 2),
            ("const", "fn") => ("fn", i + 3),
            ("const", _) => ("const", i + 2),
            ("static", "mut") => ("static", i + 3),
            ("static", _) => ("static", i + 2),
            _ => continue,
        };
        if let Some(n) = toks
            .get(name)
            .filter(|n| n.kind == TokKind::Ident && n.text != "_")
        {
            out.push((kind, n.text.as_str(), n.line));
        }
    }
    out
}

/// Cross-file pass (d): `dead-pub`. `names` yields the names of each of
/// `units` in turn; `outside` those of the files that belong to no library.
pub(crate) fn dead_pub<'n>(
    units: &[Unit<'_>],
    names: impl IntoIterator<Item = &'n Names>,
    outside: impl IntoIterator<Item = &'n Names>,
    out: &mut Vec<Diagnostic>,
) {
    // Name → the libraries naming it, as any identifier and as a `fn`; ""
    // stands for every other naming place (binaries, tests, examples, the
    // benchmark, doc code blocks).
    let mut named_in: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    let mut fn_named_in: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    let libs = units.iter().zip(names).map(|(u, n)| {
        let lib = is_library(&u.file.rel_path).then_some(u.file.crate_name.as_str());
        (lib, n)
    });
    for (lib, n) in libs.chain(outside.into_iter().map(|n| (None, n))) {
        for (idents, by) in [(&n.code, lib.unwrap_or("")), (&n.doc, "")] {
            for s in &idents.any {
                named_in.entry(s).or_default().insert(by);
            }
            for s in &idents.fns {
                fn_named_in.entry(s).or_default().insert(by);
            }
        }
    }
    for u in units.iter().filter(|u| is_library(&u.file.rel_path)) {
        let krate = u.file.crate_name.as_str();
        for (kind, name, line) in pub_items(u) {
            let named = if kind == "fn" {
                &fn_named_in
            } else {
                &named_in
            };
            if named
                .get(name)
                .is_some_and(|by| by.iter().any(|b| *b != krate))
            {
                continue;
            }
            out.push(Diagnostic {
                rule: DEAD_PUB,
                severity: Severity::Error,
                file: u.file.rel_path.clone(),
                line,
                message: format!(
                    "`pub {kind} {name}` is named nowhere outside crate `{krate}`: make it \
                     `pub(crate)`"
                ),
            });
        }
    }
}
