//! The workspace graph: a symbol table and approximate call graph over
//! every analyzed file, and the `transitive-alloc` pass that walks it.
//!
//! The call graph is *name-based* (no type inference): a call only lands
//! in the caller's crate or a crate it depends on; free calls resolve
//! nested-fn-in-scope → same-file → same-crate → dependencies, path calls
//! filter by the callee's `impl` type, and method calls conservatively
//! follow every same-crate impl fn with that name. Turbofish calls
//! (`name::<T>(..)`) are calls like any other. The soundness caveats of
//! this approximation are documented executable facts in the unit tests
//! below and in DESIGN.md §15.

use std::collections::{BTreeMap, VecDeque};

use crate::diag::{Diagnostic, Severity};
use crate::parse::{CallSite, FnItem, ParsedFile};
use crate::rules::{
    alloc_construct, is_hot_path_fn_name, SourceFile, HOT_PATH_CRATES, TRANSITIVE_ALLOC,
};

/// One analyzed file, as the cross-file passes see it.
pub struct Unit<'a> {
    /// The pre-lexed file (crate identity, tokens, test-region map).
    pub file: &'a SourceFile,
    /// The item-level parse of the same tokens.
    pub parsed: &'a ParsedFile,
    /// The workspace crates the file's crate depends on, transitively —
    /// the only other crates its calls can land in. `None` when unknown
    /// (a file analyzed on its own), which leaves cross-crate resolution
    /// unconstrained.
    pub deps: Option<&'a [String]>,
}

impl Unit<'_> {
    /// Whether code in this unit can call into `callee`'s crate: its own,
    /// or one it depends on.
    fn sees(&self, callee: &Unit<'_>) -> bool {
        let target = &callee.file.crate_name;
        *target == self.file.crate_name || self.deps.is_none_or(|d| d.contains(target))
    }
}

fn diag(unit: &Unit<'_>, rule: &'static str, line: usize, message: String) -> Diagnostic {
    Diagnostic {
        rule,
        severity: Severity::Error,
        file: unit.file.rel_path.clone(),
        line,
        message,
    }
}

/// A flattened fn reference: `(unit index, fn index)`.
type FnRef = (usize, usize);

/// Method names that collide with ubiquitous `std` iterator / `Option` /
/// `Result` adapters. Without receiver types, `xs.iter().map(..)` is
/// indistinguishable from a workspace method named `map` — and the std
/// adapter is overwhelmingly what such a call is, so method-call
/// resolution skips these names rather than chase false edges. This is
/// the documented precision/soundness trade of the approximate call
/// graph (DESIGN.md §15): a workspace method that *shadows* one of these
/// names is invisible to the transitive pass (the local rule still sees
/// its body).
const STD_ADAPTER_METHODS: &[&str] = &[
    "all",
    "and_then",
    "any",
    "by_ref",
    "chain",
    "cloned",
    "collect",
    "copied",
    "count",
    "enumerate",
    "filter",
    "filter_map",
    "find",
    "flat_map",
    "flatten",
    "fold",
    "for_each",
    "into_iter",
    "iter",
    "iter_mut",
    "last",
    "map",
    "map_err",
    "map_or",
    "max",
    "max_by",
    "max_by_key",
    "min",
    "min_by",
    "min_by_key",
    "nth",
    "ok_or",
    "ok_or_else",
    "or_else",
    "peekable",
    "position",
    "product",
    "rev",
    "scan",
    "skip",
    "skip_while",
    "step_by",
    "sum",
    "take",
    "take_while",
    "then",
    "then_with",
    "unwrap_or",
    "unwrap_or_else",
    "zip",
];

/// Cross-file pass: transitive hot-path allocation.
///
/// PR 5's local rule catches an allocation *inside* a hot fn; this pass
/// propagates the ban through the call graph so a `*_into`/`*_scratch`/
/// kernel-family fn also fails when it *reaches* an allocating fn at any
/// call depth. Depth 0 (a local allocation) is left to the local rule so
/// each defect is reported exactly once.
pub(crate) fn transitive_alloc(units: &[Unit<'_>], out: &mut Vec<Diagnostic>) {
    // Symbol table over all non-test fns.
    let mut fns: Vec<FnRef> = Vec::new();
    let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (ui, u) in units.iter().enumerate() {
        for (fi, f) in u.parsed.fns.iter().enumerate() {
            if u.file.in_test(f.name_tok) {
                continue;
            }
            by_name.entry(f.name.as_str()).or_default().push(fns.len());
            fns.push((ui, fi));
        }
    }
    let item = |id: usize| -> (&Unit<'_>, &FnItem) {
        let (ui, fi) = fns[id];
        (&units[ui], &units[ui].parsed.fns[fi])
    };
    // Per-fn local allocation scan (first banned construct in the body).
    // A `.get_or_init(..)` initializer builds a memo once per memo, not
    // once per call, so neither its allocations nor its calls count.
    let allocs: Vec<Option<(usize, &'static str)>> = (0..fns.len())
        .map(|id| {
            let (u, f) = item(id);
            let (open, close) = f.body?;
            (open..=close)
                .filter(|&k| !f.in_once_init(k))
                .find_map(|k| {
                    alloc_construct(&u.file.toks, k).map(|what| (u.file.toks[k].line, what))
                })
        })
        .collect();

    let resolve = |call: &CallSite, caller: usize| -> Vec<usize> {
        let (cu, cf) = item(caller);
        let Some(cands) = by_name.get(call.name.as_str()) else {
            return Vec::new();
        };
        if cf.in_once_init(call.name_tok) {
            return Vec::new();
        }
        // A call can only land in the caller's own crate or one it
        // depends on.
        let cands: Vec<usize> = cands
            .iter()
            .copied()
            .filter(|&id| cu.sees(item(id).0))
            .collect();
        // Items callable by path: not methods, not fns nested in a body.
        let is_item_fn = |id: usize| item(id).1.impl_type.is_none() && item(id).1.scope.is_none();
        if call.is_method {
            // Method calls: every same-crate impl fn with that name
            // (conservative — no receiver types). Names shared with the
            // std adapters are skipped entirely (see STD_ADAPTER_METHODS).
            if STD_ADAPTER_METHODS.contains(&call.name.as_str()) {
                return Vec::new();
            }
            return cands
                .into_iter()
                .filter(|&id| {
                    let (u, f) = item(id);
                    f.impl_type.is_some() && u.file.crate_name == cu.file.crate_name
                })
                .collect();
        }
        if let Some(q) = &call.qualifier {
            let q = if q == "Self" {
                cf.impl_type.clone().unwrap_or_else(|| q.clone())
            } else {
                q.clone()
            };
            // `Type::assoc()` filters by impl type; `module::free()` (no
            // impl match anywhere) falls back to free fns.
            let typed: Vec<usize> = cands
                .iter()
                .copied()
                .filter(|&id| item(id).1.impl_type.as_deref() == Some(q.as_str()))
                .collect();
            if !typed.is_empty() {
                return typed;
            }
            return cands.into_iter().filter(|&id| is_item_fn(id)).collect();
        }
        // Free calls: the innermost visible `fn` wins — one nested in a
        // body enclosing the call, then an item of the same file, of the
        // same crate, then of any crate the caller's depends on.
        let same_file = |id: usize| fns[id].0 == fns[caller].0;
        if let Some(local) = cands
            .iter()
            .copied()
            .filter(|&id| same_file(id))
            .filter_map(|id| {
                let (o, c) = item(id).1.scope?;
                (o..c).contains(&call.name_tok).then_some((c - o, id))
            })
            .min()
        {
            return vec![local.1];
        }
        let items: Vec<usize> = cands.into_iter().filter(|&id| is_item_fn(id)).collect();
        let in_file: Vec<usize> = items.iter().copied().filter(|&id| same_file(id)).collect();
        if !in_file.is_empty() {
            return in_file;
        }
        let in_crate: Vec<usize> = items
            .iter()
            .copied()
            .filter(|&id| item(id).0.file.crate_name == cu.file.crate_name)
            .collect();
        if !in_crate.is_empty() {
            return in_crate;
        }
        items
    };

    // BFS from every hot-path fn; report the first (shortest) allocating
    // path per hot fn.
    for start in 0..fns.len() {
        let (u, f) = item(start);
        if !HOT_PATH_CRATES.contains(&u.file.crate_name.as_str())
            || !is_hot_path_fn_name(&f.name)
            || f.body.is_none()
        {
            continue;
        }
        let mut visited = vec![false; fns.len()];
        visited[start] = true;
        let mut queue: VecDeque<(usize, Vec<usize>)> = VecDeque::new();
        for call in &f.calls {
            for id in resolve(call, start) {
                if !visited[id] {
                    visited[id] = true;
                    queue.push_back((id, vec![id]));
                }
            }
        }
        'bfs: while let Some((id, path)) = queue.pop_front() {
            if let Some((line, what)) = allocs[id] {
                let (gu, gf) = item(id);
                let chain: Vec<String> = path
                    .iter()
                    .map(|&p| format!("`{}`", item(p).1.name))
                    .collect();
                out.push(diag(
                    u,
                    TRANSITIVE_ALLOC,
                    f.line,
                    format!(
                        "hot-path fn `{}` reaches an allocation through {}: `{}` does \
                         {what} at {}:{line} — the `*_into`/`*_scratch`/`*_row`/kernel families \
                         must stay allocation-free at every call depth",
                        f.name,
                        chain.join(" → "),
                        gf.name,
                        gu.file.rel_path
                    ),
                ));
                break 'bfs;
            }
            if path.len() >= 32 {
                continue; // depth cap: pathological graphs stay bounded
            }
            let (_, g) = item(id);
            for call in &g.calls {
                for next in resolve(call, id) {
                    if !visited[next] {
                        visited[next] = true;
                        let mut p = path.clone();
                        p.push(next);
                        queue.push_back((next, p));
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    /// Builds `SourceFile` + `ParsedFile` pairs the tests can hold.
    fn build(files: &[(&str, &str, &str)]) -> Vec<(SourceFile, ParsedFile)> {
        files
            .iter()
            .map(|(crate_name, rel, src)| {
                let file = SourceFile::new(*crate_name, *rel, lex(src).0);
                let parsed = crate::parse::parse(&file.toks);
                (file, parsed)
            })
            .collect()
    }

    fn run_pass(
        files: &[(&str, &str, &str)],
        pass: fn(&[Unit<'_>], &mut Vec<Diagnostic>),
    ) -> Vec<Diagnostic> {
        let built = build(files);
        let units: Vec<Unit<'_>> = built
            .iter()
            .map(|(file, parsed)| Unit {
                file,
                parsed,
                deps: None,
            })
            .collect();
        let mut out = Vec::new();
        pass(&units, &mut out);
        out
    }

    // Call-graph resolution pins (the satellite's "documented executable
    // facts"): shadowed names, methods vs free fns, cross-crate calls.

    #[test]
    fn shadowed_free_fn_resolves_same_file_first() {
        // Both crates define `helper`; the hot fn's own file wins, and
        // that one is clean — the allocating foreign `helper` is NOT
        // followed.
        let out = run_pass(
            &[
                (
                    "nn",
                    "crates/nn/src/a.rs",
                    "fn helper(out: &mut [f64]) { out.fill(0.0); }\n\
                     fn fill_into(out: &mut [f64]) { helper(out); }",
                ),
                (
                    "core",
                    "crates/core/src/b.rs",
                    "fn helper() -> Vec<f64> { Vec::new() }",
                ),
            ],
            transitive_alloc,
        );
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn same_crate_free_fn_beats_cross_crate() {
        // With no same-file candidate, same-crate resolution wins over a
        // clean cross-crate fn of the same name.
        let out = run_pass(
            &[
                (
                    "nn",
                    "crates/nn/src/a.rs",
                    "fn fill_into(out: &mut [f64]) { helper(out); }",
                ),
                (
                    "nn",
                    "crates/nn/src/b.rs",
                    "fn helper(out: &mut [f64]) -> Vec<f64> { Vec::new() }",
                ),
                (
                    "core",
                    "crates/core/src/c.rs",
                    "fn helper(out: &mut [f64]) {}",
                ),
            ],
            transitive_alloc,
        );
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("fill_into"));
    }

    #[test]
    fn method_calls_follow_same_crate_impls_only() {
        // `.fetch()` resolves to every same-crate impl fn named `fetch`
        // (conservative: no receiver types) — but never to another
        // crate's impl.
        let dirty = (
            "nn",
            "crates/nn/src/a.rs",
            "struct S;\nimpl S { fn fetch(&self) -> Vec<u8> { Vec::new() } }\n\
             fn drain_into(s: &S) { s.fetch(); }",
        );
        let out = run_pass(&[dirty], transitive_alloc);
        assert_eq!(out.len(), 1, "same-crate impl is followed: {out:?}");

        let cross = [
            (
                "nn",
                "crates/nn/src/a.rs",
                "fn drain_into(s: &S) { s.fetch(); }",
            ),
            (
                "core",
                "crates/core/src/b.rs",
                "struct S;\nimpl S { fn fetch(&self) -> Vec<u8> { Vec::new() } }",
            ),
        ];
        let out = run_pass(&cross, transitive_alloc);
        assert!(out.is_empty(), "cross-crate impl is NOT followed: {out:?}");
    }

    #[test]
    fn qualified_calls_filter_by_impl_type() {
        // `Other::make()` must not resolve to `Scratch::make` — and
        // `Vec::new()` inside a *callee* is still reached transitively.
        let out = run_pass(
            &[(
                "nn",
                "crates/nn/src/a.rs",
                "struct Scratch;\n\
                 impl Scratch { fn make() -> Vec<f64> { Vec::new() } }\n\
                 struct Other;\n\
                 impl Other { fn make() -> usize { 0 } }\n\
                 fn build_scratch() { let s = Other::make(); }",
            )],
            transitive_alloc,
        );
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn cross_crate_free_call_is_followed() {
        // rl hot fn → nn free fn that allocates, two crates apart.
        let out = run_pass(
            &[
                (
                    "rl",
                    "crates/rl/src/a.rs",
                    "fn sample_into(out: &mut [f64]) { stage(out); }",
                ),
                (
                    "nn",
                    "crates/nn/src/b.rs",
                    "fn stage(out: &mut [f64]) { scratch(out); }\n\
                     fn scratch(out: &mut [f64]) { let v = vec![0.0]; }",
                ),
            ],
            transitive_alloc,
        );
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(
            out[0].message.contains("`stage` → `scratch`"),
            "the two-hop path is reported: {}",
            out[0].message
        );
    }

    #[test]
    fn a_nested_fn_is_invisible_outside_its_body() {
        // `helper` nested in `other` is not what `fill_into`'s free call
        // names — that resolves to the file's item `helper`, which
        // allocates.
        let out = run_pass(
            &[(
                "nn",
                "crates/nn/src/a.rs",
                "fn other() { fn helper(out: &mut [f64]) {} }\n\
                 fn helper(out: &mut [f64]) { let v = vec![0.0]; }\n\
                 fn fill_into(out: &mut [f64]) { helper(out); }",
            )],
            transitive_alloc,
        );
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("fill_into"));
    }

    #[test]
    fn only_the_once_init_argument_is_exempt() {
        // The memo's initializer allocates once per memo; the per-call
        // `to_vec` beside it still counts.
        let out = run_pass(
            &[(
                "nn",
                "crates/nn/src/a.rs",
                "struct M;\n\
                 impl M { fn memo(&self, x: &[f64]) -> Vec<f64> { \
                   self.m.get_or_init(|| build()); x.to_vec() } }\n\
                 fn build() -> Vec<f64> { Vec::new() }\n\
                 fn read_into(m: &M, x: &[f64]) { m.memo(x); }",
            )],
            transitive_alloc,
        );
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("`.to_vec()`"), "{}", out[0].message);
    }

    #[test]
    fn calls_stay_inside_the_dependency_graph() {
        // With crate dependencies known, an `rl` free call reaches `nn`
        // (a dependency) but a `bench` fn of the same name is out of
        // reach — and the `nn` one is clean.
        let files = [
            (
                "rl",
                "crates/rl/src/a.rs",
                "fn sample_into(out: &mut [f64]) { stage(out); }",
            ),
            ("nn", "crates/nn/src/b.rs", "fn stage(out: &mut [f64]) {}"),
            (
                "bench",
                "crates/bench/src/c.rs",
                "fn stage(out: &mut [f64]) { let v = vec![0.0]; }",
            ),
        ];
        let built = build(&files);
        let nn = ["nn".to_string()];
        let units: Vec<Unit<'_>> = built
            .iter()
            .map(|(file, parsed)| Unit {
                file,
                parsed,
                deps: Some(if file.crate_name == "rl" {
                    &nn[..]
                } else {
                    &[]
                }),
            })
            .collect();
        let mut out = Vec::new();
        transitive_alloc(&units, &mut out);
        assert!(out.is_empty(), "{out:?}");
        // Unknown dependencies leave resolution unconstrained.
        assert_eq!(run_pass(&files, transitive_alloc).len(), 1);
    }

    #[test]
    fn recursion_terminates() {
        let out = run_pass(
            &[(
                "nn",
                "crates/nn/src/a.rs",
                "fn walk_into(n: usize) { walk_into(n - 1); }",
            )],
            transitive_alloc,
        );
        assert!(out.is_empty(), "{out:?}");
    }
}
