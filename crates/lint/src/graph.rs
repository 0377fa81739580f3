//! The workspace graph: a symbol table and approximate call graph over
//! every analyzed file, plus the three cross-file passes that consume
//! them — `rng-stream-separation`, `frame-protocol`, and
//! `transitive-alloc`.
//!
//! The call graph is *name-based* (no type inference): a call only lands
//! in the caller's crate or a crate it depends on; free calls resolve
//! nested-fn-in-scope → same-file → same-crate → dependencies, path calls
//! filter by the callee's `impl` type, and method calls conservatively
//! follow every same-crate impl fn with that name. Turbofish calls
//! (`name::<T>(..)`) are calls like any other. The soundness caveats of
//! this approximation are documented executable facts in the unit tests
//! below and in DESIGN.md §15.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::diag::{Diagnostic, Severity};
use crate::lexer::{Tok, TokKind};
use crate::parse::{matching, CallSite, FnItem, ParsedFile};
use crate::rules::{
    alloc_construct, is_hot_path_fn_name, SourceFile, DETERMINISM_CRATES, FRAME_PROTOCOL,
    HOT_PATH_CRATES, RNG_STREAM_SEPARATION, TRANSITIVE_ALLOC,
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

/// Whether a constant name is an RNG stream tag by the workspace's naming
/// convention: `*_STREAM_TAG` (XOR-folded whole-stream tags) or
/// `DOMAIN_*` (`derive_stream_seed` domain separators).
fn is_stream_tag_name(name: &str) -> bool {
    name.ends_with("_STREAM_TAG") || (name.starts_with("DOMAIN_") && name.len() > "DOMAIN_".len())
}

/// The argument tokens of `call` (exclusive of the parens).
fn call_args<'t>(toks: &'t [Tok], call: &CallSite) -> &'t [Tok] {
    let open = call.open_paren;
    match matching(toks, open, "(", ")") {
        Some(close) => &toks[open + 1..close],
        None => &[],
    }
}

/// Cross-file pass (a): RNG stream separation.
///
/// Byte-identical replay rests on every RNG stream being derived from a
/// distinct, *named* tag: (1) all `*_STREAM_TAG`/`DOMAIN_*` constants
/// must hold unique values workspace-wide; (2) every `seed_from_u64` /
/// `derive_stream_seed` site in the determinism crates must reference a
/// named tag constant — XOR-folding ad-hoc literals collides silently;
/// (3) a `*_STREAM_TAG` XORed into more than one stream aliases those
/// streams (tag families use `derive_stream_seed` with an index instead).
pub(crate) fn rng_stream_separation(units: &[Unit<'_>], out: &mut Vec<Diagnostic>) {
    // (1) Tag uniqueness, workspace-wide.
    let mut by_value: BTreeMap<u128, (usize, String, usize)> = BTreeMap::new();
    for (ui, u) in units.iter().enumerate() {
        for c in &u.parsed.consts {
            if !is_stream_tag_name(&c.name) || u.file.in_test(c.name_tok) {
                continue;
            }
            let Some(v) = c.value else { continue };
            match by_value.get(&v) {
                Some((fi, first_name, first_line)) => out.push(diag(
                    u,
                    RNG_STREAM_SEPARATION,
                    c.line,
                    format!(
                        "stream tag `{}` duplicates the value {v:#x} of `{first_name}` \
                         ({}:{first_line}) — RNG stream tags must be unique workspace-wide \
                         or the streams they separate collide",
                        c.name, units[*fi].file.rel_path
                    ),
                )),
                None => {
                    by_value.insert(v, (ui, c.name.clone(), c.line));
                }
            }
        }
    }

    // (2) + (3) Derivation sites in the determinism crates.
    let mut xor_sites: BTreeMap<String, Vec<(usize, usize)>> = BTreeMap::new();
    for (ui, u) in units.iter().enumerate() {
        if !DETERMINISM_CRATES.contains(&u.file.crate_name.as_str()) {
            continue;
        }
        for f in &u.parsed.fns {
            for call in &f.calls {
                if call.name != "seed_from_u64" && call.name != "derive_stream_seed" {
                    continue;
                }
                if u.file.in_test(call.name_tok) {
                    continue;
                }
                let args = call_args(&u.file.toks, call);
                let has_derive = call.name == "seed_from_u64"
                    && args
                        .iter()
                        .any(|t| t.kind == TokKind::Ident && t.text == "derive_stream_seed");
                let tags: Vec<&str> = args
                    .iter()
                    .filter(|t| t.kind == TokKind::Ident && is_stream_tag_name(&t.text))
                    .map(|t| t.text.as_str())
                    .collect();
                let has_xor = args.iter().any(|t| t.text == "^");
                let has_int = args.iter().any(|t| t.kind == TokKind::Int);
                if has_derive {
                    continue; // the inner derive_stream_seed call is checked itself
                }
                if !tags.is_empty() {
                    if call.name == "seed_from_u64" {
                        for tag in tags {
                            xor_sites
                                .entry(tag.to_string())
                                .or_default()
                                .push((ui, call.line));
                        }
                    }
                    continue;
                }
                if has_xor {
                    out.push(diag(
                        u,
                        RNG_STREAM_SEPARATION,
                        call.line,
                        format!(
                            "`{}` folds stream material with `^` but no named \
                             `*_STREAM_TAG`/`DOMAIN_*` constant — ad-hoc tags collide \
                             silently; declare a named tag constant",
                            call.name
                        ),
                    ));
                } else if has_int {
                    out.push(diag(
                        u,
                        RNG_STREAM_SEPARATION,
                        call.line,
                        format!(
                            "`{}` uses literal seed material — derive the stream from a \
                             named `*_STREAM_TAG`/`DOMAIN_*` constant (or pass a \
                             pre-derived stream seed)",
                            call.name
                        ),
                    ));
                }
                // A bare pre-derived variable is fine: the deriving site
                // is where the tag discipline is enforced.
            }
        }
    }
    for (tag, sites) in &xor_sites {
        if sites.len() < 2 {
            continue;
        }
        let (fi, first_line) = sites[0];
        for &(ui, line) in &sites[1..] {
            out.push(diag(
                &units[ui],
                RNG_STREAM_SEPARATION,
                line,
                format!(
                    "stream tag `{tag}` is already XORed into a stream at {}:{first_line} — \
                     reusing a tag aliases the two streams; derive per-entity streams with \
                     `derive_stream_seed(master, DOMAIN, index)` instead",
                    units[fi].file.rel_path
                ),
            ));
        }
    }
}

/// Converts a frame tag constant name to its expected enum variant:
/// `TAG_REGISTER_ACK` → `RegisterAck`.
fn tag_to_variant(tag: &str) -> String {
    tag.trim_start_matches("TAG_")
        .split('_')
        .map(|part| {
            let mut cs = part.chars();
            match cs.next() {
                Some(first) => {
                    first.to_uppercase().collect::<String>() + &cs.as_str().to_lowercase()
                }
                None => String::new(),
            }
        })
        .collect()
}

/// The variant names a pattern handles: every ident following
/// `WireMsg ::`.
fn handled_variants(pat: &[Tok]) -> Vec<String> {
    let mut out = Vec::new();
    for k in 0..pat.len() {
        if pat[k].kind == TokKind::Ident
            && pat[k].text == "WireMsg"
            && pat.get(k + 1).is_some_and(|t| t.text == "::")
        {
            if let Some(v) = pat.get(k + 2).filter(|t| t.kind == TokKind::Ident) {
                out.push(v.text.clone());
            }
        }
    }
    out
}

/// Whether a pattern (guard stripped) is a silent catch-all: `_`, a bare
/// lowercase binding, or either wrapped in one `Ok(..)` / `Some(..)`.
fn is_silent_wildcard(pat: &[Tok]) -> bool {
    let guard_end = pat
        .iter()
        .position(|t| t.kind == TokKind::Ident && t.text == "if")
        .unwrap_or(pat.len());
    let pat = &pat[..guard_end];
    let is_catchall = |t: &Tok| {
        t.text == "_"
            || (t.kind == TokKind::Ident && t.text.starts_with(|c: char| c.is_lowercase()))
    };
    match pat {
        [t] => is_catchall(t),
        [w, open, t, close] if open.text == "(" && close.text == ")" => {
            (w.text == "Ok" || w.text == "Some") && is_catchall(t)
        }
        _ => false,
    }
}

/// Cross-file pass (b): frame-protocol exhaustiveness.
///
/// The wire protocol stays in lockstep end to end: (1) the `TAG_*`
/// constants and the `WireMsg` variants in the frame module must map
/// 1:1; (2) every non-test `match` whose arms pattern-match `WireMsg`
/// must handle every variant explicitly, with no wildcard arm silently
/// swallowing a future frame; (3) every `match` over raw tag bytes must
/// name every `TAG_*` constant (a binding arm for the typed unknown-tag
/// error is fine there).
pub(crate) fn frame_protocol(units: &[Unit<'_>], out: &mut Vec<Diagnostic>) {
    // Protocol declarations: files declaring `enum WireMsg`, with their
    // co-resident TAG_* constants.
    let mut variants: BTreeSet<String> = BTreeSet::new();
    let mut tags: BTreeSet<String> = BTreeSet::new();
    for u in units {
        let Some(e) = u
            .parsed
            .enums
            .iter()
            .find(|e| e.name == "WireMsg" && !u.file.in_test(e.name_tok))
        else {
            continue;
        };
        variants.extend(e.variants.iter().cloned());
        let file_tags: Vec<_> = u
            .parsed
            .consts
            .iter()
            .filter(|c| c.name.starts_with("TAG_") && !u.file.in_test(c.name_tok))
            .collect();
        // (1) Codec/enum sync, only where both sides live together.
        if !file_tags.is_empty() {
            for c in &file_tags {
                let want = tag_to_variant(&c.name);
                if !e.variants.contains(&want) {
                    out.push(diag(
                        u,
                        FRAME_PROTOCOL,
                        c.line,
                        format!(
                            "frame tag `{}` has no matching `WireMsg` variant `{want}` — \
                             the codec and the enum have drifted",
                            c.name
                        ),
                    ));
                }
            }
            for v in &e.variants {
                if !file_tags.iter().any(|c| tag_to_variant(&c.name) == *v) {
                    out.push(diag(
                        u,
                        FRAME_PROTOCOL,
                        e.line,
                        format!(
                            "`WireMsg::{v}` has no `TAG_*` constant — the codec cannot \
                             encode it; add the tag next to the other frame tags"
                        ),
                    ));
                }
            }
            tags.extend(file_tags.iter().map(|c| c.name.clone()));
        }
    }

    // (2) + (3) Frame matches everywhere.
    for u in units {
        for m in &u.parsed.matches {
            if u.file.in_test(m.match_tok) {
                continue;
            }
            let pats: Vec<&[Tok]> = m
                .arms
                .iter()
                .map(|a| &u.file.toks[a.pat.0..a.pat.1])
                .collect();
            let is_wire = pats.iter().any(|p| {
                p.iter()
                    .any(|t| t.kind == TokKind::Ident && t.text == "WireMsg")
            });
            if is_wire {
                let mut wildcarded = false;
                for (arm, pat) in m.arms.iter().zip(&pats) {
                    if is_silent_wildcard(pat) {
                        wildcarded = true;
                        out.push(diag(
                            u,
                            FRAME_PROTOCOL,
                            arm.line,
                            "wildcard arm in a frame match swallows future frame tags \
                             silently — list every `WireMsg` variant explicitly so a \
                             protocol change is a compile/lint error here"
                                .to_string(),
                        ));
                    }
                }
                if !wildcarded && !variants.is_empty() {
                    let handled: BTreeSet<String> =
                        pats.iter().flat_map(|p| handled_variants(p)).collect();
                    let missing: Vec<&str> = variants
                        .iter()
                        .filter(|v| !handled.contains(*v))
                        .map(String::as_str)
                        .collect();
                    if !missing.is_empty() {
                        out.push(diag(
                            u,
                            FRAME_PROTOCOL,
                            m.line,
                            format!(
                                "frame match does not handle `WireMsg` variant(s) {} — \
                                 every frame tag must be handled (or explicitly listed \
                                 as noise) wherever frames are matched",
                                missing.join(", ")
                            ),
                        ));
                    }
                }
            }
            // Tag-byte matches (the decoder): all TAG_* named.
            if !tags.is_empty() {
                let named: BTreeSet<String> = pats
                    .iter()
                    .flat_map(|p| p.iter())
                    .filter(|t| t.kind == TokKind::Ident && tags.contains(&t.text))
                    .map(|t| t.text.clone())
                    .collect();
                if !named.is_empty() {
                    let missing: Vec<&str> = tags
                        .iter()
                        .filter(|t| !named.contains(*t))
                        .map(String::as_str)
                        .collect();
                    if !missing.is_empty() {
                        out.push(diag(
                            u,
                            FRAME_PROTOCOL,
                            m.line,
                            format!(
                                "frame-tag match does not handle {} — the decoder must \
                                 name every tag (unknown tags go through the typed \
                                 unknown-tag arm)",
                                missing.join(", ")
                            ),
                        ));
                    }
                }
            }
        }
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

/// Cross-file pass (c): transitive hot-path allocation.
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
                let file = SourceFile::new(*crate_name, *rel, false, lex(src).0);
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

    #[test]
    fn duplicate_tags_across_files_collide() {
        let out = run_pass(
            &[
                (
                    "core",
                    "crates/core/src/a.rs",
                    "const A_STREAM_TAG: u64 = 0x10;",
                ),
                (
                    "runtime",
                    "crates/runtime/src/b.rs",
                    "const B_STREAM_TAG: u64 = 0x10;",
                ),
            ],
            rng_stream_separation,
        );
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].file, "crates/runtime/src/b.rs");
        assert!(
            out[0].message.contains("A_STREAM_TAG"),
            "{}",
            out[0].message
        );
    }

    #[test]
    fn xor_reuse_of_one_tag_is_flagged() {
        let src = "const T_STREAM_TAG: u64 = 0x10;\n\
                   fn a(seed: u64) { let r = StdRng::seed_from_u64(seed ^ T_STREAM_TAG); }\n\
                   fn b(seed: u64) { let r = StdRng::seed_from_u64(seed ^ T_STREAM_TAG); }";
        let out = run_pass(
            &[("core", "crates/core/src/a.rs", src)],
            rng_stream_separation,
        );
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(
            out[0].message.contains("already XORed"),
            "{}",
            out[0].message
        );
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
