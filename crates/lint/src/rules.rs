//! The rule registry and the two per-file rules.
//!
//! Each rule is a pure function over a [`SourceFile`] (pre-lexed tokens +
//! test-region map). Rules are scoped by crate name, so the registry — not
//! the call sites — decides where an invariant applies. An invariant that
//! rustc or clippy can hold (wall clock, hash order, `unwrap`, `panic!`,
//! float equality, `unsafe`, missing docs) is configured there instead; a
//! rule here checks what those lints cannot. To add one:
//! write a `fn my_rule(file: &SourceFile, out: &mut Vec<Diagnostic>)`,
//! append a [`Rule`] entry to [`registry`], and add a bad/clean fixture
//! pair under `tests/fixtures/` (see DESIGN.md §11).

use crate::diag::{Diagnostic, Severity};
use crate::lexer::{Tok, TokKind};
use crate::parse::matching;

/// Rule name for the panic policy (see [`panic_policy`]).
pub(crate) const PANIC_POLICY: &str = "panic-policy";
/// Rule name for hot-path allocation discipline (see [`hot_path_alloc`]).
pub(crate) const HOT_PATH_ALLOC: &str = "hot-path-alloc";
/// Rule name for suppression hygiene (emitted by the driver, not a
/// registry rule: suppressions are parsed once per file, before rules
/// run). Covers unjustified allows, allows naming unknown rules, and —
/// since the workspace-graph passes — *stale* allows that no longer
/// suppress any finding.
pub(crate) const SUPPRESSION_HYGIENE: &str = "suppression-hygiene";
/// Cross-file rule name: RNG stream-tag separation (see
/// [`crate::graph::rng_stream_separation`]).
pub(crate) const RNG_STREAM_SEPARATION: &str = "rng-stream-separation";
/// Cross-file rule name: frame-protocol exhaustiveness (see
/// [`crate::graph::frame_protocol`]).
pub(crate) const FRAME_PROTOCOL: &str = "frame-protocol";
/// Cross-file rule name: transitive hot-path allocation (see
/// [`crate::graph::transitive_alloc`]).
pub(crate) const TRANSITIVE_ALLOC: &str = "transitive-alloc";
/// Cross-file rule name: a library's `pub` items are named outside it
/// (see the `dead_pub` module).
pub(crate) const DEAD_PUB: &str = "dead-pub";

/// Crates whose non-test code must not panic: a coordinator panic takes
/// the whole system down — the Supervisor only catches *worker* panics.
const PANIC_CRATES: &[&str] = &["runtime", "core"];
/// Crates carrying a zero-allocation hot path: the training step (`nn`,
/// `rl`) and the agent step of the round loop — `core`'s `*_into` /
/// `*_scratch` worker and environment calls, `netsim`'s dataset model
/// under them, and the `optim` least-squares fit under that.
pub(crate) const HOT_PATH_CRATES: &[&str] = &["nn", "rl", "optim", "netsim", "core"];

/// A pre-lexed source file plus the context rules need to scope
/// themselves: owning crate, path, and which token ranges are test code.
pub struct SourceFile {
    /// The owning workspace crate's short name (`runtime`, `core`, `nn`,
    /// ...; the root package is `repro`).
    pub crate_name: String,
    /// Workspace-relative path with forward slashes.
    pub rel_path: String,
    /// The token stream.
    pub toks: Vec<Tok>,
    /// Sorted, disjoint half-open token-index ranges that are test code
    /// (`#[cfg(test)]` / `#[test]` items).
    test_spans: Vec<(usize, usize)>,
}

impl SourceFile {
    /// Builds a `SourceFile`, computing the test-region map.
    pub fn new(crate_name: impl Into<String>, rel_path: impl Into<String>, toks: Vec<Tok>) -> Self {
        let test_spans = test_spans(&toks);
        Self {
            crate_name: crate_name.into(),
            rel_path: rel_path.into(),
            toks,
            test_spans,
        }
    }

    /// Whether token index `i` lies inside test code.
    pub(crate) fn in_test(&self, i: usize) -> bool {
        self.test_spans
            .iter()
            .any(|&(lo, hi)| (lo..hi).contains(&i))
    }

    pub(crate) fn diag(
        &self,
        rule: &'static str,
        severity: Severity,
        line: usize,
        msg: String,
    ) -> Diagnostic {
        Diagnostic {
            rule,
            severity,
            file: self.rel_path.clone(),
            line,
            message: msg,
        }
    }
}

/// One registered rule: identity, severity, a one-line contract, and the
/// check itself.
pub struct Rule {
    /// Stable rule name — the key used by `lint:allow(<name>)`.
    pub name: &'static str,
    /// Findings' severity.
    pub severity: Severity,
    /// One-line description shown by `--list-rules`.
    pub description: &'static str,
    /// The check: append findings for `file` to the sink.
    pub check: fn(&SourceFile, &mut Vec<Diagnostic>),
}

/// One registered *cross-file* rule: these run over the whole analyzed
/// set at once (they need the workspace symbol table and call graph in
/// [`crate::graph`]), so they carry no per-file `check` fn.
pub struct CrossRule {
    /// Stable rule name — the key used by `lint:allow(<name>)`.
    pub name: &'static str,
    /// Findings' severity.
    pub severity: Severity,
    /// One-line description shown by `--list-rules`.
    pub description: &'static str,
}

/// The cross-file passes, in reporting order. The driver runs them after
/// the per-file scan phase; see [`crate::graph`] for the pass bodies.
pub fn cross_registry() -> Vec<CrossRule> {
    vec![
        CrossRule {
            name: RNG_STREAM_SEPARATION,
            severity: Severity::Error,
            description: "all *_STREAM_TAG/DOMAIN_* constants unique workspace-wide; every \
                          seed derivation site XORs a named tag (no literals, no reuse)",
        },
        CrossRule {
            name: FRAME_PROTOCOL,
            severity: Severity::Error,
            description: "every frame tag handled in every match over decoded frames — no \
                          wildcard arm silently swallowing a tag; TAG_*/WireMsg kept 1:1",
        },
        CrossRule {
            name: TRANSITIVE_ALLOC,
            severity: Severity::Error,
            description: "hot-path fns must not *reach* an allocating fn at any call depth \
                          (the call-graph closure of hot-path-alloc)",
        },
        CrossRule {
            name: DEAD_PUB,
            severity: Severity::Error,
            description: "every pub fn/const/static of a library is named by code outside it \
                          (other crates, bins, tests, examples, benchmark, doc code blocks)",
        },
    ]
}

/// All registered rules, in reporting order.
pub fn registry() -> Vec<Rule> {
    vec![
        Rule {
            name: PANIC_POLICY,
            severity: Severity::Error,
            description: "no literal indexing in runtime/core non-test code; expect() must \
                          state an `invariant: ...` message",
            check: panic_policy,
        },
        Rule {
            name: HOT_PATH_ALLOC,
            severity: Severity::Error,
            description: "no Vec::new/vec!/to_vec/clone()/collect() inside the `*_into` / \
                          `*_scratch` / `*_row` / `matmul_*` / `pack_*` / `accumulate_*` \
                          function families in nn/rl/optim/netsim/core",
            check: hot_path_alloc,
        },
    ]
}

/// Computes the token ranges covered by `#[cfg(test)]` / `#[test]` items:
/// from the attribute to the end of the item it gates (matched braces, or
/// the closing `;` for brace-less items). `cfg` attributes mentioning
/// `not` (e.g. `#[cfg(not(test))]`) are conservatively treated as
/// non-test.
fn test_spans(toks: &[Tok]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].text == "#" && i + 1 < toks.len() && toks[i + 1].text == "[" {
            let start = i;
            let Some(close) = matching(toks, i + 1, "[", "]") else {
                break;
            };
            let attr = &toks[i + 2..close];
            let is_test = attr
                .iter()
                .any(|t| t.kind == TokKind::Ident && t.text == "test")
                && !attr
                    .iter()
                    .any(|t| t.kind == TokKind::Ident && t.text == "not");
            if is_test {
                let end = item_end(toks, close + 1);
                spans.push((start, end));
                i = end;
                continue;
            }
            i = close + 1;
            continue;
        }
        i += 1;
    }
    spans
}

/// The end (exclusive token index) of the item starting at `i`: skips any
/// further attributes, then runs to the matched `}` of the first brace
/// block, or past the first top-level `;`.
fn item_end(toks: &[Tok], mut i: usize) -> usize {
    // Skip stacked attributes (`#[test] #[ignore] fn ...`).
    while i + 1 < toks.len() && toks[i].text == "#" && toks[i + 1].text == "[" {
        match matching(toks, i + 1, "[", "]") {
            Some(close) => i = close + 1,
            None => return toks.len(),
        }
    }
    let mut j = i;
    while j < toks.len() {
        match toks[j].text.as_str() {
            "{" => return matching(toks, j, "{", "}").map_or(toks.len(), |c| c + 1),
            ";" => return j + 1,
            _ => j += 1,
        }
    }
    toks.len()
}

/// Whether `toks[i]` is followed by `:: name` (e.g. `Instant :: now`).
fn path_call(toks: &[Tok], i: usize, name: &str) -> bool {
    toks.get(i + 1).is_some_and(|t| t.text == "::")
        && toks.get(i + 2).is_some_and(|t| t.text == name)
}

/// Rule 1 — panic policy. The Supervisor exists to catch *worker* panics;
/// a panic on the coordinator path takes the whole system down with no
/// typed error for callers. Clippy denies `.unwrap()`, `panic!`, `todo!`
/// and `unimplemented!` in [`PANIC_CRATES`] (their crate roots); this
/// rule bans the two forms it cannot: indexing by an integer literal
/// (`xs[0]` — use `.first()` / `.get(..)` and handle the miss), and
/// `.expect(..)` unless its message is a string literal starting with
/// `invariant:` (an expect that documents *why* it cannot fire is an
/// assertion, not error handling).
fn panic_policy(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    if !PANIC_CRATES.contains(&file.crate_name.as_str()) {
        return;
    }
    let toks = &file.toks;
    for i in 0..toks.len() {
        if file.in_test(i) {
            continue;
        }
        let t = &toks[i];
        let mk = |msg: String| file.diag(PANIC_POLICY, Severity::Error, t.line, msg);
        match (t.kind, t.text.as_str()) {
            (TokKind::Ident, "expect") if prev_is(toks, i, ".") && next_is(toks, i, "(") => {
                let msg_ok = toks
                    .get(i + 2)
                    .is_some_and(|m| m.kind == TokKind::Str && m.text.starts_with("invariant:"));
                if !msg_ok {
                    out.push(mk(
                        "`.expect()` without an `invariant: ...` message: state the \
                         invariant that makes this infallible, or return a typed error"
                            .into(),
                    ));
                }
            }
            (TokKind::Punct, "[")
                if i > 0
                    && expression_position(&toks[i - 1])
                    && toks.get(i + 1).is_some_and(|n| n.kind == TokKind::Int)
                    && toks.get(i + 2).is_some_and(|n| n.text == "]") =>
            {
                out.push(mk(format!(
                    "indexing by literal `[{}]` can panic: use `.first()`/`.get({})` \
                     and handle the miss",
                    toks[i + 1].text,
                    toks[i + 1].text
                )));
            }
            _ => {}
        }
    }
}

/// Whether a `[` following this token is an index expression (identifier,
/// call/paren result, or another index) rather than an array literal,
/// array type, or attribute.
fn expression_position(prev: &Tok) -> bool {
    matches!(prev.kind, TokKind::Ident) || prev.text == ")" || prev.text == "]"
}

fn prev_is(toks: &[Tok], i: usize, text: &str) -> bool {
    i > 0 && toks[i - 1].text == text
}

fn next_is(toks: &[Tok], i: usize, text: &str) -> bool {
    toks.get(i + 1).is_some_and(|t| t.text == text)
}

/// True for function names in the hot-path families: the
/// caller-provides-storage suffixes (`*_into`, `*_scratch`, and `*_row`,
/// the batch-1 forward on a caller's row scratch) plus the GEMM
/// kernel-layer prefixes (`matmul_*`, `pack_*`, `accumulate_*`) — the
/// row bodies and the in-place register tile under every matrix product,
/// which read their operands where they lie (or from the per-thread
/// stage) and so never allocate. No `pack_*` kernel exists; the prefix
/// stays in the family so that one cannot come back allocating.
pub(crate) fn is_hot_path_fn_name(name: &str) -> bool {
    name.ends_with("_into")
        || name.ends_with("_scratch")
        || name.ends_with("_row")
        || name.starts_with("matmul_")
        || name.starts_with("pack_")
        || name.starts_with("accumulate_")
}

/// The banned-allocation matcher shared by the local rule and the
/// transitive pass: when the token at `k` is one of the five banned
/// constructs, returns its display name.
pub(crate) fn alloc_construct(toks: &[Tok], k: usize) -> Option<&'static str> {
    let t = toks.get(k)?;
    if t.kind != TokKind::Ident {
        return None;
    }
    match t.text.as_str() {
        "Vec" if path_call(toks, k, "new") => Some("`Vec::new()`"),
        "vec" if next_is(toks, k, "!") => Some("`vec![..]`"),
        "to_vec" if prev_is(toks, k, ".") && next_is(toks, k, "(") => Some("`.to_vec()`"),
        "clone" if prev_is(toks, k, ".") && next_is(toks, k, "(") => Some("`.clone()`"),
        "collect" if prev_is(toks, k, ".") => Some("`.collect()`"),
        _ => None,
    }
}

/// Rule 2 — hot-path allocation discipline. PR 4's zero-allocation
/// training loop and the round loop's zero-allocation agent step are
/// proven by a counting allocator at test time; this is the static
/// complement, so a stray allocation is caught at lint time even on paths
/// the tests didn't drive. Inside every function in the
/// [`is_hot_path_fn_name`] families (the caller-provides-storage
/// `*_into`/`*_scratch`/`*_row` suffixes and the in-place GEMM kernel
/// layer, `matmul_*`/`pack_*`/`accumulate_*`) in [`HOT_PATH_CRATES`],
/// these are banned: `Vec::new`, `vec![..]`, `.to_vec()`, `.clone()`,
/// `.collect(..)`.
fn hot_path_alloc(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    if !HOT_PATH_CRATES.contains(&file.crate_name.as_str()) {
        return;
    }
    let toks = &file.toks;
    let mut i = 0;
    while i < toks.len() {
        let is_hot_fn = toks[i].kind == TokKind::Ident
            && toks[i].text == "fn"
            && toks
                .get(i + 1)
                .is_some_and(|n| n.kind == TokKind::Ident && is_hot_path_fn_name(&n.text))
            && !file.in_test(i);
        if !is_hot_fn {
            i += 1;
            continue;
        }
        let fn_name = toks[i + 1].text.clone();
        // The body is the first brace block after the signature (a `;`
        // first means a trait declaration without a body).
        let mut j = i + 2;
        let mut body_end = None;
        while j < toks.len() {
            match toks[j].text.as_str() {
                "{" => {
                    body_end = matching(toks, j, "{", "}");
                    break;
                }
                ";" => break,
                _ => j += 1,
            }
        }
        let Some(end) = body_end else {
            i = j + 1;
            continue;
        };
        for k in j..=end {
            if let Some(what) = alloc_construct(toks, k) {
                out.push(file.diag(
                    HOT_PATH_ALLOC,
                    Severity::Error,
                    toks[k].line,
                    format!(
                        "{what} inside hot-path fn `{fn_name}`: the `*_into`/`*_scratch`/`*_row` \
                         and kernel (`matmul_*`/`pack_*`/`accumulate_*`) families must \
                         reuse caller-provided storage \
                         (see the counting-allocator tests: crates/rl/tests/zero_alloc.rs, \
                         crates/core/tests/zero_alloc_step.rs)"
                    ),
                ));
            }
        }
        i = end + 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn check_src(crate_name: &str, path: &str, src: &str) -> Vec<Diagnostic> {
        let file = SourceFile::new(crate_name, path, lex(src).0);
        let mut out = Vec::new();
        for rule in registry() {
            (rule.check)(&file, &mut out);
        }
        out
    }

    #[test]
    fn test_modules_are_skipped() {
        let src = "fn ok() {}\n#[cfg(test)]\nmod tests {\n fn f(v: Vec<u8>) { v.first().expect(\"x\"); let x = v[0]; }\n}";
        let diags = check_src("core", "crates/core/src/x.rs", src);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn cfg_not_test_is_not_a_test_region() {
        let src = "#[cfg(not(test))]\nfn f(v: Vec<u8>) -> u8 { v[0] }";
        let diags = check_src("core", "crates/core/src/x.rs", src);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, PANIC_POLICY);
    }

    #[test]
    fn expect_invariant_messages_pass() {
        let src = "fn f(v: Vec<u8>) { v.first().expect(\"invariant: nonempty\"); }";
        assert!(check_src("core", "crates/core/src/x.rs", src).is_empty());
        let src = "fn f(v: Vec<u8>) { v.first().expect(\"oops\"); }";
        assert_eq!(check_src("core", "crates/core/src/x.rs", src).len(), 1);
    }

    #[test]
    fn literal_index_flags_expressions_not_types() {
        let src = "fn f(v: Vec<u8>) -> [u8; 3] { let x = v[0]; [0, 1, 2] }";
        let diags = check_src("core", "crates/core/src/x.rs", src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("[0]"));
    }

    #[test]
    fn hot_path_rule_scopes_to_families() {
        let src = "fn free() -> Vec<u8> { Vec::new() }\n\
                   fn fill_into(out: &mut Vec<u8>) { let v = Vec::new(); }";
        let diags = check_src("nn", "crates/nn/src/x.rs", src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("fill_into"));
    }
}
