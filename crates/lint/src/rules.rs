//! The rule registry and the five project-invariant rules.
//!
//! Each rule is a pure function over a [`SourceFile`] (pre-lexed tokens +
//! test-region map). Rules are scoped by crate name, so the registry — not
//! the call sites — decides where an invariant applies. To add a rule:
//! write a `fn my_rule(file: &SourceFile, out: &mut Vec<Diagnostic>)`,
//! append a [`Rule`] entry to [`registry`], and add a bad/clean fixture
//! pair under `tests/fixtures/` (see DESIGN.md §11).

use crate::diag::{Diagnostic, Severity};
use crate::lexer::{Tok, TokKind};
use crate::parse::matching;

/// Rule name for the determinism invariant (see [`determinism`]).
pub(crate) const DETERMINISM: &str = "determinism";
/// Rule name for the panic policy (see [`panic_policy`]).
pub(crate) const PANIC_POLICY: &str = "panic-policy";
/// Rule name for hot-path allocation discipline (see [`hot_path_alloc`]).
pub(crate) const HOT_PATH_ALLOC: &str = "hot-path-alloc";
/// Rule name for crate-root header hygiene (see [`crate_header`]).
pub(crate) const CRATE_HEADER: &str = "crate-header";
/// Rule name for float equality comparisons (see [`float_eq`]).
pub(crate) const FLOAT_EQ: &str = "float-eq";
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

/// Crates whose non-test code must be a pure function of its seeds:
/// the per-RA worker loop, the coordinator, and the network simulation.
pub(crate) const DETERMINISM_CRATES: &[&str] = &["runtime", "core", "netsim"];
/// The only modules allowed to touch the wall clock: the runtime's
/// deadline machinery (`clock.rs`, where every read goes through the
/// mockable [`Clock`] seam) and the transport layer (`transport.rs`,
/// whose socket timeouts and retry backoff are I/O pacing — they bound
/// *when* bytes move, never *what* the coordination computes, so
/// byte-identity across transports is preserved). Registration and the
/// networked coordinator are deliberately NOT here: their lease
/// accounting is round-counted, and any wall-clock backstop they need is
/// injected through `Clock`.
const WALL_CLOCK_QUARANTINE: &[&str] = &[
    "crates/runtime/src/clock.rs",
    "crates/runtime/src/transport.rs",
];
/// Crates whose non-test code must not panic: a coordinator panic takes
/// the whole system down — the Supervisor only catches *worker* panics.
const PANIC_CRATES: &[&str] = &["runtime", "core"];
/// Crates carrying a zero-allocation hot path: the training step (`nn`,
/// `rl`) and the agent step of the round loop — `core`'s `*_into` /
/// `*_scratch` worker and environment calls, `netsim`'s dataset model
/// under them, and the `optim` least-squares fit under that.
pub(crate) const HOT_PATH_CRATES: &[&str] = &["nn", "rl", "optim", "netsim", "core"];

/// A pre-lexed source file plus the context rules need to scope
/// themselves: owning crate, path, whether it is a crate root, and which
/// token ranges are test code.
pub struct SourceFile {
    /// The owning workspace crate's short name (`runtime`, `core`, `nn`,
    /// ...; the root package is `repro`).
    pub crate_name: String,
    /// Workspace-relative path with forward slashes.
    pub rel_path: String,
    /// Whether this file is the package's primary crate root (`lib.rs`).
    pub is_crate_root: bool,
    /// The token stream.
    pub toks: Vec<Tok>,
    /// Sorted, disjoint half-open token-index ranges that are test code
    /// (`#[cfg(test)]` / `#[test]` items).
    test_spans: Vec<(usize, usize)>,
}

impl SourceFile {
    /// Builds a `SourceFile`, computing the test-region map.
    pub fn new(
        crate_name: impl Into<String>,
        rel_path: impl Into<String>,
        is_crate_root: bool,
        toks: Vec<Tok>,
    ) -> Self {
        let test_spans = test_spans(&toks);
        Self {
            crate_name: crate_name.into(),
            rel_path: rel_path.into(),
            is_crate_root,
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
            name: DETERMINISM,
            severity: Severity::Error,
            description: "no wall clock, OS randomness, or hash-order iteration in \
                          runtime/core/netsim non-test code (clock module excepted)",
            check: determinism,
        },
        Rule {
            name: PANIC_POLICY,
            severity: Severity::Error,
            description: "no unwrap/panic!/literal indexing in runtime/core non-test code; \
                          expect() must state an `invariant: ...` message",
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
        Rule {
            name: CRATE_HEADER,
            severity: Severity::Error,
            description: "every crate root must carry #![forbid(unsafe_code)] and \
                          #![deny(missing_docs)]",
            check: crate_header,
        },
        Rule {
            name: FLOAT_EQ,
            severity: Severity::Error,
            description: "no ==/!= against float literals outside tests (bit-exact \
                          comparisons need a written justification)",
            check: float_eq,
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

/// Rule 1 — determinism. Reproducible coordination requires every worker
/// to be a pure function of `(master_seed, ra, round)`; wall-clock reads,
/// OS entropy, and hash-order iteration all break byte-identical
/// Threaded==Sequential runs. Banned in [`DETERMINISM_CRATES`] non-test
/// code: `Instant::now`, `SystemTime`, `thread_rng`, and any
/// `HashMap`/`HashSet` use (their iteration order is unstable across
/// processes — use `BTreeMap`/`BTreeSet` or a sorted `Vec`). The
/// quarantined clock and transport modules ([`WALL_CLOCK_QUARANTINE`])
/// are exempt.
fn determinism(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    if !DETERMINISM_CRATES.contains(&file.crate_name.as_str()) {
        return;
    }
    if WALL_CLOCK_QUARANTINE.contains(&file.rel_path.as_str()) {
        return;
    }
    let toks = &file.toks;
    for i in 0..toks.len() {
        if file.in_test(i) || toks[i].kind != TokKind::Ident {
            continue;
        }
        let t = &toks[i];
        let mk = |msg: String| file.diag(DETERMINISM, Severity::Error, t.line, msg);
        match t.text.as_str() {
            "Instant" if path_call(toks, i, "now") => out.push(mk(
                "`Instant::now()` outside the clock module: wall-clock reads make rounds \
                 depend on scheduling, breaking Threaded==Sequential bit-identity \
                 (use edgeslice-runtime's `clock` module)"
                    .into(),
            )),
            "SystemTime" => out.push(mk(
                "`SystemTime` in deterministic code: wall-clock state is not a function \
                 of the seed"
                    .into(),
            )),
            "thread_rng" => out.push(mk(
                "`thread_rng()` draws OS entropy: derive a seeded `StdRng` stream from \
                 `(master_seed, ra, round)` instead"
                    .into(),
            )),
            "HashMap" | "HashSet" => out.push(mk(format!(
                "`{}` iteration order is nondeterministic across processes: use \
                 `BTreeMap`/`BTreeSet` or a sorted `Vec`",
                t.text
            ))),
            _ => {}
        }
    }
}

/// Whether `toks[i]` is followed by `:: name` (e.g. `Instant :: now`).
fn path_call(toks: &[Tok], i: usize, name: &str) -> bool {
    toks.get(i + 1).is_some_and(|t| t.text == "::")
        && toks.get(i + 2).is_some_and(|t| t.text == name)
}

/// Rule 2 — panic policy. The Supervisor exists to catch *worker* panics;
/// a panic on the coordinator path takes the whole system down with no
/// typed error for callers. Banned in [`PANIC_CRATES`] non-test code:
/// `.unwrap()`, `panic!` / `todo!` / `unimplemented!`, indexing by an
/// integer literal (`xs[0]` — use `.first()` / `.get(..)` and handle the
/// miss), and `.expect(..)` unless its message is a string literal
/// starting with `invariant:` (an expect that documents *why* it cannot
/// fire is an assertion, not error handling).
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
            (TokKind::Ident, "unwrap") if prev_is(toks, i, ".") && next_is(toks, i, "(") => {
                out.push(mk(
                    "`.unwrap()` on the coordinator path: return a typed error or use \
                     `.expect(\"invariant: ...\")` stating why this cannot fail"
                        .into(),
                ));
            }
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
            (TokKind::Ident, "panic" | "todo" | "unimplemented")
                if next_is(toks, i, "!") && !prev_is(toks, i, ".") =>
            {
                out.push(mk(format!(
                    "`{}!` on the coordinator path: coordinator panics are fatal — \
                     return a typed `EdgeSliceError` instead",
                    t.text
                )));
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
/// the batch-1 forward on a caller's row scratch) plus the PR 9
/// GEMM kernel-layer prefixes (`matmul_*`, `pack_*`, `accumulate_*`) —
/// the blocked/parallel kernels and their panel-packing helpers, whose
/// packed B panels live on the stack precisely so they never allocate.
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

/// Rule 3 — hot-path allocation discipline. PR 4's zero-allocation
/// training loop and the round loop's zero-allocation agent step are
/// proven by a counting allocator at test time; this is the static
/// complement, so a stray allocation is caught at lint time even on paths
/// the tests didn't drive. Inside every function in the
/// [`is_hot_path_fn_name`] families (the caller-provides-storage
/// `*_into`/`*_scratch` suffixes and the `matmul_*`/`pack_*`/`accumulate_*`
/// kernel layer) in [`HOT_PATH_CRATES`], these are banned: `Vec::new`,
/// `vec![..]`, `.to_vec()`, `.clone()`, `.collect(..)`.
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

/// Rule 4 — crate-header hygiene. Every workspace crate root must carry
/// `#![forbid(unsafe_code)]` and `#![deny(missing_docs)]` so the
/// guarantees hold for every crate, not just the ones that remembered
/// (`warn(missing_docs)` does not count: warnings scroll by).
fn crate_header(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    if !file.is_crate_root {
        return;
    }
    for (attr, arg) in [("forbid", "unsafe_code"), ("deny", "missing_docs")] {
        if !has_inner_attr(&file.toks, attr, arg) {
            out.push(file.diag(
                CRATE_HEADER,
                Severity::Error,
                1,
                format!("crate root is missing `#![{attr}({arg})]`"),
            ));
        }
    }
}

/// Whether the stream contains the inner attribute `#![name(arg)]`.
fn has_inner_attr(toks: &[Tok], name: &str, arg: &str) -> bool {
    toks.windows(7).any(|w| {
        w[0].text == "#"
            && w[1].text == "!"
            && w[2].text == "["
            && w[3].text == name
            && w[4].text == "("
            && w[5].text == arg
            && w[6].text == ")"
    })
}

/// Rule 5 — float equality. `==`/`!=` against a float literal is almost
/// always a rounding bug; the few legitimate bit-exact comparisons (the
/// GEMM zero-skip rule, disabled-feature sentinels) must say so with a
/// `lint:allow(float-eq): ...` justification. Token-level analysis flags
/// comparisons with a float literal on either side; variable-vs-variable
/// float comparisons need type knowledge and are left to reviewers.
fn float_eq(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    let toks = &file.toks;
    for i in 0..toks.len() {
        if file.in_test(i) {
            continue;
        }
        let t = &toks[i];
        if t.kind != TokKind::Punct || (t.text != "==" && t.text != "!=") {
            continue;
        }
        let lhs_float = i > 0 && toks[i - 1].kind == TokKind::Float;
        // Allow a unary minus before the literal on the right.
        let rhs = match toks.get(i + 1) {
            Some(n) if n.text == "-" => toks.get(i + 2),
            n => n,
        };
        let rhs_float = rhs.is_some_and(|n| n.kind == TokKind::Float);
        if lhs_float || rhs_float {
            out.push(file.diag(
                FLOAT_EQ,
                Severity::Error,
                t.line,
                format!(
                    "`{}` against a float literal: compare with a tolerance, or justify \
                     the bit-exact comparison with `lint:allow(float-eq): ...`",
                    t.text
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn check_src(crate_name: &str, path: &str, root: bool, src: &str) -> Vec<Diagnostic> {
        let file = SourceFile::new(crate_name, path, root, lex(src).0);
        let mut out = Vec::new();
        for rule in registry() {
            (rule.check)(&file, &mut out);
        }
        out
    }

    #[test]
    fn test_modules_are_skipped() {
        let src = "fn ok() {}\n#[cfg(test)]\nmod tests {\n fn f(v: Vec<u8>) { v.unwrap(); let x = v[0]; }\n}";
        let diags = check_src("core", "crates/core/src/x.rs", false, src);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn cfg_not_test_is_not_a_test_region() {
        let src = "#[cfg(not(test))]\nfn f(v: Vec<u8>) { v.unwrap(); }";
        let diags = check_src("core", "crates/core/src/x.rs", false, src);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, PANIC_POLICY);
    }

    #[test]
    fn expect_invariant_messages_pass() {
        let src = "fn f(v: Vec<u8>) { v.first().expect(\"invariant: nonempty\"); }";
        assert!(check_src("core", "crates/core/src/x.rs", false, src).is_empty());
        let src = "fn f(v: Vec<u8>) { v.first().expect(\"oops\"); }";
        assert_eq!(
            check_src("core", "crates/core/src/x.rs", false, src).len(),
            1
        );
    }

    #[test]
    fn unwrap_or_variants_do_not_fire() {
        let src = "fn f(v: Option<u8>) { v.unwrap_or(0); v.unwrap_or_default(); }";
        assert!(check_src("runtime", "crates/runtime/src/x.rs", false, src).is_empty());
    }

    #[test]
    fn clock_module_is_exempt() {
        let src = "fn now() { let t = Instant::now(); }";
        assert!(check_src("runtime", "crates/runtime/src/clock.rs", false, src).is_empty());
        assert_eq!(
            check_src("runtime", "crates/runtime/src/engine.rs", false, src).len(),
            1
        );
    }

    #[test]
    fn wall_clock_quarantine_covers_transport_but_not_registration() {
        let src = "fn now() { let t = Instant::now(); }";
        // Socket timeouts and retry backoff live in transport.rs: exempt.
        assert!(check_src("runtime", "crates/runtime/src/transport.rs", false, src).is_empty());
        // Lease accounting must be round-counted (or go through `Clock`):
        // registration.rs and net.rs stay under the determinism rule.
        assert_eq!(
            check_src("runtime", "crates/runtime/src/registration.rs", false, src).len(),
            1
        );
        assert_eq!(
            check_src("runtime", "crates/runtime/src/net.rs", false, src).len(),
            1
        );
    }

    #[test]
    fn literal_index_flags_expressions_not_types() {
        let src = "fn f(v: Vec<u8>) -> [u8; 3] { let x = v[0]; [0, 1, 2] }";
        let diags = check_src("core", "crates/core/src/x.rs", false, src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("[0]"));
    }

    #[test]
    fn hot_path_rule_scopes_to_families() {
        let src = "fn free() -> Vec<u8> { Vec::new() }\n\
                   fn fill_into(out: &mut Vec<u8>) { let v = Vec::new(); }";
        let diags = check_src("nn", "crates/nn/src/x.rs", false, src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("fill_into"));
    }

    #[test]
    fn crate_header_requires_both_attrs() {
        let src = "#![forbid(unsafe_code)]\n#![deny(missing_docs)]\n//! docs";
        assert!(check_src("bench", "crates/bench/src/lib.rs", true, src).is_empty());
        let src = "#![forbid(unsafe_code)]";
        let diags = check_src("bench", "crates/bench/src/lib.rs", true, src);
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("missing_docs"));
    }

    #[test]
    fn float_eq_flags_literal_comparisons_only() {
        let src = "fn f(x: f64) -> bool { x == 0.0 }";
        assert_eq!(
            check_src("optim", "crates/optim/src/x.rs", false, src).len(),
            1
        );
        let src = "fn f(x: f64) -> bool { (x - 1.0).abs() < 1e-12 }";
        assert!(check_src("optim", "crates/optim/src/x.rs", false, src).is_empty());
        let src = "fn f(n: usize) -> bool { n == 0 }";
        assert!(check_src("optim", "crates/optim/src/x.rs", false, src).is_empty());
    }
}
