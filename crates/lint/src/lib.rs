//! # edgeslice-lint
//!
//! A self-contained static analyzer for the EdgeSlice workspace's project
//! invariants that rustc and clippy cannot check. Those that they can —
//! no wall clock or hash-order collection in the seeded crates, no
//! `unwrap`/`panic!` on the coordinator path, no float equality, no
//! `unsafe`, no undocumented public item, a distinct tag per RNG stream
//! (the `Stream` enum's discriminants), no unnamed RNG stream (a banned
//! `seed_from_u64`), frame tags in lockstep with `WireMsg` (the `Tag`
//! enum and exhaustive matches), no wildcard arm over `WireMsg` — are
//! lint configuration (`[workspace.lints]`, the crates' `clippy.toml`
//! files and crate-root attributes) or types (DESIGN.md §11). What is
//! left is three per-file rules:
//!
//! | rule | invariant | scope |
//! |---|---|---|
//! | `panic-policy` | coordinator code returns typed errors: no literal indexing, and every `expect` states an `invariant: ...` | `runtime`, `core` |
//! | `hot-path-alloc` | the `*_into`/`*_scratch`/`*_row` and kernel families reuse caller storage | `nn`, `rl`, `optim`, `netsim`, `core` |
//! | `frame-protocol` | no wildcard arm (`_`, a binding, or either inside `Ok(..)`/`Some(..)`) in a match whose arms name `WireMsg` — the `Result`/`Option` scrutinees clippy's `wildcard_enum_match_arm` skips | every crate |
//!
//! and two **cross-file passes** over the whole workspace, which need its
//! symbol table and approximate call graph (see [`graph`]):
//!
//! | rule | invariant | scope |
//! |---|---|---|
//! | `transitive-alloc` | a hot-path function (`*_into`, `*_scratch`, `*_row`, `matmul_*`, …) must not *reach* an allocating function at any call depth | `nn`, `rl`, `optim`, `netsim`, `core` |
//! | `dead-pub` | a library's `pub fn`/`const`/`static` is named by code outside it (other crates, bins, tests, examples, the benchmark, doc code blocks); otherwise it becomes `pub(crate)` | every library, on the workspace walk only |
//!
//! All rules skip `#[cfg(test)]` / `#[test]` regions. A finding can be
//! waived inline with a **justified** suppression on the offending line or
//! the line above it:
//!
//! ```text
//! // lint:allow(hot-path-alloc): the testbed arm re-configures its models by design
//! let shares = shares.collect::<Vec<_>>();
//! ```
//!
//! (`lint:allow-file(rule): why` waives a rule for a whole file.)
//! Suppressions without a justification are themselves an error
//! (`suppression-hygiene`) — the allow is the audit trail. An allow that
//! no longer suppresses anything is *also* an error: stale suppressions
//! are drift, and drift is what the analyzer exists to catch.
//!
//! Run it as `cargo run -p edgeslice-lint -- --workspace` (add
//! `--format json` for machine-readable output, `--jobs N` to bound the
//! parallel scan phase); the process exits non-zero when any unsuppressed
//! error-severity finding remains. The lexer and item parser are
//! hand-rolled (token-level, no `syn`): the build environment is
//! offline, and the analyzer must never be broken by the code it checks.

#![cfg_attr(not(test), deny(clippy::float_cmp))]

pub mod diag;
pub mod driver;
pub mod graph;
pub mod lexer;
pub mod parse;
pub mod rules;

mod dead_pub;

pub use diag::{Diagnostic, Severity, Suppression};
pub use driver::{
    analyze_source, find_workspace_root, run, run_with_jobs, workspace_files, FileSpec, LintError,
    Report,
};
pub use rules::{cross_registry, registry, CrossRule, Rule, SourceFile};
