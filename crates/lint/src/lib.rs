//! # edgeslice-lint
//!
//! A self-contained static analyzer enforcing the EdgeSlice workspace's
//! project invariants — the guarantees the last PRs bought dynamically,
//! held statically:
//!
//! | rule | invariant | scope |
//! |---|---|---|
//! | `determinism` | workers are pure functions of `(master_seed, ra, round)`: no wall clock, OS entropy, or hash-order iteration | `runtime`, `core`, `netsim` (clock module exempt) |
//! | `panic-policy` | the Supervisor catches *worker* panics; coordinator code returns typed errors | `runtime`, `core` |
//! | `hot-path-alloc` | the `*_into`/`*_scratch` training families reuse caller storage | `nn`, `rl` |
//! | `crate-header` | every crate root carries `#![forbid(unsafe_code)]` + `#![deny(missing_docs)]` | all crates |
//! | `float-eq` | no `==`/`!=` against float literals | all crates |
//!
//! On top of the per-file rules, four **cross-file passes** run over the
//! whole workspace — the first three over a symbol table and approximate
//! call graph (see [`graph`]):
//!
//! | rule | invariant | scope |
//! |---|---|---|
//! | `rng-stream-separation` | every `*_STREAM_TAG`/`DOMAIN_*` constant is unique workspace-wide, and every seed-derivation site folds in exactly one *named* tag (no literal tags, no tag reuse) | `runtime`, `core`, `netsim` |
//! | `frame-protocol` | the `TAG_*` wire constants and `WireMsg` variants stay in sync, and every match over decoded frames names each variant — no wildcard arm silently swallowing a tag | `runtime` |
//! | `transitive-alloc` | a hot-path function (`*_into`, `*_scratch`, `matmul_*`, …) must not *reach* an allocating function at any call depth | `nn`, `rl` |
//! | `dead-pub` | a library's `pub fn`/`const`/`static` is named by code outside it (other crates, bins, tests, examples, the benchmark, doc code blocks); otherwise it becomes `pub(crate)` | every library, on the workspace walk only |
//!
//! All rules skip `#[cfg(test)]` / `#[test]` regions. A finding can be
//! waived inline with a **justified** suppression on the offending line or
//! the line above it:
//!
//! ```text
//! // lint:allow(float-eq): exact-zero is the disabled-jitter sentinel
//! if self.jitter == 0.0 { ... }
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

#![forbid(unsafe_code)]
#![deny(missing_docs)]

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
