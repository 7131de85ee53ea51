//! # dv3dlint — workspace invariants, machine-checked
//!
//! A self-contained static-analysis pass for this DV3D/UV-CDAT
//! reproduction. The system's correctness rests on invariants no compiler
//! checks: masked values must propagate through every CDAT kernel, error
//! types must stay extensible, and locks must neither cycle nor be held
//! across a blocking call. `dv3dlint` enforces them with file:line
//! diagnostics and a nonzero exit, so they are invariants of the build
//! rather than of code review. (The invariants clippy can check — no
//! panics on hot paths, deadline-aware wall I/O, crash-safe cdms writes —
//! are clippy lints in the code they guard; DESIGN.md §10.)
//!
//! Shipped rules (each a module under [`rules`], with fixture tests):
//!
//! | id                      | invariant |
//! |-------------------------|-----------|
//! | `mask_propagation`      | CDAT kernels reading raw `.data()` must consult the mask |
//! | `error_hygiene`         | public `*Error` enums are `#[non_exhaustive]` + implement `source()` |
//! | `lint_attrs`            | crate roots `#![forbid(unsafe_code)]` + opt into workspace `[lints]` |
//! | `lock_order`            | workspace lock-acquisition graph is acyclic (cycles = deadlock risk) |
//! | `guard_across_blocking` | no Mutex/RwLock guard live across blocking calls (I/O, fsync, condvar) |
//! | `nondet_reduction`      | no thread-order float accumulation or hash-order output outside `cdat::reduce` |
//! | `unbounded_growth`      | input-handling modules cap client-driven collection growth |
//!
//! The last four are powered by a two-pass dataflow engine ([`parse`] →
//! [`dataflow`] → [`callgraph`]): pass 1 models each function (bindings,
//! guards, call edges), pass 2 runs intra-procedural guard liveness plus a
//! workspace call-graph fixpoint (`may_block`, transitive lock sets).
//!
//! Escape hatch (reason mandatory; malformed directives, and directives
//! naming no rule, are themselves errors):
//!
//! ```text
//! // dv3dlint: allow(mask_propagation) -- an unmasked weights buffer
//! ```
//!
//! Run `cargo run -p dv3dlint -- --workspace` from anywhere in the repo;
//! each rule's scope (crates, files, `enabled`) lives in `dv3dlint.toml`
//! at the workspace root (an unknown section or key there is an error), what it looks for lives in the rule, and every
//! workspace run refreshes `out/dv3dlint_report.json`. Any unsuppressed
//! finding fails the run.
//!
//! The crate has no dependencies: it lexes Rust, scans items, and reads
//! the TOML subset it needs with its own machinery, one file after
//! another, so it builds before (and regardless of) the rest of the
//! workspace.

#![forbid(unsafe_code)]
// R1 (DESIGN.md §10): library code returns an error where it could panic;
// a site whose invariant rules the panic out says why in an `#[expect]`.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), deny(clippy::unreachable, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::allow_attributes_without_reason))]

pub mod callgraph;
pub mod config;
pub mod dataflow;
pub mod diag;
pub mod engine;
pub mod lexer;
pub mod model;
pub mod parse;
pub mod report;
pub mod rules;
pub mod workspace;
