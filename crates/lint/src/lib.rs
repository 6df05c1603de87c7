//! Self-hosted static analysis for the trace-preconstruction
//! workspace.
//!
//! Every scaling claim this repo makes — bit-identical sweeps across
//! `--jobs`, content-addressed cell caching, fault schedules as pure
//! functions of (plan, cycle) — rests on invariants that `clippy`
//! cannot express. This crate parses the workspace's **own** Rust
//! source with a hand-rolled lexer and token-tree parser (std-only,
//! offline, no `syn`) and enforces them statically:
//!
//! * **Determinism** ([`rules::determinism`]) — no `HashMap`/
//!   `HashSet`, wall clocks, thread identity, or pointer-value
//!   formatting in production paths that feed `SimStats`, the
//!   result store, or reports.
//! * **Panic hygiene** ([`rules::panics`]) — no `unwrap`/`expect`/
//!   `panic!` and no uncommented indexing in the sweep-worker, store
//!   and daemon paths, where `catch_unwind` containment requires
//!   panics to be exceptional.
//! * **Hot-path arithmetic** ([`rules::arith`]) — narrowing casts in
//!   the per-cycle simulator loop need explicit justification.
//! * **Cross-file conformance** ([`rules::conformance`]) — the
//!   `SimStats` 62-word codec, `FaultKind`/`FaultStats`/chaos
//!   coverage, the service wire protocol across
//!   `spec.rs`/`client.rs`/`server.rs`, and `--jobs` on every
//!   experiment bin.
//!
//! Suppressions live in `lint_allow.txt` at the workspace root; every
//! entry carries a mandatory written justification and goes stale
//! (hard error) the moment its finding disappears. The `tpc_lint`
//! binary is a hard gate in `scripts/verify.sh` and writes per-rule
//! counts to `BENCH_lint.json`.
//!
//! The linter lints itself: `crates/lint/src` is part of the scanned
//! workspace and plays by the same rules.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod allowlist;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod tree;
pub mod workspace;

pub use report::Finding;
pub use workspace::Workspace;
