//! Sweep service for the trace-preconstruction simulator.
//!
//! This crate turns the batch sweep machinery of `tpc-experiments`
//! into a long-running **daemon**: a Unix-domain-socket server that
//! accepts sweep requests as line-delimited JSON, runs the cells
//! through the one sweep entry point, [`tpc_experiments::run_cells`],
//! and streams results back as they resolve:
//!
//! * **Memoization** — completed cells are recorded in the
//!   content-addressed [`ResultCache`] keyed by cell fingerprint, so
//!   overlapping sweeps replay cached cells for free, across daemon
//!   restarts and even a SIGKILL mid-write (torn-line tolerance).
//!   Cached cells are answered first.
//! * **Containment** — every miss runs once on the worker pool under
//!   panic containment and a cycle-budget watchdog
//!   ([`tpc_experiments::CellBudget`]); a panicking or wedged cell
//!   lands in the sweep's error manifest next to the partial results,
//!   and the sweep always completes.
//! * **Self-chaos** — the `chaos_service` binary feeds the daemon
//!   panicking and starved cells, injects cache-write failures, tears
//!   cache files and SIGKILLs the daemon, then asserts the merged
//!   results are bit-identical to a clean serial
//!   [`tpc_experiments::run_cells`] reference.
//!
//! There is no retry layer: simulations are deterministic and the
//! watchdog counts cycles, so a failed cell would fail identically
//! again. Everything is `std`-only and offline.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod json;
pub mod server;
pub mod spec;

pub use client::{digest_results, Client, ManifestEntry, SweepReport};
pub use json::Json;
pub use server::{serve, ServerOptions};
pub use spec::{CellSpec, ChaosPlan, ConfigSpec, SweepRequest};
pub use tpc_experiments::{CacheStats, ResultCache};
