//! The experiment-execution engine.
//!
//! The paper's evidence is an experiment matrix (designs × workloads ×
//! scales); every cell is an independent, deterministic simulation, so the
//! matrix is embarrassingly parallel. This crate supplies the two pieces the
//! harness needs to exploit that:
//!
//! * [`JobPool`] — a dependency-free, `std::thread::scope`-based job engine
//!   that fans a list of jobs across `N` workers. Results come back in
//!   **input order** regardless of completion order, per-job panics are
//!   captured instead of tearing down the sweep, and a progress callback
//!   reports each completion.
//! * [`ResultStore`] — a persistent, content-addressed result cache. Each
//!   job's key material (a canonical description of everything that affects
//!   its outcome) is hashed to a file under the store directory; re-runs and
//!   interrupted sweeps resume by skipping completed cells. Corrupted or
//!   mismatching entries are treated as misses and recomputed.
//!
//! `banshee_bench` builds its `Runner` on top of both; see the `--jobs` and
//! `--no-store` flags of the `experiments` binary.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod pool;
pub mod store;

pub use pool::{Completion, JobOutput, JobPanic, JobPool};
pub use store::{ResultStore, STORE_FORMAT};
