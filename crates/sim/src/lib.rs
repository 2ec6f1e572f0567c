//! The multi-core system simulator that hosts the DRAM-cache designs.
//!
//! This is the reproduction's stand-in for ZSim (Section 5.1): a
//! trace-driven, timing-approximate model of the Table 2 machine —
//! 16 four-issue cores with private L1/L2 caches, a shared LLC, per-core
//! TLBs backed by one OS page table, and two DRAM devices (in-package and
//! off-package) with channel/bank/bus timing.
//!
//! The design focus is the one the paper's conclusions rest on: **DRAM
//! bandwidth**. Cores tolerate memory latency up to a bounded number of
//! outstanding LLC misses (an MLP window); past that they stall, so designs
//! that burn bandwidth on tags, speculative loads and page replacement slow
//! the machine down exactly the way the paper describes. See `DESIGN.md` for
//! the full substitution argument.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod config;
pub mod core_model;
pub mod factory;
pub mod result;
pub mod system;

pub use config::SimConfig;
pub use factory::build_controller;
pub use result::SimResult;
pub use system::{run_one, System};
