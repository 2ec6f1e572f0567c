//! Synthetic workloads reproducing the memory behaviour of the paper's
//! benchmark suite (Section 5.1.2).
//!
//! The paper evaluates SPEC CPU2006 benchmarks with large memory footprints
//! (homogeneous copies and three mixes, Table 4) and the multi-threaded graph
//! analytics workloads of the IMP suite (pagerank, triangle counting,
//! graph500/BFS, SGD, LSH). We cannot redistribute those binaries, so each
//! benchmark is replaced by a deterministic address-stream generator that
//! reproduces the properties a DRAM cache can observe:
//!
//! * memory intensity (memory accesses per instruction),
//! * total footprint,
//! * hot-page skew (how concentrated accesses are on a small set of pages),
//! * intra-page spatial locality (how many lines of a page are touched per
//!   visit),
//! * the streaming vs. pointer-chasing mix, and
//! * the store fraction.
//!
//! SPEC-like programs use the two-region model of [`synthetic`]; graph
//! workloads actually walk a synthetic power-law graph in CSR form
//! ([`graph`]), which produces the characteristic mix of sequential
//! edge-array scans and degree-skewed vertex gathers.
//!
//! See `DESIGN.md` ("Substitutions") for why this preserves the behaviours
//! the paper's figures depend on.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod graph;
pub mod kv;
pub mod mix;
pub mod phased;
pub mod scenario;
pub mod spec;
pub mod synthetic;
pub mod trace;
pub mod trace_file;
pub mod workload;

pub use graph::{GraphKernel, GraphKernelTrace, SyntheticGraph};
pub use kv::{KeyValueParams, KeyValueTrace};
pub use mix::SpecMix;
pub use phased::{PhasedParams, PhasedTrace};
pub use scenario::{
    DramPagePolicyOverride, ScenarioError, ScenarioOverrides, ScenarioSpec, ScenarioSweep,
    ScenarioTelemetry, ScenarioWorkloadEntry, ScenarioWorkloadInstance, ScenarioWorkloadSpec,
};
pub use spec::SpecProgram;
pub use synthetic::{SyntheticParams, SyntheticTrace};
pub use trace::{MemoryAccess, TraceCursor, TraceFactory, TraceGenerator};
pub use trace_file::{TraceData, TraceFileError, TraceReplay, TraceStream};
pub use workload::{Workload, WorkloadKind};
