//! One module per table/figure of the paper's evaluation.
//!
//! | Module | Paper artifact |
//! |---|---|
//! | [`fig4`] | Figure 4 — speedup normalized to NoCache + MPKI |
//! | [`fig5`] | Figure 5 — in-package DRAM traffic breakdown |
//! | [`fig6`] | Figure 6 — off-package DRAM traffic |
//! | [`fig7`] | Figure 7 — replacement-policy ablation |
//! | [`fig8`] | Figure 8 — DRAM cache latency / bandwidth sweep |
//! | [`fig9`] | Figure 9 — sampling-coefficient sweep |
//! | [`table1`] | Table 1 — per-access traffic behaviour of each design |
//! | [`table5`] | Table 5 — page-table update overhead |
//! | [`table6`] | Table 6 — associativity vs. miss rate |
//! | [`large_pages`] | Section 5.4.1 — 2 MiB large pages |
//! | [`batman`] | Section 5.4.2 — bandwidth balancing |
//! | [`scenario`] | Data-driven scenario files (`experiments scenario FILE...`) |

pub mod batman;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod large_pages;
pub mod scenario;
pub mod table1;
pub mod table5;
pub mod table6;

use crate::runner::{ExperimentScale, MatrixResults, Runner};
use banshee_dcache::DramCacheDesign;
use banshee_workloads::{GraphKernel, SpecProgram, WorkloadKind};

/// The full Figure 4/5/6 workload suite (16 workloads).
pub fn full_suite() -> Vec<WorkloadKind> {
    WorkloadKind::figure4_suite()
}

/// A representative subset used for parameter sweeps (Figures 8/9, Tables
/// 5/6) to keep sweep runtimes manageable: three graph kernels spanning the
/// traffic spectrum plus three SPEC programs with contrasting locality.
pub fn sweep_suite() -> Vec<WorkloadKind> {
    vec![
        WorkloadKind::Graph(GraphKernel::PageRank),
        WorkloadKind::Graph(GraphKernel::Graph500),
        WorkloadKind::Spec(SpecProgram::Mcf),
        WorkloadKind::Spec(SpecProgram::Lbm),
        WorkloadKind::Spec(SpecProgram::Omnetpp),
        WorkloadKind::Spec(SpecProgram::Libquantum),
    ]
}

/// Run the designs × workloads matrix shared by Figures 4, 5 and 6.
pub fn run_main_matrix(runner: &Runner) -> MatrixResults {
    runner.run_matrix(&DramCacheDesign::figure4_lineup(), &full_suite())
}

/// All experiment names accepted by the `experiments` binary.
pub const EXPERIMENT_NAMES: [&str; 12] = [
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "table1",
    "table5",
    "table6",
    "large_pages",
    "batman",
    "all",
];

/// Resolve the scale from CLI-style flags.
pub fn scale_from_flags(quick: bool, smoke: bool) -> ExperimentScale {
    if smoke {
        ExperimentScale::Smoke
    } else if quick {
        ExperimentScale::Quick
    } else {
        ExperimentScale::Standard
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suites_have_expected_sizes() {
        assert_eq!(full_suite().len(), 16);
        assert_eq!(sweep_suite().len(), 6);
        assert!(EXPERIMENT_NAMES.contains(&"fig4"));
        assert!(EXPERIMENT_NAMES.contains(&"all"));
    }

    #[test]
    fn scale_flags() {
        assert_eq!(scale_from_flags(false, false), ExperimentScale::Standard);
        assert_eq!(scale_from_flags(true, false), ExperimentScale::Quick);
        assert_eq!(scale_from_flags(true, true), ExperimentScale::Smoke);
    }
}
