//! Per-benchmark parameterizations of the two-region synthetic model for the
//! SPEC CPU2006 programs the paper uses (Section 5.1.2 and Table 4).
//!
//! The parameters are calibrated from the qualitative characterizations in
//! the paper itself (and the general literature on these benchmarks):
//!
//! * `lbm` — streaming stencil with excellent intra-page spatial locality but
//!   little page reuse ("a page is only accessed a small number of times
//!   before it gets evicted", Section 5.2), which is exactly the pattern that
//!   punishes selective caching.
//! * `bwaves`, `libquantum`, `leslie`, `gems` — bandwidth-hungry streaming
//!   HPC codes with large footprints.
//! * `mcf`, `omnetpp` — pointer-chasing with poor spatial locality
//!   (Section 5.2 calls out the lack of spatial locality for `omnetpp`);
//!   `mcf` has a very large footprint with a hot core.
//! * `milc` — large sparse lattice arrays, poor spatial locality.
//! * `soplex`, `gcc`, `bzip2`, `cactus` — moderate intensity with a clear hot
//!   working set, so a well-managed DRAM cache captures them well.

use crate::synthetic::{SyntheticParams, SyntheticTrace};
use crate::trace::TraceGenerator;
use serde::{Deserialize, Serialize};

/// The SPEC CPU2006 programs used by the paper (alone or in mixes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[allow(missing_docs, reason = "variants are the SPEC program names")]
pub enum SpecProgram {
    Bwaves,
    Lbm,
    Mcf,
    Omnetpp,
    Libquantum,
    Gcc,
    Milc,
    Soplex,
    Gems,
    Bzip2,
    Leslie,
    Cactus,
}

impl SpecProgram {
    /// Every program the model knows, including the mix-only ones.
    pub const ALL: [SpecProgram; 12] = [
        SpecProgram::Bwaves,
        SpecProgram::Lbm,
        SpecProgram::Mcf,
        SpecProgram::Omnetpp,
        SpecProgram::Libquantum,
        SpecProgram::Gcc,
        SpecProgram::Milc,
        SpecProgram::Soplex,
        SpecProgram::Gems,
        SpecProgram::Bzip2,
        SpecProgram::Leslie,
        SpecProgram::Cactus,
    ];

    /// All programs that appear in the homogeneous Figure 4/5/6 lineup.
    pub const FIGURE4: [SpecProgram; 8] = [
        SpecProgram::Bwaves,
        SpecProgram::Lbm,
        SpecProgram::Mcf,
        SpecProgram::Omnetpp,
        SpecProgram::Libquantum,
        SpecProgram::Gcc,
        SpecProgram::Milc,
        SpecProgram::Soplex,
    ];

    /// The benchmark's display name (lowercase, as the paper prints it).
    pub fn name(&self) -> &'static str {
        match self {
            SpecProgram::Bwaves => "bwaves",
            SpecProgram::Lbm => "lbm",
            SpecProgram::Mcf => "mcf",
            SpecProgram::Omnetpp => "omnetpp",
            SpecProgram::Libquantum => "libquantum",
            SpecProgram::Gcc => "gcc",
            SpecProgram::Milc => "milc",
            SpecProgram::Soplex => "soplex",
            SpecProgram::Gems => "gems",
            SpecProgram::Bzip2 => "bzip2",
            SpecProgram::Leslie => "leslie",
            SpecProgram::Cactus => "cactus",
        }
    }

    /// Relative footprint of this program compared to the workload's
    /// per-core footprint budget (1.0 = exactly the budget).
    pub fn footprint_factor(&self) -> f64 {
        match self {
            SpecProgram::Mcf => 1.6,
            SpecProgram::Libquantum => 1.4,
            SpecProgram::Lbm => 1.3,
            SpecProgram::Bwaves => 1.2,
            SpecProgram::Milc => 1.2,
            SpecProgram::Gems => 1.1,
            SpecProgram::Leslie => 1.0,
            SpecProgram::Soplex => 0.9,
            SpecProgram::Cactus => 0.9,
            SpecProgram::Omnetpp => 0.8,
            SpecProgram::Gcc => 0.6,
            SpecProgram::Bzip2 => 0.5,
        }
    }

    /// The two-region parameters for this program, given a per-core
    /// footprint budget in bytes.
    pub fn params(&self, footprint_budget: u64) -> SyntheticParams {
        let footprint = ((footprint_budget as f64 * self.footprint_factor()) as u64).max(2 * 4096);
        let mut p = SyntheticParams::base(self.name(), footprint);
        match self {
            SpecProgram::Lbm => {
                // Pure streaming, excellent spatial locality, minimal reuse.
                p.streaming_fraction = 0.95;
                p.streaming_access_fraction = 0.95;
                p.streaming_burst_lines = 64;
                p.zipf_exponent = 0.2;
                p.lines_per_visit = 8;
                p.mean_inst_gap = 3;
                p.write_fraction = 0.45;
            }
            SpecProgram::Bwaves => {
                p.streaming_fraction = 0.8;
                p.streaming_access_fraction = 0.8;
                p.streaming_burst_lines = 48;
                p.zipf_exponent = 0.6;
                p.lines_per_visit = 8;
                p.mean_inst_gap = 3;
                p.write_fraction = 0.3;
            }
            SpecProgram::Libquantum => {
                p.streaming_fraction = 0.9;
                p.streaming_access_fraction = 0.85;
                p.streaming_burst_lines = 64;
                p.zipf_exponent = 0.5;
                p.lines_per_visit = 16;
                p.mean_inst_gap = 2;
                p.write_fraction = 0.25;
            }
            SpecProgram::Mcf => {
                // Pointer chasing over a big graph with a hot core.
                p.streaming_fraction = 0.2;
                p.streaming_access_fraction = 0.15;
                p.zipf_exponent = 0.95;
                p.lines_per_visit = 2;
                p.mean_inst_gap = 3;
                p.write_fraction = 0.25;
            }
            SpecProgram::Omnetpp => {
                // Discrete-event simulation: poor spatial locality, skewed
                // event structures.
                p.streaming_fraction = 0.1;
                p.streaming_access_fraction = 0.1;
                p.zipf_exponent = 1.0;
                p.lines_per_visit = 1;
                p.mean_inst_gap = 5;
                p.write_fraction = 0.35;
            }
            SpecProgram::Milc => {
                p.streaming_fraction = 0.4;
                p.streaming_access_fraction = 0.35;
                p.zipf_exponent = 0.4;
                p.lines_per_visit = 2;
                p.mean_inst_gap = 4;
                p.write_fraction = 0.35;
            }
            SpecProgram::Gcc => {
                p.streaming_fraction = 0.3;
                p.streaming_access_fraction = 0.3;
                p.zipf_exponent = 1.1;
                p.lines_per_visit = 4;
                p.mean_inst_gap = 8;
                p.write_fraction = 0.3;
            }
            SpecProgram::Soplex => {
                p.streaming_fraction = 0.5;
                p.streaming_access_fraction = 0.45;
                p.zipf_exponent = 0.9;
                p.lines_per_visit = 4;
                p.mean_inst_gap = 5;
                p.write_fraction = 0.25;
            }
            SpecProgram::Gems => {
                p.streaming_fraction = 0.7;
                p.streaming_access_fraction = 0.7;
                p.streaming_burst_lines = 32;
                p.zipf_exponent = 0.6;
                p.mean_inst_gap = 4;
                p.write_fraction = 0.3;
            }
            SpecProgram::Bzip2 => {
                p.streaming_fraction = 0.5;
                p.streaming_access_fraction = 0.5;
                p.zipf_exponent = 1.0;
                p.lines_per_visit = 8;
                p.mean_inst_gap = 10;
                p.write_fraction = 0.4;
            }
            SpecProgram::Leslie => {
                p.streaming_fraction = 0.75;
                p.streaming_access_fraction = 0.75;
                p.streaming_burst_lines = 32;
                p.zipf_exponent = 0.5;
                p.mean_inst_gap = 4;
                p.write_fraction = 0.35;
            }
            SpecProgram::Cactus => {
                p.streaming_fraction = 0.6;
                p.streaming_access_fraction = 0.55;
                p.zipf_exponent = 0.8;
                p.lines_per_visit = 4;
                p.mean_inst_gap = 6;
                p.write_fraction = 0.3;
            }
        }
        p
    }

    /// Build a trace generator for this program.
    pub fn build(
        &self,
        footprint_budget: u64,
        base_vaddr: u64,
        seed: u64,
    ) -> Box<dyn TraceGenerator> {
        Box::new(SyntheticTrace::new(
            self.params(footprint_budget),
            base_vaddr,
            seed,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn every_program_has_distinct_name() {
        let all = [
            SpecProgram::Bwaves,
            SpecProgram::Lbm,
            SpecProgram::Mcf,
            SpecProgram::Omnetpp,
            SpecProgram::Libquantum,
            SpecProgram::Gcc,
            SpecProgram::Milc,
            SpecProgram::Soplex,
            SpecProgram::Gems,
            SpecProgram::Bzip2,
            SpecProgram::Leslie,
            SpecProgram::Cactus,
        ];
        let names: BTreeSet<_> = all.iter().map(|p| p.name()).collect();
        assert_eq!(names.len(), all.len());
    }

    #[test]
    fn figure4_lineup_has_eight_programs() {
        assert_eq!(SpecProgram::FIGURE4.len(), 8);
    }

    #[test]
    fn parameters_reflect_characterization() {
        let budget = 16 << 20;
        let lbm = SpecProgram::Lbm.params(budget);
        let omnetpp = SpecProgram::Omnetpp.params(budget);
        // lbm streams; omnetpp pointer-chases.
        assert!(lbm.streaming_access_fraction > 0.9);
        assert!(omnetpp.streaming_access_fraction < 0.2);
        // omnetpp touches single lines per page visit (poor spatial
        // locality); lbm touches long runs.
        assert!(omnetpp.lines_per_visit <= 2);
        assert!(lbm.streaming_burst_lines >= 32);
        // mcf has the largest footprint of the suite.
        let mcf = SpecProgram::Mcf.params(budget);
        assert!(mcf.footprint_bytes > lbm.footprint_bytes);
    }

    #[test]
    fn generators_build_and_run() {
        for prog in SpecProgram::FIGURE4 {
            let mut gen = prog.build(4 << 20, 0x1000_0000, 1);
            assert_eq!(gen.name(), prog.name());
            for _ in 0..100 {
                let a = gen.next_access();
                assert!(a.vaddr.raw() >= 0x1000_0000);
            }
            assert!(gen.footprint_bytes() >= 2 * 4096);
        }
    }
}
