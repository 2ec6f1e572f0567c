//! Table 6: DRAM-cache miss rate as a function of Banshee's associativity
//! (1, 2, 4 and 8 ways). Each cell sets `dcache.ways`; Banshee's
//! configuration derives from it (`BansheeConfig::from_dcache`).

use crate::runner::Runner;
use crate::table::{fmt_pct, write_json, Table};
use banshee_dcache::DramCacheDesign;
use banshee_workloads::WorkloadKind;
use serde::Serialize;

/// One column of Table 6.
#[derive(Debug, Clone, Serialize)]
pub struct Table6Entry {
    /// Number of ways.
    pub ways: usize,
    /// Mean DRAM-cache miss rate across the suite.
    pub miss_rate: f64,
}

/// The associativities the paper sweeps.
pub const WAYS: [usize; 4] = [1, 2, 4, 8];

/// Run the sweep as one batch through the execution engine.
pub fn run(runner: &Runner, workloads: &[WorkloadKind]) -> Vec<Table6Entry> {
    let cells: Vec<_> = WAYS
        .iter()
        .flat_map(|&ways| {
            workloads.iter().map(move |&w| {
                let mut cfg = runner.config(DramCacheDesign::Banshee);
                cfg.dcache.ways = ways;
                (cfg, w)
            })
        })
        .collect();
    let mut results = runner.run_batch(cells).into_iter();

    let mut out = Vec::new();
    for &ways in &WAYS {
        let rates: Vec<f64> = workloads
            .iter()
            .map(|_| results.next().expect("sweep cell").dram_cache_miss_rate())
            .collect();
        out.push(Table6Entry {
            ways,
            miss_rate: rates.iter().sum::<f64>() / rates.len().max(1) as f64,
        });
    }
    out
}

/// Print and persist the table.
pub fn report(runner: &Runner, workloads: &[WorkloadKind]) -> Vec<Table> {
    let entries = run(runner, workloads);
    let mut t = Table::new(
        "Table 6: DRAM cache miss rate vs associativity (Banshee)",
        &["ways", "miss rate"],
    );
    for e in &entries {
        t.row(vec![e.ways.to_string(), fmt_pct(e.miss_rate)]);
    }
    let _ = write_json("table6_associativity", &entries);
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::ExperimentScale;
    use banshee_workloads::SpecProgram;

    #[test]
    fn higher_associativity_does_not_hurt_miss_rate() {
        let runner = Runner::new(ExperimentScale::Smoke);
        let workloads = [WorkloadKind::Spec(SpecProgram::Mcf)];
        let entries = run(&runner, &workloads);
        assert_eq!(entries.len(), 4);
        let one_way = entries[0].miss_rate;
        let eight_way = entries[3].miss_rate;
        // Table 6's trend: more ways → (weakly) lower miss rate. Allow a
        // small tolerance for the stochastic pieces of the policy.
        assert!(
            eight_way <= one_way + 0.05,
            "8-way miss rate {eight_way} should not exceed direct-mapped {one_way}"
        );
        for e in &entries {
            assert!(e.miss_rate >= 0.0 && e.miss_rate <= 1.0);
        }
    }
}
