//! Data-driven scenarios: expand a [`ScenarioSpec`] file into prepared
//! cells, run them through the engine (with full result-store resume) and
//! report tables + JSON exactly like the built-in experiments.
//!
//! Cell keying: each cell's store key is
//! `banshee-scenario-cell-v1|<workload spec content>|<footprint>|<seed>|<full SimConfig material>`,
//! so editing a scenario's semantic content (workload parameters, trace
//! file bytes, overrides, sweep points) re-keys exactly the affected
//! cells, while cosmetic edits (description, reordering) keep the cache
//! warm.

use crate::runner::{PreparedCell, Runner};
use crate::table::{fmt2, fmt_pct, write_json, Table};
use banshee_dcache::DramCacheDesign;
use banshee_dram::PagePolicy;
use banshee_sim::{SimConfig, SimResult};
use banshee_workloads::{DramPagePolicyOverride, ScenarioSpec, ScenarioWorkloadEntry};
use serde::Serialize;
use std::sync::Arc;

/// One cell of a scenario run, with its sweep coordinates.
#[derive(Debug, Clone, Serialize)]
pub struct ScenarioCellResult {
    /// Workload display label.
    pub workload: String,
    /// Design display label.
    pub design: String,
    /// The sweep's footprint factor for this cell.
    pub footprint_factor: f64,
    /// Workload footprint in bytes (after factors/overrides).
    pub footprint_bytes: u64,
    /// The sweep seed.
    pub seed: u64,
    /// Swept DRAM page policy ("open"/"closed"), if the sweep has that axis.
    pub page_policy: Option<String>,
    /// Swept DRAM write-queue depth, if the sweep has that axis.
    pub write_queue_depth: Option<u64>,
    /// The simulation result.
    pub result: SimResult,
}

/// The JSON report written to `target/experiments/scenario_<name>.json`.
/// Deliberately timestamp-free: two runs of the same scenario at the same
/// scale produce byte-identical files (CI diffs them).
#[derive(Debug, Clone, Serialize)]
pub struct ScenarioReport {
    /// Scenario name.
    pub scenario: String,
    /// Scenario description.
    pub description: String,
    /// Run scale label ("quick", ...).
    pub scale: String,
    /// All cells, in matrix order (workload-major, then design, factor,
    /// seed).
    pub cells: Vec<ScenarioCellResult>,
}

/// Sweep coordinates of one expanded cell (parallel to its
/// [`PreparedCell`]).
#[derive(Debug, Clone)]
pub struct CellCoords {
    /// Workload display label.
    pub workload: String,
    /// Design display label.
    pub design: String,
    /// Footprint factor.
    pub footprint_factor: f64,
    /// Resolved footprint in bytes.
    pub footprint_bytes: u64,
    /// Sweep seed.
    pub seed: u64,
    /// Swept DRAM page policy, if that axis is present.
    pub page_policy: Option<String>,
    /// Swept DRAM write-queue depth, if that axis is present.
    pub write_queue_depth: Option<u64>,
}

/// Resolve the designs a scenario runs under: its own list, parsed and
/// validated, or the Figure 4 lineup when the list is empty.
pub fn resolve_designs(spec: &ScenarioSpec) -> Result<Vec<DramCacheDesign>, String> {
    if spec.designs.is_empty() {
        return Ok(DramCacheDesign::figure4_lineup());
    }
    spec.designs
        .iter()
        .map(|label| {
            DramCacheDesign::parse(label).ok_or_else(|| {
                format!(
                    "scenario `{}`: unknown design `{label}`; valid designs: {}",
                    spec.name,
                    DramCacheDesign::all_labels().join(", ")
                )
            })
        })
        .collect()
}

fn entry_footprint(entry: &ScenarioWorkloadEntry, cache_capacity_bytes: u64, factor: f64) -> u64 {
    // Workloads with inherent data (trace replays) ignore the sweep's
    // footprint factor: the factor must not fork their store keys or
    // misreport their footprint.
    if let Some(fixed) = entry.spec.fixed_footprint_bytes() {
        return fixed;
    }
    entry
        .footprint_bytes
        .unwrap_or(((cache_capacity_bytes as f64 * factor) as u64).max(4 * 4096))
}

/// The `page_policies` axis: both DRAM devices get the swept row-buffer
/// policy.
fn apply_page_policy(config: &mut SimConfig, policy: DramPagePolicyOverride) {
    let policy = match policy {
        DramPagePolicyOverride::Open => PagePolicy::Open,
        DramPagePolicyOverride::Closed => PagePolicy::Closed,
    };
    config.in_dram.page_policy = policy;
    config.off_dram.page_policy = policy;
}

/// The `write_queue_depths` axis: both DRAM devices get the swept
/// write-queue depth, with watermarks rescaled to it.
fn apply_write_queue_depth(config: &mut SimConfig, depth: usize) {
    config.in_dram.set_write_queue_depth(depth);
    config.off_dram.set_write_queue_depth(depth);
}

/// Expand the full matrix (workloads × designs × factors × seeds × DRAM
/// axes) into prepared cells with scenario-aware store keys.
pub fn expand_cells(
    runner: &Runner,
    spec: &ScenarioSpec,
) -> Result<Vec<(CellCoords, PreparedCell)>, String> {
    let designs = resolve_designs(spec)?;
    // The DRAM axes are optional: an empty list means "one cell with the
    // paper's DRAM settings" (represented as None).
    let page_policies: Vec<Option<_>> = if spec.sweep.page_policies.is_empty() {
        vec![None]
    } else {
        spec.sweep.page_policies.iter().map(|&p| Some(p)).collect()
    };
    let wq_depths: Vec<Option<usize>> = if spec.sweep.write_queue_depths.is_empty() {
        vec![None]
    } else {
        spec.sweep
            .write_queue_depths
            .iter()
            .map(|&d| Some(d))
            .collect()
    };
    let mut cells = Vec::new();
    for entry in &spec.workloads {
        for design in &designs {
            for &factor in &spec.sweep.footprint_factors {
                for &seed in &spec.sweep.seeds {
                    for &policy in &page_policies {
                        for &depth in &wq_depths {
                            let mut config = runner.config(*design);
                            config.apply_scenario_overrides(&spec.overrides);
                            if let Some(policy) = policy {
                                apply_page_policy(&mut config, policy);
                            }
                            if let Some(depth) = depth {
                                apply_write_queue_depth(&mut config, depth);
                            }
                            config.seed = seed;
                            let footprint =
                                entry_footprint(entry, config.dcache.capacity.as_bytes(), factor);
                            let instance = entry.spec.instantiate(footprint, seed);
                            let key_material = format!(
                                "banshee-scenario-cell-v1|{}|{}",
                                instance.key_material(),
                                config.cache_key_material()
                            );
                            let coords = CellCoords {
                                workload: entry.spec.display_name(),
                                design: config.design.label(),
                                footprint_factor: factor,
                                footprint_bytes: footprint,
                                seed,
                                page_policy: policy.map(|p| p.label().to_string()),
                                write_queue_depth: depth.map(|d| d as u64),
                            };
                            cells.push((
                                coords.clone(),
                                PreparedCell {
                                    workload_label: coords.workload.clone(),
                                    design_label: coords.design.clone(),
                                    key_material,
                                    // The instance key covers the scenario
                                    // workload's full trace-shaping content,
                                    // so same-named workloads from different
                                    // scenario files never share an image.
                                    workload_ident: instance.key_material(),
                                    config,
                                    factory: Arc::new(instance),
                                },
                            ));
                        }
                    }
                }
            }
        }
    }
    Ok(cells)
}

/// Run one parsed scenario and build its report.
pub fn run(runner: &Runner, spec: &ScenarioSpec) -> Result<ScenarioReport, String> {
    let (coords, prepared): (Vec<CellCoords>, Vec<PreparedCell>) =
        expand_cells(runner, spec)?.into_iter().unzip();
    // A scenario's `telemetry` block parameterizes the recorder but never
    // activates it: only when the harness already runs with telemetry on do
    // the scenario's knobs replace the defaults (on a clone, so the caller's
    // runner is untouched).
    let mut runner = runner.clone();
    if let (Some(options), Some(knobs)) = (runner.telemetry.as_mut(), spec.telemetry.as_ref()) {
        if let Some(interval) = knobs.interval_instructions {
            options.config.interval_instructions = interval;
        }
        if let Some(samples) = knobs.max_samples {
            options.config.max_samples = samples;
        }
        if let Some(events) = knobs.max_events {
            options.config.max_events = events;
        }
    }
    let runner = &runner;
    let results = runner.run_prepared(prepared);
    let cells = coords
        .into_iter()
        .zip(results)
        .map(|(c, result)| ScenarioCellResult {
            workload: c.workload,
            design: c.design,
            footprint_factor: c.footprint_factor,
            footprint_bytes: c.footprint_bytes,
            seed: c.seed,
            page_policy: c.page_policy,
            write_queue_depth: c.write_queue_depth,
            result,
        })
        .collect();
    Ok(ScenarioReport {
        scenario: spec.name.clone(),
        description: spec.description.clone(),
        scale: runner.scale.name().to_string(),
        cells,
    })
}

/// Render a report as a table (one row per cell).
pub fn tables(report: &ScenarioReport) -> Vec<Table> {
    let multi_factor = report
        .cells
        .iter()
        .any(|c| c.footprint_factor != report.cells[0].footprint_factor);
    let multi_seed = report.cells.iter().any(|c| c.seed != report.cells[0].seed);
    let mut t = Table::new(
        &format!("Scenario: {} ({} scale)", report.scenario, report.scale),
        &[
            "workload",
            "design",
            "factor",
            "seed",
            "page",
            "wq",
            "IPC",
            "MPKI",
            "miss rate",
            "in-pkg B/i",
            "off-pkg B/i",
        ],
    );
    for c in &report.cells {
        t.row(vec![
            c.workload.clone(),
            c.design.clone(),
            if multi_factor || c.footprint_factor != 4.0 {
                format!("{}", c.footprint_factor)
            } else {
                "-".to_string()
            },
            if multi_seed {
                format!("{}", c.seed)
            } else {
                "-".to_string()
            },
            c.page_policy.clone().unwrap_or_else(|| "-".to_string()),
            c.write_queue_depth
                .map(|d| d.to_string())
                .unwrap_or_else(|| "-".to_string()),
            fmt2(c.result.ipc()),
            fmt2(c.result.mpki()),
            fmt_pct(c.result.dram_cache_miss_rate()),
            fmt2(
                c.result
                    .total_bytes_per_instr(banshee_common::DramKind::InPackage),
            ),
            fmt2(
                c.result
                    .total_bytes_per_instr(banshee_common::DramKind::OffPackage),
            ),
        ]);
    }
    vec![t]
}

/// Run a parsed scenario, persist its JSON report (to
/// `target/experiments/scenario_<name>.json`) and return its tables.
pub fn run_and_report(runner: &Runner, spec: &ScenarioSpec) -> Result<Vec<Table>, String> {
    let report = run(runner, spec)?;
    write_json(&format!("scenario_{}", report.scenario), &report)
        .map_err(|e| format!("failed to write scenario JSON: {e}"))?;
    Ok(tables(&report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::ExperimentScale;
    use std::path::PathBuf;

    fn smoke_spec(json: &str) -> ScenarioSpec {
        ScenarioSpec::from_json_str(json, &PathBuf::from(".")).expect("spec parses")
    }

    #[test]
    fn expansion_covers_the_matrix() {
        let spec = smoke_spec(
            r#"{
            "name": "m",
            "workloads": [{"type": "builtin", "name": "gcc"},
                          {"type": "kv", "name": "kvx"}],
            "designs": ["NoCache", "Banshee"],
            "sweep": {"footprint_factors": [2, 4], "seeds": [1, 2]}
        }"#,
        );
        let runner = Runner::new(ExperimentScale::Smoke);
        let cells = expand_cells(&runner, &spec).unwrap();
        assert_eq!(cells.len(), 2 * 2 * 2 * 2);
        // Keys are pairwise distinct across the matrix.
        let mut keys: Vec<&str> = cells.iter().map(|(_, p)| p.key_material.as_str()).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), 16);
        // Footprint scales with the factor and the seed lands in the config.
        let (c0, p0) = &cells[0];
        assert_eq!(c0.footprint_bytes, p0.config.dcache.capacity.as_bytes() * 2);
        assert_eq!(p0.config.seed, c0.seed);
    }

    #[test]
    fn unknown_design_is_an_actionable_error() {
        let spec = smoke_spec(
            r#"{"name": "m", "designs": ["Banshee", "Warp"],
                "workloads": [{"type": "builtin", "name": "gcc"}]}"#,
        );
        let e = resolve_designs(&spec).unwrap_err();
        assert!(e.contains("Warp") && e.contains("valid designs"), "{e}");
    }

    #[test]
    fn empty_designs_fall_back_to_figure4_lineup() {
        let spec =
            smoke_spec(r#"{"name": "m", "workloads": [{"type": "builtin", "name": "gcc"}]}"#);
        assert_eq!(
            resolve_designs(&spec).unwrap(),
            DramCacheDesign::figure4_lineup()
        );
    }

    #[test]
    fn overrides_reach_the_cell_configs() {
        let spec = smoke_spec(
            r#"{"name": "m", "designs": ["Banshee"],
                "workloads": [{"type": "builtin", "name": "gcc"}],
                "config": {"cores": 2, "total_instructions": 50000}}"#,
        );
        let runner = Runner::new(ExperimentScale::Smoke);
        let cells = expand_cells(&runner, &spec).unwrap();
        assert_eq!(cells[0].1.config.cores, 2);
        assert_eq!(cells[0].1.config.total_instructions, 50_000);
    }

    #[test]
    fn dram_axes_reach_both_devices() {
        use banshee_dram::{DramConfig, DramTiming};
        let spec = ScenarioSpec::from_file(
            PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join("../../examples/scenarios/dram_scheduler_sweep.json"),
        )
        .expect("shipped scenario parses");
        let runner = Runner::new(ExperimentScale::Quick);
        let cells = expand_cells(&runner, &spec).unwrap();
        assert_eq!(cells.len(), spec.cells_per_design() * spec.designs.len());
        // Each swept DRAM setting keys its cell apart in the result store.
        let mut keys: Vec<&str> = cells.iter().map(|(_, p)| p.key_material.as_str()).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), cells.len());
        let paper = DramConfig::in_package_default();
        for (coords, cell) in &cells {
            let policy = match coords.page_policy.as_deref() {
                Some("open") => PagePolicy::Open,
                Some("closed") => PagePolicy::Closed,
                other => panic!("unexpected page policy {other:?}"),
            };
            let (depth, high, low) = match coords.write_queue_depth {
                Some(0) => (0, 0, 0),
                Some(32) => (32, 24, 8),
                other => panic!("unexpected write-queue depth {other:?}"),
            };
            for dram in [&cell.config.in_dram, &cell.config.off_dram] {
                assert_eq!(dram.page_policy, policy);
                assert_eq!(
                    (
                        dram.write_queue_depth,
                        dram.write_high_watermark,
                        dram.write_low_watermark
                    ),
                    (depth, high, low)
                );
                assert_eq!(dram.scheduler, paper.scheduler);
                assert_eq!(dram.read_queue_depth, paper.read_queue_depth);
                assert_eq!(dram.timing.t_refi, DramTiming::paper_default().t_refi);
            }
        }
        // Shallow buffered queues keep low < high <= depth.
        for depth in 1..=3 {
            let mut config = runner.config(DramCacheDesign::Banshee);
            apply_write_queue_depth(&mut config, depth);
            for dram in [&config.in_dram, &config.off_dram] {
                assert!(dram.write_low_watermark < dram.write_high_watermark);
                assert!(dram.write_high_watermark <= depth);
            }
        }
    }

    #[test]
    fn scenario_runs_end_to_end_at_smoke_scale() {
        let spec = smoke_spec(
            r#"{"name": "smoke-run",
                "workloads": [{"type": "kv", "name": "kvz", "zipf_exponent": 1.0}],
                "designs": ["NoCache", "Banshee"],
                "config": {"cores": 2, "total_instructions": 60000,
                           "warmup_instructions": 30000}}"#,
        );
        let runner = Runner::new(ExperimentScale::Smoke);
        let report = run(&runner, &spec).unwrap();
        assert_eq!(report.cells.len(), 2);
        for cell in &report.cells {
            assert!(cell.result.instructions > 0);
            assert!(cell.result.ipc() > 0.0);
        }
        let t = tables(&report);
        assert_eq!(t.len(), 1);
        assert_eq!(t[0].len(), 2);
    }
}
