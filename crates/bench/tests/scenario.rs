//! Integration tests for the scenario subsystem: the shipped example files
//! must stay valid, and scenario runs must resume fully from the result
//! store with byte-identical results (the property the CI `scenarios` job
//! enforces at quick scale).

use banshee_bench::experiments::scenario;
use banshee_bench::runner::{ExperimentScale, Runner};
use banshee_workloads::ScenarioSpec;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

fn examples_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/scenarios")
}

fn temp_store_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "banshee_bench_scenario_test_{tag}_{}_{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Every shipped example scenario must parse, resolve its designs and
/// expand a non-empty matrix. This is what keeps `examples/scenarios/`
/// from rotting as the schema evolves.
#[test]
fn shipped_example_scenarios_are_valid() {
    let dir = examples_dir();
    let mut found = 0;
    for entry in std::fs::read_dir(&dir).expect("examples/scenarios exists") {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        found += 1;
        let spec = ScenarioSpec::from_file(&path)
            .unwrap_or_else(|e| panic!("{} must stay valid: {e}", path.display()));
        let runner = Runner::new(ExperimentScale::Smoke);
        let cells = scenario::expand_cells(&runner, &spec)
            .unwrap_or_else(|e| panic!("{} designs must resolve: {e}", path.display()));
        assert!(
            !cells.is_empty(),
            "{} expands to an empty matrix",
            path.display()
        );
    }
    assert!(
        found >= 3,
        "expected at least 3 example scenarios, found {found}"
    );
}

/// Cold run simulates, warm run resumes every cell, and the reports
/// serialize byte-identically — the whole subsystem is deterministic and
/// store-keyed correctly.
#[test]
fn scenario_runs_resume_from_the_store_byte_identically() {
    let json = r#"{
        "name": "resume",
        "workloads": [
            {"type": "kv", "name": "kvr", "zipf_exponent": 1.0},
            {"type": "phased", "name": "phr", "phase_accesses": 20000,
             "tenants": [{"like": "mcf", "share": 0.5}, {"like": "lbm", "share": 0.5}]}
        ],
        "designs": ["NoCache", "Banshee"],
        "config": {"cores": 2, "total_instructions": 60000, "warmup_instructions": 30000}
    }"#;
    let spec = ScenarioSpec::from_json_str(json, Path::new(".")).unwrap();
    let dir = temp_store_dir("resume");

    let cold = Runner::new(ExperimentScale::Smoke)
        .with_jobs(4)
        .with_store(&dir);
    let cold_report = scenario::run(&cold, &spec).unwrap();
    assert_eq!(cold.counters.simulated(), 4);
    assert_eq!(cold.counters.from_store(), 0);

    let warm = Runner::new(ExperimentScale::Smoke)
        .with_jobs(4)
        .with_store(&dir);
    let warm_report = scenario::run(&warm, &spec).unwrap();
    assert_eq!(
        warm.counters.simulated(),
        0,
        "warm run must resume every cell from the store"
    );
    assert_eq!(warm.counters.from_store(), 4);

    let cold_json = serde_json::to_string_pretty(&cold_report).unwrap();
    let warm_json = serde_json::to_string_pretty(&warm_report).unwrap();
    assert_eq!(cold_json, warm_json, "reports must be byte-identical");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Editing a scenario's semantics re-keys exactly the changed cells;
/// cosmetic edits keep the cache warm.
#[test]
fn store_keys_track_semantic_content_only() {
    let dir = temp_store_dir("rekey");
    let runner = Runner::new(ExperimentScale::Smoke)
        .with_jobs(2)
        .with_store(&dir);
    let base = r#"{
        "name": "keys", "description": "A",
        "workloads": [{"type": "kv", "name": "kvk", "zipf_exponent": 1.0}],
        "designs": ["NoCache"],
        "config": {"cores": 2, "total_instructions": 40000, "warmup_instructions": 20000}
    }"#;
    let spec = ScenarioSpec::from_json_str(base, Path::new(".")).unwrap();
    scenario::run(&runner, &spec).unwrap();
    assert_eq!(runner.counters.simulated(), 1);

    // Cosmetic change (description): still warm.
    let cosmetic = base.replace("\"description\": \"A\"", "\"description\": \"B\"");
    let spec2 = ScenarioSpec::from_json_str(&cosmetic, Path::new(".")).unwrap();
    scenario::run(&runner, &spec2).unwrap();
    assert_eq!(
        runner.counters.simulated(),
        1,
        "description edits must not re-simulate"
    );

    // Semantic change (zipf exponent): exactly one new simulation.
    let semantic = base.replace("\"zipf_exponent\": 1.0", "\"zipf_exponent\": 1.2");
    let spec3 = ScenarioSpec::from_json_str(&semantic, Path::new(".")).unwrap();
    scenario::run(&runner, &spec3).unwrap();
    assert_eq!(
        runner.counters.simulated(),
        2,
        "parameter edits must re-simulate"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Sweeping footprint factors over a trace-replay entry must not fork its
/// store keys: the replayed data is fixed, so the cells are identical and
/// are simulated once.
#[test]
fn footprint_factors_do_not_rekey_trace_cells() {
    use banshee_workloads::{TraceData, Workload, WorkloadKind};

    let dir = temp_store_dir("tracekeys");
    std::fs::create_dir_all(&dir).unwrap();
    let workload = Workload::new(WorkloadKind::parse("gcc").unwrap(), 4 << 20, 7);
    TraceData::capture(&workload, 2, 100)
        .write_text_file(dir.join("t.trace"))
        .unwrap();
    let spec = ScenarioSpec::from_json_str(
        r#"{"name": "tk", "designs": ["NoCache"],
            "workloads": [{"type": "trace", "path": "t.trace"}],
            "sweep": {"footprint_factors": [2, 4]}}"#,
        &dir,
    )
    .unwrap();
    let runner = Runner::new(ExperimentScale::Smoke);
    let cells = scenario::expand_cells(&runner, &spec).unwrap();
    assert_eq!(cells.len(), 2);
    assert_eq!(
        cells[0].1.key_material, cells[1].1.key_material,
        "factor sweeps must not re-key trace cells"
    );
    assert_eq!(cells[0].0.footprint_bytes, cells[1].0.footprint_bytes);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A captured trace replayed through the full simulator gives the same
/// result as the workload it was captured from, when the capture window
/// covers the whole run.
#[test]
fn trace_replay_reproduces_the_captured_workload() {
    use banshee_workloads::{TraceData, Workload, WorkloadKind};

    let dir = temp_store_dir("replay");
    std::fs::create_dir_all(&dir).unwrap();
    let cores = 2;
    let workload = Workload::new(WorkloadKind::parse("gcc").unwrap(), 4 << 20, 42);
    // Capture more accesses than a smoke run can consume, so replay never
    // wraps within the measured window.
    let mut data = TraceData::capture(&workload, cores, 400_000);
    // The replay entry's display name comes from the first stream; rename
    // so it does not collide with the builtin entry's label.
    for s in &mut data.streams {
        s.name = format!("{}_capture", s.name);
    }
    let trace_path = dir.join("captured.trace");
    data.write_text_file(&trace_path).unwrap();

    let json = format!(
        r#"{{
        "name": "replay",
        "workloads": [{{"type": "trace", "path": "captured.trace"}},
                      {{"type": "builtin", "name": "gcc"}}],
        "designs": ["Banshee"],
        "sweep": {{"footprint_factors": [{factor}], "seeds": [42]}},
        "config": {{"cores": {cores}, "total_instructions": 60000,
                   "warmup_instructions": 30000}}
    }}"#,
        factor = (4 << 20) as f64 / banshee_common::MemSize::mib(8).as_bytes() as f64,
    );
    let spec = ScenarioSpec::from_json_str(&json, &dir).unwrap();
    let runner = Runner::new(ExperimentScale::Smoke);
    let report = scenario::run(&runner, &spec).unwrap();
    assert_eq!(report.cells.len(), 2);
    let replayed = &report.cells[0].result;
    let original = &report.cells[1].result;
    assert_eq!(replayed.instructions, original.instructions);
    assert_eq!(replayed.cycles, original.cycles);
    assert_eq!(replayed.dram_cache_accesses, original.dram_cache_accesses);
    assert_eq!(replayed.dram_cache_misses, original.dram_cache_misses);
    let _ = std::fs::remove_dir_all(&dir);
}
