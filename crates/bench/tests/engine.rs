//! Integration tests for the execution engine wiring: parallel runs must be
//! indistinguishable from sequential runs, and the persistent result store
//! must resume interrupted or repeated sweeps.

use banshee_bench::runner::{ExperimentScale, Runner};
use banshee_dcache::DramCacheDesign;
use banshee_workloads::{GraphKernel, SpecProgram, WorkloadKind};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

fn temp_store_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "banshee_bench_engine_test_{tag}_{}_{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn test_designs() -> Vec<DramCacheDesign> {
    vec![
        DramCacheDesign::NoCache,
        DramCacheDesign::Banshee,
        DramCacheDesign::Tdc,
    ]
}

fn test_workloads() -> Vec<WorkloadKind> {
    vec![
        WorkloadKind::Spec(SpecProgram::Mcf),
        WorkloadKind::Graph(GraphKernel::PageRank),
        WorkloadKind::Graph(GraphKernel::TriangleCount),
    ]
}

/// Serialize a result so byte-level equality can be asserted.
fn as_json(result: &banshee_sim::SimResult) -> String {
    serde_json::to_string_pretty(result).expect("results serialize")
}

#[test]
fn parallel_matrix_matches_sequential_cell_for_cell() {
    let sequential = Runner::new(ExperimentScale::Smoke).with_jobs(1);
    let parallel = Runner::new(ExperimentScale::Smoke).with_jobs(4);
    let designs = test_designs();
    let workloads = test_workloads();
    let a = sequential.run_matrix(&designs, &workloads);
    let b = parallel.run_matrix(&designs, &workloads);
    assert_eq!(a.workloads(), b.workloads());
    assert_eq!(a.designs(), b.designs());
    for workload in a.workloads() {
        for design in a.designs() {
            let left = a.get(workload, design).expect("sequential cell");
            let right = b.get(workload, design).expect("parallel cell");
            assert_eq!(
                as_json(left),
                as_json(right),
                "{workload} x {design} must be byte-identical at any --jobs"
            );
        }
    }
    let cells = designs.len() * workloads.len();
    assert_eq!(sequential.counters.simulated(), cells);
    assert_eq!(parallel.counters.simulated(), cells);
}

#[test]
fn store_resumes_a_completed_sweep() {
    let dir = temp_store_dir("resume");
    let designs = test_designs();
    let workloads = test_workloads();

    // Cold run: everything is simulated.
    let cold = Runner::new(ExperimentScale::Smoke)
        .with_jobs(2)
        .with_store(&dir);
    let first = cold.run_matrix(&designs, &workloads);
    let cells = designs.len() * workloads.len();
    assert_eq!(cold.counters.simulated(), cells);
    assert_eq!(cold.counters.from_store(), 0);

    // Warm run (fresh runner, same store): every cell resumes from disk and
    // the results are byte-identical.
    let warm = Runner::new(ExperimentScale::Smoke)
        .with_jobs(2)
        .with_store(&dir);
    let second = warm.run_matrix(&designs, &workloads);
    assert_eq!(warm.counters.simulated(), 0);
    assert_eq!(warm.counters.from_store(), cells);
    for workload in first.workloads() {
        for design in first.designs() {
            assert_eq!(
                as_json(first.get(workload, design).unwrap()),
                as_json(second.get(workload, design).unwrap()),
                "store round-trip must be exact"
            );
        }
    }

    // A different scale must not hit the same entries.
    let other_scale = Runner::new(ExperimentScale::Quick).with_store(&dir);
    let cfg = other_scale.config(DramCacheDesign::Banshee);
    assert!(banshee_exec::ResultStore::open(&dir)
        .unwrap()
        .get(&other_scale.cell_key_material(&cfg, workloads[0]))
        .is_none());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_store_entry_is_recomputed() {
    let dir = temp_store_dir("corrupt");
    let runner = Runner::new(ExperimentScale::Smoke)
        .with_jobs(2)
        .with_store(&dir);
    let kind = WorkloadKind::Spec(SpecProgram::Mcf);
    let baseline = runner.run(DramCacheDesign::Banshee, kind);

    // Corrupt the entry on disk.
    let store = banshee_exec::ResultStore::open(&dir).unwrap();
    let material = runner.cell_key_material(&runner.config(DramCacheDesign::Banshee), kind);
    assert!(
        store.contains(&material),
        "cold run must populate the store"
    );
    std::fs::write(store.entry_path(&material), "torn write ]}").unwrap();

    // The damaged cell is recomputed (not served), and the entry repaired.
    let fresh = Runner::new(ExperimentScale::Smoke)
        .with_jobs(2)
        .with_store(&dir);
    let recomputed = fresh.run(DramCacheDesign::Banshee, kind);
    assert_eq!(fresh.counters.simulated(), 1);
    assert_eq!(fresh.counters.from_store(), 0);
    assert_eq!(as_json(&baseline), as_json(&recomputed));
    assert!(store.contains(&material), "recompute must repair the entry");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn observer_reports_every_cell() {
    let runner = Runner::new(ExperimentScale::Smoke).with_jobs(3);
    let cells: Vec<_> = test_workloads()
        .into_iter()
        .map(|w| (runner.config(DramCacheDesign::NoCache), w))
        .collect();
    let seen = std::sync::Mutex::new(Vec::new());
    let results = runner.run_batch_observed(cells, |report| {
        seen.lock()
            .unwrap()
            .push((report.index, report.workload.clone(), report.from_store));
    });
    assert_eq!(results.len(), 3);
    let mut reports = seen.into_inner().unwrap();
    reports.sort();
    assert_eq!(
        reports,
        vec![
            (0, "mcf".to_string(), false),
            (1, "pagerank".to_string(), false),
            (2, "tri_count".to_string(), false)
        ]
    );
}

#[test]
fn identical_cells_in_one_batch_are_simulated_once() {
    let runner = Runner::new(ExperimentScale::Smoke).with_jobs(2);
    let kind = WorkloadKind::Spec(SpecProgram::Mcf);
    let cfg = runner.config(DramCacheDesign::NoCache);
    let other = runner.config(DramCacheDesign::Banshee);
    // The same cell twice (as fig8's default-setting groups produce) plus a
    // distinct one.
    let results = runner.run_batch(vec![(cfg.clone(), kind), (other, kind), (cfg, kind)]);
    assert_eq!(results.len(), 3);
    assert_eq!(as_json(&results[0]), as_json(&results[2]));
    assert_ne!(as_json(&results[0]), as_json(&results[1]));
    assert_eq!(
        runner.counters.simulated(),
        2,
        "the duplicate cell must share its twin's simulation"
    );
}

#[test]
fn panicking_cell_fails_the_batch_but_completed_cells_survive() {
    let dir = temp_store_dir("panic");
    let runner = Runner::new(ExperimentScale::Smoke)
        .with_jobs(2)
        .with_store(&dir);
    let good = runner.config(DramCacheDesign::NoCache);
    let mut bad = runner.config(DramCacheDesign::NoCache);
    bad.cores = 0; // workload construction asserts cores > 0
    let kind = WorkloadKind::Spec(SpecProgram::Mcf);
    let counters = runner.counters.clone();
    let cells = vec![(good.clone(), kind), (bad, kind)];
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        runner.run_batch(cells);
    }));
    let message = match outcome {
        Err(payload) => *payload.downcast::<String>().expect("string panic payload"),
        Ok(()) => panic!("a cell with cores = 0 must fail the batch"),
    };
    assert!(
        message.contains("1 of 2 cells panicked"),
        "unexpected batch panic message: {message}"
    );
    // The healthy cell counts; the panicked one does not.
    assert_eq!(counters.simulated(), 1);
    assert_eq!(counters.from_store(), 0);
    // The healthy cell was persisted as it completed, so a re-run after the
    // failure is fixed resumes instead of starting over.
    let store = banshee_exec::ResultStore::open(&dir).unwrap();
    assert!(
        store.contains(&runner.cell_key_material(&good, kind)),
        "completed cells must be cached even when the batch fails"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
