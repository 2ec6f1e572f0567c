//! Telemetry is pure observation: for every design, a run with the
//! recorder on must produce a `SimResult` byte-identical to the same run
//! with the recorder off, and the exported report must reconcile with the
//! final aggregates (measured sample deltas telescope to the result's
//! traffic and instruction counts). The exported report is itself a pure
//! function of the inputs: two runs write identical bytes. Maintenance
//! that the event ring does not record (refreshes, write drains, tag-buffer
//! flushes, FBR halvings) is carried by the samples alone, and they account
//! for every occurrence.

use banshee::BansheeConfig;
use banshee_common::telemetry::{
    slug, EventKind, Sample, TelemetryConfig, TelemetryReport, TelemetrySink,
};
use banshee_common::TrafficClass;
use banshee_dcache::DramCacheDesign;
use banshee_sim::{run_one, SimConfig, SimResult, System};
use banshee_workloads::{SpecProgram, Workload, WorkloadKind};
use std::path::Path;

fn workload() -> Workload {
    Workload::new(WorkloadKind::Spec(SpecProgram::Mcf), 16 << 20, 3)
}

fn test_config() -> TelemetryConfig {
    TelemetryConfig {
        interval_instructions: 50_000,
        ..TelemetryConfig::default()
    }
}

/// Run one design with telemetry enabled, exporting under `dir`. Returns
/// the result and the sink, whose path names the written report.
fn run_with_telemetry(config: SimConfig, dir: &Path) -> (SimResult, TelemetrySink) {
    let w = workload();
    let name = w.name();
    let cell = slug(&config.design.label());
    let mut system = System::new(config, &w);
    system.enable_telemetry(test_config());
    let sink = TelemetrySink::new(dir, &cell);
    system.set_telemetry_sink(sink.clone());
    let warmed = system.warm_up();
    (system.run_measured(&name, warmed), sink)
}

fn read_bytes(path: &Path) -> Vec<u8> {
    std::fs::read(path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

fn read_report(path: &Path) -> TelemetryReport {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    serde_json::from_str(&text).expect("telemetry JSON parses back into a report")
}

fn traffic_total(t: &banshee_common::TrafficStats) -> u64 {
    t.grand_total()
}

#[test]
fn telemetry_on_results_are_byte_identical_for_every_design() {
    let dir = std::env::temp_dir().join(format!("banshee_tel_equiv_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut lineup_maintenance = [0u64; 4];
    for design in DramCacheDesign::figure4_lineup() {
        let off = run_one(SimConfig::test_default(design), &workload());
        let (on, sink) = run_with_telemetry(SimConfig::test_default(design), &dir);
        assert_eq!(
            serde_json::to_string_pretty(&off).unwrap(),
            serde_json::to_string_pretty(&on).unwrap(),
            "telemetry changed the {} result",
            off.design
        );

        // The exported report must be present, parse back, and reconcile
        // with the final (baseline-subtracted) aggregates.
        let report = read_report(sink.json_path());
        assert_eq!(report.design, on.design);
        assert!(!report.samples.is_empty(), "{}: no samples", on.design);
        assert!(
            report.samples.iter().any(|s| s.warmup),
            "{}: no warm-up samples",
            on.design
        );
        let measured: Vec<_> = report.samples.iter().filter(|s| !s.warmup).collect();
        assert!(!measured.is_empty(), "{}: no measured samples", on.design);
        let delta_instr: u64 = measured.iter().map(|s| s.delta_instructions).sum();
        assert_eq!(
            delta_instr, on.instructions,
            "{}: measured sample windows do not cover the measured phase",
            on.design
        );
        let delta_traffic: u64 = measured.iter().map(|s| traffic_total(&s.traffic)).sum();
        assert_eq!(
            delta_traffic,
            traffic_total(&on.traffic),
            "{}: measured sample traffic does not telescope to the result",
            on.design
        );
        // Per-class reconciliation, not just grand totals.
        for kind in banshee_common::DramKind::ALL {
            for class in TrafficClass::ALL {
                let sum: u64 = measured.iter().map(|s| s.traffic.bytes(kind, class)).sum();
                assert_eq!(
                    sum,
                    on.traffic.bytes(kind, class),
                    "{}: {kind:?}/{class:?} does not reconcile",
                    on.design
                );
            }
        }
        assert!(
            report
                .events
                .iter()
                .any(|e| e.kind == EventKind::MeasurementStart),
            "{}: missing the MeasurementStart boundary event",
            on.design
        );
        // Gauges are a fixed set within a run: every sample carries the
        // same names in the same order.
        let names =
            |s: &Sample| -> Vec<String> { s.gauges.iter().map(|(n, _)| n.clone()).collect() };
        let first = names(&report.samples[0]);
        for (i, s) in report.samples.iter().enumerate() {
            assert_eq!(
                names(s),
                first,
                "{}: sample {i} changes the gauge set",
                on.design
            );
        }
        // The samples are the only record of refreshes and write drains,
        // so their per-window counts must sum to the run's totals, warm-up
        // included.
        let sum = |f: fn(&Sample) -> u64| -> u64 { report.samples.iter().map(f).sum() };
        for (slot, (stat, summed)) in [
            ("in_dram_refreshes", sum(|s| s.in_dram.refreshes)),
            ("off_dram_refreshes", sum(|s| s.off_dram.refreshes)),
            ("in_dram_write_drains", sum(|s| s.in_dram.write_drains)),
            ("off_dram_write_drains", sum(|s| s.off_dram.write_drains)),
        ]
        .into_iter()
        .enumerate()
        {
            lineup_maintenance[slot] += summed;
            assert_eq!(
                summed,
                on.stats.get(stat),
                "{}: samples do not sum to {stat}",
                on.design
            );
        }
    }
    assert!(
        lineup_maintenance.iter().all(|&n| n > 0),
        "every maintenance counter must move somewhere in the lineup: {lineup_maintenance:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn banshee_gauges_account_for_every_flush_and_halving() {
    // The last sample's cumulative gauges are the only record of
    // tag-buffer flushes and FBR counter halvings. Small tag buffers,
    // narrow counters and full-rate sampling make both happen within the
    // test budget.
    let mut config = SimConfig::test_default(DramCacheDesign::Banshee);
    config.banshee = Some(BansheeConfig {
        tag_buffer_entries: 64,
        counter_bits: 3,
        sampling_coefficient: 1.0,
        ..BansheeConfig::from_dcache(&config.dcache)
    });
    let dir = std::env::temp_dir().join(format!("banshee_tel_gauges_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (result, sink) = run_with_telemetry(config, &dir);
    let report = read_report(sink.json_path());
    let _ = std::fs::remove_dir_all(&dir);
    let last = report.samples.last().expect("Banshee recorded samples");
    let gauge = |name: &str| -> u64 {
        let (_, value) = last
            .gauges
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("no {name} gauge"));
        *value as u64
    };
    let flushes = result.stats.get("banshee_tag_buffer_flushes")
        + result.stats.get("banshee_set_full_flushes");
    let halvings = result.stats.get("banshee_counter_halvings");
    assert!(flushes > 0 && halvings > 0, "the run must flush and halve");
    assert_eq!(gauge("tag_buffer_flushes"), flushes);
    assert_eq!(gauge("fbr_counter_halvings"), halvings);
}

#[test]
fn model_revision_is_unchanged_by_telemetry() {
    // Telemetry must never perturb simulation semantics; the revision only
    // moves when results change.
    assert_eq!(SimConfig::MODEL_REVISION, 2);
}

#[test]
fn telemetry_config_is_not_key_material() {
    // The recorder is runtime state, not configuration: two identical
    // configs must share key material whether or not telemetry runs.
    let a = SimConfig::test_default(DramCacheDesign::Banshee);
    let b = SimConfig::test_default(DramCacheDesign::Banshee);
    assert_eq!(a.cache_key_material(), b.cache_key_material());
    assert!(
        !a.cache_key_material().to_lowercase().contains("telemetry"),
        "telemetry leaked into key material"
    );
}

#[test]
fn unwritable_sink_degrades_to_a_warning() {
    // Export failures must never fail the run: pointing the sink at a path
    // that cannot be created still yields the byte-identical result.
    let off = run_one(
        SimConfig::test_default(DramCacheDesign::NoCache),
        &workload(),
    );
    let config = SimConfig::test_default(DramCacheDesign::NoCache);
    let w = workload();
    let name = w.name();
    let mut system = System::new(config, &w);
    system.enable_telemetry(test_config());
    system.set_telemetry_sink(TelemetrySink::new(
        "/proc/banshee-no-such-dir/telemetry",
        "x",
    ));
    let warmed = system.warm_up();
    let on = system.run_measured(&name, warmed);
    assert_eq!(
        serde_json::to_string_pretty(&off).unwrap(),
        serde_json::to_string_pretty(&on).unwrap()
    );
}

#[test]
fn telemetry_files_are_byte_identical_across_runs() {
    // The report holds no host time, so running a cell twice must write
    // the same bytes.
    let base = std::env::temp_dir().join(format!("banshee_tel_repeat_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    for design in DramCacheDesign::figure4_lineup() {
        let (_, first) = run_with_telemetry(SimConfig::test_default(design), &base.join("a"));
        let (_, second) = run_with_telemetry(SimConfig::test_default(design), &base.join("b"));
        let (a, b) = (first.json_path(), second.json_path());
        assert!(
            read_bytes(a) == read_bytes(b),
            "{} and {} differ",
            a.display(),
            b.display()
        );
    }
    let _ = std::fs::remove_dir_all(&base);
}
