//! End-to-end simulator throughput (instructions per second) per design.
//!
//! This bench drives the *whole* per-access path — trace generation, TLB/page
//! table, SRAM hierarchy, DRAM-cache controller and DRAM timing — exactly as
//! an experiment cell does, and reports how many simulated instructions the
//! host executes per wall-clock second. That number is the scaling limit of
//! the experiment matrix, so it is tracked PR-over-PR in
//! `BENCH_hotpath.json` at the repository root (the CI perf-smoke job fails
//! on regressions against the committed baseline).
//!
//! ```text
//! cargo bench -p banshee_bench --bench hotpath
//! ```
//!
//! Environment knobs:
//!
//! * `BANSHEE_HOTPATH_INSTRUCTIONS` — measured instructions per design
//!   (default 3,000,000 — also what CI and the committed baseline use, so
//!   normalized comparisons stay at one scale).
//! * `BANSHEE_HOTPATH_REPEAT` — timed repetitions per design; the fastest
//!   is reported (default 1).
//! * `BANSHEE_HOTPATH_OUT` — output path for the JSON report (default
//!   `BENCH_hotpath.json` at the workspace root).

use banshee_bench::runner::{ExperimentScale, Runner};
use banshee_dcache::DramCacheDesign;
use banshee_sim::System;
use banshee_workloads::{SpecProgram, WorkloadKind};
use serde::Serialize;
use std::time::Instant;

/// Throughput of one design.
#[derive(Debug, Clone, Serialize)]
struct DesignThroughput {
    design: String,
    /// Simulated instructions per timed run (warm-up + measured phase).
    instructions: u64,
    /// Wall-clock seconds of the fastest repetition (warm-up + measured).
    seconds: f64,
    /// Wall-clock seconds the fastest repetition spent in warm-up. This is
    /// the part a warmed-snapshot resume skips, so the split shows how much
    /// of each design's cell cost snapshotting can recover.
    warmup_seconds: f64,
    /// Wall-clock seconds the fastest repetition spent in the measured phase.
    measured_seconds: f64,
    /// Simulated instructions per wall-clock second (whole run).
    instr_per_sec: f64,
}

/// The whole report, written to `BENCH_hotpath.json`.
#[derive(Debug, Clone, Serialize)]
struct HotpathReport {
    /// Measured (post-warm-up) instructions per run.
    measured_instructions: u64,
    /// Warm-up instructions per run.
    warmup_instructions: u64,
    /// Workload driven through every design.
    workload: String,
    /// Timed repetitions per design (fastest wins).
    repeat: u64,
    designs: Vec<DesignThroughput>,
}

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let measured = env_u64("BANSHEE_HOTPATH_INSTRUCTIONS", 3_000_000);
    let repeat = env_u64("BANSHEE_HOTPATH_REPEAT", 1).max(1);
    let kind = WorkloadKind::Spec(SpecProgram::Mcf);

    // Quick-scale geometry: the same configs the experiment matrix uses,
    // with an overridable instruction budget.
    let runner = Runner::new(ExperimentScale::Quick);
    let warmup = measured / 2;

    let designs = DramCacheDesign::figure4_lineup();
    let mut rows = Vec::new();
    println!(
        "hotpath: {measured} measured + {warmup} warm-up instructions per design, workload {}",
        kind.name()
    );
    for design in designs {
        let mut best = f64::INFINITY;
        let mut best_warmup = 0.0;
        let mut best_measured = 0.0;
        for _ in 0..repeat {
            let mut cfg = runner.config(design);
            cfg.total_instructions = measured;
            cfg.warmup_instructions = warmup;
            let workload = runner.workload(kind);
            let name = workload.name();
            let mut system = System::new(cfg, &workload);
            let t0 = Instant::now();
            let warmed = system.warm_up();
            let warmup_elapsed = t0.elapsed().as_secs_f64();
            let t1 = Instant::now();
            let result = system.run_measured(&name, warmed);
            let measured_elapsed = t1.elapsed().as_secs_f64();
            assert!(result.instructions > 0, "simulation ran no instructions");
            let elapsed = warmup_elapsed + measured_elapsed;
            if elapsed < best {
                best = elapsed;
                best_warmup = warmup_elapsed;
                best_measured = measured_elapsed;
            }
        }
        let total = measured + warmup;
        let ips = total as f64 / best;
        println!(
            "  {:<24} {:>8.3} s ({:>6.3} s warm-up + {:>6.3} s measured)   {:>12.0} instr/s",
            design.label(),
            best,
            best_warmup,
            best_measured,
            ips
        );
        rows.push(DesignThroughput {
            design: design.label(),
            instructions: total,
            seconds: best,
            warmup_seconds: best_warmup,
            measured_seconds: best_measured,
            instr_per_sec: ips,
        });
    }

    let report = HotpathReport {
        measured_instructions: measured,
        warmup_instructions: warmup,
        workload: kind.name(),
        repeat,
        designs: rows,
    };
    let out = std::env::var("BANSHEE_HOTPATH_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_hotpath.json").to_string()
    });
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&out, json + "\n").expect("write BENCH_hotpath.json");
    println!("wrote {out}");
}
