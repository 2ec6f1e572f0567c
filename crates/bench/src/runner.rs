//! Shared experiment runner: the workload suite × design matrix, executed
//! through the `banshee_exec` engine.
//!
//! Every (config, workload) cell is an independent, deterministic
//! simulation, so the runner fans batches across a [`JobPool`] and caches
//! each cell's [`SimResult`] in a persistent [`ResultStore`] keyed by the
//! full configuration. Parallel runs produce results identical
//! cell-for-cell to sequential runs (the pool preserves input order), and
//! interrupted sweeps resume by skipping cells the store already holds.

use banshee_common::telemetry::{slug, TelemetryConfig, TelemetrySink};
use banshee_common::MemSize;
use banshee_dcache::DramCacheDesign;
use banshee_exec::{JobPool, ResultStore};
use banshee_sim::{SimConfig, SimResult, System};
use banshee_workloads::{TraceFactory, Workload, WorkloadKind};
use serde::Serialize;
use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// How big an experiment run should be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExperimentScale {
    /// A few million instructions per run — minutes for the full matrix.
    Quick,
    /// The default scaled runs used for EXPERIMENTS.md.
    Standard,
    /// A smoke-test scale used by unit/integration tests and Criterion.
    Smoke,
}

impl ExperimentScale {
    /// DRAM-cache capacity for this scale.
    pub fn dram_cache_capacity(&self) -> MemSize {
        match self {
            ExperimentScale::Smoke => MemSize::mib(8),
            ExperimentScale::Quick => MemSize::mib(16),
            ExperimentScale::Standard => MemSize::mib(32),
        }
    }

    /// Total data footprint of a workload relative to the cache (the paper's
    /// interesting regime is footprint ≫ cache).
    pub fn footprint_factor(&self) -> u64 {
        4
    }

    /// Measured instructions per simulation (after warm-up).
    pub fn instructions(&self) -> u64 {
        match self {
            ExperimentScale::Smoke => 300_000,
            ExperimentScale::Quick => 2_000_000,
            ExperimentScale::Standard => 8_000_000,
        }
    }

    /// Warm-up instructions per simulation (excluded from the statistics).
    pub fn warmup_instructions(&self) -> u64 {
        match self {
            ExperimentScale::Smoke => 200_000,
            ExperimentScale::Quick => 4_000_000,
            ExperimentScale::Standard => 8_000_000,
        }
    }

    /// Number of cores to simulate.
    pub fn cores(&self) -> usize {
        match self {
            ExperimentScale::Smoke => 4,
            _ => 16,
        }
    }

    /// Lower-case label used in JSON metadata ("smoke", "quick",
    /// "standard").
    pub fn name(&self) -> &'static str {
        match self {
            ExperimentScale::Smoke => "smoke",
            ExperimentScale::Quick => "quick",
            ExperimentScale::Standard => "standard",
        }
    }
}

/// How one batched cell was satisfied (observed via
/// [`Runner::run_batch_observed`]).
#[derive(Debug, Clone)]
pub struct CellReport {
    /// Index of the cell in the submitted batch.
    pub index: usize,
    /// Workload label.
    pub workload: String,
    /// Design label.
    pub design: String,
    /// True if the result came from the persistent store rather than a
    /// fresh simulation.
    pub from_store: bool,
    /// True if the simulation resumed from a warmed-state snapshot instead
    /// of running warm-up cold (always false for store hits).
    pub resumed_warm: bool,
    /// True if the cell's simulation panicked instead of producing a
    /// result (the whole batch fails once every cell has finished).
    pub panicked: bool,
    /// Wall-clock time the cell took end to end, including snapshot
    /// get/resume/put I/O (zero for store hits).
    pub duration: Duration,
    /// Wall-clock time spent purely simulating (warm-up plus measured
    /// phase), excluding snapshot I/O and image encode/decode. This is the
    /// denominator for honest throughput comparisons, where snapshot traffic
    /// would otherwise dilute the simulator's instr/s. Zero for store hits.
    pub sim_duration: Duration,
    /// Instructions simulated for this cell in this process: warm-up plus
    /// measured phase for cold runs, the measured phase alone for
    /// snapshot-resumed runs, and the stored result's measured instructions
    /// for store hits.
    pub instructions: u64,
}

impl CellReport {
    /// Simulated instructions per wall-clock second of *simulation* time
    /// (snapshot-resume I/O excluded; zero for store hits).
    pub fn instr_per_sec(&self) -> f64 {
        let secs = self.sim_duration.as_secs_f64();
        if secs > 0.0 && !self.from_store {
            self.instructions as f64 / secs
        } else {
            0.0
        }
    }
}

/// A compact per-cell wall-clock record, kept by [`RunnerCounters`]; the
/// `experiments` binary writes these as the `cells` rows of
/// `run_summary.json`.
#[derive(Debug, Clone, Serialize)]
pub struct CellRecord {
    /// Workload label.
    pub workload: String,
    /// Design label.
    pub design: String,
    /// True if the result came from the persistent store.
    pub from_store: bool,
    /// True if the run resumed from a warmed snapshot.
    pub resumed_warm: bool,
    /// Wall-clock seconds end to end, including snapshot I/O (zero for
    /// store hits).
    pub seconds: f64,
    /// Wall-clock seconds spent purely simulating (see
    /// [`CellReport::sim_duration`]; zero for store hits).
    pub sim_seconds: f64,
    /// Instructions simulated in this process (see
    /// [`CellReport::instructions`]).
    pub instructions: u64,
    /// Simulated instructions per second of simulation time
    /// (snapshot-resume I/O excluded; zero for store hits).
    pub instr_per_sec: f64,
}

/// A fully-prepared execution cell: configuration, workload factory,
/// display labels and store key material. Built-in experiment cells come
/// from [`Runner::prepare`]; scenario cells are prepared by the scenario
/// module, which folds the scenario's own content into the key material.
#[derive(Clone)]
pub struct PreparedCell {
    /// Workload display label.
    pub workload_label: String,
    /// Design display label.
    pub design_label: String,
    /// A canonical description of everything that affects this cell's
    /// result (keys the persistent store).
    pub key_material: String,
    /// The canonical workload identity (kind, footprint, trace seed —
    /// everything shaping the trace stream, independent of the simulation
    /// config). Combined with the config's warm-up key material it keys the
    /// store's warmed-snapshot namespace, so cells that differ only in
    /// post-warm-up knobs share a warmed image.
    pub workload_ident: String,
    /// The simulation configuration.
    pub config: SimConfig,
    /// Builds the per-core traces.
    pub factory: Arc<dyn TraceFactory>,
}

/// Tallies of how a runner's cells were satisfied, shared across clones
/// (the `experiments` binary reports them in `run_summary.json`). Every
/// tally is derived from the per-cell records.
#[derive(Debug, Clone, Default)]
pub struct RunnerCounters {
    cells: Arc<Mutex<Vec<CellRecord>>>,
}

impl RunnerCounters {
    /// Cells computed by running a simulation.
    pub fn simulated(&self) -> usize {
        self.count(|c| !c.from_store)
    }

    /// Cells satisfied from the persistent result store.
    pub fn from_store(&self) -> usize {
        self.count(|c| c.from_store)
    }

    /// Simulated cells that resumed from a warmed-state snapshot (skipping
    /// warm-up). The remainder — [`RunnerCounters::cold`] — ran warm-up
    /// from scratch.
    pub fn resumed_warm(&self) -> usize {
        self.count(|c| c.resumed_warm)
    }

    /// Simulated cells that ran warm-up cold (no usable warmed image).
    pub fn cold(&self) -> usize {
        self.count(|c| !c.from_store && !c.resumed_warm)
    }

    /// Total wall-clock time spent inside simulations, summed over cells
    /// (under parallel execution this exceeds elapsed time). Includes
    /// snapshot get/resume/put I/O; see [`RunnerCounters::sim_only_time`].
    pub fn simulated_time(&self) -> Duration {
        self.total_seconds(|c| c.seconds)
    }

    /// Total wall-clock time spent purely simulating, summed over cells
    /// (snapshot I/O excluded; see [`CellReport::sim_duration`]).
    pub fn sim_only_time(&self) -> Duration {
        self.total_seconds(|c| c.sim_seconds)
    }

    /// Per-cell wall-clock records, in completion order (store hits first).
    /// Panicked cells are not recorded.
    pub fn cell_records(&self) -> Vec<CellRecord> {
        self.records().clone()
    }

    fn records(&self) -> MutexGuard<'_, Vec<CellRecord>> {
        self.cells
            .lock()
            .expect("nothing panics while holding the cell records")
    }

    fn count(&self, pred: impl Fn(&CellRecord) -> bool) -> usize {
        self.records().iter().filter(|c| pred(c)).count()
    }

    /// Store hits record zero seconds, so summing every record sums the
    /// simulated cells.
    fn total_seconds(&self, seconds: impl Fn(&CellRecord) -> f64) -> Duration {
        Duration::from_secs_f64(self.records().iter().map(seconds).sum())
    }

    fn record(&self, report: &CellReport) {
        if report.panicked {
            return;
        }
        let record = CellRecord {
            workload: report.workload.clone(),
            design: report.design.clone(),
            from_store: report.from_store,
            resumed_warm: report.resumed_warm,
            seconds: report.duration.as_secs_f64(),
            sim_seconds: report.sim_duration.as_secs_f64(),
            instructions: report.instructions,
            instr_per_sec: report.instr_per_sec(),
        };
        self.records().push(record);
    }
}

/// Telemetry settings for a runner: where the per-cell reports go and how
/// the recorder samples.
#[derive(Debug, Clone)]
pub struct TelemetryOptions {
    /// Output directory for the per-cell `telemetry_<cell>.json` reports.
    pub dir: PathBuf,
    /// Recorder settings (sampling interval and buffer capacities).
    pub config: TelemetryConfig,
}

/// Builds configurations and runs (workload, design) pairs.
#[derive(Debug, Clone)]
pub struct Runner {
    /// The scale of each simulation.
    pub scale: ExperimentScale,
    /// RNG seed shared by every run (kept fixed so designs see identical
    /// traces).
    pub seed: u64,
    /// Worker threads used for batched cells; `0` selects the host's
    /// available parallelism.
    pub jobs: usize,
    /// Directory of the persistent result store; `None` disables caching
    /// (every cell is recomputed).
    pub store_dir: Option<PathBuf>,
    /// Capture and resume warmed-state snapshots through the result store
    /// (no effect without a store). On by default; the `experiments` binary
    /// turns it off for `--no-snapshot`.
    pub snapshots: bool,
    /// Print per-cell progress and wall-clock times to stderr.
    pub progress: bool,
    /// Time-resolved telemetry: when set, every simulated cell records
    /// epoch samples and an event trace, exported as one JSON report under
    /// [`TelemetryOptions::dir`]. Store hits are bypassed (re-simulated) so
    /// each cell actually emits telemetry; results are byte-identical
    /// either way.
    pub telemetry: Option<TelemetryOptions>,
    /// Tallies of simulated vs. store-resumed cells (shared across clones).
    pub counters: RunnerCounters,
}

impl Runner {
    /// A runner at the given scale: host parallelism, no result store, no
    /// progress output.
    pub fn new(scale: ExperimentScale) -> Self {
        Runner {
            scale,
            seed: 42,
            jobs: 0,
            store_dir: None,
            snapshots: true,
            progress: false,
            telemetry: None,
            counters: RunnerCounters::default(),
        }
    }

    /// Use `jobs` worker threads (`0` = available parallelism).
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// Cache results persistently under `dir`.
    pub fn with_store(mut self, dir: impl Into<PathBuf>) -> Self {
        self.store_dir = Some(dir.into());
        self
    }

    /// Enable or disable warmed-state snapshot capture/resume.
    pub fn with_snapshots(mut self, snapshots: bool) -> Self {
        self.snapshots = snapshots;
        self
    }

    /// Print per-cell progress to stderr.
    pub fn with_progress(mut self, progress: bool) -> Self {
        self.progress = progress;
        self
    }

    /// Record time-resolved telemetry for every simulated cell, exporting
    /// one report per cell under `dir`.
    pub fn with_telemetry(mut self, dir: impl Into<PathBuf>, config: TelemetryConfig) -> Self {
        self.telemetry = Some(TelemetryOptions {
            dir: dir.into(),
            config,
        });
        self
    }

    /// Resolve the worker count a batch of `batch_size` simulated cells will
    /// actually use. Cells are the unit of parallelism: `jobs = 0` resolves
    /// to the host's available parallelism, and any request drops to the
    /// batch size, since a worker without a cell would only sit idle. An
    /// explicit `jobs` request is never raised.
    pub fn effective_parallelism(&self, batch_size: usize) -> usize {
        let jobs = if self.jobs == 0 {
            JobPool::available_workers()
        } else {
            self.jobs
        };
        jobs.min(batch_size.max(1))
    }

    /// The base configuration for a design at this scale.
    pub fn config(&self, design: DramCacheDesign) -> SimConfig {
        let mut cfg = SimConfig::scaled(design, self.scale.dram_cache_capacity());
        cfg.cores = self.scale.cores();
        cfg.hierarchy = SimConfig::scaled_hierarchy(cfg.cores, cfg.dcache.capacity);
        cfg.total_instructions = self.scale.instructions();
        cfg.warmup_instructions = self.scale.warmup_instructions();
        cfg.seed = self.seed;
        cfg
    }

    /// Total data footprint of every suite workload at this scale.
    fn workload_footprint(&self) -> u64 {
        self.scale.dram_cache_capacity().as_bytes() * self.scale.footprint_factor()
    }

    /// The workload object for a suite entry at this scale.
    pub fn workload(&self, kind: WorkloadKind) -> Workload {
        Workload::new(kind, self.workload_footprint(), self.seed)
    }

    /// The store key material for one cell: everything that affects its
    /// result (full simulation config, workload identity, footprint, seed).
    pub fn cell_key_material(&self, config: &SimConfig, kind: WorkloadKind) -> String {
        format!(
            "banshee-cell-v1|workload={:?}|footprint={}|wseed={}|{}",
            kind,
            self.workload_footprint(),
            self.seed,
            config.cache_key_material()
        )
    }

    /// The canonical workload identity for a built-in suite entry:
    /// everything that shapes its trace stream, independent of the
    /// simulation configuration (keys the warmed-snapshot namespace).
    pub fn workload_ident(&self, kind: WorkloadKind) -> String {
        format!(
            "{:?}|footprint={}|wseed={}",
            kind,
            self.workload_footprint(),
            self.seed
        )
    }

    /// Run one (design, workload) pair with the default configuration.
    pub fn run(&self, design: DramCacheDesign, kind: WorkloadKind) -> SimResult {
        self.run_with(self.config(design), kind)
    }

    /// Run one workload under an explicit configuration (for sweeps).
    pub fn run_with(&self, config: SimConfig, kind: WorkloadKind) -> SimResult {
        self.run_batch(vec![(config, kind)])
            .pop()
            .expect("one cell in, one result out")
    }

    /// Prepare one (config, built-in workload) cell for the execution
    /// engine: resolve its labels, store key and trace factory.
    pub fn prepare(&self, config: SimConfig, kind: WorkloadKind) -> PreparedCell {
        PreparedCell {
            workload_label: kind.name(),
            design_label: config.design.label(),
            key_material: self.cell_key_material(&config, kind),
            workload_ident: self.workload_ident(kind),
            factory: Arc::new(self.workload(kind)),
            config,
        }
    }

    /// The file-name label for one cell's telemetry report: the cell's
    /// batch slot plus slugged workload and design labels, e.g.
    /// `003_gcc_banshee`.
    fn telemetry_cell_label(slot: usize, cell: &PreparedCell) -> String {
        format!(
            "{:03}_{}_{}",
            slot,
            slug(&cell.workload_label),
            slug(&cell.design_label)
        )
    }

    /// Attach the runner's telemetry settings to a system about to run its
    /// measured phase. `resumed` carries the executed-instruction count when
    /// the system was resumed from a warmed image.
    fn attach_telemetry(
        &self,
        system: &mut System,
        slot: usize,
        cell: &PreparedCell,
        resumed: Option<u64>,
    ) {
        let Some(tel) = &self.telemetry else { return };
        let label = Self::telemetry_cell_label(slot, cell);
        system.enable_telemetry(tel.config);
        system.set_telemetry_sink(TelemetrySink::new(&tel.dir, &label));
        if let Some(executed) = resumed {
            system.note_snapshot_resume(executed);
        }
    }

    /// Simulate one prepared cell, resuming from (and capturing) a warmed
    /// image through the store when snapshots are enabled. Returns the
    /// result, whether the run resumed from a warmed image, the number of
    /// instructions simulated in this process, and the wall-clock time
    /// spent purely simulating (snapshot get/resume/put I/O excluded, so
    /// the reported instr/s measures the simulator, not the disk).
    ///
    /// A stale or corrupt image is *never* fatal: an image the store screens
    /// out (old format, other model revision or key) and any resume failure
    /// are reported, and the cell re-runs warm-up cold, overwriting the bad
    /// image with a fresh one.
    fn simulate_cell(
        &self,
        slot: usize,
        cell: &PreparedCell,
        store: Option<&ResultStore>,
    ) -> (SimResult, bool, u64, Duration) {
        let name = cell.factory.name();
        let snap_key = System::warmed_key_material(&cell.config, &cell.workload_ident);
        if self.snapshots {
            if let Some(store) = store {
                let image = store.get_snapshot(&snap_key, SimConfig::MODEL_REVISION);
                if image.is_none() && store.snapshot_path(&snap_key).exists() {
                    eprintln!(
                        "[exec] warning: discarding warmed image for {} x {} (stale format, \
                         model revision or key); re-warming",
                        cell.workload_label, cell.design_label
                    );
                }
                if let Some(image) = image {
                    match System::resume_warmed(
                        cell.config.clone(),
                        &*cell.factory,
                        &cell.workload_ident,
                        &image,
                    ) {
                        Ok((mut system, executed)) => {
                            self.attach_telemetry(&mut system, slot, cell, Some(executed));
                            let sim_start = Instant::now();
                            let result = system.run_measured(&name, Some(executed));
                            let sim_time = sim_start.elapsed();
                            let instructions = result.instructions;
                            return (result, true, instructions, sim_time);
                        }
                        Err(err) => eprintln!(
                            "[exec] warning: discarding warmed image for {} x {} ({err}); re-warming",
                            cell.workload_label, cell.design_label
                        ),
                    }
                }
            }
        }
        let mut system = System::new(cell.config.clone(), &*cell.factory);
        self.attach_telemetry(&mut system, slot, cell, None);
        let sim_start = Instant::now();
        let warmed = system.warm_up();
        let mut sim_time = sim_start.elapsed();
        if self.snapshots {
            if let (Some(store), Some(executed)) = (store, warmed) {
                let image = system.warmed_image(&cell.workload_ident, executed);
                if let Err(err) = store.put_snapshot(&snap_key, &image) {
                    eprintln!("[exec] warning: failed to store a warmed image ({err})");
                }
            }
        }
        let sim_start = Instant::now();
        let result = system.run_measured(&name, warmed);
        sim_time += sim_start.elapsed();
        let instructions = result.instructions + warmed.unwrap_or(0);
        (result, false, instructions, sim_time)
    }

    /// Run a batch of (config, workload) cells through the execution
    /// engine. Results come back in input order; cells already present in
    /// the result store are not re-simulated, and identical cells within
    /// the batch are simulated once and share the result.
    pub fn run_batch(&self, cells: Vec<(SimConfig, WorkloadKind)>) -> Vec<SimResult> {
        self.run_batch_observed(cells, |_| {})
    }

    /// Like [`Runner::run_batch`], reporting each cell's outcome to
    /// `observe` (store hits first, then simulated cells in completion
    /// order; `observe` runs on worker threads). Duplicate cells are
    /// reported once, for the copy that actually runs.
    pub fn run_batch_observed<O>(
        &self,
        cells: Vec<(SimConfig, WorkloadKind)>,
        observe: O,
    ) -> Vec<SimResult>
    where
        O: Fn(&CellReport) + Sync,
    {
        let prepared = cells
            .into_iter()
            .map(|(config, kind)| self.prepare(config, kind))
            .collect();
        self.run_prepared_observed(prepared, observe)
    }

    /// Run a batch of fully-prepared cells (scenario cells and built-in
    /// cells alike) through the engine, with the same store-resume,
    /// deduplication and ordering guarantees as [`Runner::run_batch`].
    pub fn run_prepared(&self, cells: Vec<PreparedCell>) -> Vec<SimResult> {
        self.run_prepared_observed(cells, |_| {})
    }

    /// Like [`Runner::run_prepared`], reporting each cell's outcome to
    /// `observe`.
    pub fn run_prepared_observed<O>(&self, cells: Vec<PreparedCell>, observe: O) -> Vec<SimResult>
    where
        O: Fn(&CellReport) + Sync,
    {
        let total = cells.len();
        let store = self
            .store_dir
            .as_ref()
            .and_then(|dir| match ResultStore::open(dir) {
                Ok(store) => Some(store),
                Err(err) => {
                    eprintln!(
                        "[exec] warning: result store at {} unavailable ({err}); recomputing",
                        dir.display()
                    );
                    None
                }
            });

        let mut results: Vec<Option<SimResult>> = Vec::with_capacity(total);
        results.resize_with(total, || None);
        // `misses` are the cells that will actually be simulated; a cell
        // identical to an earlier miss becomes that miss's duplicate
        // instead (e.g. a sweep's default setting appearing in two panels).
        let mut misses: Vec<usize> = Vec::new();
        let mut miss_by_material: HashMap<&str, usize> = HashMap::new();
        let mut duplicates: Vec<(usize, usize)> = Vec::new(); // (slot, misses idx)
        let mut hits = 0usize;
        for (index, cell) in cells.iter().enumerate() {
            // With telemetry on, store hits are bypassed: every cell must
            // actually simulate to emit its time series (results are
            // byte-identical, and the store is refreshed on completion).
            let cached = if self.telemetry.is_some() {
                None
            } else {
                store
                    .as_ref()
                    .and_then(|s| s.get_decoded::<SimResult>(&cell.key_material))
            };
            match cached {
                Some(result) => {
                    let report = CellReport {
                        index,
                        workload: cell.workload_label.clone(),
                        design: cell.design_label.clone(),
                        from_store: true,
                        resumed_warm: false,
                        panicked: false,
                        duration: Duration::ZERO,
                        sim_duration: Duration::ZERO,
                        instructions: result.instructions,
                    };
                    self.counters.record(&report);
                    observe(&report);
                    results[index] = Some(result);
                    hits += 1;
                }
                None => match miss_by_material.entry(cell.key_material.as_str()) {
                    std::collections::hash_map::Entry::Occupied(first) => {
                        duplicates.push((index, *first.get()));
                    }
                    std::collections::hash_map::Entry::Vacant(slot) => {
                        slot.insert(misses.len());
                        misses.push(index);
                    }
                },
            }
        }
        if self.progress && hits > 0 {
            eprintln!("[exec] {hits}/{total} cells already in the result store");
        }
        if misses.is_empty() && duplicates.is_empty() {
            return results.into_iter().map(|r| r.unwrap()).collect();
        }

        let pool = JobPool::new(self.effective_parallelism(misses.len()));
        let miss_cells: Vec<PreparedCell> = misses.iter().map(|&i| cells[i].clone()).collect();
        // Set by the worker before it returns, read by the (same-thread)
        // completion callback: whether each miss resumed from a warmed
        // image.
        let resumed_flags: Vec<AtomicBool> = (0..miss_cells.len())
            .map(|_| AtomicBool::new(false))
            .collect();
        let instr_counts: Vec<AtomicU64> =
            (0..miss_cells.len()).map(|_| AtomicU64::new(0)).collect();
        let sim_micros: Vec<AtomicU64> = (0..miss_cells.len()).map(|_| AtomicU64::new(0)).collect();
        let outputs = pool.run_with_progress(
            miss_cells,
            |index, cell| {
                let (result, resumed, instructions, sim_time) =
                    self.simulate_cell(misses[index], cell, store.as_ref());
                if resumed {
                    resumed_flags[index].store(true, Ordering::Relaxed);
                }
                instr_counts[index].store(instructions, Ordering::Relaxed);
                sim_micros[index].store(sim_time.as_micros() as u64, Ordering::Relaxed);
                // Persist from the worker, as soon as the cell finishes:
                // a sweep interrupted mid-batch resumes from every
                // completed cell, not just completed batches.
                if let Some(store) = &store {
                    if let Err(err) = store.put_encoded(&cell.key_material, &result) {
                        eprintln!("[exec] warning: failed to cache a cell ({err})");
                    }
                }
                result
            },
            |completion| {
                let cell = &cells[misses[completion.index]];
                let report = CellReport {
                    index: misses[completion.index],
                    workload: cell.workload_label.clone(),
                    design: cell.design_label.clone(),
                    from_store: false,
                    resumed_warm: resumed_flags[completion.index].load(Ordering::Relaxed),
                    panicked: completion.panicked,
                    duration: completion.duration,
                    sim_duration: Duration::from_micros(
                        sim_micros[completion.index].load(Ordering::Relaxed),
                    ),
                    instructions: instr_counts[completion.index].load(Ordering::Relaxed),
                };
                if self.progress {
                    eprintln!(
                        "[exec] {}/{} {} x {} ({:.2}s, {:.2}s sim, {:.2} Minstr/s{}){}",
                        completion.completed,
                        completion.total,
                        report.workload,
                        report.design,
                        completion.duration.as_secs_f64(),
                        report.sim_duration.as_secs_f64(),
                        report.instr_per_sec() / 1e6,
                        if report.resumed_warm { ", warmed" } else { "" },
                        if completion.panicked { " PANICKED" } else { "" },
                    );
                }
                self.counters.record(&report);
                observe(&report);
            },
        );

        let mut panics = Vec::new();
        for (&slot, output) in misses.iter().zip(outputs) {
            match output.result {
                Ok(result) => results[slot] = Some(result),
                Err(panic) => panics.push(format!(
                    "{} x {}: {}",
                    cells[slot].workload_label, cells[slot].design_label, panic.message
                )),
            }
        }
        for &(slot, miss_idx) in &duplicates {
            results[slot] = results[misses[miss_idx]].clone();
        }
        // Completed cells are already cached, so a re-run after the panic is
        // fixed resumes instead of starting over.
        if !panics.is_empty() {
            panic!(
                "{} of {} cells panicked: {}",
                panics.len(),
                total,
                panics.join("; ")
            );
        }
        results.into_iter().map(|r| r.unwrap()).collect()
    }

    /// Run the full designs × workloads matrix.
    pub fn run_matrix(
        &self,
        designs: &[DramCacheDesign],
        workloads: &[WorkloadKind],
    ) -> MatrixResults {
        let cells: Vec<(SimConfig, WorkloadKind)> = workloads
            .iter()
            .flat_map(|&kind| {
                designs
                    .iter()
                    .map(move |&design| (self.config(design), kind))
            })
            .collect();
        let labels: Vec<(String, String)> = cells
            .iter()
            .map(|(config, kind)| (kind.name(), config.design.label()))
            .collect();
        let mut results = MatrixResults::default();
        for ((workload, design), r) in labels.into_iter().zip(self.run_batch(cells)) {
            results.insert(workload, design, r);
        }
        results
    }
}

/// Results of a designs × workloads matrix, indexed by (workload, design)
/// labels.
#[derive(Debug, Clone, Default)]
pub struct MatrixResults {
    results: HashMap<(String, String), SimResult>,
    workload_order: Vec<String>,
    workload_set: HashSet<String>,
    design_order: Vec<String>,
    design_set: HashSet<String>,
}

impl MatrixResults {
    /// Store one result.
    pub fn insert(&mut self, workload: String, design: String, result: SimResult) {
        if self.workload_set.insert(workload.clone()) {
            self.workload_order.push(workload.clone());
        }
        if self.design_set.insert(design.clone()) {
            self.design_order.push(design.clone());
        }
        self.results.insert((workload, design), result);
    }

    /// Look up one result.
    pub fn get(&self, workload: &str, design: &str) -> Option<&SimResult> {
        self.results
            .get(&(workload.to_string(), design.to_string()))
    }

    /// Workload labels in insertion order.
    pub fn workloads(&self) -> &[String] {
        &self.workload_order
    }

    /// Design labels in insertion order.
    pub fn designs(&self) -> &[String] {
        &self.design_order
    }

    /// Geometric mean of a per-workload metric over all workloads, for one
    /// design. Workloads where the metric is non-positive are skipped.
    pub fn geomean<F>(&self, design: &str, metric: F) -> f64
    where
        F: Fn(&SimResult) -> f64,
    {
        let values: Vec<f64> = self
            .workload_order
            .iter()
            .filter_map(|w| self.get(w, design))
            .map(&metric)
            .filter(|v| *v > 0.0)
            .collect();
        if values.is_empty() {
            0.0
        } else {
            (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
        }
    }

    /// Arithmetic mean of a per-workload metric for one design.
    pub fn mean<F>(&self, design: &str, metric: F) -> f64
    where
        F: Fn(&SimResult) -> f64,
    {
        let values: Vec<f64> = self
            .workload_order
            .iter()
            .filter_map(|w| self.get(w, design))
            .map(&metric)
            .collect();
        if values.is_empty() {
            0.0
        } else {
            values.iter().sum::<f64>() / values.len() as f64
        }
    }

    /// Every stored result (for JSON export).
    pub fn all(&self) -> Vec<&SimResult> {
        self.workload_order
            .iter()
            .flat_map(|w| self.design_order.iter().filter_map(move |d| self.get(w, d)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use banshee_workloads::SpecProgram;

    #[test]
    fn smoke_matrix_runs_and_indexes() {
        let runner = Runner::new(ExperimentScale::Smoke);
        let designs = [DramCacheDesign::NoCache, DramCacheDesign::Banshee];
        let workloads = [WorkloadKind::Spec(SpecProgram::Gcc)];
        let m = runner.run_matrix(&designs, &workloads);
        assert_eq!(m.workloads().len(), 1);
        assert_eq!(m.designs().len(), 2);
        let no = m.get("gcc", "NoCache").unwrap();
        let ban = m.get("gcc", "Banshee").unwrap();
        assert!(no.instructions > 0 && ban.instructions > 0);
        assert!(m.geomean("Banshee", |r| r.ipc()) > 0.0);
        assert!(m.mean("NoCache", |r| r.ipc()) > 0.0);
        assert_eq!(m.all().len(), 2);
    }

    #[test]
    fn scales_are_ordered() {
        assert!(ExperimentScale::Smoke.instructions() < ExperimentScale::Quick.instructions());
        assert!(ExperimentScale::Quick.instructions() < ExperimentScale::Standard.instructions());
        assert!(
            ExperimentScale::Quick.dram_cache_capacity()
                <= ExperimentScale::Standard.dram_cache_capacity()
        );
        assert_eq!(ExperimentScale::Quick.name(), "quick");
    }

    #[test]
    fn config_respects_scale() {
        let r = Runner::new(ExperimentScale::Smoke);
        let cfg = r.config(DramCacheDesign::Banshee);
        assert_eq!(cfg.cores, 4);
        assert_eq!(cfg.total_instructions, 300_000);
        assert_eq!(cfg.dcache.capacity, MemSize::mib(8));
    }

    #[test]
    fn matrix_insert_deduplicates_order_labels() {
        let runner = Runner::new(ExperimentScale::Smoke);
        let r = runner.run(
            DramCacheDesign::NoCache,
            WorkloadKind::Spec(SpecProgram::Gcc),
        );
        let mut m = MatrixResults::default();
        for _ in 0..3 {
            m.insert("gcc".into(), "NoCache".into(), r.clone());
        }
        m.insert("gcc".into(), "Banshee".into(), r.clone());
        assert_eq!(m.workloads(), ["gcc".to_string()]);
        assert_eq!(m.designs(), ["NoCache".to_string(), "Banshee".to_string()]);
    }

    #[test]
    fn warmed_images_are_reused_and_reproduce_cold_results() {
        let dir =
            std::env::temp_dir().join(format!("banshee_runner_snap_test_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let kind = WorkloadKind::Spec(SpecProgram::Gcc);

        // Pass 1: cold — simulates and leaves a warmed image behind.
        let first = Runner::new(ExperimentScale::Smoke).with_store(&dir);
        first.run(DramCacheDesign::Banshee, kind);
        assert_eq!(first.counters.simulated(), 1);
        assert_eq!(first.counters.resumed_warm(), 0);
        assert_eq!(first.counters.cold(), 1);

        // Pass 2: a different measurement budget misses the result cache
        // but shares the warmed image (total_instructions is the only
        // post-warm-up knob).
        let second = Runner::new(ExperimentScale::Smoke).with_store(&dir);
        let mut cfg = second.config(DramCacheDesign::Banshee);
        cfg.total_instructions /= 2;
        let resumed = second.run_with(cfg.clone(), kind);
        assert_eq!(second.counters.simulated(), 1);
        assert_eq!(second.counters.resumed_warm(), 1);
        assert_eq!(second.counters.cold(), 0);

        // The resumed result is byte-identical to a cold run of the same
        // configuration (no store, no snapshots).
        let cold = Runner::new(ExperimentScale::Smoke).run_with(cfg.clone(), kind);
        assert_eq!(
            serde_json::to_string_pretty(&resumed).unwrap(),
            serde_json::to_string_pretty(&cold).unwrap()
        );

        // --no-snapshot: same store, third budget, must run cold.
        let third = Runner::new(ExperimentScale::Smoke)
            .with_store(&dir)
            .with_snapshots(false);
        let mut cfg3 = cfg;
        cfg3.total_instructions /= 2;
        third.run_with(cfg3, kind);
        assert_eq!(third.counters.resumed_warm(), 0);
        assert_eq!(third.counters.cold(), 1);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn old_format_images_are_rewarmed_and_replaced() {
        let dir = std::env::temp_dir().join(format!(
            "banshee_runner_old_snap_test_{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let kind = WorkloadKind::Spec(SpecProgram::Gcc);
        let design = DramCacheDesign::Hma;
        let image_path = || {
            std::fs::read_dir(dir.join("snapshots"))
                .unwrap()
                .map(|e| e.unwrap().path())
                .find(|p| p.extension().is_some_and(|x| x == "snap"))
                .expect("a warmed image in the store")
        };
        let format_of = |bytes: &[u8]| u32::from_le_bytes(bytes[8..12].try_into().unwrap());

        // Pass 1 leaves a warmed image behind; rewrite its format field to
        // the previous encoding, as a store written before the bump holds.
        let first = Runner::new(ExperimentScale::Smoke).with_store(&dir);
        first.run(design, kind);
        let path = image_path();
        let mut bytes = std::fs::read(&path).unwrap();
        assert_eq!(format_of(&bytes), banshee_common::SNAPSHOT_FORMAT);
        bytes[8..12].copy_from_slice(&2u32.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();

        // Pass 2 (new budget, so the result cache misses): the old image is
        // discarded and warm-up re-runs cold, reproducing a cold run.
        let second = Runner::new(ExperimentScale::Smoke).with_store(&dir);
        let mut cfg = second.config(design);
        cfg.total_instructions /= 2;
        let rewarmed = second.run_with(cfg.clone(), kind);
        assert_eq!(second.counters.cold(), 1);
        assert_eq!(second.counters.resumed_warm(), 0);
        let cold = Runner::new(ExperimentScale::Smoke).run_with(cfg.clone(), kind);
        let json = |r: &SimResult| serde_json::to_string_pretty(r).unwrap();
        assert_eq!(json(&rewarmed), json(&cold));
        assert_eq!(
            format_of(&std::fs::read(image_path()).unwrap()),
            banshee_common::SNAPSHOT_FORMAT,
            "the re-warmed cell overwrites the old image"
        );

        // Pass 3 resumes from the overwritten image.
        let third = Runner::new(ExperimentScale::Smoke).with_store(&dir);
        let mut cfg3 = cfg;
        cfg3.total_instructions /= 2;
        let resumed = third.run_with(cfg3.clone(), kind);
        assert_eq!(third.counters.resumed_warm(), 1);
        assert_eq!(third.counters.cold(), 0);
        let cold3 = Runner::new(ExperimentScale::Smoke).run_with(cfg3, kind);
        assert_eq!(json(&resumed), json(&cold3));

        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Cells are the only unit of parallelism: `jobs = 0` resolves to the
    /// host's available parallelism clamped to the batch, and an explicit
    /// request is clamped to the batch but never raised.
    #[test]
    fn jobs_resolve_to_at_most_the_batch_size() {
        let available = JobPool::available_workers();
        let auto = Runner::new(ExperimentScale::Smoke);
        assert_eq!(auto.effective_parallelism(64), available.min(64));
        assert_eq!(auto.effective_parallelism(1), 1);

        let explicit = Runner::new(ExperimentScale::Smoke).with_jobs(available + 7);
        assert_eq!(
            explicit.effective_parallelism(available + 100),
            available + 7
        );
        assert_eq!(explicit.effective_parallelism(2), 2);

        let seq = Runner::new(ExperimentScale::Smoke).with_jobs(1);
        assert_eq!(seq.effective_parallelism(3), 1);
    }

    #[test]
    fn cell_records_split_sim_time_from_snapshot_io() {
        let dir = std::env::temp_dir().join(format!(
            "banshee_runner_simtime_test_{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let runner = Runner::new(ExperimentScale::Smoke).with_store(&dir);
        runner.run(
            DramCacheDesign::NoCache,
            WorkloadKind::Spec(SpecProgram::Gcc),
        );
        let records = runner.counters.cell_records();
        assert_eq!(records.len(), 1);
        let rec = &records[0];
        assert!(rec.sim_seconds > 0.0, "cold runs spend time simulating");
        assert!(
            rec.sim_seconds <= rec.seconds,
            "sim time ({:.4}s) is a subset of total cell time ({:.4}s)",
            rec.sim_seconds,
            rec.seconds
        );
        assert!(rec.instr_per_sec > 0.0);
        assert!(runner.counters.sim_only_time() <= runner.counters.simulated_time());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cell_key_material_distinguishes_cells() {
        let runner = Runner::new(ExperimentScale::Smoke);
        let cfg = runner.config(DramCacheDesign::Banshee);
        let a = runner.cell_key_material(&cfg, WorkloadKind::Spec(SpecProgram::Gcc));
        let b = runner.cell_key_material(&cfg, WorkloadKind::Spec(SpecProgram::Mcf));
        let c = runner.cell_key_material(
            &runner.config(DramCacheDesign::Tdc),
            WorkloadKind::Spec(SpecProgram::Gcc),
        );
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(
            a,
            runner.cell_key_material(&cfg, WorkloadKind::Spec(SpecProgram::Gcc))
        );
    }
}
