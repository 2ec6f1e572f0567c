//! The full-system simulation loop.

use crate::config::SimConfig;
use crate::core_model::{CoreModel, Translation};
use crate::factory::build_controller;
use crate::result::SimResult;
use banshee_common::persist::Persist;
use banshee_common::telemetry::{
    EventKind, Recorder, SampleCumulative, TelemetryConfig, TelemetrySink,
};
use banshee_common::{
    fnv1a64, Addr, Cycle, LineAddr, PageNum, SnapshotError, SnapshotHeader, SnapshotReader,
    SnapshotWriter, StatSet, TrafficStats, XorShiftRng, CPU_CLOCK,
};
use banshee_dcache::{DramCacheController, MemRequest, PlanSink, SideEffect};
use banshee_dram::DualDram;
use banshee_memhier::{CacheHierarchy, HitLevel, PageSize, PageTable, TlbEntry};
use banshee_workloads::TraceFactory;

/// Small fixed latencies of the on-chip path (partially hidden by the
/// out-of-order core, hence smaller than the raw lookup latencies).
const L2_HIT_PENALTY: Cycle = 2;
const LLC_HIT_PENALTY: Cycle = 8;
const MISS_ISSUE_PENALTY: Cycle = 2;

/// The simulated machine: cores + SRAM hierarchy + page table + memory
/// controllers (one [`DramCacheController`]) + the two DRAM devices.
pub struct System {
    config: SimConfig,
    cores: Vec<CoreModel>,
    hierarchy: CacheHierarchy,
    page_table: PageTable,
    controller: Box<dyn DramCacheController>,
    dram: DualDram,
    rng: XorShiftRng,
    next_epoch_at: u64,
    os_stats: StatSet,
    /// Bytes of every executed plan op, accumulated per (DRAM, class) with
    /// the device's min-transfer rounding applied — the design-reported side
    /// of the traffic-conservation invariant (must equal the device-level
    /// accounting minus untimed traffic).
    planned: banshee_common::TrafficStats,
    /// Reusable plan scratch: reset before every controller call so the
    /// per-access path performs no heap allocation in steady state.
    sink: PlanSink,
    /// Reusable buffer for page-flush side effects.
    flush_scratch: Vec<LineAddr>,
    /// Time-resolved telemetry. `None` by default and *never* persisted in
    /// warmed images or reflected in key material — telemetry observes the
    /// simulation without influencing it, and results are byte-identical
    /// with the recorder on or off.
    recorder: Option<Box<Recorder>>,
    /// Where to write the telemetry report at collection time (None:
    /// discard).
    telemetry_sink: Option<TelemetrySink>,
}

impl System {
    /// Build a system running `workload` under `config` (any
    /// [`TraceFactory`]: a built-in [`banshee_workloads::Workload`] or a
    /// data-driven scenario workload).
    pub fn new(config: SimConfig, workload: &dyn TraceFactory) -> Self {
        let traces = workload.build_traces(config.cores);
        let cores = traces
            .into_iter()
            .enumerate()
            .map(|(id, trace)| {
                CoreModel::new(
                    id,
                    trace,
                    config.tlb_entries,
                    config.mlp_per_core,
                    config.issue_width,
                )
            })
            .collect();
        let hierarchy = CacheHierarchy::new(config.hierarchy.clone());
        let controller = build_controller(&config);
        let dram = DualDram::new(config.in_dram.clone(), config.off_dram.clone());
        System {
            cores,
            hierarchy,
            page_table: PageTable::new(),
            controller,
            dram,
            rng: XorShiftRng::new(config.seed ^ 0x5151),
            next_epoch_at: config.epoch_instructions,
            os_stats: StatSet::new(),
            planned: banshee_common::TrafficStats::new(),
            sink: PlanSink::new(),
            flush_scratch: Vec::new(),
            recorder: None,
            telemetry_sink: None,
            config,
        }
    }

    /// Turn on the telemetry recorder. Must be called before the run starts
    /// (or right after [`System::resume_warmed`]); simulation results are
    /// unaffected either way.
    pub fn enable_telemetry(&mut self, config: TelemetryConfig) {
        self.recorder = Some(Box::new(Recorder::new(config)));
    }

    /// Set where [`System::run_measured`] writes the telemetry report.
    /// Export errors degrade to a warning on stderr, never a failed run.
    pub fn set_telemetry_sink(&mut self, sink: TelemetrySink) {
        self.telemetry_sink = Some(sink);
    }

    /// Note (for the event trace) that this system was resumed from a
    /// warmed snapshot at `executed` instructions rather than re-warmed.
    pub fn note_snapshot_resume(&mut self, executed: u64) {
        if let Some(rec) = &mut self.recorder {
            let cycles = self.cores.iter().map(|c| c.clock).max().unwrap_or(0);
            rec.record_event(executed, cycles, EventKind::SnapshotResume, 1);
        }
    }

    /// Run warm-up plus the configured measurement budget and collect the
    /// result. Warm-up executes exactly like measurement (same workload, same
    /// controller state evolution) but its traffic, miss and cycle counts are
    /// excluded from the reported statistics.
    pub fn run(mut self, workload_name: &str) -> SimResult {
        let warmed = self.warm_up();
        self.run_measured(workload_name, warmed)
    }

    /// Execute instructions until the warm-up boundary is crossed and return
    /// the number executed (`None` only when warm-up and budget are both
    /// zero, i.e. there is nothing to run at all).
    ///
    /// The system is left exactly at the *warm point*: the step that crossed
    /// the boundary has retired but its epoch check has not yet run — that
    /// pending check belongs to the measured phase and is performed by
    /// [`System::run_measured`]. This is the state [`System::warmed_image`]
    /// captures and [`System::resume_warmed`] reconstructs.
    pub fn warm_up(&mut self) -> Option<u64> {
        let warmup = self.config.warmup_instructions;
        let budget = self.config.total_instructions;
        let mut executed: u64 = 0;
        while executed < warmup + budget {
            executed += self.step_laggard();
            if self.recorder.is_some() {
                self.telemetry_tick(executed, true);
            }
            if executed >= warmup {
                return Some(executed);
            }
            // Periodic controller maintenance (HMA remapping, BATMAN
            // rebalancing).
            if executed >= self.next_epoch_at {
                self.next_epoch_at += self.config.epoch_instructions;
                self.run_epoch(executed);
            }
        }
        None
    }

    /// Run the measured phase from the warm point (`warmed` as returned by
    /// [`System::warm_up`], or the instruction count carried in a resumed
    /// image) and collect the result.
    pub fn run_measured(mut self, workload_name: &str, warmed: Option<u64>) -> SimResult {
        let Some(mut executed) = warmed else {
            return self.collect(workload_name, 0, MeasurementBaseline::default());
        };
        let baseline = self.counter_baseline();
        if self.recorder.is_some() {
            // Flush the partial warm-up sampling window exactly at the
            // baseline, so measured-phase sample deltas telescope to the
            // final (baseline-subtracted) result.
            self.take_sample(executed, true);
            if let Some(rec) = &mut self.recorder {
                rec.record_event(executed, baseline.cycles, EventKind::MeasurementStart, 1);
            }
        }
        let warmup = self.config.warmup_instructions;
        let budget = self.config.total_instructions;
        // The step that crossed the warm-up boundary still owes its epoch
        // check (in the unsplit loop it ran right after the baseline
        // capture).
        if executed >= self.next_epoch_at {
            self.next_epoch_at += self.config.epoch_instructions;
            self.run_epoch(executed);
        }
        while executed < warmup + budget {
            executed += self.step_laggard();
            if self.recorder.is_some() {
                self.telemetry_tick(executed, false);
            }
            if executed >= self.next_epoch_at {
                self.next_epoch_at += self.config.epoch_instructions;
                self.run_epoch(executed);
            }
        }
        self.collect(workload_name, executed, baseline)
    }

    /// Record a time-series sample if the current instruction count crossed
    /// the sampling boundary. Only called with the recorder on; kept out of
    /// line so the hot loop pays a single branch when telemetry is off.
    #[cold]
    fn telemetry_tick(&mut self, executed: u64, warmup: bool) {
        if self
            .recorder
            .as_ref()
            .is_some_and(|rec| rec.sample_due(executed))
        {
            self.take_sample(executed, warmup);
        }
    }

    /// Gather the cumulative counters the recorder diffs between samples and
    /// push one sample. The read is pure observation: nothing in the
    /// simulation state changes.
    fn take_sample(&mut self, executed: u64, warmup: bool) {
        let cycles = self.cores.iter().map(|c| c.clock).max().unwrap_or(0);
        let (accesses, misses) = self.controller.demand_stats();
        let cum = SampleCumulative {
            instructions: executed,
            cycles,
            dram_cache_accesses: accesses,
            dram_cache_misses: misses,
            llc_misses: self.hierarchy.llc_miss_count(),
            traffic: self.dram.combined_traffic(),
            in_dram: self.dram.in_package.telemetry(cycles),
            off_dram: self.dram.off_package.telemetry(cycles),
        };
        let mut gauges = Vec::new();
        self.controller.telemetry_gauges(&mut gauges);
        if let Some(rec) = &mut self.recorder {
            rec.record_sample(warmup, cum, &gauges);
        }
    }

    /// Record a rare design event at the current total instruction count.
    /// Only called from cold paths (side effects, epochs).
    fn design_event(&mut self, kind: EventKind, now: Cycle, count: u64) {
        if let Some(rec) = &mut self.recorder {
            let instructions = self.cores.iter().map(|c| c.instructions).sum();
            rec.record_event(instructions, now, kind, count);
        }
    }

    /// Advance the core that is furthest behind in time by one access.
    fn step_laggard(&mut self) -> u64 {
        let core_id = self
            .cores
            .iter()
            .enumerate()
            .min_by_key(|(_, c)| c.clock)
            .map(|(i, _)| i)
            .expect("at least one core");
        self.step_core(core_id)
    }

    /// The canonical key material naming a warmed state: the configuration's
    /// warm-up key material plus a caller-chosen canonical workload identity
    /// (the display name for simple callers; the experiment harness passes
    /// its full workload key so same-named workloads with different
    /// footprints or trace seeds never share an image). Two runs share a
    /// warmed image exactly when this string matches.
    pub fn warmed_key_material(config: &SimConfig, workload_ident: &str) -> String {
        format!("{}|workload={workload_ident}", config.warmup_key_material())
    }

    /// The identity hash stored in a warmed image's header: FNV-1a over
    /// [`System::warmed_key_material`].
    pub fn warmed_key_hash(config: &SimConfig, workload_ident: &str) -> u64 {
        fnv1a64(Self::warmed_key_material(config, workload_ident).as_bytes())
    }

    /// Serialise the machine at the warm point into a self-describing image
    /// (header + one framed section per subsystem). `executed` is the value
    /// returned by [`System::warm_up`]; it rides in the header so resuming
    /// knows where the measured phase starts. `workload_ident` must be the
    /// same canonical workload identity later passed to
    /// [`System::resume_warmed`].
    pub fn warmed_image(&self, workload_ident: &str, executed: u64) -> Vec<u8> {
        let header = SnapshotHeader {
            model_revision: SimConfig::MODEL_REVISION,
            key_hash: Self::warmed_key_hash(&self.config, workload_ident),
            instructions: executed,
        };
        let mut w = SnapshotWriter::with_header(header);
        w.section("cores", |w| {
            w.usize(self.cores.len());
            for core in &self.cores {
                core.save_state(w);
            }
        });
        w.section("hierarchy", |w| self.hierarchy.save(w));
        w.section("page_table", |w| self.page_table.save(w));
        w.section("controller", |w| self.controller.save_state(w));
        w.section("dram", |w| self.dram.save_state(w));
        w.section("system", |w| {
            self.rng.save(w);
            w.u64(self.next_epoch_at);
            self.os_stats.save(w);
            self.planned.save(w);
        });
        w.into_bytes()
    }

    /// Rebuild a system at the warm point from a warmed image.
    ///
    /// The image's header is validated first: a [`SnapshotError::StaleRevision`]
    /// or [`SnapshotError::KeyMismatch`] means the image was captured by a
    /// different model revision or for a different (configuration, workload)
    /// pair and must be discarded — resuming it would silently change
    /// results. On success returns the system plus the executed-instruction
    /// count to pass to [`System::run_measured`].
    pub fn resume_warmed(
        config: SimConfig,
        workload: &dyn TraceFactory,
        workload_ident: &str,
        image: &[u8],
    ) -> Result<(System, u64), SnapshotError> {
        let expected_key = Self::warmed_key_hash(&config, workload_ident);
        let mut r = SnapshotReader::new(image);
        let header = r.header()?;
        header.validate(SimConfig::MODEL_REVISION, expected_key)?;
        let mut system = System::new(config, workload);
        system.load_state(&mut r)?;
        if !r.is_exhausted() {
            return Err(SnapshotError::Corrupt(format!(
                "{} bytes of trailing data after the system image",
                r.remaining()
            )));
        }
        Ok((system, header.instructions))
    }

    /// Restore every subsystem from the sections written by
    /// [`System::warmed_image`] into this freshly built (cold) system.
    fn load_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        r.section("cores", |r| {
            let n = r.usize()?;
            if n != self.cores.len() {
                return Err(SnapshotError::Corrupt(format!(
                    "image has {n} cores, configuration has {}",
                    self.cores.len()
                )));
            }
            for core in self.cores.iter_mut() {
                core.load_state(r)?;
            }
            Ok(())
        })?;
        r.section("hierarchy", |r| {
            let restored = CacheHierarchy::restore(r)?;
            if restored.config() != self.hierarchy.config() {
                return Err(SnapshotError::Corrupt(
                    "image SRAM hierarchy geometry differs from the configuration".to_string(),
                ));
            }
            self.hierarchy = restored;
            Ok(())
        })?;
        r.section("page_table", |r| {
            self.page_table = PageTable::restore(r)?;
            Ok(())
        })?;
        r.section("controller", |r| self.controller.load_state(r))?;
        r.section("dram", |r| self.dram.load_state(r))?;
        r.section("system", |r| {
            self.rng = XorShiftRng::restore(r)?;
            self.next_epoch_at = r.u64()?;
            self.os_stats = StatSet::restore(r)?;
            self.planned = TrafficStats::restore(r)?;
            Ok(())
        })
    }

    /// Capture the counters at the end of warm-up so they can be excluded
    /// from the measured phase.
    fn counter_baseline(&self) -> MeasurementBaseline {
        let (accesses, misses) = self.controller.demand_stats();
        MeasurementBaseline {
            instructions: self.cores.iter().map(|c| c.instructions).sum(),
            cycles: self.cores.iter().map(|c| c.clock).max().unwrap_or(0),
            traffic: self.dram.combined_traffic(),
            dram_cache_accesses: accesses,
            dram_cache_misses: misses,
            llc_misses: self.hierarchy.llc_miss_count(),
        }
    }

    /// Execute one memory access (plus its leading instructions) on a core.
    /// Returns the number of instructions retired.
    fn step_core(&mut self, core_id: usize) -> u64 {
        let access = self.cores[core_id].trace.next_access();
        let retired = access.instructions();
        self.cores[core_id].retire_instructions(retired);

        // ---- Address translation ------------------------------------------------
        let translation = self.translate(core_id, access.vaddr);
        let paddr = translation.paddr;

        // ---- SRAM hierarchy ------------------------------------------------------
        let outcome = self.hierarchy.access(core_id, paddr.line(), access.write);
        match outcome.hit {
            Some(HitLevel::L1) => {}
            Some(HitLevel::L2) => self.cores[core_id].advance(L2_HIT_PENALTY),
            Some(HitLevel::Llc) => self.cores[core_id].advance(LLC_HIT_PENALTY),
            None => {}
        }

        // LLC dirty evictions go to the memory controller as hint-less
        // writeback requests.
        let now = self.cores[core_id].clock;
        for line in &outcome.memory_writebacks {
            let mut req = MemRequest::writeback(line.base_addr(), core_id);
            if self.config.large_pages {
                req = req.on_large_page();
            }
            self.sink.reset();
            self.controller.access(&req, now, &mut self.sink);
            self.execute_plan(core_id, now);
        }

        // ---- Memory access -------------------------------------------------------
        if outcome.is_llc_miss() {
            let mut req = MemRequest::demand(paddr, core_id).with_hint(translation.info);
            if access.write {
                req = req.as_store();
            }
            if self.config.large_pages {
                req = req.on_large_page();
            }
            let now = self.cores[core_id].clock;
            self.sink.reset();
            self.controller.access(&req, now, &mut self.sink);
            let completion = self.execute_plan(core_id, now);
            self.cores[core_id].advance(MISS_ISSUE_PENALTY);
            self.cores[core_id].issue_miss(completion);
        }

        retired
    }

    /// Walk the TLB / page table for a virtual address.
    fn translate(&mut self, core_id: usize, vaddr: Addr) -> Translation {
        let large = self.config.large_pages;
        if let Some(t) = self.cores[core_id].translate(vaddr, large) {
            return t;
        }
        // TLB miss: charge the walk and install the PTE (with its current
        // mapping-info extension bits).
        self.cores[core_id].advance(self.config.tlb_miss_latency);
        let vpage = CoreModel::vpage_of(vaddr, large);
        let size = if large {
            PageSize::Large2M
        } else {
            PageSize::Base4K
        };
        let pte = self.page_table.translate_or_map(vpage, size);
        self.cores[core_id].fill_tlb(
            vaddr,
            TlbEntry {
                vpage,
                ppage: pte.ppage,
                info: pte.info,
                size,
            },
        )
    }

    /// Issue the sink's DRAM operations and apply its side effects. Returns
    /// the completion cycle of the critical path (or `now` if it is empty).
    ///
    /// The sink's op lists are read in place (no move, no allocation); only
    /// the rare side-effect list is detached, because applying it can
    /// re-enter the controller and reuse the sink for nested requests.
    fn execute_plan(&mut self, core_id: usize, now: Cycle) -> Cycle {
        let mut t = now + self.sink.extra_latency;
        let System {
            sink,
            dram,
            planned,
            ..
        } = self;
        for op in &sink.critical {
            let outcome = dram
                .device_mut(op.dram)
                .access(t, op.addr, op.bytes, op.class, op.write);
            planned.add(op.dram, op.class, outcome.bytes);
            t = outcome.finish;
        }
        // Background work starts once the critical path has resolved (e.g.
        // a fill begins after the demand data arrived) and only consumes
        // bandwidth.
        for op in &sink.background {
            let outcome = dram
                .device_mut(op.dram)
                .access(t, op.addr, op.bytes, op.class, op.write);
            planned.add(op.dram, op.class, outcome.bytes);
        }
        if !self.sink.side_effects.is_empty() {
            let effects = std::mem::take(&mut self.sink.side_effects);
            self.apply_side_effects(effects, core_id, t);
        }
        t
    }

    /// Apply OS-level side effects requested by the controller.
    fn apply_side_effects(&mut self, effects: Vec<SideEffect>, core_id: usize, now: Cycle) {
        if self.recorder.is_some() {
            // One batched event per application: an HMA epoch flushes
            // thousands of pages in a single effects vector, and per-page
            // events would flood the ring.
            let flushes = effects
                .iter()
                .filter(|e| matches!(e, SideEffect::FlushPage { .. }))
                .count() as u64;
            if flushes > 0 {
                self.design_event(EventKind::PageFlush, now, flushes);
            }
        }
        for effect in effects {
            match effect {
                SideEffect::OsWork { cycles } => {
                    self.os_stats.add("os_work_cycles", cycles);
                    self.cores[core_id].advance(cycles);
                }
                SideEffect::StallAllCores { cycles } => {
                    self.os_stats.add("stall_all_cycles", cycles);
                    for c in self.cores.iter_mut() {
                        c.advance(cycles);
                    }
                }
                SideEffect::UpdatePageTable { updates } => {
                    self.os_stats.inc("pte_batch_updates");
                    self.os_stats
                        .add("pte_entries_updated", updates.len() as u64);
                    self.design_event(EventKind::PteUpdateBatch, now, updates.len() as u64);
                    for (unit, info) in updates {
                        let ppage = self.unit_to_ppage(unit);
                        self.page_table.update_mapping(ppage, info);
                    }
                    // The software routine runs on one randomly chosen core
                    // (Section 3.4); Table 5 sweeps this cost.
                    let victim = self.rng.next_below(self.cores.len() as u64) as usize;
                    let cost = CPU_CLOCK.cycles_in_us(self.config.pte_update_cost_us);
                    self.cores[victim].advance(cost);
                }
                SideEffect::TlbShootdown => {
                    self.os_stats.inc("tlb_shootdowns");
                    self.design_event(EventKind::TlbShootdown, now, 1);
                    let initiator = self.rng.next_below(self.cores.len() as u64) as usize;
                    let init_cost = CPU_CLOCK.cycles_in_us(self.config.shootdown_initiator_us);
                    let slave_cost = CPU_CLOCK.cycles_in_us(self.config.shootdown_slave_us);
                    for (i, core) in self.cores.iter_mut().enumerate() {
                        core.tlb.shootdown();
                        core.advance(if i == initiator {
                            init_cost
                        } else {
                            slave_cost
                        });
                    }
                }
                SideEffect::FlushPage { page } => {
                    self.os_stats.inc("page_flushes");
                    let ppage = self.unit_to_ppage(page);
                    let mut dirty_lines = std::mem::take(&mut self.flush_scratch);
                    dirty_lines.clear();
                    self.hierarchy.flush_page_into(ppage, &mut dirty_lines);
                    for line in &dirty_lines {
                        let req = MemRequest::writeback(line.base_addr(), core_id);
                        self.sink.reset();
                        self.controller.access(&req, now, &mut self.sink);
                        // Flush-triggered writebacks are plain background
                        // traffic; nested side effects (there are none in
                        // practice) are applied recursively.
                        self.execute_plan(core_id, now);
                    }
                    self.flush_scratch = dirty_lines;
                }
            }
        }
    }

    /// Convert the caching-unit numbers carried in side effects to 4 KiB
    /// physical page numbers (identical for 4 KiB runs; the first frame of
    /// the large page for 2 MiB runs).
    fn unit_to_ppage(&self, unit: PageNum) -> PageNum {
        if self.config.large_pages {
            PageNum::new(unit.raw() * (banshee_common::LARGE_PAGE_SIZE / banshee_common::PAGE_SIZE))
        } else {
            unit
        }
    }

    /// Run the periodic controller hook. `executed` is the total instruction
    /// count that triggered this epoch (event-trace timestamp only).
    fn run_epoch(&mut self, executed: u64) {
        let now = self.cores.iter().map(|c| c.clock).max().unwrap_or(0);
        self.sink.reset();
        if self.controller.epoch(now, &mut self.sink) {
            if let Some(rec) = &mut self.recorder {
                rec.record_event(executed, now, EventKind::EpochPlan, 1);
            }
            // Charge epoch work to a random core (the OS picks one).
            let core = self.rng.next_below(self.cores.len() as u64) as usize;
            self.execute_plan(core, now);
        }
    }

    /// Gather the final statistics for the measured (post-warm-up) phase.
    fn collect(
        mut self,
        workload_name: &str,
        executed_instructions: u64,
        baseline: MeasurementBaseline,
    ) -> SimResult {
        if self.recorder.is_some() && executed_instructions > 0 {
            // Flush the trailing partial window so measured samples cover
            // the full phase (the recorder skips this if the last sample
            // already landed exactly here).
            self.take_sample(executed_instructions, false);
        }
        let cycles = self.cores.iter().map(|c| c.clock).max().unwrap_or(0);
        let (accesses, misses) = self.controller.demand_stats();
        let mut stats = self.controller.stats();
        stats.merge(&self.os_stats);
        let stall: u64 = self.cores.iter().map(|c| c.stall_cycles).sum();
        stats.add("core_stall_cycles", stall);
        let tlb_misses: u64 = self.cores.iter().map(|c| c.tlb.misses()).sum();
        stats.add("tlb_misses", tlb_misses);
        stats.add("pte_updates_applied", self.page_table.pte_update_count());
        stats.add(
            "in_dram_row_hit_pct",
            (self.dram.in_package.row_hit_rate() * 100.0) as u64,
        );
        stats.add("in_dram_refreshes", self.dram.in_package.refresh_count());
        stats.add("off_dram_refreshes", self.dram.off_package.refresh_count());
        stats.add(
            "in_dram_write_drains",
            self.dram.in_package.write_drain_count(),
        );
        stats.add(
            "off_dram_write_drains",
            self.dram.off_package.write_drain_count(),
        );
        // Traffic-conservation counters (cumulative over warm-up + measured
        // phase): what the designs planned, what the devices logged at issue,
        // what the channels transferred, and what is still queued/untimed.
        // Invariants (asserted by the cross-design conservation test):
        //   planned == device - untimed,
        //   device  == transferred + pending + untimed.
        {
            use banshee_common::DramKind::{InPackage, OffPackage};
            let inp = self.dram.device(InPackage);
            let off = self.dram.device(OffPackage);
            stats.add("plan_bytes_in_package", self.planned.total(InPackage));
            stats.add("plan_bytes_off_package", self.planned.total(OffPackage));
            stats.add("device_bytes_in_package", inp.traffic().total(InPackage));
            stats.add("device_bytes_off_package", off.traffic().total(OffPackage));
            stats.add(
                "transferred_bytes_in_package",
                inp.transferred_traffic().total(InPackage),
            );
            stats.add(
                "transferred_bytes_off_package",
                off.transferred_traffic().total(OffPackage),
            );
            stats.add(
                "pending_write_bytes_in_package",
                inp.pending_write_traffic().total(InPackage),
            );
            stats.add(
                "pending_write_bytes_off_package",
                off.pending_write_traffic().total(OffPackage),
            );
            stats.add(
                "untimed_bytes_in_package",
                inp.untimed_traffic().total(InPackage),
            );
            stats.add(
                "untimed_bytes_off_package",
                off.untimed_traffic().total(OffPackage),
            );
        }

        let result = SimResult {
            design: self.controller.name().to_string(),
            workload: workload_name.to_string(),
            cores: self.config.cores,
            instructions: executed_instructions.saturating_sub(baseline.instructions),
            cycles: cycles.saturating_sub(baseline.cycles),
            dram_cache_accesses: accesses.saturating_sub(baseline.dram_cache_accesses),
            dram_cache_misses: misses.saturating_sub(baseline.dram_cache_misses),
            traffic: self.dram.combined_traffic().since(&baseline.traffic),
            llc_misses: self
                .hierarchy
                .llc_miss_count()
                .saturating_sub(baseline.llc_misses),
            stats,
        };
        self.finish_telemetry(&result, cycles);
        result
    }

    /// Turn the recorder into a report and write it to the configured sink.
    /// I/O failures degrade to a stderr warning — telemetry never fails a
    /// run.
    fn finish_telemetry(&mut self, result: &SimResult, final_cycles: Cycle) {
        let Some(rec) = self.recorder.take() else {
            return;
        };
        let report = rec.into_report(
            &result.design,
            &result.workload,
            self.config.warmup_instructions,
            result.instructions,
            final_cycles,
            &result.traffic,
        );
        if let Some(sink) = self.telemetry_sink.take() {
            if let Err(err) = sink.export(&report) {
                eprintln!("[telemetry] warning: {err} (run results are unaffected)");
            }
        }
    }
}

/// Counter values at the end of warm-up, subtracted from the end-of-run
/// values so the result covers only the measured phase.
#[derive(Debug, Clone, Default)]
struct MeasurementBaseline {
    instructions: u64,
    cycles: Cycle,
    traffic: banshee_common::TrafficStats,
    dram_cache_accesses: u64,
    dram_cache_misses: u64,
    llc_misses: u64,
}

/// Convenience: run one (design, workload) pair under a configuration.
pub fn run_one(config: SimConfig, workload: &dyn TraceFactory) -> SimResult {
    let name = workload.name();
    System::new(config, workload).run(&name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use banshee_common::{DramKind, MemSize, TrafficClass};
    use banshee_dcache::DramCacheDesign;
    use banshee_workloads::{SpecProgram, Workload, WorkloadKind};

    fn workload() -> Workload {
        Workload::new(WorkloadKind::Spec(SpecProgram::Mcf), 16 << 20, 3)
    }

    fn run(design: DramCacheDesign) -> SimResult {
        run_one(SimConfig::test_default(design), &workload())
    }

    #[test]
    fn nocache_uses_only_off_package_dram() {
        let r = run(DramCacheDesign::NoCache);
        // The measured phase covers the 400 k budget up to per-core boundary
        // slack: the warm-up snapshot and the run cut-off both land mid
        // trace access, and which core crosses the line depends on DRAM
        // timing.
        assert!(r.instructions >= 399_000, "{}", r.instructions);
        assert!(r.cycles > 0);
        assert_eq!(r.traffic.total(DramKind::InPackage), 0);
        assert!(r.traffic.total(DramKind::OffPackage) > 0);
    }

    #[test]
    fn cacheonly_uses_only_in_package_dram() {
        let r = run(DramCacheDesign::CacheOnly);
        assert_eq!(r.traffic.total(DramKind::OffPackage), 0);
        assert!(r.traffic.total(DramKind::InPackage) > 0);
        assert_eq!(r.dram_cache_misses, 0);
    }

    #[test]
    fn cacheonly_outperforms_nocache() {
        let no = run(DramCacheDesign::NoCache);
        let only = run(DramCacheDesign::CacheOnly);
        assert!(
            only.speedup_over(&no) > 1.2,
            "CacheOnly should comfortably beat NoCache: {}",
            only.speedup_over(&no)
        );
    }

    #[test]
    fn coherence_round_charges_table3_costs_per_core() {
        let config = SimConfig::test_default(DramCacheDesign::Banshee);
        let pte = CPU_CLOCK.cycles_in_us(config.pte_update_cost_us);
        let initiator = CPU_CLOCK.cycles_in_us(config.shootdown_initiator_us);
        let slave = CPU_CLOCK.cycles_in_us(config.shootdown_slave_us);
        // Table 3 at 2.7 GHz: 20 µs, 4 µs and 1 µs.
        assert_eq!((pte, initiator, slave), (54_000, 10_800, 2_700));

        let mut sys = System::new(config, &workload());
        let before: Vec<Cycle> = sys.cores.iter().map(|c| c.clock).collect();
        let updates = vec![(PageNum::new(7), banshee_memhier::PteMapInfo::cached_in(1))];
        sys.apply_side_effects(
            vec![
                SideEffect::UpdatePageTable { updates },
                SideEffect::TlbShootdown,
            ],
            0,
            0,
        );
        let deltas: Vec<Cycle> = sys
            .cores
            .iter()
            .zip(&before)
            .map(|(c, b)| c.clock - b)
            .collect();
        // One core runs the update routine; the shootdown costs every core
        // at least the slave cost, so a delta of at least the routine's cost
        // carries it.
        let routine_cores = deltas.iter().filter(|&&d| d >= pte).count();
        assert_eq!(routine_cores, 1, "update routine charged as {deltas:?}");
        let shootdown: Vec<Cycle> = deltas
            .iter()
            .map(|&d| if d >= pte { d - pte } else { d })
            .collect();
        assert_eq!(
            shootdown.iter().filter(|&&d| d == initiator).count(),
            1,
            "one shootdown initiator expected in {deltas:?}"
        );
        assert_eq!(
            shootdown.iter().filter(|&&d| d == slave).count(),
            shootdown.len() - 1,
            "every other core pays the slave cost: {deltas:?}"
        );
    }

    #[test]
    fn banshee_runs_and_produces_hits() {
        let r = run(DramCacheDesign::Banshee);
        assert!(r.dram_cache_accesses > 0);
        assert!(r.traffic.total(DramKind::InPackage) > 0);
        assert!(r.dram_cache_miss_rate() < 1.0, "some accesses should hit");
        assert!(r.stats.get("banshee_replacements") > 0);
    }

    #[test]
    fn alloy_pays_tag_traffic_banshee_does_not() {
        let alloy = run(DramCacheDesign::Alloy {
            fill_probability: 0.1,
        });
        let banshee = run(DramCacheDesign::Banshee);
        let alloy_tag = alloy.bytes_per_instr(DramKind::InPackage, TrafficClass::Tag);
        let banshee_tag = banshee.bytes_per_instr(DramKind::InPackage, TrafficClass::Tag);
        assert!(alloy_tag > 0.0);
        assert!(
            banshee_tag < alloy_tag * 0.2,
            "Banshee tag traffic {banshee_tag} should be far below Alloy {alloy_tag}"
        );
    }

    #[test]
    fn unison_replacement_traffic_exceeds_banshee() {
        let unison = run(DramCacheDesign::Unison);
        let banshee = run(DramCacheDesign::Banshee);
        let u = unison.bytes_per_instr(DramKind::InPackage, TrafficClass::Replacement)
            + unison.bytes_per_instr(DramKind::OffPackage, TrafficClass::Replacement);
        let b = banshee.bytes_per_instr(DramKind::InPackage, TrafficClass::Replacement)
            + banshee.bytes_per_instr(DramKind::OffPackage, TrafficClass::Replacement);
        assert!(
            b < u,
            "Banshee replacement bytes/instr ({b:.3}) should be below Unison ({u:.3})"
        );
    }

    #[test]
    fn banshee_triggers_lazy_coherence() {
        // A workload with enough hot pages to cause replacements will
        // eventually fill the tag buffer and trigger PTE updates.
        let mut cfg = SimConfig::test_default(DramCacheDesign::Banshee);
        cfg.total_instructions = 1_500_000;
        let r = run_one(cfg, &workload());
        assert!(
            r.stats.get("banshee_tag_buffer_flushes") > 0,
            "expected at least one tag-buffer flush; stats: {:?}",
            r.stats
        );
        assert!(r.stats.get("tlb_shootdowns") > 0);
        assert!(r.stats.get("pte_entries_updated") > 0);
    }

    #[test]
    fn hma_epochs_migrate_pages() {
        let r = run(DramCacheDesign::Hma);
        assert!(r.stats.get("hma_intervals") > 0);
        // Migration requires stalls of all cores.
        if r.stats.get("hma_migrations_in") > 0 {
            assert!(r.stats.get("stall_all_cycles") > 0);
        }
    }

    #[test]
    fn resumed_run_is_byte_identical_to_cold() {
        // The acceptance bar of the snapshot subsystem: resuming from a
        // warmed image must reproduce the cold run's SimResult *byte for
        // byte*. HMA is included because its residency set survives via a
        // mutation journal, the subtlest of the persisted structures.
        for design in [DramCacheDesign::Banshee, DramCacheDesign::Hma] {
            let w = workload();
            let cfg = SimConfig::test_default(design);
            let cold = run_one(cfg.clone(), &w);
            let cold_json = serde_json::to_string_pretty(&cold).unwrap();

            let mut sys = System::new(cfg.clone(), &w);
            let warmed = sys.warm_up().expect("non-empty run");
            let image = sys.warmed_image(&w.name(), warmed);

            let (resumed, executed) = System::resume_warmed(cfg, &w, &w.name(), &image).unwrap();
            assert_eq!(executed, warmed);
            // save → restore → save is byte-identical.
            assert_eq!(resumed.warmed_image(&w.name(), executed), image);
            let result = resumed.run_measured(&w.name(), Some(executed));
            assert_eq!(serde_json::to_string_pretty(&result).unwrap(), cold_json);
        }
    }

    #[test]
    fn warmed_image_section_labels_are_unique() {
        // A reader accepts a section by its label tag, so two sections under
        // one label would let a framing mismatch go undetected. Walk the
        // top-level framing (8-byte tag + u32 length per section) of a real
        // image and require one distinct tag per subsystem.
        let w = workload();
        let mut sys = System::new(SimConfig::test_default(DramCacheDesign::Banshee), &w);
        let warmed = sys.warm_up().unwrap();
        let image = sys.warmed_image(&w.name(), warmed);
        let mut tags = Vec::new();
        let mut pos = SnapshotHeader::ENCODED_LEN;
        while pos < image.len() {
            let tag = u64::from_le_bytes(image[pos..pos + 8].try_into().unwrap());
            let len = u32::from_le_bytes(image[pos + 8..pos + 12].try_into().unwrap());
            tags.push(tag);
            pos += 12 + len as usize;
        }
        assert_eq!(pos, image.len(), "sections must tile the image exactly");
        assert_eq!(tags.len(), 6);
        let distinct: std::collections::BTreeSet<_> = tags.iter().collect();
        assert_eq!(distinct.len(), tags.len(), "duplicate section label");
    }

    #[test]
    fn warmed_image_is_shared_across_measurement_budgets() {
        // total_instructions is the only post-warm-up knob: an image captured
        // under one budget must resume — and reproduce the cold result —
        // under another.
        let w = workload();
        let cfg = SimConfig::test_default(DramCacheDesign::Banshee);
        let mut sys = System::new(cfg.clone(), &w);
        let warmed = sys.warm_up().unwrap();
        let image = sys.warmed_image(&w.name(), warmed);

        let mut shorter = cfg.clone();
        shorter.total_instructions /= 2;
        let (resumed, executed) =
            System::resume_warmed(shorter.clone(), &w, &w.name(), &image).unwrap();
        let resumed_result = resumed.run_measured(&w.name(), Some(executed));
        let cold = run_one(shorter, &w);
        assert_eq!(
            serde_json::to_string_pretty(&resumed_result).unwrap(),
            serde_json::to_string_pretty(&cold).unwrap()
        );
    }

    #[test]
    fn stale_or_foreign_images_are_typed_errors() {
        let w = workload();
        let cfg = SimConfig::test_default(DramCacheDesign::Banshee);
        let mut sys = System::new(cfg.clone(), &w);
        let warmed = sys.warm_up().unwrap();
        let image = sys.warmed_image(&w.name(), warmed);

        // An image captured by an older model revision is stale, never
        // silently resumed. Bytes 12..16 hold the header's revision field
        // (after the 8-byte magic and 4-byte format version).
        let mut stale = image.clone();
        stale[12..16].copy_from_slice(&(SimConfig::MODEL_REVISION + 1).to_le_bytes());
        match System::resume_warmed(cfg.clone(), &w, &w.name(), &stale) {
            Err(SnapshotError::StaleRevision { found, expected }) => {
                assert_eq!(found, SimConfig::MODEL_REVISION + 1);
                assert_eq!(expected, SimConfig::MODEL_REVISION);
            }
            Err(other) => panic!("expected StaleRevision, got {other:?}"),
            Ok(_) => panic!("expected StaleRevision, got Ok"),
        }

        // A different seed is a different warmed state.
        let mut other = cfg.clone();
        other.seed += 1;
        assert!(matches!(
            System::resume_warmed(other, &w, &w.name(), &image),
            Err(SnapshotError::KeyMismatch { .. })
        ));

        // Truncation is a typed error, not a panic.
        assert!(System::resume_warmed(cfg, &w, &w.name(), &image[..image.len() - 9]).is_err());
    }

    #[test]
    fn empty_run_yields_empty_result() {
        let mut cfg = SimConfig::test_default(DramCacheDesign::NoCache);
        cfg.warmup_instructions = 0;
        cfg.total_instructions = 0;
        let r = run_one(cfg, &workload());
        assert_eq!(r.instructions, 0);
        assert_eq!(r.cycles, 0);
    }

    #[test]
    fn results_are_deterministic() {
        let a = run(DramCacheDesign::Banshee);
        let b = run(DramCacheDesign::Banshee);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.dram_cache_misses, b.dram_cache_misses);
        assert_eq!(a.traffic, b.traffic);
    }

    #[test]
    fn large_page_mode_runs() {
        let mut cfg = SimConfig::test_default(DramCacheDesign::Banshee);
        cfg.large_pages = true;
        cfg.dcache.capacity = MemSize::mib(8);
        let r = run_one(cfg, &workload());
        assert!(r.instructions > 0);
        assert!(r.traffic.grand_total() > 0);
    }

    #[test]
    fn batman_wrapper_runs() {
        let mut cfg = SimConfig::test_default(DramCacheDesign::Banshee);
        cfg.use_batman = true;
        let r = run_one(cfg, &workload());
        assert!(r.design.contains("BATMAN"));
        assert!(r.instructions > 0);
    }
}
