//! Time-resolved telemetry: epoch-sampled time series and a bounded ring of
//! rare structured events.
//!
//! Everything the harness reported before this module existed was an
//! end-of-run aggregate; the paper's story, however, is about *dynamics* —
//! lazy remaps, counter halvings, write-queue drains and warmup convergence
//! all happen over time. The [`Recorder`] threads through the system
//! simulator and captures two kinds of data:
//!
//! 1. **Time series** ([`Sample`] / [`TimeSeries`]) — every
//!    `interval_instructions` retired instructions the simulator snapshots
//!    cumulative counters into a [`SampleCumulative`], and the recorder
//!    turns consecutive snapshots into *windowed deltas*: IPC, MPKI,
//!    per-class traffic bytes, DRAM queue occupancy and row-hit rate, plus
//!    free-form per-design gauges (tag-buffer occupancy, FBR state, ...).
//!    Consecutive measured-phase sample deltas telescope: summing them
//!    reproduces the final aggregate `TrafficStats` exactly, which the test
//!    suite asserts.
//! 2. **Event trace** ([`Event`] / [`EventRing`]) — rare discrete events
//!    the simulator records where they happen (epoch remap plans, page
//!    flushes, PTE update batches, TLB shootdowns, snapshot resume, the
//!    start of measurement) in a bounded ring that overwrites the oldest
//!    entries. Maintenance that a counter already tracks (refreshes,
//!    write drains, tag-buffer flushes, FBR halvings) lives only in the
//!    samples, so each fact is recorded once.
//!
//! Both are functions of simulated state only: the recorder reads no host
//! time, so a [`TelemetryReport`] is a pure function of the cell's inputs.
//! Where the simulator's wall-clock goes is measured from outside the
//! program, by `perfbench --trace 1`. One cell's report is exported as a
//! single JSON file, `telemetry_<cell>.json`.
//!
//! The simulator holds an `Option<Box<Recorder>>`: off is `None`, every
//! hot-path call site guards on one `is_some()` test, and `SimResult`s are
//! byte-identical with telemetry on or off (asserted by
//! `crates/sim/tests/telemetry_equivalence.rs`).
//!
//! Sink I/O failures are *typed* ([`TelemetryError`]) and callers degrade
//! them to warnings — telemetry must never fail a run that would otherwise
//! have produced results.

use crate::stats::TrafficStats;
use crate::Cycle;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::path::{Path, PathBuf};

// ---------------------------------------------------------------------------
// Configuration

/// Knobs for the recorder. Deliberately *not* part of `SimConfig`: telemetry
/// must never influence cache keys, snapshots or simulation results.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Retired instructions between time-series samples.
    pub interval_instructions: u64,
    /// Time-series capacity; once full, *new* samples are dropped (and
    /// counted) so the early warmup-convergence window is always retained.
    pub max_samples: usize,
    /// Event-ring capacity; once full, the *oldest* events are overwritten
    /// so the trace always covers the most recent window.
    pub max_events: usize,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            interval_instructions: 100_000,
            max_samples: 8192,
            max_events: 4096,
        }
    }
}

// ---------------------------------------------------------------------------
// Cumulative snapshots and windowed samples

/// Per-DRAM-device cumulative telemetry counters plus point-in-time queue
/// gauges, gathered by `banshee_dram` at each sample boundary.
///
/// `read_queue` / `write_queue` are occupancy *at the sample instant*; the
/// remaining fields are cumulative since the device was built.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DramTelemetry {
    /// In-flight reads across all banks at the sample instant.
    pub read_queue: u64,
    /// Buffered writes across all channels at the sample instant.
    pub write_queue: u64,
    /// Cumulative timed accesses.
    pub accesses: u64,
    /// Cumulative row-buffer hits.
    pub row_hits: u64,
    /// Cumulative refresh operations.
    pub refreshes: u64,
    /// Cumulative write-queue watermark drains.
    pub write_drains: u64,
}

/// A snapshot of the simulator's cumulative counters at one sample boundary.
/// The recorder differences consecutive snapshots to produce a [`Sample`].
#[derive(Debug, Clone, Default)]
pub struct SampleCumulative {
    /// Instructions retired so far (warmup + measured).
    pub instructions: u64,
    /// Max core clock, in cycles.
    pub cycles: Cycle,
    /// DRAM-cache demand accesses so far.
    pub dram_cache_accesses: u64,
    /// DRAM-cache demand misses so far.
    pub dram_cache_misses: u64,
    /// LLC misses so far.
    pub llc_misses: u64,
    /// Combined DRAM traffic so far.
    pub traffic: TrafficStats,
    /// In-package DRAM device counters.
    pub in_dram: DramTelemetry,
    /// Off-package DRAM device counters.
    pub off_dram: DramTelemetry,
}

/// Windowed per-DRAM metrics inside one [`Sample`].
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DramSample {
    /// Read-queue occupancy at the sample instant.
    pub read_queue: u64,
    /// Write-queue occupancy at the sample instant.
    pub write_queue: u64,
    /// Timed accesses in this window.
    pub accesses: u64,
    /// Row-buffer hits in this window.
    pub row_hits: u64,
    /// Row-hit rate over this window (0 when the window had no accesses).
    pub row_hit_rate: f64,
    /// Refresh operations in this window.
    pub refreshes: u64,
    /// Write-queue drains in this window.
    pub write_drains: u64,
}

/// One time-series point: cumulative position plus windowed deltas since the
/// previous sample.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Sample {
    /// Instructions retired at this sample (cumulative, warmup included).
    pub instructions: u64,
    /// Max core clock at this sample (cumulative cycles).
    pub cycles: u64,
    /// True if this sample's window lies (at least partly) in warmup.
    pub warmup: bool,
    /// Instructions retired in this window.
    pub delta_instructions: u64,
    /// Cycles elapsed in this window.
    pub delta_cycles: u64,
    /// Instructions per cycle over this window.
    pub ipc: f64,
    /// DRAM-cache misses per kilo-instruction over this window.
    pub mpki: f64,
    /// DRAM-cache demand accesses in this window.
    pub dram_cache_accesses: u64,
    /// DRAM-cache demand misses in this window.
    pub dram_cache_misses: u64,
    /// LLC misses in this window.
    pub llc_misses: u64,
    /// Traffic moved in this window, by (DRAM kind, class).
    pub traffic: TrafficStats,
    /// In-package DRAM window metrics.
    pub in_dram: DramSample,
    /// Off-package DRAM window metrics.
    pub off_dram: DramSample,
    /// Design-specific gauges (tag-buffer occupancy, FBR threshold, resident
    /// pages, ...) by name; cumulative or point-in-time per the name's
    /// convention, as pushed by the controller.
    pub gauges: Vec<(String, f64)>,
}

/// Fixed-capacity sample buffer. Once full, new samples are *dropped* (and
/// counted) rather than evicting old ones: warmup-convergence analysis needs
/// the beginning of the run, and a correctly sized capacity never drops.
#[derive(Debug, Clone, Default)]
pub struct TimeSeries {
    samples: Vec<Sample>,
    capacity: usize,
    dropped: u64,
}

impl TimeSeries {
    /// An empty series that will hold at most `capacity` samples.
    pub fn new(capacity: usize) -> Self {
        TimeSeries {
            samples: Vec::new(),
            capacity,
            dropped: 0,
        }
    }

    /// Append a sample, or count it as dropped if the series is full.
    pub fn push(&mut self, sample: Sample) {
        if self.samples.len() < self.capacity {
            self.samples.push(sample);
        } else {
            self.dropped += 1;
        }
    }

    /// The retained samples, oldest first.
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// Number of samples that did not fit.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Number of retained samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True if no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }
}

// ---------------------------------------------------------------------------
// Structured events

/// The kinds of rare discrete events the trace records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EventKind {
    /// A controller epoch produced a remap/maintenance plan.
    EpochPlan,
    /// The OS broadcast a TLB shootdown.
    TlbShootdown,
    /// A batch of page-table entries was updated.
    PteUpdateBatch,
    /// A page's dirty lines were flushed out of the DRAM cache.
    PageFlush,
    /// The cell resumed from a warmed snapshot instead of re-warming.
    SnapshotResume,
    /// Warmup ended; measurement began.
    MeasurementStart,
}

/// One recorded event occurrence, or a batch of `count` occurrences at one
/// instant (e.g. the pages flushed by one plan).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Event {
    /// Instructions retired when the event was recorded.
    pub instructions: u64,
    /// Core clock when the event was recorded.
    pub cycles: u64,
    /// What happened.
    pub kind: EventKind,
    /// How many times (>1 for a batch).
    pub count: u64,
}

/// Bounded event ring: keeps the most recent `capacity` events, counting
/// (but discarding) older ones.
#[derive(Debug, Clone, Default)]
pub struct EventRing {
    buf: Vec<Event>,
    capacity: usize,
    head: usize,
    total: u64,
}

impl EventRing {
    /// An empty ring holding at most `capacity` events.
    pub fn new(capacity: usize) -> Self {
        EventRing {
            buf: Vec::new(),
            capacity,
            head: 0,
            total: 0,
        }
    }

    /// Record an event, overwriting the oldest if the ring is full.
    pub fn push(&mut self, event: Event) {
        self.total += 1;
        if self.capacity == 0 {
            return;
        }
        if self.buf.len() < self.capacity {
            self.buf.push(event);
        } else {
            self.buf[self.head] = event;
            self.head = (self.head + 1) % self.capacity;
        }
    }

    /// Events in chronological order (oldest retained first).
    pub fn iter(&self) -> impl Iterator<Item = &Event> {
        let (tail, front) = self.buf.split_at(self.head);
        front.iter().chain(tail.iter())
    }

    /// Total events ever recorded (including overwritten ones).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Events lost to overwriting.
    pub fn dropped(&self) -> u64 {
        self.total - self.buf.len() as u64
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

// ---------------------------------------------------------------------------
// The recorder

/// The telemetry recorder threaded through the system simulator. The
/// simulator boxes it behind an `Option` so the off state costs one word.
#[derive(Debug)]
pub struct Recorder {
    config: TelemetryConfig,
    series: TimeSeries,
    events: EventRing,
    /// Instruction count at which the next sample is due.
    next_sample_at: u64,
    /// The previous sample boundary's cumulative counters (None before the
    /// first sample; the first window deltas against zero).
    prev: Option<SampleCumulative>,
}

impl Recorder {
    /// A fresh recorder; the first sample is due after one interval.
    pub fn new(config: TelemetryConfig) -> Self {
        Recorder {
            series: TimeSeries::new(config.max_samples),
            events: EventRing::new(config.max_events),
            next_sample_at: config.interval_instructions.max(1),
            prev: None,
            config,
        }
    }

    /// True once `instructions` has crossed the next sample boundary.
    #[inline]
    pub fn sample_due(&self, instructions: u64) -> bool {
        instructions >= self.next_sample_at
    }

    /// Ingest one cumulative snapshot: compute the windowed delta against
    /// the previous snapshot, append the sample and schedule the next
    /// boundary.
    pub fn record_sample(
        &mut self,
        warmup: bool,
        cum: SampleCumulative,
        gauges: &[(&'static str, f64)],
    ) {
        let prev = self.prev.clone().unwrap_or_default();
        let prev = &prev;
        // A stale boundary (e.g. right after a forced boundary sample at
        // measurement start) would produce an empty, meaningless window.
        if cum.instructions <= prev.instructions && self.prev.is_some() {
            self.next_sample_at = cum.instructions + self.config.interval_instructions.max(1);
            return;
        }

        let delta_instructions = cum.instructions - prev.instructions;
        let delta_cycles = cum.cycles.saturating_sub(prev.cycles);
        let delta_misses = cum.dram_cache_misses - prev.dram_cache_misses;
        let sample = Sample {
            instructions: cum.instructions,
            cycles: cum.cycles,
            warmup,
            delta_instructions,
            delta_cycles,
            ipc: if delta_cycles == 0 {
                0.0
            } else {
                delta_instructions as f64 / delta_cycles as f64
            },
            mpki: if delta_instructions == 0 {
                0.0
            } else {
                delta_misses as f64 * 1000.0 / delta_instructions as f64
            },
            dram_cache_accesses: cum.dram_cache_accesses - prev.dram_cache_accesses,
            dram_cache_misses: delta_misses,
            llc_misses: cum.llc_misses - prev.llc_misses,
            traffic: cum.traffic.since(&prev.traffic),
            in_dram: dram_sample(&cum.in_dram, &prev.in_dram),
            off_dram: dram_sample(&cum.off_dram, &prev.off_dram),
            gauges: gauges.iter().map(|&(n, v)| (n.to_string(), v)).collect(),
        };

        self.series.push(sample);
        self.next_sample_at = cum.instructions + self.config.interval_instructions.max(1);
        self.prev = Some(cum);
    }

    /// Record one discrete event occurrence.
    #[inline]
    pub fn record_event(&mut self, instructions: u64, cycles: Cycle, kind: EventKind, count: u64) {
        self.events.push(Event {
            instructions,
            cycles,
            kind,
            count,
        });
    }

    /// The recorded series so far.
    pub fn series(&self) -> &TimeSeries {
        &self.series
    }

    /// Consume the recorder into an exportable report.
    #[allow(
        clippy::too_many_arguments,
        reason = "one argument per report field the recorder does not hold"
    )]
    pub fn into_report(
        self,
        design: &str,
        workload: &str,
        warmup_instructions: u64,
        measured_instructions: u64,
        final_cycles: Cycle,
        final_traffic: &TrafficStats,
    ) -> TelemetryReport {
        TelemetryReport {
            design: design.to_string(),
            workload: workload.to_string(),
            interval_instructions: self.config.interval_instructions,
            warmup_instructions,
            measured_instructions,
            final_cycles,
            final_traffic: final_traffic.clone(),
            samples_dropped: self.series.dropped(),
            events_total: self.events.total(),
            events_dropped: self.events.dropped(),
            samples: self.series.samples,
            events: self.events.iter().cloned().collect(),
        }
    }
}

fn dram_sample(cum: &DramTelemetry, prev: &DramTelemetry) -> DramSample {
    let accesses = cum.accesses.saturating_sub(prev.accesses);
    let row_hits = cum.row_hits.saturating_sub(prev.row_hits);
    DramSample {
        read_queue: cum.read_queue,
        write_queue: cum.write_queue,
        accesses,
        row_hits,
        row_hit_rate: if accesses == 0 {
            0.0
        } else {
            row_hits as f64 / accesses as f64
        },
        refreshes: cum.refreshes.saturating_sub(prev.refreshes),
        write_drains: cum.write_drains.saturating_sub(prev.write_drains),
    }
}

// ---------------------------------------------------------------------------
// Errors and the export sink

/// Telemetry sink I/O failed. Mirrors `SnapshotError`'s philosophy: typed,
/// actionable, and — unlike snapshots — always degraded to a warning by
/// callers, because telemetry must never fail an otherwise good run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TelemetryError {
    /// The output directory could not be created.
    CreateDir {
        /// The directory that could not be created.
        path: String,
        /// The underlying I/O error.
        message: String,
    },
    /// A telemetry file could not be written.
    Write {
        /// The file that could not be written.
        path: String,
        /// The underlying I/O error.
        message: String,
    },
}

impl fmt::Display for TelemetryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TelemetryError::CreateDir { path, message } => {
                write!(f, "cannot create telemetry dir {path}: {message}")
            }
            TelemetryError::Write { path, message } => {
                write!(f, "cannot write telemetry file {path}: {message}")
            }
        }
    }
}

impl std::error::Error for TelemetryError {}

/// The exportable JSON payload of one cell's telemetry: time series and
/// events, plus the final aggregates the samples must reconcile against
/// (so a report file is self-validating).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TelemetryReport {
    /// Design label of the cell.
    pub design: String,
    /// Workload label of the cell.
    pub workload: String,
    /// Instructions between samples.
    pub interval_instructions: u64,
    /// Warmup instructions the cell was configured with.
    pub warmup_instructions: u64,
    /// Measured instructions the run actually retired.
    pub measured_instructions: u64,
    /// Final max core clock, in cycles.
    pub final_cycles: u64,
    /// Final *measured-phase* traffic (what `SimResult` reports); the sum of
    /// non-warmup sample `traffic` deltas must equal this exactly.
    pub final_traffic: TrafficStats,
    /// Samples that did not fit in the configured capacity.
    pub samples_dropped: u64,
    /// Events recorded in total, including overwritten ones.
    pub events_total: u64,
    /// Events lost to ring overwriting.
    pub events_dropped: u64,
    /// The retained samples, oldest first.
    pub samples: Vec<Sample>,
    /// The retained events, oldest first.
    pub events: Vec<Event>,
}

/// Sanitise a label into a filename-safe slug: ASCII alphanumerics are
/// lowercased, everything else becomes `_`.
pub fn slug(label: &str) -> String {
    label
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '_'
            }
        })
        .collect()
}

/// Writes one cell's telemetry report (`telemetry_<cell>.json`) into a
/// directory.
#[derive(Debug, Clone)]
pub struct TelemetrySink {
    path: PathBuf,
}

impl TelemetrySink {
    /// A sink for cell `cell` (sanitised with [`slug`]) under `dir`.
    pub fn new(dir: impl Into<PathBuf>, cell: &str) -> Self {
        TelemetrySink {
            path: dir.into().join(format!("telemetry_{}.json", slug(cell))),
        }
    }

    /// The path of the JSON report this sink writes.
    pub fn json_path(&self) -> &Path {
        &self.path
    }

    /// Write the report as pretty-printed JSON.
    pub fn export(&self, report: &TelemetryReport) -> Result<(), TelemetryError> {
        let dir = self.path.parent().unwrap_or(Path::new(""));
        std::fs::create_dir_all(dir).map_err(|e| TelemetryError::CreateDir {
            path: dir.display().to_string(),
            message: e.to_string(),
        })?;
        let pretty = serde_json::to_string_pretty(report).unwrap_or_else(|e| {
            // Serialization of an in-memory report cannot fail with the
            // vendored encoder; keep a defensive fallback anyway.
            format!("{{\"error\": \"{e}\"}}")
        });
        std::fs::write(&self.path, pretty).map_err(|e| TelemetryError::Write {
            path: self.path.display().to_string(),
            message: e.to_string(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{DramKind, TrafficClass};

    fn cum(instructions: u64, cycles: u64) -> SampleCumulative {
        SampleCumulative {
            instructions,
            cycles,
            ..SampleCumulative::default()
        }
    }

    #[test]
    fn time_series_drops_new_when_full() {
        let mut ts = TimeSeries::new(2);
        for i in 0..5 {
            ts.push(Sample {
                instructions: i,
                ..Sample::default()
            });
        }
        assert_eq!(ts.len(), 2);
        assert_eq!(ts.dropped(), 3);
        // The earliest samples are retained (warmup convergence needs them).
        assert_eq!(ts.samples()[0].instructions, 0);
        assert_eq!(ts.samples()[1].instructions, 1);
    }

    #[test]
    fn event_ring_overwrites_oldest() {
        let mut ring = EventRing::new(3);
        for i in 0..5u64 {
            ring.push(Event {
                instructions: i,
                cycles: i,
                kind: EventKind::EpochPlan,
                count: 1,
            });
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.total(), 5);
        assert_eq!(ring.dropped(), 2);
        let order: Vec<u64> = ring.iter().map(|e| e.instructions).collect();
        assert_eq!(order, [2, 3, 4]);
    }

    #[test]
    fn recorder_sampling_boundaries() {
        let mut rec = Recorder::new(TelemetryConfig {
            interval_instructions: 100,
            ..TelemetryConfig::default()
        });
        assert!(!rec.sample_due(99));
        assert!(rec.sample_due(100));
        rec.record_sample(true, cum(120, 300), &[]);
        assert!(!rec.sample_due(219));
        assert!(rec.sample_due(220));
    }

    #[test]
    fn samples_delta_against_previous() {
        let mut rec = Recorder::new(TelemetryConfig::default());
        let mut first = cum(100, 400);
        first
            .traffic
            .add(DramKind::InPackage, TrafficClass::HitData, 64);
        first.dram_cache_misses = 10;
        rec.record_sample(true, first, &[]);
        let mut second = cum(300, 600);
        second
            .traffic
            .add(DramKind::InPackage, TrafficClass::HitData, 192);
        second.dram_cache_misses = 14;
        rec.record_sample(false, second, &[]);

        let s = rec.series().samples();
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].delta_instructions, 100);
        assert!((s[0].ipc - 0.25).abs() < 1e-12);
        assert_eq!(s[1].delta_instructions, 200);
        assert_eq!(s[1].delta_cycles, 200);
        assert!((s[1].ipc - 1.0).abs() < 1e-12);
        assert_eq!(
            s[1].traffic
                .bytes(DramKind::InPackage, TrafficClass::HitData),
            128
        );
        assert!((s[1].mpki - 20.0).abs() < 1e-12);
        assert!(s[0].warmup && !s[1].warmup);
    }

    #[test]
    fn slug_sanitizes_labels() {
        assert_eq!(slug("Banshee (batman)"), "banshee__batman_");
        assert_eq!(slug("kv99"), "kv99");
        assert_eq!(slug("TDC x mcf/4"), "tdc_x_mcf_4");
    }

    #[test]
    fn error_display_names_the_path() {
        let e = TelemetryError::Write {
            path: "/tmp/x.json".into(),
            message: "denied".into(),
        };
        let msg = e.to_string();
        assert!(
            msg.contains("/tmp/x.json") && msg.contains("denied"),
            "{msg}"
        );
    }

    fn tiny_report() -> TelemetryReport {
        let mut rec = Recorder::new(TelemetryConfig {
            interval_instructions: 100,
            ..TelemetryConfig::default()
        });
        let mut a = cum(100, 270);
        a.traffic
            .add(DramKind::InPackage, TrafficClass::HitData, 64);
        rec.record_sample(true, a, &[("resident_pages", 3.0)]);
        let mut b = cum(200, 540);
        b.traffic
            .add(DramKind::InPackage, TrafficClass::HitData, 128);
        b.in_dram.refreshes = 1;
        rec.record_sample(false, b, &[("resident_pages", 5.0)]);
        rec.record_event(150, 400, EventKind::MeasurementStart, 1);
        let traffic = TrafficStats::new();
        rec.into_report("Banshee", "mcf", 100, 100, 540, &traffic)
    }

    #[test]
    fn report_exports_parse_and_round_trip() {
        let report = tiny_report();
        let text = serde_json::to_string_pretty(&report).unwrap();
        let back: TelemetryReport = serde_json::from_str(&text).unwrap();
        assert_eq!(back.samples.len(), 2);
        assert_eq!(back.design, "Banshee");
        assert_eq!(back.samples[1].gauges[0].0, "resident_pages");
        // A refresh is a per-window count in the samples, not an event.
        assert_eq!(back.samples[1].in_dram.refreshes, 1);
        let kinds: Vec<EventKind> = back.events.iter().map(|e| e.kind).collect();
        assert_eq!(kinds, [EventKind::MeasurementStart]);
        assert_eq!(back.events_total, 1);
    }

    #[test]
    fn sink_writes_one_json_report() {
        let dir = std::env::temp_dir().join(format!("banshee_tel_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let sink = TelemetrySink::new(&dir, "000 mcf x Banshee");
        sink.export(&tiny_report()).unwrap();
        assert_eq!(
            sink.json_path(),
            dir.join("telemetry_000_mcf_x_banshee.json")
        );
        let written: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
        assert_eq!(written.len(), 1);
        let text = std::fs::read_to_string(sink.json_path()).unwrap();
        let back: TelemetryReport = serde_json::from_str(&text).unwrap();
        assert_eq!(back.samples, tiny_report().samples);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sink_failure_is_a_typed_error() {
        let dir = std::env::temp_dir().join(format!("banshee_tel_f_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::write(&dir, b"not a dir").unwrap();
        let sink = TelemetrySink::new(dir.join("sub"), "cell");
        let err = sink.export(&tiny_report()).unwrap_err();
        assert!(matches!(err, TelemetryError::CreateDir { .. }), "{err}");
        let _ = std::fs::remove_file(&dir);
    }

    #[test]
    fn measured_samples_telescope_to_final_traffic() {
        // The reconciliation invariant the sim-level tests rely on, in
        // miniature: sum of measured-window deltas == final - boundary.
        let mut rec = Recorder::new(TelemetryConfig {
            interval_instructions: 50,
            ..TelemetryConfig::default()
        });
        let mut total = TrafficStats::new();
        // Warmup window.
        total.add(DramKind::InPackage, TrafficClass::Replacement, 4096);
        let mut c = cum(50, 100);
        c.traffic = total.clone();
        rec.record_sample(true, c, &[]);
        let boundary = total.clone();
        // Three measured windows.
        for i in 1..=3u64 {
            total.add(DramKind::OffPackage, TrafficClass::MissData, 64 * i);
            let mut c = cum(50 + 50 * i, 100 + 100 * i);
            c.traffic = total.clone();
            rec.record_sample(false, c, &[]);
        }
        let mut summed = TrafficStats::new();
        for s in rec.series().samples().iter().filter(|s| !s.warmup) {
            summed.merge(&s.traffic);
        }
        let expected = total.since(&boundary);
        assert_eq!(summed, expected);
    }
}
