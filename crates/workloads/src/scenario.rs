//! Data-driven scenario specifications: workloads, system-config overrides
//! and a sweep matrix as a JSON file instead of Rust code.
//!
//! A scenario file names a set of workloads (built-in catalogue entries,
//! fully parameterized synthetic/key-value/phased families, or external
//! trace replays), the designs to run them under, a sweep matrix
//! (footprint factors × seeds × optional DRAM page-policy and
//! write-queue-depth axes) and optional [`ScenarioOverrides`] applied
//! to the base `banshee_sim::SimConfig` of every cell. Parsing is
//! strict — unknown fields, out-of-range values and malformed entries fail
//! with the JSON path and the list of valid options, never a silent
//! default.
//!
//! The schema (all fields except `name` and `workloads` optional):
//!
//! ```json
//! {
//!   "name": "kv_pressure",
//!   "description": "zipfian kv vs the figure-4 designs",
//!   "workloads": [
//!     {"type": "builtin", "name": "mcf"},
//!     {"type": "kv", "name": "kv99", "zipf_exponent": 0.99},
//!     {"type": "synthetic", "name": "stream", "streaming_fraction": 0.9},
//!     {"type": "phased", "name": "tenants", "phase_accesses": 200000,
//!      "tenants": [{"like": "mcf", "share": 0.5}, {"like": "lbm", "share": 0.5}]},
//!     {"type": "trace", "path": "traces/captured.trace"}
//!   ],
//!   "designs": ["NoCache", "Banshee"],
//!   "sweep": {"footprint_factors": [2, 4], "seeds": [42],
//!             "page_policies": ["open", "closed"], "write_queue_depths": [0, 32]},
//!   "config": {"cores": 8, "total_instructions": 2000000}
//! }
//! ```

use crate::kv::{KeyValueParams, KeyValueTrace};
use crate::phased::{PhasedParams, PhasedTrace};
use crate::spec::SpecProgram;
use crate::synthetic::{SyntheticParams, SyntheticTrace};
use crate::trace::{TraceFactory, TraceGenerator};
use crate::trace_file::TraceData;
use crate::workload::{Workload, WorkloadKind};
use serde::Value;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// A scenario file failed to parse or validate. The message always names
/// the offending JSON path and what would have been valid.
#[derive(Debug, Clone)]
pub struct ScenarioError(pub String);

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid scenario: {}", self.0)
    }
}

impl std::error::Error for ScenarioError {}

fn err(path: &str, msg: impl fmt::Display) -> ScenarioError {
    ScenarioError(format!("{path}: {msg}"))
}

/// DRAM page-policy selection in a scenario file's `page_policies` sweep
/// axis (mapped onto `banshee_dram::PagePolicy` by the experiment harness).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DramPagePolicyOverride {
    /// Rows stay open between accesses.
    Open,
    /// Rows auto-precharge after every access.
    Closed,
}

impl DramPagePolicyOverride {
    /// The scenario-file spelling.
    pub fn label(self) -> &'static str {
        match self {
            DramPagePolicyOverride::Open => "open",
            DramPagePolicyOverride::Closed => "closed",
        }
    }

    fn parse(v: &Value, path: &str) -> Result<Self, ScenarioError> {
        match as_string(v, path)?.as_str() {
            "open" => Ok(DramPagePolicyOverride::Open),
            "closed" => Ok(DramPagePolicyOverride::Closed),
            other => Err(err(
                path,
                format!("unknown page policy `{other}`; valid values: open, closed"),
            )),
        }
    }
}

/// System-configuration overrides a scenario may apply to every cell.
/// Pure data — `banshee_sim::SimConfig::apply_scenario_overrides` interprets
/// it (the sim crate depends on this one, not vice versa).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ScenarioOverrides {
    /// Number of cores to simulate.
    pub cores: Option<usize>,
    /// Measured instructions per cell.
    pub total_instructions: Option<u64>,
    /// Warm-up instructions per cell.
    pub warmup_instructions: Option<u64>,
    /// Outstanding-miss window per core.
    pub mlp_per_core: Option<usize>,
    /// DRAM-cache capacity in MiB (rescales the LLC and in-package DRAM
    /// the same way the built-in scales do).
    pub dram_cache_mib: Option<u64>,
    /// In-package : off-package bandwidth ratio (channel count).
    pub bandwidth_ratio: Option<usize>,
}

impl ScenarioOverrides {
    /// True if no override is set.
    pub fn is_empty(&self) -> bool {
        *self == ScenarioOverrides::default()
    }
}

/// Telemetry-recorder knobs a scenario may carry. Pure parameterization:
/// the block does *not* turn telemetry on — activation stays with the
/// harness (`--telemetry DIR`), so running the same scenario with telemetry
/// off is bit-for-bit unchanged. When telemetry is active, set fields
/// replace the recorder defaults.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScenarioTelemetry {
    /// Instructions between time-series samples.
    pub interval_instructions: Option<u64>,
    /// Time-series buffer capacity (samples beyond it are dropped).
    pub max_samples: Option<usize>,
    /// Event-ring capacity (oldest events are overwritten beyond it).
    pub max_events: Option<usize>,
}

/// The sweep matrix: cells are the cross product of workloads × designs ×
/// `footprint_factors` × `seeds` × the optional axes (`page_policies`,
/// `write_queue_depths` — empty means "use the config's value", one cell).
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSweep {
    /// Workload footprint as a multiple of the DRAM-cache capacity.
    pub footprint_factors: Vec<f64>,
    /// RNG seeds (one full matrix per seed).
    pub seeds: Vec<u64>,
    /// DRAM page policies to sweep (empty: no sweep on this axis).
    pub page_policies: Vec<DramPagePolicyOverride>,
    /// DRAM write-queue depths to sweep (empty: no sweep on this axis).
    pub write_queue_depths: Vec<usize>,
}

impl Default for ScenarioSweep {
    fn default() -> Self {
        ScenarioSweep {
            footprint_factors: vec![4.0],
            seeds: vec![42],
            page_policies: Vec::new(),
            write_queue_depths: Vec::new(),
        }
    }
}

/// One tenant of a phased multi-tenant workload: a SPEC program's two-region
/// shape at a share of the workload's footprint.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSpec {
    /// Which program's behaviour this tenant mimics.
    pub like: SpecProgram,
    /// Fraction of the workload footprint this tenant owns.
    pub share: f64,
}

/// One workload entry of a scenario.
#[derive(Debug, Clone)]
pub enum ScenarioWorkloadSpec {
    /// A built-in catalogue workload ("pagerank", "mcf", "mix1", ...).
    Builtin {
        /// The resolved catalogue entry.
        kind: WorkloadKind,
    },
    /// A fully parameterized two-region synthetic program (per-core private
    /// copies, like the SPEC models). The template's `footprint_bytes` is a
    /// placeholder; each cell sets the real footprint.
    Synthetic {
        /// Parameter template (name + shape; footprint filled per cell).
        template: SyntheticParams,
    },
    /// A zipfian key-value store (one region shared by all cores).
    KeyValue {
        /// Parameter template (name + shape; footprint filled per cell).
        template: KeyValueParams,
    },
    /// A phase-changing multi-tenant mix (one region shared by all cores).
    Phased {
        /// Display name.
        name: String,
        /// Accesses per phase, per core.
        phase_accesses: u64,
        /// Fraction of accesses going to the active tenant.
        active_share: f64,
        /// The tenants.
        tenants: Vec<TenantSpec>,
    },
    /// Replay of an external trace file.
    Trace {
        /// The path as written in the scenario (for display).
        path: String,
        /// The decoded trace.
        data: Arc<TraceData>,
    },
}

/// One fully-resolved workload entry (spec + optional absolute footprint).
#[derive(Debug, Clone)]
pub struct ScenarioWorkloadEntry {
    /// What to run.
    pub spec: ScenarioWorkloadSpec,
    /// Absolute footprint in bytes, overriding the sweep's footprint
    /// factor for this entry.
    pub footprint_bytes: Option<u64>,
}

impl ScenarioWorkloadSpec {
    /// The entry's display name (tables, result labels).
    pub fn display_name(&self) -> String {
        match self {
            ScenarioWorkloadSpec::Builtin { kind } => kind.name(),
            ScenarioWorkloadSpec::Synthetic { template } => template.name.clone(),
            ScenarioWorkloadSpec::KeyValue { template } => template.name.clone(),
            ScenarioWorkloadSpec::Phased { name, .. } => name.clone(),
            ScenarioWorkloadSpec::Trace { path, data } => data
                .streams
                .first()
                .map(|s| s.name.clone())
                .unwrap_or_else(|| path.clone()),
        }
    }

    /// A canonical description of everything about this entry that affects
    /// simulation results — the workload half of a cell's store key. Trace
    /// entries key on the trace *content* hash, so editing the file
    /// invalidates cached cells while renaming it does not.
    pub fn key_material(&self) -> String {
        match self {
            ScenarioWorkloadSpec::Builtin { kind } => format!("builtin={kind:?}"),
            ScenarioWorkloadSpec::Synthetic { template } => {
                format!("synthetic={template:?}")
            }
            ScenarioWorkloadSpec::KeyValue { template } => format!("kv={template:?}"),
            ScenarioWorkloadSpec::Phased {
                name,
                phase_accesses,
                active_share,
                tenants,
            } => format!(
                "phased={name}|phase_accesses={phase_accesses}|active_share={active_share}|tenants={tenants:?}"
            ),
            ScenarioWorkloadSpec::Trace { data, .. } => {
                format!("trace-content={:016x}", data.content_hash())
            }
        }
    }

    /// The footprint this workload has regardless of the sweep's footprint
    /// factor, if any. Trace replays are whatever was captured — scaling a
    /// factor cannot change the data — so sweeping factors over a trace
    /// entry must neither re-key nor re-simulate it.
    pub fn fixed_footprint_bytes(&self) -> Option<u64> {
        match self {
            ScenarioWorkloadSpec::Trace { data, .. } => Some(data.max_stream_footprint_bytes()),
            _ => None,
        }
    }

    /// Bind the spec to a concrete footprint and seed, yielding a
    /// [`TraceFactory`] the simulator can run.
    pub fn instantiate(&self, total_footprint_bytes: u64, seed: u64) -> ScenarioWorkloadInstance {
        let builtin = match self {
            ScenarioWorkloadSpec::Builtin { kind } => {
                Some(Workload::new(*kind, total_footprint_bytes, seed))
            }
            _ => None,
        };
        ScenarioWorkloadInstance {
            spec: self.clone(),
            total_footprint_bytes,
            seed,
            builtin,
        }
    }
}

/// A [`ScenarioWorkloadSpec`] bound to a footprint and seed (one cell's
/// workload). Implements [`TraceFactory`], so `run_one` accepts it exactly
/// like a built-in [`Workload`].
#[derive(Debug, Clone)]
pub struct ScenarioWorkloadInstance {
    spec: ScenarioWorkloadSpec,
    total_footprint_bytes: u64,
    seed: u64,
    /// A `builtin` spec's workload, kept for the instance's lifetime so a
    /// graph kernel's shared graph outlives each `build_traces` call.
    builtin: Option<Workload>,
}

impl ScenarioWorkloadInstance {
    /// The full store-key material for this instance: spec content plus
    /// the bound footprint and seed.
    pub fn key_material(&self) -> String {
        format!(
            "{}|footprint={}|seed={}",
            self.spec.key_material(),
            self.total_footprint_bytes,
            self.seed
        )
    }
}

impl TraceFactory for ScenarioWorkloadInstance {
    fn name(&self) -> String {
        self.spec.display_name()
    }

    fn build_traces(&self, cores: usize) -> Vec<Box<dyn TraceGenerator>> {
        assert!(cores > 0, "need at least one core");
        let region_stride: u64 = 1 << 40;
        let total = self.total_footprint_bytes;
        match &self.spec {
            ScenarioWorkloadSpec::Builtin { .. } => self
                .builtin
                .as_ref()
                .expect("a builtin instance holds its workload")
                .build_traces(cores),
            ScenarioWorkloadSpec::Synthetic { template } => {
                // Per-core private copies, like the SPEC models, sharing one
                // Zipf table.
                let mut params = template.clone();
                params.footprint_bytes = (total / cores as u64).max(2 * 4096);
                let prototype = SyntheticTrace::new(params, 0, 0);
                (0..cores)
                    .map(|core| {
                        Box::new(prototype.fork(
                            core as u64 * region_stride,
                            self.seed.wrapping_add(core as u64 * 1013),
                        )) as Box<dyn TraceGenerator>
                    })
                    .collect()
            }
            ScenarioWorkloadSpec::KeyValue { template } => {
                // One keyspace shared by every core (a multi-threaded
                // server), with per-core request streams.
                let mut params = template.clone();
                params.footprint_bytes = total.max(2 * 4096 * 2);
                let prototype = KeyValueTrace::new(params, 0, 0);
                (0..cores)
                    .map(|core| {
                        Box::new(prototype.fork(0, self.seed.wrapping_add(core as u64 * 7919)))
                            as Box<dyn TraceGenerator>
                    })
                    .collect()
            }
            ScenarioWorkloadSpec::Phased {
                name,
                phase_accesses,
                active_share,
                tenants,
            } => {
                // All cores see the same tenant layout over one shared
                // region (and share its Zipf tables); per-core RNG streams
                // differ.
                let params = phased_params(name, *phase_accesses, *active_share, tenants, total);
                let prototype = PhasedTrace::new(params, 0, 0);
                (0..cores)
                    .map(|core| {
                        Box::new(prototype.fork(0, self.seed.wrapping_add(core as u64 * 2459)))
                            as Box<dyn TraceGenerator>
                    })
                    .collect()
            }
            ScenarioWorkloadSpec::Trace { data, .. } => data.replay_generators(cores),
        }
    }
}

/// The phased family's parameters at a `total` footprint: each tenant is
/// shaped like its SPEC program and owns `share` of the footprint.
fn phased_params(
    name: &str,
    phase_accesses: u64,
    active_share: f64,
    tenants: &[TenantSpec],
    total: u64,
) -> PhasedParams {
    PhasedParams {
        name: name.to_string(),
        phase_accesses,
        active_share,
        tenants: tenants
            .iter()
            .enumerate()
            .map(|(i, t)| {
                let budget = ((total as f64 * t.share) as u64).max(2 * 4096);
                let mut p = t.like.params(budget);
                p.footprint_bytes = budget.max(2 * 4096);
                p.name = format!("{name}.t{i}");
                p
            })
            .collect(),
    }
}

/// A parsed, validated scenario file.
#[derive(Debug, Clone)]
pub struct ScenarioSpec {
    /// Scenario name (used for output files; `[a-z0-9_-]+`).
    pub name: String,
    /// Free-text description.
    pub description: String,
    /// The workload entries.
    pub workloads: Vec<ScenarioWorkloadEntry>,
    /// Design labels to run each workload under. Empty means "the harness
    /// default lineup"; labels are validated by the experiment harness,
    /// which knows the design catalogue.
    pub designs: Vec<String>,
    /// The sweep matrix.
    pub sweep: ScenarioSweep,
    /// System-config overrides applied to every cell.
    pub overrides: ScenarioOverrides,
    /// Telemetry-recorder knobs, applied only when the harness activates
    /// telemetry (never turns it on by itself).
    pub telemetry: Option<ScenarioTelemetry>,
}

impl ScenarioSpec {
    /// Parse and validate a scenario file. Relative trace paths resolve
    /// against the file's directory.
    pub fn from_file(path: impl AsRef<Path>) -> Result<ScenarioSpec, ScenarioError> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path)
            .map_err(|e| ScenarioError(format!("cannot read {}: {e}", path.display())))?;
        let base = path.parent().unwrap_or_else(|| Path::new("."));
        Self::from_json_str(&text, base)
            .map_err(|e| ScenarioError(format!("{}: {}", path.display(), e.0)))
    }

    /// Parse and validate scenario JSON. `base_dir` anchors relative trace
    /// paths.
    pub fn from_json_str(text: &str, base_dir: &Path) -> Result<ScenarioSpec, ScenarioError> {
        let value = serde_json::parse_value(text)
            .map_err(|e| ScenarioError(format!("not valid JSON ({e})")))?;
        Self::from_value(&value, base_dir)
    }

    /// Expand the number of cells this scenario describes (per design, if
    /// `designs` is empty).
    pub fn cells_per_design(&self) -> usize {
        self.workloads.len()
            * self.sweep.footprint_factors.len()
            * self.sweep.seeds.len()
            * self.sweep.page_policies.len().max(1)
            * self.sweep.write_queue_depths.len().max(1)
    }

    fn from_value(value: &Value, base_dir: &Path) -> Result<ScenarioSpec, ScenarioError> {
        let obj = as_object(value, "scenario")?;
        check_fields(
            obj,
            "scenario",
            &[
                "name",
                "description",
                "workloads",
                "designs",
                "sweep",
                "config",
                "telemetry",
            ],
        )?;
        let name = req_string(obj, "name", "scenario")?;
        if name.is_empty()
            || !name
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_' || c == '-')
        {
            return Err(err(
                "scenario.name",
                format!("`{name}` must be non-empty [a-z0-9_-] (it names output files)"),
            ));
        }
        let description = opt_string(obj, "description", "scenario")?.unwrap_or_default();

        let workloads_value = get(obj, "workloads")
            .ok_or_else(|| err("scenario", "missing required field `workloads`"))?;
        let entries = as_array(workloads_value, "scenario.workloads")?;
        if entries.is_empty() {
            return Err(err("scenario.workloads", "needs at least one workload"));
        }
        let mut workloads = Vec::with_capacity(entries.len());
        for (i, entry) in entries.iter().enumerate() {
            workloads.push(parse_workload(
                entry,
                &format!("scenario.workloads[{i}]"),
                base_dir,
            )?);
        }
        let mut names: Vec<String> = workloads.iter().map(|w| w.spec.display_name()).collect();
        names.sort();
        names.dedup();
        if names.len() != workloads.len() {
            return Err(err(
                "scenario.workloads",
                "workload names must be unique (they label result cells)",
            ));
        }

        let designs = match get(obj, "designs") {
            None => Vec::new(),
            Some(v) => {
                let items = as_array(v, "scenario.designs")?;
                items
                    .iter()
                    .enumerate()
                    .map(|(i, d)| as_string(d, &format!("scenario.designs[{i}]")))
                    .collect::<Result<Vec<_>, _>>()?
            }
        };

        let sweep = match get(obj, "sweep") {
            None => ScenarioSweep::default(),
            Some(v) => parse_sweep(v)?,
        };
        let overrides = match get(obj, "config") {
            None => ScenarioOverrides::default(),
            Some(v) => parse_overrides(v)?,
        };
        let telemetry = match get(obj, "telemetry") {
            None => None,
            Some(v) => Some(parse_telemetry(v)?),
        };

        Ok(ScenarioSpec {
            name,
            description,
            workloads,
            designs,
            sweep,
            overrides,
            telemetry,
        })
    }
}

// ---------------------------------------------------------------------------
// Parsing helpers: strict, path-labelled decoding over `serde::Value`.

fn as_object<'v>(v: &'v Value, path: &str) -> Result<&'v [(String, Value)], ScenarioError> {
    match v {
        Value::Object(entries) => Ok(entries),
        other => Err(err(
            path,
            format!("expected an object, got {}", other.kind()),
        )),
    }
}

fn as_array<'v>(v: &'v Value, path: &str) -> Result<&'v [Value], ScenarioError> {
    match v {
        Value::Array(items) => Ok(items),
        other => Err(err(
            path,
            format!("expected an array, got {}", other.kind()),
        )),
    }
}

fn as_string(v: &Value, path: &str) -> Result<String, ScenarioError> {
    match v {
        Value::Str(s) => Ok(s.clone()),
        other => Err(err(
            path,
            format!("expected a string, got {}", other.kind()),
        )),
    }
}

fn as_u64(v: &Value, path: &str) -> Result<u64, ScenarioError> {
    match v {
        Value::UInt(n) => Ok(*n),
        Value::Int(n) if *n >= 0 => Ok(*n as u64),
        other => Err(err(
            path,
            format!("expected a non-negative integer, got {}", other.kind()),
        )),
    }
}

fn as_f64(v: &Value, path: &str) -> Result<f64, ScenarioError> {
    match v {
        Value::Float(x) => Ok(*x),
        Value::UInt(n) => Ok(*n as f64),
        Value::Int(n) => Ok(*n as f64),
        other => Err(err(
            path,
            format!("expected a number, got {}", other.kind()),
        )),
    }
}

fn get<'v>(obj: &'v [(String, Value)], key: &str) -> Option<&'v Value> {
    obj.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn req_string(obj: &[(String, Value)], key: &str, path: &str) -> Result<String, ScenarioError> {
    get(obj, key)
        .ok_or_else(|| err(path, format!("missing required field `{key}`")))
        .and_then(|v| as_string(v, &format!("{path}.{key}")))
}

fn opt_string(
    obj: &[(String, Value)],
    key: &str,
    path: &str,
) -> Result<Option<String>, ScenarioError> {
    get(obj, key)
        .map(|v| as_string(v, &format!("{path}.{key}")))
        .transpose()
}

/// Reject unknown fields so typos fail loudly instead of being ignored.
fn check_fields(obj: &[(String, Value)], path: &str, valid: &[&str]) -> Result<(), ScenarioError> {
    for (key, _) in obj {
        if !valid.contains(&key.as_str()) {
            return Err(err(
                path,
                format!("unknown field `{key}`; valid fields: {}", valid.join(", ")),
            ));
        }
    }
    Ok(())
}

fn fraction(v: &Value, path: &str) -> Result<f64, ScenarioError> {
    let x = as_f64(v, path)?;
    if !(0.0..=1.0).contains(&x) {
        return Err(err(path, format!("{x} is outside [0, 1]")));
    }
    Ok(x)
}

fn parse_workload(
    value: &Value,
    path: &str,
    base_dir: &Path,
) -> Result<ScenarioWorkloadEntry, ScenarioError> {
    let obj = as_object(value, path)?;
    let kind = req_string(obj, "type", path)?;
    let footprint_bytes = get(obj, "footprint_mib")
        .map(|v| bounded_u64(v, &format!("{path}.footprint_mib"), 1, 65_536).map(|m| m << 20))
        .transpose()?;
    let spec = match kind.as_str() {
        "builtin" => {
            check_fields(obj, path, &["type", "name", "footprint_mib"])?;
            let name = req_string(obj, "name", path)?;
            let kind = WorkloadKind::parse(&name).ok_or_else(|| {
                err(
                    &format!("{path}.name"),
                    format!(
                        "unknown built-in workload `{name}`; valid names: {}",
                        WorkloadKind::all_names().join(", ")
                    ),
                )
            })?;
            ScenarioWorkloadSpec::Builtin { kind }
        }
        "synthetic" => {
            check_fields(
                obj,
                path,
                &[
                    "type",
                    "name",
                    "footprint_mib",
                    "streaming_fraction",
                    "streaming_access_fraction",
                    "zipf_exponent",
                    "lines_per_visit",
                    "streaming_burst_lines",
                    "mean_inst_gap",
                    "write_fraction",
                ],
            )?;
            let name = req_string(obj, "name", path)?;
            let mut t = SyntheticParams::base(&name, 2 * 4096);
            if let Some(v) = get(obj, "streaming_fraction") {
                t.streaming_fraction = fraction(v, &format!("{path}.streaming_fraction"))?;
            }
            if let Some(v) = get(obj, "streaming_access_fraction") {
                t.streaming_access_fraction =
                    fraction(v, &format!("{path}.streaming_access_fraction"))?;
            }
            if let Some(v) = get(obj, "zipf_exponent") {
                t.zipf_exponent = bounded_f64(v, &format!("{path}.zipf_exponent"), 0.0, 3.0)?;
            }
            if let Some(v) = get(obj, "lines_per_visit") {
                t.lines_per_visit = bounded_u64(v, &format!("{path}.lines_per_visit"), 1, 64)?;
            }
            if let Some(v) = get(obj, "streaming_burst_lines") {
                t.streaming_burst_lines =
                    bounded_u64(v, &format!("{path}.streaming_burst_lines"), 1, 1024)?;
            }
            if let Some(v) = get(obj, "mean_inst_gap") {
                t.mean_inst_gap =
                    bounded_u64(v, &format!("{path}.mean_inst_gap"), 0, 10_000)? as u32;
            }
            if let Some(v) = get(obj, "write_fraction") {
                t.write_fraction = fraction(v, &format!("{path}.write_fraction"))?;
            }
            ScenarioWorkloadSpec::Synthetic { template: t }
        }
        "kv" => {
            check_fields(
                obj,
                path,
                &[
                    "type",
                    "name",
                    "footprint_mib",
                    "value_bytes",
                    "zipf_exponent",
                    "write_fraction",
                    "scan_fraction",
                    "scan_lines",
                    "mean_inst_gap",
                ],
            )?;
            let name = req_string(obj, "name", path)?;
            let mut t = KeyValueParams::base(&name, 2 * 4096);
            if let Some(v) = get(obj, "value_bytes") {
                t.value_bytes = bounded_u64(v, &format!("{path}.value_bytes"), 1, 1 << 20)?;
            }
            if let Some(v) = get(obj, "zipf_exponent") {
                t.zipf_exponent = bounded_f64(v, &format!("{path}.zipf_exponent"), 0.0, 3.0)?;
            }
            if let Some(v) = get(obj, "write_fraction") {
                t.write_fraction = fraction(v, &format!("{path}.write_fraction"))?;
            }
            if let Some(v) = get(obj, "scan_fraction") {
                t.scan_fraction = fraction(v, &format!("{path}.scan_fraction"))?;
            }
            if let Some(v) = get(obj, "scan_lines") {
                t.scan_lines = bounded_u64(v, &format!("{path}.scan_lines"), 1, 65_536)?;
            }
            if let Some(v) = get(obj, "mean_inst_gap") {
                t.mean_inst_gap =
                    bounded_u64(v, &format!("{path}.mean_inst_gap"), 0, 10_000)? as u32;
            }
            ScenarioWorkloadSpec::KeyValue { template: t }
        }
        "phased" => {
            check_fields(
                obj,
                path,
                &[
                    "type",
                    "name",
                    "footprint_mib",
                    "phase_accesses",
                    "active_share",
                    "tenants",
                ],
            )?;
            let name = req_string(obj, "name", path)?;
            let phase_accesses = match get(obj, "phase_accesses") {
                Some(v) => bounded_u64(v, &format!("{path}.phase_accesses"), 1, u64::MAX)?,
                None => 200_000,
            };
            let active_share = match get(obj, "active_share") {
                Some(v) => fraction(v, &format!("{path}.active_share"))?,
                None => 0.9,
            };
            let tenants_value = get(obj, "tenants")
                .ok_or_else(|| err(path, "phased workloads need a `tenants` array"))?;
            let tenant_items = as_array(tenants_value, &format!("{path}.tenants"))?;
            if tenant_items.len() < 2 {
                return Err(err(
                    &format!("{path}.tenants"),
                    "needs at least two tenants (one tenant never changes phase)",
                ));
            }
            let mut tenants = Vec::with_capacity(tenant_items.len());
            for (i, t) in tenant_items.iter().enumerate() {
                let tpath = format!("{path}.tenants[{i}]");
                let tobj = as_object(t, &tpath)?;
                check_fields(tobj, &tpath, &["like", "share"])?;
                let like_name = req_string(tobj, "like", &tpath)?;
                let like = SpecProgram::ALL
                    .iter()
                    .copied()
                    .find(|p| p.name() == like_name)
                    .ok_or_else(|| {
                        err(
                            &format!("{tpath}.like"),
                            format!(
                                "unknown program `{like_name}`; valid names: {}",
                                SpecProgram::ALL.map(|p| p.name()).join(", ")
                            ),
                        )
                    })?;
                let share = match get(tobj, "share") {
                    Some(v) => fraction(v, &format!("{tpath}.share"))?,
                    None => 1.0 / tenant_items.len() as f64,
                };
                tenants.push(TenantSpec { like, share });
            }
            let total_share: f64 = tenants.iter().map(|t| t.share).sum();
            if total_share < 1.0 - 1e-3 {
                return Err(err(
                    &format!("{path}.tenants"),
                    format!(
                        "tenant shares sum to {total_share:.3}; they must sum to 1.0 \
                         (the workload footprint is divided among tenants, so a \
                         smaller sum would silently shrink the simulated working set)"
                    ),
                ));
            }
            if total_share > 1.0 + 1e-9 {
                return Err(err(
                    &format!("{path}.tenants"),
                    format!("tenant shares sum to {total_share:.3}, which exceeds 1.0"),
                ));
            }
            ScenarioWorkloadSpec::Phased {
                name,
                phase_accesses,
                active_share,
                tenants,
            }
        }
        "trace" => {
            // No `footprint_mib` here: a replay's footprint is whatever was
            // captured, so accepting the knob would be a silent no-op.
            check_fields(obj, path, &["type", "path"])?;
            let rel = req_string(obj, "path", path)?;
            let resolved = if Path::new(&rel).is_absolute() {
                PathBuf::from(&rel)
            } else {
                base_dir.join(&rel)
            };
            let data = TraceData::read_file(&resolved).map_err(|e| {
                err(
                    &format!("{path}.path"),
                    format!("cannot load trace {}: {e}", resolved.display()),
                )
            })?;
            if data.streams.is_empty() || data.total_accesses() == 0 {
                return Err(err(
                    &format!("{path}.path"),
                    format!("trace {} has no accesses to replay", resolved.display()),
                ));
            }
            // Replay round-robins cores over streams, so every stream must
            // have at least one access — catch it here as a parse error
            // rather than a panic mid-simulation.
            if let Some(empty) = data.streams.iter().find(|s| s.accesses.is_empty()) {
                return Err(err(
                    &format!("{path}.path"),
                    format!(
                        "trace {}: stream `{}` has no accesses; every stream must be \
                         non-empty to be replayed",
                        resolved.display(),
                        empty.name
                    ),
                ));
            }
            ScenarioWorkloadSpec::Trace {
                path: rel,
                data: Arc::new(data),
            }
        }
        other => {
            return Err(err(
                &format!("{path}.type"),
                format!(
                    "unknown workload type `{other}`; valid types: builtin, synthetic, kv, phased, trace"
                ),
            ))
        }
    };
    Ok(ScenarioWorkloadEntry {
        spec,
        footprint_bytes,
    })
}

fn bounded_u64(v: &Value, path: &str, lo: u64, hi: u64) -> Result<u64, ScenarioError> {
    let n = as_u64(v, path)?;
    if n < lo || n > hi {
        return Err(err(path, format!("{n} is outside [{lo}, {hi}]")));
    }
    Ok(n)
}

fn bounded_f64(v: &Value, path: &str, lo: f64, hi: f64) -> Result<f64, ScenarioError> {
    let x = as_f64(v, path)?;
    if !(lo..=hi).contains(&x) {
        return Err(err(path, format!("{x} is outside [{lo}, {hi}]")));
    }
    Ok(x)
}

fn parse_sweep(value: &Value) -> Result<ScenarioSweep, ScenarioError> {
    let obj = as_object(value, "scenario.sweep")?;
    check_fields(
        obj,
        "scenario.sweep",
        &[
            "footprint_factors",
            "seeds",
            "page_policies",
            "write_queue_depths",
        ],
    )?;
    let mut sweep = ScenarioSweep::default();
    if let Some(v) = get(obj, "footprint_factors") {
        let items = as_array(v, "scenario.sweep.footprint_factors")?;
        if items.is_empty() {
            return Err(err("scenario.sweep.footprint_factors", "must not be empty"));
        }
        sweep.footprint_factors = items
            .iter()
            .enumerate()
            .map(|(i, x)| {
                bounded_f64(
                    x,
                    &format!("scenario.sweep.footprint_factors[{i}]"),
                    0.125,
                    64.0,
                )
            })
            .collect::<Result<_, _>>()?;
    }
    if let Some(v) = get(obj, "seeds") {
        let items = as_array(v, "scenario.sweep.seeds")?;
        if items.is_empty() {
            return Err(err("scenario.sweep.seeds", "must not be empty"));
        }
        sweep.seeds = items
            .iter()
            .enumerate()
            .map(|(i, x)| as_u64(x, &format!("scenario.sweep.seeds[{i}]")))
            .collect::<Result<_, _>>()?;
    }
    if let Some(v) = get(obj, "page_policies") {
        let items = as_array(v, "scenario.sweep.page_policies")?;
        if items.is_empty() {
            return Err(err(
                "scenario.sweep.page_policies",
                "must not be empty (omit the field to skip the sweep)",
            ));
        }
        sweep.page_policies = items
            .iter()
            .enumerate()
            .map(|(i, x)| {
                DramPagePolicyOverride::parse(x, &format!("scenario.sweep.page_policies[{i}]"))
            })
            .collect::<Result<_, _>>()?;
    }
    if let Some(v) = get(obj, "write_queue_depths") {
        let items = as_array(v, "scenario.sweep.write_queue_depths")?;
        if items.is_empty() {
            return Err(err(
                "scenario.sweep.write_queue_depths",
                "must not be empty (omit the field to skip the sweep)",
            ));
        }
        sweep.write_queue_depths = items
            .iter()
            .enumerate()
            .map(|(i, x)| {
                bounded_u64(
                    x,
                    &format!("scenario.sweep.write_queue_depths[{i}]"),
                    0,
                    4096,
                )
                .map(|n| n as usize)
            })
            .collect::<Result<_, _>>()?;
    }
    Ok(sweep)
}

fn parse_overrides(value: &Value) -> Result<ScenarioOverrides, ScenarioError> {
    let obj = as_object(value, "scenario.config")?;
    check_fields(
        obj,
        "scenario.config",
        &[
            "cores",
            "total_instructions",
            "warmup_instructions",
            "mlp_per_core",
            "dram_cache_mib",
            "bandwidth_ratio",
        ],
    )?;
    let mut o = ScenarioOverrides::default();
    let p = "scenario.config";
    if let Some(v) = get(obj, "cores") {
        o.cores = Some(bounded_u64(v, &format!("{p}.cores"), 1, 1024)? as usize);
    }
    if let Some(v) = get(obj, "total_instructions") {
        o.total_instructions = Some(bounded_u64(
            v,
            &format!("{p}.total_instructions"),
            1000,
            u64::MAX,
        )?);
    }
    if let Some(v) = get(obj, "warmup_instructions") {
        o.warmup_instructions = Some(bounded_u64(
            v,
            &format!("{p}.warmup_instructions"),
            0,
            u64::MAX,
        )?);
    }
    if let Some(v) = get(obj, "mlp_per_core") {
        o.mlp_per_core = Some(bounded_u64(v, &format!("{p}.mlp_per_core"), 1, 1024)? as usize);
    }
    if let Some(v) = get(obj, "dram_cache_mib") {
        o.dram_cache_mib = Some(bounded_u64(v, &format!("{p}.dram_cache_mib"), 1, 1 << 20)?);
    }
    if let Some(v) = get(obj, "bandwidth_ratio") {
        o.bandwidth_ratio = Some(bounded_u64(v, &format!("{p}.bandwidth_ratio"), 1, 64)? as usize);
    }
    Ok(o)
}

fn parse_telemetry(value: &Value) -> Result<ScenarioTelemetry, ScenarioError> {
    let obj = as_object(value, "scenario.telemetry")?;
    check_fields(
        obj,
        "scenario.telemetry",
        &["interval_instructions", "max_samples", "max_events"],
    )?;
    let mut t = ScenarioTelemetry::default();
    let p = "scenario.telemetry";
    if let Some(v) = get(obj, "interval_instructions") {
        t.interval_instructions = Some(bounded_u64(
            v,
            &format!("{p}.interval_instructions"),
            1,
            u64::MAX,
        )?);
    }
    if let Some(v) = get(obj, "max_samples") {
        t.max_samples = Some(bounded_u64(v, &format!("{p}.max_samples"), 1, 1 << 24)? as usize);
    }
    if let Some(v) = get(obj, "max_events") {
        t.max_events = Some(bounded_u64(v, &format!("{p}.max_events"), 1, 1 << 24)? as usize);
    }
    Ok(t)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> &'static Path {
        Path::new(".")
    }

    #[test]
    fn minimal_scenario_parses_with_defaults() {
        let spec = ScenarioSpec::from_json_str(
            r#"{"name": "mini", "workloads": [{"type": "builtin", "name": "mcf"}]}"#,
            base(),
        )
        .unwrap();
        assert_eq!(spec.name, "mini");
        assert_eq!(spec.workloads.len(), 1);
        assert!(spec.designs.is_empty());
        assert_eq!(spec.sweep, ScenarioSweep::default());
        assert!(spec.overrides.is_empty());
        assert_eq!(spec.cells_per_design(), 1);
    }

    #[test]
    fn full_scenario_parses() {
        let json = r#"{
            "name": "full",
            "description": "everything at once",
            "workloads": [
                {"type": "builtin", "name": "pagerank"},
                {"type": "kv", "name": "kv99", "zipf_exponent": 0.99, "value_bytes": 512},
                {"type": "synthetic", "name": "stream", "streaming_fraction": 0.9},
                {"type": "phased", "name": "tenants", "phase_accesses": 50000,
                 "active_share": 0.85,
                 "tenants": [{"like": "mcf", "share": 0.6}, {"like": "lbm", "share": 0.4}]}
            ],
            "designs": ["NoCache", "Banshee"],
            "sweep": {"footprint_factors": [2, 4], "seeds": [1, 2]},
            "config": {"cores": 8, "mlp_per_core": 4}
        }"#;
        let spec = ScenarioSpec::from_json_str(json, base()).unwrap();
        assert_eq!(spec.workloads.len(), 4);
        assert_eq!(spec.designs, ["NoCache", "Banshee"]);
        assert_eq!(spec.sweep.footprint_factors, [2.0, 4.0]);
        assert_eq!(spec.sweep.seeds, [1, 2]);
        assert_eq!(spec.overrides.cores, Some(8));
        assert_eq!(spec.overrides.mlp_per_core, Some(4));
        assert_eq!(spec.cells_per_design(), 16);
        assert!(spec.telemetry.is_none());
    }

    #[test]
    fn telemetry_block_parses() {
        let json = r#"{
            "name": "tel",
            "workloads": [{"type": "builtin", "name": "mcf"}],
            "telemetry": {"interval_instructions": 50000, "max_samples": 2048,
                          "max_events": 512}
        }"#;
        let spec = ScenarioSpec::from_json_str(json, base()).unwrap();
        let tel = spec.telemetry.unwrap();
        assert_eq!(tel.interval_instructions, Some(50_000));
        assert_eq!(tel.max_samples, Some(2048));
        assert_eq!(tel.max_events, Some(512));

        // Partial blocks leave the rest at recorder defaults.
        let spec = ScenarioSpec::from_json_str(
            r#"{"name": "tel2", "workloads": [{"type": "builtin", "name": "mcf"}],
                "telemetry": {"interval_instructions": 1}}"#,
            base(),
        )
        .unwrap();
        let tel = spec.telemetry.unwrap();
        assert_eq!(tel.interval_instructions, Some(1));
        assert_eq!(tel.max_samples, None);
    }

    #[test]
    fn telemetry_block_rejects_bad_values() {
        // Unknown keys are rejected (strict schema).
        let err = ScenarioSpec::from_json_str(
            r#"{"name": "tel", "workloads": [{"type": "builtin", "name": "mcf"}],
                "telemetry": {"intervall": 5}}"#,
            base(),
        )
        .unwrap_err();
        assert!(err.0.contains("scenario.telemetry"), "{}", err.0);
        // A zero interval would never sample.
        let err = ScenarioSpec::from_json_str(
            r#"{"name": "tel", "workloads": [{"type": "builtin", "name": "mcf"}],
                "telemetry": {"interval_instructions": 0}}"#,
            base(),
        )
        .unwrap_err();
        assert!(err.0.contains("interval_instructions"), "{}", err.0);
    }

    #[test]
    fn dram_knobs_parse_in_config_and_sweep() {
        let json = r#"{
            "name": "dram",
            "workloads": [{"type": "builtin", "name": "mcf"}],
            "sweep": {"page_policies": ["open", "closed"],
                      "write_queue_depths": [0, 8, 32]}
        }"#;
        let spec = ScenarioSpec::from_json_str(json, base()).unwrap();
        assert_eq!(
            spec.sweep.page_policies,
            vec![DramPagePolicyOverride::Open, DramPagePolicyOverride::Closed]
        );
        assert_eq!(spec.sweep.write_queue_depths, vec![0, 8, 32]);
        // 1 workload × 1 factor × 1 seed × 2 policies × 3 depths.
        assert_eq!(spec.cells_per_design(), 6);
    }

    #[test]
    fn dram_knob_errors_name_valid_values() {
        let bad_policy = r#"{"name": "x", "workloads": [{"type": "builtin", "name": "mcf"}],
            "sweep": {"page_policies": ["ajar"]}}"#;
        let e = ScenarioSpec::from_json_str(bad_policy, base())
            .unwrap_err()
            .to_string();
        assert!(
            e.contains("open, closed") && e.contains("page_policies[0]"),
            "{e}"
        );

        let empty_axis = r#"{"name": "x", "workloads": [{"type": "builtin", "name": "mcf"}],
            "sweep": {"write_queue_depths": []}}"#;
        let e = ScenarioSpec::from_json_str(empty_axis, base())
            .unwrap_err()
            .to_string();
        assert!(e.contains("omit the field"), "{e}");
    }

    #[test]
    fn errors_name_the_json_path_and_valid_options() {
        let cases: &[(&str, &[&str])] = &[
            (r#"{"workloads": []}"#, &["missing required field `name`"]),
            (
                r#"{"name": "x", "workloads": []}"#,
                &["scenario.workloads", "at least one"],
            ),
            (
                r#"{"name": "x", "workloads": [{"type": "builtin", "name": "nope"}]}"#,
                &["workloads[0]", "nope", "pagerank"],
            ),
            (
                r#"{"name": "x", "workloads": [{"type": "alien"}]}"#,
                &["workloads[0].type", "builtin, synthetic, kv, phased, trace"],
            ),
            (
                r#"{"name": "x", "typo": 1, "workloads": [{"type": "builtin", "name": "mcf"}]}"#,
                &["unknown field `typo`", "valid fields"],
            ),
            (
                r#"{"name": "x", "workloads": [{"type": "kv", "name": "kv", "zipf_exponent": 9}]}"#,
                &["zipf_exponent", "outside"],
            ),
            (
                r#"{"name": "x", "workloads": [{"type": "phased", "name": "p",
                    "tenants": [{"like": "mcf"}]}]}"#,
                &["tenants", "two tenants"],
            ),
            (
                r#"{"name": "BAD NAME", "workloads": [{"type": "builtin", "name": "mcf"}]}"#,
                &["scenario.name"],
            ),
            (
                r#"{"name": "x", "workloads": [{"type": "builtin", "name": "mcf"},
                    {"type": "builtin", "name": "mcf"}]}"#,
                &["unique"],
            ),
            (
                r#"{"name": "x", "workloads": [{"type": "builtin", "name": "mcf"}],
                    "config": {"frequency_backend": "exact"}}"#,
                &["scenario.config", "unknown field `frequency_backend`"],
            ),
            (
                r#"{"name": "x", "workloads": [{"type": "builtin", "name": "mcf"}],
                    "sweep": {"frequency_backends": ["exact"]}}"#,
                &["scenario.sweep", "unknown field `frequency_backends`"],
            ),
            ("{", &["not valid JSON"]),
        ];
        for (json, needles) in cases {
            let e = ScenarioSpec::from_json_str(json, base())
                .unwrap_err()
                .to_string();
            for needle in *needles {
                assert!(e.contains(needle), "error {e:?} should mention {needle:?}");
            }
        }
    }

    #[test]
    fn frequency_backend_errors_name_the_path_and_grammar() {
        // The removed keys are rejected even with values that once parsed,
        // and the error lists the fields each object does accept.
        let config_fields = "valid fields: cores, total_instructions, warmup_instructions, \
                             mlp_per_core, dram_cache_mib, bandwidth_ratio";
        let removed: &[(&str, &str)] = &[
            ("frequency_backend", r#""cms:8192x4""#),
            ("epoch_instructions", "500000"),
            ("tlb_entries", "64"),
            ("issue_width", "4"),
            ("latency_scale", "0.5"),
            ("large_pages", "true"),
            ("use_batman", "true"),
            ("dram_scheduler", r#""fcfs""#),
            ("dram_page_policy", r#""closed""#),
            ("dram_write_queue_depth", "16"),
            ("dram_read_queue_depth", "4"),
            ("dram_refresh", "false"),
        ];
        for (key, value) in removed {
            let old_config = format!(
                r#"{{"name": "x", "workloads": [{{"type": "builtin", "name": "mcf"}}],
                    "config": {{"{key}": {value}}}}}"#
            );
            let e = ScenarioSpec::from_json_str(&old_config, base())
                .unwrap_err()
                .to_string();
            assert!(
                e.contains("scenario.config")
                    && e.contains(&format!("unknown field `{key}`"))
                    && e.ends_with(config_fields),
                "{e}"
            );
        }

        let old_axis = r#"{"name": "x", "workloads": [{"type": "builtin", "name": "mcf"}],
            "sweep": {"frequency_backends": ["exact", "cms:4096x4"]}}"#;
        let e = ScenarioSpec::from_json_str(old_axis, base())
            .unwrap_err()
            .to_string();
        assert!(
            e.contains("scenario.sweep")
                && e.contains("unknown field `frequency_backends`")
                && e.contains(
                    "valid fields: footprint_factors, seeds, page_policies, write_queue_depths"
                ),
            "{e}"
        );
    }

    #[test]
    fn instances_build_per_core_traces() {
        let json = r#"{
            "name": "build",
            "workloads": [
                {"type": "kv", "name": "kv99"},
                {"type": "phased", "name": "ph", "phase_accesses": 1000,
                 "tenants": [{"like": "mcf", "share": 0.5}, {"like": "lbm", "share": 0.5}]},
                {"type": "synthetic", "name": "syn"},
                {"type": "builtin", "name": "gcc"}
            ]
        }"#;
        let spec = ScenarioSpec::from_json_str(json, base()).unwrap();
        for entry in &spec.workloads {
            let instance = entry.spec.instantiate(8 << 20, 7);
            let mut traces = instance.build_traces(4);
            assert_eq!(traces.len(), 4);
            for t in traces.iter_mut() {
                for _ in 0..50 {
                    let _ = t.next_access();
                }
            }
            // Deterministic: a second instance replays identically.
            let mut again = entry.spec.instantiate(8 << 20, 7).build_traces(4);
            let mut first = entry.spec.instantiate(8 << 20, 7).build_traces(4);
            for core in 0..4 {
                for _ in 0..50 {
                    assert_eq!(again[core].next_access(), first[core].next_access());
                }
            }
        }
    }

    /// Sharing Zipf tables across cores changes no stream: each core of
    /// `build_traces(16)` replays what its generator yields when built alone
    /// through its single-core constructor.
    #[test]
    fn shared_tables_replay_unshared_construction() {
        use crate::graph::{GraphKernelTrace, SyntheticGraph};
        let json = r#"{
            "name": "share",
            "workloads": [
                {"type": "builtin", "name": "pagerank"},
                {"type": "builtin", "name": "mcf"},
                {"type": "builtin", "name": "mix1"},
                {"type": "synthetic", "name": "syn", "zipf_exponent": 0.99},
                {"type": "kv", "name": "kv99"},
                {"type": "phased", "name": "ph", "phase_accesses": 1000,
                 "tenants": [{"like": "mcf", "share": 0.4}, {"like": "lbm", "share": 0.3},
                             {"like": "omnetpp", "share": 0.3}]}
            ]
        }"#;
        let (total, seed, cores) = (8u64 << 20, 7u64, 16usize);
        let (stride, per_core) = (1u64 << 40, total / cores as u64);
        let spec = ScenarioSpec::from_json_str(json, base()).unwrap();
        for entry in &spec.workloads {
            let graph = match entry.spec {
                ScenarioWorkloadSpec::Builtin {
                    kind: WorkloadKind::Graph(_),
                } => Some(Arc::new(SyntheticGraph::build(total, 16, seed))),
                _ => None,
            };
            let mut shared = entry.spec.instantiate(total, seed).build_traces(cores);
            for (core, trace) in shared.iter_mut().enumerate() {
                let c = core as u64;
                let mut alone: Box<dyn TraceGenerator> = match &entry.spec {
                    ScenarioWorkloadSpec::Builtin { kind } => match kind {
                        WorkloadKind::Graph(kernel) => Box::new(GraphKernelTrace::new(
                            Arc::clone(graph.as_ref().unwrap()),
                            *kernel,
                            0,
                            core,
                            cores,
                            seed + c,
                        )),
                        WorkloadKind::Spec(program) => {
                            program.build(per_core, c * stride, seed + c * 1013)
                        }
                        WorkloadKind::Mix(mix) => {
                            mix.program_for_core(core)
                                .build(per_core, c * stride, seed + c * 7919)
                        }
                    },
                    ScenarioWorkloadSpec::Synthetic { template } => {
                        let mut params = template.clone();
                        params.footprint_bytes = per_core;
                        Box::new(SyntheticTrace::new(params, c * stride, seed + c * 1013))
                    }
                    ScenarioWorkloadSpec::KeyValue { template } => {
                        let mut params = template.clone();
                        params.footprint_bytes = total;
                        Box::new(KeyValueTrace::new(params, 0, seed + c * 7919))
                    }
                    ScenarioWorkloadSpec::Phased {
                        name,
                        phase_accesses,
                        active_share,
                        tenants,
                    } => Box::new(PhasedTrace::new(
                        phased_params(name, *phase_accesses, *active_share, tenants, total),
                        0,
                        seed + c * 2459,
                    )),
                    ScenarioWorkloadSpec::Trace { .. } => unreachable!("no trace entry"),
                };
                let name = entry.spec.display_name();
                assert_eq!(trace.name(), alone.name(), "{name} core {core}");
                for i in 0..10_000 {
                    assert_eq!(
                        trace.next_access(),
                        alone.next_access(),
                        "{name} core {core} access {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn key_material_distinguishes_specs_and_bindings() {
        let spec = ScenarioSpec::from_json_str(
            r#"{"name": "km", "workloads": [
                {"type": "kv", "name": "a", "zipf_exponent": 0.9},
                {"type": "kv", "name": "b", "zipf_exponent": 1.1}
            ]}"#,
            base(),
        )
        .unwrap();
        let a = &spec.workloads[0].spec;
        let b = &spec.workloads[1].spec;
        assert_ne!(a.key_material(), b.key_material());
        assert_ne!(
            a.instantiate(1 << 20, 1).key_material(),
            a.instantiate(1 << 20, 2).key_material()
        );
        assert_ne!(
            a.instantiate(1 << 20, 1).key_material(),
            a.instantiate(2 << 20, 1).key_material()
        );
        assert_eq!(
            a.instantiate(1 << 20, 1).key_material(),
            a.instantiate(1 << 20, 1).key_material()
        );
    }

    #[test]
    fn trace_workloads_key_on_content() {
        let dir = std::env::temp_dir().join(format!("banshee_scn_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let data = TraceData {
            streams: vec![crate::trace_file::TraceStream {
                name: "cap".into(),
                footprint_bytes: 1 << 20,
                accesses: vec![crate::MemoryAccess::load(banshee_common::Addr::new(64), 1)],
            }],
        };
        data.write_text_file(dir.join("t.trace")).unwrap();
        let json = r#"{"name": "tr", "workloads": [{"type": "trace", "path": "t.trace"}]}"#;
        let spec = ScenarioSpec::from_json_str(json, &dir).unwrap();
        let km1 = spec.workloads[0].spec.key_material();
        assert!(km1.contains("trace-content="));

        // Same path, different content => different key material.
        let mut data2 = data.clone();
        data2.streams[0].accesses[0].inst_gap = 9;
        data2.write_text_file(dir.join("t.trace")).unwrap();
        let spec2 = ScenarioSpec::from_json_str(json, &dir).unwrap();
        assert_ne!(km1, spec2.workloads[0].spec.key_material());

        // Missing file is an actionable error.
        let missing = r#"{"name": "tr", "workloads": [{"type": "trace", "path": "no.trace"}]}"#;
        let e = ScenarioSpec::from_json_str(missing, &dir)
            .unwrap_err()
            .to_string();
        assert!(e.contains("no.trace"), "error was: {e}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
