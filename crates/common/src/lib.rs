//! Shared building blocks for the Banshee DRAM-cache reproduction.
//!
//! This crate holds the vocabulary types used by every other crate in the
//! workspace:
//!
//! * [`addr`] — physical/virtual address newtypes and cache-geometry helpers
//!   (line, page and large-page arithmetic).
//! * [`hash`] — the deterministic FNV-1a hasher ([`FnvHashMap`] /
//!   [`FnvHashSet`]) used for every simulator-internal map: faster than
//!   SipHash on the small keys the hot path uses, and reproducible across
//!   processes (no random seed).
//! * [`rng`] — a small deterministic pseudo-random number generator plus a
//!   Zipf sampler, used both by the synthetic workload generators and by the
//!   stochastic pieces of the cache-replacement policies (sampling-based
//!   counter updates, stochastic fill, random candidate victims).
//! * [`stats`] — DRAM traffic accounting by [`stats::TrafficClass`] and
//!   general named counters. The per-class byte counts are what the paper's
//!   Figures 5, 6 and 9 plot.
//! * [`config`] — capacity/latency helper constructors and a few
//!   configuration structs shared between the DRAM model and the system
//!   simulator.
//! * [`telemetry`] — the time-resolved observability layer: an epoch-sampled
//!   time series and a bounded ring of rare structured events, both kept by
//!   a [`telemetry::Recorder`] that reads no host time.
//!
//! Everything here is `no_std`-shaped in spirit (no I/O, no globals) but the
//! crate itself uses `std` for convenience.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod addr;
pub mod config;
pub mod fastdiv;
pub mod hash;
pub mod persist;
pub mod replay;
pub mod rng;
pub mod stats;
pub mod telemetry;

pub use addr::{Addr, LineAddr, PageNum, CACHE_LINE_SIZE, LARGE_PAGE_SIZE, PAGE_SIZE};
pub use config::{CyclesPerSec, MemSize};
pub use fastdiv::FastDivMod;
pub use hash::{fnv1a64, FnvHashMap, FnvHashSet, FnvHasher};
pub use persist::{
    Persist, SnapshotError, SnapshotHeader, SnapshotReader, SnapshotWriter, SNAPSHOT_FORMAT,
    SNAPSHOT_MAGIC,
};
pub use replay::ReplaySet;
pub use rng::{SplitMix64, XorShiftRng, ZipfSampler};
pub use stats::{Counter, DramKind, StatSet, TrafficClass, TrafficStats};
pub use telemetry::{Recorder, TelemetryConfig, TelemetryError};

/// A timestamp or duration measured in CPU cycles (2.7 GHz by default).
///
/// All timing in the workspace — DRAM bank occupancy, core stall accounting,
/// OS cost charging — is expressed in CPU cycles to avoid unit confusion.
pub type Cycle = u64;
