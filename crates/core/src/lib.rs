//! **Banshee**: the bandwidth-efficient DRAM cache design of Yu et al.
//! (MICRO 2017), implemented as a [`DramCacheController`].
//!
//! Banshee's two key ideas, and where they live in this crate:
//!
//! 1. **Tag accesses are eliminated from the common case** by tracking DRAM
//!    cache residency in the page tables and TLBs (a *cached* bit plus *way*
//!    bits per PTE — `banshee_memhier::PteMapInfo`), while keeping the page's
//!    physical address unchanged so there is no address-consistency problem.
//!    The hardware piece that makes this work with *lazy* TLB coherence is
//!    the per-memory-controller [`TagBuffer`](tag_buffer::TagBuffer)
//!    (Section 3.3): it holds the mappings of recently remapped pages, so
//!    stale TLB hints are harmlessly overridden at the memory controller, and
//!    PTE updates + TLB shootdowns happen only in batches when the buffer
//!    fills (Section 3.4), modelled by [`coherence`].
//!
//! 2. **Replacement traffic is minimized** by a bandwidth-aware,
//!    frequency-based replacement policy (Section 4): per-set frequency
//!    counters stored in the in-package DRAM ([`metadata`], Figure 3),
//!    updated only for a *sampled* fraction of accesses (the sample rate
//!    adapts as miss-rate × sampling-coefficient), and a replacement
//!    threshold that ensures a page is only brought in when it has been
//!    accessed enough to amortize the cost of moving it ([`fbr`],
//!    Algorithm 1).
//!
//! The [`BansheeController`](controller::BansheeController) composes these
//! pieces; [`BansheeVariant`](controller::BansheeVariant) additionally
//! provides the two ablations of Figure 7 (LRU replacement and FBR without
//! sampling), and large (2 MiB) pages are supported by instantiating the
//! controller with a large-page geometry (Section 4.3 / 5.4.1).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod coherence;
pub mod config;
pub mod controller;
pub mod fbr;
pub mod metadata;
pub mod tag_buffer;

pub use banshee_dcache::DramCacheController;
pub use coherence::LazyCoherence;
pub use config::BansheeConfig;
pub use controller::{BansheeController, BansheeVariant};
pub use fbr::{FbrDecision, FrequencyReplacement};
pub use metadata::{CacheSetMetadata, MetadataEntry, MetadataTable};
pub use tag_buffer::{InsertOutcome, TagBuffer, TagBufferEntry};
