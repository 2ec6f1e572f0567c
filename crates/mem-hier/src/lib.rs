//! SRAM cache hierarchy, TLBs, page table and reverse mapping.
//!
//! This crate models everything between the core and the memory controllers:
//!
//! * [`cache`] — a generic set-associative, tag-only LRU cache model, used
//!   for the L1D, L2 and the shared LLC. The DRAM-cache designs keep their
//!   own tag structures.
//! * [`hierarchy`] — the paper's 3-level on-chip hierarchy (32 KiB L1,
//!   128 KiB L2 private per core, 8 MiB shared 16-way LLC) with inclusive
//!   semantics and dirty-eviction propagation. LLC misses and LLC dirty
//!   evictions are what reach the memory controllers.
//! * [`tlb`] — per-core TLBs that carry Banshee/TDC's PTE extension bits
//!   (cached bit + way bits) alongside the translation. The TLB is what makes
//!   a *stale* mapping observable: after a page is remapped by the DRAM
//!   cache, TLB entries keep returning the old mapping until a shootdown.
//! * [`page_table`] — the OS page table with first-touch physical frame
//!   allocation, the PTE extension bits, large-page support and the
//!   **reverse mapping** (physical page → all virtual pages that map to it),
//!   which Banshee's lazy-coherence software routine uses to find the PTEs
//!   for a tag-buffer entry (Section 3.4).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cache;
pub mod hierarchy;
pub mod page_table;
pub mod tlb;

pub use cache::{AccessResult, SetAssocCache};
pub use hierarchy::{CacheHierarchy, HierarchyConfig, HierarchyOutcome, HitLevel};
pub use page_table::{PageSize, PageTable, PteMapInfo};
pub use tlb::{Tlb, TlbEntry};
