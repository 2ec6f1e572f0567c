//! Helpers shared by the examples (included via `#[path]`, not an example
//! itself: Cargo only treats `examples/*.rs` files and directories with a
//! `main.rs` as example targets).

use banshee_repro::common::MemSize;

/// CI smoke override: instruction budget (or stream length) per run, taken
/// from `BANSHEE_EXAMPLE_INSTRUCTIONS` when set. See `tests/examples_smoke.rs`.
#[allow(dead_code, reason = "not every example uses every helper")]
pub fn smoke_budget() -> Option<u64> {
    std::env::var("BANSHEE_EXAMPLE_INSTRUCTIONS")
        .ok()
        .and_then(|s| s.parse().ok())
}

/// DRAM-cache capacity for an example machine: the full-size machine
/// normally, shrunk for smoke runs because workload construction cost
/// scales with the footprint (4x capacity).
#[allow(dead_code, reason = "not every example uses every helper")]
pub fn example_capacity(budget: Option<u64>) -> MemSize {
    if budget.is_some() {
        MemSize::mib(2)
    } else {
        MemSize::mib(32)
    }
}
