//! Property tests for the result-store decoder: a stored quick-scale
//! `SimResult` entry that is truncated, bit-flipped or has numbers swapped
//! for strings, negatives or out-of-range values must never make
//! `ResultStore::get_decoded` panic. A truncated entry is always a miss, so
//! the runner recomputes the cell.

#[path = "../../workloads/tests/mangle/mod.rs"]
mod mangle;

use banshee_exec::ResultStore;
use banshee_sim::SimResult;
use mangle::{flip_bits, swap_numbers, truncate};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;

const KEY: &str = "model-rev=2|store-decode-cell";

/// The Banshee cell of the quick-scale golden fixture: a real `SimResult`
/// with every stat a simulated cell carries.
fn quick_result() -> SimResult {
    let text = include_str!("fixtures/golden_quick.json");
    let results: Vec<SimResult> = serde_json::from_str(text).expect("golden fixture decodes");
    results
        .into_iter()
        .find(|r| r.design == "Banshee")
        .expect("the fixture holds a Banshee cell")
}

/// The entry text `put_encoded` writes for the quick-scale result.
fn entry_text() -> &'static str {
    static TEXT: OnceLock<String> = OnceLock::new();
    TEXT.get_or_init(|| {
        let dir = scratch_dir("entry");
        let store = ResultStore::open(&dir).expect("open store");
        let result = quick_result();
        let path = store.put_encoded(KEY, &result).expect("put entry");
        let back = store
            .get_decoded::<SimResult>(KEY)
            .expect("intact entry hits");
        assert_eq!(
            serde_json::to_string(&back).expect("encode"),
            serde_json::to_string(&result).expect("encode")
        );
        let text = std::fs::read_to_string(path).expect("read entry");
        let _ = std::fs::remove_dir_all(&dir);
        text
    })
}

fn scratch_dir(test: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "banshee_store_decode_{test}_{}",
        std::process::id()
    ))
}

/// Store `entry` as the entry for `KEY` in a store of its own and decode
/// it: the decoder must return, not panic.
fn decode(test: &str, entry: &str) -> Result<Option<SimResult>, TestCaseError> {
    let dir = scratch_dir(test);
    let store = ResultStore::open(&dir).expect("open store");
    std::fs::write(store.entry_path(KEY), entry).expect("write mangled entry");
    let outcome = catch_unwind(AssertUnwindSafe(|| store.get_decoded::<SimResult>(KEY)));
    let _ = std::fs::remove_dir_all(&dir);
    prop_assert!(outcome.is_ok(), "decoder panicked on {entry:?}");
    Ok(outcome.unwrap_or(None))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    #[test]
    fn truncated_entries_are_misses(a in any::<u64>()) {
        let full = entry_text();
        // `truncate` may keep the whole text; cut at least one byte.
        let cut = truncate(full, a);
        let cut = &cut[..cut.len().min(full.len() - 1)];
        prop_assert!(decode("truncate", cut)?.is_none(), "a truncated entry decoded");
    }

    #[test]
    fn bit_flipped_entries_never_panic((a, b) in (any::<u64>(), any::<u64>())) {
        decode("flip", &flip_bits(entry_text(), a, b))?;
    }

    #[test]
    fn number_swapped_entries_never_panic((a, b) in (any::<u64>(), any::<u64>())) {
        decode("swap", &swap_numbers(entry_text(), a, b))?;
    }
}
