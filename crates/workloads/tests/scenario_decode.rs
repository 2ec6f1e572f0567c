//! Property tests for the scenario decoder: mangled copies of every shipped
//! scenario file (truncations, bit flips, numbers swapped for strings,
//! negatives or out-of-range values) must fail with a typed error, never a
//! panic, and every error on input that is still valid JSON must name the
//! offending `scenario.`-rooted JSON path.

mod mangle;

use banshee_workloads::scenario::ScenarioSpec;
use mangle::{flip_bits, swap_numbers, truncate};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

fn scenario_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/scenarios")
}

/// Every `examples/scenarios/*.json`, sorted by name, as (name, text).
fn scenarios() -> &'static [(String, String)] {
    static ALL: OnceLock<Vec<(String, String)>> = OnceLock::new();
    ALL.get_or_init(read_scenarios)
}

fn read_scenarios() -> Vec<(String, String)> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(scenario_dir())
        .expect("examples/scenarios exists")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "no scenario files to mangle");
    files
        .into_iter()
        .map(|p| {
            let text = std::fs::read_to_string(&p).expect("readable scenario");
            (p.file_name().unwrap().to_string_lossy().into_owned(), text)
        })
        .collect()
}

/// Decode `mangle` applied to shipped scenario `file`: it must not panic,
/// and an error on input that still parses as JSON must name its path.
fn check_mangled(file: usize, mangle: impl Fn(&str) -> String) -> Result<(), TestCaseError> {
    let all = scenarios();
    let (name, text) = &all[file % all.len()];
    let input = mangle(text);
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        ScenarioSpec::from_json_str(&input, &scenario_dir())
    }));
    prop_assert!(outcome.is_ok(), "{name}: decoder panicked on {input:?}");
    if let Ok(Err(e)) = outcome {
        if serde_json::parse_value(&input).is_ok() {
            prop_assert!(
                e.0.starts_with("scenario.") || e.0.starts_with("scenario:"),
                "{name}: error names no scenario path: {e} (input {input:?})"
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    #[test]
    fn truncated_scenarios_fail_with_a_path_never_a_panic(file in 0usize..64, a in any::<u64>()) {
        check_mangled(file, |t| truncate(t, a))?;
    }

    #[test]
    fn bit_flipped_scenarios_fail_with_a_path_never_a_panic(
        (file, a, b) in (0usize..64, any::<u64>(), any::<u64>())
    ) {
        check_mangled(file, |t| flip_bits(t, a, b))?;
    }

    #[test]
    fn number_swapped_scenarios_fail_with_a_path_never_a_panic(
        (file, a, b) in (0usize..64, any::<u64>(), any::<u64>())
    ) {
        check_mangled(file, |t| swap_numbers(t, a, b))?;
    }
}
