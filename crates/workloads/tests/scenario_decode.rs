//! Property tests for the scenario decoder: mangled copies of every shipped
//! scenario file (truncations, bit flips, numbers swapped for strings,
//! negatives or out-of-range values) must fail with a typed error, never a
//! panic, and every error on input that is still valid JSON must name the
//! offending `scenario.`-rooted JSON path.

use banshee_workloads::scenario::ScenarioSpec;
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

/// Byte spans of the number literals outside JSON strings.
fn number_spans(text: &str) -> Vec<(usize, usize)> {
    let bytes = text.as_bytes();
    let mut spans = Vec::new();
    let (mut i, mut in_string) = (0, false);
    while i < bytes.len() {
        let b = bytes[i];
        if in_string {
            match b {
                b'\\' => i += 1,
                b'"' => in_string = false,
                _ => {}
            }
            i += 1;
        } else if b == b'"' {
            in_string = true;
            i += 1;
        } else if b == b'-' || b.is_ascii_digit() {
            let start = i;
            i += 1;
            while i < bytes.len() && (bytes[i].is_ascii_digit() || b".eE+-".contains(&bytes[i])) {
                i += 1;
            }
            spans.push((start, i));
        } else {
            i += 1;
        }
    }
    spans
}

/// Replace one number literal with a string, its negation or a value no
/// integer or float field can hold.
fn swap_number(text: &str, pick: u64, variant: u64) -> String {
    let spans = number_spans(text);
    if spans.is_empty() {
        return text.to_string();
    }
    let (start, end) = spans[(pick % spans.len() as u64) as usize];
    let n = &text[start..end];
    let replacement = match variant % 6 {
        0 => format!("\"{n}\""),
        1 => match n.strip_prefix('-') {
            Some(positive) => positive.to_string(),
            None => format!("-{n}"),
        },
        2 => "18446744073709551616".to_string(),
        3 => "-9223372036854775809".to_string(),
        4 => "1e999".to_string(),
        _ => format!("{n}.5"),
    };
    format!("{}{replacement}{}", &text[..start], &text[end..])
}

/// Flip `1 + a % 4` bits at positions drawn from `b`.
fn flip_bits(text: &str, a: u64, mut b: u64) -> String {
    let mut bytes = text.as_bytes().to_vec();
    for _ in 0..=a % 4 {
        let pos = (b % bytes.len() as u64) as usize;
        bytes[pos] ^= 1 << ((b >> 32) % 8);
        b = b.rotate_left(17).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ a;
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

fn truncate(text: &str, a: u64) -> String {
    let mut cut = (a % (text.len() as u64 + 1)) as usize;
    while !text.is_char_boundary(cut) {
        cut -= 1;
    }
    text[..cut].to_string()
}

/// One to three swaps, so a later field sees a bad value even when an
/// earlier one happens to stay valid.
fn swap_numbers(text: &str, a: u64, b: u64) -> String {
    let mut out = text.to_string();
    for i in 0..=(a % 3) {
        out = swap_number(&out, b.wrapping_add(i.wrapping_mul(a | 1)), b >> (8 * i));
    }
    out
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
