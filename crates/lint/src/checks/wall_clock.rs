//! Wall-clock lint: host time must never flow into simulated state.
//!
//! A `SimResult` must be a pure function of `SimConfig` + workload + seed;
//! one `Instant::now()` read into a decision makes runs non-reproducible
//! and poisons the result store. Wall-clock reads are confined to the
//! allowlisted measurement layers (the job engine's per-job timing and the
//! bench/runner crate); anywhere else needs a
//! `// tidy: allow(wall-clock): <justification>` marker — used exactly once
//! today, for perfbench's `clock()` in `perfbench/src/main.rs`. The
//! simulator crates and telemetry read no host time at all.

use super::{allow_marker, emit, word_occurrences, Marker, Tree};
use crate::diag::{CheckId, Diagnostic};
use crate::walk::is_test_path;

/// Files and subtrees where wall-clock reads are expected: the job engine
/// (per-job timing) and the whole bench crate (runners, benches, the
/// experiments binary).
const ALLOWLIST_PREFIXES: &[&str] = &["crates/bench/"];
const ALLOWLIST_FILES: &[&str] = &["crates/exec/src/pool.rs"];

fn allowlisted(rel_path: &str) -> bool {
    ALLOWLIST_FILES.contains(&rel_path)
        || ALLOWLIST_PREFIXES.iter().any(|p| rel_path.starts_with(p))
}

/// Find `Instant :: now` token sequences (whitespace-tolerant) and bare
/// `SystemTime` references.
fn wall_clock_uses(code: &str) -> Vec<(usize, &'static str)> {
    let mut out = Vec::new();
    for pos in word_occurrences(code, "Instant") {
        let rest = code[pos + "Instant".len()..].trim_start();
        if let Some(after) = rest.strip_prefix("::") {
            if after.trim_start().starts_with("now") {
                out.push((pos, "Instant::now"));
            }
        }
    }
    for pos in word_occurrences(code, "SystemTime") {
        out.push((pos, "SystemTime"));
    }
    out.sort_by_key(|&(pos, _)| pos);
    out
}

pub fn check(tree: &Tree, diags: &mut Vec<Diagnostic>) {
    for file in &tree.files {
        if is_test_path(&file.rel_path) || allowlisted(&file.rel_path) {
            continue;
        }
        for (pos, what) in wall_clock_uses(&file.code) {
            let line = file.line_of_offset(pos);
            if file.is_test_line(line) {
                continue;
            }
            match allow_marker(file, line, "wall-clock") {
                Marker::Allowed => {}
                Marker::MissingJustification(mline) => emit(
                    diags,
                    CheckId::WallClock,
                    &file.rel_path,
                    mline,
                    format!(
                        "`tidy: allow(wall-clock)` marker needs a justification: \
                         `// tidy: allow(wall-clock): <why host time cannot reach \
                         simulated state here>` (for `{what}` on this line)"
                    ),
                ),
                Marker::Absent => emit(
                    diags,
                    CheckId::WallClock,
                    &file.rel_path,
                    line,
                    format!(
                        "`{what}` outside the exec-pool/runner/bench allowlist: host \
                         time must never influence a SimResult. Move the read into an \
                         allowlisted measurement layer, or justify with \
                         `// tidy: allow(wall-clock): <why>`"
                    ),
                ),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_spaced_and_pathed_calls() {
        let uses = wall_clock_uses("let a = std::time::Instant::now(); let b = Instant :: now();");
        assert_eq!(uses.len(), 2);
        assert!(wall_clock_uses("use std::time::Instant;").is_empty());
        assert_eq!(wall_clock_uses("SystemTime::now()").len(), 1);
    }
}
