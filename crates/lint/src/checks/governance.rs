//! Model-governance coherence: the revision/format constants, the fixtures
//! that pin them, and the CI guard that enforces bumps must agree.
//!
//! Four invariants, all caught in-tree (a plain `cargo tidy`), not only in
//! CI:
//!
//! 1. **Section-label uniqueness** — within one function, every
//!    `Persist`-style `.section("label", ..)` call must use a distinct
//!    label. Duplicate labels make a framing mismatch undetectable: the
//!    reader would accept the wrong section's tag.
//! 2. **`MODEL_REVISION` coherence** — the committed key-material fixture
//!    must embed the compiled revision (`model-rev=N|…`), and the doc
//!    comment above the constant must have a history entry for `N.` so a
//!    bump always documents what changed.
//! 3. **`SNAPSHOT_FORMAT` coherence** — the doc comment above the constant
//!    must describe the current format (`Format N: …`), so a format bump
//!    without documentation fails.
//! 4. **CI guard wiring** — the workflow's fixture-guard must still
//!    reference `MODEL_REVISION` and both governed fixtures; deleting the
//!    guard (or a fixture path from it) is itself a tidy failure.

use super::{emit, word_occurrences, Tree};
use crate::diag::{CheckId, Diagnostic};
use crate::lexer::SourceFile;
use crate::walk::is_test_path;

/// Where the governed constants live.
const CONFIG_PATH: &str = "crates/sim/src/config.rs";
const PERSIST_PATH: &str = "crates/common/src/persist.rs";
/// The fixture pinning the key material, and the results fixture the CI
/// guard couples to revision bumps.
const KEY_FIXTURE: &str = "crates/sim/tests/fixtures/cache_key_material.txt";
const GOLDEN_FIXTURE: &str = "crates/bench/tests/fixtures/golden_quick.json";
/// The workflow holding the fixture-guard job.
const CI_WORKFLOW: &str = ".github/workflows/ci.yml";

pub fn check(tree: &Tree, diags: &mut Vec<Diagnostic>) {
    section_labels_unique(tree, diags);
    if let Some(config) = tree.file(CONFIG_PATH) {
        model_revision_coherent(tree, config, diags);
        ci_guard_wired(tree, diags);
    }
    if let Some(persist) = tree.file(PERSIST_PATH) {
        snapshot_format_documented(persist, diags);
    }
}

/// Invariant 1: no duplicate `.section("x")` labels within one function.
fn section_labels_unique(tree: &Tree, diags: &mut Vec<Diagnostic>) {
    for file in &tree.files {
        if is_test_path(&file.rel_path) {
            continue;
        }
        let fns = fn_spans(&file.code);
        // (enclosing fn span, label, line) per call site.
        let mut calls: Vec<(usize, String, usize)> = Vec::new();
        for lit in &file.strings {
            let line = lit.line;
            if file.is_test_line(line) {
                continue;
            }
            let before = file.code[..lit.offset].trim_end();
            if !(before.ends_with("section(")
                && before[..before.len() - "section(".len()]
                    .trim_end()
                    .ends_with('.'))
            {
                continue;
            }
            let span = innermost_span(&fns, lit.offset);
            calls.push((span, lit.text.clone(), line));
        }
        for (i, (span, label, line)) in calls.iter().enumerate() {
            if calls[..i].iter().any(|(s, l, _)| s == span && l == label) {
                emit(
                    diags,
                    CheckId::Governance,
                    &file.rel_path,
                    *line,
                    format!(
                        "duplicate snapshot section label \"{label}\" within one \
                         function: section tags must be unique per save/restore \
                         path or a framing mismatch goes undetected"
                    ),
                );
            }
        }
    }
}

/// Invariants 2 + (half of) 4: `MODEL_REVISION`, its fixture and history.
fn model_revision_coherent(tree: &Tree, config: &SourceFile, diags: &mut Vec<Diagnostic>) {
    let Some((revision, line)) = parse_const(config, "MODEL_REVISION") else {
        emit(
            diags,
            CheckId::Governance,
            CONFIG_PATH,
            1,
            "`MODEL_REVISION: u32 = <n>` not found — the governance check \
             needs the literal constant to pin fixtures against"
                .to_string(),
        );
        return;
    };
    if !history_entry_above(config, line, &format!("{revision}.")) {
        emit(
            diags,
            CheckId::Governance,
            CONFIG_PATH,
            line,
            format!(
                "MODEL_REVISION is {revision} but the revision-history doc \
                 comment above it has no `{revision}.` entry — document what \
                 behaviour changed in this revision"
            ),
        );
    }
    match tree.read_text(KEY_FIXTURE) {
        None => emit(
            diags,
            CheckId::Governance,
            KEY_FIXTURE,
            0,
            "key-material fixture missing — regenerate with \
             BANSHEE_UPDATE_KEY_SNAPSHOT=1 cargo test -p banshee_sim --test \
             key_material"
                .to_string(),
        ),
        Some(fixture) => {
            let want = format!("model-rev={revision}|");
            if !fixture.starts_with(&want) {
                let found = fixture.split('|').next().unwrap_or("").trim();
                emit(
                    diags,
                    CheckId::Governance,
                    KEY_FIXTURE,
                    1,
                    format!(
                        "fixture pins `{found}` but the compiled MODEL_REVISION \
                         is {revision} — a revision bump must regenerate the \
                         fixture (BANSHEE_UPDATE_KEY_SNAPSHOT=1), and a fixture \
                         change must come with the bump"
                    ),
                );
            }
        }
    }
}

/// Invariant 3: the snapshot format constant documents its current format.
fn snapshot_format_documented(persist: &SourceFile, diags: &mut Vec<Diagnostic>) {
    let Some((format, line)) = parse_const(persist, "SNAPSHOT_FORMAT") else {
        emit(
            diags,
            CheckId::Governance,
            PERSIST_PATH,
            1,
            "`SNAPSHOT_FORMAT: u32 = <n>` not found — the governance check \
             needs the literal constant"
                .to_string(),
        );
        return;
    };
    if !history_entry_above(persist, line, &format!("Format {format}:")) {
        emit(
            diags,
            CheckId::Governance,
            PERSIST_PATH,
            line,
            format!(
                "SNAPSHOT_FORMAT is {format} but the doc comment above it has \
                 no `Format {format}:` entry — a format bump must document \
                 what changed in the encoding"
            ),
        );
    }
}

/// Invariant 4: the CI fixture-guard still references what it must guard.
fn ci_guard_wired(tree: &Tree, diags: &mut Vec<Diagnostic>) {
    let Some(workflow) = tree.read_text(CI_WORKFLOW) else {
        emit(
            diags,
            CheckId::Governance,
            CI_WORKFLOW,
            0,
            "CI workflow missing — the model-revision fixture-guard job must \
             exist (it rejects fixture diffs without a MODEL_REVISION bump)"
                .to_string(),
        );
        return;
    };
    for needed in ["MODEL_REVISION", KEY_FIXTURE, GOLDEN_FIXTURE] {
        if !workflow.contains(needed) {
            emit(
                diags,
                CheckId::Governance,
                CI_WORKFLOW,
                0,
                format!(
                    "the CI workflow no longer references `{needed}` — the \
                     model-revision fixture-guard must keep watching both \
                     governed fixtures and the MODEL_REVISION constant"
                ),
            );
        }
    }
}

/// Find `NAME: u32 = <n>` in non-test code; returns (value, 1-based line).
fn parse_const(file: &SourceFile, name: &str) -> Option<(u32, usize)> {
    for pos in word_occurrences(&file.code, name) {
        let line = file.line_of_offset(pos);
        if file.is_test_line(line) {
            continue;
        }
        let rest = file.code[pos + name.len()..].trim_start();
        let Some(rest) = rest.strip_prefix(':') else {
            continue;
        };
        let rest = rest.trim_start();
        let Some(rest) = rest.strip_prefix("u32") else {
            continue;
        };
        let rest = rest.trim_start();
        let Some(rest) = rest.strip_prefix('=') else {
            continue;
        };
        let digits: String = rest
            .trim_start()
            .chars()
            .take_while(|c| c.is_ascii_digit() || *c == '_')
            .collect();
        if let Ok(v) = digits.replace('_', "").parse() {
            return Some((v, line));
        }
    }
    None
}

/// Does the contiguous comment block directly above `line` (attribute lines
/// allowed in between) contain `entry`?
fn history_entry_above(file: &SourceFile, line: usize, entry: &str) -> bool {
    let mut l = line;
    while l > 1 {
        l -= 1;
        if !file.line_is_passive(l) {
            break;
        }
        if file.comment_text(l).contains(entry) {
            return true;
        }
        if file.code_line(l).trim().is_empty() && file.comment_text(l).is_empty() {
            break; // blank line ends the block
        }
    }
    false
}

/// Byte spans of every `fn` body `{ .. }` in the code view.
fn fn_spans(code: &str) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    for pos in word_occurrences(code, "fn") {
        // Scan forward for the body-opening brace; a `;` at paren depth 0
        // first means a bodiless declaration (trait method signature).
        let mut paren = 0i32;
        let mut open = None;
        for (off, c) in code[pos..].char_indices() {
            match c {
                '(' | '[' => paren += 1,
                ')' | ']' => paren -= 1,
                '{' => {
                    open = Some(pos + off);
                    break;
                }
                ';' if paren == 0 => break,
                _ => {}
            }
        }
        let Some(open) = open else { continue };
        let mut depth = 0usize;
        for (off, c) in code[open..].char_indices() {
            match c {
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    if depth == 0 {
                        spans.push((open, open + off));
                        break;
                    }
                }
                _ => {}
            }
        }
    }
    spans
}

/// The tightest span containing `offset` (0 when none — file scope).
fn innermost_span(spans: &[(usize, usize)], offset: usize) -> usize {
    spans
        .iter()
        .filter(|(a, b)| *a < offset && offset < *b)
        .min_by_key(|(a, b)| b - a)
        .map(|(a, _)| *a)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn const_parsing() {
        let f = SourceFile::parse("c.rs", "pub const MODEL_REVISION: u32 = 2;\n");
        assert_eq!(parse_const(&f, "MODEL_REVISION"), Some((2, 1)));
        let g = SourceFile::parse("c.rs", "pub const SNAPSHOT_FORMAT: u32 = 1_0;\n");
        assert_eq!(parse_const(&g, "SNAPSHOT_FORMAT"), Some((10, 1)));
    }

    #[test]
    fn history_lookup() {
        let f = SourceFile::parse(
            "c.rs",
            "/// Revision history:\n/// 1. initial;\n/// 2. queues.\npub const MODEL_REVISION: u32 = 2;\n",
        );
        let (_, line) = parse_const(&f, "MODEL_REVISION").unwrap();
        assert!(history_entry_above(&f, line, "2."));
        assert!(!history_entry_above(&f, line, "3."));
    }

    #[test]
    fn fn_span_extraction() {
        let code = "fn a() { x(); } trait T { fn b(); } fn c() { fn d() {} }";
        let spans = fn_spans(code);
        assert_eq!(spans.len(), 3); // a, c, d (b is bodiless)
    }
}
