//! Key-material coverage: every `SimConfig` field either flows into the
//! result-store key or is an explicitly marked execution knob.
//!
//! The store key is `cache_key_material()` = `MODEL_REVISION` + the manual
//! `Debug` rendering of `SimConfig`, so a field is key material exactly
//! when the `Debug` impl has a `.field("<name>", ..)` call for it. Fields
//! that deliberately do *not* key the store — knobs that change how a
//! result is computed but never what it is (thread counts, telemetry sinks)
//! — must say so with a `// tidy: exec-knob` comment on or above the field.
//! This turns the convention "execution knobs are never key material" into
//! a machine-checked property: adding a field without deciding its
//! key-material treatment fails tidy, deleting a `.field(...)` line without
//! marking the field fails tidy, and a typoed `.field` name fails tidy.

use super::{emit, Tree};
use crate::diag::{CheckId, Diagnostic};
use crate::lexer::{is_ident_char, SourceFile};

/// The file that defines `SimConfig`.
pub const CONFIG_PATH: &str = "crates/sim/src/config.rs";

pub fn check(tree: &Tree, diags: &mut Vec<Diagnostic>) {
    let Some(file) = tree.file(CONFIG_PATH) else {
        // Nothing to do on trees without a simulator config (e.g. fixture
        // trees for other checks). The governance check pins the real
        // tree's layout.
        return;
    };

    let Some(struct_span) = brace_span_after(file, "struct SimConfig") else {
        emit(
            diags,
            CheckId::KeyMaterial,
            CONFIG_PATH,
            1,
            "could not find `struct SimConfig { .. }` — if it moved, update \
             the tidy key-material check"
                .to_string(),
        );
        return;
    };
    let fields = struct_fields(file, struct_span);

    let Some(debug_span) = brace_span_after(file, "Debug for SimConfig") else {
        emit(
            diags,
            CheckId::KeyMaterial,
            CONFIG_PATH,
            file.line_of_offset(struct_span.0),
            "SimConfig has no manual `impl Debug` — the Debug rendering is \
             result-store key material and must stay hand-rolled (see \
             cache_key_material)"
                .to_string(),
        );
        return;
    };
    let keyed = debug_field_names(file, debug_span);

    for f in &fields {
        let in_debug = keyed.iter().any(|(name, _)| name == &f.name);
        match (in_debug, f.exec_knob) {
            (true, false) => {} // key material, as most fields should be
            (false, true) => {} // marked execution knob
            (false, false) => emit(
                diags,
                CheckId::KeyMaterial,
                CONFIG_PATH,
                f.line,
                format!(
                    "SimConfig field `{}` neither flows into key material (no \
                     `.field(\"{}\", ..)` in the manual Debug impl) nor carries \
                     `// tidy: exec-knob` — decide: key it, or mark it as an \
                     execution knob that cannot change results",
                    f.name, f.name
                ),
            ),
            (true, true) => emit(
                diags,
                CheckId::KeyMaterial,
                CONFIG_PATH,
                f.line,
                format!(
                    "SimConfig field `{}` is marked `tidy: exec-knob` but still \
                     flows into key material via the Debug impl — an execution \
                     knob must not re-key the result store; drop the marker or \
                     the `.field(..)` call",
                    f.name
                ),
            ),
        }
    }
    for (name, line) in &keyed {
        if !fields.iter().any(|f| &f.name == name) {
            emit(
                diags,
                CheckId::KeyMaterial,
                CONFIG_PATH,
                *line,
                format!(
                    "Debug impl keys `{name}` which is not a SimConfig field — \
                     typo, or a removed field still being rendered"
                ),
            );
        }
    }

    // The coverage argument assumes the key-material functions still exist
    // and still fold in the model revision.
    for func in ["cache_key_material", "warmup_key_material"] {
        if !file.code.contains(&format!("fn {func}")) {
            emit(
                diags,
                CheckId::KeyMaterial,
                CONFIG_PATH,
                1,
                format!(
                    "`SimConfig::{func}` not found — the key-material coverage \
                     check assumes the Debug-based keying scheme; update the \
                     tidy check if the scheme changed"
                ),
            );
        }
    }
    if !file.code.contains("MODEL_REVISION") {
        emit(
            diags,
            CheckId::KeyMaterial,
            CONFIG_PATH,
            1,
            "`MODEL_REVISION` is no longer referenced by the config — key \
             material must fold in the model revision so behaviour changes \
             invalidate persisted results"
                .to_string(),
        );
    }
}

/// One parsed `SimConfig` field.
struct Field {
    name: String,
    line: usize,
    exec_knob: bool,
}

/// Byte span (open `{` offset, close `}` offset) of the brace block that
/// follows the first occurrence of `pattern` in non-test code.
fn brace_span_after(file: &SourceFile, pattern: &str) -> Option<(usize, usize)> {
    let mut search = 0usize;
    loop {
        let pos = search + file.code[search..].find(pattern)?;
        search = pos + pattern.len();
        if file.is_test_line(file.line_of_offset(pos)) {
            continue;
        }
        let open = pos + file.code[pos..].find('{')?;
        let mut depth = 0usize;
        for (off, c) in file.code[open..].char_indices() {
            match c {
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    if depth == 0 {
                        return Some((open, open + off));
                    }
                }
                _ => {}
            }
        }
        return None;
    }
}

/// Parse the field declarations inside the struct's brace span: lines of
/// the form `pub name: Type,` at nesting depth 1.
fn struct_fields(file: &SourceFile, span: (usize, usize)) -> Vec<Field> {
    let first = file.line_of_offset(span.0) + 1;
    let last = file.line_of_offset(span.1);
    let mut out = Vec::new();
    for line in first..last {
        let code = file.code_line(line).trim();
        let rest = code.strip_prefix("pub ").unwrap_or(code);
        let Some(colon) = rest.find(':') else {
            continue;
        };
        // `::` is a path, not a field declaration.
        if rest[colon..].starts_with("::") {
            continue;
        }
        let name = rest[..colon].trim();
        if name.is_empty() || !name.chars().all(is_ident_char) {
            continue;
        }
        out.push(Field {
            name: name.to_string(),
            line,
            exec_knob: field_has_exec_knob_marker(file, line),
        });
    }
    out
}

/// `tidy: exec-knob` on the field line or in the contiguous comment /
/// attribute block directly above it.
fn field_has_exec_knob_marker(file: &SourceFile, line: usize) -> bool {
    if file.comment_text(line).contains("tidy: exec-knob") {
        return true;
    }
    let mut l = line;
    while l > 1 {
        l -= 1;
        if !file.line_is_passive(l)
            || file.code_line(l).trim().is_empty() && file.comment_text(l).is_empty()
        {
            break;
        }
        if file.comment_text(l).contains("tidy: exec-knob") {
            return true;
        }
    }
    false
}

/// `.field("name", ..)` call sites inside the Debug impl's span, using the
/// extracted string-literal table (the code view has strings blanked).
fn debug_field_names(file: &SourceFile, span: (usize, usize)) -> Vec<(String, usize)> {
    let mut out = Vec::new();
    for lit in &file.strings {
        if lit.offset <= span.0 || lit.offset >= span.1 {
            continue;
        }
        // The literal must be the first argument of a `.field(` call:
        // walking back over whitespace must land on `field(` preceded
        // by `.`.
        let before = file.code[..lit.offset].trim_end();
        if before.ends_with("field(")
            && before[..before.len() - "field(".len()]
                .trim_end()
                .ends_with('.')
        {
            out.push((lit.text.clone(), lit.line));
        }
    }
    out
}
