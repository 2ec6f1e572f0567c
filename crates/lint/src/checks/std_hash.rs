//! Determinism lint: no `std::collections::{HashMap,HashSet}` in the
//! non-test code of sim-critical crates.
//!
//! `std`'s hasher is randomly seeded per process, so iteration order — and
//! therefore anything that iterates a map while mutating simulation state
//! (PR 3's HMA migration bug) — differs between runs. Sim-critical code
//! must use `banshee_common::{FnvHashMap, FnvHashSet}` instead; the rare
//! legitimate exception (the Fnv definition site itself) carries a
//! `// tidy: allow(std-hash): <justification>` marker.

use super::{
    allow_marker, emit, is_sim_critical_src, path_prefix_before, word_occurrences, Marker, Tree,
};
use crate::diag::{CheckId, Diagnostic};

/// The forbidden std collection type names.
const BANNED: &[&str] = &["HashMap", "HashSet"];

pub fn check(tree: &Tree, diags: &mut Vec<Diagnostic>) {
    for file in &tree.files {
        if !is_sim_critical_src(&file.rel_path) {
            continue;
        }
        for &word in BANNED {
            for pos in word_occurrences(&file.code, word) {
                let prefix = path_prefix_before(&file.code, pos);
                if !(prefix.len() >= 2
                    && prefix[prefix.len() - 2] == "std"
                    && prefix[prefix.len() - 1] == "collections")
                {
                    continue;
                }
                let line = file.line_of_offset(pos);
                if file.is_test_line(line) {
                    continue;
                }
                match allow_marker(file, line, "std-hash") {
                    Marker::Allowed => {}
                    Marker::MissingJustification(mline) => emit(
                        diags,
                        CheckId::StdHash,
                        &file.rel_path,
                        mline,
                        format!(
                            "`tidy: allow(std-hash)` marker needs a justification: \
                             `// tidy: allow(std-hash): <why this map may be \
                             nondeterministically ordered>` (for `{word}` use on this line)"
                        ),
                    ),
                    Marker::Absent => emit(
                        diags,
                        CheckId::StdHash,
                        &file.rel_path,
                        line,
                        format!(
                            "`std::collections::{word}` in sim-critical non-test code: \
                             its iteration order is randomly seeded per process. Use \
                             `banshee_common::Fnv{word}` (deterministic), or justify with \
                             `// tidy: allow(std-hash): <why>`"
                        ),
                    ),
                }
            }
        }
    }
}
