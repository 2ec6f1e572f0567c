//! Diagnostics and the machine-readable JSON report.

use std::fmt;

/// Identifier of one tidy check. `--only` takes these names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum CheckId {
    /// `std::collections::{HashMap,HashSet}` in sim-critical crates.
    StdHash,
    /// `Instant::now` / `SystemTime` outside the exec-pool/runner/bench
    /// allowlist.
    WallClock,
    /// Revision/format constants, fixtures and the CI guard agree.
    Governance,
}

/// Every check, in the order they run and report.
pub const ALL_CHECKS: &[CheckId] = &[CheckId::StdHash, CheckId::WallClock, CheckId::Governance];

impl CheckId {
    /// The check's CLI / report name.
    pub fn name(self) -> &'static str {
        match self {
            CheckId::StdHash => "std-hash",
            CheckId::WallClock => "wall-clock",
            CheckId::Governance => "governance",
        }
    }

    /// Parse a CLI name back into a check.
    pub fn from_name(name: &str) -> Option<CheckId> {
        ALL_CHECKS.iter().copied().find(|c| c.name() == name)
    }

    /// One-line description for `--list`.
    pub fn describe(self) -> &'static str {
        match self {
            CheckId::StdHash => {
                "determinism: no std HashMap/HashSet in sim-critical non-test code \
                 (use FnvHashMap/FnvHashSet, or `// tidy: allow(std-hash): <why>`)"
            }
            CheckId::WallClock => {
                "no Instant::now/SystemTime outside exec-pool/runner/bench \
                 (or `// tidy: allow(wall-clock): <why>`)"
            }
            CheckId::Governance => {
                "MODEL_REVISION/SNAPSHOT_FORMAT documented and fixture-guarded; \
                 Persist section labels unique per function"
            }
        }
    }
}

impl fmt::Display for CheckId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One finding: a file:line plus what is wrong and how to fix it.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Which check fired.
    pub check: CheckId,
    /// Workspace-relative `/`-separated path.
    pub path: String,
    /// 1-based line number (0 for whole-file findings).
    pub line: usize,
    /// Human-readable description with the expected fix.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.check, self.message
        )
    }
}

/// The result of one tidy run.
#[derive(Debug)]
pub struct Report {
    /// Checks that ran, in run order.
    pub checks_run: Vec<CheckId>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Findings sorted by (path, line, check).
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// True when no check fired.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Serialize the report as JSON (std-only, hence hand-rolled).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"checks_run\": [");
        for (i, c) in self.checks_run.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&json_string(c.name()));
        }
        out.push_str("],\n");
        out.push_str(&format!("  \"files_scanned\": {},\n", self.files_scanned));
        out.push_str(&format!(
            "  \"diagnostic_count\": {},\n",
            self.diagnostics.len()
        ));
        out.push_str("  \"diagnostics\": [");
        for (i, d) in self.diagnostics.iter().enumerate() {
            out.push_str(if i > 0 { ",\n    " } else { "\n    " });
            out.push_str(&format!(
                "{{\"check\": {}, \"path\": {}, \"line\": {}, \"message\": {}}}",
                json_string(d.check.name()),
                json_string(&d.path),
                d.line,
                json_string(&d.message)
            ));
        }
        if !self.diagnostics.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }
}

/// Escape a string for JSON output.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for &c in ALL_CHECKS {
            assert_eq!(CheckId::from_name(c.name()), Some(c));
        }
        assert_eq!(CheckId::from_name("bogus"), None);
    }

    #[test]
    fn json_report_escapes() {
        let report = Report {
            checks_run: vec![CheckId::StdHash],
            files_scanned: 3,
            diagnostics: vec![Diagnostic {
                check: CheckId::StdHash,
                path: "crates/x/src/lib.rs".into(),
                line: 7,
                message: "say \"no\"\n".into(),
            }],
        };
        let json = report.to_json();
        assert!(json.contains("\"files_scanned\": 3"));
        assert!(json.contains("\\\"no\\\"\\n"));
        assert!(json.contains("\"line\": 7"));
    }
}
