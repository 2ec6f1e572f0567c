//! `banshee_tidy` CLI.
//!
//! ```text
//! cargo tidy                     # all checks, human-readable output
//! cargo tidy -- --only wall-clock    # one check
//! cargo tidy -- --json report.json
//! ```
//!
//! Exit codes: 0 clean, 1 findings, 2 usage/environment error.

use banshee_lint::diag::{CheckId, ALL_CHECKS};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
banshee_tidy — repo-native static analysis for the banshee workspace

USAGE:
    banshee_tidy [OPTIONS]

OPTIONS:
    --only <check>    Run only this check (repeatable). See --list.
    --json <path>     Also write a machine-readable JSON report ('-' for stdout).
    --root <path>     Workspace root (default: nearest [workspace] Cargo.toml).
    --list            List the available checks and exit.
    -h, --help        Show this help.
";

fn main() -> ExitCode {
    match run() {
        Ok(clean) => {
            if clean {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(msg) => {
            eprintln!("banshee_tidy: error: {msg}");
            ExitCode::from(2)
        }
    }
}

fn run() -> Result<bool, String> {
    let mut only: Vec<CheckId> = Vec::new();
    let mut json_path: Option<String> = None;
    let mut root: Option<PathBuf> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--only" => {
                let name = args.next().ok_or("--only needs a check name")?;
                let check = CheckId::from_name(&name).ok_or_else(|| {
                    format!("unknown check `{name}` — see --list for the catalogue")
                })?;
                if !only.contains(&check) {
                    only.push(check);
                }
            }
            "--json" => {
                json_path = Some(args.next().ok_or("--json needs a path (or '-')")?);
            }
            "--root" => {
                root = Some(PathBuf::from(
                    args.next().ok_or("--root needs a directory")?,
                ));
            }
            "--list" => {
                for &c in ALL_CHECKS {
                    println!("{:<14} {}", c.name(), c.describe());
                }
                return Ok(true);
            }
            "-h" | "--help" => {
                print!("{USAGE}");
                return Ok(true);
            }
            other => return Err(format!("unknown argument `{other}`\n\n{USAGE}")),
        }
    }

    let root = match root {
        Some(r) => r,
        None => {
            let cwd = std::env::current_dir().map_err(|e| e.to_string())?;
            banshee_lint::find_workspace_root(&cwd)
                .ok_or("no [workspace] Cargo.toml above the current directory; use --root")?
        }
    };

    let report =
        banshee_lint::run(&root, &only).map_err(|e| format!("scanning {}: {e}", root.display()))?;

    for d in &report.diagnostics {
        println!("{d}");
    }
    if let Some(path) = json_path {
        let json = report.to_json();
        if path == "-" {
            print!("{json}");
        } else {
            std::fs::write(&path, json).map_err(|e| format!("writing {path}: {e}"))?;
        }
    }

    let checks = report
        .checks_run
        .iter()
        .map(|c| c.name())
        .collect::<Vec<_>>()
        .join(", ");
    if report.is_clean() {
        eprintln!(
            "tidy: clean — {} files scanned, checks: {checks}",
            report.files_scanned
        );
    } else {
        eprintln!(
            "tidy: {} finding(s) across {} files, checks: {checks}",
            report.diagnostics.len(),
            report.files_scanned
        );
    }
    Ok(report.is_clean())
}
