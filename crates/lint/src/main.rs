#![forbid(unsafe_code)]
//! CLI for the in-tree static safety analyzer. Scans the workspace (or a
//! root given as the first argument), prints one diagnostic per finding
//! and exits non-zero if any rule fired — the tier-1.5 gate contract.

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let root = std::env::args()
        .nth(1)
        .map(PathBuf::from)
        .unwrap_or_else(dialga_lint::default_root);
    let cfg = dialga_lint::workspace_config();
    let (findings, files) = match dialga_lint::check_workspace(&root, &cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("dialga-lint: cannot scan {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    if findings.is_empty() {
        let ids: Vec<&str> = dialga_lint::Rule::ALL
            .iter()
            .filter_map(|r| r.id().split(' ').next())
            .collect();
        println!(
            "dialga-lint: {files} files scanned, clean (rules {})",
            ids.join(", ")
        );
        return ExitCode::SUCCESS;
    }
    for f in &findings {
        println!("{f}");
    }
    println!(
        "dialga-lint: {} finding(s) in {files} files — suppress a justified site with \
         `// lint:allow(<rule-key>): <why>`",
        findings.len()
    );
    ExitCode::FAILURE
}
