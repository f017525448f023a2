//! The `figures` binary's command line.

use std::path::PathBuf;
use std::process::Command;

/// `results/*.csv` is the record `--check` compares at each table's default
/// footprint, so `--csv` at another footprint (`--bytes N`, `--quick`)
/// would rewrite it into one the next check fails on. Both combinations
/// are refused with a usage error before anything is written.
#[test]
fn csv_refuses_a_footprint_other_than_the_default() {
    let dir: PathBuf = std::env::temp_dir().join(format!("figures-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let results = dir.join("results");
    std::fs::create_dir_all(&results).unwrap();
    for flags in [&["--bytes", "65536"][..], &["--quick"]] {
        let run = Command::new(env!("CARGO_BIN_EXE_figures"))
            .current_dir(&dir)
            .arg("--csv")
            .args(flags)
            .arg("ablation_distance")
            .output()
            .unwrap();
        assert_eq!(run.status.code(), Some(2), "{flags:?}");
        assert!(
            String::from_utf8_lossy(&run.stderr).contains("usage"),
            "{flags:?}"
        );
        assert_eq!(std::fs::read_dir(&results).unwrap().count(), 0, "{flags:?}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
