//! `dialga` — erasure-coded file archives from the command line.
//!
//! ```text
//! dialga encode <file> [--out DIR] [--k N] [--m N] [--threads N]
//! dialga verify <manifest.dialga>
//! dialga repair <manifest.dialga>
//! dialga restore <manifest.dialga> [--out FILE]
//! ```
//!
//! `--threads N` splits the stripe over a pool of N executors.
//!
//! A flag without a value, a numeric flag whose value is not a number, an
//! unknown flag, a missing path or a second one prints the usage and exits
//! 2 before anything is written.

use dialga_repro::archive;
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  dialga encode <file> [--out DIR] [--k N] [--m N] [--threads N]\n  dialga verify <manifest.dialga>\n  dialga repair <manifest.dialga>\n  dialga restore <manifest.dialga> [--out FILE]"
    );
    ExitCode::from(2)
}

/// Removes `name` and its value from `args`. `Err` when the flag is
/// present without a value: last, or followed by another flag.
fn flag(args: &mut Vec<String>, name: &str) -> Result<Option<String>, ()> {
    let Some(pos) = args.iter().position(|a| a == name) else {
        return Ok(None);
    };
    match args.get(pos + 1) {
        Some(value) if !value.starts_with("--") => {
            let value = args.remove(pos + 1);
            args.remove(pos);
            Ok(Some(value))
        }
        _ => Err(()),
    }
}

/// A numeric flag: `default` when absent, `Err` when it has no value or
/// the value is not a number.
fn number(args: &mut Vec<String>, name: &str, default: usize) -> Result<usize, ()> {
    flag(args, name)?.map_or(Ok(default), |v| v.parse().map_err(drop))
}

/// The one path left once the known flags are removed: `None` when
/// nothing, more than one argument, or an unknown flag is left.
fn only_path(args: &[String]) -> Option<PathBuf> {
    match args {
        [path] if !path.starts_with("--") => Some(PathBuf::from(path)),
        _ => None,
    }
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        return usage();
    }
    let cmd = args.remove(0);
    let result = match cmd.as_str() {
        "encode" => {
            let (Ok(out), Ok(k), Ok(m), Ok(threads)) = (
                flag(&mut args, "--out"),
                number(&mut args, "--k", 8),
                number(&mut args, "--m", 2),
                number(&mut args, "--threads", 1),
            ) else {
                return usage();
            };
            let Some(file) = only_path(&args) else {
                return usage();
            };
            let out_dir = out.map(PathBuf::from).unwrap_or_else(|| {
                file.parent()
                    .map(PathBuf::from)
                    .unwrap_or_else(|| ".".into())
            });
            archive::encode_file(&file, &out_dir, k, m, threads).map(|p| {
                println!(
                    "encoded {} -> {} ({k} data + {m} parity shards)",
                    file.display(),
                    p.display(),
                );
            })
        }
        "verify" => {
            let Some(manifest) = only_path(&args) else {
                return usage();
            };
            match archive::verify(&manifest) {
                Ok(status) if status.healthy() => {
                    println!("healthy");
                    Ok(())
                }
                Ok(status) => {
                    println!("missing shards: {:?}", status.missing);
                    println!("corrupt shards: {:?}", status.corrupt);
                    if status.unlocalized {
                        println!("corruption detected but not localized by parity");
                    }
                    return ExitCode::FAILURE;
                }
                Err(e) => Err(e),
            }
        }
        "repair" => {
            let Some(manifest) = only_path(&args) else {
                return usage();
            };
            archive::repair(&manifest).map(|n| println!("rebuilt {n} shard(s)"))
        }
        "restore" => {
            let Ok(out) = flag(&mut args, "--out") else {
                return usage();
            };
            let Some(manifest) = only_path(&args) else {
                return usage();
            };
            archive::restore(&manifest, out.map(PathBuf::from).as_deref())
                .map(|p| println!("restored {}", p.display()))
        }
        _ => return usage(),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
