//! `figures [NAME…] [--csv | --check] [--bytes N] [--quick]` — regenerate
//! the figure tables (see `dialga_bench::figures`). Run from the
//! repository root; no names means every table.
//!
//! * default: print the named tables;
//! * `--csv`: also write each table to `results/<name>.csv`;
//! * `--check`: regenerate the tables at their default size, compare each
//!   with its committed `results/<name>.csv` byte for byte, print the rows
//!   that differ and exit 1 if any does; each table's verdict and host
//!   milliseconds go to stderr as it finishes;
//! * `--bytes N` sets the per-thread footprint, `--quick` caps it at 1 MiB
//!   (neither combines with `--csv` or `--check`: the record is at the
//!   default size, so a CSV written at another would fail the next check).

use dialga_bench::table::{csv, render};
use dialga_bench::{Figure, FIGURES};
use dialga_memsim::MachineConfig;
use std::process::ExitCode;
use std::time::Instant;

#[derive(PartialEq)]
enum Mode {
    Print,
    Csv,
    Check,
}

fn usage(why: &str) -> ExitCode {
    let names: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
    eprintln!("figures: {why}");
    eprintln!("usage: figures [NAME…] [--csv | --check] [--bytes N] [--quick]");
    eprintln!("tables: {}", names.join(" "));
    ExitCode::from(2)
}

fn csv_path(fig: &Figure) -> String {
    format!("results/{}.csv", fig.name)
}

/// Compare a fresh run with the committed CSV; prints what differs, and
/// the table's host time to stderr.
fn matches_record(fig: &Figure) -> bool {
    let path = csv_path(fig);
    let started = Instant::now();
    let fresh = csv(fig.header, &fig.rows(fig.default_bytes));
    let ms = started.elapsed().as_millis();
    let committed = match std::fs::read_to_string(&path) {
        Ok(text) => text,
        Err(e) => {
            println!("{}: cannot read {path}: {e}", fig.name);
            return false;
        }
    };
    if committed == fresh {
        eprintln!("{}: OK [{ms} ms]", fig.name);
        return true;
    }
    eprintln!("{}: differs [{ms} ms]", fig.name);
    println!("{}: {path} differs from a fresh run", fig.name);
    let (old, new): (Vec<&str>, Vec<&str>) = (committed.lines().collect(), fresh.lines().collect());
    for i in 0..old.len().max(new.len()) {
        let (o, n) = (old.get(i), new.get(i));
        if o != n {
            let which = if i == 0 {
                "header".into()
            } else {
                format!("row {i}")
            };
            println!("  {which}: committed   {}", o.unwrap_or(&"<absent>"));
            println!("  {which}: regenerated {}", n.unwrap_or(&"<absent>"));
        }
    }
    false
}

fn main() -> ExitCode {
    let mut mode = Mode::Print;
    let mut bytes: Option<u64> = None;
    let mut quick = false;
    let mut selected: Vec<&Figure> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--csv" if mode == Mode::Print => mode = Mode::Csv,
            "--check" if mode == Mode::Print => mode = Mode::Check,
            "--csv" | "--check" => return usage("--csv and --check exclude each other"),
            "--quick" => quick = true,
            "--bytes" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => bytes = Some(n),
                None => return usage("--bytes needs a number"),
            },
            name => match FIGURES.iter().find(|f| f.name == name) {
                Some(fig) => selected.push(fig),
                None => return usage(&format!("unknown table or flag `{name}`")),
            },
        }
    }
    if selected.is_empty() {
        selected = FIGURES.iter().collect();
    }

    if mode != Mode::Print && (bytes.is_some() || quick) {
        return usage("the record is at the default size; --csv/--check take no --bytes/--quick");
    }
    if mode == Mode::Check {
        let drifted = selected.iter().filter(|f| !matches_record(f)).count();
        if drifted > 0 {
            println!(
                "check FAILED: {drifted} of {} tables differ from results/",
                selected.len()
            );
            return ExitCode::FAILURE;
        }
        println!("check OK: {} tables match results/", selected.len());
        return ExitCode::SUCCESS;
    }

    println!("testbed: {}", MachineConfig::pm().digest());
    for fig in selected {
        let cap = if quick { 1 << 20 } else { u64::MAX };
        let footprint = bytes.unwrap_or(fig.default_bytes).min(cap);
        let started = Instant::now();
        let rows = fig.rows(footprint);
        println!("{}", render(fig.name, fig.header, &rows));
        eprintln!("[{}: {:.1} s]", fig.name, started.elapsed().as_secs_f64());
        if mode == Mode::Csv {
            if let Err(e) = std::fs::write(csv_path(fig), csv(fig.header, &rows)) {
                eprintln!("figures: cannot write {}: {e}", csv_path(fig));
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
