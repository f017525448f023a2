//! Command line of the benchmark. The driver runs
//! `<command> --workload <name> --seed <n> --seconds <s> --trace <0|1>`;
//! the last line of standard output is the result object.

use dialga_benchmark::describe::{benchmark_json, describe};
use dialga_benchmark::host;
use dialga_benchmark::run::{run_workload, RunArgs};
use dialga_benchmark::selfcheck::selfcheck;
use dialga_benchmark::spec::{self, Metric, END_TO_END, PER_LAYER, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str =
    "usage: dialga-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
       dialga-benchmark --all [--seed N] [--seconds S] [--trace 0|1]
       dialga-benchmark --selfcheck [--seed N] [--seconds S]
       dialga-benchmark --describe [--json]";

struct Cli {
    workload: Option<String>,
    all: bool,
    selfcheck: bool,
    describe: bool,
    json: bool,
    run: RunArgs,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        all: false,
        selfcheck: false,
        describe: false,
        json: false,
        run: RunArgs {
            seed: 1,
            seconds: f64::from(spec::RUN_SECONDS),
            trace: false,
            out_dir: PathBuf::from("benchmark/out"),
        },
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => cli.workload = Some(value()?.clone()),
            "--seed" => cli.run.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
                cli.run.seconds = s;
            }
            "--trace" => {
                cli.run.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--out" => cli.run.out_dir = PathBuf::from(value()?),
            "--all" => cli.all = true,
            "--selfcheck" => cli.selfcheck = true,
            "--describe" => cli.describe = true,
            "--json" => cli.json = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(cli)
}

/// Re-execute this program under `taskset -c <cpu>`, so that every thread
/// of the run, the system under test's included, shares one CPU (see
/// `host::PINNED_ENV`). Returns only when that is impossible; the run then
/// goes on unpinned and says so in its fingerprint.
fn pin_to_one_cpu(args: &[String]) {
    use std::os::unix::process::CommandExt;
    if std::env::var_os(host::PINNED_ENV).is_some() {
        return;
    }
    let (Some(cpu), Ok(exe)) = (host::last_allowed_cpu(), std::env::current_exe()) else {
        return;
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut cmd = std::process::Command::new("taskset");
    cmd.arg("-c")
        .arg(cpu.to_string())
        .arg(exe)
        .args(args)
        .env(host::PINNED_ENV, format!("cpu{cpu} of {nproc}"));
    let err = cmd.exec();
    eprintln!("dialga-benchmark: cannot pin to CPU {cpu} ({err}); running unpinned");
}

fn real_main() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = parse(&args).map_err(|e| format!("{e}\n{USAGE}"))?;
    if cli.describe {
        print!(
            "{}",
            if cli.json {
                benchmark_json()
            } else {
                describe()
            }
        );
        return Ok(true);
    }
    pin_to_one_cpu(&args);
    if cli.selfcheck {
        let (text, pass) = selfcheck(&cli.run, |line| eprintln!("{line}"))?;
        print!("{text}");
        return Ok(pass);
    }
    let names: Vec<&str> = if cli.all {
        WORKLOADS.iter().map(|w| w.name).collect()
    } else {
        vec![cli.workload.as_deref().ok_or(USAGE)?]
    };
    let table: &[Metric] = if cli.run.trace {
        &PER_LAYER
    } else {
        &END_TO_END
    };
    let mut all_correct = true;
    for name in names {
        let w = spec::workload(name).ok_or_else(|| {
            let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            format!("unknown workload {name}; known: {}", known.join(", "))
        })?;
        let out = run_workload(w, &cli.run)?;
        print!("{}", out.text);
        println!("{}", out.json_line(table));
        all_correct &= out.correct();
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        // A run whose outputs were wrong still printed its result line
        // (with "correct": false); the exit code says so too.
        Ok(false) => ExitCode::from(2),
        Err(e) => {
            eprintln!("dialga-benchmark: {e}");
            ExitCode::from(1)
        }
    }
}
