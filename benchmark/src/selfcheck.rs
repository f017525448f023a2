//! `--selfcheck`: do two sets of runs of the same code agree within the
//! benchmark's own bounds? And does anything depend on the seed?

use crate::run::{run_workload, RunArgs, RunOutput};
use crate::spec::{Better, END_TO_END, WORKLOADS};
use std::fmt::Write as _;

/// By what share of `first` is `second` worse? Negative when better.
pub fn worsening(first: f64, second: f64, better: Better) -> f64 {
    match better {
        Better::Lower => (second - first) / first,
        Better::Higher => (first - second) / first,
    }
}

fn one_set(args: &RunArgs, log: &mut impl FnMut(&str)) -> Result<Vec<RunOutput>, String> {
    WORKLOADS
        .iter()
        .map(|w| {
            log(&format!("  running {} (seed {}) ...", w.name, args.seed));
            run_workload(w, args)
        })
        .collect()
}

/// Run every workload twice with `args.seed` and once with another seed.
/// Returns the report and whether every pair agreed within its bound, in
/// either direction, with no failed operation.
pub fn selfcheck(args: &RunArgs, mut log: impl FnMut(&str)) -> Result<(String, bool), String> {
    let first = one_set(args, &mut log)?;
    let second = one_set(args, &mut log)?;
    let other_seed = RunArgs {
        seed: args.seed.wrapping_mul(0x9E37_79B9).wrapping_add(17),
        ..args.clone()
    };
    let third = one_set(&other_seed, &mut log)?;

    let mut text = String::new();
    let mut pass = true;
    let _ = writeln!(
        text,
        "{:<12} {:<28} {:>14} {:>14} {:>8} {:>6}  verdict   (seed {}: value, diff vs set 1)",
        "workload", "metric", "set 1", "set 2", "diff", "bound", other_seed.seed
    );
    for (i, w) in WORKLOADS.iter().enumerate() {
        for m in &END_TO_END {
            let (a, b, c) = (
                first[i].metrics[m.name],
                second[i].metrics[m.name],
                third[i].metrics[m.name],
            );
            let bound = m.bound.unwrap_or(0.0);
            let diff = worsening(a, b, m.better);
            let ok = diff.abs() <= bound;
            pass &= ok;
            let _ = writeln!(
                text,
                "{:<12} {:<28} {:>14.4} {:>14.4} {:>+7.2}% {:>5.0}%  {}   ({:.4}, {:+.2}%)",
                w.name,
                m.name,
                a,
                b,
                diff * 100.0,
                bound * 100.0,
                if ok { "agree " } else { "DIFFER" },
                c,
                worsening(a, c, m.better) * 100.0
            );
        }
        let failed = first[i].failed + second[i].failed + third[i].failed;
        let attempted = first[i].attempted + second[i].attempted + third[i].attempted;
        pass &= failed == 0;
        let _ = writeln!(
            text,
            "{:<12} attempted {attempted}  failed {failed}",
            w.name
        );
    }
    let _ = writeln!(text, "selfcheck: {}", if pass { "PASS" } else { "FAIL" });
    Ok((text, pass))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_follows_the_direction() {
        assert!((worsening(100.0, 110.0, Better::Lower) - 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 110.0, Better::Higher) + 0.10).abs() < 1e-12);
        assert_eq!(worsening(6.7, 6.7, Better::Higher), 0.0);
    }
}
