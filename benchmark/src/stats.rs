//! Order statistics. Every latency the benchmark reports is a nearest-rank
//! quantile, never an interpolation or a mean.

/// Nearest-rank quantile of an ascending sample: the value at 1-based rank
/// `ceil(q * n)`. Panics on an empty sample (a bug in the caller).
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

/// Ascending copy of `values`.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank quantile of an unsorted sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    quantile_sorted(&sorted(values), q)
}

/// Nearest-rank median.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// A time summarised over rounds: the quartiles over rounds of each
/// round's p50, and the sample count.
///
/// The reported value is the *first* quartile, the quiet quartile. On a
/// shared host the neighbours' use of the memory system only ever adds
/// time, in episodes of seconds that may cover most of one run and none
/// of the next; the median over rounds then reads the episodes, while the
/// lower quartile reads the machine as long as a quarter of the rounds
/// were quiet. It is a quantile of per-round medians, so still a typical
/// operation, never a best case.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundStat {
    /// First quartile over rounds of the per-round p50: the value reported.
    pub quiet: f64,
    /// Median over rounds.
    pub median: f64,
    /// Third quartile over rounds.
    pub q3: f64,
    /// Rounds that held at least one sample.
    pub rounds: usize,
    /// Samples over all rounds.
    pub samples: usize,
}

/// Quartiles over rounds of the per-round p50. `None` when no round holds
/// a sample.
pub fn quartiles_of_rounds(rounds: &[Vec<f64>]) -> Option<RoundStat> {
    let p50s: Vec<f64> = rounds
        .iter()
        .filter(|r| !r.is_empty())
        .map(|r| median(r))
        .collect();
    if p50s.is_empty() {
        return None;
    }
    let s = sorted(&p50s);
    Some(RoundStat {
        quiet: quantile_sorted(&s, 0.25),
        median: quantile_sorted(&s, 0.5),
        q3: quantile_sorted(&s, 0.75),
        rounds: s.len(),
        samples: rounds.iter().map(Vec::len).sum(),
    })
}

/// The quiet quartile of plain samples: the first quartile of times, the
/// third quartile of rates.
pub fn quiet_quartile(values: &[f64], higher_is_better: bool) -> f64 {
    quantile(values, if higher_is_better { 0.75 } else { 0.25 })
}

/// Geometric mean of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of an empty sample");
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v = [15.0, 20.0, 35.0, 40.0, 50.0];
        assert_eq!(quantile(&v, 0.05), 15.0);
        assert_eq!(quantile(&v, 0.30), 20.0);
        assert_eq!(quantile(&v, 0.40), 20.0);
        assert_eq!(quantile(&v, 0.50), 35.0);
        assert_eq!(quantile(&v, 1.00), 50.0);
        // Even count: the lower middle, never an average of two samples.
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_of_rounds_are_not_pooled_quantiles() {
        // Two quiet rounds and one disturbed round with many samples: the
        // pooled median lands in the disturbed mass, the quantiles over
        // rounds do not.
        let rounds = vec![
            vec![10.0, 11.0, 12.0],
            vec![10.0, 12.0, 14.0],
            vec![90.0; 20],
        ];
        let stat = quartiles_of_rounds(&rounds).unwrap();
        assert_eq!((stat.quiet, stat.median, stat.q3), (11.0, 12.0, 90.0));
        assert_eq!((stat.rounds, stat.samples), (3, 26));
        let pooled: Vec<f64> = rounds.concat();
        assert_eq!(median(&pooled), 90.0);
        // Empty rounds are skipped, not counted as zero.
        assert_eq!(
            quartiles_of_rounds(&[vec![], vec![5.0]]).unwrap().quiet,
            5.0
        );
        assert!(quartiles_of_rounds(&[vec![], vec![]]).is_none());
    }

    #[test]
    fn the_quiet_quartile_is_the_fast_side() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0];
        assert_eq!(quiet_quartile(&v, false), 2.0);
        assert_eq!(quiet_quartile(&v, true), 6.0);
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }
}
