//! Minimal wall-clock timing loop for the host-timed `xor_opt` table (the
//! workspace carries no external benchmarking dependency).

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Target duration of one timed batch.
const BATCH: Duration = Duration::from_millis(40);
/// Warm-up duration before timing starts.
const WARMUP: Duration = Duration::from_millis(10);
/// Timed batches per measurement; the fastest is reported.
const BATCHES: usize = 5;

/// Nanoseconds per call of `f`: after a warm-up that also sizes the batch,
/// the best of [`BATCHES`] fixed-size batches (least interference).
pub fn best_ns_per_iter<R>(mut f: impl FnMut() -> R) -> f64 {
    let warm_start = Instant::now();
    let mut warm_iters = 0u64;
    while warm_start.elapsed() < WARMUP {
        black_box(f());
        warm_iters += 1;
    }
    let est = warm_start.elapsed().as_nanos() as f64 / warm_iters as f64;
    let iters = ((BATCH.as_nanos() as f64 / est).ceil() as u64).max(1);

    let mut best = f64::INFINITY;
    for _ in 0..BATCHES {
        let t = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        best = best.min(t.elapsed().as_nanos() as f64 / iters as f64);
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn times_a_closure() {
        let ns = best_ns_per_iter(|| (0..100u64).fold(0u64, |acc, i| acc.wrapping_add(i * i)));
        assert!(ns > 0.0 && ns.is_finite());
    }
}
