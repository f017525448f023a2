//! Host fingerprint and the two calibration probes that say whether the
//! box held still across the timed window. Neither probe touches the
//! system under test.

use crate::stats::median;
use std::hint::black_box;
use std::sync::mpsc;
use std::time::Instant;

/// Set (to `cpuN of M`) in a process that was re-executed under `taskset`
/// onto one CPU of the host's M.
///
/// Why one CPU: on this kind of VM a wake-up that crosses CPUs needs an
/// inter-processor interrupt through the hypervisor (~18 us each way),
/// one that stays on a CPU is a context switch (~1.5 us), and the
/// scheduler moves the client, the shard master and the pool worker
/// together or apart for seconds at a time. A 4 KiB encode then reads
/// 15 us or 55 us depending on placement, not on the code. A closed loop
/// with one worker has one runnable thread at any instant, so a single
/// CPU loses no parallelism and makes every hand-off cost the same.
pub const PINNED_ENV: &str = "DIALGA_BENCH_PINNED_CPU";

/// The highest CPU this process may run on (CPU 0 tends to take the
/// interrupts), from `Cpus_allowed_list` in `/proc/self/status`.
pub fn last_allowed_cpu() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
    let last = list.trim().rsplit([',', '-']).next()?;
    last.parse().ok()
}

/// What the numbers were measured on; printed with every output.
pub fn fingerprint() -> String {
    let pinned = std::env::var(PINNED_ENV).unwrap_or_else(|_| {
        let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
        format!("no ({nproc} CPUs)")
    });
    format!(
        "pinned=\"{pinned}\" gf_kernel={:?} rustc=\"{}\" profile={}",
        dialga_gf::simd::selected_kernel(),
        env!("BENCH_RUSTC"),
        env!("BENCH_PROFILE"),
    )
}

/// Median round trip of a two-thread std-mpsc ping-pong, microseconds:
/// what one cross-thread wake-up costs on this box right now.
pub fn wake_rtt_us() -> f64 {
    const ROUNDS: usize = 1500;
    let (ping_tx, ping_rx) = mpsc::channel::<()>();
    let (pong_tx, pong_rx) = mpsc::channel::<()>();
    std::thread::scope(|s| {
        s.spawn(move || {
            while ping_rx.recv().is_ok() {
                if pong_tx.send(()).is_err() {
                    break;
                }
            }
        });
        let mut rtts = Vec::with_capacity(ROUNDS);
        for _ in 0..ROUNDS {
            let t0 = Instant::now();
            if ping_tx.send(()).is_err() || pong_rx.recv().is_err() {
                break;
            }
            rtts.push(t0.elapsed().as_nanos() as f64 / 1e3);
        }
        drop(ping_tx);
        median(&rtts)
    })
}

/// Median speed of an 8 MiB memcpy (larger than L2), GiB/s.
pub fn calib_copy_gibs() -> f64 {
    const LEN: usize = 8 << 20;
    const REPS: usize = 12;
    let src = vec![0x5Au8; LEN];
    let mut dst = vec![0u8; LEN];
    let mut speeds = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let t0 = Instant::now();
        dst.copy_from_slice(black_box(&src));
        black_box(&mut dst);
        let s = t0.elapsed().as_secs_f64();
        speeds.push(LEN as f64 / s / (1u64 << 30) as f64);
    }
    median(&speeds)
}

/// The clock every time is normalised to, in [`clock_ghz`] units.
pub const REF_GHZ: f64 = 3.0;

/// Effective core clock right now: chains of dependent multiplies
/// (`x *= x | k`: one `or` and one `imul`, four cycles an iteration on
/// every x86-64 core of the last decade), so iterations per nanosecond
/// times four is GHz. Only the proportionality matters. An interrupt can
/// only lower a reading, so the best of three 4 us chains is taken.
pub fn clock_ghz() -> f64 {
    const ITERATIONS: u64 = 3_000;
    let k = black_box(0x9E37_79B9_7F4A_7C15u64) | 1;
    let mut best = 0.0f64;
    for _ in 0..3 {
        let mut x = black_box(1u64);
        let t0 = Instant::now();
        for _ in 0..ITERATIONS {
            x = x.wrapping_mul(x | k);
        }
        black_box(x);
        best = best.max((ITERATIONS * 4) as f64 / t0.elapsed().as_nanos() as f64);
    }
    best
}

/// How a stretch's clock compared with the reference.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClockScale {
    /// Multiply a measured time by this (divide a rate) to get it at
    /// [`REF_GHZ`].
    pub factor: f64,
    /// Did the two probes agree within 3 %? If not the clock stepped
    /// inside the stretch and `factor` is off by up to half the step.
    pub steady: bool,
}

/// Clock normalisation of one timed stretch.
///
/// This host's core clock steps between turbo levels (4.2, 3.5, 3.3 GHz
/// and lower, by [`clock_ghz`]) every second or so, as the other tenants
/// of the socket come and go, and every time measured here moves with it
/// by up to 30 %. No statistic over rounds cancels that: whichever level
/// holds for most of a run sets its median, and the next run meets
/// another mix. So every timed stretch (a service or store round, a boot,
/// a simulated point, a set-up phase) is bracketed by two clock probes,
/// and its times are multiplied by `mean(probes) / REF_GHZ`: the benchmark
/// reports microseconds at [`REF_GHZ`], in effect cycles. Work that waits
/// on DRAM is over-corrected a little, which costs a few percent of
/// spread where clock steps cost thirty.
pub struct ClockBracket {
    before: f64,
}

impl ClockBracket {
    /// Probe the clock at the start of a stretch.
    pub fn open() -> ClockBracket {
        ClockBracket {
            before: clock_ghz(),
        }
    }

    /// Probe again at the end of the stretch.
    pub fn close(self) -> ClockScale {
        let after = clock_ghz();
        ClockScale {
            factor: (self.before + after) / 2.0 / REF_GHZ,
            steady: (self.before - after).abs() <= 0.03 * self.before.max(after),
        }
    }
}

/// The samples whose stretch kept a steady clock, unless that is fewer
/// than half of them: then all (better a blurred round than none).
pub fn steady_samples<T: Clone>(samples: &[T], scales: &[ClockScale]) -> Vec<T> {
    let steady: Vec<T> = samples
        .iter()
        .zip(scales)
        .filter(|(_, s)| s.steady)
        .map(|(x, _)| x.clone())
        .collect();
    if steady.len() * 2 >= samples.len() {
        steady
    } else {
        samples.to_vec()
    }
}

/// Both probes, taken together before and after the timed window.
#[derive(Debug, Clone, Copy)]
pub struct Calibration {
    /// [`wake_rtt_us`].
    pub wake_rtt_us: f64,
    /// [`calib_copy_gibs`].
    pub copy_gibs: f64,
}

impl Calibration {
    /// Run both probes now.
    pub fn take() -> Calibration {
        Calibration {
            wake_rtt_us: wake_rtt_us(),
            copy_gibs: calib_copy_gibs(),
        }
    }

    /// Did either probe move by more than 25 % between `self` and `after`?
    pub fn unsteady(&self, after: &Calibration) -> bool {
        let moved = |a: f64, b: f64| (a - b).abs() > 0.25 * a.min(b);
        moved(self.wake_rtt_us, after.wake_rtt_us) || moved(self.copy_gibs, after.copy_gibs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unsteady_stretches_are_left_out_unless_they_are_most() {
        let steady = ClockScale {
            factor: 1.0,
            steady: true,
        };
        let moved = ClockScale {
            factor: 1.1,
            steady: false,
        };
        assert_eq!(
            steady_samples(&[1, 2, 3, 4], &[steady, moved, steady, steady]),
            [1, 3, 4]
        );
        assert_eq!(steady_samples(&[1, 2], &[steady, moved]), [1]);
        // Fewer than half steady: keep everything.
        assert_eq!(
            steady_samples(&[1, 2, 3], &[moved, moved, steady]),
            [1, 2, 3]
        );
    }

    #[test]
    fn the_clock_probe_reads_a_plausible_clock() {
        let ghz = clock_ghz();
        assert!((0.2..20.0).contains(&ghz), "{ghz}");
        let scale = ClockBracket::open().close();
        assert!(scale.factor > 0.0);
    }

    #[test]
    fn the_last_allowed_cpu_is_one_of_ours() {
        if let Some(cpu) = last_allowed_cpu() {
            assert!(cpu < 4096);
        }
    }
}
