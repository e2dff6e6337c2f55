//! Std-only host probes: this thread's on-CPU time and run-queue wait
//! from `/proc/thread-self/schedstat`, and the process's memory from
//! `/proc/self/status`.
//!
//! The kernel advances the schedstat counters at scheduler ticks and
//! context switches, so a reading is only as fine as one tick (4 ms at
//! `HZ=250`). [`calibrate_reps`] therefore repeats a short phase until one
//! batch spans many ticks instead of reading a fraction of a tick as 0.

use std::fs;

/// One reading of this thread's scheduler statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchedStat {
    /// Time spent running on a CPU, ns (schedstat field 1).
    pub cpu_ns: u64,
    /// Time spent runnable but waiting on a run queue, ns (field 2).
    pub wait_ns: u64,
}

impl SchedStat {
    /// Reads the calling thread's counters.
    ///
    /// # Panics
    /// Panics if the kernel does not expose `/proc/thread-self/schedstat`
    /// (the benchmark has no other std-only on-CPU clock).
    pub fn now() -> SchedStat {
        let text = fs::read_to_string("/proc/thread-self/schedstat")
            .expect("on-CPU timing needs /proc/thread-self/schedstat");
        parse_schedstat(&text).expect("schedstat has two numeric fields")
    }

    /// Counters accumulated since `earlier`.
    pub fn since(self, earlier: SchedStat) -> SchedStat {
        SchedStat {
            cpu_ns: self.cpu_ns.saturating_sub(earlier.cpu_ns),
            wait_ns: self.wait_ns.saturating_sub(earlier.wait_ns),
        }
    }
}

fn parse_schedstat(text: &str) -> Option<SchedStat> {
    let mut fields = text.split_whitespace().map(str::parse::<u64>);
    let cpu_ns = fields.next()?.ok()?;
    let wait_ns = fields.next()?.ok()?;
    Some(SchedStat { cpu_ns, wait_ns })
}

/// Runs `f` once and returns its result with the on-CPU and run-queue
/// time it took on this thread.
pub fn cpu_timed<T>(f: impl FnOnce() -> T) -> (T, SchedStat) {
    let t0 = SchedStat::now();
    let out = f();
    let spent = SchedStat::now().since(t0);
    (out, spent)
}

/// On-CPU seconds per call of `f`, over a batch of `reps` back-to-back
/// calls. Each call consumes an input that `prepare` made before it was
/// timed; inputs are made `chunk` at a time, so at most `chunk` of them
/// exist at once, and each chunk is timed on its own. Whatever a call
/// returns is dropped inside the batch.
pub fn cpu_per_call_batch<I, T>(
    reps: u32,
    chunk: u32,
    mut prepare: impl FnMut() -> I,
    mut f: impl FnMut(I) -> T,
) -> f64 {
    let mut cpu_ns = 0;
    let mut left = reps;
    while left > 0 {
        let n = left.min(chunk.max(1));
        let inputs: Vec<I> = (0..n).map(|_| prepare()).collect();
        let ((), spent) = cpu_timed(|| {
            for input in inputs {
                std::hint::black_box(f(input));
            }
        });
        cpu_ns += spent.cpu_ns;
        left -= n;
    }
    cpu_ns as f64 / 1e9 / f64::from(reps.max(1))
}

/// The batch size at which `f` runs for at least `min_s` on-CPU
/// seconds: doubles the batch until one batch is long enough to time
/// at tick resolution. Returns `(reps, seconds per call)` of the first
/// batch that qualified. `chunk` is as for [`cpu_per_call_batch`].
pub fn calibrate_reps<I, T>(
    min_s: f64,
    chunk: u32,
    mut prepare: impl FnMut() -> I,
    mut f: impl FnMut(I) -> T,
) -> (u32, f64) {
    let mut reps = 1_u32;
    loop {
        let per_call = cpu_per_call_batch(reps, chunk, &mut prepare, &mut f);
        if per_call * f64::from(reps) >= min_s || reps >= 1 << 20 {
            return (reps, per_call);
        }
        reps *= 2;
    }
}

/// A field of `/proc/self/status` in MiB (`VmHWM`, `VmRSS`, …).
///
/// # Panics
/// Panics if the field is missing or not in kB.
pub fn status_mb(field: &str) -> f64 {
    let text =
        fs::read_to_string("/proc/self/status").expect("memory probes need /proc/self/status");
    parse_status_kb(&text, field)
        .map(|kb| kb as f64 / 1024.0)
        .unwrap_or_else(|| panic!("/proc/self/status has no {field} in kB"))
}

fn parse_status_kb(text: &str, field: &str) -> Option<u64> {
    text.lines().find_map(|line| {
        let rest = line.strip_prefix(field)?.strip_prefix(':')?;
        rest.trim().strip_suffix("kB")?.trim().parse().ok()
    })
}

/// Peak resident set size of the process so far, MiB.
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM")
}

/// Median of `xs` (mean of the middle two for an even count); sorts in
/// place. Returns 0 for an empty slice.
pub fn median(xs: &mut [f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(iters: u64) -> u64 {
        let mut x = 0_u64;
        for i in 0..iters {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(i));
        }
        x
    }

    #[test]
    fn parses_schedstat_and_status_lines() {
        assert_eq!(
            parse_schedstat("123 45 6\n"),
            Some(SchedStat {
                cpu_ns: 123,
                wait_ns: 45
            })
        );
        assert_eq!(parse_schedstat("garbage"), None);
        let status = "Name:\tx\nVmHWM:\t  2048 kB\nVmRSS:\t  1024 kB\n";
        assert_eq!(parse_status_kb(status, "VmHWM"), Some(2048));
        assert_eq!(parse_status_kb(status, "VmRSS"), Some(1024));
        assert_eq!(parse_status_kb(status, "VmPeak"), None);
    }

    #[test]
    fn on_cpu_clock_advances_across_a_busy_loop() {
        // Spin for at least ~100 ms of on-CPU time: many 4 ms ticks.
        let ((), spent) = cpu_timed(|| {
            let t0 = SchedStat::now();
            while SchedStat::now().since(t0).cpu_ns < 100_000_000 {
                std::hint::black_box(spin(10_000));
            }
        });
        assert!(spent.cpu_ns >= 100_000_000, "{spent:?}");
    }

    #[test]
    fn a_phase_shorter_than_a_tick_is_repeated_not_read_as_zero() {
        // ~10 µs of work: one call is far below one tick.
        let (reps, per_call) = calibrate_reps(0.05, u32::MAX, || (), |()| spin(20_000));
        assert!(reps > 1, "a sub-tick phase must be batched");
        assert!(per_call > 0.0, "a batched phase must not read as 0");
        assert!(per_call * f64::from(reps) >= 0.05);
        assert!(cpu_per_call_batch(reps, u32::MAX, || 20_000, spin) > 0.0);
        // Made and timed a chunk at a time, the same batch still adds up.
        assert!(cpu_per_call_batch(reps, 3, || 20_000, spin) > 0.0);
    }

    #[test]
    fn peak_rss_is_positive_and_at_least_rss() {
        let hwm = peak_rss_mb();
        assert!(hwm > 0.0);
        assert!(hwm >= status_mb("VmRSS") - 1.0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&mut []), 0.0);
    }
}
