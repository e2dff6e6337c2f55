//! The end-to-end run: no tracing, no extra threads, on-CPU timing.
//!
//! The time budget is spent on passes. Each pass times a set-up batch
//! whose last build it keeps, runs that engine to the horizon, and
//! times a batch of the program's reports on fresh, unsorted copies of
//! a reference pass's raw statistics (every pass's output is checked to
//! be identical).
//! Batches are long enough to time at scheduler-tick resolution.
//!
//! Every timed metric is the best (fastest) sample of the invocation.
//! Other tenants of a shared host only ever add time to a sample, and
//! they come and go for seconds at a time, so the median of a run's
//! samples moves with how much of the run they overlapped while the
//! fastest sample stays put (see `STEADINESS.md`).

use crate::checks::cross_check;
use crate::host::{calibrate_reps, cpu_per_call_batch, cpu_timed, peak_rss_mb, SchedStat};
use crate::outcome::{Outcome, END_TO_END};
use crate::workloads::{finish, generate, report, setup, Report, Size, Workload};
use quartz_bench::timing::monotonic_ns;
use quartz_core::pool::ThreadPool;
use quartz_netsim::time::SimTime;
use std::hint::black_box;

/// Fewest timed passes per invocation, whatever the time budget.
const MIN_PASSES: usize = 3;
/// Shortest set-up or report batch, on-CPU seconds.
const MIN_BATCH_S: f64 = 0.15;
/// Most memory the copies of a run's raw output in one timed chunk of a
/// report batch may take, bytes.
const REPORT_BATCH_BYTES: usize = 128 << 20;

/// Runs `workload` for `seconds` of passes and reports every
/// end-to-end metric.
pub fn run(workload: Workload, seed: u64, seconds: f64, size: Size) -> Outcome {
    let wall0 = monotonic_ns();
    let sched0 = SchedStat::now();
    let mut out = Outcome::default();
    let inputs = generate(workload, seed, size);
    let kind = workload.engine();
    let pool = ThreadPool::sequential();

    // An untimed first pass does only what a user of the program does
    // (set up, run, report), so the memory high-water mark read after
    // it holds none of the benchmark's own copies.
    let mut engine = setup(&inputs, kind, size);
    engine.run(inputs.horizon, &pool);
    black_box(report(&inputs, engine.stats(), engine.completions(), engine.now()));
    drop(engine);
    let peak_rss = peak_rss_mb();
    // A second untimed pass fixes the reference output and keeps
    // unsorted copies of its raw output for the report batches.
    let mut engine = setup(&inputs, kind, size);
    engine.run(inputs.horizon, &pool);
    let stats = engine.stats().clone();
    let completions = engine.completions().to_vec();
    let (rep, digest) = finish(&inputs, &mut engine, &mut out.gate);
    drop(engine);
    cross_check(&inputs, size, &digest, &rep, &mut out.gate);
    let end = SimTime::from_ns(rep.end_ns);
    let (setup_reps, _) = calibrate_reps(
        MIN_BATCH_S,
        u32::MAX,
        || (),
        |()| setup(&inputs, kind, size),
    );
    // Fresh, unsorted copies of the raw statistics, made a chunk at a
    // time so a report batch never holds more than REPORT_BATCH_BYTES.
    let chunk = u32::try_from(REPORT_BATCH_BYTES / (8 * stats.total_samples().max(1)))
        .unwrap_or(u32::MAX)
        .max(1);
    let (report_reps, _) = calibrate_reps(
        MIN_BATCH_S,
        chunk,
        || stats.clone(),
        |s| report(&inputs, &s, &completions, end),
    );

    let (mut setup_s, mut run_s, mut report_s) = (Vec::new(), Vec::new(), Vec::new());
    let budget_ns = (seconds * 1e9) as u64;
    let passes_from = monotonic_ns();
    while run_s.len() < MIN_PASSES || monotonic_ns() - passes_from < budget_ns {
        let (mut engine, spent) = cpu_timed(|| {
            for _ in 1..setup_reps {
                black_box(setup(&inputs, kind, size));
            }
            setup(&inputs, kind, size)
        });
        setup_s.push(spent.cpu_ns as f64 / 1e9 / f64::from(setup_reps));
        let ((), spent) = cpu_timed(|| engine.run(inputs.horizon, &pool));
        run_s.push(spent.cpu_ns.max(1) as f64 / 1e9);
        let (_, pass_digest) = finish(&inputs, &mut engine, &mut out.gate);
        drop(engine);
        let what = format!("timed pass {} vs the first pass", run_s.len());
        out.gate.same_digest(&what, &digest, &pass_digest);
        report_s.push(cpu_per_call_batch(
            report_reps,
            chunk,
            || stats.clone(),
            |s| report(&inputs, &s, &completions, end),
        ));
    }

    out.metric("setup_s", best(&setup_s));
    out.metric("pkts_per_s", rep.delivered as f64 / best(&run_s));
    out.metric("report_s", best(&report_s));
    out.metric("peak_rss_mb", peak_rss);
    out.check_complete(&END_TO_END);
    (out.attempted, out.failed) = rep.attempted_failed(workload);

    let host = SchedStat::now().since(sched0);
    let wall_s = (monotonic_ns() - wall0) as f64 / 1e9;
    out.lines = describe(workload, seed, &rep, digest.hash(), &out);
    out.lines.push(format!(
        "  samples: {} passes, set-up batches of {setup_reps}, report batches of {report_reps}; \
         run on-CPU {:.3} s fastest, {:.3} s slowest",
        run_s.len(),
        best(&run_s),
        run_s.iter().copied().fold(0.0, f64::max)
    ));
    out.lines.push(format!(
        "  host: wall {wall_s:.2} s, on-CPU {:.2} s, run-queue wait {:.4} s (diagnostics)",
        host.cpu_ns as f64 / 1e9,
        host.wait_ns as f64 / 1e9
    ));
    out
}

/// The fastest of the samples.
fn best(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The human-readable summary: every metric with its unit, then the
/// simulated metrics (exact for the seed, pinned by the digest) under
/// their workload-specific names, and the failure ratio.
fn describe(
    workload: Workload,
    seed: u64,
    rep: &Report,
    digest: u64,
    out: &Outcome,
) -> Vec<String> {
    let mut lines = vec![format!(
        "{} seed {seed}: {} flows, {} pkts delivered per pass, simulated digest {digest:016x}",
        workload.name(),
        rep.flows,
        rep.delivered
    )];
    for &(name, value) in &out.metrics {
        let unit = crate::outcome::unit_of(name).unwrap_or("");
        lines.push(format!("  {name:<14} {value:>16.6} {unit}"));
    }
    let (p50_name, tail_name) = match workload {
        Workload::WebsearchDctcp => ("fct_p50_us", "fct_p99_us"),
        Workload::MeshPoisson | Workload::CompositeScale => ("lat_p50_us", "lat_p999_us"),
    };
    lines.push(format!(
        "  {p50_name:<14} {:>16.3} us (simulated)",
        rep.sim_p50_ns(workload) as f64 / 1e3
    ));
    lines.push(format!(
        "  {tail_name:<14} {:>16.3} us (simulated)",
        rep.sim_tail_ns(workload) as f64 / 1e3
    ));
    let (attempted, failed) = rep.attempted_failed(workload);
    let what = match workload {
        Workload::WebsearchDctcp => "flows unfinished / offered",
        Workload::MeshPoisson | Workload::CompositeScale => "packets dropped / generated",
    };
    lines.push(format!(
        "  {:<14} {:>16.6} ratio ({failed} / {attempted} {what}; simulated)",
        "fail_ratio",
        failed as f64 / attempted.max(1) as f64
    ));
    lines
}
