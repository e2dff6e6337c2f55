//! The traced run: spans around every public call into the layers, plus
//! the runs the end-to-end invocation never makes (standalone route,
//! flatten and partition builds; one-domain and two-worker sharded
//! runs; metric counters; a `MemoryRecorder`). Its numbers never feed
//! the end-to-end metrics.

use crate::checks::cross_check;
use crate::host::{cpu_timed, median, status_mb, SchedStat};
use crate::outcome::{Outcome, PER_LAYER};
use crate::spans::Spans;
use crate::workloads::{
    build_fabric, fct_report, finish, generate, setup, sim_config, summarize, Digest, Engine,
    EngineKind, Inputs, Report, Size, Workload, DOMAINS,
};
use quartz_bench::timing::monotonic_ns;
use quartz_core::pool::ThreadPool;
use quartz_obs::MemoryRecorder;
use quartz_topology::partition::spatial_domains;
use quartz_topology::route::{FlatRoutes, RouteTable};
use std::hint::black_box;

/// Repetitions of the layer-by-layer set-up: at least this many, and
/// at least [`SETUP_MIN_S`] of wall time in all.
const SETUP_MIN_REPS: usize = 3;
const SETUP_MIN_S: f64 = 1.0;
/// Rounds of the recorder and sharded comparisons.
const ROUNDS: usize = 3;

/// Runs the traced invocation of `workload` and reports every
/// per-layer metric. Spans are returned for writing out.
pub fn run(workload: Workload, seed: u64, seconds: f64, size: Size) -> (Outcome, Spans) {
    let wall0 = monotonic_ns();
    let sched0 = SchedStat::now();
    let mut out = Outcome::default();
    let mut log = Spans::default();
    let kind = workload.engine();
    let pool = ThreadPool::sequential();

    let inputs = setup_layers(workload, seed, size, kind, &mut log, &mut out);
    let (rep, reference) = passes(&inputs, kind, size, seconds, &pool, &mut log, &mut out);
    cross_check(&inputs, size, &reference, &rep, &mut out.gate);
    counters(&inputs, kind, size, &pool, &reference, &mut out);
    recorder(workload, seed, kind, size, &pool, &mut log, &mut out);
    sharded(&inputs, size, &mut log, &mut out);

    let host = SchedStat::now().since(sched0);
    out.metric("host.wall_s", (monotonic_ns() - wall0) as f64 / 1e9);
    out.metric("host.runq_wait_s", host.wait_ns as f64 / 1e9);
    out.check_complete(&PER_LAYER);
    out.lines.insert(
        0,
        format!(
            "{} seed {seed} traced: {} spans, simulated digest {:016x}",
            workload.name(),
            log.len(),
            reference.hash()
        ),
    );
    for &(name, value) in &out.metrics {
        let unit = crate::outcome::unit_of(name).unwrap_or("");
        out.lines.push(format!("  {name:<24} {value:>18.6} {unit}"));
    }
    (out, log)
}

/// Set-up layer by layer: input generation, topology build, the
/// standalone route/flatten/partition builds, then the engine's
/// constructor (which builds its own tables again) and flow adds.
fn setup_layers(
    workload: Workload,
    seed: u64,
    size: Size,
    kind: EngineKind,
    log: &mut Spans,
    out: &mut Outcome,
) -> Inputs {
    let from = monotonic_ns();
    let mut reps = 0;
    let mut new_self = Vec::new();
    loop {
        let inputs = log.time("workload.gen", |_| generate(workload, seed, size));
        let (net, hosts) = log.time("topology.build", |_| build_fabric(workload, size));
        let rss0 = status_mb("VmRSS");
        let table = log.time("topology.route", |_| RouteTable::all_shortest_paths(&net));
        if reps == 0 {
            out.metric("topology.route_rss_mb", status_mb("VmRSS") - rss0);
            let n = table.node_count();
            debug_assert!(n <= u32::MAX as usize, "node ids fit u32");
            let ids = || (0..n as u32).map(quartz_topology::graph::NodeId);
            let entries: usize = ids()
                .flat_map(|at| ids().map(move |dst| (at, dst)))
                .map(|(at, dst)| table.next_hops(at, dst).len())
                .sum();
            out.metric("topology.route_entries", entries as f64);
        }
        let flat = log.time("topology.flatten", |_| FlatRoutes::new(&table, &net));
        let part = log.time("topology.partition", |_| spatial_domains(&net, DOMAINS));
        black_box((&flat, &part));
        drop((flat, table, part));
        let mut engine = log.time("netsim.new", |_| {
            Engine::new(net, sim_config(&inputs), kind)
        });
        log.time("netsim.add_flow", |_| {
            engine.add_flows(&hosts, &inputs.flows)
        });
        drop(engine);
        // The constructor builds the route table and its flat form
        // (and, sharded, the partition) itself: its own time is the rest.
        let last = |name| log.named(name).last().map_or(0.0, |s| s.wall_s());
        let mut own = last("netsim.new") - last("topology.route") - last("topology.flatten");
        if kind != EngineKind::Single {
            own -= last("topology.partition");
        }
        new_self.push(own);
        reps += 1;
        let elapsed_s = (monotonic_ns() - from) as f64 / 1e9;
        if reps >= SETUP_MIN_REPS && elapsed_s >= SETUP_MIN_S {
            for (metric, span) in [
                ("topology.build_s", "topology.build"),
                ("topology.route_s", "topology.route"),
                ("topology.flatten_s", "topology.flatten"),
                ("topology.partition_s", "topology.partition"),
                ("netsim.add_flow_s", "netsim.add_flow"),
                ("workload.gen_s", "workload.gen"),
            ] {
                out.metric(metric, log.median_wall_s(span));
            }
            out.metric("netsim.new_self_s", median(&mut new_self));
            out.metric("workload.flows", inputs.flows.len() as f64);
            return inputs;
        }
    }
}

/// Untraced and traced passes, alternating, for the time budget. The
/// traced passes must reproduce the untraced digest; their run time
/// over the untraced one is the tracing overhead. Returns the first
/// pass's report and digest.
fn passes(
    inputs: &Inputs,
    kind: EngineKind,
    size: Size,
    seconds: f64,
    pool: &ThreadPool,
    log: &mut Spans,
    out: &mut Outcome,
) -> (Report, Digest) {
    let mut plain_cpu = Vec::new();
    let mut reference: Option<(Report, Digest)> = None;
    let mut events = 0;
    let mut generated = 0;
    let from = monotonic_ns();
    while plain_cpu.len() < 2 || (monotonic_ns() - from) as f64 / 1e9 < seconds {
        let mut engine = setup(inputs, kind, size);
        let ((), spent) = cpu_timed(|| engine.run(inputs.horizon, pool));
        plain_cpu.push(spent.cpu_ns as f64 / 1e9);
        let (rep, plain) = finish(inputs, &mut engine, &mut out.gate);
        drop(engine);

        let traced = log.time("pass", |log| {
            let mut engine = log.time("setup", |_| setup(inputs, kind, size));
            log.time("netsim.run", |_| engine.run(inputs.horizon, pool));
            log.time("report.summary", |_| black_box(summarize(engine.stats())));
            log.time("report.fct", |_| {
                black_box(fct_report(inputs, engine.completions()))
            });
            events = engine.events();
            let (rep, digest) = finish(inputs, &mut engine, &mut out.gate);
            generated = rep.generated;
            digest
        });
        out.gate
            .same_digest("traced vs untraced pass", &plain, &traced);
        match &reference {
            None => reference = Some((rep, plain)),
            Some((_, d0)) => out.gate.same_digest("pass vs first pass", d0, &plain),
        }
    }
    let run_s = log.median_wall_s("netsim.run");
    out.metric("netsim.run_s", run_s);
    out.metric("netsim.events", events as f64);
    out.metric("netsim.ns_per_event", run_s * 1e9 / events.max(1) as f64);
    out.metric(
        "netsim.events_per_pkt",
        events as f64 / generated.max(1) as f64,
    );
    out.metric("report.summary_s", log.median_wall_s("report.summary"));
    out.metric("report.fct_s", log.median_wall_s("report.fct"));
    out.metric(
        "trace.overhead",
        log.median_cpu_s("netsim.run") / median(&mut plain_cpu).max(1e-9),
    );
    reference.expect("at least one pass ran")
}

/// One run with the engine's metric counters on: forwarding counts,
/// and a check that counting does not change the simulation.
fn counters(
    inputs: &Inputs,
    kind: EngineKind,
    size: Size,
    pool: &ThreadPool,
    reference: &Digest,
    out: &mut Outcome,
) {
    let mut engine = setup(inputs, kind, size);
    engine.enable_metrics();
    engine.run(inputs.horizon, pool);
    let metrics = engine.take_metrics().unwrap_or_default();
    let (_, digest) = finish(inputs, &mut engine, &mut out.gate);
    out.gate
        .same_digest("run with metric counters", reference, &digest);
    for (metric, counter) in [
        ("netsim.forwarded", "sim.packets.forwarded"),
        ("netsim.cut_through", "sim.forward.cut_through"),
        ("netsim.store_forward", "sim.forward.store_forward"),
    ] {
        out.metric(metric, metrics.counter(counter) as f64);
    }
}

/// A shorter schedule run plain and with a `MemoryRecorder`, in
/// alternation: events recorded, and the recorded run's wall time over
/// the plain one's.
fn recorder(
    workload: Workload,
    seed: u64,
    kind: EngineKind,
    size: Size,
    pool: &ThreadPool,
    log: &mut Spans,
    out: &mut Outcome,
) {
    let size = if size == Size::Full {
        Size::Recorded
    } else {
        size
    };
    let inputs = generate(workload, seed, size);
    let mut recorded = 0;
    for _ in 0..ROUNDS {
        let mut engine = setup(&inputs, kind, size);
        log.time("obs.plain_run", |_| engine.run(inputs.horizon, pool));
        let (_, plain) = finish(&inputs, &mut engine, &mut out.gate);
        drop(engine);
        let mut engine = setup(&inputs, kind, size);
        engine.set_recorder(Box::new(MemoryRecorder::new()));
        log.time("obs.recorded_run", |_| engine.run(inputs.horizon, pool));
        recorded = engine.take_recorder().map_or(0, |r| r.finish().len());
        let (_, with) = finish(&inputs, &mut engine, &mut out.gate);
        out.gate
            .same_digest("run with a MemoryRecorder", &plain, &with);
    }
    out.metric("obs.recorded_events", recorded as f64);
    out.metric(
        "obs.record_overhead",
        log.median_wall_s("obs.recorded_run") / log.median_wall_s("obs.plain_run").max(1e-9),
    );
}

/// The sharded engine at one domain, at [`DOMAINS`] domains on one
/// worker (with the injected clock for busy and coordinator time) and
/// at [`DOMAINS`] domains on two workers. All three must agree.
fn sharded(inputs: &Inputs, size: Size, log: &mut Spans, out: &mut Outcome) {
    let seq = ThreadPool::sequential();
    let two = ThreadPool::new(2);
    let (mut busy, mut busy_max, mut coord, mut unattributed) = (vec![], vec![], vec![], vec![]);
    let mut imbalance = 0.0;
    for _ in 0..ROUNDS {
        let mut one = setup(inputs, EngineKind::Sharded(1), size);
        log.time("shard.run_1dom", |_| one.run(inputs.horizon, &seq));
        let (_, d1) = finish(inputs, &mut one, &mut out.gate);
        drop(one);

        let mut k = setup(inputs, EngineKind::Sharded(DOMAINS), size);
        if let Engine::Sharded(s) = &mut k {
            s.set_clock(monotonic_ns);
        }
        log.time("shard.run", |_| k.run(inputs.horizon, &seq));
        if let Engine::Sharded(s) = &k {
            let b = s.domain_busy_ns();
            let total: u64 = b.iter().sum();
            busy.push(total as f64 / 1e9);
            busy_max.push(b.iter().copied().max().unwrap_or(0) as f64 / 1e9);
            coord.push(s.coordinator_ns() as f64 / 1e9);
            let run_s = log.named("shard.run").last().map_or(0.0, |s| s.wall_s());
            unattributed.push(run_s - (total + s.coordinator_ns()) as f64 / 1e9);
            let ev = s.per_domain_events();
            let mean = ev.iter().sum::<u64>() as f64 / ev.len().max(1) as f64;
            imbalance = ev.iter().copied().max().unwrap_or(0) as f64 / mean.max(1.0);
        }
        let (_, dk) = finish(inputs, &mut k, &mut out.gate);
        drop(k);
        out.gate.same_digest("sharded 1 vs 4 domains", &d1, &dk);

        let mut par = setup(inputs, EngineKind::Sharded(DOMAINS), size);
        log.time("pool.run_2w", |_| par.run(inputs.horizon, &two));
        let (_, d2) = finish(inputs, &mut par, &mut out.gate);
        out.gate.same_digest("sharded 1 vs 2 workers", &d1, &d2);
    }
    let run_k = log.median_wall_s("shard.run");
    out.metric("shard.busy_s", median(&mut busy));
    out.metric("shard.busy_max_s", median(&mut busy_max));
    out.metric("shard.coordinator_s", median(&mut coord));
    out.metric("shard.unattributed_s", median(&mut unattributed));
    out.metric("shard.imbalance", imbalance);
    out.metric(
        "shard.tax",
        run_k / log.median_wall_s("shard.run_1dom").max(1e-9),
    );
    out.metric(
        "pool.speedup_2w",
        run_k / log.median_wall_s("pool.run_2w").max(1e-9),
    );
}
