//! The benchmark's three workloads: their inputs (a pure function of
//! the seed), their set-up, run and report, and the digest of what the
//! simulation produced.
//!
//! All three are open loop: every source follows a generation schedule
//! fixed in simulated time, so a slower engine takes longer to finish
//! the same schedule but never sees less offered load.

use quartz_core::pool::ThreadPool;
use quartz_core::rng::{SliceRandom, StdRng};
use quartz_netsim::shard::ShardedSim;
use quartz_netsim::sim::{FlowCompletion, FlowKind, SimConfig, Simulator};
use quartz_netsim::stats::{Series, Stats};
use quartz_netsim::time::SimTime;
use quartz_netsim::transport::TcpVariant;
use quartz_obs::{MetricsRegistry, Recorder};
use quartz_topology::builders::{quartz_in_core, quartz_mesh};
use quartz_topology::graph::{Network, NodeId};
use quartz_workload::dist::{exp_gap_ns, mean_gap_ns, WEBSEARCH};
use quartz_workload::report::{BucketAccum, BucketStat};

use crate::gate::Gate;

/// One of the benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Poisson datagrams on a 16-switch, 128-host Quartz mesh: the
    /// per-packet engine does nearly all the work.
    MeshPoisson,
    /// Web-search flow sizes over DCTCP on the same mesh: the transport
    /// state machine and the FCT report on top of the same fabric.
    WebsearchDctcp,
    /// RPCs and Poisson streams across a ~2k-host Quartz-in-core
    /// composite in four spatial domains: all-pairs routing dominates
    /// set-up, the shard window and merge code the run.
    CompositeScale,
}

/// Every workload, in the order the documentation lists them.
pub const ALL: [Workload; 3] = [
    Workload::MeshPoisson,
    Workload::WebsearchDctcp,
    Workload::CompositeScale,
];

impl Workload {
    /// The name the command line uses.
    pub fn name(self) -> &'static str {
        match self {
            Workload::MeshPoisson => "mesh_poisson",
            Workload::WebsearchDctcp => "websearch_dctcp",
            Workload::CompositeScale => "composite_scale",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// The engine the end-to-end runs use.
    pub fn engine(self) -> EngineKind {
        match self {
            Workload::MeshPoisson | Workload::WebsearchDctcp => EngineKind::Single,
            Workload::CompositeScale => EngineKind::Sharded(DOMAINS),
        }
    }
}

/// Spatial domains of the sharded runs.
pub const DOMAINS: usize = 4;

/// How much traffic a pass offers: `Full` for measurements, `Smoke`
/// for the benchmark's own tests, `Recorded` for the run that buffers
/// every event in memory (a shorter schedule, so the buffer stays
/// small).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The measured size.
    Full,
    /// A few milliseconds of work, for the benchmark's own tests.
    #[cfg_attr(not(test), allow(dead_code))]
    Smoke,
    /// One eighth of the full schedule.
    Recorded,
}

/// Which engine drives a pass.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineKind {
    /// The single-threaded [`Simulator`].
    Single,
    /// [`ShardedSim`] with this many spatial domains.
    Sharded(usize),
}

/// One generated flow, with endpoints as indices into the host list.
#[derive(Clone, Copy, Debug)]
pub struct FlowSpec {
    /// Source host index.
    pub src: usize,
    /// Destination host index.
    pub dst: usize,
    /// Packet (segment) size, bytes.
    pub pkt_bytes: u32,
    /// Traffic shape.
    pub kind: FlowKind,
    /// Statistics tag.
    pub tag: u32,
    /// Start time.
    pub start: SimTime,
}

/// Everything a seed determines for one workload.
#[derive(Clone, Debug)]
pub struct Inputs {
    /// The workload.
    pub workload: Workload,
    /// The seed the inputs and the simulator's own randomness derive from.
    pub seed: u64,
    /// The flows, in `add_flow` order.
    pub flows: Vec<FlowSpec>,
    /// Run deadline; every schedule goes quiescent well before it.
    pub horizon: SimTime,
    /// For `websearch_dctcp`: the arrival window, which
    /// `quartz_workload::run_workload` needs to redraw the same flows.
    pub window: SimTime,
}

/// Datagram size of the Poisson and RPC sources, bytes.
const DGRAM_BYTES: u32 = 400;
/// Transport segment size, bytes (the workload crate's default).
const SEGMENT_BYTES: u32 = 1_500;
/// Offered load of the mesh streams and of the web-search arrivals, as
/// a share of a host's access link and of the bisection respectively.
const LOAD: f64 = 0.4;
/// DCTCP marking threshold K, bytes.
const DCTCP_K_BYTES: u64 = 30_000;
/// Statistics tags of the composite's two source kinds.
const TAG_RPC: u32 = 0;
const TAG_STREAM: u32 = 1;

/// Switch count of the mesh, and hosts per switch.
const MESH_SWITCHES: usize = 16;
const MESH_HOSTS_PER_SW: usize = 8;

/// The fabric a workload runs on: the network and its hosts in
/// builder order.
pub fn build_fabric(workload: Workload, size: Size) -> (Network, Vec<NodeId>) {
    match workload {
        Workload::MeshPoisson | Workload::WebsearchDctcp => {
            let q = quartz_mesh(MESH_SWITCHES, MESH_HOSTS_PER_SW, 10.0, 10.0);
            (q.net, q.hosts)
        }
        Workload::CompositeScale => {
            let c = match size {
                Size::Smoke => quartz_in_core(4, 4, 4, 4),
                Size::Full | Size::Recorded => quartz_in_core(16, 16, 8, 8),
            };
            (c.net, c.hosts)
        }
    }
}

/// Generates the workload's inputs from `seed` (the `workload.gen`
/// layer). Host indices refer to the host list of `build_fabric`.
pub fn generate(workload: Workload, seed: u64, size: Size) -> Inputs {
    match workload {
        Workload::MeshPoisson => mesh_poisson(seed, size),
        Workload::WebsearchDctcp => websearch(seed, size),
        Workload::CompositeScale => composite(seed, size),
    }
}

/// Simulated length of a schedule at each size, given the full length.
fn scaled(full: SimTime, size: Size) -> SimTime {
    match size {
        Size::Full => full,
        Size::Recorded => SimTime::from_ns(full.ns() / 8),
        Size::Smoke => SimTime::from_ns(full.ns() / 64),
    }
}

/// Every host sends 400 B Poisson datagrams at 40 % of its 10 G access
/// link to one host on another switch. The eight hosts of a switch use
/// eight distinct switch offsets and every host receives exactly one
/// stream, so each mesh channel and each access link carries at most
/// one 4 Gb/s stream: nothing queues long enough to drop. The seed
/// picks the offsets, the receiving slots and the Poisson gaps.
fn mesh_poisson(seed: u64, size: Size) -> Inputs {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut offsets: Vec<usize> = (1..MESH_SWITCHES).collect();
    offsets.shuffle(&mut rng);
    let mut slots: Vec<usize> = (0..MESH_HOSTS_PER_SW).collect();
    slots.shuffle(&mut rng);
    let stop = scaled(SimTime::from_us(4_000), size);
    let mean_gap_ns = f64::from(DGRAM_BYTES) * 8.0 / (LOAD * 10.0);
    let mut flows = Vec::with_capacity(MESH_SWITCHES * MESH_HOSTS_PER_SW);
    for sw in 0..MESH_SWITCHES {
        for (j, &slot) in slots.iter().enumerate() {
            let dst_sw = (sw + offsets[j]) % MESH_SWITCHES;
            flows.push(FlowSpec {
                src: sw * MESH_HOSTS_PER_SW + j,
                dst: dst_sw * MESH_HOSTS_PER_SW + slot,
                pkt_bytes: DGRAM_BYTES,
                kind: FlowKind::Poisson {
                    mean_gap_ns,
                    stop,
                    respond: false,
                },
                tag: 0,
                start: SimTime::ZERO,
            });
        }
    }
    Inputs {
        workload: Workload::MeshPoisson,
        seed,
        flows,
        horizon: SimTime::from_ns(stop.ns() + 1_000_000),
        window: stop,
    }
}

/// Web-search flow sizes arriving as Poisson at 40 % of the mesh's
/// bisection, each between a uniform pair of distinct hosts, over
/// DCTCP. The draws mirror `quartz_workload::run_workload` exactly
/// (same generator, same draw order), which the correctness gate
/// checks.
fn websearch(seed: u64, size: Size) -> Inputs {
    let hosts = MESH_SWITCHES * MESH_HOSTS_PER_SW;
    let window = scaled(SimTime::from_us(60_000), size);
    let bisection_gbps = hosts as f64 * 10.0 / 2.0;
    let gap = mean_gap_ns(&WEBSEARCH, LOAD, bisection_gbps);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut flows = Vec::new();
    let mut t_ns = 0_u64;
    loop {
        t_ns += exp_gap_ns(&mut rng, gap);
        if t_ns >= window.ns() {
            break;
        }
        let src = rng.random_range(0..hosts);
        let mut dst = rng.random_range(0..hosts - 1);
        if dst >= src {
            dst += 1;
        }
        let bytes = WEBSEARCH.sample(&mut rng).max(1);
        flows.push(FlowSpec {
            src,
            dst,
            pkt_bytes: SEGMENT_BYTES,
            kind: FlowKind::Transport {
                total_bytes: bytes,
                variant: TcpVariant::Dctcp,
            },
            tag: 0,
            start: SimTime::from_ns(t_ns),
        });
    }
    Inputs {
        workload: Workload::WebsearchDctcp,
        seed,
        flows,
        horizon: SimTime::from_ns(window.ns() + 500_000_000),
        window,
    }
}

/// Even hosts run closed-loop RPCs, odd hosts Poisson streams, each to
/// a host half the fabric away (always in another pod). The seed
/// shifts the pairing and drives the Poisson gaps.
fn composite(seed: u64, size: Size) -> Inputs {
    // (pods, hosts per pod) of the fabric `build_fabric` builds.
    let (pods, pod) = match size {
        Size::Smoke => (4, 4 * 4),
        Size::Full | Size::Recorded => (16, 16 * 8),
    };
    let hosts = pods * pod;
    let mut rng = StdRng::seed_from_u64(seed);
    // An even shift keeps RPC and stream endpoints on their own parity
    // and stays at least a pod away from the source.
    let shift = hosts / 2 - pod / 2 + 2 * rng.random_range(0..pod / 2);
    let stop = scaled(SimTime::from_us(800), size);
    let rpcs = match size {
        Size::Full => 40,
        Size::Recorded => 5,
        Size::Smoke => 2,
    };
    let flows = (0..hosts)
        .map(|i| {
            let dst = (i + shift) % hosts;
            if i % 2 == 0 {
                FlowSpec {
                    src: i,
                    dst,
                    pkt_bytes: DGRAM_BYTES,
                    kind: FlowKind::Rpc { count: rpcs },
                    tag: TAG_RPC,
                    start: SimTime::ZERO,
                }
            } else {
                FlowSpec {
                    src: i,
                    dst,
                    pkt_bytes: DGRAM_BYTES,
                    kind: FlowKind::Poisson {
                        mean_gap_ns: 4_000.0,
                        stop,
                        respond: false,
                    },
                    tag: TAG_STREAM,
                    start: SimTime::ZERO,
                }
            }
        })
        .collect();
    Inputs {
        workload: Workload::CompositeScale,
        seed,
        flows,
        horizon: SimTime::from_ns(stop.ns() + 50_000_000),
        window: stop,
    }
}

/// The simulator configuration a workload runs under.
pub fn sim_config(inputs: &Inputs) -> SimConfig {
    SimConfig {
        seed: inputs.seed,
        ecn_threshold_bytes: match inputs.workload {
            Workload::WebsearchDctcp => Some(DCTCP_K_BYTES),
            Workload::MeshPoisson | Workload::CompositeScale => None,
        },
        ..SimConfig::default()
    }
}

/// A built simulation, on either engine.
pub enum Engine {
    /// The single-threaded engine.
    Single(Box<Simulator>),
    /// The sharded engine.
    Sharded(Box<ShardedSim>),
}

impl Engine {
    /// Builds the engine over `net` (route tables are computed here).
    pub fn new(net: Network, cfg: SimConfig, kind: EngineKind) -> Engine {
        match kind {
            EngineKind::Single => Engine::Single(Box::new(Simulator::new(net, cfg))),
            EngineKind::Sharded(k) => Engine::Sharded(Box::new(ShardedSim::new(net, cfg, k))),
        }
    }

    /// Registers every generated flow, in order.
    pub fn add_flows(&mut self, hosts: &[NodeId], flows: &[FlowSpec]) {
        for f in flows {
            let (src, dst) = (hosts[f.src], hosts[f.dst]);
            match self {
                Engine::Single(s) => s.add_flow(src, dst, f.pkt_bytes, f.kind, f.tag, f.start),
                Engine::Sharded(s) => s.add_flow(src, dst, f.pkt_bytes, f.kind, f.tag, f.start),
            };
        }
    }

    /// Runs to `until` on `pool` (the single engine ignores the pool).
    pub fn run(&mut self, until: SimTime, pool: &ThreadPool) {
        match self {
            Engine::Single(s) => {
                s.run(until);
            }
            Engine::Sharded(s) => {
                s.run(until, pool);
            }
        }
    }

    /// The run's statistics.
    pub fn stats(&self) -> &Stats {
        match self {
            Engine::Single(s) => s.stats(),
            Engine::Sharded(s) => s.stats(),
        }
    }

    /// Completion log of the transport flows.
    pub fn completions(&self) -> &[FlowCompletion] {
        match self {
            Engine::Single(s) => s.flow_completions(),
            Engine::Sharded(s) => s.flow_completions(),
        }
    }

    /// Events processed so far.
    pub fn events(&self) -> u64 {
        match self {
            Engine::Single(s) => s.events_processed(),
            Engine::Sharded(s) => s.events_processed(),
        }
    }

    /// Simulated time of the last processed event.
    pub fn now(&self) -> SimTime {
        match self {
            Engine::Single(s) => s.now(),
            Engine::Sharded(s) => s.now(),
        }
    }

    /// Whether any event is still queued.
    pub fn pending(&mut self) -> bool {
        match self {
            Engine::Single(s) => s.has_pending_events(),
            Engine::Sharded(s) => s.has_pending_events(),
        }
    }

    /// Turns on the engine's metric counters.
    pub fn enable_metrics(&mut self) {
        match self {
            Engine::Single(s) => s.enable_metrics(),
            Engine::Sharded(s) => s.enable_metrics(),
        }
    }

    /// Detaches the metric counters.
    pub fn take_metrics(&mut self) -> Option<MetricsRegistry> {
        match self {
            Engine::Single(s) => s.take_metrics(),
            Engine::Sharded(s) => s.take_metrics(),
        }
    }

    /// Attaches an event recorder.
    pub fn set_recorder(&mut self, recorder: Box<dyn Recorder>) {
        match self {
            Engine::Single(s) => s.set_recorder(recorder),
            Engine::Sharded(s) => s.set_recorder(recorder),
        }
    }

    /// Detaches the event recorder.
    pub fn take_recorder(&mut self) -> Option<Box<dyn Recorder>> {
        match self {
            Engine::Single(s) => s.take_recorder(),
            Engine::Sharded(s) => s.take_recorder(),
        }
    }
}

/// Set-up: everything from the topology build to the first event.
pub fn setup(inputs: &Inputs, kind: EngineKind, size: Size) -> Engine {
    let (net, hosts) = build_fabric(inputs.workload, size);
    let mut engine = Engine::new(net, sim_config(inputs), kind);
    engine.add_flows(&hosts, &inputs.flows);
    engine
}

/// Latency samples under one statistics tag, ns.
#[derive(Clone, Copy, Debug)]
pub struct TagSummary {
    /// The tag.
    pub tag: u32,
    /// Number of samples.
    pub count: usize,
    /// Mean, as `f64` bits.
    pub mean_bits: u64,
    /// Median.
    pub p50: u64,
    /// 99th percentile.
    pub p99: u64,
    /// 99.9th percentile (0 until [`finish`] computes it; always 0 on
    /// `websearch_dctcp`).
    pub p999: u64,
    /// Maximum.
    pub max: u64,
}

/// What a run reports to its user.
#[derive(Clone, Debug)]
pub struct Report {
    /// Packets generated, delivered and dropped.
    pub generated: u64,
    /// Packets delivered.
    pub delivered: u64,
    /// Packets dropped.
    pub dropped: u64,
    /// Flows offered.
    pub flows: usize,
    /// Transport flows completed (0 for workloads without any).
    pub completed: usize,
    /// Latency summary of each statistics tag, in tag order.
    pub tags: Vec<TagSummary>,
    /// FCT per flow-size bucket (transport workloads only).
    pub buckets: Vec<BucketStat>,
    /// Simulated time of the last event, ns.
    pub end_ns: u64,
    /// Median and p99 FCT over every completed flow, ns.
    pub fct_p50_ns: u64,
    /// 99th-percentile FCT, ns.
    pub fct_p99_ns: u64,
}

impl Report {
    /// The tag whose latency the workload reports as packet latency.
    fn latency_tag(workload: Workload) -> u32 {
        match workload {
            Workload::CompositeScale => TAG_STREAM,
            Workload::MeshPoisson | Workload::WebsearchDctcp => 0,
        }
    }

    /// Median simulated latency the workload reports, ns: one-way
    /// packet latency, or FCT on `websearch_dctcp`.
    pub fn sim_p50_ns(&self, workload: Workload) -> u64 {
        match workload {
            Workload::WebsearchDctcp => self.fct_p50_ns,
            _ => self.tag(Self::latency_tag(workload)).map_or(0, |t| t.p50),
        }
    }

    /// Tail simulated latency, ns: p99.9 packet latency, or p99 FCT on
    /// `websearch_dctcp` (about a thousand flows put ten beyond p99).
    pub fn sim_tail_ns(&self, workload: Workload) -> u64 {
        match workload {
            Workload::WebsearchDctcp => self.fct_p99_ns,
            _ => self.tag(Self::latency_tag(workload)).map_or(0, |t| t.p999),
        }
    }

    /// The summary of `tag`, if it has samples.
    pub fn tag(&self, tag: u32) -> Option<&TagSummary> {
        self.tags.iter().find(|t| t.tag == tag)
    }

    /// `(attempted, failed)`: packets generated and dropped, or on
    /// `websearch_dctcp` flows offered and left unfinished.
    pub fn attempted_failed(&self, workload: Workload) -> (u64, u64) {
        match workload {
            Workload::WebsearchDctcp => (self.flows as u64, (self.flows - self.completed) as u64),
            _ => (self.generated, self.dropped),
        }
    }
}

/// The per-tag latency summaries (the `report.summary` layer): one
/// [`Stats::summary`] per tag. [`Stats`] exposes no per-tag p99.9, so
/// the p99.9 field is left 0 here; [`finish`] fills it in.
pub fn summarize(stats: &Stats) -> Vec<TagSummary> {
    stats
        .tags()
        .into_iter()
        .map(|tag| {
            let s = stats.summary(tag);
            TagSummary {
                tag,
                count: s.count,
                mean_bits: s.mean_ns.to_bits(),
                p50: s.p50_ns,
                p99: s.p99_ns,
                p999: 0,
                max: s.max_ns,
            }
        })
        .collect()
}

/// The exact p99.9 of the samples under `t`'s tag, from a 1 ns
/// histogram, by the same rounded nearest-rank rule as
/// [`Series::percentile`]. This is the benchmark's own tail
/// computation, never part of a timed report. It costs a bin per
/// nanosecond up to the maximum, so it suits packet latencies
/// (microseconds), not flow completion times.
fn exact_p999(stats: &Stats, t: &TagSummary) -> u64 {
    let bins = usize::try_from(t.max).expect("latency fits usize") + 1;
    let rank = ((t.count - 1) as f64 * 0.999).round() as usize;
    let mut seen = 0_usize;
    for (upper, count) in stats.histogram(t.tag, bins) {
        seen += count;
        if seen > rank {
            return upper - 1;
        }
    }
    t.max
}

/// The FCT report over the completion log (the `report.fct` layer):
/// per-size-bucket FCT and slowdown, and FCT percentiles over all
/// completed flows. Every host's access link runs at 10 Gb/s.
pub fn fct_report(inputs: &Inputs, completions: &[FlowCompletion]) -> (Vec<BucketStat>, u64, u64) {
    let mut acc = BucketAccum::default();
    let mut all = Series::default();
    for c in completions {
        let bytes = match inputs.flows[c.flow as usize].kind {
            FlowKind::Transport { total_bytes, .. } => total_bytes,
            _ => 0,
        };
        let ideal_ns = (bytes as f64 * 8.0 / 10.0).max(1.0);
        acc.record(bytes, c.fct_ns, ideal_ns as u64);
        all.record(c.fct_ns);
    }
    (acc.stats(), all.percentile(0.5), all.percentile(0.99))
}

/// The run's report: both summary layers over the engine's output.
pub fn report(
    inputs: &Inputs,
    stats: &Stats,
    completions: &[FlowCompletion],
    end: SimTime,
) -> Report {
    let tags = summarize(stats);
    let (buckets, fct_p50_ns, fct_p99_ns) = fct_report(inputs, completions);
    Report {
        generated: stats.generated,
        delivered: stats.delivered,
        dropped: stats.dropped,
        flows: inputs.flows.len(),
        completed: completions.len(),
        tags,
        buckets,
        end_ns: end.ns(),
        fct_p50_ns,
        fct_p99_ns,
    }
}

/// Checks a finished run and reports it, with the exact packet-latency
/// p99.9 of each tag: the run must be quiescent at its horizon, conserve
/// packets (generated = delivered + dropped), and
/// on `composite_scale` complete every RPC.
pub fn finish(inputs: &Inputs, engine: &mut Engine, gate: &mut Gate) -> (Report, Digest) {
    let name = inputs.workload.name();
    gate.check(!engine.pending(), || {
        format!("{name}: events still queued at the horizon")
    });
    let mut rep = report(inputs, engine.stats(), engine.completions(), engine.now());
    if inputs.workload != Workload::WebsearchDctcp {
        for t in &mut rep.tags {
            t.p999 = exact_p999(engine.stats(), t);
        }
    }
    gate.check(rep.generated == rep.delivered + rep.dropped, || {
        format!(
            "{name}: generated {} != delivered {} + dropped {}",
            rep.generated, rep.delivered, rep.dropped
        )
    });
    if inputs.workload == Workload::CompositeScale {
        let expected: usize = inputs
            .flows
            .iter()
            .map(|f| match f.kind {
                FlowKind::Rpc { count } => count as usize,
                _ => 0,
            })
            .sum();
        let done = rep.tag(TAG_RPC).map_or(0, |t| t.count);
        gate.check(done == expected, || {
            format!("{name}: {done} of {expected} RPCs completed")
        });
    }
    let digest = Digest::of(&rep, engine.events());
    (rep, digest)
}

/// A digest of the simulated output: named fields, so a mismatch names
/// what moved, and a hash to print.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Digest {
    /// `(field, value)` in a fixed order.
    pub fields: Vec<(String, u64)>,
}

impl Digest {
    /// Digest of one finished run.
    pub fn of(report: &Report, events: u64) -> Digest {
        let mut fields = vec![
            ("generated".to_string(), report.generated),
            ("delivered".to_string(), report.delivered),
            ("dropped".to_string(), report.dropped),
            ("events".to_string(), events),
            ("end_ns".to_string(), report.end_ns),
            ("completed".to_string(), report.completed as u64),
            ("fct_p50_ns".to_string(), report.fct_p50_ns),
            ("fct_p99_ns".to_string(), report.fct_p99_ns),
        ];
        for t in &report.tags {
            for (name, v) in [
                ("count", t.count as u64),
                ("mean_bits", t.mean_bits),
                ("p50_ns", t.p50),
                ("p99_ns", t.p99),
                ("p999_ns", t.p999),
                ("max_ns", t.max),
            ] {
                fields.push((format!("tag{}.{name}", t.tag), v));
            }
        }
        Digest { fields }
    }

    /// FNV-1a over the field values.
    pub fn hash(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325_u64;
        for (_, v) in &self.fields {
            for b in v.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        }
        h
    }

    /// The first field where `self` and `other` differ, if any.
    pub fn first_difference(&self, other: &Digest) -> Option<String> {
        if self.fields.len() != other.fields.len() {
            return Some(format!(
                "field count {} vs {}",
                self.fields.len(),
                other.fields.len()
            ));
        }
        self.fields
            .iter()
            .zip(&other.fields)
            .find(|(a, b)| a != b)
            .map(|(a, b)| format!("{}: {} vs {} ({})", a.0, a.1, b.1, b.0))
    }
}
