//! The discrete-event engine and its workload drivers.
//!
//! ## Timing model
//!
//! Every packet is tracked by the arrival times of its **head** and
//! **tail** at each node. A device adds its forwarding latency, then
//! queues the packet on the output port:
//!
//! * a **cut-through** switch may start transmitting `latency` after the
//!   head arrives — unless the output link is faster than the input (it
//!   would underrun), in which case it degrades to store-and-forward;
//! * a **store-and-forward** switch (and every host) waits for the tail;
//! * the output port serializes at link rate, FIFO, with a drop-tail
//!   byte-capacity bound;
//! * propagation delay is constant per link (datacenter cables are short).
//!
//! ## Workloads
//!
//! [`FlowKind`] covers every traffic shape in the paper: open-loop
//! Poisson streams (optionally echoed by the receiver, for
//! scatter/gather), closed-loop ping-pong RPC (the §6.1 Thrift
//! experiment), and bursty on/off sources (§6.1's Nuttcp cross-traffic:
//! "20 packet bursts that are separated by idle intervals, the duration
//! of which is selected to meet a target bandwidth").
//!
//! ## Determinism
//!
//! One seeded RNG; event ties break on a monotone sequence number; ECMP
//! picks by flow hash. Two runs with the same seed are bit-identical.

use crate::arena::{
    PacketArena, PacketCold, PacketId, FLAG_ECN, FLAG_LAST, FLAG_RESPONSE, FLAG_VLB_DECIDED,
};
use crate::faults::{FaultKind, FaultPlan};
use crate::sched::{BinaryHeapScheduler, Scheduler, SchedulerKind, TimingWheel};
use crate::stats::Stats;
use crate::switch::{ForwardMode, LatencyModel};
use crate::time::SimTime;
use crate::transport::{ReceiverState, SendAction, SenderState, TcpVariant, TransportInfo};
use quartz_core::rng::StdRng;
use quartz_obs::{DropReason, Event, MetricsRegistry, Recorder};
use quartz_topology::graph::{LinkId, Network, NodeId, NodeKind};
use quartz_topology::route::{FlatRoutes, RouteChange, RouteTable};
use std::collections::VecDeque;

/// Valiant load balancing configuration (§3.4).
#[derive(Clone, Debug)]
pub struct VlbConfig {
    /// Fraction of eligible packets detoured over a two-hop path.
    pub fraction: f64,
    /// The mesh domains (each a list of switches forming a full mesh —
    /// one entry per Quartz ring).
    pub domains: Vec<Vec<NodeId>>,
}

/// Simulator configuration.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// RNG seed; same seed ⇒ identical run.
    pub seed: u64,
    /// Drop-tail capacity of each output port, bytes.
    pub queue_cap_bytes: u64,
    /// Per-link propagation delay, ns.
    pub prop_delay_ns: u64,
    /// Device latency model.
    pub latency: LatencyModel,
    /// Optional VLB routing inside mesh domains.
    pub vlb: Option<VlbConfig>,
    /// ECN marking threshold (DCTCP's K): packets enqueued behind more
    /// than this many bytes are marked. `None` disables marking.
    pub ecn_threshold_bytes: Option<u64>,
    /// Transport retransmission timeout, ns.
    pub rto_ns: u64,
    /// Control-plane reconvergence delay: when a fault (or recovery)
    /// fires, routes are recomputed over the degraded network this many
    /// ns later. `None` (the default) models a static control plane —
    /// call [`Simulator::reroute`] by hand.
    pub reconvergence_ns: Option<u64>,
    /// Which event engine drives the run. The default
    /// [`SchedulerKind::TimingWheel`] and the reference
    /// [`SchedulerKind::BinaryHeap`] drain events in an identical
    /// order, so this knob changes wall time only — never output.
    pub scheduler: SchedulerKind,
    /// How back-to-back arrivals on one link are scheduled. Both modes
    /// process every arrival at exactly the same `(time, seq)` position
    /// (DESIGN.md §10), so this knob changes wall time only — never
    /// output.
    pub drain: DrainMode,
}

/// How arrivals queued back-to-back on one directed link are scheduled
/// (see [`SimConfig::drain`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DrainMode {
    /// One scheduler visit transmits a whole back-to-back run: packets
    /// that queue behind an in-progress transmission join a per-link
    /// batch, and a single sentinel event drains the run in-line,
    /// yielding back to the scheduler whenever any other event (a
    /// fault, an RTO, an arrival on another link) is due first. The
    /// default.
    #[default]
    Batched,
    /// One scheduler event per packet arrival — the reference schedule,
    /// kept for differential testing and A/B benches.
    PerPacket,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 1,
            queue_cap_bytes: 512 * 1024,
            prop_delay_ns: 50,
            latency: LatencyModel::paper(),
            vlb: None,
            ecn_threshold_bytes: None,
            rto_ns: 250_000,
            reconvergence_ns: None,
            scheduler: SchedulerKind::TimingWheel,
            drain: DrainMode::Batched,
        }
    }
}

/// A traffic source shape.
#[derive(Clone, Copy, Debug)]
pub enum FlowKind {
    /// Open-loop Poisson stream with the given mean inter-arrival gap.
    /// With `respond`, the receiver echoes every packet and the recorded
    /// latency is the round trip; otherwise one-way delivery latency.
    Poisson {
        /// Mean gap between packet emissions, ns.
        mean_gap_ns: f64,
        /// Stop emitting at this time.
        stop: SimTime,
        /// Echo each packet back to the sender.
        respond: bool,
    },
    /// Closed-loop ping-pong RPC: one outstanding request; the next is
    /// sent when the response arrives. Records round-trip latencies.
    Rpc {
        /// Total requests to issue.
        count: u32,
    },
    /// On/off source: `burst_pkts` back-to-back packets every
    /// `period_ns` (pick the period to hit a target mean bandwidth).
    Burst {
        /// Packets per burst.
        burst_pkts: u32,
        /// Time between burst starts, ns.
        period_ns: u64,
        /// Stop starting bursts at this time.
        stop: SimTime,
    },
    /// A one-shot file transfer: `total_bytes` split into packets of the
    /// flow's size, queued back-to-back at the start time. The recorded
    /// latency is the **flow completion time** (delivery of the final
    /// packet, measured from the start).
    FileTransfer {
        /// Total payload to move.
        total_bytes: u64,
    },
    /// A reliable, congestion-controlled transfer (Reno or DCTCP state
    /// machine from [`crate::transport`]). The recorded latency is the
    /// flow completion time (final cumulative ACK at the sender).
    Transport {
        /// Total payload to move.
        total_bytes: u64,
        /// Congestion-control variant.
        variant: TcpVariant,
    },
}

/// Per-flow metadata, fixed at [`Simulator::add_flow`]. `Copy`, so the
/// per-event handlers read it by value without cloning and stay free to
/// mutate the parallel [`FlowState`] table.
#[derive(Clone, Copy, Debug)]
struct FlowMeta {
    src: NodeId,
    dst: NodeId,
    size: u32,
    kind: FlowKind,
    tag: u32,
    hash: u64,
    /// Index into the dense connection table (`u32::MAX` for flows with
    /// no transport state) — interned at `add_flow` so the per-delivery
    /// lookup is one indexed load, not an `Option` walk.
    conn: u32,
}

/// Sentinel: this flow has no transport connection.
const NO_CONN: u32 = u32::MAX;

/// Per-flow mutable progress, parallel to the [`FlowMeta`] table.
#[derive(Clone, Debug)]
struct FlowState {
    sent: u32,
    /// First emission time (file transfers measure completion from it).
    t0: SimTime,
    /// Index into the simulator's extra route tables (SPAIN-style VLAN
    /// selection, §6); `None` = the default ECMP table.
    table: Option<usize>,
}

#[derive(Clone, Copy, Debug)]
enum EvKind {
    /// Emit the flow's next packet (or burst).
    Gen { flow: usize },
    /// Packet head arrives at a node; the tail follows `ser` ns later
    /// (the serialization time, which always fits 32 bits — reconstructed
    /// as `time + ser` at dispatch to keep the event at one word). The
    /// packet's fields live in the [`PacketArena`]; the event carries
    /// only its id.
    Head { pkt: PacketId, at: NodeId, ser: u32 },
    /// Sentinel for a non-empty per-link batch: drain the back-to-back
    /// run queued on directed link `slot`. Carries the `(time, seq)`
    /// key of the batch's first pending arrival, so it pops exactly
    /// where that arrival's own `Head` event would have.
    LinkDrain { slot: u32 },
    /// Both directions of a link fail (a fiber cut).
    FailLink { link: LinkId },
    /// A previously cut link carries traffic again.
    RecoverLink { link: LinkId },
    /// A switch dies: every frame arriving at it is lost.
    FailSwitch { node: NodeId },
    /// A dead switch comes back.
    RecoverSwitch { node: NodeId },
    /// Control-plane reconvergence completes: recompute routes over the
    /// surviving elements and close open [`FaultRecord`]s.
    Reroute,
    /// Transport retransmission timer for `flow`; ignored if `epoch` is
    /// stale. Both fields are narrowed to keep the event at 16 bytes;
    /// neither plausibly exceeds 32 bits in a simulation's lifetime.
    Rto { flow: u32, epoch: u32 },
}

/// One entry of the simulator's fault log: what failed (or recovered),
/// when, and what the outage cost before routes reconverged.
#[derive(Clone, Copy, Debug)]
pub struct FaultRecord {
    /// When the fault fired.
    pub at: SimTime,
    /// What happened.
    pub kind: FaultKind,
    /// When the control plane reconverged onto routes that account for
    /// this event (`None` while the outage is still unrepaired).
    pub reconverged_at: Option<SimTime>,
    /// Packets dropped anywhere in the network between the event and
    /// reconvergence (0 until reconvergence closes the record).
    pub drops_during_outage: u64,
    /// Total drops when the event fired, to difference against at close.
    pub(crate) baseline_drops: u64,
}

/// One entry of the simulator's flow-completion log: a managed flow
/// ([`FlowKind::Transport`] or [`FlowKind::FileTransfer`]) delivered its
/// last byte. See [`Simulator::flow_completions`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlowCompletion {
    /// Flow index (as returned by [`Simulator::add_flow`]).
    pub flow: u32,
    /// Flow completion time: open → last byte delivered, ns.
    pub fct_ns: u64,
}

/// The simulator's event engine: static dispatch over the two
/// [`Scheduler`] implementations (a `dyn` scheduler would cost a
/// virtual call per push/pop on the hottest loop in the workspace; the
/// enum costs one predictable branch).
enum EventQueue {
    Wheel(TimingWheel<EvKind>),
    Heap(BinaryHeapScheduler<EvKind>),
}

impl EventQueue {
    fn new(kind: SchedulerKind) -> Self {
        match kind {
            SchedulerKind::TimingWheel => EventQueue::Wheel(TimingWheel::new()),
            SchedulerKind::BinaryHeap => EventQueue::Heap(BinaryHeapScheduler::new()),
        }
    }

    #[inline]
    fn pop_before(&mut self, bound: SimTime) -> Option<(SimTime, EvKind)> {
        match self {
            EventQueue::Wheel(w) => w.pop_before(bound),
            EventQueue::Heap(h) => h.pop_before(bound),
        }
    }

    #[inline]
    fn reserve_seq(&mut self) -> u64 {
        match self {
            EventQueue::Wheel(w) => w.reserve_seq(),
            EventQueue::Heap(h) => h.reserve_seq(),
        }
    }

    #[inline]
    fn push_at_seq(&mut self, time: SimTime, seq: u64, kind: EvKind) {
        match self {
            EventQueue::Wheel(w) => w.push_at_seq(time, seq, kind),
            EventQueue::Heap(h) => h.push_at_seq(time, seq, kind),
        }
    }

    #[inline]
    fn peek_key(&mut self) -> Option<(SimTime, u64)> {
        match self {
            EventQueue::Wheel(w) => w.peek_key(),
            EventQueue::Heap(h) => h.peek_key(),
        }
    }

    #[inline]
    fn is_empty(&self) -> bool {
        match self {
            EventQueue::Wheel(w) => w.is_empty(),
            EventQueue::Heap(h) => h.is_empty(),
        }
    }
}

/// Per-direction link state. `pub(crate)` because the sharded engine
/// ([`crate::shard`]) reuses the exact same per-slot bookkeeping (and
/// must, for bit-identical serialization arithmetic).
#[derive(Clone, Debug)]
pub(crate) struct DirLink {
    pub(crate) rate_gbps: f64, // == bits per ns
    pub(crate) free_at: SimTime,
    /// Nanoseconds spent transmitting (for utilization reports).
    pub(crate) busy_ns: u64,
    /// Bytes transmitted.
    pub(crate) bytes: u64,
    /// A failed link silently drops everything queued onto it.
    pub(crate) failed: bool,
    /// Memoized serialization time for the last frame size sent (the
    /// rate is fixed per link and traffic is dominated by one or two
    /// sizes, so the `ceil(bits / rate)` float round-trip rarely
    /// recomputes). `ser_size == 0` means empty.
    pub(crate) ser_size: u32,
    pub(crate) ser_ns: u64,
}

impl DirLink {
    /// Serialization time for `size` bytes — the cached value when the
    /// size repeats, the identical f64 computation when it doesn't.
    #[inline]
    pub(crate) fn ser_ns(&mut self, size: u32) -> u64 {
        if self.ser_size != size {
            self.ser_size = size;
            self.ser_ns = ((size as f64 * 8.0) / self.rate_gbps).ceil() as u64;
        }
        self.ser_ns
    }
}

/// Per-direction transmission statistics for one link.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LinkLoad {
    /// Busy transmission time in the `a → b` direction, ns.
    pub ab_busy_ns: u64,
    /// Bytes sent `a → b`.
    pub ab_bytes: u64,
    /// Busy transmission time in the `b → a` direction, ns.
    pub ba_busy_ns: u64,
    /// Bytes sent `b → a`.
    pub ba_bytes: u64,
}

impl LinkLoad {
    /// Utilization of the busier direction over `elapsed` ns.
    pub fn peak_utilization(&self, elapsed_ns: u64) -> f64 {
        if elapsed_ns == 0 {
            0.0
        } else {
            self.ab_busy_ns.max(self.ba_busy_ns) as f64 / elapsed_ns as f64
        }
    }
}

/// The discrete-event simulator.
///
/// # Examples
///
/// ```
/// use quartz_netsim::sim::{FlowKind, SimConfig, Simulator};
/// use quartz_netsim::time::SimTime;
/// use quartz_topology::builders::prototype_quartz;
///
/// let p = prototype_quartz();
/// let mut sim = Simulator::new(p.net.clone(), SimConfig::default());
/// sim.add_flow(
///     p.hosts[0],
///     p.hosts[7],
///     400,
///     FlowKind::Rpc { count: 100 },
///     0,
///     SimTime::ZERO,
/// );
/// sim.run(SimTime::from_ms(10));
/// assert_eq!(sim.stats().summary(0).count, 100);
/// ```
pub struct Simulator {
    net: Network,
    table: RouteTable,
    cfg: SimConfig,
    flows: Vec<FlowMeta>,
    /// Mutable per-flow progress, parallel to `flows`.
    flow_state: Vec<FlowState>,
    links: Vec<DirLink>, // 2 per undirected link: [2l] = a→b, [2l+1] = b→a
    events: EventQueue,
    rng: StdRng,
    stats: Stats,
    now: SimTime,
    /// VLB domain index per node (`u32::MAX` = not in any domain).
    /// Dense so the per-packet membership test is one indexed load.
    vlb_domain: Vec<u32>,
    /// Whether any VLB domain exists at all; `false` short-circuits the
    /// per-hop membership load in non-VLB runs.
    vlb_enabled: bool,
    /// Scratch buffer for VLB intermediate candidates; reused across
    /// packets so the steady-state hot path allocates nothing.
    vlb_scratch: Vec<NodeId>,
    /// Scratch buffer for transport actions; reused (via `mem::take`)
    /// across transport events so the hot path allocates nothing.
    action_scratch: Vec<SendAction>,
    /// Dense transport connection table; `FlowMeta::conn` indexes it.
    conns: Vec<Conn>,
    /// In-flight packet store (struct-of-arrays; events carry ids).
    arena: PacketArena,
    /// Per-directed-link batch of pending arrivals ([`DrainMode::Batched`]):
    /// arena ids whose `(arr_head, arr_seq)` keys are strictly
    /// increasing per queue. Non-empty exactly while one
    /// [`EvKind::LinkDrain`] sentinel for the slot is queued (or being
    /// dispatched).
    link_q: Vec<VecDeque<PacketId>>,
    /// Arrival node of each directed link slot (`[2l]` = `a→b` arrives
    /// at `b`), precomputed so a drained batch entry needs no lookup.
    slot_dst: Vec<NodeId>,
    /// Events processed so far (queue pops + batched arrivals): the
    /// denominator-free half of the events/sec headline metric.
    events_processed: u64,
    /// CSR-flattened view of `table` — the per-hop lookup the forward
    /// path actually uses (no map walks, no adjacency scans).
    flat: FlatRoutes,
    /// Extra routing tables (per-VLAN spanning trees, §6's SPAIN
    /// technique); flows may pin themselves to one. Stored flattened.
    extra_flat: Vec<FlatRoutes>,
    /// Per-node failure state (only switches ever fail).
    failed_nodes: Vec<bool>,
    /// Dense per-node kind column ([`Network::node`] rows carry rack
    /// metadata the per-hop path never reads; this keeps the whole
    /// fleet's kinds in a cache line or two).
    node_kind: Vec<NodeKind>,
    /// Link/node failure state *as the routing table last saw it*.
    /// `complete_reroute` replays pending deltas against these so each
    /// incremental patch observes exactly the state the previous patch
    /// produced (faults and recoveries may interleave between reroutes).
    routed_link_failed: Vec<bool>,
    routed_node_failed: Vec<bool>,
    /// Fault deltas that have fired but are not yet reflected in
    /// `table`; drained by `complete_reroute`.
    pending_route_changes: Vec<FaultKind>,
    /// Every fault event that has fired, with reconvergence outcomes.
    fault_log: Vec<FaultRecord>,
    /// Completion log for end-to-end managed flows ([`FlowKind::Transport`]
    /// and [`FlowKind::FileTransfer`]), in completion order. `Stats`
    /// aggregates by tag; workload drivers need the per-flow completion
    /// times back (FCT, slowdown), so each is also logged here — one
    /// push per *flow*, not per packet, so it stays off the hot path.
    completions: Vec<FlowCompletion>,
    /// Observability: optional event sink. `None` (the default) keeps
    /// every emission site down to one branch.
    recorder: Option<Box<dyn Recorder>>,
    /// Observability: optional metrics registry.
    metrics: Option<MetricsRegistry>,
    /// Pre-rendered per-switch / per-slot metric label strings, grown
    /// off the hot path so forwarding never formats (see
    /// [`MetricLabels`]).
    labels: MetricLabels,
    /// `recorder.is_some() || metrics.is_some()`, maintained by the
    /// attach/detach methods.
    obs: bool,
}

/// Per-switch and per-directed-slot metric label caches. The labels
/// (`switch.NNN.forwarded`, `queue.linkNNNN.ab`, …) are deterministic
/// functions of the node/slot index, so they are rendered once, on
/// first use, and the forwarding path borrows the cached `&str` —
/// `format!` never runs per packet.
#[derive(Debug, Default)]
pub(crate) struct MetricLabels {
    /// `switch.{:03}.forwarded`, indexed by node id.
    switch_fwd: Vec<String>,
    /// `queue.link{:04}.{ab|ba}`, indexed by directed slot.
    queue: Vec<String>,
    /// `util.link{:04}.{ab|ba}`, indexed by directed slot.
    util: Vec<String>,
}

impl MetricLabels {
    pub(crate) fn switch_fwd(&mut self, node: u32) -> &str {
        while self.switch_fwd.len() <= node as usize {
            let n = self.switch_fwd.len();
            self.switch_fwd.push(format!("switch.{n:03}.forwarded"));
        }
        &self.switch_fwd[node as usize]
    }

    pub(crate) fn queue(&mut self, slot: u32) -> &str {
        Self::slot_label(&mut self.queue, "queue", slot)
    }

    pub(crate) fn util(&mut self, slot: u32) -> &str {
        Self::slot_label(&mut self.util, "util", slot)
    }

    /// Slot layout mirrors [`Simulator::links`]: `[2l]` = a→b (`ab`),
    /// `[2l+1]` = b→a (`ba`).
    fn slot_label<'a>(cache: &'a mut Vec<String>, prefix: &str, slot: u32) -> &'a str {
        while cache.len() <= slot as usize {
            let s = cache.len();
            let link_idx = s >> 1;
            let dir_tag = if s & 1 == 0 { "ab" } else { "ba" };
            cache.push(format!("{prefix}.link{link_idx:04}.{dir_tag}"));
        }
        &cache[slot as usize]
    }
}

/// One reliable connection's two endpoints plus its start time.
struct Conn {
    sender: SenderState,
    receiver: ReceiverState,
    t0: SimTime,
}

impl Simulator {
    /// Builds a simulator over `net` (routing tables are computed here).
    pub fn new(net: Network, cfg: SimConfig) -> Self {
        let table = RouteTable::all_shortest_paths(&net);
        let links = net
            .links()
            .flat_map(|l| {
                let d = DirLink {
                    rate_gbps: l.bandwidth_gbps,
                    free_at: SimTime::ZERO,
                    busy_ns: 0,
                    bytes: 0,
                    failed: false,
                    ser_size: 0,
                    ser_ns: 0,
                };
                [d.clone(), d]
            })
            .collect();
        let mut vlb_domain = vec![u32::MAX; net.node_count()];
        if let Some(v) = &cfg.vlb {
            assert!(
                (0.0..=1.0).contains(&v.fraction),
                "VLB fraction must be in 0..=1"
            );
            for (i, dom) in v.domains.iter().enumerate() {
                for &sw in dom {
                    vlb_domain[sw.0 as usize] = i as u32;
                }
            }
        }
        let rng = StdRng::seed_from_u64(cfg.seed);
        let failed_nodes = vec![false; net.node_count()];
        let node_kind: Vec<NodeKind> = net.nodes().map(|n| n.kind).collect();
        let routed_link_failed = vec![false; net.link_count()];
        let routed_node_failed = vec![false; net.node_count()];
        let flat = FlatRoutes::new(&table, &net);
        let events = EventQueue::new(cfg.scheduler);
        // Directed slot layout: [2l] = a→b (arrives at b), [2l+1] = b→a.
        let mut slot_dst = Vec::with_capacity(2 * net.link_count());
        for l in net.links() {
            slot_dst.push(l.b);
            slot_dst.push(l.a);
        }
        let link_q = vec![VecDeque::new(); 2 * net.link_count()];
        Simulator {
            net,
            table,
            cfg,
            flows: Vec::new(),
            flow_state: Vec::new(),
            links,
            events,
            rng,
            stats: Stats::default(),
            now: SimTime::ZERO,
            vlb_enabled: vlb_domain.iter().any(|&d| d != u32::MAX),
            vlb_domain,
            vlb_scratch: Vec::new(),
            action_scratch: Vec::new(),
            conns: Vec::new(),
            arena: PacketArena::new(),
            link_q,
            slot_dst,
            events_processed: 0,
            flat,
            extra_flat: Vec::new(),
            failed_nodes,
            node_kind,
            routed_link_failed,
            routed_node_failed,
            pending_route_changes: Vec::new(),
            fault_log: Vec::new(),
            completions: Vec::new(),
            recorder: None,
            metrics: None,
            labels: MetricLabels::default(),
            obs: false,
        }
    }

    /// Attaches an event recorder. Recording is observe-only: it never
    /// draws from the simulation RNG and never reorders events, so a
    /// run with any recorder produces the same [`Stats`] as a run with
    /// none (asserted by `faults::tests`).
    pub fn set_recorder(&mut self, recorder: Box<dyn Recorder>) {
        self.recorder = Some(recorder);
        self.obs = true;
    }

    /// Detaches the recorder; drain or flush it via `Recorder::finish`.
    pub fn take_recorder(&mut self) -> Option<Box<dyn Recorder>> {
        let r = self.recorder.take();
        self.obs = self.metrics.is_some();
        r
    }

    /// Enables metric collection (per-link queue/utilization series,
    /// per-switch forwarded/dropped counters, lifecycle totals).
    pub fn enable_metrics(&mut self) {
        if self.metrics.is_none() {
            self.metrics = Some(MetricsRegistry::new());
        }
        self.obs = true;
    }

    /// Detaches and returns the metrics registry.
    pub fn take_metrics(&mut self) -> Option<MetricsRegistry> {
        let m = self.metrics.take();
        self.obs = self.recorder.is_some();
        m
    }

    /// Whether any observability sink is attached (cached in a flag the
    /// per-hop path can test with one load — the `Option`s themselves
    /// live with the cold fields).
    #[inline]
    fn observing(&self) -> bool {
        self.obs
    }

    /// Feeds one event to the attached recorder, if any.
    #[inline]
    fn record(&mut self, ev: Event) {
        if let Some(r) = self.recorder.as_deref_mut() {
            r.record(&ev);
        }
    }

    /// Shared bookkeeping for every discard site in [`Simulator::forward`].
    /// Only called when observing.
    fn drop_hook(&mut self, flow: u32, at: NodeId, t: SimTime, reason: DropReason) {
        self.record(Event::Drop {
            t_ns: t.ns(),
            node: at.0,
            flow,
            reason,
        });
        if let Some(m) = self.metrics.as_mut() {
            m.inc("sim.packets.dropped", 1);
            m.inc(&format!("sim.drop.{}", reason.as_str()), 1);
            if self.net.node(at).kind.is_switch() {
                m.inc(&format!("switch.{:03}.dropped", at.0), 1);
            }
        }
    }

    /// Registers an additional routing table (e.g. a per-VLAN spanning
    /// tree from [`quartz_topology::spain::SpainFabric`]); returns its
    /// index for [`Simulator::pin_flow_to_table`].
    pub fn add_route_table(&mut self, table: RouteTable) -> usize {
        assert_eq!(
            table.node_count(),
            self.net.node_count(),
            "table must cover this network"
        );
        self.extra_flat.push(FlatRoutes::new(&table, &self.net));
        self.extra_flat.len() - 1
    }

    /// Pins a flow's packets to a previously registered table — the §6
    /// prototype's "an application can select a direct two-hop path or a
    /// specific indirect three-hop path by sending data on the
    /// corresponding virtual interface".
    pub fn pin_flow_to_table(&mut self, flow: usize, table: usize) {
        assert!(table < self.extra_flat.len(), "unknown table {table}");
        self.flow_state[flow].table = Some(table);
    }

    /// Registers a flow starting at `start`; returns its index.
    ///
    /// # Panics
    /// Panics if `src` or `dst` is not a host, or they coincide.
    pub fn add_flow(
        &mut self,
        src: NodeId,
        dst: NodeId,
        size_bytes: u32,
        kind: FlowKind,
        tag: u32,
        start: SimTime,
    ) -> usize {
        assert_ne!(src, dst, "flow endpoints must differ");
        assert!(
            self.net.node(src).kind == NodeKind::Host && self.net.node(dst).kind == NodeKind::Host,
            "flows run between hosts"
        );
        let idx = self.flows.len();
        let hash = self.rng.random::<u64>();
        let conn = match &kind {
            FlowKind::Transport {
                total_bytes,
                variant,
            } => {
                let pkts = total_bytes.div_ceil(u64::from(size_bytes)).max(1);
                self.conns.push(Conn {
                    sender: SenderState::new(*variant, pkts),
                    receiver: ReceiverState::default(),
                    t0: start,
                });
                debug_assert!(self.conns.len() <= u32::MAX as usize, "conn ids fit u32");
                (self.conns.len() - 1) as u32
            }
            _ => NO_CONN,
        };
        self.flows.push(FlowMeta {
            src,
            dst,
            size: size_bytes,
            kind,
            tag,
            hash,
            conn,
        });
        self.flow_state.push(FlowState {
            sent: 0,
            t0: start,
            table: None,
        });
        self.schedule(start, EvKind::Gen { flow: idx });
        idx
    }

    /// Enqueues a future simulator event. (Named `schedule` rather than
    /// `push` so hot-annotated callers read as scheduling, not as
    /// container growth.)
    #[inline]
    fn schedule(&mut self, time: SimTime, kind: EvKind) {
        let seq = self.events.reserve_seq();
        self.schedule_at_seq(time, seq, kind);
    }

    /// [`Simulator::schedule`] at a reserved `(time, seq)` key (the
    /// batched link drain's sentinels). Every event goes through here;
    /// none may land before `now`.
    #[inline]
    fn schedule_at_seq(&mut self, time: SimTime, seq: u64, kind: EvKind) {
        debug_assert!(
            time >= self.now,
            "event at {time:?} scheduled before now {:?}",
            self.now
        );
        self.events.push_at_seq(time, seq, kind);
    }

    /// Runs the simulation until `until` (events after it stay queued).
    /// Returns the accumulated statistics.
    pub fn run(&mut self, until: SimTime) -> &Stats {
        while let Some((time, kind)) = self.events.pop_before(until) {
            self.dispatch(time, kind, until, false);
        }
        // Leak check: at quiescence every arena slot must have been
        // freed (delivered or dropped). With events still queued past
        // `until`, live slots are exactly the in-flight packets, which
        // the event queue owns — only the empty-queue case is checkable
        // from here. The batch invariant makes the two equivalent: a
        // non-empty batch always keeps its sentinel queued.
        #[cfg(debug_assertions)]
        if self.events.is_empty() {
            let batched: usize = self.link_q.iter().map(|q| q.len()).sum();
            debug_assert_eq!(batched, 0, "batch entries without a drain sentinel");
            debug_assert_eq!(
                self.arena.live(),
                0,
                "packet arena leak: live slots at quiescence"
            );
        }
        &self.stats
    }

    /// Total simulated events processed so far: one per scheduler pop
    /// plus one per batched arrival (so the count is comparable across
    /// [`DrainMode`]s). The events/sec headline metric divides this by
    /// wall time.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Dispatches one popped event. `bound` is the caller's time bound
    /// (batch draining must not run past it); with `step`, a batch
    /// drain processes exactly one arrival before yielding, so callers
    /// that inspect state between events (e.g.
    /// [`Simulator::run_until_samples`]) observe the same boundaries as
    /// [`DrainMode::PerPacket`].
    // lint:hot
    fn dispatch(&mut self, time: SimTime, kind: EvKind, bound: SimTime, step: bool) {
        self.now = time;
        match kind {
            EvKind::LinkDrain { slot } => {
                self.drain_link(slot, bound, step);
                return;
            }
            _ => self.events_processed += 1,
        }
        match kind {
            EvKind::Gen { flow } => self.generate(flow, time),
            EvKind::Head { pkt, at, ser } => self.arrive(pkt, at, time, time + u64::from(ser)),
            EvKind::LinkDrain { .. } => unreachable!("handled above"),
            EvKind::FailLink { link } => self.on_fault(FaultKind::LinkDown(link)),
            EvKind::RecoverLink { link } => self.on_fault(FaultKind::LinkUp(link)),
            EvKind::FailSwitch { node } => self.on_fault(FaultKind::SwitchDown(node)),
            EvKind::RecoverSwitch { node } => self.on_fault(FaultKind::SwitchUp(node)),
            EvKind::Reroute => self.complete_reroute(),
            EvKind::Rto { flow, epoch } => {
                let flow = flow as usize;
                let conn = self.flows[flow].conn;
                if conn != NO_CONN {
                    let mut actions = std::mem::take(&mut self.action_scratch);
                    actions.clear();
                    self.conns[conn as usize]
                        .sender
                        .on_rto_into(u64::from(epoch), &mut actions);
                    self.apply_transport_actions(flow, time, &actions);
                    self.action_scratch = actions;
                }
            }
        }
    }

    /// Drains the batch queued on directed link `slot`, processing
    /// pending arrivals in-line while — and only while — each one's
    /// `(time, seq)` key precedes everything else in the event queue.
    /// Any earlier queued event (a fault, an RTO, an arrival on another
    /// link, a generation) re-arms the sentinel at the next entry's key
    /// and yields, so the global event order is exactly the
    /// [`DrainMode::PerPacket`] order — batch "termination" at ECN,
    /// fault, or dark-window boundaries falls out of the key merge
    /// rather than needing special cases.
    // lint:hot
    fn drain_link(&mut self, slot: u32, bound: SimTime, step: bool) {
        let at = self.slot_dst[slot as usize];
        loop {
            let Some(&id) = self.link_q[slot as usize].front() else {
                return;
            };
            let i = id as usize;
            let (head, seq) = (self.arena.arr_head[i], self.arena.arr_seq[i]);
            // Yield to the queue if anything there is due first, and to
            // the caller if the entry lies past its time bound; either
            // way the batch keeps exactly one sentinel, keyed like its
            // first pending arrival.
            let defer = head > bound || self.events.peek_key().is_some_and(|k| k < (head, seq));
            if defer {
                self.schedule_at_seq(head, seq, EvKind::LinkDrain { slot });
                return;
            }
            self.link_q[slot as usize].pop_front();
            let tail = self.arena.arr_tail[i];
            self.now = head;
            self.events_processed += 1;
            self.arrive(id, at, head, tail);
            if step {
                // One arrival per dispatch: re-arm for the rest.
                if let Some(&next) = self.link_q[slot as usize].front() {
                    let j = next as usize;
                    self.schedule_at_seq(
                        self.arena.arr_head[j],
                        self.arena.arr_seq[j],
                        EvKind::LinkDrain { slot },
                    );
                }
                return;
            }
        }
    }

    fn generate(&mut self, flow_idx: usize, now: SimTime) {
        // Metadata is `Copy`; mutable progress lives in `flow_state`, so
        // no per-event clone is needed to satisfy the borrow checker.
        let flow = self.flows[flow_idx];
        match flow.kind {
            FlowKind::Poisson {
                mean_gap_ns, stop, ..
            } => {
                if now >= stop {
                    return;
                }
                self.emit(flow_idx, now, false, None);
                let u: f64 = self.rng.random::<f64>().max(1e-12);
                let gap = (-mean_gap_ns * u.ln()).max(1.0) as u64;
                let next = now + gap;
                if next < stop {
                    self.schedule(next, EvKind::Gen { flow: flow_idx });
                }
            }
            FlowKind::Rpc { count } => {
                if self.flow_state[flow_idx].sent >= count {
                    return;
                }
                self.flow_state[flow_idx].sent += 1;
                self.emit(flow_idx, now, false, None);
            }
            FlowKind::Burst {
                burst_pkts,
                period_ns,
                stop,
            } => {
                if now >= stop {
                    return;
                }
                for _ in 0..burst_pkts {
                    self.emit(flow_idx, now, false, None);
                }
                let next = now + period_ns;
                if next < stop {
                    self.schedule(next, EvKind::Gen { flow: flow_idx });
                }
            }
            FlowKind::Transport { total_bytes, .. } => {
                // Connection start: open the window.
                let t0 = self.flow_state[flow_idx].t0;
                if t0 == SimTime::ZERO || now >= t0 {
                    let conn = flow.conn;
                    debug_assert_ne!(conn, NO_CONN, "transport flow has a connection");
                    if self.observing() {
                        debug_assert!(flow_idx <= u32::MAX as usize, "flow ids fit u32");
                        self.record(Event::FlowStart {
                            t_ns: now.ns(),
                            flow: flow_idx as u32,
                            src: flow.src.0,
                            dst: flow.dst.0,
                            bytes: total_bytes,
                        });
                    }
                    let mut actions = std::mem::take(&mut self.action_scratch);
                    actions.clear();
                    self.conns[conn as usize].sender.pump_into(&mut actions);
                    self.apply_transport_actions(flow_idx, now, &actions);
                    self.action_scratch = actions;
                }
            }
            FlowKind::FileTransfer { total_bytes } => {
                // Ideally paced transport: one packet per serialization
                // slot of the source's access link, so the transfer
                // never overflows its own output queue.
                let pkts64 = total_bytes.div_ceil(u64::from(flow.size)).max(1);
                debug_assert!(pkts64 <= u64::from(u32::MAX), "packet count fits u32");
                let pkts = pkts64 as u32;
                let sent = self.flow_state[flow_idx].sent;
                if sent >= pkts {
                    return;
                }
                if sent == 0 {
                    self.flow_state[flow_idx].t0 = now;
                    if self.observing() {
                        debug_assert!(flow_idx <= u32::MAX as usize, "flow ids fit u32");
                        self.record(Event::FlowStart {
                            t_ns: now.ns(),
                            flow: flow_idx as u32,
                            src: flow.src.0,
                            dst: flow.dst.0,
                            bytes: total_bytes,
                        });
                    }
                }
                self.flow_state[flow_idx].sent += 1;
                let is_last = sent + 1 == pkts;
                // The final packet carries the flow's start time so its
                // delivery latency *is* the flow completion time.
                let created = is_last.then(|| self.flow_state[flow_idx].t0);
                self.emit_inner(flow_idx, now, false, created, is_last);
                if !is_last {
                    let (_, link_id) = self.net.neighbors(flow.src)[0];
                    let rate = self.net.link(link_id).bandwidth_gbps;
                    let pace = ((flow.size as f64 * 8.0) / rate).ceil() as u64;
                    self.schedule(now + pace, EvKind::Gen { flow: flow_idx });
                }
            }
        }
    }

    /// Creates a packet for `flow` and starts it from its origin host.
    /// `created_override` preserves the original request timestamp on
    /// responses so the recorded latency is the full round trip.
    fn emit(
        &mut self,
        flow_idx: usize,
        now: SimTime,
        is_response: bool,
        created_override: Option<SimTime>,
    ) {
        self.emit_inner(flow_idx, now, is_response, created_override, false);
    }

    fn emit_inner(
        &mut self,
        flow_idx: usize,
        now: SimTime,
        is_response: bool,
        created_override: Option<SimTime>,
        is_last: bool,
    ) {
        let (f_src, f_dst, f_size, f_hash) = {
            let flow = &self.flows[flow_idx];
            (flow.src, flow.dst, flow.size, flow.hash)
        };
        let (origin, dst) = if is_response {
            (f_dst, f_src)
        } else {
            (f_src, f_dst)
        };
        let hash = if is_response {
            f_hash.rotate_left(17) ^ 0x9e37_79b9_7f4a_7c15
        } else {
            f_hash
        };
        let flags =
            if is_response { FLAG_RESPONSE } else { 0 } | if is_last { FLAG_LAST } else { 0 };
        debug_assert!(flow_idx <= u32::MAX as usize, "flow ids fit u32");
        let flow_id = flow_idx as u32;
        let id = self.arena.alloc(
            created_override.unwrap_or(now),
            dst,
            flow_id,
            f_size,
            hash,
            PacketCold {
                transport: TransportInfo::None,
                intermediate: None,
                flags,
                hops: 0,
            },
        );
        self.stats.generated += 1;
        if self.observing() {
            self.record(Event::Gen {
                t_ns: now.ns(),
                flow: flow_id,
                size_bytes: f_size,
                response: is_response,
            });
            if let Some(m) = self.metrics.as_mut() {
                m.inc("sim.packets.generated", 1);
            }
        }
        let t = now + self.cfg.latency.host_send_ns;
        self.arrive(id, origin, t, t);
    }

    /// Executes the transport state machine's requested actions.
    fn apply_transport_actions(&mut self, flow_idx: usize, now: SimTime, actions: &[SendAction]) {
        for &a in actions {
            match a {
                SendAction::SendData { seq } => {
                    let (src, size) = {
                        let f = &self.flows[flow_idx];
                        (f.src, f.size)
                    };
                    self.send_transport_packet(flow_idx, src, size, TransportInfo::Data(seq), now);
                }
                SendAction::ArmRto { epoch } => {
                    let at = now + self.cfg.rto_ns;
                    debug_assert!(epoch <= u64::from(u32::MAX));
                    self.schedule(
                        at,
                        EvKind::Rto {
                            flow: flow_idx as u32,
                            epoch: epoch as u32,
                        },
                    );
                }
                SendAction::Complete => {
                    let (tag, t0, total_bytes) = {
                        let f = &self.flows[flow_idx];
                        let total = match f.kind {
                            FlowKind::Transport { total_bytes, .. } => total_bytes,
                            _ => 0,
                        };
                        (f.tag, self.conns[f.conn as usize].t0, total)
                    };
                    let fct_ns = now.saturating_sub(t0);
                    self.stats.record(tag, fct_ns);
                    debug_assert!(flow_idx <= u32::MAX as usize, "flow ids fit u32");
                    let flow = flow_idx as u32;
                    self.completions.push(FlowCompletion { flow, fct_ns });
                    if self.observing() {
                        self.record(Event::FlowComplete {
                            t_ns: now.ns(),
                            flow,
                            fct_ns,
                            bytes: total_bytes,
                        });
                    }
                }
            }
        }
    }

    /// Injects one transport packet (data toward the flow's destination,
    /// ACKs back toward the source).
    fn send_transport_packet(
        &mut self,
        flow_idx: usize,
        origin: NodeId,
        size: u32,
        transport: TransportInfo,
        now: SimTime,
    ) {
        let flow = &self.flows[flow_idx];
        let (dst, hash) = match transport {
            TransportInfo::Ack { .. } => {
                (flow.src, flow.hash.rotate_left(17) ^ 0x9e37_79b9_7f4a_7c15)
            }
            _ => (flow.dst, flow.hash),
        };
        debug_assert!(flow_idx <= u32::MAX as usize, "flow ids fit u32");
        let flow_id = flow_idx as u32;
        let id = self.arena.alloc(
            now,
            dst,
            flow_id,
            size,
            hash,
            PacketCold {
                transport,
                intermediate: None,
                flags: 0,
                hops: 0,
            },
        );
        self.stats.generated += 1;
        if self.observing() {
            self.record(Event::Gen {
                t_ns: now.ns(),
                flow: flow_id,
                size_bytes: size,
                response: false,
            });
            if let Some(m) = self.metrics.as_mut() {
                m.inc("sim.packets.generated", 1);
            }
        }
        let t = now + self.cfg.latency.host_send_ns;
        self.arrive(id, origin, t, t);
    }

    /// Logs a file transfer's completion: appends to the FCT log and,
    /// when observing, records the `FlowComplete` event. Cold: runs
    /// once per flow, not per packet, so it may grow the log.
    fn log_file_completion(
        &mut self,
        flow_id: u32,
        delivered_at: SimTime,
        fct_ns: u64,
        bytes: u64,
    ) {
        self.completions.push(FlowCompletion {
            flow: flow_id,
            fct_ns,
        });
        if self.observing() {
            self.record(Event::FlowComplete {
                t_ns: delivered_at.ns(),
                flow: flow_id,
                fct_ns,
                bytes,
            });
        }
    }

    /// Handles a packet (arena slot `id`) whose head reached `at` at
    /// `head` (tail at `tail`): deliver or queue on the next output
    /// port. Every exit path either frees the slot (delivery, drops) or
    /// schedules its next arrival.
    // lint:hot
    fn arrive(&mut self, id: PacketId, at: NodeId, head: SimTime, tail: SimTime) {
        let i = id as usize;
        let flow_id = self.arena.flow[i];
        // A dead switch loses every frame that reaches it.
        if self.failed_nodes[at.0 as usize] {
            self.stats.dropped += 1;
            if self.observing() {
                self.drop_hook(flow_id, at, head, DropReason::DeadSwitch);
            }
            self.arena.free(id);
            return;
        }
        let node_kind = self.node_kind[at.0 as usize];
        let dst = self.arena.dst[i];

        // Delivery: copy what the handlers below need, then free the
        // slot up front — the LIFO free list hands the still-warm row
        // straight to the ACK or response this delivery may emit.
        if at == dst {
            debug_assert!(node_kind.is_host());
            let delivered_at = tail + self.cfg.latency.host_recv_ns;
            let size = self.arena.size[i];
            let created = self.arena.created[i];
            let cold = self.arena.cold[i];
            self.arena.free(id);
            self.stats.delivered += 1;
            let flow_idx = flow_id as usize;
            let (tag, kind) = {
                let f = &self.flows[flow_idx];
                (f.tag, f.kind)
            };
            // One stats-row lookup per delivery: decide up front whether
            // this delivery contributes a latency sample (responses and
            // one-way streams do; request legs awaiting a response,
            // transport segments, and non-final file packets don't).
            let is_response = cold.flags & FLAG_RESPONSE != 0;
            let latency_sample = match cold.transport {
                TransportInfo::None => {
                    if is_response {
                        Some(delivered_at.saturating_sub(created))
                    } else {
                        let completes = match kind {
                            FlowKind::Poisson { respond, .. } => !respond,
                            FlowKind::Rpc { .. } => false,
                            FlowKind::FileTransfer { .. } => cold.flags & FLAG_LAST != 0,
                            _ => true,
                        };
                        completes.then(|| delivered_at.saturating_sub(created))
                    }
                }
                _ => None,
            };
            self.stats
                .record_delivery(tag, u64::from(size), cold.hops, latency_sample);
            if self.observing() {
                self.record(Event::Deliver {
                    t_ns: delivered_at.ns(),
                    node: at.0,
                    flow: flow_id,
                    latency_ns: delivered_at.saturating_sub(created),
                    hops: cold.hops,
                });
                if let Some(m) = self.metrics.as_mut() {
                    m.inc("sim.packets.delivered", 1);
                }
            }
            // A file transfer's last packet closes the whole flow: log
            // its completion (transport flows log theirs at
            // `SendAction::Complete` instead).
            if let FlowKind::FileTransfer { total_bytes } = kind {
                if cold.flags & FLAG_LAST != 0 {
                    let fct_ns = delivered_at.saturating_sub(created);
                    self.log_file_completion(flow_id, delivered_at, fct_ns, total_bytes);
                }
            }
            match cold.transport {
                TransportInfo::Data(seq) => {
                    // Receiver: reassemble and send a cumulative ACK
                    // echoing this packet's ECN mark.
                    let conn = self.flows[flow_idx].conn;
                    debug_assert_ne!(conn, NO_CONN, "data packet without connection");
                    let ack = self.conns[conn as usize].receiver.on_data(seq);
                    self.send_transport_packet(
                        flow_idx,
                        dst,
                        64,
                        TransportInfo::Ack {
                            ack,
                            ecn_echo: cold.flags & FLAG_ECN != 0,
                        },
                        delivered_at,
                    );
                    return;
                }
                TransportInfo::Ack { ack, ecn_echo } => {
                    let conn = self.flows[flow_idx].conn;
                    debug_assert_ne!(conn, NO_CONN, "ack without connection");
                    let mut actions = std::mem::take(&mut self.action_scratch);
                    actions.clear();
                    self.conns[conn as usize]
                        .sender
                        .on_ack_into(ack, ecn_echo, &mut actions);
                    self.apply_transport_actions(flow_idx, delivered_at, &actions);
                    self.action_scratch = actions;
                    return;
                }
                TransportInfo::None => {}
            }
            if is_response {
                if let FlowKind::Rpc { count } = kind {
                    if self.flow_state[flow_idx].sent < count {
                        self.schedule(delivered_at, EvKind::Gen { flow: flow_idx });
                    }
                }
            } else {
                let responds = matches!(
                    kind,
                    FlowKind::Poisson { respond: true, .. } | FlowKind::Rpc { .. }
                );
                if responds {
                    self.emit(flow_idx, delivered_at, true, Some(created));
                }
            }
            return;
        }

        // Forwarding: the mutable fields (detour, flags, hash, hops)
        // work on copies and write back once, right before scheduling.
        let mut cold = self.arena.cold[i];
        let mut hash = self.arena.hash[i];
        let size = self.arena.size[i];

        // Routing target: detour intermediate first, then the real dst.
        if cold.intermediate == Some(at) {
            cold.intermediate = None;
        }

        // VLB decision at the mesh ingress switch. (`vlb_enabled` keeps
        // non-VLB runs — the common case — off the domain table
        // entirely; with no domains configured every lookup would miss
        // anyway.)
        let mut vlb_detour: Option<NodeId> = None;
        if self.vlb_enabled && cold.flags & FLAG_VLB_DECIDED == 0 && node_kind.is_switch() {
            let dom_idx = self.vlb_domain[at.0 as usize];
            if dom_idx != u32::MAX {
                cold.flags |= FLAG_VLB_DECIDED;
                if let Some((nh, _)) = self.flat.ecmp_next(at, dst, hash) {
                    if self.vlb_domain[nh.0 as usize] == dom_idx {
                        let vlb = self.cfg.vlb.as_ref().expect("domains imply config");
                        if self.rng.random::<f64>() < vlb.fraction {
                            let dom = &vlb.domains[dom_idx as usize];
                            self.vlb_scratch.clear();
                            self.vlb_scratch
                                .extend(dom.iter().copied().filter(|&w| w != at && w != nh));
                            if !self.vlb_scratch.is_empty() {
                                let w = self.vlb_scratch
                                    [self.rng.random_range(0..self.vlb_scratch.len())];
                                cold.intermediate = Some(w);
                                vlb_detour = Some(w);
                                // Per-packet spraying: differentiate the
                                // hash so detour packets of one flow use
                                // their own ECMP choices.
                                hash = self.rng.random::<u64>();
                            }
                        }
                    }
                }
            }
        }

        if self.observing() {
            if let Some(w) = vlb_detour {
                self.record(Event::Vlb {
                    t_ns: head.ns(),
                    node: at.0,
                    flow: flow_id,
                    via: w.0,
                });
                if let Some(m) = self.metrics.as_mut() {
                    m.inc("sim.vlb.detours", 1);
                }
            }
        }

        let target = cold.intermediate.unwrap_or(dst);
        // With no extra tables installed (the common case) every flow
        // routes by the default table — skip the per-flow indirection.
        let routing = if self.extra_flat.is_empty() {
            &self.flat
        } else {
            match self.flow_state[flow_id as usize].table {
                Some(t) => &self.extra_flat[t],
                None => &self.flat,
            }
        };
        // The flat table resolves the next hop *and* its directed link
        // slot in one indexed lookup — no adjacency scan per hop.
        let Some((next, slot)) = routing.ecmp_next(at, target, hash) else {
            self.stats.dropped += 1;
            if self.observing() {
                self.drop_hook(flow_id, at, head, DropReason::NoRoute);
            }
            self.arena.free(id);
            return;
        };
        let (failed, rate, free_at, ser_ns) = {
            let dl = &mut self.links[slot as usize];
            (dl.failed, dl.rate_gbps, dl.free_at, dl.ser_ns(size))
        };
        if failed {
            // A cut fiber: everything forwarded onto it is lost until
            // routes are recomputed (see [`Simulator::reroute`]).
            self.stats.dropped += 1;
            if self.observing() {
                self.drop_hook(flow_id, at, head, DropReason::DeadLink);
            }
            self.arena.free(id);
            return;
        }
        let inbound_ns = tail - head; // 0 at the origin host
        let mut forward_decision: Option<(ForwardMode, u64)> = None;
        let earliest = match node_kind {
            NodeKind::Host => {
                if inbound_ns == 0 {
                    // Origin host (head == tail only at emission; every
                    // real link adds ≥ 1 ns of serialization): send-side
                    // latency was applied in `emit`.
                    head
                } else {
                    // Relay host (server-centric designs): full stack.
                    tail + self.cfg.latency.host_recv_ns + self.cfg.latency.host_send_ns
                }
            }
            NodeKind::Switch(role) => {
                let spec = self.cfg.latency.spec_for(role);
                let mode = spec.forward_mode(inbound_ns, ser_ns);
                if self.observing() {
                    forward_decision = Some((mode, spec.latency_ns));
                }
                match mode {
                    ForwardMode::CutThrough => head + spec.latency_ns,
                    ForwardMode::StoreForward => tail + spec.latency_ns,
                }
            }
        };
        if let Some((mode, latency_ns)) = forward_decision {
            let cut_through = mode == ForwardMode::CutThrough;
            self.record(Event::Forward {
                t_ns: head.ns(),
                node: at.0,
                flow: flow_id,
                cut_through,
                latency_ns,
            });
            if let Some(m) = self.metrics.as_mut() {
                m.inc(
                    if cut_through {
                        "sim.forward.cut_through"
                    } else {
                        "sim.forward.store_forward"
                    },
                    1,
                );
            }
        }

        // Drop-tail check on the output port (skip the float math on
        // the common idle-port case — the backlog is exactly zero).
        let backlog_ns = free_at.saturating_sub(earliest);
        let backlog_bytes = if backlog_ns == 0 {
            0
        } else {
            (backlog_ns as f64 * rate / 8.0) as u64
        };
        if backlog_bytes > self.cfg.queue_cap_bytes {
            self.stats.dropped += 1;
            if self.observing() {
                self.drop_hook(flow_id, at, earliest, DropReason::QueueFull);
            }
            self.arena.free(id);
            return;
        }
        // DCTCP-style ECN: mark packets that queue behind more than K
        // bytes (instantaneous queue-length marking, as DCTCP specifies).
        if let Some(k) = self.cfg.ecn_threshold_bytes {
            if backlog_bytes > k {
                cold.flags |= FLAG_ECN;
            }
        }

        let start = if free_at > earliest {
            free_at
        } else {
            earliest
        };
        let done = start + ser_ns;
        let dl = &mut self.links[slot as usize];
        dl.free_at = done;
        dl.busy_ns += ser_ns;
        dl.bytes += u64::from(size);
        if self.observing() {
            let queue_bytes = backlog_bytes + u64::from(size);
            // Slot layout: [2l] = a→b, [2l+1] = b→a.
            let link_idx = slot >> 1;
            let to_b = slot & 1 == 0;
            self.record(Event::Enqueue {
                t_ns: earliest.ns(),
                node: at.0,
                link: link_idx,
                to_b,
                flow: flow_id,
                queue_bytes,
            });
            self.record(Event::Transmit {
                t_ns: start.ns(),
                link: link_idx,
                to_b,
                flow: flow_id,
                serialize_ns: ser_ns,
            });
            if let Some(m) = self.metrics.as_mut() {
                m.inc("sim.packets.forwarded", 1);
                if node_kind.is_switch() {
                    m.inc(self.labels.switch_fwd(at.0), 1);
                }
                m.observe(self.labels.queue(slot), earliest.ns(), queue_bytes);
                m.observe(self.labels.util(slot), start.ns(), ser_ns);
            }
        }
        let prop = self.cfg.prop_delay_ns;
        cold.hops += 1;
        self.arena.cold[i] = cold;
        self.arena.hash[i] = hash;
        let arr_head = start + prop;
        let arr_tail = done + prop;
        debug_assert_eq!(next, self.slot_dst[slot as usize]);
        debug_assert!(ser_ns <= u64::from(u32::MAX));
        let ser = ser_ns as u32;
        match self.cfg.drain {
            DrainMode::PerPacket => self.schedule(
                arr_head,
                EvKind::Head {
                    pkt: id,
                    at: next,
                    ser,
                },
            ),
            DrainMode::Batched => {
                let q_was_empty = self.link_q[slot as usize].is_empty();
                if q_was_empty && free_at <= earliest {
                    // Idle link: a lone arrival gets a plain event, so
                    // short queues pay no batch bookkeeping.
                    self.schedule(
                        arr_head,
                        EvKind::Head {
                            pkt: id,
                            at: next,
                            ser,
                        },
                    );
                } else {
                    // Queued behind an in-progress transmission (or an
                    // already-pending batch): reserve this arrival's
                    // `(time, seq)` key — identical to the key a plain
                    // push would have taken — and append. Keys are
                    // strictly increasing per slot because each start
                    // time is at least the predecessor's done time.
                    let seq = self.events.reserve_seq();
                    self.arena.arr_head[i] = arr_head;
                    self.arena.arr_tail[i] = arr_tail;
                    self.arena.arr_seq[i] = seq;
                    self.link_q[slot as usize].push_back(id);
                    if q_was_empty {
                        self.schedule_at_seq(arr_head, seq, EvKind::LinkDrain { slot });
                    }
                }
            }
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Completion log for managed flows ([`FlowKind::Transport`],
    /// [`FlowKind::FileTransfer`]), in completion order. Workload
    /// drivers join these against their own flow-index bookkeeping to
    /// compute per-flow FCT and slowdown; unmanaged kinds (Poisson,
    /// RPC, bursts) never appear.
    pub fn flow_completions(&self) -> &[FlowCompletion] {
        &self.completions
    }

    /// Number of flows registered so far.
    pub fn flow_count(&self) -> usize {
        self.flows.len()
    }

    /// Total payload bytes of a managed flow ([`FlowKind::Transport`] /
    /// [`FlowKind::FileTransfer`]); `None` for packet-stream kinds or an
    /// unknown index.
    pub fn flow_total_bytes(&self, flow: u32) -> Option<u64> {
        self.flows.get(flow as usize).and_then(|f| match f.kind {
            FlowKind::Transport { total_bytes, .. } => Some(total_bytes),
            FlowKind::FileTransfer { total_bytes } => Some(total_bytes),
            _ => None,
        })
    }

    /// A flow's `(src, dst)` hosts, or `None` for an unknown index.
    pub fn flow_endpoints(&self, flow: u32) -> Option<(NodeId, NodeId)> {
        self.flows.get(flow as usize).map(|f| (f.src, f.dst))
    }

    /// Feeds a caller-constructed event (e.g. a collective step
    /// boundary) to the attached recorder, if any. Drivers that stage
    /// work *around* the simulator use this to keep their milestones in
    /// the same ordered stream as the packet-level events.
    pub fn record_event(&mut self, ev: Event) {
        self.record(ev);
    }

    /// The time of the most recently processed event.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Runs until `count` samples exist under `tag` (e.g. that many RPCs
    /// have completed) or `deadline` passes; returns whether the target
    /// was reached. Enables staged, dependency-driven workloads: start a
    /// fan-out, wait for it, start the next stage at [`Simulator::now`].
    pub fn run_until_samples(&mut self, tag: u32, count: usize, deadline: SimTime) -> bool {
        while self.stats.count(tag) < count {
            let Some((time, kind)) = self.events.pop_before(deadline) else {
                return false;
            };
            // step = true: a batched drain yields after each arrival so
            // the sample count is checked at the same boundaries as the
            // per-packet schedule (no overshoot divergence).
            self.dispatch(time, kind, deadline, true);
        }
        true
    }

    /// Whether any events remain queued (packets in flight or future
    /// generations).
    pub fn has_pending_events(&self) -> bool {
        !self.events.is_empty()
    }

    /// Schedules a fiber cut: at `at`, both directions of `link` start
    /// dropping everything queued onto them (§3.5's failure model, live).
    pub fn fail_link_at(&mut self, link: LinkId, at: SimTime) {
        assert!((link.0 as usize) < self.net.link_count(), "unknown link");
        self.schedule(at, EvKind::FailLink { link });
    }

    /// Schedules the death of switch `node` at `at`: from then on, every
    /// frame arriving at (or queued through) it is lost.
    ///
    /// # Panics
    /// Panics if `node` is not a switch.
    pub fn fail_switch_at(&mut self, node: NodeId, at: SimTime) {
        assert!(
            self.net.node(node).kind.is_switch(),
            "only switches fail; {node:?} is a host"
        );
        self.schedule(at, EvKind::FailSwitch { node });
    }

    /// Schedules every event of a [`FaultPlan`]. With
    /// [`SimConfig::reconvergence_ns`] set, each fault (and recovery)
    /// triggers an automatic route recomputation that much later;
    /// otherwise call [`Simulator::reroute`] manually.
    ///
    /// # Panics
    /// Panics if the plan names an unknown link or a non-switch node.
    pub fn apply_fault_plan(&mut self, plan: &FaultPlan) {
        for ev in plan.events() {
            match ev.kind {
                FaultKind::LinkDown(link) => {
                    assert!((link.0 as usize) < self.net.link_count(), "unknown link");
                    self.schedule(ev.at, EvKind::FailLink { link });
                }
                FaultKind::LinkUp(link) => {
                    assert!((link.0 as usize) < self.net.link_count(), "unknown link");
                    self.schedule(ev.at, EvKind::RecoverLink { link });
                }
                FaultKind::SwitchDown(node) => {
                    assert!(
                        self.net.node(node).kind.is_switch(),
                        "only switches fail; {node:?} is a host"
                    );
                    self.schedule(ev.at, EvKind::FailSwitch { node });
                }
                FaultKind::SwitchUp(node) => {
                    assert!(
                        self.net.node(node).kind.is_switch(),
                        "only switches fail; {node:?} is a host"
                    );
                    self.schedule(ev.at, EvKind::RecoverSwitch { node });
                }
            }
        }
    }

    /// Applies one fault to the data plane and opens a log record. With
    /// auto-reconvergence configured, schedules the route recomputation.
    fn on_fault(&mut self, kind: FaultKind) {
        match kind {
            FaultKind::LinkDown(l) => {
                self.links[2 * l.0 as usize].failed = true;
                self.links[2 * l.0 as usize + 1].failed = true;
            }
            FaultKind::LinkUp(l) => {
                self.links[2 * l.0 as usize].failed = false;
                self.links[2 * l.0 as usize + 1].failed = false;
            }
            FaultKind::SwitchDown(n) => self.failed_nodes[n.0 as usize] = true,
            FaultKind::SwitchUp(n) => self.failed_nodes[n.0 as usize] = false,
        }
        self.pending_route_changes.push(kind);
        self.fault_log.push(FaultRecord {
            at: self.now,
            kind,
            reconverged_at: None,
            drops_during_outage: 0,
            baseline_drops: self.stats.dropped,
        });
        if self.observing() {
            let (kind_str, element) = match kind {
                FaultKind::LinkDown(l) => ("link_down", l.0),
                FaultKind::LinkUp(l) => ("link_up", l.0),
                FaultKind::SwitchDown(n) => ("switch_down", n.0),
                FaultKind::SwitchUp(n) => ("switch_up", n.0),
            };
            self.record(Event::Fault {
                t_ns: self.now.ns(),
                kind: kind_str,
                element,
            });
            if let Some(m) = self.metrics.as_mut() {
                m.inc(&format!("sim.fault.{kind_str}"), 1);
            }
        }
        if let Some(delay) = self.cfg.reconvergence_ns {
            self.schedule(self.now + delay, EvKind::Reroute);
        }
    }

    /// Recomputes the ECMP tables over the surviving links and switches
    /// only. Call after a failure event has fired to model control-plane
    /// reconvergence (or set [`SimConfig::reconvergence_ns`] to have it
    /// happen automatically); in-flight packets are unaffected.
    pub fn reroute(&mut self) {
        self.complete_reroute();
    }

    fn complete_reroute(&mut self) {
        // Incremental reconvergence: replay each pending fault delta as
        // a patch that recomputes only the destinations whose shortest
        // paths the delta can change. Each patch must observe the
        // failure state the *previous* patch produced (several deltas
        // may queue between reroutes, including a fault and its own
        // recovery), so the `routed_*` vectors advance delta by delta
        // rather than reading the live data plane.
        for kind in std::mem::take(&mut self.pending_route_changes) {
            let change = match kind {
                FaultKind::LinkDown(l) => {
                    self.routed_link_failed[l.0 as usize] = true;
                    RouteChange::LinkDown(l)
                }
                FaultKind::LinkUp(l) => {
                    self.routed_link_failed[l.0 as usize] = false;
                    RouteChange::LinkUp(l)
                }
                FaultKind::SwitchDown(n) => {
                    self.routed_node_failed[n.0 as usize] = true;
                    RouteChange::NodeDown(n)
                }
                FaultKind::SwitchUp(n) => {
                    self.routed_node_failed[n.0 as usize] = false;
                    RouteChange::NodeUp(n)
                }
            };
            let (rl, rn) = (&self.routed_link_failed, &self.routed_node_failed);
            self.table.patch(
                &self.net,
                change,
                |l| rl[l.0 as usize],
                |n| rn[n.0 as usize],
            );
        }
        #[cfg(debug_assertions)]
        {
            // Every delta has been replayed, so the patched table must
            // equal a from-scratch rebuild over the live failure state.
            let links = &self.links;
            let failed_nodes = &self.failed_nodes;
            let scratch = RouteTable::degraded(
                &self.net,
                |l| links[2 * l.0 as usize].failed,
                |n| failed_nodes[n.0 as usize],
            );
            debug_assert_eq!(
                self.table, scratch,
                "incremental route patch diverged from scratch rebuild"
            );
        }
        self.flat = FlatRoutes::new(&self.table, &self.net);
        let now = self.now;
        let dropped = self.stats.dropped;
        let mut resolved = 0u32;
        for r in self
            .fault_log
            .iter_mut()
            .filter(|r| r.reconverged_at.is_none())
        {
            r.reconverged_at = Some(now);
            r.drops_during_outage = dropped - r.baseline_drops;
            resolved += 1;
        }
        if self.observing() {
            self.record(Event::Reroute {
                t_ns: now.ns(),
                resolved,
            });
            if let Some(m) = self.metrics.as_mut() {
                m.inc("sim.reroutes", 1);
            }
        }
    }

    /// Every fault event that has fired so far, in firing order, with
    /// its measured reconvergence time and outage cost.
    pub fn fault_log(&self) -> &[FaultRecord] {
        &self.fault_log
    }

    /// Transmission statistics per link, in the network's link order.
    pub fn link_loads(&self) -> Vec<LinkLoad> {
        (0..self.net.link_count())
            .map(|i| LinkLoad {
                ab_busy_ns: self.links[2 * i].busy_ns,
                ab_bytes: self.links[2 * i].bytes,
                ba_busy_ns: self.links[2 * i + 1].busy_ns,
                ba_bytes: self.links[2 * i + 1].bytes,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::switch::{ARISTA_7150S, CISCO_NEXUS_7000};
    use quartz_topology::builders::{prototype_quartz, quartz_mesh, three_tier};
    use quartz_topology::graph::SwitchRole;

    /// Two hosts on one switch of the given role; returns (net, h1, h2).
    fn dumbbell(role: SwitchRole, gbps: f64) -> (Network, NodeId, NodeId) {
        let mut net = Network::new();
        let sw = net.add_switch(role, Some(0));
        let h1 = net.add_host(Some(0));
        let h2 = net.add_host(Some(0));
        net.connect(h1, sw, gbps);
        net.connect(h2, sw, gbps);
        (net, h1, h2)
    }

    fn no_prop_cfg() -> SimConfig {
        SimConfig {
            prop_delay_ns: 0,
            ..SimConfig::default()
        }
    }

    #[test]
    fn single_packet_cut_through_latency_is_exact() {
        // 400 B at 10 G: 320 ns serialization. Cut-through ULL adds
        // 380 ns; the two serializations pipeline, so the end-to-end
        // tail-arrival is 320 (first link) + 380 (switch) + 320 (second
        // link) − 320 (overlap) = 1020... precisely: head enters switch at
        // t=0 (sender starts transmitting at 0), switch starts at
        // head+380 = 380 — but our head timestamp is the *start of
        // transmission + prop*, so with prop=0: head_sw = 0, tail_sw =
        // 320; start_tx2 = 380; tail at h2 = 700.
        let (net, h1, h2) = dumbbell(SwitchRole::TopOfRack, 10.0);
        let mut sim = Simulator::new(net, no_prop_cfg());
        sim.add_flow(
            h1,
            h2,
            400,
            FlowKind::Poisson {
                mean_gap_ns: 1e9,
                stop: SimTime::from_ns(1),
                respond: false,
            },
            0,
            SimTime::ZERO,
        );
        sim.run(SimTime::from_ms(1));
        let s = sim.stats().summary(0);
        assert_eq!(s.count, 1);
        assert_eq!(s.mean_ns, (ARISTA_7150S.latency_ns + 320) as f64);
    }

    #[test]
    fn single_packet_store_and_forward_latency_is_exact() {
        // CCS: wait for tail (320) + 6 µs + second serialization 320.
        let (net, h1, h2) = dumbbell(SwitchRole::Core, 10.0);
        let mut sim = Simulator::new(net, no_prop_cfg());
        sim.add_flow(
            h1,
            h2,
            400,
            FlowKind::Poisson {
                mean_gap_ns: 1e9,
                stop: SimTime::from_ns(1),
                respond: false,
            },
            0,
            SimTime::ZERO,
        );
        sim.run(SimTime::from_ms(1));
        let s = sim.stats().summary(0);
        assert_eq!(s.count, 1);
        assert_eq!(s.mean_ns, (320 + CISCO_NEXUS_7000.latency_ns + 320) as f64);
    }

    #[test]
    fn md1_queueing_matches_theory() {
        // The §7 validation claim: Poisson arrivals, deterministic
        // service. At ρ = 0.5, M/D/1 mean wait = ρS/(2(1−ρ)) = S/2.
        let (net, h1, h2) = dumbbell(SwitchRole::TopOfRack, 10.0);
        let cfg = SimConfig {
            prop_delay_ns: 0,
            latency: LatencyModel::ideal(),
            ..SimConfig::default()
        };
        let mut sim = Simulator::new(net, cfg);
        let s_ns = 320.0; // 400 B at 10 Gb/s
        let rho = 0.5;
        sim.add_flow(
            h1,
            h2,
            400,
            FlowKind::Poisson {
                mean_gap_ns: s_ns / rho,
                stop: SimTime::from_ms(200),
                respond: false,
            },
            0,
            SimTime::ZERO,
        );
        sim.run(SimTime::from_ms(400));
        let got = sim.stats().summary(0);
        assert!(got.count > 100_000, "only {} samples", got.count);
        // Expected latency = wait + one serialization (the second link
        // pipelines behind the first under cut-through at equal rates).
        let theory = rho * s_ns / (2.0 * (1.0 - rho)) + s_ns;
        let rel_err = (got.mean_ns - theory).abs() / theory;
        assert!(
            rel_err < 0.03,
            "sim {} vs theory {theory} (rel err {rel_err})",
            got.mean_ns
        );
    }

    #[test]
    fn packet_conservation() {
        let q = prototype_quartz();
        let mut sim = Simulator::new(q.net.clone(), SimConfig::default());
        for (i, (&a, &b)) in q.hosts.iter().zip(q.hosts.iter().rev()).enumerate() {
            if a == b {
                continue;
            }
            sim.add_flow(
                a,
                b,
                400,
                FlowKind::Poisson {
                    mean_gap_ns: 5_000.0,
                    stop: SimTime::from_ms(1),
                    respond: false,
                },
                i as u32,
                SimTime::ZERO,
            );
        }
        // Run far past the stop time so everything drains.
        sim.run(SimTime::from_ms(10));
        let st = sim.stats();
        assert!(st.generated > 0);
        assert_eq!(st.generated, st.delivered + st.dropped);
        assert!(!sim.has_pending_events());
    }

    #[test]
    fn rpc_ping_pong_is_sequential_and_counted() {
        let (net, h1, h2) = dumbbell(SwitchRole::TopOfRack, 10.0);
        let mut sim = Simulator::new(net, no_prop_cfg());
        sim.add_flow(h1, h2, 100, FlowKind::Rpc { count: 500 }, 7, SimTime::ZERO);
        sim.run(SimTime::from_ms(100));
        let s = sim.stats().summary(7);
        assert_eq!(s.count, 500);
        // No cross-traffic: every RTT is identical.
        assert_eq!(s.ci95_ns, 0.0);
        assert_eq!(s.p99_ns as f64, s.mean_ns);
        // RTT = 2 × one-way (100 B at 10 G = 80 ns ser + 380 switch).
        assert_eq!(s.mean_ns, 2.0 * (380.0 + 80.0));
    }

    #[test]
    fn respond_flows_record_round_trips() {
        let (net, h1, h2) = dumbbell(SwitchRole::TopOfRack, 10.0);
        let mut sim = Simulator::new(net.clone(), no_prop_cfg());
        sim.add_flow(
            h1,
            h2,
            400,
            FlowKind::Poisson {
                mean_gap_ns: 100_000.0,
                stop: SimTime::from_ms(5),
                respond: true,
            },
            1,
            SimTime::ZERO,
        );
        sim.run(SimTime::from_ms(10));
        let rtt = sim.stats().summary(1);
        assert!(rtt.count > 10);
        assert_eq!(rtt.p50_ns, 2 * (380 + 320));
    }

    #[test]
    fn burst_source_hits_target_bandwidth() {
        // 20-packet bursts of 1500 B at 100 Mb/s mean: period =
        // 20×1500×8 / 0.1 Gb/s = 2.4 ms.
        let (net, h1, h2) = dumbbell(SwitchRole::TopOfRack, 1.0);
        let mut sim = Simulator::new(net, no_prop_cfg());
        sim.add_flow(
            h1,
            h2,
            1500,
            FlowKind::Burst {
                burst_pkts: 20,
                period_ns: 2_400_000,
                stop: SimTime::from_ms(240),
            },
            0,
            SimTime::ZERO,
        );
        sim.run(SimTime::from_ms(500));
        let st = sim.stats();
        // 100 bursts × 20 packets.
        assert_eq!(st.generated, 2_000);
        assert_eq!(st.delivered, 2_000);
        // Bandwidth check: 2000 × 1500 × 8 bits over 240 ms = 100 Mb/s.
        let gbps: f64 = (2_000.0 * 1_500.0 * 8.0) / 240e6;
        assert!((gbps - 0.1).abs() < 1e-9);
    }

    #[test]
    fn same_seed_is_bit_identical() {
        let run = || {
            let t = three_tier(2, 2, 2, 2, 10.0, 40.0);
            let mut sim = Simulator::new(t.net.clone(), SimConfig::default());
            for (i, &h) in t.hosts.iter().enumerate().skip(1) {
                sim.add_flow(
                    t.hosts[0],
                    h,
                    400,
                    FlowKind::Poisson {
                        mean_gap_ns: 2_000.0,
                        stop: SimTime::from_ms(2),
                        respond: false,
                    },
                    i as u32,
                    SimTime::ZERO,
                );
            }
            sim.run(SimTime::from_ms(4));
            (
                sim.stats().generated,
                sim.stats().delivered,
                sim.stats().summary(1),
            )
        };
        assert_eq!(run().2, run().2);
        let (g1, d1, _) = run();
        let (g2, d2, _) = run();
        assert_eq!((g1, d1), (g2, d2));
    }

    #[test]
    fn overload_drops_at_queue_capacity() {
        // Offer 2× the link rate: half the traffic must drop once the
        // 512 KiB port buffer fills, and delivered latency saturates at
        // the buffer's drain time.
        let (net, h1, h2) = dumbbell(SwitchRole::TopOfRack, 10.0);
        let mut sim = Simulator::new(net, no_prop_cfg());
        sim.add_flow(
            h1,
            h2,
            400,
            FlowKind::Poisson {
                mean_gap_ns: 160.0, // 2× overload of the 320 ns service
                stop: SimTime::from_ms(50),
                respond: false,
            },
            0,
            SimTime::ZERO,
        );
        sim.run(SimTime::from_ms(200));
        let st = sim.stats();
        assert!(st.dropped > 0, "expected drops under 2x overload");
        let loss = st.dropped as f64 / st.generated as f64;
        assert!((loss - 0.5).abs() < 0.03, "loss {loss}");
        // Max queueing ≈ cap / rate = 512 KiB × 8 / 10 Gb/s ≈ 419 µs.
        let s = st.summary(0);
        assert!(
            (s.max_ns as f64) < 1.1 * (512.0 * 1024.0 * 8.0 / 10.0) + 1_000.0,
            "max latency {} ns",
            s.max_ns
        );
    }

    #[test]
    fn vlb_spreads_pathological_traffic() {
        // 4-switch mesh at 10 G channels; hosts under S1 send 16 Gb/s
        // aggregate to hosts under S2. ECMP pins everything on the single
        // direct channel (overload); VLB at k=0.75 spreads over the
        // detours and relieves it.
        let run = |vlb: Option<VlbConfig>| {
            let q = quartz_mesh(4, 4, 10.0, 10.0);
            let cfg = SimConfig {
                vlb,
                ..SimConfig::default()
            };
            let mut sim = Simulator::new(q.net.clone(), cfg);
            for i in 0..4 {
                sim.add_flow(
                    q.hosts[i],     // under switch 0
                    q.hosts[4 + i], // under switch 1
                    400,
                    FlowKind::Poisson {
                        mean_gap_ns: 800.0, // 4 Gb/s per host
                        stop: SimTime::from_ms(4),
                        respond: false,
                    },
                    0,
                    SimTime::ZERO,
                );
            }
            sim.run(SimTime::from_ms(20));
            (sim.stats().summary(0).mean_ns, sim.stats().dropped)
        };
        let (ecmp_lat, ecmp_drops) = run(None);
        let q = quartz_mesh(4, 4, 10.0, 10.0);
        let (vlb_lat, vlb_drops) = run(Some(VlbConfig {
            fraction: 0.75,
            domains: vec![q.switches.clone()],
        }));
        assert!(
            ecmp_drops > 0,
            "16 Gb/s into a 10 G channel must drop under ECMP"
        );
        assert!(vlb_drops < ecmp_drops / 4, "{vlb_drops} vs {ecmp_drops}");
        assert!(
            vlb_lat < ecmp_lat / 2.0,
            "VLB {vlb_lat} should beat ECMP {ecmp_lat}"
        );
    }

    #[test]
    #[should_panic(expected = "flows run between hosts")]
    fn flows_require_hosts() {
        let q = prototype_quartz();
        let mut sim = Simulator::new(q.net.clone(), SimConfig::default());
        sim.add_flow(
            q.switches[0],
            q.hosts[0],
            400,
            FlowKind::Rpc { count: 1 },
            0,
            SimTime::ZERO,
        );
    }

    #[test]
    fn link_utilization_matches_offered_load() {
        // ρ = 0.5 Poisson load on the host uplink: measured busy time
        // over elapsed time converges to 0.5.
        let (net, h1, h2) = dumbbell(SwitchRole::TopOfRack, 10.0);
        let mut sim = Simulator::new(net, no_prop_cfg());
        sim.add_flow(
            h1,
            h2,
            400,
            FlowKind::Poisson {
                mean_gap_ns: 640.0,
                stop: SimTime::from_ms(50),
                respond: false,
            },
            0,
            SimTime::ZERO,
        );
        // Run past the stop time so the final packet drains off both
        // links; conservation below must not depend on where in the
        // pipeline the cutoff lands.
        sim.run(SimTime::from_ms(51));
        let loads = sim.link_loads();
        // Link 0 is h1→switch.
        let rho = loads[0].peak_utilization(50_000_000);
        assert!((rho - 0.5).abs() < 0.02, "measured utilization {rho}");
        // Bytes conservation: both links carried the same bytes.
        assert_eq!(
            loads[0].ab_bytes + loads[0].ba_bytes,
            loads[1].ab_bytes + loads[1].ba_bytes
        );
    }

    #[test]
    fn fiber_cut_drops_until_reroute() {
        // A mesh flow rides its direct channel; cut it mid-run: packets
        // drop (ECMP still points at the dead link). After reroute() the
        // flow resumes over a two-hop detour with higher latency.
        let q = quartz_mesh(4, 1, 10.0, 10.0);
        let mut sim = Simulator::new(q.net.clone(), no_prop_cfg());
        let stop = SimTime::from_ms(9);
        sim.add_flow(
            q.hosts[0],
            q.hosts[1],
            400,
            FlowKind::Poisson {
                mean_gap_ns: 10_000.0,
                stop,
                respond: false,
            },
            0,
            SimTime::ZERO,
        );
        let direct = q.net.link_between(q.switches[0], q.switches[1]).unwrap();
        sim.fail_link_at(direct, SimTime::from_ms(3));

        // Phase 1: healthy.
        sim.run(SimTime::from_ms(3));
        let delivered_before = sim.stats().delivered;
        assert!(delivered_before > 100);
        assert_eq!(sim.stats().dropped, 0);

        // Phase 2: cut, not yet rerouted — everything drops.
        sim.run(SimTime::from_ms(6));
        let dropped_mid = sim.stats().dropped;
        assert!(dropped_mid > 100, "expected drops after the cut");
        let delivered_mid = sim.stats().delivered;

        // Phase 3: reroute; delivery resumes via a detour (2 ring hops).
        sim.reroute();
        sim.run(SimTime::from_ms(20));
        let st = sim.stats();
        assert!(
            st.delivered > delivered_mid + 100,
            "rerouted traffic must flow"
        );
        assert_eq!(st.generated, st.delivered + st.dropped);
        // Detour latency exceeds the healthy 2-switch latency.
        let s = st.summary(0);
        assert!(s.max_ns > s.p50_ns, "detour packets are slower");
    }

    #[test]
    #[should_panic(expected = "unknown link")]
    fn failing_unknown_link_panics() {
        let (net, _, _) = dumbbell(SwitchRole::TopOfRack, 10.0);
        let mut sim = Simulator::new(net, SimConfig::default());
        sim.fail_link_at(quartz_topology::graph::LinkId(99), SimTime::ZERO);
    }

    #[test]
    fn file_transfer_completion_time_is_exact() {
        // 1 MB over one 10 G hop pair: FCT ≈ serialization of the whole
        // file at 10 Gb/s (the two links pipeline) + switch latency.
        let (net, h1, h2) = dumbbell(SwitchRole::TopOfRack, 10.0);
        let mut sim = Simulator::new(net, no_prop_cfg());
        let total: u64 = 1_000_000;
        sim.add_flow(
            h1,
            h2,
            1_000,
            FlowKind::FileTransfer { total_bytes: total },
            3,
            SimTime::ZERO,
        );
        sim.run(SimTime::from_ms(100));
        let s = sim.stats().summary(3);
        assert_eq!(s.count, 1, "exactly one completion sample");
        let expect = total as f64 * 8.0 / 10.0 // whole-file serialization
            + 380.0 // switch latency
            + 800.0; // last packet's second serialization
        let got = s.mean_ns;
        assert!(
            (got - expect).abs() / expect < 0.01,
            "FCT {got} vs expected {expect}"
        );
        assert_eq!(sim.stats().delivered, 1_000);
    }

    #[test]
    fn competing_transfers_roughly_double_completion() {
        let (net, h1, h2) = dumbbell(SwitchRole::TopOfRack, 10.0);
        // Two senders? The dumbbell has two hosts; compete on the
        // switch→h2 downlink by sending both directions... instead: two
        // transfers from the same source share its uplink FIFO: the
        // second finishes ~2x later.
        let mut sim = Simulator::new(net, no_prop_cfg());
        for tag in [0u32, 1] {
            sim.add_flow(
                h1,
                h2,
                1_000,
                FlowKind::FileTransfer {
                    total_bytes: 500_000,
                },
                tag,
                SimTime::ZERO,
            );
        }
        sim.run(SimTime::from_ms(100));
        // Fair FIFO interleaving at the shared uplink: both transfers
        // take ~2x their solo completion time (400 µs solo for 500 kB at
        // 10 Gb/s).
        let solo_ns = 500_000.0 * 8.0 / 10.0;
        for tag in [0u32, 1] {
            let fct = sim.stats().summary(tag).mean_ns;
            let ratio = fct / solo_ns;
            assert!(
                (1.8..2.2).contains(&ratio),
                "tag {tag}: FCT {fct} is {ratio:.2}x solo"
            );
        }
    }

    #[test]
    fn reno_transfer_completes_with_reasonable_fct() {
        let (net, h1, h2) = dumbbell(SwitchRole::TopOfRack, 10.0);
        let mut sim = Simulator::new(net, no_prop_cfg());
        let total: u64 = 1_000_000;
        sim.add_flow(
            h1,
            h2,
            1_000,
            FlowKind::Transport {
                total_bytes: total,
                variant: TcpVariant::Reno,
            },
            0,
            SimTime::ZERO,
        );
        sim.run(SimTime::from_ms(200));
        let s = sim.stats().summary(0);
        assert_eq!(s.count, 1, "transfer must complete");
        // Ideal paced FCT is ~800 µs; slow start costs some RTTs but the
        // uncontended transfer should finish within 2x of ideal.
        let ideal = total as f64 * 8.0 / 10.0;
        assert!(
            s.mean_ns > ideal && s.mean_ns < 2.0 * ideal,
            "FCT {} vs ideal {ideal}",
            s.mean_ns
        );
        assert_eq!(sim.stats().dropped, 0);
    }

    #[test]
    fn competing_reno_flows_share_roughly_fairly() {
        let (net, h1, h2) = dumbbell(SwitchRole::TopOfRack, 10.0);
        let mut sim = Simulator::new(net, no_prop_cfg());
        for tag in [0u32, 1] {
            sim.add_flow(
                h1,
                h2,
                1_000,
                FlowKind::Transport {
                    total_bytes: 500_000,
                    variant: TcpVariant::Reno,
                },
                tag,
                SimTime::ZERO,
            );
        }
        sim.run(SimTime::from_ms(500));
        let a = sim.stats().summary(0);
        let b = sim.stats().summary(1);
        assert_eq!(a.count + b.count, 2, "both transfers complete");
        let ratio = a.mean_ns.max(b.mean_ns) / a.mean_ns.min(b.mean_ns);
        assert!(ratio < 2.5, "unfair split: {ratio:.2}x");
    }

    #[test]
    fn dctcp_avoids_the_drops_reno_takes_on_incast() {
        // 4 senders slow-start into one receiver downlink. Reno grows
        // until the drop-tail queue overflows; DCTCP backs off at the
        // ECN threshold and never drops. (§2.1.4's DCTCP, quantified.)
        let run = |variant: TcpVariant, ecn: Option<u64>| {
            let mut net = Network::new();
            let sw = net.add_switch(SwitchRole::TopOfRack, Some(0));
            let dst = net.add_host(Some(0));
            net.connect(dst, sw, 10.0);
            let senders: Vec<NodeId> = (0..4)
                .map(|_| {
                    let h = net.add_host(Some(0));
                    net.connect(h, sw, 10.0);
                    h
                })
                .collect();
            let mut sim = Simulator::new(
                net,
                SimConfig {
                    prop_delay_ns: 0,
                    ecn_threshold_bytes: ecn,
                    queue_cap_bytes: 128 * 1024,
                    ..SimConfig::default()
                },
            );
            for (i, &s) in senders.iter().enumerate() {
                sim.add_flow(
                    s,
                    dst,
                    1_000,
                    FlowKind::Transport {
                        total_bytes: 2_000_000,
                        variant,
                    },
                    i as u32,
                    SimTime::ZERO,
                );
            }
            sim.run(SimTime::from_ms(2_000));
            let completions: usize = (0..4).map(|t| sim.stats().summary(t).count).sum();
            (completions, sim.stats().dropped)
        };
        let (reno_done, reno_drops) = run(TcpVariant::Reno, None);
        let (dctcp_done, dctcp_drops) = run(TcpVariant::Dctcp, Some(65_000));
        assert_eq!(reno_done, 4);
        assert_eq!(dctcp_done, 4);
        assert!(reno_drops > 0, "Reno incast should overflow the queue");
        assert!(
            dctcp_drops < reno_drops / 4,
            "DCTCP drops {dctcp_drops} vs Reno {reno_drops}"
        );
    }

    #[test]
    fn transport_survives_loss_via_retransmission() {
        // Force drops with a tiny queue: the transfer must still
        // complete (fast retransmit / RTO recovery).
        let (net, h1, h2) = dumbbell(SwitchRole::TopOfRack, 10.0);
        let mut sim = Simulator::new(
            net,
            SimConfig {
                prop_delay_ns: 0,
                queue_cap_bytes: 8_000, // 8 packets
                ..SimConfig::default()
            },
        );
        sim.add_flow(
            h1,
            h2,
            1_000,
            FlowKind::Transport {
                total_bytes: 300_000,
                variant: TcpVariant::Reno,
            },
            0,
            SimTime::ZERO,
        );
        sim.run(SimTime::from_ms(5_000));
        assert_eq!(
            sim.stats().summary(0).count,
            1,
            "must complete despite loss"
        );
        assert!(sim.stats().dropped > 0, "the tiny queue must have dropped");
    }

    #[test]
    fn spain_vlan_selection_controls_the_path() {
        // §6: the prototype picks a direct two-switch path or an indirect
        // three-switch path by choosing the VLAN (spanning-tree root).
        // Each VLAN is measured in its own run so the two RPCs don't
        // collide on the shared host uplink.
        use quartz_topology::spain::SpainFabric;
        let rtt_on_vlan = |vlan: usize| {
            let p = prototype_quartz();
            let spain = SpainFabric::per_switch(&p.net);
            let mut sim = Simulator::new(p.net.clone(), no_prop_cfg());
            let t = sim.add_route_table(spain.table(vlan).clone());
            let f = sim.add_flow(
                p.hosts[2],
                p.hosts[4],
                100,
                FlowKind::Rpc { count: 50 },
                0,
                SimTime::ZERO,
            );
            sim.pin_flow_to_table(f, t);
            sim.run(SimTime::from_ms(50));
            let s = sim.stats().summary(0);
            assert_eq!(s.count, 50);
            s.mean_ns
        };
        let detour = rtt_on_vlan(0); // tree rooted at S1: S2→S1→S3
        let direct = rtt_on_vlan(1); // tree rooted at S2: S2→S3
                                     // The detour crosses one extra cut-through switch each way:
                                     // 2 × 380 ns slower (serialization pipelines under cut-through).
        let delta = detour - direct;
        assert!(
            (delta - 2.0 * 380.0).abs() < 1.0,
            "detour delta {delta} ns (direct {direct}, detour {detour})"
        );
    }

    #[test]
    #[should_panic(expected = "unknown table")]
    fn pinning_to_missing_table_panics() {
        let p = prototype_quartz();
        let mut sim = Simulator::new(p.net.clone(), SimConfig::default());
        let f = sim.add_flow(
            p.hosts[0],
            p.hosts[2],
            100,
            FlowKind::Rpc { count: 1 },
            0,
            SimTime::ZERO,
        );
        sim.pin_flow_to_table(f, 3);
    }

    #[test]
    fn auto_reconvergence_reroutes_and_logs_the_outage() {
        // Same fiber cut as above, but the control plane reconverges by
        // itself 100 µs after the fault; the log records exactly that.
        let q = quartz_mesh(4, 1, 10.0, 10.0);
        let mut sim = Simulator::new(
            q.net.clone(),
            SimConfig {
                reconvergence_ns: Some(100_000),
                ..no_prop_cfg()
            },
        );
        let stop = SimTime::from_ms(9);
        sim.add_flow(
            q.hosts[0],
            q.hosts[1],
            400,
            FlowKind::Poisson {
                mean_gap_ns: 10_000.0,
                stop,
                respond: false,
            },
            0,
            SimTime::ZERO,
        );
        let direct = q.net.link_between(q.switches[0], q.switches[1]).unwrap();
        let cut_at = SimTime::from_ms(3);
        let mut plan = FaultPlan::new();
        plan.link_down(direct, cut_at);
        sim.apply_fault_plan(&plan);
        sim.run(SimTime::from_ms(9));

        let log = sim.fault_log();
        assert_eq!(log.len(), 1);
        let rec = &log[0];
        assert_eq!(rec.at, cut_at);
        assert_eq!(rec.kind, FaultKind::LinkDown(direct));
        assert_eq!(
            rec.reconverged_at.map(|t| t - rec.at),
            Some(100_000),
            "reconvergence fires exactly the configured delay later"
        );
        // ~10 packets emitted during the 100 µs blackhole window.
        assert!(rec.drops_during_outage > 0, "outage must cost packets");
        let st = sim.stats();
        assert_eq!(st.dropped, rec.drops_during_outage, "no drops elsewhere");
        assert!(
            st.delivered > 100 + rec.drops_during_outage,
            "traffic resumes over the detour after reconvergence"
        );
    }

    #[test]
    fn switch_death_blackholes_traffic_until_recovery() {
        // Kill the destination's switch mid-run: even after reconverging
        // there is no route, so everything drops; bring it back and the
        // next reconvergence restores delivery.
        let q = quartz_mesh(5, 1, 10.0, 10.0);
        let mut sim = Simulator::new(
            q.net.clone(),
            SimConfig {
                reconvergence_ns: Some(10_000),
                ..no_prop_cfg()
            },
        );
        sim.add_flow(
            q.hosts[0],
            q.hosts[2],
            400,
            FlowKind::Poisson {
                mean_gap_ns: 10_000.0,
                stop: SimTime::from_ms(12),
                respond: false,
            },
            0,
            SimTime::ZERO,
        );
        let mut plan = FaultPlan::new();
        plan.switch_down(q.switches[2], SimTime::from_ms(3))
            .switch_up(q.switches[2], SimTime::from_ms(6));
        sim.apply_fault_plan(&plan);

        sim.run(SimTime::from_ms(6));
        let mid = sim.stats().clone();
        assert!(mid.dropped > 100, "dead switch blackholes its hosts");
        let healthy = sim.stats().delivered;

        sim.run(SimTime::from_ms(20));
        let st = sim.stats();
        assert!(
            st.delivered > healthy + 100,
            "delivery resumes after the switch recovers"
        );
        assert_eq!(st.generated, st.delivered + st.dropped);
        let log = sim.fault_log();
        assert_eq!(log.len(), 2);
        assert!(log.iter().all(|r| r.reconverged_at.is_some()));
    }

    #[test]
    #[should_panic(expected = "only switches fail")]
    fn failing_a_host_panics() {
        let (net, h1, _) = dumbbell(SwitchRole::TopOfRack, 10.0);
        let mut sim = Simulator::new(net, SimConfig::default());
        sim.fail_switch_at(h1, SimTime::ZERO);
    }

    #[test]
    fn hop_counts_match_path_length_and_stretch_on_detour() {
        // Mesh path h0 → sw0 → sw1 → h1 is 3 links; after the direct
        // channel dies the detour h0 → sw0 → swX → sw1 → h1 is 4.
        let q = quartz_mesh(4, 1, 10.0, 10.0);
        let mut sim = Simulator::new(
            q.net.clone(),
            SimConfig {
                reconvergence_ns: Some(1_000),
                ..no_prop_cfg()
            },
        );
        let cut_at = SimTime::from_ms(3);
        // The post-cut flow starts after the 1 µs reconvergence window so
        // every one of its packets rides the recomputed detour.
        for (tag, start, stop) in [
            (0u32, SimTime::ZERO, cut_at),
            (1, cut_at + 2_000, SimTime::from_ms(6)),
        ] {
            sim.add_flow(
                q.hosts[0],
                q.hosts[1],
                400,
                FlowKind::Poisson {
                    mean_gap_ns: 10_000.0,
                    stop,
                    respond: false,
                },
                tag,
                start,
            );
        }
        let direct = q.net.link_between(q.switches[0], q.switches[1]).unwrap();
        sim.fail_link_at(direct, cut_at);
        sim.run(SimTime::from_ms(10));
        let st = sim.stats();
        assert_eq!(st.mean_hops(0), 3.0, "direct mesh path is 3 links");
        assert_eq!(st.mean_hops(1), 4.0, "the detour adds exactly one hop");
        assert_eq!(st.hop_distribution(0), vec![(3, st.count(0))]);
    }

    #[test]
    fn cut_first_parallel_link_reconverges_onto_the_surviving_one() {
        // Two links join each leaf–spine pair. Every ECMP entry toward
        // the spine names the first link while it is up; once it is cut
        // and routes reconverge, the entries must take the parallel
        // link, not forward onto the dead one.
        use quartz_obs::{DropReason, Event, MemoryRecorder};
        use quartz_topology::builders::leaf_spine;

        let ls = leaf_spine(2, 1, 2, 2, 10.0);
        let mut sim = Simulator::new(
            ls.net.clone(),
            SimConfig {
                reconvergence_ns: Some(1_000),
                ..no_prop_cfg()
            },
        );
        sim.set_recorder(Box::new(MemoryRecorder::new()));
        let cut_at = SimTime::from_us(200);
        let settled = cut_at + 2_000;
        for (i, (&src, &dst)) in ls.hosts[..2].iter().zip(&ls.hosts[2..]).enumerate() {
            for (src, dst) in [(src, dst), (dst, src)] {
                sim.add_flow(
                    src,
                    dst,
                    400,
                    FlowKind::Poisson {
                        mean_gap_ns: 2_000.0,
                        stop: SimTime::from_us(600),
                        respond: false,
                    },
                    0,
                    SimTime::from_ns(i as u64 * 100),
                );
            }
        }
        let first = ls.net.link_between(ls.leaves[0], ls.spines[0]).unwrap();
        sim.fail_link_at(first, cut_at);
        sim.run(SimTime::from_ms(2));
        let events = sim.take_recorder().unwrap().finish();
        let dead_link_drops = |after: SimTime| {
            events
                .iter()
                .filter(|e| {
                    matches!(e, Event::Drop { t_ns, reason: DropReason::DeadLink, .. }
                        if *t_ns >= after.ns())
                })
                .count()
        };
        assert_eq!(dead_link_drops(settled), 0, "forwarded onto the cut link");
        assert!(sim.stats().count(0) > 500, "traffic kept flowing");
    }

    /// The incremental-reroute invariant, pinned on the paper's
    /// 33-switch ring-cut mesh: after every scripted fault's
    /// reconvergence, the incrementally patched routing table must equal
    /// a [`RouteTable::degraded`] rebuild from scratch over the live
    /// failure state. (The same comparison runs as a `debug_assert`
    /// inside `complete_reroute` on every reroute of every debug run;
    /// this test makes it an explicit release-mode guarantee too.)
    #[test]
    fn incremental_patch_matches_scratch_rebuild_on_the_ring_cut_mesh() {
        use crate::faults::FaultPlan;

        let q = quartz_mesh(33, 1, 10.0, 10.0);
        let mut sim = Simulator::new(
            q.net.clone(),
            SimConfig {
                reconvergence_ns: Some(50_000),
                ..SimConfig::default()
            },
        );
        // Background traffic keeps packets in flight across every fault.
        for i in 0..8 {
            sim.add_flow(
                q.hosts[i],
                q.hosts[(i + 11) % q.hosts.len()],
                400,
                FlowKind::Poisson {
                    mean_gap_ns: 8_000.0,
                    stop: SimTime::from_ms(8),
                    respond: false,
                },
                0,
                SimTime::ZERO,
            );
        }
        // The paper's cut (switch 0 ↔ 1 at 1 ms) plus a scripted mix of
        // repairs, a switch death and recovery, and seeded extra cuts —
        // including overlapping outages, so patches apply on top of an
        // already-degraded table.
        let cut = q.net.link_between(q.switches[0], q.switches[1]).unwrap();
        let mut plan = FaultPlan::random_link_faults(
            &q.net,
            4,
            (SimTime::from_ms(2), SimTime::from_ms(5)),
            Some(1_500_000),
            0xC07,
        );
        plan.link_down(cut, SimTime::from_ms(1))
            .link_up(cut, SimTime::from_ms(4))
            .switch_down(q.switches[7], SimTime::from_ms(3))
            .switch_up(q.switches[7], SimTime::from_ms(6));
        sim.apply_fault_plan(&plan);

        // Checkpoint just past each fault's reconvergence.
        let mut checkpoints: Vec<SimTime> = plan.events().iter().map(|f| f.at + 50_001).collect();
        checkpoints.sort();
        for (i, t) in checkpoints.into_iter().enumerate() {
            sim.run(t);
            let links = &sim.links;
            let failed_nodes = &sim.failed_nodes;
            let scratch = RouteTable::degraded(
                &sim.net,
                |l| links[2 * l.0 as usize].failed,
                |n| failed_nodes[n.0 as usize],
            );
            assert_eq!(
                sim.table, scratch,
                "patched table diverged from scratch rebuild at {t:?}"
            );
            // Each fault's own reroute fired 50 µs after it, so by the
            // i-th checkpoint at least i + 1 faults have reconverged (a
            // reroute also resolves any other still-open records).
            let resolved = sim
                .fault_log()
                .iter()
                .filter(|r| r.reconverged_at.is_some())
                .count();
            assert!(resolved > i, "missing reroutes by {t:?}");
        }
        assert_eq!(sim.fault_log().len(), plan.len());
        // Every fault healed: the final table equals the pristine one.
        sim.run(SimTime::from_ms(9));
        assert_eq!(sim.table, RouteTable::all_shortest_paths(&sim.net));
    }
}
