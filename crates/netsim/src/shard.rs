//! The sharded single-simulation engine: spatial domains under
//! conservative lookahead (DESIGN.md §13).
//!
//! [`ShardedSim`] runs **one** simulation across `k` spatial domains
//! produced by [`quartz_topology::partition::spatial_domains`]. Each
//! domain owns a contiguous region of the network — its switches, its
//! hosts, and every directed link slot whose *source* node it owns —
//! plus a private [`TimingWheel`] and [`PacketArena`] shard. Domains
//! advance independently inside a window `[W0, B]` whose upper bound is
//! derived from the slowest-safe lower bound
//!
//! ```text
//! L = min over cross-domain directed slots (from → to) of
//!         latency(from) + prop_delay
//! B = min(W0 + L − 1, t_ctl − 1, until)
//! ```
//!
//! where `W0` is the earliest pending event across all domains and
//! `t_ctl` is the next control-plane event (fault or reconvergence).
//! Any packet a domain forwards across a boundary during the window
//! arrives no earlier than `W0 + L > B`, so boundary exchange at the
//! window edge can never deliver an event into a domain's past — the
//! classic conservative-lookahead argument, with the bound realized by
//! the fabric's own switch latency and propagation delay.
//!
//! ## Determinism
//!
//! The engine is **bit-identical at any domain count** (and any worker
//! count). Three mechanisms make that hold:
//!
//! 1. **Content-derived event keys.** Where the legacy
//!    [`crate::sim::Simulator`]
//!    breaks same-time ties with an execution-order sequence number
//!    (meaningless across shards), every event here carries a canonical
//!    key computed from its content: generation events sort before
//!    packet arrivals before retransmission timers, and within each
//!    class by flow id and a per-flow emission counter. The global
//!    `(time, key)` order is therefore a property of the *simulation*,
//!    not of the schedule that produced it.
//! 2. **Order-independent randomness.** Each flow owns two private RNG
//!    streams ([`unit_seed`]`(seed, 2·flow)` for its source side,
//!    `2·flow + 1` for its destination side); VLB decisions are
//!    pre-drawn at emission from the emitting side's stream and carried
//!    with the packet. No RNG is ever shared across domains, so draw
//!    order cannot depend on the partition.
//! 3. **Merge-order-stable sinks.** Domains stash trace events and
//!    flow completions keyed by the `(time, key)` of the event that
//!    produced them; the coordinator k-way-merges the stashes at every
//!    window edge, so the recorder byte stream and the completion log
//!    are identical at `k = 1, 2, …, N`.
//!
//! ## Scope
//!
//! The sharded engine supports the workloads the scale experiments use:
//! all five [`FlowKind`]s, ECN marking, Reno/DCTCP transport, VLB
//! detours, live faults with automatic reconvergence, and the full
//! observability surface. It deliberately drops two legacy knobs:
//! `SimConfig::scheduler` and `SimConfig::drain` are ignored (every
//! domain runs a per-packet timing wheel — batching across a window
//! boundary would leak schedule order into output), and the SPAIN-style
//! extra route tables of the §6 prototype are not available. Fabrics
//! whose routes forward *through* hosts (e.g. BCube) are rejected at
//! construction when a host link would cross a domain boundary.
//!
//! Control-plane events deviate from the legacy engine in exactly one
//! documented way: a fault (or reroute) at time `t` applies before all
//! packet events at `t`, whereas the legacy engine interleaves them in
//! schedule order. The deviation is the same at every domain count.

use crate::arena::{
    PacketArena, PacketCold, PacketId, FLAG_ECN, FLAG_LAST, FLAG_RESPONSE, FLAG_VLB_DECIDED,
};
use crate::faults::{FaultKind, FaultPlan};
use crate::sched::{Scheduler, TimingWheel};
use crate::sim::{
    DirLink, FaultRecord, FlowCompletion, FlowKind, LinkLoad, MetricLabels, SimConfig,
};
use crate::stats::Stats;
use crate::switch::ForwardMode;
use crate::time::SimTime;
use crate::transport::{ReceiverState, SendAction, SenderState, TransportInfo};
use quartz_core::pool::{unit_seed, DomainCells, ThreadPool};
use quartz_core::rng::StdRng;
use quartz_obs::{DropReason, Event, MetricsRegistry, Recorder};
use quartz_topology::graph::{LinkId, Network, NodeId, NodeKind};
use quartz_topology::partition::spatial_domains;
use quartz_topology::route::{FlatRoutes, RouteChange, RouteTable};
use std::sync::Arc;

/// Rank bit of packet-arrival (`Head`) keys: arrivals sort after
/// generations (rank 0) and before retransmission timers.
const HEAD_RANK: u64 = 1 << 62;
/// Rank bit of retransmission-timer (`Rto`) keys: timers sort last
/// among same-time events.
const RTO_RANK: u64 = 1 << 63;

/// Canonical key of the `n`-th generation event of `flow` (rank 0).
#[inline]
fn gen_key(flow: u32, n: u32) -> u64 {
    (u64::from(flow) << 32) | u64::from(n)
}

/// Canonical key of the `seq`-th retransmission timer armed by `flow`.
#[inline]
fn rto_key(flow: u32, seq: u32) -> u64 {
    RTO_RANK | (u64::from(flow) << 32) | u64::from(seq)
}

/// The default injected clock: frozen at zero, so per-domain busy-time
/// profiling is free (and silent) unless a harness installs a real
/// monotonic source via [`ShardedSim::set_clock`].
fn zero_clock() -> u64 {
    0
}

/// A domain-local event. Unlike the legacy engine's `EvKind`, every
/// variant carries enough content to reconstruct its canonical
/// `(time, key)` position at dispatch (the scheduler returns only the
/// time), so sinks can stamp everything they stash with a
/// partition-independent merge key.
#[derive(Clone, Copy, Debug)]
enum DEv {
    /// Emit the `n`-th generation of `flow` (packet, burst, or window
    /// pump — `n` is the flow's generation counter, not a packet seq).
    Gen { flow: u32, n: u32 },
    /// Packet head arrives at `at`; tail follows `ser` ns later. The
    /// packet's canonical key lives in the arena sidecar (`pkey`).
    Head { pkt: PacketId, at: NodeId, ser: u32 },
    /// Retransmission timer for `flow`; ignored if `epoch` is stale.
    /// `seq` is the flow's timer-arm counter — the key component —
    /// because one epoch may be re-armed and keys must stay unique.
    Rto { flow: u32, epoch: u32, seq: u32 },
}

/// A packet crossing a domain boundary: everything the receiving shard
/// needs to re-materialize it in its own arena and schedule its next
/// arrival. `Copy`, about one cache line — outboxes are plain vectors.
#[derive(Clone, Copy, Debug)]
struct BoundaryMsg {
    /// Arrival time of the head at `at` (strictly beyond the window).
    arr_head: SimTime,
    /// The packet's canonical key (`pkey` sidecar value).
    key_lo: u64,
    /// Node the packet arrives at (owned by the receiving domain).
    at: NodeId,
    /// Serialization time of the inbound hop, ns (tail = head + ser).
    ser: u32,
    created: SimTime,
    dst: NodeId,
    flow: u32,
    size: u32,
    hash: u64,
    cold: PacketCold,
    /// Pre-drawn VLB randomness (coin as `f64::to_bits`, pick, spray).
    vcoin: u64,
    vpick: u64,
    vspray: u64,
}

/// Per-flow metadata, replicated read-only into every domain.
#[derive(Clone, Copy, Debug)]
struct SFlow {
    src: NodeId,
    dst: NodeId,
    size: u32,
    kind: FlowKind,
    tag: u32,
    hash: u64,
    /// Domain owning the source host (generation, sender state).
    src_dom: u32,
    /// Domain owning the destination host (receiver state, responses).
    dst_dom: u32,
}

/// One spatial domain's complete simulation state: a shard of the
/// arena, its own timing wheel, the full link table (it only touches
/// slots whose source node it owns), and full-size per-flow tables (it
/// only touches rows whose relevant endpoint it owns). Full-size tables
/// trade memory for branch-free indexing — every domain can index by
/// flow id or slot without a translation map.
struct DomainSim {
    id: u32,
    cfg: SimConfig,
    net: Arc<Network>,
    dom_of: Arc<Vec<u32>>,
    node_kind: Arc<Vec<NodeKind>>,
    slot_dst: Arc<Vec<NodeId>>,
    vlb_domain: Arc<Vec<u32>>,
    vlb_enabled: bool,
    flat: Arc<FlatRoutes>,
    flows: Vec<SFlow>,
    /// Per-flow progress (source side): packets/requests sent.
    sent: Vec<u32>,
    /// First-emission time (file transfers measure completion from it).
    t0: Vec<SimTime>,
    /// Next generation-event ordinal (key component).
    gen_n: Vec<u32>,
    /// Next retransmission-timer ordinal (key component).
    rto_emit: Vec<u32>,
    /// Per-flow emission counters, source / destination side (canonical
    /// packet-key components).
    src_emit: Vec<u32>,
    dst_emit: Vec<u32>,
    /// Per-flow private RNG streams, source / destination side.
    src_rng: Vec<StdRng>,
    dst_rng: Vec<StdRng>,
    /// Transport state: sender lives with the source host's domain,
    /// receiver with the destination's. `None` for non-transport flows.
    senders: Vec<Option<SenderState>>,
    receivers: Vec<ReceiverState>,
    /// Connection start time (FCT baseline for transport flows).
    conn_t0: Vec<SimTime>,
    links: Vec<DirLink>,
    failed_nodes: Vec<bool>,
    wheel: TimingWheel<DEv>,
    arena: PacketArena,
    /// Arena sidecars, parallel to the arena columns: the packet's
    /// canonical key and its pre-drawn VLB randomness.
    pkey: Vec<u64>,
    vcoin: Vec<u64>,
    vpick: Vec<u64>,
    vspray: Vec<u64>,
    vlb_scratch: Vec<NodeId>,
    action_scratch: Vec<SendAction>,
    /// Boundary packets bound for each peer domain, drained by the
    /// coordinator at every window edge.
    outbox: Vec<Vec<BoundaryMsg>>,
    stats: Stats,
    /// Trace events keyed by the `(time, key, sub)` of the event that
    /// produced them; non-decreasing by construction (events dispatch
    /// in key order, `sub` counts records within one dispatch).
    trace_stash: Vec<(u64, u64, u32, Event)>,
    /// Flow completions, keyed like the trace stash.
    comp_stash: Vec<(u64, u64, FlowCompletion)>,
    trace_on: bool,
    metrics: Option<MetricsRegistry>,
    labels: MetricLabels,
    /// `trace_on || metrics.is_some()`.
    obs: bool,
    now: SimTime,
    /// Merge key of the event being dispatched.
    cur_t: u64,
    cur_key: u64,
    cur_sub: u32,
    events_processed: u64,
    /// Wall time spent inside `step_to`, by the injected clock.
    busy_ns: u64,
    clock: fn() -> u64,
}

impl DomainSim {
    #[allow(clippy::too_many_arguments)]
    fn new(
        id: u32,
        cfg: &SimConfig,
        net: Arc<Network>,
        dom_of: Arc<Vec<u32>>,
        node_kind: Arc<Vec<NodeKind>>,
        slot_dst: Arc<Vec<NodeId>>,
        vlb_domain: Arc<Vec<u32>>,
        vlb_enabled: bool,
        flat: Arc<FlatRoutes>,
        links: Vec<DirLink>,
        k: usize,
    ) -> DomainSim {
        let failed_nodes = vec![false; net.node_count()];
        DomainSim {
            id,
            cfg: cfg.clone(),
            net,
            dom_of,
            node_kind,
            slot_dst,
            vlb_domain,
            vlb_enabled,
            flat,
            flows: Vec::new(),
            sent: Vec::new(),
            t0: Vec::new(),
            gen_n: Vec::new(),
            rto_emit: Vec::new(),
            src_emit: Vec::new(),
            dst_emit: Vec::new(),
            src_rng: Vec::new(),
            dst_rng: Vec::new(),
            senders: Vec::new(),
            receivers: Vec::new(),
            conn_t0: Vec::new(),
            links,
            failed_nodes,
            wheel: TimingWheel::new(),
            arena: PacketArena::new(),
            pkey: Vec::new(),
            vcoin: Vec::new(),
            vpick: Vec::new(),
            vspray: Vec::new(),
            vlb_scratch: Vec::new(),
            action_scratch: Vec::new(),
            outbox: (0..k).map(|_| Vec::new()).collect(),
            stats: Stats::default(),
            trace_stash: Vec::new(),
            comp_stash: Vec::new(),
            trace_on: false,
            metrics: None,
            labels: MetricLabels::default(),
            obs: false,
            now: SimTime::ZERO,
            cur_t: 0,
            cur_key: 0,
            cur_sub: 0,
            events_processed: 0,
            busy_ns: 0,
            clock: zero_clock,
        }
    }

    /// Registers one flow's full-size row (every domain holds it; only
    /// the owning side's domain ever advances the mutable parts).
    fn push_flow(&mut self, meta: SFlow, start: SimTime, base_seed: u64) {
        let i = self.flows.len() as u64;
        self.flows.push(meta);
        self.sent.push(0);
        self.t0.push(start);
        self.gen_n.push(0);
        self.rto_emit.push(0);
        self.src_emit.push(0);
        self.dst_emit.push(0);
        self.src_rng
            .push(StdRng::seed_from_u64(unit_seed(base_seed, 2 * i)));
        self.dst_rng
            .push(StdRng::seed_from_u64(unit_seed(base_seed, 2 * i + 1)));
        let sender = match meta.kind {
            FlowKind::Transport {
                total_bytes,
                variant,
            } => {
                let pkts = total_bytes.div_ceil(u64::from(meta.size)).max(1);
                Some(SenderState::new(variant, pkts))
            }
            _ => None,
        };
        self.senders.push(sender);
        self.receivers.push(ReceiverState::default());
        self.conn_t0.push(start);
    }

    /// Whether any observability sink is attached.
    #[inline]
    fn observing(&self) -> bool {
        self.obs
    }

    /// Stashes a trace event under the current dispatch's merge key.
    fn stash_event(&mut self, ev: Event) {
        if self.trace_on {
            let sub = self.cur_sub;
            self.cur_sub = sub + 1;
            self.trace_stash.push((self.cur_t, self.cur_key, sub, ev));
        }
    }

    /// Bumps a named counter if metrics are enabled.
    fn metric_inc(&mut self, name: &str) {
        if let Some(m) = self.metrics.as_mut() {
            m.inc(name, 1);
        }
    }

    /// Shared bookkeeping for every discard site; only called when
    /// observing.
    fn drop_hook(&mut self, flow: u32, at: NodeId, t: SimTime, reason: DropReason) {
        self.stash_event(Event::Drop {
            t_ns: t.ns(),
            node: at.0,
            flow,
            reason,
        });
        if let Some(m) = self.metrics.as_mut() {
            m.inc("sim.packets.dropped", 1);
            m.inc(&format!("sim.drop.{}", reason.as_str()), 1);
            if self.node_kind[at.0 as usize].is_switch() {
                m.inc(&format!("switch.{:03}.dropped", at.0), 1);
            }
        }
    }

    /// Grows the arena sidecar columns to cover every allocated slot.
    fn ensure_side_cols(&mut self) {
        let need = self.arena.capacity();
        if self.pkey.len() < need {
            self.pkey.resize(need, 0);
            self.vcoin.resize(need, 0);
            self.vpick.resize(need, 0);
            self.vspray.resize(need, 0);
        }
    }

    /// Assigns a freshly allocated packet its canonical key and (when
    /// VLB is on) pre-draws its detour randomness from the emitting
    /// side's private stream.
    fn tag_packet(&mut self, id: PacketId, flow: u32, dst_side: bool) {
        self.ensure_side_cols();
        let i = id as usize;
        let fi = flow as usize;
        let (dir, ctr) = if dst_side {
            let c = self.dst_emit[fi];
            debug_assert!(c < u32::MAX, "emission counter fits u32");
            self.dst_emit[fi] = c + 1;
            (1u64, c)
        } else {
            let c = self.src_emit[fi];
            debug_assert!(c < u32::MAX, "emission counter fits u32");
            self.src_emit[fi] = c + 1;
            (0u64, c)
        };
        self.pkey[i] = (dir << 61) | (u64::from(flow) << 32) | u64::from(ctr);
        if self.vlb_enabled {
            let rng = if dst_side {
                &mut self.dst_rng[fi]
            } else {
                &mut self.src_rng[fi]
            };
            self.vcoin[i] = rng.random::<f64>().to_bits();
            self.vpick[i] = rng.next_u64();
            self.vspray[i] = rng.next_u64();
        }
    }

    /// Schedules the flow's next generation event at its canonical key.
    fn schedule_gen(&mut self, flow_idx: usize, at: SimTime) {
        let n = self.gen_n[flow_idx];
        debug_assert!(n < u32::MAX, "generation counter fits u32");
        self.gen_n[flow_idx] = n + 1;
        debug_assert!(flow_idx < (1 << 29), "flow ids fit the key layout");
        let flow = flow_idx as u32;
        self.schedule(at, gen_key(flow, n), DEv::Gen { flow, n });
    }

    /// Queues `ev` at its canonical `(time, key)`. Every event of the
    /// domain goes through here; none may land before `now`.
    #[inline]
    fn schedule(&mut self, at: SimTime, key: u64, ev: DEv) {
        debug_assert!(
            at >= self.now,
            "event at {at:?} scheduled before now {:?}",
            self.now
        );
        self.wheel.push_at_seq(at, key, ev);
    }

    /// Earliest pending event time in this domain, if any.
    fn next_event_time(&mut self) -> Option<SimTime> {
        self.wheel.next_time()
    }

    /// Drains every event with `time <= bound` in `(time, key)` order.
    // lint:hot
    fn step_to(&mut self, bound: SimTime) {
        let t_in = (self.clock)();
        while let Some((t, ev)) = self.wheel.pop_before(bound) {
            self.events_processed += 1;
            self.dispatch(t, ev);
        }
        self.busy_ns = self
            .busy_ns
            .saturating_add((self.clock)().saturating_sub(t_in));
    }

    /// Dispatches one event, reconstructing its canonical merge key
    /// from its content.
    // lint:hot
    fn dispatch(&mut self, t: SimTime, ev: DEv) {
        self.now = t;
        self.cur_t = t.ns();
        self.cur_sub = 0;
        match ev {
            DEv::Gen { flow, n } => {
                self.cur_key = gen_key(flow, n);
                self.generate(flow as usize, t);
            }
            DEv::Head { pkt, at, ser } => {
                self.cur_key = HEAD_RANK | self.pkey[pkt as usize];
                self.arrive(pkt, at, t, t + u64::from(ser));
            }
            DEv::Rto { flow, epoch, seq } => {
                self.cur_key = rto_key(flow, seq);
                let fi = flow as usize;
                if self.senders[fi].is_some() {
                    let mut actions = std::mem::take(&mut self.action_scratch);
                    actions.clear();
                    if let Some(s) = self.senders[fi].as_mut() {
                        s.on_rto_into(u64::from(epoch), &mut actions);
                    }
                    self.apply_transport_actions(fi, t, &actions);
                    self.action_scratch = actions;
                }
            }
        }
    }

    /// Emits the flow's next packet (or burst, or window pump). Always
    /// runs in the flow's source domain.
    fn generate(&mut self, flow_idx: usize, now: SimTime) {
        let flow = self.flows[flow_idx];
        debug_assert_eq!(
            flow.src_dom, self.id,
            "generation runs in the source domain"
        );
        match flow.kind {
            FlowKind::Poisson {
                mean_gap_ns, stop, ..
            } => {
                if now >= stop {
                    return;
                }
                self.emit_inner(flow_idx, now, false, None, false);
                let u: f64 = self.src_rng[flow_idx].random::<f64>().max(1e-12);
                let gap = (-mean_gap_ns * u.ln()).max(1.0) as u64;
                let next = now + gap;
                if next < stop {
                    self.schedule_gen(flow_idx, next);
                }
            }
            FlowKind::Rpc { count } => {
                if self.sent[flow_idx] >= count {
                    return;
                }
                self.sent[flow_idx] += 1;
                self.emit_inner(flow_idx, now, false, None, false);
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
                    self.emit_inner(flow_idx, now, false, None, false);
                }
                let next = now + period_ns;
                if next < stop {
                    self.schedule_gen(flow_idx, next);
                }
            }
            FlowKind::Transport { total_bytes, .. } => {
                let t0 = self.t0[flow_idx];
                if t0 == SimTime::ZERO || now >= t0 {
                    debug_assert!(
                        self.senders[flow_idx].is_some(),
                        "transport flow has a sender"
                    );
                    if self.observing() {
                        debug_assert!(flow_idx <= u32::MAX as usize, "flow ids fit u32");
                        self.stash_event(Event::FlowStart {
                            t_ns: now.ns(),
                            flow: flow_idx as u32,
                            src: flow.src.0,
                            dst: flow.dst.0,
                            bytes: total_bytes,
                        });
                    }
                    let mut actions = std::mem::take(&mut self.action_scratch);
                    actions.clear();
                    if let Some(s) = self.senders[flow_idx].as_mut() {
                        s.pump_into(&mut actions);
                    }
                    self.apply_transport_actions(flow_idx, now, &actions);
                    self.action_scratch = actions;
                }
            }
            FlowKind::FileTransfer { total_bytes } => {
                let pkts64 = total_bytes.div_ceil(u64::from(flow.size)).max(1);
                debug_assert!(pkts64 <= u64::from(u32::MAX), "packet count fits u32");
                let pkts = pkts64 as u32;
                let sent = self.sent[flow_idx];
                if sent >= pkts {
                    return;
                }
                if sent == 0 {
                    self.t0[flow_idx] = now;
                    if self.observing() {
                        debug_assert!(flow_idx <= u32::MAX as usize, "flow ids fit u32");
                        self.stash_event(Event::FlowStart {
                            t_ns: now.ns(),
                            flow: flow_idx as u32,
                            src: flow.src.0,
                            dst: flow.dst.0,
                            bytes: total_bytes,
                        });
                    }
                }
                self.sent[flow_idx] += 1;
                let is_last = sent + 1 == pkts;
                let created = is_last.then(|| self.t0[flow_idx]);
                self.emit_inner(flow_idx, now, false, created, is_last);
                if !is_last {
                    let (_, link_id) = self.net.neighbors(flow.src)[0];
                    let rate = self.net.link(link_id).bandwidth_gbps;
                    let pace = ((flow.size as f64 * 8.0) / rate).ceil() as u64;
                    self.schedule_gen(flow_idx, now + pace);
                }
            }
        }
    }

    /// Creates a packet for `flow` and starts it from its origin host.
    fn emit_inner(
        &mut self,
        flow_idx: usize,
        now: SimTime,
        is_response: bool,
        created_override: Option<SimTime>,
        is_last: bool,
    ) {
        let (f_src, f_dst, f_size, f_hash) = {
            let f = &self.flows[flow_idx];
            (f.src, f.dst, f.size, f.hash)
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
        self.tag_packet(id, flow_id, is_response);
        self.stats.generated += 1;
        if self.observing() {
            self.stash_event(Event::Gen {
                t_ns: now.ns(),
                flow: flow_id,
                size_bytes: f_size,
                response: is_response,
            });
            self.metric_inc("sim.packets.generated");
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
                    debug_assert!(flow_idx < (1 << 29), "flow ids fit the key layout");
                    let flow = flow_idx as u32;
                    let seq = self.rto_emit[flow_idx];
                    debug_assert!(seq < u32::MAX, "timer counter fits u32");
                    self.rto_emit[flow_idx] = seq + 1;
                    self.schedule(
                        at,
                        rto_key(flow, seq),
                        DEv::Rto {
                            flow,
                            epoch: epoch as u32,
                            seq,
                        },
                    );
                }
                SendAction::Complete => {
                    let (tag, total_bytes) = {
                        let f = &self.flows[flow_idx];
                        let total = match f.kind {
                            FlowKind::Transport { total_bytes, .. } => total_bytes,
                            _ => 0,
                        };
                        (f.tag, total)
                    };
                    let fct_ns = now.saturating_sub(self.conn_t0[flow_idx]);
                    self.stats.record(tag, fct_ns);
                    debug_assert!(flow_idx <= u32::MAX as usize, "flow ids fit u32");
                    let flow = flow_idx as u32;
                    self.log_completion(flow, now, fct_ns, total_bytes);
                }
            }
        }
    }

    /// Injects one transport packet (data toward the flow's destination
    /// from the source side, ACKs back from the destination side).
    fn send_transport_packet(
        &mut self,
        flow_idx: usize,
        origin: NodeId,
        size: u32,
        transport: TransportInfo,
        now: SimTime,
    ) {
        let f = &self.flows[flow_idx];
        let dst_side = matches!(transport, TransportInfo::Ack { .. });
        let (dst, hash) = if dst_side {
            (f.src, f.hash.rotate_left(17) ^ 0x9e37_79b9_7f4a_7c15)
        } else {
            (f.dst, f.hash)
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
        self.tag_packet(id, flow_id, dst_side);
        self.stats.generated += 1;
        if self.observing() {
            self.stash_event(Event::Gen {
                t_ns: now.ns(),
                flow: flow_id,
                size_bytes: size,
                response: false,
            });
            self.metric_inc("sim.packets.generated");
        }
        let t = now + self.cfg.latency.host_send_ns;
        self.arrive(id, origin, t, t);
    }

    /// Appends to the completion stash and records `FlowComplete`.
    /// Cold: runs once per flow.
    fn log_completion(&mut self, flow: u32, at: SimTime, fct_ns: u64, bytes: u64) {
        self.comp_stash
            .push((self.cur_t, self.cur_key, FlowCompletion { flow, fct_ns }));
        if self.observing() {
            self.stash_event(Event::FlowComplete {
                t_ns: at.ns(),
                flow,
                fct_ns,
                bytes,
            });
        }
    }

    /// Stashes a boundary crossing for the coordinator to deliver.
    fn stash_boundary(&mut self, dom: u32, m: BoundaryMsg) {
        self.outbox[dom as usize].push(m);
    }

    /// Re-materializes a boundary packet in this domain's arena and
    /// schedules its arrival. Called by the coordinator between
    /// windows; the arrival time is provably beyond everything this
    /// domain has processed.
    // lint:hot
    fn deliver_boundary(&mut self, m: &BoundaryMsg) {
        debug_assert!(
            m.arr_head > self.now,
            "conservative lookahead violated: boundary event in the past"
        );
        let id = self
            .arena
            .alloc(m.created, m.dst, m.flow, m.size, m.hash, m.cold);
        self.ensure_side_cols();
        let i = id as usize;
        self.pkey[i] = m.key_lo;
        self.vcoin[i] = m.vcoin;
        self.vpick[i] = m.vpick;
        self.vspray[i] = m.vspray;
        self.schedule(
            m.arr_head,
            HEAD_RANK | m.key_lo,
            DEv::Head {
                pkt: id,
                at: m.at,
                ser: m.ser,
            },
        );
    }

    /// Handles a packet whose head reached `at` at `head` (tail at
    /// `tail`): deliver, queue on the next output port, or hand off to
    /// the next hop's domain. Mirrors the legacy engine's timing
    /// arithmetic exactly; only the tie-breaking keys and the boundary
    /// hand-off are new.
    // lint:hot
    fn arrive(&mut self, id: PacketId, at: NodeId, head: SimTime, tail: SimTime) {
        let i = id as usize;
        let flow_id = self.arena.flow[i];
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

        if at == dst {
            debug_assert!(node_kind.is_host());
            debug_assert_eq!(
                self.dom_of[at.0 as usize], self.id,
                "delivery happens in the domain owning the host"
            );
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
                self.stash_event(Event::Deliver {
                    t_ns: delivered_at.ns(),
                    node: at.0,
                    flow: flow_id,
                    latency_ns: delivered_at.saturating_sub(created),
                    hops: cold.hops,
                });
                self.metric_inc("sim.packets.delivered");
            }
            if let FlowKind::FileTransfer { total_bytes } = kind {
                if cold.flags & FLAG_LAST != 0 {
                    // The FCT sample itself went in via `record_delivery`
                    // (the last packet carries the flow's start time).
                    let fct_ns = delivered_at.saturating_sub(created);
                    self.log_completion(flow_id, delivered_at, fct_ns, total_bytes);
                }
            }
            match cold.transport {
                TransportInfo::Data(seq) => {
                    debug_assert_eq!(
                        self.flows[flow_idx].dst_dom, self.id,
                        "receiver state lives in the destination host's domain"
                    );
                    let ack = self.receivers[flow_idx].on_data(seq);
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
                    let mut actions = std::mem::take(&mut self.action_scratch);
                    actions.clear();
                    if let Some(s) = self.senders[flow_idx].as_mut() {
                        s.on_ack_into(ack, ecn_echo, &mut actions);
                    }
                    self.apply_transport_actions(flow_idx, delivered_at, &actions);
                    self.action_scratch = actions;
                    return;
                }
                TransportInfo::None => {}
            }
            if is_response {
                if let FlowKind::Rpc { count } = kind {
                    if self.sent[flow_idx] < count {
                        self.schedule_gen(flow_idx, delivered_at);
                    }
                }
            } else {
                let responds = matches!(
                    kind,
                    FlowKind::Poisson { respond: true, .. } | FlowKind::Rpc { .. }
                );
                if responds {
                    self.emit_inner(flow_idx, delivered_at, true, Some(created), false);
                }
            }
            return;
        }

        // Forwarding: work on copies, write back once before scheduling.
        let mut cold = self.arena.cold[i];
        let mut hash = self.arena.hash[i];
        let size = self.arena.size[i];
        if cold.intermediate == Some(at) {
            cold.intermediate = None;
        }

        // VLB decision at the mesh ingress switch, from the packet's
        // pre-drawn randomness (legacy draws from the shared RNG here;
        // pre-drawing at emission is what makes the outcome independent
        // of cross-domain processing order).
        let mut vlb_detour: Option<NodeId> = None;
        if self.vlb_enabled && cold.flags & FLAG_VLB_DECIDED == 0 && node_kind.is_switch() {
            let dom_idx = self.vlb_domain[at.0 as usize];
            if dom_idx != u32::MAX {
                cold.flags |= FLAG_VLB_DECIDED;
                if let Some((nh, _)) = self.flat.ecmp_next(at, dst, hash) {
                    if self.vlb_domain[nh.0 as usize] == dom_idx {
                        let vlb = self.cfg.vlb.as_ref().expect("domains imply config");
                        if f64::from_bits(self.vcoin[i]) < vlb.fraction {
                            let dom = &vlb.domains[dom_idx as usize];
                            self.vlb_scratch.clear();
                            self.vlb_scratch
                                .extend(dom.iter().copied().filter(|&w| w != at && w != nh));
                            if !self.vlb_scratch.is_empty() {
                                let pick = (self.vpick[i] % self.vlb_scratch.len() as u64) as usize;
                                let w = self.vlb_scratch[pick];
                                cold.intermediate = Some(w);
                                vlb_detour = Some(w);
                                hash = self.vspray[i];
                            }
                        }
                    }
                }
            }
        }
        if self.observing() {
            if let Some(w) = vlb_detour {
                self.stash_event(Event::Vlb {
                    t_ns: head.ns(),
                    node: at.0,
                    flow: flow_id,
                    via: w.0,
                });
                self.metric_inc("sim.vlb.detours");
            }
        }

        let target = cold.intermediate.unwrap_or(dst);
        let Some((next, slot)) = self.flat.ecmp_next(at, target, hash) else {
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
            self.stats.dropped += 1;
            if self.observing() {
                self.drop_hook(flow_id, at, head, DropReason::DeadLink);
            }
            self.arena.free(id);
            return;
        }
        let inbound_ns = tail - head;
        let mut forward_decision: Option<(ForwardMode, u64)> = None;
        let earliest = match node_kind {
            NodeKind::Host => {
                if inbound_ns == 0 {
                    head
                } else {
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
            self.stash_event(Event::Forward {
                t_ns: head.ns(),
                node: at.0,
                flow: flow_id,
                cut_through,
                latency_ns,
            });
            self.metric_inc(if cut_through {
                "sim.forward.cut_through"
            } else {
                "sim.forward.store_forward"
            });
        }

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
            let link_idx = slot >> 1;
            let to_b = slot & 1 == 0;
            self.stash_event(Event::Enqueue {
                t_ns: earliest.ns(),
                node: at.0,
                link: link_idx,
                to_b,
                flow: flow_id,
                queue_bytes,
            });
            self.stash_event(Event::Transmit {
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
        debug_assert_eq!(next, self.slot_dst[slot as usize]);
        debug_assert!(ser_ns <= u64::from(u32::MAX));
        let ser = ser_ns as u32;
        let next_dom = self.dom_of[next.0 as usize];
        if next_dom != self.id {
            debug_assert!(node_kind.is_switch(), "cross-domain hop from a non-switch");
            debug_assert!(
                arr_head > self.now,
                "cross-domain arrival must be strictly future"
            );
            let m = BoundaryMsg {
                arr_head,
                key_lo: self.pkey[i],
                at: next,
                ser,
                created: self.arena.created[i],
                dst,
                flow: flow_id,
                size,
                hash,
                cold,
                vcoin: self.vcoin[i],
                vpick: self.vpick[i],
                vspray: self.vspray[i],
            };
            self.stash_boundary(next_dom, m);
            self.arena.free(id);
            return;
        }
        self.schedule(
            arr_head,
            HEAD_RANK | self.pkey[i],
            DEv::Head {
                pkt: id,
                at: next,
                ser,
            },
        );
    }
}

/// A control-plane transition applied at a window barrier.
#[derive(Clone, Copy, Debug)]
enum CtlKind {
    /// A fault (or recovery) hits the data plane.
    Fault(FaultKind),
    /// Control-plane reconvergence completes.
    Reroute,
}

/// The coordinator's control plane: the global route table, the sorted
/// timeline of fault/reroute events, and the fault log. Control events
/// apply *between* windows — every window is bounded by the next
/// control event's time, so a fault at `t` is visible to every packet
/// event at `t` or later, in every domain.
struct CtlPlane {
    net: Arc<Network>,
    table: RouteTable,
    routed_link_failed: Vec<bool>,
    routed_node_failed: Vec<bool>,
    pending: Vec<FaultKind>,
    /// Time-sorted control events; `cursor` marks the applied prefix.
    events: Vec<(SimTime, CtlKind)>,
    cursor: usize,
    fault_log: Vec<FaultRecord>,
    reconvergence_ns: Option<u64>,
    metrics: Option<MetricsRegistry>,
}

impl CtlPlane {
    /// Next unapplied control-event time, if any.
    fn next_time(&self) -> Option<SimTime> {
        self.events.get(self.cursor).map(|e| e.0)
    }

    /// Inserts a control event keeping the timeline sorted (upper
    /// bound: same-time events apply in insertion order, matching the
    /// legacy scheduler's behavior for a fault and its reconvergence).
    fn insert(&mut self, at: SimTime, kind: CtlKind) {
        let lo = self.cursor;
        let pos = lo + self.events[lo..].partition_point(|e| e.0 <= at);
        self.events.insert(pos, (at, kind));
    }

    /// Applies the control event at the cursor.
    fn apply_next(&mut self, sinks: &mut Sinks, cells: &DomainCells<'_, DomainSim>) {
        let (at, kind) = self.events[self.cursor];
        self.cursor += 1;
        match kind {
            CtlKind::Fault(k) => self.apply_fault(at, k, sinks, cells),
            CtlKind::Reroute => self.apply_reroute(at, sinks, cells),
        }
    }

    /// Applies one fault to every domain's data-plane state and opens a
    /// log record. With auto-reconvergence configured, schedules the
    /// route recomputation.
    fn apply_fault(
        &mut self,
        at: SimTime,
        kind: FaultKind,
        sinks: &mut Sinks,
        cells: &DomainCells<'_, DomainSim>,
    ) {
        for i in 0..cells.len() {
            let mut d = cells.lock(i);
            match kind {
                FaultKind::LinkDown(l) => {
                    d.links[2 * l.0 as usize].failed = true;
                    d.links[2 * l.0 as usize + 1].failed = true;
                }
                FaultKind::LinkUp(l) => {
                    d.links[2 * l.0 as usize].failed = false;
                    d.links[2 * l.0 as usize + 1].failed = false;
                }
                FaultKind::SwitchDown(n) => d.failed_nodes[n.0 as usize] = true,
                FaultKind::SwitchUp(n) => d.failed_nodes[n.0 as usize] = false,
            }
        }
        let baseline: u64 = (0..cells.len()).map(|i| cells.lock(i).stats.dropped).sum();
        self.pending.push(kind);
        self.fault_log.push(FaultRecord {
            at,
            kind,
            reconverged_at: None,
            drops_during_outage: 0,
            baseline_drops: baseline,
        });
        let (kind_str, element) = match kind {
            FaultKind::LinkDown(l) => ("link_down", l.0),
            FaultKind::LinkUp(l) => ("link_up", l.0),
            FaultKind::SwitchDown(n) => ("switch_down", n.0),
            FaultKind::SwitchUp(n) => ("switch_up", n.0),
        };
        sinks.record_ctl(Event::Fault {
            t_ns: at.ns(),
            kind: kind_str,
            element,
        });
        if let Some(m) = self.metrics.as_mut() {
            m.inc(&format!("sim.fault.{kind_str}"), 1);
        }
        if let Some(delay) = self.reconvergence_ns {
            self.insert(at + delay, CtlKind::Reroute);
        }
    }

    /// Recomputes routes over the surviving elements, distributes the
    /// new flat table to every domain, and closes open fault records.
    fn apply_reroute(
        &mut self,
        at: SimTime,
        sinks: &mut Sinks,
        cells: &DomainCells<'_, DomainSim>,
    ) {
        for kind in std::mem::take(&mut self.pending) {
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
            // The patched table must equal a from-scratch rebuild over
            // the live failure state (domain 0's copy — identical in
            // all domains, since faults apply to every one).
            let d0 = cells.lock(0);
            let scratch = RouteTable::degraded(
                &self.net,
                |l| d0.links[2 * l.0 as usize].failed,
                |n| d0.failed_nodes[n.0 as usize],
            );
            debug_assert_eq!(
                self.table, scratch,
                "incremental route patch diverged from scratch rebuild"
            );
        }
        let flat = Arc::new(FlatRoutes::new(&self.table, &self.net));
        for i in 0..cells.len() {
            cells.lock(i).flat = Arc::clone(&flat);
        }
        let dropped: u64 = (0..cells.len()).map(|i| cells.lock(i).stats.dropped).sum();
        let mut resolved = 0u32;
        for r in self
            .fault_log
            .iter_mut()
            .filter(|r| r.reconverged_at.is_none())
        {
            r.reconverged_at = Some(at);
            r.drops_during_outage = dropped - r.baseline_drops;
            resolved += 1;
        }
        sinks.record_ctl(Event::Reroute {
            t_ns: at.ns(),
            resolved,
        });
        if let Some(m) = self.metrics.as_mut() {
            m.inc("sim.reroutes", 1);
        }
    }
}

/// The coordinator's output sinks: the recorder, the merged completion
/// log, and the reusable buffers the window merge ping-pongs with the
/// domains (so the steady-state merge allocates nothing).
struct Sinks {
    recorder: Option<Box<dyn Recorder>>,
    completions: Vec<FlowCompletion>,
    msg_scratch: Vec<BoundaryMsg>,
    trace_bufs: Vec<Vec<(u64, u64, u32, Event)>>,
    comp_bufs: Vec<Vec<(u64, u64, FlowCompletion)>>,
    cursors: Vec<usize>,
}

impl Sinks {
    /// Records a coordinator-originated (control-plane) event.
    fn record_ctl(&mut self, ev: Event) {
        if let Some(r) = self.recorder.as_deref_mut() {
            r.record(&ev);
        }
    }

    /// Merges one window's outputs: boundary packets into their target
    /// wheels, then traces and completions into the global sinks in
    /// `(time, key)` order.
    fn merge_window(&mut self, cells: &DomainCells<'_, DomainSim>) {
        self.merge_boundary(cells);
        self.merge_traces(cells);
        self.merge_completions(cells);
    }

    /// Drains every domain's outboxes into the target domains' wheels.
    /// Delivery order is irrelevant to simulation output (events are
    /// keyed), but is fixed anyway: by receiving domain, then sender.
    // lint:hot
    fn merge_boundary(&mut self, cells: &DomainCells<'_, DomainSim>) {
        let k = cells.len();
        for dd in 0..k {
            for sd in 0..k {
                if sd == dd {
                    continue;
                }
                {
                    let mut src = cells.lock(sd);
                    std::mem::swap(&mut self.msg_scratch, &mut src.outbox[dd]);
                }
                if !self.msg_scratch.is_empty() {
                    let mut dst = cells.lock(dd);
                    for m in &self.msg_scratch {
                        dst.deliver_boundary(m);
                    }
                    self.msg_scratch.clear();
                }
                {
                    let mut src = cells.lock(sd);
                    std::mem::swap(&mut self.msg_scratch, &mut src.outbox[dd]);
                }
            }
        }
    }

    /// K-way merges the domains' trace stashes into the recorder by
    /// `(time, key, sub)`, ties to the lowest domain (only same-domain
    /// entries can tie, so any deterministic rule gives one order).
    // lint:hot
    fn merge_traces(&mut self, cells: &DomainCells<'_, DomainSim>) {
        let k = cells.len();
        for d in 0..k {
            let mut dom = cells.lock(d);
            std::mem::swap(&mut self.trace_bufs[d], &mut dom.trace_stash);
            self.cursors[d] = 0;
        }
        if let Some(r) = self.recorder.as_deref_mut() {
            loop {
                let mut best: Option<(u64, u64, u32, usize)> = None;
                for d in 0..k {
                    if let Some(e) = self.trace_bufs[d].get(self.cursors[d]) {
                        let key = (e.0, e.1, e.2, d);
                        if best.is_none_or(|b| key < b) {
                            best = Some(key);
                        }
                    }
                }
                let Some((_, _, _, d)) = best else { break };
                r.record(&self.trace_bufs[d][self.cursors[d]].3);
                self.cursors[d] += 1;
            }
        }
        for d in 0..k {
            self.trace_bufs[d].clear();
            let mut dom = cells.lock(d);
            std::mem::swap(&mut self.trace_bufs[d], &mut dom.trace_stash);
        }
    }

    /// K-way merges the domains' completion stashes into the global
    /// completion log (which grows once per flow — off the hot path).
    fn merge_completions(&mut self, cells: &DomainCells<'_, DomainSim>) {
        let k = cells.len();
        for d in 0..k {
            let mut dom = cells.lock(d);
            std::mem::swap(&mut self.comp_bufs[d], &mut dom.comp_stash);
            self.cursors[d] = 0;
        }
        loop {
            let mut best: Option<(u64, u64, usize)> = None;
            for d in 0..k {
                if let Some(e) = self.comp_bufs[d].get(self.cursors[d]) {
                    let key = (e.0, e.1, d);
                    if best.is_none_or(|b| key < b) {
                        best = Some(key);
                    }
                }
            }
            let Some((_, _, d)) = best else { break };
            self.completions.push(self.comp_bufs[d][self.cursors[d]].2);
            self.cursors[d] += 1;
        }
        for d in 0..k {
            self.comp_bufs[d].clear();
            let mut dom = cells.lock(d);
            std::mem::swap(&mut self.comp_bufs[d], &mut dom.comp_stash);
        }
    }
}

/// The sharded simulation: `k` spatial domains advancing one simulation
/// under conservative lookahead. See the module docs for the windowing
/// and determinism arguments; [`ShardedSim::run`] drives the domains on
/// a [`ThreadPool`] (bit-identical output at any thread count,
/// including 1).
///
/// # Examples
///
/// ```
/// use quartz_core::pool::ThreadPool;
/// use quartz_netsim::shard::ShardedSim;
/// use quartz_netsim::sim::{FlowKind, SimConfig};
/// use quartz_netsim::time::SimTime;
/// use quartz_topology::builders::quartz_mesh;
///
/// let m = quartz_mesh(4, 2, 10.0, 10.0);
/// let mut sim = ShardedSim::new(m.net.clone(), SimConfig::default(), 2);
/// sim.add_flow(
///     m.hosts[0],
///     m.hosts[7],
///     400,
///     FlowKind::Rpc { count: 50 },
///     0,
///     SimTime::ZERO,
/// );
/// sim.run(SimTime::from_ms(10), &ThreadPool::sequential());
/// assert_eq!(sim.stats().summary(0).count, 50);
/// ```
pub struct ShardedSim {
    domains: Vec<DomainSim>,
    dom_of: Arc<Vec<u32>>,
    net: Arc<Network>,
    lookahead: u64,
    ctl: CtlPlane,
    sinks: Sinks,
    merged: Stats,
    /// Construction-order RNG: one ECMP hash per `add_flow`, exactly
    /// like the legacy engine's add-time draws (so flow hashes match
    /// the legacy simulator under the same seed and add order).
    cons_rng: StdRng,
    seed: u64,
    clock: fn() -> u64,
    coord_ns: u64,
    flow_count: usize,
}

impl ShardedSim {
    /// Builds a sharded simulator over `net`, partitioned into (at
    /// most) `domains` spatial domains.
    ///
    /// # Panics
    /// Panics if any cross-domain link touches a host (relay-host
    /// fabrics and multi-homed hosts straddling a cut are not
    /// shardable), or if the lookahead bound would be zero (an ideal
    /// latency model with zero propagation delay cannot shard — run
    /// with `domains = 1`).
    pub fn new(net: Network, cfg: SimConfig, domains: usize) -> Self {
        let part = spatial_domains(&net, domains.max(1));
        let k = part.domains();
        let mut lookahead = u64::MAX;
        for (_slot, from, to) in part.cross_slots(&net) {
            let from_kind = net.node(from).kind;
            assert!(
                from_kind.is_switch() && net.node(to).kind.is_switch(),
                "cross-domain links must join switches; {from:?} -> {to:?} touches a host \
                 (relay-host fabrics are not shardable — use domains = 1)"
            );
            let NodeKind::Switch(role) = from_kind else {
                unreachable!("asserted switch above")
            };
            let hop = cfg.latency.spec_for(role).latency_ns + cfg.prop_delay_ns;
            lookahead = lookahead.min(hop);
        }
        if k > 1 {
            assert!(
                lookahead >= 1,
                "conservative lookahead needs >= 1 ns per cross-domain hop; this latency \
                 model has zero switch latency and zero propagation delay — run with domains = 1"
            );
        }
        let mut vlb_domain = vec![u32::MAX; net.node_count()];
        if let Some(v) = &cfg.vlb {
            assert!(
                (0.0..=1.0).contains(&v.fraction),
                "VLB fraction must be in 0..=1"
            );
            for (vi, dom) in v.domains.iter().enumerate() {
                debug_assert!(vi < u32::MAX as usize, "VLB domain ids fit u32");
                for &sw in dom {
                    vlb_domain[sw.0 as usize] = vi as u32;
                }
            }
        }
        let vlb_domain = Arc::new(vlb_domain);
        let vlb_enabled = vlb_domain.iter().any(|&d| d != u32::MAX);
        let table = RouteTable::all_shortest_paths(&net);
        let flat = Arc::new(FlatRoutes::new(&table, &net));
        let node_kind: Arc<Vec<NodeKind>> = Arc::new(net.nodes().map(|n| n.kind).collect());
        let mut slot_dst = Vec::with_capacity(2 * net.link_count());
        for l in net.links() {
            slot_dst.push(l.b);
            slot_dst.push(l.a);
        }
        let slot_dst = Arc::new(slot_dst);
        let links: Vec<DirLink> = net
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
        let dom_of = Arc::new(part.domain_of().to_vec());
        let routed_link_failed = vec![false; net.link_count()];
        let routed_node_failed = vec![false; net.node_count()];
        let net = Arc::new(net);
        debug_assert!(k <= u32::MAX as usize, "domain count fits u32");
        let doms: Vec<DomainSim> = (0..k)
            .map(|id| {
                DomainSim::new(
                    id as u32,
                    &cfg,
                    Arc::clone(&net),
                    Arc::clone(&dom_of),
                    Arc::clone(&node_kind),
                    Arc::clone(&slot_dst),
                    Arc::clone(&vlb_domain),
                    vlb_enabled,
                    Arc::clone(&flat),
                    links.clone(),
                    k,
                )
            })
            .collect();
        let cons_rng = StdRng::seed_from_u64(cfg.seed);
        ShardedSim {
            domains: doms,
            dom_of,
            net: Arc::clone(&net),
            lookahead,
            ctl: CtlPlane {
                net,
                table,
                routed_link_failed,
                routed_node_failed,
                pending: Vec::new(),
                events: Vec::new(),
                cursor: 0,
                fault_log: Vec::new(),
                reconvergence_ns: cfg.reconvergence_ns,
                metrics: None,
            },
            sinks: Sinks {
                recorder: None,
                completions: Vec::new(),
                msg_scratch: Vec::new(),
                trace_bufs: (0..k).map(|_| Vec::new()).collect(),
                comp_bufs: (0..k).map(|_| Vec::new()).collect(),
                cursors: vec![0; k],
            },
            merged: Stats::default(),
            cons_rng,
            seed: cfg.seed,
            clock: zero_clock,
            coord_ns: 0,
            flow_count: 0,
        }
    }

    /// Registers a flow starting at `start`; returns its index. Flow
    /// hashes are drawn from a construction-order RNG seeded like the
    /// legacy engine's, so the same add order yields the same ECMP
    /// paths.
    ///
    /// # Panics
    /// Panics if `src` or `dst` is not a host, they coincide, or more
    /// than 2²⁹ flows are registered (the canonical key layout).
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
        let idx = self.flow_count;
        assert!(idx < (1 << 29), "the sharded engine keys flows in 29 bits");
        self.flow_count += 1;
        let hash = self.cons_rng.random::<u64>();
        let src_dom = self.dom_of[src.0 as usize];
        let dst_dom = self.dom_of[dst.0 as usize];
        let meta = SFlow {
            src,
            dst,
            size: size_bytes,
            kind,
            tag,
            hash,
            src_dom,
            dst_dom,
        };
        let seed = self.seed;
        for d in &mut self.domains {
            d.push_flow(meta, start, seed);
        }
        self.domains[src_dom as usize].schedule_gen(idx, start);
        idx
    }

    /// Schedules a fiber cut at `at` (both directions of `link` drop
    /// everything until recovery + reconvergence).
    pub fn fail_link_at(&mut self, link: LinkId, at: SimTime) {
        assert!((link.0 as usize) < self.net.link_count(), "unknown link");
        self.ctl
            .insert(at, CtlKind::Fault(FaultKind::LinkDown(link)));
    }

    /// Schedules the death of switch `node` at `at`.
    ///
    /// # Panics
    /// Panics if `node` is not a switch.
    pub fn fail_switch_at(&mut self, node: NodeId, at: SimTime) {
        assert!(
            self.net.node(node).kind.is_switch(),
            "only switches fail; {node:?} is a host"
        );
        self.ctl
            .insert(at, CtlKind::Fault(FaultKind::SwitchDown(node)));
    }

    /// Schedules every event of a [`FaultPlan`]. The sharded engine
    /// requires [`SimConfig::reconvergence_ns`] for routes to recover —
    /// there is no manual reroute call (reroutes are control events on
    /// the coordinator's timeline).
    ///
    /// # Panics
    /// Panics if the plan names an unknown link or a non-switch node.
    pub fn apply_fault_plan(&mut self, plan: &FaultPlan) {
        for ev in plan.events() {
            match ev.kind {
                FaultKind::LinkDown(l) | FaultKind::LinkUp(l) => {
                    assert!((l.0 as usize) < self.net.link_count(), "unknown link");
                }
                FaultKind::SwitchDown(n) | FaultKind::SwitchUp(n) => {
                    assert!(
                        self.net.node(n).kind.is_switch(),
                        "only switches fail; {n:?} is a host"
                    );
                }
            }
            self.ctl.insert(ev.at, CtlKind::Fault(ev.kind));
        }
    }

    /// Attaches an event recorder. The merged stream is identical at
    /// any domain count (the determinism contract).
    pub fn set_recorder(&mut self, recorder: Box<dyn Recorder>) {
        self.sinks.recorder = Some(recorder);
        for d in &mut self.domains {
            d.trace_on = true;
            d.obs = true;
        }
    }

    /// Detaches the recorder; drain or flush it via `Recorder::finish`.
    pub fn take_recorder(&mut self) -> Option<Box<dyn Recorder>> {
        for d in &mut self.domains {
            d.trace_on = false;
            d.obs = d.metrics.is_some();
        }
        self.sinks.recorder.take()
    }

    /// Enables metric collection in every domain plus the control
    /// plane; [`ShardedSim::take_metrics`] merges them.
    pub fn enable_metrics(&mut self) {
        if self.ctl.metrics.is_none() {
            self.ctl.metrics = Some(MetricsRegistry::new());
        }
        for d in &mut self.domains {
            if d.metrics.is_none() {
                d.metrics = Some(MetricsRegistry::new());
            }
            d.obs = true;
        }
    }

    /// Detaches and merges every registry (control plane first, then
    /// domains in index order). Counter and histogram merges are
    /// commutative, so the result is domain-count-independent.
    pub fn take_metrics(&mut self) -> Option<MetricsRegistry> {
        let mut out = self.ctl.metrics.take();
        for d in &mut self.domains {
            if let Some(m) = d.metrics.take() {
                match &mut out {
                    Some(o) => o.merge(&m),
                    None => out = Some(m),
                }
            }
            d.obs = d.trace_on;
        }
        out
    }

    /// Injects a monotonic-clock source (nanoseconds) for per-domain
    /// busy-time profiling. The default clock is frozen at zero, which
    /// keeps the engine free of wall-clock reads; benches install
    /// `quartz_bench::timing::monotonic_ns`.
    pub fn set_clock(&mut self, clock: fn() -> u64) {
        self.clock = clock;
        for d in &mut self.domains {
            d.clock = clock;
        }
    }

    /// Runs the simulation until `until` (events after it stay queued)
    /// on `pool`'s workers. Returns the merged statistics. Output is
    /// bit-identical for every `(domains, threads)` combination.
    pub fn run(&mut self, until: SimTime, pool: &ThreadPool) -> &Stats {
        let clock = self.clock;
        let lookahead = self.lookahead;
        let ctl = &mut self.ctl;
        let sinks = &mut self.sinks;
        let coord_ns = &mut self.coord_ns;
        let mut first = true;
        let doms = std::mem::take(&mut self.domains);
        let doms = pool.step_domains(
            doms,
            |d, b| d.step_to(SimTime::from_ns(b)),
            |cells| {
                let t_in = clock();
                let r = Self::coordinate(ctl, sinks, cells, until, lookahead, &mut first);
                *coord_ns = coord_ns.saturating_add(clock().saturating_sub(t_in));
                r
            },
        );
        self.domains = doms;
        #[cfg(debug_assertions)]
        {
            let quiescent = self
                .domains
                .iter_mut()
                .all(|d| d.wheel.next_time().is_none())
                && self
                    .domains
                    .iter()
                    .all(|d| d.outbox.iter().all(Vec::is_empty));
            if quiescent {
                for d in &self.domains {
                    debug_assert_eq!(
                        d.arena.live(),
                        0,
                        "packet arena leak in domain {} at quiescence",
                        d.id
                    );
                }
            }
        }
        self.merged = Stats::default();
        for d in &self.domains {
            self.merged.merge(&d.stats);
        }
        &self.merged
    }

    /// One coordinator round: merge the finished window's outputs, then
    /// apply every control event due before the next packet event, then
    /// pick the next window bound (or end the run).
    fn coordinate(
        ctl: &mut CtlPlane,
        sinks: &mut Sinks,
        cells: &DomainCells<'_, DomainSim>,
        until: SimTime,
        lookahead: u64,
        first: &mut bool,
    ) -> Option<u64> {
        if *first {
            *first = false;
        } else {
            sinks.merge_window(cells);
        }
        loop {
            let mut next_ev: Option<u64> = None;
            for d in 0..cells.len() {
                if let Some(t) = cells.lock(d).next_event_time() {
                    let t = t.ns();
                    if next_ev.is_none_or(|b| t < b) {
                        next_ev = Some(t);
                    }
                }
            }
            let tc = ctl.next_time();
            if let Some(tc) = tc {
                // A control event due at or before the earliest packet
                // event applies now (fault-before-packet at equal
                // times — the engine's one documented deviation).
                if tc <= until && next_ev.is_none_or(|w| tc.ns() <= w) {
                    ctl.apply_next(sinks, cells);
                    continue;
                }
            }
            let w0 = next_ev?;
            if w0 > until.ns() {
                return None;
            }
            let mut bound = w0.saturating_add(lookahead - 1).min(until.ns());
            if let Some(tc) = tc {
                if tc <= until {
                    // Reachable only with tc > w0 (else the apply branch
                    // took it), so tc - 1 >= w0 and cannot underflow.
                    bound = bound.min(tc.ns() - 1);
                }
            }
            return Some(bound);
        }
    }

    /// Merged statistics from the last [`ShardedSim::run`].
    pub fn stats(&self) -> &Stats {
        &self.merged
    }

    /// Completion log for managed flows, in global `(time, key)` order
    /// (identical at any domain count).
    pub fn flow_completions(&self) -> &[FlowCompletion] {
        &self.sinks.completions
    }

    /// Every fault event that has fired, with reconvergence outcomes.
    pub fn fault_log(&self) -> &[FaultRecord] {
        &self.ctl.fault_log
    }

    /// Total events processed across all domains.
    pub fn events_processed(&self) -> u64 {
        self.domains.iter().map(|d| d.events_processed).sum()
    }

    /// Events processed per domain (the load-balance profile).
    pub fn per_domain_events(&self) -> Vec<u64> {
        self.domains.iter().map(|d| d.events_processed).collect()
    }

    /// Wall time each domain spent stepping, by the injected clock
    /// (all zeros under the default frozen clock).
    pub fn domain_busy_ns(&self) -> Vec<u64> {
        self.domains.iter().map(|d| d.busy_ns).collect()
    }

    /// Wall time the coordinator spent merging windows and picking
    /// bounds, by the injected clock.
    pub fn coordinator_ns(&self) -> u64 {
        self.coord_ns
    }

    /// The conservative lookahead bound `L`, ns (`u64::MAX` when no
    /// link crosses a domain boundary).
    pub fn lookahead_ns(&self) -> u64 {
        self.lookahead
    }

    /// Number of spatial domains actually in use.
    pub fn domain_count(&self) -> usize {
        self.domains.len()
    }

    /// Number of flows registered so far.
    pub fn flow_count(&self) -> usize {
        self.flow_count
    }

    /// The time of the most recently processed event in any domain.
    pub fn now(&self) -> SimTime {
        self.domains
            .iter()
            .map(|d| d.now)
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Whether any events remain queued in any domain.
    pub fn has_pending_events(&mut self) -> bool {
        self.domains
            .iter_mut()
            .any(|d| d.next_event_time().is_some())
    }

    /// Transmission statistics per link, summed across domains (each
    /// directed slot is only ever driven by its owning domain).
    pub fn link_loads(&self) -> Vec<LinkLoad> {
        (0..self.net.link_count())
            .map(|i| {
                let mut ll = LinkLoad::default();
                for d in &self.domains {
                    ll.ab_busy_ns += d.links[2 * i].busy_ns;
                    ll.ab_bytes += d.links[2 * i].bytes;
                    ll.ba_busy_ns += d.links[2 * i + 1].busy_ns;
                    ll.ba_bytes += d.links[2 * i + 1].bytes;
                }
                ll
            })
            .collect()
    }
}

/// Compile-time check: domains must be `Send` to cross worker threads.
#[doc(hidden)]
pub fn _assert_send() {
    fn is_send<T: Send>() {}
    is_send::<DomainSim>();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::Simulator;
    use quartz_obs::MemoryRecorder;
    use quartz_topology::builders::{quartz_in_core, quartz_mesh};

    fn mesh_flows(sim_add: &mut dyn FnMut(NodeId, NodeId, u32, FlowKind, u32, SimTime)) {
        let m = quartz_mesh(4, 3, 10.0, 10.0);
        let h = &m.hosts;
        sim_add(
            h[0],
            h[7],
            400,
            FlowKind::Rpc { count: 40 },
            0,
            SimTime::ZERO,
        );
        sim_add(
            h[1],
            h[10],
            400,
            FlowKind::Burst {
                burst_pkts: 6,
                period_ns: 20_000,
                stop: SimTime::from_us(400),
            },
            1,
            SimTime::from_ns(500),
        );
        sim_add(
            h[4],
            h[11],
            1_000,
            FlowKind::FileTransfer {
                total_bytes: 40_000,
            },
            2,
            SimTime::from_us(1),
        );
        sim_add(
            h[5],
            h[2],
            1_000,
            FlowKind::Transport {
                total_bytes: 60_000,
                variant: crate::transport::TcpVariant::Dctcp,
            },
            3,
            SimTime::from_us(2),
        );
    }

    /// Per-tag stat rows: `(tag, count, mean bits, p99)`.
    type TagRows = Vec<(u32, usize, u64, u64)>;

    /// Digest of everything a run produces: stats bits, completions,
    /// and the recorded event stream.
    fn run_digest(k: usize, threads: usize) -> (TagRows, u64, Vec<(u32, u64)>, Vec<Event>) {
        let m = quartz_mesh(4, 3, 10.0, 10.0);
        let cfg = SimConfig {
            ecn_threshold_bytes: Some(30_000),
            ..SimConfig::default()
        };
        let mut sim = ShardedSim::new(m.net.clone(), cfg, k);
        sim.set_recorder(Box::new(MemoryRecorder::new()));
        let mut add = |src, dst, size, kind, tag, start| {
            sim.add_flow(src, dst, size, kind, tag, start);
        };
        mesh_flows(&mut add);
        let pool = ThreadPool::new(threads);
        sim.run(SimTime::from_ms(5), &pool);
        let stats = sim.stats();
        let rows: Vec<(u32, usize, u64, u64)> = stats
            .tags()
            .into_iter()
            .map(|t| {
                let s = stats.summary(t);
                (t, s.count, s.mean_ns.to_bits(), s.p99_ns)
            })
            .collect();
        let lifecycle = stats.generated ^ (stats.delivered << 20) ^ (stats.dropped << 40);
        let comps: Vec<(u32, u64)> = sim
            .flow_completions()
            .iter()
            .map(|c| (c.flow, c.fct_ns))
            .collect();
        let rec = sim.take_recorder().expect("recorder attached");
        let events = rec.finish();
        (rows, lifecycle, comps, events)
    }

    #[test]
    fn domain_count_does_not_change_output() {
        let base = run_digest(1, 1);
        for (k, threads) in [(2, 1), (2, 2), (4, 2), (4, 4)] {
            let other = run_digest(k, threads);
            assert_eq!(base.0, other.0, "stats diverge at k={k}");
            assert_eq!(base.1, other.1, "lifecycle counters diverge at k={k}");
            assert_eq!(base.2, other.2, "completions diverge at k={k}");
            assert_eq!(base.3, other.3, "event stream diverges at k={k}");
        }
    }

    #[test]
    fn single_domain_matches_legacy_on_rng_free_workloads() {
        // RPC + FileTransfer + Transport draw no mid-run randomness, and
        // flow hashes come from the same construction-order RNG, so the
        // sharded engine at k = 1 must agree with the legacy engine
        // sample for sample.
        let m = quartz_mesh(4, 2, 10.0, 10.0);
        let mut legacy = Simulator::new(m.net.clone(), SimConfig::default());
        let mut sharded = ShardedSim::new(m.net.clone(), SimConfig::default(), 1);
        for (src, dst, size, kind, tag) in [
            (
                m.hosts[0],
                m.hosts[5],
                400,
                FlowKind::Rpc { count: 30 },
                0u32,
            ),
            (
                m.hosts[1],
                m.hosts[6],
                1_000,
                FlowKind::FileTransfer {
                    total_bytes: 25_000,
                },
                1,
            ),
            (
                m.hosts[2],
                m.hosts[7],
                1_000,
                FlowKind::Transport {
                    total_bytes: 50_000,
                    variant: crate::transport::TcpVariant::Reno,
                },
                2,
            ),
        ] {
            legacy.add_flow(src, dst, size, kind, tag, SimTime::ZERO);
            sharded.add_flow(src, dst, size, kind, tag, SimTime::ZERO);
        }
        legacy.run(SimTime::from_ms(5));
        sharded.run(SimTime::from_ms(5), &ThreadPool::sequential());
        for tag in [0u32, 1, 2] {
            let a = legacy.stats().summary(tag);
            let b = sharded.stats().summary(tag);
            assert_eq!(a.count, b.count, "tag {tag} count");
            assert_eq!(a.mean_ns.to_bits(), b.mean_ns.to_bits(), "tag {tag} mean");
        }
        assert_eq!(legacy.stats().generated, sharded.stats().generated);
        assert_eq!(legacy.stats().delivered, sharded.stats().delivered);
        assert_eq!(
            legacy.flow_completions().len(),
            sharded.flow_completions().len()
        );
        for (a, b) in legacy
            .flow_completions()
            .iter()
            .zip(sharded.flow_completions())
        {
            assert_eq!(a, b, "completion logs diverge");
        }
    }

    #[test]
    fn faults_and_reconvergence_are_domain_count_invariant() {
        let digest = |k: usize| {
            let m = quartz_mesh(6, 2, 10.0, 10.0);
            let cfg = SimConfig {
                reconvergence_ns: Some(50_000),
                ..SimConfig::default()
            };
            let mut sim = ShardedSim::new(m.net.clone(), cfg, k);
            for i in 0..6 {
                sim.add_flow(
                    m.hosts[i],
                    m.hosts[(i + 5) % 12],
                    400,
                    FlowKind::Rpc { count: 60 },
                    i as u32,
                    SimTime::ZERO,
                );
            }
            // Cut a ring channel mid-run.
            let l = m
                .net
                .link_between(m.switches[0], m.switches[3])
                .expect("mesh channel exists");
            sim.fail_link_at(l, SimTime::from_us(30));
            sim.run(SimTime::from_ms(4), &ThreadPool::sequential());
            let log: Vec<(u64, Option<u64>, u64)> = sim
                .fault_log()
                .iter()
                .map(|r| {
                    (
                        r.at.ns(),
                        r.reconverged_at.map(|t| t.ns()),
                        r.drops_during_outage,
                    )
                })
                .collect();
            let s = sim.stats();
            (log, s.generated, s.delivered, s.dropped)
        };
        let base = digest(1);
        assert_eq!(base, digest(2));
        assert_eq!(base, digest(4));
        assert_eq!(base, digest(6));
    }

    #[test]
    fn vlb_detours_are_domain_count_invariant() {
        let digest = |k: usize| {
            let m = quartz_mesh(6, 2, 10.0, 10.0);
            let cfg = SimConfig {
                vlb: Some(crate::sim::VlbConfig {
                    fraction: 0.5,
                    domains: vec![m.switches.clone()],
                }),
                ..SimConfig::default()
            };
            let mut sim = ShardedSim::new(m.net.clone(), cfg, k);
            for i in 0..4 {
                sim.add_flow(
                    m.hosts[i],
                    m.hosts[11 - i],
                    400,
                    FlowKind::Burst {
                        burst_pkts: 4,
                        period_ns: 10_000,
                        stop: SimTime::from_us(300),
                    },
                    i as u32,
                    SimTime::ZERO,
                );
            }
            sim.run(SimTime::from_ms(2), &ThreadPool::sequential());
            let s = sim.stats();
            (
                s.generated,
                s.delivered,
                s.tags()
                    .into_iter()
                    .map(|t| s.summary(t).mean_ns.to_bits())
                    .collect::<Vec<_>>(),
            )
        };
        let base = digest(1);
        assert_eq!(base, digest(2));
        assert_eq!(base, digest(6));
    }

    #[test]
    fn composite_partitions_and_runs_sharded() {
        let c = quartz_in_core(3, 4, 2, 4);
        let mut sim = ShardedSim::new(c.net.clone(), SimConfig::default(), 4);
        assert!(sim.domain_count() >= 2, "composite splits into domains");
        assert!(sim.lookahead_ns() >= 1);
        let n = c.hosts.len();
        for i in 0..8 {
            sim.add_flow(
                c.hosts[i],
                c.hosts[(i + n / 2) % n],
                400,
                FlowKind::Rpc { count: 25 },
                0,
                SimTime::ZERO,
            );
        }
        sim.run(SimTime::from_ms(10), &ThreadPool::new(2));
        assert_eq!(sim.stats().summary(0).count, 8 * 25);
        assert!(sim.events_processed() > 0);
        let per = sim.per_domain_events();
        assert_eq!(per.len(), sim.domain_count());
        assert!(per.iter().copied().sum::<u64>() >= sim.stats().generated);
    }

    #[test]
    #[should_panic(expected = "lookahead")]
    fn zero_lookahead_is_rejected() {
        let m = quartz_mesh(4, 2, 10.0, 10.0);
        let cfg = SimConfig {
            prop_delay_ns: 0,
            latency: crate::switch::LatencyModel::ideal(),
            ..SimConfig::default()
        };
        let _ = ShardedSim::new(m.net.clone(), cfg, 2);
    }
}
