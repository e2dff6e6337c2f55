//! Differential pinning of the timing-wheel engine against the
//! reference binary heap (DESIGN.md §8).
//!
//! Two layers:
//!
//! * **Scheduler-level**: seeded random event streams — equal-timestamp
//!   bursts, beyond-horizon times, mid-drain pushes back into the
//!   draining bucket, far events on the exact edges of the wheel's
//!   horizon — must drain through [`TimingWheel`] and
//!   [`BinaryHeapScheduler`] in the same order. The streams fan out
//!   over a [`ThreadPool`] pinned at 1, 2, and 8 workers, because the
//!   determinism contract is "bit-identical at any `--jobs`": each
//!   worker drains its own schedulers, and the per-seed transcripts
//!   must not depend on which worker ran them.
//! * **Simulator-level**: a full VLB-mesh run with a mid-run fiber cut
//!   produces identical statistics and fault logs under
//!   [`SchedulerKind::TimingWheel`] and [`SchedulerKind::BinaryHeap`].

use quartz_core::ThreadPool;
use quartz_netsim::sched::{
    BinaryHeapScheduler, Scheduler, SchedulerKind, TimingWheel, GRANULARITY, GRANULARITY_LOG2,
    NUM_BUCKETS,
};
use quartz_netsim::{FlowKind, SimConfig, SimTime, Simulator, VlbConfig};
use quartz_topology::builders::quartz_mesh;

/// A simple deterministic LCG so the streams need nothing beyond core.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 11
    }
}

/// Drains one seeded stream through both engines and returns the wheel's
/// pop transcript; panics on any divergence from the heap.
fn drain_stream(seed: u64) -> Vec<(u64, u32)> {
    let mut wheel = TimingWheel::new();
    let mut heap = BinaryHeapScheduler::new();
    let mut rng = Lcg(seed.wrapping_add(1));
    for i in 0..500u32 {
        let t = match rng.next() % 4 {
            0 => rng.next() % 64,        // one-bucket bursts
            1 => rng.next() % 20_000,    // near horizon
            2 => 7_000 + rng.next() % 4, // equal-time ties
            _ => rng.next() % 4_000_000, // far beyond horizon
        };
        wheel.push(SimTime::from_ns(t), i);
        heap.push(SimTime::from_ns(t), i);
    }
    let mut transcript = Vec::new();
    let mut tag = 500u32;
    loop {
        let w = wheel.pop();
        assert_eq!(w, heap.pop(), "engines diverged (seed {seed})");
        let Some((t, v)) = w else { break };
        transcript.push((t.ns(), v));
        // Mid-drain pushes, frequently into the bucket being drained.
        if v % 3 == 0 && tag < 800 {
            let delta = match rng.next() % 3 {
                0 => 0,
                1 => rng.next() % 100,
                _ => 500_000 + rng.next() % 100_000,
            };
            wheel.push(t + delta, tag);
            heap.push(t + delta, tag);
            tag += 1;
        }
    }
    assert!(wheel.is_empty() && heap.is_empty());
    transcript
}

#[test]
fn seeded_streams_drain_identically_at_any_worker_count() {
    let baseline: Vec<Vec<(u64, u32)>> = (0..16).map(|s| drain_stream(s as u64)).collect();
    for workers in [1, 2, 8] {
        let pool = ThreadPool::new(workers);
        let fanned = pool.par_map(16, |s| drain_stream(s as u64));
        assert_eq!(
            baseline, fanned,
            "scheduler transcripts must not depend on --jobs (workers={workers})"
        );
    }
}

/// Drains a stream whose far events sit on the exact edges of the
/// wheel's horizon through both engines; panics on any divergence.
/// Every pop at `t` re-pushes relative to the horizon of `t`'s slot —
/// the last near nanosecond, the first and last nanoseconds of the
/// horizon slot itself, and one revolution beyond — so migrations and
/// cursor jumps land exactly on bucket reuse.
fn drain_boundary_stream(seed: u64) -> usize {
    let g = GRANULARITY;
    let span = NUM_BUCKETS as u64 * g;
    let mut wheel = TimingWheel::new();
    let mut heap = BinaryHeapScheduler::new();
    let mut rng = Lcg(seed.wrapping_add(0xB0B));
    let edges = [0, 1, g - 1, g, span - g, span - 1];
    for i in 0..300u32 {
        let t = (rng.next() % 6) * span + edges[(rng.next() % 6) as usize];
        wheel.push(SimTime::from_ns(t), i);
        heap.push(SimTime::from_ns(t), i);
    }
    let (mut tag, mut pops) = (300u32, 0);
    loop {
        let w = wheel.pop();
        assert_eq!(w, heap.pop(), "engines diverged (seed {seed})");
        let Some((t, _)) = w else { break };
        pops += 1;
        if tag < 1_500 {
            let horizon = (t.wheel_slot(GRANULARITY_LOG2) + NUM_BUCKETS as u64) * g;
            let at = match rng.next() % 5 {
                0 => horizon - 1,
                1 => horizon,
                2 => horizon + g - 1,
                3 => horizon + span,
                _ => t.ns(),
            };
            wheel.push(SimTime::from_ns(at), tag);
            heap.push(SimTime::from_ns(at), tag);
            tag += 1;
        }
    }
    assert!(wheel.is_empty() && heap.is_empty());
    pops
}

#[test]
fn horizon_boundary_streams_drain_identically() {
    for seed in 0..16 {
        assert_eq!(drain_boundary_stream(seed), 1_500);
    }
}

/// One VLB-mesh simulation with a mid-run fiber cut; returns per-tag
/// (count, mean, p99) plus drop and reconvergence evidence.
fn mesh_run(kind: SchedulerKind) -> Vec<(usize, f64, u64, u64)> {
    let q = quartz_mesh(8, 4, 10.0, 10.0);
    let cfg = SimConfig {
        vlb: Some(VlbConfig {
            fraction: 0.5,
            domains: vec![q.switches.clone()],
        }),
        reconvergence_ns: Some(50_000),
        scheduler: kind,
        ..SimConfig::default()
    };
    let mut sim = Simulator::new(q.net.clone(), cfg);
    for (i, &src) in q.hosts.iter().enumerate() {
        let dst = q.hosts[(i + 9) % q.hosts.len()];
        sim.add_flow(
            src,
            dst,
            400,
            FlowKind::Poisson {
                mean_gap_ns: 2_000.0,
                stop: SimTime::from_ms(2),
                respond: false,
            },
            0,
            SimTime::ZERO,
        );
    }
    // Cut a mesh channel mid-run; routes reconverge 50 µs later.
    let ring_link = q
        .net
        .link_between(q.switches[0], q.switches[1])
        .expect("mesh clique link");
    sim.fail_link_at(ring_link, SimTime::from_us(500));
    sim.run(SimTime::from_ms(3));
    let s = sim.stats().summary(0);
    let mut out = vec![(s.count, s.mean_ns, s.p99_ns, sim.stats().dropped)];
    for r in sim.fault_log() {
        out.push((
            0,
            0.0,
            r.at.ns(),
            r.reconverged_at.expect("reconverged").ns(),
        ));
    }
    out
}

#[test]
fn full_simulation_is_identical_under_both_engines() {
    assert_eq!(
        mesh_run(SchedulerKind::TimingWheel),
        mesh_run(SchedulerKind::BinaryHeap),
        "wheel and heap engines must produce bit-identical runs"
    );
}
