//! Event schedulers: the timing-wheel engine and its reference heap.
//!
//! The discrete-event loop in [`crate::sim`] is bounded by how fast it
//! can push and pop timestamped events. A `BinaryHeap` gives `O(log n)`
//! per operation and — worse for a packet simulator — every sift moves
//! the full event payload several times. This module replaces it with a
//! calendar-queue-style **timing wheel** ([`TimingWheel`]):
//!
//! * a **near wheel** of `NUM_BUCKETS` (8192) buckets, each covering
//!   `GRANULARITY` (4) ns of simulated time, holding every event within
//!   the sliding horizon `[cursor, cursor + NUM_BUCKETS × GRANULARITY)`
//!   (32.8 µs);
//! * an **overflow heap** for far-future events (retransmission timers,
//!   scheduled faults), migrated into the wheel as the cursor slides
//!   over their slot;
//! * **one node pool** behind both: every queued event outside the
//!   cursor bucket is a `(time, seq, next, item)` node in a single
//!   `Vec`. A near bucket is an intrusive list — one `u32` head per
//!   bucket — and the overflow heap orders `(time, seq, node)` keys into
//!   the same pool, so migration relinks a node instead of moving its
//!   payload. Freed nodes recycle LIFO, so a push reuses the line a
//!   gather just released, and the pool never outgrows the peak queued
//!   count: the wheel's memory is one dense, warm array however bursty
//!   the buckets;
//! * an **occupancy bitmap** (`NUM_BUCKETS / 64` words): the cursor
//!   jumps straight to the next non-empty bucket with `trailing_zeros`
//!   instead of stepping through empty ones. The jump is capped at the
//!   overflow heap's earliest slot, so a far event always migrates
//!   before the cursor passes its slot;
//! * a **sorted cursor bucket**: when the cursor lands on a bucket, its
//!   list is gathered into `current` (a flat `Vec`) sorted descending
//!   by `(time, seq)`, after which every pop and peek is O(1) off the
//!   tail. Lists run newest push first; a gather copies the list in
//!   one pass and sorts only when that pass found it out of order.
//!   Fine 4 ns buckets keep these sorts tiny (a 40 %-load mesh queues
//!   two to three events per bucket, where 64 ns buckets held ~40).
//!   Pushes into future buckets stay O(1); only the uncommon push
//!   landing on (or before) the cursor bucket pays an ordered insert.
//!
//! ## Ordering contract
//!
//! Both schedulers implement [`Scheduler`] and drain events in exactly
//! `(time, seq)` order, where `seq` is a monotone sequence number
//! assigned at push. This is the tie-break rule the simulator's
//! determinism contract (DESIGN.md §6) is built on: two schedulers fed
//! the same pushes pop the same events in the same order, bit for bit.
//! [`BinaryHeapScheduler`] is kept as the executable reference for
//! differential tests (`tests/scheduler_differential.rs`); the wheel
//! achieves the same order because
//!
//! * every bucket within the horizon maps to exactly one absolute slot,
//!   so the first non-empty bucket at the cursor holds the globally
//!   earliest events, and
//! * the cursor bucket is drained in sorted `(time, seq)` order — exact
//!   even when a bucket mixes timestamps (events pushed for the past
//!   are clamped into the cursor bucket and still sort first).
//!
//! Pushing an event earlier than the last popped time is allowed (it
//! pops next, same as the heap; the simulators themselves never do, and
//! `debug_assert` it at every scheduling site); pushing while mid-drain
//! of the same timestamp is the common case (a packet forwarded at
//! `now`) and ordered correctly by `seq`.

// lint:panic-free — the event engine runs inside every simulated
// nanosecond; a panic here tears down mid-run with arena slots live.
// Potential panic sites below either return Option or state their
// bound with a debug_assert.

use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Near-wheel bucket count (power of two; index masks instead of `%`).
pub const NUM_BUCKETS: usize = 8192;
/// log2 of the nanoseconds each bucket spans.
pub const GRANULARITY_LOG2: u32 = 2;
/// Nanoseconds per bucket.
pub const GRANULARITY: u64 = 1 << GRANULARITY_LOG2;
const BUCKET_MASK: u64 = (NUM_BUCKETS as u64) - 1;

/// Which event engine a simulator runs on (see
/// [`crate::sim::SimConfig::scheduler`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SchedulerKind {
    /// The timing wheel ([`TimingWheel`]) — the default engine.
    #[default]
    TimingWheel,
    /// The reference binary heap ([`BinaryHeapScheduler`]), retained
    /// for differential testing and A/B benches.
    BinaryHeap,
}

/// A deterministic future-event set: timestamped items drain in
/// `(time, push order)` order.
///
/// The `seq` half of the ordering key is normally assigned implicitly
/// by [`Scheduler::push`], but the batched link drain
/// (DESIGN.md §10) needs to *decouple* sequence allocation from event
/// insertion: each packet appended to a link batch reserves a sequence
/// number (so tie-breaks match the unbatched schedule bit for bit), yet
/// only one sentinel event — carrying the *first* entry's key — sits in
/// the queue. [`Scheduler::reserve_seq`] and [`Scheduler::push_at_seq`]
/// expose that split; [`Scheduler::peek_key`] lets the drain loop ask
/// "is anything queued ahead of my next batch entry?" without popping.
pub trait Scheduler<T> {
    /// Queues `item` at `time`, assigning it the next sequence number.
    fn push(&mut self, time: SimTime, item: T) {
        let seq = self.reserve_seq();
        self.push_at_seq(time, seq, item);
    }
    /// Draws the next sequence number without queueing anything.
    fn reserve_seq(&mut self) -> u64;
    /// Queues `item` at `(time, seq)` where `seq` came from
    /// [`Scheduler::reserve_seq`]. Keys must be unique; reusing a
    /// reserved seq for a second queued event is a logic error.
    fn push_at_seq(&mut self, time: SimTime, seq: u64, item: T);
    /// Removes and returns the earliest `(time, seq)` event.
    fn pop(&mut self) -> Option<(SimTime, T)>;
    /// [`Scheduler::pop`], but only if the earliest event's time is
    /// `<= bound`; otherwise the queue is untouched.
    fn pop_before(&mut self, bound: SimTime) -> Option<(SimTime, T)>;
    /// The earliest queued `(time, seq)` key, if any. Takes `&mut self`
    /// because the wheel may advance its cursor (not observable).
    fn peek_key(&mut self) -> Option<(SimTime, u64)>;
    /// The earliest queued time, if any. Takes `&mut self` because the
    /// wheel may advance its cursor to find it (not observable).
    fn next_time(&mut self) -> Option<SimTime> {
        self.peek_key().map(|(t, _)| t)
    }
    /// Queued event count.
    fn len(&self) -> usize;
    /// Whether nothing is queued.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The reference scheduler: a binary min-heap ordered by `(time, seq)`.
/// Exactly the engine the simulator used before the timing wheel; kept
/// as the executable specification of the ordering contract.
#[derive(Debug)]
pub struct BinaryHeapScheduler<T> {
    heap: BinaryHeap<Reverse<HeapEv<T>>>,
    seq: u64,
}

#[derive(Debug)]
struct HeapEv<T> {
    time: SimTime,
    seq: u64,
    item: T,
}

impl<T> PartialEq for HeapEv<T> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<T> Eq for HeapEv<T> {}
impl<T> PartialOrd for HeapEv<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for HeapEv<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

impl<T> Default for BinaryHeapScheduler<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> BinaryHeapScheduler<T> {
    /// An empty heap scheduler.
    pub fn new() -> Self {
        BinaryHeapScheduler {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }
}

impl<T> Scheduler<T> for BinaryHeapScheduler<T> {
    fn reserve_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq
    }

    fn push_at_seq(&mut self, time: SimTime, seq: u64, item: T) {
        self.heap.push(Reverse(HeapEv { time, seq, item }));
    }

    fn pop(&mut self) -> Option<(SimTime, T)> {
        self.heap.pop().map(|Reverse(e)| (e.time, e.item))
    }

    fn pop_before(&mut self, bound: SimTime) -> Option<(SimTime, T)> {
        if self.heap.peek().is_some_and(|Reverse(e)| e.time <= bound) {
            self.pop()
        } else {
            None
        }
    }

    fn peek_key(&mut self) -> Option<(SimTime, u64)> {
        self.heap.peek().map(|Reverse(e)| (e.time, e.seq))
    }

    fn len(&self) -> usize {
        self.heap.len()
    }
}

/// "No node": the end of a bucket list, an empty bucket, an empty free
/// list. `nodes.get(NIL as usize)` is always `None`, so walking a list
/// needs no separate end test.
const NIL: u32 = u32::MAX;
/// Words of the occupancy bitmap (one bit per near bucket).
const WORDS: usize = NUM_BUCKETS / 64;

/// One queued event in the wheel's node pool: its key, its payload and
/// the intrusive link to the next node of its bucket list (or of the
/// free list, once recycled). A recycled node keeps its stale payload;
/// `T: Copy` makes that harmless and spares an `Option` tag.
#[derive(Clone, Copy, Debug)]
struct Node<T> {
    time: SimTime,
    seq: u64,
    next: u32,
    item: T,
}

/// The timing-wheel scheduler (see the module docs for geometry and the
/// ordering argument).
#[derive(Debug)]
pub struct TimingWheel<T> {
    /// Head node of each near bucket's list (`NIL` when empty); bucket
    /// `i` holds exactly the events of absolute slot `s` with
    /// `s & BUCKET_MASK == i` for the unique `s` in
    /// `(cursor, cursor + NUM_BUCKETS)`. The cursor's own slot lives in
    /// `current`, so its bucket is empty outside [`TimingWheel::seek`].
    /// Boxed, like `occupied`, so that the simulators holding a wheel
    /// stay small to build and move.
    heads: Box<[u32; NUM_BUCKETS]>,
    /// Bit `i` set ⇔ bucket `i` is non-empty.
    occupied: Box<[u64; WORDS]>,
    /// The node pool shared by every bucket list and the overflow heap.
    /// It only grows, to the peak count of events queued outside
    /// `current`.
    nodes: Vec<Node<T>>,
    /// Head of the LIFO free list threaded through `Node::next`.
    free: u32,
    /// The cursor bucket's entries, sorted **descending** by
    /// `(time, seq)`: the global minimum is the last element (every
    /// other near entry sits in a strictly later slot, and far entries
    /// later still), so pop and peek are O(1) off the tail.
    current: Vec<(SimTime, u64, T)>,
    /// Events at `slot >= cursor + NUM_BUCKETS`, ordered by
    /// `(time, seq)` for exact migration; the payload stays in its node.
    far: BinaryHeap<Reverse<(SimTime, u64, u32)>>,
    /// Absolute slot index (`time >> GRANULARITY_LOG2`) of the bucket
    /// the drain cursor is on. Only ever advances.
    cursor: u64,
    /// Total queued events (current + buckets + far).
    len: usize,
    seq: u64,
}

impl<T: Copy> Default for TimingWheel<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Copy> TimingWheel<T> {
    /// An empty wheel with the cursor at time zero.
    pub fn new() -> Self {
        TimingWheel {
            heads: Box::new([NIL; NUM_BUCKETS]),
            occupied: Box::new([0; WORDS]),
            nodes: Vec::new(),
            free: NIL,
            current: Vec::new(),
            far: BinaryHeap::new(),
            cursor: 0,
            len: 0,
            seq: 0,
        }
    }

    /// Takes a node off the free list (the one freed most recently, so
    /// its line is likely still cached), or grows the pool.
    // lint:hot
    #[inline]
    fn alloc(&mut self, node: Node<T>) -> u32 {
        let id = self.free;
        match self.nodes.get_mut(id as usize) {
            Some(slot) => {
                self.free = slot.next;
                *slot = node;
                id
            }
            None => self.grow(node),
        }
    }

    /// Appends a fresh node: the pool's only allocation, off the hot
    /// path once the pool has reached the run's peak occupancy.
    #[cold]
    #[inline(never)]
    fn grow(&mut self, node: Node<T>) -> u32 {
        debug_assert!(
            self.nodes.len() < NIL as usize,
            "node ids fit u32 below NIL"
        );
        let id = self.nodes.len() as u32;
        self.nodes.push(node);
        id
    }

    /// Links node `id` at the head of bucket `b` and marks it occupied.
    #[inline]
    fn link(&mut self, b: usize, id: u32) {
        debug_assert!(b < NUM_BUCKETS, "bucket index is masked");
        if let Some(node) = self.nodes.get_mut(id as usize) {
            node.next = self.heads[b];
            self.heads[b] = id;
            self.occupied[b / 64] |= 1 << (b % 64);
        }
    }

    /// Absolute slot of the first non-empty near bucket after the
    /// cursor, found by scanning the occupancy bitmap cyclically from
    /// the cursor's successor bucket.
    fn next_occupied(&self) -> Option<u64> {
        let start = ((self.cursor + 1) & BUCKET_MASK) as usize;
        let (w0, b0) = (start / 64, start % 64);
        // WORDS + 1 steps: the first word from `start` on, the others
        // whole, and the first word again below `start`.
        for k in 0..=WORDS {
            let w = (w0 + k) % WORDS;
            debug_assert!(w < WORDS, "word index is reduced mod WORDS");
            let mut bits = self.occupied[w];
            if k == 0 {
                bits &= !0u64 << b0;
            } else if k == WORDS {
                bits &= !(!0u64 << b0);
            }
            if bits != 0 {
                let idx = (w * 64) as u64 + u64::from(bits.trailing_zeros());
                let dist = idx.wrapping_sub(self.cursor) & BUCKET_MASK;
                debug_assert!(dist != 0, "the cursor's own bucket is empty");
                return Some(self.cursor + dist);
            }
        }
        None
    }

    /// Relinks every far node whose slot has entered the horizon into
    /// its near bucket — the payload never moves. Only called from
    /// [`TimingWheel::seek`] before the cursor bucket is gathered, so
    /// migrated nodes (whose slots are all `>= cursor`) are in place
    /// when it is. (Slot math goes through [`SimTime::wheel_slot`], the
    /// single definition of the mapping.)
    fn migrate(&mut self) {
        let horizon = self.cursor + NUM_BUCKETS as u64;
        while let Some(&Reverse((t, _, id))) = self.far.peek() {
            let slot = t.wheel_slot(GRANULARITY_LOG2);
            if slot >= horizon {
                break;
            }
            self.far.pop();
            debug_assert!(slot >= self.cursor);
            self.link((slot & BUCKET_MASK) as usize, id);
        }
    }

    /// Moves bucket `b`'s entries into the empty `current`, sorted
    /// descending, and recycles their nodes. A bucket list runs newest
    /// push first, so it is already descending whenever its events were
    /// pushed in key order; one pass copies it and checks, and only a
    /// bucket found out of order (about half of them on the benchmark
    /// fabrics, at one to four events each) is sorted.
    fn gather(&mut self, b: usize) {
        debug_assert!(b < NUM_BUCKETS, "bucket index is masked");
        let mut id = std::mem::replace(&mut self.heads[b], NIL);
        self.occupied[b / 64] &= !(1 << (b % 64));
        let mut sorted = true;
        while let Some(node) = self.nodes.get_mut(id as usize) {
            let next = node.next;
            node.next = self.free;
            self.free = id;
            if let Some(last) = self.current.last() {
                sorted &= (node.time, node.seq) < (last.0, last.1);
            }
            self.current.push((node.time, node.seq, node.item));
            id = next;
        }
        if !sorted {
            self.current
                .sort_unstable_by_key(|e| std::cmp::Reverse((e.0, e.1)));
        }
    }

    /// Makes `current` hold the earliest queued events: jumps the
    /// cursor to the first non-empty near bucket (via the occupancy
    /// bitmap), capped at the overflow heap's earliest slot so that a
    /// far event always migrates before the cursor passes its slot, and
    /// gathers that bucket. Returns `false` when nothing is queued.
    fn seek(&mut self) -> bool {
        if !self.current.is_empty() {
            return true;
        }
        if self.len == 0 {
            return false;
        }
        let far = self
            .far
            .peek()
            .map(|&Reverse((t, _, _))| t.wheel_slot(GRANULARITY_LOG2));
        let Some(target) = (match (self.next_occupied(), far) {
            (Some(near), Some(far)) => Some(near.min(far)),
            (near, far) => near.or(far),
        }) else {
            // Unreachable: len > 0 means some bucket or the far heap
            // holds an event.
            debug_assert!(false, "len {} with both wheels empty", self.len);
            return false;
        };
        debug_assert!(target > self.cursor, "the cursor only advances");
        self.cursor = target;
        self.migrate();
        self.gather((target & BUCKET_MASK) as usize);
        debug_assert!(!self.current.is_empty(), "the target bucket is occupied");
        !self.current.is_empty()
    }
}

impl<T: Copy> Scheduler<T> for TimingWheel<T> {
    fn reserve_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq
    }

    fn push_at_seq(&mut self, time: SimTime, seq: u64, item: T) {
        let slot = time.wheel_slot(GRANULARITY_LOG2);
        if slot <= self.cursor {
            // Into (or before — allowed, rare) the cursor bucket:
            // ordered insert keeps `current` sorted descending.
            let key = (time, seq);
            let pos = self.current.partition_point(|e| (e.0, e.1) > key);
            self.current.insert(pos, (time, seq, item));
        } else {
            let near = slot < self.cursor + NUM_BUCKETS as u64;
            let node = Node {
                time,
                seq,
                next: NIL,
                item,
            };
            let id = self.alloc(node);
            if near {
                self.link((slot & BUCKET_MASK) as usize, id);
            } else {
                self.far.push(Reverse((time, seq, id)));
            }
        }
        self.len += 1;
    }

    // lint:hot
    fn pop(&mut self) -> Option<(SimTime, T)> {
        if !self.seek() {
            return None;
        }
        // `seek() == true` guarantees `current` is non-empty.
        let (time, _, item) = self.current.pop()?;
        self.len -= 1;
        Some((time, item))
    }

    // lint:hot
    fn pop_before(&mut self, bound: SimTime) -> Option<(SimTime, T)> {
        if !self.seek() {
            return None;
        }
        if self.current.last()?.0 > bound {
            return None;
        }
        let (time, _, item) = self.current.pop()?;
        self.len -= 1;
        Some((time, item))
    }

    // lint:hot
    fn peek_key(&mut self) -> Option<(SimTime, u64)> {
        if !self.seek() {
            return None;
        }
        let e = self.current.last()?;
        Some((e.0, e.1))
    }

    fn len(&self) -> usize {
        self.len
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quartz_core::rng::StdRng;

    /// Drains both schedulers fed the same pushes and asserts identical
    /// pop streams. Interleaves pushes mid-drain the way the simulator
    /// does: some popped events re-push at `now + delta`.
    fn differential(seed: u64, initial: usize, respawn_num: u64, respawn_den: u64) {
        let mut wheel = TimingWheel::new();
        let mut heap = BinaryHeapScheduler::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut pushes: Vec<(SimTime, u32)> = Vec::new();
        for i in 0..initial {
            // Mix near (same-bucket bursts), mid, and far-horizon times.
            let t = match rng.random_range(0..4) {
                0 => rng.random_range(0..64) as u64,
                1 => rng.random_range(0..10_000) as u64,
                2 => 5_000 + rng.random_range(0..8) as u64, // equal-time bursts
                _ => rng.random_range(0..5_000_000) as u64, // beyond horizon
            };
            pushes.push((SimTime::from_ns(t), i as u32));
        }
        for &(t, v) in &pushes {
            wheel.push(t, v);
            heap.push(t, v);
        }
        let mut next_tag = initial as u32;
        let mut popped = 0u64;
        loop {
            let w = wheel.pop();
            let h = heap.pop();
            assert_eq!(w, h, "divergence after {popped} pops (seed {seed})");
            let Some((t, _)) = w else {
                break;
            };
            popped += 1;
            // Deterministic respawn: mid-drain pushes, often landing in
            // the bucket being drained (delta 0) or exactly on another
            // queued timestamp.
            if popped % respawn_den < respawn_num && next_tag < initial as u32 + 400 {
                let delta = match rng.random_range(0..3) {
                    0 => 0,
                    1 => rng.random_range(0..100) as u64,
                    _ => 300_000 + rng.random_range(0..300_000) as u64,
                };
                wheel.push(t + delta, next_tag);
                heap.push(t + delta, next_tag);
                next_tag += 1;
            }
        }
        assert!(wheel.is_empty() && heap.is_empty());
    }

    #[test]
    fn wheel_matches_heap_on_seeded_streams() {
        for seed in 0..if cfg!(miri) { 2 } else { 8 } {
            differential(seed, 300, 1, 3);
        }
    }

    #[test]
    fn wheel_matches_heap_under_heavy_respawn() {
        differential(0xFEED, 50, 1, 1);
    }

    #[test]
    fn equal_timestamps_drain_in_push_order() {
        let mut w = TimingWheel::new();
        for i in 0..100u32 {
            w.push(SimTime::from_ns(42), i);
        }
        for i in 0..100u32 {
            assert_eq!(w.pop(), Some((SimTime::from_ns(42), i)));
        }
        assert_eq!(w.pop(), None);
    }

    #[test]
    fn far_future_events_migrate_in_order() {
        let mut w = TimingWheel::new();
        // All beyond the 8192 × 4 ns ≈ 32.8 µs horizon.
        w.push(SimTime::from_ms(3), 0u32);
        w.push(SimTime::from_ms(1), 1);
        w.push(SimTime::from_ms(2), 2);
        w.push(SimTime::from_ms(1), 3);
        assert_eq!(w.next_time(), Some(SimTime::from_ms(1)));
        assert_eq!(w.pop(), Some((SimTime::from_ms(1), 1)));
        assert_eq!(w.pop(), Some((SimTime::from_ms(1), 3)));
        assert_eq!(w.pop(), Some((SimTime::from_ms(2), 2)));
        assert_eq!(w.pop(), Some((SimTime::from_ms(3), 0)));
        assert_eq!(w.pop(), None);
    }

    #[test]
    fn pop_before_leaves_later_events_queued() {
        let mut w = TimingWheel::new();
        w.push(SimTime::from_ns(10), 'a');
        w.push(SimTime::from_ns(2_000_000), 'b');
        assert_eq!(
            w.pop_before(SimTime::from_ns(100)),
            Some((SimTime::from_ns(10), 'a'))
        );
        assert_eq!(w.pop_before(SimTime::from_ns(100)), None);
        assert_eq!(w.len(), 1);
        assert_eq!(
            w.pop_before(SimTime::from_ms(5)),
            Some((SimTime::from_ns(2_000_000), 'b'))
        );
        assert!(w.is_empty());
    }

    #[test]
    fn past_pushes_pop_immediately() {
        // The heap would pop an earlier-than-now push first; the wheel
        // clamps it into the cursor bucket and must do the same.
        let mut w = TimingWheel::new();
        let mut h = BinaryHeapScheduler::new();
        for s in [&mut w as &mut dyn Scheduler<u32>, &mut h] {
            s.push(SimTime::from_us(50), 0);
            s.push(SimTime::from_us(60), 1);
            assert_eq!(s.pop(), Some((SimTime::from_us(50), 0)));
            // Now push "into the past" relative to the cursor.
            s.push(SimTime::from_us(1), 2);
            assert_eq!(s.pop(), Some((SimTime::from_us(1), 2)));
            assert_eq!(s.pop(), Some((SimTime::from_us(60), 1)));
        }
    }

    #[test]
    fn node_pool_never_exceeds_peak_queued_count() {
        // Seeded churn over every push path — cursor bucket, near
        // bucket, overflow heap — with pops interleaved: the pool only
        // grows when every node is live, so it never outgrows the peak
        // number of events queued at once.
        let mut w = TimingWheel::new();
        let mut rng = StdRng::seed_from_u64(0x5EED);
        let mut now = 0u64;
        let mut peak = 0usize;
        let steps = if cfg!(miri) { 2_000 } else { 50_000u32 };
        for step in 0..steps {
            if rng.random_range(0..5) < 3 {
                let delta = match rng.random_range(0..4) {
                    0 => 0,
                    1 => rng.random_range(0..200) as u64,
                    2 => rng.random_range(0..30_000) as u64,
                    _ => 40_000 + rng.random_range(0..2_000_000) as u64,
                };
                w.push(SimTime::from_ns(now + delta), step);
            } else if let Some((t, _)) = w.pop() {
                now = t.ns();
            }
            peak = peak.max(w.len());
            assert!(
                w.nodes.len() <= peak,
                "pool {} > peak {peak} at step {step}",
                w.nodes.len()
            );
        }
        while w.pop().is_some() {}
        // Ten rounds of 50 overflow-heap events reuse the same 50 nodes.
        let mut w = TimingWheel::new();
        for round in 0..10u64 {
            for i in 0..50u32 {
                w.push(SimTime::from_ms(round + 1) + i as u64 * 1_000, i);
            }
            while w.pop().is_some() {}
        }
        assert_eq!(w.nodes.len(), 50);
    }

    #[test]
    fn single_timestamp_burst_drains_in_key_order() {
        // 10k events on one future timestamp: one bucket list gathered
        // into `current` at once. Plain pushes, then the same burst with
        // reserved seqs pushed in a scrambled order (the gather's sort
        // fallback).
        let burst: u32 = if cfg!(miri) { 500 } else { 10_000 };
        let t = SimTime::from_ns(5_000);
        let mut w = TimingWheel::new();
        for i in 0..burst {
            w.push(t, i);
        }
        for i in 0..burst {
            assert_eq!(w.pop(), Some((t, i)));
        }
        assert!(w.is_empty());

        let mut w = TimingWheel::new();
        let seqs: Vec<u64> = (0..burst).map(|_| w.reserve_seq()).collect();
        let mut order: Vec<u32> = (0..burst).collect();
        let mut rng = StdRng::seed_from_u64(3);
        for i in (1..order.len()).rev() {
            order.swap(i, rng.random_range(0..i + 1));
        }
        for &i in &order {
            w.push_at_seq(t + 10_000, seqs[i as usize], i);
        }
        for i in 0..burst {
            assert_eq!(w.peek_key(), Some((t + 10_000, seqs[i as usize])));
            assert_eq!(w.pop(), Some((t + 10_000, i)));
        }
        assert!(w.is_empty());
    }

    #[test]
    fn cursor_jump_over_empty_revolution_migrates_horizon_event_first() {
        let g = GRANULARITY;
        let n = NUM_BUCKETS as u64;
        let mut w = TimingWheel::new();
        // Park the cursor on slot 3.
        w.push(SimTime::from_ns(3 * g), 0u32);
        assert_eq!(w.pop(), Some((SimTime::from_ns(3 * g), 0)));
        assert_eq!(w.cursor, 3);
        // Exactly on the horizon (slot cursor + N): an overflow event,
        // although its bucket index equals the cursor's own. Behind it,
        // another far event one slot later and one a revolution on.
        let edge = SimTime::from_ns((3 + n) * g);
        w.push(edge + 1, 1);
        w.push(SimTime::from_ns((4 + n) * g), 2);
        w.push(SimTime::from_ns((3 + 2 * n) * g), 3);
        assert_eq!(w.far.len(), 3);
        assert_eq!(
            *w.occupied, [0; WORDS],
            "nothing near: a whole empty revolution"
        );
        // The jump lands on the horizon slot, not past it, and the
        // migrated event pops first.
        assert_eq!(w.pop(), Some((edge + 1, 1)));
        assert_eq!(w.cursor, 3 + n);
        // A push onto the old horizon slot is now a cursor-bucket push.
        w.push(edge, 4);
        assert_eq!(w.pop(), Some((edge, 4)));
        assert_eq!(w.pop(), Some((SimTime::from_ns((4 + n) * g), 2)));
        assert_eq!(w.pop(), Some((SimTime::from_ns((3 + 2 * n) * g), 3)));
        assert_eq!(w.pop(), None);

        // With a near event still queued one slot short of the horizon,
        // the jump stops there first and the far event follows.
        let mut w = TimingWheel::new();
        w.push(SimTime::from_ns(3 * g), 0u32);
        w.pop();
        w.push(SimTime::from_ns((3 + n) * g), 1);
        w.push(SimTime::from_ns((2 + n) * g), 2);
        assert_eq!(w.pop(), Some((SimTime::from_ns((2 + n) * g), 2)));
        assert_eq!(w.pop(), Some((SimTime::from_ns((3 + n) * g), 1)));
    }

    #[test]
    fn reserved_seq_orders_like_plain_push_on_both_engines() {
        // Reserving seqs up front and pushing out of order must drain
        // identically to plain pushes in reservation order — this is
        // the primitive the batched link drain stands on.
        let mut w = TimingWheel::new();
        let mut h = BinaryHeapScheduler::new();
        for s in [&mut w as &mut dyn Scheduler<u32>, &mut h] {
            let t = SimTime::from_ns(100);
            let s0 = s.reserve_seq();
            let s1 = s.reserve_seq();
            let s2 = s.reserve_seq();
            assert!(s0 < s1 && s1 < s2);
            // Insert in scrambled order, same timestamp.
            s.push_at_seq(t, s2, 2);
            s.push_at_seq(t, s0, 0);
            s.push_at_seq(t, s1, 1);
            assert_eq!(s.peek_key(), Some((t, s0)));
            assert_eq!(s.pop(), Some((t, 0)));
            assert_eq!(s.peek_key(), Some((t, s1)));
            assert_eq!(s.pop(), Some((t, 1)));
            assert_eq!(s.pop(), Some((t, 2)));
            assert_eq!(s.peek_key(), None);
        }
    }

    #[test]
    fn len_tracks_pushes_and_pops() {
        let mut w: TimingWheel<u8> = TimingWheel::new();
        assert!(w.is_empty());
        w.push(SimTime::from_ns(5), 1);
        w.push(SimTime::from_ms(5), 2);
        assert_eq!(w.len(), 2);
        w.pop();
        assert_eq!(w.len(), 1);
        w.pop();
        assert!(w.is_empty());
        assert_eq!(w.next_time(), None);
    }
}
