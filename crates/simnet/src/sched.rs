//! Event queues for the simulator: a hierarchical timer wheel (the
//! fast path) and the original binary heap (retained as a differential
//! oracle so tests can prove the wheel preserves event order exactly).
//!
//! Both queues implement the same total order the engine has always
//! used: events pop in ascending `(at, seq)` where `at` is the absolute
//! simulated time in nanoseconds and `seq` is a unique sequence number.
//! Corpus bytes therefore cannot change when switching between them —
//! and the differential tests assert exactly that.
//!
//! ## Wheel layout
//!
//! Timestamps are bucketed at 2^16 ns (≈ 65.5 µs) granularity — fine
//! enough that a bucket rarely holds more than a handful of events,
//! coarse enough that packet-scale event gaps (µs–ms) stay inside
//! level 0 instead of cascading through upper levels. Above that sit
//! eight levels of 256 slots, one byte of the 48-bit bucket key per
//! level, so the wheel covers all of `u64` time with no overflow list:
//! level 0 spans ≈ 16.8 ms, level 1 ≈ 4.3 s, and so on. An entry
//! lives at the highest level where its bucket-key byte differs from
//! the wheel cursor's; far-future entries cascade down one level at a
//! time as the cursor reaches them. Per-level occupancy bitmaps make
//! skipping idle stretches O(levels), so `pop_before` is O(1)
//! amortised versus the heap's O(log n).
//!
//! ## Ordering guarantee
//!
//! Buckets are drained in ascending bucket order, and a bucket's
//! entries are kept sorted by the full `(at, seq)` key: sorted once
//! when the cursor first enters the bucket (cascaded entries can
//! arrive out of order), with later insertions into the *current*
//! bucket — zero-delay reschedules, lazily hopped timers — placed by
//! binary search. The pop sequence is therefore exactly ascending
//! `(at, seq)`, bit-for-bit what the binary heap produced.

use std::collections::{BinaryHeap, VecDeque};
use std::sync::atomic::{AtomicU8, Ordering};

const LEVELS: usize = 8;
const SLOTS: usize = 256;
const WORDS: usize = SLOTS / 64;
/// Bucket granularity: timestamps are grouped at `2^SHIFT` ns.
const SHIFT: u32 = 16;

/// Which event-queue implementation a `Network` uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerKind {
    /// Hierarchical timer wheel — the production fast path.
    TimerWheel,
    /// The original binary heap — kept as a differential oracle.
    BinaryHeap,
}

/// 0 = timer wheel, 1 = binary heap, 255 = unset (consult `VQD_SCHED`).
static DEFAULT_KIND: AtomicU8 = AtomicU8::new(255);

/// Set the process-wide default scheduler used by newly built networks.
///
/// Only the differential-oracle tests and the perf bench should ever
/// call this; the tests live in their own integration-test binary so
/// the global cannot leak into unrelated tests in the same process.
pub fn set_default_scheduler(kind: SchedulerKind) {
    DEFAULT_KIND.store(kind as u8, Ordering::Relaxed);
}

/// The process-wide default scheduler: the timer wheel, unless
/// overridden by [`set_default_scheduler`] or by setting the
/// `VQD_SCHED=heap` environment variable (an escape hatch for A/B
/// timing runs — both queues produce bit-identical output).
pub fn default_scheduler() -> SchedulerKind {
    let mut k = DEFAULT_KIND.load(Ordering::Relaxed);
    if k == 255 {
        k = match std::env::var("VQD_SCHED").as_deref() {
            Ok("heap") => SchedulerKind::BinaryHeap as u8,
            _ => SchedulerKind::TimerWheel as u8,
        };
        DEFAULT_KIND.store(k, Ordering::Relaxed);
    }
    if k == SchedulerKind::BinaryHeap as u8 {
        SchedulerKind::BinaryHeap
    } else {
        SchedulerKind::TimerWheel
    }
}

/// Scheduler observability counters, exposed by `Network::sched_stats`.
///
/// Every count is a pure function of the run, so the wheel and the
/// heap oracle report identical stats for the same scenario.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SchedStats {
    /// Events scheduled: queue entries pushed, plus packet deliveries
    /// parked behind their link's propagation head (each of those is
    /// queued later, when it becomes the head, and is counted once).
    pub scheduled: u64,
    /// Events dispatched (including timer no-ops). Equals the sum of
    /// the five per-kind `dispatched_*` counts below.
    pub dispatched: u64,
    /// Dispatched link transmit completions: a transmitter finished
    /// serialising a packet.
    pub dispatched_link_tx_done: u64,
    /// Dispatched deliveries: a packet reached a link's far end.
    pub dispatched_deliver: u64,
    /// Dispatched TCP timer entries, stale, cancelled and hopped ones
    /// included.
    pub dispatched_tcp_timer: u64,
    /// Dispatched application timers (players, traffic sources, fault
    /// controllers, probe samplers).
    pub dispatched_app_timer: u64,
    /// Dispatched once-per-second shared-medium ticks.
    pub dispatched_medium_tick: u64,
    /// TCP timer arms requested (most reuse an existing queue entry).
    pub timer_arms: u64,
    /// Timer entries that fired into a cancelled/disarmed slot.
    pub timer_cancelled: u64,
    /// Timer entries lazily hopped forward to a later deadline.
    pub timer_rescheduled: u64,
    /// Superseded timer entries dropped without any slot lookup work.
    pub timer_stale: u64,
    /// Sum of scheduled, not yet dispatched events (parked deliveries
    /// included), sampled after each pop (mean occupancy =
    /// `occupancy_sum / dispatched`).
    pub occupancy_sum: u64,
    /// Peak of the same count.
    pub occupancy_peak: u64,
}

impl SchedStats {
    /// Events dispatched per wall-clock second.
    pub fn events_per_sec(&self, wall_secs: f64) -> f64 {
        if wall_secs > 0.0 {
            self.dispatched as f64 / wall_secs
        } else {
            0.0
        }
    }
}

struct Entry<T> {
    at: u64,
    seq: u64,
    item: T,
}

/// Hierarchical timer wheel keyed on absolute nanosecond timestamps.
pub struct TimerWheel<T> {
    /// `LEVELS * SLOTS` buckets; level `k` occupies `k*SLOTS..`.
    slots: Vec<VecDeque<Entry<T>>>,
    /// Per-level occupancy bitmaps (bit set ⇔ slot non-empty).
    occ: [[u64; WORDS]; LEVELS],
    /// Bucket key (`at >> SHIFT`) of the bucket currently draining;
    /// never ahead of the earliest remaining entry's bucket.
    cursor: u64,
    len: usize,
    /// Scratch buffer reused across cascades to avoid reallocation.
    scratch: Vec<Entry<T>>,
}

/// Wheel level of a bucket key relative to the cursor: the byte
/// position of the highest differing bit. Branch-free on the zero
/// delta (a same-tick push while the cursor sits on that very bucket):
/// `leading_zeros() == 64` saturates to level 0 instead of
/// underflowing `63 - 64`.
fn level_of(key: u64, cursor: u64) -> usize {
    let x = key ^ cursor;
    ((u64::BITS - 1).saturating_sub(x.leading_zeros()) / 8) as usize
}

impl<T> TimerWheel<T> {
    /// An empty wheel with its cursor at t = 0.
    pub fn new() -> Self {
        let mut slots = Vec::new();
        slots.resize_with(LEVELS * SLOTS, VecDeque::new);
        TimerWheel {
            slots,
            occ: [[0; WORDS]; LEVELS],
            cursor: 0,
            len: 0,
            scratch: Vec::new(),
        }
    }

    /// Number of queued entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no entries are queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn set_bit(&mut self, lvl: usize, idx: usize) {
        self.occ[lvl][idx / 64] |= 1u64 << (idx % 64);
    }

    fn clear_bit(&mut self, lvl: usize, idx: usize) {
        self.occ[lvl][idx / 64] &= !(1u64 << (idx % 64));
    }

    /// First occupied slot index `>= from` at `lvl`, if any.
    fn next_occupied(&self, lvl: usize, from: usize) -> Option<usize> {
        if from >= SLOTS {
            return None;
        }
        let words = &self.occ[lvl];
        let mut w = from / 64;
        let mut cur = words[w] & (!0u64 << (from % 64));
        loop {
            if cur != 0 {
                return Some(w * 64 + cur.trailing_zeros() as usize);
            }
            w += 1;
            if w == WORDS {
                return None;
            }
            cur = words[w];
        }
    }

    /// Queue `item` at absolute time `at` with unique sequence `seq`.
    ///
    /// `at` must not be before the wheel cursor's bucket (the engine
    /// only ever schedules at or after the event being dispatched).
    pub fn push(&mut self, at: u64, seq: u64, item: T) {
        let key = at >> SHIFT;
        debug_assert!(
            key >= self.cursor,
            "push into the past: {at} < bucket {}",
            self.cursor
        );
        let lvl = level_of(key, self.cursor);
        let idx = ((key >> (8 * lvl)) & 0xFF) as usize;
        let slot = &mut self.slots[lvl * SLOTS + idx];
        let e = Entry { at, seq, item };
        if lvl == 0 && key == self.cursor {
            // Insertion into the bucket currently being drained (zero-
            // delay reschedule, a timer hop landing on "now", or just
            // a near-future event): place by (at, seq) so the total
            // order survives even when the new key sorts before
            // entries already queued behind the drain point.
            let pos = slot.partition_point(|x| (x.at, x.seq) < (at, seq));
            slot.insert(pos, e);
        } else {
            slot.push_back(e);
        }
        self.set_bit(lvl, idx);
        self.len += 1;
    }

    /// Re-file a cascaded entry relative to the (just-moved) cursor.
    fn push_cascaded(&mut self, e: Entry<T>) {
        let key = e.at >> SHIFT;
        let lvl = level_of(key, self.cursor);
        let idx = ((key >> (8 * lvl)) & 0xFF) as usize;
        self.slots[lvl * SLOTS + idx].push_back(e);
        self.set_bit(lvl, idx);
    }

    /// Sort a just-entered bucket into `(at, seq)` order.
    fn sort_bucket(&mut self, idx: usize) {
        let slot = &mut self.slots[idx];
        if slot.len() > 1 {
            slot.make_contiguous()
                .sort_unstable_by_key(|e| (e.at, e.seq));
        }
    }

    /// Pop the earliest entry with `at <= t`, in `(at, seq)` order.
    pub fn pop_before(&mut self, t: u64) -> Option<(u64, u64, T)> {
        loop {
            // Drain the bucket the cursor points at: it is sorted by
            // (at, seq) and holds the globally earliest entries, but
            // individual entries may still lie beyond `t`.
            let cur0 = (self.cursor & 0xFF) as usize;
            if self.slots[cur0].front().is_some_and(|h| h.at > t) {
                return None;
            }
            if let Some(e) = self.slots[cur0].pop_front() {
                self.len -= 1;
                if self.slots[cur0].is_empty() {
                    self.clear_bit(0, cur0);
                }
                return Some((e.at, e.seq, e.item));
            }
            self.clear_bit(0, cur0);

            // Next occupied level-0 bucket within the current 256-
            // bucket window.
            if let Some(i) = self.next_occupied(0, cur0 + 1) {
                let key = (self.cursor & !0xFF) | i as u64;
                if key << SHIFT > t {
                    return None;
                }
                self.cursor = key;
                self.sort_bucket(i);
                continue;
            }

            // Window exhausted: find the lowest level with a future
            // slot, advance the cursor to that slot's base key, and
            // cascade its entries down. Lower levels are empty at this
            // point, so the chosen slot holds the earliest remaining
            // entries and the cascade cannot misfile anything.
            let mut cascaded = false;
            for lvl in 1..LEVELS {
                let cur = ((self.cursor >> (8 * lvl)) & 0xFF) as usize;
                let Some(j) = self.next_occupied(lvl, cur + 1) else {
                    continue;
                };
                let below = if lvl == LEVELS - 1 {
                    u64::MAX
                } else {
                    (1u64 << (8 * (lvl + 1))) - 1
                };
                let base = (self.cursor & !below) | ((j as u64) << (8 * lvl));
                if base << SHIFT > t || base >= (1u64 << (64 - SHIFT)) {
                    // Past the horizon of interest (or the shifted key
                    // would overflow back into range — impossible for
                    // real keys, which fit in 64 - SHIFT bits).
                    return None;
                }
                self.cursor = base;
                self.clear_bit(lvl, j);
                let mut buf = std::mem::take(&mut self.scratch);
                buf.extend(self.slots[lvl * SLOTS + j].drain(..));
                for e in buf.drain(..) {
                    self.push_cascaded(e);
                }
                self.scratch = buf;
                // The cascade may have landed entries in the new
                // current bucket (base has byte 0 == 0); sort it
                // before the drain branch above pops from it.
                self.sort_bucket((base & 0xFF) as usize);
                cascaded = true;
                break;
            }
            if !cascaded {
                return None;
            }
        }
    }

    /// Empty the wheel and rewind the cursor, keeping slot capacity so
    /// a recycled wheel allocates nothing on its next session.
    pub fn reset(&mut self) {
        for lvl in 0..LEVELS {
            while let Some(idx) = self.next_occupied(lvl, 0) {
                self.slots[lvl * SLOTS + idx].clear();
                self.clear_bit(lvl, idx);
            }
        }
        self.cursor = 0;
        self.len = 0;
        self.scratch.clear();
    }
}

impl<T> Default for TimerWheel<T> {
    fn default() -> Self {
        Self::new()
    }
}

struct HeapEntry<T> {
    at: u64,
    seq: u64,
    item: T,
}
impl<T> PartialEq for HeapEntry<T> {
    fn eq(&self, o: &Self) -> bool {
        self.at == o.at && self.seq == o.seq
    }
}
impl<T> Eq for HeapEntry<T> {}
impl<T> PartialOrd for HeapEntry<T> {
    fn partial_cmp(&self, o: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(o))
    }
}
impl<T> Ord for HeapEntry<T> {
    fn cmp(&self, o: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want min-(at, seq).
        (o.at, o.seq).cmp(&(self.at, self.seq))
    }
}

/// The original binary-heap event queue, kept as the test oracle.
pub struct HeapQueue<T> {
    heap: BinaryHeap<HeapEntry<T>>,
}

impl<T> HeapQueue<T> {
    /// An empty heap queue.
    pub fn new() -> Self {
        HeapQueue {
            heap: BinaryHeap::new(),
        }
    }

    /// Number of queued entries.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no entries are queued.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Queue `item` at `(at, seq)`.
    pub fn push(&mut self, at: u64, seq: u64, item: T) {
        self.heap.push(HeapEntry { at, seq, item });
    }

    /// Pop the earliest entry with `at <= t`, in `(at, seq)` order.
    pub fn pop_before(&mut self, t: u64) -> Option<(u64, u64, T)> {
        if self.heap.peek().is_some_and(|e| e.at <= t) {
            self.heap.pop().map(|e| (e.at, e.seq, e.item))
        } else {
            None
        }
    }

    /// Empty the heap, keeping its capacity.
    pub fn reset(&mut self) {
        self.heap.clear();
    }
}

impl<T> Default for HeapQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// An event queue of either kind behind one interface.
//
// The wheel variant is large (inline occupancy bitmaps), but exactly
// one queue exists per `Network` and it is arena-recycled, so inline
// storage is free — boxing it would put a pointer chase on every
// push/pop, the very indirection the wheel exists to avoid.
#[allow(clippy::large_enum_variant)]
pub enum EventQueue<T> {
    /// Timer-wheel fast path.
    Wheel(TimerWheel<T>),
    /// Binary-heap oracle.
    Heap(HeapQueue<T>),
}

impl<T> EventQueue<T> {
    /// An empty queue of the given kind.
    pub fn new(kind: SchedulerKind) -> Self {
        match kind {
            SchedulerKind::TimerWheel => EventQueue::Wheel(TimerWheel::new()),
            SchedulerKind::BinaryHeap => EventQueue::Heap(HeapQueue::new()),
        }
    }

    /// Which implementation this queue is.
    pub fn kind(&self) -> SchedulerKind {
        match self {
            EventQueue::Wheel(_) => SchedulerKind::TimerWheel,
            EventQueue::Heap(_) => SchedulerKind::BinaryHeap,
        }
    }

    /// Number of queued entries.
    pub fn len(&self) -> usize {
        match self {
            EventQueue::Wheel(w) => w.len(),
            EventQueue::Heap(h) => h.len(),
        }
    }

    /// True if no entries are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Queue `item` at `(at, seq)`.
    pub fn push(&mut self, at: u64, seq: u64, item: T) {
        match self {
            EventQueue::Wheel(w) => w.push(at, seq, item),
            EventQueue::Heap(h) => h.push(at, seq, item),
        }
    }

    /// Pop the earliest entry with `at <= t`, in `(at, seq)` order.
    pub fn pop_before(&mut self, t: u64) -> Option<(u64, u64, T)> {
        match self {
            EventQueue::Wheel(w) => w.pop_before(t),
            EventQueue::Heap(h) => h.pop_before(t),
        }
    }

    /// Empty the queue, keeping allocated capacity for reuse.
    pub fn reset(&mut self) {
        match self {
            EventQueue::Wheel(w) => w.reset(),
            EventQueue::Heap(h) => h.reset(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;

    /// Drain everything before `t` from both queues, asserting
    /// identical pop sequences.
    fn drain_both(w: &mut TimerWheel<u32>, h: &mut HeapQueue<u32>, t: u64) -> Vec<(u64, u64, u32)> {
        let mut out = Vec::new();
        loop {
            let a = w.pop_before(t);
            let b = h.pop_before(t);
            match (a, b) {
                (None, None) => break,
                (x, y) => {
                    assert_eq!(x, y, "wheel and heap disagree at t={t}");
                    out.push(x.unwrap());
                }
            }
        }
        out
    }

    #[test]
    fn same_tick_fifo_by_seq_even_when_pushed_out_of_order() {
        let mut w = TimerWheel::new();
        let mut h = HeapQueue::new();
        // Out-of-seq arrival into one bucket (what a lazily hopped
        // timer produces): pops must still come out in seq order.
        for &(at, seq) in &[(100u64, 9u64), (100, 5), (100, 7), (40, 2), (100, 1)] {
            w.push(at, seq, seq as u32);
            h.push(at, seq, seq as u32);
        }
        let got = drain_both(&mut w, &mut h, 1_000);
        let seqs: Vec<u64> = got.iter().map(|e| e.1).collect();
        assert_eq!(seqs, vec![2, 1, 5, 7, 9]);
    }

    #[test]
    fn pop_respects_time_bound() {
        let mut w = TimerWheel::new();
        w.push(100, 1, 0u32);
        assert_eq!(w.pop_before(99), None);
        assert_eq!(w.len(), 1);
        assert_eq!(w.pop_before(100), Some((100, 1, 0)));
        assert!(w.is_empty());
    }

    #[test]
    fn far_future_entries_cascade_in_order() {
        // Entries spanning every wheel level, pushed shuffled; they
        // must pop in time order with exact timestamps. This is the
        // "past the wheel horizon" case: everything beyond 256 ns of
        // the cursor lives in upper levels and must cascade down.
        let ats = [
            3u64,
            255,
            256,
            70_000,
            20_000_000,
            6_000_000_000,
            2_000_000_000_000,
            900_000_000_000_000,
            u64::MAX / 2,
            u64::MAX - 1,
        ];
        let mut w = TimerWheel::new();
        let mut h = HeapQueue::new();
        for (i, &at) in ats.iter().enumerate().rev() {
            w.push(at, i as u64 + 1, i as u32);
            h.push(at, i as u64 + 1, i as u32);
        }
        let got = drain_both(&mut w, &mut h, u64::MAX);
        let times: Vec<u64> = got.iter().map(|e| e.0).collect();
        assert_eq!(times, ats.to_vec());
    }

    #[test]
    fn zero_delay_insert_during_drain_pops_same_tick() {
        let mut w = TimerWheel::new();
        w.push(50, 1, 1u32);
        w.push(50, 2, 2u32);
        assert_eq!(w.pop_before(100), Some((50, 1, 1)));
        // Dispatch of seq 1 schedules a zero-delay event at now=50.
        w.push(50, 3, 3u32);
        // And a hop re-files an *older* seq at now=50: must pop first.
        w.push(50, 0, 0u32);
        assert_eq!(w.pop_before(100), Some((50, 0, 0)));
        assert_eq!(w.pop_before(100), Some((50, 2, 2)));
        assert_eq!(w.pop_before(100), Some((50, 3, 3)));
        assert_eq!(w.pop_before(100), None);
    }

    #[test]
    fn same_tick_push_pop_at_cursor_bucket_matches_heap() {
        // Regression for the `level_of` zero-delta hazard: every push
        // here lands in the exact bucket the cursor sits on
        // (`key ^ cursor == 0`), the case where `63 - leading_zeros()`
        // would underflow without saturation. Interleave pushes and
        // pops at the same tick and check against the heap oracle.
        let mut w = TimerWheel::new();
        let mut h = HeapQueue::new();
        let mut seq = 0u64;
        // Ticks chosen to park the cursor at bucket boundaries across
        // several levels (SHIFT-granular buckets).
        for &now in &[
            0u64,
            1 << SHIFT,
            3 << SHIFT,
            (1 << (SHIFT + 9)) + (1 << SHIFT),
        ] {
            // Advance both cursors to `now` with a sentinel drain.
            w.push(now, seq, 0u32);
            h.push(now, seq, 0u32);
            seq += 1;
            drain_both(&mut w, &mut h, now);
            // Same-tick churn: push into the cursor's own bucket and
            // pop it back, repeatedly, including re-pushes triggered
            // mid-drain (a zero-delay event scheduled by a dispatch).
            for i in 0..8 {
                w.push(now, seq, i);
                h.push(now, seq, i);
                seq += 1;
                if i % 3 == 0 {
                    drain_both(&mut w, &mut h, now);
                }
            }
            drain_both(&mut w, &mut h, now);
            assert!(w.is_empty() && h.is_empty(), "drained at t={now}");
        }
    }

    #[test]
    fn differential_random_workload_matches_heap() {
        let mut rng = SimRng::seed_from_u64(0xC0FFEE);
        let mut w = TimerWheel::new();
        let mut h = HeapQueue::new();
        let mut seq = 0u64;
        let mut now = 0u64;
        let mut popped = 0usize;
        for round in 0..2_000 {
            // Push a burst at mixed distances (mostly near-future, the
            // occasional far-future outlier like a 60 s RTO backoff).
            for _ in 0..rng.range_u64(1, 5) {
                seq += 1;
                let delta = match rng.range_u64(0, 10) {
                    0 => 0,
                    1..=6 => rng.range_u64(1, 2_000),
                    7..=8 => rng.range_u64(1, 5_000_000),
                    _ => rng.range_u64(1, 70_000_000_000),
                };
                w.push(now + delta, seq, round as u32);
                h.push(now + delta, seq, round as u32);
            }
            // Advance time and drain a window.
            let t = now + rng.range_u64(0, 3_000_000);
            loop {
                let a = w.pop_before(t);
                let b = h.pop_before(t);
                assert_eq!(a, b, "divergence at round {round}");
                match a {
                    Some((at, _, _)) => {
                        assert!(at >= now && at <= t);
                        now = at;
                        popped += 1;
                    }
                    None => break,
                }
                // Occasionally schedule from "inside" the dispatch,
                // including zero-delay.
                if rng.chance(0.2) {
                    seq += 1;
                    let delta = rng.range_u64(0, 500);
                    w.push(now + delta, seq, round as u32);
                    h.push(now + delta, seq, round as u32);
                }
            }
            now = t;
        }
        assert!(popped > 3_000, "workload too small: {popped}");
        assert_eq!(w.len(), h.len());
    }

    #[test]
    fn reset_empties_and_rewinds() {
        let mut w = TimerWheel::new();
        w.push(123, 1, 1u32);
        w.push(9_000_000_000, 2, 2u32);
        assert_eq!(w.pop_before(u64::MAX), Some((123, 1, 1)));
        w.reset();
        assert!(w.is_empty());
        // Cursor rewound: t=0 pushes must be legal and pop first.
        w.push(0, 3, 3u32);
        w.push(10, 4, 4u32);
        assert_eq!(w.pop_before(u64::MAX), Some((0, 3, 3)));
        assert_eq!(w.pop_before(u64::MAX), Some((10, 4, 4)));
    }
}
