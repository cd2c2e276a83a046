//! Deterministic event queue.
//!
//! Events pop in `(time, seq)` order: earliest time first, and for equal
//! times, insertion order (FIFO). The sequence-number tie-break is what
//! makes whole-system simulations reproducible — without it, a heap's
//! arbitrary ordering of equal keys would leak into message-matching
//! order and change results between runs.
//!
//! The queue is built for a discrete-event loop, and its contract is
//! **monotone pushes**: an event is never scheduled before the time of
//! the last popped event (`debug_assert`ed). That lets it keep two
//! stores:
//!
//! * a binary heap for events in the future, and
//! * a FIFO **lane** for events pushed *at* the current time (the last
//!   popped time) — wake-ups a handler schedules for "now". They skip
//!   the heap's `O(log n)` sift entirely.
//!
//! The lane preserves the exact `(time, seq)` order. A heap entry at the
//! current time was pushed while the clock was still earlier, so its seq
//! is lower than every lane entry's; `pop` therefore drains heap entries
//! at the current time before the lane.
//!
//! A **batch** ([`EventQueue::push_batch`]) is one entry standing for
//! `n` consecutive same-time events — e.g. the wake-ups of every member
//! of a completed collective. It takes `n` seqs and counts as `n`
//! pending events until the consumer retires its members one by one, so
//! [`EventQueue::len`] and [`EventQueue::high_water`] read exactly as if
//! the `n` events had been pushed separately.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// An event of payload type `T` scheduled at a virtual time.
#[derive(Debug, Clone)]
pub struct ScheduledEvent<T> {
    /// Virtual time at which the event fires.
    pub time: SimTime,
    /// Monotone insertion index; breaks ties deterministically (a batch
    /// carries the seq of its first member).
    pub seq: u64,
    /// The event payload.
    pub payload: T,
}

/// Internal heap entry: the packed `(time, seq)` key with payload along
/// for the ride. Ordering ignores the payload and reverses the key so
/// `BinaryHeap`'s max-heap pops earliest-first with one u128 compare.
#[derive(Debug, Clone)]
struct Keyed<T> {
    key: u128,
    payload: T,
}

impl<T> Keyed<T> {
    fn time(&self) -> SimTime {
        SimTime((self.key >> 64) as u64)
    }
}

impl<T> PartialEq for Keyed<T> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<T> Eq for Keyed<T> {}
impl<T> PartialOrd for Keyed<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Keyed<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        other.key.cmp(&self.key)
    }
}

/// A deterministic min-priority queue of timestamped events with
/// monotone pushes (see the module docs).
///
/// # Example
/// ```
/// use hpcsim_engine::{EventQueue, SimTime};
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_ns(5), "b");
/// q.push(SimTime::from_ns(1), "a");
/// q.push(SimTime::from_ns(5), "c");
/// assert_eq!(q.pop().unwrap().payload, "a");
/// assert_eq!(q.pop().unwrap().payload, "b"); // FIFO among equal times
/// assert_eq!(q.pop().unwrap().payload, "c");
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<T> {
    /// Max-heap of key-reversed entries: the packed key `time << 64 | seq`
    /// gives the exact earliest-`(time, seq)`-first order with a single
    /// u128 compare in the sift loops.
    heap: BinaryHeap<Keyed<T>>,
    /// Events pushed at `now`, in push order, as `(seq, payload)`.
    lane: VecDeque<(u64, T)>,
    /// Time of the last popped event; no push may precede it.
    now: SimTime,
    next_seq: u64,
    /// Batch members not yet retired beyond each batch's own entry.
    held: usize,
    /// Largest pending-event count ever reached. A branch-predictable
    /// compare per push; exposed so observability can report how deep
    /// the replay queue ran without sampling.
    high_water: usize,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// Create an empty queue.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Create an empty queue with pre-allocated heap capacity.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(cap),
            lane: VecDeque::new(),
            now: SimTime::ZERO,
            next_seq: 0,
            held: 0,
            high_water: 0,
        }
    }

    /// Empty the queue and restart its clock, sequence numbers and
    /// high-water mark at zero, keeping both stores' allocations: a
    /// reset queue behaves exactly like a new one.
    pub fn reset(&mut self) {
        self.heap.clear();
        self.lane.clear();
        self.now = SimTime::ZERO;
        self.next_seq = 0;
        self.held = 0;
        self.high_water = 0;
    }

    /// Schedule `payload` at `time` (≥ the last popped time). Events
    /// pushed with equal times pop in push order.
    pub fn push(&mut self, time: SimTime, payload: T) {
        self.push_batch(time, payload, 1);
    }

    /// Schedule one entry standing for `n ≥ 1` consecutive events at
    /// `time`. It takes `n` seqs and counts as `n` pending events; after
    /// popping it, call [`EventQueue::retire_batched`] once per member
    /// beyond the first as the consumer handles them.
    pub fn push_batch(&mut self, time: SimTime, payload: T, n: usize) {
        debug_assert!(n >= 1, "a batch stands for at least one event");
        debug_assert!(time >= self.now, "push at {time:?} precedes the last pop at {:?}", self.now);
        let seq = self.next_seq;
        self.next_seq += n as u64;
        if time == self.now {
            self.lane.push_back((seq, payload));
        } else {
            self.heap.push(Keyed { key: ((time.0 as u128) << 64) | seq as u128, payload });
        }
        self.held += n - 1;
        self.high_water = self.high_water.max(self.len());
    }

    /// Mark one further member of a popped batch as handled.
    pub fn retire_batched(&mut self) {
        debug_assert!(self.held > 0, "no batch members outstanding");
        self.held -= 1;
    }

    /// Remove and return the earliest event, or `None` when empty.
    pub fn pop(&mut self) -> Option<ScheduledEvent<T>> {
        // heap entries at `now` predate (lower seqs than) every lane entry
        if self.heap.peek().is_some_and(|top| self.lane.is_empty() || top.time() == self.now) {
            let Keyed { key, payload } = self.heap.pop()?;
            self.now = SimTime((key >> 64) as u64);
            return Some(ScheduledEvent { time: self.now, seq: key as u64, payload });
        }
        let (seq, payload) = self.lane.pop_front()?;
        Some(ScheduledEvent { time: self.now, seq, payload })
    }

    /// Peek at the earliest event's timestamp without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        if self.lane.is_empty() {
            self.heap.peek().map(Keyed::time)
        } else {
            Some(self.now)
        }
    }

    /// Number of pending events, counting unretired batch members.
    pub fn len(&self) -> usize {
        self.heap.len() + self.lane.len() + self.held
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Largest number of simultaneously pending events seen since
    /// construction or the last [`EventQueue::reset`].
    pub fn high_water(&self) -> usize {
        self.high_water
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain<T>(q: &mut EventQueue<T>) -> Vec<T> {
        std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect()
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        for &(t, v) in &[(30u64, 3), (10, 1), (20, 2), (40, 4)] {
            q.push(SimTime::from_ns(t), v);
        }
        assert_eq!(drain(&mut q), vec![1, 2, 3, 4]);
    }

    #[test]
    fn equal_times_are_fifo() {
        let mut q = EventQueue::new();
        for v in 0..100 {
            q.push(SimTime::from_ns(7), v);
        }
        assert_eq!(drain(&mut q), (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ns(9), 'x');
        q.push(SimTime::from_ns(2), 'y');
        assert_eq!(q.peek_time(), Some(SimTime::from_ns(2)));
        assert_eq!(q.pop().unwrap().payload, 'y');
        assert_eq!(q.peek_time(), Some(SimTime::from_ns(9)));
        q.push(SimTime::from_ns(2), 'z'); // lane entry at the current time
        assert_eq!(q.peek_time(), Some(SimTime::from_ns(2)));
    }

    #[test]
    fn len_counts_both_stores() {
        let mut q = EventQueue::with_capacity(8);
        assert!(q.is_empty());
        q.push(SimTime::ZERO, ()); // lane: the clock starts at zero
        q.push(SimTime::SEC, ()); // heap
        assert_eq!(q.len(), 2);
        q.pop();
        q.pop();
        assert!(q.is_empty());
        assert_eq!(q.pop().map(|e| e.payload), None);
    }

    #[test]
    fn high_water_tracks_peak_depth() {
        let mut q = EventQueue::new();
        assert_eq!(q.high_water(), 0);
        q.push(SimTime::from_ns(1), 1);
        q.push(SimTime::from_ns(2), 2);
        q.push(SimTime::from_ns(3), 3);
        assert_eq!(q.high_water(), 3);
        q.pop();
        q.pop();
        q.push(SimTime::from_ns(4), 4);
        assert_eq!(q.high_water(), 3, "peak is sticky across pops");
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ns(5), 5);
        q.push(SimTime::from_ns(1), 1);
        assert_eq!(q.pop().unwrap().payload, 1);
        q.push(SimTime::from_ns(3), 3);
        q.push(SimTime::from_ns(2), 2);
        assert_eq!(drain(&mut q), vec![2, 3, 5]);
    }

    #[test]
    fn heap_entries_at_now_precede_the_lane() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ns(4), "heap-a");
        q.push(SimTime::from_ns(4), "heap-b");
        assert_eq!(q.pop().unwrap().payload, "heap-a");
        // pushed at the current time: lane, after the older heap entry
        q.push(SimTime::from_ns(4), "lane");
        q.push(SimTime::from_ns(9), "later");
        assert_eq!(drain(&mut q), vec!["heap-b", "lane", "later"]);
    }

    #[test]
    fn batch_counts_as_its_members() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ns(1), 'a');
        q.push_batch(SimTime::from_ns(3), 'b', 4);
        q.push(SimTime::from_ns(3), 'c');
        assert_eq!((q.len(), q.high_water()), (6, 6));
        assert_eq!(q.pop().unwrap().payload, 'a');
        let b = q.pop().unwrap();
        assert_eq!((b.payload, b.seq), ('b', 1));
        assert_eq!(q.len(), 4, "three members still held");
        for _ in 0..3 {
            q.retire_batched();
        }
        let c = q.pop().unwrap();
        assert_eq!((c.payload, c.seq), ('c', 5), "the batch took four seqs");
        assert!(q.is_empty());
    }

    #[test]
    fn reset_queue_restarts_like_a_new_one() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ns(2), 'a');
        q.push_batch(SimTime::from_ns(5), 'b', 3);
        assert_eq!(q.pop().unwrap().payload, 'a');
        q.reset();
        assert!(q.is_empty());
        assert_eq!((q.high_water(), q.peek_time()), (0, None));
        // the clock is back at zero: a t = 0 push is legal and lands first
        q.push(SimTime::from_ns(1), 'c');
        q.push(SimTime::ZERO, 'd');
        let d = q.pop().unwrap();
        assert_eq!((d.payload, d.seq), ('d', 1), "seqs restart at zero");
        assert_eq!(q.pop().unwrap().payload, 'c');
        assert_eq!(q.high_water(), 2);
    }
}
