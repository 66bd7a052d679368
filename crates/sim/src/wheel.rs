//! Bucketed calendar queue ("timing wheel") for absolute-cycle events.
//!
//! The per-cycle hot paths of the simulator need three operations: schedule
//! an event at an absolute cycle, drain everything due at the current cycle,
//! and — for the fast-forward engine — report the earliest pending event. A
//! binary heap does all three but pays `O(log n)` per event and per-cycle
//! peek churn; a calendar queue makes the common case a constant-time bucket
//! append/drain and keeps the exact minimum on hand.
//!
//! The wheel is generic over its payload: [`crate::sm::Sm`] schedules
//! [`crate::sm::Writeback`] completions on it (one per instruction, a
//! global-memory instruction's at its last transaction's completion), and
//! the shared memory system ([`crate::mem::SharedMem`]) schedules MSHR-entry
//! and DRAM-queue-slot releases. [`TimingWheel::drain_due`] hands events out
//! in cycle order and, within a cycle, in push order. Push order is a
//! determinism contract: both engines (per-cycle and fast-forward) push a
//! given SM's events in the same canonical order, so same-cycle ties
//! resolve identically everywhere. Within one SM cycle the ordering is
//! writeback drains first, then lazy memory-capacity releases
//! (`SharedMem::advance_to`), then the gate read — see the tie-break note
//! in [`crate::sm::Sm::step`].
//!
//! Layout: every event is a node in one slab, and a ring of `SLOTS` buckets
//! indexed by `cycle % SLOTS` holds each bucket's events as a linked list
//! (head and tail indices into the slab). Drained nodes go on a free list
//! that the next pushes reuse, so once a wheel has held its peak number of
//! pending events it never allocates again. An event scheduled more than
//! `SLOTS` cycles ahead (a long DRAM latency or a deep bandwidth-queue
//! backlog) goes on an overflow list, consulted by its cached minimum and
//! moved into the ring, in push order, as soon as the ring reaches its
//! cycle — before any later push for that cycle can land in the bucket.
//! Invariant: every bucketed event's cycle lies in
//! `(drained_to, drained_to + SLOTS]`, so a bucket never mixes events of
//! different due cycles and drains whole.

/// Ring size in cycles. Covers the full L1+L2+DRAM latency path plus typical
/// queueing delay; deeper backlogs go to the overflow list.
const SLOTS: usize = 1024;
const MASK: u64 = SLOTS as u64 - 1;
const WORDS: usize = SLOTS / 64;
/// End-of-list link.
const NIL: u32 = u32::MAX;

/// One pending event in the slab; `next` links it into its bucket, the
/// overflow list or the free list.
#[derive(Debug, Clone, Copy)]
struct Node<T> {
    due: u64,
    payload: T,
    next: u32,
}

/// A singly-linked list of slab nodes, oldest push first.
#[derive(Debug, Clone, Copy)]
struct List {
    head: u32,
    tail: u32,
}

impl List {
    const EMPTY: List = List {
        head: NIL,
        tail: NIL,
    };
}

/// Calendar queue over `(due cycle, payload)` events.
#[derive(Debug, Clone)]
pub struct TimingWheel<T> {
    /// One node per pending event; drained nodes are chained from `free`
    /// and reused first.
    nodes: Vec<Node<T>>,
    free: u32,
    /// Bucket `cycle % SLOTS`: the events due at that cycle, in push order.
    buckets: Box<[List; SLOTS]>,
    /// One bit per non-empty bucket, for fast earliest-event scans.
    occupancy: [u64; WORDS],
    /// Events beyond the ring's reach, in push order.
    overflow: List,
    overflow_min: u64,
    /// Exact earliest pending cycle (`u64::MAX` when empty).
    earliest: u64,
    /// Every event at a cycle `<= drained_to` has been handed out.
    drained_to: u64,
    len: usize,
    /// Latest due cycle ever scheduled (0 before the first push). Never
    /// reset by drains: it is a monotone progress watermark, not a queue
    /// property. The forward-progress watchdog reads it to prove "no event
    /// is scheduled past this cycle", and it is engine-invariant because
    /// every engine pushes the same events with the same clamped due cycles.
    latest: u64,
}

impl<T: Copy> Default for TimingWheel<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Copy> TimingWheel<T> {
    /// Empty wheel starting at cycle 0.
    pub fn new() -> Self {
        TimingWheel {
            nodes: Vec::new(),
            free: NIL,
            buckets: Box::new([List::EMPTY; SLOTS]),
            occupancy: [0; WORDS],
            overflow: List::EMPTY,
            overflow_min: u64::MAX,
            earliest: u64::MAX,
            drained_to: 0,
            len: 0,
            latest: 0,
        }
    }

    /// Pending event count.
    pub fn len(&self) -> usize {
        self.len
    }

    /// No pending events?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Earliest pending event cycle — the "when can anything next happen"
    /// answer the fast-forward engine consumes.
    #[inline]
    pub fn next_due(&self) -> Option<u64> {
        if self.len == 0 {
            None
        } else {
            Some(self.earliest)
        }
    }

    /// Latest due cycle ever scheduled on this wheel (0 if nothing was ever
    /// pushed). Monotone non-decreasing across the wheel's lifetime — see
    /// the field note on `latest`.
    #[inline]
    pub fn latest_scheduled(&self) -> u64 {
        self.latest
    }

    /// Schedule `payload` at cycle `at`. An event at an already-drained cycle
    /// is deferred to the next drain (matching a heap that would pop it on
    /// the following peek).
    pub fn push(&mut self, at: u64, payload: T) {
        let due = at.max(self.drained_to + 1);
        self.len += 1;
        self.latest = self.latest.max(due);
        self.earliest = self.earliest.min(due);
        let node = Node {
            due,
            payload,
            next: NIL,
        };
        let i = if self.free == NIL {
            self.nodes.push(node);
            u32::try_from(self.nodes.len() - 1).expect("fewer than 2^32 pending events")
        } else {
            let i = self.free;
            self.free = self.nodes[i as usize].next;
            self.nodes[i as usize] = node;
            i
        };
        if due > self.drained_to + SLOTS as u64 {
            self.overflow_min = self.overflow_min.min(due);
            append(&mut self.nodes, &mut self.overflow, i);
        } else {
            self.bucket(due, i);
        }
    }

    /// Hand every event due at or before `now` to `f(cycle, payload)` and
    /// advance the wheel to `now`. Events come out in cycle order and,
    /// within a cycle, in push order.
    pub fn drain_due(&mut self, now: u64, mut f: impl FnMut(u64, T)) {
        while self.len > 0 && self.earliest <= now {
            let cycle = self.earliest;
            // Bring `cycle`'s overflow events (if it is the overflow's
            // minimum) into its bucket first.
            self.advance(cycle - 1);
            let idx = (cycle & MASK) as usize;
            let list = std::mem::replace(&mut self.buckets[idx], List::EMPTY);
            debug_assert_ne!(list.head, NIL, "the earliest cycle's bucket holds it");
            self.occupancy[idx / 64] &= !(1 << (idx % 64));
            let mut i = list.head;
            while i != NIL {
                let node = self.nodes[i as usize];
                debug_assert_eq!(node.due, cycle, "a bucket holds one cycle");
                self.len -= 1;
                f(cycle, node.payload);
                i = node.next;
            }
            // The drained list joins the free list whole.
            self.nodes[list.tail as usize].next = self.free;
            self.free = list.head;
            self.advance(cycle);
            self.earliest = match self.first_occupied_distance(((cycle + 1) & MASK) as usize) {
                Some(d) => cycle + 1 + d as u64,
                None => self.overflow_min,
            };
        }
        self.advance(now);
    }

    /// Mark every cycle through `to` drained (nothing is due by then), and
    /// move the overflow events the ring now reaches into their buckets.
    fn advance(&mut self, to: u64) {
        if to <= self.drained_to {
            return;
        }
        self.drained_to = to;
        let reach = to + SLOTS as u64;
        if self.overflow_min > reach {
            return;
        }
        let mut kept = List::EMPTY;
        self.overflow_min = u64::MAX;
        let mut i = self.overflow.head;
        while i != NIL {
            let Node { due, next, .. } = self.nodes[i as usize];
            self.nodes[i as usize].next = NIL;
            if due <= reach {
                self.bucket(due, i);
            } else {
                self.overflow_min = self.overflow_min.min(due);
                append(&mut self.nodes, &mut kept, i);
            }
            i = next;
        }
        self.overflow = kept;
    }

    /// Append node `i`, due at `due` within the ring's reach, to its bucket.
    fn bucket(&mut self, due: u64, i: u32) {
        let idx = (due & MASK) as usize;
        append(&mut self.nodes, &mut self.buckets[idx], i);
        self.occupancy[idx / 64] |= 1 << (idx % 64);
    }

    /// Distance (in buckets, wrapping) from `start` to the first non-empty
    /// bucket, scanning the occupancy bitmap.
    fn first_occupied_distance(&self, start: usize) -> Option<usize> {
        let word0 = start / 64;
        let bit0 = start % 64;
        for i in 0..=WORDS {
            let w = (word0 + i) % WORDS;
            let mut word = self.occupancy[w];
            if i == 0 {
                word &= u64::MAX << bit0;
            } else if i == WORDS {
                if bit0 == 0 {
                    break;
                }
                word &= (1u64 << bit0) - 1;
            }
            if word != 0 {
                let idx = w * 64 + word.trailing_zeros() as usize;
                return Some((idx + SLOTS - start) % SLOTS);
            }
        }
        None
    }
}

/// Link node `i` (whose `next` is [`NIL`]) at the tail of `list`.
fn append<T>(nodes: &mut [Node<T>], list: &mut List, i: u32) {
    if list.tail == NIL {
        list.head = i;
    } else {
        nodes[list.tail as usize].next = i;
    }
    list.tail = i;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(w: &mut TimingWheel<u32>, now: u64) -> Vec<(u64, u32)> {
        let mut out = Vec::new();
        w.drain_due(now, |cycle, v| out.push((cycle, v)));
        out
    }

    #[test]
    fn events_come_out_at_their_cycle() {
        let mut w = TimingWheel::new();
        w.push(5, 1u32);
        w.push(3, 2);
        w.push(5, 3);
        assert_eq!(w.next_due(), Some(3));
        assert!(drain(&mut w, 2).is_empty());
        assert_eq!(drain(&mut w, 3), vec![(3, 2)]);
        assert_eq!(w.next_due(), Some(5));
        assert_eq!(drain(&mut w, 5), vec![(5, 1), (5, 3)]);
        assert!(w.is_empty());
        assert_eq!(w.next_due(), None);
    }

    #[test]
    fn jump_drains_collect_everything_due() {
        let mut w = TimingWheel::new();
        for c in [10u64, 700, 1500, 4000] {
            w.push(c, c as u32);
        }
        assert_eq!(w.len(), 4);
        // Cycle order, across the ring's wrap and the overflow list.
        assert_eq!(
            drain(&mut w, 2000),
            vec![(10, 10), (700, 700), (1500, 1500)]
        );
        assert_eq!(w.next_due(), Some(4000));
        assert_eq!(drain(&mut w, 1 << 40), vec![(4000, 4000)]);
    }

    #[test]
    fn overflow_events_surface_via_next_due() {
        let mut w = TimingWheel::new();
        w.push(100_000, 7u32); // far beyond the ring
        assert_eq!(w.next_due(), Some(100_000));
        assert!(drain(&mut w, 99_999).is_empty());
        assert_eq!(drain(&mut w, 100_000), vec![(100_000, 7)]);
    }

    #[test]
    fn overflow_and_ring_share_the_minimum() {
        let mut w = TimingWheel::new();
        w.push(5000, 1u32);
        assert!(drain(&mut w, 4000).is_empty()); // event now within ring reach
        w.push(4500, 2);
        assert_eq!(w.next_due(), Some(4500));
        assert_eq!(drain(&mut w, 4600), vec![(4500, 2)]);
        assert_eq!(w.next_due(), Some(5000));
    }

    #[test]
    fn overflow_events_precede_later_ring_pushes_of_their_cycle() {
        // Cycle 2000 is beyond the ring's reach at the first push and within
        // it once cycle 976 has drained: the overflow event joins its bucket
        // then, ahead of the ring push that follows.
        let mut w = TimingWheel::new();
        w.push(976, 0u32);
        w.push(2000, 1);
        assert_eq!(drain(&mut w, 976), vec![(976, 0)]);
        w.push(2000, 2);
        w.push(1999, 3);
        assert_eq!(drain(&mut w, 2000), vec![(1999, 3), (2000, 1), (2000, 2)]);
        assert!(w.is_empty());
    }

    #[test]
    fn stale_events_are_deferred_not_lost() {
        let mut w = TimingWheel::new();
        assert!(drain(&mut w, 50).is_empty());
        w.push(10, 1u32); // already past: becomes due at cycle 51
        assert_eq!(w.next_due(), Some(51));
        assert_eq!(drain(&mut w, 51), vec![(51, 1)]);
    }

    #[test]
    fn ring_aliasing_keeps_cycles_apart() {
        let mut w = TimingWheel::new();
        w.push(3, 1u32);
        assert_eq!(drain(&mut w, 3), vec![(3, 1)]);
        // Same bucket as cycle 3 (3 + 1024), pushed after time has advanced.
        w.push(3 + SLOTS as u64, 2);
        assert!(drain(&mut w, 100).is_empty());
        assert_eq!(w.next_due(), Some(3 + SLOTS as u64));
        assert_eq!(drain(&mut w, 3 + SLOTS as u64), vec![(3 + SLOTS as u64, 2)]);
    }

    #[test]
    fn same_cycle_events_share_a_bucket_and_drain_together() {
        // The wake-up-coalescing property the memory model relies on: N
        // events for one cycle come out of a single drain, in push order.
        let mut w = TimingWheel::new();
        for i in 0..8u32 {
            w.push(40, i);
        }
        let got = drain(&mut w, 40);
        assert_eq!(got.len(), 8);
        assert!(got.iter().enumerate().all(|(i, ev)| ev.1 == i as u32));
    }

    #[test]
    fn latest_scheduled_is_a_monotone_push_watermark() {
        let mut w = TimingWheel::new();
        assert_eq!(w.latest_scheduled(), 0);
        w.push(40, 1u32);
        w.push(10, 2);
        assert_eq!(w.latest_scheduled(), 40);
        // Draining never rewinds the watermark.
        assert_eq!(drain(&mut w, 50).len(), 2);
        assert_eq!(w.latest_scheduled(), 40);
        // A stale push records its clamped (deferred) due cycle.
        w.push(5, 3);
        assert_eq!(w.latest_scheduled(), 51);
    }

    #[test]
    fn matches_a_sorted_model_across_mixed_traffic() {
        // Deterministic pseudo-random workload compared against a Vec-based
        // reference model. The model is sorted stably by cycle, so it keeps
        // push order within a cycle, and the wheel's drains must match it
        // exactly: a tail link left stale by node reuse, or an overflow
        // event moved into its bucket after a later push, breaks the order.
        let mut w = TimingWheel::new();
        let mut model: Vec<(u64, u32)> = Vec::new();
        let mut state = 0x1234_5678_u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut now = 0u64;
        for step in 0..2000u64 {
            let r = rng();
            // Mix short ALU-like, long DRAM-like, and pathological delays.
            let delay = match r % 5 {
                0 => 4,
                1 => 20,
                2 => 480,
                3 => 1 + r % 1500,
                _ => 1 + r % 40,
            };
            let ev = (now + delay, step as u32);
            w.push(ev.0, ev.1);
            model.push(ev);
            now += 1 + r % 7; // occasional multi-cycle hops
            let got = drain(&mut w, now);
            let mut expect: Vec<(u64, u32)> =
                model.iter().copied().filter(|e| e.0 <= now).collect();
            expect.sort_by_key(|e| e.0);
            model.retain(|e| e.0 > now);
            assert_eq!(got, expect, "step {step} now {now}");
            assert_eq!(
                w.next_due(),
                model.iter().map(|e| e.0).min(),
                "step {step} now {now}"
            );
        }
    }

    #[test]
    fn node_storage_stops_growing_at_the_peak_pending_count() {
        // Steady traffic, including events past the ring: the slab grows
        // only while every node is in use, so it ends at exactly the peak
        // pending count, and once the traffic has reached that peak the
        // wheel allocates no more.
        let mut w = TimingWheel::new();
        let mut peak = 0;
        let mut warm = None;
        for now in 0..20_000u64 {
            for delay in [1, 4, 480, 1500 + now % 7] {
                w.push(now + delay, now as u32);
            }
            peak = peak.max(w.len());
            w.drain_due(now, |_, _| {});
            assert_eq!(w.nodes.len(), peak, "cycle {now}");
            if now == 5_000 {
                warm = Some((peak, w.nodes.capacity()));
            }
        }
        assert_eq!(warm, Some((peak, w.nodes.capacity())));
    }
}
