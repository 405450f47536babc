//! The engine's pending-event queue: `(time, seq)` order from a few
//! FIFOs and one small heap.
//!
//! Most events are scheduled a fixed delay after the current cycle — a
//! packet's arrival one link latency after its serialization ends, a
//! retransmission timer one timeout after it is armed. The engine's
//! clock never runs backwards and every push takes the next insertion
//! sequence number, so the events one such delay schedules are already
//! sorted by `(time, seq)` when they are pushed: a FIFO holds them in
//! order at O(1) a push and a pop. Events whose delay varies go to a
//! binary heap. The next event is the smallest `(time, seq)` among the
//! FIFO heads and the heap top, which is exactly the order one heap of
//! every event would pop.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

struct Entry<E> {
    time: u64,
    seq: u64,
    event: E,
}

impl<E> Entry<E> {
    fn key(&self) -> (u64, u64) {
        (self.time, self.seq)
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    // Reversed: the std max-heap then pops the earliest (time, seq).
    fn cmp(&self, other: &Self) -> Ordering {
        other.key().cmp(&self.key())
    }
}

/// Pending events of type `E`, popped in `(time, insertion sequence)`
/// order, with `N` FIFO lanes for constant-delay pushes.
pub(crate) struct EventQueue<E, const N: usize> {
    next_seq: u64,
    lanes: [VecDeque<Entry<E>>; N],
    heap: BinaryHeap<Entry<E>>,
}

impl<E, const N: usize> EventQueue<E, N> {
    pub(crate) fn new() -> Self {
        EventQueue {
            next_seq: 0,
            lanes: std::array::from_fn(|_| VecDeque::new()),
            heap: BinaryHeap::new(),
        }
    }

    fn entry(&mut self, time: u64, event: E) -> Entry<E> {
        let seq = self.next_seq;
        self.next_seq += 1;
        Entry { time, seq, event }
    }

    /// Queues `event` at `time` on FIFO `lane`, which must not hold a
    /// later event: a lane takes the events one constant delay
    /// schedules from a clock that never runs backwards.
    pub(crate) fn push_lane(&mut self, lane: usize, time: u64, event: E) {
        let entry = self.entry(time, event);
        let fifo = &mut self.lanes[lane];
        debug_assert!(fifo.back().is_none_or(|last| last.time <= time), "lane {lane} out of order");
        fifo.push_back(entry);
    }

    /// Queues `event` at `time` on the heap.
    pub(crate) fn push(&mut self, time: u64, event: E) {
        let entry = self.entry(time, event);
        self.heap.push(entry);
    }

    /// Removes and returns the pending event with the smallest
    /// `(time, seq)`, with its time.
    pub(crate) fn pop(&mut self) -> Option<(u64, E)> {
        let mut best = self.heap.peek().map(Entry::key);
        let mut lane = None;
        for (i, fifo) in self.lanes.iter().enumerate() {
            if let Some(head) = fifo.front() {
                if best.is_none_or(|key| head.key() < key) {
                    best = Some(head.key());
                    lane = Some(i);
                }
            }
        }
        let entry = match lane {
            Some(i) => self.lanes[i].pop_front(),
            None => self.heap.pop(),
        }?;
        Some((entry.time, entry.event))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use equinox_arith::check::for_each_case;

    #[test]
    fn pops_in_time_then_insertion_order() {
        // Pushes at nondecreasing `now` plus either one of three
        // constant delays (a lane each) or a random one (the heap),
        // interleaved with pops: every pop must match a plain sort of
        // the pending (time, seq) keys.
        for_each_case(64, 0x0e7e_0001, |g| {
            let delays = [g.next_u64() % 50, g.next_u64() % 50, g.next_u64() % 2_000];
            let mut q: EventQueue<u64, 3> = EventQueue::new();
            let mut pending: Vec<(u64, u64)> = Vec::new();
            let (mut now, mut seq) = (0u64, 0u64);
            for _ in 0..g.usize_in(1, 400) {
                for _ in 0..g.usize_in(0, 4) {
                    let lane = g.usize_in(0, 4);
                    let time = if lane < 3 {
                        now + delays[lane]
                    } else {
                        now + g.next_u64() % 300
                    };
                    if lane < 3 {
                        q.push_lane(lane, time, seq);
                    } else {
                        q.push(time, seq);
                    }
                    pending.push((time, seq));
                    seq += 1;
                }
                if g.next_bool() {
                    pending.sort_unstable();
                    let want = (!pending.is_empty()).then(|| pending.remove(0));
                    let got = q.pop();
                    assert_eq!(got, want);
                    if let Some((time, _)) = got {
                        now = time;
                    }
                }
            }
            pending.sort_unstable();
            let rest: Vec<(u64, u64)> = std::iter::from_fn(|| q.pop()).collect();
            assert_eq!(rest, pending);
        });
    }
}
