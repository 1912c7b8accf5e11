//! Model-based property test for event-queue cancellation: the tombstoning
//! [`EventQueue`] must be observationally equivalent to a naive model queue
//! (a plain Vec popped by minimum `(time, seq)`, cancelled by direct
//! removal) under arbitrary interleavings of schedule, cancellable
//! schedule, handle cancel, batched handle cancels, stale cancels after
//! slot reuse, and pop — including FIFO tie-breaking at equal times, which
//! the small time deltas here force constantly.
//!
//! A second oracle, [`SetQueue`], is the hash-set tombstoning queue the
//! slot slab replaced. Its counters, physical heap size and compaction
//! points are the specification the slab must keep exactly: the pinned
//! `core.event.*` counts depend on them.

use interweave_core::{Cycles, EventHandle, EventQueue};
use proptest::prelude::*;

/// The event queue as it was before slot-indexed cancellation: pending and
/// tombstoned sequence numbers live in two hash sets. Copied verbatim apart
/// from the telemetry publisher and the docs.
mod set_queue {
    use interweave_core::hash::LineHash;
    use interweave_core::{Cycles, EvqStats};
    use std::cmp::Ordering;
    use std::collections::{BinaryHeap, HashSet};

    type SeqSet = HashSet<u64, LineHash>;

    #[derive(Debug, Clone)]
    struct Scheduled<E> {
        at: Cycles,
        seq: u64,
        payload: E,
    }

    impl<E> PartialEq for Scheduled<E> {
        fn eq(&self, other: &Self) -> bool {
            self.at == other.at && self.seq == other.seq
        }
    }
    impl<E> Eq for Scheduled<E> {}

    impl<E> Ord for Scheduled<E> {
        fn cmp(&self, other: &Self) -> Ordering {
            other
                .at
                .cmp(&self.at)
                .then_with(|| other.seq.cmp(&self.seq))
        }
    }
    impl<E> PartialOrd for Scheduled<E> {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub struct EventHandle {
        seq: u64,
    }

    #[derive(Debug, Clone)]
    pub struct EventQueue<E> {
        heap: BinaryHeap<Scheduled<E>>,
        next_seq: u64,
        now: Cycles,
        cancellable: SeqSet,
        cancelled: SeqSet,
        stats: EvqStats,
    }

    impl<E> EventQueue<E> {
        pub fn new() -> Self {
            EventQueue {
                heap: BinaryHeap::new(),
                next_seq: 0,
                now: Cycles::ZERO,
                cancellable: SeqSet::default(),
                cancelled: SeqSet::default(),
                stats: EvqStats::default(),
            }
        }

        pub fn stats(&self) -> EvqStats {
            self.stats
        }

        pub fn len(&self) -> usize {
            self.heap.len() - self.cancelled.len()
        }

        pub fn schedule(&mut self, at: Cycles, payload: E) {
            self.push(at, payload);
        }

        pub fn schedule_cancellable(&mut self, at: Cycles, payload: E) -> EventHandle {
            let seq = self.push(at, payload);
            self.cancellable.insert(seq);
            EventHandle { seq }
        }

        fn push(&mut self, at: Cycles, payload: E) -> u64 {
            debug_assert!(
                at >= self.now,
                "event scheduled in the past: at={at} now={}",
                self.now
            );
            let at = at.max(self.now);
            let seq = self.next_seq;
            self.next_seq += 1;
            self.stats.scheduled += 1;
            self.heap.push(Scheduled { at, seq, payload });
            seq
        }

        pub fn cancel(&mut self, handle: EventHandle) -> bool {
            if !self.cancellable.remove(&handle.seq) {
                return false;
            }
            self.cancelled.insert(handle.seq);
            self.stats.cancelled += 1;
            self.after_cancel();
            true
        }

        pub fn peek_time(&self) -> Option<Cycles> {
            self.heap.peek().map(|s| s.at)
        }

        pub fn pop(&mut self) -> Option<(Cycles, E)> {
            let s = self.heap.pop()?;
            debug_assert!(!self.cancelled.contains(&s.seq), "tombstone at heap top");
            self.cancellable.remove(&s.seq);
            self.prune_top();
            self.now = s.at;
            self.stats.popped += 1;
            Some((s.at, s.payload))
        }

        pub fn pop_before(&mut self, deadline: Cycles) -> Option<(Cycles, E)> {
            match self.peek_time() {
                Some(t) if t <= deadline => self.pop(),
                _ => None,
            }
        }

        fn after_cancel(&mut self) {
            if self.cancelled.len() * 2 > self.heap.len() {
                self.compact();
            } else {
                self.prune_top();
            }
        }

        fn prune_top(&mut self) {
            while let Some(top) = self.heap.peek() {
                let seq = top.seq;
                if !self.cancelled.contains(&seq) {
                    break;
                }
                self.heap.pop();
                self.cancelled.remove(&seq);
            }
        }

        fn compact(&mut self) {
            self.stats.compactions += 1;
            let cancelled = std::mem::take(&mut self.cancelled);
            let kept: Vec<Scheduled<E>> = self
                .heap
                .drain()
                .filter(|s| !cancelled.contains(&s.seq))
                .collect();
            self.heap = kept.into();
        }

        pub fn raw_len(&self) -> usize {
            self.heap.len()
        }
    }
}

use set_queue::EventQueue as SetQueue;

#[derive(Debug, Clone)]
enum Op {
    /// Schedule at now + delta (plain, not cancellable).
    Schedule(u64),
    /// Schedule at now + delta, keeping the handle.
    ScheduleCancellable(u64),
    /// Cancel the i-th handle ever issued (mod count); stale handles
    /// must be rejected identically by queue and model.
    Cancel(usize),
    /// Pop the earliest event.
    Pop,
    /// Pop only if the earliest event is within now + delta.
    PopBefore(u64),
    /// Cancel every handle ever issued whose payload % 3 == r — a bulk
    /// retraction that piles up tombstones and stresses prune/compaction.
    CancelBatch(u64),
    /// Schedule a cancellable event at now + delta, which takes the most
    /// recently released slot if there is one, then cancel every handle
    /// whose event already fired or was cancelled: the handle whose slot
    /// the new event reused must not reach it.
    ScheduleThenCancelStale(u64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..6).prop_map(Op::Schedule),
        (0u64..6).prop_map(Op::ScheduleCancellable),
        (0usize..64).prop_map(Op::Cancel),
        Just(Op::Pop),
        (0u64..8).prop_map(Op::PopBefore),
        (0u64..3).prop_map(Op::CancelBatch),
        (0u64..6).prop_map(Op::ScheduleThenCancelStale),
    ]
}

/// The reference: a flat list of pending `(time, seq, payload)` popped by
/// minimum `(time, seq)` — the specification of time-then-FIFO ordering.
#[derive(Default)]
struct ModelQueue {
    pending: Vec<(u64, u64, u64)>,
    next_seq: u64,
    now: u64,
}

impl ModelQueue {
    fn schedule(&mut self, at: u64, payload: u64) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pending.push((at.max(self.now), seq, payload));
        seq
    }

    fn earliest(&self) -> Option<usize> {
        self.pending
            .iter()
            .enumerate()
            .min_by_key(|(_, &(t, s, _))| (t, s))
            .map(|(i, _)| i)
    }

    fn pop(&mut self) -> Option<(u64, u64)> {
        let i = self.earliest()?;
        let (t, _, p) = self.pending.remove(i);
        self.now = t;
        Some((t, p))
    }

    fn peek_time(&self) -> Option<u64> {
        self.earliest().map(|i| self.pending[i].0)
    }

    fn is_pending(&self, seq: u64) -> bool {
        self.pending.iter().any(|&(_, s, _)| s == seq)
    }

    fn cancel_seq(&mut self, seq: u64) -> bool {
        match self.pending.iter().position(|&(_, s, _)| s == seq) {
            Some(i) => {
                self.pending.remove(i);
                true
            }
            None => false,
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn tombstone_queue_equals_model(ops in prop::collection::vec(op_strategy(), 1..120)) {
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut sets: SetQueue<u64> = SetQueue::new();
        let mut model = ModelQueue::default();
        // Handles handed out so far: the queue's, the set oracle's, the
        // model's seq, and the payload.
        let mut handles: Vec<(EventHandle, set_queue::EventHandle, u64, u64)> = Vec::new();
        let mut next_payload = 0u64;

        for op in &ops {
            match *op {
                Op::Schedule(delta) => {
                    let payload = next_payload;
                    next_payload += 1;
                    q.schedule(q.now() + Cycles(delta), payload);
                    sets.schedule(q.now() + Cycles(delta), payload);
                    model.schedule(model.now + delta, payload);
                }
                Op::ScheduleCancellable(delta) | Op::ScheduleThenCancelStale(delta) => {
                    let payload = next_payload;
                    next_payload += 1;
                    let h = q.schedule_cancellable(q.now() + Cycles(delta), payload);
                    let sh = sets.schedule_cancellable(q.now() + Cycles(delta), payload);
                    let seq = model.schedule(model.now + delta, payload);
                    handles.push((h, sh, seq, payload));
                    if let Op::ScheduleThenCancelStale(_) = op {
                        for &(h, sh, seq, _) in &handles {
                            if !model.is_pending(seq) {
                                prop_assert!(!q.cancel(h), "stale handle cancelled an event");
                                prop_assert!(!sets.cancel(sh));
                            }
                        }
                    }
                }
                Op::Cancel(i) => {
                    if !handles.is_empty() {
                        let (h, sh, seq, _) = handles[i % handles.len()];
                        let want = model.cancel_seq(seq);
                        prop_assert_eq!(q.cancel(h), want);
                        prop_assert_eq!(sets.cancel(sh), want);
                    }
                }
                Op::Pop => {
                    let want = model.pop();
                    prop_assert_eq!(q.pop().map(|(t, p)| (t.get(), p)), want);
                    prop_assert_eq!(sets.pop().map(|(t, p)| (t.get(), p)), want);
                }
                Op::PopBefore(delta) => {
                    let deadline = q.now() + Cycles(delta);
                    let want = match model.peek_time() {
                        Some(t) if t <= model.now + delta => model.pop(),
                        _ => None,
                    };
                    prop_assert_eq!(q.pop_before(deadline).map(|(t, p)| (t.get(), p)), want);
                    prop_assert_eq!(sets.pop_before(deadline).map(|(t, p)| (t.get(), p)), want);
                }
                Op::CancelBatch(r) => {
                    // Every cancel in the batch must agree with the model,
                    // fired or pending alike (stale handles return false).
                    for &(h, sh, seq, payload) in &handles {
                        if payload % 3 == r {
                            let want = model.cancel_seq(seq);
                            prop_assert_eq!(q.cancel(h), want);
                            prop_assert_eq!(sets.cancel(sh), want);
                        }
                    }
                }
            }
            // Observable state must agree after every operation.
            prop_assert_eq!(q.len(), model.pending.len());
            prop_assert_eq!(q.is_empty(), model.pending.is_empty());
            prop_assert_eq!(q.now().get(), model.now);
            prop_assert_eq!(q.peek_time().map(Cycles::get), model.peek_time());
            // And the bookkeeping must match the set queue's exactly:
            // counters (compactions included), tombstones left in the heap.
            prop_assert_eq!(q.stats(), sets.stats());
            prop_assert_eq!(q.raw_len(), sets.raw_len());
            prop_assert_eq!(q.len(), sets.len());
            prop_assert_eq!(q.peek_time(), sets.peek_time());
        }

        // Drain: the survivors must come out in exactly the model's order
        // (time, then FIFO by schedule order).
        loop {
            let got = q.pop().map(|(t, p)| (t.get(), p));
            let want = model.pop();
            prop_assert_eq!(got, want);
            prop_assert_eq!(sets.pop().map(|(t, p)| (t.get(), p)), want);
            prop_assert_eq!(q.stats(), sets.stats());
            if got.is_none() {
                break;
            }
        }
    }
}
