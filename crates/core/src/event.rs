//! A deterministic discrete-event queue.
//!
//! Every simulator in the workspace (kernel scheduler, heartbeat signaling,
//! coherence protocol, device models) advances simulated time by popping the
//! earliest pending event from an [`EventQueue`]. Determinism matters: the
//! paper's comparisons (Linux vs. Nautilus stacks running *the same
//! workload*) are only meaningful if a run is a pure function of its
//! configuration, so ties in event time are broken by insertion order
//! (FIFO), never by heap internals.
//!
//! Cancellation is *lazy* and hash-free. A cancellable event owns a slot in
//! a slab of `{gen, state}` records, recycled through a free list; its
//! [`EventHandle`] names the slot and the slot's generation at the time.
//! [`EventQueue::cancel`] is two array reads and a write: it tombstones the
//! slot instead of rebuilding the heap, and a stale handle (its event fired,
//! was already cancelled, or its slot has since been reused) finds a
//! different generation or a non-pending state. Tombstoned entries are
//! discarded when they surface at the top, and their slot returns to the
//! free list with its generation bumped. When tombstones outnumber live
//! events the heap is compacted in one pass, so memory stays bounded by the
//! live event count. The heap top is never left tombstoned, which keeps
//! [`EventQueue::peek_time`] an `&self` read. Plain events carry no slot
//! and cost the slab nothing.

use crate::telemetry::{Key, Layer, Sink, Unit};
use crate::time::Cycles;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Registry key: events scheduled since the queue was created.
const KEY_SCHEDULED: Key = Key::new("core.evq.scheduled", Layer::Hardware, Unit::Count);
/// Registry key: events popped (fired).
const KEY_POPPED: Key = Key::new("core.evq.popped", Layer::Hardware, Unit::Count);
/// Registry key: events cancelled (tombstoned).
const KEY_CANCELLED: Key = Key::new("core.evq.cancelled", Layer::Hardware, Unit::Count);
/// Registry key: tombstone compaction passes.
const KEY_COMPACTIONS: Key = Key::new("core.evq.compactions", Layer::Hardware, Unit::Count);

/// Lifetime counters the queue maintains for the telemetry plane. Plain
/// integer increments on the hot paths; published on demand with
/// [`EventQueue::publish_telemetry`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvqStats {
    /// Events scheduled (either way).
    pub scheduled: u64,
    /// Events popped (fired).
    pub popped: u64,
    /// Events cancelled via handle or predicate.
    pub cancelled: u64,
    /// Tombstone compaction passes performed.
    pub compactions: u64,
}

/// The slot a plain (non-cancellable) entry carries.
const NO_SLOT: u32 = u32::MAX;

/// An event scheduled at an absolute simulated time.
#[derive(Debug, Clone)]
struct Scheduled<E> {
    at: Cycles,
    seq: u64,
    /// The entry's cancellation slot, or `NO_SLOT`.
    slot: u32,
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
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops
        // first. seq breaks ties FIFO.
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

/// A ticket for a pending event scheduled with
/// [`EventQueue::schedule_cancellable`]; redeem it with
/// [`EventQueue::cancel`].
///
/// Handles are cheap copyable tokens. A handle whose event has already
/// fired (or already been cancelled) is simply stale: cancelling it returns
/// `false` and does nothing, even after its slot has been reused by a later
/// event (the generation differs). Generations are `u32`, so a handle kept
/// across 2^32 reuses of its slot could alias; the simulators drop a handle
/// when its event fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventHandle {
    slot: u32,
    gen: u32,
}

/// Where a cancellation slot's event is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotState {
    /// On the free list.
    Free,
    /// Its event is in the heap and live.
    Pending,
    /// Its event is in the heap as a tombstone.
    Cancelled,
}

/// One cancellation slot: the generation its handles carry, bumped
/// each time the slot is released, and the state of its current event.
#[derive(Debug, Clone, Copy)]
struct Slot {
    gen: u32,
    state: SlotState,
}

/// A deterministic discrete-event queue generic over the event payload.
///
/// ```
/// use interweave_core::{EventQueue, Cycles};
///
/// let mut q = EventQueue::new();
/// q.schedule(Cycles(100), "timer");
/// q.schedule(Cycles(50), "ipi");
/// q.schedule(Cycles(100), "second-timer"); // same time: FIFO after "timer"
///
/// assert_eq!(q.pop().unwrap(), (Cycles(50), "ipi"));
/// assert_eq!(q.pop().unwrap(), (Cycles(100), "timer"));
/// assert_eq!(q.pop().unwrap(), (Cycles(100), "second-timer"));
/// assert!(q.pop().is_none());
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    next_seq: u64,
    now: Cycles,
    /// Cancellation slots, indexed by a handle's `slot`.
    slots: Vec<Slot>,
    /// Released slots, reused last-in first-out.
    free: Vec<u32>,
    /// Cancelled entries still physically in the heap.
    tombstones: usize,
    /// Lifetime telemetry counters.
    stats: EvqStats,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue at time zero.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: Cycles::ZERO,
            slots: Vec::new(),
            free: Vec::new(),
            tombstones: 0,
            stats: EvqStats::default(),
        }
    }

    /// Lifetime queue counters (scheduled/popped/cancelled/compactions).
    #[inline]
    pub fn stats(&self) -> EvqStats {
        self.stats
    }

    /// Publish the queue's lifetime counters into `sink`'s registry as
    /// gauges under registry shard `shard`, stamped with the queue's
    /// current time. Gauge semantics make re-publishing idempotent.
    pub fn publish_telemetry(&self, sink: &Sink, shard: usize) {
        sink.gauge_at(&KEY_SCHEDULED, shard, self.stats.scheduled, self.now);
        sink.gauge_at(&KEY_POPPED, shard, self.stats.popped, self.now);
        sink.gauge_at(&KEY_CANCELLED, shard, self.stats.cancelled, self.now);
        sink.gauge_at(&KEY_COMPACTIONS, shard, self.stats.compactions, self.now);
    }

    /// The time of the most recently popped event (the simulator's "now").
    #[inline]
    pub fn now(&self) -> Cycles {
        self.now
    }

    /// Number of pending (non-cancelled) events.
    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len() - self.tombstones
    }

    /// True when no live events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Schedule `payload` at absolute time `at`.
    ///
    /// Scheduling in the past is a simulator bug; it panics in debug builds
    /// and is clamped to `now` in release builds so long sweeps fail soft.
    pub fn schedule(&mut self, at: Cycles, payload: E) {
        self.push(at, NO_SLOT, payload);
    }

    /// Schedule `payload` at `at`, returning a handle that can later cancel
    /// the event in O(1) (see [`EventQueue::cancel`]).
    ///
    /// Same time semantics as [`EventQueue::schedule`], including FIFO
    /// tie-breaking against events scheduled either way.
    pub fn schedule_cancellable(&mut self, at: Cycles, payload: E) -> EventHandle {
        let slot = match self.free.pop() {
            Some(slot) => slot,
            None => {
                let slot = self.slots.len() as u32;
                assert_ne!(slot, NO_SLOT, "2^32 - 1 cancellable events in the heap");
                self.slots.push(Slot {
                    gen: 0,
                    state: SlotState::Free,
                });
                slot
            }
        };
        let s = &mut self.slots[slot as usize];
        s.state = SlotState::Pending;
        let gen = s.gen;
        self.push(at, slot, payload);
        EventHandle { slot, gen }
    }

    fn push(&mut self, at: Cycles, slot: u32, payload: E) {
        debug_assert!(
            at >= self.now,
            "event scheduled in the past: at={at} now={}",
            self.now
        );
        let at = at.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.stats.scheduled += 1;
        self.heap.push(Scheduled {
            at,
            seq,
            slot,
            payload,
        });
    }

    /// Schedule `payload` `delay` cycles after the current time.
    pub fn schedule_in(&mut self, delay: Cycles, payload: E) {
        self.schedule(self.now + delay, payload);
    }

    /// Cancel the event behind `handle`. Returns true if the event was
    /// still pending (and is now dead), false if it already fired or was
    /// already cancelled.
    ///
    /// The entry is tombstoned, not removed: it stays in the heap until it
    /// surfaces at the top or a compaction sweeps it out.
    pub fn cancel(&mut self, handle: EventHandle) -> bool {
        match self.slots.get_mut(handle.slot as usize) {
            Some(s) if s.gen == handle.gen && s.state == SlotState::Pending => {
                s.state = SlotState::Cancelled;
            }
            _ => return false,
        }
        self.tombstones += 1;
        self.stats.cancelled += 1;
        self.after_cancel();
        true
    }

    /// Time of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<Cycles> {
        // Invariant: the heap top is never tombstoned (every cancellation
        // prunes the top), so peeking needs no skipping.
        self.heap.peek().map(|s| s.at)
    }

    /// Pop the earliest live event, advancing `now` to its time.
    pub fn pop(&mut self) -> Option<(Cycles, E)> {
        let s = self.heap.pop()?;
        if s.slot != NO_SLOT {
            debug_assert!(
                self.slots[s.slot as usize].state == SlotState::Pending,
                "tombstone at heap top"
            );
            self.release(s.slot);
        }
        self.prune_top();
        self.now = s.at;
        self.stats.popped += 1;
        Some((s.at, s.payload))
    }

    /// Pop the earliest event only if it fires at or before `deadline`.
    pub fn pop_before(&mut self, deadline: Cycles) -> Option<(Cycles, E)> {
        match self.peek_time() {
            Some(t) if t <= deadline => self.pop(),
            _ => None,
        }
    }

    /// Advance `now` to `t` without firing anything (idle time).
    ///
    /// Panics (debug) if events earlier than `t` are pending — skipping over
    /// pending work would silently corrupt a simulation.
    pub fn advance_to(&mut self, t: Cycles) {
        debug_assert!(
            self.peek_time().is_none_or(|p| p >= t),
            "advance_to({t}) would skip a pending event at {:?}",
            self.peek_time()
        );
        if t > self.now {
            self.now = t;
        }
    }

    /// Restore the no-tombstone-at-top invariant and bound tombstone load.
    fn after_cancel(&mut self) {
        // Compact when tombstones exceed half the heap; otherwise just make
        // sure the top entry is live.
        if self.tombstones * 2 > self.heap.len() {
            self.compact();
        } else {
            self.prune_top();
        }
    }

    /// Is this entry a tombstone?
    #[inline]
    fn is_tombstone(&self, s: &Scheduled<E>) -> bool {
        s.slot != NO_SLOT && self.slots[s.slot as usize].state == SlotState::Cancelled
    }

    /// Return a slot whose entry left the heap to the free list. Bumping the
    /// generation makes every handle that carries the old one stale.
    #[inline]
    fn release(&mut self, slot: u32) {
        let s = &mut self.slots[slot as usize];
        s.gen = s.gen.wrapping_add(1);
        s.state = SlotState::Free;
        self.free.push(slot);
    }

    /// Discard tombstoned entries sitting at the top of the heap.
    #[inline]
    fn prune_top(&mut self) {
        if self.tombstones == 0 {
            return;
        }
        while let Some(top) = self.heap.peek() {
            if !self.is_tombstone(top) {
                break;
            }
            let slot = top.slot;
            self.heap.pop();
            self.release(slot);
            self.tombstones -= 1;
        }
    }

    /// Rebuild the heap without its tombstoned entries (one O(n) pass).
    fn compact(&mut self) {
        self.stats.compactions += 1;
        let mut kept = std::mem::take(&mut self.heap).into_vec();
        kept.retain(|s| !self.is_tombstone(s));
        // Every cancelled slot's entry was a tombstone, now gone.
        for slot in 0..self.slots.len() as u32 {
            if self.slots[slot as usize].state == SlotState::Cancelled {
                self.release(slot);
            }
        }
        self.tombstones = 0;
        self.heap = kept.into();
    }

    /// Physical heap entries, live + tombstoned (for tests and diagnostics).
    #[doc(hidden)]
    pub fn raw_len(&self) -> usize {
        self.heap.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_by_time() {
        let mut q = EventQueue::new();
        q.schedule(Cycles(30), 3);
        q.schedule(Cycles(10), 1);
        q.schedule(Cycles(20), 2);
        assert_eq!(q.pop(), Some((Cycles(10), 1)));
        assert_eq!(q.pop(), Some((Cycles(20), 2)));
        assert_eq!(q.pop(), Some((Cycles(30), 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn fifo_on_ties() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(Cycles(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((Cycles(5), i)));
        }
    }

    #[test]
    fn now_advances_with_pop() {
        let mut q = EventQueue::new();
        q.schedule(Cycles(42), ());
        assert_eq!(q.now(), Cycles::ZERO);
        q.pop();
        assert_eq!(q.now(), Cycles(42));
    }

    #[test]
    fn schedule_in_is_relative() {
        let mut q = EventQueue::new();
        q.schedule(Cycles(10), "a");
        q.pop();
        q.schedule_in(Cycles(5), "b");
        assert_eq!(q.pop(), Some((Cycles(15), "b")));
    }

    #[test]
    fn pop_before_respects_deadline() {
        let mut q = EventQueue::new();
        q.schedule(Cycles(100), "late");
        assert_eq!(q.pop_before(Cycles(50)), None);
        assert_eq!(q.pop_before(Cycles(100)), Some((Cycles(100), "late")));
    }

    #[test]
    fn advance_to_moves_idle_time() {
        let mut q: EventQueue<()> = EventQueue::new();
        q.advance_to(Cycles(500));
        assert_eq!(q.now(), Cycles(500));
        // Going backwards is a no-op.
        q.advance_to(Cycles(100));
        assert_eq!(q.now(), Cycles(500));
    }

    // The check is a `debug_assert!`, so release builds have nothing to test.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn schedule_in_past_panics_in_debug() {
        let mut q = EventQueue::new();
        q.schedule(Cycles(100), ());
        q.pop();
        q.schedule(Cycles(50), ());
    }

    #[test]
    fn cancel_removes_pending_event() {
        let mut q = EventQueue::new();
        q.schedule(Cycles(1), "a");
        let h = q.schedule_cancellable(Cycles(2), "b");
        q.schedule(Cycles(3), "c");
        assert!(q.cancel(h));
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some((Cycles(1), "a")));
        assert_eq!(q.pop(), Some((Cycles(3), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn cancel_is_idempotent_and_stale_after_fire() {
        let mut q = EventQueue::new();
        let h1 = q.schedule_cancellable(Cycles(1), "first");
        let h2 = q.schedule_cancellable(Cycles(2), "second");
        assert!(q.cancel(h2));
        assert!(!q.cancel(h2), "double cancel must be a no-op");
        assert_eq!(q.pop(), Some((Cycles(1), "first")));
        assert!(!q.cancel(h1), "cancelling a fired event must be a no-op");
        assert!(q.is_empty());
    }

    #[test]
    fn peek_time_skips_cancelled_top() {
        let mut q = EventQueue::new();
        let h = q.schedule_cancellable(Cycles(5), "soon");
        q.schedule(Cycles(10), "later");
        assert_eq!(q.peek_time(), Some(Cycles(5)));
        assert!(q.cancel(h));
        // The cancelled event was the top: peek must see through it.
        assert_eq!(q.peek_time(), Some(Cycles(10)));
        assert_eq!(q.pop_before(Cycles(7)), None);
        assert_eq!(q.pop(), Some((Cycles(10), "later")));
    }

    #[test]
    fn cancellation_preserves_fifo_ties() {
        let mut q = EventQueue::new();
        let mut handles = Vec::new();
        for i in 0..50 {
            handles.push(q.schedule_cancellable(Cycles(7), i));
        }
        // Cancel every third event; the survivors must still pop in
        // insertion order.
        for (i, h) in handles.iter().enumerate() {
            if i % 3 == 0 {
                assert!(q.cancel(*h));
            }
        }
        let mut popped = Vec::new();
        while let Some((t, i)) = q.pop() {
            assert_eq!(t, Cycles(7));
            popped.push(i);
        }
        let expect: Vec<i32> = (0..50).filter(|i| i % 3 != 0).collect();
        assert_eq!(popped, expect);
    }

    #[test]
    fn heavy_cancellation_triggers_compaction() {
        let mut q = EventQueue::new();
        let handles: Vec<EventHandle> = (0..1000)
            .map(|i| q.schedule_cancellable(Cycles(1_000_000 + i), i))
            .collect();
        // Cancel everything except the last event. Tombstones may never
        // exceed half the physical heap.
        for h in &handles[..999] {
            assert!(q.cancel(*h));
        }
        assert_eq!(q.len(), 1);
        assert!(
            q.raw_len() <= 2,
            "compaction failed to bound tombstones: raw_len={}",
            q.raw_len()
        );
        assert_eq!(q.pop(), Some((Cycles(1_000_999), 999)));
        assert!(q.pop().is_none());
    }

    #[test]
    fn advance_to_past_tombstones_never_resurrects() {
        // Regression guard: a cancelled event whose fire time lies behind an
        // `advance_to` target must neither trip the skipped-event assertion
        // (it is not pending work) nor ever pop afterwards.
        let mut q = EventQueue::new();
        let doomed = q.schedule_cancellable(Cycles(100), "doomed");
        q.schedule(Cycles(300), "live");
        assert!(q.cancel(doomed));
        // Advancing beyond the tombstone's time is legal idle time...
        q.advance_to(Cycles(200));
        assert_eq!(q.now(), Cycles(200));
        // ...and the dead event stays dead: only the live one ever pops.
        assert_eq!(q.pop(), Some((Cycles(300), "live")));
        assert_eq!(q.pop(), None);

        // Same with the tombstone buried (not at the heap top): cancel,
        // advance past it, and confirm no resurrection on later pops.
        let mut q = EventQueue::new();
        q.schedule(Cycles(10), "first");
        let mid = q.schedule_cancellable(Cycles(20), "mid");
        q.schedule(Cycles(30), "last");
        assert!(q.cancel(mid));
        assert_eq!(q.pop(), Some((Cycles(10), "first")));
        q.advance_to(Cycles(25));
        assert_eq!(q.pop(), Some((Cycles(30), "last")));
        assert!(q.is_empty());
    }

    #[test]
    fn stats_count_and_publish_as_gauges() {
        use crate::telemetry::{Level, Sink};
        let mut q = EventQueue::new();
        q.schedule(Cycles(10), 0);
        let h = q.schedule_cancellable(Cycles(20), 1);
        q.schedule(Cycles(30), 2);
        q.cancel(h);
        q.pop();
        let st = q.stats();
        assert_eq!((st.scheduled, st.popped, st.cancelled), (3, 1, 1), "{st:?}");
        let sink = Sink::on(Level::Counters);
        q.publish_telemetry(&sink, 0);
        q.publish_telemetry(&sink, 0); // gauge semantics: idempotent
        assert_eq!(sink.counter("core.evq.scheduled"), 3);
        assert_eq!(sink.counter("core.evq.popped"), 1);
        assert_eq!(sink.counter("core.evq.cancelled"), 1);
        assert_eq!(sink.counter("core.evq.compactions"), 0);
    }

    #[test]
    fn len_counts_only_live_events() {
        let mut q = EventQueue::new();
        q.schedule(Cycles(10), 0);
        let h = q.schedule_cancellable(Cycles(20), 1);
        q.schedule(Cycles(30), 2);
        assert_eq!(q.len(), 3);
        q.cancel(h);
        assert_eq!(q.len(), 2);
        assert!(!q.is_empty());
    }

    #[test]
    fn stale_handle_never_cancels_the_slots_next_event() {
        let mut q = EventQueue::new();
        let fired = q.schedule_cancellable(Cycles(1), "fired");
        assert_eq!(q.pop(), Some((Cycles(1), "fired")));
        let cancelled = q.schedule_cancellable(Cycles(2), "cancelled");
        assert!(q.cancel(cancelled));
        q.schedule(Cycles(3), "plain");
        let live = q.schedule_cancellable(Cycles(4), "live");
        // All three cancellable events shared one slot; only the newest
        // handle's generation still matches it.
        assert_eq!(q.slots.len(), 1);
        assert!(!q.cancel(fired));
        assert!(!q.cancel(cancelled));
        assert_eq!(q.len(), 2);
        assert!(q.cancel(live));
        assert_eq!(q.pop(), Some((Cycles(3), "plain")));
        assert!(q.is_empty());
    }

    #[test]
    fn slots_are_recycled_through_pops_and_compactions() {
        let mut q = EventQueue::new();
        for round in 0..100u64 {
            let hs: Vec<EventHandle> = (0..8)
                .map(|i| q.schedule_cancellable(Cycles(round * 10 + i), i))
                .collect();
            // Latest first, so the tombstones pile up below the top.
            for h in hs[2..].iter().rev() {
                assert!(q.cancel(*h));
            }
            while q.pop().is_some() {}
        }
        assert!(q.stats().compactions > 0);
        assert_eq!(q.slots.len(), 8, "the slab holds the peak, not the total");
        assert_eq!(q.free.len(), 8);
        assert_eq!(q.tombstones, 0);
    }
}
