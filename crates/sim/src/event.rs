//! Deterministic event queue and the clock-owning [`Simulation`] over it.
//!
//! The queue orders events by `(time, insertion sequence)`, so two events
//! scheduled for the same tick are delivered in the order they were
//! scheduled. Determinism matters here: every experiment in the harness must
//! be reproducible from a seed, and the safety arguments in the paper are
//! checked by exhaustively exploring failure schedules.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::clock::SimTime;

/// An event that has been scheduled for a particular instant.
#[derive(Debug, Clone)]
pub struct ScheduledEvent<E> {
    /// When the event fires.
    pub time: SimTime,
    /// Tie-break sequence number (FIFO among same-time events).
    seq: u64,
    /// The event payload.
    pub payload: E,
}

impl<E> ScheduledEvent<E> {
    /// The FIFO sequence number assigned at scheduling time.
    pub fn seq(&self) -> u64 {
        self.seq
    }
}

impl<E> PartialEq for ScheduledEvent<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for ScheduledEvent<E> {}

impl<E> PartialOrd for ScheduledEvent<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for ScheduledEvent<E> {
    // Reversed so the max-heap `BinaryHeap` pops the *earliest* event.
    fn cmp(&self, other: &Self) -> Ordering {
        other.time.cmp(&self.time).then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic min-priority queue of timestamped events.
///
/// # Example
///
/// ```
/// use swap_sim::{EventQueue, SimTime};
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_ticks(2), "b");
/// q.schedule(SimTime::from_ticks(1), "a");
/// q.schedule(SimTime::from_ticks(2), "c");
/// let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| e.payload).collect();
/// assert_eq!(order, ["a", "b", "c"]);
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    heap: BinaryHeap<ScheduledEvent<E>>,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue { heap: BinaryHeap::new(), next_seq: 0 }
    }

    /// Schedules `payload` to fire at `time`. Events at the same instant are
    /// delivered in scheduling order.
    pub fn schedule(&mut self, time: SimTime, payload: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(ScheduledEvent { time, seq, payload });
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        self.heap.pop()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

/// The clock-owning queue the engine polls.
///
/// The simulation owns the clock and the queue; domain state lives with the
/// caller, which holds the simulation beside it, handles each polled event
/// with ordinary `&mut self` methods, schedules follow-ups at or after the
/// current instant between polls, and stops on any condition it likes.
///
/// # Example
///
/// ```
/// use swap_sim::{Simulation, SimDuration, SimTime};
///
/// let mut sim = Simulation::new();
/// sim.schedule(SimTime::ZERO, 1u32);
/// let mut seen = Vec::new();
/// while let Some(ev) = sim.poll() {
///     seen.push((ev.time.ticks(), ev.payload));
///     if ev.payload < 3 {
///         sim.schedule(sim.now() + SimDuration::from_ticks(2), ev.payload + 1);
///     }
/// }
/// assert_eq!(seen, vec![(0, 1), (2, 2), (4, 3)]);
/// ```
#[derive(Debug)]
pub struct Simulation<E> {
    queue: EventQueue<E>,
    now: SimTime,
    dispatched: u64,
}

impl<E> Default for Simulation<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Simulation<E> {
    /// Creates a simulation starting at [`SimTime::ZERO`].
    pub fn new() -> Self {
        Simulation { queue: EventQueue::new(), now: SimTime::ZERO, dispatched: 0 }
    }

    /// The current simulated instant.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events dispatched so far.
    pub fn dispatched(&self) -> u64 {
        self.dispatched
    }

    /// Schedules an event, before the first poll or between polls.
    ///
    /// # Panics
    ///
    /// Panics if `time` is in the simulated past — events cannot rewrite
    /// history.
    pub fn schedule(&mut self, time: SimTime, payload: E) {
        assert!(time >= self.now, "cannot schedule an event in the past");
        self.queue.schedule(time, payload);
    }

    /// Number of pending events.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Pops the earliest event, advancing the clock to it; `None` once the
    /// queue has drained.
    pub fn poll(&mut self) -> Option<ScheduledEvent<E>> {
        let ev = self.queue.pop()?;
        self.now = ev.time;
        self.dispatched += 1;
        Some(ev)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::SimDuration;

    #[test]
    fn fifo_within_same_tick() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(SimTime::from_ticks(7), i);
        }
        let drained: Vec<i32> = std::iter::from_fn(|| q.pop()).map(|e| e.payload).collect();
        let expected: Vec<i32> = (0..100).collect();
        assert_eq!(drained, expected);
    }

    #[test]
    fn earliest_first_across_ticks() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ticks(9), 'c');
        q.schedule(SimTime::from_ticks(1), 'a');
        q.schedule(SimTime::from_ticks(5), 'b');
        assert_eq!(q.len(), 3);
        assert!(!q.is_empty());
        let drained: Vec<char> = std::iter::from_fn(|| q.pop()).map(|e| e.payload).collect();
        assert_eq!(drained, vec!['a', 'b', 'c']);
        assert!(q.is_empty());
    }

    #[test]
    fn poll_to_drain_advances_clock_and_counts() {
        let mut sim = Simulation::new();
        sim.schedule(SimTime::ZERO, 0u32);
        while let Some(ev) = sim.poll() {
            if ev.payload < 9 {
                sim.schedule(sim.now() + SimDuration::from_ticks(1), ev.payload + 1);
            }
        }
        assert_eq!(sim.now(), SimTime::from_ticks(9));
        assert_eq!(sim.dispatched(), 10);
        assert_eq!(sim.pending(), 0);
    }

    #[test]
    #[should_panic(expected = "past")]
    fn scheduling_in_the_past_panics() {
        let mut sim = Simulation::new();
        sim.schedule(SimTime::from_ticks(5), ());
        sim.poll();
        // now == 5; scheduling at 4 must panic.
        sim.schedule(SimTime::from_ticks(4), ());
    }

    #[test]
    fn poll_orders_follow_ups_scheduled_between_polls() {
        let mut sim = Simulation::new();
        sim.schedule(SimTime::from_ticks(2), 'b');
        sim.schedule(SimTime::from_ticks(1), 'a');
        let mut order = Vec::new();
        while let Some(ev) = sim.poll() {
            order.push(ev.payload);
            if ev.payload == 'a' {
                sim.schedule(sim.now() + SimDuration::from_ticks(3), 'c');
            }
        }
        assert_eq!(order, vec!['a', 'b', 'c']);
        assert_eq!(sim.now(), SimTime::from_ticks(4));
        assert_eq!(sim.dispatched(), 3);
        assert!(sim.poll().is_none());
    }

    #[test]
    fn same_instant_rescheduling_allowed() {
        let mut sim = Simulation::new();
        sim.schedule(SimTime::from_ticks(3), 0u8);
        let mut order = Vec::new();
        while let Some(ev) = sim.poll() {
            order.push(ev.payload);
            if ev.payload == 0 {
                sim.schedule(sim.now(), 1);
            }
        }
        assert_eq!(order, vec![0, 1]);
    }
}
