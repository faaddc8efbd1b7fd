//! Discrete-event simulation kernel for the atomic cross-chain swap system.
//!
//! Herlihy's analysis (§2.2 of the paper) assumes a single synchrony
//! parameter: a known duration Δ long enough for one party to publish a
//! contract on any blockchain (or change a contract's state) and for every
//! other party to confirm that the change happened. This crate provides the
//! substrate that makes Δ a *measurable, checkable* quantity:
//!
//! * [`SimTime`] / [`SimDuration`] — a discrete logical clock in ticks,
//! * [`Delta`] — the paper's Δ, expressed in ticks,
//! * [`EventQueue`] — a deterministic priority queue of timestamped events,
//! * [`Simulation`] — the clock-owning queue the engine polls, popping
//!   events in (time, FIFO) order,
//! * [`SimRng`] — seeded, stream-splittable randomness so every experiment
//!   is reproducible bit-for-bit.
//!
//! What a swap *did* is not recorded here: the typed trace lives with the
//! engine that produces it (`swap_core::event`).
//!
//! # Example
//!
//! ```
//! use swap_sim::{EventQueue, SimDuration, SimTime};
//!
//! let mut q: EventQueue<&'static str> = EventQueue::new();
//! q.schedule(SimTime::ZERO + SimDuration::from_ticks(5), "later");
//! q.schedule(SimTime::ZERO, "now");
//! assert_eq!(q.pop().map(|e| e.payload), Some("now"));
//! assert_eq!(q.pop().map(|e| e.payload), Some("later"));
//! assert!(q.pop().is_none());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod event;
pub mod rng;

pub use clock::{Delta, SimDuration, SimTime};
pub use event::{EventQueue, ScheduledEvent, Simulation};
pub use rng::SimRng;
