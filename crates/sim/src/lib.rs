//! Deterministic discrete-event simulation substrate for the F&S reproduction.
//!
//! The paper evaluates a kernel patch on real Cascade Lake / Ice Lake servers;
//! this workspace replaces that testbed with a deterministic discrete-event
//! simulation. This crate provides the shared machinery every model crate
//! builds on:
//!
//! * [`time`] — nanosecond clock arithmetic and bandwidth/latency helpers,
//! * [`queue`] — a monotonic, deterministically tie-broken event queue,
//! * [`rng`] — a seedable, reproducible random number generator,
//! * [`stats`] — counters, log-linear latency histograms (P50..P99.99), and a
//!   reuse-distance tracker used to regenerate the locality panels
//!   (Figures 2e, 3e, 7e and 8e of the paper).
//!
//! # Examples
//!
//! ```
//! use fns_sim::queue::EventQueue;
//!
//! let mut q: EventQueue<&str> = EventQueue::new();
//! q.push(100, "b");
//! q.push(50, "a");
//! assert_eq!(q.pop(), Some((50, "a")));
//! assert_eq!(q.now(), 50);
//! ```

pub mod queue;
pub mod rng;
pub mod stats;
pub mod time;

pub use queue::EventQueue;
pub use rng::SimRng;
pub use stats::{Histogram, ReuseDistance};
pub use time::{Bandwidth, Nanos};
