//! F&S core: protection-mode datapaths and the full-host simulation.
//!
//! This crate glues the substrates together into the system the paper
//! evaluates:
//!
//! * [`mode`] — the protection-mode design space (Linux strict/deferred,
//!   the two F&S ablations, full F&S),
//! * [`driver`] — the mode-dependent map/unmap/invalidate datapaths (the
//!   reproduction of the paper's 630-LoC kernel patch),
//! * [`errors`] — the typed datapath error ([`DmaError`]) those paths
//!   surface instead of panicking,
//! * [`config`] — testbed and workload configuration,
//! * [`resources`] — serial resources (CPU cores, the translation pipe),
//! * [`sim`] — the discrete-event host simulation (NIC → IOMMU → memory →
//!   transport → ACKs, with a peer host and a switch),
//! * [`tap`] — the one instrumentation tap: each DMA-lifecycle event is
//!   reported once and fans out to the trace ring, the observers and the
//!   safety oracle,
//! * [`metrics`] — per-run results in the units the paper reports,
//! * [`model`] — the analytical throughput model `T = p / (l0 + M·lm)`
//!   of §2.2.

pub mod config;
pub mod driver;
pub mod errors;
pub mod flow_table;
pub mod metrics;
pub mod mode;
pub mod model;
pub mod resources;
pub mod sim;
pub mod tap;
pub mod watchdog;

pub use config::{ConfigError, CpuCosts, SimConfig, Topology, Workload};
pub use driver::{DmaDriver, Sabotage};
pub use errors::DmaError;
pub use metrics::RunMetrics;
pub use mode::ProtectionMode;
pub use sim::{HostSim, RunArena};
pub use tap::{DmaEvent, Tap};
pub use watchdog::{WatchdogConfig, WatchdogReport};
