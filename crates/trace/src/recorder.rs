//! Arming knobs for the causal observability plane: the [`provenance`],
//! [`txn`] and [`metrics`] layers plus the flight recorder (a crash ring
//! inside the [`TraceHandle`], so every trace emit site feeds it for free).
//!
//! The layers themselves are sinks of the simulation's one event tap
//! (`fns_core::tap`), which also owns their sim-time clock and their
//! checkpoint section.
//!
//! [`provenance`]: crate::provenance
//! [`txn`]: crate::txn
//! [`metrics`]: crate::metrics
//! [`TraceHandle`]: crate::TraceHandle

/// Flight-recorder (crash ring) capacity, in trace events.
pub const DEFAULT_FLIGHT_CAPACITY: u32 = 4096;

/// Sentinel for "no focus page".
pub const NO_FOCUS: u64 = u64::MAX;

/// Arming knobs for the observability plane. Lives in `SimConfig`
/// (`Copy`); the snapshot config fingerprint writes it with its derived
/// `Debug`, so a field added here changes every checkpoint's fingerprint
/// (the pinned fingerprint table then fails until the field is handled).
/// Capacities are the `DEFAULT_*` constants of each layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObserveConfig {
    /// Record per-page provenance timelines.
    pub provenance: bool,
    /// Always-tracked IOVA pfn ([`NO_FOCUS`] = none) — the
    /// `--explain-page` target.
    pub prov_focus: u64,
    /// Record DMA transaction causal spans.
    pub txn: bool,
    /// Record the HDR-style percentile registry.
    pub registry: bool,
    /// Arm the flight recorder (last-N crash ring inside the trace
    /// handle).
    pub flight: bool,
}

impl ObserveConfig {
    /// Everything disabled (the default; changes no run by a single bit).
    pub fn off() -> Self {
        Self {
            provenance: false,
            prov_focus: NO_FOCUS,
            txn: false,
            registry: false,
            flight: false,
        }
    }

    /// Everything armed.
    pub fn full() -> Self {
        Self {
            provenance: true,
            txn: true,
            registry: true,
            flight: true,
            ..Self::off()
        }
    }
}

impl Default for ObserveConfig {
    fn default() -> Self {
        Self::off()
    }
}
