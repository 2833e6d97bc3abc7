//! Fast & Safe IO memory protection (SOSP '24) — full-system reproduction.
//!
//! Facade crate re-exporting every subsystem of the workspace. See the
//! repository README for the architecture overview and `DESIGN.md` for the
//! per-experiment index.

pub use fns_apps as apps;
pub use fns_core as core;
pub use fns_faults as faults;
pub use fns_harness as harness;
pub use fns_iommu as iommu;
pub use fns_iova as iova;
pub use fns_mem as mem;
pub use fns_net as net;
pub use fns_nic as nic;
pub use fns_oracle as oracle;
pub use fns_sim as sim;
pub use fns_snap as snap;
pub use fns_trace as trace;
