//! Deterministic parallel sweep runner.
//!
//! Every figure of the paper is a *sweep*: a grid of independent
//! `(config, mode, seed)` simulation runs whose results are printed in a
//! fixed order. Each run is single-threaded and deterministic, so the grid
//! is embarrassingly parallel — the only thing that must not change is the
//! order results come back in. [`SweepRunner`] provides exactly that
//! contract:
//!
//! * runs execute on a scoped `std::thread` pool (no external
//!   dependencies), sized by the `FNS_JOBS` environment variable or the
//!   machine's available parallelism;
//! * results are collected in **submission order**, so a sweep printed
//!   from the returned `Vec` is byte-identical to the sequential run no
//!   matter how many workers raced over it;
//! * each run owns its `SimConfig` (with its own forked-from-seed RNG
//!   inside `HostSim`), so no state is shared between concurrent runs.
//!
//! A worker panic propagates out of [`SweepRunner::map`] when the scope
//! joins — a sweep never silently drops a point.
//!
//! ```
//! use fns_harness::SweepRunner;
//!
//! let runner = SweepRunner::new(4);
//! let squares = runner.map((0..8u64).collect(), |x| x * x);
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use fns_core::{HostSim, ProtectionMode, RunArena, RunMetrics, SimConfig};

pub mod mbt;
pub mod scenarios;
pub mod soak;

pub use mbt::{CorpusCase, MbtConfig, Op};
pub use scenarios::{scenario_config, scenario_names, Scenario, SCENARIOS};
pub use soak::{
    bisect_violation, run_soak, shrink_violation_window, soak_config, soak_names, Checkpoint,
    SoakOutcome, SoakScenario, ViolationWindow, SOAK_SCENARIOS,
};

/// Executes independent simulation runs on a thread pool, returning
/// results in submission order.
#[derive(Debug, Clone, Copy)]
pub struct SweepRunner {
    jobs: usize,
}

impl Default for SweepRunner {
    fn default() -> Self {
        Self::from_env()
    }
}

impl SweepRunner {
    /// Creates a runner with exactly `jobs` workers (clamped to at least 1).
    pub fn new(jobs: usize) -> Self {
        Self { jobs: jobs.max(1) }
    }

    /// Creates a runner sized by `FNS_JOBS` if set (and parseable as a
    /// positive integer), otherwise by the machine's available parallelism.
    pub fn from_env() -> Self {
        let jobs = std::env::var("FNS_JOBS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            });
        Self::new(jobs)
    }

    /// Number of worker threads this runner uses.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Applies `f` to every input, fanning the calls out across the worker
    /// pool; `results[i]` is always `f(inputs[i])` regardless of which
    /// worker ran it or when it finished.
    ///
    /// With one worker (or one input) the calls run inline on the calling
    /// thread — the sequential baseline path, with no pool overhead.
    pub fn map<T, R, F>(&self, inputs: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        self.map_with(inputs, || (), |(), t| f(t))
    }

    /// Like [`SweepRunner::map`], but each worker thread carries a mutable
    /// state built once by `init` and threaded through every call that
    /// worker makes. This is the arena hook: a worker's scratch allocations
    /// (event-queue slab, page tables, flow tables, pools) survive from one
    /// sweep point to the next instead of being rebuilt per run.
    ///
    /// The sequential path (one worker or one input) builds a single state
    /// and reuses it across every input — the maximum-recycling baseline.
    /// `f` must not let the state affect results: `results[i]` must equal
    /// `f(fresh_state, inputs[i])` regardless of which worker ran it.
    pub fn map_with<T, R, S, I, F>(&self, inputs: Vec<T>, init: I, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, T) -> R + Sync,
    {
        let n = inputs.len();
        if self.jobs == 1 || n <= 1 {
            let mut state = init();
            return inputs.into_iter().map(|t| f(&mut state, t)).collect();
        }
        // Dynamic scheduling: workers race on an atomic cursor so a slow
        // point (e.g. a 40-flow run) does not leave a statically assigned
        // worker idle. Slots pin each result to its submission index.
        let cursor = AtomicUsize::new(0);
        let work: Vec<Mutex<Option<T>>> = inputs.into_iter().map(|t| Mutex::new(Some(t))).collect();
        let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..self.jobs.min(n) {
                scope.spawn(|| {
                    let mut state = init();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let input = work[i]
                            .lock()
                            .expect("input slot poisoned")
                            .take()
                            .expect("each index claimed once");
                        let result = f(&mut state, input);
                        *slots[i].lock().expect("result slot poisoned") = Some(result);
                    }
                });
            }
        });
        slots
            .into_iter()
            .map(|m| {
                m.into_inner()
                    .expect("result slot poisoned")
                    .expect("scope joined, every slot filled")
            })
            .collect()
    }

    /// Runs every configuration to completion; `results[i]` corresponds to
    /// `configs[i]`. Each worker reuses a [`RunArena`] across its runs, so
    /// back-to-back sweep points recycle their big allocations.
    pub fn run_sims(&self, configs: Vec<SimConfig>) -> Vec<RunMetrics> {
        self.map_with(configs, RunArena::new, |arena, cfg| {
            HostSim::run_in(cfg, arena)
        })
    }

    /// Sweep helper for the common figure shape: the cartesian product of
    /// `points × modes`, built by `build`, run in parallel, returned as
    /// `(point, mode, metrics)` rows in sweep order (points outer, modes
    /// inner — the order every figure prints).
    pub fn run_grid<P: Copy + Send>(
        &self,
        points: &[P],
        modes: &[ProtectionMode],
        build: impl Fn(P, ProtectionMode) -> SimConfig,
    ) -> Vec<(P, ProtectionMode, RunMetrics)> {
        let mut keys = Vec::with_capacity(points.len() * modes.len());
        let mut configs = Vec::with_capacity(keys.capacity());
        for &p in points {
            for &mode in modes {
                keys.push((p, mode));
                configs.push(build(p, mode));
            }
        }
        let metrics = self.run_sims(configs);
        keys.into_iter()
            .zip(metrics)
            .map(|((p, mode), m)| (p, mode, m))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_submission_order() {
        let runner = SweepRunner::new(8);
        // Reverse-sorted workloads: the longest-running inputs are claimed
        // first, so completion order is roughly the reverse of submission
        // order — the slots must still come back in submission order.
        let inputs: Vec<u64> = (0..64).rev().collect();
        let out = runner.map(inputs.clone(), |x| {
            std::thread::sleep(std::time::Duration::from_micros(x * 10));
            x * 2
        });
        assert_eq!(out, inputs.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn sequential_and_parallel_agree() {
        let f = |x: u64| x.wrapping_mul(0x9E3779B9).rotate_left(13);
        let inputs: Vec<u64> = (0..100).collect();
        let seq = SweepRunner::new(1).map(inputs.clone(), f);
        let par = SweepRunner::new(6).map(inputs, f);
        assert_eq!(seq, par);
    }

    #[test]
    fn jobs_clamped_to_one() {
        assert_eq!(SweepRunner::new(0).jobs(), 1);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let runner = SweepRunner::new(4);
        let empty: Vec<u32> = runner.map(Vec::new(), |x| x);
        assert!(empty.is_empty());
        assert_eq!(runner.map(vec![7u32], |x| x + 1), vec![8]);
    }

    #[test]
    #[should_panic(expected = "scoped thread panicked")]
    fn worker_panics_propagate() {
        let runner = SweepRunner::new(4);
        let _ = runner.map(vec![1, 2, 3, 4, 5, 6], |x| {
            if x == 5 {
                panic!("sweep point exploded");
            }
            x
        });
    }

    #[test]
    fn grid_rows_follow_sweep_order() {
        use fns_core::ProtectionMode;
        let runner = SweepRunner::new(2);
        // Abuse run_grid's ordering contract with a cheap build: tiny sims.
        let modes = [ProtectionMode::IommuOff, ProtectionMode::FastAndSafe];
        let rows = runner.run_grid(&[2u32, 3], &modes, |flows, mode| {
            let mut cfg = fns_apps::iperf_config(mode, flows, 64);
            cfg.warmup = 200_000;
            cfg.measure = 500_000;
            cfg.aging_factor = 0.0;
            cfg
        });
        let shape: Vec<(u32, ProtectionMode)> = rows.iter().map(|(p, m, _)| (*p, *m)).collect();
        assert_eq!(
            shape,
            vec![
                (2, ProtectionMode::IommuOff),
                (2, ProtectionMode::FastAndSafe),
                (3, ProtectionMode::IommuOff),
                (3, ProtectionMode::FastAndSafe),
            ]
        );
    }
}
