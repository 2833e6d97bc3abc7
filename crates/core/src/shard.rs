//! Sharded sim time: deterministic intra-run parallelism.
//!
//! Sweep parallelism (`fns-harness::SweepRunner`) scales across *runs*;
//! a single run was still one thread, which caps the multi-tenant
//! topology far below the tens-of-thousands-of-flows regime the paper's
//! line-rate claim is about. This module splits one run into independent
//! **shards** — per protection domain (NIC) when the topology has several,
//! falling back to per flow-group on single-NIC shapes — and advances
//! them in bounded sim-time **epochs** on worker threads, merging
//! deterministically at every epoch barrier.
//!
//! # Determinism contract
//!
//! `shards: 1`, `2`, and `4` produce **byte-identical** [`RunMetrics`]
//! (fault logs, traces, and audit reports included); the knob only caps
//! how many worker threads advance shards concurrently. Three design
//! rules make that hold:
//!
//! 1. **The partition is a pure function of the config.** [`plan_shards`]
//!    derives one sub-[`SimConfig`] per shard from the topology and core
//!    count alone — `shards` never appears in it. Each sub-sim is the
//!    ordinary single-threaded [`HostSim`], bit-deterministic on its own.
//! 2. **Shards advance in lockstep epochs on an absolute grid.** The
//!    coordinator broadcasts `Advance { to }` targets at multiples of
//!    `shard_epoch_ns`, so `step_until(a); step_until(b)` composes to
//!    exactly `step_until(b)` for any intermediate `a` — checkpoint
//!    grids and the epoch grid commute.
//! 3. **Cross-shard effects cross only at barriers, in canonical shard
//!    order.** Each shard drains an epoch digest (DMA bytes +
//!    invalidation-queue entries) at the barrier; the coordinator sums
//!    them and hands every shard its siblings' total as *ambient* memory
//!    traffic ([`HostSim::absorb_ambient`]) before the next epoch. The
//!    exchange reads and writes the same values no matter how many
//!    workers carried the shards there.
//!
//! The ambient coupling is deliberately latency-only: sibling traffic
//! inflates a shard's modelled memory utilization (and therefore its
//! page-walk latency) one epoch later, but never touches translation
//! state, so the safety oracle's per-shard view stays exact. See
//! DESIGN.md §16 for the full argument.

use std::sync::mpsc;
use std::thread::JoinHandle;

use fns_net::packet::{rss_queue, FlowId};
use fns_sim::time::Nanos;
use fns_snap::{SnapError, SnapReader, SnapWriter};

use crate::config::{SimConfig, Workload};
use crate::metrics::RunMetrics;
use crate::sim::{config_fingerprint, HostSim, RunArena};

/// One shard of a partitioned run: the sub-simulation's config plus the
/// local→global protection-domain mapping the metrics merge scatters
/// through.
#[derive(Debug, Clone)]
pub struct ShardSpec {
    /// The shard's own single-threaded simulation config (`shards: 0`).
    pub cfg: SimConfig,
    /// `domain_map[local_domain] == global_domain` for tenant
    /// attribution in the merged per-domain counters.
    pub domain_map: Vec<usize>,
}

/// SplitMix64-style seed fork so sibling shards draw from unrelated RNG
/// streams while staying a pure function of (outer seed, shard index).
fn fork_seed(seed: u64, shard: u64) -> u64 {
    let mut z = seed ^ shard.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Splits `total` into `parts` contiguous chunks, front-loading the
/// remainder: chunk `i` gets `total/parts + (i < total%parts)`.
fn chunk(total: usize, parts: usize, i: usize) -> usize {
    total / parts + usize::from(i < total % parts)
}

/// Derives the shard partition for `cfg`: one shard per NIC when the
/// topology has two or more (storage device `s` rides with NIC
/// `s % nics`), otherwise one flow-group shard per core (storage all on
/// group 0). Pure in the config — `cfg.shards` is *not* consulted — so
/// every shard count sees the identical partition.
pub fn plan_shards(cfg: &SimConfig) -> Vec<ShardSpec> {
    let topo = cfg.topology;
    let nics = topo.nics.max(1) as usize;
    if nics >= 2 {
        plan_per_nic(cfg, nics)
    } else {
        plan_per_flow_group(cfg)
    }
}

/// Multi-NIC partition: shard `d` owns NIC `d`'s queues, the flows RSS
/// steers to them, a proportional core slice, and every storage device
/// `s` with `s % nics == d`.
fn plan_per_nic(cfg: &SimConfig, nics: usize) -> Vec<ShardSpec> {
    let topo = cfg.topology;
    let rings = topo.rings();
    let queues = topo.queues_per_nic.max(1) as usize;
    // Flows land on the NIC owning their RSS ring; the SplitMix64 spread
    // keeps the per-shard counts within a small factor of the mean
    // (pinned statistically by `rss_balance.rs`).
    let mut flows_of = vec![0u32; nics];
    for f in 0..cfg.flows {
        flows_of[rss_queue(FlowId(f), rings) / queues] += 1;
    }
    let tx_flows = match cfg.workload {
        Workload::Bidirectional { tx_flows } => tx_flows as usize,
        _ => 0,
    };
    (0..nics)
        .map(|d| {
            let storage: Vec<usize> = (0..topo.storage_devices as usize)
                .filter(|s| s % nics == d)
                .collect();
            let mut sub = *cfg;
            sub.shards = 0;
            sub.seed = fork_seed(cfg.seed, d as u64);
            sub.cores = chunk(cfg.cores, nics, d).max(1);
            sub.flows = flows_of[d];
            sub.topology.nics = 1;
            sub.topology.storage_devices = storage.len() as u16;
            // Sub-sims re-derive their domain count from their own
            // topology; an outer override is already folded into
            // `total_domains` by the merge.
            sub.iommu.domains = 0;
            if let Workload::Bidirectional {
                tx_flows: ref mut t,
            } = sub.workload
            {
                *t = chunk(tx_flows, nics, d) as u32;
            }
            let mut domain_map = vec![d];
            domain_map.extend(storage.iter().map(|s| nics + s));
            ShardSpec {
                cfg: sub,
                domain_map,
            }
        })
        .collect()
}

/// Single-NIC fallback: one flow-group shard per core. Flow `f` joins
/// group `f % cores` on the legacy shape (matching the monolithic
/// round-robin homing) and `rss_queue(f, rings) % cores` when the one
/// NIC has multiple queues; storage devices all ride with group 0.
fn plan_per_flow_group(cfg: &SimConfig) -> Vec<ShardSpec> {
    let topo = cfg.topology;
    let groups = cfg.cores.max(1);
    let rings = topo.rings();
    let single = topo.is_single();
    let mut flows_of = vec![0u32; groups];
    for f in 0..cfg.flows {
        let g = if single {
            f as usize % groups
        } else {
            rss_queue(FlowId(f), rings) % groups
        };
        flows_of[g] += 1;
    }
    let tx_flows = match cfg.workload {
        Workload::Bidirectional { tx_flows } => tx_flows as usize,
        _ => 0,
    };
    (0..groups)
        .map(|g| {
            let mut sub = *cfg;
            sub.shards = 0;
            sub.seed = fork_seed(cfg.seed, g as u64);
            sub.cores = 1;
            sub.flows = flows_of[g];
            sub.iommu.domains = 0;
            if g != 0 {
                sub.topology.storage_devices = 0;
            }
            if let Workload::Bidirectional {
                tx_flows: ref mut t,
            } = sub.workload
            {
                *t = chunk(tx_flows, groups, g) as u32;
            }
            let mut domain_map = vec![0];
            if g == 0 {
                domain_map.extend((0..topo.storage_devices as usize).map(|s| 1 + s));
            }
            ShardSpec {
                cfg: sub,
                domain_map,
            }
        })
        .collect()
}

/// Coordinator→worker commands. Each worker owns a contiguous slice of
/// the shard list; per-shard payloads are in that slice's order.
enum Cmd {
    /// Advance every owned shard to sim time `to`. `digest` is set only
    /// when `to` lies on the global epoch grid — the digest *drains*
    /// per-shard marks, so draining at an intermediate target would
    /// silently swallow traffic the siblings were owed.
    Advance { to: Nanos, digest: bool },
    /// Fold sibling ambient totals (per owned shard) into the memory
    /// model before the next epoch.
    Apply { ambient: Vec<(u64, u64)> },
    /// Serialize every owned shard.
    Snapshot,
    /// Report watchdog/violation status across owned shards.
    Status,
    /// Finalize every owned shard and exit the worker loop.
    Collect,
}

enum Reply {
    Built(Result<(), SnapError>),
    Digests(Vec<(u64, u64)>),
    Applied,
    Snapshots(Vec<Vec<u8>>),
    Status { aborted: bool, violations: u64 },
    Metrics(Vec<RunMetrics>),
}

/// Worker main loop. The sub-sims are constructed (or restored) *inside*
/// the thread — [`HostSim`] holds `Rc`-shared trace/observer/oracle
/// handles and is deliberately not `Send` — and live here for the whole
/// run; the coordinator only ever speaks to them over the channel.
fn worker_main(
    cfgs: Vec<SimConfig>,
    blobs: Option<Vec<Vec<u8>>>,
    rx: mpsc::Receiver<Cmd>,
    tx: mpsc::Sender<Reply>,
) {
    let mut sims: Vec<HostSim> = Vec::with_capacity(cfgs.len());
    let built = match blobs {
        Some(blobs) => cfgs
            .into_iter()
            .zip(blobs)
            .try_for_each(|(cfg, blob)| HostSim::restore_planned(cfg, &blob).map(|s| sims.push(s))),
        None => {
            let mut arena = RunArena::new();
            for cfg in cfgs {
                sims.push(HostSim::new_in(cfg, &mut arena));
            }
            Ok(())
        }
    };
    let failed = built.is_err();
    if tx.send(Reply::Built(built)).is_err() || failed {
        return;
    }
    while let Ok(cmd) = rx.recv() {
        let reply = match cmd {
            Cmd::Advance { to, digest } => {
                let mut digests = Vec::new();
                for sim in &mut sims {
                    sim.step_until(to);
                    if digest {
                        digests.push(sim.epoch_digest());
                    }
                }
                Reply::Digests(digests)
            }
            Cmd::Apply { ambient } => {
                for (sim, (dma, inv)) in sims.iter_mut().zip(ambient) {
                    sim.absorb_ambient(dma, inv);
                }
                Reply::Applied
            }
            Cmd::Snapshot => Reply::Snapshots(sims.iter_mut().map(HostSim::snapshot).collect()),
            Cmd::Status => Reply::Status {
                aborted: sims.iter().any(HostSim::watchdog_aborted),
                violations: sims.iter().map(HostSim::audit_violations).sum(),
            },
            Cmd::Collect => {
                let metrics = sims.drain(..).map(HostSim::finish).collect();
                let _ = tx.send(Reply::Metrics(metrics));
                return;
            }
        };
        if tx.send(reply).is_err() {
            return;
        }
    }
}

/// Handle to one worker thread plus the channel pair that drives it.
struct Worker {
    tx: Option<mpsc::Sender<Cmd>>,
    rx: mpsc::Receiver<Reply>,
    handle: Option<JoinHandle<()>>,
    /// Shards this worker owns (its contiguous slice length).
    shards: usize,
}

impl Worker {
    fn send(&self, cmd: Cmd) {
        // A dead worker surfaces on the next `recv` as a joined panic;
        // the send itself is best-effort.
        let _ = self.tx.as_ref().expect("worker channel open").send(cmd);
    }

    fn recv(&mut self) -> Reply {
        match self.rx.recv() {
            Ok(reply) => reply,
            Err(_) => {
                let handle = self.handle.take().expect("worker already joined");
                match handle.join() {
                    Err(payload) => std::panic::resume_unwind(payload),
                    Ok(()) => panic!("shard worker exited without replying"),
                }
            }
        }
    }
}

impl Drop for Worker {
    fn drop(&mut self) {
        // Closing the command channel ends the worker loop; join so no
        // thread outlives the sim it belongs to.
        self.tx.take();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// The sharded engine: drives [`plan_shards`]' sub-simulations in
/// lockstep epochs across worker threads and merges their results into
/// one [`RunMetrics`] via [`RunMetrics::merge_shards`].
pub struct ShardedSim {
    cfg: SimConfig,
    domain_maps: Vec<Vec<usize>>,
    total_domains: usize,
    workers: Vec<Worker>,
    now: Nanos,
    epoch: Nanos,
}

impl ShardedSim {
    /// Builds a fresh sharded run. Requires `cfg.shards >= 1` (0 selects
    /// the monolithic engine — see [`Engine`]).
    pub fn new(cfg: SimConfig) -> Self {
        Self::build(cfg, None, 0).expect("fresh shard construction cannot fail")
    }

    /// Restores a run checkpointed by [`ShardedSim::snapshot`]. The
    /// worker count may differ from the snapshotting run's — the
    /// fingerprint canonicalizes `shards`, which never affects state. A
    /// config [`SimConfig::validate`] refuses is refused with
    /// [`SnapError::InvalidConfig`]; the per-shard configs planned from it
    /// are not re-validated (a shard may own no flows).
    pub fn restore(cfg: SimConfig, bytes: &[u8]) -> Result<Self, SnapError> {
        cfg.validate()
            .map_err(|e| SnapError::InvalidConfig { reason: e.0 })?;
        let mut r = SnapReader::new(bytes)?;
        if r.u64()? != Self::fingerprint(&cfg) {
            return Err(SnapError::ConfigMismatch { what: "sim config" });
        }
        let now = r.u64()?;
        let n = r.seq()?;
        if n != plan_shards(&cfg).len() {
            return Err(SnapError::ConfigMismatch {
                what: "shard partition",
            });
        }
        let mut blobs = Vec::with_capacity(n);
        for _ in 0..n {
            blobs.push(r.bytes()?.to_vec());
        }
        r.done()?;
        Self::build(cfg, Some(blobs), now)
    }

    /// Fingerprint with `shards` canonicalized: the worker-thread cap is
    /// the one config field with no behavioral footprint, so checkpoints
    /// stay portable across `--shards` values.
    fn fingerprint(cfg: &SimConfig) -> u64 {
        let mut canon = *cfg;
        canon.shards = 1;
        config_fingerprint(&canon)
    }

    fn build(cfg: SimConfig, blobs: Option<Vec<Vec<u8>>>, now: Nanos) -> Result<Self, SnapError> {
        assert!(
            cfg.shards >= 1,
            "ShardedSim requires shards >= 1; 0 is the monolithic engine"
        );
        let specs = plan_shards(&cfg);
        let n = specs.len();
        let domain_maps: Vec<Vec<usize>> = specs.iter().map(|s| s.domain_map.clone()).collect();
        let total_domains = cfg.iommu.domains.max(cfg.topology.domains()) as usize;
        let worker_count = cfg.shards.min(n).max(1);
        let mut spec_iter = specs.into_iter();
        let mut blob_iter = blobs.map(Vec::into_iter);
        let mut workers = Vec::with_capacity(worker_count);
        for w in 0..worker_count {
            let count = chunk(n, worker_count, w);
            let cfgs: Vec<SimConfig> = spec_iter.by_ref().take(count).map(|s| s.cfg).collect();
            let wblobs = blob_iter
                .as_mut()
                .map(|it| it.by_ref().take(count).collect());
            let (cmd_tx, cmd_rx) = mpsc::channel();
            let (reply_tx, reply_rx) = mpsc::channel();
            let handle = std::thread::Builder::new()
                .name(format!("fns-shard-{w}"))
                .spawn(move || worker_main(cfgs, wblobs, cmd_rx, reply_tx))
                .expect("spawn shard worker");
            workers.push(Worker {
                tx: Some(cmd_tx),
                rx: reply_rx,
                handle: Some(handle),
                shards: count,
            });
        }
        let mut sim = Self {
            epoch: cfg.shard_epoch_ns.max(1),
            cfg,
            domain_maps,
            total_domains,
            workers,
            now,
        };
        for i in 0..sim.workers.len() {
            match sim.workers[i].recv() {
                Reply::Built(result) => result?,
                _ => unreachable!("worker's first reply is Built"),
            }
        }
        Ok(sim)
    }

    /// Shards in the partition (fixed by the config, not the thread cap).
    pub fn shard_count(&self) -> usize {
        self.workers.iter().map(|w| w.shards).sum()
    }

    /// Current sim time (last barrier or step target).
    pub fn now(&self) -> Nanos {
        self.now
    }

    /// The outer run configuration.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Advances all shards to time `t`, epoch barrier by epoch barrier.
    /// Targets snap to the absolute `shard_epoch_ns` grid, so any
    /// composition of intermediate targets replays the identical
    /// barrier/exchange sequence.
    pub fn step_until(&mut self, t: Nanos) {
        while self.now < t {
            let barrier = ((self.now / self.epoch + 1) * self.epoch).min(t);
            let on_grid = barrier.is_multiple_of(self.epoch);
            for w in &self.workers {
                w.send(Cmd::Advance {
                    to: barrier,
                    digest: on_grid,
                });
            }
            let mut digests: Vec<(u64, u64)> = Vec::with_capacity(self.shard_count());
            for i in 0..self.workers.len() {
                match self.workers[i].recv() {
                    Reply::Digests(d) => digests.extend(d),
                    _ => unreachable!("Advance replies Digests"),
                }
            }
            self.now = barrier;
            if on_grid {
                self.exchange(&digests);
            }
        }
    }

    /// The barrier exchange: every shard absorbs the *other* shards'
    /// epoch digest as ambient memory traffic for the next epoch.
    fn exchange(&mut self, digests: &[(u64, u64)]) {
        let total = digests
            .iter()
            .fold((0u64, 0u64), |acc, d| (acc.0 + d.0, acc.1 + d.1));
        if total == (0, 0) {
            return;
        }
        let mut offset = 0;
        for w in &self.workers {
            let ambient = digests[offset..offset + w.shards]
                .iter()
                .map(|d| (total.0 - d.0, total.1 - d.1))
                .collect();
            w.send(Cmd::Apply { ambient });
            offset += w.shards;
        }
        for i in 0..self.workers.len() {
            match self.workers[i].recv() {
                Reply::Applied => {}
                _ => unreachable!("Apply replies Applied"),
            }
        }
    }

    /// Serializes the full sharded state. Call at an epoch barrier (any
    /// `step_until` target is one) so no digest is mid-flight.
    pub fn snapshot(&mut self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.u64(Self::fingerprint(&self.cfg));
        w.u64(self.now);
        w.seq(self.shard_count());
        for w_idx in 0..self.workers.len() {
            self.workers[w_idx].send(Cmd::Snapshot);
            match self.workers[w_idx].recv() {
                Reply::Snapshots(blobs) => {
                    for blob in blobs {
                        w.bytes(&blob);
                    }
                }
                _ => unreachable!("Snapshot replies Snapshots"),
            }
        }
        w.finish()
    }

    fn status(&mut self) -> (bool, u64) {
        for w in &self.workers {
            w.send(Cmd::Status);
        }
        let mut aborted = false;
        let mut violations = 0;
        for i in 0..self.workers.len() {
            match self.workers[i].recv() {
                Reply::Status {
                    aborted: a,
                    violations: v,
                } => {
                    aborted |= a;
                    violations += v;
                }
                _ => unreachable!("Status replies Status"),
            }
        }
        (aborted, violations)
    }

    /// Whether any shard's degradation watchdog aborted its run.
    pub fn watchdog_aborted(&mut self) -> bool {
        self.status().0
    }

    /// Safety-oracle violations across all shards so far.
    pub fn audit_violations(&mut self) -> u64 {
        self.status().1
    }

    /// Finalizes every shard and merges the per-shard results. The
    /// workers exit afterwards; this is terminal.
    pub fn finish(&mut self) -> RunMetrics {
        for w in &self.workers {
            w.send(Cmd::Collect);
        }
        let mut parts = Vec::with_capacity(self.shard_count());
        for i in 0..self.workers.len() {
            match self.workers[i].recv() {
                Reply::Metrics(m) => parts.extend(m),
                _ => unreachable!("Collect replies Metrics"),
            }
        }
        RunMetrics::merge_shards(parts, &self.domain_maps, self.total_domains)
    }

    /// Runs to the configured end time and merges the results.
    pub fn run(mut self) -> RunMetrics {
        let end = self.cfg.end_time();
        self.step_until(end);
        self.finish()
    }
}

/// Engine dispatch: `cfg.shards == 0` (the default) runs the legacy
/// monolithic [`HostSim`] event loop, bit-identical to every prior
/// release; `cfg.shards >= 1` engages the sharded engine. The two are
/// different *semantics* (the partition forks per-shard seeds), so the
/// determinism contract is shards-N ≡ shards-M, never sharded ≡
/// monolithic.
pub enum Engine {
    /// The single-threaded legacy event loop.
    Host(Box<HostSim>),
    /// The epoch-barrier sharded engine.
    Sharded(Box<ShardedSim>),
}

impl From<HostSim> for Engine {
    fn from(sim: HostSim) -> Self {
        Engine::Host(Box::new(sim))
    }
}

impl Engine {
    /// Builds the engine `cfg.shards` selects.
    pub fn new(cfg: SimConfig) -> Self {
        if cfg.shards >= 1 {
            Engine::Sharded(Box::new(ShardedSim::new(cfg)))
        } else {
            Engine::Host(Box::new(HostSim::new(cfg)))
        }
    }

    /// Restores whichever engine `cfg.shards` selects from `bytes`.
    /// Snapshot formats are engine-specific: a checkpoint taken at
    /// `--shards N` restores at any `--shards M >= 1`, but not into the
    /// monolithic engine (and vice versa).
    pub fn restore(cfg: SimConfig, bytes: &[u8]) -> Result<Self, SnapError> {
        if cfg.shards >= 1 {
            Ok(Engine::Sharded(Box::new(ShardedSim::restore(cfg, bytes)?)))
        } else {
            Ok(Engine::Host(Box::new(HostSim::restore(cfg, bytes)?)))
        }
    }

    /// Current sim time.
    pub fn now(&self) -> Nanos {
        match self {
            Engine::Host(sim) => sim.now(),
            Engine::Sharded(sim) => sim.now(),
        }
    }

    /// The run configuration.
    pub fn config(&self) -> &SimConfig {
        match self {
            Engine::Host(sim) => sim.config(),
            Engine::Sharded(sim) => sim.config(),
        }
    }

    /// Advances to sim time `t`.
    pub fn step_until(&mut self, t: Nanos) {
        match self {
            Engine::Host(sim) => sim.step_until(t),
            Engine::Sharded(sim) => sim.step_until(t),
        }
    }

    /// Serializes the full engine state.
    pub fn snapshot(&mut self) -> Vec<u8> {
        match self {
            Engine::Host(sim) => sim.snapshot(),
            Engine::Sharded(sim) => sim.snapshot(),
        }
    }

    /// Whether a degradation watchdog aborted the run.
    pub fn watchdog_aborted(&mut self) -> bool {
        match self {
            Engine::Host(sim) => sim.watchdog_aborted(),
            Engine::Sharded(sim) => sim.watchdog_aborted(),
        }
    }

    /// Safety-oracle violations so far.
    pub fn audit_violations(&mut self) -> u64 {
        match self {
            Engine::Host(sim) => sim.audit_violations(),
            Engine::Sharded(sim) => sim.audit_violations(),
        }
    }

    /// Finalizes the run at the configured end time.
    pub fn finish(self) -> RunMetrics {
        match self {
            Engine::Host(sim) => sim.finish(),
            Engine::Sharded(mut sim) => sim.finish(),
        }
    }

    /// Runs to completion.
    pub fn run(self) -> RunMetrics {
        match self {
            Engine::Host(sim) => sim.run(),
            Engine::Sharded(sim) => sim.run(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_is_pure_in_the_thread_cap() {
        let mut cfg = SimConfig::paper_default(crate::ProtectionMode::FastAndSafe);
        cfg.topology.nics = 4;
        cfg.topology.queues_per_nic = 2;
        cfg.topology.storage_devices = 3;
        cfg.cores = 8;
        cfg.flows = 128;
        cfg.shards = 1;
        let one = plan_shards(&cfg);
        cfg.shards = 4;
        let four = plan_shards(&cfg);
        assert_eq!(one.len(), four.len());
        for (a, b) in one.iter().zip(&four) {
            assert_eq!(format!("{:?}", a.cfg), format!("{:?}", b.cfg));
            assert_eq!(a.domain_map, b.domain_map);
        }
    }

    #[test]
    fn per_nic_partition_conserves_flows_cores_devices() {
        let mut cfg = SimConfig::paper_default(crate::ProtectionMode::FastAndSafe);
        cfg.topology.nics = 4;
        cfg.topology.queues_per_nic = 2;
        cfg.topology.storage_devices = 3;
        cfg.cores = 10;
        cfg.flows = 500;
        let specs = plan_shards(&cfg);
        assert_eq!(specs.len(), 4);
        assert_eq!(specs.iter().map(|s| s.cfg.flows).sum::<u32>(), 500);
        assert_eq!(specs.iter().map(|s| s.cfg.cores).sum::<usize>(), 10);
        assert_eq!(
            specs
                .iter()
                .map(|s| s.cfg.topology.storage_devices)
                .sum::<u16>(),
            3
        );
        // Every global domain is claimed exactly once across the maps.
        let mut seen: Vec<usize> = specs.iter().flat_map(|s| s.domain_map.clone()).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..7).collect::<Vec<_>>());
        // Forked seeds differ per shard.
        let seeds: std::collections::BTreeSet<u64> = specs.iter().map(|s| s.cfg.seed).collect();
        assert_eq!(seeds.len(), 4);
    }

    #[test]
    fn single_nic_fallback_groups_by_core() {
        let mut cfg = SimConfig::paper_default(crate::ProtectionMode::FastAndSafe);
        cfg.cores = 4;
        cfg.flows = 9;
        cfg.topology.storage_devices = 0;
        let specs = plan_shards(&cfg);
        assert_eq!(specs.len(), 4);
        // Legacy round-robin: flows 0,4,8 → group 0; 1,5 → 1; ...
        assert_eq!(
            specs.iter().map(|s| s.cfg.flows).collect::<Vec<_>>(),
            vec![3, 2, 2, 2]
        );
        for s in &specs {
            assert_eq!(s.cfg.cores, 1);
            assert_eq!(s.domain_map, vec![0]);
        }
    }

    #[test]
    fn sharded_run_is_identical_at_every_thread_cap() {
        let mut cfg = SimConfig::paper_default(crate::ProtectionMode::FastAndSafe);
        cfg.cores = 2;
        cfg.flows = 4;
        cfg.warmup = 200_000;
        cfg.measure = 500_000;
        cfg.shards = 1;
        let a = ShardedSim::new(cfg).run();
        cfg.shards = 2;
        let b = ShardedSim::new(cfg).run();
        assert_eq!(a, b);
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn snapshot_restore_resumes_identically() {
        let mut cfg = SimConfig::paper_default(crate::ProtectionMode::FastAndSafe);
        cfg.cores = 2;
        cfg.flows = 4;
        cfg.warmup = 200_000;
        cfg.measure = 500_000;
        cfg.shards = 2;
        let golden = ShardedSim::new(cfg).run();
        let mut sim = ShardedSim::new(cfg);
        sim.step_until(300_000);
        let snap = sim.snapshot();
        drop(sim);
        // Resume under a different thread cap: state is cap-independent.
        let mut resumed_cfg = cfg;
        resumed_cfg.shards = 1;
        let mut resumed = ShardedSim::restore(resumed_cfg, &snap).expect("restore");
        assert_eq!(resumed.now(), 300_000);
        resumed.step_until(cfg.end_time());
        assert_eq!(resumed.finish(), golden);
    }

    #[test]
    fn shards_without_flows_resume_identically() {
        // Two flows on four cores leave two single-core shards with no
        // flows; the validated outer config must still resume.
        let mut cfg = SimConfig::paper_default(crate::ProtectionMode::FastAndSafe);
        cfg.cores = 4;
        cfg.flows = 2;
        cfg.warmup = 200_000;
        cfg.measure = 500_000;
        cfg.shards = 1;
        assert!(plan_shards(&cfg).iter().any(|s| s.cfg.flows == 0));
        let golden = ShardedSim::new(cfg).run();
        let mut sim = Engine::new(cfg);
        sim.step_until(300_000);
        let snap = sim.snapshot();
        drop(sim);
        let mut resumed = Engine::restore(cfg, &snap).expect("restore");
        assert_eq!(resumed.now(), 300_000);
        resumed.step_until(cfg.end_time());
        assert_eq!(resumed.finish(), golden);
        // The config the caller supplies is still validated.
        let mut invalid = cfg;
        invalid.cores = 0;
        assert!(matches!(
            Engine::restore(invalid, &snap),
            Err(SnapError::InvalidConfig { .. })
        ));
    }
}
