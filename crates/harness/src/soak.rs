//! Long-horizon soak plane: aging scenarios, auto-checkpointing, and
//! mid-soak violation bisects.
//!
//! A *soak* is an ordinary simulation run stretched far past the paper's
//! 60 ms figure windows, driven by a workload shaped to age the host:
//! sustained connection churn, IOVA-space fragmentation, or PT-page
//! reclaim storms ([`SOAK_SCENARIOS`]). Because those horizons are hours
//! of wall clock at full scale, the runner checkpoints the complete
//! engine state every `snapshot_every` sim-nanoseconds
//! ([`run_soak`]); a killed run resumes from the newest checkpoint with
//! bit-identical final metrics (`HostSim::restore` pins that), and a
//! degradation-watchdog abort surfaces the state at the abort boundary as
//! a replayable artifact instead of a dead process.
//!
//! When the safety oracle flags a violation deep into a soak, rerunning
//! from t=0 to debug it is exactly the cost the checkpoints exist to
//! avoid: [`bisect_violation`] replays each kept checkpoint forward
//! one interval to find the window where the violation count first grows,
//! and [`shrink_violation_window`] then bisects inside that interval down
//! to a replay a few microseconds long. The surviving
//! `(checkpoint, window)` pair is the soak-scale analogue of the ddmin
//! shrinker in [`crate::mbt`]: a minimal deterministic reproducer —
//! resumable via `fns-sim --resume` — where the model-level plane shrinks
//! op traces instead.

use fns_core::{HostSim, ProtectionMode, RunMetrics, SimConfig, WatchdogConfig};
use fns_sim::time::{Nanos, MICROS, MILLIS};

/// A named workload shaped to age the host over a long horizon.
pub struct SoakScenario {
    /// Stable CLI-facing name (`fns-sim --soak <name>`).
    pub name: &'static str,
    /// One-line description (shown by `--list-scenarios`).
    pub description: &'static str,
    /// Builds the soak config under `mode`: a 10-second default horizon
    /// (~150x the figure windows; scale further with `--measure-ms`),
    /// gauge probes on for time-series export, and the degradation
    /// watchdog armed.
    pub build: fn(ProtectionMode) -> SimConfig,
}

/// Default soak horizon: 10 sim-seconds.
const SOAK_MEASURE: Nanos = 10_000 * MILLIS;

/// Watchdog defaults for soak runs: check every millisecond, relieve a
/// wipe backlog past 256 epochs, flag an invalidation storm past 200k
/// invalidations per check interval, never abort (only unit tests
/// set `abort_after_degraded`; no `fns-sim` flag does).
fn soak_watchdog() -> WatchdogConfig {
    WatchdogConfig {
        enabled: true,
        check_interval_ns: MILLIS,
        max_wipe_backlog: 256,
        storm_invalidations: 200_000,
        abort_after_degraded: 0,
    }
}

/// Applies the common soak shaping to a figure-style config: long
/// horizon, gauge probes sampling every 100 us, watchdog armed, and the
/// flight recorder auto-armed so a watchdog abort deep into the soak
/// flushes the last events leading up to it (the crash ring is
/// mask-independent, so this adds no instrumented-tier cost).
fn soakify(mut cfg: SimConfig) -> SimConfig {
    cfg.measure = SOAK_MEASURE;
    cfg.probes.interval_ns = 100 * MICROS;
    cfg.probes.max_samples = 262_144;
    cfg.watchdog = soak_watchdog();
    cfg.observe.flight = true;
    cfg
}

/// Every registered soak scenario, in display order.
pub const SOAK_SCENARIOS: &[SoakScenario] = &[
    SoakScenario {
        name: "churn",
        description: "sustained connection churn: 32 depth-1 request/response connections",
        build: |mode| {
            // Depth-1 connections spend most of their life idle-active
            // cycling, so mappings churn constantly without any one flow
            // pinning the allocator into a steady state.
            let mut cfg = soakify(fns_apps::redis_config(mode, 1024));
            cfg.flows = 32;
            cfg.aging_factor = 2.0;
            cfg
        },
    },
    SoakScenario {
        name: "iova-frag",
        description: "IOVA fragmentation: 9 KB MTU multi-page allocations under heavy aging",
        build: |mode| {
            // 3-page allocations interleaved with aging holes fragment the
            // rcache spans; the exported fragmentation gauge tracks it.
            let mut cfg = soakify(fns_apps::iperf_config(mode, 8, 256));
            cfg.mtu = 9000;
            cfg.aging_factor = 4.0;
            cfg
        },
    },
    SoakScenario {
        name: "reclaim-storm",
        description: "PT-page reclaim storms: per-page descriptors, eager invalidation batches",
        build: |mode| {
            // Single-page descriptors maximize map/unmap (and, in the
            // Linux-strict family, leaf-PTcache wipe) rates; a small
            // deferred threshold keeps invalidation batches coming.
            let mut cfg = soakify(fns_apps::iperf_config(mode, 8, 256));
            cfg.pages_per_descriptor = 1;
            cfg.deferred_flush_threshold = 32;
            cfg.aging_factor = 3.0;
            cfg
        },
    },
];

/// Names of all registered soak scenarios, in display order.
pub fn soak_names() -> Vec<&'static str> {
    SOAK_SCENARIOS.iter().map(|s| s.name).collect()
}

/// Builds the soak config for `name` under `mode`, or `None` if no soak
/// scenario with that name is registered.
pub fn soak_config(name: &str, mode: ProtectionMode) -> Option<SimConfig> {
    SOAK_SCENARIOS
        .iter()
        .find(|s| s.name == name)
        .map(|s| (s.build)(mode))
}

/// One checkpoint: the full serialized engine state at a checkpoint
/// boundary.
pub struct Checkpoint {
    /// Sim time of the boundary this checkpoint was taken at.
    pub at: Nanos,
    /// `HostSim::snapshot` bytes — restore with `HostSim::restore` under
    /// the same config.
    pub bytes: Vec<u8>,
}

/// What a soak run produced.
pub struct SoakOutcome {
    /// Final run metrics. Bit-identical to an uncheckpointed run of the
    /// same config (checkpointing never perturbs the simulation).
    pub metrics: RunMetrics,
    /// If the degradation watchdog aborted the run: the state at the first
    /// checkpoint boundary past the abort, where the run stopped — the
    /// replayable artifact. `metrics` then covers only the completed part.
    pub aborted: Option<Checkpoint>,
}

/// Runs `sim` to its end time (or a watchdog abort), handing
/// `on_checkpoint` the snapshot taken at every `snapshot_every` boundary
/// before the end (none when `snapshot_every` is 0). A restored sim starts
/// mid-run and keeps to the grid of the run it was carved out of. The
/// caller decides what to keep: a CLI writes each checkpoint to disk as it
/// comes, so a killed run loses at most one interval.
///
/// Errs — with the named reason, never silently dropping state — when
/// checkpointing is requested for a config that cannot round-trip
/// through a snapshot (see `SimConfig::snapshot_ineligibility`).
pub fn run_soak(
    mut sim: HostSim,
    snapshot_every: Nanos,
    mut on_checkpoint: impl FnMut(Checkpoint),
) -> Result<SoakOutcome, &'static str> {
    if snapshot_every > 0 {
        if let Some(reason) = sim.config().snapshot_ineligibility() {
            return Err(reason);
        }
    }
    let end = sim.config().end_time();
    let mut aborted = None;
    let mut t = sim.now();
    loop {
        let next = t
            .checked_div(snapshot_every)
            .map_or(end, |n| ((n + 1) * snapshot_every).min(end));
        sim.step_until(next);
        t = next;
        if sim.watchdog_aborted() {
            // Checkpoint-then-abort: the state at the first boundary past
            // the abort is the artifact a human replays.
            aborted = Some(Checkpoint {
                at: t,
                bytes: sim.snapshot(),
            });
            break;
        }
        if t >= end {
            break;
        }
        on_checkpoint(Checkpoint {
            at: t,
            bytes: sim.snapshot(),
        });
    }
    Ok(SoakOutcome {
        metrics: sim.finish(),
        aborted,
    })
}

/// A replay window localizing a mid-soak oracle violation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ViolationWindow {
    /// Index into the checkpoint slice the replay starts from.
    pub index: usize,
    /// Replay start (the checkpoint's boundary).
    pub from: Nanos,
    /// Earliest replay end at which the violation count has grown.
    pub to: Nanos,
}

/// Finds the first checkpoint interval in which the safety oracle's
/// violation count grows, by restoring each checkpoint (oldest first) and
/// replaying it one interval forward.
///
/// Returns `None` when no interval reproduces growth — including when the
/// violation predates the oldest checkpoint given (its count is already
/// baked into every restore; keep older checkpoints and rerun).
pub fn bisect_violation(
    cfg: SimConfig,
    checkpoints: &[Checkpoint],
    end: Nanos,
) -> Option<ViolationWindow> {
    for (index, ck) in checkpoints.iter().enumerate() {
        let to = checkpoints.get(index + 1).map_or(end, |next| next.at);
        if to <= ck.at {
            continue;
        }
        let mut sim = HostSim::restore(cfg, &ck.bytes).ok()?;
        let before = sim.audit_violations();
        sim.step_until(to);
        if sim.audit_violations() > before {
            return Some(ViolationWindow {
                index,
                from: ck.at,
                to,
            });
        }
    }
    None
}

/// Shrinks a [`bisect_violation`] window to the smallest replay-from-the-
/// checkpoint that still reproduces violation growth, by binary search on
/// the replay end (the soak-scale counterpart of `mbt::shrink`'s ddmin).
/// Replays are deterministic, so the returned `to` is exact to
/// `resolution_ns` (min 1).
pub fn shrink_violation_window(
    cfg: SimConfig,
    checkpoint: &Checkpoint,
    window: ViolationWindow,
    resolution_ns: Nanos,
) -> ViolationWindow {
    let reproduces = |to: Nanos| -> bool {
        let Ok(mut sim) = HostSim::restore(cfg, &checkpoint.bytes) else {
            return false;
        };
        let before = sim.audit_violations();
        sim.step_until(to);
        sim.audit_violations() > before
    };
    let (mut lo, mut hi) = (window.from, window.to);
    while hi - lo > resolution_ns.max(1) {
        let mid = lo + (hi - lo) / 2;
        if reproduces(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    ViolationWindow { to: hi, ..window }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fns_core::Sabotage;

    /// A soak-shaped config small enough for a unit test.
    fn tiny_soak(mode: ProtectionMode) -> SimConfig {
        let mut cfg = fns_apps::iperf_config(mode, 2, 64);
        cfg.cores = 2;
        cfg.warmup = 500_000;
        cfg.measure = 2_000_000;
        cfg.aging_factor = 0.0;
        cfg.watchdog = soak_watchdog();
        cfg.watchdog.check_interval_ns = 100_000;
        cfg
    }

    #[test]
    fn soak_scenarios_are_well_formed() {
        let names = soak_names();
        for (i, a) in names.iter().enumerate() {
            for b in &names[i + 1..] {
                assert_ne!(a, b, "duplicate soak scenario name");
            }
        }
        for s in SOAK_SCENARIOS {
            let cfg = (s.build)(ProtectionMode::FastAndSafe);
            assert!(cfg.watchdog.enabled, "{}: watchdog off", s.name);
            assert!(cfg.probes.interval_ns > 0, "{}: probes off", s.name);
            assert!(cfg.observe.flight, "{}: flight recorder off", s.name);
            assert_eq!(
                cfg.snapshot_ineligibility(),
                None,
                "{}: not checkpointable",
                s.name
            );
        }
        assert!(soak_config("churn", ProtectionMode::LinuxStrict).is_some());
        assert!(soak_config("no-such-soak", ProtectionMode::LinuxStrict).is_none());
    }

    #[test]
    fn checkpointing_soak_matches_the_uninterrupted_run() {
        let cfg = tiny_soak(ProtectionMode::FastAndSafe);
        let golden = HostSim::new(cfg).run();
        let mut checkpoints = Vec::new();
        let outcome = run_soak(HostSim::new(cfg), 400_000, |ck| checkpoints.push(ck))
            .expect("eligible config");
        assert!(outcome.aborted.is_none());
        // Every 400 us boundary before the 2.5 ms end.
        let at: Vec<Nanos> = checkpoints.iter().map(|ck| ck.at).collect();
        assert_eq!(
            at,
            [400_000, 800_000, 1_200_000, 1_600_000, 2_000_000, 2_400_000]
        );
        assert_eq!(golden, outcome.metrics, "checkpointing perturbed the run");
        // And every checkpoint resumes to the same end state.
        for ck in &checkpoints {
            let resumed = HostSim::restore(cfg, &ck.bytes)
                .expect("own checkpoint restores")
                .run();
            assert_eq!(golden, resumed, "resume from t={} diverged", ck.at);
        }
    }

    #[test]
    fn checkpointing_refuses_fatal_audit_with_the_named_reason() {
        let mut cfg = tiny_soak(ProtectionMode::FastAndSafe);
        cfg.audit.enabled = true;
        cfg.audit.fatal = true;
        let err = run_soak(HostSim::new(cfg), 400_000, |_| {})
            .err()
            .expect("fatal audit must be rejected");
        assert!(err.contains("audit.fatal"), "unnamed reason: {err}");
        // Without checkpointing the same config is fine to soak.
        assert!(run_soak(HostSim::new(cfg), 0, |_| {}).is_ok());
    }

    #[test]
    fn watchdog_abort_yields_a_replayable_artifact() {
        let mut cfg = tiny_soak(ProtectionMode::LinuxDeferred);
        cfg.watchdog.storm_invalidations = 1; // every interval is a "storm"
        cfg.watchdog.abort_after_degraded = 2;
        let mut checkpoints = Vec::new();
        let outcome = run_soak(HostSim::new(cfg), 400_000, |ck| checkpoints.push(ck))
            .expect("eligible config");
        let artifact = outcome.aborted.expect("watchdog must abort");
        assert!(artifact.at < cfg.end_time());
        assert!(outcome.metrics.watchdog.aborted);
        // Regular checkpoints stop before the abort boundary.
        assert!(checkpoints.iter().all(|ck| ck.at < artifact.at));
        // The artifact replays: restore it and step forward.
        let mut sim = HostSim::restore(cfg, &artifact.bytes).expect("artifact restores");
        sim.step_until(artifact.at + 100_000);
    }

    #[test]
    fn bisect_localizes_a_seeded_mid_soak_violation() {
        let mut cfg = tiny_soak(ProtectionMode::LinuxStrict);
        cfg.audit.enabled = true;
        let mut sim = HostSim::new(cfg);
        // Seed a driver bug deep enough into the run to land past the
        // first checkpoint: drop one range invalidation mid-soak (the
        // 500th submission lands ~1.8 ms in for this config).
        sim.set_sabotage(Sabotage::SkipRangeInvalidation { nth: 500 });
        let mut checkpoints = Vec::new();
        let outcome = run_soak(sim, 250_000, |ck| checkpoints.push(ck)).expect("eligible config");
        assert!(
            outcome.metrics.audit.violations > 0,
            "sabotage produced no violation; tune nth"
        );
        // The restored runs re-execute the same sabotage (it serializes
        // with the driver), so replaying checkpoint intervals localizes
        // the first violation without rerunning from t=0.
        let window = bisect_violation(cfg, &checkpoints, cfg.end_time())
            .expect("violation postdates the oldest checkpoint");
        let shrunk = shrink_violation_window(cfg, &checkpoints[window.index], window, 1_000);
        assert!(shrunk.to <= window.to);
        assert!(shrunk.to > shrunk.from);
        // The shrunk window still reproduces from the checkpoint.
        let mut sim =
            HostSim::restore(cfg, &checkpoints[window.index].bytes).expect("checkpoint restores");
        let before = sim.audit_violations();
        sim.step_until(shrunk.to);
        assert!(sim.audit_violations() > before);
    }
}
