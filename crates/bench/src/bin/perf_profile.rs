//! Profiling companion to `perf_smoke`: pins ONE figure-shaped sweep in a
//! tight sequential loop so a sampling profiler (`gprofng collect app`,
//! `perf record`) sees steady-state simulator cost instead of basket
//! setup, and reports the construction-vs-event-loop wall split that
//! whole-basket numbers hide. Each iteration is one sweep in a fresh
//! `RunArena`, as a figure binary runs it, so construction ages the
//! allocator once per distinct aging key per sweep.
//!
//! Usage: `perf_profile [fig2|fig7|fig8|fig11a] [iterations]`
//! (defaults: fig2, 10 iterations)

use std::time::Instant;

use fns_apps::{iperf_config, redis_config};
use fns_core::{HostSim, ProtectionMode, RunArena, SimConfig};

/// Same shortened windows as `perf_smoke` so profiles match the benchmark.
const SMOKE_WARMUP_NS: u64 = 5_000_000;
const SMOKE_MEASURE_NS: u64 = 10_000_000;

fn smoke(mut cfg: SimConfig) -> SimConfig {
    cfg.warmup = SMOKE_WARMUP_NS;
    cfg.measure = SMOKE_MEASURE_NS;
    cfg
}

/// One figure's config list, shaped exactly like `perf_smoke`'s basket.
fn figure(name: &str) -> Vec<SimConfig> {
    let headline = [
        ProtectionMode::IommuOff,
        ProtectionMode::LinuxStrict,
        ProtectionMode::FastAndSafe,
    ];
    let mut configs = Vec::new();
    match name {
        "fig2" => {
            for flows in [5u32, 10, 20, 40] {
                for mode in [ProtectionMode::IommuOff, ProtectionMode::LinuxStrict] {
                    configs.push(smoke(iperf_config(mode, flows, 256)));
                }
            }
        }
        "fig7" => {
            for flows in [5u32, 10, 20, 40] {
                for mode in headline {
                    configs.push(smoke(iperf_config(mode, flows, 256)));
                }
            }
        }
        "fig8" => {
            for ring in [256u32, 512, 1024, 2048] {
                for mode in headline {
                    configs.push(smoke(iperf_config(mode, 5, ring)));
                }
            }
        }
        "fig11a" => {
            for value in [4u64 << 10, 8 << 10, 32 << 10, 128 << 10] {
                for mode in headline {
                    configs.push(smoke(redis_config(mode, value)));
                }
            }
        }
        other => panic!("unknown figure {other:?} (want fig2|fig7|fig8|fig11a)"),
    }
    configs
}

fn main() {
    let mut args = std::env::args().skip(1);
    let fig = args.next().unwrap_or_else(|| "fig2".into());
    let iters: u32 = args.next().and_then(|v| v.parse().ok()).unwrap_or(10);
    let configs = figure(&fig);

    let mut init_ns: u128 = 0;
    let mut loop_ns: u128 = 0;
    let mut events: u64 = 0;
    let mut translations: u64 = 0;
    let mut aged_reuses: u64 = 0;
    for _ in 0..iters {
        let mut arena = RunArena::new();
        for cfg in &configs {
            let t = Instant::now();
            let sim = HostSim::new_in(*cfg, &mut arena);
            init_ns += t.elapsed().as_nanos();
            let t = Instant::now();
            let m = sim.run_salvaging(&mut arena);
            loop_ns += t.elapsed().as_nanos();
            events += m.events_processed;
            translations += m.iommu.translations;
        }
        aged_reuses += arena.aged_reuses();
    }
    let total = init_ns + loop_ns;
    println!(
        "{fig}: {iters} x {} runs   init {:>8.2} ms ({:>4.1}%)   event loop {:>8.2} ms ({:>4.1}%)",
        configs.len(),
        init_ns as f64 / 1e6,
        100.0 * init_ns as f64 / total as f64,
        loop_ns as f64 / 1e6,
        100.0 * loop_ns as f64 / total as f64,
    );
    println!(
        "   {:>7.2} ns/event overall   {:>7.2} ns/event loop-only   {:>7.2} ns/translation",
        total as f64 / events.max(1) as f64,
        loop_ns as f64 / events.max(1) as f64,
        total as f64 / translations.max(1) as f64,
    );
    println!(
        "   {} of {} constructions restored a kept aged state",
        aged_reuses,
        iters as usize * configs.len(),
    );
}
