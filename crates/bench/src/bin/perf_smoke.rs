//! Simulator-performance smoke benchmark.
//!
//! Times a fixed basket of figure-shaped sweeps and writes, per figure,
//! construction and event-loop time, ns/event, ns/translation and the cost
//! of arming the full observability plane to `BENCH_simcore.json`
//! (override the path with `FNS_BENCH_OUT`).
//!
//! Each figure runs `FNS_BENCH_REPEATS` (default 5) interleaved rounds: a
//! bare sequential sweep, then the same sweep with every observability
//! tier armed. Every sweep starts from a fresh `RunArena`, as a figure
//! binary's does, and times `HostSim::new_in` apart from `HostSim::run`.
//! The JSON reports medians over the rounds, the spread between the
//! quartiles of the bare rounds, and the armed overhead.
//!
//! Times are this thread's CPU time, read with
//! `clock_gettime(CLOCK_THREAD_CPUTIME_ID)`, so time the scheduler hands to
//! other processes does not count. Where that clock cannot be read the
//! binary falls back to wall clock; the JSON's `timer` field says which was
//! used.
//!
//! The binary only measures. The basket's correctness properties are
//! pinned by `tests/golden_determinism.rs`, and the CI perf gate compares
//! this JSON between the head and the merge-base built on one runner.

use std::time::Instant;

use fns_apps::{iperf_config, redis_config};
use fns_core::{HostSim, ProtectionMode, RunArena, RunMetrics, SimConfig};
use fns_trace::{JsonWriter, ObserveConfig, RegMetric, RegistryReport, Span, SpanSet};

/// Shortened windows: the basket must finish in CI seconds, not minutes.
const SMOKE_WARMUP_NS: u64 = 5_000_000;
const SMOKE_MEASURE_NS: u64 = 10_000_000;

fn smoke(mut cfg: SimConfig) -> SimConfig {
    cfg.warmup = SMOKE_WARMUP_NS;
    cfg.measure = SMOKE_MEASURE_NS;
    cfg
}

/// The basket: one sweep per headline figure shape.
fn basket() -> Vec<(&'static str, Vec<SimConfig>)> {
    let headline = [
        ProtectionMode::IommuOff,
        ProtectionMode::LinuxStrict,
        ProtectionMode::FastAndSafe,
    ];
    let mut figures = Vec::new();

    let mut fig2 = Vec::new();
    for flows in [5u32, 10, 20, 40] {
        for mode in [ProtectionMode::IommuOff, ProtectionMode::LinuxStrict] {
            fig2.push(smoke(iperf_config(mode, flows, 256)));
        }
    }
    figures.push(("fig2_flow_sweep", fig2));

    let mut fig7 = Vec::new();
    for flows in [5u32, 10, 20, 40] {
        for mode in headline {
            fig7.push(smoke(iperf_config(mode, flows, 256)));
        }
    }
    figures.push(("fig7_flow_sweep", fig7));

    let mut fig8 = Vec::new();
    for ring in [256u32, 512, 1024, 2048] {
        for mode in headline {
            fig8.push(smoke(iperf_config(mode, 5, ring)));
        }
    }
    figures.push(("fig8_ring_sweep", fig8));

    let mut fig11a = Vec::new();
    for value in [4u64 << 10, 8 << 10, 32 << 10, 128 << 10] {
        for mode in headline {
            fig11a.push(smoke(redis_config(mode, value)));
        }
    }
    figures.push(("fig11a_redis_sweep", fig11a));

    figures
}

/// Thread CPU time from `clock_gettime(CLOCK_THREAD_CPUTIME_ID)`, or wall
/// clock where that clock cannot be read.
struct Clock {
    thread_cpu: bool,
    origin: Instant,
}

impl Clock {
    fn new() -> Self {
        Clock {
            thread_cpu: thread_cpu_ns().is_some(),
            origin: Instant::now(),
        }
    }

    fn name(&self) -> &'static str {
        if self.thread_cpu {
            "thread_cpu"
        } else {
            "wall"
        }
    }

    fn now_ns(&self) -> u64 {
        if self.thread_cpu {
            thread_cpu_ns().expect("the thread CPU clock was readable at start-up")
        } else {
            self.origin.elapsed().as_nanos() as u64
        }
    }
}

/// This thread's CPU time in nanoseconds, from libc's `clock_gettime`
/// (std links libc on Linux). Unlike `/proc/thread-self/schedstat`, which
/// advances once per scheduler tick (4 ms at 250 Hz), this clock reads the
/// running thread's accumulated time directly.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn thread_cpu_ns() -> Option<u64> {
    use std::ffi::c_int;

    /// `struct timespec` on 64-bit Linux: `time_t` and `long` are 64-bit.
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
    }
    const CLOCK_THREAD_CPUTIME_ID: c_int = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` only writes one `struct timespec` through
    // `tp`, which points to a live, aligned local of that layout, and
    // returns nonzero (writing nothing) for a clock it does not know.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    (rc == 0).then(|| ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64)
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn thread_cpu_ns() -> Option<u64> {
    None
}

/// One timed sweep: construction and event-loop time summed over its runs.
struct Sweep {
    setup_ns: u64,
    loop_ns: u64,
    metrics: Vec<RunMetrics>,
}

/// Runs `configs` one after another in a fresh arena.
fn sweep(clock: &Clock, configs: &[SimConfig]) -> Sweep {
    let mut arena = RunArena::new();
    let (mut setup_ns, mut loop_ns) = (0, 0);
    let mut metrics = Vec::with_capacity(configs.len());
    for &cfg in configs {
        let t0 = clock.now_ns();
        let sim = HostSim::new_in(cfg, &mut arena);
        let t1 = clock.now_ns();
        metrics.push(sim.run());
        let t2 = clock.now_ns();
        setup_ns += t1 - t0;
        loop_ns += t2 - t1;
    }
    Sweep {
        setup_ns,
        loop_ns,
        metrics,
    }
}

/// The `q`-quantile of `xs`, interpolated linearly between the two
/// nearest ranks of the sorted values.
fn quantile(xs: &[u64], q: f64) -> f64 {
    let mut sorted = xs.to_vec();
    sorted.sort_unstable();
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (sorted[pos.floor() as usize], sorted[pos.ceil() as usize]);
    lo as f64 + (hi - lo) as f64 * pos.fract()
}

fn median(xs: &[u64]) -> f64 {
    quantile(xs, 0.5)
}

struct FigureResult {
    name: &'static str,
    runs: usize,
    events: u64,
    translations: u64,
    /// CPU-span attribution summed over the figure's runs (simulated CPU
    /// ns, not the simulator's time).
    spans: SpanSet,
    /// Registry percentiles from the armed sweeps, merged over the runs.
    registry: RegistryReport,
    setup_ns: Vec<u64>,
    loop_ns: Vec<u64>,
    bare_ns: Vec<u64>,
    armed_ns: Vec<u64>,
}

impl FigureResult {
    fn bare_ms(&self) -> f64 {
        median(&self.bare_ns) / 1e6
    }
    fn armed_ms(&self) -> f64 {
        median(&self.armed_ns) / 1e6
    }
    fn bare_iqr_ms(&self) -> f64 {
        (quantile(&self.bare_ns, 0.75) - quantile(&self.bare_ns, 0.25)) / 1e6
    }
    fn bare_events_per_sec(&self) -> f64 {
        self.events as f64 / (self.bare_ms() / 1e3)
    }
    fn ns_per_event(&self) -> f64 {
        self.bare_ms() * 1e6 / self.events.max(1) as f64
    }
    fn ns_per_translation(&self) -> f64 {
        self.bare_ms() * 1e6 / self.translations.max(1) as f64
    }
    /// Share of the bare event rate lost when every tier is armed.
    fn armed_overhead_pct(&self) -> f64 {
        (1.0 - self.bare_ms() / self.armed_ms()) * 100.0
    }
    fn span_share_pct(&self, span: Span) -> f64 {
        let total = self.spans.total_ns();
        if total == 0 {
            return 0.0;
        }
        self.spans.get(span) as f64 * 100.0 / total as f64
    }
}

fn measure(clock: &Clock, rounds: u32, name: &'static str, bare: &[SimConfig]) -> FigureResult {
    let armed: Vec<SimConfig> = bare
        .iter()
        .map(|&c| {
            let mut c = c;
            c.observe = ObserveConfig::full();
            c
        })
        .collect();
    let mut fig = FigureResult {
        name,
        runs: bare.len(),
        events: 0,
        translations: 0,
        spans: SpanSet::default(),
        registry: RegistryReport::default(),
        setup_ns: Vec::new(),
        loop_ns: Vec::new(),
        bare_ns: Vec::new(),
        armed_ns: Vec::new(),
    };
    for round in 0..rounds {
        let b = sweep(clock, bare);
        let a = sweep(clock, &armed);
        fig.setup_ns.push(b.setup_ns);
        fig.loop_ns.push(b.loop_ns);
        fig.bare_ns.push(b.setup_ns + b.loop_ns);
        fig.armed_ns.push(a.setup_ns + a.loop_ns);
        if round == 0 {
            for m in &b.metrics {
                fig.events += m.events_processed;
                fig.translations += m.iommu.translations;
                fig.spans.merge(&m.spans);
            }
            for m in &a.metrics {
                fig.registry.merge_stats(&m.registry);
            }
        }
    }
    fig
}

fn main() {
    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let rounds = std::env::var("FNS_BENCH_REPEATS")
        .ok()
        .and_then(|v| v.parse::<u32>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(5);
    let out_path = std::env::var("FNS_BENCH_OUT").unwrap_or_else(|_| "BENCH_simcore.json".into());
    let clock = Clock::new();
    println!(
        "=== perf_smoke: {rounds} interleaved bare/armed rounds per figure, {} time, \
         {host_cpus} host CPUs ===",
        clock.name()
    );

    let mut figures = Vec::new();
    for (name, configs) in basket() {
        let f = measure(&clock, rounds, name, &configs);
        println!(
            "{:>20}: {:2} runs  setup {:7.2} ms  loop {:7.2} ms  (IQR {:5.2} ms)  \
             {:6.1} ns/event  {:6.1} ns/translation  armed {:+5.1}%",
            f.name,
            f.runs,
            median(&f.setup_ns) / 1e6,
            median(&f.loop_ns) / 1e6,
            f.bare_iqr_ms(),
            f.ns_per_event(),
            f.ns_per_translation(),
            f.armed_overhead_pct(),
        );
        figures.push(f);
    }

    // Hand-rolled JSON through the fns-trace writer: the workspace is
    // offline, no serde.
    let mut w = JsonWriter::with_capacity(4096);
    w.begin_object();
    w.field_str("timer", clock.name());
    w.field_u64("host_cpus", host_cpus as u64);
    w.field_u64("rounds", rounds as u64);
    w.key("figures");
    w.begin_array();
    for f in &figures {
        w.begin_object();
        w.field_str("name", f.name);
        w.field_u64("runs", f.runs as u64);
        w.field_u64("events", f.events);
        w.field_u64("translations", f.translations);
        w.field_f64("setup_ms", median(&f.setup_ns) / 1e6);
        w.field_f64("loop_ms", median(&f.loop_ns) / 1e6);
        w.field_f64("bare_ms", f.bare_ms());
        w.field_f64("bare_iqr_ms", f.bare_iqr_ms());
        w.field_f64("armed_ms", f.armed_ms());
        w.field_f64("armed_overhead_pct", f.armed_overhead_pct());
        w.field_f64("bare_events_per_sec", f.bare_events_per_sec());
        w.field_f64("ns_per_event", f.ns_per_event());
        w.field_f64("ns_per_translation", f.ns_per_translation());
        // Shares of the figure's modelled driver CPU (simulated time), so a
        // reader needs no arithmetic over raw nanosecond counters.
        w.key("span_shares_pct");
        w.begin_object();
        for span in Span::ALL {
            w.field_f64(span.name(), f.span_share_pct(span));
        }
        w.end_object();
        w.field_f64(
            "invalidation_wait_pct",
            f.span_share_pct(Span::InvalidationWait),
        );
        // Registry percentiles from the armed sweep: per metric,
        // `(count, p50, p99, p999)` merged over the figure's runs.
        w.key("registry");
        w.begin_object();
        for metric in RegMetric::ALL {
            let (count, p50, p99, p999) = f.registry.percentiles(metric);
            w.key(metric.name());
            w.begin_object();
            w.field_u64("count", count);
            w.field_u64("p50", p50);
            w.field_u64("p99", p99);
            w.field_u64("p999", p999);
            w.end_object();
        }
        w.end_object();
        w.end_object();
    }
    w.end_array();
    w.end_object();

    std::fs::write(&out_path, w.finish()).expect("write benchmark JSON");
    println!("wrote {out_path}");
}
