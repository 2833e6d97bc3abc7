//! `fns-sim` — command-line driver for the F&S host simulation.
//!
//! Runs one experiment configuration and prints the standard metric row
//! (plus latency percentiles for RPC workloads).
//!
//! ```text
//! fns-sim [--mode M|--all-modes] [--workload W] [--flows N] [--ring N]
//!         [--mtu BYTES] [--cores N] [--pages-per-desc N] [--measure-ms N]
//!         [--seed N] [--msg BYTES] [--faults P] [--jobs N]
//!         [--trace PATH] [--trace-cats LIST] [--sample-us N]
//!         [--profile] [--metrics-json PATH] [--audit] [--audit-fatal]
//! fns-sim --list-scenarios
//!
//! modes:     off linux deferred linux+A linux+B fns hugepage damn
//! workloads: iperf bidir redis nginx spdk rpc dc-scale
//! ```
//!
//! With `--all-modes` (or any multi-mode invocation) the runs execute on
//! the parallel sweep runner; `--jobs N` sets the worker count (default:
//! `FNS_JOBS` or the machine's parallelism). Results always print in mode
//! order regardless of the job count.
//!
//! Every run, `dc-scale` included, simulates one host: all its NICs,
//! queues and storage devices share one IOMMU and one event loop.
//!
//! Telemetry: `--trace PATH` records the event trace and writes Chrome
//! `trace_event` JSON (load it at <https://ui.perfetto.dev>); multi-mode
//! sweeps write one file per mode (`out.json` → `out.<mode>.json`).
//! `--trace-cats map,ring,...` narrows the recorded categories (default:
//! all). `--sample-us N` probes the telemetry gauges every N microseconds
//! of sim time; the series rides along in the trace as counter tracks.
//! `--profile` prints the CPU-span attribution table, and
//! `--metrics-json PATH` dumps the full `RunMetrics` as JSON. All of this
//! is deterministic: the same seed yields byte-identical files at any
//! `--jobs` count.
//!
//! Observability: `--observe` arms the full causal plane — per-page
//! provenance timelines, DMA-transaction spans (exported into the
//! `--trace` Chrome JSON as flow-connected async spans), the HDR
//! percentile registry (surfaced on stdout, in `--metrics-json`, and as a
//! streamed time series), and the flight recorder (`--flight PATH` writes
//! its last-events crash ring; abort paths flush it before dying).
//! Individual layers arm via `--provenance`, `--txn`, `--registry`.
//! `--explain-page IOVA` prints one page's full provenance timeline;
//! `--explain-page violation` explains the pages the safety oracle
//! flagged, and any audited violation with provenance armed also writes
//! `target/failure_provenance.txt`. All of it is deterministic and
//! RNG-free: armed or not, the simulated behaviour is bit-identical.
//!
//! Correctness: `--audit` attaches the `fns-oracle` reference model to
//! every run and exits non-zero if any safety invariant was violated;
//! `--audit-fatal` panics at the first violation instead (best combined
//! with a shrunk reproducer from the MBT harness). Auditing consumes no
//! RNG, so metrics match the unaudited run bit for bit.
//!
//! Soak & checkpointing (single-mode only): `--soak NAME` runs a
//! long-horizon aging scenario from the soak registry (`churn`,
//! `iova-frag`, `reclaim-storm`) with the degradation watchdog armed.
//! `--snapshot-every MS` checkpoints the complete simulation state every
//! MS sim-milliseconds to `<prefix>-<t>us.snap` files
//! (`--snapshot-prefix`, default `fns-checkpoint`); `--resume PATH`
//! restores one and continues — the final metrics are bit-identical to
//! the uninterrupted run, provided the same configuration flags are
//! passed (a fingerprint in the snapshot enforces this). A watchdog
//! abort writes a final replayable artifact and exits with status 3.
//! Configurations that cannot be checkpointed (e.g. `--audit-fatal`) are
//! rejected with the named reason, never silently dropped.

use fns::apps::{
    bidirectional_config, churn_config, dc_scale_config, fanin_config, incast_config, iperf_config,
    nginx_config, redis_config, rpc_config, spdk_config,
};
use fns::core::{HostSim, ProtectionMode, RunMetrics, Sabotage, SimConfig};
use fns::faults::{FaultConfig, FaultKind};
use fns::harness::{soak_config, SweepRunner, SCENARIOS, SOAK_SCENARIOS};
use fns::oracle::AuditConfig;
use fns::trace::{
    chrome_trace_json, chrome_trace_json_with, JsonWriter, ObserveConfig, ProbeConfig, RegMetric,
    SampleSet, Span, TraceCategory, TraceConfig,
};

/// What `--explain-page` should reconstruct.
#[derive(Debug, Clone, Copy)]
enum ExplainTarget {
    /// The first page(s) the safety oracle flagged this run.
    Violation,
    /// A specific IOVA byte address (pfn = addr >> 12).
    Iova(u64),
}

struct Args {
    modes: Vec<ProtectionMode>,
    workload: String,
    flows: u32,
    ring: u32,
    mtu: u32,
    cores: Option<usize>,
    pages_per_desc: u32,
    measure_ms: Option<u64>,
    seed: u64,
    msg_bytes: u64,
    faults: f64,
    jobs: Option<usize>,
    trace_path: Option<String>,
    trace_mask: u8,
    sample_us: u64,
    profile: bool,
    metrics_json: Option<String>,
    audit: bool,
    audit_fatal: bool,
    soak: Option<String>,
    snapshot_every_ms: u64,
    snapshot_prefix: String,
    resume: Option<String>,
    observe: bool,
    provenance: bool,
    txn: bool,
    registry: bool,
    flight_path: Option<String>,
    explain_page: Option<ExplainTarget>,
    profile_top: Option<usize>,
    sabotage_skip_inv: Option<u64>,
    sabotage_xleak: Option<u64>,
    nics: Option<u16>,
    queues: Option<u16>,
    storage: Option<u16>,
}

fn parse_mode(s: &str) -> Option<ProtectionMode> {
    Some(match s {
        "off" | "iommu-off" => ProtectionMode::IommuOff,
        "linux" | "strict" | "linux-strict" => ProtectionMode::LinuxStrict,
        "deferred" | "lazy" | "linux-deferred" => ProtectionMode::LinuxDeferred,
        "linux+A" | "preserve" => ProtectionMode::LinuxPreserve,
        "linux+B" | "contig" => ProtectionMode::LinuxContig,
        "fns" | "fas" | "fast-and-safe" => ProtectionMode::FastAndSafe,
        "hugepage" | "hugepage-pin" => ProtectionMode::HugepagePinned,
        "damn" | "damn-recycle" => ProtectionMode::DamnRecycle,
        _ => return None,
    })
}

fn usage() -> ! {
    eprintln!(
        "usage: fns-sim [--mode M|--all-modes]\n\
         \x20              [--workload iperf|bidir|redis|nginx|spdk|rpc|fanin|incast|churn|dc-scale]\n\
         \x20              [--flows N] [--ring N] [--mtu BYTES] [--cores N]\n\
         \x20              [--nics N] [--queues N] [--storage N]   multi-device topology overrides\n\
         \x20              [--pages-per-desc N] [--measure-ms N] [--seed N] [--msg BYTES]\n\
         \x20              [--faults P]    inject faults at every site with probability P in [0,1]\n\
         \x20              [--jobs N]      run multi-mode sweeps on N worker threads\n\
         \x20              [--trace PATH]  write a Chrome trace_event JSON (Perfetto-loadable)\n\
         \x20              [--trace-cats L]  categories to record: all | map,translate,invalidation,ring,fault\n\
         \x20              [--sample-us N] probe telemetry gauges every N us of sim time\n\
         \x20              [--profile]     print the CPU-span attribution table\n\
         \x20              [--metrics-json PATH]  dump full RunMetrics as JSON\n\
         \x20              [--audit]       attach the safety oracle; exit 1 on any violation\n\
         \x20              [--audit-fatal] panic at the first violation (implies --audit)\n\
         \x20              [--soak NAME]   run a long-horizon aging scenario (single-mode)\n\
         \x20              [--snapshot-every MS]  checkpoint every MS sim-ms (single-mode)\n\
         \x20              [--snapshot-prefix P]  checkpoint file prefix (default fns-checkpoint)\n\
         \x20              [--resume PATH] restore a checkpoint and continue (same flags required)\n\
         \x20              [--observe]     arm the full observability plane (provenance+txn+registry+flight)\n\
         \x20              [--provenance]  record per-page provenance timelines\n\
         \x20              [--txn]         record DMA-transaction causal spans (exported with --trace)\n\
         \x20              [--registry]    record HDR latency/occupancy percentiles\n\
         \x20              [--flight PATH] arm the flight recorder; write its crash ring as Chrome JSON\n\
         \x20              [--explain-page IOVA|violation]  print a page's provenance timeline\n\
         \x20              [--profile-top N]  limit the --profile table to the N largest spans\n\
         \x20              [--list-scenarios]  list the named scenario registry and exit\n\
         modes: off linux deferred linux+A linux+B fns hugepage damn"
    );
    std::process::exit(2);
}

fn list_scenarios() -> ! {
    println!("named scenarios (canonical configs from the fns-harness registry):");
    for s in SCENARIOS {
        println!("  {:<18} {}", s.name, s.description);
    }
    println!("soak scenarios (long-horizon aging runs, via --soak):");
    for s in SOAK_SCENARIOS {
        println!("  {:<18} {}", s.name, s.description);
    }
    std::process::exit(0);
}

fn parse_args() -> Args {
    let mut args = Args {
        modes: vec![ProtectionMode::FastAndSafe],
        workload: "iperf".into(),
        flows: 5,
        ring: 256,
        mtu: 4096,
        cores: None,
        pages_per_desc: 64,
        measure_ms: None,
        seed: 1,
        msg_bytes: 8192,
        faults: 0.0,
        jobs: None,
        trace_path: None,
        trace_mask: TraceCategory::ALL_MASK,
        sample_us: 0,
        profile: false,
        metrics_json: None,
        audit: false,
        audit_fatal: false,
        soak: None,
        snapshot_every_ms: 0,
        snapshot_prefix: "fns-checkpoint".into(),
        resume: None,
        observe: false,
        provenance: false,
        txn: false,
        registry: false,
        flight_path: None,
        explain_page: None,
        profile_top: None,
        sabotage_skip_inv: None,
        sabotage_xleak: None,
        nics: None,
        queues: None,
        storage: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut val = || it.next().unwrap_or_else(|| usage());
        match a.as_str() {
            "--mode" => {
                let v = val();
                args.modes = vec![parse_mode(&v).unwrap_or_else(|| usage())];
            }
            "--all-modes" => args.modes = ProtectionMode::ALL.to_vec(),
            "--workload" => args.workload = val(),
            "--flows" => args.flows = val().parse().unwrap_or_else(|_| usage()),
            "--ring" => args.ring = val().parse().unwrap_or_else(|_| usage()),
            "--mtu" => args.mtu = val().parse().unwrap_or_else(|_| usage()),
            "--cores" => args.cores = Some(val().parse().unwrap_or_else(|_| usage())),
            "--pages-per-desc" => args.pages_per_desc = val().parse().unwrap_or_else(|_| usage()),
            "--measure-ms" => args.measure_ms = Some(val().parse().unwrap_or_else(|_| usage())),
            "--seed" => args.seed = val().parse().unwrap_or_else(|_| usage()),
            "--msg" => args.msg_bytes = val().parse().unwrap_or_else(|_| usage()),
            "--faults" => {
                args.faults = val().parse().unwrap_or_else(|_| usage());
                if !(0.0..=1.0).contains(&args.faults) {
                    usage()
                }
            }
            "--jobs" => {
                let n: usize = val().parse().unwrap_or_else(|_| usage());
                if n == 0 {
                    usage()
                }
                args.jobs = Some(n);
            }
            "--trace" => args.trace_path = Some(val()),
            "--trace-cats" => {
                args.trace_mask = TraceCategory::parse_mask(&val()).unwrap_or_else(|| usage());
            }
            "--sample-us" => {
                args.sample_us = val().parse().unwrap_or_else(|_| usage());
                if args.sample_us == 0 {
                    usage()
                }
            }
            "--profile" => args.profile = true,
            "--metrics-json" => args.metrics_json = Some(val()),
            "--audit" => args.audit = true,
            "--audit-fatal" => {
                args.audit = true;
                args.audit_fatal = true;
            }
            "--soak" => args.soak = Some(val()),
            "--snapshot-every" => {
                args.snapshot_every_ms = val().parse().unwrap_or_else(|_| usage());
                if args.snapshot_every_ms == 0 {
                    usage()
                }
            }
            "--snapshot-prefix" => args.snapshot_prefix = val(),
            "--resume" => args.resume = Some(val()),
            "--observe" => args.observe = true,
            "--provenance" => args.provenance = true,
            "--txn" => args.txn = true,
            "--registry" => args.registry = true,
            "--flight" => args.flight_path = Some(val()),
            "--explain-page" => {
                let v = val();
                args.explain_page = Some(if v == "violation" {
                    ExplainTarget::Violation
                } else {
                    let addr = match v.strip_prefix("0x") {
                        Some(hex) => u64::from_str_radix(hex, 16),
                        None => v.parse(),
                    };
                    ExplainTarget::Iova(addr.unwrap_or_else(|_| usage()))
                });
            }
            "--profile-top" => {
                let n: usize = val().parse().unwrap_or_else(|_| usage());
                if n == 0 {
                    usage()
                }
                args.profile_top = Some(n);
            }
            // Undocumented: seed the driver bug the sabotage plane models,
            // so CI can exercise the violation -> provenance-artifact path
            // end to end (single-mode only).
            "--sabotage-skip-inv" => {
                args.sabotage_skip_inv = Some(val().parse().unwrap_or_else(|_| usage()));
            }
            // Undocumented: seed a cross-domain leak (map op `nth` aliased
            // into the next tenant's domain) for the multi-tenant CI smoke.
            "--sabotage-xleak" => {
                args.sabotage_xleak = Some(val().parse().unwrap_or_else(|_| usage()));
            }
            "--nics" => {
                let n: u16 = val().parse().unwrap_or_else(|_| usage());
                if n == 0 {
                    usage()
                }
                args.nics = Some(n);
            }
            "--queues" => {
                let n: u16 = val().parse().unwrap_or_else(|_| usage());
                if n == 0 {
                    usage()
                }
                args.queues = Some(n);
            }
            "--storage" => args.storage = Some(val().parse().unwrap_or_else(|_| usage())),
            "--list-scenarios" => list_scenarios(),
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    args
}

fn build_config(args: &Args, mode: ProtectionMode) -> SimConfig {
    let mut cfg = match args.workload.as_str() {
        "iperf" => iperf_config(mode, args.flows, args.ring),
        "bidir" => bidirectional_config(mode, args.flows),
        // A redis SET carries protocol bytes around its value, so an empty
        // value would pass `validate` as a 32-byte request.
        "redis" if args.msg_bytes == 0 => refuse("msg: a redis value must be at least 1 byte"),
        "redis" => redis_config(mode, args.msg_bytes),
        "nginx" => nginx_config(mode, args.msg_bytes),
        "spdk" => spdk_config(mode, args.msg_bytes),
        "rpc" => rpc_config(mode, args.msg_bytes),
        "fanin" | "mt-fanin" => fanin_config(mode, args.flows),
        "incast" | "mt-incast" => incast_config(mode, args.flows, args.msg_bytes),
        "churn" | "mt-churn" => churn_config(mode, args.flows, args.msg_bytes),
        "dc-scale" | "dcscale" => dc_scale_config(mode),
        _ => usage(),
    };
    if args.workload == "iperf" {
        cfg.mtu = args.mtu;
        cfg.ring_packets = args.ring;
    }
    if let Some(c) = args.cores {
        cfg.cores = c;
    }
    // Topology overrides layer on top of whatever the workload chose (the
    // mt-* workloads default to 2 NICs x 4 queues + 1 storage device).
    if let Some(n) = args.nics {
        cfg.topology.nics = n;
    }
    if let Some(q) = args.queues {
        cfg.topology.queues_per_nic = q;
    }
    if let Some(s) = args.storage {
        cfg.topology.storage_devices = s;
    }
    if let Some(nth) = args.sabotage_xleak {
        cfg.sabotage = Sabotage::CrossDomainLeak { nth };
    }
    cfg.pages_per_descriptor = args.pages_per_desc;
    cfg.measure = args.measure_ms.unwrap_or(60) * 1_000_000;
    cfg.seed = args.seed;
    cfg.faults = FaultConfig::uniform(args.faults);
    apply_telemetry_flags(args, &mut cfg);
    runnable(cfg)
}

/// Config for `--soak NAME`: the registry's soak shape (long horizon,
/// probes on, watchdog armed), with the CLI overrides that make sense for
/// a soak layered on top.
fn build_soak_config(args: &Args, mode: ProtectionMode) -> SimConfig {
    let name = args.soak.as_deref().expect("caller checked --soak");
    let mut cfg = soak_config(name, mode).unwrap_or_else(|| {
        eprintln!("fns-sim: unknown soak scenario '{name}' (see --list-scenarios)");
        std::process::exit(2);
    });
    if let Some(ms) = args.measure_ms {
        cfg.measure = ms * 1_000_000;
    }
    if let Some(c) = args.cores {
        cfg.cores = c;
    }
    cfg.seed = args.seed;
    if args.faults > 0.0 {
        cfg.faults = FaultConfig::uniform(args.faults);
    }
    apply_telemetry_flags(args, &mut cfg);
    runnable(cfg)
}

/// `cfg` if it describes a host that can run; otherwise exits 2 with the
/// reason, before any banner or result line is printed.
fn runnable(cfg: SimConfig) -> SimConfig {
    if let Err(e) = cfg.validate() {
        refuse(e.0);
    }
    cfg
}

/// Exits 2 with `reason` on stderr and nothing on stdout.
fn refuse(reason: &str) -> ! {
    eprintln!("fns-sim: invalid configuration: {reason}");
    std::process::exit(2);
}

fn apply_telemetry_flags(args: &Args, cfg: &mut SimConfig) {
    if args.trace_path.is_some() {
        cfg.trace = TraceConfig {
            mask: args.trace_mask,
        };
    }
    if args.sample_us > 0 {
        cfg.probes = ProbeConfig::every(args.sample_us * 1_000);
    }
    if args.audit {
        cfg.audit = AuditConfig {
            enabled: true,
            fatal: args.audit_fatal,
        };
    }
    if args.observe {
        cfg.observe = ObserveConfig::full();
    }
    if args.provenance || args.explain_page.is_some() {
        cfg.observe.provenance = true;
    }
    if let Some(ExplainTarget::Iova(addr)) = args.explain_page {
        // Focused book: track only the page being explained, so the
        // timeline is never evicted no matter how long the run is.
        cfg.observe.prov_focus = addr >> 12;
    }
    if args.txn {
        cfg.observe.txn = true;
    }
    if args.registry {
        cfg.observe.registry = true;
    }
    if args.flight_path.is_some() {
        cfg.observe.flight = true;
    }
}

/// Checkpoint file path at sim time `t` — zero-padded microseconds so the
/// files sort lexically in time order.
fn checkpoint_path(prefix: &str, t: u64) -> String {
    format!("{}-{:010}us.snap", prefix, t / 1_000)
}

fn write_bytes_or_die(path: &str, contents: &[u8]) {
    if let Err(e) = std::fs::write(path, contents) {
        eprintln!("fns-sim: cannot write {path}: {e}");
        std::process::exit(1);
    }
}

/// The checkpointed single-run path behind `--soak`, `--snapshot-every`
/// and `--resume`: steps the simulation between checkpoint boundaries,
/// writes each checkpoint to disk as soon as it is taken (so a killed run
/// loses at most one interval), and converts a degradation-watchdog abort
/// into a final replayable artifact. Returns the metrics and whether the
/// watchdog aborted.
fn run_checkpointed(args: &Args, mode: ProtectionMode) -> (RunMetrics, bool) {
    let cfg = if args.soak.is_some() {
        build_soak_config(args, mode)
    } else {
        build_config(args, mode)
    };
    if args.snapshot_every_ms > 0 || args.resume.is_some() {
        if let Some(reason) = cfg.snapshot_ineligibility() {
            eprintln!("fns-sim: this configuration cannot be checkpointed: {reason}");
            std::process::exit(2);
        }
    }
    let mut sim = match &args.resume {
        Some(path) => {
            let bytes = std::fs::read(path).unwrap_or_else(|e| {
                eprintln!("fns-sim: cannot read {path}: {e}");
                std::process::exit(1);
            });
            let sim = HostSim::restore(cfg, &bytes).unwrap_or_else(|e| {
                eprintln!(
                    "fns-sim: cannot resume from {path}: {e:?} (the resuming invocation \
                     must rebuild the snapshotted configuration with the same flags)"
                );
                std::process::exit(1);
            });
            println!("resumed from {} at t={} ns", path, sim.now());
            sim
        }
        None => HostSim::new(cfg),
    };
    let end = cfg.end_time();
    let every = args.snapshot_every_ms * 1_000_000;
    let mut aborted = false;
    // A resumed run re-aligns to the original checkpoint grid, so its
    // boundaries (and files) match the run it was carved out of.
    let mut t = sim.now();
    loop {
        let next = t
            .checked_div(every)
            .map_or(end, |n| ((n + 1) * every).min(end));
        sim.step_until(next);
        t = next;
        if sim.watchdog_aborted() {
            let path = checkpoint_path(&args.snapshot_prefix, t);
            write_bytes_or_die(&path, &sim.snapshot());
            eprintln!(
                "fns-sim: watchdog aborted the run at t={t} ns; replayable artifact -> {path}"
            );
            aborted = true;
            break;
        }
        if t >= end {
            break;
        }
        if every > 0 {
            let path = checkpoint_path(&args.snapshot_prefix, t);
            write_bytes_or_die(&path, &sim.snapshot());
            println!("checkpoint: t={t} ns -> {path}");
        }
    }
    (sim.finish(), aborted)
}

/// Output path for one mode of a (possibly multi-mode) sweep: the exact
/// path for a single mode, `stem.<mode>.ext` otherwise.
fn mode_path(path: &str, mode: ProtectionMode, multi: bool) -> String {
    if !multi {
        return path.to_string();
    }
    match path.rsplit_once('.') {
        Some((stem, ext)) => format!("{}.{}.{}", stem, mode.label(), ext),
        None => format!("{}.{}", path, mode.label()),
    }
}

fn write_or_die(path: &str, contents: &str) {
    if let Err(e) = std::fs::write(path, contents) {
        eprintln!("fns-sim: cannot write {path}: {e}");
        std::process::exit(1);
    }
}

fn print_profile(mode: ProtectionMode, m: &RunMetrics, top: Option<usize>) {
    let total = m.spans.total_ns();
    let pct = |ns: u64| {
        if total > 0 {
            ns as f64 * 100.0 / total as f64
        } else {
            0.0
        }
    };
    let mut ranked: Vec<Span> = Span::ALL.to_vec();
    ranked.sort_by_key(|s| std::cmp::Reverse(m.spans.get(*s)));
    // Digest first — the one-line summary perf triage greps for, ahead of
    // the table so it survives a `| head -2`.
    let digest: Vec<String> = ranked
        .iter()
        .take(3)
        .map(|s| format!("{} {:.1}%", s.name(), pct(m.spans.get(*s))))
        .collect();
    println!(
        "{:>14}  top spans: {}  ({} ns total)",
        mode.label(),
        digest.join(", "),
        total
    );
    // Then the full attribution table (largest first), clipped to
    // `--profile-top N` when given.
    for span in ranked.iter().take(top.unwrap_or(Span::ALL.len())) {
        let ns = m.spans.get(*span);
        println!(
            "{:>14}    {:<18} {:>14} ns  {:5.1}%",
            "",
            span.name(),
            ns,
            pct(ns)
        );
    }
}

fn print_result(args: &Args, mode: ProtectionMode, m: &RunMetrics) {
    println!(
        "{:>14}  rx {:6.1} Gbps  tx {:6.1} Gbps  drops {:5.2}%  iotlb/pg {:5.2}  \
         ptcache l1/l2/l3 {:.3}/{:.3}/{:.3}  M {:5.2}  cpu {:4.2}  safety {}",
        mode.label(),
        m.rx_gbps(),
        m.tx_gbps(),
        m.drop_rate() * 100.0,
        m.iotlb_misses_per_page(),
        m.l1_misses_per_page(),
        m.l2_misses_per_page(),
        m.l3_misses_per_page(),
        m.memory_reads_per_page(),
        m.max_cpu(),
        if mode == ProtectionMode::IommuOff {
            "none"
        } else if mode.is_strict_safe() {
            "strict"
        } else {
            "weakened"
        },
    );
    if m.domains.len() > 1 {
        for (d, ds) in m.domains.iter().enumerate() {
            println!(
                "{:>14}  domain {}: {} translations  {} iotlb-hits  {} stale-hits  {} faults",
                "", d, ds.translations, ds.iotlb_hits, ds.stale_iotlb_hits, ds.faults,
            );
        }
    }
    if args.faults > 0.0 {
        println!(
            "{:>14}  faults: {} injected  {} recovered  {} inv-retries  {} batch-fallbacks  \
             {} recycles  stale-dma {} blocked / {} leaked",
            "",
            m.faults.total_injected(),
            m.faults.total_recovered(),
            m.faults.invalidation_retries,
            m.faults.batch_fallbacks,
            m.faults.descriptor_recycles,
            m.faults.stale_dma_blocked,
            m.faults.stale_dma_leaked,
        );
    }
    if m.watchdog.enabled {
        println!(
            "{:>14}  watchdog: {} checks  {} relief-drains  {} storms  max-backlog {}  \
             degraded {}  aborted {}",
            "",
            m.watchdog.checks,
            m.watchdog.relief_drains,
            m.watchdog.storms,
            m.watchdog.max_backlog_seen,
            m.watchdog.degraded,
            m.watchdog.aborted,
        );
    }
    if m.provenance.enabled || m.txns.enabled || m.registry.enabled {
        println!(
            "{:>14}  obs: provenance {} page(s) ({} dropped)  txns {} completed / {} open \
             ({} dropped)  registry {} key(s)",
            "",
            m.provenance.pages.len(),
            m.provenance.dropped_pages,
            m.txns.records.len(),
            m.txns.open,
            m.txns.dropped,
            m.registry.stats.len(),
        );
    }
    if m.registry.enabled {
        let (count, p50, p99, p999) = m.registry.percentiles(RegMetric::DescLatency);
        let (_, _, inv_p99, _) = m.registry.percentiles(RegMetric::InvWait);
        if count > 0 {
            println!(
                "{:>14}  desc latency ns: p50 {}  p99 {}  p999 {}  ({} descs)  inv-wait p99 {}",
                "", p50, p99, p999, count, inv_p99,
            );
        }
    }
    if args.workload == "rpc" && m.latency.count() > 0 {
        let p = |q: f64| m.latency.percentile(q) as f64 / 1000.0;
        println!(
            "{:>14}  rpc latency us: p50 {:.1}  p90 {:.1}  p99 {:.1}  p99.9 {:.1}  p99.99 {:.1}",
            "",
            p(50.0),
            p(90.0),
            p(99.0),
            p(99.9),
            p(99.99)
        );
    }
}

fn main() {
    let args = parse_args();
    match &args.soak {
        Some(name) => println!(
            "soak={} measure={}ms seed={}",
            name,
            args.measure_ms.unwrap_or(10_000),
            args.seed
        ),
        None => {
            // The workload presets own flows, ring and MTU; print the
            // config that runs, not the CLI defaults it may override.
            let cfg = build_config(&args, args.modes[0]);
            println!(
                "workload={} flows={} ring={} mtu={} pages/desc={} measure={}ms seed={}",
                args.workload,
                cfg.flows,
                cfg.ring_packets,
                cfg.mtu,
                cfg.pages_per_descriptor,
                cfg.measure / 1_000_000,
                cfg.seed
            )
        }
    }
    let modes = args.modes.clone();
    let checkpointed = args.soak.is_some() || args.snapshot_every_ms > 0 || args.resume.is_some();
    let mut aborted = false;
    let results = if checkpointed {
        if modes.len() > 1 {
            eprintln!(
                "fns-sim: --soak/--snapshot-every/--resume run a single mode \
                 (got {}); pass --mode",
                modes.len()
            );
            std::process::exit(2);
        }
        let (m, a) = run_checkpointed(&args, modes[0]);
        aborted = a;
        vec![m]
    } else if args.sabotage_skip_inv.is_some() || (args.audit_fatal && args.flight_path.is_some()) {
        // Instrumented single-run path: a seeded sabotage needs a hand on
        // the driver before the run, and a fatal audit with the flight
        // recorder armed needs the ring flushed when the oracle panics.
        if modes.len() > 1 {
            eprintln!(
                "fns-sim: --sabotage-skip-inv / --audit-fatal --flight run a single mode \
                 (got {}); pass --mode",
                modes.len()
            );
            std::process::exit(2);
        }
        let cfg = build_config(&args, modes[0]);
        let mut sim = HostSim::new(cfg);
        if let Some(nth) = args.sabotage_skip_inv {
            sim.set_sabotage(Sabotage::SkipRangeInvalidation { nth });
        }
        let end = cfg.end_time();
        let stepped =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sim.step_until(end)));
        if let Err(panic) = stepped {
            // The fatal oracle (or anything else) panicked mid-run: flush
            // the flight-recorder crash ring so the last events leading up
            // to the abort survive as an artifact, then keep dying.
            if let Some(path) = &args.flight_path {
                let flight = sim.flight_view();
                write_or_die(
                    path,
                    &chrome_trace_json(&flight, &SampleSet::default(), &[]),
                );
                eprintln!(
                    "fns-sim: panic mid-run; flight recorder ({} events) -> {path}",
                    flight.len()
                );
            }
            std::panic::resume_unwind(panic);
        }
        vec![sim.finish()]
    } else {
        let runner = match args.jobs {
            Some(n) => SweepRunner::new(n),
            None => SweepRunner::from_env(),
        };
        let configs = modes
            .iter()
            .map(|&mode| build_config(&args, mode))
            .collect();
        runner.run_sims(configs)
    };
    let mut audit_violations = 0u64;
    for (mode, m) in modes.iter().zip(results.iter()) {
        print_result(&args, *mode, m);
        assert_eq!(m.stale_ptcache_walks, 0, "use-after-free walk detected");
        if args.audit {
            println!("{:>14}  {}", "", m.audit.summary());
            for v in &m.audit.samples {
                println!(
                    "{:>14}    [{}] pfn {:#x} at check {}: {}",
                    "",
                    v.invariant.name(),
                    v.pfn,
                    v.check,
                    v.detail
                );
            }
            audit_violations += m.audit.violations;
        }
        if args.profile {
            print_profile(*mode, m, args.profile_top);
        }
        if let Some(target) = &args.explain_page {
            let pfns: Vec<u64> = match target {
                ExplainTarget::Violation => m.audit.violating_pfns(),
                ExplainTarget::Iova(addr) => vec![addr >> 12],
            };
            if pfns.is_empty() {
                println!("{:>14}  explain: no violating pages this run", "");
            }
            for pfn in pfns {
                print!("{}", m.provenance.explain(pfn));
            }
        }
    }
    let multi = modes.len() > 1;
    if let Some(path) = &args.trace_path {
        let fault_kinds: Vec<&str> = FaultKind::ALL.iter().map(|k| k.name()).collect();
        for (mode, m) in modes.iter().zip(results.iter()) {
            let out = mode_path(path, *mode, multi);
            write_or_die(
                &out,
                &chrome_trace_json_with(&m.trace, &m.samples, &fault_kinds, &m.txns),
            );
            println!(
                "trace: {} events ({} dropped), {} samples, {} txn spans -> {}",
                m.trace.len(),
                m.trace.dropped,
                m.samples.samples.len(),
                m.txns.records.len(),
                out
            );
        }
    }
    if let Some(path) = &args.flight_path {
        // The crash ring of a *completed* run: the final window of events.
        // (Abort paths flush the live ring before dying instead.)
        for (mode, m) in modes.iter().zip(results.iter()) {
            let out = mode_path(path, *mode, multi);
            write_or_die(
                &out,
                &chrome_trace_json(&m.flight, &SampleSet::default(), &[]),
            );
            println!(
                "flight: {} events ({} dropped) -> {}",
                m.flight.len(),
                m.flight.dropped,
                out
            );
        }
    }
    if let Some(path) = &args.metrics_json {
        let mut w = JsonWriter::with_capacity(4096);
        w.begin_object();
        w.key("workload");
        w.string(&args.workload);
        w.key("seed");
        w.u64(args.seed);
        w.key("runs");
        w.begin_array();
        for (mode, m) in modes.iter().zip(results.iter()) {
            w.begin_object();
            w.key("mode");
            w.string(mode.label());
            w.key("metrics");
            w.raw(&m.to_json());
            w.end_object();
        }
        w.end_array();
        w.end_object();
        write_or_die(path, &w.finish());
        println!("metrics: {} run(s) -> {}", results.len(), path);
    }
    if audit_violations > 0 {
        // Failure artifact: when provenance was armed, dump the violating
        // pages' full timelines so the bug is diagnosable from the run
        // that caught it (reproducible via `--explain-page violation`).
        let mut artifact = String::new();
        for (mode, m) in modes.iter().zip(results.iter()) {
            if !m.provenance.enabled || m.audit.violations == 0 {
                continue;
            }
            // Name every violated invariant up front (the smoke greps for
            // e.g. `cross-domain-isolation`), then dump the page timelines.
            for v in &m.audit.samples {
                artifact.push_str(&format!(
                    "mode {}: [{}] pfn {:#x} at check {}: {}\n",
                    mode.label(),
                    v.invariant.name(),
                    v.pfn,
                    v.check,
                    v.detail
                ));
            }
            for pfn in m.audit.violating_pfns() {
                artifact.push_str(&format!(
                    "mode {}: violation at pfn {:#x}\n",
                    mode.label(),
                    pfn
                ));
                artifact.push_str(&m.provenance.explain(pfn));
            }
        }
        if !artifact.is_empty() {
            std::fs::create_dir_all("target").ok();
            write_or_die("target/failure_provenance.txt", &artifact);
            eprintln!("fns-sim: violating-page timelines -> target/failure_provenance.txt");
        }
        eprintln!("fns-sim: safety audit found {audit_violations} violation(s)");
        std::process::exit(1);
    }
    if aborted {
        std::process::exit(3);
    }
}
