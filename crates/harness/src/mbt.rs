//! Model-based differential testing of the DMA protection state machine.
//!
//! The sweep tests audit whole simulations; this module audits the driver
//! *directly*, with the simulator cut away. A seeded generator produces a
//! random interleaving of the seven primitive operations the datapath is
//! built from (prepare/complete Rx, map/complete Tx, device DMA, stale-DMA
//! probes, invalidation-queue drains), [`replay`] drives them through a
//! fresh [`DmaDriver`] with the safety oracle attached, and [`shrink`]
//! reduces any violating sequence to a minimal reproducer with a greedy
//! ddmin pass.
//!
//! Two properties keep replays meaningful under shrinking:
//!
//! * **Index-modulo selectors.** Ops that pick a live descriptor carry a
//!   selector applied modulo the current live count, so removing an
//!   earlier op never turns a later one into a no-op reference to a
//!   vanished object — it just picks a different live object.
//! * **Datapath drain contract.** Device DMA ops go through
//!   [`DmaDriver::dma_access`], the call `nic_pump`, `tx_pump` and
//!   `storage_issue` make: it drains one pending PTcache-wipe epoch per
//!   page before translating, so the model never flags queue latency the
//!   real datapath hides.
//!
//! Minimal reproducers serialize to a line-oriented text format and are
//! checked into `tests/corpus/` together with the seeded driver bug
//! ([`Sabotage`]) that produced them and the invariant they must violate.

use std::collections::VecDeque;

use fns_core::{CpuCosts, DmaDriver, ProtectionMode, Sabotage, Tap};
use fns_iommu::IommuConfig;
use fns_nic::descriptor::DescriptorPage;
use fns_oracle::{AuditReport, Invariant};
use fns_sim::rng::SimRng;

/// Cap on concurrently live Rx descriptors / Tx packets in a replay.
pub const LIVE_CAP: usize = 8;

/// Cap on remembered completed-descriptor IOVAs for stale probes.
const FREED_CAP: usize = 16;

/// Largest Rx descriptor a corpus case may ask for, in pages: room for the
/// 1024-page descriptors PT reclamation needs, while [`LIVE_CAP`] of them
/// (plus as many 8-page Tx packets) stay far inside the replay driver's
/// 16 GB frame pool.
pub const MAX_DESC_PAGES: u64 = 4096;

/// One primitive datapath operation.
///
/// Selectors (`sel`) index the relevant live set modulo its length at the
/// moment the op runs; size fields are clamped into their valid range. An
/// op whose target set is empty is a no-op, so any subsequence of a valid
/// trace is itself valid — the property ddmin shrinking relies on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Allocate + map one Rx descriptor (no-op at [`LIVE_CAP`]).
    PrepareRx,
    /// Complete (unmap + invalidate + free) a live Rx descriptor.
    CompleteRx {
        /// Live-descriptor selector (modulo).
        sel: u8,
    },
    /// Device DMA into every page of a live Rx descriptor.
    DmaRx {
        /// Live-descriptor selector (modulo).
        sel: u8,
    },
    /// Map a Tx packet of `pages` pages (clamped to 1..=8).
    TxMap {
        /// Packet size in pages.
        pages: u8,
    },
    /// Complete (unmap + invalidate + free) a live Tx packet.
    TxComplete {
        /// Live-packet selector (modulo).
        sel: u8,
    },
    /// Device DMA to a *completed* descriptor's first page — the paper's
    /// use-after-unmap attack, expected to fault in strict modes.
    StaleProbe {
        /// Freed-IOVA selector (modulo).
        sel: u8,
    },
    /// Drain up to `max + 1` pending PTcache-wipe epochs.
    Drain {
        /// Epoch budget minus one.
        max: u8,
    },
    /// Switch the issuing device: subsequent ops run from protection
    /// domain `d` modulo the configured domain count. Ops that touch an
    /// object created earlier (complete, DMA, stale probe) always act in
    /// the object's own domain, so removing a `SetDomain` never turns a
    /// later op into a cross-domain access by accident.
    SetDomain {
        /// Domain selector (modulo [`MbtConfig::domains`]).
        d: u8,
    },
}

/// Driver shape for one replay: everything that changes which invariants
/// are reachable, kept small enough to serialize into a corpus header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MbtConfig {
    /// Protection mode under audit.
    pub mode: ProtectionMode,
    /// Rx descriptor size in pages (512 forced for huge-Rx modes).
    pub desc_pages: u64,
    /// Deferred-mode flush threshold.
    pub deferred_threshold: u32,
    /// Protection domains sharing the IOMMU (1 = classic single device).
    pub domains: u16,
    /// Seeded driver bug, [`Sabotage::None`] for clean replays.
    pub sabotage: Sabotage,
}

impl MbtConfig {
    /// The default replay shape for `mode`: 64-page descriptors (512 when
    /// the mode maps huge Rx buffers), the paper's flush threshold, no
    /// seeded bug.
    pub fn for_mode(mode: ProtectionMode) -> Self {
        Self {
            mode,
            desc_pages: if mode.huge_rx() { 512 } else { 64 },
            deferred_threshold: 256,
            domains: 1,
            sabotage: Sabotage::None,
        }
    }

    /// The deferred-window bound this shape implies (flush threshold plus
    /// one completion batch of slack) — must match `HostSim`'s accounting.
    pub fn deferred_window(&self) -> u64 {
        self.deferred_threshold as u64 + self.desc_pages
    }
}

/// Replays `ops` through a fresh audited driver and returns the oracle's
/// report. Deterministic: same config + ops ⇒ identical report.
pub fn replay(cfg: MbtConfig, ops: &[Op]) -> AuditReport {
    let domains = cfg.domains.max(1);
    let mut drv = DmaDriver::with_descriptor_pages(
        cfg.mode,
        2,
        IommuConfig {
            domains,
            ..IommuConfig::default()
        },
        CpuCosts::default(),
        cfg.deferred_threshold,
        0,
        cfg.desc_pages,
    );
    drv.set_tap(Tap::auditing(
        cfg.mode.contract(cfg.deferred_window()),
        false,
    ));
    drv.set_sabotage(cfg.sabotage);

    // Live objects remember the domain that created them: completions,
    // device DMA, and stale probes always act as the owning device, so the
    // only cross-domain traffic in a replay is what a sabotage injects.
    let mut cur: u16 = 0;
    let mut live_rx: Vec<(u16, fns_nic::descriptor::Descriptor)> = Vec::new();
    let mut live_tx: Vec<(u16, Vec<DescriptorPage>)> = Vec::new();
    let mut freed: VecDeque<(u16, fns_iova::Iova)> = VecDeque::new();

    for &op in ops {
        match op {
            Op::PrepareRx => {
                if live_rx.len() < LIVE_CAP {
                    let (desc, _) = drv
                        .prepare_rx_descriptor_in(cur, 0)
                        .expect("fault-free replay: prepare_rx");
                    live_rx.push((cur, desc));
                }
            }
            Op::CompleteRx { sel } => {
                if !live_rx.is_empty() {
                    let (d, desc) = live_rx.remove(sel as usize % live_rx.len());
                    if freed.len() == FREED_CAP {
                        freed.pop_front();
                    }
                    freed.push_back((d, desc.pages()[0].iova));
                    drv.complete_rx_descriptor_in(d, 0, &desc)
                        .expect("fault-free replay: complete_rx");
                }
            }
            Op::DmaRx { sel } => {
                if !live_rx.is_empty() {
                    let idx = sel as usize % live_rx.len();
                    let (d, desc) = &live_rx[idx];
                    drv.dma_access(*d, desc.pages().iter().map(|p| p.iova));
                }
            }
            Op::TxMap { pages } => {
                if live_tx.len() < LIVE_CAP {
                    let n = u32::from(pages.clamp(1, 8));
                    let (mapped, _) = drv.tx_map_in(cur, 1, n).expect("fault-free replay: tx_map");
                    drv.dma_access(cur, mapped.iter().map(|p| p.iova));
                    live_tx.push((cur, mapped));
                }
            }
            Op::TxComplete { sel } => {
                if !live_tx.is_empty() {
                    let (d, pages) = live_tx.remove(sel as usize % live_tx.len());
                    if freed.len() == FREED_CAP {
                        freed.pop_front();
                    }
                    freed.push_back((d, pages[0].iova));
                    drv.tx_complete_in(d, 1, &pages)
                        .expect("fault-free replay: tx_complete");
                }
            }
            Op::StaleProbe { sel } => {
                if !freed.is_empty() {
                    let (d, iova) = freed[sel as usize % freed.len()];
                    drv.drain_ptcache_wipes(usize::MAX);
                    drv.probe_translate_in(d, iova);
                }
            }
            Op::Drain { max } => {
                drv.drain_ptcache_wipes(max as usize + 1);
            }
            Op::SetDomain { d } => {
                cur = u16::from(d) % domains;
            }
        }
    }
    drv.tap().audit_report()
}

/// Generates a seeded random op sequence of length `len`.
pub fn generate(seed: u64, len: usize) -> Vec<Op> {
    let mut rng = SimRng::seed(seed);
    let mut ops = Vec::with_capacity(len);
    for _ in 0..len {
        // Weighted pick: prepare/complete/DMA dominate so descriptors
        // actually cycle; probes and drains season the interleaving.
        let roll = rng.range(0, 16);
        let sel = rng.range(0, 256) as u8;
        ops.push(match roll {
            0..=2 => Op::PrepareRx,
            3..=5 => Op::CompleteRx { sel },
            6..=9 => Op::DmaRx { sel },
            10..=11 => Op::TxMap { pages: sel % 8 + 1 },
            12..=13 => Op::TxComplete { sel },
            14 => Op::StaleProbe { sel },
            _ => Op::Drain { max: sel % 4 },
        });
    }
    ops
}

/// Generates a seeded random op sequence that also hops between `domains`
/// issuing devices. Identical to [`generate`] when `domains <= 1`; with
/// more domains, device switches season the interleaving so descriptors
/// from different tenants cycle through the shared IOMMU concurrently.
pub fn generate_multi(seed: u64, len: usize, domains: u16) -> Vec<Op> {
    if domains <= 1 {
        return generate(seed, len);
    }
    let mut rng = SimRng::seed(seed);
    let mut ops = Vec::with_capacity(len);
    for _ in 0..len {
        let roll = rng.range(0, 18);
        let sel = rng.range(0, 256) as u8;
        ops.push(match roll {
            0..=2 => Op::PrepareRx,
            3..=5 => Op::CompleteRx { sel },
            6..=9 => Op::DmaRx { sel },
            10..=11 => Op::TxMap { pages: sel % 8 + 1 },
            12..=13 => Op::TxComplete { sel },
            14 => Op::StaleProbe { sel },
            15 => Op::Drain { max: sel % 4 },
            _ => Op::SetDomain {
                d: sel % domains as u8,
            },
        });
    }
    ops
}

/// Whether `report` counts a violation of `expect` (any invariant when
/// `None`).
pub fn violates(report: &AuditReport, expect: Option<Invariant>) -> bool {
    match expect {
        Some(inv) => report.of(inv) > 0,
        None => report.violations > 0,
    }
}

/// Greedy ddmin shrink: repeatedly removes chunks (halving the chunk size
/// down to single ops) while the replay still violates `expect`. Returns
/// the minimal trace found; the caller is expected to have checked that
/// the full trace violates first.
pub fn shrink(cfg: MbtConfig, ops: &[Op], expect: Option<Invariant>) -> Vec<Op> {
    let mut current: Vec<Op> = ops.to_vec();
    let mut chunk = (current.len() / 2).max(1);
    loop {
        let mut progressed = false;
        let mut start = 0;
        while start < current.len() {
            let end = (start + chunk).min(current.len());
            let mut candidate = Vec::with_capacity(current.len() - (end - start));
            candidate.extend_from_slice(&current[..start]);
            candidate.extend_from_slice(&current[end..]);
            if !candidate.is_empty() && violates(&replay(cfg, &candidate), expect) {
                current = candidate;
                progressed = true;
                // Re-test the same offset: the next chunk slid into it.
            } else {
                start = end;
            }
        }
        if !progressed {
            if chunk == 1 {
                break;
            }
            chunk = (chunk / 2).max(1);
        }
    }
    current
}

/// Serializes ops into the line-oriented corpus format.
pub fn ops_to_text(ops: &[Op]) -> String {
    let mut s = String::new();
    for op in ops {
        match op {
            Op::PrepareRx => s.push_str("prepare-rx"),
            Op::CompleteRx { sel } => s.push_str(&format!("complete-rx {sel}")),
            Op::DmaRx { sel } => s.push_str(&format!("dma-rx {sel}")),
            Op::TxMap { pages } => s.push_str(&format!("tx-map {pages}")),
            Op::TxComplete { sel } => s.push_str(&format!("tx-complete {sel}")),
            Op::StaleProbe { sel } => s.push_str(&format!("stale-probe {sel}")),
            Op::Drain { max } => s.push_str(&format!("drain {max}")),
            Op::SetDomain { d } => s.push_str(&format!("set-domain {d}")),
        }
        s.push('\n');
    }
    s
}

fn parse_op(line: &str) -> Result<Op, String> {
    let mut parts = line.split_whitespace();
    let word = parts.next().ok_or("empty op line")?;
    let arg = |parts: &mut std::str::SplitWhitespace| -> Result<u8, String> {
        parts
            .next()
            .ok_or_else(|| format!("op '{word}' needs an argument"))?
            .parse::<u8>()
            .map_err(|e| format!("op '{word}': {e}"))
    };
    match word {
        "prepare-rx" => Ok(Op::PrepareRx),
        "complete-rx" => Ok(Op::CompleteRx {
            sel: arg(&mut parts)?,
        }),
        "dma-rx" => Ok(Op::DmaRx {
            sel: arg(&mut parts)?,
        }),
        "tx-map" => Ok(Op::TxMap {
            pages: arg(&mut parts)?,
        }),
        "tx-complete" => Ok(Op::TxComplete {
            sel: arg(&mut parts)?,
        }),
        "stale-probe" => Ok(Op::StaleProbe {
            sel: arg(&mut parts)?,
        }),
        "drain" => Ok(Op::Drain {
            max: arg(&mut parts)?,
        }),
        "set-domain" => Ok(Op::SetDomain {
            d: arg(&mut parts)?,
        }),
        other => Err(format!("unknown op '{other}'")),
    }
}

/// Parses the op lines of a corpus body (inverse of [`ops_to_text`]).
pub fn parse_ops(text: &str) -> Result<Vec<Op>, String> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(parse_op)
        .collect()
}

/// One corpus file: a replay shape, the invariant the trace must violate,
/// and the minimized op trace itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorpusCase {
    /// Replay shape (mode, descriptor size, threshold, seeded bug).
    pub cfg: MbtConfig,
    /// The invariant class this trace must trip.
    pub expect: Invariant,
    /// The minimized op trace.
    pub ops: Vec<Op>,
}

fn parse_mode(label: &str) -> Result<ProtectionMode, String> {
    ProtectionMode::ALL
        .into_iter()
        .find(|m| m.label() == label)
        .ok_or_else(|| format!("unknown mode label '{label}'"))
}

fn parse_sabotage(text: &str) -> Result<Sabotage, String> {
    let mut parts = text.split_whitespace();
    match parts.next() {
        None | Some("none") => Ok(Sabotage::None),
        Some("skip-range-invalidation") => {
            let nth = parts
                .next()
                .ok_or("skip-range-invalidation needs an ordinal")?
                .parse::<u64>()
                .map_err(|e| e.to_string())?;
            Ok(Sabotage::SkipRangeInvalidation { nth })
        }
        Some("skip-reclaim-fixup") => Ok(Sabotage::SkipReclaimFixup),
        Some("skip-deferred-flush") => Ok(Sabotage::SkipDeferredFlush),
        Some("cross-domain-leak") => {
            let nth = parts
                .next()
                .ok_or("cross-domain-leak needs an ordinal")?
                .parse::<u64>()
                .map_err(|e| e.to_string())?;
            Ok(Sabotage::CrossDomainLeak { nth })
        }
        Some("skip-domain-scoped-invalidation") => Ok(Sabotage::SkipDomainScopedInvalidation),
        Some(other) => Err(format!("unknown sabotage '{other}'")),
    }
}

fn sabotage_to_text(s: Sabotage) -> String {
    match s {
        Sabotage::None => "none".to_string(),
        Sabotage::SkipRangeInvalidation { nth } => {
            format!("skip-range-invalidation {nth}")
        }
        Sabotage::SkipReclaimFixup => "skip-reclaim-fixup".to_string(),
        Sabotage::SkipDeferredFlush => "skip-deferred-flush".to_string(),
        Sabotage::CrossDomainLeak { nth } => format!("cross-domain-leak {nth}"),
        Sabotage::SkipDomainScopedInvalidation => "skip-domain-scoped-invalidation".to_string(),
    }
}

impl CorpusCase {
    /// Serializes the case into the corpus file format.
    pub fn to_text(&self) -> String {
        format!(
            "mode: {}\ndesc-pages: {}\ndeferred-threshold: {}\ndomains: {}\nsabotage: {}\nexpect: {}\nops:\n{}",
            self.cfg.mode.label(),
            self.cfg.desc_pages,
            self.cfg.deferred_threshold,
            self.cfg.domains,
            sabotage_to_text(self.cfg.sabotage),
            self.expect.name(),
            ops_to_text(&self.ops),
        )
    }

    /// Parses a corpus file: `key: value` header lines, then `ops:`
    /// followed by one op per line. `#` lines are comments throughout.
    pub fn parse(text: &str) -> Result<CorpusCase, String> {
        let mut mode = None;
        let mut desc_pages = None;
        let mut threshold = None;
        let mut domains = None;
        let mut sabotage = Sabotage::None;
        let mut expect = None;
        let mut lines = text.lines();
        for raw in lines.by_ref() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if line == "ops:" {
                break;
            }
            let (key, value) = line
                .split_once(':')
                .ok_or_else(|| format!("malformed header line '{line}'"))?;
            let value = value.trim();
            match key.trim() {
                "mode" => mode = Some(parse_mode(value)?),
                "desc-pages" => desc_pages = Some(value.parse::<u64>().map_err(|e| e.to_string())?),
                "deferred-threshold" => {
                    threshold = Some(value.parse::<u32>().map_err(|e| e.to_string())?)
                }
                "domains" => domains = Some(value.parse::<u16>().map_err(|e| e.to_string())?),
                "sabotage" => sabotage = parse_sabotage(value)?,
                "expect" => {
                    expect = Some(
                        Invariant::from_name(value)
                            .ok_or_else(|| format!("unknown invariant '{value}'"))?,
                    )
                }
                other => return Err(format!("unknown header key '{other}'")),
            }
        }
        let mode = mode.ok_or("missing 'mode:' header")?;
        let desc_pages = desc_pages.unwrap_or(MbtConfig::for_mode(mode).desc_pages);
        if desc_pages == 0 || desc_pages > MAX_DESC_PAGES {
            return Err(format!(
                "desc-pages {desc_pages} is outside 1..={MAX_DESC_PAGES}"
            ));
        }
        if mode.huge_rx() && desc_pages != 512 {
            return Err(format!(
                "mode {} maps 512-page descriptors, not {desc_pages}",
                mode.label()
            ));
        }
        let ops = parse_ops(&lines.collect::<Vec<_>>().join("\n"))?;
        if ops.is_empty() {
            return Err("corpus case has no ops".to_string());
        }
        Ok(CorpusCase {
            cfg: MbtConfig {
                mode,
                desc_pages,
                deferred_threshold: threshold.unwrap_or(256),
                domains: domains.unwrap_or(1),
                sabotage,
            },
            expect: expect.ok_or("missing 'expect:' header")?,
            ops,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_replay_has_no_violations_in_every_mode() {
        // A generated trace, plus a short Rx/Tx interleaving (completions
        // ahead of any live packet, back-to-back Tx maps) that once broke
        // a driver-lifecycle property test.
        use Op::*;
        let interleaving = [
            PrepareRx,
            DmaRx { sel: 0 },
            CompleteRx { sel: 0 },
            DmaRx { sel: 0 },
            TxComplete { sel: 0 },
            TxMap { pages: 1 },
            TxComplete { sel: 0 },
            TxComplete { sel: 0 },
            TxComplete { sel: 0 },
            TxMap { pages: 3 },
            TxMap { pages: 1 },
            PrepareRx,
        ];
        for ops in [generate(0xC0FFEE, 200), interleaving.to_vec()] {
            for mode in ProtectionMode::ALL {
                let report = replay(MbtConfig::for_mode(mode), &ops);
                assert!(
                    report.is_clean(),
                    "{}: {:?}",
                    mode.label(),
                    report.samples.first()
                );
                if mode.iommu_enabled() {
                    assert!(report.checks > 0, "{}: nothing audited", mode.label());
                }
            }
        }
    }

    #[test]
    fn replay_is_deterministic() {
        let ops = generate(42, 150);
        let cfg = MbtConfig::for_mode(ProtectionMode::FastAndSafe);
        assert_eq!(replay(cfg, &ops), replay(cfg, &ops));
    }

    #[test]
    fn sabotaged_invalidation_is_caught_and_shrinks_small() {
        let cfg = MbtConfig {
            sabotage: Sabotage::SkipRangeInvalidation { nth: 1 },
            ..MbtConfig::for_mode(ProtectionMode::FastAndSafe)
        };
        let ops = generate(7, 150);
        let report = replay(cfg, &ops);
        assert!(
            violates(&report, Some(Invariant::InvalidationCompleteness)),
            "sabotage went unnoticed: {report:?}"
        );
        let small = shrink(cfg, &ops, Some(Invariant::InvalidationCompleteness));
        assert!(
            violates(
                &replay(cfg, &small),
                Some(Invariant::InvalidationCompleteness)
            ),
            "shrunk trace no longer violates"
        );
        assert!(
            small.len() <= 20,
            "shrunk trace still has {} ops: {small:?}",
            small.len()
        );
    }

    #[test]
    fn clean_multi_domain_replay_has_no_violations_in_every_mode() {
        let ops = generate_multi(0xD0D0, 200, 3);
        assert!(
            ops.iter().any(|o| matches!(o, Op::SetDomain { .. })),
            "multi-domain generator never switched devices"
        );
        for mode in ProtectionMode::ALL {
            let cfg = MbtConfig {
                domains: 3,
                ..MbtConfig::for_mode(mode)
            };
            let report = replay(cfg, &ops);
            assert!(
                report.is_clean(),
                "{}: {:?}",
                mode.label(),
                report.samples.first()
            );
        }
    }

    #[test]
    fn cross_domain_leak_is_caught_and_shrinks_small() {
        let cfg = MbtConfig {
            domains: 2,
            sabotage: Sabotage::CrossDomainLeak { nth: 1 },
            ..MbtConfig::for_mode(ProtectionMode::FastAndSafe)
        };
        let ops = generate_multi(11, 150, 2);
        let report = replay(cfg, &ops);
        assert!(
            violates(&report, Some(Invariant::CrossDomainIsolation)),
            "leak went unnoticed: {report:?}"
        );
        let small = shrink(cfg, &ops, Some(Invariant::CrossDomainIsolation));
        assert!(
            violates(&replay(cfg, &small), Some(Invariant::CrossDomainIsolation)),
            "shrunk trace no longer violates"
        );
        assert!(
            small.len() <= 20,
            "shrunk trace still has {} ops: {small:?}",
            small.len()
        );
    }

    #[test]
    fn skipped_domain_scoped_invalidation_leaks_across_tenants() {
        // Even inside the deferred window — where stale IOTLB hits are
        // tolerated within a domain — a stale hit that resolves to a frame
        // another tenant now owns is an isolation violation.
        let cfg = MbtConfig {
            domains: 2,
            sabotage: Sabotage::SkipDomainScopedInvalidation,
            ..MbtConfig::for_mode(ProtectionMode::LinuxDeferred)
        };
        let ops = parse_ops(concat!(
            "set-domain 1\n",
            "prepare-rx\n",
            "dma-rx 0\n",
            "complete-rx 0\n",
            "set-domain 0\n",
            "prepare-rx\n",
            "stale-probe 0\n",
        ))
        .unwrap();
        let report = replay(cfg, &ops);
        assert!(
            violates(&report, Some(Invariant::CrossDomainIsolation)),
            "cross-tenant frame reuse went unnoticed: {report:?}"
        );
        // The same trace without the sabotage is clean: quarantined frames
        // never migrate between tenants.
        let clean = MbtConfig {
            sabotage: Sabotage::None,
            ..cfg
        };
        assert!(replay(clean, &ops).is_clean());
    }

    #[test]
    fn ops_roundtrip_through_text() {
        let ops = generate(3, 40);
        assert_eq!(parse_ops(&ops_to_text(&ops)).unwrap(), ops);
    }

    #[test]
    fn multi_domain_ops_roundtrip_through_text() {
        let ops = generate_multi(5, 60, 4);
        assert_eq!(parse_ops(&ops_to_text(&ops)).unwrap(), ops);
    }

    #[test]
    fn corpus_case_roundtrips_and_rejects_garbage() {
        let case = CorpusCase {
            cfg: MbtConfig {
                mode: ProtectionMode::LinuxStrict,
                desc_pages: 64,
                deferred_threshold: 128,
                domains: 2,
                sabotage: Sabotage::SkipRangeInvalidation { nth: 2 },
            },
            expect: Invariant::InvalidationCompleteness,
            ops: generate(9, 12),
        };
        assert_eq!(CorpusCase::parse(&case.to_text()).unwrap(), case);
        assert!(CorpusCase::parse("mode: nonsense\nops:\nprepare-rx\n").is_err());
        assert!(CorpusCase::parse("ops:\nprepare-rx\n").is_err());
        assert!(CorpusCase::parse("mode: fast-and-safe\nexpect: strict-safety\nops:\n").is_err());
    }
}
