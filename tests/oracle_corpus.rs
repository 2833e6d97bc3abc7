//! Replays the checked-in violation corpus against the oracle.
//!
//! Each file under `tests/corpus/` is a ddmin-minimized op trace plus the
//! seeded driver bug ([`Sabotage`]) that produced it and the invariant it
//! must trip (regenerate with `cargo run --example shrink_corpus`). The
//! tests prove two directions:
//!
//! * **the bug is caught** — replaying the trace with its sabotage armed
//!   still violates exactly the expected invariant class, so an oracle
//!   refactor cannot silently stop detecting it;
//! * **the guard is the cause** — replaying the same trace with the
//!   sabotage disarmed is violation-free, so the corpus never encodes a
//!   false positive.

use fns::core::Sabotage;
use fns::harness::mbt::{
    generate, replay, shrink, violates, CorpusCase, MbtConfig, LIVE_CAP, MAX_DESC_PAGES,
};
use fns::oracle::Invariant;

const CORPUS: &[&str] = &[
    "skip_inval_fns.txt",
    "skip_inval_linux_strict.txt",
    "skip_reclaim_fixup.txt",
    "skip_deferred_flush.txt",
    "skip_inval_huge.txt",
    "cross_domain_leak.txt",
    "skip_domain_scoped_inval.txt",
];

fn read(file: &str) -> String {
    let path = format!("{}/tests/corpus/{file}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("missing corpus file {path}: {e}"))
}

fn load(file: &str) -> CorpusCase {
    CorpusCase::parse(&read(file)).unwrap_or_else(|e| panic!("malformed corpus file {file}: {e}"))
}

#[test]
fn every_corpus_trace_reproduces_its_violation() {
    for file in CORPUS {
        let case = load(file);
        let report = replay(case.cfg, &case.ops);
        assert!(
            violates(&report, Some(case.expect)),
            "{file}: sabotaged replay no longer violates {} ({})",
            case.expect.name(),
            report.summary()
        );
        assert!(
            case.ops.len() <= 20,
            "{file}: corpus trace has grown to {} ops — re-shrink it",
            case.ops.len()
        );
    }
}

#[test]
fn every_corpus_trace_is_clean_without_its_sabotage() {
    for file in CORPUS {
        let case = load(file);
        assert_ne!(case.cfg.sabotage, Sabotage::None, "{file}: no sabotage?");
        let clean_cfg = MbtConfig {
            sabotage: Sabotage::None,
            ..case.cfg
        };
        let report = replay(clean_cfg, &case.ops);
        assert!(
            report.is_clean(),
            "{file}: violates even without its sabotage — false positive: {:?}",
            report.samples.first()
        );
    }
}

/// The corpus spans more than one invariant class — a regression that
/// collapsed detection to a single class would still pass per-file checks.
#[test]
fn corpus_covers_multiple_invariant_classes() {
    let classes: std::collections::BTreeSet<&'static str> =
        CORPUS.iter().map(|f| load(f).expect.name()).collect();
    assert!(
        classes.len() >= 2,
        "corpus only covers {classes:?} — add another class"
    );
    assert!(
        classes.contains("cross-domain-isolation"),
        "corpus lost its multi-tenant reproducers: {classes:?}"
    );
}

/// The acceptance check, end to end: arm a fresh seeded bug (not one of
/// the corpus seeds), confirm the oracle catches it on a random trace,
/// and confirm the shrinker reduces the reproducer to at most 20 ops.
#[test]
fn fresh_seeded_bug_is_caught_and_shrinks_to_at_most_20_ops() {
    let cfg = MbtConfig {
        sabotage: Sabotage::SkipRangeInvalidation { nth: 2 },
        ..MbtConfig::for_mode(fns::core::ProtectionMode::LinuxContig)
    };
    let ops = generate(0xFEED, 200);
    let report = replay(cfg, &ops);
    assert!(
        violates(&report, Some(Invariant::InvalidationCompleteness)),
        "seeded bug went unnoticed: {}",
        report.summary()
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
        "shrunk reproducer still has {} ops",
        small.len()
    );
}

/// A corpus file that parses must replay: every checked-in file, with its
/// `desc-pages` header rewritten to a size the replay driver cannot build
/// (zero pages, a 2 MB mode's descriptor that is not 2 MB, more pages than the
/// cap), is refused at parse time instead of panicking in `replay`.
#[test]
fn corpus_files_with_unreplayable_descriptor_sizes_are_refused() {
    for file in CORPUS {
        let text = read(file);
        assert!(
            text.contains("\ndesc-pages: "),
            "{file}: no desc-pages header"
        );
        let mut sizes = vec![0, MAX_DESC_PAGES + 1, 100_000_000];
        if load(file).cfg.mode.huge_rx() {
            sizes.push(64);
        }
        for pages in sizes {
            let rewritten: String = text
                .lines()
                .map(|l| {
                    if l.starts_with("desc-pages:") {
                        format!("desc-pages: {pages}\n")
                    } else {
                        format!("{l}\n")
                    }
                })
                .collect();
            assert!(
                CorpusCase::parse(&rewritten).is_err(),
                "{file}: desc-pages {pages} parsed"
            );
        }
    }
    // The cap itself parses and replays: LIVE_CAP descriptors of the
    // largest size fit the replay's frame pool.
    let text = format!(
        "mode: fast-and-safe\ndesc-pages: {MAX_DESC_PAGES}\nexpect: strict-safety\nops:\n{}",
        "prepare-rx\n".repeat(LIVE_CAP + 1)
    );
    let case = CorpusCase::parse(&text).expect("the cap parses");
    assert!(replay(case.cfg, &case.ops).is_clean());
}
