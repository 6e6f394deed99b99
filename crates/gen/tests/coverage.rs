//! Coverage audit of the committed 200-seed block (DESIGN.md §10): the
//! differential-testing campaign claims its seed block "exercises the
//! grammar and every stage pair" — this test makes the claim checkable and
//! keeps it true under generator drift.
//!
//! * **Constructor coverage** is syntactic and cheap: fold
//!   [`Coverage::of_program`] over the 200 generated programs (both the CI
//!   `quick` shape and the default campaign shape) and demand that every
//!   statement and expression constructor occurs. On failure the assert
//!   prints the *sorted* unreached-constructor list
//!   ([`Coverage::missing`]), so drift reports are stable.
//! * **Stage-pair coverage** needs the oracle: run seeds from the block
//!   through [`compiler::run_seed_obs`] until all six non-baseline stages
//!   (`simpl-locals`, `rtl`, `rtl-opt`, `linear`, `mach`, `asm`) have been
//!   compared against the Clight baseline at least once. Covering a prefix
//!   covers the block; failing to cover it with the *whole* block fails
//!   the test with the sorted missing-pair list.
//!
//! This is a dev-dependency cycle (gen → compiler for tests only), which
//! Cargo permits and the workspace already uses for cross-layer audits.

use std::collections::BTreeSet;

use compcerto_gen::{generate, Coverage, GenCfg};
use compiler::{run_seed_obs, DifftestCfg, SeedOutcome, STAGES};

/// The committed campaign seed block: seeds `0..200` (the prefix of the
/// 500-seed `DIFFTEST.json` sweep and the whole of the `differential.rs`
/// regression block).
const BLOCK: u64 = 200;

fn block_coverage(cfg: &GenCfg) -> Coverage {
    let mut cov = Coverage::default();
    for seed in 0..BLOCK {
        cov.merge(&Coverage::of_program(&generate(seed, cfg)));
    }
    cov
}

#[test]
fn quick_block_reaches_every_constructor() {
    let cov = block_coverage(&GenCfg::quick());
    assert!(
        cov.complete(),
        "200-seed quick block misses constructors (sorted): {:?}",
        cov.missing()
    );
}

#[test]
fn default_block_reaches_every_constructor() {
    let cov = block_coverage(&GenCfg::default());
    assert!(
        cov.complete(),
        "200-seed default block misses constructors (sorted): {:?}",
        cov.missing()
    );
}

#[test]
fn missing_list_is_sorted_and_exhaustive_on_a_trivial_program() {
    // A single-seed "block" cannot cover the grammar; the report must name
    // what is missing, sorted, so two drift reports diff cleanly.
    let cov = Coverage::of_program(&generate(0, &GenCfg::quick()));
    let missing = cov.missing();
    let mut sorted = missing.clone();
    sorted.sort();
    assert_eq!(missing, sorted, "missing() must return a sorted list");
    // And merging the full block erases the deficit.
    let full = block_coverage(&GenCfg::quick());
    assert!(
        full.missing().is_empty(),
        "constructors never generated across the whole block: {:?}",
        full.missing()
    );
}

#[test]
fn block_compares_every_stage_pair() {
    let cfg = DifftestCfg {
        reduce: false, // nothing to reduce when auditing coverage
        ..DifftestCfg::quick()
    };
    let want: BTreeSet<&'static str> = STAGES[1..].iter().copied().collect();
    let mut seen: BTreeSet<&'static str> = BTreeSet::new();
    for seed in 0..BLOCK {
        let (report, obs) = run_seed_obs(seed, &cfg);
        assert!(
            !matches!(report.outcome, SeedOutcome::Finding { .. }),
            "seed {seed} produced a finding during the coverage audit"
        );
        seen.extend(obs.stages_compared.iter().copied());
        if seen == want {
            return; // a prefix of the block covers all six stage pairs
        }
    }
    let missing: Vec<&&str> = want.difference(&seen).collect();
    panic!("stage pairs never compared by the 200-seed block (sorted): {missing:?}");
}
