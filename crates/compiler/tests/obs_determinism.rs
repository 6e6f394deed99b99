//! Observability determinism (DESIGN.md §10): the *deterministic* half of
//! a metrics report — its item count and counter bag — must be identical
//! across worker-pool widths and across repeated runs. The *volatile* half
//! (pool stats, wall-clock spans) is not compared: it legitimately differs
//! run to run, and no committed baseline carries it.
//!
//! Two corpora are pinned:
//!
//! * the five committed golden workloads (`tests/golden/*.c`), compiled
//!   with metrics on under `--jobs 1/4/16`;
//! * a 50-seed difftest block run through [`run_seed_obs`] under the same
//!   three pool widths, with coverage and stage sets folded in seed order.

use std::collections::BTreeSet;

use compcerto_gen::Coverage;
use compiler::{
    compile_all_jobs, par_map, run_seed_obs, CompilerOptions, Counters, DifftestCfg, Jobs,
    MetricsReport, ObsSnapshot,
};

const GOLDEN: [&str; 5] = [
    include_str!("golden/arith.c"),
    include_str!("golden/branch.c"),
    include_str!("golden/calls.c"),
    include_str!("golden/loop.c"),
    include_str!("golden/memory.c"),
];

const DIFFTEST_SEEDS: u64 = 50;

/// The deterministic half of a metrics report: its item count and counters.
type Deterministic = (u64, Counters);

/// Compile the golden corpus with metrics on under `jobs` and return its
/// metrics report.
fn golden_report(jobs: Jobs) -> MetricsReport {
    let (units, _tbl) =
        compile_all_jobs(&GOLDEN, CompilerOptions::validated().with_metrics(), jobs)
            .expect("golden corpus compiles");
    MetricsReport::from_units("golden-compile", &units)
}

/// The golden report's deterministic half under `jobs`.
fn golden_metrics(jobs: Jobs) -> Deterministic {
    let report = golden_report(jobs);
    (report.items, report.counters)
}

/// Run the 50-seed difftest block under `jobs`; returns the report's
/// deterministic half plus the folded coverage/stage observations.
fn difftest_metrics(jobs: Jobs) -> (Deterministic, Coverage, BTreeSet<&'static str>) {
    let cfg = DifftestCfg::quick();
    let seeds: Vec<u64> = (0..DIFFTEST_SEEDS).collect();
    let results = par_map(jobs, &seeds, |_, &s| run_seed_obs(s, &cfg));
    let mut coverage = Coverage::default();
    let mut stages = BTreeSet::new();
    let mut report = MetricsReport {
        kind: "difftest".into(),
        ..MetricsReport::default()
    };
    for (seed_report, obs) in &results {
        assert!(
            !matches!(seed_report.outcome, compiler::SeedOutcome::Finding { .. }),
            "seed {} produced a finding",
            seed_report.seed
        );
        coverage.merge(&obs.coverage);
        stages.extend(obs.stages_compared.iter().copied());
        report.absorb_counters(&obs.counters);
    }
    ((report.items, report.counters), coverage, stages)
}

#[test]
fn golden_metrics_are_jobs_invariant_and_repeatable() {
    let r1 = golden_report(Jobs::N(1));
    let json = r1.to_json();
    let j1 = (r1.items, r1.counters);
    let j4 = golden_metrics(Jobs::N(4));
    let j16 = golden_metrics(Jobs::N(16));
    assert_eq!(j1, j4, "golden metrics differ between --jobs 1 and 4");
    assert_eq!(j1, j16, "golden metrics differ between --jobs 1 and 16");
    // Two runs at the same width must also agree byte-for-byte: counters
    // may not depend on thread-local history or allocation addresses.
    let again = golden_metrics(Jobs::N(4));
    assert_eq!(j4, again, "golden metrics differ across two identical runs");
    let (items, c) = &j1;
    assert_eq!(*items, GOLDEN.len() as u64);
    // The rendered report (`ccomp-o --metrics-json`) carries the schema
    // tag and the counter bag with every key below.
    assert!(json.contains("\"schema\": \"compcerto-obs/1\""));
    assert!(json.contains("\"counters\""));
    let has = |k: &str| c.0.contains_key(k) && json.contains(&format!("\"{k}\": "));
    assert!(has("ir.asm_instrs"));
    assert!(has("solver.rtl_iterations"));
    // The abstract-interpretation tier (DESIGN.md §12) reports its own
    // solver effort and per-pass rewrite deltas, all jobs-invariant.
    assert!(has("solver.value.iters"));
    assert!(has("solver.needed.iters"));
    assert!(
        c.get("solver.value.iters") > 0,
        "value-analysis solver never iterated on the golden corpus"
    );
    assert!(
        c.get("solver.needed.iters") > 0,
        "neededness solver never iterated on the golden corpus"
    );
    assert!(has("ir.vprop_rewrites"));
    assert!(has("ir.ndce_eliminated"));
    assert!(
        c.get("ir.ndce_eliminated") > 0,
        "ndce deleted nothing on the golden corpus"
    );
}

/// The caller's own counter delta around a golden compile under `jobs`:
/// the pool folds its workers' counters into the caller at join.
fn golden_caller_delta(jobs: Jobs) -> Counters {
    let snap = ObsSnapshot::take();
    compile_all_jobs(&GOLDEN, CompilerOptions::validated().with_metrics(), jobs)
        .expect("golden corpus compiles");
    snap.delta()
}

#[test]
fn caller_counters_include_pool_workers() {
    let d1 = golden_caller_delta(Jobs::N(1));
    assert_eq!(d1, golden_caller_delta(Jobs::N(4)), "--jobs 1 vs 4");
    assert_eq!(d1, golden_caller_delta(Jobs::N(16)), "--jobs 1 vs 16");
    assert!(d1.get("mem.allocs") > 0, "no allocations counted: {d1:?}");
    assert!(
        d1.get("solver.rtl_iterations") > 0,
        "no solver work counted: {d1:?}"
    );
}

#[test]
fn difftest_block_metrics_are_jobs_invariant_and_repeatable() {
    let (j1, cov1, st1) = difftest_metrics(Jobs::N(1));
    let (j4, cov4, st4) = difftest_metrics(Jobs::N(4));
    let (j16, cov16, st16) = difftest_metrics(Jobs::N(16));
    assert_eq!(j1, j4, "difftest metrics differ between --jobs 1 and 4");
    assert_eq!(j1, j16, "difftest metrics differ between --jobs 1 and 16");
    assert_eq!(cov1, cov4);
    assert_eq!(cov1, cov16);
    assert_eq!(st1, st4);
    assert_eq!(st1, st16);
    // Repeatability at a fixed width.
    let (again, _, _) = difftest_metrics(Jobs::N(4));
    assert_eq!(j4, again, "difftest metrics differ across two runs");
    // The 50-seed block must be doing real work: interpreters ran at every
    // stage, memory traffic happened, both solver families iterated.
    let (items, c) = &j1;
    assert_eq!(*items, DIFFTEST_SEEDS);
    assert!(c.0.contains_key("lts.runs"));
    assert!(c.get("lts.runs") > 0, "no LTS runs recorded");
    assert!(c.get("mem.loads") > 0, "no memory loads recorded");
    assert!(
        c.get("solver.rtl_iterations") > 0,
        "RTL dataflow solver never iterated"
    );
    assert!(
        c.get("solver.validate_iterations") > 0,
        "validator dataflow solver never iterated"
    );
    assert!(
        c.get("solver.value.iters") > 0,
        "value-analysis solver never iterated over the difftest block"
    );
    assert!(
        c.get("solver.needed.iters") > 0,
        "neededness solver never iterated over the difftest block"
    );
}
