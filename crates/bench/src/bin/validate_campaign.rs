//! Static-vs-dynamic detection matrix (EXPERIMENTS.md row B6).
//!
//! Two phases:
//!
//! 1. **Soundness-of-the-validators gate** — compile a battery of in-repo
//!    programs (the fixed campaign/example sources plus seeded random
//!    workloads) with the static validation layer on; any diagnostic on an
//!    honest compilation is a validator bug and fails the run.
//! 2. **Sensitivity matrix** — run the fault-injection campaign with both
//!    detection layers and print, per mutation class: mutants generated,
//!    caught statically (translation validators + lints, no execution),
//!    caught dynamically (Thm 3.8 checker), caught by both, caught by
//!    exactly one, and fully escaped.
//!
//! Usage:
//!
//! ```text
//! cargo run -p bench --bin validate_campaign -- \
//!     [--seed N] [--per-class N] [--fuel N] [--jobs N|auto]
//! ```
//!
//! Output is byte-deterministic for a given seed and any `--jobs` value
//! (SplitMix64 sites, fuel budgets, ordered maps, index-ordered pool
//! results — no wall-clock anywhere). Exits 1 if the honest battery is not
//! statically clean, or if any of the 10 mutation classes escapes the
//! static layer (the abstract-interpretation validators closed the last
//! gap, rtl-constant-drift — DESIGN.md §12). The flags and the exit codes
//! are the campaign kernel's ([`bench::campaign`]).

use std::fmt::Write as _;
use std::process::ExitCode;

use bench::campaign::{self, Args, Campaign, Spec};
use compcerto_gen::{generate, GenCfg};
use compiler::{compile_all_jobs, par_map, run_campaign, CampaignCfg, CompilerOptions, Jobs};

/// Fixed honest sources: the campaign workload and the example programs.
const FIXED_SOURCES: [(&str, &str); 3] = [
    ("campaign", compiler::faultinj::CAMPAIGN_SRC),
    (
        "mult-sqr",
        "extern int mult(int, int); int sqr(int n) { int r; r = mult(n, n); return r; }",
    ),
    (
        "collatz",
        "
        int collatz_len(int n) {
            int len;
            len = 0;
            while (n > 1) {
                if (n - n / 2 * 2 == 1) { n = 3 * n + 1; } else { n = n / 2; }
                len = len + 1;
            }
            return len;
        }
        int entry(int n) { int l; l = collatz_len(n + 1); return l; }",
    ),
];

/// How many seeded random workload programs the gate compiles.
const WORKLOAD_PROGRAMS: u64 = 10;

/// Phase 1: every honest compilation must be statically clean, under both
/// `-O2` (default passes) and `-O0`.
///
/// Workload program `i` is generated from `seed + i`; the per-program
/// compile+validate work fans out over `jobs` workers, with the report for
/// each program collected in input order so failure messages are
/// deterministic.
fn honest_gate(seed: u64, jobs: Jobs) -> Result<usize, String> {
    let mut sources: Vec<(String, String)> = FIXED_SOURCES
        .iter()
        .map(|(n, s)| (n.to_string(), s.to_string()))
        .collect();
    let cfg = GenCfg::single_unit();
    for i in 0..WORKLOAD_PROGRAMS {
        let src = generate(seed.wrapping_add(i), &cfg).render().remove(0);
        sources.push((format!("workload-{i}"), src));
    }
    let per_program: Vec<Result<usize, String>> = par_map(jobs, &sources, |_, (name, src)| {
        let mut checked = 0usize;
        for (level, opts) in [
            ("O2", CompilerOptions::validated()),
            (
                "O0",
                CompilerOptions {
                    validate: true,
                    ..CompilerOptions::none()
                },
            ),
        ] {
            // Units within one program are compiled serially here; the
            // parallelism lives at the program level of the battery.
            let (units, _) = compile_all_jobs(&[src.as_str()], opts, Jobs::N(1))
                .map_err(|e| format!("{name} [{level}] failed to compile: {e}"))?;
            for u in &units {
                if !u.diagnostics.is_empty() {
                    return Err(format!(
                        "{name} [{level}]: {} diagnostic(s) on an honest compilation, e.g. {}",
                        u.diagnostics.len(),
                        u.diagnostics[0]
                    ));
                }
            }
            checked += 1;
        }
        Ok(checked)
    });
    let mut checked = 0usize;
    for r in per_program {
        checked += r?;
    }
    Ok(checked)
}

#[derive(Default)]
struct Cli(CampaignCfg);

impl Campaign for Cli {
    const SPEC: Spec = Spec {
        bin: "validate_campaign",
        usage: "[--seed N] [--per-class N] [--fuel N]",
        out: None,
        schema: "",
        block: None,
    };

    fn flag(&mut self, flag: &str, args: &mut Args) -> Result<bool, String> {
        match flag {
            "--seed" => self.0.seed = args.num(flag)?,
            "--per-class" => self.0.per_class = args.num(flag)?,
            "--fuel" => self.0.fuel = args.num(flag)?,
            _ => return Ok(false),
        }
        Ok(true)
    }
}

fn main() -> ExitCode {
    let (k, Cli(mut cfg)) = campaign::start::<Cli>();
    cfg.jobs = k.jobs;

    println!("phase 1: honest-compilation gate (seed={})", cfg.seed);
    match honest_gate(cfg.seed, cfg.jobs) {
        Ok(n) => println!("  {n} compilations statically clean"),
        Err(e) => bench::fail(format!("honest gate failed: {e}")),
    }

    let report = run_campaign(&cfg).unwrap_or_else(|e| bench::fail(e));
    let mut out = format!(
        "phase 2: static-vs-dynamic matrix (seed={} per-class={} fuel={})\n",
        cfg.seed, cfg.per_class, cfg.fuel
    );
    let _ = writeln!(
        out,
        "{:<24} {:>8} {:>7} {:>8} {:>5} {:>12} {:>13} {:>8}",
        "class", "mutants", "static", "dynamic", "both", "static-only", "dynamic-only", "escaped"
    );
    for s in &report.stats {
        let _ = writeln!(
            out,
            "{:<24} {:>8} {:>7} {:>8} {:>5} {:>12} {:>13} {:>8}",
            s.class.name(),
            s.generated,
            s.static_caught,
            s.detected,
            s.caught_both,
            s.static_caught - s.caught_both,
            s.detected - s.caught_both,
            s.escapes_both(),
        );
    }
    let caught = report.statically_caught_classes();
    let _ = writeln!(
        out,
        "classes fully caught statically: {caught}/{}; dynamic escapes: {}",
        report.stats.len(),
        report.total_escapes()
    );
    // Since the abstract-interpretation validators closed the
    // rtl-constant-drift gap (DESIGN.md §12), every class must be fully
    // caught statically — escapes are regressions, not known limitations.
    if caught < report.stats.len() {
        eprintln!(
            "validate_campaign: only {caught}/{} classes caught statically (need all)",
            report.stats.len()
        );
    }
    k.finish(&out, caught < report.stats.len())
}
