//! Observability campaign (EXPERIMENTS.md row B9): regenerate and gate the
//! committed `OBS.json` — the deterministic counter baseline of the
//! observability layer (DESIGN.md §10).
//!
//! Three phases:
//!
//! 1. **Golden compile** — the five committed golden workloads
//!    (`crates/compiler/tests/golden/*.c`, embedded at build time) are
//!    compiled with metrics on; their per-unit deterministic counters
//!    (IR sizes, solver iterations, memory-model traffic) are aggregated.
//! 2. **Difftest sweep** — a block of seeds runs through
//!    [`compiler::run_seed_obs`]: the cross-stage oracle under full
//!    observability. Per-seed counter deltas, generator grammar coverage and
//!    the compared stage pairs are folded in seed order (commutative sums
//!    and set unions: the bag is byte-identical for every `--jobs` setting).
//! 3. **Overhead probe** — the golden workloads are compiled in a loop with
//!    metrics off and again with metrics on; the wall-clock ratio is
//!    reported under `timings_ms` (volatile, stripped by the normalizer)
//!    and optionally gated by `--max-overhead PCT` (with an absolute slack
//!    so sub-millisecond noise cannot flake CI).
//!
//! `--check PATH` compares the freshly computed document against a
//! committed baseline through [`compiler::normalize_metrics_json`] — i.e.
//! after stripping the volatile `pool`/`timings_ms` sections — and exits 1
//! on drift. Counters are gated; wall-clock never is. The flags, the
//! `--check` preflight and the exit codes are the campaign kernel's
//! ([`bench::campaign`]).
//!
//! ```text
//! cargo run --release -p bench --bin obs_campaign -- \
//!     [--seeds N] [--reps N] [--max-overhead PCT] [--jobs N|auto] \
//!     [--out PATH | --check PATH]
//! ```

use std::collections::BTreeSet;
use std::process::ExitCode;
use std::time::Instant;

use bench::campaign::{self, Args, Campaign, Echo, Spec};
use compcerto_gen::Coverage;
use compiler::{
    compile_all, normalize_metrics_json, par_map, pool_stats, run_seed_obs, CompilerOptions,
    Counters, DifftestCfg, Jobs, MetricsReport, SeedOutcome, OBS_SCHEMA, STAGES,
};

/// The five golden workloads, embedded so the binary is cwd-independent.
const GOLDEN: [(&str, &str); 5] = [
    ("arith", include_str!("../../../compiler/tests/golden/arith.c")),
    ("branch", include_str!("../../../compiler/tests/golden/branch.c")),
    ("calls", include_str!("../../../compiler/tests/golden/calls.c")),
    ("loop", include_str!("../../../compiler/tests/golden/loop.c")),
    ("memory", include_str!("../../../compiler/tests/golden/memory.c")),
];

struct Cli {
    seeds: u64,
    reps: usize,
    max_overhead: Option<f64>,
}

impl Default for Cli {
    fn default() -> Cli {
        Cli {
            seeds: 16,
            reps: 40,
            max_overhead: None,
        }
    }
}

impl Campaign for Cli {
    const SPEC: Spec = Spec {
        bin: "obs_campaign",
        usage: "[--seeds N] [--reps N] [--max-overhead PCT]",
        out: Some("OBS.json"),
        schema: OBS_SCHEMA,
        normalize: Some(normalize_metrics_json),
        block: None,
    };

    fn flag(&mut self, flag: &str, args: &mut Args) -> Result<bool, String> {
        match flag {
            "--seeds" => self.seeds = args.num(flag)?,
            "--reps" => self.reps = args.num(flag)?,
            "--max-overhead" => self.max_overhead = Some(args.num(flag)?),
            _ => return Ok(false),
        }
        Ok(true)
    }

    fn header(&self) -> Vec<Echo> {
        vec![("seed count", "difftest.seeds", "--seeds", self.seeds.to_string())]
    }
}

/// Compile every golden workload once; returns the aggregate report.
fn golden_phase() -> Result<MetricsReport, String> {
    let srcs: Vec<&str> = GOLDEN.iter().map(|(_, s)| *s).collect();
    let (units, _symtab) = compile_all(&srcs, CompilerOptions::validated().with_metrics())
        .map_err(|e| format!("golden workloads failed to compile: {e}"))?;
    Ok(MetricsReport::from_units("golden-compile", &units))
}

/// Wall-clock of `reps` compilations of the golden block under `opts`.
fn time_compiles(reps: usize, opts: CompilerOptions) -> Result<f64, String> {
    let srcs: Vec<&str> = GOLDEN.iter().map(|(_, s)| *s).collect();
    let t0 = Instant::now();
    for _ in 0..reps {
        let (units, _) =
            compile_all(&srcs, opts).map_err(|e| format!("overhead probe compile: {e}"))?;
        // Keep the optimizer honest.
        std::hint::black_box(units.len());
    }
    Ok(t0.elapsed().as_secs_f64() * 1000.0)
}

struct DifftestPhase {
    agree: usize,
    skipped: usize,
    findings: usize,
    counters: Counters,
    coverage: Coverage,
    stages: BTreeSet<&'static str>,
}

fn difftest_phase(seeds: u64, jobs: Jobs) -> DifftestPhase {
    let cfg = DifftestCfg::quick();
    let block: Vec<u64> = (0..seeds).collect();
    let results = par_map(jobs, &block, |_, &s| run_seed_obs(s, &cfg));
    let mut out = DifftestPhase {
        agree: 0,
        skipped: 0,
        findings: 0,
        counters: Counters::default(),
        coverage: Coverage::default(),
        stages: BTreeSet::new(),
    };
    for (report, obs) in &results {
        match &report.outcome {
            SeedOutcome::Agree { .. } => out.agree += 1,
            SeedOutcome::Skipped(_) => out.skipped += 1,
            SeedOutcome::Finding { .. } => out.findings += 1,
        }
        out.counters.add(&obs.counters);
        out.coverage.merge(&obs.coverage);
        out.stages.extend(obs.stages_compared.iter().copied());
    }
    out
}

#[allow(clippy::too_many_arguments)]
fn render_json(
    cli: &Cli,
    golden: &MetricsReport,
    dt: &DifftestPhase,
    off_ms: f64,
    on_ms: f64,
) -> String {
    let overhead_pct = if off_ms > 0.0 {
        (on_ms - off_ms) / off_ms * 100.0
    } else {
        0.0
    };
    let pool = pool_stats();
    let mut j = String::new();
    j.push_str("{\n");
    j.push_str(&format!("  \"schema\": \"{OBS_SCHEMA}\",\n"));
    j.push_str("  \"kind\": \"obs-campaign\",\n");
    j.push_str(&format!(
        "  \"items\": {},\n",
        golden.items + cli.seeds
    ));
    j.push_str("  \"golden\": {\n");
    j.push_str(&format!("    \"units\": {},\n", golden.items));
    j.push_str(&format!(
        "    \"counters\": {}\n",
        golden.counters.to_json_object(4)
    ));
    j.push_str("  },\n");
    j.push_str("  \"difftest\": {\n");
    j.push_str(&format!("    \"seeds\": {},\n", cli.seeds));
    j.push_str(&format!("    \"agree\": {},\n", dt.agree));
    j.push_str(&format!("    \"skipped\": {},\n", dt.skipped));
    j.push_str(&format!("    \"findings\": {},\n", dt.findings));
    j.push_str(&format!(
        "    \"counters\": {},\n",
        dt.counters.to_json_object(4)
    ));
    j.push_str("    \"gen_coverage\": {\n");
    j.push_str(&format!("      \"complete\": {},\n", dt.coverage.complete()));
    j.push_str(&format!(
        "      \"missing\": [{}],\n",
        dt.coverage
            .missing()
            .iter()
            .map(|m| format!("\"{m}\""))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    j.push_str("      \"counters\": {\n");
    let entries = dt.coverage.counter_entries();
    for (i, (k, v)) in entries.iter().enumerate() {
        j.push_str(&format!(
            "        \"{k}\": {v}{}\n",
            if i + 1 < entries.len() { "," } else { "" }
        ));
    }
    j.push_str("      }\n");
    j.push_str("    },\n");
    j.push_str(&format!(
        "    \"stages_compared\": [{}],\n",
        dt.stages
            .iter()
            .map(|s| format!("\"{s}\""))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    j.push_str(&format!(
        "    \"stage_pairs\": \"{}/{}\"\n",
        dt.stages.len(),
        STAGES.len() - 1
    ));
    j.push_str("  },\n");
    j.push_str("  \"pool\": {\n");
    j.push_str(&format!("    \"pools\": {},\n", pool.pools));
    j.push_str(&format!("    \"items\": {},\n", pool.items));
    j.push_str(&format!("    \"workers_max\": {},\n", pool.workers_max));
    j.push_str(&format!(
        "    \"busiest_worker_items\": {}\n",
        pool.busiest_worker_items
    ));
    j.push_str("  },\n");
    j.push_str("  \"timings_ms\": {\n");
    j.push_str(&format!("    \"golden_compile\": {:.3},\n", golden.total_ms));
    j.push_str(&format!(
        "    \"overhead_probe\": {{\"reps\": {}, \"metrics_off\": {off_ms:.3}, \
         \"metrics_on\": {on_ms:.3}, \"overhead_pct\": {overhead_pct:.2}}}\n",
        cli.reps
    ));
    j.push_str("  }\n");
    j.push_str("}\n");
    j
}

fn main() -> ExitCode {
    let (k, cli) = campaign::start::<Cli>();
    println!(
        "obs_campaign: seeds={} reps={} (quick difftest profile)",
        cli.seeds, cli.reps
    );

    // Phase 1 — golden compile metrics.
    let golden = golden_phase().unwrap_or_else(|e| bench::fail(e));
    println!(
        "golden: {} units, {} counter keys",
        golden.items,
        golden.counters.0.len()
    );

    // Phase 2 — observed difftest sweep.
    let dt = difftest_phase(cli.seeds, k.jobs);
    println!(
        "difftest: {} agree, {} skipped, {} findings, stage pairs {}/{}, \
         grammar coverage complete: {}",
        dt.agree,
        dt.skipped,
        dt.findings,
        dt.stages.len(),
        STAGES.len() - 1,
        dt.coverage.complete()
    );

    // Phase 3 — overhead probe (volatile; reported, optionally gated with
    // absolute slack).
    let time = |opts| time_compiles(cli.reps, opts).unwrap_or_else(|e| bench::fail(e));
    let off_ms = time(CompilerOptions::validated());
    let on_ms = time(CompilerOptions::validated().with_metrics());
    let overhead_pct = if off_ms > 0.0 {
        (on_ms - off_ms) / off_ms * 100.0
    } else {
        0.0
    };
    println!(
        "overhead probe: metrics off {off_ms:.1} ms, on {on_ms:.1} ms ({overhead_pct:+.2}%)"
    );

    let mut failed = false;
    if dt.findings > 0 {
        eprintln!("error: difftest sweep produced {} finding(s)", dt.findings);
        failed = true;
    }
    if !dt.coverage.complete() {
        eprintln!(
            "error: grammar coverage incomplete, missing: {:?}",
            dt.coverage.missing()
        );
        failed = true;
    }
    if let Some(max) = cli.max_overhead {
        // Absolute slack: tiny workloads measure in single-digit
        // milliseconds where scheduler noise dwarfs any real cost.
        const SLACK_MS: f64 = 50.0;
        if on_ms > off_ms * (1.0 + max / 100.0) + SLACK_MS {
            eprintln!(
                "error: metrics overhead {overhead_pct:.2}% exceeds the {max:.1}% gate \
                 (off {off_ms:.1} ms, on {on_ms:.1} ms, slack {SLACK_MS} ms)"
            );
            failed = true;
        } else {
            println!("overhead gate: within {max:.1}% (+{SLACK_MS} ms slack)");
        }
    }
    k.finish(&render_json(&cli, &golden, &dt, off_ms, on_ms), failed)
}
