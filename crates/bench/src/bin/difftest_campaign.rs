//! Differential-testing campaign (EXPERIMENTS.md row B8): run the seeded
//! generator → cross-stage oracle over a block of seeds, shrink any finding
//! to a minimal reproducer, and re-run the fault-injection mutation classes
//! against generated programs to measure escape rates on random inputs.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p bench --bin difftest_campaign -- \
//!     [--seeds N] [--seed-base N] [--jobs N|auto] [--quick] \
//!     [--fuel N] [--queries N] [--no-reduce] \
//!     [--escape-seeds N] [--per-class N] [--out PATH] \
//!     [--block N] [--ckpt PATH] [--resume] [--max-blocks N] \
//!     [--check PATH]
//! ```
//!
//! Writes a machine-readable summary (schema `compcerto-difftest/1`) to
//! `DIFFTEST.json` (or `--out`). With `--check PATH` the campaign runs,
//! renders the report and byte-compares it to the committed baseline
//! instead of writing: a mismatch is a regression (exit 1). Before any
//! seed runs, the baseline's own configuration header (`seeds`,
//! `seed_base`, `quick`, `fuel`, `queries_per_seed`) is compared to this
//! invocation's — a mismatch (e.g. checking a 500-seed baseline with
//! `--seeds 50`) is a **usage error (exit 2)** that names the exact
//! regeneration command, never a silent half-comparison. The report is **byte-identical for a given
//! seed block under any `--jobs` setting**: every per-seed verdict is a pure
//! function of `(seed, cfg)`, the fan-out uses the order-preserving worker
//! pool ([`compiler::par_map`]), and the JSON deliberately records no
//! machine facts (no core counts, no timings). `ci.sh` runs `--quick` and
//! fails on any finding, then re-derives the committed 500-seed baseline
//! with `--check`; a non-quick sweep exits 1 on findings too, with each
//! finding's shrunk reproducer inlined in the JSON.
//!
//! # Checkpoint/resume (resilience layer, DESIGN.md §11)
//!
//! Seeds are processed in blocks of `--block` (default 16); after each
//! block a `compcerto-ckpt/1` checkpoint is written atomically next to the
//! report (`--ckpt`, default `<out>.ckpt`). A killed campaign restarted
//! with `--resume` continues from the last completed block and produces a
//! final report **byte-identical** to the uninterrupted run — per-seed
//! results are pure and the aggregation is a commutative fold in seed
//! order, so where the process died is unobservable in the output. The
//! checkpoint embeds a fingerprint of every result-affecting flag; resuming
//! under different flags is a usage error. `--max-blocks N` stops after N
//! blocks (leaving the checkpoint behind) — the hook the CI kill-and-resume
//! smoke uses to simulate a mid-campaign kill at a block boundary.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::process::ExitCode;

use bench::ckpt::{self, json_str};
use bench::json::Json;
use compcerto_gen::{EXPR_CONSTRUCTORS, STMT_CONSTRUCTORS};
use compiler::{
    faultinj_escape_rates, par_map, run_seed_obs, DifftestCfg, Jobs, SeedOutcome, SeedReport,
    STAGES,
};

struct Cli {
    seeds: u64,
    seed_base: u64,
    jobs: Jobs,
    quick: bool,
    fuel: Option<u64>,
    queries: Option<usize>,
    no_reduce: bool,
    escape_seeds: u64,
    per_class: usize,
    out: String,
    block: u64,
    ckpt: Option<String>,
    resume: bool,
    max_blocks: Option<u64>,
    check: Option<String>,
}

fn parse_args() -> Result<Cli, String> {
    let mut cli = Cli {
        seeds: 50,
        seed_base: 0,
        jobs: Jobs::Auto,
        quick: false,
        fuel: None,
        queries: None,
        no_reduce: false,
        escape_seeds: 2,
        per_class: 3,
        out: "DIFFTEST.json".to_string(),
        block: 16,
        ckpt: None,
        resume: false,
        max_blocks: None,
        check: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut take = |name: &str| -> Result<u64, String> {
            args.next()
                .ok_or_else(|| format!("{name} needs a value"))?
                .parse::<u64>()
                .map_err(|e| format!("{name}: {e}"))
        };
        match flag.as_str() {
            "--seeds" => cli.seeds = take("--seeds")?,
            "--seed-base" => cli.seed_base = take("--seed-base")?,
            "--fuel" => cli.fuel = Some(take("--fuel")?),
            "--queries" => cli.queries = Some(take("--queries")? as usize),
            "--escape-seeds" => cli.escape_seeds = take("--escape-seeds")?,
            "--per-class" => cli.per_class = take("--per-class")? as usize,
            "--block" => cli.block = take("--block")?.max(1),
            "--max-blocks" => cli.max_blocks = Some(take("--max-blocks")?),
            "--quick" => cli.quick = true,
            "--no-reduce" => cli.no_reduce = true,
            "--resume" => cli.resume = true,
            "--jobs" => {
                let v = args.next().ok_or("--jobs needs a value")?;
                cli.jobs = Jobs::parse(&v)?;
            }
            "--out" => cli.out = args.next().ok_or("--out needs a value")?.to_string(),
            "--ckpt" => cli.ckpt = Some(args.next().ok_or("--ckpt needs a value")?.to_string()),
            "--check" => cli.check = Some(args.next().ok_or("--check needs a value")?.to_string()),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if cli.quick {
        cli.seeds = cli.seeds.min(12);
        cli.escape_seeds = cli.escape_seeds.min(1);
        cli.per_class = cli.per_class.min(2);
    }
    Ok(cli)
}

/// One shrunk finding, owned (checkpoints round-trip through JSON).
struct FindingRow {
    seed: u64,
    kind: String,
    detail: String,
    stmts: i64,
    source: String,
}

/// The campaign's phase-1 aggregate: everything the final report needs,
/// with owned keys so a checkpoint can be reloaded. The fold is
/// commutative per seed, which is what makes block-wise accumulation
/// (and therefore resume) byte-equivalent to the one-shot run.
struct Agg {
    completed: u64,
    agree: usize,
    skipped: usize,
    queries_run: usize,
    queries_skipped: usize,
    counters: BTreeMap<String, u64>,
    cov_stmts: BTreeMap<String, u64>,
    cov_exprs: BTreeMap<String, u64>,
    stages: BTreeSet<String>,
    findings: Vec<FindingRow>,
}

impl Agg {
    fn new() -> Agg {
        Agg {
            completed: 0,
            agree: 0,
            skipped: 0,
            queries_run: 0,
            queries_skipped: 0,
            counters: BTreeMap::new(),
            // Pre-populate like `Coverage::default()`: the key set is
            // stable whether or not a constructor was ever reached.
            cov_stmts: STMT_CONSTRUCTORS
                .iter()
                .map(|n| ((*n).to_string(), 0))
                .collect(),
            cov_exprs: EXPR_CONSTRUCTORS
                .iter()
                .map(|n| ((*n).to_string(), 0))
                .collect(),
            stages: BTreeSet::new(),
            findings: Vec::new(),
        }
    }

    /// Fold one seed's report + observability bundle (printing findings as
    /// they are folded, exactly like the pre-checkpoint campaign did).
    fn fold(&mut self, r: &SeedReport, o: &compiler::SeedObs) {
        for (k, v) in &o.counters.0 {
            *self.counters.entry((*k).to_string()).or_insert(0) += v;
        }
        for (k, v) in &o.coverage.stmts {
            *self.cov_stmts.entry((*k).to_string()).or_insert(0) += v;
        }
        for (k, v) in &o.coverage.exprs {
            *self.cov_exprs.entry((*k).to_string()).or_insert(0) += v;
        }
        self.stages
            .extend(o.stages_compared.iter().map(|s| (*s).to_string()));
        match &r.outcome {
            SeedOutcome::Agree {
                queries_run: qr,
                queries_skipped: qs,
            } => {
                self.agree += 1;
                self.queries_run += qr;
                self.queries_skipped += qs;
            }
            SeedOutcome::Skipped(_) => self.skipped += 1,
            SeedOutcome::Finding { kind, detail } => {
                println!("FINDING seed={} kind={kind}: {detail}", r.seed);
                let (stmts, source) = match &r.reproducer {
                    Some(rep) => {
                        println!(
                            "  reduced to {} statements ({} checks, {} rounds):",
                            rep.stmts, rep.stats.checks, rep.stats.rounds
                        );
                        for line in rep.source.lines() {
                            println!("  | {line}");
                        }
                        (rep.stmts as i64, rep.source.clone())
                    }
                    None => (-1, String::new()),
                };
                self.findings.push(FindingRow {
                    seed: r.seed,
                    kind: format!("{kind}"),
                    detail: detail.clone(),
                    stmts,
                    source,
                });
            }
        }
    }

    /// Serialize as a `compcerto-ckpt/1` checkpoint.
    fn to_ckpt_json(&self, fingerprint: &str) -> String {
        let mut j = String::new();
        j.push_str("{\n");
        let _ = writeln!(j, "  \"schema\": \"{}\",", ckpt::CKPT_SCHEMA);
        j.push_str("  \"bin\": \"difftest_campaign\",\n");
        let _ = writeln!(j, "  \"cfg\": \"{}\",", json_str(fingerprint));
        let _ = writeln!(j, "  \"completed\": {},", self.completed);
        let _ = writeln!(j, "  \"agree\": {},", self.agree);
        let _ = writeln!(j, "  \"skipped\": {},", self.skipped);
        let _ = writeln!(j, "  \"queries_run\": {},", self.queries_run);
        let _ = writeln!(j, "  \"queries_skipped\": {},", self.queries_skipped);
        let _ = writeln!(j, "  \"counters\": {},", ckpt::u64_map_json(&self.counters));
        let _ = writeln!(j, "  \"cov_stmts\": {},", ckpt::u64_map_json(&self.cov_stmts));
        let _ = writeln!(j, "  \"cov_exprs\": {},", ckpt::u64_map_json(&self.cov_exprs));
        let stages: Vec<String> = self.stages.iter().map(|s| format!("\"{s}\"")).collect();
        let _ = writeln!(j, "  \"stages\": [{}],", stages.join(", "));
        j.push_str("  \"findings\": [\n");
        for (i, f) in self.findings.iter().enumerate() {
            let _ = writeln!(
                j,
                "    {{\"seed\": {}, \"kind\": \"{}\", \"detail\": \"{}\", \
                 \"stmts\": {}, \"source\": \"{}\"}}{}",
                f.seed,
                json_str(&f.kind),
                json_str(&f.detail),
                f.stmts,
                json_str(&f.source),
                if i + 1 < self.findings.len() { "," } else { "" }
            );
        }
        j.push_str("  ]\n");
        j.push_str("}\n");
        j
    }

    /// Reload from a validated checkpoint document.
    fn from_ckpt(j: &Json) -> Result<Agg, String> {
        let u = |key: &str| -> Result<u64, String> {
            j.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("checkpoint: missing `{key}`"))
        };
        let mut agg = Agg::new();
        agg.completed = u("completed")?;
        agg.agree = u("agree")? as usize;
        agg.skipped = u("skipped")? as usize;
        agg.queries_run = u("queries_run")? as usize;
        agg.queries_skipped = u("queries_skipped")? as usize;
        agg.counters = ckpt::u64_map(
            j.get("counters").ok_or("checkpoint: missing `counters`")?,
            "counters",
        )?;
        agg.cov_stmts = ckpt::u64_map(
            j.get("cov_stmts").ok_or("checkpoint: missing `cov_stmts`")?,
            "cov_stmts",
        )?;
        agg.cov_exprs = ckpt::u64_map(
            j.get("cov_exprs").ok_or("checkpoint: missing `cov_exprs`")?,
            "cov_exprs",
        )?;
        agg.stages = j
            .get("stages")
            .and_then(Json::as_arr)
            .ok_or("checkpoint: missing `stages`")?
            .iter()
            .filter_map(|s| s.as_str().map(str::to_string))
            .collect();
        for f in j
            .get("findings")
            .and_then(Json::as_arr)
            .ok_or("checkpoint: missing `findings`")?
        {
            agg.findings.push(FindingRow {
                seed: f
                    .get("seed")
                    .and_then(Json::as_u64)
                    .ok_or("checkpoint: finding without `seed`")?,
                kind: f
                    .get("kind")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string(),
                detail: f
                    .get("detail")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string(),
                stmts: f.get("stmts").and_then(Json::as_i64).unwrap_or(-1),
                source: f
                    .get("source")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string(),
            });
        }
        Ok(agg)
    }

    // --- Coverage helpers mirroring `compcerto_gen::Coverage` over owned
    // --- keys (same key sets, same orders, same renderings).

    fn cov_missing(&self) -> Vec<String> {
        let mut out: Vec<String> = self
            .cov_stmts
            .iter()
            .filter(|(_, v)| **v == 0)
            .map(|(k, _)| format!("stmt:{k}"))
            .chain(
                self.cov_exprs
                    .iter()
                    .filter(|(_, v)| **v == 0)
                    .map(|(k, _)| format!("expr:{k}")),
            )
            .collect();
        out.sort();
        out
    }

    fn cov_entries(&self) -> Vec<(String, u64)> {
        self.cov_stmts
            .iter()
            .map(|(k, v)| (format!("gen.stmt.{k}"), *v))
            .chain(
                self.cov_exprs
                    .iter()
                    .map(|(k, v)| (format!("gen.expr.{k}"), *v)),
            )
            .collect()
    }

    /// `Counters::to_json_object` over owned keys (same rendering).
    fn counters_json(&self, indent: usize) -> String {
        let pad = " ".repeat(indent);
        let inner = " ".repeat(indent + 2);
        if self.counters.is_empty() {
            return "{}".to_string();
        }
        let mut s = String::from("{\n");
        let mut first = true;
        for (k, v) in &self.counters {
            if !first {
                s.push_str(",\n");
            }
            first = false;
            let _ = write!(s, "{inner}\"{k}\": {v}");
        }
        let _ = write!(s, "\n{pad}}}");
        s
    }
}

/// The fingerprint of every flag that affects report bytes (`--jobs`,
/// `--block` and the checkpoint plumbing deliberately excluded: the report
/// is invariant under them).
fn fingerprint(cli: &Cli, cfg: &DifftestCfg) -> String {
    format!(
        "difftest seed_base={} seeds={} quick={} fuel={} queries={} reduce={} \
         escape_seeds={} per_class={}",
        cli.seed_base,
        cli.seeds,
        cli.quick,
        cfg.fuel,
        cfg.queries,
        cfg.reduce,
        cli.escape_seeds,
        cli.per_class
    )
}

/// Phase-1 outcome: the aggregate, or "paused at a checkpoint" (max-blocks
/// reached with seeds remaining).
enum Phase1 {
    Done(Agg),
    Paused,
}

fn run_phase1(cli: &Cli, cfg: &DifftestCfg, ckpt_path: &str, fp: &str) -> Result<Phase1, String> {
    let mut agg = if cli.resume {
        let j = ckpt::load(ckpt_path, "difftest_campaign", fp)?;
        let agg = Agg::from_ckpt(&j)?;
        println!(
            "resumed from {ckpt_path}: {}/{} seeds already folded",
            agg.completed, cli.seeds
        );
        agg
    } else {
        Agg::new()
    };
    if agg.completed > cli.seeds {
        return Err(format!(
            "checkpoint has {} completed seeds but --seeds is {}",
            agg.completed, cli.seeds
        ));
    }

    let mut blocks_this_run = 0u64;
    while agg.completed < cli.seeds {
        if let Some(max) = cli.max_blocks {
            if blocks_this_run >= max {
                println!(
                    "pausing after {max} blocks ({} of {} seeds folded; checkpoint at {ckpt_path})",
                    agg.completed, cli.seeds
                );
                return Ok(Phase1::Paused);
            }
        }
        let lo = cli.seed_base + agg.completed;
        let n = cli.block.min(cli.seeds - agg.completed);
        let seeds: Vec<u64> = (lo..lo + n).collect();
        // Order-preserving fan-out: the block's reports come back in seed
        // order, so the fold is the serial fold.
        let reports = par_map(cli.jobs, &seeds, |_, &s| run_seed_obs(s, cfg));
        for (r, o) in &reports {
            agg.fold(r, o);
        }
        agg.completed += n;
        blocks_this_run += 1;
        ckpt::write_atomic(ckpt_path, &agg.to_ckpt_json(fp))?;
    }
    Ok(Phase1::Done(agg))
}

/// The effective difftest configuration of this invocation (`--quick`
/// presets, then the explicit overrides).
fn build_cfg(cli: &Cli) -> DifftestCfg {
    let mut cfg = if cli.quick {
        DifftestCfg::quick()
    } else {
        DifftestCfg::default()
    };
    if let Some(fuel) = cli.fuel {
        cfg.fuel = fuel;
    }
    if let Some(q) = cli.queries {
        cfg.queries = q;
    }
    cfg.reduce = !cli.no_reduce;
    cfg
}

/// `--check` preflight: load the baseline and compare its configuration
/// header against this invocation *before any seed runs*. Returns the
/// baseline bytes for the final comparison.
///
/// # Errors
/// Usage errors (exit 2): an unreadable or unparsable baseline, a wrong schema, or
/// a configuration mismatch — each naming the exact regeneration command.
fn load_check_baseline(path: &str, cli: &Cli, cfg: &DifftestCfg) -> Result<String, String> {
    let raw = std::fs::read_to_string(path)
        .map_err(|e| format!("--check: cannot read baseline `{path}`: {e}"))?;
    let j = bench::json::parse(&raw).map_err(|e| format!("--check: baseline `{path}`: {e}"))?;
    let schema = j.get("schema").and_then(Json::as_str).unwrap_or("");
    if schema != "compcerto-difftest/1" {
        return Err(format!(
            "--check: baseline `{path}` has schema `{schema}`, not `compcerto-difftest/1`"
        ));
    }
    // The regeneration command for THIS baseline — quoted verbatim in
    // every mismatch message so the fix is a copy-paste, not archaeology.
    let base_seeds = j.get("seeds").and_then(Json::as_u64).unwrap_or(0);
    let regen = format!(
        "cargo run --release -p bench --bin difftest_campaign -- {}--seeds {base_seeds} \
         --jobs auto --out {path}",
        if j.get("quick").and_then(Json::as_bool) == Some(true) {
            "--quick "
        } else {
            ""
        }
    );
    let mismatch = |what: &str, baseline: String, requested: String| {
        format!(
            "--check: baseline `{path}` was generated with {what} {baseline}, but this \
             invocation requests {requested};\n  \
             comparing them would be meaningless — align the flags, or regenerate the \
             baseline with:\n  {regen}"
        )
    };
    if base_seeds != cli.seeds {
        return Err(mismatch("seed count", base_seeds.to_string(), cli.seeds.to_string()));
    }
    let checks: [(&str, u64, u64); 3] = [
        ("seed_base", j.get("seed_base").and_then(Json::as_u64).unwrap_or(0), cli.seed_base),
        ("fuel", j.get("fuel").and_then(Json::as_u64).unwrap_or(0), cfg.fuel),
        (
            "queries_per_seed",
            j.get("queries_per_seed").and_then(Json::as_u64).unwrap_or(0),
            cfg.queries as u64,
        ),
    ];
    for (what, got, want) in checks {
        if got != want {
            return Err(mismatch(what, got.to_string(), want.to_string()));
        }
    }
    let base_quick = j.get("quick").and_then(Json::as_bool).unwrap_or(false);
    if base_quick != cli.quick {
        return Err(mismatch("quick", base_quick.to_string(), cli.quick.to_string()));
    }
    Ok(raw)
}

fn run(cli: &Cli) -> Result<Option<(String, usize)>, String> {
    let cfg = build_cfg(cli);

    let fp = fingerprint(cli, &cfg);
    // In check mode the default checkpoint lives next to the baseline
    // (never clobbering a regeneration run's `<out>.ckpt`).
    let ckpt_path = cli.ckpt.clone().unwrap_or_else(|| match &cli.check {
        Some(b) => format!("{b}.check.ckpt"),
        None => format!("{}.ckpt", cli.out),
    });

    println!(
        "difftest_campaign: seeds {}..{} quick={} fuel={} queries={}",
        cli.seed_base,
        cli.seed_base + cli.seeds,
        cli.quick,
        cfg.fuel,
        cfg.queries
    );

    // Phase 1 — the oracle sweep, block by block with checkpoints.
    let agg = match run_phase1(cli, &cfg, &ckpt_path, &fp)? {
        Phase1::Done(agg) => agg,
        Phase1::Paused => return Ok(None),
    };
    println!(
        "oracle: {} agree, {} skipped, {} findings \
         ({} queries compared, {} budget-skipped)",
        agg.agree,
        agg.skipped,
        agg.findings.len(),
        agg.queries_run,
        agg.queries_skipped
    );

    // Phase 2 — fault-injection escape rates under generated programs.
    // Pure in (seed, cfg) and cheap next to phase 1, so it simply re-runs
    // after a resume — the report stays byte-identical either way.
    let esc_seeds: Vec<u64> = (cli.seed_base..cli.seed_base + cli.seeds)
        .take(cli.escape_seeds as usize)
        .collect();
    let esc_results = par_map(cli.jobs, &esc_seeds, |_, &s| {
        (s, faultinj_escape_rates(s, &cfg, cli.per_class))
    });
    let mut esc_probed = 0usize;
    let mut esc_skipped = 0usize;
    // class name -> (generated, detected), in MUTATION_CLASSES order.
    let mut matrix: BTreeMap<usize, (&'static str, usize, usize)> = BTreeMap::new();
    for (s, res) in &esc_results {
        match res {
            Ok(rows) => {
                esc_probed += 1;
                for (i, row) in rows.iter().enumerate() {
                    let e = matrix.entry(i).or_insert((row.class.name(), 0, 0));
                    e.1 += row.generated;
                    e.2 += row.detected;
                }
            }
            Err(e) => {
                esc_skipped += 1;
                println!("escape matrix: seed {s} skipped ({e})");
            }
        }
    }
    if esc_probed > 0 {
        println!("escape rates over {esc_probed} generated programs ({} mutants/class/program):", cli.per_class);
        println!("{:<26}{:>10}{:>10}{:>9}", "class", "mutants", "detected", "escaped");
        for (_, (name, generated, detected)) in &matrix {
            println!(
                "{name:<26}{generated:>10}{detected:>10}{:>9}",
                generated - detected
            );
        }
    }

    // The JSON summary: deterministic for the seed block, jobs-independent.
    let mut j = String::new();
    j.push_str("{\n");
    j.push_str("  \"schema\": \"compcerto-difftest/1\",\n");
    j.push_str(&format!("  \"quick\": {},\n", cli.quick));
    j.push_str(&format!("  \"seed_base\": {},\n", cli.seed_base));
    j.push_str(&format!("  \"seeds\": {},\n", cli.seeds));
    j.push_str(&format!("  \"fuel\": {},\n", cfg.fuel));
    j.push_str(&format!("  \"queries_per_seed\": {},\n", cfg.queries));
    j.push_str(&format!("  \"agree\": {},\n", agg.agree));
    j.push_str(&format!("  \"skipped\": {},\n", agg.skipped));
    j.push_str(&format!("  \"queries_compared\": {},\n", agg.queries_run));
    j.push_str(&format!(
        "  \"queries_budget_skipped\": {},\n",
        agg.queries_skipped
    ));
    j.push_str(&format!("  \"findings\": {},\n", agg.findings.len()));
    j.push_str("  \"finding_rows\": [\n");
    for (i, f) in agg.findings.iter().enumerate() {
        let source = if f.source.is_empty() {
            String::new()
        } else {
            json_str(&f.source)
        };
        j.push_str(&format!(
            "    {{\"seed\": {}, \"kind\": \"{}\", \"detail\": \"{}\", \
             \"reduced_stmts\": {}, \"reproducer\": \"{source}\"}}{}\n",
            f.seed,
            json_str(&f.kind),
            json_str(&f.detail),
            f.stmts,
            if i + 1 < agg.findings.len() { "," } else { "" }
        ));
    }
    j.push_str("  ],\n");

    // Observability section (DESIGN.md §10): deterministic counters summed
    // over the seed block, grammar-constructor coverage of the generated
    // programs, and which of the six stage pairs the block exercised. No
    // timings here — wall-clock never enters a committed report.
    let non_baseline = STAGES.len() - 1;
    j.push_str("  \"obs\": {\n");
    j.push_str(&format!("    \"counters\": {},\n", agg.counters_json(4)));
    j.push_str("    \"gen_coverage\": {\n");
    let missing = agg.cov_missing();
    j.push_str(&format!("      \"complete\": {},\n", missing.is_empty()));
    j.push_str(&format!(
        "      \"missing\": [{}],\n",
        missing
            .iter()
            .map(|m| format!("\"{}\"", json_str(m)))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    j.push_str("      \"counters\": {\n");
    let entries = agg.cov_entries();
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
        agg.stages
            .iter()
            .map(|s| format!("\"{s}\""))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    j.push_str(&format!(
        "    \"stage_pairs\": \"{}/{}\"\n",
        agg.stages.len(),
        non_baseline
    ));
    j.push_str("  },\n");
    j.push_str("  \"escape_matrix\": {\n");
    j.push_str(&format!("    \"seeds_probed\": {esc_probed},\n"));
    j.push_str(&format!("    \"seeds_skipped\": {esc_skipped},\n"));
    j.push_str(&format!("    \"per_class\": {},\n", cli.per_class));
    j.push_str("    \"rows\": [\n");
    let nrows = matrix.len();
    for (i, (_, (name, generated, detected))) in matrix.iter().enumerate() {
        j.push_str(&format!(
            "      {{\"class\": \"{name}\", \"generated\": {generated}, \
             \"detected\": {detected}, \"escaped\": {}}}{}\n",
            generated - detected,
            if i + 1 < nrows { "," } else { "" }
        ));
    }
    j.push_str("    ]\n");
    j.push_str("  }\n");
    j.push_str("}\n");
    // The final report replaces the checkpoint.
    ckpt::remove(&ckpt_path);
    Ok(Some((j, agg.findings.len())))
}

fn main() -> ExitCode {
    let cli = match parse_args() {
        Ok(c) => c,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!(
                "usage: difftest_campaign [--seeds N] [--seed-base N] [--jobs N|auto] \
                 [--quick] [--fuel N] [--queries N] [--no-reduce] \
                 [--escape-seeds N] [--per-class N] [--out PATH] \
                 [--block N] [--ckpt PATH] [--resume] [--max-blocks N] [--check PATH]"
            );
            return ExitCode::from(2);
        }
    };
    // `--check` preflight: a baseline generated under different flags is
    // rejected as a usage error before any seed runs.
    let baseline = match &cli.check {
        Some(path) => match load_check_baseline(path, &cli, &build_cfg(&cli)) {
            Ok(raw) => Some(raw),
            Err(msg) => {
                eprintln!("error: {msg}");
                return ExitCode::from(2);
            }
        },
        None => None,
    };
    match run(&cli) {
        Ok(Some((json, nfindings))) => {
            if let Some(want) = baseline {
                let path = cli.check.as_deref().unwrap_or("");
                if json == want {
                    println!("check: report matches {path}");
                    return ExitCode::SUCCESS;
                }
                eprintln!(
                    "error: regenerated report differs from baseline `{path}` \
                     ({} vs {} bytes); the difftest outcome drifted",
                    json.len(),
                    want.len()
                );
                return ExitCode::from(1);
            }
            if let Err(e) = std::fs::write(&cli.out, json) {
                eprintln!("error: cannot write `{}`: {e}", cli.out);
                return ExitCode::from(1);
            }
            println!("wrote {}", cli.out);
            if nfindings > 0 {
                ExitCode::from(1)
            } else {
                ExitCode::SUCCESS
            }
        }
        // Paused at a checkpoint (--max-blocks): not a failure.
        Ok(None) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(2)
        }
    }
}
