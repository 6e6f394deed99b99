//! Schedule-exploration campaign (EXPERIMENTS.md row B14): run the
//! N-seeds × M-schedules threaded differential oracle over a block of
//! seeds and summarize agreement plus per-schedule FNV verdict checksums.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p bench --bin sched_campaign -- \
//!     [--seeds N] [--seed-base N] [--jobs N|auto] [--quick] \
//!     [--fuel N] [--threads N] [--schedules M] [--out PATH] \
//!     [--block N] [--ckpt PATH] [--resume] [--max-blocks N] \
//!     [--check PATH]
//! ```
//!
//! Writes a machine-readable summary (schema `compcerto-sched/1`) to
//! `SCHED.json` (or `--out`). With `--check PATH` the campaign runs,
//! renders the report and byte-compares it to the committed baseline
//! instead of writing: a mismatch is a regression (exit 1). Before any
//! seed runs, the baseline's configuration header is compared to this
//! invocation's — a mismatch is a usage error (exit 2) naming the exact
//! regeneration command. The report is **byte-identical for a given seed
//! block under any `--jobs` setting**: every per-seed verdict is a pure
//! function of `(seed, SchedCfg)`, the fan-out uses the order-preserving
//! worker pool ([`compiler::par_map`]), the checksums fold verdict lines
//! in seed order, and the JSON records no machine facts.
//!
//! # Checkpoint/resume (resilience layer, DESIGN.md §11)
//!
//! Seeds are processed in blocks of `--block` (default 16); after each
//! block a `compcerto-ckpt/1` checkpoint is written atomically next to the
//! report. A killed campaign restarted with `--resume` continues from the
//! last completed block and produces a final report **byte-identical** to
//! the uninterrupted run: per-seed results are pure, the scalar fold is
//! commutative, and the FNV chains are folded strictly in seed order by
//! block, so where the process died is unobservable. `--max-blocks N`
//! stops after N blocks (leaving the checkpoint behind) — the hook the CI
//! kill-and-resume smoke uses.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;

use bench::ckpt::{self, json_str};
use bench::json::Json;
use compiler::serve::{fnv1a, FNV_OFFSET};
use compiler::{
    intern_sched_counter_key, par_map, run_seed_sched_obs, Counters, Jobs, SchedCfg,
    SchedSeedOutcome, SchedSeedReport,
};

struct Cli {
    seeds: u64,
    seed_base: u64,
    jobs: Jobs,
    quick: bool,
    fuel: Option<u64>,
    threads: Option<usize>,
    schedules: Option<usize>,
    out: String,
    block: u64,
    ckpt: Option<String>,
    resume: bool,
    max_blocks: Option<u64>,
    check: Option<String>,
}

fn parse_args() -> Result<Cli, String> {
    let mut cli = Cli {
        seeds: 64,
        seed_base: 0,
        jobs: Jobs::Auto,
        quick: false,
        fuel: None,
        threads: None,
        schedules: None,
        out: "SCHED.json".to_string(),
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
            "--threads" => cli.threads = Some(take("--threads")?.clamp(1, 8) as usize),
            "--schedules" => cli.schedules = Some(take("--schedules")?.clamp(1, 64) as usize),
            "--block" => cli.block = take("--block")?.max(1),
            "--max-blocks" => cli.max_blocks = Some(take("--max-blocks")?),
            "--quick" => cli.quick = true,
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
        cli.seeds = cli.seeds.min(8);
    }
    Ok(cli)
}

/// The effective oracle configuration of this invocation (`--quick`
/// presets, then the explicit overrides).
fn build_cfg(cli: &Cli) -> SchedCfg {
    let mut cfg = if cli.quick {
        SchedCfg::quick()
    } else {
        SchedCfg::default()
    };
    if let Some(fuel) = cli.fuel {
        cfg.fuel = fuel;
    }
    if let Some(t) = cli.threads {
        cfg.threads = t;
    }
    if let Some(m) = cli.schedules {
        cfg.schedules = m;
    }
    cfg
}

/// One finding, owned (checkpoints round-trip through JSON). The threaded
/// oracle runs no reducer — a threaded counterexample's schedule context is
/// the reproducer.
struct FindingRow {
    seed: u64,
    kind: String,
    detail: String,
}

/// The campaign aggregate. Scalar folds are commutative; the FNV chains
/// are folded strictly in seed order (blocks run in order, `par_map`
/// preserves index order within a block), so block-wise accumulation and
/// resume are byte-equivalent to the one-shot run.
struct Agg {
    completed: u64,
    agree: usize,
    skipped: usize,
    schedules_run: usize,
    schedules_skipped: usize,
    /// FNV-1a over every verdict line in (seed, schedule) order.
    checksum: u64,
    /// Per-schedule-slot FNV-1a chains: entry `j` folds schedule `j`'s
    /// verdict line of every seed, in seed order.
    sched_checksums: Vec<u64>,
    counters: Counters,
    findings: Vec<FindingRow>,
}

impl Agg {
    fn new(nschedules: usize) -> Agg {
        Agg {
            completed: 0,
            agree: 0,
            skipped: 0,
            schedules_run: 0,
            schedules_skipped: 0,
            checksum: FNV_OFFSET,
            sched_checksums: vec![FNV_OFFSET; nschedules],
            counters: Counters::default(),
            findings: Vec::new(),
        }
    }

    /// Fold one seed's report + counter delta (printing findings as they
    /// are folded).
    fn fold(&mut self, r: &SchedSeedReport, c: &Counters) {
        self.counters.add(c);
        for (j, line) in r.verdicts.iter().enumerate() {
            self.checksum = fnv1a(self.checksum, &r.seed.to_le_bytes());
            self.checksum = fnv1a(self.checksum, line.as_bytes());
            if let Some(h) = self.sched_checksums.get_mut(j) {
                *h = fnv1a(*h, &r.seed.to_le_bytes());
                *h = fnv1a(*h, line.as_bytes());
            }
        }
        match &r.outcome {
            SchedSeedOutcome::Agree {
                schedules_run,
                schedules_skipped,
            } => {
                self.agree += 1;
                self.schedules_run += schedules_run;
                self.schedules_skipped += schedules_skipped;
            }
            SchedSeedOutcome::Skipped(_) => self.skipped += 1,
            SchedSeedOutcome::Finding { kind, detail } => {
                println!("FINDING seed={} kind={kind}: {detail}", r.seed);
                self.findings.push(FindingRow {
                    seed: r.seed,
                    kind: format!("{kind}"),
                    detail: detail.clone(),
                });
            }
        }
    }

    /// Serialize as a `compcerto-ckpt/1` checkpoint.
    fn to_ckpt_json(&self, fingerprint: &str) -> String {
        let mut j = String::new();
        j.push_str("{\n");
        let _ = writeln!(j, "  \"schema\": \"{}\",", ckpt::CKPT_SCHEMA);
        j.push_str("  \"bin\": \"sched_campaign\",\n");
        let _ = writeln!(j, "  \"cfg\": \"{}\",", json_str(fingerprint));
        let _ = writeln!(j, "  \"completed\": {},", self.completed);
        let _ = writeln!(j, "  \"agree\": {},", self.agree);
        let _ = writeln!(j, "  \"skipped\": {},", self.skipped);
        let _ = writeln!(j, "  \"schedules_run\": {},", self.schedules_run);
        let _ = writeln!(j, "  \"schedules_skipped\": {},", self.schedules_skipped);
        let _ = writeln!(j, "  \"checksum\": {},", self.checksum);
        let chains: Vec<String> = self.sched_checksums.iter().map(u64::to_string).collect();
        let _ = writeln!(j, "  \"sched_checksums\": [{}],", chains.join(", "));
        let owned: BTreeMap<String, u64> = self
            .counters
            .0
            .iter()
            .map(|(k, v)| ((*k).to_string(), *v))
            .collect();
        let _ = writeln!(j, "  \"counters\": {},", ckpt::u64_map_json(&owned));
        j.push_str("  \"findings\": [\n");
        for (i, f) in self.findings.iter().enumerate() {
            let _ = writeln!(
                j,
                "    {{\"seed\": {}, \"kind\": \"{}\", \"detail\": \"{}\"}}{}",
                f.seed,
                json_str(&f.kind),
                json_str(&f.detail),
                if i + 1 < self.findings.len() { "," } else { "" }
            );
        }
        j.push_str("  ]\n");
        j.push_str("}\n");
        j
    }

    /// Reload from a validated checkpoint document, re-interning counter
    /// keys through [`intern_sched_counter_key`].
    fn from_ckpt(j: &Json, nschedules: usize) -> Result<Agg, String> {
        let u = |key: &str| -> Result<u64, String> {
            j.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("checkpoint: missing `{key}`"))
        };
        let mut agg = Agg::new(nschedules);
        agg.completed = u("completed")?;
        agg.agree = u("agree")? as usize;
        agg.skipped = u("skipped")? as usize;
        agg.schedules_run = u("schedules_run")? as usize;
        agg.schedules_skipped = u("schedules_skipped")? as usize;
        agg.checksum = u("checksum")?;
        let chains = j
            .get("sched_checksums")
            .and_then(Json::as_arr)
            .ok_or("checkpoint: missing `sched_checksums`")?;
        if chains.len() != nschedules {
            return Err(format!(
                "checkpoint: {} schedule chains but --schedules is {nschedules}",
                chains.len()
            ));
        }
        agg.sched_checksums = chains
            .iter()
            .map(|c| c.as_u64().ok_or("checkpoint: non-u64 schedule chain"))
            .collect::<Result<Vec<u64>, &str>>()
            .map_err(str::to_string)?;
        let cmap = ckpt::u64_map(
            j.get("counters").ok_or("checkpoint: missing `counters`")?,
            "counters",
        )?;
        for (k, v) in &cmap {
            let interned = intern_sched_counter_key(k)
                .ok_or_else(|| format!("checkpoint: unknown counter key `{k}`"))?;
            agg.counters.0.insert(interned, *v);
        }
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
            });
        }
        Ok(agg)
    }
}

/// The fingerprint of every flag that affects report bytes (`--jobs`,
/// `--block` and the checkpoint plumbing deliberately excluded: the report
/// is invariant under them).
fn fingerprint(cli: &Cli, cfg: &SchedCfg) -> String {
    format!(
        "sched seed_base={} seeds={} quick={} fuel={} threads={} schedules={}",
        cli.seed_base, cli.seeds, cli.quick, cfg.fuel, cfg.threads, cfg.schedules
    )
}

/// Phase-1 outcome: the aggregate, or "paused at a checkpoint".
enum Phase1 {
    Done(Agg),
    Paused,
}

fn run_phase1(cli: &Cli, cfg: &SchedCfg, ckpt_path: &str, fp: &str) -> Result<Phase1, String> {
    let mut agg = if cli.resume {
        let j = ckpt::load(ckpt_path, "sched_campaign", fp)?;
        let agg = Agg::from_ckpt(&j, cfg.schedules)?;
        println!(
            "resumed from {ckpt_path}: {}/{} seeds already folded",
            agg.completed, cli.seeds
        );
        agg
    } else {
        Agg::new(cfg.schedules)
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
        // order, so the FNV chains fold exactly as in a serial run.
        let reports = par_map(cli.jobs, &seeds, |_, &s| run_seed_sched_obs(s, cfg));
        for (r, c) in &reports {
            agg.fold(r, c);
        }
        agg.completed += n;
        blocks_this_run += 1;
        ckpt::write_atomic(ckpt_path, &agg.to_ckpt_json(fp))?;
    }
    Ok(Phase1::Done(agg))
}

/// `--check` preflight: load the baseline and compare its configuration
/// header against this invocation *before any seed runs*. Returns the
/// baseline bytes for the final comparison.
///
/// # Errors
/// Usage errors (exit 2): an unreadable or unparsable baseline, a wrong
/// schema, or a configuration mismatch — each naming the exact
/// regeneration command.
fn load_check_baseline(path: &str, cli: &Cli, cfg: &SchedCfg) -> Result<String, String> {
    let raw = std::fs::read_to_string(path)
        .map_err(|e| format!("--check: cannot read baseline `{path}`: {e}"))?;
    let j = bench::json::parse(&raw).map_err(|e| format!("--check: baseline `{path}`: {e}"))?;
    let schema = j.get("schema").and_then(Json::as_str).unwrap_or("");
    if schema != "compcerto-sched/1" {
        return Err(format!(
            "--check: baseline `{path}` has schema `{schema}`, not `compcerto-sched/1`"
        ));
    }
    let base_seeds = j.get("seeds").and_then(Json::as_u64).unwrap_or(0);
    let regen = format!(
        "cargo run --release -p bench --bin sched_campaign -- {}--seeds {base_seeds} \
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
        return Err(mismatch(
            "seed count",
            base_seeds.to_string(),
            cli.seeds.to_string(),
        ));
    }
    let checks: [(&str, u64, u64); 4] = [
        (
            "seed_base",
            j.get("seed_base").and_then(Json::as_u64).unwrap_or(0),
            cli.seed_base,
        ),
        ("fuel", j.get("fuel").and_then(Json::as_u64).unwrap_or(0), cfg.fuel),
        (
            "threads",
            j.get("threads").and_then(Json::as_u64).unwrap_or(0),
            cfg.threads as u64,
        ),
        (
            "schedules_per_seed",
            j.get("schedules_per_seed")
                .and_then(Json::as_u64)
                .unwrap_or(0),
            cfg.schedules as u64,
        ),
    ];
    for (what, got, want) in checks {
        if got != want {
            return Err(mismatch(what, got.to_string(), want.to_string()));
        }
    }
    let base_quick = j.get("quick").and_then(Json::as_bool).unwrap_or(false);
    if base_quick != cli.quick {
        return Err(mismatch(
            "quick",
            base_quick.to_string(),
            cli.quick.to_string(),
        ));
    }
    Ok(raw)
}

/// Render the final `compcerto-sched/1` report.
fn render_report(cli: &Cli, cfg: &SchedCfg, agg: &Agg) -> String {
    let mut j = String::new();
    j.push_str("{\n");
    j.push_str("  \"schema\": \"compcerto-sched/1\",\n");
    let _ = writeln!(j, "  \"quick\": {},", cli.quick);
    let _ = writeln!(j, "  \"seed_base\": {},", cli.seed_base);
    let _ = writeln!(j, "  \"seeds\": {},", cli.seeds);
    let _ = writeln!(j, "  \"fuel\": {},", cfg.fuel);
    let _ = writeln!(j, "  \"threads\": {},", cfg.threads);
    let _ = writeln!(j, "  \"schedules_per_seed\": {},", cfg.schedules);
    let _ = writeln!(j, "  \"agree\": {},", agg.agree);
    let _ = writeln!(j, "  \"skipped\": {},", agg.skipped);
    let _ = writeln!(j, "  \"schedules_compared\": {},", agg.schedules_run);
    let _ = writeln!(
        j,
        "  \"schedules_budget_skipped\": {},",
        agg.schedules_skipped
    );
    let _ = writeln!(j, "  \"findings\": {},", agg.findings.len());
    j.push_str("  \"finding_rows\": [\n");
    for (i, f) in agg.findings.iter().enumerate() {
        let _ = writeln!(
            j,
            "    {{\"seed\": {}, \"kind\": \"{}\", \"detail\": \"{}\"}}{}",
            f.seed,
            json_str(&f.kind),
            json_str(&f.detail),
            if i + 1 < agg.findings.len() { "," } else { "" }
        );
    }
    j.push_str("  ],\n");
    let _ = writeln!(j, "  \"verdict_checksum\": \"{:016x}\",", agg.checksum);
    j.push_str("  \"schedule_checksums\": [\n");
    for (i, h) in agg.sched_checksums.iter().enumerate() {
        let _ = writeln!(
            j,
            "    \"{h:016x}\"{}",
            if i + 1 < agg.sched_checksums.len() {
                ","
            } else {
                ""
            }
        );
    }
    j.push_str("  ],\n");
    // Observability: deterministic counters summed over the seed block
    // (standard delta keys plus the `lts.sched.*` family). No timings —
    // wall-clock never enters a committed report.
    j.push_str("  \"obs\": {\n");
    let _ = writeln!(j, "    \"counters\": {}", agg.counters.to_json_object(4));
    j.push_str("  }\n");
    j.push_str("}\n");
    j
}

fn run(cli: &Cli) -> Result<Option<(String, usize)>, String> {
    let cfg = build_cfg(cli);
    let fp = fingerprint(cli, &cfg);
    let ckpt_path = cli.ckpt.clone().unwrap_or_else(|| match &cli.check {
        Some(b) => format!("{b}.check.ckpt"),
        None => format!("{}.ckpt", cli.out),
    });

    println!(
        "sched_campaign: seeds {}..{} quick={} fuel={} threads={} schedules={}",
        cli.seed_base,
        cli.seed_base + cli.seeds,
        cli.quick,
        cfg.fuel,
        cfg.threads,
        cfg.schedules
    );

    let agg = match run_phase1(cli, &cfg, &ckpt_path, &fp)? {
        Phase1::Done(agg) => agg,
        Phase1::Paused => return Ok(None),
    };
    println!(
        "oracle: {} agree, {} skipped, {} findings \
         ({} schedules compared, {} budget-skipped; checksum {:016x})",
        agg.agree,
        agg.skipped,
        agg.findings.len(),
        agg.schedules_run,
        agg.schedules_skipped,
        agg.checksum
    );

    let json = render_report(cli, &cfg, &agg);
    // The final report replaces the checkpoint.
    ckpt::remove(&ckpt_path);
    Ok(Some((json, agg.findings.len())))
}

fn main() -> ExitCode {
    let cli = match parse_args() {
        Ok(c) => c,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!(
                "usage: sched_campaign [--seeds N] [--seed-base N] [--jobs N|auto] \
                 [--quick] [--fuel N] [--threads N] [--schedules M] [--out PATH] \
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
                     ({} vs {} bytes); the threaded-oracle outcome drifted",
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
