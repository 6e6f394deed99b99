//! Differential-testing campaign (EXPERIMENTS.md row B8): run the seeded
//! generator → cross-stage oracle over a block of seeds, shrink any finding
//! to a minimal reproducer, and re-run the fault-injection mutation classes
//! against generated programs to measure escape rates on random inputs.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p bench --bin difftest_campaign -- \
//!     [--seeds N] [--seed-base N] [--quick] [--fuel N] [--queries N] \
//!     [--no-reduce] [--escape-seeds N] [--per-class N] [--jobs N|auto] \
//!     [--out PATH | --check PATH] \
//!     [--block N] [--ckpt PATH] [--resume] [--max-blocks N]
//! ```
//!
//! Writes a machine-readable summary (schema `compcerto-difftest/1`) to
//! `DIFFTEST.json` (or `--out`); `--check PATH` byte-compares it with a
//! committed baseline instead. The flags, the `--check` preflight, the
//! checkpoints and the exit codes are the campaign kernel's
//! ([`bench::campaign`]). The report is **byte-identical for a given seed
//! block under any `--jobs` setting**: every per-seed verdict is a pure
//! function of `(seed, cfg)`, the fan-out uses the order-preserving worker
//! pool ([`compiler::par_map`]), and the JSON records no machine facts (no
//! core counts, no timings). A sweep with findings exits 1, each finding's
//! shrunk reproducer inlined in the JSON.

use std::collections::{BTreeMap, BTreeSet};
use std::process::ExitCode;

use bench::campaign::{self, Args, Campaign, Checkpoint, Echo, Spec};
use compcerto_gen::{Coverage, EXPR_CONSTRUCTORS, STMT_CONSTRUCTORS};
use compiler::json::{escape, Json};
use compiler::{
    faultinj_escape_rates, intern_counter_key, par_map, run_seed_obs, Counters, DifftestCfg, Jobs,
    SeedObs, SeedOutcome, SeedReport, STAGES,
};

struct Cli {
    seeds: u64,
    seed_base: u64,
    quick: bool,
    fuel: Option<u64>,
    queries: Option<usize>,
    no_reduce: bool,
    escape_seeds: u64,
    per_class: usize,
    /// The effective oracle configuration (`--quick` presets, then the
    /// explicit overrides).
    cfg: DifftestCfg,
}

impl Default for Cli {
    fn default() -> Cli {
        Cli {
            seeds: 50,
            seed_base: 0,
            quick: false,
            fuel: None,
            queries: None,
            no_reduce: false,
            escape_seeds: 2,
            per_class: 3,
            cfg: DifftestCfg::default(),
        }
    }
}

impl Campaign for Cli {
    const SPEC: Spec = Spec {
        bin: "difftest_campaign",
        usage: "[--seeds N] [--seed-base N] [--quick] [--fuel N] [--queries N] [--no-reduce] \
                [--escape-seeds N] [--per-class N]",
        out: Some("DIFFTEST.json"),
        schema: "compcerto-difftest/1",
        normalize: None,
        block: Some(16),
    };

    fn flag(&mut self, flag: &str, args: &mut Args) -> Result<bool, String> {
        match flag {
            "--seeds" => self.seeds = args.num(flag)?,
            "--seed-base" => self.seed_base = args.num(flag)?,
            "--quick" => self.quick = true,
            "--fuel" => self.fuel = Some(args.num(flag)?),
            "--queries" => self.queries = Some(args.num(flag)?),
            "--no-reduce" => self.no_reduce = true,
            "--escape-seeds" => self.escape_seeds = args.num(flag)?,
            "--per-class" => self.per_class = args.num(flag)?,
            _ => return Ok(false),
        }
        Ok(true)
    }

    fn settle(&mut self) {
        if self.quick {
            self.seeds = self.seeds.min(12);
            self.escape_seeds = self.escape_seeds.min(1);
            self.per_class = self.per_class.min(2);
            self.cfg = DifftestCfg::quick();
        }
        if let Some(fuel) = self.fuel {
            self.cfg.fuel = fuel;
        }
        if let Some(q) = self.queries {
            self.cfg.queries = q;
        }
        self.cfg.reduce = !self.no_reduce;
    }

    fn header(&self) -> Vec<Echo> {
        vec![
            ("seed count", "seeds", "--seeds", self.seeds.to_string()),
            ("seed_base", "seed_base", "--seed-base", self.seed_base.to_string()),
            ("quick", "quick", "--quick", self.quick.to_string()),
            ("fuel", "fuel", "--fuel", self.cfg.fuel.to_string()),
            ("queries_per_seed", "queries_per_seed", "--queries", self.cfg.queries.to_string()),
            (
                "escape_matrix.per_class",
                "escape_matrix.per_class",
                "--per-class",
                self.per_class.to_string(),
            ),
        ]
    }

    fn unechoed(&self) -> String {
        format!("escape_seeds={} reduce={}", self.escape_seeds, self.cfg.reduce)
    }
}

/// The oracle sweep's aggregate. Every member but the finding rows is a
/// commutative sum or union, and the rows append in seed order, so the
/// block-wise fold (and so a resumed run) equals the one-shot fold.
#[derive(Default)]
struct Agg {
    agree: usize,
    skipped: usize,
    queries_run: usize,
    queries_skipped: usize,
    counters: Counters,
    coverage: Coverage,
    stages: BTreeSet<&'static str>,
    /// Each finding's report row, rendered.
    findings: Vec<String>,
}

impl Agg {
    /// Fold one seed's report and observability bundle, printing a finding
    /// and its reproducer as it is folded.
    fn fold(&mut self, r: &SeedReport, o: &SeedObs) {
        self.counters.add(&o.counters);
        self.coverage.merge(&o.coverage);
        self.stages.extend(o.stages_compared.iter().copied());
        match &r.outcome {
            SeedOutcome::Agree {
                queries_run,
                queries_skipped,
            } => {
                self.agree += 1;
                self.queries_run += queries_run;
                self.queries_skipped += queries_skipped;
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
                        (rep.stmts as i64, rep.source.as_str())
                    }
                    None => (-1, ""),
                };
                self.findings.push(format!(
                    "{{\"seed\": {}, \"kind\": \"{}\", \"detail\": \"{}\", \
                     \"reduced_stmts\": {stmts}, \"reproducer\": \"{}\"}}",
                    r.seed,
                    escape(&kind.to_string()),
                    escape(detail),
                    escape(source)
                ));
            }
        }
    }
}

impl Checkpoint for Agg {
    fn encode(&self) -> String {
        format!(
            "{{\"agree\": {}, \"skipped\": {}, \"queries_run\": {}, \"queries_skipped\": {}, \
             \"counters\": {}, \"stmts\": {}, \"exprs\": {}, \"stages\": {}, \"findings\": {}}}",
            self.agree,
            self.skipped,
            self.queries_run,
            self.queries_skipped,
            campaign::map_json(&self.counters.0),
            campaign::map_json(&self.coverage.stmts),
            campaign::map_json(&self.coverage.exprs),
            campaign::strings_json(&self.stages),
            campaign::strings_json(&self.findings)
        )
    }

    fn decode(b: &Json) -> Result<Agg, String> {
        let known = |names: &'static [&'static str]| {
            move |k: &str| names.iter().copied().find(|n| *n == k)
        };
        Ok(Agg {
            agree: campaign::num(b, "agree")? as usize,
            skipped: campaign::num(b, "skipped")? as usize,
            queries_run: campaign::num(b, "queries_run")? as usize,
            queries_skipped: campaign::num(b, "queries_skipped")? as usize,
            counters: Counters(campaign::interned_map(b, "counters", intern_counter_key)?),
            coverage: Coverage {
                stmts: campaign::interned_map(b, "stmts", known(&STMT_CONSTRUCTORS))?,
                exprs: campaign::interned_map(b, "exprs", known(&EXPR_CONSTRUCTORS))?,
            },
            stages: campaign::strings(b, "stages")?
                .iter()
                .map(|s| known(&STAGES)(s).ok_or_else(|| format!("unknown stage `{s}`")))
                .collect::<Result<_, _>>()?,
            findings: campaign::strings(b, "findings")?,
        })
    }
}

/// The escape-matrix phase: each mutation class's (generated, detected)
/// counts over the first `escape_seeds` seeds' programs, in
/// `MUTATION_CLASSES` order. Pure in `(seed, cfg)` and cheap next to the
/// sweep, so it simply re-runs after a resume.
fn escape_matrix(cli: &Cli, jobs: Jobs) -> (usize, usize, Vec<(&'static str, usize, usize)>) {
    let seeds: Vec<u64> = (cli.seed_base..cli.seed_base + cli.seeds)
        .take(cli.escape_seeds as usize)
        .collect();
    let results = par_map(jobs, &seeds, |_, &s| {
        (s, faultinj_escape_rates(s, &cli.cfg, cli.per_class))
    });
    let (mut probed, mut skipped) = (0, 0);
    let mut matrix: BTreeMap<usize, (&'static str, usize, usize)> = BTreeMap::new();
    for (s, res) in &results {
        match res {
            Ok(rows) => {
                probed += 1;
                for (i, row) in rows.iter().enumerate() {
                    let e = matrix.entry(i).or_insert((row.class.name(), 0, 0));
                    e.1 += row.generated;
                    e.2 += row.detected;
                }
            }
            Err(e) => {
                skipped += 1;
                println!("escape matrix: seed {s} skipped ({e})");
            }
        }
    }
    if probed > 0 {
        println!(
            "escape rates over {probed} generated programs ({} mutants/class/program):",
            cli.per_class
        );
        println!("{:<26}{:>10}{:>10}{:>9}", "class", "mutants", "detected", "escaped");
        for (name, generated, detected) in matrix.values() {
            println!(
                "{name:<26}{generated:>10}{detected:>10}{:>9}",
                generated - detected
            );
        }
    }
    (probed, skipped, matrix.into_values().collect())
}

/// Render the `compcerto-difftest/1` report.
fn render(
    cli: &Cli,
    agg: &Agg,
    (probed, esc_skipped, matrix): &(usize, usize, Vec<(&'static str, usize, usize)>),
) -> String {
    let comma = |i: usize, n: usize| if i + 1 < n { "," } else { "" };
    let mut j = String::new();
    j.push_str("{\n");
    j.push_str("  \"schema\": \"compcerto-difftest/1\",\n");
    j.push_str(&format!("  \"quick\": {},\n", cli.quick));
    j.push_str(&format!("  \"seed_base\": {},\n", cli.seed_base));
    j.push_str(&format!("  \"seeds\": {},\n", cli.seeds));
    j.push_str(&format!("  \"fuel\": {},\n", cli.cfg.fuel));
    j.push_str(&format!("  \"queries_per_seed\": {},\n", cli.cfg.queries));
    j.push_str(&format!("  \"agree\": {},\n", agg.agree));
    j.push_str(&format!("  \"skipped\": {},\n", agg.skipped));
    j.push_str(&format!("  \"queries_compared\": {},\n", agg.queries_run));
    j.push_str(&format!(
        "  \"queries_budget_skipped\": {},\n",
        agg.queries_skipped
    ));
    j.push_str(&format!("  \"findings\": {},\n", agg.findings.len()));
    j.push_str("  \"finding_rows\": [\n");
    for (i, row) in agg.findings.iter().enumerate() {
        j.push_str(&format!("    {row}{}\n", comma(i, agg.findings.len())));
    }
    j.push_str("  ],\n");

    // Observability section (DESIGN.md §10): deterministic counters summed
    // over the seed block, grammar-constructor coverage of the generated
    // programs, and which of the six stage pairs the block exercised. No
    // timings here — wall-clock never enters a committed report.
    j.push_str("  \"obs\": {\n");
    j.push_str(&format!("    \"counters\": {},\n", agg.counters.to_json_object(4)));
    j.push_str("    \"gen_coverage\": {\n");
    let missing = agg.coverage.missing();
    j.push_str(&format!("      \"complete\": {},\n", missing.is_empty()));
    j.push_str(&format!(
        "      \"missing\": [{}],\n",
        missing
            .iter()
            .map(|m| format!("\"{}\"", escape(m)))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    j.push_str("      \"counters\": {\n");
    let entries = agg.coverage.counter_entries();
    for (i, (k, v)) in entries.iter().enumerate() {
        j.push_str(&format!("        \"{k}\": {v}{}\n", comma(i, entries.len())));
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
        STAGES.len() - 1
    ));
    j.push_str("  },\n");
    j.push_str("  \"escape_matrix\": {\n");
    j.push_str(&format!("    \"seeds_probed\": {probed},\n"));
    j.push_str(&format!("    \"seeds_skipped\": {esc_skipped},\n"));
    j.push_str(&format!("    \"per_class\": {},\n", cli.per_class));
    j.push_str("    \"rows\": [\n");
    for (i, (name, generated, detected)) in matrix.iter().enumerate() {
        j.push_str(&format!(
            "      {{\"class\": \"{name}\", \"generated\": {generated}, \
             \"detected\": {detected}, \"escaped\": {}}}{}\n",
            generated - detected,
            comma(i, matrix.len())
        ));
    }
    j.push_str("    ]\n");
    j.push_str("  }\n");
    j.push_str("}\n");
    j
}

fn main() -> ExitCode {
    let (k, cli) = campaign::start::<Cli>();
    println!(
        "difftest_campaign: seeds {}..{} quick={} fuel={} queries={}",
        cli.seed_base,
        cli.seed_base + cli.seeds,
        cli.quick,
        cli.cfg.fuel,
        cli.cfg.queries
    );
    // The oracle sweep, one block of seeds at a time; `par_map` returns a
    // block's reports in seed order, so the fold is the serial fold.
    let agg = k.fold(cli.seeds, Agg::default(), |agg, block| {
        let seeds: Vec<u64> = block.map(|i| cli.seed_base + i).collect();
        for (r, o) in &par_map(k.jobs, &seeds, |_, &s| run_seed_obs(s, &cli.cfg)) {
            agg.fold(r, o);
        }
    });
    println!(
        "oracle: {} agree, {} skipped, {} findings \
         ({} queries compared, {} budget-skipped)",
        agg.agree,
        agg.skipped,
        agg.findings.len(),
        agg.queries_run,
        agg.queries_skipped
    );
    let matrix = escape_matrix(&cli, k.jobs);
    k.finish(&render(&cli, &agg, &matrix), !agg.findings.is_empty())
}
