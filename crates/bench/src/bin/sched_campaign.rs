//! Schedule-exploration campaign (EXPERIMENTS.md row B14): run the
//! N-seeds × M-schedules threaded differential oracle over a block of
//! seeds and summarize agreement plus per-schedule FNV verdict checksums.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p bench --bin sched_campaign -- \
//!     [--seeds N] [--seed-base N] [--quick] [--fuel N] [--threads N] \
//!     [--schedules M] [--jobs N|auto] [--out PATH | --check PATH] \
//!     [--block N] [--ckpt PATH] [--resume] [--max-blocks N]
//! ```
//!
//! Writes a machine-readable summary (schema `compcerto-sched/1`) to
//! `SCHED.json` (or `--out`); `--check PATH` byte-compares it with a
//! committed baseline instead. The flags, the `--check` preflight, the
//! checkpoints and the exit codes are the campaign kernel's
//! ([`bench::campaign`]). The report is **byte-identical for a given seed
//! block under any `--jobs` setting**: every per-seed verdict is a pure
//! function of `(seed, SchedCfg)`, the fan-out uses the order-preserving
//! worker pool ([`compiler::par_map`]), the checksums fold verdict lines
//! in seed order, and the JSON records no machine facts.

use std::fmt::Write as _;
use std::process::ExitCode;

use bench::campaign::{self, Args, Campaign, Checkpoint, Echo, Spec};
use compiler::json::{escape, Json};
use compiler::serve::{fnv1a, FNV_OFFSET};
use compiler::{
    intern_sched_counter_key, par_map, run_seed_sched_obs, Counters, SchedCfg, SchedSeedOutcome,
    SchedSeedReport,
};

struct Cli {
    seeds: u64,
    seed_base: u64,
    quick: bool,
    fuel: Option<u64>,
    threads: Option<usize>,
    schedules: Option<usize>,
    /// The effective oracle configuration (`--quick` presets, then the
    /// explicit overrides).
    cfg: SchedCfg,
}

impl Default for Cli {
    fn default() -> Cli {
        Cli {
            seeds: 64,
            seed_base: 0,
            quick: false,
            fuel: None,
            threads: None,
            schedules: None,
            cfg: SchedCfg::default(),
        }
    }
}

impl Campaign for Cli {
    const SPEC: Spec = Spec {
        bin: "sched_campaign",
        usage: "[--seeds N] [--seed-base N] [--quick] [--fuel N] [--threads N] [--schedules M]",
        out: Some("SCHED.json"),
        schema: "compcerto-sched/1",
        block: Some(16),
    };

    fn flag(&mut self, flag: &str, args: &mut Args) -> Result<bool, String> {
        match flag {
            "--seeds" => self.seeds = args.num(flag)?,
            "--seed-base" => self.seed_base = args.num(flag)?,
            "--quick" => self.quick = true,
            "--fuel" => self.fuel = Some(args.num(flag)?),
            "--threads" => self.threads = Some(args.num::<usize>(flag)?.clamp(1, 8)),
            "--schedules" => self.schedules = Some(args.num::<usize>(flag)?.clamp(1, 64)),
            _ => return Ok(false),
        }
        Ok(true)
    }

    fn settle(&mut self) {
        if self.quick {
            self.seeds = self.seeds.min(8);
            self.cfg = SchedCfg::quick();
        }
        if let Some(fuel) = self.fuel {
            self.cfg.fuel = fuel;
        }
        if let Some(t) = self.threads {
            self.cfg.threads = t;
        }
        if let Some(m) = self.schedules {
            self.cfg.schedules = m;
        }
    }

    fn header(&self) -> Vec<Echo> {
        vec![
            ("seed count", "seeds", "--seeds", self.seeds.to_string()),
            (
                "seed_base",
                "seed_base",
                "--seed-base",
                self.seed_base.to_string(),
            ),
            ("quick", "quick", "--quick", self.quick.to_string()),
            ("fuel", "fuel", "--fuel", self.cfg.fuel.to_string()),
            (
                "threads",
                "threads",
                "--threads",
                self.cfg.threads.to_string(),
            ),
            (
                "schedules_per_seed",
                "schedules_per_seed",
                "--schedules",
                self.cfg.schedules.to_string(),
            ),
        ]
    }
}

/// The campaign aggregate. Scalar folds are commutative; the FNV chains
/// and finding rows fold strictly in seed order (blocks run in order,
/// `par_map` preserves index order within a block), so the block-wise
/// fold (and so a resumed run) equals the one-shot fold.
struct Agg {
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
    /// Each finding's report row, rendered. The threaded oracle runs no
    /// reducer: a counterexample's schedule context is the reproducer.
    findings: Vec<String>,
}

impl Agg {
    fn new(nschedules: usize) -> Agg {
        Agg {
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

    /// Fold one seed's report and counter delta, printing a finding as it
    /// is folded.
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
                self.findings.push(format!(
                    "{{\"seed\": {}, \"kind\": \"{}\", \"detail\": \"{}\"}}",
                    r.seed,
                    escape(&kind.to_string()),
                    escape(detail)
                ));
            }
        }
    }
}

impl Checkpoint for Agg {
    fn encode(&self) -> String {
        let chains: Vec<String> = self.sched_checksums.iter().map(u64::to_string).collect();
        format!(
            "{{\"agree\": {}, \"skipped\": {}, \"schedules_run\": {}, \"schedules_skipped\": {}, \
             \"checksum\": {}, \"sched_checksums\": [{}], \"counters\": {}, \"findings\": {}}}",
            self.agree,
            self.skipped,
            self.schedules_run,
            self.schedules_skipped,
            self.checksum,
            chains.join(", "),
            campaign::map_json(&self.counters.0),
            campaign::strings_json(&self.findings)
        )
    }

    fn decode(b: &Json) -> Result<Agg, String> {
        Ok(Agg {
            agree: campaign::num(b, "agree")? as usize,
            skipped: campaign::num(b, "skipped")? as usize,
            schedules_run: campaign::num(b, "schedules_run")? as usize,
            schedules_skipped: campaign::num(b, "schedules_skipped")? as usize,
            checksum: campaign::num(b, "checksum")?,
            sched_checksums: b
                .get("sched_checksums")
                .and_then(Json::as_arr)
                .ok_or("missing `sched_checksums`")?
                .iter()
                .map(|c| c.as_u64().ok_or("`sched_checksums`: not a u64"))
                .collect::<Result<_, _>>()?,
            counters: Counters(campaign::interned_map(
                b,
                "counters",
                intern_sched_counter_key,
            )?),
            findings: campaign::strings(b, "findings")?,
        })
    }
}

/// Render the `compcerto-sched/1` report.
fn render(cli: &Cli, agg: &Agg) -> String {
    let comma = |i: usize, n: usize| if i + 1 < n { "," } else { "" };
    let mut j = String::new();
    j.push_str("{\n");
    j.push_str("  \"schema\": \"compcerto-sched/1\",\n");
    let _ = writeln!(j, "  \"quick\": {},", cli.quick);
    let _ = writeln!(j, "  \"seed_base\": {},", cli.seed_base);
    let _ = writeln!(j, "  \"seeds\": {},", cli.seeds);
    let _ = writeln!(j, "  \"fuel\": {},", cli.cfg.fuel);
    let _ = writeln!(j, "  \"threads\": {},", cli.cfg.threads);
    let _ = writeln!(j, "  \"schedules_per_seed\": {},", cli.cfg.schedules);
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
    for (i, row) in agg.findings.iter().enumerate() {
        let _ = writeln!(j, "    {row}{}", comma(i, agg.findings.len()));
    }
    j.push_str("  ],\n");
    let _ = writeln!(j, "  \"verdict_checksum\": \"{:016x}\",", agg.checksum);
    j.push_str("  \"schedule_checksums\": [\n");
    for (i, h) in agg.sched_checksums.iter().enumerate() {
        let _ = writeln!(j, "    \"{h:016x}\"{}", comma(i, agg.sched_checksums.len()));
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

fn main() -> ExitCode {
    let (k, cli) = campaign::start::<Cli>();
    let cfg = &cli.cfg;
    println!(
        "sched_campaign: seeds {}..{} quick={} fuel={} threads={} schedules={}",
        cli.seed_base,
        cli.seed_base + cli.seeds,
        cli.quick,
        cfg.fuel,
        cfg.threads,
        cfg.schedules
    );
    let agg = k.fold(cli.seeds, Agg::new(cfg.schedules), |agg, block| {
        let seeds: Vec<u64> = block.map(|i| cli.seed_base + i).collect();
        for (r, c) in &par_map(k.jobs, &seeds, |_, &s| run_seed_sched_obs(s, cfg)) {
            agg.fold(r, c);
        }
    });
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
    k.finish(&render(&cli, &agg), !agg.findings.is_empty())
}
