//! Fault-injection campaign (EXPERIMENTS.md row B5): generate seeded
//! mutants per convention-violation class, run each through the Theorem 3.8
//! checker under an explicit budget, and print the sensitivity matrix.
//!
//! Usage:
//!
//! ```text
//! cargo run -p bench --bin faultinj_campaign -- \
//!     [--seed N] [--per-class N] [--fuel N] [--jobs N|auto] \
//!     [--block N] [--ckpt PATH] [--resume] [--max-blocks N]
//! ```
//!
//! Output is byte-deterministic for a given seed *and any `--jobs` value*:
//! mutation sites and payloads come from SplitMix64 (generated serially
//! before the probe fan-out), budgets are fuel-based (no wall-clock), and
//! tallies use ordered maps over index-ordered probe results. Any dynamic
//! escape exits 1.
//!
//! The resumable item is one mutation class ([`compiler::run_campaign_class`]
//! is a pure function of `(cfg, class)`: each class owns its own split of
//! the master RNG), one class per block by default. Checkpoints and the
//! exit codes are the campaign kernel's ([`bench::campaign`]); its progress
//! notes go to stderr, so a resumed run prints the same stdout.

use std::process::ExitCode;

use bench::campaign::{self, Args, Campaign, Checkpoint, Echo, Spec};
use compiler::json::Json;
use compiler::{
    intern_counter_key, intern_error_class, run_campaign_class, CampaignBase, CampaignCfg,
    CampaignReport, ClassStats, Counters, MUTATION_CLASSES,
};

#[derive(Default)]
struct Cli(CampaignCfg);

impl Campaign for Cli {
    const SPEC: Spec = Spec {
        bin: "faultinj_campaign",
        usage: "[--seed N] [--per-class N] [--fuel N]",
        out: None,
        schema: "",
        normalize: None,
        block: Some(1),
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

    fn header(&self) -> Vec<Echo> {
        vec![
            ("seed", "seed", "--seed", self.0.seed.to_string()),
            (
                "per_class",
                "per_class",
                "--per-class",
                self.0.per_class.to_string(),
            ),
            ("fuel", "fuel", "--fuel", self.0.fuel.to_string()),
        ]
    }

    fn unechoed(&self) -> String {
        format!("probes={:?}", self.0.probe_args)
    }
}

/// The finished classes' rows, in `MUTATION_CLASSES` order, and their
/// summed counters.
#[derive(Default)]
struct Agg {
    stats: Vec<ClassStats>,
    counters: Counters,
}

impl Checkpoint for Agg {
    fn encode(&self) -> String {
        let rows: Vec<String> = self
            .stats
            .iter()
            .map(|s| {
                format!(
                    "{{\"class\": \"{}\", \"generated\": {}, \"detected\": {}, \
                     \"static_caught\": {}, \"caught_both\": {}, \"expected_class\": {}, \
                     \"errors\": {}}}",
                    s.class.name(),
                    s.generated,
                    s.detected,
                    s.static_caught,
                    s.caught_both,
                    s.expected_class,
                    campaign::map_json(&s.errors)
                )
            })
            .collect();
        format!(
            "{{\"counters\": {}, \"classes\": [{}]}}",
            campaign::map_json(&self.counters.0),
            rows.join(", ")
        )
    }

    fn decode(b: &Json) -> Result<Agg, String> {
        let rows = b
            .get("classes")
            .and_then(Json::as_arr)
            .ok_or("missing `classes`")?;
        if rows.len() > MUTATION_CLASSES.len() {
            return Err(format!(
                "{} classes, of {}",
                rows.len(),
                MUTATION_CLASSES.len()
            ));
        }
        let stats = rows
            .iter()
            .zip(MUTATION_CLASSES)
            .map(|(row, class)| {
                let name = row.get("class").and_then(Json::as_str).unwrap_or("");
                if name != class.name() {
                    return Err(format!("class `{name}` where `{}` belongs", class.name()));
                }
                let n = |key: &str| campaign::num(row, key).map(|v| v as usize);
                Ok(ClassStats {
                    class,
                    generated: n("generated")?,
                    detected: n("detected")?,
                    static_caught: n("static_caught")?,
                    caught_both: n("caught_both")?,
                    expected_class: n("expected_class")?,
                    errors: campaign::interned_map(row, "errors", intern_error_class)?
                        .into_iter()
                        .map(|(k, v)| (k, v as usize))
                        .collect(),
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(Agg {
            stats,
            counters: Counters(campaign::interned_map(b, "counters", intern_counter_key)?),
        })
    }
}

fn main() -> ExitCode {
    let (k, Cli(mut cfg)) = campaign::start::<Cli>();
    cfg.jobs = k.jobs;
    let base = CampaignBase::prepare(&cfg).unwrap_or_else(|e| bench::fail(e));
    let agg = k.fold(
        MUTATION_CLASSES.len() as u64,
        Agg::default(),
        |agg, classes| {
            for ci in classes {
                let (stats, counters) = run_campaign_class(&cfg, &base, ci as usize);
                agg.stats.push(stats);
                agg.counters.add(&counters);
            }
        },
    );
    let report = CampaignReport {
        cfg,
        stats: agg.stats,
        counters: agg.counters,
    };
    k.finish(&format!("{report}\n"), report.total_escapes() > 0)
}
