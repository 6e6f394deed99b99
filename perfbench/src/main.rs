//! The repository benchmark: compile, oracle and serve traffic through the
//! public API, with output checks, and a separate traced run that breaks
//! the time down by layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload NAME --seed N --seconds S --trace 0|1 [--tiny] [--pin NAME=HEX]
//! ```
//!
//! Each workload is a closed loop from one process: one operation at a
//! time, the next sent when the previous one returns, with the library's
//! own parallelism at `Jobs::Auto`. Its inputs are a fixed population built
//! during set-up, and the seed orders them: per-input cost varies too much
//! (see `compile::corpus` and `oracle::population`) for inputs drawn per
//! seed to give comparable runs. With `--trace 0` the run measures whole
//! passes over the inputs for about `--seconds` and prints every end-to-end
//! metric, its op times scaled for the machine's speed (`util::Timeline`);
//! with `--trace 1` it makes one pass inside spans and prints every
//! per-layer metric. The last line of standard output is one JSON object;
//! the exit code is 0 only when every output check passed. `--tiny` shrinks
//! the inputs for the self-test and `--pin` overrides one pinned checksum.
//!
//! A record of the run (cores, jobs, reps, seed, checksums, each metric's
//! unit and direction) goes to `perfbench/out/`, next to the spans of a
//! traced run as JSON-lines and folded stacks.

mod compile;
mod layers;
mod oracle;
mod pipeline;
mod serve;
mod trace;
mod util;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;

use compiler::json;

/// Checksums of each workload's outputs over its whole input population.
const PINS: &str = include_str!("../pins.txt");

/// Where records, spans and the serve cache live (inside the checkout).
pub fn out_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

pub struct RunCfg {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub tiny: bool,
    /// Set-ups per run; `setup_s` is their median.
    pub setup_reps: usize,
    pins: BTreeMap<String, String>,
}

/// What one run measured and checked.
pub struct Report {
    workload: String,
    seed: u64,
    trace: bool,
    pub attempted: u64,
    pub failed: u64,
    problems: Vec<String>,
    metrics: BTreeMap<String, f64>,
    aliases: Vec<(String, f64, &'static str)>,
    notes: Vec<(String, String)>,
    pins: BTreeMap<String, String>,
    samples: usize,
    setup_reps: usize,
}

impl Report {
    fn new(cfg: &RunCfg) -> Report {
        Report {
            workload: cfg.workload.clone(),
            seed: cfg.seed,
            trace: cfg.trace,
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            metrics: BTreeMap::new(),
            aliases: Vec::new(),
            notes: Vec::new(),
            pins: cfg.pins.clone(),
            samples: 0,
            setup_reps: cfg.setup_reps,
        }
    }

    /// An output check failed: the run is not correct.
    fn problem(&mut self, msg: String) {
        eprintln!("check failed: {msg}");
        self.problems.push(msg);
    }

    fn note(&mut self, key: &str, value: String) {
        self.notes.push((key.to_string(), value));
    }

    /// A workload-specific name for an end-to-end figure (reported, not
    /// part of the result object).
    fn alias(&mut self, name: &str, value: f64, unit: &'static str) {
        self.aliases.push((name.to_string(), value, unit));
    }

    /// Compare a checksum with its pin, when the workload has one.
    fn check_pin(&mut self, name: &str, got: &str) {
        self.note(&format!("checksum.{name}"), got.to_string());
        match self.pins.get(name).cloned() {
            Some(want) if want != got => {
                self.problem(format!("checksum {name} is {got}, pinned {want}"))
            }
            Some(_) => self.note(&format!("pin.{name}"), "matches".into()),
            None => self.note(&format!("pin.{name}"), "not pinned".into()),
        }
    }

    /// The end-to-end metrics of a closed loop: `work` items completed in
    /// ops whose probe-scaled times are `ms`, after the set-ups on `setup`.
    fn e2e(&mut self, work: f64, ms: &[f64], setup: &util::Timeline, passes: &util::Passes) {
        self.samples = ms.len();
        if ms.is_empty() {
            return;
        }
        self.note("passes", passes.count().to_string());
        self.metrics.insert(
            "throughput_per_s".into(),
            work / (ms.iter().sum::<f64>() / 1e3),
        );
        self.metrics
            .insert("p50_ms".into(), util::quantile(ms, 0.5));
        self.metrics
            .insert("p90_ms".into(), util::quantile(ms, 0.9));
        self.metrics
            .insert("setup_s".into(), util::median(&setup.scaled().0) / 1e3);
        self.metrics.insert("peak_rss_mb".into(), passes.rss_mb);
    }

    /// The per-layer metrics of a traced run, from this thread's spans.
    fn layers(&mut self, li: layers::LayerInput) {
        let spans = trace::take();
        let jobs = compiler::Jobs::Auto.resolve();
        let (m, sums) = layers::per_layer(&spans, &li, jobs);
        if let Err(e) = sums {
            self.problem(e);
        }
        self.samples = spans.iter().filter(|s| s.name == "op").count();
        self.metrics = m;
        let stem = out_dir().join(format!("{}-seed{}", self.workload, self.seed));
        let write = |ext: &str, text: String| {
            let path = stem.with_extension(ext);
            if let Err(e) = std::fs::write(&path, text) {
                eprintln!("warning: cannot write {}: {e}", path.display());
            }
        };
        write("spans.jsonl", trace::to_jsonl(&spans));
        write("folded", trace::to_folded(&spans));
    }

    fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    fn table(&self) -> Vec<(String, &'static str, &'static str)> {
        if self.trace {
            layers::per_layer_table()
        } else {
            layers::END_TO_END
                .iter()
                .map(|(n, u, b)| (n.to_string(), *u, *b))
                .collect()
        }
    }

    /// The run record: configuration, checks, checksums and every metric
    /// with its unit and direction.
    fn record(&self) -> String {
        let mut s = String::from("{\n  \"schema\": \"compcerto-bench/2\",\n");
        let _ = writeln!(s, "  \"workload\": \"{}\",", self.workload);
        let _ = writeln!(s, "  \"seed\": {},", self.seed);
        let _ = writeln!(s, "  \"trace\": {},", self.trace);
        let _ = writeln!(s, "  \"cores\": {},", compiler::available_parallelism());
        let _ = writeln!(s, "  \"jobs\": {},", compiler::Jobs::Auto.resolve());
        let _ = writeln!(s, "  \"reps\": {},", self.samples);
        let _ = writeln!(s, "  \"setup_reps\": {},", self.setup_reps);
        let _ = writeln!(s, "  \"attempted\": {},", self.attempted);
        let _ = writeln!(s, "  \"failed\": {},", self.failed);
        let _ = writeln!(s, "  \"correct\": {},", self.correct());
        let problems: Vec<String> = self
            .problems
            .iter()
            .map(|p| format!("\"{}\"", json::escape(p)))
            .collect();
        let _ = writeln!(s, "  \"problems\": [{}],", problems.join(", "));
        for (k, v) in &self.notes {
            let _ = writeln!(s, "  \"{k}\": \"{}\",", json::escape(v));
        }
        for (n, v, u) in &self.aliases {
            let _ = writeln!(s, "  \"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}},");
        }
        s.push_str("  \"metrics\": {\n");
        let table = self.table();
        for (i, (n, u, b)) in table.iter().enumerate() {
            let v = self.metrics.get(n).copied().unwrap_or(0.0);
            let comma = if i + 1 < table.len() { "," } else { "" };
            let _ = writeln!(
                s,
                "    \"{n}\": {{\"value\": {v}, \"unit\": \"{u}\", \"better\": \"{b}\"}}{comma}"
            );
        }
        s.push_str("  }\n}\n");
        s
    }

    /// The result object: the last line of standard output.
    fn result_line(&self) -> String {
        let members: Vec<String> = self
            .table()
            .iter()
            .map(|(n, u, _)| {
                let v = self.metrics.get(n).copied().unwrap_or(0.0);
                format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            members.join(", ")
        )
    }
}

const WORKLOADS: [&str; 4] = [
    "compile-corpus",
    "oracle-seeds",
    "serve-edit",
    "serve-rebuild",
];

fn usage() -> String {
    format!(
        "usage: perfbench --workload {{{}}} --seed N --seconds S --trace 0|1 [--tiny] [--pin NAME=HEX]",
        WORKLOADS.join("|")
    )
}

fn parse_args() -> Result<RunCfg, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut tiny = false;
    let mut overrides = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut value = |flag: &str| args.next().ok_or(format!("{flag} needs a value"));
        match a.as_str() {
            "--workload" => workload = Some(value("--workload")?),
            "--seed" => {
                seed = Some(
                    value("--seed")?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value("--seconds")?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
                })
            }
            "--tiny" => tiny = true,
            "--pin" => {
                let v = value("--pin")?;
                let (k, h) = v.split_once('=').ok_or("--pin needs NAME=HEX")?;
                overrides.push((k.to_string(), h.to_string()));
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`"));
    }
    let seed = seed.ok_or("--seed is required")?;
    let mut pins = BTreeMap::new();
    if !tiny {
        for line in PINS
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
        {
            let f: Vec<&str> = line.split_whitespace().collect();
            if let [w, name, hex] = f[..] {
                if w == workload {
                    pins.insert(name.to_string(), hex.to_string());
                }
            }
        }
    }
    pins.extend(overrides);
    Ok(RunCfg {
        setup_reps: if tiny { 1 } else { 5 },
        workload,
        seed,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        tiny,
        pins,
    })
}

fn main() -> ExitCode {
    let cfg = match parse_args() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(out_dir()) {
        eprintln!("error: cannot create {}: {e}", out_dir().display());
        return ExitCode::from(1);
    }
    let rep = match cfg.workload.as_str() {
        "compile-corpus" => compile::run(&cfg),
        "oracle-seeds" => oracle::run(&cfg),
        _ => serve::run(&cfg),
    };
    let record = rep.record();
    let path = out_dir().join(format!(
        "{}-seed{}-trace{}.json",
        cfg.workload,
        cfg.seed,
        u8::from(cfg.trace)
    ));
    if let Err(e) = std::fs::write(&path, &record) {
        eprintln!("warning: cannot write {}: {e}", path.display());
    }
    for (k, v) in &rep.notes {
        println!("{k}: {v}");
    }
    for (n, v, u) in &rep.aliases {
        println!("{n} = {v} {u}");
    }
    for (n, u, b) in rep.table() {
        let v = rep.metrics.get(&n).copied().unwrap_or(0.0);
        println!("{n} = {v} {u} ({b} is better)");
    }
    println!("{}", rep.result_line());
    if rep.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
