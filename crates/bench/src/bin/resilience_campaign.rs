//! Resilience campaign (EXPERIMENTS.md row B10): sweep every
//! environment-fault class over a range of injection sites and record the
//! outcome of each injection. The gate this enforces: **no injected
//! environment fault may abort the process or hang the pipeline** — every
//! outcome is either a clean completion, a graceful degradation (dropped
//! telemetry line, deterministic timeout), or a contained panic attributed
//! to the injection. Any other outcome exits 1.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p bench --bin resilience_campaign -- \
//!     [--per-class N] [--jobs N|auto] [--out PATH | --check PATH]
//! ```
//!
//! The committed baseline is `RESIL.json` (schema `compcerto-resil/1`);
//! `ci.sh` `--check`s it under several pool widths. The flags, the
//! `--check` preflight and the exit codes are the campaign kernel's
//! ([`bench::campaign`]).
//!
//! # Why the report is byte-deterministic under any `--jobs`
//!
//! Three of the four classes (`mem-alloc`, `sink-write`,
//! `deadline-jitter`) arm **thread-local** injection points inside the
//! `par_map` closure; a pool item runs entirely on one worker thread, so
//! each injection's arm, workload, and disarm are confined to that thread
//! regardless of pool width. The `worker-panic` class arms a
//! process-global one-shot and therefore runs serially, asserting after
//! each injection that the self-healing pool produced exactly the
//! unfaulted batch. Outcome labels carry no machine facts (no file:line,
//! no timings) — a contained panic is reported by its injection class, not
//! its payload.

use std::collections::BTreeMap;
use std::process::ExitCode;

use bench::campaign::{self, Args, Campaign, Echo, Spec};
use compcerto_core::lts::RunBudget;
use compcerto_core::symtab::SymbolTable;
use compiler::closed::{run_closed_budgeted, Closed};
use compiler::envfault::{FaultClass, FaultPlan, FAULT_CLASSES};
use compiler::json::escape;
use compiler::serve::{fnv1a, FNV_OFFSET};
use compiler::{
    compile_all, compile_all_jobs, contain, par_map, CompiledUnit, CompilerOptions, ExtLib, Jobs,
};

struct Cli {
    per_class: u64,
}

impl Default for Cli {
    fn default() -> Cli {
        Cli { per_class: 60 }
    }
}

impl Campaign for Cli {
    const SPEC: Spec = Spec {
        bin: "resilience_campaign",
        usage: "[--per-class N]",
        out: Some("RESIL.json"),
        schema: "compcerto-resil/1",
        normalize: None,
        block: None,
    };

    fn flag(&mut self, flag: &str, args: &mut Args) -> Result<bool, String> {
        match flag {
            "--per-class" => self.per_class = args.num::<u64>(flag)?.max(1),
            _ => return Ok(false),
        }
        Ok(true)
    }

    fn header(&self) -> Vec<Echo> {
        vec![("per_class", "per_class", "--per-class", self.per_class.to_string())]
    }
}

/// The closed workload the thread-local classes inject into: a loop long
/// enough (~30k interpreter steps) that the strided deadline check fires
/// many times, giving the jitter class a real outcome spread.
const CLOSED_SRC: &str = "
    int work(int n) {
        int i; int s;
        s = 0;
        for (i = 0; i < n; i = i + 1) { s = s + i * 3 - (s / 7); }
        return s;
    }
    int main() {
        int r;
        r = work(3000);
        return r % 101;
    }";

/// Independent units for the worker-panic class (one pool item each).
const POOL_SRCS: [&str; 4] = [
    "int f0(int x) { return x * 3 + 1; }",
    "int f1(int x) { int i; int s; s = 0; for (i = 0; i < x; i = i + 1) { s = s + i; } return s; }",
    "int f2(int x) { return x * x - 7; }",
    "int f3(int x) { int y; y = x + 11; return y * 2; }",
];

/// Run the closed workload under `budget`, rendering a stable outcome
/// label (volatile detail stripped: a non-timeout `Stuck` is just
/// "stuck", a timeout is "timed-out").
fn run_closed(unit: &CompiledUnit, symtab: &SymbolTable, budget: &RunBudget) -> String {
    let chi = ExtLib::demo(symtab.clone());
    let closed = Closed::new(unit.clight_sem(symtab), symtab.clone(), "main", chi);
    match run_closed_budgeted(&closed, budget) {
        Ok((code, _)) => format!("complete:{code}"),
        Err(stuck) => {
            if stuck.to_string().contains("deadline budget exceeded") {
                "timed-out".to_string()
            } else {
                "stuck".to_string()
            }
        }
    }
}

/// Sanitize a contained panic into its injection attribution — outcome
/// labels must carry no payload detail (no file:line in the report).
fn panic_label(msg: &str) -> String {
    if msg.contains("injected allocator exhaustion") {
        "contained-panic:alloc-exhaustion".to_string()
    } else {
        "contained-panic:other".to_string()
    }
}

/// A cheap stable digest of a compiled batch (worker-panic runs compare
/// the healed batch against the unfaulted one).
fn batch_digest(units: &[CompiledUnit]) -> u64 {
    units
        .iter()
        .fold(FNV_OFFSET, |h, u| fnv1a(h, format!("{:?}", u.asm).as_bytes()))
}

/// One class's injection sweep: `per_class` outcomes, histogrammed.
struct ClassRow {
    class: FaultClass,
    outcomes: BTreeMap<String, u64>,
}

fn sweep(
    cli: &Cli,
    jobs: Jobs,
    class: FaultClass,
    unit: &CompiledUnit,
    symtab: &SymbolTable,
) -> ClassRow {
    let sites: Vec<u64> = (1..=cli.per_class).collect();
    let labels: Vec<String> = match class {
        // Thread-local classes: arm inside the closure. A pool item runs
        // entirely on one worker, so the injection is confined to its own
        // run whatever the pool width.
        FaultClass::MemAlloc => par_map(jobs, &sites, |_, &site| {
            FaultPlan { class, site }.arm();
            let budget = RunBudget::with_fuel(100_000).no_trace();
            let out = contain(|| run_closed(unit, symtab, &budget));
            mem::envfault::disarm();
            let _ = mem::envfault::take_fired();
            match out {
                Ok(label) => label,
                Err(msg) => panic_label(&msg),
            }
        }),
        FaultClass::SinkWrite => par_map(jobs, &sites, |_, &site| {
            // Drain this worker's sink from any previous item first.
            let _ = compcerto_core::obs::take_trace();
            let _ = compcerto_core::envfault::take_sink_dropped();
            FaultPlan { class, site }.arm();
            let budget = RunBudget::with_fuel(100_000).json_trace();
            let run = run_closed(unit, symtab, &budget);
            compcerto_core::envfault::disarm();
            let _ = compcerto_core::obs::take_trace();
            let dropped = compcerto_core::envfault::take_sink_dropped();
            format!("dropped:{dropped}:{run}")
        }),
        FaultClass::DeadlineJitter => par_map(jobs, &sites, |_, &site| {
            FaultPlan { class, site }.arm();
            let budget = RunBudget::with_fuel(100_000)
                .deadline(std::time::Duration::from_secs(3600))
                .no_trace();
            let run = run_closed(unit, symtab, &budget);
            compcerto_core::envfault::disarm();
            let _ = compcerto_core::envfault::take_deadline_fired();
            run
        }),
        // Process-global one-shot arm: runs serially by necessity. The
        // assertion is the whole point — the healed batch must be
        // byte-equal to the unfaulted one.
        FaultClass::WorkerPanic => {
            let baseline = match compile_all(&POOL_SRCS, CompilerOptions::default()) {
                Ok((units, _)) => batch_digest(&units),
                Err(e) => bench::fail(format!("pool workload does not compile: {e:?}")),
            };
            sites
                .iter()
                .map(|&site| {
                    let item = (site as usize - 1) % POOL_SRCS.len();
                    compiler::envfault::arm_worker_panic(item);
                    let r = compile_all_jobs(&POOL_SRCS, CompilerOptions::default(), Jobs::N(4));
                    let consumed = !compiler::envfault::worker_panic_pending();
                    compiler::envfault::disarm_all();
                    match r {
                        Ok((units, _)) if batch_digest(&units) == baseline && consumed => {
                            format!("healed:item{item}")
                        }
                        Ok(_) => "divergent".to_string(),
                        Err(_) => "failed".to_string(),
                    }
                })
                .collect()
        }
    };
    let mut outcomes: BTreeMap<String, u64> = BTreeMap::new();
    for l in labels {
        *outcomes.entry(l).or_insert(0) += 1;
    }
    ClassRow { class, outcomes }
}

fn render(cli: &Cli, rows: &[ClassRow]) -> String {
    let injections = cli.per_class * FAULT_CLASSES.len() as u64;
    let mut j = String::new();
    j.push_str("{\n");
    j.push_str("  \"schema\": \"compcerto-resil/1\",\n");
    j.push_str(&format!("  \"per_class\": {},\n", cli.per_class));
    j.push_str(&format!("  \"injections\": {injections},\n"));
    // By construction: reaching this line means every injection returned.
    j.push_str("  \"aborts\": 0,\n");
    j.push_str("  \"classes\": [\n");
    for (i, row) in rows.iter().enumerate() {
        j.push_str(&format!(
            "    {{\"class\": \"{}\", \"injections\": {}, \"outcomes\": {{",
            row.class.name(),
            cli.per_class
        ));
        let members: Vec<String> = row
            .outcomes
            .iter()
            .map(|(k, v)| format!("\"{}\": {v}", escape(k)))
            .collect();
        j.push_str(&members.join(", "));
        j.push_str(&format!(
            "}}}}{}\n",
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    j.push_str("  ]\n");
    j.push_str("}\n");
    j
}

fn main() -> ExitCode {
    let (k, cli) = campaign::start::<Cli>();
    // The shared closed workload, compiled once with no faults armed.
    let (unit, symtab) = match compile_all(&[CLOSED_SRC], CompilerOptions::default()) {
        Ok((mut units, symtab)) => (units.remove(0), symtab),
        Err(e) => bench::fail(format!("workload does not compile: {e:?}")),
    };
    let rows: Vec<ClassRow> = FAULT_CLASSES
        .iter()
        .map(|&class| {
            let row = sweep(&cli, k.jobs, class, &unit, &symtab);
            println!(
                "{:<16} {} injections, {} distinct outcomes",
                row.class.name(),
                cli.per_class,
                row.outcomes.len()
            );
            row
        })
        .collect();

    // The hard gate: no injection may surface as an unexplained failure.
    let mut bad = 0u64;
    for row in &rows {
        for (label, n) in &row.outcomes {
            let ok = label.starts_with("complete:")
                || label.starts_with("dropped:")
                || label.starts_with("healed:")
                || label == "timed-out"
                || label == "contained-panic:alloc-exhaustion";
            if !ok {
                eprintln!(
                    "unexpected outcome for {}: {label} x{n}",
                    row.class.name()
                );
                bad += n;
            }
        }
    }
    k.finish(&render(&cli, &rows), bad > 0)
}
