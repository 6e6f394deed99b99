//! `ccomp-o`: the command-line front end of CompCertO-rs.
//!
//! ```text
//! ccomp-o [OPTIONS] FILE.c [FILE.c ...]
//! ccomp-o serve --cache-dir DIR [serve options]
//!
//!   --dump-asm           print the generated Asm-O code
//!   --dump-rtl           print the optimized RTL
//!   --run FN ARGS...     run FN on integer arguments (Clight semantics;
//!                        multiple files are linked, paper App. A.3)
//!   --check FN ARGS...   additionally check Thm 3.8 on the execution
//!                        (with two files: Cor 3.9, separate compilation)
//!   --validate           run the static validation layer (IR lints +
//!                        per-pass translation validators); a unit with a
//!                        finding is recompiled with the optional RTL
//!                        optimizations skipped and reported on stderr,
//!                        naming its first finding, as degraded (or as a
//!                        `validate` failure if the finding persists), and
//!                        the exit code is nonzero; a clean run prints
//!                        `static validation: clean`
//!   --analyze-json       emit the abstract-interpretation facts driving
//!                        the Vprop/Ndce passes (per-function value facts
//!                        and neededness sets) as a deterministic
//!                        `compcerto-analysis/1` JSON document
//!   --jobs N             compile on N worker threads, one pool item per
//!                        function (`auto`/`0` = all hardware threads, the
//!                        default; `1` = the exact serial pipeline; output
//!                        is byte-identical for every setting)
//!   --metrics            print the observability report (deterministic
//!                        counters first, wall-clock spans after) as text
//!   --metrics-json       like --metrics, but as a `compcerto-obs/1` JSON
//!                        document on stdout
//!   --trace-json         with --run/--check: emit the execution's
//!                        JSON-lines event trace (run-start/step/external/
//!                        terminal) on stdout before the result
//!   -O0                  disable the optional optimizations
//! ```
//!
//! # The compile server
//!
//! `ccomp-o serve` starts a persistent daemon speaking newline-framed JSON
//! (`compcerto-serve/1`, see [`compiler::serve`]) on stdin/stdout — or on
//! a Unix socket with `--socket PATH` — backed by a content-addressed
//! artifact cache:
//!
//! ```text
//!   --cache-dir DIR      artifact cache directory (required; created)
//!   --socket PATH        listen on a Unix socket instead of stdin/stdout
//!   --jobs N|auto        worker-pool width for the function-level fan-out
//!   -O0                  disable the optional optimizations
//!   --no-validate        skip the static validation layer
//!   --no-metrics         skip the per-unit metrics counters
//! ```
//!
//! The server defaults to validation + metrics on (cached artifacts carry
//! both). Its exit codes follow the same contract: 0 on EOF or a
//! `shutdown` op, 1 on I/O failure, 2 on usage errors, never 101.
//!
//! # Exit codes
//!
//! The driver's exit code is a contract (scripts and CI build on it):
//!
//! * `0` — every unit compiled clean; all requested runs/checks passed.
//! * `1` — findings: a unit failed, was poisoned by a contained panic, or
//!   was **degraded** (compiled with the optional RTL optimizations
//!   skipped after an optimizer panic or validator rejection — output is
//!   still produced, but the degradation is reported and the exit code
//!   says so); also execution/check failures and unreadable inputs.
//! * `2` — usage errors (bad flags, no input files).
//! * `101` — never. The pipeline is panic-isolated
//!   ([`compiler::resilience`]): a panicking pass poisons its unit and is
//!   reported under exit code 1 instead of aborting the process.

use std::process::ExitCode;

use compiler::{
    c_query, check_thm38, compile_all_resilient, CompilerOptions, ExtLib, Jobs, MetricsReport,
    UnitOutcome,
};
use mem::Val;

struct Cli {
    files: Vec<String>,
    dump_asm: bool,
    dump_rtl: bool,
    validate: bool,
    analyze_json: bool,
    metrics: bool,
    metrics_json: bool,
    trace_json: bool,
    run: Option<(String, Vec<i32>, bool)>,
    opts: CompilerOptions,
    jobs: Jobs,
}

fn parse_args() -> Result<Cli, String> {
    let mut args = std::env::args().skip(1).peekable();
    let mut cli = Cli {
        files: Vec::new(),
        dump_asm: false,
        dump_rtl: false,
        validate: false,
        analyze_json: false,
        metrics: false,
        metrics_json: false,
        trace_json: false,
        run: None,
        opts: CompilerOptions::default(),
        jobs: Jobs::Auto,
    };
    while let Some(a) = args.next() {
        match a.as_str() {
            "--dump-asm" => cli.dump_asm = true,
            "--dump-rtl" => cli.dump_rtl = true,
            "--validate" => cli.validate = true,
            "--analyze-json" => cli.analyze_json = true,
            "--metrics" => cli.metrics = true,
            "--metrics-json" => {
                cli.metrics = true;
                cli.metrics_json = true;
            }
            "--trace-json" => cli.trace_json = true,
            "-O0" => cli.opts = CompilerOptions::none(),
            "--jobs" => {
                let v = args.next().ok_or("--jobs requires a value")?;
                cli.jobs = Jobs::parse(&v)?;
            }
            "--run" | "--check" => {
                let f = args
                    .next()
                    .ok_or_else(|| format!("{a} requires a function name"))?;
                let mut vals = Vec::new();
                while let Some(n) = args.peek() {
                    match n.parse::<i32>() {
                        Ok(v) => {
                            vals.push(v);
                            args.next();
                        }
                        Err(_) => break,
                    }
                }
                cli.run = Some((f, vals, a == "--check"));
            }
            "-h" | "--help" => return Err("help".into()),
            f if !f.starts_with('-') => cli.files.push(f.to_string()),
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    if cli.files.is_empty() {
        return Err("no input files".into());
    }
    // `-O0` rebuilds `opts`, so transfer the flags at the end.
    cli.opts.validate = cli.validate;
    cli.opts.metrics = cli.metrics;
    Ok(cli)
}

const SERVE_USAGE: &str = "usage: ccomp-o serve --cache-dir DIR [--socket PATH] \
     [--jobs N|auto] [-O0] [--no-validate] [--no-metrics]";

/// The `ccomp-o serve` subcommand: parse the serve flags, then hand the
/// process over to the framing loop ([`compiler::serve`]).
fn serve_main(args: &[String]) -> ExitCode {
    let mut cache_dir: Option<String> = None;
    let mut socket: Option<String> = None;
    let mut jobs = Jobs::Auto;
    let mut opts = CompilerOptions::validated().with_metrics();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--cache-dir" => match it.next() {
                Some(d) => cache_dir = Some(d.clone()),
                None => {
                    eprintln!("error: --cache-dir requires a value\n{SERVE_USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--socket" => match it.next() {
                Some(p) => socket = Some(p.clone()),
                None => {
                    eprintln!("error: --socket requires a value\n{SERVE_USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--jobs" => match it.next().map(|v| Jobs::parse(v)) {
                Some(Ok(j)) => jobs = j,
                Some(Err(e)) => {
                    eprintln!("error: {e}\n{SERVE_USAGE}");
                    return ExitCode::from(2);
                }
                None => {
                    eprintln!("error: --jobs requires a value\n{SERVE_USAGE}");
                    return ExitCode::from(2);
                }
            },
            "-O0" => {
                // Preserve the validate/metrics toggles across the rebuild.
                let (v, m) = (opts.validate, opts.metrics);
                opts = CompilerOptions::none();
                opts.validate = v;
                opts.metrics = m;
            }
            "--no-validate" => opts.validate = false,
            "--no-metrics" => opts.metrics = false,
            "-h" | "--help" => {
                eprintln!("{SERVE_USAGE}");
                return ExitCode::from(2);
            }
            other => {
                eprintln!("error: unknown serve option `{other}`\n{SERVE_USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    let Some(cache_dir) = cache_dir else {
        eprintln!("error: serve requires --cache-dir\n{SERVE_USAGE}");
        return ExitCode::from(2);
    };
    let cfg = compiler::ServeConfig {
        opts,
        jobs,
        cache_dir,
    };
    let code = match socket {
        Some(path) => compiler::run_unix(cfg, &path),
        None => compiler::run_stdio(cfg),
    };
    ExitCode::from(code)
}

fn main() -> ExitCode {
    // The server has its own flag grammar; dispatch before the batch
    // compiler's parse sees `serve` as an input file.
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("serve") {
        return serve_main(&argv[1..]);
    }

    let cli = match parse_args() {
        Ok(c) => c,
        Err(msg) => {
            if msg != "help" {
                eprintln!("error: {msg}");
            }
            eprintln!(
                "usage: ccomp-o [--dump-asm] [--dump-rtl] [--validate] [--analyze-json] \
                 [--metrics] [--metrics-json] [--trace-json] \
                 [--jobs N|auto] [-O0] [--run FN ARGS... | --check FN ARGS...] FILE.c ...\n\
                 \x20      ccomp-o serve --cache-dir DIR [--socket PATH] [--jobs N|auto] [-O0] \
                 [--no-validate] [--no-metrics]"
            );
            return ExitCode::from(2);
        }
    };

    let mut sources = Vec::new();
    for f in &cli.files {
        match std::fs::read_to_string(f) {
            Ok(s) => sources.push(s),
            Err(e) => {
                eprintln!("error: cannot read `{f}`: {e}");
                return ExitCode::from(1);
            }
        }
    }
    let refs: Vec<&str> = sources.iter().map(String::as_str).collect();
    // The panic-isolated pipeline: a unit that fails, panics, or degrades
    // never takes the batch (or the process) down with it.
    let batch = compile_all_resilient(&refs, cli.opts, cli.jobs);
    let mut units = Vec::with_capacity(batch.outcomes.len());
    let mut degraded = 0usize;
    let mut fatal = 0usize;
    for (file, outcome) in cli.files.iter().zip(batch.outcomes) {
        match outcome {
            UnitOutcome::Ok(unit) => units.push(*unit),
            UnitOutcome::Degraded {
                unit,
                pass,
                reason,
                detail,
            } => {
                degraded += 1;
                eprintln!(
                    "warning: {file}: degraded — {} in `{pass}` ({detail}); \
                     recompiled with the optional RTL optimizations skipped",
                    reason.name()
                );
                units.push(*unit);
            }
            UnitOutcome::Failed { stage, error } => {
                fatal += 1;
                eprintln!("error: {file}: {stage}: {error}");
            }
            UnitOutcome::Poisoned { pass, panic_msg } => {
                fatal += 1;
                eprintln!("error: {file}: internal panic in `{pass}` (contained): {panic_msg}");
            }
        }
    }
    if fatal > 0 {
        eprintln!("error: {fatal} unit(s) failed to compile");
        return ExitCode::from(1);
    }
    let symtab = match batch.symtab {
        Some(t) => t,
        None => {
            eprintln!("error: the units do not link");
            return ExitCode::from(1);
        }
    };

    // The ladder hands on only units without findings: a unit with one was
    // reported above as degraded (clean on retry) or failed.
    if cli.validate {
        println!("static validation: clean ({} unit(s))", units.len());
    }

    if cli.analyze_json {
        print!("{}", compiler::analysis_json(&cli.files, &units, &symtab));
    }

    for (file, unit) in cli.files.iter().zip(&units) {
        if cli.dump_rtl {
            println!("; RTL for {file}");
            for f in &unit.rtl_opt.functions {
                print!("{}", f.dump());
            }
        }
        if cli.dump_asm {
            println!("; Asm-O for {file}");
            for f in &unit.asm.functions {
                print!("{}", f.dump());
            }
        }
    }

    // Everything executed from here on (the Clight run and the Thm 3.8 /
    // Cor 3.9 checks) contributes its deterministic counter delta to the
    // `--metrics` report; the compile-phase counters live in the per-unit
    // metrics absorbed by `from_units` below.
    let run_snap = cli.metrics.then(compiler::ObsSnapshot::take);

    if let Some((fname, args, check)) = cli.run {
        let unit = match units.iter().find(|u| u.clight.function(&fname).is_some()) {
            Some(u) => u,
            None => {
                eprintln!("error: no unit defines `{fname}`");
                return ExitCode::from(1);
            }
        };
        let vals: Vec<Val> = args.iter().map(|n| Val::Int(*n)).collect();
        let q = c_query(&symtab, unit, &fname, vals);
        let lib = ExtLib::demo(symtab.clone());
        // Link all translation units at the Clight level (App. A.3), so
        // cross-unit calls resolve internally rather than escaping.
        let mut whole = units[0].clight.clone();
        for u in &units[1..] {
            whole = match clight::link(&whole, &u.clight) {
                Ok(p) => p,
                Err(e) => {
                    eprintln!("error: linking failed: {e}");
                    return ExitCode::from(1);
                }
            };
        }
        let sem = clight::ClightSem::new(whole, symtab.clone());
        let budget = if cli.trace_json {
            compcerto_core::lts::RunBudget::with_fuel(100_000_000).json_trace()
        } else {
            compcerto_core::lts::RunBudget::with_fuel(100_000_000).no_trace()
        };
        let out = compcerto_core::lts::run_budgeted(&sem, &q, &mut |m| lib.answer_c(m), &budget);
        if cli.trace_json {
            for line in compcerto_core::obs::take_trace() {
                println!("{line}");
            }
        }
        match out {
            compcerto_core::lts::RunOutcome::Complete { answer, .. } => {
                println!("{fname}({args:?}) = {}", answer.retval);
            }
            other => {
                eprintln!("error: execution did not complete: {other:?}");
                return ExitCode::from(1);
            }
        }
        if check {
            match units.as_slice() {
                [u] => match check_thm38(u, &symtab, &lib, &q) {
                    Ok(report) => println!(
                        "Thm 3.8 ✓  (source {} steps, target {} steps, {} external boundaries)",
                        report.source_steps, report.target_steps, report.external_calls
                    ),
                    Err(e) => {
                        eprintln!("Thm 3.8 ✗: {e}");
                        return ExitCode::from(1);
                    }
                },
                [u1, u2] => match compiler::check_cor39(u1, u2, &symtab, &lib, &q) {
                    Ok(report) => println!(
                        "Cor 3.9 ✓  (source {} steps, target {} steps, {} external boundaries)",
                        report.source_steps, report.target_steps, report.external_calls
                    ),
                    Err(e) => {
                        eprintln!("Cor 3.9 ✗: {e}");
                        return ExitCode::from(1);
                    }
                },
                _ => {
                    eprintln!("error: --check supports one file (Thm 3.8) or two (Cor 3.9)");
                    return ExitCode::from(1);
                }
            }
        }
    }

    if cli.metrics {
        let mut report = MetricsReport::from_units("ccomp-o", &units);
        if let Some(snap) = run_snap {
            let delta = snap.delta();
            if !delta.0.is_empty() {
                report.absorb_counters(&delta);
            }
        }
        if cli.metrics_json {
            print!("{}", report.to_json());
        } else {
            print!("{}", report.render_text());
        }
    }
    // Degraded output is usable output, but the exit code must say so.
    if degraded > 0 {
        eprintln!("warning: {degraded} unit(s) compiled degraded");
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
