//! Resilience-layer regression suite (ISSUE 6): the degradation ladder,
//! panic-isolated batches, and the four environment-fault classes.
//!
//! The headline satellite: a hand-poisoned optimizer pass must yield a
//! `Degraded` unit whose Asm still passes the seven-stage difftest oracle —
//! degradation loses optimization, never correctness.

use compcerto_core::lts::RunBudget;
use compiler::resilience::UnitOutcome;
use compiler::{
    check_query, compile_all_jobs, compile_all_resilient, try_c_query, CompilerOptions, ExtLib,
    Jobs, QueryVerdict, StagePrograms,
};
use mem::Val;

const SRC: &str = "
    int helper(int x) { return x * 3 + 1; }
    int entry(int a) {
        int b;
        b = helper(a + 2);
        return b - a;
    }";

/// Hand-poisoned optimizer pass → `Degraded`, and the degraded unit's
/// seven-stage pipeline still agrees with itself end to end under the
/// difftest oracle.
#[test]
fn degraded_unit_still_passes_the_stage_oracle() {
    // Jobs::N(1): the unit compiles on this thread, where the pass panic
    // is armed.
    compiler::envfault::arm_pass_panic("constprop");
    let batch = compile_all_resilient(&[SRC], CompilerOptions::default(), Jobs::N(1));
    let symtab = batch.symtab.clone().expect("batch links");
    assert_eq!(batch.outcomes.len(), 1);
    let unit = match &batch.outcomes[0] {
        UnitOutcome::Degraded {
            unit,
            pass,
            reason,
            detail,
        } => {
            assert_eq!(pass, "constprop");
            assert_eq!(reason.name(), "optimizer-panic");
            assert!(detail.contains("envfault"), "detail: {detail}");
            (**unit).clone()
        }
        o => panic!("expected Degraded, got {}", o.label()),
    };

    // The degraded unit must be semantically intact across all seven
    // oracle stages.
    let units = vec![unit];
    let sp = StagePrograms::build(&units).expect("degraded unit still links");
    let lib = ExtLib::demo(symtab.clone());
    let budget = RunBudget::with_fuel(2_000_000).no_trace();
    for arg in [0, 3, 7] {
        let q = try_c_query(&symtab, &units[0], "entry", vec![Val::Int(arg)])
            .expect("entry query builds");
        match check_query(&sp, &symtab, &lib, &q, &budget) {
            QueryVerdict::Agree(_) => {}
            QueryVerdict::Skipped { stage } => panic!("arg {arg} budget-skipped at {stage}"),
            QueryVerdict::Finding { kind, detail } => {
                panic!("degraded unit diverged: {kind} on arg {arg}: {detail}")
            }
        }
    }
}

/// A panic in a mandatory pass cannot be absorbed by the ladder: the unit
/// is `Poisoned` with the pass attributed — and the rest of the batch
/// compiles normally.
#[test]
fn mandatory_pass_panic_poisons_only_its_unit() {
    compiler::envfault::arm_pass_panic("stacking");
    let srcs = [SRC, "int other(int z) { return z + 9; }"];
    let batch = compile_all_resilient(&srcs, CompilerOptions::default(), Jobs::N(1));
    match &batch.outcomes[0] {
        UnitOutcome::Poisoned { pass, panic_msg } => {
            assert_eq!(pass, "stacking");
            assert!(panic_msg.contains("envfault"), "msg: {panic_msg}");
        }
        o => panic!("expected Poisoned, got {}", o.label()),
    }
    assert_eq!(batch.outcomes[1].label(), "ok");
}

/// A panic while validating is contained like a pass panic: the unit that
/// was being validated is `Poisoned` in `validate` (validation is not an
/// optional pass, so the ladder does not retry it) and the other unit of
/// the batch compiles and validates normally.
#[test]
fn validation_panic_poisons_only_its_unit() {
    let srcs = [SRC, "int other(int z) { return z + 9; }"];
    let typed: Vec<clight::Program> = srcs
        .iter()
        .map(|s| compiler::front_end(s).expect("front end"))
        .collect();
    let refs: Vec<&clight::Program> = typed.iter().collect();
    let symtab = clight::build_symtab(&refs).expect("links");
    // Jobs::N(1): the units compile on this thread, where the pass panic
    // is armed, and unit 0 reaches the `validate` boundary first.
    compiler::envfault::arm_pass_panic("validate");
    let outcomes = compiler::resilience::compile_typed_resilient(
        &refs,
        &symtab,
        CompilerOptions::validated(),
        Jobs::N(1),
    );
    assert_eq!(outcomes.len(), 2);
    match &outcomes[0] {
        UnitOutcome::Poisoned { pass, panic_msg } => {
            assert_eq!(pass, "validate");
            assert!(panic_msg.contains("envfault"), "msg: {panic_msg}");
        }
        o => panic!("expected Poisoned, got {}", o.label()),
    }
    assert_eq!(outcomes[1].label(), "ok");
    let unit = outcomes[1].unit().expect("unit 1 compiled");
    assert!(unit.diagnostics.is_empty(), "{:?}", unit.diagnostics);
}

/// The strict compile folds the same contained front ends and pool: a
/// one-shot panic in either phase runs its unit once more and heals, so
/// `compile_all_jobs` gives the unfaulted Asm and leaves no armed panic
/// behind for the next compile.
#[test]
fn the_strict_compile_heals_a_one_shot_panic_in_either_phase() {
    let srcs = [SRC, "int other(int z) { return z + 9; }"];
    let asm = |units: &[compiler::CompiledUnit]| -> Vec<String> {
        let fns = units.iter().flat_map(|u| &u.asm.functions);
        fns.map(|f| f.dump()).collect()
    };
    let strict = || compile_all_jobs(&srcs, CompilerOptions::default(), Jobs::N(1));
    let clean = asm(&strict().expect("compiles").0);
    for pass in ["front-end", "stacking"] {
        // Jobs::N(1): both phases run on this thread, where the panic is
        // armed.
        compiler::envfault::arm_pass_panic(pass);
        let healed = strict().unwrap_or_else(|e| panic!("{pass}: {e}"));
        assert_eq!(asm(&healed.0), clean, "{pass}");
        let batch = compile_all_resilient(&srcs, CompilerOptions::default(), Jobs::N(1));
        let labels: Vec<&str> = batch.outcomes.iter().map(UnitOutcome::label).collect();
        assert_eq!(labels, ["ok", "ok"], "{pass}");
    }
}

/// The degradation outcome is deterministic: re-running the poisoned
/// compile yields an identical outcome label, pass, and reason.
#[test]
fn ladder_outcomes_are_reproducible() {
    let render = |o: &UnitOutcome| match o {
        UnitOutcome::Degraded { pass, reason, .. } => {
            format!("degraded:{pass}:{}", reason.name())
        }
        o => o.label().to_string(),
    };
    let mut first: Option<String> = None;
    for _ in 0..3 {
        compiler::envfault::arm_pass_panic("cse");
        let batch = compile_all_resilient(&[SRC], CompilerOptions::default(), Jobs::N(1));
        let r = render(&batch.outcomes[0]);
        match &first {
            None => first = Some(r),
            Some(f) => assert_eq!(&r, f),
        }
    }
    assert_eq!(first.as_deref(), Some("degraded:cse:optimizer-panic"));
}

/// The server's misses run the same ladder as the CLI: a one-shot
/// `constprop` panic answers `degraded` and is not cached (the same request
/// misses again and answers `ok`), and a `stacking` panic fails only its
/// own unit.
#[test]
fn the_server_answers_the_ladder_outcome() {
    let dir = std::env::temp_dir().join(format!("ccomp-resilience-serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // Jobs::N(1): every miss compiles on this thread, where the pass panic
    // is armed.
    let mut server = compiler::Server::new(compiler::ServeConfig {
        opts: CompilerOptions::validated().with_metrics(),
        jobs: Jobs::N(1),
        cache_dir: dir.to_string_lossy().into_owned(),
    })
    .expect("server starts");
    let request = |srcs: &[&str]| {
        let units: Vec<String> = srcs
            .iter()
            .map(|s| format!("{{\"source\":\"{}\"}}", compiler::json::escape(s)))
            .collect();
        format!(
            "{{\"schema\":\"compcerto-serve/1\",\"op\":\"compile\",\"units\":[{}]}}",
            units.join(",")
        )
    };

    compiler::envfault::arm_pass_panic("constprop");
    let first = server.handle_line(&request(&[SRC])).expect("response");
    assert!(first.contains("\"status\":\"degraded\""), "{first}");
    assert!(first.contains("optimizer-panic in `constprop`"), "{first}");
    let again = server.handle_line(&request(&[SRC])).expect("response");
    assert!(again.contains("\"cache\":\"miss\""), "{again}");
    assert!(again.contains("\"status\":\"ok\""), "{again}");

    compiler::envfault::arm_pass_panic("stacking");
    let other = "int other(int z) { return z + 9; }";
    let r = server
        .handle_line(&request(&[SRC, other]))
        .expect("response");
    let unit1 = r.find("{\"unit\":1,").expect("unit 1 answered");
    assert!(r[..unit1].contains("\"status\":\"failed\""), "{r}");
    assert!(
        r[..unit1].contains("internal panic in `stacking` (contained)"),
        "{r}"
    );
    assert!(r[unit1..].contains("\"status\":\"ok\""), "{r}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// An injected allocator exhaustion unwinds out of a semantic run and is
/// contained; the outcome (which alloc died) is deterministic.
#[test]
fn injected_alloc_fault_is_contained_and_deterministic() {
    let run_with_fault = |site: u64| -> Result<String, String> {
        mem::envfault::arm_alloc_fault(site);
        let r = compiler::contain(|| {
            let mut m = mem::Mem::new();
            let mut blocks = Vec::new();
            for i in 0..10 {
                blocks.push(m.alloc(0, 8 * (i + 1)));
            }
            format!("allocated {} blocks", blocks.len())
        });
        mem::envfault::disarm();
        let _ = mem::envfault::take_fired();
        r
    };
    let a = run_with_fault(4);
    let b = run_with_fault(4);
    assert_eq!(a, b);
    assert_eq!(
        a,
        Err("envfault: injected allocator exhaustion".to_string())
    );
    // Past the workload's allocation count, nothing fires.
    let c = run_with_fault(64);
    assert_eq!(c, Ok("allocated 10 blocks".to_string()));
}

/// A zero-arg `main` wrapper so the closed-process runner can drive the
/// unit for the sink-write and deadline-jitter classes.
const CLOSED_SRC: &str = "
    int work(int n) {
        int i; int s;
        s = 0;
        for (i = 0; i < n; i = i + 1) { s = s + i * 3; }
        return s;
    }
    int main() {
        int r;
        r = work(50);
        return r;
    }";

/// Compile `CLOSED_SRC` and run its `main` under `budget`; returns a
/// stable rendering of the result (volatile elapsed/trace detail stripped).
fn run_closed_unit(budget: &RunBudget) -> String {
    use compiler::closed::{run_closed_budgeted, Closed};
    let batch = compile_all_resilient(&[CLOSED_SRC], CompilerOptions::default(), Jobs::N(1));
    let symtab = batch.symtab.clone().expect("links");
    let unit = batch.outcomes[0].unit().expect("compiles").clone();
    let chi = ExtLib::demo(symtab.clone());
    let closed = Closed::new(unit.clight_sem(&symtab), symtab, "main", chi);
    match run_closed_budgeted(&closed, budget) {
        Ok((code, _)) => format!("complete:{code}"),
        Err(stuck) => {
            let msg = stuck.to_string();
            if msg.contains("deadline budget exceeded") {
                "timed-out".to_string()
            } else {
                msg
            }
        }
    }
}

/// A sink-write fault drops exactly the armed line; the run completes and
/// the drop is accounted. (Graceful degradation: lost telemetry, not a
/// lost run.)
#[test]
fn sink_write_fault_drops_one_line_and_run_continues() {
    let _ = compcerto_core::obs::take_trace();
    let _ = compcerto_core::envfault::take_sink_dropped();

    let trace_run = |arm: Option<u64>| -> (usize, u64, String) {
        if let Some(site) = arm {
            compcerto_core::envfault::arm_sink_fault(site);
        }
        let out = run_closed_unit(&RunBudget::with_fuel(100_000).json_trace());
        compcerto_core::envfault::disarm();
        let lines = compcerto_core::obs::take_trace().len();
        let dropped = compcerto_core::envfault::take_sink_dropped();
        (lines, dropped, out)
    };

    let (clean_lines, clean_dropped, clean_out) = trace_run(None);
    assert_eq!(clean_dropped, 0);
    assert!(clean_lines > 2, "expected a real trace, got {clean_lines}");
    let (faulted_lines, faulted_dropped, faulted_out) = trace_run(Some(2));
    assert_eq!(faulted_dropped, 1);
    assert_eq!(faulted_lines, clean_lines - 1);
    // The run itself is untouched — only telemetry was lost.
    assert_eq!(clean_out, faulted_out);
}

/// Deadline jitter forces `TimedOut` at a deterministic strided check,
/// making the one wall-clock outcome campaign-testable.
#[test]
fn deadline_jitter_forces_deterministic_timeout() {
    use std::time::Duration;
    let outcome_with_jitter = |check: u64| -> String {
        compcerto_core::envfault::arm_deadline_jitter(check);
        // A one-hour deadline is never hit naturally; only the jitter can
        // trip the strided check.
        let budget = RunBudget::with_fuel(100_000)
            .deadline(Duration::from_secs(3600))
            .no_trace();
        let out = run_closed_unit(&budget);
        compcerto_core::envfault::disarm();
        let _ = compcerto_core::envfault::take_deadline_fired();
        out
    };
    // Check 1 happens at step 0: the jitter fires before any work.
    let a = outcome_with_jitter(1);
    let b = outcome_with_jitter(1);
    assert_eq!(a, b);
    assert_eq!(a, "timed-out");
    // A check index past the run's stride schedule never fires: the run
    // completes normally.
    let c = outcome_with_jitter(1_000);
    assert!(
        c != "timed-out",
        "jitter beyond schedule must not fire: {c}"
    );
    assert!(c.starts_with("complete:"), "unexpected outcome: {c}");
}
