//! Fuel-boundary edges of the batched step loop, across all seven stage
//! interpreters.
//!
//! The runner checks fuel *before* every step, so a run that completes in
//! `n` steps needs fuel `n + 1` — and `step_batch` must honour a cut at
//! **any** intermediate fuel value (DESIGN.md §13.1). These tests find each
//! stage's minimal completing fuel by sweeping upward from zero, which
//! exercises every cut point exactly once, and pin:
//!
//! * fuel 0 and fuel 1 are out-of-fuel for every stage (the program below
//!   needs more than one step at every level);
//! * every fuel below the minimum is out-of-fuel (monotone — no cut point
//!   completes early or wedges);
//! * the observation at the minimal fuel is byte-equal to the observation
//!   with surplus fuel (a tight budget never changes semantics);
//! * every chunk policy of the run loop — one step per batch (ring trace,
//!   JSON trace, quotas), stride-aligned batches (deadline) and whole-fuel
//!   batches (no trace) — agrees at the boundary fuels.
//!
//! The composites batch too: `Clight ⊕ Clight` and `Closed` over it get the
//! same boundary sweep, and each of their rules (push, pop, boot, a call
//! that χ answers) is pinned to cost exactly one step.

use std::time::Duration;

use compcerto_core::hcomp::HComp;
use compcerto_core::iface::{Answer, CQuery, Question, Void};
use compcerto_core::lts::{run_budgeted, Env, Lts, RunBudget, RunOutcome};
use compcerto_core::obs::{self, LtsCounters};
use compiler::{
    c_query, compile_all, run_stage, Closed, CompilerOptions, ExtLib, Obs, StageOutcome,
    StagePrograms, STAGES,
};
use mem::Val;

/// A small program with a loop and external calls: enough steps that every
/// stage has interior cut points, small enough that the exhaustive fuel
/// sweep stays fast.
const SRC: &str = "
    extern int inc(int);
    int run(int x) {
        int i; int s;
        s = x;
        for (i = 0; i < 3; i = i + 1) {
            s = inc(s);
            s = s + i;
        }
        return s;
    }
";

struct Fixture {
    sp: StagePrograms,
    symtab: compcerto_core::symtab::SymbolTable,
    lib: ExtLib,
    q: CQuery,
}

fn fixture() -> Fixture {
    let (units, symtab) =
        compile_all(&[SRC], CompilerOptions::validated()).expect("fixture compiles");
    let sp = StagePrograms::build(&units).expect("fixture links");
    let lib = ExtLib::demo(symtab.clone());
    let mem = symtab.build_init_mem().expect("init mem");
    let vf = symtab.func_ptr("run").expect("entry");
    let sig = sp.clight.sig_of("run").expect("entry sig");
    Fixture {
        sp,
        symtab,
        lib,
        q: CQuery {
            vf,
            sig,
            args: vec![Val::Int(5)],
            mem,
        },
    }
}

fn run_with(fx: &Fixture, stage: &str, budget: &RunBudget) -> StageOutcome {
    run_stage(&fx.sp, &fx.symtab, &fx.lib, stage, &fx.q, budget)
}

fn expect_obs(outcome: StageOutcome, what: &str) -> Obs {
    match outcome {
        StageOutcome::Ok(obs) => obs,
        other => panic!("{what}: expected completion, got {other:?}"),
    }
}

/// Generous cap on the sweep: every stage of this fixture completes in
/// well under this many steps.
const FUEL_CAP: u64 = 20_000;

/// A named chunk policy: the budget it runs a given fuel under.
type Policy = (&'static str, fn(u64) -> RunBudget);

#[test]
fn fuel_boundaries_are_exact_on_every_stage() {
    let fx = fixture();
    for stage in STAGES {
        let want = expect_obs(
            run_with(&fx, stage, &RunBudget::with_fuel(FUEL_CAP).no_trace()),
            stage,
        );

        // Sweep upward: every fuel below the minimum must be a clean
        // out-of-fuel — never a completion, a stuck state, or a panic —
        // no matter where inside a batch the cut lands.
        let mut minimal = None;
        for fuel in 0..FUEL_CAP {
            match run_with(&fx, stage, &RunBudget::with_fuel(fuel).no_trace()) {
                StageOutcome::Budget(_) => {}
                StageOutcome::Ok(obs) => {
                    assert_eq!(obs, want, "{stage}: observation at minimal fuel {fuel}");
                    minimal = Some(fuel);
                    break;
                }
                other => panic!("{stage}: fuel {fuel} produced {other:?}"),
            }
        }
        let minimal = minimal.unwrap_or_else(|| panic!("{stage}: no completion under {FUEL_CAP}"));

        // The fixture is long enough that fuel 0 and 1 sit strictly below
        // the boundary on every stage (so the loop above really asserted
        // them as out-of-fuel), and the boundary is interior — there are
        // genuine mid-run cut points on both sides.
        assert!(
            minimal > 2,
            "{stage}: minimal fuel {minimal} leaves no interior cut points"
        );

        // Surplus fuel changes nothing.
        let plus_one = expect_obs(
            run_with(&fx, stage, &RunBudget::with_fuel(minimal + 1).no_trace()),
            stage,
        );
        assert_eq!(
            plus_one, want,
            "{stage}: surplus fuel changed the observation"
        );
    }
}

#[test]
fn traced_and_batched_paths_agree_at_the_boundary() {
    let fx = fixture();
    for stage in STAGES {
        // Find the whole-fuel loop's minimal fuel …
        let mut minimal = None;
        for fuel in 0..FUEL_CAP {
            if let StageOutcome::Ok(_) =
                run_with(&fx, stage, &RunBudget::with_fuel(fuel).no_trace())
            {
                minimal = Some(fuel);
                break;
            }
        }
        let minimal = minimal.unwrap_or_else(|| panic!("{stage}: no completion under {FUEL_CAP}"));
        let batched_at = expect_obs(
            run_with(&fx, stage, &RunBudget::with_fuel(minimal).no_trace()),
            stage,
        );

        // … and pin every other chunk policy to the same boundary:
        // out-of-fuel one below, the same observation at it.
        let policies: [Policy; 4] = [
            ("ring trace", RunBudget::with_fuel),
            ("quotas", |fuel| {
                RunBudget::with_fuel(fuel)
                    .mem_limit(u64::MAX)
                    .depth_limit(u64::MAX)
            }),
            ("deadline", |fuel| {
                RunBudget::with_fuel(fuel)
                    .deadline(Duration::from_secs(3600))
                    .no_trace()
            }),
            ("json trace", |fuel| RunBudget::with_fuel(fuel).json_trace()),
        ];
        for (policy, budget) in policies {
            let under = run_with(&fx, stage, &budget(minimal - 1));
            assert!(
                matches!(under, StageOutcome::Budget(_)),
                "{stage}/{policy}: completed under the whole-fuel minimum: {under:?}"
            );
            let at = expect_obs(run_with(&fx, stage, &budget(minimal)), stage);
            assert_eq!(
                at, batched_at,
                "{stage}/{policy}: observation diverges from whole-fuel batches at the boundary"
            );
        }
        // The JSON runs leave their events in this thread's sink.
        let _ = compcerto_core::obs::take_trace();
    }
}

/// Two units for the composites: `run` (unit A) calls `addk` across the
/// boundary and `inc` out to the environment, often enough that a run
/// crosses a deadline stride; `main` enters it from `Closed`.
const CALLER: &str = "
    extern int addk(int);
    extern int inc(int);
    int run(int x) {
        int i; int s;
        s = x;
        for (i = 0; i < 100; i = i + 1) {
            s = addk(s);
            s = s - i;
        }
        s = inc(s);
        return s;
    }
    int main() { int r; r = run(5); return r; }
";
const CALLEE: &str = "int addk(int y) { return y + 3; }";

/// What one budgeted run observes — its outcome (a ring trace aside) — and
/// the `lts.*` counters it moved.
fn observe<L: Lts>(
    lts: &L,
    q: &Question<L::I>,
    env: &mut Env<'_, Question<L::O>, Answer<L::O>>,
    budget: &RunBudget,
) -> (String, LtsCounters) {
    let before = obs::counters();
    let seen = match run_budgeted(lts, q, env, budget) {
        RunOutcome::Complete {
            answer,
            trace,
            steps,
        } => format!("{answer:?} after {steps} steps, events {trace:?}"),
        RunOutcome::OutOfFuel { .. } => "out of fuel".into(),
        other => format!("{:?}", other.into_answer().err()),
    };
    (seen, obs::counters().since(&before))
}

fn steps_of<A>(out: RunOutcome<A>) -> u64 {
    match out {
        RunOutcome::Complete { steps, .. } => steps,
        other => panic!("expected completion, got {:?}", other.into_answer().err()),
    }
}

/// Sweep whole-fuel batches up to `lts`'s minimal completing fuel, then pin
/// every chunk policy to the same observation and counters one below it
/// and at it.
fn composite_boundary<L: Lts>(
    what: &str,
    lts: &L,
    q: &Question<L::I>,
    env: &mut Env<'_, Question<L::O>, Answer<L::O>>,
) {
    let policies: [Policy; 3] = [
        ("one step per batch", RunBudget::with_fuel),
        ("stride", |fuel| {
            RunBudget::with_fuel(fuel)
                .deadline(Duration::from_secs(3600))
                .no_trace()
        }),
        ("whole fuel", |fuel| RunBudget::with_fuel(fuel).no_trace()),
    ];
    let whole = policies[2].1;
    let minimal = (0..FUEL_CAP)
        .find(|&fuel| {
            matches!(
                run_budgeted(lts, q, env, &whole(fuel)),
                RunOutcome::Complete { .. }
            )
        })
        .unwrap_or_else(|| panic!("{what}: no completion under {FUEL_CAP}"));
    // Past the first deadline stride (1024 steps), so stride-aligned
    // batches really cut the run.
    assert!(
        minimal > 1024,
        "{what}: minimal fuel {minimal} is within one stride"
    );
    let reference = [minimal - 1, minimal].map(|fuel| observe(lts, q, env, &whole(fuel)));
    assert_eq!(reference[0].0, "out of fuel", "{what}");
    for (policy, budget) in policies {
        for (i, fuel) in [minimal - 1, minimal].into_iter().enumerate() {
            assert_eq!(
                observe(lts, q, env, &budget(fuel)),
                reference[i],
                "{what}/{policy} at fuel {fuel}"
            );
        }
    }
}

#[test]
fn composites_agree_across_chunk_policies_at_the_boundary() {
    let (units, symtab) =
        compile_all(&[CALLER, CALLEE], CompilerOptions::default()).expect("units compile");
    let lib = ExtLib::demo(symtab.clone());
    let composed = HComp::new(units[0].clight_sem(&symtab), units[1].clight_sem(&symtab));
    let q = c_query(&symtab, &units[0], "run", vec![Val::Int(5)]);
    composite_boundary("⊕", &composed, &q, &mut |m: &CQuery| lib.answer_c(m));
    let closed = Closed::new(&composed, symtab.clone(), "main", lib.clone());
    composite_boundary("Closed(⊕)", &closed, &(), &mut |v: &Void| match *v {});
}

#[test]
fn every_composition_rule_costs_one_step() {
    let (units, symtab) =
        compile_all(&[CALLER, CALLEE], CompilerOptions::default()).expect("units compile");
    let lib = ExtLib::demo(symtab.clone());
    let budget = RunBudget::with_fuel(FUEL_CAP).no_trace();
    let caller = units[0].clight_sem(&symtab);
    let callee = units[1].clight_sem(&symtab);
    let composed = HComp::new(units[0].clight_sem(&symtab), units[1].clight_sem(&symtab));
    let q = c_query(&symtab, &units[0], "run", vec![Val::Int(5)]);

    // The caller alone, with the callee run to completion as its
    // environment: each answer resumes it in one step.
    let (mut calls, mut callee_steps) = (0, 0);
    let alone = run_budgeted(
        &caller,
        &q,
        &mut |m: &CQuery| {
            if !callee.accepts(m) {
                return lib.answer_c(m);
            }
            calls += 1;
            match run_budgeted(&callee, m, &mut |_: &CQuery| None, &budget) {
                RunOutcome::Complete { answer, steps, .. } => {
                    callee_steps += steps;
                    Some(answer)
                }
                _ => None,
            }
        },
        &budget,
    );
    let alone = steps_of(alone);
    assert!(calls > 0, "the fixture crosses the boundary");

    // ⊕ adds one push per cross call and the callee's own steps; its pop
    // resumes the caller in one step, as the environment's answer did.
    let composite = steps_of(run_budgeted(
        &composed,
        &q,
        &mut |m: &CQuery| lib.answer_c(m),
        &budget,
    ));
    assert_eq!(
        composite,
        alone + calls + callee_steps,
        "⊕ over {calls} cross calls"
    );

    // `Closed` adds one boot step; each call χ answers costs one step, as
    // the environment's answer does.
    let main_q = c_query(&symtab, &units[0], "main", vec![]);
    let main = steps_of(run_budgeted(
        &composed,
        &main_q,
        &mut |m: &CQuery| lib.answer_c(m),
        &budget,
    ));
    let closed = Closed::new(&composed, symtab.clone(), "main", lib.clone());
    let closed = steps_of(run_budgeted(
        &closed,
        &(),
        &mut |v: &Void| match *v {},
        &budget,
    ));
    assert_eq!(closed, main + 1, "Closed boots in one step");
}
