//! Fuel-boundary edges of the batched step loop, across all seven stage
//! interpreters.
//!
//! The runner checks fuel *before* every step, so a run that completes in
//! `n` steps needs fuel `n + 1` — and `step_batch` must honour a cut at
//! **any** intermediate fuel value, including one that lands between the
//! two halves of a fused RTL dispatch pair (DESIGN.md §13.3). These
//! tests find each stage's minimal completing fuel by sweeping upward from
//! zero, which exercises every cut point exactly once, and pin:
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

use std::time::Duration;

use compcerto_core::iface::CQuery;
use compcerto_core::lts::RunBudget;
use compiler::{
    compile_all, run_stage, CompilerOptions, ExtLib, Obs, StageOutcome, StagePrograms, STAGES,
};
use mem::Val;

/// A small program with a loop and external calls: enough steps that every
/// stage has interior cut points (and RTL has fused pairs spanning them),
/// small enough that the exhaustive fuel sweep stays fast.
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
        // no matter where inside a batch (or a fused RTL pair) the cut
        // lands.
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
        assert_eq!(plus_one, want, "{stage}: surplus fuel changed the observation");
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
        let policies: [(&str, fn(u64) -> RunBudget); 4] = [
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
