//! Chunking equivalence of the run loop (DESIGN.md §13.1).
//!
//! The runner drives every stage through `step_batch` and picks the chunk
//! from the budget: a ring-trace budget runs one step per batch (it clones
//! every intermediate state), a trace-off budget hands each batch all the
//! fuel left, so the arena dispatch loops run whole stretches. Over the
//! fixed seed block the two must be indistinguishable — identical verdicts
//! (answers, external-call traces, final globals) and identical `lts.*`
//! counter deltas (steps, external calls, outcomes).
//!
//! The two-unit seeds also run the Thm 3.5 check (`Asm(p1) ⊕ Asm(p2)`
//! against the linked Asm) under both budgets: the composite batches
//! through its push/pop rules and the checker shares the runner's loop, so
//! the reports (or error texts) and `lts.sim_steps` must match too.
//!
//! The same sweep pins the block at *default* compiler options (DIFFTEST
//! and perfbench only cover validated compilations): an FNV-1a checksum of
//! the whole-fuel verdicts, and each stage interpreter's step count over
//! every query. Both were first recorded in EXPERIMENTS row B12.

use compcerto_core::cc::Ca;
use compcerto_core::conv::SimConv;
use compcerto_core::iface::CQuery;
use compcerto_core::lts::RunBudget;
use compcerto_core::obs;
use compcerto_core::sim::{SimCheckError, SimCheckReport};
use compcerto_gen::generate::gen_queries;
use compcerto_gen::{generate, GenCfg};
use compiler::serve::{fnv1a, FNV_OFFSET};
use compiler::{
    check_query, check_thm35_budgeted, compile_all, run_stage, CompilerOptions, ExtLib,
    QueryVerdict, StagePrograms, STAGES,
};
use mem::Val;

/// Seeds in the fixed block (kept small enough for a debug-profile
/// tier-1 run).
const SEEDS: u64 = 64;
/// Queries per seed (the difftest default).
const QUERIES: usize = 3;
/// Fuel per stage execution (the difftest default).
const FUEL: u64 = 2_000_000;
/// The whole-fuel verdicts' checksum over the block.
const VERDICTS_FNV: &str = "45c34a3c9d6a18c9";
/// Each stage's steps over every query of the block, run alone.
const STAGE_STEPS: [(&str, u64); 7] = [
    ("clight", 148_130),
    ("simpl-locals", 148_130),
    ("rtl", 281_075),
    ("rtl-opt", 281_141),
    ("linear", 210_555),
    ("mach", 219_147),
    ("asm", 228_736),
];

fn thm35_repr(r: &Result<SimCheckReport, SimCheckError>) -> String {
    match r {
        Ok(rep) => format!(
            "ok: {} calls, {}/{} steps, events {:?}",
            rep.external_calls, rep.source_steps, rep.target_steps, rep.source_trace
        ),
        Err(e) => format!("err: {e}"),
    }
}

fn verdict_repr(v: &QueryVerdict) -> String {
    match v {
        QueryVerdict::Agree(obs) => format!("agree:{obs}"),
        QueryVerdict::Skipped { stage } => format!("skip@{stage}"),
        QueryVerdict::Finding { kind, detail } => format!("finding:{kind}:{detail}"),
    }
}

#[test]
fn one_step_chunks_match_whole_fuel_chunks_on_seed_block() {
    let mut thm35_checks = 0;
    // The pin: FNV-1a over the seed, the query index and the verdict line,
    // in (seed, query) order; the (agree, skipped, findings) tally; and
    // each stage's `lts.steps` delta.
    let mut h = FNV_OFFSET;
    let mut tally = (0, 0, 0);
    let mut steps = [0; STAGES.len()];
    for seed in 0..SEEDS {
        h = fnv1a(h, &seed.to_le_bytes());
        let prog = generate(seed, &GenCfg::default());
        let srcs = prog.render();
        let refs: Vec<&str> = srcs.iter().map(String::as_str).collect();
        let (units, symtab) =
            compile_all(&refs, CompilerOptions::default()).expect("seed compiles");
        let sp = StagePrograms::build(&units).expect("stage programs build");
        let lib = ExtLib::demo(symtab.clone());
        let init = symtab.build_init_mem().expect("initial memory");
        let (_, entry) = prog.entry();
        let vf = symtab.func_ptr(&entry.name).expect("entry symbol");
        let sig = sp.clight.sig_of(&entry.name).expect("entry signature");

        // A ring trace runs one step per batch …
        let stepped = RunBudget::with_fuel(FUEL).trace_capacity(16);
        // … a trace-off budget gives each batch all the fuel left.
        let whole = RunBudget::with_fuel(FUEL).no_trace();

        for (qi, args) in gen_queries(seed, entry.nparams as usize, QUERIES)
            .into_iter()
            .enumerate()
        {
            let q = CQuery {
                vf,
                sig: sig.clone(),
                args: args.iter().map(|&a| Val::Int(a)).collect(),
                mem: init.clone(),
            };

            let c0 = obs::counters();
            let vs = check_query(&sp, &symtab, &lib, &q, &stepped);
            let ds = obs::counters().since(&c0);

            let c1 = obs::counters();
            let vw = check_query(&sp, &symtab, &lib, &q, &whole);
            let dw = obs::counters().since(&c1);

            assert_eq!(
                verdict_repr(&vs),
                verdict_repr(&vw),
                "seed {seed} args {args:?}: verdict diverged between chunk sizes"
            );
            assert_eq!(
                ds, dw,
                "seed {seed} args {args:?}: lts.* counters diverged between chunk sizes"
            );

            h = fnv1a(h, &(qi as u64).to_le_bytes());
            let line = match vw {
                QueryVerdict::Agree(obs) => {
                    tally.0 += 1;
                    format!("{obs}")
                }
                QueryVerdict::Skipped { stage } => {
                    tally.1 += 1;
                    format!("skip@{stage}")
                }
                QueryVerdict::Finding { kind, detail } => {
                    tally.2 += 1;
                    format!("finding:{kind}:{detail}")
                }
            };
            h = fnv1a(h, line.as_bytes());
            for (n, stage) in steps.iter_mut().zip(STAGES) {
                let c = obs::counters();
                let _ = run_stage(&sp, &symtab, &lib, stage, &q, &whole);
                *n += obs::counters().since(&c).steps;
            }

            if units.len() == 2 {
                let Some((_, qa)) = Ca::new(symtab.len() as u32).transport_query(&q) else {
                    continue;
                };
                let thm35 = |budget: &RunBudget| {
                    let c = obs::counters();
                    let r = check_thm35_budgeted(
                        &units[0].asm,
                        &units[1].asm,
                        &symtab,
                        &lib,
                        &qa,
                        budget,
                    );
                    (thm35_repr(&r), obs::counters().since(&c))
                };
                let (rs, cs) = thm35(&stepped);
                let (rw, cw) = thm35(&whole);
                assert_eq!(rs, rw, "seed {seed} args {args:?}: thm35 diverged");
                assert!(
                    cs.sim_steps > 0,
                    "seed {seed} args {args:?}: thm35 ran no steps"
                );
                assert_eq!(
                    cs, cw,
                    "seed {seed} args {args:?}: thm35 lts.* counters diverged"
                );
                thm35_checks += 1;
            }
        }
    }
    assert!(thm35_checks > 0, "the seed block has two-unit seeds");
    assert_eq!(format!("{h:016x}"), VERDICTS_FNV);
    assert_eq!(tally, (192, 0, 0), "(agree, skipped, findings)");
    assert_eq!(
        STAGES.into_iter().zip(steps).collect::<Vec<_>>(),
        STAGE_STEPS
    );
}
