//! Chunking equivalence of the run loop (DESIGN.md §13.1).
//!
//! The runner drives every stage through `step_batch` and picks the chunk
//! from the budget: a ring-trace budget runs one step per batch (it clones
//! every intermediate state), a trace-off budget hands each batch all the
//! fuel left, so the arena/fused dispatch loops run whole stretches. Over
//! the fixed seed block the two must be indistinguishable — identical
//! verdicts (answers, external-call traces, final globals) and identical
//! `lts.*` counter deltas (steps, external calls, outcomes). In particular,
//! fuel-1 batches commit one half of a fused RTL pair per step, so this
//! also checks fused dispatch against unfused stepping end to end.

use compcerto_core::iface::CQuery;
use compcerto_core::lts::RunBudget;
use compcerto_core::obs;
use compcerto_gen::generate::gen_queries;
use compcerto_gen::{generate, GenCfg};
use compiler::{
    check_query, compile_all, CompilerOptions, ExtLib, QueryVerdict, StagePrograms,
};
use mem::Val;

/// Seeds in the fixed block (the `interp_campaign` block, kept small
/// enough for a debug-profile tier-1 run).
const SEEDS: u64 = 64;
/// Queries per seed (the difftest default).
const QUERIES: usize = 3;
/// Fuel per stage execution (the difftest default).
const FUEL: u64 = 2_000_000;

fn verdict_repr(v: &QueryVerdict) -> String {
    match v {
        QueryVerdict::Agree(obs) => format!("agree:{obs}"),
        QueryVerdict::Skipped { stage } => format!("skip@{stage}"),
        QueryVerdict::Finding { kind, detail } => format!("finding:{kind}:{detail}"),
    }
}

#[test]
fn one_step_chunks_match_whole_fuel_chunks_on_seed_block() {
    for seed in 0..SEEDS {
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

        for args in gen_queries(seed, entry.nparams as usize, QUERIES) {
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
        }
    }
}
