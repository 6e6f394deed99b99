//! Long-running stress sweeps, ignored by default:
//!
//! ```sh
//! cargo test --test stress -- --ignored
//! ```

use compcerto::compiler::{c_query, check_thm38, compile_all, CompilerOptions, ExtLib};
use compcerto::mem::Val;
use compcerto_gen::generate::gen_queries;
use compcerto_gen::{generate, GenCfg};

/// 64 random programs × 4 queries × both optimization configurations — a
/// deeper version of the Thm 3.8 sweep in `end_to_end.rs`
/// (`random_program_sweep`), on larger programs.
#[test]
#[ignore = "long-running stress sweep; run with --ignored"]
fn thm38_stress_sweep() {
    // Two blocks of 32 seeds: program `round` is drawn from `base + round`.
    for (base, opts) in [
        (1u64, CompilerOptions::default()),
        (1u64, CompilerOptions::none()),
        (33u64, CompilerOptions::default()),
        (33u64, CompilerOptions::none()),
    ] {
        let cfg = GenCfg {
            fns_per_unit: 4,
            stmts_per_fn: 12,
            ..GenCfg::single_unit()
        };
        for round in 0..32 {
            let prog = generate(base + round, &cfg);
            let (_, entry) = prog.entry();
            let src = prog.to_annotated_source();
            let (units, tbl) = compile_all(&[&prog.render()[0]], opts)
                .unwrap_or_else(|e| panic!("base {base} round {round}: {e}"));
            let lib = ExtLib::demo(tbl.clone());
            for args in gen_queries(prog.seed, entry.nparams as usize, 4) {
                let args: Vec<Val> = args.into_iter().map(Val::Int).collect();
                let q = c_query(&tbl, &units[0], &entry.name, args.clone());
                check_thm38(&units[0], &tbl, &lib, &q).unwrap_or_else(|e| {
                    panic!("base {base} round {round} args {args:?}: {e}\n{src}")
                });
            }
        }
    }
}

/// Deep mutual recursion through ⊕ stays linear after the persistent-stack
/// optimization (would time out quadratically otherwise).
#[test]
#[ignore = "long-running stress sweep; run with --ignored"]
fn hcomp_deep_recursion_stress() {
    let even = "extern int is_odd(int); int is_even(int n) { int r; if (n == 0) { return 1; } r = is_odd(n - 1); return r; }";
    let odd = "extern int is_even(int); int is_odd(int n) { int r; if (n == 0) { return 0; } r = is_even(n - 1); return r; }";
    let (units, tbl) = compile_all(&[even, odd], CompilerOptions::default()).unwrap();
    let composed =
        compcerto::core::hcomp::HComp::new(units[0].clight_sem(&tbl), units[1].clight_sem(&tbl));
    let q = c_query(
        &tbl,
        &units[0],
        "is_even",
        vec![compcerto::mem::Val::Int(20_000)],
    );
    let r = compcerto::core::lts::run(&composed, &q, &mut |_m| None, 100_000_000).expect_complete();
    assert_eq!(r.retval, compcerto::mem::Val::Int(1));
}
