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

/// Deep mutual recursion through ⊕ (two Clight units, 20,000 levels). It
/// does not finish: the run is quadratic in the depth, or worse.
///
/// Each cross-component call copies the memory twice: Clight moves its
/// memory into its question, keeps that question in its `External` state
/// and hands ⊕ a `q.clone()`, and ⊕ starts the callee through `initial`,
/// which clones `q.mem`. A copy costs one slot per block ever allocated
/// (`Mem::blocks` keeps the slots of freed blocks), so the call at level
/// `d` copies about `2d` slots. Measured on a shared 2-core host with a
/// counting `Clone` on `Mem`, under `RunBudget::no_trace()`, at depths
/// 200, 400, 800, 1,600 and 3,200 (best of five runs, median of three
/// rounds): 1.9, 7.0, 23, 86 and 329 ms; 401, 801, 1,601, 3,201 and 6,401
/// `Mem` clones; 0.081, 0.32, 1.29, 5.13 and 20.5 M slots copied (about
/// 2d²). Under the default ring trace that `run` uses, every step also
/// clones the ⊕ stack, whose suspended frames each hold such a question,
/// so the time grows about 8× per doubling (0.48 s at depth 200 and 4.0 s
/// at depth 400 on the same host, with 805,207 `Mem` clones at depth
/// 400).
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
