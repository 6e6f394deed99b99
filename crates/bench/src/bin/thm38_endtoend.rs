//! The headline experiment: Theorem 3.8 — `Clight(p) ≤_{C↠C} Asm(p')` —
//! checked over a parameter sweep of generated programs and queries, with
//! and without the optional optimizations (the convention `C` must be
//! insensitive to them, paper §3.4).

use bench::fail;
use compiler::{
    c_query, check_thm38, compile_all, CompilerOptions, ExtLib, WorkloadCfg, WorkloadGen,
};

fn main() {
    println!("Thm 3.8 end-to-end sweep (paper §3.4)");
    println!("{:-<70}", "");
    println!(
        "{:<10}{:>8}{:>10}{:>12}{:>12}{:>10}",
        "config", "progs", "queries", "externals", "tgt steps", "verdict"
    );
    println!("{:-<70}", "");

    for (label, opts) in [
        ("-O1", CompilerOptions::default()),
        ("-O0", CompilerOptions::none()),
    ] {
        let mut g = WorkloadGen::new(777);
        let cfg = WorkloadCfg::default();
        let programs = 10;
        let queries_per = 4;
        let mut externals = 0usize;
        let mut tgt_steps = 0u64;
        let mut checked = 0usize;
        for i in 0..programs {
            let (src, arity) = g.gen_program(&cfg);
            let (units, tbl) =
                compile_all(&[&src], opts).unwrap_or_else(|e| fail(format!("prog {i}: {e}")));
            let lib = ExtLib::demo(tbl.clone());
            for args in g.gen_queries(arity, queries_per) {
                let q = c_query(&tbl, &units[0], "entry", args.clone());
                let report = check_thm38(&units[0], &tbl, &lib, &q).unwrap_or_else(|e| {
                    fail(format!("{label} prog {i} args {args:?}: {e}\n{src}"))
                });
                externals += report.external_calls;
                tgt_steps += report.target_steps;
                checked += 1;
            }
        }
        println!(
            "{label:<10}{programs:>8}{checked:>10}{externals:>12}{tgt_steps:>12}{:>10}",
            "✓"
        );
    }
    println!("{:-<70}", "");
    println!("Every execution satisfied the simulation convention C = R*·wt·CA·vainj:");
    println!("control returned through ra with sp restored, callee-save registers");
    println!("preserved, results injection-related, memories injection-related, and");
    println!("every external boundary CA-related (Fig. 6c).");
}
