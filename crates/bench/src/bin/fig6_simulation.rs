//! Regenerate the content of paper Fig. 6: the forward-simulation diagrams,
//! checked at scale — a sweep of generated programs and queries where every
//! initial-state, external-state and final-state edge is verified on the
//! end-to-end pipeline.

use bench::fail;
use compcerto_gen::generate::gen_queries;
use compcerto_gen::{generate, GenCfg};
use compiler::{c_query, check_thm38, compile_all, CompilerOptions, ExtLib};
use mem::Val;

fn main() {
    let programs = 12;
    let queries = 4;
    let cfg = GenCfg::single_unit();

    println!("Fig. 6: forward-simulation diagram checks (cf. paper Fig. 6)");
    println!("sweep: {programs} generated programs × {queries} queries");
    println!("{:-<74}", "");
    println!(
        "{:>4} {:>8} {:>10} {:>12} {:>12} {:>12}",
        "prog", "queries", "externals", "src steps", "tgt steps", "verdict"
    );
    println!("{:-<74}", "");

    let mut total_ext = 0usize;
    let mut total_src = 0u64;
    let mut total_tgt = 0u64;
    for i in 0..programs {
        let prog = generate(66 + i as u64, &cfg);
        let (_, entry) = prog.entry();
        let (units, tbl) = compile_all(&[&prog.render()[0]], CompilerOptions::default())
            .unwrap_or_else(|e| fail(format!("program {i} does not compile: {e}")));
        let lib = ExtLib::demo(tbl.clone());
        let mut ext = 0usize;
        let mut s_steps = 0u64;
        let mut t_steps = 0u64;
        for args in gen_queries(prog.seed, entry.nparams as usize, queries) {
            let args: Vec<Val> = args.into_iter().map(Val::Int).collect();
            let q = c_query(&tbl, &units[0], &entry.name, args.clone());
            let report = check_thm38(&units[0], &tbl, &lib, &q).unwrap_or_else(|e| {
                let src = prog.to_annotated_source();
                fail(format!("program {i}, args {args:?}: {e}\n{src}"))
            });
            ext += report.external_calls;
            s_steps += report.source_steps;
            t_steps += report.target_steps;
        }
        total_ext += ext;
        total_src += s_steps;
        total_tgt += t_steps;
        println!(
            "{i:>4} {queries:>8} {ext:>10} {s_steps:>12} {t_steps:>12} {:>12}",
            "✓"
        );
    }
    println!("{:-<74}", "");
    println!(
        "all edges held: {} initial-state, {} external-state (Fig. 6c), {} final-state",
        programs * queries,
        total_ext,
        programs * queries
    );
    println!(
        "aggregate steps: source {total_src}, target {total_tgt} (ratio {:.2}x)",
        total_tgt as f64 / total_src.max(1) as f64
    );
}
