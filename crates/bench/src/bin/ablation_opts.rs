//! Ablation of the optional optimization passes (DESIGN.md §4, design-choice
//! ablation): code size and execution cost with each optimization removed,
//! demonstrating paper §3.4's point operationally — the optional passes
//! change the *numbers* but never the *convention* (every configuration
//! still passes the Thm 3.8 check).

use bench::fail;
use compiler::{
    c_query, check_thm38, compile_all, CompilerOptions, ExtLib, WorkloadCfg, WorkloadGen,
};

struct Config {
    label: &'static str,
    opts: CompilerOptions,
}

fn configs() -> Vec<Config> {
    let on = CompilerOptions::default;
    vec![
        Config {
            label: "all",
            opts: on(),
        },
        Config {
            label: "-tailcall",
            opts: CompilerOptions {
                tailcall: false,
                ..on()
            },
        },
        Config {
            label: "-inlining",
            opts: CompilerOptions {
                inlining: false,
                ..on()
            },
        },
        Config {
            label: "-constprop",
            opts: CompilerOptions {
                constprop: false,
                ..on()
            },
        },
        Config {
            label: "-cse",
            opts: CompilerOptions { cse: false, ..on() },
        },
        Config {
            label: "-deadcode",
            opts: CompilerOptions {
                deadcode: false,
                ..on()
            },
        },
        Config {
            label: "none",
            opts: CompilerOptions::none(),
        },
    ]
}

fn main() {
    // A fixed suite of generated programs shared by all configurations.
    let mut g = WorkloadGen::new(31415);
    let cfg = WorkloadCfg {
        functions: 4,
        stmts_per_fn: 10,
        ..WorkloadCfg::default()
    };
    let mut suite: Vec<(String, usize)> = (0..8).map(|_| g.gen_program(&cfg)).collect();
    // Two fixed programs exercising the passes the generator rarely hits:
    // an inlinable leaf helper, and a tail call.
    suite.push((
        "int sq(int x) { return x * x; }\n\
         int entry(int a) { int r; int s; r = sq(a); s = sq(r); return r + s; }"
            .to_string(),
        1,
    ));
    suite.push((
        "int countdown(int n) { int r; if (n <= 0) { return 0; } r = countdown(n - 1); return r; }\n\
         int entry(int a) { int r; r = countdown(a % 50); return r; }"
            .to_string(),
        1,
    ));
    let query_sets: Vec<Vec<Vec<mem::Val>>> = suite
        .iter()
        .map(|(_, arity)| g.gen_queries(*arity, 3))
        .collect();

    println!("Ablation: optional passes (cf. paper Table 3 † and §3.4)");
    println!("{:-<74}", "");
    println!(
        "{:<12}{:>10}{:>10}{:>12}{:>14}{:>10}",
        "config", "RTL ops", "Asm insts", "src steps", "tgt steps", "Thm 3.8"
    );
    println!("{:-<74}", "");

    for c in configs() {
        let mut rtl_ops = 0usize;
        let mut asm_insts = 0usize;
        let mut src_steps = 0u64;
        let mut tgt_steps = 0u64;
        for ((src, _), queries) in suite.iter().zip(&query_sets) {
            let (units, tbl) = compile_all(&[src], c.opts)
                .unwrap_or_else(|e| fail(format!("workload does not compile: {e:?}")));
            let lib = ExtLib::demo(tbl.clone());
            // Count live (non-Nop) RTL instructions: the optimizations blank
            // instructions rather than renumbering them away.
            rtl_ops += units[0]
                .rtl_opt
                .functions
                .iter()
                .flat_map(|f| f.code.values())
                .filter(|i| !matches!(i, rtl::Inst::Nop(_)))
                .count();
            asm_insts += units[0]
                .asm
                .functions
                .iter()
                .map(|f| f.code.len())
                .sum::<usize>();
            for args in queries {
                let q = c_query(&tbl, &units[0], "entry", args.clone());
                let report = check_thm38(&units[0], &tbl, &lib, &q)
                    .unwrap_or_else(|e| panic!("{}: {e}", c.label));
                src_steps += report.source_steps;
                tgt_steps += report.target_steps;
            }
        }
        println!(
            "{:<12}{rtl_ops:>10}{asm_insts:>10}{src_steps:>12}{tgt_steps:>14}{:>10}",
            c.label, "✓"
        );
    }
    println!("{:-<74}", "");
    println!("Shape: removing Deadcode or Constprop visibly grows the generated code");
    println!("and the executed target steps; interactions between passes are real");
    println!("(CSE lengthens live ranges, costing spills). The invariant: every");
    println!("configuration satisfies the same convention C — paper §3.4's");
    println!("†-insensitivity claim, observed rather than proved.");
}
